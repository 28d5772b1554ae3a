//! MV4xx corruption suite: seed each maintenance bug the rule family
//! describes and pin it to its rule — wrong-delta drift to MV401,
//! fresh-claimed wrong serving to MV402, an undeleted emptied group to
//! MV403, a forged data-epoch stamp to MV404. A clean engine+maintainer
//! pair must stay green under both audits. The damage is done here, to
//! the maintained state this crate owns, so no hook for it ships.

use super::*;
use mv_catalog::schema::TableBuilder;
use mv_catalog::{Catalog, ColumnType};
use mv_core::MatchConfig;
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_plan::NamedAgg;

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

fn schema() -> (Catalog, TableId) {
    let mut cat = Catalog::new();
    let r = cat.add_table(
        TableBuilder::new("r")
            .col("pk", ColumnType::Int)
            .nullable_col("g", ColumnType::Int)
            .nullable_col("x", ColumnType::Int)
            .primary_key(&["pk"])
            .build(),
    );
    (cat, r)
}

fn r_rows() -> Vec<Row> {
    (0..8)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 3),
                if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Int(i * 10)
                },
            ]
        })
        .collect()
}

/// Engine + maintainer over the same catalog, with an SPJ view and a
/// grouped aggregate view registered in both under the same ids.
fn setup() -> (MatchingEngine, Maintainer, Vec<SpjgExpr>, TableId) {
    let (cat, r) = schema();
    let mut db = Database::new(cat.clone());
    db.load(r, r_rows());
    let engine = MatchingEngine::new(cat, MatchConfig::default());
    let mut maintainer = Maintainer::new(db);
    let spj = SpjgExpr::spj(
        vec![r],
        BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(0i64)),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "pk"),
            NamedExpr::new(S::col(cr(0, 2)), "x"),
        ],
    );
    let agg = SpjgExpr::aggregate(
        vec![r],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 1)), "g")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(S::col(cr(0, 2))), "sum_x"),
        ],
    );
    let mut queries = Vec::new();
    for (name, expr) in [("spj_r", spj), ("agg_by_g", agg)] {
        let id = engine
            .add_view(ViewDef::new(name, expr.clone()))
            .expect("view registers");
        maintainer.register(id, &ViewDef::new(name, expr.clone()));
        queries.push(expr);
    }
    (engine, maintainer, queries, r)
}

fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = diags.iter().map(|d| d.rule.code()).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Drop the first row of a view's maintained contents — for a grouped
/// rollup, the row's group with it — as a skipped insert delta would.
fn drop_row(maintainer: &mut Maintainer, id: ViewId) {
    let view = &mut maintainer.views[maintainer.slots[&id]];
    match &mut view.agg {
        Some(agg) => {
            assert!(agg.n_keys > 0, "a scalar aggregate always serves its row");
            agg.remove_group(&mut view.rows, 0);
        }
        None => {
            view.rows.remove(0);
        }
    }
}

/// Open a group at count zero in a grouped rollup and its served rows, as
/// a counting bug that forgets to delete emptied groups would.
fn zombie_group(maintainer: &mut Maintainer, id: ViewId, key: &[Value]) {
    let view = &mut maintainer.views[maintainer.slots[&id]];
    let agg = view.agg.as_mut().expect("an incremental aggregate view");
    let hash = agg.hash(key);
    assert!(agg.find(&view.rows, key, hash).is_none(), "a group to open");
    let g = agg.push_group(&mut view.rows, key, hash);
    agg.write_row(&mut view.rows, g);
}

#[test]
fn clean_pair_stays_green_under_write_workload() {
    let (engine, mut maintainer, queries, r) = setup();
    for round in 0..4i64 {
        let delta = TableDelta {
            table: r,
            inserts: vec![vec![
                Value::Int(100 + round),
                Value::Int(round % 3),
                Value::Int(7),
            ]],
            deletes: vec![maintainer.db().rows(r)[0].clone()],
        };
        maintainer.apply_with_engine(&delta, &engine);
        assert!(maintainer.audit().is_empty(), "round {round}: state audit");
        let diags = audit_serving(&engine, &maintainer, &queries);
        assert!(diags.is_empty(), "round {round}: serving audit {diags:?}");
    }
}

#[test]
fn dropped_delta_pins_mv401_and_mv402() {
    let (engine, mut maintainer, queries, _) = setup();
    drop_row(&mut maintainer, ViewId(0));
    // State audit: contents no longer equal recompute.
    let diags = maintainer.audit();
    assert_eq!(codes(&diags), vec![RuleId::MaintainedDrift.code()]);
    assert_eq!(RuleId::MaintainedDrift.code(), "MV401");
    // Serving audit: the engine (no writes recorded) rightly claims
    // Fresh, but executing the substitute against the corrupted contents
    // returns wrong rows.
    let diags = audit_serving(&engine, &maintainer, &queries);
    assert!(
        codes(&diags).contains(&RuleId::StaleServing.code()),
        "{diags:?}"
    );
    assert_eq!(RuleId::StaleServing.code(), "MV402");
}

#[test]
fn zombie_group_pins_mv403() {
    let (_, mut maintainer, _, _) = setup();
    // An emptied group the counting rollup forgot to delete: key g=99
    // never existed, count 0.
    zombie_group(&mut maintainer, ViewId(1), &[Value::Int(99)]);
    let diags = maintainer.audit();
    let found = codes(&diags);
    assert!(found.contains(&RuleId::ZombieGroup.code()), "{diags:?}");
    assert_eq!(RuleId::ZombieGroup.code(), "MV403");
    // The phantom group also shows up in the served rows, so drift fires
    // too — the two rules report different layers of the same bug.
    assert!(found.contains(&RuleId::MaintainedDrift.code()), "{diags:?}");
}

#[test]
fn forged_stamp_pins_mv404() {
    let (engine, maintainer, queries, r) = setup();
    // The engine's own stamps trail or meet the current epochs.
    assert!(audit_serving(&engine, &maintainer, &queries).is_empty());
    // A stamp two rounds ahead of its table: no correct maintenance
    // schedule produces one.
    let forged = [(r, engine.data_epoch(r) + 2)];
    let diags = stamp_regressions("spj_r", &forged, |t| engine.data_epoch(t));
    assert_eq!(codes(&diags), vec![RuleId::StampRegression.code()]);
    assert_eq!(RuleId::StampRegression.code(), "MV404");
    assert_eq!(diags[0].context.view.as_deref(), Some("spj_r"));
}

#[test]
fn skipped_maintenance_is_declared_stale_not_wrong() {
    let (engine, mut maintainer, queries, r) = setup();
    // Record the write in the engine but leave one view unmaintained by
    // forcing it dirty: a *declared* stale view is exempt from MV401 and
    // never claims Fresh, so both audits stay green.
    engine.record_base_write(r);
    let delta = TableDelta::insert(r, vec![vec![Value::Int(500), Value::Int(0), Value::Int(1)]]);
    maintainer.apply(&delta);
    // Only restamp view 0; view 1 stays stale in the engine.
    engine.mark_views_maintained(&[ViewId(0)]);
    assert_eq!(engine.view_staleness(ViewId(1)), Some(1));
    assert!(maintainer.audit().is_empty());
    let diags = audit_serving(&engine, &maintainer, &queries);
    assert!(diags.is_empty(), "{diags:?}");
    // The stale view still serves under the default StaleOk policy —
    // with an honest Stale stamp.
    let subs = engine.find_substitutes(&queries[1]);
    assert_eq!(subs.len(), 1);
    assert_eq!(subs[0].1.freshness.lag(), 1);
}

/// An id registered again answers to its latest registration alone: a
/// broken earlier copy is not left behind to be audited next to the new
/// one.
#[test]
fn registering_an_id_again_drops_the_broken_copy() {
    let (_, mut maintainer, queries, _) = setup();
    drop_row(&mut maintainer, ViewId(0));
    assert_eq!(maintainer.audit().len(), 1);
    maintainer.register(ViewId(0), &ViewDef::new("spj_r", queries[0].clone()));
    assert!(
        maintainer.audit().is_empty(),
        "the replaced copy is still audited"
    );
}

/// Refreshing a view leaves it where it was registered: `audit` reports
/// views in registration order whatever the refresh history.
#[test]
fn refresh_keeps_registration_order() {
    let (_, mut maintainer, _, _) = setup();
    // Refresh the second view before the first, then break both: the
    // diagnostics must still come first-registered first.
    assert!(maintainer.refresh(ViewId(1)));
    assert!(maintainer.refresh(ViewId(0)));
    drop_row(&mut maintainer, ViewId(1));
    drop_row(&mut maintainer, ViewId(0));
    let order: Vec<_> = maintainer
        .audit()
        .iter()
        .map(|d| {
            d.context
                .view
                .clone()
                .expect("state diagnostics name their view")
        })
        .collect();
    assert_eq!(order, ["spj_r", "agg_by_g"]);
}
