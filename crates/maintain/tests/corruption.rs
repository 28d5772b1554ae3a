//! MV4xx corruption suite: seed each maintenance bug the rule family
//! describes and pin it to its rule — wrong-delta drift to MV401,
//! fresh-claimed wrong serving to MV402, an undeleted emptied group to
//! MV403, a forged data-epoch stamp to MV404. A clean engine+maintainer
//! pair must stay green under both audits.

use mv_catalog::schema::TableBuilder;
use mv_catalog::{Catalog, ColumnType, TableId, Value};
use mv_core::{MatchConfig, MatchingEngine};
use mv_data::{Database, Row};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_maintain::{audit_serving, Maintainer, TableDelta};
use mv_plan::{AggFunc, NamedAgg, NamedExpr, SpjgExpr, ViewDef, ViewId};
use mv_verify::RuleId;

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

fn codes(diags: &[mv_verify::Diagnostic]) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = diags.iter().map(|d| d.rule.code()).collect();
    out.sort_unstable();
    out.dedup();
    out
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
    assert!(maintainer.corrupt_drop_row_for_audit(ViewId(0)));
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
    assert!(maintainer.corrupt_zombie_group_for_audit(ViewId(1), vec![Value::Int(99)]));
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
    let (engine, maintainer, queries, _) = setup();
    assert!(engine.corrupt_view_stamp_for_audit(ViewId(0), 2));
    let diags = audit_serving(&engine, &maintainer, &queries);
    assert_eq!(codes(&diags), vec![RuleId::StampRegression.code()]);
    assert_eq!(RuleId::StampRegression.code(), "MV404");
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
