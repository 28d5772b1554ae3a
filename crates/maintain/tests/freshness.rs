//! Acceptance: under a write workload, `StrictFresh` matching never
//! serves a substitute whose data epochs trail the current table epochs —
//! including the window *between* a base write and its maintenance round,
//! and for recompute-fallback views that lag until refreshed. The
//! bounded and stale-tolerant policies relax admission monotonically and
//! always stamp honestly.

use mv_catalog::schema::TableBuilder;
use mv_catalog::{Catalog, ColumnType, TableId, Value};
use mv_core::{FreshnessPolicy, MatchConfig, MatchingEngine};
use mv_data::{Database, Row};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_maintain::{audit_serving, MaintainStrategy, Maintainer, TableDelta};
use mv_plan::{NamedExpr, SpjgExpr, ViewDef, ViewId};

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

fn schema() -> (Catalog, TableId) {
    let mut cat = Catalog::new();
    let r = cat.add_table(
        TableBuilder::new("r")
            .col("pk", ColumnType::Int)
            .nullable_col("x", ColumnType::Int)
            .primary_key(&["pk"])
            .build(),
    );
    (cat, r)
}

fn setup(policy: FreshnessPolicy) -> (MatchingEngine, Maintainer, SpjgExpr, TableId) {
    let (cat, r) = schema();
    let mut db = Database::new(cat.clone());
    db.load(
        r,
        (0..6)
            .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
            .collect::<Vec<Row>>(),
    );
    let engine = MatchingEngine::new(
        cat,
        MatchConfig {
            freshness: policy,
            ..MatchConfig::default()
        },
    );
    let mut maintainer = Maintainer::new(db);
    let expr = SpjgExpr::spj(
        vec![r],
        BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(0i64)),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "pk"),
            NamedExpr::new(S::col(cr(0, 1)), "x"),
        ],
    );
    let id = engine
        .add_view(ViewDef::new("v_r", expr.clone()))
        .expect("view registers");
    let strategy = maintainer.register(id, &ViewDef::new("v_r", expr.clone()));
    assert_eq!(strategy, MaintainStrategy::Incremental);
    (engine, maintainer, expr, r)
}

fn delta(r: TableId, round: i64) -> TableDelta {
    TableDelta::insert(r, vec![vec![Value::Int(100 + round), Value::Int(7)]])
}

#[test]
fn strict_fresh_never_serves_trailing_epochs() {
    let (engine, mut maintainer, query, r) = setup(FreshnessPolicy::StrictFresh);
    for round in 0..5 {
        // Window 1: write recorded, maintenance not yet run. StrictFresh
        // must refuse the view outright.
        engine.record_base_write(r);
        maintainer.apply(&delta(r, round));
        assert_eq!(engine.view_staleness(ViewId(0)), Some(1));
        assert!(
            engine.find_substitutes(&query).is_empty(),
            "round {round}: StrictFresh served a view with trailing epochs"
        );

        // Window 2: maintenance caught up and restamped; serving resumes
        // with a hard Fresh guarantee verified end-to-end.
        engine.mark_views_maintained(&[ViewId(0)]);
        let subs = engine.find_substitutes(&query);
        assert_eq!(subs.len(), 1, "round {round}");
        assert!(subs[0].1.freshness.is_fresh());
        assert_eq!(engine.view_staleness(subs[0].0), Some(0));
        let diags = audit_serving(&engine, &maintainer, std::slice::from_ref(&query));
        assert!(diags.is_empty(), "round {round}: {diags:?}");
    }
}

#[test]
fn bounded_staleness_admits_up_to_its_bound() {
    let (engine, mut maintainer, query, r) = setup(FreshnessPolicy::BoundedStaleness(2));
    // Two unmaintained writes: lag 2, still admissible — stamped Stale.
    for round in 0..2 {
        engine.record_base_write(r);
        maintainer.apply(&delta(r, round));
    }
    let subs = engine.find_substitutes(&query);
    assert_eq!(subs.len(), 1);
    assert_eq!(subs[0].1.freshness.lag(), 2);
    // A third write exceeds the bound.
    engine.record_base_write(r);
    maintainer.apply(&delta(r, 2));
    assert!(engine.find_substitutes(&query).is_empty());
    // Maintenance restores admission at lag zero.
    engine.mark_views_maintained(&[ViewId(0)]);
    let subs = engine.find_substitutes(&query);
    assert_eq!(subs.len(), 1);
    assert!(subs[0].1.freshness.is_fresh());
}

#[test]
fn stale_ok_always_serves_with_honest_lag() {
    let (engine, mut maintainer, query, r) = setup(FreshnessPolicy::StaleOk);
    for round in 0..4 {
        engine.record_base_write(r);
        maintainer.apply(&delta(r, round));
        let subs = engine.find_substitutes(&query);
        assert_eq!(subs.len(), 1, "round {round}");
        assert_eq!(subs[0].1.freshness.lag(), round as u64 + 1);
    }
}

/// An id registered again answers to its latest registration, and only to
/// it: the earlier copy must not stay behind to be maintained and
/// restamped next to the new one (the in-crate corruption suite shows it
/// is not audited either).
#[test]
fn registering_an_id_again_replaces_its_maintained_state() {
    let (engine, mut maintainer, expr, r) = setup(FreshnessPolicy::StrictFresh);
    let def = ViewDef::new("v_r", expr.clone());
    assert_eq!(
        maintainer.register(ViewId(0), &def),
        MaintainStrategy::Incremental
    );
    assert!(maintainer.audit().is_empty());
    // One view reads `r`: one view maintained, one restamp.
    let report = maintainer.apply_with_engine(&delta(r, 0), &engine);
    assert_eq!((report.maintained, report.marked_dirty), (1, 0));
    assert_eq!(maintainer.contents(ViewId(0)).map(<[Row]>::len), Some(7));
    assert_eq!(engine.view_staleness(ViewId(0)), Some(0));
    engine.record_base_write(r);
    assert_eq!(
        engine.mark_views_maintained(&[ViewId(0), ViewId(0)]),
        1,
        "an id given twice is one view"
    );

    // Under a definition that recomputes (a self-join), the id is marked
    // dirty once and nothing is maintained in place behind it — and a
    // refresh reaches the copy that is dirty.
    let self_join = SpjgExpr::spj(
        vec![r, r],
        BoolExpr::col_eq(cr(0, 1), cr(1, 1)),
        vec![NamedExpr::new(S::col(cr(0, 0)), "pk")],
    );
    assert_eq!(
        maintainer.register(ViewId(0), &ViewDef::new("v_r", self_join)),
        MaintainStrategy::Recompute
    );
    let report = maintainer.apply_with_engine(&delta(r, 1), &engine);
    assert_eq!((report.maintained, report.marked_dirty), (0, 1));
    assert!(maintainer.is_dirty(ViewId(0)));
    assert!(maintainer.refresh(ViewId(0)));
    assert!(!maintainer.is_dirty(ViewId(0)));
    assert!(maintainer.audit().is_empty());
}
