//! The early range test (`PreparedQuery::refutes_ranges`, DESIGN.md
//! §13.7) runs the range subsumption test of section 3.1.2 through base
//! columns, before a candidate's join core is looked up. It may only
//! reject: every view it rejects, the full tests — `match_view_prepared`,
//! which runs them without it — must reject too. The named cases are the
//! ones its soundness argument turns on: a class the §3.2 extension
//! extends, a class wholly on tables the query lacks, a bound that only a
//! check constraint gives, a class reached through a member other than
//! its root, and a self-joined table, which it leaves to the full tests.

use mv_catalog::tpch::{tpch_catalog, TpchTables};
use mv_catalog::{Catalog, TableId};
use mv_core::{match_view_prepared, MatchConfig, MatchingEngine, PreparedQuery};
use mv_data::{generate_tpch, TpchScale};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_plan::{NamedExpr, SpjgExpr, ViewDef, ViewId};
use mv_workload::{Generator, WorkloadParams};
use proptest::prelude::*;

/// `oracle_prop.rs`'s populations, drawn over a catalog with statistics:
/// the generator places range predicates by them, and over the bare
/// TPC-H catalog it places none.
const VIEW_SEED: u64 = 0x5EED_CAFE;
const QUERY_SEED: u64 = 0x00DD_BA11;
const DATA_SEED: u64 = 0x5EED_0003;

/// The TPC-H catalog with the statistics of the section 5 data.
fn catalog_with_stats() -> Catalog {
    generate_tpch(&TpchScale::small(), DATA_SEED).0.catalog
}

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

fn uncached_engine() -> MatchingEngine {
    uncached_engine_over(tpch_catalog().0)
}

fn uncached_engine_over(catalog: Catalog) -> MatchingEngine {
    let config = MatchConfig {
        substitute_cache_capacity: 0,
        ..MatchConfig::default()
    };
    MatchingEngine::new(catalog, config)
}

/// One view's two answers for one query.
#[derive(Debug, PartialEq)]
struct Answers {
    view: ViewId,
    /// Did the early test reject it?
    refuted: bool,
    /// Did the full tests accept it?
    matched: bool,
}

/// Both answers for each of `ids` (live views of `engine`), read through
/// the engine's own descriptors (shared join cores) and its query summary
/// (check constraints folded in). Panics when the early test rejects a
/// view the full tests accept.
fn answers(engine: &MatchingEngine, query: &SpjgExpr, ids: &[ViewId]) -> Vec<Answers> {
    let pin = engine.views();
    let qsum = engine.query_summary(query);
    let pq = PreparedQuery::new(query, &qsum);
    ids.iter()
        .map(|&view| {
            let pv = pin.prepared(view);
            let refuted = pq.refutes_ranges(pv);
            let def = pin.get(view);
            let matched =
                match_view_prepared(engine.catalog(), engine.config(), &pq, view, def, pv)
                    .is_some();
            assert!(
                !(refuted && matched),
                "the early range test rejected {view}, which the full tests accept"
            );
            Answers {
                view,
                refuted,
                matched,
            }
        })
        .collect()
}

/// The answers for every live view.
fn answers_all(engine: &MatchingEngine, query: &SpjgExpr) -> Vec<Answers> {
    let ids: Vec<ViewId> = engine.views().iter().map(|(id, _)| id).collect();
    answers(engine, query, &ids)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Over drawn views and queries of `oracle_prop.rs`'s pools, every
    /// view the early test rejects gets `None` from the full tests, and
    /// the engine — which runs the early test first — returns exactly the
    /// views the full tests accept.
    #[test]
    fn every_early_rejection_is_a_full_rejection(
        view_idx in prop::collection::vec(0usize..64, 1..24),
        query_idx in prop::collection::vec(0usize..32, 1..8),
    ) {
        let catalog = catalog_with_stats();
        let views = Generator::new(&catalog, WorkloadParams::views(), VIEW_SEED).views(64);
        let queries =
            Generator::new(&catalog, WorkloadParams::queries(), QUERY_SEED).queries(32);
        let engine = uncached_engine_over(catalog);
        for i in view_idx {
            // A view drawn twice is registered once (duplicate name).
            let _ = engine.add_view(views[i].clone());
        }
        for i in query_idx {
            let query = &queries[i];
            let all = answers_all(&engine, query);
            let got: Vec<ViewId> = engine.find_substitutes(query).into_iter().map(|(id, _)| id).collect();
            let want: Vec<ViewId> = all.iter().filter(|a| a.matched).map(|a| a.view).collect();
            prop_assert_eq!(got, want);
        }
    }
}

/// The filter tree's candidates of the §5 generator at 1,000 views and
/// 200 queries: the early test rejects some, and none that the full tests
/// accept; the engine's counters agree.
#[test]
fn the_early_test_rejects_only_what_the_full_tests_reject_at_1000_views() {
    let catalog = catalog_with_stats();
    let views = Generator::new(&catalog, WorkloadParams::views(), 0x5EED_0001).views(1000);
    let queries = Generator::new(&catalog, WorkloadParams::queries(), 0x5EED_0002).queries(200);
    let engine = uncached_engine_over(catalog);
    engine.add_views(views).unwrap();
    let (mut candidates, mut refuted, mut matched) = (0, 0, 0);
    for query in &queries {
        let mut ids = Vec::new();
        engine.candidates_into(query, &engine.query_summary(query), &mut ids);
        for a in answers(&engine, query, &ids) {
            candidates += 1;
            refuted += a.refuted as usize;
            matched += a.matched as usize;
        }
    }
    assert!(refuted > 0, "the early test rejected none of {candidates}");
    assert!(matched > 0, "no candidate matched");
    assert!(refuted + matched <= candidates);

    // The engine counts the same rejections, and two runs count alike.
    let run = || {
        engine.reset_stats();
        for query in &queries {
            engine.find_verdicts(&engine.views(), query);
        }
        engine.stats()
    };
    let (first, second) = (run(), run());
    assert_eq!(first.candidates, candidates as u64);
    assert_eq!(first.range_prefiltered, refuted as u64);
    assert_eq!(first.substitutes, matched as u64);
    assert!(first.range_prefiltered + first.substitutes <= first.candidates);
    assert_eq!(
        (first.candidates, first.core_states, first.range_prefiltered),
        (
            second.candidates,
            second.core_states,
            second.range_prefiltered
        )
    );
}

/// `lineitem ⋈ orders` joined by `join`, output `l_orderkey`, with the
/// range `bound`.
fn lineitem_orders(t: &TpchTables, join: BoolExpr, bound: BoolExpr) -> SpjgExpr {
    SpjgExpr::spj(
        vec![t.lineitem, t.orders],
        BoolExpr::and(vec![join, bound]),
        vec![NamedExpr::new(S::col(cr(0, 0)), "l_orderkey")],
    )
}

fn lt(occ: u32, col: u32, v: i64) -> BoolExpr {
    BoolExpr::cmp(S::col(cr(occ, col)), CmpOp::Lt, S::lit(v))
}

/// A query over `lineitem` alone, `l_orderkey < v`.
fn lineitem_below(t: &TpchTables, v: i64) -> SpjgExpr {
    SpjgExpr::spj(
        vec![t.lineitem],
        lt(0, 0, v),
        vec![NamedExpr::new(S::col(cr(0, 0)), "l_orderkey")],
    )
}

fn one_view(view: SpjgExpr) -> MatchingEngine {
    let engine = uncached_engine();
    engine.add_view(ViewDef::new("v", view)).unwrap();
    engine
}

fn only(engine: &MatchingEngine, query: &SpjgExpr) -> (bool, bool) {
    let a = answers_all(engine, query);
    assert_eq!(a.len(), 1);
    (a[0].refuted, a[0].matched)
}

/// The view's range sits on `{l_orderkey, o_orderkey}`; the query has no
/// `orders`, so §3.2 eliminates it and extends the query's class of
/// `l_orderkey` by `o_orderkey`. The early test reads the class through
/// `l_orderkey`, the member whose table both sides hold once.
#[test]
fn a_class_the_extension_extends() {
    let (_, t) = tpch_catalog();
    let engine = one_view(lineitem_orders(
        &t,
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        lt(1, 0, 100),
    ));
    let pv = engine.views().prepared(ViewId(0)).clone();
    assert_eq!(pv.ranges.len(), 1);
    assert_eq!(pv.ranges[0].0, cr(0, 0), "the class root is l_orderkey");
    // Inside the view's range: kept, and matched with a compensation.
    assert_eq!(only(&engine, &lineitem_below(&t, 50)), (false, true));
    // Wider than it: rejected early, and by the full tests.
    assert_eq!(only(&engine, &lineitem_below(&t, 500)), (true, false));
    // No bound at all: the unconstrained interval, rejected.
    let unbounded = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 0)), "l_orderkey")],
    );
    assert_eq!(only(&engine, &unbounded), (true, false));
}

/// A range on a column of `orders` alone, and a query without `orders`:
/// whatever the extension adds, that column's class holds no query
/// column, so the range test compares with the unconstrained interval.
#[test]
fn a_class_wholly_on_tables_the_query_lacks() {
    let (_, t) = tpch_catalog();
    // o_totalprice < 100: a class of its own, on the extra table.
    let engine = one_view(lineitem_orders(
        &t,
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        lt(1, 3, 100),
    ));
    assert_eq!(only(&engine, &lineitem_below(&t, 50)), (true, false));
}

/// The same class with its root on `orders`, the table the query lacks:
/// the early test reaches the class through another member.
#[test]
fn a_class_whose_root_is_on_a_table_the_query_lacks() {
    let (_, t) = tpch_catalog();
    // orders first: its o_orderkey is the smaller column, and the root.
    let engine = one_view(SpjgExpr::spj(
        vec![t.orders, t.lineitem],
        BoolExpr::and(vec![BoolExpr::col_eq(cr(0, 0), cr(1, 0)), lt(0, 0, 100)]),
        vec![NamedExpr::new(S::col(cr(1, 0)), "l_orderkey")],
    ));
    let pv = engine.views().prepared(ViewId(0)).clone();
    assert_eq!(pv.ranges[0].0, cr(0, 0), "the class root is o_orderkey");
    assert_eq!(only(&engine, &lineitem_below(&t, 50)), (false, true));
    assert_eq!(only(&engine, &lineitem_below(&t, 500)), (true, false));
}

/// A bound only a check constraint gives: the query constrains nothing,
/// and the constraint's range is the one the view's must contain.
#[test]
fn a_bound_only_a_check_constraint_gives() {
    let (catalog, t) = tpch_catalog();
    let ge = |v: i64| BoolExpr::cmp(S::col(cr(0, 3)), CmpOp::Ge, S::lit(v));
    let orders = |bound: BoolExpr| {
        SpjgExpr::spj(
            vec![t.orders],
            bound,
            vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")],
        )
    };
    let query = orders(BoolExpr::Literal(true));
    let engine = MatchingEngine::new(catalog, MatchConfig::default());
    engine.add_check_constraint(t.orders, ge(0)).unwrap();
    engine
        .add_view(ViewDef::new("nonneg", orders(ge(0))))
        .unwrap();
    engine
        .add_view(ViewDef::new("above_ten", orders(ge(10))))
        .unwrap();
    let a = answers_all(&engine, &query);
    assert_eq!(
        a,
        vec![
            Answers {
                view: ViewId(0),
                refuted: false,
                matched: true
            },
            Answers {
                view: ViewId(1),
                refuted: true,
                matched: false
            },
        ]
    );
    // Without the constraint the query's interval is unconstrained, and
    // the first view is rejected early too.
    let plain = uncached_engine();
    plain
        .add_view(ViewDef::new("nonneg", orders(ge(0))))
        .unwrap();
    assert_eq!(only(&plain, &query), (true, false));
}

/// A table the view joins to itself has no forced occurrence: the early
/// test leaves its ranges to the full tests, which try every mapping.
#[test]
fn a_self_joined_table_falls_through() {
    let (_, t) = tpch_catalog();
    let self_join = |tables: Vec<TableId>, pred: BoolExpr| {
        SpjgExpr::spj(
            tables,
            pred,
            vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")],
        )
    };
    // orders o0 ⋈ orders o1 on o_custkey, o0.o_orderkey < 10.
    let view = self_join(
        vec![t.orders, t.orders],
        BoolExpr::and(vec![BoolExpr::col_eq(cr(0, 1), cr(1, 1)), lt(0, 0, 10)]),
    );
    let engine = one_view(view);
    // The query's first occurrence is wider than the view's bound under
    // either mapping: the full tests reject, the early test never fires.
    let query = self_join(
        vec![t.orders, t.orders],
        BoolExpr::and(vec![BoolExpr::col_eq(cr(0, 1), cr(1, 1)), lt(0, 0, 100)]),
    );
    assert_eq!(only(&engine, &query), (false, false));
    // The query names orders once; the view still has it twice.
    let once = self_join(vec![t.orders], lt(0, 0, 100));
    assert_eq!(only(&engine, &once), (false, false));
    // Inside the bound the full tests accept under the identity mapping.
    let inside = self_join(
        vec![t.orders, t.orders],
        BoolExpr::and(vec![BoolExpr::col_eq(cr(0, 1), cr(1, 1)), lt(0, 0, 5)]),
    );
    assert_eq!(only(&engine, &inside), (false, true));
}
