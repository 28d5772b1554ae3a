//! Sharing per-core match state must be invisible: the candidates of one
//! `find_substitutes` that carry the same join core (FROM list and
//! non-trivial equivalence classes) share the occurrence mapping, the §3.2
//! elimination, the extended query classes and the equijoin test, and
//! every one of them must still get exactly the verdict and the substitute
//! a single-view `build_substitute` — which always starts from fresh state —
//! gives it. Debug builds assert the same inside the engine; this suite
//! also runs in release mode, where that oracle is compiled out.
//!
//! The sharing is structural: the views of one engine that agree on the
//! core hold one `Arc<JoinCore>`, whatever order they were registered,
//! batched or removed in, and a descriptor prepared outside the engine —
//! which owns a core of its own — matches like its registered twin.

use mv_catalog::tpch::{tpch_catalog, TpchTables};
use mv_core::{
    match_view_prepared, ExprSummary, MatchConfig, MatchingEngine, PreparedQuery, PreparedView,
};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_plan::{NamedExpr, SpjgExpr, Substitute, ViewDef, ViewId};
use mv_workload::{Generator, WorkloadParams};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

// Column positions used below.
//   lineitem: 0 l_orderkey, 1 l_partkey, 2 l_suppkey, 3 l_linenumber,
//             15 l_comment
//   orders:   0 o_orderkey, 1 o_custkey
//   customer: 0 c_custkey
//   partsupp: 0 ps_partkey, 1 ps_suppkey
//   part:     0 p_partkey
//   nation:   0 n_nationkey, 1 n_name, 2 n_regionkey

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

fn out(cols: &[(u32, u32)]) -> Vec<NamedExpr> {
    cols.iter()
        .map(|&(o, c)| NamedExpr::new(S::col(cr(o, c)), format!("t{o}c{c}")))
        .collect()
}

fn like(col: ColRef, pattern: &str) -> BoolExpr {
    BoolExpr::Like {
        expr: S::col(col),
        pattern: pattern.into(),
        negated: false,
    }
}

/// Every view is a candidate and no result is replayed from the cache, so
/// the `candidates` and `core_states` counters are exact. The prover is
/// off: this suite is about byte-identity, and is also run unoptimized.
fn config() -> MatchConfig {
    MatchConfig {
        use_filter_tree: false,
        substitute_cache_capacity: 0,
        prove_budget: 0,
        ..MatchConfig::default()
    }
}

fn engine(config: MatchConfig) -> MatchingEngine {
    MatchingEngine::new(tpch_catalog().0, config)
}

/// The reference: every id matched on its own, ascending.
fn one_by_one(
    engine: &MatchingEngine,
    query: &SpjgExpr,
    ids: &[ViewId],
) -> Vec<(ViewId, Substitute)> {
    let pin = engine.views();
    ids.iter()
        .filter_map(|&id| {
            engine
                .build_substitute(&pin, query, id)
                .map(|sub| (id, sub))
        })
        .collect()
}

/// `FROM lineitem` with two ranges and a residual, so that views can
/// contain it, cut into it, or need a compensation for each.
fn lineitem_query() -> SpjgExpr {
    let (_, t) = tpch_catalog();
    SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::and(vec![
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(1000i64)),
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Le, S::lit(1500i64)),
            BoolExpr::cmp(S::col(cr(0, 3)), CmpOp::Le, S::lit(4i64)),
            like(cr(0, 15), "%fox%"),
        ]),
        out(&[(0, 0), (0, 1), (0, 3)]),
    )
}

/// View `i` of a family over one join core: `joins` fixes the core (every
/// extra table hangs off lineitem through foreign keys), `i` picks the
/// ranges, the residual and the output list — the parts the core state
/// must *not* depend on.
fn family_view(tables: Vec<mv_catalog::TableId>, joins: &[BoolExpr], i: usize) -> SpjgExpr {
    let mut conjuncts = joins.to_vec();
    match i % 4 {
        0 => {}
        // The query's own lower bound: only the upper one is compensated.
        1 => conjuncts.push(BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(1000i64))),
        // Cuts into it: rejected by the range test.
        2 => conjuncts.push(BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(1200i64))),
        // The query's own bound on the other range column.
        _ => conjuncts.push(BoolExpr::cmp(S::col(cr(0, 3)), CmpOp::Le, S::lit(4i64))),
    }
    if i.is_multiple_of(3) {
        conjuncts.push(like(cr(0, 15), "%fox%"));
    }
    let outputs = match i % 5 {
        // l_orderkey only through its equivalent o_orderkey.
        4 => out(&[(1, 0), (0, 1), (0, 3), (0, 15)]),
        // No l_comment: only views that carry the LIKE themselves match.
        3 => out(&[(0, 0), (0, 1), (0, 3)]),
        _ => out(&[(0, 0), (0, 1), (0, 3), (0, 15)]),
    };
    SpjgExpr::spj(tables, BoolExpr::and(conjuncts), outputs)
}

fn orders_core(t: &TpchTables, i: usize) -> SpjgExpr {
    family_view(
        vec![t.lineitem, t.orders],
        &[BoolExpr::col_eq(cr(0, 0), cr(1, 0))],
        i,
    )
}

fn customer_core(t: &TpchTables, i: usize) -> SpjgExpr {
    family_view(
        vec![t.lineitem, t.orders, t.customer],
        &[
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            BoolExpr::col_eq(cr(1, 1), cr(2, 0)),
        ],
        i,
    )
}

/// (a) Forty views, two cores, interleaved by id: two core states, and
/// every view gets what it gets alone.
#[test]
fn views_of_one_core_share_its_state_and_nothing_else() {
    let (_, t) = tpch_catalog();
    let engine = engine(config());
    let mut ids = Vec::new();
    for i in 0..20 {
        for (name, expr) in [("o", orders_core(&t, i)), ("c", customer_core(&t, i))] {
            ids.push(
                engine
                    .add_view(ViewDef::new(format!("{name}{i}"), expr))
                    .expect("valid view"),
            );
        }
    }
    let query = lineitem_query();
    let want = one_by_one(&engine, &query, &ids);

    engine.reset_stats();
    let got = engine.find_substitutes(&query);
    assert_eq!(got, want, "shared core state changed a result");
    let stats = engine.stats();
    assert_eq!(stats.candidates, 40);
    assert_eq!(stats.core_states, 2, "one state per join core");

    // Not vacuous: both cores accept some views and reject others, and
    // the accepted views differ in what they compensate.
    for core in 0..2 {
        let accepted = got.iter().filter(|(id, _)| id.0 % 2 == core).count();
        assert!((1..20).contains(&accepted), "core {core}: {accepted} of 20");
    }
    let compensations: std::collections::HashSet<String> = got
        .iter()
        .map(|(_, sub)| format!("{:?}", sub.predicates))
        .collect();
    assert!(compensations.len() >= 3, "{compensations:?}");

    // With the filter tree choosing the candidates the answer is the same.
    let filtered = MatchingEngine::new(
        tpch_catalog().0,
        MatchConfig {
            use_filter_tree: true,
            ..config()
        },
    );
    for i in 0..20 {
        for (name, expr) in [("o", orders_core(&t, i)), ("c", customer_core(&t, i))] {
            filtered
                .add_view(ViewDef::new(format!("{name}{i}"), expr))
                .expect("valid view");
        }
    }
    assert_eq!(filtered.find_substitutes(&query), want);
    assert!(filtered.stats().core_states <= 2);
}

/// (b) A self-join core has two occurrence mappings. Views that match
/// under the first, only under the second, and under neither share the
/// core's whole mapping list.
#[test]
fn self_join_core_keeps_every_mapping() {
    let (_, t) = tpch_catalog();
    let engine = engine(config());
    // nation a, nation b in one region; `side` carries the range and
    // decides which occurrence the query's constrained one must map to.
    let view = |side: u32, bound: i64| {
        SpjgExpr::spj(
            vec![t.nation, t.nation],
            BoolExpr::and(vec![
                BoolExpr::col_eq(cr(0, 2), cr(1, 2)),
                BoolExpr::cmp(S::col(cr(side, 0)), CmpOp::Lt, S::lit(bound)),
            ]),
            out(&[(0, 0), (0, 1), (1, 0), (1, 1)]),
        )
    };
    let mut ids = Vec::new();
    for (i, (side, bound)) in [(0, 10), (1, 10), (0, 3), (1, 12), (1, 2), (0, 20)]
        .into_iter()
        .enumerate()
    {
        ids.push(
            engine
                .add_view(ViewDef::new(format!("n{i}"), view(side, bound)))
                .expect("valid view"),
        );
    }
    let query = SpjgExpr::spj(
        vec![t.nation, t.nation],
        BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 2), cr(1, 2)),
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Lt, S::lit(5i64)),
        ]),
        out(&[(0, 1), (1, 1)]),
    );
    let want = one_by_one(&engine, &query, &ids);
    engine.reset_stats();
    let got = engine.find_substitutes(&query);
    assert_eq!(got, want);
    assert_eq!(engine.stats().core_states, 1);

    let accepted: Vec<u32> = got.iter().map(|(id, _)| id.0).collect();
    assert_eq!(accepted, vec![0, 1, 3, 5], "bounds 3 and 2 cut into < 5");
    // Views 0 and 1 differ only in the side the range sits on, so they
    // answer the query through different mappings: the name of the
    // query's first occurrence comes from opposite sides.
    assert_ne!(got[0].1.output, got[1].1.output);
}

/// (c) A core whose extra tables cannot be eliminated — part is referenced
/// from both lineitem and partsupp, so it never has exactly one incoming
/// edge — rejects all of its views once, and the views around it match as
/// if it were not there.
#[test]
fn a_core_that_fails_elimination_rejects_only_its_own_views() {
    let (_, t) = tpch_catalog();
    let engine = engine(config());
    let stuck = |i: usize| {
        family_view(
            vec![t.lineitem, t.partsupp, t.part],
            &[
                BoolExpr::col_eq(cr(0, 1), cr(1, 0)),
                BoolExpr::col_eq(cr(0, 2), cr(1, 1)),
                BoolExpr::col_eq(cr(1, 0), cr(2, 0)),
            ],
            // The output variant that reads occurrence 1 expects orders.
            if i % 5 == 4 { i + 1 } else { i },
        )
    };
    let mut ids = Vec::new();
    let mut stuck_ids = Vec::new();
    for i in 0..8 {
        ids.push(
            engine
                .add_view(ViewDef::new(format!("o{i}"), orders_core(&t, i)))
                .expect("valid view"),
        );
        let id = engine
            .add_view(ViewDef::new(format!("p{i}"), stuck(i)))
            .expect("valid view");
        ids.push(id);
        stuck_ids.push(id);
    }
    let query = lineitem_query();
    let want = one_by_one(&engine, &query, &ids);
    engine.reset_stats();
    let got = engine.find_substitutes(&query);
    assert_eq!(got, want);
    assert_eq!(engine.stats().core_states, 2);
    assert!(got.iter().all(|(id, _)| !stuck_ids.contains(id)));
    assert!(!got.is_empty(), "the orders core still matches");

    // The neighbours' results are what a catalog without the stuck core
    // produces (ids aside).
    let alone = self::engine(config());
    for i in 0..8 {
        alone
            .add_view(ViewDef::new(format!("o{i}"), orders_core(&t, i)))
            .expect("valid view");
    }
    let strip = |r: Vec<(ViewId, Substitute)>| -> Vec<Substitute> {
        r.into_iter()
            .map(|(_, mut sub)| {
                sub.view = ViewId(0);
                sub
            })
            .collect()
    };
    assert_eq!(strip(got), strip(alone.find_substitutes(&query)));
}

/// (e) Nothing sits between the candidate list and the full tests, so with
/// every view a candidate they alone turn away: a view with fewer or more
/// occurrences of a table than the query (no key points at the surplus
/// nation, so it is not eliminable), an extra table that no foreign key
/// points at, a residual the query lacks, and an aggregation view under an
/// SPJ query. Each verdict is the one the view gets alone.
#[test]
fn shapes_only_the_full_tests_reject() {
    let (catalog, _) = tpch_catalog();
    let engine = engine(config());
    let mut ids = Vec::new();
    for sql in [
        "create view nation1 with schemabinding as select n_name, n_regionkey from nation",
        "create view nation2 with schemabinding as select a.n_name an, b.n_name bn \
         from nation a, nation b where a.n_regionkey = b.n_regionkey",
        "create view nation3 with schemabinding as select a.n_name an, b.n_name bn, c.n_name cn \
         from nation a, nation b, nation c \
         where a.n_regionkey = b.n_regionkey and b.n_regionkey = c.n_regionkey",
        "create view li_orders with schemabinding as select l_orderkey, o_orderdate \
         from lineitem, orders where l_orderkey = o_orderkey",
        "create view li_fox with schemabinding as select l_orderkey, l_comment \
         from lineitem where l_comment like '%fox%'",
        "create view li_counts with schemabinding as select l_orderkey, count_big(*) as cnt \
         from lineitem group by l_orderkey",
    ] {
        let view = mv_sql::parse_view(sql, &catalog).expect("shape view binds");
        ids.push(engine.add_view(view).expect("valid view"));
    }
    for (sql, want) in [
        (
            "select a.n_name, b.n_name from nation a, nation b \
             where a.n_regionkey = b.n_regionkey",
            vec![1],
        ),
        ("select o_orderdate from orders", vec![]),
        ("select l_orderkey from lineitem", vec![3]),
        (
            "select l_orderkey from lineitem where l_comment like '%fox%'",
            vec![4],
        ),
        (
            "select l_orderkey, count_big(*) as cnt from lineitem group by l_orderkey",
            vec![3, 5],
        ),
    ] {
        let query = mv_sql::parse_query(sql, &catalog).expect("shape query binds");
        let got = engine.find_substitutes(&query);
        assert_eq!(got, one_by_one(&engine, &query, &ids), "{sql}");
        let accepted: Vec<u32> = got.iter().map(|(id, _)| id.0).collect();
        assert_eq!(accepted, want, "{sql}");
    }
}

/// A join core's identity, re-derived from the definition: the FROM list
/// and the canonical non-trivial equivalence classes.
fn core_key(expr: &SpjgExpr) -> (Vec<mv_catalog::TableId>, Vec<Vec<ColRef>>) {
    (
        expr.tables.clone(),
        ExprSummary::analyze(expr).ec.nontrivial_classes(),
    )
}

/// (f) Two hundred views, two cores: a self-join and a core with an extra
/// table a foreign key points at. The views of a family differ in ranges,
/// residuals and outputs only, and the snapshot holds one core for each.
#[test]
fn two_families_leave_two_cores_in_the_snapshot() {
    let (_, t) = tpch_catalog();
    let engine = engine(config());
    let self_join = |i: usize| {
        let mut conjuncts = vec![
            BoolExpr::col_eq(cr(0, 2), cr(1, 2)),
            BoolExpr::cmp(S::col(cr(i as u32 % 2, 0)), CmpOp::Lt, S::lit(i as i64)),
        ];
        if i.is_multiple_of(3) {
            conjuncts.push(like(cr(0, 1), "%A%"));
        }
        let outputs = if i.is_multiple_of(2) {
            out(&[(0, 0), (0, 1), (1, 0), (1, 1)])
        } else {
            out(&[(0, 1), (1, 1), (1, 2)])
        };
        SpjgExpr::spj(vec![t.nation, t.nation], BoolExpr::and(conjuncts), outputs)
    };
    let mut ids = [Vec::new(), Vec::new()];
    for i in 0..100 {
        for (family, name, expr) in [(0, "n", self_join(i)), (1, "o", orders_core(&t, i))] {
            ids[family].push(
                engine
                    .add_view(ViewDef::new(format!("{name}{i}"), expr))
                    .expect("valid view"),
            );
        }
    }
    let views = engine.views();
    assert_eq!(views.join_core_count(), 2);
    for family in &ids {
        let first = &views.prepared(family[0]).core;
        assert!(family
            .iter()
            .all(|&id| Arc::ptr_eq(&views.prepared(id).core, first)));
    }
    let (n, o) = (views.prepared(ids[0][0]), views.prepared(ids[1][0]));
    assert!(!Arc::ptr_eq(&n.core, &o.core));
    assert_eq!(n.core.tables, vec![t.nation, t.nation]);
    assert_eq!(
        o.core.fk_incoming,
        vec![false, true],
        "orders is the extra table"
    );
    // The parts that stay per view do differ within a family.
    let ranges: HashSet<String> = ids[0]
        .iter()
        .map(|&id| format!("{:?}", views.prepared(id).ranges))
        .collect();
    assert_eq!(ranges.len(), 100);
}

const VIEW_SEED: u64 = 0x00C0_4E5E;
const QUERY_SEED: u64 = 0x5_4A4E;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// (d) Generated views and queries, registrations and removals
    /// interleaved with matching: `find_substitutes` is the per-view
    /// results, in id order — with the filter tree on and off.
    #[test]
    fn generated_workload_matches_view_at_a_time(
        ops in prop::collection::vec((0usize..4, 0usize..64), 8..48),
        use_filter_tree in any::<bool>(),
    ) {
        let (catalog, _) = tpch_catalog();
        let views = Generator::new(&catalog, WorkloadParams::views(), VIEW_SEED).views(32);
        let queries = Generator::new(&catalog, WorkloadParams::queries(), QUERY_SEED).queries(12);
        let engine = engine(MatchConfig { use_filter_tree, ..config() });
        let mut live: Vec<ViewId> = Vec::new();
        let mut matched = 0;
        for (kind, idx) in ops {
            match kind {
                // Twice as many registrations as removals.
                0 | 1 => {
                    // A name registers once; a repeat is refused.
                    if let Ok(id) = engine.add_view(views[idx % views.len()].clone()) {
                        live.push(id);
                    }
                }
                2 => {
                    if !live.is_empty() {
                        let id = live.remove(idx % live.len());
                        prop_assert!(engine.remove_view(id));
                    }
                }
                _ => {
                    let query = &queries[idx % queries.len()];
                    let got = engine.find_substitutes(query);
                    prop_assert_eq!(&got, &one_by_one(&engine, query, &live));
                    matched += got.len();
                }
            }
        }
        // Whatever the interleaving, the final catalog answers every
        // query like its views do one at a time.
        for query in &queries {
            let got = engine.find_substitutes(query);
            prop_assert_eq!(&got, &one_by_one(&engine, query, &live));
            matched += got.len();
        }
        let stats = engine.stats();
        prop_assert!(stats.core_states <= stats.candidates);
        prop_assert!(matched as u64 == stats.substitutes);
    }

    /// (g) Registrations one at a time and in batches, interleaved with
    /// removals: two live views hold the same `Arc<JoinCore>` exactly when
    /// their definitions have the same FROM list and classes, the snapshot
    /// holds one core per distinct pair ever registered (a refused batch
    /// leaves none behind), and a descriptor prepared outside the engine
    /// matches byte-identically to `build_substitute` on its registered twin.
    #[test]
    fn equal_cores_are_one_value_under_any_interleaving(
        ops in prop::collection::vec((0usize..4, 0usize..64), 8..48),
    ) {
        let (catalog, t) = tpch_catalog();
        let mut pool = Generator::new(&catalog, WorkloadParams::views(), VIEW_SEED).views(32);
        for i in 0..8 {
            pool.push(ViewDef::new(format!("o{i}"), orders_core(&t, i)));
            pool.push(ViewDef::new(format!("c{i}"), customer_core(&t, i)));
        }
        let mut queries =
            Generator::new(&catalog, WorkloadParams::queries(), QUERY_SEED).queries(6);
        let config = config();
        let engine = engine(config.clone());
        let mut live: Vec<ViewId> = Vec::new();
        for (kind, idx) in ops {
            match kind {
                0 | 1 => {
                    if let Ok(id) = engine.add_view(pool[idx % pool.len()].clone()) {
                        live.push(id);
                    }
                }
                2 => {
                    // All-or-nothing: one taken name refuses the batch.
                    let batch = (0..3).map(|k| pool[(idx + 7 * k) % pool.len()].clone()).collect();
                    if let Ok(ids) = engine.add_views(batch) {
                        live.extend(ids);
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let id = live.remove(idx % live.len());
                        prop_assert!(engine.remove_view(id));
                    }
                }
            }
        }
        let views = engine.views();
        for (i, &a) in live.iter().enumerate() {
            for &b in &live[i..] {
                let same_key = core_key(&views.get(a).expr) == core_key(&views.get(b).expr);
                let same_core = Arc::ptr_eq(&views.prepared(a).core, &views.prepared(b).core);
                prop_assert_eq!(same_key, same_core, "{} / {}", a, b);
            }
        }
        let keys: HashSet<_> = views.iter().map(|(_, def)| core_key(&def.expr)).collect();
        prop_assert_eq!(keys.len(), views.join_core_count());

        queries.push(lineitem_query());
        for query in &queries {
            let qsum = engine.query_summary(query);
            for &id in &live {
                let def = views.get(id);
                let own = PreparedView::prepare(&catalog, &config, &def.expr);
                prop_assert!(!Arc::ptr_eq(&own.core, &views.prepared(id).core));
                let pq = PreparedQuery::new(query, &qsum);
                prop_assert_eq!(
                    match_view_prepared(&catalog, &config, &pq, id, def, &own),
                    engine.build_substitute(&views, query, id)
                );
            }
        }
    }
}
