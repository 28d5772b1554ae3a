//! The plan cache must be invisible (DESIGN.md §11.4): whatever the
//! interleaving of catalog writes and optimizer calls, a plan served from
//! the engine's plan cache equals the one a search finds — plan, cost,
//! rows and the replayed search counters. In debug builds every hit also
//! runs the optimizer's own oracle (the hit re-searched against the
//! snapshot it was served at), so these tests drive that oracle too.

use mv_catalog::tpch::tpch_catalog;
use mv_catalog::{Catalog, TableId, Value};
use mv_core::{FreshnessPolicy, MatchConfig, MatchingEngine};
use mv_data::{generate_tpch, Row, TpchScale};
use mv_exec::{bag_diff, execute_plan, execute_spjg, ViewStore};
use mv_expr::{BinOp, BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_lint::oracle::register_views;
use mv_optimizer::{Optimized, Optimizer, OptimizerConfig};
use mv_plan::{NamedExpr, SpjgExpr, ViewDef, ViewId};
use mv_workload::{Generator, WorkloadParams};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const VIEW_SEED: u64 = 0x91A_CA5E;
const QUERY_SEED: u64 = 0x91A_0B1D;

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

/// `n_queries` generated queries, and as the view pool `n_views`
/// generated views interleaved with the queries themselves: a query
/// registered as a view answers itself (and often its subsets), so the
/// plans below do change with registrations.
fn pools(n_views: usize, n_queries: usize) -> (Catalog, Vec<ViewDef>, Vec<SpjgExpr>) {
    let (catalog, _) = tpch_catalog();
    let generated = Generator::new(&catalog, WorkloadParams::views(), VIEW_SEED).views(n_views);
    let queries =
        Generator::new(&catalog, WorkloadParams::queries(), QUERY_SEED).queries(n_queries);
    let mut views = Vec::new();
    for (i, v) in generated.into_iter().enumerate() {
        views.push(v);
        if let Some(q) = queries.get(i) {
            views.push(ViewDef::new(format!("q{i}"), q.clone()));
        }
    }
    (catalog, views, queries)
}

fn config(capacity: usize, freshness: FreshnessPolicy) -> MatchConfig {
    MatchConfig {
        substitute_cache_capacity: capacity,
        freshness,
        ..MatchConfig::default()
    }
}

/// One step of the interleaving, decoded from a `(kind, index)` pair
/// (the vendored proptest stand-in has no `prop_oneof`).
#[derive(Debug, Clone, Copy)]
enum Op {
    AddView(usize),
    RemoveView(usize),
    CheckConstraint(usize),
    BaseWrite(usize),
    Maintain(usize),
    Optimize(usize),
}

fn decode(kind: usize, idx: usize) -> Op {
    match kind {
        0 => Op::AddView(idx),
        1 => Op::RemoveView(idx),
        2 => Op::CheckConstraint(idx),
        3 => Op::BaseWrite(idx),
        4 => Op::Maintain(idx),
        _ => Op::Optimize(idx),
    }
}

/// Check constraints every TPC-H row satisfies: `col >= 0` on a numeric
/// column (`p_size`, `l_quantity`, `o_totalprice`).
fn check_constraint(i: usize) -> (TableId, BoolExpr) {
    let (_, t) = tpch_catalog();
    let (table, col) = [(t.part, 5), (t.lineitem, 4), (t.orders, 3)][i % 3];
    (
        table,
        BoolExpr::cmp(S::col(cr(0, col)), CmpOp::Ge, S::lit(0i64)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 18, ..ProptestConfig::default() })]

    /// Apply the same op sequence to a default engine and to one with
    /// capacity 0 (no substitute cache, no plan cache); every optimized
    /// query must agree in full. Each optimize runs twice on the cached
    /// side, so every step also checks a guaranteed hit; the writes in
    /// between exercise the epoch invalidation, under the default
    /// freshness policy, `StrictFresh` and `BoundedStaleness(1)` (where a
    /// base write or a restamp changes which views may answer).
    #[test]
    fn interleaving_equals_uncached_engine(
        strict in 0usize..3,
        ops in prop::collection::vec((0usize..6, 0usize..16), 1..40),
    ) {
        let (catalog, views, queries) = pools(8, 8);
        let freshness = match strict {
            0 => FreshnessPolicy::default(),
            1 => FreshnessPolicy::StrictFresh,
            _ => FreshnessPolicy::BoundedStaleness(1),
        };
        let default_capacity = MatchConfig::default().substitute_cache_capacity;
        let cached = MatchingEngine::new(catalog.clone(), config(default_capacity, freshness));
        let uncached = MatchingEngine::new(catalog.clone(), config(0, freshness));
        let cached_opt = Optimizer::new(&cached, OptimizerConfig::default());
        let uncached_opt = Optimizer::new(&uncached, OptimizerConfig::default());
        // Half the pool registered up front, so the first plans already
        // have views to use.
        let mut live = cached.add_views(views[..8].to_vec()).expect("views register");
        prop_assert_eq!(&live, &uncached.add_views(views[..8].to_vec()).expect("views register"));

        for (kind, idx) in ops {
            match decode(kind, idx) {
                Op::AddView(i) => {
                    let def = views[i % views.len()].clone();
                    let a = cached.add_view(def.clone());
                    prop_assert_eq!(&a, &uncached.add_view(def));
                    live.extend(a.ok());
                }
                Op::RemoveView(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live.remove(i % live.len());
                    prop_assert!(cached.remove_view(id));
                    prop_assert!(uncached.remove_view(id));
                }
                Op::CheckConstraint(i) => {
                    let (table, pred) = check_constraint(i);
                    prop_assert!(cached.add_check_constraint(table, pred.clone()).is_ok());
                    prop_assert!(uncached.add_check_constraint(table, pred).is_ok());
                }
                Op::BaseWrite(i) => {
                    let table = TableId((i % catalog.table_count()) as u32);
                    cached.record_base_write(table);
                    uncached.record_base_write(table);
                }
                Op::Maintain(i) => {
                    // Every other live view, starting at an offset.
                    let ids: Vec<ViewId> = live.iter().copied().skip(i % 2).step_by(2).collect();
                    prop_assert_eq!(
                        cached.mark_views_maintained(&ids),
                        uncached.mark_views_maintained(&ids)
                    );
                }
                Op::Optimize(qi) => {
                    let q = &queries[qi % queries.len()];
                    let want = uncached_opt.try_optimize(q).expect("uncached plan");
                    let got = cached_opt.try_optimize(q).expect("cached plan");
                    prop_assert_eq!(&got, &want, "cached engine diverged from uncached");
                    let hits = cached.stats().plan_cache_hits;
                    let again = cached_opt.try_optimize(q).expect("repeat plan");
                    prop_assert_eq!(&again, &want, "a plan-cache hit diverged");
                    prop_assert_eq!(cached.stats().plan_cache_hits, hits + 1);
                }
            }
        }
        prop_assert_eq!(uncached.plan_cache_len(), 0);
        prop_assert_eq!(uncached.stats().plan_cache_hits + uncached.stats().plan_cache_misses, 0);
    }
}

/// Generated base data, an engine over its catalog (statistics included)
/// with `views` registered, and their materialized contents.
fn materialized(views: Vec<ViewDef>) -> (mv_data::Database, MatchingEngine, ViewStore) {
    let (db, _) = generate_tpch(&TpchScale::tiny(), 20_261_015);
    let engine = MatchingEngine::new(db.catalog.clone(), MatchConfig::default());
    let store = register_views(&engine, &db, views);
    (db, engine, store)
}

/// `lineitem ⋈ orders` precomputed, the view the queries below use.
fn lo_join() -> ViewDef {
    let (_, t) = tpch_catalog();
    ViewDef::new(
        "lo_join",
        SpjgExpr::spj(
            vec![t.lineitem, t.orders],
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            vec![
                NamedExpr::new(S::col(cr(0, 1)), "l_partkey"),
                NamedExpr::new(S::col(cr(0, 4)), "l_quantity"),
                NamedExpr::new(S::col(cr(1, 1)), "o_custkey"),
                NamedExpr::new(S::col(cr(1, 0)), "o_orderkey"),
            ],
        ),
    )
}

/// `SELECT l_partkey AS <a>, l_quantity AS <b> FROM lineitem, orders
/// WHERE l_orderkey = o_orderkey AND o_custkey <= 10`, with the FROM list
/// in either order.
fn lo_query(names: [&str; 2], orders_first: bool) -> SpjgExpr {
    let (_, t) = tpch_catalog();
    let (li, ord, tables) = if orders_first {
        (1, 0, vec![t.orders, t.lineitem])
    } else {
        (0, 1, vec![t.lineitem, t.orders])
    };
    SpjgExpr::spj(
        tables,
        BoolExpr::and(vec![
            BoolExpr::col_eq(cr(li, 0), cr(ord, 0)),
            BoolExpr::cmp(S::col(cr(ord, 1)), CmpOp::Le, S::lit(10i64)),
        ]),
        vec![
            NamedExpr::new(S::col(cr(li, 1)), names[0]),
            NamedExpr::new(S::col(cr(li, 4)), names[1]),
        ],
    )
}

/// Figure 2's Alt and NoAlt configurations share one engine, and so one
/// plan cache; the config tag keeps each one's plans its own.
#[test]
fn alt_and_no_alt_share_an_engine_but_not_plans() {
    let (db, engine, store) = materialized(vec![lo_join()]);
    let q = lo_query(["l_partkey", "l_quantity"], false);
    let alt = Optimizer::new(&engine, OptimizerConfig::default());
    let no_alt = Optimizer::new(
        &engine,
        OptimizerConfig {
            produce_substitutes: false,
            ..OptimizerConfig::default()
        },
    );
    let want = execute_spjg(&db, &q);
    let mut first: Option<(Optimized, Optimized)> = None;
    for _ in 0..3 {
        let a = alt.optimize(&q);
        let n = no_alt.optimize(&q);
        assert!(a.plan.uses_view(), "Alt answers from the view:\n{}", a.plan);
        assert!(!n.plan.uses_view(), "NoAlt never does:\n{}", n.plan);
        for plan in [&a.plan, &n.plan] {
            assert!(bag_diff(&execute_plan(&db, &store, plan), &want).is_none());
        }
        let (a0, n0) = first.get_or_insert_with(|| (a.clone(), n.clone()));
        assert_eq!((&a, &n), (&*a0, &*n0), "a hit is the plan first found");
    }
    assert_eq!(engine.plan_cache_len(), 2, "one entry per configuration");
    let s = engine.stats();
    assert_eq!((s.plan_cache_misses, s.plan_cache_hits), (2, 4));
}

/// The key is the exact block: queries that differ only in output names
/// or in FROM-list order — one entry in the substitute cache, whose
/// fingerprint is blind to both — are three entries here, and each one's
/// plan returns the query's own rows.
#[test]
fn renamed_and_permuted_blocks_are_separate_entries() {
    let (db, engine, store) = materialized(vec![lo_join()]);
    let optimizer = Optimizer::new(&engine, OptimizerConfig::default());
    let variants = [
        lo_query(["l_partkey", "l_quantity"], false),
        lo_query(["pk", "qty"], false),
        lo_query(["l_partkey", "l_quantity"], true),
    ];
    for (i, q) in variants.iter().enumerate() {
        let fresh = optimizer.optimize(q);
        assert_eq!(engine.plan_cache_len(), i + 1, "variant {i} is an entry");
        assert_eq!(optimizer.optimize(q), fresh, "variant {i} hits itself");
        let got = execute_plan(&db, &store, &fresh.plan);
        if let Some(diff) = bag_diff(&got, &execute_spjg(&db, q)) {
            panic!("variant {i}: {diff}\nplan:\n{}", fresh.plan);
        }
    }
    let s = engine.stats();
    assert_eq!((s.plan_cache_misses, s.plan_cache_hits), (3, 3));
}

/// Blocks equal under `Value`'s `Eq` whose literals differ in variant or
/// sign never answer each other: `o_orderkey * 2` computes `Int`s where
/// `* 2.0` computes `Float`s, and `* -0.0` computes `-0.0`. `bag_diff`
/// compares with that same `Eq`, so the rows' debug forms are compared.
#[test]
fn literal_variants_are_separate_keys() {
    let (db, engine, store) = materialized(vec![]);
    let optimizer = Optimizer::new(&engine, OptimizerConfig::default());
    let (_, t) = tpch_catalog();
    let debug_rows = |rows: Vec<Row>| {
        let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    };
    let literals = [
        Value::Int(2),
        Value::Float(2.0),
        Value::Float(0.0),
        Value::Float(-0.0),
    ];
    for (i, lit) in literals.into_iter().enumerate() {
        let q = SpjgExpr::spj(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(
                S::col(cr(0, 0)).binary(BinOp::Mul, S::Literal(lit.clone())),
                "x",
            )],
        );
        let fresh = optimizer.optimize(&q);
        assert_eq!(
            engine.stats().plan_cache_misses,
            i as u64 + 1,
            "{lit:?} searches"
        );
        assert_eq!(optimizer.optimize(&q), fresh, "{lit:?} hits itself");
        assert_eq!(
            debug_rows(execute_plan(&db, &store, &fresh.plan)),
            debug_rows(execute_spjg(&db, &q)),
            "the plan for `o_orderkey * {lit:?}`"
        );
    }
}

/// Reader threads optimize while a writer registers views over their
/// tables. Once everyone has joined, the next answer to every query is
/// the one a fresh search over the same catalog finds.
#[test]
fn readers_racing_a_writer_settle_on_fresh_searches() {
    let (catalog, views, queries) = pools(24, 6);
    let (base, late) = views.split_at(8);
    let read_tables: Vec<TableId> = queries.iter().flat_map(|q| q.tables.clone()).collect();
    assert!(
        late.iter()
            .any(|v| v.expr.tables.iter().any(|t| read_tables.contains(t))),
        "the writer must register views over the readers' tables"
    );
    let engine = Arc::new(MatchingEngine::new(catalog.clone(), MatchConfig::default()));
    engine
        .add_views(base.to_vec())
        .expect("base views register");

    std::thread::scope(|scope| {
        for reader in 0..2 {
            let engine = Arc::clone(&engine);
            let queries = &queries;
            scope.spawn(move || {
                let optimizer = Optimizer::new(engine, OptimizerConfig::default());
                for i in 0..24 {
                    optimizer
                        .try_optimize(&queries[(i + reader) % queries.len()])
                        .expect("reader plans");
                }
            });
        }
        let engine = Arc::clone(&engine);
        scope.spawn(move || {
            for v in late {
                engine.add_view(v.clone()).expect("late view registers");
            }
        });
    });

    let reference = MatchingEngine::new(catalog, config(0, FreshnessPolicy::default()));
    reference.add_views(views.clone()).expect("views register");
    let served = Optimizer::new(Arc::clone(&engine), OptimizerConfig::default());
    let fresh = Optimizer::new(&reference, OptimizerConfig::default());
    let mut answered_from_views = 0;
    for q in &queries {
        let plan = served.try_optimize(q).expect("served plan");
        assert_eq!(
            plan,
            fresh.try_optimize(q).expect("fresh plan"),
            "a plan cached before the registrations outlived them"
        );
        answered_from_views += plan.plan.uses_view() as usize;
    }
    assert!(answered_from_views > 0, "the registered views are used");
}

/// The views reading `table`, by id.
fn views_over(engine: &MatchingEngine, table: TableId) -> Vec<ViewId> {
    engine
        .views()
        .iter()
        .filter(|(_, def)| def.expr.tables.contains(&table))
        .map(|(id, _)| id)
        .collect()
}

/// A `StrictFresh` planner racing `record_base_write` →
/// `mark_views_maintained` rounds, the optimizer-level twin of
/// `mv-core`'s `concurrency.rs::strict_fresh_reader_races_write_rounds`.
/// The writer counts its engine calls in a sequence lock (odd while a call
/// is in flight), so a planner pass that saw the same even value before
/// and after ran entirely inside one state: between a write and its
/// restamp no plan scans a view over the written table, and after the
/// restamp the plans are the quiescent ones again, whether searched or
/// served from the plan cache. The writer holds each state until the
/// planner has completed a pass inside it, so both states are planned
/// every round.
#[test]
fn strict_fresh_planner_races_write_rounds() {
    let (catalog, views, queries) = pools(24, 8);
    let default_capacity = MatchConfig::default().substitute_cache_capacity;
    let engine = MatchingEngine::new(
        catalog.clone(),
        config(default_capacity, FreshnessPolicy::StrictFresh),
    );
    engine.add_views(views).expect("views register");
    let plan_all = |optimizer: &Optimizer<&MatchingEngine>| -> Vec<Optimized> {
        queries
            .iter()
            .map(|q| optimizer.try_optimize(q).expect("plan"))
            .collect()
    };
    let quiescent = plan_all(&Optimizer::new(&engine, OptimizerConfig::default()));
    // Write the table whose views the most plans scan.
    let scanning = |table: TableId| {
        let over = views_over(&engine, table);
        quiescent
            .iter()
            .filter(|o| o.plan.views_used().iter().any(|v| over.contains(v)))
            .count()
    };
    let table = (0..catalog.table_count() as u32)
        .map(TableId)
        .max_by_key(|&table| scanning(table))
        .expect("a table");
    assert!(scanning(table) > 0, "no plan scans a view");
    let written = views_over(&engine, table);

    const ROUNDS: u64 = 12;
    let seq = AtomicU64::new(0);
    let seen = AtomicU64::new(u64::MAX);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let planner = scope.spawn(|| {
            let optimizer = Optimizer::new(&engine, OptimizerConfig::default());
            while !done.load(Ordering::SeqCst) {
                let before = seq.load(Ordering::SeqCst);
                let pass = plan_all(&optimizer);
                let stable = before.is_multiple_of(2) && seq.load(Ordering::SeqCst) == before;
                if !stable {
                    continue;
                }
                if (before / 2) % 2 == 1 {
                    // Written, not yet restamped.
                    for got in &pass {
                        let used = got.plan.views_used();
                        assert!(
                            used.iter().all(|v| !written.contains(v)),
                            "a plan scans stale views {used:?}:\n{}",
                            got.plan
                        );
                    }
                } else {
                    assert_eq!(pass, quiescent, "restamped plans are the quiescent ones");
                }
                seen.store(before, Ordering::SeqCst);
            }
        });
        let held = |state: u64| {
            while seen.load(Ordering::SeqCst) != state {
                assert!(!planner.is_finished(), "the planner failed an assertion");
                std::thread::yield_now();
            }
        };
        held(0);
        for _ in 0..ROUNDS {
            seq.fetch_add(1, Ordering::SeqCst);
            engine.record_base_write(table);
            held(seq.fetch_add(1, Ordering::SeqCst) + 1);
            seq.fetch_add(1, Ordering::SeqCst);
            assert_eq!(engine.mark_views_maintained(&written), written.len());
            held(seq.fetch_add(1, Ordering::SeqCst) + 1);
        }
        done.store(true, Ordering::SeqCst);
    });
    let stats = engine.stats();
    assert!(stats.plan_cache_hits > 0, "some passes are served whole");
}
