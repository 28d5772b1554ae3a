//! The online-catalog contract: registration (`add_view`, `add_views`,
//! `remove_view`, `add_check_constraint`) runs concurrently with matching
//! against one shared engine. Matchers pin a snapshot per match and must
//! never observe a half-registered view; every substitute produced mid-
//! churn must pass the independent `mv-verify` analyzer (checked here
//! explicitly, so release builds prove it too); and the per-table cache
//! invalidation must be conservative — a cached engine never serves a
//! result an uncached engine with the same history would not produce.

use mv_catalog::tpch::tpch_catalog;
use mv_core::{MatchConfig, MatchingEngine};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_plan::{SpjgExpr, Substitute, ViewDef, ViewId};
use mv_workload::{Generator, WorkloadParams};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const VIEW_SEED: u64 = 0x0CA7A106;
const QUERY_SEED: u64 = 0xD1CE;

fn workload(n_views: usize, n_queries: usize) -> (Vec<ViewDef>, Vec<SpjgExpr>) {
    let (catalog, _) = tpch_catalog();
    let views = Generator::new(&catalog, WorkloadParams::views(), VIEW_SEED).views(n_views);
    let queries =
        Generator::new(&catalog, WorkloadParams::queries(), QUERY_SEED).queries(n_queries);
    (views, queries)
}

/// Run the independent static analyzer over a substitute and panic on any
/// ERROR diagnostic — the release-mode equivalent of the engine's
/// debug-only oracle.
fn assert_verifies(engine: &MatchingEngine, query: &SpjgExpr, id: ViewId, sub: &Substitute) {
    let views = engine.views();
    let checks = engine.check_constraints();
    let ctx = mv_verify::VerifyContext::new(engine.catalog(), &checks);
    let view = views.get(id);
    let errors: Vec<String> =
        mv_verify::verify_substitute(&ctx, query, &view.expr, sub, &view.name, "query")
            .into_iter()
            .filter(|d| d.severity == mv_verify::Severity::Error)
            .map(|d| d.to_json())
            .collect();
    assert!(
        errors.is_empty(),
        "mv-verify rejected a mid-churn substitute for `{}`:\n{}",
        view.name,
        errors.join("\n")
    );
}

/// Matcher threads race one registration thread that adds views from a
/// reserve pool and removes earlier ones. Every result observed mid-churn
/// must be internally coherent: ids resolve in the pinned registry, lists
/// arrive in ascending `ViewId` order, and every substitute passes
/// `mv-verify`.
#[test]
fn writers_racing_matchers_stay_coherent() {
    let (views, queries) = workload(60, 12);
    let (initial, reserve) = views.split_at(30);
    let (catalog, _) = tpch_catalog();
    let engine = Arc::new(MatchingEngine::new(catalog, MatchConfig::default()));
    engine
        .add_views(initial.to_vec())
        .expect("generated views are valid");

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Registration thread: one add per step, removing an older view
        // every third step; publication rate is the natural writer pace.
        scope.spawn(|| {
            for (i, v) in reserve.iter().enumerate() {
                let id = engine.add_view(v.clone()).expect("valid view");
                if i % 3 == 2 {
                    engine.remove_view(ViewId(id.0 / 2));
                }
            }
            done.store(true, Ordering::Release);
        });
        for _ in 0..3 {
            scope.spawn(|| {
                // Keep matching until the writer finishes, then one final
                // full pass over the settled catalog.
                loop {
                    let finished = done.load(Ordering::Acquire);
                    for q in &queries {
                        let subs = engine.find_substitutes(q);
                        assert!(
                            subs.windows(2).all(|w| w[0].0 < w[1].0),
                            "results must stay in ascending ViewId order"
                        );
                        for (id, sub) in &subs {
                            assert_verifies(&engine, q, *id, sub);
                        }
                    }
                    if finished {
                        break;
                    }
                }
            });
        }
    });

    let stats = engine.stats();
    assert_eq!(stats.registrations, 60);
    assert_eq!(stats.removals as usize, reserve.len() / 3);
    assert_eq!(
        engine.live_view_count() as u64,
        stats.registrations - stats.removals
    );
}

/// A reader that pins the registry guard across a write sees one coherent
/// snapshot: the length it observed cannot change under its feet, while
/// the engine itself moves on.
#[test]
fn pinned_guard_is_isolated_from_writers() {
    let (views, _) = workload(4, 0);
    let (catalog, _) = tpch_catalog();
    let engine = MatchingEngine::new(catalog, MatchConfig::default());
    engine.add_views(views[..3].to_vec()).unwrap();

    let pinned = engine.views();
    let before = pinned.len();
    engine.add_view(views[3].clone()).unwrap();
    assert_eq!(pinned.len(), before, "pinned snapshot must not move");
    assert_eq!(engine.views().len(), before + 1, "fresh pin sees the write");
}

/// Per-table invalidation is precise as well as conservative: matchers
/// replaying warm queries while a writer registers views over a table none
/// of them reads keep every cached entry. Catalog epochs move only for the
/// registered views' tables, so the retained share is exactly 100 %, and a
/// registration that bumped every table would turn the replays into misses.
#[test]
fn disjoint_registration_keeps_every_warm_entry() {
    const REGISTRATIONS: usize = 48;
    let (views, queries) = workload(100, 60);
    let (catalog, _) = tpch_catalog();
    // The table the queries reference least, and the queries that avoid it.
    let table = (0..catalog.table_count() as u32)
        .map(mv_catalog::TableId)
        .min_by_key(|t| queries.iter().filter(|q| q.tables.contains(t)).count())
        .unwrap();
    let templates: Vec<&SpjgExpr> = queries
        .iter()
        .filter(|q| !q.tables.contains(&table))
        .collect();
    assert!(!templates.is_empty(), "some query avoids the churn table");
    // Column 0 exists in every TPC-H table; the range bound makes each
    // registration a distinct view over the churn table.
    let churn: Vec<ViewDef> = (0..REGISTRATIONS)
        .map(|k| {
            let expr = SpjgExpr::spj(
                vec![table],
                BoolExpr::cmp(S::col(ColRef::new(0, 0)), CmpOp::Ge, S::lit(k as i64)),
                vec![mv_plan::NamedExpr::new(S::col(ColRef::new(0, 0)), "k0")],
            );
            ViewDef::new(format!("churn_{k}"), expr)
        })
        .collect();

    let engine = MatchingEngine::new(catalog, MatchConfig::default());
    engine.add_views(views).expect("generated views are valid");
    let primed: Vec<_> = templates
        .iter()
        .map(|q| engine.find_substitutes(q))
        .collect();
    engine.reset_stats();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for v in &churn {
                engine.add_view(v.clone()).expect("churn views are valid");
            }
            done.store(true, Ordering::Release);
        });
        for _ in 0..2 {
            scope.spawn(|| loop {
                // Replay until the writer finishes, then one final pass
                // over the settled catalog.
                let finished = done.load(Ordering::Acquire);
                for (q, want) in templates.iter().zip(&primed) {
                    assert_eq!(&engine.find_substitutes(q), want, "warm result moved");
                }
                if finished {
                    break;
                }
            });
        }
    });

    let stats = engine.stats();
    assert_eq!(stats.cache_invalidations, 0, "a disjoint write invalidated");
    assert_eq!(stats.cache_misses, 0, "a warm entry was lost");
    assert!(stats.cache_hits > 0, "the replays probed the cache");
    assert_eq!(stats.registrations, REGISTRATIONS as u64);
}

// Per-table invalidation is conservative: a cached engine and an
// uncached engine fed the same interleaving of registrations, removals,
// check-constraint declarations and queries must answer every query
// identically. If a stale entry ever survived an invalidation it should
// not have, the cached side diverges. Ops arrive as `(kind, selector)`
// tuples: 0 = add view, 1 = remove view, 2 = declare check constraint,
// 3 = match query.
proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn per_table_invalidation_is_conservative(
        ops in prop::collection::vec((0u8..4, 0usize..10), 1..40)
    ) {
        let (views, queries) = workload(10, 6);
        let (catalog, _) = tpch_catalog();
        let n_tables = catalog.table_count();
        let cached = MatchingEngine::new(catalog.clone(), MatchConfig::default());
        let uncached = MatchingEngine::new(catalog, MatchConfig {
            substitute_cache_capacity: 0,
            ..MatchConfig::default()
        });
        let mut added: Vec<Option<ViewId>> = vec![None; views.len()];
        for (kind, sel) in &ops {
            match kind {
                0 => {
                    if added[*sel].is_none() {
                        let a = cached.add_view(views[*sel].clone()).unwrap();
                        let b = uncached.add_view(views[*sel].clone()).unwrap();
                        prop_assert_eq!(a, b, "identical histories assign identical ids");
                        added[*sel] = Some(a);
                    }
                }
                1 => {
                    if let Some(id) = added[*sel] {
                        prop_assert_eq!(cached.remove_view(id), uncached.remove_view(id));
                    }
                }
                2 => {
                    // Column 0 exists in every TPC-H table; a trivial range
                    // on it still reshapes every affected query summary.
                    let pred = BoolExpr::cmp(
                        S::col(ColRef::new(0, 0)),
                        CmpOp::Ge,
                        S::lit(0i64),
                    );
                    let table = mv_catalog::TableId((sel % n_tables) as u32);
                    cached.add_check_constraint(table, pred.clone()).unwrap();
                    uncached.add_check_constraint(table, pred).unwrap();
                }
                _ => {
                    let q = &queries[sel % queries.len()];
                    prop_assert_eq!(
                        cached.find_substitutes(q),
                        uncached.find_substitutes(q),
                        "cached result diverged from fresh computation"
                    );
                }
            }
        }
        // Cached traffic must be conservative, never wrong — and the two
        // engines must agree on the final catalog shape.
        prop_assert_eq!(cached.live_view_count(), uncached.live_view_count());
    }
}
