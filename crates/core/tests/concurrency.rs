//! The engine's concurrency contract: `MatchingEngine` is `Send + Sync`,
//! any number of threads may run `find_substitutes` against one shared
//! engine and get the serial answers, the atomic instrumentation counters
//! add up exactly under contention, and a `StrictFresh` reader racing
//! write rounds never gets a substitute from a view whose stamp trails.

use mv_catalog::tpch::tpch_catalog;
use mv_catalog::TableId;
use mv_core::{FreshnessPolicy, MatchConfig, MatchingEngine};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr};
use mv_plan::{NamedExpr, SpjgExpr, ViewDef, ViewId};
use mv_workload::{Generator, WorkloadParams};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const VIEW_SEED: u64 = 0xC0_FFEE;
const QUERY_SEED: u64 = 0xBEEF;

fn workload(n_views: usize, n_queries: usize) -> (Vec<ViewDef>, Vec<SpjgExpr>) {
    let (catalog, _) = tpch_catalog();
    let views = Generator::new(&catalog, WorkloadParams::views(), VIEW_SEED).views(n_views);
    let queries =
        Generator::new(&catalog, WorkloadParams::queries(), QUERY_SEED).queries(n_queries);
    (views, queries)
}

fn engine(views: &[ViewDef], config: MatchConfig) -> MatchingEngine {
    let (catalog, _) = tpch_catalog();
    let engine = MatchingEngine::new(catalog, config);
    for v in views {
        engine
            .add_view(v.clone())
            .expect("generated views are valid");
    }
    engine
}

#[test]
fn engine_is_send_and_sync() {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<MatchingEngine>();
    assert_sync::<Arc<MatchingEngine>>();
}

#[test]
fn concurrent_matching_equals_serial() {
    let (views, queries) = workload(80, 24);
    let engine = Arc::new(engine(&views, MatchConfig::default()));

    let serial: Vec<_> = queries.iter().map(|q| engine.find_substitutes(q)).collect();
    let serial_stats = engine.stats();
    assert_eq!(serial_stats.invocations, queries.len() as u64);

    // 4 threads each run the full query list against the shared engine.
    const THREADS: u64 = 4;
    engine.reset_stats();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let engine = Arc::clone(&engine);
            let queries = &queries;
            let serial = &serial;
            scope.spawn(move || {
                for (q, expected) in queries.iter().zip(serial) {
                    assert_eq!(&engine.find_substitutes(q), expected);
                }
            });
        }
    });

    // Atomic counters: exactly THREADS times the serial totals.
    let stats = engine.stats();
    assert_eq!(stats.invocations, THREADS * serial_stats.invocations);
    assert_eq!(stats.candidates, THREADS * serial_stats.candidates);
    assert_eq!(
        stats.views_available,
        THREADS * serial_stats.views_available
    );
    assert_eq!(stats.substitutes, THREADS * serial_stats.substitutes);
}

/// The time booked to `match_time` is spent inside the `find_substitutes`
/// calls, so it cannot exceed their wall time — with the cache off (32
/// computations) and on (one computation, 31 hits).
#[test]
fn match_time_fits_inside_the_calls() {
    let (views, queries) = workload(60, 24);
    for substitute_cache_capacity in [0, MatchConfig::default().substitute_cache_capacity] {
        let engine = engine(
            &views,
            MatchConfig {
                substitute_cache_capacity,
                timing: true,
                ..MatchConfig::default()
            },
        );
        let started = std::time::Instant::now();
        for _ in 0..32 {
            engine.find_substitutes(&queries[0]);
        }
        let wall = started.elapsed();
        let stats = engine.stats();
        assert_eq!(stats.invocations, 32);
        assert!(
            stats.match_time <= wall,
            "match_time {:?} exceeds the calls' wall time {wall:?}",
            stats.match_time
        );
    }
}

/// Many threads hammering a small set of repeated queries against the
/// shared cache: every hit must return exactly the serial answer, and
/// with the working set far below capacity the cache must serve most of
/// the repeated traffic.
#[test]
fn concurrent_cache_hits_are_identical() {
    let (views, queries) = workload(80, 8);
    let engine = Arc::new(engine(&views, MatchConfig::default()));
    let serial: Vec<_> = queries.iter().map(|q| engine.find_substitutes(q)).collect();
    engine.reset_stats();

    const THREADS: usize = 4;
    const ROUNDS: usize = 5;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let engine = Arc::clone(&engine);
            let queries = &queries;
            let serial = &serial;
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    for (q, expected) in queries.iter().zip(serial) {
                        assert_eq!(&engine.find_substitutes(q), expected);
                    }
                }
            });
        }
    });

    let stats = engine.stats();
    let probes = (THREADS * ROUNDS * queries.len()) as u64;
    assert_eq!(stats.cache_hits + stats.cache_misses, probes);
    // The warm-up pass above already cached every query shape.
    assert_eq!(stats.cache_hits, probes, "all repeated probes must hit");
    assert_eq!(stats.cache_invalidations, 0);
}

/// `remove_view` interleaved with matching rounds: removed views drop
/// out of the results immediately and never reappear.
#[test]
fn remove_view_interleaved_with_matching() {
    let (views, queries) = workload(60, 24);
    let engine = engine(&views, MatchConfig::default());

    let initial: Vec<_> = queries.iter().map(|q| engine.find_substitutes(q)).collect();
    let matched: Vec<_> = initial.iter().flatten().map(|(id, _)| *id).collect();
    assert!(!matched.is_empty(), "workload produced no matches");

    // Remove every matched view, one matching round per removal.
    let mut removed = Vec::new();
    for &victim in &matched {
        if removed.contains(&victim) {
            continue;
        }
        engine.remove_view(victim);
        removed.push(victim);
        for q in &queries {
            for (id, _) in engine.find_substitutes(q) {
                assert!(!removed.contains(&id), "removed view {id:?} reappeared");
            }
        }
    }

    // With every previously-matching view gone, all that remains are
    // matches on never-removed views — and the survivors must agree
    // with a fresh engine holding only the surviving views.
    let survivors: Vec<ViewDef> = views
        .iter()
        .enumerate()
        .filter(|(i, _)| !removed.iter().any(|r| r.0 as usize == *i))
        .map(|(_, v)| v.clone())
        .collect();
    let fresh = self::engine(&survivors, MatchConfig::default());
    for q in &queries {
        assert_eq!(
            engine.find_substitutes(q).len(),
            fresh.find_substitutes(q).len()
        );
    }
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

/// `SELECT <key> FROM <table> WHERE <key> BETWEEN lo AND hi`.
fn key_range(table: TableId, lo: i64, hi: i64) -> SpjgExpr {
    let key = || ScalarExpr::col(ColRef::new(0, 0));
    SpjgExpr::spj(
        vec![table],
        BoolExpr::and(vec![
            BoolExpr::cmp(key(), CmpOp::Ge, ScalarExpr::lit(lo)),
            BoolExpr::cmp(key(), CmpOp::Le, ScalarExpr::lit(hi)),
        ]),
        vec![NamedExpr::new(key(), "k")],
    )
}

/// A write the engine refuses publishes nothing: the snapshot epoch, the
/// live view count and the filter entries all stay as they were.
#[test]
fn refused_writes_publish_nothing() {
    let (views, _) = workload(8, 0);
    let engine = engine(&views, MatchConfig::default());
    assert!(engine.remove_view(ViewId(3)));
    let state = |engine: &MatchingEngine| {
        let mut entries = engine.filter_entries();
        entries.sort();
        (engine.snapshot_epoch(), engine.live_view_count(), entries)
    };
    let before = state(&engine);

    // A batch whose second view takes the first one's name.
    let mut taken = views[1].clone();
    taken.name = views[0].name.clone();
    assert!(engine.add_views(vec![views[2].clone(), taken]).is_err());
    assert_eq!(state(&engine), before, "refused batch");

    assert!(!engine.remove_view(ViewId(3)), "already removed");
    assert!(!engine.remove_view(ViewId(99)), "out of range");
    assert_eq!(state(&engine), before, "refused removals");

    engine.record_base_write(TableId(engine.catalog().table_count() as u32));
    assert_eq!(state(&engine), before, "write to an unknown table");
}

/// One `mark_views_maintained` call over k views is one publication, and
/// it leaves the engine exactly where k single restamps leave it: the
/// same answers, with the same stamps, served from the same cache
/// entries. Restamps invalidate no substitute-cache entry — a cached
/// verdict is rebuilt against the current freshness on every hit.
#[test]
fn batch_restamp_publishes_once_and_invalidates_like_single_restamps() {
    let (_, t) = tpch_catalog();
    let views: Vec<ViewDef> = [
        (t.part, 0, 100),
        (t.part, 0, 200),
        (t.part, 50, 300),
        (t.orders, 0, 100),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(table, lo, hi))| ViewDef::new(format!("v{i}"), key_range(table, lo, hi)))
    .collect();
    let queries = [
        key_range(t.part, 10, 90),
        key_range(t.part, 60, 150),
        key_range(t.orders, 10, 90),
    ];
    let config = || MatchConfig {
        freshness: FreshnessPolicy::StrictFresh,
        ..MatchConfig::default()
    };
    let (batch, single) = (engine(&views, config()), engine(&views, config()));
    let ids = views_over(&batch, t.part);
    assert_eq!(ids.len(), 3);

    for engine in [&batch, &single] {
        engine.record_base_write(t.part);
        // Cache every query's answer under the stale stamps.
        for q in &queries {
            engine.find_substitutes(q);
        }
        engine.reset_stats();
    }
    let before = batch.snapshot_epoch();
    assert_eq!(batch.mark_views_maintained(&ids), ids.len());
    assert_eq!(batch.snapshot_epoch(), before + 1, "one publication");
    let before = single.snapshot_epoch();
    for &id in &ids {
        assert_eq!(single.mark_views_maintained(&[id]), 1);
    }
    assert_eq!(single.snapshot_epoch(), before + ids.len() as u64);

    for q in &queries {
        let served = batch.find_substitutes(q);
        assert_eq!(served, single.find_substitutes(q));
        assert!(served.iter().all(|(_, s)| s.freshness.is_fresh()));
        let (b, s) = (batch.stats(), single.stats());
        assert_eq!(
            (b.cache_hits, b.cache_misses, b.cache_invalidations),
            (s.cache_hits, s.cache_misses, s.cache_invalidations)
        );
    }
    // Every query is served from its cached verdict; the two over the
    // restamped table see its views again.
    let stats = batch.stats();
    assert_eq!((stats.cache_invalidations, stats.cache_hits), (0, 3));
    assert_eq!(batch.find_substitutes(&queries[0]).len(), 2);
    assert_eq!(batch.find_substitutes(&queries[1]).len(), 2);
    // Ids the catalog does not hold restamp nothing and publish nothing.
    let before = batch.snapshot_epoch();
    assert_eq!(
        batch.mark_views_maintained(&[ViewId(views.len() as u32)]),
        0
    );
    assert_eq!(batch.snapshot_epoch(), before);
}

/// A `StrictFresh` reader racing `record_base_write` →
/// `mark_views_maintained` rounds. The writer counts its engine calls in
/// a sequence lock (odd while a call is in flight), so a reader pass that
/// saw the same even value before and after ran entirely inside one
/// state: between a write and its restamp no view over the written table
/// may be served, after the restamp the answers are the quiescent ones
/// again. Every pass, straddling or not, may only see `Fresh` stamps. The
/// writer holds each state until the reader has completed a pass inside
/// it, so both states are observed every round.
#[test]
fn strict_fresh_reader_races_write_rounds() {
    let (views, queries) = workload(60, 24);
    let engine = engine(
        &views,
        MatchConfig {
            freshness: FreshnessPolicy::StrictFresh,
            ..MatchConfig::default()
        },
    );
    let quiescent: Vec<_> = queries.iter().map(|q| engine.find_substitutes(q)).collect();
    // Write the table most answers depend on.
    let answering = |table: TableId| {
        let over = views_over(&engine, table);
        quiescent
            .iter()
            .flatten()
            .filter(|(id, _)| over.contains(id))
            .count()
    };
    let table = (0..8)
        .map(TableId)
        .max_by_key(|&table| answering(table))
        .expect("eight tables");
    assert!(answering(table) > 0, "no query is answered from a view");
    let written = views_over(&engine, table);

    const ROUNDS: u64 = 40;
    let seq = AtomicU64::new(0);
    let seen = AtomicU64::new(u64::MAX);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                let before = seq.load(Ordering::SeqCst);
                let pass: Vec<_> = queries.iter().map(|q| engine.find_substitutes(q)).collect();
                let stable = before.is_multiple_of(2) && seq.load(Ordering::SeqCst) == before;
                for (got, want) in pass.iter().zip(&quiescent) {
                    assert!(got.iter().all(|(_, sub)| sub.freshness.is_fresh()));
                    if !stable {
                        continue;
                    }
                    if (before / 2) % 2 == 1 {
                        // Written, not yet restamped.
                        assert!(got.iter().all(|(id, _)| !written.contains(id)));
                    } else {
                        assert_eq!(got, want);
                    }
                }
                if stable {
                    seen.store(before, Ordering::SeqCst);
                }
            }
        });
        let held = |state: u64| {
            while seen.load(Ordering::SeqCst) != state {
                assert!(!reader.is_finished(), "the reader failed an assertion");
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
}
