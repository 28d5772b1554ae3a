//! The substitute cache must be invisible: under any interleaving of
//! `add_view` / `remove_view` / `record_base_write` /
//! `mark_views_maintained` / `find_substitutes`, an engine with the cache
//! enabled returns byte-identical results — freshness stamps included —
//! to an engine with the cache disabled. In debug builds every cache hit
//! additionally runs the engine's own differential assertion (rebuilt ==
//! freshly computed), so these tests double as a harness for that oracle;
//! release builds compile it out, which leaves these tests as the check
//! of a rebuilt hit.

use mv_catalog::tpch::tpch_catalog;
use mv_core::{FreshnessPolicy, MatchConfig, MatchingEngine, SubstituteCache};
use mv_plan::{OutputList, SpjgExpr, ViewDef, ViewId};
use mv_workload::{Generator, WorkloadParams};
use proptest::prelude::*;

const VIEW_SEED: u64 = 0x5EED_CAFE;
const QUERY_SEED: u64 = 0x00DD_BA11;

fn pools(n_views: usize, n_queries: usize) -> (Vec<ViewDef>, Vec<SpjgExpr>) {
    let (catalog, _) = tpch_catalog();
    let views = Generator::new(&catalog, WorkloadParams::views(), VIEW_SEED).views(n_views);
    let queries =
        Generator::new(&catalog, WorkloadParams::queries(), QUERY_SEED).queries(n_queries);
    (views, queries)
}

fn engine_with(config: MatchConfig) -> MatchingEngine {
    let (catalog, _) = tpch_catalog();
    MatchingEngine::new(catalog, config)
}

fn uncached_config() -> MatchConfig {
    MatchConfig {
        substitute_cache_capacity: 0,
        ..MatchConfig::default()
    }
}

/// One step of the interleaving, decoded from a `(kind, index)` pair
/// (the vendored proptest stand-in has no `prop_oneof`).
#[derive(Debug, Clone, Copy)]
enum Op {
    AddView(usize),
    RemoveView(usize),
    /// A write round against the first table of query `idx`.
    RecordWrite(usize),
    /// Restamp every live view over the first table of query `idx`.
    MarkMaintained(usize),
    Find(usize),
}

fn decode(kind: usize, idx: usize) -> Op {
    match kind {
        0 => Op::AddView(idx),
        1 => Op::RemoveView(idx),
        2 => Op::RecordWrite(idx),
        3 => Op::MarkMaintained(idx),
        _ => Op::Find(idx),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Apply the same op sequence to a cached and an uncached engine
    /// under `StrictFresh`; every `find_substitutes` must agree
    /// byte-for-byte. Repeated query indices make real cache hits,
    /// removals and additions exercise the epoch invalidation
    /// mid-sequence, and writes and restamps exercise freshness applied
    /// to a rebuilt verdict. Half the view pool is the queries
    /// themselves, and the whole pool is registered before the first op,
    /// so a find has views that answer it.
    #[test]
    fn interleaving_equals_uncached_engine(
        ops in prop::collection::vec((0usize..6, 0usize..16), 1..40),
    ) {
        let (mut views, queries) = pools(8, 8);
        views.extend(
            queries
                .iter()
                .enumerate()
                .map(|(i, q)| ViewDef::new(format!("q{i}"), q.clone())),
        );
        let strict = |config: MatchConfig| MatchConfig {
            freshness: FreshnessPolicy::StrictFresh,
            ..config
        };
        let cached = engine_with(strict(MatchConfig::default()));
        let uncached = engine_with(strict(uncached_config()));
        let mut live: Vec<ViewId> = Vec::new();
        for def in &views {
            let id = cached.add_view(def.clone()).expect("pool views are valid");
            prop_assert_eq!(uncached.add_view(def.clone()), Ok(id));
            live.push(id);
        }

        for (kind, idx) in ops {
            match decode(kind, idx) {
                Op::AddView(i) => {
                    let def = views[i % views.len()].clone();
                    let a = cached.add_view(def.clone());
                    let b = uncached.add_view(def);
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                    if let Ok(id) = a {
                        prop_assert_eq!(Ok(id), b);
                        live.push(id);
                    }
                }
                Op::RemoveView(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live.remove(i % live.len());
                    prop_assert!(cached.remove_view(id));
                    prop_assert!(uncached.remove_view(id));
                }
                Op::RecordWrite(i) => {
                    let table = queries[i % queries.len()].tables[0];
                    cached.record_base_write(table);
                    uncached.record_base_write(table);
                }
                Op::MarkMaintained(i) => {
                    let table = queries[i % queries.len()].tables[0];
                    let views = cached.views();
                    let over: Vec<ViewId> = live
                        .iter()
                        .copied()
                        .filter(|&id| views.get(id).expr.tables.contains(&table))
                        .collect();
                    prop_assert_eq!(
                        cached.mark_views_maintained(&over),
                        uncached.mark_views_maintained(&over)
                    );
                }
                Op::Find(qi) => {
                    let q = &queries[qi % queries.len()];
                    let a = cached.find_substitutes(q);
                    let b = uncached.find_substitutes(q);
                    prop_assert_eq!(a, b, "cached engine diverged from uncached");
                }
            }
        }
        prop_assert_eq!(
            cached.stats().substitutes,
            uncached.stats().substitutes,
            "both engines must have produced the same substitute totals"
        );
    }
}

/// Registering a view after a query was cached must evict the stale entry
/// (reported in `cache_invalidations`) and return the refreshed result —
/// including any match against the newly added view.
#[test]
fn epoch_bump_evicts_stale_hits() {
    let (views, queries) = pools(12, 4);
    let engine = engine_with(MatchConfig::default());
    for v in &views[..6] {
        engine
            .add_view(v.clone())
            .expect("generated views are valid");
    }
    let q = &queries[0];

    let first = engine.find_substitutes(q);
    let warm = engine.find_substitutes(q);
    assert_eq!(first, warm);
    let s = engine.stats();
    assert_eq!(s.cache_hits, 1, "second identical query must hit");
    assert_eq!(s.cache_misses, 1);
    assert_eq!(s.cache_invalidations, 0);

    // Any registration bumps the epoch; the cached entry is now stale.
    for v in &views[6..] {
        engine
            .add_view(v.clone())
            .expect("generated views are valid");
    }
    let refreshed = engine.find_substitutes(q);
    let s = engine.stats();
    assert_eq!(s.cache_invalidations, 1, "stale entry must be discarded");
    assert_eq!(s.cache_misses, 2, "stale hit recomputes");

    // The refreshed result must agree with a fresh uncached engine over
    // the full view set.
    let fresh = engine_with(uncached_config());
    for v in &views {
        fresh
            .add_view(v.clone())
            .expect("generated views are valid");
    }
    assert_eq!(refreshed, fresh.find_substitutes(q));
}

/// α-equivalent queries (same shape, different output names) share one
/// cache entry, and the hit is rebuilt with the probing query's names.
#[test]
fn renamed_outputs_hit_and_restamp() {
    let (views, queries) = pools(16, 8);
    let engine = engine_with(MatchConfig::default());
    for v in &views {
        engine
            .add_view(v.clone())
            .expect("generated views are valid");
    }

    let q = queries
        .iter()
        .find(|q| !engine.find_substitutes(q).is_empty())
        .expect("workload produced at least one matching query");
    engine.reset_stats();
    engine.clear_substitute_cache();

    let mut renamed = q.clone();
    match &mut renamed.output {
        OutputList::Spj(items) => {
            for (i, item) in items.iter_mut().enumerate() {
                item.name = format!("r{i}");
            }
        }
        OutputList::Aggregate {
            group_by,
            aggregates,
        } => {
            for (i, item) in group_by.iter_mut().enumerate() {
                item.name = format!("g{i}");
            }
            for (i, item) in aggregates.iter_mut().enumerate() {
                item.name = format!("a{i}");
            }
        }
    }

    let original = engine.find_substitutes(q);
    let restamped = engine.find_substitutes(&renamed);
    let s = engine.stats();
    assert_eq!(s.cache_misses, 1);
    assert_eq!(s.cache_hits, 1, "renamed variant must share the entry");
    assert_eq!(original.len(), restamped.len());
    let want = renamed.output_names();
    for (_, sub) in &restamped {
        match &sub.output {
            OutputList::Spj(items) => {
                let got: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
                assert_eq!(got, want, "hit must carry the probing query's names");
            }
            OutputList::Aggregate {
                group_by,
                aggregates,
            } => {
                let got: Vec<&str> = group_by
                    .iter()
                    .map(|i| i.name.as_str())
                    .chain(aggregates.iter().map(|i| i.name.as_str()))
                    .collect();
                assert_eq!(got, want, "hit must carry the probing query's names");
            }
        }
    }
}

/// The cache never holds more entries than its configured capacity —
/// whatever the capacity, including ones its stripe count does not divide.
#[test]
fn capacity_bounds_resident_entries() {
    let (views, queries) = pools(16, 8);
    let config = MatchConfig {
        substitute_cache_capacity: 3,
        ..MatchConfig::default()
    };
    let engine = engine_with(config);
    for v in &views {
        engine
            .add_view(v.clone())
            .expect("generated views are valid");
    }
    for _round in 0..3 {
        for q in &queries {
            engine.find_substitutes(q);
            assert!(engine.substitute_cache_len() <= 3, "capacity exceeded");
        }
    }
    let s = engine.stats();
    assert!(
        s.cache_hits + s.cache_misses == 3 * queries.len() as u64,
        "every find probed the cache"
    );
    assert_eq!(
        s.cache_evictions,
        s.cache_misses - engine.substitute_cache_len() as u64,
        "every miss past the first fills evicts exactly one entry"
    );

    // Sweep: twice the capacity in distinct fingerprints, spread over
    // every stripe, never leaves more than `capacity` resident.
    for capacity in [1usize, 3, 10, 127, 129, 1000, 1024] {
        let cache = SubstituteCache::new(capacity);
        for h in 0..2 * capacity as u64 {
            cache.insert(h, format!("q{h}").into(), vec![0], (0, Vec::new()), 1);
            assert!(cache.len() <= capacity, "capacity {capacity} exceeded");
        }
        // Floor sizing gives up less than one entry per stripe.
        assert!(cache.len() + 8 > capacity, "capacity {capacity} wasted");
    }

    // The default 1,024 is 8 stripes of 128: fingerprints that all land
    // on one stripe (hash ≡ 0 mod 16 ⊂ mod 8) fill exactly 128 slots.
    let cache = SubstituteCache::new(1024);
    for i in 0..200u64 {
        cache.insert(16 * i, format!("q{i}").into(), vec![0], (0, Vec::new()), 1);
    }
    assert_eq!(cache.len(), 128, "1,024 entries stripe as 8 x 128");
}
