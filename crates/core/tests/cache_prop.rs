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
use mv_core::{EpochCache, FreshnessPolicy, MatchConfig, MatchingEngine};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_plan::{NamedExpr, OutputList, SpjgExpr, ViewDef, ViewId};
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

/// The key is the exact block: variants that differ only in output names,
/// in FROM-list order or in a literal's variant (`50` against `50.0`) are
/// separate entries. Each misses once and then hits itself, returns what an
/// uncached engine returns, and carries its own output names.
#[test]
fn renamed_and_permuted_blocks_are_separate_entries() {
    let (catalog, t) = tpch_catalog();
    let cr = ColRef::new;
    // lineitem ⋈ orders; `swap` lists orders first and renumbers.
    let block = |swap: bool, bound: S, names: [&str; 2]| {
        let (l, o) = if swap { (1, 0) } else { (0, 1) };
        let tables = if swap {
            vec![t.orders, t.lineitem]
        } else {
            vec![t.lineitem, t.orders]
        };
        SpjgExpr::spj(
            tables,
            BoolExpr::and(vec![
                BoolExpr::col_eq(cr(l, 0), cr(o, 0)),
                BoolExpr::cmp(S::col(cr(o, 1)), CmpOp::Ge, bound),
            ]),
            vec![
                NamedExpr::new(S::col(cr(l, 4)), names[0]),
                NamedExpr::new(S::col(cr(o, 1)), names[1]),
            ],
        )
    };
    let view = SpjgExpr::spj(
        vec![t.lineitem, t.orders],
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "l_orderkey"),
            NamedExpr::new(S::col(cr(0, 4)), "l_quantity"),
            NamedExpr::new(S::col(cr(1, 1)), "o_custkey"),
        ],
    );
    let engine = MatchingEngine::new(catalog.clone(), MatchConfig::default());
    let uncached = MatchingEngine::new(catalog, uncached_config());
    for e in [&engine, &uncached] {
        e.add_view(ViewDef::new("lo", view.clone()))
            .expect("the view is valid");
    }

    let fifty = || S::lit(50i64);
    let variants = [
        block(false, fifty(), ["qty", "custkey"]),
        block(false, fifty(), ["r0", "r1"]),
        block(true, fifty(), ["qty", "custkey"]),
        block(false, S::lit(50.0f64), ["qty", "custkey"]),
    ];
    for (i, q) in variants.iter().enumerate() {
        let fresh = engine.find_substitutes(q);
        assert_eq!(
            engine.stats().cache_misses,
            i as u64 + 1,
            "variant {i} misses"
        );
        assert_eq!(engine.find_substitutes(q), fresh, "variant {i}");
        assert_eq!(
            engine.stats().cache_hits,
            i as u64 + 1,
            "variant {i} hits itself"
        );
        assert_eq!(fresh, uncached.find_substitutes(q), "variant {i}");
        assert_eq!(fresh.len(), 1, "variant {i} is answered by the view");
        for (_, sub) in &fresh {
            let OutputList::Spj(items) = &sub.output else {
                panic!("variant {i} is an SPJ block");
            };
            let got: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
            assert_eq!(got, q.output_names(), "variant {i} carries its own names");
        }
    }
    // `50` and `50.0` hash equal, as `Value`'s `Eq` has them equal: the
    // float variant's entry replaced the first variant's.
    assert_eq!(engine.substitute_cache_len(), 3);
    assert_eq!(engine.stats().cache_evictions, 1);
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

    // Sweep: twice the capacity in distinct keys, spread over every
    // stripe, never leaves more than `capacity` resident.
    for capacity in [1usize, 3, 10, 127, 129, 1000, 1024] {
        let cache = EpochCache::<u64, ()>::new(capacity);
        for h in 0..2 * capacity as u64 {
            cache.insert(h, h, vec![0], (), 1);
            assert!(cache.len() <= capacity, "capacity {capacity} exceeded");
        }
        // Floor sizing gives up less than one entry per stripe.
        assert!(cache.len() + 8 > capacity, "capacity {capacity} wasted");
    }

    // The default 1,024 is 8 stripes of 128: keys that all land on one
    // stripe (hash ≡ 0 mod 16 ⊂ mod 8) fill exactly 128 slots.
    let cache = EpochCache::<u64, ()>::new(1024);
    for i in 0..200u64 {
        cache.insert(16 * i, i, vec![0], (), 1);
    }
    assert_eq!(cache.len(), 128, "1,024 entries stripe as 8 x 128");
}
