//! The substitute cache must be invisible: under any interleaving of
//! `add_view` / `remove_view` / `record_base_write` /
//! `mark_views_maintained` / `find_substitutes` / `find_verdicts`, an
//! engine with the cache enabled returns byte-identical results —
//! freshness stamps included — to an engine with the cache disabled.
//! `find_substitutes` searches through `find_verdicts` and then builds,
//! so the two entry points share every entry, and
//! `find_substitutes_is_find_verdicts_then_build` holds it to that
//! definition. In debug builds every cache hit additionally runs the
//! engine's own differential assertion (served == freshly computed), so
//! these tests double as a harness for that oracle; release builds
//! compile it out, which leaves these tests as the check of a served hit.

use mv_catalog::tpch::tpch_catalog;
use mv_core::{EpochCache, FreshnessPolicy, MatchConfig, MatchingEngine, Verdict};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_plan::{Freshness, NamedExpr, OutputList, SpjgExpr, ViewDef, ViewId};
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

/// One step of the interleaving, decoded from a `(kind, index, yield)`
/// triple (the vendored proptest stand-in has no `prop_oneof`).
#[derive(Debug, Clone, Copy)]
enum Op {
    AddView(usize),
    RemoveView(usize),
    /// A write round against the first table of query `idx`.
    RecordWrite(usize),
    /// Restamp every live view over the first table of query `idx`.
    MarkMaintained(usize),
    Find(usize),
    /// `find_verdicts` under a pin taken for the probe.
    FindVerdicts(usize),
}

fn decode(kind: usize, idx: usize, verdicts: bool) -> Op {
    match kind {
        0 => Op::AddView(idx),
        1 => Op::RemoveView(idx),
        2 => Op::RecordWrite(idx),
        3 => Op::MarkMaintained(idx),
        _ if verdicts => Op::FindVerdicts(idx),
        _ => Op::Find(idx),
    }
}

/// `find_verdicts` under a fresh pin.
fn verdicts_of(engine: &MatchingEngine, query: &SpjgExpr) -> Vec<(ViewId, Verdict)> {
    engine.find_verdicts(&engine.views(), query)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Apply the same op sequence to a cached and an uncached engine
    /// under `StrictFresh`; every `find_substitutes` and `find_verdicts`
    /// must agree byte-for-byte. The entry point is drawn per probe and
    /// both share the one cache, so an entry either call filled serves
    /// the other. Repeated query indices make real cache hits, removals and
    /// additions exercise the epoch invalidation mid-sequence, and writes
    /// and restamps exercise freshness applied to a cached verdict. Half
    /// the view pool is the queries themselves, and the whole pool is
    /// registered before the first op, so a find has views that answer it.
    #[test]
    fn interleaving_equals_uncached_engine(
        ops in prop::collection::vec((0usize..6, 0usize..16, any::<bool>()), 1..40),
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

        for (kind, idx, verdicts) in ops {
            match decode(kind, idx, verdicts) {
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
                Op::FindVerdicts(qi) => {
                    let q = &queries[qi % queries.len()];
                    let a = verdicts_of(&cached, q);
                    let b = verdicts_of(&uncached, q);
                    prop_assert_eq!(a, b, "cached verdicts diverged from uncached");
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

/// Assert that for every query an entry filled by `find_substitutes`
/// serves `find_verdicts` as a hit, and the reverse, each byte-identical to
/// what the uncached `fresh` engine computes, and the substitutes built
/// from a hit's verdicts too.
fn assert_either_yield_serves(
    cached: &MatchingEngine,
    fresh: &MatchingEngine,
    queries: &[SpjgExpr],
) {
    for (i, q) in queries.iter().enumerate() {
        cached.clear_substitute_cache();
        let hits = cached.stats().cache_hits;
        assert_eq!(
            cached.find_substitutes(q),
            fresh.find_substitutes(q),
            "query {i}"
        );
        let served = verdicts_of(cached, q);
        assert_eq!(
            cached.stats().cache_hits,
            hits + 1,
            "query {i}: a verdict hit"
        );
        assert_eq!(served, verdicts_of(fresh, q), "query {i}: served verdicts");

        cached.clear_substitute_cache();
        assert_eq!(verdicts_of(cached, q), served, "query {i}");
        let rebuilt = cached.find_substitutes(q);
        assert_eq!(
            cached.stats().cache_hits,
            hits + 2,
            "query {i}: find_substitutes hits"
        );
        assert_eq!(
            rebuilt,
            fresh.find_substitutes(q),
            "query {i}: substitutes built from a hit"
        );
    }
}

/// A `find_substitutes` miss fills an entry a `find_verdicts` probe then
/// hits, and the reverse. The hand-built views compensate — a range on a view
/// column is a filter, a column only a base table has is a backjoin — and
/// one entry holds several views with different backjoins and flags, so
/// the packed entry's shared array and flag bits are read back at every
/// offset.
#[test]
fn either_yield_serves_an_entry_the_other_filled() {
    let (views, queries) = pools(8, 8);
    let (cached, fresh) = (
        engine_with(MatchConfig::default()),
        engine_with(uncached_config()),
    );
    for def in views
        .iter()
        .chain(&[ViewDef::new("q0", queries[0].clone())])
    {
        cached.add_view(def.clone()).expect("pool views are valid");
        fresh.add_view(def.clone()).expect("pool views are valid");
    }
    assert_either_yield_serves(&cached, &fresh, &queries);

    let (catalog, t) = tpch_catalog();
    let cr = ColRef::new;
    let out = |cols: &[(u32, u32)]| {
        cols.iter()
            .map(|&(o, c)| NamedExpr::new(S::col(cr(o, c)), format!("t{o}c{c}")))
            .collect::<Vec<_>>()
    };
    let cmp = |c: ColRef, op: CmpOp, v: i64| BoolExpr::cmp(S::col(c), op, S::lit(v));
    let li_ord = BoolExpr::col_eq(cr(0, 0), cr(1, 0));
    let views = [
        SpjgExpr::spj(
            vec![t.lineitem, t.orders],
            li_ord.clone(),
            out(&[(0, 0), (0, 3), (1, 0)]),
        ),
        SpjgExpr::spj(
            vec![t.lineitem],
            cmp(cr(0, 4), CmpOp::Gt, 10),
            out(&[(0, 0), (0, 3), (0, 4)]),
        ),
        SpjgExpr::spj(
            vec![t.lineitem],
            BoolExpr::Literal(true),
            out(&[(0, 0), (0, 3), (0, 4), (0, 5)]),
        ),
    ];
    let queries = [
        SpjgExpr::spj(vec![t.lineitem, t.orders], li_ord, out(&[(1, 3), (0, 5)])),
        SpjgExpr::spj(
            vec![t.lineitem],
            BoolExpr::and(vec![
                cmp(cr(0, 4), CmpOp::Gt, 10),
                cmp(cr(0, 4), CmpOp::Le, 30),
                cmp(cr(0, 5), CmpOp::Ne, 5),
            ]),
            out(&[(0, 0), (0, 5)]),
        ),
    ];
    let backjoins = MatchConfig {
        allow_backjoins: true,
        ..MatchConfig::default()
    };
    let cached = MatchingEngine::new(catalog.clone(), backjoins.clone());
    let fresh = MatchingEngine::new(
        catalog,
        MatchConfig {
            substitute_cache_capacity: 0,
            ..backjoins
        },
    );
    for (i, v) in views.iter().enumerate() {
        let def = ViewDef::new(format!("v{i}"), v.clone());
        cached.add_view(def.clone()).expect("the view is valid");
        fresh.add_view(def).expect("the view is valid");
    }
    assert_either_yield_serves(&cached, &fresh, &queries);
    let served: Vec<Verdict> = queries
        .iter()
        .flat_map(|q| verdicts_of(&fresh, q))
        .map(|(_, v)| v)
        .collect();
    assert!(served.iter().any(|v| v.backjoins.len() >= 2), "{served:?}");
    assert!(served.iter().any(|v| v.filters), "{served:?}");
    assert!(served.iter().any(|v| !v.filters), "{served:?}");
}

/// `part` rows with `lo <= p_partkey < hi`, projecting the key and
/// `p_size` (`with_size`) or the key alone.
fn part_range(lo: i64, hi: i64, with_size: bool) -> SpjgExpr {
    let (_, t) = tpch_catalog();
    let key = S::col(ColRef::new(0, 0));
    let mut output = vec![NamedExpr::new(key.clone(), "p_partkey")];
    if with_size {
        output.push(NamedExpr::new(S::col(ColRef::new(0, 5)), "p_size"));
    }
    SpjgExpr::spj(
        vec![t.part],
        BoolExpr::and(vec![
            BoolExpr::cmp(key.clone(), CmpOp::Ge, S::lit(lo)),
            BoolExpr::cmp(key, CmpOp::Lt, S::lit(hi)),
        ]),
        output,
    )
}

/// Under `StrictFresh` a verdict hit applies the gate to each cached
/// verdict: a write round leaves the entry in place, and the hit omits the
/// views it made stale until they are marked maintained.
#[test]
fn a_verdict_hit_gates_each_cached_verdict() {
    let (catalog, t) = tpch_catalog();
    let engine = MatchingEngine::new(
        catalog,
        MatchConfig {
            freshness: FreshnessPolicy::StrictFresh,
            ..MatchConfig::default()
        },
    );
    let low = engine
        .add_view(ViewDef::new("low", part_range(0, 1000, true)))
        .expect("the view is valid");
    let mid = engine
        .add_view(ViewDef::new("mid", part_range(500, 2000, true)))
        .expect("the view is valid");
    let q = part_range(600, 900, false);
    let ids = |v: &[(ViewId, Verdict)]| v.iter().map(|(id, _)| *id).collect::<Vec<_>>();

    let first = verdicts_of(&engine, &q);
    assert_eq!(ids(&first), [low, mid]);
    engine.record_base_write(t.part);
    assert_eq!(verdicts_of(&engine, &q), [], "both views are stale");
    engine.mark_views_maintained(&[low]);
    assert_eq!(verdicts_of(&engine, &q), first[..1], "low is fresh again");
    engine.mark_views_maintained(&[mid]);
    assert_eq!(verdicts_of(&engine, &q), first);
    let s = engine.stats();
    assert_eq!(
        (s.cache_misses, s.cache_hits),
        (1, 3),
        "one entry served every probe"
    );
    assert_eq!(s.cache_invalidations, 0, "a write stales no entry");
}

/// A verdict hit runs no full test, so it builds no join-core state.
#[test]
fn a_verdict_hit_builds_no_core_state() {
    let engine = engine_with(MatchConfig::default());
    let (views, queries) = pools(8, 1);
    for def in views
        .iter()
        .chain(&[ViewDef::new("q0", queries[0].clone())])
    {
        engine.add_view(def.clone()).expect("pool views are valid");
    }
    let q = &queries[0];
    assert!(!verdicts_of(&engine, q).is_empty());
    let missed = engine.stats().core_states;
    assert!(missed > 0, "the miss matched candidates");
    verdicts_of(&engine, q);
    let s = engine.stats();
    assert_eq!(s.cache_hits, 1);
    assert_eq!(s.core_states, missed, "a verdict hit builds no state");
}

/// Write twice to the first table of each query, restamping after each
/// write every third view over it (ids ≡ 0, then ≡ 1 mod 3): those over
/// the table then lag 1, 0 and 2 rounds by id mod 3.
fn stale_some(engine: &MatchingEngine, queries: &[SpjgExpr]) {
    let mut tables: Vec<_> = queries.iter().map(|q| q.tables[0]).collect();
    tables.sort_unstable();
    tables.dedup();
    for table in tables {
        let over: Vec<ViewId> = engine
            .views()
            .iter()
            .filter(|(_, def)| def.expr.tables.contains(&table))
            .map(|(id, _)| id)
            .collect();
        for third in 0..2 {
            engine.record_base_write(table);
            let restamped: Vec<ViewId> = over
                .iter()
                .copied()
                .filter(|id| id.0 as usize % 3 == third)
                .collect();
            engine.mark_views_maintained(&restamped);
        }
    }
}

/// `find_substitutes` is `find_verdicts` followed by `build_substitute` of
/// each verdict's view under the same pin: the same substitutes in the
/// same order, freshness stamps included. And a `find_substitutes` call
/// moves every `MatchStats` counter exactly as that one `find_verdicts`
/// call moves it on a twin engine (timing off, so every counter is a
/// count). Each query runs cold and then warm, with the cache on (the
/// warm probe hits) and off, under `StrictFresh` and
/// `BoundedStaleness(1)` after writes that a partial restamp left some
/// views stale for, and under `StaleOk`.
#[test]
fn find_substitutes_is_find_verdicts_then_build() {
    let (mut views, queries) = pools(8, 8);
    views.extend(
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| ViewDef::new(format!("q{i}"), q.clone())),
    );
    let policies = [
        FreshnessPolicy::StrictFresh,
        FreshnessPolicy::BoundedStaleness(1),
        FreshnessPolicy::StaleOk,
    ];
    for freshness in policies {
        for capacity in [MatchConfig::default().substitute_cache_capacity, 0] {
            let config = MatchConfig {
                freshness,
                substitute_cache_capacity: capacity,
                timing: false,
                ..MatchConfig::default()
            };
            let (subs, verdicts) = (engine_with(config.clone()), engine_with(config));
            for engine in [&subs, &verdicts] {
                engine
                    .add_views(views.clone())
                    .expect("pool views are valid");
                stale_some(engine, &queries);
            }
            let mut stamps = Vec::new();
            for round in ["cold", "warm"] {
                for (i, q) in queries.iter().enumerate() {
                    let at = format!("{freshness:?}, capacity {capacity}, {round} query {i}");
                    subs.reset_stats();
                    verdicts.reset_stats();
                    let got = subs.find_substitutes(q);
                    let pin = verdicts.views();
                    let built: Vec<_> = verdicts
                        .find_verdicts(&pin, q)
                        .into_iter()
                        .map(|(id, _)| {
                            let sub = verdicts.build_substitute(&pin, q, id);
                            (id, sub.expect("a verdict's view builds under its pin"))
                        })
                        .collect();
                    assert_eq!(got, built, "{at}: substitutes");
                    assert_eq!(
                        format!("{:?}", subs.stats()),
                        format!("{:?}", verdicts.stats()),
                        "{at}: counters"
                    );
                    let hits = subs.stats().cache_hits;
                    assert_eq!(hits, u64::from(capacity > 0 && round == "warm"), "{at}");
                    stamps.extend(got.iter().map(|(_, sub)| sub.freshness));
                }
            }
            // The runs exercise what they name: some view answers, and the
            // restamps left the stamps each policy admits.
            assert!(!stamps.is_empty(), "{freshness:?}: no substitute");
            let lagging = stamps.iter().any(|f| *f != Freshness::Fresh);
            assert_eq!(
                lagging,
                freshness != FreshnessPolicy::StrictFresh,
                "{freshness:?}"
            );
        }
    }
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
