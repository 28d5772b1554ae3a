//! The index and the prepared descriptors must be invisible: under any
//! interleaving of `add_view` / `remove_view` / `find_substitutes`, the
//! engine — whose hot path runs the filter tree and the prepared matcher
//! — returns byte-identical results to a brute-force oracle that prepares
//! every live view on its own (a descriptor and a join core no engine
//! registered) and runs the full tests on it with fresh match state.

use mv_catalog::tpch::tpch_catalog;
use mv_core::{
    match_view_prepared, ExprSummary, MatchConfig, MatchingEngine, PreparedQuery, PreparedView,
};
use mv_plan::{SpjgExpr, ViewDef, ViewId};
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

fn uncached_config() -> MatchConfig {
    MatchConfig {
        substitute_cache_capacity: 0,
        ..MatchConfig::default()
    }
}

fn engine() -> MatchingEngine {
    let (catalog, _) = tpch_catalog();
    MatchingEngine::new(catalog, uncached_config())
}

/// One step of the interleaving, decoded from a `(kind, index)` pair
/// (the vendored proptest stand-in has no `prop_oneof`).
#[derive(Debug, Clone, Copy)]
enum Op {
    AddView(usize),
    RemoveView(usize),
    Find(usize),
}

fn decode(kind: usize, idx: usize) -> Op {
    match kind {
        0 => Op::AddView(idx),
        1 => Op::RemoveView(idx),
        _ => Op::Find(idx),
    }
}

/// Brute-force oracle: match every live view one at a time (no filter
/// tree, no shared core, a descriptor prepared here and fresh match state
/// per view), in ascending `ViewId` order — the order the engine reports.
fn oracle(
    catalog: &mv_catalog::Catalog,
    config: &MatchConfig,
    live: &[(ViewId, ViewDef)],
    query: &SpjgExpr,
) -> Vec<(ViewId, mv_plan::Substitute)> {
    let qsum = ExprSummary::analyze(query);
    let mut out = Vec::new();
    for (id, def) in live {
        let pq = PreparedQuery::new(query, &qsum);
        let pv = PreparedView::prepare(catalog, config, &def.expr);
        if let Some(sub) = match_view_prepared(catalog, config, &pq, *id, def, &pv) {
            out.push((*id, sub));
        }
    }
    out.sort_by_key(|(id, _)| *id);
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Apply an arbitrary op sequence; every `find_substitutes` must
    /// agree byte-for-byte with the brute-force oracle. This pins down
    /// two things at once: the filter tree loses no candidate, and the
    /// prepared matcher (shared cores and core state) produces the same
    /// substitutes as the view-at-a-time reference.
    #[test]
    fn engine_equals_bruteforce_oracle(
        ops in prop::collection::vec((0usize..3, 0usize..16), 1..40),
    ) {
        let (views, queries) = pools(16, 8);
        let (catalog, _) = tpch_catalog();
        let config = uncached_config();
        let engine = engine();
        let mut live: Vec<(ViewId, ViewDef)> = Vec::new();

        for (kind, idx) in ops {
            match decode(kind, idx) {
                Op::AddView(i) => {
                    // Re-adding a live view fails (duplicate name); the
                    // oracle only tracks successful registrations.
                    let def = views[i % views.len()].clone();
                    if let Ok(id) = engine.add_view(def.clone()) {
                        live.push((id, def));
                    }
                }
                Op::RemoveView(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (id, _) = live.remove(i % live.len());
                    prop_assert!(engine.remove_view(id));
                }
                Op::Find(i) => {
                    let q = &queries[i % queries.len()];
                    let mut got = engine.find_substitutes(q);
                    got.sort_by_key(|(id, _)| *id);
                    let want = oracle(&catalog, &config, &live, q);
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}
