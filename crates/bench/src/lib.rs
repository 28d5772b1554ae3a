//! Shared benchmark infrastructure: the section 5 workload setup and the
//! optimization-pass measurement behind the `figures` binary.

use mv_core::{MatchConfig, MatchingEngine};
use mv_data::{generate_tpch, TpchScale};
use mv_optimizer::{Optimizer, OptimizerConfig};
use mv_plan::{SpjgExpr, ViewDef};
use mv_workload::{Generator, WorkloadParams};
use std::time::{Duration, Instant};

/// Seeds used throughout so every figure is reproducible.
pub const VIEW_SEED: u64 = 0x5EED_0001;
/// Seed for query generation ("with a different seed", section 5).
pub const QUERY_SEED: u64 = 0x5EED_0002;
/// Seed for the statistics population.
pub const DATA_SEED: u64 = 0x5EED_0003;

/// A prepared workload: catalog with statistics, views, queries.
pub struct Workload {
    /// Catalog with collected statistics.
    pub catalog: mv_catalog::Catalog,
    /// Generated views (the experiments slice prefixes of this).
    pub views: Vec<ViewDef>,
    /// Generated queries.
    pub queries: Vec<SpjgExpr>,
}

/// Build the section 5 workload: TPC-H statistics, `n_views` random views,
/// `n_queries` random queries.
pub fn build_workload(n_views: usize, n_queries: usize) -> Workload {
    let (db, _) = generate_tpch(&TpchScale::small(), DATA_SEED);
    let catalog = db.catalog;
    let views = Generator::new(&catalog, WorkloadParams::views(), VIEW_SEED).views(n_views);
    let queries =
        Generator::new(&catalog, WorkloadParams::queries(), QUERY_SEED).queries(n_queries);
    Workload {
        catalog,
        views,
        queries,
    }
}

/// Build a matching engine over the first `n` views of the workload.
/// Registers them as one bulk batch: one snapshot build and one
/// publication, so even 100k-view engines construct in O(n).
pub fn engine_with(workload: &Workload, n: usize, config: MatchConfig) -> MatchingEngine {
    let engine = MatchingEngine::new(workload.catalog.clone(), config);
    engine
        .add_views(workload.views.iter().take(n).cloned().collect())
        .expect("generated views are valid");
    engine
}

/// One measured optimization pass over all queries.
#[derive(Debug, Clone)]
pub struct PassResult {
    /// Wall-clock time for optimizing every query.
    pub total_time: Duration,
    /// Time spent inside the view-matching rule (filtering + checking +
    /// substitute construction), from the engine's instrumentation.
    pub matching_time: Duration,
    /// Matching-rule invocations.
    pub invocations: u64,
    /// Candidate views examined after filtering.
    pub candidates: u64,
    /// Views registered × invocations (candidate-fraction denominator).
    pub views_available: u64,
    /// Substitutes produced by the rule.
    pub substitutes: u64,
    /// Queries whose final plan scans at least one materialized view.
    pub plans_using_views: usize,
}

/// Optimize every query once and collect the measurements.
pub fn run_pass(
    workload: &Workload,
    engine: &MatchingEngine,
    opt_config: &OptimizerConfig,
) -> PassResult {
    engine.reset_stats();
    let optimizer = Optimizer::new(engine, opt_config.clone());
    let mut plans_using_views = 0usize;
    let started = Instant::now();
    for q in &workload.queries {
        let optimized = optimizer.optimize(q);
        if optimized.plan.uses_view() {
            plans_using_views += 1;
        }
    }
    let total_time = started.elapsed();
    let stats = engine.stats();
    PassResult {
        total_time,
        matching_time: stats.match_time,
        invocations: stats.invocations,
        candidates: stats.candidates,
        views_available: stats.views_available,
        substitutes: stats.substitutes,
        plans_using_views,
    }
}

/// The four optimizer configurations of Figure 2.
pub fn figure2_configs() -> Vec<(&'static str, MatchConfig, OptimizerConfig)> {
    let filter_on = MatchConfig::default();
    let filter_off = MatchConfig {
        use_filter_tree: false,
        ..MatchConfig::default()
    };
    let alt = OptimizerConfig::default();
    let no_alt = OptimizerConfig {
        produce_substitutes: false,
        ..OptimizerConfig::default()
    };
    vec![
        ("Alt & Filter", filter_on.clone(), alt.clone()),
        ("NoAlt & Filter", filter_on, no_alt.clone()),
        ("Alt & NoFilter", filter_off.clone(), alt),
        ("NoAlt & NoFilter", filter_off, no_alt),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_and_pass_smoke() {
        let w = build_workload(30, 10);
        assert_eq!(w.views.len(), 30);
        assert_eq!(w.queries.len(), 10);
        let engine = engine_with(&w, 30, MatchConfig::default());
        let pass = run_pass(&w, &engine, &OptimizerConfig::default());
        assert!(pass.invocations >= 10, "rule fired per query at least once");
        assert!(pass.total_time >= pass.matching_time || pass.matching_time.as_micros() == 0);
    }

    #[test]
    fn figure2_has_four_series() {
        let configs = figure2_configs();
        assert_eq!(configs.len(), 4);
        assert!(!configs[2].1.use_filter_tree);
        assert!(!configs[1].2.produce_substitutes);
    }
}
