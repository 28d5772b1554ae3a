//! The harness's whole coupling to product code: every call into a layer
//! crate goes through this file, so a later API change is answered here
//! and nowhere else (README.md lists the functions).
//!
//! Errors are `.expect(..)`ed and no error type is named: ops run under
//! `catch_unwind`, so a failing call becomes a counted failed op, and a
//! later move to typed errors (ROADMAP 6d) does not break the harness.

use mv_core::{FreshnessPolicy, MatchConfig};
use mv_optimizer::OptimizerConfig;
use mv_sql::{binder, lexer, parser, Statement};
use mv_workload::{Generator, WorkloadParams};
use std::sync::Arc;
use std::time::Duration;

pub use mv_catalog::{Catalog, TableId};
pub use mv_core::MatchingEngine;
pub use mv_data::{Database, Row};
pub use mv_exec::ViewStore;
pub use mv_maintain::{Maintainer, TableDelta};
pub use mv_optimizer::Optimized;
pub use mv_plan::{PhysicalPlan, SpjgExpr, ViewDef, ViewId};

/// One planner per client over the shared engine.
pub type Planner = mv_optimizer::Optimizer<Arc<MatchingEngine>>;
/// Output of `mv-sql`'s lexer.
pub type Tokens = Vec<lexer::Spanned>;
/// Output of `mv-sql`'s parser.
pub type Ast = parser::AstStatement;

/// Base-table population of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `TpchScale::tiny()`: a few hundred rows.
    Tiny,
    /// Half of `TpchScale::small()`: about 6 k lineitems.
    HalfSmall,
}

// ---- mv-data / mv-workload / mv-plan: set-up inputs ----

pub fn generate_data(scale: Scale, seed: u64) -> Database {
    let scale = match scale {
        Scale::Tiny => mv_data::TpchScale::tiny(),
        Scale::HalfSmall => {
            let small = mv_data::TpchScale::small();
            mv_data::TpchScale {
                customers: small.customers / 2,
                suppliers: small.suppliers / 2,
                parts: small.parts / 2,
                ..small
            }
        }
    };
    mv_data::generate_tpch(&scale, seed).0
}

pub fn generate_views(catalog: &Catalog, n: usize, seed: u64) -> Vec<ViewDef> {
    Generator::new(catalog, WorkloadParams::views(), seed).views(n)
}

pub fn generate_queries(catalog: &Catalog, n: usize, seed: u64) -> Vec<SpjgExpr> {
    Generator::new(catalog, WorkloadParams::queries(), seed).queries(n)
}

pub fn render_sql(query: &SpjgExpr, catalog: &Catalog) -> String {
    mv_plan::display::sql_of(query, catalog)
}

// ---- mv-sql ----

pub fn lex(sql: &str) -> Tokens {
    lexer::tokenize(sql).expect("lexer accepts rendered SQL")
}

pub fn parse(tokens: &Tokens) -> Ast {
    parser::parse(tokens).expect("parser accepts rendered SQL")
}

pub fn bind(ast: Ast, catalog: &Catalog) -> SpjgExpr {
    match binder::bind(ast, catalog).expect("binder accepts rendered SQL") {
        Statement::Select(query) => query,
        Statement::CreateView(_) => panic!("workload SQL must be SELECT statements"),
    }
}

// ---- mv-core ----

/// A default-configured engine; `strict_fresh` is the one deviation
/// (`mixed_rw_1k`). Struct-update syntax keeps a later knob removal from
/// breaking this file.
pub fn new_engine(catalog: Catalog, strict_fresh: bool) -> Arc<MatchingEngine> {
    let config = MatchConfig {
        freshness: if strict_fresh {
            FreshnessPolicy::StrictFresh
        } else {
            FreshnessPolicy::default()
        },
        ..MatchConfig::default()
    };
    Arc::new(MatchingEngine::new(catalog, config))
}

pub fn register_views(engine: &MatchingEngine, views: Vec<ViewDef>) -> Vec<ViewId> {
    engine
        .add_views(views)
        .expect("generated views are indexable")
}

pub fn view_def(engine: &MatchingEngine, id: ViewId) -> ViewDef {
    engine.views().get(id).clone()
}

pub fn arena_bytes(engine: &MatchingEngine) -> usize {
    engine.arena_bytes()
}

/// The engine's cumulative counters, copied out so callers can subtract
/// two readings.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreCounters {
    pub invocations: u64,
    pub candidates: u64,
    pub views_available: u64,
    pub substitutes: u64,
    pub filter_time: Duration,
    pub match_time: Duration,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidations: u64,
}

impl CoreCounters {
    pub fn add(&mut self, other: &CoreCounters) {
        self.invocations += other.invocations;
        self.candidates += other.candidates;
        self.views_available += other.views_available;
        self.substitutes += other.substitutes;
        self.filter_time += other.filter_time;
        self.match_time += other.match_time;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_invalidations += other.cache_invalidations;
    }

    pub fn since(&self, earlier: &CoreCounters) -> CoreCounters {
        CoreCounters {
            invocations: self.invocations - earlier.invocations,
            candidates: self.candidates - earlier.candidates,
            views_available: self.views_available - earlier.views_available,
            substitutes: self.substitutes - earlier.substitutes,
            filter_time: self.filter_time - earlier.filter_time,
            match_time: self.match_time - earlier.match_time,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_invalidations: self.cache_invalidations - earlier.cache_invalidations,
        }
    }
}

pub fn core_counters(engine: &MatchingEngine) -> CoreCounters {
    let s = engine.stats();
    CoreCounters {
        invocations: s.invocations,
        candidates: s.candidates,
        views_available: s.views_available,
        substitutes: s.substitutes,
        filter_time: s.filter_time,
        match_time: s.match_time,
        cache_hits: s.cache_hits,
        cache_misses: s.cache_misses,
        cache_invalidations: s.cache_invalidations,
    }
}

/// The core probes: each step of `find_substitutes` on one block, timed
/// on its own by the caller. Returns what the next step consumes.
pub fn probe_summary(engine: &MatchingEngine, query: &SpjgExpr) -> mv_core::ExprSummary {
    engine.query_summary(query)
}

pub fn probe_fingerprint(query: &SpjgExpr) -> u64 {
    mv_core::fingerprint(query).hash
}

pub fn probe_candidates(
    engine: &MatchingEngine,
    query: &SpjgExpr,
    summary: &mv_core::ExprSummary,
    out: &mut Vec<ViewId>,
) {
    engine.candidates_into(query, summary, out);
}

pub fn clear_substitute_cache(engine: &MatchingEngine) {
    engine.clear_substitute_cache();
}

pub fn probe_find_substitutes(engine: &MatchingEngine, query: &SpjgExpr) -> usize {
    engine.find_substitutes(query).len()
}

// ---- mv-optimizer ----

pub fn new_planner(engine: &Arc<MatchingEngine>) -> Planner {
    let config = OptimizerConfig {
        ..OptimizerConfig::default()
    };
    Planner::new(Arc::clone(engine), config)
}

pub fn optimize(planner: &Planner, query: &SpjgExpr) -> Optimized {
    planner
        .try_optimize(query)
        .expect("optimizer plans a bound query")
}

// ---- mv-plan / mv-exec ----

pub fn uses_view(plan: &PhysicalPlan) -> bool {
    plan.uses_view()
}

pub fn views_used(plan: &PhysicalPlan) -> Vec<ViewId> {
    plan.views_used()
}

pub fn execute(db: &Database, views: &ViewStore, plan: &PhysicalPlan) -> Vec<Row> {
    mv_exec::execute_plan(db, views, plan)
}

pub fn materialize(db: &Database, view: &ViewDef) -> Vec<Row> {
    mv_exec::materialize_view(db, view)
}

/// The correctness oracle: the tree-walk interpreter over base tables,
/// which shares nothing with the optimizer's plan.
pub fn reference_rows(db: &Database, query: &SpjgExpr) -> Vec<Row> {
    mv_exec::execute_spjg(db, query)
}

pub fn rows_differ(served: &[Row], reference: &[Row]) -> Option<String> {
    mv_exec::bag_diff(served, reference)
}

// ---- mv-maintain ----

pub fn new_maintainer(db: Database) -> Maintainer {
    Maintainer::new(db)
}

/// Registers (and materializes) one view; `true` when it is maintained
/// incrementally, `false` when it falls back to recompute.
pub fn maintain_view(maintainer: &mut Maintainer, id: ViewId, def: &ViewDef) -> bool {
    maintainer.register(id, def) == mv_maintain::MaintainStrategy::Incremental
}

/// One write round; returns (views maintained in place, views marked
/// dirty).
pub fn apply_delta(
    maintainer: &mut Maintainer,
    delta: &TableDelta,
    engine: &MatchingEngine,
) -> (usize, usize) {
    let report = maintainer.apply_with_engine(delta, engine);
    assert_eq!(
        report.rows_deleted,
        delta.deletes.len(),
        "delta deletes only rows the table holds"
    );
    (report.maintained, report.marked_dirty)
}

pub fn is_dirty(maintainer: &Maintainer, id: ViewId) -> bool {
    maintainer.is_dirty(id)
}

pub fn view_contents(maintainer: &Maintainer, id: ViewId) -> &[Row] {
    maintainer
        .contents(id)
        .expect("every view is registered with the maintainer")
}

pub fn refresh_view(maintainer: &mut Maintainer, id: ViewId, engine: &MatchingEngine) {
    assert!(
        maintainer.refresh_with_engine(id, engine),
        "refreshed views are registered"
    );
}

// ---- mv-catalog ----

/// The first numeric column of `table` outside every key and foreign
/// key: changing it breaks no constraint the matcher relies on.
pub fn writable_column(catalog: &Catalog, table: TableId) -> Option<usize> {
    let def = catalog.table(table);
    (0..def.columns.len()).find(|&c| {
        let id = mv_catalog::ColumnId(c as u32);
        def.columns[c].ty.is_numeric()
            && !def.keys.iter().any(|k| k.columns.contains(&id))
            && !catalog.foreign_keys().any(|(_, fk)| {
                (fk.from_table == table && fk.from_columns.contains(&id))
                    || (fk.to_table == table && fk.to_columns.contains(&id))
            })
    })
}
