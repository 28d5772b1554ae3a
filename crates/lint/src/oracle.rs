//! The checker stack for one query, as one call.
//!
//! The reproduction's central property is that a substitute (section 3),
//! and the plan that uses it, return exactly the query's rows. [`Oracle`]
//! runs every check the workspace has of it over one query: `verify_expr`
//! (MV0xx); `find_substitutes` and `verify_substitute` on each substitute;
//! with a [`ProveConfig`], `mv-prove` on each (MV3xx); and with data, each
//! substitute and the optimizer's plan executed and compared with the
//! query's rows (MV018), a violated optimizer invariant reported as MV017.
//! `mv-lint` loops it over the section 5 workload, and the workspace's
//! suites call it wherever they compare rows with `execute_spjg`.
//!
//! Equivalence is relative to the declared constraints: the database must
//! satisfy the catalog's foreign keys, or a correct rewrite that
//! eliminated an FK-extra table can differ from the query.
//!
//! Phase wall times are for the report only: mv-lint: allow(MV204)

use mv_core::MatchingEngine;
use mv_data::Database;
use mv_exec::{
    bag_diff, execute_plan, execute_spjg, execute_substitute_with, materialize_view, ViewStore,
};
use mv_optimizer::{Optimized, Optimizer, OptimizerConfig};
use mv_plan::{SpjgExpr, Substitute, ViewDef, ViewId};
use mv_prove::{pair_tables, prove, prove_diagnostics, ProveConfig, ProveCtx};
use mv_verify::{verify_expr, verify_substitute, Diagnostic, RuleId, Severity, VerifyContext};
use std::time::{Duration, Instant};

/// What queries are checked against, and what has been checked so far.
pub struct Oracle<'a> {
    /// The matcher, its catalog and its registered views.
    pub engine: &'a MatchingEngine,
    /// Base data and the registered views' rows over it. Without them
    /// nothing is executed: no MV018 check and no plan.
    pub data: Option<(&'a Database, &'a ViewStore)>,
    /// The configuration the plan is optimized under.
    pub optimizer: OptimizerConfig,
    /// Prove every substitute with `mv-prove` under this configuration.
    pub prove: Option<ProveConfig>,
    /// Substitutes executed at most, over every query checked.
    pub exec_limit: usize,
    /// Counters over every query checked.
    pub counts: Counts,
}

/// The counters of an [`Oracle`].
#[derive(Debug, Default)]
pub struct Counts {
    pub substitutes: usize,
    /// Substitutes executed and compared with the query's rows.
    pub exec_checked: usize,
    /// Plans executed and compared with the query's rows.
    pub plans_checked: usize,
    pub proved: usize,
    pub refuted: usize,
    pub inconclusive: usize,
    /// `verify_expr`, matching and `verify_substitute`.
    pub verify_time: Duration,
    /// The executed checks, the plan's search included.
    pub exec_time: Duration,
    pub prove_time: Duration,
}

/// What [`Oracle::check_query`] found.
#[derive(Debug)]
pub struct Checked {
    /// Every diagnostic, in check order.
    pub diagnostics: Vec<Diagnostic>,
    /// The matcher's substitutes for the query.
    pub substitutes: Vec<(ViewId, Substitute)>,
    /// The optimizer's plan, when there was data to run it on and the
    /// optimizer kept its invariants.
    pub plan: Option<Optimized>,
}

impl<'a> Oracle<'a> {
    /// Every check on over `db` and `store`: the default optimizer, no
    /// prover, every substitute executed.
    pub fn new(engine: &'a MatchingEngine, db: &'a Database, store: &'a ViewStore) -> Self {
        Oracle {
            engine,
            data: Some((db, store)),
            optimizer: OptimizerConfig::default(),
            prove: None,
            exec_limit: usize::MAX,
            counts: Counts::default(),
        }
    }

    /// Run the checker stack over `query`, labelling its diagnostics
    /// `label`.
    pub fn check_query(&mut self, query: &SpjgExpr, label: &str) -> Checked {
        let engine = self.engine;
        let (catalog, checks, views) =
            (engine.catalog(), engine.check_constraints(), engine.views());
        let counts = &mut self.counts;

        let start = Instant::now();
        let mut diagnostics = verify_expr(catalog, &checks, query, label);
        let ctx = VerifyContext::new(catalog, &checks);
        let substitutes = engine.find_substitutes(query);
        let mut flagged = Vec::new();
        for (id, sub) in &substitutes {
            let view = views.get(*id);
            let diags = verify_substitute(&ctx, query, &view.expr, sub, &view.name, label);
            flagged.push(diags.iter().any(|d| d.severity == Severity::Error));
            diagnostics.extend(diags);
        }
        counts.substitutes += substitutes.len();
        counts.verify_time += start.elapsed();

        if let Some(cfg) = &self.prove {
            let start = Instant::now();
            let prove_ctx = ProveCtx::new(catalog, &checks);
            for (id, sub) in &substitutes {
                let view = views.get(*id);
                let outcome = prove(&prove_ctx, query, &view.expr, sub, cfg);
                if outcome.is_proved() {
                    counts.proved += 1;
                } else if outcome.is_refuted() {
                    counts.refuted += 1;
                } else {
                    counts.inconclusive += 1;
                }
                let tables = pair_tables(query, &view.expr, sub);
                diagnostics.extend(prove_diagnostics(&outcome, &view.name, label, &tables, cfg));
            }
            counts.prove_time += start.elapsed();
        }

        let mut plan = None;
        if let Some((db, store)) = self.data {
            let start = Instant::now();
            let want = execute_spjg(db, query);
            let mismatch = |what: &str, diff: String| {
                let message = format!("{what} rows differ from query rows: {diff}");
                Diagnostic::error(RuleId::ExecMismatch, message).with_query(label)
            };
            // Statically flagged substitutes first, so an error is confirmed
            // dynamically within the limit.
            let mut order: Vec<usize> = (0..substitutes.len()).collect();
            order.sort_by_key(|&i| !flagged[i]);
            let budget = self.exec_limit.saturating_sub(counts.exec_checked);
            for (id, sub) in order.into_iter().take(budget).map(|i| &substitutes[i]) {
                counts.exec_checked += 1;
                let got = execute_substitute_with(db, store.rows(*id), sub);
                if let Some(diff) = bag_diff(&got, &want) {
                    diagnostics.push(mismatch("substitute", diff).with_view(&views.get(*id).name));
                }
            }
            match Optimizer::new(engine, self.optimizer.clone()).try_optimize(query) {
                Ok(optimized) => {
                    counts.plans_checked += 1;
                    let got = execute_plan(db, store, &optimized.plan);
                    if let Some(diff) = bag_diff(&got, &want) {
                        let plan = format!("plan:\n{}", optimized.plan);
                        diagnostics.push(mismatch("plan", diff).with_detail(plan));
                    }
                    plan = Some(optimized);
                }
                Err(e) => diagnostics
                    .push(Diagnostic::error(RuleId::PlanInvariant, e.detail).with_query(label)),
            }
            counts.exec_time += start.elapsed();
        }

        Checked {
            diagnostics,
            substitutes,
            plan,
        }
    }
}

impl Checked {
    /// Panic, listing them, on any error diagnostic; `self` otherwise.
    #[track_caller]
    pub fn assert_sound(self) -> Self {
        let errors: Vec<String> = (self.diagnostics.iter())
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.to_string())
            .collect();
        assert!(errors.is_empty(), "{}", errors.join("\n"));
        self
    }
}

/// Materialize every view registered with `engine` over `db`: the store
/// [`Oracle`] and `execute_plan` read view rows from.
pub fn materialize_views(engine: &MatchingEngine, db: &Database) -> ViewStore {
    let mut store = ViewStore::new();
    for (id, view) in engine.views().iter() {
        store.put(id, materialize_view(db, view));
    }
    store
}

/// Register `views` with `engine`, then [`materialize_views`].
pub fn register_views(engine: &MatchingEngine, db: &Database, views: Vec<ViewDef>) -> ViewStore {
    engine.add_views(views).expect("views register");
    materialize_views(engine, db)
}
