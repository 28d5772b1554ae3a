//! The memo-based optimizer with the view-matching rule.

use crate::block::{BlockInfo, Subset};
use crate::cost::CostModel;
use mv_core::{MatchingEngine, PlanProbe, ViewsGuard};
use mv_expr::{BoolExpr, ColRef, Conjunct, OccId, ScalarExpr};
use mv_plan::{
    card, AggFunc, NamedAgg, NamedExpr, OutputList, PhysicalPlan, SpjgExpr, Substitute, ViewDef,
    ViewId,
};
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Optimizer settings. The combinations of `use_views` and
/// `produce_substitutes` reproduce the four series of the paper's Figure 2:
/// baseline (views off), Alt (views on), and NoAlt (matching runs, but "the
/// view-matching algorithm performed its normal analysis but always
/// returned without producing substitutes").
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Invoke the view-matching rule at all.
    pub use_views: bool,
    /// Turn the matches into plan alternatives. With this off the matcher
    /// still does its full analysis per invocation (the "No Alt" series).
    pub produce_substitutes: bool,
    /// Generate eager pre-aggregation alternatives (Example 4).
    pub enable_preaggregation: bool,
    /// Cost constants.
    pub cost: CostModel,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            use_views: true,
            produce_substitutes: true,
            enable_preaggregation: true,
            cost: CostModel::default(),
        }
    }
}

/// Counters describing the search that chose a plan. A plan served from
/// the plan cache replays the counters of the search that found it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptimizerStats {
    /// Memo groups created (connected subsets).
    pub groups: usize,
    /// Physical alternatives considered.
    pub alternatives: usize,
    /// Substitute alternatives considered.
    pub substitute_alternatives: usize,
}

/// A violated optimizer invariant — the typed form of what used to be a
/// panic deep inside plan construction, named after the `mv-verify`
/// analyzer rule that covers the same condition.
#[derive(Debug, Clone)]
pub struct PlanInvariant {
    /// Analyzer rule code (MV017, plan-invariant).
    pub rule: &'static str,
    /// Description of the violation.
    pub detail: String,
}

impl PlanInvariant {
    fn new(detail: String) -> Self {
        PlanInvariant {
            rule: "MV017",
            detail,
        }
    }
}

impl fmt::Display for PlanInvariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] plan invariant violated: {}",
            self.rule, self.detail
        )
    }
}

impl std::error::Error for PlanInvariant {}

/// The result of optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimized {
    /// The winning physical plan.
    pub plan: PhysicalPlan,
    /// Its estimated cost.
    pub cost: f64,
    /// Estimated output rows.
    pub rows: f64,
    /// Search counters.
    pub stats: OptimizerStats,
}

/// One memo group: the best known plan for a connected subset.
struct Group {
    layout: Vec<ColRef>,
    rows: f64,
    cost: f64,
    plan: PhysicalPlan,
}

/// The registered views as one `try_optimize` call sees them: pinned once
/// instead of once per costed substitute, each view's row estimate
/// computed once however many substitutes scan it. The pin is also the
/// snapshot the plan cache is probed under.
struct PinnedViews<'e> {
    engine: &'e MatchingEngine,
    views: ViewsGuard,
    rows: HashMap<ViewId, f64>,
    /// Run the rule past the substitute cache and the counters, against
    /// the pin: the search a debug build re-runs on a plan-cache hit.
    #[cfg(debug_assertions)]
    fresh: bool,
}

impl<'e> PinnedViews<'e> {
    fn new(engine: &'e MatchingEngine) -> Self {
        PinnedViews {
            engine,
            views: engine.views(),
            rows: HashMap::new(),
            #[cfg(debug_assertions)]
            fresh: false,
        }
    }

    /// The view-matching rule on `block`.
    fn substitutes(&self, block: &SpjgExpr) -> Vec<(ViewId, Substitute)> {
        #[cfg(debug_assertions)]
        if self.fresh {
            return self.engine.fresh_substitutes(&self.views, block);
        }
        self.engine.find_substitutes(block)
    }

    /// Definition and estimated rows of a view a substitute scans.
    fn get(&mut self, id: ViewId) -> (&ViewDef, f64) {
        // The match that produced the substitute pinned its own snapshot,
        // which may be later than this one. A definition never changes
        // under its id, so pinning again is invisible to the costs.
        if id.0 as usize >= self.views.len() {
            self.views = self.engine.views();
        }
        let view = self.views.get(id);
        let rows = *self
            .rows
            .entry(id)
            .or_insert_with(|| card::estimate_rows(&view.expr, self.engine.catalog()));
        (view, rows)
    }
}

/// The optimizer. Holds the matching engine (and through it the catalog
/// and the registered views) behind any [`Borrow`] — a plain `&engine`
/// for single-threaded use, or an `Arc<MatchingEngine>` so concurrent
/// optimizer instances on different threads share one engine (and one
/// filter tree) without cloning it.
pub struct Optimizer<E: Borrow<MatchingEngine>> {
    engine: E,
    config: OptimizerConfig,
    /// [`config_tag`] of `config`, the plan cache's key next to the block.
    tag: u64,
}

/// A hash of everything in `config` that can change the plan of a block.
/// Optimizers with different configurations share an engine, and with it
/// the plan cache, without being served each other's plans.
fn config_tag(config: &OptimizerConfig) -> u64 {
    // Destructured, so a new field cannot be left out of the tag.
    let OptimizerConfig {
        use_views,
        produce_substitutes,
        enable_preaggregation,
        cost,
    } = config;
    let CostModel {
        scan_row,
        filter_row,
        hash_build_row,
        hash_probe_row,
        nl_pair,
        agg_row,
        project_row,
    } = cost;
    let mut hasher = DefaultHasher::new();
    (use_views, produce_substitutes, enable_preaggregation).hash(&mut hasher);
    for c in [
        scan_row,
        filter_row,
        hash_build_row,
        hash_probe_row,
        nl_pair,
        agg_row,
        project_row,
    ] {
        c.to_bits().hash(&mut hasher);
    }
    hasher.finish()
}

/// How constrained is a view output position by the compensating
/// predicates: 2 = equality, 1 = range bound, 0 = unconstrained.
fn constraint_strength(predicates: &[BoolExpr], pos: usize) -> u8 {
    let mut strength = 0;
    for p in predicates {
        if let BoolExpr::Compare { op, left, right } = p {
            let col_const = match (left.as_column(), right.as_column()) {
                (Some(c), None) if right.is_constant() => Some(c),
                (None, Some(c)) if left.is_constant() => Some(c),
                _ => None,
            };
            if col_const.map(|c| c.col.0 as usize) == Some(pos) {
                strength = strength.max(match op {
                    mv_expr::CmpOp::Eq => 2,
                    mv_expr::CmpOp::Ne => 0,
                    _ => 1,
                });
            }
        }
    }
    strength
}

/// Fraction of the view the best available index lets us scan, given the
/// compensating predicates. A matched equality prefix column shrinks the
/// scan 20x, a matched leading range bound 3x (coarse, selectivity-free
/// index-seek modeling; 1.0 = full scan).
fn index_seek_factor(view: &mv_plan::ViewDef, predicates: &[BoolExpr]) -> f64 {
    if predicates.is_empty() {
        return 1.0;
    }
    let mut best: f64 = 1.0;
    let indexes = std::iter::once(&view.key).chain(view.secondary_indexes.iter());
    for index in indexes {
        let mut factor = 1.0;
        for &pos in index {
            match constraint_strength(predicates, pos) {
                2 => factor *= 0.05,
                1 => {
                    factor *= 0.33;
                    break; // a range bound ends the usable prefix
                }
                _ => break,
            }
        }
        best = best.min(factor);
    }
    best
}

/// Position of a column in a layout.
fn pos_in(layout: &[ColRef], c: ColRef) -> Result<usize, PlanInvariant> {
    layout
        .binary_search(&c)
        .map_err(|_| PlanInvariant::new(format!("column {c} missing from layout {layout:?}")))
}

/// Rewrite an expression's columns to positions in `layout` (occ 0).
fn scalar_to_layout(e: &ScalarExpr, layout: &[ColRef]) -> Result<ScalarExpr, PlanInvariant> {
    let mut missing = None;
    e.try_map_columns(&mut |c| match layout.binary_search(&c) {
        Ok(p) => Some(ColRef::new(0, p as u32)),
        Err(_) => {
            missing = Some(c);
            None
        }
    })
    .ok_or_else(|| {
        PlanInvariant::new(format!(
            "column {} missing from layout {layout:?}",
            missing.expect("recorded on failure")
        ))
    })
}

fn bool_to_layout(e: &BoolExpr, layout: &[ColRef]) -> Result<BoolExpr, PlanInvariant> {
    let mut missing = None;
    e.try_map_columns(&mut |c| match layout.binary_search(&c) {
        Ok(p) => Some(ColRef::new(0, p as u32)),
        Err(_) => {
            missing = Some(c);
            None
        }
    })
    .ok_or_else(|| {
        PlanInvariant::new(format!(
            "column {} missing from layout {layout:?}",
            missing.expect("recorded on failure")
        ))
    })
}

/// The physical alternative for a substitute: scan the view, join back
/// to base tables (section 7 extension), apply the compensating
/// predicates, project or re-aggregate.
fn substitute_plan(sub: &Substitute) -> PhysicalPlan {
    let mut plan = PhysicalPlan::ViewScan { view: sub.view };
    for bj in &sub.backjoins {
        plan = PhysicalPlan::HashJoin {
            left: Box::new(plan),
            right: Box::new(PhysicalPlan::TableScan { table: bj.table }),
            left_keys: bj.key.iter().map(|(p, _)| *p).collect(),
            right_keys: bj.key.iter().map(|(_, c)| c.0 as usize).collect(),
            residual: None,
        };
    }
    if !sub.predicates.is_empty() {
        plan = PhysicalPlan::Filter {
            input: Box::new(plan),
            predicate: BoolExpr::and(sub.predicates.clone()),
        };
    }
    match &sub.output {
        OutputList::Spj(items) => PhysicalPlan::Project {
            input: Box::new(plan),
            exprs: items.iter().map(|ne| ne.expr.clone()).collect(),
        },
        OutputList::Aggregate {
            group_by,
            aggregates,
        } => PhysicalPlan::HashAggregate {
            input: Box::new(plan),
            group_by: group_by.iter().map(|ne| ne.expr.clone()).collect(),
            aggregates: aggregates.iter().map(|na| na.func.clone()).collect(),
        },
    }
}

impl<E: Borrow<MatchingEngine>> Optimizer<E> {
    /// Create an optimizer over an engine (`&MatchingEngine`,
    /// `Arc<MatchingEngine>`, or anything else that borrows one).
    pub fn new(engine: E, config: OptimizerConfig) -> Self {
        let tag = config_tag(&config);
        Optimizer {
            engine,
            config,
            tag,
        }
    }

    /// The shared matching engine.
    fn engine(&self) -> &MatchingEngine {
        self.engine.borrow()
    }

    /// Optimize one SPJG block into a physical plan. Panics on a violated
    /// internal invariant; use [`Optimizer::try_optimize`] to handle those
    /// as typed [`PlanInvariant`] errors instead.
    pub fn optimize(&self, query: &SpjgExpr) -> Optimized {
        self.try_optimize(query).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Optimize one SPJG block into a physical plan, reporting violated
    /// internal invariants (a column missing from a derived layout, a
    /// subset with no plan) as [`PlanInvariant`] errors.
    ///
    /// A block this configuration planned before, under epochs of its
    /// tables that have not moved since, is served from the engine's plan
    /// cache without a search (DESIGN.md §11.4); its `stats` are those of
    /// the search that found it.
    pub fn try_optimize(&self, query: &SpjgExpr) -> Result<Optimized, PlanInvariant> {
        if query.tables.is_empty() {
            return Err(PlanInvariant::new(
                "queries must reference at least one table".to_string(),
            ));
        }
        let mut views = PinnedViews::new(self.engine());
        let optimized = match self.engine().probe_plan(&views.views, self.tag, query) {
            PlanProbe::Hit(hit) => {
                // Debug-mode oracle: the cached plan is the one a fresh
                // search finds under the snapshot it was served at.
                #[cfg(debug_assertions)]
                {
                    views.fresh = true;
                    let fresh = self.search(query, &mut views)?;
                    assert_eq!(
                        hit, fresh,
                        "a cached plan must be byte-identical to a fresh search"
                    );
                }
                hit
            }
            PlanProbe::Miss(ticket) => {
                let optimized = self.search(query, &mut views)?;
                self.engine().insert_plan(ticket, query, optimized.clone());
                optimized
            }
        };
        // Debug-mode oracle: the independent plan analyzer re-checks every
        // column reference, join key, and aggregate argument of the winning
        // plan against its input arities. Compiled out of release builds.
        #[cfg(debug_assertions)]
        {
            // Pinned afresh: the winning plan may scan a view registered
            // after `views` was pinned.
            let diags = mv_verify::verify_plan(
                self.engine().catalog(),
                &self.engine().views(),
                &optimized.plan,
            );
            assert!(
                diags.is_empty(),
                "mv-verify rejected the optimized plan:\n{}",
                diags
                    .iter()
                    .map(|d| d.to_json())
                    .collect::<Vec<_>>()
                    .join("\n"),
            );
        }
        Ok(optimized)
    }

    /// The search behind [`Optimizer::try_optimize`]: every connected
    /// subset, cheapest first, with the view-matching rule on each, then
    /// the components glued and the final projection or aggregation.
    fn search(
        &self,
        query: &SpjgExpr,
        views: &mut PinnedViews<'_>,
    ) -> Result<Optimized, PlanInvariant> {
        let info = BlockInfo::new(query);
        let mut stats = OptimizerStats::default();
        let mut memo: HashMap<Subset, Group> = HashMap::new();

        for s in info.connected_subsets() {
            let group = self.optimize_subset(&info, s, &memo, views, &mut stats)?;
            memo.insert(s, group);
        }
        stats.groups = memo.len();

        // Disconnected queries (cross products) are glued together with
        // nested-loop joins over the connected components.
        let top = self.glue_components(&info, &mut memo, &mut stats)?;

        let optimized = if query.is_aggregate() {
            self.finish_aggregate(&info, top, &memo, views, &mut stats)?
        } else {
            self.finish_spj(&info, top, &memo, views, &mut stats)?
        };
        Ok(Optimized { stats, ..optimized })
    }

    /// Ensure a group exists covering all occurrences; returns its subset
    /// key. For connected queries this is a no-op.
    fn glue_components(
        &self,
        info: &BlockInfo,
        memo: &mut HashMap<Subset, Group>,
        stats: &mut OptimizerStats,
    ) -> Result<Subset, PlanInvariant> {
        if memo.contains_key(&info.all) {
            return Ok(info.all);
        }
        // Combine the maximal connected components with cross joins.
        let mut components: Vec<Subset> = memo.keys().copied().collect();
        components.retain(|&s| !memo.keys().any(|&o| o != s && o & s == s));
        // Ties by subset, not by the memo's hash order: the same block
        // must get the same plan every time (a cached plan is asserted
        // equal to a fresh search's).
        components.sort_by(|a, b| {
            memo[a]
                .rows
                .partial_cmp(&memo[b].rows)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        let mut acc = components[0];
        for &c in &components[1..] {
            if acc & c != 0 {
                continue;
            }
            let combined = acc | c;
            let layout = info.required_columns(combined);
            let (a, b) = (&memo[&acc], &memo[&c]);
            let rows = a.rows * b.rows;
            let mut exprs = Vec::with_capacity(layout.len());
            for &col in &layout {
                let pos = if a.layout.contains(&col) {
                    pos_in(&a.layout, col)?
                } else {
                    a.layout.len() + pos_in(&b.layout, col)?
                };
                exprs.push(ScalarExpr::Column(ColRef::new(0, pos as u32)));
            }
            let plan = PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::NestedLoopJoin {
                    left: Box::new(a.plan.clone()),
                    right: Box::new(b.plan.clone()),
                    predicate: None,
                }),
                exprs,
            };
            let cost = a.cost + b.cost + self.config.cost.nested_loop(a.rows, b.rows);
            stats.alternatives += 1;
            memo.insert(
                combined,
                Group {
                    layout,
                    rows,
                    cost,
                    plan,
                },
            );
            acc = combined;
        }
        Ok(acc)
    }

    /// The SPJ block for a subset: its tables (occurrences reindexed
    /// densely), the conjuncts it covers, and the required columns as
    /// outputs. This is the expression on which the view-matching rule is
    /// invoked.
    fn subset_block(&self, info: &BlockInfo, s: Subset) -> (SpjgExpr, Vec<ColRef>) {
        let members = info.members(s);
        let occ_new: HashMap<OccId, OccId> = members
            .iter()
            .enumerate()
            .map(|(i, &o)| (o, OccId(i as u32)))
            .collect();
        let remap = |c: ColRef| ColRef {
            occ: occ_new[&c.occ],
            col: c.col,
        };
        let tables = members.iter().map(|&o| info.expr.table_of(o)).collect();
        let conjuncts: Vec<Conjunct> = info
            .covered(s)
            .into_iter()
            .map(|i| {
                info.expr.conjuncts[i]
                    .try_map_columns(&mut |c| Some(remap(c)))
                    .expect("infallible remap")
            })
            .collect();
        let layout = info.required_columns(s);
        let outputs = layout
            .iter()
            .enumerate()
            .map(|(i, &c)| NamedExpr::new(ScalarExpr::Column(remap(c)), format!("c{i}")))
            .collect();
        (
            SpjgExpr {
                tables,
                conjuncts,
                output: OutputList::Spj(outputs),
            },
            layout,
        )
    }

    /// Cost of the physical alternative [`substitute_plan`] builds for
    /// `sub`: scan the view, apply the compensating predicates, project or
    /// re-aggregate.
    fn substitute_cost(&self, views: &mut PinnedViews<'_>, sub: &Substitute) -> f64 {
        let (view, view_rows) = views.get(sub.view);
        // Index-aware scan costing: "any secondary indexes defined on a
        // materialized view will be considered automatically in the same
        // way as for base tables" (section 2). When the compensating
        // predicates constrain a prefix of the clustered key or of a
        // secondary index, the scan is costed as an index seek.
        let seek_factor = index_seek_factor(view, &sub.predicates);
        let scanned = (view_rows * seek_factor).max(1.0);
        let mut cost = self.config.cost.scan(scanned);
        // Base-table backjoins (section 7 extension): each one is a
        // cardinality-preserving hash join against the base table.
        for bj in &sub.backjoins {
            let table_rows = self
                .engine()
                .catalog()
                .stats(bj.table)
                .map(|st| st.rows as f64)
                .unwrap_or(card::DEFAULT_TABLE_ROWS);
            cost += self.config.cost.scan(table_rows)
                + self.config.cost.hash_join(scanned, table_rows, scanned);
        }
        if !sub.predicates.is_empty() {
            cost += self.config.cost.filter(scanned);
        }
        cost + match &sub.output {
            OutputList::Spj(_) => self.config.cost.project(view_rows),
            OutputList::Aggregate { .. } => self.config.cost.aggregate(view_rows, view_rows / 2.0),
        }
    }

    /// Cost every substitute of one rule invocation (each counted in
    /// `stats`) and return the one to build a plan for: the cheapest that
    /// beats `bound`, the group's best cost so far — the earlier on a tie.
    /// Most invocations return several substitutes and keep none, so only
    /// the winner is ever turned into a plan.
    fn cheapest_substitute<'s>(
        &self,
        views: &mut PinnedViews<'_>,
        subs: &'s [(ViewId, Substitute)],
        mut bound: Option<f64>,
        stats: &mut OptimizerStats,
    ) -> Option<(f64, &'s Substitute)> {
        let mut best = None;
        for (_, sub) in subs {
            stats.substitute_alternatives += 1;
            let cost = self.substitute_cost(views, sub);
            if bound.is_none_or(|b| cost < b) {
                bound = Some(cost);
                best = Some((cost, sub));
            }
        }
        best
    }

    /// Optimize one connected subset: scans and joins plus view
    /// substitutes, cheapest wins.
    fn optimize_subset(
        &self,
        info: &BlockInfo,
        s: Subset,
        memo: &HashMap<Subset, Group>,
        views: &mut PinnedViews<'_>,
        stats: &mut OptimizerStats,
    ) -> Result<Group, PlanInvariant> {
        let (block, layout) = self.subset_block(info, s);
        let rows = card::estimate_spj_rows(&block, self.engine().catalog());
        let mut best: Option<(f64, PhysicalPlan)> = None;
        let mut consider = |cost: f64, plan: PhysicalPlan, stats: &mut OptimizerStats| {
            stats.alternatives += 1;
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, plan));
            }
        };

        let members = info.members(s);
        if members.len() == 1 {
            let occ = members[0];
            let table = info.expr.table_of(occ);
            let table_rows = self
                .engine()
                .catalog()
                .stats(table)
                .map(|st| st.rows as f64)
                .unwrap_or(card::DEFAULT_TABLE_ROWS);
            // Scan columns are the base table's columns: a column (occ, c)
            // maps to position c.
            let scan_layout: Vec<ColRef> = (0..self.engine().catalog().table(table).columns.len())
                .map(|c| ColRef {
                    occ,
                    col: mv_catalog::ColumnId(c as u32),
                })
                .collect();
            let mut plan = PhysicalPlan::TableScan { table };
            let mut cost = self.config.cost.scan(table_rows);
            let local: Vec<BoolExpr> = info
                .covered(s)
                .into_iter()
                .map(|i| bool_to_layout(&info.expr.conjuncts[i].to_bool(), &scan_layout))
                .collect::<Result<_, _>>()?;
            if !local.is_empty() {
                plan = PhysicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: BoolExpr::and(local),
                };
                cost += self.config.cost.filter(table_rows);
            }
            let exprs = layout
                .iter()
                .map(|&c| {
                    Ok(ScalarExpr::Column(ColRef::new(
                        0,
                        pos_in(&scan_layout, c)? as u32,
                    )))
                })
                .collect::<Result<_, PlanInvariant>>()?;
            plan = PhysicalPlan::Project {
                input: Box::new(plan),
                exprs,
            };
            cost += self.config.cost.project(rows);
            consider(cost, plan, stats);
        } else {
            // Every connected (left, right) partition.
            let mut a = (s - 1) & s;
            while a > 0 {
                let b = s & !a;
                if info.connected(a) && info.connected(b) {
                    if let (Some(ga), Some(gb)) = (memo.get(&a), memo.get(&b)) {
                        let (cost, plan) = self.join_plan(info, a, b, ga, gb, &layout, rows)?;
                        consider(cost, plan, stats);
                    }
                }
                a = (a - 1) & s;
            }
        }

        // The view-matching rule.
        if self.config.use_views {
            let subs = views.substitutes(&block);
            if self.config.produce_substitutes {
                stats.alternatives += subs.len();
                let bound = best.as_ref().map(|(cost, _)| *cost);
                if let Some((cost, sub)) = self.cheapest_substitute(views, &subs, bound, stats) {
                    best = Some((cost, substitute_plan(sub)));
                }
            }
        }

        let (cost, plan) = best.ok_or_else(|| {
            PlanInvariant::new(format!(
                "connected subset {s:#b} produced no plan alternative"
            ))
        })?;
        Ok(Group {
            layout,
            rows,
            cost,
            plan,
        })
    }

    /// A join alternative for `s = a | b`.
    #[allow(clippy::too_many_arguments)]
    fn join_plan(
        &self,
        info: &BlockInfo,
        a: Subset,
        b: Subset,
        ga: &Group,
        gb: &Group,
        layout: &[ColRef],
        out_rows: f64,
    ) -> Result<(f64, PhysicalPlan), PlanInvariant> {
        // Concatenated layout position of a column.
        let concat_pos = |c: ColRef| -> Result<usize, PlanInvariant> {
            if a & (1 << c.occ.0) != 0 {
                pos_in(&ga.layout, c)
            } else {
                Ok(ga.layout.len() + pos_in(&gb.layout, c)?)
            }
        };
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        let mut residual = Vec::new();
        for i in info.newly_covered(a, b) {
            match &info.expr.conjuncts[i] {
                Conjunct::ColumnEq(x, y)
                    if (a & (1 << x.occ.0) != 0) != (a & (1 << y.occ.0) != 0) =>
                {
                    let (l, r) = if a & (1 << x.occ.0) != 0 {
                        (*x, *y)
                    } else {
                        (*y, *x)
                    };
                    left_keys.push(pos_in(&ga.layout, l)?);
                    right_keys.push(pos_in(&gb.layout, r)?);
                }
                other => {
                    let mut err = None;
                    let mapped = other
                        .to_bool()
                        .try_map_columns(&mut |c| match concat_pos(c) {
                            Ok(p) => Some(ColRef::new(0, p as u32)),
                            Err(e) => {
                                err = Some(e);
                                None
                            }
                        });
                    match mapped {
                        Some(b) => residual.push(b),
                        None => return Err(err.expect("recorded on failure")),
                    }
                }
            }
        }
        let residual = if residual.is_empty() {
            None
        } else {
            Some(BoolExpr::and(residual))
        };
        let (join, join_cost) = if left_keys.is_empty() {
            (
                PhysicalPlan::NestedLoopJoin {
                    left: Box::new(ga.plan.clone()),
                    right: Box::new(gb.plan.clone()),
                    predicate: residual,
                },
                self.config.cost.nested_loop(ga.rows, gb.rows),
            )
        } else {
            (
                PhysicalPlan::HashJoin {
                    left: Box::new(ga.plan.clone()),
                    right: Box::new(gb.plan.clone()),
                    left_keys,
                    right_keys,
                    residual,
                },
                self.config.cost.hash_join(ga.rows, gb.rows, out_rows),
            )
        };
        let exprs = layout
            .iter()
            .map(|&c| Ok(ScalarExpr::Column(ColRef::new(0, concat_pos(c)? as u32))))
            .collect::<Result<_, PlanInvariant>>()?;
        let plan = PhysicalPlan::Project {
            input: Box::new(join),
            exprs,
        };
        let cost = ga.cost + gb.cost + join_cost + self.config.cost.project(out_rows);
        Ok((cost, plan))
    }

    /// Final plan for an SPJ query: project the top group onto the query's
    /// output expressions, and consider whole-query substitutes (the rule
    /// applied to the root expression with its real output list).
    fn finish_spj(
        &self,
        info: &BlockInfo,
        top: Subset,
        memo: &HashMap<Subset, Group>,
        views: &mut PinnedViews<'_>,
        stats: &mut OptimizerStats,
    ) -> Result<Optimized, PlanInvariant> {
        let g = &memo[&top];
        let OutputList::Spj(items) = &info.expr.output else {
            unreachable!("finish_spj on aggregate")
        };
        let exprs = items
            .iter()
            .map(|ne| scalar_to_layout(&ne.expr, &g.layout))
            .collect::<Result<_, _>>()?;
        let mut best_cost = g.cost + self.config.cost.project(g.rows);
        let mut best_plan = PhysicalPlan::Project {
            input: Box::new(g.plan.clone()),
            exprs,
        };
        stats.alternatives += 1;
        if self.config.use_views {
            let subs = views.substitutes(info.expr);
            if self.config.produce_substitutes {
                if let Some((cost, sub)) =
                    self.cheapest_substitute(views, &subs, Some(best_cost), stats)
                {
                    best_cost = cost;
                    best_plan = substitute_plan(sub);
                }
            }
        }
        Ok(Optimized {
            plan: best_plan,
            cost: best_cost,
            rows: g.rows,
            stats: OptimizerStats::default(),
        })
    }

    /// Final plan for an aggregation query: plain aggregation of the top
    /// group, whole-query substitutes, and eager pre-aggregation
    /// alternatives (with the view-matching rule applied to the
    /// pre-aggregated block — the paper's Example 4).
    fn finish_aggregate(
        &self,
        info: &BlockInfo,
        top: Subset,
        memo: &HashMap<Subset, Group>,
        views: &mut PinnedViews<'_>,
        stats: &mut OptimizerStats,
    ) -> Result<Optimized, PlanInvariant> {
        let g = &memo[&top];
        let OutputList::Aggregate {
            group_by,
            aggregates,
        } = &info.expr.output
        else {
            unreachable!("finish_aggregate on SPJ")
        };
        let final_rows = card::estimate_rows(info.expr, self.engine().catalog());

        // Alternative 1: aggregate the best join plan directly.
        let gb_exprs: Vec<ScalarExpr> = group_by
            .iter()
            .map(|ne| scalar_to_layout(&ne.expr, &g.layout))
            .collect::<Result<_, _>>()?;
        let agg_funcs: Vec<AggFunc> = aggregates
            .iter()
            .map(|na| {
                Ok(match &na.func {
                    AggFunc::CountStar => AggFunc::CountStar,
                    AggFunc::Sum(e) => AggFunc::Sum(scalar_to_layout(e, &g.layout)?),
                    AggFunc::SumZero(e) => AggFunc::SumZero(scalar_to_layout(e, &g.layout)?),
                })
            })
            .collect::<Result<_, PlanInvariant>>()?;
        let mut best_cost = g.cost + self.config.cost.aggregate(g.rows, final_rows);
        let mut best_plan = PhysicalPlan::HashAggregate {
            input: Box::new(g.plan.clone()),
            group_by: gb_exprs,
            aggregates: agg_funcs,
        };
        stats.alternatives += 1;

        // Alternative 2: whole-query substitutes.
        if self.config.use_views {
            let subs = views.substitutes(info.expr);
            if self.config.produce_substitutes {
                if let Some((cost, sub)) =
                    self.cheapest_substitute(views, &subs, Some(best_cost), stats)
                {
                    best_cost = cost;
                    best_plan = substitute_plan(sub);
                }
            }
        }

        // Alternative 3: eager pre-aggregation over each connected
        // partition (S carries the aggregates, R the rest).
        if self.config.enable_preaggregation && info.expr.tables.len() >= 2 && top == info.all {
            let mut s = (info.all - 1) & info.all;
            while s > 0 {
                let r = info.all & !s;
                if info.connected(s) && info.connected(r) {
                    if let Some((cost, plan)) = self.preagg_plan(
                        info, s, r, memo, group_by, aggregates, final_rows, views, stats,
                    ) {
                        stats.alternatives += 1;
                        if cost < best_cost {
                            best_cost = cost;
                            best_plan = plan;
                        }
                    }
                }
                s = (s - 1) & info.all;
            }
        }

        Ok(Optimized {
            plan: best_plan,
            cost: best_cost,
            rows: final_rows,
            stats: OptimizerStats::default(),
        })
    }

    /// Build the eager pre-aggregation alternative for the partition
    /// `(s, r)`, if it is semantically applicable.
    #[allow(clippy::too_many_arguments)]
    fn preagg_plan(
        &self,
        info: &BlockInfo,
        s: Subset,
        r: Subset,
        memo: &HashMap<Subset, Group>,
        group_by: &[NamedExpr],
        aggregates: &[NamedAgg],
        final_rows: f64,
        views: &mut PinnedViews<'_>,
        stats: &mut OptimizerStats,
    ) -> Option<(f64, PhysicalPlan)> {
        let in_side = |cols: &[ColRef], side: Subset| {
            !cols.is_empty() && cols.iter().all(|c| side & (1 << c.occ.0) != 0)
        };
        // Every aggregate argument must live entirely in S; grouping
        // expressions must not straddle the partition.
        for na in aggregates {
            if let Some(arg) = na.func.argument() {
                if !in_side(&arg.columns(), s) {
                    return None;
                }
            }
        }
        for ne in group_by {
            let cols = ne.expr.columns();
            if !cols.is_empty() && !in_side(&cols, s) && !in_side(&cols, r) {
                return None;
            }
        }
        let gs = memo.get(&s)?;
        let gr = memo.get(&r)?;

        // The pre-aggregation grouping key: every S column needed by a
        // cross conjunct, plus the query's S-side grouping expressions.
        let join_cols: Vec<ColRef> = gs
            .layout
            .iter()
            .copied()
            .filter(|c| {
                info.expr
                    .conjuncts
                    .iter()
                    .zip(&info.conjunct_masks)
                    .any(|(conj, &m)| m & !s != 0 && conj.columns().contains(c))
            })
            .collect();
        let mut pre_gb: Vec<ScalarExpr> =
            join_cols.iter().map(|&c| ScalarExpr::Column(c)).collect();
        for ne in group_by {
            if in_side(&ne.expr.columns(), s) && !pre_gb.contains(&ne.expr) {
                pre_gb.push(ne.expr.clone());
            }
        }
        // Pre-aggregates: a count column plus one SUM per S-side argument.
        let mut pre_aggs: Vec<AggFunc> = vec![AggFunc::CountStar];
        let mut sum_of: HashMap<usize, usize> = HashMap::new(); // query agg idx -> pre agg idx
        for (i, na) in aggregates.iter().enumerate() {
            if let Some(arg) = na.func.argument() {
                sum_of.insert(i, pre_aggs.len());
                pre_aggs.push(AggFunc::Sum(arg.clone()));
            }
        }

        // The pre-aggregated block, as an SPJG expression in the subset's
        // dense occurrence space — this is what the view-matching rule is
        // invoked on.
        let (spj_block, _) = self.subset_block(info, s);
        let members = info.members(s);
        let occ_new: HashMap<OccId, OccId> = members
            .iter()
            .enumerate()
            .map(|(i, &o)| (o, OccId(i as u32)))
            .collect();
        let dense = |e: &ScalarExpr| {
            e.map_columns(&mut |c| ColRef {
                occ: occ_new[&c.occ],
                col: c.col,
            })
        };
        let pre_block = SpjgExpr {
            tables: spj_block.tables.clone(),
            conjuncts: spj_block.conjuncts.clone(),
            output: OutputList::Aggregate {
                group_by: pre_gb
                    .iter()
                    .enumerate()
                    .map(|(i, e)| NamedExpr::new(dense(e), format!("g{i}")))
                    .collect(),
                aggregates: pre_aggs
                    .iter()
                    .enumerate()
                    .map(|(i, f)| {
                        let func = match f {
                            AggFunc::CountStar => AggFunc::CountStar,
                            AggFunc::Sum(e) => AggFunc::Sum(dense(e)),
                            AggFunc::SumZero(e) => AggFunc::SumZero(dense(e)),
                        };
                        NamedAgg::new(func, format!("a{i}"))
                    })
                    .collect(),
            },
        };
        let pre_groups = card::estimate_rows(&pre_block, self.engine().catalog());

        // Physical pre-aggregation over the subset's best plan. A layout
        // miss here (like any other `None` in this function) withdraws the
        // alternative; the surviving plan is still invariant-checked in
        // debug builds.
        let pre_gb_phys: Vec<ScalarExpr> = pre_gb
            .iter()
            .map(|e| scalar_to_layout(e, &gs.layout).ok())
            .collect::<Option<_>>()?;
        let pre_agg_phys: Vec<AggFunc> = pre_aggs
            .iter()
            .map(|f| {
                Some(match f {
                    AggFunc::CountStar => AggFunc::CountStar,
                    AggFunc::Sum(e) => AggFunc::Sum(scalar_to_layout(e, &gs.layout).ok()?),
                    AggFunc::SumZero(e) => AggFunc::SumZero(scalar_to_layout(e, &gs.layout).ok()?),
                })
            })
            .collect::<Option<_>>()?;
        let mut pre_plan = PhysicalPlan::HashAggregate {
            input: Box::new(gs.plan.clone()),
            group_by: pre_gb_phys,
            aggregates: pre_agg_phys,
        };
        let mut pre_cost = gs.cost + self.config.cost.aggregate(gs.rows, pre_groups);

        // The view-matching rule on the pre-aggregated block (Example 4).
        if self.config.use_views {
            let subs = views.substitutes(&pre_block);
            if self.config.produce_substitutes {
                if let Some((cost, sub)) =
                    self.cheapest_substitute(views, &subs, Some(pre_cost), stats)
                {
                    pre_cost = cost;
                    pre_plan = substitute_plan(sub);
                }
            }
        }

        // Pre-agg output layout: pre_gb columns, then cnt, then sums.
        let cnt_pos = pre_gb.len();
        let pre_width = pre_gb.len() + pre_aggs.len();
        // Position of an S-side column in the pre-agg output (must be one
        // of the grouping expressions).
        let pre_pos = |c: ColRef| -> Option<usize> {
            pre_gb.iter().position(|e| *e == ScalarExpr::Column(c))
        };

        // Join the pre-aggregate with R on the remaining conjuncts.
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        let mut residual = Vec::new();
        for (conj, &m) in info.expr.conjuncts.iter().zip(&info.conjunct_masks) {
            if m & !s == 0 || m & !r == 0 {
                continue; // applied inside one side
            }
            match conj {
                Conjunct::ColumnEq(x, y)
                    if (s & (1 << x.occ.0) != 0) != (s & (1 << y.occ.0) != 0) =>
                {
                    let (sc, rc) = if s & (1 << x.occ.0) != 0 {
                        (*x, *y)
                    } else {
                        (*y, *x)
                    };
                    left_keys.push(pre_pos(sc)?);
                    right_keys.push(pos_in(&gr.layout, rc).ok()?);
                }
                other => {
                    let mapped = other.to_bool().try_map_columns(&mut |c| {
                        let pos = if s & (1 << c.occ.0) != 0 {
                            pre_pos(c)?
                        } else {
                            pre_width + pos_in(&gr.layout, c).ok()?
                        };
                        Some(ColRef::new(0, pos as u32))
                    })?;
                    residual.push(mapped);
                }
            }
        }
        let residual = if residual.is_empty() {
            None
        } else {
            Some(BoolExpr::and(residual))
        };
        let join_rows = (final_rows.max(1.0) * 4.0).min(pre_groups * gr.rows);
        let (join, join_cost) = if left_keys.is_empty() {
            (
                PhysicalPlan::NestedLoopJoin {
                    left: Box::new(pre_plan),
                    right: Box::new(gr.plan.clone()),
                    predicate: residual,
                },
                self.config.cost.nested_loop(pre_groups, gr.rows),
            )
        } else {
            (
                PhysicalPlan::HashJoin {
                    left: Box::new(pre_plan),
                    right: Box::new(gr.plan.clone()),
                    left_keys,
                    right_keys,
                    residual,
                },
                self.config.cost.hash_join(pre_groups, gr.rows, join_rows),
            )
        };

        // Final aggregation: group by the query's grouping expressions,
        // rolling counts and sums up through the pre-aggregate.
        let map_mixed = |e: &ScalarExpr| -> Option<ScalarExpr> {
            e.try_map_columns(&mut |c| {
                let pos = if s & (1 << c.occ.0) != 0 {
                    pre_pos(c)?
                } else {
                    pre_width + pos_in(&gr.layout, c).ok()?
                };
                Some(ColRef::new(0, pos as u32))
            })
        };
        let mut final_gb = Vec::with_capacity(group_by.len());
        for ne in group_by {
            if in_side(&ne.expr.columns(), s) {
                // Must be one of the pre-aggregation grouping expressions.
                let pos = pre_gb.iter().position(|e| *e == ne.expr)?;
                final_gb.push(ScalarExpr::Column(ColRef::new(0, pos as u32)));
            } else {
                final_gb.push(map_mixed(&ne.expr)?);
            }
        }
        let cnt_col = ScalarExpr::Column(ColRef::new(0, cnt_pos as u32));
        let mut final_aggs = Vec::with_capacity(aggregates.len());
        for (i, na) in aggregates.iter().enumerate() {
            let func = match &na.func {
                AggFunc::CountStar => AggFunc::SumZero(cnt_col.clone()),
                AggFunc::Sum(_) => {
                    let pre = pre_gb.len() + sum_of[&i];
                    AggFunc::Sum(ScalarExpr::Column(ColRef::new(0, pre as u32)))
                }
                AggFunc::SumZero(_) => {
                    let pre = pre_gb.len() + sum_of[&i];
                    AggFunc::SumZero(ScalarExpr::Column(ColRef::new(0, pre as u32)))
                }
            };
            final_aggs.push(func);
        }
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(join),
            group_by: final_gb,
            aggregates: final_aggs,
        };
        let cost =
            pre_cost + gr.cost + join_cost + self.config.cost.aggregate(join_rows, final_rows);
        Some((cost, plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_catalog::tpch::tpch_catalog;
    use mv_expr::{CmpOp, ScalarExpr as S};
    use mv_plan::{NamedExpr, ViewDef};

    fn sample_view(secondary: Option<Vec<usize>>) -> mv_plan::ViewDef {
        let (_, t) = tpch_catalog();
        let expr = SpjgExpr::spj(
            vec![t.lineitem],
            BoolExpr::Literal(true),
            vec![
                NamedExpr::new(S::col(ColRef::new(0, 0)), "l_orderkey"),
                NamedExpr::new(S::col(ColRef::new(0, 4)), "l_quantity"),
                NamedExpr::new(S::col(ColRef::new(0, 10)), "l_shipdate"),
            ],
        );
        let mut v = ViewDef::new("v", expr).with_key(vec![0]);
        if let Some(idx) = secondary {
            v = v.with_secondary_index(idx);
        }
        v
    }

    fn eq_pred(pos: u32) -> BoolExpr {
        BoolExpr::cmp(S::col(ColRef::new(0, pos)), CmpOp::Eq, S::lit(5i64))
    }

    fn range_pred(pos: u32) -> BoolExpr {
        BoolExpr::cmp(S::col(ColRef::new(0, pos)), CmpOp::Lt, S::lit(5i64))
    }

    #[test]
    fn try_optimize_rejects_empty_queries() {
        let (cat, _) = tpch_catalog();
        let engine = MatchingEngine::new(cat, mv_core::MatchConfig::default());
        let opt = Optimizer::new(&engine, OptimizerConfig::default());
        let empty = SpjgExpr::spj(vec![], BoolExpr::Literal(true), vec![]);
        let err = opt.try_optimize(&empty).unwrap_err();
        assert_eq!(err.rule, "MV017");
        assert!(err.to_string().contains("at least one table"), "{err}");
    }

    #[test]
    fn constraint_strength_classifies_predicates() {
        let preds = vec![eq_pred(0), range_pred(1)];
        assert_eq!(constraint_strength(&preds, 0), 2);
        assert_eq!(constraint_strength(&preds, 1), 1);
        assert_eq!(constraint_strength(&preds, 2), 0);
        // Column-to-column comparisons do not qualify as seek keys.
        let preds = vec![BoolExpr::col_eq(ColRef::new(0, 0), ColRef::new(0, 1))];
        assert_eq!(constraint_strength(&preds, 0), 0);
    }

    #[test]
    fn index_seek_factor_prefers_matching_indexes() {
        // Equality on the clustered key: strong seek.
        let v = sample_view(None);
        let f = index_seek_factor(&v, &[eq_pred(0)]);
        assert!(f < 0.1, "{f}");
        // Range on the key: partial seek.
        let f = index_seek_factor(&v, &[range_pred(0)]);
        assert!((0.2..=0.5).contains(&f), "{f}");
        // Predicate on a non-indexed column: full scan.
        let f = index_seek_factor(&v, &[eq_pred(1)]);
        assert_eq!(f, 1.0);
        // ... unless a secondary index covers it.
        let v = sample_view(Some(vec![1, 2]));
        let f = index_seek_factor(&v, &[eq_pred(1)]);
        assert!(f < 0.1, "{f}");
        // Multi-column prefix: eq on both columns compounds.
        let f2 = index_seek_factor(&v, &[eq_pred(1), eq_pred(2)]);
        assert!(f2 < f, "{f2} < {f}");
        // No predicates: full scan.
        assert_eq!(index_seek_factor(&v, &[]), 1.0);
    }
}
