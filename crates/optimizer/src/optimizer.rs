//! The memo-based optimizer with the view-matching rule.

use crate::block::{BlockInfo, Subset};
use crate::cost;
use mv_catalog::TableId;
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
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            use_views: true,
            produce_substitutes: true,
        }
    }
}

/// Counters describing the search that chose a plan. A plan served from
/// the plan cache replays the counters of the search that found it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptimizerStats {
    /// Memo groups created (connected subsets).
    pub groups: usize,
    /// Physical alternatives considered, every costed substitute among
    /// them.
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

impl Group {
    /// The group as the input of a join, covering the occurrences `occs`.
    fn input(&self, occs: Subset) -> Input<'_> {
        Input {
            plan: self.plan.clone(),
            rows: self.rows,
            cost: self.cost,
            occs,
            layout: Layout::Columns(&self.layout),
        }
    }
}

/// Where the columns of a plan's output sit. Every expression the search
/// puts on a plan node over its input, other than a substitute's (the
/// matcher writes those over the view), is rewritten through one of
/// these, to positions in occurrence 0.
#[derive(Debug)]
enum Layout<'a> {
    /// One column per position, sorted: a memo group's required columns,
    /// or every column of a scanned table.
    Columns(&'a [ColRef]),
    /// A pre-aggregate's output: its grouping keys, of which the bare
    /// columns can be addressed, then aggregates up to `width`.
    Keys {
        keys: &'a [ScalarExpr],
        width: usize,
    },
    /// A join's output: the left input's columns, then the right's. A
    /// column sits on the side whose occurrences (the left's are given)
    /// hold it.
    Join(Subset, Box<[Layout<'a>; 2]>),
}

impl Layout<'_> {
    fn width(&self) -> usize {
        match self {
            Layout::Columns(cols) => cols.len(),
            Layout::Keys { width, .. } => *width,
            Layout::Join(_, sides) => sides[0].width() + sides[1].width(),
        }
    }

    /// Position of a column.
    fn pos(&self, c: ColRef) -> Result<usize, PlanInvariant> {
        let pos = match self {
            Layout::Columns(cols) => cols.binary_search(&c).ok(),
            Layout::Keys { keys, .. } => keys
                .iter()
                .position(|k| matches!(k, ScalarExpr::Column(kc) if *kc == c)),
            Layout::Join(left, sides) => {
                return if left & (1 << c.occ.0) != 0 {
                    sides[0].pos(c)
                } else {
                    Ok(sides[0].width() + sides[1].pos(c)?)
                };
            }
        };
        pos.ok_or_else(|| PlanInvariant::new(format!("column {c} missing from layout {self:?}")))
    }

    /// A column, as a reference to its position.
    fn column(&self, c: ColRef) -> Result<ScalarExpr, PlanInvariant> {
        Ok(ScalarExpr::Column(ColRef::new(0, self.pos(c)? as u32)))
    }

    fn scalar(&self, e: &ScalarExpr) -> Result<ScalarExpr, PlanInvariant> {
        self.rewrite(|place| e.try_map_columns(&mut |c| place(c)))
    }

    fn pred(&self, p: &BoolExpr) -> Result<BoolExpr, PlanInvariant> {
        self.rewrite(|place| p.try_map_columns(&mut |c| place(c)))
    }

    fn agg(&self, f: &AggFunc) -> Result<AggFunc, PlanInvariant> {
        Ok(match f {
            AggFunc::CountStar => AggFunc::CountStar,
            AggFunc::Sum(e) => AggFunc::Sum(self.scalar(e)?),
            AggFunc::SumZero(e) => AggFunc::SumZero(self.scalar(e)?),
        })
    }

    /// Run a column mapping (`try_map_columns`) with every column placed
    /// at its position; the first column with none is the error.
    fn rewrite<T>(
        &self,
        map: impl FnOnce(&mut dyn FnMut(ColRef) -> Option<ColRef>) -> Option<T>,
    ) -> Result<T, PlanInvariant> {
        let mut missing = None;
        map(&mut |c| match self.pos(c) {
            Ok(p) => Some(ColRef::new(0, p as u32)),
            Err(e) => {
                missing = Some(e);
                None
            }
        })
        .ok_or_else(|| missing.expect("recorded on failure"))
    }
}

/// One input of a join: a plan with its estimates, the occurrences it
/// covers, and where its columns sit.
struct Input<'a> {
    plan: PhysicalPlan,
    rows: f64,
    cost: f64,
    occs: Subset,
    layout: Layout<'a>,
}

/// The one join builder. Joins `left` and `right` on the conjuncts of the
/// block that only their union covers: an equality between a left and a
/// right column is a hash key, any other conjunct part of the residual,
/// and with no key the join is a nested loop. `out_rows` is the join's
/// estimated output. Returns the join, its cost with its inputs', and the
/// layout of its output.
fn build_join<'a>(
    info: &BlockInfo,
    left: Input<'a>,
    right: Input<'a>,
    out_rows: f64,
) -> Result<(PhysicalPlan, f64, Layout<'a>), PlanInvariant> {
    let on_left = |c: &ColRef| left.occs & (1 << c.occ.0) != 0;
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut rest = Vec::new();
    for i in info.newly_covered(left.occs, right.occs) {
        match &info.expr.conjuncts[i] {
            Conjunct::ColumnEq(x, y) if on_left(x) != on_left(y) => {
                let (l, r) = if on_left(x) { (x, y) } else { (y, x) };
                left_keys.push(left.layout.pos(*l)?);
                right_keys.push(right.layout.pos(*r)?);
            }
            other => rest.push(other.to_bool()),
        }
    }
    let layout = Layout::Join(left.occs, Box::new([left.layout, right.layout]));
    let residual: Vec<BoolExpr> = rest
        .iter()
        .map(|p| layout.pred(p))
        .collect::<Result<_, _>>()?;
    let residual = (!residual.is_empty()).then(|| BoolExpr::and(residual));
    let (left_plan, right_plan) = (Box::new(left.plan), Box::new(right.plan));
    let (join, join_cost) = if left_keys.is_empty() {
        (
            PhysicalPlan::NestedLoopJoin {
                left: left_plan,
                right: right_plan,
                predicate: residual,
            },
            cost::nested_loop(left.rows, right.rows),
        )
    } else {
        (
            PhysicalPlan::HashJoin {
                left: left_plan,
                right: right_plan,
                left_keys,
                right_keys,
                residual,
            },
            cost::hash_join(left.rows, right.rows, out_rows),
        )
    };
    Ok((join, left.cost + right.cost + join_cost, layout))
}

/// `c` renumbered into the dense occurrence space of subset `s`, whose
/// members keep their order.
fn dense(s: Subset, c: ColRef) -> ColRef {
    ColRef {
        occ: OccId((s & ((1 << c.occ.0) - 1)).count_ones()),
        col: c.col,
    }
}

/// The SPJ block for a subset: its tables (occurrences reindexed
/// densely), the conjuncts it covers, and the required columns as
/// outputs. This is the expression on which the view-matching rule is
/// invoked.
fn subset_block(info: &BlockInfo, s: Subset) -> (SpjgExpr, Vec<ColRef>) {
    let tables = info
        .members(s)
        .iter()
        .map(|&o| info.expr.table_of(o))
        .collect();
    let conjuncts: Vec<Conjunct> = info
        .covered(s)
        .into_iter()
        .map(|i| {
            info.expr.conjuncts[i]
                .try_map_columns(&mut |c| Some(dense(s, c)))
                .expect("infallible remap")
        })
        .collect();
    let layout = info.required_columns(s);
    let outputs = layout
        .iter()
        .enumerate()
        .map(|(i, &c)| NamedExpr::new(ScalarExpr::Column(dense(s, c)), format!("c{i}")))
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

/// Ensure a group exists covering all occurrences; returns its subset
/// key. For connected queries this is a no-op; otherwise the maximal
/// connected components are glued with cross joins.
fn glue_components(
    info: &BlockInfo,
    memo: &mut HashMap<Subset, Group>,
    stats: &mut OptimizerStats,
) -> Result<Subset, PlanInvariant> {
    if memo.contains_key(&info.all) {
        return Ok(info.all);
    }
    let mut components: Vec<Subset> = memo.keys().copied().collect();
    components.retain(|&s| !memo.keys().any(|&o| o != s && o & s == s));
    // Ties by subset, not by the memo's hash order: the same block must
    // get the same plan every time (a cached plan is asserted equal to a
    // fresh search's).
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
        let group = {
            let (a, b) = (&memo[&acc], &memo[&c]);
            let layout = info.required_columns(combined);
            let rows = a.rows * b.rows;
            let (join, cost, joined) = build_join(info, a.input(acc), b.input(c), rows)?;
            let exprs = layout
                .iter()
                .map(|&col| joined.column(col))
                .collect::<Result<_, _>>()?;
            Group {
                layout,
                rows,
                cost,
                plan: PhysicalPlan::Project {
                    input: Box::new(join),
                    exprs,
                },
            }
        };
        stats.alternatives += 1;
        memo.insert(combined, group);
        acc = combined;
    }
    Ok(acc)
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
    } = config;
    let mut hasher = DefaultHasher::new();
    (use_views, produce_substitutes).hash(&mut hasher);
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
    /// subset with no plan) as [`PlanInvariant`] errors. A block with no
    /// table, or with more than 63 table occurrences, is one too.
    ///
    /// A block this configuration planned before, under a stamp that has
    /// not moved since, is served from the engine's plan cache without a
    /// search (DESIGN.md §11.4); its `stats` are those of the search that
    /// found it.
    pub fn try_optimize(&self, query: &SpjgExpr) -> Result<Optimized, PlanInvariant> {
        if query.tables.is_empty() {
            return Err(PlanInvariant::new(
                "queries must reference at least one table".to_string(),
            ));
        }
        // A subset of the block's occurrences is a bit mask, and the mask
        // of all of them needs one bit to spare.
        if query.tables.len() >= Subset::BITS as usize {
            return Err(PlanInvariant::new(format!(
                "a block of {} table occurrences is wider than the {} the optimizer plans",
                query.tables.len(),
                Subset::BITS - 1
            )));
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

        let top = glue_components(&info, &mut memo, &mut stats)?;
        let (plan, cost, rows) = self.finish(&info, top, &memo, views, &mut stats)?;
        Ok(Optimized {
            plan,
            cost,
            rows,
            stats,
        })
    }

    /// Estimated rows of a base table.
    fn table_rows(&self, table: TableId) -> f64 {
        self.engine()
            .catalog()
            .stats(table)
            .map(|st| st.rows as f64)
            .unwrap_or(card::DEFAULT_TABLE_ROWS)
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
        let mut cost = cost::scan(scanned);
        // Base-table backjoins (section 7 extension): each one is a
        // cardinality-preserving hash join against the base table.
        for bj in &sub.backjoins {
            let table_rows = self.table_rows(bj.table);
            cost += cost::scan(table_rows) + cost::hash_join(scanned, table_rows, scanned);
        }
        if !sub.predicates.is_empty() {
            cost += cost::filter(scanned);
        }
        cost + match &sub.output {
            OutputList::Spj(_) => cost::project(view_rows),
            OutputList::Aggregate { .. } => cost::aggregate(view_rows, view_rows / 2.0),
        }
    }

    /// The view-matching rule on `block`, applied the same way wherever a
    /// block is offered to it: match (the "No Alt" series stops there),
    /// cost every substitute (each one alternative and one substitute
    /// alternative in `stats`, at every site alike), and return the
    /// plan of the cheapest that beats `bound`, the best cost so far — the
    /// earlier on a tie. Most invocations return several substitutes and
    /// keep none, so only the winner is ever turned into a plan.
    fn apply_rule(
        &self,
        block: &SpjgExpr,
        mut bound: Option<f64>,
        views: &mut PinnedViews<'_>,
        stats: &mut OptimizerStats,
    ) -> Option<(f64, PhysicalPlan)> {
        if !self.config.use_views {
            return None;
        }
        let subs = views.substitutes(block);
        if !self.config.produce_substitutes {
            return None;
        }
        let mut best = None;
        for (_, sub) in &subs {
            stats.alternatives += 1;
            stats.substitute_alternatives += 1;
            let cost = self.substitute_cost(views, sub);
            if bound.is_none_or(|b| cost < b) {
                bound = Some(cost);
                best = Some((cost, sub));
            }
        }
        best.map(|(cost, sub)| (cost, substitute_plan(sub)))
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
        let (block, layout) = subset_block(info, s);
        let rows = card::estimate_spj_rows(&block, self.engine().catalog());
        let mut best: Option<(f64, PhysicalPlan)> = None;
        let mut consider = |cost: f64, plan: PhysicalPlan, stats: &mut OptimizerStats| {
            stats.alternatives += 1;
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, plan));
            }
        };

        if s.is_power_of_two() {
            let occ = OccId(s.trailing_zeros());
            let table = info.expr.table_of(occ);
            let table_rows = self.table_rows(table);
            // Scan columns are the base table's columns: a column (occ, c)
            // maps to position c.
            let scan_columns: Vec<ColRef> = (0..self.engine().catalog().table(table).columns.len())
                .map(|c| ColRef {
                    occ,
                    col: mv_catalog::ColumnId(c as u32),
                })
                .collect();
            let scan = Layout::Columns(&scan_columns);
            let mut plan = PhysicalPlan::TableScan { table };
            let mut cost = cost::scan(table_rows);
            let local: Vec<BoolExpr> = info
                .covered(s)
                .into_iter()
                .map(|i| scan.pred(&info.expr.conjuncts[i].to_bool()))
                .collect::<Result<_, _>>()?;
            if !local.is_empty() {
                plan = PhysicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: BoolExpr::and(local),
                };
                cost += cost::filter(table_rows);
            }
            let exprs = layout
                .iter()
                .map(|&c| scan.column(c))
                .collect::<Result<_, _>>()?;
            plan = PhysicalPlan::Project {
                input: Box::new(plan),
                exprs,
            };
            cost += cost::project(rows);
            consider(cost, plan, stats);
        } else {
            // Every connected (left, right) partition.
            let mut a = (s - 1) & s;
            while a > 0 {
                let b = s & !a;
                if info.connected(a) && info.connected(b) {
                    if let (Some(ga), Some(gb)) = (memo.get(&a), memo.get(&b)) {
                        let (join, cost, joined) =
                            build_join(info, ga.input(a), gb.input(b), rows)?;
                        let exprs = layout
                            .iter()
                            .map(|&c| joined.column(c))
                            .collect::<Result<_, _>>()?;
                        let plan = PhysicalPlan::Project {
                            input: Box::new(join),
                            exprs,
                        };
                        consider(cost + cost::project(rows), plan, stats);
                    }
                }
                a = (a - 1) & s;
            }
        }

        let bound = best.as_ref().map(|(cost, _)| *cost);
        if let Some(found) = self.apply_rule(&block, bound, views, stats) {
            best = Some(found);
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

    /// The final plan, its cost and its rows: the top group projected onto
    /// the query's outputs or aggregated, the rule on the whole query with
    /// its real output list, and for an aggregation the eager
    /// pre-aggregation alternatives (with the rule applied to each
    /// pre-aggregated block — the paper's Example 4).
    fn finish(
        &self,
        info: &BlockInfo,
        top: Subset,
        memo: &HashMap<Subset, Group>,
        views: &mut PinnedViews<'_>,
        stats: &mut OptimizerStats,
    ) -> Result<(PhysicalPlan, f64, f64), PlanInvariant> {
        let g = &memo[&top];
        let layout = Layout::Columns(&g.layout);
        let input = Box::new(g.plan.clone());
        let (mut best_cost, mut best_plan, rows) = match &info.expr.output {
            OutputList::Spj(items) => {
                let exprs = items
                    .iter()
                    .map(|ne| layout.scalar(&ne.expr))
                    .collect::<Result<_, _>>()?;
                let plan = PhysicalPlan::Project { input, exprs };
                (g.cost + cost::project(g.rows), plan, g.rows)
            }
            OutputList::Aggregate {
                group_by,
                aggregates,
            } => {
                let final_rows = card::estimate_rows(info.expr, self.engine().catalog());
                let plan = PhysicalPlan::HashAggregate {
                    input,
                    group_by: group_by
                        .iter()
                        .map(|ne| layout.scalar(&ne.expr))
                        .collect::<Result<_, _>>()?,
                    aggregates: aggregates
                        .iter()
                        .map(|na| layout.agg(&na.func))
                        .collect::<Result<_, _>>()?,
                };
                (
                    g.cost + cost::aggregate(g.rows, final_rows),
                    plan,
                    final_rows,
                )
            }
        };
        stats.alternatives += 1;
        if let Some((cost, plan)) = self.apply_rule(info.expr, Some(best_cost), views, stats) {
            best_cost = cost;
            best_plan = plan;
        }

        // Eager pre-aggregation over each connected partition (S carries
        // the aggregates, R the rest).
        if let OutputList::Aggregate {
            group_by,
            aggregates,
        } = &info.expr.output
        {
            if info.expr.tables.len() >= 2 && top == info.all {
                let mut s = (info.all - 1) & info.all;
                while s > 0 {
                    let r = info.all & !s;
                    if info.connected(s) && info.connected(r) {
                        if let Some((cost, plan)) = self
                            .preagg_plan(info, s, r, memo, group_by, aggregates, rows, views, stats)
                        {
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
        }
        Ok((best_plan, best_cost, rows))
    }

    /// Build the eager pre-aggregation alternative for the partition
    /// `(s, r)`, if it is semantically applicable: aggregate S (or a view
    /// the rule finds for that block), join the result with R, and roll the
    /// counts and sums up.
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
        let args: Vec<&ScalarExpr> = aggregates
            .iter()
            .filter_map(|na| na.func.argument())
            .collect();
        if !args.iter().all(|arg| in_side(&arg.columns(), s)) {
            return None;
        }
        for ne in group_by {
            let cols = ne.expr.columns();
            if !cols.is_empty() && !in_side(&cols, s) && !in_side(&cols, r) {
                return None;
            }
        }
        let gs = memo.get(&s)?;
        let gr = memo.get(&r)?;

        // The pre-aggregation grouping keys: every S column needed by a
        // cross conjunct, plus the query's S-side grouping expressions.
        let mut keys: Vec<ScalarExpr> = gs
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
            .map(ScalarExpr::Column)
            .collect();
        for ne in group_by {
            if in_side(&ne.expr.columns(), s) && !keys.contains(&ne.expr) {
                keys.push(ne.expr.clone());
            }
        }
        // Without keys the pre-aggregate is a scalar aggregate, one row
        // even over an empty S: a grouped query would get a group for
        // every row of R where it has none.
        if keys.is_empty() && !group_by.is_empty() {
            return None;
        }
        // The pre-aggregates: a count column plus one SUM per argument.
        let pre_aggs = |arg: &dyn Fn(&ScalarExpr) -> Option<ScalarExpr>| {
            std::iter::once(Some(AggFunc::CountStar))
                .chain(args.iter().map(|a| Some(AggFunc::Sum(arg(a)?))))
                .collect::<Option<Vec<_>>>()
        };

        // The pre-aggregated block, in the subset's dense occurrence space:
        // what the view-matching rule is invoked on.
        let (mut pre_block, _) = subset_block(info, s);
        let to_dense = |e: &ScalarExpr| e.map_columns(&mut |c| dense(s, c));
        pre_block.output = OutputList::Aggregate {
            group_by: keys
                .iter()
                .enumerate()
                .map(|(i, e)| NamedExpr::new(to_dense(e), format!("g{i}")))
                .collect(),
            aggregates: pre_aggs(&|a| Some(to_dense(a)))?
                .into_iter()
                .enumerate()
                .map(|(i, f)| NamedAgg::new(f, format!("a{i}")))
                .collect(),
        };
        let pre_groups = card::estimate_rows(&pre_block, self.engine().catalog());

        // Physical pre-aggregation over the subset's best plan. A layout
        // miss here (like any other `None` in this function) withdraws the
        // alternative; the surviving plan is still invariant-checked in
        // debug builds.
        let gs_layout = Layout::Columns(&gs.layout);
        let mut pre_plan = PhysicalPlan::HashAggregate {
            input: Box::new(gs.plan.clone()),
            group_by: keys
                .iter()
                .map(|e| gs_layout.scalar(e).ok())
                .collect::<Option<_>>()?,
            aggregates: pre_aggs(&|a| gs_layout.scalar(a).ok())?,
        };
        let mut pre_cost = gs.cost + cost::aggregate(gs.rows, pre_groups);
        if let Some((cost, plan)) = self.apply_rule(&pre_block, Some(pre_cost), views, stats) {
            pre_cost = cost;
            pre_plan = plan;
        }

        // Join the pre-aggregate (keys, count, sums) with R.
        let count_pos = keys.len();
        let pre = Input {
            plan: pre_plan,
            rows: pre_groups,
            cost: pre_cost,
            occs: s,
            layout: Layout::Keys {
                keys: &keys,
                width: count_pos + 1 + args.len(),
            },
        };
        let join_rows = (final_rows.max(1.0) * 4.0).min(pre_groups * gr.rows);
        let (join, cost, joined) = build_join(info, pre, gr.input(r), join_rows).ok()?;

        // Final aggregation: group by the query's grouping expressions,
        // rolling counts and sums up through the pre-aggregate.
        let column = |pos: usize| ScalarExpr::Column(ColRef::new(0, pos as u32));
        let mut final_gb = Vec::with_capacity(group_by.len());
        for ne in group_by {
            final_gb.push(if in_side(&ne.expr.columns(), s) {
                // One of the pre-aggregation keys.
                column(keys.iter().position(|e| *e == ne.expr)?)
            } else {
                joined.scalar(&ne.expr).ok()?
            });
        }
        let mut sum_pos = count_pos;
        let final_aggs = aggregates
            .iter()
            .map(|na| match &na.func {
                AggFunc::CountStar => AggFunc::SumZero(column(count_pos)),
                AggFunc::Sum(_) => {
                    sum_pos += 1;
                    AggFunc::Sum(column(sum_pos))
                }
                AggFunc::SumZero(_) => {
                    sum_pos += 1;
                    AggFunc::SumZero(column(sum_pos))
                }
            })
            .collect();
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(join),
            group_by: final_gb,
            aggregates: final_aggs,
        };
        Some((cost + cost::aggregate(join_rows, final_rows), plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_catalog::tpch::tpch_catalog;
    use mv_expr::{BinOp, CmpOp, ScalarExpr as S};
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

    fn cr(occ: u32, col: u32) -> ColRef {
        ColRef::new(occ, col)
    }

    #[test]
    fn a_root_substitute_counts_as_an_alternative() {
        // One view over part answers the query both as the memo's {part}
        // group and at the root. Four alternatives: the scan, the group's
        // substitute, the root projection and the root's substitute.
        let (cat, t) = tpch_catalog();
        let engine = MatchingEngine::new(cat, mv_core::MatchConfig::default());
        let parts = SpjgExpr::spj(
            vec![t.part],
            BoolExpr::cmp(S::col(cr(0, 5)), CmpOp::Lt, S::lit(30i64)),
            vec![
                NamedExpr::new(S::col(cr(0, 0)), "p_partkey"),
                NamedExpr::new(S::col(cr(0, 5)), "p_size"),
            ],
        );
        engine.add_view(ViewDef::new("parts", parts)).unwrap();
        let query = SpjgExpr::spj(
            vec![t.part],
            BoolExpr::cmp(S::col(cr(0, 5)), CmpOp::Lt, S::lit(20i64)),
            vec![NamedExpr::new(S::col(cr(0, 0)), "p_partkey")],
        );
        let optimized = Optimizer::new(&engine, OptimizerConfig::default()).optimize(&query);
        assert!(optimized.plan.uses_view(), "{}", optimized.plan);
        let expected = OptimizerStats {
            groups: 1,
            alternatives: 4,
            substitute_alternatives: 2,
        };
        assert_eq!(optimized.stats, expected);
    }

    fn nested_loops(plan: &PhysicalPlan) -> usize {
        let own = matches!(plan, PhysicalPlan::NestedLoopJoin { .. }) as usize;
        own + plan.children().into_iter().map(nested_loops).sum::<usize>()
    }

    #[test]
    fn every_preaggregation_alternative_returns_the_query_rows() {
        let (db, _) = mv_data::generate_tpch(&mv_data::TpchScale::tiny(), 20_260_706);
        let engine = MatchingEngine::new(db.catalog.clone(), mv_core::MatchConfig::default());
        let opt = Optimizer::new(&engine, OptimizerConfig::default());
        let (_, t) = tpch_catalog();
        let count = NamedAgg::new(AggFunc::CountStar, "n");
        let sum = |c: ColRef| NamedAgg::new(AggFunc::Sum(S::col(c)), "s");
        let group = |e: S| NamedExpr::new(e, "g");
        let lineitem_orders = BoolExpr::col_eq(cr(0, 0), cr(1, 0));
        // (case, query, what the join under the final aggregation must be)
        type Shape = fn(&PhysicalPlan) -> bool;
        let cases: [(&str, SpjgExpr, Shape); 4] = [
            (
                "equijoin cross conjunct",
                SpjgExpr::aggregate(
                    vec![t.lineitem, t.orders],
                    lineitem_orders.clone(),
                    vec![group(S::col(cr(1, 1)))],
                    vec![count.clone(), sum(cr(0, 3))],
                ),
                |join| matches!(join, PhysicalPlan::HashJoin { residual: None, .. }),
            ),
            (
                "non-equi cross conjunct",
                SpjgExpr::aggregate(
                    vec![t.lineitem, t.orders],
                    BoolExpr::and(vec![
                        lineitem_orders.clone(),
                        BoolExpr::cmp(S::col(cr(0, 3)), CmpOp::Le, S::col(cr(1, 1))),
                    ]),
                    vec![group(S::col(cr(1, 2)))],
                    vec![count.clone(), sum(cr(0, 1))],
                ),
                |join| {
                    matches!(
                        join,
                        PhysicalPlan::HashJoin {
                            residual: Some(_),
                            ..
                        }
                    )
                },
            ),
            (
                "no equijoin key",
                SpjgExpr::aggregate(
                    vec![t.nation, t.region],
                    BoolExpr::cmp(S::col(cr(0, 2)), CmpOp::Lt, S::col(cr(1, 0))),
                    vec![group(S::col(cr(1, 1)))],
                    vec![count.clone(), sum(cr(0, 0))],
                ),
                |join| {
                    matches!(
                        join,
                        PhysicalPlan::NestedLoopJoin {
                            predicate: Some(_),
                            ..
                        }
                    )
                },
            ),
            (
                "computed S-side grouping expression",
                SpjgExpr::aggregate(
                    vec![t.lineitem, t.orders],
                    lineitem_orders,
                    vec![
                        group(S::col(cr(0, 3)).binary(BinOp::Mul, S::lit(2i64))),
                        group(S::col(cr(1, 1))),
                    ],
                    vec![count, sum(cr(0, 1))],
                ),
                |join| {
                    let PhysicalPlan::HashJoin { left, .. } = join else {
                        return false;
                    };
                    let PhysicalPlan::HashAggregate { group_by, .. } = &**left else {
                        return false;
                    };
                    group_by.iter().any(|k| k.as_column().is_none())
                },
            ),
        ];
        for (case, query, shape) in cases {
            let info = BlockInfo::new(&query);
            let mut views = PinnedViews::new(&engine);
            let mut stats = OptimizerStats::default();
            let mut memo = HashMap::new();
            for s in info.connected_subsets() {
                let group = opt
                    .optimize_subset(&info, s, &memo, &mut views, &mut stats)
                    .unwrap();
                memo.insert(s, group);
            }
            let OutputList::Aggregate {
                group_by,
                aggregates,
            } = &query.output
            else {
                unreachable!("every case aggregates")
            };
            let final_rows = card::estimate_rows(&query, engine.catalog());
            let want = mv_exec::execute_spjg(&db, &query);
            assert!(!want.is_empty(), "{case}: the data must produce rows");
            let mut built = 0;
            for s in 1..info.all {
                let r = info.all & !s;
                let Some((_, plan)) = opt.preagg_plan(
                    &info, s, r, &memo, group_by, aggregates, final_rows, &mut views, &mut stats,
                ) else {
                    continue;
                };
                let got = mv_exec::execute_plan(&db, &mv_exec::ViewStore::new(), &plan);
                if let Some(diff) = mv_exec::bag_diff(&got, &want) {
                    panic!("{case}, S = {s:#b}: {diff}\nplan:\n{plan}");
                }
                let PhysicalPlan::HashAggregate { input, .. } = &plan else {
                    panic!("{case}: a pre-aggregation plan ends in its final aggregation");
                };
                assert!(shape(input), "{case}: unexpected join\n{plan}");
                built += 1;
            }
            assert!(built > 0, "{case}: no pre-aggregation alternative");
        }

        // Three connected components: {nation, region}, {supplier} and
        // {part}, glued by two cross joins.
        let glued = SpjgExpr::spj(
            vec![t.nation, t.region, t.supplier, t.part],
            BoolExpr::and(vec![
                BoolExpr::col_eq(cr(0, 2), cr(1, 0)),
                BoolExpr::cmp(S::col(cr(3, 5)), CmpOp::Lt, S::lit(10i64)),
            ]),
            vec![
                NamedExpr::new(S::col(cr(0, 1)), "n_name"),
                NamedExpr::new(S::col(cr(2, 0)), "s_suppkey"),
                NamedExpr::new(S::col(cr(3, 0)), "p_partkey"),
            ],
        );
        let plan = opt.optimize(&glued).plan;
        assert_eq!(nested_loops(&plan), 2, "{plan}");
        let got = mv_exec::execute_plan(&db, &mv_exec::ViewStore::new(), &plan);
        let want = mv_exec::execute_spjg(&db, &glued);
        assert!(!want.is_empty());
        if let Some(diff) = mv_exec::bag_diff(&got, &want) {
            panic!("glued cross product: {diff}\nplan:\n{plan}");
        }
    }
}
