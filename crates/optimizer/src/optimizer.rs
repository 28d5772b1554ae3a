//! The memo-based optimizer with the view-matching rule.

use crate::block::{BlockInfo, Subset};
use crate::cost;
use mv_catalog::TableId;
use mv_core::{MatchingEngine, PlanProbe, Verdict, ViewsGuard};
use mv_expr::{BoolExpr, ColRef, Conjunct, OccId, ScalarExpr};
use mv_plan::{
    card, AggFunc, NamedAgg, NamedExpr, OutputList, PhysicalPlan, SpjgExpr, Substitute, ViewId,
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

/// One memo group: the cheapest alternative found for a connected subset
/// (or for a union of components glued by cross joins), as its cost and
/// the choice that reaches it. No plan is built until the search is over
/// ([`Optimizer::extract`]).
struct Group {
    layout: Vec<ColRef>,
    rows: f64,
    cost: f64,
    choice: Choice,
}

/// How a group's cheapest alternative is built.
enum Choice {
    /// Scan the subset's one table, filter, project.
    Scan,
    /// Join the group of this left part with the group of the rest of the
    /// subset, and project.
    Join(Subset),
    /// The substitute the view-matching rule found this verdict for on
    /// the group's block, built only if the plan uses the group.
    Substitute(Verdict),
}

type Memo = HashMap<Subset, Group>;

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
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut rest = Vec::new();
    for i in info.newly_covered(left.occs, right.occs) {
        let conjunct = &info.expr.conjuncts[i];
        match hash_key(left.occs, conjunct) {
            Some((l, r)) => {
                left_keys.push(left.layout.pos(l)?);
                right_keys.push(right.layout.pos(r)?);
            }
            None => rest.push(conjunct.to_bool()),
        }
    }
    let layout = Layout::Join(left.occs, Box::new([left.layout, right.layout]));
    let residual: Vec<BoolExpr> = rest
        .iter()
        .map(|p| layout.pred(p))
        .collect::<Result<_, _>>()?;
    let residual = (!residual.is_empty()).then(|| BoolExpr::and(residual));
    let (left_plan, right_plan) = (Box::new(left.plan), Box::new(right.plan));
    let hashed = !left_keys.is_empty();
    let join = if hashed {
        PhysicalPlan::HashJoin {
            left: left_plan,
            right: right_plan,
            left_keys,
            right_keys,
            residual,
        }
    } else {
        PhysicalPlan::NestedLoopJoin {
            left: left_plan,
            right: right_plan,
            predicate: residual,
        }
    };
    let cost = left.cost + right.cost + join_op_cost(hashed, left.rows, right.rows, out_rows);
    Ok((join, cost, layout))
}

/// A conjunct's columns as a hash key of a join whose left input covers
/// the occurrences `left`: an equality of a left and a right column,
/// given as (left, right).
fn hash_key(left: Subset, conjunct: &Conjunct) -> Option<(ColRef, ColRef)> {
    let on_left = |c: &ColRef| left & (1 << c.occ.0) != 0;
    match conjunct {
        Conjunct::ColumnEq(x, y) if on_left(x) != on_left(y) => {
            Some(if on_left(x) { (*x, *y) } else { (*y, *x) })
        }
        _ => None,
    }
}

/// The cost of a join operator: a hash join when it has a key, a nested
/// loop otherwise.
fn join_op_cost(hashed: bool, left_rows: f64, right_rows: f64, out_rows: f64) -> f64 {
    if hashed {
        cost::hash_join(left_rows, right_rows, out_rows)
    } else {
        cost::nested_loop(left_rows, right_rows)
    }
}

/// What [`build_join`] returns as the cost of joining the groups of `a`
/// and `b` into `out_rows` rows, to the bit, without building the join:
/// both inputs' costs plus the operator's.
fn join_cost(info: &BlockInfo, memo: &Memo, a: Subset, b: Subset, out_rows: f64) -> f64 {
    let (left, right) = (&memo[&a], &memo[&b]);
    let hashed = info
        .newly_covered(a, b)
        .any(|i| hash_key(a, &info.expr.conjuncts[i]).is_some());
    left.cost + right.cost + join_op_cost(hashed, left.rows, right.rows, out_rows)
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
    let tables = info.members(s).map(|o| info.expr.table_of(o)).collect();
    let conjuncts: Vec<Conjunct> = info
        .covered(s)
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
fn glue_components(info: &BlockInfo, memo: &mut Memo, stats: &mut OptimizerStats) -> Subset {
    if memo.contains_key(&info.all) {
        return info.all;
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
        let rows = memo[&acc].rows * memo[&c].rows;
        let group = Group {
            layout: info.required_columns(combined),
            rows,
            cost: join_cost(info, memo, acc, c, rows),
            choice: Choice::Join(acc),
        };
        stats.alternatives += 1;
        memo.insert(combined, group);
        acc = combined;
    }
    acc
}

/// The registered views as one `try_optimize` call sees them: one
/// snapshot, pinned once. The plan cache is probed under it, the
/// view-matching rule finds its verdicts under it, and the substitutes of
/// the verdicts the plan keeps are built under it, so every verdict's view
/// is there to build and to cost.
struct PinnedViews<'e> {
    engine: &'e MatchingEngine,
    views: ViewsGuard,
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
            #[cfg(debug_assertions)]
            fresh: false,
        }
    }

    /// The view-matching rule on `block`, as verdicts.
    fn verdicts(&self, block: &SpjgExpr) -> Vec<(ViewId, Verdict)> {
        #[cfg(debug_assertions)]
        if self.fresh {
            return self.engine.fresh_verdicts(&self.views, block);
        }
        self.engine.find_verdicts(&self.views, block)
    }

    /// The substitute the rule found `verdict` for on `block`.
    fn build(&self, block: &SpjgExpr, verdict: &Verdict) -> Result<Substitute, PlanInvariant> {
        self.engine
            .build_substitute(&self.views, block, verdict.view)
            .ok_or_else(|| {
                PlanInvariant::new(format!(
                    "view {:?} has a verdict but builds no substitute",
                    verdict.view
                ))
            })
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
    /// table, with more than 63 table occurrences, or that fails
    /// [`SpjgExpr::validate`] is one too.
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
        let views = PinnedViews::new(self.engine());
        let optimized = match self.engine().probe_plan(&views.views, self.tag, query) {
            PlanProbe::Hit(hit) => {
                // Debug-mode oracle: the cached plan is the one a fresh
                // search finds under the snapshot it was served at.
                #[cfg(debug_assertions)]
                {
                    let views = PinnedViews {
                        engine: views.engine,
                        views: views.views.clone(),
                        fresh: true,
                    };
                    let fresh = self.search(query, &views)?;
                    assert_eq!(
                        hit, fresh,
                        "a cached plan must be byte-identical to a fresh search"
                    );
                }
                hit
            }
            PlanProbe::Miss(ticket) => {
                // Past the probe: a malformed block is never inserted, so
                // a hit pays nothing for the check.
                query
                    .validate(self.engine().catalog())
                    .map_err(PlanInvariant::new)?;
                let optimized = self.search(query, &views)?;
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
        views: &PinnedViews<'_>,
    ) -> Result<Optimized, PlanInvariant> {
        let info = BlockInfo::new(query);
        let mut stats = OptimizerStats::default();
        let mut memo = Memo::new();

        for s in info.connected_subsets() {
            let group = self.optimize_subset(&info, s, &memo, views, &mut stats)?;
            memo.insert(s, group);
        }
        stats.groups = memo.len();

        let top = glue_components(&info, &mut memo, &mut stats);
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
    /// the substitute `verdict` stands for: scan the view, join back to
    /// base tables, apply the compensating predicates, project or
    /// re-aggregate.
    fn verdict_cost(&self, verdict: &Verdict) -> f64 {
        self.scan_cost(
            verdict.rows,
            verdict.filters,
            verdict.backjoins.iter().copied(),
            verdict.regroups,
        )
    }

    /// [`Optimizer::verdict_cost`] read off a built substitute instead:
    /// what debug builds and the tests hold every verdict's cost to, to
    /// the bit.
    #[cfg(any(debug_assertions, test))]
    fn substitute_cost(&self, views: &PinnedViews<'_>, sub: &Substitute) -> f64 {
        self.scan_cost(
            views.views.prepared(sub.view).rows,
            !sub.predicates.is_empty(),
            sub.backjoins.iter().map(|bj| bj.table),
            matches!(sub.output, OutputList::Aggregate { .. }),
        )
    }

    /// The cost of a substitute's alternative over a view of `view_rows`
    /// estimated rows from what it executes: a full scan of the view (its
    /// rows are stored unindexed, DESIGN.md §18.4), the backjoined
    /// tables, a filter when any compensating predicate is left, and a
    /// projection or a regrouping.
    fn scan_cost(
        &self,
        view_rows: f64,
        filters: bool,
        backjoins: impl Iterator<Item = TableId>,
        regroups: bool,
    ) -> f64 {
        let scanned = view_rows.max(1.0);
        let mut cost = cost::scan(scanned);
        // Base-table backjoins (section 7 extension): each one is a
        // cardinality-preserving hash join against the base table.
        for table in backjoins {
            let table_rows = self.table_rows(table);
            cost += cost::scan(table_rows) + cost::hash_join(scanned, table_rows, scanned);
        }
        if filters {
            cost += cost::filter(scanned);
        }
        cost + if regroups {
            cost::aggregate(view_rows, view_rows / 2.0)
        } else {
            cost::project(view_rows)
        }
    }

    /// The view-matching rule on `block`, applied the same way wherever a
    /// block is offered to it: match (the "No Alt" series stops there),
    /// cost every verdict (each one alternative and one substitute
    /// alternative in `stats`, at every site alike), and return the
    /// cheapest that beats `bound`, the best cost so far — the earlier on
    /// a tie. Most invocations return several verdicts and keep none, so
    /// the matcher builds no substitute: only the site that keeps a
    /// verdict, and a plan that uses it, builds its substitute
    /// ([`PinnedViews::build`]). Debug builds build every verdict's
    /// substitute and assert its cost is the verdict's, to the bit.
    fn apply_rule(
        &self,
        block: &SpjgExpr,
        mut bound: Option<f64>,
        views: &PinnedViews<'_>,
        stats: &mut OptimizerStats,
    ) -> Option<(f64, Verdict)> {
        if !self.config.use_views {
            return None;
        }
        let mut verdicts = views.verdicts(block);
        if !self.config.produce_substitutes {
            return None;
        }
        let mut best = None;
        for (i, (_, verdict)) in verdicts.iter().enumerate() {
            stats.alternatives += 1;
            stats.substitute_alternatives += 1;
            let cost = self.verdict_cost(verdict);
            #[cfg(debug_assertions)]
            {
                let built = views
                    .build(block, verdict)
                    .unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(
                    cost.to_bits(),
                    self.substitute_cost(views, &built).to_bits(),
                    "the cost of view {:?} as a verdict and as a built substitute",
                    verdict.view
                );
            }
            if bound.is_none_or(|b| cost < b) {
                bound = Some(cost);
                best = Some((cost, i));
            }
        }
        best.map(|(cost, i)| (cost, verdicts.swap_remove(i).1))
    }

    /// Optimize one connected subset: the scan or every split into two
    /// groups, plus view substitutes, cheapest wins. Every alternative is
    /// costed from the groups' costs and rows; none is built.
    fn optimize_subset(
        &self,
        info: &BlockInfo,
        s: Subset,
        memo: &Memo,
        views: &PinnedViews<'_>,
        stats: &mut OptimizerStats,
    ) -> Result<Group, PlanInvariant> {
        let (block, layout) = subset_block(info, s);
        let rows = card::estimate_spj_rows(&block, self.engine().catalog());
        let mut best: Option<(f64, Choice)> = None;
        let mut consider = |cost: f64, choice: Choice, stats: &mut OptimizerStats| {
            stats.alternatives += 1;
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, choice));
            }
        };

        if s.is_power_of_two() {
            // What `scan_plan` builds: scan, filter if any conjunct is
            // local, project.
            let table_rows = self.table_rows(info.expr.table_of(OccId(s.trailing_zeros())));
            let mut cost = cost::scan(table_rows);
            if info.covered(s).next().is_some() {
                cost += cost::filter(table_rows);
            }
            cost += cost::project(rows);
            consider(cost, Choice::Scan, stats);
        } else {
            for a in info.splits(s) {
                let cost = join_cost(info, memo, a, s & !a, rows) + cost::project(rows);
                consider(cost, Choice::Join(a), stats);
            }
        }

        let bound = best.as_ref().map(|(cost, _)| *cost);
        if let Some((cost, verdict)) = self.apply_rule(&block, bound, views, stats) {
            best = Some((cost, Choice::Substitute(verdict)));
        }

        let (cost, choice) = best.ok_or_else(|| {
            PlanInvariant::new(format!(
                "connected subset {s:#b} produced no plan alternative"
            ))
        })?;
        Ok(Group {
            layout,
            rows,
            cost,
            choice,
        })
    }

    /// The plan of the group of `s`, built top-down from the choices the
    /// search recorded; a substitute chosen for the group is built here,
    /// under the pin its verdict was found under.
    fn extract(
        &self,
        info: &BlockInfo,
        memo: &Memo,
        s: Subset,
        views: &PinnedViews<'_>,
    ) -> Result<PhysicalPlan, PlanInvariant> {
        let g = &memo[&s];
        let a = match &g.choice {
            Choice::Scan => return self.scan_plan(info, s, &g.layout),
            Choice::Substitute(verdict) => {
                let (block, _) = subset_block(info, s);
                return Ok(substitute_plan(&views.build(&block, verdict)?));
            }
            Choice::Join(a) => *a,
        };
        let (join, cost, joined) = build_join(
            info,
            self.input(info, memo, a, views)?,
            self.input(info, memo, s & !a, views)?,
            g.rows,
        )?;
        // The search costed this join without building it. A glued cross
        // join (its subset is not connected) pays no projection.
        debug_assert_eq!(
            g.cost.to_bits(),
            if info.connected(s) {
                cost + cost::project(g.rows)
            } else {
                cost
            }
            .to_bits(),
            "the cost of {s:#b} as searched and as built"
        );
        let exprs = g
            .layout
            .iter()
            .map(|&c| joined.column(c))
            .collect::<Result<_, _>>()?;
        Ok(PhysicalPlan::Project {
            input: Box::new(join),
            exprs,
        })
    }

    /// The group of `s` as the input of a join.
    fn input<'m>(
        &self,
        info: &BlockInfo,
        memo: &'m Memo,
        s: Subset,
        views: &PinnedViews<'_>,
    ) -> Result<Input<'m>, PlanInvariant> {
        let plan = self.extract(info, memo, s, views)?;
        let g = &memo[&s];
        Ok(Input {
            plan,
            rows: g.rows,
            cost: g.cost,
            occs: s,
            layout: Layout::Columns(&g.layout),
        })
    }

    /// Scan the table of the singleton `s`, apply its local conjuncts and
    /// project its required columns `layout`.
    fn scan_plan(
        &self,
        info: &BlockInfo,
        s: Subset,
        layout: &[ColRef],
    ) -> Result<PhysicalPlan, PlanInvariant> {
        let occ = OccId(s.trailing_zeros());
        let table = info.expr.table_of(occ);
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
        let local: Vec<BoolExpr> = info
            .covered(s)
            .map(|i| scan.pred(&info.expr.conjuncts[i].to_bool()))
            .collect::<Result<_, _>>()?;
        if !local.is_empty() {
            plan = PhysicalPlan::Filter {
                input: Box::new(plan),
                predicate: BoolExpr::and(local),
            };
        }
        let exprs = layout
            .iter()
            .map(|&c| scan.column(c))
            .collect::<Result<_, _>>()?;
        Ok(PhysicalPlan::Project {
            input: Box::new(plan),
            exprs,
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
        memo: &Memo,
        views: &PinnedViews<'_>,
        stats: &mut OptimizerStats,
    ) -> Result<(PhysicalPlan, f64, f64), PlanInvariant> {
        let g = &memo[&top];
        let layout = Layout::Columns(&g.layout);
        let input = Box::new(self.extract(info, memo, top, views)?);
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
        if let Some((cost, verdict)) = self.apply_rule(info.expr, Some(best_cost), views, stats) {
            best_cost = cost;
            best_plan = substitute_plan(&views.build(info.expr, &verdict)?);
        }

        // Eager pre-aggregation over each connected partition (S carries
        // the aggregates, R the rest).
        if let OutputList::Aggregate {
            group_by,
            aggregates,
        } = &info.expr.output
        {
            if info.expr.tables.len() >= 2 && top == info.all {
                for s in info.splits(info.all) {
                    let r = info.all & !s;
                    if let Some((cost, plan)) =
                        self.preagg_plan(info, s, r, memo, group_by, aggregates, rows, views, stats)
                    {
                        stats.alternatives += 1;
                        if cost < best_cost {
                            best_cost = cost;
                            best_plan = plan;
                        }
                    }
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
        memo: &Memo,
        group_by: &[NamedExpr],
        aggregates: &[NamedAgg],
        final_rows: f64,
        views: &PinnedViews<'_>,
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

        // Physical pre-aggregation over the subset's best plan, that plan
        // built only if no substitute beats it. A layout miss here (like
        // any other `None` in this function) withdraws the alternative;
        // the surviving plan is still invariant-checked in debug builds.
        let gs_layout = Layout::Columns(&gs.layout);
        let pre_group_by: Vec<ScalarExpr> = keys
            .iter()
            .map(|e| gs_layout.scalar(e).ok())
            .collect::<Option<_>>()?;
        let pre_aggregates = pre_aggs(&|a| gs_layout.scalar(a).ok())?;
        let pre_cost = gs.cost + cost::aggregate(gs.rows, pre_groups);
        let (pre_cost, pre_plan) = match self.apply_rule(&pre_block, Some(pre_cost), views, stats) {
            Some((cost, verdict)) => (
                cost,
                substitute_plan(&views.build(&pre_block, &verdict).ok()?),
            ),
            None => (
                pre_cost,
                PhysicalPlan::HashAggregate {
                    input: Box::new(self.extract(info, memo, s, views).ok()?),
                    group_by: pre_group_by,
                    aggregates: pre_aggregates,
                },
            ),
        };

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
        let right = self.input(info, memo, r, views).ok()?;
        let (join, cost, joined) = build_join(info, pre, right, join_rows).ok()?;

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

    /// A view's rows are scanned whole whatever the compensating
    /// predicates are, so an equality on its first output costs what a
    /// `<>` on its second does: only that some predicate is left counts.
    #[test]
    fn compensating_predicates_cost_one_filter_whatever_they_are() {
        let (cat, t) = tpch_catalog();
        let engine = MatchingEngine::new(cat, mv_core::MatchConfig::default());
        let part_cols = vec![
            NamedExpr::new(S::col(cr(0, 0)), "p_partkey"),
            NamedExpr::new(S::col(cr(0, 5)), "p_size"),
        ];
        let parts = SpjgExpr::spj(vec![t.part], BoolExpr::Literal(true), part_cols.clone());
        engine.add_view(ViewDef::new("parts", parts)).unwrap();
        let opt = Optimizer::new(&engine, OptimizerConfig::default());
        let views = PinnedViews::new(&engine);
        let cost = |col: u32, op: CmpOp, v: i64| {
            let query = SpjgExpr::spj(
                vec![t.part],
                BoolExpr::cmp(S::col(cr(0, col)), op, S::lit(v)),
                part_cols[..1].to_vec(),
            );
            let mut stats = OptimizerStats::default();
            let (cost, verdict) = opt.apply_rule(&query, None, &views, &mut stats).unwrap();
            assert!(verdict.filters, "{verdict:?}");
            cost.to_bits()
        };
        assert_eq!(cost(0, CmpOp::Eq, 5), cost(5, CmpOp::Ne, 3));
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

    /// Assert every verdict the rule returns on the blocks the memo offers
    /// it for `queries` costs what its built substitute costs, to the bit,
    /// and return the verdicts.
    fn assert_verdict_costs(engine: &MatchingEngine, queries: &[SpjgExpr]) -> Vec<Verdict> {
        let opt = Optimizer::new(engine, OptimizerConfig::default());
        let views = PinnedViews::new(engine);
        let mut verdicts = Vec::new();
        for query in queries {
            let info = BlockInfo::new(query);
            let subsets = info.connected_subsets().into_iter();
            let blocks = subsets.map(|s| subset_block(&info, s).0);
            for block in blocks.chain([query.clone()]) {
                for (_, verdict) in views.verdicts(&block) {
                    let built = views.build(&block, &verdict).unwrap();
                    assert_eq!(
                        opt.verdict_cost(&verdict).to_bits(),
                        opt.substitute_cost(&views, &built).to_bits(),
                        "{verdict:?}\n{built:?}"
                    );
                    verdicts.push(verdict);
                }
            }
        }
        verdicts
    }

    /// Debug builds assert a verdict's cost is its substitute's in
    /// `apply_rule`; this test also runs in release builds, where that
    /// assertion is compiled out.
    #[test]
    fn every_verdict_costs_what_its_substitute_costs() {
        // The section 5 workload of `plan_digest.rs`.
        let (catalog, t) = tpch_catalog();
        let params = mv_workload::WorkloadParams::views();
        let views = mv_workload::Generator::new(&catalog, params, 0x5EC5_0001).views(200);
        let params = mv_workload::WorkloadParams::queries();
        let queries = mv_workload::Generator::new(&catalog, params, 0x5EC5_0002).queries(60);
        let engine = MatchingEngine::new(catalog.clone(), mv_core::MatchConfig::default());
        engine.add_views(views).unwrap();
        let verdicts = assert_verdict_costs(&engine, &queries);
        assert!(verdicts.len() >= 400, "{}", verdicts.len());

        assert!(verdicts.iter().any(|v| !v.filters));

        // Its substitutes need no compensation, so these do: ranges,
        // equalities and a `<>` on view columns, backjoins and rollups.
        let config = mv_core::MatchConfig {
            allow_backjoins: true,
            ..mv_core::MatchConfig::default()
        };
        let engine = MatchingEngine::new(catalog, config);
        let part_cols = vec![
            NamedExpr::new(S::col(cr(0, 0)), "p_partkey"),
            NamedExpr::new(S::col(cr(0, 5)), "p_size"),
        ];
        let parts = SpjgExpr::spj(vec![t.part], BoolExpr::Literal(true), part_cols.clone());
        let parts = ViewDef::new("parts", parts);
        let by_size = SpjgExpr::aggregate(
            vec![t.part],
            BoolExpr::Literal(true),
            part_cols.clone(),
            vec![NamedAgg::new(AggFunc::CountStar, "n")],
        );
        let by_size = ViewDef::new("by_size", by_size);
        engine.add_views(vec![parts, by_size]).unwrap();
        let size = |op, v: i64| BoolExpr::cmp(S::col(cr(0, 5)), op, S::lit(v));
        let queries = [
            // An equality and a `<>`.
            SpjgExpr::spj(
                vec![t.part],
                BoolExpr::and(vec![
                    BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Eq, S::lit(5i64)),
                    size(CmpOp::Ne, 3),
                ]),
                part_cols[..1].to_vec(),
            ),
            // A range, and a column the view lacks.
            SpjgExpr::spj(
                vec![t.part],
                size(CmpOp::Lt, 20),
                vec![NamedExpr::new(S::col(cr(0, 7)), "p_retailprice")],
            ),
            // A rollup by size.
            SpjgExpr::aggregate(
                vec![t.part],
                size(CmpOp::Ge, 10),
                part_cols[1..].to_vec(),
                vec![NamedAgg::new(AggFunc::CountStar, "n")],
            ),
        ];
        let verdicts = assert_verdict_costs(&engine, &queries);
        assert!(verdicts.iter().any(|v| v.filters));
        assert!(verdicts.iter().any(|v| v.backjoins == [t.part]));
        assert!(verdicts.iter().any(|v| v.regroups));
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
            let views = PinnedViews::new(&engine);
            let mut stats = OptimizerStats::default();
            let mut memo = HashMap::new();
            for s in info.connected_subsets() {
                let group = opt
                    .optimize_subset(&info, s, &memo, &views, &mut stats)
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
                    &info, s, r, &memo, group_by, aggregates, final_rows, &views, &mut stats,
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
