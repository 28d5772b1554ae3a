//! The view-matching tests of section 3 and substitute construction.
//!
//! Given a query SPJG block and one candidate view, [`match_view_prepared`]
//! decides whether the query can be computed from the view alone and, if
//! so, builds the [`Substitute`]; the same tests can instead yield only the
//! [`Verdict`] the optimizer costs a substitute by. The pipeline follows
//! the paper:
//!
//! 1. table correspondence (query tables ⊆ view tables, occurrence-aware),
//! 2. extra-table elimination through cardinality-preserving joins (§3.2),
//! 3. equijoin subsumption test + compensating equality predicates (§3.1.2,
//!    §3.1.3 type 1),
//! 4. range subsumption test + compensating range predicates (type 2),
//! 5. residual subsumption test + compensating residual predicates (type 3),
//! 6. output-expression mapping (§3.1.4) and aggregation handling (§3.3).
//!
//! Steps 1–3 read the view only through its [`JoinCore`] (FROM list and
//! non-trivial equivalence classes), so they are computed once per
//! distinct core per query (`CoreMatch`, kept in the [`PreparedQuery`])
//! and steps 4–6 run per view against that shared state (DESIGN.md §13.5).

use crate::descriptor::{occurrences_by_table, JoinCore, PreparedView};
use crate::fkgraph::{build_fk_graph, eliminate};
use crate::summary::{remap_col, ExprSummary};
use mv_catalog::{Catalog, TableId, Value};
use mv_expr::{
    BoolExpr, ClassIndex, CmpOp, ColRef, EquivClasses, Interval, OccId, ScalarExpr, Template,
};
use mv_plan::{
    AggFunc, BackJoin, Freshness, NamedAgg, NamedExpr, OutputList, SpjgExpr, Substitute, ViewDef,
    ViewId,
};
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// When may a view whose materialized state trails the current base data
/// substitute for a query? Enforced by `find_substitutes` against the
/// per-table *data epochs* the engine tracks (bumped by
/// [`crate::MatchingEngine::record_base_write`], restamped per view by
/// [`crate::MatchingEngine::mark_views_maintained`]); every returned
/// [`Substitute`] carries the [`Freshness`] the policy admitted it under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FreshnessPolicy {
    /// Only views whose data epochs match the current table epochs may
    /// substitute: every substitute is an exact rewrite over current data.
    StrictFresh,
    /// Views may lag the current data epochs by at most `n` write rounds
    /// (per table); `BoundedStaleness(0)` behaves like
    /// [`FreshnessPolicy::StrictFresh`].
    BoundedStaleness(u64),
    /// Any registered view may substitute regardless of staleness; the
    /// substitute still reports its actual [`Freshness`]. The default —
    /// and exactly the paper's static-catalog behavior.
    #[default]
    StaleOk,
}

impl FreshnessPolicy {
    /// Does the policy admit a view lagging the current data epochs by
    /// `lag` write rounds?
    pub fn admits(&self, lag: u64) -> bool {
        match self {
            FreshnessPolicy::StrictFresh => lag == 0,
            FreshnessPolicy::BoundedStaleness(n) => lag <= *n,
            FreshnessPolicy::StaleOk => true,
        }
    }
}

/// Tunables for the matcher and the filter tree.
#[derive(Debug, Clone)]
pub struct MatchConfig {
    /// Enable the section 3.2 extension: a *nullable* foreign-key column
    /// still supports a cardinality-preserving join when the query carries
    /// a null-rejecting predicate on that column (Example 5). The paper's
    /// prototype left this unimplemented; we provide it behind this flag.
    pub null_rejecting_fk: bool,
    /// Enable the section 4.2.2 hub refinement: tables carrying a range or
    /// residual predicate on a column outside every non-trivial equivalence
    /// class stay in the hub, strengthening the hub filter condition.
    pub refined_hubs: bool,
    /// Use the filter tree to narrow candidates (section 4). With this off
    /// the engine checks every view — the "No Filter" series of Figure 2.
    pub use_filter_tree: bool,
    /// Enable base-table backjoins (the section 7 extension): when a view
    /// covers all tables and rows but lacks some columns, and it outputs a
    /// non-null unique key of one of its tables, the matcher may join the
    /// view back to that base table to pull the missing columns in.
    pub allow_backjoins: bool,
    /// Keep the paper's conservative output/grouping-expression filter
    /// conditions (sections 4.2.7/4.2.8), which "ignore the possibility of
    /// computing an expression from scratch using plain columns": a query
    /// whose complex output expression could only be *recomputed* from a
    /// view's simple columns is filtered out before the full tests run,
    /// exactly as in the SQL Server prototype. Disable to drop those two
    /// conditions (weaker pruning, never misses a recomputable rewrite).
    pub strict_expression_filter: bool,
    /// Capacity (entries) of the block-keyed substitute cache on
    /// [`crate::MatchingEngine::find_verdicts`]: an entry holds the
    /// verdicts of the views that passed the full tests, so a repeated
    /// query block skips the filter tree and every failing candidate; a
    /// hit serves the verdicts the current freshness admits.
    /// `find_substitutes` goes through the same cache and builds the
    /// substitutes of the verdicts it returns. `0` disables the cache.
    /// Entries are invalidated lazily, per table, on view
    /// registration/removal and check constraints (never on base-table
    /// writes); a full stripe evicts the entry cheapest to recompute. The
    /// cache stripes itself over one mutex per 128 entries of capacity,
    /// at most 8. The engine's plan cache
    /// ([`crate::MatchingEngine::probe_plan`]) holds a sixteenth of this
    /// many whole-query plans, so `0` disables both.
    pub substitute_cache_capacity: usize,
    /// Record wall-clock filter/match durations in [`crate::MatchStats`].
    /// With this off, `find_verdicts` performs zero clock reads — on
    /// the cached hot path the only work left is hashing the block and a
    /// shard probe.
    pub timing: bool,
    /// Database budget for the debug-build bounded-equivalence oracle:
    /// when nonzero (and `debug_assertions` are on), every substitute
    /// `find_substitutes` produces, and every one built one view at a time
    /// (`build_substitute`: the optimizer builds the substitute of each
    /// verdict it costs), is additionally run through the
    /// `mv-prove` bounded model checker (DESIGN.md §15) at bound k = 2,
    /// visiting at most this many enumerated databases per pair, and any
    /// refutation (MV301/MV302) panics with the rendered witness. `0`
    /// disables the oracle; release builds never prove. Since the
    /// compiled-program prover (DESIGN.md §16) the oracle is cheap enough
    /// to default **on** in debug builds (2 000 databases per pair);
    /// release builds still default to `0`.
    pub prove_budget: usize,
    /// Freshness policy for substitute serving (see [`FreshnessPolicy`]):
    /// which views may substitute when base-table writes have outpaced
    /// their incremental maintenance. Defaults to
    /// [`FreshnessPolicy::StaleOk`], the static-catalog behavior.
    pub freshness: FreshnessPolicy,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            null_rejecting_fk: false,
            refined_hubs: true,
            use_filter_tree: true,
            allow_backjoins: false,
            strict_expression_filter: true,
            substitute_cache_capacity: 1024,
            timing: true,
            prove_budget: if cfg!(debug_assertions) { 2_000 } else { 0 },
            freshness: FreshnessPolicy::default(),
        }
    }
}

/// A query prepared for matching against many candidate views: the
/// expression, its predicate summary, and the occurrences grouped by base
/// table — computed once per `find_substitutes` instead of per candidate —
/// plus what the candidates matched so far have derived per join core.
/// One value serves one invocation on one thread.
pub struct PreparedQuery<'a> {
    /// The query block.
    pub expr: &'a SpjgExpr,
    /// Its predicate analysis (with check constraints folded in, when the
    /// engine has any).
    pub summary: &'a ExprSummary,
    /// Occurrences grouped by base table, sorted by table id.
    pub by_table: Vec<(TableId, Vec<OccId>)>,
    /// The summary's equivalence classes materialized once — the
    /// substitute-construction lookups probe classes per column per
    /// accepted candidate, which a per-probe scan made the hot spot.
    pub ec_index: ClassIndex,
    /// The per-core match state built so far, by the identity of the
    /// shared [`JoinCore`]. Every state holds its core, so no address is
    /// reused while its entry is here.
    cores: RefCell<HashMap<*const JoinCore, Rc<CoreMatch>>>,
}

impl<'a> PreparedQuery<'a> {
    /// Prepare a query for a candidate loop.
    pub fn new(expr: &'a SpjgExpr, summary: &'a ExprSummary) -> PreparedQuery<'a> {
        PreparedQuery {
            expr,
            summary,
            by_table: occurrences_by_table(&expr.tables),
            ec_index: summary.ec.class_index(),
            cores: RefCell::new(HashMap::new()),
        }
    }

    /// How many join-core states the candidates matched so far have built.
    pub(crate) fn core_states(&self) -> usize {
        self.cores.borrow().len()
    }

    /// The match state of a join core, built by the first candidate that
    /// carries it.
    fn core(&self, core: &Arc<JoinCore>) -> Rc<CoreMatch> {
        Rc::clone(
            self.cores
                .borrow_mut()
                .entry(Arc::as_ptr(core))
                .or_insert_with(|| Rc::new(CoreMatch::new(self, core))),
        )
    }
}

/// What the optimizer costs a substitute by, without the substitute: the
/// view passed every test of section 3, and these are the inputs of its
/// physical alternative's cost. The matcher ran every compensation and
/// output mapping to get here, so the substitute builds
/// ([`crate::MatchingEngine::build_substitute`]) exactly when a verdict
/// exists, but it allocated none of the substitute's expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The view the substitute scans.
    pub view: ViewId,
    /// The view's estimated rows ([`PreparedView::rows`]).
    pub rows: f64,
    /// The base table of each backjoin, in activation order: the order
    /// of [`Substitute::backjoins`].
    pub backjoins: Vec<TableId>,
    /// Is any compensating predicate left: is [`Substitute::predicates`]
    /// non-empty?
    pub filters: bool,
    /// Does the substitute re-aggregate the view: is its output an
    /// [`OutputList::Aggregate`]?
    pub regroups: bool,
}

/// Decide whether the prepared query can be computed from the prepared
/// view and build the substitute.
pub fn match_view_prepared(
    catalog: &Catalog,
    config: &MatchConfig,
    pq: &PreparedQuery<'_>,
    view_id: ViewId,
    view: &ViewDef,
    pv: &PreparedView,
) -> Option<Substitute> {
    match_view(catalog, config, pq, view_id, view, pv)
}

/// [`match_view_prepared`], yielding the substitute or only its verdict.
pub(crate) fn match_view<Y: Assemble>(
    catalog: &Catalog,
    config: &MatchConfig,
    pq: &PreparedQuery<'_>,
    view_id: ViewId,
    view: &ViewDef,
    pv: &PreparedView,
) -> Option<Y> {
    // An SPJ query cannot be computed from an aggregation view: the view
    // is "more aggregated" (section 3.3, requirement 3).
    if !pq.expr.is_aggregate() && view.expr.is_aggregate() {
        return None;
    }

    // Everything up to the equijoin test is the core's; the first mapping
    // under which this view also passes the per-view remainder wins.
    let core = pq.core(&pv.core);
    core.mappings.iter().find_map(|m| {
        let mapped = m
            .state
            .get_or_init(|| MappedCore::build(catalog, config, pq, &pv.core, &m.assign))
            .as_ref()?;
        match_under(pq, view_id, view.expr.is_aggregate(), pv, mapped)
    })
}

/// Upper bound on occurrence bijections tried for self-join table
/// correspondence (factorial blow-up guard; the paper's workload never
/// repeats a table, so one mapping is the overwhelmingly common case).
const MAX_TABLE_MAPPINGS: usize = 64;

/// Build all injective mappings `view occurrence -> query occurrence`
/// (as `assign[view_occ] = Some(query_occ)`, `None` = extra table).
/// Both grouping lists are sorted by table id (see
/// [`occurrences_by_table`]); the caller has verified the query tables
/// are a subset of the view's. At most [`MAX_TABLE_MAPPINGS`] come back.
fn enumerate_mappings(
    n_view_occs: usize,
    q_by_table: &[(TableId, Vec<OccId>)],
    v_by_table: &[(TableId, Vec<OccId>)],
) -> Vec<Vec<Option<OccId>>> {
    // Fast path: when no shared table repeats on either side the single
    // injective mapping is forced — skip the placement product and its
    // nested allocations. This is the overwhelmingly common case (the
    // paper's workload never repeats a table).
    if q_by_table.iter().all(|(_, q)| q.len() == 1) {
        let mut m: Vec<Option<OccId>> = vec![None; n_view_occs];
        let mut forced = true;
        for (t, qoccs) in q_by_table {
            let voccs = &v_by_table[v_by_table
                .binary_search_by_key(t, |(vt, _)| *vt)
                .expect("table correspondence checked by the caller")]
            .1;
            if voccs.len() != 1 {
                forced = false;
                break;
            }
            m[voccs[0].0 as usize] = Some(qoccs[0]);
        }
        if forced {
            return vec![m];
        }
    }
    let mut result: Vec<Vec<Option<OccId>>> = vec![vec![None; n_view_occs]];
    for (t, qoccs) in q_by_table {
        let voccs = &v_by_table[v_by_table
            .binary_search_by_key(t, |(vt, _)| *vt)
            .expect("table correspondence checked by the caller")]
        .1;
        // The loop below takes placements in order until `next` is full,
        // so no base ever reaches past the first `MAX_TABLE_MAPPINGS`.
        let placements = injections(qoccs, voccs, MAX_TABLE_MAPPINGS);
        let mut next = Vec::new();
        for base in &result {
            for placement in &placements {
                if next.len() >= MAX_TABLE_MAPPINGS {
                    break;
                }
                let mut m = base.clone();
                for (q, v) in placement {
                    m[v.0 as usize] = Some(*q);
                }
                next.push(m);
            }
        }
        result = next;
    }
    result
}

/// The first `limit` injective assignments, in lexicographic order, of
/// each query occurrence to a distinct view occurrence (both of the same
/// base table). There are `|voccs|! / (|voccs| - |qoccs|)!` of them in
/// all, so the walk stops at the limit rather than materializing them.
fn injections(qoccs: &[OccId], voccs: &[OccId], limit: usize) -> Vec<Vec<(OccId, OccId)>> {
    fn rec(
        qoccs: &[OccId],
        voccs: &[OccId],
        limit: usize,
        used: &mut Vec<bool>,
        acc: &mut Vec<(OccId, OccId)>,
        out: &mut Vec<Vec<(OccId, OccId)>>,
    ) {
        if acc.len() == qoccs.len() {
            out.push(acc.clone());
            return;
        }
        let q = qoccs[acc.len()];
        for (i, &v) in voccs.iter().enumerate() {
            if out.len() >= limit {
                return;
            }
            if !used[i] {
                used[i] = true;
                acc.push((q, v));
                rec(qoccs, voccs, limit, used, acc, out);
                acc.pop();
                used[i] = false;
            }
        }
    }
    let mut out = Vec::new();
    rec(
        qoccs,
        voccs,
        limit,
        &mut vec![false; voccs.len()],
        &mut Vec::new(),
        &mut out,
    );
    out
}

/// Per-candidate accessor over the precomputed
/// [`crate::descriptor::PreparedOutputs`]: the view-space output maps of
/// the descriptor plus this match's occurrence translation and the
/// backjoins it activates. Probes arrive in query space and are
/// translated through `inv`; the maps themselves are never rebuilt —
/// building them (plus a per-accept union-find and template re-render)
/// per accepted candidate was the accept-path hot spot.
struct OutputCtx<'a> {
    pv: &'a PreparedView,
    /// View occurrence index → query-space occurrence, and its inverse
    /// (see [`MappedCore`]).
    occ_map: &'a [OccId],
    inv: &'a [u32],
    /// Backjoins actually used by this match, in activation order:
    /// (view occurrence, base position of its columns in the extended
    /// space).
    backjoin_active: RefCell<Vec<(OccId, usize)>>,
}

impl OutputCtx<'_> {
    /// Translate a query-space column into view space.
    fn to_view(&self, c: ColRef) -> ColRef {
        ColRef {
            occ: OccId(self.inv[c.occ.0 as usize]),
            col: c.col,
        }
    }

    /// Translate a view-space column into query space.
    fn to_query(&self, c: ColRef) -> ColRef {
        ColRef {
            occ: self.occ_map[c.occ.0 as usize],
            col: c.col,
        }
    }

    /// Output position of view-space column `v`, exact.
    fn vpos(&self, v: ColRef) -> Option<usize> {
        self.pv.outputs.col_position(v)
    }

    /// Position of query-space `c` rerouting through the *view's*
    /// equivalence classes; no backjoins.
    fn direct_position_v(&self, c: ColRef) -> Option<usize> {
        self.pv
            .outputs
            .direct_position_view(self.to_view(c), &self.pv.core)
    }

    /// Position of query-space `c` rerouting through the *view's*
    /// equivalence classes, backjoins allowed (the type-1 compensation
    /// routes here — section 3.1.3).
    fn find_position_v(&self, c: ColRef) -> Option<usize> {
        if let Some(p) = self.direct_position_v(c) {
            return Some(p);
        }
        if self.pv.outputs.backjoins.is_empty() {
            return None;
        }
        let v = self.to_view(c);
        let class: &[ColRef] = match self.pv.core.ec_class.get(&v) {
            Some(&i) => &self.pv.core.classes[i as usize],
            None => &[],
        };
        std::iter::once(v)
            .chain(class.iter().copied())
            .find_map(|m| self.backjoin_position(m))
    }

    /// Map a query column to an output position, rerouting through the
    /// query equivalence classes ("we exploit equalities among columns by
    /// considering each column reference to refer to the equivalence class
    /// containing the column", section 3.1.3). `ix` is `ec`'s prebuilt
    /// [`ClassIndex`].
    fn find_position(&self, c: ColRef, ec: &EquivClasses, ix: &ClassIndex) -> Option<usize> {
        if let Some(p) = self.direct_position(c, ec, ix) {
            return Some(p);
        }
        // Section 7 extension: reach the column through a backjoin.
        if self.pv.outputs.backjoins.is_empty() {
            return None;
        }
        let class = ix.members(ec.find(c)).unwrap_or(&[]);
        std::iter::once(c)
            .chain(class.iter().copied())
            .find_map(|m| self.backjoin_position(self.to_view(m)))
    }

    /// Like [`OutputCtx::find_position`] but restricted to the view's own
    /// output columns (no backjoins).
    fn direct_position(&self, c: ColRef, ec: &EquivClasses, ix: &ClassIndex) -> Option<usize> {
        if let Some(p) = self.vpos(self.to_view(c)) {
            return Some(p);
        }
        ix.members(ec.find(c))?
            .iter()
            .find_map(|m| self.vpos(self.to_view(*m)))
    }

    /// Position of view-space `v` through an active (or newly activated)
    /// backjoin.
    fn backjoin_position(&self, v: ColRef) -> Option<usize> {
        self.pv.outputs.backjoins.get(&v.occ)?;
        let mut active = self.backjoin_active.borrow_mut();
        let base = match active.iter().find(|(o, _)| *o == v.occ) {
            Some((_, base)) => *base,
            None => {
                let base = self.pv.outputs.arity
                    + active
                        .iter()
                        .map(|(o, _)| self.pv.outputs.backjoins[o].n_columns)
                        .sum::<usize>();
                active.push((v.occ, base));
                base
            }
        };
        Some(base + v.col.0 as usize)
    }
}

/// Reference to view output column `pos`.
fn out_col(pos: usize) -> ScalarExpr {
    ScalarExpr::Column(ColRef::new(0, pos as u32))
}

/// Map a scalar expression onto the view's outputs (section 3.1.4):
/// constants copy through; simple columns reroute through `ec`; complex
/// expressions first try an exact template match against a view output,
/// then recomputation from simple output columns.
fn map_scalar<Y: Assemble>(
    e: &ScalarExpr,
    ec: &EquivClasses,
    ix: &ClassIndex,
    ctx: &OutputCtx<'_>,
) -> Option<Y::Scalar> {
    if e.is_constant() {
        return Some(Y::constant(e));
    }
    if let Some(c) = e.as_column() {
        return ctx.find_position(c, ec, ix).map(Y::column);
    }
    let t = Template::of_scalar(e);
    // The stored view template is in view space; translate its columns to
    // query space on compare (template text is column-blind, so equality
    // of the rendered strings is unaffected).
    let same = |a: ColRef, b: ColRef| {
        let aq = ctx.to_query(a);
        aq == b || ec.same(aq, b)
    };
    for (vt, pos) in &ctx.pv.outputs.complex {
        if vt.matches(&t, &same) {
            return Some(Y::column(*pos));
        }
    }
    Y::recompute(e, &mut |c| ctx.find_position(c, ec, ix))
}

/// Is `c` covered by a null-rejecting predicate in the query (other than
/// an equijoin)? Used by the nullable-FK relaxation of section 3.2.
fn is_null_rejecting(qsum: &ExprSummary, c: ColRef) -> bool {
    if qsum.is_range_constrained(c) {
        return true;
    }
    let same = |x: ColRef| x == c || qsum.ec.same(x, c);
    qsum.residual_bools.iter().any(|p| match p {
        BoolExpr::Compare { .. } | BoolExpr::Like { .. } => p.columns().into_iter().any(same),
        BoolExpr::IsNull {
            negated: true,
            expr,
        } => expr.columns().into_iter().any(same),
        _ => false,
    })
}

/// What one invocation knows about one join core: the occurrence mappings
/// of the query into it, in enumeration order, each with the state derived
/// under it. A mapping's state is built by the first view that tries it —
/// a self-join core whose views all match under the first mapping never
/// pays for the others — and is `None` when the core fails §3.2 or the
/// equijoin test under that mapping, which rejects every view of the core.
/// No mappings at all: the query's tables are not a sub-multiset of the
/// core's.
struct CoreMatch {
    /// Held so that the core outlives its entry in [`PreparedQuery`].
    _core: Arc<JoinCore>,
    mappings: Vec<CoreMapping>,
}

/// One occurrence mapping of a [`CoreMatch`]: `assign[view occ]` is the
/// query occurrence (`None` = extra table), `state` what the first view
/// to try the mapping derived under it.
struct CoreMapping {
    assign: Vec<Option<OccId>>,
    state: OnceCell<Option<MappedCore>>,
}

impl CoreMatch {
    fn new(pq: &PreparedQuery<'_>, core: &Arc<JoinCore>) -> CoreMatch {
        // Table correspondence: the query's table multiset must be a subset
        // of the view's (requirement: "There is no need to consider views
        // with fewer tables than the query").
        let covered = pq.by_table.iter().all(|(t, qoccs)| {
            core.by_table
                .binary_search_by_key(t, |(vt, _)| *vt)
                .is_ok_and(|i| core.by_table[i].1.len() >= qoccs.len())
        });
        // Enumerate injective assignments of query occurrences to view
        // occurrences, per base table. With no self-joins this is a single
        // mapping. Both grouping lists are sorted by table id, so the
        // enumeration order — and therefore which of several valid mappings
        // wins — is deterministic.
        let mappings = if covered {
            enumerate_mappings(core.tables.len(), &pq.by_table, &core.by_table)
        } else {
            Vec::new()
        };
        CoreMatch {
            _core: Arc::clone(core),
            mappings: mappings
                .into_iter()
                .map(|assign| CoreMapping {
                    assign,
                    state: OnceCell::new(),
                })
                .collect(),
        }
    }
}

/// A join core under one occurrence mapping that survived extra-table
/// elimination (§3.2) and the equijoin subsumption test (§3.1.2): what the
/// per-view tests and compensations of [`match_under`] read. The parts only
/// some views reach are built by the first view that reaches them.
struct MappedCore {
    /// View occurrence → query-space occurrence; extra tables carry the
    /// fresh ids `nq, nq+1, ...`.
    occ_map: Vec<OccId>,
    /// Query-space occurrence → view occurrence index. The inverse of
    /// `occ_map`, total over query space: every query occurrence is
    /// assigned and the extras' fresh ids are contiguous behind them.
    /// Needed from substitute construction on.
    inv: OnceCell<Vec<u32>>,
    /// The range compensation's list: the genuine query ranges keyed by
    /// the roots of [`MappedCore::ec`], sorted by root.
    genuine_ranges: OnceCell<Option<Vec<(ColRef, Interval)>>>,
    /// The query's classes extended by the join conditions of the
    /// eliminated extra tables. `None` when the core brings no extra
    /// table: the query's own classes, class index and range maps then
    /// serve as they are.
    extended: Option<ExtendedClasses>,
}

/// Extended query equivalence classes (section 3.2: "we merely simulate
/// the addition of extra tables by updating query equivalence classes")
/// and the query-side maps rebased onto them.
struct ExtendedClasses {
    ec: EquivClasses,
    /// The range test's map; most candidates go no further.
    ranges: OnceCell<Option<HashMap<ColRef, Interval>>>,
    /// Substitute construction's class lookups.
    index: OnceCell<ClassIndex>,
}

impl MappedCore {
    /// Derive the core's state under `assign`, or `None` when no view of
    /// the core can match under it.
    fn build(
        catalog: &Catalog,
        config: &MatchConfig,
        pq: &PreparedQuery<'_>,
        core: &JoinCore,
        assign: &[Option<OccId>],
    ) -> Option<MappedCore> {
        let qsum = pq.summary;
        let nq = pq.expr.tables.len() as u32;

        // §3.2 early exit from the prepared core: an extra view table can
        // only be eliminated if some cardinality-preserving FK edge points
        // at it, and the core's edge set is a superset of any per-query
        // graph's. A mapping leaving an edge-less occurrence
        // unassigned can never survive elimination — reject before
        // building the graph.
        if assign
            .iter()
            .enumerate()
            .any(|(i, a)| a.is_none() && !core.fk_incoming[i])
        {
            return None;
        }

        let mut occ_map: Vec<OccId> = Vec::with_capacity(assign.len());
        let mut extras: Vec<OccId> = Vec::new();
        let mut next = nq;
        for a in assign {
            match a {
                Some(q) => occ_map.push(*q),
                None => {
                    occ_map.push(OccId(next));
                    extras.push(OccId(next));
                    next += 1;
                }
            }
        }
        let mapf = |o: OccId| occ_map[o.0 as usize];

        // Cloning the query's union-find is pure overhead when the core
        // brings no extra tables — the common case borrows it. The view's
        // classes rebased into query space (needed for the FK graph) are
        // likewise only built on this path: the occurrence substitution is
        // injective, so distinct view classes stay distinct.
        let mut extended = None;
        if !extras.is_empty() {
            let mut vec_q = EquivClasses::new();
            for class in &core.classes {
                for pair in class.windows(2) {
                    vec_q.union(remap_col(pair[0], &mapf), remap_col(pair[1], &mapf));
                }
            }
            let occs: Vec<(OccId, TableId)> = occ_map
                .iter()
                .copied()
                .zip(core.tables.iter().copied())
                .collect();
            let nullable_ok =
                |c: ColRef| config.null_rejecting_fk && c.occ.0 < nq && is_null_rejecting(qsum, c);
            let graph = build_fk_graph(catalog, &occs, &vec_q, &nullable_ok);
            let elim = eliminate(&graph, &|o| extras.contains(&o));
            if elim.remaining.iter().any(|o| extras.contains(o)) {
                return None;
            }
            // Replay the join conditions of the deleted edges into the
            // query's equivalence classes.
            let mut ec = qsum.ec.clone();
            for e in &elim.deleted_edges {
                for (f, c) in &e.col_pairs {
                    ec.union(*f, *c);
                }
            }
            extended = Some(ExtendedClasses {
                ec,
                ranges: OnceCell::new(),
                index: OnceCell::new(),
            });
        }

        // ---- Equijoin subsumption test (section 3.1.2) ----
        // Every non-trivial view equivalence class must be a subset of some
        // query equivalence class.
        let qec = extended.as_ref().map_or(&qsum.ec, |x| &x.ec);
        for class in &core.classes {
            let root = qec.find(remap_col(class[0], &mapf));
            if class[1..]
                .iter()
                .any(|&c| qec.find(remap_col(c, &mapf)) != root)
            {
                return None;
            }
        }

        Some(MappedCore {
            occ_map,
            inv: OnceCell::new(),
            genuine_ranges: OnceCell::new(),
            extended,
        })
    }

    /// The (extended) query equivalence classes.
    fn ec<'a>(&'a self, pq: &'a PreparedQuery<'_>) -> &'a EquivClasses {
        self.extended.as_ref().map_or(&pq.summary.ec, |x| &x.ec)
    }

    /// [`ClassIndex`] of [`MappedCore::ec`].
    fn index<'a>(&'a self, pq: &'a PreparedQuery<'_>) -> &'a ClassIndex {
        match &self.extended {
            None => &pq.ec_index,
            Some(x) => x.index.get_or_init(|| x.ec.class_index()),
        }
    }

    /// The query ranges keyed by the roots of [`MappedCore::ec`]. With no
    /// extra tables the rebase is the identity — the summary keys its
    /// range maps by canonical class roots of the query's own classes.
    /// `None`: the extension merged classes with disjoint ranges, so no
    /// row satisfies the extended query and no view of the core matches.
    fn ranges<'a>(&'a self, pq: &'a PreparedQuery<'_>) -> Option<&'a HashMap<ColRef, Interval>> {
        match &self.extended {
            None => Some(&pq.summary.ranges),
            Some(x) => x
                .ranges
                .get_or_init(|| rebase_ranges(&pq.summary.ranges, &x.ec))
                .as_ref(),
        }
    }

    /// Like [`MappedCore::ranges`], for the genuine (not check-derived)
    /// query ranges, as a list sorted by root: the order in which the
    /// range compensation visits them, so substitutes are reproducible.
    /// Sorted once per core state, not per accepted view.
    fn genuine_ranges(&self, pq: &PreparedQuery<'_>) -> Option<&[(ColRef, Interval)]> {
        self.genuine_ranges
            .get_or_init(|| {
                let mut list: Vec<(ColRef, Interval)> = match &self.extended {
                    None => pq
                        .summary
                        .genuine_ranges
                        .iter()
                        .map(|(c, iv)| (*c, iv.clone()))
                        .collect(),
                    Some(x) => rebase_ranges(&pq.summary.genuine_ranges, &x.ec)?
                        .into_iter()
                        .collect(),
                };
                list.sort_by_key(|(c, _)| *c);
                Some(list)
            })
            .as_deref()
    }

    fn inv(&self) -> &[u32] {
        self.inv.get_or_init(|| {
            let mut inv = vec![0u32; self.occ_map.len()];
            for (vi, q) in self.occ_map.iter().enumerate() {
                inv[q.0 as usize] = vi as u32;
            }
            inv
        })
    }
}

/// The per-view remainder of a match: range and residual subsumption, the
/// three compensations and the output list, for one view of a core whose
/// mapping `core` already passed elimination and the equijoin test.
fn match_under<Y: Assemble>(
    pq: &PreparedQuery<'_>,
    view_id: ViewId,
    view_is_aggregate: bool,
    pv: &PreparedView,
    core: &MappedCore,
) -> Option<Y> {
    let qsum = pq.summary;
    let qec = core.ec(pq);
    let mapf = |o: OccId| core.occ_map[o.0 as usize];

    // Both remaining subsumption *tests* run before any substitute
    // construction: most candidates the filter tree lets through die in
    // one of them, and neither needs the view-output maps or a template
    // remap. Rejected-is-rejected, so running the tests ahead of the
    // type-1 compensation (which can also reject, on an unmappable
    // output) leaves the accept set and the built substitutes unchanged.

    // ---- Range subsumption test (type 2) ----
    // Every view range must contain the corresponding query range. The
    // prepared range list is sorted by class representative, so `veff`
    // accumulates in a deterministic order.
    let qranges = core.ranges(pq)?;
    let mut veff: HashMap<ColRef, Interval> = HashMap::new();
    for (vroot, iv) in &pv.ranges {
        let c = remap_col(*vroot, &mapf);
        let qroot = qec.find(c);
        let qiv = qranges.get(&qroot).cloned().unwrap_or_default();
        if iv.contains(&qiv) != Some(true) {
            return None;
        }
        let eff = veff.remove(&qroot).unwrap_or_default();
        veff.insert(qroot, eff.intersect(iv)?);
    }

    // ---- Residual subsumption test (type 3) ----
    // Matching the remapped view template in place avoids cloning every
    // template's text per candidate.
    let same = |a: ColRef, b: ColRef| a == b || qec.same(a, b);
    let v_matches_q = |vt: &Template, qt: &Template| {
        vt.text == qt.text
            && vt.cols.len() == qt.cols.len()
            && vt
                .cols
                .iter()
                .zip(&qt.cols)
                .all(|(&a, &b)| same(remap_col(a, &mapf), b))
    };
    // Every view residual must match a query residual, else the view may
    // lack required rows.
    for vt in &pv.residuals {
        if !qsum.residuals.iter().any(|qt| v_matches_q(vt, qt)) {
            return None;
        }
    }

    // All tests passed — build the compensations against the precomputed
    // view-space output maps. Every step below can still reject, on a
    // column no output or backjoin reaches.
    let ctx = OutputCtx {
        pv,
        occ_map: &core.occ_map,
        inv: core.inv(),
        backjoin_active: RefCell::new(Vec::new()),
    };
    let qix = core.index(pq);
    let mut predicates = Y::Predicates::default();

    // ---- Compensating column-equality predicates (section 3.1.3 type 1) --
    // "Whenever some view equivalence classes E1..En map to the same query
    // equivalence class E, we create a column-equality predicate between
    // any column in Ei and any column in Ei+1." These reroute through the
    // VIEW equivalence classes; a query column outside every view class is
    // its own singleton. Classes come in the sorted `ClassIndex`'s order.
    for qclass in qix.nontrivial() {
        let mut parts: Vec<(VClassKey, ColRef)> = Vec::new(); // (view class, representative)
        for &c in qclass {
            let v = ctx.to_view(c);
            let key = match pv.core.ec_class.get(&v) {
                Some(&i) => VClassKey::Class(i),
                None => VClassKey::Solo(v),
            };
            if !parts.iter().any(|(k, _)| *k == key) {
                parts.push((key, c));
            }
        }
        for w in parts.windows(2) {
            let a = ctx.find_position_v(w[0].1)?;
            let b = ctx.find_position_v(w[1].1)?;
            Y::column_eq(&mut predicates, a, b);
        }
    }

    // ---- Range compensation (type 2) ----
    // Enforce the query bounds that the view does not already guarantee —
    // only the *genuine* bounds: check-derived bounds hold on every view
    // row. Deterministic order for reproducible substitutes.
    for (qroot, qiv) in core.genuine_ranges(pq)? {
        let viv = veff.get(qroot).cloned().unwrap_or_default();
        let comps = viv.compensation(qiv);
        if comps.is_empty() {
            continue;
        }
        // Route through QUERY equivalence classes (section 3.1.3 point 2).
        let pos = ctx.find_position(*qroot, qec, qix)?;
        for (op, value) in comps {
            Y::bound(&mut predicates, pos, op, value);
        }
    }

    // ---- Residual compensation (type 3) ----
    // Query residuals missing from the view must be enforced on top.
    // Check-constraint-derived residuals (beyond `genuine_residuals`) hold
    // on every view row already and are never compensated.
    for (qt, qb) in qsum
        .residuals
        .iter()
        .zip(&qsum.residual_bools)
        .take(qsum.genuine_residuals)
    {
        if pv.residuals.iter().any(|vt| v_matches_q(vt, qt)) {
            continue;
        }
        Y::residual(&mut predicates, qb, &mut |c| ctx.find_position(c, qec, qix))?;
    }

    // ---- Output expressions (sections 3.1.4 and 3.3) ----
    let output = build_output::<Y>(pq.expr, view_is_aggregate, qec, qix, &ctx)?;

    let backjoins = ctx.backjoin_active.borrow();
    Some(Y::finish(view_id, pv, &backjoins, predicates, output))
}

/// Type-1 compensation key: the view equivalence class a query column
/// lands in, or the (translated) column itself when it is outside every
/// view class. Distinct keys need a compensating equality; see
/// `match_under`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VClassKey {
    Class(u32),
    Solo(ColRef),
}

/// Rebase a summary range map onto extended equivalence classes: entries
/// whose roots collapse into one class under the extension intersect
/// (`None` when an intersection comes up empty — no row satisfies the
/// extended query, so no substitute exists under this mapping).
fn rebase_ranges(
    src: &HashMap<ColRef, Interval>,
    qec: &EquivClasses,
) -> Option<HashMap<ColRef, Interval>> {
    let mut out: HashMap<ColRef, Interval> = HashMap::with_capacity(src.len());
    for (root, iv) in src {
        let r = qec.find(*root);
        match out.remove(&r) {
            Some(prev) => {
                out.insert(r, prev.intersect(iv)?);
            }
            None => {
                out.insert(r, iv.clone());
            }
        }
    }
    Some(out)
}

/// Construct the substitute's output list.
fn build_output<'q, Y: Assemble>(
    query: &'q SpjgExpr,
    view_is_aggregate: bool,
    qec: &EquivClasses,
    qix: &ClassIndex,
    ctx: &OutputCtx<'_>,
) -> Option<Y::Output> {
    // Cross-space relation for SUM-argument templates: the stored view
    // template columns translate to query space before the equivalence
    // probe.
    let same = |a: ColRef, b: ColRef| {
        let aq = ctx.to_query(a);
        aq == b || qec.same(aq, b)
    };
    let map = |e: &ScalarExpr| map_scalar::<Y>(e, qec, qix, ctx);
    let named = |ne: &'q NamedExpr| Some((map(&ne.expr)?, ne.name.as_str()));
    match &query.output {
        // The caller already rejected (SPJ query, aggregate view).
        OutputList::Spj(items) => Y::project(items.iter().map(named)),
        OutputList::Aggregate {
            group_by,
            aggregates,
        } if !view_is_aggregate => {
            // Aggregation query over an SPJ view: group the view directly.
            Y::group(
                group_by.iter().map(named),
                aggregates
                    .iter()
                    .map(|na| Some((Y::agg(&na.func, map)?, na.name.as_str()))),
            )
        }
        OutputList::Aggregate {
            group_by,
            aggregates,
        } => {
            // Aggregation query over an aggregation view (section 3.3):
            // the view must be no more aggregated than the query, i.e.
            // every query grouping expression maps onto the view's
            // grouping outputs.
            let gb_mapped = group_by
                .iter()
                .map(|ne| map(&ne.expr))
                .collect::<Option<Vec<_>>>()?;
            // Positions of directly-matched view grouping outputs.
            let direct: Vec<Option<usize>> = gb_mapped
                .iter()
                .map(|e| Y::position(e).filter(|&p| p < ctx.pv.outputs.scalar_len))
                .collect();
            // No further aggregation is needed exactly when the query
            // grouping list covers every view grouping output.
            let no_regroup = direct.iter().all(|d| d.is_some())
                && (0..ctx.pv.outputs.scalar_len).all(|p| direct.contains(&Some(p)));
            let keys = gb_mapped
                .into_iter()
                .zip(group_by)
                .map(|(e, ne)| Some((e, ne.name.as_str())));
            if no_regroup {
                let aggs = aggregates.iter().map(|na| {
                    let pos = match &na.func {
                        AggFunc::CountStar => ctx.pv.outputs.count_pos?,
                        AggFunc::Sum(arg) | AggFunc::SumZero(arg) => find_sum(ctx, arg, &same)?,
                    };
                    Some((Y::column(pos), na.name.as_str()))
                });
                Y::project(keys.chain(aggs))
            } else {
                let aggs = aggregates.iter().map(|na| {
                    let agg = match &na.func {
                        // count(*) rolls up as a zero-defaulting SUM over
                        // the view's count column.
                        AggFunc::CountStar => Y::rollup_count(ctx.pv.outputs.count_pos?),
                        func => Y::agg(func, |arg| find_sum(ctx, arg, &same).map(Y::column))?,
                    };
                    Some((agg, na.name.as_str()))
                });
                Y::group(keys, aggs)
            }
        }
    }
}

/// Find a view `SUM(E')` output whose argument matches `arg` exactly,
/// taking column equivalences into account (section 3.3: "If the query
/// output contains a SUM(E) ... we require that the view contain an output
/// column that matches exactly").
fn find_sum(
    ctx: &OutputCtx<'_>,
    arg: &ScalarExpr,
    same: &impl Fn(ColRef, ColRef) -> bool,
) -> Option<usize> {
    let t = Template::of_scalar(arg);
    ctx.pv
        .outputs
        .sum_args
        .iter()
        .find(|(vt, _)| vt.matches(&t, same))
        .map(|(_, pos)| *pos)
}

/// What a view that passed every test yields: the [`Substitute`] in full,
/// or its [`Verdict`]. Both run the same compensation and output steps in
/// the same order, so a verdict exists exactly when the substitute builds,
/// and it activates the same backjoins in the same order; only the
/// substitute allocates expressions.
pub(crate) trait Assemble: Sized + PartialEq + fmt::Debug {
    /// A query scalar placed over the view's outputs: the expression, or
    /// for a verdict the position it reads when it is a bare column.
    type Scalar;
    /// An aggregate function placed over the view's outputs.
    type Agg;
    /// The output list, or for a verdict whether it regroups.
    type Output;
    /// The compensating predicates, or for a verdict whether there is
    /// any.
    type Predicates: Default;

    /// A constant, copied through.
    fn constant(e: &ScalarExpr) -> Self::Scalar;
    /// View output column `pos`.
    fn column(pos: usize) -> Self::Scalar;
    /// `e` recomputed from output columns, each column placed by `place`.
    fn recompute(
        e: &ScalarExpr,
        place: &mut impl FnMut(ColRef) -> Option<usize>,
    ) -> Option<Self::Scalar>;
    /// The output position `s` reads, when it is a bare column.
    fn position(s: &Self::Scalar) -> Option<usize>;
    /// `func` with its argument, if any, placed by `arg`.
    fn agg(
        func: &AggFunc,
        arg: impl FnOnce(&ScalarExpr) -> Option<Self::Scalar>,
    ) -> Option<Self::Agg>;
    /// `count(*)` rolled up over the view's count column at `count`.
    fn rollup_count(count: usize) -> Self::Agg;
    /// A projection onto named items, `None` if one does not place.
    fn project<'n>(
        items: impl Iterator<Item = Option<(Self::Scalar, &'n str)>>,
    ) -> Option<Self::Output>;
    /// A grouping by named keys with named aggregates, the keys placed
    /// first.
    fn group<'n>(
        keys: impl Iterator<Item = Option<(Self::Scalar, &'n str)>>,
        aggregates: impl Iterator<Item = Option<(Self::Agg, &'n str)>>,
    ) -> Option<Self::Output>;
    /// Compensate `a = b` over output positions (type 1).
    fn column_eq(predicates: &mut Self::Predicates, a: usize, b: usize);
    /// Compensate `pos op value` (type 2).
    fn bound(predicates: &mut Self::Predicates, pos: usize, op: CmpOp, value: Value);
    /// Compensate the query residual `p`, each column placed by `place`
    /// (type 3).
    fn residual(
        predicates: &mut Self::Predicates,
        p: &BoolExpr,
        place: &mut impl FnMut(ColRef) -> Option<usize>,
    ) -> Option<()>;
    /// The result for `view` once its backjoins (view occurrence, base
    /// position) were activated in the order given.
    fn finish(
        view: ViewId,
        pv: &PreparedView,
        backjoins: &[(OccId, usize)],
        predicates: Self::Predicates,
        output: Self::Output,
    ) -> Self;
    /// Stamp the freshness the engine admitted the view under.
    fn admit(&mut self, freshness: Freshness);
}

/// A column mapping to output positions, as references to them.
fn to_out_col(
    place: &mut impl FnMut(ColRef) -> Option<usize>,
) -> impl FnMut(ColRef) -> Option<ColRef> + '_ {
    move |c| place(c).map(|p| ColRef::new(0, p as u32))
}

impl Assemble for Substitute {
    type Scalar = ScalarExpr;
    type Agg = AggFunc;
    type Output = OutputList;
    type Predicates = Vec<BoolExpr>;

    fn constant(e: &ScalarExpr) -> ScalarExpr {
        e.clone()
    }

    fn column(pos: usize) -> ScalarExpr {
        out_col(pos)
    }

    fn recompute(
        e: &ScalarExpr,
        place: &mut impl FnMut(ColRef) -> Option<usize>,
    ) -> Option<ScalarExpr> {
        e.try_map_columns(&mut to_out_col(place))
    }

    fn position(s: &ScalarExpr) -> Option<usize> {
        s.as_column().map(|c| c.col.0 as usize)
    }

    fn agg(func: &AggFunc, arg: impl FnOnce(&ScalarExpr) -> Option<ScalarExpr>) -> Option<AggFunc> {
        Some(match func {
            AggFunc::CountStar => AggFunc::CountStar,
            AggFunc::Sum(e) => AggFunc::Sum(arg(e)?),
            AggFunc::SumZero(e) => AggFunc::SumZero(arg(e)?),
        })
    }

    fn rollup_count(count: usize) -> AggFunc {
        AggFunc::SumZero(out_col(count))
    }

    fn project<'n>(
        items: impl Iterator<Item = Option<(ScalarExpr, &'n str)>>,
    ) -> Option<OutputList> {
        items
            .map(|item| item.map(|(e, name)| NamedExpr::new(e, name)))
            .collect::<Option<_>>()
            .map(OutputList::Spj)
    }

    fn group<'n>(
        keys: impl Iterator<Item = Option<(ScalarExpr, &'n str)>>,
        aggregates: impl Iterator<Item = Option<(AggFunc, &'n str)>>,
    ) -> Option<OutputList> {
        let group_by = keys
            .map(|key| key.map(|(e, name)| NamedExpr::new(e, name)))
            .collect::<Option<_>>()?;
        let aggregates = aggregates
            .map(|agg| agg.map(|(f, name)| NamedAgg::new(f, name)))
            .collect::<Option<_>>()?;
        Some(OutputList::Aggregate {
            group_by,
            aggregates,
        })
    }

    fn column_eq(predicates: &mut Vec<BoolExpr>, a: usize, b: usize) {
        predicates.push(BoolExpr::cmp(out_col(a), CmpOp::Eq, out_col(b)));
    }

    fn bound(predicates: &mut Vec<BoolExpr>, pos: usize, op: CmpOp, value: Value) {
        predicates.push(BoolExpr::cmp(out_col(pos), op, ScalarExpr::Literal(value)));
    }

    fn residual(
        predicates: &mut Vec<BoolExpr>,
        p: &BoolExpr,
        place: &mut impl FnMut(ColRef) -> Option<usize>,
    ) -> Option<()> {
        predicates.push(p.try_map_columns(&mut to_out_col(place))?);
        Some(())
    }

    fn finish(
        view: ViewId,
        pv: &PreparedView,
        backjoins: &[(OccId, usize)],
        predicates: Vec<BoolExpr>,
        output: OutputList,
    ) -> Substitute {
        Substitute {
            view,
            backjoins: backjoins
                .iter()
                .map(|(occ, _)| {
                    let offer = &pv.outputs.backjoins[occ];
                    BackJoin {
                        table: offer.table,
                        key: offer.key.clone(),
                    }
                })
                .collect(),
            predicates,
            output,
            // The engine's freshness enforcement overrides this per
            // candidate; direct callers see the static-catalog default.
            freshness: Freshness::Fresh,
        }
    }

    fn admit(&mut self, freshness: Freshness) {
        self.freshness = freshness;
    }
}

impl Assemble for Verdict {
    type Scalar = Option<usize>;
    type Agg = ();
    type Output = bool;
    type Predicates = bool;

    fn constant(_: &ScalarExpr) -> Option<usize> {
        None
    }

    fn column(pos: usize) -> Option<usize> {
        Some(pos)
    }

    fn recompute(
        e: &ScalarExpr,
        place: &mut impl FnMut(ColRef) -> Option<usize>,
    ) -> Option<Option<usize>> {
        e.try_for_each_column(&mut |c| place(c).map(drop))?;
        Some(None)
    }

    fn position(s: &Option<usize>) -> Option<usize> {
        *s
    }

    fn agg(func: &AggFunc, arg: impl FnOnce(&ScalarExpr) -> Option<Option<usize>>) -> Option<()> {
        if let Some(e) = func.argument() {
            arg(e)?;
        }
        Some(())
    }

    fn rollup_count(_: usize) {}

    fn project<'n>(
        mut items: impl Iterator<Item = Option<(Option<usize>, &'n str)>>,
    ) -> Option<bool> {
        items.try_for_each(|item| item.map(drop))?;
        Some(false)
    }

    fn group<'n>(
        mut keys: impl Iterator<Item = Option<(Option<usize>, &'n str)>>,
        mut aggregates: impl Iterator<Item = Option<((), &'n str)>>,
    ) -> Option<bool> {
        keys.try_for_each(|key| key.map(drop))?;
        aggregates.try_for_each(|agg| agg.map(drop))?;
        Some(true)
    }

    fn column_eq(filters: &mut bool, _: usize, _: usize) {
        *filters = true;
    }

    fn bound(filters: &mut bool, _: usize, _: CmpOp, _: Value) {
        *filters = true;
    }

    fn residual(
        filters: &mut bool,
        p: &BoolExpr,
        place: &mut impl FnMut(ColRef) -> Option<usize>,
    ) -> Option<()> {
        p.try_for_each_column(&mut |c| place(c).map(drop))?;
        *filters = true;
        Some(())
    }

    fn finish(
        view: ViewId,
        pv: &PreparedView,
        backjoins: &[(OccId, usize)],
        filters: bool,
        regroups: bool,
    ) -> Verdict {
        Verdict {
            view,
            rows: pv.rows,
            backjoins: backjoins
                .iter()
                .map(|(occ, _)| pv.outputs.backjoins[occ].table)
                .collect(),
            filters,
            regroups,
        }
    }

    fn admit(&mut self, _: Freshness) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 9-fold self-join has 9! = 362,880 occurrence bijections; the walk
    /// must stop at the cap, not materialize them and keep the first 64.
    #[test]
    fn self_join_placements_stop_at_the_cap() {
        let occs: Vec<OccId> = (0..9).map(OccId).collect();
        let placements = injections(&occs, &occs, MAX_TABLE_MAPPINGS);
        assert_eq!(placements.len(), MAX_TABLE_MAPPINGS);
        // Lexicographic order: the identity comes first.
        assert!(placements[0].iter().all(|(q, v)| q == v));

        let by_table = vec![(TableId(0), occs)];
        let mappings = enumerate_mappings(9, &by_table, &by_table);
        assert_eq!(mappings.len(), MAX_TABLE_MAPPINGS);
        for (m, p) in mappings.iter().zip(&placements) {
            for (q, v) in p {
                assert_eq!(m[v.0 as usize], Some(*q));
            }
        }
        // Fewer bijections than the cap come back in full.
        assert_eq!(
            injections(&by_table[0].1[..3], &by_table[0].1[..4], 64).len(),
            24
        );
    }
}
