//! The level-2 prepared match descriptors: what the matching tests would
//! otherwise re-derive per probe, computed at `add_view` time and stored
//! once ("we maintain in memory a description of every materialized view",
//! section 4). A view's description is two values:
//!
//! - its [`JoinCore`] — what follows from the FROM list and the non-trivial
//!   equivalence classes alone. Everything the matcher derives ahead of the
//!   range test reads the view through this value only, so the views of one
//!   engine that agree on it share it behind an `Arc` (DESIGN.md §13.5);
//! - its [`PreparedView`] — the rest, the view's own: the per-class range
//!   intervals as a sorted list (deterministic iteration, no per-probe
//!   `HashMap` walk), the residual templates, the digested output list.
//!
//! The [`crate::ExprSummary`] both are read off is a transient of
//! registration.

use crate::fkgraph::{build_fk_graph, FkGraph};
use crate::matching::MatchConfig;
use crate::summary::ExprSummary;
use mv_catalog::{Catalog, TableId};
use mv_expr::{ColRef, EquivClasses, Interval, OccId, Template};
use mv_plan::{AggFunc, SpjgExpr, ViewId};
use std::collections::HashMap;
use std::sync::Arc;

/// A view's *join core*: its FROM list, its non-trivial equivalence
/// classes, and what follows from the two. An engine hands every view with
/// the same two the same `Arc`, and the per-invocation match state
/// ([`crate::PreparedQuery`]) is keyed on that identity; a descriptor
/// prepared outside an engine owns a core of its own.
#[derive(Debug)]
pub struct JoinCore {
    /// The FROM list: `tables[i]` is the base table of `OccId(i)`.
    pub tables: Vec<TableId>,
    /// The occurrences grouped by base table, sorted by table id.
    pub by_table: Vec<(TableId, Vec<OccId>)>,
    /// The non-trivial equivalence classes, canonical (classes and members
    /// sorted). A view's classes are few and small, so
    /// [`JoinCore::class_of`] searches them in place.
    pub classes: Vec<Vec<ColRef>>,
    /// The FK join graph under the *permissive* nullable-column rule (every
    /// nullable FK accepted when [`MatchConfig::null_rejecting_fk`] is on):
    /// its edge set is a superset of what any per-query graph can contain.
    /// Registration computes each member view's hub from it, and the
    /// matcher derives each per-query graph from it with
    /// [`FkGraph::renamed`] instead of building one.
    pub fk_graph: FkGraph,
    /// Per occurrence: does an edge of `fk_graph` point at it? §3.2 can
    /// only eliminate an extra table some edge points at, so a mapping that
    /// leaves an edge-less occurrence unassigned is rejected before the
    /// per-query graph is derived.
    pub fk_incoming: Vec<bool>,
}

impl JoinCore {
    /// The core of a block with FROM list `tables` and column equivalences
    /// `ec`. The one place an FK join graph is built outside tests.
    pub fn new(
        catalog: &Catalog,
        config: &MatchConfig,
        tables: &[TableId],
        ec: &EquivClasses,
    ) -> JoinCore {
        let classes = ec.nontrivial_classes();
        let occs: Vec<(OccId, TableId)> = (0..).map(OccId).zip(tables.iter().copied()).collect();
        let fk_graph = build_fk_graph(catalog, &occs, ec, &|_| config.null_rejecting_fk);
        let mut fk_incoming = vec![false; tables.len()];
        for e in &fk_graph.edges {
            fk_incoming[e.to.0 as usize] = true;
        }
        JoinCore {
            tables: tables.to_vec(),
            by_table: occurrences_by_table(tables),
            classes,
            fk_graph,
            fk_incoming,
        }
    }

    /// The index in `classes` of the class holding view column `c`, or
    /// `None` when `c` is in no non-trivial class.
    pub fn class_of(&self, c: ColRef) -> Option<usize> {
        self.classes
            .iter()
            .position(|class| class.binary_search(&c).is_ok())
    }
}

/// Per-view prepared match descriptor. Built once per `add_view`; the
/// matching path, and the optimizer costing a [`crate::Verdict`], only
/// read it.
#[derive(Debug, Clone)]
pub struct PreparedView {
    /// The view's join core.
    pub core: Arc<JoinCore>,
    /// The range interval per constrained class, sorted by class
    /// representative.
    pub ranges: Vec<(ColRef, Interval)>,
    /// The residual predicates as shallow templates (section 3.1.2).
    pub residuals: Vec<Template>,
    /// The view's output list digested for substitute construction, in
    /// *view* column space. The matcher translates probe columns into view
    /// space through its occurrence assignment instead of rebuilding these
    /// maps (and re-rendering the output templates) per accepted
    /// candidate.
    pub outputs: PreparedOutputs,
    /// The view's estimated rows ([`mv_plan::card::estimate_rows`]), the
    /// scan a substitute over it is costed by. Estimated once here: the
    /// estimate reads only the definition and the catalog's statistics,
    /// and an engine's catalog never changes.
    pub rows: f64,
}

/// One candidate backjoin target (the section 7 extension), precomputed
/// per view occurrence at registration: the base table, the (output
/// position → key column) pairs of a non-null unique key, and the table's
/// column count.
#[derive(Debug, Clone)]
pub struct BackjoinOffer {
    /// The base table to join the view back to.
    pub table: TableId,
    /// `(view output position, key column)` pairs of the join key.
    pub key: Vec<(usize, mv_catalog::ColumnId)>,
    /// Column count of the table (width of the backjoined block in the
    /// extended output space).
    pub n_columns: usize,
}

/// View output bookkeeping in *view* column space: which columns and
/// expressions the view makes available, and where. Template texts are
/// column-blind (columns render as `?`), so these entries compare against
/// query expressions with a cross-space column relation instead of being
/// re-rendered per occurrence assignment.
#[derive(Debug, Clone)]
pub struct PreparedOutputs {
    /// Simple-column outputs: (view column, output position), sorted by
    /// column, the first position of a column repeated in the output list
    /// (scalar outputs only; for aggregation views these are the grouping
    /// outputs). Read through [`PreparedOutputs::col_position`].
    pub col_pos: Box<[(ColRef, usize)]>,
    /// Complex scalar outputs as templates.
    pub complex: Vec<(Template, usize)>,
    /// Number of scalar (grouping) outputs; aggregate outputs follow.
    pub scalar_len: usize,
    /// `SUM(E)` outputs: template of `E` → position.
    pub sum_args: Vec<(Template, usize)>,
    /// Position of the `COUNT(*)` output, if any.
    pub count_pos: Option<usize>,
    /// Total view output arity (scalar + aggregate outputs).
    pub arity: usize,
    /// Backjoins on offer per view occurrence (empty unless
    /// [`MatchConfig::allow_backjoins`] was set at registration).
    pub backjoins: HashMap<OccId, BackjoinOffer>,
}

impl PreparedOutputs {
    fn build(
        catalog: &Catalog,
        config: &MatchConfig,
        expr: &SpjgExpr,
        core: &JoinCore,
    ) -> PreparedOutputs {
        let mut col_pos = Vec::new();
        let mut complex = Vec::new();
        let scalars = expr.scalar_outputs();
        for (i, ne) in scalars.iter().enumerate() {
            if let Some(c) = ne.expr.as_column() {
                col_pos.push((c, i));
            } else if !ne.expr.is_constant() {
                complex.push((Template::of_scalar(&ne.expr), i));
            }
        }
        // Stable: of a column output twice, the first position stays.
        col_pos.sort_by_key(|&(c, _)| c);
        col_pos.dedup_by_key(|&mut (c, _)| c);
        let mut sum_args = Vec::new();
        let mut count_pos = None;
        for (j, na) in expr.aggregate_outputs().iter().enumerate() {
            let pos = scalars.len() + j;
            match &na.func {
                AggFunc::CountStar => count_pos = Some(pos),
                AggFunc::Sum(e) | AggFunc::SumZero(e) => {
                    sum_args.push((Template::of_scalar(e), pos));
                }
            }
        }
        let mut out = PreparedOutputs {
            col_pos: col_pos.into_boxed_slice(),
            complex,
            scalar_len: scalars.len(),
            sum_args,
            count_pos,
            arity: expr.output_arity(),
            backjoins: HashMap::new(),
        };
        if config.allow_backjoins {
            // Offer backjoins (section 7 extension): for every view
            // occurrence whose base table has a non-null unique key fully
            // available among the view's outputs (through the view's own
            // equivalence classes), the table's columns become reachable
            // by joining the view back to it.
            for (occ, table) in expr.occurrences() {
                let def = catalog.table(table);
                let offer = def.keys.iter().find_map(|key| {
                    if !key.columns.iter().all(|&c| def.column(c).not_null) {
                        return None; // NULL keys would drop rows in the join
                    }
                    let pairs = key
                        .columns
                        .iter()
                        .map(|&c| {
                            // Keys must come from the view outputs
                            // themselves (never from another backjoin,
                            // which would create ordering dependencies
                            // between joins).
                            out.direct_position_view(ColRef { occ, col: c }, core)
                                .map(|p| (p, c))
                        })
                        .collect::<Option<Vec<_>>>()?;
                    Some(BackjoinOffer {
                        table,
                        key: pairs,
                        n_columns: def.columns.len(),
                    })
                });
                if let Some(offer) = offer {
                    out.backjoins.insert(occ, offer);
                }
            }
        }
        out
    }

    /// Output position of view column `c`, exact.
    pub fn col_position(&self, c: ColRef) -> Option<usize> {
        let i = self.col_pos.binary_search_by_key(&c, |&(v, _)| v).ok()?;
        Some(self.col_pos[i].1)
    }

    /// Output position of view column `c`, rerouting through the view's
    /// own equivalence classes; no backjoins.
    pub fn direct_position_view(&self, c: ColRef, core: &JoinCore) -> Option<usize> {
        if let Some(p) = self.col_position(c) {
            return Some(p);
        }
        let i = core.class_of(c)?;
        core.classes[i].iter().find_map(|&m| self.col_position(m))
    }
}

impl PreparedView {
    /// Precompute the descriptor of a view definition that no engine
    /// registers: analyses the block and builds a join core of its own.
    pub fn prepare(catalog: &Catalog, config: &MatchConfig, expr: &SpjgExpr) -> PreparedView {
        let summary = ExprSummary::analyze(expr);
        let core = Arc::new(JoinCore::new(catalog, config, &expr.tables, &summary.ec));
        Self::with_core(catalog, config, expr, summary, core)
    }

    /// The descriptor of `expr` over its join core `core`; `summary` is
    /// the block's analysis, consumed here.
    pub(crate) fn with_core(
        catalog: &Catalog,
        config: &MatchConfig,
        expr: &SpjgExpr,
        summary: ExprSummary,
        core: Arc<JoinCore>,
    ) -> PreparedView {
        // A view has no check-constraint extras, so its effective ranges
        // are its genuine ones and every residual is its own.
        let mut ranges: Vec<(ColRef, Interval)> = summary.ranges.into_iter().collect();
        ranges.sort_by_key(|(c, _)| *c);
        PreparedView {
            outputs: PreparedOutputs::build(catalog, config, expr, &core),
            core,
            ranges,
            residuals: summary.residuals,
            rows: mv_plan::card::estimate_rows(expr, catalog),
        }
    }

    /// The distinct base tables the view references, ascending. The
    /// online catalog bumps exactly these tables' invalidation epochs when
    /// the view is registered or removed: a view can only answer a query
    /// whose tables are a subset of its own, so every cached result the
    /// change could affect carries at least one of these tables in its
    /// stamp.
    pub fn tables(&self) -> impl Iterator<Item = TableId> + '_ {
        self.core.by_table.iter().map(|(t, _)| *t)
    }
}

/// Group a FROM list's occurrences by base table, sorted by table id
/// (occurrences within a table keep FROM-list order). Shared by the join
/// core and the per-query [`crate::matching::PreparedQuery`].
pub fn occurrences_by_table(tables: &[TableId]) -> Vec<(TableId, Vec<OccId>)> {
    let mut out: Vec<(TableId, Vec<OccId>)> = Vec::new();
    for (occ, &t) in (0u32..).map(OccId).zip(tables) {
        match out.binary_search_by_key(&t, |(bt, _)| *bt) {
            Ok(i) => out[i].1.push(occ),
            Err(i) => out.insert(i, (t, vec![occ])),
        }
    }
    out
}

/// Views per [`DescriptorStore`] segment. Small enough that copy-on-write
/// of the unsealed tail segment stays cheap per registration, large enough
/// that a million-view catalog is a few hundred `Arc`s, not a node graph.
const SEG_VIEWS: usize = 4096;

type Segment = Vec<Arc<PreparedView>>;

/// The prepared descriptors of the registered views, indexed by `ViewId`.
///
/// Segments hold [`SEG_VIEWS`] descriptors each and are shared behind
/// `Arc`: cloning the store (which every snapshot publication does) bumps
/// one refcount per segment, and registering a view copy-on-writes only
/// the unsealed tail segment — bounded work however many views precede it.
#[derive(Debug, Clone, Default)]
pub(crate) struct DescriptorStore {
    segs: Vec<Arc<Segment>>,
    /// Descriptors stored (slots of removed views stay reserved,
    /// mirroring [`mv_plan::ViewSet`]).
    len: usize,
}

impl DescriptorStore {
    /// Store the next view's descriptor (its id must be the current
    /// `len`). Appends to the tail segment, copy-on-writing it if a
    /// published snapshot still shares it.
    pub(crate) fn push(&mut self, pv: Arc<PreparedView>) {
        if self.len.is_multiple_of(SEG_VIEWS) {
            self.segs.push(Arc::new(Segment::new()));
        }
        let seg = self.segs.last_mut().expect("segment pushed above");
        Arc::make_mut(seg).push(pv);
        self.len += 1;
    }

    /// The descriptor of `id`.
    pub(crate) fn prepared(&self, id: ViewId) -> &Arc<PreparedView> {
        let i = id.0 as usize;
        assert!(i < self.len, "view {id} out of descriptor-store range");
        &self.segs[i / SEG_VIEWS][i % SEG_VIEWS]
    }

    /// Bytes the store itself reserves: the segment table and the
    /// per-segment pointer tables (not the descriptors they point at).
    pub(crate) fn arena_bytes(&self) -> usize {
        let slots: usize = self.segs.iter().map(|s| s.capacity()).sum();
        self.segs.capacity() * std::mem::size_of::<Arc<Segment>>()
            + slots * std::mem::size_of::<Arc<PreparedView>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_catalog::tpch::tpch_catalog;
    use mv_expr::{BoolExpr, CmpOp, ScalarExpr as S};
    use mv_plan::NamedExpr;

    fn cr(occ: u32, col: u32) -> ColRef {
        ColRef::new(occ, col)
    }

    #[test]
    fn descriptor_precomputes_canonical_forms() {
        let (cat, t) = tpch_catalog();
        // lineitem ⋈ orders on l_orderkey = o_orderkey, with a range.
        let pred = BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            BoolExpr::cmp(S::col(cr(1, 3)), CmpOp::Lt, S::lit(100i64)),
        ]);
        let expr = SpjgExpr::spj(
            vec![t.lineitem, t.orders],
            pred,
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        let pv = PreparedView::prepare(&cat, &MatchConfig::default(), &expr);
        assert_eq!(pv.core.tables, expr.tables);
        assert_eq!(pv.core.classes, vec![vec![cr(0, 0), cr(1, 0)]]);
        assert_eq!(pv.ranges.len(), 1);
        assert!(pv.residuals.is_empty());
        // orders is the target of lineitem's FK edge; lineitem has no
        // incoming edge.
        assert_eq!(pv.core.fk_incoming, vec![false, true]);
        // by_table sorted by table id, whatever the FROM order.
        let flipped = SpjgExpr::spj(
            vec![t.orders, t.lineitem],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        let by_table = occurrences_by_table(&flipped.tables);
        assert!(by_table.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(by_table.len(), 2);
    }

    #[test]
    fn self_join_occurrences_grouped() {
        let (_, t) = tpch_catalog();
        let expr = SpjgExpr::spj(
            vec![t.part, t.part],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        let by_table = occurrences_by_table(&expr.tables);
        assert_eq!(by_table.len(), 1);
        assert_eq!(by_table[0].1, vec![OccId(0), OccId(1)]);
    }

    #[test]
    fn segments_seal_and_share() {
        let (_, t) = tpch_catalog();
        let expr = SpjgExpr::spj(
            vec![t.part],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        let (cat, _) = tpch_catalog();
        let pv = Arc::new(PreparedView::prepare(&cat, &MatchConfig::default(), &expr));
        let mut store = DescriptorStore::default();
        for _ in 0..SEG_VIEWS + 2 {
            store.push(Arc::clone(&pv));
        }
        assert_eq!(store.len, SEG_VIEWS + 2);
        assert_eq!(store.segs.len(), 2);
        // A clone shares both segments; pushing into the clone leaves the
        // original untouched (copy-on-write of the tail only).
        let mut clone = store.clone();
        assert!(Arc::ptr_eq(&store.segs[0], &clone.segs[0]));
        clone.push(Arc::clone(&pv));
        assert!(
            Arc::ptr_eq(&store.segs[0], &clone.segs[0]),
            "sealed segment stays shared"
        );
        assert!(
            !Arc::ptr_eq(&store.segs[1], &clone.segs[1]),
            "tail copied on write"
        );
        assert_eq!(store.len, SEG_VIEWS + 2);
        assert_eq!(clone.len, SEG_VIEWS + 3);
        assert!(Arc::ptr_eq(
            clone.prepared(ViewId(SEG_VIEWS as u32 + 2)),
            &pv
        ));
    }
}
