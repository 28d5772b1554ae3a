//! The level-2 prepared match descriptor: everything `match_view` used to
//! re-derive per probe, precomputed once at `add_view` time.
//!
//! "To speed up view matching we maintain in memory a description of every
//! materialized view" (section 4). [`crate::ExprSummary`] already holds the
//! predicate analysis; [`PreparedView`] extends it with the derived forms
//! the matching tests consume directly, so a substitute-cache miss still
//! does strictly less work per candidate than the original code path:
//!
//! - the non-trivial view equivalence classes in canonical order (the
//!   §3.1.2 equijoin subsumption test walks them without recomputing the
//!   class partition),
//! - the per-class range intervals as a sorted list (deterministic
//!   iteration, no per-probe `HashMap` walk),
//! - the sorted residual template tokens (a query whose residual token
//!   set does not cover the view's cannot match — a binary-search
//!   prefilter before the full template tests),
//! - the occurrences grouped by base table, sorted (table-correspondence
//!   check and mapping enumeration without building per-probe maps),
//! - the FK-join-graph incoming-edge set (§3.2: an extra table is only
//!   eliminable if some cardinality-preserving edge points at it, so a
//!   mapping that leaves an edge-less view occurrence unassigned is
//!   rejected before the per-probe graph is built).

use crate::fkgraph::build_fk_graph;
use crate::matching::MatchConfig;
use crate::summary::ExprSummary;
use mv_catalog::{Catalog, TableId};
use mv_expr::{ColRef, Interval, OccId, Template};
use mv_plan::{AggFunc, SpjgExpr, ViewId};
use std::collections::HashMap;
use std::sync::Arc;

/// Identity of a view's *join core*: its FROM list (in occurrence order)
/// and its non-trivial equivalence classes. Everything the matcher derives
/// ahead of the range test — occurrence mappings, the §3.2 elimination, the
/// extended query classes — depends on the view through these two alone,
/// so the candidates of one `find_substitutes` that carry the same id share
/// that work (DESIGN.md §13.5). Ids are minted by the engine's interner on
/// the registration path and are only comparable within one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreId(pub u32);

/// Per-view prepared match descriptor. Built once per `add_view`; the
/// matching path only reads it.
#[derive(Debug, Clone)]
pub struct PreparedView {
    /// The view's join core, once an engine has registered the view.
    /// `None` on a hand-prepared descriptor, which shares match state with
    /// no other view.
    pub core: Option<CoreId>,
    /// The predicate analysis of the view definition.
    pub summary: ExprSummary,
    /// `summary.ec.nontrivial_classes()`, canonical (classes and members
    /// sorted).
    pub nontrivial_ecs: Vec<Vec<ColRef>>,
    /// `summary.ranges` as a list sorted by class representative.
    pub ranges: Vec<(ColRef, Interval)>,
    /// Interned tokens of the view's residual template texts, sorted.
    /// Every view residual must textually match some query residual
    /// (§3.1.2), so a candidate whose tokens are not a subset of the
    /// query's residual tokens is rejected without running the tests.
    /// Empty when the caller has no interner (the token prefilter is then
    /// simply skipped).
    pub residual_tokens: Vec<u64>,
    /// View occurrences grouped by base table, sorted by table id.
    pub by_table: Vec<(TableId, Vec<OccId>)>,
    /// Per view occurrence: does any cardinality-preserving FK edge point
    /// at it? Built with the *permissive* nullable-column rule (every
    /// nullable FK accepted when [`MatchConfig::null_rejecting_fk`] is
    /// on), so the edge set is a superset of what any per-query graph can
    /// contain — absence here soundly implies absence there.
    pub fk_incoming: Vec<bool>,
    /// The view's output list digested for substitute construction, in
    /// *view* column space. The matcher translates probe columns into view
    /// space through its occurrence assignment instead of rebuilding these
    /// maps (and re-rendering the output templates) per accepted
    /// candidate.
    pub outputs: PreparedOutputs,
    /// View column → index into `nontrivial_ecs`, for every member of a
    /// non-trivial class. Columns outside every class are absent.
    pub ec_class: HashMap<ColRef, u32>,
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
    /// Simple-column outputs: view column → output position (scalar
    /// outputs only; for aggregation views these are the grouping
    /// outputs).
    pub col_pos: HashMap<ColRef, usize>,
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
        classes: &[Vec<ColRef>],
        ec_class: &HashMap<ColRef, u32>,
    ) -> PreparedOutputs {
        let mut col_pos = HashMap::new();
        let mut complex = Vec::new();
        let scalars = expr.scalar_outputs();
        for (i, ne) in scalars.iter().enumerate() {
            if let Some(c) = ne.expr.as_column() {
                col_pos.entry(c).or_insert(i);
            } else if !ne.expr.is_constant() {
                complex.push((Template::of_scalar(&ne.expr), i));
            }
        }
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
            col_pos,
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
                            out.direct_position_view(ColRef { occ, col: c }, classes, ec_class)
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

    /// Output position of view column `c`, rerouting through the view's
    /// own equivalence classes; no backjoins.
    pub fn direct_position_view(
        &self,
        c: ColRef,
        classes: &[Vec<ColRef>],
        ec_class: &HashMap<ColRef, u32>,
    ) -> Option<usize> {
        if let Some(&p) = self.col_pos.get(&c) {
            return Some(p);
        }
        let i = *ec_class.get(&c)? as usize;
        classes[i].iter().find_map(|m| self.col_pos.get(m).copied())
    }
}

impl PreparedView {
    /// Precompute the descriptor for a view definition. `residual_tokens`
    /// are the interned tokens of `summary.residuals` (sorted here); pass
    /// an empty list to skip the token prefilter.
    pub fn prepare(
        catalog: &Catalog,
        config: &MatchConfig,
        expr: &SpjgExpr,
        summary: ExprSummary,
        mut residual_tokens: Vec<u64>,
    ) -> PreparedView {
        let nontrivial_ecs = summary.ec.nontrivial_classes();
        let mut ranges: Vec<(ColRef, Interval)> = summary
            .ranges
            .iter()
            .map(|(c, iv)| (*c, iv.clone()))
            .collect();
        ranges.sort_by_key(|(c, _)| *c);
        residual_tokens.sort_unstable();
        let occs: Vec<(OccId, TableId)> = expr.occurrences().collect();
        let graph = build_fk_graph(catalog, &occs, &summary.ec, &|_| config.null_rejecting_fk);
        let fk_incoming = graph.incoming_flags(expr.tables.len());
        let mut ec_class: HashMap<ColRef, u32> = HashMap::new();
        for (i, class) in nontrivial_ecs.iter().enumerate() {
            for &c in class {
                ec_class.insert(c, i as u32);
            }
        }
        let outputs = PreparedOutputs::build(catalog, config, expr, &nontrivial_ecs, &ec_class);
        PreparedView {
            core: None,
            summary,
            nontrivial_ecs,
            ranges,
            residual_tokens,
            by_table: occurrences_by_table(expr),
            fk_incoming,
            outputs,
            ec_class,
        }
    }

    /// The distinct base tables the view references, ascending. The
    /// online catalog bumps exactly these tables' invalidation epochs when
    /// the view is registered or removed: a view can only answer a query
    /// whose tables are a subset of its own, so every cached result the
    /// change could affect carries at least one of these tables in its
    /// stamp.
    pub fn tables(&self) -> impl Iterator<Item = TableId> + '_ {
        self.by_table.iter().map(|(t, _)| *t)
    }
}

/// Group an expression's occurrences by base table, sorted by table id
/// (occurrences within a table keep FROM-list order). Shared by the view
/// descriptor and the per-query [`crate::matching::PreparedQuery`].
pub fn occurrences_by_table(expr: &SpjgExpr) -> Vec<(TableId, Vec<OccId>)> {
    let mut out: Vec<(TableId, Vec<OccId>)> = Vec::new();
    for (occ, t) in expr.occurrences() {
        match out.binary_search_by_key(&t, |(bt, _)| *bt) {
            Ok(i) => out[i].1.push(occ),
            Err(i) => out.insert(i, (t, vec![occ])),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Packed catalog: the arena the candidate scan reads.
// ---------------------------------------------------------------------

/// Is every element of sorted slice `a` present in sorted slice `b`?
/// Set semantics — duplicates in either slice are harmless — via a single
/// forward merge; the cursor into `b` never rewinds.
pub fn sorted_subset(a: &[u32], b: &[u32]) -> bool {
    let mut bi = 0;
    'outer: for &x in a {
        while bi < b.len() {
            match b[bi].cmp(&x) {
                std::cmp::Ordering::Less => bi += 1,
                // Do not consume the match: a duplicate in `a` may need it.
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Do two sorted slices share at least one element?
pub fn sorted_intersects(a: &[u32], b: &[u32]) -> bool {
    let (mut ai, mut bi) = (0, 0);
    while ai < a.len() && bi < b.len() {
        match a[ai].cmp(&b[bi]) {
            std::cmp::Ordering::Less => ai += 1,
            std::cmp::Ordering::Equal => return true,
            std::cmp::Ordering::Greater => bi += 1,
        }
    }
    false
}

/// Views per [`PackedCatalog`] segment. Small enough that copy-on-write
/// of the unsealed tail segment stays cheap per registration, large enough
/// that a million-view catalog is a few hundred `Arc`s, not a node graph.
pub const SEG_VIEWS: usize = 4096;

/// One view's spans into its segment's arenas, plus the flags the
/// candidate prefilter branches on. `Copy`, 40 bytes, scanned linearly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedViewRec {
    /// Residual template tokens: sorted, deduplicated `u32`s.
    res_off: u32,
    res_len: u32,
    /// Distinct source tables (ascending); `occ_counts` and `fk_free` are
    /// parallel to this span.
    tbl_off: u32,
    tbl_len: u32,
    /// Base-qualified columns of the non-trivial equivalence classes,
    /// sorted, deduplicated (`engine::col_token` encoding).
    ec_off: u32,
    ec_len: u32,
    /// Base-qualified range-constrained class representatives, sorted,
    /// deduplicated.
    rng_off: u32,
    rng_len: u32,
    /// Aggregation view? (An SPJ query can never use one — §3.3.)
    is_agg: bool,
}

/// One sealed-or-tail segment of the packed catalog: flat arenas for up to
/// [`SEG_VIEWS`] views, plus their cold descriptors. Cloning copies the
/// flat pages with a handful of `memcpy`s.
#[derive(Debug, Clone, Default)]
struct PackedSegment {
    recs: Vec<PackedViewRec>,
    res_tokens: Vec<u32>,
    tables: Vec<u32>,
    /// Occurrences of each table, parallel to `tables`.
    occ_counts: Vec<u32>,
    /// Occurrences of each table with **no** incoming cardinality-
    /// preserving FK edge, parallel to `tables`. An edge-less occurrence
    /// can never be eliminated as an extra table (§3.2), so every mapping
    /// must assign all of them — if a table has more of these than the
    /// query has occurrences of it, no mapping can survive.
    fk_free: Vec<u32>,
    ec_cols: Vec<u64>,
    rng_cols: Vec<u64>,
    /// The cold descriptors, touched only by candidates that survive the
    /// packed prechecks.
    prepared: Vec<Arc<PreparedView>>,
}

impl PackedSegment {
    fn push_view(&mut self, pv: Arc<PreparedView>, expr: &SpjgExpr) {
        let tok = |c: &ColRef| crate::engine::col_token(expr.table_of(c.occ), c.col);
        let res_off = self.res_tokens.len() as u32;
        // `residual_tokens` is sorted; interner tokens are minted
        // sequentially from 0, so they fit u32 until 4 billion distinct
        // template texts exist. Dedup to set semantics — the subset
        // prefilter treats the tokens as a set.
        for &t in &pv.residual_tokens {
            assert!(
                t <= u32::MAX as u64,
                "residual token overflows packed arena"
            );
            if self.res_tokens.len() as u32 == res_off
                || *self.res_tokens.last().unwrap() != t as u32
            {
                self.res_tokens.push(t as u32);
            }
        }
        let res_len = self.res_tokens.len() as u32 - res_off;
        let tbl_off = self.tables.len() as u32;
        for (t, occs) in &pv.by_table {
            self.tables.push(t.0);
            self.occ_counts.push(occs.len() as u32);
            let free = occs
                .iter()
                .filter(|o| !pv.fk_incoming[o.0 as usize])
                .count() as u32;
            self.fk_free.push(free);
        }
        let ec_off = self.ec_cols.len() as u32;
        let mut ecs: Vec<u64> = pv
            .nontrivial_ecs
            .iter()
            .flat_map(|class| class.iter().map(tok))
            .collect();
        ecs.sort_unstable();
        ecs.dedup();
        let ec_len = ecs.len() as u32;
        self.ec_cols.extend(ecs);
        let rng_off = self.rng_cols.len() as u32;
        let mut rngs: Vec<u64> = pv.ranges.iter().map(|(c, _)| tok(c)).collect();
        rngs.sort_unstable();
        rngs.dedup();
        let rng_len = rngs.len() as u32;
        self.rng_cols.extend(rngs);
        self.recs.push(PackedViewRec {
            res_off,
            res_len,
            tbl_off,
            tbl_len: pv.by_table.len() as u32,
            ec_off,
            ec_len,
            rng_off,
            rng_len,
            is_agg: expr.is_aggregate(),
        });
        self.prepared.push(pv);
    }

    fn arena_bytes(&self) -> usize {
        self.recs.capacity() * std::mem::size_of::<PackedViewRec>()
            + (self.res_tokens.capacity()
                + self.tables.capacity()
                + self.occ_counts.capacity()
                + self.fk_free.capacity())
                * std::mem::size_of::<u32>()
            + (self.ec_cols.capacity() + self.rng_cols.capacity()) * std::mem::size_of::<u64>()
    }
}

/// The query-side probe the packed prechecks scan against, derived once
/// per query (not per candidate).
#[derive(Debug, Clone)]
pub struct PackedProbe {
    query_is_aggregate: bool,
    /// Sorted, deduplicated query residual tokens that fit the packed
    /// width. Query-only tokens above `u32::MAX` (the interner's
    /// `UNKNOWN_TOKEN`) can never equal a view token, so dropping them
    /// leaves the subset test exact.
    res_tokens: Vec<u32>,
    /// `(table id, occurrence count)` of the query, ascending by table.
    tables: Vec<(u32, u32)>,
}

impl PackedProbe {
    /// Build a probe from the query's sorted residual tokens and its
    /// occurrences-by-table grouping.
    pub fn new(
        query_is_aggregate: bool,
        q_res_tokens: &[u64],
        q_by_table: &[(TableId, Vec<OccId>)],
    ) -> PackedProbe {
        let mut res_tokens: Vec<u32> = q_res_tokens
            .iter()
            .filter(|&&t| t <= u32::MAX as u64)
            .map(|&t| t as u32)
            .collect();
        res_tokens.sort_unstable();
        res_tokens.dedup();
        PackedProbe {
            query_is_aggregate,
            res_tokens,
            tables: q_by_table
                .iter()
                .map(|(t, occs)| (t.0, occs.len() as u32))
                .collect(),
        }
    }
}

/// The match-visible catalog as a segmented arena: per-view descriptors
/// packed into contiguous sorted slices addressed by `(offset, len)`
/// spans, scanned branch-light by the candidate prefilter, plus the cold
/// `Arc`'d descriptors for survivors.
///
/// Segments hold [`SEG_VIEWS`] views each and are shared behind `Arc`:
/// cloning the catalog (which every snapshot publication does) bumps one
/// refcount per segment, and registering a view copy-on-writes only the
/// unsealed tail segment — bounded work however many views precede it.
#[derive(Debug, Clone, Default)]
pub struct PackedCatalog {
    segs: Vec<Arc<PackedSegment>>,
    len: usize,
}

impl PackedCatalog {
    /// An empty catalog.
    pub fn new() -> PackedCatalog {
        PackedCatalog::default()
    }

    /// Number of packed views (slots of removed views stay reserved,
    /// mirroring [`mv_plan::ViewSet`]).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no view has been packed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn locate(&self, id: ViewId) -> (usize, usize) {
        let i = id.0 as usize;
        assert!(i < self.len, "view {id} out of packed-catalog range");
        (i / SEG_VIEWS, i % SEG_VIEWS)
    }

    /// Pack the next view (its id must be the current `len`). Appends to
    /// the tail segment, copy-on-writing it if a published snapshot still
    /// shares it.
    pub fn push(&mut self, pv: Arc<PreparedView>, expr: &SpjgExpr) {
        if self.len.is_multiple_of(SEG_VIEWS) {
            self.segs.push(Arc::new(PackedSegment::default()));
        }
        let seg = self.segs.last_mut().expect("segment pushed above");
        Arc::make_mut(seg).push_view(pv, expr);
        self.len += 1;
    }

    /// The cold descriptor of `id`.
    pub fn prepared(&self, id: ViewId) -> &Arc<PreparedView> {
        let (s, i) = self.locate(id);
        &self.segs[s].prepared[i]
    }

    /// Run the packed prechecks for candidate `id` against a query probe:
    /// aggregation compatibility, table correspondence (occurrence counts
    /// included), the §3.2 edge-less-extra rejection, and the residual
    /// token subset test — pure sorted-slice scans, no allocation, no
    /// descriptor access. `false` is definitive: the full matcher would
    /// reject the candidate too.
    pub fn precheck(&self, id: ViewId, probe: &PackedProbe) -> bool {
        let (s, i) = self.locate(id);
        let seg = &*self.segs[s];
        let r = &seg.recs[i];
        if r.is_agg && !probe.query_is_aggregate {
            return false;
        }
        let lo = r.tbl_off as usize;
        let hi = lo + r.tbl_len as usize;
        let vt = &seg.tables[lo..hi];
        let vc = &seg.occ_counts[lo..hi];
        let vf = &seg.fk_free[lo..hi];
        let q = &probe.tables;
        let mut qi = 0;
        for k in 0..vt.len() {
            if qi < q.len() && q[qi].0 < vt[k] {
                // A query table the view lacks entirely.
                return false;
            }
            if qi < q.len() && q[qi].0 == vt[k] {
                // Enough view occurrences to host the query's, and no
                // more edge-less occurrences than the query can absorb.
                if vc[k] < q[qi].1 || vf[k] > q[qi].1 {
                    return false;
                }
                qi += 1;
            } else if vf[k] > 0 {
                // Extra table with an edge-less occurrence: no mapping
                // can eliminate it.
                return false;
            }
        }
        if qi < q.len() {
            return false;
        }
        let res = &seg.res_tokens[r.res_off as usize..(r.res_off + r.res_len) as usize];
        sorted_subset(res, &probe.res_tokens)
    }

    /// Residual tokens of `id` as stored (sorted, deduplicated).
    pub fn residual_tokens(&self, id: ViewId) -> &[u32] {
        let (s, i) = self.locate(id);
        let seg = &*self.segs[s];
        let r = &seg.recs[i];
        &seg.res_tokens[r.res_off as usize..(r.res_off + r.res_len) as usize]
    }

    /// `(table, occurrence count, edge-less count)` triples of `id`,
    /// ascending by table.
    pub fn table_counts(&self, id: ViewId) -> impl Iterator<Item = (TableId, u32, u32)> + '_ {
        let (s, i) = self.locate(id);
        let seg = &*self.segs[s];
        let r = &seg.recs[i];
        let lo = r.tbl_off as usize;
        let hi = lo + r.tbl_len as usize;
        (lo..hi).map(move |k| (TableId(seg.tables[k]), seg.occ_counts[k], seg.fk_free[k]))
    }

    /// Base-qualified equivalence-class column tokens of `id` (sorted,
    /// deduplicated; `engine::col_token` encoding).
    pub fn ec_cols(&self, id: ViewId) -> &[u64] {
        let (s, i) = self.locate(id);
        let seg = &*self.segs[s];
        let r = &seg.recs[i];
        &seg.ec_cols[r.ec_off as usize..(r.ec_off + r.ec_len) as usize]
    }

    /// Base-qualified range-constrained column tokens of `id` (sorted,
    /// deduplicated).
    pub fn range_cols(&self, id: ViewId) -> &[u64] {
        let (s, i) = self.locate(id);
        let seg = &*self.segs[s];
        let r = &seg.recs[i];
        &seg.rng_cols[r.rng_off as usize..(r.rng_off + r.rng_len) as usize]
    }

    /// Bytes reserved by the packed arenas across all segments (record
    /// table, token/table/count pages — not the cold descriptors).
    pub fn arena_bytes(&self) -> usize {
        self.segs.iter().map(|s| s.arena_bytes()).sum()
    }

    /// Validate every span invariant of `id` without touching the slices:
    /// spans in bounds, parallel arenas consistent, packed sets strictly
    /// ascending, occurrence counts sane. `Err` describes the first
    /// violation — `mv-audit` turns it into an `MV105` finding.
    pub fn validate_spans(&self, id: ViewId) -> Result<(), String> {
        let i = id.0 as usize;
        if i >= self.len {
            return Err(format!("view {id} beyond packed length {}", self.len));
        }
        let seg = &*self.segs[i / SEG_VIEWS];
        let r = &seg.recs[i % SEG_VIEWS];
        let span =
            |off: u32, len: u32, arena: usize, what: &str| -> Result<(usize, usize), String> {
                let end = off as u64 + len as u64;
                if end > arena as u64 {
                    return Err(format!(
                        "{what} span [{off}, {end}) of {id} exceeds arena length {arena}"
                    ));
                }
                Ok((off as usize, end as usize))
            };
        let (rl, rh) = span(r.res_off, r.res_len, seg.res_tokens.len(), "residual-token")?;
        if !seg.res_tokens[rl..rh].windows(2).all(|w| w[0] < w[1]) {
            return Err(format!("residual tokens of {id} not strictly ascending"));
        }
        let (tl, th) = span(r.tbl_off, r.tbl_len, seg.tables.len(), "table")?;
        span(
            r.tbl_off,
            r.tbl_len,
            seg.occ_counts.len(),
            "occurrence-count",
        )?;
        span(r.tbl_off, r.tbl_len, seg.fk_free.len(), "edge-less-count")?;
        if !seg.tables[tl..th].windows(2).all(|w| w[0] < w[1]) {
            return Err(format!("tables of {id} not strictly ascending"));
        }
        for k in tl..th {
            if seg.occ_counts[k] == 0 {
                return Err(format!(
                    "table {} of {id} has zero occurrences",
                    seg.tables[k]
                ));
            }
            if seg.fk_free[k] > seg.occ_counts[k] {
                return Err(format!(
                    "table {} of {id} has more edge-less than total occurrences",
                    seg.tables[k]
                ));
            }
        }
        let (el, eh) = span(r.ec_off, r.ec_len, seg.ec_cols.len(), "equivalence-column")?;
        if !seg.ec_cols[el..eh].windows(2).all(|w| w[0] < w[1]) {
            return Err(format!(
                "equivalence columns of {id} not strictly ascending"
            ));
        }
        let (gl, gh) = span(r.rng_off, r.rng_len, seg.rng_cols.len(), "range-column")?;
        if !seg.rng_cols[gl..gh].windows(2).all(|w| w[0] < w[1]) {
            return Err(format!("range columns of {id} not strictly ascending"));
        }
        Ok(())
    }

    /// Corruption hook for the `mv-audit` test suite: point the
    /// residual-token span of `id` past the end of its arena. Never call
    /// outside tests.
    #[doc(hidden)]
    pub fn corrupt_span_for_audit(&mut self, id: ViewId) {
        let (s, i) = self.locate(id);
        let seg = Arc::make_mut(&mut self.segs[s]);
        seg.recs[i].res_off = seg.res_tokens.len() as u32 + 1;
        seg.recs[i].res_len = 7;
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
        let summary = ExprSummary::analyze(&expr);
        let pv =
            PreparedView::prepare(&cat, &MatchConfig::default(), &expr, summary, vec![9, 3, 3]);
        assert_eq!(pv.nontrivial_ecs, vec![vec![cr(0, 0), cr(1, 0)]]);
        assert_eq!(pv.ranges.len(), 1);
        assert_eq!(pv.residual_tokens, vec![3, 3, 9], "tokens sorted");
        // orders is the target of lineitem's FK edge; lineitem has no
        // incoming edge.
        assert_eq!(pv.fk_incoming, vec![false, true]);
        // by_table sorted by table id, whatever the FROM order.
        let flipped = SpjgExpr::spj(
            vec![t.orders, t.lineitem],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        let by_table = occurrences_by_table(&flipped);
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
        let by_table = occurrences_by_table(&expr);
        assert_eq!(by_table.len(), 1);
        assert_eq!(by_table[0].1, vec![OccId(0), OccId(1)]);
    }

    #[test]
    fn sorted_kernels() {
        assert!(sorted_subset(&[], &[]));
        assert!(sorted_subset(&[], &[1, 2]));
        assert!(sorted_subset(&[2], &[1, 2, 3]));
        assert!(sorted_subset(&[1, 3], &[1, 2, 3]));
        assert!(sorted_subset(&[3, 3], &[3, 9]), "set semantics with dups");
        assert!(!sorted_subset(&[1, 4], &[1, 2, 3]));
        assert!(!sorted_subset(&[0], &[1]));
        assert!(!sorted_subset(&[1], &[]));
        assert!(!sorted_intersects(&[], &[1]));
        assert!(!sorted_intersects(&[1, 3], &[2, 4]));
        assert!(sorted_intersects(&[1, 5], &[5]));
        assert!(sorted_intersects(&[7, 9], &[2, 9, 11]));
    }

    fn pack_one(expr: &SpjgExpr, residual_tokens: Vec<u64>) -> PackedCatalog {
        let (cat, _) = tpch_catalog();
        let summary = ExprSummary::analyze(expr);
        let pv = PreparedView::prepare(
            &cat,
            &MatchConfig::default(),
            expr,
            summary,
            residual_tokens,
        );
        let mut packed = PackedCatalog::new();
        packed.push(Arc::new(pv), expr);
        packed
    }

    #[test]
    fn packed_layout_mirrors_descriptor() {
        let (_, t) = tpch_catalog();
        let pred = BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            BoolExpr::cmp(S::col(cr(1, 3)), CmpOp::Lt, S::lit(100i64)),
        ]);
        let expr = SpjgExpr::spj(
            vec![t.lineitem, t.orders],
            pred,
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        let packed = pack_one(&expr, vec![9, 3, 3]);
        let id = ViewId(0);
        assert_eq!(packed.len(), 1);
        assert_eq!(packed.residual_tokens(id), &[3, 9], "sorted, deduplicated");
        let tables: Vec<_> = packed.table_counts(id).collect();
        assert_eq!(tables.len(), 2);
        assert!(tables.windows(2).all(|w| w[0].0 < w[1].0));
        // lineitem's occurrence has no incoming FK edge; orders' does.
        let lineitem = tables.iter().find(|(tt, _, _)| *tt == t.lineitem).unwrap();
        let orders = tables.iter().find(|(tt, _, _)| *tt == t.orders).unwrap();
        assert_eq!((lineitem.1, lineitem.2), (1, 1));
        assert_eq!((orders.1, orders.2), (1, 0));
        // One equivalence class of two columns, one range class.
        assert_eq!(packed.ec_cols(id).len(), 2);
        assert_eq!(packed.range_cols(id).len(), 1);
        assert!(packed.validate_spans(id).is_ok());
        assert!(packed.arena_bytes() > 0);
    }

    #[test]
    fn precheck_mirrors_cheap_rejections() {
        let (_, t) = tpch_catalog();
        let expr = SpjgExpr::spj(
            vec![t.part],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        let packed = pack_one(&expr, vec![5]);
        let id = ViewId(0);
        let part_q = vec![(t.part, vec![OccId(0)])];
        // Residual tokens covered → pass.
        assert!(packed.precheck(id, &PackedProbe::new(false, &[5, 8], &part_q)));
        // View token missing from the query → reject.
        assert!(!packed.precheck(id, &PackedProbe::new(false, &[8], &part_q)));
        // Unknown query-side tokens above u32::MAX are dropped harmlessly.
        assert!(packed.precheck(id, &PackedProbe::new(false, &[5, u64::MAX], &part_q)));
        // Query table the view lacks → reject.
        let orders_q = vec![(t.orders, vec![OccId(0)])];
        assert!(!packed.precheck(id, &PackedProbe::new(false, &[5], &orders_q)));
        // Self-join query needs two part occurrences, view has one.
        let selfjoin_q = vec![(t.part, vec![OccId(0), OccId(1)])];
        assert!(!packed.precheck(id, &PackedProbe::new(false, &[5], &selfjoin_q)));

        // An aggregation view can never answer an SPJ query.
        let agg = SpjgExpr::aggregate(
            vec![t.part],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
            vec![mv_plan::NamedAgg::new(mv_plan::AggFunc::CountStar, "cnt")],
        );
        let packed_agg = pack_one(&agg, vec![]);
        assert!(!packed_agg.precheck(ViewId(0), &PackedProbe::new(false, &[], &part_q)));
        assert!(packed_agg.precheck(ViewId(0), &PackedProbe::new(true, &[], &part_q)));

        // View lineitem ⋈ orders: lineitem's occurrence has no incoming FK
        // edge, so a query over orders alone (leaving lineitem as an
        // extra) can never eliminate it — rejected by the packed scan.
        let join = SpjgExpr::spj(
            vec![t.lineitem, t.orders],
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        let packed_join = pack_one(&join, vec![]);
        let orders_only = vec![(t.orders, vec![OccId(0)])];
        assert!(!packed_join.precheck(ViewId(0), &PackedProbe::new(false, &[], &orders_only)));
        // The mirror query over lineitem leaves orders extra, which *does*
        // have an incoming cardinality-preserving edge: precheck passes.
        let lineitem_only = vec![(t.lineitem, vec![OccId(0)])];
        assert!(packed_join.precheck(ViewId(0), &PackedProbe::new(false, &[], &lineitem_only)));
    }

    #[test]
    fn corrupted_span_fails_validation() {
        let (_, t) = tpch_catalog();
        let expr = SpjgExpr::spj(
            vec![t.part],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        let mut packed = pack_one(&expr, vec![1, 2]);
        assert!(packed.validate_spans(ViewId(0)).is_ok());
        packed.corrupt_span_for_audit(ViewId(0));
        let err = packed.validate_spans(ViewId(0)).unwrap_err();
        assert!(err.contains("exceeds arena length"), "{err}");
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
        let pv = Arc::new(PreparedView::prepare(
            &cat,
            &MatchConfig::default(),
            &expr,
            ExprSummary::analyze(&expr),
            vec![],
        ));
        let mut packed = PackedCatalog::new();
        for _ in 0..SEG_VIEWS + 2 {
            packed.push(Arc::clone(&pv), &expr);
        }
        assert_eq!(packed.len(), SEG_VIEWS + 2);
        assert_eq!(packed.segs.len(), 2);
        // A clone shares both segments; pushing into the clone leaves the
        // original untouched (copy-on-write of the tail only).
        let mut clone = packed.clone();
        assert!(Arc::ptr_eq(&packed.segs[0], &clone.segs[0]));
        clone.push(Arc::clone(&pv), &expr);
        assert!(
            Arc::ptr_eq(&packed.segs[0], &clone.segs[0]),
            "sealed segment stays shared"
        );
        assert!(
            !Arc::ptr_eq(&packed.segs[1], &clone.segs[1]),
            "tail copied on write"
        );
        assert_eq!(packed.len(), SEG_VIEWS + 2);
        assert_eq!(clone.len(), SEG_VIEWS + 3);
        assert!(clone.validate_spans(ViewId(SEG_VIEWS as u32 + 2)).is_ok());
    }
}
