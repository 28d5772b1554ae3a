//! The filter-key format: what a view is filed under at each level of
//! the tree ([`MatchingEngine::view_keys`]) and what a query searches for
//! there ([`MatchingEngine::query_searches`]). Both sides derive their
//! tokens from the expression alone, so they live together: a change to
//! one side's format is a change to the other's.

use super::{normalized, LevelSearch};
use crate::fkgraph::{compute_hub, FkGraph};
use crate::snapshot::CatalogSnapshot;
use crate::summary::ExprSummary;
use crate::{JoinCore, MatchingEngine};
use mv_catalog::{Catalog, ColumnId, TableId};
use mv_expr::{ColRef, OccId, Template};
use mv_plan::{AggFunc, SpjgExpr, ViewId};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// Number of filter-tree levels for SPJ views (hub, source tables, output
/// expressions, output columns, residual predicates, range-constrained
/// columns).
pub const SPJ_LEVELS: usize = 6;
/// Aggregation views add grouping expressions and grouping columns.
pub const AGG_LEVELS: usize = 8;

/// Human-readable names of the filter-tree levels, in key order (the
/// first [`SPJ_LEVELS`] apply to the SPJ tree). Diagnostics use these to
/// say *which* partitioning condition wrongly pruned a view.
pub const LEVEL_NAMES: [&str; AGG_LEVELS] = [
    "hub",
    "source-tables",
    "output-exprs",
    "output-cols",
    "residuals",
    "range-cols",
    "grouping-exprs",
    "grouping-cols",
];

/// Filter-tree levels at which the paper-faithful strict expression
/// filter ([`crate::MatchConfig::strict_expression_filter`], section
/// 4.2.7) is *deliberately* incomplete: the matcher can recompute a
/// complex output expression from a view's plain columns, but the strict
/// filter requires the rendered template to appear in the view's
/// output-expression key. A view pruned *only* at these levels while the
/// matcher accepts it is documented conservatism, not an index fault; any
/// other rejecting level is a genuine completeness violation (rule MV102).
pub fn strict_filter_exempt_levels(is_aggregate_view: bool) -> &'static [usize] {
    if is_aggregate_view {
        &[2, 6]
    } else {
        &[2]
    }
}

/// Token for a template text (output, residual and grouping
/// expressions): the text's 64-bit hash. Both sides of a search derive it
/// from the text alone, so a view's keys and a query's searches need no
/// shared state. Two texts that collide merge into one token, which can
/// only widen a search: every level condition (subset, superset,
/// hitting) that holds before a merge holds after it, so a collision adds
/// a candidate for the full tests to reject and never drops one.
fn text_token(text: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    text.hash(&mut hasher);
    hasher.finish()
}

/// Token for a base table. Public so `mv-audit` can decode and rebuild
/// level keys when validating the stored index entries.
pub fn table_token(t: TableId) -> u64 {
    t.0 as u64
}

/// Token for a base-qualified column. The filter tree compares columns at
/// the base-table level (not per occurrence), which is exact for
/// expressions without self-joins and conservative (never drops a valid
/// candidate) with them.
pub fn col_token(table: TableId, col: ColumnId) -> u64 {
    ((table.0 as u64) << 32) | col.0 as u64
}

/// Inverse of [`col_token`]: the `(table, column)` pair a column-level
/// key token denotes. Meaningful only for tokens taken from a
/// column-keyed filter level.
pub fn decode_col_token(token: u64) -> (TableId, ColumnId) {
    (TableId((token >> 32) as u32), ColumnId(token as u32))
}

fn base_col_token(expr: &SpjgExpr, c: ColRef) -> u64 {
    col_token(expr.table_of(c.occ), c.col)
}

/// Is an occurrence "anchored" for the hub refinement of section 4.2.2:
/// does it carry a range or residual predicate on a column that
/// participates in no non-trivial equivalence class?
fn is_anchored(vsum: &ExprSummary, occ: OccId) -> bool {
    vsum.ranges
        .keys()
        .any(|r| r.occ == occ && vsum.ec.is_trivial(*r))
        || vsum
            .residuals
            .iter()
            .flat_map(|t| t.cols.iter())
            .any(|c| c.occ == occ && vsum.ec.is_trivial(*c))
}

/// Base-qualified column tokens reachable through backjoins: for each
/// occurrence whose base table has a non-null unique key fully covered by
/// the view's simple outputs (through the view's equivalence classes),
/// every column of that table.
fn backjoin_reachable_tokens(catalog: &Catalog, expr: &SpjgExpr, vsum: &ExprSummary) -> Vec<u64> {
    let simple_outputs: HashSet<ColRef> = expr
        .scalar_outputs()
        .iter()
        .filter_map(|ne| ne.expr.as_column())
        .collect();
    let covered = |c: ColRef| {
        simple_outputs.contains(&c)
            || vsum
                .ec
                .class_of(c)
                .into_iter()
                .any(|m| simple_outputs.contains(&m))
    };
    let mut out = Vec::new();
    for (occ, table) in expr.occurrences() {
        let def = catalog.table(table);
        let joinable = def.keys.iter().any(|key| {
            key.columns
                .iter()
                .all(|&c| def.column(c).not_null && covered(ColRef { occ, col: c }))
        });
        if joinable {
            for c in 0..def.columns.len() as u32 {
                out.push(col_token(table, ColumnId(c)));
            }
        }
    }
    out
}

impl MatchingEngine {
    /// Compute the 8 per-level filter keys for a view (the first 6 are
    /// used for SPJ views), from its definition and join core alone:
    /// template texts become [`text_token`] hashes, so `add_view` and the
    /// audit's re-derivation compute the same keys without shared state.
    pub(crate) fn view_keys(
        &self,
        expr: &SpjgExpr,
        vsum: &ExprSummary,
        fk_graph: &FkGraph,
    ) -> Vec<Vec<u64>> {
        // Level 1: hub condition key, over the FK join graph of the view's
        // join core.
        let refined = self.config.refined_hubs;
        let hub = compute_hub(fk_graph, &|o| refined && is_anchored(vsum, o));
        let k_hub: Vec<u64> = hub.into_iter().map(table_token).collect();

        // Level 2: source tables.
        let k_tables: Vec<u64> = expr.tables.iter().copied().map(table_token).collect();

        // Level 3: textual output expressions (complex scalar outputs plus
        // SUM argument templates).
        let mut k_exprs: Vec<u64> = Vec::new();
        for ne in expr.scalar_outputs() {
            if ne.expr.as_column().is_none() && !ne.expr.is_constant() {
                k_exprs.push(text_token(&Template::of_scalar(&ne.expr).text));
            }
        }
        for agg in expr.aggregate_outputs() {
            if let AggFunc::Sum(e) = &agg.func {
                k_exprs.push(text_token(&Template::of_scalar(e).text));
            }
        }

        // Level 4: extended output column list — every column equivalent
        // to a simple-column output (section 4.2.3).
        let mut k_outcols: Vec<u64> = Vec::new();
        for ne in expr.scalar_outputs() {
            if let Some(c) = ne.expr.as_column() {
                for m in vsum.ec.class_of(c) {
                    k_outcols.push(base_col_token(expr, m));
                }
            }
        }
        // With the backjoin extension, every column of a table whose
        // non-null unique key the view outputs is reachable too — the
        // filter must not prune views the matcher could still use.
        if self.config.allow_backjoins {
            k_outcols.extend(backjoin_reachable_tokens(&self.catalog, expr, vsum));
        }

        // Level 5: residual predicate texts.
        let k_residuals: Vec<u64> = vsum.residuals.iter().map(|t| text_token(&t.text)).collect();

        // Level 6: reduced range constraint list — constrained columns in
        // trivial equivalence classes (section 4.2.5).
        let k_ranges: Vec<u64> = vsum
            .ranges
            .keys()
            .filter(|r| vsum.ec.is_trivial(**r))
            .map(|r| base_col_token(expr, *r))
            .collect();

        // Level 7 (aggregation views): textual grouping expressions.
        let mut k_gexprs: Vec<u64> = Vec::new();
        // Level 8: extended grouping column list.
        let mut k_gcols: Vec<u64> = Vec::new();
        if expr.is_aggregate() {
            for ne in expr.scalar_outputs() {
                if let Some(c) = ne.expr.as_column() {
                    for m in vsum.ec.class_of(c) {
                        k_gcols.push(base_col_token(expr, m));
                    }
                } else if !ne.expr.is_constant() {
                    k_gexprs.push(text_token(&Template::of_scalar(&ne.expr).text));
                }
            }
            if self.config.allow_backjoins {
                k_gcols.extend(backjoin_reachable_tokens(&self.catalog, expr, vsum));
            }
        }

        vec![
            k_hub,
            k_tables,
            k_exprs,
            k_outcols,
            k_residuals,
            k_ranges,
            k_gexprs,
            k_gcols,
        ]
    }

    /// The per-level search conditions a query poses against the SPJ and
    /// aggregation trees, in that order; a non-aggregate query poses none
    /// against the latter, which is never searched for one (section 3.3),
    /// so its list is empty. Every query-side filter token is rendered
    /// once, from the query alone, and both trees' conditions are
    /// assembled from that one pass in the normalized form the trees
    /// search with.
    pub fn query_searches(
        &self,
        query: &SpjgExpr,
        qsum: &ExprSummary,
    ) -> (Vec<LevelSearch>, Vec<LevelSearch>) {
        let source: Vec<u64> = query.tables.iter().copied().map(table_token).collect();

        // Textual output expressions. With the paper-faithful strict
        // filter these must all appear in the view; recomputation from
        // plain columns is ignored (section 4.2.7 calls this
        // "conservative"). Against aggregation views every SUM argument
        // must match a view SUM output; against SPJ views a simple column
        // argument is recomputable and is covered by the output-column
        // condition instead — so simple SUM arguments are kept apart.
        let mut scalar_exprs: Vec<u64> = Vec::new();
        let mut sum_exprs_complex: Vec<u64> = Vec::new();
        let mut sum_exprs_simple: Vec<u64> = Vec::new();
        if self.config.strict_expression_filter {
            for ne in query.scalar_outputs() {
                if ne.expr.as_column().is_none() && !ne.expr.is_constant() {
                    scalar_exprs.push(text_token(&Template::of_scalar(&ne.expr).text));
                }
            }
            for agg in query.aggregate_outputs() {
                if let AggFunc::Sum(e) = &agg.func {
                    let token = text_token(&Template::of_scalar(e).text);
                    if e.as_column().is_none() && !e.is_constant() {
                        sum_exprs_complex.push(token);
                    } else {
                        sum_exprs_simple.push(token);
                    }
                }
            }
        }

        // Output-column hitting classes.
        let class_of = |c: ColRef| {
            let class = qsum.ec.class_of(c);
            normalized(class.into_iter().map(|m| base_col_token(query, m)))
        };
        let out_classes: Vec<Vec<u64>> = query
            .scalar_outputs()
            .iter()
            .filter_map(|ne| ne.expr.as_column())
            .map(class_of)
            .collect();
        let sum_classes: Vec<Vec<u64>> = query
            .aggregate_outputs()
            .iter()
            .filter_map(|agg| match &agg.func {
                AggFunc::Sum(e) => e.as_column(),
                _ => None,
            })
            .map(class_of)
            .collect();

        // Residual texts of the query.
        let residuals: Vec<u64> = qsum.residuals.iter().map(|t| text_token(&t.text)).collect();

        // Extended range constraint list — every column of every
        // constrained equivalence class.
        let mut range_cols: Vec<u64> = Vec::new();
        for root in qsum.ranges.keys() {
            for m in qsum.ec.class_of(*root) {
                range_cols.push(base_col_token(query, m));
            }
        }

        // Each set is sorted and deduplicated here, once — the form
        // `FilterTree::search_into` borrows.
        let source = normalized(source);
        let residuals = normalized(residuals);
        let range_cols = normalized(range_cols);
        let spj_exprs = normalized(scalar_exprs.iter().chain(&sum_exprs_complex).copied());
        let agg = if query.is_aggregate() {
            vec![
                LevelSearch::Subset(source.clone()),
                LevelSearch::Superset(source.clone()),
                LevelSearch::Superset(normalized(
                    spj_exprs.iter().copied().chain(sum_exprs_simple),
                )),
                LevelSearch::Hitting(out_classes.clone()),
                LevelSearch::Subset(residuals.clone()),
                LevelSearch::Subset(range_cols.clone()),
                LevelSearch::Superset(normalized(scalar_exprs)),
                LevelSearch::Hitting(out_classes.clone()),
            ]
        } else {
            Vec::new()
        };
        let mut classes = out_classes;
        classes.extend(sum_classes);
        let spj = vec![
            LevelSearch::Subset(source.clone()),
            LevelSearch::Superset(source),
            LevelSearch::Superset(spj_exprs),
            LevelSearch::Hitting(classes),
            LevelSearch::Subset(residuals),
            LevelSearch::Subset(range_cols),
        ];
        (spj, agg)
    }

    /// Re-derive the per-level filter keys of a registered live view from
    /// its definition, read-only. For a live view this reproduces exactly
    /// the keys `add_view` computed. Returns `None` for removed or
    /// out-of-range ids.
    pub fn view_filter_keys(&self, id: ViewId) -> Option<Vec<Vec<u64>>> {
        self.view_filter_keys_in(&self.snapshot(), id)
    }

    pub(crate) fn view_filter_keys_in(
        &self,
        snap: &CatalogSnapshot,
        id: ViewId,
    ) -> Option<Vec<Vec<u64>>> {
        if !snap.is_live(id) {
            return None;
        }
        // From the definition alone — the stored descriptor and its core
        // are among the things this derivation audits.
        let expr = &snap.views.get(id).expr;
        let vsum = ExprSummary::analyze(expr);
        let core = JoinCore::new(&self.catalog, &self.config, &expr.tables, &vsum.ec);
        Some(self.view_keys(expr, &vsum, &core.fk_graph))
    }
}
