//! Pass 1 — index completeness (rules MV101–MV104).
//!
//! The filter tree (paper §4) is an *index* over the view catalog: every
//! search must return a superset of the views the exhaustive matcher would
//! accept. This pass proves that from two independent directions:
//!
//! 1. **Static entry validation** ([`audit_stored_entries`]): walk every
//!    `(view, keys)` entry both trees actually store and check it against
//!    a fresh, read-only re-derivation of the view's level keys from its
//!    definition (MV101), the hub ⊆ source-tables invariant that the
//!    level-1 subset search relies on (MV103), and token well-formedness —
//!    every stored table or column token must decode to a catalog table or
//!    column (MV104). A template-text token is the text's 64-bit hash, so
//!    any value is well formed; a corrupted one differs from the
//!    re-derived key and is MV101's.
//! 2. **Differential check** ([`audit_differential`]): for each workload
//!    query, run the filter-tree search and the exhaustive matcher over
//!    all live views — [`MatchingEngine::filter_misses`], the check the
//!    engine's debug oracle runs after every search, matching past the
//!    freshness gate; any view the matcher accepts but the filter prunes
//!    is attributed to the first level whose stored condition fails
//!    (MV102) — unless the only rejecting levels are the documented
//!    §4.2.7 strict-expression-filter conservatism, which is reported as
//!    an INFO note instead.
//!
//! Both checks audit the index they are handed: [`audit_index`] hands
//! them the engine's own stored entries and filter-tree search, and a
//! test can hand them a damaged copy instead.

use mv_core::{
    decode_col_token, ExprSummary, MatchingEngine, TokenKind, AGG_LEVELS, LEVEL_NAMES,
    LEVEL_TOKENS, SPJ_LEVELS,
};
use mv_plan::{SpjgExpr, ViewId};
use mv_verify::{Diagnostic, Report, RuleId, Severity};
use std::collections::HashMap;

/// Run the full index-completeness pass over the engine's own filter
/// trees.
pub fn audit_index(engine: &MatchingEngine, queries: &[SpjgExpr]) -> Report {
    let mut report = Report::new();
    let entries = engine.filter_entries();
    audit_stored_entries(engine, &entries, &mut report);
    let search = |query: &SpjgExpr, qsum: &ExprSummary| engine.candidates(query, qsum);
    audit_differential(engine, &entries, search, queries, &mut report);
    report
}

fn normalized(key: &[u64]) -> Vec<u64> {
    let mut k = key.to_vec();
    k.sort_unstable();
    k.dedup();
    k
}

fn view_label(engine: &MatchingEngine, id: ViewId) -> String {
    if (id.0 as usize) < engine.views().len() {
        engine.views().get(id).name.clone()
    } else {
        format!("view#{}", id.0)
    }
}

/// Static validation of stored index entries — `(view, per-level keys)`,
/// normalized as [`MatchingEngine::filter_entries`] returns them —
/// against the engine's views (MV101/MV103/MV104).
pub fn audit_stored_entries(
    engine: &MatchingEngine,
    entries: &[(ViewId, Vec<Vec<u64>>)],
    report: &mut Report,
) {
    let mut stored: HashMap<ViewId, &Vec<Vec<u64>>> = HashMap::new();
    for (id, keys) in entries {
        if (id.0 as usize) >= engine.views().len() || engine.is_removed(*id) {
            report.push(
                Diagnostic::error(
                    RuleId::IndexEntry,
                    "filter tree stores a view id the engine does not consider live",
                )
                .with_view(view_label(engine, *id)),
            );
            continue;
        }
        if stored.insert(*id, keys).is_some() {
            report.push(
                Diagnostic::error(
                    RuleId::IndexEntry,
                    "view is filed more than once across the filter trees",
                )
                .with_view(view_label(engine, *id)),
            );
        }
    }

    for (id, view) in engine.views().iter() {
        if engine.is_removed(id) {
            continue;
        }
        let depth = if view.expr.is_aggregate() {
            AGG_LEVELS
        } else {
            SPJ_LEVELS
        };
        let Some(keys) = stored.get(&id) else {
            report.push(
                Diagnostic::error(
                    RuleId::IndexEntry,
                    "live view is missing from its filter tree — no search can ever return it",
                )
                .with_view(&view.name),
            );
            continue;
        };
        let derived = engine
            .view_filter_keys(id)
            .expect("live view has derivable keys");
        // Stale entry: the stored keys differ from what the definition
        // derives today (MV101).
        let stale: Vec<&str> = (0..depth.min(keys.len()))
            .filter(|&lvl| keys[lvl] != normalized(&derived[lvl]))
            .map(|lvl| LEVEL_NAMES[lvl])
            .collect();
        if keys.len() != depth || !stale.is_empty() {
            report.push(
                Diagnostic::error(
                    RuleId::IndexEntry,
                    "view is filed under stale keys that no longer match its definition",
                )
                .with_view(&view.name)
                .with_detail(format!("stale levels: {stale:?}")),
            );
        }
        audit_entry_obligations(engine, &view.name, keys, report);
    }
}

/// Per-entry monotone-condition obligations on the *stored* keys: the hub
/// invariant (MV103) and table/column token bounds (MV104).
fn audit_entry_obligations(
    engine: &MatchingEngine,
    view_name: &str,
    keys: &[Vec<u64>],
    report: &mut Report,
) {
    let catalog = engine.catalog();
    let n_tables = catalog.table_count() as u64;

    // MV103 — the hub must be a subset of the stored source tables:
    // level 1's subset search only reaches partitions whose hub is
    // contained in the *query's* tables, and every query the view answers
    // references at least the view's eliminable-free core. A hub outside
    // the view's own table set breaks that containment argument.
    if keys.len() > 1 {
        let tables = normalized(&keys[1]);
        if !keys[0].iter().all(|t| tables.binary_search(t).is_ok()) {
            report.push(
                Diagnostic::error(
                    RuleId::HubInvariant,
                    "stored hub key is not a subset of the stored source-table key",
                )
                .with_view(view_name)
                .with_detail(format!("hub {:?} vs tables {:?}", keys[0], tables)),
            );
        }
    }

    for (lvl, key) in keys.iter().enumerate() {
        let level = LEVEL_NAMES[lvl];
        match LEVEL_TOKENS[lvl] {
            TokenKind::Table => {
                for &t in key {
                    if t >= n_tables {
                        report.push(
                            Diagnostic::error(
                                RuleId::IndexTokenBounds,
                                format!("stored table token {t} names no catalog table"),
                            )
                            .with_view(view_name)
                            .with_detail(format!("level {level}")),
                        );
                    }
                }
            }
            TokenKind::Column => {
                for &c in key {
                    let (table, col) = decode_col_token(c);
                    let valid = (table.0 as u64) < n_tables
                        && (col.0 as usize) < catalog.table(table).columns.len();
                    if !valid {
                        report.push(
                            Diagnostic::error(
                                RuleId::IndexTokenBounds,
                                format!("stored column token {c} decodes to no catalog column"),
                            )
                            .with_view(view_name)
                            .with_detail(format!("level {level}")),
                        );
                    }
                }
            }
            TokenKind::Text => {}
        }
    }
}

/// Differential completeness check over a workload (MV102): the
/// candidates `search` returns for a query (sorted, as
/// [`MatchingEngine::candidates`] returns them) must be a superset of the
/// exhaustive matcher's accepts ([`MatchingEngine::filter_misses`], the
/// check the engine's debug oracle runs too). A pruned view is attributed
/// to the first level whose condition its entry in `entries` — the index
/// `search` walks — fails.
pub fn audit_differential(
    engine: &MatchingEngine,
    entries: &[(ViewId, Vec<Vec<u64>>)],
    search: impl Fn(&SpjgExpr, &ExprSummary) -> Vec<ViewId>,
    queries: &[SpjgExpr],
    report: &mut Report,
) {
    // Level conditions must be evaluated against the keys the tree
    // *stores* — that is what the search actually walked — not a fresh
    // re-derivation (stored-vs-derived drift is MV101's job).
    let stored: HashMap<ViewId, &Vec<Vec<u64>>> =
        entries.iter().map(|(id, keys)| (*id, keys)).collect();
    for (qi, query) in queries.iter().enumerate() {
        let qlabel = format!("q{qi}");
        let qsum = engine.query_summary(query);
        let candidates = search(query, &qsum);
        let pin = engine.views();
        for miss in engine.filter_misses(&pin, query, &candidates, |id| stored.get(&id).copied()) {
            let view = pin.get(miss.view);
            let diagnostic = if view.expr.is_aggregate() && !query.is_aggregate() {
                Diagnostic::error(
                    RuleId::FilterCompleteness,
                    "matcher accepted an aggregation view for a non-aggregate query \
                     (invalid per §3.3); the filter correctly never searches the \
                     aggregation tree here",
                )
            } else if miss.exempt {
                Diagnostic::new(
                    RuleId::FilterCompleteness,
                    Severity::Info,
                    "view pruned only by the documented §4.2.7 strict expression \
                     filter; the matcher could recompute the expression",
                )
            } else {
                let levels: Vec<&str> = miss.levels.iter().map(|&l| LEVEL_NAMES[l]).collect();
                let first = levels
                    .first()
                    .copied()
                    .unwrap_or("<none — view missing from its tree>");
                Diagnostic::error(
                    RuleId::FilterCompleteness,
                    "filter tree pruned a view the exhaustive matcher accepts",
                )
                .with_detail(format!("first failing level: {first} (all: {levels:?})"))
            };
            report.push(diagnostic.with_view(&view.name).with_query(&qlabel));
        }
    }
}
