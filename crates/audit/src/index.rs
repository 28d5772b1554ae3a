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
//!    all live views; any view the matcher accepts but the filter prunes
//!    is attributed to the first level whose stored condition fails
//!    (MV102) — unless the only rejecting levels are the documented
//!    §4.2.7 strict-expression-filter conservatism, which is reported as
//!    an INFO note instead.

use mv_core::{
    decode_col_token, strict_filter_exempt_levels, MatchingEngine, AGG_LEVELS, LEVEL_NAMES,
    SPJ_LEVELS,
};
use mv_plan::{SpjgExpr, ViewId};
use mv_verify::{Diagnostic, Report, RuleId, Severity};
use std::collections::HashMap;

/// Filter-tree levels keyed by table tokens.
const TABLE_LEVELS: [usize; 2] = [0, 1];
/// Filter-tree levels keyed by base-qualified column tokens.
const COL_LEVELS: [usize; 3] = [3, 5, 7];

/// Run the full index-completeness pass.
pub fn audit_index(engine: &MatchingEngine, queries: &[SpjgExpr]) -> Report {
    let mut report = Report::new();
    audit_stored_entries(engine, &mut report);
    audit_differential(engine, queries, &mut report);
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

/// Static validation of every stored index entry (MV101/MV103/MV104).
pub fn audit_stored_entries(engine: &MatchingEngine, report: &mut Report) {
    let entries = engine.filter_entries();
    let mut stored: HashMap<ViewId, &Vec<Vec<u64>>> = HashMap::new();
    for (id, keys) in &entries {
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
        if TABLE_LEVELS.contains(&lvl) {
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
        } else if COL_LEVELS.contains(&lvl) {
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
    }
}

/// Differential completeness check over a workload (MV102): filter-tree
/// candidates must be a superset of the exhaustive matcher's accepts.
pub fn audit_differential(engine: &MatchingEngine, queries: &[SpjgExpr], report: &mut Report) {
    if !engine.config().use_filter_tree {
        return;
    }
    // Level conditions must be evaluated against the keys the tree
    // *stores* — that is what the search actually walked — not a fresh
    // re-derivation (stored-vs-derived drift is MV101's job).
    let stored: HashMap<ViewId, Vec<Vec<u64>>> = engine.filter_entries().into_iter().collect();
    for (qi, query) in queries.iter().enumerate() {
        let qlabel = format!("q{qi}");
        let qsum = engine.query_summary(query);
        let candidates = engine.candidates(query, &qsum); // sorted
        let (spj, agg) = engine.query_searches(query, &qsum);
        let pin = engine.views();
        for (id, view) in pin.iter() {
            if engine.is_removed(id) || candidates.binary_search(&id).is_ok() {
                continue;
            }
            if engine.build_substitute(&pin, query, id).is_none() {
                continue;
            }
            let is_agg = view.expr.is_aggregate();
            if is_agg && !query.is_aggregate() {
                report.push(
                    Diagnostic::error(
                        RuleId::FilterCompleteness,
                        "matcher accepted an aggregation view for a non-aggregate query \
                         (invalid per §3.3); the filter correctly never searches the \
                         aggregation tree here",
                    )
                    .with_view(&view.name)
                    .with_query(&qlabel),
                );
                continue;
            }
            let searches = if is_agg { &agg } else { &spj };
            let rejecting: Vec<usize> = match stored.get(&id) {
                Some(keys) => searches
                    .iter()
                    .zip(keys)
                    .enumerate()
                    .filter(|(_, (s, key))| !s.accepts(key))
                    .map(|(lvl, _)| lvl)
                    .collect(),
                // No stored entry at all: every search trivially misses
                // the view. Report with the empty rejecting set so the
                // message points at the missing entry.
                None => Vec::new(),
            };
            let exempt = strict_filter_exempt_levels(is_agg);
            if engine.config().strict_expression_filter
                && !rejecting.is_empty()
                && rejecting.iter().all(|l| exempt.contains(l))
            {
                report.push(
                    Diagnostic::new(
                        RuleId::FilterCompleteness,
                        Severity::Info,
                        "view pruned only by the documented §4.2.7 strict expression \
                         filter; the matcher could recompute the expression",
                    )
                    .with_view(&view.name)
                    .with_query(&qlabel),
                );
                continue;
            }
            let levels: Vec<&str> = rejecting.iter().map(|&l| LEVEL_NAMES[l]).collect();
            let first = levels
                .first()
                .copied()
                .unwrap_or("<none — view missing from its tree>");
            report.push(
                Diagnostic::error(
                    RuleId::FilterCompleteness,
                    "filter tree pruned a view the exhaustive matcher accepts",
                )
                .with_view(&view.name)
                .with_query(&qlabel)
                .with_detail(format!("first failing level: {first} (all: {levels:?})")),
            );
        }
    }
}
