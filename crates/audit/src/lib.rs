//! `mv-audit` — static completeness & catalog analyzer for the filter-tree
//! index and the view catalog.
//!
//! `mv-verify` (PR 2) proves *soundness*: every substitute the matcher
//! emits computes the query. This crate guards the dual failure mode —
//! the §4 filter tree silently *pruning* a view that would have matched —
//! plus the health of the catalog the whole machine indexes. Three passes,
//! all reporting through `mv-verify`'s diagnostics under the MV101+ band
//! (DESIGN.md §10):
//!
//! 1. [`audit_index`] (MV101–MV104) — re-derives every view's per-level
//!    keys from the engine's own token rendering, validates the stored
//!    index entries against them (plus the hub invariant and token
//!    bounds), and differentially checks over a workload that filter-tree
//!    candidates ⊇ exhaustive matcher accepts.
//! 2. [`audit_redundancy`] (MV110–MV112) — runs the matcher reflexively
//!    (each view definition as a query) to build the view-subsumption
//!    DAG; flags equivalent pairs, strictly subsumed views, and
//!    workload-dead views.
//! 3. [`audit_metadata`] (MV120–MV126) — validates the §3.2 preconditions
//!    the matcher trusts: FK structural soundness, unique referenced
//!    keys, null-free key/FK columns, and type agreement.
//!
//! The index pass audits the index it is handed
//! ([`audit_stored_entries`], [`audit_differential`]); [`audit_index`]
//! hands it the engine's own stored entries and filter-tree search.
//!
//! Deployment: `mv-lint --audit` runs all three passes over the §5
//! workload and folds the findings into the CI report; the corruption
//! suite in `tests/corruption.rs` hands the index pass damaged copies of
//! the stored entries, and the catalog passes broken catalogs, and pins
//! each mutation to its expected rule. The differential check is
//! `mv_core::MatchingEngine::filter_misses`, which the engine also runs,
//! and asserts, after every search `find_verdicts` computes in debug
//! builds; this crate turns its misses into MV102 diagnostics.

pub mod index;
pub mod metadata;
pub mod redundancy;

pub use index::{audit_differential, audit_index, audit_stored_entries};
pub use metadata::audit_metadata;
pub use redundancy::{audit_redundancy, RedundancyAudit};

use mv_core::MatchingEngine;
use mv_plan::SpjgExpr;
use mv_verify::Report;

/// Run all three audit passes over an engine and its workload queries,
/// folding every finding into one report.
pub fn audit_all(engine: &MatchingEngine, queries: &[SpjgExpr]) -> Report {
    let mut report = audit_index(engine, queries);
    let (_, redundancy) = audit_redundancy(engine, queries);
    report.extend(redundancy.diagnostics);
    report.extend(audit_metadata(engine.catalog()).diagnostics);
    report
}
