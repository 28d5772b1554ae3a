//! `mv-verify` — an independent static soundness analyzer for view-matching
//! results.
//!
//! The matcher (`mv-core`) decides *whether* a materialized view can answer
//! a query and builds a [`Substitute`](mv_plan::Substitute); this crate
//! re-derives the paper's conditions (Goldstein & Larson, SIGMOD 2001,
//! §3.1–§3.3) from the raw predicates and the catalog, **sharing no logic
//! with the matcher**, and reports violations as structured diagnostics:
//!
//! * expression-level rules ([`verify_expr`], [`verify_view_expr`]) —
//!   column bounds, equivalence-class contradictions, unsatisfiable range
//!   conjunctions, rollup-hostile view shapes;
//! * substitute-level rules ([`verify_substitute`]) — table
//!   correspondence, equijoin/range/residual subsumption and compensation,
//!   output mapping, FK-join elimination, backjoin keys, and aggregate
//!   rollup validity.
//!
//! Deployment layers:
//!
//! 1. `MatchingEngine` verifies every substitute it produces behind
//!    `debug_assertions`, turning the whole test suite into an oracle for
//!    both the matcher and this analyzer.
//! 2. The `mv-lint` binary (`crates/lint`) runs the rules over the TPC-H
//!    workload and emits a machine-readable JSON report for CI.
//! 3. `mv-lint --exec-check` cross-checks flagged substitutes by executing
//!    both plans on small generated data.

pub mod analysis;
pub mod diag;
pub mod expr_rules;
pub mod plan_rules;
pub mod substitute_rules;

pub use diag::{json_string, Context, Diagnostic, Report, RuleId, Severity};
pub use expr_rules::{verify_expr, verify_view_expr};
pub use plan_rules::verify_plan;
pub use substitute_rules::{verify_substitute, VerifyContext};
