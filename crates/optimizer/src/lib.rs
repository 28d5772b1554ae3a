//! A transformation-based query optimizer with integrated view matching.
//!
//! The paper integrates its view-matching algorithm into SQL Server's
//! Cascades-based optimizer as an ordinary transformation rule: "multiple
//! rewrites may be generated; some exploiting materialized views, some
//! not. All rewrites participate in the normal cost-based optimization."
//! This crate reproduces that integration with a memo-based optimizer:
//!
//! * a **memo** of groups, one per *connected subset* of the query's table
//!   occurrences — the plan space that Cascades' join-commutativity and
//!   join-associativity rules enumerate;
//! * per group, **physical alternatives**: scans, hash/nested-loop joins
//!   over every connected partition, and — via the view-matching rule —
//!   compensated scans of materialized views;
//! * the **eager pre-aggregation** transformation (Yan & Larson, cited as
//!   \[16\]) that pushes a group-by below the top joins; the view-matching
//!   rule fires on the pre-aggregated block exactly as in the paper's
//!   Example 4;
//! * a simple **cost model** over the cardinality estimates of
//!   [`mv_plan::card`], so the choice among substitutes and join orders is
//!   fully cost based;
//! * a **plan cache**: a block this configuration planned before is served
//!   from the engine's epoch-stamped plan cache without a search, until a
//!   catalog change touches one of its tables, a write round or restamp
//!   moves freshness under a policy other than `StaleOk`, or the plan is
//!   evicted ([`mv_core::MatchingEngine::probe_plan`]).
//!
//! The optimizer never *requires* views: with [`OptimizerConfig::use_views`]
//! off it is a plain join-order optimizer, which is the baseline of the
//! paper's Figure 2.

pub mod block;
pub mod cost;
pub mod optimizer;

pub use block::BlockInfo;
pub use optimizer::{Optimized, Optimizer, OptimizerConfig, OptimizerStats, PlanInvariant};
