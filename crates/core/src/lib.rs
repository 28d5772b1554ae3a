//! The view-matching algorithm and filter-tree index of Goldstein & Larson,
//! *"Optimizing Queries Using Materialized Views: A Practical, Scalable
//! Solution"* (SIGMOD 2001).
//!
//! The central entry point is [`MatchingEngine`]: register materialized
//! views once, then call [`MatchingEngine::find_substitutes`] for every SPJG
//! expression the optimizer wants rewritten. Candidate views are narrowed
//! with a [`filter::FilterTree`] (section 4) and then checked with the full
//! matching tests of section 3 ([`matching::match_view_prepared`]), producing
//! [`mv_plan::Substitute`] expressions that compute the query from a view.
//! An optimizer that keeps one substitute per block asks
//! [`MatchingEngine::find_verdicts`] for the cost inputs of each instead,
//! and builds only the one it keeps ([`MatchingEngine::build_substitute`]).
//!
//! ```
//! use mv_catalog::tpch::tpch_catalog;
//! use mv_core::{MatchConfig, MatchingEngine};
//! use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
//! use mv_plan::{NamedExpr, SpjgExpr, ViewDef};
//!
//! let (catalog, t) = tpch_catalog();
//! let mut engine = MatchingEngine::new(catalog, MatchConfig::default());
//!
//! // Materialize: SELECT p_partkey, p_size FROM part WHERE p_size < 100
//! let view = SpjgExpr::spj(
//!     vec![t.part],
//!     BoolExpr::cmp(S::col(ColRef::new(0, 5)), CmpOp::Lt, S::lit(100i64)),
//!     vec![
//!         NamedExpr::new(S::col(ColRef::new(0, 0)), "p_partkey"),
//!         NamedExpr::new(S::col(ColRef::new(0, 5)), "p_size"),
//!     ],
//! );
//! engine.add_view(ViewDef::new("small_parts", view)).unwrap();
//!
//! // Query: SELECT p_partkey FROM part WHERE p_size < 50
//! let query = SpjgExpr::spj(
//!     vec![t.part],
//!     BoolExpr::cmp(S::col(ColRef::new(0, 5)), CmpOp::Lt, S::lit(50i64)),
//!     vec![NamedExpr::new(S::col(ColRef::new(0, 0)), "p_partkey")],
//! );
//! let subs = engine.find_substitutes(&query);
//! assert_eq!(subs.len(), 1); // computable from the view, with p_size < 50 compensation
//! ```

pub mod cache;
pub mod descriptor;
pub mod engine;
pub mod filter;
pub mod fkgraph;
pub mod lattice;
pub mod matching;
#[cfg(test)]
mod matching_tests;
#[cfg(mv_model)]
pub mod mutation;
#[cfg(debug_assertions)]
mod oracles;
mod register;
mod snapshot;
mod stamps;
pub mod stats;
pub mod summary;
pub mod sync;

pub use cache::{
    fingerprint, CacheLookup, EpochCache, Fingerprint, PlanProbe, PlanTicket, SubstituteCache,
};
pub use descriptor::{JoinCore, PreparedView};
pub use engine::MatchingEngine;
pub use filter::{
    col_token, decode_col_token, strict_filter_exempt_levels, table_token, FilterTree, LevelSearch,
    AGG_LEVELS, LEVEL_NAMES, SPJ_LEVELS,
};
pub use lattice::LatticeIndex;
pub use matching::{
    match_view_prepared, seek, FreshnessPolicy, MatchConfig, PreparedQuery, Verdict,
};
pub use snapshot::{ChecksGuard, ViewsGuard};
pub use stats::MatchStats;
pub use summary::ExprSummary;
