//! # matview — view matching for materialized views
//!
//! A from-scratch Rust reproduction of Goldstein & Larson, *"Optimizing
//! Queries Using Materialized Views: A Practical, Scalable Solution"*
//! (SIGMOD 2001): the SPJG view-matching algorithm, the filter-tree index
//! over view definitions, and their integration into a cost-based,
//! transformation-style query optimizer — plus everything needed to run
//! and validate them end to end (a SQL front end, a TPC-H style data
//! generator, an in-memory executor, and the paper's randomized workload
//! generator).
//!
//! ## Quick start
//!
//! ```
//! use matview::prelude::*;
//!
//! // Schema + data + statistics.
//! let (db, _) = generate_tpch(&TpchScale::tiny(), 42);
//!
//! // Register a materialized view.
//! let mut engine = MatchingEngine::new(db.catalog.clone(), MatchConfig::default());
//! let view = parse_view(
//!     "CREATE VIEW small_parts WITH SCHEMABINDING AS \
//!      SELECT p_partkey, p_size FROM dbo.part WHERE p_size < 40",
//!     &db.catalog,
//! )
//! .unwrap();
//! let view_rows = materialize_view(&db, &view);
//! let view_id = engine.add_view(view).unwrap();
//!
//! // Ask the matcher to rewrite a query.
//! let query = parse_query(
//!     "SELECT p_partkey FROM part WHERE p_size < 20",
//!     &db.catalog,
//! )
//! .unwrap();
//! let substitutes = engine.find_substitutes(&query);
//! assert_eq!(substitutes.len(), 1);
//!
//! // The rewrite returns exactly the original query's rows.
//! let from_view = execute_substitute_with(&db, &view_rows, &substitutes[0].1);
//! let direct = execute_spjg(&db, &query);
//! assert!(bag_eq(&from_view, &direct));
//! # let _ = view_id;
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`catalog`] | `mv-catalog` | schema, constraints, statistics, TPC-H |
//! | [`expr`] | `mv-expr` | scalar/boolean expressions, CNF, intervals, equivalence classes |
//! | [`plan`] | `mv-plan` | SPJG blocks, views, substitutes, physical plans, cardinality |
//! | [`sql`] | `mv-sql` | parser + binder for the indexed-view SQL subset |
//! | [`core`] | `mv-core` | **the paper**: matching tests, compensations, lattice index, filter tree |
//! | [`optimizer`] | `mv-optimizer` | memo optimizer with the view-matching rule and pre-aggregation |
//! | [`exec`] | `mv-exec` | row executor: oracle, substitutes, physical plans |
//! | [`data`] | `mv-data` | deterministic TPC-H style data generator |
//! | [`workload`] | `mv-workload` | the section 5 random view/query generator |
//! | [`verify`] | `mv-verify` | independent static soundness analyzer + diagnostics |

pub use mv_catalog as catalog;
pub use mv_core as core;
pub use mv_data as data;
pub use mv_exec as exec;
pub use mv_expr as expr;
pub use mv_optimizer as optimizer;
pub use mv_plan as plan;
pub use mv_sql as sql;
pub use mv_verify as verify;
pub use mv_workload as workload;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use mv_catalog::tpch::tpch_catalog;
    pub use mv_catalog::{Catalog, ColumnType, TableId, Value};
    pub use mv_core::{MatchConfig, MatchingEngine};
    pub use mv_data::{generate_tpch, Database, TpchScale};
    pub use mv_exec::{
        bag_eq, execute_plan, execute_spjg, execute_substitute_with, materialize_view, ViewStore,
    };
    pub use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr};
    pub use mv_optimizer::{Optimizer, OptimizerConfig};
    pub use mv_plan::{
        AggFunc, NamedAgg, NamedExpr, OutputList, PhysicalPlan, SpjgExpr, Substitute, ViewDef,
        ViewId,
    };
    pub use mv_sql::{parse_query, parse_statement, parse_view};
    pub use mv_workload::{Generator, WorkloadParams};
}
