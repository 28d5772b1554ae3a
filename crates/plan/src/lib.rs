//! Plan representations: the SPJG normal form that view matching operates
//! on, materialized-view definitions, substitute expressions, physical
//! plans, and cardinality estimation.
//!
//! The paper restricts both queries and views to single-block SQL —
//! selections, inner joins and an optional final group-by (section 2). We
//! represent such a block in a normal form, [`SpjgExpr`]: a list of table
//! occurrences, a classified CNF predicate, and an output list that is
//! either a projection (SPJ) or a grouping with aggregates (SPJG).

pub mod card;
pub mod display;
pub mod physical;
pub mod spjg;
pub mod substitute;
pub mod view;

pub use card::estimate_rows;
pub use physical::PhysicalPlan;
pub use spjg::{AggFunc, NamedAgg, NamedExpr, OutputList, SpjgExpr};
pub use substitute::{BackJoin, Freshness, Substitute};
pub use view::{ViewDef, ViewId, ViewSet};
