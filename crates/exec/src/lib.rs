//! A row-oriented in-memory execution engine.
//!
//! Three execution paths, all operating on [`mv_data::Database`] rows:
//!
//! * [`physical::execute_plan`] runs an optimizer-produced
//!   [`mv_plan::PhysicalPlan`] — the path that *serves* queries. It
//!   compiles the plan ([`CompiledPlan`]) and materializes late: base
//!   tables and view contents are borrowed, intermediate relations are
//!   `u32` row-index tuples, and values are cloned once, into the result
//!   (a group's key values from its first tuple, when its row is built).
//!   No intermediate row is ever built, except the owned output of an
//!   aggregate or computed projection that sits under a join. A hash join
//!   addresses one dense `Int` key column by offset and hashes any other
//!   key in one keyed SipHash pass.
//! * [`program`] holds the compiled forms of an SPJG block and of a
//!   substitute ([`PlanProgram`], [`SubstituteProgram`],
//!   [`SubstitutePipeline`]) for callers that evaluate one expression over
//!   many databases or deltas: `mv-prove`'s enumeration,
//!   [`materialize_view`], and `mv-maintain`'s materialization, refresh
//!   and delta joins. A join step probes a hash index over its table
//!   ([`JoinIndexes`]) once the size of its inputs says that pays; a
//!   caller that owns its data keeps the indexes across runs. The
//!   physical executor is built from the same parts (postfix programs,
//!   index tuples, the group table).
//! * [`spjg::execute_spjg`] and [`substitute::execute_substitute_with`]
//!   are the tree-walking interpreter: a straightforward evaluation of an
//!   SPJG block against base tables and of a matcher-produced
//!   [`mv_plan::Substitute`] against a view's rows (and the base tables
//!   its backjoins read). It is the *correctness oracle* the two compiled
//!   paths are differentially tested against
//!   (`tests/physical_differential.rs`, `tests/program_differential.rs`).
//!   `mv_lint::oracle`, the per-query checker stack the workspace's suites
//!   and `mv-lint` share, runs it too: it compares every substitute's and
//!   every optimized plan's rows with the interpreter's answer to the
//!   query.
//!
//! Bag semantics throughout: duplicates are preserved exactly, and
//! [`compare::bag_eq`] provides multiset equality for tests. The central
//! soundness property of the whole reproduction is checked on top of this
//! crate: *whenever the matcher produces a substitute, executing it against
//! the materialized view returns exactly the same bag of rows as executing
//! the query against base data.*

pub mod agg;
pub mod chains;
pub mod compare;
pub mod physical;
pub mod program;
pub mod spjg;
pub mod substitute;

pub use compare::{bag_diff, bag_eq};
pub use physical::{execute_plan, CompiledPlan, ViewStore};
pub use program::{
    rowbag_eq, ExecScratch, JoinIndexes, PlanProgram, RowBag, SubstitutePipeline, SubstituteProgram,
};
pub use spjg::execute_spjg;
pub use substitute::{execute_substitute_with, materialize_view};
