//! A row-oriented in-memory execution engine.
//!
//! One compiled executor and one interpreter, both operating on
//! [`mv_data::Database`] rows:
//!
//! * [`program`] holds [`PlanProgram`], the compiled form of a join
//!   block: one step per scan, a postfix program per predicate and output
//!   expression, joined rows kept as `u32` row-index tuples and values
//!   cloned once, into the output. It serves every caller: `mv-prove`'s
//!   enumeration, [`materialize_view`], `mv-maintain`'s materialization,
//!   refresh and delta joins, every checked substitute
//!   ([`SubstitutePipeline`]: the view's scan, a keyed join step per
//!   backjoin, the compensating predicates as step filters), and the
//!   optimizer's plans: [`physical::execute_plan`] lowers a
//!   [`mv_plan::PhysicalPlan`] to a short sequence of programs — the path
//!   that *serves* queries. A keyed join step probes a hash index over its
//!   scan ([`JoinIndexes`]) once the size of its inputs says that pays; one
//!   dense `Int` key column is addressed by offset, any other key hashed
//!   in one keyed SipHash pass. A caller that owns its data keeps the
//!   indexes across runs.
//! * [`spjg::execute_spjg`] and [`substitute::execute_substitute_with`]
//!   are the tree-walking interpreter: a straightforward evaluation of an
//!   SPJG block against base tables and of a matcher-produced
//!   [`mv_plan::Substitute`] against a view's rows (and the base tables
//!   its backjoins read). It is the *correctness oracle* the compiled
//!   path is differentially tested against
//!   (`tests/physical_differential.rs`, `tests/program_differential.rs`).
//!   `mv_lint::oracle`, the per-query checker stack the workspace's suites
//!   and `mv-lint` share, runs it too: it compares every substitute's and
//!   every optimized plan's rows with the interpreter's answer to the
//!   query.
//!
//! Both give a backjoin one meaning, the served plan's hash join: a view
//! row joins every base row whose key equals its own, and a row whose key
//! holds a NULL joins none.
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
pub use physical::{execute_plan, ViewStore};
pub use program::{rowbag_eq, ExecScratch, JoinIndexes, PlanProgram, RowBag, SubstitutePipeline};
pub use spjg::execute_spjg;
pub use substitute::{execute_substitute_with, materialize_view};
