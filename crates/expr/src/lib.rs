//! Scalar expressions, predicates, and the predicate machinery of the
//! view-matching algorithm.
//!
//! Section 3.1 of Goldstein & Larson assumes "that the selection predicates
//! of view and query expressions have been converted into conjunctive normal
//! form (CNF)" and then divides the conjuncts of a `WHERE` clause `W` into
//! three components:
//!
//! * `PE` — column-equality predicates `Ti.Cp = Tj.Cq` ([`Conjunct::ColumnEq`]),
//! * `PR` — range predicates `Ti.Cp op constant` ([`Conjunct::Range`]),
//! * `PU` — everything else, the *residual* predicates ([`Conjunct::Residual`]).
//!
//! This crate provides:
//!
//! * [`ColRef`]/[`OccId`] — occurrence-qualified column references, so that
//!   self-joins are representable,
//! * [`ScalarExpr`] and [`BoolExpr`] — scalar and boolean expression trees
//!   with SQL three-valued evaluation,
//! * CNF conversion ([`BoolExpr::to_cnf`]) and conjunct classification
//!   ([`classify`]),
//! * [`Interval`] — ranges with open/closed/unbounded endpoints, supporting
//!   the containment reasoning of the range subsumption test,
//! * [`EquivClasses`] — the union-find over column-equality predicates from
//!   section 3.1.1,
//! * [`Template`] — the paper's shallow expression representation: "a text
//!   string and a list of column references" (section 3.1.2, residual
//!   subsumption test).

pub mod boolean;
pub mod colref;
pub mod conjunct;
pub mod equiv;
pub mod interval;
pub mod like;
pub mod scalar;
pub mod template;

pub use boolean::{BoolExpr, CmpOp};
pub use colref::{ColRef, OccId};
pub use conjunct::{classify, conjuncts_to_bool, Conjunct};
pub use equiv::{ClassIndex, EquivClasses};
pub use interval::{Bound, Interval};
pub use scalar::{BinOp, ColumnNamer, ScalarExpr};
pub use template::Template;
