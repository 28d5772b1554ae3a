//! Substitute expressions: the rewrites that view matching produces.
//!
//! A substitute evaluates a query expression from a materialized view: scan
//! the view, apply *compensating predicates* (section 3.1.3), project or
//! re-aggregate (section 3.3). All column references inside a substitute
//! use the convention `ColRef { occ: 0, col: i }` = "output column `i` of
//! the view" — the view plays the role of the single table occurrence.

use crate::spjg::OutputList;
use crate::view::ViewId;
use mv_catalog::{ColumnId, TableId};
use mv_expr::BoolExpr;

/// A compensating group-by for an aggregation query answered from a view
/// that is less aggregated than the query (or not aggregated at all).
pub type SubstituteGrouping = OutputList;

/// A base-table backjoin (the section 7 extension): the view "contains all
/// tables and rows needed but some columns are missing", and outputs a
/// non-null unique key of a base table, so the missing columns can be
/// pulled in by joining the view back to that table.
///
/// The join is an equijoin on the key: a row joins every row of `table`
/// whose key columns equal its key positions, once each, and a row whose
/// key holds a NULL joins none (SQL equality) — the served plan's
/// `HashJoin`. On data that satisfies the declared key (unique, columns
/// `NOT NULL`) that is exactly one base row per view row, so the join is
/// cardinality preserving and merely extends the row. The joined table's
/// columns follow the view outputs (and any earlier backjoins) in the
/// substitute's column space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackJoin {
    /// The base table to join back to.
    pub table: TableId,
    /// Key pairs: (position in the substitute's column space so far,
    /// column of `table`), covering a non-null unique key of `table`.
    pub key: Vec<(usize, ColumnId)>,
}

/// The staleness guarantee a freshness-aware matcher attaches to a
/// substitute: either the view's materialized state reflects the current
/// data epoch of every base table it is computed from, or it lags the
/// current epochs by some number of write rounds. Engines that never see
/// base-table writes stamp everything [`Freshness::Fresh`], so the default
/// preserves the static-catalog behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Freshness {
    /// The view's data epochs equal the current table data epochs: the
    /// substitute is an exact rewrite of the query over current data.
    #[default]
    Fresh,
    /// The view's materialized state trails the current data epochs.
    Stale {
        /// Largest per-table epoch gap across the view's base tables.
        lag: u64,
    },
}

impl Freshness {
    /// Classify a maximum per-table epoch gap.
    pub fn from_lag(lag: u64) -> Freshness {
        if lag == 0 {
            Freshness::Fresh
        } else {
            Freshness::Stale { lag }
        }
    }

    /// The epoch gap (0 when fresh).
    pub fn lag(&self) -> u64 {
        match self {
            Freshness::Fresh => 0,
            Freshness::Stale { lag } => *lag,
        }
    }

    /// Is the substitute guaranteed current?
    pub fn is_fresh(&self) -> bool {
        matches!(self, Freshness::Fresh)
    }
}

/// A single-view substitute expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Substitute {
    /// The view to scan.
    pub view: ViewId,
    /// Base-table backjoins applied (in order) before the predicates, each
    /// an equijoin on its key ([`BackJoin`]: every matching base row, no
    /// NULL key). Column space: view outputs, then each backjoin's table
    /// columns. Empty unless the backjoin extension is enabled.
    pub backjoins: Vec<BackJoin>,
    /// Compensating predicates over the substitute's column space,
    /// implicitly ANDed. Empty when the view contains exactly the
    /// required rows.
    pub predicates: Vec<BoolExpr>,
    /// The output computation over the (filtered) rows: a projection for
    /// SPJ queries, or a compensating group-by with rolled-up aggregates
    /// for aggregation queries.
    pub output: OutputList,
    /// The freshness guarantee the producing engine attached (see
    /// [`Freshness`]).
    pub freshness: Freshness,
}

impl Substitute {
    /// Does this substitute need no compensation at all (pure view scan +
    /// projection)?
    pub fn is_filter_free(&self) -> bool {
        self.predicates.is_empty() && self.backjoins.is_empty()
    }

    /// Does this substitute re-aggregate the view?
    pub fn regroups(&self) -> bool {
        matches!(self.output, OutputList::Aggregate { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spjg::NamedExpr;
    use mv_expr::{CmpOp, ColRef, ScalarExpr as S};

    #[test]
    fn substitute_flags() {
        let sub = Substitute {
            view: ViewId(3),
            backjoins: vec![],
            predicates: vec![],
            output: OutputList::Spj(vec![NamedExpr::new(S::col(ColRef::new(0, 0)), "a")]),
            freshness: Freshness::Fresh,
        };
        assert!(sub.is_filter_free());
        assert!(!sub.regroups());

        let sub = Substitute {
            view: ViewId(3),
            backjoins: vec![],
            predicates: vec![BoolExpr::cmp(
                S::col(ColRef::new(0, 1)),
                CmpOp::Lt,
                S::lit(10i64),
            )],
            output: OutputList::Aggregate {
                group_by: vec![],
                aggregates: vec![],
            },
            freshness: Freshness::Stale { lag: 2 },
        };
        assert!(!sub.is_filter_free());
        assert!(sub.regroups());
    }
}
