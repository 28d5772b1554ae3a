//! Physical plans produced by the optimizer and interpreted by the
//! execution engine.
//!
//! Column-reference convention: inside every operator's predicates and
//! expressions, `ColRef { occ: 0, col: i }` refers to column `i` of the
//! operator's *input* row. A join's input row is the concatenation of the
//! left row followed by the right row.

use crate::spjg::AggFunc;
use crate::view::ViewId;
use mv_catalog::TableId;
use mv_expr::{BoolExpr, ScalarExpr};
use std::fmt;

/// A physical operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Full scan of a base table; outputs all its columns.
    TableScan {
        /// The table to scan.
        table: TableId,
    },
    /// Scan of a materialized view; outputs the view's output columns.
    ViewScan {
        /// The view to scan.
        view: ViewId,
    },
    /// Row filter.
    Filter {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Keep rows for which this evaluates to TRUE.
        predicate: BoolExpr,
    },
    /// Hash equi-join (inner). Output = left columns ++ right columns.
    HashJoin {
        /// Build side.
        left: Box<PhysicalPlan>,
        /// Probe side.
        right: Box<PhysicalPlan>,
        /// Key column positions in the left input.
        left_keys: Vec<usize>,
        /// Key column positions in the right input (same length).
        right_keys: Vec<usize>,
        /// Extra non-equijoin predicate over the concatenated row.
        residual: Option<BoolExpr>,
    },
    /// Cartesian product (used when no equijoin keys exist). Output =
    /// left columns ++ right columns.
    NestedLoopJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Inner input.
        right: Box<PhysicalPlan>,
        /// Join predicate over the concatenated row (TRUE = cross join).
        predicate: Option<BoolExpr>,
    },
    /// Projection.
    Project {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Output expressions over the input row.
        exprs: Vec<ScalarExpr>,
    },
    /// Hash aggregation. Output = grouping expressions ++ aggregates.
    HashAggregate {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Grouping expressions over the input row (may be empty for a
        /// scalar aggregate).
        group_by: Vec<ScalarExpr>,
        /// Aggregates over the input row.
        aggregates: Vec<AggFunc>,
    },
}

impl PhysicalPlan {
    /// Direct children of this operator.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::TableScan { .. } | PhysicalPlan::ViewScan { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. } => vec![input],
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. } => vec![left, right],
        }
    }

    // `uses_view`, `views_used` and `node_count` match on the variants instead of going through
    // `children()`: the serve loop calls them on every read, and
    // `children()` allocates a `Vec` per node.

    /// Does this plan (anywhere in the tree) scan a materialized view?
    /// Figure 4 of the paper counts final plans with this property.
    pub fn uses_view(&self) -> bool {
        match self {
            PhysicalPlan::ViewScan { .. } => true,
            PhysicalPlan::TableScan { .. } => false,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. } => input.uses_view(),
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. } => {
                left.uses_view() || right.uses_view()
            }
        }
    }

    /// All views scanned by the plan, in left-to-right scan order.
    pub fn views_used(&self) -> Vec<ViewId> {
        let mut out = Vec::new();
        self.collect_views(&mut out);
        out
    }

    fn collect_views(&self, out: &mut Vec<ViewId>) {
        match self {
            PhysicalPlan::ViewScan { view } => out.push(*view),
            PhysicalPlan::TableScan { .. } => {}
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. } => input.collect_views(out),
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. } => {
                left.collect_views(out);
                right.collect_views(out);
            }
        }
    }

    /// Number of operators in the tree.
    pub fn node_count(&self) -> usize {
        match self {
            PhysicalPlan::TableScan { .. } | PhysicalPlan::ViewScan { .. } => 1,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. } => 1 + input.node_count(),
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. } => {
                1 + left.node_count() + right.node_count()
            }
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            PhysicalPlan::TableScan { table } => writeln!(f, "{pad}TableScan({table})"),
            PhysicalPlan::ViewScan { view } => writeln!(f, "{pad}ViewScan({view})"),
            PhysicalPlan::Filter { input, predicate } => {
                writeln!(f, "{pad}Filter({predicate})")?;
                input.fmt_indented(f, indent + 1)
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                residual,
            } => {
                write!(f, "{pad}HashJoin(keys {left_keys:?}={right_keys:?}")?;
                if let Some(r) = residual {
                    write!(f, ", residual {r}")?;
                }
                writeln!(f, ")")?;
                left.fmt_indented(f, indent + 1)?;
                right.fmt_indented(f, indent + 1)
            }
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                predicate,
            } => {
                match predicate {
                    Some(p) => writeln!(f, "{pad}NestedLoopJoin({p})")?,
                    None => writeln!(f, "{pad}NestedLoopJoin(cross)")?,
                }
                left.fmt_indented(f, indent + 1)?;
                right.fmt_indented(f, indent + 1)
            }
            PhysicalPlan::Project { input, exprs } => {
                write!(f, "{pad}Project(")?;
                for (i, e) in exprs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                writeln!(f, ")")?;
                input.fmt_indented(f, indent + 1)
            }
            PhysicalPlan::HashAggregate {
                input,
                group_by,
                aggregates,
            } => {
                write!(f, "{pad}HashAggregate(by ")?;
                for (i, e) in group_by.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "; ")?;
                for (i, a) in aggregates.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match a {
                        AggFunc::CountStar => write!(f, "count(*)")?,
                        AggFunc::Sum(e) => write!(f, "sum({e})")?,
                        AggFunc::SumZero(e) => write!(f, "sum0({e})")?,
                    }
                }
                writeln!(f, ")")?;
                input.fmt_indented(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_expr::{ColRef, ScalarExpr as S};

    fn sample_plan() -> PhysicalPlan {
        PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(PhysicalPlan::TableScan { table: TableId(0) }),
                right: Box::new(PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::ViewScan { view: ViewId(2) }),
                    predicate: BoolExpr::Literal(true),
                }),
                left_keys: vec![0],
                right_keys: vec![1],
                residual: None,
            }),
            exprs: vec![S::col(ColRef::new(0, 0))],
        }
    }

    #[test]
    fn view_detection() {
        let p = sample_plan();
        assert!(p.uses_view());
        assert_eq!(p.views_used(), vec![ViewId(2)]);
        let scan = PhysicalPlan::TableScan { table: TableId(1) };
        assert!(!scan.uses_view());
        assert!(scan.views_used().is_empty());
        assert_eq!(scan.node_count(), 1);
    }

    #[test]
    fn node_count_and_children() {
        let p = sample_plan();
        assert_eq!(p.node_count(), 5);
        assert_eq!(p.children().len(), 1);
    }

    #[test]
    fn two_view_scans_are_reported_left_to_right() {
        let p = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::NestedLoopJoin {
                left: Box::new(PhysicalPlan::ViewScan { view: ViewId(7) }),
                right: Box::new(sample_plan()),
                predicate: None,
            }),
            group_by: vec![],
            aggregates: vec![AggFunc::CountStar],
        };
        assert!(p.uses_view());
        assert_eq!(p.views_used(), vec![ViewId(7), ViewId(2)]);
        assert_eq!(p.node_count(), 8);
        assert_eq!(p.children().len(), 1);
        assert_eq!(p.children()[0].children().len(), 2);
    }

    #[test]
    fn display_is_indented_tree() {
        let text = sample_plan().to_string();
        assert!(text.contains("Project"));
        assert!(text.contains("  HashJoin"));
        assert!(text.contains("    TableScan(T0)"));
        assert!(text.contains("      ViewScan(V2)"));
    }
}
