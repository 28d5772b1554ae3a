//! Precomputed analysis of an SPJG block used throughout matching and
//! filtering.
//!
//! "To speed up view matching we maintain in memory a description of every
//! materialized view. The view descriptions contain all information needed
//! to apply the tests" (section 4). The same summary structure is computed
//! for the query expression at each invocation of the view-matching rule.

use mv_expr::{BoolExpr, ColRef, Conjunct, EquivClasses, Interval, OccId, Template};
use mv_plan::SpjgExpr;
use std::collections::HashMap;

/// Derived predicate information for one SPJG block.
#[derive(Debug, Clone)]
pub struct ExprSummary {
    /// Column equivalence classes from the `PE` conjuncts (section 3.1.1).
    pub ec: EquivClasses,
    /// Range intervals per equivalence class, keyed by the class
    /// representative ([`EquivClasses::find`] of the constrained column).
    /// Includes check-constraint-derived bounds (the *effective* ranges
    /// used by the subsumption tests).
    pub ranges: HashMap<ColRef, Interval>,
    /// Ranges built from the expression's own conjuncts only — the bounds
    /// that compensating predicates may need to enforce. Check-derived
    /// bounds hold on every view row and never need compensation.
    pub genuine_ranges: HashMap<ColRef, Interval>,
    /// Residual predicates as shallow templates (section 3.1.2), parallel
    /// to [`ExprSummary::residual_bools`].
    pub residuals: Vec<Template>,
    /// The original residual conjuncts (needed to emit compensations).
    pub residual_bools: Vec<BoolExpr>,
    /// How many leading entries of [`ExprSummary::residuals`] came from
    /// the expression itself (as opposed to check constraints folded into
    /// the antecedent, section 3.1.2). Only genuine residuals are eligible
    /// as compensating predicates — check-derived ones hold on every row
    /// and never need enforcement.
    pub genuine_residuals: usize,
}

impl ExprSummary {
    /// Analyze a block: compute equivalence classes, fold range conjuncts
    /// into per-class intervals, and template the residual conjuncts.
    ///
    /// A range conjunct that cannot be folded (incomparable bound types,
    /// `<>`) is demoted to a residual predicate, so no information is
    /// silently dropped.
    pub fn analyze(expr: &SpjgExpr) -> ExprSummary {
        Self::analyze_with_extras(expr, &[])
    }

    /// Analyze a block with extra conjuncts folded into the antecedent —
    /// the check-constraint treatment of section 3.1.2: "check constraints
    /// on the tables of a query can be added to the where-clause without
    /// changing the query result". The extra conjuncts strengthen the
    /// equivalence classes and ranges and can satisfy view residuals, but
    /// are excluded from compensating-predicate generation.
    pub fn analyze_with_extras(expr: &SpjgExpr, extras: &[Conjunct]) -> ExprSummary {
        let mut ec = expr.equiv_classes();
        for conj in extras {
            if let Conjunct::ColumnEq(a, b) = conj {
                ec.union(*a, *b);
            }
        }
        let mut ranges: HashMap<ColRef, Interval> = HashMap::new();
        let mut genuine_ranges: HashMap<ColRef, Interval> = HashMap::new();
        let mut residuals = Vec::new();
        let mut residual_bools = Vec::new();
        let mut genuine_residuals = 0;
        let genuine_count = expr.conjuncts.len();
        for (i, conj) in expr.conjuncts.iter().chain(extras).enumerate() {
            let genuine = i < genuine_count;
            match conj {
                Conjunct::ColumnEq(..) => {}
                Conjunct::Range { col, op, value } => {
                    let root = ec.find(*col);
                    let iv = ranges.entry(root).or_default();
                    if !iv.apply(*op, value) {
                        // Check-derived ranges that fail to fold are just
                        // dropped (they hold anyway); genuine ones demote
                        // to residuals.
                        if genuine {
                            let b = conj.to_bool();
                            residuals.insert(genuine_residuals, Template::of_bool(&b));
                            residual_bools.insert(genuine_residuals, b);
                            genuine_residuals += 1;
                        }
                    } else if genuine {
                        genuine_ranges.entry(root).or_default().apply(*op, value);
                    }
                }
                Conjunct::Residual(p) => {
                    if genuine {
                        residuals.insert(genuine_residuals, Template::of_bool(p));
                        residual_bools.insert(genuine_residuals, p.clone());
                        genuine_residuals += 1;
                    } else {
                        residuals.push(Template::of_bool(p));
                        residual_bools.push(p.clone());
                    }
                }
            }
        }
        ExprSummary {
            ec,
            ranges,
            genuine_ranges,
            residuals,
            residual_bools,
            genuine_residuals,
        }
    }

    /// The range interval of the class containing `col`, if constrained.
    pub fn range_of(&self, col: ColRef) -> Option<&Interval> {
        self.ranges.get(&self.ec.find(col))
    }

    /// Is `col` constrained by a range predicate (through its class)?
    pub fn is_range_constrained(&self, col: ColRef) -> bool {
        self.range_of(col).is_some()
    }

    /// Is `c` covered by a null-rejecting predicate (other than an
    /// equijoin)? The nullable-FK relaxation of section 3.2 (Example 5)
    /// admits an edge over a nullable FK column the query null-rejects.
    pub fn is_null_rejecting(&self, c: ColRef) -> bool {
        if self.is_range_constrained(c) {
            return true;
        }
        let same = |x: ColRef| x == c || self.ec.same(x, c);
        self.residual_bools.iter().any(|p| match p {
            BoolExpr::Compare { .. } | BoolExpr::Like { .. } => p.columns().into_iter().any(same),
            BoolExpr::IsNull {
                negated: true,
                expr,
            } => expr.columns().into_iter().any(same),
            _ => false,
        })
    }
}

/// Remap one column reference.
pub fn remap_col(c: ColRef, map: &impl Fn(OccId) -> OccId) -> ColRef {
    ColRef {
        occ: map(c.occ),
        col: c.col,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_catalog::tpch::tpch_catalog;
    use mv_catalog::Value;
    use mv_expr::{Bound, CmpOp, ScalarExpr as S};
    use mv_plan::NamedExpr;

    fn cr(occ: u32, col: u32) -> ColRef {
        ColRef::new(occ, col)
    }

    #[test]
    fn ranges_fold_through_equivalence_classes() {
        let (_, t) = tpch_catalog();
        // l_partkey = p_partkey AND l_partkey > 150 AND p_partkey < 160:
        // both bounds land on the same class interval.
        let pred = BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 1), cr(1, 0)),
            BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Gt, S::lit(150i64)),
            BoolExpr::cmp(S::col(cr(1, 0)), CmpOp::Lt, S::lit(160i64)),
        ]);
        let e = SpjgExpr::spj(
            vec![t.lineitem, t.part],
            pred,
            vec![NamedExpr::new(S::col(cr(0, 1)), "k")],
        );
        let s = ExprSummary::analyze(&e);
        assert_eq!(s.ranges.len(), 1);
        let iv = s.range_of(cr(0, 1)).unwrap();
        assert_eq!(iv.lo, Bound::Excl(Value::Int(150)));
        assert_eq!(iv.hi, Bound::Excl(Value::Int(160)));
        // Both members of the class see the same range.
        assert_eq!(s.range_of(cr(1, 0)), Some(iv));
        assert!(s.is_range_constrained(cr(1, 0)));
        assert!(!s.is_range_constrained(cr(0, 4)));
        assert!(s.residuals.is_empty());
    }

    #[test]
    fn unfoldable_range_becomes_residual() {
        let (_, t) = tpch_catalog();
        // p_size > 5 AND p_size < 'oops' — second bound incomparable.
        let pred = BoolExpr::and(vec![
            BoolExpr::cmp(S::col(cr(0, 5)), CmpOp::Gt, S::lit(5i64)),
            BoolExpr::cmp(S::col(cr(0, 5)), CmpOp::Lt, S::lit("oops")),
        ]);
        let e = SpjgExpr::spj(
            vec![t.part],
            pred,
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        let s = ExprSummary::analyze(&e);
        assert_eq!(s.ranges.len(), 1);
        assert_eq!(s.residuals.len(), 1);
        assert_eq!(s.residual_bools.len(), 1);
    }

    #[test]
    fn residual_templates_recorded() {
        let (_, t) = tpch_catalog();
        let pred = BoolExpr::Like {
            expr: S::col(cr(0, 1)),
            pattern: "%steel%".into(),
            negated: false,
        };
        let e = SpjgExpr::spj(
            vec![t.part],
            pred,
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        let s = ExprSummary::analyze(&e);
        assert_eq!(s.residuals.len(), 1);
        assert!(s.residuals[0].text.contains("LIKE"));
        assert_eq!(s.residuals[0].cols, vec![cr(0, 1)]);
    }
}
