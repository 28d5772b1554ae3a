//! Classification of CNF conjuncts into the paper's three predicate
//! components (section 3.1.2):
//!
//! * `PE`: column-equality predicates `Ti.Cp = Tj.Cq`,
//! * `PR`: range predicates `Ti.Cp op c` with `op ∈ {<, <=, =, >=, >}`,
//! * `PU`: the residual predicates (everything else).

use crate::boolean::{BoolExpr, CmpOp};
use crate::colref::ColRef;
use crate::scalar::ScalarExpr;
use mv_catalog::Value;

/// One classified conjunct of a CNF predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Conjunct {
    /// `a = b` between two distinct column references (`PE`).
    ColumnEq(ColRef, ColRef),
    /// `col op constant` (`PR`).
    Range {
        col: ColRef,
        op: CmpOp,
        value: Value,
    },
    /// Anything else (`PU`).
    Residual(BoolExpr),
}

impl Conjunct {
    /// Column references of the conjunct, in textual order.
    pub fn columns(&self) -> Vec<ColRef> {
        match self {
            Conjunct::ColumnEq(a, b) => vec![*a, *b],
            Conjunct::Range { col, .. } => vec![*col],
            Conjunct::Residual(p) => p.columns(),
        }
    }

    /// Convert back into a boolean expression (for evaluation and for
    /// emitting substitute plans).
    pub fn to_bool(&self) -> BoolExpr {
        match self {
            Conjunct::ColumnEq(a, b) => BoolExpr::col_eq(*a, *b),
            Conjunct::Range { col, op, value } => BoolExpr::Compare {
                op: *op,
                left: ScalarExpr::Column(*col),
                right: ScalarExpr::Literal(value.clone()),
            },
            Conjunct::Residual(p) => p.clone(),
        }
    }

    /// Rewrite column references through a fallible mapping.
    pub fn try_map_columns(
        &self,
        f: &mut impl FnMut(ColRef) -> Option<ColRef>,
    ) -> Option<Conjunct> {
        Some(match self {
            Conjunct::ColumnEq(a, b) => Conjunct::ColumnEq(f(*a)?, f(*b)?),
            Conjunct::Range { col, op, value } => Conjunct::Range {
                col: f(*col)?,
                op: *op,
                value: value.clone(),
            },
            Conjunct::Residual(p) => Conjunct::Residual(p.try_map_columns(f)?),
        })
    }
}

/// Fold an expression that references no columns down to a literal value.
fn fold_constant(e: &ScalarExpr) -> Option<Value> {
    if !e.is_constant() {
        return None;
    }
    // The row accessor is never consulted for constant expressions.
    Some(e.eval(&|_| Value::Null))
}

/// Classify one CNF conjunct.
///
/// Constant subexpressions on the comparison side are folded first, so
/// `l_partkey < 100 + 50` classifies as a range predicate with bound 150.
/// `a = a` (same column on both sides) is *not* a column-equality predicate
/// — it is kept residual because under SQL semantics it rejects NULLs.
pub fn classify_one(conjunct: BoolExpr) -> Conjunct {
    if let BoolExpr::Compare { op, left, right } = &conjunct {
        // Column = Column.
        if *op == CmpOp::Eq {
            if let (Some(a), Some(b)) = (left.as_column(), right.as_column()) {
                if a != b {
                    // Normalize orientation for determinism.
                    let (a, b) = if a <= b { (a, b) } else { (b, a) };
                    return Conjunct::ColumnEq(a, b);
                } else {
                    return Conjunct::Residual(conjunct);
                }
            }
        }
        if *op != CmpOp::Ne {
            // Column op constant.
            if let (Some(c), Some(v)) = (left.as_column(), fold_constant(right)) {
                return Conjunct::Range {
                    col: c,
                    op: *op,
                    value: v,
                };
            }
            // Constant op column — flip.
            if let (Some(v), Some(c)) = (fold_constant(left), right.as_column()) {
                return Conjunct::Range {
                    col: c,
                    op: op.flipped(),
                    value: v,
                };
            }
        }
    }
    Conjunct::Residual(conjunct)
}

/// Convert a predicate to CNF and classify every conjunct.
pub fn classify(predicate: BoolExpr) -> Vec<Conjunct> {
    predicate.to_cnf().into_iter().map(classify_one).collect()
}

/// Reassemble classified conjuncts into one boolean expression.
pub fn conjuncts_to_bool(conjuncts: &[Conjunct]) -> BoolExpr {
    BoolExpr::and(conjuncts.iter().map(Conjunct::to_bool).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::{BinOp, ScalarExpr as S};

    fn c(occ: u32, col: u32) -> ColRef {
        ColRef::new(occ, col)
    }

    #[test]
    fn column_equality_detected_and_normalized() {
        let e = BoolExpr::col_eq(c(1, 0), c(0, 0));
        assert_eq!(classify_one(e), Conjunct::ColumnEq(c(0, 0), c(1, 0)));
    }

    #[test]
    fn self_equality_is_residual() {
        let e = BoolExpr::col_eq(c(0, 0), c(0, 0));
        assert!(matches!(classify_one(e), Conjunct::Residual(_)));
    }

    #[test]
    fn range_predicates_both_orientations() {
        // p_partkey < 1000
        let e = BoolExpr::cmp(S::col(c(0, 0)), CmpOp::Lt, S::lit(1000i64));
        assert_eq!(
            classify_one(e),
            Conjunct::Range {
                col: c(0, 0),
                op: CmpOp::Lt,
                value: Value::Int(1000)
            }
        );
        // 1000 > p_partkey  ==  p_partkey < 1000
        let e = BoolExpr::cmp(S::lit(1000i64), CmpOp::Gt, S::col(c(0, 0)));
        assert_eq!(
            classify_one(e),
            Conjunct::Range {
                col: c(0, 0),
                op: CmpOp::Lt,
                value: Value::Int(1000)
            }
        );
    }

    #[test]
    fn constant_folding_in_range_bound() {
        let bound = S::lit(100i64).binary(BinOp::Add, S::lit(50i64));
        let e = BoolExpr::cmp(S::col(c(0, 0)), CmpOp::Lt, bound);
        assert_eq!(
            classify_one(e),
            Conjunct::Range {
                col: c(0, 0),
                op: CmpOp::Lt,
                value: Value::Int(150)
            }
        );
    }

    #[test]
    fn ne_and_complex_predicates_are_residual() {
        let e = BoolExpr::cmp(S::col(c(0, 0)), CmpOp::Ne, S::lit(5i64));
        assert!(matches!(classify_one(e), Conjunct::Residual(_)));
        // l_quantity * l_extendedprice > 100
        let e = BoolExpr::cmp(
            S::col(c(0, 1)).binary(BinOp::Mul, S::col(c(0, 2))),
            CmpOp::Gt,
            S::lit(100i64),
        );
        assert!(matches!(classify_one(e), Conjunct::Residual(_)));
        let e = BoolExpr::Like {
            expr: S::col(c(0, 0)),
            pattern: "%x%".into(),
            negated: false,
        };
        assert!(matches!(classify_one(e), Conjunct::Residual(_)));
    }

    #[test]
    fn classify_full_where_clause() {
        // l_orderkey = o_orderkey AND o_custkey >= 50 AND p_name LIKE '%steel%'
        let e = BoolExpr::and(vec![
            BoolExpr::col_eq(c(0, 0), c(1, 0)),
            BoolExpr::cmp(S::col(c(1, 1)), CmpOp::Ge, S::lit(50i64)),
            BoolExpr::Like {
                expr: S::col(c(2, 1)),
                pattern: "%steel%".into(),
                negated: false,
            },
        ]);
        let conjuncts = classify(e.clone());
        assert_eq!(conjuncts.len(), 3);
        assert!(matches!(conjuncts[0], Conjunct::ColumnEq(..)));
        assert!(matches!(conjuncts[1], Conjunct::Range { .. }));
        assert!(matches!(conjuncts[2], Conjunct::Residual(_)));
        // Roundtrip preserves evaluation.
        let row = |cr: ColRef| match (cr.occ.0, cr.col.0) {
            (0, 0) | (1, 0) => Value::Int(7),
            (1, 1) => Value::Int(99),
            (2, 1) => Value::Str("hot rolled steel".into()),
            _ => Value::Null,
        };
        assert_eq!(conjuncts_to_bool(&conjuncts).eval(&row), e.eval(&row));
    }

    #[test]
    fn between_splits_into_two_ranges() {
        // x BETWEEN 1000 AND 1500 arrives as two conjuncts after parsing.
        let e = BoolExpr::and(vec![
            BoolExpr::cmp(S::col(c(0, 0)), CmpOp::Ge, S::lit(1000i64)),
            BoolExpr::cmp(S::col(c(0, 0)), CmpOp::Le, S::lit(1500i64)),
        ]);
        let conjuncts = classify(e);
        assert_eq!(
            conjuncts,
            vec![
                Conjunct::Range {
                    col: c(0, 0),
                    op: CmpOp::Ge,
                    value: Value::Int(1000)
                },
                Conjunct::Range {
                    col: c(0, 0),
                    op: CmpOp::Le,
                    value: Value::Int(1500)
                },
            ]
        );
    }
}
