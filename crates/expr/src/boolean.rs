//! Boolean (predicate) expressions with SQL three-valued logic, and CNF
//! conversion.

use crate::colref::ColRef;
use crate::like::like_match;
use crate::scalar::{ColumnNamer, ScalarExpr};
use mv_catalog::Value;
use std::cmp::Ordering;
use std::fmt;

/// Comparison operators. The paper's range predicates use `<, <=, =, >=, >`;
/// `<>` exists in SQL but is classified as residual.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Lt,
    Le,
    Eq,
    Ge,
    Gt,
    Ne,
}

impl CmpOp {
    /// The operator with the operand sides swapped: `a op b` ≡ `b op' a`.
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }

    /// Logical negation: `NOT (a op b)` ≡ `a op' b` (two-valued; NULL
    /// handling is done by the caller since `NOT unknown = unknown`).
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }

    /// Apply to an ordering.
    pub fn evaluate(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ge => ord != Ordering::Less,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ne => ord != Ordering::Equal,
        }
    }

    /// SQL token.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
            CmpOp::Ne => "<>",
        }
    }
}

/// A boolean expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BoolExpr {
    /// Conjunction. Empty = TRUE.
    And(Vec<BoolExpr>),
    /// Disjunction. Empty = FALSE.
    Or(Vec<BoolExpr>),
    /// Negation.
    Not(Box<BoolExpr>),
    /// Comparison between two scalar expressions.
    Compare {
        op: CmpOp,
        left: ScalarExpr,
        right: ScalarExpr,
    },
    /// `expr [NOT] LIKE 'pattern'`.
    Like {
        expr: ScalarExpr,
        pattern: String,
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull { expr: ScalarExpr, negated: bool },
    /// Constant TRUE/FALSE.
    Literal(bool),
}

impl BoolExpr {
    /// Build `left op right`.
    pub fn cmp(left: ScalarExpr, op: CmpOp, right: ScalarExpr) -> Self {
        BoolExpr::Compare { op, left, right }
    }

    /// Build a column-equality predicate.
    pub fn col_eq(a: ColRef, b: ColRef) -> Self {
        BoolExpr::cmp(ScalarExpr::Column(a), CmpOp::Eq, ScalarExpr::Column(b))
    }

    /// Conjunction of possibly-empty parts (flattens nested ANDs).
    pub fn and(parts: Vec<BoolExpr>) -> Self {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                BoolExpr::And(inner) => flat.extend(inner),
                BoolExpr::Literal(true) => {}
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => BoolExpr::Literal(true),
            1 => flat.pop().unwrap(),
            _ => BoolExpr::And(flat),
        }
    }

    /// Disjunction of parts (flattens nested ORs).
    pub fn or(parts: Vec<BoolExpr>) -> Self {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                BoolExpr::Or(inner) => flat.extend(inner),
                BoolExpr::Literal(false) => {}
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => BoolExpr::Literal(false),
            1 => flat.pop().unwrap(),
            _ => BoolExpr::Or(flat),
        }
    }

    /// All column references, left-to-right with duplicates.
    pub fn columns(&self) -> Vec<ColRef> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    /// Append column references into `out`.
    pub fn collect_columns(&self, out: &mut Vec<ColRef>) {
        self.try_for_each_column(&mut |c| {
            out.push(c);
            Some(())
        });
    }

    /// Visit the column references left-to-right, in the order
    /// [`BoolExpr::try_map_columns`] maps them, stopping at the first
    /// `None`: that mapping's success test without building its result.
    pub fn try_for_each_column(&self, f: &mut impl FnMut(ColRef) -> Option<()>) -> Option<()> {
        match self {
            BoolExpr::And(v) | BoolExpr::Or(v) => {
                v.iter().try_for_each(|p| p.try_for_each_column(f))
            }
            BoolExpr::Not(p) => p.try_for_each_column(f),
            BoolExpr::Compare { left, right, .. } => {
                left.try_for_each_column(f)?;
                right.try_for_each_column(f)
            }
            BoolExpr::Like { expr, .. } | BoolExpr::IsNull { expr, .. } => {
                expr.try_for_each_column(f)
            }
            BoolExpr::Literal(_) => Some(()),
        }
    }

    /// Append the scalar literals into `out`, left-to-right.
    pub fn collect_literals<'a>(&'a self, out: &mut Vec<&'a Value>) {
        match self {
            BoolExpr::And(v) | BoolExpr::Or(v) => {
                for p in v {
                    p.collect_literals(out);
                }
            }
            BoolExpr::Not(p) => p.collect_literals(out),
            BoolExpr::Compare { left, right, .. } => {
                left.collect_literals(out);
                right.collect_literals(out);
            }
            BoolExpr::Like { expr, .. } | BoolExpr::IsNull { expr, .. } => {
                expr.collect_literals(out)
            }
            BoolExpr::Literal(_) => {}
        }
    }

    /// Rewrite every column reference through `f`.
    pub fn map_columns(&self, f: &mut impl FnMut(ColRef) -> ColRef) -> BoolExpr {
        self.try_map_columns(&mut |c| Some(f(c)))
            .expect("infallible mapping")
    }

    /// Rewrite column references through a fallible mapping.
    pub fn try_map_columns(
        &self,
        f: &mut impl FnMut(ColRef) -> Option<ColRef>,
    ) -> Option<BoolExpr> {
        Some(match self {
            BoolExpr::And(v) => BoolExpr::And(
                v.iter()
                    .map(|p| p.try_map_columns(f))
                    .collect::<Option<Vec<_>>>()?,
            ),
            BoolExpr::Or(v) => BoolExpr::Or(
                v.iter()
                    .map(|p| p.try_map_columns(f))
                    .collect::<Option<Vec<_>>>()?,
            ),
            BoolExpr::Not(p) => BoolExpr::Not(Box::new(p.try_map_columns(f)?)),
            BoolExpr::Compare { op, left, right } => BoolExpr::Compare {
                op: *op,
                left: left.try_map_columns(f)?,
                right: right.try_map_columns(f)?,
            },
            BoolExpr::Like {
                expr,
                pattern,
                negated,
            } => BoolExpr::Like {
                expr: expr.try_map_columns(f)?,
                pattern: pattern.clone(),
                negated: *negated,
            },
            BoolExpr::IsNull { expr, negated } => BoolExpr::IsNull {
                expr: expr.try_map_columns(f)?,
                negated: *negated,
            },
            BoolExpr::Literal(b) => BoolExpr::Literal(*b),
        })
    }

    /// SQL three-valued evaluation: `Some(true)`, `Some(false)` or `None`
    /// (unknown). A WHERE clause keeps a row iff the result is
    /// `Some(true)`.
    pub fn eval(&self, row: &impl Fn(ColRef) -> Value) -> Option<bool> {
        match self {
            BoolExpr::Literal(b) => Some(*b),
            BoolExpr::And(parts) => {
                let mut unknown = false;
                for p in parts {
                    match p.eval(row) {
                        Some(false) => return Some(false),
                        None => unknown = true,
                        Some(true) => {}
                    }
                }
                if unknown {
                    None
                } else {
                    Some(true)
                }
            }
            BoolExpr::Or(parts) => {
                let mut unknown = false;
                for p in parts {
                    match p.eval(row) {
                        Some(true) => return Some(true),
                        None => unknown = true,
                        Some(false) => {}
                    }
                }
                if unknown {
                    None
                } else {
                    Some(false)
                }
            }
            BoolExpr::Not(p) => p.eval(row).map(|b| !b),
            BoolExpr::Compare { op, left, right } => {
                let l = left.eval(row);
                let r = right.eval(row);
                l.sql_cmp(&r).map(|ord| op.evaluate(ord))
            }
            BoolExpr::Like {
                expr,
                pattern,
                negated,
            } => match expr.eval(row) {
                Value::Null => None,
                Value::Str(s) => Some(like_match(&s, pattern) != *negated),
                // LIKE over a non-string is a type error; treat as unknown.
                _ => None,
            },
            BoolExpr::IsNull { expr, negated } => {
                // IS NULL is two-valued even over NULL inputs.
                Some(expr.eval(row).is_null() != *negated)
            }
        }
    }

    /// Negation-normal form: push `NOT` down to the leaves.
    #[allow(clippy::wrong_self_convention)]
    fn to_nnf(self, negate: bool) -> BoolExpr {
        match self {
            BoolExpr::Not(inner) => inner.to_nnf(!negate),
            BoolExpr::And(parts) => {
                let parts = parts.into_iter().map(|p| p.to_nnf(negate)).collect();
                if negate {
                    BoolExpr::or(parts)
                } else {
                    BoolExpr::and(parts)
                }
            }
            BoolExpr::Or(parts) => {
                let parts = parts.into_iter().map(|p| p.to_nnf(negate)).collect();
                if negate {
                    BoolExpr::and(parts)
                } else {
                    BoolExpr::or(parts)
                }
            }
            BoolExpr::Compare { op, left, right } => {
                // NOTE: `NOT (a < b)` is rewritten to `a >= b`. Under SQL
                // three-valued logic both evaluate to unknown when either
                // side is NULL, so the rewrite is exact.
                let op = if negate { op.negated() } else { op };
                BoolExpr::Compare { op, left, right }
            }
            BoolExpr::Like {
                expr,
                pattern,
                negated,
            } => BoolExpr::Like {
                expr,
                pattern,
                negated: negated != negate,
            },
            BoolExpr::IsNull { expr, negated } => BoolExpr::IsNull {
                expr,
                negated: negated != negate,
            },
            BoolExpr::Literal(b) => BoolExpr::Literal(b != negate),
        }
    }

    /// Convert to conjunctive normal form and return the conjuncts.
    ///
    /// The distribution step can blow up exponentially in theory; the SQL
    /// subset the paper considers (and our generator produces) keeps
    /// predicates small, matching the paper's assumption that predicates
    /// "have been converted into conjunctive normal form".
    pub fn to_cnf(self) -> Vec<BoolExpr> {
        let nnf = self.to_nnf(false);
        let cnf = distribute(nnf);
        match cnf {
            BoolExpr::And(parts) => parts,
            BoolExpr::Literal(true) => Vec::new(),
            other => vec![other],
        }
    }
}

/// Distribute OR over AND, bottom-up.
fn distribute(e: BoolExpr) -> BoolExpr {
    match e {
        BoolExpr::And(parts) => BoolExpr::and(parts.into_iter().map(distribute).collect()),
        BoolExpr::Or(parts) => {
            let parts: Vec<BoolExpr> = parts.into_iter().map(distribute).collect();
            // Fold pairwise: or(A, B) where A, B are in CNF.
            parts.into_iter().fold(BoolExpr::Literal(false), or_of_cnfs)
        }
        other => other,
    }
}

/// OR of two CNF expressions, re-normalized to CNF.
fn or_of_cnfs(a: BoolExpr, b: BoolExpr) -> BoolExpr {
    match (a, b) {
        (BoolExpr::Literal(false), x) | (x, BoolExpr::Literal(false)) => x,
        (BoolExpr::Literal(true), _) | (_, BoolExpr::Literal(true)) => BoolExpr::Literal(true),
        (BoolExpr::And(parts), other) | (other, BoolExpr::And(parts)) => BoolExpr::and(
            parts
                .into_iter()
                .map(|p| or_of_cnfs(p, other.clone()))
                .collect(),
        ),
        (x, y) => BoolExpr::or(vec![x, y]),
    }
}

impl BoolExpr {
    /// Write the predicate's text into `out`, each column as `col` writes
    /// it ([`ScalarExpr::render`]). `Display` is this with [`ColRef`]'s
    /// own rendering.
    pub fn render(&self, out: &mut dyn fmt::Write, col: &ColumnNamer) -> fmt::Result {
        match self {
            BoolExpr::And(parts) | BoolExpr::Or(parts) => {
                let sep = if let BoolExpr::And(_) = self {
                    " AND "
                } else {
                    " OR "
                };
                out.write_char('(')?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        out.write_str(sep)?;
                    }
                    p.render(out, col)?;
                }
                out.write_char(')')
            }
            BoolExpr::Not(p) => {
                out.write_str("NOT ")?;
                p.render(out, col)
            }
            BoolExpr::Compare { op, left, right } => {
                left.render(out, col)?;
                write!(out, " {} ", op.symbol())?;
                right.render(out, col)
            }
            BoolExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                expr.render(out, col)?;
                let not = if *negated { "NOT " } else { "" };
                write!(out, " {not}LIKE '{pattern}'")
            }
            BoolExpr::IsNull { expr, negated } => {
                expr.render(out, col)?;
                write!(out, " IS {}NULL", if *negated { "NOT " } else { "" })
            }
            BoolExpr::Literal(b) => out.write_str(if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, &|out, c| write!(out, "{c}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::ScalarExpr as S;

    fn c(i: u32) -> ColRef {
        ColRef::new(0, i)
    }

    fn row_int(vals: &[i64]) -> impl Fn(ColRef) -> Value + '_ {
        move |cr: ColRef| Value::Int(vals[cr.col.0 as usize])
    }

    #[test]
    fn three_valued_and_or() {
        let null_row = |_: ColRef| Value::Null;
        let unknown = BoolExpr::cmp(S::col(c(0)), CmpOp::Lt, S::lit(5i64));
        assert_eq!(unknown.eval(&null_row), None);
        // FALSE AND unknown = FALSE.
        let e = BoolExpr::and(vec![BoolExpr::Literal(false), unknown.clone()]);
        assert_eq!(e.eval(&null_row), Some(false));
        // TRUE AND unknown = unknown.
        let e = BoolExpr::And(vec![BoolExpr::Literal(true), unknown.clone()]);
        assert_eq!(e.eval(&null_row), None);
        // TRUE OR unknown = TRUE.
        let e = BoolExpr::Or(vec![BoolExpr::Literal(true), unknown.clone()]);
        assert_eq!(e.eval(&null_row), Some(true));
        // NOT unknown = unknown.
        let e = BoolExpr::Not(Box::new(unknown));
        assert_eq!(e.eval(&null_row), None);
    }

    #[test]
    fn comparisons() {
        let r = row_int(&[10, 20]);
        assert_eq!(
            BoolExpr::cmp(S::col(c(0)), CmpOp::Lt, S::col(c(1))).eval(&r),
            Some(true)
        );
        assert_eq!(
            BoolExpr::cmp(S::col(c(0)), CmpOp::Eq, S::lit(10i64)).eval(&r),
            Some(true)
        );
        assert_eq!(
            BoolExpr::cmp(S::col(c(0)), CmpOp::Ne, S::lit(10i64)).eval(&r),
            Some(false)
        );
    }

    #[test]
    fn like_and_is_null() {
        let r = |cr: ColRef| {
            if cr.col.0 == 0 {
                Value::Str("nickel steel wire".into())
            } else {
                Value::Null
            }
        };
        let e = BoolExpr::Like {
            expr: S::col(c(0)),
            pattern: "%steel%".into(),
            negated: false,
        };
        assert_eq!(e.eval(&r), Some(true));
        let e = BoolExpr::Like {
            expr: S::col(c(1)),
            pattern: "%steel%".into(),
            negated: false,
        };
        assert_eq!(e.eval(&r), None);
        let e = BoolExpr::IsNull {
            expr: S::col(c(1)),
            negated: false,
        };
        assert_eq!(e.eval(&r), Some(true));
        let e = BoolExpr::IsNull {
            expr: S::col(c(0)),
            negated: true,
        };
        assert_eq!(e.eval(&r), Some(true));
    }

    #[test]
    fn cnf_of_conjunction_is_identity() {
        let e = BoolExpr::and(vec![
            BoolExpr::col_eq(c(0), c(1)),
            BoolExpr::cmp(S::col(c(2)), CmpOp::Gt, S::lit(5i64)),
        ]);
        let cnf = e.to_cnf();
        assert_eq!(cnf.len(), 2);
    }

    #[test]
    fn cnf_distributes_or_over_and() {
        // (a AND b) OR c  =>  (a OR c) AND (b OR c)
        let a = BoolExpr::cmp(S::col(c(0)), CmpOp::Eq, S::lit(1i64));
        let b = BoolExpr::cmp(S::col(c(1)), CmpOp::Eq, S::lit(2i64));
        let cc = BoolExpr::cmp(S::col(c(2)), CmpOp::Eq, S::lit(3i64));
        let e = BoolExpr::or(vec![BoolExpr::and(vec![a, b]), cc]);
        let cnf = e.clone().to_cnf();
        assert_eq!(cnf.len(), 2);
        for conj in &cnf {
            assert!(matches!(conj, BoolExpr::Or(v) if v.len() == 2));
        }
        // Semantics preserved on all 8 assignments.
        for bits in 0..8i64 {
            let vals = [bits & 1, ((bits >> 1) & 1) + 1, ((bits >> 2) & 1) + 2];
            let r = row_int(&vals);
            let orig = e.eval(&r);
            let as_cnf = BoolExpr::and(cnf.clone()).eval(&r);
            assert_eq!(orig, as_cnf, "bits={bits}");
        }
    }

    #[test]
    fn nnf_pushes_not_through_demorgan() {
        let a = BoolExpr::cmp(S::col(c(0)), CmpOp::Lt, S::lit(5i64));
        let b = BoolExpr::cmp(S::col(c(1)), CmpOp::Eq, S::lit(7i64));
        let e = BoolExpr::Not(Box::new(BoolExpr::and(vec![a, b])));
        let cnf = e.clone().to_cnf();
        // NOT(a AND b) = (NOT a) OR (NOT b) — a single OR clause.
        assert_eq!(cnf.len(), 1);
        let clause = &cnf[0];
        match clause {
            BoolExpr::Or(parts) => {
                assert!(parts.iter().all(|p| matches!(p, BoolExpr::Compare { .. })));
            }
            other => panic!("expected OR, got {other}"),
        }
        for vals in [[4, 7], [5, 7], [4, 0], [9, 9]] {
            let r = row_int(&vals);
            assert_eq!(e.eval(&r), BoolExpr::and(cnf.clone()).eval(&r));
        }
    }

    #[test]
    fn not_like_normalizes() {
        let e = BoolExpr::Not(Box::new(BoolExpr::Like {
            expr: S::col(c(0)),
            pattern: "x%".into(),
            negated: false,
        }));
        let cnf = e.to_cnf();
        assert_eq!(
            cnf,
            vec![BoolExpr::Like {
                expr: S::col(c(0)),
                pattern: "x%".into(),
                negated: true,
            }]
        );
    }

    #[test]
    fn double_negation() {
        let a = BoolExpr::cmp(S::col(c(0)), CmpOp::Lt, S::lit(5i64));
        let e = BoolExpr::Not(Box::new(BoolExpr::Not(Box::new(a.clone()))));
        assert_eq!(e.to_cnf(), vec![a]);
    }

    #[test]
    fn display_roundtrips_visually() {
        let e = BoolExpr::and(vec![
            BoolExpr::col_eq(c(0), c(1)),
            BoolExpr::Like {
                expr: S::col(c(2)),
                pattern: "%x%".into(),
                negated: true,
            },
        ]);
        assert_eq!(e.to_string(), "(t0.c0 = t0.c1 AND t0.c2 NOT LIKE '%x%')");
    }
}
