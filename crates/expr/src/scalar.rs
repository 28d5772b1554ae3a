//! Scalar (value-producing) expressions.

use crate::colref::ColRef;
use mv_catalog::{ColumnType, Value};
use std::fmt;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    /// Whether operand order is irrelevant. Used by the light
    /// canonicalization that makes `A+B` match `B+A` (the paper's example of
    /// the simplest useful matching function beyond pure syntax).
    pub fn commutative(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul)
    }

    /// SQL token.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }
}

/// A scalar expression tree over column references and literals.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScalarExpr {
    /// A column reference.
    Column(ColRef),
    /// A literal constant.
    Literal(Value),
    /// Binary arithmetic.
    Binary {
        op: BinOp,
        left: Box<ScalarExpr>,
        right: Box<ScalarExpr>,
    },
}

impl ScalarExpr {
    /// Shorthand for a column reference.
    pub fn col(c: ColRef) -> Self {
        ScalarExpr::Column(c)
    }

    /// Shorthand for a literal.
    pub fn lit(v: impl Into<Value>) -> Self {
        ScalarExpr::Literal(v.into())
    }

    /// Build `self op other`.
    pub fn binary(self, op: BinOp, other: ScalarExpr) -> Self {
        ScalarExpr::Binary {
            op,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// All column references in the expression, left-to-right, duplicates
    /// preserved (the order matters for [`crate::Template`] matching).
    pub fn columns(&self) -> Vec<ColRef> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    /// Append column references into `out` (allocation-friendly form).
    pub fn collect_columns(&self, out: &mut Vec<ColRef>) {
        self.try_for_each_column(&mut |c| {
            out.push(c);
            Some(())
        });
    }

    /// Visit the column references left-to-right, in the order
    /// [`ScalarExpr::try_map_columns`] maps them, stopping at the first
    /// `None`: that mapping's success test without building its result.
    pub fn try_for_each_column(&self, f: &mut impl FnMut(ColRef) -> Option<()>) -> Option<()> {
        match self {
            ScalarExpr::Column(c) => f(*c),
            ScalarExpr::Literal(_) => Some(()),
            ScalarExpr::Binary { left, right, .. } => {
                left.try_for_each_column(f)?;
                right.try_for_each_column(f)
            }
        }
    }

    /// Append the literals into `out`, left-to-right.
    pub fn collect_literals<'a>(&'a self, out: &mut Vec<&'a Value>) {
        match self {
            ScalarExpr::Column(_) => {}
            ScalarExpr::Literal(v) => out.push(v),
            ScalarExpr::Binary { left, right, .. } => {
                left.collect_literals(out);
                right.collect_literals(out);
            }
        }
    }

    /// True iff the expression is a bare column reference.
    pub fn as_column(&self) -> Option<ColRef> {
        match self {
            ScalarExpr::Column(c) => Some(*c),
            _ => None,
        }
    }

    /// True iff the expression references no columns.
    pub fn is_constant(&self) -> bool {
        match self {
            ScalarExpr::Column(_) => false,
            ScalarExpr::Literal(_) => true,
            ScalarExpr::Binary { left, right, .. } => left.is_constant() && right.is_constant(),
        }
    }

    /// Rewrite every column reference through `f` (used to reroute
    /// references to equivalent columns, and to remap view occurrences onto
    /// query occurrences).
    pub fn map_columns(&self, f: &mut impl FnMut(ColRef) -> ColRef) -> ScalarExpr {
        match self {
            ScalarExpr::Column(c) => ScalarExpr::Column(f(*c)),
            ScalarExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
            ScalarExpr::Binary { op, left, right } => ScalarExpr::Binary {
                op: *op,
                left: Box::new(left.map_columns(f)),
                right: Box::new(right.map_columns(f)),
            },
        }
    }

    /// Rewrite column references through a fallible mapping; fails if any
    /// reference cannot be mapped. This is how compensating expressions are
    /// rerouted to view output columns in section 3.1.3: "all columns
    /// referenced in compensating predicates \[must\] be mapped to (simple)
    /// output columns of the view".
    pub fn try_map_columns(
        &self,
        f: &mut impl FnMut(ColRef) -> Option<ColRef>,
    ) -> Option<ScalarExpr> {
        match self {
            ScalarExpr::Column(c) => f(*c).map(ScalarExpr::Column),
            ScalarExpr::Literal(v) => Some(ScalarExpr::Literal(v.clone())),
            ScalarExpr::Binary { op, left, right } => Some(ScalarExpr::Binary {
                op: *op,
                left: Box::new(left.try_map_columns(f)?),
                right: Box::new(right.try_map_columns(f)?),
            }),
        }
    }

    /// Evaluate against a row, where `row` supplies the value of each column
    /// reference. SQL semantics: any NULL operand yields NULL; division by
    /// zero yields NULL (SQL would error; NULL keeps the executor total).
    pub fn eval(&self, row: &impl Fn(ColRef) -> Value) -> Value {
        match self {
            ScalarExpr::Column(c) => row(*c),
            ScalarExpr::Literal(v) => v.clone(),
            ScalarExpr::Binary { op, left, right } => {
                let l = left.eval(row);
                let r = right.eval(row);
                eval_binop(*op, &l, &r)
            }
        }
    }

    /// Static type of the expression, given the type of each column.
    /// Arithmetic over two `Int`s is `Int` (except division, which is
    /// `Float`); anything involving a `Float` is `Float`. Non-numeric
    /// arithmetic has no type (`None`).
    pub fn infer_type(&self, col_type: &impl Fn(ColRef) -> ColumnType) -> Option<ColumnType> {
        match self {
            ScalarExpr::Column(c) => Some(col_type(*c)),
            ScalarExpr::Literal(v) => v.column_type(),
            ScalarExpr::Binary { op, left, right } => {
                let l = left.infer_type(col_type)?;
                let r = right.infer_type(col_type)?;
                if !l.is_numeric() || !r.is_numeric() {
                    return None;
                }
                if *op == BinOp::Div || l == ColumnType::Float || r == ColumnType::Float {
                    Some(ColumnType::Float)
                } else {
                    Some(ColumnType::Int)
                }
            }
        }
    }
}

/// Evaluate a single arithmetic operation with SQL NULL propagation.
pub fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Value {
    match (l, r) {
        (Value::Null, _) | (_, Value::Null) => Value::Null,
        (Value::Int(a), Value::Int(b)) => match op {
            BinOp::Add => Value::Int(a.wrapping_add(*b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Float(*a as f64 / *b as f64)
                }
            }
        },
        _ => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => match op {
                BinOp::Add => Value::Float(a + b),
                BinOp::Sub => Value::Float(a - b),
                BinOp::Mul => Value::Float(a * b),
                BinOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a / b)
                    }
                }
            },
            _ => Value::Null,
        },
    }
}

/// How a rendering writes one column reference: [`ColRef`]'s own `t0.c3`
/// in `Display`, the catalog's names in `mv-plan`'s SQL rendering.
pub type ColumnNamer<'a> = dyn Fn(&mut dyn fmt::Write, ColRef) -> fmt::Result + 'a;

impl ScalarExpr {
    /// Write the expression's text into `out`, each column as `col`
    /// writes it. `Display` is this with [`ColRef`]'s own rendering.
    pub fn render(&self, out: &mut dyn fmt::Write, col: &ColumnNamer) -> fmt::Result {
        match self {
            ScalarExpr::Column(c) => col(out, *c),
            ScalarExpr::Literal(v) => write!(out, "{v}"),
            ScalarExpr::Binary { op, left, right } => {
                out.write_char('(')?;
                left.render(out, col)?;
                write!(out, " {} ", op.symbol())?;
                right.render(out, col)?;
                out.write_char(')')
            }
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, &|out, c| write!(out, "{c}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colref::ColRef;

    fn c(i: u32) -> ColRef {
        ColRef::new(0, i)
    }

    #[test]
    fn columns_in_order_with_duplicates() {
        // c0 * c1 + c0
        let e = ScalarExpr::col(c(0))
            .binary(BinOp::Mul, ScalarExpr::col(c(1)))
            .binary(BinOp::Add, ScalarExpr::col(c(0)));
        assert_eq!(e.columns(), vec![c(0), c(1), c(0)]);
        assert!(!e.is_constant());
        assert!(e.as_column().is_none());
        assert_eq!(ScalarExpr::col(c(3)).as_column(), Some(c(3)));
    }

    #[test]
    fn eval_arithmetic_and_null_propagation() {
        let row = |cr: ColRef| match cr.col.0 {
            0 => Value::Int(6),
            1 => Value::Float(2.5),
            _ => Value::Null,
        };
        let e = ScalarExpr::col(c(0)).binary(BinOp::Mul, ScalarExpr::col(c(1)));
        assert_eq!(e.eval(&row), Value::Float(15.0));
        let e = ScalarExpr::col(c(0)).binary(BinOp::Add, ScalarExpr::col(c(9)));
        assert_eq!(e.eval(&row), Value::Null);
        // Integer division produces float; division by zero is NULL.
        let e = ScalarExpr::lit(7i64).binary(BinOp::Div, ScalarExpr::lit(2i64));
        assert_eq!(e.eval(&row), Value::Float(3.5));
        let e = ScalarExpr::lit(7i64).binary(BinOp::Div, ScalarExpr::lit(0i64));
        assert_eq!(e.eval(&row), Value::Null);
    }

    #[test]
    fn try_map_columns_fails_on_unmappable() {
        let e = ScalarExpr::col(c(0)).binary(BinOp::Add, ScalarExpr::col(c(1)));
        let mapped = e.try_map_columns(&mut |cr| {
            if cr.col.0 == 0 {
                Some(ColRef::new(9, 9))
            } else {
                None
            }
        });
        assert!(mapped.is_none());
        let mapped = e.try_map_columns(&mut |_| Some(ColRef::new(9, 9))).unwrap();
        assert_eq!(mapped.columns(), vec![ColRef::new(9, 9), ColRef::new(9, 9)]);
    }

    #[test]
    fn type_inference() {
        let ty = |cr: ColRef| match cr.col.0 {
            0 => ColumnType::Int,
            1 => ColumnType::Float,
            _ => ColumnType::Str,
        };
        let e = ScalarExpr::col(c(0)).binary(BinOp::Add, ScalarExpr::col(c(0)));
        assert_eq!(e.infer_type(&ty), Some(ColumnType::Int));
        let e = ScalarExpr::col(c(0)).binary(BinOp::Mul, ScalarExpr::col(c(1)));
        assert_eq!(e.infer_type(&ty), Some(ColumnType::Float));
        let e = ScalarExpr::col(c(0)).binary(BinOp::Div, ScalarExpr::col(c(0)));
        assert_eq!(e.infer_type(&ty), Some(ColumnType::Float));
        let e = ScalarExpr::col(c(2)).binary(BinOp::Add, ScalarExpr::col(c(0)));
        assert_eq!(e.infer_type(&ty), None);
    }

    #[test]
    fn display_renders_sqlish() {
        let e = ScalarExpr::col(c(0)).binary(BinOp::Mul, ScalarExpr::lit(3i64));
        assert_eq!(e.to_string(), "(t0.c0 * 3)");
    }
}
