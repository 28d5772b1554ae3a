//! Aggregation accumulators with SQL semantics.
//!
//! [`SumAcc`] is the one SUM implementation every executor folds values
//! into (`mv-maintain`'s counting state mirrors it). The plan programs
//! (`program.rs`) — and so every served plan, which `physical.rs` lowers
//! to them — keep one per (group, aggregate) in the flat group table and
//! feed it borrowed values. [`GroupAcc`] is the interpreter's per-group
//! state (`spjg.rs`, `substitute.rs`): it evaluates every argument through
//! the tree-walking, cloning `ScalarExpr::eval`, which suits a
//! differential oracle and is why it is not visible outside this crate.

use mv_catalog::Value;
use mv_data::Row;
use mv_expr::ColRef;
use mv_plan::AggFunc;

/// A SUM accumulator: ignores NULLs, stays in exact integer arithmetic as
/// long as every input is an integer, and switches to floating point on
/// the first float.
#[derive(Debug, Clone, Default)]
pub struct SumAcc {
    seen: bool,
    int_sum: i64,
    float_sum: f64,
    is_float: bool,
}

impl SumAcc {
    /// Fold one value.
    pub fn add(&mut self, v: &Value) {
        match v {
            Value::Null => {}
            Value::Int(i) => {
                self.seen = true;
                if self.is_float {
                    self.float_sum += *i as f64;
                } else {
                    self.int_sum = self.int_sum.wrapping_add(*i);
                }
            }
            Value::Float(f) => {
                self.seen = true;
                if !self.is_float {
                    self.is_float = true;
                    self.float_sum = self.int_sum as f64;
                }
                self.float_sum += f;
            }
            // SUM over non-numeric input is a type error; treat as NULL.
            _ => {}
        }
    }

    /// The SQL result: NULL when no non-null input was seen.
    pub fn finish(&self) -> Value {
        if !self.seen {
            Value::Null
        } else if self.is_float {
            Value::Float(self.float_sum)
        } else {
            Value::Int(self.int_sum)
        }
    }

    /// The zero-defaulting result used by [`AggFunc::SumZero`].
    pub fn finish_zero(&self) -> Value {
        if !self.seen {
            Value::Int(0)
        } else {
            self.finish()
        }
    }
}

/// The interpreter's accumulator state for one group across all
/// aggregates of a block.
#[derive(Debug, Clone)]
pub(crate) struct GroupAcc {
    count: i64,
    sums: Vec<SumAcc>,
}

impl GroupAcc {
    /// Fresh state for `n_aggs` aggregate functions.
    pub(crate) fn new(n_aggs: usize) -> Self {
        GroupAcc {
            count: 0,
            sums: vec![SumAcc::default(); n_aggs],
        }
    }

    /// Fold one input row into the group.
    pub(crate) fn add(&mut self, aggs: &[AggFunc], row_value: &impl Fn(ColRef) -> Value) {
        self.count += 1;
        for (i, agg) in aggs.iter().enumerate() {
            if let Some(arg) = agg.argument() {
                self.sums[i].add(&arg.eval(row_value));
            }
        }
    }

    /// Final values for each aggregate, in order.
    pub(crate) fn finish(&self, aggs: &[AggFunc]) -> Row {
        aggs.iter()
            .enumerate()
            .map(|(i, agg)| match agg {
                AggFunc::CountStar => Value::Int(self.count),
                AggFunc::Sum(_) => self.sums[i].finish(),
                AggFunc::SumZero(_) => self.sums[i].finish_zero(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_expr::ScalarExpr as S;

    #[test]
    fn sum_stays_integer_exact() {
        let mut acc = SumAcc::default();
        for i in 0..1000i64 {
            acc.add(&Value::Int(i));
        }
        assert_eq!(acc.finish(), Value::Int(499_500));
    }

    #[test]
    fn sum_switches_to_float() {
        let mut acc = SumAcc::default();
        acc.add(&Value::Int(1));
        acc.add(&Value::Float(0.5));
        acc.add(&Value::Int(2));
        assert_eq!(acc.finish(), Value::Float(3.5));
    }

    #[test]
    fn sum_ignores_nulls_and_empty_is_null() {
        let mut acc = SumAcc::default();
        acc.add(&Value::Null);
        assert_eq!(acc.finish(), Value::Null);
        assert_eq!(acc.finish_zero(), Value::Int(0));
        acc.add(&Value::Int(7));
        acc.add(&Value::Null);
        assert_eq!(acc.finish(), Value::Int(7));
    }

    #[test]
    fn group_acc_counts_and_sums() {
        let aggs = vec![
            AggFunc::CountStar,
            AggFunc::Sum(S::col(ColRef::new(0, 0))),
            AggFunc::SumZero(S::col(ColRef::new(0, 1))),
        ];
        let mut g = GroupAcc::new(aggs.len());
        for (a, b) in [(1i64, 10i64), (2, 20), (3, 30)] {
            let row = move |c: ColRef| {
                if c.col.0 == 0 {
                    Value::Int(a)
                } else {
                    Value::Int(b)
                }
            };
            g.add(&aggs, &row);
        }
        assert_eq!(
            g.finish(&aggs),
            vec![Value::Int(3), Value::Int(6), Value::Int(60)]
        );
    }

    #[test]
    fn empty_group_scalar_results() {
        let aggs = vec![
            AggFunc::CountStar,
            AggFunc::Sum(S::col(ColRef::new(0, 0))),
            AggFunc::SumZero(S::col(ColRef::new(0, 0))),
        ];
        let g = GroupAcc::new(aggs.len());
        assert_eq!(
            g.finish(&aggs),
            vec![Value::Int(0), Value::Null, Value::Int(0)]
        );
    }
}
