//! Aggregation accumulators with SQL semantics.
//!
//! [`SumAcc`] is the one SUM state of the workspace. The plan programs
//! (`program.rs`) — and so every served plan, which `physical.rs` lowers
//! to them — keep one per (group, aggregate) in the flat group table and
//! feed it borrowed values; mv-maintain's counting rollup keeps one per
//! (group, sum) and folds deltas in and out of it. `GroupAcc` is the
//! interpreter's per-group state (`spjg.rs`, `substitute.rs`): it
//! evaluates every argument through the tree-walking, cloning
//! `ScalarExpr::eval`, which suits a differential oracle and is why it is
//! not visible outside this crate.

use mv_catalog::Value;
use mv_data::Row;
use mv_expr::ColRef;
use mv_plan::AggFunc;

/// A SUM accumulator whose result does not depend on the order of its
/// inputs, and from which an added value can be removed again, restoring
/// the result bit for bit. NULLs (and non-numeric values) are skipped.
/// `Int`s add with wrapping `i64` arithmetic; `Float`s add exactly into a
/// `FloatSum`, allocated by the first one. The result is an `Int` while
/// no float is held, and otherwise the float nearest the exact total of
/// the floats plus the `Int`s' wrapped total.
#[derive(Debug, Clone, Default)]
pub struct SumAcc {
    /// Numeric values held.
    n: i64,
    ints: i64,
    floats: Option<Box<FloatSum>>,
}

/// Limbs of the fixed-point total: limb `k` weighs `2^(32k − 1074)`. A
/// finite `f64` (53 bits times `2^e`, `e ≥ −1074`) lands on three limbs
/// at most, the highest being limb 65; the last limb takes the carries.
const LIMBS: usize = 67;

/// Exact float state (Neal's small superaccumulator, arXiv:1505.05571):
/// the finite floats as carry-save fixed point, and counts of the rest.
#[derive(Debug, Clone)]
struct FloatSum {
    limbs: [i64; LIMBS],
    /// Folds since the limbs were last carried: each moves a limb by less
    /// than `2^32`, so `2^30` of them cannot overflow a carried limb.
    pending: u32,
    /// Floats held, then the +∞, −∞ and NaN among them.
    held: [i64; 4],
}

/// Add `m · 2^(32k − 1074)` to `limbs`, a 32-bit chunk a limb.
fn add_at(limbs: &mut [i64], k: usize, m: i128) {
    limbs[k] += (m & 0xffff_ffff) as i64;
    limbs[k + 1] += (m >> 32 & 0xffff_ffff) as i64;
    limbs[k + 2] += (m >> 64) as i64;
}

/// Move every limb but the last into `[0, 2^32)`, keeping the value.
fn carry(limbs: &mut [i64; LIMBS]) {
    for k in 0..LIMBS - 1 {
        let c = limbs[k] >> 32;
        limbs[k] -= c << 32;
        limbs[k + 1] += c;
    }
}

impl FloatSum {
    fn fold(&mut self, f: f64, sign: i64) {
        self.held[0] += sign;
        if f.is_nan() {
            self.held[3] += sign;
        } else if f.is_infinite() {
            self.held[1 + usize::from(f < 0.0)] += sign;
        } else {
            let bits = f.to_bits();
            let exp = (bits >> 52 & 0x7ff) as usize;
            let mant = bits & ((1 << 52) - 1) | u64::from(exp > 0) << 52;
            // `f` is `mant · 2^(pos − 1074)`.
            let pos = exp.max(1) - 1;
            let m = i128::from(mant) << (pos % 32);
            let negative = (bits >> 63 == 1) != (sign < 0);
            add_at(&mut self.limbs, pos / 32, if negative { -m } else { m });
            self.pending += 1;
            if self.pending == 1 << 30 {
                carry(&mut self.limbs);
                self.pending = 0;
            }
        }
    }

    /// The float nearest the exact sum of the held floats and `ints`,
    /// ties to even.
    fn total(&self, ints: i64) -> f64 {
        let [_, pos_inf, neg_inf, nan] = self.held;
        match (pos_inf != 0, neg_inf != 0) {
            (true, true) => return f64::NAN,
            _ if nan != 0 => return f64::NAN,
            (true, false) => return f64::INFINITY,
            (false, true) => return f64::NEG_INFINITY,
            (false, false) => {}
        }
        let mut limbs = self.limbs;
        add_at(&mut limbs, 1074 / 32, i128::from(ints) << (1074 % 32));
        carry(&mut limbs);
        let negative = limbs[LIMBS - 1] < 0;
        if negative {
            limbs.iter_mut().for_each(|l| *l = -*l);
            carry(&mut limbs);
        }
        let Some(t) = limbs.iter().rposition(|&l| l != 0) else {
            return 0.0;
        };
        // The top three limbs, the lowest weighing `2^(base − 1074)`.
        let limb = |k: usize| t.checked_sub(k).map_or(0, |k| limbs[k] as u128);
        let w = limb(0) << 64 | limb(1) << 32 | limb(2);
        let base = 32 * t as i64 - 64;
        let top = base + 127 - i64::from(w.leading_zeros());
        // Keep the bits from `s` up: 53 of them, or all down to bit 0.
        let s = (top - 52).max(0);
        let shift = (s - base) as u32;
        let (mut m, rest) = (w >> shift, w & ((1 << shift) - 1));
        let half = 1 << (shift - 1);
        let sticky = t > 2 && limbs[..t - 2].iter().any(|&l| l != 0);
        if rest > half || rest == half && (sticky || m & 1 == 1) {
            m += 1;
        }
        // A 53-bit `m` is one normal float past `s`'s exponent; a shorter
        // one at `s = 0` is its subnormal; a carry into bit 53 bumps it.
        let bits = (((s as u64) << 52) + m as u64).min(f64::INFINITY.to_bits());
        f64::from_bits(bits | u64::from(negative) << 63)
    }
}

impl SumAcc {
    fn fold(&mut self, v: &Value, sign: i64) {
        match *v {
            Value::Int(i) => self.ints = self.ints.wrapping_add(i.wrapping_mul(sign)),
            Value::Float(f) => {
                let floats = self.floats.get_or_insert_with(|| {
                    Box::new(FloatSum {
                        limbs: [0; LIMBS],
                        pending: 0,
                        held: [0; 4],
                    })
                });
                floats.fold(f, sign);
                if floats.held[0] == 0 {
                    self.floats = None;
                }
            }
            // SUM over non-numeric input is a type error; treat as NULL.
            _ => return,
        }
        self.n += sign;
    }

    /// Fold one value in.
    pub fn add(&mut self, v: &Value) {
        self.fold(v, 1);
    }

    /// Fold out one value an earlier [`SumAcc::add`] folded in.
    pub fn remove(&mut self, v: &Value) {
        self.fold(v, -1);
    }

    /// The SQL result: NULL when no non-null input is held.
    pub fn finish(&self) -> Value {
        match &self.floats {
            _ if self.n == 0 => Value::Null,
            Some(floats) => Value::Float(floats.total(self.ints)),
            None => Value::Int(self.ints),
        }
    }

    /// The zero-defaulting result used by [`AggFunc::SumZero`].
    pub fn finish_zero(&self) -> Value {
        if self.n == 0 {
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
    fn a_carry_between_folds_keeps_the_total() {
        let values = [3e300, 0.1, -2.5e-310, -3e300, 7.0].map(Value::Float);
        let (mut plain, mut carried) = (SumAcc::default(), SumAcc::default());
        for (i, v) in values.iter().enumerate() {
            plain.add(v);
            carried.add(v);
            if i == 2 {
                // The next fold is the one that carries.
                carried.floats.as_mut().expect("floats held").pending = (1 << 30) - 1;
            }
        }
        assert_eq!(carried.floats.as_ref().expect("floats held").pending, 1);
        let bits = |acc: &SumAcc| match acc.finish() {
            Value::Float(x) => x.to_bits(),
            v => panic!("a float sum, not {v:?}"),
        };
        assert_eq!(bits(&carried), bits(&plain));
        assert_eq!(f64::from_bits(bits(&plain)), 7.1);
        for v in &values[..4] {
            carried.remove(v);
        }
        assert_eq!(carried.finish(), Value::Float(7.0));
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
