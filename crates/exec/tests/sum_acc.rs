//! `SumAcc` against an exact reference: the result of any fold order is
//! the float nearest the exact sum of the inputs, and removing a value
//! that was added restores the result bit for bit.
//!
//! The reference sums in base-10⁹ big integers, in units of `2^-1074`
//! (the least subnormal), then writes the exact total as a decimal string
//! and lets `str::parse::<f64>` — correctly rounded, ties to even — pick
//! the float. It shares no arithmetic with the accumulator.

use mv_catalog::Value;
use mv_exec::agg::SumAcc;
use proptest::prelude::*;
use std::cmp::Ordering;

const BASE: u64 = 1_000_000_000;

/// A magnitude in base 10⁹, least significant limb first, no high zeros.
type Big = Vec<u64>;

fn mul_small(a: &mut Big, k: u64) {
    let mut carry = 0;
    for limb in a.iter_mut() {
        let v = *limb * k + carry;
        *limb = v % BASE;
        carry = v / BASE;
    }
    while carry > 0 {
        a.push(carry % BASE);
        carry /= BASE;
    }
}

fn mul_pow(a: &mut Big, base: u64, mut exp: u32) {
    while exp > 0 {
        let step = exp.min(12);
        mul_small(a, base.pow(step));
        exp -= step;
    }
}

fn big(mut v: u64) -> Big {
    let mut out = Vec::new();
    while v > 0 {
        out.push(v % BASE);
        v /= BASE;
    }
    out
}

fn add(a: &mut Big, b: &Big) {
    let mut carry = 0;
    for i in 0..a.len().max(b.len()) {
        if i == a.len() {
            a.push(0);
        }
        let v = a[i] + b.get(i).copied().unwrap_or(0) + carry;
        a[i] = v % BASE;
        carry = v / BASE;
    }
    if carry > 0 {
        a.push(carry);
    }
}

fn cmp(a: &Big, b: &Big) -> Ordering {
    a.len()
        .cmp(&b.len())
        .then_with(|| a.iter().rev().cmp(b.iter().rev()))
}

/// `a − b` for `a ≥ b`.
fn sub(a: &Big, b: &Big) -> Big {
    let mut out = a.clone();
    let mut borrow = 0;
    for (i, limb) in out.iter_mut().enumerate() {
        let take = b.get(i).copied().unwrap_or(0) + borrow;
        borrow = u64::from(*limb < take);
        *limb = *limb + borrow * BASE - take;
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

/// The exact SUM of `values` (NULLs skipped), rounded once: `Float` when
/// any input is one, else the `Int` total (the inputs here never wrap).
fn reference(values: &[Value]) -> Value {
    let (mut pos, mut neg) = (Big::new(), Big::new());
    let mut any_float = false;
    for v in values {
        // |v| · 2^1074, and its sign.
        let (negative, units) = match *v {
            Value::Int(i) => {
                let mut m = big(i.unsigned_abs());
                mul_pow(&mut m, 2, 1074);
                (i < 0, m)
            }
            Value::Float(f) => {
                any_float = true;
                let bits = f.to_bits();
                let exp = (bits >> 52 & 0x7ff) as u32;
                let mant = bits & ((1 << 52) - 1) | u64::from(exp > 0) << 52;
                let mut m = big(mant);
                mul_pow(&mut m, 2, exp.max(1) - 1);
                (f < 0.0, m)
            }
            _ => continue,
        };
        add(if negative { &mut neg } else { &mut pos }, &units);
    }
    let negative = cmp(&neg, &pos) == Ordering::Greater;
    let mut total = if negative {
        sub(&neg, &pos)
    } else {
        sub(&pos, &neg)
    };
    if !any_float {
        // Back from units: the integer total is exact.
        let ints: i64 = values
            .iter()
            .filter_map(|v| match v {
                Value::Int(i) => Some(*i),
                _ => None,
            })
            .sum();
        return if values.iter().any(|v| !matches!(v, Value::Null)) {
            Value::Int(ints)
        } else {
            Value::Null
        };
    }
    // total · 2^-1074 = total · 5^1074 / 10^1074.
    mul_pow(&mut total, 5, 1074);
    let mut digits = total.last().map_or("0".to_string(), |d| d.to_string());
    for limb in total.iter().rev().skip(1) {
        digits.push_str(&format!("{limb:09}"));
    }
    let digits = format!("{digits:0>1075}");
    let (whole, frac) = digits.split_at(digits.len() - 1074);
    let sign = if negative { "-" } else { "" };
    let x: f64 = format!("{sign}{whole}.{frac}").parse().expect("a decimal");
    Value::Float(x)
}

fn sum(values: &[Value]) -> SumAcc {
    let mut acc = SumAcc::default();
    values.iter().for_each(|v| acc.add(v));
    acc
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// NULL, an `Int`, or a finite float: any sign, exponent field
/// (subnormals included, up to `f64::MAX`'s) and mantissa — or, a quarter
/// of the time, the negation of an earlier value, so totals cancel down
/// to their low bits.
fn value(st: &mut u64, earlier: &[Value]) -> Value {
    match splitmix64(st) % 8 {
        0 => Value::Null,
        1 | 2 => Value::Int((splitmix64(st) >> 24) as i64 - (1 << 39)),
        3 | 4 => match earlier[..].get(splitmix64(st) as usize % earlier.len().max(1)) {
            Some(Value::Float(f)) => Value::Float(-f),
            _ => Value::Float(-0.5),
        },
        _ => {
            let r = splitmix64(st);
            let exp = match splitmix64(st) % 4 {
                // Narrow bands make carries between neighbouring limbs.
                0 => r % 3,
                1 => 1023 + r % 60,
                2 => 2040 + r % 7,
                _ => r % 2047,
            };
            let bits = (r >> 63) << 63 | exp << 52 | splitmix64(st) >> 12;
            Value::Float(f64::from_bits(bits))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Forward, backward and shuffled folds all read the reference's
    /// bits; folding an extra value in and out again, or folding half the
    /// values out in another order, leaves what a fold of the rest reads.
    #[test]
    fn sum_is_exact_in_any_order_and_undoes_bit_for_bit(
        seed in 0u64..u64::MAX,
        len in 0usize..24,
    ) {
        let mut st = seed;
        let mut values = Vec::new();
        for _ in 0..len {
            let v = value(&mut st, &values);
            values.push(v);
        }
        let want = reference(&values);
        let mut shuffled = values.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, splitmix64(&mut st) as usize % (i + 1));
        }
        let reversed: Vec<Value> = values.iter().rev().cloned().collect();
        for order in [&values, &reversed, &shuffled] {
            let got = sum(order).finish();
            prop_assert!(got.identical(&want), "{:?}: {:?} against {:?}", order, got, want);
        }
        let mut acc = sum(&values);
        let extra = value(&mut st, &values);
        acc.add(&extra);
        acc.remove(&extra);
        prop_assert!(acc.finish().identical(&want), "{:?} in and out", extra);
        let (kept, gone) = shuffled.split_at(shuffled.len() / 2);
        gone.iter().rev().for_each(|v| acc.remove(v));
        let rest = reference(kept);
        prop_assert!(acc.finish().identical(&rest), "after removing {:?}", gone);
        prop_assert!(sum(kept).finish().identical(&rest));
    }
}

#[test]
fn overflowing_partial_sums_do_not_reach_infinity() {
    let [a, b, c] = [f64::MAX, f64::MAX, -f64::MAX].map(Value::Float);
    for order in [
        [&a, &b, &c],
        [&a, &c, &b],
        [&c, &a, &b],
        [&b, &a, &c],
        [&b, &c, &a],
        [&c, &b, &a],
    ] {
        let mut acc = SumAcc::default();
        order.into_iter().for_each(|v| acc.add(v));
        assert!(acc.finish().identical(&Value::Float(f64::MAX)), "{order:?}");
    }
    let mut acc = sum(&[a.clone(), b]);
    assert!(acc.finish().identical(&Value::Float(f64::INFINITY)));
    acc.remove(&a);
    assert!(acc.finish().identical(&Value::Float(f64::MAX)));
}

#[test]
fn infinities_and_nan_fold_out_again() {
    let base = [Value::Float(0.1), Value::Int(3), Value::Float(0.2)];
    let want = reference(&base);
    let nan = Value::Float(f64::NAN);
    let inf = Value::Float(f64::INFINITY);
    let neg_inf = Value::Float(f64::NEG_INFINITY);
    for (special, reads) in [
        (vec![&inf], f64::INFINITY),
        (vec![&neg_inf], f64::NEG_INFINITY),
        (vec![&nan], f64::NAN),
        (vec![&inf, &neg_inf], f64::NAN),
        (vec![&inf, &inf, &nan], f64::NAN),
    ] {
        let mut acc = sum(&base);
        special.iter().for_each(|v| acc.add(v));
        let got = acc.finish();
        let Value::Float(x) = got else {
            panic!("{special:?}: {got:?}");
        };
        assert!(x.to_bits() == reads.to_bits() || x.is_nan() && reads.is_nan());
        special.iter().for_each(|v| acc.remove(v));
        assert!(acc.finish().identical(&want), "{special:?} in and out");
    }
    // Removing every float leaves an integer sum again.
    let mut acc = sum(&[Value::Int(2), nan.clone(), Value::Float(-0.0)]);
    acc.remove(&nan);
    acc.remove(&Value::Float(-0.0));
    assert!(acc.finish().identical(&Value::Int(2)));
    acc.remove(&Value::Int(2));
    assert_eq!(acc.finish(), Value::Null);
    assert_eq!(acc.finish_zero(), Value::Int(0));
}

#[test]
fn subnormals_and_ties_round_exactly() {
    let tiny = Value::Float(f64::from_bits(1));
    let acc = sum(&[tiny.clone(), tiny.clone(), Value::Float(-f64::from_bits(3))]);
    assert!(acc.finish().identical(&Value::Float(-f64::from_bits(1))));
    // Half an ulp on top of 1.0 ties, and goes to the even 1.0; the least
    // subnormal past the tie, 1,074 bits further down, rounds it up. On
    // top of the odd 1.0 + ε the same tie rounds up, to the even neighbour.
    let one = Value::Float(1.0);
    let half_ulp = Value::Float(f64::EPSILON / 2.0);
    assert!(sum(&[one.clone(), half_ulp.clone()])
        .finish()
        .identical(&one));
    let up = sum(&[one, half_ulp.clone(), tiny]).finish();
    assert!(up.identical(&Value::Float(1.0 + f64::EPSILON)));
    let odd = Value::Float(1.0 + f64::EPSILON);
    let even = sum(&[odd, half_ulp]).finish();
    assert!(even.identical(&Value::Float(1.0 + 2.0 * f64::EPSILON)));
}

#[test]
fn the_state_stays_three_words() {
    assert!(std::mem::size_of::<SumAcc>() <= 24);
}
