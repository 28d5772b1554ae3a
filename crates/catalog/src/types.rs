//! Scalar column types and runtime values.
//!
//! The paper's view class (indexed views in SQL Server 2000) only needs a
//! small scalar vocabulary: integers, decimals, strings and dates. We model
//! dates as days since 1970-01-01 so that range predicates over dates reduce
//! to integer interval arithmetic, exactly like the ranges in section 3.1.2
//! of the paper.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Static type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float (stands in for SQL `DECIMAL` in TPC-H).
    Float,
    /// Variable-length string (`CHAR`/`VARCHAR`).
    Str,
    /// Calendar date, stored as days since the Unix epoch.
    Date,
}

impl ColumnType {
    /// Whether values of this type support arithmetic (`+`, `-`, `*`, `/`).
    pub fn is_numeric(self) -> bool {
        matches!(self, ColumnType::Int | ColumnType::Float)
    }

    /// Whether two column types may be compared with `<`, `=`, etc.
    ///
    /// Numeric types are mutually comparable; all other types only compare
    /// with themselves.
    pub fn comparable_with(self, other: ColumnType) -> bool {
        self == other || (self.is_numeric() && other.is_numeric())
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Int => "INT",
            ColumnType::Float => "FLOAT",
            ColumnType::Str => "VARCHAR",
            ColumnType::Date => "DATE",
        };
        f.write_str(s)
    }
}

/// A runtime scalar value.
///
/// `Value` implements [`Eq`] and [`Hash`] so that rows can be grouped and
/// hash-joined; float equality is defined on the bit pattern after
/// normalizing NaN and `-0.0`, which is the standard trick for using floats
/// as grouping keys. *SQL comparison* semantics (where `NULL` compares as
/// unknown) are provided separately by [`Value::sql_cmp`].
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String (shared: cloning a row never reallocates the text).
    Str(Arc<str>),
    /// Days since 1970-01-01.
    Date(i32),
}

impl Value {
    /// The runtime type of this value, or `None` for `NULL`.
    pub fn column_type(&self) -> Option<ColumnType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ColumnType::Int),
            Value::Float(_) => Some(ColumnType::Float),
            Value::Str(_) => Some(ColumnType::Str),
            Value::Date(_) => Some(ColumnType::Date),
        }
    }

    /// True iff this is `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, widening `Int` to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// SQL three-valued comparison: `None` when either side is `NULL` or the
    /// types are incomparable, `Some(ordering)` otherwise.
    ///
    /// This is the comparison used when evaluating range predicates, both in
    /// the executor and in the interval reasoning of the range subsumption
    /// test.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total order used for sorting: `NULL` sorts
    /// first, then by type tag, then by value. Unlike [`Value::sql_cmp`],
    /// this is total and never fails.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
                Value::Date(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            _ if tag(self) == 1 && tag(other) == 1 => {
                let a = self.as_f64().expect("numeric");
                let b = other.as_f64().expect("numeric");
                a.total_cmp(&b)
            }
            _ => tag(self).cmp(&tag(other)),
        }
    }

    /// Equal and indistinguishable: the same variant with the same bits.
    /// Stricter than `==`, which equates `Int(2)` with `Float(2.0)` and
    /// `0.0` with `-0.0` although each pair computes different results.
    pub fn identical(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Float(_), _) | (_, Value::Float(_)) => false,
            _ => self == other,
        }
    }

    /// Normalized bits for hashing floats: maps `-0.0` to `0.0` and all NaNs
    /// to one canonical NaN.
    fn float_bits(f: f64) -> u64 {
        if f.is_nan() {
            f64::NAN.to_bits()
        } else if f == 0.0 {
            0.0f64.to_bits()
        } else {
            f.to_bits()
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => Value::float_bits(*a) == Value::float_bits(*b),
            // Cross-numeric equality mirrors `sql_cmp` so that grouping on a
            // mixed Int/Float expression behaves consistently.
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                !b.is_nan() && (*a as f64) == *b
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

/// Each value feeds its hasher a tag byte, then its payload: the
/// normalized `f64` bits of a number, a string's text followed by the
/// `0xff` that `Hasher::write_str` appends, or a date's day number.
/// [`KeyHasher`] writes the same bytes; keep the two in step.
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Integers that are exactly representable as floats must hash the
            // same as the equal float (see `PartialEq`). All i64 values we
            // generate fit in the f64 mantissa comfortably.
            Value::Int(i) => {
                1u8.hash(state);
                Value::float_bits(*i as f64).hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                Value::float_bits(*f).hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                3u8.hash(state);
                d.hash(state);
            }
        }
    }
}

/// Bytes a [`KeyHasher`] gathers before it hands them to its hasher.
const KEY_BUF: usize = 128;

/// Hashes a composite key with one `Hasher::write` per buffer of bytes,
/// where hashing each [`Value`] in turn makes up to three calls per value.
///
/// The bytes are the ones `Value`'s `Hash` writes, packed into a stack
/// buffer (a string longer than the buffer is written straight through).
/// For a hasher whose result depends only on the byte stream, such as the
/// SipHash behind `std`'s `RandomState`, the hash therefore equals the
/// streamed one, and an `Int` still hashes like the `Float` it equals.
pub struct KeyHasher<H> {
    hasher: H,
    buf: [u8; KEY_BUF],
    len: usize,
}

impl<H: Hasher> KeyHasher<H> {
    /// Start a key on `hasher`.
    pub fn new(hasher: H) -> Self {
        KeyHasher {
            hasher,
            buf: [0; KEY_BUF],
            len: 0,
        }
    }

    /// Append one value of the key.
    #[inline]
    pub fn push(&mut self, v: &Value) {
        match v {
            Value::Null => self.put(&[0]),
            Value::Int(i) => self.put_number(*i as f64),
            Value::Float(f) => self.put_number(*f),
            Value::Str(s) => {
                self.put(&[2]);
                self.put(s.as_bytes());
                self.put(&[0xff]);
            }
            Value::Date(d) => {
                let mut bytes = [3; 5];
                bytes[1..].copy_from_slice(&d.to_ne_bytes());
                self.put(&bytes);
            }
        }
    }

    /// The hash of the values pushed.
    pub fn finish(mut self) -> u64 {
        self.flush();
        self.hasher.finish()
    }

    #[inline]
    fn put_number(&mut self, f: f64) {
        let mut bytes = [1; 9];
        bytes[1..].copy_from_slice(&Value::float_bits(f).to_ne_bytes());
        self.put(&bytes);
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        if self.len + bytes.len() > KEY_BUF {
            self.flush();
            if bytes.len() > KEY_BUF {
                self.hasher.write(bytes);
                return;
            }
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    fn flush(&mut self) {
        if self.len > 0 {
            self.hasher.write(&self.buf[..self.len]);
            self.len = 0;
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            // An integral float keeps a fractional digit, so it renders
            // (and reparses) as a float, never as the equal integer.
            Value::Float(x) if x.is_finite() && x.fract() == 0.0 => write!(f, "{x:.1}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Date(d) => {
                let (y, m, day) = date_from_days(*d);
                write!(f, "DATE '{y:04}-{m:02}-{day:02}'")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

/// Days-since-epoch for a calendar date (proleptic Gregorian).
///
/// Panics on out-of-range months/days; the workload only produces valid
/// dates.
pub fn days_from_date(year: i32, month: u32, day: u32) -> i32 {
    assert!((1..=12).contains(&month), "month out of range: {month}");
    assert!((1..=31).contains(&day), "day out of range: {day}");
    // Howard Hinnant's `days_from_civil` algorithm.
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64;
    let doy =
        ((153 * (if month > 2 { month - 3 } else { month + 9 }) as i64 + 2) / 5) + day as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era as i64 * 146_097 + doe - 719_468) as i32
}

/// Inverse of [`days_from_date`].
pub fn date_from_days(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
}

/// Parse `YYYY-MM-DD` into days since epoch.
pub fn parse_date(s: &str) -> Option<i32> {
    let mut parts = s.split('-');
    let y: i32 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    if parts.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(days_from_date(y, m, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (1992, 1, 1),
            (1998, 12, 31),
            (2000, 2, 29),
            (1900, 3, 1),
            (2038, 1, 19),
        ] {
            let days = days_from_date(y, m, d);
            assert_eq!(date_from_days(days), (y, m, d), "roundtrip {y}-{m}-{d}");
        }
        assert_eq!(days_from_date(1970, 1, 1), 0);
        assert_eq!(days_from_date(1970, 1, 2), 1);
        assert_eq!(days_from_date(1969, 12, 31), -1);
    }

    #[test]
    fn parse_date_accepts_valid_rejects_invalid() {
        assert_eq!(parse_date("1994-01-01"), Some(days_from_date(1994, 1, 1)));
        assert_eq!(parse_date("1994-13-01"), None);
        assert_eq!(parse_date("1994-01"), None);
        assert_eq!(parse_date("x"), None);
    }

    #[test]
    fn sql_cmp_three_valued() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(1.5)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Str("a".into()).sql_cmp(&Value::Str("b".into())),
            Some(Ordering::Less)
        );
        // Strings and numbers are incomparable.
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn eq_and_hash_agree_across_numeric_types() {
        let a = Value::Int(42);
        let b = Value::Float(42.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(Value::Int(42), Value::Float(42.5));
    }

    #[test]
    fn integral_floats_display_as_floats() {
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(-3.0).to_string(), "-3.0");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Int(2).to_string(), "2");
        assert_eq!(Value::Float(f64::INFINITY).to_string(), "inf");
    }

    #[test]
    fn negative_zero_and_nan_normalize() {
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
        let n1 = Value::Float(f64::NAN);
        let n2 = Value::Float(f64::from_bits(0x7ff8_0000_0000_0001));
        assert_eq!(hash_of(&n1), hash_of(&n2));
    }

    #[test]
    fn total_cmp_is_total_and_null_first() {
        let vals = vec![
            Value::Null,
            Value::Int(-5),
            Value::Float(1.5),
            Value::Int(3),
            Value::Str("abc".into()),
            Value::Date(100),
        ];
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(sorted[0], Value::Null);
        // Numerics interleave correctly.
        assert_eq!(sorted[1], Value::Int(-5));
        assert_eq!(sorted[2], Value::Float(1.5));
        assert_eq!(sorted[3], Value::Int(3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Str("o'brien".into()).to_string(), "'o''brien'");
        assert_eq!(
            Value::Date(days_from_date(1994, 1, 1)).to_string(),
            "DATE '1994-01-01'"
        );
    }

    #[test]
    fn comparability_matrix() {
        assert!(ColumnType::Int.comparable_with(ColumnType::Float));
        assert!(ColumnType::Date.comparable_with(ColumnType::Date));
        assert!(!ColumnType::Str.comparable_with(ColumnType::Int));
        assert!(!ColumnType::Date.comparable_with(ColumnType::Int));
    }
}
