//! Row keys: the one definition of key equality behind every hash-keyed
//! operator (PK check, dedup, aggregation groups, join build and probe,
//! bag difference/intersection), partition routing, surrogate lookups
//! and [`crate::catalog::auto_surrogate`].
//!
//! Two values are the same key exactly when their [`KeyValue`]s are
//! equal:
//!
//! * `Int(i)` and every integral `Float` inside `[-2^63, 2^63)` are the
//!   integer `i` — so `Int(5)` ≡ `Float(5.0)` and `-0.0` ≡ `0`. Floats
//!   outside that range keep a float key (casting them would saturate
//!   and alias `i64::MAX`/`i64::MIN`).
//! * Every other float is keyed by its bits, with all NaN payloads and
//!   signs folded into one NaN.
//! * `Bool`, `Date` and `Str` are their own variants, never equal to an
//!   `Int` or to each other; `Null` equals only `Null`.
//! * A composite key is the sequence of its values, so column
//!   boundaries cannot blur (`("ab","c")` ≠ `("a","bc")`).

use std::fmt;
use std::hash::{Hash, Hasher};

use etlopt_core::scalar::Scalar;

use crate::table::Row;

/// `2^63`: the first float above every `i64`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// The single NaN every NaN payload keys to.
const NAN_BITS: u64 = 0x7ff8_0000_0000_0000;

/// One value's identity under key equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum KeyValue {
    /// SQL NULL (equal to itself for keying, like `GROUP BY`).
    Null,
    /// An `Int`, or an integral float that `i64` represents exactly.
    Int(i64),
    /// Any other float, by bit pattern (NaNs canonicalized).
    Float(u64),
    /// A string.
    Str(Box<str>),
    /// A boolean.
    Bool(bool),
    /// A date (days since epoch).
    Date(i32),
}

impl KeyValue {
    /// The key of one scalar.
    pub(crate) fn of(v: &Scalar) -> KeyValue {
        match v {
            Scalar::Null => KeyValue::Null,
            Scalar::Int(i) => KeyValue::Int(*i),
            // `fract()` of ±inf is NaN, so this arm also requires a
            // finite value.
            Scalar::Float(f) if f.fract() == 0.0 && (-TWO_POW_63..TWO_POW_63).contains(f) => {
                KeyValue::Int(*f as i64)
            }
            Scalar::Float(f) if f.is_nan() => KeyValue::Float(NAN_BITS),
            Scalar::Float(f) => KeyValue::Float(f.to_bits()),
            Scalar::Str(s) => KeyValue::Str(s.as_str().into()),
            Scalar::Bool(b) => KeyValue::Bool(*b),
            Scalar::Date(d) => KeyValue::Date(*d),
        }
    }
}

/// The canonical text of a key value: `i:{n}` for integers, the
/// `Scalar` debug rendering otherwise. [`crate::catalog::auto_surrogate`]
/// hashes exactly these bytes, which is what keeps its values stable.
impl fmt::Display for KeyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyValue::Null => f.write_str("Null"),
            KeyValue::Int(i) => write!(f, "i:{i}"),
            KeyValue::Float(bits) => write!(f, "Float({:?})", f64::from_bits(*bits)),
            KeyValue::Str(s) => write!(f, "Str({s:?})"),
            KeyValue::Bool(b) => write!(f, "Bool({b:?})"),
            KeyValue::Date(d) => write!(f, "Date({d:?})"),
        }
    }
}

/// The key of a tuple of values: one [`KeyValue`] per key column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct RowKey(Box<[KeyValue]>);

impl RowKey {
    /// The key of `row` restricted to `cols`, in `cols` order.
    pub(crate) fn cols(row: &Row, cols: &[usize]) -> RowKey {
        RowKey(cols.iter().map(|&c| KeyValue::of(&row[c])).collect())
    }

    /// The key of a whole row.
    pub(crate) fn row(row: &Row) -> RowKey {
        RowKey(row.iter().map(KeyValue::of).collect())
    }

    /// The key of `row` on `cols`, or of the whole row for `None`.
    pub(crate) fn on(row: &Row, cols: Option<&[usize]>) -> RowKey {
        match cols {
            Some(cols) => RowKey::cols(row, cols),
            None => RowKey::row(row),
        }
    }

    /// Destination partition of this key. Deterministic on every run
    /// and every thread count (FNV-1a over the derived `Hash` stream);
    /// `HashMap`'s per-process `RandomState` must never route rows.
    pub(crate) fn route(&self, nparts: usize) -> usize {
        let mut h = Fnv1a::default();
        self.hash(&mut h);
        (h.finish() % nparts.max(1) as u64) as usize
    }
}

/// FNV-1a 64: a small deterministic hasher for partition routing and
/// [`crate::catalog::auto_surrogate`].
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        Hasher::write(self, s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vals: &[Scalar]) -> RowKey {
        RowKey::row(&vals.to_vec())
    }

    /// Table-driven pin of key equality: `(left, right, equal?)`.
    #[test]
    fn key_equality_table() {
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan_b = f64::from_bits(0xfff0_0000_0000_0abc);
        let cases: Vec<(Vec<Scalar>, Vec<Scalar>, bool)> = vec![
            // Numeric cross-type equality.
            (vec![Scalar::Int(5)], vec![Scalar::Float(5.0)], true),
            (vec![Scalar::Int(5)], vec![Scalar::Float(5.5)], false),
            (vec![Scalar::Float(0.1)], vec![Scalar::Float(0.1)], true),
            (vec![Scalar::Float(0.1)], vec![Scalar::Float(0.2)], false),
            (
                vec![Scalar::Int(i64::MIN)],
                vec![Scalar::Float(-TWO_POW_63)],
                true,
            ),
            // Integral floats outside the i64 range keep a float key.
            (
                vec![Scalar::Int(i64::MAX)],
                vec![Scalar::Float(1e19)],
                false,
            ),
            (vec![Scalar::Float(1e19)], vec![Scalar::Float(1e20)], false),
            (
                vec![Scalar::Int(i64::MAX)],
                vec![Scalar::Float(TWO_POW_63)],
                false,
            ),
            (
                vec![Scalar::Int(i64::MIN)],
                vec![Scalar::Float(-1e19)],
                false,
            ),
            (vec![Scalar::Float(1e19)], vec![Scalar::Float(1e19)], true),
            // ±0.
            (vec![Scalar::Float(-0.0)], vec![Scalar::Float(0.0)], true),
            (vec![Scalar::Float(-0.0)], vec![Scalar::Int(0)], true),
            // Infinities.
            (
                vec![Scalar::Float(f64::INFINITY)],
                vec![Scalar::Float(f64::INFINITY)],
                true,
            ),
            (
                vec![Scalar::Float(f64::INFINITY)],
                vec![Scalar::Float(f64::NEG_INFINITY)],
                false,
            ),
            // NaN payloads and signs.
            (vec![Scalar::Float(nan_a)], vec![Scalar::Float(nan_b)], true),
            (
                vec![Scalar::Float(f64::NAN)],
                vec![Scalar::Float(-f64::NAN)],
                true,
            ),
            (vec![Scalar::Float(f64::NAN)], vec![Scalar::Null], false),
            // Other types never equal an Int.
            (vec![Scalar::Bool(true)], vec![Scalar::Int(1)], false),
            (vec![Scalar::Bool(false)], vec![Scalar::Int(0)], false),
            (vec![Scalar::Date(5)], vec![Scalar::Int(5)], false),
            (vec![Scalar::from("5")], vec![Scalar::Int(5)], false),
            (vec![Scalar::from("i:5")], vec![Scalar::Int(5)], false),
            (vec![Scalar::Date(1)], vec![Scalar::Bool(true)], false),
            (vec![Scalar::Null], vec![Scalar::Null], true),
            (vec![Scalar::Null], vec![Scalar::Int(0)], false),
            // Strings containing the old unit separator.
            (
                vec![Scalar::from("a\u{1f}b")],
                vec![Scalar::from("a\u{1f}b")],
                true,
            ),
            (
                vec![Scalar::from("a\u{1f}"), Scalar::from("b")],
                vec![Scalar::from("a"), Scalar::from("\u{1f}b")],
                false,
            ),
            // Composite-key boundaries.
            (
                vec![Scalar::from("ab"), Scalar::from("c")],
                vec![Scalar::from("a"), Scalar::from("bc")],
                false,
            ),
            (
                vec![Scalar::Int(1), Scalar::Float(2.0)],
                vec![Scalar::Float(1.0), Scalar::Int(2)],
                true,
            ),
            (
                vec![Scalar::Int(1)],
                vec![Scalar::Int(1), Scalar::Null],
                false,
            ),
            (vec![], vec![], true),
        ];
        for (i, (l, r, equal)) in cases.iter().enumerate() {
            let (kl, kr) = (key(l), key(r));
            assert_eq!(kl == kr, *equal, "case {i}: {l:?} vs {r:?}");
            if *equal {
                let h = |k: &RowKey| {
                    let mut s = std::collections::hash_map::DefaultHasher::new();
                    k.hash(&mut s);
                    s.finish()
                };
                assert_eq!(h(&kl), h(&kr), "case {i}: equal keys hash equal");
                assert_eq!(kl.route(7), kr.route(7), "case {i}: equal keys co-route");
            }
        }
    }

    #[test]
    fn canonical_text_matches_the_scalar_rendering() {
        assert_eq!(KeyValue::of(&Scalar::Int(-4)).to_string(), "i:-4");
        assert_eq!(KeyValue::of(&Scalar::Float(7.0)).to_string(), "i:7");
        assert_eq!(KeyValue::of(&Scalar::Float(-0.0)).to_string(), "i:0");
        for v in [
            Scalar::Null,
            Scalar::Float(1.5),
            Scalar::Float(1e19),
            Scalar::Float(f64::NEG_INFINITY),
            Scalar::Float(f64::NAN),
            Scalar::from("q\"\u{1f}"),
            Scalar::Bool(true),
            Scalar::Date(-3),
        ] {
            assert_eq!(KeyValue::of(&v).to_string(), format!("{v:?}"));
        }
    }
}
