//! The one canonical key every hash join, `GROUP BY` and `IN`-set
//! hashes, plus the exact numeric comparison of [`Value`]s.
//!
//! A [`Key`] is the tuple of a row's key-column values, each reduced to
//! one 64-bit word and a float flag:
//!
//! * `Int(i)` is the word `i`;
//! * a `Float` holding an integral value in the `i64` range is the `Int`
//!   of that value, so `Int(3)` = `Float(3.0)` and `−0.0` = `0.0`;
//! * any other float (fractional, beyond ±2⁶³, infinite or NaN) keeps its
//!   bits and is flagged as a float; every NaN maps to one canonical NaN.
//!
//! Key equality is therefore exact: integers never round through `f64`,
//! so 2⁵³ and 2⁵³ + 1 are different keys. Keys of up to [`INLINE`] columns
//! live inline without allocating; wider keys spill the remaining columns
//! to a vector. Hashing runs [`FxHasher64`] over the words, and keys order
//! by ascending numeric value, column by column ([`numeric_cmp`]). Fx does
//! not resist keys crafted to collide; the engine only hashes the
//! program's own relations.

use crate::engine::Value;
use crate::stats::FxHasher64;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Key columns stored inline; wider keys spill the rest.
const INLINE: usize = 4;

/// A hash map keyed by [`Key`] under [`FxHasher64`].
pub(crate) type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<FxHasher64>>;

/// A hash set of [`Key`]s under [`FxHasher64`].
pub(crate) type KeySet = HashSet<Key, BuildHasherDefault<FxHasher64>>;

/// 2⁶³ as an `f64`: floats in `[−2⁶³, 2⁶³)` convert to `i64` exactly.
const TWO_63: f64 = 9_223_372_036_854_775_808.0;

/// One value's canonical word and float flag (see the module docs).
#[inline]
fn canon(v: Value) -> (u64, bool) {
    match v {
        Value::Int(i) => (i as u64, false),
        Value::Float(f) if f.fract() == 0.0 && (-TWO_63..TWO_63).contains(&f) => {
            (f as i64 as u64, false)
        }
        Value::Float(f) if f.is_nan() => (f64::NAN.to_bits(), true),
        Value::Float(f) => (f.to_bits(), true),
    }
}

/// A canonical tuple of key-column values.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Key {
    len: u32,
    /// Bit `i` is set when inline word `i` holds float bits.
    floats: u8,
    words: [u64; INLINE],
    /// Columns past [`INLINE`], as `(word, is_float)`.
    spill: Vec<(u64, bool)>,
}

impl Key {
    /// The key of `row`'s columns `cols`, in that order.
    #[inline]
    pub(crate) fn of(row: &[Value], cols: &[usize]) -> Key {
        Key::from_values(cols.iter().map(|&c| row[c]))
    }

    /// A one-column key.
    #[inline]
    pub(crate) fn single(v: Value) -> Key {
        Key::from_values(std::iter::once(v))
    }

    /// The key of a sequence of values.
    #[inline]
    fn from_values(values: impl IntoIterator<Item = Value>) -> Key {
        let mut key = Key {
            len: 0,
            floats: 0,
            words: [0; INLINE],
            spill: Vec::new(),
        };
        for v in values {
            let (word, is_float) = canon(v);
            let i = key.len as usize;
            if i < INLINE {
                key.words[i] = word;
                key.floats |= u8::from(is_float) << i;
            } else {
                key.spill.push((word, is_float));
            }
            key.len += 1;
        }
        key
    }

    /// Number of columns.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Column `i` in canonical form: an integral float reads back as
    /// `Int`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub(crate) fn value(&self, i: usize) -> Value {
        assert!(i < self.len(), "key column {i} out of range");
        let (word, is_float) = if i < INLINE {
            (self.words[i], self.floats >> i & 1 == 1)
        } else {
            self.spill[i - INLINE]
        };
        if is_float {
            Value::Float(f64::from_bits(word))
        } else {
            Value::Int(word as i64)
        }
    }
}

impl Hash for Key {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &w in &self.words[..self.len().min(INLINE)] {
            state.write_u64(w);
        }
        if self.floats != 0 {
            state.write_u8(self.floats);
        }
        for &(w, is_float) in &self.spill {
            state.write_u64(w);
            state.write_u8(u8::from(is_float));
        }
    }
}

/// Ascending numeric order, column by column; a shorter key sorts first
/// on a tie. NaN sorts after every number.
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in 0..self.len().min(other.len()) {
            let (a, b) = (self.value(i), other.value(i));
            let ord = match (a, b) {
                (Value::Float(x), Value::Float(y)) => x.total_cmp(&y),
                _ => numeric_cmp(a, b).unwrap_or(if matches!(a, Value::Float(_)) {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        self.len.cmp(&other.len)
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Exact numeric comparison: two `Int`s compare as integers, two `Float`s
/// as floats (so `−0.0` = `0.0`), and an `Int` against a `Float` by exact
/// value, never by rounding the integer to `f64`. `None` when a NaN is
/// involved.
#[inline]
pub(crate) fn numeric_cmp(a: Value, b: Value) -> Option<Ordering> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(&y)),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(&y),
        (Value::Int(i), Value::Float(f)) => int_float_cmp(i, f),
        (Value::Float(f), Value::Int(i)) => int_float_cmp(i, f).map(Ordering::reverse),
    }
}

/// `i` against `f` by exact value.
#[inline]
fn int_float_cmp(i: i64, f: f64) -> Option<Ordering> {
    if f.is_nan() {
        None
    } else if f >= TWO_63 {
        Some(Ordering::Less)
    } else if f < -TWO_63 {
        Some(Ordering::Greater)
    } else {
        // `floor(f)` is an integer in the i64 range, so the cast is exact.
        let floor = f.floor();
        Some(match i.cmp(&(floor as i64)) {
            Ordering::Equal if f > floor => Ordering::Less,
            ord => ord,
        })
    }
}

/// A hash index from key to the ascending numbers of the rows holding
/// it. The buckets share one flat array, so building allocates per index,
/// not per key.
pub(crate) struct KeyIndex {
    /// Key → bucket number.
    buckets: KeyMap<u32>,
    /// Bucket `b` holds `rows[starts[b]..starts[b + 1]]`.
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl KeyIndex {
    /// Indexes rows `0..n` under the keys `key_of(i)`.
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32::MAX`.
    pub(crate) fn build(n: usize, key_of: impl Fn(usize) -> Key) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "row numbers must fit u32, got {n} rows"
        );
        let mut buckets = KeyMap::with_capacity_and_hasher(n, Default::default());
        let mut bucket_of = Vec::with_capacity(n);
        let mut counts: Vec<u32> = Vec::new();
        for i in 0..n {
            let fresh = counts.len() as u32;
            let b = *buckets.entry(key_of(i)).or_insert(fresh);
            if b == fresh {
                counts.push(0);
            }
            counts[b as usize] += 1;
            bucket_of.push(b);
        }
        let mut starts = Vec::with_capacity(counts.len() + 1);
        let mut total = 0u32;
        starts.push(0);
        for c in &counts {
            total += c;
            starts.push(total);
        }
        let mut cursor = starts[..counts.len()].to_vec();
        let mut rows = vec![0u32; n];
        for (i, &b) in bucket_of.iter().enumerate() {
            rows[cursor[b as usize] as usize] = i as u32;
            cursor[b as usize] += 1;
        }
        KeyIndex {
            buckets,
            starts,
            rows,
        }
    }

    /// The rows holding `key`, ascending (empty when none do).
    #[inline]
    pub(crate) fn get(&self, key: &Key) -> &[u32] {
        match self.buckets.get(key) {
            Some(&b) => {
                &self.rows[self.starts[b as usize] as usize..self.starts[b as usize + 1] as usize]
            }
            None => &[],
        }
    }

    /// The size of the largest bucket (the indexed side's max join
    /// degree).
    pub(crate) fn max_bucket(&self) -> usize {
        self.starts
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_53: i64 = 1 << 53;

    #[test]
    fn integral_floats_are_ints_and_zeros_are_one_key() {
        assert_eq!(Key::single(Value::Int(3)), Key::single(Value::Float(3.0)));
        assert_eq!(Key::single(Value::Float(-0.0)), Key::single(Value::Int(0)));
        assert_eq!(Key::single(Value::Float(-0.0)).value(0), Value::Int(0));
        assert_ne!(Key::single(Value::Float(0.5)), Key::single(Value::Int(0)));
        // An Int whose bits spell a float is not that float.
        let half = Value::Int(0.5f64.to_bits() as i64);
        assert_ne!(Key::single(half), Key::single(Value::Float(0.5)));
        assert_eq!(
            Key::single(Value::Float(f64::NAN)),
            Key::single(Value::Float(-f64::NAN))
        );
    }

    #[test]
    fn integers_compare_exactly() {
        let (a, b) = (Value::Int(TWO_53), Value::Int(TWO_53 + 1));
        assert_ne!(Key::single(a), Key::single(b));
        assert_eq!(numeric_cmp(a, b), Some(Ordering::Less));
        // 2^53 + 1 is not the float 2^53 it rounds to.
        assert_eq!(
            numeric_cmp(b, Value::Float(TWO_53 as f64)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            numeric_cmp(Value::Int(i64::MAX), Value::Float(TWO_63)),
            Some(Ordering::Less)
        );
        assert_eq!(
            numeric_cmp(Value::Int(2), Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            numeric_cmp(Value::Int(-2), Value::Float(-2.5)),
            Some(Ordering::Greater)
        );
        assert_eq!(numeric_cmp(Value::Int(1), Value::Float(f64::NAN)), None);
        assert_eq!(
            numeric_cmp(Value::Float(-0.0), Value::Float(0.0)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn keys_order_by_numeric_value() {
        let mut keys: Vec<Key> = [
            Value::Float(f64::NAN),
            Value::Float(2.5),
            Value::Int(TWO_53 + 1),
            Value::Int(-7),
            Value::Float(f64::INFINITY),
            Value::Int(2),
            Value::Float(-0.5),
            Value::Int(TWO_53),
            Value::Float(f64::NEG_INFINITY),
        ]
        .into_iter()
        .map(Key::single)
        .collect();
        keys.sort();
        let got: Vec<Value> = keys.iter().map(|k| k.value(0)).collect();
        assert_eq!(
            format!("{got:?}"),
            format!(
                "{:?}",
                [
                    Value::Float(f64::NEG_INFINITY),
                    Value::Int(-7),
                    Value::Float(-0.5),
                    Value::Int(2),
                    Value::Float(2.5),
                    Value::Int(TWO_53),
                    Value::Int(TWO_53 + 1),
                    Value::Float(f64::INFINITY),
                    Value::Float(f64::NAN),
                ]
            )
        );
    }

    #[test]
    fn wide_keys_spill_past_inline() {
        let row: Vec<Value> = (0..7).map(Value::Int).collect();
        let mut other = row.clone();
        other[6] = Value::Float(6.0);
        let k = Key::of(&row, &[0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(k.len(), 7);
        assert_eq!(k, Key::of(&other, &[0, 1, 2, 3, 4, 5, 6]));
        other[6] = Value::Float(6.5);
        let k2 = Key::of(&other, &[0, 1, 2, 3, 4, 5, 6]);
        assert_ne!(k, k2);
        assert!(k < k2);
        assert_eq!(k2.value(6), Value::Float(6.5));
    }

    #[test]
    fn index_buckets_hold_ascending_rows() {
        let keys = [5, 1, 5, 2, 5, 1];
        let index = KeyIndex::build(keys.len(), |i| Key::single(Value::Int(keys[i])));
        assert_eq!(index.get(&Key::single(Value::Int(5))), &[0, 2, 4]);
        assert_eq!(index.get(&Key::single(Value::Float(1.0))), &[1, 5]);
        assert_eq!(index.get(&Key::single(Value::Int(9))), &[] as &[u32]);
        assert_eq!(index.max_bucket(), 3);
        assert_eq!(KeyIndex::build(0, |_| unreachable!()).max_bucket(), 0);
    }
}
