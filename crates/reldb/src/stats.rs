//! Incrementally maintained per-table statistics feeding the query planner.
//!
//! Every [`crate::Table`](crate::engine::Table) carries a [`TableStats`]:
//! the exact row count plus, for each column that has only ever held
//! integer values, the number of distinct values and the multiplicity of
//! the most frequent value (the *max degree* of that column viewed as a
//! join key). The planner in [`crate::plan`] turns these into pessimistic
//! cardinality bounds — upper bounds that hold for *any* data, never
//! optimistic guesses — in the style of worst-case output bounds for
//! joins (AGM / functional-dependency bounds).
//!
//! Maintenance is incremental on both the append path
//! ([`TableStats::observe_row`], called from `Table::push`) and the delete
//! path ([`TableStats::forget_row`], called from SQL `DELETE`): the
//! per-value frequency maps are exact reference counts, so removed rows
//! are un-observed rather than triggering an `O(rows)` rebuild. Columns
//! currently holding at least one float value are untracked (`Float` join
//! keys are legal in the SQL layer but rare; the planner falls back to
//! row-count-only bounds there) — tracking resumes exactly once the last
//! float row is deleted, matching a from-scratch rebuild bit for bit.

use crate::engine::Value;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A tiny Fx-style multiply-rotate hasher for `i64` keys.
///
/// The frequency maps sit on the row-append hot path; SipHash (the std
/// default) costs more than the surrounding work for 8-byte keys. This is
/// the classic `FxHasher` construction (wrapping multiply by a golden-ratio
/// derived constant, rotate, xor) specialised to the `write_i64` calls the
/// stats maps actually make. Not DoS-resistant — fine for statistics.
#[derive(Default)]
pub struct FxHasher64 {
    state: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state.rotate_left(5) ^ u64::from(b)).wrapping_mul(FX_SEED);
        }
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = (self.state.rotate_left(5) ^ i).wrapping_mul(FX_SEED);
    }
}

type FxFreqMap = HashMap<i64, u32, BuildHasherDefault<FxHasher64>>;

/// Statistics for one column: distinct count and max frequency.
///
/// Tracking is *exact* while the column currently holds only `Value::Int`
/// values. While at least one float is present the column reports as
/// untracked (the planner then knows nothing about it beyond the table's
/// row count, which is still a valid upper bound on both distinct count
/// and max frequency), but the integer frequency map keeps being
/// maintained underneath — so when the last float row is deleted, exact
/// tracking resumes with the same state a from-scratch rebuild would
/// produce.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ColumnStats {
    /// Integer value → multiplicity (an exact reference count).
    freq: FxFreqMap,
    /// Number of float values currently present in the column.
    floats: u64,
    /// Multiplicity of the most frequent integer value currently present.
    max_freq: u32,
    /// Set when an [`unobserve`](ColumnStats::unobserve) may have lowered
    /// the maximum; cleared by [`refresh_max`](ColumnStats::refresh_max).
    max_dirty: bool,
}

impl ColumnStats {
    /// Number of distinct values, or `None` if the column is untracked.
    pub fn distinct(&self) -> Option<usize> {
        self.is_tracked().then_some(self.freq.len())
    }

    /// Multiplicity of the most frequent value (max join degree), or
    /// `None` if the column is untracked.
    pub fn max_freq(&self) -> Option<usize> {
        debug_assert!(
            !self.max_dirty,
            "ColumnStats::max_freq read while dirty — missing refresh after forget_row"
        );
        self.is_tracked().then_some(self.max_freq as usize)
    }

    /// Whether the column currently has exact distinct/degree tracking.
    pub fn is_tracked(&self) -> bool {
        self.floats == 0
    }

    #[inline]
    fn observe(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                let slot = self.freq.entry(*i).or_insert(0);
                *slot += 1;
                if *slot > self.max_freq {
                    self.max_freq = *slot;
                }
            }
            Value::Float(_) => self.floats += 1,
        }
    }

    /// Reverses one [`observe`](ColumnStats::observe). May leave the max
    /// stale (flagged via `max_dirty`); callers must run a
    /// [`refresh_max`](ColumnStats::refresh_max) before the next read.
    #[inline]
    fn unobserve(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                let slot = self
                    .freq
                    .get_mut(i)
                    .expect("unobserve of an integer value that was never observed");
                *slot -= 1;
                if *slot + 1 == self.max_freq {
                    self.max_dirty = true;
                }
                if *slot == 0 {
                    self.freq.remove(i);
                }
            }
            Value::Float(_) => {
                assert!(self.floats > 0, "unobserve of a float on an all-int column");
                self.floats -= 1;
            }
        }
    }

    /// Recomputes the max multiplicity if deletions may have lowered it.
    /// One pass over *distinct* values, and only when actually dirty.
    fn refresh_max(&mut self) {
        if self.max_dirty {
            self.max_freq = self.freq.values().copied().max().unwrap_or(0);
            self.max_dirty = false;
        }
    }
}

/// Exact statistics for a table: row count plus per-column [`ColumnStats`].
///
/// Kept in sync by the owning [`crate::engine::Table`]: appends stream
/// through [`observe_row`](TableStats::observe_row), deletions through
/// [`forget_row`](TableStats::forget_row) followed by one
/// [`refresh_maxima`](TableStats::refresh_maxima) per batch. The result is
/// always equal to a [`from_rows`](TableStats::from_rows) rebuild over the
/// table's current rows.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TableStats {
    rows: usize,
    cols: Vec<ColumnStats>,
}

impl TableStats {
    /// Empty statistics for a table with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        TableStats {
            rows: 0,
            cols: (0..ncols).map(|_| ColumnStats::default()).collect(),
        }
    }

    /// Statistics computed in one pass over existing rows.
    pub fn from_rows(ncols: usize, rows: &[Vec<Value>]) -> Self {
        let mut s = TableStats::new(ncols);
        for row in rows {
            s.observe_row(row);
        }
        s
    }

    /// Exact row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Per-column statistics, in column order.
    pub fn columns(&self) -> &[ColumnStats] {
        &self.cols
    }

    /// Statistics for column `i`.
    pub fn column(&self, i: usize) -> &ColumnStats {
        &self.cols[i]
    }

    /// Folds one appended row into the statistics.
    #[inline]
    pub fn observe_row(&mut self, row: &[Value]) {
        self.rows += 1;
        for (c, v) in self.cols.iter_mut().zip(row) {
            c.observe(v);
        }
    }

    /// Removes one previously observed row from the statistics — the exact
    /// inverse of [`observe_row`](TableStats::observe_row).
    ///
    /// Per-column maxima may be left stale; call
    /// [`refresh_maxima`](TableStats::refresh_maxima) once after a batch of
    /// deletions (reads in between are guarded by a debug assertion).
    #[inline]
    pub fn forget_row(&mut self, row: &[Value]) {
        debug_assert!(self.rows > 0, "forget_row on empty statistics");
        self.rows -= 1;
        for (c, v) in self.cols.iter_mut().zip(row) {
            c.unobserve(v);
        }
    }

    /// Recomputes any per-column maxima that deletions may have lowered.
    /// No-op for columns untouched since the last refresh.
    pub fn refresh_maxima(&mut self) {
        for c in &mut self.cols {
            c.refresh_max();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_distinct_and_max_freq() {
        let rows = vec![
            vec![Value::Int(1), Value::Int(7)],
            vec![Value::Int(1), Value::Int(8)],
            vec![Value::Int(2), Value::Int(9)],
        ];
        let s = TableStats::from_rows(2, &rows);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.column(0).distinct(), Some(2));
        assert_eq!(s.column(0).max_freq(), Some(2));
        assert_eq!(s.column(1).distinct(), Some(3));
        assert_eq!(s.column(1).max_freq(), Some(1));
    }

    #[test]
    fn float_disables_tracking() {
        let mut s = TableStats::new(1);
        s.observe_row(&[Value::Int(3)]);
        assert!(s.column(0).is_tracked());
        s.observe_row(&[Value::Float(0.5)]);
        assert!(!s.column(0).is_tracked());
        assert_eq!(s.column(0).distinct(), None);
        assert_eq!(s.column(0).max_freq(), None);
        // Row count keeps working regardless.
        assert_eq!(s.rows(), 2);
    }

    #[test]
    fn empty_table() {
        let s = TableStats::new(3);
        assert_eq!(s.rows(), 0);
        for c in s.columns() {
            assert_eq!(c.distinct(), Some(0));
            assert_eq!(c.max_freq(), Some(0));
        }
    }
}
