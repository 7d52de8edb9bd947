//! The relational operators.
//!
//! Deliberately small: just enough standard-SQL vocabulary (selection,
//! projection, equi-join, anti-join, grouped aggregation, union) to express
//! Algorithms 1–4 of the paper. Joins, groups, anti-joins and upserts key
//! on the canonical key of `key.rs` (exact integers; an integral float
//! equals its integer) — in the paper's `A(s,t,w)`, `E(v,c,b)`,
//! `H(c1,c2,h)` schemas always integer node and class ids.

use crate::key::{Key, KeyIndex, KeyMap, KeySet};
use crate::stats::TableStats;
use lsbp_linalg::{even_ranges, ParallelismConfig};
use std::fmt;

/// A cell value: SQL `BIGINT` or `DOUBLE PRECISION`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// Integer (node ids, class ids, geodesic numbers).
    Int(i64),
    /// Float (weights, coupling strengths, beliefs).
    Float(f64),
}

impl Value {
    /// Integer content.
    ///
    /// # Panics
    /// Panics when the value is a float (a schema bug in the caller).
    #[inline]
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(i) => i,
            Value::Float(f) => panic!("expected Int, found Float({f})"),
        }
    }

    /// Float content (ints widen losslessly for small magnitudes).
    #[inline]
    pub fn as_float(self) -> f64 {
        match self {
            Value::Float(f) => f,
            Value::Int(i) => i as f64,
        }
    }
}

/// Aggregate functions (the paper's algorithms need `SUM` over float
/// expressions and `MIN` over integers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFun {
    /// `SUM(expr)` over floats.
    SumFloat,
    /// `MIN(expr)` over integers.
    MinInt,
}

/// An in-memory relation: named columns, row-major storage, plus
/// incrementally maintained [`TableStats`] feeding the query planner.
#[derive(Clone, Debug)]
pub struct Table {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
    stats: TableStats,
}

/// Equality compares name, schema, and rows *in order*; the derived
/// statistics are excluded (they are a function of the rows).
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.columns == other.columns && self.rows == other.rows
    }
}

impl Table {
    /// Creates an empty table with the given column names.
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Self {
        let columns: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
        let stats = TableStats::new(columns.len());
        Self {
            name: name.into(),
            columns,
            rows: Vec::new(),
            stats,
        }
    }

    /// Builds a table from pre-materialized rows, computing statistics in
    /// one pass.
    ///
    /// # Panics
    /// Panics if any row's arity differs from the column count.
    pub fn from_rows(name: impl Into<String>, columns: Vec<String>, rows: Vec<Vec<Value>>) -> Self {
        let name = name.into();
        for row in &rows {
            assert_eq!(row.len(), columns.len(), "row arity mismatch in {name}");
        }
        let stats = TableStats::from_rows(columns.len(), &rows);
        Self {
            name,
            columns,
            rows,
            stats,
        }
    }

    /// Table name (diagnostics only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row access.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Resolves a column name to its index, or `None` if the table has no
    /// such column. This is the fallible lookup query execution uses — a
    /// bad column name in SQL becomes a typed `SqlError::UnknownColumn`,
    /// never a panic.
    pub fn try_col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Resolves a column name to its index.
    ///
    /// # Panics
    /// Panics on an unknown column (schema bug in *library* callers with
    /// fixed schemas; SQL execution goes through [`Table::try_col`]).
    pub fn col(&self, name: &str) -> usize {
        self.try_col(name)
            .unwrap_or_else(|| panic!("table {}: no column named {name}", self.name))
    }

    /// The maintained statistics (row count, per-column distinct counts
    /// and max join degrees) the planner costs joins with.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn push(&mut self, row: Vec<Value>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity mismatch in {}",
            self.name
        );
        self.stats.observe_row(&row);
        self.rows.push(row);
    }

    /// Reserves capacity for `n` additional rows.
    pub fn reserve(&mut self, n: usize) {
        self.rows.reserve(n);
    }

    /// `SELECT * WHERE pred(row)`.
    pub fn filter(&self, name: &str, pred: impl Fn(&[Value]) -> bool) -> Table {
        Table::from_rows(
            name,
            self.columns.clone(),
            self.rows.iter().filter(|r| pred(r)).cloned().collect(),
        )
    }

    /// The filtered rows themselves (no `Table` wrapper): the rows are
    /// partitioned across the pool as one region and chunk outputs
    /// concatenated in order — so the output row order matches serial
    /// evaluation at any thread count. This is the scan path the query
    /// planner pushes predicates into.
    pub fn filter_rows_with(
        &self,
        pred: &(dyn Fn(&[Value]) -> bool + Sync),
        cfg: &ParallelismConfig,
    ) -> Vec<Vec<Value>> {
        let filter_chunk = |rows: &[Vec<Value>]| -> Vec<Vec<Value>> {
            rows.iter().filter(|r| pred(r)).cloned().collect()
        };
        let parts = cfg.partitions(self.rows.len());
        map_chunks_in_order(&self.rows, parts, cfg, &filter_chunk)
    }

    /// `SELECT expr₁, expr₂, … FROM self` — projection with computed
    /// columns.
    pub fn project(
        &self,
        name: &str,
        out_columns: &[&str],
        f: impl Fn(&[Value]) -> Vec<Value>,
    ) -> Table {
        let mut out = Table::new(name, out_columns);
        out.reserve(self.len());
        for r in &self.rows {
            out.push(f(r));
        }
        out
    }

    /// Hash equi-join with fused projection:
    /// `SELECT f(l, r) FROM self l JOIN other r ON l.keys = r.keys`.
    ///
    /// Keys match by canonical key equality (exact integers; an integral
    /// float equals its integer). The projection closure receives
    /// the matched `(left_row, right_row)` pair and emits an output row.
    /// Always serial — [`Table::join_map_with`] is the configurable
    /// variant this delegates to.
    pub fn join_map(
        &self,
        other: &Table,
        self_keys: &[&str],
        other_keys: &[&str],
        name: &str,
        out_columns: &[&str],
        f: impl Fn(&[Value], &[Value]) -> Vec<Value> + Sync,
    ) -> Table {
        self.join_map_with(
            other,
            self_keys,
            other_keys,
            name,
            out_columns,
            f,
            &ParallelismConfig::serial(),
        )
    }

    /// [`Table::join_map`] with an explicit execution configuration: the
    /// hash index is built on the smaller side serially, the probe side is
    /// partitioned into contiguous row chunks probed by independent tasks,
    /// and chunk outputs are concatenated in order — so the output row
    /// order is the same for every thread count (serial included:
    /// [`Table::join_map`] is this method at one thread).
    #[allow(clippy::too_many_arguments)] // join_map's surface + the config
    pub fn join_map_with(
        &self,
        other: &Table,
        self_keys: &[&str],
        other_keys: &[&str],
        name: &str,
        out_columns: &[&str],
        f: impl Fn(&[Value], &[Value]) -> Vec<Value> + Sync,
        cfg: &ParallelismConfig,
    ) -> Table {
        assert_eq!(self_keys.len(), other_keys.len(), "join key arity mismatch");
        let self_idx: Vec<usize> = self_keys.iter().map(|k| self.col(k)).collect();
        let other_idx: Vec<usize> = other_keys.iter().map(|k| other.col(k)).collect();
        // Build on the smaller side.
        let (probe, probe_idx, build, build_idx, probe_is_left) = if other.len() <= self.len() {
            (self, &self_idx, other, &other_idx, true)
        } else {
            (other, &other_idx, self, &self_idx, false)
        };
        let index = KeyIndex::build(build.len(), |i| Key::of(&build.rows[i], build_idx));
        // Degree-based pessimistic output bound: every probe row matches at
        // most the largest build bucket. Capped so a hub key on a huge probe
        // side cannot pre-allocate gigabytes for a join that mostly misses.
        let reserve_bound = probe.len().saturating_mul(index.max_bucket()).min(1 << 20);
        let probe_chunk = |rows: &[Vec<Value>]| -> Vec<Vec<Value>> {
            let mut out = Vec::new();
            for r in rows {
                for &i in index.get(&Key::of(r, probe_idx)) {
                    let b = &build.rows[i as usize];
                    out.push(if probe_is_left { f(r, b) } else { f(b, r) });
                }
            }
            out
        };
        let parts = cfg.partitions(probe.len().max(build.len()));
        let mut out = Table::new(name, out_columns);
        out.reserve(reserve_bound);
        for row in map_chunks_in_order(&probe.rows, parts, cfg, &probe_chunk) {
            out.push(row);
        }
        out
    }

    /// Anti-join: `SELECT * FROM self WHERE NOT EXISTS (SELECT 1 FROM other
    /// WHERE other.keys = self.keys)` — the `¬G(t, …)` constructs of
    /// Algorithms 2–4.
    pub fn anti_join(&self, other: &Table, self_keys: &[&str], other_keys: &[&str]) -> Table {
        let self_idx: Vec<usize> = self_keys.iter().map(|k| self.col(k)).collect();
        let other_idx: Vec<usize> = other_keys.iter().map(|k| other.col(k)).collect();
        let index: KeySet = other.rows.iter().map(|r| Key::of(r, &other_idx)).collect();
        Table::from_rows(
            format!("{}∖{}", self.name, other.name),
            self.columns.clone(),
            self.rows
                .iter()
                .filter(|r| !index.contains(&Key::of(r, &self_idx)))
                .cloned()
                .collect(),
        )
    }

    /// `GROUP BY keys` with a single aggregate over `expr(row)`, folded in
    /// row order. Output columns: the key columns in canonical key form
    /// (an integral float reads back as `Int`) followed by `agg_name`, one
    /// row per group in ascending key order.
    pub fn group_by_agg(
        &self,
        name: &str,
        keys: &[&str],
        agg_name: &str,
        fun: AggFun,
        expr: impl Fn(&[Value]) -> Value,
    ) -> Table {
        let key_idx: Vec<usize> = keys.iter().map(|k| self.col(k)).collect();
        let mut groups: KeyMap<Value> = KeyMap::default();
        for r in &self.rows {
            let key = Key::of(r, &key_idx);
            let v = expr(r);
            groups
                .entry(key)
                .and_modify(|acc| match fun {
                    AggFun::SumFloat => *acc = Value::Float(acc.as_float() + v.as_float()),
                    AggFun::MinInt => *acc = Value::Int(acc.as_int().min(v.as_int())),
                })
                .or_insert(v);
        }
        let mut out_cols: Vec<&str> = keys.to_vec();
        out_cols.push(agg_name);
        let mut out = Table::new(name, &out_cols);
        out.reserve(groups.len());
        // Deterministic output order: sort by key.
        let mut entries: Vec<(Key, Value)> = groups.into_iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (key, v) in entries {
            let mut row: Vec<Value> = (0..key.len()).map(|i| key.value(i)).collect();
            row.push(v);
            out.push(row);
        }
        out
    }

    /// `UNION ALL` (schemas must have the same arity; column names are
    /// taken from `self`).
    pub fn union_all(&self, other: &Table) -> Table {
        assert_eq!(
            self.columns.len(),
            other.columns.len(),
            "UNION ALL arity mismatch: {} vs {}",
            self.name,
            other.name
        );
        let mut rows = self.rows.clone();
        rows.extend(other.rows.iter().cloned());
        Table::from_rows(
            format!("{}∪{}", self.name, other.name),
            self.columns.clone(),
            rows,
        )
    }

    /// Upsert by key columns: rows of `updates` replace any
    /// existing rows of `self` with the same key, otherwise insert — the
    /// paper's `!T(…)` notation (Fig. 9d: `DELETE … WHERE key IN updates;
    /// INSERT updates`).
    pub fn upsert(&mut self, updates: &Table, keys: &[&str]) {
        assert_eq!(
            self.columns.len(),
            updates.columns.len(),
            "upsert arity mismatch"
        );
        let self_idx: Vec<usize> = keys.iter().map(|k| self.col(k)).collect();
        let upd_idx: Vec<usize> = keys.iter().map(|k| updates.col(k)).collect();
        let updated: KeySet = updates.rows.iter().map(|r| Key::of(r, &upd_idx)).collect();
        // Incremental like `push`: the per-column frequency maps are exact
        // reference counts, so deleted rows are un-observed and inserted
        // rows observed — cost proportional to the rows touched, not to the
        // whole table.
        let stats = &mut self.stats;
        self.rows.retain(|r| {
            let keep = !updated.contains(&Key::of(r, &self_idx));
            if !keep {
                stats.forget_row(r);
            }
            keep
        });
        stats.refresh_maxima();
        for r in &updates.rows {
            self.stats.observe_row(r);
        }
        self.rows.extend(updates.rows.iter().cloned());
    }

    /// Distinct values of one integer column.
    pub fn distinct_ints(&self, column: &str) -> Vec<i64> {
        let idx = self.col(column);
        let mut vals: Vec<i64> = self.rows.iter().map(|r| r[idx].as_int()).collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }
}

/// Runs `chunk` over `rows` split into `parts` contiguous pieces, one
/// pool task each, and concatenates the outputs in row order — the same
/// rows, in the same order, as one serial `chunk(rows)`.
fn map_chunks_in_order<F>(
    rows: &[Vec<Value>],
    parts: usize,
    cfg: &ParallelismConfig,
    chunk: &F,
) -> Vec<Vec<Value>>
where
    F: Fn(&[Vec<Value>]) -> Vec<Vec<Value>> + Sync,
{
    if parts <= 1 {
        return chunk(rows);
    }
    let ranges = even_ranges(rows.len(), parts);
    let mut partials: Vec<Vec<Vec<Value>>> = ranges.iter().map(|_| Vec::new()).collect();
    cfg.pool().scope(|s| {
        for (slot, range) in partials.iter_mut().zip(ranges) {
            s.spawn(move || *slot = chunk(&rows[range]));
        }
    });
    partials.into_iter().flatten().collect()
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}({})", self.name, self.columns.join(", "))?;
        for r in self.rows.iter().take(20) {
            let cells: Vec<String> = r
                .iter()
                .map(|v| match v {
                    Value::Int(i) => i.to_string(),
                    Value::Float(x) => format!("{x:.6}"),
                })
                .collect();
            writeln!(f, "  {}", cells.join(" | "))?;
        }
        if self.rows.len() > 20 {
            writeln!(f, "  … ({} rows total)", self.rows.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges() -> Table {
        let mut t = Table::new("A", &["s", "t", "w"]);
        t.push(vec![Value::Int(0), Value::Int(1), Value::Float(1.0)]);
        t.push(vec![Value::Int(1), Value::Int(0), Value::Float(1.0)]);
        t.push(vec![Value::Int(1), Value::Int(2), Value::Float(2.0)]);
        t.push(vec![Value::Int(2), Value::Int(1), Value::Float(2.0)]);
        t
    }

    #[test]
    fn filter_and_project() {
        let a = edges();
        let from1 = a.filter("f", |r| r[0].as_int() == 1);
        assert_eq!(from1.len(), 2);
        let doubled = a.project("p", &["s", "w2"], |r| {
            vec![r[0], Value::Float(r[2].as_float() * 2.0)]
        });
        assert_eq!(doubled.rows()[2][1], Value::Float(4.0));
    }

    #[test]
    fn join_map_basic() {
        let a = edges();
        let mut labels = Table::new("E", &["v", "b"]);
        labels.push(vec![Value::Int(1), Value::Float(0.5)]);
        // Join edges with source labels: propagate b·w to targets.
        let out = a.join_map(&labels, &["s"], &["v"], "V", &["t", "bw"], |l, r| {
            vec![l[1], Value::Float(l[2].as_float() * r[1].as_float())]
        });
        assert_eq!(out.len(), 2); // edges (1,0) and (1,2)
        let mut targets = out.distinct_ints("t");
        targets.sort_unstable();
        assert_eq!(targets, vec![0, 2]);
    }

    #[test]
    fn join_builds_on_smaller_side_consistently() {
        // Same result regardless of which side is larger.
        let a = edges();
        let mut big = Table::new("big", &["v", "x"]);
        for i in 0..100 {
            big.push(vec![Value::Int(i % 3), Value::Float(i as f64)]);
        }
        let j1 = a.join_map(&big, &["s"], &["v"], "j", &["s", "x"], |l, r| {
            vec![l[0], r[1]]
        });
        let j2 = big.join_map(&a, &["v"], &["s"], "j", &["s", "x"], |l, r| {
            vec![r[0], l[1]]
        });
        assert_eq!(j1.len(), j2.len());
    }

    /// The parallel-probe join produces exactly `join_map`'s rows, in the
    /// same order, for every thread count.
    #[test]
    fn join_map_with_matches_serial() {
        let a = edges();
        let mut big = Table::new("big", &["v", "x"]);
        for i in 0..200 {
            big.push(vec![Value::Int(i % 3), Value::Float(i as f64)]);
        }
        let project = |l: &[Value], r: &[Value]| vec![l[0], r[1]];
        let serial = big.join_map(&a, &["v"], &["s"], "j", &["v", "w"], project);
        for threads in [1usize, 2, 8] {
            let cfg = ParallelismConfig::with_threads(threads).with_min_work(1);
            let par = big.join_map_with(&a, &["v"], &["s"], "j", &["v", "w"], project, &cfg);
            assert_eq!(par, serial, "threads = {threads}");
        }
        // Probe-side flip (left smaller) must match too.
        let serial_flip = a.join_map(&big, &["s"], &["v"], "j", &["s", "x"], project);
        let cfg = ParallelismConfig::with_threads(4).with_min_work(1);
        let par_flip = a.join_map_with(&big, &["s"], &["v"], "j", &["s", "x"], project, &cfg);
        assert_eq!(par_flip, serial_flip);
    }

    #[test]
    fn anti_join_not_exists() {
        let a = edges();
        let mut seen = Table::new("G", &["v"]);
        seen.push(vec![Value::Int(0)]);
        let unseen = a.anti_join(&seen, &["t"], &["v"]);
        // Rows whose target is NOT node 0: (0,1), (1,2), (2,1).
        assert_eq!(unseen.len(), 3);
    }

    #[test]
    fn group_by_sum() {
        let a = edges();
        let deg = a.group_by_agg("D", &["s"], "d", AggFun::SumFloat, |r| {
            let w = r[2].as_float();
            Value::Float(w * w)
        });
        assert_eq!(deg.len(), 3);
        // Deterministic order by key.
        assert_eq!(deg.rows()[0], vec![Value::Int(0), Value::Float(1.0)]);
        assert_eq!(deg.rows()[1], vec![Value::Int(1), Value::Float(5.0)]);
        assert_eq!(deg.rows()[2], vec![Value::Int(2), Value::Float(4.0)]);
    }

    #[test]
    fn group_by_min() {
        let mut g = Table::new("G", &["v", "g"]);
        g.push(vec![Value::Int(7), Value::Int(4)]);
        g.push(vec![Value::Int(7), Value::Int(2)]);
        g.push(vec![Value::Int(8), Value::Int(1)]);
        let m = g.group_by_agg("Gm", &["v"], "g", AggFun::MinInt, |r| r[1]);
        assert_eq!(m.rows()[0], vec![Value::Int(7), Value::Int(2)]);
        assert_eq!(m.rows()[1], vec![Value::Int(8), Value::Int(1)]);
    }

    #[test]
    fn union_and_upsert() {
        let mut b = Table::new("B", &["v", "c", "b"]);
        b.push(vec![Value::Int(0), Value::Int(0), Value::Float(1.0)]);
        b.push(vec![Value::Int(0), Value::Int(1), Value::Float(-1.0)]);
        b.push(vec![Value::Int(1), Value::Int(0), Value::Float(0.5)]);
        let mut upd = Table::new("Bn", &["v", "c", "b"]);
        upd.push(vec![Value::Int(0), Value::Int(0), Value::Float(9.0)]);
        upd.push(vec![Value::Int(0), Value::Int(1), Value::Float(-9.0)]);
        b.upsert(&upd, &["v"]);
        // Node 0 fully replaced, node 1 untouched.
        assert_eq!(b.len(), 3);
        let node0: Vec<f64> = b
            .rows()
            .iter()
            .filter(|r| r[0].as_int() == 0)
            .map(|r| r[2].as_float())
            .collect();
        assert_eq!(node0, vec![9.0, -9.0]);
        let u = b.union_all(&upd);
        assert_eq!(u.len(), 5);
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn unknown_column_panics() {
        let a = edges();
        let _ = a.col("nope");
    }

    #[test]
    fn try_col_is_fallible() {
        let a = edges();
        assert_eq!(a.try_col("s"), Some(0));
        assert_eq!(a.try_col("nope"), None);
    }

    #[test]
    fn stats_track_appends_and_rebuilds_on_upsert() {
        let a = edges();
        // Column s: values 0,1,1,2 → 3 distinct, max degree 2.
        assert_eq!(a.stats().rows(), 4);
        assert_eq!(a.stats().column(0).distinct(), Some(3));
        assert_eq!(a.stats().column(0).max_freq(), Some(2));
        // Column w is float → untracked.
        assert_eq!(a.stats().column(2).distinct(), None);

        let mut b = Table::new("B", &["v", "b"]);
        b.push(vec![Value::Int(0), Value::Int(10)]);
        b.push(vec![Value::Int(1), Value::Int(11)]);
        let mut upd = Table::new("Bn", &["v", "b"]);
        upd.push(vec![Value::Int(1), Value::Int(12)]);
        upd.push(vec![Value::Int(2), Value::Int(13)]);
        b.upsert(&upd, &["v"]);
        // Rows now {0,1,2} → stats must reflect the rewrite, not the
        // append history.
        assert_eq!(b.stats().rows(), 3);
        assert_eq!(b.stats().column(0).distinct(), Some(3));
        assert_eq!(b.stats().column(0).max_freq(), Some(1));
    }

    /// Upsert maintains statistics incrementally; this pins the invariant
    /// that the incremental state is *equal* to a from-scratch rebuild over
    /// the post-upsert rows, through a sequence of upserts exercising the
    /// tricky paths: deleting a value at max multiplicity (max must drop),
    /// deleting the last float in a column (tracking must resume), and
    /// inserting floats (tracking must stop).
    #[test]
    fn upsert_stats_match_from_scratch_rebuild() {
        let mut t = Table::new("T", &["k", "v", "w"]);
        t.push(vec![Value::Int(0), Value::Int(5), Value::Float(0.5)]);
        t.push(vec![Value::Int(1), Value::Int(5), Value::Int(7)]);
        t.push(vec![Value::Int(2), Value::Int(5), Value::Int(7)]);
        t.push(vec![Value::Int(3), Value::Int(6), Value::Int(8)]);

        // Deletes the float row (column w becomes all-int again) and two of
        // the three rows holding v=5 (the max-frequency value of column v).
        let mut upd = Table::new("U", &["k", "v", "w"]);
        upd.push(vec![Value::Int(0), Value::Int(9), Value::Int(1)]);
        upd.push(vec![Value::Int(1), Value::Int(6), Value::Int(1)]);
        upd.push(vec![Value::Int(4), Value::Int(6), Value::Int(2)]);
        t.upsert(&upd, &["k"]);
        assert_eq!(
            t.stats(),
            &TableStats::from_rows(t.columns().len(), t.rows()),
            "incremental upsert stats diverged from a from-scratch rebuild"
        );
        assert!(t.stats().column(2).is_tracked());
        assert_eq!(t.stats().column(1).max_freq(), Some(3)); // v=6 three times
        assert_eq!(t.stats().column(2).max_freq(), Some(2)); // w=1 twice

        // Re-introduce a float, replacing every remaining original row.
        let mut upd2 = Table::new("U2", &["k", "v", "w"]);
        upd2.push(vec![Value::Int(2), Value::Int(5), Value::Float(1.5)]);
        upd2.push(vec![Value::Int(3), Value::Int(5), Value::Int(1)]);
        t.upsert(&upd2, &["k"]);
        assert_eq!(
            t.stats(),
            &TableStats::from_rows(t.columns().len(), t.rows()),
            "incremental upsert stats diverged after re-introducing a float"
        );
        assert!(!t.stats().column(2).is_tracked());
        assert_eq!(t.stats().rows(), 5);

        // Empty upsert is a no-op for stats as well.
        let empty = Table::new("E", &["k", "v", "w"]);
        t.upsert(&empty, &["k"]);
        assert_eq!(
            t.stats(),
            &TableStats::from_rows(t.columns().len(), t.rows())
        );
    }

    #[test]
    fn derived_tables_carry_stats() {
        let a = edges();
        let f = a.filter("f", |r| r[0].as_int() == 1);
        assert_eq!(f.stats().rows(), 2);
        assert_eq!(f.stats().column(0).distinct(), Some(1));
        assert_eq!(f.stats().column(0).max_freq(), Some(2));
        let u = a.union_all(&a);
        assert_eq!(u.stats().rows(), 8);
        assert_eq!(u.stats().column(0).max_freq(), Some(4));
    }

    /// The parallel filter returns exactly the serial rows, in order, for
    /// every thread count.
    #[test]
    fn filter_rows_with_matches_serial() {
        let mut big = Table::new("big", &["v", "x"]);
        for i in 0..500 {
            big.push(vec![Value::Int(i % 7), Value::Float(i as f64)]);
        }
        let pred = |r: &[Value]| r[0].as_int() <= 2;
        let serial: Vec<Vec<Value>> = big.rows().iter().filter(|r| pred(r)).cloned().collect();
        for threads in [1, 2, 4, 8] {
            let cfg = ParallelismConfig::with_threads(threads).with_min_work(1);
            let par = big.filter_rows_with(&pred, &cfg);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(4).as_float(), 4.0);
        assert_eq!(Value::Float(2.5).as_float(), 2.5);
        assert_eq!(Value::Int(4).as_int(), 4);
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn float_as_int_panics() {
        let _ = Value::Float(1.5).as_int();
    }
}
