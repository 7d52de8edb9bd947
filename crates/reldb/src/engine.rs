//! Relations: [`Value`] cells and the [`Table`] the SQL executor
//! ([`crate::exec`]) scans, appends to and deletes from.
//!
//! Deliberately small: rows, column lookup, maintained statistics, an
//! in-place delete, and the order-preserving parallel scan the planner
//! pushes predicates into. Every relational operator (join, grouping,
//! anti-join, union) is SQL run by the executor.

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

/// An in-memory relation: named columns, row-major storage, plus
/// incrementally maintained [`TableStats`] feeding the query planner.
/// The default is the unnamed table with no columns.
#[derive(Clone, Debug, Default)]
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

    /// Deletes, in place, every row for which `keep` is false: the
    /// survivors keep their order, and each deleted row is un-observed
    /// from the statistics (cost proportional to the rows deleted, plus
    /// one refresh of any lowered maxima).
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&[Value]) -> bool) {
        let stats = &mut self.stats;
        self.rows.retain(|r| {
            let kept = keep(r);
            if !kept {
                stats.forget_row(r);
            }
            kept
        });
        stats.refresh_maxima();
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
    use crate::exec::Database;

    fn edges() -> Table {
        let mut t = Table::new("A", &["s", "t", "w"]);
        t.push(vec![Value::Int(0), Value::Int(1), Value::Float(1.0)]);
        t.push(vec![Value::Int(1), Value::Int(0), Value::Float(1.0)]);
        t.push(vec![Value::Int(1), Value::Int(2), Value::Float(2.0)]);
        t.push(vec![Value::Int(2), Value::Int(1), Value::Float(2.0)]);
        t
    }

    /// The table `name(cols)` holding `rows`.
    fn table(name: &str, cols: Vec<String>, rows: &[[Value; 3]]) -> Table {
        Table::from_rows(name, cols, rows.iter().map(|r| r.to_vec()).collect())
    }

    /// A database holding only `T(cols)` with `rows`.
    fn db_with(cols: &[&str], rows: &[[Value; 3]]) -> Database {
        let mut db = Database::new();
        let cols = cols.iter().map(|c| c.to_string()).collect();
        db.insert_table("T", table("T", cols, rows));
        db
    }

    /// The paper's `!T` upsert (Fig. 9d) of `rows` into `T`, keyed on
    /// column `k`: `DELETE … WHERE k IN (SELECT …)`, then `INSERT`. The
    /// table's statistics must equal a from-scratch rebuild afterwards.
    fn upsert(db: &mut Database, rows: &[[Value; 3]], k: &str) -> Table {
        let cols = db.table("T").unwrap().columns().to_vec();
        db.insert_table("U", table("U", cols, rows));
        db.execute_script(&format!(
            "delete from T where {k} in (select U.{k} from U); \
             insert into T select * from U; drop table U"
        ))
        .unwrap();
        let t = db.table("T").unwrap().clone();
        assert_eq!(t.stats(), &TableStats::from_rows(3, t.rows()), "{t}");
        t
    }

    const fn i(v: i64) -> Value {
        Value::Int(v)
    }

    /// The upsert replaces whole node rows: the surviving rows keep their
    /// order and the new ones follow (`INSERT … SELECT` is `UNION ALL`).
    #[test]
    fn union_and_upsert() {
        let f = Value::Float;
        let mut db = db_with(
            &["v", "c", "b"],
            &[
                [i(0), i(0), f(1.0)],
                [i(1), i(0), f(0.5)],
                [i(0), i(1), f(-1.0)],
                [i(2), i(0), f(0.25)],
            ],
        );
        let b = upsert(&mut db, &[[i(0), i(0), f(9.0)], [i(0), i(1), f(-9.0)]], "v");
        let col = |i: usize| -> Vec<f64> { b.rows().iter().map(|r| r[i].as_float()).collect() };
        assert_eq!(col(0), vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(col(2), vec![0.5, 0.25, 9.0, -9.0]);
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

        let mut db = db_with(
            &["v", "b", "c"],
            &[[i(0), i(10), i(0)], [i(1), i(11), i(0)]],
        );
        let b = upsert(&mut db, &[[i(1), i(12), i(0)], [i(2), i(13), i(0)]], "v");
        // Rows now {0,1,2} → stats must reflect the rewrite, not the
        // append history.
        assert_eq!(b.stats().rows(), 3);
        assert_eq!(b.stats().column(0).distinct(), Some(3));
        assert_eq!(b.stats().column(0).max_freq(), Some(1));
    }

    /// `DELETE` maintains statistics incrementally; `upsert` checks that
    /// they equal a from-scratch rebuild through a sequence exercising the
    /// tricky paths: deleting a value at max multiplicity (max must drop),
    /// deleting the last float in a column (tracking must resume),
    /// inserting floats (tracking must stop), deleting nothing, and
    /// deleting everything.
    #[test]
    fn upsert_stats_match_from_scratch_rebuild() {
        let f = Value::Float;
        let mut db = db_with(
            &["k", "v", "w"],
            &[
                [i(0), i(5), f(0.5)],
                [i(1), i(5), i(7)],
                [i(2), i(5), i(7)],
                [i(3), i(6), i(8)],
            ],
        );
        // Deletes the float row (column w becomes all-int again) and two of
        // the three rows holding v=5 (the max-frequency value of column v).
        let t = upsert(
            &mut db,
            &[[i(0), i(9), i(1)], [i(1), i(6), i(1)], [i(4), i(6), i(2)]],
            "k",
        );
        assert!(t.stats().column(2).is_tracked());
        assert_eq!(t.stats().column(1).max_freq(), Some(3)); // v=6 three times
        assert_eq!(t.stats().column(2).max_freq(), Some(2)); // w=1 twice

        // Re-introduce a float, replacing every remaining original row.
        let t = upsert(&mut db, &[[i(2), i(5), f(1.5)], [i(3), i(5), i(1)]], "k");
        assert!(!t.stats().column(2).is_tracked());
        assert_eq!(t.stats().rows(), 5);

        // An empty upsert changes nothing; deleting every row leaves the
        // statistics of an empty table.
        assert_eq!(upsert(&mut db, &[], "k"), t);
        db.execute("delete from T where k in (select T.k from T)")
            .unwrap();
        assert!(upsert(&mut db, &[], "k").is_empty());
    }

    /// A table built from filtered rows carries exact statistics.
    #[test]
    fn derived_tables_carry_stats() {
        let cfg = ParallelismConfig::with_threads(1);
        let from1 = edges().filter_rows_with(&|r: &[Value]| r[0].as_int() == 1, &cfg);
        let f = Table::from_rows("f", edges().columns().to_vec(), from1);
        assert_eq!(f.stats().rows(), 2);
        assert_eq!(f.stats().column(0).distinct(), Some(1));
        assert_eq!(f.stats().column(0).max_freq(), Some(2));
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
