//! Compressed sparse row matrix.
//!
//! The single data structure behind every large-graph computation in this
//! workspace: adjacency matrices are stored once in CSR and shared by BP
//! (neighbor iteration), LinBP (SpMM), SBP (BFS layering) and the spectral
//! convergence criteria (SpMV inside power iteration).

use crate::cache::OperatorCache;
use crate::frontier::FrontierPlan;
use lsbp_linalg::simd::{axpy4, gather_dot4, sum4, sum_abs4, sum_sq4};
use lsbp_linalg::{weight_balanced_ranges, Mat, ParallelismConfig};
use std::ops::Range;

/// The largest row/column count a [`CsrMatrix`] can carry: column indices
/// are stored as `u32` (halving index bandwidth in the SpMV/SpMM/transpose
/// hot loops), and transposition turns row indices into column indices, so
/// both dimensions must fit.
pub const MAX_DIM: usize = u32::MAX as usize;

/// Construction failure of a [`CsrMatrix`] — the error surface of the
/// compact-index representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsrError {
    /// A dimension exceeds [`MAX_DIM`]: the graph has too many
    /// rows/columns for `u32` indices (> ~4.29 billion).
    DimensionOverflow {
        /// `"rows"` or `"cols"`.
        dim: &'static str,
        /// The offending dimension size.
        size: usize,
    },
    /// An edge-delta coordinate lies outside the matrix — the recoverable
    /// rejection path for client-supplied deltas
    /// ([`CsrMatrix::try_with_edge_deltas`]).
    EntryOutOfBounds {
        /// The offending row index.
        row: usize,
        /// The offending column index.
        col: usize,
    },
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::DimensionOverflow { dim, size } => write!(
                f,
                "CSR {dim} count {size} exceeds the u32 index limit ({MAX_DIM})"
            ),
            CsrError::EntryOutOfBounds { row, col } => {
                write!(f, "edge delta ({row}, {col}) is outside the matrix")
            }
        }
    }
}

impl std::error::Error for CsrError {}

/// A sparse `n_rows × n_cols` matrix in compressed sparse row format.
///
/// Column indices are stored as `u32` — half the index bandwidth of a
/// `usize` build in every nnz-bound kernel. Both dimensions are capped at
/// [`MAX_DIM`] (≈ 4.29 billion); the checked constructor
/// ([`CsrMatrix::try_from_raw_parts`]) reports larger graphs as
/// [`CsrError::DimensionOverflow`] instead of truncating.
///
/// Invariants (maintained by all constructors):
/// * `n_rows <= MAX_DIM`, `n_cols <= MAX_DIM`;
/// * `row_ptr.len() == n_rows + 1`, `row_ptr[0] == 0`, non-decreasing;
/// * column indices within each row are strictly increasing;
/// * `col_idx.len() == values.len() == row_ptr[n_rows]`.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// Derived invariants (frontier plan, row statistics), filled on
    /// first use; never part of the matrix's value.
    pub(crate) cache: OperatorCache,
}

impl CsrMatrix {
    fn check_dims(n_rows: usize, n_cols: usize) -> Result<(), CsrError> {
        if n_rows > MAX_DIM {
            return Err(CsrError::DimensionOverflow {
                dim: "rows",
                size: n_rows,
            });
        }
        if n_cols > MAX_DIM {
            return Err(CsrError::DimensionOverflow {
                dim: "cols",
                size: n_cols,
            });
        }
        Ok(())
    }

    /// Builds from raw CSR arrays, compacting column indices to `u32`.
    ///
    /// # Panics
    /// Panics if the CSR invariants do not hold (sizes, monotone `row_ptr`,
    /// strictly increasing in-row columns, in-bounds column indices) or a
    /// dimension exceeds [`MAX_DIM`] — use
    /// [`CsrMatrix::try_from_raw_parts`] for a recoverable error on
    /// oversized graphs.
    pub fn from_raw_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        match Self::try_from_raw_parts(n_rows, n_cols, row_ptr, col_idx, values) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds from already-validated compact parts — the crate-internal
    /// constructor behind shard extraction ([`crate::ShardedCsr`]) and
    /// reassembly, where the arrays are carved out of an existing
    /// `CsrMatrix` and the invariants hold by construction. Every other
    /// constructor ends here too, so every matrix starts with an empty
    /// derived-invariant cache.
    pub(crate) fn from_trusted_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert!(Self::check_dims(n_rows, n_cols).is_ok());
        debug_assert_eq!(row_ptr.len(), n_rows + 1);
        debug_assert_eq!(row_ptr.first(), Some(&0));
        debug_assert_eq!(row_ptr.last(), Some(&col_idx.len()));
        debug_assert_eq!(col_idx.len(), values.len());
        Self {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
            cache: OperatorCache::default(),
        }
    }

    /// [`CsrMatrix::from_raw_parts`] with a recoverable error for graphs
    /// whose dimensions exceed the `u32` index limit ([`MAX_DIM`]).
    /// Structural invariant violations (non-monotone `row_ptr`, unsorted
    /// or out-of-bounds columns, length mismatches) still panic — those
    /// are caller bugs, not data-size conditions.
    pub fn try_from_raw_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, CsrError> {
        Self::check_dims(n_rows, n_cols)?;
        assert_eq!(row_ptr.len(), n_rows + 1, "row_ptr length");
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        assert_eq!(
            *row_ptr.last().unwrap(),
            col_idx.len(),
            "row_ptr end / col_idx length"
        );
        assert_eq!(col_idx.len(), values.len(), "col_idx / values length");
        for r in 0..n_rows {
            assert!(
                row_ptr[r] <= row_ptr[r + 1],
                "row_ptr must be non-decreasing"
            );
            let cols = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in cols.windows(2) {
                assert!(
                    w[0] < w[1],
                    "columns within a row must be strictly increasing"
                );
            }
            if let Some(&last) = cols.last() {
                assert!(last < n_cols, "column index out of bounds");
            }
        }
        // In-bounds (< n_cols <= MAX_DIM) implies every index fits u32.
        let col_idx = col_idx.into_iter().map(|c| c as u32).collect();
        Ok(Self::from_trusted_parts(
            n_rows, n_cols, row_ptr, col_idx, values,
        ))
    }

    /// An `n × n` matrix with no stored entries.
    ///
    /// # Panics
    /// Panics if a dimension exceeds [`MAX_DIM`].
    pub fn empty(n_rows: usize, n_cols: usize) -> Self {
        if let Err(e) = Self::check_dims(n_rows, n_cols) {
            panic!("{e}");
        }
        Self::from_trusted_parts(n_rows, n_cols, vec![0; n_rows + 1], Vec::new(), Vec::new())
    }

    /// The `n × n` identity.
    ///
    /// # Panics
    /// Panics if `n` exceeds [`MAX_DIM`].
    pub fn identity(n: usize) -> Self {
        if let Err(e) = Self::check_dims(n, n) {
            panic!("{e}");
        }
        Self::from_trusted_parts(
            n,
            n,
            (0..=n).collect(),
            (0..n as u32).collect(),
            vec![1.0; n],
        )
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Column indices of row `r` (sorted ascending), as the compact `u32`
    /// storage type.
    #[inline]
    pub fn row_cols(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Values of row `r`, parallel to [`CsrMatrix::row_cols`].
    #[inline]
    pub fn row_values(&self, r: usize) -> &[f64] {
        &self.values[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Iterates `(col, value)` pairs of row `r` (columns widened to
    /// `usize` for ergonomic indexing).
    #[inline]
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.row_cols(r)
            .iter()
            .map(|&c| c as usize)
            .zip(self.row_values(r).iter().copied())
    }

    /// Number of stored entries in row `r` (the node degree for adjacency
    /// matrices without explicit zeros).
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// The CSR row-pointer array (`n_rows + 1` entries, `[0] == 0`,
    /// `[n_rows] == nnz`). Doubles as the cumulative-weight array for
    /// nnz-balanced row partitioning (see
    /// [`lsbp_linalg::weight_balanced_ranges`]).
    #[inline]
    pub fn row_offsets(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The full compact column-index array (crate-internal: shard
    /// extraction carves contiguous sub-slices out of it).
    #[inline]
    pub(crate) fn raw_col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The full value array, parallel to [`CsrMatrix::raw_col_idx`].
    #[inline]
    pub(crate) fn raw_values(&self) -> &[f64] {
        &self.values
    }

    /// Value at `(r, c)`, or 0.0 if not stored. `O(log row_nnz)` —
    /// binary search runs directly on the compact `u32` column slice
    /// (the lookup key is narrowed once; no per-probe casts), which is
    /// benchmark-visible in the reldb hash-join probe path.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let Ok(key) = u32::try_from(c) else {
            return 0.0; // beyond MAX_DIM: structurally absent
        };
        match self.row_cols(r).binary_search(&key) {
            Ok(pos) => self.row_values(r)[pos],
            Err(_) => 0.0,
        }
    }

    /// The index into `values`/`col_idx` of entry `(r, c)`, if stored.
    /// Searches the `u32` column slice directly, like [`CsrMatrix::get`].
    pub fn entry_index(&self, r: usize, c: usize) -> Option<usize> {
        let key = u32::try_from(c).ok()?;
        let start = self.row_ptr[r];
        self.row_cols(r)
            .binary_search(&key)
            .ok()
            .map(|pos| start + pos)
    }

    /// Sparse matrix × dense vector: `y = A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.spmv_into(x, &mut y);
        y
    }

    /// Sparse matrix × dense vector into a caller-provided buffer,
    /// parallelized according to the process default
    /// ([`ParallelismConfig::default`]).
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_into_with(x, y, &ParallelismConfig::default());
    }

    /// [`CsrMatrix::spmv_into`] with an explicit execution configuration.
    ///
    /// Rows are partitioned into nnz-balanced contiguous blocks computed
    /// by independent tasks writing disjoint output slices; each row's
    /// accumulation order is unchanged, so the result is bitwise identical
    /// for any thread count.
    pub fn spmv_into_with(&self, x: &[f64], y: &mut [f64], cfg: &ParallelismConfig) {
        assert_eq!(x.len(), self.n_cols, "spmv dimension mismatch");
        assert_eq!(y.len(), self.n_rows, "spmv output dimension mismatch");
        let parts = cfg.partitions(self.nnz() + self.n_rows);
        if parts <= 1 {
            self.spmv_rows(x, 0..self.n_rows, y);
            return;
        }
        let ranges = weight_balanced_ranges(&self.row_ptr, parts);
        let mut rest: &mut [f64] = y;
        cfg.pool().scope(|s| {
            for range in ranges {
                let (chunk, tail) = rest.split_at_mut(range.end - range.start);
                rest = tail;
                s.spawn(move || self.spmv_rows(x, range, chunk));
            }
        });
    }

    /// Serial SpMV kernel over the row block `rows`, writing into `block`
    /// (`block[i]` = output row `rows.start + i`). Shared verbatim by the
    /// serial path, every parallel task, and the sharded backend
    /// ([`crate::ShardedCsr`], which runs it on shard-local rows). Each
    /// row accumulates in the canonical 4-lane order
    /// ([`lsbp_linalg::simd::gather_dot4`]).
    pub(crate) fn spmv_rows(&self, x: &[f64], rows: Range<usize>, block: &mut [f64]) {
        for (r, out) in rows.zip(block.iter_mut()) {
            *out = gather_dot4(self.row_cols(r), self.row_values(r), x);
        }
    }

    /// Sparse × dense matrix product: `A · B` where `B` is `n_cols × k`.
    /// This is the LinBP workhorse (`A · B̂`), `O(nnz · k)`.
    pub fn spmm(&self, b: &Mat) -> Mat {
        let mut out = Mat::zeros(self.n_rows, b.cols());
        self.spmm_into(b, &mut out);
        out
    }

    /// [`CsrMatrix::spmm`] with an explicit execution configuration.
    pub fn spmm_with(&self, b: &Mat, cfg: &ParallelismConfig) -> Mat {
        let mut out = Mat::zeros(self.n_rows, b.cols());
        self.spmm_into_with(b, &mut out, cfg);
        out
    }

    /// Sparse × dense into a caller-provided output (overwrites `out`),
    /// parallelized according to the process default
    /// ([`ParallelismConfig::default`]).
    pub fn spmm_into(&self, b: &Mat, out: &mut Mat) {
        self.spmm_into_with(b, out, &ParallelismConfig::default());
    }

    /// [`CsrMatrix::spmm_into`] with an explicit execution configuration.
    ///
    /// Rows are partitioned into nnz-balanced contiguous blocks computed
    /// by independent tasks writing disjoint output slices; each output
    /// row's accumulation order is unchanged, so the result is bitwise
    /// identical for any thread count.
    pub fn spmm_into_with(&self, b: &Mat, out: &mut Mat, cfg: &ParallelismConfig) {
        assert_eq!(b.rows(), self.n_cols, "spmm dimension mismatch");
        assert_eq!(out.rows(), self.n_rows, "spmm output rows");
        assert_eq!(out.cols(), b.cols(), "spmm output cols");
        self.spmm_block_with(b, out.as_mut_slice(), cfg);
    }

    /// The partitioned SpMM body over *this matrix's* rows, writing the
    /// flat row-major `block` (exactly `n_rows · b.cols()` slots). The
    /// sharded backend calls this once per shard as its own
    /// persistent-pool region; [`CsrMatrix::spmm_into_with`] calls it
    /// once for the whole matrix.
    pub(crate) fn spmm_block_with(&self, b: &Mat, block: &mut [f64], cfg: &ParallelismConfig) {
        let parts = cfg.partitions((self.nnz() + self.n_rows) * b.cols());
        if parts <= 1 {
            self.spmm_rows(b, 0..self.n_rows, block);
            return;
        }
        let ranges = weight_balanced_ranges(&self.row_ptr, parts);
        let row_len = b.cols();
        let mut rest: &mut [f64] = block;
        cfg.pool().scope(|s| {
            for range in ranges {
                let (chunk, tail) = rest.split_at_mut((range.end - range.start) * row_len);
                rest = tail;
                s.spawn(move || self.spmm_rows(b, range, chunk));
            }
        });
    }

    /// Serial SpMM kernel over the row block `rows`, writing into `block`
    /// (the flat row-major storage of exactly those output rows). Routes
    /// the paper's common class counts (`b.cols() ∈ {2, 3, 4}`) to the
    /// width-specialized register kernel ([`CsrMatrix::spmm_rows_k`])
    /// and everything wider to the generic slice kernel — both compute
    /// the identical arithmetic in the identical per-element order, so
    /// the dispatch is invisible bitwise. Shared verbatim by the serial
    /// path, every parallel task, and the sharded backend
    /// ([`crate::ShardedCsr`]), and allocation-free.
    pub(crate) fn spmm_rows(&self, b: &Mat, rows: Range<usize>, block: &mut [f64]) {
        match b.cols() {
            2 => self.spmm_rows_k::<2>(b, rows, block),
            3 => self.spmm_rows_k::<3>(b, rows, block),
            4 => self.spmm_rows_k::<4>(b, rows, block),
            _ => self.spmm_rows_generic(b, rows, block),
        }
    }

    /// Width-specialized SpMM row kernel: the output row lives in a
    /// `[f64; K]` register array for the whole gather (the fused LinBP
    /// kernel's specialization applied to the standalone SpMM), written
    /// back once per row. Each output element still accumulates its
    /// contributions in CSR entry order — exactly the generic kernel's
    /// per-element order, so results are unchanged bitwise; only the
    /// per-entry output-row loads/stores disappear.
    fn spmm_rows_k<const K: usize>(&self, b: &Mat, rows: Range<usize>, block: &mut [f64]) {
        debug_assert_eq!(b.cols(), K);
        for (i, r) in rows.enumerate() {
            // Accumulate row r of the output: Σ_c A(r,c) · B(c,·).
            let mut acc = [0.0f64; K];
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_values(r)) {
                let b_row = b.row(c as usize);
                for j in 0..K {
                    acc[j] += v * b_row[j];
                }
            }
            block[i * K..(i + 1) * K].copy_from_slice(&acc);
        }
    }

    /// The generic (any-width) SpMM row kernel: the output row borrow and
    /// the `col_idx`/`values` slices are hoisted out of the per-entry
    /// loop; the per-entry axpy runs 4 lanes wide across the *output
    /// columns* ([`axpy4`]), which vectorizes without reassociating any
    /// output element's sum — each element still accumulates its
    /// contributions in CSR entry order, exactly like the pre-SIMD
    /// kernel. Unlike the reduction kernels (SpMV, norms), there is no
    /// canonical-order reassociation here: per-output-element sums have
    /// no lane structure to exploit, and keeping the sequential order
    /// keeps the whole LinBP/batch family bit-stable. Since the
    /// width-specialized dispatch landed this only runs off the hot path
    /// (RWR's stacked walk widths and unusual class counts).
    fn spmm_rows_generic(&self, b: &Mat, rows: Range<usize>, block: &mut [f64]) {
        let row_len = b.cols();
        block.iter_mut().for_each(|x| *x = 0.0);
        for r in rows.clone() {
            // Accumulate row r of the output: Σ_c A(r,c) · B(c,·).
            let o_row = &mut block[(r - rows.start) * row_len..(r - rows.start + 1) * row_len];
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_values(r)) {
                axpy4(v, b.row(c as usize), o_row);
            }
        }
    }

    /// Transpose (always returns a valid CSR with sorted rows),
    /// parallelized according to the process default
    /// ([`ParallelismConfig::default`]).
    pub fn transpose(&self) -> CsrMatrix {
        self.transpose_with(&ParallelismConfig::default())
    }

    /// [`CsrMatrix::transpose`] with an explicit execution configuration.
    ///
    /// The parallel path partitions the *output* rows (input columns) into
    /// nnz-balanced blocks after a serial counting pass; each task scatters
    /// only the entries landing in its block (located by binary search in
    /// each input row's sorted column slice), so writes are disjoint and
    /// the within-row order (ascending input row) matches the serial
    /// scatter exactly — the result is identical for any thread count.
    pub fn transpose_with(&self, cfg: &ParallelismConfig) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.n_cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for i in 0..self.n_cols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut parts = cfg.partitions(self.nnz() + self.n_rows + self.n_cols);
        // The parallel scatter re-scans every input row per task (two
        // binary probes each), an O(parts · n_rows) overhead the serial
        // scatter does not pay — the total work *grows* with the split.
        // Splitting only wins when each task's share of scattered writes
        // dominates its own full rescan by a wide margin: measured on the
        // m9 Kronecker graph (average degree ~13), a 4-way split ran at
        // 0.92–0.98× serial because the probes rivaled the writes. So
        // require ≥ 8·n_rows stored entries per task (average degree ≥
        // 8·parts); otherwise shrink the partition count. A min-work
        // floor of 1 is the documented "force the parallel path"
        // test/benchmark hook and skips this profitability clamp.
        if cfg.min_work() > 1 {
            if let Some(write_bound) = self.nnz().checked_div(8 * self.n_rows) {
                parts = parts.min(write_bound.max(1));
            }
        }
        if parts <= 1 {
            let mut next = row_ptr.clone();
            for r in 0..self.n_rows {
                for (c, v) in self.row_iter(r) {
                    let pos = next[c];
                    col_idx[pos] = r as u32;
                    values[pos] = v;
                    next[c] += 1;
                }
            }
        } else {
            let ranges = weight_balanced_ranges(&row_ptr, parts);
            let mut rest_cols: &mut [u32] = &mut col_idx;
            let mut rest_vals: &mut [f64] = &mut values;
            let mut consumed = 0usize;
            cfg.pool().scope(|s| {
                for range in ranges {
                    let len = row_ptr[range.end] - row_ptr[range.start];
                    let (c_chunk, c_tail) = rest_cols.split_at_mut(len);
                    let (v_chunk, v_tail) = rest_vals.split_at_mut(len);
                    rest_cols = c_tail;
                    rest_vals = v_tail;
                    debug_assert_eq!(consumed, row_ptr[range.start]);
                    consumed += len;
                    let row_ptr = &row_ptr;
                    s.spawn(move || self.transpose_scatter_block(row_ptr, range, c_chunk, v_chunk));
                }
            });
        }
        CsrMatrix::from_trusted_parts(self.n_cols, self.n_rows, row_ptr, col_idx, values)
    }

    /// Scatters every stored entry whose column lies in `cols` into the
    /// output block covering exactly those transpose rows. `out_row_ptr`
    /// is the transpose's finished row-pointer array; `c_chunk`/`v_chunk`
    /// are the slices of its `col_idx`/`values` starting at
    /// `out_row_ptr[cols.start]`.
    fn transpose_scatter_block(
        &self,
        out_row_ptr: &[usize],
        cols: Range<usize>,
        c_chunk: &mut [u32],
        v_chunk: &mut [f64],
    ) {
        let base = out_row_ptr[cols.start];
        // The block bounds as u32 once — probes compare the compact
        // storage type directly.
        let (lo_col, hi_col) = (cols.start as u32, cols.end as u32);
        // Per-column write cursors, block-local.
        let mut next: Vec<usize> = out_row_ptr[cols.start..=cols.end]
            .iter()
            .map(|&p| p - base)
            .collect();
        for r in 0..self.n_rows {
            let row_cols = self.row_cols(r);
            // Columns are sorted within a row: binary-search the sub-range
            // falling inside this block instead of scanning the whole row.
            let lo = row_cols.partition_point(|&c| c < lo_col);
            let hi = lo + row_cols[lo..].partition_point(|&c| c < hi_col);
            let row_vals = self.row_values(r);
            for (&c, &v) in row_cols[lo..hi].iter().zip(&row_vals[lo..hi]) {
                let slot = &mut next[c as usize - cols.start];
                c_chunk[*slot] = r as u32;
                v_chunk[*slot] = v;
                *slot += 1;
            }
        }
    }

    /// `true` iff the matrix equals its transpose up to `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        for r in 0..self.n_rows {
            for (c, v) in self.row_iter(r) {
                if (self.get(c, r) - v).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// `true` iff the stored sparsity pattern is symmetric: `(c, r)` is
    /// stored for every stored `(r, c)`, whatever either value is
    /// (explicit zeros count, self-loops mirror themselves). One `O(nnz)`
    /// pass without a transpose: a cursor per row walks that row's
    /// entries below the diagonal in column order, each matched by the
    /// mirrored entry above the diagonal as the rows are visited in
    /// order. A row whose columns are not strictly increasing (which no
    /// public constructor admits) reports `false`.
    pub(crate) fn is_pattern_symmetric(&self) -> bool {
        let n = self.n_rows;
        if n != self.n_cols {
            return false;
        }
        let mut cursor = self.row_ptr[..n].to_vec();
        for r in 0..n {
            let cols = self.row_cols(r);
            if cols.windows(2).any(|w| w[0] >= w[1]) {
                return false;
            }
            for &c in cols.iter().filter(|&&c| c as usize > r) {
                let c = c as usize;
                let p = cursor[c];
                if p == self.row_ptr[c + 1] || self.col_idx[p] as usize != r {
                    return false;
                }
                cursor[c] = p + 1;
            }
        }
        // Every entry below the diagonal was matched.
        (0..n).all(|c| cursor[c] == self.row_ptr[c + 1] || self.col_idx[cursor[c]] as usize >= c)
    }

    /// The weighted degree vector of Sect. 5.2: `d_s = Σ_t w(s,t)²`
    /// (the echo cancellation travels an edge back *and* forth, so each
    /// edge contributes its squared weight). For unweighted graphs this is
    /// the ordinary degree. Built on first use, then borrowed.
    pub fn squared_weight_degrees(&self) -> &[f64] {
        self.cache
            .squared_weight_degrees(|| self.row_stats(sum_sq4).collect())
    }

    /// Plain weighted row sums (`Σ_t w(s,t)`), accumulated in the
    /// canonical 4-lane order. Built on first use, then borrowed.
    pub fn row_sums(&self) -> &[f64] {
        self.cache.row_sums(|| self.row_stats(sum4).collect())
    }

    /// `stat` of every row's values, in row order — the uncached walk
    /// behind the row-statistics vectors (shard walks concatenate it).
    pub(crate) fn row_stats(&self, stat: fn(&[f64]) -> f64) -> impl Iterator<Item = f64> + '_ {
        (0..self.n_rows).map(move |r| stat(self.row_values(r)))
    }

    /// Folds every row into `plan`, row `r` at global row `first_row + r`
    /// (a shard's columns are already global).
    pub(crate) fn add_rows_to_plan(&self, first_row: usize, plan: &mut FrontierPlan) {
        for r in 0..self.n_rows {
            plan.add_row(first_row + r, self.row_cols(r));
        }
    }

    /// Returns a copy with all entries scaled by `s`.
    pub fn scale(&self, s: f64) -> CsrMatrix {
        let mut out = self.clone();
        out.values.iter_mut().for_each(|v| *v *= s);
        out
    }

    /// Returns a copy with additive edge-weight `deltas` merged in:
    /// `out[r, c] = self[r, c] + Σ δ` over every `(r, c, δ)` in the list
    /// (duplicates sum). A coordinate whose *resulting* weight is exactly
    /// `0.0` is not stored — a delta that cancels an edge removes it from
    /// the structure — while untouched explicit zeros are preserved
    /// as-is. Out-of-bounds coordinates are a recoverable
    /// [`CsrError::EntryOutOfBounds`] (deltas arrive from remote clients),
    /// and on error `self` is unchanged.
    ///
    /// This is the serving layer's graph-version step: rebuilding the CSR
    /// costs one merge pass over `nnz + |deltas|` entries instead of a
    /// full COO re-sort, and the untouched rows are byte-for-byte copies
    /// of the old ones.
    pub fn try_with_edge_deltas(
        &self,
        deltas: &[(usize, usize, f64)],
    ) -> Result<CsrMatrix, CsrError> {
        use std::collections::BTreeMap;
        for &(r, c, _) in deltas {
            if r >= self.n_rows || c >= self.n_cols {
                return Err(CsrError::EntryOutOfBounds { row: r, col: c });
            }
        }
        // Per-row sorted delta maps, duplicates summed in arrival order.
        let mut by_row: BTreeMap<usize, BTreeMap<u32, f64>> = BTreeMap::new();
        for &(r, c, d) in deltas {
            *by_row.entry(r).or_default().entry(c as u32).or_insert(0.0) += d;
        }

        let mut row_ptr = vec![0usize; self.n_rows + 1];
        let mut col_idx: Vec<u32> = Vec::with_capacity(self.nnz() + deltas.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.nnz() + deltas.len());
        for r in 0..self.n_rows {
            let old_cols = self.row_cols(r);
            let old_vals = self.row_values(r);
            match by_row.get(&r) {
                None => {
                    col_idx.extend_from_slice(old_cols);
                    values.extend_from_slice(old_vals);
                }
                Some(row_deltas) => {
                    // Sorted two-way merge of the old row and its deltas.
                    // Only *touched* coordinates go through the zero-prune;
                    // untouched entries pass through verbatim.
                    let mut i = 0;
                    for (&c, &d) in row_deltas {
                        while i < old_cols.len() && old_cols[i] < c {
                            col_idx.push(old_cols[i]);
                            values.push(old_vals[i]);
                            i += 1;
                        }
                        let merged = if i < old_cols.len() && old_cols[i] == c {
                            i += 1;
                            old_vals[i - 1] + d
                        } else {
                            d
                        };
                        if merged != 0.0 {
                            col_idx.push(c);
                            values.push(merged);
                        }
                    }
                    col_idx.extend_from_slice(&old_cols[i..]);
                    values.extend_from_slice(&old_vals[i..]);
                }
            }
            row_ptr[r + 1] = col_idx.len();
        }
        Ok(CsrMatrix::from_trusted_parts(
            self.n_rows,
            self.n_cols,
            row_ptr,
            col_idx,
            values,
        ))
    }

    /// Returns a copy with exact-zero entries removed.
    pub fn prune_zeros(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.n_rows + 1];
        let mut col_idx: Vec<u32> = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for r in 0..self.n_rows {
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_values(r)) {
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr[r + 1] = col_idx.len();
        }
        CsrMatrix::from_trusted_parts(self.n_rows, self.n_cols, row_ptr, col_idx, values)
    }

    /// Densifies (tests / tiny systems only).
    pub fn to_dense(&self) -> Mat {
        let mut m = Mat::zeros(self.n_rows, self.n_cols);
        for r in 0..self.n_rows {
            for (c, v) in self.row_iter(r) {
                m[(r, c)] = v;
            }
        }
        m
    }

    /// Maximum absolute row sum — the induced ∞-norm, used by Lemma 9 for
    /// the adjacency matrix without densifying it.
    pub fn induced_inf_norm(&self) -> f64 {
        (0..self.n_rows)
            .map(|r| sum_abs4(self.row_values(r)))
            .fold(0.0, f64::max)
    }

    /// Maximum absolute column sum — the induced 1-norm.
    pub fn induced_1_norm(&self) -> f64 {
        let mut col_sums = vec![0.0f64; self.n_cols];
        for (idx, &c) in self.col_idx.iter().enumerate() {
            col_sums[c as usize] += self.values[idx].abs();
        }
        col_sums.into_iter().fold(0.0, f64::max)
    }

    /// Frobenius norm (canonical 4-lane sum over the stored values).
    pub fn frobenius_norm(&self) -> f64 {
        sum_sq4(&self.values).sqrt()
    }

    /// Spectral radius via power iteration (the matrix should be symmetric,
    /// which holds for undirected adjacency matrices).
    pub fn spectral_radius(&self) -> f64 {
        assert_eq!(
            self.n_rows, self.n_cols,
            "spectral radius of a square matrix only"
        );
        lsbp_linalg::power_iteration(
            self.n_rows,
            |x, out| self.spmv_into(x, out),
            lsbp_linalg::PowerIterationOptions {
                max_iter: 2000,
                ..Default::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn small() -> CsrMatrix {
        // [[0, 2, 0],
        //  [2, 0, 3],
        //  [0, 3, 1]]
        let mut coo = CooMatrix::new(3, 3);
        coo.push_symmetric(0, 1, 2.0);
        coo.push_symmetric(1, 2, 3.0);
        coo.push(2, 2, 1.0);
        coo.to_csr()
    }

    fn pattern(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(r, c, v) in entries {
            coo.push(r, c, v);
        }
        coo.to_csr()
    }

    #[test]
    fn pattern_symmetry_of_mirrored_patterns() {
        assert!(small().is_pattern_symmetric());
        // Every row reaching every other row, on both sides of the
        // diagonal, with rows of different lengths.
        let mut coo = CooMatrix::new(6, 6);
        for (r, c) in [(0, 5), (0, 3), (1, 2), (1, 5), (2, 4), (3, 4), (4, 5)] {
            coo.push_symmetric(r, c, 1.0 + r as f64);
        }
        assert!(coo.to_csr().is_pattern_symmetric());
        // Self-loops mirror themselves; empty rows and an empty matrix
        // hold nothing to mirror.
        let loops = pattern(5, &[(0, 0, 1.0), (3, 3, 2.0), (0, 3, 1.0), (3, 0, 1.0)]);
        assert_eq!(loops.row_nnz(1), 0);
        assert!(loops.is_pattern_symmetric());
        assert!(CsrMatrix::empty(4, 4).is_pattern_symmetric());
        assert!(CsrMatrix::empty(0, 0).is_pattern_symmetric());
        assert!(CsrMatrix::identity(3).is_pattern_symmetric());
    }

    #[test]
    fn pattern_symmetry_missing_mirror() {
        // (2, 0) has no (0, 2): found when row 0's cursor is left over…
        assert!(!pattern(3, &[(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)]).is_pattern_symmetric());
        // …and (0, 2) has no (2, 0): found when row 0 reaches column 2.
        assert!(!pattern(3, &[(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1.0)]).is_pattern_symmetric());
        // Same row lengths and in-degrees, but mirrored wrongly:
        // 0→1, 1→2, 2→0 against 1→0, 2→1, 0→2 would be symmetric; a
        // directed cycle is not.
        assert!(!pattern(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]).is_pattern_symmetric());
        // A rectangular matrix never is.
        assert!(!CsrMatrix::empty(2, 3).is_pattern_symmetric());
    }

    #[test]
    fn pattern_symmetry_reads_the_pattern_not_the_values() {
        // An explicit zero mirrors a non-zero: the pattern is symmetric
        // although the values are not.
        let zero = pattern(3, &[(0, 1, 0.0), (1, 0, 4.0), (1, 2, 1.0), (2, 1, 1.0)]);
        assert_eq!(zero.nnz(), 4);
        assert!(zero.is_pattern_symmetric());
        assert!(!zero.is_symmetric(0.0));
        // Weight-asymmetric but pattern-symmetric (a directed weighting
        // of an undirected graph).
        let weights = pattern(3, &[(0, 2, 1.0), (2, 0, -3.0), (1, 1, 0.5)]);
        assert!(weights.is_pattern_symmetric());
        assert!(!weights.is_symmetric(1e-9));
        // A stored zero without its mirror still breaks the pattern.
        assert!(!pattern(2, &[(0, 1, 0.0)]).is_pattern_symmetric());
    }

    #[test]
    fn pattern_symmetry_rejects_duplicate_and_unsorted_rows() {
        // The public constructors refuse such rows, so build them from
        // parts: a duplicated mirror pair, and a reversed row whose
        // entries would otherwise match.
        let dup =
            CsrMatrix::from_trusted_parts(2, 2, vec![0, 2, 4], vec![1, 1, 0, 0], vec![1.0; 4]);
        assert!(!dup.is_pattern_symmetric());
        let unsorted =
            CsrMatrix::from_trusted_parts(3, 3, vec![0, 2, 3, 4], vec![2, 1, 0, 0], vec![1.0; 4]);
        assert!(!unsorted.is_pattern_symmetric());
        let sorted =
            CsrMatrix::from_trusted_parts(3, 3, vec![0, 2, 3, 4], vec![1, 2, 0, 0], vec![1.0; 4]);
        assert!(sorted.is_pattern_symmetric());
    }

    #[test]
    fn get_and_row_access() {
        let m = small();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.row_cols(1), &[0, 2]);
        assert_eq!(m.row_values(2), &[3.0, 1.0]);
        assert_eq!(m.row_nnz(1), 2);
        assert_eq!(m.nnz(), 5);
    }

    #[test]
    fn spmv_known() {
        let m = small();
        let y = m.spmv(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![2.0, 5.0, 4.0]);
    }

    #[test]
    fn spmm_matches_dense() {
        let m = small();
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, -1.0]]);
        let sparse_prod = m.spmm(&b);
        let dense_prod = m.to_dense().matmul(&b);
        assert!(sparse_prod.max_abs_diff(&dense_prod) < 1e-14);
    }

    /// The width-specialized SpMM row kernels (k = 2/3/4) are bitwise
    /// identical to the generic slice kernel they retired from the hot
    /// path — same per-element CSR-entry accumulation order, registers
    /// instead of memory.
    #[test]
    fn spmm_width_specialization_bitwise() {
        let mut coo = CooMatrix::new(9, 9);
        for i in 0..8usize {
            coo.push_symmetric(i, i + 1, 0.3 * i as f64 + 0.1);
            coo.push_symmetric(i / 2, i, 1.7 - 0.2 * i as f64);
        }
        let m = coo.to_csr();
        for k in [2usize, 3, 4] {
            let b = Mat::from_fn(9, k, |r, c| ((r * k + c) % 13) as f64 * 0.05 - 0.3);
            let mut spec = vec![f64::NAN; 9 * k];
            let mut gen = vec![f64::NAN; 9 * k];
            m.spmm_rows(&b, 0..9, &mut spec);
            m.spmm_rows_generic(&b, 0..9, &mut gen);
            for (a, b) in spec.iter().zip(&gen) {
                assert_eq!(a.to_bits(), b.to_bits(), "k={k}");
            }
        }
    }

    #[test]
    fn transpose_of_symmetric_is_self() {
        let m = small();
        assert!(m.is_symmetric(0.0));
        assert_eq!(m.transpose(), m);
    }

    #[test]
    fn transpose_rectangular() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 2, 5.0);
        coo.push(1, 0, 1.0);
        let m = coo.to_csr();
        let t = m.transpose();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.get(2, 0), 5.0);
        assert_eq!(t.get(0, 1), 1.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn squared_weight_degrees_weighted() {
        let m = small();
        // Row 0: 2² = 4; row 1: 2²+3² = 13; row 2: 3²+1² = 10.
        assert_eq!(m.squared_weight_degrees(), vec![4.0, 13.0, 10.0]);
        assert_eq!(m.row_sums(), vec![2.0, 5.0, 4.0]);
    }

    /// A filled cache never leaks into a derived matrix: clones, scaled
    /// copies and edge-delta versions start empty and build their own,
    /// and equality ignores the cache.
    #[test]
    fn derived_matrices_start_with_an_empty_cache() {
        let m = small();
        assert_eq!(m.row_sums(), vec![2.0, 5.0, 4.0]);
        assert_eq!(m.squared_weight_degrees(), vec![4.0, 13.0, 10.0]);
        assert_eq!(
            m.clone(),
            small(),
            "a filled cache is not part of the value"
        );
        assert_eq!(m.scale(2.0).row_sums(), vec![4.0, 10.0, 8.0]);
        let patched = m
            .try_with_edge_deltas(&[(0, 1, 1.0), (2, 2, -1.0)])
            .unwrap();
        assert_eq!(patched.squared_weight_degrees(), vec![9.0, 13.0, 9.0]);
        assert_eq!(patched.row_sums(), vec![3.0, 5.0, 3.0]);
    }

    #[test]
    fn norms_match_dense() {
        let m = small();
        let d = m.to_dense();
        assert!((m.induced_1_norm() - lsbp_linalg::induced_1_norm(&d)).abs() < 1e-14);
        assert!((m.induced_inf_norm() - lsbp_linalg::induced_inf_norm(&d)).abs() < 1e-14);
        assert!((m.frobenius_norm() - lsbp_linalg::frobenius_norm(&d)).abs() < 1e-14);
    }

    #[test]
    fn spectral_radius_path_graph() {
        // P3 path: eigenvalues ±√2, 0.
        let mut coo = CooMatrix::new(3, 3);
        coo.push_symmetric(0, 1, 1.0);
        coo.push_symmetric(1, 2, 1.0);
        let m = coo.to_csr();
        assert!((m.spectral_radius() - 2.0f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn identity_and_empty() {
        let i = CsrMatrix::identity(4);
        assert_eq!(i.nnz(), 4);
        assert_eq!(i.spmv(&[1.0, 2.0, 3.0, 4.0]), vec![1.0, 2.0, 3.0, 4.0]);
        let e = CsrMatrix::empty(2, 5);
        assert_eq!(e.nnz(), 0);
        assert_eq!(e.spmv(&[1.0; 5]), vec![0.0, 0.0]);
    }

    #[test]
    fn scale_and_prune() {
        let m = small().scale(0.0);
        assert_eq!(m.nnz(), 5); // explicit zeros kept
        let p = m.prune_zeros();
        assert_eq!(p.nnz(), 0);
        let m2 = small().scale(2.0);
        assert_eq!(m2.get(1, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_raw_parts_rejects_unsorted() {
        let _ = CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_raw_parts_rejects_bad_column() {
        let _ = CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![2], vec![1.0]);
    }

    #[test]
    fn entry_index_lookup() {
        let m = small();
        // values order: (0,1)=2, (1,0)=2, (1,2)=3, (2,1)=3, (2,2)=1
        assert_eq!(m.entry_index(1, 2), Some(2));
        assert_eq!(m.entry_index(2, 2), Some(4));
        assert!(m.entry_index(0, 0).is_none());
    }

    /// Lookups beyond the u32 index limit are structurally absent, not a
    /// panic or a truncated (wrapped) probe.
    #[test]
    fn lookups_past_u32_limit_are_absent() {
        let m = small();
        assert_eq!(m.get(0, usize::MAX), 0.0);
        assert!(m.entry_index(0, usize::MAX).is_none());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn try_from_raw_parts_rejects_oversized_dimensions() {
        let too_big = crate::csr::MAX_DIM + 1;
        // Zero stored entries: only the dimension check can fire, so the
        // arrays stay tiny.
        let err =
            CsrMatrix::try_from_raw_parts(1, too_big, vec![0, 0], vec![], vec![]).unwrap_err();
        assert_eq!(
            err,
            CsrError::DimensionOverflow {
                dim: "cols",
                size: too_big
            }
        );
        // The dimension check fires before any structural validation, so
        // the (invalid-length) arrays never need to be materialized.
        let err = CsrMatrix::try_from_raw_parts(too_big, 1, vec![0], vec![], vec![]).unwrap_err();
        assert!(matches!(
            err,
            CsrError::DimensionOverflow { dim: "rows", .. }
        ));
        assert!(err.to_string().contains("u32 index limit"));
    }

    #[test]
    fn try_from_raw_parts_accepts_valid_input() {
        let m =
            CsrMatrix::try_from_raw_parts(2, 3, vec![0, 1, 2], vec![2, 0], vec![5.0, 1.0]).unwrap();
        assert_eq!(m.get(0, 2), 5.0);
        assert_eq!(m.get(1, 0), 1.0);
    }

    #[test]
    fn edge_deltas_merge_sum_and_prune() {
        // Row 0: [ . 2 . ], row 1: [ 1 . 3 ], row 2 empty.
        let m =
            CsrMatrix::from_raw_parts(3, 3, vec![0, 1, 3, 3], vec![1, 0, 2], vec![2.0, 1.0, 3.0]);
        let out = m
            .try_with_edge_deltas(&[
                (0, 1, 0.5),  // adjust an existing entry
                (0, 0, 4.0),  // insert before it
                (1, 2, -3.0), // cancel exactly → pruned
                (2, 1, 0.25), // insert into an empty row
                (2, 1, 0.25), // duplicate delta sums
            ])
            .unwrap();
        assert_eq!(out.get(0, 0), 4.0);
        assert_eq!(out.get(0, 1), 2.5);
        assert_eq!(out.get(1, 0), 1.0);
        assert_eq!(out.entry_index(1, 2), None); // cancelled edge removed
        assert_eq!(out.get(2, 1), 0.5);
        assert_eq!(out.nnz(), 4);
        // The original is untouched.
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn edge_deltas_reject_out_of_bounds() {
        let m = CsrMatrix::identity(2);
        assert_eq!(
            m.try_with_edge_deltas(&[(0, 5, 1.0)]).unwrap_err(),
            CsrError::EntryOutOfBounds { row: 0, col: 5 }
        );
        assert_eq!(
            m.try_with_edge_deltas(&[(9, 0, 1.0)]).unwrap_err(),
            CsrError::EntryOutOfBounds { row: 9, col: 0 }
        );
    }

    #[test]
    fn edge_deltas_untouched_rows_identical() {
        let m = CsrMatrix::from_raw_parts(
            3,
            3,
            vec![0, 2, 3, 4],
            vec![0, 2, 1, 0],
            vec![
                1.0, 0.0, // note: explicit zero survives in untouched rows
                2.0, 3.0,
            ],
        );
        let out = m.try_with_edge_deltas(&[(1, 1, 1.0)]).unwrap();
        assert_eq!(out.row_cols(0), m.row_cols(0));
        assert_eq!(out.row_values(0), m.row_values(0));
        assert_eq!(out.get(1, 1), 3.0);
        assert_eq!(out.row_cols(2), m.row_cols(2));
    }
}
