//! Row-major dense matrix.
//!
//! [`Mat`] is the workhorse container for belief matrices (`n × k`, one row
//! per node) and coupling matrices (`k × k`). It stores data contiguously in
//! row-major order so that a node's belief vector is a contiguous slice —
//! the access pattern of every kernel in the workspace (SpMM walks rows).

use crate::parallel::ParallelismConfig;
use crate::simd::{axpy4, max_abs4, max_abs_diff4, SquaredDiffAccumulator};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `rows × cols` matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a closure mapping `(row, col)` to a value.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from nested row slices.
    ///
    /// # Panics
    /// Panics if the rows are ragged (different lengths).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "ragged rows in Mat::from_rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "Mat::from_vec length mismatch");
        Self { rows, cols, data }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` iff the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// The flat row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The flat row-major backing slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Dense matrix product `self · other`, parallelized over output rows
    /// according to the process default ([`ParallelismConfig::default`]).
    ///
    /// Uses the classic ikj loop order so the inner loop streams over
    /// contiguous rows of `other` and the output.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Mat) -> Mat {
        self.matmul_with(other, &ParallelismConfig::default())
    }

    /// [`Mat::matmul`] with an explicit execution configuration.
    pub fn matmul_with(&self, other: &Mat, cfg: &ParallelismConfig) -> Mat {
        let mut out = Mat::zeros(self.rows, other.cols);
        self.matmul_into_with(other, &mut out, cfg);
        out
    }

    /// Dense product into a caller-provided output (overwrites `out`),
    /// avoiding the allocation of [`Mat::matmul`].
    pub fn matmul_into(&self, other: &Mat, out: &mut Mat) {
        self.matmul_into_with(other, out, &ParallelismConfig::default());
    }

    /// [`Mat::matmul_into`] with an explicit execution configuration.
    ///
    /// Output rows are partitioned into contiguous blocks computed by
    /// independent tasks; each row's accumulation order equals the serial
    /// kernel's, so the result is bitwise identical for any thread count.
    pub fn matmul_into_with(&self, other: &Mat, out: &mut Mat, cfg: &ParallelismConfig) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.rows, self.rows, "matmul output rows");
        assert_eq!(out.cols, other.cols, "matmul output cols");
        let parts = cfg.partitions(self.rows * self.cols * other.cols);
        if parts <= 1 {
            self.matmul_rows(other, 0..self.rows, out.as_mut_slice());
            return;
        }
        let ranges = crate::parallel::even_ranges(self.rows, parts);
        let row_len = other.cols;
        let mut rest: &mut [f64] = out.as_mut_slice();
        cfg.pool().scope(|s| {
            for range in ranges {
                let (chunk, tail) = rest.split_at_mut((range.end - range.start) * row_len);
                rest = tail;
                s.spawn(move || self.matmul_rows(other, range, chunk));
            }
        });
    }

    /// Serial ikj kernel over the row block `rows`, writing into `block`
    /// (the flat row-major storage of exactly those output rows). Shared
    /// verbatim by the serial path and every parallel task, which is what
    /// makes parallel results bitwise identical to serial ones. The inner
    /// axpy runs 4 lanes wide ([`axpy4`]) — each output element still
    /// receives its contributions in the same `k` order, so this is
    /// bitwise the scalar kernel.
    fn matmul_rows(&self, other: &Mat, rows: std::ops::Range<usize>, block: &mut [f64]) {
        let row_len = other.cols;
        block.iter_mut().for_each(|x| *x = 0.0);
        for i in rows.clone() {
            let a_row = self.row(i);
            let o_row = &mut block[(i - rows.start) * row_len..(i - rows.start + 1) * row_len];
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                axpy4(a_ik, other.row(k), o_row);
            }
        }
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Element-wise sum `self + other`.
    pub fn add(&self, other: &Mat) -> Mat {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &Mat) -> Mat {
        self.zip_with(other, |a, b| a - b)
    }

    /// `self += other` in place.
    pub fn add_assign(&mut self, other: &Mat) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_assign shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self -= other` in place.
    pub fn sub_assign(&mut self, other: &Mat) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "sub_assign shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// Writes `weights[r] · self.row(r)` into `out.row(r)` — the `D·B`
    /// fuse of the LinBP echo term (`D = diag(weights)`), allocation-free.
    ///
    /// # Panics
    /// Panics if shapes disagree or `weights.len() != self.rows()`.
    pub fn scaled_rows_into(&self, weights: &[f64], out: &mut Mat) {
        assert_eq!(
            (self.rows, self.cols),
            (out.rows, out.cols),
            "scaled_rows_into shape mismatch"
        );
        assert_eq!(weights.len(), self.rows, "scaled_rows_into weights length");
        for (r, &w) in weights.iter().enumerate() {
            for (dst, &x) in out.row_mut(r).iter_mut().zip(self.row(r)) {
                *dst = w * x;
            }
        }
    }

    /// Returns `self` scaled by `s`.
    pub fn scale(&self, s: f64) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    fn zip_with(&self, other: &Mat, f: impl Fn(f64, f64) -> f64) -> Mat {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "element-wise op shape mismatch"
        );
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Largest absolute entry (the `max` norm); 0 for empty matrices.
    pub fn max_abs(&self) -> f64 {
        max_abs4(&self.data)
    }

    /// Largest absolute element-wise difference to `other`.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        self.max_abs_diff_with(other, &ParallelismConfig::default())
    }

    /// [`Mat::max_abs_diff`] with an explicit execution configuration.
    /// `max` is order-independent, so the parallel reduction returns the
    /// exact serial value.
    pub fn max_abs_diff_with(&self, other: &Mat, cfg: &ParallelismConfig) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "max_abs_diff shape"
        );
        let parts = cfg.partitions(self.data.len());
        if parts <= 1 {
            return max_abs_diff4(&self.data, &other.data);
        }
        let ranges = crate::parallel::even_ranges(self.data.len(), parts);
        let mut partials = vec![0.0f64; ranges.len()];
        cfg.pool().scope(|s| {
            for (slot, range) in partials.iter_mut().zip(ranges) {
                s.spawn(move || {
                    *slot = max_abs_diff4(&self.data[range.clone()], &other.data[range]);
                });
            }
        });
        partials.into_iter().fold(0.0f64, f64::max)
    }

    /// Euclidean norm of the element-wise difference to `other`
    /// (`‖self − other‖₂` over the flat storage).
    ///
    /// Always accumulates in the canonical 4-lane order over the flat
    /// element stream ([`crate::simd`]): unlike the max-abs reduction, a
    /// floating-point sum is order-dependent, so one fixed order —
    /// independent of the thread count — is what keeps the L2 tolerance
    /// policy bitwise identical across `LSBP_THREADS` settings. One pass
    /// over `n·k` entries is negligible next to the SpMM it follows.
    pub fn l2_diff(&self, other: &Mat) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "l2_diff shape"
        );
        let mut acc = SquaredDiffAccumulator::new();
        acc.feed(&self.data, &other.data);
        acc.finish().sqrt()
    }

    /// `true` iff the matrix equals its transpose up to `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self[(r, c)] - self[(c, r)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Vectorization `vec(X)`: stacks *columns* underneath each other
    /// (the convention of Proposition 7).
    pub fn vectorize(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.rows * self.cols);
        for c in 0..self.cols {
            for r in 0..self.rows {
                v.push(self[(r, c)]);
            }
        }
        v
    }

    /// Inverse of [`Mat::vectorize`]: rebuilds a `rows × cols` matrix from a
    /// column-stacked vector.
    ///
    /// # Panics
    /// Panics if `v.len() != rows * cols`.
    pub fn from_vectorized(rows: usize, cols: usize, v: &[f64]) -> Mat {
        assert_eq!(v.len(), rows * cols, "from_vectorized length mismatch");
        Mat::from_fn(rows, cols, |r, c| v[c * rows + r])
    }

    /// Kronecker product `self ⊗ other` (dense; for tests and the dense
    /// closed-form path on small systems only).
    pub fn kronecker(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(self.rows * other.rows, self.cols * other.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let s = self[(i, j)];
                if s == 0.0 {
                    continue;
                }
                for p in 0..other.rows {
                    for q in 0..other.cols {
                        out[(i * other.rows + p, j * other.cols + q)] = s * other[(p, q)];
                    }
                }
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "Mat index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "Mat index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut m = Mat::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn from_rows_round_trip() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Mat::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Mat::identity(2);
        assert_eq!(i.matmul(&m), m);
        assert_eq!(m.matmul(&i), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Mat::from_rows(&[&[1.0, 0.0, 2.0]]); // 1x3
        let b = Mat::from_rows(&[&[1.0], &[1.0], &[10.0]]); // 3x1
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 1);
        assert_eq!(c.cols(), 1);
        assert_eq!(c[(0, 0)], 21.0);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let x = vec![5.0, -1.0];
        assert_eq!(a.matvec(&x), vec![3.0, 11.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn add_sub_scale() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[3.0, -1.0]]);
        assert_eq!(a.add(&b), Mat::from_rows(&[&[4.0, 1.0]]));
        assert_eq!(a.sub(&b), Mat::from_rows(&[&[-2.0, 3.0]]));
        assert_eq!(a.scale(2.0), Mat::from_rows(&[&[2.0, 4.0]]));
        let mut c = a.clone();
        c.add_assign(&b);
        c.sub_assign(&b);
        assert!(c.max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn symmetric_detection() {
        let s = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 3.0]]);
        let ns = Mat::from_rows(&[&[1.0, 2.0], &[2.5, 3.0]]);
        assert!(s.is_symmetric(0.0));
        assert!(!ns.is_symmetric(1e-9));
        assert!(ns.is_symmetric(1.0));
        assert!(!Mat::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn vectorize_stacks_columns() {
        let m = Mat::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]);
        assert_eq!(m.vectorize(), vec![1.0, 2.0, 3.0, 4.0]);
        let back = Mat::from_vectorized(2, 2, &m.vectorize());
        assert_eq!(back, m);
    }

    #[test]
    fn kronecker_2x2() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[0.0, 5.0], &[6.0, 7.0]]);
        let k = a.kronecker(&b);
        assert_eq!(k.rows(), 4);
        assert_eq!(k[(0, 1)], 5.0); // 1 * 5
        assert_eq!(k[(1, 0)], 6.0); // 1 * 6
        assert_eq!(k[(2, 3)], 4.0 * 5.0); // a[1,1] * b[0,1]
        assert_eq!(k[(3, 2)], 4.0 * 6.0); // a[1,1] * b[1,0]
        assert_eq!(k[(0, 3)], 2.0 * 5.0); // a[0,1] * b[0,1]
    }

    /// Roth's column lemma: vec(X·Y·Z) = (Zᵀ ⊗ X)·vec(Y). This identity is
    /// the bridge from the LinBP matrix equation to its Kronecker closed
    /// form (Proposition 7), so we check it on a concrete instance.
    #[test]
    fn roth_column_lemma() {
        let x = Mat::from_rows(&[&[1.0, 2.0], &[0.0, -1.0], &[3.0, 1.0]]); // 3x2
        let y = Mat::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, -1.0, 4.0]]); // 2x3
        let z = Mat::from_rows(&[&[1.0, 2.0], &[0.0, 1.0], &[-1.0, 0.5]]); // 3x2
        let lhs = x.matmul(&y).matmul(&z).vectorize();
        let kron = z.transpose().kronecker(&x);
        let rhs = kron.matvec(&y.vectorize());
        for (a, b) in lhs.iter().zip(&rhs) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn max_abs_and_diff() {
        let a = Mat::from_rows(&[&[1.0, -7.0], &[3.0, 4.0]]);
        assert_eq!(a.max_abs(), 7.0);
        let b = Mat::from_rows(&[&[1.0, -7.0], &[3.0, 14.0]]);
        assert_eq!(a.max_abs_diff(&b), 10.0);
    }

    #[test]
    fn fill_zero_keeps_shape() {
        let mut a = Mat::from_rows(&[&[1.0, 2.0]]);
        a.fill_zero();
        assert_eq!(a, Mat::zeros(1, 2));
    }

    /// Parallel matmul is bitwise identical to serial for every thread
    /// count (the min-work floor is forced to 1 so even this small input
    /// takes the parallel path).
    #[test]
    fn matmul_parallel_bitwise_identical() {
        let a = Mat::from_fn(37, 19, |r, c| ((r * 31 + c * 7) % 13) as f64 * 0.37 - 2.0);
        let b = Mat::from_fn(19, 23, |r, c| ((r * 5 + c * 11) % 17) as f64 * 0.21 - 1.5);
        let serial = a.matmul_with(&b, &ParallelismConfig::serial());
        for threads in [2, 3, 8] {
            let cfg = ParallelismConfig::with_threads(threads).with_min_work(1);
            assert_eq!(a.matmul_with(&b, &cfg), serial, "threads = {threads}");
            let mut into = Mat::from_fn(37, 23, |_, _| 99.0); // must be overwritten
            a.matmul_into_with(&b, &mut into, &cfg);
            assert_eq!(into, serial, "threads = {threads} (into)");
        }
    }

    #[test]
    fn max_abs_diff_parallel_matches_serial() {
        let a = Mat::from_fn(41, 7, |r, c| (r as f64 - c as f64) * 0.3);
        let b = Mat::from_fn(41, 7, |r, c| (r as f64 + c as f64) * 0.29);
        let serial = a.max_abs_diff_with(&b, &ParallelismConfig::serial());
        for threads in [2, 8] {
            let cfg = ParallelismConfig::with_threads(threads).with_min_work(1);
            let par = a.max_abs_diff_with(&b, &cfg);
            assert!(par.to_bits() == serial.to_bits(), "threads = {threads}");
        }
    }
}
