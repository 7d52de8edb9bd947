//! The unified linear-operator surface of the propagation engine.
//!
//! LinBP's whole pitch is that belief propagation becomes plain sparse
//! linear algebra — which makes scale-out a *storage/layout* problem, not
//! an algorithm problem. [`PropagationOperator`] is the seam that turns
//! that observation into architecture: every propagator (LinBP, LinBP\*,
//! RWR, SBP, the batched multi-query family) is written against this
//! trait, and the storage layer behind it is interchangeable:
//!
//! * [`CsrMatrix`] — the monolithic in-memory reference
//!   implementation (the semantics every other backend must reproduce
//!   **bitwise**), and
//! * every [`ShardSource`](crate::ShardSource) — a graph split into
//!   row-range shards, resident ([`ShardedCsr`](crate::ShardedCsr)) or
//!   paged from disk ([`PagedCsr`](crate::PagedCsr)). A shard source
//!   only says how to reach shard `i`; its operator impl is the one
//!   generic shard walk in [`crate::sharded`].
//!
//! The surface is exactly what the propagators consume: the two sparse
//! products (SpMV / SpMM), the fused LinBP step, transposition, the
//! row-statistics vectors (degrees for echo cancellation and RWR), and
//! per-row neighbor access (BFS layering for SBP).
//!
//! **Bitwise contract.** Implementations must accumulate every output
//! element in the canonical per-element order of the `CsrMatrix` kernels
//! (CSR entry order per output element, 4-lane reassociation only where
//! the monolithic kernels use it) and combine any cross-partition
//! reductions with order-independent operations. Under that contract a
//! solver's result is a function of the *graph*, not of the storage
//! layout, the shard count, or the thread count — which is what lets a
//! deployment re-shard a live system without changing a single answer.

use crate::csr::CsrMatrix;
use crate::frontier::{record_changed_full, FrontierPlan, FrontierStep};
use crate::fused::FusedLinBpStep;
use lsbp_linalg::{Mat, ParallelismConfig};

/// Iterator over one row's `(col, value)` pairs, columns widened to
/// `usize` — the trait-level counterpart of `CsrMatrix::row_iter`,
/// concrete so the trait stays object-safe-free of generics.
///
/// Resident backends hand out a **borrowed** view straight into their
/// arrays (zero-copy); backends whose storage can move or be evicted
/// underneath a borrow — the paged store, where the buffer pool may
/// drop a shard at any time — return an **owned** copy of the row
/// instead. That split is why the trait exposes row access through this
/// iterator rather than through `&[u32]`/`&[f64]` slices: a slice
/// borrow from an evictable pool region cannot be made sound.
pub struct RowIter<'a> {
    inner: RowIterInner<'a>,
}

enum RowIterInner<'a> {
    Borrowed {
        cols: std::slice::Iter<'a, u32>,
        values: std::slice::Iter<'a, f64>,
    },
    Owned {
        pos: usize,
        cols: Vec<u32>,
        values: Vec<f64>,
    },
}

impl<'a> RowIter<'a> {
    /// A zero-copy view over a resident row (the `CsrMatrix` /
    /// `ShardedCsr` path).
    #[inline]
    pub fn borrowed(cols: &'a [u32], values: &'a [f64]) -> RowIter<'a> {
        debug_assert_eq!(cols.len(), values.len(), "row slices must be parallel");
        RowIter {
            inner: RowIterInner::Borrowed {
                cols: cols.iter(),
                values: values.iter(),
            },
        }
    }

    /// An owning iterator over a row copied out of evictable storage
    /// (the `PagedCsr` path — the copy happens under the pool pin, so
    /// the iterator stays valid after the shard is evicted).
    #[inline]
    pub fn owned(cols: Vec<u32>, values: Vec<f64>) -> RowIter<'static> {
        debug_assert_eq!(cols.len(), values.len(), "row vectors must be parallel");
        RowIter {
            inner: RowIterInner::Owned {
                pos: 0,
                cols,
                values,
            },
        }
    }
}

impl Iterator for RowIter<'_> {
    type Item = (usize, f64);

    #[inline]
    fn next(&mut self) -> Option<(usize, f64)> {
        match &mut self.inner {
            RowIterInner::Borrowed { cols, values } => {
                Some((*cols.next()? as usize, *values.next()?))
            }
            RowIterInner::Owned { pos, cols, values } => {
                let item = (*cols.get(*pos)? as usize, values[*pos]);
                *pos += 1;
                Some(item)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            RowIterInner::Borrowed { cols, .. } => cols.size_hint(),
            RowIterInner::Owned { pos, cols, .. } => {
                let left = cols.len() - pos;
                (left, Some(left))
            }
        }
    }
}

impl ExactSizeIterator for RowIter<'_> {}

/// A sparse graph operator a propagation solver can run on — see the
/// module docs for the architecture and the bitwise contract.
///
/// `Sync` is a supertrait because solvers hand `&self` to persistent-pool
/// tasks (SBP's layer recomputation spawns directly against the
/// operator).
pub trait PropagationOperator: Sync {
    /// Number of rows.
    fn n_rows(&self) -> usize;

    /// Number of columns.
    fn n_cols(&self) -> usize;

    /// Number of stored entries.
    fn nnz(&self) -> usize;

    /// Number of stored entries in row `r` (the node degree for adjacency
    /// matrices without explicit zeros).
    fn row_nnz(&self, r: usize) -> usize;

    /// Iterates `(col, value)` pairs of row `r` in ascending column
    /// order (columns widened to `usize` for ergonomic indexing).
    ///
    /// This is the trait's *only* row-access surface — deliberately an
    /// iterator, not slices, so backends with evictable storage (the
    /// paged store) can hand out an owned copy where resident backends
    /// hand out a zero-copy borrow. See [`RowIter`].
    fn row_iter(&self, r: usize) -> RowIter<'_>;

    /// Sparse matrix × dense vector into a caller-provided buffer:
    /// `y = A·x`, executed per `cfg`.
    fn spmv_into_with(&self, x: &[f64], y: &mut [f64], cfg: &ParallelismConfig);

    /// Sparse × dense matrix product into a caller-provided output
    /// (overwrites `out`): `out = A·B`, executed per `cfg`. This is the
    /// LinBP workhorse (`A·B̂`, `O(nnz·k)`).
    fn spmm_into_with(&self, b: &Mat, out: &mut Mat, cfg: &ParallelismConfig);

    /// One fused LinBP update `out = Ê + A·B·Ĥ [− D·B·Ĥ²]` (damped), with
    /// the per-query max-abs belief change accumulated into `deltas` —
    /// the solver-facing per-iteration kernel. Semantics and panics match
    /// [`CsrMatrix::linbp_step_fused_with`] exactly.
    fn linbp_step_fused_with(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        out: &mut Mat,
        deltas: &mut [f64],
        cfg: &ParallelismConfig,
    );

    /// The static block-dependency plan active-frontier execution runs
    /// against (see [`crate::frontier`]): rows grouped into
    /// [`FrontierPlan::block_rows_for`]-sized blocks, each recording the
    /// blocks its rows gather from. Built once per operator in `O(nnz)`
    /// on first use, then borrowed by every later solve.
    fn frontier_plan(&self) -> &FrontierPlan;

    /// The frontier-aware fused LinBP step (see
    /// [`CsrMatrix::linbp_step_fused_frontier_with`]): on every live query
    /// `out` and `deltas` must be **bitwise identical** to
    /// [`PropagationOperator::linbp_step_fused_with`] on the same inputs,
    /// frozen queries' blocks of `out` must stay unwritten, and the
    /// changed bits, per-query counts and magnitudes land in `fr` exactly
    /// as [`record_changed_full`] records them — except that pairs whose
    /// inputs are bitwise unchanged may be skipped (not counted, not
    /// written).
    ///
    /// The default implementation **is** [`record_changed_full`] over a
    /// full step into a scratch matrix, whose live blocks are then copied
    /// into `out` — the reference semantics (every live pair computed):
    /// backends without a native frontier path stay correct, merely
    /// unaccelerated.
    fn linbp_step_fused_frontier_with(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        out: &mut Mat,
        deltas: &mut [f64],
        fr: &mut FrontierStep<'_>,
        cfg: &ParallelismConfig,
    ) {
        let mut full = Mat::zeros(out.rows(), out.cols());
        self.linbp_step_fused_with(b, step, &mut full, deltas, cfg);
        let k = step.h.rows();
        record_changed_full(fr, b, &full, k);
        for r in 0..out.rows() {
            let blocks = out
                .row_mut(r)
                .chunks_exact_mut(k)
                .zip(full.row(r).chunks_exact(k));
            for (j, (dst, src)) in blocks.enumerate() {
                if fr.is_live(j) {
                    dst.copy_from_slice(src);
                }
            }
        }
    }

    /// Transpose, materialized as a monolithic [`CsrMatrix`] (the
    /// assembly step a distributed backend would run at import time).
    fn transpose_with(&self, cfg: &ParallelismConfig) -> CsrMatrix;

    /// Plain weighted row sums `Σ_t w(s,t)` (RWR's walk normalization),
    /// accumulated in the canonical 4-lane order. Built once per operator
    /// on first use, then borrowed.
    fn row_sums(&self) -> &[f64];

    /// The weighted degree vector of Sect. 5.2: `d_s = Σ_t w(s,t)²` (the
    /// echo-cancellation degrees). Built once per operator on first use,
    /// then borrowed.
    fn squared_weight_degrees(&self) -> &[f64];
}

impl PropagationOperator for CsrMatrix {
    #[inline]
    fn n_rows(&self) -> usize {
        CsrMatrix::n_rows(self)
    }

    #[inline]
    fn n_cols(&self) -> usize {
        CsrMatrix::n_cols(self)
    }

    #[inline]
    fn nnz(&self) -> usize {
        CsrMatrix::nnz(self)
    }

    #[inline]
    fn row_nnz(&self, r: usize) -> usize {
        CsrMatrix::row_nnz(self, r)
    }

    #[inline]
    fn row_iter(&self, r: usize) -> RowIter<'_> {
        RowIter::borrowed(CsrMatrix::row_cols(self, r), CsrMatrix::row_values(self, r))
    }

    fn spmv_into_with(&self, x: &[f64], y: &mut [f64], cfg: &ParallelismConfig) {
        CsrMatrix::spmv_into_with(self, x, y, cfg)
    }

    fn spmm_into_with(&self, b: &Mat, out: &mut Mat, cfg: &ParallelismConfig) {
        CsrMatrix::spmm_into_with(self, b, out, cfg)
    }

    fn linbp_step_fused_with(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        out: &mut Mat,
        deltas: &mut [f64],
        cfg: &ParallelismConfig,
    ) {
        CsrMatrix::linbp_step_fused_with(self, b, step, out, deltas, cfg)
    }

    fn frontier_plan(&self) -> &FrontierPlan {
        self.cache.frontier_plan(|| {
            let n = CsrMatrix::n_rows(self);
            let mut plan = FrontierPlan::empty(n, FrontierPlan::block_rows_for(n));
            self.add_rows_to_plan(0, &mut plan);
            plan.set_pattern_symmetric(self.is_pattern_symmetric());
            plan
        })
    }

    fn linbp_step_fused_frontier_with(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        out: &mut Mat,
        deltas: &mut [f64],
        fr: &mut FrontierStep<'_>,
        cfg: &ParallelismConfig,
    ) {
        CsrMatrix::linbp_step_fused_frontier_with(self, b, step, out, deltas, fr, cfg)
    }

    fn transpose_with(&self, cfg: &ParallelismConfig) -> CsrMatrix {
        CsrMatrix::transpose_with(self, cfg)
    }

    fn row_sums(&self) -> &[f64] {
        CsrMatrix::row_sums(self)
    }

    fn squared_weight_degrees(&self) -> &[f64] {
        CsrMatrix::squared_weight_degrees(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn small() -> CsrMatrix {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_symmetric(0, 1, 2.0);
        coo.push_symmetric(1, 2, 3.0);
        coo.push(2, 2, 1.0);
        coo.to_csr()
    }

    /// The trait impl on `CsrMatrix` is a pure forwarder: every method
    /// answers exactly like the inherent API.
    #[test]
    fn csr_impl_forwards() {
        let m = small();
        let op: &dyn PropagationOperator = &m;
        assert_eq!(op.n_rows(), 3);
        assert_eq!(op.nnz(), 5);
        assert_eq!(op.row_nnz(1), 2);
        assert_eq!(op.row_iter(1).collect::<Vec<_>>(), vec![(0, 2.0), (2, 3.0)]);
        assert_eq!(op.row_iter(2).collect::<Vec<_>>(), vec![(1, 3.0), (2, 1.0)]);
        let cfg = ParallelismConfig::serial();
        let mut y = vec![0.0; 3];
        op.spmv_into_with(&[1.0, 1.0, 1.0], &mut y, &cfg);
        assert_eq!(y, vec![2.0, 5.0, 4.0]);
        assert_eq!(op.row_sums(), m.row_sums());
        assert_eq!(op.squared_weight_degrees(), m.squared_weight_degrees());
        assert_eq!(op.transpose_with(&cfg), m.transpose());
    }

    /// A backend that forwards everything except the frontier step, so
    /// it runs the trait's default (reference) implementation.
    struct NoNativeFrontier(CsrMatrix);

    impl PropagationOperator for NoNativeFrontier {
        fn n_rows(&self) -> usize {
            self.0.n_rows()
        }
        fn n_cols(&self) -> usize {
            self.0.n_cols()
        }
        fn nnz(&self) -> usize {
            self.0.nnz()
        }
        fn row_nnz(&self, r: usize) -> usize {
            self.0.row_nnz(r)
        }
        fn row_iter(&self, r: usize) -> RowIter<'_> {
            PropagationOperator::row_iter(&self.0, r)
        }
        fn spmv_into_with(&self, x: &[f64], y: &mut [f64], cfg: &ParallelismConfig) {
            self.0.spmv_into_with(x, y, cfg)
        }
        fn spmm_into_with(&self, b: &Mat, out: &mut Mat, cfg: &ParallelismConfig) {
            self.0.spmm_into_with(b, out, cfg)
        }
        fn linbp_step_fused_with(
            &self,
            b: &Mat,
            step: &FusedLinBpStep<'_>,
            out: &mut Mat,
            deltas: &mut [f64],
            cfg: &ParallelismConfig,
        ) {
            self.0.linbp_step_fused_with(b, step, out, deltas, cfg)
        }
        fn frontier_plan(&self) -> &FrontierPlan {
            PropagationOperator::frontier_plan(&self.0)
        }
        fn transpose_with(&self, cfg: &ParallelismConfig) -> CsrMatrix {
            self.0.transpose_with(cfg)
        }
        fn row_sums(&self) -> &[f64] {
            self.0.row_sums()
        }
        fn squared_weight_degrees(&self) -> &[f64] {
            self.0.squared_weight_degrees()
        }
    }

    /// The native per-(row, query) frontier step and the trait's default
    /// (full step + [`record_changed_full`]) agree bit for bit on the
    /// live blocks, the deltas and the changed bits, leave a frozen
    /// query's block unwritten, and the native step computes (and
    /// counts) no more pairs than the reference.
    #[test]
    fn native_frontier_step_matches_default() {
        use crate::frontier::FrontierState;
        let (n, k, q) = (150, 3, 3);
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push_symmetric(i, (i * 7 + 3) % n, 1.0);
            coo.push_symmetric(i, (i + 1) % n, 0.5);
        }
        let m = coo.to_csr();
        let reference = NoNativeFrontier(m.clone());
        let e = Mat::from_fn(n, k * q, |r, c| {
            let j = c / k;
            if r == 10 + 40 * j {
                [0.2, -0.1, -0.1][c % k]
            } else {
                0.0
            }
        });
        let h = Mat::from_rows(&[
            &[0.1, -0.05, -0.05],
            &[-0.05, 0.1, -0.05],
            &[-0.05, -0.05, 0.1],
        ]);
        let h2 = h.matmul(&h);
        let step = FusedLinBpStep {
            e_hat: &e,
            h: &h,
            h2: Some(&h2),
            degrees: m.squared_weight_degrees(),
            damping: 0.0,
        };
        let cfg = ParallelismConfig::serial();
        let plan = PropagationOperator::frontier_plan(&m);
        let (mut native, mut default) = (
            FrontierState::from_seeds(plan, &e, k),
            FrontierState::from_seeds(plan, &e, k),
        );
        let (mut b1, mut next1) = (e.clone(), Mat::zeros(n, k * q));
        let (mut b2, mut next2) = (e.clone(), Mat::zeros(n, k * q));
        for sweep in 0..8 {
            // Query 1 freezes after sweep 3.
            let live = [true, sweep < 3, true];
            let frozen_before = next1.clone();
            let (mut d1, mut d2) = (vec![0.0; q], vec![0.0; q]);
            let mut fr = native.begin(&live);
            PropagationOperator::linbp_step_fused_frontier_with(
                &m, &b1, &step, &mut next1, &mut d1, &mut fr, &cfg,
            );
            let mut fr = default.begin(&live);
            reference
                .linbp_step_fused_frontier_with(&b2, &step, &mut next2, &mut d2, &mut fr, &cfg);
            native.commit();
            default.commit();
            assert_eq!(native.changed(), default.changed(), "sweep {sweep}");
            for (j, &on) in live.iter().enumerate() {
                let cols = j * k..(j + 1) * k;
                for r in 0..n {
                    let (a, b) = (&next1.row(r)[cols.clone()], &next2.row(r)[cols.clone()]);
                    let want = if on {
                        b
                    } else {
                        &frozen_before.row(r)[cols.clone()]
                    };
                    assert!(
                        a.iter().zip(want).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "sweep {sweep} row {r} query {j}"
                    );
                }
                if on {
                    assert_eq!(d1[j].to_bits(), d2[j].to_bits(), "sweep {sweep} delta {j}");
                    assert!(native.magnitudes()[j] <= default.magnitudes()[j]);
                }
            }
            std::mem::swap(&mut b1, &mut next1);
            std::mem::swap(&mut b2, &mut next2);
        }
        for j in 0..q {
            assert!(native.rows_active[j] <= default.rows_active[j], "query {j}");
            assert_eq!(
                native.rows_active[j] + native.rows_skipped[j],
                default.rows_active[j] + default.rows_skipped[j]
            );
        }
        assert!(
            native.rows_skipped.iter().sum::<u64>() > 0,
            "nothing skipped"
        );
    }

    /// Borrowed and owned row iterators walk the same row identically —
    /// the equivalence the paged backend's owned copies rely on.
    #[test]
    fn owned_row_iter_matches_borrowed() {
        let m = small();
        for r in 0..m.n_rows() {
            let borrowed: Vec<(usize, f64)> =
                RowIter::borrowed(m.row_cols(r), m.row_values(r)).collect();
            let owned_iter = RowIter::owned(m.row_cols(r).to_vec(), m.row_values(r).to_vec());
            assert_eq!(owned_iter.len(), borrowed.len(), "row {r}");
            assert_eq!(owned_iter.collect::<Vec<_>>(), borrowed, "row {r}");
        }
    }
}
