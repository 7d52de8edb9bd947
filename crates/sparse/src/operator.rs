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
use crate::frontier::{FrontierPlan, FrontierState};
use crate::fused::{validate_fused_step, FusedLinBpStep, QuerySweep};
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

    /// The static block-dependency plan active-frontier execution runs
    /// against (see [`crate::frontier`]): rows grouped into
    /// [`FrontierPlan::block_rows_for`]-sized blocks, each recording the
    /// blocks its rows gather from. Built once per operator in `O(nnz)`
    /// on first use, then borrowed by every later solve.
    fn frontier_plan(&self) -> &FrontierPlan;

    /// The fused LinBP step `out = Ê + A·B·Ĥ [− D·B·Ĥ²]` (damped), the
    /// solver-facing per-iteration kernel, run for every query of
    /// `queries` on that query's own buffers, with the semantics and
    /// panics of [`CsrMatrix::linbp_step_fused_frontier_with`]: each
    /// query's `out` and `delta` (its max-abs belief change) are
    /// **bitwise identical** to recomputing every row, and each computed
    /// row's changed bit, count and magnitude land in its frontier. Rows
    /// whose inputs are bitwise unchanged since the query's last
    /// committed sweep are skipped (not counted, not written).
    fn linbp_step_fused_frontier_with(
        &self,
        queries: &mut [QuerySweep<'_, '_>],
        cfg: &ParallelismConfig,
    );

    /// One fused LinBP step over every row, without a solve's frontier:
    /// `B`, `Ê` and `out` hold `q = B.cols() / Ĥ.rows()` queries side by
    /// side, and `deltas` (length `q`) gets each query's max-abs change.
    /// Splits the queries into their own buffers, runs
    /// [`PropagationOperator::linbp_step_fused_frontier_with`] from an
    /// all-changed [`FrontierState::new`] each, and joins the outputs
    /// back, so every element of `out` is written. A single query runs
    /// on the caller's buffers directly.
    ///
    /// # Panics
    /// Panics on any dimension mismatch (square adjacency of size
    /// `B.rows()`, square `Ĥ` dividing `B.cols()`, `out`/`e_hat` shaped
    /// like `B`, `degrees` of length `n`, `deltas` of length `q`).
    fn linbp_step_fused_with(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        out: &mut Mat,
        deltas: &mut [f64],
        cfg: &ParallelismConfig,
    ) {
        let n = self.n_rows();
        let (k, q) = validate_fused_step(n, self.n_cols(), b, step, out);
        assert_eq!(deltas.len(), q, "fused LinBP step: deltas length");
        let plan = self.frontier_plan();
        if q == 1 {
            let mut frontier = FrontierState::new(plan);
            let mut sweep = [QuerySweep {
                step: *step,
                b,
                out,
                frontier: &mut frontier,
                delta: 0.0,
            }];
            self.linbp_step_fused_frontier_with(&mut sweep, cfg);
            deltas[0] = sweep[0].delta;
            return;
        }
        // Query j's columns j·k .. (j + 1)·k, copied row-outer.
        let split = |m: &Mat| -> Vec<Mat> {
            let mut parts: Vec<Mat> = (0..q).map(|_| Mat::zeros(n, k)).collect();
            for r in 0..n {
                for (part, src) in parts.iter_mut().zip(m.row(r).chunks_exact(k)) {
                    part.row_mut(r).copy_from_slice(src);
                }
            }
            parts
        };
        let (e_parts, b_parts) = (split(step.e_hat), split(b));
        let mut out_parts: Vec<Mat> = (0..q).map(|_| Mat::zeros(n, k)).collect();
        let mut frontiers: Vec<FrontierState<'_>> =
            (0..q).map(|_| FrontierState::new(plan)).collect();
        let mut sweeps: Vec<QuerySweep<'_, '_>> = e_parts
            .iter()
            .zip(&b_parts)
            .zip(out_parts.iter_mut())
            .zip(frontiers.iter_mut())
            .map(|(((e_hat, b), out), frontier)| QuerySweep {
                step: FusedLinBpStep { e_hat, ..*step },
                b,
                out,
                frontier,
                delta: 0.0,
            })
            .collect();
        self.linbp_step_fused_frontier_with(&mut sweeps, cfg);
        for (d, sweep) in deltas.iter_mut().zip(&sweeps) {
            *d = sweep.delta;
        }
        drop(sweeps);
        for r in 0..n {
            for (dst, part) in out.row_mut(r).chunks_exact_mut(k).zip(&out_parts) {
                dst.copy_from_slice(part.row(r));
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
        queries: &mut [QuerySweep<'_, '_>],
        cfg: &ParallelismConfig,
    ) {
        CsrMatrix::linbp_step_fused_frontier_with(self, queries, cfg)
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
