//! Row-partitioned graph shards — the scale-out storage layout — and the
//! one shard walk every sharded backend runs.
//!
//! [`ShardedCsr`] splits a graph into nnz-balanced, contiguous row-range
//! shards (the partition computed by
//! [`lsbp_linalg::weight_balanced_ranges`], exactly like the kernels'
//! thread partitions). Each shard is an independent, compact
//! (`u32`-indexed) CSR block over its own rows with *global* column
//! indices, so a shard can gather from the full belief matrix without any
//! index translation — and can live in its own file, memory arena, or
//! process.
//!
//! **The `ShardSource` split.** A backend says only *how it reaches shard
//! `i`*, through [`ShardSource`]: how many shards there are, which rows
//! each covers, a guard that derefs to the shard's [`CsrMatrix`] block,
//! and a hint that shard `i` comes next. [`ShardedCsr`] borrows a
//! resident block and ignores the hint; [`crate::PagedCsr`] pins the
//! block in its buffer pool and turns the hint into a background
//! prefetch. Everything else — the [`PropagationOperator`] surface — is
//! written **once**, generic over `ShardSource`, in this module. Only row
//! access stays per backend ([`ShardSource::row`]), because a resident
//! row can be borrowed while an evictable one must be copied out.
//!
//! Execution model: every kernel walks the shards **in row order**,
//! hinting shard `i + 1` before taking shard `i`, and each shard runs as
//! **one persistent-pool region** (further row-partitioned inside per the
//! [`ParallelismConfig`]). All workers therefore stream one shard's
//! arrays at a time — shard affinity and cache residency — and the region
//! boundary is exactly where the paged backend swaps the next shard in.
//!
//! **Bitwise contract.** Shards are row-aligned and run the *same* row
//! kernels as the monolithic [`CsrMatrix`] (the canonical 4-lane
//! accumulation order per output element); cross-shard reductions are
//! order-independent maxima. Every result is therefore bitwise identical
//! to the monolithic path at any shard × thread combination (and, for the
//! paged backend, any budget) — property-tested in
//! `tests/sharded_engine.rs` and `tests/out_of_core.rs`.

use crate::cache::OperatorCache;
use crate::csr::CsrMatrix;
use crate::frontier::FrontierPlan;
use crate::fused::{run_sweeps, union_summary, QuerySweep};
use crate::operator::{PropagationOperator, RowIter};
use lsbp_linalg::simd::{sum4, sum_sq4};
use lsbp_linalg::{weight_balanced_ranges, Mat, ParallelismConfig};
use std::ops::{Deref, Range};

/// A matrix stored as contiguous row-range shards — the one thing a
/// storage backend implements to get the whole [`PropagationOperator`]
/// surface (see the module docs for the split).
///
/// The shard walk needs four methods: [`ShardSource::num_shards`],
/// [`ShardSource::shard_rows`], [`ShardSource::shard`] and
/// [`ShardSource::hint`]. [`ShardSource::shape`] and [`ShardSource::row`]
/// are the per-backend leaves the walk cannot derive: the matrix shape
/// from metadata, and row access (borrowed or copied). `cache` holds the
/// per-graph invariants the walk builds once.
pub trait ShardSource: Sync {
    /// Number of shards (including empty ones).
    fn num_shards(&self) -> usize;

    /// The global row range of shard `i`. Ranges tile `0..n_rows` in
    /// shard order; empty ranges are allowed.
    fn shard_rows(&self, i: usize) -> Range<usize>;

    /// Shard `i`'s CSR block (local rows, global columns), kept resident
    /// for as long as the returned guard lives.
    fn shard(&self, i: usize) -> impl Deref<Target = CsrMatrix> + '_;

    /// Tells the backend the walk will want shard `i` next. A pure
    /// scheduling hint: it never changes a result, and an index past the
    /// last shard is ignored.
    fn hint(&self, i: usize);

    /// `(n_cols, nnz)` of the whole matrix, read without touching a shard.
    fn shape(&self) -> (usize, usize);

    /// Iterates `(col, value)` pairs of global row `r` — the backend's
    /// [`PropagationOperator::row_iter`].
    fn row(&self, r: usize) -> RowIter<'_>;

    /// The backend's derived-invariant cache (frontier plan, row
    /// statistics), filled by the shard walk on first use. The cache type
    /// is crate-private, so only this crate's backends implement the
    /// trait.
    #[doc(hidden)]
    fn cache(&self) -> &OperatorCache;

    /// The shard holding global row `r` and `r`'s local row index within
    /// it. Empty shards are never returned.
    fn locate(&self, r: usize) -> (usize, usize) {
        // Binary search for the first shard whose range ends past `r` —
        // the unique shard with start <= r < end.
        let (mut lo, mut hi) = (0, self.num_shards());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.shard_rows(mid).end <= r {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        assert!(lo < self.num_shards(), "row {r} out of range");
        (lo, r - self.shard_rows(lo).start)
    }

    /// Reassembles the monolithic [`CsrMatrix`] by walking every shard
    /// in row order — bit for bit, since shards only slice the original
    /// arrays.
    ///
    /// # Panics
    /// Panics if a paged block fails its checksum mid-walk — use
    /// [`crate::PagedCsr::load_shard`] first for a checked pass.
    fn to_csr(&self) -> CsrMatrix {
        let (n_cols, nnz) = self.shape();
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        walk_shards(self, |_, shard| {
            let base = *row_ptr.last().unwrap();
            row_ptr.extend(shard.row_offsets()[1..].iter().map(|&p| base + p));
            col_idx.extend_from_slice(shard.raw_col_idx());
            values.extend_from_slice(shard.raw_values());
        });
        CsrMatrix::from_trusted_parts(row_ptr.len() - 1, n_cols, row_ptr, col_idx, values)
    }
}

/// The one sharded operator: every kernel walks the shards in row order,
/// hinting the next shard before taking the current one, and runs the
/// monolithic row kernels on each block at its global row offset.
impl<S: ShardSource> PropagationOperator for S {
    #[inline]
    fn n_rows(&self) -> usize {
        self.num_shards()
            .checked_sub(1)
            .map_or(0, |last| self.shard_rows(last).end)
    }

    #[inline]
    fn n_cols(&self) -> usize {
        self.shape().0
    }

    #[inline]
    fn nnz(&self) -> usize {
        self.shape().1
    }

    fn row_nnz(&self, r: usize) -> usize {
        let (s, local) = self.locate(r);
        self.shard(s).row_nnz(local)
    }

    fn row_iter(&self, r: usize) -> RowIter<'_> {
        self.row(r)
    }

    /// `y = A·x`, one persistent-pool region per shard in row order; each
    /// shard's rows run the monolithic SpMV kernel on its own block.
    fn spmv_into_with(&self, x: &[f64], y: &mut [f64], cfg: &ParallelismConfig) {
        assert_eq!(x.len(), self.n_cols(), "spmv dimension mismatch");
        assert_eq!(y.len(), self.n_rows(), "spmv output dimension mismatch");
        for i in 0..self.num_shards() {
            self.hint(i + 1);
            let rows = self.shard_rows(i);
            self.shard(i).spmv_into_with(x, &mut y[rows], cfg);
        }
    }

    /// `out = A·B`, one persistent-pool region per shard in row order;
    /// each shard streams its block through the monolithic SpMM row
    /// kernels (width-specialized like the reference path).
    fn spmm_into_with(&self, b: &Mat, out: &mut Mat, cfg: &ParallelismConfig) {
        assert_eq!(b.rows(), self.n_cols(), "spmm dimension mismatch");
        assert_eq!(out.rows(), self.n_rows(), "spmm output rows");
        assert_eq!(out.cols(), b.cols(), "spmm output cols");
        let kt = b.cols();
        let flat = out.as_mut_slice();
        for i in 0..self.num_shards() {
            self.hint(i + 1);
            let rows = self.shard_rows(i);
            self.shard(i)
                .spmm_block_with(b, &mut flat[rows.start * kt..rows.end * kt], cfg);
        }
    }

    /// Built on first use with one access per shard, in row order.
    fn frontier_plan(&self) -> &FrontierPlan {
        self.cache().frontier_plan(|| {
            let n = self.n_rows();
            let mut plan = FrontierPlan::empty(n, FrontierPlan::block_rows_for(n));
            walk_shards(self, |start, shard| {
                shard.add_rows_to_plan(start, &mut plan)
            });
            plan
        })
    }

    /// The fused LinBP step, one persistent-pool region per active shard
    /// in row order, each running every query in turn. Each shard
    /// gathers from the full belief buffers (global column indices) but
    /// reads `Ê`/`B`/`degrees` rows at its own global offset; per-query
    /// residual maxima accumulate across shards with the
    /// order-independent `max`. Skipping is shard-granular first — a
    /// shard whose overlapping plan blocks are inactive for every query
    /// (the union of their summaries) is passed over without being
    /// hinted or taken, so a paged backend never faults a frozen region
    /// back in — then the per-shard kernel applies block- and
    /// row-granular skipping per query inside. Every sweep pulls: a
    /// shard's kernel cannot mark rows of another shard. The hint goes
    /// to the next *active* shard, before the current one is taken.
    /// Bitwise identical to the monolithic step at any shard × thread (×
    /// budget) combination.
    fn linbp_step_fused_frontier_with(
        &self,
        queries: &mut [QuerySweep<'_, '_>],
        cfg: &ParallelismConfig,
    ) {
        let plan = self.frontier_plan();
        let summary = union_summary(plan, queries);
        let shard_active = |i: usize| !plan.range_inactive(self.shard_rows(i), &summary);
        run_sweeps(self.n_rows(), self.n_cols(), queries, None, |lanes| {
            for i in 0..self.num_shards() {
                if !shard_active(i) {
                    continue;
                }
                if let Some(next) = (i + 1..self.num_shards()).find(|&j| shard_active(j)) {
                    self.hint(next);
                }
                let start = self.shard_rows(i).start;
                self.shard(i)
                    .fused_block_frontier_with(start, plan, lanes, cfg);
            }
        });
    }

    fn transpose_with(&self, cfg: &ParallelismConfig) -> CsrMatrix {
        self.to_csr().transpose_with(cfg)
    }

    fn row_sums(&self) -> &[f64] {
        self.cache().row_sums(|| row_stats(self, sum4))
    }

    fn squared_weight_degrees(&self) -> &[f64] {
        self.cache()
            .squared_weight_degrees(|| row_stats(self, sum_sq4))
    }
}

/// Visits every shard once, in row order, hinting the next before taking
/// the current: `f(first global row, block)`.
fn walk_shards<S: ShardSource + ?Sized>(src: &S, mut f: impl FnMut(usize, &CsrMatrix)) {
    for i in 0..src.num_shards() {
        src.hint(i + 1);
        f(src.shard_rows(i).start, &src.shard(i));
    }
}

/// `stat` of every row's values, shard by shard in row order — the same
/// per-row accumulation as the monolithic [`CsrMatrix`] statistics.
fn row_stats<S: ShardSource>(src: &S, stat: fn(&[f64]) -> f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(src.n_rows());
    walk_shards(src, |_, shard| out.extend(shard.row_stats(stat)));
    out
}

/// A sparse square-or-rectangular matrix stored as nnz-balanced,
/// contiguous row-range shards held in memory — the resident
/// [`ShardSource`]. See the module docs for layout, execution model and
/// the bitwise contract.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedCsr {
    n_cols: usize,
    nnz: usize,
    /// Shard row boundaries: shard `i` covers global rows
    /// `starts[i]..starts[i + 1]`; `starts[0] == 0`,
    /// `starts[len - 1] == n_rows`. Non-decreasing (empty shards allowed).
    starts: Vec<usize>,
    /// Per-shard CSR blocks (`starts[i+1] − starts[i]` rows × `n_cols`
    /// columns, global column indices).
    shards: Vec<CsrMatrix>,
    cache: OperatorCache,
}

impl ShardedCsr {
    /// Splits `m` into at most `shards` nnz-balanced row-range shards
    /// (fewer when the graph has fewer non-empty row ranges than
    /// requested — exactly [`weight_balanced_ranges`]' contract).
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn from_csr(m: &CsrMatrix, shards: usize) -> Self {
        assert!(shards >= 1, "shard count must be at least 1");
        let ranges = weight_balanced_ranges(m.row_offsets(), shards);
        Self::from_csr_ranges(m, &ranges)
    }

    /// Splits `m` along an explicit row partition. The ranges must tile
    /// `0..n_rows` in order; empty ranges are allowed (they become empty
    /// shards — a layout a rebalancer can produce transiently).
    ///
    /// # Panics
    /// Panics if the ranges do not tile `0..n_rows` contiguously.
    pub fn from_csr_ranges(m: &CsrMatrix, ranges: &[Range<usize>]) -> Self {
        let mut starts = Vec::with_capacity(ranges.len() + 1);
        starts.push(0usize);
        let mut shards = Vec::with_capacity(ranges.len());
        for range in ranges {
            assert_eq!(
                range.start,
                *starts.last().unwrap(),
                "shard ranges must tile the rows contiguously"
            );
            assert!(range.end >= range.start, "inverted shard range");
            assert!(range.end <= m.n_rows(), "shard range beyond the matrix");
            starts.push(range.end);
            shards.push(Self::extract_block(m, range.clone()));
        }
        assert_eq!(
            *starts.last().unwrap(),
            m.n_rows(),
            "shard ranges must cover every row"
        );
        Self {
            n_cols: m.n_cols(),
            nnz: m.nnz(),
            starts,
            shards,
            cache: OperatorCache::default(),
        }
    }

    /// Carves the CSR block of `rows` out of `m`: local row pointers,
    /// global (unchanged) column indices.
    fn extract_block(m: &CsrMatrix, rows: Range<usize>) -> CsrMatrix {
        let off = m.row_offsets();
        let lo = off[rows.start];
        let hi = off[rows.end];
        let row_ptr: Vec<usize> = off[rows.start..=rows.end].iter().map(|&p| p - lo).collect();
        CsrMatrix::from_trusted_parts(
            rows.end - rows.start,
            m.n_cols(),
            row_ptr,
            m.raw_col_idx()[lo..hi].to_vec(),
            m.raw_values()[lo..hi].to_vec(),
        )
    }

    /// Column indices of row `r` (sorted ascending, global coordinates)
    /// — zero-copy, straight out of the owning shard's arrays.
    #[inline]
    pub fn row_cols(&self, r: usize) -> &[u32] {
        let (s, local) = self.locate(r);
        self.shards[s].row_cols(local)
    }

    /// Values of row `r`, parallel to [`ShardedCsr::row_cols`].
    #[inline]
    pub fn row_values(&self, r: usize) -> &[f64] {
        let (s, local) = self.locate(r);
        self.shards[s].row_values(local)
    }
}

impl ShardSource for ShardedCsr {
    #[inline]
    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_rows(&self, i: usize) -> Range<usize> {
        self.starts[i]..self.starts[i + 1]
    }

    #[inline]
    fn shard(&self, i: usize) -> impl Deref<Target = CsrMatrix> + '_ {
        &self.shards[i]
    }

    #[inline]
    fn hint(&self, _i: usize) {}

    fn cache(&self) -> &OperatorCache {
        &self.cache
    }

    #[inline]
    fn shape(&self) -> (usize, usize) {
        (self.n_cols, self.nnz)
    }

    #[inline]
    fn row(&self, r: usize) -> RowIter<'_> {
        RowIter::borrowed(self.row_cols(r), self.row_values(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// A small weighted graph with hubs, leaves and an isolated row.
    fn sample() -> CsrMatrix {
        let mut coo = CooMatrix::new(7, 7);
        coo.push_symmetric(0, 1, 2.0);
        coo.push_symmetric(0, 2, 1.0);
        coo.push_symmetric(0, 3, 0.5);
        coo.push_symmetric(1, 4, 3.0);
        coo.push_symmetric(2, 4, 1.5);
        coo.push_symmetric(4, 5, 0.25);
        // Node 6 is isolated.
        coo.to_csr()
    }

    #[test]
    fn roundtrip_is_exact() {
        let m = sample();
        for shards in [1usize, 2, 3, 7, 20] {
            let sh = ShardedCsr::from_csr(&m, shards);
            assert_eq!(sh.to_csr(), m, "{shards} shards");
            assert_eq!(sh.nnz(), m.nnz());
            assert_eq!(sh.n_rows(), m.n_rows());
            assert_eq!(sh.n_cols(), m.n_cols());
        }
    }

    #[test]
    fn row_access_matches_monolithic() {
        let m = sample();
        let sh = ShardedCsr::from_csr(&m, 3);
        for r in 0..m.n_rows() {
            assert_eq!(sh.row_nnz(r), m.row_nnz(r), "row {r}");
            assert_eq!(sh.row_cols(r), m.row_cols(r), "row {r}");
            assert_eq!(sh.row_values(r), m.row_values(r), "row {r}");
            assert_eq!(
                sh.row_iter(r).collect::<Vec<_>>(),
                m.row_iter(r).collect::<Vec<_>>(),
                "row {r}"
            );
        }
    }

    #[test]
    fn empty_and_single_row_shards() {
        let m = sample();
        // Empty shard in the middle, single-row shards at both ends.
        let ranges = [0..1, 1..1, 1..2, 2..6, 6..7];
        let sh = ShardedCsr::from_csr_ranges(&m, &ranges);
        assert_eq!(sh.num_shards(), 5);
        assert_eq!(sh.shard(1).n_rows(), 0);
        assert_eq!(sh.to_csr(), m);
        // Row lookups skip the empty shard.
        assert_eq!(sh.row_cols(1), m.row_cols(1));
        let cfg = ParallelismConfig::serial();
        let x: Vec<f64> = (0..7).map(|i| i as f64 * 0.3 - 1.0).collect();
        let mut y_mono = vec![0.0; 7];
        let mut y_shard = vec![0.0; 7];
        m.spmv_into_with(&x, &mut y_mono, &cfg);
        sh.spmv_into_with(&x, &mut y_shard, &cfg);
        assert_eq!(y_mono, y_shard);
    }

    #[test]
    fn empty_matrix_shards() {
        let m = CsrMatrix::empty(0, 0);
        let sh = ShardedCsr::from_csr(&m, 4);
        assert_eq!(sh.n_rows(), 0);
        assert_eq!(sh.to_csr(), m);
    }

    #[test]
    fn kernels_match_monolithic_bitwise() {
        let m = sample();
        let n = m.n_rows();
        let b = Mat::from_fn(n, 3, |r, c| ((r * 3 + c) % 11) as f64 * 0.07 - 0.3);
        for shards in [1usize, 2, 4, 7] {
            let sh = ShardedCsr::from_csr(&m, shards);
            for cfg in [
                ParallelismConfig::serial(),
                ParallelismConfig::with_threads(4).with_min_work(1),
            ] {
                let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.2 - 0.4).collect();
                let mut y_mono = vec![0.0; n];
                let mut y_shard = vec![0.0; n];
                m.spmv_into_with(&x, &mut y_mono, &cfg);
                sh.spmv_into_with(&x, &mut y_shard, &cfg);
                let same = y_mono
                    .iter()
                    .zip(&y_shard)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "spmv, {shards} shards");

                let mut o_mono = Mat::zeros(n, 3);
                let mut o_shard = Mat::zeros(n, 3);
                m.spmm_into_with(&b, &mut o_mono, &cfg);
                sh.spmm_into_with(&b, &mut o_shard, &cfg);
                let same = o_mono
                    .as_slice()
                    .iter()
                    .zip(o_shard.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "spmm, {shards} shards");

                assert_eq!(sh.transpose_with(&cfg), m.transpose_with(&cfg));
            }
            assert_eq!(sh.row_sums(), m.row_sums(), "{shards} shards");
            assert_eq!(
                sh.squared_weight_degrees(),
                m.squared_weight_degrees(),
                "{shards} shards"
            );
        }
    }

    #[test]
    #[should_panic(expected = "tile the rows contiguously")]
    fn gapped_ranges_rejected() {
        let m = sample();
        let _ = ShardedCsr::from_csr_ranges(&m, &[0..2, 3..7]);
    }

    #[test]
    #[should_panic(expected = "cover every row")]
    fn short_ranges_rejected() {
        let m = sample();
        let _ = ShardedCsr::from_csr_ranges(&m, &[0..2, 2..6]);
    }
}
