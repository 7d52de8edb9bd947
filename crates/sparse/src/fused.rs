//! The fused LinBP update step — one cache-resident pass per iteration.
//!
//! The unfused LinBP iteration (Eq. 6) makes five full sweeps over `n × k`
//! matrices per round: the SpMM `A·B̂`, the dense `·Ĥ` product, the `+Ê`
//! add, the echo-cancellation `−D·B̂·Ĥ²` (itself a scale + matmul +
//! subtract), and finally the convergence-norm pass over old vs. new
//! beliefs. Each sweep re-streams matrices that were in cache moments
//! before.
//!
//! [`CsrMatrix::linbp_step_fused_with`] collapses all of that into one
//! row-partitioned pass: per output row, the SpMM gather, the `·Ĥ` apply,
//! the explicit-belief add, the echo subtraction, damping, and the
//! per-query max-abs residual all happen while the row is resident in L1.
//! The belief matrix `B̂` is read once and the output written once; every
//! intermediate lives in registers or a `k·q`-length task-local buffer.
//!
//! ```text
//!   row r:  A(r,·) ──element-wise gather──▶ ab = Σ_c A(r,c)·B̂(c,·)
//!           ab ──·Ĥ (per k-block)──▶ out(r,·)
//!           out(r,·) += Ê(r,·)
//!           out(r,·) −= (d_r·B̂(r,·))·Ĥ²     (echo cancellation)
//!           out(r,·) = (1−λ)·out(r,·) + λ·B̂(r,·)   (damping)
//!           Δ_q = max(Δ_q, max|out(r,·) − B̂(r,·)| per k-block)
//! ```
//!
//! **Bitwise contract.** Every sub-step reproduces the accumulation order
//! of the unfused kernels it replaces (`spmm_rows`' gather-axpy order,
//! `matmul_rows`' zero-skipping `·Ĥ` order, element-wise add/sub/damp,
//! order-independent max), so the fused step is *bitwise identical* to
//! the unfused composition — and, since row blocks write disjoint output
//! and the residual reduction is a max, bitwise identical across thread
//! counts. The multi-query layout (`q` side-by-side `k`-column blocks,
//! `Ĥ` applied block-diagonally) serves every LinBP solve; a single
//! query is the `q = 1` case.
//!
//! **Which kernel runs.** [`CsrMatrix::fused_rows_dispatch`] picks by
//! class count `k` and observed width `k·q`:
//!
//! * `k ∈ {2, 3, 4}`, `q = 1` — `fused_rows_k::<K>`: the whole row in
//!   `[f64; K]` registers (every single-query solve).
//! * `k ∈ {2, 3, 4}`, `q ≥ 2` — `fused_rows_kq::<K>`: one element-wise
//!   gather over the `k·q` row into a stack buffer (up to 128 columns),
//!   then per `k`-block the `q = 1` kernel's register arithmetic (every
//!   coalesced solve and every cache patch the server runs).
//! * any other `k` — the generic `fused_rows`, `axpy4` loops with
//!   run-time bounds.
//!
//! The L2 tolerance norm is *not* fused: summing per-row-block partials
//! would make the total depend on the partition, i.e. the thread count.
//! L2 callers run the existing fixed-order `l2_diff` pass after the step.

use crate::csr::{CsrMatrix, SCRATCH_WIDTH};
use crate::frontier::{FrontierPlan, FrontierStep, FrontierTask, NodeBitset};
use lsbp_linalg::simd::axpy4;
use lsbp_linalg::{weight_balanced_ranges, Mat, ParallelismConfig};
use std::ops::Range;

/// The per-iteration constants of the LinBP update (Eq. 6/7), borrowed by
/// [`CsrMatrix::linbp_step_fused_with`] (and the sharded backend's
/// implementation of the same operation).
#[derive(Clone, Copy, Debug)]
pub struct FusedLinBpStep<'a> {
    /// Explicit residual beliefs `Ê` (`n × k·q`).
    pub e_hat: &'a Mat,
    /// Scaled residual coupling `Ĥ` (`k × k`), applied per `k`-column
    /// block.
    pub h: &'a Mat,
    /// `Ĥ²` for the echo-cancellation term; `None` runs LinBP\* (Eq. 7).
    pub h2: Option<&'a Mat>,
    /// Squared-weight degrees `d_s = Σ_t w(s,t)²` (ignored without `h2`,
    /// but must still have length `n`).
    pub degrees: &'a [f64],
    /// Update damping `λ ∈ [0, 1)`; 0.0 is the paper's plain update.
    pub damping: f64,
}

/// Validates the shapes of one fused LinBP step against an `n × n`
/// adjacency operator and returns `(k, q)`. Shared by the monolithic
/// [`CsrMatrix::linbp_step_fused_with`] and the sharded backend so both
/// reject malformed inputs with identical messages.
pub(crate) fn validate_fused_step(
    n_rows: usize,
    n_cols: usize,
    b: &Mat,
    step: &FusedLinBpStep<'_>,
    out: &Mat,
    deltas: &[f64],
) -> (usize, usize) {
    let n = n_rows;
    let kt = b.cols();
    let k = step.h.rows();
    assert_eq!(n_cols, n, "fused LinBP step needs a square adjacency");
    assert_eq!(b.rows(), n, "fused LinBP step: B row count");
    assert!(step.h.is_square(), "fused LinBP step: Ĥ must be square");
    assert!(
        k > 0 && kt.is_multiple_of(k),
        "fused LinBP step: B column count {kt} is not a multiple of k = {k}"
    );
    assert_eq!(
        (out.rows(), out.cols()),
        (n, kt),
        "fused LinBP step: out shape"
    );
    assert_eq!(
        (step.e_hat.rows(), step.e_hat.cols()),
        (n, kt),
        "fused LinBP step: Ê shape"
    );
    if let Some(h2) = step.h2 {
        assert_eq!((h2.rows(), h2.cols()), (k, k), "fused LinBP step: Ĥ² shape");
    }
    assert_eq!(step.degrees.len(), n, "fused LinBP step: degrees length");
    let q = kt / k;
    assert_eq!(deltas.len(), q, "fused LinBP step: deltas length");
    (k, q)
}

/// The task-local `k·q` intermediates of the generic fused kernel — the
/// whole point of the fusion is that these stay in L1 instead of being
/// `n × k·q` matrices. For every realistic width they are stack arrays
/// (no per-iteration heap traffic); only `kt > SCRATCH_WIDTH` falls
/// back to one allocation per task. One value serves one row-block task — monolithic row
/// partitions and shard-local tasks build their own, so shards own their
/// scratch by construction.
pub(crate) struct FusedScratch {
    stack: [f64; 2 * SCRATCH_WIDTH],
    heap: Vec<f64>,
    kt: usize,
}

impl FusedScratch {
    pub(crate) fn new(kt: usize) -> Self {
        Self {
            stack: [0.0; 2 * SCRATCH_WIDTH],
            heap: if 2 * kt > 2 * SCRATCH_WIDTH {
                vec![0.0; 2 * kt]
            } else {
                Vec::new()
            },
            kt,
        }
    }

    /// The `(ab, echo)` buffer pair, each `k·q` long.
    pub(crate) fn ab_echo(&mut self) -> (&mut [f64], &mut [f64]) {
        let buf: &mut [f64] = if 2 * self.kt <= self.stack.len() {
            &mut self.stack[..2 * self.kt]
        } else {
            &mut self.heap
        };
        buf.split_at_mut(self.kt)
    }
}

/// Widest stacked row (`k·q` columns) whose gather buffer
/// [`CsrMatrix::fused_rows_kq`] keeps on the stack: `k ≤ 4` classes times
/// the server's default `max_batch` of 32 queries.
const STACKED_WIDTH: usize = 128;

/// `Ĥ`/`Ĥ²` staged as `[[f64; K]; K]` once per task, plus the per-step
/// scalars — everything [`CsrMatrix::fused_rows_kq`] needs to finish one
/// `K`-column block of a row after its gather.
struct BlockCouplings<const K: usize> {
    h: [[f64; K]; K],
    h2: [[f64; K]; K],
    echo_on: bool,
    lambda: f64,
}

impl<const K: usize> BlockCouplings<K> {
    fn stage(step: &FusedLinBpStep<'_>) -> Self {
        let mut h = [[0.0f64; K]; K];
        let mut h2 = [[0.0f64; K]; K];
        for i in 0..K {
            h[i].copy_from_slice(step.h.row(i));
            if let Some(m) = step.h2 {
                h2[i].copy_from_slice(m.row(i));
            }
        }
        Self {
            h,
            h2,
            echo_on: step.h2.is_some(),
            lambda: step.damping,
        }
    }

    /// Finishes one `K`-column block of a row from its gathered `ab`:
    /// `o = ab·Ĥ` (zero-skipping, `matmul_rows` order), the echo term
    /// `(d·B(r,·))·Ĥ²` (zero-skipping the scaled entries), then
    /// `(o + ê) − echo`, the damping blend and `|new − old|` — the element
    /// order of the unfused composition, statement for statement the
    /// per-row tail of [`CsrMatrix::fused_rows_k`]. Writes `out` and
    /// returns the running max-abs residual `dmax` updated with this
    /// block's changes.
    #[inline(always)]
    fn finish(
        &self,
        ab: &[f64; K],
        b_blk: &[f64],
        e_blk: &[f64],
        d: f64,
        out: &mut [f64],
        mut dmax: f64,
    ) -> f64 {
        let b_blk: &[f64; K] = b_blk.try_into().expect("block of K");
        let e_blk: &[f64; K] = e_blk.try_into().expect("block of K");
        let out: &mut [f64; K] = out.try_into().expect("block of K");
        let mut o = [0.0f64; K];
        for (&a, h_row) in ab.iter().zip(&self.h) {
            if a == 0.0 {
                continue;
            }
            for (o_j, &h) in o.iter_mut().zip(h_row) {
                *o_j += a * h;
            }
        }
        let mut echo = [0.0f64; K];
        if self.echo_on {
            for (&x, h2_row) in b_blk.iter().zip(&self.h2) {
                let a = d * x;
                if a == 0.0 {
                    continue;
                }
                for (e_j, &h) in echo.iter_mut().zip(h2_row) {
                    *e_j += a * h;
                }
            }
        }
        let lambda = self.lambda;
        for j in 0..K {
            let mut x = o[j] + e_blk[j];
            if self.echo_on {
                x -= echo[j];
            }
            if lambda > 0.0 {
                x = (1.0 - lambda) * x + lambda * b_blk[j];
            }
            out[j] = x;
            dmax = dmax.max((x - b_blk[j]).abs());
        }
        dmax
    }
}

/// Max-merges per-task residual partials into `deltas`. `max` is
/// order-independent, so any partition of the rows (thread tasks, shards,
/// or both) accumulates the exact serial result.
pub(crate) fn merge_delta_partials(deltas: &mut [f64], partials: &[Vec<f64>]) {
    for partial in partials {
        for (d, &p) in deltas.iter_mut().zip(partial) {
            *d = d.max(p);
        }
    }
}

impl CsrMatrix {
    /// Applies one fused LinBP update `out = Ê + A·B·Ĥ [− D·B·Ĥ²]`
    /// (damped) and accumulates the per-query max-abs belief change into
    /// `deltas` — all in a single row-partitioned pass (see the module
    /// docs). `B` holds `q = B.cols() / Ĥ.rows()` queries side by side;
    /// `deltas` must have length `q`.
    ///
    /// # Panics
    /// Panics on any dimension mismatch (square adjacency of size
    /// `B.rows()`, square `Ĥ` dividing `B.cols()`, `out`/`e_hat` shaped
    /// like `B`, `degrees` of length `n`, `deltas` of length `q`).
    pub fn linbp_step_fused_with(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        out: &mut Mat,
        deltas: &mut [f64],
        cfg: &ParallelismConfig,
    ) {
        let n = self.n_rows();
        let kt = b.cols();
        let (k, _q) = validate_fused_step(n, self.n_cols(), b, step, out, deltas);
        deltas.iter_mut().for_each(|d| *d = 0.0);
        if n == 0 || kt == 0 {
            return;
        }
        self.fused_block_with(b, step, 0, out.as_mut_slice(), deltas, k, cfg);
    }

    /// The frontier-aware variant of [`CsrMatrix::linbp_step_fused_with`]:
    /// bitwise-identical `out` and `deltas`, but rows whose inputs did not
    /// change a single bit since the last committed iteration are skipped
    /// (see [`crate::frontier`]), and each computed row's changed bit is
    /// recorded into `fr`. The caller owns the iteration protocol:
    /// [`crate::FrontierState::begin`] before the step,
    /// [`crate::FrontierState::commit`] after the buffers swap.
    ///
    /// # Panics
    /// Panics on the same dimension mismatches as the full step.
    pub fn linbp_step_fused_frontier_with(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        out: &mut Mat,
        deltas: &mut [f64],
        fr: &mut FrontierStep<'_>,
        cfg: &ParallelismConfig,
    ) {
        let n = self.n_rows();
        let kt = b.cols();
        let (k, _q) = validate_fused_step(n, self.n_cols(), b, step, out, deltas);
        deltas.iter_mut().for_each(|d| *d = 0.0);
        if n == 0 || kt == 0 {
            return;
        }
        self.fused_block_frontier_with(b, step, 0, out.as_mut_slice(), deltas, k, fr, cfg);
    }

    /// The partitioned body of the fused step over *this matrix's* rows,
    /// writing the flat row-major `block` (exactly `n_rows · b.cols()`
    /// slots) and max-accumulating per-query residuals into `deltas`
    /// (NOT zeroed here — the caller owns the across-call accumulation).
    /// `base` is the global-row offset (see
    /// [`CsrMatrix::fused_rows_dispatch`]): 0 for the monolithic path,
    /// the shard's first global row for the sharded backend, which calls
    /// this once per shard as its own persistent-pool region.
    #[allow(clippy::too_many_arguments)] // one slot per fused-step term
    pub(crate) fn fused_block_with(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        base: usize,
        block: &mut [f64],
        deltas: &mut [f64],
        k: usize,
        cfg: &ParallelismConfig,
    ) {
        let n = self.n_rows();
        let kt = b.cols();
        if n == 0 {
            return;
        }
        let parts = cfg.partitions((self.nnz() + n) * kt);
        if parts <= 1 {
            self.fused_rows_dispatch(b, step, 0..n, base, block, deltas, k);
            return;
        }
        let ranges = weight_balanced_ranges(self.row_offsets(), parts);
        let mut partials: Vec<Vec<f64>> = vec![vec![0.0; deltas.len()]; ranges.len()];
        let mut rest: &mut [f64] = block;
        cfg.pool().scope(|s| {
            for (range, partial) in ranges.into_iter().zip(partials.iter_mut()) {
                let (chunk, tail) = rest.split_at_mut((range.end - range.start) * kt);
                rest = tail;
                s.spawn(move || self.fused_rows_dispatch(b, step, range, base, chunk, partial, k));
            }
        });
        // Combine the per-task residual maxima — order-independent, so
        // this equals the serial accumulation bitwise.
        merge_delta_partials(deltas, &partials);
    }

    /// The frontier-aware variant of [`CsrMatrix::fused_block_with`]:
    /// identical arithmetic in the identical order, but rows whose inputs
    /// are bitwise unchanged since the last iteration are skipped — their
    /// output slots already hold the exact bits a recomputation would
    /// write (the double-buffer invariant, `debug_assert`ed per skip) and
    /// their residual terms are exactly `0.0`, so `block` and `deltas`
    /// come out bitwise identical to the full pass. Whole inactive row
    /// blocks are rejected by the plan's summary test without touching
    /// their nnz. Computed rows' changed bits land in `fr` (parallel
    /// tasks record into task-local bitsets that are OR-merged — bit-OR
    /// is order-independent, so the merged set equals the serial one).
    #[allow(clippy::too_many_arguments)] // one slot per fused-step term
    pub(crate) fn fused_block_frontier_with(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        base: usize,
        block: &mut [f64],
        deltas: &mut [f64],
        k: usize,
        fr: &mut FrontierStep<'_>,
        cfg: &ParallelismConfig,
    ) {
        let n = self.n_rows();
        let kt = b.cols();
        if n == 0 {
            return;
        }
        let parts = cfg.partitions((self.nnz() + n) * kt);
        if parts <= 1 {
            let mut task = FrontierTask {
                changed: fr.changed,
                bits: &mut *fr.next_changed,
                active_cols: fr.active_cols,
                k,
                rows_active: 0,
                rows_skipped: 0,
            };
            self.fused_rows_frontier(
                b,
                step,
                0..n,
                base,
                block,
                deltas,
                k,
                fr.plan,
                fr.summary,
                &mut task,
            );
            fr.rows_active += task.rows_active;
            fr.rows_skipped += task.rows_skipped;
            return;
        }
        let ranges = weight_balanced_ranges(self.row_offsets(), parts);
        let mut partials: Vec<Vec<f64>> = vec![vec![0.0; deltas.len()]; ranges.len()];
        // Task-local changed bitsets in the *global* row frame, merged
        // with the order-independent OR after the scope (the bitset
        // analogue of `merge_delta_partials`), plus per-task counters.
        let mut bit_partials: Vec<NodeBitset> = (0..ranges.len())
            .map(|_| NodeBitset::new(fr.changed.len()))
            .collect();
        let mut counters: Vec<(u64, u64)> = vec![(0, 0); ranges.len()];
        let (plan, summary, changed, active_cols) =
            (fr.plan, fr.summary, fr.changed, fr.active_cols);
        let mut rest: &mut [f64] = block;
        cfg.pool().scope(|s| {
            for ((range, partial), (bits, counter)) in ranges
                .into_iter()
                .zip(partials.iter_mut())
                .zip(bit_partials.iter_mut().zip(counters.iter_mut()))
            {
                let (chunk, tail) = rest.split_at_mut((range.end - range.start) * kt);
                rest = tail;
                s.spawn(move || {
                    let mut task = FrontierTask {
                        changed,
                        bits,
                        active_cols,
                        k,
                        rows_active: 0,
                        rows_skipped: 0,
                    };
                    self.fused_rows_frontier(
                        b, step, range, base, chunk, partial, k, plan, summary, &mut task,
                    );
                    *counter = (task.rows_active, task.rows_skipped);
                });
            }
        });
        merge_delta_partials(deltas, &partials);
        for bits in &bit_partials {
            fr.next_changed.or_assign(bits);
        }
        for &(active, skipped) in &counters {
            fr.rows_active += active;
            fr.rows_skipped += skipped;
        }
    }

    /// Walks the task's row range in plan-block-aligned subranges: an
    /// inactive block (no dependency on any changed block) is skipped
    /// wholesale — its nnz is never touched — while active blocks run the
    /// per-row frontier refinement. Consecutive active rows are batched
    /// into runs and each run goes through the ordinary
    /// [`CsrMatrix::fused_rows_dispatch`] — the hot kernels carry no
    /// frontier code at all, so a dense frontier pays one bit test per
    /// row and the kernels run at full-recomputation speed. `rows`
    /// indexes this matrix's rows; blocks live in the global frame
    /// (`base + r`), so shard boundaries mid-block simply yield shorter
    /// subranges.
    #[allow(clippy::too_many_arguments)] // one slot per fused-step term
    fn fused_rows_frontier(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        rows: Range<usize>,
        base: usize,
        block: &mut [f64],
        deltas: &mut [f64],
        k: usize,
        plan: &FrontierPlan,
        summary: &NodeBitset,
        task: &mut FrontierTask<'_>,
    ) {
        let kt = b.cols();
        let bs = plan.block_rows();
        let mut r = rows.start;
        while r < rows.end {
            let blk = (base + r) / bs;
            let end = rows.end.min((blk + 1) * bs - base);
            if plan.block_active(blk, summary) {
                let mut i = r;
                while i < end {
                    if task.row_active(self, i, base + i) {
                        let run_start = i;
                        i += 1;
                        while i < end && task.row_active(self, i, base + i) {
                            i += 1;
                        }
                        let chunk =
                            &mut block[(run_start - rows.start) * kt..(i - rows.start) * kt];
                        self.fused_rows_dispatch(b, step, run_start..i, base, chunk, deltas, k);
                        for rr in run_start..i {
                            let out_row =
                                &block[(rr - rows.start) * kt..(rr - rows.start) * kt + kt];
                            task.record(base + rr, out_row, b.row(base + rr));
                        }
                        // Row `i` (if any) already tested inactive: the
                        // inner loop above stopped on it.
                        if i < end {
                            task.rows_skipped += 1;
                            #[cfg(debug_assertions)]
                            task.debug_assert_skip_invariant(
                                base + i,
                                &block[(i - rows.start) * kt..(i - rows.start) * kt + kt],
                                b.row(base + i),
                            );
                            i += 1;
                        }
                    } else {
                        task.rows_skipped += 1;
                        #[cfg(debug_assertions)]
                        task.debug_assert_skip_invariant(
                            base + i,
                            &block[(i - rows.start) * kt..(i - rows.start) * kt + kt],
                            b.row(base + i),
                        );
                        i += 1;
                    }
                }
            } else {
                task.rows_skipped += (end - r) as u64;
                #[cfg(debug_assertions)]
                for rr in r..end {
                    task.debug_assert_skip_invariant(
                        base + rr,
                        &block[(rr - rows.start) * kt..(rr - rows.start + 1) * kt],
                        b.row(base + rr),
                    );
                }
            }
            r = end;
        }
    }

    /// Routes a row block to the kernel for its width. The class count
    /// `k` and the observed width `k·q` pick one of three kernels:
    ///
    /// | `k`        | `q = 1`                      | `q ≥ 2`                       |
    /// |------------|------------------------------|-------------------------------|
    /// | 2, 3, 4    | [`CsrMatrix::fused_rows_k`]  | [`CsrMatrix::fused_rows_kq`]  |
    /// | 1, ≥ 5     | [`CsrMatrix::fused_rows`]    | [`CsrMatrix::fused_rows`]     |
    ///
    /// All three compute the identical arithmetic in the identical order —
    /// the specializations only turn the tiny per-block loops into fully
    /// unrolled register code (property-tested bitwise equal). `q = 1`
    /// keeps its own kernel: run on a lone query, the stacked kernel's
    /// run-time-length gather took about 2.5× as long (single-threaded
    /// fused step on kronecker_m9, k = 3).
    ///
    /// `rows` indexes *this matrix's* rows; `base` is the global-row
    /// offset of row 0 into `b`/`Ê`/`degrees`/`deltas`' coordinate frame.
    /// The monolithic path passes `base = 0` (its rows *are* global); the
    /// sharded backend passes each shard's first global row, running the
    /// identical kernel on the shard-local block.
    #[allow(clippy::too_many_arguments)] // one slot per fused-step term
    pub(crate) fn fused_rows_dispatch(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        rows: Range<usize>,
        base: usize,
        block: &mut [f64],
        deltas: &mut [f64],
        k: usize,
    ) {
        let single = b.cols() == k;
        match (k, single) {
            (2, true) => self.fused_rows_k::<2>(b, step, rows, base, block, deltas),
            (3, true) => self.fused_rows_k::<3>(b, step, rows, base, block, deltas),
            (4, true) => self.fused_rows_k::<4>(b, step, rows, base, block, deltas),
            (2, false) => self.fused_rows_kq::<2>(b, step, rows, base, block, deltas),
            (3, false) => self.fused_rows_kq::<3>(b, step, rows, base, block, deltas),
            (4, false) => self.fused_rows_kq::<4>(b, step, rows, base, block, deltas),
            _ => self.fused_rows(b, step, rows, base, block, deltas, k),
        }
    }

    /// Width-specialized single-query fused kernel: every per-row
    /// intermediate is a `[f64; K]` register array and the inner loops
    /// unroll at compile time. Accumulation orders (entry-order gather,
    /// zero-skipping `·Ĥ` apply, `(o + ê) − echo`, damping blend, max
    /// residual) are element-for-element those of [`CsrMatrix::fused_rows`].
    /// The per-row tail stays inline rather than calling
    /// [`BlockCouplings::finish`]: the shared helper measured about 4%
    /// slower on this path, which every lone query runs.
    fn fused_rows_k<const K: usize>(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        rows: Range<usize>,
        base: usize,
        block: &mut [f64],
        deltas: &mut [f64],
    ) {
        // Ĥ / Ĥ² staged as fixed-size arrays once per task.
        let mut h = [[0.0f64; K]; K];
        let mut h2 = [[0.0f64; K]; K];
        for i in 0..K {
            h[i].copy_from_slice(step.h.row(i));
            if let Some(m) = step.h2 {
                h2[i].copy_from_slice(m.row(i));
            }
        }
        let echo_on = step.h2.is_some();
        let lambda = step.damping;
        let mut dmax = 0.0f64;
        for r in rows.clone() {
            // ab = A(r,·)·B accumulated in CSR entry order per element —
            // the exact `spmm_rows` axpy order, in K registers.
            let mut ab = [0.0f64; K];
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_values(r)) {
                let b_row = b.row(c as usize);
                for j in 0..K {
                    ab[j] += v * b_row[j];
                }
            }
            // o = ab·Ĥ, zero-skipping in `matmul_rows` order.
            let mut o = [0.0f64; K];
            for (i, &a) in ab.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for j in 0..K {
                    o[j] += a * h[i][j];
                }
            }
            // echo = (d_r·B(r,·))·Ĥ², zero-skipping the scaled entries.
            let b_row = b.row(base + r);
            let mut echo = [0.0f64; K];
            if echo_on {
                let d = step.degrees[base + r];
                for i in 0..K {
                    let a = d * b_row[i];
                    if a == 0.0 {
                        continue;
                    }
                    for j in 0..K {
                        echo[j] += a * h2[i][j];
                    }
                }
            }
            // Combine, damp, write, residual — one unrolled pass. The
            // element order matches the unfused composition exactly:
            // (o + ê) − echo, then the blend, then |new − old|.
            let e_row = step.e_hat.row(base + r);
            let o_out = &mut block[(r - rows.start) * K..(r - rows.start + 1) * K];
            for j in 0..K {
                let mut x = o[j] + e_row[j];
                if echo_on {
                    x -= echo[j];
                }
                if lambda > 0.0 {
                    x = (1.0 - lambda) * x + lambda * b_row[j];
                }
                o_out[j] = x;
                dmax = dmax.max((x - b_row[j]).abs());
            }
        }
        deltas[0] = deltas[0].max(dmax);
    }

    /// Width-specialized stacked fused kernel for `q ≥ 2` queries of `K`
    /// classes. The gather is one element-wise `ab[c] += v·B(c', c)` loop
    /// over the whole `K·q` row (the `axpy4` order per element); each
    /// `K`-column block is then finished in registers by
    /// [`BlockCouplings::finish`], the single-query kernel's row tail.
    /// `ab` lives on the stack up to
    /// [`STACKED_WIDTH`] columns, so frontier runs at serving widths
    /// allocate nothing per dispatch.
    fn fused_rows_kq<const K: usize>(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        rows: Range<usize>,
        base: usize,
        block: &mut [f64],
        deltas: &mut [f64],
    ) {
        let kt = b.cols();
        let cpl = BlockCouplings::<K>::stage(step);
        let mut stack = [0.0f64; STACKED_WIDTH];
        let mut heap = Vec::new();
        let ab: &mut [f64] = if kt <= STACKED_WIDTH {
            &mut stack[..kt]
        } else {
            heap.resize(kt, 0.0);
            &mut heap
        };
        for r in rows.clone() {
            ab.iter_mut().for_each(|x| *x = 0.0);
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_values(r)) {
                for (a, &x) in ab.iter_mut().zip(b.row(c as usize)) {
                    *a += v * x;
                }
            }
            let g = base + r;
            let d = step.degrees[g];
            let o_row = &mut block[(r - rows.start) * kt..(r - rows.start + 1) * kt];
            let blocks = ab
                .chunks_exact(K)
                .zip(b.row(g).chunks_exact(K))
                .zip(step.e_hat.row(g).chunks_exact(K))
                .zip(o_row.chunks_exact_mut(K));
            for ((((a_blk, b_blk), e_blk), o_blk), slot) in blocks.zip(deltas.iter_mut()) {
                let a_blk: &[f64; K] = a_blk.try_into().expect("chunk of K");
                *slot = cpl.finish(a_blk, b_blk, e_blk, d, o_blk, *slot);
            }
        }
    }

    /// The generic multi-query fused kernel over the row block `rows`,
    /// writing into `block` (the flat row-major storage of exactly those
    /// output rows) and max-accumulating per-query residuals into
    /// `deltas`. Shared verbatim by the serial path and every parallel
    /// task.
    #[allow(clippy::too_many_arguments)] // one slot per fused-step term
    fn fused_rows(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        rows: Range<usize>,
        base: usize,
        block: &mut [f64],
        deltas: &mut [f64],
        k: usize,
    ) {
        let kt = b.cols();
        let q = kt / k;
        // Task-local intermediates (see [`FusedScratch`]): stack arrays
        // for every realistic width, one allocation per row-block task
        // beyond SCRATCH_WIDTH.
        let mut scratch = FusedScratch::new(kt);
        let (ab, echo) = scratch.ab_echo();
        for r in rows.clone() {
            let o = &mut block[(r - rows.start) * kt..(r - rows.start + 1) * kt];
            // ab = A(r,·)·B — the exact `spmm_rows` gather-axpy order.
            ab.iter_mut().for_each(|x| *x = 0.0);
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_values(r)) {
                axpy4(v, b.row(c as usize), ab);
            }
            // o = ab·(I_q ⊗ Ĥ) — the zero-skipping `matmul_rows` order,
            // applied per k-block (columns never mix across queries).
            o.iter_mut().for_each(|x| *x = 0.0);
            for blk in 0..q {
                let a_blk = &ab[blk * k..(blk + 1) * k];
                let o_blk = &mut o[blk * k..(blk + 1) * k];
                for (j, &a) in a_blk.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    axpy4(a, step.h.row(j), o_blk);
                }
            }
            // Echo term: (d_r·B(r,·))·(I_q ⊗ Ĥ²), the scaled entries
            // computed inline (same values and zero skip as the unfused
            // `scaled_rows_into` + block-diagonal matmul composition).
            let b_row = b.row(base + r);
            let echo_on = if let Some(h2) = step.h2 {
                let d = step.degrees[base + r];
                echo.iter_mut().for_each(|x| *x = 0.0);
                for blk in 0..q {
                    let b_blk = &b_row[blk * k..(blk + 1) * k];
                    let e_blk = &mut echo[blk * k..(blk + 1) * k];
                    for (j, &x) in b_blk.iter().enumerate() {
                        let a = d * x;
                        if a == 0.0 {
                            continue;
                        }
                        axpy4(a, h2.row(j), e_blk);
                    }
                }
                true
            } else {
                false
            };
            // Combine `(o + ê) − echo`, damp, and accumulate the
            // per-query residual in one pass — the element order of the
            // unfused add/sub/blend/max passes.
            let e_row = step.e_hat.row(base + r);
            let lambda = step.damping;
            for (blk, slot) in deltas.iter_mut().enumerate() {
                let cols = blk * k..(blk + 1) * k;
                let mut dmax = *slot;
                for j in cols {
                    let mut x = o[j] + e_row[j];
                    if echo_on {
                        x -= echo[j];
                    }
                    if lambda > 0.0 {
                        x = (1.0 - lambda) * x + lambda * b_row[j];
                    }
                    o[j] = x;
                    dmax = dmax.max((x - b_row[j]).abs());
                }
                *slot = dmax;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn toy() -> (CsrMatrix, Mat, Mat, Mat, Vec<f64>) {
        let mut coo = CooMatrix::new(4, 4);
        coo.push_symmetric(0, 1, 1.0);
        coo.push_symmetric(1, 2, 2.0);
        coo.push_symmetric(2, 3, 0.5);
        let adj = coo.to_csr();
        let e = Mat::from_fn(4, 2, |r, c| if r == 0 { [0.1, -0.1][c] } else { 0.0 });
        let h = Mat::from_rows(&[&[0.2, -0.2], &[-0.2, 0.2]]);
        let h2 = h.matmul(&h);
        let degrees = adj.squared_weight_degrees().to_vec();
        (adj, e, h, h2, degrees)
    }

    /// The fused step equals the unfused composition
    /// `Ê + A·B·Ĥ − D·B·Ĥ²` computed with separate dense ops — bitwise.
    #[test]
    fn fused_matches_unfused_composition_bitwise() {
        let (adj, e, h, h2, degrees) = toy();
        let b = Mat::from_fn(4, 2, |r, c| {
            0.01 * (r as f64 + 1.0) * if c == 0 { 1.0 } else { -0.7 }
        });
        for (use_echo, damping) in [(true, 0.0), (false, 0.0), (true, 0.25)] {
            let cfg = ParallelismConfig::serial();
            // Unfused reference.
            let ab = adj.spmm_with(&b, &cfg);
            let mut reference = ab.matmul_with(&h, &cfg);
            reference.add_assign(&e);
            if use_echo {
                let mut db = Mat::zeros(4, 2);
                b.scaled_rows_into(&degrees, &mut db);
                let tmp = db.matmul_with(&h2, &cfg);
                reference.sub_assign(&tmp);
            }
            if damping > 0.0 {
                for (new, &old) in reference.as_mut_slice().iter_mut().zip(b.as_slice()) {
                    *new = (1.0 - damping) * *new + damping * old;
                }
            }
            let expected_delta = reference.max_abs_diff(&b);

            let mut out = Mat::from_fn(4, 2, |_, _| f64::NAN); // must be overwritten
            let mut deltas = [f64::NAN];
            adj.linbp_step_fused_with(
                &b,
                &FusedLinBpStep {
                    e_hat: &e,
                    h: &h,
                    h2: use_echo.then_some(&h2),
                    degrees: &degrees,
                    damping,
                },
                &mut out,
                &mut deltas,
                &cfg,
            );
            for (a, b) in out.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "echo={use_echo} damping={damping}"
                );
            }
            assert_eq!(deltas[0].to_bits(), expected_delta.to_bits());
        }
    }

    #[test]
    fn empty_graph_zeroes_deltas() {
        let adj = CsrMatrix::empty(0, 0);
        let e = Mat::zeros(0, 3);
        let h = Mat::identity(3);
        let mut out = Mat::zeros(0, 3);
        let mut deltas = [f64::NAN];
        adj.linbp_step_fused_with(
            &e.clone(),
            &FusedLinBpStep {
                e_hat: &e,
                h: &h,
                h2: None,
                degrees: &[],
                damping: 0.0,
            },
            &mut out,
            &mut deltas,
            &ParallelismConfig::serial(),
        );
        assert_eq!(deltas[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "deltas length")]
    fn wrong_delta_length_rejected() {
        let (adj, e, h, _, degrees) = toy();
        let b = e.clone();
        let mut out = Mat::zeros(4, 2);
        adj.linbp_step_fused_with(
            &b,
            &FusedLinBpStep {
                e_hat: &e,
                h: &h,
                h2: None,
                degrees: &degrees,
                damping: 0.0,
            },
            &mut out,
            &mut [0.0, 0.0],
            &ParallelismConfig::serial(),
        );
    }
}
