//! The fused LinBP update step — one cache-resident pass per iteration.
//!
//! The unfused LinBP iteration (Eq. 6) makes five full sweeps over `n × k`
//! matrices per round: the SpMM `A·B̂`, the dense `·Ĥ` product, the `+Ê`
//! add, the echo-cancellation `−D·B̂·Ĥ²` (itself a scale + matmul +
//! subtract), and finally the convergence-norm pass over old vs. new
//! beliefs. Each sweep re-streams matrices that were in cache moments
//! before.
//!
//! [`CsrMatrix::linbp_step_fused_frontier_with`] collapses all of that
//! into one row-partitioned pass: per output row, the SpMM gather, the
//! `·Ĥ` apply, the explicit-belief add, the echo subtraction, damping,
//! and the per-query max-abs residual all happen while the row is
//! resident in L1.
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
//! **Which kernel runs.** `CsrMatrix::fused_rows_dispatch` picks by
//! class count `k` and observed width `k·q`:
//!
//! * `k ∈ {2, 3, 4}`, `q = 1` — `fused_rows_k::<K>`: the whole row in
//!   `[f64; K]` registers (every single-query solve), with the
//!   early-exit row test.
//! * `k ∈ {2, 3, 4}`, `q ≥ 2` — `fused_rows_kq::<K>`, the masked stacked
//!   kernel: per row it computes only the query blocks the frontier
//!   selects. When that is every query, one element-wise gather over
//!   the `k·q` row into a stack buffer (up to 128 columns); otherwise a
//!   per-block gather into `K` registers. Each selected block is then
//!   finished with the `q = 1` kernel's register arithmetic, and
//!   unselected blocks are never written (every coalesced solve and
//!   every cache patch the server runs).
//! * any other `k` — the generic `fused_rows`, `axpy4` loops with
//!   run-time bounds, finishing only the selected blocks.
//!
//! There is one step, the frontier step, and every kernel takes its
//! `FrontierTask`: besides the update and the residual, each computed
//! pair records its changed bit and folds `max |new|` per query — the
//! divergence guard's read-out — in the same pass. A step that must
//! compute every pair (the trait's
//! [`crate::PropagationOperator::linbp_step_fused_with`]) runs it from
//! an all-changed [`crate::FrontierState::new`] with every query live.
//!
//! The frontier step selects pairs one of two ways per sweep, both
//! giving the same pairs (see [`crate::frontier`]). **Push**, on a
//! symmetric pattern when the changed rows' degrees sum to at most `n`:
//! a serial pass marks the changed rows' dependents before the kernels
//! run, and the kernels read one field per row
//! (`FrontierTask::row_active` / `FrontierTask::row_mask`) and skip
//! every block without an active bit. **Pull**, otherwise and on every
//! shard-walking backend: each row of a block the plan marks active
//! scans its neighbours' changed fields.
//!
//! The L2 tolerance norm is *not* fused: summing per-row-block partials
//! would make the total depend on the partition, i.e. the thread count.
//! L2 callers run the existing fixed-order `l2_diff` pass after the step.

use crate::csr::{CsrMatrix, SCRATCH_WIDTH};
use crate::frontier::{set_bits, FrontierPlan, FrontierStep, FrontierTask, NodeBitset, RowTest};
use lsbp_linalg::simd::axpy4;
use lsbp_linalg::{weight_balanced_ranges, Mat, ParallelismConfig};
use std::ops::Range;

/// The per-iteration constants of the LinBP update (Eq. 6/7), borrowed by
/// every backend's fused step
/// ([`crate::PropagationOperator::linbp_step_fused_frontier_with`]).
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
/// [`CsrMatrix::linbp_step_fused_frontier_with`] and the sharded backend
/// so both reject malformed inputs with identical messages.
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
    /// per-row tail of [`CsrMatrix::fused_rows_k`]. Writes `out`, folds
    /// the block's residual into `dmax` and its `|new|` into `mmax`;
    /// returns whether any bit changed.
    #[allow(clippy::too_many_arguments)] // one slot per fused-step term
    #[inline(always)]
    fn finish(
        &self,
        ab: &[f64; K],
        b_blk: &[f64; K],
        e_blk: &[f64; K],
        d: f64,
        out: &mut [f64; K],
        dmax: &mut f64,
        mmax: &mut f64,
    ) -> bool {
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
        let mut changed = false;
        for j in 0..K {
            let mut x = o[j] + e_blk[j];
            if self.echo_on {
                x -= echo[j];
            }
            if lambda > 0.0 {
                x = (1.0 - lambda) * x + lambda * b_blk[j];
            }
            out[j] = x;
            *dmax = dmax.max((x - b_blk[j]).abs());
            *mmax = mmax.max(x.abs());
            changed |= x.to_bits() != b_blk[j].to_bits();
        }
        changed
    }
}

/// Max-merges one task's per-query partial into `acc` (residuals or
/// magnitudes). `max` is order-independent, so any partition of the rows
/// (thread tasks, shards, or both) accumulates the exact serial result.
fn merge_max(acc: &mut [f64], partial: &[f64]) {
    for (d, &p) in acc.iter_mut().zip(partial) {
        *d = d.max(p);
    }
}

impl CsrMatrix {
    /// Applies one fused LinBP update `out = Ê + A·B·Ĥ [− D·B·Ĥ²]`
    /// (damped) in a single row-partitioned pass (see the module docs),
    /// for the (row, query) pairs of live queries whose inputs changed
    /// since the last committed sweep (see [`crate::frontier`]), and
    /// accumulates each query's max-abs belief change into `deltas`.
    /// `B` holds `q = B.cols() / Ĥ.rows()` queries side by side. Every
    /// other block of `out` is left unwritten; each computed pair's
    /// changed bit and count go into `fr`, and `max |new|` per query into
    /// `fr.magnitudes`. On the live queries `out` and `deltas` are
    /// bitwise identical to recomputing every pair. The caller owns the
    /// sweep protocol: [`crate::FrontierState::begin`] before the step,
    /// [`crate::FrontierState::commit`] after it.
    ///
    /// A sparse sweep on a symmetric pattern pushes: one serial pass
    /// marks the dependents of the changed rows, and the kernels read one
    /// field per row instead of scanning every neighbour's (see
    /// [`crate::frontier`]). The computed pairs are the same either way.
    ///
    /// # Panics
    /// Panics on any dimension mismatch (square adjacency of size
    /// `B.rows()`, square `Ĥ` dividing `B.cols()`, `out`/`e_hat` shaped
    /// like `B`, `degrees` of length `n`, `deltas` of length `q`).
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
        let pushed = fr.push_from(self);
        self.fused_block_frontier_with(b, step, 0, out.as_mut_slice(), deltas, k, fr, pushed, cfg);
    }

    /// The partitioned body of the fused step over *this matrix's* rows,
    /// writing the flat row-major `block` (exactly `n_rows · b.cols()`
    /// slots) and max-accumulating per-query residuals into `deltas` (NOT
    /// zeroed here — the caller owns the across-call accumulation).
    /// `base` is the global-row offset (see
    /// [`CsrMatrix::fused_rows_dispatch`]): 0 for the monolithic path,
    /// the shard's first global row for the sharded backend, which calls
    /// this once per shard as its own persistent-pool region.
    ///
    /// Only the pairs [`FrontierTask`] selects are computed — from the
    /// pushed active set when `pushed` (see [`FrontierStep::push_from`]),
    /// else by the pull scan. Whole inactive row blocks are rejected
    /// without touching their nnz. Parallel tasks record into task-local
    /// bitsets, counts and magnitudes that are merged with
    /// order-independent OR, sums and maxima, so the merged outputs equal
    /// the serial ones.
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
        pushed: bool,
        cfg: &ParallelismConfig,
    ) {
        let n = self.n_rows();
        let kt = b.cols();
        if n == 0 || fr.live.iter().all(|&w| w == 0) {
            return;
        }
        let (plan, live, q) = (fr.plan, fr.live, fr.q);
        let test = if pushed {
            RowTest::Push {
                active: &fr.push.active,
                blocks: &fr.push.blocks,
            }
        } else {
            RowTest::Pull {
                changed: fr.changed,
                summary: fr.summary,
            }
        };
        let parts = cfg.partitions((self.nnz() + n) * kt);
        if parts <= 1 {
            let mut task = FrontierTask {
                test,
                live,
                q,
                k,
                bits: &mut *fr.next_changed,
                active: &mut *fr.active,
            };
            self.fused_rows_frontier(
                b,
                step,
                0..n,
                base,
                block,
                deltas,
                fr.magnitudes,
                k,
                plan,
                &mut task,
            );
            return;
        }
        let ranges = weight_balanced_ranges(self.row_offsets(), parts);
        // Task-local outputs, merged after the scope: residual and
        // magnitude maxima, changed bits in the *global* (row, query)
        // frame, and per-query computed-pair counts.
        let mut partials: Vec<_> = (0..ranges.len())
            .map(|_| {
                (
                    vec![0.0; q],
                    vec![0.0; q],
                    NodeBitset::new(fr.changed.len()),
                    vec![0; q],
                )
            })
            .collect();
        let mut rest: &mut [f64] = block;
        cfg.pool().scope(|s| {
            for (range, (d, mags, bits, active)) in ranges.iter().cloned().zip(partials.iter_mut())
            {
                let (chunk, tail) = rest.split_at_mut((range.end - range.start) * kt);
                rest = tail;
                s.spawn(move || {
                    let mut task = FrontierTask {
                        test,
                        live,
                        q,
                        k,
                        bits,
                        active,
                    };
                    self.fused_rows_frontier(
                        b, step, range, base, chunk, d, mags, k, plan, &mut task,
                    );
                });
            }
        });
        for (range, (d, mags, bits, active)) in ranges.iter().zip(&partials) {
            merge_max(deltas, d);
            merge_max(fr.magnitudes, mags);
            let words = (base + range.start) * q / 64..((base + range.end) * q).div_ceil(64);
            fr.next_changed.or_assign_words(bits, words);
            for (a, &t) in fr.active.iter_mut().zip(active) {
                *a += t;
            }
        }
    }

    /// Walks the task's row range in plan-block-aligned subranges: an
    /// inactive block (by pull, no dependency on any changed block; by
    /// push, no active bit) is skipped wholesale — its nnz is never
    /// touched — while each active block goes through
    /// [`CsrMatrix::fused_rows_dispatch`], whose kernel tests every row
    /// and computes only its selected query blocks. `rows`
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
        mags: &mut [f64],
        k: usize,
        plan: &FrontierPlan,
        task: &mut FrontierTask<'_>,
    ) {
        let kt = b.cols();
        let bs = plan.block_rows();
        let mut r = rows.start;
        while r < rows.end {
            let blk = (base + r) / bs;
            let end = rows.end.min((blk + 1) * bs - base);
            let chunk = &mut block[(r - rows.start) * kt..(end - rows.start) * kt];
            if task.test.block_active(plan, blk) {
                self.fused_rows_dispatch(b, step, r..end, base, chunk, deltas, mags, k, task);
            } else {
                #[cfg(debug_assertions)]
                for (rr, out_row) in (r..end).zip(chunk.chunks_exact(kt)) {
                    task.debug_assert_skip_invariant(base + rr, out_row, b.row(base + rr), None);
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
    /// fused step on kronecker_m9, k = 3). `task` picks the (row, query)
    /// pairs computed and records them; `mags` takes their `max |new|`.
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
        mags: &mut [f64],
        k: usize,
        task: &mut FrontierTask<'_>,
    ) {
        let single = b.cols() == k;
        let acc = (deltas, mags);
        match (k, single) {
            (2, true) => self.fused_rows_k::<2>(b, step, rows, base, block, acc, task),
            (3, true) => self.fused_rows_k::<3>(b, step, rows, base, block, acc, task),
            (4, true) => self.fused_rows_k::<4>(b, step, rows, base, block, acc, task),
            (2, false) => self.fused_rows_kq::<2>(b, step, rows, base, block, acc, task),
            (3, false) => self.fused_rows_kq::<3>(b, step, rows, base, block, acc, task),
            (4, false) => self.fused_rows_kq::<4>(b, step, rows, base, block, acc, task),
            _ => self.fused_rows(b, step, rows, base, block, acc, k, task),
        }
    }

    /// Width-specialized single-query fused kernel: every per-row
    /// intermediate is a `[f64; K]` register array and the inner loops
    /// unroll at compile time. Accumulation orders (entry-order gather,
    /// zero-skipping `·Ĥ` apply, `(o + ê) − echo`, damping blend, max
    /// residual) are element-for-element those of [`CsrMatrix::fused_rows`].
    /// The per-row tail stays inline rather than calling
    /// [`BlockCouplings::finish`]: the shared helper measured about 4%
    /// slower on this path, which every lone query runs. The row test is
    /// the early-exit [`FrontierTask::row_active`].
    #[allow(clippy::too_many_arguments)] // one slot per fused-step term
    fn fused_rows_k<const K: usize>(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        rows: Range<usize>,
        base: usize,
        block: &mut [f64],
        (deltas, mags): (&mut [f64], &mut [f64]),
        task: &mut FrontierTask<'_>,
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
        let mut mmax = 0.0f64;
        let mut computed = 0u64;
        for r in rows.clone() {
            let g = base + r;
            let out = (r - rows.start) * K..(r - rows.start + 1) * K;
            if !task.row_active(self, r, g) {
                #[cfg(debug_assertions)]
                task.debug_assert_skip_invariant(g, &block[out], b.row(g), None);
                continue;
            }
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
            let b_row = b.row(g);
            let mut echo = [0.0f64; K];
            if echo_on {
                let d = step.degrees[g];
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
            let e_row = step.e_hat.row(g);
            let o_out = &mut block[out];
            let mut changed = false;
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
                mmax = mmax.max(x.abs());
                changed |= x.to_bits() != b_row[j].to_bits();
            }
            task.record(g, 0, changed);
            computed += 1;
        }
        task.count(0, computed);
        deltas[0] = deltas[0].max(dmax);
        mags[0] = mags[0].max(mmax);
    }

    /// Width-specialized stacked fused kernel for `q ≥ 2` queries of `K`
    /// classes. Per row, `task` names the query blocks to compute. When
    /// that is every query, the gather is one element-wise
    /// `ab[c] += v·B(c', c)` loop over the whole `K·q` row (the `axpy4`
    /// order per element, one pass over each gathered row for all
    /// queries). Otherwise each active block gathers on its own into `K`
    /// registers, walking the row's entries in the same CSR order, so a
    /// pair costs what it costs the `q = 1` kernel. Each active block is
    /// then finished by [`BlockCouplings::finish`], the single-query
    /// kernel's row tail; inactive blocks are never written. `ab` lives
    /// on the stack up to [`STACKED_WIDTH`] columns.
    #[allow(clippy::too_many_arguments)] // one slot per fused-step term
    fn fused_rows_kq<const K: usize>(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        rows: Range<usize>,
        base: usize,
        block: &mut [f64],
        (deltas, mags): (&mut [f64], &mut [f64]),
        task: &mut FrontierTask<'_>,
    ) {
        let kt = b.cols();
        let q = kt / K;
        let cpl = BlockCouplings::<K>::stage(step);
        let mut stack = [0.0f64; STACKED_WIDTH];
        let mut heap = Vec::new();
        let ab: &mut [f64] = if kt <= STACKED_WIDTH {
            &mut stack[..kt]
        } else {
            heap.resize(kt, 0.0);
            &mut heap
        };
        let mut mask = vec![0u64; q.div_ceil(64)];
        for r in rows.clone() {
            let g = base + r;
            let out = (r - rows.start) * kt..(r - rows.start + 1) * kt;
            if !task.row_mask(self, r, g, &mut mask) {
                #[cfg(debug_assertions)]
                task.debug_assert_skip_invariant(g, &block[out], b.row(g), None);
                continue;
            }
            let o_row = &mut block[out];
            let (cols, vals) = (self.row_cols(r), self.row_values(r));
            let d = step.degrees[g];
            let (b_blocks, _) = b.row(g).as_chunks::<K>();
            let (e_blocks, _) = step.e_hat.row(g).as_chunks::<K>();
            let (o_blocks, _) = o_row.as_chunks_mut::<K>();
            let mut finish = |j: usize, a: &[f64; K], task: &mut FrontierTask<'_>| {
                let changed = cpl.finish(
                    a,
                    &b_blocks[j],
                    &e_blocks[j],
                    d,
                    &mut o_blocks[j],
                    &mut deltas[j],
                    &mut mags[j],
                );
                task.record(g, j, changed);
                task.count(j, 1);
            };
            if mask.iter().map(|w| w.count_ones() as usize).sum::<usize>() == q {
                ab.iter_mut().for_each(|x| *x = 0.0);
                for (&c, &v) in cols.iter().zip(vals) {
                    for (a, &x) in ab.iter_mut().zip(b.row(c as usize)) {
                        *a += v * x;
                    }
                }
                let (ab_blocks, _) = ab.as_chunks::<K>();
                for (j, a) in ab_blocks.iter().enumerate() {
                    finish(j, a, task);
                }
            } else {
                for j in set_bits(&mask) {
                    let mut a = [0.0f64; K];
                    for (&c, &v) in cols.iter().zip(vals) {
                        let x = &b.row(c as usize)[j * K..(j + 1) * K];
                        for t in 0..K {
                            a[t] += v * x[t];
                        }
                    }
                    finish(j, &a, task);
                }
            }
            #[cfg(debug_assertions)]
            task.debug_assert_skip_invariant(g, o_row, b.row(g), Some(&mask));
        }
    }

    /// The generic fused kernel for any `k` and `q` over the row block
    /// `rows`, writing into `block` (the flat row-major storage of
    /// exactly those output rows) and max-accumulating per-query
    /// residuals into `deltas`. The gather always runs over the whole
    /// `k·q` row; only the query blocks `task` picks are finished and
    /// written.
    #[allow(clippy::too_many_arguments)] // one slot per fused-step term
    fn fused_rows(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        rows: Range<usize>,
        base: usize,
        block: &mut [f64],
        (deltas, mags): (&mut [f64], &mut [f64]),
        k: usize,
        task: &mut FrontierTask<'_>,
    ) {
        let kt = b.cols();
        let q = kt / k;
        // Task-local intermediates (see [`FusedScratch`]): stack arrays
        // for every realistic width, one allocation per row-block task
        // beyond SCRATCH_WIDTH.
        let mut scratch = FusedScratch::new(kt);
        let (ab, echo) = scratch.ab_echo();
        let mut mask = vec![0u64; q.div_ceil(64)];
        for r in rows.clone() {
            let g = base + r;
            let o = &mut block[(r - rows.start) * kt..(r - rows.start + 1) * kt];
            let b_row = b.row(g);
            if !task.row_mask(self, r, g, &mut mask) {
                #[cfg(debug_assertions)]
                task.debug_assert_skip_invariant(g, o, b_row, None);
                continue;
            }
            // ab = A(r,·)·B — the exact `spmm_rows` gather-axpy order.
            ab.iter_mut().for_each(|x| *x = 0.0);
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_values(r)) {
                axpy4(v, b.row(c as usize), ab);
            }
            let e_row = step.e_hat.row(g);
            let d = step.degrees[g];
            let lambda = step.damping;
            for blk in set_bits(&mask) {
                let cols = blk * k..(blk + 1) * k;
                // o = ab·Ĥ — the zero-skipping `matmul_rows` order,
                // applied to this k-block (columns never mix across
                // queries).
                let o_blk = &mut o[cols.clone()];
                o_blk.iter_mut().for_each(|x| *x = 0.0);
                for (j, &a) in ab[cols.clone()].iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    axpy4(a, step.h.row(j), o_blk);
                }
                // Echo term: (d_r·B(r,·))·Ĥ², the scaled entries computed
                // inline (same values and zero skip as the unfused
                // `scaled_rows_into` + block-diagonal matmul composition).
                let e_blk = &mut echo[cols.clone()];
                if let Some(h2) = step.h2 {
                    e_blk.iter_mut().for_each(|x| *x = 0.0);
                    for (j, &x) in b_row[cols.clone()].iter().enumerate() {
                        let a = d * x;
                        if a == 0.0 {
                            continue;
                        }
                        axpy4(a, h2.row(j), e_blk);
                    }
                }
                // Combine `(o + ê) − echo`, damp, and accumulate the
                // residual in one pass — the element order of the
                // unfused add/sub/blend/max passes.
                let mut changed = false;
                for j in cols {
                    let mut x = o[j] + e_row[j];
                    if step.h2.is_some() {
                        x -= echo[j];
                    }
                    if lambda > 0.0 {
                        x = (1.0 - lambda) * x + lambda * b_row[j];
                    }
                    o[j] = x;
                    deltas[blk] = deltas[blk].max((x - b_row[j]).abs());
                    mags[blk] = mags[blk].max(x.abs());
                    changed |= x.to_bits() != b_row[j].to_bits();
                }
                task.record(g, blk, changed);
                task.count(blk, 1);
            }
            #[cfg(debug_assertions)]
            task.debug_assert_skip_invariant(g, o, b_row, Some(&mask));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::operator::PropagationOperator;

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
