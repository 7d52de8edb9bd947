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
//! and the max-abs residual all happen while the row is resident in L1.
//! The belief matrix `B̂` is read once and the output written once; every
//! intermediate lives in registers or a `k`-length task-local buffer.
//!
//! ```text
//!   row r:  A(r,·) ──element-wise gather──▶ ab = Σ_c A(r,c)·B̂(c,·)
//!           ab ──·Ĥ──▶ out(r,·)
//!           out(r,·) += Ê(r,·)
//!           out(r,·) −= (d_r·B̂(r,·))·Ĥ²     (echo cancellation)
//!           out(r,·) = (1−λ)·out(r,·) + λ·B̂(r,·)   (damping)
//!           Δ = max(Δ, max|out(r,·) − B̂(r,·)|)
//! ```
//!
//! **Bitwise contract.** Every sub-step reproduces the accumulation order
//! of the unfused kernels it replaces (`spmm_rows`' gather-axpy order,
//! `matmul_rows`' zero-skipping `·Ĥ` order, element-wise add/sub/damp,
//! order-independent max), so the fused step is *bitwise identical* to
//! the unfused composition — and, since row blocks write disjoint output
//! and the residual reduction is a max, bitwise identical across thread
//! counts.
//!
//! **Per-query buffers.** A batch of `q` queries is `q` solo solves run
//! in lockstep: each live query brings its own `n × k` `Ê`, `B` and
//! output buffer and its own [`crate::FrontierState`] in a
//! [`QuerySweep`]. One step is one pool scope: each row-range task (on
//! a shard-walking backend, each task of the pinned shard) loops over
//! the live queries and runs the single-query kernel on that query's
//! buffers, so a shard is loaded once per sweep however many queries
//! read it. Nothing is stacked or split, a query's answer is its own
//! buffer, and a frozen query is simply left out of the sweep.
//!
//! **Which kernel runs.** `CsrMatrix::fused_rows_dispatch` picks by
//! class count `k`:
//!
//! * `k ∈ {2, 3, 4}` — `fused_rows_k::<K>`: the whole row in `[f64; K]`
//!   registers, with the early-exit row test.
//! * any other `k` — the generic `fused_rows`, `axpy4` loops with
//!   run-time bounds.
//!
//! There is one step, the frontier step: besides the update and the
//! residual, each computed row records its changed bit and folds
//! `max |new|` — the divergence guard's read-out — in the same pass. A
//! step that must compute every row (the trait's
//! [`crate::PropagationOperator::linbp_step_fused_with`]) runs it from
//! an all-changed [`crate::FrontierState::new`].
//!
//! The frontier step selects a query's rows one of two ways per sweep,
//! both giving the same rows (see [`crate::frontier`]), and each query
//! chooses for itself. **Push**, on a symmetric pattern when the query's
//! changed rows have degrees summing to at most `n`: a serial pass marks
//! the changed rows' dependents before the kernels run, and the kernels
//! read one bit per row and skip every block without an active bit.
//! **Pull**, otherwise and on every shard-walking backend: each row of a
//! block the plan marks active tests its neighbours' changed bits.
//!
//! The L2 tolerance norm is *not* fused: summing per-row-block partials
//! would make the total depend on the partition, i.e. the thread count.
//! L2 callers run the existing fixed-order `l2_diff` pass after the step.

use crate::csr::CsrMatrix;
#[cfg(debug_assertions)]
use crate::frontier::debug_assert_skip_invariant;
use crate::frontier::{FrontierPlan, FrontierState, FrontierTask, NodeBitset, RowTest};
use lsbp_linalg::simd::axpy4;
use lsbp_linalg::{weight_balanced_ranges, Mat, ParallelismConfig};
use std::ops::Range;

/// The per-iteration constants of the LinBP update (Eq. 6/7), borrowed by
/// every backend's fused step
/// ([`crate::PropagationOperator::linbp_step_fused_frontier_with`]).
#[derive(Clone, Copy, Debug)]
pub struct FusedLinBpStep<'a> {
    /// Explicit residual beliefs `Ê`: `n × k` for one query, `n × k·q`
    /// for the `q` side-by-side queries of
    /// [`crate::PropagationOperator::linbp_step_fused_with`].
    pub e_hat: &'a Mat,
    /// Scaled residual coupling `Ĥ` (`k × k`).
    pub h: &'a Mat,
    /// `Ĥ²` for the echo-cancellation term; `None` runs LinBP\* (Eq. 7).
    pub h2: Option<&'a Mat>,
    /// Squared-weight degrees `d_s = Σ_t w(s,t)²` (ignored without `h2`,
    /// but must still have length `n`).
    pub degrees: &'a [f64],
    /// Update damping `λ ∈ [0, 1)`; 0.0 is the paper's plain update.
    pub damping: f64,
}

/// One live query's share of a fused LinBP sweep: its update terms, its
/// own `n × k` belief buffers and its frontier. The step writes only the
/// rows it computes into `out`, records them in `frontier` (the caller
/// then [`FrontierState::commit`]s it) and leaves the query's max-abs
/// belief change in `delta`.
pub struct QuerySweep<'a, 'p> {
    /// The update terms, `Ê` being this query's (`n × k`).
    pub step: FusedLinBpStep<'a>,
    /// The current beliefs `B` (`n × k`).
    pub b: &'a Mat,
    /// The output buffer (`n × k`), the other half of the query's double
    /// buffer.
    pub out: &'a mut Mat,
    /// The query's frontier, built on the operator's plan.
    pub frontier: &'a mut FrontierState<'p>,
    /// Output: the max-abs belief change of the sweep.
    pub delta: f64,
}

/// Validates the shapes of one fused LinBP step against an `n × n`
/// adjacency operator and returns `(k, q)`: `B`, `out` and `Ê` hold `q`
/// queries side by side.
pub(crate) fn validate_fused_step(
    n_rows: usize,
    n_cols: usize,
    b: &Mat,
    step: &FusedLinBpStep<'_>,
    out: &Mat,
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
    (k, kt / k)
}

/// Runs one sweep over `queries` against an `n_rows × n_cols` operator:
/// validates every query's shapes, starts its frontier sweep, hands
/// `body` one [`Lane`] per query, then gives each query its merged
/// delta and read-outs. `push_from` is the whole operator when a query
/// may push (see [`crate::frontier`]), `None` on the shard walks.
pub(crate) fn run_sweeps(
    n_rows: usize,
    n_cols: usize,
    queries: &mut [QuerySweep<'_, '_>],
    push_from: Option<&CsrMatrix>,
    body: impl FnOnce(&mut [Lane<'_>]),
) {
    for q in queries.iter_mut() {
        let (_, width) = validate_fused_step(n_rows, n_cols, q.b, &q.step, q.out);
        assert_eq!(
            width, 1,
            "fused LinBP step: a query's B must have k columns"
        );
        assert_eq!(
            q.frontier.plan().n_rows(),
            n_rows,
            "fused LinBP step: frontier rows"
        );
        q.frontier.begin();
    }
    let mut lanes: Vec<Lane<'_>> = queries
        .iter_mut()
        .map(|q| Lane {
            step: q.step,
            b: q.b,
            out: q.out.as_mut_slice(),
            task: q.frontier.sweep_parts(push_from),
        })
        .collect();
    body(&mut lanes);
    let reads: Vec<(f64, u64, f64)> = lanes
        .into_iter()
        .map(|l| (l.task.delta, l.task.active, l.task.magnitude))
        .collect();
    for (q, (delta, active, magnitude)) in queries.iter_mut().zip(reads) {
        q.delta = delta;
        q.frontier.record_sweep(active, magnitude);
    }
}

/// The union of the queries' block summaries: block `i` holds a row some
/// query changed in its last committed sweep.
pub(crate) fn union_summary(plan: &FrontierPlan, queries: &[QuerySweep<'_, '_>]) -> NodeBitset {
    let mut summary = NodeBitset::new(plan.n_blocks());
    for q in queries {
        let blocks = q.frontier.summary();
        summary.or_assign_words(blocks, 0..blocks.words().len());
    }
    summary
}

/// One query's kernel-facing view of a sweep: its update terms and
/// beliefs, its whole flat output buffer, and its frontier task, whose
/// read-outs accumulate across row ranges and shards.
pub(crate) struct Lane<'a> {
    step: FusedLinBpStep<'a>,
    b: &'a Mat,
    out: &'a mut [f64],
    task: FrontierTask<'a>,
}

/// One task's partial read-outs for one query: changed bits in the
/// global row frame, computed rows, max residual and magnitude.
struct Partial {
    bits: NodeBitset,
    active: u64,
    delta: f64,
    magnitude: f64,
}

/// Widest class count `k` whose fused-kernel scratch fits on the stack:
/// per-task intermediate buffers below this use fixed arrays, so solver
/// iterations allocate nothing. More classes fall back to one `Vec` per
/// row-block task.
const SCRATCH_WIDTH: usize = 64;

/// The task-local `k` intermediates of the generic fused kernel — the
/// whole point of the fusion is that these stay in L1 instead of being
/// `n × k` matrices. For every realistic `k` they are stack arrays (no
/// per-iteration heap traffic); only `k > SCRATCH_WIDTH` falls back to
/// one allocation per task.
struct FusedScratch {
    stack: [f64; 2 * SCRATCH_WIDTH],
    heap: Vec<f64>,
    k: usize,
}

impl FusedScratch {
    fn new(k: usize) -> Self {
        Self {
            stack: [0.0; 2 * SCRATCH_WIDTH],
            heap: if k > SCRATCH_WIDTH {
                vec![0.0; 2 * k]
            } else {
                Vec::new()
            },
            k,
        }
    }

    /// The `(ab, echo)` buffer pair, each `k` long.
    fn ab_echo(&mut self) -> (&mut [f64], &mut [f64]) {
        let buf: &mut [f64] = if self.k <= SCRATCH_WIDTH {
            &mut self.stack[..2 * self.k]
        } else {
            &mut self.heap
        };
        buf.split_at_mut(self.k)
    }
}

impl CsrMatrix {
    /// Applies one fused LinBP update `out = Ê + A·B·Ĥ [− D·B·Ĥ²]`
    /// (damped) in a single row-partitioned pass (see the module docs)
    /// to every query of `queries`, each on its own buffers, for the
    /// rows whose inputs changed since the query's last committed sweep
    /// (see [`crate::frontier`]), and leaves each query's max-abs belief
    /// change in its `delta`. Every other row of a query's `out` is left
    /// unwritten; each computed row's changed bit and count, and
    /// `max |new|`, go into the query's frontier. `out` and `delta` are
    /// bitwise identical to recomputing every row. The caller commits
    /// each query's frontier after the step.
    ///
    /// A query whose sweep is sparse on a symmetric pattern pushes: one
    /// serial pass marks the dependents of its changed rows, and the
    /// kernels read one bit per row instead of scanning every
    /// neighbour's (see [`crate::frontier`]). The computed rows are the
    /// same either way.
    ///
    /// # Panics
    /// Panics on any dimension mismatch (square adjacency of size
    /// `B.rows()`, square `Ĥ` of size `B.cols()`, `out`/`Ê` shaped like
    /// `B`, `degrees` of length `n`, a frontier over `n` rows).
    pub fn linbp_step_fused_frontier_with(
        &self,
        queries: &mut [QuerySweep<'_, '_>],
        cfg: &ParallelismConfig,
    ) {
        let plan = crate::PropagationOperator::frontier_plan(self);
        run_sweeps(self.n_rows(), self.n_cols(), queries, Some(self), |lanes| {
            self.fused_block_frontier_with(0, plan, lanes, cfg)
        });
    }

    /// The partitioned body of the fused step over *this matrix's* rows
    /// for every lane, writing each lane's output rows `base..base +
    /// n_rows` and max-accumulating its residual and magnitude (NOT
    /// zeroed here — the caller owns the across-call accumulation).
    /// `base` is the global-row offset (see
    /// [`CsrMatrix::fused_rows_dispatch`]): 0 for the monolithic path,
    /// the shard's first global row for the shard walk, which calls this
    /// once per shard.
    ///
    /// One pool scope: each row-range task runs every lane in turn. Only
    /// the rows each lane's [`FrontierTask`] selects are computed; whole
    /// inactive row blocks are rejected without touching their nnz.
    /// Parallel tasks record into task-local bitsets, counts and maxima
    /// that are merged with order-independent OR, sums and maxima, so the
    /// merged outputs equal the serial ones.
    pub(crate) fn fused_block_frontier_with(
        &self,
        base: usize,
        plan: &FrontierPlan,
        lanes: &mut [Lane<'_>],
        cfg: &ParallelismConfig,
    ) {
        let n = self.n_rows();
        if n == 0 || lanes.is_empty() {
            return;
        }
        let width: usize = lanes.iter().map(|l| l.b.cols()).sum();
        let parts = cfg.partitions((self.nnz() + n) * width);
        if parts <= 1 {
            for lane in lanes.iter_mut() {
                let k = lane.b.cols();
                let block = &mut lane.out[base * k..(base + n) * k];
                self.fused_rows_frontier(
                    lane.b,
                    &lane.step,
                    0..n,
                    base,
                    block,
                    plan,
                    &mut lane.task,
                );
            }
            return;
        }
        let ranges = weight_balanced_ranges(self.row_offsets(), parts);
        let inputs: Vec<(FusedLinBpStep<'_>, &Mat, RowTest<'_>)> =
            lanes.iter().map(|l| (l.step, l.b, l.task.test)).collect();
        let bits = plan.n_rows();
        // Per task, one output chunk and one partial per lane.
        let mut chunks: Vec<Vec<&mut [f64]>> = ranges.iter().map(|_| Vec::new()).collect();
        for lane in lanes.iter_mut() {
            let k = lane.b.cols();
            let mut rest = &mut lane.out[base * k..(base + n) * k];
            for (range, task_chunks) in ranges.iter().zip(chunks.iter_mut()) {
                let (chunk, tail) = rest.split_at_mut((range.end - range.start) * k);
                rest = tail;
                task_chunks.push(chunk);
            }
        }
        let mut partials: Vec<Vec<Partial>> = ranges
            .iter()
            .map(|_| {
                inputs
                    .iter()
                    .map(|_| Partial {
                        bits: NodeBitset::new(bits),
                        active: 0,
                        delta: 0.0,
                        magnitude: 0.0,
                    })
                    .collect()
            })
            .collect();
        let inputs = &inputs;
        cfg.pool().scope(|s| {
            for ((range, task_chunks), task_partials) in
                ranges.iter().cloned().zip(chunks).zip(partials.iter_mut())
            {
                s.spawn(move || {
                    for (((step, b, test), chunk), p) in
                        inputs.iter().zip(task_chunks).zip(task_partials.iter_mut())
                    {
                        let mut task = FrontierTask::new(*test, &mut p.bits);
                        self.fused_rows_frontier(
                            b,
                            step,
                            range.clone(),
                            base,
                            chunk,
                            plan,
                            &mut task,
                        );
                        (p.active, p.delta, p.magnitude) =
                            (task.active, task.delta, task.magnitude);
                    }
                });
            }
        });
        for (range, task_partials) in ranges.iter().zip(&partials) {
            let words = (base + range.start) / 64..(base + range.end).div_ceil(64);
            for (lane, p) in lanes.iter_mut().zip(task_partials) {
                let task = &mut lane.task;
                task.bits.or_assign_words(&p.bits, words.clone());
                task.active += p.active;
                task.delta = task.delta.max(p.delta);
                task.magnitude = task.magnitude.max(p.magnitude);
            }
        }
    }

    /// Walks the task's row range in plan-block-aligned subranges: an
    /// inactive block (by pull, no dependency on any changed block; by
    /// push, no active bit) is skipped wholesale — its nnz is never
    /// touched — while each active block goes through
    /// [`CsrMatrix::fused_rows_dispatch`], whose kernel tests every row.
    /// `rows` indexes this matrix's rows; blocks live in the global frame
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
        plan: &FrontierPlan,
        task: &mut FrontierTask<'_>,
    ) {
        let k = b.cols();
        let bs = plan.block_rows();
        let mut r = rows.start;
        while r < rows.end {
            let blk = (base + r) / bs;
            let end = rows.end.min((blk + 1) * bs - base);
            let chunk = &mut block[(r - rows.start) * k..(end - rows.start) * k];
            if task.test.block_active(plan, blk) {
                self.fused_rows_dispatch(b, step, r..end, base, chunk, task);
            } else {
                #[cfg(debug_assertions)]
                for (rr, out_row) in (r..end).zip(chunk.chunks_exact(k)) {
                    debug_assert_skip_invariant(base + rr, out_row, b.row(base + rr));
                }
            }
            r = end;
        }
    }

    /// Routes a row block to the kernel for its class count `k`:
    /// [`CsrMatrix::fused_rows_k`] for `k ∈ {2, 3, 4}`, the generic
    /// [`CsrMatrix::fused_rows`] otherwise. Both compute the identical
    /// arithmetic in the identical order — the specialization only turns
    /// the tiny per-row loops into fully unrolled register code
    /// (property-tested bitwise equal). `task` picks the rows computed
    /// and records them.
    ///
    /// `rows` indexes *this matrix's* rows; `base` is the global-row
    /// offset of row 0 into `b`/`Ê`/`degrees`' coordinate frame. The
    /// monolithic path passes `base = 0` (its rows *are* global); the
    /// shard walk passes each shard's first global row, running the
    /// identical kernel on the shard-local block.
    fn fused_rows_dispatch(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        rows: Range<usize>,
        base: usize,
        block: &mut [f64],
        task: &mut FrontierTask<'_>,
    ) {
        match b.cols() {
            2 => self.fused_rows_k::<2>(b, step, rows, base, block, task),
            3 => self.fused_rows_k::<3>(b, step, rows, base, block, task),
            4 => self.fused_rows_k::<4>(b, step, rows, base, block, task),
            _ => self.fused_rows(b, step, rows, base, block, task),
        }
    }

    /// Width-specialized fused kernel: every per-row intermediate is a
    /// `[f64; K]` register array and the inner loops unroll at compile
    /// time. Accumulation orders (entry-order gather, zero-skipping `·Ĥ`
    /// apply, `(o + ê) − echo`, damping blend, max residual) are
    /// element-for-element those of [`CsrMatrix::fused_rows`]. The row
    /// test is the early-exit [`RowTest::row_active`].
    fn fused_rows_k<const K: usize>(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        rows: Range<usize>,
        base: usize,
        block: &mut [f64],
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
            if !task.test.row_active(self, r, g) {
                #[cfg(debug_assertions)]
                debug_assert_skip_invariant(g, &block[out], b.row(g));
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
            if changed {
                task.bits.set(g);
            }
            computed += 1;
        }
        task.active += computed;
        task.delta = task.delta.max(dmax);
        task.magnitude = task.magnitude.max(mmax);
    }

    /// The generic fused kernel for any `k` over the row block `rows`,
    /// writing into `block` (the flat row-major storage of exactly those
    /// output rows).
    fn fused_rows(
        &self,
        b: &Mat,
        step: &FusedLinBpStep<'_>,
        rows: Range<usize>,
        base: usize,
        block: &mut [f64],
        task: &mut FrontierTask<'_>,
    ) {
        let k = b.cols();
        // Task-local intermediates (see [`FusedScratch`]): stack arrays
        // for every realistic `k`, one allocation per row-block task
        // beyond SCRATCH_WIDTH.
        let mut scratch = FusedScratch::new(k);
        let (ab, echo) = scratch.ab_echo();
        let lambda = step.damping;
        let (mut dmax, mut mmax, mut computed) = (0.0f64, 0.0f64, 0u64);
        for r in rows.clone() {
            let g = base + r;
            let o = &mut block[(r - rows.start) * k..(r - rows.start + 1) * k];
            let b_row = b.row(g);
            if !task.test.row_active(self, r, g) {
                #[cfg(debug_assertions)]
                debug_assert_skip_invariant(g, o, b_row);
                continue;
            }
            // ab = A(r,·)·B — the exact `spmm_rows` gather-axpy order.
            ab.iter_mut().for_each(|x| *x = 0.0);
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_values(r)) {
                axpy4(v, b.row(c as usize), ab);
            }
            // o = ab·Ĥ — the zero-skipping `matmul_rows` order.
            o.iter_mut().for_each(|x| *x = 0.0);
            for (j, &a) in ab.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                axpy4(a, step.h.row(j), o);
            }
            // Echo term: (d_r·B(r,·))·Ĥ², the scaled entries computed
            // inline (same values and zero skip as the unfused
            // `scaled_rows_into` + matmul composition).
            if let Some(h2) = step.h2 {
                let d = step.degrees[g];
                echo.iter_mut().for_each(|x| *x = 0.0);
                for (j, &x) in b_row.iter().enumerate() {
                    let a = d * x;
                    if a == 0.0 {
                        continue;
                    }
                    axpy4(a, h2.row(j), echo);
                }
            }
            // Combine `(o + ê) − echo`, damp, and accumulate the residual
            // in one pass — the element order of the unfused
            // add/sub/blend/max passes.
            let e_row = step.e_hat.row(g);
            let mut changed = false;
            for j in 0..k {
                let mut x = o[j] + e_row[j];
                if step.h2.is_some() {
                    x -= echo[j];
                }
                if lambda > 0.0 {
                    x = (1.0 - lambda) * x + lambda * b_row[j];
                }
                o[j] = x;
                dmax = dmax.max((x - b_row[j]).abs());
                mmax = mmax.max(x.abs());
                changed |= x.to_bits() != b_row[j].to_bits();
            }
            if changed {
                task.bits.set(g);
            }
            computed += 1;
        }
        task.active += computed;
        task.delta = task.delta.max(dmax);
        task.magnitude = task.magnitude.max(mmax);
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
