//! Batched multi-query solves — many labeling queries, one pass.
//!
//! A production deployment answers *many* classification queries over the
//! same graph (different seed sets, same adjacency and coupling). Run
//! separately, `q` queries cost `q` SpMM sweeps over the identical sparse
//! structure; batched, the `q` seed matrices are stacked side by side
//! into one `n × (k·q)` matrix and every iteration is **one** SpMM — the
//! adjacency is streamed through the cache once per round instead of `q`
//! times, which is exactly the amortization the paper's "BP as sparse
//! matrix algebra" framing buys (Sect. 5).
//!
//! These drivers are the only LinBP and RWR solvers: the single-query
//! entry points ([`crate::linbp::linbp_on`], [`crate::rwr::rwr_on`], …)
//! are one-element batches. So a kernel or stopping-rule change is made
//! once, and a single query can never drift from its batched twin.
//!
//! Per-query convergence is tracked with masks: a query whose belief
//! change drops under `tol` (or whose magnitudes trip the divergence
//! guard) is **frozen** — its column block stops updating and its
//! per-query result records the iteration it stopped at — while the
//! remaining queries keep iterating. Freezing is what makes a query's
//! batched result **bitwise identical** to the same query run alone: a
//! frozen query's beliefs are exactly the beliefs a one-query batch
//! returns, not "the same query iterated a little longer".
//!
//! Why bitwise identity holds (and is property-tested against a plain
//! unfused loop): the stacked SpMM and the block-diagonal `·Ĥ` accumulate
//! every output element in the same order whatever `q` is (columns never
//! mix), the `+Ê` / `−D·B̂·Ĥ²` terms are element-wise, and the per-query
//! delta/guard read-outs are order-independent maxima (or fixed-order L2
//! sums) over exactly that query's elements.
//!
//! Every per-query read-out and copy walks the stacked matrices in row
//! order, a constant number of passes per sweep whatever `q` is: the
//! guard's magnitudes ([`Mat::max_abs_blocks`]) and the L2 deltas
//! ([`Mat::l2_diff_blocks`]) fill one value per `k`-block in a single
//! pass, and stacking `Ê`, copying frozen blocks forward and extracting
//! results run row-outer, block-inner. Per-query column walks would
//! re-stream the whole `n × k·q` matrix once per query.

use crate::beliefs::{BeliefMatrix, ExplicitBeliefs};
use crate::linbp::{LinBpError, LinBpOptions, LinBpResult};
use crate::rwr::{RwrError, RwrOptions, RwrResult};
use lsbp_linalg::{
    FixedPointOp, FixedPointSolver, IterationEvent, Mat, ParallelismConfig, StepOutcome,
    ToleranceNorm,
};
use lsbp_sparse::{FrontierState, FusedLinBpStep, PropagationOperator};

/// Runs **LinBP** (Eq. 6, with echo cancellation) on `q` independent
/// seed-sets in one pass against any [`PropagationOperator`]: one stacked
/// SpMM per iteration, per-query convergence masks. Returns one
/// [`LinBpResult`] per query, each bitwise identical to what
/// [`crate::linbp::linbp_on`] returns for that query alone.
pub fn linbp_batch_on<A: PropagationOperator + ?Sized>(
    adj: &A,
    queries: &[ExplicitBeliefs],
    h_residual: &Mat,
    opts: &LinBpOptions,
) -> Result<Vec<LinBpResult>, LinBpError> {
    linbp_batch_run_on(adj, queries, h_residual, opts, true, |_| {})
}

/// [`linbp_batch_on`] without the echo-cancellation term (**LinBP\***,
/// Eq. 7); bitwise identical to per-query [`crate::linbp::linbp_star_on`].
pub fn linbp_star_batch_on<A: PropagationOperator + ?Sized>(
    adj: &A,
    queries: &[ExplicitBeliefs],
    h_residual: &Mat,
    opts: &LinBpOptions,
) -> Result<Vec<LinBpResult>, LinBpError> {
    linbp_batch_run_on(adj, queries, h_residual, opts, false, |_| {})
}

/// Per-query progress book-keeping for the batched LinBP iteration.
struct QuerySlot {
    frozen: bool,
    converged: bool,
    diverged: bool,
    iterations: usize,
    final_delta: f64,
}

/// The stacked LinBP update as a [`FixedPointOp`], backed by the fused
/// kernel ([`lsbp_sparse::CsrMatrix::linbp_step_fused_with`]) applying `Ĥ` per
/// `k`-column block: one row-partitioned pass computes the update,
/// damping and every query's max-abs residual together. The outer solver
/// runs in "operator-controlled" mode (`tol = 0`): tolerance and the
/// magnitude guard are applied *per query* inside the step.
struct LinBpBatchIteration<'a, A: PropagationOperator + ?Sized> {
    adj: &'a A,
    e_hat: &'a Mat,
    h: &'a Mat,
    h2: Option<&'a Mat>,
    degrees: &'a [f64],
    b: Mat,
    next: Mat,
    k: usize,
    cfg: ParallelismConfig,
    tol: f64,
    divergence_guard: f64,
    slots: Vec<QuerySlot>,
    deltas: Vec<f64>,
    /// Active-frontier change tracking; composes with the per-query
    /// freeze masks (frozen queries already skip — frozen *rows* now do
    /// too). `None` forces full recomputation. Bitwise identical either
    /// way.
    frontier: Option<FrontierState<'a>>,
    /// Reusable not-frozen mask handed to the frontier as the set of
    /// query blocks that participate in change detection. Exact because
    /// the update is block-diagonal per query and the frozen set only
    /// grows: bits recorded under an older (larger) mask are a
    /// conservative superset.
    active_mask: Vec<bool>,
}

impl<A: PropagationOperator + ?Sized> FixedPointOp for LinBpBatchIteration<'_, A> {
    fn step(&mut self, solver: &FixedPointSolver, iteration: usize) -> StepOutcome {
        let k = self.k;
        // One stacked fused update — exactly the q = 1 fused step
        // per k-column block, residuals accumulated per query in-pass.
        // Frozen queries are computed too and their outputs discarded:
        // after the swap their blocks are copied forward from the
        // previous buffer, so both buffers agree on them every iteration
        // — which is what lets the frontier's changed-bit compare
        // restrict to active blocks.
        let fstep = FusedLinBpStep {
            e_hat: self.e_hat,
            h: self.h,
            h2: self.h2,
            degrees: self.degrees,
            damping: solver.damping,
        };
        let counters = match self.frontier.as_mut() {
            Some(state) => {
                for (m, slot) in self.active_mask.iter_mut().zip(&self.slots) {
                    *m = !slot.frozen;
                }
                let mut fr = state.begin(Some(&self.active_mask));
                self.adj.linbp_step_fused_frontier_with(
                    &self.b,
                    &fstep,
                    &mut self.next,
                    &mut self.deltas,
                    &mut fr,
                    &self.cfg,
                );
                Some((fr.rows_active, fr.rows_skipped))
            }
            None => {
                self.adj.linbp_step_fused_with(
                    &self.b,
                    &fstep,
                    &mut self.next,
                    &mut self.deltas,
                    &self.cfg,
                );
                None
            }
        };
        // The fused pass already produced max-abs deltas; L2 queries
        // replace theirs with the fixed-order per-block read-out, one
        // row-major pass for all queries (fusing L2 would tie the sum to
        // the row partition). Frontier-skipped rows hold the same bits in
        // both buffers, so they add exactly a recomputation's terms.
        if solver.norm == ToleranceNorm::L2 {
            let l2 = self.next.l2_diff_blocks(&self.b, k);
            for ((d, slot), v) in self.deltas.iter_mut().zip(&self.slots).zip(l2) {
                if !slot.frozen {
                    *d = v;
                }
            }
        }
        std::mem::swap(&mut self.b, &mut self.next);
        // Frozen queries keep their final beliefs: copy their blocks
        // forward from the previous buffer, row-outer (their stacked-step
        // output is discarded).
        let frozen: Vec<std::ops::Range<usize>> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.frozen)
            .map(|(j, _)| j * k..(j + 1) * k)
            .collect();
        if !frozen.is_empty() {
            for r in 0..self.b.rows() {
                let (dst, src) = (self.b.row_mut(r), self.next.row(r));
                for cols in &frozen {
                    dst[cols.clone()].copy_from_slice(&src[cols.clone()]);
                }
            }
        }
        // The guard's per-query magnitudes, one row-major pass for all
        // queries (skipped when no guard is set or nothing is active).
        let magnitudes = (self.divergence_guard.is_finite()
            && self.slots.iter().any(|slot| !slot.frozen))
        .then(|| self.b.max_abs_blocks(k));
        // Per-query stop policy, after the swap: guard (or a non-finite
        // delta) first, then tolerance.
        let mut remaining = 0.0f64;
        let mut any_active = false;
        for (j, slot) in self.slots.iter_mut().enumerate() {
            if slot.frozen {
                continue;
            }
            let delta = self.deltas[j];
            slot.iterations = iteration + 1;
            slot.final_delta = delta;
            if magnitudes
                .as_ref()
                .is_some_and(|m| m[j] > self.divergence_guard)
                || !delta.is_finite()
            {
                slot.frozen = true;
                slot.diverged = true;
            } else if self.tol > 0.0 && delta < self.tol {
                slot.frozen = true;
                slot.converged = true;
            } else {
                any_active = true;
                remaining = remaining.max(delta);
            }
        }
        if let (Some(state), Some((active, skipped))) = (self.frontier.as_mut(), counters) {
            state.commit(active, skipped);
        }
        // What the outer solver (and an observer) sees: a lone query's
        // own delta — non-finite on divergence, which is safe because the
        // solver checks the status before the delta — and otherwise the
        // largest delta still iterating.
        let delta = if self.slots.len() == 1 {
            self.deltas[0]
        } else {
            remaining
        };
        if any_active {
            StepOutcome::proceed(delta)
        } else {
            StepOutcome::converged(delta)
        }
    }
}

/// The LinBP driver behind every LinBP entry point: `echo` selects Eq. 6
/// vs. Eq. 7, and `observer` fires after every round (see
/// [`FixedPointSolver::run_observed`]).
pub(crate) fn linbp_batch_run_on<A: PropagationOperator + ?Sized>(
    adj: &A,
    queries: &[ExplicitBeliefs],
    h_residual: &Mat,
    opts: &LinBpOptions,
    echo: bool,
    observer: impl FnMut(&IterationEvent),
) -> Result<Vec<LinBpResult>, LinBpError> {
    // Node counts before arity, so a query that is wrong in both reports
    // `DimensionMismatch`.
    let n = adj.n_rows();
    let k = h_residual.rows();
    if adj.n_cols() != n || queries.iter().any(|e| e.n() != n) {
        return Err(LinBpError::DimensionMismatch);
    }
    if h_residual.cols() != k || queries.iter().any(|e| e.k() != k) {
        return Err(LinBpError::CouplingArityMismatch);
    }
    let q = queries.len();
    if q == 0 {
        return Ok(Vec::new());
    }

    // Stack the q seed matrices side by side: column block j = query j,
    // written row-outer so the stacked matrix is streamed once.
    let mut e_hat = Mat::zeros(n, k * q);
    for r in 0..n {
        for (dst, e) in e_hat.row_mut(r).chunks_exact_mut(k).zip(queries) {
            dst.copy_from_slice(e.row(r));
        }
    }
    let h2 = if echo {
        Some(h_residual.matmul(h_residual))
    } else {
        None
    };
    let no_echo;
    let degrees = if echo {
        adj.squared_weight_degrees()
    } else {
        no_echo = vec![0.0; n];
        &no_echo
    };

    let mut op = LinBpBatchIteration {
        adj,
        e_hat: &e_hat,
        h: h_residual,
        h2: h2.as_ref(),
        degrees,
        b: e_hat.clone(),
        next: Mat::zeros(n, k * q),
        k,
        cfg: opts.parallelism,
        tol: opts.tol,
        divergence_guard: opts.divergence_guard,
        slots: (0..q)
            .map(|_| QuerySlot {
                frozen: false,
                converged: false,
                diverged: false,
                iterations: 0,
                final_delta: f64::INFINITY,
            })
            .collect(),
        deltas: vec![f64::INFINITY; q],
        frontier: opts
            .parallelism
            .frontier()
            .then(|| FrontierState::new(adj.frontier_plan())),
        active_mask: vec![true; q],
    };
    // Operator-controlled stopping: the per-query masks inside the step
    // implement tolerance and guard; the outer solver only carries the
    // budget, norm and damping.
    let outcome = FixedPointSolver::new(opts.max_iter, 0.0)
        .with_norm(opts.norm)
        .with_damping(opts.damping)
        .run_observed(&mut op, observer);

    // Whole-run frontier totals: the counters describe the shared stacked
    // solve, so every per-query result carries the same pair (consumers
    // aggregating across queries of one batch take the max, not the sum).
    let (rows_active, rows_skipped) = op
        .frontier
        .as_ref()
        .map(|s| (s.rows_active, s.rows_skipped))
        .unwrap_or(((n * outcome.iterations) as u64, 0));
    // Split the stacked beliefs into per-query matrices, row-outer.
    let mut per_query: Vec<Mat> = (0..q).map(|_| Mat::zeros(n, k)).collect();
    for r in 0..n {
        for (dst, src) in per_query.iter_mut().zip(op.b.row(r).chunks_exact(k)) {
            dst.row_mut(r).copy_from_slice(src);
        }
    }
    Ok(op
        .slots
        .iter()
        .zip(per_query)
        .map(|(slot, beliefs)| LinBpResult {
            beliefs: BeliefMatrix::from_mat(beliefs),
            converged: slot.converged,
            diverged: slot.diverged,
            iterations: slot.iterations,
            final_delta: slot.final_delta,
            rows_active,
            rows_skipped,
        })
        .collect())
}

/// Per-walk (query × class) progress book-keeping for the batched RWR.
struct WalkSlot {
    frozen: bool,
    converged: bool,
    iterations: usize,
}

/// The stacked RWR power iteration as a [`FixedPointOp`]: all `q · k`
/// walks diffuse through one SpMM per round; converged walks freeze.
///
/// The diffusion is an SpMM even when only one walk is left: SpMV's row
/// dot product accumulates in the reassociated 4-lane order, while SpMM
/// sums every output element in CSR entry order whatever the column
/// count — so a walk's bits do not depend on how many walks share the
/// batch.
struct RwrBatchIteration<'a, A: PropagationOperator + ?Sized> {
    adj: &'a A,
    degrees: &'a [f64],
    restart_dist: &'a Mat,
    restart: f64,
    tol: f64,
    scores: Mat,
    scaled: Mat,
    diffused: Mat,
    cfg: ParallelismConfig,
    slots: Vec<WalkSlot>,
}

impl<A: PropagationOperator + ?Sized> FixedPointOp for RwrBatchIteration<'_, A> {
    fn step(&mut self, solver: &FixedPointSolver, iteration: usize) -> StepOutcome {
        let n = self.adj.n_rows();
        // Scale every column by inverse degrees (frozen columns too: their
        // diffused output is simply discarded) and diffuse all walks with
        // one SpMM.
        for v in 0..n {
            let deg = self.degrees[v];
            for (dst, &x) in self
                .scaled
                .row_mut(v)
                .iter_mut()
                .zip(self.scores.row(v).iter())
            {
                // `x / deg`, not `x · (1/deg)`: reciprocal-multiply rounds
                // differently.
                *dst = if deg > 0.0 { x / deg } else { 0.0 };
            }
        }
        self.adj
            .spmm_into_with(&self.scaled, &mut self.diffused, &self.cfg);
        let mut remaining = 0.0f64;
        let mut any_active = false;
        for (col, slot) in self.slots.iter_mut().enumerate() {
            if slot.frozen {
                continue;
            }
            // The per-walk update: blend, delta, write-back, then
            // renormalize the mass dangling nodes leak.
            let mut delta = 0.0f64;
            for v in 0..n {
                let next = (1.0 - self.restart) * self.diffused[(v, col)]
                    + self.restart * self.restart_dist[(v, col)];
                match solver.norm {
                    ToleranceNorm::MaxAbs => {
                        delta = delta.max((next - self.scores[(v, col)]).abs())
                    }
                    ToleranceNorm::L2 => {
                        let d = next - self.scores[(v, col)];
                        delta += d * d;
                    }
                }
                self.scores[(v, col)] = next;
            }
            if solver.norm == ToleranceNorm::L2 {
                delta = delta.sqrt();
            }
            let mass: f64 = (0..n).map(|v| self.scores[(v, col)]).sum();
            if mass > 0.0 {
                for v in 0..n {
                    self.scores[(v, col)] /= mass;
                }
            }
            slot.iterations = iteration + 1;
            if self.tol > 0.0 && delta < self.tol {
                slot.frozen = true;
                slot.converged = true;
            } else if !delta.is_finite() {
                slot.frozen = true;
            } else {
                any_active = true;
                remaining = remaining.max(delta);
            }
        }
        if any_active {
            StepOutcome::proceed(remaining)
        } else {
            StepOutcome::converged(remaining)
        }
    }
}

/// Runs [`crate::rwr::rwr_on`] on `q` independent seed-sets in one pass
/// against any [`PropagationOperator`]: all `q · k` per-class walks
/// diffuse through a single SpMM per iteration, with per-walk convergence
/// masks. Returns one [`RwrResult`] per query, each bitwise identical to
/// the one-query run.
pub fn rwr_batch_on<A: PropagationOperator + ?Sized>(
    adj: &A,
    queries: &[ExplicitBeliefs],
    opts: &RwrOptions,
) -> Result<Vec<RwrResult>, RwrError> {
    // Shapes before the restart probability, so a query that is wrong in
    // both reports `DimensionMismatch`.
    let n = adj.n_rows();
    let k = queries.first().map_or(0, ExplicitBeliefs::k);
    if adj.n_cols() != n || queries.iter().any(|e| e.n() != n || e.k() != k) {
        return Err(RwrError::DimensionMismatch);
    }
    if !(opts.restart > 0.0 && opts.restart <= 1.0) {
        return Err(RwrError::BadRestart);
    }
    let q = queries.len();
    if q == 0 {
        return Ok(Vec::new());
    }

    // Stacked restart distributions: column j·k + c = query j, class c.
    let mut restart_dist = Mat::zeros(n, k * q);
    for (j, e) in queries.iter().enumerate() {
        let single = crate::rwr::restart_distribution(e)?;
        for v in 0..n {
            restart_dist.row_mut(v)[j * k..(j + 1) * k].copy_from_slice(single.row(v));
        }
    }

    let mut op = RwrBatchIteration {
        adj,
        degrees: adj.row_sums(),
        restart_dist: &restart_dist,
        restart: opts.restart,
        tol: opts.tol,
        scores: restart_dist.clone(),
        scaled: Mat::zeros(n, k * q),
        diffused: Mat::zeros(n, k * q),
        cfg: opts.parallelism,
        slots: (0..k * q)
            .map(|_| WalkSlot {
                frozen: false,
                converged: false,
                iterations: 0,
            })
            .collect(),
    };
    FixedPointSolver::new(opts.max_iter, 0.0)
        .with_norm(opts.norm)
        .run(&mut op);

    Ok((0..q)
        .map(|j| {
            let walks = &op.slots[j * k..(j + 1) * k];
            let converged = walks.iter().all(|w| w.converged);
            let iterations = walks.iter().map(|w| w.iterations).max().unwrap_or(0);
            // Residual form: center each row (so ties/standardization
            // read-outs work); rows that received no mass stay all-zero
            // (all-tie).
            let mut residual = Mat::zeros(n, k);
            for v in 0..n {
                let row = &op.scores.row(v)[j * k..(j + 1) * k];
                let mean: f64 = row.iter().sum::<f64>() / k as f64;
                if row.iter().any(|&x| x > 0.0) {
                    for (c, &x) in row.iter().enumerate() {
                        residual[(v, c)] = x - mean;
                    }
                }
            }
            RwrResult {
                beliefs: BeliefMatrix::from_mat(residual),
                converged,
                iterations,
            }
        })
        .collect())
}

/// Batched incremental maintenance — [`crate::linbp::linbp_update`] over
/// a batch of `(previous beliefs, explicit-belief delta)` pairs in **one
/// pass**: the `q` delta seed-sets run through the stacked fused
/// iteration path exactly like [`linbp_batch_on`] (one SpMM per round,
/// per-query freeze masks), and each converged delta solution is added
/// onto its previous beliefs by linearity (Proposition 7 — see
/// [`crate::linbp::linbp_update`] for why this is exact).
///
/// This is the post-edge-change refresh path a serving deployment runs
/// when a label change invalidates many cached query results at once:
/// instead of `q` separate `linbp_update` solves re-streaming the
/// adjacency `q` times per iteration, the whole refresh is one batched
/// solve. Results are **bitwise identical** to calling `linbp_update` per
/// pair (property-tested): each delta solve is bitwise equal to its
/// one-query batch, and the final add is element-wise.
///
/// `previous` and `deltas` are parallel slices (pair `j` = query `j`);
/// `echo` selects LinBP (Eq. 6) vs. LinBP\* (Eq. 7), and divergent delta
/// runs are returned as-is without touching the previous beliefs, exactly
/// like the per-query function. What a serving deployment holding a
/// prebuilt operator in its graph registry calls on the cache-patching
/// path.
pub fn linbp_update_batch_on<A: PropagationOperator + ?Sized>(
    adj: &A,
    previous: &[&BeliefMatrix],
    deltas: &[ExplicitBeliefs],
    h_residual: &Mat,
    opts: &LinBpOptions,
    echo: bool,
) -> Result<Vec<LinBpResult>, LinBpError> {
    if previous.len() != deltas.len() {
        return Err(LinBpError::DimensionMismatch);
    }
    for (prev, delta) in previous.iter().zip(deltas) {
        if prev.n() != delta.n() || prev.k() != delta.k() {
            return Err(LinBpError::DimensionMismatch);
        }
    }
    let delta_runs = linbp_batch_run_on(adj, deltas, h_residual, opts, echo, |_| {})?;
    Ok(previous
        .iter()
        .zip(delta_runs)
        .map(|(prev, delta_run)| {
            if delta_run.diverged {
                return delta_run;
            }
            // Previous beliefs + delta fixpoint, element-wise.
            let mut updated = prev.residual().clone();
            updated.add_assign(delta_run.beliefs.residual());
            LinBpResult {
                beliefs: BeliefMatrix::from_mat(updated),
                ..delta_run
            }
        })
        .collect())
}
