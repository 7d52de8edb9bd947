//! Batched multi-query solves — many labeling queries, one pass.
//!
//! A production deployment answers *many* classification queries over the
//! same graph (different seed sets, same adjacency and coupling). Batched
//! LinBP runs the `q` queries' solo solves in lockstep: every query keeps
//! its own `n × k` buffers — `Ê` borrowed from its [`ExplicitBeliefs`],
//! its own `B` and `next` — and each sweep is **one** fused step over the
//! live queries ([`PropagationOperator::linbp_step_fused_frontier_with`]):
//! one pool scope whose row-range tasks run every live query's solo
//! kernel on that query's buffers, so a shard of the adjacency is loaded
//! once per sweep for all of them. Nothing is stacked or split: a
//! query's answer is its own buffer. RWR still stacks its `q · k` walks
//! side by side into one `n × (k·q)` matrix and diffuses them with one
//! SpMM per round.
//!
//! Entry points: [`linbp_batch_on`], [`linbp_star_batch_on`],
//! [`linbp_update_batch_on`] and [`rwr_batch_on`]. These drivers are the
//! only LinBP and RWR solvers: the single-query entry points
//! ([`crate::linbp::linbp_on`], [`crate::linbp::linbp_star_on`],
//! [`crate::linbp::linbp_observed`], [`crate::linbp::linbp_update`] and
//! [`crate::rwr::rwr_on`]) are one-element batches. So a kernel or
//! stopping-rule change is made once, and a single query can never drift
//! from its batched twin.
//!
//! Per-query convergence is tracked per query: a query whose belief
//! change drops under `tol` (or whose magnitudes trip the divergence
//! guard) is **frozen** — it leaves the sweep, its buffers are never
//! computed, written or swapped again, and its result records the
//! iteration it stopped at — while the remaining queries keep iterating.
//! Freezing is what makes a query's batched result **bitwise identical**
//! to the same query run alone: a frozen query's beliefs are exactly the
//! beliefs a one-query batch returns, not "the same query iterated a
//! little longer".
//!
//! Why bitwise identity holds (and is property-tested against a plain
//! unfused loop): every query runs the solo kernel on its own buffers,
//! so each output element accumulates in the same order whatever `q` is,
//! and the per-query delta/guard read-outs are order-independent maxima
//! (or fixed-order L2 sums) over exactly that query's elements.
//!
//! Per-sweep work follows each query's own frontier
//! ([`lsbp_sparse::FrontierState`], per row from the query's seeds): the
//! kernel computes only the rows whose inputs changed, and the
//! divergence guard's `max |B|` is folded in the same kernel pass, so
//! with the MaxAbs norm no per-sweep pass touches a whole belief matrix.
//! Only the L2 delta ([`Mat::l2_diff`]) stays a pass over the query's
//! `n × k` buffers.

use crate::beliefs::{BeliefMatrix, ExplicitBeliefs};
use crate::linbp::{LinBpError, LinBpOptions, LinBpResult};
use crate::rwr::{RwrError, RwrOptions, RwrResult};
use lsbp_linalg::{
    FixedPointOp, FixedPointSolver, IterationEvent, Mat, ParallelismConfig, StepOutcome,
    ToleranceNorm,
};
use lsbp_sparse::{FrontierState, FusedLinBpStep, PropagationOperator, QuerySweep};

/// Runs **LinBP** (Eq. 6, with echo cancellation) on `q` independent
/// seed-sets in one pass against any [`PropagationOperator`]: one fused
/// step over the live queries per iteration, per-query convergence.
/// Returns one [`LinBpResult`] per query, each bitwise identical to what
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

/// One query of a batched LinBP solve: its seeds, its double buffer, its
/// frontier and its progress. Only live queries' buffers are swapped, so
/// `b` always holds the query's current (once frozen, final) beliefs.
struct QueryRun<'a> {
    e_hat: &'a Mat,
    b: Mat,
    next: Mat,
    frontier: FrontierState<'a>,
    frozen: bool,
    converged: bool,
    diverged: bool,
    iterations: usize,
    final_delta: f64,
}

/// The batched LinBP update as a [`FixedPointOp`], backed by the one
/// fused LinBP step
/// ([`PropagationOperator::linbp_step_fused_frontier_with`]): one
/// row-partitioned pass computes every live query's update, damping,
/// max-abs residual and magnitude read-out together, for the rows whose
/// inputs changed. The outer solver runs in "operator-controlled" mode
/// (`tol = 0`): tolerance and the magnitude guard are applied *per
/// query* inside the step.
struct LinBpBatchIteration<'a, A: PropagationOperator + ?Sized> {
    adj: &'a A,
    h: &'a Mat,
    h2: Option<&'a Mat>,
    degrees: &'a [f64],
    cfg: ParallelismConfig,
    tol: f64,
    divergence_guard: f64,
    runs: Vec<QueryRun<'a>>,
}

impl<A: PropagationOperator + ?Sized> FixedPointOp for LinBpBatchIteration<'_, A> {
    fn step(&mut self, solver: &FixedPointSolver, iteration: usize) -> StepOutcome {
        // One fused update over the live queries, each on its own
        // buffers, residuals and magnitudes read out in-pass. Frozen
        // queries are not in the sweep.
        let (h, h2, degrees) = (self.h, self.h2, self.degrees);
        let mut sweeps: Vec<QuerySweep<'_, '_>> = self
            .runs
            .iter_mut()
            .filter(|run| !run.frozen)
            .map(|run| QuerySweep {
                step: FusedLinBpStep {
                    e_hat: run.e_hat,
                    h,
                    h2,
                    degrees,
                    damping: solver.damping,
                },
                b: &run.b,
                out: &mut run.next,
                frontier: &mut run.frontier,
                delta: f64::INFINITY,
            })
            .collect();
        self.adj
            .linbp_step_fused_frontier_with(&mut sweeps, &self.cfg);
        let deltas: Vec<f64> = sweeps.into_iter().map(|s| s.delta).collect();
        let lone = self.runs.len() == 1;
        let mut remaining = 0.0f64;
        let mut any_active = false;
        let mut lone_delta = f64::INFINITY;
        for (run, delta) in self.runs.iter_mut().filter(|run| !run.frozen).zip(deltas) {
            run.frontier.commit();
            // The fused pass already produced the max-abs delta; L2
            // replaces it with the fixed-order read-out (fusing L2 would
            // tie the sum to the row partition). Skipped rows hold the
            // same bits in both buffers, so they add exactly a
            // recomputation's terms.
            let delta = match solver.norm {
                ToleranceNorm::MaxAbs => delta,
                ToleranceNorm::L2 => run.next.l2_diff(&run.b),
            };
            std::mem::swap(&mut run.b, &mut run.next);
            // Per-query stop policy: guard (or a non-finite delta) first,
            // then tolerance. The guard reads the kernel's `max |new|`,
            // which decides exactly like a full `max |B|` pass.
            run.iterations = iteration + 1;
            run.final_delta = delta;
            lone_delta = delta;
            if run.frontier.magnitude() > self.divergence_guard || !delta.is_finite() {
                run.frozen = true;
                run.diverged = true;
            } else if self.tol > 0.0 && delta < self.tol {
                run.frozen = true;
                run.converged = true;
            } else {
                any_active = true;
                remaining = remaining.max(delta);
            }
        }
        // What the outer solver (and an observer) sees: a lone query's
        // own delta — non-finite on divergence, which is safe because the
        // solver checks the status before the delta — and otherwise the
        // largest delta still iterating.
        let delta = if lone { lone_delta } else { remaining };
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
    if queries.is_empty() {
        return Ok(Vec::new());
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

    // Each frontier starts at its query's non-zero seed rows. That start
    // is exact only if an all-`+0.0` neighbourhood recomputes to `+0.0`,
    // which needs finite weights (and, with echo, finite degrees);
    // otherwise the first sweep computes every row.
    let weights = if echo { degrees } else { adj.row_sums() };
    let from_seeds = weights.iter().all(|x| x.is_finite());
    let plan = adj.frontier_plan();
    let runs = queries
        .iter()
        .map(|e| {
            let e_hat = e.residual_matrix();
            QueryRun {
                e_hat,
                b: e_hat.clone(),
                next: Mat::zeros(n, k),
                frontier: if from_seeds {
                    FrontierState::from_seeds(plan, e_hat)
                } else {
                    FrontierState::new(plan)
                },
                frozen: false,
                converged: false,
                diverged: false,
                iterations: 0,
                final_delta: f64::INFINITY,
            }
        })
        .collect();
    let mut op = LinBpBatchIteration {
        adj,
        h: h_residual,
        h2: h2.as_ref(),
        degrees,
        cfg: opts.parallelism,
        tol: opts.tol,
        divergence_guard: opts.divergence_guard,
        runs,
    };
    // Operator-controlled stopping: the per-query policy inside the step
    // implements tolerance and guard; the outer solver only carries the
    // budget, norm and damping.
    FixedPointSolver::new(opts.max_iter, 0.0)
        .with_norm(opts.norm)
        .with_damping(opts.damping)
        .run_observed(&mut op, observer);

    // Each query's answer is its own current buffer, and its frontier
    // counters are exactly its solo solve's.
    Ok(op
        .runs
        .into_iter()
        .map(|run| LinBpResult {
            beliefs: BeliefMatrix::from_mat(run.b),
            converged: run.converged,
            diverged: run.diverged,
            iterations: run.iterations,
            final_delta: run.final_delta,
            rows_active: run.frontier.rows_active,
            rows_skipped: run.frontier.rows_skipped,
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
/// pass**: the `q` delta seed-sets run through the batched fused
/// iteration exactly like [`linbp_batch_on`] (one fused step per round,
/// per-query freezing), and each converged delta solution is added onto
/// its previous beliefs by linearity (Proposition 7 — see
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
            // Delta fixpoint + previous beliefs, element-wise, in the
            // delta run's own buffer: `+` commutes, so the bits are those
            // of previous + delta.
            let mut updated = delta_run.beliefs.into_mat();
            updated.add_assign(prev.residual());
            LinBpResult {
                beliefs: BeliefMatrix::from_mat(updated),
                ..delta_run
            }
        })
        .collect())
}
