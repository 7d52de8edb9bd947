//! The unified fixed-point iteration driver.
//!
//! Every iterative method in this workspace — LinBP / LinBP\* updates,
//! BP message rounds, RWR power iterations, SBP's layer sweep, the
//! matrix-free power iteration behind the Lemma 8 spectral criteria, and
//! the batched multi-query solvers — is the same control skeleton: *apply
//! one update step, measure how much the state moved, decide whether to
//! stop*. [`FixedPointSolver`] owns that skeleton exactly once:
//!
//! * **iteration budget** (`max_iter`),
//! * **tolerance policy**: an absolute threshold `tol` under a choice of
//!   norm ([`ToleranceNorm::MaxAbs`] — the paper's convergence read-out —
//!   or [`ToleranceNorm::L2`]); a non-finite delta ends the run as
//!   divergent,
//! * **damping** `λ ∈ [0, 1)`: `state ← (1−λ)·new + λ·old`, applied by
//!   the operator (the blend point differs per method: per message for
//!   BP, per belief matrix for LinBP),
//! * a **per-iteration observer hook** ([`FixedPointSolver::run_observed`])
//!   for instrumentation — the Fig. 7d per-iteration timing harness hangs
//!   off this instead of hand-rolling its own loop.
//!
//! Operators implement [`FixedPointOp`]: one `step` that advances the
//! state and reports the step's delta. The *operator* owns all scratch
//! (double buffers, SpMM workspaces), allocated once at construction and
//! reused across iterations; the solver guarantees `step` is called at
//! most `max_iter` times, sequentially. An operator can also end the run
//! itself via [`StepStatus`] — the escape hatch for method-specific
//! policies (relative tolerances in power iteration, per-query masks and
//! magnitude guards in the batched LinBP solver) that the shared
//! absolute-tolerance check cannot express.

/// Which norm the solver's tolerance threshold is compared against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ToleranceNorm {
    /// Largest absolute entry change (L∞) — order-independent, so
    /// parallel reductions are bitwise identical to serial ones. The
    /// default, and the criterion every pre-solver loop in this workspace
    /// used.
    #[default]
    MaxAbs,
    /// Euclidean norm of the change (L2). Summation runs in fixed element
    /// order regardless of thread count, so this too is deterministic
    /// across `LSBP_THREADS` settings.
    L2,
}

/// Operator-side verdict attached to a step: whether the solver should
/// keep iterating or stop now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepStatus {
    /// Keep iterating; the solver applies its own tolerance policy.
    Continue,
    /// The operator decided the run converged (e.g. a relative-tolerance
    /// policy, or every query of a batch froze).
    Converged,
    /// The operator decided the run diverged.
    Diverged,
}

/// What one [`FixedPointOp::step`] reports back to the solver.
#[derive(Clone, Copy, Debug)]
pub struct StepOutcome {
    /// The step's delta in the solver's [`ToleranceNorm`] (what
    /// `final_delta` records and the tolerance check compares).
    pub delta: f64,
    /// Operator-side stop verdict; [`StepStatus::Continue`] defers to the
    /// solver's policy.
    pub status: StepStatus,
}

impl StepOutcome {
    /// A step that defers the stop decision to the solver.
    pub fn proceed(delta: f64) -> Self {
        StepOutcome {
            delta,
            status: StepStatus::Continue,
        }
    }

    /// A step after which the operator declares convergence.
    pub fn converged(delta: f64) -> Self {
        StepOutcome {
            delta,
            status: StepStatus::Converged,
        }
    }

    /// A step after which the operator declares divergence.
    pub fn diverged(delta: f64) -> Self {
        StepOutcome {
            delta,
            status: StepStatus::Diverged,
        }
    }
}

/// One fixed-point update operator: the method-specific step the solver
/// drives. The operator owns its state and scratch buffers.
pub trait FixedPointOp {
    /// Applies update round `iteration` (0-based) and reports the step's
    /// delta plus an optional operator-side stop verdict.
    fn step(&mut self, solver: &FixedPointSolver, iteration: usize) -> StepOutcome;
}

/// What the solver hands the per-iteration observer.
#[derive(Clone, Copy, Debug)]
pub struct IterationEvent {
    /// 1-based iteration count (equals `iterations` in the final
    /// [`SolveOutcome`] when this is the last event).
    pub iteration: usize,
    /// The step's delta (same value the tolerance policy saw).
    pub delta: f64,
}

/// How a [`FixedPointSolver::run`] ended.
#[derive(Clone, Copy, Debug)]
pub struct SolveOutcome {
    /// The tolerance policy (solver's or operator's) was met before the
    /// iteration budget ran out.
    pub converged: bool,
    /// The step delta turned non-finite (or the operator declared
    /// divergence).
    pub diverged: bool,
    /// Update rounds executed.
    pub iterations: usize,
    /// Delta of the final round (∞ when no round ran).
    pub final_delta: f64,
}

/// The iteration driver: budget, tolerance policy and damping factor for
/// a fixed-point computation. See the module docs.
#[derive(Clone, Copy, Debug)]
pub struct FixedPointSolver {
    /// Maximum number of update rounds.
    pub max_iter: usize,
    /// Absolute convergence threshold on the step delta; `0.0` disables
    /// the check (timing mode: exactly `max_iter` rounds unless a delta
    /// turns non-finite or the operator stops the run).
    pub tol: f64,
    /// Norm the delta is measured in.
    pub norm: ToleranceNorm,
    /// Damping factor `λ ∈ [0, 1)`, applied by operators that support it
    /// (`0.0` = undamped updates).
    pub damping: f64,
}

impl FixedPointSolver {
    /// A solver with the given budget and absolute tolerance, max-abs
    /// norm and no damping.
    pub fn new(max_iter: usize, tol: f64) -> Self {
        FixedPointSolver {
            max_iter,
            tol,
            norm: ToleranceNorm::MaxAbs,
            damping: 0.0,
        }
    }

    /// Sets the tolerance norm.
    pub fn with_norm(mut self, norm: ToleranceNorm) -> Self {
        self.norm = norm;
        self
    }

    /// Sets the damping factor.
    pub fn with_damping(mut self, damping: f64) -> Self {
        self.damping = damping;
        self
    }

    /// Drives `op` to a fixed point. Equivalent to
    /// [`FixedPointSolver::run_observed`] with a no-op observer.
    pub fn run(&self, op: &mut impl FixedPointOp) -> SolveOutcome {
        self.run_observed(op, |_| {})
    }

    /// Drives `op` to a fixed point, invoking `observer` after every
    /// step (before the stop checks) — the instrumentation hook for
    /// per-iteration timing and convergence traces.
    ///
    /// Per iteration, in order: `op.step`, observer, operator verdict,
    /// non-finite delta (divergence), tolerance check
    /// (`tol > 0 && delta < tol`).
    pub fn run_observed(
        &self,
        op: &mut impl FixedPointOp,
        mut observer: impl FnMut(&IterationEvent),
    ) -> SolveOutcome {
        let mut out = SolveOutcome {
            converged: false,
            diverged: false,
            iterations: 0,
            final_delta: f64::INFINITY,
        };
        for iteration in 0..self.max_iter {
            out.iterations += 1;
            let step = op.step(self, iteration);
            out.final_delta = step.delta;
            observer(&IterationEvent {
                iteration: out.iterations,
                delta: step.delta,
            });
            match step.status {
                StepStatus::Converged => {
                    out.converged = true;
                    break;
                }
                StepStatus::Diverged => {
                    out.diverged = true;
                    break;
                }
                StepStatus::Continue => {}
            }
            if !step.delta.is_finite() {
                out.diverged = true;
                break;
            }
            if self.tol > 0.0 && step.delta < self.tol {
                out.converged = true;
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar contraction x ← c·x + 1 with fixed point 1/(1−c).
    struct Contraction {
        x: f64,
        c: f64,
    }

    impl FixedPointOp for Contraction {
        fn step(&mut self, _solver: &FixedPointSolver, _iteration: usize) -> StepOutcome {
            let next = self.c * self.x + 1.0;
            let delta = (next - self.x).abs();
            self.x = next;
            StepOutcome::proceed(delta)
        }
    }

    #[test]
    fn contraction_converges() {
        let mut op = Contraction { x: 0.0, c: 0.5 };
        let outcome = FixedPointSolver::new(1000, 1e-12).run(&mut op);
        assert!(outcome.converged && !outcome.diverged);
        assert!((op.x - 2.0).abs() < 1e-11);
        assert!(outcome.iterations < 1000);
        assert!(outcome.final_delta < 1e-12);
    }

    #[test]
    fn timing_mode_runs_full_budget() {
        let mut op = Contraction { x: 0.0, c: 0.5 };
        let outcome = FixedPointSolver::new(7, 0.0).run(&mut op);
        assert_eq!(outcome.iterations, 7);
        assert!(!outcome.converged);
    }

    #[test]
    fn nan_delta_stops_even_without_guard() {
        struct NanOp;
        impl FixedPointOp for NanOp {
            fn step(&mut self, _: &FixedPointSolver, _: usize) -> StepOutcome {
                StepOutcome::proceed(f64::NAN)
            }
        }
        let outcome = FixedPointSolver::new(100, 0.0).run(&mut NanOp);
        assert!(outcome.diverged);
        assert_eq!(outcome.iterations, 1);
    }

    #[test]
    fn operator_verdict_overrides_policy() {
        struct StopAt(usize);
        impl FixedPointOp for StopAt {
            fn step(&mut self, _: &FixedPointSolver, iteration: usize) -> StepOutcome {
                if iteration + 1 == self.0 {
                    StepOutcome::converged(0.25)
                } else {
                    StepOutcome::proceed(1.0)
                }
            }
        }
        let outcome = FixedPointSolver::new(100, 0.0).run(&mut StopAt(5));
        assert!(outcome.converged);
        assert_eq!(outcome.iterations, 5);
        assert_eq!(outcome.final_delta, 0.25);
    }

    #[test]
    fn observer_sees_every_iteration() {
        let mut op = Contraction { x: 0.0, c: 0.5 };
        let mut events = Vec::new();
        let outcome = FixedPointSolver::new(4, 0.0).run_observed(&mut op, |e| {
            events.push((e.iteration, e.delta));
        });
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].0, 1);
        assert_eq!(events[3].0, outcome.iterations);
        assert_eq!(events[3].1, outcome.final_delta);
    }

    #[test]
    fn empty_budget() {
        let mut op = Contraction { x: 0.0, c: 0.5 };
        let outcome = FixedPointSolver::new(0, 1e-9).run(&mut op);
        assert_eq!(outcome.iterations, 0);
        assert!(!outcome.converged && !outcome.diverged);
        assert_eq!(outcome.final_delta, f64::INFINITY);
    }
}
