//! LinBP and LinBP\* — the paper's core contribution (Theorem 4).
//!
//! Iterative updates (Eqs. 6/7):
//!
//! ```text
//! B̂(l+1) ← Ê + A·B̂(l)·Ĥ − D·B̂(l)·Ĥ²      (LinBP — with echo cancellation)
//! B̂(l+1) ← Ê + A·B̂(l)·Ĥ                   (LinBP* — without)
//! ```
//!
//! where `A` is the (weighted) adjacency matrix, `D = diag(d)` with
//! `d_s = Σ_t w(s,t)²` (Sect. 5.2) and `Ĥ` is the *scaled residual*
//! coupling matrix. Beliefs are computed directly from beliefs — no
//! messages — which is exactly why a LinBP iteration is one sparse
//! matrix × dense matrix product (`O(nnz·k + n·k²)`).
//!
//! Convergence is governed by Lemma 8 (ρ(Ĥ⊗A − Ĥ²⊗D) < 1); the iterative
//! process here reports divergence when belief magnitudes blow past a
//! guard threshold.
//!
//! Entry points: [`linbp_on`] (Eq. 6), [`linbp_star_on`] (Eq. 7),
//! [`linbp_observed`] (either, with a per-round observer) and
//! [`linbp_update`] (incremental maintenance). Each takes any
//! [`PropagationOperator`] and is a one-query batch through the batched
//! driver ([`crate::batch`]).

use crate::batch::{linbp_batch_run_on, linbp_update_batch_on};
use crate::beliefs::{BeliefMatrix, ExplicitBeliefs};
use lsbp_linalg::{IterationEvent, Mat, ParallelismConfig, ToleranceNorm};
use lsbp_sparse::PropagationOperator;

/// Options for [`linbp_on`] / [`linbp_star_on`].
#[derive(Clone, Copy, Debug)]
pub struct LinBpOptions {
    /// Maximum number of update rounds.
    pub max_iter: usize,
    /// Convergence threshold on the belief change (measured in `norm`);
    /// 0.0 runs exactly `max_iter` rounds (timing mode, like the
    /// paper's 5).
    pub tol: f64,
    /// Norm the convergence threshold is measured in (default: largest
    /// absolute entry change).
    pub norm: ToleranceNorm,
    /// Update damping `λ ∈ [0, 1)`: `B̂ ← (1−λ)·B̂_new + λ·B̂_old`. 0 (the
    /// default) is the paper's plain update; small values can rescue
    /// oscillating runs near the spectral threshold.
    pub damping: f64,
    /// Belief magnitude beyond which the run is declared divergent.
    pub divergence_guard: f64,
    /// Serial vs. pooled execution of the SpMM / dense kernels. Results
    /// are bitwise identical for every thread count; the default follows
    /// `LSBP_THREADS`.
    pub parallelism: ParallelismConfig,
}

impl Default for LinBpOptions {
    fn default() -> Self {
        Self {
            max_iter: 200,
            tol: 1e-12,
            norm: ToleranceNorm::MaxAbs,
            damping: 0.0,
            divergence_guard: 1e12,
            parallelism: ParallelismConfig::default(),
        }
    }
}

/// Result of a LinBP/LinBP\* run.
#[derive(Clone, Debug)]
pub struct LinBpResult {
    /// Final residual beliefs `B̂`.
    pub beliefs: BeliefMatrix,
    /// Whether the update met `tol` before `max_iter`.
    pub converged: bool,
    /// `true` when the divergence guard tripped (spectral radius ≥ 1).
    pub diverged: bool,
    /// Rounds executed.
    pub iterations: usize,
    /// Largest absolute belief change in the final round.
    pub final_delta: f64,
    /// Rows this query recomputed across its rounds (active-frontier
    /// execution). In a batch each query counts only its own rows, so
    /// this equals the query's solo solve.
    pub rows_active: u64,
    /// Rows this query skipped across its rounds because their inputs
    /// were bitwise unchanged; `rows_active + rows_skipped = n ×
    /// iterations`.
    pub rows_skipped: u64,
}

/// Errors from the LinBP family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinBpError {
    /// Adjacency and explicit-belief node counts differ.
    DimensionMismatch,
    /// Residual coupling arity differs from the beliefs' `k`.
    CouplingArityMismatch,
}

impl std::fmt::Display for LinBpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinBpError::DimensionMismatch => write!(f, "adjacency/beliefs node count mismatch"),
            LinBpError::CouplingArityMismatch => write!(f, "coupling arity mismatch"),
        }
    }
}

impl std::error::Error for LinBpError {}

/// Runs **LinBP** (Eq. 6, with echo cancellation) against any
/// [`PropagationOperator`]: a resident [`lsbp_sparse::CsrMatrix`], a
/// [`lsbp_sparse::ShardedCsr`] or a paged store ([`crate::spill_paged`]).
/// Results are bitwise identical for every backend honoring the operator
/// contract.
///
/// `h_residual` is the scaled residual coupling matrix `Ĥ = εH·Ĥo`.
pub fn linbp_on<A: PropagationOperator + ?Sized>(
    adj: &A,
    explicit: &ExplicitBeliefs,
    h_residual: &Mat,
    opts: &LinBpOptions,
) -> Result<LinBpResult, LinBpError> {
    linbp_observed(adj, explicit, h_residual, opts, true, |_| {})
}

/// Runs **LinBP\*** (Eq. 7, echo cancellation dropped); see [`linbp_on`].
pub fn linbp_star_on<A: PropagationOperator + ?Sized>(
    adj: &A,
    explicit: &ExplicitBeliefs,
    h_residual: &Mat,
    opts: &LinBpOptions,
) -> Result<LinBpResult, LinBpError> {
    linbp_observed(adj, explicit, h_residual, opts, false, |_| {})
}

/// [`linbp_on`] / [`linbp_star_on`] (`echo` selects Eq. 6 vs. Eq. 7) with
/// a per-iteration observer: `observer` fires after every update round
/// with the round number and belief delta — the instrumentation hook
/// behind the Fig. 7d per-iteration timing harness. The last event's
/// delta is the result's `final_delta`. One query through the batched
/// driver.
pub fn linbp_observed<A: PropagationOperator + ?Sized>(
    adj: &A,
    explicit: &ExplicitBeliefs,
    h_residual: &Mat,
    opts: &LinBpOptions,
    echo: bool,
    observer: impl FnMut(&IterationEvent),
) -> Result<LinBpResult, LinBpError> {
    let queries = std::slice::from_ref(explicit);
    let mut runs = linbp_batch_run_on(adj, queries, h_residual, opts, echo, observer)?;
    Ok(runs.pop().expect("one result per query"))
}

/// Incremental LinBP under explicit-belief changes — the Sect. 8 "future
/// work" item (LINVIEW-style maintenance), solved here by linearity:
///
/// Since `vec(B̂) = (I − M)⁻¹·vec(Ê)` is *linear* in `Ê` (Proposition 7),
/// a change `Ê → Ê + ΔÊ` changes the solution by exactly the LinBP
/// fixpoint of `ΔÊ` alone:
///
/// ```text
/// B̂(Ê + ΔÊ) = B̂(Ê) + B̂(ΔÊ)
/// ```
///
/// So the update runs LinBP with the (typically very sparse) delta as the
/// only explicit beliefs and adds the result onto the previous beliefs —
/// no recomputation of the full system, and updates compose/commute. The
/// convergence criteria are unchanged (they depend only on `A` and `Ĥ`).
///
/// Note the contrast with ΔSBP (Algorithm 3): SBP needs bookkeeping
/// (geodesic numbers) because its semantics is non-linear in the label
/// *set*; LinBP's linearity makes incremental maintenance exact and
/// stateless.
pub fn linbp_update<A: PropagationOperator + ?Sized>(
    adj: &A,
    previous: &BeliefMatrix,
    delta_explicit: &ExplicitBeliefs,
    h_residual: &Mat,
    opts: &LinBpOptions,
    echo: bool,
) -> Result<LinBpResult, LinBpError> {
    let deltas = std::slice::from_ref(delta_explicit);
    let mut runs = linbp_update_batch_on(adj, &[previous], deltas, h_residual, opts, echo)?;
    Ok(runs.pop().expect("one result per query"))
}

/// The binary-case (`k = 2`) reduction of Appendix E: LinBP specializes to
/// the FABP-style scalar system
/// `b̂ = (I − c₁·A + c₂·D)⁻¹ ê` with `c₁ = 2ĥ/(1−4ĥ²)`, `c₂ = 4ĥ²/(1−4ĥ²)`,
/// where `ĥ` is the scalar residual (`Ĥ = [[ĥ, −ĥ], [−ĥ, ĥ]]`) and `b̂`/`ê`
/// hold the first belief dimension per node.
pub mod binary {
    /// The coefficients `(c₁, c₂)` of the Appendix E scalar system.
    pub fn fabp_coefficients(h_hat: f64) -> (f64, f64) {
        let denom = 1.0 - 4.0 * h_hat * h_hat;
        (2.0 * h_hat / denom, 4.0 * h_hat * h_hat / denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coupling::CouplingMatrix;
    use lsbp_graph::generators::{cycle, fig5c_torus, path};
    use lsbp_sparse::FusedLinBpStep;

    fn seed(n: usize, k: usize) -> ExplicitBeliefs {
        let mut e = ExplicitBeliefs::new(n, k);
        e.set_label(0, 0, 0.1).unwrap();
        e
    }

    #[test]
    fn converges_on_path_homophily() {
        let adj = path(6).adjacency();
        let e = seed(6, 2);
        let h = CouplingMatrix::fig1a().unwrap().scaled_residual(0.2);
        let r = linbp_on(&adj, &e, &h, &LinBpOptions::default()).unwrap();
        assert!(r.converged && !r.diverged);
        for v in 0..6 {
            assert_eq!(r.beliefs.top_beliefs(v, 1e-9), vec![0], "node {v}");
        }
    }

    #[test]
    fn heterophily_alternates() {
        let adj = path(4).adjacency();
        let e = seed(4, 2);
        let h = CouplingMatrix::fig1b().unwrap().scaled_residual(0.2);
        let r = linbp_on(&adj, &e, &h, &LinBpOptions::default()).unwrap();
        assert!(r.converged);
        assert_eq!(r.beliefs.top_beliefs(0, 1e-9), vec![0]);
        assert_eq!(r.beliefs.top_beliefs(1, 1e-9), vec![1]);
        assert_eq!(r.beliefs.top_beliefs(2, 1e-9), vec![0]);
        assert_eq!(r.beliefs.top_beliefs(3, 1e-9), vec![1]);
    }

    /// The fixed point satisfies the implicit equation
    /// `B̂ = Ê + A·B̂·Ĥ − D·B̂·Ĥ²` (Eq. 4).
    #[test]
    fn fixed_point_satisfies_equation() {
        let adj = fig5c_torus().adjacency();
        let mut e = ExplicitBeliefs::new(8, 3);
        e.set_residual(0, &[2.0, -1.0, -1.0]).unwrap();
        e.set_residual(1, &[-1.0, 2.0, -1.0]).unwrap();
        e.set_residual(2, &[-1.0, -1.0, 2.0]).unwrap();
        let coupling = CouplingMatrix::fig1c().unwrap();
        let h = coupling.scaled_residual(0.2);
        let r = linbp_on(
            &adj,
            &e,
            &h,
            &LinBpOptions {
                max_iter: 2000,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.converged);
        let b = r.beliefs.residual();
        // Recompute the RHS and compare.
        let h2 = h.matmul(&h);
        let degrees = adj.squared_weight_degrees();
        let step = FusedLinBpStep {
            e_hat: e.residual_matrix(),
            h: &h,
            h2: Some(&h2),
            degrees,
            damping: 0.0,
        };
        let mut rhs = Mat::zeros(8, 3);
        adj.linbp_step_fused_with(b, &step, &mut rhs, &mut [0.0], &ParallelismConfig::serial());
        assert!(b.max_abs_diff(&rhs) < 1e-9);
    }

    /// Above the spectral threshold, LinBP diverges and says so.
    #[test]
    fn divergence_detected() {
        let adj = cycle(8).adjacency();
        let e = seed(8, 2);
        // ρ(A) = 2 for a cycle; residual fig1a at scale 1.0 has ρ(Ĥ) = 0.6
        // → ρ = 1.2 > 1: must diverge.
        let h = CouplingMatrix::fig1a().unwrap().scaled_residual(1.0);
        let r = linbp_star_on(
            &adj,
            &e,
            &h,
            &LinBpOptions {
                max_iter: 2000,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.diverged);
        assert!(!r.converged);
    }

    /// Lemma 12: scaling Ê scales B̂ linearly.
    #[test]
    fn scaling_explicit_scales_beliefs() {
        let adj = path(5).adjacency();
        let e = seed(5, 2);
        let h = CouplingMatrix::fig1a().unwrap().scaled_residual(0.2);
        let opts = LinBpOptions {
            max_iter: 5000,
            tol: 1e-14,
            ..Default::default()
        };
        let r1 = linbp_on(&adj, &e, &h, &opts).unwrap();
        let r2 = linbp_on(&adj, &e.scaled(7.0), &h, &opts).unwrap();
        let scaled = r1.beliefs.residual().scale(7.0);
        assert!(scaled.max_abs_diff(r2.beliefs.residual()) < 1e-8);
    }

    /// LinBP* equals LinBP with the echo term removed: on a star graph with
    /// tiny εH both give nearly identical labels but different magnitudes.
    #[test]
    fn star_vs_echo_differ_in_magnitude() {
        let adj = lsbp_graph::generators::star(6).adjacency();
        let e = seed(6, 2);
        let h = CouplingMatrix::fig1a().unwrap().scaled_residual(0.2);
        let with_echo = linbp_on(&adj, &e, &h, &LinBpOptions::default()).unwrap();
        let without = linbp_star_on(&adj, &e, &h, &LinBpOptions::default()).unwrap();
        assert!(with_echo.converged && without.converged);
        assert!(
            with_echo
                .beliefs
                .residual()
                .max_abs_diff(without.beliefs.residual())
                > 1e-9,
            "echo cancellation must change magnitudes"
        );
        assert_eq!(
            with_echo.beliefs.top_belief_assignment(1e-9),
            without.beliefs.top_belief_assignment(1e-9)
        );
    }

    #[test]
    fn timing_mode_runs_fixed_rounds() {
        let adj = path(4).adjacency();
        let e = seed(4, 2);
        let h = CouplingMatrix::fig1a().unwrap().scaled_residual(0.1);
        let r = linbp_on(
            &adj,
            &e,
            &h,
            &LinBpOptions {
                max_iter: 5,
                tol: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.iterations, 5);
    }

    /// `linbp_observed` fires one event per round, numbered
    /// `1..=iterations`, and the last event carries `final_delta` bit for
    /// bit — converging, divergent, fixed-budget and L2 runs alike.
    #[test]
    fn observer_events_match_result() {
        let adj = lsbp_graph::generators::erdos_renyi_gnm(40, 100, 3).adjacency();
        let mut e = ExplicitBeliefs::new(40, 3);
        e.set_label(0, 0, 1.0).unwrap();
        e.set_label(17, 2, 1.0).unwrap();
        let ho = CouplingMatrix::fig1c().unwrap().residual();
        let eps_max = crate::convergence::eps_max_exact_linbp(&ho, &adj, 1e-4);
        let converging = LinBpOptions {
            max_iter: 1000,
            ..Default::default()
        };
        let cases = [
            ("converging", 0.5, converging),
            ("divergent", 2.0, converging),
            (
                "fixed-budget",
                0.5,
                LinBpOptions {
                    max_iter: 9,
                    tol: 0.0,
                    ..Default::default()
                },
            ),
            (
                "l2",
                0.5,
                LinBpOptions {
                    norm: ToleranceNorm::L2,
                    ..converging
                },
            ),
        ];
        for (label, eps_factor, opts) in cases {
            let h = ho.scale(eps_factor * eps_max);
            for echo in [true, false] {
                let mut events = Vec::new();
                let r = linbp_observed(&adj, &e, &h, &opts, echo, |ev| {
                    events.push((ev.iteration, ev.delta));
                })
                .unwrap();
                match label {
                    "divergent" => assert!(r.diverged, "{label} echo {echo}"),
                    "fixed-budget" => assert_eq!(r.iterations, 9, "{label} echo {echo}"),
                    _ => assert!(r.converged, "{label} echo {echo}"),
                }
                let rounds: Vec<usize> = events.iter().map(|&(i, _)| i).collect();
                assert_eq!(rounds, (1..=r.iterations).collect::<Vec<_>>(), "{label}");
                let last = events.last().expect("at least one round").1;
                assert_eq!(
                    last.to_bits(),
                    r.final_delta.to_bits(),
                    "{label} echo {echo}"
                );
            }
        }
    }

    #[test]
    fn error_cases() {
        let adj = path(3).adjacency();
        let e = ExplicitBeliefs::new(4, 2);
        let h = CouplingMatrix::fig1a().unwrap().scaled_residual(0.1);
        assert!(matches!(
            linbp_on(&adj, &e, &h, &LinBpOptions::default()),
            Err(LinBpError::DimensionMismatch)
        ));
        let e3 = ExplicitBeliefs::new(3, 3);
        assert!(matches!(
            linbp_on(&adj, &e3, &h, &LinBpOptions::default()),
            Err(LinBpError::CouplingArityMismatch)
        ));
    }

    /// Weighted graphs: a heavier edge pulls the label harder (Sect. 5.2).
    #[test]
    fn weighted_edges_scale_influence() {
        // Node 1 is connected to seeds 0 (weight 3) and 2 (weight 1) with
        // opposite labels; the heavier neighbor wins.
        let mut g = lsbp_graph::Graph::new(3);
        g.add_edge(0, 1, 3.0);
        g.add_edge(1, 2, 1.0);
        let adj = g.adjacency();
        let mut e = ExplicitBeliefs::new(3, 2);
        e.set_label(0, 0, 0.1).unwrap();
        e.set_label(2, 1, 0.1).unwrap();
        let h = CouplingMatrix::fig1a().unwrap().scaled_residual(0.05);
        let r = linbp_on(&adj, &e, &h, &LinBpOptions::default()).unwrap();
        assert!(r.converged);
        assert_eq!(r.beliefs.top_beliefs(1, 1e-9), vec![0]);
    }

    /// Incremental LinBP (linearity) equals recomputation from scratch.
    #[test]
    fn incremental_update_matches_scratch() {
        let adj = lsbp_graph::generators::erdos_renyi_gnm(40, 100, 6).adjacency();
        let coupling = CouplingMatrix::fig1c().unwrap();
        let h = coupling.scaled_residual(0.03);
        let opts = LinBpOptions {
            max_iter: 50_000,
            tol: 1e-14,
            ..Default::default()
        };
        let mut base = ExplicitBeliefs::new(40, 3);
        base.set_label(0, 0, 1.0).unwrap();
        base.set_label(9, 1, 1.0).unwrap();
        let prev = linbp_on(&adj, &base, &h, &opts).unwrap();
        assert!(prev.converged);

        // Delta: one new label + one label *change* (expressed as the
        // residual difference new − old).
        let mut delta = ExplicitBeliefs::new(40, 3);
        delta.set_label(25, 2, 1.0).unwrap();
        let old_row: Vec<f64> = base.row(9).to_vec();
        let new_row = crate::beliefs::centered_one_hot(3, 2, 1.0);
        let diff: Vec<f64> = new_row.iter().zip(&old_row).map(|(n, o)| n - o).collect();
        delta.set_residual(9, &diff).unwrap();

        let incremental = linbp_update(&adj, &prev.beliefs, &delta, &h, &opts, true).unwrap();

        let mut full = base.clone();
        full.set_label(25, 2, 1.0).unwrap();
        full.set_label(9, 2, 1.0).unwrap();
        let scratch = linbp_on(&adj, &full, &h, &opts).unwrap();
        assert!(
            incremental
                .beliefs
                .residual()
                .max_abs_diff(scratch.beliefs.residual())
                < 1e-9
        );
    }

    /// Incremental updates compose: applying two deltas sequentially equals
    /// applying their sum.
    #[test]
    fn incremental_updates_compose() {
        let adj = lsbp_graph::generators::grid_2d(5, 5).adjacency();
        let h = CouplingMatrix::fig1a().unwrap().scaled_residual(0.1);
        let opts = LinBpOptions {
            max_iter: 50_000,
            tol: 1e-14,
            ..Default::default()
        };
        let base = ExplicitBeliefs::new(25, 2);
        let prev = linbp_on(&adj, &base, &h, &opts).unwrap();
        let mut d1 = ExplicitBeliefs::new(25, 2);
        d1.set_label(3, 0, 1.0).unwrap();
        let mut d2 = ExplicitBeliefs::new(25, 2);
        d2.set_label(21, 1, 1.0).unwrap();
        let seq = {
            let s1 = linbp_update(&adj, &prev.beliefs, &d1, &h, &opts, true).unwrap();
            linbp_update(&adj, &s1.beliefs, &d2, &h, &opts, true).unwrap()
        };
        let mut both = ExplicitBeliefs::new(25, 2);
        both.set_label(3, 0, 1.0).unwrap();
        both.set_label(21, 1, 1.0).unwrap();
        let combined = linbp_update(&adj, &prev.beliefs, &both, &h, &opts, true).unwrap();
        assert!(
            seq.beliefs
                .residual()
                .max_abs_diff(combined.beliefs.residual())
                < 1e-9
        );
    }

    #[test]
    fn binary_coefficients() {
        let (c1, c2) = binary::fabp_coefficients(0.1);
        assert!((c1 - 0.2 / 0.96).abs() < 1e-12);
        assert!((c2 - 0.04 / 0.96).abs() < 1e-12);
    }
}
