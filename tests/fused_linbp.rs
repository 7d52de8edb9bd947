//! Contract of the fused LinBP step (PR 4): the one-pass fused kernel
//! ([`CsrMatrix::linbp_step_fused_with`]) must reproduce the unfused
//! reference composition (the test-support `linbp_step` + the separate
//! convergence pass) — the ISSUE bound is 1e-12, the kernel actually
//! delivers *bitwise* equality because every sub-step keeps the unfused
//! accumulation order — and the solver entry points built on it must stay
//! bitwise identical across thread counts.

use lsbp::prelude::*;
use lsbp_bench::kronecker_style_beliefs;
use lsbp_graph::generators::{erdos_renyi_gnm, kronecker_graph};
use lsbp_linalg::Mat;
use lsbp_sparse::{CsrMatrix, FrontierState, FusedLinBpStep, PropagationOperator, QuerySweep};
use proptest::prelude::*;

mod support;
use support::{bits_equal, unfused_linbp, unfused_linbp_observed};

fn sweep() -> Vec<ParallelismConfig> {
    [1usize, 2, 8]
        .into_iter()
        .map(|t| ParallelismConfig::with_threads(t).with_min_work(1))
        .collect()
}

/// Options for exactly `iters` reference rounds: no tolerance, no
/// magnitude guard.
fn fixed_rounds(damping: f64, iters: usize, cfg: ParallelismConfig) -> LinBpOptions {
    LinBpOptions {
        max_iter: iters,
        tol: 0.0,
        damping,
        divergence_guard: f64::INFINITY,
        parallelism: cfg,
        ..Default::default()
    }
}

/// The same rounds through the fused kernel.
#[allow(clippy::too_many_arguments)]
fn fused_iterations(
    adj: &CsrMatrix,
    e_hat: &Mat,
    h: &Mat,
    h2: Option<&Mat>,
    degrees: &[f64],
    damping: f64,
    iters: usize,
    cfg: &ParallelismConfig,
) -> (Mat, f64) {
    let (n, k) = (e_hat.rows(), e_hat.cols());
    let mut b = e_hat.clone();
    let mut next = Mat::zeros(n, k);
    let mut deltas = [f64::INFINITY];
    let step = FusedLinBpStep {
        e_hat,
        h,
        h2,
        degrees,
        damping,
    };
    for _ in 0..iters {
        adj.linbp_step_fused_with(&b, &step, &mut next, &mut deltas, cfg);
        std::mem::swap(&mut b, &mut next);
    }
    (b, deltas[0])
}

/// `iters` consecutive full steps (`b ← step(b)`, double-buffered like
/// the solvers) of `q` side-by-side queries through
/// [`PropagationOperator::linbp_step_fused_with`]. Returns every
/// iteration's output and per-query deltas.
#[allow(clippy::too_many_arguments)]
fn stacked_trajectory(
    adj: &CsrMatrix,
    e_hat: &Mat,
    h: &Mat,
    h2: Option<&Mat>,
    degrees: &[f64],
    damping: f64,
    q: usize,
    iters: usize,
    cfg: &ParallelismConfig,
) -> Vec<(Mat, Vec<f64>)> {
    let step = FusedLinBpStep {
        e_hat,
        h,
        h2,
        degrees,
        damping,
    };
    let mut b = e_hat.clone();
    let mut next = Mat::zeros(e_hat.rows(), e_hat.cols());
    let mut trajectory = Vec::with_capacity(iters);
    for _ in 0..iters {
        let mut deltas = vec![f64::NAN; q];
        adj.linbp_step_fused_with(&b, &step, &mut next, &mut deltas, cfg);
        std::mem::swap(&mut b, &mut next);
        trajectory.push((b.clone(), deltas));
    }
    trajectory
}

/// A query's output buffer once it freezes: a NaN no step produces, so
/// any write shows.
const SENTINEL: u64 = 0x7FF4_0000_0000_BEEF;

/// `iters` sweeps of the frontier step over per-query buffers, the way
/// the batch driver runs them: query `j` starts from its own seeds and
/// is live for its first `live_for[j]` sweeps; then it leaves the sweep,
/// its current buffer keeps its beliefs and its output buffer is filled
/// with [`SENTINEL`]. Returns, per sweep and query, the query's current
/// beliefs and, while it ran, its delta; and, per query, its output
/// buffer and frontier counters at the end.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn lockstep_trajectory(
    adj: &CsrMatrix,
    singles: &[Mat],
    h: &Mat,
    h2: Option<&Mat>,
    degrees: &[f64],
    damping: f64,
    live_for: &[usize],
    iters: usize,
    cfg: &ParallelismConfig,
) -> (Vec<Vec<(Mat, Option<f64>)>>, Vec<(Mat, u64, u64)>) {
    let plan = adj.frontier_plan();
    let mut b: Vec<Mat> = singles.to_vec();
    let mut next: Vec<Mat> = singles
        .iter()
        .map(|e| Mat::zeros(e.rows(), e.cols()))
        .collect();
    let mut frontiers: Vec<FrontierState<'_>> = singles
        .iter()
        .map(|e| FrontierState::from_seeds(plan, e))
        .collect();
    let mut trajectory = Vec::with_capacity(iters);
    for sweep in 0..iters {
        for (j, out) in next.iter_mut().enumerate() {
            if live_for[j] == sweep {
                out.as_mut_slice().fill(f64::from_bits(SENTINEL));
            }
        }
        let mut sweeps: Vec<QuerySweep<'_, '_>> = singles
            .iter()
            .zip(&b)
            .zip(next.iter_mut())
            .zip(frontiers.iter_mut())
            .enumerate()
            .filter(|&(j, _)| sweep < live_for[j])
            .map(|(_, (((e_hat, b), out), frontier))| QuerySweep {
                step: FusedLinBpStep {
                    e_hat,
                    h,
                    h2,
                    degrees,
                    damping,
                },
                b,
                out,
                frontier,
                delta: f64::NAN,
            })
            .collect();
        adj.linbp_step_fused_frontier_with(&mut sweeps, cfg);
        let mut deltas = sweeps
            .into_iter()
            .map(|s| s.delta)
            .collect::<Vec<_>>()
            .into_iter();
        let mut round = Vec::with_capacity(singles.len());
        for j in 0..singles.len() {
            let mut delta = None;
            if sweep < live_for[j] {
                frontiers[j].commit();
                std::mem::swap(&mut b[j], &mut next[j]);
                delta = deltas.next();
            }
            round.push((b[j].clone(), delta));
        }
        trajectory.push(round);
    }
    let ends = next
        .into_iter()
        .zip(&frontiers)
        .map(|(out, f)| (out, f.rows_active, f.rows_skipped))
        .collect();
    (trajectory, ends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused vs. unfused on random graphs: within 1e-12 (the ISSUE
    /// bound) and in fact bitwise equal, for every echo/damping variant
    /// and class count — including k = 5, which exercises the generic
    /// (non-width-specialized) kernel on the single-query path.
    #[test]
    fn fused_step_matches_unfused_reference(
        n in 2usize..40,
        edges in 1usize..120,
        seed in 0u64..1000,
        k in 2usize..6,
        echo_flag in 0usize..2,
        damp_flag in 0usize..2,
    ) {
        let edges = edges.min(n * (n - 1) / 2);
        let adj = erdos_renyi_gnm(n, edges, seed).adjacency();
        let e = kronecker_style_beliefs(n, k, (n / 4).max(1), seed ^ 7, false);
        let e_hat = e.residual_matrix();
        let h = Mat::from_fn(k, k, |r, c| {
            0.07 * ((((r * k + c + seed as usize) % 11) as f64) - 5.0) / 5.0
        });
        let h2 = h.matmul(&h);
        let degrees = adj.squared_weight_degrees();
        let echo = echo_flag == 1;
        let damping = if damp_flag == 1 { 0.2 } else { 0.0 };
        let cfg = ParallelismConfig::serial();
        let want = unfused_linbp(&adj, e_hat, &h, echo, &fixed_rounds(damping, 4, cfg));
        let (got, got_delta) = fused_iterations(
            &adj, e_hat, &h, echo.then_some(&h2), degrees, damping, 4, &cfg);
        prop_assert!(want.beliefs.max_abs_diff(&got) <= 1e-12, "beyond the 1e-12 contract");
        prop_assert!(bits_equal(&want.beliefs, &got), "fused != unfused bitwise");
        prop_assert_eq!(want.final_delta.to_bits(), got_delta.to_bits());
    }

    /// The fused trajectory is bitwise identical across thread counts.
    #[test]
    fn fused_iterations_bitwise_identical_across_threads(
        n in 2usize..40,
        edges in 1usize..120,
        seed in 0u64..1000,
    ) {
        let edges = edges.min(n * (n - 1) / 2);
        let adj = erdos_renyi_gnm(n, edges, seed).adjacency();
        let e = kronecker_style_beliefs(n, 3, (n / 4).max(1), seed, false);
        let e_hat = e.residual_matrix();
        let h = Mat::from_fn(3, 3, |r, c| if r == c { 0.1 } else { -0.05 });
        let h2 = h.matmul(&h);
        let degrees = adj.squared_weight_degrees();
        let serial = fused_iterations(
            &adj, e_hat, &h, Some(&h2), degrees, 0.0, 5, &ParallelismConfig::serial());
        for cfg in sweep() {
            let par = fused_iterations(&adj, e_hat, &h, Some(&h2), degrees, 0.0, 5, &cfg);
            prop_assert!(bits_equal(&serial.0, &par.0), "threads = {}", cfg.threads());
            prop_assert_eq!(serial.1.to_bits(), par.1.to_bits(), "threads = {}", cfg.threads());
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batching `q` queries changes no bit: every query of every
    /// iterate, and every per-query delta, equals round for round the
    /// plain-loop oracle (`support::unfused_linbp_observed`: no
    /// tolerance, no guard, same damping and echo) run on that query
    /// alone — for both kernels (k ∈ 2..=5), q = 1 and q ≥ 2 up to past
    /// 64 queries, with and without echo and damping, serial and on 4
    /// threads. Two paths: the frontier step over per-query buffers,
    /// each query tracking change from its own seeds (every fifth query
    /// has none) and some freezing mid-run — a frozen query's beliefs
    /// stay as they were and its output buffer is never written again —
    /// and the full step over `q` side-by-side queries.
    #[test]
    fn stacked_step_matches_single_query_steps(
        n in 2usize..40,
        edges in 1usize..120,
        seed in 0u64..1000,
        k in 2usize..6,
        q in 1usize..37,
        wide in 0usize..4,
        echo_flag in 0usize..2,
        damp_flag in 0usize..2,
        threaded in 0usize..2,
        frontier_flag in 0usize..2,
    ) {
        let edges = edges.min(n * (n - 1) / 2);
        let adj = erdos_renyi_gnm(n, edges, seed).adjacency();
        let h = Mat::from_fn(k, k, |r, c| {
            0.07 * ((((r * k + c + seed as usize) % 11) as f64) - 5.0) / 5.0
        });
        let h2 = h.matmul(&h);
        let h2 = (echo_flag == 1).then_some(&h2);
        let degrees = adj.squared_weight_degrees();
        let damping = if damp_flag == 1 { 0.2 } else { 0.0 };
        let q = if wide == 0 { 60 + q % 12 } else { q };
        let singles: Vec<Mat> = (0..q)
            .map(|j| {
                if j % 5 == 4 {
                    return Mat::zeros(n, k);
                }
                let seeds = (n / 4).max(1).min(1 + j % 3);
                kronecker_style_beliefs(n, k, seeds, seed ^ (j as u64 * 31 + 7), false)
                    .residual_matrix()
                    .clone()
            })
            .collect();
        let cfg = if threaded == 1 {
            ParallelismConfig::with_threads(4).with_min_work(1)
        } else {
            ParallelismConfig::serial()
        };
        let iters = 4;
        let opts = fixed_rounds(damping, iters, ParallelismConfig::serial());
        let oracle: Vec<Vec<(Mat, f64)>> = singles
            .iter()
            .map(|e| {
                let mut rounds = Vec::with_capacity(iters);
                unfused_linbp_observed(&adj, e, &h, echo_flag == 1, &opts, |old, new| {
                    rounds.push((new.clone(), new.max_abs_diff(old)));
                });
                rounds
            })
            .collect();
        prop_assert!(oracle.iter().all(|rounds| rounds.len() == iters));
        if frontier_flag == 1 {
            // Query j freezes after sweep 1, 2 or 3, or runs all 4.
            let live_for: Vec<usize> = (0..q).map(|j| 1 + (j + seed as usize) % iters).collect();
            let (trajectory, ends) = lockstep_trajectory(
                &adj, &singles, &h, h2, degrees, damping, &live_for, iters, &cfg);
            for (j, rounds) in oracle.iter().enumerate() {
                for (it, round) in trajectory.iter().enumerate() {
                    let (got, got_d) = &round[j];
                    let live = it < live_for[j];
                    let (want, want_d) = &rounds[it.min(live_for[j] - 1)];
                    prop_assert!(
                        bits_equal(got, want),
                        "k={} q={} query {} iteration {} (live {}): beliefs differ",
                        k, q, j, it, live
                    );
                    prop_assert_eq!(
                        got_d.map(f64::to_bits),
                        live.then_some(want_d.to_bits()),
                        "k={} q={} query {} iteration {}: delta differs", k, q, j, it
                    );
                }
                let (out, active, skipped) = &ends[j];
                if live_for[j] < iters {
                    prop_assert!(
                        out.as_slice().iter().all(|x| x.to_bits() == SENTINEL),
                        "k={} q={} query {}: a frozen query's buffer was written", k, q, j
                    );
                }
                prop_assert_eq!(
                    active + skipped,
                    (n * live_for[j]) as u64,
                    "k={} q={} query {}: counted only while live", k, q, j
                );
            }
        } else {
            let e_hat = Mat::from_fn(n, k * q, |r, c| singles[c / k][(r, c % k)]);
            let stacked = stacked_trajectory(
                &adj, &e_hat, &h, h2, degrees, damping, q, iters, &cfg);
            for (j, rounds) in oracle.iter().enumerate() {
                for (it, ((got, got_d), (want, want_d))) in stacked.iter().zip(rounds).enumerate() {
                    let block = Mat::from_fn(n, k, |r, c| got[(r, j * k + c)]);
                    prop_assert!(
                        bits_equal(&block, want),
                        "k={} q={} query {} iteration {}: block differs", k, q, j, it
                    );
                    prop_assert_eq!(
                        got_d[j].to_bits(),
                        want_d.to_bits(),
                        "k={} q={} query {} iteration {}: delta differs", k, q, j, it
                    );
                }
            }
        }
    }
}

/// The full solver entry point (now fused inside) still reproduces the
/// Prop 7 closed-form fixed point — the golden contract that lets the
/// fused rewrite ride under the existing 1e-10 tolerance.
#[test]
fn solver_on_fused_kernel_satisfies_fixed_point_equation() {
    let adj = kronecker_graph(5).adjacency();
    let n = adj.n_rows();
    let e = kronecker_style_beliefs(n, 3, n / 10, 3, false);
    // Scale safely below the exact spectral threshold (Lemma 8).
    let ho = CouplingMatrix::fig6b_residual();
    let eps = 0.5 * lsbp::convergence::eps_max_exact_linbp(&ho, &adj, 1e-4);
    let h = ho.scale(eps);
    let r = linbp_on(
        &adj,
        &e,
        &h,
        &LinBpOptions {
            max_iter: 5000,
            tol: 1e-12,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(r.converged, "final_delta = {}", r.final_delta);
    // The fixed point satisfies B̂ = Ê + A·B̂·Ĥ − D·B̂·Ĥ² (Eq. 4): one
    // fused step applied *at* the solution must return the solution.
    let degrees = adj.squared_weight_degrees();
    let h2 = h.matmul(&h);
    let mut out = Mat::zeros(n, 3);
    let mut deltas = [0.0f64];
    adj.linbp_step_fused_with(
        r.beliefs.residual(),
        &FusedLinBpStep {
            e_hat: e.residual_matrix(),
            h: &h,
            h2: Some(&h2),
            degrees,
            damping: 0.0,
        },
        &mut out,
        &mut deltas,
        &ParallelismConfig::serial(),
    );
    assert!(out.max_abs_diff(r.beliefs.residual()) < 1e-9);
    assert!(deltas[0] < 1e-9);
}

/// Damping flows through the fused kernel: a damped run equals the
/// damped unfused trajectory bitwise at every thread count.
#[test]
fn damped_solver_bitwise_identical_across_threads() {
    let adj = erdos_renyi_gnm(150, 450, 17).adjacency();
    let e = kronecker_style_beliefs(150, 3, 12, 9, false);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
    let opts = |cfg| LinBpOptions {
        damping: 0.35,
        max_iter: 60,
        tol: 0.0,
        parallelism: cfg,
        ..Default::default()
    };
    let serial = linbp_on(&adj, &e, &h, &opts(ParallelismConfig::serial())).unwrap();
    for cfg in sweep() {
        let par = linbp_on(&adj, &e, &h, &opts(cfg)).unwrap();
        assert!(
            bits_equal(par.beliefs.residual(), serial.beliefs.residual()),
            "damped LinBP differs under {cfg:?}"
        );
        assert_eq!(par.final_delta.to_bits(), serial.final_delta.to_bits());
    }
    // And the damped trajectory equals the unfused damped reference.
    let unfused = unfused_linbp(
        &adj,
        e.residual_matrix(),
        &h,
        true,
        &fixed_rounds(0.35, 60, ParallelismConfig::serial()),
    );
    assert!(bits_equal(&unfused.beliefs, serial.beliefs.residual()));
}
