//! End-to-end reproduction of Example 20 (the detailed worked example of
//! the paper, Fig. 4 and Fig. 5c).
//!
//! Checks every number the paper reports for the 8-node torus:
//! ρ(A) ≈ 2.414, ρ(Ĥo) ≈ 0.629, the exact convergence thresholds
//! εH ≈ 0.488 (LinBP) and ≈ 0.658 (LinBP\*), the norm-based sufficient
//! thresholds ≈ 0.360 / ≈ 0.455, the SBP standardized beliefs of v4
//! [−0.069, 1.258, −1.189], and the σ(b̂v4) ≈ 3εH·0.332 scaling law of
//! Fig. 4d.

use lsbp::prelude::*;
use lsbp_graph::generators::{fig5c_torus, TORUS_EXPLICIT_NODES, TORUS_V4};
use lsbp_linalg::spectral_radius_dense_symmetric;

fn explicit() -> ExplicitBeliefs {
    let mut e = ExplicitBeliefs::new(8, 3);
    e.set_residual(0, &[2.0, -1.0, -1.0]).unwrap();
    e.set_residual(1, &[-1.0, 2.0, -1.0]).unwrap();
    e.set_residual(2, &[-1.0, -1.0, 2.0]).unwrap();
    e
}

#[test]
fn spectral_radii_match_paper() {
    let adj = fig5c_torus().adjacency();
    assert!((adj.spectral_radius() - 2.414).abs() < 0.001);
    let ho = CouplingMatrix::fig1c().unwrap().residual();
    assert!((spectral_radius_dense_symmetric(&ho) - 0.629).abs() < 0.001);
}

#[test]
fn convergence_thresholds_match_paper() {
    let adj = fig5c_torus().adjacency();
    let ho = CouplingMatrix::fig1c().unwrap().residual();
    assert!((eps_max_exact_linbp(&ho, &adj, 1e-5) - 0.488).abs() < 0.002);
    assert!((eps_max_exact_linbp_star(&ho, &adj) - 0.658).abs() < 0.002);
    assert!((eps_max_sufficient_linbp(&ho, &adj) - 0.360).abs() < 0.005);
    assert!((eps_max_sufficient_linbp_star(&ho, &adj) - 0.455).abs() < 0.005);
}

#[test]
fn sbp_v4_standardized_beliefs() {
    let graph = fig5c_torus();
    let ho = CouplingMatrix::fig1c().unwrap().residual();
    let result = sbp_on(
        &graph.adjacency(),
        &explicit(),
        &ho,
        &ParallelismConfig::default(),
    )
    .unwrap();
    let std = result.beliefs.standardized(TORUS_V4);
    assert!((std[0] - -0.069).abs() < 1e-3);
    assert!((std[1] - 1.258).abs() < 1e-3);
    assert!((std[2] - -1.189).abs() < 1e-3);
    // Geodesic structure: explicit nodes at 0, v4 at 3.
    for v in TORUS_EXPLICIT_NODES {
        assert_eq!(result.geodesics.geodesic(v), Some(0));
    }
    assert_eq!(result.geodesics.geodesic(TORUS_V4), Some(3));
}

/// Fig. 4(b,c): for decreasing εH, the standardized LinBP and LinBP\*
/// beliefs of v4 converge to the SBP values.
#[test]
fn linbp_converges_to_sbp_with_decreasing_eps() {
    let graph = fig5c_torus();
    let adj = graph.adjacency();
    let coupling = CouplingMatrix::fig1c().unwrap();
    let e = explicit();
    let sbp_std = sbp_on(
        &adj,
        &e,
        &coupling.residual(),
        &ParallelismConfig::default(),
    )
    .unwrap()
    .beliefs
    .standardized(TORUS_V4);

    let opts = LinBpOptions {
        max_iter: 10_000,
        tol: 1e-15,
        ..Default::default()
    };
    let mut last_err = f64::INFINITY;
    for eps in [0.3, 0.1, 0.03, 0.01] {
        let h = coupling.scaled_residual(eps);
        for echo in [true, false] {
            let r = if echo {
                linbp_on(&adj, &e, &h, &opts).unwrap()
            } else {
                linbp_star_on(&adj, &e, &h, &opts).unwrap()
            };
            assert!(r.converged, "eps={eps} echo={echo}");
            let std = r.beliefs.standardized(TORUS_V4);
            let err: f64 = std
                .iter()
                .zip(&sbp_std)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            if echo {
                assert!(
                    err < last_err * 1.01,
                    "monotone approach: eps={eps}, err={err}"
                );
                last_err = err;
            }
            if eps <= 0.01 {
                assert!(err < 0.02, "eps={eps} echo={echo}: err={err}");
            }
        }
    }
}

/// Fig. 4(d): σ(b̂v4) = ε³H·σ(Ĥo³(ê1+ê3)) ≈ ε³H·0.332 for small εH.
#[test]
fn sigma_scaling_law() {
    let graph = fig5c_torus();
    let adj = graph.adjacency();
    let coupling = CouplingMatrix::fig1c().unwrap();
    let e = explicit();
    let opts = LinBpOptions {
        max_iter: 20_000,
        tol: 1e-16,
        ..Default::default()
    };
    for eps in [0.02, 0.01, 0.005] {
        let h = coupling.scaled_residual(eps);
        let r = linbp_on(&adj, &e, &h, &opts).unwrap();
        assert!(r.converged);
        let sigma = r.beliefs.std_dev(TORUS_V4);
        let predicted = eps.powi(3) * 0.332;
        assert!(
            (sigma - predicted).abs() / predicted < 0.05,
            "eps={eps}: sigma={sigma}, predicted={predicted}"
        );
    }
}

/// Fig. 4(a): standard BP's standardized beliefs at v4 also approach SBP's
/// for small εH.
#[test]
fn bp_approaches_sbp_for_small_eps() {
    let graph = fig5c_torus();
    let adj = graph.adjacency();
    let coupling = CouplingMatrix::fig1c().unwrap();
    let e = explicit();
    let sbp_std = sbp_on(
        &adj,
        &e,
        &coupling.residual(),
        &ParallelismConfig::default(),
    )
    .unwrap()
    .beliefs
    .standardized(TORUS_V4);
    let r = bp(
        &adj,
        &e,
        &coupling.raw_at_scale(0.02),
        &BpOptions {
            max_iter: 500,
            tol: 1e-13,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(r.converged);
    let std = r.beliefs.standardized(TORUS_V4);
    for (a, b) in std.iter().zip(&sbp_std) {
        assert!((a - b).abs() < 0.05, "BP {std:?} vs SBP {sbp_std:?}");
    }
}

/// The εH thresholds really separate convergent from divergent *iterative*
/// behaviour (the "end of lines" in Fig. 4b/4c).
#[test]
fn iterates_diverge_past_threshold() {
    let graph = fig5c_torus();
    let adj = graph.adjacency();
    let coupling = CouplingMatrix::fig1c().unwrap();
    let e = explicit();
    let opts = LinBpOptions {
        max_iter: 20_000,
        tol: 1e-15,
        ..Default::default()
    };
    // LinBP: 0.488.
    let ok = linbp_on(&adj, &e, &coupling.scaled_residual(0.47), &opts).unwrap();
    assert!(ok.converged && !ok.diverged);
    let bad = linbp_on(&adj, &e, &coupling.scaled_residual(0.51), &opts).unwrap();
    assert!(bad.diverged);
    // LinBP*: 0.658.
    let ok = linbp_star_on(&adj, &e, &coupling.scaled_residual(0.64), &opts).unwrap();
    assert!(ok.converged && !ok.diverged);
    let bad = linbp_star_on(&adj, &e, &coupling.scaled_residual(0.68), &opts).unwrap();
    assert!(bad.diverged);
}
