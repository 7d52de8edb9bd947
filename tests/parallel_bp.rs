//! Determinism contract of the parallel inference layer: LinBP, BP and
//! SBP must produce **bitwise identical** results for every thread count
//! (each node's messages/beliefs are computed by the unchanged serial
//! code into disjoint output regions). The min-work floor is forced to 1
//! so these mid-size graphs actually exercise the parallel code paths —
//! the same paths `LSBP_THREADS=1` vs `LSBP_THREADS=4` pin in CI.

use lsbp::prelude::*;
use lsbp_bench::kronecker_style_beliefs;
use lsbp_graph::generators::{erdos_renyi_gnm, kronecker_graph};
use lsbp_linalg::Mat;

fn sweep() -> Vec<ParallelismConfig> {
    [2usize, 3, 8]
        .into_iter()
        .map(|t| ParallelismConfig::with_threads(t).with_min_work(1))
        .collect()
}

fn bits_equal(a: &Mat, b: &Mat) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn linbp_bitwise_identical_across_threads() {
    let adj = kronecker_graph(5).adjacency();
    let n = adj.n_rows();
    let e = kronecker_style_beliefs(n, 3, n / 20, 3, false);
    let h = CouplingMatrix::fig6b_residual().scale(0.01);
    let serial = linbp_on(
        &adj,
        &e,
        &h,
        &LinBpOptions {
            parallelism: ParallelismConfig::serial(),
            ..Default::default()
        },
    )
    .unwrap();
    for cfg in sweep() {
        let par = linbp_on(
            &adj,
            &e,
            &h,
            &LinBpOptions {
                parallelism: cfg,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(par.iterations, serial.iterations, "{cfg:?}");
        assert_eq!(par.converged, serial.converged, "{cfg:?}");
        assert_eq!(
            par.final_delta.to_bits(),
            serial.final_delta.to_bits(),
            "{cfg:?}"
        );
        assert!(
            bits_equal(par.beliefs.residual(), serial.beliefs.residual()),
            "LinBP beliefs differ under {cfg:?}"
        );
    }
}

/// The L2 tolerance read-out is deliberately *not* fused into the
/// row-partitioned kernel — it stays one flat fixed-order 4-lane pass —
/// so an L2-norm run must also be bitwise identical at every thread
/// count (same iterations, same final delta, same beliefs).
#[test]
fn linbp_l2_norm_bitwise_identical_across_threads() {
    let adj = erdos_renyi_gnm(200, 600, 23).adjacency();
    let e = kronecker_style_beliefs(200, 3, 15, 4, false);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.04);
    let opts = |cfg| LinBpOptions {
        norm: ToleranceNorm::L2,
        tol: 1e-10,
        parallelism: cfg,
        ..Default::default()
    };
    let serial = linbp_on(&adj, &e, &h, &opts(ParallelismConfig::serial())).unwrap();
    for cfg in sweep() {
        let par = linbp_on(&adj, &e, &h, &opts(cfg)).unwrap();
        assert_eq!(par.iterations, serial.iterations, "{cfg:?}");
        assert_eq!(
            par.final_delta.to_bits(),
            serial.final_delta.to_bits(),
            "{cfg:?}"
        );
        assert!(
            bits_equal(par.beliefs.residual(), serial.beliefs.residual()),
            "L2-norm LinBP beliefs differ under {cfg:?}"
        );
    }
}

#[test]
fn linbp_star_bitwise_identical_across_threads() {
    let adj = erdos_renyi_gnm(300, 900, 11).adjacency();
    let e = kronecker_style_beliefs(300, 3, 20, 5, false);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
    let serial = linbp_star_on(
        &adj,
        &e,
        &h,
        &LinBpOptions {
            parallelism: ParallelismConfig::serial(),
            ..Default::default()
        },
    )
    .unwrap();
    for cfg in sweep() {
        let par = linbp_star_on(
            &adj,
            &e,
            &h,
            &LinBpOptions {
                parallelism: cfg,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            bits_equal(par.beliefs.residual(), serial.beliefs.residual()),
            "LinBP* beliefs differ under {cfg:?}"
        );
    }
}

#[test]
fn bp_bitwise_identical_across_threads() {
    let adj = erdos_renyi_gnm(250, 700, 9).adjacency();
    let mut e = ExplicitBeliefs::new(250, 3);
    e.set_residual(0, &[0.1, -0.04, -0.06]).unwrap();
    e.set_residual(113, &[-0.05, 0.1, -0.05]).unwrap();
    e.set_residual(204, &[-0.05, -0.05, 0.1]).unwrap();
    let h = CouplingMatrix::fig1c().unwrap().raw_at_scale(0.4);
    for naive in [false, true] {
        for damping in [0.0, 0.3] {
            let base = BpOptions {
                max_iter: 30,
                tol: 0.0,
                naive_products: naive,
                damping,
                ..Default::default()
            };
            let serial = bp(
                &adj,
                &e,
                &h,
                &BpOptions {
                    parallelism: ParallelismConfig::serial(),
                    ..base
                },
            )
            .unwrap();
            for cfg in sweep() {
                let par = bp(
                    &adj,
                    &e,
                    &h,
                    &BpOptions {
                        parallelism: cfg,
                        ..base
                    },
                )
                .unwrap();
                assert_eq!(
                    par.final_delta.to_bits(),
                    serial.final_delta.to_bits(),
                    "naive={naive} damping={damping} {cfg:?}"
                );
                assert!(
                    bits_equal(par.beliefs.residual(), serial.beliefs.residual()),
                    "BP beliefs differ: naive={naive} damping={damping} {cfg:?}"
                );
            }
        }
    }
}

#[test]
fn sbp_bitwise_identical_across_threads() {
    let adj = kronecker_graph(6).adjacency();
    let n = adj.n_rows();
    let e = kronecker_style_beliefs(n, 3, n / 20, 13, false);
    let ho = CouplingMatrix::fig6b_residual();
    let serial = sbp_on(&adj, &e, &ho, &ParallelismConfig::serial()).unwrap();
    for cfg in sweep() {
        let par = sbp_on(&adj, &e, &ho, &cfg).unwrap();
        assert_eq!(par.geodesics.g, serial.geodesics.g, "{cfg:?}");
        assert!(
            bits_equal(par.beliefs.residual(), serial.beliefs.residual()),
            "SBP beliefs differ under {cfg:?}"
        );
    }
}

/// The plain entry points (no explicit config) follow the environment
/// default and still agree with an explicitly serial run — the guarantee
/// that makes running the whole suite under `LSBP_THREADS=4` meaningful.
#[test]
fn env_default_entry_points_match_serial() {
    let adj = erdos_renyi_gnm(120, 360, 21).adjacency();
    let e = kronecker_style_beliefs(120, 3, 10, 2, false);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
    let default_run = linbp_on(&adj, &e, &h, &LinBpOptions::default()).unwrap();
    let serial_run = linbp_on(
        &adj,
        &e,
        &h,
        &LinBpOptions {
            parallelism: ParallelismConfig::serial(),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(bits_equal(
        default_run.beliefs.residual(),
        serial_run.beliefs.residual()
    ));

    let ho = CouplingMatrix::fig1c().unwrap().residual();
    let default_sbp = sbp_on(&adj, &e, &ho, &ParallelismConfig::default()).unwrap();
    let serial_sbp = sbp_on(&adj, &e, &ho, &ParallelismConfig::serial()).unwrap();
    assert!(bits_equal(
        default_sbp.beliefs.residual(),
        serial_sbp.beliefs.residual()
    ));
}
