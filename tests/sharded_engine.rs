//! The sharded-engine contract: every propagator running on a
//! [`ShardedCsr`] through the `*_on` operator entry points must be
//! **bitwise identical** to the monolithic [`CsrMatrix`] path at every
//! shard × thread combination, including empty shards, single-row
//! shards, and divergent runs. Re-sharding a live system must never
//! change an answer.

use lsbp::prelude::*;
use lsbp_graph::generators::erdos_renyi_gnm;
use lsbp_linalg::Mat;
use lsbp_sparse::CsrMatrix;
use proptest::prelude::*;

fn bits_equal(a: &Mat, b: &Mat) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The acceptance grid: shard counts {1, 2, 8} × threads {1, 4}.
fn shard_thread_grid() -> Vec<(usize, ParallelismConfig)> {
    let mut grid = Vec::new();
    for threads in [1usize, 4] {
        for shards in [1usize, 2, 8] {
            grid.push((
                shards,
                ParallelismConfig::with_threads(threads).with_min_work(1),
            ));
        }
    }
    grid
}

fn seeds(n: usize, k: usize, picks: &[(usize, usize)]) -> ExplicitBeliefs {
    let mut e = ExplicitBeliefs::new(n, k);
    for &(v, c) in picks {
        let _ = e.set_label(v % n, c % k, 1.0);
    }
    e
}

fn assert_linbp_equal(got: &LinBpResult, want: &LinBpResult, label: &str) {
    assert_eq!(got.converged, want.converged, "{label}");
    assert_eq!(got.diverged, want.diverged, "{label}");
    assert_eq!(got.iterations, want.iterations, "{label}");
    assert_eq!(
        got.final_delta.to_bits(),
        want.final_delta.to_bits(),
        "{label}"
    );
    assert!(
        bits_equal(got.beliefs.residual(), want.beliefs.residual()),
        "{label}: sharded beliefs differ from monolithic"
    );
}

/// LinBP and LinBP* on a sharded operator: every (shards, threads) cell
/// equals the serial monolithic reference bitwise — convergent and
/// divergent (guard-tripping) coupling scales alike.
#[test]
fn linbp_shard_knob_grid() {
    let adj = erdos_renyi_gnm(60, 180, 7).adjacency();
    let e = seeds(60, 3, &[(0, 0), (13, 1), (41, 2)]);
    let coupling = CouplingMatrix::fig1c().unwrap();
    for (eps, label) in [(0.04, "convergent"), (0.9, "divergent")] {
        let h = coupling.scaled_residual(eps);
        let reference_opts = LinBpOptions {
            max_iter: 120,
            tol: 1e-10,
            parallelism: ParallelismConfig::serial(),
            ..Default::default()
        };
        let want = linbp_on(&adj, &e, &h, &reference_opts).unwrap();
        let want_star = linbp_star_on(&adj, &e, &h, &reference_opts).unwrap();
        if label == "divergent" {
            assert!(want_star.diverged, "the divergent case must diverge");
        }
        for (shards, cfg) in shard_thread_grid() {
            let sharded = ShardedCsr::from_csr(&adj, shards);
            let opts = LinBpOptions {
                parallelism: cfg,
                ..reference_opts
            };
            let got = linbp_on(&sharded, &e, &h, &opts).unwrap();
            assert_linbp_equal(
                &got,
                &want,
                &format!("{label} t={} s={shards}", cfg.threads()),
            );
            let got_star = linbp_star_on(&sharded, &e, &h, &opts).unwrap();
            assert_linbp_equal(
                &got_star,
                &want_star,
                &format!("{label}* t={} s={shards}", cfg.threads()),
            );
        }
    }
}

/// RWR on a sharded operator over the same grid.
#[test]
fn rwr_shard_knob_grid() {
    let adj = erdos_renyi_gnm(70, 210, 3).adjacency();
    let e = seeds(70, 2, &[(0, 0), (69, 1), (30, 0)]);
    let want = rwr_on(
        &adj,
        &e,
        &RwrOptions {
            parallelism: ParallelismConfig::serial(),
            ..Default::default()
        },
    )
    .unwrap();
    for (shards, cfg) in shard_thread_grid() {
        let got = rwr_on(
            &ShardedCsr::from_csr(&adj, shards),
            &e,
            &RwrOptions {
                parallelism: cfg,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(got.converged, want.converged);
        assert_eq!(got.iterations, want.iterations);
        assert!(
            bits_equal(got.beliefs.residual(), want.beliefs.residual()),
            "t={} s={shards}",
            cfg.threads()
        );
    }
}

/// SBP on a sharded operator: beliefs *and* geodesic structure match.
#[test]
fn sbp_shard_knob_grid() {
    let adj = erdos_renyi_gnm(80, 160, 5).adjacency(); // sparse → deep layers
    let e = seeds(80, 3, &[(2, 0), (47, 1), (66, 2)]);
    let h = CouplingMatrix::fig1c().unwrap().residual();
    let want = sbp_on(&adj, &e, &h, &ParallelismConfig::serial()).unwrap();
    for (shards, cfg) in shard_thread_grid() {
        let got = sbp_on(&ShardedCsr::from_csr(&adj, shards), &e, &h, &cfg).unwrap();
        let label = format!("t={} s={shards}", cfg.threads());
        assert_eq!(got.geodesics.g, want.geodesics.g, "{label}");
        assert!(
            bits_equal(got.beliefs.residual(), want.beliefs.residual()),
            "{label}"
        );
    }
}

/// The batched solvers run on sharded operators too: sharded batched
/// solves equal the monolithic batched solves bitwise (which are
/// themselves pinned bitwise-equal to per-query solves in
/// `batched_solves.rs`).
#[test]
fn batched_solves_shard_knob() {
    let adj = erdos_renyi_gnm(50, 150, 9).adjacency();
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
    let queries = [
        seeds(50, 3, &[]),
        seeds(50, 3, &[(3, 0)]),
        seeds(50, 3, &[(7, 1), (22, 2), (44, 0)]),
    ];
    let reference_opts = LinBpOptions {
        max_iter: 200,
        tol: 1e-11,
        parallelism: ParallelismConfig::serial(),
        ..Default::default()
    };
    let want = linbp_batch_on(&adj, &queries, &h, &reference_opts).unwrap();
    // RWR needs every class seeded per query — its own batch.
    let rwr_queries = [
        seeds(50, 2, &[(0, 0), (49, 1)]),
        seeds(50, 2, &[(5, 0), (6, 0), (30, 1)]),
    ];
    let want_rwr = rwr_batch_on(
        &adj,
        &rwr_queries,
        &RwrOptions {
            parallelism: ParallelismConfig::serial(),
            ..Default::default()
        },
    )
    .unwrap();
    for (shards, cfg) in shard_thread_grid() {
        let sharded = ShardedCsr::from_csr(&adj, shards);
        let opts = LinBpOptions {
            parallelism: cfg,
            ..reference_opts
        };
        let got = linbp_batch_on(&sharded, &queries, &h, &opts).unwrap();
        for (j, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_linbp_equal(g, w, &format!("batch query {j} s={shards}"));
        }
        let got_rwr = rwr_batch_on(
            &sharded,
            &rwr_queries,
            &RwrOptions {
                parallelism: cfg,
                ..Default::default()
            },
        )
        .unwrap();
        for (j, (g, w)) in got_rwr.iter().zip(&want_rwr).enumerate() {
            assert!(
                bits_equal(g.beliefs.residual(), w.beliefs.residual()),
                "rwr batch query {j} s={shards}"
            );
        }
    }
}

/// Exotic shard layouts through the `*_on` operator entry points: empty
/// shards, single-row shards, and one fat shard — all bitwise equal to
/// the monolithic run for LinBP, RWR and SBP.
#[test]
fn exotic_shard_layouts_via_operator_api() {
    let n = 24;
    let adj = erdos_renyi_gnm(n, 70, 13).adjacency();
    let e = seeds(n, 3, &[(1, 0), (9, 1), (17, 2)]);
    let coupling = CouplingMatrix::fig1c().unwrap();
    let h = coupling.scaled_residual(0.05);
    let hr = coupling.residual();
    let layouts: Vec<Vec<std::ops::Range<usize>>> = vec![
        // Empty shards at the front, middle and back.
        vec![0..0, 0..10, 10..10, 10..n, n..n],
        // All single-row shards.
        (0..n).map(|r| r..r + 1).collect(),
        // One fat shard (the monolithic layout expressed as a shard).
        vec![0..n],
    ];
    let opts = LinBpOptions {
        max_iter: 150,
        tol: 1e-10,
        parallelism: ParallelismConfig::with_threads(4).with_min_work(1),
        ..Default::default()
    };
    let want = linbp_on(&adj, &e, &h, &opts).unwrap();
    let want_rwr = rwr_on(
        &adj,
        &e,
        &RwrOptions {
            parallelism: opts.parallelism,
            ..Default::default()
        },
    )
    .unwrap();
    let want_sbp = sbp_on(&adj, &e, &hr, &opts.parallelism).unwrap();
    for (i, layout) in layouts.iter().enumerate() {
        let sharded = ShardedCsr::from_csr_ranges(&adj, layout);
        let got = linbp_on(&sharded, &e, &h, &opts).unwrap();
        assert_linbp_equal(&got, &want, &format!("layout {i}"));
        let got_rwr = rwr_on(
            &sharded,
            &e,
            &RwrOptions {
                parallelism: opts.parallelism,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            bits_equal(got_rwr.beliefs.residual(), want_rwr.beliefs.residual()),
            "layout {i}"
        );
        let got_sbp = sbp_on(&sharded, &e, &hr, &opts.parallelism).unwrap();
        assert_eq!(got_sbp.geodesics.g, want_sbp.geodesics.g, "layout {i}");
        assert!(
            bits_equal(got_sbp.beliefs.residual(), want_sbp.beliefs.residual()),
            "layout {i}"
        );
    }
}

/// `linbp_update_batch_on` is bitwise identical to per-query `linbp_update`
/// — the batched incremental-maintenance contract — including on sharded
/// operators and for a divergent delta.
#[test]
fn linbp_update_batch_matches_per_query() {
    let n = 40;
    let adj = erdos_renyi_gnm(n, 100, 6).adjacency();
    let coupling = CouplingMatrix::fig1c().unwrap();
    let h = coupling.scaled_residual(0.03);
    for (shards, cfg) in shard_thread_grid() {
        let sharded = ShardedCsr::from_csr(&adj, shards);
        let opts = LinBpOptions {
            max_iter: 5_000,
            tol: 1e-13,
            parallelism: cfg,
            ..Default::default()
        };
        // Three base solutions with different seed-sets.
        let bases: Vec<ExplicitBeliefs> = vec![
            seeds(n, 3, &[(0, 0), (9, 1)]),
            seeds(n, 3, &[(4, 2)]),
            seeds(n, 3, &[]),
        ];
        let prev: Vec<LinBpResult> = bases
            .iter()
            .map(|b| linbp_on(&sharded, b, &h, &opts).unwrap())
            .collect();
        let deltas = vec![
            seeds(n, 3, &[(25, 2)]),
            seeds(n, 3, &[(11, 0), (31, 1)]),
            seeds(n, 3, &[]),
        ];
        for echo in [true, false] {
            let prev_beliefs: Vec<&BeliefMatrix> = prev.iter().map(|r| &r.beliefs).collect();
            let batch =
                linbp_update_batch_on(&sharded, &prev_beliefs, &deltas, &h, &opts, echo).unwrap();
            assert_eq!(batch.len(), 3);
            for (j, got) in batch.iter().enumerate() {
                let want =
                    lsbp::linbp::linbp_update(&adj, &prev[j].beliefs, &deltas[j], &h, &opts, echo)
                        .unwrap();
                assert_linbp_equal(got, &want, &format!("echo={echo} pair {j}"));
            }
        }
    }
    // A divergent delta run is returned as-is, exactly like linbp_update.
    let h_div = coupling.scaled_residual(0.9);
    let opts = LinBpOptions {
        max_iter: 500,
        ..Default::default()
    };
    let base = seeds(n, 3, &[(0, 0)]);
    let prev = linbp_on(&adj, &base, &coupling.scaled_residual(0.03), &opts).unwrap();
    let delta = seeds(n, 3, &[(20, 1)]);
    let got = linbp_update_batch_on(
        &adj,
        &[&prev.beliefs],
        std::slice::from_ref(&delta),
        &h_div,
        &opts,
        true,
    )
    .unwrap();
    let want = lsbp::linbp::linbp_update(&adj, &prev.beliefs, &delta, &h_div, &opts, true).unwrap();
    assert!(want.diverged, "the divergent delta must diverge");
    assert_linbp_equal(&got[0], &want, "divergent delta");
    // Mismatched pairing is a dimension error.
    assert!(matches!(
        linbp_update_batch_on(&adj, &[&prev.beliefs], &[], &h_div, &opts, true),
        Err(lsbp::linbp::LinBpError::DimensionMismatch)
    ));
}

/// Sharding never changes the *error* surface either.
#[test]
fn sharded_error_cases_match() {
    let adj = erdos_renyi_gnm(20, 40, 2).adjacency();
    let sharded = ShardedCsr::from_csr(&adj, 4);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
    let opts = LinBpOptions {
        parallelism: ParallelismConfig::serial(),
        ..Default::default()
    };
    let wrong_n = seeds(21, 3, &[(0, 0)]);
    assert!(matches!(
        linbp_on(&sharded, &wrong_n, &h, &opts),
        Err(lsbp::linbp::LinBpError::DimensionMismatch)
    ));
    let wrong_k = seeds(20, 2, &[(0, 0)]);
    assert!(matches!(
        linbp_on(&sharded, &wrong_k, &h, &opts),
        Err(lsbp::linbp::LinBpError::CouplingArityMismatch)
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random graphs × random shard counts × random thread counts:
    /// the sharded engine equals the monolithic run bitwise for LinBP,
    /// and the sharded storage round-trips exactly.
    #[test]
    fn sharded_linbp_random(
        seed in 0u64..500,
        shards in 1usize..12,
        threads in 1usize..9,
        eps_pick in 0usize..3,
    ) {
        let n = 40;
        let adj = erdos_renyi_gnm(n, 100, seed).adjacency();
        let coupling = CouplingMatrix::fig1c().unwrap();
        let eps = [0.02, 0.06, 0.9][eps_pick]; // 0.9 diverges
        let h = coupling.scaled_residual(eps);
        let e = seeds(n, 3, &[(seed as usize % n, 0), ((seed as usize * 7 + 3) % n, 1)]);
        let base_opts = LinBpOptions {
            max_iter: 150,
            tol: 1e-10,
            parallelism: ParallelismConfig::serial(),
            ..Default::default()
        };
        let want = linbp_on(&adj, &e, &h, &base_opts).unwrap();
        let opts = LinBpOptions {
            parallelism: ParallelismConfig::with_threads(threads).with_min_work(1),
            ..base_opts
        };
        let sharded = ShardedCsr::from_csr(&adj, shards);
        prop_assert_eq!(sharded.to_csr(), adj.clone());
        let got = linbp_on(&sharded, &e, &h, &opts).unwrap();
        prop_assert_eq!(got.iterations, want.iterations);
        prop_assert_eq!(got.diverged, want.diverged);
        prop_assert_eq!(got.final_delta.to_bits(), want.final_delta.to_bits());
        prop_assert!(bits_equal(got.beliefs.residual(), want.beliefs.residual()));
    }

    /// The sharded operator's kernel surface (SpMV/SpMM/transpose/row
    /// stats) matches the monolithic CSR bitwise on random graphs.
    #[test]
    fn sharded_kernels_random(seed in 0u64..500, shards in 1usize..10, threads in 1usize..9) {
        let n = 30;
        let adj = erdos_renyi_gnm(n, 80, seed).adjacency();
        let sharded = ShardedCsr::from_csr(&adj, shards);
        let cfg = ParallelismConfig::with_threads(threads).with_min_work(1);
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 + seed as usize) % 17) as f64 * 0.1 - 0.8).collect();
        let mut y_mono = vec![0.0; n];
        let mut y_shard = vec![0.0; n];
        CsrMatrix::spmv_into_with(&adj, &x, &mut y_mono, &cfg);
        PropagationOperator::spmv_into_with(&sharded, &x, &mut y_shard, &cfg);
        prop_assert!(y_mono.iter().zip(&y_shard).all(|(a, b)| a.to_bits() == b.to_bits()));
        for k in [2usize, 3, 5] {
            let b = Mat::from_fn(n, k, |r, c| ((r * k + c) % 11) as f64 * 0.07 - 0.3);
            let mut o_mono = Mat::zeros(n, k);
            let mut o_shard = Mat::zeros(n, k);
            CsrMatrix::spmm_into_with(&adj, &b, &mut o_mono, &cfg);
            PropagationOperator::spmm_into_with(&sharded, &b, &mut o_shard, &cfg);
            prop_assert!(bits_equal(&o_mono, &o_shard));
        }
        prop_assert_eq!(PropagationOperator::transpose_with(&sharded, &cfg), adj.transpose_with(&cfg));
        prop_assert_eq!(PropagationOperator::row_sums(&sharded), adj.row_sums());
        prop_assert_eq!(
            PropagationOperator::squared_weight_degrees(&sharded),
            adj.squared_weight_degrees()
        );
    }
}
