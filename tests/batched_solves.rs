//! The batched multi-query contract: `linbp_batch_on` / `linbp_star_batch_on`
//! must be **bitwise identical**, query by query, to a plain unfused loop
//! solving that query alone (`support::unfused_linbp`, which shares no
//! code with the solver) — per-query beliefs, convergence/divergence
//! flags, iteration counts and final deltas — at every thread count,
//! including q = 0, q = 1, and batches mixing fast-converging, slow, and
//! divergent queries (the per-query freeze masks are what this pins
//! down). `rwr_batch_on` must equal `rwr` run on each query alone.

use lsbp::prelude::*;
use lsbp_graph::generators::erdos_renyi_gnm;
use lsbp_linalg::Mat;
use proptest::prelude::*;

mod support;
use support::{bits_equal, unfused_linbp};

fn thread_sweep() -> Vec<ParallelismConfig> {
    [1usize, 2, 8]
        .into_iter()
        .map(|t| ParallelismConfig::with_threads(t).with_min_work(1))
        .collect()
}

/// Builds a seed-set from (node, class) pairs, clamped into range.
fn seeds(n: usize, k: usize, picks: &[(usize, usize)]) -> ExplicitBeliefs {
    let mut e = ExplicitBeliefs::new(n, k);
    for &(v, c) in picks {
        let _ = e.set_label(v % n, c % k, 1.0);
    }
    e
}

fn assert_linbp_batch_matches(
    adj: &lsbp_sparse::CsrMatrix,
    queries: &[ExplicitBeliefs],
    h: &Mat,
    opts: &LinBpOptions,
    star: bool,
    label: &str,
) {
    let batch = if star {
        linbp_star_batch_on(adj, queries, h, opts).unwrap()
    } else {
        linbp_batch_on(adj, queries, h, opts).unwrap()
    };
    assert_eq!(batch.len(), queries.len(), "{label}");
    for (j, (e, got)) in queries.iter().zip(&batch).enumerate() {
        let want = unfused_linbp(adj, e.residual_matrix(), h, !star, opts);
        assert_eq!(got.converged, want.converged, "{label} query {j}");
        assert_eq!(got.diverged, want.diverged, "{label} query {j}");
        assert_eq!(got.iterations, want.iterations, "{label} query {j}");
        assert_eq!(
            got.final_delta.to_bits(),
            want.final_delta.to_bits(),
            "{label} query {j}"
        );
        assert!(
            bits_equal(got.beliefs.residual(), &want.beliefs),
            "{label} query {j}: batched beliefs differ from the reference"
        );
    }
}

/// Empty batch: a no-op, not an error.
#[test]
fn linbp_batch_q0() {
    let adj = erdos_renyi_gnm(30, 60, 1).adjacency();
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
    let out = linbp_batch_on(&adj, &[], &h, &LinBpOptions::default()).unwrap();
    assert!(out.is_empty());
    let rw = rwr_batch_on(&adj, &[], &RwrOptions::default()).unwrap();
    assert!(rw.is_empty());
}

/// Single-query batch is the degenerate case — and what `linbp` and
/// `linbp_star` run.
#[test]
fn linbp_batch_q1() {
    let adj = erdos_renyi_gnm(60, 150, 2).adjacency();
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.04);
    let q = [seeds(60, 3, &[(0, 0), (13, 1), (41, 2)])];
    for cfg in thread_sweep() {
        let opts = LinBpOptions {
            parallelism: cfg,
            ..Default::default()
        };
        assert_linbp_batch_matches(&adj, &q, &h, &opts, false, "q1");
        assert_linbp_batch_matches(&adj, &q, &h, &opts, true, "q1*");
        let singles = [
            (true, linbp(&adj, &q[0], &h, &opts).unwrap()),
            (false, linbp_star(&adj, &q[0], &h, &opts).unwrap()),
        ];
        for (echo, got) in singles {
            let want = unfused_linbp(&adj, q[0].residual_matrix(), &h, echo, &opts);
            assert_eq!(got.iterations, want.iterations, "echo {echo}");
            assert_eq!(got.final_delta.to_bits(), want.final_delta.to_bits());
            assert!(bits_equal(got.beliefs.residual(), &want.beliefs));
        }
    }
}

/// A mixed-convergence batch: an empty seed-set (fixed point after one
/// round), ordinary converging queries, and — at a coupling scale past
/// the spectral threshold — diverging ones. Each query must freeze at
/// exactly its standalone iteration.
#[test]
fn linbp_batch_mixed_convergence() {
    let adj = erdos_renyi_gnm(80, 240, 5).adjacency();
    let coupling = CouplingMatrix::fig1c().unwrap();
    let queries = [
        seeds(80, 3, &[]), // converges immediately (Ê = 0 is the fixed point)
        seeds(80, 3, &[(3, 0)]),
        seeds(80, 3, &[(7, 1), (22, 2), (55, 0), (61, 1)]),
        seeds(80, 3, &[(2, 2), (9, 0)]),
    ];
    for cfg in thread_sweep() {
        // Convergent scale: queries stop at different iterations.
        let opts = LinBpOptions {
            max_iter: 400,
            tol: 1e-11,
            parallelism: cfg,
            ..Default::default()
        };
        let h = coupling.scaled_residual(0.05);
        assert_linbp_batch_matches(&adj, &queries, &h, &opts, false, "mixed");
        assert_linbp_batch_matches(&adj, &queries, &h, &opts, true, "mixed*");

        // Divergent scale: the seeded queries trip the guard at their own
        // iterations while the empty query still converges.
        let h_div = coupling.scaled_residual(0.9);
        assert_linbp_batch_matches(&adj, &queries, &h_div, &opts, false, "mixed-divergent");
    }
}

/// Timing mode (tol = 0) runs every query the full budget — no freezing.
#[test]
fn linbp_batch_timing_mode() {
    let adj = erdos_renyi_gnm(50, 120, 8).adjacency();
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.03);
    let queries = [seeds(50, 3, &[(1, 0)]), seeds(50, 3, &[(2, 1), (30, 2)])];
    let opts = LinBpOptions {
        max_iter: 7,
        tol: 0.0,
        ..Default::default()
    };
    assert_linbp_batch_matches(&adj, &queries, &h, &opts, false, "timing");
}

/// Batched RWR equals per-query RWR bitwise, across thread counts and
/// walk-count mixes (different seed multiplicities converge at different
/// iterations, exercising the per-walk freeze).
#[test]
fn rwr_batch_matches_standalone() {
    let adj = erdos_renyi_gnm(70, 210, 3).adjacency();
    let queries = [
        seeds(70, 2, &[(0, 0), (69, 1)]),
        seeds(70, 2, &[(5, 0), (6, 0), (7, 0), (50, 1)]),
        seeds(70, 2, &[(11, 0), (12, 1), (13, 0), (14, 1), (15, 0)]),
    ];
    for cfg in thread_sweep() {
        let opts = RwrOptions {
            parallelism: cfg,
            ..Default::default()
        };
        let batch = rwr_batch_on(&adj, &queries, &opts).unwrap();
        for (j, (e, got)) in queries.iter().zip(&batch).enumerate() {
            let want = rwr(&adj, e, &opts).unwrap();
            assert_eq!(got.converged, want.converged, "query {j}");
            assert_eq!(got.iterations, want.iterations, "query {j}");
            assert!(
                bits_equal(got.beliefs.residual(), want.beliefs.residual()),
                "query {j}: batched RWR beliefs differ from standalone"
            );
        }
    }
}

/// Batched error surface matches the single-query one.
#[test]
fn batch_error_cases() {
    let adj = erdos_renyi_gnm(20, 40, 4).adjacency();
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
    // Wrong node count in the second query.
    let bad = [seeds(20, 3, &[(0, 0)]), seeds(21, 3, &[(0, 0)])];
    assert!(matches!(
        linbp_batch_on(&adj, &bad, &h, &LinBpOptions::default()),
        Err(lsbp::linbp::LinBpError::DimensionMismatch)
    ));
    // Wrong node count *and* a non-square coupling: the node count is
    // reported first, batched or not.
    let h_3x2 = Mat::zeros(3, 2);
    let wrong_n = [seeds(21, 3, &[(0, 0)])];
    assert!(matches!(
        linbp_batch_on(&adj, &wrong_n, &h_3x2, &LinBpOptions::default()),
        Err(lsbp::linbp::LinBpError::DimensionMismatch)
    ));
    assert!(matches!(
        linbp(&adj, &wrong_n[0], &h_3x2, &LinBpOptions::default()),
        Err(lsbp::linbp::LinBpError::DimensionMismatch)
    ));
    // Wrong node count *and* a bad restart probability: the node count is
    // reported first, batched or not.
    let bad_restart = RwrOptions {
        restart: 0.0,
        ..Default::default()
    };
    assert!(matches!(
        rwr_batch_on(&adj, &wrong_n, &bad_restart),
        Err(lsbp::rwr::RwrError::DimensionMismatch)
    ));
    assert!(matches!(
        rwr(&adj, &wrong_n[0], &bad_restart),
        Err(lsbp::rwr::RwrError::DimensionMismatch)
    ));
    // Wrong arity.
    let bad_k = [seeds(20, 2, &[(0, 0)])];
    assert!(matches!(
        linbp_batch_on(&adj, &bad_k, &h, &LinBpOptions::default()),
        Err(lsbp::linbp::LinBpError::CouplingArityMismatch)
    ));
    // A query with an unseeded class aborts the whole RWR batch, exactly
    // like the standalone error.
    let lonely = [seeds(20, 3, &[(0, 0), (5, 1), (9, 2)]), {
        let mut e = ExplicitBeliefs::new(20, 3);
        e.set_label(0, 0, 1.0).unwrap();
        e
    }];
    assert!(matches!(
        rwr_batch_on(&adj, &lonely, &RwrOptions::default()),
        Err(lsbp::rwr::RwrError::EmptyClass(1))
    ));
}

/// The serving width: q = 24 queries of k = 4 classes (a 96-column
/// stacked row, past the 64-column generic stack buffer) on a sharded
/// operator, with queries freezing at different iterations. Every answer
/// equals the reference loop on the monolithic matrix bitwise.
#[test]
fn linbp_batch_wide_sharded() {
    let n = 90;
    let adj = erdos_renyi_gnm(n, 300, 12).adjacency();
    let sharded = ShardedCsr::from_csr(&adj, 3);
    let h = CouplingMatrix::homophily(4, 0.6)
        .unwrap()
        .scaled_residual(0.08);
    let queries: Vec<ExplicitBeliefs> = (0..24)
        .map(|j| {
            let picks: Vec<(usize, usize)> = (0..j % 4).map(|i| (j * 13 + i * 29, j + i)).collect();
            seeds(n, 4, &picks)
        })
        .collect();
    for threads in [1, 4] {
        let opts = LinBpOptions {
            max_iter: 300,
            tol: 1e-11,
            parallelism: ParallelismConfig::with_threads(threads).with_min_work(1),
            ..Default::default()
        };
        let batch = linbp_batch_on(&sharded, &queries, &h, &opts).unwrap();
        assert_eq!(batch.len(), queries.len());
        let mut iterations = std::collections::BTreeSet::new();
        for (j, (e, got)) in queries.iter().zip(&batch).enumerate() {
            let want = unfused_linbp(&adj, e.residual_matrix(), &h, true, &opts);
            assert!(want.converged, "query {j} must converge at this scale");
            assert_eq!(got.converged, want.converged, "query {j}");
            assert_eq!(got.iterations, want.iterations, "query {j}");
            assert_eq!(
                got.final_delta.to_bits(),
                want.final_delta.to_bits(),
                "query {j}"
            );
            assert!(
                bits_equal(got.beliefs.residual(), &want.beliefs),
                "threads {threads} query {j}: batched beliefs differ from the reference"
            );
            iterations.insert(got.iterations);
        }
        assert!(
            iterations.len() > 1,
            "queries must freeze at different iterations"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random graphs, random seed batches, random thread counts: batched
    /// LinBP is bitwise equal to the reference loop, query by query — over
    /// every kernel width (k ∈ {2, 3, 4, 5}, q ∈ 0..=12), frontier on and
    /// off, both tolerance norms, and a divergent coupling scale at which
    /// seeded queries trip the guard mid-batch while empty ones converge
    /// (so frozen blocks are copied forward next to active ones).
    #[test]
    fn linbp_batch_random(
        seed in 0u64..500,
        k in 2usize..6,
        q in 0usize..13,
        threads in 1usize..9,
        eps_pick in 0usize..4,
        frontier_flag in 0usize..2,
        norm_pick in 0usize..2,
    ) {
        let n = 40;
        let adj = erdos_renyi_gnm(n, 100, seed).adjacency();
        let coupling = if seed % 2 == 0 {
            CouplingMatrix::homophily(k, 0.7).unwrap()
        } else {
            CouplingMatrix::heterophily(k, 0.05).unwrap()
        };
        let eps = [0.02, 0.06, 0.12, 3.0][eps_pick];
        let h = coupling.scaled_residual(eps);
        let queries: Vec<ExplicitBeliefs> = (0..q)
            .map(|j| {
                if j % 5 == 4 {
                    seeds(n, k, &[]) // Ê = 0: converges after one sweep
                } else {
                    seeds(n, k, &[(j * 7 + 1, j), ((j + 2) * 11, j + 1)])
                }
            })
            .collect();
        let opts = LinBpOptions {
            max_iter: 150,
            tol: 1e-10,
            norm: [ToleranceNorm::MaxAbs, ToleranceNorm::L2][norm_pick],
            parallelism: ParallelismConfig::with_threads(threads)
                .with_min_work(1)
                .with_frontier(frontier_flag == 1),
            ..Default::default()
        };
        let batch = linbp_batch_on(&adj, &queries, &h, &opts).unwrap();
        prop_assert_eq!(batch.len(), queries.len());
        for (e, got) in queries.iter().zip(&batch) {
            let want = unfused_linbp(&adj, e.residual_matrix(), &h, true, &opts);
            prop_assert_eq!(got.converged, want.converged);
            prop_assert_eq!(got.diverged, want.diverged);
            prop_assert_eq!(got.iterations, want.iterations);
            prop_assert_eq!(got.final_delta.to_bits(), want.final_delta.to_bits());
            prop_assert!(bits_equal(got.beliefs.residual(), &want.beliefs));
        }
    }

    /// Same contract for batched RWR over random batches.
    #[test]
    fn rwr_batch_random(seed in 0u64..500, q in 0usize..4, threads in 1usize..9) {
        let n = 35;
        let adj = erdos_renyi_gnm(n, 90, seed).adjacency();
        let queries: Vec<ExplicitBeliefs> = (0..q)
            .map(|j| seeds(n, 2, &[(3 * j + 1, 0), (5 * j + 2, 1)]))
            .collect();
        let opts = RwrOptions {
            parallelism: ParallelismConfig::with_threads(threads).with_min_work(1),
            ..Default::default()
        };
        let batch = rwr_batch_on(&adj, &queries, &opts).unwrap();
        prop_assert_eq!(batch.len(), queries.len());
        for (e, got) in queries.iter().zip(&batch) {
            let want = rwr(&adj, e, &opts).unwrap();
            prop_assert_eq!(got.converged, want.converged);
            prop_assert_eq!(got.iterations, want.iterations);
            prop_assert!(bits_equal(got.beliefs.residual(), want.beliefs.residual()));
        }
    }
}
