//! Contract of active-frontier execution (change-tracking iteration
//! skipping in the fused LinBP path): at **every** frontier × shard ×
//! thread × memory-budget combination the solver must be **bitwise
//! identical** to full recomputation — same beliefs, same iteration
//! count, same final delta bits, same converged/diverged flags. The
//! frontier is an execution strategy, never an approximation: a row is
//! skipped only when its output provably holds the exact bits a
//! recomputation would produce.
//!
//! Edge cases pinned here: divergent runs, damping on/off, the L2 and
//! MaxAbs convergence norms, self-loops, empty graphs, single-node
//! graphs, eviction pressure on the paged backend, and the counter
//! invariant `rows_active + rows_skipped = n × iterations`.

use lsbp::prelude::*;
use lsbp_graph::generators::erdos_renyi_gnm;
use lsbp_graph::Graph;
use lsbp_linalg::Mat;
use lsbp_sparse::{CooMatrix, CsrMatrix};
use proptest::prelude::*;
use std::path::PathBuf;

fn bits_equal(a: &Mat, b: &Mat) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn seeds(n: usize, k: usize, picks: &[(usize, usize)]) -> ExplicitBeliefs {
    let mut e = ExplicitBeliefs::new(n, k);
    for &(v, c) in picks {
        let _ = e.set_label(v % n, c % k, 1.0);
    }
    e
}

/// Per-process scratch directory for spill files.
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lsbp-frontier-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn csr_bytes(m: &CsrMatrix) -> usize {
    (m.n_rows() + 1) * std::mem::size_of::<usize>() + m.nnz() * (4 + 8)
}

/// Full bitwise comparison of two solves, *including* the run shape.
fn assert_runs_identical(got: &LinBpResult, want: &LinBpResult, label: &str) {
    assert_eq!(got.converged, want.converged, "{label}: converged");
    assert_eq!(got.diverged, want.diverged, "{label}: diverged");
    assert_eq!(got.iterations, want.iterations, "{label}: iterations");
    assert_eq!(
        got.final_delta.to_bits(),
        want.final_delta.to_bits(),
        "{label}: final delta bits ({} vs {})",
        got.final_delta,
        want.final_delta
    );
    assert!(
        bits_equal(got.beliefs.residual(), want.beliefs.residual()),
        "{label}: frontier beliefs differ bitwise from full recomputation"
    );
}

/// The counter contract: with the frontier on, every row of every
/// executed sweep is either recomputed or skipped — nothing else. With
/// it off, everything is recomputed.
fn assert_counters(r: &LinBpResult, n: usize, frontier: bool, label: &str) {
    assert_eq!(
        r.rows_active + r.rows_skipped,
        (n * r.iterations) as u64,
        "{label}: rows_active + rows_skipped != n × iterations"
    );
    if !frontier {
        assert_eq!(r.rows_skipped, 0, "{label}: full path reported skips");
    }
}

/// Solves with the frontier off (full recomputation) and on, asserting
/// bitwise identity and the counter invariant; returns the frontier run.
fn frontier_vs_full(
    adj: &CsrMatrix,
    e: &ExplicitBeliefs,
    h: &Mat,
    base: &LinBpOptions,
    label: &str,
) -> LinBpResult {
    let full = linbp(
        adj,
        e,
        h,
        &LinBpOptions {
            parallelism: base.parallelism.with_frontier(false),
            ..*base
        },
    )
    .unwrap();
    let fr = linbp(
        adj,
        e,
        h,
        &LinBpOptions {
            parallelism: base.parallelism.with_frontier(true),
            ..*base
        },
    )
    .unwrap();
    assert_runs_identical(&fr, &full, label);
    assert_counters(&full, adj.n_rows(), false, label);
    assert_counters(&fr, adj.n_rows(), true, label);
    fr
}

#[test]
fn converging_run_bitwise_identical_and_counted() {
    let adj = erdos_renyi_gnm(64, 200, 11).adjacency();
    let e = seeds(64, 3, &[(0, 0), (17, 1), (40, 2)]);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.04);
    let opts = LinBpOptions {
        max_iter: 200,
        tol: 1e-10,
        parallelism: ParallelismConfig::serial(),
        ..Default::default()
    };
    let fr = frontier_vs_full(&adj, &e, &h, &opts, "converging");
    assert!(fr.converged, "expected a converging configuration");
}

/// Divergent runs: the guard must trip at the same iteration with the
/// same (exploding) beliefs. Frontier bits on diverging rows change every
/// sweep, so skipping is rare — the contract is identity, not speed.
#[test]
fn divergent_run_trips_guard_identically() {
    let adj = erdos_renyi_gnm(48, 220, 3).adjacency();
    let e = seeds(48, 3, &[(1, 0), (2, 1), (3, 2)]);
    // A huge εH puts the spectral radius far above 1.
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(5.0);
    let opts = LinBpOptions {
        max_iter: 400,
        tol: 1e-12,
        parallelism: ParallelismConfig::serial(),
        ..Default::default()
    };
    let fr = frontier_vs_full(&adj, &e, &h, &opts, "divergent");
    assert!(fr.diverged, "expected the divergence guard to trip");
}

#[test]
fn damping_on_and_off_both_identical() {
    let adj = erdos_renyi_gnm(56, 180, 9).adjacency();
    let e = seeds(56, 4, &[(5, 0), (6, 1), (7, 2), (8, 3)]);
    let h = CouplingMatrix::homophily(4, 0.6)
        .unwrap()
        .scaled_residual(0.05);
    for damping in [0.0, 0.3] {
        let opts = LinBpOptions {
            max_iter: 150,
            tol: 1e-9,
            damping,
            parallelism: ParallelismConfig::serial(),
            ..Default::default()
        };
        frontier_vs_full(&adj, &e, &h, &opts, &format!("damping={damping}"));
    }
}

#[test]
fn l2_and_maxabs_norms_both_identical() {
    let adj = erdos_renyi_gnm(56, 180, 5).adjacency();
    let e = seeds(56, 3, &[(2, 0), (30, 1), (50, 2)]);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
    for norm in [ToleranceNorm::MaxAbs, ToleranceNorm::L2] {
        let opts = LinBpOptions {
            max_iter: 150,
            tol: 1e-9,
            norm,
            parallelism: ParallelismConfig::serial(),
            ..Default::default()
        };
        frontier_vs_full(&adj, &e, &h, &opts, &format!("norm={norm:?}"));
    }
}

/// Self-loops make a row depend on itself — the frontier's dependency
/// rule must still be sound (every plan block depends on itself anyway).
/// The [`Graph`] builder rejects self-loops, so build the CSR directly.
#[test]
fn self_loops_identical() {
    let n = 40;
    let mut coo = CooMatrix::with_capacity(n, n, 3 * n);
    for i in 0..n {
        coo.push(i, i, 0.5); // self-loop on every node
        coo.push_symmetric(i, (i + 1) % n, 1.0); // a cycle
    }
    let adj = coo.to_csr();
    let e = seeds(n, 3, &[(0, 0), (13, 1), (27, 2)]);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.03);
    let opts = LinBpOptions {
        max_iter: 200,
        tol: 1e-10,
        parallelism: ParallelismConfig::serial(),
        ..Default::default()
    };
    frontier_vs_full(&adj, &e, &h, &opts, "self-loops");
}

/// Empty graph (no edges): beliefs are `Ê` after the first sweep and
/// every later sweep must be skipped entirely with an exactly-0 delta.
#[test]
fn empty_graph_freezes_after_first_sweep() {
    let n = 12;
    let adj = Graph::new(n).adjacency();
    let e = seeds(n, 3, &[(0, 0), (5, 1)]);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.1);
    // Converging mode: stops as soon as the delta is below tol.
    let opts = LinBpOptions {
        max_iter: 50,
        tol: 1e-12,
        parallelism: ParallelismConfig::serial(),
        ..Default::default()
    };
    frontier_vs_full(&adj, &e, &h, &opts, "empty graph");
    // Timing mode (tol = 0 runs all sweeps): after the first sweep the
    // frontier must skip every row of every remaining sweep.
    let opts = LinBpOptions {
        max_iter: 6,
        tol: 0.0,
        parallelism: ParallelismConfig::serial(),
        ..Default::default()
    };
    let fr = frontier_vs_full(&adj, &e, &h, &opts, "empty graph, fixed budget");
    assert_eq!(fr.iterations, 6);
    assert!(
        fr.rows_skipped >= (n * (fr.iterations - 2)) as u64,
        "empty graph barely skipped: active={} skipped={}",
        fr.rows_active,
        fr.rows_skipped
    );
    assert_eq!(fr.final_delta.to_bits(), 0.0f64.to_bits());
}

#[test]
fn single_node_identical() {
    let adj = Graph::new(1).adjacency();
    let e = seeds(1, 2, &[(0, 0)]);
    let h = CouplingMatrix::homophily(2, 0.7)
        .unwrap()
        .scaled_residual(0.2);
    for tol in [1e-12, 0.0] {
        let opts = LinBpOptions {
            max_iter: 8,
            tol,
            parallelism: ParallelismConfig::serial(),
            ..Default::default()
        };
        frontier_vs_full(&adj, &e, &h, &opts, &format!("single node tol={tol}"));
    }
}

/// Frontier × paged backend under real eviction pressure: a budget that
/// holds roughly one shard forces continuous eviction, and the frontier
/// must neither fault frozen shards back in incorrectly nor diverge from
/// the resident full-recomputation reference.
#[test]
fn frontier_under_paged_eviction_pressure() {
    let n = 72;
    let adj = erdos_renyi_gnm(n, 260, 21).adjacency();
    let e = seeds(n, 3, &[(0, 0), (24, 1), (48, 2)]);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.04);
    let shards = 8usize;
    let budget = csr_bytes(&adj) / shards + 64;
    let reference = linbp(
        &adj,
        &e,
        &h,
        &LinBpOptions {
            max_iter: 60,
            tol: 0.0,
            parallelism: ParallelismConfig::serial().with_frontier(false),
            ..Default::default()
        },
    )
    .unwrap();
    for threads in [1usize, 4] {
        let cfg = ParallelismConfig::with_threads(threads)
            .with_min_work(1)
            .with_frontier(true);
        let path = tmp(&format!("pressure-t{threads}.lsbp"));
        let opts = PagedOptions::default().with_budget(Some(budget));
        let paged = PagedCsr::spill(&adj, &path, shards, opts).unwrap();
        let got = linbp_on(
            &paged,
            &e,
            &h,
            &LinBpOptions {
                max_iter: 60,
                tol: 0.0,
                parallelism: cfg,
                ..Default::default()
            },
        )
        .unwrap();
        let label = format!("paged pressure t={threads}");
        assert_runs_identical(&got, &reference, &label);
        assert_counters(&got, n, true, &label);
        let stats = paged.stats();
        assert!(
            stats.evictions > 0,
            "{label}: one-shard budget never evicted (misses={})",
            stats.misses
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance sweep: random graphs and couplings, frontier ⇔ full
    /// bitwise across shards {1, 2, 8} × threads {1, 4} × budgets
    /// {tiny, ample} on both the resident and the paged backend.
    #[test]
    fn frontier_equals_full_across_grid(
        nodes in 16usize..72,
        extra_edges in 0usize..120,
        seed in 0u64..1000,
        eps_mil in 5u64..80,
        damp_sel in 0u8..2,
        tol_mode in 0u8..2,
        shard_sel in 0usize..3,
        thread_sel in 0usize..2,
        tiny_sel in 0u8..2,
    ) {
        let shards = [1usize, 2, 8][shard_sel];
        let threads = [1usize, 4][thread_sel];
        let tiny_budget = tiny_sel == 1;
        let edges = (nodes + extra_edges).min(nodes * (nodes - 1) / 2);
        let graph = erdos_renyi_gnm(nodes, edges, seed);
        let adj = graph.adjacency();
        let e = seeds(nodes, 3, &[(1, 0), (nodes / 2, 1), (nodes - 1, 2)]);
        let h = CouplingMatrix::fig1c().unwrap().scaled_residual(eps_mil as f64 / 1000.0);
        let (max_iter, tol) = if tol_mode == 0 { (80, 1e-9) } else { (24, 0.0) };
        let base = LinBpOptions {
            max_iter,
            tol,
            damping: if damp_sel == 0 { 0.0 } else { 0.3 },
            parallelism: ParallelismConfig::serial(),
            ..Default::default()
        };
        // Serial resident full recomputation is the reference everything
        // else must hit bit for bit.
        let want = linbp(&adj, &e, &h, &LinBpOptions {
            parallelism: ParallelismConfig::serial().with_frontier(false),
            ..base
        }).unwrap();

        let cfg = ParallelismConfig::with_threads(threads)
            .with_min_work(1)
            .with_frontier(true);
        let label = format!(
            "n={nodes} seed={seed} s={shards} t={threads} tol={tol} tiny={tiny_budget}"
        );
        // Resident sharded path.
        let sharded = ShardedCsr::from_csr(&adj, shards);
        let got = linbp_on(&sharded, &e, &h, &LinBpOptions { parallelism: cfg, ..base }).unwrap();
        assert_runs_identical(&got, &want, &label);
        assert_counters(&got, nodes, true, &label);
        // Paged path under a tiny (always-evicting) or ample budget.
        let budget = if tiny_budget { 1 } else { csr_bytes(&adj) * 4 };
        let path = tmp(&format!("prop-{nodes}-{seed}-{shards}-{threads}-{tiny_budget}.lsbp"));
        let opts = PagedOptions::default().with_budget(Some(budget));
        let paged = PagedCsr::spill(&adj, &path, shards, opts).unwrap();
        let got = linbp_on(&paged, &e, &h, &LinBpOptions { parallelism: cfg, ..base }).unwrap();
        assert_runs_identical(&got, &want, &format!("{label} (paged)"));
        assert_counters(&got, nodes, true, &format!("{label} (paged)"));
    }
}
