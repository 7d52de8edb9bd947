//! Contract of active-frontier execution (change-tracking iteration
//! skipping in the fused LinBP path): at **every** shard × thread ×
//! memory-budget combination the solver must be **bitwise identical** to
//! full recomputation — the plain-loop oracle in `tests/support`, which
//! recomputes every row every round and shares no code with the solver:
//! same beliefs, same iteration count, same final delta bits, same
//! converged/diverged flags. The frontier is an execution strategy, never
//! an approximation: a row is skipped only when its output provably holds
//! the exact bits a recomputation would produce.
//!
//! Edge cases pinned here: divergent runs, damping on/off, the L2 and
//! MaxAbs convergence norms, self-loops, empty graphs, single-node
//! graphs, eviction pressure on the paged backend, the counter
//! invariant `rows_active + rows_skipped = n × iterations`, and the
//! per-query frontier of batches: its start from `Ê` (`-0.0` seeds,
//! non-finite degrees), the guard read out of the kernel, frozen queries
//! answered from their own buffer (and, one step at a time, never
//! written), and work conservation against solo solves. The counters
//! themselves — whether a sweep pushed or pulled — are checked against
//! the pull sets the plain-loop oracle's iterates imply.

mod support;

use lsbp::prelude::*;
use lsbp_graph::generators::{dblp_like, erdos_renyi_gnm, kronecker_graph, DblpConfig};
use lsbp_graph::Graph;
use lsbp_linalg::Mat;
use lsbp_sparse::{CooMatrix, CsrMatrix, FrontierState, FusedLinBpStep, QuerySweep};
use proptest::prelude::*;
use support::{
    bits_equal, pull_counts, unfused_linbp, unfused_linbp_observed, PullCounts, Reference, TempPath,
};

fn seeds(n: usize, k: usize, picks: &[(usize, usize)]) -> ExplicitBeliefs {
    let mut e = ExplicitBeliefs::new(n, k);
    for &(v, c) in picks {
        let _ = e.set_label(v % n, c % k, 1.0);
    }
    e
}

/// A spill file in a scratch directory of its own, removed when the
/// guard drops.
fn tmp(name: &str) -> TempPath {
    TempPath::new("frontier", name)
}

fn csr_bytes(m: &CsrMatrix) -> usize {
    (m.n_rows() + 1) * std::mem::size_of::<usize>() + m.nnz() * (4 + 8)
}

/// Full bitwise comparison of a solve with the plain-loop oracle,
/// *including* the run shape.
fn assert_matches_oracle(got: &LinBpResult, want: &Reference, label: &str) {
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
        bits_equal(got.beliefs.residual(), &want.beliefs),
        "{label}: frontier beliefs differ bitwise from the plain-loop oracle"
    );
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

/// The counter contract: every row of every executed sweep is either
/// recomputed or skipped — nothing else.
fn assert_counters(r: &LinBpResult, n: usize, label: &str) {
    assert_eq!(
        r.rows_active + r.rows_skipped,
        (n * r.iterations) as u64,
        "{label}: rows_active + rows_skipped != n × iterations"
    );
}

/// Solves LinBP with the frontier and asserts bitwise identity with the
/// plain-loop oracle and the counter invariant; returns the solve.
fn frontier_vs_full(
    adj: &CsrMatrix,
    e: &ExplicitBeliefs,
    h: &Mat,
    base: &LinBpOptions,
    label: &str,
) -> LinBpResult {
    let fr = linbp_on(adj, e, h, base).unwrap();
    assert_matches_oracle(&fr, &solo_full(adj, e, h, base), label);
    assert_counters(&fr, adj.n_rows(), label);
    fr
}

/// The reference every answer must hit bit for bit: the plain-loop
/// oracle on the query alone, serially.
fn solo_full(adj: &CsrMatrix, e: &ExplicitBeliefs, h: &Mat, base: &LinBpOptions) -> Reference {
    let opts = LinBpOptions {
        parallelism: ParallelismConfig::serial(),
        ..*base
    };
    unfused_linbp(adj, e.residual_matrix(), h, true, &opts)
}

/// Solves `queries` as one batch on `op` and asserts every
/// answer equals its [`solo_full`] oracle, run shape included.
fn assert_batch_matches_solo<A: PropagationOperator + ?Sized>(
    op: &A,
    adj: &CsrMatrix,
    queries: &[ExplicitBeliefs],
    h: &Mat,
    opts: &LinBpOptions,
    label: &str,
) -> Vec<LinBpResult> {
    let got = linbp_batch_on(op, queries, h, opts).unwrap();
    for (j, (r, e)) in got.iter().zip(queries).enumerate() {
        let label = format!("{label}, query {j}");
        assert_matches_oracle(r, &solo_full(adj, e, h, opts), &label);
        assert_counters(r, adj.n_rows(), &label);
    }
    got
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
/// the plain-loop oracle.
#[test]
fn frontier_under_paged_eviction_pressure() {
    let n = 72;
    let adj = erdos_renyi_gnm(n, 260, 21).adjacency();
    let e = seeds(n, 3, &[(0, 0), (24, 1), (48, 2)]);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.04);
    let shards = 8usize;
    let budget = csr_bytes(&adj) / shards + 64;
    let reference = solo_full(
        &adj,
        &e,
        &h,
        &LinBpOptions {
            max_iter: 60,
            tol: 0.0,
            ..Default::default()
        },
    );
    for threads in [1usize, 4] {
        let cfg = ParallelismConfig::with_threads(threads).with_min_work(1);
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
        assert_matches_oracle(&got, &reference, &label);
        assert_counters(&got, n, &label);
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

    /// The acceptance sweep: random graphs and couplings, frontier ⇔ the
    /// plain-loop oracle bitwise across shards {1, 2, 8} × threads {1, 4}
    /// × budgets {tiny, ample} on both the resident and the paged
    /// backend.
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
        // The plain-loop oracle is the reference everything must hit bit
        // for bit.
        let want = solo_full(&adj, &e, &h, &base);

        let cfg = ParallelismConfig::with_threads(threads).with_min_work(1);
        let label = format!(
            "n={nodes} seed={seed} s={shards} t={threads} tol={tol} tiny={tiny_budget}"
        );
        // Resident sharded path.
        let sharded = ShardedCsr::from_csr(&adj, shards);
        let got = linbp_on(&sharded, &e, &h, &LinBpOptions { parallelism: cfg, ..base }).unwrap();
        assert_matches_oracle(&got, &want, &label);
        assert_counters(&got, nodes, &label);
        // Paged path under a tiny (always-evicting) or ample budget.
        let budget = if tiny_budget { 1 } else { csr_bytes(&adj) * 4 };
        let path = tmp(&format!("prop-{nodes}-{seed}-{shards}-{threads}-{tiny_budget}.lsbp"));
        let opts = PagedOptions::default().with_budget(Some(budget));
        let paged = PagedCsr::spill(&adj, &path, shards, opts).unwrap();
        let got = linbp_on(&paged, &e, &h, &LinBpOptions { parallelism: cfg, ..base }).unwrap();
        assert_matches_oracle(&got, &want, &format!("{label} (paged)"));
        assert_counters(&got, nodes, &format!("{label} (paged)"));
        // Stacked, q = 3 with distinct seed sets: per-query frontiers on
        // both backends, each answer equal to its oracle.
        let queries = [
            seeds(nodes, 3, &[(2, 0)]),
            seeds(nodes, 3, &[(nodes / 3, 1), (2 * nodes / 3, 2)]),
            e.clone(),
        ];
        let opts = LinBpOptions { parallelism: cfg, ..base };
        assert_batch_matches_solo(&sharded, &adj, &queries, &h, &opts, &format!("{label} (stacked)"));
        assert_batch_matches_solo(
            &paged, &adj, &queries, &h, &opts, &format!("{label} (stacked, paged)"));
    }
}

/// Work conservation: a batch computes exactly the (row, query) pairs
/// its queries' solo solves compute — each query's counters equal
/// its solo solve's, so the batch's `Σ rows_active` equals the solo sum.
/// A union frontier (any query's change re-activating a row for every
/// query) would inflate the stacked counts.
#[test]
fn stacked_counters_equal_solo_counters() {
    let graphs = [
        (
            "erdos_renyi",
            erdos_renyi_gnm(300, 900, 5).adjacency(),
            CouplingMatrix::fig1c().unwrap().scaled_residual(0.04),
        ),
        (
            "kronecker m5",
            kronecker_graph(5).adjacency(),
            CouplingMatrix::fig6b_residual().scale(0.0005),
        ),
    ];
    for (name, adj, h) in &graphs {
        let n = adj.n_rows();
        for q in [2usize, 8, 33, 70] {
            // Seed sets of 1..=4 nodes, spread differently per query.
            let queries: Vec<ExplicitBeliefs> = (0..q)
                .map(|j| {
                    let picks: Vec<(usize, usize)> = (0..=j % 4)
                        .map(|i| ((j * 37 + i * 101) % n, (i + j) % 3))
                        .collect();
                    seeds(n, 3, &picks)
                })
                .collect();
            for threads in [1usize, 4] {
                let opts = LinBpOptions {
                    max_iter: 100,
                    tol: 1e-10,
                    parallelism: ParallelismConfig::with_threads(threads).with_min_work(1),
                    ..Default::default()
                };
                let label = format!("{name} q={q} t={threads}");
                let stacked = linbp_batch_on(adj, &queries, h, &opts).unwrap();
                let (mut stacked_sum, mut solo_sum, mut skipped) = (0u64, 0u64, 0u64);
                for (j, (got, e)) in stacked.iter().zip(&queries).enumerate() {
                    let solo = linbp_on(adj, e, h, &opts).unwrap();
                    assert_runs_identical(got, &solo, &format!("{label} query {j}"));
                    assert_eq!(
                        (got.rows_active, got.rows_skipped),
                        (solo.rows_active, solo.rows_skipped),
                        "{label} query {j}: stacked counters differ from the solo solve"
                    );
                    assert_counters(got, n, &format!("{label} query {j}"));
                    stacked_sum += got.rows_active;
                    solo_sum += solo.rows_active;
                    skipped += got.rows_skipped;
                }
                assert_eq!(stacked_sum, solo_sum, "{label}: Σ rows_active");
                assert!(
                    skipped > 0,
                    "{label}: nothing skipped, the check is vacuous"
                );
            }
        }
    }
}

/// A `-0.0` seed entry is a bit other than `+0.0`, so the frontier marks
/// it: the first sweep rewrites it to `+0.0` (`+0.0 + -0.0 = +0.0`), and
/// an unmarked pair would keep the `-0.0`.
#[test]
fn negative_zero_seed_is_marked_changed() {
    let n = 24;
    let adj = erdos_renyi_gnm(16, 40, 2).adjacency();
    // Nodes 16..24 are isolated: embed the 16-node graph in 24 rows.
    let mut coo = CooMatrix::new(n, n);
    for r in 0..adj.n_rows() {
        for (c, w) in adj.row_iter(r) {
            coo.push(r, c, w);
        }
    }
    let adj = coo.to_csr();
    let mut e = seeds(n, 3, &[(0, 0)]);
    e.set_residual(20, &[-0.0, 0.0, 0.0]).unwrap();
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.04);
    let opts = LinBpOptions {
        max_iter: 100,
        tol: 1e-10,
        parallelism: ParallelismConfig::serial(),
        ..Default::default()
    };
    let fr = frontier_vs_full(&adj, &e, &h, &opts, "-0.0 seed");
    assert_eq!(fr.beliefs.residual()[(20, 0)].to_bits(), 0.0f64.to_bits());
    let queries = [seeds(n, 3, &[(5, 1)]), e];
    assert_batch_matches_solo(&adj, &adj, &queries, &h, &opts, "-0.0 seed, stacked");
}

/// The start from `Ê` needs `w · 0.0 = ±0.0` and `d · 0.0 = ±0.0`. A
/// weight of `1e200` overflows its squared degree to `inf`, and an `inf`
/// weight breaks both: full recomputation then turns an all-zero row
/// into NaN, so the frontier must start all-changed (with echo on the
/// squared degrees, without it on the row sums) to match the oracle.
#[test]
fn non_finite_degrees_start_all_changed() {
    let n = 24;
    for w in [1e200, f64::INFINITY] {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..10 {
            coo.push_symmetric(i, i + 1, 1.0);
        }
        coo.push_symmetric(15, 16, w);
        coo.push_symmetric(16, 17, 1.0);
        let adj = coo.to_csr();
        let queries = [seeds(n, 3, &[(0, 0)]), seeds(n, 3, &[(9, 2)])];
        let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
        for echo in [true, false] {
            let opts = LinBpOptions {
                max_iter: 60,
                tol: 1e-10,
                parallelism: ParallelismConfig::serial(),
                ..Default::default()
            };
            let solve = |e: &ExplicitBeliefs| {
                if echo {
                    linbp_on(&adj, e, &h, &opts).unwrap()
                } else {
                    linbp_star_on(&adj, e, &h, &opts).unwrap()
                }
            };
            let stacked = if echo {
                linbp_batch_on(&adj, &queries, &h, &opts)
            } else {
                linbp_star_batch_on(&adj, &queries, &h, &opts)
            }
            .unwrap();
            for (j, (e, got)) in queries.iter().zip(&stacked).enumerate() {
                let label = format!("w={w} echo={echo} query {j}");
                let want = unfused_linbp(&adj, e.residual_matrix(), &h, echo, &opts);
                assert_matches_oracle(&solve(e), &want, &label);
                assert_matches_oracle(got, &want, &format!("{label} (stacked)"));
            }
        }
    }
}

/// An isolated seed whose `|Ê|` exceeds the divergence guard trips it at
/// sweep 1 — read out of the kernel's magnitudes — in the stacked and
/// solo runs alike, as in the plain-loop oracle, while its batch
/// neighbour keeps solving.
#[test]
fn isolated_seed_over_guard_trips_at_sweep_one() {
    let n = 30;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..20 {
        coo.push_symmetric(i, (i + 1) % 20, 1.0);
    }
    let adj = coo.to_csr();
    let mut big = ExplicitBeliefs::new(n, 3);
    big.set_label(25, 1, 10.0).unwrap();
    let normal = seeds(n, 3, &[(3, 0)]);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
    let opts = LinBpOptions {
        max_iter: 100,
        tol: 1e-10,
        divergence_guard: 10.0,
        parallelism: ParallelismConfig::serial(),
        ..Default::default()
    };
    let fr = frontier_vs_full(&adj, &big, &h, &opts, "isolated seed over guard");
    assert!(
        fr.diverged && fr.iterations == 1,
        "guard did not trip at sweep 1"
    );
    let label = "guard, stacked";
    let got = assert_batch_matches_solo(&adj, &adj, &[normal, big], &h, &opts, label);
    assert!(got[1].diverged && got[1].iterations == 1, "{label}");
    assert!(
        !got[0].diverged && got[0].iterations > 1,
        "{label}: the neighbour stopped too"
    );
}

/// Frozen queries are not copied forward: each answers from its own
/// buffer, which froze with it. Queries freezing an even and an odd number of sweeps
/// before the end, one on the last sweep of the budget and one still
/// unconverged at the budget must all equal their solo solves.
#[test]
fn queries_frozen_at_different_sweeps_read_from_their_buffer() {
    let adj = erdos_renyi_gnm(200, 700, 8).adjacency();
    let n = adj.n_rows();
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
    let queries: Vec<ExplicitBeliefs> = (0..12)
        .map(|j| {
            let picks: Vec<(usize, usize)> = (0..1 + j % 5)
                .map(|i| ((j * 53 + i * 17) % n, (i + j) % 3))
                .collect();
            let mut e = seeds(n, 3, &picks);
            // Scale spreads the convergence sweeps across queries.
            e = e.scaled(10f64.powi(j as i32 % 4 - 2));
            e
        })
        .collect();
    let opts = |max_iter| LinBpOptions {
        max_iter,
        tol: 1e-11,
        parallelism: ParallelismConfig::serial(),
        ..Default::default()
    };
    let free: Vec<usize> = queries
        .iter()
        .map(|e| solo_full(&adj, e, &h, &opts(500)).iterations)
        .collect();
    // The budget: the second-largest distinct convergence sweep, so the
    // slowest queries hit it unconverged and some freeze exactly on it.
    let mut sweeps = free.clone();
    sweeps.sort_unstable();
    sweeps.dedup();
    assert!(
        sweeps.len() >= 3,
        "convergence sweeps barely differ: {free:?}"
    );
    let budget = sweeps[sweeps.len() - 2];
    let got =
        assert_batch_matches_solo(&adj, &adj, &queries, &h, &opts(budget), "staggered freezes");
    let at = |pred: &dyn Fn(&LinBpResult) -> bool| got.iter().any(pred);
    assert!(
        at(&|r| r.converged && r.iterations == budget),
        "none froze on the last sweep"
    );
    assert!(
        at(&|r| !r.converged && r.iterations == budget),
        "none ran out of budget"
    );
    assert!(
        at(&|r| r.converged && (budget - r.iterations) % 2 == 1),
        "no odd parity"
    );
    assert!(
        at(&|r| r.converged && r.iterations < budget && (budget - r.iterations).is_multiple_of(2)),
        "no even parity"
    );
}

/// One step at a time over per-query buffers: a frozen query leaves the
/// sweep, so its buffers are neither computed nor written — whatever its
/// output buffer held stays, and its current buffer keeps its beliefs —
/// while every live query's beliefs and delta follow its plain-loop
/// oracle round for round, bit for bit, and the steps skip rows whose
/// inputs did not change.
#[test]
fn frozen_query_block_stays_unwritten() {
    let (n, k, q, sweeps) = (150, 3, 3, 8);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push_symmetric(i, (i * 7 + 3) % n, 1.0);
        coo.push_symmetric(i, (i + 1) % n, 0.5);
    }
    let adj = coo.to_csr();
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
    let h2 = h.matmul(&h);
    let singles: Vec<ExplicitBeliefs> = (0..q).map(|j| seeds(n, k, &[(10 + 40 * j, j)])).collect();
    // Each query's oracle rounds: (beliefs after the round, its delta).
    let rounds = LinBpOptions {
        max_iter: sweeps,
        tol: 0.0,
        divergence_guard: f64::INFINITY,
        parallelism: ParallelismConfig::serial(),
        ..Default::default()
    };
    let oracle: Vec<Vec<(Mat, f64)>> = singles
        .iter()
        .map(|e| {
            let mut trajectory = Vec::new();
            unfused_linbp_observed(&adj, e.residual_matrix(), &h, true, &rounds, |old, new| {
                trajectory.push((new.clone(), new.max_abs_diff(old)));
            });
            trajectory
        })
        .collect();
    let sentinel = f64::from_bits(0x7FF4_0000_0000_BEEF);
    for threads in [1usize, 4] {
        let cfg = ParallelismConfig::with_threads(threads).with_min_work(1);
        let plan = adj.frontier_plan();
        let mut frontiers: Vec<FrontierState<'_>> = singles
            .iter()
            .map(|e| FrontierState::from_seeds(plan, e.residual_matrix()))
            .collect();
        let mut b: Vec<Mat> = singles
            .iter()
            .map(|e| e.residual_matrix().clone())
            .collect();
        let mut next: Vec<Mat> = (0..q).map(|_| Mat::zeros(n, k)).collect();
        for sweep in 0..sweeps {
            // Query 1 freezes after sweep 3; from then on its output
            // buffer holds a sentinel no step may touch.
            let live = [true, sweep < 3, true];
            if sweep == 3 {
                next[1].as_mut_slice().fill(sentinel);
            }
            let mut steps: Vec<QuerySweep<'_, '_>> = singles
                .iter()
                .zip(&b)
                .zip(next.iter_mut())
                .zip(frontiers.iter_mut())
                .zip(live)
                .filter(|&(_, on)| on)
                .map(|((((e, b), out), frontier), _)| QuerySweep {
                    step: FusedLinBpStep {
                        e_hat: e.residual_matrix(),
                        h: &h,
                        h2: Some(&h2),
                        degrees: adj.squared_weight_degrees(),
                        damping: 0.0,
                    },
                    b,
                    out,
                    frontier,
                    delta: f64::NAN,
                })
                .collect();
            adj.linbp_step_fused_frontier_with(&mut steps, &cfg);
            let mut deltas = steps
                .into_iter()
                .map(|s| s.delta)
                .collect::<Vec<_>>()
                .into_iter();
            for (j, &on) in live.iter().enumerate() {
                let label = format!("t={threads} sweep {sweep} query {j}");
                if on {
                    frontiers[j].commit();
                    std::mem::swap(&mut b[j], &mut next[j]);
                    let (want, want_delta) = &oracle[j][sweep];
                    assert!(bits_equal(&b[j], want), "{label}: differs from the oracle");
                    let delta = deltas.next().unwrap();
                    assert_eq!(delta.to_bits(), want_delta.to_bits(), "{label}: delta");
                } else {
                    assert!(
                        next[j]
                            .as_slice()
                            .iter()
                            .all(|x| x.to_bits() == sentinel.to_bits()),
                        "{label}: a frozen query's output buffer was written"
                    );
                    assert!(
                        bits_equal(&b[j], &oracle[j][2].0),
                        "{label}: a frozen query's beliefs moved"
                    );
                }
            }
        }
        assert_eq!(
            frontiers[1].rows_active + frontiers[1].rows_skipped,
            3 * n as u64,
            "t={threads}: query 1 counted only while live"
        );
        assert!(
            frontiers.iter().map(|f| f.rows_skipped).sum::<u64>() > 0,
            "t={threads}: nothing skipped"
        );
    }
}

/// Label draws over a network's nodes: draw `j` labels about one node in
/// twenty with its class, from its own stream.
fn label_draw(classes: &[usize], k: usize, j: usize) -> ExplicitBeliefs {
    let mut e = ExplicitBeliefs::new(classes.len(), k);
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (j as u64 + 2);
    for (v, &c) in classes.iter().enumerate() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if (x >> 33).is_multiple_of(20) {
            e.set_label(v, c % k, 1.0).unwrap();
        }
    }
    e
}

/// Solves `seeds` as one stacked batch on the resident `adj` and on a
/// paged copy of it at an unbounded budget (whose shard walk always
/// pulls). Both must agree bit for bit, and every query's run and
/// counters must equal its oracle's (`oracles[j]` for `seeds[j]`).
fn assert_counters_match_pull_oracle(
    adj: &CsrMatrix,
    seeds: &[ExplicitBeliefs],
    oracles: &[&PullCounts],
    h: &Mat,
    opts: &LinBpOptions,
    label: &str,
) {
    let resident = linbp_batch_on(adj, seeds, h, opts).unwrap();
    let path = tmp(&format!(
        "oracle-{}.lsbp",
        label.replace([' ', ',', '='], "_")
    ));
    let paged = PagedCsr::spill(adj, &path, 4, PagedOptions::default().with_budget(None)).unwrap();
    let pulled = linbp_batch_on(&paged, seeds, h, opts).unwrap();
    for (j, (got, want)) in resident.iter().zip(oracles).enumerate() {
        let label = format!("{label}, query {j}");
        let oracle = &want.reference;
        assert_eq!(got.iterations, oracle.iterations, "{label}: iterations");
        assert_eq!(got.converged, oracle.converged, "{label}: converged");
        assert_eq!(got.diverged, oracle.diverged, "{label}: diverged");
        assert_eq!(
            got.final_delta.to_bits(),
            oracle.final_delta.to_bits(),
            "{label}: final delta"
        );
        assert!(
            bits_equal(got.beliefs.residual(), &oracle.beliefs),
            "{label}: beliefs differ from the plain-loop oracle"
        );
        assert_eq!(
            (got.rows_active, got.rows_skipped),
            (want.rows_active, want.rows_skipped),
            "{label}: counters differ from the oracle's pull sets"
        );
        assert_runs_identical(&pulled[j], got, &format!("{label}, paged"));
        assert_eq!(
            (pulled[j].rows_active, pulled[j].rows_skipped),
            (got.rows_active, got.rows_skipped),
            "{label}: paged (pull) counters"
        );
    }
}

/// Whatever mix of pushed and pulled sweeps a solve runs, its counters
/// equal the pull sets of the plain-loop oracle's iterates, and its bits
/// equal the oracle's: at q ∈ {1, 3, 33} and 1 or 2 threads, on a tol-0
/// fixed-budget solve that ends in a limit cycle of last-ulp flips, on
/// an edge-delta patch, and on a directed graph whose asymmetric pattern
/// must pull throughout.
#[test]
fn push_counters_match_pull_oracle() {
    let k = 4;
    // A small dblp_like network; at the full size, fixed-budget solves
    // end in the same kind of limit cycle.
    let cfg = DblpConfig {
        n_papers: 800,
        n_authors: 800,
        n_terms_per_area: 100,
        n_shared_terms: 50,
        ..DblpConfig::default()
    };
    let net = dblp_like(&cfg, 42);
    let adj = net.graph.adjacency();
    let n = adj.n_rows();
    assert!(adj.frontier_plan().pattern_symmetric());
    let h = CouplingMatrix::homophily(k, 0.6)
        .unwrap()
        .residual()
        .scale(0.005);
    let fixed = LinBpOptions {
        max_iter: 30,
        tol: 0.0,
        ..Default::default()
    };
    let converging = LinBpOptions { tol: 1e-9, ..fixed };
    // Six distinct draws; a 33-query batch cycles through them.
    let draws: Vec<ExplicitBeliefs> = (0..6).map(|j| label_draw(&net.classes, k, j)).collect();
    let oracles: Vec<PullCounts> = draws
        .iter()
        .map(|e| pull_counts(&adj, e.residual_matrix(), &h, true, &fixed))
        .collect();
    // The draws run sweeps on both sides of the push gate (the changed
    // rows' degrees summing to at most n, or more), and some never
    // settle: their last sweep still flips a few rows.
    let costs = || oracles.iter().flat_map(|o| &o.changed_degrees);
    assert!(costs().any(|&c| c <= n), "no sweep could push");
    assert!(costs().any(|&c| c > n), "no sweep had to pull");
    assert!(
        oracles[0].changed_degrees[29] > 0 && oracles[0].changed_degrees[29] <= n,
        "draw 0 does not end in a sparse limit cycle"
    );

    // An edge-delta patch: its seeds sit on the changed edges'
    // endpoints, so its first sweep pushes.
    let deltas = [(0, n - 1, 1.0), (n - 1, 0, 1.0), (5, 17, 0.5), (17, 5, 0.5)];
    let patched = adj.try_with_edge_deltas(&deltas).unwrap();
    assert!(patched.frontier_plan().pattern_symmetric());
    let patch_seeds: Vec<ExplicitBeliefs> = draws[..3]
        .iter()
        .map(|e| {
            let previous = linbp_on(&adj, e, &h, &converging).unwrap();
            linbp_edge_delta_seed(&adj, &deltas, &previous.beliefs, &h, true).unwrap()
        })
        .collect();
    let patch_oracles: Vec<PullCounts> = patch_seeds
        .iter()
        .map(|e| pull_counts(&patched, e.residual_matrix(), &h, true, &converging))
        .collect();
    assert!(patch_oracles.iter().all(|o| o.changed_degrees[0] <= n));

    // A directed graph: each edge stored one way only, so no sweep may
    // push (it would mark the wrong rows).
    let mut coo = CooMatrix::new(n, n);
    for r in 0..n {
        for (c, w) in adj.row_iter(r).filter(|&(c, _)| c > r) {
            coo.push(r, c, w);
        }
    }
    let directed = coo.to_csr();
    assert!(!directed.frontier_plan().pattern_symmetric());
    let directed_oracles: Vec<PullCounts> = draws[..3]
        .iter()
        .map(|e| pull_counts(&directed, e.residual_matrix(), &h, true, &fixed))
        .collect();

    for threads in [1usize, 2] {
        let par = ParallelismConfig::with_threads(threads).with_min_work(1);
        let fixed = LinBpOptions {
            parallelism: par,
            ..fixed
        };
        // The 33-query batch (a field straddling words in every row)
        // runs on the partitioned path only, to keep the suite quick.
        for q in [1usize, 3, 33]
            .into_iter()
            .filter(|&q| q < 33 || threads > 1)
        {
            let seeds: Vec<ExplicitBeliefs> = (0..q).map(|j| draws[j % 6].clone()).collect();
            let want: Vec<&PullCounts> = (0..q).map(|j| &oracles[j % 6]).collect();
            let label = format!("fixed budget, t = {threads}, q = {q}");
            assert_counters_match_pull_oracle(&adj, &seeds, &want, &h, &fixed, &label);
        }
        let converging = LinBpOptions {
            parallelism: par,
            ..converging
        };
        let want: Vec<&PullCounts> = patch_oracles.iter().collect();
        let label = format!("edge-delta patch, t = {threads}");
        assert_counters_match_pull_oracle(&patched, &patch_seeds, &want, &h, &converging, &label);
        let want: Vec<&PullCounts> = directed_oracles.iter().collect();
        let label = format!("directed, t = {threads}");
        assert_counters_match_pull_oracle(&directed, &draws[..3], &want, &h, &fixed, &label);
    }
}
