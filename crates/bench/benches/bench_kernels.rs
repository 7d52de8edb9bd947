//! Ablation benches for why LinBP is fast. Compares the two possible
//! update kernels on the same graph —
//!
//! * beliefs-as-matrix: one fused CSR step (SpMM + k×k matmul + echo
//!   term in a single pass) per iteration (what LinBP does),
//! * messages-as-edges: 2|E| per-edge k-vector updates per iteration
//!   (what standard BP does),
//!
//! plus the primitive kernels (SpMM, SpMV, dense matmul) they decompose
//! into.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsbp::prelude::*;
use lsbp_bench::kronecker_style_beliefs;
use lsbp_graph::generators::kronecker_graph;
use lsbp_linalg::Mat;
use lsbp_sparse::FusedLinBpStep;

fn bench(c: &mut Criterion) {
    let ho = CouplingMatrix::fig6b_residual();
    let h = ho.scale(0.0005);
    let h_raw = CouplingMatrix::from_residual(&ho, 0.0005).unwrap();

    let mut group = c.benchmark_group("update_kernels_per_iteration");
    group.sample_size(10);
    for m in [6u32, 7] {
        let graph = kronecker_graph(m);
        let adj = graph.adjacency();
        let n = graph.num_nodes();
        let e = kronecker_style_beliefs(n, 3, n / 20, m as u64, false);

        let h2 = h.matmul(&h);
        let degrees = adj.squared_weight_degrees();
        let e_hat = e.residual_matrix().clone();
        let b0 = e_hat.clone();

        // One fused LinBP step (beliefs-as-matrix): the update plus the
        // convergence read-out in a single row-partitioned pass.
        group.bench_with_input(BenchmarkId::new("fused_step", n), &n, |bch, _| {
            let mut out = Mat::zeros(n, 3);
            let mut deltas = [0.0f64];
            let cfg = ParallelismConfig::serial();
            let step = FusedLinBpStep {
                e_hat: &e_hat,
                h: &h,
                h2: Some(&h2),
                degrees,
                damping: 0.0,
            };
            bch.iter(|| {
                adj.linbp_step_fused_with(&b0, &step, &mut out, &mut deltas, &cfg);
            })
        });

        // One BP round (messages-as-edges) — measured as 1 iteration of bp.
        let opts = BpOptions {
            max_iter: 1,
            tol: 0.0,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("messages_edges_round", n), &n, |bch, _| {
            bch.iter(|| bp(&adj, &e, h_raw.raw(), &opts).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("primitive_kernels");
    group.sample_size(20);
    let graph = kronecker_graph(7);
    let adj = graph.adjacency();
    let n = graph.num_nodes();
    let b = Mat::from_fn(n, 3, |r, c| ((r * 3 + c) % 17) as f64 * 0.01);
    group.bench_function("spmm_nx3", |bch| {
        let mut out = Mat::zeros(n, 3);
        bch.iter(|| adj.spmm_into(&b, &mut out))
    });
    let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 * 0.1).collect();
    group.bench_function("spmv", |bch| {
        let mut y = vec![0.0; n];
        bch.iter(|| adj.spmv_into(&x, &mut y))
    });
    group.bench_function("dense_matmul_nx3_3x3", |bch| {
        let k3 = Mat::from_fn(3, 3, |r, c| 0.1 * (r + c) as f64);
        bch.iter(|| b.matmul(&k3))
    });
    group.finish();

    // The transpose split heuristic at the size where the PR 3 parallel
    // scatter regressed (kronecker m9, average degree ~13): with the
    // retuned write-bound clamp the 2/4-thread configurations refuse to
    // split and must match the serial time instead of trailing it.
    let mut group = c.benchmark_group("transpose_m9_split_heuristic");
    group.sample_size(10);
    let graph = kronecker_graph(9);
    let adj = graph.adjacency();
    for threads in [1usize, 2, 4] {
        let cfg = ParallelismConfig::with_threads(threads);
        group.bench_with_input(
            BenchmarkId::new("transpose", threads),
            &threads,
            |bch, _| bch.iter(|| adj.transpose_with(&cfg)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
