//! Criterion bench for Fig. 7(a)'s LinBP column: cost of 5 LinBP /
//! LinBP\* iterations across Kronecker graph scales; the stacked-vs-solo
//! probe: one stacked solve of 8 seed sets against the same 8 sets
//! solved one by one; and the fixed-budget tail: 100 exact sweeps on
//! dblp_like, most of them in a limit cycle of last-ulp flips.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsbp::prelude::*;
use lsbp_bench::kronecker_style_beliefs;
use lsbp_graph::generators::{dblp_like, kronecker_graph, DblpConfig};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("linbp_5iter");
    group.sample_size(10);
    let ho = CouplingMatrix::fig6b_residual();
    let h = ho.scale(0.0005);
    for m in [5u32, 6, 7] {
        let graph = kronecker_graph(m);
        let adj = graph.adjacency();
        let n = graph.num_nodes();
        let e = kronecker_style_beliefs(n, 3, n / 20, m as u64, false);
        let opts = LinBpOptions {
            max_iter: 5,
            tol: 0.0,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("linbp", n), &n, |b, _| {
            b.iter(|| linbp_on(&adj, &e, &h, &opts).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("linbp_star", n), &n, |b, _| {
            b.iter(|| linbp_star_on(&adj, &e, &h, &opts).unwrap())
        });
    }
    group.finish();
}

/// Stacking pays off only if a stacked solve costs less than its solo
/// solves: kronecker m7, q = 8 seed blocks of `n/40` consecutive rows
/// (the serving workload's shape), tol 1e-9. Compare `stacked_q8` with
/// `solo_x8`; with per-query frontiers the stacked solve computes the
/// same (row, query) pairs as the solo ones.
fn stacked_vs_solo(c: &mut Criterion) {
    let mut group = c.benchmark_group("stacked_vs_solo");
    group.sample_size(10);
    let adj = kronecker_graph(7).adjacency();
    let n = adj.n_rows();
    let h = CouplingMatrix::fig6b_residual().scale(0.0005);
    let block = (n / 40).max(1);
    let queries: Vec<ExplicitBeliefs> = (0..8)
        .map(|j| {
            let mut e = ExplicitBeliefs::new(n, 3);
            for i in 0..block {
                e.set_label(j * block + i, (i + j) % 3, 1.0).unwrap();
            }
            e
        })
        .collect();
    let opts = LinBpOptions {
        tol: 1e-9,
        ..Default::default()
    };
    group.bench_function("stacked_q8", |b| {
        b.iter(|| linbp_batch_on(&adj, &queries, &h, &opts).unwrap())
    });
    group.bench_function("solo_x8", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|e| linbp_on(&adj, e, &h, &opts).unwrap())
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

/// A tol-0 solve never stops early: on dblp_like (36k nodes, k = 4,
/// about 5% of the nodes labelled), after about 14 sweeps each sweep
/// changes only a few rows by one ulp, and the rest of the 100-sweep
/// budget is spent on them. This is where the frontier's per-sweep
/// overhead shows, so compare `q1` before and after a frontier change;
/// `q8` stacks eight such draws.
fn fixed_budget_tail(c: &mut Criterion) {
    let mut group = c.benchmark_group("fixed_budget_tail");
    group.sample_size(10);
    let k = 4;
    let net = dblp_like(&DblpConfig::default(), 42);
    let adj = net.graph.adjacency();
    let n = adj.n_rows();
    let h = CouplingMatrix::homophily(k, 0.6)
        .unwrap()
        .residual()
        .scale(0.005);
    let draw = |j: u64| {
        let mut e = ExplicitBeliefs::new(n, k);
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (j + 1);
        for (v, &class) in net.classes.iter().enumerate() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (x >> 33).is_multiple_of(20) {
                e.set_label(v, class, 1.0).unwrap();
            }
        }
        e
    };
    let queries: Vec<ExplicitBeliefs> = (0..8).map(draw).collect();
    let opts = LinBpOptions {
        max_iter: 100,
        tol: 0.0,
        ..Default::default()
    };
    group.bench_function("q1", |b| {
        b.iter(|| linbp_on(&adj, &queries[0], &h, &opts).unwrap())
    });
    group.bench_function("q8", |b| {
        b.iter(|| linbp_batch_on(&adj, &queries, &h, &opts).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench, stacked_vs_solo, fixed_budget_tail);
criterion_main!(benches);
