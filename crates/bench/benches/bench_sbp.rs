//! Criterion bench for SBP: full runs (single pass over the graph) and
//! incremental maintenance (Algorithms 3 & 4, native implementations).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsbp::prelude::*;
use lsbp_bench::{kronecker_style_beliefs, random_labels};
use lsbp_graph::generators::kronecker_graph;

fn bench(c: &mut Criterion) {
    let ho = CouplingMatrix::fig6b_residual();

    let mut group = c.benchmark_group("sbp_full");
    group.sample_size(10);
    for m in [5u32, 6, 7] {
        let graph = kronecker_graph(m);
        let adj = graph.adjacency();
        let n = graph.num_nodes();
        let e = kronecker_style_beliefs(n, 3, n / 20, m as u64, false);
        group.bench_with_input(BenchmarkId::new("sbp", n), &n, |b, _| {
            b.iter(|| sbp_on(&adj, &e, &ho, &ParallelismConfig::default()).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("sbp_incremental");
    group.sample_size(10);
    let graph = kronecker_graph(7);
    let adj = graph.adjacency();
    let n = graph.num_nodes();
    let e = kronecker_style_beliefs(n, 3, n / 20, 3, false);
    let prev = sbp_on(&adj, &e, &ho, &ParallelismConfig::default()).unwrap();
    let delta = random_labels(n, 3, (n / 1000).max(1), 9);
    group.bench_function("add_explicit_1permille", |b| {
        b.iter(|| sbp_add_explicit(&adj, &ho, &prev, &delta).unwrap())
    });
    // Edge insertion: re-add the last 0.5% of edges.
    let keep = graph.num_edges() - graph.num_edges() / 200;
    let (base, extra) = graph.split_edges(keep);
    let prev_base = sbp_on(&base.adjacency(), &e, &ho, &ParallelismConfig::default()).unwrap();
    let new_edges: Vec<_> = extra.edges().collect();
    group.bench_function("add_edges_0.5pct", |b| {
        b.iter(|| sbp_add_edges(&adj, &new_edges, &ho, &prev_base).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
