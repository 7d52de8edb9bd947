//! Criterion bench for the relational engine (Fig. 7(b)'s columns):
//! SQL LinBP (Algorithm 1's script through the planner and executor) vs
//! SQL SBP vs ΔSBP (engine operators) on Kronecker graph #1.

use criterion::{criterion_group, criterion_main, Criterion};
use lsbp::prelude::*;
use lsbp_bench::{kronecker_style_beliefs, random_labels};
use lsbp_graph::generators::kronecker_graph;
use lsbp_reldb::SqlDb;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("reldb_graph1");
    group.sample_size(10);
    let ho = CouplingMatrix::fig6b_residual();
    let graph = kronecker_graph(5);
    let n = graph.num_nodes();
    let e = kronecker_style_beliefs(n, 3, n / 20, 1, false);

    let db_lin = SqlDb::new(&graph, &e, &ho.scale(0.0005));
    group.bench_function("sql_linbp_5iter", |b| b.iter(|| db_lin.linbp(5, true)));

    let db_sbp = SqlDb::new(&graph, &e, &ho);
    group.bench_function("sql_sbp", |b| b.iter(|| db_sbp.sbp()));

    let delta = random_labels(n, 3, (n / 100).max(1), 5);
    group.bench_function("sql_delta_sbp_1pct", |b| {
        b.iter_with_setup(
            || (db_sbp.clone(), db_sbp.sbp()),
            |(mut db, mut state)| {
                db.sbp_add_explicit(&mut state, &delta);
                state
            },
        )
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
