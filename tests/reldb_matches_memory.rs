//! Cross-crate equivalence: the relational (SQL) implementations of
//! Algorithms 1–4 produce bit-for-bit the same results as the in-memory
//! matrix/BFS implementations, on non-trivial graphs.

use lsbp::prelude::*;
use lsbp_graph::generators::{dblp_like, erdos_renyi_gnm, kronecker_graph, DblpConfig};
use lsbp_reldb::sql::{belief_table_to_matrix, geodesic_table_to_vec};
use lsbp_reldb::SqlDb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_labels(n: usize, k: usize, count: usize, seed: u64) -> ExplicitBeliefs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = ExplicitBeliefs::new(n, k);
    let mut placed = 0;
    while placed < count {
        let v = rng.gen_range(0..n);
        if !e.is_explicit(v) {
            e.set_label(v, rng.gen_range(0..k), 1.0).unwrap();
            placed += 1;
        }
    }
    e
}

#[test]
fn linbp_on_kronecker() {
    let g = kronecker_graph(5);
    let n = g.num_nodes();
    let e = random_labels(n, 3, n / 20, 3);
    let h = CouplingMatrix::fig6b_residual().scale(0.002);
    let db = SqlDb::new(&g, &e, &h);
    for echo in [true, false] {
        let sql_b = db.linbp(5, echo);
        let opts = LinBpOptions {
            max_iter: 5,
            tol: 0.0,
            ..Default::default()
        };
        let native = if echo {
            linbp_on(&g.adjacency(), &e, &h, &opts).unwrap()
        } else {
            linbp_star_on(&g.adjacency(), &e, &h, &opts).unwrap()
        };
        assert!(
            sql_b.residual().max_abs_diff(native.beliefs.residual()) < 1e-12,
            "echo = {echo}"
        );
    }
}

#[test]
fn sbp_on_dblp_like() {
    let net = dblp_like(&DblpConfig::tiny(), 7);
    let n = net.graph.num_nodes();
    let e = random_labels(n, 4, n / 10, 9);
    let ho = CouplingMatrix::fig11a_residual();
    let db = SqlDb::new(&net.graph, &e, &ho);
    let state = db.sbp();
    let native = sbp_on(
        &net.graph.adjacency(),
        &e,
        &ho,
        &ParallelismConfig::default(),
    )
    .unwrap();
    let sql_b = belief_table_to_matrix(&state.b, n, 4);
    assert!(sql_b.residual().max_abs_diff(native.beliefs.residual()) < 1e-10);
    assert_eq!(geodesic_table_to_vec(&state.g, n), native.geodesics.g);
}

/// Multi-batch incremental beliefs: three successive Algorithm 3 batches,
/// checked against both the native incremental and from-scratch runs.
#[test]
fn multi_batch_add_explicit() {
    let ho = CouplingMatrix::fig1c().unwrap().residual();
    let g = erdos_renyi_gnm(80, 200, 17);
    let adj = g.adjacency();
    let base = random_labels(80, 3, 4, 0);
    let mut db = SqlDb::new(&g, &base, &ho);
    let mut state = db.sbp();
    let mut native_state = sbp_on(&adj, &base, &ho, &ParallelismConfig::default()).unwrap();
    let mut all = base.clone();
    for batch in 1..=3u64 {
        let mut delta = ExplicitBeliefs::new(80, 3);
        let mut rng = StdRng::seed_from_u64(batch);
        for _ in 0..3 {
            let v = rng.gen_range(0..80);
            let c = rng.gen_range(0..3);
            delta.set_label(v, c, 1.0).unwrap();
            all.set_label(v, c, 1.0).unwrap();
        }
        db.sbp_add_explicit(&mut state, &delta);
        native_state = sbp_add_explicit(&adj, &ho, &native_state, &delta).unwrap();
    }
    let scratch = sbp_on(&adj, &all, &ho, &ParallelismConfig::default()).unwrap();
    let sql_b = belief_table_to_matrix(&state.b, 80, 3);
    assert!(sql_b.residual().max_abs_diff(scratch.beliefs.residual()) < 1e-10);
    assert!(
        native_state
            .beliefs
            .residual()
            .max_abs_diff(scratch.beliefs.residual())
            < 1e-10
    );
    assert_eq!(geodesic_table_to_vec(&state.g, 80), scratch.geodesics.g);
    assert_eq!(native_state.geodesics.g, scratch.geodesics.g);
}

/// Multi-batch incremental edges, SQL and native against from-scratch.
#[test]
fn multi_batch_add_edges() {
    let ho = CouplingMatrix::fig1c().unwrap().residual();
    let full = erdos_renyi_gnm(60, 180, 23);
    let (base, extra) = full.split_edges(140);
    let extra_edges: Vec<_> = extra.edges().collect();
    let e = random_labels(60, 3, 5, 4);

    let mut db = SqlDb::new(&base, &e, &ho);
    let mut state = db.sbp();
    let mut native_state =
        sbp_on(&base.adjacency(), &e, &ho, &ParallelismConfig::default()).unwrap();

    // Apply in two batches of 20.
    let mut grown = base.clone();
    for chunk in extra_edges.chunks(20) {
        for &(s, t, w) in chunk {
            grown.add_edge(s, t, w);
        }
        let adj_now = grown.adjacency();
        db.sbp_add_edges(&mut state, chunk);
        native_state = sbp_add_edges(&adj_now, chunk, &ho, &native_state).unwrap();
    }
    let scratch = sbp_on(&full.adjacency(), &e, &ho, &ParallelismConfig::default()).unwrap();
    let sql_b = belief_table_to_matrix(&state.b, 60, 3);
    assert!(sql_b.residual().max_abs_diff(scratch.beliefs.residual()) < 1e-10);
    assert!(
        native_state
            .beliefs
            .residual()
            .max_abs_diff(scratch.beliefs.residual())
            < 1e-10
    );
    assert_eq!(geodesic_table_to_vec(&state.g, 60), scratch.geodesics.g);
}

/// Weighted graphs through the relational path.
#[test]
fn weighted_sql_equivalence() {
    let mut g = lsbp_graph::Graph::new(12);
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..25 {
        let s = rng.gen_range(0..12);
        let t = rng.gen_range(0..12);
        if s != t {
            g.add_edge(s, t, rng.gen_range(1..5) as f64 * 0.5);
        }
    }
    let e = random_labels(12, 3, 3, 5);
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
    let db = SqlDb::new(&g, &e, &h);
    let sql_b = db.linbp(5, true);
    let native = linbp_on(
        &g.adjacency(),
        &e,
        &h,
        &LinBpOptions {
            max_iter: 5,
            tol: 0.0,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(sql_b.residual().max_abs_diff(native.beliefs.residual()) < 1e-12);

    let ho = CouplingMatrix::fig1c().unwrap().residual();
    let db2 = SqlDb::new(&g, &e, &ho);
    let state = db2.sbp();
    let native_sbp = sbp_on(&g.adjacency(), &e, &ho, &ParallelismConfig::default()).unwrap();
    let sql_sbp = belief_table_to_matrix(&state.b, 12, 3);
    assert!(
        sql_sbp
            .residual()
            .max_abs_diff(native_sbp.beliefs.residual())
            < 1e-12
    );
}
