//! Weighted-graph semantics (Sect. 5.2): weights scale coupling strengths,
//! parallel paths add up, and the degree matrix uses squared weights.

use lsbp::prelude::*;
use lsbp_graph::Graph;
use lsbp_linalg::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn weighted_random(n: usize, edges: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    let mut placed = std::collections::HashSet::new();
    while placed.len() < edges {
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        if s == t {
            continue;
        }
        let key = (s.min(t), s.max(t));
        if placed.insert(key) {
            g.add_edge(key.0, key.1, rng.gen_range(1..=4) as f64 * 0.5);
        }
    }
    g
}

/// The degree matrix D uses squared weights: validate through the fixed
/// point equation on a weighted graph.
#[test]
fn fixed_point_with_squared_weight_degrees() {
    let g = weighted_random(15, 30, 1);
    let adj = g.adjacency();
    let mut e = ExplicitBeliefs::new(15, 3);
    e.set_label(0, 0, 1.0).unwrap();
    e.set_label(7, 2, 1.0).unwrap();
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
    let r = linbp_on(
        &adj,
        &e,
        &h,
        &LinBpOptions {
            max_iter: 20_000,
            tol: 1e-15,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(r.converged);
    let b = r.beliefs.residual();
    // Manually recompute Ê + A·B̂·Ĥ − D·B̂·Ĥ² with d_s = Σ w².
    let h2 = h.matmul(&h);
    let degrees = adj.squared_weight_degrees();
    let ab = adj.spmm(b).matmul(&h);
    let db = Mat::from_fn(15, 3, |row, c| degrees[row] * b[(row, c)]).matmul(&h2);
    let rhs = e.residual_matrix().add(&ab).sub(&db);
    assert!(b.max_abs_diff(&rhs) < 1e-12);
}

/// Closed form matches iterative on weighted graphs too.
#[test]
fn weighted_closed_form_agreement() {
    let g = weighted_random(12, 24, 5);
    let adj = g.adjacency();
    let mut e = ExplicitBeliefs::new(12, 2);
    e.set_label(3, 1, 0.5).unwrap();
    let h = CouplingMatrix::fig1a().unwrap().scaled_residual(0.05);
    let exact = linbp_closed_form_dense(&adj, &e, &h, true).unwrap();
    let iter = linbp_on(
        &adj,
        &e,
        &h,
        &LinBpOptions {
            max_iter: 50_000,
            tol: 1e-15,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(iter.converged);
    assert!(exact.residual().max_abs_diff(iter.beliefs.residual()) < 1e-10);
}

/// A parallel edge of weight w is equivalent to summing weights into one
/// edge, end to end through LinBP.
#[test]
fn parallel_edges_equal_summed_weight() {
    let mut with_parallel = Graph::new(4);
    with_parallel.add_edge(0, 1, 1.0);
    with_parallel.add_edge(0, 1, 1.5);
    with_parallel.add_edge(1, 2, 1.0);
    with_parallel.add_edge(2, 3, 2.0);
    let mut merged = Graph::new(4);
    merged.add_edge(0, 1, 2.5);
    merged.add_edge(1, 2, 1.0);
    merged.add_edge(2, 3, 2.0);

    let mut e = ExplicitBeliefs::new(4, 2);
    e.set_label(0, 0, 0.1).unwrap();
    let h = CouplingMatrix::fig1a().unwrap().scaled_residual(0.05);
    let opts = LinBpOptions {
        max_iter: 10_000,
        tol: 1e-15,
        ..Default::default()
    };
    let a = linbp_on(&with_parallel.adjacency(), &e, &h, &opts).unwrap();
    let b = linbp_on(&merged.adjacency(), &e, &h, &opts).unwrap();
    assert!(a.beliefs.residual().max_abs_diff(b.beliefs.residual()) < 1e-12);
}

/// Weighted SBP: heavier shortest paths dominate ties in top-belief
/// assignment.
#[test]
fn weighted_sbp_path_weights() {
    // Two length-2 paths from opposing seeds to node 4; the heavier one
    // wins.
    let mut g = Graph::new(5);
    g.add_edge(0, 2, 3.0); // seed 0 (class 0) — heavy path
    g.add_edge(2, 4, 3.0);
    g.add_edge(1, 3, 1.0); // seed 1 (class 1) — light path
    g.add_edge(3, 4, 1.0);
    let mut e = ExplicitBeliefs::new(5, 2);
    e.set_label(0, 0, 1.0).unwrap();
    e.set_label(1, 1, 1.0).unwrap();
    let ho = CouplingMatrix::fig1a().unwrap().residual();
    let r = sbp_on(&g.adjacency(), &e, &ho, &ParallelismConfig::default()).unwrap();
    assert_eq!(r.beliefs.top_beliefs(4, 1e-9), vec![0]);
    // Path weights: 9 vs 1 — the class-0 belief is 9× the class-1 one in
    // magnitude contribution.
    let e0 = Mat::from_rows(&[&[1.0, -1.0]]);
    let e1 = Mat::from_rows(&[&[-1.0, 1.0]]);
    let expect = e0
        .matmul(&ho)
        .matmul(&ho)
        .scale(9.0)
        .add(&e1.matmul(&ho).matmul(&ho));
    for c in 0..2 {
        assert!((r.beliefs.row(4)[c] - expect[(0, c)]).abs() < 1e-12);
    }
}

/// BP ignores weights (documented behaviour); LinBP respects them — on a
/// weight-asymmetric instance the two split exactly as documented.
#[test]
fn weights_documented_bp_difference() {
    let mut g = Graph::new(3);
    g.add_edge(0, 1, 5.0);
    g.add_edge(1, 2, 1.0);
    let adj = g.adjacency();
    let mut e = ExplicitBeliefs::new(3, 2);
    e.set_label(0, 0, 0.1).unwrap();
    e.set_label(2, 1, 0.1).unwrap();
    // LinBP: node 1 leans class 0 (weight 5 beats weight 1).
    let h = CouplingMatrix::fig1a().unwrap().scaled_residual(0.02);
    let lin = linbp_on(&adj, &e, &h, &LinBpOptions::default()).unwrap();
    assert_eq!(lin.beliefs.top_beliefs(1, 1e-9), vec![0]);
    // BP: weight-blind, and the two seeds are symmetric — node 1 ties.
    let braw = CouplingMatrix::fig1a().unwrap().raw_at_scale(0.02);
    let bp_r = bp(&adj, &e, &braw, &BpOptions::default()).unwrap();
    let tops = bp_r.beliefs.top_beliefs(1, 1e-9);
    assert_eq!(tops, vec![0, 1], "BP sees a symmetric instance");
}
