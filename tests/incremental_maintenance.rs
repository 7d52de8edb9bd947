//! Stress tests for the incremental SBP maintenance (Algorithms 3 & 4):
//! larger graphs, repeated batches, overwrites, order invariance.

use lsbp::prelude::*;
use lsbp_graph::generators::{erdos_renyi_gnm, kronecker_graph};
use lsbp_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ho() -> lsbp_linalg::Mat {
    CouplingMatrix::fig1c().unwrap().residual()
}

fn random_labels(n: usize, count: usize, seed: u64) -> ExplicitBeliefs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = ExplicitBeliefs::new(n, 3);
    let mut placed = 0;
    while placed < count {
        let v = rng.gen_range(0..n);
        if !e.is_explicit(v) {
            e.set_label(v, rng.gen_range(0..3), 1.0).unwrap();
            placed += 1;
        }
    }
    e
}

/// A long sequence of single-label insertions on the paper's graph #1.
#[test]
fn sequential_label_insertions_kronecker() {
    let g = kronecker_graph(5);
    let n = g.num_nodes();
    let adj = g.adjacency();
    let h = ho();
    let base = random_labels(n, 5, 1);
    let mut state = sbp_on(&adj, &base, &h, &ParallelismConfig::default()).unwrap();
    let mut all = base.clone();
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..10 {
        let v = rng.gen_range(0..n);
        let c = rng.gen_range(0..3);
        let mut delta = ExplicitBeliefs::new(n, 3);
        delta.set_label(v, c, 1.0).unwrap();
        all.set_label(v, c, 1.0).unwrap();
        state = sbp_add_explicit(&adj, &h, &state, &delta).unwrap();
    }
    let scratch = sbp_on(&adj, &all, &h, &ParallelismConfig::default()).unwrap();
    assert_eq!(state.geodesics.g, scratch.geodesics.g);
    assert!(
        state
            .beliefs
            .residual()
            .max_abs_diff(scratch.beliefs.residual())
            < 1e-10
    );
}

/// Overwriting an existing label (changing a node's class) must update the
/// whole affected region.
#[test]
fn label_overwrite() {
    let g = erdos_renyi_gnm(50, 120, 3);
    let adj = g.adjacency();
    let h = ho();
    let mut base = ExplicitBeliefs::new(50, 3);
    base.set_label(0, 0, 1.0).unwrap();
    base.set_label(25, 1, 1.0).unwrap();
    let state = sbp_on(&adj, &base, &h, &ParallelismConfig::default()).unwrap();
    // Flip node 0 to class 2.
    let mut delta = ExplicitBeliefs::new(50, 3);
    delta.set_label(0, 2, 1.0).unwrap();
    let updated = sbp_add_explicit(&adj, &h, &state, &delta).unwrap();
    let mut all = base.clone();
    all.set_label(0, 2, 1.0).unwrap();
    let scratch = sbp_on(&adj, &all, &h, &ParallelismConfig::default()).unwrap();
    assert!(
        updated
            .beliefs
            .residual()
            .max_abs_diff(scratch.beliefs.residual())
            < 1e-10
    );
}

/// Batch order must not matter: applying updates in any order reaches the
/// same final state (the result depends only on the final label set).
#[test]
fn batch_order_invariance() {
    let g = erdos_renyi_gnm(40, 100, 8);
    let adj = g.adjacency();
    let h = ho();
    let base = random_labels(40, 3, 2);
    let prev = sbp_on(&adj, &base, &h, &ParallelismConfig::default()).unwrap();
    let mut d1 = ExplicitBeliefs::new(40, 3);
    d1.set_label(7, 0, 1.0).unwrap();
    let mut d2 = ExplicitBeliefs::new(40, 3);
    d2.set_label(33, 2, 1.0).unwrap();

    let ab = {
        let s = sbp_add_explicit(&adj, &h, &prev, &d1).unwrap();
        sbp_add_explicit(&adj, &h, &s, &d2).unwrap()
    };
    let ba = {
        let s = sbp_add_explicit(&adj, &h, &prev, &d2).unwrap();
        sbp_add_explicit(&adj, &h, &s, &d1).unwrap()
    };
    assert_eq!(ab.geodesics.g, ba.geodesics.g);
    assert!(ab.beliefs.residual().max_abs_diff(ba.beliefs.residual()) < 1e-10);
}

/// Edge insertions that merge two components.
#[test]
fn edge_insertion_merges_components() {
    let mut g = Graph::new(20);
    for i in 0..9 {
        g.add_edge_unweighted(i, i + 1); // component A: 0..=9
    }
    for i in 10..19 {
        g.add_edge_unweighted(i, i + 1); // component B: 10..=19
    }
    let h = ho();
    let mut e = ExplicitBeliefs::new(20, 3);
    e.set_label(0, 0, 1.0).unwrap(); // only component A has labels
    let prev = sbp_on(&g.adjacency(), &e, &h, &ParallelismConfig::default()).unwrap();
    assert_eq!(prev.geodesics.geodesic(15), None);

    let mut grown = g.clone();
    grown.add_edge_unweighted(9, 10);
    let updated = sbp_add_edges(&grown.adjacency(), &[(9, 10, 1.0)], &h, &prev).unwrap();
    let scratch = sbp_on(&grown.adjacency(), &e, &h, &ParallelismConfig::default()).unwrap();
    assert_eq!(updated.geodesics.g, scratch.geodesics.g);
    assert_eq!(updated.geodesics.geodesic(19), Some(19));
    assert!(
        updated
            .beliefs
            .residual()
            .max_abs_diff(scratch.beliefs.residual())
            < 1e-12
    );
}

/// Random interleaving of label and edge insertions.
#[test]
fn interleaved_updates() {
    let full = erdos_renyi_gnm(70, 220, 40);
    let (mut current, extra) = full.split_edges(180);
    let extra_edges: Vec<_> = extra.edges().collect();
    let h = ho();
    let mut labels = random_labels(70, 4, 6);
    let mut state = sbp_on(
        &current.adjacency(),
        &labels,
        &h,
        &ParallelismConfig::default(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let mut edge_cursor = 0;
    for step in 0..8 {
        if step % 2 == 0 && edge_cursor + 5 <= extra_edges.len() {
            let chunk = &extra_edges[edge_cursor..edge_cursor + 5];
            edge_cursor += 5;
            for &(s, t, w) in chunk {
                current.add_edge(s, t, w);
            }
            state = sbp_add_edges(&current.adjacency(), chunk, &h, &state).unwrap();
        } else {
            let v = rng.gen_range(0..70);
            let c = rng.gen_range(0..3);
            let mut delta = ExplicitBeliefs::new(70, 3);
            delta.set_label(v, c, 1.0).unwrap();
            labels.set_label(v, c, 1.0).unwrap();
            state = sbp_add_explicit(&current.adjacency(), &h, &state, &delta).unwrap();
        }
    }
    let scratch = sbp_on(
        &current.adjacency(),
        &labels,
        &h,
        &ParallelismConfig::default(),
    )
    .unwrap();
    assert_eq!(state.geodesics.g, scratch.geodesics.g);
    assert!(
        state
            .beliefs
            .residual()
            .max_abs_diff(scratch.beliefs.residual())
            < 1e-9
    );
}

/// Parallel (duplicate) edges: weights accumulate and the incremental path
/// agrees with the rebuilt adjacency.
#[test]
fn parallel_edge_weights_accumulate() {
    let mut g = Graph::new(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    let h = ho();
    let mut e = ExplicitBeliefs::new(4, 3);
    e.set_label(0, 0, 1.0).unwrap();
    let prev = sbp_on(&g.adjacency(), &e, &h, &ParallelismConfig::default()).unwrap();
    // Add a parallel edge 0–1 (weight 2) and a fresh edge 2–3.
    let new_edges = [(0usize, 1usize, 2.0f64), (2, 3, 1.0)];
    let mut grown = g.clone();
    for &(s, t, w) in &new_edges {
        grown.add_edge(s, t, w);
    }
    let updated = sbp_add_edges(&grown.adjacency(), &new_edges, &h, &prev).unwrap();
    let scratch = sbp_on(&grown.adjacency(), &e, &h, &ParallelismConfig::default()).unwrap();
    assert!(
        updated
            .beliefs
            .residual()
            .max_abs_diff(scratch.beliefs.residual())
            < 1e-12
    );
    // The 0–1 path now has weight 3.
    let hh = &h;
    let e_row = lsbp_linalg::Mat::from_rows(&[&[2.0, -1.0, -1.0]]);
    let expect = e_row.matmul(hh).scale(3.0);
    for c in 0..3 {
        assert!((updated.beliefs.row(1)[c] - expect[(0, c)]).abs() < 1e-12);
    }
}
