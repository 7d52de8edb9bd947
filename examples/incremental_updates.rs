//! Dynamic networks: incremental SBP maintenance (Sect. 6.3, Appendix C).
//!
//! Simulates a growing social network where new labels arrive (manual
//! audits) and new edges appear (new friendships), maintains the SBP
//! labeling incrementally, and compares against recomputation from
//! scratch — both for correctness and for work saved. Run with:
//! `cargo run --release --example incremental_updates`

use lsbp::prelude::*;
use lsbp_graph::generators::erdos_renyi_gnm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    let n = 30_000;
    let full = erdos_renyi_gnm(n, 120_000, 99);
    let (mut graph, future_edges) = full.split_edges(110_000);
    let future: Vec<_> = future_edges.edges().collect();
    let ho = CouplingMatrix::fig1c().unwrap().residual();

    // Initial labels: 2% of users.
    let mut rng = StdRng::seed_from_u64(5);
    let mut labels = ExplicitBeliefs::new(n, 3);
    let mut placed = 0;
    while placed < n / 50 {
        let v = rng.gen_range(0..n);
        if !labels.is_explicit(v) {
            labels.set_label(v, rng.gen_range(0..3), 1.0).unwrap();
            placed += 1;
        }
    }

    let t0 = Instant::now();
    let mut state = sbp_on(
        &graph.adjacency(),
        &labels,
        &ho,
        &ParallelismConfig::default(),
    )
    .unwrap();
    println!(
        "initial SBP over {n} nodes / {} edges: {:?} ({} BFS layers)",
        graph.num_edges(),
        t0.elapsed(),
        state.geodesics.num_layers()
    );

    // --- Scenario 1: a batch of 30 new audit labels arrives. -----------
    let mut delta = ExplicitBeliefs::new(n, 3);
    let mut all = labels.clone();
    let mut added = 0;
    while added < 30 {
        let v = rng.gen_range(0..n);
        if !all.is_explicit(v) {
            let c = rng.gen_range(0..3);
            delta.set_label(v, c, 1.0).unwrap();
            all.set_label(v, c, 1.0).unwrap();
            added += 1;
        }
    }
    let adj = graph.adjacency();
    let t1 = Instant::now();
    state = sbp_add_explicit(&adj, &ho, &state, &delta).unwrap();
    let incremental_time = t1.elapsed();
    let t2 = Instant::now();
    let scratch = sbp_on(&adj, &all, &ho, &ParallelismConfig::default()).unwrap();
    let scratch_time = t2.elapsed();
    assert_eq!(state.geodesics.g, scratch.geodesics.g);
    assert!(
        state
            .beliefs
            .residual()
            .max_abs_diff(scratch.beliefs.residual())
            < 1e-9
    );
    println!(
        "\n+30 labels:  ΔSBP {incremental_time:?}  vs  recompute {scratch_time:?}  ({:.1}× speed-up, results identical)",
        scratch_time.as_secs_f64() / incremental_time.as_secs_f64()
    );

    // --- Scenario 2: 500 new friendships form. --------------------------
    let batch: Vec<_> = future.iter().take(500).copied().collect();
    for &(s, t, w) in &batch {
        graph.add_edge(s, t, w);
    }
    let adj_new = graph.adjacency();
    let t3 = Instant::now();
    state = sbp_add_edges(&adj_new, &batch, &ho, &state).unwrap();
    let incremental_time = t3.elapsed();
    let t4 = Instant::now();
    let scratch = sbp_on(&adj_new, &all, &ho, &ParallelismConfig::default()).unwrap();
    let scratch_time = t4.elapsed();
    assert_eq!(state.geodesics.g, scratch.geodesics.g);
    assert!(
        state
            .beliefs
            .residual()
            .max_abs_diff(scratch.beliefs.residual())
            < 1e-9
    );
    println!(
        "+500 edges:  ΔSBP {incremental_time:?}  vs  recompute {scratch_time:?}  ({:.1}× speed-up, results identical)",
        scratch_time.as_secs_f64() / incremental_time.as_secs_f64()
    );

    // --- Scenario 3: a stream of single-label updates. -------------------
    println!("\nstreaming 20 single-label updates:");
    let mut total_inc = std::time::Duration::ZERO;
    for _ in 0..20 {
        let v = rng.gen_range(0..n);
        let c = rng.gen_range(0..3);
        let mut d = ExplicitBeliefs::new(n, 3);
        d.set_label(v, c, 1.0).unwrap();
        all.set_label(v, c, 1.0).unwrap();
        let t = Instant::now();
        state = sbp_add_explicit(&adj_new, &ho, &state, &d).unwrap();
        total_inc += t.elapsed();
    }
    let t5 = Instant::now();
    let scratch = sbp_on(&adj_new, &all, &ho, &ParallelismConfig::default()).unwrap();
    let one_scratch = t5.elapsed();
    assert!(
        state
            .beliefs
            .residual()
            .max_abs_diff(scratch.beliefs.residual())
            < 1e-9
    );
    println!(
        "  20 incremental updates took {total_inc:?} total — {:.1}% of ONE recomputation ({one_scratch:?})",
        100.0 * total_inc.as_secs_f64() / one_scratch.as_secs_f64()
    );
}
