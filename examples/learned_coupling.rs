//! Learning the coupling matrix from data — the paper's footnote-1 future
//! work — and maintaining LinBP incrementally through label updates — the
//! Sect. 8 future work, solved by linearity.
//!
//! Pipeline: generate a fraud network with ground-truth roles, learn Ĥ
//! from the labeled subgraph (no domain expert needed), classify with
//! LinBP, then stream in new labels using `linbp_update` instead of
//! recomputing. Run with:
//! `cargo run --release --example learned_coupling`

use lsbp::prelude::*;
use lsbp_graph::generators::{fraud_network, FraudConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    let net = fraud_network(&FraudConfig::default(), 77);
    let n = net.graph.num_nodes();
    let adj = net.graph.adjacency();
    println!("network: {n} users, {} trades", net.graph.num_edges());

    // Reveal 8% of labels; learn the coupling from the labeled-labeled
    // edges only.
    let mut rng = StdRng::seed_from_u64(1);
    let mut revealed: Vec<Option<usize>> = vec![None; n];
    let mut explicit = ExplicitBeliefs::new(n, 3);
    let mut count = 0;
    while count < n * 8 / 100 {
        let v = rng.gen_range(0..n);
        if revealed[v].is_none() {
            revealed[v] = Some(net.classes[v]);
            explicit.set_label(v, net.classes[v], 1.0).unwrap();
            count += 1;
        }
    }
    let learned =
        learn_coupling(&adj, &revealed, 3, &LearnOptions::default()).expect("enough labeled edges");
    println!("\nlearned coupling matrix (truth: Fig. 1c = [[.6,.3,.1],[.3,0,.7],[.1,.7,.2]]):");
    for r in 0..3 {
        println!(
            "  [{:.2} {:.2} {:.2}]",
            learned.raw()[(r, 0)],
            learned.raw()[(r, 1)],
            learned.raw()[(r, 2)]
        );
    }

    // Classify with the learned matrix.
    let eps = 0.5 * eps_max_exact_linbp(&learned.residual(), &adj, 1e-4);
    let h = learned.scaled_residual(eps);
    let opts = LinBpOptions::default();
    let t0 = Instant::now();
    let mut result = linbp_on(&adj, &explicit, &h, &opts).unwrap();
    let full_time = t0.elapsed();
    fn accuracy_of(beliefs: &BeliefMatrix, classes: &[usize], revealed: &[Option<usize>]) -> f64 {
        let (mut correct, mut total) = (0, 0);
        for (v, &truth) in classes.iter().enumerate() {
            if revealed[v].is_some() {
                continue;
            }
            let tops = beliefs.top_beliefs(v, 1e-9);
            if tops.len() == 1 {
                total += 1;
                if tops[0] == truth {
                    correct += 1;
                }
            }
        }
        100.0 * correct as f64 / total as f64
    }
    println!(
        "\nLinBP with learned Ĥ: {:.1}% accuracy on hidden users ({full_time:?})",
        accuracy_of(&result.beliefs, &net.classes, &revealed)
    );

    // Stream 10 new audit labels; update by linearity instead of re-running.
    let mut update_time = std::time::Duration::ZERO;
    for _ in 0..10 {
        let v = loop {
            let v = rng.gen_range(0..n);
            if revealed[v].is_none() {
                break v;
            }
        };
        revealed[v] = Some(net.classes[v]);
        let mut delta = ExplicitBeliefs::new(n, 3);
        delta.set_label(v, net.classes[v], 1.0).unwrap();
        let t = Instant::now();
        result = linbp_update(&adj, &result.beliefs, &delta, &h, &opts, true).unwrap();
        update_time += t.elapsed();
    }
    println!(
        "after 10 incremental label updates (linearity, {update_time:?} total): {:.1}% accuracy",
        accuracy_of(&result.beliefs, &net.classes, &revealed)
    );

    // Sanity: the incremental result equals a full recomputation.
    let mut all = ExplicitBeliefs::new(n, 3);
    for (v, lab) in revealed.iter().enumerate() {
        if let Some(c) = lab {
            all.set_label(v, *c, 1.0).unwrap();
        }
    }
    let scratch = linbp_on(&adj, &all, &h, &opts).unwrap();
    let max_diff = result
        .beliefs
        .residual()
        .max_abs_diff(scratch.beliefs.residual());
    println!("max |incremental − scratch| = {max_diff:.2e} (exact up to solver tolerance)");
}
