//! Fraud detection in an online-auction network — the paper's motivating
//! example (Sect. 1, Fig. 1c).
//!
//! Generates an eBay-style trading network of honest users, accomplices
//! and fraudsters, reveals a few known labels (e.g. from manual
//! investigation), and uses LinBP with the general coupling matrix of
//! Fig. 1c to flag the rest. Run with:
//! `cargo run --release --example fraud_detection`

use lsbp::prelude::*;
use lsbp_graph::generators::{fraud_network, FraudConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let cfg = FraudConfig::default();
    let net = fraud_network(&cfg, 2024);
    let n = net.graph.num_nodes();
    let adj = net.graph.adjacency();
    println!(
        "trading network: {} users ({} honest, {} accomplices, {} fraudsters), {} trades",
        n,
        cfg.n_honest,
        cfg.n_accomplices,
        cfg.n_fraudsters,
        net.graph.num_edges()
    );

    // Reveal 5% of the ground truth, stratified over the three roles.
    let mut rng = StdRng::seed_from_u64(7);
    let mut explicit = ExplicitBeliefs::new(n, 3);
    let mut revealed = 0;
    while revealed < n / 20 {
        let v = rng.gen_range(0..n);
        if !explicit.is_explicit(v) {
            explicit.set_label(v, net.classes[v], 1.0).unwrap();
            revealed += 1;
        }
    }
    println!(
        "revealed labels: {revealed} ({:.1}%)",
        100.0 * revealed as f64 / n as f64
    );

    // Fig. 1c: honest↔honest homophily, accomplice↔fraudster heterophily.
    let coupling = CouplingMatrix::fig1c().unwrap();
    let eps_max = eps_max_exact_linbp(&coupling.residual(), &adj, 1e-4);
    let eps = (0.5 * eps_max).min(0.1);
    println!("coupling scale: εH = {eps:.4} (exact convergence bound {eps_max:.4})");

    let result = linbp_on(
        &adj,
        &explicit,
        &coupling.scaled_residual(eps),
        &LinBpOptions::default(),
    )
    .unwrap();
    assert!(
        result.converged,
        "εH was chosen inside the convergence region"
    );

    // Score the classification on the hidden nodes.
    let mut correct = 0usize;
    let mut evaluated = 0usize;
    let mut confusion = [[0usize; 3]; 3];
    for v in 0..n {
        if explicit.is_explicit(v) {
            continue;
        }
        let tops = result.beliefs.top_beliefs(v, 1e-9);
        if tops.len() == 1 {
            confusion[net.classes[v]][tops[0]] += 1;
            if tops[0] == net.classes[v] {
                correct += 1;
            }
            evaluated += 1;
        }
    }
    println!(
        "\naccuracy on {} hidden users: {:.1}%",
        evaluated,
        100.0 * correct as f64 / evaluated as f64
    );
    println!("confusion matrix (rows = truth, cols = predicted):");
    println!("              Honest  Accomp  Fraud");
    for (i, name) in ["Honest", "Accomplice", "Fraudster"].iter().enumerate() {
        println!(
            "  {name:<10} {:>7} {:>7} {:>6}",
            confusion[i][0], confusion[i][1], confusion[i][2]
        );
    }

    // Show the most suspicious unlabeled accounts: strongest fraudster
    // residuals.
    let mut suspects: Vec<(usize, f64)> = (0..n)
        .filter(|&v| !explicit.is_explicit(v))
        .map(|v| (v, result.beliefs.row(v)[2]))
        .collect();
    suspects.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\ntop 5 fraud suspects:");
    for &(v, score) in suspects.iter().take(5) {
        let truth = ["honest", "accomplice", "FRAUDSTER"][net.classes[v]];
        println!("  user {v:>4}  fraud-residual {score:+.4}  (ground truth: {truth})");
    }
}
