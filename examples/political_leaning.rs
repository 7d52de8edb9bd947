//! Binary homophily — "if we know the political leanings of most of
//! Alice's friends, we have a good estimate of her leaning as well"
//! (the paper's opening example, Fig. 1a).
//!
//! Builds a two-community social network, labels a handful of users, and
//! compares all four methods on speed-of-distance-3 inference. Also
//! demonstrates the Appendix E binary reduction. Run with:
//! `cargo run --release --example political_leaning`

use lsbp::linbp::binary::fabp_coefficients;
use lsbp::prelude::*;
use lsbp_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two Erdős–Rényi communities with sparse cross links — a planted
/// partition.
fn two_communities(per_side: usize, seed: u64) -> (Graph, Vec<usize>) {
    let n = 2 * per_side;
    let mut g = Graph::new(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let add = |g: &mut Graph,
               s: usize,
               t: usize,
               seen: &mut std::collections::HashSet<(usize, usize)>| {
        if s != t && seen.insert((s.min(t), s.max(t))) {
            g.add_edge_unweighted(s, t);
        }
    };
    // Dense inside each community (avg degree ~6), sparse across (~0.5).
    for _ in 0..(3 * per_side) {
        let s = rng.gen_range(0..per_side);
        let t = rng.gen_range(0..per_side);
        add(&mut g, s, t, &mut seen);
        let s2 = per_side + rng.gen_range(0..per_side);
        let t2 = per_side + rng.gen_range(0..per_side);
        add(&mut g, s2, t2, &mut seen);
    }
    for _ in 0..(per_side / 4) {
        let s = rng.gen_range(0..per_side);
        let t = per_side + rng.gen_range(0..per_side);
        add(&mut g, s, t, &mut seen);
    }
    let classes: Vec<usize> = (0..n).map(|v| usize::from(v >= per_side)).collect();
    (g, classes)
}

fn main() {
    let per_side = 400;
    let (graph, truth) = two_communities(per_side, 11);
    let n = graph.num_nodes();
    let adj = graph.adjacency();
    println!(
        "social network: {n} users, {} friendships, 2 planted communities",
        graph.num_edges()
    );

    // Label 10 users per side.
    let mut explicit = ExplicitBeliefs::new(n, 2);
    let mut rng = StdRng::seed_from_u64(3);
    for side in 0..2 {
        let mut placed = 0;
        while placed < 10 {
            let v = side * per_side + rng.gen_range(0..per_side);
            if !explicit.is_explicit(v) {
                explicit.set_label(v, side, 1.0).unwrap();
                placed += 1;
            }
        }
    }

    let coupling = CouplingMatrix::fig1a().unwrap(); // D/R homophily
    let eps = 0.5 * eps_max_exact_linbp(&coupling.residual(), &adj, 1e-4);
    println!("running at εH = {eps:.4}");
    let h = coupling.scaled_residual(eps);

    let evaluate = |name: &str, beliefs: &BeliefMatrix| {
        let mut correct = 0;
        let mut total = 0;
        for (v, &t) in truth.iter().enumerate() {
            if explicit.is_explicit(v) {
                continue;
            }
            let tops = beliefs.top_beliefs(v, 1e-9);
            if tops.len() == 1 {
                total += 1;
                if tops[0] == t {
                    correct += 1;
                }
            }
        }
        println!(
            "  {name:<7} accuracy {:.1}% on {} decided users",
            100.0 * correct as f64 / total as f64,
            total
        );
    };

    println!("\nclassification quality (vs planted communities):");
    let bp_r = bp(
        &adj,
        &explicit,
        &coupling.raw_at_scale(eps),
        &BpOptions::default(),
    )
    .unwrap();
    evaluate("BP", &bp_r.beliefs);
    let lin = linbp_on(&adj, &explicit, &h, &LinBpOptions::default()).unwrap();
    evaluate("LinBP", &lin.beliefs);
    let star = linbp_star_on(&adj, &explicit, &h, &LinBpOptions::default()).unwrap();
    evaluate("LinBP*", &star.beliefs);
    let sbp_r = sbp_on(
        &adj,
        &explicit,
        &coupling.residual(),
        &ParallelismConfig::default(),
    )
    .unwrap();
    evaluate("SBP", &sbp_r.beliefs);

    // Appendix E: for k = 2 the whole system collapses to one scalar per
    // node. Verify on this instance by comparing the first belief column.
    let h_hat = h[(0, 0)]; // residual Ĥ = [[ĥ, −ĥ], [−ĥ, ĥ]]
    let (c1, c2) = fabp_coefficients(h_hat);
    println!("\nAppendix E binary reduction: ĥ = {h_hat:.4} → c₁ = {c1:.4}, c₂ = {c2:.4}");
    println!("(b̂ = (I − c₁A + c₂D)⁻¹ ê — one scalar per node instead of a k-vector)");

    // How split is the electorate according to LinBP?
    let lean: Vec<f64> = (0..n).map(|v| lin.beliefs.row(v)[0]).collect();
    let left = lean.iter().filter(|&&x| x > 0.0).count();
    println!(
        "\nLinBP verdict: {left} lean class 0, {} lean class 1",
        n - left
    );
}
