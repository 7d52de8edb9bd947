//! Fig. 7(f): precision and recall of LinBP with BP as ground truth,
//! sweeping εH over [1e−8, 1e−2].
//!
//! Protocol (Sect. 7, Question 4): Kronecker graph (default #5 like the
//! paper — `--graph N` to change), 5% explicit beliefs, Fig. 6b coupling.
//! Vertical markers: the Lemma 9 sufficient threshold and the Lemma 8
//! exact threshold. `cargo run --release -p lsbp-bench --bin fig7f_quality`

use lsbp::prelude::*;
use lsbp_bench::{arg_usize, kronecker_style_beliefs, log_sweep};
use lsbp_graph::generators::{kronecker_graph, kronecker_schedule};

fn main() {
    let id = arg_usize("--graph", 5).clamp(1, 9);
    let points = arg_usize("--points", 13);
    let scale = kronecker_schedule()[id - 1];
    let graph = kronecker_graph(scale.exponent);
    let adj = graph.adjacency();
    let n = graph.num_nodes();
    // Extra belief digits suppress exact ties, as the paper recommends.
    let e = kronecker_style_beliefs(n, 3, n / 20, 5, true);
    let ho = CouplingMatrix::fig6b_residual();

    let eps_suff = eps_max_sufficient_linbp(&ho, &adj);
    let eps_exact = eps_max_exact_linbp(&ho, &adj, 1e-4);
    println!(
        "graph #{id}: {n} nodes; thresholds: sufficient εH = {eps_suff:.2e} (paper 2e-4), exact εH = {eps_exact:.2e} (paper 2.8e-3)"
    );
    println!(
        "{:>10} {:>6} {:>6} {:>9} {:>9} {:>9}",
        "εH", "BPconv", "Lconv", "recall", "precision", "F1"
    );

    for eps in log_sweep(1e-8, 1e-2, points) {
        let h_raw = CouplingMatrix::from_residual(&ho, eps).unwrap();
        let bp_r = bp(
            &adj,
            &e,
            h_raw.raw(),
            &BpOptions {
                max_iter: 200,
                tol: 1e-14,
                ..Default::default()
            },
        )
        .unwrap();
        let lin = linbp_on(
            &adj,
            &e,
            &ho.scale(eps),
            &LinBpOptions {
                max_iter: 2000,
                tol: 1e-16,
                ..Default::default()
            },
        )
        .unwrap();
        if lin.diverged {
            println!(
                "{eps:>10.1e} {:>6} {:>6}   (LinBP diverged)",
                bp_r.converged, "—"
            );
            continue;
        }
        let gt = bp_r.beliefs.top_belief_assignment(1e-6);
        let ours = lin.beliefs.top_belief_assignment(1e-6);
        let q = quality(&gt, &ours);
        println!(
            "{eps:>10.1e} {:>6} {:>6} {:>9.4} {:>9.4} {:>9.4}",
            bp_r.converged, lin.converged, q.recall, q.precision, q.f1
        );
    }
    println!(
        "\nShape check vs paper: r = p ≈ 1 in the upper convergent range; deviations at\n\
         very small εH come from floating-point round-off (Result 4); overall accuracy\n\
         stays > 99.9%."
    );
}
