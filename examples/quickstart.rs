//! Quickstart: label the 8-node torus of the paper's Example 20 with all
//! four methods (BP, LinBP, LinBP*, SBP) and print what each one says.
//!
//! Run with: `cargo run --example quickstart`

use lsbp::prelude::*;
use lsbp_graph::generators::fig5c_torus;

fn print_assignment(label: &str, beliefs: &BeliefMatrix) {
    let assignment = beliefs.top_belief_assignment(1e-9);
    let rendered: Vec<String> = assignment
        .iter()
        .enumerate()
        .map(|(v, classes)| {
            let names: Vec<&str> = classes
                .iter()
                .map(|&c| ["Honest", "Accomplice", "Fraudster"][c])
                .collect();
            format!("v{}={}", v + 1, names.join("/"))
        })
        .collect();
    println!("{label:8} {}", rendered.join("  "));
}

fn main() {
    // The graph of Fig. 5c: inner square v5–v8 with one pendant each.
    let graph = fig5c_torus();
    let adj = graph.adjacency();

    // The general (homophily + heterophily) coupling matrix of Fig. 1c.
    let coupling = CouplingMatrix::fig1c().expect("valid preset");

    // Explicit beliefs: v1 → class 0, v2 → class 1, v3 → class 2.
    let mut explicit = ExplicitBeliefs::new(graph.num_nodes(), 3);
    explicit.set_residual(0, &[2.0, -1.0, -1.0]).unwrap();
    explicit.set_residual(1, &[-1.0, 2.0, -1.0]).unwrap();
    explicit.set_residual(2, &[-1.0, -1.0, 2.0]).unwrap();

    // How strong may the coupling be? Lemma 8 answers exactly.
    let ho = coupling.residual();
    let eps_linbp = eps_max_exact_linbp(&ho, &adj, 1e-5);
    let eps_star = eps_max_exact_linbp_star(&ho, &adj);
    println!(
        "exact convergence thresholds:  LinBP εH < {eps_linbp:.3},  LinBP* εH < {eps_star:.3}"
    );

    // Run everything at a comfortably convergent εH.
    let eps = 0.1;
    let h = coupling.scaled_residual(eps);

    let bp_result = bp(
        &adj,
        &explicit,
        &coupling.raw_at_scale(eps),
        &BpOptions::default(),
    )
    .expect("valid BP configuration");
    println!(
        "BP:      converged={} after {} iterations",
        bp_result.converged, bp_result.iterations
    );

    let linbp_result = linbp_on(&adj, &explicit, &h, &LinBpOptions::default()).unwrap();
    println!(
        "LinBP:   converged={} after {} iterations",
        linbp_result.converged, linbp_result.iterations
    );
    let star_result = linbp_star_on(&adj, &explicit, &h, &LinBpOptions::default()).unwrap();

    // SBP needs no εH at all — its labels are the εH → 0 limit.
    let sbp_result = sbp_on(&adj, &explicit, &ho, &ParallelismConfig::default()).unwrap();

    println!();
    print_assignment("BP", &bp_result.beliefs);
    print_assignment("LinBP", &linbp_result.beliefs);
    print_assignment("LinBP*", &star_result.beliefs);
    print_assignment("SBP", &sbp_result.beliefs);

    // The headline of Example 20: v4's standardized beliefs under SBP.
    let std = sbp_result.beliefs.standardized(3);
    println!(
        "\nSBP standardized beliefs of v4: [{:.3}, {:.3}, {:.3}]  (paper: [-0.069, 1.258, -1.189])",
        std[0], std[1], std[2]
    );
}
