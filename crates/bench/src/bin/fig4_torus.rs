//! Fig. 4 (a–d): Example 20 on the 8-node torus.
//!
//! Sweeps εH from 0.01 to 1 and prints, per method, the standardized
//! beliefs of node v4 (Figs. 4a–c) and the standard deviation σ(b̂v4)
//! (Fig. 4d), together with the exact (ρ) and sufficient (||) convergence
//! frontiers. `cargo run --release -p lsbp-bench --bin fig4_torus`

use lsbp::prelude::*;
use lsbp_bench::log_sweep;
use lsbp_graph::generators::{fig5c_torus, TORUS_V4};

fn main() {
    let graph = fig5c_torus();
    let adj = graph.adjacency();
    let coupling = CouplingMatrix::fig1c().unwrap();
    let ho = coupling.residual();
    let mut e = ExplicitBeliefs::new(8, 3);
    e.set_residual(0, &[2.0, -1.0, -1.0]).unwrap();
    e.set_residual(1, &[-1.0, 2.0, -1.0]).unwrap();
    e.set_residual(2, &[-1.0, -1.0, 2.0]).unwrap();

    // Reference: SBP (the εH → 0 limit — dashed horizontal lines in Fig. 4).
    let sbp_r = sbp_on(&adj, &e, &ho, &ParallelismConfig::default()).unwrap();
    let sbp_std = sbp_r.beliefs.standardized(TORUS_V4);
    println!(
        "SBP reference (dashed lines): [{:.3}, {:.3}, {:.3}]   (paper: [-0.069, 1.258, -1.189])",
        sbp_std[0], sbp_std[1], sbp_std[2]
    );

    // Convergence frontiers (vertical lines in Fig. 4b/4c).
    println!(
        "frontiers: ρ(LinBP) = {:.3} (paper 0.488)   ρ(LinBP*) = {:.3} (paper 0.658)",
        eps_max_exact_linbp(&ho, &adj, 1e-5),
        eps_max_exact_linbp_star(&ho, &adj)
    );
    println!(
        "           ||(LinBP) = {:.3} (paper 0.360)  ||(LinBP*) = {:.3} (paper 0.455)",
        eps_max_sufficient_linbp(&ho, &adj),
        eps_max_sufficient_linbp_star(&ho, &adj)
    );

    println!(
        "\n{:>8} | {:^29} | {:^29} | {:^29} | {:>11}",
        "εH", "BP: ζ(b̂v4)", "LinBP: ζ(b̂v4)", "LinBP*: ζ(b̂v4)", "σ(b̂) LinBP"
    );
    let opts = LinBpOptions {
        max_iter: 100_000,
        tol: 1e-15,
        ..Default::default()
    };
    for eps in log_sweep(0.01, 1.0, 17) {
        let h = coupling.scaled_residual(eps);
        let fmt = |r: Option<Vec<f64>>| match r {
            Some(std) => format!("[{:+.3}, {:+.3}, {:+.3}]", std[0], std[1], std[2]),
            None => "      (diverged)       ".to_string(),
        };
        // Standard BP (positive potentials required: εH < 1 for fig1c).
        let bp_std = if eps < coupling.max_positive_eps() {
            bp(
                &adj,
                &e,
                &coupling.raw_at_scale(eps),
                &BpOptions {
                    max_iter: 2000,
                    tol: 1e-12,
                    ..Default::default()
                },
            )
            .ok()
            .filter(|r| r.converged)
            .map(|r| r.beliefs.standardized(TORUS_V4))
        } else {
            None
        };
        let lin = linbp_on(&adj, &e, &h, &opts).unwrap();
        let lin_std = (lin.converged && !lin.diverged).then(|| lin.beliefs.standardized(TORUS_V4));
        let star = linbp_star_on(&adj, &e, &h, &opts).unwrap();
        let star_std =
            (star.converged && !star.diverged).then(|| star.beliefs.standardized(TORUS_V4));
        let sigma = if lin.converged && !lin.diverged {
            format!("{:11.4e}", lin.beliefs.std_dev(TORUS_V4))
        } else {
            "     —".to_string()
        };
        println!(
            "{eps:>8.4} | {} | {} | {} | {sigma}",
            fmt(bp_std),
            fmt(lin_std),
            fmt(star_std)
        );
    }
    println!("\n(Fig. 4d check: σ ≈ εH³·0.332 in the small-εH regime.)");
}
