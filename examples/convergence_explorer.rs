//! Convergence explorer: prints, for a family of graphs, all five
//! convergence thresholds the paper discusses —
//!
//! * exact LinBP (Lemma 8, Eq. 16, via bisection on the operator radius),
//! * exact LinBP* (Eq. 17, ρ(Ĥo)·ρ(A)),
//! * sufficient Lemma 9 for both,
//! * the simpler Lemma 23 bound,
//!
//! plus the Mooij–Kappen certificate for standard BP (Appendix G), and
//! then *verifies* the exact bounds empirically by running the iteration
//! just below and just above each threshold. Run with:
//! `cargo run --release --example convergence_explorer`

use lsbp::convergence::{eps_max_lemma23, mooij_constant, rho_edge_matrix};
use lsbp::prelude::*;
use lsbp_graph::generators::{complete, cycle, erdos_renyi_gnm, fig5c_torus, grid_2d, star};
use lsbp_graph::Graph;

fn main() {
    let coupling = CouplingMatrix::fig1c().unwrap();
    let ho = coupling.residual();
    let cases: Vec<(&str, Graph)> = vec![
        ("torus (Fig. 5c)", fig5c_torus()),
        ("cycle C12", cycle(12)),
        ("star K1,15", star(16)),
        ("grid 6×6", grid_2d(6, 6)),
        ("clique K8", complete(8)),
        ("G(200, 800)", erdos_renyi_gnm(200, 800, 1)),
    ];

    println!(
        "{:<16} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "graph", "ρ(A)", "exact", "exact*", "suff(L9)", "suff*(L9)", "L23", "Mooij εH"
    );
    for (name, graph) in &cases {
        let adj = graph.adjacency();
        let rho_a = adj.spectral_radius();
        let exact = eps_max_exact_linbp(&ho, &adj, 1e-5);
        let exact_star = eps_max_exact_linbp_star(&ho, &adj);
        let suff = eps_max_sufficient_linbp(&ho, &adj);
        let suff_star = eps_max_sufficient_linbp_star(&ho, &adj);
        let l23 = eps_max_lemma23(&ho, &adj);
        // Mooij: largest εH whose raw coupling the bound still certifies
        // for standard BP (bisection over c(H(ε))·ρ(A_edge) < 1).
        let rho_edge = rho_edge_matrix(&adj);
        let mooij_eps = bisect_mooij(&coupling, rho_edge);
        println!(
            "{name:<16} {rho_a:>7.3} {exact:>9.4} {exact_star:>9.4} {suff:>9.4} {suff_star:>9.4} {l23:>9.4} {mooij_eps:>10.4}"
        );
    }

    // Empirical verification on the torus: the exact bound separates
    // convergent from divergent runs.
    println!("\nempirical check on the torus (LinBP iterations at 0.97/1.03 × exact bound):");
    let graph = fig5c_torus();
    let adj = graph.adjacency();
    let mut e = ExplicitBeliefs::new(8, 3);
    e.set_residual(0, &[2.0, -1.0, -1.0]).unwrap();
    let exact = eps_max_exact_linbp(&ho, &adj, 1e-6);
    for factor in [0.97, 1.03] {
        let r = linbp_on(
            &adj,
            &e,
            &coupling.scaled_residual(exact * factor),
            &LinBpOptions {
                max_iter: 100_000,
                tol: 1e-13,
                ..Default::default()
            },
        )
        .unwrap();
        println!(
            "  εH = {:.4} ({}×): converged={} diverged={} after {} iterations",
            exact * factor,
            factor,
            r.converged,
            r.diverged,
            r.iterations
        );
    }
}

/// Largest εH the Mooij–Kappen bound certifies for standard BP
/// (c(H(ε))·ρ(A_edge) < 1), found by bisection; ∞ on trees (ρ_edge = 0).
fn bisect_mooij(coupling: &CouplingMatrix, rho_edge: f64) -> f64 {
    if rho_edge < 1e-12 {
        return f64::INFINITY;
    }
    let certified = |eps: f64| mooij_constant(&coupling.raw_at_scale(eps)) * rho_edge < 1.0;
    let cap = coupling.max_positive_eps();
    if certified(cap * 0.999_999) {
        return cap;
    }
    let (mut lo, mut hi) = (0.0f64, cap);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if certified(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}
