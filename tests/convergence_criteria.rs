//! Lemma 8 / Lemma 9 validation beyond the torus: the spectral criteria
//! are *exact* (iterates converge strictly below the threshold and diverge
//! strictly above), the norm criteria are sufficient-but-not-necessary,
//! and the closed form matches the iterative solution on both sides of the
//! sufficient bound.

use lsbp::prelude::*;
use lsbp_graph::generators::{complete, cycle, erdos_renyi_gnm, grid_2d, star};
use lsbp_graph::Graph;

fn one_seed(n: usize, k: usize) -> ExplicitBeliefs {
    let mut e = ExplicitBeliefs::new(n, k);
    e.set_label(0, 0, 0.1).unwrap();
    e
}

/// Exact criterion sharpness on a spread of topologies and couplings.
#[test]
fn exact_criterion_is_sharp() {
    let cases: Vec<(Graph, CouplingMatrix)> = vec![
        (cycle(10), CouplingMatrix::fig1a().unwrap()),
        (star(12), CouplingMatrix::fig1b().unwrap()),
        (grid_2d(4, 5), CouplingMatrix::fig1c().unwrap()),
        (complete(7), CouplingMatrix::homophily(3, 0.6).unwrap()),
        (
            erdos_renyi_gnm(30, 60, 2),
            CouplingMatrix::heterophily(4, 0.1).unwrap(),
        ),
    ];
    for (graph, coupling) in cases {
        let adj = graph.adjacency();
        let k = coupling.k();
        let e = one_seed(graph.num_nodes(), k);
        let eps_max = eps_max_exact_linbp(&coupling.residual(), &adj, 1e-6);
        let opts = LinBpOptions {
            max_iter: 100_000,
            tol: 1e-13,
            ..Default::default()
        };
        let below = linbp_on(&adj, &e, &coupling.scaled_residual(eps_max * 0.97), &opts).unwrap();
        assert!(
            below.converged && !below.diverged,
            "{}-node graph should converge at 0.97·eps_max",
            graph.num_nodes()
        );
        let above = linbp_on(&adj, &e, &coupling.scaled_residual(eps_max * 1.03), &opts).unwrap();
        assert!(
            above.diverged,
            "{}-node graph should diverge at 1.03·eps_max",
            graph.num_nodes()
        );
    }
}

/// Ordering of the bounds: Lemma 23 ≤ Lemma 9 ≤ exact, for both variants.
#[test]
fn bound_hierarchy() {
    for (graph, coupling) in [
        (cycle(9), CouplingMatrix::fig1c().unwrap()),
        (grid_2d(5, 5), CouplingMatrix::fig1a().unwrap()),
        (
            erdos_renyi_gnm(40, 120, 9),
            CouplingMatrix::fig1c().unwrap(),
        ),
    ] {
        let adj = graph.adjacency();
        let ho = coupling.residual();
        let exact = eps_max_exact_linbp(&ho, &adj, 1e-5);
        let exact_star = eps_max_exact_linbp_star(&ho, &adj);
        let suff = eps_max_sufficient_linbp(&ho, &adj);
        let suff_star = eps_max_sufficient_linbp_star(&ho, &adj);
        let l23 = eps_max_lemma23_reexport(&ho, &adj);
        assert!(suff <= exact * 1.001, "Lemma 9 must not exceed exact");
        assert!(
            suff_star <= exact_star * 1.001,
            "Lemma 9* must not exceed exact*"
        );
        assert!(l23 <= suff * 1.001, "Lemma 23 is the loosest");
        // Echo cancellation shrinks the region: exact LinBP ≤ exact LinBP*.
        assert!(exact <= exact_star * 1.001);
    }
}

// `eps_max_lemma23` is exported from the convergence module but not the
// prelude; re-wrap for the test.
fn eps_max_lemma23_reexport(ho: &lsbp_linalg::Mat, adj: &lsbp_sparse::CsrMatrix) -> f64 {
    lsbp::convergence::eps_max_lemma23(ho, adj)
}

/// The closed form solves the system even past the *sufficient* bound —
/// convergence of the iteration is governed only by the exact bound.
#[test]
fn sufficient_is_not_necessary() {
    let graph = grid_2d(4, 4);
    let adj = graph.adjacency();
    let coupling = CouplingMatrix::fig1c().unwrap();
    let e = one_seed(16, 3);
    let suff = eps_max_sufficient_linbp(&coupling.residual(), &adj);
    let exact = eps_max_exact_linbp(&coupling.residual(), &adj, 1e-6);
    assert!(
        suff < exact,
        "this graph must have a gap between the bounds"
    );
    // Pick εH in the gap: past the sufficient bound, still convergent.
    let eps = 0.5 * (suff + exact);
    let opts = LinBpOptions {
        max_iter: 100_000,
        tol: 1e-13,
        ..Default::default()
    };
    let r = linbp_on(&adj, &e, &coupling.scaled_residual(eps), &opts).unwrap();
    assert!(r.converged && !r.diverged);
}

/// Weighted graphs change both ρ(A) and D; the criteria must track that.
#[test]
fn weighted_criteria() {
    let mut g = Graph::new(6);
    for i in 0..5 {
        g.add_edge(i, i + 1, 2.0); // heavy chain: ρ(A) = 2·ρ(P6)
    }
    let adj = g.adjacency();
    let coupling = CouplingMatrix::fig1a().unwrap();
    let eps_weighted = eps_max_exact_linbp_star(&coupling.residual(), &adj);
    let unweighted = lsbp_graph::generators::path(6).adjacency();
    let eps_unweighted = eps_max_exact_linbp_star(&coupling.residual(), &unweighted);
    assert!(
        (eps_weighted - eps_unweighted / 2.0).abs() < 1e-6,
        "doubling weights halves the εH range"
    );
    let e = one_seed(6, 2);
    let opts = LinBpOptions {
        max_iter: 50_000,
        tol: 1e-13,
        ..Default::default()
    };
    let ok = linbp_star_on(
        &adj,
        &e,
        &coupling.scaled_residual(eps_weighted * 0.95),
        &opts,
    )
    .unwrap();
    assert!(ok.converged);
    let bad = linbp_star_on(
        &adj,
        &e,
        &coupling.scaled_residual(eps_weighted * 1.05),
        &opts,
    )
    .unwrap();
    assert!(bad.diverged);
}

/// Appendix G numbers on a mid-size random graph: ρ(A_edge) < ρ(A) and
/// (for this denser graph) ρ(A_edge) + 1 ≈ ρ(A).
#[test]
fn appendix_g_edge_radius_relation() {
    let g = erdos_renyi_gnm(60, 300, 13); // avg degree 10
    let adj = g.adjacency();
    let ra = adj.spectral_radius();
    let re = lsbp::convergence::rho_edge_matrix(&adj);
    assert!(re < ra);
    assert!((re + 1.0 - ra).abs() / ra < 0.12, "ra={ra} re={re}");
}
