//! Golden-value tests for the paper's worked examples: the exact numbers
//! a reader can check against the text.
//!
//! * the Fig. 5c 8-node torus of Example 20 (structure, spectrum,
//!   geodesics),
//! * the Fig. 1c coupling matrix after centering (`Ĥ = H − 1/k`) and
//!   εH-scaling (Definition 3 / Sect. 6.2),
//! * LinBP run iteratively (Eq. 6/7) against the Proposition 7 closed
//!   form, agreeing to 1e-10.

use lsbp::prelude::*;
use lsbp_graph::generators::{fig5c_torus, grid_2d, TORUS_EXPLICIT_NODES, TORUS_V4};
use lsbp_graph::geodesic_numbers;

/// Example 20 / Fig. 5c: the torus is the corona of C4 — an inner 4-cycle
/// with one pendant per inner node. Checked entry by entry.
#[test]
fn torus_golden_structure() {
    let g = fig5c_torus();
    assert_eq!(g.num_nodes(), 8);
    assert_eq!(g.num_edges(), 8);
    let adj = g.adjacency();

    // Degree sequence: pendants v1..v4 have degree 1, inner v5..v8 degree 3.
    let degrees: Vec<usize> = (0..8).map(|v| adj.row_nnz(v)).collect();
    assert_eq!(degrees, vec![1, 1, 1, 1, 3, 3, 3, 3]);

    // Exact edge set (0-based; paper's v{i} is node i−1).
    let expected_edges = [
        (4, 5),
        (5, 6),
        (6, 7),
        (4, 7), // inner cycle v5–v6–v7–v8
        (0, 4),
        (1, 5),
        (2, 6),
        (3, 7), // pendants v1→v5 … v4→v8
    ];
    for &(s, t) in &expected_edges {
        assert_eq!(adj.get(s, t), 1.0, "missing edge ({s}, {t})");
        assert_eq!(adj.get(t, s), 1.0, "missing edge ({t}, {s})");
    }
    // No extra entries: 8 undirected edges = 16 stored values, all 1.0.
    assert_eq!(adj.nnz(), 16);
    assert!(adj.is_symmetric(0.0));

    // ρ(A) = 1 + √2 exactly for the corona of C4 ("ρ(A) ≈ 2.414").
    assert!((adj.spectral_radius() - (1.0 + 2.0f64.sqrt())).abs() < 1e-7);
}

/// Example 20's geodesic numbers from the explicit set {v1, v2, v3}:
/// the explicit nodes at 0, their inner neighbours v5/v6/v7 at 1, v8 at 2
/// and v4 at 3.
#[test]
fn torus_golden_geodesics() {
    let adj = fig5c_torus().adjacency();
    let geo = geodesic_numbers(&adj, &TORUS_EXPLICIT_NODES);
    assert_eq!(geo.g, vec![0, 0, 0, 3, 1, 1, 1, 2]);
    assert_eq!(geo.geodesic(TORUS_V4), Some(3));
}

/// Fig. 1c after centering: `Ĥ = H − 1/3`, entry by entry, and the
/// residual is symmetric with all rows/columns summing to 0.
#[test]
fn fig1c_centering_golden() {
    let coupling = CouplingMatrix::fig1c().unwrap();
    let h = coupling.residual();
    let third = 1.0 / 3.0;
    let expected = [
        [0.6 - third, 0.3 - third, 0.1 - third],
        [0.3 - third, 0.0 - third, 0.7 - third],
        [0.1 - third, 0.7 - third, 0.2 - third],
    ];
    for r in 0..3 {
        for c in 0..3 {
            assert!(
                (h[(r, c)] - expected[r][c]).abs() < 1e-15,
                "Ĥ[({r},{c})] = {} expected {}",
                h[(r, c)],
                expected[r][c]
            );
            assert_eq!(h[(r, c)], h[(c, r)], "residual must stay symmetric");
        }
        let row_sum: f64 = h.row(r).iter().sum();
        assert!(row_sum.abs() < 1e-15, "row {r} sums to {row_sum}");
        let col_sum: f64 = (0..3).map(|i| h[(i, r)]).sum();
        assert!(col_sum.abs() < 1e-15, "col {r} sums to {col_sum}");
    }
}

/// εH-scaling: `scaled_residual(ε) = ε·Ĥ` exactly, `scaled_residual(1) = Ĥ`,
/// and `raw_at_scale(ε) = 1/k + ε·Ĥ` recovers a positive matrix for every
/// ε below `max_positive_eps` (= 1 for Fig. 1c, from its 0.0 entry).
#[test]
fn fig1c_scaling_golden() {
    let coupling = CouplingMatrix::fig1c().unwrap();
    let h = coupling.residual();
    for eps in [0.01, 0.1, 0.5] {
        let scaled = coupling.scaled_residual(eps);
        let raw = coupling.raw_at_scale(eps);
        for r in 0..3 {
            for c in 0..3 {
                assert!((scaled[(r, c)] - eps * h[(r, c)]).abs() < 1e-15);
                assert!((raw[(r, c)] - (1.0 / 3.0 + eps * h[(r, c)])).abs() < 1e-15);
                assert!(raw[(r, c)] > 0.0, "raw coupling must stay positive");
            }
        }
    }
    assert!((coupling.max_positive_eps() - 1.0).abs() < 1e-12);
    assert!(
        coupling
            .scaled_residual(1.0)
            .max_abs_diff(&coupling.residual())
            .abs()
            < 1e-15
    );
}

/// Proposition 7: the iterative LinBP fixpoint equals the closed form
/// `vec(B̂) = (I − Ĥ⊗A + Ĥ²⊗D)⁻¹ vec(Ê)` to 1e-10, on the torus and on a
/// 3×3 grid, for both the dense-LU and the matrix-free Jacobi solver.
#[test]
fn linbp_iterative_matches_proposition7() {
    let coupling = CouplingMatrix::fig1c().unwrap();
    let cases: [(lsbp_graph::Graph, &[(usize, usize)]); 2] = [
        (fig5c_torus(), &[(0, 0), (1, 1), (2, 2)]),
        (grid_2d(3, 3), &[(0, 0), (8, 1), (4, 2)]),
    ];
    for (graph, labels) in cases {
        let n = graph.num_nodes();
        let adj = graph.adjacency();
        let mut e = ExplicitBeliefs::new(n, 3);
        for &(v, c) in labels {
            e.set_label(v, c, 1.0).unwrap();
        }
        let h = coupling.scaled_residual(0.1);
        let opts = LinBpOptions {
            max_iter: 100_000,
            tol: 1e-15,
            ..Default::default()
        };

        let iterative = linbp_on(&adj, &e, &h, &opts).unwrap();
        assert!(iterative.converged);
        let dense = linbp_closed_form_dense(&adj, &e, &h, true).unwrap();
        let jacobi = linbp_closed_form_jacobi(&adj, &e, &h, true, &opts).unwrap();
        assert!(
            iterative.beliefs.residual().max_abs_diff(dense.residual()) < 1e-10,
            "iterative vs dense closed form (n = {n})"
        );
        assert!(
            iterative.beliefs.residual().max_abs_diff(jacobi.residual()) < 1e-10,
            "iterative vs Jacobi closed form (n = {n})"
        );

        // Same statement for LinBP* (echo cancellation off in Eq. 4).
        let iterative_star = linbp_star_on(&adj, &e, &h, &opts).unwrap();
        assert!(iterative_star.converged);
        let dense_star = linbp_closed_form_dense(&adj, &e, &h, false).unwrap();
        assert!(
            iterative_star
                .beliefs
                .residual()
                .max_abs_diff(dense_star.residual())
                < 1e-10,
            "LinBP* iterative vs closed form (n = {n})"
        );
    }
}

/// The closed form reproduces the centering invariant: every belief row of
/// the Proposition 7 solution sums to 0 (Lemma 5 in the paper's framing).
#[test]
fn closed_form_rows_stay_centered() {
    let adj = fig5c_torus().adjacency();
    let mut e = ExplicitBeliefs::new(8, 3);
    for &(v, c) in &[(0usize, 0usize), (1, 1), (2, 2)] {
        e.set_label(v, c, 1.0).unwrap();
    }
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.2);
    let b = linbp_closed_form_dense(&adj, &e, &h, true).unwrap();
    for v in 0..8 {
        let s: f64 = b.row(v).iter().sum();
        assert!(s.abs() < 1e-10, "row {v} sums to {s}");
    }
}

/// Example 20's belief propagation read-out on the torus: v1, v2, v3 keep
/// their own labels and v4 follows the class-2 attraction documented in
/// the paper's Fig. 4 discussion (SBP standardized ≈ [−0.069, 1.258,
/// −1.189] ⇒ top class 1 in 0-based ids).
#[test]
fn torus_top_belief_readout() {
    let graph = fig5c_torus();
    let mut e = ExplicitBeliefs::new(8, 3);
    e.set_residual(0, &[2.0, -1.0, -1.0]).unwrap();
    e.set_residual(1, &[-1.0, 2.0, -1.0]).unwrap();
    e.set_residual(2, &[-1.0, -1.0, 2.0]).unwrap();
    let coupling = CouplingMatrix::fig1c().unwrap();
    let r = sbp_on(
        &graph.adjacency(),
        &e,
        &coupling.residual(),
        &ParallelismConfig::default(),
    )
    .unwrap();
    let labels = r.beliefs.top_belief_assignment(1e-9);
    assert_eq!(labels[0], vec![0]);
    assert_eq!(labels[1], vec![1]);
    assert_eq!(labels[2], vec![2]);
    assert_eq!(labels[TORUS_V4], vec![1]);
}
