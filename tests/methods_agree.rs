//! Cross-method agreement: BP ↔ LinBP ↔ LinBP\* ↔ closed form.
//!
//! The paper's central quality claim (Result 4 / Fig. 7f–g): in the
//! convergent εH range, all methods produce (almost) identical top belief
//! assignments, and LinBP's fixpoint is the closed-form solution.

use lsbp::prelude::*;
use lsbp_graph::generators::{erdos_renyi_gnm, grid_2d, kronecker_graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random explicit beliefs in the Kronecker-experiment style: residuals
/// from {−0.1, …, 0.1} on two classes, third as the negative sum.
fn random_explicit(n: usize, k: usize, frac: f64, seed: u64) -> ExplicitBeliefs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = ExplicitBeliefs::new(n, k);
    let count = ((n as f64 * frac).round() as usize).max(1);
    let mut nodes: Vec<usize> = (0..n).collect();
    for i in 0..count {
        let j = rng.gen_range(i..n);
        nodes.swap(i, j);
    }
    for &v in &nodes[..count] {
        let mut row = vec![0.0; k];
        let mut sum = 0.0;
        for cell in row.iter_mut().take(k - 1) {
            let val = (rng.gen_range(-10i32..=10) as f64) / 100.0;
            *cell = val;
            sum += val;
        }
        row[k - 1] = -sum;
        if row.iter().any(|&x| x != 0.0) {
            e.set_residual(v, &row).unwrap();
        }
    }
    e
}

#[test]
fn linbp_matches_closed_form_on_random_graphs() {
    let coupling = CouplingMatrix::fig1c().unwrap();
    for seed in 0..4u64 {
        let g = erdos_renyi_gnm(40, 100, seed);
        let adj = g.adjacency();
        let e = random_explicit(40, 3, 0.2, seed);
        let eps = 0.8 * eps_max_exact_linbp(&coupling.residual(), &adj, 1e-4);
        let h = coupling.scaled_residual(eps);
        let iterative = linbp_on(
            &adj,
            &e,
            &h,
            &LinBpOptions {
                max_iter: 50_000,
                tol: 1e-14,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(iterative.converged, "seed {seed}");
        let exact = linbp_closed_form_dense(&adj, &e, &h, true).unwrap();
        assert!(
            iterative.beliefs.residual().max_abs_diff(exact.residual()) < 1e-8,
            "seed {seed}"
        );
    }
}

/// Fig. 7f in miniature: LinBP's top beliefs match BP's (accuracy > 99.9%
/// in the paper; exact agreement expected on these sizes at moderate εH).
#[test]
fn linbp_top_beliefs_match_bp() {
    let coupling = CouplingMatrix::fig6b_residual();
    // Build a valid raw coupling from the Fig. 6b residual at a BP-safe
    // scale.
    let g = kronecker_graph(5); // paper's graph #1: 243 nodes
    let adj = g.adjacency();
    let e = random_explicit(243, 3, 0.05, 42);
    let eps = 0.002;
    let h_res = coupling.scale(eps);
    let h_raw = CouplingMatrix::from_residual(&coupling, eps).unwrap();
    let bp_r = bp(
        &adj,
        &e,
        h_raw.raw(),
        &BpOptions {
            max_iter: 300,
            tol: 1e-12,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(bp_r.converged);
    let lin_r = linbp_on(
        &adj,
        &e,
        &h_res,
        &LinBpOptions {
            max_iter: 5_000,
            tol: 1e-14,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(lin_r.converged);
    let gt = bp_r.beliefs.top_belief_assignment(1e-6);
    let ours = lin_r.beliefs.top_belief_assignment(1e-6);
    let (p, r) = precision_recall(&gt, &ours);
    let acc = f1_score(p, r);
    assert!(acc > 0.995, "accuracy = {acc} (p={p}, r={r})");
}

/// LinBP vs LinBP*: identical top beliefs at small εH (Fig. 7g's flat
/// r = p = 1 region).
#[test]
fn linbp_star_matches_linbp_at_small_eps() {
    let coupling = CouplingMatrix::fig1c().unwrap();
    let g = grid_2d(8, 8);
    let adj = g.adjacency();
    let e = random_explicit(64, 3, 0.15, 7);
    let h = coupling.scaled_residual(0.02);
    let opts = LinBpOptions {
        max_iter: 10_000,
        tol: 1e-14,
        ..Default::default()
    };
    let a = linbp_on(&adj, &e, &h, &opts).unwrap();
    let b = linbp_star_on(&adj, &e, &h, &opts).unwrap();
    assert!(a.converged && b.converged);
    assert_eq!(
        a.beliefs.top_belief_assignment(1e-9),
        b.beliefs.top_belief_assignment(1e-9)
    );
}

/// On trees BP is exact and LinBP is its linearization: top beliefs agree
/// even at moderate coupling strength.
#[test]
fn tree_agreement() {
    let coupling = CouplingMatrix::fig1a().unwrap();
    let g = lsbp_graph::generators::star(20);
    let adj = g.adjacency();
    let mut e = ExplicitBeliefs::new(20, 2);
    e.set_label(1, 0, 0.1).unwrap();
    e.set_label(2, 0, 0.1).unwrap();
    e.set_label(3, 1, 0.1).unwrap();
    let bp_r = bp(&adj, &e, &coupling.raw_at_scale(0.5), &BpOptions::default()).unwrap();
    let lin_r = linbp_on(
        &adj,
        &e,
        &coupling.scaled_residual(0.1),
        &LinBpOptions::default(),
    )
    .unwrap();
    assert!(bp_r.converged && lin_r.converged);
    // The hub (node 0) hears two class-0 seeds vs one class-1 seed.
    assert_eq!(bp_r.beliefs.top_beliefs(0, 1e-9), vec![0]);
    assert_eq!(lin_r.beliefs.top_beliefs(0, 1e-9), vec![0]);
}

/// The relational LinBP equals the native one on the paper's graph #1
/// after the paper's 5 timing iterations.
#[test]
fn sql_linbp_on_kronecker_graph1() {
    let g = kronecker_graph(5);
    let e = random_explicit(243, 3, 0.05, 1);
    let h = CouplingMatrix::fig6b_residual().scale(0.001);
    let db = lsbp_reldb::SqlDb::new(&g, &e, &h);
    let sql_b = db.linbp(5, true);
    let native = linbp_on(
        &g.adjacency(),
        &e,
        &h,
        &LinBpOptions {
            max_iter: 5,
            tol: 0.0,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(sql_b.residual().max_abs_diff(native.beliefs.residual()) < 1e-12);
}
