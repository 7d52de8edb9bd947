//! Theorem 19 (LinBP → SBP as εH → 0⁺) and Lemma 17 (the modified
//! adjacency DAG), beyond the torus.

use lsbp::prelude::*;
use lsbp_graph::generators::{erdos_renyi_gnm, grid_2d};
use lsbp_graph::{geodesic_numbers, UNREACHABLE};
use lsbp_sparse::CooMatrix;

fn seeds(n: usize, nodes: &[(usize, usize)]) -> ExplicitBeliefs {
    let mut e = ExplicitBeliefs::new(n, 3);
    for &(v, c) in nodes {
        e.set_label(v, c, 1.0).unwrap();
    }
    e
}

/// Theorem 19 on a grid: standardized LinBP beliefs converge node-wise to
/// standardized SBP beliefs as εH → 0.
#[test]
fn theorem19_on_grid() {
    let g = grid_2d(6, 6);
    let adj = g.adjacency();
    let coupling = CouplingMatrix::fig1c().unwrap();
    let e = seeds(36, &[(0, 0), (35, 1), (17, 2)]);
    let sbp_r = sbp_on(
        &adj,
        &e,
        &coupling.residual(),
        &ParallelismConfig::default(),
    )
    .unwrap();
    let opts = LinBpOptions {
        max_iter: 100_000,
        tol: 1e-16,
        ..Default::default()
    };
    let h = coupling.scaled_residual(0.005);
    let lin = linbp_on(&adj, &e, &h, &opts).unwrap();
    assert!(lin.converged);
    let mut max_err = 0.0f64;
    for v in 0..36 {
        let a = lin.beliefs.standardized(v);
        let b = sbp_r.beliefs.standardized(v);
        for (x, y) in a.iter().zip(&b) {
            max_err = max_err.max((x - y).abs());
        }
    }
    assert!(max_err < 0.05, "max standardized deviation {max_err}");
}

/// Theorem 19 on random graphs: the *top belief assignment* of LinBP at
/// small εH equals SBP's up to ties.
#[test]
fn top_beliefs_agree_at_small_eps() {
    let coupling = CouplingMatrix::fig1c().unwrap();
    for seed in 0..4u64 {
        let g = erdos_renyi_gnm(50, 120, seed);
        let adj = g.adjacency();
        let e = seeds(50, &[(0, 0), (11, 1), (29, 2)]);
        let sbp_r = sbp_on(
            &adj,
            &e,
            &coupling.residual(),
            &ParallelismConfig::default(),
        )
        .unwrap();
        let lin = linbp_on(
            &adj,
            &e,
            &coupling.scaled_residual(0.002),
            &LinBpOptions {
                max_iter: 100_000,
                tol: 1e-16,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(lin.converged, "seed {seed}");
        // Loose tie tolerance on the SBP side (it has exact ties), tight on
        // LinBP: recall of SBP w.r.t. LinBP should be ≈ 1 (Fig. 7g).
        let gt = lin.beliefs.top_belief_assignment(1e-6);
        let ours = sbp_r.beliefs.top_belief_assignment(1e-9);
        let (_, r) = precision_recall(&gt, &ours);
        assert!(r > 0.97, "seed {seed}: recall {r}");
    }
}

/// Lemma 17: SBP over A equals LinBP over the transposed modified
/// adjacency matrix Aᵀ∗ (edges kept only from geodesic layer g to g+1,
/// then transposed). The DAG makes the iteration terminate exactly after
/// `max layer` steps, with *no* approximation.
#[test]
fn lemma17_modified_adjacency() {
    let coupling = CouplingMatrix::fig1c().unwrap();
    let ho = coupling.residual();
    for seed in [3u64, 8, 21] {
        let g = erdos_renyi_gnm(40, 90, seed);
        let adj = g.adjacency();
        let e = seeds(40, &[(0, 0), (13, 2)]);
        let geo = geodesic_numbers(&adj, &[0, 13]);

        // Build A∗ (direction low→high geodesic), then transpose: the
        // LinBP update B ← Ê + Aᵀ∗·B·Ĥ pulls from parents.
        let mut coo = CooMatrix::new(40, 40);
        for r in 0..40 {
            for (c, w) in adj.row_iter(r) {
                let (gr, gc) = (geo.g[r], geo.g[c]);
                if gr == UNREACHABLE || gc == UNREACHABLE {
                    continue;
                }
                // Keep r→c when g_c = g_r + 1; transposed entry: (c, r).
                if gc == gr + 1 {
                    coo.push(c, r, w);
                }
            }
        }
        let a_star_t = coo.to_csr();
        // The DAG operator is nilpotent (ρ = 0), so LinBP* converges
        // exactly — even with the *unscaled* Ĥo.
        let lin = linbp_star_on(
            &a_star_t,
            &e,
            &ho,
            &LinBpOptions {
                max_iter: 200,
                tol: 1e-15,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(lin.converged, "seed {seed}");
        let sbp_r = sbp_on(&adj, &e, &ho, &ParallelismConfig::default()).unwrap();
        assert!(
            lin.beliefs
                .residual()
                .max_abs_diff(sbp_r.beliefs.residual())
                < 1e-10,
            "seed {seed}"
        );
    }
}

/// SBP's standardized assignment is invariant under εH scaling of Ĥ
/// (Sect. 6.2) — unlike LinBP's.
#[test]
fn sbp_scale_invariance() {
    let g = erdos_renyi_gnm(30, 70, 5);
    let adj = g.adjacency();
    let coupling = CouplingMatrix::fig1c().unwrap();
    let e = seeds(30, &[(0, 0), (9, 1)]);
    let full = sbp_on(
        &adj,
        &e,
        &coupling.residual(),
        &ParallelismConfig::default(),
    )
    .unwrap();
    let tiny = sbp_on(
        &adj,
        &e,
        &coupling.scaled_residual(1e-4),
        &ParallelismConfig::default(),
    )
    .unwrap();
    for v in 0..30 {
        let a = full.beliefs.standardized(v);
        let b = tiny.beliefs.standardized(v);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "node {v}");
        }
    }
}
