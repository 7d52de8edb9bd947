//! Incremental LinBP maintenance under **edge-weight** changes.
//!
//! [`crate::linbp::linbp_update`] (Proposition 7, linearity in `Ê`)
//! handles changed *explicit beliefs*. This module extends the same idea
//! to changed *adjacency*: for an additive edge change `A → A' = A + ΔA`
//! with held-fixed explicit beliefs, the already-solved beliefs `B̂` (the
//! fixpoint of `B̂ = Ê + A·B̂·Ĥ − D·B̂·Ĥ²`) can be **patched** to the new
//! graph by one sparse delta solve instead of a from-scratch run.
//!
//! Writing the new solution as `B̂' = B̂ + Δ` and subtracting the old
//! fixpoint identity from the new one gives a LinBP system *in Δ* over
//! the **new** adjacency:
//!
//! ```text
//! Δ = Ê_Δ + A'·Δ·Ĥ − D'·Δ·Ĥ²      with
//! Ê_Δ = (ΔA)·B̂·Ĥ − (ΔD)·B̂·Ĥ²,    ΔD = D' − D
//! ```
//!
//! so the patch is exactly `linbp_update` with the synthetic seed `Ê_Δ`
//! solved against `A'`. `Ê_Δ` is nonzero only on the rows touched by a
//! delta (its source endpoints), and each of its rows is analytically
//! centered: `B̂·Ĥ` rows sum to zero because the residual coupling's rows
//! do (Definition 3), so `Ê_Δ` is a legal [`ExplicitBeliefs`].
//!
//! **Determinism boundary** (documented in the ROADMAP): the patched
//! beliefs are bitwise reproducible — the same `(B̂, deltas)` always
//! produce the same `Ê_Δ` and hence the same patched result — but they
//! are *not* bitwise equal to a from-scratch solve on `A'`; both sit
//! within solver tolerance of the exact new fixpoint. The equality that
//! *is* exact (and tested) is: serving-layer patching ==
//! `linbp_edge_delta_seed` + `linbp_update` called as library functions.

use crate::beliefs::{BeliefMatrix, ExplicitBeliefs};
use crate::linbp::LinBpError;
use lsbp_linalg::Mat;
use lsbp_sparse::CsrMatrix;
use std::collections::BTreeMap;

/// Builds the synthetic explicit-belief seed `Ê_Δ = (ΔA)·B̂·Ĥ − (ΔD)·B̂·Ĥ²`
/// for patching `previous` beliefs across the additive edge-weight
/// `deltas` (entries `(src, dst, δw)`, duplicates summed; pass both
/// directions for an undirected change). `old_adj` must be the adjacency
/// the `previous` beliefs were solved on — it supplies the old weights in
/// `ΔD_s = Σ_t (w_st + δ_st)² − w_st²`. With `echo = false` (LinBP\*) the
/// `ΔD` term is dropped, matching Eq. 7.
///
/// Solving the returned seed with [`crate::linbp::linbp_update`] (or the
/// batched variants) **against the new adjacency** yields the patched
/// beliefs; see the module docs for the derivation and the determinism
/// boundary. Cost: `O(|deltas| · k²)` — independent of `n` and `nnz`.
pub fn linbp_edge_delta_seed(
    old_adj: &CsrMatrix,
    deltas: &[(usize, usize, f64)],
    previous: &BeliefMatrix,
    h_residual: &Mat,
    echo: bool,
) -> Result<ExplicitBeliefs, LinBpError> {
    let n = old_adj.n_rows();
    let k = h_residual.rows();
    if old_adj.n_cols() != n || previous.n() != n {
        return Err(LinBpError::DimensionMismatch);
    }
    if h_residual.cols() != k || previous.k() != k {
        return Err(LinBpError::CouplingArityMismatch);
    }
    for &(s, t, _) in deltas {
        if s >= n || t >= n {
            return Err(LinBpError::DimensionMismatch);
        }
    }

    // Coalesce duplicate coordinates (sum in arrival order), then iterate
    // in sorted order so the accumulation is independent of delta order.
    let mut summed: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for &(s, t, d) in deltas {
        *summed.entry((s, t)).or_insert(0.0) += d;
    }

    let b = previous.residual();
    let h2 = if echo {
        Some(h_residual.matmul(h_residual))
    } else {
        None
    };

    // row_t(B̂)·M for the two coupling powers, cached per node.
    let mut bh_cache: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut bh2_cache: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let row_times = |cache: &mut BTreeMap<usize, Vec<f64>>, m: &Mat, v: usize| -> Vec<f64> {
        cache
            .entry(v)
            .or_insert_with(|| {
                let row = b.row(v);
                (0..k)
                    .map(|c| (0..k).map(|d| row[d] * m[(d, c)]).sum())
                    .collect()
            })
            .clone()
    };

    // Ê_Δ row s  +=  δ_st · row_t(B̂)·Ĥ   for every touched (s, t).
    let mut seed_rows: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut dd: BTreeMap<usize, f64> = BTreeMap::new();
    for (&(s, t), &d) in &summed {
        if d == 0.0 {
            continue;
        }
        let p = row_times(&mut bh_cache, h_residual, t);
        let row = seed_rows.entry(s).or_insert_with(|| vec![0.0; k]);
        for (dst, &x) in row.iter_mut().zip(&p) {
            *dst += d * x;
        }
        if echo {
            let w = old_adj.get(s, t);
            *dd.entry(s).or_insert(0.0) += (w + d) * (w + d) - w * w;
        }
    }
    // Ê_Δ row s  −=  ΔD_s · row_s(B̂)·Ĥ²   (echo cancellation re-weighting).
    if let Some(h2) = &h2 {
        for (&s, &dd_s) in &dd {
            if dd_s == 0.0 {
                continue;
            }
            let q = row_times(&mut bh2_cache, h2, s);
            let row = seed_rows.entry(s).or_insert_with(|| vec![0.0; k]);
            for (dst, &x) in row.iter_mut().zip(&q) {
                *dst -= dd_s * x;
            }
        }
    }

    let mut seed = ExplicitBeliefs::new(n, k);
    for (s, mut row) in seed_rows {
        // Analytically centered; remove the accumulated rounding residue
        // (≈ machine epsilon relative) so the row passes the residual
        // check regardless of belief magnitudes.
        let mean: f64 = row.iter().sum::<f64>() / k as f64;
        row.iter_mut().for_each(|x| *x -= mean);
        seed.set_residual(s, &row)
            .expect("edge-delta seed rows are centered by construction");
    }
    Ok(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coupling::CouplingMatrix;
    use crate::linbp::{linbp_on, linbp_star_on, linbp_update, LinBpOptions};
    use lsbp_graph::Graph;

    fn fixture() -> (CsrMatrix, ExplicitBeliefs, Mat) {
        let mut g = Graph::new(8);
        for &(a, b) in &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 0),
            (1, 5),
        ] {
            g.add_edge(a, b, 1.0);
        }
        let adj = g.adjacency();
        let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
        let mut e = ExplicitBeliefs::new(8, 3);
        e.set_label(0, 0, 1.0).unwrap();
        e.set_label(3, 1, 1.0).unwrap();
        e.set_label(6, 2, 1.0).unwrap();
        (adj, e, h)
    }

    /// The patched beliefs agree with a from-scratch solve on the new
    /// adjacency to solver tolerance (they are not bitwise equal — that
    /// is the documented determinism boundary).
    #[test]
    fn patch_tracks_full_resolve() {
        for echo in [true, false] {
            let (adj, e, h) = fixture();
            let opts = LinBpOptions {
                tol: 1e-14,
                ..LinBpOptions::default()
            };
            let run = |a: &CsrMatrix, e: &ExplicitBeliefs| {
                if echo {
                    linbp_on(a, e, &h, &opts).unwrap()
                } else {
                    linbp_star_on(a, e, &h, &opts).unwrap()
                }
            };
            let old = run(&adj, &e);
            assert!(old.converged);

            // Re-weight one edge, add a brand-new one, both directions.
            let deltas = [
                (1usize, 2usize, 0.5),
                (2, 1, 0.5),
                (0, 4, 0.75),
                (4, 0, 0.75),
            ];
            let new_adj = adj.try_with_edge_deltas(&deltas).unwrap();

            let seed = linbp_edge_delta_seed(&adj, &deltas, &old.beliefs, &h, echo).unwrap();
            let patched = linbp_update(&new_adj, &old.beliefs, &seed, &h, &opts, echo).unwrap();
            let fresh = run(&new_adj, &e);
            assert!(patched.converged && fresh.converged);
            let diff = patched
                .beliefs
                .residual()
                .max_abs_diff(fresh.beliefs.residual());
            assert!(diff < 1e-10, "echo={echo}: patched vs fresh diff {diff}");
            // The patch genuinely moved the beliefs.
            assert!(
                old.beliefs
                    .residual()
                    .max_abs_diff(fresh.beliefs.residual())
                    > 1e-6,
                "fixture deltas must change the solution"
            );
        }
    }

    /// The seed touches only delta endpoints and is exactly centered.
    #[test]
    fn seed_support_and_centering() {
        let (adj, e, h) = fixture();
        let old = linbp_on(&adj, &e, &h, &LinBpOptions::default()).unwrap();
        let deltas = [(2usize, 3usize, 0.25), (3, 2, 0.25)];
        let seed = linbp_edge_delta_seed(&adj, &deltas, &old.beliefs, &h, true).unwrap();
        assert_eq!(seed.explicit_nodes(), vec![2, 3]);
        for v in 0..seed.n() {
            let sum: f64 = seed.row(v).iter().sum();
            assert!(sum.abs() < 1e-12);
        }
    }

    /// Duplicate deltas sum; a zero net delta produces an empty seed.
    #[test]
    fn zero_net_delta_is_empty_seed() {
        let (adj, e, h) = fixture();
        let old = linbp_on(&adj, &e, &h, &LinBpOptions::default()).unwrap();
        let deltas = [(1usize, 2usize, 0.5), (1, 2, -0.5)];
        let seed = linbp_edge_delta_seed(&adj, &deltas, &old.beliefs, &h, true).unwrap();
        assert_eq!(seed.num_explicit(), 0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let (adj, e, h) = fixture();
        let old = linbp_on(&adj, &e, &h, &LinBpOptions::default()).unwrap();
        assert_eq!(
            linbp_edge_delta_seed(&adj, &[(0, 99, 1.0)], &old.beliefs, &h, true).unwrap_err(),
            LinBpError::DimensionMismatch
        );
        let bad_h = Mat::zeros(4, 4);
        assert_eq!(
            linbp_edge_delta_seed(&adj, &[], &old.beliefs, &bad_h, true).unwrap_err(),
            LinBpError::CouplingArityMismatch
        );
    }
}
