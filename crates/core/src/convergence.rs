//! Convergence criteria for LinBP / LinBP\* / standard BP.
//!
//! * **Exact** (Lemma 8): LinBP converges iff `ρ(Ĥ⊗A − Ĥ²⊗D) < 1`;
//!   LinBP\* iff `ρ(Ĥ) < 1/ρ(A)`. Spectral radii of the `nk × nk`
//!   operators are computed matrix-free by power iteration (the operators
//!   are symmetric because `Ĥ`, `A` are symmetric and `D` is diagonal).
//! * **Sufficient** (Lemma 9): any sub-multiplicative norm bound; we take
//!   the minimum over {Frobenius, induced-1, induced-∞} as the paper
//!   recommends, plus the simpler Lemma 23 variant
//!   `‖Ĥ‖ < 1/(2‖A‖)`.
//! * **εH thresholds** (Sect. 6.2): with `Ĥ = εH·Ĥo` fixed up to scale,
//!   each criterion inverts into a maximal εH; the exact LinBP threshold
//!   needs a bisection because the echo term is quadratic in εH.
//! * **Mooij–Kappen** (Appendix G): the sufficient criterion for
//!   *standard BP*, `c(H)·ρ(A_edge) < 1`, for the comparison experiment.

use lsbp_linalg::{power_iteration, spectral_radius_dense_symmetric, Mat, PowerIterationOptions};
use lsbp_sparse::{CsrMatrix, EdgeMatrixOp};

/// Spectral radius of the LinBP update operator
/// `M = Ĥ⊗A − Ĥ²⊗D` (with echo) or `Ĥ⊗A` (without), computed matrix-free.
pub fn spectral_radius_linbp_operator(adj: &CsrMatrix, h_residual: &Mat, echo: bool) -> f64 {
    let n = adj.n_rows();
    let k = h_residual.rows();
    let h2 = h_residual.matmul(h_residual);
    let degrees = adj.squared_weight_degrees();
    let mut b = Mat::zeros(n, k);
    let mut scratch = Mat::zeros(n, k);
    let mut m = Mat::zeros(n, k);
    let mut db = Mat::zeros(n, k);
    let mut db_h2 = Mat::zeros(n, k);
    power_iteration(
        n * k,
        move |x, out| {
            // Unvec (column-stacked: x[c·n + r] = B(r,c)).
            for c in 0..k {
                for r in 0..n {
                    b[(r, c)] = x[c * n + r];
                }
            }
            // A·B·Ĥ (− D·B·Ĥ²) — every intermediate reuses a buffer
            // allocated once outside the closure.
            adj.spmm_into(&b, &mut scratch);
            scratch.matmul_into(h_residual, &mut m);
            if echo {
                b.scaled_rows_into(degrees, &mut db);
                db.matmul_into(&h2, &mut db_h2);
                m.sub_assign(&db_h2);
            }
            for c in 0..k {
                for r in 0..n {
                    out[c * n + r] = m[(r, c)];
                }
            }
        },
        PowerIterationOptions {
            max_iter: 3000,
            tol: 1e-11,
            ..Default::default()
        },
    )
}

/// Lemma 8, Eq. 16: exact LinBP convergence test.
pub fn exact_linbp_converges(adj: &CsrMatrix, h_residual: &Mat) -> bool {
    spectral_radius_linbp_operator(adj, h_residual, true) < 1.0
}

/// Lemma 8, Eq. 17: exact LinBP\* convergence test, via
/// `ρ(Ĥ)·ρ(A) < 1` (no `nk`-dimensional work needed).
pub fn exact_linbp_star_converges(adj: &CsrMatrix, h_residual: &Mat) -> bool {
    spectral_radius_dense_symmetric(h_residual) * adj.spectral_radius() < 1.0
}

/// Exact εH threshold for LinBP\* (Eq. 17 inverted):
/// `εH < 1/(ρ(Ĥo)·ρ(A))`.
pub fn eps_max_exact_linbp_star(h_unscaled: &Mat, adj: &CsrMatrix) -> f64 {
    let rho_h = spectral_radius_dense_symmetric(h_unscaled);
    let rho_a = adj.spectral_radius();
    if rho_h == 0.0 || rho_a == 0.0 {
        f64::INFINITY
    } else {
        1.0 / (rho_h * rho_a)
    }
}

/// Exact εH threshold for LinBP (Eq. 16 inverted by bisection): the
/// largest εH with `ρ(εĤo⊗A − ε²Ĥo²⊗D) < 1`. The radius is continuous
/// and strictly increasing in εH on the relevant range, so bisection
/// converges; `rel_tol` bounds the relative bracket width (default-worthy
/// value: 1e-6).
pub fn eps_max_exact_linbp(h_unscaled: &Mat, adj: &CsrMatrix, rel_tol: f64) -> f64 {
    let rho_at = |eps: f64| {
        let h = h_unscaled.scale(eps);
        spectral_radius_linbp_operator(adj, &h, true)
    };
    // Bracket: start from the (echo-free) star bound, which is in the right
    // ballpark, then expand/shrink until ρ straddles 1.
    let mut hi = eps_max_exact_linbp_star(h_unscaled, adj);
    if !hi.is_finite() {
        return f64::INFINITY;
    }
    let mut lo = 0.0f64;
    let mut guard = 0;
    while rho_at(hi) < 1.0 {
        lo = hi;
        hi *= 2.0;
        guard += 1;
        if guard > 60 {
            return hi;
        }
    }
    while (hi - lo) > rel_tol * hi {
        let mid = 0.5 * (lo + hi);
        if rho_at(mid) < 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Minimum over the paper's norm set M = {Frobenius, induced-1,
/// induced-∞} for a sparse matrix.
fn min_norm_sparse(m: &CsrMatrix) -> f64 {
    m.frobenius_norm()
        .min(m.induced_1_norm())
        .min(m.induced_inf_norm())
}

/// Minimum over the norm set M for a dense matrix.
fn min_norm_dense(m: &Mat) -> f64 {
    lsbp_linalg::min_submultiplicative_norm(m)
}

/// Lemma 9 sufficient εH threshold for LinBP:
/// `εH·‖Ĥo‖ < (√(‖A‖² + 4‖D‖) − ‖A‖)/(2‖D‖)`, with each norm minimized
/// over M independently (as the lemma allows).
pub fn eps_max_sufficient_linbp(h_unscaled: &Mat, adj: &CsrMatrix) -> f64 {
    let norm_h = min_norm_dense(h_unscaled);
    let norm_a = min_norm_sparse(adj);
    // All three norms of the diagonal degree matrix: induced-1 = induced-∞
    // = max d; Frobenius ≥ max d. The minimum is max d.
    let norm_d = adj
        .squared_weight_degrees()
        .iter()
        .fold(0.0f64, |m, &d| m.max(d));
    if norm_h == 0.0 {
        return f64::INFINITY;
    }
    if norm_d == 0.0 {
        // Edgeless graph: condition degenerates to the star case.
        return if norm_a == 0.0 {
            f64::INFINITY
        } else {
            1.0 / (norm_h * norm_a)
        };
    }
    let bound = ((norm_a * norm_a + 4.0 * norm_d).sqrt() - norm_a) / (2.0 * norm_d);
    bound / norm_h
}

/// Lemma 9 sufficient εH threshold for LinBP\*: `εH < 1/(‖Ĥo‖·‖A‖)`.
pub fn eps_max_sufficient_linbp_star(h_unscaled: &Mat, adj: &CsrMatrix) -> f64 {
    let norm_h = min_norm_dense(h_unscaled);
    let norm_a = min_norm_sparse(adj);
    if norm_h == 0.0 || norm_a == 0.0 {
        f64::INFINITY
    } else {
        1.0 / (norm_h * norm_a)
    }
}

/// Lemma 23's simpler (but looser) sufficient εH threshold for LinBP:
/// `εH·‖Ĥo‖ < 1/(2‖A‖)`, using only the induced 1-/∞-norms.
pub fn eps_max_lemma23(h_unscaled: &Mat, adj: &CsrMatrix) -> f64 {
    let norm_h =
        lsbp_linalg::induced_1_norm(h_unscaled).min(lsbp_linalg::induced_inf_norm(h_unscaled));
    let norm_a = adj.induced_1_norm().min(adj.induced_inf_norm());
    if norm_h == 0.0 || norm_a == 0.0 {
        f64::INFINITY
    } else {
        1.0 / (2.0 * norm_h * norm_a)
    }
}

/// The constant `c(H)` of the Mooij–Kappen bound (Appendix G):
/// `max_{c1≠c2} max_{d1≠d2} tanh(¼·|log (H(c1,d1)·H(c2,d2)) /
/// (H(c2,d1)·H(c1,d2))|)`. A zero entry anywhere in a compared quadruple
/// makes the log-odds infinite, i.e. `c(H) = 1`.
pub fn mooij_constant(h_raw: &Mat) -> f64 {
    let k = h_raw.rows();
    assert!(h_raw.is_square(), "c(H) of a square matrix");
    let mut c = 0.0f64;
    for c1 in 0..k {
        for c2 in 0..k {
            if c1 == c2 {
                continue;
            }
            for d1 in 0..k {
                for d2 in 0..k {
                    if d1 == d2 {
                        continue;
                    }
                    let num = h_raw[(c1, d1)] * h_raw[(c2, d2)];
                    let den = h_raw[(c2, d1)] * h_raw[(c1, d2)];
                    let v = if num <= 0.0 || den <= 0.0 {
                        1.0
                    } else {
                        (0.25 * (num / den).ln().abs()).tanh()
                    };
                    c = c.max(v);
                }
            }
        }
    }
    c
}

/// Spectral radius of the edge matrix `A_edge` (Appendix G), matrix-free.
pub fn rho_edge_matrix(adj: &CsrMatrix) -> f64 {
    EdgeMatrixOp::new(adj).spectral_radius()
}

/// The Mooij–Kappen sufficient criterion for convergence of *standard BP*:
/// `c(H)·ρ(A_edge) < 1`.
pub fn mooij_guarantees_bp_convergence(h_raw: &Mat, adj: &CsrMatrix) -> bool {
    mooij_constant(h_raw) * rho_edge_matrix(adj) < 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coupling::CouplingMatrix;
    use lsbp_graph::generators::{complete, cycle, fig5c_torus, path, star};

    /// Matrix-free operator radius equals the dense Kronecker computation.
    #[test]
    fn operator_radius_matches_dense() {
        let adj = cycle(5).adjacency();
        let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.3);
        let rho_free = spectral_radius_linbp_operator(&adj, &h, true);
        // Dense: Ĥ⊗A − Ĥ²⊗D.
        let a = adj.to_dense();
        let degrees = adj.squared_weight_degrees();
        let d = Mat::from_fn(5, 5, |r, c| if r == c { degrees[r] } else { 0.0 });
        let m = h.kronecker(&a).sub(&h.matmul(&h).kronecker(&d));
        let rho_dense = spectral_radius_dense_symmetric(&m);
        assert!(
            (rho_free - rho_dense).abs() < 1e-6,
            "{rho_free} vs {rho_dense}"
        );
    }

    /// Without echo: ρ(Ĥ⊗A) = ρ(Ĥ)·ρ(A) — separable.
    #[test]
    fn star_radius_is_separable() {
        let adj = star(7).adjacency();
        let h = CouplingMatrix::fig1a().unwrap().scaled_residual(0.4);
        let rho_free = spectral_radius_linbp_operator(&adj, &h, false);
        let expect = spectral_radius_dense_symmetric(&h) * adj.spectral_radius();
        assert!((rho_free - expect).abs() < 1e-6);
    }

    /// Example 20: LinBP* threshold εH ≈ 0.658 on the torus with Ĥo from
    /// Fig. 1c (ρ(Ĥo) ≈ 0.629, ρ(A) = 1 + √2).
    #[test]
    fn example20_star_threshold() {
        let adj = fig5c_torus().adjacency();
        let ho = CouplingMatrix::fig1c().unwrap().residual();
        let eps = eps_max_exact_linbp_star(&ho, &adj);
        assert!((eps - 0.658).abs() < 0.002, "eps = {eps}");
    }

    /// Example 20: exact LinBP threshold εH ≈ 0.488.
    #[test]
    fn example20_linbp_threshold() {
        let adj = fig5c_torus().adjacency();
        let ho = CouplingMatrix::fig1c().unwrap().residual();
        let eps = eps_max_exact_linbp(&ho, &adj, 1e-5);
        assert!((eps - 0.488).abs() < 0.002, "eps = {eps}");
    }

    /// Example 20: the norm-based sufficient conditions
    /// εH ≈ 0.360 (LinBP) and εH ≈ 0.455 (LinBP*).
    #[test]
    fn example20_sufficient_thresholds() {
        let adj = fig5c_torus().adjacency();
        let ho = CouplingMatrix::fig1c().unwrap().residual();
        let suff_linbp = eps_max_sufficient_linbp(&ho, &adj);
        let suff_star = eps_max_sufficient_linbp_star(&ho, &adj);
        assert!((suff_linbp - 0.360).abs() < 0.005, "linbp = {suff_linbp}");
        assert!((suff_star - 0.455).abs() < 0.005, "star = {suff_star}");
        // Sufficient ≤ exact, always.
        assert!(suff_linbp <= eps_max_exact_linbp(&ho, &adj, 1e-4) + 1e-9);
        assert!(suff_star <= eps_max_exact_linbp_star(&ho, &adj) + 1e-9);
    }

    /// Lemma 23 is looser than Lemma 9 but still sufficient.
    #[test]
    fn lemma23_is_looser() {
        let adj = fig5c_torus().adjacency();
        let ho = CouplingMatrix::fig1c().unwrap().residual();
        let l23 = eps_max_lemma23(&ho, &adj);
        let l9 = eps_max_sufficient_linbp(&ho, &adj);
        assert!(
            l23 <= l9 + 1e-12,
            "lemma 23 ({l23}) should not beat lemma 9 ({l9})"
        );
        // And it is still below the exact threshold.
        assert!(l23 < 0.488);
    }

    /// The convergence predicates agree with the thresholds on both sides.
    #[test]
    fn predicates_bracket_thresholds() {
        let adj = fig5c_torus().adjacency();
        let coupling = CouplingMatrix::fig1c().unwrap();
        let below = coupling.scaled_residual(0.45);
        let above = coupling.scaled_residual(0.52);
        assert!(exact_linbp_converges(&adj, &below));
        assert!(!exact_linbp_converges(&adj, &above));
        let below_star = coupling.scaled_residual(0.64);
        let above_star = coupling.scaled_residual(0.68);
        assert!(exact_linbp_star_converges(&adj, &below_star));
        assert!(!exact_linbp_star_converges(&adj, &above_star));
    }

    /// c(H) = 0 for the uniform matrix (no information → BP trivially
    /// converges) and grows with coupling strength.
    #[test]
    fn mooij_constant_properties() {
        let uniform = Mat::from_fn(3, 3, |_, _| 1.0 / 3.0);
        assert!(mooij_constant(&uniform) < 1e-12);
        let weak = CouplingMatrix::fig1c().unwrap().raw_at_scale(0.05);
        let strong = CouplingMatrix::fig1c().unwrap().raw_at_scale(0.3);
        assert!(mooij_constant(&weak) < mooij_constant(&strong));
        // Zero entries (fig1c at scale 1 has H(1,1) = 0) → c = 1.
        let degenerate = CouplingMatrix::fig1c().unwrap();
        assert!((mooij_constant(degenerate.raw()) - 1.0).abs() < 1e-12);
    }

    /// Appendix G's empirical remark: ρ(A_edge) + 1 ≈ ρ(A) for graphs with
    /// high-degree nodes; exact equality for complete graphs.
    #[test]
    fn edge_radius_vs_adjacency_radius() {
        let adj = complete(6).adjacency();
        let re = rho_edge_matrix(&adj);
        let ra = adj.spectral_radius();
        assert!((re + 1.0 - ra).abs() < 1e-4, "re={re} ra={ra}");
    }

    /// On a tree (path), BP always converges: ρ(A_edge) = 0 makes the
    /// Mooij criterion hold for every positive H.
    #[test]
    fn mooij_on_tree_always_converges() {
        let adj = path(6).adjacency();
        let h = CouplingMatrix::fig1a().unwrap();
        assert!(mooij_guarantees_bp_convergence(h.raw(), &adj));
    }

    /// Appendix G's punchline: neither bound subsumes the other.
    ///
    /// Direction 1 — sparse graph, strong binary coupling: ρ(A_edge) < ρ(A),
    /// so Mooij certifies BP where LinBP* diverges.
    /// Direction 2 — dense graph, multi-class coupling: c(H) > ρ(Ĥ) makes
    /// our exact criterion admit scales Mooij cannot certify.
    #[test]
    fn neither_bound_subsumes() {
        // Direction 1: cycle C8, fig1a at full strength. ρ(A_edge) = 1 and
        // c(H) = tanh(¼·ln(0.64/0.04)) ≈ 0.6 < 1 → Mooij certifies BP; but
        // ρ(Ĥ)·ρ(A) = 0.6 · 2 = 1.2 → LinBP* diverges.
        let ring = cycle(8).adjacency();
        let binary = CouplingMatrix::fig1a().unwrap();
        assert!(mooij_guarantees_bp_convergence(binary.raw(), &ring));
        assert!(!exact_linbp_star_converges(&ring, &binary.residual()));

        // Direction 2: complete graph K6, fig1c multi-class coupling.
        // Appendix G compares Eq. 34 against the LinBP* criterion (Eq. 17):
        // in multi-class settings c(H) > ρ(Ĥ) (here ≈ 0.88ε vs 0.63ε), and
        // high-degree nodes make ρ(A_edge) = ρ(A) − 1 nearly as large as
        // ρ(A); at εH = 0.3, ρ(Ĥ)·ρ(A) ≈ 0.94 < 1 while
        // c(H)·ρ(A_edge) ≈ 1.03 > 1.
        let dense = complete(6).adjacency();
        let coupling = CouplingMatrix::fig1c().unwrap();
        let eps = 0.3;
        assert!(exact_linbp_star_converges(
            &dense,
            &coupling.scaled_residual(eps)
        ));
        assert!(!mooij_guarantees_bp_convergence(
            &coupling.raw_at_scale(eps),
            &dense
        ));
    }
}
