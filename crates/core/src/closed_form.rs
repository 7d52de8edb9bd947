//! Closed-form solution of LinBP (Proposition 7).
//!
//! `vec(B̂) = (I_nk − Ĥ⊗A + Ĥ²⊗D)⁻¹ · vec(Ê)`
//!
//! Two solvers:
//!
//! * [`linbp_closed_form_dense`] materializes the `nk × nk` system and
//!   solves it by LU — exact (up to floating point) whenever the matrix is
//!   invertible, **even outside the convergence region of the iterative
//!   updates**. This is the correctness oracle for the whole crate: tests
//!   assert the iterative fixpoint matches it whenever Lemma 8 admits
//!   convergence.
//! * [`linbp_closed_form_jacobi`] solves the same system matrix-free with
//!   the Jacobi iteration of Eq. 13/14 — which is *exactly* the LinBP
//!   update — but with solver semantics: it errors out instead of silently
//!   returning garbage when ρ ≥ 1.

use crate::beliefs::{BeliefMatrix, ExplicitBeliefs};
use crate::linbp::{linbp_on, linbp_star_on, LinBpOptions};
use lsbp_linalg::{lu_solve, Mat};
use lsbp_sparse::CsrMatrix;

/// Errors from the closed-form solvers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClosedFormError {
    /// `n·k` exceeds the dense-solver guard (the `nk × nk` matrix would not
    /// fit in reasonable memory / time).
    SystemTooLarge,
    /// The system matrix is singular.
    Singular,
    /// Adjacency/beliefs/coupling dimensions disagree.
    DimensionMismatch,
    /// The Jacobi iteration did not converge (ρ ≥ 1, Lemma 8).
    NotConvergent,
}

impl std::fmt::Display for ClosedFormError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClosedFormError::SystemTooLarge => write!(f, "n·k too large for the dense solver"),
            ClosedFormError::Singular => write!(f, "closed-form system matrix is singular"),
            ClosedFormError::DimensionMismatch => write!(f, "dimension mismatch"),
            ClosedFormError::NotConvergent => {
                write!(
                    f,
                    "Jacobi iteration diverged: spectral radius ≥ 1 (Lemma 8)"
                )
            }
        }
    }
}

impl std::error::Error for ClosedFormError {}

/// Upper bound on `n·k` for the dense path (the LU is `O((nk)³)`).
pub const DENSE_LIMIT: usize = 2500;

/// Solves LinBP (`echo = true`, Eq. 11) or LinBP\* (`echo = false`,
/// Eq. 12) exactly by materializing the Kronecker system.
pub fn linbp_closed_form_dense(
    adj: &CsrMatrix,
    explicit: &ExplicitBeliefs,
    h_residual: &Mat,
    echo: bool,
) -> Result<BeliefMatrix, ClosedFormError> {
    let n = explicit.n();
    let k = explicit.k();
    if adj.n_rows() != n || adj.n_cols() != n || h_residual.rows() != k || h_residual.cols() != k {
        return Err(ClosedFormError::DimensionMismatch);
    }
    let nk = n.checked_mul(k).ok_or(ClosedFormError::SystemTooLarge)?;
    if nk > DENSE_LIMIT {
        return Err(ClosedFormError::SystemTooLarge);
    }

    // M = I − Ĥ⊗A (+ Ĥ²⊗D).
    let a_dense = adj.to_dense();
    let mut m = Mat::identity(nk);
    m.sub_assign(&h_residual.kronecker(&a_dense));
    if echo {
        let degrees = adj.squared_weight_degrees();
        let d_dense = Mat::from_fn(n, n, |r, c| if r == c { degrees[r] } else { 0.0 });
        let h2 = h_residual.matmul(h_residual);
        m.add_assign(&h2.kronecker(&d_dense));
    }

    let rhs = explicit.residual_matrix().vectorize();
    let x = lu_solve(&m, &rhs).map_err(|_| ClosedFormError::Singular)?;
    Ok(BeliefMatrix::from_mat(Mat::from_vectorized(n, k, &x)))
}

/// Solves the closed form iteratively by the Jacobi method (Eq. 14/15 —
/// identical to the LinBP update equations), erroring out on divergence.
pub fn linbp_closed_form_jacobi(
    adj: &CsrMatrix,
    explicit: &ExplicitBeliefs,
    h_residual: &Mat,
    echo: bool,
    opts: &LinBpOptions,
) -> Result<BeliefMatrix, ClosedFormError> {
    let run = if echo {
        linbp_on(adj, explicit, h_residual, opts)
    } else {
        linbp_star_on(adj, explicit, h_residual, opts)
    };
    let result = run.map_err(|_| ClosedFormError::DimensionMismatch)?;
    if result.diverged || !result.converged {
        return Err(ClosedFormError::NotConvergent);
    }
    Ok(result.beliefs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coupling::CouplingMatrix;
    use lsbp_graph::generators::{cycle, fig5c_torus, path};

    fn torus_setup() -> (CsrMatrix, ExplicitBeliefs, Mat) {
        let adj = fig5c_torus().adjacency();
        let mut e = ExplicitBeliefs::new(8, 3);
        e.set_residual(0, &[2.0, -1.0, -1.0]).unwrap();
        e.set_residual(1, &[-1.0, 2.0, -1.0]).unwrap();
        e.set_residual(2, &[-1.0, -1.0, 2.0]).unwrap();
        let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.1);
        (adj, e, h)
    }

    /// The dense closed form and the iterative fixpoint agree inside the
    /// convergence region — for both LinBP and LinBP*.
    #[test]
    fn dense_matches_iterative() {
        let (adj, e, h) = torus_setup();
        for echo in [true, false] {
            let dense = linbp_closed_form_dense(&adj, &e, &h, echo).unwrap();
            let opts = LinBpOptions {
                max_iter: 5000,
                tol: 1e-14,
                ..Default::default()
            };
            let iter = linbp_closed_form_jacobi(&adj, &e, &h, echo, &opts).unwrap();
            assert!(
                dense.residual().max_abs_diff(iter.residual()) < 1e-9,
                "echo={echo}"
            );
        }
    }

    /// The closed form satisfies the implicit equation B̂ = Ê + A·B̂·Ĥ − D·B̂·Ĥ².
    #[test]
    fn dense_satisfies_fixed_point() {
        let (adj, e, h) = torus_setup();
        let b = linbp_closed_form_dense(&adj, &e, &h, true).unwrap();
        let h2 = h.matmul(&h);
        let ab = adj.spmm(b.residual()).matmul(&h);
        let degrees = adj.squared_weight_degrees();
        let db = Mat::from_fn(8, 3, |r, c| degrees[r] * b.residual()[(r, c)]).matmul(&h2);
        let rhs = e.residual_matrix().add(&ab).sub(&db);
        assert!(b.residual().max_abs_diff(&rhs) < 1e-10);
    }

    /// Outside the convergence region, Jacobi reports NotConvergent while
    /// the dense solve still returns the algebraic solution.
    #[test]
    fn beyond_radius_dense_still_solves() {
        let adj = cycle(6).adjacency();
        let mut e = ExplicitBeliefs::new(6, 2);
        e.set_label(0, 0, 0.1).unwrap();
        let h = CouplingMatrix::fig1a().unwrap().scaled_residual(1.0); // ρ = 1.2
        let opts = LinBpOptions {
            max_iter: 500,
            ..Default::default()
        };
        assert!(matches!(
            linbp_closed_form_jacobi(&adj, &e, &h, false, &opts),
            Err(ClosedFormError::NotConvergent)
        ));
        // ρ(Ĥ⊗A) = 1.2 but I − Ĥ⊗A is still invertible (no eigenvalue at
        // exactly 1): the dense path produces the algebraic solution.
        let dense = linbp_closed_form_dense(&adj, &e, &h, false).unwrap();
        assert!(dense.residual().max_abs() > 0.0);
    }

    #[test]
    fn size_guard() {
        let adj = path(3000).adjacency();
        let e = ExplicitBeliefs::new(3000, 2);
        let h = CouplingMatrix::fig1a().unwrap().scaled_residual(0.1);
        assert!(matches!(
            linbp_closed_form_dense(&adj, &e, &h, true),
            Err(ClosedFormError::SystemTooLarge)
        ));
    }

    #[test]
    fn dimension_guard() {
        let adj = path(3).adjacency();
        let e = ExplicitBeliefs::new(4, 2);
        let h = CouplingMatrix::fig1a().unwrap().scaled_residual(0.1);
        assert!(matches!(
            linbp_closed_form_dense(&adj, &e, &h, true),
            Err(ClosedFormError::DimensionMismatch)
        ));
    }
}
