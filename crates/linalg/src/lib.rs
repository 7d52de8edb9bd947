#![warn(missing_docs)]

//! Dense linear-algebra kernels used throughout the LSBP workspace.
//!
//! This crate is deliberately small (its only dependency is the vendored
//! persistent-pool `rayon` subset): the paper's algorithms only need
//!
//! * a row-major dense matrix ([`Mat`]) for belief matrices (`n × k`) and
//!   coupling matrices (`k × k`),
//! * matrix norms (Frobenius, induced-1, induced-∞) for the sufficient
//!   convergence criteria of Lemma 9,
//! * a symmetric eigensolver (cyclic Jacobi) and power iteration for the
//!   exact spectral-radius criteria of Lemma 8,
//! * an LU solver for the closed-form solution of Proposition 7 on small
//!   systems,
//! * the standardization map ζ (z-scores) of Definition 11, and
//! * the unified fixed-point iteration driver ([`FixedPointSolver`])
//!   every iterative method in the workspace runs on.
//!
//! Everything is `f64`; the belief residuals the paper manipulates span many
//! orders of magnitude (εH sweeps down to 1e-8), so single precision would
//! reproduce the paper's round-off pathologies far too early.

pub mod eigen;
pub mod fixedpoint;
pub mod matrix;
pub mod norms;
pub mod parallel;
pub mod simd;
pub mod solve;
pub mod standardize;

pub use eigen::{
    power_iteration, spectral_radius_dense_symmetric, symmetric_eigenvalues, PowerIterationOptions,
};
pub use fixedpoint::{
    FixedPointOp, FixedPointSolver, IterationEvent, SolveOutcome, StepOutcome, StepStatus,
    ToleranceNorm,
};
pub use matrix::Mat;
pub use norms::{frobenius_norm, induced_1_norm, induced_inf_norm, min_submultiplicative_norm};
pub use parallel::{
    default_memory_budget, even_ranges, parse_byte_size, weight_balanced_ranges, ParallelismConfig,
};
pub use solve::{lu_inverse, lu_solve, LuError};
pub use standardize::{mean, population_std, standardize};
