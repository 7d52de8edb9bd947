#![warn(missing_docs)]

//! # LSBP — Linearized and Single-Pass Belief Propagation
//!
//! A from-scratch Rust reproduction of *"Linearized and Single-Pass Belief
//! Propagation"* (Gatterbauer, Günnemann, Koutra, Faloutsos — PVLDB 8(5),
//! 2015). The crate implements the full method stack of the paper:
//!
//! * [`mod@bp`] — standard multi-class loopy Belief Propagation (the baseline,
//!   Eqs. 1–3),
//! * [`mod@linbp`] — **LinBP** and **LinBP\*** , the paper's linearization
//!   `B̂ = Ê + A·B̂·Ĥ − D·B̂·Ĥ²` (Eq. 4/5) as iterative updates (Eq. 6/7),
//! * [`closed_form`] — the Kronecker closed form of Proposition 7
//!   (`vec(B̂) = (I − Ĥ⊗A + Ĥ²⊗D)⁻¹ vec(Ê)`), both densely (LU) and
//!   matrix-free (Jacobi),
//! * [`mod@sbp`] — **SBP**, the εH → 0⁺ limit semantics (Definition 15,
//!   Theorem 19), with incremental maintenance for new explicit beliefs
//!   (Algorithm 3) and new edges (Algorithm 4 / Appendix C),
//! * [`convergence`] — exact spectral criteria (Lemma 8), sufficient norm
//!   criteria (Lemma 9 and Lemma 23) and the Mooij–Kappen bound for
//!   standard BP (Appendix G),
//! * [`coupling`] / [`beliefs`] — coupling matrices (centering, scaling,
//!   validation) and belief matrices (centering, standardization ζ,
//!   top-belief assignment with ties),
//! * [`metrics`] — the tie-aware precision/recall/F1 of Sect. 7.
//!
//! ## Quick start
//!
//! ```
//! use lsbp::prelude::*;
//! use lsbp_graph::generators::fig5c_torus;
//!
//! // The 8-node torus of Example 20, k = 3 classes.
//! let graph = fig5c_torus();
//! let coupling = CouplingMatrix::fig1c().unwrap();
//! let mut explicit = ExplicitBeliefs::new(graph.num_nodes(), 3);
//! explicit.set_residual(0, &[2.0, -1.0, -1.0]).unwrap();
//! explicit.set_residual(1, &[-1.0, 2.0, -1.0]).unwrap();
//! explicit.set_residual(2, &[-1.0, -1.0, 2.0]).unwrap();
//!
//! // Run LinBP with a convergent scaling of the coupling strengths.
//! let eps = 0.1;
//! let adj = graph.adjacency();
//! let h = coupling.scaled_residual(eps);
//! let result = linbp_on(&adj, &explicit, &h, &LinBpOptions::default()).unwrap();
//! assert!(result.converged);
//! let labels = result.beliefs.top_belief_assignment(1e-9);
//! assert_eq!(labels[0], vec![0]); // v1 keeps its own label
//! ```

pub mod batch;
pub mod beliefs;
pub mod bp;
pub mod closed_form;
pub mod convergence;
pub mod coupling;
pub mod edge_delta;
pub mod learning;
pub mod linbp;
pub mod metrics;
pub mod rwr;
pub mod sbp;

/// Spills `adj` to `path` as an on-disk shard store and opens it as a
/// [`lsbp_sparse::PagedCsr`] configured from `cfg`: the buffer-pool byte
/// budget is `cfg.memory_budget()` (unbudgeted when the knob is unset),
/// and the shard count follows from it — enough shards that two fit the
/// pool ([`lsbp_sparse::PagedOptions::spill_shards`]; one when
/// unbudgeted). The returned operator plugs into every `*_on` entry
/// point — `linbp_on(&paged, …)` is the out-of-core LinBP path — and is
/// bitwise identical to solving on the in-memory matrix at any budget.
pub fn spill_paged(
    adj: &lsbp_sparse::CsrMatrix,
    path: impl AsRef<std::path::Path>,
    cfg: &ParallelismConfig,
) -> Result<lsbp_sparse::PagedCsr, lsbp_sparse::ShardFileError> {
    let opts = paged_options(cfg);
    lsbp_sparse::PagedCsr::spill(adj, path, opts.spill_shards(adj), opts)
}

/// Opens an existing shard store (written by [`spill_paged`] or
/// [`lsbp_sparse::ShardFile::write`]) as a paged operator with the
/// buffer-pool budget from `cfg.memory_budget()`. See [`spill_paged`].
pub fn open_paged(
    path: impl AsRef<std::path::Path>,
    cfg: &ParallelismConfig,
) -> Result<lsbp_sparse::PagedCsr, lsbp_sparse::ShardFileError> {
    lsbp_sparse::PagedCsr::open(path, paged_options(cfg))
}

fn paged_options(cfg: &ParallelismConfig) -> lsbp_sparse::PagedOptions {
    lsbp_sparse::PagedOptions::default().with_budget(cfg.memory_budget())
}

/// Convenient re-exports of the main API surface.
pub mod prelude {
    pub use crate::batch::{
        linbp_batch_on, linbp_star_batch_on, linbp_update_batch_on, rwr_batch_on,
    };
    pub use crate::beliefs::{BeliefMatrix, ExplicitBeliefs};
    pub use crate::bp::{bp, BpOptions, BpResult};
    pub use crate::closed_form::{linbp_closed_form_dense, linbp_closed_form_jacobi};
    pub use crate::convergence::{
        eps_max_exact_linbp, eps_max_exact_linbp_star, eps_max_sufficient_linbp,
        eps_max_sufficient_linbp_star, mooij_constant, mooij_guarantees_bp_convergence,
    };
    pub use crate::coupling::{CouplingError, CouplingMatrix};
    pub use crate::edge_delta::linbp_edge_delta_seed;
    pub use crate::learning::{learn_coupling, learn_coupling_from_classes, LearnOptions};
    pub use crate::linbp::{
        linbp_observed, linbp_on, linbp_star_on, linbp_update, LinBpOptions, LinBpResult,
    };
    pub use crate::metrics::{
        accuracy, f1_score, precision_recall, precision_recall_masked, quality, QualityReport,
    };
    pub use crate::rwr::{rwr_on, RwrOptions, RwrResult};
    pub use crate::sbp::{sbp_add_edges, sbp_add_explicit, sbp_observed, sbp_on, SbpResult};
    pub use crate::{open_paged, spill_paged};
    pub use lsbp_linalg::{
        FixedPointOp, FixedPointSolver, IterationEvent, ParallelismConfig, SolveOutcome,
        StepOutcome, StepStatus, ToleranceNorm,
    };
    pub use lsbp_sparse::{
        PagedCsr, PagedOptions, PagerStats, PropagationOperator, ShardFile, ShardFileError,
        ShardSource, ShardedCsr,
    };
}

pub use prelude::*;
