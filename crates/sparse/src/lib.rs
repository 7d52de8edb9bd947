#![warn(missing_docs)]

//! Sparse matrix kernels for the LSBP workspace.
//!
//! The paper's performance claims rest on one observation: a LinBP iteration
//! is a sparse-matrix × dense-matrix product (`A · B̂`, `O(nnz·k)`) instead of
//! per-edge message vectors. This crate provides exactly those kernels:
//!
//! * [`CooMatrix`] — a triplet builder for assembling adjacency matrices,
//! * [`CsrMatrix`] — compressed sparse row storage (compact `u32` column
//!   indices, 4-lane inner kernels) with SpMV and SpMM (CSR × dense)
//!   products,
//! * the fused LinBP step ([`FusedLinBpStep`]) — one row-partitioned,
//!   cache-resident pass per iteration instead of SpMM + echo + norm
//!   sweeps,
//! * [`PropagationOperator`] — the unified linear-operator surface every
//!   propagation solver runs on (SpMV / SpMM / fused step / transpose /
//!   row statistics / neighbor access), with [`CsrMatrix`] as the
//!   monolithic reference implementation and [`ShardedCsr`] as the
//!   nnz-balanced row-range sharded backend (bitwise identical at any
//!   shard × thread combination); sharded backends implement
//!   [`ShardSource`] and share one generic shard walk,
//! * [`EdgeMatrixOp`] — the matrix-free "edge matrix" `A_edge` of
//!   Appendix G (2|E| × 2|E|), used to evaluate the Mooij–Kappen
//!   convergence bound for standard BP without materializing it,
//! * the out-of-core engine — [`ShardFile`] (the versioned, checksummed
//!   on-disk shard store) and [`PagedCsr`] (the sharded execution model
//!   behind a budgeted [`paged::BufferPool`] with walk-distance
//!   eviction, pins and background prefetch), bitwise identical to the
//!   resident backends at any budget × shard × thread combination.

mod cache;
pub mod coo;
pub mod csr;
pub mod edge_op;
pub mod frontier;
pub mod fused;
pub mod operator;
pub mod paged;
pub mod shard_file;
pub mod sharded;

pub use coo::CooMatrix;
pub use csr::{CsrError, CsrMatrix, MAX_DIM};
pub use edge_op::EdgeMatrixOp;
pub use frontier::{FrontierPlan, FrontierState, NodeBitset};
pub use fused::{FusedLinBpStep, QuerySweep};
pub use operator::{PropagationOperator, RowIter};
pub use paged::{PagedCsr, PagedOptions, PagerStats};
pub use shard_file::{ShardFile, ShardFileError};
pub use sharded::{ShardSource, ShardedCsr};
