//! The per-graph invariants every solve reads, built once per operator.
//!
//! A LinBP solve needs the frontier plan and the squared-weight degrees;
//! an RWR solve needs the row sums. Each is an `O(nnz)` walk over a graph
//! that does not change between solves (and, on a paged store, a walk
//! that pages in every shard). [`OperatorCache`] builds each one on first
//! use and hands out borrows afterwards, so only the first solve on an
//! operator pays for them.

use crate::frontier::FrontierPlan;
use std::sync::OnceLock;

/// Lazily filled derived invariants of one operator. Every constructor of
/// an operator starts with an empty cache, and the cache is not part of
/// the operator's value: a clone starts empty again and equality ignores
/// it. Bits are unaffected — a cached vector is exactly the one a fresh
/// walk would build.
#[derive(Default)]
pub struct OperatorCache {
    plan: OnceLock<FrontierPlan>,
    degrees: OnceLock<Vec<f64>>,
    row_sums: OnceLock<Vec<f64>>,
}

impl OperatorCache {
    /// The frontier plan, built by `build` on first use.
    pub(crate) fn frontier_plan(&self, build: impl FnOnce() -> FrontierPlan) -> &FrontierPlan {
        self.plan.get_or_init(build)
    }

    /// The squared-weight degrees, built by `build` on first use.
    pub(crate) fn squared_weight_degrees(&self, build: impl FnOnce() -> Vec<f64>) -> &[f64] {
        self.degrees.get_or_init(build)
    }

    /// The row sums, built by `build` on first use.
    pub(crate) fn row_sums(&self, build: impl FnOnce() -> Vec<f64>) -> &[f64] {
        self.row_sums.get_or_init(build)
    }
}

impl Clone for OperatorCache {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for OperatorCache {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for OperatorCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OperatorCache").finish_non_exhaustive()
    }
}
