//! Random walk with restart (RWR / personalized PageRank) — the main
//! guilt-by-association *alternative* the paper's related-work section
//! lists next to BP and SSL (Sect. 8, references [4, 17, 44]).
//!
//! Included as a comparison baseline: per class `c`, a walker restarts
//! into the nodes explicitly labeled `c` and diffuses over the
//! column-normalized adjacency; a node's score vector across classes plays
//! the role of beliefs. RWR handles homophily only — it has no coupling
//! matrix, which is precisely the modeling gap LinBP fills (heterophily
//! and general couplings). The tests document that gap: RWR matches LinBP
//! under homophily and *fails* under heterophily.
//!
//! Entry point: [`rwr_on`], over any [`PropagationOperator`]. The walks
//! run in the batched driver ([`crate::batch::rwr_batch_on`]): a single
//! query is a one-query batch whose `k` per-class walks diffuse together.

use crate::batch::rwr_batch_on;
use crate::beliefs::{BeliefMatrix, ExplicitBeliefs};
use lsbp_linalg::{Mat, ParallelismConfig, ToleranceNorm};
use lsbp_sparse::PropagationOperator;

/// Options for [`rwr_on`].
#[derive(Clone, Copy, Debug)]
pub struct RwrOptions {
    /// Restart probability `α ∈ (0, 1]` (typical: 0.15).
    pub restart: f64,
    /// Maximum power iterations.
    pub max_iter: usize,
    /// Convergence threshold on the score change (measured in `norm`).
    pub tol: f64,
    /// Norm the convergence threshold is measured in (default: largest
    /// absolute score change).
    pub norm: ToleranceNorm,
    /// Serial vs. pooled execution of the diffusion kernel. Results are
    /// bitwise identical for every thread count; the default follows
    /// `LSBP_THREADS`.
    pub parallelism: ParallelismConfig,
}

impl Default for RwrOptions {
    fn default() -> Self {
        Self {
            restart: 0.15,
            max_iter: 200,
            tol: 1e-12,
            norm: ToleranceNorm::MaxAbs,
            parallelism: ParallelismConfig::default(),
        }
    }
}

/// Result of an RWR run.
#[derive(Clone, Debug)]
pub struct RwrResult {
    /// Per-node, per-class steady-state visiting scores, re-centered to
    /// residual form (rows sum to 0) so the standard read-outs
    /// (standardization, top-belief sets, metrics) apply unchanged.
    pub beliefs: BeliefMatrix,
    /// Whether every class's walk met `tol`.
    pub converged: bool,
    /// Iterations of the slowest class.
    pub iterations: usize,
}

/// Errors from [`rwr_on`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RwrError {
    /// Adjacency/beliefs node count mismatch.
    DimensionMismatch,
    /// Restart probability outside `(0, 1]`.
    BadRestart,
    /// Some class has no labeled node (its restart distribution would be
    /// undefined).
    EmptyClass(usize),
}

impl std::fmt::Display for RwrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RwrError::DimensionMismatch => write!(f, "adjacency/beliefs node count mismatch"),
            RwrError::BadRestart => write!(f, "restart probability must be in (0, 1]"),
            RwrError::EmptyClass(c) => write!(f, "class {c} has no labeled node"),
        }
    }
}

impl std::error::Error for RwrError {}

/// Restart distributions for one seed-set: per class, positive residual
/// mass of labeled nodes, normalized to 1 ([`RwrError::EmptyClass`] when a
/// class has none).
pub(crate) fn restart_distribution(explicit: &ExplicitBeliefs) -> Result<Mat, RwrError> {
    let n = explicit.n();
    let k = explicit.k();
    let mut restart_dist = Mat::zeros(n, k);
    let mut class_mass = vec![0.0f64; k];
    for v in explicit.explicit_nodes() {
        for (c, &x) in explicit.row(v).iter().enumerate() {
            if x > 0.0 {
                restart_dist[(v, c)] = x;
                class_mass[c] += x;
            }
        }
    }
    for (c, &mass) in class_mass.iter().enumerate() {
        if mass == 0.0 {
            return Err(RwrError::EmptyClass(c));
        }
        for v in 0..n {
            restart_dist[(v, c)] /= mass;
        }
    }
    Ok(restart_dist)
}

/// Runs one RWR per class, restarting into that class's labeled nodes,
/// against any [`PropagationOperator`].
///
/// Labels are read from `explicit` as the per-node argmax of the residual
/// row (the usual one-hot labeling); mixed/soft labels contribute to every
/// class with positive residual mass.
pub fn rwr_on<A: PropagationOperator + ?Sized>(
    adj: &A,
    explicit: &ExplicitBeliefs,
    opts: &RwrOptions,
) -> Result<RwrResult, RwrError> {
    let mut runs = rwr_batch_on(adj, std::slice::from_ref(explicit), opts)?;
    Ok(runs.pop().expect("one result per query"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coupling::CouplingMatrix;
    use crate::linbp::{linbp_on, LinBpOptions};
    use lsbp_graph::generators::path;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn two_seeds(n: usize) -> ExplicitBeliefs {
        let mut e = ExplicitBeliefs::new(n, 2);
        e.set_label(0, 0, 1.0).unwrap();
        e.set_label(n - 1, 1, 1.0).unwrap();
        e
    }

    #[test]
    fn path_proximity() {
        let adj = path(7).adjacency();
        let e = two_seeds(7);
        let r = rwr_on(&adj, &e, &RwrOptions::default()).unwrap();
        assert!(r.converged);
        // Nodes nearer seed 0 lean class 0 and vice versa.
        assert_eq!(r.beliefs.top_beliefs(1, 1e-9), vec![0]);
        assert_eq!(r.beliefs.top_beliefs(5, 1e-9), vec![1]);
        // Rows are centered.
        for v in 0..7 {
            assert!(r.beliefs.row(v).iter().sum::<f64>().abs() < 1e-9);
        }
    }

    /// Under homophily, RWR and LinBP agree on most labels — the related-
    /// work claim that both are reasonable guilt-by-association methods.
    /// Uses a planted two-community graph (dense blocks, sparse cross
    /// edges) so there is real structure for both methods to find.
    #[test]
    fn matches_linbp_under_homophily() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut g = lsbp_graph::Graph::new(120);
        let mut seen = std::collections::HashSet::new();
        let mut add = |g: &mut lsbp_graph::Graph, s: usize, t: usize| {
            if s != t && seen.insert((s.min(t), s.max(t))) {
                g.add_edge_unweighted(s, t);
            }
        };
        for _ in 0..300 {
            let (s, t) = (rng.gen_range(0..60), rng.gen_range(0..60));
            add(&mut g, s, t);
            let (s2, t2) = (
                60 + rng.gen_range(0..60usize),
                60 + rng.gen_range(0..60usize),
            );
            add(&mut g, s2, t2);
        }
        for _ in 0..15 {
            add(&mut g, rng.gen_range(0..60), 60 + rng.gen_range(0..60usize));
        }
        let adj = g.adjacency();
        let mut e = ExplicitBeliefs::new(120, 2);
        for _ in 0..12 {
            let v = rng.gen_range(0..120);
            let _ = e.set_label(v, usize::from(v >= 60), 1.0);
        }
        let coupling = CouplingMatrix::fig1a().unwrap();
        let eps = 0.5 * crate::convergence::eps_max_exact_linbp(&coupling.residual(), &adj, 1e-4);
        let lin = linbp_on(
            &adj,
            &e,
            &coupling.scaled_residual(eps),
            &LinBpOptions::default(),
        )
        .unwrap();
        let walk = rwr_on(&adj, &e, &RwrOptions::default()).unwrap();
        let gt = lin.beliefs.top_belief_assignment(1e-6);
        let ours = walk.beliefs.top_belief_assignment(1e-6);
        let (p, r) = crate::metrics::precision_recall(&gt, &ours);
        let f1 = crate::metrics::f1_score(p, r);
        assert!(f1 > 0.8, "homophily agreement f1 = {f1}");
    }

    /// Under heterophily, RWR gets the *wrong* labels where LinBP gets the
    /// right ones — the modeling gap that motivates the coupling matrix.
    #[test]
    fn fails_under_heterophily() {
        // Path seeded at one end with class 0; true labels alternate.
        let adj = path(6).adjacency();
        let mut e = ExplicitBeliefs::new(6, 2);
        e.set_label(0, 0, 1.0).unwrap();
        e.set_label(5, 1, 1.0).unwrap(); // consistent with alternation
        let h = CouplingMatrix::fig1b().unwrap().scaled_residual(0.2);
        let lin = linbp_on(&adj, &e, &h, &LinBpOptions::default()).unwrap();
        // LinBP alternates correctly.
        assert_eq!(lin.beliefs.top_beliefs(1, 1e-9), vec![1]);
        assert_eq!(lin.beliefs.top_beliefs(2, 1e-9), vec![0]);
        // RWR has no heterophily notion: node 1 stays closest to seed 0 and
        // is labeled 0 — wrong under alternation.
        let walk = rwr_on(&adj, &e, &RwrOptions::default()).unwrap();
        assert_eq!(walk.beliefs.top_beliefs(1, 1e-9), vec![0]);
    }

    #[test]
    fn restart_one_returns_restart_distribution() {
        let adj = path(4).adjacency();
        let e = two_seeds(4);
        let r = rwr_on(
            &adj,
            &e,
            &RwrOptions {
                restart: 1.0,
                ..Default::default()
            },
        )
        .unwrap();
        // With α = 1 the walk never moves: only seeds have mass.
        assert!(r.beliefs.row(0)[0] > 0.0);
        assert!(r.beliefs.row(1).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn error_cases() {
        let adj = path(4).adjacency();
        let e = two_seeds(4);
        assert!(matches!(
            rwr_on(
                &adj,
                &e,
                &RwrOptions {
                    restart: 0.0,
                    ..Default::default()
                }
            ),
            Err(RwrError::BadRestart)
        ));
        let e5 = two_seeds(5);
        assert!(matches!(
            rwr_on(&adj, &e5, &RwrOptions::default()),
            Err(RwrError::DimensionMismatch)
        ));
        let mut lonely = ExplicitBeliefs::new(4, 3);
        lonely.set_label(0, 0, 1.0).unwrap();
        assert!(matches!(
            rwr_on(&adj, &lonely, &RwrOptions::default()),
            Err(RwrError::EmptyClass(1))
        ));
    }

    #[test]
    fn isolated_nodes_stay_zero() {
        let mut g = lsbp_graph::Graph::new(5);
        g.add_edge_unweighted(0, 1);
        g.add_edge_unweighted(1, 2);
        let adj = g.adjacency();
        let mut e = ExplicitBeliefs::new(5, 2);
        e.set_label(0, 0, 1.0).unwrap();
        e.set_label(2, 1, 1.0).unwrap();
        let r = rwr_on(&adj, &e, &RwrOptions::default()).unwrap();
        assert!(r.beliefs.row(3).iter().all(|&x| x == 0.0));
        assert_eq!(r.beliefs.top_beliefs(4, 1e-9), vec![0, 1]); // all-tie
    }
}
