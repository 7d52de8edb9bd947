//! Estimating the coupling matrix from partially labeled data.
//!
//! The paper assumes `H` is "given, e.g., by domain experts" and flags
//! learning it as future work (footnote 1). This module implements the
//! natural estimator: count class co-occurrences over edges whose *both*
//! endpoints are labeled, smooth, and project onto the doubly-stochastic
//! symmetric matrices with Sinkhorn–Knopp iterations.
//!
//! The estimator is consistent for graphs generated edge-wise with
//! probability proportional to `H(c_i, c_j)` (verified by the round-trip
//! tests), and in practice a handful of labeled edges per class pair
//! suffices to recover homophily vs heterophily structure.

use crate::coupling::{CouplingError, CouplingMatrix};
use lsbp_linalg::Mat;
use lsbp_sparse::CsrMatrix;

/// Options for [`learn_coupling`].
#[derive(Clone, Copy, Debug)]
pub struct LearnOptions {
    /// Additive (Laplace) smoothing per class pair; guards against empty
    /// cells when labels are scarce. Interpreted in units of edge counts.
    pub smoothing: f64,
    /// Sinkhorn–Knopp iterations for the doubly-stochastic projection.
    pub sinkhorn_iters: usize,
}

impl Default for LearnOptions {
    fn default() -> Self {
        Self {
            smoothing: 1.0,
            sinkhorn_iters: 500,
        }
    }
}

/// Errors from [`learn_coupling`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LearnError {
    /// Fewer than two classes requested.
    TooFewClasses,
    /// A label index is ≥ `k`.
    LabelOutOfRange,
    /// No edge has both endpoints labeled (nothing to learn from) and
    /// smoothing is 0.
    NoLabeledEdges,
    /// The Sinkhorn projection failed to produce a valid coupling matrix
    /// (should not happen with positive smoothing).
    Projection(CouplingError),
}

impl std::fmt::Display for LearnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LearnError::TooFewClasses => write!(f, "need at least two classes"),
            LearnError::LabelOutOfRange => write!(f, "label index out of range"),
            LearnError::NoLabeledEdges => write!(f, "no edges with both endpoints labeled"),
            LearnError::Projection(e) => write!(f, "projection failed: {e}"),
        }
    }
}

impl std::error::Error for LearnError {}

/// Learns a coupling matrix from a graph and partial labels
/// (`labels[v] = Some(class)` for labeled nodes).
///
/// Weighted edges contribute their weight to the co-occurrence count (a
/// heavier edge is stronger evidence of the class coupling).
pub fn learn_coupling(
    adj: &CsrMatrix,
    labels: &[Option<usize>],
    k: usize,
    opts: &LearnOptions,
) -> Result<CouplingMatrix, LearnError> {
    if k < 2 {
        return Err(LearnError::TooFewClasses);
    }
    let mut counts = Mat::from_fn(k, k, |_, _| opts.smoothing);
    let mut total_evidence = 0.0;
    for s in 0..adj.n_rows().min(labels.len()) {
        let Some(cs) = labels[s] else { continue };
        if cs >= k {
            return Err(LearnError::LabelOutOfRange);
        }
        for (t, w) in adj.row_iter(s) {
            // Each undirected edge is visited twice (s→t and t→s), filling
            // the matrix symmetrically by construction.
            let Some(ct) = labels.get(t).copied().flatten() else {
                continue;
            };
            if ct >= k {
                return Err(LearnError::LabelOutOfRange);
            }
            counts[(cs, ct)] += w;
            total_evidence += w;
        }
    }
    if total_evidence == 0.0 && opts.smoothing == 0.0 {
        return Err(LearnError::NoLabeledEdges);
    }
    // Symmetrize (exact for undirected adjacency, but cheap insurance) and
    // project to doubly stochastic with Sinkhorn–Knopp. Alternating row/
    // column normalization preserves symmetry for symmetric input.
    let mut m = Mat::from_fn(k, k, |r, c| 0.5 * (counts[(r, c)] + counts[(c, r)]));
    for _ in 0..opts.sinkhorn_iters {
        for r in 0..k {
            let sum: f64 = m.row(r).iter().sum();
            if sum > 0.0 {
                m.row_mut(r).iter_mut().for_each(|x| *x /= sum);
            }
        }
        for c in 0..k {
            let sum: f64 = (0..k).map(|r| m[(r, c)]).sum();
            if sum > 0.0 {
                for r in 0..k {
                    m[(r, c)] /= sum;
                }
            }
        }
    }
    let sym = Mat::from_fn(k, k, |r, c| 0.5 * (m[(r, c)] + m[(c, r)]));
    CouplingMatrix::new(sym).map_err(LearnError::Projection)
}

/// Convenience: learn from a fully labeled ground truth, hiding a fraction
/// of labels first (evaluation helper for the examples/benches).
pub fn learn_coupling_from_classes(
    adj: &CsrMatrix,
    classes: &[usize],
    k: usize,
    opts: &LearnOptions,
) -> Result<CouplingMatrix, LearnError> {
    let labels: Vec<Option<usize>> = classes.iter().map(|&c| Some(c)).collect();
    learn_coupling(adj, &labels, k, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsbp_graph::Graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Samples a graph whose edges are drawn with probability proportional
    /// to H(c_s, c_t).
    fn planted_graph(h: &CouplingMatrix, n: usize, avg_deg: f64, seed: u64) -> (Graph, Vec<usize>) {
        let k = h.k();
        let mut rng = StdRng::seed_from_u64(seed);
        let classes: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k)).collect();
        let mut g = Graph::new(n);
        let trials = (n as f64 * avg_deg) as usize;
        let h_max = (0..k)
            .flat_map(|i| (0..k).map(move |j| (i, j)))
            .map(|(i, j)| h.raw()[(i, j)])
            .fold(0.0f64, f64::max);
        let mut placed = std::collections::HashSet::new();
        while g.num_edges() < trials {
            let s = rng.gen_range(0..n);
            let t = rng.gen_range(0..n);
            if s == t || placed.contains(&(s.min(t), s.max(t))) {
                continue;
            }
            let p = h.raw()[(classes[s], classes[t])] / h_max;
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                placed.insert((s.min(t), s.max(t)));
                g.add_edge_unweighted(s, t);
            }
        }
        (g, classes)
    }

    #[test]
    fn recovers_homophily() {
        let truth = CouplingMatrix::fig1a().unwrap();
        let (g, classes) = planted_graph(&truth, 600, 8.0, 1);
        let learned =
            learn_coupling_from_classes(&g.adjacency(), &classes, 2, &LearnOptions::default())
                .unwrap();
        // Diagonal dominance recovered with the right magnitude.
        assert!(learned.raw()[(0, 0)] > 0.7, "{:?}", learned.raw());
        assert!((learned.raw()[(0, 0)] - 0.8).abs() < 0.05);
    }

    #[test]
    fn recovers_heterophily() {
        let truth = CouplingMatrix::fig1b().unwrap();
        let (g, classes) = planted_graph(&truth, 600, 8.0, 2);
        let learned =
            learn_coupling_from_classes(&g.adjacency(), &classes, 2, &LearnOptions::default())
                .unwrap();
        assert!(learned.raw()[(0, 1)] > 0.6, "{:?}", learned.raw());
        assert!((learned.raw()[(0, 1)] - 0.7).abs() < 0.05);
    }

    /// The general Fig. 1c structure (mixed homophily/heterophily) is
    /// recovered cell-wise within sampling error.
    #[test]
    fn recovers_general_coupling() {
        let truth = CouplingMatrix::fig1c().unwrap();
        let (g, classes) = planted_graph(&truth, 1500, 10.0, 3);
        let learned =
            learn_coupling_from_classes(&g.adjacency(), &classes, 3, &LearnOptions::default())
                .unwrap();
        for r in 0..3 {
            for c in 0..3 {
                assert!(
                    (learned.raw()[(r, c)] - truth.raw()[(r, c)]).abs() < 0.06,
                    "cell ({r},{c}): learned {} vs truth {}",
                    learned.raw()[(r, c)],
                    truth.raw()[(r, c)]
                );
            }
        }
    }

    /// Partial labels: learning only sees labeled-labeled edges.
    #[test]
    fn partial_labels() {
        let truth = CouplingMatrix::fig1a().unwrap();
        let (g, classes) = planted_graph(&truth, 1000, 10.0, 4);
        let mut rng = StdRng::seed_from_u64(9);
        let labels: Vec<Option<usize>> = classes
            .iter()
            .map(|&c| if rng.gen_bool(0.4) { Some(c) } else { None })
            .collect();
        let learned = learn_coupling(&g.adjacency(), &labels, 2, &LearnOptions::default()).unwrap();
        assert!(learned.raw()[(0, 0)] > 0.7);
    }

    #[test]
    fn error_cases() {
        let g = Graph::new(3);
        let adj = g.adjacency();
        assert_eq!(
            learn_coupling(&adj, &[None, None, None], 1, &LearnOptions::default()),
            Err(LearnError::TooFewClasses)
        );
        assert_eq!(
            learn_coupling(
                &adj,
                &[None, None, None],
                2,
                &LearnOptions {
                    smoothing: 0.0,
                    ..Default::default()
                }
            ),
            Err(LearnError::NoLabeledEdges)
        );
        // Out-of-range labels are rejected even on edgeless nodes.
        assert_eq!(
            learn_coupling(&adj, &[Some(5), None, None], 2, &LearnOptions::default()),
            Err(LearnError::LabelOutOfRange)
        );
        let mut g2 = Graph::new(2);
        g2.add_edge_unweighted(0, 1);
        assert_eq!(
            learn_coupling(
                &g2.adjacency(),
                &[Some(5), Some(0)],
                2,
                &LearnOptions::default()
            ),
            Err(LearnError::LabelOutOfRange)
        );
        // With no labeled edges but positive smoothing, the result is the
        // uniform coupling (maximum entropy).
        let uniform =
            learn_coupling(&adj, &[None, None, None], 3, &LearnOptions::default()).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                assert!((uniform.raw()[(r, c)] - 1.0 / 3.0).abs() < 1e-9);
            }
        }
    }

    /// The learned matrix is always a valid coupling matrix (validated by
    /// construction) and usable end-to-end in LinBP.
    #[test]
    fn learned_matrix_runs_linbp() {
        let truth = CouplingMatrix::fig1b().unwrap();
        let (g, classes) = planted_graph(&truth, 300, 6.0, 7);
        let adj = g.adjacency();
        let learned =
            learn_coupling_from_classes(&adj, &classes, 2, &LearnOptions::default()).unwrap();
        let mut e = crate::beliefs::ExplicitBeliefs::new(300, 2);
        for v in (0..300).step_by(10) {
            e.set_label(v, classes[v], 1.0).unwrap();
        }
        let eps = 0.5 * crate::convergence::eps_max_exact_linbp_star(&learned.residual(), &adj);
        let r = crate::linbp::linbp_star_on(
            &adj,
            &e,
            &learned.scaled_residual(eps),
            &crate::linbp::LinBpOptions::default(),
        )
        .unwrap();
        assert!(r.converged);
        // Majority of unlabeled nodes classified correctly.
        let mut correct = 0;
        let mut total = 0;
        for (v, &class) in classes.iter().enumerate() {
            if e.is_explicit(v) {
                continue;
            }
            let tops = r.beliefs.top_beliefs(v, 1e-9);
            if tops.len() == 1 {
                total += 1;
                if tops[0] == class {
                    correct += 1;
                }
            }
        }
        assert!(correct * 3 > total * 2, "accuracy {correct}/{total}");
    }
}
