//! Belief matrices: explicit (prior) and final (posterior) beliefs.
//!
//! Everything is stored in *residual* (centered) form (Definition 3): a
//! belief row sums to 0, with positive entries marking attraction to a
//! class. A node is "explicit" iff its residual row is non-zero (footnote
//! 10 of the paper). `b = 1/k + b̂` recovers the probability-space vector
//! when needed (only standard BP works in probability space).

use lsbp_linalg::{population_std, standardize, Mat};

/// Errors when constructing explicit beliefs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BeliefError {
    /// Node id ≥ n.
    NodeOutOfRange,
    /// The supplied vector has the wrong number of classes.
    WrongArity,
    /// A residual belief vector must sum to zero.
    NotCentered,
}

impl std::fmt::Display for BeliefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BeliefError::NodeOutOfRange => write!(f, "node id out of range"),
            BeliefError::WrongArity => write!(f, "belief vector has wrong number of classes"),
            BeliefError::NotCentered => write!(f, "residual belief vector must sum to zero"),
        }
    }
}

impl std::error::Error for BeliefError {}

/// A centered one-hot label vector: `scale·(k−1)` for the labeled class and
/// `−scale` elsewhere (sums to 0). With `k = 3, scale = 1` this is the
/// `[2, −1, −1]` convention of Example 20.
pub fn centered_one_hot(k: usize, class: usize, scale: f64) -> Vec<f64> {
    assert!(class < k, "class out of range");
    (0..k)
        .map(|i| {
            if i == class {
                scale * (k as f64 - 1.0)
            } else {
                -scale
            }
        })
        .collect()
}

/// The explicit (prior) beliefs `Ê`: an `n × k` residual matrix, zero for
/// unlabeled nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct ExplicitBeliefs {
    mat: Mat,
    explicit: Vec<bool>,
}

impl ExplicitBeliefs {
    /// All-unlabeled beliefs for `n` nodes and `k` classes.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 2, "need at least two classes");
        Self {
            mat: Mat::zeros(n, k),
            explicit: vec![false; n],
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.mat.rows()
    }

    /// Number of classes.
    pub fn k(&self) -> usize {
        self.mat.cols()
    }

    /// Sets node `v`'s residual belief vector (must sum to 0).
    pub fn set_residual(&mut self, v: usize, residual: &[f64]) -> Result<(), BeliefError> {
        if v >= self.n() {
            return Err(BeliefError::NodeOutOfRange);
        }
        if residual.len() != self.k() {
            return Err(BeliefError::WrongArity);
        }
        let sum: f64 = residual.iter().sum();
        let scale = residual.iter().fold(1.0f64, |m, x| m.max(x.abs()));
        if sum.abs() > 1e-9 * scale {
            return Err(BeliefError::NotCentered);
        }
        self.mat.row_mut(v).copy_from_slice(residual);
        self.explicit[v] = residual.iter().any(|&x| x != 0.0);
        Ok(())
    }

    /// Labels node `v` with `class` using a centered one-hot vector of the
    /// given scale (see [`centered_one_hot`]).
    pub fn set_label(&mut self, v: usize, class: usize, scale: f64) -> Result<(), BeliefError> {
        if class >= self.k() {
            return Err(BeliefError::WrongArity);
        }
        let one_hot = centered_one_hot(self.k(), class, scale);
        self.set_residual(v, &one_hot)
    }

    /// Clears node `v` back to unlabeled.
    pub fn clear(&mut self, v: usize) -> Result<(), BeliefError> {
        if v >= self.n() {
            return Err(BeliefError::NodeOutOfRange);
        }
        self.mat.row_mut(v).fill(0.0);
        self.explicit[v] = false;
        Ok(())
    }

    /// `true` iff node `v` has explicit beliefs (non-zero residual row).
    pub fn is_explicit(&self, v: usize) -> bool {
        self.explicit[v]
    }

    /// The ids of all explicitly labeled nodes, ascending.
    pub fn explicit_nodes(&self) -> Vec<usize> {
        (0..self.n()).filter(|&v| self.explicit[v]).collect()
    }

    /// Number of explicitly labeled nodes.
    pub fn num_explicit(&self) -> usize {
        self.explicit.iter().filter(|&&e| e).count()
    }

    /// The underlying residual matrix `Ê`.
    pub fn residual_matrix(&self) -> &Mat {
        &self.mat
    }

    /// Residual belief row of node `v`.
    pub fn row(&self, v: usize) -> &[f64] {
        self.mat.row(v)
    }

    /// Returns a copy with all residuals scaled by `s` (Lemma 12: scaling
    /// `Ê` scales `B̂` and leaves standardized/top beliefs unchanged).
    pub fn scaled(&self, s: f64) -> Self {
        Self {
            mat: self.mat.scale(s),
            explicit: self.explicit.clone(),
        }
    }
}

/// Final (posterior) residual beliefs `B̂`, with the paper's read-out
/// operations: standardization ζ (Definition 11) and top-belief assignment
/// with ties (Problem 1).
#[derive(Clone, Debug, PartialEq)]
pub struct BeliefMatrix {
    mat: Mat,
}

impl BeliefMatrix {
    /// Wraps an `n × k` residual belief matrix.
    pub fn from_mat(mat: Mat) -> Self {
        Self { mat }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.mat.rows()
    }

    /// Number of classes.
    pub fn k(&self) -> usize {
        self.mat.cols()
    }

    /// The residual belief matrix.
    pub fn residual(&self) -> &Mat {
        &self.mat
    }

    /// Consumes self, returning the matrix.
    pub fn into_mat(self) -> Mat {
        self.mat
    }

    /// Residual belief row of node `v`.
    pub fn row(&self, v: usize) -> &[f64] {
        self.mat.row(v)
    }

    /// The standardized belief assignment `b̂' = ζ(b̂)` of node `v`.
    pub fn standardized(&self, v: usize) -> Vec<f64> {
        standardize(self.mat.row(v))
    }

    /// Standard deviation σ(b̂_v) — Fig. 4d tracks this as εH → 0.
    pub fn std_dev(&self, v: usize) -> f64 {
        population_std(self.mat.row(v))
    }

    /// The set of top classes of node `v`, with ties resolved by a relative
    /// tolerance: class `i` is a top belief iff
    /// `b_max − b_i ≤ rel_tol · max(|b_max|, tiny)`. An exactly zero row
    /// ties *all* classes — the read-out both for nodes unreachable from
    /// any labeled node and for exact SBP cancellations (a node adjacent to
    /// seeds of all `k` classes, where the centered coupling rows sum to
    /// 0): SBP's accumulation snaps within-rounding-error entries to exact
    /// zeros so those ties survive floating point (see
    /// [`crate::sbp`](mod@crate::sbp)'s `recompute_belief`).
    pub fn top_beliefs(&self, v: usize, rel_tol: f64) -> Vec<usize> {
        top_of_row(self.mat.row(v), rel_tol)
    }

    /// [`BeliefMatrix::top_beliefs`] for every node.
    pub fn top_belief_assignment(&self, rel_tol: f64) -> Vec<Vec<usize>> {
        (0..self.n())
            .map(|v| self.top_beliefs(v, rel_tol))
            .collect()
    }
}

/// Top-class set of a single residual belief row (see
/// [`BeliefMatrix::top_beliefs`]). A numerically zero row (below the
/// denormal floor) ties all classes.
pub fn top_of_row(row: &[f64], rel_tol: f64) -> Vec<usize> {
    let max_abs = row.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    if max_abs < 1e-300 {
        return (0..row.len()).collect();
    }
    let max = row.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
    let thr = rel_tol * max_abs;
    row.iter()
        .enumerate()
        .filter(|&(_, &x)| max - x <= thr)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centered_one_hot_examples() {
        assert_eq!(centered_one_hot(3, 0, 1.0), vec![2.0, -1.0, -1.0]);
        assert_eq!(centered_one_hot(3, 2, 1.0), vec![-1.0, -1.0, 2.0]);
        assert_eq!(centered_one_hot(2, 1, 0.5), vec![-0.5, 0.5]);
        assert!(centered_one_hot(5, 3, 2.0).iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn explicit_bookkeeping() {
        let mut e = ExplicitBeliefs::new(4, 3);
        assert_eq!(e.num_explicit(), 0);
        e.set_label(2, 1, 1.0).unwrap();
        assert!(e.is_explicit(2));
        assert!(!e.is_explicit(0));
        assert_eq!(e.explicit_nodes(), vec![2]);
        assert_eq!(e.row(2), &[-1.0, 2.0, -1.0]);
        e.clear(2).unwrap();
        assert_eq!(e.num_explicit(), 0);
    }

    #[test]
    fn set_residual_validation() {
        let mut e = ExplicitBeliefs::new(2, 3);
        assert_eq!(
            e.set_residual(5, &[0.0; 3]),
            Err(BeliefError::NodeOutOfRange)
        );
        assert_eq!(e.set_residual(0, &[0.0; 2]), Err(BeliefError::WrongArity));
        assert_eq!(
            e.set_residual(0, &[1.0, 1.0, 1.0]),
            Err(BeliefError::NotCentered)
        );
        assert!(e.set_residual(0, &[0.1, -0.05, -0.05]).is_ok());
    }

    #[test]
    fn zero_residual_is_not_explicit() {
        let mut e = ExplicitBeliefs::new(2, 2);
        e.set_residual(1, &[0.0, 0.0]).unwrap();
        assert!(!e.is_explicit(1));
    }

    #[test]
    fn scaled_preserves_explicit_set() {
        let mut e = ExplicitBeliefs::new(3, 2);
        e.set_label(1, 0, 1.0).unwrap();
        let s = e.scaled(10.0);
        assert_eq!(s.explicit_nodes(), vec![1]);
        assert_eq!(s.row(1), &[10.0, -10.0]);
    }

    #[test]
    fn top_beliefs_unique_and_tied() {
        let b = BeliefMatrix::from_mat(Mat::from_rows(&[
            &[0.5, -0.2, -0.3],
            &[0.1, 0.1, -0.2],
            &[0.0, 0.0, 0.0],
        ]));
        assert_eq!(b.top_beliefs(0, 1e-9), vec![0]);
        assert_eq!(b.top_beliefs(1, 1e-9), vec![0, 1]);
        assert_eq!(b.top_beliefs(2, 1e-9), vec![0, 1, 2]); // zero row: all tied
    }

    /// The paper's observed near-tie: SBP `[1, 1, −2]·10⁻²` ties classes
    /// 0 and 1 while LinBP's `[1.0000000014, 1.0000000002, −2]·10⁻²`
    /// resolves to class 0 at tight tolerance — this is the documented
    /// source of SBP's precision dips in Fig. 7g.
    #[test]
    fn near_tie_behaviour() {
        let sbp_row = [1e-2, 1e-2, -2e-2];
        let linbp_row = [1.0000000014e-2, 1.0000000002e-2, -2.0000000016e-2];
        assert_eq!(top_of_row(&sbp_row, 1e-9), vec![0, 1]);
        assert_eq!(top_of_row(&linbp_row, 1e-12), vec![0]);
        // At a looser tolerance LinBP also reports the tie.
        assert_eq!(top_of_row(&linbp_row, 1e-6), vec![0, 1]);
    }

    #[test]
    fn standardization_and_std_dev() {
        let b = BeliefMatrix::from_mat(Mat::from_rows(&[&[4.0, -1.0, -1.0, -1.0, -1.0]]));
        assert_eq!(b.standardized(0), vec![2.0, -0.5, -0.5, -0.5, -0.5]);
        assert!((b.std_dev(0) - 2.0).abs() < 1e-12);
    }
}
