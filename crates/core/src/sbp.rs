//! Single-Pass Belief Propagation (Sect. 6).
//!
//! SBP is the εH → 0⁺ limit of LinBP (Theorem 19): a node's belief is
//! determined only by its *nearest* explicitly-labeled neighbors,
//!
//! ```text
//! b̂_t = Ĥ^g · Σ_{p ∈ P^g_t} w_p · ê_p            (Definition 15)
//! ```
//!
//! where `g` is the geodesic number of `t` and `P^g_t` the shortest paths
//! from labeled nodes. Because the modified adjacency DAG of Lemma 17
//! points strictly from layer `g` to `g+1`, a single pass over BFS layers
//! computes all beliefs, touching every edge at most once.
//!
//! From scratch: [`sbp_on`], or [`sbp_observed`] with a per-layer
//! observer; both take any [`PropagationOperator`].
//!
//! Incremental maintenance (on a resident [`CsrMatrix`]):
//!
//! * [`sbp_add_explicit`] — Algorithm 3: new explicit beliefs re-anchor a
//!   region of the graph; beliefs are recomputed outward layer by layer.
//! * [`sbp_add_edges`] — edge insertion (Algorithm 4 / Appendix C). We
//!   implement the *sorted-seed* variant the paper sketches at the end of
//!   Appendix C but left unimplemented ("we have not implemented this
//!   idea and leave experimenting with it for future work"): a unit-weight
//!   Dijkstra over affected nodes that processes each node at most once
//!   per final geodesic number, avoiding Algorithm 4's quadratic
//!   re-update cascades.
//!
//! Scale note: SBP's standardized/top beliefs are independent of εH
//! (Sect. 6.2), so all functions take the *unscaled* residual coupling.

use crate::beliefs::{BeliefMatrix, ExplicitBeliefs};
use lsbp_graph::{geodesic_numbers, Geodesics, UNREACHABLE};
use lsbp_linalg::{
    weight_balanced_ranges, FixedPointOp, FixedPointSolver, IterationEvent, Mat, ParallelismConfig,
    StepOutcome,
};
use lsbp_sparse::{CsrMatrix, PropagationOperator};
use std::collections::BinaryHeap;

/// Result of an SBP computation: beliefs plus the geodesic structure that
/// produced them (kept so incremental updates can resume).
#[derive(Clone, Debug)]
pub struct SbpResult {
    /// Residual beliefs. Nodes unreachable from every labeled node have
    /// all-zero rows.
    pub beliefs: BeliefMatrix,
    /// Geodesic numbers and BFS layers (Definition 14).
    pub geodesics: Geodesics,
}

/// Errors from the SBP family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SbpError {
    /// Adjacency and explicit-belief node counts differ.
    DimensionMismatch,
    /// Coupling arity differs from the beliefs' `k`.
    CouplingArityMismatch,
}

impl std::fmt::Display for SbpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SbpError::DimensionMismatch => write!(f, "adjacency/beliefs node count mismatch"),
            SbpError::CouplingArityMismatch => write!(f, "coupling arity mismatch"),
        }
    }
}

impl std::error::Error for SbpError {}

/// Relative rounding bound for a cancellation-prone sum: an accumulated
/// value whose magnitude is ≤ `CANCELLATION_EPS · Σ|term|` cannot be
/// distinguished from an exact 0 (Wilkinson's `(m−1)·ε·Σ|xᵢ|` summation
/// bound, with the constant absorbing moderate term counts). Shared with
/// the relational SBP in `lsbp-reldb` so both engines produce identical
/// tie read-outs.
pub const CANCELLATION_EPS: f64 = 1024.0 * f64::EPSILON;

/// Adds `w · (b_src · Ĥ)` into `dst` (row-vector convention, matching
/// `B̂ ← A·B̂·Ĥ`), tracking `Σ|term|` per entry in `abs` for the caller's
/// cancellation bound.
#[inline]
fn accumulate(dst: &mut [f64], abs: &mut [f64], b_src: &[f64], h: &Mat, w: f64) {
    let k = dst.len();
    for (c1, &b) in b_src.iter().enumerate() {
        if b == 0.0 {
            continue;
        }
        let hb = w * b;
        let h_row = h.row(c1);
        for c2 in 0..k {
            let term = hb * h_row[c2];
            dst[c2] += term;
            abs[c2] += term.abs();
        }
    }
}

/// Recomputes node `t`'s belief from all parents one geodesic layer below,
/// using `abs` as scratch (same length as `out`).
///
/// Definition 15 is exact arithmetic: a node adjacent to shortest paths
/// from seeds of all `k` classes can have entries that cancel *exactly*
/// (the centered coupling rows sum to 0), and the top-belief read-out must
/// see those as ties. Floating point leaves ~ε·Σ|term| residue instead, so
/// after accumulating we snap any entry within the rounding bound
/// [`CANCELLATION_EPS`]`·Σ|term|` back to an exact 0. The bound is
/// per-entry (matching the relational engine's per-`(t, c2)` aggregation)
/// and relative to the terms actually summed into that entry, so genuinely
/// small deep-layer beliefs (computed from same-scale terms) are never
/// flattened.
fn recompute_belief<A: PropagationOperator + ?Sized>(
    adj: &A,
    g: &[u32],
    beliefs: &Mat,
    h: &Mat,
    t: usize,
    out: &mut [f64],
    abs: &mut [f64],
) {
    out.fill(0.0);
    abs.fill(0.0);
    let gt = g[t];
    debug_assert!(gt != UNREACHABLE && gt > 0);
    for (s, w) in adj.row_iter(t) {
        if g[s] == gt - 1 {
            accumulate(out, abs, beliefs.row(s), h, w);
        }
    }
    for (x, &a) in out.iter_mut().zip(abs.iter()) {
        if x.abs() <= CANCELLATION_EPS * a {
            *x = 0.0;
        }
    }
}

/// Runs SBP from scratch (the in-memory analogue of Algorithm 2) against
/// any [`PropagationOperator`], parallelized according to `cfg`.
///
/// Within one BFS layer every node's belief depends only on the previous
/// layer (Lemma 17's DAG points strictly from layer `g` to `g+1`), so a
/// layer's nodes recompute independently: the parallel path computes them
/// into disjoint blocks of a per-layer staging buffer and copies the rows
/// back serially. Each node runs exactly the serial `recompute_belief`,
/// so results are bitwise identical for any thread count.
pub fn sbp_on<A: PropagationOperator + ?Sized>(
    adj: &A,
    explicit: &ExplicitBeliefs,
    h_residual: &Mat,
    cfg: &ParallelismConfig,
) -> Result<SbpResult, SbpError> {
    sbp_observed(adj, explicit, h_residual, cfg, |_| {})
}

/// One BFS layer's belief recomputation as a [`FixedPointOp`]: solver
/// iteration `i` processes geodesic layer `i + 1` (the DAG of Lemma 17
/// points strictly from layer `g` to `g + 1`, so a single pass over the
/// layers *is* SBP's whole fixed-point schedule). Always runs the full
/// budget (`tol = 0`); the reported delta is 0 — SBP has no convergence
/// question, only a layer count.
struct SbpLayers<'a, A: PropagationOperator + ?Sized> {
    adj: &'a A,
    h: &'a Mat,
    geodesics: &'a Geodesics,
    beliefs: Mat,
    k: usize,
    row: Vec<f64>,
    abs: Vec<f64>,
    staging: Vec<f64>,
    cfg: &'a ParallelismConfig,
    pool: rayon::ThreadPool,
}

impl<A: PropagationOperator + ?Sized> FixedPointOp for SbpLayers<'_, A> {
    fn step(&mut self, _solver: &FixedPointSolver, iteration: usize) -> StepOutcome {
        let layer = iteration + 1;
        let nodes = &self.geodesics.layers[layer];
        let k = self.k;
        // Weigh each node by its degree + 1: recomputation walks the
        // node's full adjacency row.
        let mut cum = Vec::with_capacity(nodes.len() + 1);
        cum.push(0usize);
        for &t in nodes {
            cum.push(cum.last().unwrap() + self.adj.row_nnz(t as usize) + 1);
        }
        let parts = self.cfg.partitions(*cum.last().unwrap() * k);
        if parts <= 1 {
            for &t in nodes {
                recompute_belief(
                    self.adj,
                    &self.geodesics.g,
                    &self.beliefs,
                    self.h,
                    t as usize,
                    &mut self.row,
                    &mut self.abs,
                );
                self.beliefs.row_mut(t as usize).copy_from_slice(&self.row);
            }
            return StepOutcome::proceed(0.0);
        }
        self.staging.clear();
        self.staging.resize(nodes.len() * k, 0.0);
        let ranges = weight_balanced_ranges(&cum, parts);
        let mut rest: &mut [f64] = &mut self.staging;
        let beliefs_ref = &self.beliefs;
        let g_ref = &self.geodesics.g;
        let (adj, h) = (self.adj, self.h);
        self.pool.scope(|s| {
            for range in ranges {
                let (chunk, tail) = rest.split_at_mut((range.end - range.start) * k);
                rest = tail;
                s.spawn(move || {
                    let mut abs = vec![0.0; k];
                    for (i, &t) in nodes[range].iter().enumerate() {
                        recompute_belief(
                            adj,
                            g_ref,
                            beliefs_ref,
                            h,
                            t as usize,
                            &mut chunk[i * k..(i + 1) * k],
                            &mut abs,
                        );
                    }
                });
            }
        });
        for (i, &t) in nodes.iter().enumerate() {
            self.beliefs
                .row_mut(t as usize)
                .copy_from_slice(&self.staging[i * k..(i + 1) * k]);
        }
        StepOutcome::proceed(0.0)
    }
}

/// [`sbp_on`] with a per-layer observer: `observer` fires after every
/// BFS layer (the paper's "iterations" in Fig. 7d), letting harnesses
/// time layers without owning the sweep.
pub fn sbp_observed<A: PropagationOperator + ?Sized>(
    adj: &A,
    explicit: &ExplicitBeliefs,
    h_residual: &Mat,
    cfg: &ParallelismConfig,
    observer: impl FnMut(&IterationEvent),
) -> Result<SbpResult, SbpError> {
    let n = explicit.n();
    let k = explicit.k();
    if adj.n_rows() != n || adj.n_cols() != n {
        return Err(SbpError::DimensionMismatch);
    }
    if h_residual.rows() != k || h_residual.cols() != k {
        return Err(SbpError::CouplingArityMismatch);
    }
    let sources = explicit.explicit_nodes();
    let geodesics = geodesic_numbers(adj, &sources);
    let mut beliefs = Mat::zeros(n, k);
    for &v in &sources {
        beliefs.row_mut(v).copy_from_slice(explicit.row(v));
    }
    let layers = geodesics.num_layers();
    let mut op = SbpLayers {
        adj,
        h: h_residual,
        geodesics: &geodesics,
        beliefs,
        k,
        row: vec![0.0; k],
        abs: vec![0.0; k],
        staging: Vec::new(),
        cfg,
        pool: cfg.pool(),
    };
    FixedPointSolver::new(layers.saturating_sub(1), 0.0).run_observed(&mut op, observer);
    let beliefs = op.beliefs;
    Ok(SbpResult {
        beliefs: BeliefMatrix::from_mat(beliefs),
        geodesics,
    })
}

/// Rebuilds the `layers` index from a geodesic-number array.
fn rebuild_layers(g: &[u32]) -> Vec<Vec<u32>> {
    let max_layer = g.iter().copied().filter(|&x| x != UNREACHABLE).max();
    let Some(max_layer) = max_layer else {
        return Vec::new();
    };
    let mut layers = vec![Vec::new(); max_layer as usize + 1];
    for (v, &gv) in g.iter().enumerate() {
        if gv != UNREACHABLE {
            layers[gv as usize].push(v as u32);
        }
    }
    layers
}

/// Algorithm 3 — incremental maintenance under **new explicit beliefs**.
///
/// `additions` carries the new/changed explicit beliefs (its explicit rows
/// are applied on top of `prev`). Nodes listed become geodesic-0 anchors;
/// the update propagates outward, recomputing exactly the nodes whose
/// geodesic number or belief can change.
pub fn sbp_add_explicit(
    adj: &CsrMatrix,
    h_residual: &Mat,
    prev: &SbpResult,
    additions: &ExplicitBeliefs,
) -> Result<SbpResult, SbpError> {
    let n = prev.beliefs.n();
    let k = prev.beliefs.k();
    if adj.n_rows() != n || additions.n() != n {
        return Err(SbpError::DimensionMismatch);
    }
    if additions.k() != k || h_residual.rows() != k {
        return Err(SbpError::CouplingArityMismatch);
    }

    let mut g = prev.geodesics.g.clone();
    let mut beliefs = prev.beliefs.residual().clone();

    // Line 1–2 of Algorithm 3: anchor the new explicit nodes.
    let new_nodes = additions.explicit_nodes();
    let mut frontier: Vec<u32> = Vec::with_capacity(new_nodes.len());
    for &v in &new_nodes {
        g[v] = 0;
        beliefs.row_mut(v).copy_from_slice(additions.row(v));
        frontier.push(v as u32);
    }

    // Lines 4–8: sweep outward. At step i, any neighbor of the previous
    // frontier whose geodesic number is ≥ i gets geodesic number i and a
    // recomputed belief (from *all* parents at i−1, updated or not).
    let mut row = vec![0.0; k];
    let mut abs = vec![0.0; k];
    let mut i: u32 = 1;
    let mut next: Vec<u32> = Vec::new();
    let mut in_next = vec![false; n];
    while !frontier.is_empty() {
        next.clear();
        in_next.iter_mut().for_each(|b| *b = false);
        for &s in &frontier {
            for &t in adj.row_cols(s as usize) {
                if g[t as usize] >= i && !in_next[t as usize] {
                    in_next[t as usize] = true;
                    next.push(t);
                }
            }
        }
        for &t in &next {
            g[t as usize] = i;
        }
        for &t in &next {
            recompute_belief(
                adj, &g, &beliefs, h_residual, t as usize, &mut row, &mut abs,
            );
            beliefs.row_mut(t as usize).copy_from_slice(&row);
        }
        std::mem::swap(&mut frontier, &mut next);
        i += 1;
    }

    let layers = rebuild_layers(&g);
    Ok(SbpResult {
        beliefs: BeliefMatrix::from_mat(beliefs),
        geodesics: Geodesics { g, layers },
    })
}

/// Incremental maintenance under **new edges** (Algorithm 4, implemented
/// as the sorted-seed variant of Appendix C — see the module docs).
///
/// `adj_new` must be the adjacency matrix *including* the new edges;
/// `new_edges` lists them as undirected `(s, t, w)` triples.
pub fn sbp_add_edges(
    adj_new: &CsrMatrix,
    new_edges: &[(usize, usize, f64)],
    h_residual: &Mat,
    prev: &SbpResult,
) -> Result<SbpResult, SbpError> {
    let n = prev.beliefs.n();
    let k = prev.beliefs.k();
    if adj_new.n_rows() != n {
        return Err(SbpError::DimensionMismatch);
    }
    if h_residual.rows() != k {
        return Err(SbpError::CouplingArityMismatch);
    }

    let mut g = prev.geodesics.g.clone();
    let mut beliefs = prev.beliefs.residual().clone();

    // Min-heap of (tentative geodesic, node). `Reverse` turns the std
    // max-heap into a min-heap.
    use std::cmp::Reverse;
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();

    // Seed: every endpoint that gains a geodesic path through a new edge.
    // Case gs+1 < gt: the geodesic number itself drops; case gs+1 == gt:
    // the belief gains a path (same geodesic number).
    for &(s, t, _w) in new_edges {
        for (a, b) in [(s, t), (t, s)] {
            if g[a] == UNREACHABLE {
                continue;
            }
            let cand = g[a] + 1;
            if g[b] == UNREACHABLE || cand < g[b] {
                g[b] = cand;
                heap.push(Reverse((cand, b as u32)));
            } else if cand == g[b] {
                heap.push(Reverse((cand, b as u32)));
            }
        }
    }

    // Dijkstra-style sweep: each pop with a current key is processed once;
    // belief recomputation sees only final parents (smaller keys pop
    // first).
    let mut processed = vec![u32::MAX; n];
    let mut row = vec![0.0; k];
    let mut abs = vec![0.0; k];
    while let Some(Reverse((gv, t))) = heap.pop() {
        let t = t as usize;
        if gv != g[t] || processed[t] == gv {
            continue; // stale entry or already handled at this level
        }
        processed[t] = gv;
        recompute_belief(adj_new, &g, &beliefs, h_residual, t, &mut row, &mut abs);
        let changed = beliefs.row(t) != row.as_slice();
        beliefs.row_mut(t).copy_from_slice(&row);
        // Relax neighbors: shorter paths propagate always; equal-level
        // belief changes propagate only when the belief actually moved.
        for &u in adj_new.row_cols(t) {
            let cand = gv + 1;
            if g[u as usize] == UNREACHABLE || cand < g[u as usize] {
                g[u as usize] = cand;
                heap.push(Reverse((cand, u)));
            } else if cand == g[u as usize] && changed {
                heap.push(Reverse((cand, u)));
            }
        }
    }

    let layers = rebuild_layers(&g);
    Ok(SbpResult {
        beliefs: BeliefMatrix::from_mat(beliefs),
        geodesics: Geodesics { g, layers },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coupling::CouplingMatrix;
    use lsbp_graph::generators::{erdos_renyi_gnm, fig5c_torus, path};
    use lsbp_graph::Graph;

    fn h() -> Mat {
        CouplingMatrix::fig1c().unwrap().residual()
    }

    fn torus_explicit() -> ExplicitBeliefs {
        let mut e = ExplicitBeliefs::new(8, 3);
        e.set_residual(0, &[2.0, -1.0, -1.0]).unwrap();
        e.set_residual(1, &[-1.0, 2.0, -1.0]).unwrap();
        e.set_residual(2, &[-1.0, -1.0, 2.0]).unwrap();
        e
    }

    /// Example 20's flagship number: SBP's standardized beliefs at v4 are
    /// ζ(Ĥo³(ê_v1 + ê_v3)) ≈ [−0.069, 1.258, −1.189].
    #[test]
    fn example20_v4_beliefs() {
        let adj = fig5c_torus().adjacency();
        let r = sbp_on(&adj, &torus_explicit(), &h(), &ParallelismConfig::default()).unwrap();
        let std = r.beliefs.standardized(3);
        assert!((std[0] - -0.069).abs() < 0.001, "{std:?}");
        assert!((std[1] - 1.258).abs() < 0.001, "{std:?}");
        assert!((std[2] - -1.189).abs() < 0.001, "{std:?}");
    }

    /// Example 16 / Fig. 5b: multiple shortest paths *sum* — the factor 2.
    #[test]
    fn multiple_shortest_paths_sum() {
        // v2(1) and v7(6) explicit; v1(0) two hops away with three shortest
        // paths (two from v2 via v3/v4, one from v7 via v3).
        let mut gr = Graph::new(7);
        for (s, t) in [
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 6),
            (3, 4),
            (4, 5),
            (5, 6),
        ] {
            gr.add_edge_unweighted(s, t);
        }
        let adj = gr.adjacency();
        let mut e = ExplicitBeliefs::new(7, 3);
        e.set_residual(1, &[2.0, -1.0, -1.0]).unwrap();
        e.set_residual(6, &[-1.0, -1.0, 2.0]).unwrap();
        let hh = h();
        let r = sbp_on(&adj, &e, &hh, &ParallelismConfig::default()).unwrap();
        // Expected: Ĥ²(2·ê_v2 + ê_v7) — row-vector convention
        // b = (2ê_v2 + ê_v7)ᵀ·Ĥ² as rows.
        let combo = Mat::from_rows(&[&[2.0 * 2.0 - 1.0, -2.0 - 1.0, -2.0 + 2.0]]);
        let expect = combo.matmul(&hh).matmul(&hh);
        for c in 0..3 {
            assert!((r.beliefs.row(0)[c] - expect[(0, c)]).abs() < 1e-12);
        }
    }

    /// Explicit nodes keep exactly their explicit beliefs; unreachable
    /// nodes stay zero.
    #[test]
    fn anchors_and_unreachable() {
        let mut gr = Graph::new(5);
        gr.add_edge_unweighted(0, 1); // component {0,1}; {2,3,4} disconnected
        gr.add_edge_unweighted(2, 3);
        let adj = gr.adjacency();
        let mut e = ExplicitBeliefs::new(5, 3);
        e.set_label(0, 1, 1.0).unwrap();
        let r = sbp_on(&adj, &e, &h(), &ParallelismConfig::default()).unwrap();
        assert_eq!(r.beliefs.row(0), e.row(0));
        assert!(r.beliefs.row(2).iter().all(|&x| x == 0.0));
        assert!(r.beliefs.row(4).iter().all(|&x| x == 0.0));
        assert_eq!(r.geodesics.geodesic(4), None);
        // Unreachable nodes read out as an all-tie.
        assert_eq!(r.beliefs.top_beliefs(2, 1e-9), vec![0, 1, 2]);
    }

    /// Weighted paths multiply weights along the way (Definition 15's w_p).
    #[test]
    fn weighted_path_products() {
        let mut gr = Graph::new(3);
        gr.add_edge(0, 1, 2.0);
        gr.add_edge(1, 2, 5.0);
        let adj = gr.adjacency();
        let mut e = ExplicitBeliefs::new(3, 3);
        e.set_residual(0, &[2.0, -1.0, -1.0]).unwrap();
        let hh = h();
        let r = sbp_on(&adj, &e, &hh, &ParallelismConfig::default()).unwrap();
        let e_row = Mat::from_rows(&[&[2.0, -1.0, -1.0]]);
        let expect1 = e_row.matmul(&hh).scale(2.0);
        let expect2 = e_row.matmul(&hh).matmul(&hh).scale(10.0);
        for c in 0..3 {
            assert!((r.beliefs.row(1)[c] - expect1[(0, c)]).abs() < 1e-12);
            assert!((r.beliefs.row(2)[c] - expect2[(0, c)]).abs() < 1e-12);
        }
    }

    /// Incremental explicit-belief insertion equals recomputation from
    /// scratch (Proposition 22) — randomized check over several seeds.
    #[test]
    fn add_explicit_matches_scratch() {
        let hh = h();
        for seed in 0..5u64 {
            let gr = erdos_renyi_gnm(60, 150, seed);
            let adj = gr.adjacency();
            let mut base = ExplicitBeliefs::new(60, 3);
            base.set_label(0, 0, 1.0).unwrap();
            base.set_label(7, 1, 1.0).unwrap();
            let prev = sbp_on(&adj, &base, &hh, &ParallelismConfig::default()).unwrap();

            let mut delta = ExplicitBeliefs::new(60, 3);
            delta.set_label(23, 2, 1.0).unwrap();
            delta.set_label(41, 0, 1.0).unwrap();
            let incremental = sbp_add_explicit(&adj, &hh, &prev, &delta).unwrap();

            let mut full = base.clone();
            full.set_label(23, 2, 1.0).unwrap();
            full.set_label(41, 0, 1.0).unwrap();
            let scratch = sbp_on(&adj, &full, &hh, &ParallelismConfig::default()).unwrap();

            assert_eq!(incremental.geodesics.g, scratch.geodesics.g, "seed {seed}");
            assert!(
                incremental
                    .beliefs
                    .residual()
                    .max_abs_diff(scratch.beliefs.residual())
                    < 1e-10,
                "seed {seed}"
            );
        }
    }

    /// Adding explicit beliefs to a previously unreachable region anchors
    /// it.
    #[test]
    fn add_explicit_reaches_new_component() {
        let mut gr = Graph::new(4);
        gr.add_edge_unweighted(0, 1);
        gr.add_edge_unweighted(2, 3);
        let adj = gr.adjacency();
        let hh = h();
        let mut base = ExplicitBeliefs::new(4, 3);
        base.set_label(0, 0, 1.0).unwrap();
        let prev = sbp_on(&adj, &base, &hh, &ParallelismConfig::default()).unwrap();
        assert_eq!(prev.geodesics.geodesic(3), None);
        let mut delta = ExplicitBeliefs::new(4, 3);
        delta.set_label(2, 1, 1.0).unwrap();
        let r = sbp_add_explicit(&adj, &hh, &prev, &delta).unwrap();
        assert_eq!(r.geodesics.geodesic(2), Some(0));
        assert_eq!(r.geodesics.geodesic(3), Some(1));
        assert!(r.beliefs.row(3).iter().any(|&x| x != 0.0));
    }

    /// Incremental edge insertion equals recomputation from scratch —
    /// randomized over seeds and batch sizes.
    #[test]
    fn add_edges_matches_scratch() {
        let hh = h();
        for seed in 0..5u64 {
            let full_graph = erdos_renyi_gnm(50, 140, seed);
            let (base, extra) = full_graph.split_edges(110);
            let adj_base = base.adjacency();
            let adj_full = full_graph.adjacency();
            let mut e = ExplicitBeliefs::new(50, 3);
            e.set_label(1, 0, 1.0).unwrap();
            e.set_label(9, 2, 1.0).unwrap();
            let prev = sbp_on(&adj_base, &e, &hh, &ParallelismConfig::default()).unwrap();
            let new_edges: Vec<_> = extra.edges().collect();
            let incremental = sbp_add_edges(&adj_full, &new_edges, &hh, &prev).unwrap();
            let scratch = sbp_on(&adj_full, &e, &hh, &ParallelismConfig::default()).unwrap();
            assert_eq!(incremental.geodesics.g, scratch.geodesics.g, "seed {seed}");
            assert!(
                incremental
                    .beliefs
                    .residual()
                    .max_abs_diff(scratch.beliefs.residual())
                    < 1e-10,
                "seed {seed}"
            );
        }
    }

    /// The Appendix C worked case: new edges s–v and v–t with original
    /// geodesics 0, 2, 4 cascade updates through v to t.
    #[test]
    fn appendix_c_cascade() {
        // Path 0-1-2-3-4 with explicit node 0: geodesics 0,1,2,3,4.
        let base = path(5);
        let adj_base = base.adjacency();
        let hh = h();
        let mut e = ExplicitBeliefs::new(5, 3);
        e.set_label(0, 0, 1.0).unwrap();
        let prev = sbp_on(&adj_base, &e, &hh, &ParallelismConfig::default()).unwrap();
        assert_eq!(prev.geodesics.g[4], 4);
        // Add edges 0–2 and 2–4 (s=0 g=0, v=2 g=2, t=4 g=4).
        let mut full = base.clone();
        full.add_edge_unweighted(0, 2);
        full.add_edge_unweighted(2, 4);
        let adj_full = full.adjacency();
        let r = sbp_add_edges(&adj_full, &[(0, 2, 1.0), (2, 4, 1.0)], &hh, &prev).unwrap();
        let scratch = sbp_on(&adj_full, &e, &hh, &ParallelismConfig::default()).unwrap();
        assert_eq!(r.geodesics.g, scratch.geodesics.g);
        assert_eq!(r.geodesics.g[2], 1);
        assert_eq!(r.geodesics.g[4], 2);
        assert!(
            r.beliefs
                .residual()
                .max_abs_diff(scratch.beliefs.residual())
                < 1e-12
        );
    }

    #[test]
    fn error_cases() {
        let adj = path(3).adjacency();
        let e = ExplicitBeliefs::new(4, 3);
        assert!(matches!(
            sbp_on(&adj, &e, &h(), &ParallelismConfig::default()),
            Err(SbpError::DimensionMismatch)
        ));
        let e2 = ExplicitBeliefs::new(3, 2);
        assert!(matches!(
            sbp_on(&adj, &e2, &h(), &ParallelismConfig::default()),
            Err(SbpError::CouplingArityMismatch)
        ));
    }
}
