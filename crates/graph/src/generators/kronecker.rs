//! Deterministic Kronecker graphs (Fig. 6a of the paper).
//!
//! The paper's synthetic family has `n = 3^m` nodes and `e = 4^m` directed
//! adjacency entries for `m = 5 … 13` (graphs #1 … #9). That schedule is
//! exactly the `m`-fold Kronecker (tensor) power of the 3-node path `P3`,
//! whose adjacency matrix has 4 nonzero entries, following Leskovec et
//! al.'s deterministic Kronecker construction (reference \[28\] in the paper).
//!
//! Properties relevant to the experiments: the edge/node ratio grows as
//! `(4/3)^m` (matching the 4.2 … 42.6 column of Fig. 6a), the degree
//! distribution is multinomial-heavy-tailed, and — since `P3` is bipartite
//! — the tensor power splits into `2^(m−1)` connected components. The
//! experiments draw explicit beliefs uniformly, so every non-trivial
//! component receives seeds; behavior is identical for every method under
//! comparison.

use crate::graph::Graph;

/// One row of the Fig. 6a schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KroneckerScale {
    /// 1-based index of the graph in Fig. 6a (#1 … #9).
    pub id: usize,
    /// Kronecker exponent `m` (nodes = 3^m).
    pub exponent: u32,
    /// Number of nodes `3^m`.
    pub nodes: usize,
    /// Number of directed adjacency entries `4^m` (the paper counts each
    /// undirected edge twice).
    pub directed_edges: usize,
}

/// The full Fig. 6a schedule: graphs #1 (243 nodes / 1,024 edges) through
/// #9 (1,594,323 nodes / 67,108,864 edges).
pub fn kronecker_schedule() -> Vec<KroneckerScale> {
    (5u32..=13)
        .enumerate()
        .map(|(i, m)| KroneckerScale {
            id: i + 1,
            exponent: m,
            nodes: 3usize.pow(m),
            directed_edges: 4usize.pow(m),
        })
        .collect()
}

/// Directed edges of the P3 seed: 0–1 and 1–2 in both directions.
const SEED_EDGES: [(usize, usize); 4] = [(0, 1), (1, 0), (1, 2), (2, 1)];

/// Builds the deterministic Kronecker graph `P3^{⊗m}` (unweighted,
/// undirected). `n = 3^m` nodes, `4^m` directed entries (= `4^m / 2`
/// undirected edges).
///
/// # Panics
/// Panics if `m == 0` or the graph would exceed memory-hostile sizes
/// (`m > 13`, beyond the paper's schedule).
pub fn kronecker_graph(m: u32) -> Graph {
    assert!(m >= 1, "Kronecker exponent must be at least 1");
    assert!(
        m <= 13,
        "Kronecker exponent beyond the paper's schedule (would not fit in memory)"
    );
    let n = 3usize.pow(m);
    let n_directed = 4usize.pow(m);
    let mut g = Graph::with_capacity(n, n_directed / 2);
    // Enumerate all m-tuples of seed edges; tuple (e_1, …, e_m) produces the
    // directed edge (Σ s_i·3^(m-i), Σ t_i·3^(m-i)). Keeping s < t emits each
    // undirected edge exactly once.
    let mut digits = vec![0usize; m as usize];
    loop {
        let mut s = 0usize;
        let mut t = 0usize;
        for &d in digits.iter() {
            let (es, et) = SEED_EDGES[d];
            s = s * 3 + es;
            t = t * 3 + et;
        }
        if s < t {
            g.add_edge_unweighted(s, t);
        }
        // Increment the base-4 counter.
        let mut pos = m as usize;
        loop {
            if pos == 0 {
                return g;
            }
            pos -= 1;
            digits[pos] += 1;
            if digits[pos] < 4 {
                break;
            }
            digits[pos] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_matches_fig6a() {
        let sched = kronecker_schedule();
        assert_eq!(sched.len(), 9);
        assert_eq!(sched[0].nodes, 243);
        assert_eq!(sched[0].directed_edges, 1024);
        assert_eq!(sched[1].nodes, 729);
        assert_eq!(sched[1].directed_edges, 4096);
        assert_eq!(sched[4].nodes, 19_683);
        assert_eq!(sched[4].directed_edges, 262_144);
        assert_eq!(sched[8].nodes, 1_594_323);
        assert_eq!(sched[8].directed_edges, 67_108_864);
        // e/n ratios of Fig. 6a (4.2, 5.6, …, 42.6).
        let r0 = sched[0].directed_edges as f64 / sched[0].nodes as f64;
        assert!((r0 - 4.2).abs() < 0.05);
        let r8 = sched[8].directed_edges as f64 / sched[8].nodes as f64;
        assert!((r8 - 42.1).abs() < 0.5);
    }

    #[test]
    fn m1_is_p3() {
        let g = kronecker_graph(1);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        let a = g.adjacency();
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 2), 1.0);
        assert_eq!(a.get(0, 2), 0.0);
    }

    #[test]
    fn m2_matches_tensor_square() {
        let g = kronecker_graph(2);
        assert_eq!(g.num_nodes(), 9);
        assert_eq!(g.num_directed_edges(), 16);
        let a = g.adjacency();
        // Edge ((i1,i2),(j1,j2)) exists iff both coordinates are P3 edges:
        // e.g. (0,0)-(1,1): nodes 0 and 4.
        assert_eq!(a.get(0, 4), 1.0);
        assert_eq!(a.get(4, 8), 1.0); // (1,1)-(2,2)
        assert_eq!(a.get(2, 4), 1.0); // (0,2)-(1,1)
        assert_eq!(a.get(0, 1), 0.0); // (0,0)-(0,1): first coordinate not an edge
        assert!(a.is_symmetric(0.0));
        // Tensor product of two bipartite connected graphs → 2 components
        // (plus none here: all 9 nodes are covered by P3⊗P3? corners (0,0)
        // connect fine). Verify the documented 2^{m-1} component count.
        assert_eq!(g.num_components(), 2);
    }

    #[test]
    fn m5_matches_paper_graph1() {
        let g = kronecker_graph(5);
        assert_eq!(g.num_nodes(), 243);
        assert_eq!(g.num_directed_edges(), 1024);
        assert_eq!(g.num_components(), 16); // 2^(5-1)
        assert!(g.is_simple());
        assert!(g.adjacency().is_symmetric(0.0));
    }

    /// The adjacency spectral radius of a Kronecker power is the power of
    /// the seed's: ρ(P3^{⊗m}) = √2^m.
    #[test]
    fn spectral_radius_is_power_of_seed() {
        let g = kronecker_graph(3);
        let rho = g.adjacency().spectral_radius();
        let expect = 2.0f64.sqrt().powi(3);
        assert!((rho - expect).abs() < 1e-5, "rho = {rho}, expect {expect}");
    }
}
