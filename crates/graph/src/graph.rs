//! The undirected, weighted graph container.

use lsbp_sparse::{CooMatrix, CsrMatrix};

/// An undirected weighted graph on nodes `0..n`.
///
/// Edges are stored as an undirected edge list; [`Graph::adjacency`] builds
/// the symmetric CSR adjacency matrix `A` (with `A(s,t) = A(t,s) = w`) that
/// all algorithms consume. Parallel edges are allowed and their weights sum
/// in the adjacency matrix ("we have to add up parallel paths", Sect. 5.2).
#[derive(Clone, Debug, Default)]
pub struct Graph {
    n: usize,
    edges: Vec<(u32, u32, f64)>,
}

impl Graph {
    /// Creates an empty graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "graph limited to u32 node ids");
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates an empty graph with room for `cap` edges.
    pub fn with_capacity(n: usize, cap: usize) -> Self {
        let mut g = Self::new(n);
        g.edges.reserve(cap);
        g
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of *undirected* edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of directed adjacency entries (the paper's Fig. 6a counts
    /// every undirected edge twice).
    pub fn num_directed_edges(&self) -> usize {
        2 * self.edges.len()
    }

    /// Adds an undirected edge `s — t` with weight `w`.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, non-positive or
    /// non-finite weights (the paper requires `w > 0`).
    pub fn add_edge(&mut self, s: usize, t: usize, w: f64) {
        assert!(s < self.n && t < self.n, "edge endpoint out of range");
        assert_ne!(s, t, "self-loops are not supported");
        assert!(
            w > 0.0 && w.is_finite(),
            "edge weights must be positive and finite"
        );
        self.edges.push((s as u32, t as u32, w));
    }

    /// Adds an unweighted (`w = 1`) undirected edge.
    pub fn add_edge_unweighted(&mut self, s: usize, t: usize) {
        self.add_edge(s, t, 1.0);
    }

    /// Iterates the undirected edge list as `(s, t, w)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.edges
            .iter()
            .map(|&(s, t, w)| (s as usize, t as usize, w))
    }

    /// Builds the symmetric CSR adjacency matrix.
    pub fn adjacency(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.n, self.n, 2 * self.edges.len());
        for &(s, t, w) in &self.edges {
            coo.push_symmetric(s as usize, t as usize, w);
        }
        coo.to_csr()
    }

    /// `true` iff the graph has no parallel edges.
    pub fn is_simple(&self) -> bool {
        let mut seen: Vec<(u32, u32)> = self
            .edges
            .iter()
            .map(|&(s, t, _)| if s < t { (s, t) } else { (t, s) })
            .collect();
        seen.sort_unstable();
        seen.windows(2).all(|w| w[0] != w[1])
    }

    /// Merges another graph over the same node set into this one
    /// (used by the incremental-edge experiments to split a graph into a
    /// base part and an update batch).
    pub fn extend_edges(&mut self, other: &Graph) {
        assert_eq!(
            self.n, other.n,
            "extend_edges requires identical node counts"
        );
        self.edges.extend_from_slice(&other.edges);
    }

    /// Splits the edge list into two graphs: the first `keep` edges and the
    /// rest. Deterministic given the stored edge order.
    pub fn split_edges(&self, keep: usize) -> (Graph, Graph) {
        let keep = keep.min(self.edges.len());
        let mut a = Graph::new(self.n);
        let mut b = Graph::new(self.n);
        a.edges.extend_from_slice(&self.edges[..keep]);
        b.edges.extend_from_slice(&self.edges[keep..]);
        (a, b)
    }

    /// Connected components via BFS on the undirected structure; returns a
    /// component id per node.
    pub fn connected_components(&self) -> Vec<usize> {
        let adj = self.adjacency();
        let mut comp = vec![usize::MAX; self.n];
        let mut next_comp = 0usize;
        let mut queue = std::collections::VecDeque::new();
        for start in 0..self.n {
            if comp[start] != usize::MAX {
                continue;
            }
            comp[start] = next_comp;
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                for &v in adj.row_cols(u) {
                    let v = v as usize;
                    if comp[v] == usize::MAX {
                        comp[v] = next_comp;
                        queue.push_back(v);
                    }
                }
            }
            next_comp += 1;
        }
        comp
    }

    /// Number of connected components (isolated nodes count as components).
    pub fn num_components(&self) -> usize {
        self.connected_components()
            .into_iter()
            .max()
            .map_or(0, |m| m + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.adjacency().nnz(), 0);
        assert_eq!(g.num_components(), 5);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 3, 0.5);
        let a = g.adjacency();
        assert!(a.is_symmetric(0.0));
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(1, 0), 2.0);
        assert_eq!(a.get(3, 1), 0.5);
        assert_eq!(g.num_directed_edges(), 4);
    }

    #[test]
    fn parallel_edges_sum() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 1, 2.5);
        assert!(!g.is_simple());
        assert_eq!(g.adjacency().get(0, 1), 3.5);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_weight_rejected() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 0.0);
    }

    #[test]
    fn components_and_split() {
        let mut g = Graph::new(6);
        g.add_edge_unweighted(0, 1);
        g.add_edge_unweighted(1, 2);
        g.add_edge_unweighted(3, 4);
        assert_eq!(g.num_components(), 3); // {0,1,2}, {3,4}, {5}
        let comp = g.connected_components();
        assert_eq!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[3]);
        let (a, b) = g.split_edges(2);
        assert_eq!(a.num_edges(), 2);
        assert_eq!(b.num_edges(), 1);
        let mut rebuilt = a.clone();
        rebuilt.extend_edges(&b);
        assert_eq!(rebuilt.num_edges(), 3);
    }
}
