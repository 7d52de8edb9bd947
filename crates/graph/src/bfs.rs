//! Multi-source BFS and geodesic numbers (Definition 14).
//!
//! The geodesic number `g_t` of node `t` is the length of the shortest
//! (hop-count) path to any node with explicit beliefs. SBP propagates
//! beliefs strictly along edges from geodesic layer `g` to layer `g+1`
//! (Lemma 17), so a single multi-source BFS determines the entire
//! propagation schedule.

use lsbp_sparse::PropagationOperator;

/// Result of a multi-source BFS: per-node geodesic numbers and the nodes
/// grouped into layers of equal geodesic number.
#[derive(Clone, Debug)]
pub struct Geodesics {
    /// `g[v]` = geodesic number of `v`, or `u32::MAX` when `v` is
    /// unreachable from every source.
    pub g: Vec<u32>,
    /// `layers[i]` = nodes with geodesic number `i`, in ascending node
    /// order. `layers[0]` are the sources themselves.
    pub layers: Vec<Vec<u32>>,
}

/// Sentinel geodesic number for nodes unreachable from any labeled node.
pub const UNREACHABLE: u32 = u32::MAX;

impl Geodesics {
    /// Geodesic number of `v`, or `None` when unreachable.
    pub fn geodesic(&self, v: usize) -> Option<u32> {
        let g = self.g[v];
        (g != UNREACHABLE).then_some(g)
    }

    /// Number of BFS layers (max geodesic number + 1); 0 with no sources.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Count of nodes unreachable from every source.
    pub fn num_unreachable(&self) -> usize {
        self.g.iter().filter(|&&g| g == UNREACHABLE).count()
    }
}

/// Computes geodesic numbers by multi-source BFS over any adjacency
/// operator (monolithic CSR, sharded or paged — BFS only needs per-row
/// neighbor access). Hop counts ignore edge weights (Definition 14 is in
/// hops; the weights only scale the propagated beliefs).
///
/// The BFS is **layer-synchronous**: it expands layer `i` in ascending
/// node order, collects layer `i + 1`, sorts it, and repeats. Row
/// accesses within a layer therefore arrive in row order, so a sharded
/// or paged operator visits each shard at most once per layer instead of
/// jumping between shards in discovery order.
///
/// # Panics
/// Panics if `adj` is not square or a source id is out of range.
pub fn geodesic_numbers<A: PropagationOperator + ?Sized>(adj: &A, sources: &[usize]) -> Geodesics {
    assert_eq!(adj.n_rows(), adj.n_cols(), "adjacency must be square");
    let n = adj.n_rows();
    let mut g = vec![UNREACHABLE; n];
    let mut layer = Vec::with_capacity(sources.len());
    for &s in sources {
        assert!(s < n, "BFS source out of range");
        if g[s] != 0 {
            g[s] = 0;
            layer.push(s as u32);
        }
    }
    let mut layers: Vec<Vec<u32>> = Vec::new();
    while !layer.is_empty() {
        sort_layer(&mut layer);
        let gv = layers.len() as u32 + 1;
        let mut next = Vec::new();
        for &u in &layer {
            for (v, _) in adj.row_iter(u as usize) {
                if g[v] == UNREACHABLE {
                    g[v] = gv;
                    next.push(v as u32);
                }
            }
        }
        layers.push(std::mem::replace(&mut layer, next));
    }
    Geodesics { g, layers }
}

/// Sorts one BFS layer. Kept out of the generic [`geodesic_numbers`]:
/// the sort does not depend on the operator, so it is compiled once in
/// this crate instead of once in every crate that instantiates the BFS.
fn sort_layer(layer: &mut [u32]) {
    layer.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// The example of Fig. 5(a,b): v1 has geodesic number 2; v2 and v7 are
    /// the explicit nodes. Node numbering here is 0-based (v1 → 0, ...).
    #[test]
    fn figure5_example() {
        let mut g = Graph::new(7);
        // Edges from Fig. 5a / Example 18's adjacency matrix A:
        // v1-v3, v1-v4, v2-v3, v2-v4, v3-v7, v4-v5, v5-v6, v6-v7.
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
            g.add_edge_unweighted(s, t);
        }
        let adj = g.adjacency();
        let geo = geodesic_numbers(&adj, &[1, 6]); // explicit: v2, v7
        assert_eq!(geo.g[1], 0);
        assert_eq!(geo.g[6], 0);
        assert_eq!(geo.g[2], 1); // v3 adjacent to both
        assert_eq!(geo.g[3], 1); // v4 adjacent to v2
        assert_eq!(geo.g[5], 1); // v6 adjacent to v7
        assert_eq!(geo.g[0], 2); // v1: two hops (via v3 or v4)
        assert_eq!(geo.g[4], 2); // v5: via v4 or v6
        assert_eq!(geo.num_layers(), 3);
        assert_eq!(geo.layers[0], vec![1, 6]);
        assert_eq!(geo.layers[2], vec![0, 4]);
    }

    #[test]
    fn no_sources() {
        let g = Graph::new(3);
        let geo = geodesic_numbers(&g.adjacency(), &[]);
        assert_eq!(geo.num_layers(), 0);
        assert_eq!(geo.num_unreachable(), 3);
        assert_eq!(geo.geodesic(0), None);
    }

    #[test]
    fn unreachable_component() {
        let mut g = Graph::new(4);
        g.add_edge_unweighted(0, 1);
        g.add_edge_unweighted(2, 3);
        let geo = geodesic_numbers(&g.adjacency(), &[0]);
        assert_eq!(geo.g[1], 1);
        assert_eq!(geo.geodesic(2), None);
        assert_eq!(geo.num_unreachable(), 2);
    }

    #[test]
    fn duplicate_sources_deduped() {
        let mut g = Graph::new(2);
        g.add_edge_unweighted(0, 1);
        let geo = geodesic_numbers(&g.adjacency(), &[0, 0, 0]);
        assert_eq!(geo.layers[0], vec![0]);
        assert_eq!(geo.g[1], 1);
    }

    #[test]
    fn path_graph_layers() {
        let mut g = Graph::new(5);
        for i in 0..4 {
            g.add_edge_unweighted(i, i + 1);
        }
        let geo = geodesic_numbers(&g.adjacency(), &[2]);
        assert_eq!(geo.g, vec![2, 1, 0, 1, 2]);
        assert_eq!(geo.layers[1], vec![1, 3]);
        assert_eq!(geo.layers[2], vec![0, 4]);
    }
}
