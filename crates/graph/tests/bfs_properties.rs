//! Property test: the layer-synchronous [`geodesic_numbers`] agrees with a
//! textbook FIFO-queue multi-source BFS on random graphs — disconnected
//! components, duplicate sources and empty source lists included.

use lsbp_graph::{geodesic_numbers, Graph, UNREACHABLE};
use lsbp_sparse::CsrMatrix;
use proptest::prelude::*;
use std::collections::VecDeque;

/// FIFO reference BFS: pops nodes in discovery order, then sorts each
/// layer.
fn fifo_bfs(adj: &CsrMatrix, sources: &[usize]) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut g = vec![UNREACHABLE; adj.n_rows()];
    let mut layers: Vec<Vec<u32>> = Vec::new();
    let mut queue = VecDeque::new();
    for &s in sources {
        if g[s] != 0 {
            g[s] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let gu = g[u];
        if layers.len() <= gu as usize {
            layers.push(Vec::new());
        }
        layers[gu as usize].push(u as u32);
        for (v, _) in adj.row_iter(u) {
            if g[v] == UNREACHABLE {
                g[v] = gu + 1;
                queue.push_back(v);
            }
        }
    }
    for layer in &mut layers {
        layer.sort_unstable();
    }
    (g, layers)
}

/// Strategy: a node count, an edge list (self-loops dropped, parallel
/// edges allowed) and a source list with possible duplicates. Sparse
/// edge counts leave plenty of disconnected components.
fn graph_and_sources() -> impl Strategy<Value = (usize, Vec<(usize, usize)>, Vec<usize>)> {
    (1usize..60).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n), 0..2 * n),
            proptest::collection::vec(0..n, 0..6),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn layered_bfs_matches_fifo_reference((n, edges, sources) in graph_and_sources()) {
        let mut graph = Graph::new(n);
        for (s, t) in edges {
            if s != t {
                graph.add_edge_unweighted(s, t);
            }
        }
        let adj = graph.adjacency();
        let geo = geodesic_numbers(&adj, &sources);
        let (g, layers) = fifo_bfs(&adj, &sources);
        prop_assert_eq!(&geo.g, &g);
        prop_assert_eq!(&geo.layers, &layers);
        if sources.is_empty() {
            prop_assert_eq!(geo.num_layers(), 0);
            prop_assert_eq!(geo.num_unreachable(), n);
        }
    }
}
