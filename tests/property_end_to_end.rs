//! Property-based tests (proptest) on the core invariants, over random
//! graphs, couplings and explicit beliefs.

use lsbp::prelude::*;
use lsbp_graph::Graph;
use lsbp_linalg::Mat;
use proptest::prelude::*;

/// Strategy: a connected-ish random graph as an edge list over `n` nodes.
fn graph_strategy(max_n: usize) -> impl Strategy<Value = Graph> {
    (3..max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, 1..4u32), n..(3 * n));
        edges.prop_map(move |list| {
            let mut g = Graph::new(n);
            for (s, t, w) in list {
                if s != t {
                    g.add_edge(s, t, w as f64 * 0.5);
                }
            }
            g
        })
    })
}

/// Strategy: a random symmetric doubly-stochastic 3-class coupling matrix,
/// built by symmetrizing + Sinkhorn-style normalization.
fn coupling_strategy() -> impl Strategy<Value = CouplingMatrix> {
    proptest::collection::vec(0.05..1.0f64, 9).prop_map(|vals| {
        let mut m = Mat::from_fn(3, 3, |r, c| {
            let a = vals[r * 3 + c];
            let b = vals[c * 3 + r];
            0.5 * (a + b)
        });
        // Sinkhorn iterations preserve symmetry for symmetric input.
        for _ in 0..200 {
            for r in 0..3 {
                let s: f64 = m.row(r).iter().sum();
                for c in 0..3 {
                    m[(r, c)] /= s;
                }
            }
            let mut cols = [0.0f64; 3];
            for c in 0..3 {
                cols[c] = (0..3).map(|r| m[(r, c)]).sum();
            }
            for r in 0..3 {
                for c in 0..3 {
                    m[(r, c)] /= cols[c];
                }
            }
        }
        // Final symmetrization to kill the last floating point drift.
        let sym = Mat::from_fn(3, 3, |r, c| 0.5 * (m[(r, c)] + m[(c, r)]));
        CouplingMatrix::new(sym).expect("Sinkhorn should produce a valid coupling")
    })
}

fn explicit_strategy(n: usize) -> impl Strategy<Value = ExplicitBeliefs> {
    proptest::collection::vec((0..n, 0..3usize), 1..5).prop_map(move |labels| {
        let mut e = ExplicitBeliefs::new(n, 3);
        for (v, c) in labels {
            e.set_label(v, c, 1.0).unwrap();
        }
        e
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Residual belief rows stay centered (sum 0) through LinBP — the
    /// centering invariant of Definition 3 is preserved by the update.
    #[test]
    fn linbp_preserves_centering(g in graph_strategy(20), coupling in coupling_strategy()) {
        let n = g.num_nodes();
        let adj = g.adjacency();
        let mut e = ExplicitBeliefs::new(n, 3);
        e.set_label(0, 0, 1.0).unwrap();
        // Any εH below the exact threshold.
        let eps = 0.5 * eps_max_exact_linbp(&coupling.residual(), &adj, 1e-4);
        if !eps.is_finite() || eps <= 0.0 {
            return Ok(());
        }
        let h = coupling.scaled_residual(eps);
        let r = linbp_on(&adj, &e, &h,
            &LinBpOptions { max_iter: 20_000, tol: 1e-13, ..Default::default() }).unwrap();
        prop_assert!(r.converged);
        for v in 0..n {
            let s: f64 = r.beliefs.row(v).iter().sum();
            prop_assert!(s.abs() < 1e-9, "row {v} sums to {s}");
        }
    }

    /// Lemma 12 as a property: scaling Ê by any λ scales B̂ by λ and leaves
    /// the standardized assignment unchanged.
    #[test]
    fn scaling_explicit_beliefs(
        g in graph_strategy(16),
        coupling in coupling_strategy(),
        lambda in 0.1..20.0f64,
    ) {
        let n = g.num_nodes();
        let adj = g.adjacency();
        let mut e = ExplicitBeliefs::new(n, 3);
        e.set_label(0, 1, 1.0).unwrap();
        let eps = 0.5 * eps_max_exact_linbp(&coupling.residual(), &adj, 1e-4);
        if !eps.is_finite() || eps <= 0.0 {
            return Ok(());
        }
        let h = coupling.scaled_residual(eps);
        let opts = LinBpOptions { max_iter: 30_000, tol: 1e-14, ..Default::default() };
        let r1 = linbp_on(&adj, &e, &h, &opts).unwrap();
        let r2 = linbp_on(&adj, &e.scaled(lambda), &h, &opts).unwrap();
        prop_assert!(r1.converged && r2.converged);
        let scaled = r1.beliefs.residual().scale(lambda);
        let err = scaled.max_abs_diff(r2.beliefs.residual());
        let magnitude = r2.beliefs.residual().max_abs().max(1e-12);
        prop_assert!(err / magnitude < 1e-6, "relative error {}", err / magnitude);
    }

    /// The closed form (dense LU) agrees with the iterative fixpoint
    /// whenever the latter converges.
    #[test]
    fn closed_form_oracle(g in graph_strategy(12), coupling in coupling_strategy()) {
        let n = g.num_nodes();
        let adj = g.adjacency();
        let mut e = ExplicitBeliefs::new(n, 3);
        e.set_label(n - 1, 2, 1.0).unwrap();
        let eps = 0.6 * eps_max_exact_linbp(&coupling.residual(), &adj, 1e-4);
        if !eps.is_finite() || eps <= 0.0 {
            return Ok(());
        }
        let h = coupling.scaled_residual(eps);
        let iter = linbp_on(&adj, &e, &h,
            &LinBpOptions { max_iter: 50_000, tol: 1e-14, ..Default::default() }).unwrap();
        prop_assert!(iter.converged);
        let exact = linbp_closed_form_dense(&adj, &e, &h, true).unwrap();
        let err = iter.beliefs.residual().max_abs_diff(exact.residual());
        prop_assert!(err < 1e-7, "max diff {err}");
    }

    /// SBP invariants: explicit nodes keep their beliefs, beliefs stay
    /// centered, unreachable nodes stay zero, and incremental insertion of
    /// one more label equals recomputation.
    #[test]
    fn sbp_invariants(
        g in graph_strategy(20),
        coupling in coupling_strategy(),
        labels in explicit_strategy(20),
    ) {
        let n = g.num_nodes();
        let adj = g.adjacency();
        let mut e = ExplicitBeliefs::new(n, 3);
        e.set_label(0, 0, 1.0).unwrap();
        for v in labels.explicit_nodes() {
            if v < n {
                e.set_residual(v, labels.row(v)).unwrap();
            }
        }
        let ho = coupling.residual();
        let r = sbp_on(&adj, &e, &ho, &ParallelismConfig::default()).unwrap();
        for v in e.explicit_nodes() {
            prop_assert_eq!(r.beliefs.row(v), e.row(v));
        }
        for v in 0..n {
            let s: f64 = r.beliefs.row(v).iter().sum();
            prop_assert!(s.abs() < 1e-9);
            if r.geodesics.geodesic(v).is_none() {
                prop_assert!(r.beliefs.row(v).iter().all(|&x| x == 0.0));
            }
        }
        // Incremental = from-scratch for one extra label.
        let extra = n - 1;
        let mut delta = ExplicitBeliefs::new(n, 3);
        delta.set_label(extra, 2, 1.0).unwrap();
        let mut all = e.clone();
        all.set_label(extra, 2, 1.0).unwrap();
        let inc = sbp_add_explicit(&adj, &ho, &r, &delta).unwrap();
        let scratch = sbp_on(&adj, &all, &ho, &ParallelismConfig::default()).unwrap();
        prop_assert_eq!(&inc.geodesics.g, &scratch.geodesics.g);
        let err = inc.beliefs.residual().max_abs_diff(scratch.beliefs.residual());
        prop_assert!(err < 1e-10, "{err}");
    }

    /// Incremental edge insertion equals recomputation for random splits.
    #[test]
    fn sbp_edge_insertion_property(g in graph_strategy(18), keep_frac in 0.5..0.95f64) {
        let coupling = CouplingMatrix::fig1c().unwrap();
        let ho = coupling.residual();
        let n = g.num_nodes();
        if g.num_edges() < 4 {
            return Ok(());
        }
        let keep = ((g.num_edges() as f64) * keep_frac) as usize;
        let (base, extra) = g.split_edges(keep.max(1));
        let mut e = ExplicitBeliefs::new(n, 3);
        e.set_label(0, 0, 1.0).unwrap();
        let prev = sbp_on(&base.adjacency(), &e, &ho, &ParallelismConfig::default()).unwrap();
        let new_edges: Vec<_> = extra.edges().collect();
        let inc = sbp_add_edges(&g.adjacency(), &new_edges, &ho, &prev).unwrap();
        let scratch = sbp_on(&g.adjacency(), &e, &ho, &ParallelismConfig::default()).unwrap();
        prop_assert_eq!(&inc.geodesics.g, &scratch.geodesics.g);
        let err = inc.beliefs.residual().max_abs_diff(scratch.beliefs.residual());
        prop_assert!(err < 1e-9, "{err}");
    }

    /// BP beliefs are valid probability residuals: rows sum to 0 and
    /// probabilities stay in (−1/k, 1 − 1/k).
    #[test]
    fn bp_outputs_valid_distributions(g in graph_strategy(14)) {
        let n = g.num_nodes();
        let adj = g.adjacency();
        let mut e = ExplicitBeliefs::new(n, 3);
        e.set_label(0, 0, 0.3).unwrap();
        let coupling = CouplingMatrix::fig1c().unwrap();
        let r = bp(&adj, &e, &coupling.raw_at_scale(0.2),
            &BpOptions { max_iter: 200, tol: 1e-10, ..Default::default() }).unwrap();
        for v in 0..n {
            let row = r.beliefs.row(v);
            let s: f64 = row.iter().sum();
            prop_assert!(s.abs() < 1e-7);
            for &x in row {
                prop_assert!(x > -1.0 / 3.0 - 1e-9 && x < 2.0 / 3.0 + 1e-9);
            }
        }
    }
}
