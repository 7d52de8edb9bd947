//! Fig. 10(a): runtime vs fraction of explicit beliefs.
//!
//! Paper's Result 5: LinBP gets *slightly slower* with more labels (a
//! denser B̂ means more non-zero arithmetic), SBP gets *slightly faster*
//! (fewer propagation layers, fewer edges crossing them); both effects
//! are minor. Native implementations, graph `--graph 5` by default (as in
//! the paper). `cargo run --release -p lsbp-bench --bin fig10a_explicit`

use lsbp::prelude::*;
use lsbp_bench::{arg_usize, fmt_duration, kronecker_style_beliefs, time_once};
use lsbp_graph::generators::{kronecker_graph, kronecker_schedule};

fn main() {
    let id = arg_usize("--graph", 5).clamp(1, 9);
    let scale = kronecker_schedule()[id - 1];
    let graph = kronecker_graph(scale.exponent);
    let adj = graph.adjacency();
    let n = graph.num_nodes();
    let ho = CouplingMatrix::fig6b_residual();
    let h = ho.scale(0.0005);
    println!(
        "graph #{id}: {n} nodes, {} directed edges",
        scale.directed_edges
    );
    println!(
        "{:>10} {:>12} {:>12} {:>8}",
        "explicit", "LinBP(5it)", "SBP", "layers"
    );

    for pct in [5, 10, 20, 30, 40, 50, 60, 70, 80, 90] {
        let count = (n * pct / 100).max(1);
        let e = kronecker_style_beliefs(n, 3, count, pct as u64, false);
        let lin_opts = LinBpOptions {
            max_iter: 5,
            tol: 0.0,
            ..Default::default()
        };
        let (_, t_lin) = time_once(|| linbp_on(&adj, &e, &h, &lin_opts).unwrap());
        let (sbp_result, t_sbp) =
            time_once(|| sbp_on(&adj, &e, &ho, &ParallelismConfig::default()).unwrap());
        println!(
            "{:>9}% {:>12} {:>12} {:>8}",
            pct,
            fmt_duration(t_lin),
            fmt_duration(t_sbp),
            sbp_result.geodesics.num_layers()
        );
    }
    println!(
        "\nShape check vs paper: both curves nearly flat; LinBP drifts up, SBP drifts\n\
         down as the explicit fraction grows."
    );
}
