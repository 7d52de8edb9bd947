//! Fig. 11(b): the DBLP experiment — F1 of LinBP, LinBP\* and SBP with BP
//! as ground truth, over εH, on the heterogeneous bibliographic network.
//!
//! Uses the synthetic DBLP-like network (same shape as the paper's 36k-
//! node subset, which is not shipped) with ~10.4% labeled nodes
//! and the Fig. 11a 4-class homophily residual. Default is a quarter-
//! scale network for speed; pass `--full 1` for paper scale.
//! `cargo run --release -p lsbp-bench --bin fig11_dblp`

use lsbp::prelude::*;
use lsbp_bench::{arg_usize, log_sweep, random_labels};
use lsbp_graph::generators::{dblp_like, DblpConfig};

fn main() {
    let full = arg_usize("--full", 0) == 1;
    let points = arg_usize("--points", 11);
    let cfg = if full {
        DblpConfig::default()
    } else {
        DblpConfig {
            n_papers: 3_500,
            n_authors: 3_500,
            n_terms_per_area: 450,
            n_shared_terms: 225,
            ..DblpConfig::default()
        }
    };
    let net = dblp_like(&cfg, 20);
    let n = net.graph.num_nodes();
    let adj = net.graph.adjacency();
    let labels = random_labels(n, 4, (n as f64 * 0.104) as usize, 2);
    let ho = CouplingMatrix::fig11a_residual();
    println!(
        "DBLP-like network: {n} nodes, {} directed edges, {} labeled ({:.1}%)",
        net.graph.num_directed_edges(),
        labels.num_explicit(),
        100.0 * labels.num_explicit() as f64 / n as f64
    );
    let eps_exact = eps_max_exact_linbp(&ho, &adj, 1e-4);
    println!("exact LinBP threshold: εH = {eps_exact:.2e} (paper: ≈1.3e-3)");

    // SBP once (εH-independent).
    let sbp_r = sbp_on(&adj, &labels, &ho, &ParallelismConfig::default()).unwrap();
    let sbp_tops = sbp_r.beliefs.top_belief_assignment(1e-9);

    println!(
        "\n{:>10} {:>7} {:>9} {:>9} {:>9}",
        "εH", "BPconv", "LinBP F1", "L* F1", "SBP F1"
    );
    for eps in log_sweep(1e-8, 1e-2, points) {
        let h_raw = CouplingMatrix::from_residual(&ho, eps);
        let Ok(h_raw) = h_raw else {
            println!("{eps:>10.1e}   (εH too large for positive BP potentials)");
            continue;
        };
        let bp_r = bp(
            &adj,
            &labels,
            h_raw.raw(),
            &BpOptions {
                max_iter: 150,
                tol: 1e-12,
                ..Default::default()
            },
        )
        .unwrap();
        let gt = bp_r.beliefs.top_belief_assignment(1e-6);
        let opts = LinBpOptions {
            max_iter: 1500,
            tol: 1e-16,
            ..Default::default()
        };
        let h = ho.scale(eps);
        let lin = linbp_on(&adj, &labels, &h, &opts).unwrap();
        let star = linbp_star_on(&adj, &labels, &h, &opts).unwrap();
        let f1_of = |r: &lsbp::linbp::LinBpResult| {
            if r.diverged {
                f64::NAN
            } else {
                accuracy(&gt, &r.beliefs.top_belief_assignment(1e-6))
            }
        };
        let sbp_f1 = accuracy(&gt, &sbp_tops);
        println!(
            "{eps:>10.1e} {:>7} {:>9.4} {:>9.4} {:>9.4}",
            bp_r.converged,
            f1_of(&lin),
            f1_of(&star),
            sbp_f1
        );
    }
    println!(
        "\nShape check vs paper (Fig. 11b): LinBP/LinBP* F1 ≈ 1 while BP converges and\n\
         drop when it stops; SBP lower (ties on the heterogeneous network) but > 0.95."
    );
}
