//! Fig. 7(g): quality of SBP and LinBP\* with LinBP as ground truth,
//! sweeping εH over [1e−8, 1e−2].
//!
//! The paper's observations to reproduce: LinBP\* ≈ LinBP exactly while
//! both converge (r = p, single curve); SBP matches closely with recall
//! above precision (SBP reports tied top beliefs where LinBP resolves
//! them) — averaged r ≈ 0.995, p ≈ 0.978 without tie-breaking digits.
//! `cargo run --release -p lsbp-bench --bin fig7g_quality [--ties 1]`

use lsbp::prelude::*;
use lsbp_bench::{arg_usize, kronecker_style_beliefs, log_sweep};
use lsbp_graph::generators::{kronecker_graph, kronecker_schedule};

fn main() {
    let id = arg_usize("--graph", 5).clamp(1, 9);
    let points = arg_usize("--points", 13);
    // `--ties 1` keeps the raw 0.01-grid beliefs (more ties, the paper's
    // oscillating curves); default adds tie-breaking digits.
    let keep_ties = arg_usize("--ties", 0) == 1;
    let scale = kronecker_schedule()[id - 1];
    let graph = kronecker_graph(scale.exponent);
    let adj = graph.adjacency();
    let n = graph.num_nodes();
    let e = kronecker_style_beliefs(n, 3, n / 20, 5, !keep_ties);
    let ho = CouplingMatrix::fig6b_residual();

    // SBP is εH-independent: compute once.
    let sbp_r = sbp_on(&adj, &e, &ho, &ParallelismConfig::default()).unwrap();
    let sbp_tops = sbp_r.beliefs.top_belief_assignment(1e-9);

    println!(
        "graph #{id}: {n} nodes, ties {}",
        if keep_ties {
            "kept (paper's oscillating regime)"
        } else {
            "broken with extra digits"
        }
    );
    println!(
        "{:>10} | {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "εH", "L* r=p", "L* F1", "SBP r", "SBP p", "SBP F1"
    );
    let opts = LinBpOptions {
        max_iter: 2000,
        tol: 1e-16,
        ..Default::default()
    };
    let mut sbp_r_sum = 0.0;
    let mut sbp_p_sum = 0.0;
    let mut count = 0usize;
    for eps in log_sweep(1e-8, 1e-2, points) {
        let h = ho.scale(eps);
        let lin = linbp_on(&adj, &e, &h, &opts).unwrap();
        if lin.diverged {
            println!("{eps:>10.1e} |   (LinBP diverged — right edge of Fig. 7g)");
            continue;
        }
        let gt = lin.beliefs.top_belief_assignment(1e-6);
        let star = linbp_star_on(&adj, &e, &h, &opts).unwrap();
        let star_q = quality(&gt, &star.beliefs.top_belief_assignment(1e-6));
        let sbp_q = quality(&gt, &sbp_tops);
        sbp_r_sum += sbp_q.recall;
        sbp_p_sum += sbp_q.precision;
        count += 1;
        println!(
            "{eps:>10.1e} | {:>9.4} {:>9.4} | {:>9.4} {:>9.4} {:>9.4}",
            star_q.recall, star_q.f1, sbp_q.recall, sbp_q.precision, sbp_q.f1
        );
    }
    if count > 0 {
        println!(
            "\naveraged SBP vs LinBP: recall {:.4} (paper 0.995), precision {:.4} (paper 0.978)",
            sbp_r_sum / count as f64,
            sbp_p_sum / count as f64
        );
    }
    println!(
        "Shape check vs paper: LinBP* ≡ LinBP while convergent; SBP slightly lower\n\
         precision than recall (tied top beliefs); accuracy > 98.6% throughout."
    );
}
