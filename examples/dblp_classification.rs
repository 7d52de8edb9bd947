//! Multi-class classification of a heterogeneous bibliographic network —
//! the paper's Appendix F.2 DBLP experiment, on the synthetic DBLP-like
//! network (the paper's DBLP subset is not shipped; the generator
//! reproduces its shape).
//!
//! 4 research areas (AI / DB / DM / IR), ~10.4% of nodes labeled, 4-class
//! homophily coupling (Fig. 11a). Run with:
//! `cargo run --release --example dblp_classification`

use lsbp::prelude::*;
use lsbp_graph::generators::{dblp_like, DblpConfig, NodeKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const AREAS: [&str; 4] = ["AI", "DB", "DM", "IR"];

fn main() {
    // A mid-size instance so the example finishes in seconds; pass
    // `--full` for the paper-scale 36k-node network.
    let full = std::env::args().any(|a| a == "--full");
    let cfg = if full {
        DblpConfig::default()
    } else {
        DblpConfig {
            n_papers: 3_000,
            n_authors: 2_500,
            n_conferences: 20,
            n_terms_per_area: 400,
            n_shared_terms: 200,
            ..DblpConfig::default()
        }
    };
    let net = dblp_like(&cfg, 515);
    let n = net.graph.num_nodes();
    let adj = net.graph.adjacency();
    println!(
        "bibliographic network: {n} nodes, {} edges ({} papers / {} authors / {} conferences / terms)",
        net.graph.num_edges(),
        cfg.n_papers,
        cfg.n_authors,
        cfg.n_conferences,
    );

    // Label ~10.4% of all nodes, like the paper's DBLP subset.
    let mut rng = StdRng::seed_from_u64(1);
    let mut explicit = ExplicitBeliefs::new(n, 4);
    let target = (n as f64 * 0.104) as usize;
    let mut placed = 0;
    while placed < target {
        let v = rng.gen_range(0..n);
        if !explicit.is_explicit(v) {
            explicit.set_label(v, net.classes[v], 1.0).unwrap();
            placed += 1;
        }
    }
    println!(
        "labeled nodes: {placed} ({:.1}%)",
        100.0 * placed as f64 / n as f64
    );

    // Fig. 11a: 4-class homophily residual (diag 6, off −2), scaled inside
    // the convergence region.
    let ho = CouplingMatrix::fig11a_residual();
    let eps_exact = eps_max_exact_linbp(&ho, &adj, 1e-4);
    let eps = 0.5 * eps_exact;
    println!("εH = {eps:.2e} (exact LinBP bound {eps_exact:.2e})");

    let lin = linbp_on(&adj, &explicit, &ho.scale(eps), &LinBpOptions::default()).unwrap();
    assert!(lin.converged);
    let sbp_r = sbp_on(&adj, &explicit, &ho, &ParallelismConfig::default()).unwrap();

    // Accuracy per node kind (papers are easiest: they touch conference +
    // terms + authors; shared terms are noisiest).
    for (name, beliefs) in [("LinBP", &lin.beliefs), ("SBP", &sbp_r.beliefs)] {
        println!("\n{name} accuracy by entity kind:");
        for kind in [
            NodeKind::Paper,
            NodeKind::Author,
            NodeKind::Conference,
            NodeKind::Term,
        ] {
            let mut correct = 0usize;
            let mut total = 0usize;
            for v in 0..n {
                if explicit.is_explicit(v) || net.kinds[v] != kind {
                    continue;
                }
                let tops = beliefs.top_beliefs(v, 1e-9);
                if tops.len() == 1 {
                    total += 1;
                    if tops[0] == net.classes[v] {
                        correct += 1;
                    }
                }
            }
            if total > 0 {
                println!(
                    "  {kind:?}:{}{:.1}% of {total}",
                    " ".repeat(12 - format!("{kind:?}").len()),
                    100.0 * correct as f64 / total as f64
                );
            }
        }
    }

    // F1 of SBP w.r.t. LinBP (the paper's Fig. 11b comparison).
    let gt = lin.beliefs.top_belief_assignment(1e-6);
    let ours = sbp_r.beliefs.top_belief_assignment(1e-9);
    let report = quality(&gt, &ours);
    println!(
        "\nSBP vs LinBP: precision {:.3}, recall {:.3}, F1 {:.3}",
        report.precision, report.recall, report.f1
    );

    // Show a few classified papers.
    println!("\nsample classifications:");
    let mut shown = 0;
    for v in 0..n {
        if net.kinds[v] == NodeKind::Paper && !explicit.is_explicit(v) {
            let tops = lin.beliefs.top_beliefs(v, 1e-9);
            if tops.len() == 1 {
                println!(
                    "  paper {v:>5} → {} (truth {})",
                    AREAS[tops[0]], AREAS[net.classes[v]]
                );
                shown += 1;
                if shown == 5 {
                    break;
                }
            }
        }
    }
}
