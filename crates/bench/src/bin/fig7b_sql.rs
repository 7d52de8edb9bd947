//! Fig. 7(b) + the SQL columns of Fig. 7(c): scalability of the
//! relational-engine LinBP, SBP and ΔSBP.
//!
//! Protocol (Sect. 7): LinBP runs 5 iterations; SBP runs to termination;
//! ΔSBP updates 1‰ of the nodes with new explicit beliefs on top of a 5%
//! labeled graph. Graphs #1–#4 by default; `--max 6` for more. The
//! relational engine stands in for the paper's disk-based PostgreSQL: its
//! LinBP costs two orders of magnitude more than the in-memory solve
//! (graph #3: ≈ 125 ms against ≈ 0.7 ms on a 2-core x86-64 machine), and
//! each graph up the schedule costs about 4–5× the one before.
//! `cargo run --release -p lsbp-bench --bin fig7b_sql`

use lsbp::prelude::*;
use lsbp_bench::{arg_usize, fmt_duration, kronecker_style_beliefs, random_labels, time_once};
use lsbp_graph::generators::{kronecker_graph, kronecker_schedule};
use lsbp_reldb::SqlDb;

fn main() {
    let max_id = arg_usize("--max", 4).min(9);
    let eps = 0.0005;
    let ho = CouplingMatrix::fig6b_residual();
    let h_scaled = ho.scale(eps);

    println!("relational engine: LinBP (5 iter) vs SBP (to fixpoint) vs ΔSBP (1‰ new labels)");
    println!(
        "{:>2} {:>10} {:>12} {:>12} {:>12} {:>12} {:>9} {:>10}",
        "#", "nodes", "edges", "LinBP", "SBP", "ΔSBP", "Lin/SBP", "SBP/ΔSBP"
    );
    for scale in kronecker_schedule().into_iter().filter(|s| s.id <= max_id) {
        let graph = kronecker_graph(scale.exponent);
        let n = graph.num_nodes();
        let e = kronecker_style_beliefs(n, 3, n / 20, scale.id as u64, false);
        let db_lin = SqlDb::new(&graph, &e, &h_scaled);
        let (_, linbp_time) = time_once(|| db_lin.linbp(5, true));

        // SBP uses the unscaled residual (its labels are scale-invariant).
        let mut db_sbp = SqlDb::new(&graph, &e, &ho);
        let (state, sbp_time) = time_once(|| db_sbp.sbp());
        let mut state = state;

        // ΔSBP: 1‰ of all nodes get new labels.
        let delta = random_labels(n, 3, (n / 1000).max(1), 1000 + scale.id as u64);
        let (_, delta_time) = time_once(|| db_sbp.sbp_add_explicit(&mut state, &delta));

        println!(
            "{:>2} {:>10} {:>12} {:>12} {:>12} {:>12} {:>9.1} {:>10.1}",
            scale.id,
            n,
            scale.directed_edges,
            fmt_duration(linbp_time),
            fmt_duration(sbp_time),
            fmt_duration(delta_time),
            linbp_time.as_secs_f64() / sbp_time.as_secs_f64(),
            sbp_time.as_secs_f64() / delta_time.as_secs_f64(),
        );
    }
    println!(
        "\nPaper's qualitative claims: SBP ≈ 10–20× faster than LinBP in SQL; ΔSBP\n\
         another ≈ 2.5–7.5× over SBP recomputation (Fig. 7c columns 4–6)."
    );
}
