//! Fig. 7(c): the combined timing table — in-memory BP/LinBP and
//! relational LinBP/SBP/ΔSBP side by side, with the paper's three
//! speed-up ratio columns (BP/LinBP, LinBP/SBP, SBP/ΔSBP).
//!
//! Default graphs #1–#4 (`--max N` up to 6). The relational engine
//! dominates the runtime, as the disk-bound PostgreSQL did in the paper:
//! on graph #3 its LinBP (Algorithm 1's SQL script through the planner
//! and executor) takes ≈ 60–90 ms against ≈ 0.7 ms for the in-memory
//! LinBP (2-core x86-64 machine).
//! `cargo run --release -p lsbp-bench --bin fig7c_table`

use lsbp::prelude::*;
use lsbp_bench::{arg_usize, fmt_duration, kronecker_style_beliefs, random_labels, time_once};
use lsbp_graph::generators::{kronecker_graph, kronecker_schedule};
use lsbp_reldb::SqlDb;

fn main() {
    let max_id = arg_usize("--max", 4).min(9);
    let eps = 0.0005;
    let ho = CouplingMatrix::fig6b_residual();
    let h_scaled = ho.scale(eps);
    let h_raw = CouplingMatrix::from_residual(&ho, eps).unwrap();

    println!(
        "{:>2} | {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>8} {:>8} {:>9}",
        "#",
        "BP(mem)",
        "LinBP(mem)",
        "LinBP(rel)",
        "SBP(rel)",
        "ΔSBP(rel)",
        "BP/Lin",
        "Lin/SBP",
        "SBP/ΔSBP"
    );
    for scale in kronecker_schedule().into_iter().filter(|s| s.id <= max_id) {
        let graph = kronecker_graph(scale.exponent);
        let adj = graph.adjacency();
        let n = graph.num_nodes();
        let e = kronecker_style_beliefs(n, 3, n / 20, scale.id as u64, false);

        let bp_opts = BpOptions {
            max_iter: 5,
            tol: 0.0,
            ..Default::default()
        };
        let (_, t_bp) = time_once(|| bp(&adj, &e, h_raw.raw(), &bp_opts).unwrap());
        let lin_opts = LinBpOptions {
            max_iter: 5,
            tol: 0.0,
            ..Default::default()
        };
        let (_, t_lin_mem) = time_once(|| linbp_on(&adj, &e, &h_scaled, &lin_opts).unwrap());

        let db_lin = SqlDb::new(&graph, &e, &h_scaled);
        let (_, t_lin_rel) = time_once(|| db_lin.linbp(5, true));
        let mut db_sbp = SqlDb::new(&graph, &e, &ho);
        let (state, t_sbp) = time_once(|| db_sbp.sbp());
        let mut state = state;
        let delta = random_labels(n, 3, (n / 1000).max(1), 77 + scale.id as u64);
        let (_, t_delta) = time_once(|| db_sbp.sbp_add_explicit(&mut state, &delta));

        println!(
            "{:>2} | {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>8.0} {:>8.1} {:>9.1}",
            scale.id,
            fmt_duration(t_bp),
            fmt_duration(t_lin_mem),
            fmt_duration(t_lin_rel),
            fmt_duration(t_sbp),
            fmt_duration(t_delta),
            t_bp.as_secs_f64() / t_lin_mem.as_secs_f64(),
            t_lin_rel.as_secs_f64() / t_sbp.as_secs_f64(),
            t_sbp.as_secs_f64() / t_delta.as_secs_f64(),
        );
    }
    println!(
        "\nPaper's Fig. 7c shape: BP/LinBP grows 60→642 with size; LinBP/SBP ≈ 10–20;\n\
         SBP/ΔSBP ≈ 2.5–7.5. Absolute numbers differ (in-memory engine vs PostgreSQL)."
    );
}
