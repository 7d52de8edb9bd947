//! `label` and `label_paged`: offline labelling of the DBLP-like network
//! through the `*_on` entry points, on a resident `CsrMatrix` or on a
//! `PagedCsr` spilled at half the CSR's bytes in 8 shards.
//!
//! Each round draws fresh 5% labels (ground-truth classes) and runs LinBP
//! to tolerance, a fixed-budget exact LinBP past bitwise stationarity and
//! SBP from scratch; `label` then updates SBP incrementally (1‰ new labels,
//! then a small burst of new edges). `label_paged` checks every answer
//! bitwise against the same solve on the resident matrix.

use crate::common::{self, bitwise_eq, max_abs_diff, repeated_setup, timed};
use crate::layers::{self, Spec};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{block_median, median};
use crate::trace::{self, span};
use crate::Ctx;
use lsbp::prelude::*;
use lsbp_graph::generators::{dblp_like, DblpConfig};
use lsbp_linalg::Mat;
use lsbp_sparse::CsrMatrix;

/// The graph seed: one fixed network, so runs differ only in their labels.
const GRAPH_SEED: u64 = 42;
/// Sweeps of the fixed-budget exact solve (tol 0): well past the sweep at
/// which every row is bitwise stationary on this network.
const FIXED_SWEEPS: usize = 100;
/// Shards and budget share of the paged store.
const SHARDS: usize = 8;

struct Setup {
    adj: CsrMatrix,
    classes: Vec<usize>,
    paged: Option<(PagedCsr, std::path::PathBuf)>,
}

/// Bytes the resident CSR occupies (row offsets, column indices, values).
pub fn csr_bytes(adj: &CsrMatrix) -> usize {
    (adj.n_rows() + 1) * std::mem::size_of::<usize>() + adj.nnz() * (4 + 8)
}

/// Spills `adj` to a fresh store under the run's output directory and
/// opens it with a buffer pool of half the CSR's bytes.
pub fn spill_half(ctx: &Ctx, adj: &CsrMatrix, tag: &str) -> (PagedCsr, std::path::PathBuf) {
    let path = ctx.out_dir().join(format!(
        "{tag}-seed{}-pid{}.lsbp",
        ctx.seed,
        std::process::id()
    ));
    let opts = PagedOptions::default().with_budget(Some(csr_bytes(adj) / 2));
    let paged = span("shard_file.spill", 0, || {
        PagedCsr::spill(adj, &path, SHARDS, opts)
    })
    .expect("spilling the benchmark graph");
    (paged, path)
}

pub fn run(ctx: &Ctx, r: &mut Report, paged: bool) {
    let k = 4;
    let cfg = ParallelismConfig::from_env();
    let h_o = CouplingMatrix::homophily(k, 0.6)
        .expect("homophily coupling is valid")
        .residual();
    let h = h_o.scale(0.005);
    let dblp = if ctx.tiny {
        DblpConfig::tiny()
    } else {
        DblpConfig::default()
    };

    let mut graph_secs = Vec::new();
    let mut spill_secs = Vec::new();
    let setup = repeated_setup(r, || {
        let ((adj, classes), t) = timed(|| {
            span("graph.build", 0, || {
                let net = dblp_like(&dblp, GRAPH_SEED);
                (net.graph.adjacency(), net.classes)
            })
        });
        graph_secs.push(t);
        let paged = paged.then(|| {
            let (p, t) = timed(|| spill_half(ctx, &adj, "label_paged"));
            spill_secs.push(t);
            p
        });
        Setup {
            adj,
            classes,
            paged,
        }
    });
    let n = setup.adj.n_rows();
    r.fact("graph", "dblp_like");
    r.fact("nodes", n);
    r.fact("directed_edges", setup.adj.nnz());
    r.fact("k", k);
    r.layer("graph.build_s", median(&graph_secs), "s");
    if paged {
        r.layer("shard_file.spill_s", median(&spill_secs), "s");
        r.fact("pager_budget_bytes", csr_bytes(&setup.adj) / 2);
        r.fact("pager_shards", SHARDS);
    }
    let op: &dyn PropagationOperator = match &setup.paged {
        Some((p, _)) => p,
        None => &setup.adj,
    };

    let converging = LinBpOptions {
        max_iter: 1000,
        tol: 1e-9,
        norm: ToleranceNorm::MaxAbs,
        damping: 0.0,
        divergence_guard: 1e12,
        parallelism: cfg,
    };
    let fixed = LinBpOptions {
        max_iter: if ctx.tiny { 60 } else { FIXED_SWEEPS },
        tol: 0.0,
        ..converging
    };
    r.fact("fixed_sweeps", fixed.max_iter);

    // Every phase draws the same inputs, round by round, so the traced and
    // the untraced half of a traced run are comparable.
    let mut phase = |seconds: f64, r: &mut Report| -> (f64, f64) {
        let mut round_no = 0u64;
        let mut linbp_s = Vec::new();
        let mut fixed_s = Vec::new();
        let mut sbp_s = Vec::new();
        let mut update_s = Vec::new();
        let mut round_s = Vec::new();
        let mut iterations = Vec::new();
        let mut measured = 0.0;
        while measured < seconds || linbp_s.is_empty() {
            round_no += 1;
            let req = round_no;
            let mut rng = Rng::stream(ctx.seed, round_no);
            let labels = common::draw_labels(
                &mut rng,
                n,
                k,
                (n / 20).max(k),
                |v| setup.classes[v],
                |_| false,
            );
            // Inputs of the incremental update, built before the clock.
            let additions = common::draw_labels(
                &mut rng,
                n,
                k,
                (n / 1000).max(1),
                |v| setup.classes[v],
                |v| labels.is_explicit(v),
            );
            let new_edges = new_edge_burst(&mut rng, &setup.adj, 10);
            let adj_new = (!paged).then(|| with_edges(&setup.adj, &new_edges));

            let (lin, t_lin) = timed(|| {
                span("solver.linbp_on", req, || {
                    linbp_on(op, &labels, &h, &converging)
                })
            });
            let (fix, t_fix) = timed(|| {
                span("solver.linbp_fixed", req, || {
                    linbp_on(op, &labels, &h, &fixed)
                })
            });
            let (sb, t_sbp) = timed(|| span("sbp.sbp_on", req, || sbp_on(op, &labels, &h_o, &cfg)));
            r.attempted += 3;
            let (Ok(lin), Ok(fix), Ok(sb)) = (lin, fix, sb) else {
                r.failed += 1;
                continue;
            };
            let mut t_update = 0.0;
            if let Some(adj_new) = &adj_new {
                let (updated, t) = timed(|| {
                    span("sbp.update", req, || {
                        let step = span("sbp.add_explicit", req, || {
                            sbp_add_explicit(&setup.adj, &h_o, &sb, &additions)
                        })?;
                        span("sbp.add_edges", req, || {
                            sbp_add_edges(adj_new, &new_edges, &h_o, &step)
                        })
                    })
                });
                r.attempted += 1;
                t_update = t;
                match updated {
                    Ok(updated) => {
                        update_s.push(t);
                        if !trace::enabled() {
                            check_update(r, adj_new, &labels, &additions, &h_o, &cfg, &updated);
                        }
                    }
                    Err(_) => r.failed += 1,
                }
            }
            measured += t_lin + t_fix + t_sbp + t_update;
            linbp_s.push(t_lin);
            fixed_s.push(t_fix);
            sbp_s.push(t_sbp);
            round_s.push(t_fix + t_sbp + t_update);
            iterations.push(lin.iterations as f64);

            if trace::enabled() {
                continue;
            }
            // Correctness, outside the clock.
            r.check(
                "linbp_converged",
                lin.converged && !lin.diverged,
                format!("round {round_no}: {} iterations", lin.iterations),
            );
            let gap = max_abs_diff(lin.beliefs.residual(), fix.beliefs.residual());
            r.check(
                "fixed_budget_matches_converging",
                gap <= 1e-8,
                format!("round {round_no}: max |Δ| = {gap:e}"),
            );
            if paged {
                let res_lin =
                    linbp_on(&setup.adj, &labels, &h, &converging).expect("resident linbp");
                let res_fix = linbp_on(&setup.adj, &labels, &h, &fixed).expect("resident linbp");
                let res_sbp = sbp_on(&setup.adj, &labels, &h_o, &cfg).expect("resident sbp");
                let same = same_linbp(&lin, &res_lin)
                    && same_linbp(&fix, &res_fix)
                    && bitwise_eq(sb.beliefs.residual(), res_sbp.beliefs.residual());
                r.check(
                    "paged_bitwise_equals_resident",
                    same,
                    format!("round {round_no}"),
                );
            }
        }
        let rounds = linbp_s.len();
        r.fact("rounds", rounds);
        r.named("linbp_s", block_median(&linbp_s), "s");
        r.named("linbp_fixed_s", block_median(&fixed_s), "s");
        r.named("sbp_s", block_median(&sbp_s), "s");
        if !paged {
            r.named("sbp_update_s", block_median(&update_s), "s");
        }
        r.fact("linbp_iterations_median", median(&iterations));
        (block_median(&linbp_s) * 1e3, block_median(&round_s) * 1e3)
    };

    let spec_labels = {
        let mut rng = Rng::stream(ctx.seed, u64::MAX);
        common::draw_labels(
            &mut rng,
            n,
            k,
            (n / 20).max(k),
            |v| setup.classes[v],
            |_| false,
        )
    };
    let spec = Spec {
        adj: &setup.adj,
        k,
        h: &h,
        h_o: &h_o,
        labels: &spec_labels,
        fixed_sweeps: fixed.max_iter,
    };
    layers::measure(ctx, r, &mut phase, &spec);
    r.named("peak_rss_mb", common::peak_rss_mb(), "MiB");

    if let Some((p, path)) = setup.paged {
        drop(p);
        let _ = std::fs::remove_file(path);
    }
}

/// Beliefs, iteration count and final delta all bitwise equal.
fn same_linbp(a: &LinBpResult, b: &LinBpResult) -> bool {
    a.iterations == b.iterations
        && a.final_delta.to_bits() == b.final_delta.to_bits()
        && bitwise_eq(a.beliefs.residual(), b.beliefs.residual())
}

/// `count` new undirected unit-weight edges between distinct nodes that
/// are not yet adjacent.
pub fn new_edge_burst(rng: &mut Rng, adj: &CsrMatrix, count: usize) -> Vec<(usize, usize, f64)> {
    let n = adj.n_rows();
    let mut out: Vec<(usize, usize, f64)> = Vec::with_capacity(count);
    while out.len() < count {
        let (s, t) = (rng.below(n), rng.below(n));
        let dup = out
            .iter()
            .any(|&(a, b, _)| (a, b) == (s, t) || (a, b) == (t, s));
        if s != t && adj.entry_index(s, t).is_none() && !dup {
            out.push((s, t, 1.0));
        }
    }
    out
}

/// `adj` with the undirected `edges` added in both directions.
pub fn with_edges(adj: &CsrMatrix, edges: &[(usize, usize, f64)]) -> CsrMatrix {
    let both: Vec<(usize, usize, f64)> = edges
        .iter()
        .flat_map(|&(s, t, w)| [(s, t, w), (t, s, w)])
        .collect();
    adj.try_with_edge_deltas(&both)
        .expect("new edges are within range")
}

/// The incremental SBP update must reach SBP from scratch on the grown
/// graph with the union of labels.
fn check_update(
    r: &mut Report,
    adj_new: &CsrMatrix,
    labels: &ExplicitBeliefs,
    additions: &ExplicitBeliefs,
    h_o: &Mat,
    cfg: &ParallelismConfig,
    updated: &SbpResult,
) {
    let mut all = labels.clone();
    for v in additions.explicit_nodes() {
        all.set_residual(v, additions.row(v))
            .expect("addition rows have k entries");
    }
    let scratch = sbp_on(adj_new, &all, h_o, cfg).expect("scratch sbp");
    let gap = max_abs_diff(updated.beliefs.residual(), scratch.beliefs.residual());
    r.check(
        "sbp_update_matches_scratch",
        gap <= 1e-9,
        format!("max |Δ| = {gap:e}"),
    );
}
