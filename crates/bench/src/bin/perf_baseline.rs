//! Kernel performance baseline — the `BENCH_*.json` perf trajectory.
//!
//! Times the workspace's hot kernels (SpMV, SpMM, CSR transpose, LinBP
//! iterations, BP message rounds, SBP) on generated Kronecker and
//! DBLP-like graphs across a sweep of thread counts, verifies every
//! parallel result is **bitwise identical** to the serial reference, and
//! writes the measurements as JSON so future PRs can prove their
//! speedups (or catch regressions) against a recorded baseline.
//!
//! ```text
//! cargo run --release -p lsbp-bench --bin perf_baseline -- \
//!     [--m 9] [--reps 3] [--threads 1,2,4,8] [--dblp 1] [--out BENCH_kernels.json]
//! ```
//!
//! `--m` sets the largest Kronecker exponent (default 9: 19,683 nodes /
//! 262,144 directed edges — comfortably past the 100k-edge mark);
//! `--dblp 0` and a small `--m` make a CI smoke run, with `--min-work 1`
//! forcing even those tiny kernels through the parallel code path so the
//! bitwise-identity assertion stays meaningful at smoke sizes.

use lsbp::prelude::*;
use lsbp_bench::{arg_usize, fmt_duration, kronecker_style_beliefs, time_once};
use lsbp_graph::generators::{dblp_like, erdos_renyi_gnm, kronecker_graph, DblpConfig};
use lsbp_graph::Graph;
use lsbp_linalg::{weight_balanced_ranges, Mat};
use lsbp_net::{ErrorCode, LinBpParams, Request, Response, WireEdge, WireNorm, WireSeed};
use lsbp_server::{DegradationPolicy, ServerConfig, ServerCore};
use lsbp_sparse::{CsrMatrix, FusedLinBpStep, PropagationOperator, ShardedCsr};
use std::ops::Range;
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// One timed (graph, kernel, thread-count) measurement.
struct Record {
    graph: String,
    nodes: usize,
    directed_edges: usize,
    kernel: &'static str,
    threads: usize,
    secs: f64,
    speedup_vs_serial: f64,
    identical_to_serial: bool,
}

fn arg_string(key: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

fn arg_thread_list() -> Vec<usize> {
    let raw = arg_string("--threads", "1,2,4,8");
    let mut threads: Vec<usize> = raw
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&t| t >= 1)
        .collect();
    if !threads.contains(&1) {
        threads.push(1);
    }
    threads.sort_unstable();
    threads.dedup();
    threads
}

/// Times `run` at every thread count (best of `reps`), using the
/// 1-thread run as the serial reference for both the speedup column and
/// the bitwise-identity check.
#[allow(clippy::too_many_arguments)] // a flat experiment descriptor
fn bench_kernel<T: PartialEq>(
    records: &mut Vec<Record>,
    graph: &str,
    nodes: usize,
    directed_edges: usize,
    kernel: &'static str,
    threads: &[usize],
    reps: usize,
    mut run: impl FnMut(&ParallelismConfig) -> T,
) {
    let min_work = arg_usize("--min-work", 0);
    let reference = run(&ParallelismConfig::serial());
    let mut serial_secs = f64::NAN;
    for &t in threads {
        let mut cfg = ParallelismConfig::with_threads(t);
        if min_work > 0 {
            cfg = cfg.with_min_work(min_work);
        }
        let mut best = f64::INFINITY;
        let mut output = None;
        for _ in 0..reps {
            let (out, d) = time_once(|| run(&cfg));
            best = best.min(d.as_secs_f64());
            output = Some(out);
        }
        let identical = output.as_ref() == Some(&reference);
        if t == 1 {
            serial_secs = best;
        }
        let record = Record {
            graph: graph.to_string(),
            nodes,
            directed_edges,
            kernel,
            threads: t,
            secs: best,
            speedup_vs_serial: serial_secs / best,
            identical_to_serial: identical,
        };
        println!(
            "{:>14} {:>12} t={:<2} {:>12.6}s  speedup {:>5.2}x  identical={}",
            record.graph, record.kernel, t, record.secs, record.speedup_vs_serial, identical
        );
        records.push(record);
    }
}

/// Runs the full kernel suite on one graph.
#[allow(clippy::too_many_arguments)] // a flat experiment descriptor
fn run_suite(
    records: &mut Vec<Record>,
    label: &str,
    graph: &Graph,
    k: usize,
    h_residual_unscaled: &Mat,
    eps: f64,
    threads: &[usize],
    reps: usize,
) {
    let adj = graph.adjacency();
    let n = graph.num_nodes();
    let de = graph.num_directed_edges();
    println!("\n== {label}: {n} nodes, {de} directed edges, k={k} ==");

    let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 * 0.1 - 0.6).collect();
    bench_kernel(records, label, n, de, "spmv", threads, reps, |cfg| {
        let mut y = vec![0.0; n];
        adj.spmv_into_with(&x, &mut y, cfg);
        y
    });

    let b = Mat::from_fn(n, k, |r, c| ((r * k + c) % 17) as f64 * 0.01 - 0.08);
    bench_kernel(records, label, n, de, "spmm", threads, reps, |cfg| {
        adj.spmm_with(&b, cfg)
    });

    bench_kernel(records, label, n, de, "transpose", threads, reps, |cfg| {
        adj.transpose_with(cfg)
    });

    // Dense matmul at belief shape: B̂·Ĥ (n×k · k×k) — the per-iteration
    // dense factor of LinBP, now a 4-lane kernel.
    let hk = h_residual_unscaled.clone();
    bench_kernel(records, label, n, de, "matmul", threads, reps, |cfg| {
        let mut out = Mat::zeros(n, k);
        b.matmul_into_with(&hk, &mut out, cfg);
        out
    });

    let explicit = kronecker_style_beliefs(n, k, (n / 20).max(1), 7, false);
    let h = h_residual_unscaled.scale(eps);
    bench_kernel(records, label, n, de, "linbp_5iter", threads, reps, |cfg| {
        let opts = LinBpOptions {
            max_iter: 5,
            tol: 0.0,
            parallelism: *cfg,
            ..Default::default()
        };
        linbp(&adj, &explicit, &h, &opts)
            .expect("linbp dimensions are consistent")
            .beliefs
            .residual()
            .clone()
    });

    let h_raw = CouplingMatrix::from_residual(h_residual_unscaled, eps)
        .expect("scaled coupling is a valid BP potential");
    bench_kernel(records, label, n, de, "bp_3rounds", threads, reps, |cfg| {
        let opts = BpOptions {
            max_iter: 3,
            tol: 0.0,
            parallelism: *cfg,
            ..Default::default()
        };
        bp(&adj, &explicit, h_raw.raw(), &opts)
            .expect("bp dimensions are consistent")
            .beliefs
            .residual()
            .clone()
    });

    bench_kernel(records, label, n, de, "sbp", threads, reps, |cfg| {
        let r = sbp_with(&adj, &explicit, h_residual_unscaled, cfg)
            .expect("sbp dimensions are consistent");
        (r.beliefs.residual().clone(), r.geodesics.g)
    });

    // Batched multi-query LinBP (q = 8): one stacked fused pass per
    // iteration answers eight seed-sets.
    let batch_queries: Vec<ExplicitBeliefs> = (0..8)
        .map(|j| kronecker_style_beliefs(n, k, (n / 40).max(1), 11 + j as u64, false))
        .collect();
    bench_kernel(
        records,
        label,
        n,
        de,
        "linbp_batch_q8",
        threads,
        reps,
        |cfg| {
            let opts = LinBpOptions {
                max_iter: 5,
                tol: 0.0,
                parallelism: *cfg,
                ..Default::default()
            };
            linbp_batch(&adj, &batch_queries, &h, &opts)
                .expect("batch dimensions are consistent")
                .into_iter()
                .map(|r| r.beliefs.residual().clone())
                .collect::<Vec<_>>()
        },
    );
}

/// One scalar-vs-SIMD kernel measurement (single-threaded).
struct SimdRecord {
    graph: String,
    kernel: &'static str,
    scalar_secs: f64,
    simd_secs: f64,
    speedup: f64,
}

/// One fused-vs-unfused LinBP step measurement (single-threaded).
struct FusedRecord {
    graph: String,
    nodes: usize,
    directed_edges: usize,
    unfused_secs: f64,
    fused_secs: f64,
    speedup: f64,
    identical: bool,
}

/// Pre-PR4 scalar kernel replicas — the "old" side of the `simd`
/// old-vs-new comparison, kept here as benchmark baselines exactly like
/// the scoped-spawn executor replica below.
mod scalar_ref {
    use super::*;

    /// The old sequential SpMV row kernel (single accumulator per row).
    pub fn spmv(adj: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (&c, &v) in adj.row_cols(r).iter().zip(adj.row_values(r)) {
                acc += v * x[c as usize];
            }
            *out = acc;
        }
    }

    /// The old SpMM row kernel — a faithful replica of the pre-PR4
    /// per-entry element-wise zip (same accumulation order as today's
    /// `axpy4`-based kernel, so this measures the unroll alone).
    pub fn spmm(adj: &CsrMatrix, b: &Mat, out: &mut Mat) {
        let row_len = b.cols();
        let block = out.as_mut_slice();
        block.iter_mut().for_each(|x| *x = 0.0);
        for r in 0..adj.n_rows() {
            let o_row = &mut block[r * row_len..(r + 1) * row_len];
            for (&c, &v) in adj.row_cols(r).iter().zip(adj.row_values(r)) {
                for (o, &bv) in o_row.iter_mut().zip(b.row(c as usize)) {
                    *o += v * bv;
                }
            }
        }
    }

    /// The old scalar ikj dense matmul — a faithful replica of the
    /// pre-PR4 `matmul_rows` inner loop: hoisted row slices, zero skip,
    /// element-wise zip (no per-element index arithmetic, so the timed
    /// difference is the 4-lane rewrite, not bounds-check noise).
    pub fn matmul(a: &Mat, b: &Mat, out: &mut Mat) {
        let row_len = b.cols();
        let block = out.as_mut_slice();
        block.iter_mut().for_each(|x| *x = 0.0);
        for i in 0..a.rows() {
            let a_row = a.row(i);
            let o_row = &mut block[i * row_len..(i + 1) * row_len];
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                for (o, &bv) in o_row.iter_mut().zip(b.row(k)) {
                    *o += a_ik * bv;
                }
            }
        }
    }

    /// The old sequential squared-difference sum.
    pub fn l2_diff(a: &Mat, b: &Mat) -> f64 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(&x, &y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    /// The old sequential max-abs-difference fold.
    pub fn max_abs_diff(a: &Mat, b: &Mat) -> f64 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .fold(0.0f64, |m, (&x, &y)| m.max((x - y).abs()))
    }
}

/// Times `f` (already looped `inner` times internally is NOT assumed:
/// this helper runs it `inner` times per sample) and returns best-of-reps
/// seconds per call.
fn best_secs_per_call(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let (_, d) = time_once(|| {
            for _ in 0..inner {
                f();
            }
        });
        best = best.min(d.as_secs_f64() / inner as f64);
    }
    best
}

/// Scalar-replica vs. 4-lane kernels on one graph, single-threaded —
/// the `simd` section of the JSON.
fn run_simd_suite(
    records: &mut Vec<SimdRecord>,
    label: &str,
    graph: &Graph,
    k: usize,
    reps: usize,
) {
    let adj = graph.adjacency();
    let n = graph.num_nodes();
    let cfg = ParallelismConfig::serial();
    let mut push = |kernel: &'static str, scalar_secs: f64, simd_secs: f64| {
        let rec = SimdRecord {
            graph: label.to_string(),
            kernel,
            scalar_secs,
            simd_secs,
            speedup: scalar_secs / simd_secs,
        };
        println!(
            "{:>14} {:>12} scalar {:>12.6}s  simd {:>12.6}s  speedup {:>5.2}x",
            rec.graph, rec.kernel, rec.scalar_secs, rec.simd_secs, rec.speedup
        );
        records.push(rec);
    };

    let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 * 0.1 - 0.6).collect();
    let mut y = vec![0.0f64; n];
    let scalar = best_secs_per_call(reps, 10, || scalar_ref::spmv(&adj, &x, &mut y));
    let simd = best_secs_per_call(reps, 10, || adj.spmv_into_with(&x, &mut y, &cfg));
    push("spmv", scalar, simd);

    let a = Mat::from_fn(n, k, |r, c| ((r * k + c) % 17) as f64 * 0.01 - 0.08);
    let mut spmm_out = Mat::zeros(n, k);
    let scalar = best_secs_per_call(reps, 10, || scalar_ref::spmm(&adj, &a, &mut spmm_out));
    let simd = best_secs_per_call(reps, 10, || adj.spmm_into_with(&a, &mut spmm_out, &cfg));
    push("spmm", scalar, simd);

    let hk = Mat::from_fn(k, k, |r, c| 0.11 * (r as f64 - c as f64) + 0.07);
    let mut out = Mat::zeros(n, k);
    let scalar = best_secs_per_call(reps, 10, || scalar_ref::matmul(&a, &hk, &mut out));
    let simd = best_secs_per_call(reps, 10, || a.matmul_into_with(&hk, &mut out, &cfg));
    push("matmul", scalar, simd);

    let b2 = Mat::from_fn(n, k, |r, c| ((r * k + c) % 19) as f64 * 0.01 - 0.09);
    let mut sink = 0.0f64;
    let scalar = best_secs_per_call(reps, 40, || sink += scalar_ref::l2_diff(&a, &b2));
    let simd = best_secs_per_call(reps, 40, || sink += a.l2_diff(&b2));
    push("l2_diff", scalar, simd);

    let scalar = best_secs_per_call(reps, 40, || sink += scalar_ref::max_abs_diff(&a, &b2));
    let simd = best_secs_per_call(reps, 40, || sink += a.max_abs_diff_with(&b2, &cfg));
    push("max_abs_diff", scalar, simd);
    assert!(sink.is_finite(), "benchmark sink went non-finite");
}

/// Fused vs. unfused LinBP step (5 iterations each, single-threaded) on
/// one graph — the `fused_linbp` section of the JSON. The unfused side is
/// the PR 3 per-iteration cost: `linbp_step` (SpMM + dense `·Ĥ` + add +
/// echo passes) plus the separate max-abs convergence pass.
fn run_fused_suite(
    records: &mut Vec<FusedRecord>,
    label: &str,
    graph: &Graph,
    k: usize,
    h_residual_unscaled: &Mat,
    eps: f64,
    reps: usize,
) {
    const ITERS: usize = 5;
    let adj = graph.adjacency();
    let n = graph.num_nodes();
    let de = graph.num_directed_edges();
    let cfg = ParallelismConfig::serial();
    let explicit = kronecker_style_beliefs(n, k, (n / 20).max(1), 7, false);
    let e_hat = explicit.residual_matrix().clone();
    let h = h_residual_unscaled.scale(eps);
    let h2 = h.matmul(&h);
    let degrees = adj.squared_weight_degrees();

    let run_unfused = || {
        let mut b = e_hat.clone();
        let mut next = Mat::zeros(n, k);
        let mut scratch = LinBpScratch::new(n, k);
        let mut delta = 0.0f64;
        for _ in 0..ITERS {
            linbp_step(
                &adj,
                &e_hat,
                &b,
                &h,
                Some(&h2),
                &degrees,
                &mut scratch,
                &mut next,
                &cfg,
            );
            delta = next.max_abs_diff_with(&b, &cfg);
            std::mem::swap(&mut b, &mut next);
        }
        (b, delta)
    };
    let run_fused = || {
        let mut b = e_hat.clone();
        let mut next = Mat::zeros(n, k);
        let mut deltas = [0.0f64];
        let step = FusedLinBpStep {
            e_hat: &e_hat,
            h: &h,
            h2: Some(&h2),
            degrees: &degrees,
            damping: 0.0,
        };
        for _ in 0..ITERS {
            adj.linbp_step_fused_with(&b, &step, &mut next, &mut deltas, &cfg);
            std::mem::swap(&mut b, &mut next);
        }
        (b, deltas[0])
    };

    let (unfused_out, unfused_delta) = run_unfused();
    let (fused_out, fused_delta) = run_fused();
    let identical = unfused_out
        .as_slice()
        .iter()
        .zip(fused_out.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits())
        && unfused_delta.to_bits() == fused_delta.to_bits();

    let mut unfused_secs = f64::INFINITY;
    let mut fused_secs = f64::INFINITY;
    for _ in 0..reps {
        let (_, d) = time_once(run_unfused);
        unfused_secs = unfused_secs.min(d.as_secs_f64());
        let (_, d2) = time_once(run_fused);
        fused_secs = fused_secs.min(d2.as_secs_f64());
    }
    let rec = FusedRecord {
        graph: label.to_string(),
        nodes: n,
        directed_edges: de,
        unfused_secs,
        fused_secs,
        speedup: unfused_secs / fused_secs,
        identical,
    };
    println!(
        "{:>14} fused_linbp ({ITERS} iters) unfused {:>12.6}s  fused {:>12.6}s  \
         speedup {:>5.2}x  identical={}",
        rec.graph, rec.unfused_secs, rec.fused_secs, rec.speedup, rec.identical
    );
    records.push(rec);
}

/// One full-vs-frontier LinBP solve measurement (single-threaded).
struct FrontierRecord {
    graph: String,
    nodes: usize,
    directed_edges: usize,
    iterations: usize,
    rows_active: u64,
    rows_skipped: u64,
    skip_ratio: f64,
    full_secs: f64,
    frontier_cold_secs: f64,
    frontier_warm_secs: f64,
    speedup: f64,
    identical: bool,
}

/// Active-frontier execution vs. full recomputation on a long fixed-budget
/// exact solve (`tol = 0`, every sweep runs). The solve iterates well past
/// bitwise stationarity, which is exactly the regime change-tracking is
/// for: once a row's inputs stop changing a single bit, the frontier
/// proves every later recomputation redundant and skips it — while the
/// full path re-derives the identical bits sweep after sweep. Beliefs,
/// iteration counts, and final deltas are asserted bitwise equal.
#[allow(clippy::too_many_arguments)] // a flat experiment descriptor
fn run_frontier_suite(
    records: &mut Vec<FrontierRecord>,
    label: &str,
    graph: &Graph,
    k: usize,
    h_residual_unscaled: &Mat,
    eps: f64,
    budget: usize,
    reps: usize,
) {
    let adj = graph.adjacency();
    let n = graph.num_nodes();
    let de = graph.num_directed_edges();
    let explicit = kronecker_style_beliefs(n, k, (n / 20).max(1), 7, false);
    let h = h_residual_unscaled.scale(eps);
    let run = |frontier: bool| {
        let opts = LinBpOptions {
            max_iter: budget,
            tol: 0.0,
            norm: ToleranceNorm::MaxAbs,
            damping: 0.0,
            divergence_guard: 1e12,
            parallelism: ParallelismConfig::serial().with_frontier(frontier),
        };
        linbp(&adj, &explicit, &h, &opts).expect("linbp dimensions are consistent")
    };

    let full = run(false);
    let frontier = run(true);
    let identical = full
        .beliefs
        .residual()
        .as_slice()
        .iter()
        .zip(frontier.beliefs.residual().as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits())
        && full.iterations == frontier.iterations
        && full.final_delta.to_bits() == frontier.final_delta.to_bits();

    let mut full_secs = f64::INFINITY;
    let mut frontier_cold_secs = f64::NAN;
    let mut frontier_warm_secs = f64::INFINITY;
    for rep in 0..reps {
        let (_, d) = time_once(|| run(false));
        full_secs = full_secs.min(d.as_secs_f64());
        let (_, d2) = time_once(|| run(true));
        if rep == 0 {
            frontier_cold_secs = d2.as_secs_f64();
        } else {
            frontier_warm_secs = frontier_warm_secs.min(d2.as_secs_f64());
        }
    }
    if !frontier_warm_secs.is_finite() {
        frontier_warm_secs = frontier_cold_secs;
    }
    let total = frontier.rows_active + frontier.rows_skipped;
    let rec = FrontierRecord {
        graph: label.to_string(),
        nodes: n,
        directed_edges: de,
        iterations: frontier.iterations,
        rows_active: frontier.rows_active,
        rows_skipped: frontier.rows_skipped,
        skip_ratio: frontier.rows_skipped as f64 / total.max(1) as f64,
        full_secs,
        frontier_cold_secs,
        frontier_warm_secs,
        speedup: full_secs / frontier_warm_secs,
        identical,
    };
    println!(
        "{:>14} frontier ({budget} sweeps) full {:>10.4}s  frontier cold {:>10.4}s / warm \
         {:>10.4}s  skip {:>5.1}%  speedup {:>5.2}x  identical={}",
        rec.graph,
        rec.full_secs,
        rec.frontier_cold_secs,
        rec.frontier_warm_secs,
        100.0 * rec.skip_ratio,
        rec.speedup,
        rec.identical
    );
    records.push(rec);
}

/// One monolithic-vs-sharded measurement (single-threaded).
struct ShardedRecord {
    graph: String,
    kernel: &'static str,
    shards: usize,
    monolithic_secs: f64,
    sharded_secs: f64,
    /// `monolithic_secs / sharded_secs` — ≥ 1 means the sharded layout is
    /// at least as fast; the acceptance bar is ≥ 0.95 (row-order shard
    /// streaming must cost at most 5% over the monolithic sweep).
    rel_throughput: f64,
    /// One-off cost of `ShardedCsr::from_csr` at this shard count — paid
    /// once when the layout is built, before any `*_on` call. Recorded so
    /// the "sharding is free" read-out stays honest about the conversion.
    build_secs: f64,
    identical: bool,
}

fn arg_shard_list() -> Vec<usize> {
    arg_string("--shards", "2,8")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&s: &usize| s >= 1)
        .collect()
}

/// Monolithic [`CsrMatrix`] vs. [`ShardedCsr`] across a shard-count
/// sweep, single-threaded, on the two kernels that dominate solves: the
/// fused LinBP step (5 iterations, exactly the `fused_linbp` protocol)
/// and the standalone SpMM — the `sharded` section of the JSON, with the
/// bitwise-identity check inline.
#[allow(clippy::too_many_arguments)] // a flat experiment descriptor
fn run_sharded_suite(
    records: &mut Vec<ShardedRecord>,
    label: &str,
    graph: &Graph,
    k: usize,
    h_residual_unscaled: &Mat,
    eps: f64,
    shard_sweep: &[usize],
    reps: usize,
) {
    const ITERS: usize = 5;
    let adj = graph.adjacency();
    let n = graph.num_nodes();
    let cfg = ParallelismConfig::serial();
    let explicit = kronecker_style_beliefs(n, k, (n / 20).max(1), 7, false);
    let e_hat = explicit.residual_matrix().clone();
    let h = h_residual_unscaled.scale(eps);
    let h2 = h.matmul(&h);
    let degrees = adj.squared_weight_degrees();
    let b_spmm = Mat::from_fn(n, k, |r, c| ((r * k + c) % 17) as f64 * 0.01 - 0.08);

    let run_linbp = |op: &dyn PropagationOperator| {
        let mut b = e_hat.clone();
        let mut next = Mat::zeros(n, k);
        let mut deltas = [0.0f64];
        let step = FusedLinBpStep {
            e_hat: &e_hat,
            h: &h,
            h2: Some(&h2),
            degrees: &degrees,
            damping: 0.0,
        };
        for _ in 0..ITERS {
            op.linbp_step_fused_with(&b, &step, &mut next, &mut deltas, &cfg);
            std::mem::swap(&mut b, &mut next);
        }
        (b, deltas[0])
    };
    let run_spmm = |op: &dyn PropagationOperator| {
        let mut out = Mat::zeros(n, k);
        op.spmm_into_with(&b_spmm, &mut out, &cfg);
        out
    };

    let best_of = |f: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let (_, d) = time_once(&mut *f);
            best = best.min(d.as_secs_f64());
        }
        best
    };

    let (mono_linbp, mono_delta) = run_linbp(&adj);
    let mono_linbp_secs = best_of(&mut || {
        let _ = run_linbp(&adj);
    });
    let mono_spmm = run_spmm(&adj);
    let mono_spmm_secs = best_of(&mut || {
        let _ = run_spmm(&adj);
    });

    for &shards in shard_sweep {
        let build_secs = best_of(&mut || {
            let _ = ShardedCsr::from_csr(&adj, shards);
        });
        let sharded = ShardedCsr::from_csr(&adj, shards);
        let (shard_linbp, shard_delta) = run_linbp(&sharded);
        let linbp_identical = mono_linbp
            .as_slice()
            .iter()
            .zip(shard_linbp.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits())
            && mono_delta.to_bits() == shard_delta.to_bits();
        let shard_linbp_secs = best_of(&mut || {
            let _ = run_linbp(&sharded);
        });
        let shard_spmm = run_spmm(&sharded);
        let spmm_identical = mono_spmm
            .as_slice()
            .iter()
            .zip(shard_spmm.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        let shard_spmm_secs = best_of(&mut || {
            let _ = run_spmm(&sharded);
        });
        for (kernel, mono_secs, shard_secs, identical) in [
            (
                "linbp_5iter",
                mono_linbp_secs,
                shard_linbp_secs,
                linbp_identical,
            ),
            ("spmm", mono_spmm_secs, shard_spmm_secs, spmm_identical),
        ] {
            let rec = ShardedRecord {
                graph: label.to_string(),
                kernel,
                shards,
                monolithic_secs: mono_secs,
                sharded_secs: shard_secs,
                rel_throughput: mono_secs / shard_secs,
                build_secs,
                identical,
            };
            println!(
                "{:>14} {:>12} shards={:<3} monolithic {:>12.6}s  sharded {:>12.6}s  \
                 rel {:>5.2}x  build {:>12.6}s  identical={}",
                rec.graph,
                rec.kernel,
                shards,
                rec.monolithic_secs,
                rec.sharded_secs,
                rec.rel_throughput,
                rec.build_secs,
                rec.identical
            );
            records.push(rec);
        }
    }
}

/// One resident-vs-paged measurement at one buffer-pool budget.
struct OutOfCoreRecord {
    graph: String,
    kernel: &'static str,
    /// "unbudgeted", "half" or "quarter" (of the resident CSR bytes).
    budget: &'static str,
    budget_bytes: u64,
    resident_secs: f64,
    /// First pass on a freshly opened store — includes the demand loads.
    cold_secs: f64,
    /// Best-of-reps after the store has been walked once.
    warm_secs: f64,
    /// `resident_secs / warm_secs` — the acceptance bar is ≥ 0.5 on the
    /// warm unbudgeted pass (paging must cost at most 2× once resident).
    warm_rel_throughput: f64,
    misses: u64,
    evictions: u64,
    prefetches: u64,
    identical: bool,
}

/// Resident [`CsrMatrix`] vs. the spilled [`PagedCsr`] at buffer-pool
/// budgets {∞, ½, ¼} of the CSR's resident bytes, single-threaded, on
/// the fused LinBP step (5 iterations) and the standalone SpMM — the
/// `out_of_core` section of the JSON, with the bitwise-identity check
/// inline. The ½ and ¼ budgets force eviction cycling on every pass;
/// the unbudgeted run measures steady-state (warm, all-hits) overhead.
fn run_out_of_core_suite(
    records: &mut Vec<OutOfCoreRecord>,
    label: &str,
    graph: &Graph,
    k: usize,
    h_residual_unscaled: &Mat,
    eps: f64,
    reps: usize,
) {
    const ITERS: usize = 5;
    const SHARDS: usize = 8;
    let adj = graph.adjacency();
    let n = graph.num_nodes();
    let cfg = ParallelismConfig::serial();
    let explicit = kronecker_style_beliefs(n, k, (n / 20).max(1), 7, false);
    let e_hat = explicit.residual_matrix().clone();
    let h = h_residual_unscaled.scale(eps);
    let h2 = h.matmul(&h);
    let degrees = adj.squared_weight_degrees();
    let b_spmm = Mat::from_fn(n, k, |r, c| ((r * k + c) % 17) as f64 * 0.01 - 0.08);

    let run_linbp = |op: &dyn PropagationOperator| {
        let mut b = e_hat.clone();
        let mut next = Mat::zeros(n, k);
        let mut deltas = [0.0f64];
        let step = FusedLinBpStep {
            e_hat: &e_hat,
            h: &h,
            h2: Some(&h2),
            degrees: &degrees,
            damping: 0.0,
        };
        for _ in 0..ITERS {
            op.linbp_step_fused_with(&b, &step, &mut next, &mut deltas, &cfg);
            std::mem::swap(&mut b, &mut next);
        }
        (b, deltas[0])
    };
    let run_spmm = |op: &dyn PropagationOperator| {
        let mut out = Mat::zeros(n, k);
        op.spmm_into_with(&b_spmm, &mut out, &cfg);
        out
    };
    let best_of = |f: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let (_, d) = time_once(&mut *f);
            best = best.min(d.as_secs_f64());
        }
        best
    };

    let (res_linbp, res_delta) = run_linbp(&adj);
    let res_linbp_secs = best_of(&mut || {
        let _ = run_linbp(&adj);
    });
    let res_spmm = run_spmm(&adj);
    let res_spmm_secs = best_of(&mut || {
        let _ = run_spmm(&adj);
    });

    let csr_bytes = (adj.n_rows() + 1) * std::mem::size_of::<usize>() + adj.nnz() * (4 + 8);
    let dir = std::env::temp_dir().join(format!("lsbp-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench spill dir");
    let path = dir.join(format!("{label}.lsbp"));
    PagedCsr::spill(&adj, &path, SHARDS, PagedOptions::default())
        .expect("spilling the bench graph");

    for (budget, bname) in [
        (None, "unbudgeted"),
        (Some(csr_bytes / 2), "half"),
        (Some(csr_bytes / 4), "quarter"),
    ] {
        let opts = PagedOptions::default().with_budget(budget);
        for kernel in ["linbp_5iter", "spmm"] {
            // Fresh open per kernel so the cold pass really demand-loads.
            let paged = PagedCsr::open(&path, opts).expect("reopening the bench store");
            let (cold_secs, identical) = if kernel == "linbp_5iter" {
                let (out, d0) = time_once(|| run_linbp(&paged));
                let (b, delta) = out;
                (
                    d0.as_secs_f64(),
                    b.as_slice()
                        .iter()
                        .zip(res_linbp.as_slice())
                        .all(|(a, c)| a.to_bits() == c.to_bits())
                        && delta.to_bits() == res_delta.to_bits(),
                )
            } else {
                let (out, d0) = time_once(|| run_spmm(&paged));
                (
                    d0.as_secs_f64(),
                    out.as_slice()
                        .iter()
                        .zip(res_spmm.as_slice())
                        .all(|(a, c)| a.to_bits() == c.to_bits()),
                )
            };
            let warm_secs = if kernel == "linbp_5iter" {
                best_of(&mut || {
                    let _ = run_linbp(&paged);
                })
            } else {
                best_of(&mut || {
                    let _ = run_spmm(&paged);
                })
            };
            let stats = paged.stats();
            let resident_secs = if kernel == "linbp_5iter" {
                res_linbp_secs
            } else {
                res_spmm_secs
            };
            let rec = OutOfCoreRecord {
                graph: label.to_string(),
                kernel: if kernel == "linbp_5iter" {
                    "linbp_5iter"
                } else {
                    "spmm"
                },
                budget: bname,
                budget_bytes: budget.unwrap_or(0) as u64,
                resident_secs,
                cold_secs,
                warm_secs,
                warm_rel_throughput: resident_secs / warm_secs,
                misses: stats.misses,
                evictions: stats.evictions,
                prefetches: stats.prefetches,
                identical,
            };
            println!(
                "{:>14} {:>12} budget={:<10} resident {:>12.6}s  cold {:>12.6}s  \
                 warm {:>12.6}s  rel {:>5.2}x  misses={} evictions={} prefetches={} \
                 identical={}",
                rec.graph,
                rec.kernel,
                rec.budget,
                rec.resident_secs,
                rec.cold_secs,
                rec.warm_secs,
                rec.warm_rel_throughput,
                rec.misses,
                rec.evictions,
                rec.prefetches,
                rec.identical
            );
            records.push(rec);
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// One sequential-vs-coalesced serving measurement: the same `q` LinBP
/// queries answered one at a time versus stacked by the server's
/// admission coalescer into a single batched solve.
struct ServingRecord {
    graph: String,
    nodes: usize,
    directed_edges: usize,
    queries: usize,
    sequential_secs: f64,
    coalesced_secs: f64,
    /// SpMM sweeps the sequential server executed (Σ per-query iterations).
    sequential_spmm_passes: u64,
    /// SpMM sweeps the coalescing server executed (max iterations in the
    /// one stacked solve).
    coalesced_spmm_passes: u64,
    /// `sequential / coalesced` — the pass-count reduction coalescing buys
    /// (a diagnostic: passes explain the wall clock, they do not replace it).
    spmm_pass_ratio: f64,
    largest_batch: u64,
    identical: bool,
}

impl ServingRecord {
    /// `coalesced / sequential` wall time: below 1 when answering the `q`
    /// queries as one stacked solve beats answering them one at a time.
    fn coalesced_over_sequential_wall(&self) -> f64 {
        self.coalesced_secs / self.sequential_secs
    }
}

/// The `q` benchmark queries: disjoint seed blocks of `n / 40` nodes,
/// class assignment rotated per query so no two queries share a cache key.
fn serving_seeds(n: usize, k: usize, queries: usize) -> Vec<Vec<WireSeed>> {
    let block = (n / 40).max(1).min(n / queries.max(1)).max(1);
    (0..queries)
        .map(|j| {
            (0..block)
                .map(|i| {
                    let mut residual = vec![-2.0 / (k as f64 - 1.0); k];
                    residual[(i + j) % k] = 2.0;
                    WireSeed {
                        node: (j * block + i) as u64,
                        residual,
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs the same `q` queries through two fresh in-process [`ServerCore`]s
/// — one that answers each query alone, one that coalesces all `q` into a
/// single stacked solve — and records wall time, SpMM pass counts, and
/// the bitwise identity of the two answer sets. This is the `serving`
/// section of the JSON: the admission coalescer's concurrency win,
/// measured end to end through the real serving engine.
#[allow(clippy::too_many_arguments)] // a flat experiment descriptor
fn run_serving_suite(
    records: &mut Vec<ServingRecord>,
    label: &str,
    graph: &Graph,
    k: usize,
    h_residual_unscaled: &Mat,
    eps: f64,
    queries: usize,
    reps: usize,
) {
    let adj = graph.adjacency();
    let n = graph.num_nodes();
    let de = graph.num_directed_edges();
    // Register the already-symmetric adjacency entry by entry.
    let edges: Vec<WireEdge> = (0..n)
        .flat_map(|r| {
            adj.row_cols(r)
                .iter()
                .zip(adj.row_values(r))
                .map(move |(&c, &v)| WireEdge {
                    src: r as u64,
                    dst: u64::from(c),
                    weight: v,
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let params = LinBpParams {
        echo: true,
        k: k as u32,
        h_residual: h_residual_unscaled.scale(eps).as_slice().to_vec(),
        max_iter: 100,
        tol: 1e-9,
        norm: WireNorm::MaxAbs,
        damping: 0.0,
        divergence_guard: 1e12,
    };
    let seeds = serving_seeds(n, k, queries);
    let solve = |j: usize| Request::SolveLinBp {
        graph_id: 1,
        params: params.clone(),
        seeds: seeds[j].clone(),
    };
    let fresh_core = |max_batch: usize| {
        let core = ServerCore::new(ServerConfig {
            // The coalescing core drains the moment the `queries`-th job
            // arrives (max_batch trigger); the window is never the trigger.
            coalesce_window: Duration::from_secs(5),
            max_batch,
            ..ServerConfig::default()
        });
        let registered = core.handle_blocking(Request::RegisterGraph {
            graph_id: 1,
            n_nodes: n as u64,
            symmetric: false,
            edges: edges.clone(),
        });
        assert!(
            matches!(registered, Response::Registered { .. }),
            "benchmark graph registration failed: {registered:?}"
        );
        core
    };
    let beliefs_of = |r: Response| match r {
        Response::Beliefs(payload) => payload,
        other => panic!("benchmark solve failed: {other:?}"),
    };

    let mut record: Option<ServingRecord> = None;
    for _ in 0..reps {
        // Sequential: max_batch = 1 makes every admission drain
        // immediately as a batch of one.
        let sequential = fresh_core(1);
        let (seq_payloads, seq_elapsed) = time_once(|| {
            (0..queries)
                .map(|j| beliefs_of(sequential.handle_blocking(solve(j))))
                .collect::<Vec<_>>()
        });
        let seq_stats = sequential.stats();

        // Coalesced: all `q` submitted up front; the admission layer
        // stacks them into one batched solve.
        let coalesced = fresh_core(queries);
        let (mut co_payloads, co_elapsed) = time_once(|| {
            let (tx, rx) = mpsc::channel();
            for j in 0..queries {
                let tx = tx.clone();
                coalesced.submit(solve(j), Box::new(move |r| drop(tx.send((j, r)))));
            }
            let mut payloads: Vec<_> = (0..queries).map(|_| None).collect();
            for _ in 0..queries {
                let (j, r) = rx.recv().expect("responder always fires");
                payloads[j] = Some(beliefs_of(r));
            }
            payloads
        });
        let co_stats = coalesced.stats();

        let identical = seq_payloads
            .iter()
            .zip(co_payloads.iter_mut())
            .all(|(a, b)| {
                let b = b.as_ref().expect("all queries answered");
                a.iterations == b.iterations
                    && a.beliefs.len() == b.beliefs.len()
                    && a.beliefs
                        .iter()
                        .zip(&b.beliefs)
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            });
        let seq_secs = seq_elapsed.as_secs_f64();
        let co_secs = co_elapsed.as_secs_f64();
        match &mut record {
            Some(r) => {
                r.sequential_secs = r.sequential_secs.min(seq_secs);
                r.coalesced_secs = r.coalesced_secs.min(co_secs);
                r.identical &= identical;
            }
            None => {
                record = Some(ServingRecord {
                    graph: label.to_string(),
                    nodes: n,
                    directed_edges: de,
                    queries,
                    sequential_secs: seq_secs,
                    coalesced_secs: co_secs,
                    sequential_spmm_passes: seq_stats.spmm_passes,
                    coalesced_spmm_passes: co_stats.spmm_passes,
                    spmm_pass_ratio: seq_stats.spmm_passes as f64 / co_stats.spmm_passes as f64,
                    largest_batch: co_stats.largest_batch,
                    identical,
                });
            }
        }
    }
    let rec = record.expect("reps >= 1");
    println!(
        "{:>14} serving q={} sequential {:>12.6}s / {} passes  coalesced {:>12.6}s / {} passes  \
         wall {:>5.2}x  pass ratio {:>5.2}x  batch={}  identical={}",
        rec.graph,
        rec.queries,
        rec.sequential_secs,
        rec.sequential_spmm_passes,
        rec.coalesced_secs,
        rec.coalesced_spmm_passes,
        rec.coalesced_over_sequential_wall(),
        rec.spmm_pass_ratio,
        rec.largest_batch,
        rec.identical
    );
    records.push(rec);
}

/// One robustness measurement: `q` clients hammering an undersized
/// admission queue, retrying on `Overloaded` until every request is
/// answered, under one degradation policy.
struct RobustnessRecord {
    graph: String,
    nodes: usize,
    directed_edges: usize,
    policy: &'static str,
    queries: usize,
    answered: u64,
    overloaded_rejections: u64,
    degraded_clamped: u64,
    wall_secs: f64,
    qps: f64,
    /// Every answer bitwise equal to a direct uncontended solve. Only
    /// meaningful when the policy does not change the math (`off`);
    /// `ClampIter` deliberately trades iterations for throughput.
    identical_to_direct: bool,
}

/// Drives `q` concurrent clients against a core whose admission queue is
/// deliberately too small (`max_pending = 2`), so a real fraction of
/// requests bounce with `Overloaded` and must be recovered by retries
/// honoring the server's `retry_after_ms` hint. Run once per degradation
/// policy: `off` measures pure backpressure + retry; `clamp` measures
/// how much throughput `ClampIter` buys back under the same load.
fn run_robustness_suite(
    records: &mut Vec<RobustnessRecord>,
    label: &str,
    graph: &Graph,
    k: usize,
    h_residual_unscaled: &Mat,
    eps: f64,
    queries: usize,
) {
    let adj = graph.adjacency();
    let n = graph.num_nodes();
    let de = graph.num_directed_edges();
    let edges: Vec<WireEdge> = (0..n)
        .flat_map(|r| {
            adj.row_cols(r)
                .iter()
                .zip(adj.row_values(r))
                .map(move |(&c, &v)| WireEdge {
                    src: r as u64,
                    dst: u64::from(c),
                    weight: v,
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let params = LinBpParams {
        echo: true,
        k: k as u32,
        h_residual: h_residual_unscaled.scale(eps).as_slice().to_vec(),
        max_iter: 100,
        // No early exit: every query runs its full budget, so the queue
        // actually backs up and `ClampIter` has iterations to reclaim.
        tol: 0.0,
        norm: WireNorm::MaxAbs,
        damping: 0.0,
        divergence_guard: f64::INFINITY,
    };
    let seeds = serving_seeds(n, k, queries);
    let solve = |j: usize| Request::SolveLinBp {
        graph_id: 1,
        params: params.clone(),
        seeds: seeds[j].clone(),
    };
    let register = || Request::RegisterGraph {
        graph_id: 1,
        n_nodes: n as u64,
        symmetric: false,
        edges: edges.clone(),
    };

    // Uncontended references: one solo solve per query on a roomy core.
    let direct = ServerCore::new(ServerConfig {
        coalesce_window: Duration::from_millis(0),
        max_batch: 1,
        ..ServerConfig::default()
    });
    assert!(matches!(
        direct.handle_blocking(register()),
        Response::Registered { .. }
    ));
    let references: Vec<_> = (0..queries)
        .map(|j| match direct.handle_blocking(solve(j)) {
            Response::Beliefs(p) => p,
            other => panic!("reference solve failed: {other:?}"),
        })
        .collect();

    for (policy, degradation) in [
        ("off", DegradationPolicy::Off),
        ("clamp", DegradationPolicy::ClampIter(10)),
    ] {
        let core = ServerCore::new(ServerConfig {
            coalesce_window: Duration::from_millis(10),
            max_batch: 4,
            // Undersized on purpose: the whole point is to overflow it.
            max_pending: 2,
            retry_after_hint: Duration::from_millis(2),
            degradation,
            ..ServerConfig::default()
        });
        assert!(matches!(
            core.handle_blocking(register()),
            Response::Registered { .. }
        ));

        let (payloads, elapsed) = time_once(|| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..queries)
                    .map(|j| {
                        let (core, solve) = (&core, &solve);
                        scope.spawn(move || {
                            // Retry with growing backoff until the request
                            // lands. The budget is wall-clock, not
                            // attempt-count: on larger graphs a single
                            // coalesced solve can hold the queue for tens
                            // of milliseconds, so a fixed retry count
                            // starves late contenders.
                            let start = std::time::Instant::now();
                            let mut backoff_ms = 0u64;
                            loop {
                                match core.handle_blocking(solve(j)) {
                                    Response::Beliefs(p) => return Some(p),
                                    Response::Error {
                                        code: ErrorCode::Overloaded,
                                        retry_after_ms,
                                        ..
                                    } => {
                                        if start.elapsed() > Duration::from_secs(120) {
                                            return None;
                                        }
                                        let hint = retry_after_ms.unwrap_or(2).clamp(1, 50);
                                        backoff_ms = (backoff_ms.max(hint) * 2).min(250);
                                        // Stagger contenders so they don't
                                        // re-collide in lockstep.
                                        std::thread::sleep(Duration::from_millis(
                                            backoff_ms + (j as u64 % 7),
                                        ));
                                    }
                                    other => panic!("unexpected response: {other:?}"),
                                }
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>()
            })
        });
        let stats = core.stats();
        let answered = payloads.iter().filter(|p| p.is_some()).count() as u64;
        let identical_to_direct = policy != "off"
            || payloads.iter().zip(&references).all(|(p, r)| {
                p.as_ref().is_some_and(|p| {
                    p.beliefs.len() == r.beliefs.len()
                        && p.beliefs
                            .iter()
                            .zip(&r.beliefs)
                            .all(|(x, y)| x.to_bits() == y.to_bits())
                })
            });
        let wall_secs = elapsed.as_secs_f64();
        let rec = RobustnessRecord {
            graph: label.to_string(),
            nodes: n,
            directed_edges: de,
            policy,
            queries,
            answered,
            overloaded_rejections: stats.rejected_overloaded,
            degraded_clamped: stats.degraded_clamped,
            wall_secs,
            qps: answered as f64 / wall_secs,
            identical_to_direct,
        };
        println!(
            "{:>14} robustness policy={:<5} q={} answered={} rejections={} clamped={} \
             {:>9.4}s ({:>8.1} q/s)  identical={}",
            rec.graph,
            rec.policy,
            rec.queries,
            rec.answered,
            rec.overloaded_rejections,
            rec.degraded_clamped,
            rec.wall_secs,
            rec.qps,
            rec.identical_to_direct
        );
        records.push(rec);
    }
}

/// One (threads, executor) measurement of the pool-overhead benchmark.
struct PoolRecord {
    threads: usize,
    persistent_us_per_region: f64,
    scoped_spawn_us_per_region: f64,
}

/// The small-kernel SpMV task for one row range, writing its disjoint
/// output slice — identical work under both executors.
fn spmv_range(adj: &CsrMatrix, x: &[f64], range: Range<usize>, out: &mut [f64]) {
    for (r, slot) in range.zip(out.iter_mut()) {
        let mut acc = 0.0;
        for (&c, &v) in adj.row_cols(r).iter().zip(adj.row_values(r)) {
            acc += v * x[c as usize];
        }
        *slot = acc;
    }
}

/// A faithful replica of the pre-persistent-pool executor (PR 2's
/// `run_tasks`): spawn scoped OS threads per region, shared-queue
/// dynamic balancing, join before returning. Kept here as the benchmark
/// baseline the resident-worker pool is measured against.
fn scoped_spawn_region(tasks: Vec<Box<dyn FnOnce() + Send + '_>>, threads: usize) {
    if threads <= 1 || tasks.len() <= 1 {
        for task in tasks {
            task();
        }
        return;
    }
    let workers = threads.min(tasks.len());
    let queue = Mutex::new(tasks.into_iter());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let task = match queue.lock() {
                    Ok(mut guard) => guard.next(),
                    Err(_) => break,
                };
                match task {
                    Some(task) => task(),
                    None => break,
                }
            });
        }
    });
}

/// Measures per-region dispatch overhead on a small (1k-node) kernel,
/// where thread plumbing — not compute — dominates: the same partitioned
/// SpMV dispatched `regions` times through (a) the persistent
/// resident-worker pool and (b) per-region scoped spawning. Small kernels
/// in per-iteration hot loops are exactly where spawn cost used to force
/// the serial fallback.
fn bench_pool_overhead(threads_sweep: &[usize], regions: usize) -> (Graph, Vec<PoolRecord>) {
    let graph = erdos_renyi_gnm(1000, 4000, 7);
    let adj = graph.adjacency();
    let n = graph.num_nodes();
    let x: Vec<f64> = (0..n).map(|i| (i % 11) as f64 * 0.1 - 0.5).collect();
    let mut records = Vec::new();
    for &t in threads_sweep.iter().filter(|&&t| t > 1) {
        let parts = t * 2;
        let ranges = weight_balanced_ranges(adj.row_offsets(), parts);
        let mut y = vec![0.0f64; n];
        let mut reference = vec![0.0f64; n];
        spmv_range(&adj, &x, 0..n, &mut reference);

        fn make_tasks<'a>(
            adj: &'a CsrMatrix,
            x: &'a [f64],
            ranges: &[Range<usize>],
            y: &'a mut [f64],
        ) -> Vec<Box<dyn FnOnce() + Send + 'a>> {
            let mut tasks: Vec<Box<dyn FnOnce() + Send + 'a>> = Vec::with_capacity(ranges.len());
            let mut rest = y;
            for range in ranges.iter().cloned() {
                let (chunk, tail) = rest.split_at_mut(range.end - range.start);
                rest = tail;
                tasks.push(Box::new(move || spmv_range(adj, x, range, chunk)));
            }
            tasks
        }

        // Persistent: one cached pool, `regions` scoped dispatches.
        let pool = ParallelismConfig::with_threads(t).pool();
        let (_, persistent) = time_once(|| {
            for _ in 0..regions {
                let mut tasks = make_tasks(&adj, &x, &ranges, &mut y);
                pool.scope(|s| {
                    for task in tasks.drain(..) {
                        s.spawn(task);
                    }
                });
            }
        });
        assert_eq!(y, reference, "persistent pool result mismatch");

        // Scoped spawn: fresh OS threads per region (the old executor).
        y.fill(0.0);
        let (_, scoped) = time_once(|| {
            for _ in 0..regions {
                let tasks = make_tasks(&adj, &x, &ranges, &mut y);
                scoped_spawn_region(tasks, t);
            }
        });
        assert_eq!(y, reference, "scoped-spawn result mismatch");

        let record = PoolRecord {
            threads: t,
            persistent_us_per_region: persistent.as_secs_f64() * 1e6 / regions as f64,
            scoped_spawn_us_per_region: scoped.as_secs_f64() * 1e6 / regions as f64,
        };
        println!(
            "pool overhead t={t}: persistent {:.2} µs/region, scoped-spawn {:.2} µs/region ({:.2}x)",
            record.persistent_us_per_region,
            record.scoped_spawn_us_per_region,
            record.scoped_spawn_us_per_region / record.persistent_us_per_region
        );
        records.push(record);
    }
    (graph, records)
}

/// Pull `"hardware_threads": N` out of a previously committed baseline JSON
/// without a JSON parser. The file is produced by this binary, so the key
/// appears exactly once at the top level; tolerate arbitrary whitespace
/// around the colon and ignore everything else.
fn extract_hardware_threads(json: &str) -> Option<usize> {
    let key = "\"hardware_threads\"";
    let at = json.find(key)? + key.len();
    let rest = json[at..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

/// One query-planner measurement: a hub-skewed multi-way join executed
/// with the pre-planner fixed left-to-right strategy vs. the
/// cost-bounded planner, plus the multiset-identity check between the
/// two results.
struct PlannerRecord {
    workload: &'static str,
    fixed_secs: f64,
    planned_secs: f64,
    speedup: f64,
    identical: bool,
    join_order: String,
}

fn planner_sorted_rows(t: &lsbp_reldb::Table) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = t
        .rows()
        .iter()
        .map(|r| r.iter().map(|v| v.as_float().to_bits()).collect())
        .collect();
    rows.sort_unstable();
    rows
}

/// The three canonical skewed workloads (chain, star, triangle), each
/// shaped so the fixed FROM-order strategy materializes a quadratic
/// intermediate the planner's bound-minimal order avoids. All values are
/// integers and the queries are aggregate-free, so "identical" means the
/// exact same row multiset bit for bit.
fn planner_workloads() -> Vec<(&'static str, lsbp_reldb::Database, &'static str)> {
    use lsbp_reldb::{Database, Table, Value};
    let int = Value::Int;

    // Chain R — S — Sel: R ⋈ S explodes on a hub key, S ⋈ Sel is tiny.
    let chain = {
        let (n, hub) = (2000i64, 400i64);
        let mut r = Table::new("R", &["k", "p"]);
        let mut s = Table::new("S", &["k", "j"]);
        let mut sel = Table::new("Sel", &["j"]);
        for i in 0..n {
            let k = if i < hub { 0 } else { i };
            r.push(vec![int(k), int(i)]);
            let j = if i < hub { n + i } else { i % 50 };
            s.push(vec![int(k), int(j)]);
        }
        for j in 0..25 {
            sel.push(vec![int(j)]);
        }
        let mut db = Database::new();
        db.insert_table("R", r);
        db.insert_table("S", s);
        db.insert_table("Sel", sel);
        db
    };

    // Star D1, D2, F with the fact table last in FROM order: the fixed
    // strategy cross-products the two dimension tables first.
    let star = {
        let n = 400i64;
        let mut d1 = Table::new("D1", &["d", "p"]);
        let mut d2 = Table::new("D2", &["e", "q"]);
        let mut f = Table::new("F", &["f1", "f2"]);
        for i in 0..n {
            d1.push(vec![int(i), int(i * 2)]);
            d2.push(vec![int(i), int(i * 3)]);
        }
        for i in 0..(2 * n) {
            f.push(vec![int(i % n), int((i * 7) % n)]);
        }
        let mut db = Database::new();
        db.insert_table("D1", d1);
        db.insert_table("D2", d2);
        db.insert_table("F", f);
        db
    };

    // Triangle R(a,b) — S(b,c) — T(c,a) with a hub on b and a small
    // selective T: the fixed order joins R ⋈ S on the hub first.
    let triangle = {
        let (n, hub) = (1200i64, 300i64);
        let mut r = Table::new("R", &["a", "b"]);
        let mut s = Table::new("S", &["b", "c"]);
        let mut t = Table::new("T", &["c", "a"]);
        for i in 0..n {
            let b = if i < hub { 0 } else { i };
            r.push(vec![int(i), int(b)]);
            s.push(vec![int(b), int(i)]);
        }
        for j in 0..100 {
            t.push(vec![int(j), int(j)]);
        }
        let mut db = Database::new();
        db.insert_table("R", r);
        db.insert_table("S", s);
        db.insert_table("T", t);
        db
    };

    vec![
        (
            "chain_skewed",
            chain,
            "select R.p, Sel.j from R, S, Sel where R.k = S.k and S.j = Sel.j",
        ),
        (
            "star_skewed",
            star,
            "select D1.p, D2.q from D1, D2, F where F.f1 = D1.d and F.f2 = D2.e",
        ),
        (
            "triangle_skewed",
            triangle,
            "select R.a, T.c from R, S, T where R.b = S.b and S.c = T.c and T.a = R.a",
        ),
    ]
}

fn bench_planner_suite(reps: usize) -> Vec<PlannerRecord> {
    use lsbp_reldb::parser::{parse, Statement};
    let mut out = Vec::new();
    for (workload, db, sql) in planner_workloads() {
        let Statement::Select(sel) = parse(sql).expect("planner bench SQL parses") else {
            unreachable!("planner bench statements are SELECTs")
        };
        // Correctness + plan inspection pass (also warms both paths).
        let (planned, plan, _) = db.run_select_planned(&sel, "r").expect("planned execution");
        let fixed = db.run_select_fixed(&sel, "r").expect("fixed execution");
        let identical = planner_sorted_rows(&planned) == planner_sorted_rows(&fixed);
        let join_order = plan.scan_order().join(" -> ");
        let mut fixed_secs = f64::INFINITY;
        let mut planned_secs = f64::INFINITY;
        for _ in 0..reps {
            let (_, d) = time_once(|| std::hint::black_box(db.run_select_fixed(&sel, "r")));
            fixed_secs = fixed_secs.min(d.as_secs_f64());
            let (_, d) = time_once(|| std::hint::black_box(db.run_select(&sel, "r")));
            planned_secs = planned_secs.min(d.as_secs_f64());
        }
        let speedup = fixed_secs / planned_secs;
        println!(
            "{workload:>16} fixed={} planned={} speedup={:.2}x identical={} order=[{}]",
            fmt_duration(Duration::from_secs_f64(fixed_secs)),
            fmt_duration(Duration::from_secs_f64(planned_secs)),
            speedup,
            identical,
            join_order
        );
        out.push(PlannerRecord {
            workload,
            fixed_secs,
            planned_secs,
            speedup,
            identical,
            join_order,
        });
    }
    out
}

fn main() {
    let m = arg_usize("--m", 9).clamp(5, 13) as u32;
    let reps = arg_usize("--reps", 3).max(1);
    let with_dblp = arg_usize("--dblp", 1) != 0;
    let threads = arg_thread_list();
    let out_path = arg_string("--out", "BENCH_kernels.json");

    let shard_sweep = arg_shard_list();
    let serving_queries = arg_usize("--serving-q", 8).max(2);
    let mut records = Vec::new();
    let mut simd_records = Vec::new();
    let mut fused_records = Vec::new();
    let mut frontier_records = Vec::new();
    let mut sharded_records = Vec::new();
    let mut out_of_core_records = Vec::new();
    let mut serving_records = Vec::new();
    let robustness_queries = arg_usize("--robust-q", 16).max(4);
    let mut robustness_records = Vec::new();
    let ho3 = CouplingMatrix::fig6b_residual();
    let mut exponents = vec![7u32.min(m), m];
    exponents.dedup();
    for exp in exponents {
        let graph = kronecker_graph(exp);
        let label = format!("kronecker_m{exp}");
        run_suite(
            &mut records,
            &label,
            &graph,
            3,
            &ho3,
            0.0005,
            &threads,
            reps,
        );
        run_simd_suite(&mut simd_records, &label, &graph, 3, reps);
        run_fused_suite(&mut fused_records, &label, &graph, 3, &ho3, 0.0005, reps);
        run_frontier_suite(
            &mut frontier_records,
            &label,
            &graph,
            3,
            &ho3,
            0.0005,
            2000,
            reps,
        );
        run_sharded_suite(
            &mut sharded_records,
            &label,
            &graph,
            3,
            &ho3,
            0.0005,
            &shard_sweep,
            reps,
        );
        run_out_of_core_suite(
            &mut out_of_core_records,
            &label,
            &graph,
            3,
            &ho3,
            0.0005,
            reps,
        );
        run_serving_suite(
            &mut serving_records,
            &label,
            &graph,
            3,
            &ho3,
            0.0005,
            serving_queries,
            reps,
        );
        run_robustness_suite(
            &mut robustness_records,
            &label,
            &graph,
            3,
            &ho3,
            0.0005,
            robustness_queries,
        );
    }
    if with_dblp {
        let ho4 = CouplingMatrix::homophily(4, 0.6)
            .expect("homophily coupling is valid")
            .residual();
        let net = dblp_like(&DblpConfig::default(), 42);
        run_suite(
            &mut records,
            "dblp_like",
            &net.graph,
            4,
            &ho4,
            0.005,
            &threads,
            reps,
        );
        run_simd_suite(&mut simd_records, "dblp_like", &net.graph, 4, reps);
        run_fused_suite(
            &mut fused_records,
            "dblp_like",
            &net.graph,
            4,
            &ho4,
            0.005,
            reps,
        );
        run_frontier_suite(
            &mut frontier_records,
            "dblp_like",
            &net.graph,
            4,
            &ho4,
            0.005,
            1000,
            reps,
        );
        run_sharded_suite(
            &mut sharded_records,
            "dblp_like",
            &net.graph,
            4,
            &ho4,
            0.005,
            &shard_sweep,
            reps,
        );
        run_out_of_core_suite(
            &mut out_of_core_records,
            "dblp_like",
            &net.graph,
            4,
            &ho4,
            0.005,
            reps,
        );
        run_serving_suite(
            &mut serving_records,
            "dblp_like",
            &net.graph,
            4,
            &ho4,
            0.005,
            serving_queries,
            reps,
        );
        run_robustness_suite(
            &mut robustness_records,
            "dblp_like",
            &net.graph,
            4,
            &ho4,
            0.005,
            robustness_queries,
        );
    }

    // Persistent-pool dispatch overhead vs. the old scoped-spawn executor
    // on a small 1k-node kernel.
    let pool_regions = arg_usize("--pool-reps", 200).max(1);
    println!("\n== pool overhead: 1k-node SpMV, {pool_regions} regions per executor ==");
    let (pool_graph, pool_records) = bench_pool_overhead(&threads, pool_regions);

    // Cost-bounded query planner vs. the fixed left-to-right join order
    // on skewed multi-way workloads.
    println!("\n== reldb query planner: fixed join order vs. bound-minimal order ==");
    let planner_records = bench_planner_suite(reps);
    let planner_speedup_min = planner_records
        .iter()
        .map(|r| r.speedup)
        .fold(f64::NAN, f64::min);
    let planner_all_identical = planner_records.iter().all(|r| r.identical);

    // Acceptance summary: best SpMM speedup at 4 threads on a
    // ≥ 100k-directed-edge graph, and global identity across the board.
    let spmm_speedup_4t = records
        .iter()
        .filter(|r| r.kernel == "spmm" && r.threads == 4 && r.directed_edges >= 100_000)
        .map(|r| r.speedup_vs_serial)
        .fold(f64::NAN, f64::max);
    let all_identical = records.iter().all(|r| r.identical_to_serial);
    // Fused-step acceptance read-out: the largest Kronecker graph's
    // single-threaded fused-vs-unfused speedup (the ≥ 1.3× target of the
    // SIMD/fusion PR runs on kronecker_m9).
    let fused_speedup_largest = fused_records
        .iter()
        .filter(|r| r.graph == format!("kronecker_m{m}"))
        .map(|r| r.speedup)
        .fold(f64::NAN, f64::max);
    let fused_all_identical = fused_records.iter().all(|r| r.identical);
    // Frontier acceptance read-outs: the warm full-vs-frontier speedup of
    // the fixed-budget exact solve on the largest Kronecker graph (the
    // ≥ 1.4× bar of the active-frontier PR), and the global
    // frontier-equals-full bitwise flag across every cell.
    let frontier_speedup_largest = frontier_records
        .iter()
        .filter(|r| r.graph == format!("kronecker_m{m}"))
        .map(|r| r.speedup)
        .fold(f64::NAN, f64::max);
    let frontier_all_identical = frontier_records.iter().all(|r| r.identical);
    // Sharded acceptance read-out: the *worst* fused-LinBP relative
    // throughput on the largest Kronecker graph across the shard sweep
    // (the ≥ 0.95× bar — sharding must not tax the serial hot loop), and
    // the global sharded-equals-monolithic bitwise flag.
    let sharded_linbp_min_rel = sharded_records
        .iter()
        .filter(|r| r.kernel == "linbp_5iter" && r.graph == format!("kronecker_m{m}"))
        .map(|r| r.rel_throughput)
        .fold(f64::NAN, f64::min);
    let sharded_all_identical = sharded_records.iter().all(|r| r.identical);
    // Out-of-core acceptance read-outs: the global paged-equals-resident
    // bitwise flag across every budget × kernel × graph cell, and the
    // worst warm relative throughput of the *unbudgeted* pool on the
    // largest Kronecker graph (the ≥ 0.5× bar — once the working set is
    // resident, paging must cost at most 2× over the in-RAM matrix).
    let paged_all_identical = out_of_core_records.iter().all(|r| r.identical);
    let paged_warm_rel_largest = out_of_core_records
        .iter()
        .filter(|r| r.graph == format!("kronecker_m{m}") && r.budget == "unbudgeted")
        .map(|r| r.warm_rel_throughput)
        .fold(f64::NAN, f64::min);
    // Serving acceptance read-outs on the largest Kronecker graph: the
    // coalesced ÷ sequential wall-clock ratio (below 1 when coalescing
    // wins), the SpMM-pass reduction behind it (acceptance bar ≥ 2×,
    // ideally ≈ q; a diagnostic), and the global
    // coalesced-equals-sequential bitwise flag.
    let largest_serving = || {
        serving_records
            .iter()
            .filter(|r| r.graph == format!("kronecker_m{m}"))
    };
    let serving_wall_largest = largest_serving()
        .map(ServingRecord::coalesced_over_sequential_wall)
        .fold(f64::NAN, f64::max);
    let serving_ratio_largest = largest_serving()
        .map(|r| r.spmm_pass_ratio)
        .fold(f64::NAN, f64::max);
    let serving_all_identical = serving_records.iter().all(|r| r.identical);
    let serving_ratio_ok = serving_ratio_largest >= 2.0;
    // Robustness acceptance read-outs: every retried request recovered
    // under both policies, backpressure genuinely engaged under `off`,
    // answers bitwise-identical to uncontended solves when the policy
    // does not change the math, and the throughput `ClampIter` buys back
    // on the largest Kronecker graph.
    let robustness_all_recovered = robustness_records
        .iter()
        .all(|r| r.answered == r.queries as u64);
    let robustness_backpressure_engaged = robustness_records
        .iter()
        .filter(|r| r.policy == "off")
        .all(|r| r.overloaded_rejections >= 1);
    let robustness_off_identical = robustness_records
        .iter()
        .filter(|r| r.policy == "off")
        .all(|r| r.identical_to_direct);
    let robustness_clamp_qps_ratio = {
        let qps_of = |policy: &str| {
            robustness_records
                .iter()
                .filter(|r| r.policy == policy && r.graph == format!("kronecker_m{m}"))
                .map(|r| r.qps)
                .fold(f64::NAN, f64::max)
        };
        qps_of("clamp") / qps_of("off")
    };

    // Cross-hardware guard: speedup summaries are only meaningful against a
    // baseline recorded on the same machine class. If the committed baseline
    // at `--out` was produced with a different hardware-thread count, annotate
    // the new JSON and warn loudly rather than silently publishing
    // incomparable numbers.
    let current_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let baseline_threads = std::fs::read_to_string(&out_path)
        .ok()
        .as_deref()
        .and_then(extract_hardware_threads);
    let cross_hardware_comparable = match baseline_threads {
        Some(prev) if prev != current_threads => {
            eprintln!(
                "warning: committed baseline {out_path} was recorded with hardware_threads={prev} \
                 but this machine has {current_threads}; speedup comparisons against it are not \
                 meaningful (marking cross_hardware_comparable=false)"
            );
            false
        }
        _ => true,
    };

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"kernels\",\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str("  \"generated_by\": \"perf_baseline\",\n");
    json.push_str(&format!("  \"hardware_threads\": {current_threads},\n"));
    json.push_str(&format!(
        "  \"cross_hardware_comparable\": {cross_hardware_comparable},\n"
    ));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!(
        "  \"thread_sweep\": [{}],\n",
        threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"summary\": {\n");
    json.push_str(&format!(
        "    \"spmm_speedup_4threads_100k_edges\": {},\n",
        json_f64(spmm_speedup_4t)
    ));
    json.push_str(&format!(
        "    \"fused_linbp_speedup_serial_largest_kronecker\": {},\n",
        json_f64(fused_speedup_largest)
    ));
    json.push_str(&format!(
        "    \"fused_linbp_bitwise_identical_to_unfused\": {fused_all_identical},\n"
    ));
    json.push_str(&format!(
        "    \"frontier_speedup_largest_kronecker\": {},\n",
        json_f64(frontier_speedup_largest)
    ));
    json.push_str(&format!(
        "    \"frontier_bitwise_identical_to_full\": {frontier_all_identical},\n"
    ));
    json.push_str(&format!(
        "    \"sharded_linbp_min_rel_throughput_largest_kronecker\": {},\n",
        json_f64(sharded_linbp_min_rel)
    ));
    json.push_str(&format!(
        "    \"sharded_bitwise_identical_to_monolithic\": {sharded_all_identical},\n"
    ));
    json.push_str(&format!(
        "    \"paged_warm_rel_throughput_largest_kronecker\": {},\n",
        json_f64(paged_warm_rel_largest)
    ));
    json.push_str(&format!(
        "    \"paged_bitwise_identical_to_resident\": {paged_all_identical},\n"
    ));
    json.push_str(&format!(
        "    \"serving_coalesced_over_sequential_wall\": {},\n",
        json_f64(serving_wall_largest)
    ));
    json.push_str(&format!(
        "    \"serving_spmm_pass_reduction_q{serving_queries}_largest_kronecker\": {},\n",
        json_f64(serving_ratio_largest)
    ));
    json.push_str(&format!(
        "    \"serving_spmm_pass_reduction_at_least_2x\": {serving_ratio_ok},\n"
    ));
    json.push_str(&format!(
        "    \"serving_coalesced_bitwise_identical_to_sequential\": {serving_all_identical},\n"
    ));
    json.push_str(&format!(
        "    \"planner_join_speedup_skewed_multiway\": {},\n",
        json_f64(planner_speedup_min)
    ));
    json.push_str(&format!(
        "    \"planner_results_identical_to_fixed_order\": {planner_all_identical},\n"
    ));
    json.push_str(&format!(
        "    \"all_parallel_results_bitwise_identical_to_serial\": {all_identical}\n"
    ));
    json.push_str("  },\n");
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"graph\": \"{}\", \"nodes\": {}, \"directed_edges\": {}, \"kernel\": \"{}\", \
             \"threads\": {}, \"secs\": {}, \"speedup_vs_serial\": {}, \
             \"identical_to_serial\": {}}}{}\n",
            r.graph,
            r.nodes,
            r.directed_edges,
            r.kernel,
            r.threads,
            json_f64(r.secs),
            json_f64(r.speedup_vs_serial),
            r.identical_to_serial,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    // Old-vs-new SIMD kernel comparison (single-threaded, scalar
    // replicas vs. the canonical 4-lane kernels).
    json.push_str("  \"simd\": {\n    \"results\": [\n");
    for (i, r) in simd_records.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"graph\": \"{}\", \"kernel\": \"{}\", \"scalar_secs\": {}, \
             \"simd_secs\": {}, \"speedup\": {}}}{}\n",
            r.graph,
            r.kernel,
            json_f64(r.scalar_secs),
            json_f64(r.simd_secs),
            json_f64(r.speedup),
            if i + 1 == simd_records.len() { "" } else { "," }
        ));
    }
    json.push_str("    ]\n  },\n");
    // Fused vs. unfused LinBP step (5 iterations, single-threaded), with
    // the fused-equals-unfused bitwise check inline.
    json.push_str("  \"fused_linbp\": {\n    \"iters_per_measurement\": 5,\n    \"results\": [\n");
    for (i, r) in fused_records.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"graph\": \"{}\", \"nodes\": {}, \"directed_edges\": {}, \
             \"unfused_secs\": {}, \"fused_secs\": {}, \"speedup\": {}, \
             \"identical_to_unfused\": {}}}{}\n",
            r.graph,
            r.nodes,
            r.directed_edges,
            json_f64(r.unfused_secs),
            json_f64(r.fused_secs),
            json_f64(r.speedup),
            r.identical,
            if i + 1 == fused_records.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str("    ]\n  },\n");
    // Active-frontier execution vs. full recomputation on long
    // fixed-budget exact solves (tol = 0, every sweep runs), with the
    // frontier-equals-full bitwise check inline. The cold column is the
    // first frontier run (plan construction included), warm the best of
    // the remaining reps.
    json.push_str("  \"frontier\": {\n    \"tol\": 0.0,\n    \"results\": [\n");
    for (i, r) in frontier_records.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"graph\": \"{}\", \"nodes\": {}, \"directed_edges\": {}, \
             \"iterations\": {}, \"rows_active\": {}, \"rows_skipped\": {}, \
             \"skip_ratio\": {}, \"full_secs\": {}, \"frontier_cold_secs\": {}, \
             \"frontier_warm_secs\": {}, \"speedup\": {}, \"identical_to_full\": {}}}{}\n",
            r.graph,
            r.nodes,
            r.directed_edges,
            r.iterations,
            r.rows_active,
            r.rows_skipped,
            json_f64(r.skip_ratio),
            json_f64(r.full_secs),
            json_f64(r.frontier_cold_secs),
            json_f64(r.frontier_warm_secs),
            json_f64(r.speedup),
            r.identical,
            if i + 1 == frontier_records.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str("    ]\n  },\n");
    // Monolithic CsrMatrix vs. row-sharded ShardedCsr (single-threaded,
    // fused LinBP + SpMM), with the sharded-equals-monolithic bitwise
    // check inline.
    json.push_str("  \"sharded\": {\n    \"iters_per_measurement\": 5,\n");
    json.push_str(&format!(
        "    \"shard_sweep\": [{}],\n",
        shard_sweep
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("    \"results\": [\n");
    for (i, r) in sharded_records.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"graph\": \"{}\", \"kernel\": \"{}\", \"shards\": {}, \
             \"monolithic_secs\": {}, \"sharded_secs\": {}, \"rel_throughput\": {}, \
             \"shard_build_secs\": {}, \"identical_to_monolithic\": {}}}{}\n",
            r.graph,
            r.kernel,
            r.shards,
            json_f64(r.monolithic_secs),
            json_f64(r.sharded_secs),
            json_f64(r.rel_throughput),
            json_f64(r.build_secs),
            r.identical,
            if i + 1 == sharded_records.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str("    ]\n  },\n");
    // Resident CsrMatrix vs. the spilled PagedCsr behind the budgeted
    // buffer pool (single-threaded, fused LinBP + SpMM), with the
    // paged-equals-resident bitwise check inline.
    json.push_str("  \"out_of_core\": {\n    \"iters_per_measurement\": 5,\n    \"shards\": 8,\n");
    json.push_str("    \"results\": [\n");
    for (i, r) in out_of_core_records.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"graph\": \"{}\", \"kernel\": \"{}\", \"budget\": \"{}\", \
             \"budget_bytes\": {}, \"resident_secs\": {}, \"paged_cold_secs\": {}, \
             \"paged_warm_secs\": {}, \"warm_rel_throughput\": {}, \"misses\": {}, \
             \"evictions\": {}, \"prefetches\": {}, \"identical_to_resident\": {}}}{}\n",
            r.graph,
            r.kernel,
            r.budget,
            r.budget_bytes,
            json_f64(r.resident_secs),
            json_f64(r.cold_secs),
            json_f64(r.warm_secs),
            json_f64(r.warm_rel_throughput),
            r.misses,
            r.evictions,
            r.prefetches,
            r.identical,
            if i + 1 == out_of_core_records.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str("    ]\n  },\n");
    // Sequential vs. admission-coalesced serving of the same q queries
    // through the in-process ServerCore, with the bitwise check inline.
    json.push_str(&format!(
        "  \"serving\": {{\n    \"queries\": {serving_queries},\n    \"results\": [\n"
    ));
    for (i, r) in serving_records.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"graph\": \"{}\", \"nodes\": {}, \"directed_edges\": {}, \
             \"queries\": {}, \"sequential_secs\": {}, \"coalesced_secs\": {}, \
             \"coalesced_over_sequential_wall\": {}, \
             \"sequential_spmm_passes\": {}, \"coalesced_spmm_passes\": {}, \
             \"spmm_pass_ratio\": {}, \"largest_batch\": {}, \
             \"identical_to_sequential\": {}}}{}\n",
            r.graph,
            r.nodes,
            r.directed_edges,
            r.queries,
            json_f64(r.sequential_secs),
            json_f64(r.coalesced_secs),
            json_f64(r.coalesced_over_sequential_wall()),
            r.sequential_spmm_passes,
            r.coalesced_spmm_passes,
            json_f64(r.spmm_pass_ratio),
            r.largest_batch,
            r.identical,
            if i + 1 == serving_records.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str("    ]\n  },\n");
    // Robustness under synthetic overload: an undersized admission queue,
    // retrying clients, and the degradation-policy comparison.
    json.push_str(&format!(
        "  \"robustness\": {{\n    \"queries\": {robustness_queries},\n    \"max_pending\": 2,\n"
    ));
    json.push_str(&format!(
        "    \"all_requests_recovered\": {robustness_all_recovered},\n"
    ));
    json.push_str(&format!(
        "    \"backpressure_engaged\": {robustness_backpressure_engaged},\n"
    ));
    json.push_str(&format!(
        "    \"off_policy_bitwise_identical_to_direct\": {robustness_off_identical},\n"
    ));
    json.push_str(&format!(
        "    \"clamp_qps_ratio_largest_kronecker\": {},\n",
        json_f64(robustness_clamp_qps_ratio)
    ));
    json.push_str("    \"results\": [\n");
    for (i, r) in robustness_records.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"graph\": \"{}\", \"nodes\": {}, \"directed_edges\": {}, \
             \"policy\": \"{}\", \"queries\": {}, \"answered\": {}, \
             \"overloaded_rejections\": {}, \"degraded_clamped\": {}, \
             \"wall_secs\": {}, \"qps\": {}, \"identical_to_direct\": {}}}{}\n",
            r.graph,
            r.nodes,
            r.directed_edges,
            r.policy,
            r.queries,
            r.answered,
            r.overloaded_rejections,
            r.degraded_clamped,
            json_f64(r.wall_secs),
            json_f64(r.qps),
            r.identical_to_direct,
            if i + 1 == robustness_records.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str("    ]\n  },\n");
    // The reldb query-planner comparison: fixed FROM-order joins vs. the
    // bound-minimal order, with the multiset-identity check inline.
    json.push_str("  \"planner\": {\n");
    json.push_str(&format!(
        "    \"speedup_min_across_workloads\": {},\n",
        json_f64(planner_speedup_min)
    ));
    json.push_str(&format!(
        "    \"all_identical_to_fixed_order\": {planner_all_identical},\n"
    ));
    json.push_str("    \"results\": [\n");
    for (i, r) in planner_records.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"workload\": \"{}\", \"fixed_secs\": {}, \"planned_secs\": {}, \
             \"speedup\": {}, \"identical_to_fixed_order\": {}, \"join_order\": \"{}\"}}{}\n",
            r.workload,
            json_f64(r.fixed_secs),
            json_f64(r.planned_secs),
            json_f64(r.speedup),
            r.identical,
            r.join_order,
            if i + 1 == planner_records.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str("    ]\n  },\n");
    // The persistent-pool overhead section: µs of dispatch+compute per
    // small-kernel region, resident workers vs. per-region scoped spawn.
    json.push_str("  \"pool\": {\n");
    json.push_str(&format!(
        "    \"graph_nodes\": {},\n    \"directed_edges\": {},\n    \"regions\": {},\n",
        pool_graph.num_nodes(),
        pool_graph.num_directed_edges(),
        pool_regions
    ));
    json.push_str("    \"results\": [\n");
    for (i, r) in pool_records.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"threads\": {}, \"persistent_us_per_region\": {}, \
             \"scoped_spawn_us_per_region\": {}, \"spawn_overhead_ratio\": {}}}{}\n",
            r.threads,
            json_f64(r.persistent_us_per_region),
            json_f64(r.scoped_spawn_us_per_region),
            json_f64(r.scoped_spawn_us_per_region / r.persistent_us_per_region),
            if i + 1 == pool_records.len() { "" } else { "," }
        ));
    }
    json.push_str("    ]\n  }\n}\n");
    std::fs::write(&out_path, &json).expect("could not write the benchmark JSON");

    println!("\nwrote {out_path}");
    println!(
        "summary: spmm speedup @4 threads on ≥100k-edge graph = {}, all results identical = {}, \
         fused speedup (serial, kronecker_m{m}) = {}, fused identical = {}, \
         frontier speedup (fixed-budget exact solve, kronecker_m{m}) = {}, \
         frontier_bitwise_identical_to_full={}, \
         sharded linbp min rel throughput (kronecker_m{m}) = {}, sharded identical = {}, \
         paged warm rel throughput (kronecker_m{m}) = {}, paged identical = {}, \
         serving coalesced/sequential wall q={serving_queries} (kronecker_m{m}) = {}, \
         serving spmm pass reduction q={serving_queries} (kronecker_m{m}) = {}, \
         serving identical = {}, robustness recovered = {}, robustness clamp qps ratio = {}, \
         planner speedup (min across skewed multiway workloads) = {}, planner identical = {}",
        json_f64(spmm_speedup_4t),
        all_identical,
        json_f64(fused_speedup_largest),
        fused_all_identical,
        json_f64(frontier_speedup_largest),
        frontier_all_identical,
        json_f64(sharded_linbp_min_rel),
        sharded_all_identical,
        json_f64(paged_warm_rel_largest),
        paged_all_identical,
        json_f64(serving_wall_largest),
        json_f64(serving_ratio_largest),
        serving_all_identical,
        robustness_all_recovered,
        json_f64(robustness_clamp_qps_ratio),
        json_f64(planner_speedup_min),
        planner_all_identical
    );
    assert!(
        all_identical,
        "parallel kernel produced a result differing from the serial reference"
    );
    assert!(
        fused_all_identical,
        "fused LinBP step diverged bitwise from the unfused reference"
    );
    assert!(
        frontier_all_identical,
        "active-frontier solve diverged bitwise from full recomputation"
    );
    // The speedup bar only applies at full benchmark size — CI smoke runs
    // a tiny `--m` where fixed overheads dominate the timings.
    if frontier_records
        .iter()
        .any(|r| r.graph == format!("kronecker_m{m}") && r.directed_edges >= 100_000)
    {
        assert!(
            frontier_speedup_largest >= 1.4,
            "frontier speedup on the largest Kronecker graph fell below the 1.4x acceptance \
             bar: {frontier_speedup_largest}"
        );
    }
    assert!(
        sharded_all_identical,
        "sharded kernel produced a result differing from the monolithic reference"
    );
    assert!(
        paged_all_identical,
        "paged (out-of-core) kernel produced a result differing from the resident reference"
    );
    assert!(
        serving_all_identical,
        "coalesced serving produced beliefs differing from sequential serving"
    );
    assert!(
        robustness_all_recovered,
        "a retried request was never recovered under synthetic overload"
    );
    assert!(
        robustness_off_identical,
        "an answer under overload (policy off) diverged bitwise from the uncontended solve"
    );
    assert!(
        planner_all_identical,
        "planned execution produced a row multiset differing from the fixed join order"
    );
    assert!(
        planner_speedup_min >= 2.0,
        "planner speedup on skewed multiway workloads fell below the 2x acceptance bar: {planner_speedup_min}"
    );
}

#[cfg(test)]
mod tests {
    use super::extract_hardware_threads;

    #[test]
    fn extracts_hardware_threads_from_baseline_json() {
        let json = "{\n  \"bench\": \"kernels\",\n  \"hardware_threads\": 16,\n  \"reps\": 3\n}\n";
        assert_eq!(extract_hardware_threads(json), Some(16));
        assert_eq!(
            extract_hardware_threads("{\"hardware_threads\":8}"),
            Some(8)
        );
        assert_eq!(
            extract_hardware_threads("{\"hardware_threads\"  :  4 ,"),
            Some(4)
        );
        assert_eq!(extract_hardware_threads("{\"reps\": 3}"), None);
        assert_eq!(extract_hardware_threads("\"hardware_threads\": x"), None);
        assert_eq!(extract_hardware_threads(""), None);
    }
}
