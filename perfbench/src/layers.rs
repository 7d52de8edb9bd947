//! The traced run: the workload's phase untraced and traced (the
//! difference is the tracing overhead), per-layer self time from the
//! spans, and a probe of every layer on the workload's own graph.
//!
//! [`CONTRACT`] lists the per-layer metrics every traced run reports,
//! whatever the workload (the `per_layer` list of `BENCHMARK.json`).
//! Workload-specific layer metrics (`server.*` and `gen.*` on `serve`,
//! `reldb.linbp_*` on `sql`) are added by the workloads and printed in the
//! report, not in the contract line.

use crate::common::{peak_rss_mb, repeat_for, timed};
use crate::report::Report;
use crate::rng::Rng;
use crate::serve::SettledCore;
use crate::stats::median;
use crate::{sql, trace, Ctx, Phase};
use lsbp::prelude::*;
use lsbp_linalg::Mat;
use lsbp_net::{BeliefsPayload, Response, ResponseEnvelope, ServedVia};
use lsbp_sparse::{CsrMatrix, FusedLinBpStep};

/// Per-layer metrics of every traced run, with units.
pub const CONTRACT: [(&str, &str); 46] = [
    ("graph.build_s", "s"),
    ("server.register_s", "s"),
    ("kernel.fused_k3_us", "us"),
    ("kernel.fused_k3q8_us", "us"),
    ("kernel.spmv_us", "us"),
    ("kernel.fused_bytes", "bytes"),
    ("kernel.fused_ops_per_byte", "flop/B"),
    ("kernel.fused_gbps", "GB/s"),
    ("sharded.fused_k3_us", "us"),
    ("pager.fused_k3_warm_us", "us"),
    ("pager.warm_rel_throughput", "ratio"),
    ("pager.hits", "count"),
    ("pager.misses", "count"),
    ("pager.evictions", "count"),
    ("pager.prefetches", "count"),
    ("pager.hit_ratio", "ratio"),
    ("pager.evictions_per_miss", "ratio"),
    ("shard_file.spill_s", "s"),
    ("shard_file.load_shard_ms", "ms"),
    ("solver.iterations", "count"),
    ("solver.ms_per_iter", "ms"),
    ("frontier.skip_ratio", "ratio"),
    ("frontier.rows_active", "count"),
    ("frontier.converging_skip_ratio", "ratio"),
    ("batch.q1_ms", "ms"),
    ("batch.q8_ms", "ms"),
    ("batch.q32_ms", "ms"),
    ("batch.q8_cost_per_query", "ratio"),
    ("rwr.solve_ms", "ms"),
    ("edge_delta.seed_ms", "ms"),
    ("edge_delta.patch_ms", "ms"),
    ("sbp.geodesic_ms", "ms"),
    ("sbp.add_explicit_ms", "ms"),
    ("sbp.add_edges_ms", "ms"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.frame_bytes", "bytes"),
    ("tcp.ping_idle_us", "us"),
    ("reldb.parse_us", "us"),
    ("reldb.chain_ms", "ms"),
    ("reldb.star_ms", "ms"),
    ("reldb.triangle_ms", "ms"),
    ("reldb.bound_over_actual_max", "ratio"),
    ("trace.overhead_pct", "%"),
    ("server.delta_patch_ms", "ms"),
    ("server.cache_hit_us", "us"),
];

/// Cached LinBP entries an edge delta patches in the probes:
/// `edge_delta.patch_ms` solves this many patches in one batch, and
/// `server.delta_patch_ms` patches this many cached entries.
pub const PATCH_Q: usize = 16;

/// Seconds each probe measures for (at least [`PROBE_MIN_REPS`] calls).
const PROBE_SECONDS: f64 = 0.15;
const PROBE_MIN_REPS: usize = 3;

/// What the probes run on: the workload's graph, coupling and labels.
pub struct Spec<'a> {
    pub adj: &'a CsrMatrix,
    pub k: usize,
    /// Scaled residual coupling `Ĥ` (LinBP, RWR-free layers).
    pub h: &'a Mat,
    /// Unscaled residual coupling (SBP).
    pub h_o: &'a Mat,
    pub labels: &'a ExplicitBeliefs,
    pub fixed_sweeps: usize,
}

/// Runs the workload's measured phase and, in a traced run, everything
/// else the per-layer report needs.
pub fn measure(ctx: &Ctx, r: &mut Report, phase: &mut Phase, spec: &Spec) {
    if !ctx.traced {
        let (query, round) = phase(ctx.seconds, r);
        r.named("query_ms", query, "ms");
        r.named("round_ms", round, "ms");
        return;
    }
    // Untraced half: end-to-end reference for the overhead, and the
    // correctness checks. Both halves draw the same inputs (every phase
    // restarts the workload's input streams), so their `query_ms` differ
    // by the spans' cost and the machine's drift between the halves.
    let mut untraced = Report::new();
    let (query_off, _) = phase(ctx.seconds / 2.0, &mut untraced);
    r.attempted += untraced.attempted;
    r.failed += untraced.failed;
    r.wrong += untraced.wrong;
    r.valid &= untraced.valid;
    r.checks.extend(untraced.checks);
    r.facts.extend(
        untraced
            .facts
            .into_iter()
            .map(|(k, v)| (format!("untraced.{k}"), v)),
    );

    // Traced half.
    trace::take();
    trace::set_enabled(true);
    let (query_on, round_on) = phase(ctx.seconds / 2.0, r);
    trace::set_enabled(false);
    let spans = trace::take();
    r.named("query_ms", query_on, "ms");
    r.named("round_ms", round_on, "ms");
    r.layer(
        "trace.overhead_pct",
        (query_on / query_off - 1.0) * 100.0,
        "%",
    );
    r.fact("spans", spans.len());
    for (layer, ms) in trace::self_times(&spans) {
        r.layer(&format!("self.{layer}_ms"), ms, "ms");
    }
    let path = ctx
        .out_dir()
        .join(format!("spans-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    match trace::write_jsonl(&path, &spans) {
        Ok(()) => r.fact("span_file", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    probe(ctx, r, spec);
    r.fact("peak_rss_mb_traced", peak_rss_mb());
}

/// Median per-call time of `f` in the given unit scale (1e6 = µs).
fn per_call(scale: f64, f: impl FnMut()) -> f64 {
    median(&repeat_for(PROBE_SECONDS, PROBE_MIN_REPS, f)) * scale
}

/// A deterministic dense `n × cols` matrix for the kernel probes.
fn filler(n: usize, cols: usize, seed: u64) -> Mat {
    let mut rng = Rng::stream(seed, 0xF111);
    Mat::from_fn(n, cols, |_, _| rng.unit() * 0.2 - 0.1)
}

/// The serving-style seed sets: disjoint blocks of `n / 40` nodes, class
/// assignment rotated per query.
pub fn block_queries(n: usize, k: usize, count: usize) -> Vec<ExplicitBeliefs> {
    let block = (n / 40).max(1);
    (0..count)
        .map(|j| {
            let mut e = ExplicitBeliefs::new(n, k);
            for i in 0..block {
                let v = ((j % 40) * block + i) % n;
                e.set_label(v, (i + j) % k, 1.0).expect("in range");
            }
            e
        })
        .collect()
}

/// One fused LinBP step of width `k·q` on `op`, timed per call.
fn fused_us(op: &dyn PropagationOperator, n: usize, q: usize, seed: u64) -> f64 {
    let cfg = ParallelismConfig::from_env();
    let (h, _) = crate::common::kronecker_h();
    let h2 = h.matmul(&h);
    let e = filler(n, 3 * q, seed);
    let b = filler(n, 3 * q, seed + 1);
    let mut out = Mat::zeros(n, 3 * q);
    let mut deltas = vec![0.0; q];
    let degrees = vec![1.0; n];
    let step = FusedLinBpStep {
        e_hat: &e,
        h: &h,
        h2: Some(&h2),
        degrees: &degrees,
        damping: 0.0,
    };
    per_call(1e6, || {
        op.linbp_step_fused_with(&b, &step, &mut out, &mut deltas, &cfg);
        std::hint::black_box(&out);
    })
}

fn record_once(r: &mut Report, name: &str, value: impl FnOnce() -> f64, unit: &'static str) {
    if r.get(name).is_none() {
        let v = value();
        r.layer(name, v, unit);
    }
}

/// Probes every layer on the spec's graph (tracing off).
pub fn probe(ctx: &Ctx, r: &mut Report, spec: &Spec) {
    let adj = spec.adj;
    let n = adj.n_rows();
    let k = spec.k;
    let cfg = ParallelismConfig::from_env();
    let seed = ctx.seed;

    // graph / server: set-up layers, when the workload's set-up did not
    // already measure them.
    record_once(r, "server.register_s", || register_secs(adj), "s");

    // kernel
    let fused = fused_us(adj, n, 1, seed);
    r.layer("kernel.fused_k3_us", fused, "us");
    r.layer("kernel.fused_k3q8_us", fused_us(adj, n, 8, seed), "us");
    let x: Vec<f64> = (0..n).map(|i| (i % 23) as f64 * 0.03 - 0.31).collect();
    let mut y = vec![0.0; n];
    r.layer(
        "kernel.spmv_us",
        per_call(1e6, || {
            adj.spmv_into_with(&x, &mut y, &cfg);
            std::hint::black_box(&y);
        }),
        "us",
    );
    // Computed, not measured: bytes one q = 1, k = 3 fused step must move
    // (CSR arrays, B and Ê read, out written, degrees) and its flops.
    let (nn, nnz, kk) = (n as f64, adj.nnz() as f64, 3.0);
    let bytes = (nn + 1.0) * 8.0 + nnz * 12.0 + 3.0 * nn * kk * 8.0 + nn * 8.0;
    let flops = 2.0 * nnz * kk + 4.0 * nn * kk * kk + 3.0 * nn * kk;
    r.layer("kernel.fused_bytes", bytes, "bytes");
    r.layer("kernel.fused_ops_per_byte", flops / bytes, "flop/B");
    r.layer("kernel.fused_gbps", bytes / (fused * 1e-6) / 1e9, "GB/s");

    // sharded
    let sharded = ShardedCsr::from_csr(adj, 8);
    r.layer("sharded.fused_k3_us", fused_us(&sharded, n, 1, seed), "us");
    drop(sharded);

    // pager + shard_file: half-budget store in 8 shards.
    let ((paged, path), spill) = timed(|| crate::label::spill_half(ctx, adj, "probe"));
    record_once(r, "shard_file.spill_s", || spill, "s");
    fused_us(&paged, n, 1, seed); // cold pass
    let before = paged.stats();
    let warm = fused_us(&paged, n, 1, seed);
    let after = paged.stats();
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    let evictions = (after.evictions - before.evictions) as f64;
    r.layer("pager.fused_k3_warm_us", warm, "us");
    r.layer("pager.warm_rel_throughput", fused / warm, "ratio");
    r.layer("pager.hits", hits, "count");
    r.layer("pager.misses", misses, "count");
    r.layer("pager.evictions", evictions, "count");
    r.layer(
        "pager.prefetches",
        (after.prefetches - before.prefetches) as f64,
        "count",
    );
    r.layer("pager.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    r.layer(
        "pager.evictions_per_miss",
        evictions / misses.max(1.0),
        "ratio",
    );
    drop(paged);
    let shards = PagedCsr::open(&path, PagedOptions::default())
        .map(|p| p.num_shards())
        .unwrap_or(1);
    let mut load_ms = Vec::new();
    for i in 0..shards {
        if let Ok(fresh) = PagedCsr::open(&path, PagedOptions::default().with_prefetch(false)) {
            let (res, t) = timed(|| fresh.load_shard(i));
            if res.is_ok() {
                load_ms.push(t * 1e3);
            }
        }
    }
    r.layer("shard_file.load_shard_ms", median(&load_ms), "ms");
    let _ = std::fs::remove_file(&path);

    // solver + frontier
    let converging = LinBpOptions {
        max_iter: 1000,
        tol: 1e-9,
        norm: ToleranceNorm::MaxAbs,
        damping: 0.0,
        divergence_guard: 1e12,
        parallelism: cfg,
    };
    let (run, t) = timed(|| linbp_on(adj, spec.labels, spec.h, &converging));
    if let Ok(run) = run {
        r.layer("solver.iterations", run.iterations as f64, "count");
        r.layer(
            "solver.ms_per_iter",
            t * 1e3 / run.iterations.max(1) as f64,
            "ms",
        );
        let total = (run.rows_active + run.rows_skipped).max(1) as f64;
        r.layer(
            "frontier.converging_skip_ratio",
            run.rows_skipped as f64 / total,
            "ratio",
        );
    }
    let fixed = LinBpOptions {
        max_iter: spec.fixed_sweeps,
        tol: 0.0,
        ..converging
    };
    if let Ok(run) = linbp_on(adj, spec.labels, spec.h, &fixed) {
        let total = (run.rows_active + run.rows_skipped).max(1) as f64;
        r.layer(
            "frontier.skip_ratio",
            run.rows_skipped as f64 / total,
            "ratio",
        );
        r.layer("frontier.rows_active", run.rows_active as f64, "count");
    }

    // batch / rwr / edge_delta
    let queries = block_queries(n, k, 32);
    let batch = |q: usize| {
        per_call(1e3, || {
            std::hint::black_box(linbp_batch_on(adj, &queries[..q], spec.h, &converging).ok());
        })
    };
    let (q1, q8, q32) = (batch(1), batch(8), batch(32));
    r.layer("batch.q1_ms", q1, "ms");
    r.layer("batch.q8_ms", q8, "ms");
    r.layer("batch.q32_ms", q32, "ms");
    r.layer("batch.q8_cost_per_query", q8 / (8.0 * q1), "ratio");
    let rwr_opts = RwrOptions {
        restart: 0.15,
        max_iter: 100,
        tol: crate::serve::RWR_TOL,
        norm: ToleranceNorm::MaxAbs,
        parallelism: cfg,
    };
    r.layer(
        "rwr.solve_ms",
        per_call(1e3, || {
            std::hint::black_box(rwr_on(adj, &queries[0], &rwr_opts).ok());
        }),
        "ms",
    );
    let mut rng = Rng::stream(seed, 0xDE17A);
    let deltas: Vec<(usize, usize, f64)> = (0..8)
        .flat_map(|_| {
            let (s, t) = (rng.below(n), rng.below(n));
            [(s, t, 0.1), (t, s, 0.1)]
        })
        .filter(|&(s, t, _)| s != t)
        .collect();
    let adj_new = adj.try_with_edge_deltas(&deltas).expect("deltas in range");
    if let Ok(prev) = linbp_batch_on(adj, &queries[..PATCH_Q], spec.h, &converging) {
        let prev: Vec<BeliefMatrix> = prev.into_iter().map(|p| p.beliefs).collect();
        let seed_of = |p: &BeliefMatrix| {
            lsbp::edge_delta::linbp_edge_delta_seed(adj, &deltas, p, spec.h, true)
                .expect("seed dimensions agree")
        };
        r.layer(
            "edge_delta.seed_ms",
            per_call(1e3, || {
                std::hint::black_box(prev.iter().map(seed_of).collect::<Vec<_>>());
            }),
            "ms",
        );
        let seeds: Vec<ExplicitBeliefs> = prev.iter().map(seed_of).collect();
        let prev_refs: Vec<&BeliefMatrix> = prev.iter().collect();
        r.layer(
            "edge_delta.patch_ms",
            per_call(1e3, || {
                std::hint::black_box(
                    linbp_update_batch_on(&adj_new, &prev_refs, &seeds, spec.h, &converging, true)
                        .ok(),
                );
            }),
            "ms",
        );
    }

    // sbp
    let sources = spec.labels.explicit_nodes();
    r.layer(
        "sbp.geodesic_ms",
        per_call(1e3, || {
            std::hint::black_box(lsbp_graph::geodesic_numbers(adj, &sources));
        }),
        "ms",
    );
    if let Ok(prev) = sbp_on(adj, spec.labels, spec.h_o, &cfg) {
        let additions = crate::common::draw_labels(
            &mut rng,
            n,
            k,
            (n / 1000).max(1),
            |v| v % k,
            |v| spec.labels.is_explicit(v),
        );
        r.layer(
            "sbp.add_explicit_ms",
            per_call(1e3, || {
                std::hint::black_box(sbp_add_explicit(adj, spec.h_o, &prev, &additions).ok());
            }),
            "ms",
        );
        let edges = crate::label::new_edge_burst(&mut rng, adj, 10);
        let grown = crate::label::with_edges(adj, &edges);
        r.layer(
            "sbp.add_edges_ms",
            per_call(1e3, || {
                std::hint::black_box(sbp_add_edges(&grown, &edges, spec.h_o, &prev).ok());
            }),
            "ms",
        );
    }

    // net: an m9-sized Beliefs envelope (19,683 nodes × 3 classes).
    let beliefs = filler(19_683, 3, seed).as_slice().to_vec();
    let envelope = ResponseEnvelope::new(
        7,
        Response::Beliefs(BeliefsPayload {
            n: 19_683,
            k: 3,
            beliefs,
            converged: true,
            diverged: false,
            iterations: 12,
            final_delta: 1e-10,
            served: ServedVia::Cache,
        }),
    );
    let bytes = envelope.encode();
    r.layer(
        "net.encode_us",
        per_call(1e6, || {
            std::hint::black_box(envelope.encode());
        }),
        "us",
    );
    r.layer(
        "net.decode_us",
        per_call(1e6, || {
            std::hint::black_box(ResponseEnvelope::decode(&bytes).ok());
        }),
        "us",
    );
    r.layer("net.frame_bytes", (bytes.len() + 4) as f64, "bytes");

    // server: the cache and delta-patching path through `ServerCore`.
    server_probe(r, adj, spec.h, seed);

    // tcp: ping round trips to an idle server.
    r.layer("tcp.ping_idle_us", idle_ping_us(), "us");

    // reldb: the three skewed joins.
    sql::probe_joins(ctx, r);
}

/// Seconds to register `adj` with a fresh core.
fn register_secs(adj: &CsrMatrix) -> f64 {
    let edges = crate::serve::wire_edges(adj);
    let core = SettledCore::new();
    let (_, t) = timed(|| crate::serve::register(&core, 1, adj.n_rows(), edges));
    t
}

/// `server.delta_patch_ms` and `server.cache_hit_us` on a fresh core
/// holding [`PATCH_Q`] cached LinBP answers on `adj`: an `EdgeDelta`
/// through `handle_blocking` (new version, operator rebuild and the patch
/// of every cached answer; the deltas alternate between adding and taking
/// back the same edges, so every call patches the same entries on the
/// same graph), and a cached answer read back the same way.
fn server_probe(r: &mut Report, adj: &CsrMatrix, h: &Mat, seed: u64) {
    let n = adj.n_rows();
    let core = SettledCore::new();
    crate::serve::register(&core, 1, n, crate::serve::wire_edges(adj));
    let (tx, rx) = std::sync::mpsc::channel();
    for u in 0..PATCH_Q {
        let tx = tx.clone();
        core.submit(
            crate::serve::block_request(1, u, n, h),
            Box::new(move |resp| drop(tx.send(resp))),
        );
    }
    let filled = rx
        .iter()
        .take(PATCH_Q)
        .all(|resp| matches!(resp, Response::Beliefs(_)));
    let add = crate::serve::delta_edges(&mut Rng::stream(seed, 0x5E4E), n);
    let take_back: Vec<(usize, usize, f64)> = add.iter().map(|&(s, t, w)| (s, t, -w)).collect();
    let mut calls = 0usize;
    let mut patched_all = filled;
    let patch_ms = per_call(1e3, || {
        let edges = if calls.is_multiple_of(2) {
            &add
        } else {
            &take_back
        };
        calls += 1;
        let reply = core.handle_blocking(crate::serve::edge_delta(1, edges));
        patched_all &=
            matches!(reply, Response::DeltaApplied { patched, .. } if patched == PATCH_Q as u64);
    });
    r.check(
        "server_probe_delta_patches_every_entry",
        patched_all,
        format!("{calls} deltas over {PATCH_Q} cached answers"),
    );
    r.layer("server.delta_patch_ms", patch_ms, "ms");
    let mut cached = true;
    let hit_us = per_call(1e6, || {
        let reply = core.handle_blocking(crate::serve::block_request(1, 0, n, h));
        cached &= matches!(&reply, Response::Beliefs(p) if p.served == ServedVia::CachePatched);
    });
    r.check(
        "server_probe_reads_from_cache",
        cached,
        "cached answer read back",
    );
    r.layer("server.cache_hit_us", hit_us, "us");
}

/// Median round trip of a `Ping` to an idle server over loopback TCP.
fn idle_ping_us() -> f64 {
    let core = SettledCore::new();
    crate::serve::with_tcp(&core, |addr| {
        let mut client = lsbp_client::Client::connect(addr).expect("loopback connect");
        let samples = repeat_for(PROBE_SECONDS, 50, || {
            client.ping().expect("ping");
        });
        client.shutdown().expect("shutdown");
        median(&samples) * 1e6
    })
}
