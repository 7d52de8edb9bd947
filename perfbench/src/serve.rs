//! `serve`: labelling queries from independent users against the serving
//! core, on kronecker_m9 registered through `RegisterGraph`.
//!
//! * Open loop: one load thread submits to `ServerCore::submit` on a
//!   seeded Poisson schedule at a fixed rate — 80% LinBP, 20% RWR, seed
//!   sets drawn by Zipf popularity from a universe of [`UNIVERSE`] sets —
//!   with bursts of `EdgeDelta` writes that patch the cache. Each request
//!   is timed from when it was due.
//! * Closed loop: the same thread runs rounds of LinBP solves on fresh
//!   seed sets: lone queries one at a time, then a wave of [`WINDOW`]
//!   solves on the round's own registration of the graph, one `EdgeDelta`
//!   that patches exactly those cached answers, and the wave read back
//!   from the patched cache.
//! * Throughout both, a second load thread probes the same core over TCP
//!   with one `Client`: `health()` alternating with a cached solve.
//!
//! After the clock stops, answers are checked bitwise against the library:
//! fresh answers against `linbp_on`/`rwr_on` on the graph version they
//! were admitted at, patched answers against `linbp_edge_delta_seed` +
//! `linbp_update` chained from the version they were first solved at.

use crate::common::{self, fingerprint, repeated_setup, timed};
use crate::layers::{self, Spec};
use crate::report::Report;
use crate::rng::{Rng, Zipf};
use crate::stats::{block_median, median, percentile, tail, Summary};
use crate::trace::{self, span};
use crate::Ctx;
use lsbp::prelude::*;
use lsbp_graph::generators::kronecker_graph;
use lsbp_linalg::Mat;
use lsbp_net::{
    ErrorCode, LinBpParams, Request, Response, RwrParams, ServedVia, WireEdge, WireNorm, WireSeed,
};
use lsbp_server::{ServerConfig, ServerCore};
use lsbp_sparse::CsrMatrix;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const GRAPH_ID: u64 = 1;
const EXPONENT: u32 = 9;
const TINY_EXPONENT: u32 = 5;
/// Open-loop arrival rate (requests per second), frozen. With one RWR
/// solve costing about ten LinBP solves, 5/s keeps the solver idle at
/// most arrivals, so the median LinBP request measures service rather
/// than queueing; at half of `serve_qps` (about 30/s on 2 hardware
/// threads) the median sits between the idle and the queued mode and
/// swings by half between runs, and even at 8/s a slow stretch of a
/// shared machine moves it by a quarter.
const RATE: f64 = 5.0;
/// Seed sets the open-loop requests are drawn from, and their Zipf skew.
const UNIVERSE: usize = 120;
const ZIPF_S: f64 = 0.7;
/// Share of open-loop solves that are RWR, and their tolerance (visiting
/// scores are O(1/block) ≈ 2e-3, so 1e-5 is 0.5% of the signal).
const RWR_SHARE: f64 = 0.2;
pub const RWR_TOL: f64 = 1e-5;
/// An edge-delta burst every this many seconds: this many requests of
/// this many undirected edges each. Each delta patches every cached LinBP
/// entry on the submitting thread; `server.patch_solver_share` in a traced
/// run reports what share of the solver's busy time that takes.
const DELTA_EVERY_S: f64 = 2.5;
const DELTA_BURST: usize = 2;
const DELTA_EDGES: usize = 8;
/// Closed-loop window (outstanding solves); at least `max_batch`. The
/// closed loop runs this many rounds per second of its share of the run;
/// a round (lone queries, then a wave of `WINDOW` solves, the edge delta
/// that patches them and their read-back) takes about 1 s on 2
/// hardware threads.
const WINDOW: usize = 32;
const ROUNDS_PER_SECOND: f64 = 1.0;
/// Lone queries before each round (one takes about 13 ms).
const SINGLES_PER_ROUND: usize = 16;
/// Pause between two probe rounds (health + cached solve).
const PROBE_THINK: Duration = Duration::from_millis(20);
/// Share of the measured time spent in the open loop; the closed loop,
/// whose figures are the run's headline, takes the rest.
const OPEN_SHARE: f64 = 0.45;
/// Stream of the open-loop schedule and of the closed loop's seed sets.
/// Every phase of a run draws the same inputs, so the traced and the
/// untraced half of a traced run are comparable.
const INPUT_STREAM: u64 = 1;
/// Answers checked against the library per run, at most.
const FRESH_CHECKS: usize = 48;
const PATCH_CHECKS: usize = 8;

/// Every directed adjacency entry as a wire edge (the registration
/// payload: `symmetric = false`, the CSR's own entries).
pub fn wire_edges(adj: &CsrMatrix) -> Vec<WireEdge> {
    (0..adj.n_rows())
        .flat_map(|r| {
            adj.row_cols(r)
                .iter()
                .zip(adj.row_values(r))
                .map(move |(&c, &w)| WireEdge {
                    src: r as u64,
                    dst: u64::from(c),
                    weight: w,
                })
        })
        .collect()
}

/// Registers the graph under `graph_id`.
pub fn register(core: &ServerCore, graph_id: u64, n: usize, edges: Vec<WireEdge>) {
    let reply = span("server.register", 0, || {
        core.handle_blocking(Request::RegisterGraph {
            graph_id,
            n_nodes: n as u64,
            symmetric: false,
            edges,
        })
    });
    assert!(
        matches!(reply, Response::Registered { .. }),
        "benchmark graph registration failed: {reply:?}"
    );
}

/// Serves `core` over loopback TCP while `f` runs, then shuts the server
/// down and waits for its loop to exit.
pub fn with_tcp<R>(core: &ServerCore, f: impl FnOnce(SocketAddr) -> R) -> R {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    std::thread::scope(|s| {
        let server = s.spawn(|| lsbp_server::serve(listener, core));
        let out = f(addr);
        if !core.is_stopping() {
            if let Ok(mut c) = lsbp_client::Client::connect(addr) {
                let _ = c.shutdown();
            }
        }
        let _ = server.join();
        out
    })
}

/// The solve parameters every open-loop LinBP request carries.
fn linbp_params(h: &Mat) -> LinBpParams {
    LinBpParams {
        echo: true,
        k: h.rows() as u32,
        h_residual: h.as_slice().to_vec(),
        max_iter: 100,
        tol: 1e-9,
        norm: WireNorm::MaxAbs,
        damping: 0.0,
        divergence_guard: 1e12,
    }
}

fn rwr_params(k: usize) -> RwrParams {
    RwrParams {
        k: k as u32,
        restart: 0.15,
        max_iter: 100,
        tol: RWR_TOL,
        norm: WireNorm::MaxAbs,
    }
}

/// The library options the server derives from those parameters.
fn linbp_opts() -> LinBpOptions {
    LinBpOptions {
        max_iter: 100,
        tol: 1e-9,
        norm: ToleranceNorm::MaxAbs,
        damping: 0.0,
        divergence_guard: 1e12,
        parallelism: ParallelismConfig::from_env(),
    }
}

fn rwr_opts() -> RwrOptions {
    RwrOptions {
        restart: 0.15,
        max_iter: 100,
        tol: RWR_TOL,
        norm: ToleranceNorm::MaxAbs,
        parallelism: ParallelismConfig::from_env(),
    }
}

/// Seed set `id`: a block of `n / 40` consecutive nodes starting at
/// `start`, classes rotated by `rot`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct SeedSet {
    start: usize,
    rot: usize,
}

impl SeedSet {
    /// Universe member `u`: one of the 40 disjoint blocks, rotation `u / 40`.
    fn universe(u: usize, n: usize) -> Self {
        let block = (n / 40).max(1);
        Self {
            start: (u % 40) * block,
            rot: u / 40,
        }
    }

    fn wire(&self, n: usize, k: usize) -> Vec<WireSeed> {
        let block = (n / 40).max(1);
        (0..block)
            .map(|i| {
                let mut residual = vec![-2.0 / (k as f64 - 1.0); k];
                residual[(i + self.rot) % k] = 2.0;
                WireSeed {
                    node: ((self.start + i) % n) as u64,
                    residual,
                }
            })
            .collect()
    }

    fn explicit(&self, n: usize, k: usize) -> ExplicitBeliefs {
        let mut e = ExplicitBeliefs::new(n, k);
        for s in self.wire(n, k) {
            e.set_residual(s.node as usize, &s.residual)
                .expect("seed rows have k entries");
        }
        e
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Method {
    LinBp,
    Rwr,
}

#[derive(Clone, Debug)]
enum Item {
    Solve(Method, SeedSet),
    Delta(Vec<(usize, usize, f64)>),
}

/// What a responder reports back: request index, latency from due, and
/// the answer's fingerprint (or the error).
struct Answer {
    idx: usize,
    latency: f64,
    outcome: Result<(ServedVia, u64), ErrorCode>,
}

fn summarize(resp: Response) -> Result<(ServedVia, u64), ErrorCode> {
    match resp {
        Response::Beliefs(p) => Ok((p.served, fingerprint(&p.beliefs))),
        Response::Error { code, .. } => Err(code),
        _ => Err(ErrorCode::Internal),
    }
}

/// The LinBP request for universe member `u` (a block of `n / 40` nodes).
pub fn block_request(graph_id: u64, u: usize, n: usize, h: &Mat) -> Request {
    request(graph_id, Method::LinBp, &SeedSet::universe(u, n), n, h)
}

/// An `EdgeDelta` adding `w` to each undirected edge.
pub fn edge_delta(graph_id: u64, edges: &[(usize, usize, f64)]) -> Request {
    Request::EdgeDelta {
        graph_id,
        symmetric: true,
        deltas: edges
            .iter()
            .map(|&(s, t, w)| WireEdge {
                src: s as u64,
                dst: t as u64,
                weight: w,
            })
            .collect(),
    }
}

/// `DELTA_EDGES` random undirected edges of weight 0.1 (no self-loops).
pub fn delta_edges(rng: &mut Rng, n: usize) -> Vec<(usize, usize, f64)> {
    (0..DELTA_EDGES)
        .map(|_| (rng.below(n), rng.below(n), 0.1))
        .filter(|&(s, t, _)| s != t)
        .collect()
}

fn request(graph_id: u64, method: Method, set: &SeedSet, n: usize, h: &Mat) -> Request {
    let k = h.rows();
    match method {
        Method::LinBp => Request::SolveLinBp {
            graph_id,
            params: linbp_params(h),
            seeds: set.wire(n, k),
        },
        Method::Rwr => Request::SolveRwr {
            graph_id,
            params: rwr_params(k),
            seeds: set.wire(n, k),
        },
    }
}

/// The seeded open-loop schedule: `(due offset, item)` for `seconds`,
/// computed before the clock starts.
fn schedule(seed: u64, seconds: f64, rate: f64, n: usize) -> Vec<(Duration, Item)> {
    let mut rng = Rng::stream(seed, 0x5C4E_D000 + INPUT_STREAM);
    let zipf = Zipf::new(UNIVERSE, ZIPF_S);
    let mut out = Vec::new();
    let mut t = rng.exp(1.0 / rate);
    let mut next_delta = DELTA_EVERY_S / 2.0;
    while t < seconds || next_delta < seconds {
        if next_delta <= t {
            for _ in 0..DELTA_BURST {
                let edges = delta_edges(&mut rng, n);
                out.push((Duration::from_secs_f64(next_delta), Item::Delta(edges)));
            }
            next_delta += DELTA_EVERY_S;
            continue;
        }
        let method = if rng.unit() < RWR_SHARE {
            Method::Rwr
        } else {
            Method::LinBp
        };
        let set = SeedSet::universe(zipf.sample(&mut rng), n);
        out.push((Duration::from_secs_f64(t), Item::Solve(method, set)));
        t += rng.exp(1.0 / rate);
    }
    out
}

/// Waits until `due`: sleeps most of the gap, spins the last stretch.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let gap = due - now;
        if gap > Duration::from_micros(300) {
            std::thread::sleep(gap - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One answered open-loop solve, as the checks need it.
struct Record {
    method: Method,
    set: SeedSet,
    version: usize,
    via: ServedVia,
    fp: u64,
}

/// The library's view of the served graph: every version's deltas.
struct Mirror {
    base: CsrMatrix,
    /// `deltas[v]` takes version `v` to `v + 1` (both directions listed).
    deltas: Vec<Vec<(usize, usize, f64)>>,
}

impl Mirror {
    fn versions(&self) -> Vec<CsrMatrix> {
        let mut out = vec![self.base.clone()];
        for d in &self.deltas {
            let next = out
                .last()
                .expect("at least the base")
                .try_with_edge_deltas(d)
                .expect("deltas are in range");
            out.push(next);
        }
        out
    }
}

fn both_directions(edges: &[(usize, usize, f64)]) -> Vec<(usize, usize, f64)> {
    edges
        .iter()
        .flat_map(|&(s, t, w)| [(s, t, w), (t, s, w)])
        .collect()
}

/// A `ServerCore` whose solver thread is left to settle before the core
/// is dropped. `ServerCore::stop` raises the stop flag and notifies
/// without taking the admission lock, so a solver thread caught between
/// reading the flag and starting to wait misses the wakeup, and the core's
/// `Drop` waits for it forever. A core dropped right after it was created
/// (a set-up repetition on a tiny graph) can hit that window; a solver
/// that has been idle for [`SETTLE`] is already waiting.
pub struct SettledCore(ServerCore);

const SETTLE: Duration = Duration::from_millis(20);

impl SettledCore {
    pub fn new() -> Self {
        Self(ServerCore::new(ServerConfig::default()))
    }
}

impl std::ops::Deref for SettledCore {
    type Target = ServerCore;

    fn deref(&self) -> &ServerCore {
        &self.0
    }
}

impl Drop for SettledCore {
    fn drop(&mut self) {
        std::thread::sleep(SETTLE);
    }
}

struct Setup {
    core: SettledCore,
    adj: CsrMatrix,
}

pub fn run(ctx: &Ctx, r: &mut Report) {
    let (h, h_o) = common::kronecker_h();
    let k = h.rows();
    let m = if ctx.tiny { TINY_EXPONENT } else { EXPONENT };
    let mut graph_secs = Vec::new();
    let mut register_secs = Vec::new();
    let setup = repeated_setup(r, || {
        let (adj, t) = timed(|| span("graph.build", 0, || kronecker_graph(m).adjacency()));
        graph_secs.push(t);
        let core = SettledCore::new();
        let edges = wire_edges(&adj);
        let ((), t) = timed(|| register(&core, GRAPH_ID, adj.n_rows(), edges));
        register_secs.push(t);
        Setup { core, adj }
    });
    let n = setup.adj.n_rows();
    let core: &ServerCore = &setup.core;
    let config = core.config().clone();
    r.fact("graph", format!("kronecker_m{m}"));
    r.fact("nodes", n);
    r.fact("directed_edges", setup.adj.nnz());
    r.fact("k", k);
    r.fact("max_batch", config.max_batch);
    r.fact(
        "coalesce_window_ms",
        config.coalesce_window.as_secs_f64() * 1e3,
    );
    // Tiny solves take microseconds; a faster schedule still fills the
    // short tiny phases with requests.
    let rate = if ctx.tiny { 25.0 * RATE } else { RATE };
    r.fact("rate_per_s", rate);
    r.fact("universe", UNIVERSE);
    r.fact("window", WINDOW);
    r.fact("load_threads", 2);
    r.layer("graph.build_s", median(&graph_secs), "s");
    r.layer("server.register_s", median(&register_secs), "s");
    let probe_set = SeedSet {
        start: n / 80,
        rot: 1,
    };
    // The last graph id handed out: the set-up registered `GRAPH_ID`.
    let ids = AtomicU64::new(GRAPH_ID);
    let mut phases = 0;

    with_tcp(core, |addr| {
        let mut phase = |seconds: f64, r: &mut Report| -> (f64, f64) {
            // Each phase serves its own registration of the graph, so a
            // second phase starts from an empty cache like the first.
            phases += 1;
            let graph_id = if phases == 1 {
                GRAPH_ID
            } else {
                fresh_registration(core, &ids, &setup.adj)
            };
            // The probe's cached query, solved once before the clock runs.
            let warm = core.handle_blocking(request(graph_id, Method::LinBp, &probe_set, n, &h));
            assert!(
                matches!(warm, Response::Beliefs(_)),
                "probe warm-up failed: {warm:?}"
            );
            let target = Target {
                core,
                addr,
                graph_id,
                ids: &ids,
                base: &setup.adj,
                n,
                h: &h,
                rate,
                probe_set,
            };
            serve_phase(ctx, r, &target, seconds)
        };
        let spec_labels = {
            let mut rng = Rng::stream(ctx.seed, u64::MAX);
            common::draw_labels(&mut rng, n, k, (n / 20).max(k), |v| v % k, |_| false)
        };
        let spec = Spec {
            adj: &setup.adj,
            k,
            h: &h,
            h_o: &h_o,
            labels: &spec_labels,
            fixed_sweeps: 200,
        };
        layers::measure(ctx, r, &mut phase, &spec);
    });
    r.named("peak_rss_mb", common::peak_rss_mb(), "MiB");
    if ctx.traced {
        patch_solver_share(r);
    }
}

/// Registers the graph under the next free id and returns the id.
fn fresh_registration(core: &ServerCore, ids: &AtomicU64, adj: &CsrMatrix) -> u64 {
    let id = ids.fetch_add(1, Ordering::SeqCst) + 1;
    register(core, id, adj.n_rows(), wire_edges(adj));
    id
}

/// `server.patch_solver_share`: the open loop's edge-delta time over the
/// solver's busy time in the traced half, the busy time estimated from the
/// answers actually solved (LinBP × `batch.q1_ms` + RWR × `rwr.solve_ms`).
fn patch_solver_share(r: &mut Report) {
    let get = |name| r.get(name).unwrap_or(f64::NAN);
    let busy = get("server.open_linbp_solved") * get("batch.q1_ms")
        + get("server.open_rwr_solved") * get("rwr.solve_ms");
    let share = get("server.delta_busy_ms") / busy;
    r.layer("server.patch_solver_share", share, "ratio");
}

/// What a phase drives: the core and its TCP address, the graph
/// registration (and the matrix it was registered from), where further
/// graph ids come from, the coupling every LinBP request carries, the
/// arrival rate and the probe's query.
struct Target<'a> {
    core: &'a ServerCore,
    addr: SocketAddr,
    graph_id: u64,
    ids: &'a AtomicU64,
    base: &'a CsrMatrix,
    n: usize,
    h: &'a Mat,
    rate: f64,
    probe_set: SeedSet,
}

impl Target<'_> {
    fn request(&self, method: Method, set: &SeedSet) -> Request {
        request(self.graph_id, method, set, self.n, self.h)
    }
}

fn serve_phase(ctx: &Ctx, r: &mut Report, target: &Target, seconds: f64) -> (f64, f64) {
    let (core, n) = (target.core, target.n);
    let probe_set = &target.probe_set;
    let mut mirror = Mirror {
        base: target.base.clone(),
        deltas: Vec::new(),
    };
    let open_s = seconds * OPEN_SHARE;
    let closed_s = seconds - open_s;
    let plan = schedule(ctx.seed, open_s, target.rate, n);
    let requests: Vec<Option<Request>> = plan
        .iter()
        .map(|(_, item)| match item {
            Item::Solve(m, set) => Some(target.request(*m, set)),
            Item::Delta(_) => None,
        })
        .collect();
    let stats_before = core.stats();
    let stop = AtomicBool::new(false);
    let quiet = AtomicBool::new(false);

    let (open, closed, probe) = std::thread::scope(|s| {
        // Second load thread: the TCP probe.
        let probe = s.spawn(|| tcp_probe(target, &stop, &quiet, probe_set));
        let open = open_loop(target, &plan, requests, &mut mirror);
        let closed = closed_loop(ctx, target, closed_s, &quiet);
        stop.store(true, Ordering::SeqCst);
        let probe = probe.join().expect("probe thread panicked");
        (open, closed, probe)
    });
    let stats = core.stats();

    // ---- end-to-end metrics ----
    let solve_ms: Vec<f64> = open.answers.iter().map(|a| a.latency * 1e3).collect();
    let is_cached = |via: &ServedVia| matches!(via, ServedVia::Cache | ServedVia::CachePatched);
    // Open-loop latencies (ms) of one method (or all), of answers served
    // from the cache or solved (or both).
    let latencies = |method: Option<Method>, cached: Option<bool>| -> Vec<f64> {
        open.answers
            .iter()
            .filter(|a| match plan[a.idx].1 {
                Item::Solve(m, _) => method.is_none_or(|want| m == want),
                Item::Delta(_) => false,
            })
            .filter(|a| {
                cached.is_none_or(|want| {
                    a.outcome
                        .as_ref()
                        .is_ok_and(|(via, _)| is_cached(via) == want)
                })
            })
            .map(|a| a.latency * 1e3)
            .collect()
    };
    let linbp_ms = latencies(Some(Method::LinBp), None);
    let rwr_ms = latencies(Some(Method::Rwr), None);
    // The solve path of the labelling query: LinBP answers that were
    // solved, not served from the cache. Its median does not depend on
    // how many repeats a seed's schedule happens to draw.
    let linbp_solved_ms = latencies(Some(Method::LinBp), Some(false));
    let solves = Summary::of(&solve_ms);
    let wave_s = block_median(&closed.wave_s);
    let qps = WINDOW as f64 / wave_s;
    let round_ms = block_median(&closed.round_ms);
    let probe_solve = Summary::of(&probe.solve_ms);
    let delta = Summary::of(&open.delta_ms);
    r.named("solve_p50_ms", solves.p50, "ms");
    r.named("solve_p99_ms", percentile(&solve_ms, 99.0), "ms");
    r.named("serve_qps", qps, "1/s");
    r.named("probe_p99_ms", percentile(&probe.solve_ms, 99.0), "ms");
    r.named("delta_p50_ms", delta.p50, "ms");
    r.named("solve_linbp_p50_ms", median(&linbp_ms), "ms");
    r.named("solve_linbp_solved_p50_ms", median(&linbp_solved_ms), "ms");
    let single_ms = block_median(&closed.single_ms);
    r.named("solve_single_p50_ms", single_ms, "ms");
    r.fact("solve_single_samples", closed.single_ms.len());
    r.named("solve_rwr_p50_ms", median(&rwr_ms), "ms");
    r.fact("solve_samples", solves.samples);
    r.fact("solve_linbp_samples", linbp_ms.len());
    r.fact("solve_linbp_solved_samples", linbp_solved_ms.len());
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.2}", percentile(&solve_ms, f64::from(d) * 10.0)))
        .collect();
    r.fact("solve_deciles_ms", deciles.join(" "));
    r.fact(
        "solve_tail",
        format!("p{} = {} ms", solves.tail_pct, solves.tail),
    );
    r.fact("probe_samples", probe_solve.samples);
    r.fact(
        "probe_tail",
        format!("p{} = {} ms", probe_solve.tail_pct, probe_solve.tail),
    );
    r.fact("delta_samples", delta.samples);
    r.named("round_patch_ms", block_median(&closed.patch_ms), "ms");
    r.named("round_reread_ms", block_median(&closed.reread_ms), "ms");
    r.fact("closed_answered", closed.answered);
    r.fact("closed_rounds", closed.round_ms.len());
    let rounds: Vec<String> = closed
        .round_ms
        .iter()
        .map(|ms| format!("{ms:.0}"))
        .collect();
    r.fact("closed_round_ms", rounds.join(" "));
    r.fact("versions", mirror.deltas.len() + 1);

    // ---- per-layer: server, tcp, gen ----
    let fresh_batches: Vec<f64> = open
        .records
        .iter()
        .map(|rec| rec.via)
        .chain(closed.vias.iter().copied())
        .filter_map(|via| match via {
            ServedVia::Solo => Some(1.0),
            ServedVia::Coalesced { batch } => Some(f64::from(batch)),
            _ => None,
        })
        .collect();
    let cached = open
        .records
        .iter()
        .filter(|rec| is_cached(&rec.via))
        .count();
    let cache_ms = latencies(None, Some(true));
    let solved_ms = latencies(None, Some(false));
    let passes = (stats.spmm_passes - stats_before.spmm_passes) as f64;
    let seq =
        (stats.spmm_passes_sequential_equiv - stats_before.spmm_passes_sequential_equiv) as f64;
    let rejected = (stats.rejected_overloaded
        + stats.rejected_deadline
        + stats.rejected_invalid
        + stats.panics_caught)
        - (stats_before.rejected_overloaded
            + stats_before.rejected_deadline
            + stats_before.rejected_invalid
            + stats_before.panics_caught);
    r.layer("server.batch_size_p50", median(&fresh_batches), "count");
    r.layer(
        "server.batch_size_max",
        fresh_batches.iter().copied().fold(0.0, f64::max),
        "count",
    );
    r.layer(
        "server.solved_reply_ms_p99",
        percentile(&solved_ms, 99.0),
        "ms",
    );
    r.layer("server.pass_amortization", seq / passes.max(1.0), "ratio");
    r.layer(
        "server.cache_hit_ratio",
        cached as f64 / open.records.len().max(1) as f64,
        "ratio",
    );
    r.layer("server.cache_reply_ms_p50", median(&cache_ms), "ms");
    r.layer("server.patched_per_delta", mean(&open.patched), "count");
    r.layer(
        "server.invalidated_per_delta",
        mean(&open.invalidated),
        "count",
    );
    r.layer("server.rejected", rejected as f64, "count");
    // Inputs of `server.patch_solver_share`: the time the open loop's
    // deltas blocked in `handle_blocking`, and the answers it solved.
    let solved = |method: Method| {
        open.records
            .iter()
            .filter(|rec| rec.method == method && !is_cached(&rec.via))
            .count() as f64
    };
    r.layer("server.delta_busy_ms", open.delta_busy_ms, "ms");
    r.layer("server.open_linbp_solved", solved(Method::LinBp), "count");
    r.layer("server.open_rwr_solved", solved(Method::Rwr), "count");
    let health = Summary::of(&probe.health_us);
    r.layer("tcp.health_p50_us", health.p50, "us");
    r.layer(
        "tcp.health_p99_us",
        percentile(&probe.health_us, 99.0),
        "us",
    );
    r.layer(
        "tcp.transport_ms",
        probe_solve.p50 - median(&cache_ms),
        "ms",
    );
    r.fact("health_samples", health.samples);
    r.layer("gen.lag_p99_ms", percentile(&open.lag_ms, 99.0), "ms");
    r.layer("gen.backlog_end", open.backlog_end as f64, "count");
    if let Some((p, v)) = tail(&open.lag_ms) {
        r.fact("gen_lag_tail", format!("p{p} = {v} ms"));
    }
    // The open loop kept up only if the outstanding work at the end of the
    // schedule fits in a couple of coalesced batches.
    if open.backlog_end > 2 * WINDOW {
        r.valid = false;
        eprintln!(
            "warning: open-loop backlog grew to {}; solve_* are invalid",
            open.backlog_end
        );
    }

    let attempted = open.answers.len()
        + open.delta_ms.len()
        + closed.answered
        + closed.patch_ms.len()
        + closed.failed
        + probe.solve_ms.len()
        + probe.health_us.len()
        + probe.failed;
    r.attempted += attempted as u64;
    r.failed += (open.failed + closed.failed + probe.failed) as u64;

    r.check(
        "closed_round_delta_patches_its_wave",
        closed.unpatched_rounds == 0,
        format!(
            "{} of {} rounds not patched and read back from the cache",
            closed.unpatched_rounds,
            closed.round_ms.len()
        ),
    );
    if !trace::enabled() {
        check_answers(r, target, &mirror, &open.records, &closed, &probe.fps);
    }
    // The labelling query's latency with nothing queued ahead of it, and
    // one closed-loop round: a full-width wave, the edge delta that
    // patches its answers in the cache, and their read-back. The
    // open-loop medians above swing by up to a third between runs on a
    // shared 2-thread machine (their position between the idle and the
    // queued mode moves with the machine's speed and each seed's share of
    // cache hits), so they are reported but not the run's headline.
    (single_ms, round_ms)
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

struct OpenLoop {
    answers: Vec<Answer>,
    records: Vec<Record>,
    delta_ms: Vec<f64>,
    delta_busy_ms: f64,
    patched: Vec<f64>,
    invalidated: Vec<f64>,
    lag_ms: Vec<f64>,
    backlog_end: usize,
    failed: usize,
}

fn open_loop(
    target: &Target,
    plan: &[(Duration, Item)],
    mut requests: Vec<Option<Request>>,
    mirror: &mut Mirror,
) -> OpenLoop {
    let (tx, rx) = mpsc::channel::<Answer>();
    let mut out = OpenLoop {
        answers: Vec::new(),
        records: Vec::new(),
        delta_ms: Vec::new(),
        delta_busy_ms: 0.0,
        patched: Vec::new(),
        invalidated: Vec::new(),
        lag_ms: Vec::with_capacity(plan.len()),
        backlog_end: 0,
        failed: 0,
    };
    let core = target.core;
    let mut version_at = vec![0usize; plan.len()];
    let mut submitted = 0usize;
    let start = Instant::now() + Duration::from_millis(5);
    for (idx, (at, item)) in plan.iter().enumerate() {
        let due = start + *at;
        wait_until(due);
        out.lag_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
        version_at[idx] = mirror.deltas.len();
        match item {
            Item::Solve(..) => {
                let tx = tx.clone();
                let req = requests[idx].take().expect("each request is sent once");
                submitted += 1;
                span("server.submit", idx as u64 + 1, || {
                    core.submit(
                        req,
                        Box::new(move |resp| {
                            let latency = due.elapsed().as_secs_f64();
                            let _ = tx.send(Answer {
                                idx,
                                latency,
                                outcome: summarize(resp),
                            });
                        }),
                    )
                });
            }
            Item::Delta(edges) => {
                let (reply, busy) = timed(|| {
                    span("server.edge_delta", idx as u64 + 1, || {
                        core.handle_blocking(edge_delta(target.graph_id, edges))
                    })
                });
                out.delta_ms.push(due.elapsed().as_secs_f64() * 1e3);
                out.delta_busy_ms += busy * 1e3;
                match reply {
                    Response::DeltaApplied {
                        patched,
                        invalidated,
                        ..
                    } => {
                        out.patched.push(patched as f64);
                        out.invalidated.push(invalidated as f64);
                        mirror.deltas.push(both_directions(edges));
                    }
                    _ => out.failed += 1,
                }
            }
        }
    }
    drop(tx);
    // Outstanding work when the schedule ended.
    let answered_by_end = rx.try_iter().collect::<Vec<_>>();
    out.backlog_end = submitted - answered_by_end.len();
    out.answers = answered_by_end;
    out.answers.extend(rx.iter());
    for a in &out.answers {
        match (&a.outcome, &plan[a.idx].1) {
            (Ok((via, fp)), Item::Solve(method, set)) => out.records.push(Record {
                method: *method,
                set: *set,
                version: version_at[a.idx],
                via: *via,
                fp: *fp,
            }),
            _ => out.failed += 1,
        }
    }
    out
}

/// One closed-loop round to check: the edges its delta added, and a few
/// of its answers before the delta (solved on the base graph) and after
/// it (read back from the patched cache).
struct Round {
    edges: Vec<(usize, usize, f64)>,
    solved: Vec<(SeedSet, u64)>,
    reread: Vec<(SeedSet, u64)>,
}

#[derive(Default)]
struct ClosedLoop {
    answered: usize,
    /// Milliseconds from submitting a lone query to its answer.
    single_ms: Vec<f64>,
    /// Seconds from submitting a full window to its last answer.
    wave_s: Vec<f64>,
    /// Milliseconds of the edge delta that patches a wave's answers, of
    /// reading them back, and of the whole round (wave + patch + read-back).
    patch_ms: Vec<f64>,
    reread_ms: Vec<f64>,
    round_ms: Vec<f64>,
    /// Rounds whose delta did not patch exactly the wave's answers, or
    /// whose read-back was not served from the patched cache.
    unpatched_rounds: usize,
    failed: usize,
    vias: Vec<ServedVia>,
    /// A few lone queries to check: (seed set, fingerprint).
    singles: Vec<(SeedSet, u64)>,
    /// The first rounds, to check.
    rounds: Vec<Round>,
}

impl ClosedLoop {
    fn take(&mut self, outcome: Result<(ServedVia, u64), ErrorCode>) -> Option<(ServedVia, u64)> {
        match outcome {
            Ok(answer) => {
                self.answered += 1;
                self.vias.push(answer.0);
                Some(answer)
            }
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }
}

/// Rounds of LinBP solves on never-repeated seed sets for about
/// `seconds`. Each round first answers [`SINGLES_PER_ROUND`] lone queries
/// on the phase's graph, one at a time; then, on a registration of its
/// own, a wave of [`WINDOW`] solves submitted together, one `EdgeDelta`
/// that patches exactly those cached answers, and the wave read back from
/// the patched cache. The TCP probe holds off (`quiet`) while the lone
/// queries run, so their latency is the solve path alone.
fn closed_loop(ctx: &Ctx, target: &Target, seconds: f64, quiet: &AtomicBool) -> ClosedLoop {
    let (core, n, h) = (target.core, target.n, target.h);
    let (tx, rx) = mpsc::channel::<(usize, Result<(ServedVia, u64), ErrorCode>)>();
    let mut rng = Rng::stream(ctx.seed, 0xC105_ED00 + INPUT_STREAM);
    let block = (n / 40).max(1);
    let mut drawn: HashSet<SeedSet> = HashSet::new();
    // Off the universe's block grid, never the probe's query and never
    // drawn twice: every lone query and wave solve misses the cache.
    let mut fresh_set = |rng: &mut Rng| loop {
        let set = SeedSet {
            start: 1 + rng.below(n - block),
            rot: rng.below(h.rows()),
        };
        if !set.start.is_multiple_of(block) && set != target.probe_set && drawn.insert(set) {
            break set;
        }
    };
    let submit = |graph_id: u64, idx: usize, set: &SeedSet| {
        let tx = tx.clone();
        span("server.submit", 0, || {
            core.submit(
                request(graph_id, Method::LinBp, set, n, h),
                Box::new(move |resp| {
                    let _ = tx.send((idx, summarize(resp)));
                }),
            )
        });
    };
    let receive = || rx.recv().expect("responders always fire");
    let mut out = ClosedLoop::default();
    // Every answer stays cached, so the round count is fixed by
    // `seconds`, not by how fast rounds finish: it sets the footprint.
    let rounds = ((seconds * ROUNDS_PER_SECOND).round() as usize).max(2);
    for _ in 0..rounds {
        // Window of one: the solve path with nothing queued ahead of it.
        quiet.store(true, Ordering::SeqCst);
        for _ in 0..SINGLES_PER_ROUND {
            let set = fresh_set(&mut rng);
            let t = Instant::now();
            submit(target.graph_id, 0, &set);
            let (_, outcome) = receive();
            out.single_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Some((_, fp)) = out.take(outcome) {
                if out.singles.len() < 4 {
                    out.singles.push((set, fp));
                }
            }
        }
        quiet.store(false, Ordering::SeqCst);

        // The round's own registration (outside the clock), so its delta
        // patches exactly this wave's answers.
        let graph_id = fresh_registration(core, target.ids, target.base);
        let sets: Vec<SeedSet> = (0..WINDOW).map(|_| fresh_set(&mut rng)).collect();
        let edges = delta_edges(&mut rng, n);
        let mut solved = vec![None; WINDOW];
        let mut reread = vec![None; WINDOW];
        // The whole window at once: one stacked solve at full width
        // (`WINDOW` = `max_batch` drains the queue at once) instead of
        // whatever split the arrival order makes.
        let wave = Instant::now();
        for (i, set) in sets.iter().enumerate() {
            submit(graph_id, i, set);
        }
        for _ in 0..WINDOW {
            let (i, outcome) = receive();
            solved[i] = out.take(outcome).map(|(_, fp)| fp);
        }
        let wave_s = wave.elapsed().as_secs_f64();
        let (reply, patch_s) = timed(|| {
            span("server.edge_delta", 0, || {
                core.handle_blocking(edge_delta(graph_id, &edges))
            })
        });
        let read = Instant::now();
        for (i, set) in sets.iter().enumerate() {
            submit(graph_id, i, set);
        }
        for _ in 0..WINDOW {
            let (i, outcome) = receive();
            reread[i] = out.take(outcome);
        }
        let reread_s = read.elapsed().as_secs_f64();

        out.wave_s.push(wave_s);
        out.patch_ms.push(patch_s * 1e3);
        out.reread_ms.push(reread_s * 1e3);
        out.round_ms.push((wave_s + patch_s + reread_s) * 1e3);
        let patched_wave = match reply {
            Response::DeltaApplied {
                patched,
                invalidated,
                ..
            } => patched == WINDOW as u64 && invalidated == 0,
            _ => {
                out.failed += 1;
                false
            }
        };
        let from_cache = reread
            .iter()
            .all(|a| matches!(a, Some((ServedVia::CachePatched, _))));
        if !(patched_wave && from_cache) {
            out.unpatched_rounds += 1;
        }
        if out.rounds.len() < 2 {
            let pick = |fps: Vec<Option<u64>>| -> Vec<(SeedSet, u64)> {
                sets.iter()
                    .zip(fps)
                    .filter_map(|(set, fp)| Some((*set, fp?)))
                    .take(2)
                    .collect()
            };
            out.rounds.push(Round {
                edges,
                solved: pick(solved),
                reread: pick(reread.into_iter().map(|a| a.map(|(_, fp)| fp)).collect()),
            });
        }
    }
    out
}

struct Probe {
    solve_ms: Vec<f64>,
    health_us: Vec<f64>,
    fps: BTreeSet<u64>,
    failed: usize,
}

/// The second load thread: one TCP connection alternating `health()` with
/// the cached probe query until `stop`, idle while `quiet` is set.
fn tcp_probe(target: &Target, stop: &AtomicBool, quiet: &AtomicBool, set: &SeedSet) -> Probe {
    let (n, h) = (target.n, target.h);
    let mut out = Probe {
        solve_ms: Vec::new(),
        health_us: Vec::new(),
        fps: BTreeSet::new(),
        failed: 0,
    };
    let Ok(mut client) = lsbp_client::Client::connect(target.addr) else {
        out.failed += 1;
        return out;
    };
    let seeds = set.wire(n, h.rows());
    while !stop.load(Ordering::SeqCst) {
        if quiet.load(Ordering::SeqCst) {
            std::thread::sleep(PROBE_THINK);
            continue;
        }
        let (health, t) = timed(|| span("tcp.health", 0, || client.health()));
        match health {
            Ok(_) => out.health_us.push(t * 1e6),
            Err(_) => out.failed += 1,
        }
        let (solve, t) = timed(|| {
            span("tcp.solve_linbp", 0, || {
                client.solve_linbp(target.graph_id, linbp_params(h), seeds.clone())
            })
        });
        match solve {
            Ok(p) => {
                out.solve_ms.push(t * 1e3);
                out.fps.insert(fingerprint(&p.beliefs));
            }
            Err(_) => out.failed += 1,
        }
        // Think time, so the probe measures the server instead of taking
        // a core from its solver.
        std::thread::sleep(PROBE_THINK);
    }
    out
}

/// Bitwise checks of served answers against the library (outside the
/// clock; at most [`FRESH_CHECKS`] fresh and [`PATCH_CHECKS`] patched
/// answer groups per run).
fn check_answers(
    r: &mut Report,
    target: &Target,
    mirror: &Mirror,
    records: &[Record],
    closed: &ClosedLoop,
    probe_fps: &BTreeSet<u64>,
) {
    let (n, h, probe_set) = (target.n, target.h, &target.probe_set);
    let k = h.rows();
    let versions = mirror.versions();
    let opts = linbp_opts();
    let solve = |method: Method, set: &SeedSet, v: usize| -> Option<Mat> {
        let e = set.explicit(n, k);
        match method {
            Method::LinBp => linbp_on(&versions[v], &e, h, &opts)
                .ok()
                .map(|x| x.beliefs.into_mat()),
            Method::Rwr => rwr_on(&versions[v], &e, &rwr_opts())
                .ok()
                .map(|x| x.beliefs.into_mat()),
        }
    };
    // Patched LinBP beliefs at every version from an origin solve at `u`.
    let chain = |set: &SeedSet, u: usize, last: usize| -> Vec<u64> {
        let e = set.explicit(n, k);
        let mut out = Vec::new();
        let Ok(first) = linbp_on(&versions[u], &e, h, &opts) else {
            return out;
        };
        let mut prev = first.beliefs;
        out.push(fingerprint(prev.residual().as_slice()));
        for w in u..last {
            let Ok(seed) = linbp_edge_delta_seed(&versions[w], &mirror.deltas[w], &prev, h, true)
            else {
                break;
            };
            let Ok(next) = linbp_update(&versions[w + 1], &prev, &seed, h, &opts, true) else {
                break;
            };
            prev = next.beliefs;
            out.push(fingerprint(prev.residual().as_slice()));
        }
        out
    };

    // Fresh (solved or cached-unpatched) answers: one library solve per
    // distinct (method, set, version), most requested first.
    let mut groups: BTreeMap<(Method, SeedSet, usize), Vec<u64>> = BTreeMap::new();
    let mut patched: BTreeMap<(SeedSet, usize), Vec<u64>> = BTreeMap::new();
    let mut fresh_versions: HashMap<(Method, SeedSet), BTreeSet<usize>> = HashMap::new();
    for rec in records {
        match rec.via {
            ServedVia::CachePatched => patched
                .entry((rec.set, rec.version))
                .or_default()
                .push(rec.fp),
            _ => {
                groups
                    .entry((rec.method, rec.set, rec.version))
                    .or_default()
                    .push(rec.fp);
                fresh_versions
                    .entry((rec.method, rec.set))
                    .or_default()
                    .insert(rec.version);
            }
        }
    }
    let mut order: Vec<_> = groups.iter().collect();
    order.sort_by_key(|(key, fps)| (std::cmp::Reverse(fps.len()), **key));
    let mut checked = 0usize;
    let mut bad = 0usize;
    for ((method, set, v), fps) in order.iter().take(FRESH_CHECKS) {
        let ok = solve(*method, set, *v)
            .map(|b| fingerprint(b.as_slice()))
            .is_some_and(|want| fps.iter().all(|&fp| fp == want));
        checked += fps.len();
        if !ok {
            bad += 1;
        }
    }
    r.check(
        "serve_fresh_bitwise_equals_library",
        bad == 0,
        format!(
            "{} groups ({checked} answers) checked of {}, {bad} mismatched",
            order.len().min(FRESH_CHECKS),
            groups.len()
        ),
    );

    // Patched answers: equal to the patch chain from some origin solve.
    let mut bad = 0usize;
    let mut checked = 0usize;
    for ((set, v), fps) in patched.iter().take(PATCH_CHECKS) {
        let origins = fresh_versions
            .get(&(Method::LinBp, *set))
            .map(|s| s.iter().copied().filter(|&u| u < *v).collect::<Vec<_>>())
            .unwrap_or_default();
        let ok = origins.iter().any(|&u| {
            let want = chain(set, u, *v).last().copied();
            fps.iter().all(|&fp| Some(fp) == want)
        });
        checked += fps.len();
        if !ok {
            bad += 1;
        }
    }
    r.check(
        "serve_patched_bitwise_equals_update_chain",
        bad == 0,
        format!(
            "{} groups ({checked} answers) checked of {}, {bad} mismatched",
            patched.len().min(PATCH_CHECKS),
            patched.len()
        ),
    );

    // Lone closed-loop queries: solved at the phase graph's last version.
    let last = versions.len() - 1;
    let ok = closed.singles.iter().all(|(set, fp)| {
        solve(Method::LinBp, set, last).is_some_and(|b| fingerprint(b.as_slice()) == *fp)
    });
    r.check(
        "closed_loop_bitwise_equals_library",
        ok,
        format!("{} answers", closed.singles.len()),
    );

    // Closed-loop rounds: the wave solved on the base graph, the read-back
    // equal to the library's patch of that solve by the round's delta.
    let mut bad = 0usize;
    for round in &closed.rounds {
        let deltas = both_directions(&round.edges);
        let grown = mirror
            .base
            .try_with_edge_deltas(&deltas)
            .expect("deltas are in range");
        let patch = |set: &SeedSet| -> Option<u64> {
            let e = set.explicit(n, k);
            let prev = linbp_on(&mirror.base, &e, h, &opts).ok()?.beliefs;
            let seed = linbp_edge_delta_seed(&mirror.base, &deltas, &prev, h, true).ok()?;
            let next = linbp_update(&grown, &prev, &seed, h, &opts, true).ok()?;
            Some(fingerprint(next.beliefs.residual().as_slice()))
        };
        bad += round
            .solved
            .iter()
            .filter(|(set, fp)| {
                solve(Method::LinBp, set, 0).map(|b| fingerprint(b.as_slice())) != Some(*fp)
            })
            .count();
        bad += round
            .reread
            .iter()
            .filter(|(set, fp)| patch(set) != Some(*fp))
            .count();
    }
    r.check(
        "closed_round_bitwise_equals_library",
        bad == 0,
        format!("{} rounds, {bad} answers mismatched", closed.rounds.len()),
    );

    // Probe answers: the probe query's patch chain from its warm-up solve
    // (version 0 of the phase), or a fresh solve at a later version (a
    // probe that lands between a delta's publish and its cache patch
    // misses) and the patch chain from there.
    let mut allowed: BTreeSet<u64> = chain(probe_set, 0, last).into_iter().collect();
    for v in 1..=last {
        if let Some(b) = solve(Method::LinBp, probe_set, v) {
            let fresh = fingerprint(b.as_slice());
            if probe_fps.contains(&fresh) {
                allowed.extend(chain(probe_set, v, last));
            }
            allowed.insert(fresh);
        }
    }
    let unknown = probe_fps.difference(&allowed).count();
    r.check(
        "tcp_probe_bitwise_equals_library",
        unknown == 0,
        format!(
            "{} distinct answers, {unknown} unexplained",
            probe_fps.len()
        ),
    );
}
