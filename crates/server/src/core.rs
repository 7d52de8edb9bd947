//! The transport-independent serving core: graph registry, admission
//! coalescing, belief cache, and the solver thread.
//!
//! [`ServerCore`] accepts decoded [`Request`]s through [`ServerCore::submit`]
//! with a callback responder, so the same engine serves the TCP event loop
//! (`crate::tcp`), in-process tests, and the benchmark harness without a
//! socket in sight.
//!
//! ## Threads and state
//!
//! All mutable serving state — registry, belief cache, admission queues,
//! control queue, counters and the stop flags — lives in one `State`
//! behind one mutex, paired with one condvar that wakes the solver
//! thread. Two kinds of thread touch it:
//!
//! * **Inline, on the caller's thread** (over TCP, the poll loop): ping,
//!   stats, health, shutdown, request validation, cache hits and
//!   admission. Each locks, touches maps, and unlocks.
//! * **On the solver thread**: every solve, and every **control job** —
//!   `RegisterGraph` and `EdgeDelta` (graph builds, spills and cache
//!   patches). Control jobs run in arrival order, ahead of any solve
//!   batch whatever the coalesce windows are, inside the same
//!   `catch_unwind` boundary as solves, and answer through their
//!   responder. A solve arriving while a control job for its graph is
//!   queued or running waits in the control queue behind it, so a client
//!   that pipelines a write and then a read sees its write.
//!
//! The one rule: no solve, graph build, spill or responder call ever runs
//! while the lock is held. An edge delta therefore works in three steps:
//! under the lock it takes the graph's stale cache entries out; with no
//! lock held it rebuilds and spills the graph and patches the entries;
//! under the lock it publishes the new version, banks the retired
//! version's pager totals and puts the patched entries in. Because only
//! the solver thread mutates the registry and the cache, the three steps
//! need no lock order and no re-check.
//!
//! ## Admission coalescing
//!
//! Solve requests do not run one by one. Each request is validated, checked
//! against the belief cache, and then parked in an **admission queue** keyed
//! by everything that must match for two queries to share a batched solve:
//! graph id, graph version, method (LinBP/LinBP\*/RWR), and the canonical
//! wire bytes of the solve parameters. The solver thread drains a
//! queue when its **coalesce window** (measured from the first parked
//! query) expires or the queue reaches **max batch**, and runs the whole
//! queue through one [`lsbp::batch`] solve — one fused sweep per iteration
//! for the entire batch, each query on its own buffers, with per-query
//! convergence keeping every answer **bitwise identical** to the
//! per-query library solve.
//!
//! The default window is zero, which makes admission **work-conserving**:
//! a query that finds the solver idle runs at once, alone, at library
//! cost, and the queries that arrive while a solve is running park and
//! form the next batch. A batched solve's cost per query hardly depends
//! on the batch size, so waiting for company only adds latency.
//! A parked query whose twin was solved by the batch before is answered
//! from the cache entry that solve left, at drain time; a query that
//! waited behind an edge delta to its graph is answered from the entry
//! the delta patched.
//!
//! Backpressure: a queue holding `max_pending` queries rejects further
//! admissions with [`ErrorCode::Overloaded`] instead of buffering without
//! bound.
//!
//! ## Belief cache, patched on edge deltas
//!
//! Finished solves land in a bounded cache keyed by (graph id, graph
//! version, method + params bytes, seed bytes). An [`Request::EdgeDelta`]
//! bumps the graph version and — instead of invalidating — **patches**
//! every cached LinBP entry to the new version: the synthetic seed
//! `Ê_Δ = (ΔA)·B̂·Ĥ − (ΔD)·B̂·Ĥ²` ([`lsbp::edge_delta::linbp_edge_delta_seed`])
//! is solved for all entries of a parameter group in one
//! [`lsbp::batch::linbp_update_batch_on`] pass. Cached RWR scores have no
//! linear patch and are invalidated. Patched beliefs are bitwise
//! reproducible from the same library calls but are *not* bitwise equal to
//! a from-scratch solve on the new graph — the deliberately-relaxed
//! determinism boundary recorded in the ROADMAP.

use lsbp::prelude::*;
use lsbp::{edge_delta::linbp_edge_delta_seed, linbp::LinBpError, rwr::RwrError};
use lsbp_linalg::Mat;
use lsbp_net::{
    BeliefsPayload, ErrorCode, HealthInfo, LinBpParams, Request, Response, RwrParams, ServedVia,
    ServerStats, WireEdge, WireNorm, WireSeed, WireWriter,
};
use lsbp_sparse::{CooMatrix, CsrMatrix, PagedCsr, PagerStats};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Upper bound on `n_nodes` at registration — bounds the row-pointer
/// allocation a hostile registration can force (2⁲⁸ nodes ≈ 2 GiB of
/// row pointers) far below the CSR's own `u32` dimension cap.
pub const MAX_NODES: u64 = 1 << 28;

/// Upper bound on classes per query.
pub const MAX_CLASSES: u32 = 1024;

/// Upper bound on solve iterations a client may request.
pub const MAX_ITER_CAP: u64 = 1_000_000;

/// What the server does with a solve it would otherwise reject
/// `Overloaded` — the graceful-degradation policy. Off by default: the
/// strict bitwise-determinism contract holds unless an operator opts in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradationPolicy {
    /// Reject with `Overloaded` (plus a `retry_after_ms` hint).
    #[default]
    Off,
    /// Serve the query from a cache entry computed against an **older
    /// graph version** when one matches (same params + seeds), marked
    /// [`ServedVia::Stale`]. Under this policy, edge deltas *retain*
    /// unpatchable cache entries at their old version instead of
    /// dropping them, so stale answers stay available under load.
    StaleCache,
    /// Once the admission backlog crosses half of `max_pending`, admit
    /// further solves with `max_iter` clamped to this value — cheaper,
    /// still bitwise equal to a library solve *with the clamped budget*.
    /// A completely full queue still rejects `Overloaded`.
    ClampIter(usize),
}

/// Serving knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// How long the solver waits after the *first* query parks in an
    /// admission queue before draining it. Default zero: admission is
    /// work-conserving — a query that finds the solver idle is solved at
    /// once, and queries arriving while the solver is busy park and
    /// coalesce into the next batch. A positive window holds every
    /// queue open that long to gather more queries first.
    pub coalesce_window: Duration,
    /// Largest batched solve; a fuller queue drains immediately and the
    /// remainder re-arms the window.
    pub max_batch: usize,
    /// Per-queue admission bound; beyond it clients get `Overloaded`.
    pub max_pending: usize,
    /// Belief-cache entry bound (oldest-in evicted first).
    pub cache_capacity: usize,
    /// Execution config for solves (threads follow `LSBP_THREADS`; the
    /// memory budget sizes the pool of spilled graphs).
    pub parallelism: ParallelismConfig,
    /// Drop a connection with no in-flight work and no traffic for this
    /// long (also reaps peers parked mid-frame forever).
    pub idle_timeout: Duration,
    /// Drop a connection whose pending response bytes make no write
    /// progress for this long (a reader that stopped reading).
    pub write_stall_timeout: Duration,
    /// Upper bound on buffered response bytes per connection; a pipelining
    /// client that stops reading past this is dropped, not buffered.
    pub max_write_buf: usize,
    /// The `retry_after_ms` hint attached to `Overloaded` and
    /// `DeadlineExceeded` rejections.
    pub retry_after_hint: Duration,
    /// What to do under sustained overload. Default [`DegradationPolicy::Off`].
    pub degradation: DegradationPolicy,
    /// Fault-injection hook for the panic-isolation boundary: a batched
    /// solve against this graph id panics deliberately, and so does an
    /// edge delta to it, after the rebuild and patch but before anything
    /// is published (the graph keeps its version and cache). Test-only in
    /// spirit, but kept an ordinary config knob so chaos tests exercise
    /// exactly the production `catch_unwind` path.
    pub panic_on_graph: Option<u64>,
    /// When set, every registered graph is spilled to an on-disk shard
    /// store under this directory and served through the paged operator
    /// (buffer-pool budget from `parallelism.memory_budget()`). A spill
    /// failure falls back to the resident operator with a warning —
    /// registration never fails on pager trouble.
    pub spill_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            coalesce_window: Duration::ZERO,
            max_batch: 32,
            max_pending: 1024,
            cache_capacity: 4096,
            parallelism: ParallelismConfig::from_env(),
            idle_timeout: Duration::from_secs(60),
            write_stall_timeout: Duration::from_secs(10),
            max_write_buf: 64 * 1024 * 1024,
            retry_after_hint: Duration::from_millis(25),
            degradation: DegradationPolicy::Off,
            panic_on_graph: None,
            spill_dir: None,
        }
    }
}

/// Callback a response is delivered through (exactly once per request).
pub type Responder = Box<dyn FnOnce(Response) + Send + 'static>;

/// A registered graph at one version. The operator layout (resident or
/// paged) is built **once** here — solves reuse it.
struct GraphEntry {
    version: u64,
    csr: CsrMatrix,
    /// Set when the server spills registrations to disk: the same graph
    /// behind the budgeted buffer pool. Solves run out-of-core through
    /// it (bitwise equal to the resident path); the resident `csr` stays
    /// for edge-delta rebuilds and validation.
    paged: Option<PagedCsr>,
}

/// Distinguishes spill files across builds of the same (graph, version).
/// Within one core the solver thread builds one graph at a time, so
/// builds never race; the nonce keeps cores in one process that share a
/// spill directory from writing (and on `Drop` deleting) each other's
/// files.
static SPILL_NONCE: AtomicU64 = AtomicU64::new(0);

impl GraphEntry {
    fn build(csr: CsrMatrix, version: u64, graph_id: u64, config: &ServerConfig) -> Self {
        let paged = config.spill_dir.as_ref().and_then(|dir| {
            let nonce = SPILL_NONCE.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("graph-{graph_id:016x}-v{version}-{nonce}.lsbp"));
            std::fs::create_dir_all(dir)
                .map_err(lsbp::ShardFileError::Io)
                .and_then(|()| lsbp::spill_paged(&csr, &path, &config.parallelism))
                .map_err(|e| {
                    eprintln!(
                        "lsbp-server: failed to spill graph {graph_id} v{version} to \
                         {path:?}: {e}; serving resident"
                    );
                })
                .ok()
        });
        Self {
            version,
            csr,
            paged,
        }
    }

    fn operator(&self) -> &dyn PropagationOperator {
        match &self.paged {
            Some(p) => p,
            None => &self.csr,
        }
    }

    fn pager_stats(&self) -> PagerStats {
        self.paged.as_ref().map(|p| p.stats()).unwrap_or_default()
    }
}

impl Drop for GraphEntry {
    fn drop(&mut self) {
        // Spill files are per (graph, version) — once the entry is gone
        // nothing can reopen them, so reclaim the disk.
        if let Some(p) = self.paged.take() {
            let path = p.path().to_path_buf();
            drop(p);
            let _ = std::fs::remove_file(path);
        }
    }
}

/// What kind of solve a query wants (params already validated). Cache
/// entries keep it too: a LinBP entry is patched forward on an edge
/// delta with the same parameters; RWR has no linear patch.
#[derive(Clone)]
enum JobKind {
    LinBp {
        echo: bool,
        h: Mat,
        opts: LinBpOptions,
    },
    Rwr {
        opts: RwrOptions,
    },
}

impl JobKind {
    /// Canonical byte material for admission and cache keys: method tag,
    /// class count, and the exact bit patterns of every solve parameter.
    fn params_bytes(&self, k: u32) -> Vec<u8> {
        let norm_tag = |norm: ToleranceNorm| match norm {
            ToleranceNorm::MaxAbs => 0,
            ToleranceNorm::L2 => 1,
        };
        let mut w = WireWriter::new();
        match self {
            JobKind::LinBp { echo, h, opts } => {
                w.u8(if *echo { 1 } else { 2 });
                w.u32(k);
                w.f64s(h.as_slice());
                w.u64(opts.max_iter as u64);
                w.f64(opts.tol);
                w.u8(norm_tag(opts.norm));
                w.f64(opts.damping);
                w.f64(opts.divergence_guard);
            }
            JobKind::Rwr { opts } => {
                w.u8(3);
                w.u32(k);
                w.f64(opts.restart);
                w.u64(opts.max_iter as u64);
                w.f64(opts.tol);
                w.u8(norm_tag(opts.norm));
            }
        }
        w.into_bytes()
    }
}

/// A validated query parked in an admission queue.
struct SolveJob {
    graph: Arc<GraphEntry>,
    kind: JobKind,
    seeds: ExplicitBeliefs,
    cache_key: CacheKey,
    responder: Responder,
    /// Absolute budget; a job still parked past this is answered
    /// `DeadlineExceeded` at drain time without burning a solve slot.
    deadline: Option<Instant>,
}

/// A request queued for the solver thread: a registration, an edge
/// delta, or a solve waiting behind one of those for its graph.
struct Control {
    request: Request,
    deadline: Option<Instant>,
    responder: Responder,
}

/// Cache/admission key: (graph id, graph version, method+params bytes ++
/// seed bytes). Full byte material — no hash-collision hazard.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
struct CacheKey {
    graph_id: u64,
    version: u64,
    tail: Vec<u8>,
}

/// Admission-queue key: the cache key minus the seed bytes (queries with
/// different seeds coalesce; different params must not).
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
struct GroupKey {
    graph_id: u64,
    version: u64,
    params: Vec<u8>,
}

struct CacheEntry {
    beliefs: BeliefMatrix,
    converged: bool,
    diverged: bool,
    iterations: u64,
    final_delta: f64,
    patched: bool,
    kind: JobKind,
}

impl CacheEntry {
    fn payload(&self, served: ServedVia) -> BeliefsPayload {
        BeliefsPayload {
            n: self.beliefs.n() as u64,
            k: self.beliefs.k() as u32,
            beliefs: self.beliefs.residual().as_slice().to_vec(),
            converged: self.converged,
            diverged: self.diverged,
            iterations: self.iterations,
            final_delta: self.final_delta,
            served,
        }
    }
}

#[derive(Default)]
struct Cache {
    entries: HashMap<CacheKey, CacheEntry>,
    /// Insertion order for eviction: exactly the keys of `entries`.
    order: VecDeque<CacheKey>,
}

impl Cache {
    /// Stores `entry` under `key`, replacing a present entry in place; a
    /// new key at capacity evicts the oldest entries first.
    fn insert(&mut self, key: CacheKey, entry: CacheEntry, capacity: usize) {
        if let Some(slot) = self.entries.get_mut(&key) {
            *slot = entry;
            return;
        }
        while self.entries.len() >= capacity.max(1) {
            match self.order.pop_front() {
                Some(old) => {
                    self.entries.remove(&old);
                }
                None => break,
            }
        }
        self.order.push_back(key.clone());
        self.entries.insert(key, entry);
    }

    /// Removes and returns every entry of one graph version, oldest first.
    fn take_version(&mut self, graph_id: u64, version: u64) -> Vec<(CacheKey, CacheEntry)> {
        let (taken, kept): (VecDeque<CacheKey>, VecDeque<CacheKey>) =
            std::mem::take(&mut self.order)
                .into_iter()
                .partition(|k| k.graph_id == graph_id && k.version == version);
        self.order = kept;
        taken
            .into_iter()
            .map(|k| {
                let entry = self.entries.remove(&k).expect("order lists every entry");
                (k, entry)
            })
            .collect()
    }
}

/// One admission queue: parked queries plus the window deadline armed by
/// the first of them.
struct PendingGroup {
    jobs: Vec<SolveJob>,
    deadline: Instant,
}

/// Everything mutable the request paths and the solver thread share.
#[derive(Default)]
struct State {
    graphs: HashMap<u64, Arc<GraphEntry>>,
    cache: Cache,
    /// Admission queues.
    groups: HashMap<GroupKey, PendingGroup>,
    /// Work for the solver thread that goes before any batch, in
    /// arrival order.
    control: VecDeque<Control>,
    /// Registrations and edge deltas queued or running, per graph id.
    mutating: HashMap<u64, usize>,
    /// The served counters. The gauges (graphs, cached entries, pager
    /// totals) stay zero here; [`State::stats`] fills them in.
    counters: ServerStats,
    /// Pager activity of graph entries already replaced by edge deltas —
    /// banked when they are unregistered, so the served totals stay
    /// monotone as spilled versions retire.
    pager_retired: PagerStats,
    /// A shutdown was accepted: queues drain without waiting out their
    /// coalesce windows.
    stopping: bool,
    /// The core was dropped: nothing can be submitted any more, so the
    /// solver thread exits once the queues are empty. Until then it keeps
    /// answering whatever arrives, shutdown or not.
    dropped: bool,
}

impl State {
    /// The cached answer for `key`, counted as a served cache hit.
    fn cache_hit(&mut self, key: &CacheKey) -> Option<BeliefsPayload> {
        let entry = self.cache.entries.get(key)?;
        let payload = entry.payload(if entry.patched {
            ServedVia::CachePatched
        } else {
            ServedVia::Cache
        });
        self.counters.queries_served += 1;
        self.counters.cache_hits += 1;
        Some(payload)
    }

    /// Newest cache entry answering the same query (params + seeds)
    /// against any **older** version of the same graph.
    fn stale_lookup(&self, key: &CacheKey) -> Option<BeliefsPayload> {
        self.cache
            .entries
            .iter()
            .filter(|(k, _)| {
                k.graph_id == key.graph_id && k.version < key.version && k.tail == key.tail
            })
            .max_by_key(|(k, _)| k.version)
            .map(|(k, entry)| entry.payload(ServedVia::Stale { version: k.version }))
    }

    /// Total queries parked across all admission queues.
    fn backlog(&self) -> u64 {
        self.groups.values().map(|g| g.jobs.len() as u64).sum()
    }

    /// The counters with their gauges filled in. Pager activity is
    /// summed over every live spilled graph plus the retired totals;
    /// banking and unregistering happen in one critical section, so a
    /// retiring version is counted exactly once.
    fn stats(&self) -> ServerStats {
        let mut pager = self.pager_retired;
        for entry in self.graphs.values() {
            add_pager(&mut pager, entry.pager_stats());
        }
        ServerStats {
            graphs: self.graphs.len() as u64,
            cached_entries: self.cache.entries.len() as u64,
            pager_hits: pager.hits,
            pager_misses: pager.misses,
            pager_evictions: pager.evictions,
            pager_prefetches: pager.prefetches,
            ..self.counters
        }
    }
}

fn add_pager(total: &mut PagerStats, s: PagerStats) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.prefetches += s.prefetches;
}

/// Why taking the state lock cannot fail: solves, builds, spills and
/// responders — everything that can panic — run with the lock released.
const POISONED: &str = "nothing that can panic runs under the server state lock";

struct Shared {
    config: ServerConfig,
    state: Mutex<State>,
    /// Wakes the solver thread: new parked work, new control work, stop.
    wakeup: Condvar,
    started: Instant,
}

/// The serving engine. See the module docs for the data flow.
pub struct ServerCore {
    shared: Arc<Shared>,
    solver: Option<thread::JoinHandle<()>>,
}

impl ServerCore {
    /// Starts a core (and its solver thread) with the given knobs.
    pub fn new(config: ServerConfig) -> Self {
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(State::default()),
            wakeup: Condvar::new(),
            started: Instant::now(),
        });
        let solver_shared = Arc::clone(&shared);
        let solver = thread::Builder::new()
            .name("lsbp-solver".into())
            .spawn(move || solver_loop(&solver_shared))
            .expect("spawn solver thread");
        Self {
            shared,
            solver: Some(solver),
        }
    }

    /// Handles one request with no deadline; the response is delivered
    /// through `responder`. Ping, stats, health, shutdown, rejected
    /// solves and cache hits answer inline, before `submit` returns.
    /// Registrations, edge deltas, solves that miss the cache, and solves
    /// of a graph whose registration or delta is still pending answer
    /// later, from the solver thread.
    pub fn submit(&self, request: Request, responder: Responder) {
        self.submit_at(request, None, responder);
    }

    /// [`ServerCore::submit`] with an absolute deadline. Solves whose
    /// budget has already expired (or expires while parked in a
    /// coalescing group) are answered [`ErrorCode::DeadlineExceeded`]
    /// without consuming a solve slot; all other requests ignore the
    /// deadline.
    ///
    /// Every rejection delivered through the responder — wherever it is
    /// produced — bumps the matching typed counter in [`ServerStats`].
    pub fn submit_at(&self, request: Request, deadline: Option<Instant>, responder: Responder) {
        let shared = Arc::clone(&self.shared);
        let responder: Responder = Box::new(move |resp: Response| {
            if let Response::Error { code, .. } = &resp {
                let mut state = shared.lock();
                let c = &mut state.counters;
                match code {
                    ErrorCode::Overloaded => c.rejected_overloaded += 1,
                    ErrorCode::DeadlineExceeded => c.rejected_deadline += 1,
                    ErrorCode::BadRequest
                    | ErrorCode::UnknownGraph
                    | ErrorCode::GraphAlreadyRegistered => c.rejected_invalid += 1,
                    ErrorCode::Internal => {}
                }
            }
            responder(resp)
        });
        self.shared.handle(request, deadline, responder, false);
    }

    /// Cheap liveness snapshot (answered inline, never queued).
    pub fn health(&self) -> HealthInfo {
        self.shared.health()
    }

    /// The knobs this core was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.shared.config
    }

    /// [`ServerCore::submit`] with an in-place wait — the convenience
    /// entry point for tests and benchmarks.
    pub fn handle_blocking(&self, request: Request) -> Response {
        let (tx, rx) = mpsc::channel();
        self.submit(request, Box::new(move |r| drop(tx.send(r))));
        rx.recv().expect("responder always fires")
    }

    /// `true` once a [`Request::Shutdown`] was accepted (or
    /// [`ServerCore::stop`] called).
    pub fn is_stopping(&self) -> bool {
        self.shared.lock().stopping
    }

    /// Marks the core stopping: the transport stops accepting
    /// connections, and the solver thread drains every queue without
    /// waiting out coalesce windows. The thread exits when the core is
    /// dropped.
    pub fn stop(&self) {
        self.shared.stop(false);
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }
}

impl Drop for ServerCore {
    fn drop(&mut self) {
        self.shared.stop(true);
        if let Some(handle) = self.solver.take() {
            let _ = handle.join();
        }
    }
}

impl Shared {
    /// The state lock.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(POISONED)
    }

    /// Routes one request. `queued` is set when the solver thread replays
    /// a solve from the control queue: the mutations of its graph that
    /// were ahead of it have run.
    fn handle(
        &self,
        request: Request,
        deadline: Option<Instant>,
        responder: Responder,
        queued: bool,
    ) {
        match request {
            Request::Ping => responder(Response::Pong {
                protocol_version: lsbp_net::PROTOCOL_VERSION,
            }),
            Request::Stats => responder(Response::Stats(self.stats())),
            Request::Health => responder(Response::Health(self.health())),
            Request::Shutdown => {
                self.stop(false);
                responder(Response::ShuttingDown);
            }
            Request::RegisterGraph { graph_id, .. } | Request::EdgeDelta { graph_id, .. } => {
                let control = Control {
                    request,
                    deadline,
                    responder,
                };
                self.queue(control, Some(graph_id));
            }
            Request::SolveLinBp { graph_id, .. } | Request::SolveRwr { graph_id, .. }
                if !queued && self.lock().mutating.contains_key(&graph_id) =>
            {
                let control = Control {
                    request,
                    deadline,
                    responder,
                };
                self.queue(control, None);
            }
            Request::SolveLinBp {
                graph_id,
                params,
                seeds,
            } => {
                let kind =
                    validate_linbp_params(&params, &self.config.parallelism).map(|(h, opts)| {
                        JobKind::LinBp {
                            echo: params.echo,
                            h,
                            opts,
                        }
                    });
                self.admit(graph_id, params.k, kind, seeds, deadline, responder);
            }
            Request::SolveRwr {
                graph_id,
                params,
                seeds,
            } => {
                let kind = validate_rwr_params(&params, &self.config.parallelism)
                    .map(|opts| JobKind::Rwr { opts });
                self.admit(graph_id, params.k, kind, seeds, deadline, responder);
            }
        }
    }

    /// Appends `control` to the control queue and wakes the solver;
    /// `mutates` names the graph a registration or delta changes.
    fn queue(&self, control: Control, mutates: Option<u64>) {
        let mut state = self.lock();
        if let Some(graph_id) = mutates {
            *state.mutating.entry(graph_id).or_default() += 1;
        }
        state.control.push_back(control);
        drop(state);
        self.wakeup.notify_all();
    }

    fn health(&self) -> HealthInfo {
        let (stats, queue_depth) = {
            let state = self.lock();
            (state.stats(), state.backlog())
        };
        HealthInfo {
            protocol_version: lsbp_net::PROTOCOL_VERSION,
            queue_depth,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            spill_enabled: self.config.spill_dir.is_some(),
            stats,
        }
    }

    fn stats(&self) -> ServerStats {
        self.lock().stats()
    }

    fn stop(&self, dropped: bool) {
        // Set under the lock the solver checks them under before waiting,
        // so the wakeup cannot fall between its check and its wait. `Drop`
        // comes here too, so a poisoned lock must not panic.
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.stopping = true;
        state.dropped |= dropped;
        drop(state);
        self.wakeup.notify_all();
    }

    /// Runs `work` inside the panic boundary: a panic is counted and
    /// returns `None`; the solver thread, the registry, the cache and all
    /// parked work are untouched.
    fn guarded<T>(&self, work: impl FnOnce() -> T) -> Option<T> {
        let done = catch_unwind(AssertUnwindSafe(work)).ok();
        if done.is_none() {
            self.lock().counters.panics_caught += 1;
        }
        done
    }

    /// Builds a new graph at version 1 and registers it (solver thread).
    fn register_graph(
        &self,
        graph_id: u64,
        n_nodes: u64,
        symmetric: bool,
        edges: &[WireEdge],
    ) -> Response {
        if n_nodes == 0 || n_nodes > MAX_NODES {
            return bad_request(format!("n_nodes must be in 1..={MAX_NODES}, got {n_nodes}"));
        }
        // Checked before the build, which spills to disk: the solver
        // thread is the only writer of the registry, so the id is still
        // free when the entry is published.
        if self.lock().graphs.contains_key(&graph_id) {
            return Response::Error {
                code: ErrorCode::GraphAlreadyRegistered,
                message: format!("graph {graph_id} is already registered"),
                retry_after_ms: None,
            };
        }
        let triplets = match edge_triplets(n_nodes, symmetric, edges) {
            Ok(t) => t,
            Err(message) => return bad_request(message),
        };
        let n = n_nodes as usize;
        let mut coo = CooMatrix::with_capacity(n, n, triplets.len());
        for (s, t, w) in triplets {
            coo.push(s, t, w);
        }
        let csr = match coo.try_to_csr() {
            Ok(m) => m,
            Err(e) => return bad_request(e.to_string()),
        };
        let nnz = csr.nnz() as u64;
        let entry = Arc::new(GraphEntry::build(csr, 1, graph_id, &self.config));
        self.lock().graphs.insert(graph_id, entry);
        Response::Registered {
            graph_id,
            version: 1,
            n_nodes,
            nnz,
        }
    }

    /// Applies additive edge deltas (solver thread): bumps the graph
    /// version, rebuilds the operator layout once, patches cached LinBP
    /// beliefs forward and invalidates cached RWR scores. A rejected or
    /// panicking delta publishes nothing and puts the cache entries back.
    fn apply_edge_delta(&self, graph_id: u64, symmetric: bool, deltas: &[WireEdge]) -> Response {
        let (old, stale) = {
            let mut state = self.lock();
            let Some(old) = state.graphs.get(&graph_id).cloned() else {
                return unknown_graph(graph_id);
            };
            let stale = state.cache.take_version(graph_id, old.version);
            (old, stale)
        };
        let rebuilt = self.guarded(|| self.rebuild(graph_id, &old, symmetric, deltas, &stale));
        let cap = self.config.cache_capacity;
        let mut state = self.lock();
        let (new, refreshed) = match rebuilt {
            Some(Ok(r)) => r,
            failed => {
                for (key, entry) in stale {
                    state.cache.insert(key, entry, cap);
                }
                return match failed {
                    Some(Err(message)) => bad_request(message),
                    _ => panicked(),
                };
            }
        };
        let version = new.version;
        add_pager(&mut state.pager_retired, old.pager_stats());
        state.graphs.insert(graph_id, Arc::new(new));
        // Under the StaleCache degradation policy, entries that cannot be
        // patched forward are *retained* at their old version (still
        // counted invalidated) — they are only reachable through the
        // stale-serving overload path, never a normal cache hit.
        let keep_stale = self.config.degradation == DegradationPolicy::StaleCache;
        let (mut patched, mut invalidated) = (0u64, 0u64);
        for ((key, entry), fresh) in stale.into_iter().zip(refreshed) {
            match fresh {
                Some(fresh) => {
                    patched += 1;
                    state.cache.insert(CacheKey { version, ..key }, fresh, cap);
                }
                None => {
                    invalidated += 1;
                    if keep_stale {
                        state.cache.insert(key, entry, cap);
                    }
                }
            }
        }
        state.counters.patched_entries += patched;
        state.counters.invalidated_entries += invalidated;
        Response::DeltaApplied {
            graph_id,
            version,
            patched,
            invalidated,
        }
    }

    /// The lock-free middle step of an edge delta: validates and applies
    /// the deltas, builds (and spills) the new version, and patches each
    /// stale LinBP entry forward — entries sharing solve parameters ride
    /// one batched update. Returns the new entry and, per stale entry,
    /// its patched replacement (`None`: RWR, or a failed patch).
    fn rebuild(
        &self,
        graph_id: u64,
        old: &GraphEntry,
        symmetric: bool,
        deltas: &[WireEdge],
        stale: &[(CacheKey, CacheEntry)],
    ) -> Result<(GraphEntry, Vec<Option<CacheEntry>>), String> {
        let list = edge_triplets(old.csr.n_rows() as u64, symmetric, deltas)?;
        let new_csr = old
            .csr
            .try_with_edge_deltas(&list)
            .map_err(|e| e.to_string())?;
        let new = GraphEntry::build(new_csr, old.version + 1, graph_id, &self.config);

        type Group<'a> = (bool, &'a Mat, &'a LinBpOptions, Vec<usize>);
        let mut groups: HashMap<Vec<u8>, Group<'_>> = HashMap::new();
        for (i, (_, entry)) in stale.iter().enumerate() {
            if let JobKind::LinBp { echo, h, opts } = &entry.kind {
                groups
                    .entry(entry.kind.params_bytes(entry.beliefs.k() as u32))
                    .or_insert_with(|| (*echo, h, opts, Vec::new()))
                    .3
                    .push(i);
            }
        }
        let mut refreshed: Vec<Option<CacheEntry>> = stale.iter().map(|_| None).collect();
        for (echo, h, opts, members) in groups.into_values() {
            // One synthetic seed per cached result (each depends on that
            // entry's beliefs), solved together in one batched pass.
            let prev: Vec<&BeliefMatrix> = members.iter().map(|&i| &stale[i].1.beliefs).collect();
            let Ok(seeds) = prev
                .iter()
                .map(|b| linbp_edge_delta_seed(&old.csr, &list, b, h, echo))
                .collect::<Result<Vec<_>, _>>()
            else {
                continue;
            };
            let Ok(runs) = linbp_update_batch_on(new.operator(), &prev, &seeds, h, opts, echo)
            else {
                continue;
            };
            for (i, run) in members.into_iter().zip(runs) {
                if !run.diverged {
                    let entry = &stale[i].1;
                    refreshed[i] = Some(CacheEntry {
                        beliefs: run.beliefs,
                        converged: run.converged,
                        diverged: false,
                        iterations: run.iterations as u64,
                        final_delta: run.final_delta,
                        patched: true,
                        kind: entry.kind.clone(),
                    });
                }
            }
        }
        if self.config.panic_on_graph == Some(graph_id) {
            panic!("injected fault applying a delta to graph {graph_id}");
        }
        Ok((new, refreshed))
    }

    /// Validates a solve, then serves it from cache or parks it for
    /// coalescing.
    fn admit(
        &self,
        graph_id: u64,
        k: u32,
        kind: Result<JobKind, String>,
        wire_seeds: Vec<WireSeed>,
        deadline: Option<Instant>,
        responder: Responder,
    ) {
        let graph = self.lock().graphs.get(&graph_id).cloned();
        let Some(graph) = graph else {
            return responder(unknown_graph(graph_id));
        };
        let mut kind = match kind {
            Ok(kind) => kind,
            Err(msg) => return responder(bad_request(msg)),
        };
        let seeds = match build_seeds(graph.csr.n_rows(), k as usize, &wire_seeds) {
            Ok(e) => e,
            Err(msg) => return responder(bad_request(msg)),
        };
        match &mut kind {
            // RWR needs every class seeded (the library rejects a whole
            // batch for one empty class — catch it per query at admission
            // so one hostile query cannot poison its co-batched neighbors).
            JobKind::Rwr { .. } => {
                let unseeded =
                    (0..k as usize).find(|&c| !(0..seeds.n()).any(|v| seeds.row(v)[c] > 0.0));
                if let Some(c) = unseeded {
                    return responder(bad_request(format!("class {c} has no labeled node")));
                }
            }
            // ClampIter degradation: past the high-water mark, shrink the
            // iteration budget. The clamped opts feed the params bytes
            // below, so clamped queries coalesce and cache among themselves.
            JobKind::LinBp { opts, .. } => {
                if let DegradationPolicy::ClampIter(cap) = self.config.degradation {
                    let mut state = self.lock();
                    let high_water = (self.config.max_pending / 2) as u64;
                    if opts.max_iter > cap.max(1) && state.backlog() >= high_water {
                        opts.max_iter = cap.max(1);
                        state.counters.degraded_clamped += 1;
                    }
                }
            }
        }
        let params = kind.params_bytes(k);
        let mut tail = params.clone();
        tail.extend_from_slice(&seeds_bytes(&wire_seeds));
        let cache_key = CacheKey {
            graph_id,
            version: graph.version,
            tail,
        };

        // Deadline check at admission: a budget that is already gone
        // gets its typed answer immediately.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return responder(deadline_exceeded(self.config.retry_after_hint));
        }

        let group_key = GroupKey {
            graph_id,
            version: graph.version,
            params,
        };
        let job = SolveJob {
            graph,
            kind,
            seeds,
            cache_key,
            responder,
            deadline,
        };
        let mut state = self.lock();
        let parked = state.groups.get(&group_key).map_or(0, |g| g.jobs.len());
        let answer = if let Some(payload) = state.cache_hit(&job.cache_key) {
            Response::Beliefs(payload)
        } else if parked < self.config.max_pending {
            state
                .groups
                .entry(group_key)
                .or_insert_with(|| PendingGroup {
                    jobs: Vec::new(),
                    deadline: Instant::now() + self.config.coalesce_window,
                })
                .jobs
                .push(job);
            drop(state);
            self.wakeup.notify_all();
            return;
        } else if let Some(payload) = (self.config.degradation == DegradationPolicy::StaleCache)
            .then(|| state.stale_lookup(&job.cache_key))
            .flatten()
        {
            // StaleCache degradation: a matching answer for an older
            // graph version beats a rejection.
            state.counters.queries_served += 1;
            state.counters.degraded_stale += 1;
            Response::Beliefs(payload)
        } else {
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "admission queue full, retry later".into(),
                retry_after_ms: Some(self.config.retry_after_hint.as_millis() as u64),
            }
        };
        drop(state);
        (job.responder)(answer);
    }
}

fn bad_request(message: String) -> Response {
    Response::Error {
        code: ErrorCode::BadRequest,
        message,
        retry_after_ms: None,
    }
}

fn panicked() -> Response {
    Response::Error {
        code: ErrorCode::Internal,
        message: "solver panicked; request not answered".into(),
        retry_after_ms: None,
    }
}

fn unknown_graph(graph_id: u64) -> Response {
    Response::Error {
        code: ErrorCode::UnknownGraph,
        message: format!("no graph registered under id {graph_id}"),
        retry_after_ms: None,
    }
}

fn deadline_exceeded(hint: Duration) -> Response {
    Response::Error {
        code: ErrorCode::DeadlineExceeded,
        message: "deadline expired before the solve could start".into(),
        retry_after_ms: Some(hint.as_millis() as u64),
    }
}

fn seeds_bytes(seeds: &[WireSeed]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(seeds.len() as u64);
    for s in seeds {
        w.u64(s.node);
        w.f64s(&s.residual);
    }
    w.into_bytes()
}

fn wire_norm(norm: WireNorm) -> ToleranceNorm {
    match norm {
        WireNorm::MaxAbs => ToleranceNorm::MaxAbs,
        WireNorm::L2 => ToleranceNorm::L2,
    }
}

fn validate_linbp_params(
    p: &LinBpParams,
    parallelism: &ParallelismConfig,
) -> Result<(Mat, LinBpOptions), String> {
    let k = p.k as usize;
    if p.k < 2 || p.k > MAX_CLASSES {
        return Err(format!("k must be in 2..={MAX_CLASSES}, got {}", p.k));
    }
    if p.h_residual.len() != k * k {
        return Err(format!(
            "coupling matrix must have k² = {} entries, got {}",
            k * k,
            p.h_residual.len()
        ));
    }
    if p.h_residual.iter().any(|x| !x.is_finite()) {
        return Err("coupling matrix has non-finite entries".into());
    }
    if p.max_iter == 0 || p.max_iter > MAX_ITER_CAP {
        return Err(format!(
            "max_iter must be in 1..={MAX_ITER_CAP}, got {}",
            p.max_iter
        ));
    }
    if !(p.tol.is_finite() && p.tol >= 0.0) {
        return Err("tol must be finite and >= 0".into());
    }
    if !(p.damping.is_finite() && (0.0..1.0).contains(&p.damping)) {
        return Err("damping must be in [0, 1)".into());
    }
    if p.divergence_guard.is_nan() || p.divergence_guard <= 0.0 {
        return Err("divergence_guard must be positive".into());
    }
    let h = Mat::from_vec(k, k, p.h_residual.clone());
    let opts = LinBpOptions {
        max_iter: p.max_iter as usize,
        tol: p.tol,
        norm: wire_norm(p.norm),
        damping: p.damping,
        divergence_guard: p.divergence_guard,
        parallelism: *parallelism,
    };
    Ok((h, opts))
}

fn validate_rwr_params(
    p: &RwrParams,
    parallelism: &ParallelismConfig,
) -> Result<RwrOptions, String> {
    if p.k < 2 || p.k > MAX_CLASSES {
        return Err(format!("k must be in 2..={MAX_CLASSES}, got {}", p.k));
    }
    if !(p.restart.is_finite() && p.restart > 0.0 && p.restart <= 1.0) {
        return Err("restart must be in (0, 1]".into());
    }
    if p.max_iter == 0 || p.max_iter > MAX_ITER_CAP {
        return Err(format!(
            "max_iter must be in 1..={MAX_ITER_CAP}, got {}",
            p.max_iter
        ));
    }
    if !(p.tol.is_finite() && p.tol >= 0.0) {
        return Err("tol must be finite and >= 0".into());
    }
    Ok(RwrOptions {
        restart: p.restart,
        max_iter: p.max_iter as usize,
        tol: p.tol,
        norm: wire_norm(p.norm),
        parallelism: *parallelism,
    })
}

fn build_seeds(n: usize, k: usize, seeds: &[WireSeed]) -> Result<ExplicitBeliefs, String> {
    let mut explicit = ExplicitBeliefs::new(n, k);
    for s in seeds {
        if s.node >= n as u64 {
            return Err(format!("seed node {} out of range for {n} nodes", s.node));
        }
        if s.residual.iter().any(|x| !x.is_finite()) {
            return Err(format!("seed node {} has non-finite residual", s.node));
        }
        explicit
            .set_residual(s.node as usize, &s.residual)
            .map_err(|e| format!("seed node {}: {e}", s.node))?;
    }
    Ok(explicit)
}

/// Validates wire edges (registration edges or edge deltas) against an
/// `n`-node graph — both endpoints in range, a finite weight — and lists
/// them as `(s, t, w)` triplets, each off-diagonal edge followed by its
/// mirror when `symmetric`.
fn edge_triplets(
    n: u64,
    symmetric: bool,
    edges: &[WireEdge],
) -> Result<Vec<(usize, usize, f64)>, String> {
    let mut list = Vec::with_capacity(edges.len() * 2);
    for e in edges {
        if e.src >= n || e.dst >= n {
            return Err(format!(
                "edge ({}, {}) out of range for {n} nodes",
                e.src, e.dst
            ));
        }
        if !e.weight.is_finite() {
            return Err(format!("edge ({}, {}) has non-finite weight", e.src, e.dst));
        }
        let (s, t) = (e.src as usize, e.dst as usize);
        list.push((s, t, e.weight));
        if symmetric && s != t {
            list.push((t, s, e.weight));
        }
    }
    Ok(list)
}

// ---------------------------------------------------------------------------
// Solver thread
// ---------------------------------------------------------------------------

/// Picks the next drainable admission queue: any queue at/over max batch
/// drains immediately; otherwise the one whose window expired longest ago;
/// otherwise none (returning the earliest pending deadline to sleep until).
/// With `force` set (shutdown drain), every queue counts as expired.
fn next_batch(
    groups: &mut HashMap<GroupKey, PendingGroup>,
    config: &ServerConfig,
    force: bool,
) -> Result<Vec<SolveJob>, Option<Instant>> {
    let now = Instant::now();
    let mut best: Option<(&GroupKey, Instant)> = None;
    let mut earliest: Option<Instant> = None;
    for (key, group) in groups.iter() {
        if group.jobs.len() >= config.max_batch {
            let key = key.clone();
            return Ok(take_batch(groups, &key, config));
        }
        if force || group.deadline <= now {
            if best.map(|(_, d)| group.deadline < d).unwrap_or(true) {
                best = Some((key, group.deadline));
            }
        } else if earliest.map(|e| group.deadline < e).unwrap_or(true) {
            earliest = Some(group.deadline);
        }
    }
    match best {
        Some((key, _)) => {
            let key = key.clone();
            Ok(take_batch(groups, &key, config))
        }
        None => Err(earliest),
    }
}

/// Removes up to `max_batch` jobs from a queue; a non-empty remainder
/// re-arms with an immediate deadline so it drains next.
fn take_batch(
    groups: &mut HashMap<GroupKey, PendingGroup>,
    key: &GroupKey,
    config: &ServerConfig,
) -> Vec<SolveJob> {
    let mut group = groups.remove(key).expect("group exists");
    if group.jobs.len() > config.max_batch {
        let rest = group.jobs.split_off(config.max_batch);
        groups.insert(
            key.clone(),
            PendingGroup {
                jobs: rest,
                deadline: Instant::now(),
            },
        );
    }
    group.jobs
}

/// What the solver thread runs next.
enum Work {
    Control(Control),
    Batch(Vec<SolveJob>),
}

fn solver_loop(shared: &Shared) {
    loop {
        let work = {
            let mut state = shared.lock();
            loop {
                if let Some(control) = state.control.pop_front() {
                    break Work::Control(control);
                }
                let stopping = state.stopping;
                match next_batch(&mut state.groups, &shared.config, stopping) {
                    Ok(jobs) => break Work::Batch(jobs),
                    // A dropped core takes no new work, and stopping has
                    // drained every queue.
                    Err(_) if state.dropped => return,
                    Err(Some(deadline)) => {
                        let wait = deadline.saturating_duration_since(Instant::now());
                        state = shared
                            .wakeup
                            .wait_timeout(state, wait.max(Duration::from_micros(50)))
                            .expect(POISONED)
                            .0;
                    }
                    Err(None) => {
                        state = shared.wakeup.wait(state).expect(POISONED);
                    }
                }
            }
        };
        match work {
            Work::Control(control) => run_control(shared, control),
            Work::Batch(jobs) => solve_batch(shared, jobs),
        }
    }
}

/// Runs one control job: a registration or an edge delta, answered once
/// it is published (or rejected), or a solve that waited behind one.
fn run_control(shared: &Shared, control: Control) {
    let Control {
        request,
        deadline,
        responder,
    } = control;
    let (graph_id, answer) = match request {
        Request::RegisterGraph {
            graph_id,
            n_nodes,
            symmetric,
            edges,
        } => {
            let registered =
                shared.guarded(|| shared.register_graph(graph_id, n_nodes, symmetric, &edges));
            (graph_id, registered.unwrap_or_else(panicked))
        }
        Request::EdgeDelta {
            graph_id,
            symmetric,
            deltas,
        } => (
            graph_id,
            shared.apply_edge_delta(graph_id, symmetric, &deltas),
        ),
        request => return shared.handle(request, deadline, responder, true),
    };
    {
        let mut state = shared.lock();
        let pending = state
            .mutating
            .get_mut(&graph_id)
            .expect("counted when queued");
        *pending -= 1;
        if *pending == 0 {
            state.mutating.remove(&graph_id);
        }
    }
    responder(answer);
}

/// (beliefs, converged, diverged, iterations, final_delta,
/// frontier_rows_active, frontier_rows_skipped) of one solved query.
type Solved = (BeliefMatrix, bool, bool, u64, f64, u64, u64);

/// Runs one drained admission queue as a single batched solve and fans the
/// per-query results back out to their responders and into the cache.
/// Identical queries parked together are solved, counted and cached once;
/// each of them gets that one answer.
///
/// Two fault boundaries live here. **Deadlines:** jobs whose budget
/// expired while parked are answered `DeadlineExceeded` up front and do
/// not join the batched solve (dropping an expired query never perturbs
/// its batch-mates' answers — per-query buffers and convergence keep each
/// result equal to its solo solve). **Panics:** the solve runs under
/// [`catch_unwind`]; a panicking solve answers every query in its batch
/// with `Internal` and leaves the solver thread, the registry, the cache,
/// and all other parked groups untouched.
fn solve_batch(shared: &Shared, jobs: Vec<SolveJob>) {
    // Deadline check at drain time.
    let now = Instant::now();
    let (jobs, expired): (Vec<SolveJob>, Vec<SolveJob>) = jobs
        .into_iter()
        .partition(|j| j.deadline.is_none_or(|d| now < d));
    for job in expired {
        (job.responder)(deadline_exceeded(shared.config.retry_after_hint));
    }
    // Cache check at drain time: a query that parked behind the solve of
    // an identical one is answered from that solve's cache entry instead
    // of being solved again.
    let jobs: Vec<SolveJob> = jobs
        .into_iter()
        .filter_map(|job| {
            let hit = shared.lock().cache_hit(&job.cache_key);
            match hit {
                Some(payload) => {
                    (job.responder)(Response::Beliefs(payload));
                    None
                }
                None => Some(job),
            }
        })
        .collect();
    if jobs.is_empty() {
        return;
    }
    let graph = Arc::clone(&jobs[0].graph);
    // Twins — jobs with the same cache key — share one batch column:
    // `column[i]` is job `i`'s, numbered in order of first appearance.
    let mut queries: Vec<ExplicitBeliefs> = Vec::new();
    let column: Vec<usize> = {
        let mut first: HashMap<&CacheKey, usize> = HashMap::new();
        jobs.iter()
            .map(|job| {
                *first.entry(&job.cache_key).or_insert_with(|| {
                    queries.push(job.seeds.clone());
                    queries.len() - 1
                })
            })
            .collect()
    };

    let panic_on_graph = shared.config.panic_on_graph;
    let batch_graph_id = jobs[0].cache_key.graph_id;
    let kind = &jobs[0].kind;
    let solved = shared.guarded(|| {
        if panic_on_graph == Some(batch_graph_id) {
            panic!("injected solver fault for graph {batch_graph_id}");
        }
        let op = graph.operator();
        match kind {
            JobKind::LinBp { echo, h, opts } => {
                let run = if *echo {
                    linbp_batch_on(op, &queries, h, opts)
                } else {
                    linbp_star_batch_on(op, &queries, h, opts)
                };
                run.map(|results| {
                    results
                        .into_iter()
                        .map(|r| {
                            (
                                r.beliefs,
                                r.converged,
                                r.diverged,
                                r.iterations as u64,
                                r.final_delta,
                                r.rows_active,
                                r.rows_skipped,
                            )
                        })
                        .collect::<Vec<Solved>>()
                })
                .map_err(|e: LinBpError| e.to_string())
            }
            JobKind::Rwr { opts } => rwr_batch_on(op, &queries, opts)
                .map(|results| {
                    results
                        .into_iter()
                        .map(|r| {
                            let iters = r.iterations as u64;
                            let conv = r.converged;
                            (r.beliefs, conv, false, iters, f64::NAN, 0, 0)
                        })
                        .collect()
                })
                .map_err(|e: RwrError| e.to_string()),
        }
    });
    // A panic answers `Internal`; a library error (validation should have
    // caught everything recoverable) answers `BadRequest` — either way to
    // every query in the batch, and nothing else is poisoned.
    let answer = match solved {
        Some(Ok(results)) => return publish_batch(shared, jobs, &column, results),
        Some(Err(message)) => bad_request(message),
        None => panicked(),
    };
    for job in jobs {
        (job.responder)(answer.clone());
    }
}

/// Counts a solved batch, caches one answer per batch column, then
/// hands every job its column's answer. `results[c]` is column `c`, and
/// `column[i]` is job `i`'s column (twins share one).
fn publish_batch(shared: &Shared, jobs: Vec<SolveJob>, column: &[usize], results: Vec<Solved>) {
    // The batch answers every job, twins included.
    let q = jobs.len();

    // SpMM accounting: the batch costs max(iterations) sweeps; solved one
    // by one its distinct queries would have cost Σ iterations.
    let passes = results.iter().map(|r| r.3).max().unwrap_or(0);
    let sequential: u64 = results.iter().map(|r| r.3).sum();
    // Each per-query result counts that query's own (row, query) pairs,
    // so the batch total is the sum.
    let frontier_active: u64 = results.iter().map(|r| r.5).sum();
    let frontier_skipped: u64 = results.iter().map(|r| r.6).sum();

    let served = if q == 1 {
        ServedVia::Solo
    } else {
        ServedVia::Coalesced { batch: q as u32 }
    };
    let mut answers = Vec::with_capacity(q);
    let mut entries: Vec<(CacheKey, CacheEntry)> = Vec::with_capacity(results.len());
    let mut results = results.into_iter();
    for (job, &col) in jobs.into_iter().zip(column) {
        if col == entries.len() {
            let (beliefs, converged, diverged, iterations, final_delta, _, _) =
                results.next().expect("one result per batch column");
            let entry = CacheEntry {
                beliefs,
                converged,
                diverged,
                iterations,
                final_delta,
                patched: false,
                kind: job.kind,
            };
            entries.push((job.cache_key, entry));
        }
        answers.push((job.responder, entries[col].1.payload(served)));
    }
    {
        let mut state = shared.lock();
        let c = &mut state.counters;
        c.queries_served += q as u64;
        c.spmm_passes += passes;
        c.spmm_passes_sequential_equiv += sequential;
        c.frontier_rows_active += frontier_active;
        c.frontier_rows_skipped += frontier_skipped;
        if q >= 2 {
            c.coalesced_batches += 1;
            c.coalesced_queries += q as u64;
        }
        c.largest_batch = c.largest_batch.max(q as u64);
        for (key, entry) in entries {
            state.cache.insert(key, entry, shared.config.cache_capacity);
        }
    }
    for (responder, payload) in answers {
        responder(Response::Beliefs(payload));
    }
}
