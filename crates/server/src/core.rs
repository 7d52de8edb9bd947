//! The transport-independent serving core: graph registry, admission
//! coalescing, belief cache, and the solver thread.
//!
//! [`ServerCore`] accepts decoded [`Request`]s through [`ServerCore::submit`]
//! with a callback responder, so the same engine serves the TCP event loop
//! (`crate::tcp`), in-process tests, and the benchmark harness without a
//! socket in sight.
//!
//! ## Admission coalescing
//!
//! Solve requests do not run one by one. Each request is validated, checked
//! against the belief cache, and then parked in an **admission queue** keyed
//! by everything that must match for two queries to share a stacked solve:
//! graph id, graph version, method (LinBP/LinBP\*/RWR), and the canonical
//! wire bytes of the solve parameters. A single solver thread drains a
//! queue when its **coalesce window** (measured from the first parked
//! query) expires or the queue reaches **max batch**, and runs the whole
//! stack through one [`lsbp::batch`] solve — one SpMM sweep per iteration
//! for the entire batch, with per-query convergence masks keeping every
//! answer **bitwise identical** to the per-query library solve.
//!
//! The default window is zero, which makes admission **work-conserving**:
//! a query that finds the solver idle runs at once, alone, at library
//! cost, and the queries that arrive while a solve is running park and
//! form the next stacked batch. A stacked solve's cost per query hardly
//! depends on the batch size, so waiting for company only adds latency.
//! A parked query whose twin was solved by the batch before is answered
//! from the cache entry that solve left, at drain time.
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
    ServerStats, WireNorm, WireSeed, WireWriter,
};
use lsbp_sparse::{CooMatrix, CsrMatrix, PagedCsr, PagerStats};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
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
    /// coalesce into the next stacked batch. A positive window holds every
    /// queue open that long to gather more queries first.
    pub coalesce_window: Duration,
    /// Largest stacked solve; a fuller queue drains immediately and the
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
    /// solve against this graph id panics deliberately. Test-only in
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

/// Distinguishes spill files across builds of the same (graph, version):
/// rejected duplicate registrations and racing delta rebuilds each write
/// their own file, so a losing build's `Drop` can only ever delete its
/// own spill — never the live entry's.
static SPILL_NONCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

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

/// What kind of solve a parked query wants (params already validated).
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

/// How a cached entry may be refreshed across graph versions.
enum PatchInfo {
    LinBp {
        echo: bool,
        h: Mat,
        opts: LinBpOptions,
    },
    /// RWR has no linear patch — invalidated on edge deltas.
    None,
}

struct CacheEntry {
    beliefs: Mat,
    k: u32,
    converged: bool,
    diverged: bool,
    iterations: u64,
    final_delta: f64,
    patched: bool,
    patch: PatchInfo,
}

impl CacheEntry {
    fn payload(&self, served: ServedVia) -> BeliefsPayload {
        BeliefsPayload {
            n: self.beliefs.rows() as u64,
            k: self.k,
            beliefs: self.beliefs.as_slice().to_vec(),
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
    /// Insertion order for eviction; stale keys are skipped lazily.
    order: VecDeque<CacheKey>,
}

impl Cache {
    fn insert(&mut self, key: CacheKey, entry: CacheEntry, capacity: usize) {
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
}

/// One admission queue: parked queries plus the window deadline armed by
/// the first of them.
struct PendingGroup {
    jobs: Vec<SolveJob>,
    deadline: Instant,
}

#[derive(Default)]
struct Admission {
    groups: HashMap<GroupKey, PendingGroup>,
}

#[derive(Default)]
struct Counters {
    queries_served: u64,
    cache_hits: u64,
    coalesced_batches: u64,
    coalesced_queries: u64,
    largest_batch: u64,
    spmm_passes: u64,
    spmm_passes_sequential_equiv: u64,
    patched_entries: u64,
    invalidated_entries: u64,
    rejected_overloaded: u64,
    rejected_deadline: u64,
    rejected_invalid: u64,
    panics_caught: u64,
    degraded_stale: u64,
    degraded_clamped: u64,
    /// LinBP (row, query) pairs recomputed by served solves, summed over
    /// the queries of each batch (active-frontier execution; equals
    /// rows × sweeps per query when the frontier is off).
    frontier_rows_active: u64,
    /// LinBP (row, query) pairs skipped by served solves because their
    /// inputs were bitwise unchanged since the previous sweep.
    frontier_rows_skipped: u64,
    /// Pager activity of graph entries already replaced by edge deltas
    /// — added at replacement time so the served totals stay monotone
    /// as spilled versions retire.
    pager_retired: PagerStats,
}

struct Shared {
    config: ServerConfig,
    registry: RwLock<HashMap<u64, Arc<GraphEntry>>>,
    /// Serializes graph mutations (register / edge delta) so a delta's
    /// read-rebuild-publish sequence is atomic: without it two racing
    /// deltas both rebuild from the same old version and one update is
    /// silently lost. Held only by the rare control-plane requests —
    /// solves never touch it. Lock order: `mutations` → `registry` →
    /// `counters`.
    mutations: Mutex<()>,
    cache: Mutex<Cache>,
    admission: Mutex<Admission>,
    wakeup: Condvar,
    counters: Mutex<Counters>,
    stopping: AtomicBool,
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
            registry: RwLock::new(HashMap::new()),
            mutations: Mutex::new(()),
            cache: Mutex::new(Cache::default()),
            admission: Mutex::new(Admission::default()),
            wakeup: Condvar::new(),
            counters: Mutex::new(Counters::default()),
            stopping: AtomicBool::new(false),
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
    /// through `responder` (inline for registry/cache/metadata operations,
    /// from the solver thread for solves that miss the cache).
    pub fn submit(&self, request: Request, responder: Responder) {
        self.submit_at(request, None, responder);
    }

    /// [`ServerCore::submit`] with an absolute deadline. Solves whose
    /// budget has already expired (or expires while parked in a
    /// coalescing group) are answered [`ErrorCode::DeadlineExceeded`]
    /// without consuming a solve slot; metadata requests ignore the
    /// deadline (they answer inline anyway).
    ///
    /// Every rejection delivered through the responder — wherever it is
    /// produced — bumps the matching typed counter in [`ServerStats`].
    pub fn submit_at(&self, request: Request, deadline: Option<Instant>, responder: Responder) {
        let counters = Arc::clone(&self.shared);
        let responder: Responder = Box::new(move |resp: Response| {
            if let Response::Error { code, .. } = &resp {
                let mut c = counters.counters.lock().unwrap();
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
        match request {
            Request::Ping => responder(Response::Pong {
                protocol_version: lsbp_net::PROTOCOL_VERSION,
            }),
            Request::Stats => responder(Response::Stats(self.stats())),
            Request::Health => responder(Response::Health(self.health())),
            Request::Shutdown => {
                self.stop();
                responder(Response::ShuttingDown);
            }
            Request::RegisterGraph {
                graph_id,
                n_nodes,
                symmetric,
                edges,
            } => responder(self.register_graph(graph_id, n_nodes, symmetric, &edges)),
            Request::EdgeDelta {
                graph_id,
                symmetric,
                deltas,
            } => responder(self.apply_edge_delta(graph_id, symmetric, &deltas)),
            Request::SolveLinBp {
                graph_id,
                params,
                seeds,
            } => self.admit_linbp(graph_id, params, seeds, deadline, responder),
            Request::SolveRwr {
                graph_id,
                params,
                seeds,
            } => self.admit_rwr(graph_id, params, seeds, deadline, responder),
        }
    }

    /// Cheap liveness snapshot (answered inline, never queued).
    pub fn health(&self) -> HealthInfo {
        let queue_depth: u64 = {
            let admission = self.shared.admission.lock().unwrap();
            admission.groups.values().map(|g| g.jobs.len() as u64).sum()
        };
        let pager = self.pager_totals();
        let (frontier_rows_active, frontier_rows_skipped) = {
            let c = self.shared.counters.lock().unwrap();
            (c.frontier_rows_active, c.frontier_rows_skipped)
        };
        HealthInfo {
            protocol_version: lsbp_net::PROTOCOL_VERSION,
            graphs: self.shared.registry.read().unwrap().len() as u64,
            queue_depth,
            cached_entries: self.shared.cache.lock().unwrap().entries.len() as u64,
            uptime_ms: self.shared.started.elapsed().as_millis() as u64,
            spill_enabled: self.shared.config.spill_dir.is_some(),
            pager_hits: pager.hits,
            pager_misses: pager.misses,
            pager_evictions: pager.evictions,
            pager_prefetches: pager.prefetches,
            frontier_rows_active,
            frontier_rows_skipped,
        }
    }

    /// Pager activity summed over every live spilled graph plus the
    /// retired totals banked when versions were replaced. The registry
    /// lock is held across the counter read (same `registry` →
    /// `counters` order as the banking in [`Self::apply_edge_delta`]),
    /// so a retiring version is counted exactly once: either still
    /// registered or already banked, never both.
    fn pager_totals(&self) -> PagerStats {
        let registry = self.shared.registry.read().unwrap();
        let mut total = self.shared.counters.lock().unwrap().pager_retired;
        for entry in registry.values() {
            let s = entry.pager_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.prefetches += s.prefetches;
        }
        total
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
        self.shared.stopping.load(Ordering::SeqCst)
    }

    /// Asks the solver thread to drain and exit.
    pub fn stop(&self) {
        // The solver checks `stopping` and parks while holding the
        // admission lock, so setting the flag and notifying under that
        // lock cannot fall between its check and its wait (a lost wakeup
        // would hang `Drop` in `join`).
        let _admission = self
            .shared
            .admission
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.wakeup.notify_all();
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        let pager = self.pager_totals();
        // Registry and cache are read *before* taking the counters lock:
        // version retirement nests `registry` → `counters`, so grabbing
        // them the other way round here would risk a deadlock.
        let graphs = self.shared.registry.read().unwrap().len() as u64;
        let cached_entries = self.shared.cache.lock().unwrap().entries.len() as u64;
        let c = self.shared.counters.lock().unwrap();
        ServerStats {
            graphs,
            cached_entries,
            queries_served: c.queries_served,
            cache_hits: c.cache_hits,
            coalesced_batches: c.coalesced_batches,
            coalesced_queries: c.coalesced_queries,
            largest_batch: c.largest_batch,
            spmm_passes: c.spmm_passes,
            spmm_passes_sequential_equiv: c.spmm_passes_sequential_equiv,
            patched_entries: c.patched_entries,
            invalidated_entries: c.invalidated_entries,
            rejected_overloaded: c.rejected_overloaded,
            rejected_deadline: c.rejected_deadline,
            rejected_invalid: c.rejected_invalid,
            panics_caught: c.panics_caught,
            degraded_stale: c.degraded_stale,
            degraded_clamped: c.degraded_clamped,
            pager_hits: pager.hits,
            pager_misses: pager.misses,
            pager_evictions: pager.evictions,
            pager_prefetches: pager.prefetches,
            frontier_rows_active: c.frontier_rows_active,
            frontier_rows_skipped: c.frontier_rows_skipped,
        }
    }

    fn register_graph(
        &self,
        graph_id: u64,
        n_nodes: u64,
        symmetric: bool,
        edges: &[lsbp_net::WireEdge],
    ) -> Response {
        if n_nodes == 0 || n_nodes > MAX_NODES {
            return bad_request(format!("n_nodes must be in 1..={MAX_NODES}, got {n_nodes}"));
        }
        // Reject duplicates *before* GraphEntry::build runs: the build
        // spills to disk, and doing it first for an id that is already
        // live would waste the work (and, before spill paths carried a
        // nonce, truncated the live entry's file).
        let _mutation = self.shared.mutations.lock().unwrap();
        if self.shared.registry.read().unwrap().contains_key(&graph_id) {
            return Response::Error {
                code: ErrorCode::GraphAlreadyRegistered,
                message: format!("graph {graph_id} is already registered"),
                retry_after_ms: None,
            };
        }
        let n = n_nodes as usize;
        let mut coo = CooMatrix::new(n, n);
        for e in edges {
            if e.src >= n_nodes || e.dst >= n_nodes {
                return bad_request(format!(
                    "edge ({}, {}) out of range for {n_nodes} nodes",
                    e.src, e.dst
                ));
            }
            if !e.weight.is_finite() {
                return bad_request(format!("edge ({}, {}) has non-finite weight", e.src, e.dst));
            }
            coo.push(e.src as usize, e.dst as usize, e.weight);
            if symmetric && e.src != e.dst {
                coo.push(e.dst as usize, e.src as usize, e.weight);
            }
        }
        let csr = match coo.try_to_csr() {
            Ok(m) => m,
            Err(e) => return bad_request(e.to_string()),
        };
        let nnz = csr.nnz() as u64;
        let entry = Arc::new(GraphEntry::build(csr, 1, graph_id, &self.shared.config));
        let mut registry = self.shared.registry.write().unwrap();
        if registry.contains_key(&graph_id) {
            return Response::Error {
                code: ErrorCode::GraphAlreadyRegistered,
                message: format!("graph {graph_id} is already registered"),
                retry_after_ms: None,
            };
        }
        registry.insert(graph_id, entry);
        Response::Registered {
            graph_id,
            version: 1,
            n_nodes,
            nnz,
        }
    }

    /// Applies additive edge deltas: bumps the graph version, rebuilds the
    /// operator layout once, patches cached LinBP beliefs forward
    /// (batched, one pass per parameter group) and invalidates cached RWR
    /// scores.
    fn apply_edge_delta(
        &self,
        graph_id: u64,
        symmetric: bool,
        deltas: &[lsbp_net::WireEdge],
    ) -> Response {
        // Serialize the read-rebuild-publish sequence per core: two
        // racing deltas would otherwise both rebuild from the same old
        // version and one of the updates would be silently lost.
        let _mutation = self.shared.mutations.lock().unwrap();
        let old = match self.shared.registry.read().unwrap().get(&graph_id) {
            Some(e) => Arc::clone(e),
            None => return unknown_graph(graph_id),
        };
        let mut list: Vec<(usize, usize, f64)> = Vec::with_capacity(deltas.len() * 2);
        for d in deltas {
            if !d.weight.is_finite() {
                return bad_request(format!(
                    "delta ({}, {}) has non-finite weight",
                    d.src, d.dst
                ));
            }
            let (s, t) = (d.src as usize, d.dst as usize);
            if d.src >= old.csr.n_rows() as u64 || d.dst >= old.csr.n_rows() as u64 {
                return bad_request(format!("delta ({}, {}) out of range", d.src, d.dst));
            }
            list.push((s, t, d.weight));
            if symmetric && s != t {
                list.push((t, s, d.weight));
            }
        }
        let new_csr = match old.csr.try_with_edge_deltas(&list) {
            Ok(m) => m,
            Err(e) => return bad_request(e.to_string()),
        };
        let new_version = old.version + 1;
        let new_entry = Arc::new(GraphEntry::build(
            new_csr,
            new_version,
            graph_id,
            &self.shared.config,
        ));

        // Publish the new version first: queries admitted from here on
        // solve (and cache) against it. The outgoing version's pager
        // activity banks into the retired counters in the same
        // registry-write critical section that unregisters it, so a
        // concurrent Health/Stats sum never sees the old entry both
        // banked and still registered (or neither) — totals stay
        // monotone.
        {
            let mut registry = self.shared.registry.write().unwrap();
            let old_pager = old.pager_stats();
            let mut c = self.shared.counters.lock().unwrap();
            c.pager_retired.hits += old_pager.hits;
            c.pager_retired.misses += old_pager.misses;
            c.pager_retired.evictions += old_pager.evictions;
            c.pager_retired.prefetches += old_pager.prefetches;
            drop(c);
            registry.insert(graph_id, Arc::clone(&new_entry));
        }

        let (patched, invalidated) = self.patch_cache(graph_id, &old, &new_entry, &list);
        {
            let mut c = self.shared.counters.lock().unwrap();
            c.patched_entries += patched;
            c.invalidated_entries += invalidated;
        }
        Response::DeltaApplied {
            graph_id,
            version: new_version,
            patched,
            invalidated,
        }
    }

    /// Moves this graph's cache entries from the old version to the new:
    /// LinBP entries are patched via the edge-delta seed + batched
    /// incremental update; RWR entries are dropped. Returns
    /// `(patched, invalidated)`.
    fn patch_cache(
        &self,
        graph_id: u64,
        old: &GraphEntry,
        new_entry: &GraphEntry,
        deltas: &[(usize, usize, f64)],
    ) -> (u64, u64) {
        let mut cache = self.shared.cache.lock().unwrap();
        let stale: Vec<CacheKey> = cache
            .entries
            .keys()
            .filter(|k| k.graph_id == graph_id && k.version == old.version)
            .cloned()
            .collect();
        let mut patched = 0u64;
        let mut invalidated = 0u64;

        // Under the StaleCache degradation policy, entries that cannot be
        // patched forward are *retained* at their old version (still
        // counted invalidated) — they are only reachable through the
        // stale-serving overload path, never a normal cache hit.
        let keep_stale = self.shared.config.degradation == DegradationPolicy::StaleCache;
        let cap = self.shared.config.cache_capacity;

        // Group patchable entries by identical solve parameters so each
        // group refreshes in ONE batched update pass.
        let mut groups: HashMap<Vec<u8>, Vec<(CacheKey, CacheEntry)>> = HashMap::new();
        for key in stale {
            let entry = cache.entries.remove(&key).unwrap();
            cache.order.retain(|k| *k != key);
            match &entry.patch {
                PatchInfo::None => {
                    invalidated += 1;
                    if keep_stale {
                        cache.insert(key, entry, cap);
                    }
                }
                PatchInfo::LinBp { .. } => {
                    // The params live in the key tail (method + params
                    // bytes precede the seed bytes) — but grouping by the
                    // whole tail would make every entry its own group, so
                    // group by the stored patch parameters' wire bytes.
                    let group_bytes = match &entry.patch {
                        PatchInfo::LinBp { echo, h, opts } => linbp_params_bytes(*echo, h, opts),
                        PatchInfo::None => unreachable!(),
                    };
                    groups.entry(group_bytes).or_default().push((key, entry));
                }
            }
        }

        for (_, group) in groups {
            let (echo, h, opts) = match &group[0].1.patch {
                PatchInfo::LinBp { echo, h, opts } => (*echo, h.clone(), *opts),
                PatchInfo::None => unreachable!(),
            };
            // One synthetic seed per cached result (each depends on that
            // entry's beliefs), solved together in one stacked pass.
            let mut prev: Vec<BeliefMatrix> = Vec::with_capacity(group.len());
            let mut seeds: Vec<ExplicitBeliefs> = Vec::with_capacity(group.len());
            let mut ok = true;
            for (_, entry) in &group {
                let beliefs = BeliefMatrix::from_mat(entry.beliefs.clone());
                match linbp_edge_delta_seed(&old.csr, deltas, &beliefs, &h, echo) {
                    Ok(seed) => {
                        seeds.push(seed);
                        prev.push(beliefs);
                    }
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                invalidated += group.len() as u64;
                if keep_stale {
                    for (key, entry) in group {
                        cache.insert(key, entry, cap);
                    }
                }
                continue;
            }
            let prev_refs: Vec<&BeliefMatrix> = prev.iter().collect();
            let runs = match linbp_update_batch_on(
                new_entry.operator(),
                &prev_refs,
                &seeds,
                &h,
                &opts,
                echo,
            ) {
                Ok(r) => r,
                Err(_) => {
                    invalidated += group.len() as u64;
                    if keep_stale {
                        for (key, entry) in group {
                            cache.insert(key, entry, cap);
                        }
                    }
                    continue;
                }
            };
            for ((key, entry), run) in group.into_iter().zip(runs) {
                if run.diverged {
                    invalidated += 1;
                    if keep_stale {
                        cache.insert(key, entry, cap);
                    }
                    continue;
                }
                let new_key = CacheKey {
                    version: new_entry.version,
                    ..key
                };
                let refreshed = CacheEntry {
                    beliefs: run.beliefs.into_mat(),
                    converged: run.converged,
                    diverged: run.diverged,
                    iterations: run.iterations as u64,
                    final_delta: run.final_delta,
                    patched: true,
                    ..entry
                };
                patched += 1;
                cache.insert(new_key, refreshed, cap);
            }
        }
        (patched, invalidated)
    }

    fn lookup_graph(&self, graph_id: u64) -> Option<Arc<GraphEntry>> {
        self.shared.registry.read().unwrap().get(&graph_id).cloned()
    }

    /// Validates a LinBP solve, then serves it from cache or parks it for
    /// coalescing.
    fn admit_linbp(
        &self,
        graph_id: u64,
        params: LinBpParams,
        seeds: Vec<WireSeed>,
        deadline: Option<Instant>,
        responder: Responder,
    ) {
        let graph = match self.lookup_graph(graph_id) {
            Some(g) => g,
            None => return responder(unknown_graph(graph_id)),
        };
        let (h, mut opts) = match validate_linbp_params(&params, &self.shared.config.parallelism) {
            Ok(v) => v,
            Err(msg) => return responder(bad_request(msg)),
        };
        let explicit = match build_seeds(graph.csr.n_rows(), params.k as usize, &seeds) {
            Ok(e) => e,
            Err(msg) => return responder(bad_request(msg)),
        };
        // ClampIter degradation: past the high-water mark, shrink the
        // iteration budget. The clamped opts feed the params bytes below,
        // so clamped queries coalesce and cache among themselves.
        if let DegradationPolicy::ClampIter(cap) = self.shared.config.degradation {
            if opts.max_iter > cap.max(1) && self.backlog() >= self.shared.config.max_pending / 2 {
                opts.max_iter = cap.max(1);
                self.shared.counters.lock().unwrap().degraded_clamped += 1;
            }
        }
        let kind = JobKind::LinBp {
            echo: params.echo,
            h,
            opts,
        };
        let params_bytes = linbp_params_bytes(params.echo, kind_h(&kind), kind_opts(&kind));
        self.admit(
            graph,
            graph_id,
            kind,
            explicit,
            params_bytes,
            &seeds,
            deadline,
            responder,
        );
    }

    /// Total queries parked across all admission queues.
    fn backlog(&self) -> usize {
        let admission = self.shared.admission.lock().unwrap();
        admission.groups.values().map(|g| g.jobs.len()).sum()
    }

    /// Validates an RWR solve, then serves it from cache or parks it.
    fn admit_rwr(
        &self,
        graph_id: u64,
        params: RwrParams,
        seeds: Vec<WireSeed>,
        deadline: Option<Instant>,
        responder: Responder,
    ) {
        let graph = match self.lookup_graph(graph_id) {
            Some(g) => g,
            None => return responder(unknown_graph(graph_id)),
        };
        let opts = match validate_rwr_params(&params, &self.shared.config.parallelism) {
            Ok(o) => o,
            Err(msg) => return responder(bad_request(msg)),
        };
        let explicit = match build_seeds(graph.csr.n_rows(), params.k as usize, &seeds) {
            Ok(e) => e,
            Err(msg) => return responder(bad_request(msg)),
        };
        // RWR needs every class seeded (the library rejects a whole batch
        // for one empty class — catch it per query at admission so one
        // hostile query cannot poison its co-batched neighbors).
        for c in 0..params.k as usize {
            let seeded = (0..explicit.n()).any(|v| explicit.row(v)[c] > 0.0);
            if !seeded {
                return responder(bad_request(format!("class {c} has no labeled node")));
            }
        }
        let params_bytes = rwr_params_bytes(&params);
        let kind = JobKind::Rwr { opts };
        self.admit(
            graph,
            graph_id,
            kind,
            explicit,
            params_bytes,
            &seeds,
            deadline,
            responder,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn admit(
        &self,
        graph: Arc<GraphEntry>,
        graph_id: u64,
        kind: JobKind,
        seeds: ExplicitBeliefs,
        params_bytes: Vec<u8>,
        wire_seeds: &[WireSeed],
        deadline: Option<Instant>,
        responder: Responder,
    ) {
        let mut tail = params_bytes.clone();
        tail.extend_from_slice(&seeds_bytes(wire_seeds));
        let cache_key = CacheKey {
            graph_id,
            version: graph.version,
            tail,
        };

        // Deadline check at admission: a budget that is already gone
        // gets its typed answer immediately.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return responder(deadline_exceeded(self.shared.config.retry_after_hint));
        }

        // Cache first.
        if let Some(payload) = cache_hit(&self.shared, &cache_key) {
            return responder(Response::Beliefs(payload));
        }

        let group_key = GroupKey {
            graph_id,
            version: graph.version,
            params: params_bytes,
        };
        let job = SolveJob {
            graph,
            kind,
            seeds,
            cache_key,
            responder,
            deadline,
        };
        let mut admission = self.shared.admission.lock().unwrap();
        let group = admission
            .groups
            .entry(group_key)
            .or_insert_with(|| PendingGroup {
                jobs: Vec::new(),
                deadline: Instant::now() + self.shared.config.coalesce_window,
            });
        if group.jobs.len() >= self.shared.config.max_pending {
            drop(admission);
            // StaleCache degradation: a matching answer for an older graph
            // version beats a rejection.
            if self.shared.config.degradation == DegradationPolicy::StaleCache {
                if let Some(payload) = self.stale_lookup(&job.cache_key) {
                    let mut c = self.shared.counters.lock().unwrap();
                    c.queries_served += 1;
                    c.degraded_stale += 1;
                    drop(c);
                    return (job.responder)(Response::Beliefs(payload));
                }
            }
            let hint = self.shared.config.retry_after_hint;
            return (job.responder)(Response::Error {
                code: ErrorCode::Overloaded,
                message: "admission queue full, retry later".into(),
                retry_after_ms: Some(hint.as_millis() as u64),
            });
        }
        group.jobs.push(job);
        drop(admission);
        self.shared.wakeup.notify_all();
    }

    /// Newest cache entry answering the same query (params + seeds)
    /// against any **older** version of the same graph.
    fn stale_lookup(&self, key: &CacheKey) -> Option<BeliefsPayload> {
        let cache = self.shared.cache.lock().unwrap();
        cache
            .entries
            .iter()
            .filter(|(k, _)| {
                k.graph_id == key.graph_id && k.version < key.version && k.tail == key.tail
            })
            .max_by_key(|(k, _)| k.version)
            .map(|(k, entry)| entry.payload(ServedVia::Stale { version: k.version }))
    }
}

impl Drop for ServerCore {
    fn drop(&mut self) {
        self.stop();
        if let Some(handle) = self.solver.take() {
            let _ = handle.join();
        }
    }
}

fn kind_h(kind: &JobKind) -> &Mat {
    match kind {
        JobKind::LinBp { h, .. } => h,
        JobKind::Rwr { .. } => unreachable!(),
    }
}

fn kind_opts(kind: &JobKind) -> &LinBpOptions {
    match kind {
        JobKind::LinBp { opts, .. } => opts,
        JobKind::Rwr { .. } => unreachable!(),
    }
}

fn bad_request(message: String) -> Response {
    Response::Error {
        code: ErrorCode::BadRequest,
        message,
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

/// Canonical byte material for a LinBP admission/cache key: method tag,
/// echo, and the exact bit patterns of every solve parameter.
fn linbp_params_bytes(echo: bool, h: &Mat, opts: &LinBpOptions) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u8(if echo { 1 } else { 2 });
    w.u32(h.rows() as u32);
    w.f64s(h.as_slice());
    w.u64(opts.max_iter as u64);
    w.f64(opts.tol);
    w.u8(match opts.norm {
        ToleranceNorm::MaxAbs => 0,
        ToleranceNorm::L2 => 1,
    });
    w.f64(opts.damping);
    w.f64(opts.divergence_guard);
    w.into_bytes()
}

fn rwr_params_bytes(params: &RwrParams) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u8(3);
    w.u32(params.k);
    w.f64(params.restart);
    w.u64(params.max_iter);
    w.f64(params.tol);
    w.u8(match params.norm {
        WireNorm::MaxAbs => 0,
        WireNorm::L2 => 1,
    });
    w.into_bytes()
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

/// The cached answer for `key`, counted as a served cache hit.
fn cache_hit(shared: &Shared, key: &CacheKey) -> Option<BeliefsPayload> {
    let payload = {
        let cache = shared.cache.lock().unwrap();
        let entry = cache.entries.get(key)?;
        entry.payload(if entry.patched {
            ServedVia::CachePatched
        } else {
            ServedVia::Cache
        })
    };
    let mut c = shared.counters.lock().unwrap();
    c.queries_served += 1;
    c.cache_hits += 1;
    Some(payload)
}

// ---------------------------------------------------------------------------
// Solver thread
// ---------------------------------------------------------------------------

/// Picks the next drainable admission queue: any queue at/over max batch
/// drains immediately; otherwise the one whose window expired longest ago;
/// otherwise none (returning the earliest pending deadline to sleep until).
/// With `force` set (shutdown drain), every queue counts as expired.
fn next_batch(
    admission: &mut Admission,
    config: &ServerConfig,
    force: bool,
) -> Result<PendingGroup, Option<Instant>> {
    let now = Instant::now();
    let mut best: Option<(&GroupKey, Instant)> = None;
    let mut earliest: Option<Instant> = None;
    for (key, group) in &admission.groups {
        if group.jobs.len() >= config.max_batch {
            let key = key.clone();
            return Ok(take_batch(admission, &key, config));
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
            Ok(take_batch(admission, &key, config))
        }
        None => Err(earliest),
    }
}

/// Removes up to `max_batch` jobs from a queue; a non-empty remainder
/// re-arms with an immediate deadline so it drains next.
fn take_batch(admission: &mut Admission, key: &GroupKey, config: &ServerConfig) -> PendingGroup {
    let mut group = admission.groups.remove(key).expect("group exists");
    if group.jobs.len() > config.max_batch {
        let rest = group.jobs.split_off(config.max_batch);
        admission.groups.insert(
            key.clone(),
            PendingGroup {
                jobs: rest,
                deadline: Instant::now(),
            },
        );
    }
    group
}

fn solver_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut admission = shared.admission.lock().unwrap();
            loop {
                let stopping = shared.stopping.load(Ordering::SeqCst);
                match next_batch(&mut admission, &shared.config, stopping) {
                    Ok(group) => break Some(group),
                    Err(sleep_until) => {
                        if stopping && admission.groups.is_empty() {
                            break None;
                        }
                        match sleep_until {
                            Some(deadline) => {
                                let now = Instant::now();
                                let wait = deadline.saturating_duration_since(now);
                                let (guard, _) = shared
                                    .wakeup
                                    .wait_timeout(admission, wait.max(Duration::from_micros(50)))
                                    .unwrap();
                                admission = guard;
                            }
                            None => {
                                admission = shared.wakeup.wait(admission).unwrap();
                            }
                        }
                    }
                }
            }
        };
        let Some(batch) = batch else { return };
        solve_batch(shared, batch.jobs);
    }
}

/// Runs one drained admission queue as a single stacked solve and fans the
/// per-query results back out to their responders and into the cache.
///
/// Two fault boundaries live here. **Deadlines:** jobs whose budget
/// expired while parked are answered `DeadlineExceeded` up front and do
/// not join the stacked solve (dropping an expired query never perturbs
/// its batch-mates' answers — per-query convergence masks keep each
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
        .filter_map(|job| match cache_hit(shared, &job.cache_key) {
            Some(payload) => {
                (job.responder)(Response::Beliefs(payload));
                None
            }
            None => Some(job),
        })
        .collect();
    if jobs.is_empty() {
        return;
    }
    let q = jobs.len();
    let graph = Arc::clone(&jobs[0].graph);
    let queries: Vec<ExplicitBeliefs> = jobs.iter().map(|j| j.seeds.clone()).collect();

    // (beliefs, converged, diverged, iterations, final_delta,
    // frontier_rows_active, frontier_rows_skipped) per query.
    type Solved = (Mat, bool, bool, u64, f64, u64, u64);
    let panic_on_graph = shared.config.panic_on_graph;
    let batch_graph_id = jobs[0].cache_key.graph_id;
    let kind = &jobs[0].kind;
    let solved: Result<Result<Vec<Solved>, String>, _> = catch_unwind(AssertUnwindSafe(|| {
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
                                r.beliefs.into_mat(),
                                r.converged,
                                r.diverged,
                                r.iterations as u64,
                                r.final_delta,
                                r.rows_active,
                                r.rows_skipped,
                            )
                        })
                        .collect()
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
                            (r.beliefs.into_mat(), conv, false, iters, f64::NAN, 0, 0)
                        })
                        .collect()
                })
                .map_err(|e: RwrError| e.to_string()),
        }
    }));

    let solved = match solved {
        Ok(inner) => inner,
        Err(_) => {
            // The solve panicked. Answer every query in the batch with a
            // typed Internal error; nothing else is poisoned — the next
            // batch (this graph included) solves normally.
            shared.counters.lock().unwrap().panics_caught += 1;
            for job in jobs {
                (job.responder)(Response::Error {
                    code: ErrorCode::Internal,
                    message: "solver panicked; query not answered".into(),
                    retry_after_ms: None,
                });
            }
            return;
        }
    };

    let results = match solved {
        Ok(r) => r,
        Err(message) => {
            // Validation should have caught everything recoverable; what
            // remains is reported to every query in the stack.
            for job in jobs {
                (job.responder)(Response::Error {
                    code: ErrorCode::BadRequest,
                    message: message.clone(),
                    retry_after_ms: None,
                });
            }
            return;
        }
    };

    // SpMM accounting: the stack costs max(iterations) sweeps; solved one
    // by one the same queries would have cost Σ iterations.
    let passes = results.iter().map(|r| r.3).max().unwrap_or(0);
    let sequential: u64 = results.iter().map(|r| r.3).sum();
    // Each per-query result counts that query's own (row, query) pairs,
    // so the batch total is the sum.
    let frontier_active: u64 = results.iter().map(|r| r.5).sum();
    let frontier_skipped: u64 = results.iter().map(|r| r.6).sum();
    {
        let mut c = shared.counters.lock().unwrap();
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
    }

    let served = if q == 1 {
        ServedVia::Solo
    } else {
        ServedVia::Coalesced { batch: q as u32 }
    };
    for (job, (beliefs, converged, diverged, iterations, final_delta, _, _)) in
        jobs.into_iter().zip(results)
    {
        let patch = match &job.kind {
            JobKind::LinBp { echo, h, opts } => PatchInfo::LinBp {
                echo: *echo,
                h: h.clone(),
                opts: *opts,
            },
            JobKind::Rwr { .. } => PatchInfo::None,
        };
        let entry = CacheEntry {
            k: beliefs.cols() as u32,
            beliefs,
            converged,
            diverged,
            iterations,
            final_delta,
            patched: false,
            patch,
        };
        let payload = entry.payload(served);
        {
            let mut cache = shared.cache.lock().unwrap();
            let cap = shared.config.cache_capacity;
            cache.insert(job.cache_key, entry, cap);
        }
        (job.responder)(Response::Beliefs(payload));
    }
}
