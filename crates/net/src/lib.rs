#![warn(missing_docs)]

//! # lsbp-net — the propagation-as-a-service wire protocol
//!
//! A small, dependency-free binary protocol for serving LinBP/RWR queries
//! over TCP (`std::net` only — no async runtime). Every message is one
//! **frame**: a little-endian `u32` payload length followed by the
//! payload, which is a tag byte plus the fields of one [`Request`] or
//! [`Response`] variant. All integers are little-endian; every `f64`
//! travels as its IEEE-754 **bit pattern** (`to_bits`/`from_bits`), so a
//! belief matrix decoded on the client is bitwise identical to the one
//! the server computed — the protocol never perturbs a ulp.
//!
//! Robustness rules (property-tested in `tests/protocol_roundtrip.rs`):
//!
//! * a frame whose length prefix exceeds [`MAX_FRAME_LEN`] is rejected
//!   before any allocation ([`WireError::OversizedFrame`]),
//! * a payload that ends mid-field decodes to [`WireError::Truncated`],
//!   never a panic or a partial value,
//! * collection length prefixes are checked against the bytes actually
//!   remaining, so a hostile length cannot force a huge allocation,
//! * bytes left over after a complete message are an error
//!   ([`WireError::TrailingBytes`]) — messages are exact, not prefixes.

use std::fmt;
use std::io::{self, Read, Write};

/// Protocol revision carried in [`Response::Pong`].
///
/// Version history:
/// * **1** — initial serving protocol (PR 6): bare `Request`/`Response`
///   payloads, one frame per message.
/// * **2** — fault-tolerance revision (PR 7): frames carry
///   [`RequestEnvelope`]/[`ResponseEnvelope`] (a `request_id` echoed in
///   every reply plus an optional `deadline_ms` budget),
///   [`Response::Error`] gains a `retry_after_ms` hint,
///   [`ErrorCode::DeadlineExceeded`], [`ServedVia::Stale`], and the
///   [`Request::Health`]/[`Response::Health`] probe.
/// * **3** — out-of-core revision (PR 8): [`ServerStats`] and
///   [`HealthInfo`] grow the buffer-pool pager counters
///   (`pager_hits`/`pager_misses`/`pager_evictions`/`pager_prefetches`),
///   and [`HealthInfo`] reports whether the server spills registered
///   graphs to disk (`spill_enabled`).
/// * **4** — active-frontier revision: [`ServerStats`] and
///   [`HealthInfo`] grow the frontier row counters
///   (`frontier_rows_active`/`frontier_rows_skipped`) — additive
///   trailing fields, appended after the pager counters.
pub const PROTOCOL_VERSION: u16 = 4;

/// Hard cap on a frame payload (length prefix), checked before any
/// allocation. Large enough for a multi-million-edge graph registration,
/// small enough to bound a hostile client's damage.
pub const MAX_FRAME_LEN: usize = 256 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Decode/transport errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload (or the 4-byte frame header) ended before a field was
    /// complete.
    Truncated,
    /// The frame length prefix exceeds [`MAX_FRAME_LEN`].
    OversizedFrame(u64),
    /// A complete message decoded but bytes remain.
    TrailingBytes(usize),
    /// An enum tag byte (or code) outside the protocol.
    UnknownTag {
        /// Which enum the tag belonged to.
        kind: &'static str,
        /// The offending byte value.
        tag: u16,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Underlying socket error.
    Io(io::ErrorKind),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated mid-field"),
            WireError::OversizedFrame(len) => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::UnknownTag { kind, tag } => write!(f, "unknown {kind} tag {tag}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::Io(kind) => write!(f, "socket error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.kind())
        }
    }
}

// ---------------------------------------------------------------------------
// Byte-level reader/writer
// ---------------------------------------------------------------------------

/// Append-only payload builder.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes and returns the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian bit pattern (exact — NaN
    /// payloads and signed zeros survive the trip).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }
}

/// Cursor over a payload with truncation-checked reads.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte (any non-zero is `true`).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a collection length prefix and checks it against the bytes
    /// remaining (`min_elem_bytes` per element), so a hostile prefix can
    /// neither over-allocate nor pass a truncated body.
    pub fn len_prefix(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let len = self.u64()?;
        let need = (len as u128) * (min_elem_bytes.max(1) as u128);
        if need > self.remaining() as u128 {
            return Err(WireError::Truncated);
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        let len = self.len_prefix(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let len = self.len_prefix(8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Errors unless every byte was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            Err(WireError::TrailingBytes(self.remaining()))
        } else {
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Shared message pieces
// ---------------------------------------------------------------------------

/// One weighted directed edge (or an additive weight *delta* in
/// [`Request::EdgeDelta`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireEdge {
    /// Source node id.
    pub src: u64,
    /// Target node id.
    pub dst: u64,
    /// Edge weight (or weight delta).
    pub weight: f64,
}

/// One labeled node of a query seed-set: a residual belief row (sums to
/// zero) for `node`.
#[derive(Clone, Debug, PartialEq)]
pub struct WireSeed {
    /// Node id.
    pub node: u64,
    /// Residual belief vector, length `k`.
    pub residual: Vec<f64>,
}

/// Convergence norm selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireNorm {
    /// Largest absolute entry change.
    MaxAbs,
    /// Euclidean norm of the change.
    L2,
}

impl WireNorm {
    fn encode(self, w: &mut WireWriter) {
        w.u8(match self {
            WireNorm::MaxAbs => 0,
            WireNorm::L2 => 1,
        });
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(WireNorm::MaxAbs),
            1 => Ok(WireNorm::L2),
            t => Err(WireError::UnknownTag {
                kind: "WireNorm",
                tag: t as u16,
            }),
        }
    }
}

/// Solve knobs for a LinBP/LinBP\* query. Two queries are **coalescible**
/// (stackable into one batched solve) iff their params are bitwise
/// identical and they target the same graph version.
#[derive(Clone, Debug, PartialEq)]
pub struct LinBpParams {
    /// `true` = LinBP (Eq. 6, echo cancellation), `false` = LinBP\* (Eq. 7).
    pub echo: bool,
    /// Number of classes.
    pub k: u32,
    /// Scaled residual coupling matrix `Ĥ`, row-major `k × k`.
    pub h_residual: Vec<f64>,
    /// Maximum update rounds.
    pub max_iter: u64,
    /// Convergence threshold.
    pub tol: f64,
    /// Norm the threshold is measured in.
    pub norm: WireNorm,
    /// Update damping `λ ∈ [0, 1)`.
    pub damping: f64,
    /// Belief magnitude beyond which the run is declared divergent.
    pub divergence_guard: f64,
}

impl LinBpParams {
    fn encode(&self, w: &mut WireWriter) {
        w.bool(self.echo);
        w.u32(self.k);
        w.f64s(&self.h_residual);
        w.u64(self.max_iter);
        w.f64(self.tol);
        self.norm.encode(w);
        w.f64(self.damping);
        w.f64(self.divergence_guard);
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(Self {
            echo: r.bool()?,
            k: r.u32()?,
            h_residual: r.f64s()?,
            max_iter: r.u64()?,
            tol: r.f64()?,
            norm: WireNorm::decode(r)?,
            damping: r.f64()?,
            divergence_guard: r.f64()?,
        })
    }
}

/// Solve knobs for a random-walk-with-restart query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RwrParams {
    /// Number of classes.
    pub k: u32,
    /// Restart probability `α ∈ (0, 1]`.
    pub restart: f64,
    /// Maximum power iterations.
    pub max_iter: u64,
    /// Convergence threshold.
    pub tol: f64,
    /// Norm the threshold is measured in.
    pub norm: WireNorm,
}

impl RwrParams {
    fn encode(&self, w: &mut WireWriter) {
        w.u32(self.k);
        w.f64(self.restart);
        w.u64(self.max_iter);
        w.f64(self.tol);
        self.norm.encode(w);
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(Self {
            k: r.u32()?,
            restart: r.f64()?,
            max_iter: r.u64()?,
            tol: r.f64()?,
            norm: WireNorm::decode(r)?,
        })
    }
}

fn encode_edges(w: &mut WireWriter, edges: &[WireEdge]) {
    w.u64(edges.len() as u64);
    for e in edges {
        w.u64(e.src);
        w.u64(e.dst);
        w.f64(e.weight);
    }
}

fn decode_edges(r: &mut WireReader) -> Result<Vec<WireEdge>, WireError> {
    let len = r.len_prefix(24)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(WireEdge {
            src: r.u64()?,
            dst: r.u64()?,
            weight: r.f64()?,
        });
    }
    Ok(out)
}

fn encode_seeds(w: &mut WireWriter, seeds: &[WireSeed]) {
    w.u64(seeds.len() as u64);
    for s in seeds {
        w.u64(s.node);
        w.f64s(&s.residual);
    }
}

fn decode_seeds(r: &mut WireReader) -> Result<Vec<WireSeed>, WireError> {
    let len = r.len_prefix(16)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(WireSeed {
            node: r.u64()?,
            residual: r.f64s()?,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Client → server messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness / protocol-version probe.
    Ping,
    /// Registers a graph under `graph_id` (rejected if the id is taken).
    /// The CSR (and, when the server is configured with shards, the
    /// `ShardedCsr` layout) is built **once** here; every subsequent solve
    /// reuses it.
    RegisterGraph {
        /// Caller-chosen graph id.
        graph_id: u64,
        /// Number of nodes.
        n_nodes: u64,
        /// When `true` every edge is inserted in both directions.
        symmetric: bool,
        /// Weighted edges.
        edges: Vec<WireEdge>,
    },
    /// A LinBP/LinBP\* labeling query over a registered graph.
    SolveLinBp {
        /// Target graph.
        graph_id: u64,
        /// Solve knobs (coalescing key together with `graph_id`).
        params: LinBpParams,
        /// The query's explicit beliefs (sparse residual rows).
        seeds: Vec<WireSeed>,
    },
    /// A random-walk-with-restart query over a registered graph.
    SolveRwr {
        /// Target graph.
        graph_id: u64,
        /// Solve knobs.
        params: RwrParams,
        /// Per-class seed nodes (positive residual entries mark class
        /// membership).
        seeds: Vec<WireSeed>,
    },
    /// Applies additive edge-weight deltas to a registered graph, bumping
    /// its version. Cached LinBP beliefs are **patched** (incremental
    /// maintenance by linearity) instead of invalidated; cached RWR
    /// scores are invalidated.
    EdgeDelta {
        /// Target graph.
        graph_id: u64,
        /// Apply each delta in both directions.
        symmetric: bool,
        /// Additive weight deltas (`new_w = old_w + weight`; entries
        /// reaching exactly 0 are pruned).
        deltas: Vec<WireEdge>,
    },
    /// Server counters (coalescing, cache, SpMM passes).
    Stats,
    /// Asks the server to exit after flushing responses.
    Shutdown,
    /// Lightweight liveness probe answered inline (never queued behind
    /// solves): queue depth, cache size, uptime.
    Health,
}

impl Request {
    /// Serializes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Request::Ping => w.u8(0),
            Request::RegisterGraph {
                graph_id,
                n_nodes,
                symmetric,
                edges,
            } => {
                w.u8(1);
                w.u64(*graph_id);
                w.u64(*n_nodes);
                w.bool(*symmetric);
                encode_edges(&mut w, edges);
            }
            Request::SolveLinBp {
                graph_id,
                params,
                seeds,
            } => {
                w.u8(2);
                w.u64(*graph_id);
                params.encode(&mut w);
                encode_seeds(&mut w, seeds);
            }
            Request::SolveRwr {
                graph_id,
                params,
                seeds,
            } => {
                w.u8(3);
                w.u64(*graph_id);
                params.encode(&mut w);
                encode_seeds(&mut w, seeds);
            }
            Request::EdgeDelta {
                graph_id,
                symmetric,
                deltas,
            } => {
                w.u8(4);
                w.u64(*graph_id);
                w.bool(*symmetric);
                encode_edges(&mut w, deltas);
            }
            Request::Stats => w.u8(5),
            Request::Shutdown => w.u8(6),
            Request::Health => w.u8(7),
        }
        w.into_bytes()
    }

    /// Deserializes a frame payload (must consume every byte).
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let req = Self::decode_body(&mut r)?;
        r.finish()?;
        Ok(req)
    }

    fn decode_body(r: &mut WireReader) -> Result<Self, WireError> {
        let req = match r.u8()? {
            0 => Request::Ping,
            1 => Request::RegisterGraph {
                graph_id: r.u64()?,
                n_nodes: r.u64()?,
                symmetric: r.bool()?,
                edges: decode_edges(r)?,
            },
            2 => Request::SolveLinBp {
                graph_id: r.u64()?,
                params: LinBpParams::decode(r)?,
                seeds: decode_seeds(r)?,
            },
            3 => Request::SolveRwr {
                graph_id: r.u64()?,
                params: RwrParams::decode(r)?,
                seeds: decode_seeds(r)?,
            },
            4 => Request::EdgeDelta {
                graph_id: r.u64()?,
                symmetric: r.bool()?,
                deltas: decode_edges(r)?,
            },
            5 => Request::Stats,
            6 => Request::Shutdown,
            7 => Request::Health,
            t => {
                return Err(WireError::UnknownTag {
                    kind: "Request",
                    tag: t as u16,
                })
            }
        };
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// How a belief response was produced — surfaced so clients (and tests)
/// can observe coalescing and caching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServedVia {
    /// Solved alone (batch of one).
    Solo,
    /// Answered by one batched solve together with `batch - 1` other
    /// requests.
    Coalesced {
        /// The number of requests that one drained batch answered, twins
        /// included: identical requests parked together share one
        /// stacked column, so the solve may stack fewer than `batch`.
        batch: u32,
    },
    /// Returned from the belief cache unchanged.
    Cache,
    /// Returned from the belief cache after an edge-delta patch.
    CachePatched,
    /// Graceful degradation: served from a cache entry computed against
    /// an **older graph version** because the server was overloaded.
    /// The beliefs are still bitwise equal to a library solve — of the
    /// stale version, not the current one.
    Stale {
        /// Graph version the cached answer was computed against.
        version: u64,
    },
}

impl ServedVia {
    fn encode(self, w: &mut WireWriter) {
        match self {
            ServedVia::Solo => w.u8(0),
            ServedVia::Coalesced { batch } => {
                w.u8(1);
                w.u32(batch);
            }
            ServedVia::Cache => w.u8(2),
            ServedVia::CachePatched => w.u8(3),
            ServedVia::Stale { version } => {
                w.u8(4);
                w.u64(version);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(ServedVia::Solo),
            1 => Ok(ServedVia::Coalesced { batch: r.u32()? }),
            2 => Ok(ServedVia::Cache),
            3 => Ok(ServedVia::CachePatched),
            4 => Ok(ServedVia::Stale { version: r.u64()? }),
            t => Err(WireError::UnknownTag {
                kind: "ServedVia",
                tag: t as u16,
            }),
        }
    }
}

/// Machine-readable error category.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// No graph registered under the requested id.
    UnknownGraph,
    /// A graph is already registered under the requested id.
    GraphAlreadyRegistered,
    /// The request failed validation (ids out of range, non-finite or
    /// uncentered seeds, bad params, …) — the message says exactly why.
    BadRequest,
    /// Admission queue full: the client should back off and retry.
    Overloaded,
    /// Unexpected server-side failure.
    Internal,
    /// The request's `deadline_ms` budget expired before (or while) the
    /// query was waiting for a solve slot. Retryable with a fresh budget.
    DeadlineExceeded,
}

impl ErrorCode {
    fn encode(self, w: &mut WireWriter) {
        w.u16(match self {
            ErrorCode::UnknownGraph => 0,
            ErrorCode::GraphAlreadyRegistered => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::Overloaded => 3,
            ErrorCode::Internal => 4,
            ErrorCode::DeadlineExceeded => 5,
        });
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        match r.u16()? {
            0 => Ok(ErrorCode::UnknownGraph),
            1 => Ok(ErrorCode::GraphAlreadyRegistered),
            2 => Ok(ErrorCode::BadRequest),
            3 => Ok(ErrorCode::Overloaded),
            4 => Ok(ErrorCode::Internal),
            5 => Ok(ErrorCode::DeadlineExceeded),
            t => Err(WireError::UnknownTag {
                kind: "ErrorCode",
                tag: t,
            }),
        }
    }
}

/// A solved (or cached) belief matrix plus run metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct BeliefsPayload {
    /// Number of nodes.
    pub n: u64,
    /// Number of classes.
    pub k: u32,
    /// Residual beliefs, row-major `n × k`, bit-exact.
    pub beliefs: Vec<f64>,
    /// Whether the run met its tolerance.
    pub converged: bool,
    /// Whether the divergence guard tripped.
    pub diverged: bool,
    /// Update rounds executed.
    pub iterations: u64,
    /// Last round's belief change.
    pub final_delta: f64,
    /// How the answer was produced.
    pub served: ServedVia,
}

/// Server counters, all monotone since startup.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Registered graphs.
    pub graphs: u64,
    /// Live belief-cache entries.
    pub cached_entries: u64,
    /// Belief queries answered (any path).
    pub queries_served: u64,
    /// Queries answered straight from the cache.
    pub cache_hits: u64,
    /// Batched solves answering ≥ 2 requests.
    pub coalesced_batches: u64,
    /// Requests answered through such a batch.
    pub coalesced_queries: u64,
    /// Largest batch so far, in requests answered (the
    /// [`ServedVia::Coalesced`] `batch`).
    pub largest_batch: u64,
    /// SpMM sweeps actually executed by batched solves.
    pub spmm_passes: u64,
    /// SpMM sweeps the same stacked columns would have cost solved one
    /// by one (Σ per-column iterations) — `spmm_passes` vs. this is the
    /// amortization the coalescer buys.
    pub spmm_passes_sequential_equiv: u64,
    /// Cache entries patched forward through edge deltas.
    pub patched_entries: u64,
    /// Cache entries invalidated by edge deltas (RWR scores).
    pub invalidated_entries: u64,
    /// Queries rejected because the admission queue was full.
    pub rejected_overloaded: u64,
    /// Queries answered `DeadlineExceeded` (expired at admission or while
    /// parked in a coalescing group).
    pub rejected_deadline: u64,
    /// Requests rejected by validation (`BadRequest`, `UnknownGraph`,
    /// `GraphAlreadyRegistered`).
    pub rejected_invalid: u64,
    /// Solver panics caught by the isolation boundary (each answered its
    /// batch with `Internal` and left the event loop running).
    pub panics_caught: u64,
    /// Queries served stale from an older graph version under the
    /// `StaleCache` degradation policy.
    pub degraded_stale: u64,
    /// Queries admitted with a clamped `max_iter` under the `ClampIter`
    /// degradation policy.
    pub degraded_clamped: u64,
    /// Buffer-pool accesses served by an already-resident shard block
    /// (zero when the server runs fully in memory).
    pub pager_hits: u64,
    /// Buffer-pool demand loads that read a shard block from disk.
    pub pager_misses: u64,
    /// Shard blocks evicted to stay under the memory budget.
    pub pager_evictions: u64,
    /// Shard blocks loaded ahead of the kernels by the prefetch thread.
    pub pager_prefetches: u64,
    /// LinBP rows recomputed by served solves (active-frontier
    /// execution), counted per stacked column: a batch adds each column's
    /// own (row, query) pairs, the same count its solo solve would add,
    /// and identical requests solved as one column count once.
    pub frontier_rows_active: u64,
    /// LinBP rows skipped by served solves because their inputs were
    /// bitwise unchanged since the previous round, counted per query
    /// like [`ServerStats::frontier_rows_active`].
    pub frontier_rows_skipped: u64,
}

impl ServerStats {
    fn encode(&self, w: &mut WireWriter) {
        for v in [
            self.graphs,
            self.cached_entries,
            self.queries_served,
            self.cache_hits,
            self.coalesced_batches,
            self.coalesced_queries,
            self.largest_batch,
            self.spmm_passes,
            self.spmm_passes_sequential_equiv,
            self.patched_entries,
            self.invalidated_entries,
            self.rejected_overloaded,
            self.rejected_deadline,
            self.rejected_invalid,
            self.panics_caught,
            self.degraded_stale,
            self.degraded_clamped,
            self.pager_hits,
            self.pager_misses,
            self.pager_evictions,
            self.pager_prefetches,
            self.frontier_rows_active,
            self.frontier_rows_skipped,
        ] {
            w.u64(v);
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(Self {
            graphs: r.u64()?,
            cached_entries: r.u64()?,
            queries_served: r.u64()?,
            cache_hits: r.u64()?,
            coalesced_batches: r.u64()?,
            coalesced_queries: r.u64()?,
            largest_batch: r.u64()?,
            spmm_passes: r.u64()?,
            spmm_passes_sequential_equiv: r.u64()?,
            patched_entries: r.u64()?,
            invalidated_entries: r.u64()?,
            rejected_overloaded: r.u64()?,
            rejected_deadline: r.u64()?,
            rejected_invalid: r.u64()?,
            panics_caught: r.u64()?,
            degraded_stale: r.u64()?,
            degraded_clamped: r.u64()?,
            pager_hits: r.u64()?,
            pager_misses: r.u64()?,
            pager_evictions: r.u64()?,
            pager_prefetches: r.u64()?,
            frontier_rows_active: r.u64()?,
            frontier_rows_skipped: r.u64()?,
        })
    }
}

/// Reply payload of [`Request::Health`] — cheap liveness data a load
/// balancer or retry loop can poll without queueing behind solves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthInfo {
    /// The server's [`PROTOCOL_VERSION`].
    pub protocol_version: u16,
    /// Registered graphs.
    pub graphs: u64,
    /// Queries currently parked in coalescing groups.
    pub queue_depth: u64,
    /// Live belief-cache entries.
    pub cached_entries: u64,
    /// Milliseconds since the core started.
    pub uptime_ms: u64,
    /// Whether registered graphs spill to an on-disk shard store (the
    /// server was started with a spill directory).
    pub spill_enabled: bool,
    /// Buffer-pool hits since startup (see [`ServerStats::pager_hits`]).
    pub pager_hits: u64,
    /// Buffer-pool demand loads since startup.
    pub pager_misses: u64,
    /// Buffer-pool evictions since startup.
    pub pager_evictions: u64,
    /// Buffer-pool prefetch loads since startup.
    pub pager_prefetches: u64,
    /// LinBP rows recomputed by served solves since startup, summed
    /// per query over every batch (see
    /// [`ServerStats::frontier_rows_active`]).
    pub frontier_rows_active: u64,
    /// LinBP rows skipped by served solves since startup, summed per
    /// query (bitwise unchanged inputs; see
    /// [`ServerStats::frontier_rows_skipped`]).
    pub frontier_rows_skipped: u64,
}

impl HealthInfo {
    fn encode(&self, w: &mut WireWriter) {
        w.u16(self.protocol_version);
        w.u64(self.graphs);
        w.u64(self.queue_depth);
        w.u64(self.cached_entries);
        w.u64(self.uptime_ms);
        w.bool(self.spill_enabled);
        w.u64(self.pager_hits);
        w.u64(self.pager_misses);
        w.u64(self.pager_evictions);
        w.u64(self.pager_prefetches);
        w.u64(self.frontier_rows_active);
        w.u64(self.frontier_rows_skipped);
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(Self {
            protocol_version: r.u16()?,
            graphs: r.u64()?,
            queue_depth: r.u64()?,
            cached_entries: r.u64()?,
            uptime_ms: r.u64()?,
            spill_enabled: r.bool()?,
            pager_hits: r.u64()?,
            pager_misses: r.u64()?,
            pager_evictions: r.u64()?,
            pager_prefetches: r.u64()?,
            frontier_rows_active: r.u64()?,
            frontier_rows_skipped: r.u64()?,
        })
    }
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong {
        /// The server's [`PROTOCOL_VERSION`].
        protocol_version: u16,
    },
    /// Reply to [`Request::RegisterGraph`].
    Registered {
        /// Echoed graph id.
        graph_id: u64,
        /// Initial graph version (1).
        version: u64,
        /// Node count.
        n_nodes: u64,
        /// Stored (directed) entries in the built CSR.
        nnz: u64,
    },
    /// Reply to a solve request.
    Beliefs(BeliefsPayload),
    /// Reply to [`Request::EdgeDelta`].
    DeltaApplied {
        /// Echoed graph id.
        graph_id: u64,
        /// New graph version.
        version: u64,
        /// Cached belief entries patched forward to the new version.
        patched: u64,
        /// Cached entries invalidated instead.
        invalidated: u64,
    },
    /// Any failure.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// For `Overloaded`/`DeadlineExceeded`: how long the client
        /// should wait before retrying. `None` = no hint.
        retry_after_ms: Option<u64>,
    },
    /// Reply to [`Request::Stats`].
    Stats(ServerStats),
    /// Reply to [`Request::Shutdown`]; the connection closes after this.
    ShuttingDown,
    /// Reply to [`Request::Health`].
    Health(HealthInfo),
}

impl Response {
    /// Serializes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Response::Pong { protocol_version } => {
                w.u8(0);
                w.u16(*protocol_version);
            }
            Response::Registered {
                graph_id,
                version,
                n_nodes,
                nnz,
            } => {
                w.u8(1);
                w.u64(*graph_id);
                w.u64(*version);
                w.u64(*n_nodes);
                w.u64(*nnz);
            }
            Response::Beliefs(p) => {
                w.u8(2);
                w.u64(p.n);
                w.u32(p.k);
                w.f64s(&p.beliefs);
                w.bool(p.converged);
                w.bool(p.diverged);
                w.u64(p.iterations);
                w.f64(p.final_delta);
                p.served.encode(&mut w);
            }
            Response::DeltaApplied {
                graph_id,
                version,
                patched,
                invalidated,
            } => {
                w.u8(3);
                w.u64(*graph_id);
                w.u64(*version);
                w.u64(*patched);
                w.u64(*invalidated);
            }
            Response::Error {
                code,
                message,
                retry_after_ms,
            } => {
                w.u8(4);
                code.encode(&mut w);
                w.string(message);
                match retry_after_ms {
                    Some(ms) => {
                        w.bool(true);
                        w.u64(*ms);
                    }
                    None => w.bool(false),
                }
            }
            Response::Stats(s) => {
                w.u8(5);
                s.encode(&mut w);
            }
            Response::ShuttingDown => w.u8(6),
            Response::Health(h) => {
                w.u8(7);
                h.encode(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Deserializes a frame payload (must consume every byte).
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let resp = Self::decode_body(&mut r)?;
        r.finish()?;
        Ok(resp)
    }

    fn decode_body(r: &mut WireReader) -> Result<Self, WireError> {
        let resp = match r.u8()? {
            0 => Response::Pong {
                protocol_version: r.u16()?,
            },
            1 => Response::Registered {
                graph_id: r.u64()?,
                version: r.u64()?,
                n_nodes: r.u64()?,
                nnz: r.u64()?,
            },
            2 => Response::Beliefs(BeliefsPayload {
                n: r.u64()?,
                k: r.u32()?,
                beliefs: r.f64s()?,
                converged: r.bool()?,
                diverged: r.bool()?,
                iterations: r.u64()?,
                final_delta: r.f64()?,
                served: ServedVia::decode(r)?,
            }),
            3 => Response::DeltaApplied {
                graph_id: r.u64()?,
                version: r.u64()?,
                patched: r.u64()?,
                invalidated: r.u64()?,
            },
            4 => Response::Error {
                code: ErrorCode::decode(r)?,
                message: r.string()?,
                retry_after_ms: if r.bool()? { Some(r.u64()?) } else { None },
            },
            5 => Response::Stats(ServerStats::decode(r)?),
            6 => Response::ShuttingDown,
            7 => Response::Health(HealthInfo::decode(r)?),
            t => {
                return Err(WireError::UnknownTag {
                    kind: "Response",
                    tag: t as u16,
                })
            }
        };
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Envelopes (protocol v2)
// ---------------------------------------------------------------------------

/// A v2 request frame: client-chosen correlation id, optional deadline
/// budget, and the request body. The server echoes `request_id` in the
/// matching [`ResponseEnvelope`], so pipelined clients can match answers
/// to questions and retry loops can discard late replies from a previous
/// attempt.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestEnvelope {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub request_id: u64,
    /// Optional time budget in milliseconds, measured by the server from
    /// the moment the frame is decoded. A query whose budget expires
    /// before its solve starts is answered [`ErrorCode::DeadlineExceeded`]
    /// without burning a solve slot.
    pub deadline_ms: Option<u64>,
    /// The request body.
    pub request: Request,
}

impl RequestEnvelope {
    /// Wraps a request with no deadline.
    pub fn new(request_id: u64, request: Request) -> Self {
        Self {
            request_id,
            deadline_ms: None,
            request,
        }
    }

    /// Serializes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u64(self.request_id);
        match self.deadline_ms {
            Some(ms) => {
                w.bool(true);
                w.u64(ms);
            }
            None => w.bool(false),
        }
        w.buf.extend_from_slice(&self.request.encode());
        w.into_bytes()
    }

    /// Deserializes a frame payload (must consume every byte).
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let request_id = r.u64()?;
        let deadline_ms = if r.bool()? { Some(r.u64()?) } else { None };
        let request = Request::decode_body(&mut r)?;
        r.finish()?;
        Ok(Self {
            request_id,
            deadline_ms,
            request,
        })
    }
}

/// A v2 response frame: the echoed `request_id` plus the response body.
#[derive(Clone, Debug, PartialEq)]
pub struct ResponseEnvelope {
    /// The id from the request this answers (0 when the request was too
    /// mangled to recover one).
    pub request_id: u64,
    /// The response body.
    pub response: Response,
}

impl ResponseEnvelope {
    /// Wraps a response.
    pub fn new(request_id: u64, response: Response) -> Self {
        Self {
            request_id,
            response,
        }
    }

    /// Serializes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u64(self.request_id);
        w.buf.extend_from_slice(&self.response.encode());
        w.into_bytes()
    }

    /// Deserializes a frame payload (must consume every byte).
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let request_id = r.u64()?;
        let response = Response::decode_body(&mut r)?;
        r.finish()?;
        Ok(Self {
            request_id,
            response,
        })
    }
}

/// Best-effort salvage of the correlation id from a frame that failed
/// [`RequestEnvelope::decode`]: the id is the first 8 bytes, so it is
/// recoverable even when the body is garbage. Returns 0 when even the id
/// was truncated.
pub fn salvage_request_id(bytes: &[u8]) -> u64 {
    if bytes.len() >= 8 {
        u64::from_le_bytes(bytes[..8].try_into().unwrap())
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one frame (length prefix + payload) to a blocking stream.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= MAX_FRAME_LEN, "outgoing frame exceeds cap");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame from a blocking stream. `Ok(None)` = clean EOF at a
/// frame boundary; EOF mid-frame is [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None)
                } else {
                    Err(WireError::Truncated)
                }
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::OversizedFrame(len as u64));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Non-blocking framing: if `buf` starts with a complete frame, removes
/// and returns its payload; `Ok(None)` = need more bytes. Rejects an
/// oversized length prefix immediately (before the body arrives).
pub fn extract_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::OversizedFrame(len as u64));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let payload = buf[4..4 + len].to_vec();
    buf.drain(..4 + len);
    Ok(Some(payload))
}

/// Cheap mid-read guard: once at least 4 bytes of a frame header have
/// accumulated, returns `Some(claimed_len)` if the length prefix exceeds
/// [`MAX_FRAME_LEN`]. Lets a read loop reject an oversized claim **while
/// bytes are still dribbling in**, instead of buffering until the socket
/// drains. `None` = header incomplete or length acceptable.
pub fn oversized_claim(buf: &[u8]) -> Option<u64> {
    if buf.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as u64;
    if len as usize > MAX_FRAME_LEN {
        Some(len)
    } else {
        None
    }
}

#[cfg(feature = "fault-inject")]
pub mod fault;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_blocking() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncated_header_is_an_error() {
        let mut cursor = io::Cursor::new(vec![1u8, 0]);
        assert_eq!(read_frame(&mut cursor), Err(WireError::Truncated));
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut bytes = (u32::MAX).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let mut cursor = io::Cursor::new(bytes.clone());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::OversizedFrame(_))
        ));
        let mut buf = bytes;
        assert!(matches!(
            extract_frame(&mut buf),
            Err(WireError::OversizedFrame(_))
        ));
    }

    #[test]
    fn extract_frame_waits_for_completion() {
        let payload = Request::Ping.encode();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let mut buf = Vec::new();
        for &b in &framed[..framed.len() - 1] {
            buf.push(b);
            assert_eq!(extract_frame(&mut buf), Ok(None));
        }
        buf.push(*framed.last().unwrap());
        assert_eq!(extract_frame(&mut buf), Ok(Some(payload)));
        assert!(buf.is_empty());
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let req = Request::EdgeDelta {
            graph_id: 7,
            symmetric: true,
            deltas: vec![WireEdge {
                src: 1,
                dst: 2,
                weight: weird,
            }],
        };
        let Request::EdgeDelta { deltas, .. } = Request::decode(&req.encode()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(deltas[0].weight.to_bits(), weird.to_bits());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert_eq!(Request::decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn hostile_length_prefix_cannot_overallocate() {
        // SolveLinBp with a seeds length prefix of u64::MAX but no body.
        let mut w = WireWriter::new();
        w.u8(2);
        w.u64(0); // graph_id
        LinBpParams {
            echo: true,
            k: 2,
            h_residual: vec![0.0; 4],
            max_iter: 1,
            tol: 0.0,
            norm: WireNorm::MaxAbs,
            damping: 0.0,
            divergence_guard: 1e12,
        }
        .encode(&mut w);
        w.u64(u64::MAX); // hostile seed count
        assert_eq!(Request::decode(&w.into_bytes()), Err(WireError::Truncated));
    }
}
