#![warn(missing_docs)]

//! # lsbp-client — typed client for the propagation service
//!
//! A thin blocking client over the [`lsbp_net`] wire protocol: one
//! request in flight per connection (open more connections for
//! concurrency — that is what the server's admission layer coalesces
//! across). [`Client`] offers typed helpers per request; the raw
//! [`Client::request`] escape hatch sends any [`Request`].
//!
//! Every request travels in a [`RequestEnvelope`] carrying a
//! client-chosen correlation id (verified against the echoed id — a
//! mismatch is a protocol error, never silently accepted) and an
//! optional per-request deadline the server enforces.
//!
//! [`RetryingClient`] layers a [`RetryPolicy`] on top: exponential
//! backoff with deterministic seeded jitter, honoring the server's
//! `retry_after_ms` hint, reconnecting on dropped connections — and it
//! only exposes idempotent operations, so a retry after an ambiguous
//! failure (request sent, connection died before the reply) can never
//! double-apply a mutation.

use lsbp_net::{
    read_frame, write_frame, BeliefsPayload, ErrorCode, HealthInfo, LinBpParams, Request,
    RequestEnvelope, Response, ResponseEnvelope, RwrParams, ServerStats, WireEdge, WireError,
    WireSeed,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure: transport, protocol, or a typed server error.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server's bytes did not decode as a response frame.
    Wire(WireError),
    /// The server answered with [`Response::Error`].
    Server {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Server's backoff hint for transient errors (`Overloaded`,
        /// `DeadlineExceeded`): wait at least this long before retrying.
        retry_after_ms: Option<u64>,
    },
    /// The server answered with the wrong response variant.
    Unexpected(&'static str),
    /// The response envelope echoed a different correlation id than the
    /// one sent — a stale reply from a previous request on this stream.
    CorrelationMismatch {
        /// Id this client attached to the request.
        sent: u64,
        /// Id the server echoed back.
        got: u64,
    },
    /// The connection closed before a response arrived.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Wire(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message, .. } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Unexpected(wanted) => {
                write!(f, "unexpected response variant (wanted {wanted})")
            }
            ClientError::CorrelationMismatch { sent, got } => {
                write!(
                    f,
                    "response correlation id {got} does not match request id {sent}"
                )
            }
            ClientError::Disconnected => write!(f, "connection closed mid-request"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Socket timeout knobs for [`Client::connect_with`]. `None` everywhere
/// (the default) means fully blocking, matching [`Client::connect`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientConfig {
    /// Budget for establishing the TCP connection (per resolved address).
    pub connect_timeout: Option<Duration>,
    /// Budget for each blocking read while awaiting a response.
    pub read_timeout: Option<Duration>,
    /// Budget for each blocking write while sending a request.
    pub write_timeout: Option<Duration>,
}

/// A blocking connection to an `lsbp-server`.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    deadline_ms: Option<u64>,
}

impl Client {
    /// Connects with no socket timeouts (with `TCP_NODELAY`, so small
    /// request frames do not sit in Nagle buffers while the server's
    /// coalesce window runs).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, &ClientConfig::default())
    }

    /// Connects with explicit timeout knobs. A `connect_timeout` is
    /// applied to each resolved candidate address in turn; the first
    /// success wins.
    pub fn connect_with(addr: impl ToSocketAddrs, config: &ClientConfig) -> io::Result<Self> {
        let mut last_err = None;
        let mut stream = None;
        for candidate in addr.to_socket_addrs()? {
            let attempt = match config.connect_timeout {
                Some(t) => TcpStream::connect_timeout(&candidate, t),
                None => TcpStream::connect(candidate),
            };
            match attempt {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let stream = match stream {
            Some(s) => s,
            None => {
                return Err(last_err.unwrap_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
                }))
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        Ok(Self {
            stream,
            next_id: 1,
            deadline_ms: None,
        })
    }

    /// Sets a sticky per-request deadline (milliseconds of server-side
    /// budget) attached to every subsequent request; `None` clears it.
    pub fn set_deadline_ms(&mut self, deadline_ms: Option<u64>) {
        self.deadline_ms = deadline_ms;
    }

    /// Sends one request and blocks for its response, verifying the
    /// echoed correlation id.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let envelope = RequestEnvelope {
            request_id: id,
            deadline_ms: self.deadline_ms,
            request: request.clone(),
        };
        write_frame(&mut self.stream, &envelope.encode())?;
        match read_frame(&mut self.stream)? {
            Some(payload) => {
                let envelope = ResponseEnvelope::decode(&payload)?;
                if envelope.request_id != id {
                    return Err(ClientError::CorrelationMismatch {
                        sent: id,
                        got: envelope.request_id,
                    });
                }
                Ok(envelope.response)
            }
            None => Err(ClientError::Disconnected),
        }
    }

    /// Pings; returns the server's protocol version.
    pub fn ping(&mut self) -> Result<u16, ClientError> {
        match self.checked(&Request::Ping)? {
            Response::Pong { protocol_version } => Ok(protocol_version),
            _ => Err(ClientError::Unexpected("Pong")),
        }
    }

    /// Fetches the liveness snapshot (queue depth, uptime, counters).
    pub fn health(&mut self) -> Result<HealthInfo, ClientError> {
        match self.checked(&Request::Health)? {
            Response::Health(info) => Ok(info),
            _ => Err(ClientError::Unexpected("Health")),
        }
    }

    /// Registers a graph; returns `(version, nnz)`.
    pub fn register_graph(
        &mut self,
        graph_id: u64,
        n_nodes: u64,
        symmetric: bool,
        edges: Vec<WireEdge>,
    ) -> Result<(u64, u64), ClientError> {
        let req = Request::RegisterGraph {
            graph_id,
            n_nodes,
            symmetric,
            edges,
        };
        match self.checked(&req)? {
            Response::Registered { version, nnz, .. } => Ok((version, nnz)),
            _ => Err(ClientError::Unexpected("Registered")),
        }
    }

    /// Runs a LinBP (or LinBP\*) solve.
    pub fn solve_linbp(
        &mut self,
        graph_id: u64,
        params: LinBpParams,
        seeds: Vec<WireSeed>,
    ) -> Result<BeliefsPayload, ClientError> {
        let req = Request::SolveLinBp {
            graph_id,
            params,
            seeds,
        };
        match self.checked(&req)? {
            Response::Beliefs(payload) => Ok(payload),
            _ => Err(ClientError::Unexpected("Beliefs")),
        }
    }

    /// Runs an RWR solve.
    pub fn solve_rwr(
        &mut self,
        graph_id: u64,
        params: RwrParams,
        seeds: Vec<WireSeed>,
    ) -> Result<BeliefsPayload, ClientError> {
        let req = Request::SolveRwr {
            graph_id,
            params,
            seeds,
        };
        match self.checked(&req)? {
            Response::Beliefs(payload) => Ok(payload),
            _ => Err(ClientError::Unexpected("Beliefs")),
        }
    }

    /// Applies additive edge deltas; returns `(new_version, patched,
    /// invalidated)` cache-entry counts.
    pub fn edge_delta(
        &mut self,
        graph_id: u64,
        symmetric: bool,
        deltas: Vec<WireEdge>,
    ) -> Result<(u64, u64, u64), ClientError> {
        let req = Request::EdgeDelta {
            graph_id,
            symmetric,
            deltas,
        };
        match self.checked(&req)? {
            Response::DeltaApplied {
                version,
                patched,
                invalidated,
                ..
            } => Ok((version, patched, invalidated)),
            _ => Err(ClientError::Unexpected("DeltaApplied")),
        }
    }

    /// Fetches serving counters.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.checked(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            _ => Err(ClientError::Unexpected("Stats")),
        }
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.checked(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::Unexpected("ShuttingDown")),
        }
    }

    fn checked(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.request(request)? {
            Response::Error {
                code,
                message,
                retry_after_ms,
            } => Err(ClientError::Server {
                code,
                message,
                retry_after_ms,
            }),
            other => Ok(other),
        }
    }
}

/// Exponential-backoff retry schedule with deterministic seeded jitter.
///
/// Attempt `i` (zero-based) sleeps `min(max_delay, base_delay · 2^i)`
/// scaled by a jitter factor in `[0.5, 1.0)` drawn from a seeded RNG —
/// deterministic for reproducible tests, decorrelated across clients
/// with different seeds so a thundering herd spreads out. When the
/// server supplies a `retry_after_ms` hint the sleep is floored at the
/// hint: the server knows its own queue better than the schedule does.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Backoff for the first retry; doubles each further attempt.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
    /// Jitter RNG seed; same seed ⇒ same sleep sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(2),
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// `true` when the error is transient: retrying the same idempotent
    /// request may succeed. Typed server rejections other than
    /// `Overloaded`/`DeadlineExceeded` (bad request, unknown graph,
    /// internal) are permanent — retrying them only re-fails.
    pub fn is_retryable(error: &ClientError) -> bool {
        match error {
            ClientError::Server { code, .. } => {
                matches!(code, ErrorCode::Overloaded | ErrorCode::DeadlineExceeded)
            }
            ClientError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::BrokenPipe
                    | io::ErrorKind::UnexpectedEof
            ),
            // A garbled reply frame usually means the stream died
            // mid-response; a fresh connection gets a fresh answer.
            ClientError::Wire(_) => true,
            ClientError::Disconnected => true,
            ClientError::Unexpected(_) | ClientError::CorrelationMismatch { .. } => false,
        }
    }

    fn backoff(&self, attempt: u32, rng: &mut StdRng, hint_ms: Option<u64>) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.max_delay);
        let jittered = exp.mul_f64(rng.gen_range(0.5..1.0));
        match hint_ms {
            Some(ms) => jittered.max(Duration::from_millis(ms)),
            None => jittered,
        }
    }
}

/// A self-healing client wrapper: reconnects on connection loss and
/// retries transient failures per its [`RetryPolicy`].
///
/// Only **idempotent** operations are exposed (`ping`, `health`,
/// `stats`, `solve_linbp`, `solve_rwr`) — solves are pure functions of
/// registered state, so replaying one after an ambiguous failure is
/// safe and, by the serving invariant, bitwise identical. Mutations
/// (`register_graph`, `edge_delta`, `shutdown`) must go through a plain
/// [`Client`] where the caller decides how to disambiguate.
pub struct RetryingClient {
    addr: String,
    config: ClientConfig,
    policy: RetryPolicy,
    rng: StdRng,
    sticky_deadline: Option<u64>,
    conn: Option<Client>,
}

impl RetryingClient {
    /// Creates the wrapper; no connection is opened until the first call.
    pub fn new(addr: impl Into<String>, config: ClientConfig, policy: RetryPolicy) -> Self {
        let rng = StdRng::seed_from_u64(policy.seed);
        Self {
            addr: addr.into(),
            config,
            policy,
            rng,
            sticky_deadline: None,
            conn: None,
        }
    }

    /// Sticky per-request deadline applied to every subsequent request
    /// (survives reconnects); `None` clears it.
    pub fn set_deadline_ms(&mut self, deadline_ms: Option<u64>) {
        if let Some(conn) = self.conn.as_mut() {
            conn.set_deadline_ms(deadline_ms);
        }
        self.sticky_deadline = deadline_ms;
    }

    /// Pings with retry; returns the server's protocol version.
    pub fn ping(&mut self) -> Result<u16, ClientError> {
        self.with_retry(|c| c.ping())
    }

    /// Health snapshot with retry.
    pub fn health(&mut self) -> Result<HealthInfo, ClientError> {
        self.with_retry(|c| c.health())
    }

    /// Serving counters with retry.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        self.with_retry(|c| c.stats())
    }

    /// LinBP / LinBP\* solve with retry.
    pub fn solve_linbp(
        &mut self,
        graph_id: u64,
        params: LinBpParams,
        seeds: &[WireSeed],
    ) -> Result<BeliefsPayload, ClientError> {
        self.with_retry(|c| c.solve_linbp(graph_id, params.clone(), seeds.to_vec()))
    }

    /// RWR solve with retry.
    pub fn solve_rwr(
        &mut self,
        graph_id: u64,
        params: RwrParams,
        seeds: &[WireSeed],
    ) -> Result<BeliefsPayload, ClientError> {
        self.with_retry(|c| c.solve_rwr(graph_id, params, seeds.to_vec()))
    }

    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            let result = match self.connected() {
                Ok(conn) => op(conn),
                Err(e) => Err(e),
            };
            let error = match result {
                Ok(value) => return Ok(value),
                Err(e) => e,
            };
            // Connection-level failures poison the stream (a late reply
            // would desynchronise correlation ids) — reconnect next try.
            if !matches!(error, ClientError::Server { .. }) {
                self.conn = None;
            }
            if !RetryPolicy::is_retryable(&error) || attempt + 1 == attempts {
                return Err(error);
            }
            let hint = match &error {
                ClientError::Server { retry_after_ms, .. } => *retry_after_ms,
                _ => None,
            };
            std::thread::sleep(self.policy.backoff(attempt, &mut self.rng, hint));
            last = Some(error);
        }
        Err(last.unwrap_or(ClientError::Disconnected))
    }

    fn connected(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            let mut client = Client::connect_with(self.addr.as_str(), &self.config)?;
            client.set_deadline_ms(self.sticky_deadline);
            self.conn = Some(client);
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }
}
