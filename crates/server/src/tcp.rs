//! TCP transport: a small poll(2) event loop (no async runtime) that
//! decodes frames off nonblocking sockets, feeds them to the
//! [`ServerCore`], and streams encoded responses back as they complete.
//!
//! The wire model is **one outstanding request per connection** — a client
//! wanting concurrency opens more connections, which is exactly what lets
//! the admission layer coalesce across clients. (Pipelining still works:
//! every complete frame in the read buffer is submitted.) Responses
//! produced on the solver thread travel back through an [`mpsc`] channel
//! the event loop drains every tick, so socket writes stay on the single
//! transport thread.
//!
//! ## Fault containment
//!
//! A misbehaving peer can only hurt itself:
//!
//! * a frame header claiming more than [`lsbp_net::MAX_FRAME_LEN`] is
//!   rejected **as soon as the 4 header bytes arrive** — even dribbled a
//!   byte at a time — with a clean `BadRequest` before any buffering;
//! * the read buffer is bounded per tick, so a blasting peer cannot make
//!   one `read` loop allocate without limit;
//! * response bytes buffered for a peer are capped
//!   ([`crate::core::ServerConfig::max_write_buf`]); a pipelining client
//!   that stops reading is dropped, not buffered forever;
//! * a connection idle past `idle_timeout` (including one parked mid-frame
//!   by a stalling sender) is reaped;
//! * a writer making no progress past `write_stall_timeout` is reaped;
//! * `EMFILE`/`ENFILE` on accept pauses the listener briefly instead of
//!   spinning or killing the serve loop.

use crate::core::ServerCore;
use lsbp_net::{
    extract_frame, oversized_claim, salvage_request_id, ErrorCode, RequestEnvelope, Response,
    ResponseEnvelope, WireError,
};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Connection identity within one `serve` call.
type ConnId = u64;

/// Runs the serving loop on an already-bound listener until the core
/// accepts a shutdown and every in-flight response has been flushed.
pub fn serve(listener: TcpListener, core: &ServerCore) -> io::Result<()> {
    imp::serve(listener, core)
}

struct ConnState<S> {
    stream: S,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
    /// Requests submitted on this connection still awaiting a response.
    in_flight: u64,
    /// Stop reading and drop the connection once the write buffer drains.
    closing: bool,
    /// Last moment bytes moved on this connection (either direction).
    last_activity: Instant,
    /// Set when a flush makes no progress while bytes are pending;
    /// cleared on progress. Drives the slow-writer eviction.
    stalled_since: Option<Instant>,
}

impl<S> ConnState<S> {
    fn new(stream: S) -> Self {
        Self {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            in_flight: 0,
            closing: false,
            last_activity: Instant::now(),
            stalled_since: None,
        }
    }

    fn queue(&mut self, frame_payload: &[u8]) {
        let len = frame_payload.len() as u32;
        self.write_buf.extend_from_slice(&len.to_le_bytes());
        self.write_buf.extend_from_slice(frame_payload);
    }

    fn pending_write(&self) -> bool {
        self.written < self.write_buf.len()
    }

    fn pending_write_bytes(&self) -> usize {
        self.write_buf.len() - self.written
    }
}

/// Decodes and submits every complete frame in `conn.read_buf`; malformed
/// input queues an error response (with the salvaged correlation id) and
/// marks the connection closing.
fn pump_requests<S>(
    conn: &mut ConnState<S>,
    id: ConnId,
    core: &ServerCore,
    tx: &mpsc::Sender<(ConnId, Vec<u8>)>,
) {
    loop {
        match extract_frame(&mut conn.read_buf) {
            Ok(Some(payload)) => match RequestEnvelope::decode(&payload) {
                Ok(env) => {
                    conn.in_flight += 1;
                    let rid = env.request_id;
                    let deadline = env
                        .deadline_ms
                        .map(|ms| Instant::now() + Duration::from_millis(ms));
                    let tx = tx.clone();
                    core.submit_at(
                        env.request,
                        deadline,
                        Box::new(move |response| {
                            let _ = tx.send((id, ResponseEnvelope::new(rid, response).encode()));
                        }),
                    );
                }
                Err(e) => {
                    let rid = salvage_request_id(&payload);
                    conn.queue(&ResponseEnvelope::new(rid, decode_error(&e)).encode());
                    conn.closing = true;
                    return;
                }
            },
            Ok(None) => return,
            Err(e) => {
                conn.queue(&ResponseEnvelope::new(0, decode_error(&e)).encode());
                conn.closing = true;
                return;
            }
        }
    }
}

fn decode_error(e: &WireError) -> Response {
    Response::Error {
        code: ErrorCode::BadRequest,
        message: format!("malformed request frame: {e}"),
        retry_after_ms: None,
    }
}

fn flush<S: Write>(conn: &mut ConnState<S>) -> io::Result<()> {
    let before = conn.written;
    while conn.pending_write() {
        match conn.stream.write(&conn.write_buf[conn.written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.written > before {
        conn.last_activity = Instant::now();
        conn.stalled_since = None;
    } else if conn.pending_write() && conn.stalled_since.is_none() {
        conn.stalled_since = Some(Instant::now());
    }
    if conn.written == conn.write_buf.len() && conn.written > 0 {
        conn.write_buf.clear();
        conn.written = 0;
    }
    Ok(())
}

#[cfg(unix)]
mod imp {
    use super::*;
    use std::net::TcpStream;
    use std::os::raw::{c_int, c_short, c_ulong};
    use std::os::unix::io::{AsRawFd, RawFd};

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;
    const POLLNVAL: c_short = 0x020;

    /// How long the listener stays paused after running out of file
    /// descriptors (`EMFILE`/`ENFILE`) — long enough for a connection to
    /// finish, short enough to resume serving promptly.
    const ACCEPT_PAUSE: Duration = Duration::from_millis(100);

    #[repr(C)]
    struct PollFd {
        fd: RawFd,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        loop {
            let rc = unsafe {
                poll(
                    fds.as_mut_ptr(),
                    fds.len() as c_ulong,
                    timeout.as_millis() as c_int,
                )
            };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// `true` for accept errors that mean "try again later", not "die":
    /// out of file descriptors or kernel buffers.
    fn accept_resource_exhausted(e: &io::Error) -> bool {
        // EMFILE = 24, ENFILE = 23, ENOBUFS = 105, ENOMEM = 12 (Linux).
        matches!(e.raw_os_error(), Some(24) | Some(23) | Some(105) | Some(12))
            || e.kind() == io::ErrorKind::OutOfMemory
    }

    /// `true` for accept errors about the *accepted* connection (already
    /// reset by the peer) rather than the listener — skip and keep going.
    fn accept_transient(e: &io::Error) -> bool {
        matches!(
            e.kind(),
            io::ErrorKind::ConnectionAborted | io::ErrorKind::ConnectionReset
        )
    }

    pub fn serve(listener: TcpListener, core: &ServerCore) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let (tx, rx) = mpsc::channel::<(ConnId, Vec<u8>)>();
        let mut conns: HashMap<ConnId, ConnState<TcpStream>> = HashMap::new();
        let mut next_id: ConnId = 0;
        let mut pause_accept_until: Option<Instant> = None;
        let idle_timeout = core.config().idle_timeout;
        let write_stall_timeout = core.config().write_stall_timeout;
        let max_write_buf = core.config().max_write_buf;

        loop {
            // Deliver finished responses to their connections' write buffers.
            while let Ok((id, payload)) = rx.try_recv() {
                if let Some(conn) = conns.get_mut(&id) {
                    conn.in_flight = conn.in_flight.saturating_sub(1);
                    conn.queue(&payload);
                }
            }

            let stopping = core.is_stopping();
            if stopping {
                // Drain: no new connections; leave once nothing is owed.
                let owed = conns.values().any(|c| c.in_flight > 0 || c.pending_write());
                if !owed {
                    return Ok(());
                }
            }

            let now = Instant::now();
            let accept_paused = pause_accept_until.is_some_and(|until| now < until);
            if !accept_paused {
                pause_accept_until = None;
            }

            let mut fds = Vec::with_capacity(conns.len() + 1);
            let mut index: Vec<Option<ConnId>> = Vec::with_capacity(conns.len() + 1);
            if !stopping && !accept_paused {
                fds.push(PollFd {
                    fd: listener.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                });
                index.push(None);
            }
            for (&id, conn) in &conns {
                let mut events = 0;
                if !conn.closing {
                    events |= POLLIN;
                }
                if conn.pending_write() {
                    events |= POLLOUT;
                }
                fds.push(PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                index.push(Some(id));
            }
            // Short timeout: the channel above has no fd to poll on, so
            // ticks double as its drain cadence (and as the timeout sweep).
            poll_fds(&mut fds, Duration::from_millis(5))?;

            let mut dead: Vec<ConnId> = Vec::new();
            for (slot, fd) in index.iter().zip(&fds) {
                match slot {
                    None => {
                        if fd.revents & POLLIN != 0 {
                            loop {
                                match listener.accept() {
                                    Ok((stream, _)) => {
                                        stream.set_nonblocking(true)?;
                                        stream.set_nodelay(true).ok();
                                        let id = next_id;
                                        next_id += 1;
                                        conns.insert(id, ConnState::new(stream));
                                    }
                                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                                    Err(e) if accept_transient(&e) => continue,
                                    Err(e) if accept_resource_exhausted(&e) => {
                                        // Out of fds: stop polling the
                                        // listener for a beat instead of
                                        // spin-looping on accept.
                                        pause_accept_until = Some(Instant::now() + ACCEPT_PAUSE);
                                        break;
                                    }
                                    Err(e) => return Err(e),
                                }
                            }
                        }
                    }
                    Some(id) => {
                        let conn = conns.get_mut(id).expect("indexed connection exists");
                        if fd.revents & (POLLERR | POLLNVAL) != 0 {
                            dead.push(*id);
                            continue;
                        }
                        if fd.revents & (POLLIN | POLLHUP) != 0 && !conn.closing {
                            match read_available(conn) {
                                Ok(open) => {
                                    pump_requests(conn, *id, core, &tx);
                                    if !open {
                                        if conn.pending_write() || conn.in_flight > 0 {
                                            conn.closing = true;
                                        } else {
                                            dead.push(*id);
                                            continue;
                                        }
                                    }
                                }
                                Err(_) => {
                                    dead.push(*id);
                                    continue;
                                }
                            }
                        }
                        if conn.pending_write() && flush(conn).is_err() {
                            dead.push(*id);
                            continue;
                        }
                        // Bounded write buffer: a pipelining peer that has
                        // stopped reading does not get to hold response
                        // bytes without limit.
                        if conn.pending_write_bytes() > max_write_buf {
                            dead.push(*id);
                            continue;
                        }
                        // Slow-writer eviction: pending bytes but no write
                        // progress for too long.
                        if conn
                            .stalled_since
                            .is_some_and(|s| s.elapsed() > write_stall_timeout)
                        {
                            dead.push(*id);
                            continue;
                        }
                        // Idle reaping: nothing owed, nothing moving. Also
                        // collects peers parked mid-frame forever.
                        if conn.in_flight == 0
                            && !conn.pending_write()
                            && conn.last_activity.elapsed() > idle_timeout
                        {
                            dead.push(*id);
                            continue;
                        }
                        if conn.closing && !conn.pending_write() && conn.in_flight == 0 {
                            dead.push(*id);
                        }
                    }
                }
            }
            for id in dead {
                conns.remove(&id);
            }
        }
    }

    /// Nonblocking read into the connection's frame buffer. `Ok(false)`
    /// means the peer closed its write side.
    ///
    /// Hostile-input bounds: the moment 4 header bytes exist the claimed
    /// frame length is checked (`oversized_claim`), so an absurd length
    /// dribbled in fragments stops the read immediately — `pump_requests`
    /// then surfaces the typed `BadRequest`. Independently, one tick
    /// buffers at most `MAX_FRAME_LEN + 4` unconsumed bytes; a peer
    /// blasting faster than the pump drains resumes next tick.
    fn read_available(conn: &mut ConnState<TcpStream>) -> io::Result<bool> {
        let read_cap = lsbp_net::MAX_FRAME_LEN + 4;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if oversized_claim(&conn.read_buf).is_some() || conn.read_buf.len() >= read_cap {
                return Ok(true);
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(not(unix))]
compile_error!("lsbp-server's transport is a poll(2) event loop and builds on Unix targets only");
