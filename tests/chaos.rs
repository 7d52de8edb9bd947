//! Chaos suite: a live server under a seeded fault-injection storm.
//!
//! [`lsbp_net::fault`] (behind the test-only `fault-inject` feature)
//! wraps client sockets in a [`FaultInjector`] that truncates frames,
//! stalls mid-frame, flips bits, and drops connections on a seeded
//! schedule. The claims under test:
//!
//! * the server survives every fault — event loop alive, no leaked
//!   parked jobs, registry and cache intact;
//! * a panicking solve answers its own batch `Internal` and nothing
//!   else — jobs parked for other groups drain normally;
//! * after (or during) any amount of abuse, honest queries are answered
//!   **bitwise** identical to in-process library solves;
//! * a [`RetryPolicy`] recovers every idempotent request under real
//!   overload.

mod support;

use lsbp::prelude::*;
use lsbp_client::{Client, ClientConfig, ClientError, RetryPolicy, RetryingClient};
use lsbp_graph::Graph;
use lsbp_linalg::Mat;
use lsbp_net::fault::{Fault, FaultInjector, FaultSchedule};
use lsbp_net::{
    ErrorCode, LinBpParams, Request, RequestEnvelope, Response, WireEdge, WireNorm, WireSeed,
    PROTOCOL_VERSION,
};
use lsbp_server::{serve, ServerConfig, ServerCore};
use lsbp_sparse::CsrMatrix;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use support::TempPath;

const K: usize = 3;

fn spawn_server(config: ServerConfig) -> (SocketAddr, Arc<ServerCore>, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let core = Arc::new(ServerCore::new(config));
    let serve_core = Arc::clone(&core);
    let handle = thread::spawn(move || serve(listener, &serve_core).expect("serve"));
    (addr, core, handle)
}

fn fixture_edges() -> Vec<(usize, usize, f64)> {
    let mut edges: Vec<(usize, usize, f64)> = (0..10).map(|i| (i, (i + 1) % 10, 1.0)).collect();
    edges.extend_from_slice(&[(0, 5, 0.5), (2, 7, 1.25), (3, 8, 0.75)]);
    edges
}

fn fixture_adjacency() -> CsrMatrix {
    let mut g = Graph::new(10);
    for (s, t, w) in fixture_edges() {
        g.add_edge(s, t, w);
    }
    g.adjacency()
}

fn wire_edges() -> Vec<WireEdge> {
    fixture_edges()
        .into_iter()
        .map(|(s, t, w)| WireEdge {
            src: s as u64,
            dst: t as u64,
            weight: w,
        })
        .collect()
}

fn coupling() -> Mat {
    CouplingMatrix::fig1c().unwrap().scaled_residual(0.05)
}

fn wire_params(h: &Mat) -> LinBpParams {
    LinBpParams {
        echo: true,
        k: K as u32,
        h_residual: h.as_slice().to_vec(),
        max_iter: 300,
        tol: 1e-12,
        norm: WireNorm::MaxAbs,
        damping: 0.0,
        divergence_guard: 1e12,
    }
}

fn lib_opts() -> LinBpOptions {
    LinBpOptions {
        max_iter: 300,
        tol: 1e-12,
        norm: ToleranceNorm::MaxAbs,
        damping: 0.0,
        divergence_guard: 1e12,
        parallelism: ParallelismConfig::from_env(),
    }
}

fn seed_rows(shift: usize) -> Vec<(usize, [f64; K])> {
    vec![
        (shift % 10, [2.0, -1.0, -1.0]),
        ((3 + shift) % 10, [-1.0, 2.0, -1.0]),
        ((6 + shift) % 10, [-1.0, -1.0, 2.0]),
    ]
}

fn wire_seeds(shift: usize) -> Vec<WireSeed> {
    seed_rows(shift)
        .into_iter()
        .map(|(node, row)| WireSeed {
            node: node as u64,
            residual: row.to_vec(),
        })
        .collect()
}

fn lib_seeds(shift: usize) -> ExplicitBeliefs {
    let mut e = ExplicitBeliefs::new(10, K);
    for (node, row) in seed_rows(shift) {
        e.set_residual(node, &row).unwrap();
    }
    e
}

fn assert_bitwise(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}: belief mismatch at flat index {i}: {g:e} vs {w:e}"
        );
    }
}

/// Frames `payload` and pushes it through a [`FaultInjector`], ignoring
/// every I/O outcome — the injector's job is provocation, not delivery.
fn inject(addr: SocketAddr, fault: Fault, seed: u64, payload: &[u8]) {
    let Ok(stream) = TcpStream::connect(addr) else {
        return;
    };
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok();
    let mut injector = FaultInjector::new(stream, fault, seed);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(payload);
    let _ = injector.write_all(&frame);
    let _ = injector.flush();
    let mut sink = [0u8; 512];
    let _ = injector.read(&mut sink);
}

/// Dozens of seeded fault connections — truncations, stalls, corruption,
/// drops — against a server that must come out the other side answering
/// honest queries bitwise, with nothing parked and nothing lost.
#[test]
fn seeded_fault_storm_leaves_server_intact() {
    let (addr, core, handle) = spawn_server(ServerConfig {
        // Short enough that mid-frame stalls are reaped within the test.
        idle_timeout: Duration::from_millis(500),
        write_stall_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client.register_graph(1, 10, true, wire_edges()).unwrap();

    let h = coupling();
    let baseline = client
        .solve_linbp(1, wire_params(&h), wire_seeds(0))
        .unwrap();
    let reference = linbp_on(&fixture_adjacency(), &lib_seeds(0), &h, &lib_opts()).unwrap();
    assert_bitwise(
        "baseline before storm",
        &baseline.beliefs,
        reference.beliefs.residual().as_slice(),
    );

    // The storm: every connection gets a schedule-chosen fault applied
    // to a well-formed ping envelope. The persistent client pings after
    // each fault, so it never idles past the server's idle timeout while
    // the storm runs.
    for seed in 0..32u64 {
        let mut schedule = FaultSchedule::new(seed);
        let payload = RequestEnvelope::new(seed, Request::Ping).encode();
        let fault = schedule.next_fault(payload.len() + 4);
        inject(addr, fault, schedule.next_seed(), &payload);
        assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION, "fault {seed}");
    }

    // The server shrugged: same connection still answers, the registry
    // and cache are intact, nothing is left parked.
    assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION);
    let health = client.health().unwrap();
    assert_eq!(health.stats.graphs, 1, "registry survived the storm");
    assert_eq!(health.queue_depth, 0, "no leaked parked jobs");
    assert!(health.stats.cached_entries >= 1, "cache survived the storm");

    let after = client
        .solve_linbp(1, wire_params(&h), wire_seeds(0))
        .unwrap();
    assert_bitwise("post-storm answer", &after.beliefs, &baseline.beliefs);
    // A fresh query (not cached) is also bitwise the library solve.
    let fresh = client
        .solve_linbp(1, wire_params(&h), wire_seeds(5))
        .unwrap();
    let fresh_ref = linbp_on(&fixture_adjacency(), &lib_seeds(5), &h, &lib_opts()).unwrap();
    assert_bitwise(
        "post-storm fresh solve",
        &fresh.beliefs,
        fresh_ref.beliefs.residual().as_slice(),
    );
    let stats = core.stats();
    assert_eq!(stats.graphs, 1);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Each named fault variant, pinned explicitly (not schedule-chosen), on
/// a realistic solve request — none may wedge the event loop or leak a
/// parked job.
#[test]
fn explicit_fault_variants_never_wedge_the_loop() {
    let (addr, _core, handle) = spawn_server(ServerConfig {
        idle_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client.register_graph(4, 10, true, wire_edges()).unwrap();

    let h = coupling();
    let payload = RequestEnvelope::new(
        7,
        Request::SolveLinBp {
            graph_id: 4,
            params: wire_params(&h),
            seeds: wire_seeds(0),
        },
    )
    .encode();

    let faults = [
        Fault::TruncateAfter { n: 2 }, // partial header
        Fault::TruncateAfter { n: 6 }, // header + partial body
        Fault::DropAfter { n: 5 },     // hard drop mid-frame
        Fault::StallAt {
            offset: 3,
            pause: Duration::from_millis(50),
        },
        Fault::CorruptBits { per_mille: 150 },
        Fault::None, // control: the intact frame must actually be answered
    ];
    for (i, fault) in faults.into_iter().enumerate() {
        inject(addr, fault, 1000 + i as u64, &payload);
    }

    // Nothing wedged: the typed client still gets bitwise answers and
    // the queue is empty.
    let answer = client
        .solve_linbp(4, wire_params(&h), wire_seeds(1))
        .unwrap();
    let reference = linbp_on(&fixture_adjacency(), &lib_seeds(1), &h, &lib_opts()).unwrap();
    assert_bitwise(
        "solve after explicit faults",
        &answer.beliefs,
        reference.beliefs.residual().as_slice(),
    );
    let health = client.health().unwrap();
    assert_eq!(health.queue_depth, 0, "no leaked parked jobs");

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A panicking solve (fault-injected via `panic_on_graph`) answers its
/// own batch `Internal` while a job parked for a *different* group
/// drains normally with a bitwise-correct answer.
#[test]
fn panicking_solve_spares_parked_jobs() {
    let core = ServerCore::new(ServerConfig {
        coalesce_window: Duration::from_secs(10),
        max_batch: 2,
        panic_on_graph: Some(666),
        ..ServerConfig::default()
    });
    for graph_id in [666, 777] {
        assert!(matches!(
            core.handle_blocking(Request::RegisterGraph {
                graph_id,
                n_nodes: 10,
                symmetric: true,
                edges: wire_edges(),
            }),
            Response::Registered { .. }
        ));
    }

    let h = coupling();
    let (tx, rx) = mpsc::channel();
    // Park one job against the healthy graph (window is long, batch of 1).
    let tx_parked = tx.clone();
    core.submit(
        Request::SolveLinBp {
            graph_id: 777,
            params: wire_params(&h),
            seeds: wire_seeds(2),
        },
        Box::new(move |r| drop(tx_parked.send(("parked", r)))),
    );
    // Two queries against the poisoned graph: batch-full triggers an
    // immediate drain, and the solve panics.
    for q in 0..2 {
        let tx = tx.clone();
        core.submit(
            Request::SolveLinBp {
                graph_id: 666,
                params: wire_params(&h),
                seeds: wire_seeds(q),
            },
            Box::new(move |r| drop(tx.send(("poisoned", r)))),
        );
    }

    // Both poisoned queries answer Internal; the event loop (and solver
    // thread) survive.
    for _ in 0..2 {
        let (who, r) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(who, "poisoned");
        match r {
            Response::Error { code, message, .. } => {
                assert_eq!(code, ErrorCode::Internal);
                assert!(message.contains("panic"), "message was: {message}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
    }
    assert_eq!(core.stats().panics_caught, 1);

    // The parked job on the healthy graph is NOT stranded: a second
    // same-group query completes its batch, and both answer bitwise.
    let tx_mate = tx.clone();
    core.submit(
        Request::SolveLinBp {
            graph_id: 777,
            params: wire_params(&h),
            seeds: wire_seeds(3),
        },
        Box::new(move |r| drop(tx_mate.send(("mate", r)))),
    );
    let adj = fixture_adjacency();
    let mut seen = 0;
    for _ in 0..2 {
        let (who, r) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let shift = match who {
            "parked" => 2,
            "mate" => 3,
            other => panic!("unexpected sender {other}"),
        };
        match r {
            Response::Beliefs(payload) => {
                let reference = linbp_on(&adj, &lib_seeds(shift), &h, &lib_opts()).unwrap();
                assert_bitwise(
                    &format!("{who} after panic"),
                    &payload.beliefs,
                    reference.beliefs.residual().as_slice(),
                );
            }
            other => panic!("{who}: expected Beliefs, got {other:?}"),
        }
        seen += 1;
    }
    assert_eq!(seen, 2);
}

/// `panic_on_graph` also fires when an edge delta to that graph is
/// applied, after the rebuild but before anything is published. The delta
/// answers `Internal` and counts as a caught panic; the graph keeps its
/// version (the new version's spill file is gone, only version 1's stay);
/// and the solver thread keeps serving — a delta to another graph lands,
/// and its solves answer bitwise.
#[test]
fn panicking_delta_publishes_nothing() {
    let scratch = TempPath::new("chaos-delta", "spill");
    let dir = scratch.dir();
    let core = ServerCore::new(ServerConfig {
        panic_on_graph: Some(666),
        spill_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    });
    for graph_id in [666, 777] {
        assert!(matches!(
            core.handle_blocking(Request::RegisterGraph {
                graph_id,
                n_nodes: 10,
                symmetric: true,
                edges: wire_edges(),
            }),
            Response::Registered { .. }
        ));
    }
    let delta = |graph_id: u64| Request::EdgeDelta {
        graph_id,
        symmetric: true,
        deltas: vec![WireEdge {
            src: 1,
            dst: 6,
            weight: 0.5,
        }],
    };

    match core.handle_blocking(delta(666)) {
        Response::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::Internal);
            assert!(message.contains("panic"), "message was: {message}");
        }
        other => panic!("expected Internal from the panicking delta, got {other:?}"),
    }
    assert_eq!(core.stats().panics_caught, 1);
    let spills: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(spills.len(), 2, "one spill per graph, got {spills:?}");
    assert!(
        spills.iter().all(|f| f.contains("-v1-")),
        "the panicking delta published a version: {spills:?}"
    );

    match core.handle_blocking(delta(777)) {
        Response::DeltaApplied { version, .. } => assert_eq!(version, 2),
        other => panic!("expected DeltaApplied, got {other:?}"),
    }
    let h = coupling();
    let payload = match core.handle_blocking(Request::SolveLinBp {
        graph_id: 777,
        params: wire_params(&h),
        seeds: wire_seeds(2),
    }) {
        Response::Beliefs(payload) => payload,
        other => panic!("expected Beliefs, got {other:?}"),
    };
    let adj = fixture_adjacency()
        .try_with_edge_deltas(&[(1, 6, 0.5), (6, 1, 0.5)])
        .unwrap();
    let reference = linbp_on(&adj, &lib_seeds(2), &h, &lib_opts()).unwrap();
    assert_bitwise(
        "solve after the panicking delta",
        &payload.beliefs,
        reference.beliefs.residual().as_slice(),
    );
    assert_eq!(core.stats().panics_caught, 1);
}

/// Real overload (one admission slot, many clients): every idempotent
/// request is eventually recovered by its retry policy, each answer
/// bitwise the library solve.
#[test]
fn retry_policy_recovers_every_idempotent_request() {
    let (addr, core, handle) = spawn_server(ServerConfig {
        coalesce_window: Duration::from_millis(100),
        max_pending: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client.register_graph(5, 10, true, wire_edges()).unwrap();

    let h = coupling();
    let clients = 6;
    let results: Vec<Result<(usize, Vec<f64>), ClientError>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let h = &h;
                scope.spawn(move || {
                    let mut retrying = RetryingClient::new(
                        addr.to_string(),
                        ClientConfig::default(),
                        RetryPolicy {
                            max_attempts: 12,
                            base_delay: Duration::from_millis(20),
                            max_delay: Duration::from_millis(400),
                            seed: 0xC0FFEE + t as u64,
                        },
                    );
                    retrying
                        .solve_linbp(5, wire_params(h), &wire_seeds(t))
                        .map(|p| (t, p.beliefs))
                })
            })
            .collect();
        handles.into_iter().map(|t| t.join().unwrap()).collect()
    });

    let adj = fixture_adjacency();
    for result in results {
        let (t, beliefs) = result.expect("every idempotent request must be recovered");
        let reference = linbp_on(&adj, &lib_seeds(t), &h, &lib_opts()).unwrap();
        assert_bitwise(
            &format!("retried client {t}"),
            &beliefs,
            reference.beliefs.residual().as_slice(),
        );
    }
    // The fixture must have caused genuine overload, or the test proves
    // nothing about retries.
    assert!(
        core.stats().rejected_overloaded >= 1,
        "expected at least one Overloaded rejection"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}
