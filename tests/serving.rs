//! End-to-end tests of the serving layer: a real `lsbp-server` core
//! behind a real TCP socket, exercised by `lsbp-client` connections.
//!
//! The central claim under test is **bitwise identity**: whatever the
//! server does — solo solve, admission-coalesced batch, cache hit, or
//! edge-delta patch — every belief vector it returns is bit-for-bit the
//! one the `lsbp` library produces for the same query.

mod support;

use lsbp::prelude::*;
use lsbp_client::{Client, ClientConfig, ClientError, RetryPolicy, RetryingClient};
use lsbp_graph::Graph;
use lsbp_linalg::Mat;
use lsbp_net::{
    ErrorCode, LinBpParams, Request, RequestEnvelope, Response, ResponseEnvelope, RwrParams,
    ServedVia, WireEdge, WireNorm, WireSeed, PROTOCOL_VERSION,
};
use lsbp_server::{serve, DegradationPolicy, ServerConfig, ServerCore};
use lsbp_sparse::CsrMatrix;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};
use support::TempPath;

const K: usize = 3;

/// Binds an ephemeral port and serves `core` from a background thread.
/// The server thread exits when a client requests shutdown.
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

/// One seeded node per class; `scale` stretches the residual magnitudes
/// (larger seeds take more iterations to converge under an absolute tol).
fn seed_rows(shift: usize, scale: f64) -> Vec<(usize, [f64; K])> {
    vec![
        (shift % 10, [2.0 * scale, -scale, -scale]),
        ((3 + shift) % 10, [-scale, 2.0 * scale, -scale]),
        ((6 + shift) % 10, [-scale, -scale, 2.0 * scale]),
    ]
}

fn wire_seeds(shift: usize, scale: f64) -> Vec<WireSeed> {
    seed_rows(shift, scale)
        .into_iter()
        .map(|(node, row)| WireSeed {
            node: node as u64,
            residual: row.to_vec(),
        })
        .collect()
}

fn lib_seeds(shift: usize, scale: f64) -> ExplicitBeliefs {
    let mut e = ExplicitBeliefs::new(10, K);
    for (node, row) in seed_rows(shift, scale) {
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

/// k concurrent clients against the same graph and parameters: the server
/// coalesces them into one stacked solve, and every answer is bitwise the
/// per-query library solve.
#[test]
fn coalesced_queries_are_bitwise_identical_to_solo_solves() {
    let config = ServerConfig {
        // A wide window so all clients land in one admission batch
        // regardless of scheduling jitter.
        coalesce_window: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let (addr, core, handle) = spawn_server(config);
    let mut client = Client::connect(addr).unwrap();
    client.register_graph(1, 10, true, wire_edges()).unwrap();

    let h = coupling();
    let queries = 8;
    let barrier = Barrier::new(queries);
    let payloads: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = (0..queries)
            .map(|q| {
                let (barrier, h) = (&barrier, &h);
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    barrier.wait();
                    c.solve_linbp(1, wire_params(h), wire_seeds(q, 1.0))
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|t| t.join().unwrap()).collect()
    });

    let adj = fixture_adjacency();
    let opts = lib_opts();
    let mut coalesced = 0;
    for (q, payload) in payloads.iter().enumerate() {
        let reference = linbp_on(&adj, &lib_seeds(q, 1.0), &h, &opts).unwrap();
        assert!(payload.converged && reference.converged);
        assert_eq!(payload.iterations, reference.iterations as u64);
        assert_bitwise(
            &format!("query {q}"),
            &payload.beliefs,
            reference.beliefs.residual().as_slice(),
        );
        if matches!(payload.served, ServedVia::Coalesced { .. }) {
            coalesced += 1;
        }
    }
    // With a 150 ms window and a start barrier, the queries must have
    // actually shared batches — the bitwise check above is what proves
    // sharing is safe.
    assert!(
        coalesced >= 2,
        "expected admission coalescing to engage, served: {:?}",
        payloads.iter().map(|p| p.served).collect::<Vec<_>>()
    );
    let stats = core.stats();
    assert!(stats.coalesced_batches >= 1);
    assert!(stats.largest_batch >= 2);
    // Stacking q queries costs max(iters) SpMM passes, not Σ iters.
    assert!(stats.spmm_passes < stats.spmm_passes_sequential_equiv);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The same 8 queries through two in-process cores: one answers each
/// query alone (`max_batch: 1`), the other stacks all 8 into one solve.
/// The 8th `submit` fills the batch and triggers the drain, so the
/// outcome does not depend on timing: the answers are bitwise equal,
/// iteration counts included, and stacking costs at most half the SpMM
/// passes (max(iters) instead of Σ iters).
#[test]
fn coalescing_eight_queries_halves_spmm_passes_bitwise() {
    const QUERIES: usize = 8;
    let h = coupling();
    let solve = |q: usize| Request::SolveLinBp {
        graph_id: 1,
        params: wire_params(&h),
        seeds: wire_seeds(q, 1.0),
    };
    let fresh_core = |max_batch: usize| {
        let core = ServerCore::new(ServerConfig {
            // Never the trigger: the coalescing core drains on its 8th job.
            coalesce_window: Duration::from_secs(5),
            max_batch,
            ..ServerConfig::default()
        });
        let registered = core.handle_blocking(Request::RegisterGraph {
            graph_id: 1,
            n_nodes: 10,
            symmetric: true,
            edges: wire_edges(),
        });
        assert!(matches!(registered, Response::Registered { .. }));
        core
    };
    let beliefs_of = |r: Response| match r {
        Response::Beliefs(payload) => payload,
        other => panic!("solve failed: {other:?}"),
    };

    let sequential = fresh_core(1);
    let solo: Vec<_> = (0..QUERIES)
        .map(|q| beliefs_of(sequential.handle_blocking(solve(q))))
        .collect();

    let coalesced = fresh_core(QUERIES);
    let (tx, rx) = mpsc::channel();
    for q in 0..QUERIES {
        let tx = tx.clone();
        coalesced.submit(solve(q), Box::new(move |r| drop(tx.send((q, r)))));
    }
    let mut stacked: Vec<_> = (0..QUERIES).map(|_| None).collect();
    for _ in 0..QUERIES {
        let (q, r) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        stacked[q] = Some(beliefs_of(r));
    }

    for (q, (a, b)) in solo.iter().zip(&stacked).enumerate() {
        let b = b.as_ref().expect("every query answered");
        assert_eq!(a.iterations, b.iterations, "query {q}: iterations");
        assert_eq!((a.converged, a.diverged), (b.converged, b.diverged));
        assert_eq!(a.final_delta.to_bits(), b.final_delta.to_bits());
        assert_bitwise(&format!("query {q}"), &b.beliefs, &a.beliefs);
    }
    let (seq, co) = (sequential.stats(), coalesced.stats());
    assert_eq!(co.largest_batch, QUERIES as u64);
    assert!(
        seq.spmm_passes >= 2 * co.spmm_passes,
        "sequential {} vs coalesced {} SpMM passes",
        seq.spmm_passes,
        co.spmm_passes
    );
}

/// Under the default config a query that finds the solver idle is solved
/// at once, alone, and queries that arrive while the solver is busy park
/// and drain together as one stacked batch. The first answer's responder
/// runs on the solver thread, so holding it there keeps the solver busy
/// while eight more queries arrive.
#[test]
fn default_admission_coalesces_only_while_the_solver_is_busy() {
    const PARKED: usize = 8;
    let h = coupling();
    let solve = |q: usize| Request::SolveLinBp {
        graph_id: 1,
        params: wire_params(&h),
        seeds: wire_seeds(q, 1.0),
    };
    let beliefs_of = |r: Response| match r {
        Response::Beliefs(payload) => payload,
        other => panic!("solve failed: {other:?}"),
    };
    let core = ServerCore::new(ServerConfig::default());
    let registered = core.handle_blocking(Request::RegisterGraph {
        graph_id: 1,
        n_nodes: 10,
        symmetric: true,
        edges: wire_edges(),
    });
    assert!(matches!(registered, Response::Registered { .. }));

    let (first_tx, first_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    core.submit(
        solve(0),
        Box::new(move |r| {
            first_tx.send(r).unwrap();
            release_rx.recv().unwrap();
        }),
    );
    let first = beliefs_of(first_rx.recv_timeout(Duration::from_secs(30)).unwrap());
    assert_eq!(first.served, ServedVia::Solo, "a query on an idle solver");

    let (tx, rx) = mpsc::channel();
    for q in 1..=PARKED {
        let tx = tx.clone();
        core.submit(solve(q), Box::new(move |r| drop(tx.send((q, r)))));
    }
    release_tx.send(()).unwrap();
    let adj = fixture_adjacency();
    for _ in 0..PARKED {
        let (q, r) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let payload = beliefs_of(r);
        assert_eq!(
            payload.served,
            ServedVia::Coalesced {
                batch: PARKED as u32
            },
            "query {q}"
        );
        let want = linbp_on(&adj, &lib_seeds(q, 1.0), &h, &lib_opts()).unwrap();
        assert_eq!(payload.iterations, want.iterations as u64, "query {q}");
        assert_bitwise(
            &format!("query {q}"),
            &payload.beliefs,
            want.beliefs.residual().as_slice(),
        );
    }

    let lone = beliefs_of(core.handle_blocking(solve(PARKED + 1)));
    assert_eq!(lone.served, ServedVia::Solo, "a query on an idle solver");
}

/// A query parked behind the solve of an identical one is answered from
/// the cache entry that solve leaves, not solved again. The solver is
/// held in a responder while two identical queries park; `max_batch: 1`
/// drains them one at a time, so the second finds the first's answer.
#[test]
fn parked_duplicate_is_answered_from_its_twins_cache_entry() {
    let h = coupling();
    let solve = |q: usize| Request::SolveLinBp {
        graph_id: 1,
        params: wire_params(&h),
        seeds: wire_seeds(q, 1.0),
    };
    let core = ServerCore::new(ServerConfig {
        max_batch: 1,
        ..ServerConfig::default()
    });
    let registered = core.handle_blocking(Request::RegisterGraph {
        graph_id: 1,
        n_nodes: 10,
        symmetric: true,
        edges: wire_edges(),
    });
    assert!(matches!(registered, Response::Registered { .. }));

    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    core.submit(
        solve(0),
        Box::new(move |_| {
            held_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }),
    );
    held_rx.recv_timeout(Duration::from_secs(30)).unwrap();
    let (tx, rx) = mpsc::channel();
    for copy in 0..2 {
        let tx = tx.clone();
        core.submit(solve(1), Box::new(move |r| drop(tx.send((copy, r)))));
    }
    release_tx.send(()).unwrap();
    let mut answers = [None, None];
    for _ in 0..2 {
        let (copy, r) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        match r {
            Response::Beliefs(payload) => answers[copy] = Some(payload),
            other => panic!("solve failed: {other:?}"),
        }
    }
    let [Some(first), Some(second)] = answers else {
        unreachable!("both copies answered")
    };
    assert_eq!(first.served, ServedVia::Solo);
    assert_eq!(second.served, ServedVia::Cache);
    assert_bitwise("parked duplicate", &second.beliefs, &first.beliefs);
    let stats = core.stats();
    assert_eq!((stats.queries_served, stats.cache_hits), (3, 1));
}

/// Re-inserting a cached key replaces its entry in place. Two identical
/// queries parked behind a held solver drain as one batch and both store
/// their answer; at capacity, the second store must neither evict another
/// entry nor leave a second eviction slot behind for the live one.
#[test]
fn identical_pair_in_one_batch_keeps_the_other_cached_answers() {
    let h = coupling();
    let solve = |q: usize| Request::SolveLinBp {
        graph_id: 1,
        params: wire_params(&h),
        seeds: wire_seeds(q, 1.0),
    };
    let core = ServerCore::new(ServerConfig {
        cache_capacity: 3,
        ..ServerConfig::default()
    });
    let registered = core.handle_blocking(Request::RegisterGraph {
        graph_id: 1,
        n_nodes: 10,
        symmetric: true,
        edges: wire_edges(),
    });
    assert!(matches!(registered, Response::Registered { .. }));

    // Two cached answers; the second holds the solver in its responder.
    assert!(matches!(
        core.handle_blocking(solve(0)),
        Response::Beliefs(_)
    ));
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    core.submit(
        solve(1),
        Box::new(move |_| {
            held_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }),
    );
    held_rx.recv_timeout(Duration::from_secs(30)).unwrap();
    let (tx, rx) = mpsc::channel();
    for _ in 0..2 {
        let tx = tx.clone();
        core.submit(solve(2), Box::new(move |r| drop(tx.send(r))));
    }
    release_tx.send(()).unwrap();
    for _ in 0..2 {
        match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
            Response::Beliefs(p) => assert_eq!(p.served, ServedVia::Coalesced { batch: 2 }),
            other => panic!("solve failed: {other:?}"),
        }
    }

    for q in 0..2 {
        match core.handle_blocking(solve(q)) {
            Response::Beliefs(p) => assert_eq!(p.served, ServedVia::Cache, "answer {q}"),
            other => panic!("solve failed: {other:?}"),
        }
    }
    assert_eq!(core.stats().cached_entries, 3);
}

/// `ServerConfig::parallelism` is the solve configuration: its memory
/// budget sizes the buffer pool a spilled graph is solved through. A core
/// with a 1-byte budget evicts shards during the solve, an unbudgeted
/// one never does, and both answer bit for bit alike.
#[test]
fn server_parallelism_config_reaches_solves() {
    let h = coupling();
    let answer = |name: &str, budget: usize| {
        let scratch = spill_scratch(name);
        let core = ServerCore::new(ServerConfig {
            spill_dir: Some(scratch.dir().to_path_buf()),
            parallelism: ParallelismConfig::from_env().with_memory_budget(budget),
            ..ServerConfig::default()
        });
        let registered = core.handle_blocking(Request::RegisterGraph {
            graph_id: 1,
            n_nodes: 200,
            symmetric: true,
            edges: wire_edges(),
        });
        assert!(matches!(registered, Response::Registered { .. }));
        let payload = match core.handle_blocking(Request::SolveLinBp {
            graph_id: 1,
            params: wire_params(&h),
            seeds: wire_seeds(0, 1.0),
        }) {
            Response::Beliefs(payload) => payload,
            other => panic!("solve failed: {other:?}"),
        };
        let stats = core.stats();
        (payload, stats.pager_misses, stats.pager_evictions)
    };
    let (budgeted, misses_small, evictions_small) = answer("config-budget", 1);
    let (unbudgeted, misses_none, evictions_none) = answer("config-unbudgeted", 0);
    assert!(
        evictions_small > 0 && misses_small > misses_none,
        "1-byte budget: {misses_small} misses, {evictions_small} evictions \
         (unbudgeted: {misses_none} misses)"
    );
    assert_eq!(evictions_none, 0, "the unbudgeted pool evicted");
    assert_eq!(budgeted.iterations, unbudgeted.iterations);
    assert_bitwise(
        "budgeted vs unbudgeted",
        &budgeted.beliefs,
        &unbudgeted.beliefs,
    );
}

/// Identical queries parked into one batch are solved as one stacked
/// column: the pair adds exactly one solo solve's frontier rows, and
/// both get that solve's answer.
#[test]
fn identical_parked_pair_is_solved_once() {
    let h = coupling();
    let solve = |q: usize| Request::SolveLinBp {
        graph_id: 1,
        params: wire_params(&h),
        seeds: wire_seeds(q, 1.0),
    };
    let core = ServerCore::new(ServerConfig::default());
    let registered = core.handle_blocking(Request::RegisterGraph {
        graph_id: 1,
        n_nodes: 10,
        symmetric: true,
        edges: wire_edges(),
    });
    assert!(matches!(registered, Response::Registered { .. }));
    // A solo solve of the query the pair repeats, on a core of its own.
    let solo_core = ServerCore::new(ServerConfig::default());
    assert!(matches!(
        solo_core.handle_blocking(Request::RegisterGraph {
            graph_id: 1,
            n_nodes: 10,
            symmetric: true,
            edges: wire_edges(),
        }),
        Response::Registered { .. }
    ));
    let solo = match solo_core.handle_blocking(solve(2)) {
        Response::Beliefs(p) => p,
        other => panic!("solve failed: {other:?}"),
    };
    assert_eq!(solo.served, ServedVia::Solo);
    let solo_rows = solo_core.stats().frontier_rows_active;
    assert!(solo_rows > 0);

    // Hold the solver in a responder so the pair parks behind it.
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    core.submit(
        solve(1),
        Box::new(move |_| {
            held_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }),
    );
    held_rx.recv_timeout(Duration::from_secs(30)).unwrap();
    let before = core.stats();
    let (tx, rx) = mpsc::channel();
    for _ in 0..2 {
        let tx = tx.clone();
        core.submit(solve(2), Box::new(move |r| drop(tx.send(r))));
    }
    release_tx.send(()).unwrap();
    for _ in 0..2 {
        match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
            Response::Beliefs(p) => {
                assert_eq!(p.served, ServedVia::Coalesced { batch: 2 });
                assert_eq!(p.iterations, solo.iterations);
                assert_bitwise("twin vs solo", &p.beliefs, &solo.beliefs);
            }
            other => panic!("solve failed: {other:?}"),
        }
    }
    let after = core.stats();
    assert_eq!(
        after.frontier_rows_active - before.frontier_rows_active,
        solo_rows,
        "the pair must cost one solo solve's rows"
    );
    assert_eq!(after.queries_served - before.queries_served, 2);
    assert_eq!(after.spmm_passes - before.spmm_passes, solo.iterations);
    assert_eq!(
        after.spmm_passes_sequential_equiv - before.spmm_passes_sequential_equiv,
        solo.iterations
    );
    assert_eq!(after.cached_entries, 2, "one entry per distinct query");
}

/// Queries whose convergence points differ by orders of magnitude still
/// coalesce safely: per-query freeze masks keep each answer identical to
/// its solo solve even though the batch runs to the slowest query's
/// iteration count.
#[test]
fn mixed_convergence_batch_matches_per_query_solves() {
    let config = ServerConfig {
        coalesce_window: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let (addr, _core, handle) = spawn_server(config);
    let mut client = Client::connect(addr).unwrap();
    client.register_graph(7, 10, true, wire_edges()).unwrap();

    let h = coupling();
    // Same params (so the queries group), wildly different seed scales
    // (so their convergence iterations differ under the absolute tol).
    let scales = [1.0, 1e8];
    let barrier = Barrier::new(scales.len());
    let payloads: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = scales
            .iter()
            .map(|&scale| {
                let (barrier, h) = (&barrier, &h);
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    barrier.wait();
                    c.solve_linbp(7, wire_params(h), wire_seeds(0, scale))
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|t| t.join().unwrap()).collect()
    });

    let adj = fixture_adjacency();
    let opts = lib_opts();
    for (payload, &scale) in payloads.iter().zip(&scales) {
        let reference = linbp_on(&adj, &lib_seeds(0, scale), &h, &opts).unwrap();
        assert!(payload.converged && reference.converged);
        assert_eq!(
            payload.iterations, reference.iterations as u64,
            "scale {scale}: freeze mask must preserve the solo iteration count"
        );
        assert_bitwise(
            &format!("scale {scale}"),
            &payload.beliefs,
            reference.beliefs.residual().as_slice(),
        );
    }
    // The point of the fixture: the two queries converge at genuinely
    // different iterations.
    assert_ne!(payloads[0].iterations, payloads[1].iterations);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A full admission queue rejects further queries with `Overloaded`
/// instead of buffering without bound.
#[test]
fn admission_backpressure_rejects_with_overloaded() {
    // No TCP needed: drive the core directly so the queue can be held
    // full (the long window keeps parked jobs parked).
    let core = ServerCore::new(ServerConfig {
        coalesce_window: Duration::from_secs(30),
        max_batch: 64,
        max_pending: 2,
        ..ServerConfig::default()
    });
    let register = Request::RegisterGraph {
        graph_id: 1,
        n_nodes: 10,
        symmetric: true,
        edges: wire_edges(),
    };
    assert!(matches!(
        core.handle_blocking(register),
        Response::Registered { .. }
    ));

    let h = coupling();
    let (tx, rx) = mpsc::channel();
    for q in 0..3 {
        let tx = tx.clone();
        core.submit(
            Request::SolveLinBp {
                graph_id: 1,
                params: wire_params(&h),
                seeds: wire_seeds(q, 1.0),
            },
            Box::new(move |r| drop(tx.send((q, r)))),
        );
    }
    // Only the third query (queue already holds max_pending = 2) answers
    // immediately — with Overloaded.
    let (q, response) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(q, 2);
    match response {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Dropping the core force-drains the two parked queries; their
    // responders must still fire (with real results).
    drop(core);
    for _ in 0..2 {
        let (_, response) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(response, Response::Beliefs(_)));
    }
}

/// Cache behavior across an edge delta: repeat queries hit the cache,
/// the delta patches (not invalidates) LinBP entries, and the patched
/// entry is bitwise the library patch path.
#[test]
fn edge_delta_patches_cache_bitwise() {
    let (addr, core, handle) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    client.register_graph(3, 10, true, wire_edges()).unwrap();

    let h = coupling();
    let first = client
        .solve_linbp(3, wire_params(&h), wire_seeds(0, 1.0))
        .unwrap();
    assert_eq!(first.served, ServedVia::Solo);

    let again = client
        .solve_linbp(3, wire_params(&h), wire_seeds(0, 1.0))
        .unwrap();
    assert_eq!(again.served, ServedVia::Cache);
    assert_bitwise("cache hit", &again.beliefs, &first.beliefs);
    assert_eq!(core.stats().cache_hits, 1);

    let raw_deltas = [(1usize, 2usize, 0.5), (0, 4, 0.75)];
    let deltas: Vec<WireEdge> = raw_deltas
        .iter()
        .map(|&(s, t, w)| WireEdge {
            src: s as u64,
            dst: t as u64,
            weight: w,
        })
        .collect();
    let (version, patched, invalidated) = client.edge_delta(3, true, deltas).unwrap();
    assert_eq!(version, 2);
    assert_eq!(patched, 1, "the cached LinBP entry must be patched forward");
    assert_eq!(invalidated, 0);

    let requeried = client
        .solve_linbp(3, wire_params(&h), wire_seeds(0, 1.0))
        .unwrap();
    assert_eq!(requeried.served, ServedVia::CachePatched);

    // Library patch path on the same inputs.
    let adj = fixture_adjacency();
    let mut both_dirs = Vec::new();
    for &(s, t, w) in &raw_deltas {
        both_dirs.push((s, t, w));
        both_dirs.push((t, s, w));
    }
    let new_adj = adj.try_with_edge_deltas(&both_dirs).unwrap();
    let previous = BeliefMatrix::from_mat(Mat::from_vec(10, K, first.beliefs.clone()));
    let seed = linbp_edge_delta_seed(&adj, &both_dirs, &previous, &h, true).unwrap();
    let patched_ref = linbp_update(&new_adj, &previous, &seed, &h, &lib_opts(), true).unwrap();
    assert_bitwise(
        "patched entry",
        &requeried.beliefs,
        patched_ref.beliefs.residual().as_slice(),
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Registrations and edge deltas run on the solver thread, and nothing
/// inline waits for them. With the solver held in a responder, an edge
/// delta is only queued (`submit` returns before it is answered), while
/// ping, stats, health and a cache hit on another graph answer inline. A
/// read of the delta's graph submitted meanwhile waits behind the delta
/// and is answered from the patched cache, bitwise the library's
/// `linbp_edge_delta_seed` + `linbp_update` chain.
#[test]
fn edge_delta_runs_on_the_solver_thread_while_inline_paths_answer() {
    let h = coupling();
    let solve = |graph_id: u64, q: usize| Request::SolveLinBp {
        graph_id,
        params: wire_params(&h),
        seeds: wire_seeds(q, 1.0),
    };
    let beliefs_of = |r: Response| match r {
        Response::Beliefs(payload) => payload,
        other => panic!("solve failed: {other:?}"),
    };
    let core = ServerCore::new(ServerConfig::default());
    for graph_id in [1, 2] {
        let registered = core.handle_blocking(Request::RegisterGraph {
            graph_id,
            n_nodes: 10,
            symmetric: true,
            edges: wire_edges(),
        });
        assert!(matches!(registered, Response::Registered { .. }));
    }
    let first = beliefs_of(core.handle_blocking(solve(1, 0)));
    beliefs_of(core.handle_blocking(solve(2, 0)));

    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    core.submit(
        solve(2, 1),
        Box::new(move |_| {
            held_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }),
    );
    held_rx.recv_timeout(Duration::from_secs(30)).unwrap();

    // Submits `request` and returns the answer it got before `submit`
    // returned, if any.
    let submit = |request: Request| {
        let (tx, rx) = mpsc::channel();
        core.submit(request, Box::new(move |r| drop(tx.send(r))));
        (rx.try_recv().ok(), rx)
    };
    let raw_deltas = [(1usize, 2usize, 0.5), (0, 4, 0.75)];
    let (early, delta_rx) = submit(Request::EdgeDelta {
        graph_id: 1,
        symmetric: true,
        deltas: raw_deltas
            .iter()
            .map(|&(s, t, w)| WireEdge {
                src: s as u64,
                dst: t as u64,
                weight: w,
            })
            .collect(),
    });
    assert!(
        early.is_none(),
        "an edge delta must wait for the solver thread, got {early:?}"
    );
    assert!(matches!(
        submit(Request::Ping).0,
        Some(Response::Pong { .. })
    ));
    assert!(matches!(submit(Request::Stats).0, Some(Response::Stats(_))));
    match submit(Request::Health).0 {
        Some(Response::Health(health)) => assert_eq!(health.stats.graphs, 2),
        other => panic!("health must answer inline, got {other:?}"),
    }
    match submit(solve(2, 0)).0 {
        Some(Response::Beliefs(p)) => assert_eq!(p.served, ServedVia::Cache),
        other => panic!("a cache hit on another graph must answer inline, got {other:?}"),
    }
    let (early, read_rx) = submit(solve(1, 0));
    assert!(
        early.is_none(),
        "a read of a graph with a pending delta must wait for it, got {early:?}"
    );

    release_tx.send(()).unwrap();
    match delta_rx.recv_timeout(Duration::from_secs(30)).unwrap() {
        Response::DeltaApplied {
            version,
            patched,
            invalidated,
            ..
        } => assert_eq!((version, patched, invalidated), (2, 1, 0)),
        other => panic!("expected DeltaApplied, got {other:?}"),
    }
    let reread = beliefs_of(read_rx.recv_timeout(Duration::from_secs(30)).unwrap());
    assert_eq!(reread.served, ServedVia::CachePatched);

    let adj = fixture_adjacency();
    let both_dirs: Vec<(usize, usize, f64)> = raw_deltas
        .iter()
        .flat_map(|&(s, t, w)| [(s, t, w), (t, s, w)])
        .collect();
    let new_adj = adj.try_with_edge_deltas(&both_dirs).unwrap();
    let previous = BeliefMatrix::from_mat(Mat::from_vec(10, K, first.beliefs));
    let seed = linbp_edge_delta_seed(&adj, &both_dirs, &previous, &h, true).unwrap();
    let patched = linbp_update(&new_adj, &previous, &seed, &h, &lib_opts(), true).unwrap();
    assert_bitwise(
        "read behind the delta",
        &reread.beliefs,
        patched.beliefs.residual().as_slice(),
    );
}

/// Hostile or invalid inputs come back as typed errors — never panics,
/// never poisoned batches.
#[test]
fn invalid_requests_get_typed_errors() {
    let (addr, _core, handle) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();

    fn expect_err<T: std::fmt::Debug>(r: Result<T, ClientError>, want: ErrorCode, label: &str) {
        match r {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, want, "{label}"),
            other => panic!("{label}: expected {want:?}, got {other:?}"),
        }
    }

    let h = coupling();
    // Unknown graph.
    expect_err(
        client.solve_linbp(99, wire_params(&h), wire_seeds(0, 1.0)),
        ErrorCode::UnknownGraph,
        "unknown graph",
    );
    client.register_graph(1, 10, true, wire_edges()).unwrap();
    // Duplicate registration.
    expect_err(
        client.register_graph(1, 10, true, wire_edges()),
        ErrorCode::GraphAlreadyRegistered,
        "duplicate register",
    );
    // k = 1 would panic ExplicitBeliefs::new if it reached the solver.
    let mut bad = wire_params(&h);
    bad.k = 1;
    bad.h_residual = vec![0.0];
    expect_err(
        client.solve_linbp(1, bad, vec![]),
        ErrorCode::BadRequest,
        "k too small",
    );
    // Seed node out of range (CooMatrix/ExplicitBeliefs would panic).
    expect_err(
        client.solve_linbp(
            1,
            wire_params(&h),
            vec![WireSeed {
                node: 10,
                residual: vec![2.0, -1.0, -1.0],
            }],
        ),
        ErrorCode::BadRequest,
        "seed out of range",
    );
    // Non-centered seed row.
    expect_err(
        client.solve_linbp(
            1,
            wire_params(&h),
            vec![WireSeed {
                node: 0,
                residual: vec![1.0, 1.0, 1.0],
            }],
        ),
        ErrorCode::BadRequest,
        "uncentered seed",
    );
    // Edge delta out of bounds.
    expect_err(
        client.edge_delta(
            1,
            true,
            vec![WireEdge {
                src: 0,
                dst: 99,
                weight: 1.0,
            }],
        ),
        ErrorCode::BadRequest,
        "delta out of bounds",
    );
    // Edge delta with an infinite weight.
    expect_err(
        client.edge_delta(
            1,
            true,
            vec![WireEdge {
                src: 0,
                dst: 1,
                weight: f64::INFINITY,
            }],
        ),
        ErrorCode::BadRequest,
        "infinite delta weight",
    );
    // Neither rejected delta bumped the version: the next delta makes 2.
    let (version, _, _) = client
        .edge_delta(
            1,
            true,
            vec![WireEdge {
                src: 0,
                dst: 1,
                weight: 0.5,
            }],
        )
        .unwrap();
    assert_eq!(version, 2, "a rejected delta bumped the version");
    // Registration edges get the same checks: out of range, NaN weight.
    for (edge, label) in [
        (
            WireEdge {
                src: 0,
                dst: 10,
                weight: 1.0,
            },
            "registration edge out of range",
        ),
        (
            WireEdge {
                src: 0,
                dst: 1,
                weight: f64::NAN,
            },
            "registration edge with NaN weight",
        ),
    ] {
        let mut edges = wire_edges();
        edges.push(edge);
        expect_err(
            client.register_graph(2, 10, true, edges),
            ErrorCode::BadRequest,
            label,
        );
    }
    // Neither rejected registration published graph 2: it still
    // registers fresh, at version 1.
    let (version, _) = client.register_graph(2, 10, true, wire_edges()).unwrap();
    assert_eq!(version, 1, "a rejected registration left graph 2 behind");
    // A malformed frame (bogus request tag inside a valid envelope) gets
    // a typed error too — on a raw socket, below the typed client. The
    // error envelope must echo the salvaged correlation id.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let mut bogus = 0xDEAD_BEEFu64.to_le_bytes().to_vec(); // request id
    bogus.push(0); // no deadline
    bogus.extend_from_slice(&[0xFF, 0xFF]); // unknown request tag
    lsbp_net::write_frame(&mut raw, &bogus).unwrap();
    let payload = lsbp_net::read_frame(&mut raw)
        .unwrap()
        .expect("server must answer before closing");
    let envelope = ResponseEnvelope::decode(&payload).unwrap();
    assert_eq!(envelope.request_id, 0xDEAD_BEEF);
    match envelope.response {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest for bogus tag, got {other:?}"),
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

// ---------------------------------------------------------------------------
// Fault tolerance: deadlines, panic isolation, slow writers, retries,
// degradation. (The seeded fault-injection storm lives in tests/chaos.rs.)
// ---------------------------------------------------------------------------

/// A request whose deadline expires while parked in the admission queue
/// is answered with `DeadlineExceeded` at drain time — without burning a
/// solve slot and without touching its batch-mates.
#[test]
fn deadline_expired_while_parked_is_answered_typed() {
    let core = ServerCore::new(ServerConfig {
        // A window long enough that drain is triggered by batch-full, so
        // the expiry happens strictly while parked.
        coalesce_window: Duration::from_secs(10),
        max_batch: 2,
        ..ServerConfig::default()
    });
    assert!(matches!(
        core.handle_blocking(Request::RegisterGraph {
            graph_id: 1,
            n_nodes: 10,
            symmetric: true,
            edges: wire_edges(),
        }),
        Response::Registered { .. }
    ));

    let h = coupling();
    let (tx, rx) = mpsc::channel();
    let tx1 = tx.clone();
    core.submit_at(
        Request::SolveLinBp {
            graph_id: 1,
            params: wire_params(&h),
            seeds: wire_seeds(0, 1.0),
        },
        Some(Instant::now() + Duration::from_millis(50)),
        Box::new(move |r| drop(tx1.send((0, r)))),
    );
    thread::sleep(Duration::from_millis(120)); // let the budget lapse
    core.submit_at(
        Request::SolveLinBp {
            graph_id: 1,
            params: wire_params(&h),
            seeds: wire_seeds(1, 1.0),
        },
        None,
        Box::new(move |r| drop(tx.send((1, r)))),
    );

    let mut responses = std::collections::HashMap::new();
    for _ in 0..2 {
        let (q, r) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        responses.insert(q, r);
    }
    match &responses[&0] {
        Response::Error {
            code,
            retry_after_ms,
            ..
        } => {
            assert_eq!(*code, ErrorCode::DeadlineExceeded);
            assert!(retry_after_ms.is_some(), "deadline errors carry a hint");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    match &responses[&1] {
        Response::Beliefs(payload) => {
            let reference =
                linbp_on(&fixture_adjacency(), &lib_seeds(1, 1.0), &h, &lib_opts()).unwrap();
            assert_bitwise(
                "batch-mate of expired job",
                &payload.beliefs,
                reference.beliefs.residual().as_slice(),
            );
        }
        other => panic!("expected Beliefs, got {other:?}"),
    }
    let stats = core.stats();
    assert_eq!(stats.rejected_deadline, 1);
}

/// An already-expired deadline is rejected at admission, straight off the
/// wire, and the connection remains usable.
#[test]
fn expired_deadline_is_rejected_at_admission() {
    let (addr, core, handle) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    client.register_graph(1, 10, true, wire_edges()).unwrap();

    let h = coupling();
    client.set_deadline_ms(Some(0));
    match client.solve_linbp(1, wire_params(&h), wire_seeds(0, 1.0)) {
        Err(ClientError::Server {
            code,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(code, ErrorCode::DeadlineExceeded);
            assert!(retry_after_ms.is_some());
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // Same connection, budget cleared: everything still works.
    client.set_deadline_ms(None);
    let payload = client
        .solve_linbp(1, wire_params(&h), wire_seeds(0, 1.0))
        .unwrap();
    let reference = linbp_on(&fixture_adjacency(), &lib_seeds(0, 1.0), &h, &lib_opts()).unwrap();
    assert_bitwise(
        "post-deadline solve",
        &payload.beliefs,
        reference.beliefs.residual().as_slice(),
    );
    assert_eq!(core.stats().rejected_deadline, 1);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A panic inside a solve answers that batch with `Internal` and leaves
/// the server fully operational: same connection, other graphs, registry
/// and cache all intact.
#[test]
fn panicking_solve_is_isolated_from_the_event_loop() {
    let (addr, core, handle) = spawn_server(ServerConfig {
        // Fault-injection hook: graph 13 panics inside the solver.
        panic_on_graph: Some(13),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client.register_graph(13, 10, true, wire_edges()).unwrap();
    client.register_graph(14, 10, true, wire_edges()).unwrap();

    let h = coupling();
    match client.solve_linbp(13, wire_params(&h), wire_seeds(0, 1.0)) {
        Err(ClientError::Server { code, message, .. }) => {
            assert_eq!(code, ErrorCode::Internal);
            assert!(message.contains("panic"), "message was: {message}");
        }
        other => panic!("expected Internal from panicking solve, got {other:?}"),
    }

    // The same connection survived the panic, and an unrelated graph
    // solves bitwise-clean.
    assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION);
    let payload = client
        .solve_linbp(14, wire_params(&h), wire_seeds(2, 1.0))
        .unwrap();
    let reference = linbp_on(&fixture_adjacency(), &lib_seeds(2, 1.0), &h, &lib_opts()).unwrap();
    assert_bitwise(
        "solve after panic",
        &payload.beliefs,
        reference.beliefs.residual().as_slice(),
    );
    let health = client.health().unwrap();
    assert_eq!(health.stats.graphs, 2, "registry intact after panic");
    assert_eq!(core.stats().panics_caught, 1);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A peer that requests a pile of large responses and never reads them
/// is evicted once its buffered response bytes exceed `max_write_buf` —
/// while a well-behaved client on the same server is answered bitwise.
#[test]
fn slow_writer_is_evicted_without_harming_others() {
    // Large enough that one belief payload (n·k·8 ≈ 2.4 MB) cannot hide
    // in kernel socket buffers — the server's own write buffer must hold
    // the bytes, which is what the bound evicts on.
    let n: usize = 100_000;
    let (addr, _core, handle) = spawn_server(ServerConfig {
        // One belief payload for the big ring is ~2.4 MB, far past this.
        max_write_buf: 64 * 1024,
        write_stall_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });

    let ring: Vec<WireEdge> = (0..n)
        .map(|i| WireEdge {
            src: i as u64,
            dst: ((i + 1) % n) as u64,
            weight: 1.0,
        })
        .collect();
    let mut client = Client::connect(addr).unwrap();
    client.register_graph(42, n as u64, true, ring).unwrap();

    let h = coupling();
    let seeds = vec![
        WireSeed {
            node: 0,
            residual: vec![2.0, -1.0, -1.0],
        },
        WireSeed {
            node: (n / 2) as u64,
            residual: vec![-1.0, 2.0, -1.0],
        },
    ];
    let solve = Request::SolveLinBp {
        graph_id: 42,
        params: wire_params(&h),
        seeds: seeds.clone(),
    };

    // The slow writer: pipeline eight large solves, read nothing.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_nodelay(true).unwrap();
    for rid in 1..=8u64 {
        let payload = RequestEnvelope::new(rid, solve.clone()).encode();
        slow.write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        slow.write_all(&payload).unwrap();
    }

    // Meanwhile a well-behaved client gets its (identical) answer.
    let payload = client.solve_linbp(42, wire_params(&h), seeds).unwrap();
    let mut ring_graph = Graph::new(n);
    for i in 0..n {
        ring_graph.add_edge(i, (i + 1) % n, 1.0);
    }
    let mut explicit = ExplicitBeliefs::new(n, K);
    explicit.set_residual(0, &[2.0, -1.0, -1.0]).unwrap();
    explicit.set_residual(n / 2, &[-1.0, 2.0, -1.0]).unwrap();
    let reference = linbp_on(&ring_graph.adjacency(), &explicit, &h, &lib_opts()).unwrap();
    assert_bitwise(
        "well-behaved client during slow-writer abuse",
        &payload.beliefs,
        reference.beliefs.residual().as_slice(),
    );

    // The slow writer must be evicted (EOF or reset), not served forever
    // from an unbounded buffer. Drain with a timeout so a regression
    // fails fast instead of hanging.
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let start = Instant::now();
    let mut sink = vec![0u8; 64 * 1024];
    loop {
        match slow.read(&mut sink) {
            Ok(0) => break, // clean close
            Ok(_) => {}     // residual buffered bytes
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                ) =>
            {
                break
            }
            Err(e) => panic!("expected eviction, got {e}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "slow writer was never evicted"
        );
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Under real overload (full admission group), a `RetryingClient`
/// backs off per the server's hint and recovers the answer — bitwise.
#[test]
fn retrying_client_recovers_from_overload() {
    let (addr, core, handle) = spawn_server(ServerConfig {
        coalesce_window: Duration::from_millis(150),
        max_pending: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client.register_graph(5, 10, true, wire_edges()).unwrap();

    let h = coupling();
    // Occupier: parks one job, filling the group (max_pending = 1).
    let occupier = {
        let h = h.clone();
        thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.solve_linbp(5, wire_params(&h), wire_seeds(3, 1.0))
                .unwrap()
        })
    };
    thread::sleep(Duration::from_millis(30)); // let the occupier park

    let mut retrying = RetryingClient::new(
        addr.to_string(),
        ClientConfig::default(),
        RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(30),
            max_delay: Duration::from_millis(500),
            seed: 7,
        },
    );
    let payload = retrying
        .solve_linbp(5, wire_params(&h), &wire_seeds(4, 1.0))
        .expect("retry policy must recover the answer");
    let reference = linbp_on(&fixture_adjacency(), &lib_seeds(4, 1.0), &h, &lib_opts()).unwrap();
    assert_bitwise(
        "retried solve",
        &payload.beliefs,
        reference.beliefs.residual().as_slice(),
    );
    occupier.join().unwrap();
    assert!(
        core.stats().rejected_overloaded >= 1,
        "the test must have exercised a real rejection"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// `Health` answers instantly with liveness numbers, and every rejection
/// path increments its typed counter.
#[test]
fn health_ping_and_rejection_counters() {
    let (addr, core, handle) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();

    let health = client.health().unwrap();
    assert_eq!(health.protocol_version, PROTOCOL_VERSION);
    assert_eq!(health.stats.graphs, 0);
    assert_eq!(health.queue_depth, 0);

    client.register_graph(1, 10, true, wire_edges()).unwrap();
    let health = client.health().unwrap();
    assert_eq!(health.stats.graphs, 1);

    let h = coupling();
    // Two invalid requests: unknown graph, then malformed params.
    let _ = client.solve_linbp(99, wire_params(&h), wire_seeds(0, 1.0));
    let mut bad = wire_params(&h);
    bad.k = 1;
    bad.h_residual = vec![0.0];
    let _ = client.solve_linbp(1, bad, vec![]);
    let stats = core.stats();
    assert_eq!(stats.rejected_invalid, 2);
    assert_eq!(stats.rejected_overloaded, 0);
    assert_eq!(stats.rejected_deadline, 0);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Satellite regression: a frame header claiming an absurd length is
/// rejected with a clean typed error the moment the 4th header byte
/// arrives — even dribbled one byte at a time — and a partial header
/// followed by silence never wedges the accept loop.
/// `Health` carries the `Stats` counters whole: once the server is
/// quiescent (every request answered, nothing parked) the two views are
/// equal.
#[test]
fn health_carries_the_stats_counters() {
    let (addr, _core, handle) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    client.register_graph(1, 10, true, wire_edges()).unwrap();

    let h = coupling();
    for shift in [0, 1, 0] {
        client
            .solve_linbp(1, wire_params(&h), wire_seeds(shift, 1.0))
            .unwrap();
    }
    let delta = WireEdge {
        src: 1,
        dst: 2,
        weight: 0.5,
    };
    client.edge_delta(1, true, vec![delta]).unwrap();
    let _ = client.solve_linbp(99, wire_params(&h), wire_seeds(0, 1.0));

    let stats = client.stats().unwrap();
    assert_eq!(stats.queries_served, 3);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.patched_entries, 2);
    assert_eq!(stats.rejected_invalid, 1);
    assert_eq!(client.health().unwrap().stats, stats);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn oversized_header_dribble_gets_clean_bad_request() {
    let (addr, _core, handle) = spawn_server(ServerConfig::default());

    // Dribble a 1 GiB claim one byte at a time.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_nodelay(true).unwrap();
    for byte in (1u32 << 30).to_le_bytes() {
        raw.write_all(&[byte]).unwrap();
        thread::sleep(Duration::from_millis(5));
    }
    let payload = lsbp_net::read_frame(&mut raw)
        .unwrap()
        .expect("server must answer the oversize claim before closing");
    let envelope = ResponseEnvelope::decode(&payload).unwrap();
    match envelope.response {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest for oversized claim, got {other:?}"),
    }
    // And the connection is then closed, not left buffering.
    assert!(lsbp_net::read_frame(&mut raw).unwrap().is_none());

    // A half-header that goes silent: drop it and make sure the server
    // still serves everyone else.
    let mut stall = TcpStream::connect(addr).unwrap();
    stall.write_all(&[0x10, 0x00]).unwrap();
    drop(stall);

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Opt-in `StaleCache` degradation: when the admission group is full, a
/// query whose exact answer exists for an **older** graph version is
/// served that answer, labelled `ServedVia::Stale`, instead of being
/// rejected.
#[test]
fn stale_cache_degradation_serves_old_version_when_overloaded() {
    let core = ServerCore::new(ServerConfig {
        coalesce_window: Duration::from_millis(200),
        max_pending: 1,
        degradation: DegradationPolicy::StaleCache,
        ..ServerConfig::default()
    });
    assert!(matches!(
        core.handle_blocking(Request::RegisterGraph {
            graph_id: 9,
            n_nodes: 10,
            symmetric: true,
            edges: wire_edges(),
        }),
        Response::Registered { .. }
    ));

    let rwr_params = RwrParams {
        k: K as u32,
        restart: 0.15,
        max_iter: 300,
        tol: 1e-12,
        norm: WireNorm::MaxAbs,
    };
    let rwr_query = |seeds| Request::SolveRwr {
        graph_id: 9,
        params: rwr_params,
        seeds,
    };
    // Populate the cache at v1 (blocks for one coalesce window).
    let v1 = match core.handle_blocking(rwr_query(wire_seeds(0, 1.0))) {
        Response::Beliefs(p) => p,
        other => panic!("expected Beliefs, got {other:?}"),
    };

    // Advance the graph to v2. RWR entries cannot be patched; under
    // StaleCache they are retained at their old version instead of
    // discarded.
    match core.handle_blocking(Request::EdgeDelta {
        graph_id: 9,
        symmetric: true,
        deltas: vec![WireEdge {
            src: 0,
            dst: 4,
            weight: 0.5,
        }],
    }) {
        Response::DeltaApplied { invalidated, .. } => assert!(invalidated >= 1),
        other => panic!("expected DeltaApplied, got {other:?}"),
    }

    // Fill the v2 group (max_pending = 1), then ask again: full group +
    // a v1 answer on file = degraded stale serve.
    let (tx, rx) = mpsc::channel();
    core.submit(
        rwr_query(wire_seeds(0, 1.0)),
        Box::new(move |r| drop(tx.send(r))),
    );
    let degraded = match core.handle_blocking(rwr_query(wire_seeds(0, 1.0))) {
        Response::Beliefs(p) => p,
        other => panic!("expected degraded Beliefs, got {other:?}"),
    };
    assert_eq!(degraded.served, ServedVia::Stale { version: 1 });
    assert_bitwise("stale serve == v1 answer", &degraded.beliefs, &v1.beliefs);
    assert_eq!(core.stats().degraded_stale, 1);

    // The parked v2 job still drains with a real (fresh) solve.
    match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
        Response::Beliefs(fresh) => {
            assert!(!matches!(fresh.served, ServedVia::Stale { .. }));
        }
        other => panic!("expected fresh Beliefs for parked job, got {other:?}"),
    }
}

/// Opt-in `ClampIter` degradation: past the backlog high-water mark,
/// expensive queries get their iteration budget clamped — and the served
/// answer is bitwise the library solve at the clamped budget.
#[test]
fn clamp_iter_degradation_is_bitwise_at_the_clamped_budget() {
    let core = ServerCore::new(ServerConfig {
        coalesce_window: Duration::from_millis(150),
        max_pending: 2, // high-water mark = 1 parked job
        degradation: DegradationPolicy::ClampIter(50),
        ..ServerConfig::default()
    });
    assert!(matches!(
        core.handle_blocking(Request::RegisterGraph {
            graph_id: 2,
            n_nodes: 10,
            symmetric: true,
            edges: wire_edges(),
        }),
        Response::Registered { .. }
    ));

    let h = coupling();
    // Park one job (distinct params => its own group, un-clamped since
    // the backlog was empty when it arrived).
    let mut parked_params = wire_params(&h);
    parked_params.tol = 1e-10;
    let (tx, rx) = mpsc::channel();
    let tx_parked = tx.clone();
    core.submit(
        Request::SolveLinBp {
            graph_id: 2,
            params: parked_params,
            seeds: wire_seeds(1, 1.0),
        },
        Box::new(move |r| drop(tx_parked.send(("parked", r)))),
    );

    // Now the backlog is at the high-water mark: this query's 300
    // iterations are clamped to 50.
    core.submit(
        Request::SolveLinBp {
            graph_id: 2,
            params: wire_params(&h),
            seeds: wire_seeds(0, 1.0),
        },
        Box::new(move |r| drop(tx.send(("clamped", r)))),
    );

    let mut clamped_payload = None;
    for _ in 0..2 {
        let (who, r) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        match r {
            Response::Beliefs(p) => {
                if who == "clamped" {
                    clamped_payload = Some(p);
                }
            }
            other => panic!("{who}: expected Beliefs, got {other:?}"),
        }
    }
    let clamped = clamped_payload.expect("clamped query answered");
    let mut clamped_opts = lib_opts();
    clamped_opts.max_iter = 50;
    let reference = linbp_on(&fixture_adjacency(), &lib_seeds(0, 1.0), &h, &clamped_opts).unwrap();
    assert_eq!(clamped.iterations, reference.iterations as u64);
    assert_bitwise(
        "clamped solve == library at clamped budget",
        &clamped.beliefs,
        reference.beliefs.residual().as_slice(),
    );
    assert_eq!(core.stats().degraded_clamped, 1);
}

/// A spill directory of the test's own (its [`TempPath::dir`]), removed
/// with the server's spill files when the guard drops.
fn spill_scratch(name: &str) -> TempPath {
    TempPath::new("serve-spill", name)
}

/// A spilling server config with several shards and a deliberately tiny
/// buffer-pool budget, so every solve iteration evicts and demand-loads
/// shards from disk — a destroyed or truncated spill file surfaces
/// immediately instead of hiding behind a warm single-shard pool.
fn spill_config(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        spill_dir: Some(dir.to_path_buf()),
        // A 1-byte budget derives one shard per non-empty row.
        parallelism: ParallelismConfig::serial().with_memory_budget(1),
        ..ServerConfig::default()
    }
}

/// A rejected duplicate registration must not touch the live entry's
/// spill file: the graph keeps solving out-of-core, bitwise equal to
/// the library, after the duplicate is turned away.
#[test]
fn duplicate_register_with_spill_keeps_live_graph_servable() {
    let scratch = spill_scratch("dup-register");
    let core = ServerCore::new(spill_config(scratch.dir()));
    let register = |edges: Vec<WireEdge>| Request::RegisterGraph {
        graph_id: 9,
        n_nodes: 10,
        symmetric: true,
        edges,
    };
    assert!(matches!(
        core.handle_blocking(register(wire_edges())),
        Response::Registered { .. }
    ));

    let h = coupling();
    let solve = |shift: usize| Request::SolveLinBp {
        graph_id: 9,
        params: wire_params(&h),
        seeds: wire_seeds(shift, 1.0),
    };
    assert!(matches!(
        core.handle_blocking(solve(0)),
        Response::Beliefs(_)
    ));
    assert!(
        core.stats().pager_misses > 0,
        "solves must actually run through the paged operator"
    );

    match core.handle_blocking(register(wire_edges()[..3].to_vec())) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::GraphAlreadyRegistered),
        other => panic!("expected GraphAlreadyRegistered, got {other:?}"),
    }

    // Fresh seeds (no cache hit) force demand loads from the spill file
    // the rejected registration must not have damaged.
    let survived = match core.handle_blocking(solve(1)) {
        Response::Beliefs(p) => p,
        other => panic!("graph unservable after duplicate register: {other:?}"),
    };
    let reference = linbp_on(&fixture_adjacency(), &lib_seeds(1, 1.0), &h, &lib_opts()).unwrap();
    assert_bitwise(
        "post-duplicate solve",
        &survived.beliefs,
        reference.beliefs.residual().as_slice(),
    );
}

/// Racing edge deltas to one spilled graph: every delta must land
/// (distinct versions, none lost to a read-rebuild-publish race) and
/// the surviving paged operator must hold ALL of them.
#[test]
fn racing_edge_deltas_to_spilled_graph_all_land() {
    let scratch = spill_scratch("racing-deltas");
    let core = Arc::new(ServerCore::new(spill_config(scratch.dir())));
    assert!(matches!(
        core.handle_blocking(Request::RegisterGraph {
            graph_id: 7,
            n_nodes: 10,
            symmetric: true,
            edges: wire_edges(),
        }),
        Response::Registered { .. }
    ));

    let raw_deltas: Vec<(usize, usize, f64)> = (0..4)
        .map(|t| (t, (t + 5) % 10, 0.3 + t as f64 * 0.1))
        .collect();
    let barrier = Arc::new(Barrier::new(raw_deltas.len()));
    let workers: Vec<_> = raw_deltas
        .iter()
        .map(|&(s, t, w)| {
            let core = Arc::clone(&core);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                core.handle_blocking(Request::EdgeDelta {
                    graph_id: 7,
                    symmetric: true,
                    deltas: vec![WireEdge {
                        src: s as u64,
                        dst: t as u64,
                        weight: w,
                    }],
                })
            })
        })
        .collect();
    let mut versions: Vec<u64> = workers
        .into_iter()
        .map(|w| match w.join().unwrap() {
            Response::DeltaApplied { version, .. } => version,
            other => panic!("expected DeltaApplied, got {other:?}"),
        })
        .collect();
    versions.sort_unstable();
    assert_eq!(
        versions,
        vec![2, 3, 4, 5],
        "each racing delta must claim its own version — a repeat means one update was lost"
    );

    // The published operator must reflect every delta, served from its
    // (undamaged) spill file.
    let h = coupling();
    let got = match core.handle_blocking(Request::SolveLinBp {
        graph_id: 7,
        params: wire_params(&h),
        seeds: wire_seeds(2, 1.0),
    }) {
        Response::Beliefs(p) => p,
        other => panic!("spilled graph unservable after racing deltas: {other:?}"),
    };
    let mut both_dirs = Vec::new();
    for &(s, t, w) in &raw_deltas {
        both_dirs.push((s, t, w));
        both_dirs.push((t, s, w));
    }
    let new_adj = fixture_adjacency()
        .try_with_edge_deltas(&both_dirs)
        .unwrap();
    let reference = linbp_on(&new_adj, &lib_seeds(2, 1.0), &h, &lib_opts()).unwrap();
    assert_bitwise(
        "solve after racing deltas",
        &got.beliefs,
        reference.beliefs.residual().as_slice(),
    );
}

/// Served pager totals must be monotone while versions retire: banking
/// a retiring entry's stats and unregistering it happen atomically, so
/// an observer never sees a version counted twice (or not at all).
#[test]
fn pager_totals_stay_monotone_across_version_retirement() {
    let scratch = spill_scratch("monotone-totals");
    let core = Arc::new(ServerCore::new(spill_config(scratch.dir())));
    assert!(matches!(
        core.handle_blocking(Request::RegisterGraph {
            graph_id: 5,
            n_nodes: 10,
            symmetric: true,
            edges: wire_edges(),
        }),
        Response::Registered { .. }
    ));

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let poller = {
        let core = Arc::clone(&core);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut last = (0u64, 0u64, 0u64, 0u64);
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let s = core.stats();
                let now = (
                    s.pager_hits,
                    s.pager_misses,
                    s.pager_evictions,
                    s.pager_prefetches,
                );
                assert!(
                    now.0 >= last.0 && now.1 >= last.1 && now.2 >= last.2 && now.3 >= last.3,
                    "pager totals went backwards: {last:?} -> {now:?}"
                );
                last = now;
            }
        })
    };

    let h = coupling();
    for i in 0..12usize {
        assert!(matches!(
            core.handle_blocking(Request::SolveLinBp {
                graph_id: 5,
                params: wire_params(&h),
                seeds: wire_seeds(i, 1.0 + i as f64 * 0.01),
            }),
            Response::Beliefs(_)
        ));
        assert!(matches!(
            core.handle_blocking(Request::EdgeDelta {
                graph_id: 5,
                symmetric: true,
                deltas: vec![WireEdge {
                    src: (i % 10) as u64,
                    dst: ((i + 3) % 10) as u64,
                    weight: 0.05,
                }],
            }),
            Response::DeltaApplied { .. }
        ));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    poller.join().unwrap();
    let final_stats = core.stats();
    assert!(
        final_stats.pager_misses > 0,
        "retirement churn must have produced pager activity"
    );
}

/// A core that accepted `Shutdown` keeps answering until it is dropped:
/// its solver thread, which runs registrations, deltas and solves, exits
/// only on drop, so nothing submitted after the shutdown is stranded.
#[test]
fn requests_after_shutdown_are_still_answered() {
    let core = ServerCore::new(ServerConfig::default());
    assert!(matches!(
        core.handle_blocking(Request::Shutdown),
        Response::ShuttingDown
    ));
    let (tx, rx) = mpsc::channel();
    let h = coupling();
    let requests = [
        Request::RegisterGraph {
            graph_id: 4,
            n_nodes: 10,
            symmetric: true,
            edges: wire_edges(),
        },
        Request::SolveLinBp {
            graph_id: 4,
            params: wire_params(&h),
            seeds: wire_seeds(0, 1.0),
        },
    ];
    for request in requests {
        let tx = tx.clone();
        core.submit(request, Box::new(move |r| drop(tx.send(r))));
    }
    let answer = || rx.recv_timeout(Duration::from_secs(30)).expect("answered");
    assert!(matches!(answer(), Response::Registered { .. }));
    assert!(matches!(answer(), Response::Beliefs(_)));
}

/// `stop` must not lose its wakeup: a solver thread that has read
/// `stopping == false` but not yet parked would otherwise sleep forever
/// and hang `Drop` in `join`. Hundreds of back-to-back create/drop cycles
/// under a watchdog make the race window observable.
#[test]
fn create_and_drop_cores_never_hangs() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..300 {
            drop(ServerCore::new(ServerConfig::default()));
        }
        tx.send(()).unwrap();
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("dropping a ServerCore hung: stop() lost its wakeup");
}
