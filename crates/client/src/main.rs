//! The `lsbp-client` binary.
//!
//! ```text
//! lsbp-client ping     [--addr HOST:PORT] [--connect-timeout-ms N]
//! lsbp-client health   [--addr HOST:PORT] [--connect-timeout-ms N]
//! lsbp-client stats    [--addr HOST:PORT] [--connect-timeout-ms N]
//! lsbp-client shutdown [--addr HOST:PORT] [--connect-timeout-ms N]
//! lsbp-client selftest [--addr HOST:PORT] [--connect-timeout-ms N]
//!                      [--shutdown] [--chaos-seed N]
//! ```
//!
//! `selftest` drives a live server through the full protocol — register,
//! LinBP/LinBP\*/RWR solves (sequential and concurrent), cache hits, an
//! edge delta plus patched re-query — and **bitwise**-compares every
//! belief vector against the same solves run in-process through the
//! `lsbp` library (valid across processes by the workspace's
//! bitwise-determinism invariant: results do not depend on thread or
//! shard counts). Exits nonzero on any mismatch.
//!
//! `--chaos-seed N` additionally runs a seeded saboteur thread for the
//! duration of the selftest: it hammers the same server with garbage
//! bytes, byte-dribbled oversized frame headers, truncated frames,
//! bit-corrupted requests, instant disconnects, and mid-frame stalls.
//! The selftest still has to pass bitwise — and a final health check
//! proves the server outlived the abuse.

use lsbp::prelude::*;
use lsbp_client::{Client, ClientConfig};
use lsbp_graph::Graph;
use lsbp_linalg::Mat;
use lsbp_net::{
    LinBpParams, Request, RequestEnvelope, RwrParams, ServedVia, WireEdge, WireNorm, WireSeed,
};
use lsbp_sparse::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: lsbp-client <ping|health|stats|shutdown|selftest> [--addr HOST:PORT] \
         [--connect-timeout-ms N] [--shutdown] [--chaos-seed N]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else { usage() };
    let mut addr = String::from("127.0.0.1:7461");
    let mut shutdown_after = false;
    let mut chaos_seed: Option<u64> = None;
    let mut config = ClientConfig::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => usage(),
            },
            "--connect-timeout-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => config.connect_timeout = Some(Duration::from_millis(ms)),
                None => usage(),
            },
            "--chaos-seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(seed) => chaos_seed = Some(seed),
                None => usage(),
            },
            "--shutdown" => shutdown_after = true,
            _ => usage(),
        }
    }

    let run = || -> Result<(), String> {
        match command.as_str() {
            "ping" => {
                let mut client = connect(&addr, &config)?;
                let version = client.ping().map_err(|e| e.to_string())?;
                println!("pong (protocol version {version})");
                Ok(())
            }
            "health" => {
                let mut client = connect(&addr, &config)?;
                let health = client.health().map_err(|e| e.to_string())?;
                println!("{health:#?}");
                Ok(())
            }
            "stats" => {
                let mut client = connect(&addr, &config)?;
                let stats = client.stats().map_err(|e| e.to_string())?;
                println!("{stats:#?}");
                Ok(())
            }
            "shutdown" => {
                let mut client = connect(&addr, &config)?;
                client.shutdown().map_err(|e| e.to_string())?;
                println!("server shutting down");
                Ok(())
            }
            "selftest" => selftest(&addr, &config, shutdown_after, chaos_seed),
            _ => usage(),
        }
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn connect(addr: &str, config: &ClientConfig) -> Result<Client, String> {
    Client::connect_with(addr, config).map_err(|e| format!("connect {addr}: {e}"))
}

// ---------------------------------------------------------------------------
// saboteur (selftest --chaos-seed)
// ---------------------------------------------------------------------------

/// Hostile traffic generator: every round opens a fresh connection and
/// misbehaves in one of six seeded ways. All I/O errors are swallowed —
/// the saboteur's job is to provoke, the selftest's job is to prove the
/// server did not care.
fn sabotage(addr: &str, seed: u64, rounds: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rounds {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            continue;
        };
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .ok();
        match rng.gen_range(0u8..6) {
            // Raw garbage: bytes that are not even a plausible frame.
            0 => {
                let n = rng.gen_range(1usize..64);
                let junk: Vec<u8> = (0..n).map(|_| rng.gen_range(0u16..256) as u8).collect();
                let _ = stream.write_all(&junk);
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let mut sink = [0u8; 256];
                let _ = stream.read(&mut sink);
            }
            // Oversized frame header, dribbled one byte at a time — the
            // server must reject at the 4th byte, not buffer toward the
            // claimed gigabytes.
            1 => {
                let claimed = (rng.gen_range(257u64..4096) * 1024 * 1024) as u32;
                for byte in claimed.to_le_bytes() {
                    if stream.write_all(&[byte]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                let mut sink = [0u8; 256];
                let _ = stream.read(&mut sink);
            }
            // Truncated frame: honest header, partial body, gone.
            2 => {
                let payload =
                    RequestEnvelope::new(rng.gen_range(0u64..u64::MAX), Request::Ping).encode();
                let keep = rng.gen_range(1usize..payload.len());
                let _ = stream.write_all(&(payload.len() as u32).to_le_bytes());
                let _ = stream.write_all(&payload[..keep]);
            }
            // Bit-corrupted request: valid framing, garbled content.
            3 => {
                let mut payload =
                    RequestEnvelope::new(rng.gen_range(0u64..u64::MAX), Request::Ping).encode();
                let flips = rng.gen_range(1usize..4);
                for _ in 0..flips {
                    let at = rng.gen_range(0..payload.len());
                    payload[at] ^= 1 << rng.gen_range(0u32..8);
                }
                let _ = stream.write_all(&(payload.len() as u32).to_le_bytes());
                let _ = stream.write_all(&payload);
                let mut sink = [0u8; 256];
                let _ = stream.read(&mut sink);
            }
            // Connect-and-vanish.
            4 => {}
            // Mid-frame stall, then vanish.
            _ => {
                let payload =
                    RequestEnvelope::new(rng.gen_range(0u64..u64::MAX), Request::Ping).encode();
                let _ = stream.write_all(&(payload.len() as u32).to_le_bytes());
                let _ = stream.write_all(&payload[..payload.len() / 2]);
                std::thread::sleep(Duration::from_millis(rng.gen_range(1u64..20)));
            }
        }
        drop(stream);
    }
}

// ---------------------------------------------------------------------------
// selftest
// ---------------------------------------------------------------------------

const K: usize = 3;
const EPS: f64 = 0.06;

/// 12-node ring with chords — small but multi-cycle, so echo
/// cancellation and convergence behavior are all exercised.
fn fixture_edges() -> Vec<(usize, usize, f64)> {
    let mut edges: Vec<(usize, usize, f64)> = (0..12).map(|i| (i, (i + 1) % 12, 1.0)).collect();
    edges.extend_from_slice(&[(0, 6, 0.5), (2, 9, 1.5), (4, 10, 0.75), (1, 7, 1.25)]);
    edges
}

fn fixture_adjacency() -> CsrMatrix {
    let mut g = Graph::new(12);
    for (s, t, w) in fixture_edges() {
        g.add_edge(s, t, w);
    }
    g.adjacency()
}

fn coupling() -> Mat {
    CouplingMatrix::fig1c()
        .expect("fig1c coupling is valid")
        .scaled_residual(EPS)
}

fn wire_params(echo: bool, h: &Mat) -> LinBpParams {
    LinBpParams {
        echo,
        k: K as u32,
        h_residual: h.as_slice().to_vec(),
        max_iter: 200,
        tol: 1e-12,
        norm: WireNorm::MaxAbs,
        damping: 0.0,
        divergence_guard: 1e12,
    }
}

fn lib_opts() -> LinBpOptions {
    LinBpOptions {
        max_iter: 200,
        tol: 1e-12,
        norm: ToleranceNorm::MaxAbs,
        damping: 0.0,
        divergence_guard: 1e12,
        parallelism: ParallelismConfig::from_env(),
    }
}

/// One seeded node per class, offset by `shift` around the ring, so
/// every thread in the concurrent phase asks a distinct query.
fn seed_rows(shift: usize) -> Vec<(usize, [f64; K])> {
    vec![
        ((shift) % 12, [2.0, -1.0, -1.0]),
        ((4 + shift) % 12, [-1.0, 2.0, -1.0]),
        ((8 + shift) % 12, [-1.0, -1.0, 2.0]),
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
    let mut e = ExplicitBeliefs::new(12, K);
    for (node, row) in seed_rows(shift) {
        e.set_residual(node, &row).expect("seed rows are centered");
    }
    e
}

fn assert_bitwise(label: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{label}: length mismatch ({} vs {})",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.to_bits() != w.to_bits() {
            return Err(format!(
                "{label}: beliefs differ at flat index {i}: {g:e} vs {w:e} \
                 (bits {:#018x} vs {:#018x})",
                g.to_bits(),
                w.to_bits()
            ));
        }
    }
    Ok(())
}

fn selftest(
    addr: &str,
    config: &ClientConfig,
    shutdown_after: bool,
    chaos_seed: Option<u64>,
) -> Result<(), String> {
    // Start the saboteur before the first real query so hostile traffic
    // overlaps every phase below.
    let saboteur = chaos_seed.map(|seed| {
        println!("[selftest] chaos: saboteur running with seed {seed}");
        let addr = addr.to_string();
        std::thread::spawn(move || sabotage(&addr, seed, 48))
    });

    let mut client = connect(addr, config)?;
    let version = client.ping().map_err(|e| format!("ping: {e}"))?;
    println!("[selftest] connected, protocol version {version}");

    // Distinct id per run so selftest can repeat against one server.
    let graph_id = u64::from(std::process::id()) << 16 | 0x5e1f;
    let edges: Vec<WireEdge> = fixture_edges()
        .into_iter()
        .map(|(s, t, w)| WireEdge {
            src: s as u64,
            dst: t as u64,
            weight: w,
        })
        .collect();
    let (gversion, nnz) = client
        .register_graph(graph_id, 12, true, edges)
        .map_err(|e| format!("register: {e}"))?;
    let adj = fixture_adjacency();
    if nnz != adj.nnz() as u64 {
        return Err(format!("register: nnz {nnz} != local {}", adj.nnz()));
    }
    println!("[selftest] registered graph {graph_id} v{gversion} ({nnz} nnz)");

    let h = coupling();
    let opts = lib_opts();

    // Sequential solves: LinBP (echo), LinBP* (no echo), RWR — each
    // bitwise against the library.
    let payload_linbp = client
        .solve_linbp(graph_id, wire_params(true, &h), wire_seeds(0))
        .map_err(|e| format!("linbp solve: {e}"))?;
    let reference = linbp_on(&adj, &lib_seeds(0), &h, &opts).map_err(|e| e.to_string())?;
    if !payload_linbp.converged || !reference.converged {
        return Err("linbp: expected convergence on the fixture".into());
    }
    assert_bitwise(
        "linbp",
        &payload_linbp.beliefs,
        reference.beliefs.residual().as_slice(),
    )?;
    println!(
        "[selftest] linbp: bitwise match ({:?})",
        payload_linbp.served
    );

    let payload_star = client
        .solve_linbp(graph_id, wire_params(false, &h), wire_seeds(1))
        .map_err(|e| format!("linbp* solve: {e}"))?;
    let reference_star =
        linbp_star_on(&adj, &lib_seeds(1), &h, &opts).map_err(|e| e.to_string())?;
    assert_bitwise(
        "linbp*",
        &payload_star.beliefs,
        reference_star.beliefs.residual().as_slice(),
    )?;
    println!("[selftest] linbp*: bitwise match");

    let rwr_params = RwrParams {
        k: K as u32,
        restart: 0.15,
        max_iter: 200,
        tol: 1e-12,
        norm: WireNorm::MaxAbs,
    };
    let payload_rwr = client
        .solve_rwr(graph_id, rwr_params, wire_seeds(2))
        .map_err(|e| format!("rwr solve: {e}"))?;
    let rwr_opts = RwrOptions {
        restart: 0.15,
        max_iter: 200,
        tol: 1e-12,
        norm: ToleranceNorm::MaxAbs,
        parallelism: ParallelismConfig::from_env(),
    };
    let reference_rwr = rwr_on(&adj, &lib_seeds(2), &rwr_opts).map_err(|e| e.to_string())?;
    assert_bitwise(
        "rwr",
        &payload_rwr.beliefs,
        reference_rwr.beliefs.residual().as_slice(),
    )?;
    println!("[selftest] rwr: bitwise match");

    // Cache: repeating a query must serve from cache, bitwise identical.
    let cached = client
        .solve_linbp(graph_id, wire_params(true, &h), wire_seeds(0))
        .map_err(|e| format!("cached solve: {e}"))?;
    if cached.served != ServedVia::Cache {
        return Err(format!("expected cache hit, served {:?}", cached.served));
    }
    assert_bitwise("cache", &cached.beliefs, &payload_linbp.beliefs)?;
    println!("[selftest] repeat query served from cache");

    // Concurrent phase: distinct queries from parallel connections, every
    // answer bitwise equal to the library regardless of how the server
    // chose to coalesce them.
    let threads = 6;
    let barrier = std::sync::Barrier::new(threads);
    let concurrent: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, h, addr) = (&barrier, &h, addr);
                scope.spawn(move || -> Result<(), String> {
                    let shift = 2 + t; // distinct from the cached queries
                    let mut c = connect(addr, &ClientConfig::default())?;
                    barrier.wait();
                    let payload = c
                        .solve_linbp(graph_id, wire_params(true, h), wire_seeds(shift))
                        .map_err(|e| format!("thread {t}: {e}"))?;
                    let adj = fixture_adjacency();
                    let reference = linbp_on(&adj, &lib_seeds(shift), h, &lib_opts())
                        .map_err(|e| format!("thread {t}: {e}"))?;
                    assert_bitwise(
                        &format!("concurrent[{t}]"),
                        &payload.beliefs,
                        reference.beliefs.residual().as_slice(),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in concurrent {
        r?;
    }
    let stats = client.stats().map_err(|e| e.to_string())?;
    println!(
        "[selftest] {} concurrent queries bitwise-clean (server so far: {} served, \
         {} coalesced in {} batches, largest batch {})",
        threads,
        stats.queries_served,
        stats.coalesced_queries,
        stats.coalesced_batches,
        stats.largest_batch
    );

    // Edge delta: server patches its cache; the patched re-query must be
    // bitwise equal to the library patch path on the same inputs.
    let raw_deltas = [(0usize, 1usize, 0.25), (0, 3, 0.5)];
    let wire_deltas: Vec<WireEdge> = raw_deltas
        .iter()
        .map(|&(s, t, w)| WireEdge {
            src: s as u64,
            dst: t as u64,
            weight: w,
        })
        .collect();
    let (new_version, patched, invalidated) = client
        .edge_delta(graph_id, true, wire_deltas)
        .map_err(|e| format!("edge delta: {e}"))?;
    println!(
        "[selftest] delta applied: graph now v{new_version}, {patched} cache entries patched, \
         {invalidated} invalidated"
    );
    if patched == 0 {
        return Err("edge delta: expected at least one patched cache entry".into());
    }
    if invalidated == 0 {
        return Err("edge delta: expected the cached RWR entry to be invalidated".into());
    }

    let requeried = client
        .solve_linbp(graph_id, wire_params(true, &h), wire_seeds(0))
        .map_err(|e| format!("patched re-query: {e}"))?;
    if requeried.served != ServedVia::CachePatched {
        return Err(format!(
            "expected patched cache hit, served {:?}",
            requeried.served
        ));
    }
    // Library patch path: both delta directions, seeded from the beliefs
    // the server had cached (= payload_linbp), solved on the new graph.
    let mut both_dirs: Vec<(usize, usize, f64)> = Vec::new();
    for &(s, t, w) in &raw_deltas {
        both_dirs.push((s, t, w));
        both_dirs.push((t, s, w));
    }
    let new_adj = adj
        .try_with_edge_deltas(&both_dirs)
        .map_err(|e| e.to_string())?;
    let previous = BeliefMatrix::from_mat(Mat::from_vec(12, K, payload_linbp.beliefs.clone()));
    let seed =
        linbp_edge_delta_seed(&adj, &both_dirs, &previous, &h, true).map_err(|e| e.to_string())?;
    let patched_reference =
        linbp_update(&new_adj, &previous, &seed, &h, &opts, true).map_err(|e| e.to_string())?;
    assert_bitwise(
        "patched",
        &requeried.beliefs,
        patched_reference.beliefs.residual().as_slice(),
    )?;
    println!("[selftest] patched cache entry bitwise-matches the library patch path");

    // Frontier phase: the fixture embedded in a wider graph whose extra
    // nodes are isolated. Their rows freeze bitwise after the first
    // sweep, so the active-frontier execution (on by default) must skip
    // them on every later sweep — and the repeated solves below must
    // leave nonzero skip counters in `Health`, while every answer stays
    // bitwise equal to the library on the same wide graph.
    let frontier_id = u64::from(std::process::id()) << 16 | 0xf407;
    let frontier_nodes = 24usize;
    let frontier_edges: Vec<WireEdge> = fixture_edges()
        .into_iter()
        .map(|(s, t, w)| WireEdge {
            src: s as u64,
            dst: t as u64,
            weight: w,
        })
        .collect();
    client
        .register_graph(frontier_id, frontier_nodes as u64, true, frontier_edges)
        .map_err(|e| format!("frontier register: {e}"))?;
    let wide_adj = {
        let mut g = Graph::new(frontier_nodes);
        for (s, t, w) in fixture_edges() {
            g.add_edge(s, t, w);
        }
        g.adjacency()
    };
    for shift in [5usize, 6, 7] {
        let payload = client
            .solve_linbp(frontier_id, wire_params(true, &h), wire_seeds(shift))
            .map_err(|e| format!("frontier solve (shift {shift}): {e}"))?;
        let mut wide_seeds = ExplicitBeliefs::new(frontier_nodes, K);
        for (node, row) in seed_rows(shift) {
            wide_seeds
                .set_residual(node, &row)
                .expect("seed rows are centered");
        }
        let reference = linbp_on(&wide_adj, &wide_seeds, &h, &opts).map_err(|e| e.to_string())?;
        assert_bitwise(
            &format!("frontier[{shift}]"),
            &payload.beliefs,
            reference.beliefs.residual().as_slice(),
        )?;
    }
    let health = client
        .health()
        .map_err(|e| format!("post-frontier health: {e}"))?;
    if health.stats.frontier_rows_skipped == 0 {
        return Err(
            "frontier: repeated solves on a graph with isolated nodes left zero \
             skipped rows"
                .into(),
        );
    }
    println!(
        "[selftest] frontier: bitwise match ({} rows active, {} skipped)",
        health.stats.frontier_rows_active, health.stats.frontier_rows_skipped
    );

    // Out-of-core phase: when the server runs with `--spill-dir`, every
    // registered graph is served from an on-disk shard store through the
    // budgeted buffer pool. Register a fresh copy of the fixture under a
    // distinct id, solve it over the wire, and check both the bitwise
    // answer and that the pager actually did the serving.
    let health = client.health().map_err(|e| format!("health: {e}"))?;
    if health.spill_enabled {
        let paged_id = u64::from(std::process::id()) << 16 | 0x9a6e;
        let paged_edges: Vec<WireEdge> = fixture_edges()
            .into_iter()
            .map(|(s, t, w)| WireEdge {
                src: s as u64,
                dst: t as u64,
                weight: w,
            })
            .collect();
        client
            .register_graph(paged_id, 12, true, paged_edges)
            .map_err(|e| format!("paged register: {e}"))?;
        let payload_paged = client
            .solve_linbp(paged_id, wire_params(true, &h), wire_seeds(3))
            .map_err(|e| format!("paged solve: {e}"))?;
        let reference_paged =
            linbp_on(&adj, &lib_seeds(3), &h, &opts).map_err(|e| e.to_string())?;
        assert_bitwise(
            "paged",
            &payload_paged.beliefs,
            reference_paged.beliefs.residual().as_slice(),
        )?;
        let health = client
            .health()
            .map_err(|e| format!("post-paged health: {e}"))?;
        if health.stats.pager_misses == 0 {
            return Err(
                "paged: spill is enabled but the pager reports zero misses — \
                 the solve cannot have streamed from disk"
                    .into(),
            );
        }
        println!(
            "[selftest] out-of-core: bitwise match (pager: {} hits, {} misses, \
             {} evictions, {} prefetches)",
            health.stats.pager_hits,
            health.stats.pager_misses,
            health.stats.pager_evictions,
            health.stats.pager_prefetches
        );
    } else {
        println!("[selftest] out-of-core: skipped (server has no --spill-dir)");
    }

    if let Some(handle) = saboteur {
        handle.join().map_err(|_| "saboteur thread panicked")?;
        // The abuse is over; the server must still answer like nothing
        // happened.
        let health = client
            .health()
            .map_err(|e| format!("post-chaos health: {e}"))?;
        println!(
            "[selftest] chaos: server survived (queue depth {}, {} graphs, {} cached entries, \
             up {} ms)",
            health.queue_depth, health.stats.graphs, health.stats.cached_entries, health.uptime_ms
        );
    }

    if shutdown_after {
        client.shutdown().map_err(|e| e.to_string())?;
        println!("[selftest] server shutdown requested");
    }
    println!("[selftest] PASS");
    Ok(())
}
