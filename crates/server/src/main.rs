//! The `lsbp-server` binary: binds a TCP listener and serves the
//! propagation protocol until a client sends `Shutdown`.
//!
//! ```text
//! lsbp-server [--addr HOST:PORT] [--coalesce-window-ms N] [--max-batch N]
//!             [--max-pending N] [--cache-capacity N]
//!             [--idle-timeout-ms N] [--write-stall-timeout-ms N]
//!             [--max-write-buf BYTES] [--retry-after-hint-ms N]
//!             [--degradation off|stale|clamp:N]
//!             [--spill-dir PATH] [--memory-budget BYTES[K|M|G|T]]
//! ```
//!
//! `--coalesce-window-ms` defaults to 0: a query that finds the solver
//! idle is solved at once, and queries that arrive during a solve
//! coalesce into the next batch. A positive window holds each
//! admission queue open that long before draining it.
//!
//! With `--spill-dir`, registered graphs are written to on-disk shard
//! stores under that directory and served out-of-core through the
//! budgeted buffer pool; `--memory-budget` caps the pool's resident
//! bytes (same grammar as `LSBP_MEMORY_BUDGET`, which it overrides).
//!
//! Prints `listening on <addr>` (with the resolved port) to stdout once
//! ready — scripts wait for that line.

use lsbp_server::{serve, DegradationPolicy, ServerConfig, ServerCore};
use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: lsbp-server [--addr HOST:PORT] [--coalesce-window-ms N] \
         [--max-batch N] [--max-pending N] [--cache-capacity N] \
         [--idle-timeout-ms N] [--write-stall-timeout-ms N] \
         [--max-write-buf BYTES] [--retry-after-hint-ms N] \
         [--degradation off|stale|clamp:N] \
         [--spill-dir PATH] [--memory-budget BYTES[K|M|G|T]]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut addr = String::from("127.0.0.1:7461");
    let mut config = ServerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--coalesce-window-ms" => {
                config.coalesce_window =
                    Duration::from_millis(parse(&value("--coalesce-window-ms")))
            }
            "--max-batch" => config.max_batch = parse(&value("--max-batch")) as usize,
            "--max-pending" => config.max_pending = parse(&value("--max-pending")) as usize,
            "--cache-capacity" => {
                config.cache_capacity = parse(&value("--cache-capacity")) as usize
            }
            "--idle-timeout-ms" => {
                config.idle_timeout = Duration::from_millis(parse(&value("--idle-timeout-ms")))
            }
            "--write-stall-timeout-ms" => {
                config.write_stall_timeout =
                    Duration::from_millis(parse(&value("--write-stall-timeout-ms")))
            }
            "--max-write-buf" => config.max_write_buf = parse(&value("--max-write-buf")) as usize,
            "--retry-after-hint-ms" => {
                config.retry_after_hint =
                    Duration::from_millis(parse(&value("--retry-after-hint-ms")))
            }
            "--degradation" => {
                config.degradation = match value("--degradation").as_str() {
                    "off" => DegradationPolicy::Off,
                    "stale" => DegradationPolicy::StaleCache,
                    other => match other.strip_prefix("clamp:") {
                        Some(n) => DegradationPolicy::ClampIter(parse(n) as usize),
                        None => {
                            eprintln!("--degradation expects off|stale|clamp:N, got {other:?}");
                            usage();
                        }
                    },
                }
            }
            "--spill-dir" => {
                config.spill_dir = Some(std::path::PathBuf::from(value("--spill-dir")))
            }
            "--memory-budget" => {
                let raw = value("--memory-budget");
                match lsbp_linalg::parse_byte_size(&raw) {
                    Some(bytes) if bytes > 0 => {
                        config.parallelism = config.parallelism.with_memory_budget(bytes)
                    }
                    _ => {
                        eprintln!(
                            "--memory-budget expects a positive byte count \
                             (optionally suffixed K/M/G/T), got {raw:?}"
                        );
                        usage();
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    if config.max_batch == 0 || config.max_pending == 0 {
        eprintln!("--max-batch and --max-pending must be positive");
        return ExitCode::from(2);
    }

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("failed to bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = listener
        .local_addr()
        .expect("bound listener has an address");
    println!("listening on {local}");

    let core = ServerCore::new(config);
    match serve(listener, &core) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(s: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("expected a non-negative integer, got {s:?}");
        usage()
    })
}
