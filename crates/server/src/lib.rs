#![warn(missing_docs)]

//! # lsbp-server — propagation as a service
//!
//! Serves the [`lsbp`] propagation stack (LinBP, LinBP\*, RWR) over the
//! length-prefixed binary protocol defined in [`lsbp_net`], on plain
//! `std::net` TCP — no async runtime.
//!
//! The crate splits into
//!
//! * [`mod@core`] — the transport-independent engine: graph registry
//!   (operator layout built **once** at registration), admission
//!   coalescing (concurrent queries against the same graph/parameters
//!   share one batched solve, bitwise identical to per-query
//!   solves), and a belief cache that edge deltas **patch** rather than
//!   invalidate — all state behind one lock, with every solve,
//!   registration and delta run on one solver thread;
//! * [`tcp`] — a small poll(2)-based event loop (Unix only) feeding
//!   decoded requests into the core. One outstanding request per
//!   connection; coalescing happens *across* connections.

pub mod core;
pub mod tcp;

pub use crate::core::{
    DegradationPolicy, Responder, ServerConfig, ServerCore, MAX_CLASSES, MAX_ITER_CAP, MAX_NODES,
};
pub use crate::tcp::serve;
