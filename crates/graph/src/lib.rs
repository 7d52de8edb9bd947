#![warn(missing_docs)]

//! Graph types, synthetic generators and traversal utilities.
//!
//! The paper evaluates on (i) a small torus (Fig. 5c), (ii) a family of
//! deterministic Kronecker graphs (Fig. 6a) and (iii) a DBLP subset
//! (Appendix F.2). This crate provides the graph container plus generators
//! for all three (the DBLP data is proprietary-ish/not shipped, so a
//! synthetic heterogeneous bibliographic network of the same shape is
//! generated instead), along with the multi-source BFS that SBP's
//! geodesic numbers (Definition 14) are built on.

pub mod bfs;
pub mod generators;
pub mod graph;
pub mod io;

pub use bfs::{geodesic_numbers, Geodesics, UNREACHABLE};
pub use graph::Graph;
