#![warn(missing_docs)]

//! A minimal in-memory relational engine plus the paper's SQL
//! formulations of LinBP and SBP (Sect. 5.3, Sect. 6.3, Appendix C).
//!
//! The paper's claim is that LinBP/SBP need nothing beyond *standard SQL*:
//! joins, aggregates, and iteration (Corollary 10). This crate provides
//! [`Table`] — a named, column-addressed relation of [`Value`] rows with
//! maintained statistics — and a SQL *text* front end over it ([`parser`]
//! and [`exec`]): equi-joins, `[NOT] IN (SELECT …)`, `GROUP BY` with
//! `SUM`/`MIN`/`MAX`, `INSERT … SELECT`, `DELETE` and `CREATE TABLE …
//! AS`. The exact statements printed in the paper's Appendix D (Fig.
//! 9a–d) parse and execute against a [`Database`]. [`sql`] writes all
//! four of the paper's algorithms as SQL scripts run by [`Database`]:
//! Algorithm 1 (LinBP, single-query and batched), Algorithm 2 (SBP) and
//! Algorithms 3–4 (its incremental updates); only their loops are Rust.
//! The PostgreSQL deployment of the paper is substituted by this engine;
//! the relative behaviour the experiments measure — SBP touches each edge
//! once, LinBP re-scans all of them every iteration, incremental updates
//! touch only affected regions — is a property of the query plans.
//!
//! Every SELECT runs through a cost-bounded planner
//! (Planner → [`plan::Plan`] → executor): per-table [`stats::TableStats`]
//! (distinct counts, max join degrees) are maintained incrementally, the
//! planner pushes predicates below joins into the shard-segment scan path,
//! orders joins by *pessimistic* (worst-case, AGM/FD-style) cardinality
//! bounds, and picks hash-join build sides by size. The executor is one
//! push pipeline ([`exec`]): sources are scanned by borrow, prefix joins
//! materialize into flat row buffers, and the last join streams each row
//! through the residual filters into a projection or a streaming
//! `GROUP BY`. `EXPLAIN SELECT …` prints the chosen plan with each node's
//! bound next to its actual cardinality.
//!
//! Joins, groups and `IN`-sets key on one canonical key type (`key.rs`):
//! integers compare exactly, an integral float equals its integer, and
//! `−0.0` = `0.0`.

pub mod engine;
pub mod exec;
mod key;
pub mod parser;
pub mod plan;
pub mod sql;
pub mod stats;

pub use engine::{Table, Value};
pub use exec::{Database, SqlError};
pub use plan::{Plan, PlanNode};
pub use sql::{SqlDb, SqlSbpState};
pub use stats::TableStats;
