#![warn(missing_docs)]

//! A minimal in-memory relational engine plus the paper's SQL
//! formulations of LinBP and SBP (Sect. 5.3, Sect. 6.3, Appendix C).
//!
//! The paper's claim is that LinBP/SBP need nothing beyond *standard SQL*:
//! joins, aggregates, and iteration (Corollary 10). This crate provides
//! exactly that operator vocabulary —
//!
//! * [`Table`] — a named, column-addressed relation of [`Value`] rows,
//! * hash equi-joins with fused projection ([`Table::join_map`]),
//! * anti-joins (`NOT EXISTS`, [`Table::anti_join`]),
//! * grouped aggregation (`GROUP BY` + `SUM`/`MIN`, [`Table::group_by_agg`]),
//! * `UNION ALL` ([`Table::union_all`]), filters and projections —
//!
//! and a SQL *text* front end on top ([`parser`] + [`exec`]): the exact
//! statements printed in the paper's Appendix D (Fig. 9a–d) parse and
//! execute against a [`Database`]. [`sql`] implements the paper's
//! algorithms over both: Algorithm 1 (LinBP, single-query and batched)
//! is the literal SQL script, run by [`Database`]; Algorithms 2–4 (SBP
//! and its incremental updates) are built from the operators. The
//! PostgreSQL deployment of the paper is substituted by this engine; the
//! relative behaviour the experiments measure — SBP touches each edge
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
//! Joins, groups, `IN`-sets, anti-joins and upserts — in the SQL text path
//! and in the engine operators alike — key on one canonical key type
//! (`key.rs`): integers compare exactly, an integral float equals its
//! integer, and `−0.0` = `0.0`.

pub mod engine;
pub mod exec;
mod key;
pub mod parser;
pub mod plan;
pub mod sql;
pub mod stats;

pub use engine::{AggFun, Table, Value};
pub use exec::{Database, SqlError};
pub use plan::{Plan, PlanNode};
pub use sql::{SqlDb, SqlSbpState};
pub use stats::TableStats;
