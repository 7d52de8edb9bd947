//! The paper's SQL algorithms, expressed over the relational engine.
//!
//! Schemas follow Sect. 5.3 verbatim:
//!
//! * `A(s, t, w)` — weighted adjacency (each undirected edge stored in
//!   both directions),
//! * `E(v, c, b)` — explicit residual beliefs,
//! * `H(c1, c2, h)` — residual coupling strengths,
//! * derived: `D(v, d)` (squared-weight degrees) and `H2(c1, c2, h)` (Ĥ²,
//!   Eq. 20),
//! * results: `B(v, c, b)` (final beliefs) and `G(v, g)` (geodesic
//!   numbers, Sect. 6.3).
//!
//! Algorithm-to-method map:
//!
//! | Paper          | Method                        |
//! |----------------|-------------------------------|
//! | Algorithm 1    | [`SqlDb::linbp`]              |
//! | Algorithm 2    | [`SqlDb::sbp`]                |
//! | Algorithm 3    | [`SqlDb::sbp_add_explicit`]   |
//! | Algorithm 4    | [`SqlDb::sbp_add_edges`]      |
//!
//! One deviation is documented inline: Algorithm 4's guard `¬(G(t,gt),
//! gt < gs)` admits edges between equal-geodesic nodes, which the paper's
//! own case analysis (Appendix C, case 1) says must be ignored; we use
//! `gt ≤ gs`, the reading consistent with that analysis.

use crate::engine::{AggFun, Table, Value};
use lsbp::beliefs::{BeliefMatrix, ExplicitBeliefs};
use lsbp_graph::Graph;
use lsbp_linalg::{Mat, ParallelismConfig};

/// A relational database holding one classification problem.
#[derive(Clone, Debug)]
pub struct SqlDb {
    n: usize,
    k: usize,
    a: Table,
    e: Table,
    h: Table,
    parallelism: ParallelismConfig,
}

/// The persistent state of a relational SBP computation: the belief table
/// `B(v,c,b)` and geodesic table `G(v,g)`, kept for incremental updates.
#[derive(Clone, Debug)]
pub struct SqlSbpState {
    /// Final beliefs `B(v, c, b)`.
    pub b: Table,
    /// Geodesic numbers `G(v, g)`.
    pub g: Table,
}

impl SqlDb {
    /// Loads the relational representation of a labeled graph.
    pub fn new(graph: &Graph, explicit: &ExplicitBeliefs, h_residual: &Mat) -> Self {
        assert_eq!(
            graph.num_nodes(),
            explicit.n(),
            "graph/beliefs node count mismatch"
        );
        let k = explicit.k();
        assert_eq!(h_residual.rows(), k, "coupling arity mismatch");
        // Parallel edges merge into one row with summed weight — the same
        // semantics as the CSR adjacency matrix (Sect. 5.2: parallel paths
        // add up, and the echo-cancellation degree is the square of the
        // *merged* weight).
        let mut raw = Table::new("Araw", &["s", "t", "w"]);
        raw.reserve(graph.num_directed_edges());
        for (s, t, w) in graph.edges() {
            raw.push(vec![
                Value::Int(s as i64),
                Value::Int(t as i64),
                Value::Float(w),
            ]);
            raw.push(vec![
                Value::Int(t as i64),
                Value::Int(s as i64),
                Value::Float(w),
            ]);
        }
        let a = raw
            .group_by_agg("A", &["s", "t"], "w", AggFun::SumFloat, |r| r[2])
            .project("A", &["s", "t", "w"], |r| vec![r[0], r[1], r[2]]);
        let e = explicit_to_table(explicit);
        let mut h = Table::new("H", &["c1", "c2", "h"]);
        for c1 in 0..k {
            for c2 in 0..k {
                h.push(vec![
                    Value::Int(c1 as i64),
                    Value::Int(c2 as i64),
                    Value::Float(h_residual[(c1, c2)]),
                ]);
            }
        }
        Self {
            n: graph.num_nodes(),
            k,
            a,
            e,
            h,
            parallelism: ParallelismConfig::default(),
        }
    }

    /// Picks serial vs. pooled execution for the engine's hot joins (the
    /// per-iteration `A ⋈ B` probes of [`SqlDb::linbp`]). The default
    /// follows `LSBP_THREADS`. Results are identical at every thread
    /// count.
    pub fn with_parallelism(mut self, cfg: ParallelismConfig) -> Self {
        self.parallelism = cfg;
        self
    }

    /// Node count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Class count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The adjacency relation `A(s,t,w)`.
    pub fn a(&self) -> &Table {
        &self.a
    }

    /// The explicit-belief relation `E(v,c,b)`.
    pub fn e(&self) -> &Table {
        &self.e
    }

    /// The coupling relation `H(c1,c2,h)`.
    pub fn h(&self) -> &Table {
        &self.h
    }

    /// `D(v, d)` — `D(s, sum(w·w)) :− A(s, t, w)` (Sect. 5.3).
    pub fn degree_table(&self) -> Table {
        self.a
            .group_by_agg("D", &["s"], "d", AggFun::SumFloat, |r| {
                let w = r[2].as_float();
                Value::Float(w * w)
            })
    }

    /// `H2(c1, c2, sum(h1·h2)) :− H(c1, c3, h1), H(c3, c2, h2)` (Eq. 20).
    pub fn h2_table(&self) -> Table {
        self.h
            .join_map(
                &self.h,
                &["c2"],
                &["c1"],
                "HH",
                &["c1", "c2", "hh"],
                |l, r| vec![l[0], r[1], Value::Float(l[2].as_float() * r[2].as_float())],
            )
            .group_by_agg("H2", &["c1", "c2"], "h", AggFun::SumFloat, |r| r[2])
    }

    /// **Algorithm 1 (LinBP in SQL)** — `l` fixed iterations of the update
    /// `B ← E + A·B·Ĥ − D·B·Ĥ²` expressed as two view joins plus a grouped
    /// union (the paper's footnote 15). `echo = false` drops V2 (LinBP\*).
    /// The per-iteration `A ⋈ B` probe runs under the configured
    /// parallelism (see [`SqlDb::with_parallelism`]).
    pub fn linbp(&self, l: usize, echo: bool) -> BeliefMatrix {
        let d = self.degree_table();
        let h2 = self.h2_table();
        // Line 1: B(s,c,b) :− E(s,c,b).
        let mut b = self.e.clone();
        let cfg = &self.parallelism;
        for _ in 0..l {
            // V1(t,c2,sum(w·b·h)) :− A(s,t,w), B(s,c1,b), H(c1,c2,h). The
            // A ⋈ B probe (one row per stored edge) and the follow-up ⋈ H
            // (one row per edge × class) are the engine's hot loops —
            // executed with the configured parallelism.
            let ab = self.a.join_map_with(
                &b,
                &["s"],
                &["v"],
                "AB",
                &["t", "c1", "wb"],
                |a, bb| {
                    vec![
                        a[1],
                        bb[1],
                        Value::Float(a[2].as_float() * bb[2].as_float()),
                    ]
                },
                cfg,
            );
            let v1 = ab
                .join_map_with(
                    &self.h,
                    &["c1"],
                    &["c1"],
                    "ABH",
                    &["t", "c2", "wbh"],
                    |l, h| vec![l[0], h[1], Value::Float(l[2].as_float() * h[2].as_float())],
                    cfg,
                )
                .group_by_agg("V1", &["t", "c2"], "b", AggFun::SumFloat, |r| r[2]);
            // V2(s,c2,sum(d·b·h)) :− D(s,d), B(s,c1,b), H2(c1,c2,h).
            let combined = if echo {
                let db = d.join_map_with(
                    &b,
                    &["s"],
                    &["v"],
                    "DB",
                    &["v", "c1", "db"],
                    |dd, bb| {
                        vec![
                            dd[0],
                            bb[1],
                            Value::Float(dd[1].as_float() * bb[2].as_float()),
                        ]
                    },
                    cfg,
                );
                let v2 = db
                    .join_map_with(
                        &h2,
                        &["c1"],
                        &["c1"],
                        "DBH",
                        &["v", "c2", "dbh"],
                        |l, h| vec![l[0], h[1], Value::Float(l[2].as_float() * h[2].as_float())],
                        cfg,
                    )
                    .group_by_agg("V2", &["v", "c2"], "b", AggFun::SumFloat, |r| r[2]);
                // Negate V2 before the union (the −b₃ of line 4).
                let neg_v2 = v2.project("V2n", &["v", "c", "b"], |r| {
                    vec![r[0], r[1], Value::Float(-r[2].as_float())]
                });
                self.e.union_all(&v1).union_all(&neg_v2)
            } else {
                self.e.union_all(&v1)
            };
            // Line 4 via union all + group by (v, c).
            b = combined.group_by_agg("B", &["v", "c"], "b", AggFun::SumFloat, |r| r[2]);
        }
        belief_table_to_matrix(&b, self.n, self.k)
    }

    /// **Batched Algorithm 1** — answers `q` labeling queries (different
    /// seed relations over the same graph and coupling) in **one pass**:
    /// the explicit-belief relation gains a query-id column,
    /// `EQ(q, v, c, b)`, and the same two view joins + grouped union run
    /// once per iteration for *all* queries — the `A ⋈ B` probe streams
    /// the edge relation through the executor once per round instead of
    /// `q` times, the relational mirror of the stacked-SpMM
    /// `lsbp::batch::linbp_batch`.
    ///
    /// Runs `l` fixed iterations per query (Algorithm 1 has no
    /// convergence read-out — the paper's SQL loop is `l` rounds); pass
    /// the per-query matrices to the native read-outs for top-belief
    /// queries. Returns one belief matrix per query, in query order.
    ///
    /// # Panics
    /// Panics if a query's node or class count disagrees with the loaded
    /// graph (same contract as [`SqlDb::new`]).
    pub fn linbp_batch(
        &self,
        queries: &[ExplicitBeliefs],
        l: usize,
        echo: bool,
    ) -> Vec<BeliefMatrix> {
        for e in queries {
            assert_eq!(e.n(), self.n, "query node count mismatch");
            assert_eq!(e.k(), self.k, "query class count mismatch");
        }
        if queries.is_empty() {
            return Vec::new();
        }
        // EQ(q, v, c, b): all seed relations, tagged by query id.
        let mut eq = Table::new("EQ", &["q", "v", "c", "b"]);
        for (j, e) in queries.iter().enumerate() {
            for v in e.explicit_nodes() {
                for (c, &val) in e.row(v).iter().enumerate() {
                    eq.push(vec![
                        Value::Int(j as i64),
                        Value::Int(v as i64),
                        Value::Int(c as i64),
                        Value::Float(val),
                    ]);
                }
            }
        }
        let d = self.degree_table();
        let h2 = self.h2_table();
        let cfg = &self.parallelism;
        // Line 1: B(q,v,c,b) :− EQ(q,v,c,b).
        let mut b = eq.clone();
        for _ in 0..l {
            // V1(q,t,c2,sum(w·b·h)) :− A(s,t,w), B(q,s,c1,b), H(c1,c2,h).
            let ab = self.a.join_map_with(
                &b,
                &["s"],
                &["v"],
                "AB",
                &["q", "t", "c1", "wb"],
                |a, bb| {
                    vec![
                        bb[0],
                        a[1],
                        bb[2],
                        Value::Float(a[2].as_float() * bb[3].as_float()),
                    ]
                },
                cfg,
            );
            let v1 = ab
                .join_map_with(
                    &self.h,
                    &["c1"],
                    &["c1"],
                    "ABH",
                    &["q", "t", "c2", "wbh"],
                    |left, h| {
                        vec![
                            left[0],
                            left[1],
                            h[1],
                            Value::Float(left[3].as_float() * h[2].as_float()),
                        ]
                    },
                    cfg,
                )
                .group_by_agg("V1", &["q", "t", "c2"], "b", AggFun::SumFloat, |r| r[3]);
            // V2(q,s,c2,sum(d·b·h)) :− D(s,d), B(q,s,c1,b), H2(c1,c2,h).
            let combined = if echo {
                let db = d.join_map_with(
                    &b,
                    &["s"],
                    &["v"],
                    "DB",
                    &["q", "v", "c1", "db"],
                    |dd, bb| {
                        vec![
                            bb[0],
                            dd[0],
                            bb[2],
                            Value::Float(dd[1].as_float() * bb[3].as_float()),
                        ]
                    },
                    cfg,
                );
                let v2 = db
                    .join_map_with(
                        &h2,
                        &["c1"],
                        &["c1"],
                        "DBH",
                        &["q", "v", "c2", "dbh"],
                        |left, h| {
                            vec![
                                left[0],
                                left[1],
                                h[1],
                                Value::Float(left[3].as_float() * h[2].as_float()),
                            ]
                        },
                        cfg,
                    )
                    .group_by_agg("V2", &["q", "v", "c2"], "b", AggFun::SumFloat, |r| r[3]);
                let neg_v2 = v2.project("V2n", &["q", "v", "c", "b"], |r| {
                    vec![r[0], r[1], r[2], Value::Float(-r[3].as_float())]
                });
                eq.union_all(&v1).union_all(&neg_v2)
            } else {
                eq.union_all(&v1)
            };
            b = combined.group_by_agg("B", &["q", "v", "c"], "b", AggFun::SumFloat, |r| r[3]);
        }
        // Split per query id back into dense matrices.
        let (qi, vi, ci, bi) = (b.col("q"), b.col("v"), b.col("c"), b.col("b"));
        let mut out: Vec<Mat> = (0..queries.len())
            .map(|_| Mat::zeros(self.n, self.k))
            .collect();
        for r in b.rows() {
            let j = r[qi].as_int() as usize;
            let v = r[vi].as_int() as usize;
            let c = r[ci].as_int() as usize;
            out[j][(v, c)] += r[bi].as_float();
        }
        out.into_iter().map(BeliefMatrix::from_mat).collect()
    }

    /// **Algorithm 1 driven by SQL text** — the same computation as
    /// [`SqlDb::linbp`], but every step is parsed from the literal SQL of
    /// Sect. 5.3 / Appendix D and executed by the [`crate::exec`]
    /// interpreter: `D` and `H2` via `CREATE TABLE … AS` (Fig. 9a style),
    /// each iteration as `CREATE TABLE`s for the views `V1`/`V2` and the
    /// grouped union of line 4, with `Bn`/`B` swapped by `DROP`/`CREATE`.
    /// Its multi-way joins (notably the 3-way `A ⋈ B ⋈ H` of line 4) go
    /// through the cost-bounded planner ([`crate::plan`]); the plan-built
    /// methods like [`SqlDb::linbp`] construct engine operator plans
    /// directly and bypass it.
    ///
    /// # Panics
    /// Panics if the embedded SQL fails to execute — that would be a bug in
    /// the parser/executor, which the test suite pins against the native
    /// implementation.
    pub fn linbp_sql_text(&self, l: usize) -> BeliefMatrix {
        let mut db = crate::exec::Database::new();
        db.insert_table("A", self.a.clone());
        db.insert_table("E", self.e.clone());
        db.insert_table("H", self.h.clone());
        let run = |db: &mut crate::exec::Database, sql: &str| {
            db.execute_script(sql)
                .unwrap_or_else(|e| panic!("embedded SQL failed: {e}\n{sql}"))
        };
        // Derived tables: D(s, sum(w·w)) and H2 = Ĥ² (Fig. 9a).
        run(
            &mut db,
            "create table D as select s, sum(w * w) as d from A group by s",
        );
        run(
            &mut db,
            "create table H2 as select H1.c1, H2.c2, sum(H1.h * H2.h) as h \
             from H H1, H H2 where H1.c2 = H2.c1 group by H1.c1, H2.c2",
        );
        // Line 1: B := E.
        run(&mut db, "create table B as select v, c, b from E");
        for _ in 0..l {
            // Line 3, V1(t, c2, sum(w·b·h)) :− A(s,t,w), B(s,c1,b), H(c1,c2,h).
            run(
                &mut db,
                "create table V1 as \
                 select A.t as v, H.c2 as c, sum(A.w * B.b * H.h) as b \
                 from A, B, H \
                 where A.s = B.v and B.c = H.c1 \
                 group by A.t, H.c2",
            );
            // Line 3, V2(s, c2, sum(d·b·h)) :− D(s,d), B(s,c1,b), H2(c1,c2,h).
            run(
                &mut db,
                "create table V2 as \
                 select D.s as v, H2.c2 as c, sum(D.d * B.b * H2.h) as b \
                 from D, B, H2 \
                 where D.s = B.v and B.c = H2.c1 \
                 group by D.s, H2.c2",
            );
            // Line 4: B(v, c, b1 + b2 − b3) via UNION ALL + GROUP BY
            // (footnote 15), assembled from E, V1 and negated V2.
            run(&mut db, "create table U as select v, c, b from E");
            run(&mut db, "insert into U select v, c, b from V1");
            run(&mut db, "insert into U select v, c, 0 - b from V2");
            run(&mut db, "drop table B");
            run(
                &mut db,
                "create table B as select v, c, sum(b) as b from U group by v, c",
            );
            run(&mut db, "drop table V1; drop table V2; drop table U");
        }
        let b = db.table("B").expect("B exists").clone();
        belief_table_to_matrix(&b, self.n, self.k)
    }

    /// The paper's Fig. 9b read-out: top-belief assignment computed by SQL
    /// text over a belief table (ties via exact float equality with the
    /// per-node maximum, as in the paper).
    pub fn top_beliefs_sql_text(b: &Table) -> Vec<(i64, i64)> {
        let mut db = crate::exec::Database::new();
        db.insert_table("B", b.clone());
        let top = db
            .execute(
                "select B.v, B.c from B, \
                 (select B2.v, max(B2.b) as b from B B2 group by B2.v) as X \
                 where B.v = X.v and B.b = X.b",
            )
            .expect("Fig. 9b SQL executes")
            .expect("SELECT returns rows");
        let mut pairs: Vec<(i64, i64)> = top
            .rows()
            .iter()
            .map(|r| (r[0].as_int(), r[1].as_int()))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// **Algorithm 2 (SBP in SQL)** — initial belief assignment by layered
    /// single-pass propagation.
    pub fn sbp(&self) -> SqlSbpState {
        // Line 1: G(v,0) :− E(v,_,_);  B(v,c,b) :− E(v,c,b).
        let mut g = Table::new("G", &["v", "g"]);
        for v in self.e.distinct_ints("v") {
            g.push(vec![Value::Int(v), Value::Int(0)]);
        }
        let mut b = self.e.clone();
        let mut i: i64 = 1;
        loop {
            // Line 4: G(t,i) :− G(s,i−1), A(s,t,_), ¬G(t,_).
            let frontier = g.filter("Gf", |r| r[1].as_int() == i - 1);
            let reached =
                frontier.join_map(&self.a, &["v"], &["s"], "R", &["t"], |_, a| vec![a[1]]);
            let fresh = reached.anti_join(&g, &["t"], &["v"]);
            let new_nodes = fresh.distinct_ints("t");
            if new_nodes.is_empty() {
                break;
            }
            let mut g_new = Table::new("Gn", &["v", "g"]);
            for t in &new_nodes {
                g_new.push(vec![Value::Int(*t), Value::Int(i)]);
            }
            // Line 5: B(t,c2,sum(w·b·h)) :− G(t,i), A(s,t,w), B(s,c1,b),
            //                               G(s,i−1), H(c1,c2,h).
            let b_new = propagate_layer(&self.a, &b, &self.h, &frontier, &g_new);
            g = g.union_all(&g_new);
            b = b.union_all(&b_new);
            i += 1;
        }
        SqlSbpState { b, g }
    }

    /// **Algorithm 3 (ΔSBP: new explicit beliefs)** — batch insertion of
    /// explicit beliefs with incremental maintenance of `B` and `G`.
    pub fn sbp_add_explicit(&mut self, state: &mut SqlSbpState, additions: &ExplicitBeliefs) {
        let en = explicit_to_table(additions);
        // Line 1: Gn(v,0) :− En(v,_,_);  !G(v,0).
        let mut gn = Table::new("Gn", &["v", "g"]);
        for v in en.distinct_ints("v") {
            gn.push(vec![Value::Int(v), Value::Int(0)]);
        }
        state.g.upsert(&gn, &["v"]);
        // Line 2: Bn := En;  !B.
        state.b.upsert(&en, &["v"]);
        // Merge the additions into E so later recomputations see them.
        self.e.upsert(&en, &["v"]);

        let mut i: i64 = 1;
        loop {
            // Line 5: Gn(t,i) :− Gn(s,i−1), A(s,t,_), ¬(G(t,gt), gt < i).
            let reached = gn.join_map(&self.a, &["v"], &["s"], "R", &["t"], |_, a| vec![a[1]]);
            let settled = state.g.filter("Gs", |r| r[1].as_int() < i);
            let fresh = reached.anti_join(&settled, &["t"], &["v"]);
            let nodes = fresh.distinct_ints("t");
            if nodes.is_empty() {
                break;
            }
            let mut gn_next = Table::new("Gn", &["v", "g"]);
            for t in &nodes {
                gn_next.push(vec![Value::Int(*t), Value::Int(i)]);
            }
            state.g.upsert(&gn_next, &["v"]);
            // Line 6: recompute beliefs of the updated nodes from *all*
            // parents at level i−1 (updated or not).
            let parents = state.g.filter("Gp", |r| r[1].as_int() == i - 1);
            let bn = propagate_layer(&self.a, &state.b, &self.h, &parents, &gn_next);
            // !B — replace whole node rows (Fig. 9d).
            state.b.upsert(&bn, &["v"]);
            gn = gn_next;
            i += 1;
        }
    }

    /// **Algorithm 4 (ΔSBP: new edges)** — batch insertion of edges.
    ///
    /// `new_edges` are undirected `(s, t, w)` triples. Follows Appendix C's
    /// Algorithm 4 (with the `gt ≤ gs` guard, see module docs); nodes may
    /// be updated more than once as shorter geodesic paths cascade.
    pub fn sbp_add_edges(&mut self, state: &mut SqlSbpState, new_edges: &[(usize, usize, f64)]) {
        // Line 1: !A(s,t,w) :− An(s,t,w) (both directions).
        let mut an = Table::new("An", &["s", "t", "w"]);
        for &(s, t, w) in new_edges {
            an.push(vec![
                Value::Int(s as i64),
                Value::Int(t as i64),
                Value::Float(w),
            ]);
            an.push(vec![
                Value::Int(t as i64),
                Value::Int(s as i64),
                Value::Float(w),
            ]);
        }
        for row in an.rows() {
            self.a.push(row.clone());
        }
        // Re-merge parallel edges (see `new`): an inserted edge that
        // duplicates an existing one accumulates into its weight.
        self.a = self
            .a
            .group_by_agg("A", &["s", "t"], "w", AggFun::SumFloat, |r| r[2])
            .project("A", &["s", "t", "w"], |r| vec![r[0], r[1], r[2]]);

        // Line 2: seed nodes — Gn(t, min(gs+1)) :− G(s,gs), An(s,t,_),
        // ¬(G(t,gt), gt ≤ gs).
        let mut gn = self.relax_step(&an, &state.g, &state.g);
        loop {
            if gn.is_empty() {
                break;
            }
            // !G and belief recomputation for the seeds of this round
            // (lines 2–3 first pass, lines 5–6 in the loop).
            state.g.upsert(&gn, &["v"]);
            let bn = recompute_from_parents(&self.a, &state.b, &self.h, &state.g, &gn);
            state.b.upsert(&bn, &["v"]);
            // Line 5: next frontier from the nodes just updated; edges now
            // come from the full (updated) adjacency.
            let frontier_edges =
                self.a
                    .join_map(&gn, &["s"], &["v"], "Af", &["s", "t", "w", "gs"], |a, g| {
                        vec![a[0], a[1], a[2], g[1]]
                    });
            gn = self.relax_step_from(&frontier_edges, &state.g);
        }
    }

    /// One relaxation: candidate geodesic updates flowing across `edges`
    /// (which must carry columns `s,t,w`), with source levels taken from
    /// `g_src` and guard levels from `g_all`.
    fn relax_step(&self, edges: &Table, g_src: &Table, g_all: &Table) -> Table {
        let with_gs = edges.join_map(
            g_src,
            &["s"],
            &["v"],
            "Ag",
            &["s", "t", "w", "gs"],
            |a, g| vec![a[0], a[1], a[2], g[1]],
        );
        self.relax_step_from(&with_gs, g_all)
    }

    /// Shared tail of the relaxation: given `(s,t,w,gs)` rows, keep targets
    /// whose current geodesic number exceeds `gs` (or is unset) and
    /// aggregate `min(gs+1)` per target.
    fn relax_step_from(&self, edges_with_gs: &Table, g_all: &Table) -> Table {
        // Join candidates with current G to apply the guard; targets
        // without a G row pass automatically (anti-join path).
        let with_gt =
            edges_with_gs.join_map(g_all, &["t"], &["v"], "Agt", &["t", "gs", "gt"], |e, g| {
                vec![e[1], e[3], g[1]]
            });
        let improving = with_gt.filter("Ai", |r| r[2].as_int() > r[1].as_int());
        let unreached =
            edges_with_gs
                .anti_join(g_all, &["t"], &["v"])
                .project("Au", &["t", "gs", "gt"], |r| {
                    vec![r[1], r[3], Value::Int(i64::MAX - 1)]
                });
        improving
            .union_all(&unreached)
            .group_by_agg("Gn", &["t"], "g", AggFun::MinInt, |r| {
                Value::Int(r[1].as_int() + 1)
            })
            .project("Gn", &["v", "g"], |r| vec![r[0], r[1]])
    }
}

/// Line 5 of Algorithm 2 / line 6 of Algorithm 3: beliefs of the nodes in
/// `targets` computed from the parents in `parents` (a `G` slice at level
/// i−1):
/// `B(t,c2,sum(w·b·h)) :− targets(t,_), A(s,t,w), B(s,c1,b), parents(s,_),
///  H(c1,c2,h)`.
fn propagate_layer(a: &Table, b: &Table, h: &Table, parents: &Table, targets: &Table) -> Table {
    let from_parents = a.join_map(parents, &["s"], &["v"], "Ap", &["s", "t", "w"], |a, _| {
        vec![a[0], a[1], a[2]]
    });
    let to_targets =
        from_parents.join_map(targets, &["t"], &["v"], "At", &["s", "t", "w"], |e, _| {
            vec![e[0], e[1], e[2]]
        });
    let with_b = to_targets.join_map(b, &["s"], &["v"], "AtB", &["t", "c1", "wb"], |e, bb| {
        vec![
            e[1],
            bb[1],
            Value::Float(e[2].as_float() * bb[2].as_float()),
        ]
    });
    let terms = with_b.join_map(h, &["c1"], &["c1"], "AtBH", &["t", "c2", "wbh"], |l, hh| {
        vec![
            l[0],
            hh[1],
            Value::Float(l[2].as_float() * hh[2].as_float()),
        ]
    });
    sum_terms_with_cancellation_snap(&terms)
}

/// Aggregates a `(t, c2, wbh)` term relation into `B(v, c, b)` rows,
/// snapping sums within the shared rounding bound of 0 to an exact 0 —
/// exact SBP cancellations (a node fed by seeds of all `k` classes) must
/// read out as ties here just as they do in the in-memory engine (see
/// [`lsbp::sbp::CANCELLATION_EPS`]).
fn sum_terms_with_cancellation_snap(terms: &Table) -> Table {
    let sums = terms.group_by_agg("Bsum", &["t", "c2"], "b", AggFun::SumFloat, |r| r[2]);
    let abs_sums = terms.group_by_agg("Babs", &["t", "c2"], "s", AggFun::SumFloat, |r| {
        Value::Float(r[2].as_float().abs())
    });
    sums.join_map(
        &abs_sums,
        &["t", "c2"],
        &["t", "c2"],
        "Bn",
        &["v", "c", "b"],
        |l, a| {
            let b = l[2].as_float();
            let bound = lsbp::sbp::CANCELLATION_EPS * a[2].as_float();
            let snapped = if b.abs() <= bound { 0.0 } else { b };
            vec![l[0], l[1], Value::Float(snapped)]
        },
    )
}

/// Algorithm 4's belief recomputation: like [`propagate_layer`] but the
/// parent level differs per target (`g_parent = g_target − 1`), so the
/// parent filter is a join predicate instead of a pre-sliced table.
fn recompute_from_parents(a: &Table, b: &Table, h: &Table, g: &Table, targets: &Table) -> Table {
    // (t, gt) ⋈ A(s,t,w) ⋈ G(s,gs) with gs = gt − 1 ⋈ B(s,c1,b) ⋈ H.
    let edges_in = a.join_map(
        targets,
        &["t"],
        &["v"],
        "Ain",
        &["s", "t", "w", "gt"],
        |e, tg| vec![e[0], e[1], e[2], tg[1]],
    );
    let with_gs = edges_in.join_map(
        g,
        &["s"],
        &["v"],
        "Ags",
        &["s", "t", "w", "gt", "gs"],
        |e, gg| vec![e[0], e[1], e[2], e[3], gg[1]],
    );
    let parent_edges = with_gs.filter("Apar", |r| r[4].as_int() == r[3].as_int() - 1);
    let with_b = parent_edges.join_map(b, &["s"], &["v"], "AB", &["t", "c1", "wb"], |e, bb| {
        vec![
            e[1],
            bb[1],
            Value::Float(e[2].as_float() * bb[2].as_float()),
        ]
    });
    let terms = with_b.join_map(h, &["c1"], &["c1"], "ABH", &["t", "c2", "wbh"], |l, hh| {
        vec![
            l[0],
            hh[1],
            Value::Float(l[2].as_float() * hh[2].as_float()),
        ]
    });
    let full = sum_terms_with_cancellation_snap(&terms);
    // Targets with *no* parent edges yet (e.g. freshly reconnected nodes
    // whose parents are settled later) must still be overwritten — emit
    // explicit zero rows so the upsert clears stale beliefs. The number of
    // classes is read off H.
    let k = h.distinct_ints("c1").len();
    let have_rows: std::collections::HashSet<i64> = full.distinct_ints("v").into_iter().collect();
    let mut out = full;
    for t in targets.distinct_ints("v") {
        if !have_rows.contains(&t) {
            for c in 0..k {
                out.push(vec![Value::Int(t), Value::Int(c as i64), Value::Float(0.0)]);
            }
        }
    }
    out
}

/// Converts explicit beliefs to the `E(v,c,b)` relation (explicit nodes
/// only, all `k` class rows each).
pub fn explicit_to_table(explicit: &ExplicitBeliefs) -> Table {
    let mut e = Table::new("E", &["v", "c", "b"]);
    for v in explicit.explicit_nodes() {
        for (c, &val) in explicit.row(v).iter().enumerate() {
            e.push(vec![
                Value::Int(v as i64),
                Value::Int(c as i64),
                Value::Float(val),
            ]);
        }
    }
    e
}

/// Converts a `B(v,c,b)` relation back to a dense residual belief matrix
/// (missing pairs are 0).
pub fn belief_table_to_matrix(b: &Table, n: usize, k: usize) -> BeliefMatrix {
    let mut m = Mat::zeros(n, k);
    let vi = b.col("v");
    let ci = b.col("c");
    let bi = b.col("b");
    for r in b.rows() {
        let v = r[vi].as_int() as usize;
        let c = r[ci].as_int() as usize;
        m[(v, c)] += r[bi].as_float();
    }
    BeliefMatrix::from_mat(m)
}

/// Converts a `G(v,g)` relation to a per-node geodesic array
/// (`u32::MAX` = unreached), for comparison against the native SBP.
pub fn geodesic_table_to_vec(g: &Table, n: usize) -> Vec<u32> {
    let mut out = vec![u32::MAX; n];
    let vi = g.col("v");
    let gi = g.col("g");
    for r in g.rows() {
        out[r[vi].as_int() as usize] = r[gi].as_int() as u32;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsbp::coupling::CouplingMatrix;
    use lsbp::linbp::{linbp, linbp_star, LinBpOptions};
    use lsbp::sbp::{sbp, sbp_add_edges, sbp_add_explicit};
    use lsbp_graph::generators::{erdos_renyi_gnm, fig5c_torus, path};

    fn torus_db() -> (SqlDb, lsbp_graph::Graph, ExplicitBeliefs, Mat) {
        let g = fig5c_torus();
        let mut e = ExplicitBeliefs::new(8, 3);
        e.set_residual(0, &[2.0, -1.0, -1.0]).unwrap();
        e.set_residual(1, &[-1.0, 2.0, -1.0]).unwrap();
        e.set_residual(2, &[-1.0, -1.0, 2.0]).unwrap();
        let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.1);
        let db = SqlDb::new(&g, &e, &h);
        (db, g, e, h)
    }

    #[test]
    fn derived_tables() {
        let (db, ..) = torus_db();
        let d = db.degree_table();
        // Pendant nodes have degree 1, inner nodes degree 3.
        let d_map: std::collections::HashMap<i64, f64> = d
            .rows()
            .iter()
            .map(|r| (r[0].as_int(), r[1].as_float()))
            .collect();
        assert_eq!(d_map[&0], 1.0);
        assert_eq!(d_map[&4], 3.0);
        // H2 equals the dense Ĥ².
        let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.1);
        let h2_dense = h.matmul(&h);
        let h2 = db.h2_table();
        for r in h2.rows() {
            let (c1, c2) = (r[0].as_int() as usize, r[1].as_int() as usize);
            assert!((r[2].as_float() - h2_dense[(c1, c2)]).abs() < 1e-14);
        }
    }

    /// Algorithm 1 reproduces the in-memory LinBP iteration exactly
    /// (same fixed number of rounds, same starting point).
    #[test]
    fn sql_linbp_matches_native() {
        let (db, g, e, h) = torus_db();
        let adj = g.adjacency();
        for iters in [1, 3, 5] {
            let sql_b = db.linbp(iters, true);
            let native = linbp(
                &adj,
                &e,
                &h,
                &LinBpOptions {
                    max_iter: iters,
                    tol: 0.0,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(
                sql_b.residual().max_abs_diff(native.beliefs.residual()) < 1e-12,
                "iters = {iters}"
            );
        }
    }

    #[test]
    fn sql_linbp_star_matches_native() {
        let (db, g, e, h) = torus_db();
        let adj = g.adjacency();
        let sql_b = db.linbp(4, false);
        let native = linbp_star(
            &adj,
            &e,
            &h,
            &LinBpOptions {
                max_iter: 4,
                tol: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(sql_b.residual().max_abs_diff(native.beliefs.residual()) < 1e-12);
    }

    /// The batched relational path answers every query exactly as the
    /// native batched solver (and the per-query relational path) does.
    #[test]
    fn sql_linbp_batch_matches_native_batch() {
        let (db, g, e, h) = torus_db();
        let adj = g.adjacency();
        // Three distinct seed-sets over the same graph, one empty.
        let mut e2 = ExplicitBeliefs::new(8, 3);
        e2.set_label(5, 1, 1.0).unwrap();
        let e3 = ExplicitBeliefs::new(8, 3);
        let queries = vec![e.clone(), e2, e3];
        for echo in [true, false] {
            let batched = db.linbp_batch(&queries, 4, echo);
            assert_eq!(batched.len(), 3);
            let opts = lsbp::linbp::LinBpOptions {
                max_iter: 4,
                tol: 0.0,
                ..Default::default()
            };
            let native = if echo {
                lsbp::batch::linbp_batch(&adj, &queries, &h, &opts).unwrap()
            } else {
                lsbp::batch::linbp_star_batch(&adj, &queries, &h, &opts).unwrap()
            };
            for (j, (sql_b, nat)) in batched.iter().zip(&native).enumerate() {
                assert!(
                    sql_b.residual().max_abs_diff(nat.beliefs.residual()) < 1e-12,
                    "echo={echo} query {j}"
                );
            }
        }
        // And the first query agrees with the single-query relational path.
        let single = db.linbp(4, true);
        let batched = db.linbp_batch(&queries, 4, true);
        assert!(batched[0].residual().max_abs_diff(single.residual()) < 1e-12);
    }

    #[test]
    fn sql_linbp_batch_empty() {
        let (db, ..) = torus_db();
        assert!(db.linbp_batch(&[], 3, true).is_empty());
    }

    /// Pooled hot probes do not change a single belief: parallel
    /// relational LinBP (single and batched) equals the serial relational
    /// run bitwise.
    #[test]
    fn sql_linbp_parallel_matches_serial() {
        let g = erdos_renyi_gnm(40, 120, 11);
        let mut e = ExplicitBeliefs::new(40, 3);
        e.set_label(0, 0, 1.0).unwrap();
        e.set_label(17, 2, 1.0).unwrap();
        let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.05);
        let mut e2 = ExplicitBeliefs::new(40, 3);
        e2.set_label(31, 1, 1.0).unwrap();
        let queries = vec![e.clone(), e2];
        let reference_db = SqlDb::new(&g, &e, &h).with_parallelism(ParallelismConfig::serial());
        let reference = reference_db.linbp(4, true);
        let reference_batch = reference_db.linbp_batch(&queries, 4, true);
        for threads in [1usize, 2, 4] {
            let cfg = ParallelismConfig::with_threads(threads).with_min_work(1);
            let db = SqlDb::new(&g, &e, &h).with_parallelism(cfg);
            let got = db.linbp(4, true);
            let same = got
                .residual()
                .as_slice()
                .iter()
                .zip(reference.residual().as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "t={threads}");
            let got_batch = db.linbp_batch(&queries, 4, true);
            for (j, (got_q, want_q)) in got_batch.iter().zip(&reference_batch).enumerate() {
                let same = got_q
                    .residual()
                    .as_slice()
                    .iter()
                    .zip(want_q.residual().as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "t={threads} query {j}");
            }
        }
    }

    /// The SQL-text path (parsed and interpreted statements) produces the
    /// same beliefs as the query-plan path and the native implementation.
    #[test]
    fn sql_text_linbp_matches_plans() {
        let (db, g, e, h) = torus_db();
        for iters in [1, 3] {
            let via_text = db.linbp_sql_text(iters);
            let via_plans = db.linbp(iters, true);
            assert!(
                via_text.residual().max_abs_diff(via_plans.residual()) < 1e-12,
                "iters = {iters}"
            );
            let native = linbp(
                &g.adjacency(),
                &e,
                &h,
                &LinBpOptions {
                    max_iter: iters,
                    tol: 0.0,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(via_text.residual().max_abs_diff(native.beliefs.residual()) < 1e-12);
        }
    }

    /// Fig. 9b's SQL read-out agrees with the in-memory top-belief
    /// assignment (for nodes with a unique top class).
    #[test]
    fn sql_text_top_beliefs() {
        let (db, ..) = torus_db();
        let beliefs = db.linbp(3, true);
        let mut b_table = Table::new("B", &["v", "c", "b"]);
        for v in 0..8 {
            for (c, &val) in beliefs.row(v).iter().enumerate() {
                b_table.push(vec![
                    Value::Int(v as i64),
                    Value::Int(c as i64),
                    Value::Float(val),
                ]);
            }
        }
        let pairs = SqlDb::top_beliefs_sql_text(&b_table);
        let native = beliefs.top_belief_assignment(0.0);
        for (v, tops) in native.iter().enumerate() {
            let sql_tops: Vec<i64> = pairs
                .iter()
                .filter(|(pv, _)| *pv == v as i64)
                .map(|(_, c)| *c)
                .collect();
            let expect: Vec<i64> = tops.iter().map(|&c| c as i64).collect();
            assert_eq!(sql_tops, expect, "node {v}");
        }
    }

    /// Algorithm 2 reproduces the native SBP (beliefs and geodesics).
    #[test]
    fn sql_sbp_matches_native() {
        let (db, g, e, _) = torus_db();
        let ho = CouplingMatrix::fig1c().unwrap().residual();
        let db_unscaled = SqlDb::new(&g, &e, &ho);
        let state = db_unscaled.sbp();
        let native = sbp(&g.adjacency(), &e, &ho).unwrap();
        let sql_beliefs = belief_table_to_matrix(&state.b, 8, 3);
        assert!(
            sql_beliefs
                .residual()
                .max_abs_diff(native.beliefs.residual())
                < 1e-12
        );
        assert_eq!(geodesic_table_to_vec(&state.g, 8), native.geodesics.g);
        let _ = db;
    }

    /// Algorithm 3 equals recomputation from scratch, on random graphs.
    #[test]
    fn sql_add_explicit_matches_scratch() {
        let ho = CouplingMatrix::fig1c().unwrap().residual();
        for seed in 0..3u64 {
            let g = erdos_renyi_gnm(40, 90, seed);
            let mut base = ExplicitBeliefs::new(40, 3);
            base.set_label(0, 0, 1.0).unwrap();
            base.set_label(5, 1, 1.0).unwrap();
            let mut db = SqlDb::new(&g, &base, &ho);
            let mut state = db.sbp();

            let mut delta = ExplicitBeliefs::new(40, 3);
            delta.set_label(17, 2, 1.0).unwrap();
            delta.set_label(31, 1, 1.0).unwrap();
            db.sbp_add_explicit(&mut state, &delta);

            let mut full = base.clone();
            full.set_label(17, 2, 1.0).unwrap();
            full.set_label(31, 1, 1.0).unwrap();
            let scratch_db = SqlDb::new(&g, &full, &ho);
            let scratch = scratch_db.sbp();

            let a = belief_table_to_matrix(&state.b, 40, 3);
            let b = belief_table_to_matrix(&scratch.b, 40, 3);
            assert!(
                a.residual().max_abs_diff(b.residual()) < 1e-10,
                "seed {seed}"
            );
            assert_eq!(
                geodesic_table_to_vec(&state.g, 40),
                geodesic_table_to_vec(&scratch.g, 40),
                "seed {seed}"
            );
        }
    }

    /// Algorithm 3 also agrees with the native incremental implementation.
    #[test]
    fn sql_add_explicit_matches_native_incremental() {
        let ho = CouplingMatrix::fig1c().unwrap().residual();
        let g = erdos_renyi_gnm(30, 60, 11);
        let adj = g.adjacency();
        let mut base = ExplicitBeliefs::new(30, 3);
        base.set_label(2, 0, 1.0).unwrap();
        let mut db = SqlDb::new(&g, &base, &ho);
        let mut state = db.sbp();
        let native_prev = sbp(&adj, &base, &ho).unwrap();

        let mut delta = ExplicitBeliefs::new(30, 3);
        delta.set_label(19, 2, 1.0).unwrap();
        db.sbp_add_explicit(&mut state, &delta);
        let native = sbp_add_explicit(&adj, &ho, &native_prev, &delta).unwrap();

        let sql_b = belief_table_to_matrix(&state.b, 30, 3);
        assert!(sql_b.residual().max_abs_diff(native.beliefs.residual()) < 1e-10);
        assert_eq!(geodesic_table_to_vec(&state.g, 30), native.geodesics.g);
    }

    /// Algorithm 4 equals recomputation from scratch, on random graphs.
    #[test]
    fn sql_add_edges_matches_scratch() {
        let ho = CouplingMatrix::fig1c().unwrap().residual();
        for seed in 0..3u64 {
            let full_graph = erdos_renyi_gnm(35, 100, seed);
            let (base, extra) = full_graph.split_edges(80);
            let mut e = ExplicitBeliefs::new(35, 3);
            e.set_label(1, 0, 1.0).unwrap();
            e.set_label(8, 2, 1.0).unwrap();
            let mut db = SqlDb::new(&base, &e, &ho);
            let mut state = db.sbp();
            let new_edges: Vec<_> = extra.edges().collect();
            db.sbp_add_edges(&mut state, &new_edges);

            let scratch_db = SqlDb::new(&full_graph, &e, &ho);
            let scratch = scratch_db.sbp();
            let a = belief_table_to_matrix(&state.b, 35, 3);
            let b = belief_table_to_matrix(&scratch.b, 35, 3);
            assert_eq!(
                geodesic_table_to_vec(&state.g, 35),
                geodesic_table_to_vec(&scratch.g, 35),
                "seed {seed}"
            );
            assert!(
                a.residual().max_abs_diff(b.residual()) < 1e-10,
                "seed {seed}"
            );
        }
    }

    /// The Appendix C worked example: cascading updates through a chain.
    #[test]
    fn sql_add_edges_appendix_c() {
        let ho = CouplingMatrix::fig1c().unwrap().residual();
        let base = path(5);
        let mut e = ExplicitBeliefs::new(5, 3);
        e.set_label(0, 0, 1.0).unwrap();
        let mut db = SqlDb::new(&base, &e, &ho);
        let mut state = db.sbp();
        db.sbp_add_edges(&mut state, &[(0, 2, 1.0), (2, 4, 1.0)]);

        let mut full = base.clone();
        full.add_edge_unweighted(0, 2);
        full.add_edge_unweighted(2, 4);
        let native = sbp_add_edges(
            &full.adjacency(),
            &[(0, 2, 1.0), (2, 4, 1.0)],
            &ho,
            &sbp(&base.adjacency(), &e, &ho).unwrap(),
        )
        .unwrap();
        let sql_b = belief_table_to_matrix(&state.b, 5, 3);
        assert!(sql_b.residual().max_abs_diff(native.beliefs.residual()) < 1e-12);
        assert_eq!(geodesic_table_to_vec(&state.g, 5), native.geodesics.g);
    }
}
