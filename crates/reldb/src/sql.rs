//! The paper's SQL algorithms over the relational engine.
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
//! | Paper          | Method                                              |
//! |----------------|-----------------------------------------------------|
//! | Algorithm 1    | [`SqlDb::linbp`], [`SqlDb::linbp_batch`]            |
//! | Algorithm 2    | [`SqlDb::sbp`]                                      |
//! | Algorithm 3    | [`SqlDb::sbp_add_explicit`]                         |
//! | Algorithm 4    | [`SqlDb::sbp_add_edges`]                            |
//!
//! Algorithm 1 is written once, as the literal SQL of Sect. 5.3 /
//! Appendix D run through the parser, the cost-bounded planner and the
//! pipelined executor ([`crate::exec`]). Algorithms 2–4 are built from the
//! engine operators ([`Table::join_map`], [`Table::anti_join`], …).
//!
//! One deviation is documented inline: Algorithm 4's guard `¬(G(t,gt),
//! gt < gs)` admits edges between equal-geodesic nodes, which the paper's
//! own case analysis (Appendix C, case 1) says must be ignored; we use
//! `gt ≤ gs`, the reading consistent with that analysis.

use crate::engine::{AggFun, Table, Value};
use crate::exec::Database;
use lsbp::beliefs::{BeliefMatrix, ExplicitBeliefs};
use lsbp_graph::Graph;
use lsbp_linalg::Mat;

/// A relational database holding one classification problem.
#[derive(Clone, Debug)]
pub struct SqlDb {
    n: usize,
    k: usize,
    a: Table,
    e: Table,
    h: Table,
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
    ///
    /// # Panics
    /// Panics if the graph and beliefs disagree on the node count, or if
    /// `h_residual` is not `k × k` for the beliefs' class count `k`.
    pub fn new(graph: &Graph, explicit: &ExplicitBeliefs, h_residual: &Mat) -> Self {
        assert_eq!(
            graph.num_nodes(),
            explicit.n(),
            "graph/beliefs node count mismatch"
        );
        let k = explicit.k();
        assert!(
            h_residual.rows() == k && h_residual.cols() == k,
            "coupling arity mismatch: {}×{} coupling for k = {k}",
            h_residual.rows(),
            h_residual.cols()
        );
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
        }
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

    /// **Algorithm 1 (LinBP in SQL)** — `l` fixed iterations of the update
    /// `B ← E + A·B·Ĥ − D·B·Ĥ²`, run from the literal SQL of Sect. 5.3 /
    /// Appendix D: two view joins plus a grouped union per iteration (the
    /// paper's footnote 15). `echo = false` drops V2 (LinBP\*).
    pub fn linbp(&self, l: usize, echo: bool) -> BeliefMatrix {
        let mut out = self.algorithm1(self.e.clone(), 1, l, echo);
        out.pop().expect("one query in, one belief matrix out")
    }

    /// **Batched Algorithm 1** — answers `q` labeling queries (different
    /// seed relations over the same graph and coupling) in **one pass**:
    /// the seed relation gains a query-id column, `E(q, v, c, b)`, and the
    /// statements of [`SqlDb::linbp`] group by `q` as well, so the
    /// `A ⋈ B ⋈ H` join streams the edge relation once per round for all
    /// queries instead of `q` times. Each query's result is bitwise
    /// identical to [`SqlDb::linbp`] on that query alone; one query runs
    /// the untagged statements.
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
        let mut eq = Table::new("E", &["q", "v", "c", "b"]);
        for (j, e) in queries.iter().enumerate() {
            for r in explicit_to_table(e).rows() {
                eq.push(vec![Value::Int(j as i64), r[0], r[1], r[2]]);
            }
        }
        self.algorithm1(eq, queries.len(), l, echo)
    }

    /// Algorithm 1 with echo cancellation: [`SqlDb::linbp`]`(l, true)`.
    pub fn linbp_sql_text(&self, l: usize) -> BeliefMatrix {
        self.linbp(l, true)
    }

    /// A database holding `A`, `H`, the seed relation `e` as `E`, and the
    /// derived tables `D(s, sum(w·w))` and `H2` = Ĥ² (Fig. 9a).
    fn database(&self, e: Table) -> Database {
        let mut db = Database::new();
        db.insert_table("A", self.a.clone());
        db.insert_table("E", e);
        db.insert_table("H", self.h.clone());
        run(
            &mut db,
            "create table D as select s, sum(w * w) as d from A group by s",
        );
        run(
            &mut db,
            "create table H2 as select H1.c1, H2.c2, sum(H1.h * H2.h) as h \
             from H H1, H H2 where H1.c2 = H2.c1 group by H1.c1, H2.c2",
        );
        db
    }

    /// The one implementation of Algorithm 1: `l` rounds of the SQL script
    /// over the seed relation `e` = `E(q, v, c, b)` of `queries` queries,
    /// one belief matrix per query. With more than one query, every
    /// statement carries `q` through (`B.q`, and `q` in each `GROUP BY`);
    /// with one, the statements are the paper's and never read `q` (so
    /// `E(v, c, b)` will do). Each group folds its rows in the same
    /// relative order either way, so a query's bits do not depend on its
    /// batch.
    fn algorithm1(&self, e: Table, queries: usize, l: usize, echo: bool) -> Vec<BeliefMatrix> {
        let q = if queries > 1 { "q, " } else { "" };
        let bq = if queries > 1 { "B.q, " } else { "" };
        // Line 3, V1(t, c2, sum(w·b·h)) :− A(s,t,w), B(s,c1,b), H(c1,c2,h).
        let mut round = vec![format!(
            "create table V1 as \
             select {bq}A.t as v, H.c2 as c, sum(A.w * B.b * H.h) as b \
             from A, B, H \
             where A.s = B.v and B.c = H.c1 \
             group by {bq}A.t, H.c2"
        )];
        // Line 3, V2(s, c2, sum(d·b·h)) :− D(s,d), B(s,c1,b), H2(c1,c2,h).
        if echo {
            round.push(format!(
                "create table V2 as \
                 select {bq}D.s as v, H2.c2 as c, sum(D.d * B.b * H2.h) as b \
                 from D, B, H2 \
                 where D.s = B.v and B.c = H2.c1 \
                 group by {bq}D.s, H2.c2"
            ));
        }
        // Line 4: B(v, c, b1 + b2 − b3) via UNION ALL + GROUP BY
        // (footnote 15), assembled from E, V1 and negated V2.
        round.push(format!("create table U as select {q}v, c, b from E"));
        round.push(format!("insert into U select {q}v, c, b from V1"));
        if echo {
            round.push(format!("insert into U select {q}v, c, 0 - b from V2"));
            round.push("drop table V2".into());
        }
        round.push("drop table B; drop table V1".into());
        round.push(format!(
            "create table B as select {q}v, c, sum(b) as b from U group by {q}v, c"
        ));
        round.push("drop table U".into());

        let mut db = self.database(e);
        // Line 1: B := E.
        run(
            &mut db,
            &format!("create table B as select {q}v, c, b from E"),
        );
        for _ in 0..l {
            for statement in &round {
                run(&mut db, statement);
            }
        }
        beliefs_per_query(db.table("B").expect("B exists"), queries, self.n, self.k)
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
    ///
    /// # Panics
    /// Panics if `additions` disagrees with the loaded problem on the node
    /// or class count.
    pub fn sbp_add_explicit(&mut self, state: &mut SqlSbpState, additions: &ExplicitBeliefs) {
        assert_eq!(additions.n(), self.n, "additions node count mismatch");
        assert_eq!(additions.k(), self.k, "additions class count mismatch");
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
    ///
    /// # Panics
    /// Panics if an endpoint is not a node of the loaded graph (`≥ n`).
    pub fn sbp_add_edges(&mut self, state: &mut SqlSbpState, new_edges: &[(usize, usize, f64)]) {
        for &(s, t, _) in new_edges {
            assert!(
                s < self.n && t < self.n,
                "edge ({s}, {t}) endpoint out of range for n = {}",
                self.n
            );
        }
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

/// Runs embedded SQL; a failure is a parser/executor bug, so it panics.
fn run(db: &mut Database, sql: &str) {
    db.execute_script(sql)
        .unwrap_or_else(|e| panic!("embedded SQL failed: {e}\n{sql}"));
}

/// Converts a `B(v,c,b)` relation back to a dense residual belief matrix
/// (missing pairs are 0).
pub fn belief_table_to_matrix(b: &Table, n: usize, k: usize) -> BeliefMatrix {
    let mut out = beliefs_per_query(b, 1, n, k);
    out.pop().expect("one query")
}

/// Splits a belief relation into one dense matrix per query: by its `q`
/// column if it has one (`B(q,v,c,b)`), else all rows belong to query 0.
fn beliefs_per_query(b: &Table, queries: usize, n: usize, k: usize) -> Vec<BeliefMatrix> {
    let mut out = vec![Mat::zeros(n, k); queries];
    let (qi, vi, ci, bi) = (b.try_col("q"), b.col("v"), b.col("c"), b.col("b"));
    for r in b.rows() {
        let j = qi.map_or(0, |qi| r[qi].as_int() as usize);
        let v = r[vi].as_int() as usize;
        let c = r[ci].as_int() as usize;
        out[j][(v, c)] += r[bi].as_float();
    }
    out.into_iter().map(BeliefMatrix::from_mat).collect()
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
    use lsbp::batch::{linbp_batch_on, linbp_star_batch_on};
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

    /// Exactly `l` rounds, as Algorithm 1 runs.
    fn rounds(l: usize) -> LinBpOptions {
        LinBpOptions {
            max_iter: l,
            tol: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn derived_tables() {
        let (db, ..) = torus_db();
        let sql = db.database(db.e().clone());
        let d = sql.table("D").unwrap();
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
        let h2 = sql.table("H2").unwrap();
        assert_eq!(h2.len(), 9);
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
            let native = linbp(&adj, &e, &h, &rounds(iters)).unwrap();
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
        let native = linbp_star(&adj, &e, &h, &rounds(4)).unwrap();
        assert!(sql_b.residual().max_abs_diff(native.beliefs.residual()) < 1e-12);
    }

    /// The batched relational path answers every query as the native
    /// batched solver does.
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
            let native = if echo {
                linbp_batch_on(&adj, &queries, &h, &rounds(4)).unwrap()
            } else {
                linbp_star_batch_on(&adj, &queries, &h, &rounds(4)).unwrap()
            };
            for (j, (sql_b, nat)) in batched.iter().zip(&native).enumerate() {
                assert!(
                    sql_b.residual().max_abs_diff(nat.beliefs.residual()) < 1e-12,
                    "echo={echo} query {j}"
                );
            }
        }
    }

    /// Labels `count` distinct random nodes of an `n`-node graph with
    /// random classes out of 3.
    fn random_labels(n: usize, count: usize, seed: u64) -> ExplicitBeliefs {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut e = ExplicitBeliefs::new(n, 3);
        while e.num_explicit() < count {
            e.set_label(rng.gen_range(0..n), rng.gen_range(0..3), 1.0)
                .unwrap();
        }
        e
    }

    fn bits(m: &BeliefMatrix) -> Vec<u64> {
        m.residual()
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    }

    /// The query-tagged script folds every group in the same order as the
    /// untagged one: query `j` of a batch is bit for bit
    /// `SqlDb::new(g, &qs[j], h).linbp(l, echo)`.
    #[test]
    fn sql_linbp_batch_bitwise_equals_single_queries() {
        let h = CouplingMatrix::fig6b_residual().scale(0.002);
        let graphs = [
            lsbp_graph::generators::kronecker_graph(5),
            erdos_renyi_gnm(120, 400, 5),
            erdos_renyi_gnm(200, 300, 9),
        ];
        for g in &graphs {
            let n = g.num_nodes();
            for seed in 0..4u64 {
                let qs: Vec<ExplicitBeliefs> = (0..4)
                    .map(|j| random_labels(n, 2 + (n / 20) * j, seed * 4 + j as u64))
                    .collect();
                let db = SqlDb::new(g, &qs[0], &h);
                for echo in [true, false] {
                    let batch = db.linbp_batch(&qs, 3, echo);
                    for (j, got) in batch.iter().enumerate() {
                        let want = SqlDb::new(g, &qs[j], &h).linbp(3, echo);
                        let msg = format!("n={n} seed={seed} echo={echo} query {j}");
                        assert_eq!(bits(got), bits(&want), "{msg}");
                    }
                }
            }
        }
    }

    #[test]
    fn sql_linbp_batch_empty() {
        let (db, ..) = torus_db();
        assert!(db.linbp_batch(&[], 3, true).is_empty());
    }

    /// The SQL-text entry point produces the native LinBP beliefs.
    #[test]
    fn sql_text_linbp_matches_native() {
        let (db, g, e, h) = torus_db();
        for iters in [1, 3] {
            let via_text = db.linbp_sql_text(iters);
            let native = linbp(&g.adjacency(), &e, &h, &rounds(iters)).unwrap();
            assert!(via_text.residual().max_abs_diff(native.beliefs.residual()) < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "coupling arity mismatch")]
    fn new_rejects_non_square_coupling() {
        let (_, g, e, _) = torus_db();
        let _ = SqlDb::new(&g, &e, &Mat::zeros(3, 4));
    }

    #[test]
    #[should_panic(expected = "additions class count mismatch")]
    fn sbp_add_explicit_rejects_class_count_mismatch() {
        let (mut db, ..) = torus_db();
        let mut state = db.sbp();
        let mut additions = ExplicitBeliefs::new(8, 4);
        additions.set_label(5, 0, 1.0).unwrap();
        db.sbp_add_explicit(&mut state, &additions);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn sbp_add_edges_rejects_out_of_range_endpoint() {
        let (mut db, ..) = torus_db();
        let mut state = db.sbp();
        db.sbp_add_edges(&mut state, &[(3, 8, 1.0)]);
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
