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
//! Every algorithm is SQL text in the paper's notation (Sect. 5.3, Sect.
//! 6.3, Appendix C/D), run through the parser, the cost-bounded planner
//! and the pipelined executor ([`crate::exec`]). Only the loops stay in
//! Rust: Algorithm 1 runs `l` rounds, and Algorithms 2–4 add geodesic
//! layers until a round adds no node. The `!T` upserts are Fig. 9d's
//! `DELETE … WHERE v IN (SELECT …)` followed by `INSERT`. Each layer's
//! beliefs come from one statement, `Bn(v, c, b, s)` with `b =
//! sum(w·b·h)` and `s = sum(|w·b·h|)`; two inserts then keep `b` where
//! `|b| > ε·s` and write 0 where `|b| ≤ ε·s` (the cancellation snap, `ε` =
//! [`lsbp::sbp::CANCELLATION_EPS`]). A `NaN` sum, which only overflowing
//! inputs can produce, passes neither test and leaves no row.
//!
//! The join structure fixes the fold order of every sum, which the pins
//! of `tests/query_planner.rs` hold. So Algorithm 4 joins on the parents'
//! level `G.g = Gn.p`: the residual `G.g = Gn.g − 1` would filter only
//! after the last join, and could flip the build sides, and with them the
//! fold order, of the joins before it.
//!
//! One deviation is documented inline: Algorithm 4's guard `¬(G(t,gt),
//! gt < gs)` admits edges between equal-geodesic nodes, which the paper's
//! own case analysis (Appendix C, case 1) says must be ignored; we use
//! `gt ≤ gs`, the reading consistent with that analysis.

use crate::engine::{Table, Value};
use crate::exec::Database;
use lsbp::beliefs::{BeliefMatrix, ExplicitBeliefs};
use lsbp_graph::Graph;
use lsbp_linalg::Mat;

/// A relational database holding one classification problem: the
/// relations `A`, `E` and `H`.
#[derive(Clone, Debug)]
pub struct SqlDb {
    n: usize,
    k: usize,
    db: Database,
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
        let mut db = Database::new();
        db.insert_table("A", directed_edges("A", graph.edges()));
        merge_parallel_edges(&mut db);
        db.insert_table("E", explicit_to_table(explicit));
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
        db.insert_table("H", h);
        Self {
            n: graph.num_nodes(),
            k,
            db,
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
        self.db.table("A").expect("A stays loaded")
    }

    /// The explicit-belief relation `E(v,c,b)`.
    pub fn e(&self) -> &Table {
        self.db.table("E").expect("E stays loaded")
    }

    /// The coupling relation `H(c1,c2,h)`.
    pub fn h(&self) -> &Table {
        self.db.table("H").expect("H stays loaded")
    }

    /// **Algorithm 1 (LinBP in SQL)** — `l` fixed iterations of the update
    /// `B ← E + A·B·Ĥ − D·B·Ĥ²`, run from the literal SQL of Sect. 5.3 /
    /// Appendix D: two view joins plus a grouped union per iteration (the
    /// paper's footnote 15). `echo = false` drops V2 (LinBP\*).
    pub fn linbp(&self, l: usize, echo: bool) -> BeliefMatrix {
        let mut out = self.algorithm1(self.e().clone(), 1, l, echo);
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
        let mut db = self.db.clone();
        db.insert_table("E", e);
        run(
            &mut db,
            "create table D as select s, sum(w * w) as d from A group by s; \
             create table H2 as select H1.c1, H2.c2, sum(H1.h * H2.h) as h \
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
    /// single-pass propagation: each round adds the next geodesic layer
    /// to `G` (Fig. 9c) and computes its beliefs from the layer below.
    pub fn sbp(&self) -> SqlSbpState {
        let mut db = self.db.clone();
        run(&mut db, SBP_SEEDS);
        for i in 1.. {
            let before = rows(&db, "G");
            run(&mut db, &sbp_layer_nodes(i));
            if rows(&db, "G") == before {
                break;
            }
            // Line 5: B(t, c2, sum(w·b·h)) :− G(t, i), A(s, t, w), B(s, c1, b),
            //                                 G(s, i−1), H(c1, c2, h).
            let layer = format!("T.g = {i} and P.g = {}", i - 1);
            run(&mut db, &layer_update("G", &layer, "", false));
        }
        SqlSbpState {
            b: take(&mut db, "B"),
            g: take(&mut db, "G"),
        }
    }

    /// **Algorithm 3 (ΔSBP: new explicit beliefs)** — batch insertion of
    /// explicit beliefs with incremental maintenance of `B` and `G`. `Gn`
    /// collects the updated nodes with their new geodesic numbers, one
    /// layer per round.
    ///
    /// # Panics
    /// Panics if `additions` disagrees with the loaded problem on the node
    /// or class count.
    pub fn sbp_add_explicit(&mut self, state: &mut SqlSbpState, additions: &ExplicitBeliefs) {
        assert_eq!(additions.n(), self.n, "additions node count mismatch");
        assert_eq!(additions.k(), self.k, "additions class count mismatch");
        self.update(state, |db| {
            db.insert_table("En", explicit_to_table(additions));
            // Line 1: Gn(v, 0) :− En(v, _, _);  !G(v, 0).
            // Line 2: Bn := En;  !B.  The additions are merged into E as
            // well, so later recomputations see them.
            run(
                db,
                "create table Gn as select v, 0 as g from En group by v; \
                 delete from G where v in (select Gn.v from Gn); \
                 insert into G select v, g from Gn; \
                 delete from B where v in (select En.v from En); \
                 insert into B select v, c, b from En; \
                 delete from E where v in (select En.v from En); \
                 insert into E select v, c, b from En; drop table En",
            );
            for i in 1.. {
                // Line 5: Gn(t, i) :− Gn(s, i−1), A(s, t, _),
                // ¬(G(t, gt), gt < i);  !G(t, i).
                let before = rows(db, "Gn");
                let sql = format!(
                    "insert into Gn select A.t as v, {i} as g from Gn, A \
                     where Gn.v = A.s and Gn.g = {p} \
                     and A.t not in (select G.v from G where G.g < {i}) group by A.t",
                    p = i - 1
                );
                run(db, &sql);
                if rows(db, "Gn") == before {
                    break;
                }
                // Line 6: Bn(t, c2, sum(w·b·h)) :− Gn(t, i), A(s, t, w),
                // B(s, c1, b), G(s, i−1), H(c1, c2, h);  !B. Every parent
                // of t sits at level i−1, updated or not.
                let layer = format!("T.g = {i} and P.g = {}", i - 1);
                let sql = format!(
                    "delete from G where v in (select Gn.v from Gn where Gn.g = {i}); \
                     insert into G select v, g from Gn where g = {i}; {}",
                    layer_update("Gn", &layer, "", true)
                );
                run(db, &sql);
            }
            run(db, "drop table Gn");
        });
    }

    /// **Algorithm 4 (ΔSBP: new edges)** — batch insertion of edges.
    ///
    /// `new_edges` are undirected `(s, t, w)` triples. Follows Appendix C's
    /// Algorithm 4 (with the `gt ≤ gs` guard, see module docs); nodes may
    /// be updated more than once as shorter geodesic paths cascade. Each
    /// round's `Gn(v, g, p)` holds the nodes whose geodesic number drops,
    /// or whose belief gains a path, through the edges of the round
    /// before: `g` is the new geodesic number, `p = g − 1` the parents'.
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
        self.update(state, |db| {
            db.insert_table("An", directed_edges("An", new_edges.iter().copied()));
            // Line 1: !A(s, t, w) :− An(s, t, w), both directions; an edge
            // parallel to an existing one adds to its weight (see `new`).
            run(db, "insert into A select s, t, w from An");
            merge_parallel_edges(db);
            // Line 2: Gn(t, min(gs+1)) :− G(s, gs), An(s, t, _),
            // ¬(G(t, gt), gt ≤ gs).
            run(db, &relax("G", "An", "An"));
            while rows(db, "Gn") > 0 {
                // !G, then the beliefs of this round's nodes from all
                // parents one level below (lines 2–3 in the first round,
                // 5–6 after);  !B. A node with no parent yet (reconnected
                // through a node updated later) is reset to 0.
                let parentless = "insert into Bn select Gn.v, H.c1 as c, 0 as b, 0 as s \
                                  from Gn, H where Gn.v not in (select Bn.v from Bn) \
                                  group by Gn.v, H.c1";
                let sql = format!(
                    "delete from G where v in (select Gn.v from Gn); \
                     insert into G select v, g from Gn; {}",
                    layer_update("Gn", "P.g = T.p", parentless, true)
                );
                run(db, &sql);
                // Line 5: the next round relaxes the edges leaving this
                // round's nodes, over the full (updated) adjacency.
                run(db, &relax("Gn", "A", "Gn"));
            }
            run(db, "drop table Gn");
        });
    }

    /// Runs `script` on the problem's database with `G` and `B` moved in
    /// from `state`, and moves them back out; no relation is copied.
    fn update(&mut self, state: &mut SqlSbpState, script: impl FnOnce(&mut Database)) {
        self.db.insert_table("G", std::mem::take(&mut state.g));
        self.db.insert_table("B", std::mem::take(&mut state.b));
        script(&mut self.db);
        state.g = take(&mut self.db, "G");
        state.b = take(&mut self.db, "B");
    }
}

/// Algorithm 2, line 1: `G(v, 0) :− E(v, _, _)`;  `B(v, c, b) :− E(v, c, b)`.
const SBP_SEEDS: &str = "create table G as select v, 0 as g from E group by v; \
                         create table B as select v, c, b from E";

/// Algorithm 2, line 4: `G(t, i) :− G(s, i−1), A(s, t, _), ¬G(t, _)` —
/// Fig. 9c, grouped so that a node reached over several edges is one row.
fn sbp_layer_nodes(i: usize) -> String {
    format!(
        "insert into G select A.t as v, {i} as g from G, A \
         where G.v = A.s and G.g = {p} and A.t not in (select G.v from G) \
         group by A.t",
        p = i - 1
    )
}

/// The SELECT of one layer's beliefs: `Bn(t, c2, b, s)` with
/// `b = sum(w·b·h)` and `s = sum(|w·b·h|)` over the edges `A(s, t, w)`
/// from each target `t` in `targets T` to its parents `G P`, filtered by
/// `layer` (which places `T` and `P` one level apart).
fn layer_beliefs(targets: &str, layer: &str) -> String {
    format!(
        "select A.t as v, H.c2 as c, sum(A.w * B.b * H.h) as b, sum(abs(A.w * B.b * H.h)) as s \
         from {targets} T, A, G P, B, H \
         where T.v = A.t and A.s = P.v and A.s = B.v and B.c = H.c1 and {layer} \
         group by A.t, H.c2"
    )
}

/// Line 5 of Algorithm 2, line 6 of Algorithm 3 and lines 3 and 6 of
/// Algorithm 4: `Bn` := [`layer_beliefs`], then `fill`; with `replace`,
/// `!B` deletes the rows of `Bn`'s nodes from `B`. `Bn` then joins `B`,
/// every sum within the shared rounding bound of 0 snapped to an exact 0:
/// exact SBP cancellations (a node fed by seeds of all `k` classes) must
/// read out as ties here just as they do in the in-memory engine (see
/// [`lsbp::sbp::CANCELLATION_EPS`]). The snapped rows land after the kept
/// ones; a zero term leaves a float sum unchanged, so their place in `B`
/// changes no later sum.
fn layer_update(targets: &str, layer: &str, fill: &str, replace: bool) -> String {
    let eps = format!("{:e}", lsbp::sbp::CANCELLATION_EPS);
    let delete = match replace {
        true => "delete from B where v in (select Bn.v from Bn)",
        false => "",
    };
    format!(
        "create table Bn as {}; {fill}; {delete}; \
         insert into B select v, c, b from Bn where abs(b) > {eps} * s; \
         insert into B select v, c, 0 from Bn where abs(b) <= {eps} * s; drop table Bn",
        layer_beliefs(targets, layer)
    )
}

/// Algorithm 4's relaxation across the edges `X(s, t, _)` that leave the
/// nodes `S(v, gs)`: the candidates `Gm(t, gs + 1, gs)` for every target
/// whose geodesic number `gt` exceeds `gs` (`¬(G(t, gt), gt ≤ gs)`), then
/// for every target not in `G` yet. After `drop` is dropped, the next
/// `Gn(v, g, p)` keeps each node's least candidate — its new geodesic
/// number and its parents' level — in node order.
fn relax(src: &str, edges: &str, drop: &str) -> String {
    format!(
        "create table Gm as select T.v, S.g + 1 as g, S.g as p from {src} S, {edges} X, G T \
         where S.v = X.s and X.t = T.v and T.g > S.g; \
         insert into Gm select X.t as v, S.g + 1 as g, S.g as p from {src} S, {edges} X \
         where S.v = X.s and X.t not in (select G.v from G); drop table {drop}; \
         create table Gn as select v, min(g) as g, min(p) as p from Gm group by v; drop table Gm"
    )
}

/// Re-merges parallel edges of `A(s, t, w)` into one row with summed
/// weight, ordered by `(s, t)` — the semantics of the CSR adjacency
/// matrix (Sect. 5.2: parallel paths add up, and the echo-cancellation
/// degree is the square of the *merged* weight).
fn merge_parallel_edges(db: &mut Database) {
    run(
        db,
        "create table Am as select s, t, sum(w) as w from A group by s, t; drop table A",
    );
    let merged = take(db, "Am");
    db.insert_table("A", merged);
}

/// The relation `name(s, t, w)` holding each undirected edge in both
/// directions.
fn directed_edges(name: &str, edges: impl Iterator<Item = (usize, usize, f64)>) -> Table {
    let mut t = Table::new(name, &["s", "t", "w"]);
    for (s, d, w) in edges {
        for (a, b) in [(s, d), (d, s)] {
            t.push(vec![
                Value::Int(a as i64),
                Value::Int(b as i64),
                Value::Float(w),
            ]);
        }
    }
    t
}

/// Moves table `name` out of `db`; an embedded script that does not leave
/// it behind is a bug, so its absence panics.
fn take(db: &mut Database, name: &str) -> Table {
    db.take_table(name)
        .unwrap_or_else(|| panic!("embedded SQL left no table {name}"))
}

/// The row count of table `name` in `db` (0 if there is none).
fn rows(db: &Database, name: &str) -> usize {
    db.table(name).map_or(0, Table::len)
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
    use lsbp::linbp::{linbp_on, linbp_star_on, LinBpOptions};
    use lsbp::sbp::{sbp_add_edges, sbp_add_explicit, sbp_on};
    use lsbp_graph::generators::{erdos_renyi_gnm, fig5c_torus, path};
    use lsbp_linalg::ParallelismConfig;

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
            let native = linbp_on(&adj, &e, &h, &rounds(iters)).unwrap();
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
        let native = linbp_star_on(&adj, &e, &h, &rounds(4)).unwrap();
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
            let native = linbp_on(&g.adjacency(), &e, &h, &rounds(iters)).unwrap();
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

    /// The plan of Algorithm 2's layer-1 belief statement on the Fig. 5c
    /// torus (`B` is still `E`): 9 edges reach the 3 layer-1 nodes, 3 of
    /// them from a seed; each meets 3 `B` rows and each of those 3 `H`
    /// rows, so 27 terms fold into 9 `(t, c2)` groups.
    #[test]
    fn explain_sbp_layer_statement() {
        let (sdb, ..) = torus_db();
        let mut db = Database::new();
        db.insert_table("A", sdb.a().clone());
        db.insert_table("E", sdb.e().clone());
        db.insert_table("H", sdb.h().clone());
        run(&mut db, SBP_SEEDS);
        run(&mut db, &sbp_layer_nodes(1));
        let text = db
            .explain(&layer_beliefs("G", "T.g = 1 and P.g = 0"))
            .unwrap();
        assert_eq!(
            text,
            "Aggregate group by [A.t, H.c2] bound<=24 actual=9
  HashJoin on B.c = H.c1 bound<=81 actual=27 (build=H)
    HashJoin on A.s = B.v bound<=27 actual=9 (build=prefix)
      HashJoin on A.s = P.v bound<=9 actual=3 (build=P)
        HashJoin on T.v = A.t bound<=9 actual=9 (build=prefix)
          Scan T [T.g = 1] rows=6 bound<=3 actual=3
          Scan A rows=16 bound<=16 actual=16
        Scan P [P.g = 0] rows=6 bound<=3 actual=3
      Scan B rows=9 bound<=9 actual=9
    Scan H rows=9 bound<=9 actual=9
"
        );
    }

    /// Algorithm 2 reproduces the native SBP (beliefs and geodesics).
    #[test]
    fn sql_sbp_matches_native() {
        let (_, g, e, _) = torus_db();
        let ho = CouplingMatrix::fig1c().unwrap().residual();
        let db_unscaled = SqlDb::new(&g, &e, &ho);
        let state = db_unscaled.sbp();
        let native = sbp_on(&g.adjacency(), &e, &ho, &ParallelismConfig::default()).unwrap();
        let sql_beliefs = belief_table_to_matrix(&state.b, 8, 3);
        assert!(
            sql_beliefs
                .residual()
                .max_abs_diff(native.beliefs.residual())
                < 1e-12
        );
        assert_eq!(geodesic_table_to_vec(&state.g, 8), native.geodesics.g);
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
        let native_prev = sbp_on(&adj, &base, &ho, &ParallelismConfig::default()).unwrap();

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
            &sbp_on(&base.adjacency(), &e, &ho, &ParallelismConfig::default()).unwrap(),
        )
        .unwrap();
        let sql_b = belief_table_to_matrix(&state.b, 5, 3);
        assert!(sql_b.residual().max_abs_diff(native.beliefs.residual()) < 1e-12);
        assert_eq!(geodesic_table_to_vec(&state.g, 5), native.geodesics.g);
    }
}
