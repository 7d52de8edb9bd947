//! `sql`: the paper's SQL implementation on a Kronecker graph of the
//! Fig. 7b schedule — text-SQL LinBP through the parser, planner and
//! executor; relational SBP and ΔSBP; and three skewed multiway joins
//! through `Database::execute`. No sparse kernel runs on this path.

use crate::common::{self, max_abs_diff, repeated_setup, timed};
use crate::layers::{self, Spec};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{block_median, median};
use crate::trace::{self, span};
use crate::Ctx;
use lsbp::prelude::*;
use lsbp_graph::generators::kronecker_graph;
use lsbp_graph::Graph;
use lsbp_reldb::parser::{parse, Statement};
use lsbp_reldb::{Database, PlanNode, SqlDb, Table, Value};
use std::collections::HashMap;

/// Kronecker exponent: graph #3 of the schedule (2,187 nodes / 16,384
/// directed edges), where text-SQL LinBP takes about a quarter second, so
/// a run holds dozens of rounds.
const EXPONENT: u32 = 7;
const TINY_EXPONENT: u32 = 5;
/// LinBP iterations in SQL (the paper's timing protocol).
const SQL_ITERS: usize = 5;
/// Scale of the skewed join tables relative to the planner's own
/// workloads, so each join runs long enough to time steadily.
const JOIN_SCALE: i64 = 8;

/// One skewed join: its database, query text, and the expected result
/// rows, computed by a naive nested hash join written out in [`joins`].
pub struct Join {
    pub name: &'static str,
    pub db: Database,
    pub sql: &'static str,
    pub expected: Vec<Vec<i64>>,
}

/// The three skewed multiway joins (chain, star, triangle), shaped so a
/// FROM-order evaluation would build a quadratic intermediate.
pub fn joins(tiny: bool) -> Vec<Join> {
    let f = if tiny { 1 } else { JOIN_SCALE };
    let mut out = Vec::new();

    // Chain R — S — Sel: R ⋈ S explodes on a hub key, S ⋈ Sel is tiny.
    let (n, hub) = (2000 * f, 400 * f);
    let r: Vec<Vec<i64>> = (0..n)
        .map(|i| vec![if i < hub { 0 } else { i }, i])
        .collect();
    let s: Vec<Vec<i64>> = (0..n)
        .map(|i| {
            vec![
                if i < hub { 0 } else { i },
                if i < hub { n + i } else { i % 50 },
            ]
        })
        .collect();
    let sel: Vec<Vec<i64>> = (0..25).map(|j| vec![j]).collect();
    let expected = {
        let s_by_k = index(&s, 0);
        let sel_by_j = index(&sel, 0);
        let mut rows = Vec::new();
        for rr in &r {
            for ss in s_by_k.get(&rr[0]).into_iter().flatten() {
                for tt in sel_by_j.get(&ss[1]).into_iter().flatten() {
                    rows.push(vec![rr[1], tt[0]]);
                }
            }
        }
        rows
    };
    out.push(Join {
        name: "chain",
        db: database(&[
            ("R", &["k", "p"], &r),
            ("S", &["k", "j"], &s),
            ("Sel", &["j"], &sel),
        ]),
        sql: "select R.p, Sel.j from R, S, Sel where R.k = S.k and S.j = Sel.j",
        expected: sorted(expected),
    });

    // Star D1, D2, F with the fact table last in FROM order.
    let n = 400 * f;
    let d1: Vec<Vec<i64>> = (0..n).map(|i| vec![i, i * 2]).collect();
    let d2: Vec<Vec<i64>> = (0..n).map(|i| vec![i, i * 3]).collect();
    let fact: Vec<Vec<i64>> = (0..2 * n).map(|i| vec![i % n, (i * 7) % n]).collect();
    let expected = {
        let (d1_by, d2_by) = (index(&d1, 0), index(&d2, 0));
        let mut rows = Vec::new();
        for ff in &fact {
            for a in d1_by.get(&ff[0]).into_iter().flatten() {
                for b in d2_by.get(&ff[1]).into_iter().flatten() {
                    rows.push(vec![a[1], b[1]]);
                }
            }
        }
        rows
    };
    out.push(Join {
        name: "star",
        db: database(&[
            ("D1", &["d", "p"], &d1),
            ("D2", &["e", "q"], &d2),
            ("F", &["f1", "f2"], &fact),
        ]),
        sql: "select D1.p, D2.q from D1, D2, F where F.f1 = D1.d and F.f2 = D2.e",
        expected: sorted(expected),
    });

    // Triangle R(a,b) — S(b,c) — T(c,a) with a hub on b and a small T.
    let (n, hub) = (1200 * f, 300 * f);
    let r: Vec<Vec<i64>> = (0..n)
        .map(|i| vec![i, if i < hub { 0 } else { i }])
        .collect();
    let s: Vec<Vec<i64>> = (0..n)
        .map(|i| vec![if i < hub { 0 } else { i }, i])
        .collect();
    let t: Vec<Vec<i64>> = (0..100 * f).map(|j| vec![j, j]).collect();
    let expected = {
        let s_by_b = index(&s, 0);
        let mut rows = Vec::new();
        let t_set: HashMap<(i64, i64), usize> = t.iter().fold(HashMap::new(), |mut m, x| {
            *m.entry((x[0], x[1])).or_insert(0) += 1;
            m
        });
        for rr in &r {
            for ss in s_by_b.get(&rr[1]).into_iter().flatten() {
                for _ in 0..t_set.get(&(ss[1], rr[0])).copied().unwrap_or(0) {
                    rows.push(vec![rr[0], ss[1]]);
                }
            }
        }
        rows
    };
    out.push(Join {
        name: "triangle",
        db: database(&[
            ("R", &["a", "b"], &r),
            ("S", &["b", "c"], &s),
            ("T", &["c", "a"], &t),
        ]),
        sql: "select R.a, T.c from R, S, T where R.b = S.b and S.c = T.c and T.a = R.a",
        expected: sorted(expected),
    });
    out
}

fn index(rows: &[Vec<i64>], col: usize) -> HashMap<i64, Vec<&Vec<i64>>> {
    let mut m: HashMap<i64, Vec<&Vec<i64>>> = HashMap::new();
    for r in rows {
        m.entry(r[col]).or_default().push(r);
    }
    m
}

fn sorted(mut rows: Vec<Vec<i64>>) -> Vec<Vec<i64>> {
    rows.sort_unstable();
    rows
}

/// A table to load: name, column names, integer rows.
type TableSpec<'a> = (&'a str, &'a [&'a str], &'a [Vec<i64>]);

fn database(tables: &[TableSpec]) -> Database {
    let mut db = Database::new();
    for (name, cols, rows) in tables {
        let mut t = Table::new(*name, cols);
        for r in *rows {
            t.push(r.iter().map(|&x| Value::Int(x)).collect());
        }
        db.insert_table(*name, t);
    }
    db
}

/// A result table's rows as a sorted multiset of integers.
pub fn rows_of(t: &Table) -> Vec<Vec<i64>> {
    sorted(
        t.rows()
            .iter()
            .map(|r| r.iter().map(|v| v.as_int()).collect())
            .collect(),
    )
}

/// Runs one join through `Database::execute`.
fn execute(join: &mut Join) -> Option<Table> {
    span("reldb.execute", 0, || join.db.execute(join.sql))
        .ok()
        .flatten()
}

/// Largest bound ÷ actual over the nodes of the planned plan.
fn bound_over_actual(db: &Database, sql: &str) -> f64 {
    let Ok(Statement::Select(sel)) = parse(sql) else {
        return f64::NAN;
    };
    let Ok((_, plan, actuals)) = db.run_select_planned(&sel, "r") else {
        return f64::NAN;
    };
    fn walk(node: &PlanNode, actuals: &[lsbp_reldb::plan::NodeActual], worst: &mut f64) {
        if let Some(rows) = actuals.get(node.id()).and_then(|a| a.rows) {
            *worst = worst.max(node.bound() / rows.max(1) as f64);
        }
        match node {
            PlanNode::HashJoin { left, right, .. } => {
                walk(left, actuals, worst);
                walk(right, actuals, worst);
            }
            PlanNode::Filter { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Project { input, .. } => walk(input, actuals, worst),
            PlanNode::Scan { .. } => {}
        }
    }
    let mut worst = 0.0;
    walk(&plan.root, &actuals, &mut worst);
    worst
}

/// The `reldb` layer probe every traced run reports: parse time, each
/// join's execution time and the planner's worst bound ÷ actual.
pub fn probe_joins(ctx: &Ctx, r: &mut Report) {
    let mut joins = joins(ctx.tiny);
    let texts: Vec<&str> = joins.iter().map(|j| j.sql).collect();
    let parse_s = common::repeat_for(0.1, 20, || {
        for t in &texts {
            std::hint::black_box(parse(t).ok());
        }
    });
    r.layer("reldb.parse_us", median(&parse_s) * 1e6, "us");
    let mut worst: f64 = 0.0;
    for j in &mut joins {
        let secs = common::repeat_for(0.15, 3, || {
            std::hint::black_box(execute(j));
        });
        r.layer(&format!("reldb.{}_ms", j.name), median(&secs) * 1e3, "ms");
        worst = worst.max(bound_over_actual(&j.db, j.sql));
    }
    r.layer("reldb.bound_over_actual_max", worst, "ratio");
}

struct Setup {
    graph: Graph,
    adj: lsbp_sparse::CsrMatrix,
    joins: Vec<Join>,
}

/// Fresh seeded 5% labels in the style of the paper's Kronecker runs.
fn labels(seed: u64, round: u64, n: usize, k: usize) -> ExplicitBeliefs {
    let mut rng = Rng::stream(seed, round);
    common::draw_labels(
        &mut rng,
        n,
        k,
        (n / 20).max(k),
        |v| (v * 7 + round as usize) % k,
        |_| false,
    )
}

pub fn run(ctx: &Ctx, r: &mut Report) {
    let k = 3;
    let (h, h_o) = common::kronecker_h();
    let cfg = ParallelismConfig::from_env();
    let m = if ctx.tiny { TINY_EXPONENT } else { EXPONENT };
    let mut graph_secs = Vec::new();
    let setup = repeated_setup(r, || {
        let (graph, t) = timed(|| span("graph.build", 0, || kronecker_graph(m)));
        graph_secs.push(t);
        let adj = graph.adjacency();
        // Loading the relational representation is part of set-up.
        let e = labels(ctx.seed, 0, graph.num_nodes(), k);
        std::hint::black_box(span("reldb.load", 0, || SqlDb::new(&graph, &e, &h)));
        Setup {
            graph,
            adj,
            joins: joins(ctx.tiny),
        }
    });
    let n = setup.graph.num_nodes();
    r.fact("graph", format!("kronecker_m{m}"));
    r.fact("nodes", n);
    r.fact("directed_edges", setup.graph.num_directed_edges());
    r.fact("sql_iterations", SQL_ITERS);
    r.layer("graph.build_s", median(&graph_secs), "s");
    let mut joins = setup.joins;
    let native_opts = LinBpOptions {
        max_iter: SQL_ITERS,
        tol: 0.0,
        norm: ToleranceNorm::MaxAbs,
        damping: 0.0,
        divergence_guard: 1e12,
        parallelism: cfg,
    };

    // Every phase draws the same inputs, round by round, so the traced and
    // the untraced half of a traced run are comparable.
    let mut phase = |seconds: f64, r: &mut Report| -> (f64, f64) {
        let mut round_no = 0u64;
        let mut lin_s = Vec::new();
        let mut sbp_s = Vec::new();
        let mut upd_s = Vec::new();
        let mut join_s = Vec::new();
        let mut round_s = Vec::new();
        let mut engine_s = Vec::new();
        let mut measured = 0.0;
        while measured < seconds || lin_s.is_empty() {
            round_no += 1;
            let req = round_no;
            let e = labels(ctx.seed, round_no, n, k);
            let mut rng = Rng::stream(ctx.seed, round_no ^ 0xADD);
            let additions = common::draw_labels(
                &mut rng,
                n,
                k,
                (n / 1000).max(1),
                |v| v % k,
                |v| e.is_explicit(v),
            );
            // Inputs loaded before the clock.
            let db_lin = SqlDb::new(&setup.graph, &e, &h);
            let mut db_sbp = SqlDb::new(&setup.graph, &e, &h_o);

            let (b_sql, t_lin) = timed(|| {
                span("reldb.linbp_sql_text", req, || {
                    db_lin.linbp_sql_text(SQL_ITERS)
                })
            });
            let (mut state, t_sbp) = timed(|| span("reldb.sbp", req, || db_sbp.sbp()));
            let ((), t_upd) = timed(|| {
                span("reldb.sbp_add_explicit", req, || {
                    db_sbp.sbp_add_explicit(&mut state, &additions)
                })
            });
            let mut t_join = 0.0;
            let mut results = Vec::new();
            for j in &mut joins {
                let (res, t) = timed(|| execute(j));
                t_join += t;
                results.push(res);
            }
            r.attempted += 3 + joins.len() as u64;
            measured += t_lin + t_sbp + t_upd + t_join;
            lin_s.push(t_lin);
            sbp_s.push(t_sbp);
            upd_s.push(t_upd);
            join_s.push(t_join);
            round_s.push(t_sbp + t_upd + t_join);
            if trace::enabled() {
                // Planner-bypassing engine LinBP: text minus engine is the
                // planner and executor's cost.
                let (_, t) =
                    timed(|| span("reldb.linbp_engine", req, || db_lin.linbp(SQL_ITERS, true)));
                engine_s.push(t);
                continue;
            }
            // Correctness, outside the clock.
            let native = linbp_on(&setup.adj, &e, &h, &native_opts).expect("native linbp");
            let gap = max_abs_diff(b_sql.residual(), native.beliefs.residual());
            r.check(
                "sql_linbp_matches_native",
                gap <= 1e-9,
                format!("round {round_no}: max |Δ| = {gap:e}"),
            );
            let sbp_native = sbp_on(&setup.adj, &e, &h_o, &cfg).expect("native sbp");
            let upd_native =
                sbp_add_explicit(&setup.adj, &h_o, &sbp_native, &additions).expect("native Δsbp");
            let b_upd = lsbp_reldb::sql::belief_table_to_matrix(&state.b, n, k);
            let gap = max_abs_diff(b_upd.residual(), upd_native.beliefs.residual());
            r.check(
                "sql_sbp_update_matches_native",
                gap <= 1e-9,
                format!("round {round_no}: max |Δ| = {gap:e}"),
            );
            for (j, res) in joins.iter().zip(&results) {
                let ok = res.as_ref().is_some_and(|t| rows_of(t) == j.expected);
                if res.is_none() {
                    r.failed += 1;
                }
                r.check(
                    &format!("join_{}_equals_naive", j.name),
                    ok,
                    format!("{} expected rows", j.expected.len()),
                );
            }
        }
        r.fact("rounds", lin_s.len());
        r.named("sql_linbp_s", block_median(&lin_s), "s");
        r.named("sql_sbp_s", block_median(&sbp_s), "s");
        r.named("sbp_update_s", block_median(&upd_s), "s");
        r.named("sql_join_s", block_median(&join_s), "s");
        if !engine_s.is_empty() {
            r.layer("reldb.linbp_engine_s", median(&engine_s), "s");
            r.layer(
                "reldb.linbp_iter_ms",
                median(&lin_s) * 1e3 / SQL_ITERS as f64,
                "ms",
            );
            r.layer("reldb.sbp_add_explicit_ms", median(&upd_s) * 1e3, "ms");
        }
        (block_median(&lin_s) * 1e3, block_median(&round_s) * 1e3)
    };

    let spec_labels = labels(ctx.seed, u64::MAX, n, k);
    let spec = Spec {
        adj: &setup.adj,
        k,
        h: &h,
        h_o: &h_o,
        labels: &spec_labels,
        fixed_sweeps: 200,
    };
    layers::measure(ctx, r, &mut phase, &spec);
    r.named("peak_rss_mb", common::peak_rss_mb(), "MiB");
}
