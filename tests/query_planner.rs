//! Query-planner end-to-end suite.
//!
//! Three layers of protection around the cost-bounded planner and the
//! pipelined executor:
//!
//! 1. **Property tests** — on random chain/star/triangle join graphs with
//!    skewed keys and empty/singleton relations, the planned result
//!    equals a naive nested-loop reference as a row multiset, and a
//!    `GROUP BY` + `SUM`/`MIN`/`MAX` query over the same joins equals a
//!    plain-loop oracle bit for bit, in ascending group order.
//! 2. **Plan-quality tests** — on hub-skewed chain, star and triangle
//!    workloads where the FROM order is asymptotically worse, the
//!    planner must defer the hub join and materialize at most half the
//!    rows of the FROM order's first join, and still return the rows of
//!    a naive index join written out in the test; `EXPLAIN` must
//!    round-trip through the parser and print the chosen order with a
//!    pessimistic bound and actual cardinality per node.
//! 3. **Regression pins** — `SqlDb::linbp` / `linbp_batch` / `sbp` /
//!    `linbp_sql_text` and the Fig. 9b read-out hashes are pinned: neither
//!    the planner nor the executor may perturb the SQL algorithms bit for
//!    bit.

use lsbp::prelude::*;
use lsbp_graph::generators::{erdos_renyi_gnm, fig5c_torus, kronecker_graph};
use lsbp_reldb::parser::{parse, Select, Statement};
use lsbp_reldb::plan::NodeActual;
use lsbp_reldb::sql::{belief_table_to_matrix, geodesic_table_to_vec};
use lsbp_reldb::{Database, PlanNode, SqlDb, Table, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

// ---------------------------------------------------------------------------
// Random-workload property tests.
// ---------------------------------------------------------------------------

/// One generated table: name, columns, integer rows. A column named `w`
/// holds integer-valued floats.
type GenTable = (&'static str, Vec<&'static str>, Vec<Vec<i64>>);

/// A (table, column) position in a workload.
type ColPos = (usize, usize);

/// A generated multi-way join workload: tables plus equi-join edges, and
/// the grouped aggregate query run over the same joins.
#[derive(Clone, Debug)]
struct Workload {
    tables: Vec<GenTable>,
    joins: Vec<(ColPos, ColPos)>,
    /// `GROUP BY` columns (none: a single aggregate over all rows).
    group_by: Vec<ColPos>,
    /// The `SUM`, `MIN` and `MAX` arguments.
    sum: ColPos,
    min: ColPos,
    max: ColPos,
}

fn build_db(w: &Workload) -> Database {
    let mut db = Database::new();
    for (name, cols, rows) in &w.tables {
        let mut t = Table::new(*name, cols);
        for r in rows {
            let row = r.iter().zip(cols).map(|(&v, &c)| {
                if c == "w" {
                    Value::Float(v as f64)
                } else {
                    Value::Int(v)
                }
            });
            t.push(row.collect());
        }
        db.insert_table(*name, t);
    }
    db
}

fn col_name(w: &Workload, (t, c): ColPos) -> String {
    format!("{}.{}", w.tables[t].0, w.tables[t].1[c])
}

fn where_clause(w: &Workload) -> String {
    let mut sql = String::new();
    for (i, &(a, b)) in w.joins.iter().enumerate() {
        sql.push_str(if i == 0 { " where " } else { " and " });
        sql.push_str(&format!("{} = {}", col_name(w, a), col_name(w, b)));
    }
    sql
}

fn from_clause(w: &Workload) -> String {
    let from: Vec<&str> = w.tables.iter().map(|(n, _, _)| *n).collect();
    from.join(", ")
}

/// The grouped aggregate query of a workload.
fn agg_sql_text(w: &Workload) -> String {
    let groups: Vec<String> = w.group_by.iter().map(|&g| col_name(w, g)).collect();
    let mut items = groups.clone();
    items.push(format!("sum({}) as s", col_name(w, w.sum)));
    items.push(format!("min({}) as lo", col_name(w, w.min)));
    items.push(format!("max({}) as hi", col_name(w, w.max)));
    let mut sql = format!(
        "select {} from {}{}",
        items.join(", "),
        from_clause(w),
        where_clause(w)
    );
    if !groups.is_empty() {
        sql.push_str(&format!(" group by {}", groups.join(", ")));
    }
    sql
}

/// Plain-loop oracle for [`agg_sql_text`]: groups in ascending key order,
/// each row as the f64 bits of its group values, integer sum, min and max
/// (exact, since every value is a small integer). No rows, no groups.
fn agg_reference(w: &Workload) -> Vec<Vec<u64>> {
    let offsets = offsets(w);
    let at = |row: &[i64], (t, c): ColPos| row[offsets[t] + c];
    let mut groups: BTreeMap<Vec<i64>, (i64, i64, i64)> = BTreeMap::new();
    for row in joined(w) {
        let key: Vec<i64> = w.group_by.iter().map(|&g| at(&row, g)).collect();
        let (s, lo, hi) = (at(&row, w.sum), at(&row, w.min), at(&row, w.max));
        groups
            .entry(key)
            .and_modify(|acc| *acc = (acc.0 + s, acc.1.min(lo), acc.2.max(hi)))
            .or_insert((s, lo, hi));
    }
    groups
        .into_iter()
        .map(|(key, (s, lo, hi))| {
            key.into_iter()
                .chain([s, lo, hi])
                .map(|v| (v as f64).to_bits())
                .collect()
        })
        .collect()
}

fn sql_text(w: &Workload) -> String {
    format!("select * from {}{}", from_clause(w), where_clause(w))
}

/// Each table's first column in the FROM-order row layout.
fn offsets(w: &Workload) -> Vec<usize> {
    w.tables
        .iter()
        .scan(0usize, |acc, (_, cols, _)| {
            let o = *acc;
            *acc += cols.len();
            Some(o)
        })
        .collect()
}

/// Naive nested-loop join: cross product in FROM order, filtered by the
/// join predicates.
fn joined(w: &Workload) -> Vec<Vec<i64>> {
    let offsets = offsets(w);
    let mut out: Vec<Vec<i64>> = Vec::new();
    if w.tables.iter().any(|(_, _, rows)| rows.is_empty()) {
        return out;
    }
    let n = w.tables.len();
    let mut idx = vec![0usize; n];
    'odometer: loop {
        let row: Vec<i64> = (0..n)
            .flat_map(|s| w.tables[s].2[idx[s]].iter().copied())
            .collect();
        if w.joins
            .iter()
            .all(|&((sa, ca), (sb, cb))| row[offsets[sa] + ca] == row[offsets[sb] + cb])
        {
            out.push(row);
        }
        let mut d = n;
        loop {
            if d == 0 {
                break 'odometer;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < w.tables[d].2.len() {
                break;
            }
            idx[d] = 0;
        }
    }
    out
}

/// The nested-loop reference as a sorted multiset of canonical f64 bits.
fn reference(w: &Workload) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = joined(w)
        .into_iter()
        .map(|row| row.iter().map(|&v| (v as f64).to_bits()).collect())
        .collect();
    out.sort_unstable();
    out
}

/// A result's rows, in order, as canonical f64 bits.
fn rows_of(t: &Table) -> Vec<Vec<u64>> {
    t.rows()
        .iter()
        .map(|r| r.iter().map(|v| v.as_float().to_bits()).collect())
        .collect()
}

fn sorted_rows(t: &Table) -> Vec<Vec<u64>> {
    let mut rows = rows_of(t);
    rows.sort_unstable();
    rows
}

/// Strategy: one of the three canonical join-graph shapes over three
/// random tables, with keys drawn from a span small enough to force
/// duplicates (skew) or wide enough to stay mostly distinct, and row
/// counts that include empty and singleton relations. Each table also
/// has an integer-valued float column `w` (possibly negative); the
/// grouped query groups by zero to two random columns and aggregates
/// random columns.
fn workload_strategy() -> impl Strategy<Value = Workload> {
    let table = |span: i64| proptest::collection::vec((0..span, 0..span, -span..span), 0..18);
    let col = || (0..3usize, 0..3usize);
    let aggs = (proptest::collection::vec(col(), 0..3), col(), col(), col());
    (0..3usize, 2..9i64).prop_flat_map(move |(shape, span)| {
        (table(span), table(span), table(span), aggs.clone()).prop_map(
            move |(r0, r1, r2, (mut group_by, sum, min, max))| {
                let rows =
                    |v: &[(i64, i64, i64)]| v.iter().map(|&(a, b, c)| vec![a, b, c]).collect();
                group_by.dedup();
                let (tables, joins) = match shape {
                    // Chain: T0 — T1 — T2.
                    0 => (
                        vec![
                            ("T0", vec!["k0", "p0", "w"], rows(&r0)),
                            ("T1", vec!["ka", "kb", "w"], rows(&r1)),
                            ("T2", vec!["k2", "p2", "w"], rows(&r2)),
                        ],
                        vec![((0, 0), (1, 0)), ((1, 1), (2, 0))],
                    ),
                    // Star: fact table last in FROM order, so a FROM-order
                    // evaluation cross-products the two dimensions first.
                    1 => (
                        vec![
                            ("D1", vec!["d", "p", "w"], rows(&r0)),
                            ("D2", vec!["e", "q", "w"], rows(&r1)),
                            ("F", vec!["f1", "f2", "w"], rows(&r2)),
                        ],
                        vec![((2, 0), (0, 0)), ((2, 1), (1, 0))],
                    ),
                    // Triangle: a 3-cycle of equi-joins.
                    _ => (
                        vec![
                            ("R", vec!["a", "b", "w"], rows(&r0)),
                            ("S", vec!["c", "d", "w"], rows(&r1)),
                            ("T", vec!["e", "f", "w"], rows(&r2)),
                        ],
                        vec![((0, 1), (1, 0)), ((1, 1), (2, 0)), ((2, 1), (0, 0))],
                    ),
                };
                Workload {
                    tables,
                    joins,
                    group_by,
                    sum,
                    min,
                    max,
                }
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Planned execution and a naive nested-loop evaluation agree as row
    /// multisets on random chain/star/triangle workloads with skewed keys
    /// and empty or singleton relations.
    #[test]
    fn planned_matches_nested_loop_reference(w in workload_strategy()) {
        let mut db = build_db(&w);
        let planned = db.execute(&sql_text(&w)).unwrap().unwrap();
        prop_assert_eq!(sorted_rows(&planned), reference(&w));
    }

    /// The streaming `GROUP BY` equals a plain-loop oracle bit for bit and
    /// in ascending group order, with or without group columns (an
    /// aggregate over no rows yields no rows). Every aggregated value is
    /// a small integer, so the sums are exact in any fold order.
    #[test]
    fn grouped_aggregates_match_plain_loop_oracle(w in workload_strategy()) {
        let mut db = build_db(&w);
        let sql = agg_sql_text(&w);
        let got = db.execute(&sql).unwrap().unwrap();
        prop_assert_eq!(rows_of(&got), agg_reference(&w), "{}", sql);
    }
}

// ---------------------------------------------------------------------------
// Plan quality on a skewed chain.
// ---------------------------------------------------------------------------

/// R ⋈ S explodes on a hub key; S ⋈ Sel is tiny. The FROM order
/// hits the hub first; the bound-minimal order defers it.
fn skewed_chain_db(n: i64, hub: i64) -> Database {
    let mut db = Database::new();
    let mut r = Table::new("R", &["k", "p"]);
    let mut s = Table::new("S", &["k", "j"]);
    let mut sel = Table::new("Sel", &["j"]);
    for i in 0..n {
        let k = if i < hub { 0 } else { i };
        r.push(vec![Value::Int(k), Value::Int(i)]);
        let j = if i < hub { n + i } else { i % 50 };
        s.push(vec![Value::Int(k), Value::Int(j)]);
    }
    for j in 0..25 {
        sel.push(vec![Value::Int(j)]);
    }
    db.insert_table("R", r);
    db.insert_table("S", s);
    db.insert_table("Sel", sel);
    db
}

const CHAIN_SQL: &str = "select R.p, Sel.j from R, S, Sel where R.k = S.k and S.j = Sel.j";

/// One equality of a [`naive_join`]: `(table, column) = (table, column)`.
type NaiveEq = ((&'static str, &'static str), (&'static str, &'static str));

/// Expected rows of an equi-join query by a naive index join written out
/// here, independent of the executor: the tables join in the order
/// given, each through a std hash index on its columns that equal
/// columns of tables already joined. `out` names the result columns;
/// rows come back as a sorted multiset of canonical f64 bits.
fn naive_join(
    db: &Database,
    order: &[&str],
    eqs: &[NaiveEq],
    out: &[(&str, &str)],
) -> Vec<Vec<u64>> {
    let col = |t: &str, c: &str| db.table(t).unwrap().col(c);
    let mut partial: Vec<Vec<&[Value]>> = vec![Vec::new()];
    for (ti, &t) in order.iter().enumerate() {
        let joined = &order[..ti];
        // (column of t, position of the other table, its column).
        let mut links: Vec<(usize, usize, usize)> = Vec::new();
        for &((ta, ca), (tb, cb)) in eqs {
            let (mine, other) = if ta == t {
                ((ta, ca), (tb, cb))
            } else if tb == t {
                ((tb, cb), (ta, ca))
            } else {
                continue;
            };
            if let Some(j) = joined.iter().position(|&x| x == other.0) {
                links.push((col(mine.0, mine.1), j, col(other.0, other.1)));
            }
        }
        let mut index: HashMap<Vec<i64>, Vec<&[Value]>> = HashMap::new();
        for r in db.table(t).unwrap().rows() {
            let key = links.iter().map(|&(c, _, _)| r[c].as_int()).collect();
            index.entry(key).or_default().push(r);
        }
        partial = partial
            .into_iter()
            .flat_map(|p| {
                let key: Vec<i64> = links.iter().map(|&(_, j, c)| p[j][c].as_int()).collect();
                let matches = index.get(&key).cloned().unwrap_or_default();
                matches.into_iter().map(move |r| {
                    let mut q = p.clone();
                    q.push(r);
                    q
                })
            })
            .collect();
    }
    let mut rows: Vec<Vec<u64>> = partial
        .iter()
        .map(|p| {
            out.iter()
                .map(|&(t, c)| {
                    let j = order.iter().position(|&x| x == t).unwrap();
                    (p[j][col(t, c)].as_int() as f64).to_bits()
                })
                .collect()
        })
        .collect();
    rows.sort_unstable();
    rows
}

/// A [`naive_join`]'s join order, equalities and output columns.
type NaiveQuery = (
    &'static [&'static str],
    &'static [NaiveEq],
    &'static [(&'static str, &'static str)],
);

const CHAIN_EQS: [NaiveEq; 2] = [(("R", "k"), ("S", "k")), (("S", "j"), ("Sel", "j"))];

/// The planner must pick the bound-minimal join order (hub join last) on
/// a workload where the FROM order is asymptotically worse — quadratic
/// in the hub degree — while producing the naive join's multiset.
#[test]
fn planner_defers_hub_join_on_skewed_chain() {
    let db = skewed_chain_db(2000, 400);
    let sel = select(CHAIN_SQL);
    let (planned, plan, _) = db.run_select_planned(&sel, "result").unwrap();
    assert_eq!(
        plan.scan_order().last().map(String::as_str),
        Some("R"),
        "hub join should come last, got {:?}",
        plan.scan_order()
    );
    let expect = naive_join(
        &db,
        &["Sel", "S", "R"],
        &CHAIN_EQS,
        &[("R", "p"), ("Sel", "j")],
    );
    assert_eq!(sorted_rows(&planned), expect);
}

/// Star D1, D2, F with the fact table last in FROM order: a FROM-order
/// evaluation cross-products the two dimension tables first.
fn skewed_star_db() -> Database {
    let n = 400i64;
    let mut d1 = Table::new("D1", &["d", "p"]);
    let mut d2 = Table::new("D2", &["e", "q"]);
    let mut f = Table::new("F", &["f1", "f2"]);
    for i in 0..n {
        d1.push(vec![Value::Int(i), Value::Int(i * 2)]);
        d2.push(vec![Value::Int(i), Value::Int(i * 3)]);
    }
    for i in 0..(2 * n) {
        f.push(vec![Value::Int(i % n), Value::Int((i * 7) % n)]);
    }
    let mut db = Database::new();
    db.insert_table("D1", d1);
    db.insert_table("D2", d2);
    db.insert_table("F", f);
    db
}

/// Triangle R(a,b) — S(b,c) — T(c,a) with a hub on b and a small
/// selective T: the FROM order joins R ⋈ S on the hub first.
fn skewed_triangle_db() -> Database {
    let (n, hub) = (1200i64, 300i64);
    let mut r = Table::new("R", &["a", "b"]);
    let mut s = Table::new("S", &["b", "c"]);
    let mut t = Table::new("T", &["c", "a"]);
    for i in 0..n {
        let b = if i < hub { 0 } else { i };
        r.push(vec![Value::Int(i), Value::Int(b)]);
        s.push(vec![Value::Int(b), Value::Int(i)]);
    }
    for j in 0..100 {
        t.push(vec![Value::Int(j), Value::Int(j)]);
    }
    let mut db = Database::new();
    db.insert_table("R", r);
    db.insert_table("S", s);
    db.insert_table("T", t);
    db
}

fn select(sql: &str) -> Select {
    let Statement::Select(sel) = parse(sql).unwrap() else {
        unreachable!()
    };
    sel
}

/// The most rows any `HashJoin` of the executed plan produced.
fn largest_join_rows(node: &PlanNode, actuals: &[NodeActual]) -> usize {
    match node {
        PlanNode::HashJoin {
            id, left, right, ..
        } => actuals[*id]
            .rows
            .expect("executed join")
            .max(largest_join_rows(left, actuals))
            .max(largest_join_rows(right, actuals)),
        PlanNode::Filter { input, .. }
        | PlanNode::Aggregate { input, .. }
        | PlanNode::Project { input, .. } => largest_join_rows(input, actuals),
        PlanNode::Scan { .. } => 0,
    }
}

/// On the three skewed workloads the bound-minimal order never builds an
/// intermediate more than half the size of the FROM order's first
/// join — a deterministic row count, not a wall-clock ratio. The first
/// joins of the FROM order are:
///
/// - chain `R ⋈ S` on `k`: the 400 hub rows of each side share `k = 0`
///   (400 · 400 = 160,000 pairs) and keys 400..2000 match one to one
///   (1,600), so 161,600 rows;
/// - star `D1 × D2`: no predicate links the two dimensions, so the cross
///   product of 400 · 400 = 160,000 rows;
/// - triangle `R ⋈ S` on `b`: the 300 hub rows share `b = 0` (90,000
///   pairs) and `b` in 300..1200 matches one to one (900), so 90,900 rows.
///
/// Each count is checked by running that two-table prefix on its own, and
/// the planned result must still be the rows of a [`naive_join`].
#[test]
fn planner_halves_largest_intermediate_on_skewed_workloads() {
    let workloads: [(_, _, _, _, _, NaiveQuery); 3] = [
        (
            "chain",
            skewed_chain_db(2000, 400),
            CHAIN_SQL,
            "select R.p from R, S where R.k = S.k",
            161_600,
            (&["Sel", "S", "R"], &CHAIN_EQS, &[("R", "p"), ("Sel", "j")]),
        ),
        (
            "star",
            skewed_star_db(),
            "select D1.p, D2.q from D1, D2, F where F.f1 = D1.d and F.f2 = D2.e",
            "select D1.p from D1, D2",
            160_000,
            (
                &["F", "D1", "D2"],
                &[(("F", "f1"), ("D1", "d")), (("F", "f2"), ("D2", "e"))],
                &[("D1", "p"), ("D2", "q")],
            ),
        ),
        (
            "triangle",
            skewed_triangle_db(),
            "select R.a, T.c from R, S, T where R.b = S.b and S.c = T.c and T.a = R.a",
            "select R.a from R, S where R.b = S.b",
            90_900,
            (
                &["T", "S", "R"],
                &[
                    (("R", "b"), ("S", "b")),
                    (("S", "c"), ("T", "c")),
                    (("T", "a"), ("R", "a")),
                ],
                &[("R", "a"), ("T", "c")],
            ),
        ),
    ];
    for (name, db, sql, first_join_sql, first_join_rows, (order, eqs, out)) in workloads {
        let first_join = db.run_select(&select(first_join_sql), "prefix").unwrap();
        assert_eq!(
            first_join.len(),
            first_join_rows,
            "{name}: FROM-order first join"
        );

        let sel = select(sql);
        let (planned, plan, actuals) = db.run_select_planned(&sel, "result").unwrap();
        let largest = largest_join_rows(&plan.root, &actuals);
        assert!(
            2 * largest <= first_join_rows,
            "{name}: largest planned join has {largest} rows, FROM order's first join \
             {first_join_rows}; order {:?}",
            plan.scan_order()
        );
        let expect = naive_join(&db, order, eqs, out);
        assert_eq!(sorted_rows(&planned), expect, "{name}");
    }
}

/// `EXPLAIN SELECT …` round-trips through the parser and prints one node
/// per line with the chosen join order, a pessimistic bound (`bound<=`)
/// and the actual cardinality (`actual=`) from execution.
#[test]
fn explain_round_trips_with_bounds_and_actuals() {
    let db = skewed_chain_db(500, 100);
    let stmt = parse(&format!("explain {CHAIN_SQL}")).unwrap();
    assert!(matches!(stmt, Statement::Explain { .. }));
    let text = db.explain(&format!("explain {CHAIN_SQL}")).unwrap();
    for needle in ["Project", "HashJoin on", "Scan R", "Scan S", "Scan Sel"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // Every plan node line reports a bound, and executed nodes report
    // their actual cardinality.
    for line in text.lines() {
        assert!(line.contains("bound<="), "no bound on line {line:?}");
        assert!(line.contains("actual="), "no actual on line {line:?}");
    }
}

// ---------------------------------------------------------------------------
// Bitwise regression pins for the SQL algorithms.
// ---------------------------------------------------------------------------

fn random_labels(n: usize, k: usize, count: usize, seed: u64) -> ExplicitBeliefs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = ExplicitBeliefs::new(n, k);
    let mut placed = 0;
    while placed < count {
        let v = rng.gen_range(0..n);
        if !e.is_explicit(v) {
            e.set_label(v, rng.gen_range(0..k), 1.0).unwrap();
            placed += 1;
        }
    }
    e
}

/// FNV-1a 64 over little-endian words — stable across platforms.
fn fnv64(bits: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn mat_hash(m: &BeliefMatrix) -> u64 {
    fnv64(m.residual().as_slice().iter().map(|x| x.to_bits()))
}

/// The `SqlDb::linbp`, `linbp_batch` and `sbp` constants were captured
/// on the commit immediately before the planner landed, when LinBP still
/// ran hand-built engine joins; the `linbp_sql_text` and Fig. 9b read-out
/// constants on the commit before the pipelined executor. All three
/// LinBP methods now run the one Algorithm 1 SQL script (the batch with
/// a query-id column) and must keep every one of those bits; `sbp` still
/// runs the engine operators.
#[test]
fn sql_algorithms_bitwise_identical_to_pre_planner_outputs() {
    let g = kronecker_graph(5);
    let n = g.num_nodes();
    let e = random_labels(n, 3, n / 20, 3);
    let h = CouplingMatrix::fig6b_residual().scale(0.002);
    let db = SqlDb::new(&g, &e, &h);
    assert_eq!(
        mat_hash(&db.linbp(4, true)),
        0xf34253fd773b7530,
        "linbp echo"
    );
    assert_eq!(
        mat_hash(&db.linbp(4, false)),
        0xaec7474e9f368bad,
        "linbp star"
    );
    let text = db.linbp_sql_text(4);
    assert_eq!(mat_hash(&text), 0xf34253fd773b7530, "linbp_sql_text");
    let mut b = Table::new("B", &["v", "c", "b"]);
    for v in 0..n {
        for (c, &x) in text.row(v).iter().enumerate() {
            b.push(vec![
                Value::Int(v as i64),
                Value::Int(c as i64),
                Value::Float(x),
            ]);
        }
    }
    let pairs = SqlDb::top_beliefs_sql_text(&b);
    assert_eq!(pairs.len(), 423, "top_beliefs_sql_text pairs");
    assert_eq!(
        fnv64(pairs.iter().flat_map(|&(v, c)| [v as u64, c as u64])),
        0x08a8cb031e488a14,
        "top_beliefs_sql_text"
    );

    let e2 = random_labels(n, 3, 5, 7);
    let batch = db.linbp_batch(&[e.clone(), e2], 3, true);
    assert_eq!(mat_hash(&batch[0]), 0xeb1b8eba26b786cd, "batch query 0");
    assert_eq!(mat_hash(&batch[1]), 0x0ad14b9affeafbc1, "batch query 1");

    let gs = erdos_renyi_gnm(60, 150, 23);
    let es = random_labels(60, 3, 6, 4);
    let ho = CouplingMatrix::fig1c().unwrap().residual();
    let sdb = SqlDb::new(&gs, &es, &ho);
    let state = sdb.sbp();
    assert_eq!(
        mat_hash(&belief_table_to_matrix(&state.b, 60, 3)),
        0x0cdda98064fa6a81,
        "sbp beliefs"
    );
    assert_eq!(
        fnv64(
            geodesic_table_to_vec(&state.g, 60)
                .into_iter()
                .map(|x| x as u64)
        ),
        0x5a2daad102a11022,
        "sbp geodesics"
    );
}

/// The EXPLAIN of a grouped query reports the rows streamed through its
/// last join: Algorithm 1's V1 statement on the Fig. 5c torus, first
/// iteration (`B` = `E`: 3 explicit nodes × 3 classes). 3 edges leave
/// the explicit nodes, so `A ⋈ B` has 9 rows; each meets 3 `H` rows, so
/// 27 rows reach the GROUP BY, which folds them into 9 groups.
#[test]
fn explain_counts_rows_streamed_into_group_by() {
    let mut e = ExplicitBeliefs::new(8, 3);
    e.set_residual(0, &[2.0, -1.0, -1.0]).unwrap();
    e.set_residual(1, &[-1.0, 2.0, -1.0]).unwrap();
    e.set_residual(2, &[-1.0, -1.0, 2.0]).unwrap();
    let h = CouplingMatrix::fig1c().unwrap().scaled_residual(0.1);
    let sdb = SqlDb::new(&fig5c_torus(), &e, &h);
    let mut db = Database::new();
    db.insert_table("A", sdb.a().clone());
    db.insert_table("B", sdb.e().clone());
    db.insert_table("H", sdb.h().clone());
    let text = db
        .explain(
            "explain select A.t as v, H.c2 as c, sum(A.w * B.b * H.h) as b \
             from A, B, H where A.s = B.v and B.c = H.c1 group by A.t, H.c2",
        )
        .unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].starts_with("Aggregate group by [A.t, H.c2]") && lines[0].ends_with("actual=9"),
        "{text}"
    );
    assert!(
        lines[1].trim_start().starts_with("HashJoin on B.c = H.c1")
            && lines[1].contains(" actual=27 "),
        "{text}"
    );
    assert!(
        lines[2].trim_start().starts_with("HashJoin on A.s = B.v")
            && lines[2].contains(" actual=9 "),
        "{text}"
    );
}
