//! Query-planner end-to-end suite.
//!
//! Three layers of protection around the cost-bounded planner:
//!
//! 1. **Property tests** — on random chain/star/triangle join graphs with
//!    skewed keys and empty/singleton relations, the planned result, the
//!    fixed left-to-right strategy, and a naive nested-loop reference all
//!    produce the same row multiset.
//! 2. **Plan-quality tests** — on hub-skewed chain, star and triangle
//!    workloads where the fixed FROM order is asymptotically worse, the
//!    planner must defer the hub join and materialize at most half the
//!    rows of the FROM order's first join; `EXPLAIN` must round-trip
//!    through the parser and print the chosen order with a pessimistic
//!    bound and actual cardinality per node.
//! 3. **Regression pins** — `SqlDb::linbp` / `linbp_batch` / `sbp` output
//!    hashes are pinned to their pre-planner values: the planner must not
//!    perturb the SQL algorithms bit for bit.

use lsbp::prelude::*;
use lsbp_graph::generators::{erdos_renyi_gnm, kronecker_graph};
use lsbp_reldb::parser::{parse, Select, Statement};
use lsbp_reldb::plan::NodeActual;
use lsbp_reldb::sql::{belief_table_to_matrix, geodesic_table_to_vec};
use lsbp_reldb::{Database, PlanNode, SqlDb, Table, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Random-workload property tests.
// ---------------------------------------------------------------------------

/// One generated table: name, columns, integer rows.
type GenTable = (&'static str, Vec<&'static str>, Vec<Vec<i64>>);

/// A generated multi-way join workload: tables plus equi-join edges as
/// ((table, column), (table, column)).
#[derive(Clone, Debug)]
struct Workload {
    tables: Vec<GenTable>,
    joins: Vec<((usize, usize), (usize, usize))>,
}

fn build_db(w: &Workload) -> Database {
    let mut db = Database::new();
    for (name, cols, rows) in &w.tables {
        let mut t = Table::new(*name, cols);
        for r in rows {
            t.push(r.iter().map(|&v| Value::Int(v)).collect());
        }
        db.insert_table(*name, t);
    }
    db
}

fn sql_text(w: &Workload) -> String {
    let from: Vec<&str> = w.tables.iter().map(|(n, _, _)| *n).collect();
    let mut sql = format!("select * from {}", from.join(", "));
    for (i, ((sa, ca), (sb, cb))) in w.joins.iter().enumerate() {
        sql.push_str(if i == 0 { " where " } else { " and " });
        sql.push_str(&format!(
            "{}.{} = {}.{}",
            w.tables[*sa].0, w.tables[*sa].1[*ca], w.tables[*sb].0, w.tables[*sb].1[*cb]
        ));
    }
    sql
}

/// Naive nested-loop reference: cross product in FROM order, filtered by
/// the join predicates, rows as canonical f64 bits, sorted (multiset).
fn reference(w: &Workload) -> Vec<Vec<u64>> {
    let offsets: Vec<usize> = w
        .tables
        .iter()
        .scan(0usize, |acc, (_, cols, _)| {
            let o = *acc;
            *acc += cols.len();
            Some(o)
        })
        .collect();
    let mut out: Vec<Vec<u64>> = Vec::new();
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
            out.push(row.iter().map(|&v| (v as f64).to_bits()).collect());
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
    out.sort_unstable();
    out
}

fn sorted_rows(t: &Table) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = t
        .rows()
        .iter()
        .map(|r| r.iter().map(|v| v.as_float().to_bits()).collect())
        .collect();
    rows.sort_unstable();
    rows
}

/// Strategy: one of the three canonical join-graph shapes over three
/// random tables, with keys drawn from a span small enough to force
/// duplicates (skew) or wide enough to stay mostly distinct, and row
/// counts that include empty and singleton relations.
fn workload_strategy() -> impl Strategy<Value = Workload> {
    let table = |span: i64| proptest::collection::vec((0..span, 0..span), 0..18);
    (0..3usize, 2..9i64).prop_flat_map(move |(shape, span)| {
        (table(span), table(span), table(span)).prop_map(move |(r0, r1, r2)| {
            let rows = |v: &[(i64, i64)]| v.iter().map(|&(a, b)| vec![a, b]).collect();
            match shape {
                // Chain: T0 — T1 — T2.
                0 => Workload {
                    tables: vec![
                        ("T0", vec!["k0", "p0"], rows(&r0)),
                        ("T1", vec!["ka", "kb"], rows(&r1)),
                        ("T2", vec!["k2", "p2"], rows(&r2)),
                    ],
                    joins: vec![((0, 0), (1, 0)), ((1, 1), (2, 0))],
                },
                // Star: fact table last in FROM order, so the fixed
                // strategy cross-products the two dimensions first.
                1 => Workload {
                    tables: vec![
                        ("D1", vec!["d", "p"], rows(&r0)),
                        ("D2", vec!["e", "q"], rows(&r1)),
                        ("F", vec!["f1", "f2"], rows(&r2)),
                    ],
                    joins: vec![((2, 0), (0, 0)), ((2, 1), (1, 0))],
                },
                // Triangle: a 3-cycle of equi-joins.
                _ => Workload {
                    tables: vec![
                        ("R", vec!["a", "b"], rows(&r0)),
                        ("S", vec!["c", "d"], rows(&r1)),
                        ("T", vec!["e", "f"], rows(&r2)),
                    ],
                    joins: vec![((0, 1), (1, 0)), ((1, 1), (2, 0)), ((2, 1), (0, 0))],
                },
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Planned execution, the fixed left-to-right strategy, and a naive
    /// nested-loop evaluation agree as row multisets on random
    /// chain/star/triangle workloads with skewed keys and empty or
    /// singleton relations.
    #[test]
    fn planned_matches_fixed_and_nested_loop_reference(w in workload_strategy()) {
        let mut db = build_db(&w);
        let sql = sql_text(&w);
        let planned = db.execute(&sql).unwrap().unwrap();
        let sel = select(&sql);
        let fixed = db.run_select_fixed(&sel, "result").unwrap();
        let expect = reference(&w);
        prop_assert_eq!(sorted_rows(&planned), expect);
        prop_assert_eq!(sorted_rows(&fixed), sorted_rows(&planned));
    }
}

// ---------------------------------------------------------------------------
// Plan quality on a skewed chain.
// ---------------------------------------------------------------------------

/// R ⋈ S explodes on a hub key; S ⋈ Sel is tiny. The fixed FROM order
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

/// The planner must pick the bound-minimal join order (hub join last) on
/// a workload where the fixed FROM order is asymptotically worse —
/// quadratic in the hub degree — while producing the identical multiset.
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
    let fixed = db.run_select_fixed(&sel, "result").unwrap();
    assert_eq!(sorted_rows(&planned), sorted_rows(&fixed));
}

/// Star D1, D2, F with the fact table last in FROM order: the fixed
/// strategy cross-products the two dimension tables first.
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
/// selective T: the fixed order joins R ⋈ S on the hub first.
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
/// intermediate more than half the size of the fixed FROM order's first
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
/// the planned result must still be the fixed order's row multiset.
#[test]
fn planner_halves_largest_intermediate_on_skewed_workloads() {
    let workloads = [
        (
            "chain",
            skewed_chain_db(2000, 400),
            CHAIN_SQL,
            "select R.p from R, S where R.k = S.k",
            161_600,
        ),
        (
            "star",
            skewed_star_db(),
            "select D1.p, D2.q from D1, D2, F where F.f1 = D1.d and F.f2 = D2.e",
            "select D1.p from D1, D2",
            160_000,
        ),
        (
            "triangle",
            skewed_triangle_db(),
            "select R.a, T.c from R, S, T where R.b = S.b and S.c = T.c and T.a = R.a",
            "select R.a from R, S where R.b = S.b",
            90_900,
        ),
    ];
    for (name, db, sql, first_join_sql, first_join_rows) in workloads {
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
        let fixed = db.run_select_fixed(&sel, "result").unwrap();
        assert_eq!(sorted_rows(&planned), sorted_rows(&fixed), "{name}");
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

/// `SqlDb::linbp`, `linbp_batch` and `sbp` build their plans directly on
/// the engine operators (not the SQL-text executor), so the planner must
/// leave their outputs bitwise identical. These constants were captured
/// on the commit immediately before the planner landed.
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
