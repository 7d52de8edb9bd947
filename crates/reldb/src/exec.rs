//! Executor for the SQL dialect of [`crate::parser`], over a named-table
//! [`Database`].
//!
//! Every SELECT runs through the cost-bounded planner (Planner → [`Plan`]
//! → executor) and one push pipeline:
//!
//! 1. **Classification** — every WHERE conjunct is resolved against the
//!    full FROM schema and classified: single-source predicates are
//!    *pushed below the joins* into the shard-segment scan path
//!    ([`Table::filter_rows_with`]); `a = b` equalities across two
//!    sources become equi-join edges; everything else is a residual
//!    filter above the join tree.
//! 2. **Ordering** — [`crate::plan::order_joins`] picks a left-deep join
//!    order minimizing pessimistic (worst-case) cardinality bounds built
//!    from the per-table statistics every [`Table`] maintains.
//! 3. **Execution** — FROM sources are scanned by borrow; a source with
//!    pushed predicates yields only its surviving rows. Each prefix join
//!    of the chain materializes into one flat row buffer. The last hash
//!    join, or the lone scan of a one-source query, materializes nothing:
//!    it pushes each output row, as one reused row slice, through the
//!    residual filters into the root consumer. Hash joins build their
//!    index on whichever input is smaller at run time; the probe side
//!    keeps its row order and each probe row meets its matches in build
//!    order. `[NOT] IN (SELECT …)` becomes a hashed semi/anti-filter.
//! 4. **Root consumer** — either a projection that appends to the result,
//!    or a streaming `GROUP BY`. A group's first row opens it and
//!    evaluates the non-aggregate items; `SUM`/`MIN`/`MAX` fold every
//!    row in arrival order. Groups are emitted in ascending key order.
//!
//! Integer `+`, `−` and `*` stay integers while the result fits in an
//! `i64` and fall back to the float result when it overflows, as do
//! `/` and any float operand; `ABS` of `i64::MIN` is the float 2⁶³.
//! `DELETE` removes rows in place, keeping the survivors' order, and
//! un-observes each removed row from the table's statistics.
//!
//! Join keys, group keys and `IN`-sets use the canonical key of
//! `key.rs`: integers compare exactly (2⁵³ ≠ 2⁵³ + 1), an integral float
//! equals its integer, and `−0.0` = `0.0`. WHERE comparisons use the same
//! exact numeric order.
//!
//! The result's row multiset does not depend on the join order. The fold
//! order of an aggregate is the order rows leave the last join, so for
//! float `SUM`s the chosen order fixes the rounding (see README "Query
//! planner"); it never depends on the thread count.
//!
//! `EXPLAIN SELECT …` ([`Database::explain`]) runs the query and renders
//! the plan tree with each node's bound next to its actual cardinality;
//! the last join's actual counts the rows streamed through it.

use crate::engine::{Table, Value};
use crate::key::{numeric_cmp, Key, KeyIndex, KeyMap, KeySet};
use crate::parser::{
    parse, parse_script, AggregateFun, ColumnRef, Expr, ParseError, Predicate, Select, SelectItem,
    Statement, TableRef,
};
use crate::plan::{order_joins, JoinEdge, NodeActual, Plan, PlanNode, SourceEstimate};
use lsbp_linalg::ParallelismConfig;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Execution errors.
#[derive(Clone, Debug, PartialEq)]
pub enum SqlError {
    /// The statement failed to parse.
    Parse(ParseError),
    /// Unknown table name.
    UnknownTable(String),
    /// Column could not be resolved (unknown or ambiguous).
    UnknownColumn {
        /// The reference as written (qualified when it was).
        name: String,
        /// Byte offset of the reference in the SQL text, when known —
        /// the same machinery parse errors carry.
        offset: Option<usize>,
    },
    /// A table with this name already exists (CREATE TABLE).
    TableExists(String),
    /// INSERT arity differs from the target table.
    ArityMismatch {
        /// Target table name.
        table: String,
        /// Column count of the target table.
        expected: usize,
        /// Column count of the SELECT result.
        found: usize,
    },
    /// Anything else (with a message).
    Unsupported(String),
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Parse(e) => write!(f, "{e}"),
            SqlError::UnknownTable(t) => write!(f, "unknown table {t}"),
            SqlError::UnknownColumn { name, offset } => {
                write!(f, "unknown or ambiguous column {name}")?;
                if let Some(o) = offset {
                    write!(f, " at byte {o}")?;
                }
                Ok(())
            }
            SqlError::TableExists(t) => write!(f, "table {t} already exists"),
            SqlError::ArityMismatch {
                table,
                expected,
                found,
            } => {
                write!(
                    f,
                    "insert into {table}: expected {expected} columns, found {found}"
                )
            }
            SqlError::Unsupported(m) => write!(f, "unsupported SQL: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<ParseError> for SqlError {
    fn from(e: ParseError) -> Self {
        SqlError::Parse(e)
    }
}

/// A named collection of tables with a SQL front end.
#[derive(Clone, Debug, Default)]
pub struct Database {
    tables: HashMap<String, Table>,
    parallelism: ParallelismConfig,
}

/// Schema of an intermediate row set: `(source alias, column name)` pairs.
type BoundSchema = Vec<(String, String)>;

/// How one WHERE conjunct participates in the plan.
enum PredClass<'a> {
    /// References a single FROM source: pushed below the joins into that
    /// source's scan.
    Pushed(usize, &'a Predicate),
    /// `a = b` across two sources: an equi-join edge (rendered form kept
    /// for EXPLAIN).
    Edge(JoinEdge, String),
    /// Anything else: filtered above the join tree.
    Residual(&'a Predicate),
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the execution configuration pushed-down scans run under
    /// (results identical at every thread count).
    pub fn with_parallelism(mut self, cfg: ParallelismConfig) -> Self {
        self.parallelism = cfg;
        self
    }

    /// Registers (or replaces) a table under `name`.
    pub fn insert_table(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), table);
    }

    /// Fetches a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Removes a table from the catalog and hands it back (by move).
    pub(crate) fn take_table(&mut self, name: &str) -> Option<Table> {
        self.tables.remove(name)
    }

    /// Parses and executes one statement. `SELECT` (and `EXPLAIN SELECT`)
    /// return `Some(result)`; DDL/DML return `None`. For the rendered
    /// plan of an EXPLAIN, use [`Database::explain`].
    pub fn execute(&mut self, sql: &str) -> Result<Option<Table>, SqlError> {
        let stmt = parse(sql)?;
        self.execute_statement(&stmt)
    }

    /// Executes a `;`-separated script, returning the result of the final
    /// `SELECT` (if any).
    pub fn execute_script(&mut self, sql: &str) -> Result<Option<Table>, SqlError> {
        let mut last = None;
        for stmt in parse_script(sql)? {
            if let Some(t) = self.execute_statement(&stmt)? {
                last = Some(t);
            }
        }
        Ok(last)
    }

    /// Plans and runs a SELECT (given as `EXPLAIN SELECT …` or a bare
    /// `SELECT …`), returning the rendered plan tree: one node per line,
    /// each with its pessimistic bound (`bound<=`) next to the actual
    /// cardinality (`actual=`) observed during execution.
    pub fn explain(&self, sql: &str) -> Result<String, SqlError> {
        let stmt = parse(sql)?;
        let query = match &stmt {
            Statement::Explain { query } => query,
            Statement::Select(sel) => sel,
            _ => return Err(SqlError::Unsupported("EXPLAIN requires a SELECT".into())),
        };
        let (_, plan, actuals) = self.run_select_planned(query, "result")?;
        Ok(plan.render(&actuals))
    }

    fn execute_statement(&mut self, stmt: &Statement) -> Result<Option<Table>, SqlError> {
        match stmt {
            Statement::Select(sel) => Ok(Some(self.run_select(sel, "result")?)),
            Statement::Explain { query } => Ok(Some(self.run_select(query, "result")?)),
            Statement::CreateTableAs { name, query } => {
                if self.tables.contains_key(name) {
                    return Err(SqlError::TableExists(name.clone()));
                }
                let t = self.run_select(query, name)?;
                self.tables.insert(name.clone(), t);
                Ok(None)
            }
            Statement::InsertSelect { table, query } => {
                let rows = self.run_select(query, "insert")?;
                let target = self
                    .tables
                    .get_mut(table)
                    .ok_or_else(|| SqlError::UnknownTable(table.clone()))?;
                if rows.columns().len() != target.columns().len() {
                    return Err(SqlError::ArityMismatch {
                        table: table.clone(),
                        expected: target.columns().len(),
                        found: rows.columns().len(),
                    });
                }
                for r in rows.rows() {
                    target.push(r.clone());
                }
                Ok(None)
            }
            Statement::Delete { table, predicates } => {
                let source = self
                    .tables
                    .get(table)
                    .ok_or_else(|| SqlError::UnknownTable(table.clone()))?;
                let schema: BoundSchema = source
                    .columns()
                    .iter()
                    .map(|c| (table.clone(), c.clone()))
                    .collect();
                // IN-subqueries are evaluated here, before the table is
                // borrowed mutably.
                let preds: Vec<&Predicate> = predicates.iter().collect();
                let filters = self.compile_predicate_refs(&preds, &schema)?;
                self.tables
                    .get_mut(table)
                    .expect("looked up above")
                    .retain(|r| !filters.iter().all(|f| f(r)));
                Ok(None)
            }
            Statement::DropTable { name } => {
                self.tables
                    .remove(name)
                    .ok_or_else(|| SqlError::UnknownTable(name.clone()))?;
                Ok(None)
            }
        }
    }

    /// Runs a SELECT through the cost-bounded planner and materializes
    /// its result under `out_name`.
    pub fn run_select(&self, sel: &Select, out_name: &str) -> Result<Table, SqlError> {
        Ok(self.run_select_planned(sel, out_name)?.0)
    }

    /// Binds FROM sources to `(alias, table)` pairs: named tables are
    /// borrowed from the catalog, subqueries are materialized.
    fn bind_sources(&self, sel: &Select) -> Result<Vec<(String, Cow<'_, Table>)>, SqlError> {
        let mut sources = Vec::with_capacity(sel.from.len());
        for tr in &sel.from {
            match tr {
                TableRef::Named { name, alias } => {
                    let t = self
                        .tables
                        .get(name)
                        .ok_or_else(|| SqlError::UnknownTable(name.clone()))?;
                    let alias = alias.clone().unwrap_or_else(|| name.clone());
                    sources.push((alias, Cow::Borrowed(t)));
                }
                TableRef::Subquery { query, alias } => {
                    let t = self.run_select(query, alias)?;
                    sources.push((alias.clone(), Cow::Owned(t)));
                }
            }
        }
        Ok(sources)
    }

    /// Runs a SELECT through the planner, returning the result plus the
    /// chosen [`Plan`] and per-node actual cardinalities (what `EXPLAIN`
    /// renders).
    pub fn run_select_planned(
        &self,
        sel: &Select,
        out_name: &str,
    ) -> Result<(Table, Plan, Vec<NodeActual>), SqlError> {
        // 1. Bind FROM sources and lay out the global (FROM-order) schema.
        let sources = self.bind_sources(sel)?;
        let n = sources.len();
        let local_schemas: Vec<BoundSchema> = sources
            .iter()
            .map(|(alias, t)| {
                t.columns()
                    .iter()
                    .map(|c| (alias.clone(), c.clone()))
                    .collect()
            })
            .collect();
        let mut global_schema: BoundSchema = Vec::new();
        let mut source_of: Vec<usize> = Vec::new();
        let mut local_col: Vec<usize> = Vec::new();
        for (s, ls) in local_schemas.iter().enumerate() {
            for (c, entry) in ls.iter().enumerate() {
                global_schema.push(entry.clone());
                source_of.push(s);
                local_col.push(c);
            }
        }

        // 2. Classify predicates: pushdown / join edge / residual.
        let mut pushed: Vec<Vec<&Predicate>> = vec![Vec::new(); n];
        let mut edges: Vec<JoinEdge> = Vec::new();
        let mut edge_strs: Vec<String> = Vec::new();
        let mut residual: Vec<&Predicate> = Vec::new();
        for pred in &sel.predicates {
            match classify_predicate(pred, &global_schema, &source_of, &local_col)? {
                PredClass::Pushed(s, p) => pushed[s].push(p),
                PredClass::Edge(e, s) => {
                    edges.push(e);
                    edge_strs.push(s);
                }
                PredClass::Residual(p) => residual.push(p),
            }
        }

        // 3. Pessimistic estimates per source (pushdown folded in) and the
        // bound-minimal join order.
        let mut ests: Vec<SourceEstimate> = sources
            .iter()
            .map(|(_, t)| SourceEstimate::from_stats(t.stats()))
            .collect();
        for (s, preds) in pushed.iter().enumerate() {
            for pred in preds {
                if let Some(col) = eq_literal_column(pred, &local_schemas[s]) {
                    ests[s].apply_eq_literal(col);
                }
            }
        }
        let order = order_joins(&ests, &edges);

        // 4. The executed row layout is the sources in join order; the
        // residual filters and the root consumer compile against it. The
        // wildcard still expands in FROM order.
        let mut exec_schema: BoundSchema = Vec::new();
        let mut pos_of_source: Vec<usize> = vec![0; n];
        for s in std::iter::once(order.first).chain(order.steps.iter().map(|st| st.source)) {
            pos_of_source[s] = exec_schema.len();
            exec_schema.extend(local_schemas[s].iter().cloned());
        }
        let wildcard: Vec<(String, usize)> = global_schema
            .iter()
            .enumerate()
            .map(|(g, (_, col))| (col.clone(), pos_of_source[source_of[g]] + local_col[g]))
            .collect();
        let grouped = !sel.group_by.is_empty()
            || sel
                .items
                .iter()
                .any(|i| matches!(i, SelectItem::Aggregate { .. }));
        let (names, evals) = self.compile_items(sel, &exec_schema, &wildcard)?;
        let root = if grouped {
            if evals.iter().any(|e| matches!(e, ItemEval::All(_))) {
                return Err(SqlError::Unsupported("SELECT * with GROUP BY".into()));
            }
            let key_cols = sel
                .group_by
                .iter()
                .map(|c| resolve(&exec_schema, c))
                .collect::<Result<_, _>>()?;
            Root::Group(Grouping {
                key_cols,
                evals,
                groups: KeyMap::default(),
                cells: Vec::new(),
            })
        } else {
            Root::Project {
                evals,
                rows: Vec::new(),
            }
        };
        let mut sink = Sink {
            filters: self.compile_predicate_refs(&residual, &exec_schema)?,
            streamed: 0,
            passed: 0,
            root,
        };

        // 5. Execute the left-deep chain, building the plan tree and
        // actual cardinalities as we go. Prefix joins materialize; the
        // last join (or the lone scan) streams into the sink.
        let mut actuals: Vec<NodeActual> = Vec::new();
        let new_node = |actuals: &mut Vec<NodeActual>| -> usize {
            actuals.push(NodeActual::default());
            actuals.len() - 1
        };

        let first = order.first;
        let scan_id = new_node(&mut actuals);
        let (mut prefix, mut cur_node) = self.scan_source(
            &sources[first].0,
            &sources[first].1,
            &local_schemas[first],
            &pushed[first],
            ests[first].rows,
            scan_id,
        )?;
        actuals[scan_id].rows = Some(prefix.len());
        if order.steps.is_empty() {
            for i in 0..prefix.len() {
                sink.push(prefix.row(i));
            }
        }
        let mut in_prefix = vec![false; n];
        in_prefix[first] = true;
        let mut width = local_schemas[first].len();
        let mut edge_used = vec![false; edges.len()];

        for (si, step) in order.steps.iter().enumerate() {
            let t = step.source;
            let right_id = new_node(&mut actuals);
            let (right, right_node) = self.scan_source(
                &sources[t].0,
                &sources[t].1,
                &local_schemas[t],
                &pushed[t],
                ests[t].rows,
                right_id,
            )?;
            actuals[right_id].rows = Some(right.len());
            // Join keys: every unused edge connecting t to the prefix.
            let mut left_keys = Vec::new();
            let mut right_keys = Vec::new();
            let mut key_strs = Vec::new();
            for (ei, e) in edges.iter().enumerate() {
                if edge_used[ei] {
                    continue;
                }
                let (pe, te) = if e.a.0 == t && in_prefix[e.b.0] {
                    (e.b, e.a)
                } else if e.b.0 == t && in_prefix[e.a.0] {
                    (e.a, e.b)
                } else {
                    continue;
                };
                left_keys.push(pos_of_source[pe.0] + pe.1);
                right_keys.push(te.1);
                key_strs.push(edge_strs[ei].clone());
                edge_used[ei] = true;
            }
            let join_id = new_node(&mut actuals);
            let out_width = width + local_schemas[t].len();
            let join = HashJoin::new(&prefix, &right, &left_keys, &right_keys);
            let built_on_right = join.built_on_right;
            let rows = if si + 1 == order.steps.len() {
                let mut row = Vec::with_capacity(out_width);
                join.for_each(|l, r| {
                    row.clear();
                    row.extend_from_slice(l);
                    row.extend_from_slice(r);
                    sink.push(&row);
                });
                sink.streamed
            } else {
                let hint = step.bound.max(0.0).min((1usize << 20) as f64) as usize;
                let joined = join.materialize(out_width, hint);
                let rows = joined.len();
                prefix = joined;
                rows
            };
            actuals[join_id].rows = Some(rows);
            actuals[join_id].note = Some(format!(
                "build={}",
                if built_on_right {
                    sources[t].0.as_str()
                } else {
                    "prefix"
                }
            ));
            in_prefix[t] = true;
            width = out_width;
            cur_node = PlanNode::HashJoin {
                id: join_id,
                left: Box::new(cur_node),
                right: Box::new(right_node),
                keys: key_strs,
                bound: step.bound,
            };
        }

        // 6. Residual filters above the join tree (applied in the sink).
        if !residual.is_empty() {
            let id = new_node(&mut actuals);
            actuals[id].rows = Some(sink.passed);
            let bound = cur_node.bound();
            cur_node = PlanNode::Filter {
                id,
                input: Box::new(cur_node),
                preds: residual.iter().map(|p| p.to_string()).collect(),
                bound,
            };
        }

        // 7. The root consumer's node and result.
        let input_bound = cur_node.bound();
        let root_id = new_node(&mut actuals);
        let root = if grouped {
            // Groups cannot exceed the product of the group columns'
            // distinct-count bounds (empty product = 1: a pure aggregate).
            let mut group_bound = 1.0f64;
            for c in &sel.group_by {
                let g = resolve(&global_schema, c)?;
                group_bound *=
                    ests[source_of[g]].cols[local_col[g]].map_or(input_bound, |cb| cb.distinct);
                if group_bound >= input_bound {
                    group_bound = input_bound;
                    break;
                }
            }
            PlanNode::Aggregate {
                id: root_id,
                input: Box::new(cur_node),
                group_by: sel.group_by.iter().map(|c| c.to_string()).collect(),
                bound: group_bound.min(input_bound),
            }
        } else {
            PlanNode::Project {
                id: root_id,
                input: Box::new(cur_node),
                items: sel.items.iter().map(|i| i.to_string()).collect(),
                bound: input_bound,
            }
        };
        let result = sink.root.finish(out_name, &names);
        actuals[root_id].rows = Some(result.len());
        let plan = Plan {
            root,
            node_count: actuals.len(),
        };
        Ok((result, plan, actuals))
    }

    /// Scans one FROM source with its pushed-down predicates applied
    /// inside the shard-segment scan, returning the surviving rows (the
    /// table's own rows, borrowed, when nothing is pushed) and the plan's
    /// Scan node.
    fn scan_source<'t>(
        &self,
        alias: &str,
        table: &'t Table,
        local_schema: &BoundSchema,
        pushed: &[&Predicate],
        bound: f64,
        id: usize,
    ) -> Result<(RowSet<'t>, PlanNode), SqlError> {
        let rows = if pushed.is_empty() {
            Cow::Borrowed(table.rows())
        } else {
            let filters = self.compile_predicate_refs(pushed, local_schema)?;
            let pred = move |r: &[Value]| filters.iter().all(|f| f(r));
            Cow::Owned(table.filter_rows_with(&pred, &self.parallelism))
        };
        let node = PlanNode::Scan {
            id,
            label: alias.to_string(),
            input_rows: table.len(),
            pushed: pushed.iter().map(|p| p.to_string()).collect(),
            bound,
        };
        Ok((RowSet::Rows(rows), node))
    }

    /// Compiles SELECT items to output names + evaluators. `wildcard`
    /// maps `*` to `(output name, row position)` pairs — positions differ
    /// from schema order when the planner reordered the joins.
    #[allow(clippy::type_complexity)]
    fn compile_items(
        &self,
        sel: &Select,
        schema: &BoundSchema,
        wildcard: &[(String, usize)],
    ) -> Result<(Vec<String>, Vec<ItemEval>), SqlError> {
        let mut names = Vec::new();
        let mut evals = Vec::new();
        for (i, item) in sel.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for (name, _) in wildcard {
                        names.push(name.clone());
                    }
                    evals.push(ItemEval::All(wildcard.iter().map(|&(_, p)| p).collect()));
                }
                SelectItem::Expr { expr, alias } => {
                    names.push(alias.clone().unwrap_or_else(|| default_name(expr, i)));
                    evals.push(ItemEval::Scalar(compile_expr(expr, schema)?));
                }
                SelectItem::Aggregate { fun, arg, alias } => {
                    names.push(alias.clone().unwrap_or_else(|| format!("agg{i}")));
                    evals.push(ItemEval::Agg(*fun, compile_expr(arg, schema)?));
                }
            }
        }
        Ok((names, evals))
    }

    fn compile_predicate_refs(
        &self,
        preds: &[&Predicate],
        schema: &BoundSchema,
    ) -> Result<Vec<RowPredicate>, SqlError> {
        let mut out: Vec<RowPredicate> = Vec::with_capacity(preds.len());
        for pred in preds {
            match pred {
                Predicate::Compare(lhs, op, rhs) => {
                    let l = compile_expr(lhs, schema)?;
                    let r = compile_expr(rhs, schema)?;
                    // Exact numeric order; a NaN operand is unordered, so
                    // only `<>` holds for it.
                    let holds: fn(Option<Ordering>) -> bool = match op.as_str() {
                        "=" => |o| o == Some(Ordering::Equal),
                        "<" => |o| o == Some(Ordering::Less),
                        ">" => |o| o == Some(Ordering::Greater),
                        "<=" => |o| matches!(o, Some(Ordering::Less | Ordering::Equal)),
                        ">=" => |o| matches!(o, Some(Ordering::Greater | Ordering::Equal)),
                        "<>" => |o| o != Some(Ordering::Equal),
                        _ => unreachable!("parser only emits known operators"),
                    };
                    out.push(Box::new(move |row| holds(numeric_cmp(l(row), r(row)))));
                }
                Predicate::InSubquery {
                    expr,
                    query,
                    negated,
                } => {
                    let sub = self.run_select(query, "in")?;
                    if sub.columns().is_empty() {
                        return Err(SqlError::Unsupported("IN over zero-column subquery".into()));
                    }
                    let set: KeySet = sub.rows().iter().map(|r| Key::single(r[0])).collect();
                    let e = compile_expr(expr, schema)?;
                    let negated = *negated;
                    out.push(Box::new(move |row| {
                        set.contains(&Key::single(e(row))) != negated
                    }));
                }
            }
        }
        Ok(out)
    }
}

/// Classifies one WHERE conjunct against the full FROM schema.
fn classify_predicate<'a>(
    pred: &'a Predicate,
    global_schema: &BoundSchema,
    source_of: &[usize],
    local_col: &[usize],
) -> Result<PredClass<'a>, SqlError> {
    let mut refs = Vec::new();
    predicate_columns(pred, &mut refs);
    let mut resolved = Vec::with_capacity(refs.len());
    let mut srcs: Vec<usize> = Vec::new();
    for c in &refs {
        let g = resolve(global_schema, c)?;
        resolved.push(g);
        if !srcs.contains(&source_of[g]) {
            srcs.push(source_of[g]);
        }
    }
    Ok(match (srcs.len(), pred) {
        (0, _) => PredClass::Residual(pred),
        (1, _) => PredClass::Pushed(srcs[0], pred),
        (2, Predicate::Compare(Expr::Column(_), op, Expr::Column(_))) if op == "=" => {
            let (ga, gb) = (resolved[0], resolved[1]);
            let render = |g: usize| {
                let (alias, col) = &global_schema[g];
                format!("{alias}.{col}")
            };
            PredClass::Edge(
                JoinEdge {
                    a: (source_of[ga], local_col[ga]),
                    b: (source_of[gb], local_col[gb]),
                },
                format!("{} = {}", render(ga), render(gb)),
            )
        }
        _ => PredClass::Residual(pred),
    })
}

/// If `pred` is `col = literal` (either orientation), returns the
/// column's index in `local_schema` — the estimate the planner tightens
/// via max-frequency.
fn eq_literal_column(pred: &Predicate, local_schema: &BoundSchema) -> Option<usize> {
    let Predicate::Compare(lhs, op, rhs) = pred else {
        return None;
    };
    if op != "=" {
        return None;
    }
    let col = match (lhs, rhs) {
        (Expr::Column(c), Expr::Literal(_)) | (Expr::Literal(_), Expr::Column(c)) => c,
        _ => return None,
    };
    resolve(local_schema, col).ok()
}

/// Collects every column reference of an expression.
fn expr_columns<'a>(e: &'a Expr, out: &mut Vec<&'a ColumnRef>) {
    match e {
        Expr::Column(c) => out.push(c),
        Expr::Literal(_) => {}
        Expr::Binary(l, _, r) => {
            expr_columns(l, out);
            expr_columns(r, out);
        }
        Expr::Abs(e) => expr_columns(e, out),
    }
}

/// Column references of a predicate that bind to the *outer* query (an
/// IN-subquery's body is independent).
fn predicate_columns<'a>(p: &'a Predicate, out: &mut Vec<&'a ColumnRef>) {
    match p {
        Predicate::Compare(l, _, r) => {
            expr_columns(l, out);
            expr_columns(r, out);
        }
        Predicate::InSubquery { expr, .. } => expr_columns(expr, out),
    }
}

type RowPredicate = Box<dyn Fn(&[Value]) -> bool + Sync>;
type RowExpr = Box<dyn Fn(&[Value]) -> Value + Sync>;

enum ItemEval {
    Scalar(RowExpr),
    Agg(AggregateFun, RowExpr),
    All(Vec<usize>),
}

fn default_name(expr: &Expr, index: usize) -> String {
    match expr {
        Expr::Column(c) => c.column.clone(),
        _ => format!("expr{index}"),
    }
}

/// Resolves a column reference against a bound schema.
fn resolve(schema: &BoundSchema, col: &ColumnRef) -> Result<usize, SqlError> {
    let matches: Vec<usize> = schema
        .iter()
        .enumerate()
        .filter(|(_, (alias, name))| {
            name == &col.column && col.table.as_ref().is_none_or(|t| t == alias)
        })
        .map(|(i, _)| i)
        .collect();
    match matches.as_slice() {
        [i] => Ok(*i),
        [] => Err(SqlError::UnknownColumn {
            name: format_col(col),
            offset: col.offset,
        }),
        _ => Err(SqlError::UnknownColumn {
            name: format!("{} (ambiguous)", format_col(col)),
            offset: col.offset,
        }),
    }
}

fn format_col(col: &ColumnRef) -> String {
    match &col.table {
        Some(t) => format!("{t}.{}", col.column),
        None => col.column.clone(),
    }
}

/// Compiles a scalar expression to a closure over joined rows.
fn compile_expr(expr: &Expr, schema: &BoundSchema) -> Result<RowExpr, SqlError> {
    Ok(match expr {
        Expr::Column(c) => {
            let idx = resolve(schema, c)?;
            Box::new(move |row| row[idx])
        }
        Expr::Literal(v) => {
            // Integral literals stay integers so ids/geodesic numbers keep
            // their type through INSERT ... SELECT '1' (Fig. 9c).
            let value = if v.fract() == 0.0 && v.abs() < 9e15 {
                Value::Int(*v as i64)
            } else {
                Value::Float(*v)
            };
            Box::new(move |_| value)
        }
        Expr::Binary(lhs, op, rhs) => {
            let l = compile_expr(lhs, schema)?;
            let r = compile_expr(rhs, schema)?;
            let op = *op;
            Box::new(move |row| {
                let a = l(row);
                let b = r(row);
                // Integer arithmetic when both sides are integers (except
                // division) and the result fits; float otherwise.
                let int = match (a, b, op) {
                    (Value::Int(x), Value::Int(y), '+') => x.checked_add(y),
                    (Value::Int(x), Value::Int(y), '-') => x.checked_sub(y),
                    (Value::Int(x), Value::Int(y), '*') => x.checked_mul(y),
                    _ => None,
                };
                if let Some(i) = int {
                    return Value::Int(i);
                }
                match (a, b, op) {
                    (a, b, '+') => Value::Float(a.as_float() + b.as_float()),
                    (a, b, '-') => Value::Float(a.as_float() - b.as_float()),
                    (a, b, '*') => Value::Float(a.as_float() * b.as_float()),
                    (a, b, '/') => Value::Float(a.as_float() / b.as_float()),
                    _ => unreachable!("parser only emits + - * /"),
                }
            })
        }
        Expr::Abs(e) => {
            let e = compile_expr(e, schema)?;
            Box::new(move |row| match e(row) {
                Value::Int(i) => i
                    .checked_abs()
                    .map_or(Value::Float((i as f64).abs()), Value::Int),
                Value::Float(f) => Value::Float(f.abs()),
            })
        }
    })
}

/// A FROM source's scanned rows, or a materialized join prefix.
enum RowSet<'a> {
    /// A catalog table's rows by borrow, or a pushed-down scan's
    /// survivors.
    Rows(Cow<'a, [Vec<Value>]>),
    /// A join prefix: `rows` rows of `width` values each, row-major.
    Flat {
        data: Vec<Value>,
        width: usize,
        rows: usize,
    },
}

impl RowSet<'_> {
    fn len(&self) -> usize {
        match self {
            RowSet::Rows(r) => r.len(),
            RowSet::Flat { rows, .. } => *rows,
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[Value] {
        match self {
            RowSet::Rows(r) => &r[i],
            RowSet::Flat { data, width, .. } => &data[i * width..(i + 1) * width],
        }
    }
}

/// One hash join of a left and a right row set on canonical keys. The
/// index is built on the smaller side; the other side probes in row
/// order, and each probe row meets its matches in ascending build order.
/// With no keys the join is the cross product, left-major.
struct HashJoin<'j, 'a> {
    left: &'j RowSet<'a>,
    right: &'j RowSet<'a>,
    probe_keys: &'j [usize],
    /// `None` for the cross product.
    index: Option<KeyIndex>,
    /// Whether the index is on `right` (always, for the cross product).
    built_on_right: bool,
}

impl<'j, 'a> HashJoin<'j, 'a> {
    fn new(
        left: &'j RowSet<'a>,
        right: &'j RowSet<'a>,
        left_keys: &'j [usize],
        right_keys: &'j [usize],
    ) -> Self {
        let built_on_right = left_keys.is_empty() || right.len() <= left.len();
        let (build, build_keys, probe_keys) = if built_on_right {
            (right, right_keys, left_keys)
        } else {
            (left, left_keys, right_keys)
        };
        let index = (!left_keys.is_empty())
            .then(|| KeyIndex::build(build.len(), |i| Key::of(build.row(i), build_keys)));
        HashJoin {
            left,
            right,
            probe_keys,
            index,
            built_on_right,
        }
    }

    /// Calls `emit(left row, right row)` for every output row, in probe
    /// order.
    fn for_each(&self, mut emit: impl FnMut(&[Value], &[Value])) {
        let Some(index) = &self.index else {
            for i in 0..self.left.len() {
                let l = self.left.row(i);
                for j in 0..self.right.len() {
                    emit(l, self.right.row(j));
                }
            }
            return;
        };
        if self.built_on_right {
            for i in 0..self.left.len() {
                let p = self.left.row(i);
                for &b in index.get(&Key::of(p, self.probe_keys)) {
                    emit(p, self.right.row(b as usize));
                }
            }
        } else {
            for i in 0..self.right.len() {
                let p = self.right.row(i);
                for &b in index.get(&Key::of(p, self.probe_keys)) {
                    emit(self.left.row(b as usize), p);
                }
            }
        }
    }

    /// The joined rows in one flat buffer (layout `left ++ right`).
    /// `bound_hint` (the planner's pessimistic output bound) sizes the
    /// reservation, tightened by the degree bound (probe rows × the
    /// largest bucket) and capped so a bad bound cannot pre-allocate
    /// unbounded memory.
    fn materialize(self, width: usize, bound_hint: usize) -> RowSet<'static> {
        let degree_bound = match &self.index {
            None => self.left.len().saturating_mul(self.right.len()),
            Some(index) => {
                let probe = if self.built_on_right {
                    self.left
                } else {
                    self.right
                };
                probe.len().saturating_mul(index.max_bucket())
            }
        };
        let reserve = bound_hint.min(degree_bound).saturating_mul(width);
        let mut data = Vec::with_capacity(reserve.min(1 << 20));
        let mut rows = 0;
        self.for_each(|l, r| {
            data.extend_from_slice(l);
            data.extend_from_slice(r);
            rows += 1;
        });
        RowSet::Flat { data, width, rows }
    }
}

/// Where the rows of the last join, or of a lone scan, go: through the
/// residual filters into the root consumer.
struct Sink {
    filters: Vec<RowPredicate>,
    /// Rows pushed in.
    streamed: usize,
    /// Rows that passed the filters.
    passed: usize,
    root: Root,
}

impl Sink {
    #[inline]
    fn push(&mut self, row: &[Value]) {
        self.streamed += 1;
        if self.filters.iter().all(|f| f(row)) {
            self.passed += 1;
            self.root.push(row);
        }
    }
}

/// The root consumer: a projection appending to the result, or a
/// streaming `GROUP BY`.
enum Root {
    Project {
        evals: Vec<ItemEval>,
        rows: Vec<Vec<Value>>,
    },
    Group(Grouping),
}

impl Root {
    #[inline]
    fn push(&mut self, row: &[Value]) {
        match self {
            Root::Project { evals, rows } => {
                let mut out = Vec::with_capacity(evals.len());
                for ev in evals.iter() {
                    match ev {
                        ItemEval::Scalar(f) => out.push(f(row)),
                        ItemEval::All(positions) => out.extend(positions.iter().map(|&i| row[i])),
                        ItemEval::Agg(..) => unreachable!("plain projection"),
                    }
                }
                rows.push(out);
            }
            Root::Group(g) => g.push(row),
        }
    }

    fn finish(self, out_name: &str, names: &[String]) -> Table {
        let rows = match self {
            Root::Project { rows, .. } => rows,
            Root::Group(g) => g.finish(),
        };
        Table::from_rows(out_name, names.to_vec(), rows)
    }
}

/// Streaming `GROUP BY`: a row finds its group by key; a new group
/// evaluates every item on that first row, and each later row folds every
/// aggregate in arrival order. Aggregate-only queries over zero rows
/// produce zero rows.
struct Grouping {
    key_cols: Vec<usize>,
    /// Scalar and aggregate items (no wildcard).
    evals: Vec<ItemEval>,
    /// Group key → group number.
    groups: KeyMap<u32>,
    /// Group `g`'s output row is `cells[g·m..(g + 1)·m]`, `m` =
    /// `evals.len()`.
    cells: Vec<Value>,
}

impl Grouping {
    #[inline]
    fn push(&mut self, row: &[Value]) {
        let fresh = u32::try_from(self.groups.len()).expect("fewer than 2^32 groups");
        let g = *self
            .groups
            .entry(Key::of(row, &self.key_cols))
            .or_insert(fresh);
        if g == fresh {
            self.cells.extend(self.evals.iter().map(|ev| match ev {
                ItemEval::Scalar(f) => f(row),
                ItemEval::Agg(AggregateFun::Sum, f) => Value::Float(f(row).as_float()),
                ItemEval::Agg(_, f) => f(row),
                ItemEval::All(_) => unreachable!("rejected at compile time"),
            }));
            return;
        }
        let m = self.evals.len();
        let cells = &mut self.cells[g as usize * m..(g as usize + 1) * m];
        for (cell, ev) in cells.iter_mut().zip(&self.evals) {
            let ItemEval::Agg(fun, f) = ev else {
                continue;
            };
            let v = f(row);
            let replace = match fun {
                AggregateFun::Sum => {
                    *cell = Value::Float(cell.as_float() + v.as_float());
                    continue;
                }
                AggregateFun::Min => numeric_cmp(v, *cell) == Some(Ordering::Less),
                AggregateFun::Max => numeric_cmp(v, *cell) == Some(Ordering::Greater),
            };
            if replace {
                *cell = v;
            }
        }
    }

    /// The group rows in ascending key order.
    fn finish(self) -> Vec<Vec<Value>> {
        let m = self.evals.len();
        let mut order: Vec<(Key, u32)> = self.groups.into_iter().collect();
        order.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        order
            .into_iter()
            .map(|(_, g)| self.cells[g as usize * m..(g as usize + 1) * m].to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_edges() -> Database {
        let mut db = Database::new();
        let mut a = Table::new("A", &["s", "t", "w"]);
        for (s, t, w) in [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 2.0), (2, 1, 2.0)] {
            a.push(vec![Value::Int(s), Value::Int(t), Value::Float(w)]);
        }
        db.insert_table("A", a);
        let mut e = Table::new("E", &["v", "c", "b"]);
        e.push(vec![Value::Int(0), Value::Int(0), Value::Float(0.1)]);
        e.push(vec![Value::Int(0), Value::Int(1), Value::Float(-0.1)]);
        db.insert_table("E", e);
        db
    }

    /// Sorted row multiset (canonical f64 bits) for order-insensitive
    /// comparison.
    fn sorted_rows(t: &Table) -> Vec<Vec<u64>> {
        let mut rows: Vec<Vec<u64>> = t
            .rows()
            .iter()
            .map(|r| r.iter().map(|v| v.as_float().to_bits()).collect())
            .collect();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn select_filter_project() {
        let mut db = db_with_edges();
        let r = db
            .execute("select s, w * 2 as w2 from A where s = 1")
            .unwrap()
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.columns(), &["s".to_string(), "w2".to_string()]);
        assert_eq!(r.rows()[0][1], Value::Float(2.0));
    }

    #[test]
    fn join_via_where_equality() {
        let mut db = db_with_edges();
        let r = db
            .execute("select A.t, E.b from A, E where A.s = E.v")
            .unwrap()
            .unwrap();
        // E has node 0 only; A rows with s = 0: (0,1). Two E rows (classes).
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows()[0][0], Value::Int(1));
    }

    #[test]
    fn explicit_join_on_syntax_matches_comma_join() {
        let mut db = db_with_edges();
        let comma = db
            .execute("select A.t, E.b from A, E where A.s = E.v")
            .unwrap()
            .unwrap();
        let joined = db
            .execute("select A.t, E.b from A join E on A.s = E.v")
            .unwrap()
            .unwrap();
        assert_eq!(sorted_rows(&joined), sorted_rows(&comma));
    }

    #[test]
    fn cross_product_without_bridge() {
        let mut db = db_with_edges();
        let r = db.execute("select A.s, E.c from A, E").unwrap().unwrap();
        assert_eq!(r.len(), 4 * 2);
    }

    #[test]
    fn group_by_sum_matches_engine() {
        let mut db = db_with_edges();
        let r = db
            .execute("select s, sum(w * w) as d from A group by s")
            .unwrap()
            .unwrap();
        assert_eq!(r.len(), 3);
        // Node 1 has edges of weight 1 and 2 → d = 5.
        let d1 = r.rows().iter().find(|row| row[0] == Value::Int(1)).unwrap()[1];
        assert_eq!(d1, Value::Float(5.0));
    }

    /// Fig. 9a end-to-end: CREATE TABLE H2 AS the Ĥ² self-join.
    #[test]
    fn fig9a_h_squared() {
        let mut db = Database::new();
        let mut h = Table::new("H", &["c1", "c2", "h"]);
        let vals = [[0.2, -0.1], [-0.1, 0.2]];
        for (i, row) in vals.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                h.push(vec![
                    Value::Int(i as i64),
                    Value::Int(j as i64),
                    Value::Float(v),
                ]);
            }
        }
        db.insert_table("H", h);
        db.execute(
            "create table H2 as select H1.c1, H2.c2, sum(H1.h*H2.h) as h \
             from H H1, H H2 where H1.c2 = H2.c1 group by H1.c1, H2.c2",
        )
        .unwrap();
        let h2 = db.table("H2").unwrap();
        assert_eq!(h2.len(), 4);
        // (Ĥ²)(0,0) = 0.2·0.2 + (−0.1)·(−0.1) = 0.05.
        let v00 = h2
            .rows()
            .iter()
            .find(|r| r[0] == Value::Int(0) && r[1] == Value::Int(0))
            .unwrap()[2];
        assert!((v00.as_float() - 0.05).abs() < 1e-12);
    }

    /// Fig. 9b end-to-end: top-belief assignment via FROM-subquery.
    #[test]
    fn fig9b_top_beliefs() {
        let mut db = Database::new();
        let mut b = Table::new("B", &["v", "c", "b"]);
        for (v, c, val) in [(0, 0, 0.4), (0, 1, -0.4), (1, 0, -0.2), (1, 1, 0.2)] {
            b.push(vec![Value::Int(v), Value::Int(c), Value::Float(val)]);
        }
        db.insert_table("B", b);
        let top = db
            .execute(
                "select B.v, B.c from B, \
                 (select B2.v, max(B2.b) as b from B B2 group by B2.v) as X \
                 where B.v = X.v and B.b = X.b",
            )
            .unwrap()
            .unwrap();
        assert_eq!(top.len(), 2);
        let classes: HashMap<i64, i64> = top
            .rows()
            .iter()
            .map(|r| (r[0].as_int(), r[1].as_int()))
            .collect();
        assert_eq!(classes[&0], 0);
        assert_eq!(classes[&1], 1);
    }

    /// Fig. 9c end-to-end: the BFS step with NOT IN.
    #[test]
    fn fig9c_bfs_step() {
        let mut db = db_with_edges();
        let mut g = Table::new("G", &["v", "g"]);
        g.push(vec![Value::Int(0), Value::Int(0)]);
        db.insert_table("G", g);
        db.execute(
            "insert into G (select A.t, '1' from G, A where G.v = A.s and G.g = '0' \
             and A.t not in (select G.v from G))",
        )
        .unwrap();
        let g = db.table("G").unwrap();
        assert_eq!(g.len(), 2);
        assert!(g
            .rows()
            .iter()
            .any(|r| r[0] == Value::Int(1) && r[1] == Value::Int(1)));
    }

    /// Fig. 9d end-to-end: the upsert as DELETE + INSERT.
    #[test]
    fn fig9d_upsert() {
        let mut db = Database::new();
        let mut b = Table::new("B", &["v", "c", "b"]);
        b.push(vec![Value::Int(0), Value::Int(0), Value::Float(1.0)]);
        b.push(vec![Value::Int(1), Value::Int(0), Value::Float(2.0)]);
        db.insert_table("B", b);
        let mut bn = Table::new("Bn", &["v", "c", "b"]);
        bn.push(vec![Value::Int(1), Value::Int(0), Value::Float(9.0)]);
        db.insert_table("Bn", bn);
        db.execute_script(
            "delete from B where v in (select Bn.v from Bn); insert into B select * from Bn;",
        )
        .unwrap();
        let b = db.table("B").unwrap();
        assert_eq!(b.len(), 2);
        let v1 = b.rows().iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(v1[2], Value::Float(9.0));
    }

    #[test]
    fn error_paths() {
        let mut db = db_with_edges();
        assert!(matches!(
            db.execute("select x from A"),
            Err(SqlError::UnknownColumn { .. })
        ));
        assert!(matches!(
            db.execute("select s from Nope"),
            Err(SqlError::UnknownTable(_))
        ));
        assert!(matches!(
            db.execute("create table A as select s from A"),
            Err(SqlError::TableExists(_))
        ));
        assert!(matches!(
            db.execute("insert into E select s from A"),
            Err(SqlError::ArityMismatch { .. })
        ));
        assert!(matches!(
            db.execute("drop table Nope"),
            Err(SqlError::UnknownTable(_))
        ));
        // Ambiguous unqualified column across a self-join.
        assert!(matches!(
            db.execute("select s from A A1, A A2 where A1.s = A2.t"),
            Err(SqlError::UnknownColumn { .. })
        ));
    }

    /// A bad column in any clause is a typed error carrying the byte
    /// offset of the reference — never a panic (`Table::col` is not on
    /// the query path).
    #[test]
    fn unknown_column_carries_byte_offset() {
        let mut db = db_with_edges();
        let sql = "select s from A where A.nope = 1";
        let err = db.execute(sql).unwrap_err();
        let SqlError::UnknownColumn { name, offset } = err else {
            panic!("{err:?}")
        };
        assert_eq!(name, "A.nope");
        assert_eq!(offset, Some(sql.find("A.nope").unwrap()));
        assert_eq!(
            SqlError::UnknownColumn {
                name: "A.nope".into(),
                offset: Some(22)
            }
            .to_string(),
            "unknown or ambiguous column A.nope at byte 22"
        );
        // GROUP BY and EXPLAIN paths are typed too.
        assert!(matches!(
            db.execute("select sum(w) from A group by zz"),
            Err(SqlError::UnknownColumn { .. })
        ));
        assert!(matches!(
            db.explain("explain select zz from A"),
            Err(SqlError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn integer_literal_typing() {
        let mut db = db_with_edges();
        let r = db
            .execute("select s, '1' from A where s = 0")
            .unwrap()
            .unwrap();
        assert_eq!(r.rows()[0][1], Value::Int(1));
        let r2 = db
            .execute("select 1.5 from A where s = 0")
            .unwrap()
            .unwrap();
        assert_eq!(r2.rows()[0][0], Value::Float(1.5));
    }

    /// `SELECT expr FROM T` over the one row `T(x, y)`.
    fn eval(x: Value, y: Value, expr: &str) -> Value {
        let mut t = Table::new("T", &["x", "y"]);
        t.push(vec![x, y]);
        let mut db = Database::new();
        db.insert_table("T", t);
        let sql = format!("select {expr} from T");
        db.execute(&sql).unwrap().unwrap().rows()[0][0]
    }

    /// Integer `+` stays an integer while it fits and falls back to the
    /// float sum when it overflows (it used to wrap, or panic in debug
    /// builds). `−` and `*` below likewise.
    #[test]
    fn int_add_overflow_falls_back_to_float() {
        let (max, one) = (Value::Int(i64::MAX), Value::Int(1));
        assert_eq!(eval(max, one, "x + y"), Value::Float(i64::MAX as f64 + 1.0));
        assert_eq!(eval(max, one, "x + (0 - y)"), Value::Int(i64::MAX - 1));
    }

    #[test]
    fn int_sub_overflow_falls_back_to_float() {
        let (min, one) = (Value::Int(i64::MIN), Value::Int(1));
        assert_eq!(eval(min, one, "x - y"), Value::Float(i64::MIN as f64 - 1.0));
        assert_eq!(eval(min, one, "y - x"), Value::Float(1.0 - i64::MIN as f64));
        assert_eq!(eval(min, one, "0 - y"), Value::Int(-1));
    }

    /// `9·10¹² · 9·10¹²` is the float `8.1·10²⁵`, not the wrapped
    /// `−3715796041627336704`.
    #[test]
    fn int_mul_overflow_falls_back_to_float() {
        let (x, three) = (Value::Int(9_000_000_000_000), Value::Int(3));
        assert_eq!(
            eval(x, three, "x * 9000000000000"),
            Value::Float(9e12 * 9e12)
        );
        assert_eq!(eval(x, three, "x * y"), Value::Int(27_000_000_000_000));
    }

    /// `ABS` keeps integers integral (`i64::MIN` has no `i64` absolute
    /// value: it becomes the float 2⁶³) and clears a float's sign.
    #[test]
    fn abs_of_ints_and_floats() {
        let (x, y) = (Value::Int(-3), Value::Float(-2.5));
        assert_eq!(eval(x, y, "abs(x)"), Value::Int(3));
        assert_eq!(eval(x, y, "abs(x * y)"), Value::Float(7.5));
        let (min, zero) = (Value::Int(i64::MIN), Value::Float(-0.0));
        assert_eq!(eval(min, zero, "abs(x)"), Value::Float(2f64.powi(63)));
        assert_eq!(eval(min, zero, "abs(y)").as_float().to_bits(), 0);
    }

    /// A database with a hub-skewed 3-way chain where the fixed
    /// left-to-right order explodes quadratically.
    fn skewed_chain_db(n: i64, hub: i64) -> Database {
        let mut db = Database::new();
        let mut r = Table::new("R", &["k", "p"]);
        let mut s = Table::new("S", &["k", "j"]);
        let mut sel = Table::new("Sel", &["j"]);
        for i in 0..n {
            let k = if i < hub { 0 } else { i };
            r.push(vec![Value::Int(k), Value::Int(i)]);
            // Hub rows of S get j values outside Sel's range.
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

    /// The planner must defer the hub join (R ⋈ S on k) until after the
    /// selective S ⋈ Sel join — the bound-minimal order on a workload
    /// where the FROM order is asymptotically worse — while producing
    /// exactly the row multiset of a naive nested-index join.
    #[test]
    fn planner_picks_bound_minimal_order_on_skewed_chain() {
        let db = skewed_chain_db(400, 80);
        let sql = "select R.p, Sel.j from R, S, Sel where R.k = S.k and S.j = Sel.j";
        let Statement::Select(sel) = parse(sql).unwrap() else {
            panic!()
        };
        let (planned, plan, actuals) = db.run_select_planned(&sel, "result").unwrap();
        // Chosen join order: R (the hub side) last.
        assert_eq!(
            plan.scan_order().last().unwrap(),
            "R",
            "{:?}",
            plan.scan_order()
        );
        // Bounds are honest: every actual ≤ its node's bound.
        fn check(node: &PlanNode, actuals: &[NodeActual]) {
            if let Some(rows) = actuals[node.id()].rows {
                assert!(
                    rows as f64 <= node.bound() + 0.5,
                    "node {} actual {} exceeds bound {}",
                    node.id(),
                    rows,
                    node.bound()
                );
            }
            match node {
                PlanNode::HashJoin { left, right, .. } => {
                    check(left, actuals);
                    check(right, actuals);
                }
                PlanNode::Filter { input, .. }
                | PlanNode::Aggregate { input, .. }
                | PlanNode::Project { input, .. } => check(input, actuals),
                PlanNode::Scan { .. } => {}
            }
        }
        check(&plan.root, &actuals);
        // Identical content to a naive join in FROM order, written out.
        let ints = |t: &str| -> Vec<Vec<i64>> {
            let rows = db.table(t).unwrap().rows();
            rows.iter()
                .map(|r| r.iter().map(|v| v.as_int()).collect())
                .collect()
        };
        let (r, s, sel_t) = (ints("R"), ints("S"), ints("Sel"));
        let mut expect: Vec<Vec<u64>> = Vec::new();
        for rr in &r {
            for ss in s.iter().filter(|ss| ss[0] == rr[0]) {
                for tt in sel_t.iter().filter(|tt| tt[0] == ss[1]) {
                    expect.push(vec![(rr[1] as f64).to_bits(), (tt[0] as f64).to_bits()]);
                }
            }
        }
        expect.sort_unstable();
        assert_eq!(sorted_rows(&planned), expect);
    }

    /// Keys and comparisons are exact: integers never round through
    /// `f64`, and `−0.0` = `0.0`. Before the canonical key, `R.k = S.k`
    /// joined 2⁵³ to 2⁵³ + 1 but not `−0.0` to `0.0`, `GROUP BY k` merged
    /// 2⁵³ and 2⁵³ + 1 but split the zeros, and `IN` matched 2⁵³ against
    /// {2⁵³ + 1}.
    #[test]
    fn keys_compare_integers_exactly_and_zeros_equal() {
        const BIG: i64 = 1 << 53;
        let mut db = Database::new();
        let mut r = Table::new("R", &["k", "v"]);
        r.push(vec![Value::Int(BIG), Value::Int(1)]);
        r.push(vec![Value::Float(-0.0), Value::Int(2)]);
        let mut s = Table::new("S", &["k", "v"]);
        s.push(vec![Value::Int(BIG + 1), Value::Int(10)]);
        s.push(vec![Value::Float(0.0), Value::Int(20)]);
        db.insert_table("R", r);
        db.insert_table("S", s);

        let joined = db
            .execute("select R.v, S.v from R, S where R.k = S.k")
            .unwrap()
            .unwrap();
        assert_eq!(joined.rows(), &[vec![Value::Int(2), Value::Int(20)]]);

        db.execute("create table U as select k, v from R").unwrap();
        db.execute("insert into U select k, v from S").unwrap();
        let groups = db
            .execute("select k, sum(v) as t from U group by k")
            .unwrap()
            .unwrap();
        // Ascending numeric key order; the zero group keeps its first
        // row's key value (R's −0.0).
        let got: Vec<(f64, f64)> = groups
            .rows()
            .iter()
            .map(|r| (r[0].as_float(), r[1].as_float()))
            .collect();
        assert_eq!(
            got,
            vec![(0.0, 22.0), (BIG as f64, 1.0), ((BIG + 1) as f64, 10.0)]
        );
        assert_eq!(
            groups.rows()[0][0].as_float().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(groups.rows()[1][0], Value::Int(BIG));
        assert_eq!(groups.rows()[2][0], Value::Int(BIG + 1));

        let hits = db
            .execute("select R.v from R where R.k in (select S.k from S)")
            .unwrap()
            .unwrap();
        assert_eq!(hits.rows(), &[vec![Value::Int(2)]]);
        let misses = db
            .execute("select R.v from R where R.k not in (select S.k from S)")
            .unwrap()
            .unwrap();
        assert_eq!(misses.rows(), &[vec![Value::Int(1)]]);

        // Int-vs-Int comparisons are exact too, and an integral float
        // still equals its integer.
        let mut c = Table::new("C", &["a", "b"]);
        c.push(vec![Value::Int(BIG), Value::Int(BIG + 1)]);
        c.push(vec![Value::Int(3), Value::Float(3.0)]);
        db.insert_table("C", c);
        let lt = db.execute("select a from C where a < b").unwrap().unwrap();
        assert_eq!(lt.rows(), &[vec![Value::Int(BIG)]]);
        let eq = db.execute("select a from C where a = b").unwrap().unwrap();
        assert_eq!(eq.rows(), &[vec![Value::Int(3)]]);
    }

    /// EXPLAIN round-trips through the parser and prints the chosen join
    /// order with a pessimistic bound and actual cardinality per node.
    #[test]
    fn explain_renders_bounds_and_actuals() {
        let db = skewed_chain_db(400, 80);
        let text = db
            .explain("explain select R.p, Sel.j from R, S, Sel where R.k = S.k and S.j = Sel.j")
            .unwrap();
        assert!(text.contains("Project"), "{text}");
        assert!(text.contains("HashJoin on"), "{text}");
        assert!(text.contains("Scan R"), "{text}");
        assert!(text.contains("bound<="), "{text}");
        assert!(text.contains("actual="), "{text}");
        assert!(text.contains("build="), "{text}");
        // The scan order in the rendering puts the hub table R last: its
        // Scan line is the deepest-indented one.
        let r_line = text.lines().find(|l| l.contains("Scan R")).unwrap();
        let sel_line = text.lines().find(|l| l.contains("Scan Sel")).unwrap();
        let indent = |l: &str| l.len() - l.trim_start().len();
        assert!(indent(r_line) < indent(sel_line), "{text}");
        // `EXPLAIN SELECT …` also executes through the statement path.
        let mut db = db;
        let result = db
            .execute("explain select R.p from R where R.k = 0")
            .unwrap()
            .unwrap();
        assert_eq!(result.len(), 80);
    }

    /// Pushed-down scans run under the configured parallelism with
    /// results identical to serial execution.
    #[test]
    fn parallel_scans_match_serial() {
        let sql = "select R.p, Sel.j from R, S, Sel where R.k = S.k and S.j = Sel.j \
                   and R.p > 3 and S.j < 40";
        let serial = {
            let cfg = ParallelismConfig::with_threads(1);
            let mut db = skewed_chain_db(300, 60).with_parallelism(cfg);
            db.execute(sql).unwrap().unwrap()
        };
        for threads in [2usize, 4] {
            let cfg = ParallelismConfig::with_threads(threads).with_min_work(1);
            let mut db = skewed_chain_db(300, 60).with_parallelism(cfg);
            let par = db.execute(sql).unwrap().unwrap();
            assert_eq!(par, serial, "threads = {threads}");
        }
    }
}
