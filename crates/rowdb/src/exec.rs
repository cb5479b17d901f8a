//! Row-at-a-time execution of bound plans — the PostgreSQL-style baseline.
//!
//! Every operator processes one `Vec<Value>` row at a time through the
//! shared tree-walking evaluator (no vectorized fast paths, no columnar
//! gathers). The planner mirrors PostgreSQL's choices, in FROM order: hash
//! joins for equality conjuncts, and — when indexes exist (the paper's
//! "MobilityDB with indexes" scenario) — index scans for single-table
//! predicates and GiST-style index nested-loop joins for spatiotemporal
//! join predicates like Q10's `t2.Trip && expandSpace(t1.trip::STBOX, 3.0)`.
//!
//! The conjunct bookkeeping (local predicates, equality keys, covered and
//! leftover conjuncts) and the row tail (HAVING, projection, DISTINCT,
//! ORDER BY, OFFSET/LIMIT) are `mduck_sql::plan`, shared with quackdb.
//! This module owns the physical plan: FROM-order joins, pushdown into
//! base tables only, the index choices, and row-at-a-time execution —
//! which is what keeps it an independent oracle (DESIGN.md §12).

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use mduck_obs::QueryProgress;
use mduck_sql::eval::{eval, OuterStack, SubqueryExec};
use mduck_sql::index::probe_column;
use mduck_sql::introspect::Introspection;
use mduck_sql::plan::{index_literal, series, JoinConjuncts, RowTail};
use mduck_sql::{BoundExpr, BoundFrom, BoundSelect, ExecGuard, Registry, SqlError, SqlResult, Value};

use crate::catalog::RowCatalog;

type Row = Vec<Value>;

/// Execution context for one statement.
pub struct RowCtx<'a> {
    pub catalog: &'a RowCatalog,
    pub registry: &'a Registry,
    /// The per-statement guard: rows-scanned budget, memory accounting.
    pub guard: &'a ExecGuard,
    /// Live progress of the statement, if the caller registered one.
    pub progress: Option<&'a QueryProgress>,
    pub ctes: RefCell<HashMap<usize, Arc<Vec<Row>>>>,
    pub rows_scanned: RefCell<usize>,
    pub used_index: RefCell<bool>,
}

impl<'a> RowCtx<'a> {
    pub fn new(catalog: &'a RowCatalog, registry: &'a Registry, guard: &'a ExecGuard) -> Self {
        RowCtx {
            catalog,
            registry,
            guard,
            progress: None,
            ctes: RefCell::new(HashMap::new()),
            rows_scanned: RefCell::new(0),
            used_index: RefCell::new(false),
        }
    }

    pub fn with_progress(mut self, progress: Option<&'a QueryProgress>) -> Self {
        self.progress = progress;
        self
    }
}

/// Heap-tuple cost of one materialized row: a `Vec<Value>` header plus the
/// per-value estimates (`Value::approx_bytes`). The row engine charges
/// every row it materializes — scans, join builds/outputs, group states —
/// against the statement's memory scope, so `PRAGMA memory_limit` trips
/// identically to the vectorized engine's allocation-cumulative model.
fn row_bytes(row: &Row) -> u64 {
    24 + row.iter().map(Value::approx_bytes).sum::<u64>()
}

struct RowExecutor<'a, 'b> {
    ctx: &'b RowCtx<'a>,
}

impl SubqueryExec for RowExecutor<'_, '_> {
    fn execute(&self, plan: &BoundSelect, outer: &OuterStack<'_>) -> SqlResult<Vec<Row>> {
        execute_select(self.ctx, plan, outer)
    }
}

/// Tuple deforming + detoasting, as PostgreSQL performs on every heap
/// tuple access: extension values are materialized from their wire format
/// (the varlena/BLOB form MobilityDB stores) before the executor touches
/// them. The columnar engine does not pay this — DuckDB hands the flat
/// in-memory representation straight to MEOS — which is one of the
/// engine-level asymmetries Figure 12 measures.
fn detoast_row(ctx: &RowCtx<'_>, row: &Row) -> SqlResult<Row> {
    let mut out = Vec::with_capacity(row.len());
    for v in row {
        match v {
            Value::Ext(e) => match ctx.registry.ext_codec(e.type_name()) {
                Some(dec) => out.push(dec(&e.obj.to_bytes())?),
                None => out.push(v.clone()),
            },
            other => out.push(other.clone()),
        }
    }
    Ok(out)
}

// ------------------------------------------------------------ planning

/// A relation source with pushed-down predicates.
enum Source {
    /// A base table; `index_probe` is `(column, op, constant, conjunct)`
    /// when the conjunct `column <op> constant` probes its indexes.
    Table {
        name: String,
        filters: Vec<BoundExpr>,
        index_probe: Option<(usize, String, Value, BoundExpr)>,
    },
    Cte { index: usize },
    Subquery { plan: Box<BoundSelect> },
    Series { args: Vec<BoundExpr> },
    /// `mduck_spans()`, `mduck_progress()` or `mduck_query_log()`.
    Introspect(Introspection),
}

/// How the next relation joins onto the accumulated left side.
enum JoinStrategy {
    /// Hash join on equality keys (right keys remapped locally).
    Hash { left_keys: Vec<BoundExpr>, right_keys: Vec<BoundExpr> },
    /// GiST index nested loop: probe the right table's indexes on
    /// `column` with an expression over the left row.
    IndexNl { column: usize, op: String, probe: BoundExpr, original: BoundExpr },
    /// Plain nested loop (cross product).
    Cross,
}

struct JoinStep {
    source: Source,
    strategy: JoinStrategy,
    /// Conjuncts applicable once this relation is joined (global indices).
    post_filters: Vec<BoundExpr>,
}

struct RowPlan {
    first: Source,
    steps: Vec<JoinStep>,
    /// Predicates left for the very top (subquery-bearing etc.).
    remaining: Vec<BoundExpr>,
}

fn plan_rows(ctx: &RowCtx<'_>, plan: &BoundSelect) -> SqlResult<RowPlan> {
    let mut conj = JoinConjuncts::new(plan);

    // Only base tables receive pushdown (their own conjuncts, plus an
    // index probe for one of them); predicates over CTE/subquery/series
    // sources are applied as post-join filters (they stay correct because
    // the accumulated row keeps input column positions).
    let mut sources: Vec<Source> = Vec::with_capacity(plan.from.len());
    for (ri, f) in plan.from.iter().enumerate() {
        sources.push(match f {
            BoundFrom::Table { name, .. } => {
                let mut filters = conj.take_local(ri);
                let t = ctx.catalog.get(name)?;
                let t = t.read();
                let probe = filters.iter().enumerate().find_map(|(pos, c)| {
                    let (col, op, constant) = index_literal(c)?;
                    let indexed = t.indexes.iter().any(|i| i.column() == col);
                    indexed.then(|| (pos, col, op.to_string(), constant.clone()))
                });
                let index_probe = probe
                    .map(|(pos, col, op, constant)| (col, op, constant, filters.remove(pos)));
                Source::Table { name: name.clone(), filters, index_probe }
            }
            BoundFrom::Cte { index, .. } => Source::Cte { index: *index },
            BoundFrom::Subquery { plan, .. } => Source::Subquery { plan: plan.clone() },
            BoundFrom::Series { args, .. } => Source::Series { args: args.clone() },
            BoundFrom::Introspect { function, .. } => Source::Introspect(*function),
        });
    }

    let mut it = sources.into_iter();
    let first = it.next().ok_or_else(|| SqlError::execution("empty FROM"))?;
    let mut steps = Vec::new();
    let mut width = conj.span(0).end;
    for (k, source) in it.enumerate() {
        let span = conj.span(k + 1);
        let index_nl = match &source {
            Source::Table { name, index_probe: None, .. } => {
                index_nl(ctx, &conj, name, width, &span)?
            }
            _ => None,
        };
        let strategy = match index_nl {
            Some((ci, strategy)) => {
                conj.take(ci);
                *ctx.used_index.borrow_mut() = true;
                strategy
            }
            None => match conj.take_keys(0..width, span.clone(), 0) {
                (left_keys, _) if left_keys.is_empty() => JoinStrategy::Cross,
                (left_keys, right_keys) => JoinStrategy::Hash { left_keys, right_keys },
            },
        };
        width = span.end;
        steps.push(JoinStep { source, strategy, post_filters: conj.take_covered(width) });
    }
    Ok(RowPlan { first, steps, remaining: conj.into_remaining() })
}

/// GiST index nested loop onto base table `name` (columns `right`): the
/// first unplaced call, in written order, whose argument over `right` is a
/// column of `name` with an index and whose other argument reads only the
/// tree's columns `0..width`. The indexed column must come first unless
/// the operator commutes (`&&`, `=`). Returns the conjunct and the join.
fn index_nl(
    ctx: &RowCtx<'_>,
    conj: &JoinConjuncts,
    name: &str,
    width: usize,
    right: &Range<usize>,
) -> SqlResult<Option<(usize, JoinStrategy)>> {
    let t = ctx.catalog.get(name)?;
    let t = t.read();
    Ok(conj.links(0..width, right.clone()).find_map(|l| {
        let (BoundExpr::Call { name, .. }, BoundExpr::ColumnRef { index, .. }) = (l.call, l.build)
        else {
            return None;
        };
        let commutes = name == "&&" || name == "=";
        let column = index - right.start;
        let indexed = t.indexes.iter().any(|i| i.column() == column);
        ((l.build_first || commutes) && indexed).then(|| {
            let strategy = JoinStrategy::IndexNl {
                column,
                op: name.clone(),
                probe: l.probe.clone(),
                original: l.call.clone(),
            };
            (l.conjunct, strategy)
        })
    }))
}

/// Render a PostgreSQL-style indented text plan for EXPLAIN.
pub fn explain_select(ctx: &RowCtx<'_>, plan: &BoundSelect) -> SqlResult<String> {
    let mut out = String::new();
    if plan.limit.is_some() || plan.offset.is_some() {
        let mut parts = Vec::new();
        if let Some(l) = plan.limit {
            parts.push(format!("{l} rows"));
        }
        if let Some(o) = plan.offset {
            parts.push(format!("offset {o}"));
        }
        out.push_str(&format!("Limit ({})\n", parts.join(", ")));
    }
    if !plan.order_by.is_empty() {
        out.push_str("Sort\n");
    }
    if plan.distinct {
        out.push_str("Unique\n");
    }
    if plan.aggregated {
        out.push_str(&format!(
            "HashAggregate (groups: {}, aggregates: {})\n",
            plan.group_by.len(),
            plan.aggregates.len()
        ));
    }
    if plan.from.is_empty() {
        out.push_str("Result\n");
        return Ok(out);
    }
    let rp = plan_rows(ctx, plan)?;
    let mut depth = 0usize;
    // Render join steps top-down (last join is outermost).
    for step in rp.steps.iter().rev() {
        let pad = "  ".repeat(depth);
        match &step.strategy {
            JoinStrategy::Hash { left_keys, .. } => {
                out.push_str(&format!("{pad}Hash Join (keys: {})\n", left_keys.len()))
            }
            JoinStrategy::IndexNl { op, .. } => out.push_str(&format!(
                "{pad}Nested Loop (index probe: {op} via GiST)\n"
            )),
            JoinStrategy::Cross => out.push_str(&format!("{pad}Nested Loop\n")),
        }
        depth += 1;
    }
    let pad = "  ".repeat(depth);
    render_source(&mut out, &pad, &rp.first);
    for step in &rp.steps {
        render_source(&mut out, &pad, &step.source);
    }
    Ok(out)
}

fn render_source(out: &mut String, pad: &str, s: &Source) {
    match s {
        Source::Table { name, filters, index_probe } => {
            if let Some((_, op, _, _)) = index_probe {
                out.push_str(&format!("{pad}Index Scan on {name} ({op} probe)\n"));
            } else {
                out.push_str(&format!("{pad}Seq Scan on {name}"));
                if !filters.is_empty() {
                    out.push_str(&format!("  Filter: {} condition(s)", filters.len()));
                }
                out.push('\n');
            }
        }
        Source::Cte { index } => out.push_str(&format!("{pad}CTE Scan (slot {index})\n")),
        Source::Subquery { .. } => out.push_str(&format!("{pad}Subquery Scan\n")),
        Source::Series { .. } => out.push_str(&format!("{pad}Function Scan on generate_series\n")),
        Source::Introspect(function) => {
            out.push_str(&format!("{pad}Function Scan on {}\n", function.name()))
        }
    }
}

// ------------------------------------------------------------ execution

fn scan_source(
    ctx: &RowCtx<'_>,
    source: &Source,
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Row>> {
    let exec = RowExecutor { ctx };
    match source {
        Source::Table { name, filters, index_probe } => {
            let t = ctx.catalog.get(name)?;
            let t = t.read();
            let mut out = Vec::new();
            let candidate_rows: Option<Vec<u64>> = match index_probe {
                Some((column, op, constant, _)) => {
                    let hit = probe_column(&t.indexes, *column, op, constant)?;
                    if hit.is_some() {
                        *ctx.used_index.borrow_mut() = true;
                    }
                    hit
                }
                None => None,
            };
            let mut process = |row: Row| -> SqlResult<()> {
                for f in filters {
                    if !matches!(eval(f, &row, outer, &exec)?, Value::Bool(true)) {
                        return Ok(());
                    }
                }
                ctx.guard.charge_mem(row_bytes(&row))?;
                out.push(row);
                Ok(())
            };
            let candidates;
            match (candidate_rows, index_probe) {
                (Some(mut ids), Some((_, _, _, original))) => {
                    ids.sort_unstable();
                    candidates = ids.len();
                    *ctx.rows_scanned.borrow_mut() += ids.len();
                    ctx.guard.note_scanned(ids.len());
                    let m = mduck_obs::metrics();
                    m.index_probes.inc(1);
                    m.rows_scanned.inc(ids.len() as u64);
                    if let Some(pr) = ctx.progress {
                        pr.add_total(ids.len() as u64);
                    }
                    for id in ids {
                        if let Some(pr) = ctx.progress {
                            pr.add_done(1);
                        }
                        let row = detoast_row(ctx, &t.rows[id as usize])?;
                        // Re-check the indexed predicate (the index may be
                        // lossy) plus residual filters.
                        if !matches!(eval(original, &row, outer, &exec)?, Value::Bool(true)) {
                            continue;
                        }
                        process(row)?;
                    }
                }
                _ => {
                    candidates = t.rows.len();
                    *ctx.rows_scanned.borrow_mut() += t.rows.len();
                    ctx.guard.note_scanned(t.rows.len());
                    let m = mduck_obs::metrics();
                    m.full_scans.inc(1);
                    m.rows_scanned.inc(t.rows.len() as u64);
                    if let Some(pr) = ctx.progress {
                        pr.add_total(t.rows.len() as u64);
                    }
                    for stored in &t.rows {
                        if let Some(pr) = ctx.progress {
                            pr.add_done(1);
                        }
                        let row = detoast_row(ctx, stored)?;
                        if let Some((_, _, _, original)) = index_probe {
                            if !matches!(
                                eval(original, &row, outer, &exec)?,
                                Value::Bool(true)
                            ) {
                                continue;
                            }
                        }
                        process(row)?;
                    }
                }
            }
            mduck_obs::metrics()
                .rows_filtered
                .inc(candidates.saturating_sub(out.len()) as u64);
            Ok(out)
        }
        Source::Cte { index } => {
            let ctes = ctx.ctes.borrow();
            let rows = ctes
                .get(index)
                .ok_or_else(|| SqlError::execution(format!("CTE {index} not materialized")))?;
            Ok((**rows).clone())
        }
        Source::Subquery { plan } => execute_select(ctx, plan, outer),
        Source::Series { args } => {
            Ok(series(args, outer, &exec)?.map(|v| vec![Value::Int(v)]).collect())
        }
        Source::Introspect(function) => Ok(mduck_sql::introspect::rows(*function)),
    }
}

/// Execute a bound SELECT, row at a time.
pub fn execute_select(
    ctx: &RowCtx<'_>,
    plan: &BoundSelect,
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Row>> {
    let exec = RowExecutor { ctx };

    // CTEs first.
    for cte in &plan.ctes {
        let rows = execute_select(ctx, &cte.plan, outer)?;
        ctx.ctes.borrow_mut().insert(cte.index, Arc::new(rows));
    }

    // FROM/WHERE pipeline.
    let mut rows: Vec<Row> = if plan.from.is_empty() {
        vec![Vec::new()]
    } else {
        let rp = plan_rows(ctx, plan)?;
        let mut acc = scan_source(ctx, &rp.first, outer)?;
        for step in &rp.steps {
            acc = match &step.strategy {
                JoinStrategy::Cross => {
                    let right = scan_source(ctx, &step.source, outer)?;
                    let mut out = Vec::new();
                    for l in &acc {
                        for r in &right {
                            let mut row = l.clone();
                            row.extend(r.iter().cloned());
                            ctx.guard.charge_mem(row_bytes(&row))?;
                            out.push(row);
                        }
                    }
                    out
                }
                JoinStrategy::Hash { left_keys, right_keys } => {
                    let right = scan_source(ctx, &step.source, outer)?;
                    let mut table: HashMap<Vec<u8>, Vec<usize>> =
                        HashMap::with_capacity(right.len());
                    'build: for (i, r) in right.iter().enumerate() {
                        let mut key = Vec::new();
                        for k in right_keys {
                            let v = eval(k, r, outer, &exec)?;
                            if v.is_null() {
                                continue 'build;
                            }
                            v.hash_key(&mut key);
                        }
                        // Build-side state: the serialized key plus a
                        // bucket slot per entry.
                        ctx.guard.charge_mem(32 + key.len() as u64)?;
                        table.entry(key).or_default().push(i);
                    }
                    let mut out = Vec::new();
                    'probe: for l in &acc {
                        let mut key = Vec::new();
                        for k in left_keys {
                            let v = eval(k, l, outer, &exec)?;
                            if v.is_null() {
                                continue 'probe;
                            }
                            v.hash_key(&mut key);
                        }
                        if let Some(ms) = table.get(&key) {
                            for &i in ms {
                                let mut row = l.clone();
                                row.extend(right[i].iter().cloned());
                                ctx.guard.charge_mem(row_bytes(&row))?;
                                out.push(row);
                            }
                        }
                    }
                    out
                }
                JoinStrategy::IndexNl { column, op, probe, original } => {
                    let Source::Table { name, filters, .. } = &step.source else {
                        return Err(SqlError::execution("index NL join needs a base table"));
                    };
                    let t = ctx.catalog.get(name)?;
                    let t = t.read();
                    let mut out = Vec::new();
                    for l in &acc {
                        let probe_val = eval(probe, l, outer, &exec)?;
                        if probe_val.is_null() {
                            continue;
                        }
                        let Some(ids) = probe_column(&t.indexes, *column, op, &probe_val)? else {
                            return Err(SqlError::execution(
                                "planned index NL join but no index accepted the probe",
                            ));
                        };
                        *ctx.rows_scanned.borrow_mut() += ids.len();
                        ctx.guard.note_scanned(ids.len());
                        let m = mduck_obs::metrics();
                        m.index_probes.inc(1);
                        m.rows_scanned.inc(ids.len() as u64);
                        'cand: for id in ids {
                            let r = detoast_row(ctx, &t.rows[id as usize])?;
                            for f in filters {
                                if !matches!(eval(f, &r, outer, &exec)?, Value::Bool(true)) {
                                    continue 'cand;
                                }
                            }
                            let mut row = l.clone();
                            row.extend(r.iter().cloned());
                            // Re-check the join predicate exactly.
                            if matches!(eval(original, &row, outer, &exec)?, Value::Bool(true)) {
                                ctx.guard.charge_mem(row_bytes(&row))?;
                                out.push(row);
                            }
                        }
                    }
                    out
                }
            };
            mduck_obs::metrics().rows_joined.inc(acc.len() as u64);
            acc = filter_rows(acc, &step.post_filters, outer, &exec)?;
        }
        filter_rows(acc, &rp.remaining, outer, &exec)?
    };

    // Aggregation, then the shared tail.
    if plan.aggregated {
        rows = aggregate_rows(ctx, plan, rows, outer)?;
    }
    let mut tail = RowTail::new(plan);
    tail.project(plan, rows, outer, &exec)?;
    tail.finish(plan, ctx.guard, outer, &exec, |_, _, _, _| {})
}

/// Keep the rows every predicate holds on, one predicate at a time.
fn filter_rows(
    mut rows: Vec<Row>,
    preds: &[BoundExpr],
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
) -> SqlResult<Vec<Row>> {
    for f in preds {
        let before = rows.len();
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if matches!(eval(f, &row, outer, exec)?, Value::Bool(true)) {
                kept.push(row);
            }
        }
        mduck_obs::metrics().rows_filtered.inc((before - kept.len()) as u64);
        rows = kept;
    }
    Ok(rows)
}

fn aggregate_rows(
    ctx: &RowCtx<'_>,
    plan: &BoundSelect,
    rows: Vec<Row>,
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Row>> {
    let exec = RowExecutor { ctx };
    struct Group {
        keys: Vec<Value>,
        states: Vec<Box<dyn mduck_sql::AggState>>,
        distinct_seen: Vec<Option<std::collections::HashSet<Vec<u8>>>>,
    }
    let mut groups: HashMap<Vec<u8>, Group> = HashMap::new();
    for row in &rows {
        let mut key = Vec::new();
        let mut keys = Vec::with_capacity(plan.group_by.len());
        for g in &plan.group_by {
            let v = eval(g, row, outer, &exec)?;
            v.hash_key(&mut key);
            keys.push(v);
        }
        let group = match groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                // New group: charge the key copies plus a fixed estimate
                // per aggregate state, so unbounded-cardinality GROUP BYs
                // trip `PRAGMA memory_limit` like the vectorized engine.
                ctx.guard.charge_mem(
                    64 + keys.iter().map(Value::approx_bytes).sum::<u64>()
                        + plan.aggregates.len() as u64 * 48,
                )?;
                e.insert(Group {
                    keys,
                    states: plan.aggregates.iter().map(|a| (a.factory)()).collect(),
                    distinct_seen: plan
                        .aggregates
                        .iter()
                        .map(|a| a.distinct.then(std::collections::HashSet::new))
                        .collect(),
                })
            }
        };
        for (ai, agg) in plan.aggregates.iter().enumerate() {
            let mut args = Vec::with_capacity(agg.args.len());
            for a in &agg.args {
                args.push(eval(a, row, outer, &exec)?);
            }
            if let Some(seen) = &mut group.distinct_seen[ai] {
                let mut akey = Vec::new();
                for a in &args {
                    a.hash_key(&mut akey);
                }
                if !seen.insert(akey) {
                    continue;
                }
            }
            group.states[ai].update(&args)?;
        }
    }
    if groups.is_empty() && plan.group_by.is_empty() {
        let mut states: Vec<Box<dyn mduck_sql::AggState>> =
            plan.aggregates.iter().map(|a| (a.factory)()).collect();
        let mut row = Vec::new();
        for s in &mut states {
            row.push(s.finalize()?);
        }
        return Ok(vec![row]);
    }
    let mut out = Vec::with_capacity(groups.len());
    for (_, mut g) in groups {
        let mut row = g.keys;
        for s in &mut g.states {
            row.push(s.finalize()?);
        }
        out.push(row);
    }
    Ok(out)
}
