//! The physical plan ([`PhysOp`]) and vectorized execution of bound
//! SELECT plans.
//!
//! The plan mirrors DuckDB's behaviour the paper relies on:
//! single-relation predicates are pushed below joins and fused into the
//! base-table scan (evaluated on the stored columns, surviving rows
//! materialized late), and — the §4.3 mechanism — a filter of the shape
//! `column && constant` over an indexed column is replaced by an index
//! scan on the registered TRTREE index. The join order and the join tree
//! over it (hash joins, absorbed runs, index joins over transient
//! indexes, their estimates) come from one cost model in
//! [`crate::join_order`] (DESIGN.md §12). The row tail after projection
//! comes from `mduck_sql::plan`, shared with the row engine.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mduck_sql::eval::{NoSubqueries, OuterStack, SubqueryExec};
use mduck_sql::index::probe_column;
use mduck_sql::introspect::Introspection;
use mduck_sql::plan::{series, RowTail};
use mduck_sql::quantified::{decorrelate, reaches_out, QuantifiedSets};
use mduck_sql::{
    BoundExpr, BoundSelect, ExecGuard, LogicalType, Registry, SqlError, SqlResult, Value,
};
use mduck_sync::RwLock;

use crate::catalog::{DbCatalog, Table};
use crate::column::{Chunks, ColumnData, DataChunk, VECTOR_SIZE};
use crate::expr::{eval_vector, filter_chunk};
use crate::index::{IndexTypeRegistry, TableIndex};
use crate::fusion::fuse;
use crate::join_order::{plan_joins, reorder_joins};
use crate::parallel::{contiguous_ranges, morsel_map, ParStats, MIN_PARALLEL_MORSELS};

/// Shared execution context for one statement.
pub struct EngineCtx<'a> {
    pub catalog: &'a DbCatalog,
    pub registry: &'a Registry,
    /// The database's index methods. Locked only by joins that look for
    /// (plan) or build (execute) a transient index.
    pub index_types: &'a RwLock<IndexTypeRegistry>,
    /// Per-statement resource guard: cancellation, deadline, row budget.
    /// Charged at chunk boundaries throughout the executor.
    pub guard: &'a ExecGuard,
    /// Materialized CTEs by global index.
    pub ctes: RefCell<HashMap<usize, Arc<Chunks>>>,
    /// Per-operator/per-stage actuals, populated only under
    /// `EXPLAIN ANALYZE` (see [`EngineCtx::enable_profiling`]).
    pub profile: Option<Profile>,
    /// Worker threads for morsel-driven execution (1 = serial). Set from
    /// the database's `PRAGMA threads` / config knob.
    pub threads: usize,
    /// Live completion estimate for this statement, fed at morsel/chunk
    /// granularity; `None` on paths nobody polls (subordinate executions).
    pub progress: Option<Arc<mduck_obs::QueryProgress>>,
}

/// Actuals recorded for one physical operator across all its executions
/// (a correlated subquery re-runs its operators once per outer row).
#[derive(Debug, Default, Clone)]
pub struct OpProf {
    pub execs: u64,
    /// Inclusive wall time (children's time subtracted at render time).
    pub elapsed_ns: u64,
    pub rows_out: u64,
    pub chunks_out: u64,
    /// Rows read from storage by this operator (scans only).
    pub rows_scanned: u64,
    /// Bytes of buffers this operator materialized (charged against the
    /// statement's memory guard as they were allocated).
    pub mem_bytes: u64,
    /// Index joins only: rows the transient index was built over, left
    /// rows the index answered, and the pairs those answers produced.
    pub build_rows: u64,
    pub probes: u64,
    pub candidates: u64,
}

/// Actuals for one post-join stage (aggregate, projection, order_by, ...)
/// of one [`BoundSelect`].
#[derive(Debug, Default, Clone)]
pub struct StageProf {
    pub execs: u64,
    pub elapsed_ns: u64,
    pub rows_out: u64,
    /// Bytes of buffers this stage materialized (hash-agg group tables,
    /// sort keys).
    pub mem_bytes: u64,
}

/// Actuals of one *parallel* stage, aggregated across workers and (for
/// re-executed subplans) across executions.
#[derive(Debug, Default, Clone)]
pub struct ParProf {
    pub execs: u64,
    /// Maximum worker count observed.
    pub workers: u64,
    /// Summed per-worker busy time across all executions.
    pub busy_ns: u64,
    /// Busy time of the slowest worker of any execution.
    pub max_worker_ns: u64,
    /// Total morsels dispatched.
    pub morsels: u64,
    /// Per-worker morsel counts of the most recent execution.
    pub per_worker: Vec<u64>,
}

/// Profiling sink for `EXPLAIN ANALYZE`. Operators are keyed by node
/// address within the physical tree (stable for the duration of one
/// execution), stages by the owning plan's address plus stage name;
/// parallel actuals share the stage keying (operator address + stage
/// name for tree nodes).
#[derive(Debug, Default)]
pub struct Profile {
    pub ops: RefCell<HashMap<usize, OpProf>>,
    pub stages: RefCell<HashMap<(usize, &'static str), StageProf>>,
    pub parallel: RefCell<HashMap<(usize, &'static str), ParProf>>,
}

/// The opaque profiling key of a physical operator node.
pub fn op_key(op: &PhysOp) -> usize {
    op as *const PhysOp as usize
}

/// The opaque profiling key of a plan's post-join stages.
pub fn plan_key(plan: &BoundSelect) -> usize {
    plan as *const BoundSelect as usize
}

impl<'a> EngineCtx<'a> {
    pub fn new(
        catalog: &'a DbCatalog,
        registry: &'a Registry,
        index_types: &'a RwLock<IndexTypeRegistry>,
        guard: &'a ExecGuard,
    ) -> Self {
        EngineCtx {
            catalog,
            registry,
            index_types,
            guard,
            ctes: RefCell::new(HashMap::new()),
            profile: None,
            threads: 1,
            progress: None,
        }
    }

    /// Builder: set the worker-thread count for this statement.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder: attach a live-progress handle for this statement.
    pub fn with_progress(mut self, progress: Option<Arc<mduck_obs::QueryProgress>>) -> Self {
        self.progress = progress;
        self
    }

    /// Turn on per-operator/per-stage actuals (`EXPLAIN ANALYZE`).
    pub fn enable_profiling(&mut self) {
        self.profile = Some(Profile::default());
    }

    fn record_stage(&self, plan: &BoundSelect, name: &'static str, start: Instant, rows: usize) {
        if let Some(p) = &self.profile {
            let mut stages = p.stages.borrow_mut();
            let e = stages.entry((plan_key(plan), name)).or_default();
            e.execs += 1;
            e.elapsed_ns += start.elapsed().as_nanos() as u64;
            e.rows_out += rows as u64;
        }
    }

    /// Record the worker-pool actuals of one parallel stage execution
    /// under `(plan-or-op key, stage name)`.
    fn record_parallel(&self, key: usize, name: &'static str, stats: &ParStats) {
        if let Some(p) = &self.profile {
            let mut par = p.parallel.borrow_mut();
            let e = par.entry((key, name)).or_default();
            e.execs += 1;
            e.workers = e.workers.max(stats.workers as u64);
            e.busy_ns += stats.busy_ns;
            e.max_worker_ns = e.max_worker_ns.max(stats.max_worker_ns);
            e.morsels += stats.morsels();
            e.per_worker = stats.morsels_per_worker.clone();
        }
    }

    /// Charge materialized bytes to the statement's memory guard and
    /// attribute them to an operator node (under profiling). Fails when
    /// the charge pushes the statement over `PRAGMA memory_limit`.
    fn charge_op_mem(&self, key: usize, bytes: u64) -> SqlResult<()> {
        if bytes == 0 {
            return Ok(());
        }
        let check = self.guard.charge_mem(bytes);
        self.attribute_op_mem(key, bytes);
        check
    }

    /// Attribute bytes to an operator node *without* charging the guard —
    /// used by coordinators for buffers morsel workers already charged
    /// (workers share the guard but cannot touch the `RefCell` profile).
    fn attribute_op_mem(&self, key: usize, bytes: u64) {
        if bytes == 0 {
            return;
        }
        if let Some(p) = &self.profile {
            p.ops.borrow_mut().entry(key).or_default().mem_bytes += bytes;
        }
    }

    /// Profile-only attribution of stage buffers already charged to the
    /// guard (by workers, or by the shared row tail).
    fn attribute_stage_mem(&self, plan: &BoundSelect, name: &'static str, bytes: u64) {
        if bytes == 0 {
            return;
        }
        if let Some(p) = &self.profile {
            p.stages.borrow_mut().entry((plan_key(plan), name)).or_default().mem_bytes += bytes;
        }
    }

    /// Run morsels `0..n` of one stage, handing each output to `sink` in
    /// morsel order: the one place a stage decides whether to fan out.
    ///
    /// With more than one thread, no correlated outer rows, `simple`
    /// expressions (no subqueries) and at least [`MIN_PARALLEL_MORSELS`]
    /// morsels, `work` runs on the worker pool with an empty outer stack
    /// and [`NoSubqueries`], and the outputs reach `sink` once every
    /// morsel is done. Otherwise each morsel runs in turn with the
    /// caller's `outer`/`exec` and goes straight to `sink`, so nothing is
    /// buffered on the way.
    ///
    /// Either way the guard is ticked once per morsel, the statement's
    /// progress counts the morsels, the rows `work` dropped reach the
    /// `rows_filtered` metric, and the bytes it charged to the guard are
    /// returned, for the caller to attribute to its operator or stage; a
    /// fanned-out run records its actuals under `(key, stage)`.
    #[allow(clippy::too_many_arguments)]
    fn morsels<T: Send>(
        &self,
        n: usize,
        key: usize,
        stage: &'static str,
        simple: bool,
        outer: &OuterStack<'_>,
        exec: &dyn SubqueryExec,
        work: impl Fn(usize, &OuterStack<'_>, &dyn SubqueryExec) -> SqlResult<Morsel<T>> + Sync,
        mut sink: impl FnMut(T) -> SqlResult<()>,
    ) -> SqlResult<u64> {
        let (guard, progress) = (self.guard, self.progress.as_deref());
        if let Some(pr) = progress {
            pr.add_total(n as u64);
        }
        let run = |i: usize, outer: &OuterStack<'_>, exec: &dyn SubqueryExec| {
            guard.tick()?;
            let morsel = work(i, outer, exec)?;
            if let Some(pr) = progress {
                pr.add_done(1);
            }
            Ok(morsel)
        };
        let (mut bytes, mut dropped) = (0u64, 0u64);
        let mut take = |m: Morsel<T>| {
            bytes += m.bytes;
            dropped += m.dropped;
            sink(m.out)
        };
        if self.threads > 1 && outer.is_empty() && simple && n >= MIN_PARALLEL_MORSELS {
            let (outs, stats) =
                morsel_map(self.threads, n, |i| run(i, &OuterStack::EMPTY, &NoSubqueries))?;
            self.record_parallel(key, stage, &stats);
            outs.into_iter().try_for_each(&mut take)?;
        } else {
            for i in 0..n {
                take(run(i, outer, exec)?)?;
            }
        }
        mduck_obs::metrics().rows_filtered.inc(dropped);
        Ok(bytes)
    }
}

/// What one morsel produced, and what [`EngineCtx::morsels`] accounts
/// for it.
struct Morsel<T> {
    out: T,
    /// Bytes the morsel materialized, already charged to the guard.
    bytes: u64,
    /// Rows its predicates dropped.
    dropped: u64,
}

impl<T> Morsel<T> {
    fn new(out: T) -> Self {
        Morsel { out, bytes: 0, dropped: 0 }
    }
}

/// Runs the subqueries of the expressions one operator or one SELECT
/// block evaluates.
struct PlanExecutor<'a, 'b> {
    ctx: &'b EngineCtx<'a>,
    /// Decorrelated `op ALL/ANY` subqueries, by the address of the
    /// subquery plan (alive, so unique, while this executor is): their
    /// per-key summaries, or `None` when they run per row.
    quantified: RefCell<HashMap<usize, Option<QuantifiedSets>>>,
    /// The rows of the expression subqueries that read no outer row,
    /// keyed the same way.
    uncorrelated: RefCell<HashMap<usize, Vec<Vec<Value>>>>,
}

impl<'a, 'b> PlanExecutor<'a, 'b> {
    fn new(ctx: &'b EngineCtx<'a>) -> Self {
        PlanExecutor { ctx, quantified: RefCell::default(), uncorrelated: RefCell::default() }
    }

    /// Run `plan` as a subquery. Correlated subqueries re-enter the
    /// executor once per outer row; the guard bounds both the depth and
    /// (via tick) the wall clock.
    fn run(&self, plan: &BoundSelect, outer: &OuterStack<'_>) -> SqlResult<Vec<Vec<Value>>> {
        self.ctx.guard.enter_subquery()?;
        let r = execute_select(self.ctx, plan, outer);
        self.ctx.guard.exit_subquery();
        r
    }
}

impl SubqueryExec for PlanExecutor<'_, '_> {
    /// A subquery that reads no outer row returns the same rows for every
    /// row, so it runs once per block execution; a failed run is not kept.
    fn execute(&self, plan: &BoundSelect, outer: &OuterStack<'_>) -> SqlResult<Vec<Vec<Value>>> {
        let key = plan as *const BoundSelect as usize;
        if let Some(rows) = self.uncorrelated.borrow().get(&key) {
            return Ok(rows.clone());
        }
        let rows = self.run(plan, outer)?;
        if !reaches_out(plan, 0) {
            self.uncorrelated.borrow_mut().insert(key, rows.clone());
        }
        Ok(rows)
    }

    /// `x op ALL/ANY (subquery)` in a block that runs once per statement
    /// (no outer rows, so the CTEs it may read cannot change): the
    /// subquery runs once, decorrelated, and its per-key summaries answer
    /// every row. A subquery that cannot be decorrelated, or whose
    /// decorrelated run fails, runs per row as written, so it fails
    /// exactly where it failed before.
    fn quantified(
        &self,
        quantified: &BoundExpr,
        left: &Value,
        row: &[Value],
        outer: &OuterStack<'_>,
    ) -> Option<SqlResult<Value>> {
        let BoundExpr::Quantified { op, all, left: left_expr, plan } = quantified else {
            return None;
        };
        if !outer.is_empty() {
            return None;
        }
        let key = &**plan as *const BoundSelect as usize;
        if !self.quantified.borrow().contains_key(&key) {
            let sets = decorrelate(*op, left_expr, plan).and_then(|d| {
                let rows = self.run(&d.plan, &OuterStack::EMPTY).ok()?;
                Some(QuantifiedSets::new(rows, d.outer_keys))
            });
            self.quantified.borrow_mut().insert(key, sets);
        }
        let cache = self.quantified.borrow();
        let sets = cache.get(&key)?.as_ref()?;
        Some(Ok(sets.answer(*op, *all, left, row)))
    }
}

// ------------------------------------------------------------ physical plan

/// Conjuncts fused into a base-table scan, over the table's columns.
///
/// They run in written order, each on the rows that passed the ones
/// before it — a later conjunct never sees (and never errors on) a row an
/// earlier one dropped. Each conjunct reads only its own columns: the scan
/// copies those, for the current survivors, into a small predicate chunk
/// and evaluates the conjunct there.
#[derive(Debug, Clone, Default)]
pub struct ScanFilters {
    /// The conjuncts as written (table column numbering).
    pub conjuncts: Vec<BoundExpr>,
    /// Per conjunct: the table columns it reads (ascending), and the
    /// conjunct rewritten so predicate-chunk column `i` is table column
    /// `columns[i]`.
    dense: Vec<(Vec<usize>, BoundExpr)>,
}

impl ScanFilters {
    pub fn new(conjuncts: Vec<BoundExpr>) -> Self {
        let dense = conjuncts
            .iter()
            .map(|c| {
                let mut columns = Vec::new();
                c.collect_columns(&mut columns);
                columns.sort_unstable();
                columns.dedup();
                let dense = c.map_columns(&|i| columns.partition_point(|&x| x < i));
                (columns, dense)
            })
            .collect();
        ScanFilters { conjuncts, dense }
    }

    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }
}

/// The join/scan tree (everything above it — aggregation, projection,
/// ordering — is driven directly from the [`BoundSelect`]).
#[derive(Debug, Clone)]
pub enum PhysOp {
    /// Full scan of a base table with its pushed-down conjuncts fused in.
    SeqScan {
        table: String,
        filters: ScanFilters,
    },
    /// §4.3 index-scan injection: `column <op> constant` answered by the
    /// indexes on table column `column` (`index` names the first), then
    /// the relation's other conjuncts (`filters`) over the candidates.
    /// When they decline at run time the table is scanned with
    /// `fallback`: the indexed predicate followed by `filters`.
    IndexScan {
        table: String,
        index: String,
        column: usize,
        op: String,
        constant: Value,
        filters: ScanFilters,
        fallback: ScanFilters,
    },
    CteScan {
        index: usize,
        name: String,
    },
    SubqueryScan {
        plan: Box<BoundSelect>,
        types: Vec<LogicalType>,
    },
    Series {
        args: Vec<BoundExpr>,
    },
    /// `mduck_spans()`, `mduck_progress()` or `mduck_query_log()`: a
    /// snapshot of what the function reports.
    Introspect {
        function: Introspection,
        types: Vec<LogicalType>,
    },
    /// A predicate over a join result or a non-table relation (base
    /// tables fuse theirs into the scan). `est` is the planner's row
    /// estimate (`None` over a relation of unknown size), as on the joins.
    Filter {
        pred: BoundExpr,
        child: Box<PhysOp>,
        est: Option<f64>,
    },
    HashJoin {
        left: Box<PhysOp>,
        right: Box<PhysOp>,
        left_keys: Vec<BoundExpr>,
        /// Remapped to the right child's local column space.
        right_keys: Vec<BoundExpr>,
        est: Option<f64>,
    },
    CrossJoin {
        left: Box<PhysOp>,
        right: Box<PhysOp>,
        est: Option<f64>,
    },
    /// A cross product whose link conjunct `cond` picks the pairs worth
    /// checking: `build` (over the right child) is indexed through the
    /// index method named, and `probe` (over the left child) looks each
    /// left row up with `&&`. Every left row is paired with its candidates
    /// in ascending right-row order (DESIGN.md §12).
    IndexJoin {
        left: Box<PhysOp>,
        right: Box<PhysOp>,
        method: String,
        probe: BoundExpr,
        build: BoundExpr,
        cond: BoundExpr,
        /// `Some` when the join owns `cond`, a strict `&&`, which the
        /// index answers exactly, so no Filter above re-checks it.
        /// `None` for a `@>`/`<@` link, which its Filter above
        /// re-checks.
        folded: Option<Fold>,
        est: Option<f64>,
    },
}

/// What an index join that owns its `&&` link runs besides the index,
/// in the order the Filters of the cross product would have.
#[derive(Debug, Clone)]
pub struct Fold {
    /// The conjuncts the Filters above apply ahead of the link. Only the
    /// pairs of a probe the index could not answer run them, then the
    /// link.
    pub before: Vec<BoundExpr>,
    /// The strict `&&` conjuncts the Filters would apply right after the
    /// link, when nothing comes before it: every pair runs them, and
    /// they get no Filter either.
    pub after: Vec<BoundExpr>,
}

impl PhysOp {
    /// The planner's row estimate of a join or Filter.
    pub fn est(&self) -> Option<f64> {
        match self {
            PhysOp::Filter { est, .. }
            | PhysOp::HashJoin { est, .. }
            | PhysOp::CrossJoin { est, .. }
            | PhysOp::IndexJoin { est, .. } => *est,
            _ => None,
        }
    }
}

/// A SELECT's physical plan, made once before execution: the join tree
/// and the predicates left above it (`None` for a FROM-less SELECT), and
/// the plan of each CTE body in declaration order. The trees live for the
/// whole statement, so `EXPLAIN ANALYZE` renders exactly the nodes whose
/// actuals were recorded.
#[derive(Debug)]
pub struct PlannedSelect {
    pub tree: Option<(PhysOp, Vec<BoundExpr>)>,
    pub ctes: Vec<PlannedSelect>,
}

/// Fuse the expressions of `plan` (the fusion pass), put the FROM items
/// of every block in join order (the join-order pass), then plan its join
/// tree (none for a FROM-less SELECT) and, recursively, its CTE bodies.
pub fn plan_select(ctx: &EngineCtx<'_>, plan: &mut BoundSelect) -> SqlResult<PlannedSelect> {
    fuse(ctx.registry, plan);
    reorder_joins(ctx, plan)?;
    plan_trees(ctx, plan)
}

fn plan_trees(ctx: &EngineCtx<'_>, plan: &BoundSelect) -> SqlResult<PlannedSelect> {
    let tree = if plan.from.is_empty() { None } else { Some(plan_joins(ctx, plan)?) };
    let ctes = plan.ctes.iter().map(|c| plan_trees(ctx, &c.plan)).collect::<SqlResult<_>>()?;
    Ok(PlannedSelect { tree, ctes })
}

/// Stable snake_case operator name (span labels, bench breakdowns).
pub fn op_name(op: &PhysOp) -> &'static str {
    match op {
        PhysOp::SeqScan { .. } => "seq_scan",
        PhysOp::IndexScan { .. } => "index_scan",
        PhysOp::CteScan { .. } => "cte_scan",
        PhysOp::SubqueryScan { .. } => "subquery_scan",
        PhysOp::Series { .. } => "generate_series",
        PhysOp::Introspect { function, .. } => match function {
            Introspection::Spans => "spans_scan",
            Introspection::Progress => "progress_scan",
            Introspection::QueryLog => "query_log_scan",
        },
        PhysOp::Filter { .. } => "filter",
        PhysOp::HashJoin { .. } => "hash_join",
        PhysOp::CrossJoin { .. } => "cross_product",
        PhysOp::IndexJoin { .. } => "index_join",
    }
}

// ------------------------------------------------------------ execution

/// Execute a physical tree, producing chunks.
///
/// This is a thin observability wrapper around `run_op`: it bumps the
/// global chunk counter and, under `EXPLAIN ANALYZE`, records per-node
/// actuals (inclusive wall time, output rows/chunks) and a tracing span.
pub fn execute_op(
    ctx: &EngineCtx<'_>,
    op: &PhysOp,
    outer: &OuterStack<'_>,
) -> SqlResult<Chunks> {
    // Operator spans only under profiling: a correlated subquery re-runs
    // its tree per outer row and would otherwise flood the span ring.
    let _span = ctx
        .profile
        .as_ref()
        .map(|_| mduck_obs::span(format!("vecdb.op.{}", op_name(op))));
    let start = Instant::now();
    let result = run_op(ctx, op, outer);
    if let Ok(chunks) = &result {
        mduck_obs::metrics().chunks_produced.inc(chunks.chunks.len() as u64);
        if let Some(p) = &ctx.profile {
            let mut ops = p.ops.borrow_mut();
            let e = ops.entry(op_key(op)).or_default();
            e.execs += 1;
            e.elapsed_ns += start.elapsed().as_nanos() as u64;
            e.rows_out += chunks.row_count() as u64;
            e.chunks_out += chunks.chunks.len() as u64;
        }
    }
    result
}

/// Charge `n` scanned rows to the guard, the global metric, and (under
/// profiling) the scan node itself.
fn note_scanned(ctx: &EngineCtx<'_>, op: &PhysOp, n: usize) -> SqlResult<()> {
    ctx.guard.check_rows(n)?;
    ctx.guard.note_scanned(n);
    mduck_obs::metrics().rows_scanned.inc(n as u64);
    if let Some(p) = &ctx.profile {
        p.ops.borrow_mut().entry(op_key(op)).or_default().rows_scanned += n as u64;
    }
    Ok(())
}

fn run_op(
    ctx: &EngineCtx<'_>,
    op: &PhysOp,
    outer: &OuterStack<'_>,
) -> SqlResult<Chunks> {
    let exec = PlanExecutor::new(ctx);
    match op {
        PhysOp::SeqScan { table, filters } => {
            let t = ctx.catalog.get(table)?;
            let t = t.read();
            scan_table(ctx, op, &t, ScanRows::All, filters, outer, &exec)
        }
        PhysOp::IndexScan { table, column, op: iop, constant, filters, fallback, .. } => {
            let t = ctx.catalog.get(table)?;
            let t = t.read();
            match probe_column(&t.indexes, *column, iop, constant)? {
                Some(rows) => {
                    let mut rows: Vec<usize> = rows.into_iter().map(|r| r as usize).collect();
                    rows.sort_unstable();
                    mduck_obs::metrics().index_probes.inc(1);
                    scan_table(ctx, op, &t, ScanRows::Ids(&rows), filters, outer, &exec)
                }
                // Index declined: the same fused scan over the whole table,
                // with the indexed predicate as the first conjunct.
                None => scan_table(ctx, op, &t, ScanRows::All, fallback, outer, &exec),
            }
        }
        PhysOp::CteScan { index, .. } => {
            let ctes = ctx.ctes.borrow();
            let mat = ctes
                .get(index)
                .ok_or_else(|| SqlError::execution(format!("CTE {index} not materialized")))?;
            let out = (**mat).clone();
            drop(ctes);
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::SubqueryScan { plan, types } => {
            let rows = execute_select(ctx, plan, outer)?;
            let out = Chunks::from_rows(types, &rows)?;
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::Series { args } => {
            let mut out = Chunks::default();
            let mut chunk = DataChunk::new(&[LogicalType::Int]);
            for v in series(args, outer, &exec)? {
                chunk.push_row(&[Value::Int(v)])?;
                if chunk.len >= VECTOR_SIZE {
                    ctx.guard.check_rows(chunk.len)?;
                    out.chunks
                        .push(std::mem::replace(&mut chunk, DataChunk::new(&[LogicalType::Int])));
                }
            }
            if chunk.len > 0 {
                ctx.guard.check_rows(chunk.len)?;
                out.chunks.push(chunk);
            }
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::Introspect { function, types } => {
            let rows = mduck_sql::introspect::rows(*function);
            ctx.guard.check_rows(rows.len())?;
            let out = Chunks::from_rows(types, &rows)?;
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::Filter { pred, child, .. } => {
            let input = execute_op(ctx, child, outer)?;
            let (out, bytes) = filter_chunks(ctx, input, pred, outer, &exec, op_key(op))?;
            ctx.attribute_op_mem(op_key(op), bytes);
            Ok(out)
        }
        PhysOp::CrossJoin { left, right, .. } => {
            let l = execute_op(ctx, left, outer)?;
            let r = execute_op(ctx, right, outer)?;
            pair_join(ctx, &l, &r, JoinKind::Cross, outer, &exec, op_key(op))
        }
        PhysOp::HashJoin { left, right, left_keys, right_keys, .. } => {
            let l = execute_op(ctx, left, outer)?;
            let r = execute_op(ctx, right, outer)?;
            let kind = JoinKind::Hash(left_keys, right_keys);
            pair_join(ctx, &l, &r, kind, outer, &exec, op_key(op))
        }
        PhysOp::IndexJoin { left, right, method, probe, build, cond, folded, .. } => {
            let l = execute_op(ctx, left, outer)?;
            let r = execute_op(ctx, right, outer)?;
            let (recheck, after) = match folded {
                Some(fold) => (fold.before.iter().chain([cond]).collect(), &fold.after[..]),
                None => (Vec::new(), &[][..]),
            };
            let link = IndexLink { method, probe, build, recheck: &recheck, after };
            pair_join(ctx, &l, &r, JoinKind::Index(link), outer, &exec, op_key(op))
        }
    }
}

/// The table rows a scan visits: all of them, or an index's candidates
/// (ascending row ids).
#[derive(Clone, Copy)]
enum ScanRows<'r> {
    All,
    Ids(&'r [usize]),
}

impl<'r> ScanRows<'r> {
    fn len(self, table: &Table) -> usize {
        match self {
            ScanRows::All => table.row_count(),
            ScanRows::Ids(ids) => ids.len(),
        }
    }

    /// The `w`-th [`VECTOR_SIZE`] window of these rows.
    fn window(self, table: &Table, w: usize) -> Window<'r> {
        let start = w * VECTOR_SIZE;
        let len = VECTOR_SIZE.min(self.len(table) - start);
        match self {
            ScanRows::All => Window::Range { start, len },
            ScanRows::Ids(ids) => Window::Ids(&ids[start..start + len]),
        }
    }
}

/// One scan window: a contiguous row range (copied as slices) or a run
/// of index candidates (gathered).
enum Window<'r> {
    Range { start: usize, len: usize },
    Ids(&'r [usize]),
}

impl Window<'_> {
    fn len(&self) -> usize {
        match self {
            Window::Range { len, .. } => *len,
            Window::Ids(ids) => ids.len(),
        }
    }

    /// The table row id of the window's `j`-th row.
    fn row(&self, j: usize) -> usize {
        match self {
            Window::Range { start, .. } => start + j,
            Window::Ids(ids) => ids[j],
        }
    }

    /// The window's rows of one column.
    fn column(&self, col: &ColumnData) -> ColumnData {
        match self {
            Window::Range { start, len } => col.slice(*start, *len),
            Window::Ids(ids) => col.gather(ids),
        }
    }
}

/// Scan `rows` of `table` with `filters` fused in, one [`VECTOR_SIZE`]
/// window per morsel.
///
/// Every visited row is charged to the row budget and the scan
/// statistics up front, as an unfiltered scan would; only the predicate
/// columns and the survivors are copied, and only those are charged to
/// the memory guard — window by window, so `PRAGMA memory_limit` trips
/// mid-scan.
fn scan_table(
    ctx: &EngineCtx<'_>,
    op: &PhysOp,
    table: &Table,
    rows: ScanRows<'_>,
    filters: &ScanFilters,
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
) -> SqlResult<Chunks> {
    let visited = rows.len(table);
    if let ScanRows::All = rows {
        mduck_obs::metrics().full_scans.inc(1);
    }
    note_scanned(ctx, op, visited)?;
    let guard = ctx.guard;
    let mut out = Chunks::default();
    // Fused conjuncts are simple: the planner keeps subquery predicates
    // above the joins.
    let bytes = ctx.morsels(
        visited.div_ceil(VECTOR_SIZE),
        op_key(op),
        "scan",
        true,
        outer,
        exec,
        |w, outer, exec| {
            let window = scan_window(table, rows, w, filters, outer, exec)?;
            guard.charge_mem(window.bytes)?;
            Ok(window)
        },
        |chunk| {
            out.chunks.extend(chunk);
            Ok(())
        },
    )?;
    ctx.attribute_op_mem(op_key(op), bytes);
    Ok(out)
}

/// Window `w` of a fused scan: evaluate each conjunct on its own columns
/// for the rows still alive, then gather the survivors of every column.
/// Its bytes are the predicate chunks plus the surviving rows.
fn scan_window(
    table: &Table,
    rows: ScanRows<'_>,
    w: usize,
    filters: &ScanFilters,
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
) -> SqlResult<Morsel<Option<DataChunk>>> {
    let window = rows.window(table, w);
    let mut bytes = 0u64;
    // Surviving table row ids; `None` while every row of the window is
    // still alive (the window is then copied whole, not gathered).
    let mut alive: Option<Vec<usize>> = None;
    for (columns, conjunct) in &filters.dense {
        let pred = DataChunk::from_columns(
            columns
                .iter()
                .map(|&c| match &alive {
                    Some(ids) => table.columns[c].gather(ids),
                    None => window.column(&table.columns[c]),
                })
                .collect(),
        );
        bytes += pred.approx_bytes();
        let pass = filter_chunk(conjunct, &pred, outer, exec)?;
        if pass.len() == pred.len {
            continue;
        }
        let next: Vec<usize> = match &alive {
            Some(ids) => pass.iter().map(|&j| ids[j]).collect(),
            None => pass.iter().map(|&j| window.row(j)).collect(),
        };
        let done = next.is_empty();
        alive = Some(next);
        if done {
            break;
        }
    }
    let chunk = match alive {
        Some(ids) if ids.is_empty() => None,
        Some(ids) => Some(table.gather_rows(&ids)),
        None => Some(DataChunk::from_columns(
            table.columns.iter().map(|c| window.column(c)).collect(),
        )),
    };
    let kept = chunk.as_ref().map_or(0, |c| c.len);
    bytes += chunk.as_ref().map_or(0, DataChunk::approx_bytes);
    Ok(Morsel { out: chunk, bytes, dropped: (window.len() - kept) as u64 })
}

/// Apply `pred` across all chunks, one chunk per morsel. `key` names the
/// owning operator or plan for parallel actuals. A chunk every row of
/// which passes moves to the output as it is; only partly kept chunks
/// are copied, and charged to the memory guard as they are made. Returns
/// the output and the bytes copied, for the owner to attribute.
fn filter_chunks(
    ctx: &EngineCtx<'_>,
    input: Chunks,
    pred: &BoundExpr,
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
    key: usize,
) -> SqlResult<(Chunks, u64)> {
    let guard = ctx.guard;
    let chunks = &input.chunks;
    let mut kept = Vec::with_capacity(chunks.len());
    let bytes = ctx.morsels(
        chunks.len(),
        key,
        "filter",
        !pred.is_complex(),
        outer,
        exec,
        |i, outer, exec| {
            let chunk = &chunks[i];
            let sel = filter_chunk(pred, chunk, outer, exec)?;
            let dropped = (chunk.len - sel.len()) as u64;
            if sel.len() == chunk.len {
                return Ok(Morsel { out: Kept::All, bytes: 0, dropped });
            }
            if sel.is_empty() {
                return Ok(Morsel { out: Kept::None, bytes: 0, dropped });
            }
            let part = chunk.select(&sel);
            let bytes = part.approx_bytes();
            guard.charge_mem(bytes)?;
            Ok(Morsel { out: Kept::Part(part), bytes, dropped })
        },
        |k| {
            kept.push(k);
            Ok(())
        },
    )?;
    let mut out = Chunks::default();
    for (chunk, kept) in input.chunks.into_iter().zip(kept) {
        match kept {
            Kept::All => out.chunks.push(chunk),
            Kept::None => {}
            Kept::Part(part) => out.chunks.push(part),
        }
    }
    Ok((out, bytes))
}

/// What a Filter keeps of one chunk.
enum Kept {
    All,
    None,
    Part(DataChunk),
}

/// Flatten chunks into one big chunk (join build sides).
fn flatten(chunks: &Chunks, types: Vec<LogicalType>) -> SqlResult<DataChunk> {
    let mut cols: Vec<ColumnData> = types.iter().map(ColumnData::new).collect();
    for chunk in &chunks.chunks {
        for (dst, src) in cols.iter_mut().zip(&chunk.columns) {
            dst.extend_from(src, 0, chunk.len)?;
        }
    }
    Ok(DataChunk::from_columns(cols))
}

fn chunk_types(chunks: &Chunks) -> Vec<LogicalType> {
    chunks
        .chunks
        .first()
        .map(|c| c.columns.iter().map(|col| col.ty.clone()).collect())
        .unwrap_or_default()
}

fn combine(l: &DataChunk, lsel: &[usize], r: &DataChunk, rsel: &[usize]) -> DataChunk {
    let mut cols = Vec::with_capacity(l.columns.len() + r.columns.len());
    for c in &l.columns {
        cols.push(c.gather(lsel));
    }
    for c in &r.columns {
        cols.push(c.gather(rsel));
    }
    DataChunk::from_columns(cols)
}

/// What one left chunk of a join produced.
#[derive(Default)]
struct PairPart {
    chunks: Vec<DataChunk>,
    /// Left rows whose candidates came from the index or hash table (the
    /// rest paired with every right row).
    probes: u64,
    /// Pairs emitted.
    pairs: u64,
}

/// How a join pairs its left rows with its right rows.
#[derive(Clone, Copy)]
enum JoinKind<'a> {
    /// The cross product.
    Cross,
    /// An index join ([`PhysOp::IndexJoin`]).
    Index(IndexLink<'a>),
    /// A hash join on `(left keys, right keys)`.
    Hash(&'a [BoundExpr], &'a [BoundExpr]),
}

/// What an index join probes and re-checks with (see [`PhysOp::IndexJoin`]).
#[derive(Clone, Copy)]
struct IndexLink<'a> {
    method: &'a str,
    probe: &'a BoundExpr,
    build: &'a BoundExpr,
    /// The conjuncts the pairs of an unanswered probe must pass, in
    /// order; empty when a Filter above re-checks the link.
    recheck: &'a [&'a BoundExpr],
    /// The conjuncts every pair must pass then ([`Fold::after`]).
    after: &'a [BoundExpr],
}

/// Join `l` with `r`, one left chunk per morsel. Pairs come out in
/// cross-product order: left rows in order, each with its right rows in
/// ascending order — every right row (the cross product), the hits of a
/// transient index over the `build` expression of an index join
/// (evaluated once per right row, indexed through its method) for the
/// `probe` expression, or the right rows a hash join's keys match. A
/// NULL probe or key pairs with none. A probe the index cannot answer
/// (declined, errored, a probe chunk that fails to evaluate, a build side
/// that fails to index) pairs with every right row, as the cross product
/// does, and those pairs run `recheck` (DESIGN.md §12). A key that fails
/// to evaluate fails the join.
fn pair_join(
    ctx: &EngineCtx<'_>,
    l: &Chunks,
    r: &Chunks,
    kind: JoinKind<'_>,
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
    key: usize,
) -> SqlResult<Chunks> {
    if l.row_count() == 0 || r.row_count() == 0 {
        return Ok(Chunks::default());
    }
    let rflat = flatten(r, chunk_types(r))?;
    // The flattened right side is a fresh buffer; output chunks are
    // charged as they are produced so a runaway product trips the memory
    // limit (or the row budget, whichever is tighter) mid-flight.
    ctx.charge_op_mem(key, rflat.approx_bytes())?;
    let m = mduck_obs::metrics();
    let (index, table);
    let (candidates, recheck, after) = match kind {
        JoinKind::Cross => (Candidates::All, &[][..], &[][..]),
        JoinKind::Index(link) => {
            index = build_index(ctx, link.method, link.build, &rflat, outer, exec);
            let candidates = match &index {
                Some(index) => {
                    m.index_join_builds.inc(1);
                    Candidates::Index(&**index, link.probe)
                }
                None => Candidates::All,
            };
            (candidates, link.recheck, link.after)
        }
        JoinKind::Hash(left_keys, right_keys) => {
            table = build_hash(ctx, right_keys, &rflat, outer, exec, key)?;
            (Candidates::Hash(&table, left_keys), &[][..], &[][..])
        }
    };
    let all: Vec<usize> = (0..rflat.len).collect();
    let pairs = Pairs { guard: ctx.guard, rflat: &rflat, all: &all, candidates, recheck, after };
    let mut out = Chunks::default();
    let (mut probes, mut emitted) = (0u64, 0u64);
    // The probe, the keys and the re-checked conjuncts are simple: the
    // planner places only conjuncts without subqueries.
    let bytes = ctx.morsels(
        l.chunks.len(),
        key,
        "pairs",
        true,
        outer,
        exec,
        |i, outer, exec| pairs.chunk(&l.chunks[i], outer, exec),
        |part| {
            probes += part.probes;
            emitted += part.pairs;
            out.chunks.extend(part.chunks);
            Ok(())
        },
    )?;
    ctx.attribute_op_mem(key, bytes);
    m.rows_joined.inc(emitted);
    if let JoinKind::Index(_) = kind {
        m.index_join_candidates.inc(emitted);
        if let Some(p) = &ctx.profile {
            let mut ops = p.ops.borrow_mut();
            let e = ops.entry(key).or_default();
            e.build_rows += rflat.len as u64;
            e.probes += probes;
            e.candidates += emitted;
        }
    }
    Ok(out)
}

/// Index the right rows' `build` values through `method`, row id = right
/// row number. `None` when the values cannot be computed or indexed: the
/// join then pairs every left row with every right row and re-checks
/// them, exactly as the cross product and its Filters do.
fn build_index(
    ctx: &EngineCtx<'_>,
    method: &str,
    build: &BoundExpr,
    rflat: &DataChunk,
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
) -> Option<Box<dyn TableIndex>> {
    let index_type = ctx.index_types.read().get(method)?;
    let values = eval_vector(build, rflat, outer, exec).ok()?;
    let values: Vec<Value> = (0..values.len()).map(|i| values.get(i)).collect();
    index_type.create("index_join", 0, &build.ty(), &values).ok()
}

/// The right row numbers of each key of `right_keys` over `rflat`, in
/// ascending order; rows with a NULL key are left out. A rough
/// per-entry estimate for the table is charged up front.
fn build_hash(
    ctx: &EngineCtx<'_>,
    right_keys: &[BoundExpr],
    rflat: &DataChunk,
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
    key_op: usize,
) -> SqlResult<HashMap<Vec<u8>, Vec<usize>>> {
    ctx.charge_op_mem(key_op, rflat.len as u64 * 48)?;
    let key_cols: Vec<ColumnData> = right_keys
        .iter()
        .map(|k| eval_vector(k, rflat, outer, exec))
        .collect::<SqlResult<_>>()?;
    let mut table: HashMap<Vec<u8>, Vec<usize>> = HashMap::with_capacity(rflat.len);
    let mut key = Vec::new();
    for i in 0..rflat.len {
        if hash_key(&key_cols, i, &mut key) {
            table.entry(key.clone()).or_default().push(i);
        }
    }
    Ok(table)
}

/// Write row `i`'s key over `cols` into `key`; false when a key value is
/// NULL (the row matches nothing).
fn hash_key(cols: &[ColumnData], i: usize, key: &mut Vec<u8>) -> bool {
    key.clear();
    for c in cols {
        let v = c.get(i);
        if v.is_null() {
            return false;
        }
        v.hash_key(key);
    }
    true
}

/// Where the right rows a left row pairs with come from.
#[derive(Clone, Copy)]
enum Candidates<'a> {
    /// Every right row.
    All,
    /// The index's hits for the left row's `probe` value.
    Index(&'a dyn TableIndex, &'a BoundExpr),
    /// The hash table's rows for the left row's key.
    Hash(&'a HashMap<Vec<u8>, Vec<usize>>, &'a [BoundExpr]),
}

impl<'a> Candidates<'a> {
    /// One left chunk's probe values: the index probe or the hash keys;
    /// `None` when every row pairs with every right row.
    fn probe(
        self,
        lchunk: &DataChunk,
        outer: &OuterStack<'_>,
        exec: &dyn SubqueryExec,
    ) -> SqlResult<Option<Vec<ColumnData>>> {
        Ok(match self {
            Candidates::All => None,
            // A chunk whose probe values cannot be computed pairs every
            // row with every right row; the re-check then meets the same
            // error, if any, the cross product would have.
            Candidates::Index(_, probe) => {
                eval_vector(probe, lchunk, outer, exec).ok().map(|values| vec![values])
            }
            Candidates::Hash(_, keys) => Some(
                keys.iter().map(|k| eval_vector(k, lchunk, outer, exec)).collect::<SqlResult<_>>()?,
            ),
        })
    }

    /// Left row `li`'s candidates, ascending, from its probe values
    /// `cols`; `None` when the index cannot answer.
    fn hits(self, cols: &[ColumnData], li: usize, key: &mut Vec<u8>) -> Option<Cow<'a, [usize]>> {
        match self {
            Candidates::All => None,
            Candidates::Index(index, _) => {
                let v = cols[0].get(li);
                if v.is_null() {
                    return Some(Cow::Borrowed(&[]));
                }
                let Ok(Some(ids)) = index.try_scan("&&", &v) else { return None };
                let mut ids: Vec<usize> = ids.into_iter().map(|r| r as usize).collect();
                ids.sort_unstable();
                Some(Cow::Owned(ids))
            }
            Candidates::Hash(table, _) => {
                if !hash_key(cols, li, key) {
                    return Some(Cow::Borrowed(&[]));
                }
                Some(Cow::Borrowed(table.get(key).map_or(&[][..], Vec::as_slice)))
            }
        }
    }
}

/// What pairing one left chunk reads besides the chunk: the flattened
/// right side, where each left row's candidates come from, and the
/// conjuncts the pairs run ([`IndexLink`]).
struct Pairs<'a> {
    guard: &'a ExecGuard,
    rflat: &'a DataChunk,
    /// Every right row number.
    all: &'a [usize],
    candidates: Candidates<'a>,
    recheck: &'a [&'a BoundExpr],
    after: &'a [BoundExpr],
}

/// Pairs selected from one left chunk, not yet emitted.
#[derive(Default)]
struct Selection {
    lsel: Vec<usize>,
    rsel: Vec<usize>,
    /// Positions in `lsel`/`rsel` of the pairs that must pass `recheck`.
    unchecked: Vec<usize>,
}

impl Pairs<'_> {
    /// Pair every row of `lchunk` with its candidates, emitting the pairs
    /// in [`VECTOR_SIZE`] chunks charged to the row budget and memory
    /// guard.
    fn chunk(
        &self,
        lchunk: &DataChunk,
        outer: &OuterStack<'_>,
        exec: &dyn SubqueryExec,
    ) -> SqlResult<Morsel<PairPart>> {
        let mut part = Morsel::new(PairPart::default());
        let probed = self.candidates.probe(lchunk, outer, exec)?;
        let mut sel = Selection::default();
        let mut key = Vec::new();
        for li in 0..lchunk.len {
            let hits = probed.as_ref().and_then(|cols| self.candidates.hits(cols, li, &mut key));
            if hits.is_some() {
                part.out.probes += 1;
            }
            let check = hits.is_none() && !self.recheck.is_empty();
            for &ri in hits.as_deref().unwrap_or(self.all) {
                if check {
                    sel.unchecked.push(sel.lsel.len());
                }
                sel.lsel.push(li);
                sel.rsel.push(ri);
                if sel.lsel.len() >= VECTOR_SIZE {
                    self.emit(&mut part, lchunk, &mut sel, outer, exec)?;
                }
            }
        }
        if !sel.lsel.is_empty() {
            self.emit(&mut part, lchunk, &mut sel, outer, exec)?;
        }
        Ok(part)
    }

    /// Materialize the selected pairs as one output chunk, keeping those
    /// to re-check only if they pass, then only those passing `after`,
    /// and clear the selection.
    fn emit(
        &self,
        part: &mut Morsel<PairPart>,
        lchunk: &DataChunk,
        sel: &mut Selection,
        outer: &OuterStack<'_>,
        exec: &dyn SubqueryExec,
    ) -> SqlResult<()> {
        self.guard.check_rows(sel.lsel.len())?;
        let mut chunk = combine(lchunk, &sel.lsel, self.rflat, &sel.rsel);
        self.guard.charge_mem(chunk.approx_bytes())?;
        if !sel.unchecked.is_empty() {
            chunk = self.recheck_pairs(chunk, &sel.unchecked, outer, exec)?;
        }
        for pred in self.after {
            if chunk.len == 0 {
                break;
            }
            let pass = filter_chunk(pred, &chunk, outer, exec)?;
            if pass.len() < chunk.len {
                chunk = chunk.select(&pass);
            }
        }
        if chunk.len > 0 {
            part.out.pairs += chunk.len as u64;
            part.bytes += chunk.approx_bytes();
            part.out.chunks.push(chunk);
        }
        sel.lsel.clear();
        sel.rsel.clear();
        sel.unchecked.clear();
        Ok(())
    }

    /// `chunk` without the pairs at `rows` (ascending) that fail a
    /// `recheck` conjunct. The conjuncts run in order, each on the pairs
    /// the ones before it kept, as the Filters of a cross product would;
    /// the other pairs stay, in place.
    fn recheck_pairs(
        &self,
        chunk: DataChunk,
        rows: &[usize],
        outer: &OuterStack<'_>,
        exec: &dyn SubqueryExec,
    ) -> SqlResult<DataChunk> {
        // `kept[k]` is the chunk position of row `k` of `checked`.
        let mut kept = rows.to_vec();
        let mut checked = (rows.len() < chunk.len).then(|| chunk.select(rows));
        for pred in self.recheck {
            if kept.is_empty() {
                break;
            }
            let view = checked.as_ref().unwrap_or(&chunk);
            let pass = filter_chunk(pred, view, outer, exec)?;
            if pass.len() < view.len {
                let next = view.select(&pass);
                kept = pass.iter().map(|&k| kept[k]).collect();
                checked = Some(next);
            }
        }
        if kept.len() == rows.len() {
            return Ok(chunk);
        }
        let mut rows = rows.iter().peekable();
        let mut kept = kept.iter().peekable();
        let sel: Vec<usize> = (0..chunk.len)
            .filter(|i| {
                if rows.next_if_eq(&i).is_none() {
                    return true;
                }
                kept.next_if_eq(&i).is_some()
            })
            .collect();
        Ok(chunk.select(&sel))
    }
}

// ------------------------------------------------------------ full select

/// Execute a bound SELECT to rows.
pub fn execute_select(
    ctx: &EngineCtx<'_>,
    plan: &BoundSelect,
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Vec<Value>>> {
    execute_select_inner(ctx, plan, None, outer)
}

/// Execute a bound SELECT with the trees [`plan_select`] made for it.
/// `EXPLAIN ANALYZE` plans once up front so the profiled node keys match
/// the trees it renders afterwards.
pub fn execute_select_planned(
    ctx: &EngineCtx<'_>,
    plan: &BoundSelect,
    planned: &PlannedSelect,
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Vec<Value>>> {
    execute_select_inner(ctx, plan, Some(planned), outer)
}

fn execute_select_inner(
    ctx: &EngineCtx<'_>,
    plan: &BoundSelect,
    planned: Option<&PlannedSelect>,
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Vec<Value>>> {
    let exec = PlanExecutor::new(ctx);

    // 1. Materialize this plan's CTEs (in order; later ones may reference
    //    earlier ones). Global indices were assigned by the binder in
    //    binding order starting at the count before this plan — recover
    //    them by running a counter alongside.
    materialize_ctes(ctx, plan, planned, outer)?;

    // 2. Input relation.
    let run_tree = |tree: &PhysOp, remaining: &[BoundExpr]| -> SqlResult<Chunks> {
        let mut chunks = execute_op(ctx, tree, outer)?;
        if !remaining.is_empty() {
            let t = Instant::now();
            for pred in remaining {
                let bytes;
                (chunks, bytes) = filter_chunks(ctx, chunks, pred, outer, &exec, plan_key(plan))?;
                ctx.attribute_stage_mem(plan, "filter", bytes);
            }
            ctx.record_stage(plan, "filter", t, chunks.row_count());
        }
        Ok(chunks)
    };
    let input: Chunks = if plan.from.is_empty() {
        // SELECT without FROM: one empty row.
        let mut c = Chunks::default();
        c.chunks.push(DataChunk { columns: vec![], len: 1 });
        c
    } else {
        match planned.and_then(|p| p.tree.as_ref()) {
            Some((tree, remaining)) => run_tree(tree, remaining)?,
            None => {
                let (tree, remaining) = plan_joins(ctx, plan)?;
                run_tree(&tree, &remaining)?
            }
        }
    };

    // 3. Aggregation → environment rows.
    let (env_rows, env_is_input) = if plan.aggregated {
        let t = Instant::now();
        let rows = aggregate(ctx, plan, &input, outer)?;
        ctx.record_stage(plan, "aggregate", t, rows.len());
        (rows, false)
    } else {
        (Vec::new(), true)
    };

    // 4 + 5. HAVING + projection.
    let proj_start = Instant::now();
    let mut tail = RowTail::new(plan);
    if env_is_input {
        // Each morsel projects one chunk into row vectors.
        let (guard, chunks) = (ctx.guard, &input.chunks);
        ctx.morsels(
            chunks.len(),
            plan_key(plan),
            "projection",
            plan.projections.iter().all(|p| !p.is_complex()),
            outer,
            &exec,
            |ci, outer, exec| {
                let chunk = &chunks[ci];
                guard.check_rows(chunk.len)?;
                let proj_cols: Vec<ColumnData> = plan
                    .projections
                    .iter()
                    .map(|p| eval_vector(p, chunk, outer, exec))
                    .collect::<SqlResult<_>>()?;
                let mut part = RowTail::new(plan);
                for i in 0..chunk.len {
                    part.push(proj_cols.iter().map(|c| c.get(i)).collect(), || chunk.row(i));
                }
                Ok(Morsel::new(part))
            },
            |part| {
                tail.append(part);
                Ok(())
            },
        )?;
    } else {
        tail.project(plan, env_rows, outer, &exec)?;
    }
    ctx.record_stage(plan, "projection", proj_start, tail.len());

    // 6–8. DISTINCT, ORDER BY, OFFSET / LIMIT.
    tail.finish(plan, ctx.guard, outer, &exec, |name, start, rows, bytes| {
        ctx.attribute_stage_mem(plan, name, bytes);
        ctx.record_stage(plan, name, start, rows);
    })
}

/// Materialize the plan's CTEs into the shared context, in declaration
/// order (later CTEs may reference earlier ones), each through its
/// pre-made plan when there is one.
fn materialize_ctes(
    ctx: &EngineCtx<'_>,
    plan: &BoundSelect,
    planned: Option<&PlannedSelect>,
    outer: &OuterStack<'_>,
) -> SqlResult<()> {
    for (i, cte) in plan.ctes.iter().enumerate() {
        let cte_planned = planned.and_then(|p| p.ctes.get(i));
        let rows = execute_select_inner(ctx, &cte.plan, cte_planned, outer)?;
        let types: Vec<LogicalType> = cte
            .plan
            .output_schema
            .fields
            .iter()
            .map(|f| f.ty.clone())
            .collect();
        let chunks = Chunks::from_rows(&types, &rows)?;
        ctx.ctes.borrow_mut().insert(cte.index, Arc::new(chunks));
    }
    Ok(())
}

/// One aggregation group, carrying its hash key so partial group sets can
/// be merged across workers.
struct Group {
    key_bytes: Vec<u8>,
    keys: Vec<Value>,
    states: Vec<Box<dyn mduck_sql::AggState>>,
    distinct_seen: Vec<Option<std::collections::HashSet<Vec<u8>>>>,
}

/// Groups in **first-seen order** — a hash index for lookup plus an
/// ordered vector. Serial and parallel aggregation both emit groups in
/// the order the first row of each group appears in the input, which is
/// what makes two-phase results byte-identical to serial ones.
#[derive(Default)]
struct GroupSet {
    index: HashMap<Vec<u8>, usize>,
    groups: Vec<Group>,
}

/// Hash aggregation: returns the environment rows
/// `[group keys ++ aggregate results]`.
///
/// Two strategies, chosen by the aggregates alone; either fans out
/// through [`EngineCtx::morsels`] when the stage may:
/// 1. **Two-phase** — every aggregate state supports
///    [`mduck_sql::AggState::exact_merge`] and none is DISTINCT: each
///    morsel folds a *contiguous* chunk range into a partial group set,
///    and the partials merge in range order.
/// 2. **Per chunk** — some state merges inexactly (float sums) or is
///    DISTINCT: each morsel evaluates one chunk's group keys and
///    arguments, and the fold into the one group set runs in chunk
///    order as the morsels' outputs arrive.
fn aggregate(
    ctx: &EngineCtx<'_>,
    plan: &BoundSelect,
    input: &Chunks,
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Vec<Value>>> {
    let exec = PlanExecutor::new(ctx);
    let make_group = |key_bytes: Vec<u8>, keys: Vec<Value>| -> Group {
        Group {
            key_bytes,
            keys,
            states: plan.aggregates.iter().map(|a| (a.factory)()).collect(),
            distinct_seen: plan
                .aggregates
                .iter()
                .map(|a| a.distinct.then(std::collections::HashSet::new))
                .collect(),
        }
    };
    // Vectorized evaluation of group keys and aggregate arguments.
    let eval_cols = |chunk: &DataChunk,
                     outer: &OuterStack<'_>,
                     exec: &dyn SubqueryExec|
     -> SqlResult<(Vec<ColumnData>, Vec<Vec<ColumnData>>)> {
        let key_cols: SqlResult<Vec<ColumnData>> = plan
            .group_by
            .iter()
            .map(|g| eval_vector(g, chunk, outer, exec))
            .collect();
        let arg_cols: SqlResult<Vec<Vec<ColumnData>>> = plan
            .aggregates
            .iter()
            .map(|a| {
                a.args
                    .iter()
                    .map(|arg| eval_vector(arg, chunk, outer, exec))
                    .collect()
            })
            .collect();
        Ok((key_cols?, arg_cols?))
    };
    // Per-group footprint estimate: key bytes, key values, and a flat
    // allowance per aggregate state. Charged against the shared guard as
    // groups are *created* — in two-phase workers too, where the shared
    // root accumulating across partials is exactly what lets an oversized
    // hash table trip `PRAGMA memory_limit` mid-flight.
    let nstates = plan.aggregates.len() as u64;
    let group_bytes = |g: &Group| -> u64 {
        64 + g.key_bytes.len() as u64
            + g.keys.iter().map(Value::approx_bytes).sum::<u64>()
            + nstates * 48
    };
    let guard = ctx.guard;
    // Fold one chunk's evaluated columns into a group set, row by row.
    let fold_cols = |set: &mut GroupSet,
                     len: usize,
                     key_cols: &[ColumnData],
                     arg_cols: &[Vec<ColumnData>]|
     -> SqlResult<()> {
        let mut key = Vec::new();
        for i in 0..len {
            key.clear();
            let mut keys = Vec::with_capacity(key_cols.len());
            for kc in key_cols {
                let v = kc.get(i);
                v.hash_key(&mut key);
                keys.push(v);
            }
            let gi = match set.index.get(&key) {
                Some(&gi) => gi,
                None => {
                    let gi = set.groups.len();
                    set.index.insert(key.clone(), gi);
                    set.groups.push(make_group(key.clone(), keys));
                    guard.charge_mem(group_bytes(&set.groups[gi]))?;
                    gi
                }
            };
            let group = &mut set.groups[gi];
            for (ai, cols) in arg_cols.iter().enumerate() {
                let args: Vec<Value> = cols.iter().map(|c| c.get(i)).collect();
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
        Ok(())
    };

    let simple = !plan.group_by.iter().any(BoundExpr::is_complex)
        && !plan
            .aggregates
            .iter()
            .any(|a| a.args.iter().any(BoundExpr::is_complex));
    // DISTINCT gates updates *before* they reach the state, so partial
    // states would double-count across ranges — those statements fold
    // per chunk, as do aggregates whose merge is not exact (float sums).
    let two_phase = !plan.aggregates.iter().any(|a| a.distinct)
        && plan.aggregates.iter().all(|a| (a.factory)().exact_merge());

    let mut set = GroupSet::default();
    let chunks = &input.chunks;
    if two_phase {
        // Contiguous chunk ranges → partial group sets. Ranges (rather
        // than single chunks) keep every state's update order a
        // subsequence of the serial order.
        let ranges = contiguous_ranges(chunks.len(), ctx.threads);
        ctx.morsels(
            ranges.len(),
            plan_key(plan),
            "aggregate",
            simple,
            outer,
            &exec,
            |ri, outer, exec| {
                let mut part = GroupSet::default();
                for chunk in &chunks[ranges[ri].clone()] {
                    guard.check_rows(chunk.len)?;
                    let (key_cols, arg_cols) = eval_cols(chunk, outer, exec)?;
                    fold_cols(&mut part, chunk.len, &key_cols, &arg_cols)?;
                }
                Ok(Morsel::new(part))
            },
            // Merging the partials in range order keeps group discovery
            // order and state contents equal to one left-to-right fold.
            |partial| {
                if set.groups.is_empty() {
                    set = partial;
                    return Ok(());
                }
                for mut g in partial.groups {
                    match set.index.get(&g.key_bytes) {
                        Some(&gi) => {
                            let dst = &mut set.groups[gi];
                            for (s, o) in dst.states.iter_mut().zip(g.states.iter_mut()) {
                                s.merge(&mut **o)?;
                            }
                        }
                        None => {
                            set.index.insert(g.key_bytes.clone(), set.groups.len());
                            set.groups.push(g);
                        }
                    }
                }
                Ok(())
            },
        )?;
    } else {
        ctx.morsels(
            chunks.len(),
            plan_key(plan),
            "aggregate",
            simple,
            outer,
            &exec,
            |i, outer, exec| {
                let chunk = &chunks[i];
                guard.check_rows(chunk.len)?;
                Ok(Morsel::new((chunk.len, eval_cols(chunk, outer, exec)?)))
            },
            |(len, (key_cols, arg_cols))| fold_cols(&mut set, len, &key_cols, &arg_cols),
        )?;
    }
    // Attribute the surviving group table to the stage for `EXPLAIN
    // ANALYZE`; the guard was already charged group-by-group above.
    ctx.attribute_stage_mem(
        plan,
        "aggregate",
        set.groups.iter().map(&group_bytes).sum::<u64>(),
    );

    // GROUP BY with no groups in the input and no keys still yields one row
    // (global aggregate); with keys it yields nothing.
    if set.groups.is_empty() && plan.group_by.is_empty() {
        let mut g = make_group(Vec::new(), Vec::new());
        let mut row = Vec::new();
        for s in &mut g.states {
            row.push(s.finalize()?);
        }
        return Ok(vec![row]);
    }

    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(set.groups.len());
    for mut g in set.groups {
        let mut row = g.keys;
        for s in &mut g.states {
            row.push(s.finalize()?);
        }
        rows.push(row);
    }
    Ok(rows)
}
