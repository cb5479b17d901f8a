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
use std::ops::Range;
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
use mduck_sync::{Mutex, RwLock};

use crate::catalog::{DbCatalog, Table};
use crate::column::{Chunks, ColumnData, DataChunk, VECTOR_SIZE};
use crate::expr::{eval_vector, filter_chunk};
use crate::index::{IndexTypeRegistry, TableIndex};
use crate::fusion::fuse;
use crate::join_order::{order_joins, plan_joins};
use crate::prune::{prunable, prune_block};
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
    /// While a statement template is planned: the row count of each table
    /// a join estimate read, so the template can tell when it is stale.
    pub counts: Option<RefCell<Vec<(String, usize)>>>,
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
            counts: None,
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

    /// Builder: record the row counts join estimates read
    /// ([`EngineCtx::counts`]).
    pub fn recording_counts(mut self) -> Self {
        self.counts = Some(RefCell::default());
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

/// Rows a chunk needs before a split stage cuts it into ranges: below
/// this, the copies a range makes cost more than a second thread saves.
const SPLIT_ROWS: usize = 64;
/// Rows below which a chunk's range is not split further.
const MIN_RANGE_ROWS: usize = 16;
/// Ranges a split stage cuts one chunk into, at most.
const RANGES_PER_CHUNK: usize = 8;

/// Does any of `exprs` call a function? Only such stages split their
/// chunks into row ranges: a call is where a row costs microseconds (the
/// extension's kernels), not nanoseconds.
fn calls_function<'e>(exprs: impl IntoIterator<Item = &'e BoundExpr>) -> bool {
    exprs.into_iter().any(|e| e.any(&mut |x| matches!(x, BoundExpr::Call { .. })))
}

/// The chunk columns `exprs` read, ascending, and `exprs` renumbered onto
/// a chunk holding only those columns: its column `i` is `columns[i]`.
fn onto_read_columns(exprs: &[&BoundExpr]) -> (Vec<usize>, Vec<BoundExpr>) {
    let mut columns = Vec::new();
    exprs.iter().for_each(|e| e.collect_columns(&mut columns));
    columns.sort_unstable();
    columns.dedup();
    let dense = |i| columns.partition_point(|&x| x < i);
    let exprs = exprs.iter().map(|e| e.map_columns(&dense)).collect();
    (columns, exprs)
}

/// The morsels of one stage over a chunk list (DESIGN.md §8): one per
/// chunk, or, for a *split* stage, each chunk's fixed row ranges. A stage
/// splits when it is `costly` (its expressions call a function), its
/// expressions are simple (no subqueries or outer rows) and some chunk
/// has at least [`SPLIT_ROWS`] rows. The split depends on the plan
/// and the chunk lengths only, so every thread count runs the same
/// morsels in the same order and fails with the same error.
struct StageMorsels<'e> {
    /// `(chunk, rows)` per morsel, in input order.
    ranges: Vec<(usize, Range<usize>)>,
    /// The stage's expressions; for a split stage, renumbered onto a
    /// chunk of `columns`.
    exprs: Vec<Cow<'e, BoundExpr>>,
    /// For a split stage, the chunk columns the expressions read,
    /// ascending: a range copies only these, as [`ScanFilters`] does.
    columns: Option<Vec<usize>>,
}

impl<'e> StageMorsels<'e> {
    fn new(exprs: Vec<&'e BoundExpr>, costly: bool, chunks: &[DataChunk]) -> Self {
        let whole = |exprs: Vec<&'e BoundExpr>| StageMorsels {
            ranges: chunks.iter().enumerate().map(|(c, chunk)| (c, 0..chunk.len)).collect(),
            exprs: exprs.into_iter().map(Cow::Borrowed).collect(),
            columns: None,
        };
        if !costly
            || exprs.iter().any(|e| e.is_complex())
            || !chunks.iter().any(|c| c.len >= SPLIT_ROWS)
        {
            return whole(exprs);
        }
        let (columns, dense) = onto_read_columns(&exprs);
        // A column out of range is the expressions' error to report.
        if columns.last().is_some_and(|&i| chunks.iter().any(|c| i >= c.columns.len())) {
            return whole(exprs);
        }
        let exprs = dense.into_iter().map(Cow::Owned).collect();
        let mut ranges = Vec::new();
        for (c, chunk) in chunks.iter().enumerate() {
            let parts = match chunk.len {
                n if n < SPLIT_ROWS => 1,
                n => (n / MIN_RANGE_ROWS).min(RANGES_PER_CHUNK),
            };
            match chunk.len {
                0 => ranges.push((c, 0..0)),
                n => ranges.extend(contiguous_ranges(n, parts).into_iter().map(|r| (c, r))),
            }
        }
        StageMorsels { ranges, exprs, columns: Some(columns) }
    }

    fn len(&self) -> usize {
        self.ranges.len()
    }

    fn expr(&self, i: usize) -> &BoundExpr {
        &self.exprs[i]
    }

    /// Morsel `m`: its chunk, its rows, and what [`StageMorsels::expr`]
    /// evaluates on — the chunk itself, or the range's rows of the
    /// columns a split stage reads.
    fn view<'c>(
        &self,
        chunks: &'c [DataChunk],
        m: usize,
    ) -> (usize, Range<usize>, Cow<'c, DataChunk>) {
        let (c, rows) = self.ranges[m].clone();
        let chunk = &chunks[c];
        let view = match &self.columns {
            None => Cow::Borrowed(chunk),
            Some(columns) => Cow::Owned(DataChunk {
                columns: columns
                    .iter()
                    .map(|&i| chunk.columns[i].slice(rows.start, rows.len()))
                    .collect(),
                len: rows.len(),
            }),
        };
        (c, rows, view)
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
                let (columns, mut dense) = onto_read_columns(&[c]);
                (columns, dense.remove(0))
            })
            .collect();
        ScanFilters { conjuncts, dense }
    }

    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    fn set_params(&mut self, values: &[Value]) {
        let dense = self.dense.iter_mut().map(|(_, e)| e);
        self.conjuncts.iter_mut().chain(dense).for_each(|e| e.set_params(values));
    }
}

/// The join/scan tree (everything above it — aggregation, projection,
/// ordering — is driven directly from the [`BoundSelect`]).
///
/// Every node hands on `columns`, ascending: for a leaf, the columns of
/// its source it copies; for a Filter, positions in its child's output;
/// for a join, positions in its left child's output followed by its
/// right child's. The planner makes them every column; the pruning pass
/// ([`crate::prune`]) drops those nothing above reads.
#[derive(Debug, Clone)]
pub enum PhysOp {
    /// Full scan of a base table with its pushed-down conjuncts fused in.
    SeqScan {
        table: String,
        filters: ScanFilters,
        columns: Vec<usize>,
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
        /// A literal; a slot in a statement template's plan.
        constant: BoundExpr,
        filters: ScanFilters,
        fallback: ScanFilters,
        columns: Vec<usize>,
    },
    CteScan {
        index: usize,
        name: String,
        columns: Vec<usize>,
    },
    /// A FROM subquery, planned with the block around it.
    SubqueryScan {
        plan: Box<BoundSelect>,
        planned: Box<PlannedSelect>,
        types: Vec<LogicalType>,
        columns: Vec<usize>,
    },
    Series {
        args: Vec<BoundExpr>,
        columns: Vec<usize>,
    },
    /// `mduck_spans()`, `mduck_progress()` or `mduck_query_log()`: a
    /// snapshot of what the function reports.
    Introspect {
        function: Introspection,
        types: Vec<LogicalType>,
        columns: Vec<usize>,
    },
    /// A predicate over a join result or a non-table relation (base
    /// tables fuse theirs into the scan). `est` is the planner's row
    /// estimate (`None` over a relation of unknown size), as on the joins.
    Filter {
        pred: BoundExpr,
        child: Box<PhysOp>,
        est: Option<f64>,
        columns: Vec<usize>,
    },
    HashJoin {
        left: Box<PhysOp>,
        right: Box<PhysOp>,
        left_keys: Vec<BoundExpr>,
        /// Remapped to the right child's local column space.
        right_keys: Vec<BoundExpr>,
        est: Option<f64>,
        columns: Vec<usize>,
    },
    CrossJoin {
        left: Box<PhysOp>,
        right: Box<PhysOp>,
        est: Option<f64>,
        columns: Vec<usize>,
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
        columns: Vec<usize>,
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
    /// Replace each template slot in the tree by its value in `values`
    /// ([`BoundExpr::set_params`]).
    pub fn set_params(&mut self, values: &[Value]) {
        match self {
            PhysOp::SeqScan { filters, .. } => filters.set_params(values),
            PhysOp::IndexScan { constant, filters, fallback, .. } => {
                constant.set_params(values);
                filters.set_params(values);
                fallback.set_params(values);
            }
            PhysOp::CteScan { .. } | PhysOp::Introspect { .. } => {}
            PhysOp::SubqueryScan { plan, planned, .. } => {
                plan.set_params(values);
                planned.set_params(values);
            }
            PhysOp::Series { args, .. } => args.iter_mut().for_each(|e| e.set_params(values)),
            PhysOp::Filter { pred, child, .. } => {
                pred.set_params(values);
                child.set_params(values);
            }
            PhysOp::HashJoin { left, right, left_keys, right_keys, .. } => {
                left.set_params(values);
                right.set_params(values);
                left_keys.iter_mut().chain(right_keys).for_each(|e| e.set_params(values));
            }
            PhysOp::CrossJoin { left, right, .. } => {
                left.set_params(values);
                right.set_params(values);
            }
            PhysOp::IndexJoin { left, right, probe, build, cond, folded, .. } => {
                left.set_params(values);
                right.set_params(values);
                let folded = folded.iter_mut().flat_map(|f| f.before.iter_mut().chain(&mut f.after));
                [probe, build, cond].into_iter().chain(folded).for_each(|e| e.set_params(values));
            }
        }
    }

    /// The columns the node hands on ([`PhysOp`]); their count is the
    /// width of its output.
    pub fn columns(&self) -> &[usize] {
        match self {
            PhysOp::SeqScan { columns, .. }
            | PhysOp::IndexScan { columns, .. }
            | PhysOp::CteScan { columns, .. }
            | PhysOp::SubqueryScan { columns, .. }
            | PhysOp::Series { columns, .. }
            | PhysOp::Introspect { columns, .. }
            | PhysOp::Filter { columns, .. }
            | PhysOp::HashJoin { columns, .. }
            | PhysOp::CrossJoin { columns, .. }
            | PhysOp::IndexJoin { columns, .. } => columns,
        }
    }

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
#[derive(Debug, Clone)]
pub struct PlannedSelect {
    pub tree: Option<(PhysOp, Vec<BoundExpr>)>,
    pub ctes: Vec<PlannedSelect>,
}

impl PlannedSelect {
    /// Replace each template slot by its value in `values`.
    pub fn set_params(&mut self, values: &[Value]) {
        if let Some((op, rest)) = &mut self.tree {
            op.set_params(values);
            rest.iter_mut().for_each(|e| e.set_params(values));
        }
        self.ctes.iter_mut().for_each(|c| c.set_params(values));
    }
}

/// Fuse the expressions of `plan` (the fusion pass), then plan every
/// block of it ahead, letting the join-order pass order their FROM items
/// and the pruning pass prune their join trees.
pub fn plan_select(ctx: &EngineCtx<'_>, plan: &mut BoundSelect) -> SqlResult<PlannedSelect> {
    fuse(ctx.registry, plan);
    plan_block(ctx, plan, true)
}

/// Plan block `plan`, its CTE bodies first: put its FROM items in join
/// order when `reorder` lets the join-order pass, plan its join tree
/// (none for a FROM-less SELECT; its FROM subqueries are planned with it)
/// and prune the columns nothing reads from the tree (the pruning pass),
/// renumbering `plan`'s expressions onto what the tree hands on.
pub(crate) fn plan_block(
    ctx: &EngineCtx<'_>,
    plan: &mut BoundSelect,
    reorder: bool,
) -> SqlResult<PlannedSelect> {
    let ctes = plan
        .ctes
        .iter_mut()
        .map(|c| plan_block(ctx, &mut c.plan, reorder))
        .collect::<SqlResult<_>>()?;
    let tree = if plan.from.is_empty() {
        None
    } else {
        let (mut tree, mut remaining) =
            if reorder { order_joins(ctx, plan)? } else { plan_joins(ctx, plan)? };
        prune_block(plan, &mut tree, &mut remaining);
        Some((tree, remaining))
    };
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
        PhysOp::SeqScan { table, filters, .. } => {
            let t = ctx.catalog.get(table)?;
            let t = t.read();
            scan_table(ctx, op, &t, ScanRows::All, filters, outer, &exec)
        }
        PhysOp::IndexScan { table, column, op: iop, constant, filters, fallback, .. } => {
            let t = ctx.catalog.get(table)?;
            let t = t.read();
            let BoundExpr::Literal(constant) = constant else {
                return Err(SqlError::internal("index scan over an uninstantiated template slot"));
            };
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
        PhysOp::CteScan { index, columns, .. } => {
            let ctes = ctx.ctes.borrow();
            let mat = ctes
                .get(index)
                .ok_or_else(|| SqlError::execution(format!("CTE {index} not materialized")))?;
            let out = Chunks { chunks: mat.chunks.iter().map(|c| c.pick(columns)).collect() };
            drop(ctes);
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::SubqueryScan { plan, planned, types, columns } => {
            let rows = execute_select_planned(ctx, plan, planned, outer)?;
            let types: Vec<LogicalType> = columns.iter().map(|&i| types[i].clone()).collect();
            let rows: Vec<Vec<Value>> = rows
                .into_iter()
                .map(|mut row| columns.iter().map(|&i| std::mem::take(&mut row[i])).collect())
                .collect();
            let out = Chunks::from_rows(&types, &rows)?;
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::Series { args, columns } => {
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
            out.chunks = out.chunks.into_iter().map(|c| c.project(columns)).collect();
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::Introspect { function, types, columns } => {
            let rows = mduck_sql::introspect::rows(*function);
            ctx.guard.check_rows(rows.len())?;
            let mut out = Chunks::from_rows(types, &rows)?;
            out.chunks = out.chunks.into_iter().map(|c| c.project(columns)).collect();
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::Filter { pred, child, columns, .. } => {
            let input = execute_op(ctx, child, outer)?;
            let (out, bytes) =
                filter_chunks(ctx, input, pred, columns, outer, &exec, op_key(op))?;
            ctx.attribute_op_mem(op_key(op), bytes);
            Ok(out)
        }
        PhysOp::CrossJoin { left, right, .. } => {
            let l = execute_op(ctx, left, outer)?;
            let r = execute_op(ctx, right, outer)?;
            pair_join(ctx, op, &l, &r, JoinKind::Cross, outer, &exec)
        }
        PhysOp::HashJoin { left, right, left_keys, right_keys, .. } => {
            let l = execute_op(ctx, left, outer)?;
            let r = execute_op(ctx, right, outer)?;
            let kind = JoinKind::Hash(left_keys, right_keys);
            pair_join(ctx, op, &l, &r, kind, outer, &exec)
        }
        PhysOp::IndexJoin { left, right, method, probe, build, cond, folded, .. } => {
            let l = execute_op(ctx, left, outer)?;
            let r = execute_op(ctx, right, outer)?;
            let (recheck, after) = match folded {
                Some(fold) => (fold.before.iter().chain([cond]).collect(), &fold.after[..]),
                None => (Vec::new(), &[][..]),
            };
            let link = IndexLink { method, probe, build, recheck: &recheck, after };
            pair_join(ctx, op, &l, &r, JoinKind::Index(link), outer, &exec)
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
/// columns and the survivors of the columns the scan hands on
/// ([`PhysOp::columns`]) are copied, and only those are charged to the
/// memory guard — window by window, so `PRAGMA memory_limit` trips
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
            let window = scan_window(table, rows, w, filters, op.columns(), outer, exec)?;
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
/// for the rows still alive, then gather the survivors of the table
/// columns `columns`. Its bytes are the predicate chunks plus the
/// surviving rows.
fn scan_window(
    table: &Table,
    rows: ScanRows<'_>,
    w: usize,
    filters: &ScanFilters,
    columns: &[usize],
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
    let column = |c: usize| &table.columns[c];
    let chunk = match alive {
        Some(ids) if ids.is_empty() => None,
        Some(ids) => Some(DataChunk {
            columns: columns.iter().map(|&c| column(c).gather(&ids)).collect(),
            len: ids.len(),
        }),
        None => Some(DataChunk {
            columns: columns.iter().map(|&c| window.column(column(c))).collect(),
            len: window.len(),
        }),
    };
    let kept = chunk.as_ref().map_or(0, |c| c.len);
    bytes += chunk.as_ref().map_or(0, DataChunk::approx_bytes);
    Ok(Morsel { out: chunk, bytes, dropped: (window.len() - kept) as u64 })
}

/// Apply `pred` across all chunks, one chunk (or, for a split stage,
/// one row range) per morsel, handing on the columns `keep` (ascending).
/// `key` names the owning operator or plan for
/// parallel actuals. A chunk every row of which passes moves to the
/// output as it is; only partly kept chunks are copied, and charged to
/// the memory guard as they are made. A split chunk's ranges are stitched
/// back into one output chunk, so the output has the input's chunk
/// boundaries either way. Returns the output and the bytes copied, for
/// the owner to attribute.
fn filter_chunks(
    ctx: &EngineCtx<'_>,
    input: Chunks,
    pred: &BoundExpr,
    keep: &[usize],
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
    key: usize,
) -> SqlResult<(Chunks, u64)> {
    let guard = ctx.guard;
    let chunks = &input.chunks;
    let morsels = StageMorsels::new(vec![pred], calls_function([pred]), chunks);
    let stitch = Stitch::new(chunks);
    let mut kept: Vec<Kept> = chunks.iter().map(|_| Kept::None).collect();
    let bytes = ctx.morsels(
        morsels.len(),
        key,
        "filter",
        !pred.is_complex(),
        outer,
        exec,
        |m, outer, exec| {
            let (c, rows, view) = morsels.view(chunks, m);
            let sel = filter_chunk(morsels.expr(0), &view, outer, exec)?;
            let dropped = (rows.len() - sel.len()) as u64;
            let chunk = &chunks[c];
            let sel: Vec<usize> = sel.into_iter().map(|j| rows.start + j).collect();
            let Some(sel) = stitch.put(c, chunk.len, rows, sel).map(|s| s.concat()) else {
                return Ok(Morsel { out: None, bytes: 0, dropped });
            };
            if sel.len() == chunk.len {
                return Ok(Morsel { out: Some((c, Kept::All)), bytes: 0, dropped });
            }
            if sel.is_empty() {
                return Ok(Morsel { out: None, bytes: 0, dropped });
            }
            let part = chunk.select_columns(&sel, keep);
            let bytes = part.approx_bytes();
            guard.charge_mem(bytes)?;
            Ok(Morsel { out: Some((c, Kept::Part(part))), bytes, dropped })
        },
        |out| {
            if let Some((c, k)) = out {
                kept[c] = k;
            }
            Ok(())
        },
    )?;
    let mut out = Chunks::default();
    for (chunk, kept) in input.chunks.into_iter().zip(kept) {
        match kept {
            Kept::All => out.chunks.push(chunk.project(keep)),
            Kept::None => {}
            Kept::Part(part) => out.chunks.push(part),
        }
    }
    Ok((out, bytes))
}

/// What the ranges of a split stage kept, per chunk, until the range
/// that completes its chunk takes all of it (in row order) to build the
/// chunk's output — on whichever worker ran that range, so the copying
/// stays parallel.
struct Stitch<P>(Vec<Mutex<Slot<P>>>);

/// One chunk's rows not yet accounted for, and the parts its ranges kept
/// so far, by first row.
struct Slot<P> {
    left: usize,
    parts: Vec<(usize, P)>,
}

impl<P> Stitch<P> {
    fn new(chunks: &[DataChunk]) -> Self {
        Stitch(chunks.iter().map(|c| Mutex::new(Slot { left: c.len, parts: Vec::new() })).collect())
    }

    /// Record what range `rows` of chunk `c` (of `len` rows) kept.
    /// Returns the kept parts of the whole chunk, in row order, once
    /// every row of it is accounted for.
    fn put(&self, c: usize, len: usize, rows: Range<usize>, part: P) -> Option<Vec<P>> {
        if rows.len() == len {
            return Some(vec![part]);
        }
        let mut slot = self.0[c].lock();
        slot.left -= rows.len();
        slot.parts.push((rows.start, part));
        if slot.left > 0 {
            return None;
        }
        let mut parts = std::mem::take(&mut slot.parts);
        parts.sort_unstable_by_key(|p| p.0);
        Some(parts.into_iter().map(|p| p.1).collect())
    }
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
    Ok(DataChunk { columns: cols, len: chunks.row_count() })
}

fn chunk_types(chunks: &Chunks) -> Vec<LogicalType> {
    chunks
        .chunks
        .first()
        .map(|c| c.columns.iter().map(|col| col.ty.clone()).collect())
        .unwrap_or_default()
}

/// The pairs `(lsel[k], rsel[k])` of `l`'s and `r`'s rows, as the chunk
/// of their columns `columns`: positions in `l`'s columns followed by
/// `r`'s.
fn combine(
    l: &DataChunk,
    lsel: &[usize],
    r: &DataChunk,
    rsel: &[usize],
    columns: &[usize],
) -> DataChunk {
    let lw = l.columns.len();
    let columns = columns.iter().map(|&c| match c.checked_sub(lw) {
        None => l.columns[c].gather(lsel),
        Some(c) => r.columns[c].gather(rsel),
    });
    DataChunk { columns: columns.collect(), len: lsel.len() }
}

/// What one left chunk (or one range of it) of a join produced.
#[derive(Default)]
struct PairPart {
    chunks: Vec<DataChunk>,
    /// Pairs kept but not yet in `chunks`: (left row, right row).
    lsel: Vec<usize>,
    rsel: Vec<usize>,
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

/// Join `l` with `r`, one left chunk (or, split, one range of it) per
/// morsel (DESIGN.md §8). Pairs come out in
/// cross-product order: left rows in order, each with its right rows in
/// ascending order — every right row (the cross product), the hits of a
/// transient index over the `build` expression of an index join
/// (evaluated once per right row, indexed through its method) for the
/// `probe` expression, or the right rows a hash join's keys match. A
/// NULL probe or key pairs with none. A probe the index cannot answer
/// (declined, errored, a probe chunk that fails to evaluate, a build side
/// that fails to index) pairs with every right row, as the cross product
/// does, and those pairs run `recheck` (DESIGN.md §12). A key that fails
/// to evaluate fails the join. The conjuncts run on chunks of the
/// columns they read only; the pairs kept from one left chunk go out in
/// [`VECTOR_SIZE`] chunks of the columns the join `op` hands on.
fn pair_join(
    ctx: &EngineCtx<'_>,
    op: &PhysOp,
    l: &Chunks,
    r: &Chunks,
    kind: JoinKind<'_>,
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
) -> SqlResult<Chunks> {
    if l.row_count() == 0 || r.row_count() == 0 {
        return Ok(Chunks::default());
    }
    let key = op_key(op);
    let rflat = flatten(r, chunk_types(r))?;
    // The flattened right side is a fresh buffer; output chunks are
    // charged as they are produced so a runaway product trips the memory
    // limit (or the row budget, whichever is tighter) mid-flight.
    ctx.charge_op_mem(key, rflat.approx_bytes())?;
    let m = mduck_obs::metrics();
    let (index, table);
    let (candidates, probe_exprs, recheck, after) = match kind {
        JoinKind::Cross => (Candidates::All, Vec::new(), &[][..], &[][..]),
        JoinKind::Index(link) => {
            index = build_index(ctx, link.method, link.build, &rflat, outer, exec, key);
            let candidates = match &index {
                Some(index) => {
                    m.index_join_builds.inc(1);
                    Candidates::Index(&**index)
                }
                None => Candidates::All,
            };
            (candidates, vec![link.probe], link.recheck, link.after)
        }
        JoinKind::Hash(left_keys, right_keys) => {
            table = build_hash(ctx, right_keys, &rflat, outer, exec, key)?;
            (Candidates::Hash(&table), left_keys.iter().collect(), &[][..], &[][..])
        }
    };
    // A left chunk splits into row ranges when its probe values or the
    // conjuncts its pairs run call a function.
    let conjuncts: Vec<&BoundExpr> = recheck.iter().copied().chain(after).collect();
    let costly = calls_function(probe_exprs.iter().copied().chain(conjuncts.iter().copied()));
    let morsels = StageMorsels::new(probe_exprs, costly, &l.chunks);
    let all: Vec<usize> = (0..rflat.len).collect();
    let (checks, conjuncts) = onto_read_columns(&conjuncts);
    let (recheck, after) = conjuncts.split_at(recheck.len());
    let pairs = Pairs {
        guard: ctx.guard,
        rflat: &rflat,
        all: &all,
        candidates,
        columns: op.columns(),
        checks: &checks,
        recheck,
        after,
    };
    let stitch = Stitch::new(&l.chunks);
    let mut out = Chunks::default();
    let (mut probes, mut emitted) = (0u64, 0u64);
    // The probe, the keys and the re-checked conjuncts are simple: the
    // planner places only conjuncts without subqueries.
    let bytes = ctx.morsels(
        morsels.len(),
        key,
        "pairs",
        true,
        outer,
        exec,
        |m, outer, exec| {
            let (c, rows, view) = morsels.view(&l.chunks, m);
            let lchunk = &l.chunks[c];
            let whole = rows.len() == lchunk.len;
            let probed = candidates.probe(&view, &morsels, outer, exec)?;
            let mut part = pairs.chunk(lchunk, rows.clone(), probed, whole, outer, exec)?;
            if whole {
                return Ok(part);
            }
            // A range keeps its pairs as row numbers; the range that
            // completes its left chunk emits the chunk's pairs in row
            // order, so ranges do not cut the join's output chunks.
            let kept = (std::mem::take(&mut part.out.lsel), std::mem::take(&mut part.out.rsel));
            ctx.guard.charge_mem(16 * kept.0.len() as u64)?;
            if let Some(ranges) = stitch.put(c, lchunk.len, rows, kept) {
                for (lsel, rsel) in ranges {
                    part.out.lsel.extend(lsel);
                    part.out.rsel.extend(rsel);
                }
                pairs.flush(&mut part, lchunk, true)?;
            }
            Ok(part)
        },
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
    key: usize,
) -> Option<Box<dyn TableIndex>> {
    let index_type = ctx.index_types.read().get(method)?;
    // The build values, range by range when `build` calls a function.
    let chunks = std::slice::from_ref(rflat);
    let morsels = StageMorsels::new(vec![build], calls_function([build]), chunks);
    let mut values = Vec::with_capacity(rflat.len);
    ctx.morsels(
        morsels.len(),
        key,
        "build",
        true,
        outer,
        exec,
        |m, outer, exec| {
            let (_, _, view) = morsels.view(chunks, m);
            eval_vector(morsels.expr(0), &view, outer, exec).map(Morsel::new)
        },
        |col| {
            values.extend((0..col.len()).map(|i| col.get(i)));
            Ok(())
        },
    )
    .ok()?;
    index_type.create("index_join", 0, &build.ty(), &values, ctx.threads).ok()
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
    /// The index's hits for the left row's probe value.
    Index(&'a dyn TableIndex),
    /// The hash table's rows for the left row's key.
    Hash(&'a HashMap<Vec<u8>, Vec<usize>>),
}

impl<'a> Candidates<'a> {
    /// The probe values of one morsel's left rows (`view`): the index
    /// probe or the hash keys, `morsels`' expressions; `None` when every
    /// row pairs with every right row.
    fn probe(
        self,
        view: &DataChunk,
        morsels: &StageMorsels<'_>,
        outer: &OuterStack<'_>,
        exec: &dyn SubqueryExec,
    ) -> SqlResult<Option<Vec<ColumnData>>> {
        Ok(match self {
            Candidates::All => None,
            // A chunk whose probe values cannot be computed pairs every
            // row with every right row; the re-check then meets the same
            // error, if any, the cross product would have.
            Candidates::Index(_) => {
                eval_vector(morsels.expr(0), view, outer, exec).ok().map(|values| vec![values])
            }
            Candidates::Hash(_) => Some(
                (0..morsels.exprs.len())
                    .map(|k| eval_vector(morsels.expr(k), view, outer, exec))
                    .collect::<SqlResult<_>>()?,
            ),
        })
    }

    /// The candidates of the `j`-th probed row, ascending, from the probe
    /// values `cols`; `None` when the index cannot answer.
    fn hits(self, cols: &[ColumnData], j: usize, key: &mut Vec<u8>) -> Option<Cow<'a, [usize]>> {
        match self {
            Candidates::All => None,
            Candidates::Index(index) => {
                let v = cols[0].get(j);
                if v.is_null() {
                    return Some(Cow::Borrowed(&[]));
                }
                let Ok(Some(ids)) = index.try_scan("&&", &v) else { return None };
                let mut ids: Vec<usize> = ids.into_iter().map(|r| r as usize).collect();
                ids.sort_unstable();
                Some(Cow::Owned(ids))
            }
            Candidates::Hash(table) => {
                if !hash_key(cols, j, key) {
                    return Some(Cow::Borrowed(&[]));
                }
                Some(Cow::Borrowed(table.get(key).map_or(&[][..], Vec::as_slice)))
            }
        }
    }
}

/// What pairing one left chunk reads besides the chunk: the flattened
/// right side, where each left row's candidates come from, the columns
/// the join hands on, and the conjuncts the pairs run ([`IndexLink`]).
struct Pairs<'a> {
    guard: &'a ExecGuard,
    rflat: &'a DataChunk,
    /// Every right row number.
    all: &'a [usize],
    candidates: Candidates<'a>,
    /// The columns of a pair the join hands on: positions in the left
    /// chunk's columns followed by `rflat`'s.
    columns: &'a [usize],
    /// The columns of a pair `recheck` and `after` read, numbered the
    /// same way; the conjuncts are renumbered onto a chunk of these.
    checks: &'a [usize],
    recheck: &'a [BoundExpr],
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
    /// Pair the rows `rows` of `lchunk` with their candidates (`probed`
    /// holds their probe values, from [`Candidates::probe`]), checking
    /// them [`VECTOR_SIZE`] candidates at a time against the row budget.
    /// With `emit`, the kept pairs go out as chunks of [`VECTOR_SIZE`]
    /// rows, charged to the memory guard as they are made; otherwise they
    /// stay in the part's `lsel`/`rsel`.
    fn chunk(
        &self,
        lchunk: &DataChunk,
        rows: Range<usize>,
        probed: Option<Vec<ColumnData>>,
        emit: bool,
        outer: &OuterStack<'_>,
        exec: &dyn SubqueryExec,
    ) -> SqlResult<Morsel<PairPart>> {
        let mut part = Morsel::new(PairPart::default());
        let mut sel = Selection::default();
        let mut key = Vec::new();
        for (j, li) in rows.enumerate() {
            let hits = probed.as_ref().and_then(|cols| self.candidates.hits(cols, j, &mut key));
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
                    self.keep(&mut part.out, lchunk, &mut sel, outer, exec)?;
                    if emit {
                        self.flush(&mut part, lchunk, false)?;
                    }
                }
            }
        }
        if !sel.lsel.is_empty() {
            self.keep(&mut part.out, lchunk, &mut sel, outer, exec)?;
        }
        if emit {
            self.flush(&mut part, lchunk, true)?;
        }
        Ok(part)
    }

    /// Keep the selected pairs that pass `recheck` (those that must) and
    /// then `after`, appending them to `part`'s kept pairs, and clear
    /// the selection. The conjuncts run on the pairs' columns they read,
    /// materialized; pairs no conjunct checks are kept as they are.
    fn keep(
        &self,
        part: &mut PairPart,
        lchunk: &DataChunk,
        sel: &mut Selection,
        outer: &OuterStack<'_>,
        exec: &dyn SubqueryExec,
    ) -> SqlResult<()> {
        self.guard.check_rows(sel.lsel.len())?;
        // Positions in `sel` of the pairs kept so far; `None` while all are.
        let mut kept: Option<Vec<usize>> = None;
        if !sel.unchecked.is_empty() || !self.after.is_empty() {
            let mut chunk = combine(lchunk, &sel.lsel, self.rflat, &sel.rsel, self.checks);
            self.guard.charge_mem(chunk.approx_bytes())?;
            if !sel.unchecked.is_empty() {
                kept = self.recheck_pairs(&chunk, &sel.unchecked, outer, exec)?;
                if let Some(k) = &kept {
                    chunk = chunk.select(k);
                }
            }
            for (i, pred) in self.after.iter().enumerate() {
                if chunk.len == 0 {
                    break;
                }
                let pass = filter_chunk(pred, &chunk, outer, exec)?;
                if pass.len() == chunk.len {
                    continue;
                }
                // The last conjunct's survivors need no copy of their own.
                if i + 1 < self.after.len() {
                    chunk = chunk.select(&pass);
                }
                kept = Some(match kept {
                    None => pass,
                    Some(k) => pass.iter().map(|&p| k[p]).collect(),
                });
            }
        }
        match kept {
            None => {
                part.lsel.append(&mut sel.lsel);
                part.rsel.append(&mut sel.rsel);
            }
            Some(k) => {
                part.lsel.extend(k.iter().map(|&p| sel.lsel[p]));
                part.rsel.extend(k.iter().map(|&p| sel.rsel[p]));
            }
        }
        sel.lsel.clear();
        sel.rsel.clear();
        sel.unchecked.clear();
        Ok(())
    }

    /// Materialize `part`'s kept pairs as output chunks of
    /// [`VECTOR_SIZE`] rows, charged to the memory guard; a last partial
    /// chunk only when `all`.
    fn flush(&self, part: &mut Morsel<PairPart>, lchunk: &DataChunk, all: bool) -> SqlResult<()> {
        let out = &mut part.out;
        let n = if all { out.lsel.len() } else { out.lsel.len() / VECTOR_SIZE * VECTOR_SIZE };
        for start in (0..n).step_by(VECTOR_SIZE) {
            let rows = start..n.min(start + VECTOR_SIZE);
            let (lsel, rsel) = (&out.lsel[rows.clone()], &out.rsel[rows]);
            let chunk = combine(lchunk, lsel, self.rflat, rsel, self.columns);
            let bytes = chunk.approx_bytes();
            self.guard.charge_mem(bytes)?;
            out.pairs += chunk.len as u64;
            part.bytes += bytes;
            out.chunks.push(chunk);
        }
        out.lsel.drain(..n);
        out.rsel.drain(..n);
        Ok(())
    }

    /// The positions of `chunk`'s rows that stay when the pairs at `rows`
    /// (ascending) must pass every `recheck` conjunct, `None` when all
    /// do. The conjuncts run in order, each on the pairs the ones before
    /// it kept, as the Filters of a cross product would; the other pairs
    /// stay.
    fn recheck_pairs(
        &self,
        chunk: &DataChunk,
        rows: &[usize],
        outer: &OuterStack<'_>,
        exec: &dyn SubqueryExec,
    ) -> SqlResult<Option<Vec<usize>>> {
        // `kept[k]` is the chunk position of row `k` of `checked`.
        let mut kept = rows.to_vec();
        let mut checked = (rows.len() < chunk.len).then(|| chunk.select(rows));
        for pred in self.recheck {
            if kept.is_empty() {
                break;
            }
            let view = checked.as_ref().unwrap_or(chunk);
            let pass = filter_chunk(pred, view, outer, exec)?;
            if pass.len() < view.len {
                let next = view.select(&pass);
                kept = pass.iter().map(|&k| kept[k]).collect();
                checked = Some(next);
            }
        }
        if kept.len() == rows.len() {
            return Ok(None);
        }
        let mut rows = rows.iter().peekable();
        let mut kept = kept.iter().peekable();
        Ok(Some(
            (0..chunk.len)
                .filter(|i| {
                    if rows.next_if_eq(&i).is_none() {
                        return true;
                    }
                    kept.next_if_eq(&i).is_some()
                })
                .collect(),
        ))
    }
}

// ------------------------------------------------------------ full select

/// Execute a bound SELECT to rows, planning it on the way: in FROM
/// order, pruned when the pruning pass may ([`prunable`]).
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
    // A block without pre-made trees is planned here: a block the pruning
    // pass may prune is planned on a copy, whose expressions it
    // renumbers; any other (a correlated subquery among them) as it is,
    // its CTE bodies as they run.
    let (block, fly);
    let (plan, planned) = match planned {
        Some(planned) => (plan, planned),
        None if prunable(plan) => {
            let mut copy = plan.clone();
            fly = plan_block(ctx, &mut copy, false)?;
            block = copy;
            (&block, &fly)
        }
        None => {
            let tree = if plan.from.is_empty() { None } else { Some(plan_joins(ctx, plan)?) };
            fly = PlannedSelect { tree, ctes: Vec::new() };
            (plan, &fly)
        }
    };
    let exec = PlanExecutor::new(ctx);

    // 1. Materialize this plan's CTEs (in order; later ones may reference
    //    earlier ones). Global indices were assigned by the binder in
    //    binding order starting at the count before this plan — recover
    //    them by running a counter alongside.
    materialize_ctes(ctx, plan, planned, outer)?;

    // 2. Input relation.
    let input: Chunks = match &planned.tree {
        Some((tree, remaining)) => {
            let mut chunks = execute_op(ctx, tree, outer)?;
            if !remaining.is_empty() {
                let t = Instant::now();
                let every: Vec<usize> = (0..tree.columns().len()).collect();
                for pred in remaining {
                    let bytes;
                    (chunks, bytes) =
                        filter_chunks(ctx, chunks, pred, &every, outer, &exec, plan_key(plan))?;
                    ctx.attribute_stage_mem(plan, "filter", bytes);
                }
                ctx.record_stage(plan, "filter", t, chunks.row_count());
            }
            chunks
        }
        // SELECT without FROM: one empty row.
        None => Chunks { chunks: vec![DataChunk { columns: vec![], len: 1 }] },
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
        // Each morsel projects one chunk, or one range of a chunk, into
        // row vectors.
        let (guard, chunks) = (ctx.guard, &input.chunks);
        let exprs: Vec<&BoundExpr> = plan.projections.iter().collect();
        let morsels = StageMorsels::new(exprs, calls_function(&plan.projections), chunks);
        ctx.morsels(
            morsels.len(),
            plan_key(plan),
            "projection",
            plan.projections.iter().all(|p| !p.is_complex()),
            outer,
            &exec,
            |m, outer, exec| {
                let (c, rows, view) = morsels.view(chunks, m);
                guard.check_rows(rows.len())?;
                let proj_cols: Vec<ColumnData> = (0..plan.projections.len())
                    .map(|p| eval_vector(morsels.expr(p), &view, outer, exec))
                    .collect::<SqlResult<_>>()?;
                let mut part = RowTail::new(plan);
                for (j, i) in rows.enumerate() {
                    part.push(proj_cols.iter().map(|c| c.get(j)).collect(), || chunks[c].row(i));
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
    planned: &PlannedSelect,
    outer: &OuterStack<'_>,
) -> SqlResult<()> {
    for (i, cte) in plan.ctes.iter().enumerate() {
        let cte_planned = planned.ctes.get(i);
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

/// One aggregation group.
struct Group {
    keys: Vec<Value>,
    states: Vec<Box<dyn mduck_sql::AggState>>,
    distinct_seen: Vec<Option<std::collections::HashSet<Vec<u8>>>>,
}

/// Hash aggregation: returns the environment rows
/// `[group keys ++ aggregate results]`.
///
/// Each morsel — one chunk, or one row range of a split stage — evaluates
/// its group keys and aggregate arguments, fanning out through
/// [`EngineCtx::morsels`] when the stage may. The sink folds them into
/// one group table in morsel order, so every state sees its rows in
/// input order and groups come out in **first-seen order**, at every
/// thread count: no state is ever merged.
fn aggregate(
    ctx: &EngineCtx<'_>,
    plan: &BoundSelect,
    input: &Chunks,
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Vec<Value>>> {
    let exec = PlanExecutor::new(ctx);
    let make_group = |keys: Vec<Value>| -> Group {
        Group {
            keys,
            states: plan.aggregates.iter().map(|a| (a.factory)()).collect(),
            distinct_seen: plan
                .aggregates
                .iter()
                .map(|a| a.distinct.then(std::collections::HashSet::new))
                .collect(),
        }
    };
    // The group keys, then every aggregate's arguments.
    let exprs: Vec<&BoundExpr> =
        plan.group_by.iter().chain(plan.aggregates.iter().flat_map(|a| &a.args)).collect();
    let costly = calls_function(exprs.iter().copied());
    let simple = !exprs.iter().any(|e| e.is_complex());
    let chunks = &input.chunks;
    let morsels = StageMorsels::new(exprs, costly, chunks);
    let guard = ctx.guard;
    // Per-group footprint estimate: key bytes, key values, and a flat
    // allowance per aggregate state. Charged against the guard as groups
    // are *created*, which is what lets an oversized hash table trip
    // `PRAGMA memory_limit` mid-flight.
    let nstates = plan.aggregates.len() as u64;
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    let mut table_bytes = 0u64;
    ctx.morsels(
        morsels.len(),
        plan_key(plan),
        "aggregate",
        simple,
        outer,
        &exec,
        |m, outer, exec| {
            let (_, rows, view) = morsels.view(chunks, m);
            guard.check_rows(rows.len())?;
            let ng = plan.group_by.len();
            let key_cols: Vec<ColumnData> = (0..ng)
                .map(|i| eval_vector(morsels.expr(i), &view, outer, exec))
                .collect::<SqlResult<_>>()?;
            let mut next = ng;
            let arg_cols: Vec<Vec<ColumnData>> = plan
                .aggregates
                .iter()
                .map(|a| {
                    let first = next;
                    next += a.args.len();
                    (first..next)
                        .map(|i| eval_vector(morsels.expr(i), &view, outer, exec))
                        .collect()
                })
                .collect::<SqlResult<_>>()?;
            Ok(Morsel::new((rows.len(), key_cols, arg_cols)))
        },
        // Fold one morsel's evaluated columns into the group table, row
        // by row.
        |(len, key_cols, arg_cols)| {
            let (mut key, mut args) = (Vec::new(), Vec::new());
            for i in 0..len {
                // Without GROUP BY, every row after the first folds into
                // the one group: no key to hash or look up.
                let gi = if key_cols.is_empty() && !groups.is_empty() {
                    0
                } else {
                    key.clear();
                    for kc in &key_cols {
                        kc.get(i).hash_key(&mut key);
                    }
                    match index.get(&key) {
                        Some(&gi) => gi,
                        None => {
                            let keys: Vec<Value> = key_cols.iter().map(|kc| kc.get(i)).collect();
                            let bytes = 64
                                + key.len() as u64
                                + keys.iter().map(Value::approx_bytes).sum::<u64>()
                                + nstates * 48;
                            guard.charge_mem(bytes)?;
                            table_bytes += bytes;
                            index.insert(key.clone(), groups.len());
                            groups.push(make_group(keys));
                            groups.len() - 1
                        }
                    }
                };
                let group = &mut groups[gi];
                for (ai, cols) in arg_cols.iter().enumerate() {
                    args.clear();
                    args.extend(cols.iter().map(|c| c.get(i)));
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
        },
    )?;
    // Attribute the surviving group table to the stage for `EXPLAIN
    // ANALYZE`; the guard was already charged group-by-group above.
    ctx.attribute_stage_mem(plan, "aggregate", table_bytes);

    // GROUP BY with no groups in the input and no keys still yields one row
    // (global aggregate); with keys it yields nothing.
    if groups.is_empty() && plan.group_by.is_empty() {
        groups.push(make_group(Vec::new()));
    }
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(groups.len());
    for mut g in groups {
        let mut row = g.keys;
        for s in &mut g.states {
            row.push(s.finalize()?);
        }
        rows.push(row);
    }
    Ok(rows)
}
