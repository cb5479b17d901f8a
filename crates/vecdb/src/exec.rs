//! Physical planning and vectorized execution of bound SELECT plans.
//!
//! The planner mirrors DuckDB's behaviour the paper relies on:
//! single-relation predicates are pushed below joins and fused into the
//! base-table scan (evaluated on the stored columns, surviving rows
//! materialized late), equality conjuncts become hash joins, and — the
//! §4.3 mechanism — a filter of the shape `column && constant` over an
//! indexed column is replaced by an index scan on the registered TRTREE
//! index. Joins stay in FROM order; a relation with no equality key into
//! the tree first absorbs the relations keyed only to it, and an `&&`
//! conjunct across the join is answered by a transient index (DESIGN.md
//! §12). Which conjuncts are local, keyed or covered, and the row tail
//! after projection, come from `mduck_sql::plan`, shared with the row
//! engine.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use mduck_sql::eval::{NoSubqueries, OuterStack, SubqueryExec};
use mduck_sql::plan::{index_pattern, selectivity, series, JoinConjuncts, RowTail};
use mduck_sql::quantified::{decorrelate, QuantifiedSets};
use mduck_sql::{
    BoundExpr, BoundFrom, BoundSelect, ExecGuard, LogicalType, Registry, SqlError, SqlResult,
    Value,
};
use mduck_sync::RwLock;

use crate::catalog::{DbCatalog, Table};
use crate::column::{Chunks, ColumnData, DataChunk, VECTOR_SIZE};
use crate::expr::{eval_vector, filter_chunk};
use crate::index::{IndexTypeRegistry, TableIndex};
use crate::join_order::reorder_joins;
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
    /// Statistics: rows read by scans (EXPLAIN ANALYZE-style diagnostics).
    pub rows_scanned: RefCell<usize>,
    /// True when the optimizer injected at least one index scan.
    pub used_index_scan: RefCell<bool>,
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
            rows_scanned: RefCell::new(0),
            used_index_scan: RefCell::new(false),
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

    /// True when a stage may fan out to the worker pool: more than one
    /// thread configured and no correlated outer context (workers use
    /// [`NoSubqueries`] and cannot see outer rows; per-stage gating
    /// additionally requires the expressions involved to be non-complex).
    pub fn parallel_ok(&self, outer: &OuterStack<'_>) -> bool {
        self.threads > 1 && outer.is_empty()
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
}

/// Runs the subqueries of the expressions one operator or one SELECT
/// block evaluates.
struct PlanExecutor<'a, 'b> {
    ctx: &'b EngineCtx<'a>,
    /// Decorrelated `op ALL/ANY` subqueries, by the address of the
    /// subquery plan (alive, so unique, while this executor is): their
    /// per-key summaries, or `None` when they run per row.
    quantified: RefCell<HashMap<usize, Option<QuantifiedSets>>>,
}

impl<'a, 'b> PlanExecutor<'a, 'b> {
    fn new(ctx: &'b EngineCtx<'a>) -> Self {
        PlanExecutor { ctx, quantified: RefCell::default() }
    }
}

impl SubqueryExec for PlanExecutor<'_, '_> {
    fn execute(&self, plan: &BoundSelect, outer: &OuterStack<'_>) -> SqlResult<Vec<Vec<Value>>> {
        // Correlated subqueries re-enter the executor once per outer row;
        // the guard bounds both the depth and (via tick) the wall clock.
        self.ctx.guard.enter_subquery()?;
        let r = execute_select(self.ctx, plan, outer);
        self.ctx.guard.exit_subquery();
        r
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
                let rows = self.execute(&d.plan, &OuterStack::EMPTY).ok()?;
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
    /// index named, then the relation's other conjuncts (`filters`) over
    /// the candidates. When the index declines at run time the table is
    /// scanned with `fallback`: the indexed predicate followed by
    /// `filters`.
    IndexScan {
        table: String,
        index: String,
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
    /// `mduck_spans()`: snapshot of the tracing-span ring buffer.
    SpansScan {
        types: Vec<LogicalType>,
    },
    /// `mduck_progress()`: snapshot of the live-progress registry.
    ProgressScan {
        types: Vec<LogicalType>,
    },
    /// `mduck_query_log()`: snapshot of the query-log history.
    QueryLogScan {
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
    /// A cross product whose `&&` conjunct picks the pairs worth checking:
    /// `build` (over the right child) is indexed through the index method
    /// named, and `probe` (over the left child) looks each left row up.
    /// Every left row is paired with its candidates in ascending right-row
    /// order; the conjunct itself is re-checked by a Filter above.
    IndexJoin {
        left: Box<PhysOp>,
        right: Box<PhysOp>,
        method: String,
        probe: BoundExpr,
        build: BoundExpr,
        est: Option<f64>,
    },
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

/// Build the physical join tree for a plan's FROM + WHERE, in FROM order
/// (the join-order pass has already put the FROM items in the order to
/// join them). Joins and Filters carry the cost model's row estimates.
pub fn plan_joins(ctx: &EngineCtx<'_>, plan: &BoundSelect) -> SqlResult<(PhysOp, Vec<BoundExpr>)> {
    let mut conj = JoinConjuncts::new(plan);

    // Base relations with their own conjuncts (written order) fused into
    // the scan or, for non-table relations, as Filters above them.
    let mut relations: Vec<(PhysOp, Option<f64>)> = Vec::with_capacity(plan.from.len());
    for (ri, f) in plan.from.iter().enumerate() {
        let preds = conj.take_local(ri);
        relations.push(match base_relation(f)? {
            PhysOp::SeqScan { table, .. } => {
                let rows = ctx.catalog.get(&table)?.read().row_count() as f64;
                let est = preds.iter().fold(rows, |n, p| n * selectivity(p));
                (table_scan(ctx, table, preds)?, Some(est))
            }
            other => filtered((other, None), preds),
        });
    }

    // Left-deep joins in FROM order, picking up equality keys. A relation
    // with no key into the tree first absorbs the run of relations keyed
    // only to it, then joins the tree through an index join when an `&&`
    // conjunct links the two (DESIGN.md §12).
    let mut rels = relations.into_iter().enumerate().peekable();
    let Some((_, mut tree)) = rels.next() else {
        return Err(SqlError::execution("cannot plan joins for a FROM-less select"));
    };
    let mut width = conj.span(0).end;
    while let Some((ri, rel)) = rels.next() {
        let span = conj.span(ri);
        let keys = conj.take_keys(0..width, span.clone(), 0);
        if !keys.0.is_empty() {
            tree = hash_join_op(tree, rel, keys);
            width = span.end;
            tree = filtered(tree, conj.take_covered(width));
            continue;
        }
        // Rule 1: hash-join the relations that follow and are keyed only
        // to this one (by plain columns, whose evaluation cannot fail)
        // before anything meets the tree. The run keeps its FROM
        // positions, so the column layout is unchanged.
        let lo = span.start;
        let mut right = rel;
        let mut ends = vec![span.end];
        while let Some(&(rj, _)) = rels.peek() {
            let next_span = conj.span(rj);
            let absorbable = {
                let mut keys = conj.equi_keys(0..next_span.start, next_span.clone()).peekable();
                keys.peek().is_some()
                    && keys.all(|(l, r)| {
                        matches!(l, BoundExpr::ColumnRef { index, .. } if *index >= lo)
                            && matches!(r, BoundExpr::ColumnRef { .. })
                    })
            };
            let Some((_, next)) = rels.next_if(|_| absorbable) else { break };
            let keys = conj.take_keys(0..next_span.start, next_span.clone(), lo);
            right = hash_join_op(right, next, keys);
            ends.push(next_span.end);
        }
        // Rule 2: an index join when an `&&` conjunct links the tree to
        // the run; the conjunct itself stays a filter below.
        let run = lo..ends[ends.len() - 1];
        let ((left, lest), (right, rest)) = (tree, right);
        let (left, right) = (Box::new(left), Box::new(right));
        let pairs = lest.zip(rest).map(|(l, r)| l * r);
        tree = match index_link(ctx, &conj, width, run) {
            Some((method, probe, build, sel)) => {
                let est = pairs.map(|n| n * sel);
                (PhysOp::IndexJoin { left, right, method, probe, build, est }, est)
            }
            None => (PhysOp::CrossJoin { left, right, est: pairs }, pairs),
        };
        // Covered conjuncts in the stages the one-relation-at-a-time plan
        // applies them: each FROM position of the run in turn.
        for end in ends {
            width = end;
            tree = filtered(tree, conj.take_covered(width));
        }
    }
    // Anything left (complex predicates with subqueries) runs on top.
    Ok((tree.0, conj.into_remaining()))
}

/// `child` under one Filter per predicate, the first innermost, with its
/// row estimate carried up through each predicate's selectivity.
fn filtered((child, est): (PhysOp, Option<f64>), preds: Vec<BoundExpr>) -> (PhysOp, Option<f64>) {
    preds.into_iter().fold((child, est), |(child, est), pred| {
        let est = est.map(|n| n * selectivity(&pred));
        (PhysOp::Filter { pred, child: Box::new(child), est }, est)
    })
}

/// Hash-join `left` with `right` on `(left keys, right keys)`; each key
/// keeps [`JOIN_KEY_SELECTIVITY`](mduck_sql::plan::JOIN_KEY_SELECTIVITY)
/// of the pairs.
fn hash_join_op(
    (left, lest): (PhysOp, Option<f64>),
    (right, rest): (PhysOp, Option<f64>),
    (left_keys, right_keys): (Vec<BoundExpr>, Vec<BoundExpr>),
) -> (PhysOp, Option<f64>) {
    let sel = mduck_sql::plan::JOIN_KEY_SELECTIVITY.powi(left_keys.len() as i32);
    let est = lest.zip(rest).map(|(l, r)| l * r * sel);
    let op = PhysOp::HashJoin {
        left: Box::new(left),
        right: Box::new(right),
        left_keys,
        right_keys,
        est,
    };
    (op, est)
}

/// The first index method, by name, that can index values of both types.
pub fn index_method(ctx: &EngineCtx<'_>, a: &LogicalType, b: &LogicalType) -> Option<String> {
    let types = ctx.index_types.read();
    types
        .names()
        .into_iter()
        .find(|m| types.get(m).is_some_and(|t| t.can_index(a) && t.can_index(b)))
}

/// The first unplaced strict `&&` conjunct, in written order, that links
/// an expression over the tree (columns `0..width`) with one over
/// `right`, and an index method that can index both argument types:
/// `(method, probe expression over the tree, build expression over
/// `right`'s own columns, the conjunct's selectivity)`. Only strict
/// overloads qualify, so a NULL on either side can safely yield no
/// candidates.
fn index_link(
    ctx: &EngineCtx<'_>,
    conj: &JoinConjuncts,
    width: usize,
    right: Range<usize>,
) -> Option<(String, BoundExpr, BoundExpr, f64)> {
    let lo = right.start;
    let strict_overlap = |c: &BoundExpr| {
        matches!(c, BoundExpr::Call { name, strict: true, .. } if name == "&&")
    };
    conj.links(0..width, right).filter(|l| strict_overlap(l.call)).find_map(|l| {
        let method = index_method(ctx, &l.probe.ty(), &l.build.ty())?;
        let build = l.build.map_columns(&|i| i - lo);
        Some((method, l.probe.clone(), build, selectivity(l.call)))
    })
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

/// Put the FROM items of every block of `plan` in join order (the
/// join-order pass), then plan its join tree (none for a FROM-less
/// SELECT) and, recursively, its CTE bodies.
pub fn plan_select(ctx: &EngineCtx<'_>, plan: &mut BoundSelect) -> SqlResult<PlannedSelect> {
    reorder_joins(ctx, plan)?;
    plan_trees(ctx, plan)
}

fn plan_trees(ctx: &EngineCtx<'_>, plan: &BoundSelect) -> SqlResult<PlannedSelect> {
    let tree = if plan.from.is_empty() { None } else { Some(plan_joins(ctx, plan)?) };
    let ctes = plan.ctes.iter().map(|c| plan_trees(ctx, &c.plan)).collect::<SqlResult<_>>()?;
    Ok(PlannedSelect { tree, ctes })
}

fn base_relation(f: &BoundFrom) -> SqlResult<PhysOp> {
    Ok(match f {
        BoundFrom::Table { name, .. } => {
            PhysOp::SeqScan { table: name.clone(), filters: ScanFilters::default() }
        }
        BoundFrom::Cte { index, alias, .. } => {
            PhysOp::CteScan { index: *index, name: alias.clone() }
        }
        BoundFrom::Subquery { plan, schema, .. } => PhysOp::SubqueryScan {
            plan: plan.clone(),
            types: schema.fields.iter().map(|fl| fl.ty.clone()).collect(),
        },
        BoundFrom::Series { args, .. } => PhysOp::Series { args: args.clone() },
        BoundFrom::Spans { schema, .. } => PhysOp::SpansScan {
            types: schema.fields.iter().map(|fl| fl.ty.clone()).collect(),
        },
        BoundFrom::Progress { schema, .. } => PhysOp::ProgressScan {
            types: schema.fields.iter().map(|fl| fl.ty.clone()).collect(),
        },
        BoundFrom::QueryLog { schema, .. } => PhysOp::QueryLogScan {
            types: schema.fields.iter().map(|fl| fl.ty.clone()).collect(),
        },
    })
}

/// Stable snake_case operator name (span labels, bench breakdowns).
pub fn op_name(op: &PhysOp) -> &'static str {
    match op {
        PhysOp::SeqScan { .. } => "seq_scan",
        PhysOp::IndexScan { .. } => "index_scan",
        PhysOp::CteScan { .. } => "cte_scan",
        PhysOp::SubqueryScan { .. } => "subquery_scan",
        PhysOp::Series { .. } => "generate_series",
        PhysOp::SpansScan { .. } => "spans_scan",
        PhysOp::ProgressScan { .. } => "progress_scan",
        PhysOp::QueryLogScan { .. } => "query_log_scan",
        PhysOp::Filter { .. } => "filter",
        PhysOp::HashJoin { .. } => "hash_join",
        PhysOp::CrossJoin { .. } => "cross_product",
        PhysOp::IndexJoin { .. } => "index_join",
    }
}

/// The scan of base table `table` with its local conjuncts (written
/// order): an index scan when one conjunct matches an index, else a
/// sequential scan with every conjunct fused in.
fn table_scan(ctx: &EngineCtx<'_>, table: String, mut preds: Vec<BoundExpr>) -> SqlResult<PhysOp> {
    for pos in 0..preds.len() {
        if let Some((index, op, constant)) = match_index_pattern(ctx, &table, &preds[pos])? {
            *ctx.used_index_scan.borrow_mut() = true;
            let indexed = preds.remove(pos);
            let mut fallback = Vec::with_capacity(preds.len() + 1);
            fallback.push(indexed);
            fallback.extend(preds.iter().cloned());
            return Ok(PhysOp::IndexScan {
                table,
                index,
                op,
                constant,
                filters: ScanFilters::new(preds),
                fallback: ScanFilters::new(fallback),
            });
        }
    }
    Ok(PhysOp::SeqScan { table, filters: ScanFilters::new(preds) })
}

/// Recognize `col <op> constant` (or commuted `&&`) over an indexed
/// column of `table`. Returns `(index name, operator, constant)` when an
/// index covers the column. Equality comparisons (`Compare =`) are
/// declined: the index scan does not re-check its hits.
fn match_index_pattern(
    ctx: &EngineCtx<'_>,
    table: &str,
    pred: &BoundExpr,
) -> SqlResult<Option<(String, String, Value)>> {
    if !matches!(pred, BoundExpr::Call { .. }) {
        return Ok(None);
    }
    let Some((col, op, constant)) = index_pattern(pred) else {
        return Ok(None);
    };
    let t = ctx.catalog.get(table)?;
    let t = t.read();
    Ok(t.indexes
        .iter()
        .find(|idx| idx.column() == col)
        .map(|idx| (idx.name().to_string(), op.to_string(), constant.clone())))
}

// ------------------------------------------------------------ execution

/// Execute a physical tree, producing chunks.
///
/// This is a thin observability wrapper around [`run_op`]: it bumps the
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

/// Charge `n` scanned rows to the guard, the statement statistic, the
/// global metric, and (under profiling) the scan node itself.
fn note_scanned(ctx: &EngineCtx<'_>, op: &PhysOp, n: usize) -> SqlResult<()> {
    ctx.guard.check_rows(n)?;
    ctx.guard.note_scanned(n);
    *ctx.rows_scanned.borrow_mut() += n;
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
        PhysOp::IndexScan { table, index: _, op: iop, constant, filters, fallback } => {
            let t = ctx.catalog.get(table)?;
            let t = t.read();
            let mut hit = None;
            for idx in &t.indexes {
                if let Some(rows) = idx.try_scan(iop, constant)? {
                    hit = Some(rows);
                    break;
                }
            }
            match hit {
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
        PhysOp::SpansScan { types } => {
            let rows = mduck_sql::introspect::span_rows();
            ctx.guard.check_rows(rows.len())?;
            let out = Chunks::from_rows(types, &rows)?;
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::ProgressScan { types } => {
            let rows = mduck_sql::introspect::progress_rows();
            ctx.guard.check_rows(rows.len())?;
            let out = Chunks::from_rows(types, &rows)?;
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::QueryLogScan { types } => {
            let rows = mduck_sql::introspect::query_log_rows();
            ctx.guard.check_rows(rows.len())?;
            let out = Chunks::from_rows(types, &rows)?;
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::Filter { pred, child, .. } => {
            let input = execute_op(ctx, child, outer)?;
            filter_chunks(ctx, input, pred, outer, &exec, op_key(op))
        }
        PhysOp::CrossJoin { left, right, .. } => {
            let l = execute_op(ctx, left, outer)?;
            let r = execute_op(ctx, right, outer)?;
            pair_join(ctx, &l, &r, None, outer, &exec, op_key(op))
        }
        PhysOp::HashJoin { left, right, left_keys, right_keys, .. } => {
            let l = execute_op(ctx, left, outer)?;
            let r = execute_op(ctx, right, outer)?;
            hash_join(ctx, &l, &r, left_keys, right_keys, outer, &exec, op_key(op))
        }
        PhysOp::IndexJoin { left, right, method, probe, build, .. } => {
            let l = execute_op(ctx, left, outer)?;
            let r = execute_op(ctx, right, outer)?;
            let link = Some((method.as_str(), probe, build));
            pair_join(ctx, &l, &r, link, outer, &exec, op_key(op))
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

/// What one scan window produced.
struct ScanPart {
    chunk: Option<DataChunk>,
    /// Rows the fused conjuncts dropped.
    dropped: u64,
    /// Bytes materialized: predicate chunks plus the surviving rows.
    bytes: u64,
}

/// Scan `rows` of `table` with `filters` fused in, one [`VECTOR_SIZE`]
/// window at a time (one window = one morsel on the parallel path).
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
    let key = op_key(op);
    let visited = rows.len(table);
    if let ScanRows::All = rows {
        mduck_obs::metrics().full_scans.inc(1);
    }
    note_scanned(ctx, op, visited)?;
    let windows = visited.div_ceil(VECTOR_SIZE);
    if let Some(pr) = &ctx.progress {
        pr.add_total(windows as u64);
    }
    let parts = if ctx.parallel_ok(outer) && windows >= MIN_PARALLEL_MORSELS {
        // Fused conjuncts are never complex (the planner keeps subquery
        // predicates above the joins), so workers evaluate them with
        // `NoSubqueries`. Workers charge the shared guard as they
        // materialize; the coordinator attributes the bytes to the node
        // afterwards (the profile is not thread-safe).
        let guard = ctx.guard;
        let progress = ctx.progress.as_deref();
        let (parts, stats) = morsel_map(ctx.threads, windows, |w| {
            guard.tick()?;
            let part = scan_window(table, rows, w, filters, &OuterStack::EMPTY, &NoSubqueries)?;
            guard.charge_mem(part.bytes)?;
            if let Some(pr) = progress {
                pr.add_done(1);
            }
            Ok(part)
        })?;
        if let Some(stats) = &stats {
            ctx.record_parallel(key, "scan", stats);
        }
        ctx.attribute_op_mem(key, parts.iter().map(|p| p.bytes).sum());
        parts
    } else {
        let mut parts = Vec::with_capacity(windows);
        for w in 0..windows {
            ctx.guard.tick()?;
            let part = scan_window(table, rows, w, filters, outer, exec)?;
            ctx.charge_op_mem(key, part.bytes)?;
            if let Some(pr) = &ctx.progress {
                pr.add_done(1);
            }
            parts.push(part);
        }
        parts
    };
    let mut out = Chunks::default();
    let mut dropped = 0u64;
    for part in parts {
        dropped += part.dropped;
        out.chunks.extend(part.chunk);
    }
    mduck_obs::metrics().rows_filtered.inc(dropped);
    Ok(out)
}

/// Window `w` of a fused scan: evaluate each conjunct on its own columns
/// for the rows still alive, then gather the survivors of every column.
fn scan_window(
    table: &Table,
    rows: ScanRows<'_>,
    w: usize,
    filters: &ScanFilters,
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
) -> SqlResult<ScanPart> {
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
    Ok(ScanPart { chunk, dropped: (window.len() - kept) as u64, bytes })
}

/// Apply `pred` across all chunks. `key` names the owning operator or
/// plan for parallel actuals. Fans out to the morsel pool when the
/// statement allows it and the predicate carries no subqueries (workers
/// evaluate with [`NoSubqueries`] and an empty outer stack). A chunk every
/// row of which passes moves to the output as it is; only partly kept
/// chunks are copied, and charged to the memory guard.
fn filter_chunks(
    ctx: &EngineCtx<'_>,
    input: Chunks,
    pred: &BoundExpr,
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
    key: usize,
) -> SqlResult<Chunks> {
    if let Some(pr) = &ctx.progress {
        pr.add_total(input.chunks.len() as u64);
    }
    if ctx.parallel_ok(outer)
        && !pred.is_complex()
        && input.chunks.len() >= MIN_PARALLEL_MORSELS
    {
        let guard = ctx.guard;
        let chunks = &input.chunks;
        let progress = ctx.progress.as_deref();
        let (results, stats) = morsel_map(ctx.threads, chunks.len(), |i| {
            guard.tick()?;
            let chunk = &chunks[i];
            let sel = filter_chunk(pred, chunk, &OuterStack::EMPTY, &NoSubqueries)?;
            let dropped = (chunk.len - sel.len()) as u64;
            let kept = if sel.len() == chunk.len {
                Kept::All
            } else if sel.is_empty() {
                Kept::None
            } else {
                // The kept copy is a fresh buffer: charge the shared guard
                // from the worker so the memory limit trips mid-stage.
                let part = chunk.select(&sel);
                guard.charge_mem(part.approx_bytes())?;
                Kept::Part(part)
            };
            if let Some(pr) = progress {
                pr.add_done(1);
            }
            Ok((kept, dropped))
        })?;
        if let Some(stats) = &stats {
            ctx.record_parallel(key, "filter", stats);
        }
        // Per-worker counters are merged by the coordinator and flushed
        // into the global registry exactly once per stage.
        let mut counters = mduck_obs::WorkerCounters::default();
        let mut out = Chunks::default();
        let mut bytes = 0u64;
        for (chunk, (kept, dropped)) in input.chunks.into_iter().zip(results) {
            counters.rows_filtered += dropped;
            match kept {
                Kept::All => out.chunks.push(chunk),
                Kept::None => {}
                Kept::Part(part) => {
                    bytes += part.approx_bytes();
                    out.chunks.push(part);
                }
            }
        }
        counters.flush();
        ctx.attribute_op_mem(key, bytes);
        return Ok(out);
    }
    let mut out = Chunks::default();
    let mut dropped = 0u64;
    let mut bytes = 0u64;
    for chunk in input.chunks {
        ctx.guard.tick()?;
        let sel = filter_chunk(pred, &chunk, outer, exec)?;
        dropped += (chunk.len - sel.len()) as u64;
        if sel.len() == chunk.len {
            out.chunks.push(chunk);
        } else if !sel.is_empty() {
            let part = chunk.select(&sel);
            bytes += part.approx_bytes();
            out.chunks.push(part);
        }
        if let Some(pr) = &ctx.progress {
            pr.add_done(1);
        }
    }
    ctx.charge_op_mem(key, bytes)?;
    mduck_obs::metrics().rows_filtered.inc(dropped);
    Ok(out)
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

/// What one left chunk of a cross product or index join produced.
#[derive(Default)]
struct PairPart {
    chunks: Vec<DataChunk>,
    /// Left rows the index answered (the rest paired with every right row).
    probes: u64,
    /// Pairs emitted.
    pairs: u64,
    /// Bytes of the emitted chunks (already charged to the guard).
    bytes: u64,
}

/// The cross product of `l` and `r` (`link` = `None`), or an index join:
/// the pairs a transient index over the `build` expression of `link`
/// (evaluated once per right row, indexed through its method) returns
/// for the `probe` expression (evaluated once per left row). Pairs come
/// out in cross-product order: left rows in order, each with its right
/// rows — or candidates — in ascending order. The index only skips pairs
/// whose boxes cannot overlap; the `&&` conjunct is re-checked by the
/// Filter above, so a probe the index cannot answer (declined, no box,
/// evaluation error) pairs with every right row, and a NULL probe with
/// none.
fn pair_join(
    ctx: &EngineCtx<'_>,
    l: &Chunks,
    r: &Chunks,
    link: Option<(&str, &BoundExpr, &BoundExpr)>,
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
    let index = link.and_then(|(method, probe, build)| {
        let index = build_index(ctx, method, build, &rflat, outer, exec)?;
        m.index_join_builds.inc(1);
        Some((index, probe))
    });
    let index = index.as_ref().map(|(idx, probe)| (idx.as_ref(), *probe));
    if let Some(pr) = &ctx.progress {
        pr.add_total(l.chunks.len() as u64);
    }
    let parts = if ctx.parallel_ok(outer) && l.chunks.len() >= MIN_PARALLEL_MORSELS {
        // The probe expression is simple (the planner only links
        // conjuncts without subqueries), so workers evaluate it with
        // `NoSubqueries`.
        let guard = ctx.guard;
        let progress = ctx.progress.as_deref();
        let (parts, stats) = morsel_map(ctx.threads, l.chunks.len(), |i| {
            let part = pair_chunk(
                guard,
                &l.chunks[i],
                &rflat,
                index,
                &OuterStack::EMPTY,
                &NoSubqueries,
            )?;
            if let Some(pr) = progress {
                pr.add_done(1);
            }
            Ok(part)
        })?;
        if let Some(stats) = &stats {
            ctx.record_parallel(key, "pairs", stats);
        }
        parts
    } else {
        let mut parts = Vec::with_capacity(l.chunks.len());
        for lchunk in &l.chunks {
            parts.push(pair_chunk(ctx.guard, lchunk, &rflat, index, outer, exec)?);
            if let Some(pr) = &ctx.progress {
                pr.add_done(1);
            }
        }
        parts
    };
    let mut out = Chunks::default();
    let (mut probes, mut pairs, mut bytes) = (0u64, 0u64, 0u64);
    for part in parts {
        probes += part.probes;
        pairs += part.pairs;
        bytes += part.bytes;
        out.chunks.extend(part.chunks);
    }
    ctx.attribute_op_mem(key, bytes);
    m.rows_joined.inc(pairs);
    if link.is_some() {
        m.index_join_candidates.inc(pairs);
        if let Some(p) = &ctx.profile {
            let mut ops = p.ops.borrow_mut();
            let e = ops.entry(key).or_default();
            e.build_rows += rflat.len as u64;
            e.probes += probes;
            e.candidates += pairs;
        }
    }
    Ok(out)
}

/// Index the right rows' `build` values through `method`, row id = right
/// row number. `None` when the values cannot be computed or indexed: the
/// join then pairs every left row with every right row and lets the
/// re-check decide, exactly as the cross product does.
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

/// Pair every row of one left chunk with its right rows (all of them, or
/// the candidates `index` returns for its `probe` value), emitting the
/// pairs in [`VECTOR_SIZE`] chunks charged to the row budget and memory
/// guard.
fn pair_chunk(
    guard: &ExecGuard,
    lchunk: &DataChunk,
    rflat: &DataChunk,
    index: Option<(&dyn TableIndex, &BoundExpr)>,
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
) -> SqlResult<PairPart> {
    guard.tick()?;
    let mut part = PairPart::default();
    // A chunk whose probe values cannot be computed pairs every row with
    // every right row; the re-check then meets the same error, if any,
    // the cross product would have.
    let probed = index.and_then(|(idx, probe)| {
        eval_vector(probe, lchunk, outer, exec).ok().map(|values| (idx, values))
    });
    let all: Vec<usize> = (0..rflat.len).collect();
    let (mut lsel, mut rsel) = (Vec::new(), Vec::new());
    for li in 0..lchunk.len {
        let hits = probed.as_ref().and_then(|(idx, values)| {
            let v = values.get(li);
            if v.is_null() {
                return Some(Vec::new());
            }
            match idx.try_scan("&&", &v) {
                Ok(Some(ids)) => {
                    let mut ids: Vec<usize> = ids.into_iter().map(|r| r as usize).collect();
                    ids.sort_unstable();
                    Some(ids)
                }
                _ => None,
            }
        });
        if hits.is_some() {
            part.probes += 1;
        }
        for &ri in hits.as_deref().unwrap_or(&all) {
            lsel.push(li);
            rsel.push(ri);
            if lsel.len() >= VECTOR_SIZE {
                emit_pairs(guard, &mut part, lchunk, &mut lsel, rflat, &mut rsel)?;
            }
        }
    }
    if !lsel.is_empty() {
        emit_pairs(guard, &mut part, lchunk, &mut lsel, rflat, &mut rsel)?;
    }
    Ok(part)
}

/// Materialize the selected pairs as one output chunk and clear the
/// selections.
fn emit_pairs(
    guard: &ExecGuard,
    part: &mut PairPart,
    lchunk: &DataChunk,
    lsel: &mut Vec<usize>,
    rflat: &DataChunk,
    rsel: &mut Vec<usize>,
) -> SqlResult<()> {
    guard.check_rows(lsel.len())?;
    let chunk = combine(lchunk, lsel, rflat, rsel);
    let bytes = chunk.approx_bytes();
    guard.charge_mem(bytes)?;
    part.pairs += lsel.len() as u64;
    part.bytes += bytes;
    part.chunks.push(chunk);
    lsel.clear();
    rsel.clear();
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn hash_join(
    ctx: &EngineCtx<'_>,
    l: &Chunks,
    r: &Chunks,
    left_keys: &[BoundExpr],
    right_keys: &[BoundExpr],
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
    key_op: usize,
) -> SqlResult<Chunks> {
    // Build on the right side. The flattened build chunk plus a rough
    // per-entry estimate for the hash table itself are charged up front —
    // the build side is the operator's dominant allocation.
    let rtypes = chunk_types(r);
    let rflat = flatten(r, rtypes)?;
    ctx.charge_op_mem(key_op, rflat.approx_bytes() + rflat.len as u64 * 48)?;
    let mut table: HashMap<Vec<u8>, Vec<usize>> = HashMap::with_capacity(rflat.len);
    if rflat.len > 0 {
        let key_cols: SqlResult<Vec<ColumnData>> = right_keys
            .iter()
            .map(|k| eval_vector(k, &rflat, outer, exec))
            .collect();
        let key_cols = key_cols?;
        let mut key = Vec::new();
        for i in 0..rflat.len {
            key.clear();
            let mut has_null = false;
            for kc in &key_cols {
                let v = kc.get(i);
                if v.is_null() {
                    has_null = true;
                    break;
                }
                v.hash_key(&mut key);
            }
            if !has_null {
                table.entry(key.clone()).or_default().push(i);
            }
        }
    }
    let mut out = Chunks::default();
    for lchunk in &l.chunks {
        if lchunk.len == 0 {
            continue;
        }
        let key_cols: SqlResult<Vec<ColumnData>> = left_keys
            .iter()
            .map(|k| eval_vector(k, lchunk, outer, exec))
            .collect();
        let key_cols = key_cols?;
        let mut lsel = Vec::new();
        let mut rsel = Vec::new();
        let mut key = Vec::new();
        for i in 0..lchunk.len {
            key.clear();
            let mut has_null = false;
            for kc in &key_cols {
                let v = kc.get(i);
                if v.is_null() {
                    has_null = true;
                    break;
                }
                v.hash_key(&mut key);
            }
            if has_null {
                continue;
            }
            if let Some(matches) = table.get(&key) {
                for &ri in matches {
                    lsel.push(i);
                    rsel.push(ri);
                    if lsel.len() >= VECTOR_SIZE {
                        ctx.guard.check_rows(lsel.len())?;
                        let chunk = combine(lchunk, &lsel, &rflat, &rsel);
                        ctx.charge_op_mem(key_op, chunk.approx_bytes())?;
                        out.chunks.push(chunk);
                        lsel.clear();
                        rsel.clear();
                    }
                }
            }
        }
        if !lsel.is_empty() {
            ctx.guard.check_rows(lsel.len())?;
            let chunk = combine(lchunk, &lsel, &rflat, &rsel);
            ctx.charge_op_mem(key_op, chunk.approx_bytes())?;
            out.chunks.push(chunk);
        }
    }
    mduck_obs::metrics().rows_joined.inc(out.row_count() as u64);
    Ok(out)
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
                chunks = filter_chunks(ctx, chunks, pred, outer, &exec, plan_key(plan))?;
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
        let simple = plan.projections.iter().all(|p| !p.is_complex());
        if ctx.parallel_ok(outer) && simple && input.chunks.len() >= MIN_PARALLEL_MORSELS {
            // Parallel projection: each worker projects whole chunks into
            // row vectors, reassembled in chunk order.
            let guard = ctx.guard;
            let chunks = &input.chunks;
            let projections = &plan.projections;
            let progress = ctx.progress.as_deref();
            if let Some(pr) = progress {
                pr.add_total(chunks.len() as u64);
            }
            let (parts, stats) = morsel_map(ctx.threads, chunks.len(), |ci| {
                let chunk = &chunks[ci];
                guard.check_rows(chunk.len)?;
                let proj_cols: SqlResult<Vec<ColumnData>> = projections
                    .iter()
                    .map(|p| eval_vector(p, chunk, &OuterStack::EMPTY, &NoSubqueries))
                    .collect();
                let proj_cols = proj_cols?;
                let mut part = RowTail::new(plan);
                for i in 0..chunk.len {
                    part.push(proj_cols.iter().map(|c| c.get(i)).collect(), || chunk.row(i));
                }
                if let Some(pr) = progress {
                    pr.add_done(1);
                }
                Ok(part)
            })?;
            if let Some(stats) = &stats {
                ctx.record_parallel(plan_key(plan), "projection", stats);
            }
            for part in parts {
                tail.append(part);
            }
        } else {
            for chunk in &input.chunks {
                ctx.guard.check_rows(chunk.len)?;
                // Vectorized projection straight off the input chunks.
                let proj_cols: SqlResult<Vec<ColumnData>> = plan
                    .projections
                    .iter()
                    .map(|p| eval_vector(p, chunk, outer, &exec))
                    .collect();
                let proj_cols = proj_cols?;
                for i in 0..chunk.len {
                    tail.push(proj_cols.iter().map(|c| c.get(i)).collect(), || chunk.row(i));
                }
            }
        }
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
/// Three execution paths, chosen per statement:
/// 1. **Two-phase parallel** — every aggregate state supports
///    [`mduck_sql::AggState::exact_merge`] and none is DISTINCT: workers
///    fold *contiguous* chunk ranges into partial group sets, merged
///    serially in range order.
/// 2. **Hybrid parallel** — some state merges inexactly (float sums) or
///    is DISTINCT: workers only evaluate group keys / arguments per
///    chunk; the state fold stays serial in chunk order.
/// 3. **Serial** — complex expressions (subqueries), correlated context,
///    or too little input.
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

    let n = input.chunks.len();
    let complex = plan.group_by.iter().any(BoundExpr::is_complex)
        || plan
            .aggregates
            .iter()
            .any(|a| a.args.iter().any(BoundExpr::is_complex));
    let parallel = ctx.parallel_ok(outer) && !complex && n >= MIN_PARALLEL_MORSELS;
    // DISTINCT gates updates *before* they reach the state, so partial
    // states would double-count across workers — those statements use the
    // hybrid path, as do aggregates whose merge is not exact (float sums).
    let two_phase = parallel
        && !plan.aggregates.iter().any(|a| a.distinct)
        && plan.aggregates.iter().all(|a| (a.factory)().exact_merge());

    let mut set = GroupSet::default();
    let progress = ctx.progress.as_deref();
    if two_phase {
        // Phase 1: contiguous chunk ranges → partial group sets. Ranges
        // (rather than dynamic single-chunk claiming) keep every state's
        // update order a subsequence of the serial order.
        let chunks = &input.chunks;
        let ranges = contiguous_ranges(n, ctx.threads);
        if let Some(pr) = progress {
            pr.add_total(ranges.len() as u64);
        }
        let (partials, stats) = morsel_map(ctx.threads, ranges.len(), |ri| {
            let mut part = GroupSet::default();
            for chunk in &chunks[ranges[ri].clone()] {
                guard.check_rows(chunk.len)?;
                let (key_cols, arg_cols) =
                    eval_cols(chunk, &OuterStack::EMPTY, &NoSubqueries)?;
                fold_cols(&mut part, chunk.len, &key_cols, &arg_cols)?;
            }
            if let Some(pr) = progress {
                pr.add_done(1);
            }
            Ok(part)
        })?;
        if let Some(stats) = &stats {
            ctx.record_parallel(plan_key(plan), "aggregate", stats);
        }
        // Phase 2: merge partials in range order — group discovery order
        // and state contents match a serial left-to-right run exactly.
        for partial in partials {
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
        }
    } else if parallel {
        // Hybrid: parallel expression evaluation, serial state fold.
        let chunks = &input.chunks;
        if let Some(pr) = progress {
            pr.add_total(n as u64);
        }
        let (cols, stats) = morsel_map(ctx.threads, n, |i| {
            let chunk = &chunks[i];
            guard.check_rows(chunk.len)?;
            let (key_cols, arg_cols) = eval_cols(chunk, &OuterStack::EMPTY, &NoSubqueries)?;
            if let Some(pr) = progress {
                pr.add_done(1);
            }
            Ok((chunk.len, key_cols, arg_cols))
        })?;
        if let Some(stats) = &stats {
            ctx.record_parallel(plan_key(plan), "aggregate", stats);
        }
        for (len, key_cols, arg_cols) in &cols {
            ctx.guard.tick()?;
            fold_cols(&mut set, *len, key_cols, arg_cols)?;
        }
    } else {
        if let Some(pr) = progress {
            pr.add_total(input.chunks.len() as u64);
        }
        for chunk in &input.chunks {
            ctx.guard.check_rows(chunk.len)?;
            let (key_cols, arg_cols) = eval_cols(chunk, outer, &exec)?;
            fold_cols(&mut set, chunk.len, &key_cols, &arg_cols)?;
            if let Some(pr) = progress {
                pr.add_done(1);
            }
        }
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
