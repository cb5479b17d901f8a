//! The embeddable database instance: the `duckdb.Connection` analogue.
//!
//! The statement front door (`mduck_sql::session`) and the commit path
//! (`mduck_wal::durable`) are shared with the row engine; this file keeps
//! what the vectorized engine does differently: columnar storage, the
//! bind → plan → execute SELECT path, UPDATE/DELETE staging over column
//! vectors, and index rebuilds.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mduck_obs::QueryProgress;
use mduck_sync::RwLock;
use mduck_wal::{
    dml_record, Commit, Durability, DurabilityManager, DurableEngine, IndexDef, Snapshot,
    TableSnapshot, WalRecord,
};

use mduck_sql::ast::{InsertSource, SelectStmt, Statement};
use mduck_sql::catalog::BaseTable;
use mduck_sql::eval::OuterStack;
use mduck_sql::session::{self, ActiveQuery, BoundDml, Logged, Session, MAX_THREADS};
use mduck_sql::{
    parse_statement, Binder, Catalog, ExecGuard, ExecLimits, Expr, LogicalType, Registry, SqlError,
    SqlResult, Value,
};

use crate::catalog::{DbCatalog, Table};
use crate::column::ColumnData;
use crate::exec::{execute_select, execute_select_planned, plan_key, plan_select, EngineCtx};
use crate::explain::{
    op_breakdown, render_plan, render_plan_analyzed, stage_breakdown, AnalyzeData, OpBreakdown,
    StageBreakdown,
};
use crate::index::IndexTypeRegistry;
use mduck_sql::index::StagedIndexes;

pub use mduck_sql::QueryResult;

/// An in-process database instance (the DuckDB substrate).
///
/// Extensions install themselves by mutating [`Database::registry_mut`] and
/// [`Database::index_types_mut`] at load time, exactly as MobilityDuck
/// registers its types, functions, casts, operators, and the TRTREE index
/// type against DuckDB (§3.3–§4.1).
pub struct Database {
    pub catalog: DbCatalog,
    registry: Arc<RwLock<Registry>>,
    index_types: Arc<RwLock<IndexTypeRegistry>>,
    session: Session,
    durable: Durability,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// A fresh instance with the built-in SQL surface.
    pub fn new() -> Self {
        Database {
            catalog: DbCatalog::default(),
            registry: Arc::new(RwLock::new(Registry::with_builtins())),
            index_types: Arc::new(RwLock::new(IndexTypeRegistry::default())),
            session: Session::new("vecdb", MAX_THREADS),
            durable: Durability::default(),
        }
    }

    /// A durable instance: open (or create) the WAL at `path`, recover
    /// whatever a previous process committed, and log every later DDL
    /// and DML statement. Only the built-in SQL surface is recovered —
    /// databases using extension types must [`Database::new`], load the
    /// extension, then attach with [`Database::attach_wal`] so recovery
    /// can decode the extension values.
    pub fn open(path: impl AsRef<Path>) -> SqlResult<Self> {
        let db = Self::new();
        db.attach_wal(path)?;
        Ok(db)
    }

    /// Completion estimate of the most recent [`Database::execute`] /
    /// [`Database::execute_analyzed`] statement: monotonically
    /// non-decreasing in `[0, 1]`, exactly `1.0` once finished, `None`
    /// before any statement ran. Safe to poll from another thread while
    /// the statement is still executing.
    pub fn progress(&self) -> Option<f64> {
        self.session.progress()
    }

    /// Set the worker-thread count for morsel-driven execution; `0`
    /// restores auto-detection. Equivalent to `PRAGMA threads = N`.
    pub fn set_threads(&self, n: usize) {
        self.session.set_threads(n)
    }

    /// The configured thread count (`0` = auto-detect).
    pub fn threads(&self) -> usize {
        self.session.threads()
    }

    /// The thread count statements actually execute with: the configured
    /// value, or (when auto) the `MDUCK_THREADS` environment variable,
    /// or `std::thread::available_parallelism`.
    pub fn effective_threads(&self) -> usize {
        self.session.effective_threads()
    }

    /// Set the resource limits applied to every subsequent statement.
    pub fn set_exec_limits(&self, limits: ExecLimits) {
        self.session.set_limits(limits);
    }

    /// The resource limits currently in force.
    pub fn exec_limits(&self) -> ExecLimits {
        self.session.limits()
    }

    /// Mutate the function/type/cast registry (extension load hook).
    pub fn registry_mut(&self) -> mduck_sync::RwLockWriteGuard<'_, Registry> {
        self.registry.write()
    }

    pub fn registry(&self) -> mduck_sync::RwLockReadGuard<'_, Registry> {
        self.registry.read()
    }

    /// Mutate the index-type registry (extension load hook).
    pub fn index_types_mut(&self) -> mduck_sync::RwLockWriteGuard<'_, IndexTypeRegistry> {
        self.index_types.write()
    }

    /// Attach a WAL to a live database (`PRAGMA wal='path'`): recover
    /// the on-disk state into the catalog, then log every later DDL/DML
    /// statement (see [`Durability::attach`]).
    pub fn attach_wal(&self, path: impl AsRef<Path>) -> SqlResult<()> {
        self.durable.attach(self, path.as_ref())
    }

    /// Detach the WAL (`PRAGMA wal='off'`). Already-logged state stays
    /// on disk; later statements are in-memory only.
    pub fn detach_wal(&self) {
        self.durable.detach()
    }

    /// The attached durability manager, if any.
    pub fn wal(&self) -> Option<Arc<DurabilityManager>> {
        self.durable.manager()
    }

    /// Bulk-insert pre-typed rows through the full commit path: atomic
    /// append, WAL record, auto-checkpoint — identical durability to an
    /// `INSERT` statement, without parse/bind overhead. This is what
    /// bulk loaders (berlinmod) should call so loaded data survives a
    /// crash like any other committed rows.
    pub fn insert_rows(&self, table: &str, rows: &[Vec<Value>]) -> SqlResult<usize> {
        self.durable.insert_rows(self, table, Cow::Borrowed(rows))
    }

    /// Snapshot the whole database into the checkpoint file and truncate
    /// the WAL (the `CHECKPOINT` statement). Returns `false` (and does
    /// nothing) when no WAL is attached.
    pub fn checkpoint(&self) -> SqlResult<bool> {
        self.durable.checkpoint(self)
    }

    /// Execute one SQL statement. `SHOW TABLES` and `DESCRIBE <table>`
    /// are handled as utility statements, as in DuckDB's shell.
    pub fn execute(&self, sql: &str) -> SqlResult<QueryResult> {
        if let Some(result) = session::utility(sql, &self.catalog) {
            return result;
        }
        let stmt = parse_timed(sql)?;
        self.execute_logged(sql, &stmt, &self.session.guard())
    }

    /// Execute one SQL statement under a caller-supplied guard, so the
    /// caller can keep the [`mduck_sql::CancelHandle`] (to cancel from
    /// another thread) or spend one budget across several statements.
    pub fn execute_with_guard(&self, sql: &str, guard: &ExecGuard) -> SqlResult<QueryResult> {
        let stmt = parse_timed(sql)?;
        self.execute_logged(sql, &stmt, guard)
    }

    /// Shared body of the SQL-text entry points: one logged run through
    /// the session. Statements that arrive pre-parsed
    /// ([`Database::execute_statement`]) skip the log — there is no SQL
    /// text to record for them.
    fn execute_logged(
        &self,
        sql: &str,
        stmt: &Statement,
        guard: &ExecGuard,
    ) -> SqlResult<QueryResult> {
        match stmt {
            // While the JSONL sink is live, SELECTs run under profiling so
            // slow statements can attach their EXPLAIN ANALYZE text.
            Statement::Select(sel) if mduck_obs::query_log_sink_active() => {
                Ok(self.run_analyzed_logged(sql, sel, guard)?.result)
            }
            _ => self.session.run_logged(
                sql,
                guard,
                |p| self.run_statement(stmt, guard, Some(Arc::clone(p))),
                |_| None,
            ),
        }
    }

    /// A profiled SELECT through the logged session wrapper; slow ones
    /// attach their `EXPLAIN ANALYZE` text to the query log.
    fn run_analyzed_logged(
        &self,
        sql: &str,
        sel: &SelectStmt,
        guard: &ExecGuard,
    ) -> SqlResult<ProfiledQuery> {
        self.session.run_logged(
            sql,
            guard,
            |p| self.run_select(sel, guard, Some(Arc::clone(p)), true),
            |pq| Some(pq.explain.clone()),
        )
    }

    /// Execute a `;`-separated script, returning the last result.
    pub fn execute_script(&self, sql: &str) -> SqlResult<QueryResult> {
        let stmts = mduck_sql::parse_script(sql)?;
        let mut last = QueryResult::empty();
        for s in &stmts {
            last = self.execute_statement(s)?;
        }
        Ok(last)
    }

    /// Execute a parsed statement under the database's configured limits.
    pub fn execute_statement(&self, stmt: &Statement) -> SqlResult<QueryResult> {
        self.execute_statement_guarded(stmt, &self.session.guard())
    }

    /// Execute a parsed statement under a caller-supplied guard.
    ///
    /// This is the engine's no-panic boundary: any panic that escapes the
    /// executor (a bug, by contract) is caught here and surfaced as
    /// [`SqlError::Internal`] instead of unwinding into the host process.
    pub fn execute_statement_guarded(
        &self,
        stmt: &Statement,
        guard: &ExecGuard,
    ) -> SqlResult<QueryResult> {
        session::catch_panics(|| self.run_statement(stmt, guard, None))
    }

    fn run_statement(
        &self,
        stmt: &Statement,
        guard: &ExecGuard,
        progress: Option<Arc<QueryProgress>>,
    ) -> SqlResult<QueryResult> {
        match stmt {
            Statement::Select(sel) => Ok(self.run_select(sel, guard, progress, false)?.result),
            Statement::Explain { statement, analyze } => {
                let Statement::Select(sel) = statement.as_ref() else {
                    return Err(SqlError::Bind("EXPLAIN supports SELECT".into()));
                };
                let text = if *analyze {
                    self.run_select(sel, guard, progress, true)?.explain
                } else {
                    let registry = self.registry.read();
                    let mut plan = Binder::new(&self.catalog, &registry).bind_select(sel)?;
                    let ctx = EngineCtx::new(&self.catalog, &registry, &self.index_types, guard);
                    let planned = plan_select(&ctx, &mut plan)?;
                    render_plan(&plan, &planned)
                };
                Ok(QueryResult::single("explain", LogicalType::Text, Value::text(text)))
            }
            Statement::Pragma { name, value } => {
                let value = value.as_ref();
                self.durable
                    .pragma(self, name, value)
                    .unwrap_or_else(|| self.session.pragma(name, value))
            }
            Statement::CreateTable { name, columns, if_not_exists } => {
                self.durable.create_table(self, name, columns, *if_not_exists)
            }
            Statement::DropTable { name, if_exists } => {
                self.durable.drop_table(self, name, *if_exists)
            }
            Statement::CreateIndex { name, table, method, column } => {
                self.durable.create_index(self, name, table, method, column)
            }
            Statement::Checkpoint => self.durable.checkpoint_statement(self),
            Statement::Insert { table, columns, source } => {
                // Compute the incoming rows first (they may SELECT from
                // the target).
                let incoming = {
                    let registry = self.registry.read();
                    match source {
                        InsertSource::Values(rows) => {
                            session::eval_values(rows, &self.catalog, &registry)?
                        }
                        InsertSource::Select(sel) => {
                            let plan = Binder::new(&self.catalog, &registry).bind_select(sel)?;
                            let ctx =
                                EngineCtx::new(&self.catalog, &registry, &self.index_types, guard)
                                    .with_threads(self.effective_threads());
                            execute_select(&ctx, &plan, &OuterStack::EMPTY)?
                        }
                    }
                };
                self.durable.insert(self, guard, table, columns.as_deref(), incoming)
            }
            Statement::Update { table, sets, where_clause } => {
                Ok(QueryResult::count(self.modify(table, sets, where_clause.as_ref(), guard)?))
            }
            Statement::Delete { table, where_clause } => {
                Ok(QueryResult::count(self.modify(table, &[], where_clause.as_ref(), guard)?))
            }
        }
    }

    /// Execute a SELECT with per-operator profiling enabled and return the
    /// result alongside the analyzed plan rendering and a flattened
    /// per-operator breakdown (the programmatic `EXPLAIN ANALYZE`).
    pub fn execute_analyzed(&self, sql: &str) -> SqlResult<ProfiledQuery> {
        let stmt = parse_timed(sql)?;
        let Statement::Select(sel) = stmt else {
            return Err(SqlError::Bind("execute_analyzed supports SELECT".into()));
        };
        self.run_analyzed_logged(sql, &sel, &self.session.guard())
    }

    /// Bind, plan and execute one SELECT. With `profiling`, operators
    /// record their actuals and the result carries the `EXPLAIN ANALYZE`
    /// rendering plus the per-operator and per-stage breakdowns; without
    /// it those stay empty.
    fn run_select(
        &self,
        sel: &SelectStmt,
        guard: &ExecGuard,
        progress: Option<Arc<QueryProgress>>,
        profiling: bool,
    ) -> SqlResult<ProfiledQuery> {
        let _active = ActiveQuery::begin();
        let m = mduck_obs::metrics();
        let _query_span = mduck_obs::span("vecdb.query");
        let registry = self.registry.read();
        let bind_start = Instant::now();
        let mut plan = {
            let _s = mduck_obs::span("vecdb.bind");
            Binder::new(&self.catalog, &registry).bind_select(sel)?
        };
        m.vecdb_bind_ns.observe(bind_start.elapsed().as_nanos() as u64);
        let mut ctx = EngineCtx::new(&self.catalog, &registry, &self.index_types, guard)
            .with_threads(self.effective_threads())
            .with_progress(progress);
        if profiling {
            ctx.enable_profiling();
        }
        let plan_start = Instant::now();
        let planned = {
            let _s = mduck_obs::span("vecdb.plan");
            plan_select(&ctx, &mut plan)?
        };
        m.vecdb_plan_ns.observe(plan_start.elapsed().as_nanos() as u64);
        let exec_start = Instant::now();
        let rows = {
            let _s = mduck_obs::span("vecdb.exec");
            execute_select_planned(&ctx, &plan, &planned, &OuterStack::EMPTY)?
        };
        let exec_elapsed = exec_start.elapsed();
        m.vecdb_exec_ns.observe(exec_elapsed.as_nanos() as u64);
        let total_ms = exec_elapsed.as_secs_f64() * 1e3;
        let (explain, operators, stages) = match &ctx.profile {
            Some(profile) => {
                let analyze = AnalyzeData { profile, total_ms, result_rows: rows.len() };
                (
                    render_plan_analyzed(&plan, &planned, &analyze),
                    op_breakdown(&planned, profile),
                    stage_breakdown(plan_key(&plan), profile),
                )
            }
            None => Default::default(),
        };
        Ok(ProfiledQuery {
            result: QueryResult { schema: plan.output_schema, rows },
            explain,
            operators,
            stages,
            total_ms,
            mem_peak: guard.mem().peak(),
        })
    }

    /// `CREATE INDEX ... USING <method>(col)`: the data-first bulk path
    /// (§4.2.2).
    fn create_index(&self, name: &str, table: &str, method: &str, column: &str) -> SqlResult<()> {
        let t = self.catalog.get(table)?;
        let mut t = t.write();
        let col = t
            .column_index(column)
            .ok_or_else(|| SqlError::Catalog(format!("no column {column:?} in {table:?}")))?;
        let ty = t.columns[col].ty.clone();
        let values = || t.column_values(col);
        let index = self.index_types.read().build(&t.indexes, name, method, col, &ty, values)?;
        t.indexes.push(index);
        Ok(())
    }

    /// UPDATE (`sets` non-empty) or DELETE body; returns the rows
    /// changed. Stage, log, then assign: the assignment cannot fail, so a
    /// guard trip or an I/O error anywhere leaves the table untouched and
    /// in step with the log.
    fn modify(
        &self,
        table: &str,
        sets: &[(String, Expr)],
        where_clause: Option<&Expr>,
        guard: &ExecGuard,
    ) -> SqlResult<usize> {
        let dml = BoundDml::bind(&self.catalog, &self.registry.read(), table, sets, where_clause)?;
        self.durable.commit(self, |commit| {
            let t = self.catalog.get(table)?;
            let mut t = t.write();
            let rows = (0..t.row_count()).map(|i| t.row(i));
            let (n, record) = dml_record(&dml, &t.name, rows, guard)?;
            let Some(record) = record else { return Ok(0) };
            let staged = Staged::new(&t, &record, &self.index_types.read())?;
            commit.log(&record)?;
            staged.assign(&mut t);
            Ok(n)
        })
    }
}

impl DurableEngine for Database {
    const DEFAULT_INDEX_METHOD: &'static str = "TRTREE";

    fn catalog(&self) -> &dyn Catalog {
        &self.catalog
    }

    fn registry(&self) -> mduck_sync::RwLockReadGuard<'_, Registry> {
        self.registry.read()
    }

    fn snapshot(&self) -> Snapshot {
        let mut tables = Vec::new();
        for name in self.catalog.table_names() {
            let Ok(t) = self.catalog.get(&name) else { continue };
            let t = t.read();
            let columns = t.schema();
            let indexes: Vec<IndexDef> = t
                .indexes
                .iter()
                .map(|i| IndexDef {
                    name: i.name().to_string(),
                    method: i.method().to_string(),
                    column: t.column_names[i.column()].clone(),
                })
                .collect();
            let rows: Vec<Vec<Value>> = (0..t.row_count()).map(|i| t.row(i)).collect();
            tables.push(TableSnapshot { name: t.name.clone(), columns, indexes, rows });
        }
        Snapshot { tables }
    }

    /// Through the same storage paths the live statements use, so replay
    /// is apply — byte-for-byte the same coercions, the same index
    /// rebuilds.
    fn apply(&self, record: WalRecord) -> SqlResult<()> {
        match record {
            WalRecord::CreateTable { name, columns } => {
                self.catalog.create_table(&name, columns, false)
            }
            WalRecord::DropTable { name } => self.catalog.drop_table(&name, false),
            WalRecord::CreateIndex { name, table, method, column } => {
                self.create_index(&name, &table, &method, &column)
            }
            WalRecord::Insert { table, rows } => {
                let t = self.catalog.get(&table)?;
                let res = t.write().append_rows(&rows);
                res
            }
            record @ (WalRecord::Update { .. } | WalRecord::Delete { .. }) => {
                let t = self.catalog.get(record.table())?;
                let mut t = t.write();
                Staged::new(&t, &record, &self.index_types.read())?.assign(&mut t);
                Ok(())
            }
        }
    }

    fn drop_index(&self, table: &str, name: &str) {
        if let Ok(t) = self.catalog.get(table) {
            t.write().indexes.retain(|i| i.name() != name);
        }
    }

    /// Apply (atomic — see `Table::append_rows`), then log. On a log
    /// failure the append is undone through the DELETE staging path: the
    /// statement must not report failure while leaving its rows behind,
    /// and the WAL must not miss rows a later recovery would then
    /// silently drop.
    fn insert(
        &self,
        table: &str,
        rows: Cow<'_, [Vec<Value>]>,
        commit: &Commit<'_>,
    ) -> SqlResult<usize> {
        let t = self.catalog.get(table)?;
        let mut t = t.write();
        let n = rows.len();
        let pre_rows = t.row_count();
        t.append_rows(&rows)?;
        if commit.is_logging() {
            let record = WalRecord::Insert { table: t.name.clone(), rows: rows.into_owned() };
            if let Err(e) = commit.log(&record) {
                let undo = WalRecord::Delete {
                    table: t.name.clone(),
                    rows: (pre_rows as u64..t.row_count() as u64).collect(),
                };
                Staged::new(&t, &undo, &self.index_types.read())?.assign(&mut t);
                return Err(e);
            }
        }
        Ok(n)
    }
}

/// A profiled SELECT: result, analyzed-plan text, per-operator actuals.
#[derive(Debug, Clone)]
pub struct ProfiledQuery {
    pub result: QueryResult,
    /// The `EXPLAIN ANALYZE` rendering.
    pub explain: String,
    /// Flattened (preorder) per-operator actuals of the join/scan tree,
    /// followed by those of each CTE body.
    pub operators: Vec<OpBreakdown>,
    /// Post-join stage actuals (aggregate, projection, order_by, ...) of
    /// the top-level plan.
    pub stages: Vec<StageBreakdown>,
    /// End-to-end execution wall time.
    pub total_ms: f64,
    /// Peak bytes tracked by the statement's memory scope.
    pub mem_peak: u64,
}

impl Logged for ProfiledQuery {
    fn rows_returned(&self) -> usize {
        self.result.rows.len()
    }
}

/// Parse one statement, feeding the parse-phase latency histogram.
fn parse_timed(sql: &str) -> SqlResult<Statement> {
    let _s = mduck_obs::span("vecdb.parse");
    let start = Instant::now();
    let stmt = parse_statement(sql);
    mduck_obs::metrics().vecdb_parse_ns.observe(start.elapsed().as_nanos() as u64);
    stmt
}

/// An UPDATE or DELETE staged without touching the table: replacement
/// column vectors and rebuilt indexes. Live statements stage, log, then
/// assign; replay stages and assigns — the same path either way.
struct Staged {
    columns: Vec<(usize, ColumnData)>,
    indexes: StagedIndexes,
}

impl Staged {
    fn new(t: &Table, record: &WalRecord, index_types: &IndexTypeRegistry) -> SqlResult<Self> {
        let columns: Vec<(usize, ColumnData)> = match record {
            WalRecord::Update { cells, .. } => {
                // Per updated column, the new value of each row (a later
                // cell for the same row wins).
                let mut by_col: BTreeMap<usize, Vec<Option<&Value>>> = BTreeMap::new();
                for (row, col, v) in cells {
                    let (r, c) = (*row as usize, *col as usize);
                    if r >= t.row_count() || c >= t.columns.len() {
                        return Err(SqlError::corruption(format!(
                            "update cell ({r}, {c}) outside table {} ({} rows)",
                            t.name,
                            t.row_count()
                        )));
                    }
                    by_col.entry(c).or_insert_with(|| vec![None; t.row_count()])[r] = Some(v);
                }
                let mut columns = Vec::with_capacity(by_col.len());
                for (c, new) in by_col {
                    let old = &t.columns[c];
                    let mut nc = ColumnData::new(&old.ty);
                    for (i, v) in new.into_iter().enumerate() {
                        match v {
                            Some(v) => nc.push(v)?,
                            None => nc.push(&old.get(i))?,
                        }
                    }
                    columns.push((c, nc));
                }
                columns
            }
            WalRecord::Delete { rows, .. } => {
                let dead: HashSet<u64> = rows.iter().copied().collect();
                let keep: Vec<usize> =
                    (0..t.row_count()).filter(|i| !dead.contains(&(*i as u64))).collect();
                t.columns.iter().map(|c| c.gather(&keep)).enumerate().collect()
            }
            other => {
                return Err(SqlError::internal(format!("cannot stage a {} record", other.kind())))
            }
        };
        let cols: Vec<usize> = columns.iter().map(|(c, _)| *c).collect();
        let indexes = index_types.rebuild(&t.indexes, &cols, |c| t.columns[c].ty.clone(), |col| {
            match columns.iter().find(|(c, _)| *c == col) {
                Some((_, nc)) => (0..nc.len()).map(|i| nc.get(i)).collect(),
                None => t.column_values(col),
            }
        })?;
        Ok(Staged { columns, indexes })
    }

    fn assign(self, t: &mut Table) {
        for (c, nc) in self.columns {
            t.columns[c] = nc;
        }
        for (i, idx) in self.indexes {
            t.indexes[i] = idx;
        }
    }
}
