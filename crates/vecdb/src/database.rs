//! The embeddable database instance: the `duckdb.Connection` analogue.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mduck_obs::QueryProgress;
use mduck_sync::{Mutex, RwLock};
use mduck_wal::{DurabilityManager, IndexDef, Recovery, Snapshot, TableSnapshot, WalRecord};

use mduck_sql::ast::{InsertSource, SelectStmt, Statement};
use mduck_sql::eval::{eval, OuterStack};
use mduck_sql::{
    parse_statement, Binder, Catalog, ExecGuard, ExecLimits, LogicalType, PragmaValue, Registry,
    Schema, SqlError, SqlResult, Value,
};

use crate::catalog::{DbCatalog, Table};
use crate::column::ColumnData;
use crate::exec::{execute_select, execute_select_planned, plan_key, plan_tree, EngineCtx};
use crate::explain::{
    op_breakdown, render_plan, render_plan_analyzed, stage_breakdown, AnalyzeData, OpBreakdown,
    StageBreakdown,
};
use crate::index::IndexTypeRegistry;

/// Hard ceiling on the worker pool size (sanity bound for PRAGMA input).
const MAX_THREADS: usize = 256;

/// A query result: output schema plus materialized rows.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: Schema,
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    pub fn empty() -> Self {
        QueryResult { schema: Schema::default(), rows: Vec::new() }
    }

    /// Column names.
    pub fn column_names(&self) -> Vec<&str> {
        self.schema.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Single scalar convenience accessor.
    pub fn scalar(&self) -> SqlResult<&Value> {
        self.rows
            .first()
            .and_then(|r| r.first())
            .ok_or_else(|| SqlError::execution("query returned no rows"))
    }

    /// ASCII table rendering for examples and demos.
    pub fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> =
            self.schema.fields.iter().map(|f| f.name.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .schema
            .fields
            .iter()
            .enumerate()
            .map(|(i, f)| format!("{:width$}", f.name, width = widths[i]))
            .collect();
        out.push_str(&header.join(" │ "));
        out.push('\n');
        out.push_str(&widths.iter().map(|w| "─".repeat(*w)).collect::<Vec<_>>().join("─┼─"));
        out.push('\n');
        for row in rendered {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect();
            out.push_str(&line.join(" │ "));
            out.push('\n');
        }
        out
    }
}

/// An in-process database instance (the DuckDB substrate).
///
/// Extensions install themselves by mutating [`Database::registry`] and
/// [`Database::index_types`] at load time, exactly as MobilityDuck
/// registers its types, functions, casts, operators, and the TRTREE index
/// type against DuckDB (§3.3–§4.1).
pub struct Database {
    pub catalog: DbCatalog,
    registry: Arc<RwLock<Registry>>,
    index_types: Arc<RwLock<IndexTypeRegistry>>,
    limits: RwLock<ExecLimits>,
    /// Worker threads for morsel-driven execution; 0 = auto-detect.
    threads: std::sync::atomic::AtomicUsize,
    /// Progress handle of the most recent SQL-text statement, pollable
    /// from other threads via [`Database::progress`]. Kept after the
    /// statement finishes (reporting `1.0`) until the next one replaces
    /// it.
    current_progress: Mutex<Option<Arc<QueryProgress>>>,
    /// Durability manager when a WAL is attached ([`Database::open`] /
    /// `PRAGMA wal='path'`); `None` keeps the in-memory default.
    wal: RwLock<Option<Arc<DurabilityManager>>>,
    /// Serializes catalog/data commits and checkpoints, so a checkpoint
    /// image is always consistent with the WAL position it claims to
    /// cover and the log order always matches the apply order.
    commit_lock: Mutex<()>,
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
            limits: RwLock::new(ExecLimits::default()),
            threads: std::sync::atomic::AtomicUsize::new(0),
            current_progress: Mutex::new(None),
            wal: RwLock::new(None),
            commit_lock: Mutex::new(()),
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
        self.current_progress.lock().as_ref().map(|p| p.fraction())
    }

    /// Set the worker-thread count for morsel-driven execution; `0`
    /// restores auto-detection. Equivalent to `PRAGMA threads = N`.
    pub fn set_threads(&self, n: usize) {
        self.threads.store(n.min(MAX_THREADS), std::sync::atomic::Ordering::Relaxed);
    }

    /// The configured thread count (`0` = auto-detect).
    pub fn threads(&self) -> usize {
        self.threads.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The thread count statements actually execute with: the configured
    /// value, or (when auto) the `MDUCK_THREADS` environment variable,
    /// or `std::thread::available_parallelism`.
    pub fn effective_threads(&self) -> usize {
        let configured = self.threads();
        if configured > 0 {
            return configured;
        }
        if let Ok(v) = std::env::var("MDUCK_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n.min(MAX_THREADS);
                }
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(MAX_THREADS)
    }

    /// Set the resource limits applied to every subsequent statement.
    pub fn set_exec_limits(&self, limits: ExecLimits) {
        *self.limits.write() = limits;
    }

    /// The resource limits currently in force.
    pub fn exec_limits(&self) -> ExecLimits {
        self.limits.read().clone()
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
    /// statement. When the WAL is brand new and the database already
    /// holds tables, an immediate checkpoint captures them — otherwise
    /// the pre-attach state would never be covered by recovery.
    pub fn attach_wal(&self, path: impl AsRef<Path>) -> SqlResult<()> {
        let _commit = self.commit_lock.lock();
        if self.wal.read().is_some() {
            return Err(SqlError::execution(
                "a WAL is already attached; detach it first (PRAGMA wal='off')",
            ));
        }
        let (manager, recovery) = {
            let registry = self.registry.read();
            DurabilityManager::open(path.as_ref(), &registry)?
        };
        self.apply_recovery(&recovery)?;
        let manager = Arc::new(manager);
        let fresh = recovery.snapshot.is_none() && recovery.records.is_empty();
        if fresh && !self.catalog.table_names().is_empty() {
            self.checkpoint_locked(&manager)?;
        }
        *self.wal.write() = Some(manager);
        Ok(())
    }

    /// Detach the WAL (`PRAGMA wal='off'`). Already-logged state stays
    /// on disk; later statements are in-memory only.
    pub fn detach_wal(&self) {
        let _commit = self.commit_lock.lock();
        *self.wal.write() = None;
    }

    /// The attached durability manager, if any.
    pub fn wal(&self) -> Option<Arc<DurabilityManager>> {
        self.wal.read().clone()
    }

    /// Bulk-insert pre-typed rows through the full commit path: atomic
    /// append, WAL record, auto-checkpoint — identical durability to an
    /// `INSERT` statement, without parse/bind overhead. This is what
    /// bulk loaders (berlinmod) should call so loaded data survives a
    /// crash like any other committed rows.
    pub fn insert_rows(&self, table: &str, rows: &[Vec<Value>]) -> SqlResult<usize> {
        let needed = {
            let _commit = self.commit_lock.lock();
            let t = self.catalog.get(table)?;
            let mut t = t.write();
            let pre_rows = t.row_count();
            t.append_rows(rows)?;
            if self.wal.read().is_none() {
                // No WAL: skip the record copy entirely (hot bulk-load path).
                false
            } else {
                let record = WalRecord::Insert { table: t.name.clone(), rows: rows.to_vec() };
                match self.wal_append(&record) {
                    Ok(needed) => needed,
                    Err(e) => {
                        truncate_table(&mut t, pre_rows, &self.index_types.read())?;
                        return Err(e);
                    }
                }
            }
        };
        self.maybe_auto_checkpoint(needed);
        Ok(rows.len())
    }

    /// Snapshot the whole database into the checkpoint file and truncate
    /// the WAL (the `CHECKPOINT` statement). Returns `false` (and does
    /// nothing) when no WAL is attached.
    pub fn checkpoint(&self) -> SqlResult<bool> {
        let Some(manager) = self.wal() else { return Ok(false) };
        let _commit = self.commit_lock.lock();
        self.checkpoint_locked(&manager)?;
        Ok(true)
    }

    /// Checkpoint body; caller holds `commit_lock` so no DML can slip
    /// between building the image and stamping its WAL position.
    fn checkpoint_locked(&self, manager: &DurabilityManager) -> SqlResult<()> {
        let snapshot = self.snapshot_state();
        manager.checkpoint(&snapshot)
    }

    /// Materialize the catalog and every table (rows, indexes) as a
    /// checkpoint image, tables sorted by name.
    fn snapshot_state(&self) -> Snapshot {
        let mut tables = Vec::new();
        for name in self.catalog.table_names() {
            let Ok(t) = self.catalog.get(&name) else { continue };
            let t = t.read();
            let columns: Vec<(String, LogicalType)> = t
                .column_names
                .iter()
                .cloned()
                .zip(t.columns.iter().map(|c| c.ty.clone()))
                .collect();
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

    /// Rebuild in-memory state from what recovery found on disk: the
    /// checkpoint image first (tables, rows, then indexes over them),
    /// then every WAL record in log order.
    fn apply_recovery(&self, recovery: &Recovery) -> SqlResult<()> {
        if let Some(snapshot) = &recovery.snapshot {
            for ts in &snapshot.tables {
                self.catalog.create_table(&ts.name, ts.columns.clone(), false)?;
                let t = self.catalog.get(&ts.name)?;
                t.write().append_rows(&ts.rows)?;
            }
            for ts in &snapshot.tables {
                for idx in &ts.indexes {
                    self.create_index(&idx.name, &ts.name, &idx.method, &idx.column)?;
                }
            }
        }
        for record in &recovery.records {
            self.apply_record(record)?;
        }
        Ok(())
    }

    /// Replay one WAL record. Reuses the same storage paths the live
    /// statements use, so replay is apply — byte-for-byte the same
    /// coercions, the same index rebuilds.
    fn apply_record(&self, record: &WalRecord) -> SqlResult<()> {
        match record {
            WalRecord::CreateTable { name, columns } => {
                self.catalog.create_table(name, columns.clone(), false)
            }
            WalRecord::DropTable { name } => self.catalog.drop_table(name, false),
            WalRecord::CreateIndex { name, table, method, column } => {
                self.create_index(name, table, method, column)
            }
            WalRecord::Insert { table, rows } => {
                let t = self.catalog.get(table)?;
                let res = t.write().append_rows(rows);
                res
            }
            WalRecord::Update { table, cells } => {
                let t = self.catalog.get(table)?;
                let mut t = t.write();
                let mut by_col: BTreeMap<usize, Vec<(usize, Value)>> = BTreeMap::new();
                for (row, col, v) in cells {
                    by_col.entry(*col as usize).or_default().push((*row as usize, v.clone()));
                }
                for (col, reps) in &by_col {
                    let nc = build_column_with_replacements(&t, *col, reps)?;
                    t.columns[*col] = nc;
                }
                let cols: Vec<usize> = by_col.keys().copied().collect();
                rebuild_indexes_for_columns(&mut t, &cols, &self.index_types.read())
            }
            WalRecord::Delete { table, rows } => {
                let t = self.catalog.get(table)?;
                let mut t = t.write();
                let dead: std::collections::HashSet<u64> = rows.iter().copied().collect();
                let keep: Vec<usize> =
                    (0..t.row_count()).filter(|i| !dead.contains(&(*i as u64))).collect();
                t.columns = t.columns.iter().map(|c| c.gather(&keep)).collect();
                let all: Vec<usize> = (0..t.columns.len()).collect();
                rebuild_indexes_for_columns(&mut t, &all, &self.index_types.read())
            }
        }
    }

    /// Append one record to the attached WAL, if any. Returns whether
    /// the log has grown past the auto-checkpoint threshold.
    fn wal_append(&self, record: &WalRecord) -> SqlResult<bool> {
        match &*self.wal.read() {
            Some(manager) => manager.append(record),
            None => Ok(false),
        }
    }

    /// Run the size-triggered checkpoint after a statement committed.
    /// A failure here must not fail that statement — it is already
    /// applied and durable in the log; the WAL simply keeps growing and
    /// the next trigger retries (a simulated crash poisons the manager
    /// and surfaces on the next statement instead).
    fn maybe_auto_checkpoint(&self, needed: bool) {
        if !needed {
            return;
        }
        let Some(manager) = self.wal() else { return };
        let _commit = self.commit_lock.lock();
        if self.checkpoint_locked(&manager).is_ok() {
            mduck_obs::metrics().wal_auto_checkpoints.inc(1);
        }
    }

    /// Execute one SQL statement. `SHOW TABLES` and `DESCRIBE <table>`
    /// are handled as utility statements, as in DuckDB's shell.
    pub fn execute(&self, sql: &str) -> SqlResult<QueryResult> {
        let trimmed = sql.trim().trim_end_matches(';').trim();
        if trimmed.eq_ignore_ascii_case("show tables") {
            let rows: Vec<Vec<Value>> = self
                .catalog
                .table_names()
                .into_iter()
                .map(|n| vec![Value::text(n)])
                .collect();
            return Ok(QueryResult {
                schema: Schema::new(vec![mduck_sql::Field {
                    name: "name".into(),
                    table: None,
                    ty: LogicalType::Text,
                }]),
                rows,
            });
        }
        if let Some(rest) = strip_keyword(trimmed, "describe") {
            let cols = self
                .catalog
                .table_schema(rest.trim())
                .ok_or_else(|| SqlError::Catalog(format!("table {rest:?} does not exist")))?;
            let rows: Vec<Vec<Value>> = cols
                .into_iter()
                .map(|(n, ty)| vec![Value::text(n), Value::text(ty.name())])
                .collect();
            return Ok(QueryResult {
                schema: Schema::new(vec![
                    mduck_sql::Field { name: "column_name".into(), table: None, ty: LogicalType::Text },
                    mduck_sql::Field { name: "column_type".into(), table: None, ty: LogicalType::Text },
                ]),
                rows,
            });
        }
        let stmt = parse_timed(sql)?;
        let guard = ExecGuard::new(&self.limits.read());
        self.execute_logged(sql, &stmt, &guard)
    }

    /// Execute one SQL statement under a caller-supplied guard, so the
    /// caller can keep the [`mduck_sql::CancelHandle`] (to cancel from
    /// another thread) or spend one budget across several statements.
    pub fn execute_with_guard(&self, sql: &str, guard: &ExecGuard) -> SqlResult<QueryResult> {
        let stmt = parse_timed(sql)?;
        self.execute_logged(sql, &stmt, guard)
    }

    /// Shared body of the SQL-text entry points: register live progress,
    /// execute, then push one record to the query log. Statements that
    /// arrive pre-parsed ([`Database::execute_statement`]) skip the log —
    /// there is no SQL text to record for them.
    fn execute_logged(
        &self,
        sql: &str,
        stmt: &Statement,
        guard: &ExecGuard,
    ) -> SqlResult<QueryResult> {
        let id = mduck_obs::next_query_id();
        let sql_text = sql.trim().to_string();
        let progress = QueryProgress::begin(&sql_text);
        *self.current_progress.lock() = Some(Arc::clone(&progress));
        let start = Instant::now();
        // While the JSONL sink is live, SELECTs run under profiling so
        // slow statements can attach their EXPLAIN ANALYZE text.
        let (result, profile) = match stmt {
            Statement::Select(sel) if mduck_obs::query_log_sink_active() => {
                match catch_panics(|| {
                    self.run_analyzed(sel, guard, Some(Arc::clone(&progress)))
                }) {
                    Ok(pq) => (Ok(pq.result), Some(pq.explain)),
                    Err(e) => (Err(e), None),
                }
            }
            _ => (
                catch_panics(|| self.run_statement(stmt, guard, Some(Arc::clone(&progress)))),
                None,
            ),
        };
        let rows_returned = result.as_ref().map(|r| r.rows.len() as u64).unwrap_or(0);
        let error = result.as_ref().err().map(|e| e.to_string());
        self.finish_and_log(id, sql_text, &progress, start, guard, rows_returned, error, profile);
        result
    }

    /// Finish the progress handle and append the statement's query-log
    /// record. The profile text is attached only when the statement was at
    /// least as slow as `PRAGMA slow_query_ms`.
    #[allow(clippy::too_many_arguments)]
    fn finish_and_log(
        &self,
        id: u64,
        sql: String,
        progress: &QueryProgress,
        start: Instant,
        guard: &ExecGuard,
        rows_returned: u64,
        error: Option<String>,
        profile: Option<String>,
    ) {
        progress.finish();
        let duration = start.elapsed();
        let slow = duration.as_millis() as u64 >= mduck_obs::slow_threshold_ms();
        mduck_obs::log_query(mduck_obs::QueryLogRecord {
            id,
            engine: "vecdb",
            sql,
            duration_us: duration.as_micros() as u64,
            rows_returned,
            rows_scanned: guard.rows_scanned(),
            guard_trip: guard.trip_label(),
            mem_peak: guard.mem().peak(),
            threads: self.effective_threads() as u32,
            error,
            profile: if slow { profile } else { None },
        });
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
        let guard = ExecGuard::new(&self.limits.read());
        self.execute_statement_guarded(stmt, &guard)
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
        catch_panics(|| self.run_statement(stmt, guard, None))
    }

    fn run_statement(
        &self,
        stmt: &Statement,
        guard: &ExecGuard,
        progress: Option<Arc<QueryProgress>>,
    ) -> SqlResult<QueryResult> {
        match stmt {
            Statement::Select(sel) => {
                let m = mduck_obs::metrics();
                m.queries_executed.inc(1);
                m.active_queries.add(1);
                let _active = GaugeGuard;
                let _query_span = mduck_obs::span("vecdb.query");
                let registry = self.registry.read();
                let bind_start = Instant::now();
                let plan = {
                    let _s = mduck_obs::span("vecdb.bind");
                    let mut binder = Binder::new(&self.catalog, &registry);
                    binder.bind_select(sel)?
                };
                m.vecdb_bind_ns.observe(bind_start.elapsed().as_nanos() as u64);
                let ctx = EngineCtx::new(&self.catalog, &registry, guard)
                    .with_threads(self.effective_threads())
                    .with_progress(progress);
                let plan_start = Instant::now();
                let planned = {
                    let _s = mduck_obs::span("vecdb.plan");
                    plan_tree(&ctx, &plan)?
                };
                m.vecdb_plan_ns.observe(plan_start.elapsed().as_nanos() as u64);
                let _s = mduck_obs::span("vecdb.exec");
                let exec_start = Instant::now();
                let rows =
                    execute_select_planned(&ctx, &plan, planned.as_ref(), &OuterStack::EMPTY)?;
                m.vecdb_exec_ns.observe(exec_start.elapsed().as_nanos() as u64);
                Ok(QueryResult { schema: plan.output_schema, rows })
            }
            Statement::Explain { statement, analyze } => {
                let Statement::Select(sel) = statement.as_ref() else {
                    return Err(SqlError::Bind("EXPLAIN supports SELECT".into()));
                };
                let text = if *analyze {
                    self.run_analyzed(sel, guard, progress)?.explain
                } else {
                    let registry = self.registry.read();
                    let mut binder = Binder::new(&self.catalog, &registry);
                    let plan = binder.bind_select(sel)?;
                    let ctx = EngineCtx::new(&self.catalog, &registry, guard);
                    render_plan(&plan, plan_tree(&ctx, &plan)?.as_ref())
                };
                Ok(QueryResult {
                    schema: Schema::new(vec![mduck_sql::Field {
                        name: "explain".into(),
                        table: None,
                        ty: LogicalType::Text,
                    }]),
                    rows: vec![vec![Value::text(text)]],
                })
            }
            Statement::Pragma { name, value } => self.run_pragma(name, value.as_ref()),
            Statement::CreateTable { name, columns, if_not_exists } => {
                let cols = {
                    let registry = self.registry.read();
                    let mut cols = Vec::with_capacity(columns.len());
                    for (cname, tname) in columns {
                        cols.push((cname.clone(), registry.resolve_type(tname)?));
                    }
                    cols
                };
                let needed = {
                    let _commit = self.commit_lock.lock();
                    // Pre-check so an IF NOT EXISTS no-op logs nothing
                    // and a name clash fails before the WAL sees it.
                    if self.catalog.table_schema(name).is_some() {
                        if *if_not_exists {
                            return Ok(QueryResult::empty());
                        }
                        return Err(SqlError::Catalog(format!("table {name:?} already exists")));
                    }
                    let needed = self.wal_append(&WalRecord::CreateTable {
                        name: name.to_ascii_lowercase(),
                        columns: cols.clone(),
                    })?;
                    self.catalog.create_table(name, cols, *if_not_exists)?;
                    needed
                };
                self.maybe_auto_checkpoint(needed);
                Ok(QueryResult::empty())
            }
            Statement::DropTable { name, if_exists } => {
                let needed = {
                    let _commit = self.commit_lock.lock();
                    if self.catalog.table_schema(name).is_none() {
                        if *if_exists {
                            return Ok(QueryResult::empty());
                        }
                        return Err(SqlError::Catalog(format!("table {name:?} does not exist")));
                    }
                    let needed = self
                        .wal_append(&WalRecord::DropTable { name: name.to_ascii_lowercase() })?;
                    self.catalog.drop_table(name, true)?;
                    needed
                };
                self.maybe_auto_checkpoint(needed);
                Ok(QueryResult::empty())
            }
            Statement::CreateIndex { name, table, method, column } => {
                let needed = {
                    let _commit = self.commit_lock.lock();
                    self.create_index(name, table, method, column)?;
                    let resolved = if method.is_empty() {
                        "TRTREE".to_string()
                    } else {
                        method.to_uppercase()
                    };
                    let record = WalRecord::CreateIndex {
                        name: name.clone(),
                        table: table.to_ascii_lowercase(),
                        method: resolved,
                        column: column.clone(),
                    };
                    match self.wal_append(&record) {
                        Ok(needed) => needed,
                        Err(e) => {
                            // Undo the in-memory index: dropping an
                            // access path is always safe, and the
                            // statement must not report failure while
                            // leaving the index behind.
                            if let Ok(t) = self.catalog.get(table) {
                                t.write().indexes.retain(|i| i.name() != name);
                            }
                            return Err(e);
                        }
                    }
                };
                self.maybe_auto_checkpoint(needed);
                Ok(QueryResult::empty())
            }
            Statement::Insert { table, columns, source } => {
                let (n, needed) = self.insert(table, columns.as_deref(), source, guard)?;
                self.maybe_auto_checkpoint(needed);
                Ok(QueryResult {
                    schema: Schema::new(vec![mduck_sql::Field {
                        name: "count".into(),
                        table: None,
                        ty: LogicalType::Int,
                    }]),
                    rows: vec![vec![Value::Int(n as i64)]],
                })
            }
            Statement::Update { table, sets, where_clause } => {
                let (n, needed) = self.update(table, sets, where_clause.as_ref(), guard)?;
                self.maybe_auto_checkpoint(needed);
                Ok(QueryResult {
                    schema: Schema::new(vec![mduck_sql::Field {
                        name: "count".into(),
                        table: None,
                        ty: LogicalType::Int,
                    }]),
                    rows: vec![vec![Value::Int(n as i64)]],
                })
            }
            Statement::Delete { table, where_clause } => {
                let (n, needed) = self.delete(table, where_clause.as_ref(), guard)?;
                self.maybe_auto_checkpoint(needed);
                Ok(QueryResult {
                    schema: Schema::new(vec![mduck_sql::Field {
                        name: "count".into(),
                        table: None,
                        ty: LogicalType::Int,
                    }]),
                    rows: vec![vec![Value::Int(n as i64)]],
                })
            }
            Statement::Checkpoint => {
                let ran = self.checkpoint()?;
                let (schema, rows) = mduck_sql::introspect::checkpoint_result(ran);
                Ok(QueryResult { schema, rows })
            }
        }
    }

    /// `PRAGMA threads [= N]` is an engine setting; everything else is
    /// shared introspection.
    fn run_pragma(&self, name: &str, value: Option<&PragmaValue>) -> SqlResult<QueryResult> {
        if name == "threads" {
            if let Some(v) = value {
                let v = v.as_int().ok_or_else(|| {
                    SqlError::Bind(format!("PRAGMA threads expects an integer, got {v:?}"))
                })?;
                if !(0..=MAX_THREADS as i64).contains(&v) {
                    return Err(SqlError::OutOfRange(format!(
                        "PRAGMA threads expects 0..={MAX_THREADS}, got {v}"
                    )));
                }
                self.set_threads(v as usize);
            }
            let (schema, rows) = mduck_sql::introspect::threads_result(self.effective_threads());
            return Ok(QueryResult { schema, rows });
        }
        if name == "memory_limit" {
            if let Some(v) = value {
                let limit = mduck_sql::introspect::parse_memory_limit(v)?;
                self.limits.write().memory_limit = limit;
            }
            let (schema, rows) =
                mduck_sql::introspect::memory_limit_result(self.limits.read().memory_limit);
            return Ok(QueryResult { schema, rows });
        }
        if name == "wal" {
            if let Some(v) = value {
                let path = match v {
                    PragmaValue::Str(s) => s.clone(),
                    PragmaValue::Int(n) => {
                        return Err(SqlError::Bind(format!(
                            "PRAGMA wal expects a path string, got {n}"
                        )))
                    }
                };
                let trimmed = path.trim();
                if trimmed.is_empty()
                    || trimmed.eq_ignore_ascii_case("off")
                    || trimmed.eq_ignore_ascii_case("none")
                {
                    self.detach_wal();
                } else {
                    self.attach_wal(trimmed)?;
                }
            }
            let shown = self.wal().map(|m| m.wal_path().display().to_string());
            let (schema, rows) = mduck_sql::introspect::wal_result(shown);
            return Ok(QueryResult { schema, rows });
        }
        if name == "wal_autocheckpoint" {
            if let Some(v) = value {
                let n = v.as_int().ok_or_else(|| {
                    SqlError::Bind(format!(
                        "PRAGMA wal_autocheckpoint expects a byte count, got {v:?}"
                    ))
                })?;
                if n < 0 {
                    return Err(SqlError::OutOfRange(format!(
                        "PRAGMA wal_autocheckpoint expects a non-negative byte count, got {n}"
                    )));
                }
                match self.wal() {
                    Some(m) => m.set_auto_checkpoint(n as u64),
                    None => {
                        return Err(SqlError::execution(
                            "no WAL attached; PRAGMA wal='path' first",
                        ))
                    }
                }
            }
            let current = self.wal().map(|m| m.auto_checkpoint()).unwrap_or(0);
            let (schema, rows) = mduck_sql::introspect::wal_autocheckpoint_result(current);
            return Ok(QueryResult { schema, rows });
        }
        match mduck_sql::introspect::pragma(name, value)? {
            Some((schema, rows)) => Ok(QueryResult { schema, rows }),
            None => Err(SqlError::Catalog(format!("unknown pragma {name:?}"))),
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
        let guard = ExecGuard::new(&self.limits.read());
        let id = mduck_obs::next_query_id();
        let sql_text = sql.trim().to_string();
        let progress = QueryProgress::begin(&sql_text);
        *self.current_progress.lock() = Some(Arc::clone(&progress));
        let start = Instant::now();
        let result = catch_panics(|| self.run_analyzed(&sel, &guard, Some(Arc::clone(&progress))));
        let (rows_returned, error, profile) = match &result {
            Ok(pq) => (pq.result.rows.len() as u64, None, Some(pq.explain.clone())),
            Err(e) => (0, Some(e.to_string()), None),
        };
        self.finish_and_log(id, sql_text, &progress, start, &guard, rows_returned, error, profile);
        result
    }

    /// Shared body of `EXPLAIN ANALYZE` and [`Database::execute_analyzed`]:
    /// plan once, execute the planned tree under profiling, render actuals.
    fn run_analyzed(
        &self,
        sel: &SelectStmt,
        guard: &ExecGuard,
        progress: Option<Arc<QueryProgress>>,
    ) -> SqlResult<ProfiledQuery> {
        let m = mduck_obs::metrics();
        m.queries_executed.inc(1);
        m.active_queries.add(1);
        let _active = GaugeGuard;
        let _query_span = mduck_obs::span("vecdb.query");
        let registry = self.registry.read();
        let bind_start = Instant::now();
        let plan = {
            let _s = mduck_obs::span("vecdb.bind");
            let mut binder = Binder::new(&self.catalog, &registry);
            binder.bind_select(sel)?
        };
        m.vecdb_bind_ns.observe(bind_start.elapsed().as_nanos() as u64);
        let mut ctx = EngineCtx::new(&self.catalog, &registry, guard)
            .with_threads(self.effective_threads())
            .with_progress(progress);
        ctx.enable_profiling();
        let plan_start = Instant::now();
        let planned = {
            let _s = mduck_obs::span("vecdb.plan");
            plan_tree(&ctx, &plan)?
        };
        m.vecdb_plan_ns.observe(plan_start.elapsed().as_nanos() as u64);
        let exec_start = Instant::now();
        let rows = {
            let _s = mduck_obs::span("vecdb.exec");
            execute_select_planned(&ctx, &plan, planned.as_ref(), &OuterStack::EMPTY)?
        };
        let exec_elapsed = exec_start.elapsed();
        m.vecdb_exec_ns.observe(exec_elapsed.as_nanos() as u64);
        let profile = ctx
            .profile
            .as_ref()
            .ok_or_else(|| SqlError::internal("profiling sink disappeared"))?;
        let total_ms = exec_elapsed.as_secs_f64() * 1e3;
        let analyze = AnalyzeData {
            profile,
            plan_key: plan_key(&plan),
            total_ms,
            result_rows: rows.len(),
        };
        let explain = render_plan_analyzed(&plan, planned.as_ref(), &analyze);
        let operators = planned.as_ref().map(|(t, _)| op_breakdown(t, profile)).unwrap_or_default();
        let stages = stage_breakdown(plan_key(&plan), profile);
        Ok(ProfiledQuery {
            result: QueryResult { schema: plan.output_schema.clone(), rows },
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
        let method = if method.is_empty() { "TRTREE".to_string() } else { method.to_uppercase() };
        let index_type = self
            .index_types
            .read()
            .get(&method)
            .ok_or_else(|| SqlError::Catalog(format!("unknown index type {method:?}")))?;
        let t = self.catalog.get(table)?;
        let mut t = t.write();
        let col = t
            .column_index(column)
            .ok_or_else(|| SqlError::Catalog(format!("no column {column:?} in {table:?}")))?;
        let ty = t.columns[col].ty.clone();
        if !index_type.can_index(&ty) {
            return Err(SqlError::Catalog(format!(
                "index method {method} cannot index type {}",
                ty.name()
            )));
        }
        if t.indexes.iter().any(|i| i.name() == name) {
            return Err(SqlError::Catalog(format!("index {name:?} already exists")));
        }
        let existing = t.column_values(col);
        let index = index_type.create(name, col, &ty, &existing)?;
        t.indexes.push(index);
        Ok(())
    }

    /// INSERT body; returns `(rows inserted, auto-checkpoint due)`.
    fn insert(
        &self,
        table: &str,
        columns: Option<&[String]>,
        source: &InsertSource,
        guard: &ExecGuard,
    ) -> SqlResult<(usize, bool)> {
        let registry = self.registry.read();
        // Compute the incoming rows first (they may SELECT from the target).
        let incoming: Vec<Vec<Value>> = match source {
            InsertSource::Values(rows) => {
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut vals = Vec::with_capacity(row.len());
                    for e in row {
                        let bound =
                            mduck_sql::binder::bind_constant_expr(e, &self.catalog, &registry)?;
                        vals.push(eval(
                            &bound,
                            &[],
                            &OuterStack::EMPTY,
                            &mduck_sql::eval::NoSubqueries,
                        )?);
                    }
                    out.push(vals);
                }
                out
            }
            InsertSource::Select(sel) => {
                let mut binder = Binder::new(&self.catalog, &registry);
                let plan = binder.bind_select(sel)?;
                let ctx = EngineCtx::new(&self.catalog, &registry, guard)
                    .with_threads(self.effective_threads());
                execute_select(&ctx, &plan, &OuterStack::EMPTY)?
            }
        };
        guard.check_rows(incoming.len())?;
        let _commit = self.commit_lock.lock();
        let t = self.catalog.get(table)?;
        let mut t = t.write();
        let rows = reorder_for_insert(&t, columns, incoming)?;
        let rows = coerce_rows(&registry, &t.column_types(), rows)?;
        let n = rows.len();
        // Apply (atomic — see `Table::append_rows`), then log. On a log
        // failure the append is undone: the statement must not report
        // failure while leaving its rows behind, and the WAL must not
        // miss rows a later recovery would then silently drop.
        let pre_rows = t.row_count();
        t.append_rows(&rows)?;
        let needed = match self.wal_append(&WalRecord::Insert { table: t.name.clone(), rows }) {
            Ok(needed) => needed,
            Err(e) => {
                truncate_table(&mut t, pre_rows, &self.index_types.read())?;
                return Err(e);
            }
        };
        Ok((n, needed))
    }

    /// UPDATE body; returns `(rows updated, auto-checkpoint due)`.
    /// Stage-log-apply: new column vectors and rebuilt indexes are fully
    /// staged first, the WAL record is appended, and only then is
    /// anything assigned — the assignment cannot fail, so a trip or an
    /// I/O error anywhere leaves the table untouched.
    fn update(
        &self,
        table: &str,
        sets: &[(String, mduck_sql::Expr)],
        where_clause: Option<&mduck_sql::Expr>,
        guard: &ExecGuard,
    ) -> SqlResult<(usize, bool)> {
        let registry = self.registry.read();
        let t_arc = self.catalog.get(table)?;
        // Bind against the table schema.
        let schema_cols = self
            .catalog
            .table_schema(table)
            .ok_or_else(|| SqlError::Catalog(format!("table {table:?} does not exist")))?;
        let schema = Schema::new(
            schema_cols
                .iter()
                .map(|(n, ty)| mduck_sql::Field {
                    name: n.clone(),
                    table: Some(table.to_ascii_lowercase()),
                    ty: ty.clone(),
                })
                .collect(),
        );
        let mut binder = Binder::new(&self.catalog, &registry);
        let bound_sets: SqlResult<Vec<(usize, mduck_sql::BoundExpr)>> = sets
            .iter()
            .map(|(col, e)| {
                let idx = schema
                    .resolve(None, &col.to_ascii_lowercase())
                    .map_err(|_| SqlError::Catalog(format!("no column {col:?}")))?;
                Ok((idx, binder.bind_expr(e, &schema)?))
            })
            .collect();
        let bound_sets = bound_sets?;
        let bound_where = match where_clause {
            Some(w) => Some(binder.bind_expr(w, &schema)?),
            None => None,
        };
        let _commit = self.commit_lock.lock();
        let mut t = t_arc.write();
        let n_rows = t.row_count();
        let mut updated = 0usize;
        let no_sub = mduck_sql::eval::NoSubqueries;
        // Gather replacements per column, then rebuild each affected column
        // once (columns are immutable vectors; cell-wise rebuilds would be
        // quadratic).
        let mut replacements: Vec<Vec<(usize, Value)>> = vec![Vec::new(); bound_sets.len()];
        for i in 0..n_rows {
            guard.check_rows(1)?;
            let row = t.row(i);
            if let Some(w) = &bound_where {
                if !matches!(eval(w, &row, &OuterStack::EMPTY, &no_sub)?, Value::Bool(true)) {
                    continue;
                }
            }
            for (k, (_, e)) in bound_sets.iter().enumerate() {
                let v = eval(e, &row, &OuterStack::EMPTY, &no_sub)?;
                replacements[k].push((i, v));
            }
            updated += 1;
        }
        if updated == 0 {
            return Ok((0, false));
        }
        // Stage the new column vectors without touching the table.
        let mut staged: Vec<(usize, ColumnData)> = Vec::new();
        for (k, (col, _)) in bound_sets.iter().enumerate() {
            if replacements[k].is_empty() {
                continue;
            }
            staged.push((*col, build_column_with_replacements(&t, *col, &replacements[k])?));
        }
        // Stage rebuilt indexes over the updated columns, reading their
        // values from the staged vectors.
        let set_cols: Vec<usize> = bound_sets.iter().map(|(c, _)| *c).collect();
        let staged_indexes =
            stage_index_rebuilds(&t, &set_cols, &self.index_types.read(), |col| {
                match staged.iter().find(|(c, _)| *c == col) {
                    Some((_, nc)) => (0..nc.len()).map(|i| nc.get(i)).collect(),
                    None => t.column_values(col),
                }
            })?;
        // Log, then the infallible assignment.
        let cells: Vec<(u64, u64, Value)> = bound_sets
            .iter()
            .enumerate()
            .flat_map(|(k, (col, _))| {
                replacements[k]
                    .iter()
                    .map(move |(row, v)| (*row as u64, *col as u64, v.clone()))
            })
            .collect();
        let needed = self.wal_append(&WalRecord::Update { table: t.name.clone(), cells })?;
        for (col, nc) in staged {
            t.columns[col] = nc;
        }
        for (i, idx) in staged_indexes {
            t.indexes[i] = idx;
        }
        Ok((updated, needed))
    }

    /// DELETE body; returns `(rows deleted, auto-checkpoint due)`.
    /// Stage-log-apply, like [`Database::update`].
    fn delete(
        &self,
        table: &str,
        where_clause: Option<&mduck_sql::Expr>,
        guard: &ExecGuard,
    ) -> SqlResult<(usize, bool)> {
        let registry = self.registry.read();
        let schema_cols = self
            .catalog
            .table_schema(table)
            .ok_or_else(|| SqlError::Catalog(format!("table {table:?} does not exist")))?;
        let schema = Schema::new(
            schema_cols
                .iter()
                .map(|(n, ty)| mduck_sql::Field {
                    name: n.clone(),
                    table: Some(table.to_ascii_lowercase()),
                    ty: ty.clone(),
                })
                .collect(),
        );
        let mut binder = Binder::new(&self.catalog, &registry);
        let bound_where = match where_clause {
            Some(w) => Some(binder.bind_expr(w, &schema)?),
            None => None,
        };
        let _commit = self.commit_lock.lock();
        let t_arc = self.catalog.get(table)?;
        let mut t = t_arc.write();
        let no_sub = mduck_sql::eval::NoSubqueries;
        let mut keep: Vec<usize> = Vec::new();
        let mut deleted_rows: Vec<u64> = Vec::new();
        let n_rows = t.row_count();
        for i in 0..n_rows {
            guard.check_rows(1)?;
            let row = t.row(i);
            let delete = match &bound_where {
                Some(w) => {
                    matches!(eval(w, &row, &OuterStack::EMPTY, &no_sub)?, Value::Bool(true))
                }
                None => true,
            };
            if delete {
                deleted_rows.push(i as u64);
            } else {
                keep.push(i);
            }
        }
        let deleted = deleted_rows.len();
        if deleted == 0 {
            return Ok((0, false));
        }
        // Stage the surviving columns and the rebuilt indexes, log, then
        // assign (infallible).
        let new_columns: Vec<ColumnData> = t.columns.iter().map(|c| c.gather(&keep)).collect();
        let all_cols: Vec<usize> = (0..t.columns.len()).collect();
        let staged_indexes =
            stage_index_rebuilds(&t, &all_cols, &self.index_types.read(), |col| {
                (0..new_columns[col].len()).map(|i| new_columns[col].get(i)).collect()
            })?;
        let needed =
            self.wal_append(&WalRecord::Delete { table: t.name.clone(), rows: deleted_rows })?;
        t.columns = new_columns;
        for (i, idx) in staged_indexes {
            t.indexes[i] = idx;
        }
        Ok((deleted, needed))
    }
}

/// A profiled SELECT: result, analyzed-plan text, per-operator actuals.
#[derive(Debug, Clone)]
pub struct ProfiledQuery {
    pub result: QueryResult,
    /// The `EXPLAIN ANALYZE` rendering.
    pub explain: String,
    /// Flattened (preorder) per-operator actuals of the join/scan tree.
    pub operators: Vec<OpBreakdown>,
    /// Post-join stage actuals (aggregate, projection, order_by, ...) of
    /// the top-level plan.
    pub stages: Vec<StageBreakdown>,
    /// End-to-end execution wall time.
    pub total_ms: f64,
    /// Peak bytes tracked by the statement's memory scope.
    pub mem_peak: u64,
}

/// Decrements the active-query gauge on drop (error paths included).
struct GaugeGuard;

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        mduck_obs::metrics().active_queries.add(-1);
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

/// The no-panic backstop: a panic escaping the executor is a bug by
/// contract, but it must degrade to an error, not unwind into (and
/// possibly abort) the host process. The interior locks recover from
/// poisoning (see `mduck-sync`), so catching here leaves the database
/// usable. Stack overflows and `abort()` are not unwinds and cannot be
/// caught — the parser's depth limit prevents the former up front.
fn catch_panics<T>(f: impl FnOnce() -> SqlResult<T>) -> SqlResult<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(SqlError::internal(format!("executor panicked: {msg}")))
        }
    }
}

/// Coerce incoming rows to the table's column types through registered
/// casts (SQL's implicit assignment casts: VALUES ('2025-01-01') into a
/// TIMESTAMPTZ column, text literals into UDT columns, ...).
fn coerce_rows(
    registry: &Registry,
    types: &[mduck_sql::LogicalType],
    rows: Vec<Vec<Value>>,
) -> SqlResult<Vec<Vec<Value>>> {
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let mut coerced = Vec::with_capacity(row.len());
        for (v, ty) in row.into_iter().zip(types) {
            if v.is_null() || &v.logical_type() == ty || v.logical_type().coercible_to(ty) {
                coerced.push(v);
            } else if let Some(cast) = registry.resolve_cast(&v.logical_type(), ty) {
                coerced.push(cast(&[v])?);
            } else {
                coerced.push(v); // let column storage report the mismatch
            }
        }
        out.push(coerced);
    }
    Ok(out)
}

/// Case-insensitive keyword-prefix stripper for utility statements.
/// Checked slicing: `kw.len()` may fall inside a multi-byte character of
/// arbitrary input, where `&s[..n]` would panic.
fn strip_keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    let prefix = s.get(..kw.len())?;
    if prefix.eq_ignore_ascii_case(kw) && s.as_bytes().get(kw.len())?.is_ascii_whitespace() {
        s.get(kw.len() + 1..)
    } else {
        None
    }
}

/// Build one column with the (sorted-by-construction) replacements
/// applied, without touching the table — the staging half of an atomic
/// UPDATE.
fn build_column_with_replacements(
    t: &Table,
    col: usize,
    replacements: &[(usize, Value)],
) -> SqlResult<ColumnData> {
    let ty = t.columns[col].ty.clone();
    let mut nc = ColumnData::new(&ty);
    let mut next = 0usize;
    for i in 0..t.columns[col].len() {
        if next < replacements.len() && replacements[next].0 == i {
            nc.push(&replacements[next].1)?;
            next += 1;
        } else {
            nc.push(&t.columns[col].get(i))?;
        }
    }
    Ok(nc)
}

/// Build replacement indexes for every index over one of `cols`, reading
/// the indexed values through `values_of` (so callers can point it at
/// staged columns that are not in the table yet). Returns
/// `(index slot, new index)` pairs; assigning them cannot fail.
fn stage_index_rebuilds(
    t: &Table,
    cols: &[usize],
    index_types: &IndexTypeRegistry,
    values_of: impl Fn(usize) -> Vec<Value>,
) -> SqlResult<Vec<(usize, Box<dyn crate::index::TableIndex>)>> {
    let mut out = Vec::new();
    for (i, idx) in t.indexes.iter().enumerate() {
        if !cols.contains(&idx.column()) {
            continue;
        }
        let (name, method, col) = (idx.name().to_string(), idx.method().to_string(), idx.column());
        let ty = t.columns[col].ty.clone();
        let it = index_types
            .get(&method)
            .ok_or_else(|| SqlError::Catalog(format!("index type {method} vanished")))?;
        out.push((i, it.create(&name, col, &ty, &values_of(col))?));
    }
    Ok(out)
}

fn rebuild_indexes_for_columns(
    t: &mut Table,
    cols: &[usize],
    index_types: &IndexTypeRegistry,
) -> SqlResult<()> {
    let staged = stage_index_rebuilds(t, cols, index_types, |col| t.column_values(col))?;
    for (i, idx) in staged {
        t.indexes[i] = idx;
    }
    Ok(())
}

/// Roll a table back to `len` rows: truncate every column and rebuild
/// every attached index (they may hold entries for the removed rows).
fn truncate_table(t: &mut Table, len: usize, index_types: &IndexTypeRegistry) -> SqlResult<()> {
    for c in &mut t.columns {
        c.truncate(len);
    }
    let all: Vec<usize> = (0..t.columns.len()).collect();
    rebuild_indexes_for_columns(t, &all, index_types)
}

fn reorder_for_insert(
    t: &Table,
    columns: Option<&[String]>,
    incoming: Vec<Vec<Value>>,
) -> SqlResult<Vec<Vec<Value>>> {
    match columns {
        None => Ok(incoming),
        Some(cols) => {
            let mut mapping = Vec::with_capacity(cols.len());
            for c in cols {
                let idx = t
                    .column_index(c)
                    .ok_or_else(|| SqlError::Catalog(format!("no column {c:?}")))?;
                mapping.push(idx);
            }
            let width = t.columns.len();
            let mut out = Vec::with_capacity(incoming.len());
            for row in incoming {
                if row.len() != mapping.len() {
                    return Err(SqlError::execution("INSERT arity mismatch"));
                }
                let mut full = vec![Value::Null; width];
                for (v, &dst) in row.into_iter().zip(&mapping) {
                    full[dst] = v;
                }
                out.push(full);
            }
            Ok(out)
        }
    }
}
