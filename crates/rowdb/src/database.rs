//! The row-store database instance (the PostgreSQL/MobilityDB analogue).
//!
//! The statement front door (`mduck_sql::session`) and the commit path
//! (`mduck_wal::durable`) are shared with quackdb; this file keeps what
//! the row engine does differently: heap storage, Volcano SELECT/EXPLAIN
//! execution, UPDATE/DELETE staging over rows, and index rebuilds.

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

use mduck_sql::ast::{InsertSource, Statement};
use mduck_sql::catalog::BaseTable;
use mduck_sql::eval::OuterStack;
use mduck_sql::session::{self, ActiveQuery, BoundDml, Session};
use mduck_sql::{
    parse_statement, Binder, Catalog, ExecGuard, ExecLimits, Expr, LogicalType, QueryResult,
    Registry, SqlError, SqlResult, Value,
};

use crate::catalog::{HeapTable, RowCatalog};
use crate::exec::{execute_select, RowCtx};
use crate::index::{BTreeIndexType, RowIndexRegistry};
use mduck_sql::index::StagedIndexes;

/// A query result: the same type quackdb returns, for easy comparison
/// testing.
pub type RowQueryResult = QueryResult;

/// An in-process row-store database.
pub struct RowDatabase {
    pub catalog: RowCatalog,
    registry: Arc<RwLock<Registry>>,
    index_types: Arc<RwLock<RowIndexRegistry>>,
    session: Session,
    durable: Durability,
}

impl Default for RowDatabase {
    fn default() -> Self {
        Self::new()
    }
}

impl RowDatabase {
    pub fn new() -> Self {
        let mut index_types = RowIndexRegistry::default();
        index_types.register(Arc::new(BTreeIndexType));
        RowDatabase {
            catalog: RowCatalog::default(),
            registry: Arc::new(RwLock::new(Registry::with_builtins())),
            index_types: Arc::new(RwLock::new(index_types)),
            // The row engine is single-threaded by design (it stands in for
            // tuple-at-a-time PostgreSQL): `PRAGMA threads` is validated
            // like quackdb's but always reports 1.
            session: Session::new("rowdb", 1),
            durable: Durability::default(),
        }
    }

    /// A durable instance: open (or create) the WAL at `path`, recover
    /// committed state, and log every later DDL/DML statement. For
    /// extension types, load the extension first and use
    /// [`RowDatabase::attach_wal`].
    pub fn open(path: impl AsRef<Path>) -> SqlResult<Self> {
        let db = Self::new();
        db.attach_wal(path)?;
        Ok(db)
    }

    /// Attach a WAL to a live database (`PRAGMA wal='path'`), recovering
    /// on-disk state first (see [`Durability::attach`]).
    pub fn attach_wal(&self, path: impl AsRef<Path>) -> SqlResult<()> {
        self.durable.attach(self, path.as_ref())
    }

    /// Detach the WAL (`PRAGMA wal='off'`); on-disk state stays put.
    pub fn detach_wal(&self) {
        self.durable.detach()
    }

    /// The attached durability manager, if any.
    pub fn wal(&self) -> Option<Arc<DurabilityManager>> {
        self.durable.manager()
    }

    /// Bulk-insert pre-typed rows through the full commit path: atomic
    /// append, WAL record, auto-checkpoint — identical durability to an
    /// `INSERT` statement, without parse/bind overhead (used by the
    /// berlinmod loader).
    pub fn insert_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> SqlResult<usize> {
        self.durable.insert_rows(self, table, Cow::Owned(rows))
    }

    /// Snapshot the whole database and truncate the WAL (the
    /// `CHECKPOINT` statement). `false` = no WAL attached, nothing done.
    pub fn checkpoint(&self) -> SqlResult<bool> {
        self.durable.checkpoint(self)
    }

    pub fn set_exec_limits(&self, limits: ExecLimits) {
        self.session.set_limits(limits);
    }

    pub fn exec_limits(&self) -> ExecLimits {
        self.session.limits()
    }

    /// Completion fraction of the most recent `execute()` statement, if
    /// any — pollable from another thread while a statement runs.
    pub fn progress(&self) -> Option<f64> {
        self.session.progress()
    }

    pub fn registry_mut(&self) -> mduck_sync::RwLockWriteGuard<'_, Registry> {
        self.registry.write()
    }

    pub fn registry(&self) -> mduck_sync::RwLockReadGuard<'_, Registry> {
        self.registry.read()
    }

    pub fn index_types_mut(&self) -> mduck_sync::RwLockWriteGuard<'_, RowIndexRegistry> {
        self.index_types.write()
    }

    /// Execute one SQL statement. `SHOW TABLES` and `DESCRIBE <table>`
    /// are utility statements, as on quackdb.
    pub fn execute(&self, sql: &str) -> SqlResult<RowQueryResult> {
        if let Some(result) = session::utility(sql, &self.catalog) {
            return result;
        }
        let stmt = parse_timed(sql)?;
        let guard = self.session.guard();
        // Slow SELECTs capture the engine's analyzed plan; the re-plan is
        // bind-only and cheap next to a slow execution.
        self.session.run_logged(
            sql,
            &guard,
            |p| self.run_statement(&stmt, &guard, Some(p)),
            |_| self.explain_for_log(&stmt),
        )
    }

    /// The analyzed-plan text attached to slow query-log entries.
    fn explain_for_log(&self, stmt: &Statement) -> Option<String> {
        let Statement::Select(sel) = stmt else { return None };
        let registry = self.registry.read();
        let plan = Binder::new(&self.catalog, &registry).bind_select(sel).ok()?;
        let guard = self.session.guard();
        let ctx = RowCtx::new(&self.catalog, &registry, &guard);
        crate::exec::explain_select(&ctx, &plan).ok()
    }

    pub fn execute_script(&self, sql: &str) -> SqlResult<RowQueryResult> {
        let stmts = mduck_sql::parse_script(sql)?;
        let mut last = QueryResult::empty();
        for s in &stmts {
            last = self.execute_statement(s)?;
        }
        Ok(last)
    }

    /// Execute a parsed statement. Like quackdb, this is the engine's
    /// no-panic boundary: a panic escaping the Volcano executor is caught
    /// and surfaced as [`SqlError::Internal`] instead of unwinding into
    /// the host (the interior locks recover from poisoning).
    pub fn execute_statement(&self, stmt: &Statement) -> SqlResult<RowQueryResult> {
        let guard = self.session.guard();
        session::catch_panics(|| self.run_statement(stmt, &guard, None))
    }

    fn run_statement(
        &self,
        stmt: &Statement,
        guard: &ExecGuard,
        progress: Option<&QueryProgress>,
    ) -> SqlResult<RowQueryResult> {
        match stmt {
            Statement::Select(sel) => {
                let _active = ActiveQuery::begin();
                let m = mduck_obs::metrics();
                let _query_span = mduck_obs::span("rowdb.query");
                let registry = self.registry.read();
                let bind_start = Instant::now();
                let plan = {
                    let _s = mduck_obs::span("rowdb.bind");
                    Binder::new(&self.catalog, &registry).bind_select(sel)?
                };
                m.rowdb_bind_ns.observe(bind_start.elapsed().as_nanos() as u64);
                let ctx = RowCtx::new(&self.catalog, &registry, guard).with_progress(progress);
                let exec_start = Instant::now();
                let rows = {
                    let _s = mduck_obs::span("rowdb.exec");
                    execute_select(&ctx, &plan, &OuterStack::EMPTY)?
                };
                m.rowdb_exec_ns.observe(exec_start.elapsed().as_nanos() as u64);
                Ok(QueryResult { schema: plan.output_schema, rows })
            }
            Statement::Explain { statement, analyze } => {
                // PostgreSQL-style indented text plan.
                let Statement::Select(sel) = statement.as_ref() else {
                    return Err(SqlError::Bind("EXPLAIN supports SELECT".into()));
                };
                let registry = self.registry.read();
                let plan = Binder::new(&self.catalog, &registry).bind_select(sel)?;
                let ctx = RowCtx::new(&self.catalog, &registry, guard).with_progress(progress);
                let mut text = crate::exec::explain_select(&ctx, &plan)?;
                if *analyze {
                    // PostgreSQL appends execution totals below the plan.
                    let m = mduck_obs::metrics();
                    m.queries_executed.inc(1);
                    let exec_start = Instant::now();
                    let rows = {
                        let _s = mduck_obs::span("rowdb.exec");
                        execute_select(&ctx, &plan, &OuterStack::EMPTY)?
                    };
                    let elapsed = exec_start.elapsed();
                    m.rowdb_exec_ns.observe(elapsed.as_nanos() as u64);
                    text.push_str(&format!(
                        "Execution Time: {:.3} ms\n",
                        elapsed.as_secs_f64() * 1e3
                    ));
                    text.push_str(&format!("Rows Returned: {}\n", rows.len()));
                    text.push_str(&format!(
                        "Rows Scanned: {}\n",
                        *ctx.rows_scanned.borrow()
                    ));
                }
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
                            let ctx = RowCtx::new(&self.catalog, &registry, guard);
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

    fn create_index(&self, name: &str, table: &str, method: &str, column: &str) -> SqlResult<()> {
        let t = self.catalog.get(table)?;
        let mut t = t.write();
        let col = t
            .column_index(column)
            .ok_or_else(|| SqlError::Catalog(format!("no column {column:?} in {table:?}")))?;
        let index = self.index_types.read().build(
            &t.indexes,
            name,
            method,
            col,
            &t.column_types[col],
            || t.rows.iter().map(|r| r[col].clone()).collect(),
            self.session.effective_threads(),
        )?;
        t.indexes.push(index);
        Ok(())
    }

    /// UPDATE (`sets` non-empty) or DELETE body; returns the rows
    /// changed. Every index rebuild is staged before the log append and
    /// the heap is only written after it, so a guard trip or an I/O error
    /// anywhere leaves the table untouched and in step with the log.
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
            let (n, record) = dml_record(&dml, &t.name, &t.rows, guard)?;
            let Some(record) = record else { return Ok(0) };
            let indexes = self.stage(&t, &record)?;
            commit.log(&record)?;
            assign(&mut t, record, indexes);
            Ok(n)
        })
    }

    /// The indexes an UPDATE or DELETE record leaves behind, rebuilt from
    /// the post-statement values without touching the heap. Live
    /// statements stage, log, then [`assign`]; replay stages and assigns
    /// — the same path either way.
    fn stage(&self, t: &HeapTable, record: &WalRecord) -> SqlResult<StagedIndexes> {
        let index_types = self.index_types.read();
        let threads = self.session.effective_threads();
        let type_of = |c: usize| t.column_types[c].clone();
        match record {
            WalRecord::Update { cells, .. } => {
                // A later cell for the same row and column wins.
                let mut overlay: BTreeMap<(usize, usize), &Value> = BTreeMap::new();
                for (row, col, v) in cells {
                    let (r, c) = (*row as usize, *col as usize);
                    if r >= t.rows.len() || c >= t.column_names.len() {
                        return Err(SqlError::corruption(format!(
                            "update cell ({r}, {c}) outside table {} ({} rows)",
                            t.name,
                            t.rows.len()
                        )));
                    }
                    overlay.insert((r, c), v);
                }
                let mut cols: Vec<usize> = overlay.keys().map(|(_, c)| *c).collect();
                cols.sort_unstable();
                cols.dedup();
                let values_of = |col: usize| {
                    t.rows
                        .iter()
                        .enumerate()
                        .map(|(r, row)| (*overlay.get(&(r, col)).unwrap_or(&&row[col])).clone())
                        .collect()
                };
                index_types.rebuild(&t.indexes, &cols, type_of, values_of, threads)
            }
            WalRecord::Delete { rows, .. } => {
                let dead: HashSet<u64> = rows.iter().copied().collect();
                let all: Vec<usize> = (0..t.column_names.len()).collect();
                let values_of = |col: usize| {
                    t.rows
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !dead.contains(&(*i as u64)))
                        .map(|(_, row)| row[col].clone())
                        .collect()
                };
                index_types.rebuild(&t.indexes, &all, type_of, values_of, threads)
            }
            other => Err(SqlError::internal(format!("cannot stage a {} record", other.kind()))),
        }
    }

    /// Execute a SELECT and return the result together with the analyzed
    /// plan footer totals (execution time, rows returned/scanned).
    pub fn execute_analyzed(&self, sql: &str) -> SqlResult<(RowQueryResult, f64)> {
        let start = Instant::now();
        let result = self.execute(sql)?;
        Ok((result, start.elapsed().as_secs_f64() * 1e3))
    }
}

impl DurableEngine for RowDatabase {
    const DEFAULT_INDEX_METHOD: &'static str = "BTREE";

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
            tables.push(TableSnapshot {
                name: t.name.clone(),
                columns,
                indexes,
                rows: t.rows.clone(),
            });
        }
        Snapshot { tables }
    }

    /// Through the same storage paths live statements use.
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
                let res = t.write().append_rows(rows);
                res
            }
            record @ (WalRecord::Update { .. } | WalRecord::Delete { .. }) => {
                let t = self.catalog.get(record.table())?;
                let mut t = t.write();
                let indexes = self.stage(&t, &record)?;
                assign(&mut t, record, indexes);
                Ok(())
            }
        }
    }

    fn drop_index(&self, table: &str, name: &str) {
        if let Ok(t) = self.catalog.get(table) {
            t.write().indexes.retain(|i| i.name() != name);
        }
    }

    /// The atomic heap append runs first, then the WAL record; a WAL
    /// failure rolls the heap back through the DELETE staging path, so a
    /// statement that reported an error is never durable or visible. The
    /// record's copy of the rows is made only when a WAL is attached.
    fn insert(
        &self,
        table: &str,
        rows: Cow<'_, [Vec<Value>]>,
        commit: &Commit<'_>,
    ) -> SqlResult<usize> {
        let t = self.catalog.get(table)?;
        let mut t = t.write();
        let n = rows.len();
        let pre_rows = t.rows.len();
        let record = commit
            .is_logging()
            .then(|| WalRecord::Insert { table: t.name.clone(), rows: rows.to_vec() });
        t.append_rows(rows.into_owned())?;
        if let Some(record) = record {
            if let Err(e) = commit.log(&record) {
                let undo = WalRecord::Delete {
                    table: t.name.clone(),
                    rows: (pre_rows as u64..t.rows.len() as u64).collect(),
                };
                let indexes = self.stage(&t, &undo)?;
                assign(&mut t, undo, indexes);
                return Err(e);
            }
        }
        Ok(n)
    }
}

/// Write a staged UPDATE or DELETE into the heap: overwrite the cells, or
/// compact away the deleted rows, then install the staged indexes.
/// Infallible; the record was validated when it was staged.
fn assign(t: &mut HeapTable, record: WalRecord, indexes: StagedIndexes) {
    match record {
        WalRecord::Update { cells, .. } => {
            for (r, c, v) in cells {
                t.rows[r as usize][c as usize] = v;
            }
        }
        WalRecord::Delete { rows, .. } => {
            let dead: HashSet<u64> = rows.into_iter().collect();
            let mut i = 0u64;
            t.rows.retain(|_| {
                i += 1;
                !dead.contains(&(i - 1))
            });
        }
        _ => {}
    }
    for (slot, index) in indexes {
        t.indexes[slot] = index;
    }
}

/// Parse one statement, feeding the parse-phase latency histogram.
fn parse_timed(sql: &str) -> SqlResult<Statement> {
    let _s = mduck_obs::span("rowdb.parse");
    let start = Instant::now();
    let stmt = parse_statement(sql);
    mduck_obs::metrics().rowdb_parse_ns.observe(start.elapsed().as_nanos() as u64);
    stmt
}
