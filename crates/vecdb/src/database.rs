//! The embeddable database instance: the `duckdb.Connection` analogue.
//!
//! The statement front door (`mduck_sql::session`) and the commit path
//! (`mduck_wal::durable`) are shared with the row engine; this file keeps
//! what the vectorized engine does differently: columnar storage, the
//! SELECT path through the statement cache (template → instantiate →
//! execute, [`crate::cache`]), UPDATE/DELETE staging over column vectors,
//! and index rebuilds.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::ops::{Deref, DerefMut};
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
    parse_statement, parse_template, Binder, Catalog, ExecGuard, ExecLimits, Expr, LogicalType,
    Registry, Shape, Slots, SqlError, SqlResult, Value,
};

use crate::cache::{CacheStats, Kind, Plan, StatementCache, Template};
use crate::catalog::{DbCatalog, Table};
use crate::column::ColumnData;
use crate::exec::{execute_select, execute_select_planned, plan_select, EngineCtx};
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
    cache: StatementCache,
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
            cache: StatementCache::default(),
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
    /// Cached plans made before the write are not reused after it.
    pub fn registry_mut(&self) -> EpochGuard<'_, Registry> {
        EpochGuard { guard: self.registry.write(), catalog: &self.catalog }
    }

    pub fn registry(&self) -> mduck_sync::RwLockReadGuard<'_, Registry> {
        self.registry.read()
    }

    /// Mutate the index-type registry (extension load hook). Cached
    /// plans made before the write are not reused after it.
    pub fn index_types_mut(&self) -> EpochGuard<'_, IndexTypeRegistry> {
        EpochGuard { guard: self.index_types.write(), catalog: &self.catalog }
    }

    /// Attach a WAL to a live database (`PRAGMA wal='path'`): recover
    /// the on-disk state into the catalog, then log every later DDL/DML
    /// statement (see [`Durability::attach`]).
    pub fn attach_wal(&self, path: impl AsRef<Path>) -> SqlResult<()> {
        let attached = self.durable.attach(self, path.as_ref());
        self.catalog.bump_epoch();
        attached
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
        self.execute_with_guard(sql, &self.session.guard())
    }

    /// Execute one SQL statement under a caller-supplied guard, so the
    /// caller can keep the [`mduck_sql::CancelHandle`] (to cancel from
    /// another thread) or spend one budget across several statements.
    pub fn execute_with_guard(&self, sql: &str, guard: &ExecGuard) -> SqlResult<QueryResult> {
        let profiling = mduck_obs::query_log_sink_active();
        match self.front(sql, None)? {
            Front::Cached(lookup) => Ok(self.run_cached_logged(sql, lookup, guard, profiling)?.result),
            Front::Parsed(stmt) => self.session.run_logged(
                sql,
                guard,
                |p| self.run_statement(&stmt, guard, Some(Arc::clone(p))),
                |_| None,
            ),
        }
    }

    /// What the statement cache has done: hits, misses and the templates
    /// it holds.
    pub fn statement_cache(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Prepare a SELECT (or EXPLAIN) whose `$1 … $n` placeholders take
    /// their values at [`PreparedStatement::execute`]. It runs through the
    /// statement cache like any SELECT text: executions whose values have
    /// the same types share one template.
    ///
    /// ```
    /// use quackdb::Database;
    /// use mduck_sql::Value;
    ///
    /// let db = Database::new();
    /// db.execute("CREATE TABLE t(a INTEGER, b VARCHAR)").unwrap();
    /// db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')").unwrap();
    /// let by_a = db.prepare("SELECT b FROM t WHERE a = $1").unwrap();
    /// let r = by_a.execute(&[Value::Int(2)]).unwrap();
    /// assert_eq!(r.rows[0][0].to_string(), "two");
    /// ```
    pub fn prepare(&self, sql: &str) -> SqlResult<PreparedStatement<'_>> {
        let shape = Shape::of(sql, true)?;
        if !is_select(&shape) {
            return Err(SqlError::Bind("only SELECT and EXPLAIN statements can be prepared".into()));
        }
        Ok(PreparedStatement { db: self, sql: sql.trim().into(), shape })
    }

    /// A statement from SQL text: a SELECT or EXPLAIN looked up in the
    /// statement cache (parsed as a template on a miss), anything else
    /// parsed. `prepared` is a prepared statement's shape and values.
    fn front(&self, sql: &str, prepared: Option<(&Shape, &[Value])>) -> SqlResult<Front> {
        // The key, and the values of the placeholders then the literals.
        let (key, written, placeholders) = match prepared {
            Some((shape, params)) => {
                let written = params.iter().chain(&shape.literals).cloned().collect();
                (shape.key_with(params), written, params.len())
            }
            None => match may_select(sql).then(|| Shape::of(sql, false)) {
                Some(Ok(shape)) if is_select(&shape) => (shape.key, shape.literals, 0),
                // Lexing again reports the same error.
                _ => return Ok(Front::Parsed(Box::new(parse_timed(sql)?))),
            },
        };
        let epoch = self.catalog.epoch();
        if let Some(template) = self.cache.get(&key, epoch) {
            return Ok(Front::Cached(Lookup { key, written, epoch, found: Found::Template(template) }));
        }
        let (params, literals) = written.split_at(placeholders);
        let mut slots = Slots::new(params, literals);
        let stmt = parse_timed_with(|| parse_template(sql, &mut slots))?;
        let kind = match select_of(&stmt) {
            Ok((kind, _)) => kind,
            // Not a SELECT after all (`EXPLAIN INSERT …`): as written.
            Err(_) if prepared.is_none() => return Ok(Front::Parsed(Box::new(parse_statement(sql)?))),
            Err(e) => return Err(e),
        };
        Ok(Front::Cached(Lookup { key, written, epoch, found: Found::Parsed(Box::new((kind, stmt, slots))) }))
    }

    /// A SELECT or EXPLAIN through the logged session wrapper. With
    /// `profiling`, a SELECT records its operators' actuals and a slow one
    /// attaches its `EXPLAIN ANALYZE` text to the query log.
    fn run_cached_logged(
        &self,
        sql: &str,
        lookup: Lookup,
        guard: &ExecGuard,
        profiling: bool,
    ) -> SqlResult<ProfiledQuery> {
        let profiling = profiling && lookup.kind() == Kind::Select;
        self.session.run_logged(
            sql,
            guard,
            |p| self.run_cached(sql, lookup, guard, Some(Arc::clone(p)), profiling),
            |pq| profiling.then(|| pq.explain.clone()),
        )
    }

    /// Run a looked-up statement: instantiate its template on a hit, else
    /// build the template (bind and plan its slots) and run the plan of
    /// the statement it was built from, caching the template on its
    /// shape's second sighting ([`StatementCache::admit`]).
    fn run_cached(
        &self,
        sql: &str,
        lookup: Lookup,
        guard: &ExecGuard,
        progress: Option<Arc<QueryProgress>>,
        profiling: bool,
    ) -> SqlResult<ProfiledQuery> {
        let Lookup { key, written, epoch, found } = lookup;
        let _query_span = mduck_obs::span("vecdb.query");
        // `cached`: a template of this shape is in the cache.
        let (kind, stmt, mut slots, cached) = match found {
            Found::Template(template) => {
                let exact = profiling || template.kind == Kind::ExplainAnalyze;
                if let Some(plan) = template.instantiate(&written, &self.catalog, exact) {
                    self.cache.count(true);
                    return self.run_plan(template.kind, &plan, guard, progress, profiling);
                }
                // A value the template's structure turns on changed, or a
                // table it estimated joins over: a template of its own.
                let (params, literals) = written.split_at(template.slots.placeholders());
                let mut slots = Slots::new(params, literals);
                let stmt = parse_template(sql, &mut slots)?;
                (template.kind, stmt, slots, true)
            }
            Found::Parsed(parsed) => {
                let (kind, stmt, slots) = *parsed;
                (kind, stmt, slots, false)
            }
        };
        self.cache.count(false);
        let (plan, counts) = match self.plan(select_of(&stmt)?.1, Some(&mut slots), guard) {
            Ok(planned) => planned,
            // A message may quote a literal: the written statement's, run
            // as written. A prepared statement's is the template's.
            Err(e) if slots.placeholders() > 0 => return Err(e),
            Err(_) => return self.run_written(&parse_statement(sql)?, guard, progress, profiling),
        };
        if !cached && !self.cache.admit(&key) {
            // A shape seen once: no copy kept.
            let own = plan.instantiated(slots.values());
            return self.run_plan(kind, &own, guard, progress, profiling);
        }
        let template = Arc::new(Template::new(kind, epoch, slots, plan, counts));
        let own = template.own_plan();
        self.cache.insert(key, Arc::clone(&template));
        self.run_plan(kind, &own, guard, progress, profiling)
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
            Statement::Select(_) | Statement::Explain { .. } => {
                let _query_span = mduck_obs::span("vecdb.query");
                Ok(self.run_written(stmt, guard, progress, false)?.result)
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
        match self.front(sql, None)? {
            Front::Cached(lookup) if lookup.kind() == Kind::Select => {
                self.run_cached_logged(sql, lookup, &self.session.guard(), true)
            }
            _ => Err(SqlError::Bind("execute_analyzed supports SELECT".into())),
        }
    }

    /// The plan of the SELECT (or the EXPLAINed SELECT) `sql`, as `EXPLAIN`
    /// renders it: the bound statement, each block's expressions
    /// renumbered onto the columns its pruned join tree hands on, and the
    /// trees planned for it.
    pub fn plan_of(&self, sql: &str) -> SqlResult<Plan> {
        let stmt = parse_statement(sql)?;
        let (_, sel) = select_of(&stmt)?;
        Ok(self.plan(sel, None, &self.session.guard())?.0)
    }

    /// Bind, plan and run a parsed SELECT or EXPLAIN, no template kept.
    fn run_written(
        &self,
        stmt: &Statement,
        guard: &ExecGuard,
        progress: Option<Arc<QueryProgress>>,
        profiling: bool,
    ) -> SqlResult<ProfiledQuery> {
        let (kind, sel) = select_of(stmt)?;
        let (plan, _) = self.plan(sel, None, guard)?;
        self.run_plan(kind, &plan, guard, progress, profiling)
    }

    /// Bind and plan one SELECT: with `slots`, as a template (each literal
    /// a slot), recording the row counts its join estimates read.
    fn plan(
        &self,
        sel: &SelectStmt,
        slots: Option<&mut Slots>,
        guard: &ExecGuard,
    ) -> SqlResult<(Plan, Vec<(String, usize)>)> {
        let m = mduck_obs::metrics();
        let registry = self.registry.read();
        let bind_start = Instant::now();
        let templated = slots.is_some();
        let mut bound = {
            let _s = mduck_obs::span("vecdb.bind");
            match slots {
                Some(slots) => Binder::templated(&self.catalog, &registry, slots).bind_select(sel),
                None => Binder::new(&self.catalog, &registry).bind_select(sel),
            }?
        };
        m.vecdb_bind_ns.observe(bind_start.elapsed().as_nanos() as u64);
        let mut ctx = EngineCtx::new(&self.catalog, &registry, &self.index_types, guard);
        if templated {
            ctx = ctx.recording_counts();
        }
        let plan_start = Instant::now();
        let planned = {
            let _s = mduck_obs::span("vecdb.plan");
            plan_select(&ctx, &mut bound)?
        };
        m.vecdb_plan_ns.observe(plan_start.elapsed().as_nanos() as u64);
        let counts = ctx.counts.map(|c| c.into_inner()).unwrap_or_default();
        Ok((Plan { bound, planned }, counts))
    }

    /// Run a SELECT's plan as `kind` says: execute it, render it
    /// (`EXPLAIN`), or execute it profiled and render the actuals
    /// (`EXPLAIN ANALYZE`). With `profiling`, a SELECT's operators record
    /// their actuals and the result carries the `EXPLAIN ANALYZE`
    /// rendering plus the per-operator and per-stage breakdowns; without
    /// it those stay empty.
    fn run_plan(
        &self,
        kind: Kind,
        plan: &Plan,
        guard: &ExecGuard,
        progress: Option<Arc<QueryProgress>>,
        profiling: bool,
    ) -> SqlResult<ProfiledQuery> {
        let explain = |text: String| ProfiledQuery {
            result: QueryResult::single("explain", LogicalType::Text, Value::text(text)),
            explain: String::new(),
            operators: Vec::new(),
            stages: Vec::new(),
            total_ms: 0.0,
            mem_peak: guard.mem().peak(),
        };
        match kind {
            Kind::Select => self.execute_plan(plan, guard, progress, profiling),
            Kind::Explain => Ok(explain(render_plan(&plan.bound, &plan.planned))),
            Kind::ExplainAnalyze => {
                Ok(explain(self.execute_plan(plan, guard, progress, true)?.explain))
            }
        }
    }

    /// Execute a planned SELECT.
    fn execute_plan(
        &self,
        plan: &Plan,
        guard: &ExecGuard,
        progress: Option<Arc<QueryProgress>>,
        profiling: bool,
    ) -> SqlResult<ProfiledQuery> {
        let _active = ActiveQuery::begin();
        let m = mduck_obs::metrics();
        let registry = self.registry.read();
        let mut ctx = EngineCtx::new(&self.catalog, &registry, &self.index_types, guard)
            .with_threads(self.effective_threads())
            .with_progress(progress);
        if profiling {
            ctx.enable_profiling();
        }
        let Plan { bound: plan, planned } = plan;
        let exec_start = Instant::now();
        let rows = {
            let _s = mduck_obs::span("vecdb.exec");
            execute_select_planned(&ctx, plan, planned, &OuterStack::EMPTY)?
        };
        let exec_elapsed = exec_start.elapsed();
        m.vecdb_exec_ns.observe(exec_elapsed.as_nanos() as u64);
        let total_ms = exec_elapsed.as_secs_f64() * 1e3;
        let (explain, operators, stages) = match &ctx.profile {
            Some(profile) => {
                let analyze = AnalyzeData { profile, total_ms, result_rows: rows.len() };
                (
                    render_plan_analyzed(plan, planned, &analyze),
                    op_breakdown(planned, profile),
                    stage_breakdown(plan, planned, profile),
                )
            }
            None => Default::default(),
        };
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
        let t = self.catalog.get(table)?;
        let mut t = t.write();
        let col = t
            .column_index(column)
            .ok_or_else(|| SqlError::Catalog(format!("no column {column:?} in {table:?}")))?;
        let ty = t.columns[col].ty.clone();
        let values = || t.column_values(col);
        let threads = self.effective_threads();
        let index =
            self.index_types.read().build(&t.indexes, name, method, col, &ty, values, threads)?;
        t.indexes.push(index);
        drop(t);
        self.catalog.bump_epoch();
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
            let staged = self.stage(&t, &record)?;
            commit.log(&record)?;
            staged.assign(&mut t);
            Ok(n)
        })
    }

    /// What an UPDATE or DELETE `record` leaves of table `t`, staged: its
    /// changed columns and the indexes rebuilt over them, built on the
    /// database's thread setting.
    fn stage(&self, t: &Table, record: &WalRecord) -> SqlResult<Staged> {
        Staged::new(t, record, &self.index_types.read(), self.effective_threads())
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
                self.stage(&t, &record)?.assign(&mut t);
                Ok(())
            }
        }
    }

    fn drop_index(&self, table: &str, name: &str) {
        if let Ok(t) = self.catalog.get(table) {
            t.write().indexes.retain(|i| i.name() != name);
            self.catalog.bump_epoch();
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
        if let Err(e) = t.append_rows(&rows) {
            // A failed append may have dropped indexes.
            drop(t);
            self.catalog.bump_epoch();
            return Err(e);
        }
        if commit.is_logging() {
            let record = WalRecord::Insert { table: t.name.clone(), rows: rows.into_owned() };
            if let Err(e) = commit.log(&record) {
                let undo = WalRecord::Delete {
                    table: t.name.clone(),
                    rows: (pre_rows as u64..t.row_count() as u64).collect(),
                };
                self.stage(&t, &undo)?.assign(&mut t);
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
    /// Post-join stage actuals (aggregate, projection, order_by, ...),
    /// summed per stage over every block: the main one, its CTE bodies and
    /// its FROM subqueries.
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

/// A SELECT prepared by [`Database::prepare`].
pub struct PreparedStatement<'db> {
    db: &'db Database,
    sql: String,
    shape: Shape,
}

impl PreparedStatement<'_> {
    /// How many `$n` values [`PreparedStatement::execute`] takes: the
    /// highest `n` written.
    pub fn param_count(&self) -> usize {
        self.shape.placeholders
    }

    /// Execute with `$1 … $n` bound to `params`, each a constant of its
    /// value's type.
    pub fn execute(&self, params: &[Value]) -> SqlResult<QueryResult> {
        if params.len() != self.param_count() {
            return Err(SqlError::Bind(format!(
                "prepared statement takes {} parameters, got {}",
                self.param_count(),
                params.len()
            )));
        }
        let (db, guard) = (self.db, self.db.session.guard());
        match db.front(&self.sql, Some((&self.shape, params)))? {
            Front::Cached(lookup) => Ok(db.run_cached_logged(&self.sql, lookup, &guard, false)?.result),
            Front::Parsed(_) => Err(SqlError::internal("a prepared statement is a SELECT")),
        }
    }
}

/// A statement from SQL text ([`Database::front`]).
enum Front {
    Cached(Lookup),
    Parsed(Box<Statement>),
}

/// A SELECT or EXPLAIN read through the statement cache: its shape's key,
/// the values of its placeholders and literals, the schema epoch it was
/// looked up at, and its template or, on a miss, its statement parsed as
/// one.
struct Lookup {
    key: String,
    written: Vec<Value>,
    epoch: u64,
    found: Found,
}

enum Found {
    Template(Arc<Template>),
    Parsed(Box<(Kind, Statement, Slots)>),
}

impl Lookup {
    fn kind(&self) -> Kind {
        match &self.found {
            Found::Template(t) => t.kind,
            Found::Parsed(parsed) => parsed.0,
        }
    }
}

/// The SELECT a statement runs and how: `Err` unless it is a SELECT or
/// an EXPLAIN of one.
fn select_of(stmt: &Statement) -> SqlResult<(Kind, &SelectStmt)> {
    match stmt {
        Statement::Select(sel) => Ok((Kind::Select, sel)),
        Statement::Explain { statement, analyze } => match &**statement {
            Statement::Select(sel) if *analyze => Ok((Kind::ExplainAnalyze, sel)),
            Statement::Select(sel) => Ok((Kind::Explain, sel)),
            _ => Err(SqlError::Bind("EXPLAIN supports SELECT".into())),
        },
        _ => Err(SqlError::Bind("only SELECT and EXPLAIN statements can be prepared".into())),
    }
}

/// Can `sql` be a SELECT or EXPLAIN? Its first word is one of theirs, or
/// it starts with a comment: a cheap look that spares any other
/// statement the shape's lexing pass.
fn may_select(sql: &str) -> bool {
    let sql = sql.trim_start();
    let word = sql.split(|c: char| !c.is_ascii_alphabetic()).next().unwrap_or_default();
    sql.starts_with("--") || sql.starts_with("/*") || starts_select(word)
}

/// Does the statement of `shape` start as a SELECT or EXPLAIN does?
fn is_select(shape: &Shape) -> bool {
    starts_select(shape.key.split(' ').next().unwrap_or_default())
}

/// Is `word` the first word of a SELECT or EXPLAIN?
fn starts_select(word: &str) -> bool {
    ["select", "with", "explain"].iter().any(|kw| word.eq_ignore_ascii_case(kw))
}

/// A write guard on one of the database's registries that advances the
/// catalog's schema epoch when released, so no plan made before the
/// write is reused after it.
pub struct EpochGuard<'a, T> {
    guard: mduck_sync::RwLockWriteGuard<'a, T>,
    catalog: &'a DbCatalog,
}

impl<T> Deref for EpochGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for EpochGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for EpochGuard<'_, T> {
    fn drop(&mut self) {
        // Still held: a planner that reads the new epoch waits for the
        // write to finish.
        self.catalog.bump_epoch();
    }
}

/// Parse one statement, feeding the parse-phase latency histogram.
fn parse_timed(sql: &str) -> SqlResult<Statement> {
    parse_timed_with(|| parse_statement(sql))
}

fn parse_timed_with(parse: impl FnOnce() -> SqlResult<Statement>) -> SqlResult<Statement> {
    let _s = mduck_obs::span("vecdb.parse");
    let start = Instant::now();
    let stmt = parse();
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
    fn new(
        t: &Table,
        record: &WalRecord,
        index_types: &IndexTypeRegistry,
        threads: usize,
    ) -> SqlResult<Self> {
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
        let type_of = |c: usize| t.columns[c].ty.clone();
        let values_of = |col| match columns.iter().find(|(c, _)| *c == col) {
            Some((_, nc)) => (0..nc.len()).map(|i| nc.get(i)).collect(),
            None => t.column_values(col),
        };
        let indexes = index_types.rebuild(&t.indexes, &cols, type_of, values_of, threads)?;
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
