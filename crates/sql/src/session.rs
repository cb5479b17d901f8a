//! The statement front door both engines share.
//!
//! Everything between `execute(sql)` and an engine's executor that does
//! not depend on the execution model lives here, once: the per-database
//! limits and progress slot, the logged no-panic wrapper every SQL-text
//! statement runs in, the per-database pragmas, INSERT row preparation,
//! UPDATE/DELETE binding, the DML `count` result, and the `SHOW TABLES` /
//! `DESCRIBE` utility statements. The commit path (WAL, DDL rules,
//! checkpoints) is its durable twin in `mduck_wal::durable`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mduck_obs::QueryProgress;
use mduck_sync::{Mutex, RwLock};

use crate::ast::{Expr, PragmaValue};
use crate::binder::{bind_constant_expr, Binder};
use crate::eval::{eval, NoSubqueries, OuterStack};
use crate::{
    introspect, BoundExpr, Catalog, ExecGuard, ExecLimits, Field, LogicalType, Registry, Schema,
    SqlError, SqlResult, Value,
};

/// Hard ceiling on the worker pool size (sanity bound for PRAGMA input).
pub const MAX_THREADS: usize = 256;

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

    /// A one-column, one-row result.
    pub fn single(name: &str, ty: LogicalType, value: Value) -> Self {
        QueryResult { schema: Schema::new(vec![free_field(name, ty)]), rows: vec![vec![value]] }
    }

    /// The result of INSERT/UPDATE/DELETE: one `count INT` row.
    pub fn count(n: usize) -> Self {
        Self::single("count", LogicalType::Int, Value::Int(n as i64))
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

/// A result column that belongs to no table.
fn free_field(name: &str, ty: LogicalType) -> Field {
    Field { name: name.into(), table: None, ty }
}

/// What the query log reads off a finished statement's result.
pub trait Logged {
    fn rows_returned(&self) -> usize;
}

impl Logged for QueryResult {
    fn rows_returned(&self) -> usize {
        self.rows.len()
    }
}

/// Per-database statement state: the engine's name in the query log, the
/// worker-thread setting, the limits every statement runs under, and the
/// progress handle of the most recent SQL-text statement, kept after it
/// finishes (reporting `1.0`) until the next one replaces it.
pub struct Session {
    engine: &'static str,
    /// Most worker threads the engine can use: [`MAX_THREADS`] for a
    /// parallel engine, 1 for a serial one.
    max_threads: usize,
    /// Configured worker threads; 0 = auto-detect.
    threads: AtomicUsize,
    limits: RwLock<ExecLimits>,
    progress: Mutex<Option<Arc<QueryProgress>>>,
}

impl Session {
    pub fn new(engine: &'static str, max_threads: usize) -> Self {
        Session {
            engine,
            max_threads,
            threads: AtomicUsize::new(0),
            limits: RwLock::default(),
            progress: Mutex::default(),
        }
    }

    /// Set the worker-thread count; `0` restores auto-detection.
    pub fn set_threads(&self, n: usize) {
        self.threads.store(n.min(MAX_THREADS), Ordering::Relaxed);
    }

    /// The configured thread count (`0` = auto-detect).
    pub fn threads(&self) -> usize {
        self.threads.load(Ordering::Relaxed)
    }

    /// The thread count statements actually execute with: the configured
    /// value, or (when auto) the `MDUCK_THREADS` environment variable, or
    /// `std::thread::available_parallelism` — never more than the engine
    /// can use.
    pub fn effective_threads(&self) -> usize {
        // Asked once per process: on Linux each call reads the cgroup's
        // CPU quota files, tens of microseconds per statement.
        static CORES: OnceLock<usize> = OnceLock::new();
        let configured = self.threads();
        let n = if configured > 0 {
            configured
        } else {
            std::env::var("MDUCK_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    *CORES.get_or_init(|| {
                        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
                    })
                })
        };
        n.min(MAX_THREADS).min(self.max_threads)
    }

    /// The resource limits currently in force.
    pub fn limits(&self) -> ExecLimits {
        self.limits.read().clone()
    }

    /// Set the resource limits applied to every subsequent statement.
    pub fn set_limits(&self, limits: ExecLimits) {
        *self.limits.write() = limits;
    }

    /// A fresh statement guard under the configured limits.
    pub fn guard(&self) -> ExecGuard {
        ExecGuard::new(&self.limits.read())
    }

    /// Completion estimate of the most recent logged statement:
    /// monotonically non-decreasing in `[0, 1]`, exactly `1.0` once
    /// finished, `None` before any statement ran. Safe to poll from
    /// another thread while the statement is still executing.
    pub fn progress(&self) -> Option<f64> {
        self.progress.lock().as_ref().map(|p| p.fraction())
    }

    /// Run one SQL-text statement: register live progress, execute `run`
    /// behind the no-panic backstop, finish the progress handle, then
    /// append one query-log record. `slow_profile` is consulted only for
    /// a successful statement at least as slow as `PRAGMA slow_query_ms`.
    pub fn run_logged<T: Logged>(
        &self,
        sql: &str,
        guard: &ExecGuard,
        run: impl FnOnce(&Arc<QueryProgress>) -> SqlResult<T>,
        slow_profile: impl FnOnce(&T) -> Option<String>,
    ) -> SqlResult<T> {
        let id = mduck_obs::next_query_id();
        let sql_text: Arc<str> = sql.trim().into();
        let progress = QueryProgress::begin(Arc::clone(&sql_text));
        *self.progress.lock() = Some(Arc::clone(&progress));
        let start = Instant::now();
        let result = catch_panics(|| run(&progress));
        progress.finish();
        let duration = start.elapsed();
        let slow = duration.as_millis() as u64 >= mduck_obs::slow_threshold_ms();
        let (rows_returned, error, profile) = match &result {
            Ok(r) => (r.rows_returned() as u64, None, if slow { slow_profile(r) } else { None }),
            Err(e) => (0, Some(e.to_string()), None),
        };
        mduck_obs::log_query(mduck_obs::QueryLogRecord {
            id,
            engine: self.engine,
            sql: sql_text,
            duration_us: duration.as_micros() as u64,
            rows_returned,
            rows_scanned: guard.rows_scanned(),
            guard_trip: guard.trip_label(),
            mem_peak: guard.mem().peak(),
            threads: self.effective_threads() as u32,
            error,
            profile,
        });
        result
    }

    /// The per-database pragmas (`threads`, `memory_limit`) and the
    /// process-global introspection pragmas. `PRAGMA threads` answers
    /// with the count the engine will actually use.
    pub fn pragma(&self, name: &str, value: Option<&PragmaValue>) -> SqlResult<QueryResult> {
        match name {
            "threads" => {
                if let Some(v) = value {
                    let n = v.as_int().ok_or_else(|| {
                        SqlError::Bind(format!("PRAGMA threads expects an integer, got {v:?}"))
                    })?;
                    if !(0..=MAX_THREADS as i64).contains(&n) {
                        return Err(SqlError::OutOfRange(format!(
                            "PRAGMA threads expects 0..={MAX_THREADS}, got {n}"
                        )));
                    }
                    self.set_threads(n as usize);
                }
                let n = self.effective_threads() as i64;
                Ok(QueryResult::single("threads", LogicalType::Int, Value::Int(n)))
            }
            "memory_limit" => {
                if let Some(v) = value {
                    self.limits.write().memory_limit = introspect::parse_memory_limit(v)?;
                }
                Ok(introspect::memory_limit_result(self.limits.read().memory_limit))
            }
            _ => introspect::pragma(name, value)?
                .ok_or_else(|| SqlError::Catalog(format!("unknown pragma {name:?}"))),
        }
    }
}

/// The no-panic backstop: a panic escaping an executor is a bug by
/// contract, but it must degrade to an error, not unwind into (and
/// possibly abort) the host process. The interior locks recover from
/// poisoning (see `mduck-sync`), so catching here leaves the database
/// usable. Stack overflows and `abort()` are not unwinds and cannot be
/// caught — the parser's depth limit prevents the former up front.
pub fn catch_panics<T>(f: impl FnOnce() -> SqlResult<T>) -> SqlResult<T> {
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

/// One executing SELECT: counted in `queries_executed` on creation, and
/// holding the `active_queries` gauge up until dropped (error paths
/// included).
pub struct ActiveQuery(());

impl ActiveQuery {
    pub fn begin() -> Self {
        let m = mduck_obs::metrics();
        m.queries_executed.inc(1);
        m.active_queries.add(1);
        ActiveQuery(())
    }
}

impl Drop for ActiveQuery {
    fn drop(&mut self) {
        mduck_obs::metrics().active_queries.add(-1);
    }
}

/// `SHOW TABLES` and `DESCRIBE <table>`, answered from the catalog before
/// parsing, as in DuckDB's shell. `None` when `sql` is neither.
pub fn utility(sql: &str, catalog: &dyn Catalog) -> Option<SqlResult<QueryResult>> {
    let trimmed = sql.trim().trim_end_matches(';').trim();
    if trimmed.eq_ignore_ascii_case("show tables") {
        let rows = catalog.table_names().into_iter().map(|n| vec![Value::text(n)]).collect();
        let schema = Schema::new(vec![free_field("name", LogicalType::Text)]);
        return Some(Ok(QueryResult { schema, rows }));
    }
    let table = strip_keyword(trimmed, "describe")?.trim();
    Some(
        catalog
            .table_schema(table)
            .ok_or_else(|| SqlError::Catalog(format!("table {table:?} does not exist")))
            .map(|cols| QueryResult {
                schema: Schema::new(vec![
                    free_field("column_name", LogicalType::Text),
                    free_field("column_type", LogicalType::Text),
                ]),
                rows: cols
                    .into_iter()
                    .map(|(n, ty)| vec![Value::text(n), Value::text(ty.name())])
                    .collect(),
            }),
    )
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

/// Evaluate the constant rows of `INSERT ... VALUES`.
pub fn eval_values(
    rows: &[Vec<Expr>],
    catalog: &dyn Catalog,
    registry: &Registry,
) -> SqlResult<Vec<Vec<Value>>> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|e| {
                    let bound = bind_constant_expr(e, catalog, registry)?;
                    eval(&bound, &[], &OuterStack::EMPTY, &NoSubqueries)
                })
                .collect()
        })
        .collect()
}

/// Shape incoming INSERT rows for `table`: charge them to the statement's
/// row budget, spread an explicit column list onto the table's column
/// order (NULL elsewhere; every row must match the list's arity), and
/// apply SQL's implicit assignment casts. Run it under the commit lock so
/// the table schema cannot change before the rows are appended.
pub fn prepare_insert(
    guard: &ExecGuard,
    catalog: &dyn Catalog,
    registry: &Registry,
    table: &str,
    columns: Option<&[String]>,
    incoming: Vec<Vec<Value>>,
) -> SqlResult<Vec<Vec<Value>>> {
    guard.check_rows(incoming.len())?;
    let target = catalog
        .table_schema(table)
        .ok_or_else(|| SqlError::Catalog(format!("table {table:?} does not exist")))?;
    let rows = match columns {
        None => incoming,
        Some(cols) => {
            let mapping = cols
                .iter()
                .map(|c| {
                    let lc = c.to_ascii_lowercase();
                    target
                        .iter()
                        .position(|(n, _)| *n == lc)
                        .ok_or_else(|| SqlError::Catalog(format!("no column {c:?}")))
                })
                .collect::<SqlResult<Vec<usize>>>()?;
            let mut out = Vec::with_capacity(incoming.len());
            for row in incoming {
                if row.len() != mapping.len() {
                    return Err(SqlError::execution("INSERT arity mismatch"));
                }
                let mut full = vec![Value::Null; target.len()];
                for (v, &dst) in row.into_iter().zip(&mapping) {
                    full[dst] = v;
                }
                out.push(full);
            }
            out
        }
    };
    let types: Vec<&LogicalType> = target.iter().map(|(_, ty)| ty).collect();
    coerce_rows(registry, &types, rows)
}

/// Coerce incoming rows to the table's column types through registered
/// casts (SQL's implicit assignment casts: VALUES ('2025-01-01') into a
/// TIMESTAMPTZ column, text literals into UDT columns, ...).
fn coerce_rows(
    registry: &Registry,
    types: &[&LogicalType],
    rows: Vec<Vec<Value>>,
) -> SqlResult<Vec<Vec<Value>>> {
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let mut coerced = Vec::with_capacity(row.len());
        for (v, &ty) in row.into_iter().zip(types) {
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

/// One cell an UPDATE overwrites: (row position, column, new value).
pub type UpdateCell = (u64, u64, Value);

/// An UPDATE or DELETE bound against its target table's schema.
pub struct BoundDml {
    /// `SET` assignments as (column index, value expression).
    pub sets: Vec<(usize, BoundExpr)>,
    pub filter: Option<BoundExpr>,
}

impl BoundDml {
    pub fn bind(
        catalog: &dyn Catalog,
        registry: &Registry,
        table: &str,
        sets: &[(String, Expr)],
        where_clause: Option<&Expr>,
    ) -> SqlResult<Self> {
        let cols = catalog
            .table_schema(table)
            .ok_or_else(|| SqlError::Catalog(format!("table {table:?} does not exist")))?;
        let schema = Schema::new(
            cols.into_iter()
                .map(|(name, ty)| Field { name, table: Some(table.to_ascii_lowercase()), ty })
                .collect(),
        );
        let mut binder = Binder::new(catalog, registry);
        let sets = sets
            .iter()
            .map(|(col, e)| {
                let idx = schema
                    .resolve(None, &col.to_ascii_lowercase())
                    .map_err(|_| SqlError::Catalog(format!("no column {col:?}")))?;
                Ok((idx, binder.bind_expr(e, &schema)?))
            })
            .collect::<SqlResult<Vec<_>>>()?;
        let filter = where_clause.map(|w| binder.bind_expr(w, &schema)).transpose()?;
        Ok(BoundDml { sets, filter })
    }

    /// An UPDATE's effect on the table `rows`: how many rows it targets,
    /// and the `(row position, column, new value)` cells it writes.
    pub fn update_cells<R: AsRef<[Value]>>(
        &self,
        rows: impl IntoIterator<Item = R>,
        guard: &ExecGuard,
    ) -> SqlResult<(usize, Vec<UpdateCell>)> {
        let (mut updated, mut cells) = (0, Vec::new());
        for (i, row) in rows.into_iter().enumerate() {
            let row = row.as_ref();
            if self.targets(row, guard)? {
                for (col, e) in &self.sets {
                    let v = eval(e, row, &OuterStack::EMPTY, &NoSubqueries)?;
                    cells.push((i as u64, *col as u64, v));
                }
                updated += 1;
            }
        }
        Ok((updated, cells))
    }

    /// The positions of the table `rows` a DELETE removes.
    pub fn delete_rows<R: AsRef<[Value]>>(
        &self,
        rows: impl IntoIterator<Item = R>,
        guard: &ExecGuard,
    ) -> SqlResult<Vec<u64>> {
        let mut dead = Vec::new();
        for (i, row) in rows.into_iter().enumerate() {
            if self.targets(row.as_ref(), guard)? {
                dead.push(i as u64);
            }
        }
        Ok(dead)
    }

    /// Whether the statement targets `row`. Charges one row to the
    /// statement's row budget (and polls deadline and cancellation)
    /// first, so both engines trip at the same row.
    fn targets(&self, row: &[Value], guard: &ExecGuard) -> SqlResult<bool> {
        guard.check_rows(1)?;
        match &self.filter {
            Some(w) => {
                Ok(matches!(eval(w, row, &OuterStack::EMPTY, &NoSubqueries)?, Value::Bool(true)))
            }
            None => Ok(true),
        }
    }
}
