//! The commit path both engines share.
//!
//! An engine implements [`DurableEngine`] — snapshot, apply one record,
//! drop an index, append rows — and owns one [`Durability`]. Everything
//! else about durability is decided here, once: attaching, recovering and
//! detaching the WAL, the commit lock, the DDL commit rules, the INSERT
//! commit, checkpoints (explicit and size-triggered), and the `PRAGMA wal`
//! / `PRAGMA wal_autocheckpoint` / `CHECKPOINT` surface.
//!
//! Lock order: commit lock → the engine's table lock → the WAL file
//! mutex. Every statement applies and logs under the commit lock, so the
//! log order is the apply order and a checkpoint image always matches
//! the WAL position it claims to cover.

use std::borrow::Cow;
use std::cell::Cell;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

use mduck_sql::session::{prepare_insert, BoundDml};
use mduck_sql::{
    Catalog, ExecGuard, LogicalType, PragmaValue, QueryResult, Registry, SqlError, SqlResult,
    Value,
};

use crate::{DurabilityManager, Recovery, Snapshot, WalRecord};

/// What an engine provides so [`Durability`] can log, recover and
/// checkpoint it.
pub trait DurableEngine {
    /// The index method `CREATE INDEX` uses when the statement names none.
    const DEFAULT_INDEX_METHOD: &'static str;

    fn catalog(&self) -> &dyn Catalog;

    /// The type registry: resolves column types and decodes recovered
    /// extension values.
    fn registry(&self) -> RwLockReadGuard<'_, Registry>;

    /// Every table with its rows and index definitions, sorted by name.
    fn snapshot(&self) -> Snapshot;

    /// Apply one record to the in-memory state. Recovery replays through
    /// this, and live DDL applies through it, so replay is apply.
    fn apply(&self, record: WalRecord) -> SqlResult<()>;

    /// Drop index `name` of `table`: the undo of a `CREATE INDEX` whose
    /// log append failed.
    fn drop_index(&self, table: &str, name: &str);

    /// Append `rows` to `table` under its write lock, then, still holding
    /// it, log them through `commit`; when the append to the log fails,
    /// truncate the table back to its old length and return that error.
    /// No reader ever sees rows that are later rolled back. Build the
    /// record only if [`Commit::is_logging`].
    fn insert(&self, table: &str, rows: Cow<'_, [Vec<Value>]>, commit: &Commit<'_>)
        -> SqlResult<usize>;
}

/// One statement's access to the log, handed out under the commit lock.
pub struct Commit<'a> {
    wal: Option<&'a DurabilityManager>,
    checkpoint_due: Cell<bool>,
}

impl Commit<'_> {
    /// Whether a WAL is attached. Without one, [`Commit::log`] is a no-op
    /// and callers skip building (and copying rows into) the record.
    pub fn is_logging(&self) -> bool {
        self.wal.is_some()
    }

    /// Append `record` to the attached WAL, if any. On an error the
    /// statement must undo whatever it already applied.
    pub fn log(&self, record: &WalRecord) -> SqlResult<()> {
        if let Some(wal) = self.wal {
            if wal.append(record)? {
                self.checkpoint_due.set(true);
            }
        }
        Ok(())
    }
}

/// A database's durability state: the attached WAL, if any, and the
/// commit lock. The in-memory default has no WAL and logs nothing.
#[derive(Default)]
pub struct Durability {
    wal: RwLock<Option<Arc<DurabilityManager>>>,
    commit_lock: Mutex<()>,
}

impl Durability {
    fn lock(&self) -> MutexGuard<'_, ()> {
        self.commit_lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The attached durability manager, if any.
    pub fn manager(&self) -> Option<Arc<DurabilityManager>> {
        self.wal.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    fn set_manager(&self, manager: Option<Arc<DurabilityManager>>) {
        *self.wal.write().unwrap_or_else(PoisonError::into_inner) = manager;
    }

    /// Attach the WAL at `path`: recover the on-disk state into the
    /// engine, then log every later statement. When the WAL is brand new
    /// and the engine already holds tables, an immediate checkpoint
    /// captures them — otherwise recovery would never cover them.
    pub fn attach(&self, engine: &impl DurableEngine, path: &Path) -> SqlResult<()> {
        let _commit = self.lock();
        if self.manager().is_some() {
            return Err(SqlError::execution(
                "a WAL is already attached; detach it first (PRAGMA wal='off')",
            ));
        }
        let (manager, recovery) = DurabilityManager::open(path, &engine.registry())?;
        let fresh = recovery.snapshot.is_none() && recovery.records.is_empty();
        recover(engine, recovery)?;
        if fresh && !engine.catalog().table_names().is_empty() {
            manager.checkpoint(&engine.snapshot())?;
        }
        self.set_manager(Some(Arc::new(manager)));
        Ok(())
    }

    /// Detach the WAL. Already-logged state stays on disk; later
    /// statements are in-memory only.
    pub fn detach(&self) {
        let _commit = self.lock();
        self.set_manager(None);
    }

    /// Snapshot the engine into the checkpoint file and truncate the WAL.
    /// Returns `false` (and does nothing) when no WAL is attached.
    pub fn checkpoint(&self, engine: &impl DurableEngine) -> SqlResult<bool> {
        let _commit = self.lock();
        let Some(manager) = self.manager() else { return Ok(false) };
        manager.checkpoint(&engine.snapshot())?;
        Ok(true)
    }

    /// Run one mutating statement under the commit lock: `apply` changes
    /// the engine and logs through the [`Commit`] it is handed. When the
    /// log has grown past `PRAGMA wal_autocheckpoint`, a checkpoint runs
    /// after the commit lock is released.
    pub fn commit<T>(
        &self,
        engine: &impl DurableEngine,
        apply: impl FnOnce(&Commit<'_>) -> SqlResult<T>,
    ) -> SqlResult<T> {
        let (out, checkpoint_due) = {
            let _commit = self.lock();
            let manager = self.manager();
            let commit = Commit { wal: manager.as_deref(), checkpoint_due: Cell::new(false) };
            (apply(&commit)?, commit.checkpoint_due.get())
        };
        if checkpoint_due {
            self.auto_checkpoint(engine);
        }
        Ok(out)
    }

    /// The size-triggered checkpoint after a committed statement. A
    /// failure here must not fail that statement — it is already applied
    /// and durable in the log; the WAL keeps growing and the next trigger
    /// retries (a simulated crash poisons the manager and surfaces on the
    /// next statement instead).
    fn auto_checkpoint(&self, engine: &impl DurableEngine) {
        let _commit = self.lock();
        let Some(manager) = self.manager() else { return };
        if manager.checkpoint(&engine.snapshot()).is_ok() {
            mduck_obs::metrics().wal_auto_checkpoints.inc(1);
        }
    }

    /// Bulk-insert pre-typed rows through the full commit path: atomic
    /// append, WAL record, auto-checkpoint — identical durability to an
    /// `INSERT` statement, without parse/bind overhead.
    pub fn insert_rows(
        &self,
        engine: &impl DurableEngine,
        table: &str,
        rows: Cow<'_, [Vec<Value>]>,
    ) -> SqlResult<usize> {
        self.commit(engine, |commit| engine.insert(table, rows, commit))
    }

    /// `INSERT`: shape the incoming rows for the table under the commit
    /// lock, so its schema cannot change before they are appended, then
    /// commit them like [`Durability::insert_rows`].
    pub fn insert(
        &self,
        engine: &impl DurableEngine,
        guard: &ExecGuard,
        table: &str,
        columns: Option<&[String]>,
        incoming: Vec<Vec<Value>>,
    ) -> SqlResult<QueryResult> {
        let n = self.commit(engine, |commit| {
            let rows = {
                let registry = engine.registry();
                prepare_insert(guard, engine.catalog(), &registry, table, columns, incoming)?
            };
            engine.insert(table, Cow::Owned(rows), commit)
        })?;
        Ok(QueryResult::count(n))
    }

    /// `CREATE TABLE [IF NOT EXISTS]`: pre-check, log, apply. The
    /// pre-check makes an IF NOT EXISTS no-op log nothing and a name
    /// clash fail before the WAL sees it.
    pub fn create_table(
        &self,
        engine: &impl DurableEngine,
        name: &str,
        columns: &[(String, String)],
        if_not_exists: bool,
    ) -> SqlResult<QueryResult> {
        let columns = {
            let registry = engine.registry();
            columns
                .iter()
                .map(|(c, ty)| Ok((c.clone(), registry.resolve_type(ty)?)))
                .collect::<SqlResult<Vec<_>>>()?
        };
        self.commit(engine, |commit| {
            if engine.catalog().table_schema(name).is_some() {
                if if_not_exists {
                    return Ok(());
                }
                return Err(SqlError::Catalog(format!("table {name:?} already exists")));
            }
            let record = WalRecord::CreateTable { name: name.to_ascii_lowercase(), columns };
            commit.log(&record)?;
            engine.apply(record)
        })?;
        Ok(QueryResult::empty())
    }

    /// `DROP TABLE [IF EXISTS]`: pre-check, log, apply.
    pub fn drop_table(
        &self,
        engine: &impl DurableEngine,
        name: &str,
        if_exists: bool,
    ) -> SqlResult<QueryResult> {
        self.commit(engine, |commit| {
            if engine.catalog().table_schema(name).is_none() {
                if if_exists {
                    return Ok(());
                }
                return Err(SqlError::Catalog(format!("table {name:?} does not exist")));
            }
            let record = WalRecord::DropTable { name: name.to_ascii_lowercase() };
            commit.log(&record)?;
            engine.apply(record)
        })?;
        Ok(QueryResult::empty())
    }

    /// `CREATE INDEX`: apply (the build validates method, column and
    /// type), log, and drop the new index again if the log append fails —
    /// dropping an access path is always safe, and the statement must not
    /// report failure while leaving the index behind.
    pub fn create_index<E: DurableEngine>(
        &self,
        engine: &E,
        name: &str,
        table: &str,
        method: &str,
        column: &str,
    ) -> SqlResult<QueryResult> {
        let record = WalRecord::CreateIndex {
            name: name.to_string(),
            table: table.to_ascii_lowercase(),
            method: match method {
                "" => E::DEFAULT_INDEX_METHOD.to_string(),
                m => m.to_uppercase(),
            },
            column: column.to_string(),
        };
        self.commit(engine, |commit| {
            engine.apply(record.clone())?;
            commit.log(&record).inspect_err(|_| engine.drop_index(table, name))
        })?;
        Ok(QueryResult::empty())
    }

    /// The `CHECKPOINT` statement: `ok`, or `no wal` when none is
    /// attached.
    pub fn checkpoint_statement(&self, engine: &impl DurableEngine) -> SqlResult<QueryResult> {
        let status = if self.checkpoint(engine)? { "ok" } else { "no wal" };
        Ok(text_result("checkpoint", status))
    }

    /// `PRAGMA wal [= 'path' | 'off']` and `PRAGMA wal_autocheckpoint
    /// [= bytes]`; `None` for every other pragma.
    pub fn pragma(
        &self,
        engine: &impl DurableEngine,
        name: &str,
        value: Option<&PragmaValue>,
    ) -> Option<SqlResult<QueryResult>> {
        match name {
            "wal" => Some(self.pragma_wal(engine, value)),
            "wal_autocheckpoint" => Some(self.pragma_autocheckpoint(value)),
            _ => None,
        }
    }

    /// `''`, `off` and `none` detach; any other string attaches. Answers
    /// with the attached path, or `off`.
    fn pragma_wal(
        &self,
        engine: &impl DurableEngine,
        value: Option<&PragmaValue>,
    ) -> SqlResult<QueryResult> {
        match value {
            None => {}
            Some(PragmaValue::Int(n)) => {
                return Err(SqlError::Bind(format!("PRAGMA wal expects a path string, got {n}")))
            }
            Some(PragmaValue::Str(path)) => {
                let path = path.trim();
                if path.is_empty()
                    || path.eq_ignore_ascii_case("off")
                    || path.eq_ignore_ascii_case("none")
                {
                    self.detach();
                } else {
                    self.attach(engine, Path::new(path))?;
                }
            }
        }
        let shown = self.manager().map(|m| m.wal_path().display().to_string());
        Ok(text_result("wal", shown.as_deref().unwrap_or("off")))
    }

    /// The WAL size in bytes past which a commit triggers a checkpoint;
    /// 0 means disabled (or no WAL attached).
    fn pragma_autocheckpoint(&self, value: Option<&PragmaValue>) -> SqlResult<QueryResult> {
        if let Some(v) = value {
            let n = v.as_int().ok_or_else(|| {
                SqlError::Bind(format!("PRAGMA wal_autocheckpoint expects a byte count, got {v:?}"))
            })?;
            if n < 0 {
                return Err(SqlError::OutOfRange(format!(
                    "PRAGMA wal_autocheckpoint expects a non-negative byte count, got {n}"
                )));
            }
            let manager = self
                .manager()
                .ok_or_else(|| SqlError::execution("no WAL attached; PRAGMA wal='path' first"))?;
            manager.set_auto_checkpoint(n as u64);
        }
        let current = self.manager().map(|m| m.auto_checkpoint()).unwrap_or(0);
        Ok(QueryResult::single("wal_autocheckpoint", LogicalType::Int, Value::Int(current as i64)))
    }
}

/// An UPDATE (`dml.sets` non-empty) or DELETE over the rows of `table`:
/// how many rows it changes, and the record of its effect — `None` when
/// it targets no row.
pub fn dml_record<R: AsRef<[Value]>>(
    dml: &BoundDml,
    table: &str,
    rows: impl IntoIterator<Item = R>,
    guard: &ExecGuard,
) -> SqlResult<(usize, Option<WalRecord>)> {
    let table = table.to_string();
    let (n, record) = if dml.sets.is_empty() {
        let rows = dml.delete_rows(rows, guard)?;
        (rows.len(), WalRecord::Delete { table, rows })
    } else {
        let (n, cells) = dml.update_cells(rows, guard)?;
        (n, WalRecord::Update { table, cells })
    };
    Ok((n, (n > 0).then_some(record)))
}

/// Rebuild in-memory state from what recovery found on disk: every
/// checkpointed table with its rows, then the checkpointed indexes over
/// them, then every WAL record in log order.
fn recover(engine: &impl DurableEngine, recovery: Recovery) -> SqlResult<()> {
    let mut indexes = Vec::new();
    for t in recovery.snapshot.map(|s| s.tables).unwrap_or_default() {
        engine.apply(WalRecord::CreateTable { name: t.name.clone(), columns: t.columns })?;
        indexes.extend(t.indexes.into_iter().map(|i| WalRecord::CreateIndex {
            name: i.name,
            table: t.name.clone(),
            method: i.method,
            column: i.column,
        }));
        engine.apply(WalRecord::Insert { table: t.name, rows: t.rows })?;
    }
    for record in indexes.into_iter().chain(recovery.records) {
        engine.apply(record)?;
    }
    Ok(())
}

fn text_result(name: &str, text: &str) -> QueryResult {
    QueryResult::single(name, LogicalType::Text, Value::text(text))
}
