//! The pluggable index framework (§4.1) both engines share: extensions
//! register an [`IndexType`] (the paper's `RegisterRTreeIndex`) whose
//! instances attach to table columns, accept appended rows (index-first
//! path) or a bulk build (data-first path), and answer optimizer probes
//! for scan injection (§4.3). Each engine keeps its own registry of
//! methods (TRTREE/RTREE on quackdb, BTREE/GIST on the row engine).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::{LogicalType, SqlError, SqlResult, Value};

/// A live index on one column of one table.
pub trait TableIndex: Send + Sync {
    /// The index name (from `CREATE INDEX <name>`).
    fn name(&self) -> &str;
    /// The index method (`TRTREE`, ...).
    fn method(&self) -> &str;
    /// The indexed column position in the table.
    fn column(&self) -> usize;

    /// Index-first path (§4.2.1): new rows were appended to the table;
    /// `values[i]` is the indexed column value of row id `first_row + i`.
    fn append(&mut self, values: &[Value], first_row: u64) -> SqlResult<()>;

    /// Optimizer probe (§4.3): can this index answer `column <op>
    /// <constant>`? Returns the matching row ids when it can. `None` means
    /// the pattern is not indexable (the optimizer keeps the filter).
    fn try_scan(&self, op: &str, constant: &Value) -> SqlResult<Option<Vec<u64>>>;

    /// Entry count (diagnostics).
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Answer `column <op> constant` through the indexes of a table on that
/// column: the rows of the first one that answers, or `None` when none
/// does (or none is on the column). Indexes on other columns are never
/// asked: their answer would be for the wrong column.
pub fn probe_column(
    indexes: &[Box<dyn TableIndex>],
    column: usize,
    op: &str,
    constant: &Value,
) -> SqlResult<Option<Vec<u64>>> {
    for index in indexes.iter().filter(|i| i.column() == column) {
        if let Some(rows) = index.try_scan(op, constant)? {
            return Ok(Some(rows));
        }
    }
    Ok(None)
}

/// A registered index implementation (the paper's `IndexType` with
/// `create_instance` / `create_plan` callbacks).
pub trait IndexType: Send + Sync {
    /// The `USING <name>` method name, upper-case (e.g. `TRTREE`).
    fn type_name(&self) -> &str;

    /// Can the method index a column of this logical type?
    fn can_index(&self, ty: &LogicalType) -> bool;

    /// Data-first path (§4.2.2): create an index over existing rows. The
    /// implementation is free to parallelize (Sink/Combine/BulkConstruct)
    /// over at most `threads` workers, the database's thread setting.
    fn create(
        &self,
        index_name: &str,
        column: usize,
        column_type: &LogicalType,
        existing: &[Value],
        threads: usize,
    ) -> SqlResult<Box<dyn TableIndex>>;
}

/// Indexes staged without touching their table, as `(slot, index)`
/// pairs; installing them cannot fail.
pub type StagedIndexes = Vec<(usize, Box<dyn TableIndex>)>;

/// Registry of index types, shared by a database instance, in name
/// order.
#[derive(Clone, Default)]
pub struct IndexTypeRegistry {
    /// Keyed by the upper-cased method name.
    types: BTreeMap<String, Arc<dyn IndexType>>,
}

impl IndexTypeRegistry {
    pub fn register(&mut self, t: Arc<dyn IndexType>) {
        self.types.insert(t.type_name().to_ascii_uppercase(), t);
    }

    pub fn get(&self, name: &str) -> Option<Arc<dyn IndexType>> {
        self.types.get(&name.to_ascii_uppercase()).cloned()
    }

    /// The first method, by name, for which `f` holds; nothing is
    /// allocated.
    pub fn find(&self, f: impl Fn(&dyn IndexType) -> bool) -> Option<&str> {
        self.types.iter().find(|(_, t)| f(t.as_ref())).map(|(name, _)| name.as_str())
    }

    fn method(&self, method: &str) -> SqlResult<Arc<dyn IndexType>> {
        self.get(method)
            .ok_or_else(|| SqlError::Catalog(format!("unknown index method {method:?}")))
    }

    /// `CREATE INDEX`'s data-first bulk build over column `col` (of type
    /// `ty`) of a table whose indexes are `existing`, on at most `threads`
    /// workers: the method must be registered and able to index `ty`, and
    /// `name` must be free.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        &self,
        existing: &[Box<dyn TableIndex>],
        name: &str,
        method: &str,
        col: usize,
        ty: &LogicalType,
        values: impl FnOnce() -> Vec<Value>,
        threads: usize,
    ) -> SqlResult<Box<dyn TableIndex>> {
        let index_type = self.method(method)?;
        if !index_type.can_index(ty) {
            return Err(SqlError::Catalog(format!(
                "index method {method} cannot index type {}",
                ty.name()
            )));
        }
        if existing.iter().any(|i| i.name() == name) {
            return Err(SqlError::Catalog(format!("index {name:?} already exists")));
        }
        index_type.create(name, col, ty, &values(), threads)
    }

    /// Rebuild every index in `indexes` over one of `cols` from the
    /// column's post-statement values (`values_of`), so callers can point
    /// it at staged data that is not in the table yet; each build runs on
    /// at most `threads` workers.
    pub fn rebuild(
        &self,
        indexes: &[Box<dyn TableIndex>],
        cols: &[usize],
        type_of: impl Fn(usize) -> LogicalType,
        values_of: impl Fn(usize) -> Vec<Value>,
        threads: usize,
    ) -> SqlResult<StagedIndexes> {
        let mut staged = Vec::new();
        for (slot, idx) in indexes.iter().enumerate() {
            let col = idx.column();
            if cols.contains(&col) {
                let it = self.method(idx.method())?;
                let values = values_of(col);
                staged.push((slot, it.create(idx.name(), col, &type_of(col), &values, threads)?));
            }
        }
        Ok(staged)
    }
}
