//! Row-oriented heap tables (the PostgreSQL storage substrate).

use mduck_sql::catalog::{BaseTable, Tables};
use mduck_sql::{LogicalType, SqlError, SqlResult, Value};

use crate::index::RowIndex;

/// A heap table: rows stored row-major, as in a row store.
pub struct HeapTable {
    pub name: String,
    pub column_names: Vec<String>,
    pub column_types: Vec<LogicalType>,
    pub rows: Vec<Vec<Value>>,
    pub indexes: Vec<Box<dyn RowIndex>>,
}

impl HeapTable {
    pub fn new(name: String, columns: Vec<(String, LogicalType)>) -> Self {
        HeapTable {
            name,
            column_names: columns.iter().map(|(n, _)| n.to_ascii_lowercase()).collect(),
            column_types: columns.into_iter().map(|(_, t)| t).collect(),
            rows: Vec::new(),
            indexes: Vec::new(),
        }
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        let lname = name.to_ascii_lowercase();
        self.column_names.iter().position(|n| *n == lname)
    }

    /// Append rows. Atomic: arity is validated before anything mutates,
    /// and the heap itself is only extended after every index accepted
    /// the new entries — so a failure never leaves half-applied rows. An
    /// index that fails mid-append may hold partial entries; it (and any
    /// index fed before it) is dropped rather than left serving stale
    /// row ids, with the error saying so.
    pub fn append_rows(&mut self, rows: Vec<Vec<Value>>) -> SqlResult<()> {
        let first = self.rows.len() as u64;
        for row in &rows {
            if row.len() != self.column_names.len() {
                return Err(SqlError::execution(format!(
                    "INSERT has {} values, table {} has {} columns",
                    row.len(),
                    self.name,
                    self.column_names.len()
                )));
            }
        }
        for k in 0..self.indexes.len() {
            let col = self.indexes[k].column();
            let values: Vec<Value> = rows.iter().map(|r| r[col].clone()).collect();
            if let Err(e) = self.indexes[k].append(&values, first) {
                let dropped: Vec<String> =
                    self.indexes.drain(..=k).map(|i| i.name().to_string()).collect();
                return Err(SqlError::execution(format!(
                    "{e}; index(es) {dropped:?} on table {} were dropped to preserve \
                     consistency and must be re-created",
                    self.name
                )));
            }
        }
        self.rows.extend(rows);
        Ok(())
    }
}

impl BaseTable for HeapTable {
    fn create(name: String, columns: Vec<(String, LogicalType)>) -> Self {
        HeapTable::new(name, columns)
    }

    fn schema(&self) -> Vec<(String, LogicalType)> {
        self.column_names.iter().cloned().zip(self.column_types.iter().cloned()).collect()
    }
}

/// The row-store catalog.
pub type RowCatalog = Tables<HeapTable>;
