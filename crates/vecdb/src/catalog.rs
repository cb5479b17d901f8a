//! Tables (columnar storage) and the database catalog.

use mduck_sql::catalog::{BaseTable, Tables};
use mduck_sql::{LogicalType, SqlError, SqlResult, Value};

use crate::column::ColumnData;
use crate::index::TableIndex;

/// A base table: full columnar storage plus any attached indexes.
pub struct Table {
    pub name: String,
    pub column_names: Vec<String>,
    pub columns: Vec<ColumnData>,
    pub indexes: Vec<Box<dyn TableIndex>>,
}

impl Table {
    pub fn new(name: String, columns: Vec<(String, LogicalType)>) -> Self {
        Table {
            name,
            column_names: columns.iter().map(|(n, _)| n.to_ascii_lowercase()).collect(),
            columns: columns.iter().map(|(_, t)| ColumnData::new(t)).collect(),
            indexes: Vec::new(),
        }
    }

    pub fn row_count(&self) -> usize {
        self.columns.first().map(ColumnData::len).unwrap_or(0)
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        let lname = name.to_ascii_lowercase();
        self.column_names.iter().position(|n| *n == lname)
    }

    /// Check, without mutating anything, that `rows` can be appended:
    /// arity and per-column type acceptance. After this returns `Ok`,
    /// the column phase of [`Table::append_rows`] cannot fail.
    pub fn validate_append(&self, rows: &[Vec<Value>]) -> SqlResult<()> {
        for row in rows {
            if row.len() != self.columns.len() {
                return Err(SqlError::execution(format!(
                    "INSERT has {} values, table {} has {} columns",
                    row.len(),
                    self.name,
                    self.columns.len()
                )));
            }
            for (c, v) in self.columns.iter().zip(row) {
                c.accepts(v)?;
            }
        }
        Ok(())
    }

    /// Append rows, feeding attached indexes through the index-first
    /// `Append` path (§4.2.1). Atomic: on any failure the columns are
    /// rolled back to their pre-call length, so a half-applied INSERT is
    /// never visible (statement atomicity depends on this).
    pub fn append_rows(&mut self, rows: &[Vec<Value>]) -> SqlResult<()> {
        self.validate_append(rows)?;
        let first_row = self.row_count();
        for row in rows {
            for (c, v) in self.columns.iter_mut().zip(row) {
                if let Err(e) = c.push(v) {
                    // Unreachable after validation, but a defect here
                    // must degrade to an error, not to ragged columns.
                    for c in &mut self.columns {
                        c.truncate(first_row);
                    }
                    return Err(e);
                }
            }
        }
        for k in 0..self.indexes.len() {
            let col = self.indexes[k].column();
            let values: Vec<Value> = rows.iter().map(|r| r[col].clone()).collect();
            if let Err(e) = self.indexes[k].append(&values, first_row as u64) {
                for c in &mut self.columns {
                    c.truncate(first_row);
                }
                // Indexes fed so far hold entries for the rows just
                // rolled back; an index is only an access path, so
                // dropping them is safe where serving stale row ids
                // is not.
                let dropped: Vec<String> =
                    self.indexes.drain(..=k).map(|i| i.name().to_string()).collect();
                return Err(SqlError::execution(format!(
                    "{e}; index(es) {dropped:?} on table {} were dropped to preserve \
                     consistency and must be re-created",
                    self.name
                )));
            }
        }
        Ok(())
    }

    /// All values of one column (for bulk index construction).
    pub fn column_values(&self, col: usize) -> Vec<Value> {
        (0..self.row_count()).map(|i| self.columns[col].get(i)).collect()
    }

    /// Gather specific rows of every column into one chunk: the
    /// late-materialization step of every scan that drops rows (filter
    /// survivors, index candidates). Callers pass at most
    /// [`VECTOR_SIZE`](crate::column::VECTOR_SIZE) rows.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }
}

impl BaseTable for Table {
    fn create(name: String, columns: Vec<(String, LogicalType)>) -> Self {
        Table::new(name, columns)
    }

    fn schema(&self) -> Vec<(String, LogicalType)> {
        self.column_names.iter().cloned().zip(self.columns.iter().map(|c| c.ty.clone())).collect()
    }
}

/// The database catalog: name → table.
pub type DbCatalog = Tables<Table>;
