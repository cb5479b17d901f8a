//! The table map both engines' catalogs are: case-insensitive names
//! (stored lower-cased) to shared, individually locked tables.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mduck_sync::RwLock;

use crate::{Catalog, LogicalType, SqlError, SqlResult};

/// What the catalog needs from an engine's base-table type.
pub trait BaseTable: Send + Sync {
    /// An empty table; `name` is already lower-cased.
    fn create(name: String, columns: Vec<(String, LogicalType)>) -> Self;
    /// Column names (lower-cased) and types, in declared order.
    fn schema(&self) -> Vec<(String, LogicalType)>;
}

/// The database catalog: name → table, plus the schema epoch.
pub struct Tables<T> {
    tables: Arc<RwLock<HashMap<String, Arc<RwLock<T>>>>>,
    /// Bumped after every change a plan may depend on besides the rows
    /// (see [`Tables::bump_epoch`]).
    epoch: Arc<AtomicU64>,
}

impl<T> Default for Tables<T> {
    fn default() -> Self {
        Tables { tables: Arc::new(RwLock::new(HashMap::new())), epoch: Arc::default() }
    }
}

impl<T> Clone for Tables<T> {
    fn clone(&self) -> Self {
        Tables { tables: Arc::clone(&self.tables), epoch: Arc::clone(&self.epoch) }
    }
}

impl<T> Tables<T> {
    /// The schema epoch. A plan made after reading epoch `e` is valid for
    /// as long as the epoch is still `e`.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Advance the schema epoch. Called *after* each change a plan may
    /// depend on besides the rows (a table created or dropped, a table's
    /// index list changed, a registry written, a WAL recovered), so a
    /// planner that reads the new epoch also sees the change.
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }
}

impl<T: BaseTable> Tables<T> {
    pub fn create_table(
        &self,
        name: &str,
        columns: Vec<(String, LogicalType)>,
        if_not_exists: bool,
    ) -> SqlResult<()> {
        let lname = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&lname) {
            if if_not_exists {
                return Ok(());
            }
            return Err(SqlError::Catalog(format!("table {name:?} already exists")));
        }
        tables.insert(lname.clone(), Arc::new(RwLock::new(T::create(lname, columns))));
        drop(tables);
        self.bump_epoch();
        Ok(())
    }

    pub fn drop_table(&self, name: &str, if_exists: bool) -> SqlResult<()> {
        let lname = name.to_ascii_lowercase();
        if self.tables.write().remove(&lname).is_none() {
            if !if_exists {
                return Err(SqlError::Catalog(format!("table {name:?} does not exist")));
            }
            return Ok(());
        }
        self.bump_epoch();
        Ok(())
    }

    pub fn get(&self, name: &str) -> SqlResult<Arc<RwLock<T>>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| SqlError::Catalog(format!("table {name:?} does not exist")))
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }
}

impl<T: BaseTable> Catalog for Tables<T> {
    fn table_schema(&self, name: &str) -> Option<Vec<(String, LogicalType)>> {
        let t = self.tables.read().get(&name.to_ascii_lowercase())?.clone();
        let schema = t.read().schema();
        Some(schema)
    }

    fn table_names(&self) -> Vec<String> {
        Tables::table_names(self)
    }
}
