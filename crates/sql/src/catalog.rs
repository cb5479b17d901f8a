//! The table map both engines' catalogs are: case-insensitive names
//! (stored lower-cased) to shared, individually locked tables.

use std::collections::HashMap;
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

/// The database catalog: name → table.
pub struct Tables<T> {
    tables: Arc<RwLock<HashMap<String, Arc<RwLock<T>>>>>,
}

impl<T> Default for Tables<T> {
    fn default() -> Self {
        Tables { tables: Arc::new(RwLock::new(HashMap::new())) }
    }
}

impl<T> Clone for Tables<T> {
    fn clone(&self) -> Self {
        Tables { tables: Arc::clone(&self.tables) }
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
        Ok(())
    }

    pub fn drop_table(&self, name: &str, if_exists: bool) -> SqlResult<()> {
        let lname = name.to_ascii_lowercase();
        if self.tables.write().remove(&lname).is_none() && !if_exists {
            return Err(SqlError::Catalog(format!("table {name:?} does not exist")));
        }
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
