//! Index surface of the row engine — the GiST/B-tree analogue of
//! MobilityDB's "with indexes" benchmark scenario.

use std::collections::HashMap;

use mduck_sql::{LogicalType, SqlResult, Value};

/// The index framework is shared with quackdb ([`mduck_sql::index`]);
/// these are its row-engine names.
pub use mduck_sql::index::{
    IndexType as RowIndexType, IndexTypeRegistry as RowIndexRegistry, TableIndex as RowIndex,
};

// ---------------------------------------------------------------- B-tree

/// An equality index over hashable scalar values (PostgreSQL's B-tree, used
/// by the benchmark for the id columns). Implemented as a hash index —
/// the benchmark only issues equality probes.
pub struct BTreeIndex {
    name: String,
    column: usize,
    map: HashMap<Vec<u8>, Vec<u64>>,
    entries: usize,
}

impl BTreeIndex {
    pub fn build(name: &str, column: usize, existing: &[Value]) -> Self {
        let mut idx = BTreeIndex {
            name: name.to_string(),
            column,
            map: HashMap::new(),
            entries: 0,
        };
        idx.append(existing, 0).expect("building from scratch cannot fail");
        idx
    }
}

impl RowIndex for BTreeIndex {
    fn name(&self) -> &str {
        &self.name
    }
    fn method(&self) -> &str {
        "BTREE"
    }
    fn column(&self) -> usize {
        self.column
    }
    fn append(&mut self, values: &[Value], first_row: u64) -> SqlResult<()> {
        for (i, v) in values.iter().enumerate() {
            if v.is_null() {
                continue;
            }
            let mut key = Vec::new();
            v.hash_key(&mut key);
            self.map.entry(key).or_default().push(first_row + i as u64);
            self.entries += 1;
        }
        Ok(())
    }
    fn try_scan(&self, op: &str, probe: &Value) -> SqlResult<Option<Vec<u64>>> {
        if op != "=" || probe.is_null() {
            return Ok(None);
        }
        let mut key = Vec::new();
        probe.hash_key(&mut key);
        Ok(Some(self.map.get(&key).cloned().unwrap_or_default()))
    }
    fn len(&self) -> usize {
        self.entries
    }
}

/// The default B-tree access method.
pub struct BTreeIndexType;

impl RowIndexType for BTreeIndexType {
    fn type_name(&self) -> &str {
        "BTREE"
    }
    fn can_index(&self, ty: &LogicalType) -> bool {
        !matches!(ty, LogicalType::Ext(_) | LogicalType::List)
    }
    fn create(
        &self,
        index_name: &str,
        column: usize,
        _column_type: &LogicalType,
        existing: &[Value],
        _threads: usize,
    ) -> SqlResult<Box<dyn RowIndex>> {
        Ok(Box::new(BTreeIndex::build(index_name, column, existing)))
    }
}
