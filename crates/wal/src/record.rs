//! Logical WAL records: one per committed DDL/DML statement.
//!
//! DML deltas are **positional**: both engines are positional stores
//! whose UPDATE/DELETE preserve physical row order, so `(row, col)`
//! coordinates replay byte-exactly. Inserted rows are recorded
//! post-coercion (full table width, declared column order), which makes
//! replay a pure mechanical apply with no expression re-evaluation.

use mduck_sql::{LogicalType, Registry, SqlError, SqlResult, Value};

use crate::codec::{
    decode_type, decode_value, encode_type, encode_value, put_str, put_u32, put_u64, put_u8,
    Cursor,
};

const R_CREATE_TABLE: u8 = 1;
const R_DROP_TABLE: u8 = 2;
const R_CREATE_INDEX: u8 = 3;
const R_INSERT: u8 = 4;
const R_UPDATE: u8 = 5;
const R_DELETE: u8 = 6;

/// One durably logged statement effect.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    CreateTable {
        name: String,
        columns: Vec<(String, LogicalType)>,
    },
    DropTable {
        name: String,
    },
    CreateIndex {
        name: String,
        table: String,
        method: String,
        column: String,
    },
    /// Fully coerced rows in declared column order.
    Insert {
        table: String,
        rows: Vec<Vec<Value>>,
    },
    /// Individual cell overwrites: `(row position, column ordinal, new value)`.
    Update {
        table: String,
        cells: Vec<(u64, u64, Value)>,
    },
    /// Physical row positions at the time of the delete, ascending.
    Delete {
        table: String,
        rows: Vec<u64>,
    },
}

impl WalRecord {
    /// Human-readable kind, for diagnostics and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::CreateTable { .. } => "create_table",
            WalRecord::DropTable { .. } => "drop_table",
            WalRecord::CreateIndex { .. } => "create_index",
            WalRecord::Insert { .. } => "insert",
            WalRecord::Update { .. } => "update",
            WalRecord::Delete { .. } => "delete",
        }
    }

    /// The table the record creates, drops or changes.
    pub fn table(&self) -> &str {
        match self {
            WalRecord::CreateTable { name, .. } | WalRecord::DropTable { name } => name,
            WalRecord::CreateIndex { table, .. }
            | WalRecord::Insert { table, .. }
            | WalRecord::Update { table, .. }
            | WalRecord::Delete { table, .. } => table,
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            WalRecord::CreateTable { name, columns } => {
                put_u8(&mut buf, R_CREATE_TABLE);
                put_str(&mut buf, name);
                put_u32(&mut buf, columns.len() as u32);
                for (cname, ty) in columns {
                    put_str(&mut buf, cname);
                    encode_type(&mut buf, ty);
                }
            }
            WalRecord::DropTable { name } => {
                put_u8(&mut buf, R_DROP_TABLE);
                put_str(&mut buf, name);
            }
            WalRecord::CreateIndex { name, table, method, column } => {
                put_u8(&mut buf, R_CREATE_INDEX);
                put_str(&mut buf, name);
                put_str(&mut buf, table);
                put_str(&mut buf, method);
                put_str(&mut buf, column);
            }
            WalRecord::Insert { table, rows } => {
                put_u8(&mut buf, R_INSERT);
                put_str(&mut buf, table);
                put_u32(&mut buf, rows.len() as u32);
                for row in rows {
                    put_u32(&mut buf, row.len() as u32);
                    for v in row {
                        encode_value(&mut buf, v);
                    }
                }
            }
            WalRecord::Update { table, cells } => {
                put_u8(&mut buf, R_UPDATE);
                put_str(&mut buf, table);
                put_u32(&mut buf, cells.len() as u32);
                for (row, col, v) in cells {
                    put_u64(&mut buf, *row);
                    put_u64(&mut buf, *col);
                    encode_value(&mut buf, v);
                }
            }
            WalRecord::Delete { table, rows } => {
                put_u8(&mut buf, R_DELETE);
                put_str(&mut buf, table);
                put_u32(&mut buf, rows.len() as u32);
                for r in rows {
                    put_u64(&mut buf, *r);
                }
            }
        }
        buf
    }

    pub fn decode(payload: &[u8], registry: &Registry) -> SqlResult<WalRecord> {
        let mut cur = Cursor::new(payload);
        let rec = Self::decode_cursor(&mut cur, registry)?;
        if !cur.is_empty() {
            return Err(SqlError::corruption(format!(
                "wal record has {} trailing bytes after {}",
                cur.remaining(),
                rec.kind()
            )));
        }
        Ok(rec)
    }

    fn decode_cursor(cur: &mut Cursor<'_>, registry: &Registry) -> SqlResult<WalRecord> {
        let tag = cur.u8()?;
        Ok(match tag {
            R_CREATE_TABLE => {
                let name = cur.str()?.to_string();
                let ncols = cur.u32()? as usize;
                let mut columns = Vec::with_capacity(ncols.min(4096));
                for _ in 0..ncols {
                    let cname = cur.str()?.to_string();
                    let ty = decode_type(cur)?;
                    columns.push((cname, ty));
                }
                WalRecord::CreateTable { name, columns }
            }
            R_DROP_TABLE => WalRecord::DropTable { name: cur.str()?.to_string() },
            R_CREATE_INDEX => WalRecord::CreateIndex {
                name: cur.str()?.to_string(),
                table: cur.str()?.to_string(),
                method: cur.str()?.to_string(),
                column: cur.str()?.to_string(),
            },
            R_INSERT => {
                let table = cur.str()?.to_string();
                let nrows = cur.u32()? as usize;
                let mut rows = Vec::with_capacity(nrows.min(65_536));
                for _ in 0..nrows {
                    let width = cur.u32()? as usize;
                    let mut row = Vec::with_capacity(width.min(4096));
                    for _ in 0..width {
                        row.push(decode_value(cur, registry)?);
                    }
                    rows.push(row);
                }
                WalRecord::Insert { table, rows }
            }
            R_UPDATE => {
                let table = cur.str()?.to_string();
                let ncells = cur.u32()? as usize;
                let mut cells = Vec::with_capacity(ncells.min(65_536));
                for _ in 0..ncells {
                    let row = cur.u64()?;
                    let col = cur.u64()?;
                    cells.push((row, col, decode_value(cur, registry)?));
                }
                WalRecord::Update { table, cells }
            }
            R_DELETE => {
                let table = cur.str()?.to_string();
                let nrows = cur.u32()? as usize;
                let mut rows = Vec::with_capacity(nrows.min(65_536));
                for _ in 0..nrows {
                    rows.push(cur.u64()?);
                }
                WalRecord::Delete { table, rows }
            }
            other => {
                return Err(SqlError::corruption(format!("unknown wal record tag {other}")));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_roundtrip() {
        let registry = Registry::default();
        let records = vec![
            WalRecord::CreateTable {
                name: "trips".into(),
                columns: vec![
                    ("id".into(), LogicalType::Int),
                    ("route".into(), LogicalType::ext("tgeompoint")),
                ],
            },
            WalRecord::DropTable { name: "old".into() },
            WalRecord::CreateIndex {
                name: "trips_route_idx".into(),
                table: "trips".into(),
                method: "rtree".into(),
                column: "route".into(),
            },
            WalRecord::Insert {
                table: "trips".into(),
                rows: vec![
                    vec![Value::Int(1), Value::text("a")],
                    vec![Value::Null, Value::Float(2.5)],
                ],
            },
            WalRecord::Update {
                table: "trips".into(),
                cells: vec![(0, 1, Value::text("b")), (7, 0, Value::Int(9))],
            },
            WalRecord::Delete { table: "trips".into(), rows: vec![0, 3, 9] },
        ];
        for rec in records {
            let bytes = rec.encode();
            let back = WalRecord::decode(&bytes, &registry).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn trailing_garbage_is_corruption() {
        let registry = Registry::default();
        let mut bytes = WalRecord::DropTable { name: "t".into() }.encode();
        bytes.push(0xAB);
        let err = WalRecord::decode(&bytes, &registry).unwrap_err();
        assert!(matches!(err, SqlError::Corruption(_)), "{err}");
    }
}
