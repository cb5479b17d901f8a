//! Columnar storage: typed column vectors with validity masks, and the
//! [`DataChunk`] unit of vectorized execution (2048 rows, like DuckDB).

use std::sync::Arc;

use mduck_sql::{ExtValue, LogicalType, SqlError, SqlResult, Value};

/// Rows per vectorized chunk.
pub const VECTOR_SIZE: usize = 2048;

/// A typed column with a validity mask. The payload vectors store a
/// default value in invalid slots.
#[derive(Debug, Clone)]
pub struct ColumnData {
    pub ty: LogicalType,
    pub validity: Vec<bool>,
    pub payload: Payload,
}

/// The typed payload of a column.
#[derive(Debug, Clone)]
pub enum Payload {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Text(Vec<Arc<str>>),
    Blob(Vec<Arc<[u8]>>),
    Timestamp(Vec<i64>),
    Date(Vec<i32>),
    Interval(Vec<(i32, i32, i64)>),
    Ext(Vec<Option<ExtValue>>),
    List(Vec<Option<Arc<Vec<Value>>>>),
}

/// Build a new [`Payload`] of the same variant from each variant's
/// vector: `map_payload!(&payload, |v| expr)` with `v: &Vec<T>`.
macro_rules! map_payload {
    ($payload:expr, |$v:ident| $body:expr) => {
        match $payload {
            Payload::Bool($v) => Payload::Bool($body),
            Payload::Int($v) => Payload::Int($body),
            Payload::Float($v) => Payload::Float($body),
            Payload::Text($v) => Payload::Text($body),
            Payload::Blob($v) => Payload::Blob($body),
            Payload::Timestamp($v) => Payload::Timestamp($body),
            Payload::Date($v) => Payload::Date($body),
            Payload::Interval($v) => Payload::Interval($body),
            Payload::Ext($v) => Payload::Ext($body),
            Payload::List($v) => Payload::List($body),
        }
    };
}

impl ColumnData {
    /// An empty column of the given logical type.
    pub fn new(ty: &LogicalType) -> Self {
        let payload = match ty {
            LogicalType::Bool => Payload::Bool(Vec::new()),
            LogicalType::Int | LogicalType::Null | LogicalType::Any => Payload::Int(Vec::new()),
            LogicalType::Float => Payload::Float(Vec::new()),
            LogicalType::Text => Payload::Text(Vec::new()),
            LogicalType::Blob => Payload::Blob(Vec::new()),
            LogicalType::Timestamp => Payload::Timestamp(Vec::new()),
            LogicalType::Date => Payload::Date(Vec::new()),
            LogicalType::Interval => Payload::Interval(Vec::new()),
            LogicalType::Ext(_) => Payload::Ext(Vec::new()),
            LogicalType::List => Payload::List(Vec::new()),
        };
        ColumnData { ty: ty.clone(), validity: Vec::new(), payload }
    }

    pub fn len(&self) -> usize {
        self.validity.len()
    }

    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Append a runtime value (with implicit numeric coercion).
    pub fn push(&mut self, v: &Value) -> SqlResult<()> {
        if v.is_null() {
            self.push_null();
            return Ok(());
        }
        match (&mut self.payload, v) {
            (Payload::Bool(p), Value::Bool(b)) => p.push(*b),
            (Payload::Int(p), Value::Int(i)) => p.push(*i),
            (Payload::Int(p), Value::Float(f)) => p.push(*f as i64),
            (Payload::Float(p), Value::Float(f)) => p.push(*f),
            (Payload::Float(p), Value::Int(i)) => p.push(*i as f64),
            (Payload::Text(p), Value::Text(s)) => p.push(s.clone()),
            (Payload::Blob(p), Value::Blob(b)) => p.push(b.clone()),
            (Payload::Timestamp(p), Value::Timestamp(t)) => p.push(*t),
            (Payload::Timestamp(p), Value::Date(d)) => p.push(*d as i64 * 86_400_000_000),
            (Payload::Date(p), Value::Date(d)) => p.push(*d),
            (Payload::Interval(p), Value::Interval { months, days, usecs }) => {
                p.push((*months, *days, *usecs))
            }
            (Payload::Ext(p), Value::Ext(e)) => p.push(Some(e.clone())),
            (Payload::List(p), Value::List(l)) => p.push(Some(l.clone())),
            (payload, v) => {
                return Err(SqlError::execution(format!(
                    "cannot store {v:?} in a {payload:?} column"
                )))
            }
        }
        self.validity.push(true);
        Ok(())
    }

    /// Non-mutating twin of [`ColumnData::push`]: would this value be
    /// accepted, including the implicit coercions? Callers validate a
    /// whole batch with this before mutating anything, which is what
    /// makes multi-column appends atomic — after `accepts` passes, the
    /// pushes cannot fail halfway and leave ragged columns.
    pub fn accepts(&self, v: &Value) -> SqlResult<()> {
        if v.is_null() {
            return Ok(());
        }
        let ok = matches!(
            (&self.payload, v),
            (Payload::Bool(_), Value::Bool(_))
                | (Payload::Int(_), Value::Int(_) | Value::Float(_))
                | (Payload::Float(_), Value::Float(_) | Value::Int(_))
                | (Payload::Text(_), Value::Text(_))
                | (Payload::Blob(_), Value::Blob(_))
                | (Payload::Timestamp(_), Value::Timestamp(_) | Value::Date(_))
                | (Payload::Date(_), Value::Date(_))
                | (Payload::Interval(_), Value::Interval { .. })
                | (Payload::Ext(_), Value::Ext(_))
                | (Payload::List(_), Value::List(_))
        );
        if ok {
            Ok(())
        } else {
            Err(SqlError::execution(format!(
                "cannot store {v:?} in a {} column",
                self.ty.name()
            )))
        }
    }

    /// Keep only the first `len` rows (the rollback path of an atomic
    /// append).
    pub fn truncate(&mut self, len: usize) {
        self.validity.truncate(len);
        match &mut self.payload {
            Payload::Bool(p) => p.truncate(len),
            Payload::Int(p) => p.truncate(len),
            Payload::Float(p) => p.truncate(len),
            Payload::Text(p) => p.truncate(len),
            Payload::Blob(p) => p.truncate(len),
            Payload::Timestamp(p) => p.truncate(len),
            Payload::Date(p) => p.truncate(len),
            Payload::Interval(p) => p.truncate(len),
            Payload::Ext(p) => p.truncate(len),
            Payload::List(p) => p.truncate(len),
        }
    }

    pub fn push_null(&mut self) {
        match &mut self.payload {
            Payload::Bool(p) => p.push(false),
            Payload::Int(p) => p.push(0),
            Payload::Float(p) => p.push(0.0),
            Payload::Text(p) => p.push(Arc::from("")),
            Payload::Blob(p) => p.push(Arc::from(&[][..])),
            Payload::Timestamp(p) => p.push(0),
            Payload::Date(p) => p.push(0),
            Payload::Interval(p) => p.push((0, 0, 0)),
            Payload::Ext(p) => p.push(None),
            Payload::List(p) => p.push(None),
        }
        self.validity.push(false);
    }

    /// Read one value.
    pub fn get(&self, i: usize) -> Value {
        if !self.validity[i] {
            return Value::Null;
        }
        match &self.payload {
            Payload::Bool(p) => Value::Bool(p[i]),
            Payload::Int(p) => Value::Int(p[i]),
            Payload::Float(p) => Value::Float(p[i]),
            Payload::Text(p) => Value::Text(p[i].clone()),
            Payload::Blob(p) => Value::Blob(p[i].clone()),
            Payload::Timestamp(p) => Value::Timestamp(p[i]),
            Payload::Date(p) => Value::Date(p[i]),
            Payload::Interval(p) => {
                let (months, days, usecs) = p[i];
                Value::Interval { months, days, usecs }
            }
            Payload::Ext(p) => match &p[i] {
                Some(e) => Value::Ext(e.clone()),
                None => Value::Null,
            },
            Payload::List(p) => match &p[i] {
                Some(l) => Value::List(l.clone()),
                None => Value::Null,
            },
        }
    }

    /// Gather the rows selected by `sel` into a new column: one typed
    /// loop per payload, no [`Value`] boxing. Invalid slots carry their
    /// stored default payload along.
    pub fn gather(&self, sel: &[usize]) -> ColumnData {
        fn pick<T: Clone>(p: &[T], sel: &[usize]) -> Vec<T> {
            sel.iter().map(|&i| p[i].clone()).collect()
        }
        let payload = map_payload!(&self.payload, |p| pick(p, sel));
        ColumnData { ty: self.ty.clone(), validity: pick(&self.validity, sel), payload }
    }

    /// Approximate bytes this column occupies, for per-query memory
    /// accounting. Fixed-width payloads are exact; var-width ones sum
    /// their payload lengths plus a small per-entry overhead. O(n) for
    /// var-width columns, so call once per materialized chunk, not per
    /// row.
    pub fn approx_bytes(&self) -> u64 {
        let n = self.len() as u64;
        // Validity mask: one byte per row.
        n + match &self.payload {
            Payload::Bool(_) => n,
            Payload::Int(_) | Payload::Float(_) | Payload::Timestamp(_) => n * 8,
            Payload::Date(_) => n * 4,
            Payload::Interval(_) => n * 16,
            Payload::Text(p) => p.iter().map(|s| 16 + s.len() as u64).sum(),
            Payload::Blob(p) => p.iter().map(|b| 16 + b.len() as u64).sum(),
            Payload::Ext(p) => p
                .iter()
                .map(|e| 8 + e.as_ref().map_or(0, |e| e.obj.approx_bytes()))
                .sum(),
            Payload::List(p) => p
                .iter()
                .map(|l| {
                    24 + l
                        .as_ref()
                        .map_or(0, |l| l.iter().map(Value::approx_bytes).sum::<u64>())
                })
                .sum(),
        }
    }

    /// Append rows `start..start + len` of another column. Same-typed
    /// payloads are copied as slices (`extend_from_slice`: a memcpy for
    /// fixed-width payloads, `Arc` clones for var-width ones); a payload
    /// of another type goes through [`ColumnData::push`] and its implicit
    /// coercions.
    pub fn extend_from(&mut self, other: &ColumnData, start: usize, len: usize) -> SqlResult<()> {
        let r = start..start + len;
        match (&mut self.payload, &other.payload) {
            (Payload::Bool(a), Payload::Bool(b)) => a.extend_from_slice(&b[r.clone()]),
            (Payload::Int(a), Payload::Int(b)) => a.extend_from_slice(&b[r.clone()]),
            (Payload::Float(a), Payload::Float(b)) => a.extend_from_slice(&b[r.clone()]),
            (Payload::Text(a), Payload::Text(b)) => a.extend_from_slice(&b[r.clone()]),
            (Payload::Blob(a), Payload::Blob(b)) => a.extend_from_slice(&b[r.clone()]),
            (Payload::Timestamp(a), Payload::Timestamp(b)) => a.extend_from_slice(&b[r.clone()]),
            (Payload::Date(a), Payload::Date(b)) => a.extend_from_slice(&b[r.clone()]),
            (Payload::Interval(a), Payload::Interval(b)) => a.extend_from_slice(&b[r.clone()]),
            (Payload::Ext(a), Payload::Ext(b)) => a.extend_from_slice(&b[r.clone()]),
            (Payload::List(a), Payload::List(b)) => a.extend_from_slice(&b[r.clone()]),
            _ => {
                for i in r {
                    self.push(&other.get(i))?;
                }
                return Ok(());
            }
        }
        self.validity.extend_from_slice(&other.validity[r]);
        Ok(())
    }

    /// Rows `start..start + len` as a new column of the same type.
    pub fn slice(&self, start: usize, len: usize) -> ColumnData {
        let r = start..start + len;
        ColumnData {
            ty: self.ty.clone(),
            validity: self.validity[r.clone()].to_vec(),
            payload: map_payload!(&self.payload, |p| p[r.clone()].to_vec()),
        }
    }
}

/// A horizontal slice of vectors processed together.
#[derive(Debug, Clone)]
pub struct DataChunk {
    pub columns: Vec<ColumnData>,
    pub len: usize,
}

impl DataChunk {
    pub fn new(types: &[LogicalType]) -> Self {
        DataChunk { columns: types.iter().map(ColumnData::new).collect(), len: 0 }
    }

    pub fn from_columns(columns: Vec<ColumnData>) -> Self {
        let len = columns.first().map(ColumnData::len).unwrap_or(0);
        debug_assert!(columns.iter().all(|c| c.len() == len));
        DataChunk { columns, len }
    }

    pub fn push_row(&mut self, row: &[Value]) -> SqlResult<()> {
        debug_assert_eq!(row.len(), self.columns.len());
        for (c, v) in self.columns.iter_mut().zip(row) {
            c.push(v)?;
        }
        self.len += 1;
        Ok(())
    }

    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Approximate bytes of every column vector in this chunk.
    pub fn approx_bytes(&self) -> u64 {
        self.columns.iter().map(ColumnData::approx_bytes).sum()
    }

    /// Keep only the selected rows.
    pub fn select(&self, sel: &[usize]) -> DataChunk {
        DataChunk {
            columns: self.columns.iter().map(|c| c.gather(sel)).collect(),
            len: sel.len(),
        }
    }

    /// The selected rows of the columns `columns`.
    pub fn select_columns(&self, sel: &[usize], columns: &[usize]) -> DataChunk {
        DataChunk {
            columns: columns.iter().map(|&c| self.columns[c].gather(sel)).collect(),
            len: sel.len(),
        }
    }

    /// A copy of the columns `columns`; it keeps the chunk's length when
    /// there are none.
    pub fn pick(&self, columns: &[usize]) -> DataChunk {
        let columns = columns.iter().map(|&c| self.columns[c].clone()).collect();
        DataChunk { columns, len: self.len }
    }

    /// The chunk cut down to its columns `columns` (ascending), which are
    /// moved, not copied; it keeps its length when there are none.
    pub fn project(self, columns: &[usize]) -> DataChunk {
        if columns.len() == self.columns.len() {
            return self;
        }
        let mut keep = columns.iter().peekable();
        let columns = self.columns.into_iter().enumerate();
        let columns = columns.filter(|(i, _)| keep.next_if_eq(&i).is_some()).map(|(_, c)| c);
        DataChunk { columns: columns.collect(), len: self.len }
    }
}

/// A fully materialized intermediate relation (chunk list).
#[derive(Debug, Clone, Default)]
pub struct Chunks {
    pub chunks: Vec<DataChunk>,
}

impl Chunks {
    pub fn row_count(&self) -> usize {
        self.chunks.iter().map(|c| c.len).sum()
    }

    pub fn num_columns(&self) -> usize {
        self.chunks.first().map(|c| c.columns.len()).unwrap_or(0)
    }

    /// Approximate bytes of the whole materialized relation.
    pub fn approx_bytes(&self) -> u64 {
        self.chunks.iter().map(DataChunk::approx_bytes).sum()
    }

    /// Iterate all rows (materializing values).
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        self.chunks.iter().flat_map(|c| (0..c.len).map(move |i| c.row(i)))
    }

    /// Flatten into a row list.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        self.iter_rows().collect()
    }

    /// Build from rows with known column types.
    pub fn from_rows(types: &[LogicalType], rows: &[Vec<Value>]) -> SqlResult<Chunks> {
        let mut out = Chunks::default();
        let mut current = DataChunk::new(types);
        for row in rows {
            current.push_row(row)?;
            if current.len >= VECTOR_SIZE {
                out.chunks.push(std::mem::replace(&mut current, DataChunk::new(types)));
            }
        }
        if current.len > 0 {
            out.chunks.push(current);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut c = ColumnData::new(&LogicalType::Int);
        c.push(&Value::Int(5)).unwrap();
        c.push_null();
        c.push(&Value::Float(7.0)).unwrap(); // coerces
        assert_eq!(c.get(0), Value::Int(5));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Int(7));
        assert!(c.push(&Value::text("x")).is_err());
    }

    #[test]
    fn accepts_mirrors_push_and_truncate_rolls_back() {
        let mut c = ColumnData::new(&LogicalType::Int);
        assert!(c.accepts(&Value::Int(1)).is_ok());
        assert!(c.accepts(&Value::Float(2.0)).is_ok()); // implicit coercion
        assert!(c.accepts(&Value::Null).is_ok());
        assert!(c.accepts(&Value::text("x")).is_err());
        c.push(&Value::Int(1)).unwrap();
        c.push(&Value::Int(2)).unwrap();
        c.push_null();
        c.truncate(1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(0), Value::Int(1));
    }

    #[test]
    fn gather_selects() {
        let mut c = ColumnData::new(&LogicalType::Text);
        for s in ["a", "b", "c", "d"] {
            c.push(&Value::text(s)).unwrap();
        }
        let g = c.gather(&[3, 1]);
        assert_eq!(g.get(0), Value::text("d"));
        assert_eq!(g.get(1), Value::text("b"));
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn chunk_roundtrip() {
        let types = vec![LogicalType::Int, LogicalType::Text];
        let rows = vec![
            vec![Value::Int(1), Value::text("one")],
            vec![Value::Null, Value::text("two")],
        ];
        let chunks = Chunks::from_rows(&types, &rows).unwrap();
        assert_eq!(chunks.row_count(), 2);
        assert_eq!(chunks.to_rows(), rows);
    }

    #[test]
    fn chunking_splits_at_vector_size() {
        let types = vec![LogicalType::Int];
        let rows: Vec<Vec<Value>> = (0..VECTOR_SIZE + 10).map(|i| vec![Value::Int(i as i64)]).collect();
        let chunks = Chunks::from_rows(&types, &rows).unwrap();
        assert_eq!(chunks.chunks.len(), 2);
        assert_eq!(chunks.chunks[0].len, VECTOR_SIZE);
        assert_eq!(chunks.row_count(), VECTOR_SIZE + 10);
    }
}
