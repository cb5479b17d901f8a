//! The TRTREE index type (§4): an R-tree over `stbox` (and `tgeompoint`,
//! via its bounding box) registered with the vectorized engine, plus the
//! GiST twin registered with the row engine for the "MobilityDB with
//! indexes" scenario.
//!
//! Index construction follows §4.2 exactly: the *index-first* `Append`
//! path inserts incrementally through `rtree_insert`, and the *data-first*
//! `CREATE INDEX` path runs the three-phase pipeline — parallel `Sink`
//! into thread-local collections, mutex-protected `Combine`, then
//! `BulkConstruct`.

use std::sync::Mutex;

use mduck_rtree::{RTree, Rect3};
use mduck_sql::{LogicalType, SqlError, SqlResult, Value};
use mduck_temporal::{STBox, TimestampTz, TstzSpan};

use crate::types::{to_exec, value_to_stbox, MdStbox, MdTGeomPoint, MdTGeometry, MdTstzSpan};

/// The box an indexable value is indexed under: its `stbox`, or a
/// time-only box for a `tstzspan`, or the singleton time-only box `[t, t]`
/// for a `timestamptz` (so `span @> t` is `span && [t, t]`); `None` for
/// NULLs.
pub fn value_stbox(v: &Value) -> SqlResult<Option<STBox>> {
    if v.is_null() {
        return Ok(None);
    }
    if let Value::Timestamp(t) = v {
        let period = TstzSpan::singleton(TimestampTz(*t));
        return Ok(Some(STBox { srid: 0, rect: None, period: Some(period) }));
    }
    if let Some(span) = v.as_ext()?.downcast::<MdTstzSpan>() {
        return Ok(Some(STBox { srid: 0, rect: None, period: Some(span.0) }));
    }
    value_to_stbox(v).map(Some)
}

/// The 3-D (x, y, t) R-tree box of an index box. Span bounds are closed
/// (the tree's overlap test is closed), so the tree returns a superset of
/// the `&&` matches; missing dimensions span the whole axis.
fn box3(b: &STBox) -> Rect3 {
    let (lo, hi) = b.to_xyt();
    Rect3::new(lo, hi)
}

/// Can a column of this type carry a TRTREE index?
pub fn is_indexable(ty: &LogicalType) -> bool {
    matches!(ty, LogicalType::Ext(name)
        if matches!(&**name, "stbox" | "tgeompoint" | "tgeometry" | "tstzspan"))
}

/// Shared index core used by both engines' registrations.
///
/// Besides the tree, the index keeps each entry's exact box (by row id),
/// so an `&&` scan returns exactly the rows whose boxes overlap the probe:
/// the tree's closed bounds only pick the candidates.
pub struct SpatioTemporalIndex {
    name: String,
    method: &'static str,
    column: usize,
    tree: RTree,
    /// The exact box of each row id; `None` for a NULL value.
    boxes: Vec<Option<STBox>>,
}

impl SpatioTemporalIndex {
    /// The data-first bulk path (§4.2.2): Sink / Combine / BulkConstruct.
    pub fn bulk_build(
        name: &str,
        method: &'static str,
        column: usize,
        existing: &[Value],
    ) -> SqlResult<Self> {
        // Phase 1 — Sink: threads scan partitions into thread-local
        // collections. Partition count scales with the data, mirroring
        // DuckDB's parallel table scan.
        let num_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(existing.len().div_ceil(4096).max(1));
        let sink = |part: &[Value]| -> SqlResult<Vec<Option<STBox>>> {
            part.iter().map(value_stbox).collect()
        };
        // One partition (fewer than 4096 rows): sink inline, without
        // spawning a thread.
        let boxes = if num_threads == 1 {
            sink(existing)?
        } else {
            // Phase 2 — Combine: thread-local results merge under a mutex,
            // each at its partition's place.
            let chunk_size = existing.len().div_ceil(num_threads).max(1);
            let parts = existing.chunks(chunk_size).count();
            let combined: Mutex<Vec<Vec<Option<STBox>>>> = Mutex::new(vec![Vec::new(); parts]);
            let failure: Mutex<Option<SqlError>> = Mutex::new(None);
            std::thread::scope(|scope| {
                for (pi, part) in existing.chunks(chunk_size).enumerate() {
                    let (combined, failure, sink) = (&combined, &failure, &sink);
                    scope.spawn(move || match sink(part) {
                        Ok(local) => {
                            combined.lock().expect("sink threads do not panic")[pi] = local;
                        }
                        Err(e) => {
                            *failure.lock().unwrap() = Some(e);
                        }
                    });
                }
            });
            if let Some(e) = failure.into_inner().unwrap() {
                return Err(e);
            }
            combined.into_inner().expect("sink threads do not panic").concat()
        };
        // Phase 3 — BulkConstruct.
        let items = boxes
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_ref().map(|b| (box3(b), i as u64)))
            .collect();
        let tree = RTree::bulk_load(items);
        Ok(SpatioTemporalIndex { name: name.to_string(), method, column, tree, boxes })
    }

    fn append_values(&mut self, values: &[Value], first_row: u64) -> SqlResult<()> {
        let boxes = values.iter().map(value_stbox).collect::<SqlResult<Vec<_>>>()?;
        for (i, b) in boxes.into_iter().enumerate() {
            let row = first_row + i as u64;
            if let Some(b) = &b {
                self.tree.insert(box3(b), row);
            }
            let slot = row as usize;
            if self.boxes.len() <= slot {
                self.boxes.resize(slot + 1, None);
            }
            self.boxes[slot] = b;
        }
        Ok(())
    }

    fn scan(&self, op: &str, constant: &Value) -> SqlResult<Option<Vec<u64>>> {
        // The scan matcher (§4.3): overlap (and containment, which implies
        // box overlap) against an indexable constant. `&&` hits are exact;
        // `@>` and `<@` return the overlapping candidates.
        if op != "&&" && op != "@>" && op != "<@" {
            return Ok(None);
        }
        // A constant that cannot be boxed declines: the scan then
        // evaluates the predicate itself.
        let probe = match value_stbox(constant) {
            Ok(Some(probe)) => probe,
            Ok(None) => return Ok(Some(Vec::new())),
            Err(_) => return Ok(None),
        };
        let mut hits = self.tree.search(&box3(&probe));
        if op == "&&" {
            let mut failure = None;
            hits.retain(|&row| match self.boxes.get(row as usize) {
                Some(Some(b)) => b.overlaps(&probe).unwrap_or_else(|e| {
                    failure.get_or_insert(e);
                    false
                }),
                _ => false,
            });
            if let Some(e) = failure {
                return Err(to_exec(e));
            }
        }
        Ok(Some(hits))
    }
}

// ------------------------------------------------------------ quackdb side

/// TRTREE instance bound to a quackdb table column.
pub struct TRTreeIndex(SpatioTemporalIndex);

impl quackdb::TableIndex for TRTreeIndex {
    fn name(&self) -> &str {
        &self.0.name
    }
    fn method(&self) -> &str {
        self.0.method
    }
    fn column(&self) -> usize {
        self.0.column
    }
    fn append(&mut self, values: &[Value], first_row: u64) -> SqlResult<()> {
        self.0.append_values(values, first_row)
    }
    fn try_scan(&self, op: &str, constant: &Value) -> SqlResult<Option<Vec<u64>>> {
        // quackdb serves index hits without re-checking them, so answer
        // only `&&`, whose hits the index checks exactly; `@>` and `<@`
        // decline and run as a filtered scan (the row engine's GIST
        // re-checks its candidates and answers all three).
        if op != "&&" {
            return Ok(None);
        }
        self.0.scan(op, constant)
    }
    fn len(&self) -> usize {
        self.0.tree.len()
    }
}

/// The registered TRTREE index type (the paper's `RegisterRTreeIndex`,
/// named TRTREE to avoid clashing with Spatial's RTREE).
pub struct TRTreeIndexType;

impl quackdb::IndexType for TRTreeIndexType {
    fn type_name(&self) -> &str {
        "TRTREE"
    }
    fn can_index(&self, ty: &LogicalType) -> bool {
        is_indexable(ty)
    }
    fn create(
        &self,
        index_name: &str,
        column: usize,
        _column_type: &LogicalType,
        existing: &[Value],
    ) -> SqlResult<Box<dyn quackdb::TableIndex>> {
        Ok(Box::new(TRTreeIndex(SpatioTemporalIndex::bulk_build(
            index_name, "TRTREE", column, existing,
        )?)))
    }
}

/// The geometry-column RTREE analogue of DuckDB Spatial's index (used by
/// the Figure 2 comparison): indexes GEOMETRY/WKB columns by their 2-D
/// bounding box (time axis collapsed), answering `ST_Intersects`-shaped
/// probes via the `&&` pattern on geometry values.
pub struct GeomRTreeIndex {
    inner: SpatioTemporalIndex,
}

impl quackdb::TableIndex for GeomRTreeIndex {
    fn name(&self) -> &str {
        &self.inner.name
    }
    fn method(&self) -> &str {
        "RTREE"
    }
    fn column(&self) -> usize {
        self.inner.column
    }
    fn append(&mut self, values: &[Value], first_row: u64) -> SqlResult<()> {
        for (i, v) in values.iter().enumerate() {
            if v.is_null() {
                continue;
            }
            let g = crate::types::value_to_geometry(v)?;
            if let Some(r) = g.bounding_rect() {
                self.inner.tree.insert(
                    Rect3::new(
                        [r.xmin, r.ymin, f64::NEG_INFINITY],
                        [r.xmax, r.ymax, f64::INFINITY],
                    ),
                    first_row + i as u64,
                );
            }
        }
        Ok(())
    }
    fn try_scan(&self, op: &str, constant: &Value) -> SqlResult<Option<Vec<u64>>> {
        if op != "&&" {
            return Ok(None);
        }
        let g = crate::types::value_to_geometry(constant)?;
        let Some(r) = g.bounding_rect() else { return Ok(Some(Vec::new())) };
        Ok(Some(self.inner.tree.search(&Rect3::new(
            [r.xmin, r.ymin, f64::NEG_INFINITY],
            [r.xmax, r.ymax, f64::INFINITY],
        ))))
    }
    fn len(&self) -> usize {
        self.inner.tree.len()
    }
}

/// `USING RTREE(geom)` — DuckDB Spatial's native index, reproduced.
pub struct GeomRTreeIndexType;

impl quackdb::IndexType for GeomRTreeIndexType {
    fn type_name(&self) -> &str {
        "RTREE"
    }
    fn can_index(&self, ty: &LogicalType) -> bool {
        matches!(ty, LogicalType::Blob) || matches!(ty, LogicalType::Ext(n) if &**n == "geometry")
    }
    fn create(
        &self,
        index_name: &str,
        column: usize,
        _column_type: &LogicalType,
        existing: &[Value],
    ) -> SqlResult<Box<dyn quackdb::TableIndex>> {
        let mut idx = GeomRTreeIndex {
            inner: SpatioTemporalIndex {
                name: index_name.to_string(),
                method: "RTREE",
                column,
                tree: RTree::new(),
                boxes: Vec::new(),
            },
        };
        // Bulk path: collect boxes then STR-pack.
        let mut items = Vec::with_capacity(existing.len());
        for (i, v) in existing.iter().enumerate() {
            if v.is_null() {
                continue;
            }
            let g = crate::types::value_to_geometry(v)?;
            if let Some(r) = g.bounding_rect() {
                items.push((
                    Rect3::new(
                        [r.xmin, r.ymin, f64::NEG_INFINITY],
                        [r.xmax, r.ymax, f64::INFINITY],
                    ),
                    i as u64,
                ));
            }
        }
        idx.inner.tree = RTree::bulk_load(items);
        Ok(Box::new(idx))
    }
}

// ------------------------------------------------------------- rowdb side

/// GiST instance bound to a rowdb table column.
pub struct GistIndex(SpatioTemporalIndex);

impl mduck_rowdb::RowIndex for GistIndex {
    fn name(&self) -> &str {
        &self.0.name
    }
    fn method(&self) -> &str {
        "GIST"
    }
    fn column(&self) -> usize {
        self.0.column
    }
    fn append(&mut self, values: &[Value], first_row: u64) -> SqlResult<()> {
        self.0.append_values(values, first_row)
    }
    fn try_scan(&self, op: &str, probe: &Value) -> SqlResult<Option<Vec<u64>>> {
        self.0.scan(op, probe)
    }
    fn len(&self) -> usize {
        self.0.tree.len()
    }
}

/// `USING GIST` for the PostgreSQL-like baseline.
pub struct GistIndexType;

impl mduck_rowdb::RowIndexType for GistIndexType {
    fn type_name(&self) -> &str {
        "GIST"
    }
    fn can_index(&self, ty: &LogicalType) -> bool {
        is_indexable(ty)
    }
    fn create(
        &self,
        index_name: &str,
        column: usize,
        _column_type: &LogicalType,
        existing: &[Value],
    ) -> SqlResult<Box<dyn mduck_rowdb::RowIndex>> {
        Ok(Box::new(GistIndex(SpatioTemporalIndex::bulk_build(
            index_name, "GIST", column, existing,
        )?)))
    }
}

// Keep downcast paths alive for tests.
#[allow(unused)]
fn _wrappers(_: (&MdStbox, &MdTGeomPoint, &MdTGeometry)) {}
