//! The TRTREE index type (§4): an R-tree over `stbox` (and `tgeompoint`,
//! via its bounding box) registered with the vectorized engine, plus the
//! GiST twin registered with the row engine for the "MobilityDB with
//! indexes" scenario.
//!
//! Index construction follows §4.2 exactly: the *index-first* `Append`
//! path inserts incrementally through `rtree_insert`, and the *data-first*
//! `CREATE INDEX` path runs the three-phase pipeline — parallel `Sink`
//! into partition-local collections on the shared worker pool, an
//! in-order `Combine`, then `BulkConstruct`.

use mduck_rtree::{RTree, Rect3};
use mduck_sql::{LogicalType, SqlResult, Value};
use mduck_temporal::{STBox, TimestampTz, TstzSpan};
use quackdb::parallel::morsel_map;

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
    /// The data-first bulk path (§4.2.2): Sink / Combine / BulkConstruct,
    /// on at most `threads` workers.
    pub fn bulk_build(
        name: &str,
        method: &'static str,
        column: usize,
        existing: &[Value],
        threads: usize,
    ) -> SqlResult<Self> {
        // Phase 1 — Sink: workers of the shared pool box partitions of
        // the rows into partition-local collections. Partition count scales
        // with the data, mirroring DuckDB's parallel table scan; fewer than
        // 4096 rows are one partition, boxed inline.
        let parts = threads.min(existing.len().div_ceil(4096)).max(1);
        let chunk_size = existing.len().div_ceil(parts).max(1);
        let partitions: Vec<&[Value]> = existing.chunks(chunk_size).collect();
        let sink = |pi: usize| -> SqlResult<Vec<Option<STBox>>> {
            partitions[pi].iter().map(value_stbox).collect()
        };
        let boxes = match partitions.len() {
            0 => Vec::new(),
            1 => sink(0)?,
            // Phase 2 — Combine: the partitions' collections concatenate
            // in partition order; the lowest partition's error wins.
            n => morsel_map(n, n, sink)?.0.concat(),
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
        threads: usize,
    ) -> SqlResult<Box<dyn quackdb::TableIndex>> {
        Ok(Box::new(TRTreeIndex(SpatioTemporalIndex::bulk_build(
            index_name, "TRTREE", column, existing, threads,
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
        _threads: usize,
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
        threads: usize,
    ) -> SqlResult<Box<dyn mduck_rowdb::RowIndex>> {
        Ok(Box::new(GistIndex(SpatioTemporalIndex::bulk_build(
            index_name, "GIST", column, existing, threads,
        )?)))
    }
}

// Keep downcast paths alive for tests.
#[allow(unused)]
fn _wrappers(_: (&MdStbox, &MdTGeomPoint, &MdTGeometry)) {}
