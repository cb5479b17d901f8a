//! The [`Geometry`] enum: the subset of simple features the paper exercises.

use std::ops::ControlFlow;

use crate::algorithms::Features;
use crate::error::{GeoError, GeoResult};
use crate::point::{Point, Rect};
use crate::SRID_UNKNOWN;

/// Discriminant for [`Geometry`], mirroring the OGC simple-feature kinds we
/// support (all 2-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GeometryKind {
    Point,
    LineString,
    Polygon,
    MultiPoint,
    MultiLineString,
    GeometryCollection,
}

impl GeometryKind {
    /// OGC WKB type code.
    pub fn wkb_code(self) -> u32 {
        match self {
            GeometryKind::Point => 1,
            GeometryKind::LineString => 2,
            GeometryKind::Polygon => 3,
            GeometryKind::MultiPoint => 4,
            GeometryKind::MultiLineString => 5,
            GeometryKind::GeometryCollection => 7,
        }
    }

    /// Upper-case WKT tag.
    pub fn wkt_tag(self) -> &'static str {
        match self {
            GeometryKind::Point => "POINT",
            GeometryKind::LineString => "LINESTRING",
            GeometryKind::Polygon => "POLYGON",
            GeometryKind::MultiPoint => "MULTIPOINT",
            GeometryKind::MultiLineString => "MULTILINESTRING",
            GeometryKind::GeometryCollection => "GEOMETRYCOLLECTION",
        }
    }
}

/// A 2-D simple-feature geometry with an SRID.
///
/// Polygons store an exterior ring plus interior rings; rings are stored
/// closed (first point repeated last) exactly as parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct Geometry {
    pub srid: i32,
    pub data: GeomData,
}

/// The coordinate payload of a [`Geometry`].
#[derive(Debug, Clone, PartialEq)]
pub enum GeomData {
    Point(Point),
    LineString(Vec<Point>),
    Polygon(Vec<Vec<Point>>),
    MultiPoint(Vec<Point>),
    MultiLineString(Vec<Vec<Point>>),
    GeometryCollection(Vec<Geometry>),
}

impl Geometry {
    /// A single point geometry with SRID 0.
    pub fn point(x: f64, y: f64) -> Self {
        Geometry { srid: SRID_UNKNOWN, data: GeomData::Point(Point::new(x, y)) }
    }

    /// A point geometry from a [`Point`].
    pub fn from_point(p: Point) -> Self {
        Geometry { srid: SRID_UNKNOWN, data: GeomData::Point(p) }
    }

    /// A linestring; requires at least 2 points.
    pub fn linestring(points: Vec<Point>) -> GeoResult<Self> {
        if points.len() < 2 {
            return Err(GeoError::InvalidGeometry(
                "linestring needs at least 2 points".into(),
            ));
        }
        Ok(Geometry { srid: SRID_UNKNOWN, data: GeomData::LineString(points) })
    }

    /// A polygon from rings. Each ring is closed if not already.
    pub fn polygon(mut rings: Vec<Vec<Point>>) -> GeoResult<Self> {
        if rings.is_empty() {
            return Err(GeoError::InvalidGeometry("polygon needs a ring".into()));
        }
        for ring in &mut rings {
            if ring.len() < 3 {
                return Err(GeoError::InvalidGeometry(
                    "polygon ring needs at least 3 points".into(),
                ));
            }
            if ring.first() != ring.last() {
                let first = ring[0];
                ring.push(first);
            }
        }
        Ok(Geometry { srid: SRID_UNKNOWN, data: GeomData::Polygon(rings) })
    }

    /// A multipoint.
    pub fn multipoint(points: Vec<Point>) -> Self {
        Geometry { srid: SRID_UNKNOWN, data: GeomData::MultiPoint(points) }
    }

    /// A multilinestring.
    pub fn multilinestring(lines: Vec<Vec<Point>>) -> Self {
        Geometry { srid: SRID_UNKNOWN, data: GeomData::MultiLineString(lines) }
    }

    /// A geometry collection. Children keep their own payloads; the
    /// collection's SRID wins when serializing.
    pub fn collection(geoms: Vec<Geometry>) -> Self {
        Geometry { srid: SRID_UNKNOWN, data: GeomData::GeometryCollection(geoms) }
    }

    /// Builder-style SRID assignment.
    pub fn with_srid(mut self, srid: i32) -> Self {
        self.srid = srid;
        self
    }

    /// The kind discriminant.
    pub fn kind(&self) -> GeometryKind {
        match &self.data {
            GeomData::Point(_) => GeometryKind::Point,
            GeomData::LineString(_) => GeometryKind::LineString,
            GeomData::Polygon(_) => GeometryKind::Polygon,
            GeomData::MultiPoint(_) => GeometryKind::MultiPoint,
            GeomData::MultiLineString(_) => GeometryKind::MultiLineString,
            GeomData::GeometryCollection(_) => GeometryKind::GeometryCollection,
        }
    }

    /// If this is a point geometry, its coordinate.
    pub fn as_point(&self) -> Option<Point> {
        match &self.data {
            GeomData::Point(p) => Some(*p),
            _ => None,
        }
    }

    /// Total number of coordinates (vertices) in the geometry.
    pub fn num_points(&self) -> usize {
        match &self.data {
            GeomData::Point(_) => 1,
            GeomData::LineString(ps) | GeomData::MultiPoint(ps) => ps.len(),
            GeomData::Polygon(rings) | GeomData::MultiLineString(rings) => {
                rings.iter().map(Vec::len).sum()
            }
            GeomData::GeometryCollection(gs) => gs.iter().map(Geometry::num_points).sum(),
        }
    }

    /// True when the geometry contains no coordinates.
    pub fn is_empty(&self) -> bool {
        self.num_points() == 0
    }

    /// Axis-aligned bounding box; `None` for empty geometries.
    pub fn bounding_rect(&self) -> Option<Rect> {
        crate::algorithms::features_rect(self)
    }

    /// Visit every coordinate in the geometry.
    pub fn for_each_point(&self, f: &mut impl FnMut(Point)) {
        let _ = self.visit_points(&mut |p| {
            f(p);
            ControlFlow::Continue(())
        });
    }

    /// Every line segment in the geometry (linestrings, polygon rings).
    pub fn for_each_segment(&self, f: &mut impl FnMut(Point, Point)) {
        let _ = self.visit_segments(&mut |p, q| {
            f(p, q);
            ControlFlow::Continue(())
        });
    }

    /// Sum of segment lengths (0 for point kinds, perimeter for polygons).
    pub fn length(&self) -> f64 {
        let mut total = 0.0;
        self.for_each_segment(&mut |a, b| total += a.distance(&b));
        total
    }

    /// Map every coordinate through `f`, preserving structure and SRID.
    pub fn map_points(&self, f: &impl Fn(Point) -> Point) -> Geometry {
        let data = match &self.data {
            GeomData::Point(p) => GeomData::Point(f(*p)),
            GeomData::LineString(ps) => GeomData::LineString(ps.iter().map(|p| f(*p)).collect()),
            GeomData::MultiPoint(ps) => GeomData::MultiPoint(ps.iter().map(|p| f(*p)).collect()),
            GeomData::Polygon(rings) => GeomData::Polygon(
                rings.iter().map(|r| r.iter().map(|p| f(*p)).collect()).collect(),
            ),
            GeomData::MultiLineString(rings) => GeomData::MultiLineString(
                rings.iter().map(|r| r.iter().map(|p| f(*p)).collect()).collect(),
            ),
            GeomData::GeometryCollection(gs) => {
                GeomData::GeometryCollection(gs.iter().map(|g| g.map_points(f)).collect())
            }
        };
        Geometry { srid: self.srid, data }
    }

    /// Flatten into primitive (non-collection) geometries.
    pub fn flatten(&self) -> Vec<&Geometry> {
        match &self.data {
            GeomData::GeometryCollection(gs) => gs.iter().flat_map(|g| g.flatten()).collect(),
            _ => vec![self],
        }
    }

    /// Error helper asserting matching SRIDs (SRID 0 matches anything).
    pub fn check_srid(&self, other: &Geometry) -> GeoResult<()> {
        if self.srid != SRID_UNKNOWN && other.srid != SRID_UNKNOWN && self.srid != other.srid {
            Err(GeoError::SridMismatch { left: self.srid, right: other.srid })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polygon_closes_open_rings() {
        let g = Geometry::polygon(vec![vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
        ]])
        .unwrap();
        match &g.data {
            GeomData::Polygon(rings) => {
                assert_eq!(rings[0].len(), 4);
                assert_eq!(rings[0][0], rings[0][3]);
            }
            _ => panic!("not a polygon"),
        }
    }

    #[test]
    fn linestring_rejects_single_point() {
        assert!(Geometry::linestring(vec![Point::new(0.0, 0.0)]).is_err());
    }

    #[test]
    fn bounding_rect_and_length() {
        let g = Geometry::linestring(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 4.0),
            Point::new(3.0, 8.0),
        ])
        .unwrap();
        assert_eq!(g.bounding_rect().unwrap(), Rect::new(0.0, 0.0, 3.0, 8.0));
        assert_eq!(g.length(), 9.0);
        assert_eq!(g.num_points(), 3);
    }

    #[test]
    fn collection_flatten_and_points() {
        let c = Geometry::collection(vec![
            Geometry::point(1.0, 1.0),
            Geometry::multipoint(vec![Point::new(2.0, 2.0), Point::new(3.0, 3.0)]),
        ]);
        assert_eq!(c.num_points(), 3);
        assert_eq!(c.flatten().len(), 2);
        assert!(!c.is_empty());
        assert!(Geometry::collection(vec![]).is_empty());
    }

    #[test]
    fn srid_check() {
        let a = Geometry::point(0.0, 0.0).with_srid(4326);
        let b = Geometry::point(0.0, 0.0).with_srid(3857);
        let c = Geometry::point(0.0, 0.0);
        assert!(a.check_srid(&b).is_err());
        assert!(a.check_srid(&c).is_ok());
        assert!(a.check_srid(&a).is_ok());
    }

    #[test]
    fn map_points_preserves_srid() {
        let g = Geometry::point(1.0, 2.0).with_srid(4326);
        let m = g.map_points(&|p| Point::new(p.x * 2.0, p.y * 2.0));
        assert_eq!(m.srid, 4326);
        assert_eq!(m.as_point().unwrap(), Point::new(2.0, 4.0));
    }
}
