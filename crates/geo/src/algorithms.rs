//! Metric and topological algorithms: distance, intersection tests,
//! point-in-polygon, and segment/polygon clipping (the kernel behind
//! `atGeometry`, `ST_Intersects`, `ST_Distance`, `eDwithin`).

use std::ops::ControlFlow;

use crate::geometry::{GeomData, Geometry};
use crate::point::{Point, Rect};

/// Distance from point `p` to segment `a`–`b`.
pub fn point_segment_distance(p: Point, a: Point, b: Point) -> f64 {
    let ab = b - a;
    let len_sq = ab.dot(ab);
    if len_sq == 0.0 {
        return p.distance(&a);
    }
    let t = ((p - a).dot(ab) / len_sq).clamp(0.0, 1.0);
    p.distance(&a.lerp(&b, t))
}

/// Squared orientation-robust segment intersection test (closed segments).
pub fn segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool {
    fn orient(a: Point, b: Point, c: Point) -> f64 {
        (b - a).cross(c - a)
    }
    fn on_segment(a: Point, b: Point, c: Point) -> bool {
        c.x >= a.x.min(b.x) && c.x <= a.x.max(b.x) && c.y >= a.y.min(b.y) && c.y <= a.y.max(b.y)
    }
    // Segments whose boxes are apart cannot meet. The orientation signs
    // below are rounding noise for nearly collinear segments, and would
    // otherwise report such distant segments as crossing.
    if p1.x.max(p2.x) < q1.x.min(q2.x)
        || q1.x.max(q2.x) < p1.x.min(p2.x)
        || p1.y.max(p2.y) < q1.y.min(q2.y)
        || q1.y.max(q2.y) < p1.y.min(p2.y)
    {
        return false;
    }
    let d1 = orient(q1, q2, p1);
    let d2 = orient(q1, q2, p2);
    let d3 = orient(p1, p2, q1);
    let d4 = orient(p1, p2, q2);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    (d1 == 0.0 && on_segment(q1, q2, p1))
        || (d2 == 0.0 && on_segment(q1, q2, p2))
        || (d3 == 0.0 && on_segment(p1, p2, q1))
        || (d4 == 0.0 && on_segment(p1, p2, q2))
}

/// Minimum distance between two closed segments.
pub fn segment_segment_distance(p1: Point, p2: Point, q1: Point, q2: Point) -> f64 {
    if segments_intersect(p1, p2, q1, q2) {
        return 0.0;
    }
    point_segment_distance(p1, q1, q2)
        .min(point_segment_distance(p2, q1, q2))
        .min(point_segment_distance(q1, p1, p2))
        .min(point_segment_distance(q2, p1, p2))
}

/// Even-odd point-in-polygon over all rings (holes handled by parity).
/// Points exactly on an edge count as inside.
pub fn point_in_rings(p: Point, rings: &[Vec<Point>]) -> bool {
    let mut inside = false;
    for ring in rings {
        for w in ring.windows(2) {
            let (a, b) = (w[0], w[1]);
            // Boundary counts as inside.
            if point_segment_distance(p, a, b) == 0.0 {
                return true;
            }
            if (a.y > p.y) != (b.y > p.y) {
                let x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
        }
    }
    inside
}

/// True when point `p` lies inside/on geometry `g` (polygon interior counts;
/// lines and points require exact incidence).
pub fn geometry_covers_point(g: &Geometry, p: Point) -> bool {
    match &g.data {
        GeomData::Point(q) => *q == p,
        GeomData::MultiPoint(qs) => qs.contains(&p),
        GeomData::LineString(ps) => {
            ps.windows(2).any(|w| point_segment_distance(p, w[0], w[1]) == 0.0)
        }
        GeomData::MultiLineString(lines) => lines
            .iter()
            .any(|ps| ps.windows(2).any(|w| point_segment_distance(p, w[0], w[1]) == 0.0)),
        GeomData::Polygon(rings) => point_in_rings(p, rings),
        GeomData::GeometryCollection(gs) => gs.iter().any(|g| geometry_covers_point(g, p)),
    }
}

/// The features the distance and intersection kernels read from an
/// operand: its vertices, its segments, the vertices that end no segment,
/// and its polygons.
///
/// [`Geometry`] yields its own coordinates. A moving point can yield its
/// trajectory's features straight from its instants, so `eIntersects`
/// never builds the trajectory. Every visitor stops as soon as `f` returns
/// `Break`, and reports whether it did.
///
/// A source gives its vertices, segments and bare points in one pass
/// (`visit_features`); the visitors of one kind default to picking theirs
/// from it, and [`Geometry`] walks each kind directly.
pub trait Features {
    /// Every vertex, segment and bare point, in one pass.
    fn visit_features(&self, sink: &mut impl FeatureSink) -> ControlFlow<()>;

    /// The rings of every polygon.
    fn visit_polygons<F: FnMut(&[Vec<Point>]) -> ControlFlow<()>>(
        &self,
        f: &mut F,
    ) -> ControlFlow<()>;

    /// Every vertex.
    fn visit_points<F: FnMut(Point) -> ControlFlow<()>>(&self, f: &mut F) -> ControlFlow<()> {
        self.visit_features(&mut Each(|feature| match feature {
            Feature::Vertex(p) => f(p),
            _ => ControlFlow::Continue(()),
        }))
    }

    /// Every segment between consecutive vertices of a line or ring.
    fn visit_segments<F: FnMut(Point, Point) -> ControlFlow<()>>(
        &self,
        f: &mut F,
    ) -> ControlFlow<()> {
        self.visit_features(&mut Each(|feature| match feature {
            Feature::Segment(p, q) => f(p, q),
            _ => ControlFlow::Continue(()),
        }))
    }

    /// The vertices that end no segment: points, multipoint members and
    /// one-vertex lines or rings.
    fn visit_bare_points<F: FnMut(Point) -> ControlFlow<()>>(&self, f: &mut F) -> ControlFlow<()> {
        self.visit_features(&mut Each(|feature| match feature {
            Feature::Bare(p) => f(p),
            _ => ControlFlow::Continue(()),
        }))
    }

    /// A box holding every vertex, and whether it is exactly their
    /// bounding box; `None` without vertices. By default the bounding box,
    /// walked; a source that keeps a box cached can return it instead.
    fn bound(&self) -> Option<(Rect, bool)> {
        features_rect(self).map(|r| (r, true))
    }
}

/// What [`Features::visit_features`] reports each feature to; it stops
/// the visit by returning `Break`. The call runs once per feature, in the
/// visit's inner loop: an implementation should be `#[inline(always)]`
/// and keep its common case small.
pub trait FeatureSink {
    fn feature(&mut self, feature: Feature) -> ControlFlow<()>;
}

/// A closure as a [`FeatureSink`].
struct Each<F>(F);

impl<F: FnMut(Feature) -> ControlFlow<()>> FeatureSink for Each<F> {
    #[inline(always)]
    fn feature(&mut self, feature: Feature) -> ControlFlow<()> {
        (self.0)(feature)
    }
}

/// One feature [`Features::visit_features`] reports.
#[derive(Debug, Clone, Copy)]
pub enum Feature {
    /// A vertex ([`Features::visit_points`]).
    Vertex(Point),
    /// A segment ([`Features::visit_segments`]).
    Segment(Point, Point),
    /// A vertex that ends no segment ([`Features::visit_bare_points`]).
    Bare(Point),
}

impl Features for Geometry {
    fn visit_points<F: FnMut(Point) -> ControlFlow<()>>(&self, f: &mut F) -> ControlFlow<()> {
        match &self.data {
            GeomData::Point(p) => f(*p),
            GeomData::LineString(ps) | GeomData::MultiPoint(ps) => {
                ps.iter().try_for_each(|p| f(*p))
            }
            GeomData::Polygon(rings) | GeomData::MultiLineString(rings) => {
                rings.iter().flatten().try_for_each(|p| f(*p))
            }
            GeomData::GeometryCollection(gs) => gs.iter().try_for_each(|g| g.visit_points(f)),
        }
    }

    fn visit_segments<F: FnMut(Point, Point) -> ControlFlow<()>>(
        &self,
        f: &mut F,
    ) -> ControlFlow<()> {
        match &self.data {
            GeomData::Point(_) | GeomData::MultiPoint(_) => ControlFlow::Continue(()),
            GeomData::LineString(ps) => ps.windows(2).try_for_each(|w| f(w[0], w[1])),
            GeomData::Polygon(rings) | GeomData::MultiLineString(rings) => rings
                .iter()
                .try_for_each(|r| r.windows(2).try_for_each(|w| f(w[0], w[1]))),
            GeomData::GeometryCollection(gs) => gs.iter().try_for_each(|g| g.visit_segments(f)),
        }
    }

    fn visit_bare_points<F: FnMut(Point) -> ControlFlow<()>>(&self, f: &mut F) -> ControlFlow<()> {
        match &self.data {
            GeomData::Point(p) => f(*p),
            GeomData::MultiPoint(ps) => ps.iter().try_for_each(|p| f(*p)),
            GeomData::LineString(ps) => match ps.as_slice() {
                [p] => f(*p),
                _ => ControlFlow::Continue(()),
            },
            GeomData::Polygon(rings) | GeomData::MultiLineString(rings) => {
                rings.iter().try_for_each(|r| match r.as_slice() {
                    [p] => f(*p),
                    _ => ControlFlow::Continue(()),
                })
            }
            GeomData::GeometryCollection(gs) => {
                gs.iter().try_for_each(|g| g.visit_bare_points(f))
            }
        }
    }

    fn visit_polygons<F: FnMut(&[Vec<Point>]) -> ControlFlow<()>>(
        &self,
        f: &mut F,
    ) -> ControlFlow<()> {
        match &self.data {
            GeomData::Polygon(rings) => f(rings),
            GeomData::GeometryCollection(gs) => gs.iter().try_for_each(|g| g.visit_polygons(f)),
            _ => ControlFlow::Continue(()),
        }
    }

    fn visit_features(&self, sink: &mut impl FeatureSink) -> ControlFlow<()> {
        fn bare(sink: &mut impl FeatureSink, p: Point) -> ControlFlow<()> {
            sink.feature(Feature::Vertex(p))?;
            sink.feature(Feature::Bare(p))
        }
        // A line or ring: a bare point when it has one vertex.
        fn line(sink: &mut impl FeatureSink, ps: &[Point]) -> ControlFlow<()> {
            if let [p] = ps {
                return bare(sink, *p);
            }
            let mut prev: Option<Point> = None;
            for &p in ps {
                sink.feature(Feature::Vertex(p))?;
                if let Some(q) = prev.replace(p) {
                    sink.feature(Feature::Segment(q, p))?;
                }
            }
            ControlFlow::Continue(())
        }
        match &self.data {
            GeomData::Point(p) => bare(sink, *p),
            GeomData::MultiPoint(ps) => ps.iter().try_for_each(|p| bare(sink, *p)),
            GeomData::LineString(ps) => line(sink, ps),
            GeomData::Polygon(rings) | GeomData::MultiLineString(rings) => {
                rings.iter().try_for_each(|r| line(sink, r))
            }
            GeomData::GeometryCollection(gs) => gs.iter().try_for_each(|g| g.visit_features(sink)),
        }
    }
}

/// Stop a visit when `hit` holds.
pub fn stop_if(hit: bool) -> ControlFlow<()> {
    if hit {
        ControlFlow::Break(())
    } else {
        ControlFlow::Continue(())
    }
}

fn has_segments(a: &impl Features) -> bool {
    a.visit_segments(&mut |_, _| ControlFlow::Break(())).is_break()
}

/// The bounding box of `a`'s vertices; `None` when it has none.
pub fn features_rect<A: Features + ?Sized>(a: &A) -> Option<Rect> {
    let mut rect: Option<Rect> = None;
    let _ = a.visit_points(&mut |p| {
        match &mut rect {
            None => rect = Some(Rect::from_point(p)),
            Some(r) => r.expand_to(p),
        }
        ControlFlow::Continue(())
    });
    rect
}

/// Does a polygon of `a` cover a vertex of `b`? A point of one operand
/// inside a polygon of the other puts them at distance 0.
fn polygon_covers_vertex(a: &impl Features, b: &impl Features) -> bool {
    a.visit_polygons(&mut |rings| b.visit_points(&mut |p| stop_if(point_in_rings(p, rings))))
        .is_break()
}

/// How far a computed feature distance may undershoot a box lower bound,
/// relative to the largest coordinate magnitude involved. The kernels'
/// rounding error is a few ulps of that magnitude (about 1e-15 of it), so
/// a pair is skipped only when its box lies clearly beyond the bound.
const BOX_SLACK: f64 = 1e-10;

/// The largest coordinate magnitude of `p`; infinite when a coordinate
/// is NaN.
pub fn magnitude(p: Point) -> f64 {
    if p.x.is_nan() || p.y.is_nan() {
        f64::INFINITY
    } else {
        p.x.abs().max(p.y.abs())
    }
}

/// The box slack for coordinates of at most `magnitude`: infinite, which
/// disables pruning, when a coordinate is not finite or so large that
/// squaring it could overflow; never below 1e-150, under which squared
/// distances lose their precision to underflow.
fn slack_for(magnitude: f64) -> f64 {
    if magnitude <= 1e150 {
        (magnitude * BOX_SLACK).max(1e-150)
    } else {
        f64::INFINITY
    }
}

/// The largest coordinate magnitude of the vertices a box holds.
fn rect_magnitude(r: &Rect) -> f64 {
    magnitude(Point::new(r.xmin, r.ymin)).max(magnitude(Point::new(r.xmax, r.ymax)))
}

/// The largest coordinate magnitude of `a`'s vertices.
fn features_magnitude(a: &impl Features) -> f64 {
    let mut m = 0.0f64;
    let _ = a.visit_points(&mut |p| {
        m = m.max(magnitude(p));
        stop_if(m == f64::INFINITY)
    });
    m
}

/// The slack for boxes over `a` and `b`.
fn box_slack(a: &impl Features, b: &impl Features) -> f64 {
    slack_for(features_magnitude(a).max(features_magnitude(b)))
}

/// A box grown by a slack, for sorting points against it: a point's code
/// has a bit for each side of the box it lies beyond, and none when it is
/// near. A segment whose ends share a bit lies beyond the box: its own box
/// misses it. An infinite slack puts every point near.
#[derive(Debug, Clone, Copy)]
struct Near {
    rect: Rect,
    bounded: bool,
}

impl Near {
    fn new(rect: Rect, slack: f64) -> Near {
        Near { rect: rect.expand_by(slack), bounded: slack.is_finite() }
    }

    /// The sides of the box `p` lies beyond; 0 when it is near.
    #[inline]
    fn code(&self, p: Point) -> u8 {
        if !self.bounded {
            return 0;
        }
        let r = &self.rect;
        u8::from(p.x < r.xmin)
            | u8::from(p.x > r.xmax) << 1
            | u8::from(p.y < r.ymin) << 2
            | u8::from(p.y > r.ymax) << 3
    }

    /// Is `p` near the box?
    #[inline]
    fn holds(&self, p: Point) -> bool {
        self.code(p) == 0
    }

    /// Does segment `p`–`q` lie beyond the box?
    #[inline]
    fn misses(&self, p: Point, q: Point) -> bool {
        self.code(p) & self.code(q) != 0
    }
}

/// A geometry prepared for intersection tests against other operands
/// (`ST_Intersects`, and `eIntersects` against each moving point): its
/// box, the largest magnitude of its coordinates, whether it has segments,
/// and whether every ring of its polygons is closed.
pub struct Target<'a> {
    geom: &'a Geometry,
    rect: Rect,
    magnitude: f64,
    has_segments: bool,
    has_polygons: bool,
    closed_rings: bool,
}

impl<'a> Target<'a> {
    /// `None` for an empty geometry, which intersects nothing.
    pub fn new(geom: &'a Geometry) -> Option<Target<'a>> {
        let rect = features_rect(geom)?;
        let (mut has_polygons, mut closed_rings) = (false, true);
        let _ = geom.visit_polygons(&mut |rings| {
            has_polygons = true;
            closed_rings &= rings.iter().all(|r| r.first() == r.last());
            ControlFlow::Continue(())
        });
        Some(Target {
            geom,
            rect,
            magnitude: features_magnitude(geom),
            has_segments: has_segments(geom),
            has_polygons,
            closed_rings,
        })
    }

    /// The bounding box of every vertex.
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// Does `a` intersect the geometry? True exactly when their boxes meet
    /// and [`features_distance`] is 0: when a polygon of either covers a
    /// vertex of the other, or else a pair of features is at distance 0 —
    /// vertex–vertex when neither has segments; each vertex of a
    /// segment-less operand against the other's segments and vertices;
    /// else segment–segment and bare point–segment.
    ///
    /// The features of `a` are read in one [`Features::visit_features`]
    /// pass, which stops at the first such pair. Every vertex or segment
    /// of `a` that lies beyond `BOX_SLACK` of the geometry's box is
    /// skipped: it cannot be at distance 0 from any part of it. So is
    /// every pair of segments whose boxes lie that far apart.
    pub fn intersects(&self, a: &impl Features) -> bool {
        let Some((ra, exact)) = a.bound() else {
            return false; // an empty geometry intersects nothing
        };
        if !ra.intersects(&self.rect) {
            return false;
        }
        let slack = slack_for(rect_magnitude(&ra).max(self.magnitude));
        let near = Near::new(self.rect, slack);
        let lines = (has_segments(a), self.has_segments);
        let hit = a.visit_features(&mut Meet { target: self, lines, near, slack });
        let hit = hit.is_break()
            || polygon_covers_vertex(a, self.geom)
            || (lines == (true, true) && self.bare_point_on(a, &ra, slack));
        // The boxes meet, unless `ra` is only a bound and the exact box of
        // `a` misses the geometry's.
        hit && (exact || features_rect(a).is_some_and(|r| r.intersects(&self.rect)))
    }

    /// The tests of a feature of an operand `a` that [`Meet`] did not
    /// skip; `a_lines` and `g_lines` say which operand has segments.
    #[inline(never)]
    fn test(
        &self,
        feature: Feature,
        (a_lines, g_lines): (bool, bool),
        near: &Near,
        slack: f64,
    ) -> ControlFlow<()> {
        match feature {
            Feature::Vertex(p) => {
                let code = near.code(p);
                if self.covers(p, code) {
                    return ControlFlow::Break(());
                }
                if code != 0 {
                    return ControlFlow::Continue(());
                }
                if !a_lines && g_lines {
                    self.segment_at(p)?;
                }
                if !a_lines || !g_lines {
                    self.vertex_at(p)?;
                }
                ControlFlow::Continue(())
            }
            Feature::Segment(p, q) if g_lines => self.segment_meets(p, q, slack),
            Feature::Segment(p, q) => self.vertex_on(p, q),
            Feature::Bare(p) => self.segment_at(p),
        }
    }

    /// Does a polygon cover `p` ([`point_in_rings`])? A point whose `code`
    /// puts it beyond the slack of the box is outside every closed ring:
    /// it is on no edge, and a horizontal ray from it crosses each closed
    /// ring an even number of times. An open ring (possible from WKB) can
    /// hold far points, so then every point is tested.
    fn covers(&self, p: Point, code: u8) -> bool {
        if !self.has_polygons || (code != 0 && self.closed_rings) {
            return false;
        }
        self.geom.visit_polygons(&mut |rings| stop_if(point_in_rings(p, rings))).is_break()
    }

    /// Break when `p` is at distance 0 from a vertex.
    fn vertex_at(&self, p: Point) -> ControlFlow<()> {
        self.geom.visit_points(&mut |q| stop_if(p.distance(&q) == 0.0))
    }

    /// Break when `p` is at distance 0 from a segment.
    fn segment_at(&self, p: Point) -> ControlFlow<()> {
        self.geom.visit_segments(&mut |q1, q2| stop_if(point_segment_distance(p, q1, q2) == 0.0))
    }

    /// Break when a vertex is at distance 0 from segment `p1`–`p2`.
    fn vertex_on(&self, p1: Point, p2: Point) -> ControlFlow<()> {
        self.geom.visit_points(&mut |q| stop_if(point_segment_distance(q, p1, p2) == 0.0))
    }

    /// Break when a segment is at distance 0 from segment `p1`–`p2`,
    /// skipping those whose boxes lie beyond `slack` of its box.
    fn segment_meets(&self, p1: Point, p2: Point, slack: f64) -> ControlFlow<()> {
        let sa = segment_rect(p1, p2);
        self.geom.visit_segments(&mut |q1, q2| {
            stop_if(
                sa.distance(&segment_rect(q1, q2)) <= slack
                    && segment_segment_distance(p1, p2, q1, q2) == 0.0,
            )
        })
    }

    /// Is a bare point of the geometry at distance 0 from a segment of
    /// `a`? `ra` holds every vertex of `a`.
    fn bare_point_on(&self, a: &impl Features, ra: &Rect, slack: f64) -> bool {
        self.geom
            .visit_bare_points(&mut |q| {
                if Rect::from_point(q).distance(ra) > slack {
                    return ControlFlow::Continue(());
                }
                a.visit_segments(&mut |p1, p2| stop_if(point_segment_distance(q, p1, p2) == 0.0))
            })
            .is_break()
    }
}

/// [`Target::intersects`]' visit of the other operand's features. Most of
/// them lie beyond `near` and are skipped inline; the rest go to
/// [`Target::test`], kept out of line so that the skip stays small (a
/// visit that called one large test per feature took about 1.7 times as
/// long).
struct Meet<'t, 'g> {
    target: &'t Target<'g>,
    /// Which operand has segments: the other one, and the geometry.
    lines: (bool, bool),
    near: Near,
    slack: f64,
}

impl FeatureSink for Meet<'_, '_> {
    #[inline(always)]
    fn feature(&mut self, feature: Feature) -> ControlFlow<()> {
        let t = self.target;
        let beyond = match feature {
            // A far vertex can still lie in an open ring.
            Feature::Vertex(p) => !self.near.holds(p) && (t.closed_rings || !t.has_polygons),
            Feature::Segment(p, q) => self.near.misses(p, q),
            // Bare points are tested only when both operands have segments.
            Feature::Bare(p) => !(self.lines == (true, true) && self.near.holds(p)),
        };
        if beyond {
            return ControlFlow::Continue(());
        }
        t.test(feature, self.lines, &self.near, self.slack)
    }
}

/// The bounding box of segment `p`–`q`.
pub fn segment_rect(p: Point, q: Point) -> Rect {
    Rect::new(p.x, p.y, q.x, q.y)
}

/// Consecutive segments per box in `distance`'s branch-and-bound.
const RUN: usize = 8;

/// The bounding box of every run of [`RUN`] consecutive segments.
fn run_rects(segs: &[(Point, Point)]) -> Vec<Rect> {
    segs.chunks(RUN)
        .map(|run| {
            let first = segment_rect(run[0].0, run[0].1);
            run.iter().fold(first, |r, &(p, q)| r.union(&segment_rect(p, q)))
        })
        .collect()
}

/// The `i`-th run of [`RUN`] segments.
fn run(segs: &[(Point, Point)], i: usize) -> &[(Point, Point)] {
    &segs[i * RUN..segs.len().min((i + 1) * RUN)]
}

fn collect_segments(a: &impl Features) -> Vec<(Point, Point)> {
    let mut segs = Vec::new();
    let _ = a.visit_segments(&mut |p, q| {
        segs.push((p, q));
        ControlFlow::Continue(())
    });
    segs
}

/// Minimum Euclidean distance between two geometries (`ST_Distance`).
pub fn distance(a: &Geometry, b: &Geometry) -> f64 {
    features_distance(a, b)
}

/// [`distance`] over any two feature sources.
///
/// It is 0 when a vertex of one operand lies in a polygon of the other.
/// Otherwise it is a minimum over feature pairs: vertex–vertex when
/// neither operand has segments; each vertex of a segment-less operand
/// against the other's segments and vertices; else segment–segment and
/// bare point–segment. Where both operands have segments, a
/// branch-and-bound over boxes of runs of `RUN` consecutive segments
/// skips run pairs whose box distance exceeds the best distance so far
/// (plus a slack, see `BOX_SLACK`), so the result equals the exhaustive
/// minimum bit for bit.
pub fn features_distance<A: Features, B: Features>(a: &A, b: &B) -> f64 {
    if polygon_covers_vertex(a, b) || polygon_covers_vertex(b, a) {
        return 0.0;
    }
    match (has_segments(a), has_segments(b)) {
        (false, false) => {
            let mut best = f64::INFINITY;
            let _ = a.visit_points(&mut |p| {
                b.visit_points(&mut |q| {
                    best = best.min(p.distance(&q));
                    ControlFlow::Continue(())
                })
            });
            if best.is_finite() {
                best
            } else {
                f64::NAN
            }
        }
        (false, true) => points_to_features(a, b),
        (true, false) => points_to_features(b, a),
        (true, true) => segments_distance(a, b),
    }
}

/// Every vertex of the segment-less `a` against every segment and vertex
/// of `b`.
fn points_to_features(a: &impl Features, b: &impl Features) -> f64 {
    let mut best = f64::INFINITY;
    let _ = a.visit_points(&mut |p| {
        let _ = b.visit_segments(&mut |q1, q2| {
            best = best.min(point_segment_distance(p, q1, q2));
            ControlFlow::Continue(())
        });
        b.visit_points(&mut |q| {
            best = best.min(p.distance(&q));
            ControlFlow::Continue(())
        })
    });
    best
}

/// Branch-and-bound minimum between two operands that both have segments.
///
/// Vertices that end a segment need no pass of their own:
/// [`segment_segment_distance`] already takes the minimum over the same
/// point-to-segment expressions. Only bare points are compared separately.
fn segments_distance(a: &impl Features, b: &impl Features) -> f64 {
    let slack = box_slack(a, b);
    let (a_segs, b_segs) = (collect_segments(a), collect_segments(b));
    let (a_runs, b_runs) = (run_rects(&a_segs), run_rects(&b_segs));
    let mut pairs: Vec<(f64, usize, usize)> = Vec::with_capacity(a_runs.len() * b_runs.len());
    for (i, ra) in a_runs.iter().enumerate() {
        for (j, rb) in b_runs.iter().enumerate() {
            pairs.push((ra.distance(rb), i, j));
        }
    }
    pairs.sort_unstable_by(|x, y| x.0.total_cmp(&y.0));
    let mut best = f64::INFINITY;
    for (gap, i, j) in pairs {
        if gap > best + slack {
            break;
        }
        for &(p1, p2) in run(&a_segs, i) {
            let sa = segment_rect(p1, p2);
            for &(q1, q2) in run(&b_segs, j) {
                if sa.distance(&segment_rect(q1, q2)) > best + slack {
                    continue;
                }
                best = best.min(segment_segment_distance(p1, p2, q1, q2));
                if best == 0.0 {
                    return 0.0;
                }
            }
        }
    }
    best = bare_points_distance(a, &b_segs, &b_runs, best, slack);
    bare_points_distance(b, &a_segs, &a_runs, best, slack)
}

/// `best` lowered by the distance from each bare point of `a` to `segs`,
/// skipping the runs whose box lies beyond the bound.
fn bare_points_distance(
    a: &impl Features,
    segs: &[(Point, Point)],
    runs: &[Rect],
    mut best: f64,
    slack: f64,
) -> f64 {
    let _ = a.visit_bare_points(&mut |p| {
        let at = Rect::from_point(p);
        for (run, r) in segs.chunks(RUN).zip(runs) {
            if at.distance(r) <= best + slack {
                for &(q1, q2) in run {
                    best = best.min(point_segment_distance(p, q1, q2));
                }
            }
        }
        ControlFlow::Continue(())
    });
    best
}

/// Topological intersection test (`ST_Intersects`): [`Target::intersects`]
/// with `b` prepared.
pub fn intersects(a: &Geometry, b: &Geometry) -> bool {
    Target::new(b).is_some_and(|target| target.intersects(a))
}

/// Parameter intervals of segment `a`→`b` (as fractions of \[0, 1\]) that lie
/// inside polygon `rings`. This is the clipping kernel behind `atGeometry`:
/// a temporal segment restricted to a district polygon.
///
/// Robustness strategy: collect the parameters where the segment crosses any
/// ring edge, sort them, then classify each sub-interval by testing its
/// midpoint with even-odd point-in-polygon.
pub fn clip_segment_to_rings(a: Point, b: Point, rings: &[Vec<Point>]) -> Vec<(f64, f64)> {
    let mut cuts = vec![0.0, 1.0];
    let d = b - a;
    for ring in rings {
        for w in ring.windows(2) {
            let (q1, q2) = (w[0], w[1]);
            let e = q2 - q1;
            let denom = d.cross(e);
            if denom != 0.0 {
                let t = (q1 - a).cross(e) / denom;
                let u = (q1 - a).cross(d) / denom;
                if (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&u) {
                    cuts.push(t);
                }
            } else {
                // Parallel: project endpoints when collinear.
                if (q1 - a).cross(d) == 0.0 {
                    let len_sq = d.dot(d);
                    if len_sq > 0.0 {
                        for q in [q1, q2] {
                            let t = (q - a).dot(d) / len_sq;
                            if (0.0..=1.0).contains(&t) {
                                cuts.push(t);
                            }
                        }
                    }
                }
            }
        }
    }
    // total_cmp: intersection parameters computed from degenerate
    // (infinite-coordinate) input can be NaN; sorting must not panic.
    cuts.sort_by(|x, y| x.total_cmp(y));
    cuts.dedup_by(|x, y| (*x - *y).abs() < 1e-12);
    let mut out: Vec<(f64, f64)> = Vec::new();
    for w in cuts.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        let mid = a.lerp(&b, (t0 + t1) * 0.5);
        if point_in_rings(mid, rings) {
            match out.last_mut() {
                Some(last) if (last.1 - t0).abs() < 1e-12 => last.1 = t1,
                _ => out.push((t0, t1)),
            }
        }
    }
    out
}

/// Collect several geometries into one (`ST_Collect`): points fuse into a
/// multipoint, linestrings into a multilinestring, anything else into a
/// geometry collection. The SRID of the first non-zero-SRID member wins.
pub fn collect(geoms: Vec<Geometry>) -> Geometry {
    let srid = geoms.iter().map(|g| g.srid).find(|s| *s != 0).unwrap_or(0);
    let all_points = geoms.iter().all(|g| matches!(g.data, GeomData::Point(_)));
    if all_points && !geoms.is_empty() {
        let pts = geoms.iter().filter_map(Geometry::as_point).collect();
        return Geometry::multipoint(pts).with_srid(srid);
    }
    let all_lines = geoms.iter().all(|g| matches!(g.data, GeomData::LineString(_)));
    if all_lines && !geoms.is_empty() {
        let lines = geoms
            .into_iter()
            .map(|g| match g.data {
                GeomData::LineString(ps) => ps,
                _ => unreachable!(),
            })
            .collect();
        return Geometry::multilinestring(lines).with_srid(srid);
    }
    Geometry::collection(geoms).with_srid(srid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wkt::parse_wkt;

    fn g(s: &str) -> Geometry {
        parse_wkt(s).unwrap()
    }

    #[test]
    fn point_segment() {
        let d = point_segment_distance(Point::new(0.0, 1.0), Point::new(-1.0, 0.0), Point::new(1.0, 0.0));
        assert_eq!(d, 1.0);
        // Beyond the end: distance to endpoint.
        let d = point_segment_distance(Point::new(5.0, 0.0), Point::new(-1.0, 0.0), Point::new(1.0, 0.0));
        assert_eq!(d, 4.0);
        // Degenerate segment.
        let d = point_segment_distance(Point::new(3.0, 4.0), Point::ORIGIN, Point::ORIGIN);
        assert_eq!(d, 5.0);
    }

    #[test]
    fn segment_intersection_cases() {
        let o = Point::new(0.0, 0.0);
        assert!(segments_intersect(o, Point::new(2.0, 2.0), Point::new(0.0, 2.0), Point::new(2.0, 0.0)));
        assert!(!segments_intersect(o, Point::new(1.0, 0.0), Point::new(0.0, 1.0), Point::new(1.0, 1.0)));
        // Touching at an endpoint counts.
        assert!(segments_intersect(o, Point::new(1.0, 1.0), Point::new(1.0, 1.0), Point::new(2.0, 0.0)));
        // Collinear overlap counts.
        assert!(segments_intersect(o, Point::new(2.0, 0.0), Point::new(1.0, 0.0), Point::new(3.0, 0.0)));
        // Collinear disjoint does not.
        assert!(!segments_intersect(o, Point::new(1.0, 0.0), Point::new(2.0, 0.0), Point::new(3.0, 0.0)));
    }

    #[test]
    fn distant_collinear_segments_do_not_cross() {
        // Nearly collinear and 0.5 apart: the orientation signs alone round
        // to a proper crossing.
        let p1 = Point::new(-3.9000000000000004, -0.39000000000000007);
        let p2 = Point::new(1.0, 0.1);
        let q1 = Point::new(1.5, 0.15000000000000002);
        let q2 = Point::new(3.1, 0.31000000000000005);
        assert!(!segments_intersect(p1, p2, q1, q2));
        let gap = p2.distance(&q1);
        assert!((segment_segment_distance(p1, p2, q1, q2) - gap).abs() < 1e-12);
    }

    #[test]
    fn point_in_polygon_with_hole() {
        let rings = match g("POLYGON((0 0,10 0,10 10,0 10,0 0),(4 4,6 4,6 6,4 6,4 4))").data {
            GeomData::Polygon(r) => r,
            _ => unreachable!(),
        };
        assert!(point_in_rings(Point::new(1.0, 1.0), &rings));
        assert!(!point_in_rings(Point::new(5.0, 5.0), &rings)); // in the hole
        assert!(!point_in_rings(Point::new(11.0, 5.0), &rings));
        assert!(point_in_rings(Point::new(0.0, 5.0), &rings)); // boundary
    }

    #[test]
    fn distance_pairs() {
        assert_eq!(distance(&g("POINT(0 0)"), &g("POINT(3 4)")), 5.0);
        assert_eq!(distance(&g("POINT(0 1)"), &g("LINESTRING(-1 0,1 0)")), 1.0);
        assert_eq!(distance(&g("LINESTRING(0 0,2 2)"), &g("LINESTRING(0 2,2 0)")), 0.0);
        let d = distance(&g("LINESTRING(0 0,1 0)"), &g("LINESTRING(0 2,1 2)"));
        assert_eq!(d, 2.0);
        // Point inside polygon → 0.
        assert_eq!(distance(&g("POINT(5 5)"), &g("POLYGON((0 0,10 0,10 10,0 10,0 0))")), 0.0);
        // Point outside polygon → distance to boundary.
        assert_eq!(distance(&g("POINT(15 5)"), &g("POLYGON((0 0,10 0,10 10,0 10,0 0))")), 5.0);
    }

    #[test]
    fn intersects_uses_boxes_then_exact() {
        assert!(intersects(&g("LINESTRING(0 0,2 2)"), &g("LINESTRING(0 2,2 0)")));
        assert!(!intersects(&g("POINT(0 0)"), &g("POINT(1 0)")));
        assert!(intersects(&g("POINT(5 5)"), &g("POLYGON((0 0,10 0,10 10,0 10,0 0))")));
        assert!(!intersects(&g("GEOMETRYCOLLECTION EMPTY"), &g("POINT(0 0)")));
    }

    #[test]
    fn clip_segment_through_square() {
        let rings = match g("POLYGON((0 0,10 0,10 10,0 10,0 0))").data {
            GeomData::Polygon(r) => r,
            _ => unreachable!(),
        };
        // Segment crossing straight through.
        let iv = clip_segment_to_rings(Point::new(-5.0, 5.0), Point::new(15.0, 5.0), &rings);
        assert_eq!(iv.len(), 1);
        assert!((iv[0].0 - 0.25).abs() < 1e-9 && (iv[0].1 - 0.75).abs() < 1e-9);
        // Entirely inside.
        let iv = clip_segment_to_rings(Point::new(1.0, 1.0), Point::new(2.0, 2.0), &rings);
        assert_eq!(iv, vec![(0.0, 1.0)]);
        // Entirely outside.
        let iv = clip_segment_to_rings(Point::new(20.0, 20.0), Point::new(30.0, 30.0), &rings);
        assert!(iv.is_empty());
    }

    #[test]
    fn clip_segment_with_hole() {
        let rings = match g("POLYGON((0 0,10 0,10 10,0 10,0 0),(4 4,6 4,6 6,4 6,4 4))").data {
            GeomData::Polygon(r) => r,
            _ => unreachable!(),
        };
        // Crosses the hole: two inside intervals.
        let iv = clip_segment_to_rings(Point::new(0.0, 5.0), Point::new(10.0, 5.0), &rings);
        assert_eq!(iv.len(), 2);
        assert!((iv[0].1 - 0.4).abs() < 1e-9);
        assert!((iv[1].0 - 0.6).abs() < 1e-9);
    }

    #[test]
    fn collect_fuses_kinds() {
        let m = collect(vec![g("SRID=4326;POINT(1 1)"), g("POINT(2 2)")]);
        assert!(matches!(m.data, GeomData::MultiPoint(_)));
        assert_eq!(m.srid, 4326);
        let ml = collect(vec![g("LINESTRING(0 0,1 1)"), g("LINESTRING(2 2,3 3)")]);
        assert!(matches!(ml.data, GeomData::MultiLineString(_)));
        let c = collect(vec![g("POINT(1 1)"), g("LINESTRING(0 0,1 1)")]);
        assert!(matches!(c.data, GeomData::GeometryCollection(_)));
    }
}
