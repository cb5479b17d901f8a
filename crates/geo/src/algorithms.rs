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
pub trait Features {
    /// Every vertex.
    fn visit_points<F: FnMut(Point) -> ControlFlow<()>>(&self, f: &mut F) -> ControlFlow<()>;
    /// Every segment between consecutive vertices of a line or ring.
    fn visit_segments<F: FnMut(Point, Point) -> ControlFlow<()>>(
        &self,
        f: &mut F,
    ) -> ControlFlow<()>;
    /// The vertices that end no segment: points, multipoint members and
    /// one-vertex lines or rings.
    fn visit_bare_points<F: FnMut(Point) -> ControlFlow<()>>(&self, f: &mut F) -> ControlFlow<()>;
    /// The rings of every polygon.
    fn visit_polygons<F: FnMut(&[Vec<Point>]) -> ControlFlow<()>>(
        &self,
        f: &mut F,
    ) -> ControlFlow<()>;
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
}

/// Stop a visit when `hit` holds.
fn stop_if(hit: bool) -> ControlFlow<()> {
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
pub(crate) fn features_rect(a: &impl Features) -> Option<Rect> {
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

/// The slack for boxes over `a` and `b`: infinite, which disables
/// pruning, when a coordinate is not finite or so large that squaring it
/// could overflow; never below 1e-150, under which squared distances lose
/// their precision to underflow.
fn box_slack(a: &impl Features, b: &impl Features) -> f64 {
    let mut extent = 0.0f64;
    let mut visit = |p: Point| {
        let (x, y) = (p.x.abs(), p.y.abs());
        // Written so that NaN stops the visit too.
        if !(x <= 1e150 && y <= 1e150) {
            return ControlFlow::Break(());
        }
        extent = extent.max(x).max(y);
        ControlFlow::Continue(())
    };
    if a.visit_points(&mut visit).is_break() || b.visit_points(&mut visit).is_break() {
        return f64::INFINITY;
    }
    (extent * BOX_SLACK).max(1e-150)
}

fn segment_rect(p: Point, q: Point) -> Rect {
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

/// Topological intersection test (`ST_Intersects`).
pub fn intersects(a: &Geometry, b: &Geometry) -> bool {
    features_intersect(a, b)
}

/// [`intersects`] over any two feature sources: true exactly when their
/// boxes meet and [`features_distance`] is 0. It stops at the first
/// containment or zero-distance pair, and skips every segment whose box
/// lies beyond `BOX_SLACK` of the other operand's box or segment.
pub fn features_intersect<A: Features, B: Features>(a: &A, b: &B) -> bool {
    let (Some(ra), Some(rb)) = (features_rect(a), features_rect(b)) else {
        return false; // an empty geometry intersects nothing
    };
    if !ra.intersects(&rb) {
        return false;
    }
    if polygon_covers_vertex(a, b) || polygon_covers_vertex(b, a) {
        return true;
    }
    match (has_segments(a), has_segments(b)) {
        (false, false) => a
            .visit_points(&mut |p| b.visit_points(&mut |q| stop_if(p.distance(&q) == 0.0)))
            .is_break(),
        (false, true) => points_touch(a, b),
        (true, false) => points_touch(b, a),
        (true, true) => segments_touch(a, &ra, b, &rb),
    }
}

/// Is a vertex of the segment-less `a` at distance 0 from a segment or
/// vertex of `b`?
fn points_touch(a: &impl Features, b: &impl Features) -> bool {
    a.visit_points(&mut |p| {
        b.visit_segments(&mut |q1, q2| stop_if(point_segment_distance(p, q1, q2) == 0.0))?;
        b.visit_points(&mut |q| stop_if(p.distance(&q) == 0.0))
    })
    .is_break()
}

/// Is a segment or bare point of `a` at distance 0 from one of `b`, when
/// both have segments? `ra` and `rb` are their bounding boxes.
fn segments_touch(a: &impl Features, ra: &Rect, b: &impl Features, rb: &Rect) -> bool {
    let slack = box_slack(a, b);
    let hit = a.visit_segments(&mut |p1, p2| {
        let sa = segment_rect(p1, p2);
        if sa.distance(rb) > slack {
            return ControlFlow::Continue(());
        }
        b.visit_segments(&mut |q1, q2| {
            stop_if(
                sa.distance(&segment_rect(q1, q2)) <= slack
                    && segment_segment_distance(p1, p2, q1, q2) == 0.0,
            )
        })
    });
    hit.is_break() || bare_points_touch(a, b, rb, slack) || bare_points_touch(b, a, ra, slack)
}

/// Is a bare point of `a` at distance 0 from a segment of `b`? `rb` is
/// `b`'s bounding box.
fn bare_points_touch(a: &impl Features, b: &impl Features, rb: &Rect, slack: f64) -> bool {
    a.visit_bare_points(&mut |p| {
        if Rect::from_point(p).distance(rb) > slack {
            return ControlFlow::Continue(());
        }
        b.visit_segments(&mut |q1, q2| stop_if(point_segment_distance(p, q1, q2) == 0.0))
    })
    .is_break()
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
