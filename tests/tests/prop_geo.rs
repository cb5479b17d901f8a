//! Property tests over the geometry kernel: WKT/WKB/native encodings
//! round-trip arbitrary geometries; predicates behave consistently.
//! Driven by the in-repo deterministic PRNG.

use mduck_geo::algorithms::{distance, intersects};
use mduck_geo::point::Point;
use mduck_geo::{gserialized, wkb, wkt, Geometry};
use mduck_prng::{RngExt, SeedableRng, StdRng};

const CASES: usize = 256;

fn gen_point(rng: &mut StdRng) -> Point {
    Point::new(rng.random_range(-1e6..1e6f64), rng.random_range(-1e6..1e6f64))
}

fn gen_geometry(rng: &mut StdRng) -> Geometry {
    match rng.random_range(0u32..4) {
        0 => Geometry::from_point(gen_point(rng)),
        1 => {
            let n = rng.random_range(2usize..12);
            let ps: Vec<Point> = (0..n).map(|_| gen_point(rng)).collect();
            Geometry::linestring(ps).unwrap()
        }
        2 => {
            let n = rng.random_range(1usize..8);
            Geometry::multipoint((0..n).map(|_| gen_point(rng)).collect())
        }
        _ => {
            // Axis-aligned rectangles (always valid rings).
            let p = gen_point(rng);
            let w = rng.random_range(1.0..1e4f64);
            let h = rng.random_range(1.0..1e4f64);
            Geometry::polygon(vec![vec![
                p,
                Point::new(p.x + w, p.y),
                Point::new(p.x + w, p.y + h),
                Point::new(p.x, p.y + h),
                p,
            ]])
            .unwrap()
        }
    }
}

#[test]
fn wkb_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x9e0_0001);
    for _ in 0..CASES {
        let srid = rng.random_range(0i32..10_000);
        let g = gen_geometry(&mut rng).with_srid(srid);
        let back = wkb::from_wkb(&wkb::to_wkb(&g)).unwrap();
        assert_eq!(&g, &back);
    }
}

#[test]
fn native_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x9e0_0002);
    for _ in 0..CASES {
        let srid = rng.random_range(0i32..10_000);
        let g = gen_geometry(&mut rng).with_srid(srid);
        let bytes = gserialized::to_native(&g);
        let back = gserialized::from_native(&bytes).unwrap();
        assert_eq!(&g, &back);
        // The cached bbox header agrees with the computed one.
        let (s, rect) = gserialized::peek_bbox(&bytes).unwrap();
        assert_eq!(s, srid);
        assert_eq!(Some(rect), g.bounding_rect());
    }
}

#[test]
fn wkt_roundtrip_preserves_structure() {
    let mut rng = StdRng::seed_from_u64(0x9e0_0003);
    for _ in 0..CASES {
        let g = gen_geometry(&mut rng);
        let text = wkt::to_wkt(&g, None);
        let back = wkt::parse_wkt(&text).unwrap();
        // Re-printing the parse is a fixpoint.
        assert_eq!(wkt::to_wkt(&back, None), text);
        assert_eq!(back.num_points(), g.num_points());
    }
}

#[test]
fn distance_is_symmetric_and_consistent_with_intersects() {
    let mut rng = StdRng::seed_from_u64(0x9e0_0004);
    for _ in 0..CASES {
        let a = gen_geometry(&mut rng);
        let b = gen_geometry(&mut rng);
        let dab = distance(&a, &b);
        let dba = distance(&b, &a);
        assert!((dab - dba).abs() <= 1e-9 * dab.abs().max(1.0), "{dab} vs {dba}");
        assert!(dab >= 0.0);
        if intersects(&a, &b) {
            assert!(dab <= 1e-9);
        } else {
            assert!(dab > 0.0);
        }
    }
}

#[test]
fn distance_to_self_is_zero() {
    let mut rng = StdRng::seed_from_u64(0x9e0_0005);
    for _ in 0..CASES {
        let a = gen_geometry(&mut rng);
        assert!(distance(&a, &a) <= 1e-9);
        assert!(intersects(&a, &a));
    }
}

#[test]
fn transform_roundtrip_mercator() {
    let mut rng = StdRng::seed_from_u64(0x9e0_0006);
    for _ in 0..CASES {
        let p = gen_point(&mut rng);
        // Stay in sane lat/lon bounds.
        let lon = (p.x / 1e6) * 179.0;
        let lat = (p.y / 1e6) * 80.0;
        let g = Geometry::point(lon, lat).with_srid(4326);
        let there = mduck_geo::transform::transform(&g, 3857).unwrap();
        let back = mduck_geo::transform::transform(&there, 4326).unwrap();
        let q = back.as_point().unwrap();
        assert!(q.close_to(&Point::new(lon, lat), 1e-6), "{q}");
    }
}

// ------------------------------------------------ kernel pins: distance

/// The exhaustive O(n·m) `distance` the branch-and-bound replaced, kept
/// as the reference it must match bit for bit: every point and segment of
/// both operands, every vertex against every segment.
fn reference_distance(a: &Geometry, b: &Geometry) -> f64 {
    use mduck_geo::algorithms::{
        geometry_covers_point, point_segment_distance, segment_segment_distance,
    };
    use mduck_geo::geometry::GeomData;
    let mut best = f64::INFINITY;
    let mut a_pts: Vec<Point> = Vec::new();
    a.for_each_point(&mut |p| a_pts.push(p));
    let mut b_pts: Vec<Point> = Vec::new();
    b.for_each_point(&mut |p| b_pts.push(p));
    let mut a_segs: Vec<(Point, Point)> = Vec::new();
    a.for_each_segment(&mut |p, q| a_segs.push((p, q)));
    let mut b_segs: Vec<(Point, Point)> = Vec::new();
    b.for_each_segment(&mut |p, q| b_segs.push((p, q)));
    // Containment: a point of one inside a polygon of the other → 0.
    let covers = |polygons: &Geometry, pts: &[Point]| {
        polygons.flatten().into_iter().any(|g| {
            matches!(g.data, GeomData::Polygon(_))
                && pts.iter().any(|p| geometry_covers_point(g, *p))
        })
    };
    if covers(a, &b_pts) || covers(b, &a_pts) {
        return 0.0;
    }
    if a_segs.is_empty() && b_segs.is_empty() {
        for p in &a_pts {
            for q in &b_pts {
                best = best.min(p.distance(q));
            }
        }
        return if best.is_finite() { best } else { f64::NAN };
    }
    if a_segs.is_empty() {
        for p in &a_pts {
            for (q1, q2) in &b_segs {
                best = best.min(point_segment_distance(*p, *q1, *q2));
            }
            for q in &b_pts {
                best = best.min(p.distance(q));
            }
        }
        return best;
    }
    if b_segs.is_empty() {
        return reference_distance(b, a);
    }
    for (p1, p2) in &a_segs {
        for (q1, q2) in &b_segs {
            best = best.min(segment_segment_distance(*p1, *p2, *q1, *q2));
        }
    }
    for p in &a_pts {
        for (q1, q2) in &b_segs {
            best = best.min(point_segment_distance(*p, *q1, *q2));
        }
    }
    for q in &b_pts {
        for (p1, p2) in &a_segs {
            best = best.min(point_segment_distance(*q, *p1, *p2));
        }
    }
    best
}

/// A coordinate from one of three scales: a small integer grid (touching,
/// collinear and zero-length segments, repeated points), tenths (nearly
/// collinear segments whose orientation tests round), or a wide
/// continuous range.
fn gen_coord(rng: &mut StdRng, scale: u32) -> f64 {
    match scale {
        0 => rng.random_range(-6i64..7) as f64,
        1 => rng.random_range(-60i64..61) as f64 * 0.1,
        _ => rng.random_range(-1e4..1e4f64),
    }
}

/// A polyline of `n` vertices; a third of them repeat the previous vertex
/// or continue the previous step, giving zero-length and collinear
/// segments.
fn gen_path(rng: &mut StdRng, scale: u32, n: usize) -> Vec<Point> {
    let mut ps: Vec<Point> = Vec::with_capacity(n);
    for _ in 0..n {
        let p = match (ps.as_slice(), rng.random_range(0u32..6)) {
            ([.., last], 0) => *last,
            ([.., a, b], 1) => Point::new(b.x + (b.x - a.x), b.y + (b.y - a.y)),
            _ => Point::new(gen_coord(rng, scale), gen_coord(rng, scale)),
        };
        ps.push(p);
    }
    ps
}

fn gen_rect_ring(rng: &mut StdRng, scale: u32) -> Vec<Point> {
    let (x, y) = (gen_coord(rng, scale), gen_coord(rng, scale));
    let (w, h) = (gen_coord(rng, scale).abs() + 1.0, gen_coord(rng, scale).abs() + 1.0);
    vec![
        Point::new(x, y),
        Point::new(x + w, y),
        Point::new(x + w, y + h),
        Point::new(x, y + h),
        Point::new(x, y),
    ]
}

/// Any supported kind, collections nested one level deep.
fn gen_kernel_geometry(rng: &mut StdRng, scale: u32, depth: u32) -> Geometry {
    match rng.random_range(0u32..if depth == 0 { 7 } else { 6 }) {
        0 => Geometry::from_point(Point::new(gen_coord(rng, scale), gen_coord(rng, scale))),
        1 => {
            let n = rng.random_range(1usize..12);
            Geometry::multipoint(gen_path(rng, scale, n))
        }
        2 => {
            let n = rng.random_range(2usize..30);
            Geometry::linestring(gen_path(rng, scale, n)).unwrap()
        }
        3 => {
            let lines = (0..rng.random_range(1usize..6))
                .map(|_| {
                    let n = rng.random_range(2usize..40);
                    gen_path(rng, scale, n)
                })
                .collect();
            Geometry::multilinestring(lines)
        }
        4 => Geometry::polygon(vec![gen_rect_ring(rng, scale)]).unwrap(),
        5 => {
            // A polygon with a hole: a ring inside the shell, reversed.
            let shell = gen_rect_ring(rng, scale);
            let (lo, hi) = (shell[0], shell[2]);
            let mid = |t: f64| Point::new(lo.x + (hi.x - lo.x) * t, lo.y + (hi.y - lo.y) * t);
            let (a, b) = (mid(0.25), mid(0.75));
            let hole = vec![a, Point::new(a.x, b.y), b, Point::new(b.x, a.y), a];
            Geometry::polygon(vec![shell, hole]).unwrap()
        }
        _ => Geometry::collection(
            (0..rng.random_range(0usize..4))
                .map(|_| gen_kernel_geometry(rng, scale, depth + 1))
                .collect(),
        ),
    }
}

/// A run of long traces, the shape of Query 5's trajectory collections:
/// enough segments that the branch-and-bound prunes.
fn gen_traces(rng: &mut StdRng, scale: u32) -> Geometry {
    let lines = (0..rng.random_range(1usize..8))
        .map(|_| {
            let mut p = Point::new(gen_coord(rng, scale), gen_coord(rng, scale));
            (0..rng.random_range(2usize..60))
                .map(|_| {
                    p = Point::new(p.x + gen_coord(rng, 0) * 0.5, p.y + gen_coord(rng, 0) * 0.5);
                    p
                })
                .collect()
        })
        .collect();
    Geometry::multilinestring(lines)
}

/// Segments on the lines through `g`'s segments, apart from them: their
/// orientation tests are rounding noise.
fn gen_collinear_partner(rng: &mut StdRng, g: &Geometry) -> Geometry {
    let mut lines = Vec::new();
    g.for_each_segment(&mut |p, q| {
        if lines.len() < 8 {
            let at = |k: f64| Point::new(p.x + (q.x - p.x) * k, p.y + (q.y - p.y) * k);
            let k = rng.random_range(-30i64..31) as f64 * 0.1;
            lines.push(vec![at(k), at(k + rng.random_range(1i64..10) as f64 * 0.1)]);
        }
    });
    Geometry::multilinestring(lines)
}

fn gen_kernel_pair(rng: &mut StdRng) -> (Geometry, Geometry) {
    let scale = rng.random_range(0u32..3);
    let side = |rng: &mut StdRng| {
        if rng.random_range(0u32..3) == 0 {
            gen_traces(rng, scale)
        } else {
            gen_kernel_geometry(rng, scale, 0)
        }
    };
    let a = side(rng);
    let b = if rng.random_range(0u32..4) == 0 { gen_collinear_partner(rng, &a) } else { side(rng) };
    (a, b)
}

#[test]
fn distance_matches_the_exhaustive_reference_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x9e0_0007);
    for _ in 0..CASES * 8 {
        let (a, b) = gen_kernel_pair(&mut rng);
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
            let want = reference_distance(x, y);
            let got = distance(x, y);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "distance {got} vs reference {want}\n{}\n{}",
                wkt::to_wkt(x, None),
                wkt::to_wkt(y, None)
            );
        }
    }
}

#[test]
fn intersects_is_reference_distance_zero() {
    let mut rng = StdRng::seed_from_u64(0x9e0_0008);
    for _ in 0..CASES * 8 {
        let (a, b) = gen_kernel_pair(&mut rng);
        for (x, y) in [(&a, &b), (&b, &a)] {
            assert_eq!(
                intersects(x, y),
                reference_distance(x, y) == 0.0,
                "\n{}\n{}",
                wkt::to_wkt(x, None),
                wkt::to_wkt(y, None)
            );
        }
    }
}

// ------------------------------------------------ kernel pins: eIntersects

mod before {
    //! A test-only copy of `features_intersect`, the feature kernel
    //! `ST_Intersects` and `eIntersects` (over the built trajectory) ran
    //! before the kernel moved onto the prepared `Target`.

    use std::ops::ControlFlow;

    use mduck_geo::algorithms::{point_in_rings, point_segment_distance, segment_segment_distance, Features};
    use mduck_geo::point::{Point, Rect};

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

    fn features_rect(a: &impl Features) -> Option<Rect> {
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

    fn polygon_covers_vertex(a: &impl Features, b: &impl Features) -> bool {
        a.visit_polygons(&mut |rings| b.visit_points(&mut |p| stop_if(point_in_rings(p, rings))))
            .is_break()
    }

    fn box_slack(a: &impl Features, b: &impl Features) -> f64 {
        let mut extent = 0.0f64;
        let mut visit = |p: Point| {
            let (x, y) = (p.x.abs(), p.y.abs());
            if !(x <= 1e150 && y <= 1e150) {
                return ControlFlow::Break(());
            }
            extent = extent.max(x).max(y);
            ControlFlow::Continue(())
        };
        if a.visit_points(&mut visit).is_break() || b.visit_points(&mut visit).is_break() {
            return f64::INFINITY;
        }
        (extent * 1e-10).max(1e-150)
    }

    fn segment_rect(p: Point, q: Point) -> Rect {
        Rect::new(p.x, p.y, q.x, q.y)
    }

    pub fn features_intersect<A: Features, B: Features>(a: &A, b: &B) -> bool {
        let (Some(ra), Some(rb)) = (features_rect(a), features_rect(b)) else {
            return false;
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

    fn points_touch(a: &impl Features, b: &impl Features) -> bool {
        a.visit_points(&mut |p| {
            b.visit_segments(&mut |q1, q2| stop_if(point_segment_distance(p, q1, q2) == 0.0))?;
            b.visit_points(&mut |q| stop_if(p.distance(&q) == 0.0))
        })
        .is_break()
    }

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

    fn bare_points_touch(a: &impl Features, b: &impl Features, rb: &Rect, slack: f64) -> bool {
        a.visit_bare_points(&mut |p| {
            if Rect::from_point(p).distance(rb) > slack {
                return ControlFlow::Continue(());
            }
            b.visit_segments(&mut |q1, q2| stop_if(point_segment_distance(p, q1, q2) == 0.0))
        })
        .is_break()
    }
}

/// A moving point along a generated path: linear (sometimes stepwise or
/// discrete), split into a sequence set at random vertices, one second per
/// vertex.
fn gen_moving_path(rng: &mut StdRng, scale: u32) -> mduck_temporal::temporal::TGeomPoint {
    use mduck_temporal::temporal::{Interp, TGeomPoint, TInstant, TSequence, Temporal};
    use mduck_temporal::TimestampTz;
    let n = rng.random_range(1usize..30);
    let path = gen_path(rng, scale, n);
    let interp = [Interp::Linear, Interp::Linear, Interp::Step, Interp::Discrete]
        [rng.random_range(0usize..4)];
    let instants: Vec<TInstant<Point>> = path
        .into_iter()
        .enumerate()
        .map(|(i, p)| TInstant::new(p, TimestampTz(1_700_000_000_000_000 + i as i64 * 1_000_000)))
        .collect();
    if interp == Interp::Discrete || instants.len() < 4 || rng.random_bool(0.5) {
        let seq = TSequence::new(instants, true, true, interp).unwrap();
        return TGeomPoint::new(Temporal::from_sequences(vec![seq]).unwrap(), 0);
    }
    let cut = rng.random_range(1..instants.len() - 1);
    let (a, b) = instants.split_at(cut);
    let seqs = vec![
        TSequence::new(a.to_vec(), true, false, interp).unwrap(),
        TSequence::new(b.to_vec(), true, true, interp).unwrap(),
    ];
    TGeomPoint::new(Temporal::from_sequences(seqs).unwrap(), 0)
}

/// Geometries WKB can carry but the constructors refuse: a ring left
/// open, a one-vertex ring or line, and an empty collection.
fn gen_raw_geometry(rng: &mut StdRng, scale: u32) -> Geometry {
    use mduck_geo::geometry::GeomData;
    let mut ring = gen_rect_ring(rng, scale);
    let data = match rng.random_range(0u32..4) {
        0 => {
            ring.pop();
            GeomData::Polygon(vec![ring])
        }
        1 => GeomData::Polygon(vec![ring, vec![Point::new(gen_coord(rng, scale), gen_coord(rng, scale))]]),
        2 => GeomData::LineString(vec![Point::new(gen_coord(rng, scale), gen_coord(rng, scale))]),
        _ => GeomData::GeometryCollection(vec![]),
    };
    wkb::from_wkb(&wkb::to_wkb(&Geometry { srid: 0, data })).unwrap()
}

/// `ST_Intersects` against the copy of the feature kernel, in both
/// argument orders: preparing one operand and pruning against its box
/// changes no answer, also for geometries only WKB can carry.
#[test]
fn intersects_matches_the_feature_kernel() {
    let mut rng = StdRng::seed_from_u64(0x9e0_000a);
    let mut met = 0;
    for _ in 0..CASES * 8 {
        let (a, mut b) = gen_kernel_pair(&mut rng);
        if rng.random_range(0u32..5) == 0 {
            let scale = rng.random_range(0u32..3);
            b = gen_raw_geometry(&mut rng, scale);
        }
        for (x, y) in [(&a, &b), (&b, &a)] {
            let want = before::features_intersect(x, y);
            let ctx = || format!("{}\n{}", wkt::to_wkt(x, None), wkt::to_wkt(y, None));
            assert_eq!(intersects(x, y), want, "\n{}", ctx());
            met += usize::from(want);
        }
    }
    assert!(met > CASES * 2, "{met} met");
}

/// `eIntersects`, with and without a period, against the copy of the
/// feature kernel over the built trajectory: every geometry kind, on the
/// grid (exact incidences), on tenths (rounding) and continuous.
#[test]
fn eintersects_matches_the_feature_kernel_over_the_trajectory() {
    use mduck_temporal::TstzSpan;
    let mut rng = StdRng::seed_from_u64(0x9e0_0009);
    let mut met = 0;
    for _ in 0..CASES * 16 {
        let scale = rng.random_range(0u32..3);
        let t = gen_moving_path(&mut rng, scale);
        let g = match rng.random_range(0u32..8) {
            0 => gen_raw_geometry(&mut rng, scale),
            1 => gen_traces(&mut rng, scale),
            2 => gen_collinear_partner(&mut rng, &t.trajectory()),
            _ => gen_kernel_geometry(&mut rng, scale, 0),
        };
        let ctx = || format!("{} vs {}", t.as_text(), wkt::to_wkt(&g, None));
        let want = before::features_intersect(&t.trajectory(), &g);
        assert_eq!(t.eintersects(&g), want, "{}", ctx());
        met += usize::from(want);
        let span = t.timespan();
        let (a, b) = (rng.random_range(span.lower.0..=span.upper.0), rng.random_range(span.lower.0..=span.upper.0));
        let (lo, hi) = (mduck_temporal::TimestampTz(a.min(b)), mduck_temporal::TimestampTz(a.max(b)));
        let p = TstzSpan::new(lo, hi, true, rng.random_bool(0.5) || lo == hi).unwrap();
        let windowed = t.during(&p).map(|w| w.eintersects(&g));
        let restricted = t.at_period(&p).map(|r| before::features_intersect(&r.trajectory(), &g));
        assert_eq!(windowed, restricted, "{} at {p}", ctx());
    }
    assert!(met > CASES * 2, "{met} met");
}
