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
