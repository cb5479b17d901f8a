//! Micro-benchmarks of the temporal algebra itself (the ablation DESIGN.md
//! calls out): synchronization-heavy operators (tdwithin, tdistance),
//! restriction (atTime/atGeometry), the spatial kernels behind Query 5
//! (`distance` between trajectory collections, apart and crossing) and
//! Queries 4/7/13/16/17 (`eIntersects` against a point and a region),
//! and the WKB-vs-native `_gs` geometry round trip of §6.3.

use mduck_bench::micro::bench_function;
use mduck_geo::algorithms::{collect, distance};
use mduck_geo::point::Point;
use mduck_geo::{gserialized, wkb, Geometry};
use mduck_temporal::span::TstzSpan;
use mduck_temporal::temporal::TGeomPoint;
use mduck_temporal::TimestampTz;

fn make_trip(n: usize, phase: f64) -> TGeomPoint {
    let pts: Vec<(Point, TimestampTz)> = (0..n)
        .map(|i| {
            let t = i as f64;
            (
                Point::new((t * 0.1 + phase).sin() * 1000.0, (t * 0.07 + phase).cos() * 1000.0),
                TimestampTz(1_700_000_000_000_000 + i as i64 * 60_000_000),
            )
        })
        .collect();
    TGeomPoint::linear_seq(pts, 3405).unwrap()
}

fn main() {
    let a = make_trip(200, 0.0);
    let b = make_trip(200, 0.5);
    bench_function("tdwithin_200x200", || a.tdwithin(&b, 50.0).map(|t| t.num_instants()));
    bench_function("tdistance_200x200", || a.tdistance(&b).map(|t| t.num_instants()));
    let period = TstzSpan::new(
        TimestampTz(1_700_000_000_000_000 + 30 * 60_000_000),
        TimestampTz(1_700_000_000_000_000 + 90 * 60_000_000),
        true,
        true,
    )
    .unwrap();
    bench_function("attime_200", || a.at_period(&period).map(|t| t.temp.num_instants()));
    let square = Geometry::polygon(vec![vec![
        Point::new(-500.0, -500.0),
        Point::new(500.0, -500.0),
        Point::new(500.0, 500.0),
        Point::new(-500.0, 500.0),
        Point::new(-500.0, -500.0),
    ]])
    .unwrap();
    bench_function("atgeometry_200", || a.at_geometry(&square).unwrap().map(|t| t.length()));

    // Query 5's kernel: the minimum distance between two vehicles'
    // collected trajectories, 15 trips of 30 instants (~435 segments) each.
    let trips = |dx: f64, phase: f64| {
        let shifted = (0..15).map(|k| {
            let t = make_trip(30, phase + k as f64 * 0.4);
            t.trajectory().map_points(&|p| Point::new(p.x + dx, p.y))
        });
        collect(shifted.collect())
    };
    let (left, right) = (trips(0.0, 0.0), trips(2500.0, 0.2));
    bench_function("distance_multilinestring", || distance(&left, &right));
    // Query 5's usual case: collections through the same area, whose
    // routes cross, at distance 0.
    let crossing = trips(150.0, 0.2);
    bench_function("distance_multilinestring_crossing", || distance(&left, &crossing));
    // Queries 13 and 16: eIntersects of a 30-instant trip and a region.
    let trip30 = make_trip(30, 0.3);
    let region = Geometry::polygon(vec![vec![
        Point::new(900.0, -200.0),
        Point::new(1300.0, -200.0),
        Point::new(1300.0, 200.0),
        Point::new(900.0, 200.0),
        Point::new(900.0, -200.0),
    ]])
    .unwrap();
    bench_function("eintersects_region", || trip30.eintersects(&region));
    // Queries 4, 7 and 17: eIntersects of a 30-instant trip and a point,
    // one of its positions and one off its path.
    let on = Geometry::from_point(trip30.temp.instants()[17].value);
    let off = Geometry::from_point(Point::new(0.0, 0.0));
    bench_function("eintersects_point", || (trip30.eintersects(&on), trip30.eintersects(&off)));

    // The §6.3 conversion-overhead ablation: WKB round trip vs native.
    let traj = a.trajectory();
    bench_function("geometry_wkb_roundtrip", || {
        wkb::from_wkb(&wkb::to_wkb(&traj)).unwrap().num_points()
    });
    bench_function("geometry_native_roundtrip", || {
        gserialized::from_native(&gserialized::to_native(&traj)).unwrap().num_points()
    });
    let bytes = gserialized::to_native(&traj);
    bench_function("geometry_native_peek_bbox", || gserialized::peek_bbox(&bytes).unwrap().0);
}
