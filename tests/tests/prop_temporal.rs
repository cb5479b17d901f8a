//! Property-based tests over the temporal algebra's core invariants,
//! driven by the in-repo deterministic PRNG (seeded, reproducible runs).

use mduck_prng::{RngExt, SeedableRng, StdRng};

use mduck_temporal::span::{parse_span, FloatSpan, Span};
use mduck_temporal::spanset::SpanSet;
use mduck_temporal::temporal::{Interp, TGeomPoint, TInstant, TSequence, TValue, Temporal};
use mduck_temporal::{TimestampTz, TstzSpan};

const CASES: usize = 256;

fn gen_float_span(rng: &mut StdRng) -> FloatSpan {
    let li = rng.random_bool(0.5);
    let ui = rng.random_bool(0.5);
    let lo = rng.random_range(-1000.0..1000.0f64);
    let width = rng.random_range(0.001..500.0f64);
    Span::new(lo, lo + width, li, ui).expect("positive width")
}

#[test]
fn span_display_parse_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0001);
    for _ in 0..CASES {
        let s = gen_float_span(&mut rng);
        let printed = s.to_string();
        let back: FloatSpan = parse_span(&printed).unwrap();
        assert_eq!(s, back);
    }
}

#[test]
fn span_intersection_is_commutative_and_contained() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0002);
    for _ in 0..CASES {
        let a = gen_float_span(&mut rng);
        let b = gen_float_span(&mut rng);
        let ab = a.intersection(&b);
        let ba = b.intersection(&a);
        assert_eq!(&ab, &ba);
        if let Some(ix) = ab {
            assert!(a.contains_span(&ix));
            assert!(b.contains_span(&ix));
            assert!(a.overlaps(&b));
        } else {
            assert!(!a.overlaps(&b));
        }
    }
}

#[test]
fn span_minus_never_overlaps_the_subtrahend() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0003);
    for _ in 0..CASES {
        let a = gen_float_span(&mut rng);
        let b = gen_float_span(&mut rng);
        for piece in a.minus(&b) {
            assert!(!piece.overlaps(&b), "{piece} overlaps {b}");
            assert!(a.contains_span(&piece));
        }
    }
}

#[test]
fn spanset_normalization_is_canonical() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0004);
    for _ in 0..CASES {
        let n = rng.random_range(1usize..8);
        let spans: Vec<FloatSpan> = (0..n).map(|_| gen_float_span(&mut rng)).collect();
        let ss = SpanSet::new(spans.clone()).unwrap();
        // Members are ordered and pairwise non-touching.
        for w in ss.spans().windows(2) {
            assert!(w[0].left_of(&w[1]));
            assert!(!w[0].overlaps(&w[1]));
            assert!(!w[0].adjacent(&w[1]));
        }
        // Rebuilding from the normalized members is the identity.
        let again = SpanSet::new(ss.spans().to_vec()).unwrap();
        assert_eq!(&ss, &again);
        // Every input value point stays covered.
        for s in &spans {
            assert!(ss.contains_value(s.lower) || !s.lower_inc);
        }
    }
}

#[test]
fn spanset_union_minus_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0005);
    for _ in 0..CASES {
        let na = rng.random_range(1usize..5);
        let nb = rng.random_range(1usize..5);
        let a: Vec<FloatSpan> = (0..na).map(|_| gen_float_span(&mut rng)).collect();
        let b: Vec<FloatSpan> = (0..nb).map(|_| gen_float_span(&mut rng)).collect();
        let sa = SpanSet::new(a).unwrap();
        let sb = SpanSet::new(b).unwrap();
        let union = sa.union(&sb);
        // (a ∪ b) − b ⊆ a and never overlaps b.
        if let Some(diff) = union.minus(&sb) {
            assert!(!diff.overlaps(&sb));
            for s in diff.spans() {
                assert!(sa.overlaps_span(s));
            }
        }
    }
}

fn gen_tfloat_seq(rng: &mut StdRng) -> Temporal<f64> {
    let n = rng.random_range(2usize..12);
    let mut ts: Vec<(f64, i64)> = (0..n)
        .map(|_| (rng.random_range(-100.0..100.0f64), rng.random_range(1i64..100_000)))
        .collect();
    ts.sort_by_key(|(_, t)| *t);
    ts.dedup_by_key(|(_, t)| *t);
    let li = rng.random_bool(0.5);
    let ui = rng.random_bool(0.5);
    let base = 1_700_000_000_000_000i64;
    let instants: Vec<TInstant<f64>> = ts
        .into_iter()
        .map(|(v, dt)| TInstant::new(v, TimestampTz(base + dt * 1_000_000)))
        .collect();
    if instants.len() == 1 {
        Temporal::Instant(instants.into_iter().next().unwrap())
    } else {
        Temporal::Sequence(TSequence::new(instants, li, ui, Interp::Linear).unwrap())
    }
}

#[test]
fn temporal_display_parse_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0006);
    for _ in 0..CASES {
        let t = gen_tfloat_seq(&mut rng);
        let printed = t.to_string();
        let back = mduck_temporal::temporal::parse_tfloat(&printed).unwrap();
        assert_eq!(back.to_string(), printed);
    }
}

#[test]
fn at_period_result_is_within_period() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0007);
    for _ in 0..CASES {
        let t = gen_tfloat_seq(&mut rng);
        let lo = rng.random_range(0i64..100_000);
        let w = rng.random_range(1i64..50_000);
        let base = 1_700_000_000_000_000i64;
        let p = mduck_temporal::TstzSpan::new(
            TimestampTz(base + lo * 1_000_000),
            TimestampTz(base + (lo + w) * 1_000_000),
            true,
            true,
        )
        .unwrap();
        if let Some(r) = t.at_period(&p) {
            assert!(p.contains_span(&r.timespan()), "{} ⊄ {}", r.timespan(), p);
            // Values agree with the original at shared instants.
            let mid = r.start_timestamp();
            let a = r.value_at(mid);
            let b = t.value_at(mid);
            if let (Some(x), Some(y)) = (a, b) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn minus_then_at_covers_everything() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0008);
    for _ in 0..CASES {
        let t = gen_tfloat_seq(&mut rng);
        let lo = rng.random_range(0i64..100_000);
        let w = rng.random_range(1i64..50_000);
        let base = 1_700_000_000_000_000i64;
        let p = mduck_temporal::TstzSpan::new(
            TimestampTz(base + lo * 1_000_000),
            TimestampTz(base + (lo + w) * 1_000_000),
            true,
            true,
        )
        .unwrap();
        let inside = t.at_period(&p).map(|x| x.duration(false).approx_usecs()).unwrap_or(0);
        let outside = t.minus_period(&p).map(|x| x.duration(false).approx_usecs()).unwrap_or(0);
        let total = t.duration(false).approx_usecs();
        assert!((inside + outside - total).abs() <= 2, "{inside} + {outside} != {total}");
    }
}

fn gen_trip(rng: &mut StdRng, start_range: std::ops::Range<i64>) -> TGeomPoint {
    let n = rng.random_range(2usize..10);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random_range(-500.0..500.0f64), rng.random_range(-500.0..500.0f64)))
        .collect();
    let start = rng.random_range(start_range);
    let base = 1_700_000_000_000_000i64 + start * 1_000_000;
    let instants: Vec<(mduck_geo::Point, TimestampTz)> = pts
        .into_iter()
        .enumerate()
        .map(|(i, (x, y))| (mduck_geo::Point::new(x, y), TimestampTz(base + i as i64 * 60_000_000)))
        .collect();
    TGeomPoint::linear_seq(instants, 0).unwrap()
}

#[test]
fn tdwithin_agrees_with_sampled_distances() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0009);
    for _ in 0..64 {
        let a = gen_trip(&mut rng, 0..50);
        let b = gen_trip(&mut rng, 0..50);
        let d = rng.random_range(1.0..400.0f64);
        // Wherever tdwithin says true/false, the sampled distance agrees.
        if let Some(w) = a.tdwithin(&b, d) {
            for inst in w.instants() {
                let pa = a.temp.value_at(inst.t);
                let pb = b.temp.value_at(inst.t);
                if let (Some(pa), Some(pb)) = (pa, pb) {
                    let dist = pa.distance(&pb);
                    if inst.value {
                        assert!(dist <= d + 1e-3, "claimed within but {dist} > {d}");
                    }
                }
            }
            // eDwithin consistency.
            assert_eq!(w.ever_true(), a.edwithin(&b, d));
        }
    }
}

#[test]
fn trajectory_length_matches_instant_polyline() {
    let mut rng = StdRng::seed_from_u64(0x5ea_000a);
    for _ in 0..64 {
        let a = gen_trip(&mut rng, 0..10);
        let len = a.length();
        let traj_len = a.trajectory().length();
        assert!((len - traj_len).abs() < 1e-6);
        // The bounding box contains every instant.
        let b = a.stbox();
        let rect = b.rect.unwrap();
        for i in a.temp.instants() {
            assert!(rect.contains_point(&i.value));
        }
    }
}

// ------------------------------------------------ kernel pins: atTime

/// A step, linear or discrete `tfloat` sequence on a one-second grid, so
/// that period bounds often fall on instants.
fn gen_grid_seq(rng: &mut StdRng, interp: Interp, from: i64) -> TSequence<f64> {
    let base = 1_700_000_000_000_000i64;
    let mut t = from;
    let instants: Vec<TInstant<f64>> = (0..rng.random_range(1usize..10))
        .map(|_| {
            t += rng.random_range(1i64..5);
            let v = rng.random_range(-50i64..50) as f64 * 0.3;
            TInstant::new(v, TimestampTz(base + t * 1_000_000))
        })
        .collect();
    TSequence::new(instants, rng.random_bool(0.5), rng.random_bool(0.5), interp).unwrap()
}

/// Any subtype: an instant, one sequence of any interpolation, or a
/// sequence set of step or linear sequences with gaps between them.
fn gen_grid_temporal(rng: &mut StdRng) -> Temporal<f64> {
    let interp = [Interp::Discrete, Interp::Step, Interp::Linear][rng.random_range(0usize..3)];
    match rng.random_range(0u32..4) {
        0 => Temporal::Instant(*gen_grid_seq(rng, Interp::Discrete, 0).start()),
        1 | 2 => Temporal::Sequence(gen_grid_seq(rng, interp, 0)),
        _ => {
            let interp = if interp == Interp::Discrete { Interp::Linear } else { interp };
            let mut from = 0;
            let seqs = (0..rng.random_range(1usize..4))
                .map(|_| {
                    let s = gen_grid_seq(rng, interp, from);
                    from = (s.end().t.0 - 1_700_000_000_000_000) / 1_000_000 + 1;
                    s
                })
                .collect();
            Temporal::from_sequences(seqs).unwrap()
        }
    }
}

/// The value of `s` at `t` by a linear scan, interpolated as
/// `TSequence::at_period` does.
fn scan_value(s: &TSequence<f64>, t: TimestampTz) -> f64 {
    let instants = s.instants();
    if let Some(i) = instants.iter().find(|i| i.t == t) {
        return i.value;
    }
    let k = instants.iter().position(|i| i.t > t).unwrap();
    let (a, b) = (&instants[k - 1], &instants[k]);
    match s.interp {
        Interp::Linear => {
            let frac = (t.0 - a.t.0) as f64 / (b.t.0 - a.t.0) as f64;
            <f64 as TValue>::lerp(&a.value, &b.value, frac)
        }
        _ => a.value,
    }
}

/// `at_period` by a linear scan over every instant: the reference the
/// binary-searched restriction must match exactly.
fn scan_at_period(s: &TSequence<f64>, p: &TstzSpan) -> Option<TSequence<f64>> {
    if s.interp == Interp::Discrete {
        let kept: Vec<TInstant<f64>> =
            s.instants().iter().filter(|i| p.contains_value(i.t)).cloned().collect();
        return (!kept.is_empty()).then(|| TSequence::discrete(kept).unwrap());
    }
    let ix = s.period().intersection(p)?;
    let mut kept = vec![TInstant::new(scan_value(s, ix.lower), ix.lower)];
    kept.extend(s.instants().iter().filter(|i| i.t > ix.lower && i.t < ix.upper).cloned());
    if ix.upper > ix.lower {
        kept.push(TInstant::new(scan_value(s, ix.upper), ix.upper));
    }
    Some(TSequence::new(kept, ix.lower_inc, ix.upper_inc, s.interp).unwrap())
}

#[test]
fn at_period_matches_a_linear_scan() {
    let mut rng = StdRng::seed_from_u64(0x5ea_000b);
    let base = 1_700_000_000_000_000i64;
    for _ in 0..CASES * 4 {
        let t = gen_grid_temporal(&mut rng);
        let lo = rng.random_range(-2i64..30);
        let hi = lo + rng.random_range(0i64..12);
        let (li, ui) = if lo == hi {
            (true, true)
        } else {
            (rng.random_bool(0.5), rng.random_bool(0.5))
        };
        let at = |s: i64| TimestampTz(base + s * 1_000_000);
        let p = TstzSpan::new(at(lo), at(hi), li, ui).unwrap();
        let want = Temporal::from_sequences(
            t.as_sequences().iter().filter_map(|s| scan_at_period(s, &p)).collect(),
        )
        .ok();
        assert_eq!(t.at_period(&p), want, "{t} at {p}");
    }
}

// ------------------------------------------------ kernel pins: eIntersects

/// A coordinate on a small grid, so positions repeat and segments touch,
/// or a continuous one.
fn gen_xy(rng: &mut StdRng, grid: bool) -> mduck_geo::Point {
    let c = |rng: &mut StdRng| {
        if grid {
            rng.random_range(-5i64..6) as f64
        } else {
            rng.random_range(-5.0..5.0f64)
        }
    };
    mduck_geo::Point::new(c(rng), c(rng))
}

/// A moving point of any subtype and interpolation. A third of the
/// instants repeat the previous position: stationary stretches.
fn gen_moving(rng: &mut StdRng, grid: bool) -> TGeomPoint {
    let base = 1_700_000_000_000_000i64;
    let mut t = 0i64;
    let mut seq = |rng: &mut StdRng, interp: Interp| {
        let mut prev = gen_xy(rng, grid);
        let instants: Vec<TInstant<mduck_geo::Point>> = (0..rng.random_range(1usize..10))
            .map(|_| {
                t += rng.random_range(1i64..4);
                if rng.random_range(0u32..3) != 0 {
                    prev = gen_xy(rng, grid);
                }
                TInstant::new(prev, TimestampTz(base + t * 1_000_000))
            })
            .collect();
        t += 1;
        TSequence::new(instants, true, true, interp).unwrap()
    };
    let interp = [Interp::Discrete, Interp::Step, Interp::Linear, Interp::Linear]
        [rng.random_range(0usize..4)];
    let temp = match rng.random_range(0u32..3) {
        0 => Temporal::from_sequences(vec![seq(rng, interp)]).unwrap(),
        _ => {
            let interp = if interp == Interp::Discrete { Interp::Linear } else { interp };
            let seqs = (0..rng.random_range(1usize..4)).map(|_| seq(rng, interp)).collect();
            Temporal::from_sequences(seqs).unwrap()
        }
    };
    TGeomPoint::new(temp, 0)
}

/// A static geometry of any kind, sometimes through a position of `near`
/// so that exact incidences occur, or across the middle of one of its
/// moves, where no position lies.
fn gen_static(rng: &mut StdRng, grid: bool, near: &TGeomPoint) -> mduck_geo::Geometry {
    use mduck_geo::Geometry;
    let instants = near.temp.instants();
    let k = rng.random_range(0..instants.len());
    let moves = k + 1 < instants.len() && instants[k].value != instants[k + 1].value;
    if moves && rng.random_bool(0.3) {
        let (p, q) = (instants[k].value, instants[k + 1].value);
        let m = mduck_geo::Point::new((p.x + q.x) * 0.5, (p.y + q.y) * 0.5);
        let (dx, dy) = (q.x - p.x, q.y - p.y);
        let at = |s: f64| mduck_geo::Point::new(m.x - dy * s, m.y + dx * s);
        return if rng.random_bool(0.5) {
            // A short segment across the move's midpoint.
            Geometry::linestring(vec![at(-0.25), at(0.25)]).unwrap()
        } else {
            // A small square around it.
            let r = 0.1;
            let corner = |sx: f64, sy: f64| mduck_geo::Point::new(m.x + sx * r, m.y + sy * r);
            let ring =
                vec![corner(-1.0, -1.0), corner(1.0, -1.0), corner(1.0, 1.0), corner(-1.0, 1.0)];
            Geometry::polygon(vec![ring]).unwrap()
        };
    }
    let at = |rng: &mut StdRng| {
        if rng.random_bool(0.4) {
            instants[rng.random_range(0..instants.len())].value
        } else {
            gen_xy(rng, grid)
        }
    };
    match rng.random_range(0u32..6) {
        0 => Geometry::from_point(at(rng)),
        1 => Geometry::multipoint((0..rng.random_range(1usize..4)).map(|_| at(rng)).collect()),
        2 => {
            let n = rng.random_range(2usize..5);
            Geometry::linestring((0..n).map(|_| at(rng)).collect()).unwrap()
        }
        3 | 4 => {
            let (c, r) = (at(rng), rng.random_range(1i64..4) as f64);
            let square = |r: f64| {
                vec![
                    mduck_geo::Point::new(c.x - r, c.y - r),
                    mduck_geo::Point::new(c.x + r, c.y - r),
                    mduck_geo::Point::new(c.x + r, c.y + r),
                    mduck_geo::Point::new(c.x - r, c.y + r),
                    mduck_geo::Point::new(c.x - r, c.y - r),
                ]
            };
            let rings = if rng.random_bool(0.5) {
                vec![square(r), square(r * 0.5)]
            } else {
                vec![square(r)]
            };
            Geometry::polygon(rings).unwrap()
        }
        _ => {
            let (p, q) = (at(rng), at(rng));
            Geometry::collection(vec![Geometry::from_point(p), Geometry::from_point(q)])
        }
    }
}

#[test]
fn eintersects_and_edwithin_match_the_built_trajectory() {
    use mduck_geo::algorithms::{distance, intersects};
    let mut rng = StdRng::seed_from_u64(0x5ea_000c);
    for _ in 0..CASES * 4 {
        let grid = rng.random_bool(0.6);
        let t = gen_moving(&mut rng, grid);
        let g = gen_static(&mut rng, grid, &t);
        let traj = t.trajectory();
        let ctx = || format!("{} vs {}", t.as_text(), mduck_geo::wkt::to_wkt(&g, None));
        assert_eq!(t.eintersects(&g), intersects(&traj, &g), "{}", ctx());
        // eDwithin at exactly the trajectory's distance holds, and one ulp
        // below it does not: the distances agree bit for bit.
        let d = distance(&traj, &g);
        assert!(t.edwithin_geo(&g, d), "{}", ctx());
        if d > 0.0 {
            assert!(!t.edwithin_geo(&g, d.next_down()), "{}", ctx());
        }
    }
}

/// The box of `t` by a walk over its instants: the extent of every
/// position, the SRID and the bounding period.
fn walked_stbox(t: &TGeomPoint) -> mduck_temporal::STBox {
    let (mut xmin, mut ymin) = (f64::INFINITY, f64::INFINITY);
    let (mut xmax, mut ymax) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for i in t.temp.instants() {
        (xmin, xmax) = (xmin.min(i.value.x), xmax.max(i.value.x));
        (ymin, ymax) = (ymin.min(i.value.y), ymax.max(i.value.y));
    }
    mduck_temporal::STBox {
        srid: t.srid(),
        rect: Some(mduck_geo::point::Rect::new(xmin, ymin, xmax, ymax)),
        period: Some(t.temp.timespan()),
    }
}

/// A `tgeompoint` computes its extent once, when it is built: every way
/// of building one caches the extent a walk over its instants finds, and
/// `stbox()` renders that walk's box byte for byte.
#[test]
fn cached_box_matches_a_walk_over_the_instants() {
    use mduck_temporal::binser::{tgeompoint_from_bytes, tgeompoint_to_bytes};
    use mduck_temporal::temporal::parse_tgeompoint;
    use mduck_temporal::time::Interval;

    let mut rng = StdRng::seed_from_u64(0x5ea_000c);
    let mut checked = 0;
    for _ in 0..CASES {
        let grid = rng.random_bool(0.5);
        let srid = [0, 3405, 4326][rng.random_range(0usize..3)];
        let moving = gen_moving(&mut rng, grid);
        // Parse and decode keep the SRID; the others inherit it.
        let t = parse_tgeompoint(&format!("SRID={srid};{}", *moving.temp)).unwrap();
        let mut built = vec![
            ("parse", t.clone()),
            ("binser", tgeompoint_from_bytes(&tgeompoint_to_bytes(&t)).unwrap()),
        ];
        let trip = gen_trip(&mut rng, 0..50);
        let points = trip.temp.instants().into_iter().map(|i| (i.value, i.t)).collect();
        built.push(("linear_seq", TGeomPoint::linear_seq(points, srid).unwrap()));
        let first = t.temp.instants().into_iter().next().unwrap();
        built.push(("instant", TGeomPoint::instant(first.value, first.t, srid)));
        let span = t.temp.timespan();
        let (lo, hi) = (span.lower.0, span.upper.0);
        let cut = |rng: &mut StdRng| TimestampTz(rng.random_range(lo..=hi));
        let (a, b) = (cut(&mut rng), cut(&mut rng));
        let period = TstzSpan::new(a.min(b), a.max(b), true, rng.random_bool(0.5) || a == b);
        if let Ok(p) = &period {
            built.extend(t.at_period(p).map(|r| ("at_period", r)));
            let (c, d) = (cut(&mut rng), cut(&mut rng));
            if let Ok(q) = TstzSpan::new(c.min(d), c.max(d), true, true) {
                let set = SpanSet::new(vec![*p, q]).unwrap();
                built.extend(t.at_periodset(&set).map(|r| ("at_periodset", r)));
            }
        }
        let g = gen_static(&mut rng, grid, &t);
        if let Ok(r) = t.at_geometry(&g) {
            built.extend(r.map(|r| ("at_geometry", r)));
        }
        let at = t.temp.instants().into_iter().nth(rng.random_range(0..t.temp.num_instants())).unwrap();
        built.extend(t.at_value(at.value).map(|r| ("at_value", r)));
        let delta = Interval { months: 0, days: rng.random_range(-3..4), usecs: 1_500_000 };
        built.push(("shift_time", t.shift_time(&delta)));
        for (how, v) in built {
            let walked = walked_stbox(&v);
            assert_eq!(Some(v.temp.extent()), walked.rect, "{how}: {}", v.as_ewkt());
            assert_eq!(v.stbox().to_string(), walked.to_string(), "{how}: {}", v.as_ewkt());
            assert_eq!(v.srid(), srid, "{how}");
            checked += 1;
        }
    }
    assert!(checked > CASES * 8, "{checked} values");
}

// ------------------------------------------------ kernel pins: fused kernels
//
// Each fused kernel is pinned bit for bit against a copy of the
// composition it replaces, as that composition read before the kernels
// were fused: `atTime` then `eIntersects` or `length`, `tDwithin` then
// `whenTrue`, and `atValues` then `startTimestamp`. The in-place merge
// walk beneath `synchronize` is pinned against the pairwise
// synchronization it replaced.

mod before {
    //! Test-only copies of the compositions the fused kernels replace.

    use mduck_geo::Point;
    use mduck_temporal::span::TstzSpan;
    use mduck_temporal::spanset::TstzSpanSet;
    use mduck_temporal::temporal::{
        Interp, SolveCrossing, SyncedSeq, TBool, TGeomPoint, TInstant, TSequence, TValue,
        Temporal,
    };
    use mduck_temporal::TimestampTz;

    /// `synchronize(a, b)`: every pair of sequences synchronized on its
    /// own, ordered by start.
    pub fn synchronize<A: TValue, B: TValue>(
        a: &Temporal<A>,
        b: &Temporal<B>,
    ) -> Vec<SyncedSeq<A, B>> {
        let mut out = Vec::new();
        let bs = b.as_sequences();
        for sa in a.as_sequences().iter() {
            for sb in bs.iter() {
                sync_pair(sa, sb, &mut out);
            }
        }
        out.sort_by_key(|s| s.samples[0].0);
        out
    }

    fn sync_pair<A: TValue, B: TValue>(
        sa: &TSequence<A>,
        sb: &TSequence<B>,
        out: &mut Vec<SyncedSeq<A, B>>,
    ) {
        let single = |t, va, vb| SyncedSeq {
            lower_inc: true,
            upper_inc: true,
            interp_a: Interp::Discrete,
            interp_b: Interp::Discrete,
            samples: vec![(t, va, vb)],
        };
        if sa.interp == Interp::Discrete {
            for ia in sa.instants() {
                if let Some(vb) = sb.value_at(ia.t) {
                    out.push(single(ia.t, ia.value.clone(), vb));
                }
            }
            return;
        }
        if sb.interp == Interp::Discrete {
            for ib in sb.instants() {
                if let Some(va) = sa.value_at(ib.t) {
                    out.push(single(ib.t, va, ib.value.clone()));
                }
            }
            return;
        }
        let Some(ix) = sa.period().intersection(&sb.period()) else {
            return;
        };
        let mut times: Vec<TimestampTz> = vec![ix.lower];
        let inner = |t: &TimestampTz| *t > ix.lower && *t < ix.upper;
        times.extend(sa.instants().iter().map(|i| i.t).filter(inner));
        times.extend(sb.instants().iter().map(|i| i.t).filter(inner));
        if ix.upper > ix.lower {
            times.push(ix.upper);
        }
        times.sort();
        times.dedup();
        let samples = times
            .into_iter()
            .map(|t| (t, interpolate_raw(sa, t), interpolate_raw(sb, t)))
            .collect();
        out.push(SyncedSeq {
            lower_inc: ix.lower_inc,
            upper_inc: ix.upper_inc,
            interp_a: sa.interp,
            interp_b: sb.interp,
            samples,
        });
    }

    fn interpolate_raw<V: TValue>(s: &TSequence<V>, t: TimestampTz) -> V {
        match s.instants().binary_search_by(|i| i.t.cmp(&t)) {
            Ok(idx) => s.instants()[idx].value.clone(),
            Err(idx) => {
                let a = &s.instants()[idx - 1];
                let b = &s.instants()[idx];
                match s.interp {
                    Interp::Step | Interp::Discrete => a.value.clone(),
                    Interp::Linear => {
                        let frac = (t.0 - a.t.0) as f64 / (b.t.0 - a.t.0) as f64;
                        V::lerp(&a.value, &b.value, frac)
                    }
                }
            }
        }
    }

    fn seq_at_period<V: TValue>(s: &TSequence<V>, p: &TstzSpan) -> Option<TSequence<V>> {
        let instants = s.instants();
        if s.interp == Interp::Discrete {
            let lo = instants.partition_point(|i| i.t <= p.lower && !p.contains_value(i.t));
            let hi = lo + instants[lo..].partition_point(|i| p.contains_value(i.t));
            if lo == hi {
                return None;
            }
            return Some(TSequence::discrete(instants[lo..hi].to_vec()).unwrap());
        }
        let ix = s.period().intersection(p)?;
        let lo = instants.partition_point(|i| i.t <= ix.lower);
        let hi = lo.max(instants.partition_point(|i| i.t < ix.upper));
        let mut kept: Vec<TInstant<V>> = Vec::with_capacity(hi - lo + 2);
        kept.push(TInstant::new(interpolate_raw(s, ix.lower), ix.lower));
        kept.extend_from_slice(&instants[lo..hi]);
        if ix.upper > ix.lower {
            kept.push(TInstant::new(interpolate_raw(s, ix.upper), ix.upper));
        }
        Some(TSequence::new(kept, ix.lower_inc, ix.upper_inc, s.interp).unwrap())
    }

    /// `atTime(x, p)`.
    pub fn at_period(x: &TGeomPoint, p: &TstzSpan) -> Option<TGeomPoint> {
        let seqs: Vec<TSequence<Point>> =
            x.temp.as_sequences().iter().filter_map(|s| seq_at_period(s, p)).collect();
        Temporal::from_sequences(seqs).ok().map(|t| TGeomPoint::new(t, x.srid()))
    }

    /// `length(x)`.
    pub fn length(x: &TGeomPoint) -> f64 {
        let mut total = 0.0;
        for s in x.temp.as_sequences().iter() {
            if s.interp == Interp::Linear {
                for w in s.instants().windows(2) {
                    total += w[0].value.distance(&w[1].value);
                }
            }
        }
        total
    }

    fn solve_within(c: Point, v: Point, d: f64) -> Vec<(f64, f64)> {
        let a = v.dot(v);
        if a == 0.0 {
            return if c.norm() <= d { vec![(0.0, 1.0)] } else { vec![] };
        }
        let b = 2.0 * c.dot(v);
        let cc = c.dot(c) - d * d;
        let disc = b * b - 4.0 * a * cc;
        if disc < 0.0 {
            return vec![];
        }
        let sq = disc.sqrt();
        let u0 = ((-b - sq) / (2.0 * a)).max(0.0);
        let u1 = ((-b + sq) / (2.0 * a)).min(1.0);
        if u0 > u1 {
            vec![]
        } else {
            vec![(u0, u1)]
        }
    }

    fn tbool_from_intervals(period: &TstzSpan, true_spans: Vec<TstzSpan>) -> Vec<TSequence<bool>> {
        let mut out: Vec<TSequence<bool>> = Vec::new();
        let make = |v: bool, sp: &TstzSpan| -> TSequence<bool> {
            if sp.lower == sp.upper {
                TSequence::new(vec![TInstant::new(v, sp.lower)], true, true, Interp::Step).unwrap()
            } else {
                TSequence::new(
                    vec![TInstant::new(v, sp.lower), TInstant::new(v, sp.upper)],
                    sp.lower_inc,
                    sp.upper_inc,
                    Interp::Step,
                )
                .unwrap()
            }
        };
        let trues = match TstzSpanSet::new(true_spans).ok() {
            Some(ts) => match ts.intersection_span(period) {
                Some(clipped) => clipped,
                None => return vec![make(false, period)],
            },
            None => return vec![make(false, period)],
        };
        let falses = TstzSpanSet::from_span(*period).minus(&trues);
        let mut pieces: Vec<(bool, TstzSpan)> = trues.spans().iter().map(|s| (true, *s)).collect();
        if let Some(fs) = falses {
            pieces.extend(fs.spans().iter().map(|s| (false, *s)));
        }
        pieces.sort_by(|a, b| a.1.cmp_span(&b.1));
        for (v, sp) in pieces {
            out.push(make(v, &sp));
        }
        out
    }

    /// `tDwithin(a, b, d)`.
    pub fn tdwithin(a: &TGeomPoint, b: &TGeomPoint, d: f64) -> Option<TBool> {
        let mut seqs: Vec<TSequence<bool>> = Vec::new();
        for s in synchronize(&a.temp, &b.temp) {
            let period = s.period();
            if s.samples.len() == 1 {
                let (t, pa, pb) = &s.samples[0];
                let v = vec![TInstant::new(pa.distance(pb) <= d, *t)];
                seqs.push(TSequence::new(v, true, true, Interp::Step).unwrap());
                continue;
            }
            let mut true_spans: Vec<TstzSpan> = Vec::new();
            for k in 0..s.samples.len() - 1 {
                let (t0, a0, b0) = &s.samples[k];
                let (t1, a1, b1) = &s.samples[k + 1];
                let c = *a0 - *b0;
                let v = (*a1 - *a0) - (*b1 - *b0);
                for (u0, u1) in solve_within(c, v, d) {
                    let lo = TimestampTz(t0.0 + ((t1.0 - t0.0) as f64 * u0).round() as i64);
                    let hi = TimestampTz(t0.0 + ((t1.0 - t0.0) as f64 * u1).round() as i64);
                    if let Ok(sp) = TstzSpan::new(lo, hi, true, true) {
                        true_spans.push(sp);
                    }
                }
            }
            seqs.extend(tbool_from_intervals(&period, true_spans));
        }
        Temporal::from_sequences(seqs).ok()
    }

    fn step_runs_equal<V: TValue>(s: &TSequence<V>, v: &V, out: &mut Vec<TSequence<V>>) {
        let instants = s.instants();
        let n = instants.len();
        let mut i = 0;
        while i < n {
            if &instants[i].value != v {
                i += 1;
                continue;
            }
            let run_start = i;
            while i + 1 < n && &instants[i + 1].value == v {
                i += 1;
            }
            let mut kept: Vec<TInstant<V>> = instants[run_start..=i].to_vec();
            let lower_inc = if run_start == 0 { s.lower_inc } else { true };
            let (upper_inc, upper_t) =
                if i + 1 < n { (false, Some(instants[i + 1].t)) } else { (s.upper_inc, None) };
            if let Some(ut) = upper_t {
                kept.push(TInstant::new(v.clone(), ut));
            }
            if kept.len() == 1 {
                out.push(TSequence::new(kept, true, true, Interp::Step).unwrap());
            } else {
                out.push(TSequence::new(kept, lower_inc, upper_inc, Interp::Step).unwrap());
            }
            i += 1;
        }
    }

    fn linear_pieces_equal<V: TValue + SolveCrossing>(
        s: &TSequence<V>,
        v: &V,
        out: &mut Vec<TSequence<V>>,
    ) {
        let instants = s.instants();
        let n = instants.len();
        let push_instant = |out: &mut Vec<TSequence<V>>, val: V, t: TimestampTz| {
            out.push(TSequence::new(vec![TInstant::new(val, t)], true, true, s.interp).unwrap());
        };
        let mut i = 0;
        while i < n {
            if &instants[i].value == v {
                let run_start = i;
                while i + 1 < n && &instants[i + 1].value == v {
                    i += 1;
                }
                if i > run_start {
                    let kept = instants[run_start..=i].to_vec();
                    let lower_inc = if run_start == 0 { s.lower_inc } else { true };
                    let upper_inc = if i == n - 1 { s.upper_inc } else { true };
                    out.push(TSequence::new(kept, lower_inc, upper_inc, s.interp).unwrap());
                } else {
                    let included = (run_start > 0 || s.lower_inc)
                        && (run_start < n - 1 || s.upper_inc || n == 1);
                    if included {
                        push_instant(out, v.clone(), instants[run_start].t);
                    }
                }
            } else if i + 1 < n {
                let (a, b) = (&instants[i], &instants[i + 1]);
                if let Some(frac) = V::solve_crossing(&a.value, &b.value, v) {
                    let t = TimestampTz(a.t.0 + ((b.t.0 - a.t.0) as f64 * frac).round() as i64);
                    push_instant(out, v.clone(), t);
                }
            }
            i += 1;
        }
    }

    /// `atValues(t, v)`.
    pub fn at_value<V: TValue + SolveCrossing>(t: &Temporal<V>, v: &V) -> Option<Temporal<V>> {
        let mut out: Vec<TSequence<V>> = Vec::new();
        for s in t.as_sequences().iter() {
            match s.interp {
                Interp::Discrete => {
                    let kept: Vec<TInstant<V>> =
                        s.instants().iter().filter(|i| &i.value == v).cloned().collect();
                    if !kept.is_empty() {
                        out.push(TSequence::discrete(kept).unwrap());
                    }
                }
                Interp::Step => step_runs_equal(s, v, &mut out),
                Interp::Linear => linear_pieces_equal(s, v, &mut out),
            }
        }
        out.sort_by_key(|s| s.start().t);
        out.dedup_by(|a, b| {
            a.num_instants() == 1 && b.num_instants() == 1 && a.start().t == b.start().t
        });
        Temporal::from_sequences(out).ok()
    }
}

/// A moving point of any subtype and interpolation on a one-second grid,
/// with random bounds: stationary stretches, repeated positions, a gap
/// between sequences that may be a single instant wide.
fn gen_fused_trip(rng: &mut StdRng, grid: bool, from: i64) -> TGeomPoint {
    let base = 1_700_000_000_000_000i64;
    let mut t = from;
    let mut seq = |rng: &mut StdRng, interp: Interp| {
        let mut prev = gen_xy(rng, grid);
        let instants: Vec<TInstant<mduck_geo::Point>> = (0..rng.random_range(1usize..9))
            .map(|_| {
                t += rng.random_range(1i64..4);
                if rng.random_range(0u32..3) != 0 {
                    prev = gen_xy(rng, grid);
                }
                TInstant::new(prev, TimestampTz(base + t * 1_000_000))
            })
            .collect();
        t += rng.random_range(0i64..2);
        let (li, ui) = (rng.random_bool(0.5), rng.random_bool(0.5));
        // Touching sequences need one open bound between them.
        TSequence::new(instants, li, ui && t > 0, interp).unwrap()
    };
    let interp = [Interp::Discrete, Interp::Step, Interp::Linear, Interp::Linear]
        [rng.random_range(0usize..4)];
    let temp = match rng.random_range(0u32..4) {
        0 => Temporal::Instant(*seq(rng, Interp::Discrete).start()),
        1 => Temporal::from_sequences(vec![seq(rng, interp)]).unwrap(),
        _ => {
            let interp = if interp == Interp::Discrete { Interp::Linear } else { interp };
            let seqs: Vec<TSequence<mduck_geo::Point>> =
                (0..rng.random_range(1usize..4)).map(|_| seq(rng, interp)).collect();
            match Temporal::from_sequences(seqs.clone()) {
                Ok(t) => t,
                Err(_) => Temporal::from_sequences(vec![seqs[0].clone()]).unwrap(),
            }
        }
    };
    TGeomPoint::new(temp, 0)
}

/// A period on the same grid around `t`'s time, its bounds often on an
/// instant, inclusive or exclusive.
fn gen_fused_period(rng: &mut StdRng, t: &TGeomPoint) -> TstzSpan {
    let base = 1_700_000_000_000_000i64;
    let at = |s: i64| TimestampTz(base + s * 1_000_000);
    let span = t.timespan();
    let (first, last) = ((span.lower.0 - base) / 1_000_000, (span.upper.0 - base) / 1_000_000);
    let lo = rng.random_range(first - 3..=last + 1);
    let hi = lo + rng.random_range(0i64..12);
    let (li, ui) = if lo == hi { (true, true) } else { (rng.random_bool(0.5), rng.random_bool(0.5)) };
    TstzSpan::new(at(lo), at(hi), li, ui).unwrap()
}

#[test]
fn windowed_eintersects_and_length_match_attime_then_the_kernel() {
    use mduck_geo::algorithms::intersects;
    let mut rng = StdRng::seed_from_u64(0x5ea_000d);
    let (mut met, mut empty) = (0, 0);
    for _ in 0..CASES * 8 {
        let grid = rng.random_bool(0.6);
        let t = gen_fused_trip(&mut rng, grid, 0);
        let p = gen_fused_period(&mut rng, &t);
        let g = gen_static(&mut rng, grid, &t);
        let ctx = || format!("{} at {p} vs {}", t.as_text(), mduck_geo::wkt::to_wkt(&g, None));
        let restricted = before::at_period(&t, &p);
        assert_eq!(t.at_period(&p), restricted, "{}", ctx());
        let during = t.during(&p);
        assert_eq!(during.is_some(), restricted.is_some(), "{}", ctx());
        let (Some(during), Some(r)) = (during, restricted) else {
            empty += 1;
            continue;
        };
        let want = intersects(&r.trajectory(), &g);
        assert_eq!(during.eintersects(&g), want, "{}", ctx());
        met += usize::from(want);
        assert_eq!(during.length().to_bits(), before::length(&r).to_bits(), "{}", ctx());
        // The unfused forms run the same kernels over every position.
        assert_eq!(t.eintersects(&g), intersects(&t.trajectory(), &g), "{}", ctx());
        assert_eq!(t.length().to_bits(), before::length(&t).to_bits(), "{}", ctx());
    }
    assert!(met > CASES && empty > CASES / 4, "{met} met, {empty} empty");
}

/// A moving point of three runs or more (`algorithms::RUN` segments per
/// run): a walk on the grid or continuous, a fifth of its instants
/// repeating the previous position, sometimes a sequence set.
fn gen_long_moving(rng: &mut StdRng, grid: bool) -> TGeomPoint {
    let base = 1_700_000_000_000_000i64;
    let n = rng.random_range(3 * mduck_geo::algorithms::RUN + 1..100);
    let mut p = gen_xy(rng, grid);
    let instants: Vec<TInstant<mduck_geo::Point>> = (0..n)
        .map(|i| {
            if rng.random_range(0u32..5) != 0 {
                let d = gen_xy(rng, grid);
                p = mduck_geo::Point::new(p.x + d.x * 0.5, p.y + d.y * 0.5);
            }
            TInstant::new(p, TimestampTz(base + i as i64 * 1_000_000))
        })
        .collect();
    let interp = [Interp::Linear, Interp::Linear, Interp::Step][rng.random_range(0usize..3)];
    let seqs = if rng.random_bool(0.5) {
        vec![TSequence::new(instants, true, true, interp).unwrap()]
    } else {
        let cut = rng.random_range(1..n - 1);
        vec![
            TSequence::new(instants[..cut].to_vec(), true, false, interp).unwrap(),
            TSequence::new(instants[cut..].to_vec(), true, true, interp).unwrap(),
        ]
    };
    TGeomPoint::new(Temporal::from_sequences(seqs).unwrap(), 0)
}

/// `eIntersects` and `eDwithin` over trips of three runs or more, whole
/// and in windows whose bounds fall between instants (cutting runs), read
/// through the cached run boxes, against `atTime` and the kernels over
/// the built trajectory, which build each run's box as they walk.
#[test]
fn run_boxes_of_long_trips_match_the_built_trajectory() {
    use mduck_geo::algorithms::{distance, intersects};
    let mut rng = StdRng::seed_from_u64(0x5ea_0010);
    let mut met = 0;
    for _ in 0..CASES * 2 {
        let grid = rng.random_bool(0.6);
        let t = gen_long_moving(&mut rng, grid);
        let g = gen_static(&mut rng, grid, &t);
        let traj = t.trajectory();
        let ctx = || format!("{} vs {}", t.as_text(), mduck_geo::wkt::to_wkt(&g, None));
        let want = intersects(&traj, &g);
        assert_eq!(t.eintersects(&g), want, "{}", ctx());
        met += usize::from(want);
        let d = distance(&traj, &g);
        assert!(t.edwithin_geo(&g, d), "{}", ctx());
        if d > 0.0 {
            assert!(!t.edwithin_geo(&g, d.next_down()), "{}", ctx());
        }
        let span = t.timespan();
        let lo = rng.random_range(span.lower.0..=span.upper.0);
        let hi = rng.random_range(lo..=span.upper.0);
        let p = TstzSpan::new(TimestampTz(lo), TimestampTz(hi), true, true).unwrap();
        let windowed = t.during(&p).map(|w| w.eintersects(&g));
        let restricted = before::at_period(&t, &p).map(|r| intersects(&r.trajectory(), &g));
        assert_eq!(windowed, restricted, "{} at {p}", ctx());
    }
    assert!(met > CASES / 2, "{met} met");
}

#[test]
fn tdwithin_when_true_and_edwithin_match_the_synchronized_composition() {
    let mut rng = StdRng::seed_from_u64(0x5ea_000e);
    let (mut some, mut trues) = (0, 0);
    for _ in 0..CASES * 8 {
        let grid = rng.random_bool(0.7);
        let a = gen_fused_trip(&mut rng, grid, 0);
        let from = rng.random_range(0i64..10);
        let b = gen_fused_trip(&mut rng, grid, from);
        let d = match rng.random_range(0u32..4) {
            0 => 0.0,
            1 => rng.random_range(0i64..4) as f64,
            2 => 2f64.sqrt() * rng.random_range(1i64..3) as f64,
            _ => rng.random_range(0.0..6.0f64),
        };
        let ctx = || format!("{} vs {} within {d}", a.as_text(), b.as_text());
        let want = before::tdwithin(&a, &b, d);
        assert_eq!(a.tdwithin(&b, d), want, "{}", ctx());
        let when = want.as_ref().and_then(|w| w.when_true());
        assert_eq!(a.when_dwithin(&b, d), when, "{}", ctx());
        let ever = want.as_ref().is_some_and(|w| w.ever_true());
        assert_eq!(a.edwithin(&b, d), ever, "{}", ctx());
        some += usize::from(want.is_some());
        trues += usize::from(ever);
    }
    assert!(some > CASES * 2 && trues > CASES, "{some} defined, {trues} ever true");
}

#[test]
fn synchronize_matches_the_pairwise_synchronization() {
    use mduck_temporal::temporal::synchronize;
    let bits = |p: &mduck_geo::Point| (p.x.to_bits(), p.y.to_bits());
    let mut rng = StdRng::seed_from_u64(0x5ea_0010);
    let (mut stretches, mut instants) = (0, 0);
    for _ in 0..CASES * 8 {
        let grid = rng.random_bool(0.7);
        let a = gen_fused_trip(&mut rng, grid, 0);
        let from = rng.random_range(0i64..10);
        let b = gen_fused_trip(&mut rng, grid, from);
        let (got, want) = (synchronize(&a.temp, &b.temp), before::synchronize(&a.temp, &b.temp));
        let ctx = || format!("{} vs {}", a.as_text(), b.as_text());
        assert_eq!(got.len(), want.len(), "{}", ctx());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                (g.lower_inc, g.upper_inc, g.interp_a, g.interp_b),
                (w.lower_inc, w.upper_inc, w.interp_a, w.interp_b),
                "{}",
                ctx()
            );
            let samples = |s: &[(TimestampTz, mduck_geo::Point, mduck_geo::Point)]| {
                s.iter().map(|(t, pa, pb)| (*t, bits(pa), bits(pb))).collect::<Vec<_>>()
            };
            assert_eq!(samples(&g.samples), samples(&w.samples), "{}", ctx());
            instants += usize::from(g.samples.len() == 1);
        }
        stretches += got.len();
    }
    assert!(stretches > CASES * 4 && instants > CASES, "{stretches} stretches, {instants} instants");
}

#[test]
fn first_time_at_matches_atvalues_then_start_timestamp() {
    let mut rng = StdRng::seed_from_u64(0x5ea_000f);
    let mut hits = 0;
    for _ in 0..CASES * 8 {
        let grid = rng.random_bool(0.7);
        let t = gen_fused_trip(&mut rng, grid, 0);
        let instants = t.temp.instants();
        let p = if rng.random_bool(0.7) {
            instants[rng.random_range(0..instants.len())].value
        } else {
            gen_xy(&mut rng, grid)
        };
        let want = before::at_value(&t.temp, &p);
        assert_eq!(t.temp.at_value(&p), want, "{} at {p:?}", t.as_text());
        let start = want.as_ref().map(|w| w.timespan().lower);
        assert_eq!(t.first_time_at(p), start, "{} at {p:?}", t.as_text());
        hits += usize::from(start.is_some());
    }
    assert!(hits > CASES * 2, "{hits} hits");
}

// ------------------------------------------------ aIntersects

/// A region on the integer grid: a rectangle, a rectangle with a hole, a
/// rectangle with a notch cut into its top, two rectangles sharing an
/// edge, or an axis-parallel road of two segments.
fn gen_region(rng: &mut StdRng) -> mduck_geo::Geometry {
    use mduck_geo::wkt::parse_wkt;
    let (x, y) = (rng.random_range(-5i64..0), rng.random_range(-5i64..0));
    let (w, h) = (rng.random_range(3i64..8), rng.random_range(3i64..8));
    let (x1, y1) = (x + w, y + h);
    let (nx, ny) = (x + rng.random_range(1..w - 1), y + rng.random_range(1..h));
    let wkt = match rng.random_range(0u32..5) {
        0 => format!("POLYGON(({x} {y},{x1} {y},{x1} {y1},{x} {y1},{x} {y}))"),
        1 => format!(
            "POLYGON(({x} {y},{x1} {y},{x1} {y1},{x} {y1},{x} {y}),({nx} {},{} {},{} {ny},{nx} {ny},{nx} {}))",
            y + 1,
            nx + 1,
            y + 1,
            nx + 1,
            y + 1
        ),
        2 => format!(
            "POLYGON(({x} {y},{x1} {y},{x1} {y1},{} {y1},{} {ny},{nx} {ny},{nx} {y1},{x} {y1},{x} {y}))",
            nx + 1,
            nx + 1
        ),
        3 => format!(
            "GEOMETRYCOLLECTION(POLYGON(({x} {y},{nx} {y},{nx} {y1},{x} {y1},{x} {y})),\
             POLYGON(({nx} {y},{x1} {y},{x1} {y1},{nx} {y1},{nx} {y})))"
        ),
        _ => format!("LINESTRING({x} {y},{x1} {y},{x1} {y1})"),
    };
    parse_wkt(&wkt).unwrap()
}

/// `aIntersects` is exact: a moving point is always inside exactly when
/// every instant is covered and so is every one of 4096 positions along
/// each move. On the grid a move that leaves the region stays out over at
/// least 1/280 of its length, so the sampling cannot miss it.
#[test]
fn always_inside_matches_dense_sampling() {
    use mduck_geo::algorithms::geometry_covers_point;
    let mut rng = StdRng::seed_from_u64(0x5ea_0010);
    let (mut inside, mut outside) = (0, 0);
    for _ in 0..CASES * 8 {
        let g = gen_region(&mut rng);
        let t = gen_moving(&mut rng, true);
        let covered = |p| geometry_covers_point(&g, p);
        let mut want = t.temp.instants().iter().all(|i| covered(i.value));
        for s in t.temp.as_sequences().iter().filter(|s| s.interp == Interp::Linear) {
            for w in s.instants().windows(2) {
                let (a, b) = (w[0].value, w[1].value);
                want &= (0..=4096).all(|k| covered(a.lerp(&b, k as f64 / 4096.0)));
            }
        }
        let ctx = || format!("{} in {}", t.as_text(), mduck_geo::wkt::to_wkt(&g, None));
        assert_eq!(t.always_inside(&g), want, "{}", ctx());
        if want {
            inside += 1;
        } else {
            outside += 1;
        }
    }
    assert!(inside > CASES / 4 && outside > CASES, "{inside} inside, {outside} outside");
}
