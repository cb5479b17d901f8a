//! `tgeompoint`: temporal geometry points and their spatial operators —
//! `trajectory`, `length`, `speed`, `atGeometry`, `atStbox`, `tdistance`,
//! `tDwithin`, `eDwithin`, `eIntersects` — the functions the BerlinMOD
//! queries exercise.

use std::ops::ControlFlow;

use mduck_geo::algorithms::{
    self, clip_segment_to_rings, features_distance, geometry_covers_point, segment_rect, stop_if,
    Feature, FeatureSink, Features, Target,
};
use mduck_geo::geometry::GeomData;
use mduck_geo::point::{Point, Rect};
use mduck_geo::Geometry;

use crate::boxes::STBox;
use crate::error::{TemporalError, TemporalResult};
use crate::span::TstzSpan;
use crate::spanset::TstzSpanSet;
use crate::temporal::{
    parse_temporal, synchronize, walk_synced, Interp, Sample, Stretch, SyncVisitor, TFloat,
    TInstant, TSequence, Temporal, Window,
};
use crate::time::{Interval, TimestampTz, USECS_PER_SEC};

/// A temporal geometry point: its [`Positions`] plus the SRID shared by
/// all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct TGeomPoint {
    pub temp: Positions,
    srid: i32,
}

/// The positions of a [`TGeomPoint`] over time: a [`Temporal<Point>`], its
/// spatial extent and the largest magnitude of its coordinates, computed
/// once when the value is built (MEOS keeps the bounding box in the
/// temporal header). It is read-only — it derefs to the temporal value and
/// gives no mutable access — so both always describe the instants they
/// were computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Positions {
    temp: Temporal<Point>,
    extent: Rect,
    magnitude: f64,
}

impl Positions {
    fn new(temp: Temporal<Point>) -> Self {
        let mut extent = Rect::from_point(temp.start_value());
        let mut magnitude = 0.0f64;
        for i in temp.instants() {
            extent.expand_to(i.value);
            magnitude = magnitude.max(algorithms::magnitude(i.value));
        }
        Positions { temp, extent, magnitude }
    }

    /// The smallest rectangle holding every position.
    pub fn extent(&self) -> Rect {
        self.extent
    }

    /// The largest coordinate magnitude of any position; infinite when a
    /// coordinate is NaN (see [`algorithms::magnitude`]).
    pub fn magnitude(&self) -> f64 {
        self.magnitude
    }
}

impl std::ops::Deref for Positions {
    type Target = Temporal<Point>;

    fn deref(&self) -> &Temporal<Point> {
        &self.temp
    }
}

/// Parse a `tgeompoint` literal (optionally `SRID=n;`-prefixed).
pub fn parse_tgeompoint(s: &str) -> TemporalResult<TGeomPoint> {
    let (temp, srid) = parse_temporal::<Point>(s)?;
    Ok(TGeomPoint::new(temp, srid.unwrap_or(0)))
}

impl std::fmt::Display for TGeomPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", *self.temp)
    }
}

impl TGeomPoint {
    /// Build from a temporal point and SRID.
    pub fn new(temp: Temporal<Point>, srid: i32) -> Self {
        TGeomPoint { temp: Positions::new(temp), srid }
    }

    /// An instant tgeompoint.
    pub fn instant(p: Point, t: TimestampTz, srid: i32) -> Self {
        TGeomPoint::new(Temporal::Instant(TInstant::new(p, t)), srid)
    }

    /// The SRID of every position.
    pub fn srid(&self) -> i32 {
        self.srid
    }

    /// A linear sequence from (point, timestamp) pairs.
    pub fn linear_seq(points: Vec<(Point, TimestampTz)>, srid: i32) -> TemporalResult<Self> {
        let instants = points
            .into_iter()
            .map(|(p, t)| TInstant::new(p, t))
            .collect();
        let seq = TSequence::new(instants, true, true, Interp::Linear)?;
        Ok(TGeomPoint::new(Temporal::Sequence(seq), srid))
    }

    /// `asText` rendering (no SRID prefix).
    pub fn as_text(&self) -> String {
        self.temp.to_string()
    }

    /// `asEWKT` rendering (SRID prefix when known).
    pub fn as_ewkt(&self) -> String {
        if self.srid != 0 {
            format!("SRID={};{}", self.srid, *self.temp)
        } else {
            self.temp.to_string()
        }
    }

    /// Bounding period (`::tstzspan` cast in Query 3).
    pub fn timespan(&self) -> TstzSpan {
        self.temp.timespan()
    }

    /// Position at a timestamp as a point geometry (`valueAtTimestamp`).
    pub fn value_at(&self, t: TimestampTz) -> Option<Geometry> {
        self.temp
            .value_at(t)
            .map(|p| Geometry::from_point(p).with_srid(self.srid))
    }

    /// Spatiotemporal bounding box (`::stbox` cast): the cached extent
    /// and the bounding period.
    pub fn stbox(&self) -> STBox {
        STBox {
            srid: self.srid,
            rect: Some(self.temp.extent()),
            period: Some(self.temp.timespan()),
        }
    }

    /// The traversed geometry (`trajectory()`): a linestring for moving
    /// linear sequences, a point when stationary, a multipoint for
    /// discrete/step subtypes, and a collection across sequence sets.
    pub fn trajectory(&self) -> Geometry {
        let seqs = self.temp.as_sequences();
        let mut parts: Vec<Geometry> = Vec::new();
        for s in seqs.iter() {
            parts.push(seq_trajectory(s));
        }
        let g = if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            mduck_geo::algorithms::collect(parts)
        };
        g.with_srid(self.srid)
    }

    /// Total length traveled, in the units of the SRID (`length()`).
    pub fn length(&self) -> f64 {
        self.whole().length()
    }

    /// The positions inside `p`, read in place: the value `atTime` would
    /// build, without building it. `None` exactly when [`Self::at_period`]
    /// is `None`.
    pub fn during<'a>(&'a self, p: &'a TstzSpan) -> Option<During<'a>> {
        let during = During { positions: &self.temp, period: Some(p) };
        during.windows().next().map(|_| during)
    }

    /// Every position.
    fn whole(&self) -> During<'_> {
        During { positions: &self.temp, period: None }
    }

    /// Speed as a step `tfloat` in units/second (`speed()`).
    pub fn speed(&self) -> TemporalResult<TFloat> {
        let mut seqs: Vec<TSequence<f64>> = Vec::new();
        for s in self.temp.as_sequences().iter() {
            if s.interp != Interp::Linear || s.num_instants() < 2 {
                continue;
            }
            let mut instants: Vec<TInstant<f64>> = Vec::with_capacity(s.num_instants());
            let w = s.instants();
            for k in 0..w.len() - 1 {
                let dt = (w[k + 1].t.0 - w[k].t.0) as f64 / USECS_PER_SEC as f64;
                let v = w[k].value.distance(&w[k + 1].value) / dt;
                instants.push(TInstant::new(v, w[k].t));
            }
            let last_v = instants.last().unwrap().value;
            instants.push(TInstant::new(last_v, w.last().unwrap().t));
            seqs.push(TSequence::new(instants, s.lower_inc, s.upper_inc, Interp::Step)?);
        }
        Temporal::from_sequences(seqs)
            .map_err(|_| TemporalError::Invalid("speed undefined for non-moving value".into()))
    }

    /// Restrict in time.
    pub fn at_period(&self, p: &TstzSpan) -> Option<TGeomPoint> {
        self.temp.at_period(p).map(|t| TGeomPoint::new(t, self.srid))
    }

    /// Restrict in time by a period set.
    pub fn at_periodset(&self, ps: &TstzSpanSet) -> Option<TGeomPoint> {
        self.temp.at_periodset(ps).map(|t| TGeomPoint::new(t, self.srid))
    }

    /// Restrict to the instants where the moving point is exactly at `p`
    /// (`atValues` with a point geometry, Query 7).
    pub fn at_value(&self, p: Point) -> Option<TGeomPoint> {
        self.temp.at_value(&p).map(|t| TGeomPoint::new(t, self.srid))
    }

    /// Restrict the moving point to a geometry (`atGeometry`). Polygons
    /// keep the stretches traveled inside; points keep exact passages.
    pub fn at_geometry(&self, g: &Geometry) -> TemporalResult<Option<TGeomPoint>> {
        let mut seqs: Vec<TSequence<Point>> = Vec::new();
        for prim in g.flatten() {
            match &prim.data {
                GeomData::Point(p) => {
                    if let Some(t) = self.temp.at_value(p) {
                        seqs.extend(t.as_sequences().iter().cloned());
                    }
                }
                GeomData::MultiPoint(ps) => {
                    for p in ps {
                        if let Some(t) = self.temp.at_value(p) {
                            seqs.extend(t.as_sequences().iter().cloned());
                        }
                    }
                }
                GeomData::Polygon(rings) => {
                    for s in self.temp.as_sequences().iter() {
                        restrict_seq_to_rings(s, rings, &mut seqs);
                    }
                }
                other => {
                    return Err(TemporalError::Unsupported(format!(
                        "atGeometry over {:?} geometries",
                        std::mem::discriminant(other)
                    )))
                }
            }
        }
        seqs.sort_by_key(|s| s.start().t);
        seqs.dedup_by(|a, b| a.start().t == b.start().t && a.num_instants() == b.num_instants());
        Ok(Temporal::from_sequences(seqs)
            .ok()
            .map(|t| TGeomPoint::new(t, self.srid)))
    }

    /// Restrict to a spatiotemporal box (`atStbox`).
    pub fn at_stbox(&self, b: &STBox) -> TemporalResult<Option<TGeomPoint>> {
        let mut current = self.clone();
        if let Some(p) = &b.period {
            match current.at_period(p) {
                Some(c) => current = c,
                None => return Ok(None),
            }
        }
        if let Some(r) = &b.rect {
            let poly = Geometry::polygon(vec![vec![
                Point::new(r.xmin, r.ymin),
                Point::new(r.xmax, r.ymin),
                Point::new(r.xmax, r.ymax),
                Point::new(r.xmin, r.ymax),
                Point::new(r.xmin, r.ymin),
            ]])?;
            return current.at_geometry(&poly);
        }
        Ok(Some(current))
    }

    /// Temporal distance to another moving point (`tdistance`): a linear
    /// `tfloat` sampled at synchronized instants plus the per-segment
    /// distance minima (the same approximation MEOS makes).
    pub fn tdistance(&self, other: &TGeomPoint) -> Option<TFloat> {
        let synced = synchronize(&self.temp, &other.temp);
        let mut seqs: Vec<TSequence<f64>> = Vec::new();
        for s in synced {
            let mut instants: Vec<TInstant<f64>> = Vec::new();
            for k in 0..s.samples.len() {
                let (t, a, b) = &s.samples[k];
                instants.push(TInstant::new(a.distance(b), *t));
                if k + 1 < s.samples.len() {
                    let (t1, a1, b1) = &s.samples[k + 1];
                    // Relative motion c + v·u over u ∈ [0,1].
                    let c = *a - *b;
                    let v = (*a1 - *a) - (*b1 - *b);
                    let vv = v.dot(v);
                    if vv > 0.0 {
                        let u_star = -(c.dot(v)) / vv;
                        if u_star > 1e-9 && u_star < 1.0 - 1e-9 {
                            let tm = TimestampTz(
                                t.0 + ((t1.0 - t.0) as f64 * u_star).round() as i64,
                            );
                            if tm > *t && tm < *t1 {
                                let d = (c + v * u_star).norm();
                                instants.push(TInstant::new(d, tm));
                            }
                        }
                    }
                }
            }
            let interp = if instants.len() == 1 { Interp::Discrete } else { Interp::Linear };
            if let Ok(seq) = TSequence::new(instants, s.lower_inc, s.upper_inc, interp) {
                seqs.push(seq);
            }
        }
        Temporal::from_sequences(seqs).ok()
    }

    /// Temporal within-distance (`tDwithin`): a `tbool` that is true
    /// exactly while the two moving points are within `d` of each other.
    /// Per synchronized segment the quadratic `|c + v·u|² ≤ d²` is solved
    /// exactly, over the segments [`walk_synced`] visits.
    pub fn tdwithin(&self, other: &TGeomPoint, d: f64) -> Option<crate::temporal::TBool> {
        let mut v = TDwithin {
            within: WithinDistance::new(self, other, d),
            seqs: Vec::new(),
            true_spans: Vec::new(),
        };
        let _ = walk_synced(&self.temp, &other.temp, &mut v);
        Temporal::from_sequences(v.seqs).ok()
    }

    /// `whenTrue(tDwithin(self, other, d))` without building the `tbool`:
    /// the times the two are within `d`, clipped to each synchronized
    /// stretch; `None` when there are none.
    pub fn when_dwithin(&self, other: &TGeomPoint, d: f64) -> Option<TstzSpanSet> {
        let mut v = WhenWithin::new(self, other, d, false);
        let _ = walk_synced(&self.temp, &other.temp, &mut v);
        TstzSpanSet::new(v.spans).ok()
    }

    /// Ever within distance (`eDwithin`, Query 6 / the §6.2 close-pairs
    /// demo): `tDwithin` is ever true. Stops at the first time they are.
    pub fn edwithin(&self, other: &TGeomPoint, d: f64) -> bool {
        let mut v = WhenWithin::new(self, other, d, true);
        walk_synced(&self.temp, &other.temp, &mut v).is_break()
    }

    /// Always within distance (`aDwithin`), over the synchronized time.
    pub fn adwithin(&self, other: &TGeomPoint, d: f64) -> bool {
        match self.tdwithin(other, d) {
            Some(t) => t.always_true(),
            None => false,
        }
    }

    /// Ever within distance of a static geometry: the distance from the
    /// trajectory, read from the instants without building it.
    pub fn edwithin_geo(&self, g: &Geometry, d: f64) -> bool {
        features_distance(&self.whole(), g) <= d
    }

    /// Does the moving point ever intersect the geometry
    /// (`eIntersects`)? Equal to `intersects(&self.trajectory(), g)`, but
    /// reads the instants directly ([`During::eintersects`] over every
    /// position).
    pub fn eintersects(&self, g: &Geometry) -> bool {
        self.whole().eintersects(g)
    }

    /// `startTimestamp(atValues(self, p))` without building the
    /// restriction ([`Temporal::at_value_start`]).
    pub fn first_time_at(&self, p: Point) -> Option<TimestampTz> {
        self.temp.at_value_start(&p)
    }

    /// Is the moving point always inside the geometry (`aIntersects`)?
    /// Every instant is covered, and along each move of a linear sequence
    /// the stretches covered by the geometry's polygons and the line
    /// segments it runs along leave no gap.
    pub fn always_inside(&self, g: &Geometry) -> bool {
        for s in self.temp.as_sequences().iter() {
            if s.instants().iter().any(|i| !geometry_covers_point(g, i.value)) {
                return false;
            }
            if s.interp == Interp::Linear
                && s.instants().windows(2).any(|w| !move_covered(w[0].value, w[1].value, g))
            {
                return false;
            }
        }
        true
    }

    /// Shift the value in time.
    pub fn shift_time(&self, delta: &Interval) -> TGeomPoint {
        TGeomPoint::new(self.temp.shift_time(delta), self.srid)
    }
}

/// The positions of a line, each repeat of the previous one dropped.
fn line_vertices(instants: &[TInstant<Point>]) -> impl Iterator<Item = Point> + '_ {
    let mut prev: Option<Point> = None;
    instants.iter().map(|i| i.value).filter(move |&p| prev.replace(p) != Some(p))
}

/// The trajectory of a single sequence.
fn seq_trajectory(s: &TSequence<Point>) -> Geometry {
    if s.interp == Interp::Linear && s.num_instants() > 1 {
        let dedup: Vec<Point> = line_vertices(s.instants()).collect();
        if dedup.len() == 1 {
            Geometry::from_point(dedup[0])
        } else {
            Geometry::linestring(dedup).expect("≥2 points")
        }
    } else {
        let mut distinct: Vec<Point> = Vec::new();
        for p in s.instants().iter().map(|i| i.value) {
            if !distinct.contains(&p) {
                distinct.push(p);
            }
        }
        if distinct.len() == 1 {
            Geometry::from_point(distinct[0])
        } else {
            Geometry::multipoint(distinct)
        }
    }
}

/// Clip one sequence against polygon rings, pushing the kept stretches.
fn restrict_seq_to_rings(
    s: &TSequence<Point>,
    rings: &[Vec<Point>],
    out: &mut Vec<TSequence<Point>>,
) {
    use mduck_geo::algorithms::point_in_rings;
    if s.interp != Interp::Linear {
        let kept: Vec<TInstant<Point>> = s
            .instants()
            .iter()
            .filter(|i| point_in_rings(i.value, rings))
            .cloned()
            .collect();
        if !kept.is_empty() {
            out.push(TSequence::discrete(kept).expect("ordered"));
        }
        return;
    }
    // Collect per-segment inside-intervals in time, then merge into runs.
    let instants = s.instants();
    let mut spans: Vec<(TimestampTz, TimestampTz)> = Vec::new();
    if instants.len() == 1 && point_in_rings(instants[0].value, rings) {
        spans.push((instants[0].t, instants[0].t));
    }
    for w in instants.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        for (f0, f1) in clip_segment_to_rings(a.value, b.value, rings) {
            let t0 = TimestampTz(a.t.0 + ((b.t.0 - a.t.0) as f64 * f0).round() as i64);
            let t1 = TimestampTz(a.t.0 + ((b.t.0 - a.t.0) as f64 * f1).round() as i64);
            match spans.last_mut() {
                Some(last) if last.1 >= t0 => last.1 = last.1.max(t1),
                _ => spans.push((t0, t1)),
            }
        }
    }
    for (t0, t1) in spans {
        if t0 == t1 {
            out.push(
                TSequence::new(
                    vec![TInstant::new(s.interpolate_raw(t0), t0)],
                    true,
                    true,
                    Interp::Linear,
                )
                .expect("singleton"),
            );
        } else if let Some(sub) = s.at_period(
            &TstzSpan::new(t0, t1, true, true).expect("ordered clip bounds"),
        ) {
            out.push(sub);
        }
    }
}

/// Solve `|c + v·u| ≤ d` for `u ∈ [0, 1]`; returns the interval, if any.
fn solve_within(c: Point, v: Point, d: f64) -> Option<(f64, f64)> {
    let a = v.dot(v);
    if a == 0.0 {
        return (c.norm() <= d).then_some((0.0, 1.0));
    }
    let b = 2.0 * c.dot(v);
    let cc = c.dot(c) - d * d;
    let disc = b * b - 4.0 * a * cc;
    if disc < 0.0 {
        return None;
    }
    let sq = disc.sqrt();
    let u0 = ((-b - sq) / (2.0 * a)).max(0.0);
    let u1 = ((-b + sq) / (2.0 * a)).min(1.0);
    (u0 <= u1).then_some((u0, u1))
}

/// The test of two moving points being within a distance `d`, applied
/// to the samples [`walk_synced`] visits.
struct WithinDistance {
    d: f64,
    /// The box distance beyond which a pair of segments cannot be within
    /// `d`, even through the solver's rounding.
    reach: f64,
}

impl WithinDistance {
    fn new(a: &TGeomPoint, b: &TGeomPoint, d: f64) -> Self {
        let m = a.temp.magnitude().max(b.temp.magnitude());
        // The rounding of the quadratic's roots grows as m²/d near tangency.
        let slack = if d > 0.0 { 1e-12 * (m + m * m / d) } else { f64::INFINITY };
        let reach = if slack.is_finite() { d + slack } else { f64::INFINITY };
        WithinDistance { d, reach }
    }

    /// Are the two within the distance at one sample?
    fn at(&self, &(_, pa, pb): &Sample<Point, Point>) -> bool {
        pa.distance(&pb) <= self.d
    }

    /// The closed span of the synchronized segment `from`→`to` over which
    /// the two are within the distance; it may reach beyond the open
    /// bounds of the stretch. A pair of segments whose boxes are farther
    /// apart than `reach` is skipped unsolved.
    #[inline(always)]
    fn during(
        &self,
        &(t0, a0, b0): &Sample<Point, Point>,
        &(t1, a1, b1): &Sample<Point, Point>,
    ) -> Option<TstzSpan> {
        if segment_rect(a0, a1).distance(&segment_rect(b0, b1)) > self.reach {
            return None;
        }
        let c = a0 - b0;
        let v = (a1 - a0) - (b1 - b0);
        let (u0, u1) = solve_within(c, v, self.d)?;
        let at = |u: f64| TimestampTz(t0.0 + ((t1.0 - t0.0) as f64 * u).round() as i64);
        TstzSpan::new(at(u0), at(u1), true, true).ok()
    }
}

/// Builds `tDwithin`'s `tbool`: per stretch of one instant, whether the
/// points are within the distance there; per longer stretch, `true` over
/// the spans they are within it and `false` over the rest.
struct TDwithin {
    within: WithinDistance,
    seqs: Vec<TSequence<bool>>,
    true_spans: Vec<TstzSpan>,
}

impl SyncVisitor<Point, Point> for TDwithin {
    fn start(&mut self, s: &Stretch, first: &Sample<Point, Point>) -> ControlFlow<()> {
        if s.is_instant() {
            let at = vec![TInstant::new(self.within.at(first), first.0)];
            self.seqs.push(
                TSequence::new(at, true, true, Interp::Step)
                    .expect("singleton"),
            );
        }
        ControlFlow::Continue(())
    }

    #[inline(always)]
    fn step(
        &mut self,
        _: &Stretch,
        from: &Sample<Point, Point>,
        to: &Sample<Point, Point>,
    ) -> ControlFlow<()> {
        self.true_spans.extend(self.within.during(from, to));
        ControlFlow::Continue(())
    }

    fn end(&mut self, s: &Stretch) -> ControlFlow<()> {
        if !s.is_instant() {
            let spans = std::mem::take(&mut self.true_spans);
            self.seqs.extend(spatial_tbool_from_intervals(&s.period, spans));
        }
        ControlFlow::Continue(())
    }
}

/// Collects the times two moving points are within the distance, each
/// span clipped to its stretch; with `first`, stops at the first one.
struct WhenWithin {
    within: WithinDistance,
    spans: Vec<TstzSpan>,
    first: bool,
}

impl WhenWithin {
    fn new(a: &TGeomPoint, b: &TGeomPoint, d: f64, first: bool) -> Self {
        WhenWithin { within: WithinDistance::new(a, b, d), spans: Vec::new(), first }
    }

    fn found(&mut self, span: TstzSpan) -> ControlFlow<()> {
        self.spans.push(span);
        stop_if(self.first)
    }
}

impl SyncVisitor<Point, Point> for WhenWithin {
    fn start(&mut self, s: &Stretch, first: &Sample<Point, Point>) -> ControlFlow<()> {
        if s.is_instant() && self.within.at(first) {
            return self.found(TstzSpan::singleton(first.0));
        }
        ControlFlow::Continue(())
    }

    #[inline(always)]
    fn step(
        &mut self,
        s: &Stretch,
        from: &Sample<Point, Point>,
        to: &Sample<Point, Point>,
    ) -> ControlFlow<()> {
        match self.within.during(from, to).and_then(|w| w.intersection(&s.period)) {
            Some(span) => self.found(span),
            None => ControlFlow::Continue(()),
        }
    }
}

/// Is the straight move `a`→`b` covered by `g` all along: do the stretches
/// of it inside `g`'s polygons ([`clip_segment_to_rings`]) and along its
/// line segments leave no gap between 0 and 1? Its ends are covered points
/// already; a stationary move has nothing more to cover.
fn move_covered(a: Point, b: Point, g: &Geometry) -> bool {
    if a == b {
        return true;
    }
    let mut covered: Vec<(f64, f64)> = Vec::new();
    let _ = g.visit_polygons(&mut |rings| {
        covered.extend(clip_segment_to_rings(a, b, rings));
        ControlFlow::Continue(())
    });
    let d = b - a;
    let len_sq = d.dot(d);
    let _ = g.visit_segments(&mut |q1, q2| {
        // A line segment covers a stretch only when both its ends lie on
        // the move's line.
        if (q1 - a).cross(d) == 0.0 && (q2 - a).cross(d) == 0.0 {
            let (t1, t2) = ((q1 - a).dot(d) / len_sq, (q2 - a).dot(d) / len_sq);
            let (lo, hi) = (t1.min(t2).max(0.0), t1.max(t2).min(1.0));
            if lo <= hi {
                covered.push((lo, hi));
            }
        }
        ControlFlow::Continue(())
    });
    covered.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut reach = 0.0;
    for (lo, hi) in covered {
        if lo > reach + 1e-12 {
            return false;
        }
        reach = f64::max(reach, hi);
    }
    reach >= 1.0 - 1e-12
}

/// The positions of a [`TGeomPoint`] inside a period (or all of them),
/// read in place through [`Temporal::windows`]: what `atTime` would copy.
/// The fused kernels behind `eIntersects(x, p, g)` and `length(x, p)` run
/// over it, and `eIntersects(x, g)` and `length(x)` run the same code over
/// every position.
#[derive(Clone, Copy)]
pub struct During<'a> {
    positions: &'a Positions,
    period: Option<&'a TstzSpan>,
}

impl<'a> During<'a> {
    fn windows(&self) -> impl Iterator<Item = Window<'a, Point>> + Clone + 'a {
        self.positions.windows(self.period)
    }

    /// `length(atTime(x, p))`: the summed length of the linear windows,
    /// added up in the order `length` adds up the restricted value.
    pub fn length(&self) -> f64 {
        let mut total = 0.0;
        for w in self.windows().filter(|w| w.interp == Interp::Linear) {
            let mut prev: Option<Point> = None;
            for i in w.instants() {
                if let Some(q) = prev {
                    total += q.distance(&i.value);
                }
                prev = Some(i.value);
            }
        }
        total
    }

    /// `eIntersects(atTime(x, p), g)`: `intersects` of the trajectory of
    /// the positions with `g`, read from the windows without building
    /// either ([`Target::intersects`] over the features below).
    pub fn eintersects(&self, g: &Geometry) -> bool {
        Target::new(g).is_some_and(|target| target.intersects(self))
    }
}

/// The features of the trajectory of the positions (what
/// [`TGeomPoint::trajectory`] builds from them), read from the windows. A
/// linear window of two or more instants is a line through its positions,
/// a position repeated by the next instant dropped; a line that never
/// moves is a bare point, and so is every position of any other window.
impl Features for During<'_> {
    fn visit_polygons<F: FnMut(&[Vec<Point>]) -> ControlFlow<()>>(
        &self,
        _f: &mut F,
    ) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    fn visit_features(&self, sink: &mut impl FeatureSink) -> ControlFlow<()> {
        for w in self.windows() {
            let instants = w.instants();
            if !w.is_line() {
                for i in instants {
                    sink.feature(Feature::Vertex(i.value))?;
                    sink.feature(Feature::Bare(i.value))?;
                }
                continue;
            }
            let (mut prev, mut moved): (Option<Point>, bool) = (None, false);
            for i in instants {
                let p = i.value;
                match prev.replace(p) {
                    None => sink.feature(Feature::Vertex(p))?,
                    Some(q) if q == p => {}
                    Some(q) => {
                        moved = true;
                        sink.feature(Feature::Vertex(p))?;
                        sink.feature(Feature::Segment(q, p))?;
                    }
                }
            }
            // A line that never moves is a bare point.
            if let (Some(p), false) = (prev, moved) {
                sink.feature(Feature::Bare(p))?;
            }
        }
        ControlFlow::Continue(())
    }

    /// The cached box of every position: exact for all of them; for a
    /// window, grown by the few ulps by which the positions it
    /// interpolates at its bounds may round outside it.
    fn bound(&self) -> Option<(Rect, bool)> {
        let extent = self.positions.extent();
        match self.period {
            None => Some((extent, true)),
            Some(_) => {
                // A position interpolated between two others rounds to
                // within 2.5 ulps of their magnitude outside their box.
                let m = self.positions.magnitude() * (1.0 + 4.0 * f64::EPSILON);
                Some((extent.expand_by(4.0 * f64::EPSILON * m), false))
            }
        }
    }
}

/// Build step `tbool` sequences over `period`: `true` on the (merged)
/// `true_spans`, `false` on the rest.
pub(crate) fn spatial_tbool_from_intervals(
    period: &TstzSpan,
    true_spans: Vec<TstzSpan>,
) -> Vec<TSequence<bool>> {
    let mut out: Vec<TSequence<bool>> = Vec::new();
    let make =
        |v: bool, sp: &TstzSpan| -> TSequence<bool> {
            if sp.lower == sp.upper {
                TSequence::new(vec![TInstant::new(v, sp.lower)], true, true, Interp::Step)
                    .expect("singleton")
            } else {
                TSequence::new(
                    vec![TInstant::new(v, sp.lower), TInstant::new(v, sp.upper)],
                    sp.lower_inc,
                    sp.upper_inc,
                    Interp::Step,
                )
                .expect("ordered bounds")
            }
        };
    let trues = TstzSpanSet::new(true_spans.clone()).ok();
    let trues = match trues {
        Some(ts) => match ts.intersection_span(period) {
            Some(clipped) => clipped,
            None => {
                out.push(make(false, period));
                return out;
            }
        },
        None => {
            out.push(make(false, period));
            return out;
        }
    };
    let falses = TstzSpanSet::from_span(*period).minus(&trues);
    let mut pieces: Vec<(bool, TstzSpan)> = Vec::new();
    for sp in trues.spans() {
        pieces.push((true, *sp));
    }
    if let Some(fs) = falses {
        for sp in fs.spans() {
            pieces.push((false, *sp));
        }
    }
    pieces.sort_by(|a, b| a.1.cmp_span(&b.1));
    for (v, sp) in pieces {
        out.push(make(v, &sp));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::parse_timestamp;
    use mduck_geo::wkt::{parse_wkt, to_wkt};

    fn ts(s: &str) -> TimestampTz {
        parse_timestamp(s).unwrap()
    }

    fn tg(s: &str) -> TGeomPoint {
        parse_tgeompoint(s).unwrap()
    }

    #[test]
    fn parse_print_paper_literal() {
        // The §3.5 overlap example literal.
        let t = tg("{[Point(1 1)@2025-01-01, Point(2 2)@2025-01-02, Point(1 1)@2025-01-03], \
                    [Point(3 3)@2025-01-04, Point(3 3)@2025-01-05]}");
        assert_eq!(t.temp.num_instants(), 5);
        let b = t.stbox();
        assert_eq!(b.rect.unwrap(), mduck_geo::point::Rect::new(1.0, 1.0, 3.0, 3.0));
        // Paper: && STBOX X((10.0,20.0),(10.0,20.0)) is false.
        let q = crate::parse_stbox("STBOX X((10.0,20.0),(10.0,20.0))").unwrap();
        assert!(!b.overlaps(&q).unwrap());
    }

    #[test]
    fn at_time_matches_paper_example() {
        // §3.5 atTime example.
        let t = tg("{[Point(1 1)@2025-01-01, Point(2 2)@2025-01-02, Point(1 1)@2025-01-03], \
                    [Point(3 3)@2025-01-04, Point(3 3)@2025-01-05]}");
        let p: TstzSpan = crate::parse_span("[2025-01-01, 2025-01-02]").unwrap();
        let r = t.at_period(&p).unwrap();
        assert_eq!(
            r.as_text(),
            "[POINT(1 1)@2025-01-01 00:00:00+00, POINT(2 2)@2025-01-02 00:00:00+00]"
        );
    }

    #[test]
    fn trajectory_and_length() {
        let t = tg("[Point(0 0)@2025-01-01, Point(3 4)@2025-01-02, Point(3 8)@2025-01-03]");
        let traj = t.trajectory();
        assert_eq!(to_wkt(&traj, None), "LINESTRING(0 0,3 4,3 8)");
        assert_eq!(t.length(), 9.0);
        // Stationary → point.
        let still = tg("[Point(5 5)@2025-01-01, Point(5 5)@2025-01-02]");
        assert_eq!(to_wkt(&still.trajectory(), None), "POINT(5 5)");
        assert_eq!(still.length(), 0.0);
        // Discrete → multipoint.
        let disc = tg("{Point(0 0)@2025-01-01, Point(1 1)@2025-01-02}");
        assert_eq!(to_wkt(&disc.trajectory(), None), "MULTIPOINT(0 0,1 1)");
    }

    #[test]
    fn value_at_interpolates() {
        let t = tg("[Point(0 0)@2025-01-01, Point(10 0)@2025-01-03]");
        let g = t.value_at(ts("2025-01-02")).unwrap();
        assert_eq!(g.as_point().unwrap(), Point::new(5.0, 0.0));
        assert!(t.value_at(ts("2026-01-01")).is_none());
    }

    #[test]
    fn at_value_finds_passage() {
        let t = tg("[Point(0 0)@2025-01-01, Point(10 0)@2025-01-03]");
        let r = t.at_value(Point::new(5.0, 0.0)).unwrap();
        assert_eq!(r.temp.start_timestamp(), ts("2025-01-02"));
        assert!(t.at_value(Point::new(5.0, 1.0)).is_none());
    }

    #[test]
    fn at_geometry_polygon_clips() {
        // Move along y=5 from x=-5 to x=15; square [0,10]².
        let t = tg("[Point(-5 5)@2025-01-01, Point(15 5)@2025-01-05]");
        let square = parse_wkt("POLYGON((0 0,10 0,10 10,0 10,0 0))").unwrap();
        let r = t.at_geometry(&square).unwrap().unwrap();
        // Inside for fractions [0.25, 0.75] of 4 days → Jan 2 .. Jan 4.
        assert_eq!(r.temp.start_timestamp(), ts("2025-01-02"));
        assert_eq!(r.temp.end_timestamp(), ts("2025-01-04"));
        assert_eq!(r.length(), 10.0);
        // Fully outside → None.
        let far = parse_wkt("POLYGON((100 100,110 100,110 110,100 110,100 100))").unwrap();
        assert!(t.at_geometry(&far).unwrap().is_none());
    }

    #[test]
    fn at_stbox_restricts_both_dims() {
        let t = tg("[Point(-5 5)@2025-01-01, Point(15 5)@2025-01-05]");
        let b = crate::parse_stbox(
            "STBOX XT(((0,0),(10,10)),[2025-01-01, 2025-01-03])",
        )
        .unwrap();
        let r = t.at_stbox(&b).unwrap().unwrap();
        assert_eq!(r.temp.start_timestamp(), ts("2025-01-02"));
        assert_eq!(r.temp.end_timestamp(), ts("2025-01-03"));
    }

    #[test]
    fn tdistance_has_minimum_sample() {
        // Two points crossing: distance dips to 0 at the midpoint.
        let a = tg("[Point(0 0)@2025-01-01, Point(10 0)@2025-01-03]");
        let b = tg("[Point(10 0)@2025-01-01, Point(0 0)@2025-01-03]");
        let d = a.tdistance(&b).unwrap();
        assert_eq!(d.value_at(ts("2025-01-02")), Some(0.0));
        assert_eq!(d.start_value(), 10.0);
        assert_eq!(d.end_value(), 10.0);
        assert_eq!(d.min_value(), 0.0);
    }

    #[test]
    fn tdwithin_exact_interval() {
        // Head-on at combined speed 10 units/day, within 2.5 → |20 - 10t| ≤ 2.5
        // Wait: relative position 10-2*5t... use the crossing setup above.
        let a = tg("[Point(0 0)@2025-01-01, Point(10 0)@2025-01-03]");
        let b = tg("[Point(10 0)@2025-01-01, Point(0 0)@2025-01-03]");
        // Relative distance: |10 - 10u·2|? c = -10, v = +20 per 2 days.
        let w = a.tdwithin(&b, 2.0).unwrap();
        let ps = w.when_true().unwrap();
        assert_eq!(ps.num_spans(), 1);
        // |−10 + 20u| ≤ 2 → u ∈ [0.4, 0.6] of 2 days → ±4.8h around Jan 2.
        assert_eq!(ps.spans()[0].lower, ts("2025-01-01 19:12:00"));
        assert_eq!(ps.spans()[0].upper, ts("2025-01-02 04:48:00"));
        assert!(a.edwithin(&b, 2.0));
        assert!(!a.adwithin(&b, 2.0));
        // Never within 0.0... actually they touch exactly at u=0.5.
        assert!(a.edwithin(&b, 0.0));
    }

    #[test]
    fn tdwithin_parallel_never_within() {
        let a = tg("[Point(0 0)@2025-01-01, Point(10 0)@2025-01-03]");
        let b = tg("[Point(0 5)@2025-01-01, Point(10 5)@2025-01-03]");
        let w = a.tdwithin(&b, 2.0).unwrap();
        assert!(w.when_true().is_none());
        assert!(!a.edwithin(&b, 2.0));
        assert!(a.edwithin(&b, 5.0));
        assert!(a.adwithin(&b, 5.0)); // constant distance 5 ≤ 5
    }

    #[test]
    fn eintersects_static_geometry() {
        let t = tg("[Point(-5 5)@2025-01-01, Point(15 5)@2025-01-05]");
        let square = parse_wkt("POLYGON((0 0,10 0,10 10,0 10,0 0))").unwrap();
        assert!(t.eintersects(&square));
        let far = parse_wkt("POLYGON((100 100,110 100,110 110,100 110,100 100))").unwrap();
        assert!(!t.eintersects(&far));
        assert!(t.edwithin_geo(&far, 200.0));
    }

    #[test]
    fn always_inside_sees_a_notch() {
        let notched = parse_wkt("POLYGON((0 0,10 0,10 10,3 10,3 5,2 5,2 10,0 10,0 0))").unwrap();
        // Both ends are covered, but the move crosses the notch at x in [2, 3].
        let across = tg("[Point(1 8)@2025-01-01, Point(6 8)@2025-01-02]");
        assert!(!across.always_inside(&notched));
        let below = tg("[Point(1 4)@2025-01-01, Point(6 4)@2025-01-02]");
        assert!(below.always_inside(&notched));
        // A step sequence is only ever at its instants.
        let jump = tg("Interp=Step;[Point(1 8)@2025-01-01, Point(6 8)@2025-01-02]");
        assert!(jump.always_inside(&notched));
        // Along line segments, across the vertex between two of them.
        let road = parse_wkt("LINESTRING(0 0,3 0,10 0,10 5)").unwrap();
        assert!(tg("[Point(1 0)@2025-01-01, Point(8 0)@2025-01-02]").always_inside(&road));
        assert!(!tg("[Point(8 0)@2025-01-01, Point(10 2)@2025-01-02]").always_inside(&road));
        // Two polygons sharing an edge cover a move across it.
        let pair = parse_wkt(
            "GEOMETRYCOLLECTION(POLYGON((0 0,5 0,5 5,0 5,0 0)),POLYGON((5 0,9 0,9 5,5 5,5 0)))",
        )
        .unwrap();
        assert!(tg("[Point(1 1)@2025-01-01, Point(8 4)@2025-01-02]").always_inside(&pair));
    }

    #[test]
    fn speed_step_values() {
        // 10 units in 1 day, then stationary for 1 day.
        let t = tg("[Point(0 0)@2025-01-01, Point(10 0)@2025-01-02, Point(10 0)@2025-01-03]");
        let s = t.speed().unwrap();
        let day_secs = 86_400.0;
        assert!((s.start_value() - 10.0 / day_secs).abs() < 1e-12);
        assert_eq!(s.value_at(ts("2025-01-02 12:00:00")), Some(0.0));
    }

    #[test]
    fn ewkt_includes_srid() {
        let t = parse_tgeompoint("SRID=4326;[Point(1 1)@2025-01-01, Point(2 2)@2025-01-02]")
            .unwrap();
        assert_eq!(t.srid, 4326);
        assert!(t.as_ewkt().starts_with("SRID=4326;["));
        assert!(!t.as_text().contains("SRID"));
    }
}
