//! Restriction operators: `atTime`, `minusTime`, `atValues`,
//! `minusValues`, `atTimestamp` — the workhorses of the paper's queries
//! (Q3's `valueAtTimestamp`, Q7's `atValues`, `atTime` from §3.5).

use crate::error::TemporalResult;
use crate::span::TstzSpan;
use crate::spanset::TstzSpanSet;
use crate::temporal::{Interp, TInstant, TSequence, TValue, Temporal, Window};
use crate::time::TimestampTz;

impl<V: TValue> TSequence<V> {
    /// Interpolated value at `t`, ignoring bound inclusivity (used to
    /// synthesize boundary instants when restricting). `t` must lie within
    /// `[start, end]`.
    pub(crate) fn interpolate_raw(&self, t: TimestampTz) -> V {
        debug_assert!(t >= self.start().t && t <= self.end().t);
        self.interpolate_at(self.instants().partition_point(|i| i.t < t), t)
    }

    /// [`TSequence::interpolate_raw`] at `t`, given `idx`, the index of
    /// the first instant at or after `t`: its value when it is at `t`,
    /// else the value between it and the instant before.
    pub(crate) fn interpolate_at(&self, idx: usize, t: TimestampTz) -> V {
        let instants = self.instants();
        if instants[idx].t == t {
            return instants[idx].value.clone();
        }
        let (a, b) = (&instants[idx - 1], &instants[idx]);
        match self.interp {
            Interp::Step | Interp::Discrete => a.value.clone(),
            Interp::Linear => {
                let frac = (t.0 - a.t.0) as f64 / (b.t.0 - a.t.0) as f64;
                V::lerp(&a.value, &b.value, frac)
            }
        }
    }

    /// Restrict a sequence to a period; `None` when the result is empty.
    /// The kept instants are found by binary search ([`Window::of`]).
    pub fn at_period(&self, p: &TstzSpan) -> Option<TSequence<V>> {
        Window::of(self, Some(p)).map(|w| w.to_sequence())
    }
}

impl<V: TValue> Temporal<V> {
    /// Restrict to a period (`atTime(temp, tstzspan)`).
    pub fn at_period(&self, p: &TstzSpan) -> Option<Temporal<V>> {
        let seqs = self.windows(Some(p)).map(|w| w.to_sequence()).collect();
        Temporal::from_sequences(seqs).ok()
    }

    /// Restrict to a period set (`atTime(temp, tstzspanset)`).
    pub fn at_periodset(&self, ps: &TstzSpanSet) -> Option<Temporal<V>> {
        let mut seqs: Vec<TSequence<V>> = Vec::new();
        for span in ps.spans() {
            for s in self.as_sequences().iter() {
                if let Some(r) = s.at_period(span) {
                    seqs.push(r);
                }
            }
        }
        seqs.sort_by_key(|s| s.start().t);
        Temporal::from_sequences(seqs).ok()
    }

    /// Complement restriction (`minusTime`): the parts outside `ps`.
    pub fn minus_periodset(&self, ps: &TstzSpanSet) -> Option<Temporal<V>> {
        let remaining = self.time().minus(ps)?;
        self.at_periodset(&remaining)
    }

    /// Complement restriction by a single period.
    pub fn minus_period(&self, p: &TstzSpan) -> Option<Temporal<V>> {
        self.minus_periodset(&TstzSpanSet::from_span(*p))
    }

    /// The instant at `t`, if the value is defined there.
    pub fn at_timestamp(&self, t: TimestampTz) -> Option<TInstant<V>> {
        self.value_at(t).map(|v| TInstant::new(v, t))
    }

    /// Restrict to the instants/periods where the value equals `v`
    /// (`atValues`). Works for every interpolation; linear types report
    /// crossings as single-instant sequences.
    pub fn at_value(&self, v: &V) -> Option<Temporal<V>>
    where
        V: SolveCrossing,
    {
        let mut out: Vec<TSequence<V>> = Vec::new();
        for s in self.as_sequences().iter() {
            value_pieces(s, v, &mut |piece| out.push(piece.to_sequence(v)));
        }
        out.sort_by_key(|s| s.start().t);
        out.dedup_by(|a, b| {
            a.num_instants() == 1 && b.num_instants() == 1 && a.start().t == b.start().t
        });
        Temporal::from_sequences(out).ok()
    }

    /// `startTimestamp(atValues(self, v))` without building the
    /// restriction: the time of the first piece of [`Temporal::at_value`],
    /// `None` where that is `None` — no piece, or pieces that do not form a
    /// valid sequence set. One pass over the pieces, in the order `at_value`
    /// sorts them into.
    pub fn at_value_start(&self, v: &V) -> Option<TimestampTz>
    where
        V: SolveCrossing,
    {
        let mut first = None;
        let mut last: Option<Piece<'_, V>> = None;
        let mut valid = true;
        for s in self.as_sequences().iter() {
            value_pieces(s, v, &mut |piece| {
                if let Some(prev) = &last {
                    if prev.len() == 1 && piece.len() == 1 && prev.start() == piece.start() {
                        return; // `at_value` dedups it
                    }
                    valid &= prev.period().left_of(&piece.period());
                }
                first.get_or_insert(piece.start());
                last = Some(piece);
            });
        }
        first.filter(|_| valid)
    }

    /// Restrict to several values at once.
    pub fn at_values(&self, vs: &[V]) -> Option<Temporal<V>>
    where
        V: SolveCrossing,
    {
        let mut seqs: Vec<TSequence<V>> = Vec::new();
        for v in vs {
            if let Some(t) = self.at_value(v) {
                seqs.extend(t.as_sequences().iter().cloned());
            }
        }
        seqs.sort_by_key(|s| s.start().t);
        seqs.dedup_by(|a, b| a.start().t == b.start().t && a.num_instants() == b.num_instants());
        Temporal::from_sequences(seqs).ok()
    }

    /// The parts where the value differs from `v` (`minusValues`).
    pub fn minus_value(&self, v: &V) -> Option<Temporal<V>>
    where
        V: SolveCrossing,
    {
        match self.at_value(v) {
            None => Some(self.clone()),
            Some(at) => {
                let remaining = self.time().minus(&at.time())?;
                self.at_periodset(&remaining)
            }
        }
    }
}

/// Crossing solver for linear interpolation: the fraction in `(0, 1)` at
/// which the segment `a → b` passes through `v`, when it does. Step-only
/// types never report crossings.
pub trait SolveCrossing: TValue {
    fn solve_crossing(_a: &Self, _b: &Self, _v: &Self) -> Option<f64> {
        None
    }
}

impl SolveCrossing for bool {}
impl SolveCrossing for i64 {}
impl SolveCrossing for String {}

impl SolveCrossing for f64 {
    fn solve_crossing(a: &Self, b: &Self, v: &Self) -> Option<f64> {
        if a == b {
            return None; // constant segments handled by equality
        }
        let frac = (v - a) / (b - a);
        (frac > 0.0 && frac < 1.0).then_some(frac)
    }
}

impl SolveCrossing for mduck_geo::Point {
    fn solve_crossing(a: &Self, b: &Self, v: &Self) -> Option<f64> {
        let d = *b - *a;
        let len_sq = d.dot(d);
        if len_sq == 0.0 {
            return None;
        }
        let frac = (*v - *a).dot(d) / len_sq;
        if frac <= 0.0 || frac >= 1.0 {
            return None;
        }
        // The point must actually lie on the segment.
        let on = a.lerp(b, frac);
        (on.close_to(v, 1e-9)).then_some(frac)
    }
}

/// One piece of [`Temporal::at_value`]'s result.
enum Piece<'a, V: TValue> {
    /// The instants of a discrete sequence equal to the value: `len` of
    /// them, from `first` to `last`.
    Matching { instants: &'a [TInstant<V>], len: usize, first: TimestampTz, last: TimestampTz },
    /// A run of instants equal to the value; with step interpolation the
    /// value holds `until` the next instant.
    Run {
        instants: &'a [TInstant<V>],
        until: Option<TimestampTz>,
        lower_inc: bool,
        upper_inc: bool,
        interp: Interp,
    },
    /// The value at one instant: an isolated instant or a crossing.
    At(TimestampTz, Interp),
}

impl<V: TValue> Piece<'_, V> {
    fn len(&self) -> usize {
        match self {
            Piece::Matching { len, .. } => *len,
            Piece::Run { instants, until, .. } => instants.len() + usize::from(until.is_some()),
            Piece::At(..) => 1,
        }
    }

    fn start(&self) -> TimestampTz {
        match self {
            Piece::Matching { first, .. } => *first,
            Piece::Run { instants, .. } => instants[0].t,
            Piece::At(t, _) => *t,
        }
    }

    /// The bounding period of [`Piece::to_sequence`].
    fn period(&self) -> TstzSpan {
        let (upper, lower_inc, upper_inc) = match self {
            Piece::Matching { last, .. } => (*last, true, true),
            Piece::Run { instants, until, lower_inc, upper_inc, .. } => {
                let single = self.len() == 1;
                let upper = until.unwrap_or(instants[instants.len() - 1].t);
                (upper, *lower_inc || single, *upper_inc || single)
            }
            Piece::At(t, _) => (*t, true, true),
        };
        TstzSpan { lower: self.start(), upper, lower_inc, upper_inc }
    }

    fn to_sequence(&self, v: &V) -> TSequence<V> {
        match self {
            Piece::Matching { instants, .. } => {
                let kept = instants.iter().filter(|i| &i.value == v).cloned().collect();
                TSequence::discrete(kept).expect("ordered")
            }
            Piece::Run { instants, until, lower_inc, upper_inc, interp } => {
                let mut kept = instants.to_vec();
                kept.extend(until.map(|t| TInstant::new(v.clone(), t)));
                TSequence::new(kept, *lower_inc, *upper_inc, *interp).expect("ordered run")
            }
            Piece::At(t, interp) => {
                TSequence::new(vec![TInstant::new(v.clone(), *t)], true, true, *interp)
                    .expect("singleton")
            }
        }
    }
}

/// Visit the pieces of sequence `s` where its value equals `v`, in time
/// order.
///
/// - Discrete: the instants equal to `v`.
/// - Step: each maximal run of instants equal to `v`, holding until the
///   next change.
/// - Linear: equality holds on constant runs equal to `v`, at instants
///   whose value is `v`, and at interior crossings.
fn value_pieces<'a, V: TValue + SolveCrossing>(
    s: &'a TSequence<V>,
    v: &'a V,
    f: &mut impl FnMut(Piece<'a, V>),
) {
    let instants = s.instants();
    let n = instants.len();
    if s.interp == Interp::Discrete {
        let mut matches = instants.iter().filter(|i| &i.value == v);
        if let Some(first) = matches.next() {
            let (len, last) = matches.fold((1, first.t), |(n, _), i| (n + 1, i.t));
            f(Piece::Matching { instants, len, first: first.t, last });
        }
        return;
    }
    let mut i = 0;
    while i < n {
        if &instants[i].value != v {
            if s.interp == Interp::Linear && i + 1 < n {
                let (a, b) = (&instants[i], &instants[i + 1]);
                if let Some(frac) = V::solve_crossing(&a.value, &b.value, v) {
                    let t = TimestampTz(a.t.0 + ((b.t.0 - a.t.0) as f64 * frac).round() as i64);
                    f(Piece::At(t, s.interp));
                }
            }
            i += 1;
            continue;
        }
        let run_start = i;
        while i + 1 < n && &instants[i + 1].value == v {
            i += 1;
        }
        let lower_inc = run_start > 0 || s.lower_inc;
        let run = &instants[run_start..=i];
        if s.interp == Interp::Step {
            // The run holds until the *next* instant (exclusive) or the
            // sequence end.
            let (until, upper_inc) = match instants.get(i + 1) {
                Some(next) => (Some(next.t), false),
                None => (None, s.upper_inc),
            };
            f(Piece::Run { instants: run, until, lower_inc, upper_inc, interp: Interp::Step });
        } else if i > run_start {
            let upper_inc = i + 1 < n || s.upper_inc;
            f(Piece::Run { instants: run, until: None, lower_inc, upper_inc, interp: s.interp });
        } else if (run_start > 0 || s.lower_inc) && (run_start < n - 1 || s.upper_inc || n == 1) {
            f(Piece::At(instants[run_start].t, s.interp));
        }
        i += 1;
    }
}

/// Keep the error type reachable for doc examples.
#[allow(dead_code)]
fn _assert_result_alias(_r: TemporalResult<()>) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spanset::parse_periodset;
    use crate::temporal::{parse_tfloat, parse_tint};
    use crate::time::parse_timestamp;

    fn ts(s: &str) -> TimestampTz {
        parse_timestamp(s).unwrap()
    }
    fn period(s: &str) -> TstzSpan {
        crate::span::parse_span(s).unwrap()
    }

    #[test]
    fn at_period_linear_interpolates_bounds() {
        let t = parse_tfloat("[0@2025-01-01, 10@2025-01-03]").unwrap();
        let r = t.at_period(&period("[2025-01-01 12:00:00, 2025-01-02]")).unwrap();
        assert_eq!(r.start_value(), 2.5);
        assert_eq!(r.end_value(), 5.0);
        assert_eq!(r.start_timestamp(), ts("2025-01-01 12:00:00"));
        // Disjoint period → empty.
        assert!(t.at_period(&period("[2026-01-01, 2026-01-02]")).is_none());
    }

    #[test]
    fn at_period_discrete_filters() {
        let t = parse_tint("{1@2025-01-01, 2@2025-01-02, 3@2025-01-03}").unwrap();
        let r = t.at_period(&period("[2025-01-02, 2025-01-03)")).unwrap();
        assert_eq!(r.num_instants(), 1);
        assert_eq!(r.start_value(), 2);
    }

    #[test]
    fn at_periodset_multiple_pieces() {
        let t = parse_tfloat("[0@2025-01-01, 10@2025-01-11]").unwrap();
        let ps = parse_periodset("{[2025-01-02, 2025-01-03], [2025-01-05, 2025-01-06]}").unwrap();
        let r = t.at_periodset(&ps).unwrap();
        match &r {
            Temporal::SequenceSet(ss) => assert_eq!(ss.sequences().len(), 2),
            _ => panic!("expected a sequence set, got {r}"),
        }
        assert_eq!(r.value_at(ts("2025-01-02")), Some(1.0));
        assert_eq!(r.value_at(ts("2025-01-04")), None);
    }

    #[test]
    fn minus_period_cuts_a_hole() {
        let t = parse_tfloat("[0@2025-01-01, 10@2025-01-11]").unwrap();
        let r = t.minus_period(&period("[2025-01-03, 2025-01-05]")).unwrap();
        assert_eq!(r.value_at(ts("2025-01-02")), Some(1.0));
        assert_eq!(r.value_at(ts("2025-01-04")), None);
        assert_eq!(r.value_at(ts("2025-01-06")), Some(5.0));
        // The hole's bounds are excluded.
        assert_eq!(r.value_at(ts("2025-01-03")), None);
    }

    #[test]
    fn at_value_step_runs() {
        let t = parse_tint("[1@2025-01-01, 2@2025-01-02, 2@2025-01-03, 1@2025-01-04]").unwrap();
        let r = t.at_value(&2).unwrap();
        // Value 2 holds on [2025-01-02, 2025-01-04).
        let time = r.time();
        assert_eq!(time.num_spans(), 1);
        assert_eq!(
            time.spans()[0].to_string(),
            "[2025-01-02 00:00:00+00, 2025-01-04 00:00:00+00)"
        );
        // Value 1 holds at the start segment and the final instant.
        let r1 = t.at_value(&1).unwrap();
        assert_eq!(r1.time().num_spans(), 2);
    }

    #[test]
    fn at_value_linear_crossing() {
        let t = parse_tfloat("[0@2025-01-01, 10@2025-01-03]").unwrap();
        let r = t.at_value(&5.0).unwrap();
        assert_eq!(r.num_instants(), 1);
        assert_eq!(r.start_timestamp(), ts("2025-01-02"));
        // A value never reached.
        assert!(t.at_value(&11.0).is_none());
        // Endpoint values are found too.
        assert_eq!(t.at_value(&0.0).unwrap().start_timestamp(), ts("2025-01-01"));
    }

    #[test]
    fn at_value_linear_constant_segment() {
        let t = parse_tfloat("[5@2025-01-01, 5@2025-01-02, 8@2025-01-03]").unwrap();
        let r = t.at_value(&5.0).unwrap();
        assert_eq!(
            r.time().spans()[0].to_string(),
            "[2025-01-01 00:00:00+00, 2025-01-02 00:00:00+00]"
        );
    }

    #[test]
    fn minus_value_complements() {
        let t = parse_tint("[1@2025-01-01, 2@2025-01-02, 1@2025-01-03]").unwrap();
        let r = t.minus_value(&2).unwrap();
        assert_eq!(r.value_at(ts("2025-01-01 12:00:00")), Some(1));
        assert_eq!(r.value_at(ts("2025-01-02 12:00:00")), None);
        assert_eq!(r.value_at(ts("2025-01-03")), Some(1));
        // Removing an absent value is the identity.
        let same = t.minus_value(&9).unwrap();
        assert_eq!(same, t);
    }

    #[test]
    fn at_timestamp_returns_instant() {
        let t = parse_tfloat("[0@2025-01-01, 10@2025-01-03]").unwrap();
        let i = t.at_timestamp(ts("2025-01-02")).unwrap();
        assert_eq!(i.value, 5.0);
        assert!(t.at_timestamp(ts("2026-01-01")).is_none());
    }
}
