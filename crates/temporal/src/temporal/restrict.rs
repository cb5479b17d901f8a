//! Restriction operators: `atTime`, `minusTime`, `atValues`,
//! `minusValues`, `atTimestamp` — the workhorses of the paper's queries
//! (Q3's `valueAtTimestamp`, Q7's `atValues`, `atTime` from §3.5).

use crate::error::TemporalResult;
use crate::span::TstzSpan;
use crate::spanset::TstzSpanSet;
use crate::temporal::{Interp, TInstant, TSequence, TValue, Temporal};
use crate::time::TimestampTz;

impl<V: TValue> TSequence<V> {
    /// Interpolated value at `t`, ignoring bound inclusivity (used to
    /// synthesize boundary instants when restricting). `t` must lie within
    /// `[start, end]`.
    pub(crate) fn interpolate_raw(&self, t: TimestampTz) -> V {
        debug_assert!(t >= self.start().t && t <= self.end().t);
        match self.instants().binary_search_by(|i| i.t.cmp(&t)) {
            Ok(idx) => self.instants()[idx].value.clone(),
            Err(idx) => {
                let a = &self.instants()[idx - 1];
                let b = &self.instants()[idx];
                match self.interp {
                    Interp::Step | Interp::Discrete => a.value.clone(),
                    Interp::Linear => {
                        let frac = (t.0 - a.t.0) as f64 / (b.t.0 - a.t.0) as f64;
                        V::lerp(&a.value, &b.value, frac)
                    }
                }
            }
        }
    }

    /// Restrict a sequence to a period; `None` when the result is empty.
    /// The kept instants are found by binary search.
    pub fn at_period(&self, p: &TstzSpan) -> Option<TSequence<V>> {
        let instants = self.instants();
        if self.interp == Interp::Discrete {
            // The instants inside `p` are one contiguous window.
            let lo = instants.partition_point(|i| i.t <= p.lower && !p.contains_value(i.t));
            let hi = lo + instants[lo..].partition_point(|i| p.contains_value(i.t));
            if lo == hi {
                return None;
            }
            let kept = instants[lo..hi].to_vec();
            return Some(TSequence::discrete(kept).expect("filtered instants stay ordered"));
        }
        let ix = self.period().intersection(p)?;
        // The instants strictly inside the intersection.
        let lo = instants.partition_point(|i| i.t <= ix.lower);
        let hi = lo.max(instants.partition_point(|i| i.t < ix.upper));
        let mut kept: Vec<TInstant<V>> = Vec::with_capacity(hi - lo + 2);
        // Boundary instant at the new lower bound.
        kept.push(TInstant::new(self.interpolate_raw(ix.lower), ix.lower));
        kept.extend_from_slice(&instants[lo..hi]);
        if ix.upper > ix.lower {
            kept.push(TInstant::new(self.interpolate_raw(ix.upper), ix.upper));
        }
        Some(
            TSequence::new(kept, ix.lower_inc, ix.upper_inc, self.interp)
                .expect("restriction preserves ordering"),
        )
    }
}

impl<V: TValue> Temporal<V> {
    /// Restrict to a period (`atTime(temp, tstzspan)`).
    pub fn at_period(&self, p: &TstzSpan) -> Option<Temporal<V>> {
        let seqs: Vec<TSequence<V>> = self
            .as_sequences()
            .iter()
            .filter_map(|s| s.at_period(p))
            .collect();
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
            match s.interp {
                Interp::Discrete => {
                    let kept: Vec<TInstant<V>> = s
                        .instants()
                        .iter()
                        .filter(|i| &i.value == v)
                        .cloned()
                        .collect();
                    if !kept.is_empty() {
                        out.push(TSequence::discrete(kept).expect("ordered"));
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

/// Step interpolation: maximal runs of instants with value `v` become
/// subsequences holding until the next change.
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
        // Run covers instants [run_start ..= i]; with step interpolation the
        // value holds until the *next* instant (exclusive) or sequence end.
        let mut kept: Vec<TInstant<V>> = instants[run_start..=i].to_vec();
        let lower_inc = if run_start == 0 { s.lower_inc } else { true };
        let (upper_inc, upper_t) = if i + 1 < n {
            (false, Some(instants[i + 1].t))
        } else {
            (s.upper_inc, None)
        };
        if let Some(ut) = upper_t {
            kept.push(TInstant::new(v.clone(), ut));
        }
        if kept.len() == 1 {
            out.push(
                TSequence::new(kept, true, true, Interp::Step).expect("singleton sequence"),
            );
        } else {
            out.push(
                TSequence::new(kept, lower_inc, upper_inc, Interp::Step)
                    .expect("run instants ordered"),
            );
        }
        i += 1;
    }
}

/// Linear interpolation: equality holds on constant segments equal to `v`,
/// at instants whose value is `v`, and at interior crossings.
fn linear_pieces_equal<V: TValue + SolveCrossing>(
    s: &TSequence<V>,
    v: &V,
    out: &mut Vec<TSequence<V>>,
) {
    let instants = s.instants();
    let n = instants.len();
    fn push_instant<V: TValue>(
        out: &mut Vec<TSequence<V>>,
        interp: Interp,
        val: V,
        t: TimestampTz,
    ) {
        out.push(
            TSequence::new(vec![TInstant::new(val, t)], true, true, interp)
                .expect("singleton"),
        );
    }
    let mut i = 0;
    while i < n {
        if &instants[i].value == v {
            // Extend over constant run equal to v.
            let run_start = i;
            while i + 1 < n && &instants[i + 1].value == v {
                i += 1;
            }
            if i > run_start {
                let kept = instants[run_start..=i].to_vec();
                let lower_inc = if run_start == 0 { s.lower_inc } else { true };
                let upper_inc = if i == n - 1 { s.upper_inc } else { true };
                out.push(
                    TSequence::new(kept, lower_inc, upper_inc, s.interp).expect("ordered run"),
                );
            } else {
                let included = (run_start > 0 || s.lower_inc)
                    && (run_start < n - 1 || s.upper_inc || n == 1);
                if included {
                    push_instant(out, s.interp, v.clone(), instants[run_start].t);
                }
            }
        } else if i + 1 < n {
            let a = &instants[i];
            let b = &instants[i + 1];
            if let Some(frac) = V::solve_crossing(&a.value, &b.value, v) {
                let t = TimestampTz(a.t.0 + ((b.t.0 - a.t.0) as f64 * frac).round() as i64);
                push_instant(out, s.interp, v.clone(), t);
            }
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
