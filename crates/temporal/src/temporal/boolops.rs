//! Operations on `tbool` and temporal comparisons: `whenTrue`, negation,
//! synchronized and/or, and `tfloat`-vs-constant comparisons with exact
//! crossing instants (the building blocks of Query 10).

use crate::spanset::TstzSpanSet;
use crate::temporal::{
    lift_binary, Interp, SolveCrossing, TBool, TInstant, TSequence, TValue, Temporal,
};
use crate::time::TimestampTz;

impl TBool {
    /// The time when the value is `true`, as a period set (`whenTrue`);
    /// `None` when it never is. Step semantics: a `true` instant holds
    /// until the next instant.
    pub fn when_true(&self) -> Option<TstzSpanSet> {
        self.at_value(&true).map(|t| t.time())
    }

    /// Logical negation, preserving shape.
    pub fn tnot(&self) -> TBool {
        self.map_values(|v| !v)
    }

    /// Synchronized conjunction.
    pub fn tand(&self, other: &TBool) -> Option<TBool> {
        lift_binary(self, other, Interp::Step, |a, b| *a && *b)
    }

    /// Synchronized disjunction.
    pub fn tor(&self, other: &TBool) -> Option<TBool> {
        lift_binary(self, other, Interp::Step, |a, b| *a || *b)
    }

    /// Is the value ever `true`?
    pub fn ever_true(&self) -> bool {
        self.instants().iter().any(|i| i.value)
    }

    /// Is the value always `true`?
    pub fn always_true(&self) -> bool {
        self.instants().iter().all(|i| i.value)
    }
}

impl<V: TValue> Temporal<V> {
    /// Map every instant value through `f`, preserving structure.
    pub fn map_values<W: TValue>(&self, f: impl Fn(&V) -> W + Copy) -> Temporal<W> {
        let map_seq = |s: &TSequence<V>| {
            TSequence::new(
                s.instants()
                    .iter()
                    .map(|i| TInstant::new(f(&i.value), i.t))
                    .collect(),
                s.lower_inc,
                s.upper_inc,
                if s.interp == Interp::Linear && !W::CAN_LINEAR {
                    Interp::Step
                } else {
                    s.interp
                },
            )
            .expect("mapping preserves timestamps")
        };
        match self {
            Temporal::Instant(i) => Temporal::Instant(TInstant::new(f(&i.value), i.t)),
            Temporal::Sequence(s) => Temporal::Sequence(map_seq(s)),
            Temporal::SequenceSet(ss) => Temporal::from_sequences(
                ss.sequences().iter().map(map_seq).collect(),
            )
            .expect("non-empty"),
        }
    }
}

/// Temporal comparison of a `tfloat` against a constant, producing a
/// `tbool` with exact crossing instants on linear segments.
///
/// `cmp` receives the (possibly interpolated) value and must return the
/// boolean; `crossing_value` is the threshold at which linear segments
/// change truth (pass the constant itself).
pub fn tfloat_cmp_const(
    t: &Temporal<f64>,
    threshold: f64,
    cmp: impl Fn(f64) -> bool + Copy,
) -> TBool {
    let mut seqs: Vec<TSequence<bool>> = Vec::new();
    for s in t.as_sequences().iter() {
        let instants = s.instants();
        if s.interp != Interp::Linear || instants.len() == 1 {
            // Step/discrete: truth changes only at instants.
            let mapped: Vec<TInstant<bool>> = instants
                .iter()
                .map(|i| TInstant::new(cmp(i.value), i.t))
                .collect();
            seqs.push(
                TSequence::new(mapped, s.lower_inc, s.upper_inc, s.interp)
                    .expect("same timestamps"),
            );
            continue;
        }
        // Linear: insert crossing instants where the segment meets the
        // threshold, then classify each slice by its midpoint and each
        // boundary instant exactly; assemble per-piece sequences so truth
        // can flip immediately after a touching instant.
        let mut times: Vec<TimestampTz> = instants.iter().map(|i| i.t).collect();
        for w in instants.windows(2) {
            if let Some(frac) = f64::solve_crossing(&w[0].value, &w[1].value, &threshold) {
                let t0 = w[0].t.0;
                let t1 = w[1].t.0;
                times.push(TimestampTz(t0 + ((t1 - t0) as f64 * frac).round() as i64));
            }
        }
        times.sort();
        times.dedup();
        let mut true_spans: Vec<crate::span::TstzSpan> = Vec::new();
        for w in times.windows(2) {
            let mid = TimestampTz((w[0].0 + w[1].0) / 2);
            if cmp(s.interpolate_raw(mid)) {
                // Bound inclusivity comes from evaluating the comparison at
                // the slice endpoints: a strict threshold crossing leaves
                // the bound open.
                let lower_inc = cmp(s.interpolate_raw(w[0]));
                let upper_inc = cmp(s.interpolate_raw(w[1]));
                true_spans.push(
                    crate::span::TstzSpan::new(w[0], w[1], lower_inc, upper_inc)
                        .expect("ordered"),
                );
            }
        }
        for &t in &times {
            if cmp(s.interpolate_raw(t)) {
                true_spans.push(crate::span::TstzSpan::singleton(t));
            }
        }
        seqs.extend(crate::temporal::spatial_tbool_from_intervals(
            &s.period(),
            true_spans,
        ));
    }
    Temporal::from_sequences(seqs).expect("input was non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::{parse_tbool, parse_tfloat};

    #[test]
    fn when_true_extracts_periods() {
        let t = parse_tbool("[t@2025-01-01, f@2025-01-02, t@2025-01-03, t@2025-01-04]").unwrap();
        let ps = t.when_true().unwrap();
        assert_eq!(ps.num_spans(), 2);
        assert_eq!(
            ps.to_string(),
            "{[2025-01-01 00:00:00+00, 2025-01-02 00:00:00+00), \
             [2025-01-03 00:00:00+00, 2025-01-04 00:00:00+00]}"
        );
        let never = parse_tbool("[f@2025-01-01, f@2025-01-02]").unwrap();
        assert!(never.when_true().is_none());
    }

    #[test]
    fn tnot_tand_tor() {
        let a = parse_tbool("[t@2025-01-01, f@2025-01-02, f@2025-01-03]").unwrap();
        let b = parse_tbool("[t@2025-01-01, t@2025-01-03]").unwrap();
        assert!(a.tnot().ever_true());
        let and = a.tand(&b).unwrap();
        assert_eq!(and.value_at(crate::parse_timestamp("2025-01-01").unwrap()), Some(true));
        assert_eq!(
            and.value_at(crate::parse_timestamp("2025-01-02 12:00:00").unwrap()),
            Some(false)
        );
        let or = a.tor(&b).unwrap();
        assert!(or.always_true());
    }

    #[test]
    fn tfloat_cmp_finds_crossings() {
        // Distance-like curve: 10 → 0 → 10 over two days.
        let t = parse_tfloat("[10@2025-01-01, 0@2025-01-02, 10@2025-01-03]").unwrap();
        let within = tfloat_cmp_const(&t, 3.0, |v| v <= 3.0);
        let ps = within.when_true().unwrap();
        assert_eq!(ps.num_spans(), 1);
        let span = ps.spans()[0];
        // 10→0 crosses 3 at frac 0.7 of day one.
        let expected_start = crate::parse_timestamp("2025-01-01 16:48:00").unwrap();
        let expected_end = crate::parse_timestamp("2025-01-02 07:12:00").unwrap();
        assert_eq!(span.lower, expected_start);
        assert_eq!(span.upper, expected_end);
    }

    #[test]
    fn map_values_changes_type() {
        let t = parse_tfloat("[1.5@2025-01-01, 2.5@2025-01-02]").unwrap();
        let rounded: Temporal<i64> = t.map_values(|v| v.round() as i64);
        // Linear source becomes step (ints cannot be linear).
        assert_eq!(rounded.interp(), Interp::Step);
        assert_eq!(rounded.start_value(), 2);
    }
}
