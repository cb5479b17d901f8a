//! Synchronization of two temporal values onto a common timeline — the
//! machinery beneath every binary temporal operator (`tDwithin`,
//! `tdistance`, temporal comparisons, `tand`/`tor`).

use crate::span::TstzSpan;
use crate::temporal::{Interp, TSequence, TValue, Temporal};
use crate::time::TimestampTz;

/// A stretch of time where both operands are defined, sampled at the union
/// of their instants. Between consecutive samples each operand moves
/// according to its own interpolation.
#[derive(Debug, Clone)]
pub struct SyncedSeq<A: TValue, B: TValue> {
    pub lower_inc: bool,
    pub upper_inc: bool,
    pub interp_a: Interp,
    pub interp_b: Interp,
    /// `(t, a(t), b(t))` at every distinct instant of either operand that
    /// falls in the common period, plus the period bounds themselves.
    pub samples: Vec<(TimestampTz, A, B)>,
}

impl<A: TValue, B: TValue> SyncedSeq<A, B> {
    /// The closed bounding period of the synced stretch.
    pub fn period(&self) -> TstzSpan {
        TstzSpan {
            lower: self.samples[0].0,
            upper: self.samples.last().unwrap().0,
            lower_inc: self.lower_inc,
            upper_inc: self.upper_inc || self.samples.len() == 1,
        }
    }
}

/// Synchronize two temporal values. Returns one [`SyncedSeq`] per stretch
/// of time where both are defined (empty when they never overlap).
///
/// Discrete operands contribute degenerate single-sample stretches at the
/// instants where the other operand is also defined.
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
    // Discrete operands: only shared instants are defined.
    if sa.interp == Interp::Discrete || sb.interp == Interp::Discrete {
        for ia in sa.instants() {
            let (va, vb) = match (sa.interp, sb.interp) {
                (Interp::Discrete, _) => {
                    let Some(vb) = sb.value_at(ia.t) else { continue };
                    (ia.value.clone(), vb)
                }
                _ => unreachable!("outer loop iterates the discrete side"),
            };
            out.push(SyncedSeq {
                lower_inc: true,
                upper_inc: true,
                interp_a: Interp::Discrete,
                interp_b: Interp::Discrete,
                samples: vec![(ia.t, va, vb)],
            });
        }
        // When only sb is discrete, swap roles by sampling sa at sb's
        // instants (the branch above handled sa discrete).
        if sa.interp != Interp::Discrete {
            for ib in sb.instants() {
                let Some(va) = sa.value_at(ib.t) else { continue };
                out.push(SyncedSeq {
                    lower_inc: true,
                    upper_inc: true,
                    interp_a: Interp::Discrete,
                    interp_b: Interp::Discrete,
                    samples: vec![(ib.t, va, ib.value.clone())],
                });
            }
        }
        return;
    }

    let Some(ix) = sa.period().intersection(&sb.period()) else {
        return;
    };
    // Merged timeline: period bounds plus all interior instants of both.
    let mut times: Vec<TimestampTz> = Vec::with_capacity(sa.num_instants() + sb.num_instants());
    times.push(ix.lower);
    for i in sa.instants() {
        if i.t > ix.lower && i.t < ix.upper {
            times.push(i.t);
        }
    }
    for i in sb.instants() {
        if i.t > ix.lower && i.t < ix.upper {
            times.push(i.t);
        }
    }
    if ix.upper > ix.lower {
        times.push(ix.upper);
    }
    times.sort();
    times.dedup();
    let samples: Vec<(TimestampTz, A, B)> = times
        .into_iter()
        .map(|t| (t, sa.interpolate_raw(t), sb.interpolate_raw(t)))
        .collect();
    out.push(SyncedSeq {
        lower_inc: ix.lower_inc,
        upper_inc: ix.upper_inc,
        interp_a: sa.interp,
        interp_b: sb.interp,
        samples,
    });
}

/// Lift a binary function over two synchronized temporals, producing a new
/// temporal sampled at the merged instants (sufficient for step results;
/// linear-result turning points must be added by the caller, as
/// `tdistance` does).
pub fn lift_binary<A, B, C>(
    a: &Temporal<A>,
    b: &Temporal<B>,
    interp_out: Interp,
    f: impl Fn(&A, &B) -> C,
) -> Option<Temporal<C>>
where
    A: TValue,
    B: TValue,
    C: TValue,
{
    let synced = synchronize(a, b);
    let mut seqs: Vec<TSequence<C>> = Vec::new();
    for s in synced {
        let instants: Vec<crate::temporal::TInstant<C>> = s
            .samples
            .iter()
            .map(|(t, va, vb)| crate::temporal::TInstant::new(f(va, vb), *t))
            .collect();
        let interp = if s.samples.len() == 1 { Interp::Discrete } else { interp_out };
        if let Ok(seq) = TSequence::new(instants, s.lower_inc, s.upper_inc, interp) {
            seqs.push(seq);
        }
    }
    Temporal::from_sequences(seqs).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::parse_tfloat;
    use crate::time::parse_timestamp;

    fn ts(s: &str) -> TimestampTz {
        parse_timestamp(s).unwrap()
    }

    #[test]
    fn synchronize_merges_timelines() {
        let a = parse_tfloat("[0@2025-01-01, 10@2025-01-03]").unwrap();
        let b = parse_tfloat("[100@2025-01-02, 200@2025-01-04]").unwrap();
        let synced = synchronize(&a, &b);
        assert_eq!(synced.len(), 1);
        let s = &synced[0];
        // Common period [01-02, 01-03]; samples at both bounds.
        assert_eq!(s.samples.len(), 2);
        assert_eq!(s.samples[0].0, ts("2025-01-02"));
        assert_eq!(s.samples[0].1, 5.0); // a interpolated
        assert_eq!(s.samples[0].2, 100.0);
        assert_eq!(s.samples[1].0, ts("2025-01-03"));
        assert_eq!(s.samples[1].1, 10.0);
        assert_eq!(s.samples[1].2, 150.0);
    }

    #[test]
    fn synchronize_disjoint_is_empty() {
        let a = parse_tfloat("[0@2025-01-01, 1@2025-01-02]").unwrap();
        let b = parse_tfloat("[0@2025-02-01, 1@2025-02-02]").unwrap();
        assert!(synchronize(&a, &b).is_empty());
    }

    #[test]
    fn synchronize_interior_instants() {
        let a = parse_tfloat("[0@2025-01-01, 4@2025-01-05]").unwrap();
        let b = parse_tfloat("[0@2025-01-01, 1@2025-01-02, 8@2025-01-05]").unwrap();
        let synced = synchronize(&a, &b);
        assert_eq!(synced.len(), 1);
        // Timeline: 01, 02 (from b), 05.
        assert_eq!(synced[0].samples.len(), 3);
    }

    #[test]
    fn synchronize_discrete_with_sequence() {
        let a = parse_tfloat("{1@2025-01-02, 2@2025-01-10}").unwrap();
        let b = parse_tfloat("[0@2025-01-01, 10@2025-01-03]").unwrap();
        let synced = synchronize(&a, &b);
        // Only 01-02 falls inside b.
        assert_eq!(synced.len(), 1);
        assert_eq!(synced[0].samples.len(), 1);
        assert_eq!(synced[0].samples[0].1, 1.0);
        assert_eq!(synced[0].samples[0].2, 5.0);
    }

    #[test]
    fn lift_binary_adds() {
        let a = parse_tfloat("[0@2025-01-01, 10@2025-01-03]").unwrap();
        let b = parse_tfloat("[1@2025-01-01, 1@2025-01-03]").unwrap();
        let sum = lift_binary(&a, &b, Interp::Linear, |x, y| x + y).unwrap();
        assert_eq!(sum.value_at(ts("2025-01-02")), Some(6.0));
        assert_eq!(sum.start_value(), 1.0);
        assert_eq!(sum.end_value(), 11.0);
    }
}
