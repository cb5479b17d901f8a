//! Synchronization of two temporal values onto a common timeline — the
//! machinery beneath every binary temporal operator (`tDwithin`,
//! `tdistance`, temporal comparisons, `tand`/`tor`).

use std::ops::ControlFlow;

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
/// of time where both are defined (empty when they never overlap): the
/// stretches [`walk_synced`] visits, in time order.
///
/// Discrete operands contribute degenerate single-sample stretches at the
/// instants where the other operand is also defined.
pub fn synchronize<A: TValue, B: TValue>(
    a: &Temporal<A>,
    b: &Temporal<B>,
) -> Vec<SyncedSeq<A, B>> {
    let mut collect = Collect(Vec::new());
    let _ = walk_synced(a, b, &mut collect);
    collect.0
}

/// Collects each stretch's samples into a [`SyncedSeq`].
struct Collect<A: TValue, B: TValue>(Vec<SyncedSeq<A, B>>);

impl<A: TValue, B: TValue> SyncVisitor<A, B> for Collect<A, B> {
    fn start(&mut self, s: &Stretch, first: &Sample<A, B>) -> ControlFlow<()> {
        self.0.push(SyncedSeq {
            lower_inc: s.period.lower_inc,
            upper_inc: s.period.upper_inc,
            interp_a: s.interp_a,
            interp_b: s.interp_b,
            samples: vec![first.clone()],
        });
        ControlFlow::Continue(())
    }

    fn step(&mut self, _: &Stretch, _: &Sample<A, B>, to: &Sample<A, B>) -> ControlFlow<()> {
        if let Some(last) = self.0.last_mut() {
            last.samples.push(to.clone());
        }
        ControlFlow::Continue(())
    }
}

/// One synchronized sample: a time and both operands' values at it.
pub type Sample<A, B> = (TimestampTz, A, B);

/// A stretch of time where both operands are defined, as [`walk_synced`]
/// visits it.
#[derive(Debug, Clone, Copy)]
pub struct Stretch {
    /// One instant, or a longer span over which both operands are
    /// continuous.
    pub period: TstzSpan,
    /// How each operand moves between samples (`Discrete` for both at an
    /// instant a discrete operand shares with the other).
    pub interp_a: Interp,
    pub interp_b: Interp,
}

impl Stretch {
    /// Is the stretch a single instant (one sample, no step)?
    pub fn is_instant(&self) -> bool {
        self.period.lower == self.period.upper
    }
}

/// What [`walk_synced`] calls, stretch by stretch, in time order. Any
/// call stops the walk by returning `Break`.
///
/// `step` runs once per synchronized segment, in the walk's inner loop.
/// An implementation that does real work there should mark it, and what
/// it calls per segment, `#[inline(always)]`: otherwise each segment pays
/// a call with its samples in memory, which doubled the time of an
/// `eDwithin` walk.
pub trait SyncVisitor<A, B> {
    /// A stretch begins at its first sample.
    fn start(&mut self, _stretch: &Stretch, _first: &Sample<A, B>) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    /// The next sample `to` of the stretch after `from`: a synchronized
    /// segment, over which each operand moves by its own interpolation.
    fn step(
        &mut self,
        _stretch: &Stretch,
        _from: &Sample<A, B>,
        _to: &Sample<A, B>,
    ) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    /// The stretch ends; its last sample came before.
    fn end(&mut self, _stretch: &Stretch) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

/// Walk the stretches of time where both `a` and `b` are defined, sampled
/// at the stretch bounds and at every instant of either operand strictly
/// inside them, without collecting the samples. Stops at the first
/// `Break` of `v`, and reports whether it did.
///
/// Continuous operands are merged sequence by sequence, each pair's
/// instants in place. A discrete operand is defined only at its instants,
/// so it gives a one-sample stretch at each of them where the other
/// operand is defined.
pub fn walk_synced<A: TValue, B: TValue>(
    a: &Temporal<A>,
    b: &Temporal<B>,
    v: &mut impl SyncVisitor<A, B>,
) -> ControlFlow<()> {
    let (sas, sbs) = (a.as_sequences(), b.as_sequences());
    // A discrete value is a single sequence.
    if sas.iter().any(|s| s.interp == Interp::Discrete) {
        for sb in sbs.iter() {
            for ia in sas[0].instants() {
                if let Some(vb) = sb.value_at(ia.t) {
                    shared_instant(v, (ia.t, ia.value.clone(), vb))?;
                }
            }
        }
        return ControlFlow::Continue(());
    }
    if sbs.iter().any(|s| s.interp == Interp::Discrete) {
        for sa in sas.iter() {
            for ib in sbs[0].instants() {
                if let Some(va) = sa.value_at(ib.t) {
                    shared_instant(v, (ib.t, va, ib.value.clone()))?;
                }
            }
        }
        return ControlFlow::Continue(());
    }
    // Both continuous: intersect the two ordered, disjoint sequence lists.
    let (mut i, mut j) = (0, 0);
    while let (Some(sa), Some(sb)) = (sas.get(i), sbs.get(j)) {
        let (pa, pb) = (sa.period(), sb.period());
        if let Some(period) = pa.intersection(&pb) {
            let stretch = Stretch { period, interp_a: sa.interp, interp_b: sb.interp };
            walk_pair(sa, sb, &stretch, v)?;
        }
        // Move past whichever sequence ends first.
        let a_first = match pa.upper.cmp(&pb.upper) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => !pa.upper_inc || pb.upper_inc,
        };
        if a_first {
            i += 1;
        } else {
            j += 1;
        }
    }
    ControlFlow::Continue(())
}

/// Report the one-sample stretch at an instant a discrete operand shares
/// with the other.
fn shared_instant<A: TValue, B: TValue>(
    v: &mut impl SyncVisitor<A, B>,
    sample: Sample<A, B>,
) -> ControlFlow<()> {
    let stretch = Stretch {
        period: TstzSpan::singleton(sample.0),
        interp_a: Interp::Discrete,
        interp_b: Interp::Discrete,
    };
    v.start(&stretch, &sample)?;
    v.end(&stretch)
}

/// Walk the stretch where continuous sequences `sa` and `sb` are both
/// defined: its bounds and every instant of either strictly inside it, in
/// time order. Each operand's value at a sample comes from the instant at
/// it, else from the two around it.
fn walk_pair<A: TValue, B: TValue>(
    sa: &TSequence<A>,
    sb: &TSequence<B>,
    stretch: &Stretch,
    v: &mut impl SyncVisitor<A, B>,
) -> ControlFlow<()> {
    let ix = &stretch.period;
    let (ia, ib) = (sa.instants(), sb.instants());
    // The first instant of each at or after the current sample.
    let mut i = ia.partition_point(|x| x.t < ix.lower);
    let mut j = ib.partition_point(|x| x.t < ix.lower);
    let mut t = ix.lower;
    let mut prev = (t, sa.interpolate_at(i, t), sb.interpolate_at(j, t));
    v.start(stretch, &prev)?;
    while t < ix.upper {
        while ia[i].t <= t {
            i += 1;
        }
        while ib[j].t <= t {
            j += 1;
        }
        t = ia[i].t.min(ib[j].t).min(ix.upper);
        let next = (t, sa.interpolate_at(i, t), sb.interpolate_at(j, t));
        v.step(stretch, &prev, &next)?;
        prev = next;
    }
    v.end(stretch)
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
