//! Windows: the instants of a temporal value inside a period, read in
//! place. `atTime` copies a window into a new value; the fused kernels
//! (`eIntersects` and `length` over a period) walk it without building
//! anything.

use crate::span::TstzSpan;
use crate::temporal::{Interp, TInstant, TSequence, TValue, Temporal};

/// The instants [`TSequence::at_period`] keeps of one sequence, without
/// copying them: for a continuous sequence, the value interpolated at the
/// lower bound of its intersection with the period (`head`), the instants
/// strictly inside it, and the value at its upper bound (`tail`) when the
/// intersection is longer than an instant; for a discrete one, the
/// instants inside the period. A whole sequence is its own window.
#[derive(Debug, Clone)]
pub struct Window<'a, V: TValue> {
    head: Option<TInstant<V>>,
    inner: &'a [TInstant<V>],
    tail: Option<TInstant<V>>,
    pub lower_inc: bool,
    pub upper_inc: bool,
    pub interp: Interp,
}

impl<'a, V: TValue> Window<'a, V> {
    /// The window of sequence `s` inside `p` (all of it when `p` is
    /// `None`); `None` when they do not meet.
    pub fn of(s: &'a TSequence<V>, p: Option<&TstzSpan>) -> Option<Self> {
        let whole = Window {
            head: None,
            inner: s.instants(),
            tail: None,
            lower_inc: s.lower_inc,
            upper_inc: s.upper_inc,
            interp: s.interp,
        };
        let Some(p) = p else { return Some(whole) };
        if s.interp == Interp::Discrete {
            return Window::discrete(s.instants(), p);
        }
        let instants = s.instants();
        let ix = s.period().intersection(p)?;
        // The instants strictly inside the intersection.
        let lo = instants.partition_point(|i| i.t <= ix.lower);
        let hi = lo.max(instants.partition_point(|i| i.t < ix.upper));
        let at = |t| TInstant::new(s.interpolate_raw(t), t);
        Some(Window {
            head: Some(at(ix.lower)),
            inner: &instants[lo..hi],
            tail: (ix.upper > ix.lower).then(|| at(ix.upper)),
            lower_inc: ix.lower_inc,
            upper_inc: ix.upper_inc,
            interp: s.interp,
        })
    }

    /// The discrete `instants` inside `p`, one contiguous run.
    fn discrete(instants: &'a [TInstant<V>], p: &TstzSpan) -> Option<Self> {
        let lo = instants.partition_point(|i| i.t <= p.lower && !p.contains_value(i.t));
        let hi = lo + instants[lo..].partition_point(|i| p.contains_value(i.t));
        (lo < hi).then_some(Window {
            head: None,
            inner: &instants[lo..hi],
            tail: None,
            lower_inc: true,
            upper_inc: true,
            interp: Interp::Discrete,
        })
    }

    /// The number of instants (at least one).
    pub(crate) fn len(&self) -> usize {
        self.inner.len() + usize::from(self.head.is_some()) + usize::from(self.tail.is_some())
    }

    /// The instants in time order: the interpolated head, the instants in
    /// place and the interpolated tail.
    pub fn instants(&self) -> impl Iterator<Item = &TInstant<V>> + '_ {
        [self.head.as_slice(), self.inner, self.tail.as_slice()].into_iter().flatten()
    }

    /// Does the window draw a line: linear, over two or more instants?
    pub fn is_line(&self) -> bool {
        self.interp == Interp::Linear && self.len() > 1
    }

    /// The window copied into a sequence: `TSequence::at_period`'s result.
    pub fn to_sequence(&self) -> TSequence<V> {
        let instants = self.instants().cloned().collect();
        TSequence::new(instants, self.lower_inc, self.upper_inc, self.interp)
            .expect("a window keeps its sequence's order")
    }
}

impl<V: TValue> Temporal<V> {
    /// The window of every sequence inside `p` (every sequence whole when
    /// `p` is `None`), in time order: the sequences `atTime` keeps.
    pub fn windows<'a>(
        &'a self,
        p: Option<&'a TstzSpan>,
    ) -> impl Iterator<Item = Window<'a, V>> + Clone + 'a {
        let (instant, seqs): (&'a [TInstant<V>], &'a [TSequence<V>]) = match self {
            Temporal::Instant(i) => (std::slice::from_ref(i), &[]),
            Temporal::Sequence(s) => (&[], std::slice::from_ref(s)),
            Temporal::SequenceSet(ss) => (&[], ss.sequences()),
        };
        // An instant is a one-instant discrete sequence.
        let instant = (!instant.is_empty()).then_some(instant).and_then(move |i| match p {
            None => Some(Window {
                head: None,
                inner: i,
                tail: None,
                lower_inc: true,
                upper_inc: true,
                interp: Interp::Discrete,
            }),
            Some(p) => Window::discrete(i, p),
        });
        instant.into_iter().chain(seqs.iter().filter_map(move |s| Window::of(s, p)))
    }
}
