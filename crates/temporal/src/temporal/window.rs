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
    /// The index of the window's sequence in its value.
    seq: usize,
    /// The index of `inner[0]` in its sequence.
    first: usize,
    pub lower_inc: bool,
    pub upper_inc: bool,
    pub interp: Interp,
}

/// The instants of a [`Window`] on one run of consecutive segments of its
/// sequence ([`Window::runs`]).
pub(crate) struct WindowRun<'w, V: TValue> {
    /// The run's index in the sequence.
    pub(crate) index: usize,
    head: Option<&'w TInstant<V>>,
    inner: &'w [TInstant<V>],
    tail: Option<&'w TInstant<V>>,
}

impl<'w, V: TValue> WindowRun<'w, V> {
    /// The instants in time order.
    pub(crate) fn instants(&self) -> impl Iterator<Item = &'w TInstant<V>> + 'w {
        self.head.into_iter().chain(self.inner).chain(self.tail)
    }

    /// The last instant.
    pub(crate) fn last(&self) -> Option<&'w TInstant<V>> {
        self.tail.or(self.inner.last()).or(self.head)
    }
}

impl<'a, V: TValue> Window<'a, V> {
    /// The window of sequence `s` inside `p` (all of it when `p` is
    /// `None`); `None` when they do not meet.
    pub fn of(s: &'a TSequence<V>, p: Option<&TstzSpan>) -> Option<Self> {
        let whole = Window {
            head: None,
            inner: s.instants(),
            tail: None,
            seq: 0,
            first: 0,
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
        // The first instant at or after each bound: `lo`, or the instant
        // just before it when that is at the lower bound; `hi` for a tail,
        // since the upper bound then lies past the lower one.
        let head = if lo > 0 && instants[lo - 1].t == ix.lower { lo - 1 } else { lo };
        let at = |idx, t| TInstant::new(s.interpolate_at(idx, t), t);
        Some(Window {
            head: Some(at(head, ix.lower)),
            inner: &instants[lo..hi],
            tail: (ix.upper > ix.lower).then(|| at(hi, ix.upper)),
            seq: 0,
            // A window past every instant is its head alone, on the last
            // instant: it goes with that instant's run.
            first: lo.min(instants.len() - 1),
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
            seq: 0,
            first: lo,
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

    /// The index of the window's sequence in its value.
    pub(crate) fn sequence(&self) -> usize {
        self.seq
    }

    /// The instants split by the runs of `len` consecutive segments of the
    /// sequence that they lie on, in time order; run `r` covers the
    /// sequence's instants `r·len ..= (r + 1)·len`. An instant of the
    /// sequence goes with the run of the segment it ends (the first one
    /// with run 0), the interpolated head with that of the first instant
    /// in place, and the interpolated tail with that of the segment it
    /// lies on.
    pub(crate) fn runs(&self, len: usize) -> impl Iterator<Item = WindowRun<'_, V>> + '_ {
        let run_of = move |j: usize| j.saturating_sub(1) / len;
        // The sequence index of the last instant; the tail lies on the
        // segment into instant `hi`.
        let (lo, hi) = (self.first, self.first + self.inner.len());
        let last = if self.tail.is_some() { hi } else { hi.saturating_sub(1).max(lo) };
        let (first_run, last_run) = (run_of(lo), run_of(last));
        (first_run..=last_run).map(move |r| {
            let from = if r == 0 { 0 } else { r * len + 1 };
            let to = (r + 1) * len + 1;
            let clamp = |j: usize| j.clamp(lo, hi) - lo;
            WindowRun {
                index: r,
                head: self.head.as_ref().filter(|_| r == first_run),
                inner: &self.inner[clamp(from)..clamp(to)],
                tail: self.tail.as_ref().filter(|_| r == last_run),
            }
        })
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
                seq: 0,
                first: 0,
                lower_inc: true,
                upper_inc: true,
                interp: Interp::Discrete,
            }),
            Some(p) => Window::discrete(i, p),
        });
        let windows = seqs
            .iter()
            .enumerate()
            .filter_map(move |(seq, s)| Window::of(s, p).map(|w| Window { seq, ..w }));
        instant.into_iter().chain(windows)
    }
}
