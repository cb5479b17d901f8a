//! Tracing spans: a thread-local span stack with an in-memory ring-buffer
//! exporter.
//!
//! A [`Span`] is an RAII guard: creating one pushes it onto the calling
//! thread's stack (so children learn their parent and depth), dropping it
//! records a finished [`SpanRecord`] into a process-global ring buffer of
//! the most recent [`SPAN_BUFFER_CAP`] spans. The buffer is queryable from
//! SQL through the `mduck_spans()` table function in both engines.
//!
//! Timestamps are microseconds since the first span of the process (a
//! stable monotonic epoch), so records from different threads order
//! correctly without wall-clock reads.
//!
//! Recording is cheap enough for every statement: a span's name is
//! usually a `&'static str` (no allocation), its thread's label is
//! formatted once per thread, and the record is complete before the ring's
//! lock is taken, which is held only to push it.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mduck_sync::Mutex;

use crate::metrics::metrics;

/// Maximum finished spans retained; older spans are evicted FIFO (each
/// eviction increments the `spans_dropped` counter).
pub const SPAN_BUFFER_CAP: usize = 4096;

/// A finished span, as exported to `mduck_spans()`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique id (monotonic across threads).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    pub name: Cow<'static, str>,
    /// Nesting depth on its thread at creation (roots are 0).
    pub depth: u32,
    /// Start offset in microseconds since the process span epoch.
    pub start_us: u64,
    pub duration_us: u64,
    /// Debug rendering of the originating thread id.
    pub thread: Arc<str>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ring() -> &'static Mutex<VecDeque<SpanRecord>> {
    static RING: OnceLock<Mutex<VecDeque<SpanRecord>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(SPAN_BUFFER_CAP)))
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// The thread's label in its records, formatted once.
    static THREAD: Arc<str> = format!("{:?}", std::thread::current().id()).into();
}

/// An in-flight span; finishes (and exports itself) on drop.
#[derive(Debug)]
pub struct Span {
    id: u64,
    parent: Option<u64>,
    name: Cow<'static, str>,
    depth: u32,
    start: Instant,
    start_us: u64,
}

impl Span {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Open a span as a child of the thread's current innermost span.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub fn span(name: impl Into<Cow<'static, str>>) -> Span {
    open(name.into(), None)
}

/// Open a span with an explicit parent id, for code running on a thread
/// the parent never touched (morsel workers: the thread-local stack does
/// not cross `std::thread::scope`). The span still joins the *calling*
/// thread's stack so its own children nest normally.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub fn span_with_parent(name: impl Into<Cow<'static, str>>, parent: Option<u64>) -> Span {
    open(name.into(), parent)
}

/// Id of the calling thread's innermost open span, if any. Coordinators
/// capture this before fanning out so workers can re-parent under it.
pub fn current_span_id() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

fn open(name: Cow<'static, str>, explicit_parent: Option<u64>) -> Span {
    let start = Instant::now();
    let start_us = start.duration_since(epoch()).as_micros() as u64;
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, depth) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = explicit_parent.or_else(|| s.last().copied());
        let depth = s.len() as u32;
        s.push(id);
        (parent, depth)
    });
    Span { id, parent, name, depth, start, start_us }
}

impl Drop for Span {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Normally a strict LIFO pop; tolerate out-of-order drops.
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.remove(pos);
            }
        });
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            depth: self.depth,
            start_us: self.start_us,
            duration_us: self.start.elapsed().as_micros() as u64,
            thread: THREAD.with(Arc::clone),
        };
        let mut ring = ring().lock();
        if ring.len() >= SPAN_BUFFER_CAP {
            ring.pop_front();
            metrics().spans_dropped.inc(1);
        }
        ring.push_back(record);
    }
}

/// Snapshot of the finished-span ring buffer, oldest first.
pub fn spans_snapshot() -> Vec<SpanRecord> {
    ring().lock().iter().cloned().collect()
}

/// Clear the finished-span ring buffer (`PRAGMA reset_spans`).
pub fn reset_spans() {
    ring().lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        reset_spans();
        {
            let outer = span("outer.test_nest");
            {
                let _inner = span("inner.test_nest");
            }
            let _ = outer.id();
        }
        let spans = spans_snapshot();
        let inner = spans.iter().find(|s| s.name == "inner.test_nest").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer.test_nest").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.depth, outer.depth + 1);
        // Inner finishes first, so it appears earlier in the ring.
        assert!(inner.id > outer.id);
        assert!(outer.duration_us >= inner.duration_us);
    }

    #[test]
    fn ring_buffer_caps_retention() {
        for i in 0..SPAN_BUFFER_CAP + 10 {
            let _s = span(format!("cap.{i}"));
        }
        assert!(spans_snapshot().len() <= SPAN_BUFFER_CAP);
    }

    #[test]
    fn sibling_spans_share_parent() {
        let root = span("root.siblings");
        let a = {
            let s = span("a.siblings");
            s.id()
        };
        let b = {
            let s = span("b.siblings");
            s.id()
        };
        drop(root);
        let spans = spans_snapshot();
        let pa = spans.iter().find(|s| s.id == a).unwrap().parent;
        let pb = spans.iter().find(|s| s.id == b).unwrap().parent;
        assert_eq!(pa, pb);
        assert!(pa.is_some());
    }
}
