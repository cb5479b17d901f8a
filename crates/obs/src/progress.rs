//! Live query progress: cardinality-based completion estimates that are
//! monotone and safe to poll from another thread.
//!
//! Each statement registers a [`QueryProgress`] at start. Executors feed
//! it *work units* — morsels claimed vs. dispatched, scan chunks produced
//! vs. table chunk counts — via [`QueryProgress::add_total`] /
//! [`QueryProgress::add_done`]. The reported fraction is made monotone by
//! a `fetch_max` floor (in millionths), so a poller never sees progress
//! move backwards even while total work is still being discovered, and it
//! is capped below `1.0` until [`QueryProgress::finish`] runs.
//!
//! A process-global registry keeps every in-flight query plus a tail of
//! recently finished ones; `mduck_progress()` projects it into SQL.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mduck_sync::Mutex;

/// Finished entries retained in the registry for `mduck_progress()`.
const FINISHED_RETAINED: usize = 32;

/// Denominator of the monotone fraction floor.
const MICRO: u64 = 1_000_000;

/// Progress ceiling while a query is still running.
const RUNNING_CAP: u64 = MICRO - 1;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Shared progress state for one statement.
#[derive(Debug)]
pub struct QueryProgress {
    id: u64,
    sql: Arc<str>,
    total: AtomicU64,
    done: AtomicU64,
    /// Monotone floor of the reported fraction, in millionths.
    floor: AtomicU64,
    finished: AtomicBool,
}

/// A point-in-time copy of one registry entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    pub id: u64,
    pub sql: Arc<str>,
    pub units_done: u64,
    pub units_total: u64,
    pub fraction: f64,
    pub finished: bool,
}

impl QueryProgress {
    /// Register a new in-flight statement; `sql` is shared, not copied
    /// (the query log keeps the same text).
    pub fn begin(sql: impl Into<Arc<str>>) -> Arc<QueryProgress> {
        let p = Arc::new(QueryProgress {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            sql: sql.into(),
            total: AtomicU64::new(0),
            done: AtomicU64::new(0),
            floor: AtomicU64::new(0),
            finished: AtomicBool::new(false),
        });
        let mut reg = registry().lock();
        reg.push_back(Arc::clone(&p));
        // Evict the oldest *finished* entries; in-flight ones stay.
        while reg.len() > FINISHED_RETAINED {
            match reg.iter().position(|e| e.is_finished()) {
                Some(i) => {
                    reg.remove(i);
                }
                None => break,
            }
        }
        p
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// Announce `n` more units of planned work (e.g. morsels dispatched).
    /// Ignored once finished, so a stale handle held past [`finish`]
    /// (e.g. by a detached worker) cannot walk the fraction back.
    ///
    /// [`finish`]: QueryProgress::finish
    #[inline]
    pub fn add_total(&self, n: u64) {
        if self.is_finished() {
            return;
        }
        self.total.fetch_add(n, Ordering::Relaxed);
    }

    /// Report `n` units completed (e.g. a morsel fully processed).
    /// Ignored once finished, like [`QueryProgress::add_total`].
    #[inline]
    pub fn add_done(&self, n: u64) {
        if self.is_finished() {
            return;
        }
        self.done.fetch_add(n, Ordering::Relaxed);
    }

    /// Mark the statement complete; the fraction snaps to exactly `1.0`.
    pub fn finish(&self) {
        self.finished.store(true, Ordering::Release);
        self.floor.fetch_max(MICRO, Ordering::Relaxed);
    }

    pub fn is_finished(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }

    /// Monotonically non-decreasing completion estimate in `[0, 1]`.
    /// Returns exactly `1.0` once finished and stays below it before.
    pub fn fraction(&self) -> f64 {
        let raw = if self.is_finished() {
            MICRO
        } else {
            let total = self.total.load(Ordering::Relaxed);
            let done = self.done.load(Ordering::Relaxed);
            if total == 0 {
                0
            } else {
                ((done.min(total) as u128 * MICRO as u128 / total as u128) as u64)
                    .min(RUNNING_CAP)
            }
        };
        let floor = self.floor.fetch_max(raw, Ordering::Relaxed).max(raw);
        floor as f64 / MICRO as f64
    }

    fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            id: self.id,
            sql: self.sql.clone(),
            units_done: self.done.load(Ordering::Relaxed),
            units_total: self.total.load(Ordering::Relaxed),
            fraction: self.fraction(),
            finished: self.is_finished(),
        }
    }
}

fn registry() -> &'static Mutex<VecDeque<Arc<QueryProgress>>> {
    static REGISTRY: OnceLock<Mutex<VecDeque<Arc<QueryProgress>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// All registry entries (in-flight + recently finished), oldest first.
pub fn progress_snapshot() -> Vec<ProgressSnapshot> {
    registry().lock().iter().map(|p| p.snapshot()).collect()
}

/// Drop every registry entry (test isolation).
pub fn reset_progress() {
    registry().lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_is_monotone_even_when_total_grows() {
        let p = QueryProgress::begin("SELECT monotone");
        p.add_total(10);
        p.add_done(5);
        let half = p.fraction();
        assert!((half - 0.5).abs() < 1e-6);
        // New work discovered: the raw ratio drops, the report must not.
        p.add_total(90);
        assert!(p.fraction() >= half);
        p.add_done(95);
        assert!(p.fraction() < 1.0, "capped below 1.0 before finish");
        p.finish();
        assert_eq!(p.fraction(), 1.0);
        assert_eq!(p.fraction(), 1.0);
    }

    #[test]
    fn zero_total_reports_zero_until_finish() {
        let p = QueryProgress::begin("SELECT trivial");
        assert_eq!(p.fraction(), 0.0);
        p.finish();
        assert_eq!(p.fraction(), 1.0);
    }

    #[test]
    fn concurrent_poller_sees_non_decreasing_fractions() {
        let p = QueryProgress::begin("SELECT polled");
        p.add_total(1000);
        let samples = std::thread::scope(|s| {
            let poller = {
                let p = &p;
                s.spawn(move || {
                    let mut out = Vec::new();
                    while !p.is_finished() {
                        out.push(p.fraction());
                        std::thread::yield_now();
                    }
                    out.push(p.fraction());
                    out
                })
            };
            for _ in 0..1000 {
                p.add_done(1);
            }
            p.finish();
            poller.join().unwrap()
        });
        assert!(samples.windows(2).all(|w| w[0] <= w[1]), "{samples:?}");
        assert_eq!(*samples.last().unwrap(), 1.0);
    }

    #[test]
    fn registry_keeps_inflight_and_caps_finished() {
        reset_progress();
        let held = QueryProgress::begin("SELECT held");
        for i in 0..FINISHED_RETAINED + 20 {
            QueryProgress::begin(format!("SELECT {i}")).finish();
        }
        let snap = progress_snapshot();
        assert!(snap.len() <= FINISHED_RETAINED + 1);
        assert!(snap.iter().any(|e| e.id == held.id()), "in-flight entry evicted");
        held.finish();
    }
}
