//! Per-query execution guard: cancellation, wall-clock timeout, row
//! budget, memory limit, and subquery-recursion limits.
//!
//! The engine is embedded in a host process, so a pathological query must
//! not be able to monopolize it. A fresh [`ExecGuard`] is created for
//! every statement from the database's [`ExecLimits`]; the executor calls
//! [`ExecGuard::check_rows`] at chunk boundaries (cheap: one branch per
//! chunk, the deadline is only consulted every few calls),
//! [`ExecGuard::charge_mem`] when it materializes buffers, and
//! [`ExecGuard::enter_subquery`] at plan-recursion points. Any exceeded
//! budget surfaces as [`SqlError::ResourceExhausted`], and the guard
//! remembers *which* limit tripped ([`ExecGuard::trip_label`]) for the
//! query log.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mduck_obs::MemTracker;

use crate::error::{SqlError, SqlResult};

/// Resource limits applied to every statement. The default is fully
/// permissive (embedded analytics workloads routinely run long scans);
/// servers should set a timeout, row budget, and memory limit.
#[derive(Debug, Clone)]
pub struct ExecLimits {
    /// Wall-clock ceiling for one statement.
    pub timeout: Option<Duration>,
    /// Ceiling on rows *materialized* by one statement, counting every
    /// operator's output, not just the final result.
    pub row_budget: Option<u64>,
    /// Ceiling on bytes accounted to one statement's [`MemTracker`]
    /// (`PRAGMA memory_limit`); `None` means unlimited.
    pub memory_limit: Option<u64>,
    /// Ceiling on nested subquery execution depth.
    pub max_subquery_depth: usize,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            timeout: None,
            row_budget: None,
            memory_limit: None,
            max_subquery_depth: 32,
        }
    }
}

impl ExecLimits {
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    pub fn with_row_budget(mut self, rows: u64) -> Self {
        self.row_budget = Some(rows);
        self
    }

    pub fn with_memory_limit(mut self, bytes: u64) -> Self {
        self.memory_limit = Some(bytes);
        self
    }

    pub fn with_max_subquery_depth(mut self, depth: usize) -> Self {
        self.max_subquery_depth = depth;
        self
    }
}

/// Which [`ExecGuard`] limit tripped a statement, for the query log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum GuardTrip {
    Timeout = 1,
    RowBudget = 2,
    Depth = 3,
    Cancel = 4,
    Memory = 5,
}

impl GuardTrip {
    pub fn label(self) -> &'static str {
        match self {
            GuardTrip::Timeout => "timeout",
            GuardTrip::RowBudget => "row_budget",
            GuardTrip::Depth => "depth",
            GuardTrip::Cancel => "cancel",
            GuardTrip::Memory => "memory",
        }
    }

    fn from_u8(v: u8) -> Option<GuardTrip> {
        match v {
            1 => Some(GuardTrip::Timeout),
            2 => Some(GuardTrip::RowBudget),
            3 => Some(GuardTrip::Depth),
            4 => Some(GuardTrip::Cancel),
            5 => Some(GuardTrip::Memory),
            _ => None,
        }
    }
}

/// Cross-thread cancellation handle for an in-flight statement.
#[derive(Debug, Clone, Default)]
pub struct CancelHandle(Arc<AtomicBool>);

impl CancelHandle {
    /// Request cancellation; the statement fails with
    /// `SqlError::ResourceExhausted("query canceled")` at its next check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    pub fn is_canceled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// How many `check_rows`/`tick` calls go between deadline reads.
/// `Instant::now()` costs a vdso call; chunk boundaries are already
/// coarse-grained, so a small stride keeps overhead negligible while
/// bounding timeout slack to a few chunks.
const DEADLINE_STRIDE: u32 = 8;

/// The per-statement guard. Cheap to create, and `Sync`: one guard is
/// shared by reference between the coordinating thread and every morsel
/// worker, so the row budget, deadline, and cancellation are global to
/// the statement no matter how many threads execute it.
#[derive(Debug)]
pub struct ExecGuard {
    cancel: CancelHandle,
    deadline: Option<Instant>,
    /// Remaining row budget; `None` means unlimited.
    rows_remaining: Option<AtomicU64>,
    /// Query-scoped memory accounting root; operators charge it (or a
    /// child scope) as they materialize buffers.
    mem: Arc<MemTracker>,
    memory_limit: Option<u64>,
    subquery_depth: AtomicUsize,
    max_subquery_depth: usize,
    ticks: AtomicU32,
    /// First limit that tripped (0 = none), for the query log.
    tripped: AtomicU8,
    /// Rows read off base tables by this statement, for the query log.
    rows_scanned: AtomicU64,
}

impl Drop for ExecGuard {
    fn drop(&mut self) {
        // Close the statement's memory scope so the process-wide
        // `mem_current` gauge balances no matter which entry point
        // created the guard (closing twice is harmless: close swaps the
        // counter to zero).
        self.mem.close();
    }
}

impl Default for ExecGuard {
    fn default() -> Self {
        ExecGuard::new(&ExecLimits::default())
    }
}

impl ExecGuard {
    pub fn new(limits: &ExecLimits) -> Self {
        ExecGuard {
            cancel: CancelHandle::default(),
            deadline: limits.timeout.map(|t| Instant::now() + t),
            rows_remaining: limits.row_budget.map(AtomicU64::new),
            mem: MemTracker::root(),
            memory_limit: limits.memory_limit,
            subquery_depth: AtomicUsize::new(0),
            max_subquery_depth: limits.max_subquery_depth,
            ticks: AtomicU32::new(0),
            tripped: AtomicU8::new(0),
            rows_scanned: AtomicU64::new(0),
        }
    }

    /// Tally `n` rows read off a base table (scan operators call this
    /// alongside their budget checks; the total feeds the query log).
    #[inline]
    pub fn note_scanned(&self, n: usize) {
        self.rows_scanned.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Total base-table rows this statement has scanned so far.
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned.load(Ordering::Relaxed)
    }

    /// The handle another thread can use to cancel this statement.
    pub fn cancel_handle(&self) -> CancelHandle {
        self.cancel.clone()
    }

    /// The statement's memory-accounting root (create operator scopes
    /// with [`MemTracker::child`]; charges propagate back here).
    pub fn mem(&self) -> &Arc<MemTracker> {
        &self.mem
    }

    /// Record which limit tripped first; later trips keep the original.
    fn note_trip(&self, kind: GuardTrip) {
        let _ = self.tripped.compare_exchange(
            0,
            kind as u8,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// The first limit that tripped this statement, if any.
    pub fn trip_label(&self) -> Option<&'static str> {
        GuardTrip::from_u8(self.tripped.load(Ordering::Relaxed)).map(GuardTrip::label)
    }

    /// Charge `bytes` against the statement's memory scope and fail if
    /// the accounted total exceeds `PRAGMA memory_limit`. Safe to call
    /// from morsel workers (one atomic add plus one load).
    pub fn charge_mem(&self, bytes: u64) -> SqlResult<()> {
        self.mem.charge(bytes);
        self.check_mem()
    }

    /// Fail if the statement's accounted memory exceeds the limit.
    pub fn check_mem(&self) -> SqlResult<()> {
        if let Some(limit) = self.memory_limit {
            let current = self.mem.current();
            if current > limit {
                self.note_trip(GuardTrip::Memory);
                mduck_obs::metrics().guard_trip_memory.inc(1);
                return Err(SqlError::resource_exhausted(format!(
                    "query memory {} exceeds memory_limit {}",
                    mduck_obs::format_bytes(current),
                    mduck_obs::format_bytes(limit),
                )));
            }
        }
        Ok(())
    }

    /// Charge `n` rows against the budget and poll deadline/cancellation.
    /// Call at chunk boundaries.
    pub fn check_rows(&self, n: usize) -> SqlResult<()> {
        if let Some(remaining) = &self.rows_remaining {
            let n = n as u64;
            // Atomic checked subtraction: concurrent workers each charge
            // their own chunks against the one shared budget. On trip the
            // counter is pinned at 0 so the guard stays tripped.
            if remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(n))
                .is_err()
            {
                remaining.store(0, Ordering::Relaxed);
                self.note_trip(GuardTrip::RowBudget);
                mduck_obs::metrics().guard_trip_row_budget.inc(1);
                return Err(SqlError::resource_exhausted(
                    "query exceeded its row budget",
                ));
            }
        }
        self.tick()
    }

    /// Poll deadline and cancellation without charging rows.
    pub fn tick(&self) -> SqlResult<()> {
        if self.cancel.is_canceled() {
            self.note_trip(GuardTrip::Cancel);
            mduck_obs::metrics().guard_trip_cancel.inc(1);
            return Err(SqlError::resource_exhausted("query canceled"));
        }
        let t = self.ticks.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        // Always check on the first tick (so a statement with few chunk
        // boundaries still observes an already-expired deadline), then
        // every DEADLINE_STRIDE-th to keep Instant::now() off hot loops.
        if t == 1 || t.is_multiple_of(DEADLINE_STRIDE) {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Unconditionally check the wall-clock deadline.
    pub fn check_deadline(&self) -> SqlResult<()> {
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                self.note_trip(GuardTrip::Timeout);
                mduck_obs::metrics().guard_trip_timeout.inc(1);
                return Err(SqlError::resource_exhausted(
                    "query exceeded its wall-clock timeout",
                ));
            }
        }
        Ok(())
    }

    /// Enter one level of subquery execution; pair with
    /// [`ExecGuard::exit_subquery`].
    pub fn enter_subquery(&self) -> SqlResult<()> {
        let d = self.subquery_depth.fetch_add(1, Ordering::Relaxed) + 1;
        if d > self.max_subquery_depth {
            self.exit_subquery();
            self.note_trip(GuardTrip::Depth);
            mduck_obs::metrics().guard_trip_depth.inc(1);
            return Err(SqlError::resource_exhausted(format!(
                "subquery nesting exceeds {} levels",
                self.max_subquery_depth
            )));
        }
        // Correlated subqueries re-enter the executor per outer row; the
        // deadline must stay live even if every inner chunk is tiny.
        self.tick()
    }

    pub fn exit_subquery(&self) {
        // Saturating decrement (an unmatched exit must not underflow).
        let _ = self.subquery_depth.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
            Some(d.saturating_sub(1))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_by_default() {
        let g = ExecGuard::default();
        for _ in 0..10_000 {
            g.check_rows(1 << 20).unwrap();
        }
    }

    #[test]
    fn row_budget_trips() {
        let g = ExecGuard::new(&ExecLimits::default().with_row_budget(100));
        assert!(g.check_rows(60).is_ok());
        let err = g.check_rows(60).unwrap_err();
        assert!(matches!(err, SqlError::ResourceExhausted(_)), "{err}");
        // Stays tripped.
        assert!(g.check_rows(1).is_err());
    }

    #[test]
    fn timeout_trips() {
        let g = ExecGuard::new(&ExecLimits::default().with_timeout(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(2));
        let err = g.check_deadline().unwrap_err();
        assert!(matches!(err, SqlError::ResourceExhausted(_)), "{err}");
    }

    #[test]
    fn cancellation_observed() {
        let g = ExecGuard::default();
        let h = g.cancel_handle();
        assert!(g.tick().is_ok());
        h.cancel();
        assert!(matches!(g.tick(), Err(SqlError::ResourceExhausted(_))));
    }

    #[test]
    fn budget_is_shared_across_threads() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<ExecGuard>();
        let g = ExecGuard::new(&ExecLimits::default().with_row_budget(1000));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        let _ = g.check_rows(30);
                    }
                });
            }
        });
        // 4 workers × 10 × 30 = 1200 rows charged against a shared budget
        // of 1000: the guard must have tripped and must stay tripped.
        assert!(g.check_rows(1).is_err());
    }

    #[test]
    fn memory_limit_trips_and_stays_tripped() {
        let g = ExecGuard::new(&ExecLimits::default().with_memory_limit(1000));
        assert!(g.charge_mem(600).is_ok());
        assert_eq!(g.trip_label(), None);
        let err = g.charge_mem(600).unwrap_err();
        assert!(matches!(err, SqlError::ResourceExhausted(_)), "{err}");
        assert!(format!("{err}").contains("memory_limit"), "{err}");
        assert_eq!(g.trip_label(), Some("memory"));
        // The accounted total only grows, so the guard stays tripped.
        assert!(g.check_mem().is_err());
        assert!(g.mem().peak() >= 1200);
    }

    #[test]
    fn memory_limit_shared_across_threads() {
        let g = ExecGuard::new(&ExecLimits::default().with_memory_limit(10_000));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        let _ = g.charge_mem(64);
                    }
                });
            }
        });
        // 4 × 100 × 64 = 25600 bytes against a 10 KB limit: tripped.
        assert!(g.check_mem().is_err());
        assert_eq!(g.trip_label(), Some("memory"));
        g.mem().close();
    }

    #[test]
    fn unlimited_memory_never_trips() {
        let g = ExecGuard::default();
        g.charge_mem(u64::MAX / 2).unwrap();
        assert!(g.check_mem().is_ok());
        assert_eq!(g.trip_label(), None);
        g.mem().close();
    }

    #[test]
    fn first_trip_wins_the_label() {
        let g = ExecGuard::new(
            &ExecLimits::default().with_row_budget(10).with_memory_limit(100),
        );
        let _ = g.check_rows(50);
        let _ = g.charge_mem(500);
        assert_eq!(g.trip_label(), Some("row_budget"));
        g.mem().close();
    }

    #[test]
    fn subquery_depth_bounded() {
        let g = ExecGuard::new(&ExecLimits::default().with_max_subquery_depth(2));
        g.enter_subquery().unwrap();
        g.enter_subquery().unwrap();
        assert!(g.enter_subquery().is_err());
        g.exit_subquery();
        g.exit_subquery();
        g.exit_subquery(); // saturates, no underflow
        g.enter_subquery().unwrap();
    }
}
