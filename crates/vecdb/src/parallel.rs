//! Morsel-driven parallel execution.
//!
//! The engine splits each stage's input — the list of 2048-row
//! [`crate::column::DataChunk`]s — into *morsels* (one chunk, or one
//! fixed row range of a chunk) and dispatches them to the process-wide
//! [`mduck_sync::pool()`] of parked helpers, which claim them from a
//! [`mduck_sync::MorselQueue`]. Three invariants make parallel results
//! byte-identical to the serial engine:
//!
//! 1. **Order-preserving reassembly.** Workers claim morsel indexes
//!    dynamically but tag every result with its input index; the
//!    coordinator reassembles outputs in input order.
//! 2. **States are never merged.** Workers evaluate group keys and
//!    aggregate arguments; one fold, in morsel order, feeds every
//!    aggregate state its rows in input order. A stage's morsels depend
//!    only on the plan and the chunk lengths, never on the thread count,
//!    so float sums add in the same order at every thread count.
//! 3. **Shared guard.** The per-statement [`mduck_sql::ExecGuard`] is
//!    atomic state shared by reference with every worker, so row budget,
//!    deadline, and cancellation are charged globally; the first error
//!    stops the queue and the fleet drains.
//!
//! Worker panics are caught by the pool and surfaced as
//! [`SqlError::Internal`] — never unwrapped.

use std::time::Instant;

use mduck_sql::{SqlError, SqlResult};
use mduck_sync::MorselQueue;

/// Minimum number of morsels before spinning up the pool is worth it.
pub const MIN_PARALLEL_MORSELS: usize = 2;

/// Aggregated actuals of one parallel stage execution, fed into
/// `EXPLAIN ANALYZE` and the metrics registry.
#[derive(Debug, Default, Clone)]
pub struct ParStats {
    /// Workers that joined the stage (≤ configured threads): the caller
    /// and every helper that started before the morsels ran out.
    pub workers: usize,
    /// Summed per-worker busy time (total CPU time across threads).
    pub busy_ns: u64,
    /// Busy time of the slowest worker (the stage's critical path).
    pub max_worker_ns: u64,
    /// Morsels processed by each worker, in finishing order.
    pub morsels_per_worker: Vec<u64>,
}

impl ParStats {
    pub fn morsels(&self) -> u64 {
        self.morsels_per_worker.iter().sum()
    }
}

struct WorkerOut<T> {
    /// `(morsel index, result)` pairs, in claim order.
    items: Vec<(usize, T)>,
    busy_ns: u64,
    /// First error this worker hit, tagged with its morsel index.
    err: Option<(usize, SqlError)>,
}

/// Map `work` over morsel indexes `0..n` on up to `threads` workers of
/// the process-wide [`mduck_sync::pool()`] and return the results **in
/// input order** plus the pool's actuals.
///
/// Whether a stage is worth the pool is the caller's decision
/// (`EngineCtx::morsels`). The calling thread is always one of the
/// workers; helpers join while morsels are left. On error the queue is
/// stopped, the workers drain, and the error with the lowest morsel
/// index is returned — the same error a serial left-to-right run would
/// have hit first, keeping failure behaviour deterministic.
pub fn morsel_map<T, F>(threads: usize, n: usize, work: F) -> SqlResult<(Vec<T>, ParStats)>
where
    T: Send,
    F: Fn(usize) -> SqlResult<T> + Sync,
{
    let queue = MorselQueue::new(n);
    // Span stacks are thread-local, so a helper thread would otherwise
    // record its span as a root: capture the coordinator's current span
    // and re-parent every worker span under it, keeping `mduck_spans()`
    // trees connected across the pool.
    let parent = mduck_obs::current_span_id();
    let ran = mduck_sync::pool().run(threads.min(n), || {
        let _span = mduck_obs::span_with_parent("vecdb.worker", parent);
        let start = Instant::now();
        let mut items = Vec::new();
        let mut err = None;
        while let Some(i) = queue.claim() {
            match work(i) {
                Ok(t) => items.push((i, t)),
                Err(e) => {
                    err = Some((i, e));
                    queue.stop();
                    break;
                }
            }
        }
        WorkerOut { items, busy_ns: start.elapsed().as_nanos() as u64, err }
    });

    let m = mduck_obs::metrics();
    m.pool_threads_started.inc(ran.started as u64);
    let workers = ran.workers();
    let mut stats = ParStats { workers, ..ParStats::default() };
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut first_err: Option<(usize, SqlError)> = None;
    for w in ran.outputs {
        stats.busy_ns += w.busy_ns;
        stats.max_worker_ns = stats.max_worker_ns.max(w.busy_ns);
        stats.morsels_per_worker.push(w.items.len() as u64 + u64::from(w.err.is_some()));
        for (i, t) in w.items {
            slots[i] = Some(t);
        }
        if let Some((i, e)) = w.err {
            if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                first_err = Some((i, e));
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    // A worker panic is a bug by the engine's no-panic contract, but it
    // must degrade to an error, never an unwrap.
    if ran.panics > 0 {
        return Err(SqlError::internal("parallel worker panicked"));
    }
    let out: SqlResult<Vec<T>> = slots
        .into_iter()
        .map(|s| s.ok_or_else(|| SqlError::internal("parallel worker dropped a morsel")))
        .collect();
    m.parallel_stages.inc(1);
    m.parallel_workers_spawned.inc(workers as u64);
    m.morsels_dispatched.inc(n as u64);
    Ok((out?, stats))
}

/// Split `0..n` into at most `parts` contiguous, near-equal ranges: how a
/// split stage cuts a chunk's rows into morsels.
pub fn contiguous_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_map_preserves_input_order() {
        let (out, stats) = morsel_map(4, 100, |i| Ok(i * 2)).unwrap();
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        // The caller always works; a helper joins only while morsels are
        // left, so between 1 and 4 workers ran.
        assert!((1..=4).contains(&stats.workers), "{stats:?}");
        assert_eq!(stats.morsels(), 100);
        assert_eq!(stats.morsels_per_worker.len(), stats.workers);
    }

    #[test]
    fn morsel_map_reports_lowest_index_error() {
        // Every odd morsel fails; the reported error must be morsel 1's
        // (the first a serial run would hit).
        let err = morsel_map(4, 64, |i| {
            if i % 2 == 1 {
                Err(SqlError::execution(format!("boom at {i}")))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "execution error: boom at 1", "{err}");
    }

    #[test]
    fn morsel_map_contains_worker_panics() {
        let err = morsel_map(2, 8, |i| {
            if i == 3 {
                panic!("worker bug");
            }
            Ok(i)
        })
        .unwrap_err();
        assert!(matches!(err, SqlError::Internal(_)), "{err}");
    }

    #[test]
    fn contiguous_ranges_cover_exactly() {
        for (n, parts) in [(10, 3), (2, 8), (7, 7), (1, 1), (100, 4)] {
            let ranges = contiguous_ranges(n, parts);
            assert!(ranges.len() <= parts);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "ranges must be contiguous in order");
                assert!(!r.is_empty());
                next = r.end;
            }
            assert_eq!(next, n, "ranges must cover 0..{n}");
        }
        assert!(contiguous_ranges(0, 4).is_empty());
        assert!(contiguous_ranges(4, 0).is_empty());
    }
}
