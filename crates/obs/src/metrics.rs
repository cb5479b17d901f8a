//! The global metrics registry: named counters, gauges, and log-scale
//! histograms behind one `&'static` handle.
//!
//! Every metric is a plain atomic, so incrementing from a hot loop costs
//! one relaxed `fetch_add` — no locks, no name hashing. The full set of
//! names is declared once in the `define_metrics!` invocation below;
//! `scripts/lint_metrics.sh` parses that block to enforce `snake_case`
//! and uniqueness, and `PRAGMA metrics` renders [`Metrics::snapshot`].

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self, name: &'static str) -> MetricSnapshot {
        MetricSnapshot {
            name,
            kind: "counter",
            value: self.get() as i64,
            detail: String::new(),
        }
    }
}

/// A signed instantaneous value (e.g. queries currently executing).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.set(0);
    }

    fn snapshot(&self, name: &'static str) -> MetricSnapshot {
        MetricSnapshot {
            name,
            kind: "gauge",
            value: self.get(),
            detail: String::new(),
        }
    }
}

/// Number of log₂ buckets: bucket `i` holds observations `v` with
/// `bit_length(v) == i`, i.e. `v == 0` lands in bucket 0 and
/// `v ∈ [2^(i-1), 2^i)` lands in bucket `i` (1 ≤ i ≤ 64).
const HISTOGRAM_BUCKETS: usize = 65;

/// A log-scale histogram of `u64` observations (typically nanoseconds).
///
/// Recording is three relaxed atomic ops plus a `fetch_max`; percentile
/// estimates are computed on demand from the bucket counts and are exact
/// to within one power of two (reported as the bucket's upper bound).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Index of the bucket `v` falls into: `bit_length(v)`.
    pub fn bucket_index(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ≤ q ≤ 1.0`): the upper bound of the
    /// bucket containing the `ceil(q·count)`-th observation.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper_bound(i).min(self.max());
            }
        }
        self.max()
    }

    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self, name: &'static str) -> MetricSnapshot {
        MetricSnapshot {
            name,
            kind: "histogram",
            value: self.count() as i64,
            detail: format!(
                "count={} mean={:.0} p50={} p95={} p99={} max={}",
                self.count(),
                self.mean(),
                self.quantile(0.50),
                self.quantile(0.95),
                self.quantile(0.99),
                self.max()
            ),
        }
    }
}

/// One row of `PRAGMA metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    pub name: &'static str,
    pub kind: &'static str,
    /// Counter/gauge value, or the observation count for histograms.
    pub value: i64,
    /// Histogram summary (`count= mean= p50= p95= p99= max=`), empty for
    /// counters and gauges.
    pub detail: String,
}

macro_rules! define_metrics {
    (
        counters { $($cname:ident,)* }
        gauges { $($gname:ident,)* }
        histograms { $($hname:ident,)* }
    ) => {
        /// The full set of engine metrics. One instance per process,
        /// reachable through [`metrics`].
        #[derive(Debug, Default)]
        pub struct Metrics {
            $(pub $cname: Counter,)*
            $(pub $gname: Gauge,)*
            $(pub $hname: Histogram,)*
        }

        impl Metrics {
            /// All metrics, in declaration order.
            pub fn snapshot(&self) -> Vec<MetricSnapshot> {
                vec![
                    $(self.$cname.snapshot(stringify!($cname)),)*
                    $(self.$gname.snapshot(stringify!($gname)),)*
                    $(self.$hname.snapshot(stringify!($hname)),)*
                ]
            }

            /// Zero every metric (`PRAGMA reset_metrics`).
            pub fn reset(&self) {
                $(self.$cname.reset();)*
                $(self.$gname.reset();)*
                $(self.$hname.reset();)*
            }

            /// All registered metric names, in declaration order.
            pub fn names() -> &'static [&'static str] {
                &[
                    $(stringify!($cname),)*
                    $(stringify!($gname),)*
                    $(stringify!($hname),)*
                ]
            }
        }
    };
}

// The single source of truth for metric names. One name per line;
// scripts/lint_metrics.sh parses the block between the markers and
// enforces snake_case + uniqueness.
// lint-metrics-begin
define_metrics! {
    counters {
        queries_executed,
        chunks_produced,
        rows_scanned,
        rows_filtered,
        rows_joined,
        index_probes,
        index_join_builds,
        index_join_candidates,
        full_scans,
        guard_trip_timeout,
        guard_trip_row_budget,
        guard_trip_depth,
        guard_trip_cancel,
        guard_trip_memory,
        parallel_stages,
        parallel_workers_spawned,
        morsels_dispatched,
        spans_dropped,
        queries_logged,
        querylog_sink_errors,
        wal_records_appended,
        wal_bytes_written,
        wal_checkpoints,
        wal_auto_checkpoints,
        wal_recoveries,
        wal_records_replayed,
        wal_torn_tails,
        wal_failpoint_trips,
        plan_cache_hits,
        plan_cache_misses,
    }
    gauges {
        active_queries,
        mem_current,
        mem_peak,
    }
    histograms {
        vecdb_parse_ns,
        vecdb_bind_ns,
        vecdb_plan_ns,
        vecdb_exec_ns,
        rowdb_parse_ns,
        rowdb_bind_ns,
        rowdb_exec_ns,
        wal_append_ns,
        wal_checkpoint_ns,
        wal_recovery_ns,
    }
}
// lint-metrics-end

/// The process-global metrics registry.
pub fn metrics() -> &'static Metrics {
    static REGISTRY: OnceLock<Metrics> = OnceLock::new();
    REGISTRY.get_or_init(Metrics::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_concurrent_increments() {
        let c = std::sync::Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_tracks_up_and_down() {
        let g = Gauge::new();
        g.add(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set(-7);
        assert_eq!(g.get(), -7);
        g.reset();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_bucketing() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(10), 1023);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_concurrent_observations() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|k| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.observe(k * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(h.max(), 3999);
    }

    #[test]
    fn histogram_quantiles_are_bucket_bounded() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        // p50 rank is 500, in bucket 9 (256..=511): upper bound 511.
        assert_eq!(h.quantile(0.5), 511);
        // p99 rank 990 is in bucket 10 (512..=1023), capped at max=1000.
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(1.0), 1000);
        assert!((h.mean() - 500.5).abs() < 0.001);
        h.reset();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn snapshot_covers_every_registered_name() {
        let m = Metrics::default();
        m.rows_scanned.inc(42);
        m.vecdb_exec_ns.observe(1000);
        let snap = m.snapshot();
        assert_eq!(snap.len(), Metrics::names().len());
        let rows = snap.iter().find(|s| s.name == "rows_scanned").unwrap();
        assert_eq!((rows.kind, rows.value), ("counter", 42));
        let h = snap.iter().find(|s| s.name == "vecdb_exec_ns").unwrap();
        assert_eq!((h.kind, h.value), ("histogram", 1));
        assert!(h.detail.contains("p95="), "{}", h.detail);
        m.reset();
        assert!(m.snapshot().iter().all(|s| s.value == 0));
    }

    #[test]
    fn registered_names_are_snake_case_and_unique() {
        let names = Metrics::names();
        let mut seen = std::collections::HashSet::new();
        for n in names {
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "metric {n:?} is not snake_case"
            );
            assert!(seen.insert(n), "duplicate metric {n:?}");
        }
    }
}
