//! Benchmark-side tracing: spans around every public call the benchmark
//! makes into a crate, and snapshots of the engine's own obs registry
//! taken before and after each phase.
//!
//! Nothing here reaches inside the engines. A span covers the call as the
//! caller sees it; the registry deltas say what the engine counted while
//! the phase ran. Spans stay in memory; when the run ends they are
//! summarised (count and total time per name) and written out.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span. `request` groups the spans of one operation (one
/// statement, one commit).
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder. Disabled tracers record nothing and cost
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            request: 0,
        }
    }

    /// Start a new request: later spans share its identifier.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            request: self.request,
            start_ns,
            end_ns,
        });
        out
    }

    /// Move another thread's spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Per span name: count and total time.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.end_ns.saturating_sub(s.start_ns);
        }
        out
    }

    /// Write every span as one JSON line: name, request, start and end
    /// in ns since the tracer's epoch.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"name\": \"{}\", \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
}

impl SpanStats {
    /// Mean span duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64 / 1e3, self.count as f64)
    }
}

macro_rules! obs_snapshot {
    (counters { $($c:ident,)* } histograms { $($h:ident,)* }) => {
        /// The obs registry values the benchmark reads, at one instant.
        /// Histograms keep (observation count, sum of observations).
        #[derive(Debug, Clone, Copy, Default)]
        pub struct ObsSnap {
            $(pub $c: u64,)*
            $(pub $h: (u64, u64),)*
        }

        impl ObsSnap {
            pub fn take() -> Self {
                let m = mduck_obs::metrics();
                ObsSnap {
                    $($c: m.$c.get(),)*
                    $($h: (m.$h.count(), m.$h.sum()),)*
                }
            }

            /// Field-wise sum, to add up the deltas of several phases.
            pub fn plus(&self, other: &ObsSnap) -> ObsSnap {
                ObsSnap {
                    $($c: self.$c + other.$c,)*
                    $($h: (self.$h.0 + other.$h.0, self.$h.1 + other.$h.1),)*
                }
            }

            /// What the registry counted between `earlier` and `self`.
            pub fn since(&self, earlier: &ObsSnap) -> ObsSnap {
                ObsSnap {
                    $($c: self.$c.saturating_sub(earlier.$c),)*
                    $($h: (
                        self.$h.0.saturating_sub(earlier.$h.0),
                        self.$h.1.saturating_sub(earlier.$h.1),
                    ),)*
                }
            }
        }
    };
}

obs_snapshot! {
    counters {
        queries_executed,
        chunks_produced,
        rows_scanned,
        rows_filtered,
        rows_joined,
        index_probes,
        full_scans,
        parallel_stages,
        parallel_workers_spawned,
        morsels_dispatched,
        wal_records_appended,
        wal_bytes_written,
        wal_checkpoints,
        wal_records_replayed,
    }
    histograms {
        vecdb_parse_ns,
        vecdb_bind_ns,
        vecdb_plan_ns,
        vecdb_exec_ns,
        wal_append_ns,
        wal_checkpoint_ns,
        wal_recovery_ns,
    }
}

/// Mean of a histogram delta, converted from ns by `scale`.
pub fn hist_mean(h: (u64, u64), scale: f64) -> f64 {
    crate::stats::ratio(h.1 as f64 / scale, h.0 as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_counted_per_name() {
        let mut t = Tracer::new(true, Instant::now());
        t.next_request();
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("a", || ());
        t.span("b", || ());
        let s = t.summary();
        assert_eq!((s["a"].count, s["b"].count), (2, 1));
        assert!(s["a"].total_ns >= 2_000_000);

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("x", || 7), 7);
        assert!(off.summary().is_empty());
    }
}
