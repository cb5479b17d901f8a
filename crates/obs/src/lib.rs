//! # mduck-obs — engine-wide observability
//!
//! The measurement layer every perf PR measures itself against. Two
//! facilities, both dependency-free and cheap enough to stay always-on:
//!
//! * **Metrics** ([`metrics()`]): a process-global registry of named
//!   counters, gauges, and log-scale histograms. Hot paths hold a
//!   `&'static` handle and pay one relaxed atomic add per event — no
//!   locks, no hashing. SQL surfaces the registry through
//!   `PRAGMA metrics` / `PRAGMA reset_metrics` in both engines.
//!
//! * **Spans** ([`span()`]): a thread-local span stack whose finished spans
//!   land in a bounded in-memory ring buffer, queryable from SQL via the
//!   `mduck_spans()` table function. Query phases (parse → bind → plan →
//!   execute) are spanned always; per-operator spans are emitted when a
//!   statement runs under profiling (`EXPLAIN ANALYZE`).
//!
//! * **Memory accounting** ([`mem`]): hierarchical scoped byte trackers
//!   (query → operator) with atomic current/peak, mirrored into the
//!   `mem_current` / `mem_peak` gauges and enforced by the engines'
//!   `PRAGMA memory_limit`.
//!
//! * **Progress** ([`progress`]): per-statement cardinality-based
//!   completion estimates, monotone and safe to poll from another
//!   thread, queryable via `mduck_progress()`.
//!
//! * **Query log** ([`querylog`]): a bounded history of executed
//!   statements with an optional JSONL sink, queryable via
//!   `mduck_query_log()`.
//!
//! The crate deliberately knows nothing about SQL or either engine; the
//! `mduck-sql` frontend owns the SQL-facing projection of this data.

#![forbid(unsafe_code)]

pub mod mem;
pub mod metrics;
pub mod progress;
pub mod querylog;
pub mod span;

pub use mem::{format_bytes, parse_bytes, MemTracker};
pub use metrics::{metrics, Counter, Gauge, Histogram, MetricSnapshot, Metrics};
pub use progress::{progress_snapshot, reset_progress, ProgressSnapshot, QueryProgress};
pub use querylog::{
    log_query, next_query_id, query_log_sink_active, query_log_sink_path, query_log_snapshot,
    reset_query_log, set_query_log_sink, set_slow_threshold_ms, slow_threshold_ms,
    QueryLogRecord, QUERY_LOG_CAP,
};
pub use span::{
    current_span_id, reset_spans, span, span_with_parent, spans_snapshot, Span, SpanRecord,
    SPAN_BUFFER_CAP,
};
