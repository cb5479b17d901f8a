//! The query log: a bounded in-memory history of executed statements
//! with an optional JSONL sink.
//!
//! Both engines push one [`QueryLogRecord`] per statement — SQL text,
//! duration, row counts, guard trips, peak memory, thread count, error —
//! and statements slower than [`slow_threshold_ms`] carry their full
//! `EXPLAIN ANALYZE` profile. The history is queryable from SQL through
//! `mduck_query_log()`; when a sink path is configured
//! (`PRAGMA query_log='file.jsonl'` or `MDUCK_QUERY_LOG=path`), every
//! record is additionally appended to the file as one JSON object per
//! line, making the log survive the process.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use mduck_sync::Mutex;

use crate::metrics::metrics;

/// Maximum records retained in memory; older records are evicted FIFO.
pub const QUERY_LOG_CAP: usize = 1024;

/// Default slow-query threshold when `MDUCK_SLOW_MS` is unset.
const DEFAULT_SLOW_MS: u64 = 250;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One executed statement, as exported to `mduck_query_log()` and the
/// JSONL sink.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryLogRecord {
    /// Process-unique, monotonically increasing statement id.
    pub id: u64,
    /// `"vecdb"` or `"rowdb"`.
    pub engine: &'static str,
    pub sql: String,
    pub duration_us: u64,
    pub rows_returned: u64,
    pub rows_scanned: u64,
    /// Which `ExecGuard` limit tripped, if any (`"memory"`, `"timeout"`,
    /// `"row_budget"`, `"depth"`, `"cancel"`).
    pub guard_trip: Option<&'static str>,
    /// Peak bytes accounted to the statement's `MemTracker` root.
    pub mem_peak: u64,
    /// Worker threads the statement was allowed to use.
    pub threads: u32,
    pub error: Option<String>,
    /// Full `EXPLAIN ANALYZE` text for statements over the slow-query
    /// threshold (captured only when the engine ran with profiling on).
    pub profile: Option<String>,
}

/// The JSONL sink file. Dropping it (sink re-pointed or disabled)
/// flushes and fsyncs so already-logged lines survive a crash right
/// after the configuration change.
#[derive(Debug)]
struct Sink {
    path: String,
    file: File,
}

impl Drop for Sink {
    fn drop(&mut self) {
        if self.file.flush().is_err() || self.file.sync_all().is_err() {
            metrics().querylog_sink_errors.inc(1);
        }
    }
}

struct LogState {
    history: VecDeque<QueryLogRecord>,
    sink: Option<Sink>,
}

fn state() -> &'static Mutex<LogState> {
    static STATE: OnceLock<Mutex<LogState>> = OnceLock::new();
    STATE.get_or_init(|| {
        let sink = std::env::var("MDUCK_QUERY_LOG").ok().and_then(|path| {
            let trimmed = path.trim().to_string();
            if trimmed.is_empty() {
                return None;
            }
            open_sink(&trimmed).ok().map(|f| Sink { path: trimmed, file: f })
        });
        Mutex::new(LogState { history: VecDeque::with_capacity(64), sink })
    })
}

fn open_sink(path: &str) -> std::io::Result<File> {
    OpenOptions::new().create(true).append(true).open(path)
}

/// Allocate the next statement id (engines stamp records up front so ids
/// order by statement start, not completion).
pub fn next_query_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Append a record to the history (and the JSONL sink, if configured).
pub fn log_query(record: QueryLogRecord) {
    metrics().queries_logged.inc(1);
    let mut st = state().lock();
    if let Some(sink) = &mut st.sink {
        let line = json_line(&record);
        // A failing sink must never fail the query: the line is
        // dropped, but the failure is counted, not swallowed.
        if writeln!(sink.file, "{line}").is_err() {
            metrics().querylog_sink_errors.inc(1);
        }
    }
    if st.history.len() >= QUERY_LOG_CAP {
        st.history.pop_front();
    }
    st.history.push_back(record);
}

/// Point or re-point the JSONL sink (`None` disables it). The file is
/// opened in append mode immediately so configuration errors surface at
/// `PRAGMA query_log` time, not on the next query.
pub fn set_query_log_sink(path: Option<&str>) -> std::io::Result<()> {
    let mut st = state().lock();
    match path {
        Some(p) if !p.trim().is_empty() => {
            let p = p.trim();
            st.sink = Some(Sink { path: p.to_string(), file: open_sink(p)? });
        }
        _ => st.sink = None,
    }
    Ok(())
}

/// Path of the active JSONL sink, if one is configured.
pub fn query_log_sink_path() -> Option<String> {
    state().lock().sink.as_ref().map(|s| s.path.clone())
}

/// Whether records are currently being persisted to a sink. Engines use
/// this to decide to run statements under profiling so slow queries can
/// attach their `EXPLAIN ANALYZE` text.
pub fn query_log_sink_active() -> bool {
    state().lock().sink.is_some()
}

/// In-memory history, oldest first.
pub fn query_log_snapshot() -> Vec<QueryLogRecord> {
    state().lock().history.iter().cloned().collect()
}

/// Clear the in-memory history (test isolation; the sink file, if any,
/// is left untouched).
pub fn reset_query_log() {
    state().lock().history.clear();
}

/// Statements at least this slow capture their profile. Reads
/// `MDUCK_SLOW_MS` once; adjustable at runtime for tests via
/// [`set_slow_threshold_ms`].
pub fn slow_threshold_ms() -> u64 {
    slow_ms().load(Ordering::Relaxed)
}

/// Override the slow-query threshold (milliseconds).
pub fn set_slow_threshold_ms(ms: u64) {
    slow_ms().store(ms, Ordering::Relaxed);
}

fn slow_ms() -> &'static AtomicU64 {
    static SLOW: OnceLock<AtomicU64> = OnceLock::new();
    SLOW.get_or_init(|| {
        let ms = std::env::var("MDUCK_SLOW_MS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_SLOW_MS);
        AtomicU64::new(ms)
    })
}

/// Render one record as a single JSON object line (the sink format).
pub fn json_line(r: &QueryLogRecord) -> String {
    let mut out = String::with_capacity(128 + r.sql.len());
    out.push('{');
    push_field(&mut out, "id", &r.id.to_string());
    push_str_field(&mut out, "engine", r.engine);
    push_str_field(&mut out, "sql", &r.sql);
    push_field(&mut out, "duration_us", &r.duration_us.to_string());
    push_field(&mut out, "rows_returned", &r.rows_returned.to_string());
    push_field(&mut out, "rows_scanned", &r.rows_scanned.to_string());
    match r.guard_trip {
        Some(t) => push_str_field(&mut out, "guard_trip", t),
        None => push_field(&mut out, "guard_trip", "null"),
    }
    push_field(&mut out, "mem_peak", &r.mem_peak.to_string());
    push_field(&mut out, "threads", &r.threads.to_string());
    match &r.error {
        Some(e) => push_str_field(&mut out, "error", e),
        None => push_field(&mut out, "error", "null"),
    }
    match &r.profile {
        Some(p) => push_str_field(&mut out, "profile", p),
        None => push_field(&mut out, "profile", "null"),
    }
    out.pop(); // trailing comma
    out.push('}');
    out
}

fn push_field(out: &mut String, key: &str, raw: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(raw);
    out.push(',');
}

fn push_str_field(out: &mut String, key: &str, val: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    for c in val.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push_str("\",");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The history and the sink are process-global and the test harness
    /// runs tests on parallel threads: every test that logs a record or
    /// resets the history holds this lock.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn record(id: u64, sql: &str) -> QueryLogRecord {
        QueryLogRecord {
            id,
            engine: "vecdb",
            sql: sql.to_string(),
            duration_us: 1234,
            rows_returned: 10,
            rows_scanned: 100,
            guard_trip: None,
            mem_peak: 4096,
            threads: 1,
            error: None,
            profile: None,
        }
    }

    #[test]
    fn json_line_escapes_and_orders_fields() {
        let mut r = record(7, "SELECT \"x\"\nFROM t\t-- strange");
        r.guard_trip = Some("memory");
        r.error = Some("boom \\ bang".into());
        let line = json_line(&r);
        assert!(line.starts_with("{\"id\":7,\"engine\":\"vecdb\",\"sql\":\"SELECT \\\"x\\\"\\nFROM t\\t-- strange\""), "{line}");
        assert!(line.contains("\"guard_trip\":\"memory\""));
        assert!(line.contains("\"error\":\"boom \\\\ bang\""));
        assert!(line.ends_with("\"profile\":null}"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn history_is_bounded_fifo() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        reset_query_log();
        for i in 0..QUERY_LOG_CAP as u64 + 5 {
            log_query(record(i, "SELECT 1"));
        }
        let snap = query_log_snapshot();
        assert_eq!(snap.len(), QUERY_LOG_CAP);
        assert_eq!(snap.first().unwrap().id, 5);
        assert_eq!(snap.last().unwrap().id, QUERY_LOG_CAP as u64 + 4);
        reset_query_log();
        assert!(query_log_snapshot().is_empty());
    }

    #[test]
    fn sink_appends_one_line_per_record() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir();
        let path = dir.join(format!("mduck_qlog_test_{}.jsonl", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&path);
        set_query_log_sink(Some(&path_s)).unwrap();
        assert_eq!(query_log_sink_path().as_deref(), Some(path_s.as_str()));
        assert!(query_log_sink_active());
        log_query(record(1, "SELECT a"));
        log_query(record(2, "SELECT b"));
        set_query_log_sink(None).unwrap();
        assert!(!query_log_sink_active());
        log_query(record(3, "SELECT c")); // not persisted
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"sql\":\"SELECT a\""));
        assert!(lines[1].contains("\"sql\":\"SELECT b\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sink_write_failure_is_counted_not_fatal() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        // /dev/full accepts the open but fails every write with ENOSPC.
        if !std::path::Path::new("/dev/full").exists() {
            return;
        }
        reset_query_log();
        set_query_log_sink(Some("/dev/full")).unwrap();
        let before = metrics().querylog_sink_errors.get();
        log_query(record(99, "SELECT sink_failure"));
        assert!(metrics().querylog_sink_errors.get() > before);
        // The query still landed in the in-memory history.
        assert!(query_log_snapshot().iter().any(|r| r.id == 99));
        set_query_log_sink(None).unwrap();
        reset_query_log();
    }

    #[test]
    fn slow_threshold_is_adjustable() {
        let orig = slow_threshold_ms();
        set_slow_threshold_ms(7);
        assert_eq!(slow_threshold_ms(), 7);
        set_slow_threshold_ms(orig);
    }
}
