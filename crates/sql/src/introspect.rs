//! SQL-surfaced introspection shared by both engines.
//!
//! Two surfaces, deliberately engine-agnostic so `PRAGMA metrics` returns
//! the exact same schema from the vectorized and the row engine:
//!
//! * [`pragma`] — resolves `PRAGMA <name> [= value]` statements
//!   (`metrics`, `reset_metrics`, `reset_spans`, `query_log`,
//!   `slow_query_ms`, ...) into a result, or `None` for names this module
//!   does not know (the per-database settings `threads` and
//!   `memory_limit` belong to [`crate::session`]).
//! * [`Introspection`] and [`rows`] — the schemas and snapshot rows of
//!   the `mduck_spans()` / `mduck_progress()` / `mduck_query_log()`
//!   table functions.

use crate::ast::PragmaValue;
use crate::bound::{Field, Schema};
use crate::error::{SqlError, SqlResult};
use crate::session::QueryResult;
use crate::value::{LogicalType, Value};

/// Schema of `PRAGMA metrics`: one row per registered metric.
pub fn metrics_schema() -> Schema {
    Schema::new(vec![
        Field { name: "name".into(), table: None, ty: LogicalType::Text },
        Field { name: "kind".into(), table: None, ty: LogicalType::Text },
        Field { name: "value".into(), table: None, ty: LogicalType::Int },
        Field { name: "detail".into(), table: None, ty: LogicalType::Text },
    ])
}

/// One row per metric in the global registry, in declaration order.
pub fn metrics_rows() -> Vec<Vec<Value>> {
    mduck_obs::metrics()
        .snapshot()
        .into_iter()
        .map(|m| {
            vec![
                Value::Text(m.name.into()),
                Value::Text(m.kind.into()),
                Value::Int(m.value),
                Value::Text(m.detail.into()),
            ]
        })
        .collect()
}

/// A zero-argument introspection table function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Introspection {
    /// `mduck_spans()`: snapshot of the tracing-span ring buffer.
    Spans,
    /// `mduck_progress()`: snapshot of the live-progress registry.
    Progress,
    /// `mduck_query_log()`: snapshot of the query-log history.
    QueryLog,
}

impl Introspection {
    /// The function called `name` (lower-case), if there is one.
    pub fn by_name(name: &str) -> Option<Self> {
        [Introspection::Spans, Introspection::Progress, Introspection::QueryLog]
            .into_iter()
            .find(|f| f.name() == name)
    }

    /// The function's SQL name.
    pub fn name(self) -> &'static str {
        match self {
            Introspection::Spans => "mduck_spans",
            Introspection::Progress => "mduck_progress",
            Introspection::QueryLog => "mduck_query_log",
        }
    }

    /// The function's columns, qualified by the binder-assigned alias.
    pub fn fields(self, alias: &str) -> Vec<Field> {
        match self {
            Introspection::Spans => span_fields(alias),
            Introspection::Progress => progress_fields(alias),
            Introspection::QueryLog => query_log_fields(alias),
        }
    }
}

/// A snapshot of what `function` reports, oldest first, shaped for its
/// [`Introspection::fields`].
pub fn rows(function: Introspection) -> Vec<Vec<Value>> {
    match function {
        Introspection::Spans => mduck_obs::spans_snapshot()
            .into_iter()
            .map(|s| {
                vec![
                    Value::Int(s.id as i64),
                    s.parent.map(|p| Value::Int(p as i64)).unwrap_or(Value::Null),
                    Value::Text(s.name.into()),
                    Value::Int(s.depth as i64),
                    Value::Int(s.start_us as i64),
                    Value::Int(s.duration_us as i64),
                    Value::Text(s.thread.into()),
                ]
            })
            .collect(),
        Introspection::Progress => mduck_obs::progress_snapshot()
            .into_iter()
            .map(|p| {
                vec![
                    Value::Int(p.id as i64),
                    Value::Text(p.sql.into()),
                    Value::Int(p.units_done as i64),
                    Value::Int(p.units_total as i64),
                    Value::Float(p.fraction),
                    Value::Bool(p.finished),
                ]
            })
            .collect(),
        Introspection::QueryLog => mduck_obs::query_log_snapshot()
            .into_iter()
            .map(|r| {
                vec![
                    Value::Int(r.id as i64),
                    Value::Text(r.engine.into()),
                    Value::Text(r.sql.into()),
                    Value::Float(r.duration_us as f64 / 1000.0),
                    Value::Int(r.rows_returned as i64),
                    Value::Int(r.rows_scanned as i64),
                    r.guard_trip.map(Value::text).unwrap_or(Value::Null),
                    Value::Int(r.mem_peak as i64),
                    Value::Int(r.threads as i64),
                    r.error.map(|e| Value::text(&e)).unwrap_or(Value::Null),
                    r.profile.map(|p| Value::text(&p)).unwrap_or(Value::Null),
                ]
            })
            .collect(),
    }
}

/// Schema of the `mduck_spans()` table function, columns qualified by the
/// binder-assigned alias.
fn span_fields(alias: &str) -> Vec<Field> {
    let table = Some(alias.to_string());
    let f = |name: &str, ty: LogicalType| Field { name: name.into(), table: table.clone(), ty };
    vec![
        f("span_id", LogicalType::Int),
        f("parent_id", LogicalType::Int),
        f("name", LogicalType::Text),
        f("depth", LogicalType::Int),
        f("start_us", LogicalType::Int),
        f("duration_us", LogicalType::Int),
        f("thread", LogicalType::Text),
    ]
}

/// Schema of the `mduck_progress()` table function: one row per registry
/// entry (in-flight statements plus a tail of recently finished ones).
fn progress_fields(alias: &str) -> Vec<Field> {
    let table = Some(alias.to_string());
    let f = |name: &str, ty: LogicalType| Field { name: name.into(), table: table.clone(), ty };
    vec![
        f("query_id", LogicalType::Int),
        f("sql", LogicalType::Text),
        f("units_done", LogicalType::Int),
        f("units_total", LogicalType::Int),
        f("fraction", LogicalType::Float),
        f("finished", LogicalType::Bool),
    ]
}

/// Schema of the `mduck_query_log()` table function: one row per logged
/// statement, identical on both engines. `scripts/lint_metrics.sh` checks
/// the query-log JSONL fields against it.
fn query_log_fields(alias: &str) -> Vec<Field> {
    let table = Some(alias.to_string());
    let f = |name: &str, ty: LogicalType| Field { name: name.into(), table: table.clone(), ty };
    vec![
        f("query_id", LogicalType::Int),
        f("engine", LogicalType::Text),
        f("sql", LogicalType::Text),
        f("duration_ms", LogicalType::Float),
        f("rows_returned", LogicalType::Int),
        f("rows_scanned", LogicalType::Int),
        f("guard_trip", LogicalType::Text),
        f("mem_peak", LogicalType::Int),
        f("threads", LogicalType::Int),
        f("error", LogicalType::Text),
        f("profile", LogicalType::Text),
    ]
}

fn status_result(status: &str) -> QueryResult {
    QueryResult::single("status", LogicalType::Text, Value::text(status))
}

/// Result of `PRAGMA memory_limit [= ...]`: the limit now in force,
/// rendered the way the pragma accepts it (`8MB`, `unlimited`).
pub fn memory_limit_result(limit: Option<u64>) -> QueryResult {
    let shown = match limit {
        Some(bytes) => mduck_obs::format_bytes(bytes),
        None => "unlimited".to_string(),
    };
    QueryResult::single("memory_limit", LogicalType::Text, Value::text(shown))
}

/// Parse the value of `PRAGMA memory_limit = ...`: a byte count, a human
/// size string (`'8MB'`), or `'unlimited'` / `'none'` / `0` to clear.
pub fn parse_memory_limit(value: &PragmaValue) -> SqlResult<Option<u64>> {
    match value {
        PragmaValue::Int(n) if *n <= 0 => Ok(None),
        PragmaValue::Int(n) => Ok(Some(*n as u64)),
        PragmaValue::Str(s) => {
            let lower = s.trim().to_ascii_lowercase();
            if lower.is_empty() || lower == "unlimited" || lower == "none" {
                return Ok(None);
            }
            match mduck_obs::parse_bytes(s) {
                Some(0) => Ok(None),
                Some(bytes) => Ok(Some(bytes)),
                None => Err(SqlError::Parse(format!(
                    "invalid memory_limit {s:?} (expected e.g. '8MB', '512KB', a byte \
                     count, or 'unlimited')"
                ))),
            }
        }
    }
}

/// Resolve a process-global `PRAGMA <name> [= value]` statement; `None`
/// for names this module does not know.
pub fn pragma(
    name: &str,
    value: Option<&PragmaValue>,
) -> SqlResult<Option<QueryResult>> {
    match name {
        "metrics" => Ok(Some(QueryResult { schema: metrics_schema(), rows: metrics_rows() })),
        "reset_metrics" => {
            mduck_obs::metrics().reset();
            Ok(Some(status_result("metrics reset")))
        }
        "reset_spans" => {
            mduck_obs::reset_spans();
            Ok(Some(status_result("spans reset")))
        }
        "reset_query_log" => {
            mduck_obs::reset_query_log();
            Ok(Some(status_result("query log reset")))
        }
        "reset_progress" => {
            mduck_obs::reset_progress();
            Ok(Some(status_result("progress registry reset")))
        }
        // `PRAGMA query_log='q.jsonl'` points the JSONL sink;
        // `= 'off'` / `= ''` disables it; bare `PRAGMA query_log`
        // reports the active path.
        "query_log" => {
            if let Some(v) = value {
                let path = match v {
                    PragmaValue::Str(s) => s.clone(),
                    PragmaValue::Int(n) => {
                        return Err(SqlError::Parse(format!(
                            "PRAGMA query_log expects a path string, got {n}"
                        )))
                    }
                };
                let arg = match path.trim().to_ascii_lowercase().as_str() {
                    "" | "off" | "none" => None,
                    _ => Some(path.as_str()),
                };
                mduck_obs::set_query_log_sink(arg).map_err(|e| {
                    SqlError::execution(format!("cannot open query log {path:?}: {e}"))
                })?;
            }
            let shown = mduck_obs::query_log_sink_path().unwrap_or_else(|| "off".into());
            Ok(Some(QueryResult::single("query_log", LogicalType::Text, Value::text(shown))))
        }
        // Statements at least this slow attach their EXPLAIN ANALYZE
        // profile to the query log.
        "slow_query_ms" => {
            if let Some(v) = value {
                match v.as_int() {
                    Some(ms) if ms >= 0 => mduck_obs::set_slow_threshold_ms(ms as u64),
                    _ => {
                        return Err(SqlError::Parse(
                            "PRAGMA slow_query_ms expects a non-negative integer".into(),
                        ))
                    }
                }
            }
            let ms = Value::Int(mduck_obs::slow_threshold_ms() as i64);
            Ok(Some(QueryResult::single("slow_query_ms", LogicalType::Int, ms)))
        }
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The span ring, the progress registry and the query log are
    /// process-global and `pragma_dispatch` resets all three, so the tests
    /// that read them hold this lock: a reset must not land between a
    /// test's write and its read.
    static GLOBALS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock_globals() -> std::sync::MutexGuard<'static, ()> {
        GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn metrics_rows_match_schema() {
        let schema = metrics_schema();
        let rows = metrics_rows();
        assert!(!rows.is_empty());
        for row in &rows {
            assert_eq!(row.len(), schema.fields.len());
            assert!(matches!(row[0], Value::Text(_)));
            assert!(matches!(row[2], Value::Int(_)));
        }
    }

    #[test]
    fn span_rows_match_fields() {
        let _globals = lock_globals();
        let _s = mduck_obs::span("introspect.test_span");
        drop(_s);
        let fields = Introspection::Spans.fields("s");
        let rows = rows(Introspection::Spans);
        assert!(rows.iter().all(|r| r.len() == fields.len()));
        assert!(rows.iter().any(|r| r[2] == Value::Text("introspect.test_span".into())));
    }

    #[test]
    fn pragma_dispatch() {
        let _globals = lock_globals();
        assert!(pragma("metrics", None).unwrap().is_some());
        assert!(pragma("reset_spans", None).unwrap().is_some());
        assert!(pragma("reset_query_log", None).unwrap().is_some());
        assert!(pragma("reset_progress", None).unwrap().is_some());
        assert!(pragma("no_such_pragma", None).unwrap().is_none());
        assert!(pragma("slow_query_ms", Some(&PragmaValue::Int(-1))).is_err());
        assert!(pragma("query_log", Some(&PragmaValue::Int(1))).is_err());
    }

    #[test]
    fn progress_and_query_log_rows_match_fields() {
        let _globals = lock_globals();
        let p = mduck_obs::QueryProgress::begin("SELECT introspect_progress");
        p.add_total(4);
        p.add_done(4);
        p.finish();
        let fields = Introspection::Progress.fields("p");
        let rows = rows(Introspection::Progress);
        assert!(rows.iter().all(|r| r.len() == fields.len()));
        assert!(rows
            .iter()
            .any(|r| r[1] == Value::text("SELECT introspect_progress")));

        mduck_obs::log_query(mduck_obs::QueryLogRecord {
            id: mduck_obs::next_query_id(),
            engine: "vecdb",
            sql: "SELECT introspect_log".into(),
            duration_us: 1500,
            rows_returned: 1,
            rows_scanned: 2,
            guard_trip: Some("memory"),
            mem_peak: 64,
            threads: 1,
            error: None,
            profile: None,
        });
        let fields = Introspection::QueryLog.fields("q");
        let rows = super::rows(Introspection::QueryLog);
        assert!(rows.iter().all(|r| r.len() == fields.len()));
        let row = rows
            .iter()
            .find(|r| r[2] == Value::text("SELECT introspect_log"))
            .unwrap();
        assert_eq!(row[3], Value::Float(1.5));
        assert_eq!(row[6], Value::text("memory"));
        assert_eq!(row[9], Value::Null);
    }

    #[test]
    fn memory_limit_parsing_and_rendering() {
        assert_eq!(parse_memory_limit(&PragmaValue::Str("8MB".into())).unwrap(), Some(8 << 20));
        assert_eq!(parse_memory_limit(&PragmaValue::Int(4096)).unwrap(), Some(4096));
        assert_eq!(parse_memory_limit(&PragmaValue::Int(0)).unwrap(), None);
        assert_eq!(parse_memory_limit(&PragmaValue::Int(-1)).unwrap(), None);
        assert_eq!(parse_memory_limit(&PragmaValue::Str("unlimited".into())).unwrap(), None);
        assert!(parse_memory_limit(&PragmaValue::Str("lots".into())).is_err());
        let r = memory_limit_result(Some(8 << 20));
        assert_eq!(r.schema.fields[0].name, "memory_limit");
        assert_eq!(r.rows[0][0], Value::text("8MB"));
        let r = memory_limit_result(None);
        assert_eq!(r.rows[0][0], Value::text("unlimited"));
    }
}
