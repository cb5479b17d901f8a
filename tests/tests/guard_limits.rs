//! Integration tests for the per-query execution guard: row budgets,
//! wall-clock timeouts, cancellation, and nesting limits must all surface
//! as `SqlError::ResourceExhausted` — never a panic, never a hang.

use std::time::Duration;

use mduck_sql::SqlError;
use quackdb::{Database, ExecGuard, ExecLimits};

fn assert_exhausted(r: Result<quackdb::QueryResult, SqlError>) {
    match r {
        Err(SqlError::ResourceExhausted(_)) => {}
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}

#[test]
fn row_budget_stops_generate_series() {
    let db = Database::new();
    db.set_exec_limits(ExecLimits::default().with_row_budget(10_000));
    assert_exhausted(db.execute("SELECT * FROM generate_series(1, 100000000)"));
    // The database stays usable afterwards.
    let r = db.execute("SELECT 1").unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn row_budget_stops_cross_join_blowup() {
    let db = Database::new();
    db.execute("CREATE TABLE t(a INTEGER)").unwrap();
    let vals: Vec<String> = (0..1000).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", vals.join(","))).unwrap();
    db.set_exec_limits(ExecLimits::default().with_row_budget(100_000));
    // 1000^3 = 1e9 rows: must trip the budget, not OOM.
    assert_exhausted(db.execute("SELECT count(*) FROM t a, t b, t c"));
}

#[test]
fn within_budget_queries_succeed() {
    let db = Database::new();
    db.set_exec_limits(ExecLimits::default().with_row_budget(100_000));
    let r = db.execute("SELECT count(*) FROM generate_series(1, 1000)").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "1000");
}

#[test]
fn timeout_stops_long_query() {
    let db = Database::new();
    db.set_exec_limits(ExecLimits::default().with_timeout(Duration::from_millis(20)));
    // Unbounded-ish series scan; the deadline must fire at a chunk boundary.
    assert_exhausted(db.execute("SELECT sum(x) FROM generate_series(1, 2000000000) s(x)"));
}

#[test]
fn cancellation_from_another_thread() {
    let db = Database::new();
    let guard = ExecGuard::new(&ExecLimits::default());
    let handle = guard.cancel_handle();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        handle.cancel();
    });
    let r = db.execute_with_guard("SELECT sum(x) FROM generate_series(1, 2000000000) s(x)", &guard);
    canceller.join().unwrap();
    match r {
        Err(SqlError::ResourceExhausted(msg)) => assert!(msg.contains("canceled"), "{msg}"),
        other => panic!("expected cancellation, got {other:?}"),
    }
}

#[test]
fn parser_depth_limit_is_resource_exhausted() {
    let db = Database::new();
    let depth = mduck_sql::parser::MAX_PARSER_DEPTH + 10;
    let sql = format!("SELECT {}1{}", "(".repeat(depth), ")".repeat(depth));
    assert_exhausted(db.execute(&sql));
}

#[test]
fn guard_reuse_spends_one_budget_across_statements() {
    let db = Database::new();
    // Each statement charges ~2000 rows (series materialization +
    // projection); 3000 admits the first and trips on the second.
    let guard = ExecGuard::new(&ExecLimits::default().with_row_budget(3000));
    db.execute_with_guard("SELECT * FROM generate_series(1, 1000)", &guard).unwrap();
    assert_exhausted(db.execute_with_guard("SELECT * FROM generate_series(1, 1000)", &guard));
}

#[test]
fn guard_trips_are_counted_in_metrics() {
    // Counters are global and monotonic, so tests running in parallel can
    // only push them further up: assert on before/after deltas, not values.
    let m = mduck_obs::metrics();

    let before = m.guard_trip_row_budget.get();
    let db = Database::new();
    db.set_exec_limits(ExecLimits::default().with_row_budget(10_000));
    assert_exhausted(db.execute("SELECT * FROM generate_series(1, 100000000)"));
    assert!(m.guard_trip_row_budget.get() > before, "row-budget trip not counted");

    let before = m.guard_trip_timeout.get();
    db.set_exec_limits(ExecLimits::default().with_timeout(Duration::from_millis(20)));
    assert_exhausted(db.execute("SELECT sum(x) FROM generate_series(1, 2000000000) s(x)"));
    assert!(m.guard_trip_timeout.get() > before, "timeout trip not counted");

    let before = m.guard_trip_cancel.get();
    db.set_exec_limits(ExecLimits::default());
    let guard = ExecGuard::new(&ExecLimits::default());
    guard.cancel_handle().cancel();
    assert_exhausted(db.execute_with_guard("SELECT * FROM generate_series(1, 1000)", &guard));
    assert!(m.guard_trip_cancel.get() > before, "cancellation trip not counted");

    let before = m.guard_trip_depth.get();
    db.set_exec_limits(ExecLimits::default().with_max_subquery_depth(0));
    assert_exhausted(db.execute("SELECT (SELECT 1)"));
    assert!(m.guard_trip_depth.get() > before, "depth trip not counted");
}

#[test]
fn update_and_delete_respect_budget() {
    let db = Database::new();
    db.execute("CREATE TABLE t(a INTEGER)").unwrap();
    let vals: Vec<String> = (0..500).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", vals.join(","))).unwrap();
    db.set_exec_limits(ExecLimits::default().with_row_budget(100));
    assert_exhausted(db.execute("UPDATE t SET a = a + 1"));
    assert_exhausted(db.execute("DELETE FROM t WHERE a >= 0"));
}
