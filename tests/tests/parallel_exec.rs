//! Morsel-driven parallel execution.
//!
//! The contract under test: with `PRAGMA threads = N` (N > 1) the
//! vectorized engine must produce results **byte-identical** to its own
//! serial execution — same rows, same order, same values — across the
//! full BerlinMOD workload, while the shared [`quackdb::ExecGuard`]
//! keeps budgets, deadlines, and cancellation global to the statement no
//! matter how many workers are in flight.

use std::time::Duration;

use berlinmod::{benchmark_queries, BerlinModData, RoadNetwork, ScaleFactor};
use mduck_rowdb::RowDatabase;
use mduck_sql::{SqlError, Value};
use quackdb::{Database, ExecGuard, ExecLimits, VECTOR_SIZE};

const PARALLEL_THREADS: usize = 4;

fn berlinmod_envs() -> (Database, RowDatabase) {
    let net = RoadNetwork::generate(42);
    let data = BerlinModData::generate(&net, ScaleFactor(0.001), 42);
    let vdb = Database::new();
    mobilityduck::load(&vdb);
    data.load_into_quack(&vdb).expect("load quackdb");
    let rdb = RowDatabase::new();
    mobilityduck::load_row(&rdb);
    data.load_into_row(&rdb, false).expect("load rowdb");
    (vdb, rdb)
}

fn string_rows(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| r.iter().map(|v| v.to_string()).collect())
        .collect()
}

/// All 17 BerlinMOD queries at SF-0.001, three ways: parallel vecdb,
/// serial vecdb, and the row engine. Parallel must equal serial exactly
/// (value-for-value, in order); both must match the row engine's result
/// set.
#[test]
fn berlinmod_parallel_is_byte_identical_to_serial() {
    let (vdb, rdb) = berlinmod_envs();
    for (id, _question, sql) in benchmark_queries() {
        vdb.set_threads(1);
        let serial = vdb
            .execute(sql)
            .unwrap_or_else(|e| panic!("Q{id} serial: {e}\n{sql}"));
        vdb.set_threads(PARALLEL_THREADS);
        let parallel = vdb
            .execute(sql)
            .unwrap_or_else(|e| panic!("Q{id} parallel: {e}\n{sql}"));
        assert_eq!(
            serial.rows, parallel.rows,
            "Q{id}: parallel result differs from serial\n{sql}"
        );
        // Cross-engine: same result *set* (ties within ORDER BY keys may
        // legitimately order differently between engines).
        let rows_r = rdb
            .execute(sql)
            .unwrap_or_else(|e| panic!("Q{id} rowdb: {e}\n{sql}"));
        let mut a = string_rows(&parallel.rows);
        let mut b = string_rows(&rows_r.rows);
        a.sort();
        b.sort();
        assert_eq!(a, b, "Q{id}: vecdb and rowdb disagree\n{sql}");
    }
}

/// A multi-chunk scan + filter + aggregate actually fans out (visible in
/// the global morsel counters) and still matches the serial answer.
#[test]
fn parallel_stages_run_and_match() {
    let db = Database::new();
    db.execute("CREATE TABLE big(a INTEGER)").unwrap();
    db.execute("INSERT INTO big SELECT * FROM generate_series(1, 100000)").unwrap();
    let sql = "SELECT a % 7 AS k, count(*), min(a), max(a) FROM big \
               WHERE a % 3 <> 0 GROUP BY a % 7 ORDER BY k";
    db.set_threads(1);
    let serial = db.execute(sql).unwrap();
    let before = mduck_obs::metrics().parallel_stages.get();
    db.set_threads(PARALLEL_THREADS);
    let parallel = db.execute(sql).unwrap();
    assert_eq!(serial.rows, parallel.rows);
    assert!(
        mduck_obs::metrics().parallel_stages.get() > before,
        "expected at least one stage to fan out to the worker pool"
    );
}

/// Order-sensitive aggregates over multi-chunk input: float sums add,
/// lists and strings append, a separator that changes by row keeps the
/// last row's, and min/max keep the first of tied values (`0.0` and
/// `-0.0` compare equal but print apart). The fold feeds each state its
/// rows in input order at every thread count, and DISTINCT never
/// double-counts; the row engine, which folds row at a time, agrees.
#[test]
fn inexact_and_distinct_aggregates_match_serial() {
    let (db, rdb) = (Database::new(), RowDatabase::new());
    for sql in [
        "CREATE TABLE m(g INTEGER, x DOUBLE, t DOUBLE, s TEXT, sep TEXT)",
        "INSERT INTO m SELECT a % 5, 0.1 * (a % 97), \
         CASE WHEN a % 3 = 0 THEN 0.0 ELSE -0.0 END, (a % 89)::text, (a % 3)::text \
         FROM generate_series(1, 50000) s(a)",
    ] {
        db.execute(sql).unwrap();
        rdb.execute(sql).unwrap();
    }
    for sql in [
        "SELECT g, sum(x), avg(x) FROM m GROUP BY g ORDER BY g",
        "SELECT g, count(DISTINCT x) FROM m GROUP BY g ORDER BY g",
        "SELECT sum(x) FROM m",
        "SELECT g, list(x) FROM m GROUP BY g ORDER BY g",
        "SELECT g, string_agg(s, sep) FROM m GROUP BY g ORDER BY g",
        "SELECT g, min(t), max(t), min(x), max(x) FROM m GROUP BY g ORDER BY g",
        "SELECT list(s), min(t), max(t) FROM m",
    ] {
        db.set_threads(1);
        let serial = db.execute(sql).unwrap();
        db.set_threads(PARALLEL_THREADS);
        let parallel = db.execute(sql).unwrap();
        let row = rdb.execute(sql).unwrap_or_else(|e| panic!("rowdb: {e}\n{sql}"));
        // `{:?}` tells -0.0 from 0.0; `==` and `to_string` do not.
        let serial = format!("{:?}", serial.rows);
        assert_eq!(serial, format!("{:?}", parallel.rows), "parallel differs on {sql}");
        assert_eq!(serial, format!("{:?}", row.rows), "vs rowdb\n{sql}");
    }
}

/// Aggregates without GROUP BY fold every row into their one group: on
/// empty and non-empty input, with `count(*)`, `sum` and a DISTINCT
/// argument, at 1 and 4 threads, byte-identical to each other and to the
/// row engine. An empty input still yields the one row of a global
/// aggregate.
#[test]
fn ungrouped_aggregates_match_serial_and_the_row_engine() {
    let (db, rdb) = (Database::new(), RowDatabase::new());
    for sql in [
        "CREATE TABLE u(x INTEGER, y DOUBLE)",
        "CREATE TABLE e(x INTEGER, y DOUBLE)",
        "INSERT INTO u SELECT a % 37, 0.1 * (a % 11) FROM generate_series(1, 5000) s(a)",
    ] {
        db.execute(sql).unwrap();
        rdb.execute(sql).unwrap();
    }
    for table in ["u", "e"] {
        for select in [
            "count(*)",
            "sum(x), sum(y)",
            "count(DISTINCT x), count(DISTINCT y)",
            "count(*), sum(DISTINCT x), min(y), max(y)",
        ] {
            for filter in ["", " WHERE x > 30"] {
                let sql = format!("SELECT {select} FROM {table}{filter}");
                db.set_threads(1);
                let serial = db.execute(&sql).unwrap();
                db.set_threads(PARALLEL_THREADS);
                let parallel = db.execute(&sql).unwrap();
                let row = rdb.execute(&sql).unwrap_or_else(|e| panic!("rowdb: {e}\n{sql}"));
                assert_eq!(serial.rows.len(), 1, "{sql}");
                let serial = format!("{:?}", serial.rows);
                assert_eq!(serial, format!("{:?}", parallel.rows), "parallel differs on {sql}");
                assert_eq!(serial, format!("{:?}", row.rows), "vs rowdb\n{sql}");
            }
        }
    }
}

/// Stages that must not fan out although a worker pool is configured: a
/// correlated subquery's body (its scan with a fused filter, a Filter
/// above a join, a projection, GROUP BYs with and without DISTINCT), and
/// a top-level predicate holding a subquery. Each runs on multi-window
/// input at 1 and 4 threads; the results are byte-identical and equal
/// the row engine's, and a statement that fails in its third window
/// fails with the same error everywhere.
#[test]
fn serial_stages_under_a_worker_pool_match() {
    let n = 3 * VECTOR_SIZE + 500;
    // The only row whose division fails (third window), and a later row
    // whose cast would fail with another error (fourth window).
    let bad = 2 * VECTOR_SIZE + 5;
    let (vdb, rdb) = (Database::new(), RowDatabase::new());
    for sql in [
        "CREATE TABLE big(id INTEGER, g INTEGER, v INTEGER, s TEXT)".to_string(),
        format!(
            "INSERT INTO big SELECT i, i % 4, (i * 37) % 1000, \
             CASE WHEN i = {} THEN 'x' ELSE i::text END \
             FROM generate_series(1, {n}) AS t(i)",
            n - 100
        ),
        "CREATE TABLE small(k INTEGER)".to_string(),
        "INSERT INTO small VALUES (0), (1), (2), (3)".to_string(),
    ] {
        vdb.execute(&sql).unwrap();
        rdb.execute(&sql).unwrap();
    }
    let queries = [
        // Fused correlated scan filter, hash join, Filter above the join.
        "SELECT s.k, (SELECT count(*) FROM big b, small s2 WHERE b.id % 7 <> s.k \
         AND b.g = s2.k AND b.v + s2.k > s.k * 100) AS c FROM small s ORDER BY s.k",
        // Correlated projection over every window.
        "SELECT s.k FROM small s WHERE s.k * 2 + 700 IN \
         (SELECT b.v - s.k FROM big b WHERE b.id % 5 <> s.k) ORDER BY s.k",
        // Correlated GROUP BY: count and min, then DISTINCT and a float
        // average.
        "SELECT s.k FROM small s WHERE s.k IN (SELECT b.g FROM big b WHERE b.id % 3 <> s.k \
         GROUP BY b.g HAVING min(b.v) + count(*) > 1100) ORDER BY s.k",
        "SELECT s.k FROM small s WHERE s.k IN (SELECT b.g FROM big b WHERE b.id % 3 <> s.k \
         GROUP BY b.g HAVING count(DISTINCT b.v % 97) + avg(b.v) > 590) ORDER BY s.k",
        // A top-level predicate with a subquery, over every window.
        "SELECT b.id, b.v FROM big b \
         WHERE b.v > (SELECT avg(s.k) * 400 FROM small s WHERE s.k <> b.g) ORDER BY b.id",
    ];
    for sql in queries {
        vdb.set_threads(1);
        let serial = vdb.execute(sql).unwrap_or_else(|e| panic!("serial: {e}\n{sql}"));
        vdb.set_threads(PARALLEL_THREADS);
        let pooled = vdb.execute(sql).unwrap_or_else(|e| panic!("pooled: {e}\n{sql}"));
        assert_eq!(serial.rows, pooled.rows, "threads 1 vs {PARALLEL_THREADS}\n{sql}");
        let row = rdb.execute(sql).unwrap_or_else(|e| panic!("rowdb: {e}\n{sql}"));
        assert_eq!(string_rows(&serial.rows), string_rows(&row.rows), "vs rowdb\n{sql}");
        assert!(!serial.rows.is_empty(), "an empty result shows nothing\n{sql}");
    }
    let failing = format!("100 / (b.id - {bad}) + b.s::integer > 0");
    for sql in [
        format!(
            "SELECT s.k, (SELECT count(*) FROM big b WHERE b.id % 7 <> s.k AND {failing}) \
             FROM small s ORDER BY s.k"
        ),
        format!("SELECT count(*) FROM big b WHERE {failing}"),
    ] {
        let expected = rdb.execute(&sql).expect_err("rowdb must fail").to_string();
        assert!(expected.contains("division by zero"), "{expected}");
        for threads in [1, PARALLEL_THREADS] {
            vdb.set_threads(threads);
            let err = vdb.execute(&sql).expect_err("vecdb must fail").to_string();
            assert_eq!(err, expected, "threads {threads}\n{sql}");
        }
    }
}

/// A projection that calls functions splits each chunk into fixed row
/// ranges, at every thread count. Two calls failing on different rows of
/// one chunk therefore report the lower row's failure, the one the row
/// engine meets first, and report it at 1 and at 4 threads alike.
#[test]
fn split_projection_reports_the_same_error_at_every_thread_count() {
    let (vdb, rdb) = (Database::new(), RowDatabase::new());
    for sql in [
        "CREATE TABLE e(i INTEGER, s TEXT, t TEXT)",
        "INSERT INTO e SELECT i, CASE WHEN i = 700 THEN 'x700' ELSE i::text END, \
         CASE WHEN i = 20 THEN 'y20' ELSE i::text END FROM generate_series(1, 1000) AS g(i)",
    ] {
        vdb.execute(sql).unwrap();
        rdb.execute(sql).unwrap();
    }
    // `s` fails at row 700 and `t` at row 20: the error is `t`'s.
    let sql = "SELECT s::integer, t::double FROM e";
    let expected = rdb.execute(sql).expect_err("rowdb must fail").to_string();
    assert!(expected.contains("DOUBLE"), "{expected}");
    for threads in [1, PARALLEL_THREADS] {
        vdb.set_threads(threads);
        let err = vdb.execute(sql).expect_err("vecdb must fail").to_string();
        assert!(err.contains("DOUBLE"), "threads {threads}: {err}");
        assert!(expected.ends_with(&err), "threads {threads}: {err} vs rowdb {expected}");
    }
}

/// BerlinMOD Q5's projection computes `distance_gs` over 100 rows, one
/// chunk: its row ranges fan out (EXPLAIN ANALYZE reports the morsels
/// under the projection), and the rows equal the serial run's.
#[test]
fn q5_projection_fans_out_over_row_ranges() {
    let (vdb, _) = berlinmod_envs();
    let (_, _, q5) = benchmark_queries().into_iter().find(|q| q.0 == 5).expect("Q5");
    vdb.set_threads(1);
    let serial = vdb.execute(q5).expect("Q5 serial");
    vdb.set_threads(PARALLEL_THREADS);
    let parallel = vdb.execute(q5).expect("Q5 parallel");
    assert_eq!(serial.rows, parallel.rows);
    let explain = vdb.execute(&format!("EXPLAIN ANALYZE {q5}")).expect("EXPLAIN ANALYZE Q5");
    let text = explain.rows[0][0].to_string();
    let projection = text.find("distance_gs").expect("Q5 projects distance_gs");
    let rest = &text[projection..];
    let box_end = rest.find('┘').expect("the projection box closes");
    let morsels: usize = rest[..box_end]
        .split("morsels: ")
        .nth(1)
        .and_then(|m| m.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no morsels line under the projection:\n{text}"));
    assert!(rest[..box_end].contains("parallel: "), "{text}");
    assert!(morsels >= 2, "{morsels} morsels:\n{text}");
}

/// A database at `threads = 1` never touches the worker pool: all 17
/// BerlinMOD queries run without starting a pool thread. The check runs
/// in a child process of its own, where no other test can start one.
/// The child's output is captured, so its test lines cannot interleave
/// with the parent's; it is shown when the child fails.
#[test]
fn serial_database_starts_no_pool_thread() {
    const CHILD: &str = "MDUCK_TEST_SERIAL_POOL_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", "serial_database_starts_no_pool_thread", "--test-threads", "1"])
            .env(CHILD, "1")
            .env("MDUCK_THREADS", "1")
            .output()
            .expect("run the test binary again");
        assert!(
            out.status.success(),
            "the child run failed: {}\n{}{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }
    let (vdb, _) = berlinmod_envs();
    vdb.set_threads(1);
    for (id, _, sql) in benchmark_queries() {
        vdb.execute(sql).unwrap_or_else(|e| panic!("Q{id}: {e}"));
    }
    assert_eq!(mduck_obs::metrics().pool_threads_started.get(), 0);
}

/// The row budget is one shared atomic: workers charging chunks in
/// parallel must trip it and surface `ResourceExhausted`, leaving the
/// database usable.
#[test]
fn row_budget_trips_with_workers_in_flight() {
    let db = Database::new();
    db.execute("CREATE TABLE big(a INTEGER)").unwrap();
    db.execute("INSERT INTO big SELECT * FROM generate_series(1, 200000)").unwrap();
    db.set_threads(PARALLEL_THREADS);
    // The scan charges 200k up front; the budget leaves headroom so the
    // trip happens inside the parallel aggregate/projection workers.
    db.set_exec_limits(ExecLimits::default().with_row_budget(250_000));
    match db.execute("SELECT a % 11 AS k, count(*) FROM big GROUP BY a % 11") {
        Err(SqlError::ResourceExhausted(_)) => {}
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    db.set_exec_limits(ExecLimits::default());
    let r = db.execute("SELECT count(*) FROM big").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "200000");
}

/// Cancellation from another thread reaches in-flight workers: every
/// worker polls the shared guard at chunk boundaries, the queue stops,
/// and the pool drains into an error instead of completing.
#[test]
fn cancellation_stops_parallel_workers() {
    let db = Database::new();
    db.execute("CREATE TABLE big(a INTEGER)").unwrap();
    db.execute("INSERT INTO big SELECT * FROM generate_series(1, 500000)").unwrap();
    db.set_threads(PARALLEL_THREADS);
    let guard = ExecGuard::new(&ExecLimits::default());
    let handle = guard.cancel_handle();
    handle.cancel();
    let r = db.execute_with_guard(
        "SELECT a % 13 AS k, count(*), min(a) FROM big GROUP BY a % 13",
        &guard,
    );
    match r {
        Err(SqlError::ResourceExhausted(m)) => {
            assert!(m.contains("canceled"), "unexpected message: {m}")
        }
        other => panic!("expected cancellation, got {other:?}"),
    }
}

/// A wall-clock deadline fires while workers are mid-scan: the guard's
/// tick stride is polled from every worker loop.
#[test]
fn timeout_trips_parallel_scan() {
    let db = Database::new();
    db.execute("CREATE TABLE big(a INTEGER)").unwrap();
    db.execute("INSERT INTO big SELECT * FROM generate_series(1, 500000)").unwrap();
    db.set_threads(PARALLEL_THREADS);
    db.set_exec_limits(ExecLimits::default().with_timeout(Duration::from_millis(0)));
    std::thread::sleep(Duration::from_millis(2));
    match db.execute("SELECT count(*) FROM big b1, big b2 WHERE b1.a = b2.a") {
        Err(SqlError::ResourceExhausted(_)) => {}
        other => panic!("expected timeout, got {other:?}"),
    }
}

/// `PRAGMA threads` plumbing: set, read back, validate, and the
/// config-knob equivalence on both engines.
#[test]
fn pragma_threads_roundtrip() {
    let db = Database::new();
    // Setting a value echoes the new effective count.
    let r = db.execute("PRAGMA threads = 4").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "4");
    assert_eq!(db.threads(), 4);
    // Reading without a value reports the effective count.
    let r = db.execute("PRAGMA threads").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "4");
    // The config knob is the same setting.
    db.set_threads(2);
    let r = db.execute("PRAGMA threads").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "2");
    // 0 restores auto-detection (>= 1 whatever the host).
    db.execute("PRAGMA threads = 0").unwrap();
    assert_eq!(db.threads(), 0);
    assert!(db.effective_threads() >= 1);
    // Out-of-range values are rejected.
    assert!(matches!(
        db.execute("PRAGMA threads = -1"),
        Err(SqlError::OutOfRange(_))
    ));
    assert!(matches!(
        db.execute("PRAGMA threads = 100000"),
        Err(SqlError::OutOfRange(_))
    ));

    // The row engine accepts the pragma for compatibility but stays
    // single-threaded by design.
    let rdb = RowDatabase::new();
    let r = rdb.execute("PRAGMA threads = 8").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "1");
    assert!(rdb.execute("PRAGMA threads = -1").is_err());
}

// ------------------------------------------------------- ORDER BY fixes

/// Regression: comparing incomparable non-null values in ORDER BY used to
/// silently treat them as equal (nondeterministic output order). Both
/// engines must now fail with the same typed error.
#[test]
fn order_by_incomparable_values_error_identically() {
    let vdb = Database::new();
    let rdb = RowDatabase::new();
    let setup = "
        CREATE TABLE t(g INTEGER, x INTEGER);
        INSERT INTO t VALUES (1, 10), (1, 20), (2, 30), (2, 40);
    ";
    vdb.execute_script(setup).unwrap();
    rdb.execute_script(setup).unwrap();
    // LIST values have no defined order: sorting by one must be a type
    // error, not a silent no-op.
    let sql = "SELECT g, list(x) AS xs FROM t GROUP BY g ORDER BY xs";
    let ev = vdb.execute(sql).unwrap_err();
    let er = rdb.execute(sql).unwrap_err();
    assert!(matches!(ev, SqlError::Type(_)), "vecdb: {ev}");
    assert!(matches!(er, SqlError::Type(_)), "rowdb: {er}");
    assert_eq!(ev.to_string(), er.to_string(), "engines disagree on the error");
    assert!(
        ev.to_string().contains("ORDER BY cannot compare"),
        "unexpected message: {ev}"
    );
}

/// NULL ordering stays the standard one (NULLS LAST ascending, NULLS
/// FIRST descending) and identical across engines.
#[test]
fn order_by_null_placement_agrees() {
    let vdb = Database::new();
    let rdb = RowDatabase::new();
    let setup = "
        CREATE TABLE t(a INTEGER, b VARCHAR);
        INSERT INTO t VALUES (3, 'c'), (NULL, 'n1'), (1, 'a'), (NULL, 'n2'), (2, 'b');
    ";
    vdb.execute_script(setup).unwrap();
    rdb.execute_script(setup).unwrap();
    for sql in [
        "SELECT a, b FROM t ORDER BY a, b",
        "SELECT a, b FROM t ORDER BY a DESC, b",
    ] {
        let a = string_rows(&vdb.execute(sql).unwrap().rows);
        let b = string_rows(&rdb.execute(sql).unwrap().rows);
        assert_eq!(a, b, "engines disagree on {sql}");
    }
    let asc = vdb.execute("SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(asc.rows.last().unwrap()[0], Value::Null, "NULLS LAST when ascending");
    let desc = vdb.execute("SELECT a FROM t ORDER BY a DESC").unwrap();
    assert_eq!(desc.rows[0][0], Value::Null, "NULLS FIRST when descending");
}

/// Regression: ORDER BY used to clone every output row while building its
/// sort keys. The permutation is now applied by moving rows. The stage
/// timing hook is the observable: a 100k-row sort must report its actuals
/// through `ProfiledQuery::stages` and stay in the same ballpark as the
/// projection that produced the rows.
#[test]
fn order_by_stage_actuals_on_100k_sort() {
    let db = Database::new();
    db.execute("CREATE TABLE s(a INTEGER, b VARCHAR)").unwrap();
    db.execute(
        "INSERT INTO s SELECT x, 'row-' || ((x * 7919) % 100000) \
         FROM generate_series(1, 100000) g(x)",
    )
    .unwrap();
    let profiled = db
        .execute_analyzed("SELECT a, b FROM s ORDER BY b, a")
        .unwrap();
    assert_eq!(profiled.result.rows.len(), 100_000);
    let order_by = profiled
        .stages
        .iter()
        .find(|s| s.stage == "order_by")
        .expect("order_by stage actuals missing");
    assert_eq!(order_by.rows_out, 100_000);
    assert!(order_by.elapsed_ms > 0.0);
    // Sorting 100k pre-built rows moves pointers, not payloads: it must
    // not dominate end-to-end time by an order of magnitude.
    assert!(
        order_by.elapsed_ms < profiled.total_ms,
        "order_by {:.3} ms exceeds total {:.3} ms",
        order_by.elapsed_ms,
        profiled.total_ms
    );
}
