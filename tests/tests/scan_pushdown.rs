//! Fused, late-materializing scans: a base table's pushed-down conjuncts
//! run inside the scan, one `VECTOR_SIZE` window at a time, and only the
//! surviving rows are copied out.
//!
//! Differential against the row engine (`mduck-rowdb`), which evaluates
//! the same WHERE clauses a row at a time: NULLs and three-valued logic,
//! multi-conjunct order (a later conjunct must never see a row an earlier
//! one dropped), window-boundary table sizes, scans after DML and after
//! WAL recovery, the index-scan fallback, serial vs parallel byte
//! identity, and the resource guard tripping mid-scan.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mduck_rowdb::RowDatabase;
use mduck_sql::{LogicalType, SqlError, Value};
use quackdb::{Database, ExecGuard, ExecLimits, VECTOR_SIZE};

const PARALLEL_THREADS: usize = 4;

/// The same statements against both engines.
struct Pair {
    vec: Database,
    row: RowDatabase,
}

impl Pair {
    fn new() -> Self {
        let vec = Database::new();
        mobilityduck::load(&vec);
        let row = RowDatabase::new();
        mobilityduck::load_row(&row);
        Pair { vec, row }
    }

    fn exec(&self, sql: &str) {
        self.vec.execute(sql).unwrap_or_else(|e| panic!("vecdb: {e}\n{sql}"));
        self.row.execute(sql).unwrap_or_else(|e| panic!("rowdb: {e}\n{sql}"));
    }

    /// Run `sql` serially and on a worker pool: the two vecdb results
    /// must be byte-identical, and equal the row engine's result set.
    fn check(&self, sql: &str) -> Vec<Vec<Value>> {
        self.vec.set_threads(1);
        let serial = self.vec.execute(sql).unwrap_or_else(|e| panic!("vecdb serial: {e}\n{sql}"));
        self.vec.set_threads(PARALLEL_THREADS);
        let parallel =
            self.vec.execute(sql).unwrap_or_else(|e| panic!("vecdb parallel: {e}\n{sql}"));
        assert_eq!(serial.rows, parallel.rows, "serial vs parallel differ\n{sql}");
        let row = self.row.execute(sql).unwrap_or_else(|e| panic!("rowdb: {e}\n{sql}"));
        assert_eq!(sorted(&serial.rows), sorted(&row.rows), "vecdb vs rowdb differ\n{sql}");
        serial.rows
    }

    /// Both engines, and both vecdb thread counts, must reject `sql`.
    fn check_error(&self, sql: &str) {
        for threads in [1, PARALLEL_THREADS] {
            self.vec.set_threads(threads);
            assert!(self.vec.execute(sql).is_err(), "vecdb threads={threads} accepted\n{sql}");
        }
        assert!(self.row.execute(sql).is_err(), "rowdb accepted\n{sql}");
    }
}

fn sorted(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    let mut v: Vec<Vec<String>> =
        rows.iter().map(|r| r.iter().map(|x| x.to_string()).collect()).collect();
    v.sort();
    v
}

/// `t(id, a, d, x, s, flag)` with `n` rows: NULLs in every nullable
/// column on a fixed stride, and `d = 0` on every fifth row.
fn load_t(p: &Pair, n: usize) {
    p.exec("CREATE TABLE t(id INTEGER, a INTEGER, d INTEGER, x DOUBLE, s TEXT, flag BOOLEAN)");
    if n == 0 {
        return;
    }
    p.exec(&format!(
        "INSERT INTO t SELECT i, \
           CASE WHEN i % 7 = 0 THEN NULL ELSE i % 13 END, \
           CASE WHEN i % 11 = 0 THEN NULL ELSE i % 5 END, \
           CASE WHEN i % 17 = 0 THEN NULL ELSE i * 0.5 END, \
           CASE WHEN i % 19 = 0 THEN NULL ELSE 'k' || (i % 23) END, \
           CASE WHEN i % 3 = 0 THEN NULL WHEN i % 3 = 1 THEN true ELSE false END \
         FROM generate_series(1, {n}) AS g(i)"
    ));
}

/// Predicates covering the comparison kernels (column vs literal on both
/// sides, column vs column, mixed numeric types), NULL literals, and
/// three-valued AND / OR / NOT, alone and as multi-conjunct WHEREs.
const PREDICATES: &[&str] = &[
    "a > 5",
    "5 < a",
    "a = 3.0",
    "2.5 >= x",
    "a = NULL",
    "NULL <> a",
    "a <> d",
    "s < 'k15'",
    "s = 'k7' OR a IS NULL",
    "flag",
    "NOT flag",
    "flag OR a > 10",
    "NOT (a > 5 AND flag)",
    "(a > 5) = flag",
    "a IN (1, 2, NULL)",
    "a NOT IN (1, 2)",
    "x IS NULL OR d IS NOT NULL",
    "a > 2 AND d < 3 AND s <> 'k1'",
    "flag AND x > 100.0 AND a IS NOT NULL",
    "id % 2 = 0 AND (flag OR NOT flag) AND a < 12",
];

fn check_predicates(p: &Pair) {
    for pred in PREDICATES {
        p.check(&format!("SELECT id, a, d, x, s, flag FROM t WHERE {pred} ORDER BY id"));
        p.check(&format!("SELECT count(*), sum(a), min(s) FROM t WHERE {pred}"));
    }
}

#[test]
fn predicates_with_nulls_agree_with_row_engine() {
    let p = Pair::new();
    load_t(&p, 3 * VECTOR_SIZE + 7);
    check_predicates(&p);
}

#[test]
fn window_boundary_table_sizes() {
    for n in [0, 1, VECTOR_SIZE - 1, VECTOR_SIZE, VECTOR_SIZE + 1, 2 * VECTOR_SIZE] {
        let p = Pair::new();
        load_t(&p, n);
        let rows = p.check("SELECT count(*) FROM t WHERE id > 0");
        assert_eq!(rows[0][0], Value::Int(n as i64), "n = {n}");
        // Survivors on both sides of every window boundary.
        let rows = p.check(&format!(
            "SELECT id FROM t WHERE id % {VECTOR_SIZE} IN (0, 1, {}) ORDER BY id",
            VECTOR_SIZE - 1
        ));
        let want = (1..=n as i64)
            .filter(|i| [0, 1, VECTOR_SIZE as i64 - 1].contains(&(i % VECTOR_SIZE as i64)))
            .count();
        assert_eq!(rows.len(), want, "n = {n}");
        check_predicates(&p);
    }
}

#[test]
fn later_conjuncts_only_see_earlier_survivors() {
    let p = Pair::new();
    load_t(&p, 2 * VECTOR_SIZE + 100);
    // `100 / d` errors on d = 0; the first conjunct drops exactly those
    // rows, so the division never sees them.
    p.check("SELECT id FROM t WHERE d <> 0 AND 100 / d > 30 ORDER BY id");
    p.check("SELECT count(*) FROM t WHERE d <> 0 AND a > 3 AND 100 / d > 30");
    // NULL survivors are dropped too (d IS NULL makes `d <> 0` NULL).
    p.check("SELECT count(*) FROM t WHERE d IS NOT NULL AND d <> 0 AND 7 % d = 1");
    // Written the other way round the division reaches d = 0: an error
    // on both engines, serial and parallel.
    p.check_error("SELECT id FROM t WHERE 100 / d > 30 AND d <> 0");
    // The first conjunct confines the division to ids 1..4 (d = 1..4).
    p.check("SELECT id, 100 / d FROM t WHERE id < 5 AND 100 / d > 0 ORDER BY id");
    // Zero divisors survive the first conjunct only in a later window:
    // the error surfaces from there.
    p.check_error(&format!("SELECT id FROM t WHERE id > {VECTOR_SIZE} AND 100 / d > 0"));
}

/// `CASE` conjuncts over a join: a filter local to the second relation,
/// and a hash-join key over it. Both are renumbered onto that relation's
/// own columns, which must reach inside the `CASE`.
#[test]
fn case_conjuncts_over_a_join_agree_with_row_engine() {
    let p = Pair::new();
    load_t(&p, VECTOR_SIZE + 10);
    p.exec("CREATE TABLE u(z INTEGER)");
    p.exec("INSERT INTO u SELECT i FROM generate_series(0, 3) AS g(i)");
    p.check(
        "SELECT id, a, z FROM t, u WHERE CASE WHEN u.z > 1 THEN true ELSE false END \
         ORDER BY id, z",
    );
    p.check(
        "SELECT id, z FROM t, u WHERE t.a = CASE WHEN u.z = 1 THEN 1 ELSE 2 END ORDER BY id, z",
    );
}

/// `generate_series` relations filtered and joined on both engines, up
/// to the `i64` bounds: the series stops at `stop` without stepping past
/// it.
#[test]
fn series_relations_agree_with_row_engine() {
    let p = Pair::new();
    p.check("SELECT i FROM generate_series(1, 10, 3) AS g(i) WHERE i > 1 ORDER BY i");
    p.check("SELECT i FROM generate_series(5, 1, -2) AS g(i) ORDER BY i");
    p.check("SELECT count(*) FROM generate_series(3, 1) AS g(i)");
    let rows = p.check(
        "SELECT i FROM generate_series(9223372036854775805, 9223372036854775807, 2) AS g(i) \
         ORDER BY i",
    );
    assert_eq!(rows, vec![vec![Value::Int(i64::MAX - 2)], vec![Value::Int(i64::MAX)]]);
    let rows = p.check(
        "SELECT i FROM generate_series(-9223372036854775807 + 1, -9223372036854775807 - 1, -1) \
         AS g(i) ORDER BY i",
    );
    assert_eq!(rows.len(), 3);
    p.check(
        "SELECT a.i, b.i FROM generate_series(1, 4) AS a(i), generate_series(2, 6, 2) AS b(i) \
         WHERE a.i = b.i ORDER BY a.i",
    );
    p.check_error("SELECT i FROM generate_series(1, 5, 0) AS g(i)");
}

#[test]
fn scans_after_insert_update_delete() {
    let p = Pair::new();
    load_t(&p, VECTOR_SIZE + 10);
    p.exec("DELETE FROM t WHERE id % 4 = 0");
    p.exec("UPDATE t SET a = NULL, s = 'upd' WHERE id % 9 = 1");
    p.exec(&format!(
        "INSERT INTO t SELECT i, i % 3, 1, i * 1.5, 'ins', true \
         FROM generate_series({}, {}) AS g(i)",
        2 * VECTOR_SIZE,
        2 * VECTOR_SIZE + 700
    ));
    check_predicates(&p);
    p.check("SELECT id FROM t WHERE s = 'upd' AND a IS NULL ORDER BY id");
    p.check("SELECT count(*) FROM t WHERE s = 'ins' AND flag");
}

#[test]
fn scans_after_wal_recovery() {
    let path = std::env::temp_dir()
        .join(format!("mduck_scan_pushdown_{}.wal", std::process::id()));
    let cleanup = |p: &PathBuf| {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(format!("{}.ckpt", p.display()));
    };
    cleanup(&path);
    let p = Pair::new();
    let statements = [
        format!(
            "INSERT INTO t SELECT i, i % 13, i % 5, i * 0.5, 'k' || (i % 23), i % 2 = 0 \
             FROM generate_series(1, {}) AS g(i)",
            VECTOR_SIZE + 300
        ),
        "DELETE FROM t WHERE id % 6 = 0".to_string(),
        "UPDATE t SET a = NULL WHERE id % 10 = 3".to_string(),
        "INSERT INTO t VALUES (999999, 4, 0, NULL, NULL, NULL)".to_string(),
    ];
    let create = "CREATE TABLE t(id INTEGER, a INTEGER, d INTEGER, x DOUBLE, s TEXT, flag BOOLEAN)";
    {
        let durable = Database::open(&path).unwrap();
        durable.execute(create).unwrap();
        for sql in &statements {
            durable.execute(sql).unwrap();
        }
    }
    p.row.execute(create).unwrap();
    for sql in &statements {
        p.row.execute(sql).unwrap();
    }
    // The vecdb side of the pair is the recovered database.
    let recovered = Pair { vec: Database::open(&path).unwrap(), row: p.row };
    check_predicates(&recovered);
    recovered.check("SELECT id FROM t WHERE d = 0 AND x IS NULL ORDER BY id");
    drop(recovered);
    cleanup(&path);
}

/// `boxes(id, b STBOX)` with a TRTREE index on `b` in vecdb only.
fn boxes_pair(n: usize) -> Pair {
    let p = Pair::new();
    p.exec("CREATE TABLE boxes(id INTEGER, b STBOX)");
    p.vec.execute("CREATE INDEX bi ON boxes USING TRTREE(b)").unwrap();
    p.exec(&format!(
        "INSERT INTO boxes SELECT i, ('STBOX X((' || i || ',' || i || '),(' || (i+5) || ',' \
         || (i+5) || '))')::stbox FROM generate_series(1, {n}) AS g(i)"
    ));
    p
}

#[test]
fn index_scan_residual_filters_and_declined_fallback() {
    let n = 2 * VECTOR_SIZE + 40;
    let p = boxes_pair(n);
    // Index answers `&&`; the other conjuncts run on its candidates.
    let hit = "SELECT id FROM boxes WHERE id % 3 = 0 \
               AND b && stbox 'STBOX X((100,100),(3000,3000))' AND id < 2500 ORDER BY id";
    let plan = p.vec.execute(&format!("EXPLAIN {hit}")).unwrap().rows[0][0].to_string();
    assert!(plan.contains("TRTREE_INDEX_SCAN") && plan.contains("Filters:"), "{plan}");
    assert!(!plan.contains("FILTER"), "{plan}");
    let rows = p.check(hit);
    assert_eq!(rows.len(), (95..2500).filter(|i| i % 3 == 0).count());

    // The index declines `@>` at run time (its candidates are box
    // overlaps, not containment): the fused scan applies the indexed
    // predicate first, then the rest, over every row.
    let declined = "SELECT id FROM boxes WHERE b @> stbox 'STBOX X((300,300),(301,301))' \
                    AND id % 2 = 0 ORDER BY id";
    let plan = p.vec.execute(&format!("EXPLAIN {declined}")).unwrap().rows[0][0].to_string();
    assert!(plan.contains("TRTREE_INDEX_SCAN"), "{plan}");
    let rows = p.check(declined);
    assert_eq!(rows, vec![vec![Value::Int(296)], vec![Value::Int(298)], vec![Value::Int(300)]]);
    p.vec.set_threads(1);
    let pq = p.vec.execute_analyzed(declined).unwrap();
    let scan = pq.operators.iter().find(|o| o.op == "index_scan").expect("index scan");
    assert_eq!(scan.rows_scanned, n as u64, "fallback visits every row");
    assert_eq!(scan.rows_out, 3);
}

/// A table with an index on each of two columns: an index scan and the
/// row engine's index nested-loop join must probe the index on the
/// column the predicate reads, never the other one. Both engines, with
/// indexes, must agree with the row engine without any.
#[test]
fn two_indexed_columns_probe_the_planned_column() {
    let p = Pair::new();
    let plain = RowDatabase::new();
    mobilityduck::load_row(&plain);
    let setup = [
        "CREATE TABLE t(id INTEGER, a TGEOMPOINT, b TGEOMPOINT)",
        // Row 1's `a` and row 2's `b` lie in x ∈ [0, 1]; the other two
        // trips lie in x ∈ [50, 51].
        "INSERT INTO t VALUES \
         (1, '[Point(0 0)@2025-01-01 08:00:00, Point(1 0)@2025-01-01 09:00:00]'::tgeompoint, \
             '[Point(50 0)@2025-01-01 08:00:00, Point(51 0)@2025-01-01 09:00:00]'::tgeompoint), \
         (2, '[Point(50 0)@2025-01-01 08:00:00, Point(51 0)@2025-01-01 09:00:00]'::tgeompoint, \
             '[Point(0 0)@2025-01-01 08:00:00, Point(1 0)@2025-01-01 09:00:00]'::tgeompoint)",
        "CREATE TABLE q(qid INTEGER, box STBOX)",
        "INSERT INTO q VALUES (10, 'STBOX X((-1,-1),(2,1))'::stbox), \
         (20, 'STBOX X((49,-1),(52,1))'::stbox)",
    ];
    for sql in setup {
        p.exec(sql);
        plain.execute(sql).unwrap();
    }
    p.vec.execute("CREATE INDEX ia ON t USING TRTREE(a)").unwrap();
    p.vec.execute("CREATE INDEX ib ON t USING TRTREE(b)").unwrap();
    p.row.execute("CREATE INDEX ia ON t USING GIST(a)").unwrap();
    p.row.execute("CREATE INDEX ib ON t USING GIST(b)").unwrap();

    let scan = "SELECT id FROM t WHERE b && 'STBOX X((-1,-1),(2,1))'::stbox ORDER BY id";
    let plan = p.vec.execute(&format!("EXPLAIN {scan}")).unwrap().rows[0][0].to_string();
    assert!(plan.contains("index: ib"), "{plan}");
    let row_plan = p.row.execute(&format!("EXPLAIN {scan}")).unwrap().rows[0][0].to_string();
    assert!(row_plan.contains("Index Scan"), "{row_plan}");
    assert_eq!(p.check(scan), vec![vec![Value::Int(2)]]);

    let join = "SELECT q.qid, t.id FROM q, t WHERE t.b && q.box ORDER BY q.qid, t.id";
    let row_plan = p.row.execute(&format!("EXPLAIN {join}")).unwrap().rows[0][0].to_string();
    assert!(row_plan.contains("index probe"), "{row_plan}");
    let expected = vec![vec![Value::Int(10), Value::Int(2)], vec![Value::Int(20), Value::Int(1)]];
    for sql in [scan, join] {
        let unindexed = plain.execute(sql).unwrap().rows;
        assert_eq!(p.check(sql), unindexed, "{sql}");
    }
    assert_eq!(p.check(join), expected);
}

#[test]
fn fused_scan_reports_visited_and_emitted_rows() {
    let p = Pair::new();
    load_t(&p, 3 * VECTOR_SIZE);
    for threads in [1, PARALLEL_THREADS] {
        p.vec.set_threads(threads);
        let pq = p.vec.execute_analyzed("SELECT id FROM t WHERE a = 4 AND flag").unwrap();
        let scan = pq.operators.iter().find(|o| o.op == "seq_scan").expect("seq scan");
        assert_eq!(scan.rows_scanned, 3 * VECTOR_SIZE as u64);
        assert_eq!(scan.rows_out, pq.result.rows.len() as u64);
        assert!(pq.operators.iter().all(|o| o.op != "filter"), "{:?}", pq.operators);
        let text = &pq.explain;
        let want = format!("rows: {} → {}", 3 * VECTOR_SIZE, pq.result.rows.len());
        assert!(text.contains(&want), "threads={threads}\n{text}");
    }
}

fn assert_resource_trip(r: Result<quackdb::QueryResult, SqlError>, what: &str) {
    match r {
        Err(SqlError::ResourceExhausted(msg)) => assert!(msg.contains(what), "wrong trip: {msg}"),
        other => panic!("expected {what} trip, got {other:?}"),
    }
}

#[test]
fn memory_limit_trips_when_a_filtered_scan_keeps_most_rows() {
    let db = Database::new();
    db.execute("CREATE TABLE wide(id INTEGER, pad TEXT)").unwrap();
    db.execute(&format!(
        "INSERT INTO wide SELECT i, '{}' || i FROM generate_series(1, {}) AS g(i)",
        "x".repeat(200),
        8 * VECTOR_SIZE
    ))
    .unwrap();
    db.execute("PRAGMA memory_limit='1MB'").unwrap();
    for threads in [1, PARALLEL_THREADS] {
        db.set_threads(threads);
        // Survivors carry the wide column the count reads: ~3.5MB
        // materialized.
        assert_resource_trip(
            db.execute("SELECT count(pad) FROM wide WHERE id % 10 <> 0"),
            "memory_limit",
        );
        // A selective filter copies the narrow predicate column plus a
        // handful of rows and stays under the limit.
        let r = db.execute("SELECT count(pad) FROM wide WHERE id % 1000 = 0").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(16));
    }
}

/// Register `gate(a)`: true for every row, but when it sees `trigger` it
/// records that the scan got there and blocks until `release` is set (or
/// sleeps `pause`). `seen` tracks the largest argument evaluated.
fn register_gate(
    db: &Database,
    trigger: i64,
    pause: Duration,
    reached: Arc<AtomicBool>,
    release: Arc<AtomicBool>,
    seen: Arc<AtomicI64>,
) {
    db.registry_mut().register_scalar(
        "gate",
        vec![LogicalType::Int],
        LogicalType::Bool,
        move |args| {
            let a = args[0].as_int()?;
            seen.fetch_max(a, Ordering::SeqCst);
            if a == trigger {
                reached.store(true, Ordering::SeqCst);
                std::thread::sleep(pause);
                while !release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
            Ok(Value::Bool(true))
        },
    );
}

fn big_table(db: &Database, n: usize) {
    db.execute("CREATE TABLE big(a INTEGER)").unwrap();
    db.execute(&format!("INSERT INTO big SELECT * FROM generate_series(1, {n})")).unwrap();
    db.set_threads(1);
}

#[test]
fn cancellation_is_observed_mid_scan() {
    let db = Database::new();
    let n = 10 * VECTOR_SIZE;
    big_table(&db, n);
    let (reached, release) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
    let seen = Arc::new(AtomicI64::new(0));
    // Row a = 3000 lies in the second window (a = 2049..=4096).
    register_gate(&db, 3000, Duration::ZERO, reached.clone(), release.clone(), seen.clone());
    let guard = ExecGuard::new(&ExecLimits::default());
    let cancel = guard.cancel_handle();
    let result = std::thread::scope(|s| {
        s.spawn(|| {
            while !reached.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            cancel.cancel();
            release.store(true, Ordering::SeqCst);
        });
        db.execute_with_guard("SELECT count(*) FROM big WHERE a > 0 AND gate(a)", &guard)
    });
    assert_resource_trip(result, "canceled");
    // The second window finished evaluating; the third never started.
    assert_eq!(seen.load(Ordering::SeqCst), 2 * VECTOR_SIZE as i64);
}

#[test]
fn timeout_is_observed_mid_scan() {
    let db = Database::new();
    let n = 20 * VECTOR_SIZE;
    big_table(&db, n);
    let seen = Arc::new(AtomicI64::new(0));
    register_gate(
        &db,
        3000,
        Duration::from_millis(600),
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(true)),
        seen.clone(),
    );
    let timeout = Some(Duration::from_millis(200));
    db.set_exec_limits(ExecLimits { timeout, ..Default::default() });
    assert_resource_trip(db.execute("SELECT count(*) FROM big WHERE gate(a)"), "timeout");
    // The deadline is read on a stride of window ticks: the scan stops
    // within a few windows of the stall, far short of the table's end.
    let last = seen.load(Ordering::SeqCst);
    assert!(last >= 3000 && last < n as i64 / 2, "scan ran to row {last} of {n}");
}
