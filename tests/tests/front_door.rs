//! The statement front door both engines share (`mduck_sql::session` +
//! `mduck_wal::durable`): one script of DDL, DML, pragmas and utility
//! statements must give the same columns, types and rows — or the same
//! `SqlError` variant — on quackdb and on the row engine, and DML must
//! charge the statement's own row budget on both.
//!
//! Metrics and the query log are process-global, so every test here
//! serializes behind `SERIAL`.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use mduck_rowdb::{BTreeIndexType, RowDatabase};
use mduck_sql::{ExecLimits, LogicalType, QueryResult, SqlError, SqlResult, Value};
use quackdb::Database;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn wal_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("mduck_front_{}_{name}.wal", std::process::id()));
    cleanup(&p);
    p
}

fn cleanup(p: &PathBuf) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(format!("{}.ckpt", p.display()));
    let _ = std::fs::remove_file(format!("{}.ckpt.tmp", p.display()));
}

/// Both engines with the same index method available: the index
/// framework is shared, so the row engine's BTREE registers on quackdb
/// too and one `CREATE INDEX` statement means the same on both.
fn engines() -> (Database, RowDatabase) {
    (vec_with_btree(), RowDatabase::new())
}

fn vec_with_btree() -> Database {
    let vdb = Database::new();
    vdb.index_types_mut().register(Arc::new(BTreeIndexType));
    vdb
}

/// What a statement produced, comparable across engines: column names
/// and types plus rows, or just the error variant (messages may name
/// engine-specific details).
#[derive(Debug, PartialEq)]
enum Outcome {
    Rows(Vec<(String, LogicalType)>, Vec<Vec<Value>>),
    Error(std::mem::Discriminant<SqlError>),
}

/// `wal` is the engine's own WAL path; it is masked in results so both
/// engines' `PRAGMA wal` answers compare equal.
fn outcome(r: SqlResult<QueryResult>, wal: &str) -> Outcome {
    match r {
        Ok(r) => Outcome::Rows(
            r.schema.fields.iter().map(|f| (f.name.clone(), f.ty.clone())).collect(),
            r.rows
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|v| if v == Value::text(wal) { Value::text("<wal>") } else { v })
                        .collect()
                })
                .collect(),
        ),
        Err(e) => Outcome::Error(std::mem::discriminant(&e)),
    }
}

fn ok_rows(names: &[(&str, LogicalType)], rows: Vec<Vec<Value>>) -> Outcome {
    Outcome::Rows(names.iter().map(|(n, t)| (n.to_string(), t.clone())).collect(), rows)
}

fn empty() -> Outcome {
    Outcome::Rows(Vec::new(), Vec::new())
}

fn count(n: i64) -> Outcome {
    ok_rows(&[("count", LogicalType::Int)], vec![vec![Value::Int(n)]])
}

fn text(name: &str, v: &str) -> Outcome {
    ok_rows(&[(name, LogicalType::Text)], vec![vec![Value::text(v)]])
}

fn err(e: SqlError) -> Outcome {
    Outcome::Error(std::mem::discriminant(&e))
}

#[test]
fn front_door_script_is_identical_on_both_engines() {
    let _lock = serial();
    let (vdb, rdb) = engines();
    let (vpath, rpath) = (wal_path("script_vec"), wal_path("script_row"));
    let (vwal, rwal) = (vpath.to_str().unwrap(), rpath.to_str().unwrap());
    let catalog = || err(SqlError::Catalog(String::new()));
    let exec = || err(SqlError::execution(""));
    let range = || err(SqlError::OutOfRange(String::new()));
    let bind = || err(SqlError::Bind(String::new()));
    let t_rows = |rows: &[(i64, &str)]| {
        ok_rows(
            &[("a", LogicalType::Int), ("b", LogicalType::Text)],
            rows.iter().map(|(a, b)| vec![Value::Int(*a), Value::text(*b)]).collect(),
        )
    };
    // (statement, expected outcome on both engines); `{wal}` is replaced
    // by each engine's own WAL path.
    let script: Vec<(&str, Outcome)> = vec![
        ("CREATE TABLE t(a INTEGER, b TEXT)", empty()),
        ("CREATE TABLE t(a INTEGER)", catalog()),
        ("CREATE TABLE IF NOT EXISTS t(a INTEGER)", empty()),
        ("CREATE TABLE u(x BOGUS_TYPE)", bind()),
        ("SHOW TABLES", ok_rows(&[("name", LogicalType::Text)], vec![vec![Value::text("t")]])),
        (
            "DESCRIBE t",
            ok_rows(
                &[("column_name", LogicalType::Text), ("column_type", LogicalType::Text)],
                vec![
                    vec![Value::text("a"), Value::text("BIGINT")],
                    vec![Value::text("b"), Value::text("VARCHAR")],
                ],
            ),
        ),
        ("DESCRIBE nope", catalog()),
        ("INSERT INTO t VALUES (1, 'one'), (2, 'two')", count(2)),
        ("INSERT INTO t (b, a) VALUES ('three', 3)", count(1)),
        ("INSERT INTO t (a) VALUES (4)", count(1)),
        // A column list whose arity differs from the VALUES rows fails the
        // same way on both engines; the SELECT below shows it added nothing.
        ("INSERT INTO t (a, b) VALUES (1, 2, 3)", exec()),
        ("INSERT INTO t (a) VALUES (1, 2)", exec()),
        ("INSERT INTO t (zz) VALUES (1)", catalog()),
        ("INSERT INTO nope VALUES (1)", catalog()),
        ("CREATE INDEX t_a ON t USING BTREE (a)", empty()),
        ("CREATE INDEX t_a ON t USING BTREE (a)", catalog()),
        ("CREATE INDEX t_x ON t USING NO_SUCH_METHOD (a)", catalog()),
        ("CREATE INDEX t_z ON t USING BTREE (zz)", catalog()),
        ("CREATE INDEX n_a ON nope USING BTREE (a)", catalog()),
        ("UPDATE t SET b = 'TWO' WHERE a = 2", count(1)),
        ("UPDATE t SET zz = 1", catalog()),
        ("UPDATE nope SET a = 1", catalog()),
        ("DELETE FROM t WHERE a = 4", count(1)),
        ("DELETE FROM t WHERE a = 99", count(0)),
        ("SELECT a, b FROM t ORDER BY a", t_rows(&[(1, "one"), (2, "TWO"), (3, "three")])),
        ("SELECT b FROM t WHERE a = 3", text("b", "three")),
        // HAVING without GROUP BY or an aggregate is a bind error, not a
        // clause both engines silently ignore.
        ("SELECT a FROM t HAVING a > 1", bind()),
        ("SELECT a FROM t WHERE a > 0 HAVING b = 'one'", bind()),
        ("PRAGMA threads = 1000", range()),
        ("PRAGMA threads = -1", range()),
        ("PRAGMA threads = 'many'", bind()),
        (
            "PRAGMA threads = 1",
            ok_rows(&[("threads", LogicalType::Int)], vec![vec![Value::Int(1)]]),
        ),
        ("PRAGMA memory_limit = '8MB'", text("memory_limit", "8MB")),
        ("PRAGMA memory_limit = 'lots'", err(SqlError::Parse(String::new()))),
        ("PRAGMA memory_limit = 0", text("memory_limit", "unlimited")),
        ("PRAGMA wal_autocheckpoint = 1024", exec()),
        ("PRAGMA wal", text("wal", "off")),
        ("CHECKPOINT", text("checkpoint", "no wal")),
        ("PRAGMA wal = 5", bind()),
        ("PRAGMA wal = '{wal}'", text("wal", "<wal>")),
        ("PRAGMA wal = '{wal}'", exec()),
        ("PRAGMA wal_autocheckpoint = -1", range()),
        (
            "PRAGMA wal_autocheckpoint = 4096",
            ok_rows(&[("wal_autocheckpoint", LogicalType::Int)], vec![vec![Value::Int(4096)]]),
        ),
        ("INSERT INTO t VALUES (5, 'five')", count(1)),
        ("CHECKPOINT", text("checkpoint", "ok")),
        ("DROP TABLE t", empty()),
        ("DROP TABLE t", catalog()),
        ("DROP TABLE IF EXISTS t", empty()),
        ("SHOW TABLES", ok_rows(&[("name", LogicalType::Text)], Vec::new())),
        ("PRAGMA wal = 'off'", text("wal", "off")),
        ("PRAGMA no_such_pragma", catalog()),
    ];
    let mut failures = Vec::new();
    for (sql, expected) in &script {
        let v = outcome(vdb.execute(&sql.replace("{wal}", vwal)), vwal);
        let r = outcome(rdb.execute(&sql.replace("{wal}", rwal)), rwal);
        if v != r || &v != expected {
            failures.push(format!("{sql}\n  vecdb: {v:?}\n  rowdb: {r:?}\n  want:  {expected:?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // Each engine's WAL recovers in the other: the log format is shared.
    let from_vec = RowDatabase::open(&vpath).unwrap();
    let from_row = vec_with_btree();
    from_row.attach_wal(&rpath).unwrap();
    for sql in ["SHOW TABLES", "PRAGMA wal_autocheckpoint"] {
        let a = outcome(from_vec.execute(sql), "");
        assert_eq!(a, outcome(from_row.execute(sql), ""), "{sql} after cross-engine recovery");
    }
    cleanup(&vpath);
    cleanup(&rpath);
}

#[test]
fn having_without_aggregate_is_the_same_bind_error_on_both_engines() {
    let (vdb, rdb) = engines();
    vdb.execute("CREATE TABLE h(x INTEGER)").unwrap();
    rdb.execute("CREATE TABLE h(x INTEGER)").unwrap();
    let sql = "SELECT x FROM h HAVING x > 1";
    let (v, r) = (vdb.execute(sql).unwrap_err(), rdb.execute(sql).unwrap_err());
    assert!(matches!(v, SqlError::Bind(_)), "{v}");
    assert_eq!(v.to_string(), r.to_string());
    assert!(v.to_string().contains("HAVING"), "{v}");
    // With an aggregate the same clause filters groups.
    let sql = "SELECT count(*) FROM h HAVING count(*) > 1";
    assert!(vdb.execute(sql).unwrap().rows.is_empty());
    assert!(rdb.execute(sql).unwrap().rows.is_empty());
}

#[test]
fn row_budget_trips_the_same_dml_on_both_engines() {
    let _lock = serial();
    let (vdb, rdb) = engines();
    for db in [&vdb as &dyn Exec, &rdb as &dyn Exec] {
        db.run("CREATE TABLE t(a INTEGER, b INTEGER)").unwrap();
        db.run("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)").unwrap();
    }
    let budget = ExecLimits::default().with_row_budget(1);
    vdb.set_exec_limits(budget.clone());
    rdb.set_exec_limits(budget);
    for sql in [
        "INSERT INTO t VALUES (5, 5), (6, 6), (7, 7)",
        "UPDATE t SET b = 0",
        "DELETE FROM t",
        "DELETE FROM t WHERE a = 3",
    ] {
        for db in [&vdb as &dyn Exec, &rdb as &dyn Exec] {
            let e = db.run(sql).unwrap_err();
            assert!(matches!(e, SqlError::ResourceExhausted(_)), "{sql}: {e:?}");
        }
    }
    // One row fits the budget on both.
    for db in [&vdb as &dyn Exec, &rdb as &dyn Exec] {
        assert_eq!(db.run("INSERT INTO t VALUES (4, 4)").unwrap(), vec![vec![Value::Int(1)]]);
    }
    vdb.set_exec_limits(ExecLimits::default());
    rdb.set_exec_limits(ExecLimits::default());
    for db in [&vdb as &dyn Exec, &rdb as &dyn Exec] {
        let rows = db.run("SELECT a, b FROM t ORDER BY a").unwrap();
        let expected: Vec<Vec<Value>> =
            (1..=4).map(|i| vec![Value::Int(i), Value::Int(i)]).collect();
        assert_eq!(rows, expected, "a tripped statement left changes behind");
    }
}

/// Object-safe shim so one test body drives both engines.
trait Exec {
    fn run(&self, sql: &str) -> SqlResult<Vec<Vec<Value>>>;
}

impl Exec for Database {
    fn run(&self, sql: &str) -> SqlResult<Vec<Vec<Value>>> {
        self.execute(sql).map(|r| r.rows)
    }
}

impl Exec for RowDatabase {
    fn run(&self, sql: &str) -> SqlResult<Vec<Vec<Value>>> {
        self.execute(sql).map(|r| r.rows)
    }
}
