//! Engine-level durability: WAL attach/recover round trips on both
//! engines, `CHECKPOINT`, the `PRAGMA wal` surface, recovery edge cases
//! (empty log, torn tail, missing log, CRC corruption), and statement
//! atomicity under failure.
//!
//! The failpoint registry and the metrics registry are process-global,
//! and an armed failpoint fires in whichever test reaches the site first,
//! so every test here serializes behind `SERIAL` (`crash_torture.rs`
//! runs in its own process).

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use mduck_rowdb::RowDatabase;
use mduck_sql::{SqlError, Value};
use mduck_wal::{failpoint, FailAction};
use quackdb::Database;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A unique WAL path per test; removes leftovers from earlier runs.
fn wal_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("mduck_dur_{}_{name}.wal", std::process::id()));
    cleanup(&p);
    p
}

fn cleanup(p: &PathBuf) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(format!("{}.ckpt", p.display()));
    let _ = std::fs::remove_file(format!("{}.ckpt.tmp", p.display()));
}

fn ints(r: &[Vec<Value>]) -> Vec<i64> {
    r.iter()
        .map(|row| match &row[0] {
            Value::Int(i) => *i,
            other => panic!("expected int, got {other:?}"),
        })
        .collect()
}

/// A statement runner over one engine.
type Runner<'a> = dyn FnMut(&str) -> Result<Vec<Vec<Value>>, SqlError> + 'a;

/// The workload both round-trip tests run: DDL, multi-row INSERT,
/// UPDATE, DELETE, a second table that is dropped again, and an index.
fn run_workload(exec: &mut Runner<'_>) {
    exec("CREATE TABLE t(id INTEGER, label TEXT)").unwrap();
    exec("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three'), (4, 'four')").unwrap();
    exec("UPDATE t SET label = 'TWO' WHERE id = 2").unwrap();
    exec("DELETE FROM t WHERE id = 3").unwrap();
    exec("CREATE TABLE scratch(x INTEGER)").unwrap();
    exec("INSERT INTO scratch VALUES (9)").unwrap();
    exec("DROP TABLE scratch").unwrap();
    exec("INSERT INTO t VALUES (5, 'five')").unwrap();
}

/// What the workload must look like after recovery.
fn check_workload(exec: &mut Runner<'_>) {
    let rows = exec("SELECT id FROM t ORDER BY id").unwrap();
    assert_eq!(ints(&rows), vec![1, 2, 4, 5]);
    let rows = exec("SELECT label FROM t WHERE id = 2").unwrap();
    assert_eq!(rows[0][0], Value::text("TWO"));
    // The scratch table was dropped before the "crash".
    assert!(exec("SELECT * FROM scratch").is_err());
    let rows = exec("SELECT label FROM t WHERE id = 5").unwrap();
    assert_eq!(rows[0][0], Value::text("five"));
}

#[test]
fn vec_wal_roundtrip_ddl_dml() {
    let _lock = serial();
    let path = wal_path("vec_roundtrip");
    {
        let db = Database::open(&path).unwrap();
        run_workload(&mut |sql| db.execute(sql).map(|r| r.rows));
    }
    let db = Database::open(&path).unwrap();
    check_workload(&mut |sql| db.execute(sql).map(|r| r.rows));
    cleanup(&path);
}

#[test]
fn row_wal_roundtrip_ddl_dml() {
    let _lock = serial();
    let path = wal_path("row_roundtrip");
    {
        let db = RowDatabase::open(&path).unwrap();
        run_workload(&mut |sql| db.execute(sql).map(|r| r.rows));
        // The row engine ships a BTREE access method; the index DDL and
        // the rows appended after it must both recover.
        db.execute("CREATE INDEX t_id ON t USING BTREE(id)").unwrap();
        db.execute("INSERT INTO t VALUES (6, 'six')").unwrap();
    }
    let db = RowDatabase::open(&path).unwrap();
    let rows = db.execute("SELECT id FROM t ORDER BY id").unwrap().rows;
    assert_eq!(ints(&rows), vec![1, 2, 4, 5, 6]);
    let rows = db.execute("SELECT label FROM t WHERE id = 2").unwrap().rows;
    assert_eq!(rows[0][0], Value::text("TWO"));
    assert!(db.execute("SELECT * FROM scratch").is_err());
    // Equality probe through the recovered BTREE index.
    let rows = db.execute("SELECT label FROM t WHERE id = 6").unwrap().rows;
    assert_eq!(rows[0][0], Value::text("six"));
    cleanup(&path);
}

#[test]
fn engines_recover_identical_state_from_shared_wal_format() {
    let _lock = serial();
    // The WAL is engine-agnostic: a log written by the vectorized engine
    // recovers into the row engine with identical query results.
    let path = wal_path("cross_engine");
    {
        let db = Database::open(&path).unwrap();
        run_workload(&mut |sql| db.execute(sql).map(|r| r.rows));
    }
    let db = RowDatabase::open(&path).unwrap();
    let rows = db.execute("SELECT id FROM t ORDER BY id").unwrap().rows;
    assert_eq!(ints(&rows), vec![1, 2, 4, 5]);
    cleanup(&path);
}

#[test]
fn pragma_wal_attach_detach_and_checkpoint_statement() {
    let _lock = serial();
    let path = wal_path("pragma");
    let path_str = path.to_str().unwrap().to_string();

    let db = Database::new();
    // No WAL yet: CHECKPOINT is a clean no-op, PRAGMA wal reports "off".
    let r = db.execute("CHECKPOINT").unwrap();
    assert_eq!(r.rows[0][0], Value::text("no wal"));
    let r = db.execute("PRAGMA wal").unwrap();
    assert_eq!(r.rows[0][0], Value::text("off"));

    // Pre-attach state is captured by the attach-time checkpoint.
    db.execute("CREATE TABLE pre(x INTEGER)").unwrap();
    db.execute("INSERT INTO pre VALUES (1)").unwrap();
    let r = db.execute(&format!("PRAGMA wal='{path_str}'")).unwrap();
    assert_eq!(r.rows[0][0], Value::text(path_str.clone()));
    db.execute("INSERT INTO pre VALUES (2)").unwrap();

    // Explicit CHECKPOINT truncates the log back to its header.
    let r = db.execute("CHECKPOINT").unwrap();
    assert_eq!(r.rows[0][0], Value::text("ok"));
    assert_eq!(db.wal().unwrap().wal_len(), mduck_wal::WAL_HEADER_LEN);

    // Re-attaching while attached is a typed error, not a corruption.
    assert!(db.execute(&format!("PRAGMA wal='{path_str}'")).is_err());

    // Detach; later statements stay in-memory-only.
    db.execute("PRAGMA wal='off'").unwrap();
    assert!(db.wal().is_none());
    db.execute("INSERT INTO pre VALUES (99)").unwrap();

    // Recovery sees the checkpoint + logged rows, not the post-detach one.
    let db2 = Database::open(&path).unwrap();
    let rows = db2.execute("SELECT x FROM pre ORDER BY x").unwrap().rows;
    assert_eq!(ints(&rows), vec![1, 2]);
    cleanup(&path);
}

#[test]
fn row_pragma_wal_surface() {
    let _lock = serial();
    let path = wal_path("row_pragma");
    let path_str = path.to_str().unwrap().to_string();
    let db = RowDatabase::new();
    let r = db.execute("CHECKPOINT").unwrap();
    assert_eq!(r.rows[0][0], Value::text("no wal"));
    db.execute(&format!("PRAGMA wal='{path_str}'")).unwrap();
    db.execute("CREATE TABLE t(x INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (7)").unwrap();
    let r = db.execute("CHECKPOINT").unwrap();
    assert_eq!(r.rows[0][0], Value::text("ok"));
    db.execute("PRAGMA wal='off'").unwrap();

    let db2 = RowDatabase::open(&path).unwrap();
    assert_eq!(ints(&db2.execute("SELECT x FROM t").unwrap().rows), vec![7]);
    cleanup(&path);
}

#[test]
fn wal_autocheckpoint_pragma_and_size_trigger() {
    let _lock = serial();
    let path = wal_path("autockpt");
    let path_str = path.to_str().unwrap().to_string();
    let db = Database::new();

    // Setting the threshold without a WAL is a typed error.
    assert!(db.execute("PRAGMA wal_autocheckpoint=1024").is_err());

    db.execute(&format!("PRAGMA wal='{path_str}'")).unwrap();
    let r = db.execute("PRAGMA wal_autocheckpoint=64").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(64));
    assert!(db.execute("PRAGMA wal_autocheckpoint=-1").is_err());

    db.execute("CREATE TABLE t(x INTEGER)").unwrap();
    // Any append pushes past 64 bytes, so the statement itself triggers
    // an auto-checkpoint and the log shrinks back to its header.
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    assert_eq!(db.wal().unwrap().wal_len(), mduck_wal::WAL_HEADER_LEN);
    assert!(db.wal().unwrap().checkpoint_path().exists());

    // The checkpointed state recovers without any WAL records.
    let db2 = Database::open(&path).unwrap();
    assert_eq!(ints(&db2.execute("SELECT x FROM t ORDER BY x").unwrap().rows), vec![1, 2, 3]);
    cleanup(&path);
}

// ------------------------------------------------------ recovery edges

#[test]
fn empty_wal_file_opens_as_fresh_database() {
    let _lock = serial();
    let path = wal_path("empty");
    std::fs::write(&path, b"").unwrap();
    let db = Database::open(&path).unwrap();
    assert!(db.execute("SELECT * FROM anything").is_err());
    db.execute("CREATE TABLE t(x INTEGER)").unwrap();
    drop(db);
    let db = RowDatabase::open(&path).unwrap();
    assert!(db.execute("SELECT * FROM t").unwrap().rows.is_empty());
    cleanup(&path);
}

#[test]
fn torn_tail_only_wal_recovers_to_empty_and_truncates() {
    let _lock = serial();
    let path = wal_path("torn_only");
    // Header + a few bytes of a frame that never finished: the residue
    // of a crash during the very first append.
    let mut bytes = b"MDWL".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
    std::fs::write(&path, &bytes).unwrap();

    let db = Database::open(&path).unwrap();
    assert!(db.execute("SELECT * FROM t").is_err(), "no tables should exist");
    drop(db);
    // The torn tail was truncated durably.
    assert_eq!(std::fs::metadata(&path).unwrap().len(), mduck_wal::WAL_HEADER_LEN);
    cleanup(&path);
}

#[test]
fn checkpoint_present_but_wal_missing_recovers_from_checkpoint() {
    let _lock = serial();
    let path = wal_path("ckpt_no_wal");
    {
        let db = Database::open(&path).unwrap();
        db.execute("CREATE TABLE t(x INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (5), (6)").unwrap();
        db.execute("CHECKPOINT").unwrap();
    }
    std::fs::remove_file(&path).unwrap();
    let db = Database::open(&path).unwrap();
    assert_eq!(ints(&db.execute("SELECT x FROM t ORDER BY x").unwrap().rows), vec![5, 6]);
    cleanup(&path);
}

#[test]
fn crc_byte_flip_mid_log_surfaces_typed_corruption() {
    let _lock = serial();
    let path = wal_path("crcflip");
    {
        let db = Database::open(&path).unwrap();
        db.execute("CREATE TABLE t(x INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute("INSERT INTO t VALUES (2)").unwrap();
    }
    // Flip one payload byte of the FIRST frame: a complete frame whose
    // CRC no longer matches is corruption, not a torn tail.
    let mut bytes = std::fs::read(&path).unwrap();
    let off = mduck_wal::WAL_HEADER_LEN as usize + 8 + 10;
    bytes[off] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    for res in [
        Database::open(&path).map(|_| ()),
        RowDatabase::open(&path).map(|_| ()),
    ] {
        match res {
            Err(SqlError::Corruption(msg)) => {
                assert!(msg.contains("CRC"), "message should name the CRC check: {msg}")
            }
            other => panic!("expected Corruption, got {other:?}"),
        }
    }
    cleanup(&path);
}

#[test]
fn foreign_file_is_rejected_by_both_engines() {
    let _lock = serial();
    let path = wal_path("foreign");
    std::fs::write(&path, b"\x89PNG not a wal at all").unwrap();
    assert!(matches!(Database::open(&path), Err(SqlError::Corruption(_))));
    assert!(matches!(RowDatabase::open(&path), Err(SqlError::Corruption(_))));
    // Refused, not clobbered.
    assert!(std::fs::read(&path).unwrap().starts_with(b"\x89PNG"));
    cleanup(&path);
}

// ------------------------------------------------- statement atomicity

#[test]
fn vec_failed_wal_append_rolls_back_insert() {
    let _lock = serial();
    let path = wal_path("vec_atomic");
    let db = Database::open(&path).unwrap();
    db.execute("CREATE TABLE t(x INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();

    failpoint::clear_all();
    failpoint::set("wal.append.sync", FailAction::Error, 1);
    let err = db.execute("INSERT INTO t VALUES (2), (3)").unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");
    failpoint::clear_all();

    // The failed statement left nothing behind, in memory or on disk.
    assert_eq!(ints(&db.execute("SELECT x FROM t").unwrap().rows), vec![1]);
    drop(db);
    let db2 = Database::open(&path).unwrap();
    assert_eq!(ints(&db2.execute("SELECT x FROM t").unwrap().rows), vec![1]);
    cleanup(&path);
}

#[test]
fn row_failed_wal_append_rolls_back_update_and_delete() {
    let _lock = serial();
    let path = wal_path("row_atomic");
    let db = RowDatabase::open(&path).unwrap();
    db.execute("CREATE TABLE t(x INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();

    failpoint::clear_all();
    failpoint::set("wal.append.payload", FailAction::ShortWrite, 1);
    assert!(db.execute("UPDATE t SET x = x + 10").is_err());
    assert_eq!(ints(&db.execute("SELECT x FROM t ORDER BY x").unwrap().rows), vec![1, 2, 3]);

    failpoint::set("wal.append.header", FailAction::Error, 1);
    assert!(db.execute("DELETE FROM t WHERE x = 2").is_err());
    failpoint::clear_all();
    assert_eq!(ints(&db.execute("SELECT x FROM t ORDER BY x").unwrap().rows), vec![1, 2, 3]);

    drop(db);
    let db2 = RowDatabase::open(&path).unwrap();
    assert_eq!(ints(&db2.execute("SELECT x FROM t ORDER BY x").unwrap().rows), vec![1, 2, 3]);
    cleanup(&path);
}

/// A durable quackdb instance with the row engine's BTREE registered
/// (the index framework is shared), so one `CREATE INDEX` statement
/// runs on both engines.
fn open_vec(path: &PathBuf) -> Box<dyn Exec> {
    let db = Database::new();
    db.index_types_mut().register(Arc::new(mduck_rowdb::BTreeIndexType));
    db.attach_wal(path).unwrap();
    Box::new(db)
}

fn open_row(path: &PathBuf) -> Box<dyn Exec> {
    Box::new(RowDatabase::open(path).unwrap())
}

#[test]
fn failed_wal_append_leaves_no_trace_on_both_engines() {
    let _lock = serial();
    // Every statement kind, each failing in a different append window.
    let failing = [
        ("CREATE TABLE u(y INTEGER)", "wal.append.header", FailAction::Error),
        ("DROP TABLE t", "wal.append.payload", FailAction::ShortWrite),
        ("CREATE INDEX t_x ON t USING BTREE (x)", "wal.append.sync", FailAction::Error),
        ("INSERT INTO t VALUES (4), (5)", "wal.append.sync", FailAction::Error),
        ("UPDATE t SET x = x + 10", "wal.append.payload", FailAction::ShortWrite),
        ("DELETE FROM t WHERE x = 2", "wal.append.header", FailAction::Error),
    ];
    type Open = fn(&PathBuf) -> Box<dyn Exec>;
    for (engine, open) in [("vecdb", open_vec as Open), ("rowdb", open_row)] {
        let path = wal_path(&format!("{engine}_atomic"));
        let db = open(&path);
        db.run("CREATE TABLE t(x INTEGER)").unwrap();
        db.run("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let state = |db: &dyn Exec| {
            (db.run("SHOW TABLES").unwrap(), ints(&db.run("SELECT x FROM t ORDER BY x").unwrap()))
        };
        let before = state(&*db);
        assert_eq!(before.1, vec![1, 2, 3]);

        for (sql, site, action) in failing {
            failpoint::clear_all();
            failpoint::set(site, action, 1);
            let err = db.run(sql).unwrap_err();
            failpoint::clear_all();
            assert!(err.to_string().contains("injected"), "{engine} {sql}: {err}");
            assert_eq!(state(&*db), before, "{engine}: failed {sql} left changes behind");
        }
        failpoint::set("wal.append.sync", FailAction::Error, 1);
        let err = db.insert_rows("t", vec![vec![Value::Int(4)]]).unwrap_err();
        failpoint::clear_all();
        assert!(err.to_string().contains("injected"), "{engine} insert_rows: {err}");
        assert_eq!(state(&*db), before, "{engine}: failed insert_rows left rows behind");
        // The failed CREATE INDEX was dropped again: its name is free. The
        // retry is logged, so the reopen below would also fail on a
        // duplicate index had the failed attempt reached the WAL.
        db.run("CREATE INDEX t_x ON t USING BTREE (x)").unwrap();

        drop(db);
        let db = open(&path);
        assert_eq!(state(&*db), before, "{engine}: a failed statement reached the WAL");
        assert_eq!(ints(&db.run("SELECT x FROM t WHERE x = 2").unwrap()), vec![2]);
        cleanup(&path);
    }
}

#[test]
fn memory_limit_trip_mid_insert_leaves_both_engines_unchanged() {
    let _lock = serial();
    // A guard trip inside INSERT ... SELECT must behave like any other
    // statement failure: no partial rows, nothing in the WAL.
    let vec_path = wal_path("vec_memtrip");
    let row_path = wal_path("row_memtrip");

    let vdb = Database::open(&vec_path).unwrap();
    let rdb = RowDatabase::open(&row_path).unwrap();
    for db in [&vdb as &dyn Exec, &rdb as &dyn Exec] {
        db.run("CREATE TABLE src(x INTEGER)").unwrap();
        db.run("INSERT INTO src VALUES (1), (2), (3), (4), (5), (6), (7), (8)").unwrap();
        db.run("CREATE TABLE sink(a INTEGER, b INTEGER, c INTEGER)").unwrap();
        // 8^3 = 512 cross-join rows through a hash-free nested loop still
        // allocates enough tracked vectors to trip a 1-byte budget.
        db.run("PRAGMA memory_limit=1").unwrap();
        let err = db
            .run("INSERT INTO sink SELECT a.x, b.x, c.x FROM src a, src b, src c")
            .unwrap_err();
        assert!(
            matches!(err, SqlError::ResourceExhausted(_)),
            "expected a guard trip, got {err:?}"
        );
        db.run("PRAGMA memory_limit='unlimited'").unwrap();
        assert!(db.run("SELECT * FROM sink").unwrap().is_empty(), "partial insert leaked");
        // The SELECT ran under the INSERT's own guard, so the query log
        // shows its scan and its trip.
        let log = db
            .run(
                "SELECT rows_scanned, guard_trip FROM mduck_query_log() \
                 WHERE sql = 'INSERT INTO sink SELECT a.x, b.x, c.x FROM src a, src b, src c' \
                 ORDER BY query_id DESC LIMIT 1",
            )
            .unwrap();
        assert_eq!(log.len(), 1, "tripped INSERT not logged");
        assert!(matches!(log[0][0], Value::Int(n) if n > 0), "rows_scanned: {log:?}");
        assert_eq!(log[0][1], Value::text("memory"), "guard_trip: {log:?}");
    }
    drop(vdb);
    drop(rdb);
    // The tripped statement reached neither WAL.
    let vdb = Database::open(&vec_path).unwrap();
    assert!(vdb.execute("SELECT * FROM sink").unwrap().rows.is_empty());
    let rdb = RowDatabase::open(&row_path).unwrap();
    assert!(rdb.execute("SELECT * FROM sink").unwrap().rows.is_empty());
    cleanup(&vec_path);
    cleanup(&row_path);
}

/// Object-safe shim so the atomicity tests can iterate both engines.
trait Exec {
    fn run(&self, sql: &str) -> Result<Vec<Vec<Value>>, SqlError>;
    fn insert_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize, SqlError>;
}

impl Exec for Database {
    fn run(&self, sql: &str) -> Result<Vec<Vec<Value>>, SqlError> {
        self.execute(sql).map(|r| r.rows)
    }

    fn insert_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize, SqlError> {
        Database::insert_rows(self, table, &rows)
    }
}

impl Exec for RowDatabase {
    fn run(&self, sql: &str) -> Result<Vec<Vec<Value>>, SqlError> {
        self.execute(sql).map(|r| r.rows)
    }

    fn insert_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize, SqlError> {
        RowDatabase::insert_rows(self, table, rows)
    }
}

// ------------------------------------------------- extension values

#[test]
fn ext_values_roundtrip_through_wal_and_checkpoint() {
    let _lock = serial();
    let path = wal_path("ext");
    let open_loaded = |p: &PathBuf| -> Database {
        // Extensions must be loaded before the WAL is attached so the
        // ext codecs can decode recovered values.
        let db = Database::new();
        mobilityduck::load(&db);
        db.attach_wal(p).unwrap();
        db
    };
    {
        let db = open_loaded(&path);
        db.execute("CREATE TABLE trips(vid INTEGER, trip TGEOMPOINT)").unwrap();
        db.execute(
            "INSERT INTO trips VALUES \
             (1, '[Point(0 0)@2025-01-01 08:00:00, Point(1000 0)@2025-01-01 08:10:00]'::tgeompoint)",
        )
        .unwrap();
        // A TRTREE over a temporal column: the index definition must
        // recover (rebuilt from recovered rows) along with the data.
        db.execute("CREATE INDEX trips_idx ON trips USING TRTREE(trip)").unwrap();
    }
    // Recover from the WAL, then checkpoint and recover from the image:
    // both paths must decode the extension value identically.
    let expected = {
        let db = open_loaded(&path);
        let rows = db.execute("SELECT asText(trip) FROM trips").unwrap().rows;
        db.execute("CHECKPOINT").unwrap();
        rows
    };
    let db = open_loaded(&path);
    let rows = db.execute("SELECT asText(trip) FROM trips").unwrap().rows;
    assert_eq!(rows, expected);
    assert!(matches!(&rows[0][0], Value::Text(s) if s.contains("POINT")), "{rows:?}");
    cleanup(&path);
}

/// Recovery rebuilds each index on the database's thread setting: a
/// `set_threads(1)` database recovers a TRTREE over 10,000 boxes (three
/// bulk-build partitions at the child's auto thread count of 4) without
/// starting a pool thread. The check runs in a child process of its own,
/// where no other test can start one.
#[test]
fn recovery_builds_indexes_on_the_database_threads() {
    const CHILD: &str = "MDUCK_TEST_RECOVERY_THREADS_CHILD";
    const NAME: &str = "recovery_builds_indexes_on_the_database_threads";
    if std::env::var_os(CHILD).is_none() {
        let status = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", NAME, "--test-threads", "1"])
            .env(CHILD, "1")
            .env("MDUCK_THREADS", "4")
            .status()
            .expect("run the test binary again");
        assert!(status.success(), "the child run failed: {status}");
        return;
    }
    let path = wal_path("recovery_threads");
    let open = || {
        let db = Database::new();
        mobilityduck::load(&db);
        db.set_threads(1);
        db.attach_wal(&path).unwrap();
        db
    };
    {
        let db = open();
        db.execute("CREATE TABLE boxes(id INTEGER, b STBOX)").unwrap();
        db.execute(
            "INSERT INTO boxes SELECT i, stbox(ST_MakeEnvelope(i * 1.0, 0.0, i + 0.5, 1.0)) \
             FROM generate_series(1, 10000) AS g(i)",
        )
        .unwrap();
        db.execute("CREATE INDEX boxes_idx ON boxes USING TRTREE(b)").unwrap();
    }
    let db = open();
    let sql = "SELECT count(*) FROM boxes \
               WHERE b && stbox(ST_MakeEnvelope(100.0, 0.0, 199.9, 1.0))";
    let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap().rows[0][0].to_string();
    assert!(plan.contains("INDEX_SCAN"), "{plan}");
    assert_eq!(db.execute(sql).unwrap().rows, vec![vec![Value::Int(100)]]);
    assert_eq!(mduck_obs::metrics().pool_threads_started.get(), 0);
    cleanup(&path);
}
