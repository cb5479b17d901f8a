//! Crash-torture harness: simulate a process death at every registered
//! durability failpoint, at every hit index the workload reaches, on
//! both engines — then reopen and assert the recovered state equals the
//! committed prefix (exactly the statements that reported success).
//!
//! The failpoint registry is process-global, so everything here
//! serializes behind one lock. `scripts/verify.sh` runs this file both
//! serially and under `MDUCK_THREADS=4` (the vectorized engine picks
//! the worker count up from the environment).

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use mduck_sql::{SqlError, Value};
use mduck_wal::{failpoint, FailAction};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The torture workload, shared by both engines: ingest-heavy with a
/// tight auto-checkpoint threshold so checkpoint failpoints are hit
/// mid-run, plus updates, deletes and DDL churn.
///
/// `PRAGMA`/`CHECKPOINT` statements configure durability only — they
/// carry no logical state and are skipped when replaying the committed
/// prefix into the in-memory reference database.
fn workload() -> Vec<String> {
    let mut w = vec![
        "PRAGMA wal_autocheckpoint=700".to_string(),
        "CREATE TABLE obs(id INTEGER, vid INTEGER, label TEXT)".to_string(),
        "CREATE TABLE dict(k INTEGER, v TEXT)".to_string(),
    ];
    for i in 0..10i64 {
        w.push(format!(
            "INSERT INTO obs VALUES ({}, {}, 'p{}'), ({}, {}, 'q{}')",
            2 * i,
            i % 3,
            i,
            2 * i + 1,
            i % 3,
            i
        ));
    }
    w.push("INSERT INTO dict VALUES (1, 'one'), (2, 'two')".into());
    w.push("UPDATE obs SET label = 'hot' WHERE vid = 0".into());
    w.push("DELETE FROM obs WHERE id >= 16".into());
    w.push("CHECKPOINT".into());
    w.push("DROP TABLE dict".into());
    w.push("INSERT INTO obs VALUES (100, 9, 'tail')".into());
    w.push("UPDATE obs SET vid = vid + 10 WHERE id < 4".into());
    w
}

fn is_durability_stmt(sql: &str) -> bool {
    sql.starts_with("PRAGMA") || sql.starts_with("CHECKPOINT")
}

/// Tables the workload may leave behind, with a deterministic dump
/// query per table.
const DUMPS: &[(&str, &str)] = &[
    ("obs", "SELECT id, vid, label FROM obs ORDER BY id"),
    ("dict", "SELECT k, v FROM dict ORDER BY k"),
];

/// One engine under torture, behind an object-safe facade so the
/// harness is written once.
trait Engine {
    fn fresh(&self) -> Box<dyn Exec>;
    fn open(&self, path: &Path) -> Result<Box<dyn Exec>, SqlError>;
    fn name(&self) -> &'static str;
}

trait Exec {
    fn run(&self, sql: &str) -> Result<Vec<Vec<Value>>, SqlError>;
}

struct Vec_;
struct Row_;

impl Engine for Vec_ {
    fn fresh(&self) -> Box<dyn Exec> {
        Box::new(quackdb::Database::new())
    }
    fn open(&self, path: &Path) -> Result<Box<dyn Exec>, SqlError> {
        quackdb::Database::open(path).map(|db| Box::new(db) as Box<dyn Exec>)
    }
    fn name(&self) -> &'static str {
        "quackdb"
    }
}

impl Engine for Row_ {
    fn fresh(&self) -> Box<dyn Exec> {
        Box::new(mduck_rowdb::RowDatabase::new())
    }
    fn open(&self, path: &Path) -> Result<Box<dyn Exec>, SqlError> {
        mduck_rowdb::RowDatabase::open(path).map(|db| Box::new(db) as Box<dyn Exec>)
    }
    fn name(&self) -> &'static str {
        "rowdb"
    }
}

impl Exec for quackdb::Database {
    fn run(&self, sql: &str) -> Result<Vec<Vec<Value>>, SqlError> {
        self.execute(sql).map(|r| r.rows)
    }
}

impl Exec for mduck_rowdb::RowDatabase {
    fn run(&self, sql: &str) -> Result<Vec<Vec<Value>>, SqlError> {
        self.execute(sql).map(|r| r.rows)
    }
}

fn wal_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("mduck_torture_{}_{name}.wal", std::process::id()));
    cleanup(&p);
    p
}

fn cleanup(p: &PathBuf) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(format!("{}.ckpt", p.display()));
    let _ = std::fs::remove_file(format!("{}.ckpt.tmp", p.display()));
}

/// Dump every workload table from a live database; a missing table
/// dumps as `None` so "table absent" is part of the compared state.
fn dump_state(db: &dyn Exec) -> Vec<(String, Option<Vec<Vec<Value>>>)> {
    DUMPS
        .iter()
        .map(|(name, sql)| (name.to_string(), db.run(sql).ok()))
        .collect()
}

/// Replay the committed statements into a fresh in-memory instance and
/// dump the state they should have produced.
fn expected_state(
    engine: &dyn Engine,
    committed: &[String],
) -> Vec<(String, Option<Vec<Vec<Value>>>)> {
    let db = engine.fresh();
    for sql in committed {
        if is_durability_stmt(sql) {
            continue;
        }
        db.run(sql).unwrap_or_else(|e| panic!("reference replay of {sql:?} failed: {e}"));
    }
    dump_state(db.as_ref())
}

/// Count how many times each failpoint site fires during one clean
/// (failure-free) run of the workload, including the open itself.
fn enumerate_crash_points(engine: &dyn Engine) -> Vec<(String, u64)> {
    let path = wal_path(&format!("{}_clean", engine.name()));
    failpoint::clear_all();
    let db = engine.open(&path).unwrap();
    for sql in workload() {
        db.run(&sql).unwrap_or_else(|e| panic!("clean run of {sql:?} failed: {e}"));
    }
    let counts = failpoint::hit_counts();
    failpoint::clear_all();
    cleanup(&path);
    let mut points = Vec::new();
    for (site, hits) in counts {
        for k in 1..=hits {
            points.push((site.clone(), k));
        }
    }
    points
}

/// Crash at `(site, hit)`, reopen, and require the recovered state to
/// equal the committed prefix exactly.
fn torture_one(engine: &dyn Engine, site: &str, hit: u64, action: FailAction) {
    let path = wal_path(&format!("{}_{}_{hit}", engine.name(), site.replace('.', "_")));
    failpoint::clear_all();
    failpoint::set_seed(0xD0C5EED ^ hit);
    failpoint::set(site, action, hit);

    let mut committed: Vec<String> = Vec::new();
    // A failpoint firing inside open() means nothing ever committed.
    if let Ok(db) = engine.open(&path) {
        for sql in workload() {
            match db.run(&sql) {
                Ok(_) => committed.push(sql),
                // Process death: nothing later would have run.
                Err(_) => break,
            }
        }
    }

    failpoint::clear_all();
    let recovered = engine
        .open(&path)
        .unwrap_or_else(|e| panic!("{}: reopen after {site}@{hit} failed: {e}", engine.name()));
    let got = dump_state(recovered.as_ref());
    let want = expected_state(engine, &committed);
    assert_eq!(
        got,
        want,
        "{}: state after crash at {site}@{hit} diverges from the committed prefix \
         ({} committed statements)",
        engine.name(),
        committed.len()
    );
    // The recovered database must be fully usable, not just readable.
    recovered
        .run("INSERT INTO obs VALUES (999, 0, 'post')")
        .or_else(|_| recovered.run("CREATE TABLE obs(id INTEGER, vid INTEGER, label TEXT)"))
        .unwrap_or_else(|e| panic!("{}: recovered db not writable: {e}", engine.name()));
    cleanup(&path);
}

fn torture_engine(engine: &dyn Engine) {
    let points = enumerate_crash_points(engine);
    assert!(
        points.len() >= 50,
        "{}: workload reaches only {} crash points (need ≥50 for coverage)",
        engine.name(),
        points.len()
    );
    // Every site the workload exercises must be in the registered
    // catalog — a typo'd site name would otherwise never fire.
    for (site, _) in &points {
        assert!(failpoint::SITES.contains(&site.as_str()), "unregistered site {site}");
    }
    for (site, hit) in &points {
        torture_one(engine, site, *hit, FailAction::Crash);
    }
    // Short writes take the same recovery path but leave torn bytes the
    // truncation must clean up; spot-check every append-path site.
    for site in ["wal.append.header", "wal.append.payload", "wal.append.sync"] {
        torture_one(engine, site, 3, FailAction::ShortWrite);
    }
}

#[test]
fn vec_engine_survives_crash_at_every_failpoint() {
    let _lock = serial();
    torture_engine(&Vec_);
}

#[test]
fn row_engine_survives_crash_at_every_failpoint() {
    let _lock = serial();
    torture_engine(&Row_);
}

#[test]
fn torture_covers_at_least_fifty_distinct_crash_points() {
    let _lock = serial();
    // The acceptance floor, checked explicitly so a workload change that
    // silently shrinks coverage fails loudly.
    let v = enumerate_crash_points(&Vec_).len();
    let r = enumerate_crash_points(&Row_).len();
    assert!(v >= 50 && r >= 50, "coverage shrank: quackdb={v} rowdb={r}");
}
