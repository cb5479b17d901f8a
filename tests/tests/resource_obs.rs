//! Resource observability across both engines: `PRAGMA memory_limit`
//! tripping mid-flight, per-operator memory in `EXPLAIN ANALYZE`, live
//! progress polled from another thread, and the query log (in-memory
//! history, `mduck_query_log()` schema contract, JSONL sink).
//!
//! The query log and progress registry are process-global, so tests that
//! read them serialize behind `SERIAL` and match on their own SQL text.

use std::sync::Mutex;

use berlinmod::{BerlinModData, RoadNetwork, ScaleFactor};
use mduck_rowdb::RowDatabase;
use mduck_sql::SqlError;
use quackdb::Database;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    // A panicking test must not cascade into the others.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Hash aggregation over the SF-0.001 trips table. The vehicleid
/// self-join carries both sides' TGEOMPOINT trips, which the counts read,
/// through every match, pushing the statement's accounted memory well
/// past 8MB on both engines while staying comfortably under the default
/// (unlimited) limit.
const AGG_SQL: &str = "SELECT t.vehicleid, count(t.trip), count(s.trip) FROM trips t, trips s \
     WHERE t.vehicleid = s.vehicleid GROUP BY t.vehicleid";

fn sf001() -> BerlinModData {
    let net = RoadNetwork::generate(42);
    BerlinModData::generate(&net, ScaleFactor(0.001), 42)
}

fn vec_db(data: &BerlinModData) -> Database {
    let db = Database::new();
    mobilityduck::load(&db);
    data.load_into_quack(&db).expect("load quackdb");
    db
}

fn row_db(data: &BerlinModData) -> RowDatabase {
    let db = RowDatabase::new();
    mobilityduck::load_row(&db);
    data.load_into_row(&db, false).expect("load rowdb");
    db
}

fn assert_memory_trip<T: std::fmt::Debug>(r: Result<T, SqlError>) {
    match r {
        Err(SqlError::ResourceExhausted(msg)) => {
            assert!(msg.contains("memory_limit"), "wrong trip: {msg}");
        }
        other => panic!("expected memory ResourceExhausted, got {other:?}"),
    }
}

#[test]
fn vec_memory_limit_trips_hash_agg_serial_and_parallel() {
    // Its statements move the process-wide memory gauges.
    let _lock = serial();
    let data = sf001();
    let db = vec_db(&data);
    // Default limit: the aggregation succeeds and EXPLAIN ANALYZE carries
    // non-zero per-operator memory.
    let pq = db.execute_analyzed(AGG_SQL).unwrap();
    assert!(pq.mem_peak > 8 << 20, "expected >8MB accounted, got {}", pq.mem_peak);
    assert!(pq.explain.contains("mem: "), "no mem lines:\n{}", pq.explain);
    assert!(
        pq.operators.iter().any(|op| op.mem_bytes > 0),
        "no operator charged memory: {:?}",
        pq.operators
    );
    let r = db.execute("PRAGMA memory_limit='8MB'").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "8MB");
    for threads in [1usize, 4] {
        db.set_threads(threads);
        assert_memory_trip(db.execute(AGG_SQL));
    }
    // Clearing the limit restores the statement.
    let r = db.execute("PRAGMA memory_limit=0").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "unlimited");
    assert!(db.execute(AGG_SQL).is_ok());
}

/// A GROUP BY folds into one group table at every thread count, so the
/// memory it charges, and the `memory_limit` it needs, do not depend on
/// the thread count. Every chunk of `g` holds every one of its 2,000
/// groups, so a table per worker would charge each group again.
#[test]
fn group_by_memory_does_not_depend_on_the_thread_count() {
    // Its statements move the process-wide memory gauges.
    let _lock = serial();
    let db = Database::new();
    db.execute("CREATE TABLE g(k INTEGER)").unwrap();
    db.execute("INSERT INTO g SELECT n % 2000 FROM generate_series(1, 40960) AS t(n)").unwrap();
    let sql = "SELECT k, count(*) FROM g GROUP BY k";
    db.set_threads(1);
    let serial = db.execute_analyzed(sql).unwrap();
    assert_eq!(serial.result.rows.len(), 2000);
    for threads in [2, 4] {
        db.set_threads(threads);
        let pq = db.execute_analyzed(sql).unwrap();
        assert_eq!(pq.mem_peak, serial.mem_peak, "mem_peak at threads {threads} vs 1");
        assert_eq!(pq.result.rows, serial.result.rows, "threads {threads} vs 1");
    }
    let limit = serial.mem_peak + serial.mem_peak / 100;
    db.execute(&format!("PRAGMA memory_limit={limit}")).unwrap();
    for threads in [1, 2, 4] {
        db.set_threads(threads);
        let r = db.execute(sql).unwrap_or_else(|e| panic!("threads {threads}, limit {limit}: {e}"));
        assert_eq!(r.rows.len(), 2000);
    }
}

/// The FILTER above the join tree copies the part of a chunk its
/// subquery predicate keeps, and its box reports those bytes.
#[test]
fn a_subquery_filter_reports_the_rows_it_copies() {
    let _lock = serial();
    let db = Database::new();
    db.execute("CREATE TABLE f(a INTEGER)").unwrap();
    db.execute("INSERT INTO f SELECT n FROM generate_series(1, 100) AS t(n)").unwrap();
    let pq = db.execute_analyzed("SELECT a FROM f WHERE a > (SELECT 60)").unwrap();
    assert_eq!(pq.result.rows.len(), 40);
    let filter = pq.explain.split('┌').find(|b| b.contains("FILTER")).unwrap_or_default();
    assert!(filter.contains("mem: "), "no mem line on the FILTER:\n{}", pq.explain);
}

#[test]
fn row_memory_limit_trips_hash_agg() {
    let _lock = serial();
    let data = sf001();
    let db = row_db(&data);
    assert!(db.execute(AGG_SQL).is_ok());
    let r = db.execute("PRAGMA memory_limit='8MB'").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "8MB");
    assert_memory_trip(db.execute(AGG_SQL));
    db.execute("PRAGMA memory_limit='unlimited'").unwrap();
    assert!(db.execute(AGG_SQL).is_ok());
}

#[test]
fn memory_gauges_track_current_and_peak() {
    let _lock = serial();
    let db = Database::new();
    db.execute("CREATE TABLE g(a INTEGER)").unwrap();
    let vals: Vec<String> = (0..5000).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO g VALUES {}", vals.join(","))).unwrap();
    db.execute("SELECT a, count(*) FROM g GROUP BY a").unwrap();
    let m = mduck_obs::metrics();
    assert!(m.mem_peak.get() > 0, "mem_peak gauge never moved");
    // All statement scopes are closed: the current gauge drained to 0.
    assert_eq!(m.mem_current.get(), 0, "mem_current leaked");
}

#[test]
fn vec_progress_is_monotone_under_concurrent_poller() {
    let db = Database::new();
    assert_eq!(db.progress(), None, "no statement ran yet");
    db.execute("CREATE TABLE p(a INTEGER)").unwrap();
    let vals: Vec<String> = (0..20_000).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO p VALUES {}", vals.join(","))).unwrap();

    let done = std::sync::atomic::AtomicBool::new(false);
    let samples = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            // The setup statements above already finished, so early polls
            // read their 1.0; ignore those. The first sample below 1.0
            // belongs to the self-join running on the main thread, and
            // from there on the fraction must never decrease.
            let mut samples = Vec::new();
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                match db.progress() {
                    Some(f) if f < 1.0 || !samples.is_empty() => samples.push(f),
                    _ => {}
                }
                std::hint::spin_loop();
            }
            samples
        });
        db.execute(
            "SELECT p1.a % 97, count(*) FROM p p1, p p2 \
             WHERE p1.a % 97 = p2.a % 97 GROUP BY p1.a % 97",
        )
        .unwrap();
        done.store(true, std::sync::atomic::Ordering::Release);
        poller.join().unwrap()
    });
    assert!(!samples.is_empty(), "poller never observed the query in flight");
    for w in samples.windows(2) {
        assert!(
            w[1] >= w[0],
            "progress regressed mid-statement: {} -> {}",
            w[0],
            w[1]
        );
    }
    assert_eq!(db.progress(), Some(1.0), "finished statement must read 1.0");
}

#[test]
fn mduck_progress_table_function_works_on_both_engines() {
    let _lock = serial();
    let data = sf001();
    let vdb = vec_db(&data);
    let rdb = row_db(&data);
    vdb.execute("SELECT count(*) FROM trips").unwrap();
    rdb.execute("SELECT count(*) FROM trips").unwrap();
    let vr = vdb.execute("SELECT * FROM mduck_progress()").unwrap();
    let rr = rdb.execute("SELECT * FROM mduck_progress()").unwrap();
    let cols = |s: &mduck_sql::Schema| {
        s.fields.iter().map(|f| f.name.clone()).collect::<Vec<_>>()
    };
    assert_eq!(cols(&vr.schema), cols(&rr.schema), "schemas differ across engines");
    assert!(!vr.rows.is_empty(), "no progress entries recorded");
}

#[test]
fn query_log_schema_contract_is_identical_across_engines() {
    let _lock = serial();
    let data = sf001();
    let vdb = vec_db(&data);
    let rdb = row_db(&data);
    vdb.execute("SELECT count(*) FROM trips -- contract-v").unwrap();
    rdb.execute("SELECT count(*) FROM trips -- contract-r").unwrap();
    let vr = vdb.execute("SELECT * FROM mduck_query_log()").unwrap();
    let rr = rdb.execute("SELECT * FROM mduck_query_log()").unwrap();
    let cols = |s: &mduck_sql::Schema| {
        s.fields.iter().map(|f| f.name.clone()).collect::<Vec<_>>()
    };
    let want = vec![
        "query_id",
        "engine",
        "sql",
        "duration_ms",
        "rows_returned",
        "rows_scanned",
        "guard_trip",
        "mem_peak",
        "threads",
        "error",
        "profile",
    ];
    assert_eq!(cols(&vr.schema), want);
    assert_eq!(cols(&vr.schema), cols(&rr.schema), "schemas differ across engines");

    // Both engines recorded their statement with real resource numbers.
    let find = |rows: &[Vec<mduck_sql::Value>], marker: &str| -> Vec<mduck_sql::Value> {
        rows.iter()
            .rev()
            .find(|r| r[2].to_string().contains(marker))
            .unwrap_or_else(|| panic!("no record for {marker}"))
            .clone()
    };
    let v = find(&vr.rows, "contract-v");
    assert_eq!(v[1].to_string(), "vecdb");
    assert_eq!(v[4], mduck_sql::Value::Int(1), "rows_returned");
    let scanned = match &v[5] {
        mduck_sql::Value::Int(n) => *n,
        other => panic!("rows_scanned: {other:?}"),
    };
    assert!(scanned >= 1, "vecdb rows_scanned empty");
    let r = find(&rr.rows, "contract-r");
    assert_eq!(r[1].to_string(), "rowdb");
    assert_eq!(r[8], mduck_sql::Value::Int(1), "row engine threads");
}

#[test]
fn query_log_records_guard_trips_and_errors() {
    let _lock = serial();
    let data = sf001();
    let db = vec_db(&data);
    db.execute("PRAGMA memory_limit='8MB'").unwrap();
    assert_memory_trip(db.execute(AGG_SQL));
    db.execute("PRAGMA memory_limit=0").unwrap();
    let r = db
        .execute(
            "SELECT sql, guard_trip, error, mem_peak FROM mduck_query_log() \
             WHERE guard_trip = 'memory' ORDER BY query_id DESC LIMIT 1",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1, "memory trip not logged");
    assert!(r.rows[0][2].to_string().contains("memory_limit"), "{:?}", r.rows[0]);
    match &r.rows[0][3] {
        mduck_sql::Value::Int(peak) => {
            assert!(*peak >= 8 << 20, "peak below the limit it tripped: {peak}")
        }
        other => panic!("mem_peak: {other:?}"),
    }
}

/// Mask every digit run so ids, timings, and sizes compare stably.
fn mask(line: &str) -> String {
    let mut out = String::new();
    let mut in_num = false;
    for c in line.chars() {
        if c.is_ascii_digit() {
            if !in_num {
                out.push('N');
                in_num = true;
            }
        } else {
            in_num = false;
            out.push(c);
        }
    }
    out
}

#[test]
fn query_log_jsonl_sink_round_trips_golden() {
    let _lock = serial();
    let path = std::env::temp_dir().join(format!("mduck_qlog_{}.jsonl", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    let _ = std::fs::remove_file(&path);

    let db = Database::new();
    db.execute(&format!("PRAGMA query_log='{path_str}'")).unwrap();
    db.execute("CREATE TABLE j(a INTEGER)").unwrap();
    db.execute("INSERT INTO j VALUES (1),(2),(3) -- golden-marker").unwrap();
    db.execute("SELECT a FROM j WHERE a > 1 -- golden-marker").unwrap();
    assert!(db.execute("SELECT nope FROM j -- golden-marker").is_err());
    db.execute("PRAGMA query_log='off'").unwrap();
    db.execute("SELECT a FROM j -- after-sink-closed").unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let lines: Vec<String> = text
        .lines()
        .filter(|l| l.contains("golden-marker"))
        .map(mask)
        .collect();
    let want = vec![
        "{\"id\":N,\"engine\":\"vecdb\",\"sql\":\"INSERT INTO j VALUES (N),(N),(N) -- \
         golden-marker\",\"duration_us\":N,\"rows_returned\":N,\"rows_scanned\":N,\
         \"guard_trip\":null,\"mem_peak\":N,\"threads\":N,\"error\":null,\"profile\":null}"
            .to_string(),
        "{\"id\":N,\"engine\":\"vecdb\",\"sql\":\"SELECT a FROM j WHERE a > N -- \
         golden-marker\",\"duration_us\":N,\"rows_returned\":N,\"rows_scanned\":N,\
         \"guard_trip\":null,\"mem_peak\":N,\"threads\":N,\"error\":null,\"profile\":null}"
            .to_string(),
        "{\"id\":N,\"engine\":\"vecdb\",\"sql\":\"SELECT nope FROM j -- golden-marker\",\
         \"duration_us\":N,\"rows_returned\":N,\"rows_scanned\":N,\"guard_trip\":null,\
         \"mem_peak\":N,\"threads\":N,\"error\":\"binder error: unknown column \\\"nope\\\"\",\
         \"profile\":null}"
            .to_string(),
    ];
    assert_eq!(lines, want, "JSONL golden drifted:\n{text}");
    assert!(
        !text.contains("after-sink-closed"),
        "sink kept receiving after PRAGMA query_log='off'"
    );
}

/// The per-stage breakdown sums every block's stages: Q9's `aggregate`
/// stage is its main block's HASH_GROUP_BY plus its CTE body's, as
/// EXPLAIN ANALYZE renders them.
#[test]
fn stage_breakdown_counts_cte_bodies() {
    let _lock = serial();
    let db = vec_db(&sf001());
    let q9 = berlinmod::benchmark_queries().into_iter().find(|q| q.0 == 9).unwrap().2;
    let pq = db.execute_analyzed(q9).unwrap();
    let stage = pq.stages.iter().find(|s| s.stage == "aggregate").expect("aggregate stage");
    // The actual time and rows of each HASH_GROUP_BY box, main block first.
    let boxes: Vec<(f64, u64)> = pq
        .explain
        .split('┌')
        .filter(|b| b.contains("HASH_GROUP_BY"))
        .map(|b| {
            let line = |key: &str| {
                let l = b.lines().find_map(|l| l.split(key).nth(1)).expect(key);
                l.trim_matches(|c: char| c == '│' || c == ' ').trim_end_matches(" ms").to_string()
            };
            (line("actual: ").parse().unwrap(), line("rows: ").parse().unwrap())
        })
        .collect();
    assert_eq!(boxes.len(), 2, "{}", pq.explain);
    let cte = pq.explain.find("CTE distances").expect("CTE section");
    assert!(pq.explain[..cte].contains("HASH_GROUP_BY"), "{}", pq.explain);
    assert_eq!(stage.execs, 2);
    assert_eq!(stage.rows_out, boxes[0].1 + boxes[1].1);
    let (main, cte) = (boxes[0].0, boxes[1].0);
    assert!(cte > 0.0, "{}", pq.explain);
    // Each box rounds its time to the microsecond.
    assert!((stage.elapsed_ms - (main + cte)).abs() <= 0.002, "{stage:?}\n{}", pq.explain);
}
