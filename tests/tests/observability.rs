//! Integration tests for the observability layer: EXPLAIN / EXPLAIN
//! ANALYZE rendering, `PRAGMA metrics` introspection, and the
//! `mduck_spans()` table function — exercised on both engines.
//!
//! The metrics registry is process-global, so value assertions are either
//! monotonic deltas (`after >= before + k`) or serialized behind `SERIAL`.

use std::sync::Mutex;

use mduck_rowdb::RowDatabase;
use mduck_sql::Value;
use quackdb::Database;

/// Serializes the tests that reset or read exact global metric values.
static SERIAL: Mutex<()> = Mutex::new(());

fn vec_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE pts(id INTEGER, x DOUBLE, tag TEXT)").unwrap();
    let vals: Vec<String> =
        (0..100).map(|i| format!("({i}, {}.5, 't{}')", i % 10, i % 3)).collect();
    db.execute(&format!("INSERT INTO pts VALUES {}", vals.join(","))).unwrap();
    db
}

fn row_db() -> RowDatabase {
    let db = RowDatabase::new();
    db.execute("CREATE TABLE pts(id INTEGER, x DOUBLE, tag TEXT)").unwrap();
    let vals: Vec<String> =
        (0..100).map(|i| format!("({i}, {}.5, 't{}')", i % 10, i % 3)).collect();
    db.execute(&format!("INSERT INTO pts VALUES {}", vals.join(","))).unwrap();
    db
}

/// Normalize an EXPLAIN rendering for golden comparison: drop the
/// box-drawing characters, trim each line, replace every run of digits
/// and dots with `N` (timings and row counts vary run to run), and drop
/// lines left empty. What remains is the plan shape and label text.
fn mask(explain: &str) -> Vec<String> {
    explain
        .lines()
        .map(|line| {
            let mut out = String::new();
            let mut in_num = false;
            for c in line.chars() {
                match c {
                    '┌' | '┐' | '└' | '┘' | '┬' | '┴' | '│' | '─' => {}
                    '0'..='9' | '.' => {
                        if !in_num {
                            out.push('N');
                            in_num = true;
                        }
                    }
                    c => {
                        in_num = false;
                        out.push(c);
                    }
                }
            }
            out.trim().to_string()
        })
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn vec_explain_analyze_golden() {
    let db = vec_db();
    let r = db
        .execute(
            "EXPLAIN ANALYZE SELECT tag, count(*) FROM pts \
             WHERE x > 2.0 GROUP BY tag ORDER BY tag LIMIT 2",
        )
        .unwrap();
    assert_eq!(r.schema.fields.len(), 1);
    let got = mask(&r.rows[0][0].to_string());
    let want: Vec<&str> = vec![
        "Total Time: N ms",
        "Rows Returned: N",
        "LIMIT",
        "LIMIT N",
        "actual: N ms",
        "rows: N",
        "ORDER_BY",
        "#N ASC",
        "actual: N ms",
        "rows: N",
        "mem: NB",
        "PROJECTION",
        "col#N",
        "col#N",
        "actual: N ms",
        "rows: N",
        "HASH_GROUP_BY",
        "group: col#N",
        "count([])",
        "actual: N ms",
        "rows: N",
        "mem: NB",
        "SEQ_SCAN",
        "pts",
        "columns: [N]",
        "Filters:",
        "(col#N > lit(Float(N)))",
        "actual: N ms",
        "rows: N → N",
        "chunks: N",
        "mem: NB",
    ];
    assert_eq!(got, want, "masked EXPLAIN ANALYZE drifted:\n{}", r.rows[0][0]);
}

#[test]
fn vec_explain_analyze_actuals_are_real() {
    let db = vec_db();
    let r = db.execute("EXPLAIN ANALYZE SELECT * FROM pts WHERE id < 7").unwrap();
    let text = r.rows[0][0].to_string();
    // The pushed-down predicate is fused into the scan: one SEQ_SCAN box
    // reports the rows it visited and the rows that survived.
    assert!(text.contains("rows: 100 → 7"), "fused scan actuals missing:\n{text}");
    assert!(!text.contains("FILTER"), "standalone filter over a base table:\n{text}");
    assert!(text.contains("chunks: 1"), "chunk count missing:\n{text}");
    assert!(text.contains("Rows Returned: 7"), "header missing:\n{text}");
}

#[test]
fn vec_explain_and_analyze_from_less_select() {
    let db = vec_db();
    // The programmatic entry point.
    let pq = db.execute_analyzed("SELECT 1 + 1 AS two").unwrap();
    assert_eq!(pq.result.rows, vec![vec![Value::Int(2)]]);
    assert!(pq.operators.is_empty(), "no join tree, no operators: {:?}", pq.operators);
    assert!(pq.explain.contains("Rows Returned: 1"), "{}", pq.explain);
    assert!(pq.explain.contains("DUMMY_SCAN"), "{}", pq.explain);
    // The SQL surface, analyzed and plain.
    let r = db.execute("EXPLAIN ANALYZE SELECT 1").unwrap();
    let text = r.rows[0][0].to_string();
    assert!(text.contains("PROJECTION") && text.contains("DUMMY_SCAN"), "{text}");
    let r = db.execute("EXPLAIN SELECT 'x'").unwrap();
    let text = r.rows[0][0].to_string();
    assert!(text.contains("PROJECTION") && text.contains("DUMMY_SCAN"), "{text}");
}

/// A Q10-shaped statement: the whole vehicle-pair join runs inside a
/// CTE, plus a second, unused CTE with its own join.
const Q10_SHAPED: &str = "WITH Temp AS (
       SELECT l1.license AS license1, t2.vehicleid AS car2id, t2.tripid AS trip2
       FROM trips t1, licenses1 l1, trips t2, vehicles v
       WHERE t1.vehicleid = l1.vehicleid AND t2.vehicleid = v.vehicleid AND
             t1.vehicleid <> t2.vehicleid AND
             t2.trip && expandSpace(t1.trip::STBOX, 3.0)),
     Other AS (
       SELECT v.model FROM vehicles v, licenses2 l2 WHERE v.vehicleid = l2.vehicleid)
     SELECT license1, car2id, count(*) FROM Temp
     GROUP BY license1, car2id ORDER BY license1, car2id";

#[test]
fn vec_explain_analyze_renders_cte_bodies() {
    let net = berlinmod::RoadNetwork::generate(42);
    let data = berlinmod::BerlinModData::generate(&net, berlinmod::ScaleFactor(0.001), 42);
    let db = Database::new();
    mobilityduck::load(&db);
    data.load_into_quack(&db).unwrap();
    let pq = db.execute_analyzed(Q10_SHAPED).unwrap();
    let text = &pq.explain;
    // Each CTE body renders under its own header, with actuals.
    let temp = text.find("──── CTE temp ────").unwrap_or_else(|| panic!("{text}"));
    let other = text.find("──── CTE other ────").unwrap_or_else(|| panic!("{text}"));
    assert!(temp < other, "{text}");
    let (temp_text, other_text) = (&text[temp..other], &text[other..]);
    assert!(temp_text.contains("INDEX_JOIN") && temp_text.contains("candidates:"), "{text}");
    // The join owns its `&&` conjunct: it names it, and no Filter
    // re-checks it.
    assert!(temp_text.contains("cond: &&("), "{text}");
    let trimmed = |l: &str| l.trim_matches(|c| c == '│' || c == ' ').to_string();
    assert!(!temp_text.lines().any(|l| trimmed(l).starts_with("&&(")), "{text}");
    assert!(other_text.contains("HASH_JOIN"), "{text}");
    assert!(!text.contains("not executed"), "{text}");
    // The main tree (a CTE scan) comes first in the operator list, then
    // the CTE bodies, whose operators carry the statement's time.
    assert_eq!(pq.operators[0].op, "cte_scan", "{:?}", pq.operators);
    let body = &pq.operators[1..];
    for op in ["index_join", "hash_join", "filter", "seq_scan"] {
        assert!(body.iter().any(|o| o.op == op), "{op} missing: {body:?}");
    }
    // A body's projection runs in its stages, not its operators: add the
    // stages, which sum every block's (the main block's aggregate and
    // ORDER BY over the CTE scan are small beside the bodies').
    let body_ms: f64 = body.iter().map(|o| o.elapsed_ms).sum();
    let stages_ms: f64 = pq.stages.iter().map(|s| s.elapsed_ms).sum();
    assert!(
        body_ms + stages_ms >= 0.5 * pq.total_ms,
        "CTE operators {body_ms:.3} ms and stages {stages_ms:.3} ms of {:.3} ms total\n{text}",
        pq.total_ms
    );
}

#[test]
fn vec_offset_without_limit_renders_offset() {
    let db = vec_db();
    let r = db.execute("EXPLAIN SELECT id FROM pts OFFSET 5").unwrap();
    let text = r.rows[0][0].to_string();
    assert!(text.contains("OFFSET 5"), "missing OFFSET detail:\n{text}");
    assert!(!text.contains("LIMIT 0"), "offset-only rendered as LIMIT 0:\n{text}");
    // Both clauses present: each gets its own detail line.
    let r = db.execute("EXPLAIN SELECT id FROM pts LIMIT 3 OFFSET 5").unwrap();
    let text = r.rows[0][0].to_string();
    assert!(text.contains("LIMIT 3") && text.contains("OFFSET 5"), "{text}");
}

#[test]
fn row_offset_without_limit_renders_offset() {
    let db = row_db();
    let r = db.execute("EXPLAIN SELECT id FROM pts OFFSET 5").unwrap();
    let text = r.rows[0][0].to_string();
    assert!(text.contains("Limit (offset 5)"), "missing offset detail:\n{text}");
    let r = db.execute("EXPLAIN SELECT id FROM pts LIMIT 3 OFFSET 5").unwrap();
    let text = r.rows[0][0].to_string();
    assert!(text.contains("Limit (3 rows, offset 5)"), "{text}");
}

#[test]
fn row_explain_analyze_reports_execution_footer() {
    let db = row_db();
    let r = db
        .execute("EXPLAIN ANALYZE SELECT tag, count(*) FROM pts WHERE x > 2.0 GROUP BY tag")
        .unwrap();
    let text = r.rows[0][0].to_string();
    assert!(text.contains("Seq Scan on pts"), "{text}");
    assert!(text.contains("Execution Time:"), "missing wall time:\n{text}");
    assert!(text.contains("Rows Returned: 3"), "missing row count:\n{text}");
    assert!(text.contains("Rows Scanned: 100"), "missing scan count:\n{text}");
}

#[test]
fn pragma_metrics_schema_is_identical_across_engines() {
    let _lock = SERIAL.lock().unwrap();
    let vdb = vec_db();
    let rdb = row_db();
    vdb.execute("SELECT * FROM pts WHERE x > 2.0").unwrap();
    rdb.execute("SELECT * FROM pts WHERE x > 2.0").unwrap();
    let vm = vdb.execute("PRAGMA metrics").unwrap();
    let rm = rdb.execute("PRAGMA metrics").unwrap();

    let cols = |s: &mduck_sql::Schema| {
        s.fields.iter().map(|f| f.name.clone()).collect::<Vec<_>>()
    };
    assert_eq!(cols(&vm.schema), vec!["name", "kind", "value", "detail"]);
    assert_eq!(cols(&vm.schema), cols(&rm.schema), "schemas differ across engines");
    // Same registry behind both engines: identical metric rows, same order.
    let names = |r: &[Vec<Value>]| {
        r.iter().map(|row| row[0].to_string()).collect::<Vec<_>>()
    };
    assert_eq!(names(&vm.rows), names(&rm.rows), "metric sets differ across engines");

    let lookup = |r: &[Vec<Value>], name: &str| -> (i64, String) {
        let row = r.iter().find(|row| row[0].to_string() == name).unwrap();
        match (&row[2], &row[3]) {
            (Value::Int(v), Value::Text(d)) => (*v, d.to_string()),
            other => panic!("unexpected value/detail types: {other:?}"),
        }
    };
    // Both engines scanned the 100-row table at least once.
    let (scanned, _) = lookup(&rm.rows, "rows_scanned");
    assert!(scanned >= 200, "expected scans from both engines, got {scanned}");
    // Phase-latency histograms populated for both engines.
    for h in ["vecdb_parse_ns", "vecdb_exec_ns", "rowdb_parse_ns", "rowdb_exec_ns"] {
        let (count, detail) = lookup(&rm.rows, h);
        assert!(count >= 1, "{h} histogram empty");
        assert!(detail.contains("p50=") && detail.contains("p95="), "{h}: {detail}");
    }
}

#[test]
fn pragma_reset_metrics_reports_status() {
    let _lock = SERIAL.lock().unwrap();
    let db = vec_db();
    let before = mduck_obs::metrics().queries_executed.get();
    db.execute("SELECT count(*) FROM pts").unwrap();
    assert!(mduck_obs::metrics().queries_executed.get() > before);

    let r = db.execute("PRAGMA reset_metrics").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0].to_string(), "metrics reset");
    // Unknown pragmas are a catalog error, not a panic.
    assert!(db.execute("PRAGMA no_such_pragma").is_err());
    let rdb = row_db();
    assert!(rdb.execute("PRAGMA no_such_pragma").is_err());
}

#[test]
fn mduck_spans_is_queryable_from_both_engines() {
    let vdb = vec_db();
    vdb.execute("SELECT count(*) FROM pts").unwrap();
    let r = vdb
        .execute("SELECT name, depth, duration_us FROM mduck_spans() WHERE name = 'vecdb.exec'")
        .unwrap();
    assert!(!r.rows.is_empty(), "no vecdb.exec spans recorded");

    let rdb = row_db();
    rdb.execute("SELECT count(*) FROM pts").unwrap();
    let r = rdb
        .execute("SELECT name FROM mduck_spans() WHERE name = 'rowdb.exec'")
        .unwrap();
    assert!(!r.rows.is_empty(), "no rowdb.exec spans recorded");

    // Child spans nest under the statement span.
    let r = vdb
        .execute(
            "SELECT s.name FROM mduck_spans() s \
             WHERE s.name = 'vecdb.bind' AND s.depth >= 1 LIMIT 1",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1, "bind span should sit below the query span");

    // The alias participates in binding like any table.
    assert!(vdb.execute("SELECT * FROM mduck_spans(1)").is_err(), "args must be rejected");
}
