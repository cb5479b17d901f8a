//! The fusion pass (DESIGN.md §13, "Fusion rules"): quackdb's planner
//! puts in-place kernels in place of the written compositions
//! `ST_Intersects(trajectory(x), g)`, `eIntersects(atTime(x, p), g)`,
//! `length(atTime(x, p))`, `whenTrue(tDwithin(a, b, d))` and
//! `startTimestamp(atValues(x, g))`.
//!
//! Differential: each rule's written SQL runs on quackdb, which fuses it,
//! serially and on a worker pool, and on the row engine, which never
//! fuses; rows, NULLs and errors must agree. EXPLAIN must show the fused
//! call in place of the composition.

use mduck_rowdb::RowDatabase;
use mduck_sql::Value;
use quackdb::Database;

const PARALLEL_THREADS: usize = 4;

/// A value as text, with floats by their bits: the fused kernels must
/// return the composition's values exactly.
fn render(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("{:#x}", f.to_bits()),
        other => other.to_string(),
    };
    rows.iter().map(|r| r.iter().map(cell).collect()).collect()
}

/// One moving point of every kind, on 2025-01-01 from 08:00, and NULL.
const TRIPS: [&str; 10] = [
    "NULL",
    "'POINT(1 1)@2025-01-01 08:10:00'",
    "'{POINT(0 0)@2025-01-01 08:00:00, POINT(2 2)@2025-01-01 08:10:00, \
       POINT(4 0)@2025-01-01 08:20:00}'",
    "'Interp=Step;[POINT(0 0)@2025-01-01 08:00:00, POINT(3 3)@2025-01-01 08:10:00, \
       POINT(6 0)@2025-01-01 08:20:00]'",
    "'[POINT(-1 1)@2025-01-01 08:00:00, POINT(5 1)@2025-01-01 08:10:00, \
       POINT(5 5)@2025-01-01 08:20:00, POINT(1 5)@2025-01-01 08:30:00]'",
    "'{[POINT(0 0)@2025-01-01 08:00:00, POINT(2 2)@2025-01-01 08:05:00], \
       (POINT(2 2)@2025-01-01 08:10:00, POINT(8 2)@2025-01-01 08:20:00]}'",
    "'[POINT(2 2)@2025-01-01 08:00:00, POINT(2 2)@2025-01-01 08:30:00]'",
    "'[POINT(100 100)@2025-01-01 08:00:00, POINT(110 100)@2025-01-01 08:30:00]'",
    "'[POINT(8 0)@2025-01-01 08:00:00, POINT(0 8)@2025-01-01 08:20:00]'",
    "'(POINT(3 0)@2025-01-01 08:10:00, POINT(3 6)@2025-01-01 08:20:00)'",
];

/// Every geometry kind (a polygon with a hole, multi-geometries, a
/// collection, an empty one) and NULL.
const GEOMS: [&str; 8] = [
    "POINT(2 2)",
    "LINESTRING(0 4, 4 4)",
    "POLYGON((0 0, 6 0, 6 6, 0 6, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))",
    "MULTIPOINT(5 1, 9 9)",
    "MULTILINESTRING((1 -1, 1 1), (7 7, 8 8))",
    "GEOMETRYCOLLECTION(POINT(4 0), POLYGON((50 50, 60 50, 60 60, 50 60, 50 50)))",
    "GEOMETRYCOLLECTION EMPTY",
    "NULL",
];

/// Periods: NULL, disjoint from every trip, bounds on an instant
/// (inclusive and exclusive), covering, a single instant, between
/// instants.
const PERIODS: [&str; 7] = [
    "NULL",
    "'[2025-01-02 00:00:00, 2025-01-02 01:00:00]'",
    "'[2025-01-01 08:10:00, 2025-01-01 08:20:00]'",
    "'(2025-01-01 08:10:00, 2025-01-01 08:20:00)'",
    "'[2025-01-01 07:00:00, 2025-01-01 09:00:00]'",
    "'[2025-01-01 08:10:00, 2025-01-01 08:10:00]'",
    "'[2025-01-01 08:02:30, 2025-01-01 08:07:30)'",
];

/// The same tables in both engines.
struct Pair {
    vec: Database,
    row: RowDatabase,
}

impl Pair {
    /// `trips`, `geoms` (each geometry as a WKB blob `g` and a native
    /// `ng`), `pts` (the point geometries), `periods`, and `bad`, one
    /// malformed WKB blob.
    fn new() -> Self {
        let vec = Database::new();
        mobilityduck::load(&vec);
        let row = RowDatabase::new();
        mobilityduck::load_row(&row);
        let p = Pair { vec, row };
        p.exec("CREATE TABLE trips(id INTEGER, trip TGEOMPOINT)");
        p.exec("CREATE TABLE geoms(id INTEGER, g WKB_BLOB, ng GEOMETRY)");
        p.exec("CREATE TABLE pts(id INTEGER, g WKB_BLOB, ng GEOMETRY)");
        p.exec("CREATE TABLE periods(id INTEGER, p TSTZSPAN)");
        p.exec("CREATE TABLE bad(id INTEGER, g WKB_BLOB)");
        let rows: Vec<String> = TRIPS
            .iter()
            .enumerate()
            .map(|(i, t)| match *t {
                "NULL" => format!("({i}, NULL)"),
                t => format!("({i}, {t}::TGEOMPOINT)"),
            })
            .collect();
        p.exec(&format!("INSERT INTO trips VALUES {}", rows.join(", ")));
        let geom = |i: usize, g: &str| match g {
            "NULL" => format!("({i}, NULL, NULL)"),
            g => format!("({i}, '{g}'::WKB_BLOB, '{g}'::GEOMETRY)"),
        };
        let rows: Vec<String> = GEOMS.iter().enumerate().map(|(i, g)| geom(i, g)).collect();
        p.exec(&format!("INSERT INTO geoms VALUES {}", rows.join(", ")));
        let points = ["POINT(2 2)", "POINT(5 1)", "POINT(4 4)", "POINT(3 3)", "POINT(9 9)", "NULL"];
        let rows: Vec<String> = points.iter().enumerate().map(|(i, g)| geom(i, g)).collect();
        p.exec(&format!("INSERT INTO pts VALUES {}", rows.join(", ")));
        let rows: Vec<String> = PERIODS
            .iter()
            .enumerate()
            .map(|(i, s)| match *s {
                "NULL" => format!("({i}, NULL)"),
                s => format!("({i}, {s}::TSTZSPAN)"),
            })
            .collect();
        p.exec(&format!("INSERT INTO periods VALUES {}", rows.join(", ")));
        let bad = vec![vec![Value::Int(1), Value::blob(vec![1, 3, 0, 0])]];
        p.vec.insert_rows("bad", &bad).unwrap();
        p.row.insert_rows("bad", bad).unwrap();
        p
    }

    fn exec(&self, sql: &str) {
        self.vec.execute(sql).unwrap_or_else(|e| panic!("vecdb: {e}\n{sql}"));
        self.row.execute(sql).unwrap_or_else(|e| panic!("rowdb: {e}\n{sql}"));
    }

    /// quackdb's plan shows each of `fused` and none of `written`.
    fn check_plan(&self, sql: &str, fused: &[&str], written: &[&str]) {
        let r = self.vec.execute(&format!("EXPLAIN {sql}")).unwrap_or_else(|e| panic!("{e}\n{sql}"));
        let plan = r.rows[0][0].to_string();
        for f in fused {
            assert!(plan.contains(f), "{f} not in the plan\n{plan}");
        }
        for w in written {
            assert!(!plan.contains(w), "{w} still in the plan\n{plan}");
        }
    }

    /// The fused plan returns one row sequence on 1 and 4 threads, equal
    /// to the row engine's written one.
    fn check(&self, sql: &str, fused: &[&str], written: &[&str]) -> Vec<Vec<Value>> {
        self.check_plan(sql, fused, written);
        let want = self.row.execute(sql).unwrap_or_else(|e| panic!("rowdb: {e}\n{sql}")).rows;
        for threads in [1, PARALLEL_THREADS] {
            self.vec.set_threads(threads);
            let got = self.vec.execute(sql).unwrap_or_else(|e| panic!("vecdb: {e}\n{sql}")).rows;
            assert_eq!(render(&got), render(&want), "threads={threads}\n{sql}");
        }
        want
    }

    /// Both engines fail with the same error, on 1 and 4 threads. The row
    /// engine's evaluator names the failing call before its message;
    /// quackdb's vectorized calls do not, fused or not.
    fn check_error(&self, sql: &str, fused: &[&str]) -> String {
        self.check_plan(sql, fused, &[]);
        let want = match self.row.execute(sql) {
            Err(e) => e.to_string(),
            Ok(r) => panic!("rowdb returned {} rows\n{sql}", r.rows.len()),
        };
        for threads in [1, PARALLEL_THREADS] {
            self.vec.set_threads(threads);
            match self.vec.execute(sql) {
                Err(e) => assert_eq!(unnamed(&e.to_string()), unnamed(&want), "threads={threads}\n{sql}"),
                Ok(r) => panic!("vecdb threads={threads} returned {} rows\n{sql}", r.rows.len()),
            }
        }
        want
    }
}

/// An execution error's message without the name of the call that raised
/// it.
fn unnamed(err: &str) -> String {
    const KIND: &str = "execution error: ";
    match err.strip_prefix(KIND).and_then(|m| m.split_once(": ")) {
        Some((name, m)) if name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') => {
            format!("{KIND}{m}")
        }
        _ => err.to_string(),
    }
}

fn count(rows: &[Vec<Value>], f: impl Fn(&Value) -> bool) -> usize {
    rows.iter().filter(|r| f(&r[r.len() - 1])).count()
}

#[test]
fn st_intersects_of_a_trajectory_becomes_eintersects() {
    let p = Pair::new();
    let rows = p.check(
        "SELECT t.id, g.id, ST_Intersects(trajectory(t.trip), g.g) FROM trips t, geoms g \
         ORDER BY t.id, g.id",
        &["eintersects([col#1, col#3"],
        &["st_intersects", "trajectory"],
    );
    assert!(count(&rows, |v| *v == Value::Bool(true)) > 10);
    assert!(count(&rows, |v| *v == Value::Bool(false)) > 10);
    assert!(count(&rows, Value::is_null) > 10, "NULL trips and geometries");
    // Either argument order, through the GEOMETRY cast, native geometries,
    // as a WHERE conjunct.
    let rows = p.check(
        "SELECT t.id, g.id FROM trips t, geoms g \
         WHERE ST_Intersects(g.ng, trajectory(t.trip)::GEOMETRY) ORDER BY t.id, g.id",
        &["eintersects"],
        &["st_intersects", "cast::GEOMETRY"],
    );
    assert!(rows.len() > 10);
    // A VARCHAR geometry has no eIntersects overload: left as written.
    p.check(
        "SELECT t.id, ST_Intersects(trajectory(t.trip), 'POINT(2 2)') FROM trips t ORDER BY t.id",
        &["st_intersects"],
        &["eintersects"],
    );
    p.check_error(
        "SELECT t.id FROM trips t, bad b WHERE ST_Intersects(trajectory(t.trip), b.g)",
        &["eintersects"],
    );
}

#[test]
fn eintersects_over_attime_runs_over_the_window() {
    let p = Pair::new();
    let rows = p.check(
        "SELECT t.id, pr.id, g.id, eIntersects(atTime(t.trip, pr.p), g.g) \
         FROM trips t, periods pr, geoms g ORDER BY t.id, pr.id, g.id",
        &["eintersects([col#1, col#3,"],
        &["attime"],
    );
    assert!(count(&rows, |v| *v == Value::Bool(true)) > 10);
    assert!(count(&rows, |v| *v == Value::Bool(false)) > 10);
    // Query 15's spelling: rule 1, then rule 2 over its output.
    p.check(
        "SELECT t.id, pr.id, g.id FROM trips t, periods pr, geoms g \
         WHERE ST_Intersects(trajectory(atTime(t.trip, pr.p))::GEOMETRY, g.ng) \
         ORDER BY t.id, pr.id, g.id",
        &["eintersects"],
        &["attime", "st_intersects", "trajectory"],
    );
    // In a CTE body and a scalar subquery.
    p.check(
        "WITH w AS (SELECT t.id AS tid, pr.id AS pid, eIntersects(atTime(t.trip, pr.p), g.ng) AS hit \
                    FROM trips t, periods pr, pts g WHERE g.id = 0) \
         SELECT tid, pid, hit, (SELECT count(*) FROM trips t2, periods p2 WHERE p2.id = w.pid \
                                AND eIntersects(atTime(t2.trip, p2.p), 'POINT(2 2)'::GEOMETRY)) \
         FROM w ORDER BY tid, pid",
        &["eintersects"],
        &["attime"],
    );
    // A window that is empty is NULL and never reads the geometry: a
    // malformed one fails only where the window is not.
    let rows = p.check(
        "SELECT t.id, eIntersects(atTime(t.trip, pr.p), b.g) FROM trips t, periods pr, bad b \
         WHERE pr.id = 1 ORDER BY t.id",
        &["eintersects"],
        &["attime"],
    );
    assert!(rows.iter().all(|r| r[1].is_null()));
    p.check_error(
        "SELECT t.id FROM trips t, periods pr, bad b WHERE eIntersects(atTime(t.trip, pr.p), b.g)",
        &["eintersects"],
    );
}

#[test]
fn length_over_attime_sums_the_window() {
    let p = Pair::new();
    let rows = p.check(
        "SELECT t.id, pr.id, length(atTime(t.trip, pr.p)) FROM trips t, periods pr \
         ORDER BY t.id, pr.id",
        &["length([col#1, col#3])"],
        &["attime"],
    );
    assert!(count(&rows, |v| matches!(v, Value::Float(f) if *f > 0.0)) > 5);
    assert!(count(&rows, Value::is_null) > 10, "NULL trips, periods and empty windows");
    // Query 8/9's aggregate argument.
    p.check(
        "SELECT pr.id, sum(length(atTime(t.trip, pr.p))) FROM trips t, periods pr \
         GROUP BY pr.id ORDER BY pr.id",
        &["sum([length([col#1, col#3"],
        &["attime"],
    );
}

#[test]
fn whentrue_of_tdwithin_is_computed_directly() {
    let p = Pair::new();
    let rows = p.check(
        "SELECT a.id, b.id, whenTrue(tDwithin(a.trip, b.trip, 1.5)) FROM trips a, trips b \
         ORDER BY a.id, b.id",
        &["whentrue_tdwithin"],
        &["[tdwithin(", "whentrue(["],
    );
    assert!(count(&rows, |v| !v.is_null()) > 10);
    assert!(count(&rows, Value::is_null) > 10);
    // An integer distance, and a WHERE over the result (Query 10's form).
    p.check(
        "WITH m AS (SELECT a.id AS x, b.id AS y, whenTrue(tDwithin(a.trip, b.trip, 3)) AS w \
                    FROM trips a, trips b WHERE a.id <> b.id) \
         SELECT x, y, w FROM m WHERE w IS NOT NULL ORDER BY x, y",
        &["whentrue_tdwithin"],
        &["[tdwithin("],
    );
}

#[test]
fn starttimestamp_of_atvalues_is_the_first_hit() {
    let p = Pair::new();
    let rows = p.check(
        "SELECT t.id, g.id, startTimestamp(atValues(t.trip, g.g)) FROM trips t, pts g \
         ORDER BY t.id, g.id",
        &["starttimestamp_atvalues"],
        &["[atvalues("],
    );
    assert!(count(&rows, |v| !v.is_null()) > 5);
    // Query 7's aggregate, over native points cast to WKB.
    p.check(
        "SELECT g.id, min(startTimestamp(atValues(t.trip, g.ng::WKB_BLOB))) FROM trips t, pts g \
         GROUP BY g.id ORDER BY g.id",
        &["min([starttimestamp_atvalu"],
        &["[atvalues("],
    );
    // A geometry that is not a point fails as atValues does, and so does
    // a malformed one.
    let err = p.check_error(
        "SELECT t.id, startTimestamp(atValues(t.trip, g.g)) FROM trips t, geoms g",
        &["starttimestamp_atvalues"],
    );
    assert!(err.contains("atValues expects a point geometry"), "{err}");
    p.check_error(
        "SELECT t.id, startTimestamp(atValues(t.trip, b.g)) FROM trips t, bad b",
        &["starttimestamp_atvalues"],
    );
}

/// A failing call names itself in its error on both engines, evaluated
/// vectorized (a plain conjunct) or row by row (inside a CASE): one
/// message for one failure, with no fusion renaming the call.
#[test]
fn a_failing_call_reads_the_same_everywhere() {
    let p = Pair::new();
    let plain = "SELECT g.id FROM geoms g, bad b WHERE ST_Intersects(g.g, b.g) ORDER BY g.id";
    let in_case = "SELECT g.id FROM geoms g, bad b \
                   WHERE CASE WHEN g.id >= 0 THEN ST_Intersects(g.g, b.g) END ORDER BY g.id";
    let mut messages = Vec::new();
    for sql in [plain, in_case] {
        let want = match p.row.execute(sql) {
            Err(e) => e.to_string(),
            Ok(r) => panic!("rowdb returned {} rows\n{sql}", r.rows.len()),
        };
        for threads in [1, PARALLEL_THREADS] {
            p.vec.set_threads(threads);
            match p.vec.execute(sql) {
                Err(e) => assert_eq!(e.to_string(), want, "threads={threads}\n{sql}"),
                Ok(r) => panic!("vecdb returned {} rows\n{sql}", r.rows.len()),
            }
        }
        assert!(want.starts_with("execution error: st_intersects: "), "{want}");
        messages.push(want);
    }
    assert_eq!(messages[0], messages[1]);
}
