//! Deterministic SQL fuzzing: every input — mutated real queries, token
//! soup, and generated deeply-structured statements — must come back as
//! `Ok` or a *typed* error. A panic, an abort, or an `SqlError::Internal`
//! (the executor's catch-unwind backstop) is a bug; the offending input
//! is persisted under `tests/corpus/sql/`.

use mduck_integration::fuzz;
use mduck_prng::{RngExt, SeedableRng, StdRng};
use quackdb::{Database, ExecLimits};

const CASES: usize = 1500;

/// Realistic seed statements covering the MobilityDuck surface; mutations
/// start from these so the fuzzer spends its time past the lexer.
const SEEDS: &[&str] = &[
    "SELECT vid, length(trip), numInstants(trip) FROM trips WHERE vid < 3 ORDER BY vid",
    "SELECT vid FROM trips WHERE trip && 'STBOX X((0,0),(500,500))'::stbox",
    "SELECT ST_AsText(trajectory(trip)) FROM trips",
    "SELECT atTime(trip, '[2025-01-01 08:00:00, 2025-01-01 08:15:00]'::tstzspan) FROM trips",
    "SELECT t1.vid, t2.vid FROM trips t1, trips t2 WHERE eDwithin(t1.trip, t2.trip, 100.0)",
    "SELECT vid, trip::tstzspan, trip::stbox FROM trips",
    "INSERT INTO trips VALUES (9, '[Point(1 1)@2025-01-01, Point(2 2)@2025-01-02]'::tgeompoint)",
    "SELECT count(*), sum(x), avg(x) FROM generate_series(1, 100) s(x) GROUP BY x % 7",
    "SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t WHERE a IN (1, 2, 3)",
    "UPDATE t SET a = a * 2 WHERE a BETWEEN 1 AND 5",
    "DELETE FROM t WHERE a IS NULL OR a <> 4",
    "SELECT * FROM (SELECT a + 1 AS b FROM t) q WHERE b = (SELECT max(a) FROM t)",
    "WITH c AS (SELECT a FROM t) SELECT * FROM c JOIN t ON c.a = t.a",
    "CREATE INDEX idx ON trips USING TRTREE(trip)",
    "SELECT 9223372036854775807 + 1, -9223372036854775808 / -1, 2 % 0",
    "SELECT '2025-01-01'::date + 1, interval '1 day' * 999999999",
    "SELECT tempSubtype(trip), startInstant(trip), speed(trip) FROM trips",
];

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "OFFSET", "JOIN", "ON", "AND",
    "OR", "NOT", "NULL", "TRUE", "FALSE", "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
    "CREATE", "TABLE", "INDEX", "USING", "CAST", "AS", "CASE", "WHEN", "THEN", "ELSE", "END",
    "IN", "IS", "BETWEEN", "LIKE", "DISTINCT", "HAVING", "WITH", "EXPLAIN", "ASC", "DESC",
];

const SYMBOLS: &[&str] = &[
    "(", ")", ",", ";", "::", "&&", "@>", "<@", "<->", "-|-", "|=|", "<=", ">=", "<>", "!=",
    "=", "<", ">", "+", "-", "*", "/", "%", ".", "'", "[", "]",
];

const ATOMS: &[&str] = &[
    "t", "trips", "a", "vid", "trip", "x", "q", "0", "1", "-1", "2048", "1e308", "-1e-308",
    "9223372036854775807", "-9223372036854775808", "0.0", "''", "'x'", "'POINT(1 2)'",
    "'STBOX X((0,0),(1,1))'", "'[Point(0 0)@2025-01-01, Point(1 1)@2025-01-02]'",
    "'2025-01-01 08:00:00'", "stbox", "tgeompoint", "tstzspan", "integer", "count", "sum",
    "atTime", "trajectory", "eDwithin", "generate_series",
];

fn fresh_db() -> Database {
    let db = Database::new();
    mobilityduck::load(&db);
    // Budgets keep pathological generated queries (cross joins, huge
    // series) bounded; overruns are typed errors, which is exactly the
    // contract under test.
    db.set_exec_limits(ExecLimits::default().with_row_budget(200_000));
    db.execute_script(
        "CREATE TABLE t(a INTEGER, b VARCHAR);
         INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, NULL), (4, 'four');
         CREATE TABLE trips(vid INTEGER, trip TGEOMPOINT);
         INSERT INTO trips VALUES
           (1, '[Point(0 0)@2025-01-01 08:00:00, Point(1000 0)@2025-01-01 08:10:00]'::tgeompoint),
           (2, '[Point(1000 0)@2025-01-01 08:00:00, Point(0 0)@2025-01-01 08:10:00]'::tgeompoint);",
    )
    .unwrap();
    db
}

/// The contract: execution never panics (the backstop turning a panic
/// into `Internal` counts as a failure — it means a latent bug).
fn run_one(db: &Database, sql: &str) {
    match db.execute(sql) {
        Ok(_) => {}
        Err(e) => assert!(!e.is_internal(), "internal error (masked panic) on {sql:?}: {e}"),
    }
}

fn token_soup(rng: &mut StdRng) -> String {
    let n = rng.random_range(1..40usize);
    let mut out = String::new();
    for _ in 0..n {
        let piece = match rng.random_range(0..3u32) {
            0 => rng.choose(KEYWORDS).copied().unwrap_or("SELECT"),
            1 => rng.choose(SYMBOLS).copied().unwrap_or("("),
            _ => rng.choose(ATOMS).copied().unwrap_or("1"),
        };
        out.push_str(piece);
        if rng.random_bool(0.8) {
            out.push(' ');
        }
    }
    out
}

/// Structured generator: a plausible SELECT with random nesting close to
/// (and past) the parser's depth ceiling.
fn gen_select(rng: &mut StdRng, depth: usize) -> String {
    let expr = gen_expr(rng, depth);
    let mut s = format!("SELECT {expr}");
    if rng.random_bool(0.7) {
        s.push_str(if rng.random_bool(0.5) { " FROM t" } else { " FROM trips" });
        if rng.random_bool(0.5) {
            s.push_str(&format!(" WHERE {}", gen_expr(rng, depth)));
        }
    }
    if rng.random_bool(0.2) {
        s.push_str(" LIMIT 5");
    }
    s
}

fn gen_expr(rng: &mut StdRng, depth: usize) -> String {
    if depth == 0 || rng.random_bool(0.3) {
        return rng.choose(ATOMS).copied().unwrap_or("1").to_string();
    }
    match rng.random_range(0..6u32) {
        0 => format!("({})", gen_expr(rng, depth - 1)),
        1 => format!("-{}", gen_expr(rng, depth - 1)),
        2 => format!("NOT {}", gen_expr(rng, depth - 1)),
        3 => format!(
            "{} {} {}",
            gen_expr(rng, depth - 1),
            rng.choose(&["+", "-", "*", "/", "%", "=", "<", "&&", "<->"]).unwrap_or(&"+"),
            gen_expr(rng, depth - 1)
        ),
        4 => format!("{}::{}", gen_expr(rng, depth - 1), rng.choose(&["integer", "stbox", "tstzspan", "varchar"]).unwrap_or(&"integer")),
        _ => format!("CASE WHEN {} THEN 1 ELSE 0 END", gen_expr(rng, depth - 1)),
    }
}

#[test]
fn fuzz_sql_never_panics() {
    let db = fresh_db();
    let replayed = fuzz::replay_corpus("sql", |data| {
        let sql = String::from_utf8_lossy(data).into_owned();
        fuzz::check_no_panic("sql", "replay", data, || run_one(&db, &sql));
    });
    println!("replayed {replayed} corpus inputs");

    let mut rng = StdRng::seed_from_u64(0x000F_0220_5E11);
    for i in 0..CASES {
        let sql = match rng.random_range(0..4u32) {
            0 => {
                let seed = rng.choose(SEEDS).copied().unwrap_or("SELECT 1");
                let bytes = fuzz::mutate(&mut rng, seed.as_bytes());
                String::from_utf8_lossy(&bytes).into_owned()
            }
            1 => token_soup(&mut rng),
            2 => {
                let d = rng.random_range(1..8usize);
                gen_select(&mut rng, d)
            }
            // Stress the nesting limit from both sides.
            _ => {
                let d = rng.random_range(1..100usize);
                format!("SELECT {}1{}", "(".repeat(d), ")".repeat(d))
            }
        };
        let label = format!("sql-{i}");
        fuzz::check_no_panic("sql", &label, sql.as_bytes(), || run_one(&db, &sql));
    }
}

#[test]
fn fuzz_sql_scripts_never_panic() {
    let db = fresh_db();
    let mut rng = StdRng::seed_from_u64(0x005C_2197);
    for i in 0..200 {
        let k = rng.random_range(1..4usize);
        let mut script = String::new();
        for _ in 0..k {
            script.push_str(rng.choose(SEEDS).copied().unwrap_or("SELECT 1"));
            script.push(';');
        }
        let bytes = fuzz::mutate(&mut rng, script.as_bytes());
        let script = String::from_utf8_lossy(&bytes).into_owned();
        let label = format!("script-{i}");
        fuzz::check_no_panic("sql", &label, script.as_bytes(), || {
            match db.execute_script(&script) {
                Ok(_) => {}
                Err(e) => {
                    assert!(!e.is_internal(), "internal error on script {script:?}: {e}")
                }
            }
        });
    }
}
