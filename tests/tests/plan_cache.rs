//! The statement cache (DESIGN.md "Statement cache"): a SELECT whose
//! shape was cached runs an instantiated template, and must return what
//! the statement returns uncached (`execute_statement` of its parsed text,
//! which binds and plans it afresh) and what the row engine returns. A
//! shape is cached on its second sighting.
//!
//! - BerlinMOD Q1–Q17, the use-case queries and the three `point_serving`
//!   shapes, each with two sets of literals.
//! - A literal's kind (int, float, string, NULL), a LIMIT and an ORDER BY
//!   ordinal changing; a typed literal or a fold that fails on a hit.
//! - A CREATE INDEX, a DROP and re-CREATE with other column types, and a
//!   load that flips a join order, after a template was cached.
//! - `prepare` with `$n` placeholders.
//! - Shapes seen once are not cached and evict no template.
//! - Four threads mixing hits with DDL see no stale plan.

use std::sync::Barrier;

use berlinmod::{benchmark_queries, usecase_queries, BerlinModData, RoadNetwork, ScaleFactor};
use mduck_rowdb::RowDatabase;
use mduck_sql::{parse_statement, SqlResult, Value};
use quackdb::{Database, QueryResult};

/// A result exactly: rows with floats to the bit, or the error's text.
fn exact(r: &SqlResult<QueryResult>) -> String {
    match r {
        Ok(r) => format!("{:?} {:?}", r.schema, r.rows),
        Err(e) => format!("error: {e}"),
    }
}

/// `sql` bound and planned afresh, no template involved.
fn uncached(db: &Database, sql: &str) -> SqlResult<QueryResult> {
    db.execute_statement(&parse_statement(sql)?)
}

/// Run `sql` through the cache and check it against the uncached run;
/// whether it hit.
fn check(db: &Database, sql: &str) -> bool {
    let before = db.statement_cache();
    let got = db.execute(sql);
    let hit = db.statement_cache().hits > before.hits;
    assert_eq!(exact(&got), exact(&uncached(db, sql)), "hit={hit}\n{sql}");
    hit
}

/// Rows as sorted text, floats to 9 significant digits: the engines may
/// sum a group's floats in another order.
fn canonical(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Float(f) => format!("{f:.8e}"),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

/// `sql` with other literals of the same kinds: each decimal number
/// grown by half and the two vehicle types swapped. Integers stay (they
/// may be LIMITs or ordinals, which the cache keys on).
fn other_literals(sql: &str) -> String {
    let swapped = sql.replace("'passenger'", "'\u{1}'").replace("'truck'", "'passenger'");
    let swapped = swapped.replace("'\u{1}'", "'truck'");
    let chars: Vec<char> = swapped.chars().collect();
    let (mut out, mut i, mut quoted) = (String::new(), 0, false);
    while i < chars.len() {
        quoted ^= chars[i] == '\'';
        let word = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
        if chars[i].is_ascii_digit() && !word && !quoted {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            match text.contains('.').then(|| text.parse::<f64>().ok()).flatten() {
                Some(v) => out.push_str(&format!("{:?}", v * 1.5)),
                None => out.push_str(&text),
            }
            continue;
        }
        out.push(chars[i]);
        i += 1;
    }
    out
}

fn berlinmod(seed: u64) -> (BerlinModData, Database, RowDatabase) {
    let net = RoadNetwork::generate(seed);
    let data = BerlinModData::generate(&net, ScaleFactor(0.001), seed);
    let vdb = Database::new();
    mobilityduck::load(&vdb);
    data.load_into_quack(&vdb).unwrap();
    let rdb = RowDatabase::new();
    mobilityduck::load_row(&rdb);
    data.load_into_row(&rdb, false).unwrap();
    (data, vdb, rdb)
}

/// The three `point_serving` statements around the `i`-th instant of the
/// `k`-th trip.
fn serving_statements(data: &BerlinModData, k: usize, i: usize) -> [String; 3] {
    let trip = &data.trips[k % data.trips.len()];
    let instants = trip.trip.temp.instants();
    let at = instants[i % instants.len()];
    let (x, y, t) = (at.value.x, at.value.y, at.t);
    let (x0, y0, x1, y1) = (x - 200.0, y - 200.0, x + 200.0, y + 200.0);
    let srid = berlinmod::NETWORK_SRID;
    let half = 30 * 60 * 1_000_000;
    let (t0, t1) = (mduck_temporal::TimestampTz(t.0 - half), mduck_temporal::TimestampTz(t.0 + half));
    [
        format!(
            "SELECT tripid, vehicleid FROM trips \
             WHERE trip && STBOX('SRID={srid};STBOX X(({x0},{y0}),({x1},{y1}))')"
        ),
        format!(
            "SELECT tripid, valueAtTimestamp(trip, timestamptz '{t}') FROM trips \
             WHERE trip && STBOX('SRID={srid};STBOX XT((({x0},{y0}),({x1},{y1})),[{t0}, {t1}])')"
        ),
        format!(
            "SELECT tripid, valueAtTimestamp(trip, timestamptz '{t}') FROM trips \
             WHERE vehicleid = {v} AND trip::tstzspan @> timestamptz '{t}'",
            v = trip.vehicle_id
        ),
    ]
}

#[test]
fn berlinmod_and_serving_shapes_match_uncached_and_the_row_engine() {
    let (data, vdb, rdb) = berlinmod(42);
    vdb.execute("CREATE INDEX trips_trip_trtree ON trips USING TRTREE(trip)").unwrap();
    let queries = benchmark_queries().into_iter().map(|(id, _, sql)| (format!("Q{id}"), sql.to_string()));
    let usecases = usecase_queries().into_iter().map(|(name, sql)| (name.to_string(), sql.to_string()));
    let mut statements: Vec<(String, String, String)> = queries
        .chain(usecases)
        .map(|(name, sql)| {
            let other = other_literals(&sql);
            (name, sql, other)
        })
        .collect();
    for (k, (a, b)) in [(3, 5), (11, 2)].into_iter().enumerate() {
        let (first, second) = (serving_statements(&data, a, b), serving_statements(&data, a + 7, b + 9));
        for (shape, (s1, s2)) in first.into_iter().zip(second).enumerate() {
            statements.push((format!("serving{k}.{shape}"), s1, s2));
        }
    }
    for (name, sql, other) in &statements {
        // Seen twice, a shape is cached.
        check(&vdb, sql);
        check(&vdb, sql);
        for s in [sql, other] {
            assert!(check(&vdb, s), "{name}: a repeat of a cached shape misses\n{s}");
            let got = vdb.execute(s).unwrap_or_else(|e| panic!("{name}: {e}\n{s}"));
            let want = rdb.execute(s).unwrap_or_else(|e| panic!("{name} (rowdb): {e}\n{s}"));
            assert_eq!(canonical(&got.rows), canonical(&want.rows), "{name}\n{s}");
        }
    }
    // One template per shape: the serving shapes of both positions share.
    let stats = vdb.statement_cache();
    assert_eq!(stats.templates, 17 + usecase_queries().len() + 3, "{stats:?}");
}

fn small_table() -> Database {
    let db = Database::new();
    mobilityduck::load(&db);
    db.execute("CREATE TABLE t(a INTEGER, b DOUBLE, c VARCHAR)").unwrap();
    let rows: Vec<String> =
        (0..40).map(|i| format!("({i}, {}.25, 'v{}')", i % 7, i % 5)).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
    db
}

#[test]
fn literal_kinds_limits_and_ordinals_match_uncached() {
    let db = small_table();
    // The same shape, other values: cached on the second sighting, then
    // hits.
    assert!(!check(&db, "SELECT a, b FROM t WHERE a > 3 AND c <> 'v1' ORDER BY a"));
    assert!(!check(&db, "SELECT a, b FROM t WHERE a > 7 AND c <> 'v3' ORDER BY a"));
    assert!(check(&db, "SELECT a, b FROM t WHERE a > 30 AND c <> 'v4' ORDER BY a"));
    // A negative literal is `-` and a literal: another shape.
    assert!(!check(&db, "SELECT a, b FROM t WHERE a > -2 AND c <> 'v0' ORDER BY a"));
    assert!(!check(&db, "SELECT a, b FROM t WHERE a > -1 AND c <> 'v3' ORDER BY a"));
    assert!(check(&db, "SELECT a, b FROM t WHERE a > -5 AND c <> 'v2' ORDER BY a"));
    // Another kind is another shape.
    for _ in 0..2 {
        for sql in [
            "SELECT a + 1 FROM t ORDER BY a",
            "SELECT a + 1.5 FROM t ORDER BY a",
            "SELECT a + '1' FROM t ORDER BY a",
            "SELECT a + NULL FROM t ORDER BY a",
            "SELECT a + 2 FROM t ORDER BY a",
            "SELECT a + 2.5 FROM t ORDER BY a",
            "SELECT a + NULL FROM t ORDER BY a",
        ] {
            check(&db, sql);
        }
    }
    // LIMIT and OFFSET are structure.
    for n in [2, 5, 2, 0] {
        check(&db, &format!("SELECT a FROM t ORDER BY a LIMIT {n} OFFSET 3"));
        let r = db.execute(&format!("SELECT a FROM t ORDER BY a LIMIT {n} OFFSET 3")).unwrap();
        assert_eq!(r.rows.len(), n);
    }
    // So is an ORDER BY ordinal, and an expression matched against a
    // projection or a group key. The second pass meets templates cached
    // with the other values.
    for _ in 0..2 {
        for sql in [
            "SELECT a, b FROM t ORDER BY 1, 2",
            "SELECT a, b FROM t ORDER BY 2, 1",
            "SELECT b, a FROM t ORDER BY 1 DESC, 2",
            "SELECT a + 1, b FROM t ORDER BY a + 1 DESC, b",
            "SELECT a + 1, b FROM t ORDER BY a + 2 DESC, b",
            "SELECT a % 3, count(*) FROM t GROUP BY a % 3 ORDER BY 1",
            "SELECT a % 4, count(*) FROM t GROUP BY a % 4 ORDER BY 1",
            "SELECT a % 4, count(*) FROM t GROUP BY a % 3 ORDER BY 1",
            "SELECT a % 3 + 1, count(*) FROM t GROUP BY a % 3 ORDER BY 1",
        ] {
            check(&db, sql);
        }
    }
    let r = db.execute("SELECT a, b FROM t ORDER BY 2, 1").unwrap();
    assert_eq!(r.rows[0], vec![Value::Int(0), Value::Float(0.25)]);
    let r = db.execute("SELECT a, b FROM t ORDER BY 1 DESC").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(39));
}

#[test]
fn failing_typed_literals_and_folds_fail_as_uncached() {
    let db = small_table();
    // A typed literal that parses in the template and not on the hit.
    let ok = "SELECT a FROM t WHERE timestamptz '2020-01-01 10:00:00+00' IS NOT NULL ORDER BY a";
    let bad = "SELECT a FROM t WHERE timestamptz 'garbage' IS NOT NULL ORDER BY a";
    assert!(!check(&db, ok));
    assert!(!check(&db, ok));
    assert!(!check(&db, bad), "a failing fold reused the template");
    assert!(db.execute(bad).is_err());
    assert!(check(&db, ok));
    // A pure-literal call that folds in the template and fails on the
    // hit: left to fail where it runs, on rows or not at all.
    let ok = "SELECT a FROM t WHERE ST_Intersects(ST_Point(a, 1.0), ST_GeomFromText('POINT(1 1)')) ORDER BY a";
    let bad = "SELECT a FROM t WHERE ST_Intersects(ST_Point(a, 1.0), ST_GeomFromText('POINT(1 1')) ORDER BY a";
    check(&db, ok);
    check(&db, ok);
    assert!(!check(&db, bad), "a failing fold reused the template");
    assert!(db.execute(bad).is_err());
    let empty = "SELECT a FROM t WHERE a < 0 AND ST_Intersects(ST_Point(a, 1.0), ST_GeomFromText('POINT(1 1')) ORDER BY a";
    check(&db, empty);
    check(&db, empty);
    assert!(check(&db, &empty.replace("POINT(1 1')", "POINT(2 2')")));
    // And back: the failed fold's template is not reused by a good one.
    assert!(!check(&db, ok.replace("POINT(1 1)", "POINT(3 1)").as_str()));
    // Casts of literals fold the same way.
    check(&db, "SELECT a FROM t WHERE a < '5'::INTEGER ORDER BY a");
    check(&db, "SELECT a FROM t WHERE a < '6'::INTEGER ORDER BY a");
    assert!(!check(&db, "SELECT a FROM t WHERE a < 'x'::INTEGER ORDER BY a"));
}

#[test]
fn ddl_after_caching_is_seen() {
    let (_, vdb, _) = berlinmod(7);
    let window = |x: f64| {
        let (srid, y) = (berlinmod::NETWORK_SRID, x + 2000.0);
        format!(
            "SELECT tripid FROM trips WHERE trip && STBOX('SRID={srid};STBOX X(({x},{x}),({y},{y}))') \
             ORDER BY tripid"
        )
    };
    let explain = |x: f64| vdb.execute(&format!("EXPLAIN {}", window(x))).unwrap().rows[0][0].to_string();
    check(&vdb, &window(0.0));
    for x in [0.0, 50.0] {
        assert!(explain(x).contains("SEQ_SCAN"), "{}", explain(x));
    }
    vdb.execute("CREATE INDEX trips_trip_trtree ON trips USING TRTREE(trip)").unwrap();
    let p = explain(100.0);
    assert!(p.contains("TRTREE_INDEX_SCAN"), "a cached plan ignored the new index:\n{p}");
    assert_eq!(p, uncached(&vdb, &format!("EXPLAIN {}", window(100.0))).unwrap().rows[0][0].to_string());
    check(&vdb, &window(100.0));

    // A table dropped and created again with other column types.
    let db = small_table();
    let sql = |k: i64| format!("SELECT a + {k}, c FROM t ORDER BY 1, 2");
    check(&db, &sql(1));
    assert!(!check(&db, &sql(2)));
    assert!(check(&db, &sql(5)));
    db.execute("DROP TABLE t").unwrap();
    db.execute("CREATE TABLE t(c INTEGER, a VARCHAR)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
    check(&db, &sql(3));
    assert!(db.execute(&sql(3)).is_err(), "VARCHAR + INTEGER binds");
    db.execute("DROP TABLE t").unwrap();
    db.execute("CREATE TABLE t(a DOUBLE, c INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1.5, 1), (2.5, 2)").unwrap();
    check(&db, &sql(4));
    let r = db.execute(&sql(4)).unwrap();
    assert_eq!(r.rows[0], vec![Value::Float(5.5), Value::Int(1)]);
}

#[test]
fn a_load_that_flips_a_join_order_replans() {
    let db = Database::new();
    for sql in [
        "CREATE TABLE big(id INTEGER, k INTEGER)",
        "CREATE TABLE mid(id INTEGER, k INTEGER)",
        "CREATE TABLE tiny(id INTEGER, k INTEGER)",
        "INSERT INTO big SELECT i, i % 50 FROM generate_series(1, 400) AS t(i)",
        "INSERT INTO mid SELECT i, i % 7 FROM generate_series(1, 60) AS t(i)",
        "INSERT INTO tiny SELECT i, i FROM generate_series(1, 3) AS t(i)",
    ] {
        db.execute(sql).unwrap();
    }
    let sql = |n: i64| {
        format!(
            "SELECT b.id, m.id FROM big b, mid m, tiny t \
             WHERE b.k = t.k AND m.k = t.id AND b.id < m.id + {n} ORDER BY 1, 2"
        )
    };
    let explain = |n: i64| db.execute(&format!("EXPLAIN {}", sql(n))).unwrap().rows[0][0].to_string();
    let before = explain(0);
    assert!(!check(&db, &format!("EXPLAIN {}", sql(1))));
    assert!(check(&db, &format!("EXPLAIN {}", sql(4))));
    check(&db, &sql(0));
    assert!(!check(&db, &sql(1)));
    assert!(check(&db, &sql(4)));
    // mid grows past big: joining it to tiny first is no longer cheapest.
    db.execute("INSERT INTO mid SELECT i, i % 7 FROM generate_series(61, 3000) AS t(i)").unwrap();
    let after = explain(2);
    assert_ne!(before, after, "the order did not flip");
    assert_eq!(after, uncached(&db, &format!("EXPLAIN {}", sql(2))).unwrap().rows[0][0].to_string());
    assert!(!check(&db, &sql(2)), "a template planned on a table since grown 50x was reused");
    assert!(check(&db, &sql(3)));
    // EXPLAIN ANALYZE shows the estimates: any change of count replans.
    let analyze = |n: i64| format!("EXPLAIN ANALYZE {}", sql(n));
    db.execute(&analyze(1)).unwrap();
    db.execute(&analyze(1)).unwrap();
    let before = db.statement_cache();
    db.execute(&analyze(1)).unwrap();
    assert_eq!(db.statement_cache().hits, before.hits + 1);
    db.execute("INSERT INTO tiny VALUES (1, 1)").unwrap();
    let before = db.statement_cache();
    let text = db.execute(&analyze(1)).unwrap().rows[0][0].to_string();
    assert_eq!(db.statement_cache().misses, before.misses + 1, "{text}");
}

#[test]
fn prepared_statements_bind_placeholders() {
    let db = small_table();
    let by_a = db.prepare("SELECT a, c FROM t WHERE a >= $1 AND c <> $2 ORDER BY a LIMIT $3").unwrap();
    assert_eq!(by_a.param_count(), 3);
    for (lo, c, n) in [(3, "v1", 4), (10, "v2", 4), (-1, "v0", 2)] {
        let got = by_a.execute(&[Value::Int(lo), Value::text(c), Value::Int(n)]);
        let written = format!("SELECT a, c FROM t WHERE a >= {lo} AND c <> '{c}' ORDER BY a LIMIT {n}");
        assert_eq!(exact(&got), exact(&uncached(&db, &written)), "{written}");
    }
    // Other value types are another template.
    let before = db.statement_cache();
    let got = by_a.execute(&[Value::Float(2.5), Value::text("v3"), Value::Int(3)]).unwrap();
    assert_eq!(db.statement_cache().misses, before.misses + 1);
    let written = "SELECT a, c FROM t WHERE a >= 2.5 AND c <> 'v3' ORDER BY a LIMIT 3";
    assert_eq!(format!("{:?}", got.rows), format!("{:?}", uncached(&db, written).unwrap().rows));
    // A NULL binds as a NULL constant.
    let got = by_a.execute(&[Value::Null, Value::text("v3"), Value::Int(3)]).unwrap();
    assert!(got.rows.is_empty());
    // Literals and placeholders mix; `$n` is refused outside `prepare`.
    let q = db.prepare("SELECT a * 2 + $1 FROM t WHERE a < 3 ORDER BY 1").unwrap();
    let r = q.execute(&[Value::Int(100)]).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(100)], vec![Value::Int(102)], vec![Value::Int(104)]]);
    assert!(q.execute(&[]).is_err(), "missing parameter");
    assert!(db.execute("SELECT a FROM t WHERE a = $1").is_err());
    assert!(db.prepare("INSERT INTO t VALUES ($1, 1.0, 'x')").is_err());
}

#[test]
fn threads_mixing_hits_with_ddl_see_no_stale_plan() {
    const THREADS: usize = 4;
    let db = Database::new();
    let barrier = Barrier::new(THREADS);
    let sql = |k: usize| format!("SELECT a + {k}, b FROM t WHERE b <> 'x{k}' ORDER BY 1, 2");
    std::thread::scope(|s| {
        for thread in 0..THREADS {
            let (db, barrier) = (&db, &barrier);
            s.spawn(move || {
                for round in 0..12 {
                    if thread == 0 {
                        // Between phases: t flips between column types
                        // under which the statement binds differently.
                        let _ = db.execute("DROP TABLE IF EXISTS t");
                        let ty = ["INTEGER", "DOUBLE", "VARCHAR"][round % 3];
                        db.execute(&format!("CREATE TABLE t(a {ty}, b VARCHAR)")).unwrap();
                        let v = |i: usize| match ty {
                            "VARCHAR" => format!("'{i}'"),
                            _ => format!("{i}"),
                        };
                        let rows: Vec<String> =
                            (0..20).map(|i| format!("({}, 'x{}')", v(i + round), i % 4)).collect();
                        db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
                    }
                    barrier.wait();
                    for i in 0..40 {
                        let k = (i * 7 + thread) % 5;
                        // Within a phase other tables come and go: the
                        // epoch moves while statements hit.
                        if thread == THREADS - 1 && i % 8 == 0 {
                            let _ = db.execute(&format!("CREATE TABLE u{i}(x INTEGER)"));
                            let _ = db.execute(&format!("DROP TABLE u{i}"));
                        }
                        let got = db.execute(&sql(k));
                        assert_eq!(exact(&got), exact(&uncached(db, &sql(k))), "round {round}");
                    }
                    barrier.wait();
                }
            });
        }
    });
    assert!(db.statement_cache().hits > 0);
}

#[test]
fn shapes_seen_once_are_not_cached_and_evict_nothing() {
    let db = small_table();
    let hot = |k: i64| format!("SELECT a, c FROM t WHERE a > {k} ORDER BY a");
    check(&db, &hot(1));
    assert_eq!(db.statement_cache().templates, 0, "a shape seen once was cached");
    check(&db, &hot(2));
    assert_eq!(db.statement_cache().templates, 1);
    // More one-off shapes than the cache holds templates: each runs as
    // uncached and keeps none, so the hot shape stays cached.
    for i in 0..300 {
        assert!(!check(&db, &format!("SELECT a AS a{i} FROM t WHERE a > {i} ORDER BY a")));
    }
    assert_eq!(db.statement_cache().templates, 1);
    assert!(check(&db, &hot(3)));
}
