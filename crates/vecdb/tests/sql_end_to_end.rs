//! End-to-end SQL tests for the quackdb engine.

use quackdb::Database;

fn db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE people(id INTEGER, name VARCHAR, age INTEGER, city VARCHAR)")
        .unwrap();
    db.execute(
        "INSERT INTO people VALUES \
         (1, 'ann', 34, 'hanoi'), (2, 'bob', 28, 'hue'), (3, 'cat', 41, 'hanoi'), \
         (4, 'dan', 28, 'danang'), (5, 'eve', 55, 'hanoi')",
    )
    .unwrap();
    db
}

#[test]
fn select_filter_order() {
    let db = db();
    let r = db
        .execute("SELECT name FROM people WHERE city = 'hanoi' AND age > 30 ORDER BY age DESC")
        .unwrap();
    let names: Vec<String> = r.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["eve", "cat", "ann"]);
}

#[test]
fn aggregates_and_group_by() {
    let db = db();
    let r = db
        .execute(
            "SELECT city, count(*) AS n, avg(age) AS mean \
             FROM people GROUP BY city ORDER BY n DESC, city",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0][0].to_string(), "hanoi");
    assert_eq!(r.rows[0][1].to_string(), "3");
    let mean: f64 = match r.rows[0][2] {
        mduck_sql::Value::Float(f) => f,
        _ => panic!(),
    };
    assert!((mean - (34.0 + 41.0 + 55.0) / 3.0).abs() < 1e-9);
}

#[test]
fn global_aggregate_without_group() {
    let db = db();
    let r = db.execute("SELECT count(*), min(age), max(age), sum(age) FROM people").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "5");
    assert_eq!(r.rows[0][1].to_string(), "28");
    assert_eq!(r.rows[0][2].to_string(), "55");
    assert_eq!(r.rows[0][3].to_string(), "186");
}

#[test]
fn joins_hash_and_cross() {
    let db = db();
    db.execute("CREATE TABLE cities(name VARCHAR, region VARCHAR)").unwrap();
    db.execute("INSERT INTO cities VALUES ('hanoi', 'north'), ('hue', 'central')").unwrap();
    let r = db
        .execute(
            "SELECT p.name, c.region FROM people p, cities c \
             WHERE p.city = c.name ORDER BY p.id",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 4);
    assert_eq!(r.rows[0][1].to_string(), "north");
    // Cross join counts.
    let r = db.execute("SELECT count(*) FROM people, cities").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "10");
}

#[test]
fn distinct_limit_offset() {
    let db = db();
    let r = db.execute("SELECT DISTINCT age FROM people ORDER BY age").unwrap();
    assert_eq!(r.rows.len(), 4);
    let r = db.execute("SELECT id FROM people ORDER BY id LIMIT 2 OFFSET 1").unwrap();
    let ids: Vec<String> = r.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(ids, vec!["2", "3"]);
}

#[test]
fn ctes_and_subqueries() {
    let db = db();
    let r = db
        .execute(
            "WITH olds AS (SELECT * FROM people WHERE age > 30) \
             SELECT count(*) FROM olds",
        )
        .unwrap();
    assert_eq!(r.rows[0][0].to_string(), "3");
    // CTE with column aliases referenced twice.
    let r = db
        .execute(
            "WITH t(n, a) AS (SELECT name, age FROM people) \
             SELECT t1.n FROM t t1, t t2 WHERE t1.a = t2.a AND t1.n <> t2.n ORDER BY t1.n",
        )
        .unwrap();
    let names: Vec<String> = r.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["bob", "dan"]);
    // Scalar subquery.
    let r = db
        .execute("SELECT name FROM people WHERE age = (SELECT max(age) FROM people)")
        .unwrap();
    assert_eq!(r.rows[0][0].to_string(), "eve");
}

#[test]
fn correlated_all_subquery() {
    // Q7's shape: keep rows whose value <= ALL values in their group.
    let db = db();
    let r = db
        .execute(
            "SELECT p1.name FROM people p1 WHERE p1.age <= ALL \
             (SELECT p2.age FROM people p2 WHERE p1.city = p2.city) ORDER BY p1.name",
        )
        .unwrap();
    let names: Vec<String> = r.rows.iter().map(|r| r[0].to_string()).collect();
    // ann is youngest in hanoi, bob in hue, dan in danang.
    assert_eq!(names, vec!["ann", "bob", "dan"]);
}

#[test]
fn exists_and_in() {
    let db = db();
    let r = db
        .execute(
            "SELECT name FROM people p WHERE EXISTS \
             (SELECT 1 FROM people q WHERE q.city = p.city AND q.id <> p.id) ORDER BY name",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3); // the three hanoi residents
    let r = db
        .execute("SELECT count(*) FROM people WHERE city IN ('hue', 'danang')")
        .unwrap();
    assert_eq!(r.rows[0][0].to_string(), "2");
    let r = db
        .execute("SELECT count(*) FROM people WHERE id IN (SELECT id FROM people WHERE age = 28)")
        .unwrap();
    assert_eq!(r.rows[0][0].to_string(), "2");
}

#[test]
fn generate_series_and_expressions() {
    let db = Database::new();
    let r = db
        .execute("SELECT sum(i) FROM generate_series(1, 1000) AS t(i)")
        .unwrap();
    assert_eq!(r.rows[0][0].to_string(), "500500");
    let r = db.execute("SELECT 2 + 3 * 4, 'a' || 'b', 10 / 4, 10.0 / 4").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "14");
    assert_eq!(r.rows[0][1].to_string(), "ab");
    assert_eq!(r.rows[0][2].to_string(), "2");
    assert_eq!(r.rows[0][3].to_string(), "2.5");
}

#[test]
fn timestamps_and_intervals() {
    let db = Database::new();
    db.execute("CREATE TABLE e(at TIMESTAMPTZ)").unwrap();
    db.execute(
        "INSERT INTO e SELECT ('2025-08-11 12:00:00'::timestamp + INTERVAL (i || ' minutes')) \
         FROM generate_series(1, 3) AS t(i)",
    )
    .unwrap();
    let r = db.execute("SELECT min(at), max(at) FROM e").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "2025-08-11 12:01:00+00");
    assert_eq!(r.rows[0][1].to_string(), "2025-08-11 12:03:00+00");
    let r = db
        .execute("SELECT count(*) FROM e WHERE at > timestamptz '2025-08-11 12:01:30'")
        .unwrap();
    assert_eq!(r.rows[0][0].to_string(), "2");
}

#[test]
fn update_and_delete() {
    let db = db();
    db.execute("UPDATE people SET age = age + 1 WHERE city = 'hanoi'").unwrap();
    let r = db.execute("SELECT sum(age) FROM people WHERE city = 'hanoi'").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "133");
    let r = db.execute("DELETE FROM people WHERE city = 'hue'").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "1");
    let r = db.execute("SELECT count(*) FROM people").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "4");
}

#[test]
fn insert_with_column_list_and_nulls() {
    let db = Database::new();
    db.execute("CREATE TABLE t(a INTEGER, b VARCHAR, c DOUBLE)").unwrap();
    db.execute("INSERT INTO t (b, a) VALUES ('x', 1)").unwrap();
    let r = db.execute("SELECT a, b, c FROM t").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "1");
    assert_eq!(r.rows[0][1].to_string(), "x");
    assert!(r.rows[0][2].is_null());
    let r = db.execute("SELECT count(*) FROM t WHERE c IS NULL").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "1");
    let r = db.execute("SELECT count(c) FROM t").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "0");
}

#[test]
fn case_expression_and_in_list() {
    let db = db();
    let r = db
        .execute(
            "SELECT name, CASE WHEN age < 30 THEN 'young' ELSE 'old' END AS bucket \
             FROM people ORDER BY id LIMIT 2",
        )
        .unwrap();
    assert_eq!(r.rows[0][1].to_string(), "old");
    assert_eq!(r.rows[1][1].to_string(), "young");
}

#[test]
fn explain_renders_tree() {
    let db = db();
    let r = db.execute("EXPLAIN SELECT name FROM people WHERE age > 30").unwrap();
    let text = r.rows[0][0].to_string();
    assert!(text.contains("PROJECTION"), "{text}");
    assert!(text.contains("SEQ_SCAN"), "{text}");
    // The WHERE predicate is fused into the scan box.
    assert!(text.contains("Filters:"), "{text}");
    assert!(!text.contains("FILTER"), "{text}");
}

#[test]
fn errors_are_reported() {
    let db = db();
    assert!(db.execute("SELECT nope FROM people").is_err());
    assert!(db.execute("SELECT * FROM missing").is_err());
    assert!(db.execute("SELEC 1").is_err());
    assert!(db.execute("CREATE TABLE people(a INTEGER)").is_err());
    assert!(db.execute("SELECT age, name FROM people GROUP BY age").is_err());
}

#[test]
fn having_clause() {
    let db = db();
    let r = db
        .execute(
            "SELECT city, count(*) AS n FROM people GROUP BY city HAVING count(*) > 1 ORDER BY city",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0].to_string(), "hanoi");
}

#[test]
fn order_by_expression_and_position() {
    let db = db();
    let r = db.execute("SELECT name, age FROM people ORDER BY 2 DESC LIMIT 1").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "eve");
    let r = db.execute("SELECT name FROM people ORDER BY age * -1 LIMIT 1").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "eve");
}

#[test]
fn show_tables_and_describe() {
    let db = db();
    let r = db.execute("SHOW TABLES").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0].to_string(), "people");
    let r = db.execute("DESCRIBE people").unwrap();
    assert_eq!(r.rows.len(), 4);
    assert_eq!(r.rows[0][0].to_string(), "id");
    assert_eq!(r.rows[0][1].to_string(), "BIGINT");
    assert!(db.execute("DESCRIBE missing").is_err());
}
