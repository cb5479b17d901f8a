//! Planner/optimizer behaviour tests: filter pushdown, hash-join
//! extraction, and EXPLAIN-visible plan shapes.

use quackdb::Database;

fn db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE a(id INTEGER, x INTEGER)").unwrap();
    db.execute("CREATE TABLE b(id INTEGER, y INTEGER)").unwrap();
    db.execute("INSERT INTO a SELECT i, i * 2 FROM generate_series(1, 100) AS t(i)").unwrap();
    db.execute("INSERT INTO b SELECT i, i * 3 FROM generate_series(1, 100) AS t(i)").unwrap();
    db
}

fn plan(db: &Database, sql: &str) -> String {
    db.execute(&format!("EXPLAIN {sql}")).unwrap().rows[0][0].to_string()
}

#[test]
fn equality_conjuncts_become_hash_joins() {
    let db = db();
    let p = plan(&db, "SELECT count(*) FROM a, b WHERE a.id = b.id");
    assert!(p.contains("HASH_JOIN"), "{p}");
    assert!(!p.contains("CROSS_PRODUCT"), "{p}");
    let r = db.execute("SELECT count(*) FROM a, b WHERE a.id = b.id").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "100");
}

#[test]
fn no_key_means_cross_product() {
    let db = db();
    let p = plan(&db, "SELECT count(*) FROM a, b WHERE a.x < b.y");
    assert!(p.contains("CROSS_PRODUCT"), "{p}");
}

#[test]
fn single_table_predicates_are_pushed_below_joins() {
    let db = db();
    let p = plan(&db, "SELECT count(*) FROM a, b WHERE a.id = b.id AND a.x > 100 AND b.y > 100");
    // Both pushed filters are fused into the scans below the join (the
    // join box comes first in the rendering); no FILTER box remains.
    let join_pos = p.find("HASH_JOIN").expect("hash join in plan");
    let first_filter = p.find("Filters:").expect("fused filters in plan");
    assert!(first_filter > join_pos, "filters should render below the join\n{p}");
    assert_eq!(p.matches("Filters:").count(), 2, "{p}");
    assert!(!p.contains("FILTER"), "{p}");
    let r = db
        .execute("SELECT count(*) FROM a, b WHERE a.id = b.id AND a.x > 100 AND b.y > 100")
        .unwrap();
    assert_eq!(r.rows[0][0].to_string(), "50"); // ids 51..100
}

#[test]
fn join_keys_can_be_expressions() {
    let db = db();
    let r = db
        .execute("SELECT count(*) FROM a, b WHERE a.x = b.y") // 2i = 3j
        .unwrap();
    // x = 2i ∈ [2,200], y = 3j ∈ [3,300]; matches at multiples of 6 → 33.
    assert_eq!(r.rows[0][0].to_string(), "33");
}

#[test]
fn three_way_join_order_follows_from_clause() {
    let db = db();
    db.execute("CREATE TABLE c(id INTEGER, z INTEGER)").unwrap();
    db.execute("INSERT INTO c SELECT i, i FROM generate_series(1, 10) AS t(i)").unwrap();
    let sql = "SELECT count(*) FROM a, b, c WHERE a.id = b.id AND b.id = c.id";
    let p = plan(&db, sql);
    assert_eq!(p.matches("HASH_JOIN").count(), 2, "{p}");
    let r = db.execute(sql).unwrap();
    assert_eq!(r.rows[0][0].to_string(), "10");
}

#[test]
fn limit_distinct_order_render() {
    let db = db();
    let p = plan(&db, "SELECT DISTINCT x FROM a ORDER BY x DESC LIMIT 5");
    assert!(p.contains("LIMIT"), "{p}");
    assert!(p.contains("ORDER_BY"), "{p}");
    assert!(p.contains("DISTINCT"), "{p}");
    assert!(p.contains("PROJECTION"), "{p}");
}

#[test]
fn aggregation_renders_group_by_node() {
    let db = db();
    let p = plan(&db, "SELECT x % 3, count(*) FROM a GROUP BY x % 3");
    assert!(p.contains("HASH_GROUP_BY"), "{p}");
}

#[test]
fn rows_scanned_reflects_pushdown() {
    // Filter pushdown must not change results even with chained filters.
    let db = db();
    for sql in [
        "SELECT count(*) FROM a WHERE x > 50 AND x < 150 AND id <> 40",
        "SELECT count(*) FROM a, b WHERE a.id = b.id AND a.x + b.y > 10",
    ] {
        let r1 = db.execute(sql).unwrap();
        // Same query through a subquery wrapper (defeats pushdown shape).
        let wrapped = format!("SELECT * FROM ({sql}) q");
        let r2 = db.execute(&wrapped).unwrap();
        assert_eq!(r1.rows, r2.rows, "{sql}");
    }
}

#[test]
fn fused_scan_keeps_conjuncts_in_written_order() {
    let db = db();
    let p = plan(&db, "SELECT id FROM a WHERE x > 10 AND id < 50 AND x <> 20");
    let pos = |needle: &str| p.find(needle).unwrap_or_else(|| panic!("{needle} missing\n{p}"));
    assert!(pos("SEQ_SCAN") < pos("Filters:"), "{p}");
    assert!(pos("(col#1 > lit(Int(10)))") < pos("(col#0 < lit(Int(50)))"), "{p}");
    assert!(pos("(col#0 < lit(Int(50)))") < pos("(col#1 <> lit(Int(20)))"), "{p}");
    let r = db.execute("SELECT count(*) FROM a WHERE x > 10 AND id < 50 AND x <> 20").unwrap();
    // x = 2i: i in 6..=49 except i = 10.
    assert_eq!(r.rows[0][0].to_string(), "43");
}

// ------------------------------------------------------------ join planning

/// The BerlinMOD schema (no rows: plan shapes do not depend on data) with
/// the MobilityDuck extension loaded.
fn berlinmod_db() -> Database {
    let db = Database::new();
    mobilityduck::load(&db);
    for stmt in berlinmod::BerlinModData::ddl().split(';') {
        if !stmt.trim().is_empty() {
            db.execute(stmt).unwrap();
        }
    }
    db
}

fn berlinmod_query(id: u32) -> &'static str {
    berlinmod::benchmark_queries()
        .into_iter()
        .find(|(q, _, _)| *q == id)
        .map(|(_, _, sql)| sql)
        .unwrap()
}

/// The title and first detail line of the box after each `──── right
/// side ────` divider: the right child of every CROSS_PRODUCT, in
/// rendering order.
fn cross_product_right_sides(plan: &str) -> Vec<String> {
    plan.split("──── right side ────")
        .skip(1)
        .map(|rest| {
            let boxes: Vec<&str> = rest
                .lines()
                .filter(|l| l.starts_with('│') && !l.contains('─'))
                .take(2)
                .map(|l| l.trim_matches(|c| c == '│' || c == ' '))
                .collect();
            boxes.join(" ")
        })
        .collect()
}

#[test]
fn q6_truck_pairs_index_join_without_cross_product() {
    let db = berlinmod_db();
    let p = plan(&db, berlinmod_query(6));
    // t1 ⋈ v1, then the run t2 ⋈ v2, joined through the `&&` conjunct.
    assert_eq!(p.matches("INDEX_JOIN").count(), 1, "{p}");
    assert!(p.contains("index: TRTREE"), "{p}");
    assert_eq!(p.matches("HASH_JOIN").count(), 2, "{p}");
    assert!(!p.contains("CROSS_PRODUCT"), "{p}");
}

#[test]
fn q10_and_q13_use_index_joins() {
    let db = berlinmod_db();
    // Q10's join lives in its CTE, rendered under its own header.
    let p = plan(&db, berlinmod_query(10));
    let cte = p.find("──── CTE temp ────").unwrap_or_else(|| panic!("no CTE section\n{p}"));
    let join = p.find("INDEX_JOIN").unwrap_or_else(|| panic!("no index join\n{p}"));
    assert!(cte < join, "{p}");
    assert!(!p.contains("CROSS_PRODUCT"), "{p}");
    // Q13: trips ⋈ vehicles probes the regions' boxes, then the periods'
    // spans (TRTREE indexes a tstzspan as a time-only box).
    let p = plan(&db, berlinmod_query(13));
    assert_eq!(p.matches("INDEX_JOIN").count(), 2, "{p}");
    assert!(p.contains("build: col#1"), "periods1.period indexed\n{p}");
    assert!(!p.contains("CROSS_PRODUCT"), "{p}");
}

#[test]
fn q16_keeps_one_trips_cross_product() {
    let db = berlinmod_db();
    let p = plan(&db, berlinmod_query(16));
    // With no rows every order costs nothing, and ties keep FROM order:
    // the license pairs (t1 ⋈ l1) × (t2 ⋈ l2) have no spatial link and
    // stay a cross product of the absorbed run; regions1 and periods1
    // are index-joined.
    assert_eq!(cross_product_right_sides(&p), vec!["HASH_JOIN col#0 = col#1"], "{p}");
    assert_eq!(p.matches("INDEX_JOIN").count(), 2, "{p}");
}

/// A small loaded BerlinMOD dataset: plans now follow its row counts.
fn loaded_berlinmod_db() -> Database {
    let net = berlinmod::RoadNetwork::generate(42);
    let data = berlinmod::BerlinModData::generate(&net, berlinmod::ScaleFactor(0.002), 42);
    let db = Database::new();
    mobilityduck::load(&db);
    data.load_into_quack(&db).unwrap();
    db
}

#[test]
fn q13_to_q16_join_without_cross_products_on_loaded_data() {
    let db = loaded_berlinmod_db();
    for id in [13, 15, 16] {
        let p = plan(&db, berlinmod_query(id));
        assert!(!p.contains("CROSS_PRODUCT"), "Q{id}\n{p}");
    }
    // Q3, Q11 and Q14 meet instants1 through `tstzspan @> timestamptz`,
    // an index-join link whose Filter stays above the join.
    for id in [3, 11, 14] {
        let p = plan(&db, berlinmod_query(id));
        assert!(!p.contains("CROSS_PRODUCT"), "Q{id}\n{p}");
        assert!(p.contains("link: @>("), "Q{id}\n{p}");
    }
    // Every index join names its link, and no `&&` Filter sits directly
    // above one: the join owns its `&&` link and the `&&` conjuncts
    // right after it (Q16's top join owns both of `t2`'s).
    for (id, _, sql) in berlinmod::benchmark_queries() {
        let p = plan(&db, sql);
        let lines: Vec<&str> = p.lines().map(|l| l.trim_matches(|c| c == '│' || c == ' ')).collect();
        // Each box's title and detail lines, top to bottom.
        let boxes: Vec<(&str, &[&str])> = (1..lines.len())
            .filter(|&i| lines[i - 1].starts_with('┌'))
            .map(|i| {
                let end = (i..lines.len()).find(|&j| lines[j].starts_with('└')).unwrap_or(i);
                (lines[i], &lines[(i + 2).min(end)..end])
            })
            .collect();
        for (k, (_, detail)) in boxes.iter().enumerate().filter(|(_, b)| b.0 == "INDEX_JOIN") {
            assert_eq!(detail[0], "index: TRTREE", "Q{id}\n{p}");
            let named = |l: &&str| l.starts_with("cond: &&(") || l.starts_with("link: @>(");
            assert!(detail.iter().any(named), "Q{id}: no link\n{p}");
            if let Some(("FILTER", above)) = k.checked_sub(1).map(|a| boxes[a]) {
                assert!(!above[0].starts_with("&&("), "Q{id}: `&&` Filter above\n{p}");
            }
        }
    }
    // Q16 meets each trip side with its regions and periods before the
    // sides meet: the top join reads a few hundred rows, where FROM order
    // paired every (t1 ⋈ l1) row with every (t2 ⋈ l2) row.
    let explain = db.execute_analyzed(berlinmod_query(16)).unwrap().explain;
    let top = ["HASH_JOIN", "INDEX_JOIN", "CROSS_PRODUCT"]
        .iter()
        .filter_map(|j| explain.find(j))
        .min()
        .expect("a join");
    let rows_in: u64 = explain[top..]
        .lines()
        .find_map(|l| l.split("rows:").nth(1))
        .and_then(|r| r.split('→').next())
        .and_then(|n| n.trim().parse().ok())
        .expect("actual rows");
    assert!(rows_in <= 300, "{explain}");
}

#[test]
fn select_star_over_absorbed_run_keeps_from_column_order() {
    let db = db();
    db.execute("CREATE TABLE c(id INTEGER, z INTEGER)").unwrap();
    db.execute("INSERT INTO c SELECT i, i * 5 FROM generate_series(1, 100) AS t(i)").unwrap();
    // `b` has no key into `a`; `c` is keyed to `b` only, so `b ⋈ c` is
    // hash-joined first and crossed with `a` as one run.
    let sql = "SELECT * FROM a, b, c WHERE a.x + 150 < b.y AND b.id = c.id";
    let p = plan(&db, sql);
    let cross = p.find("CROSS_PRODUCT").expect(&p);
    assert!(cross < p.find("HASH_JOIN").expect(&p), "{p}");
    let r = db.execute(sql).unwrap();
    let names: Vec<&str> = r.schema.fields.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["id", "x", "id", "y", "id", "z"]);
    // The same rows, in the same order, as the one-relation-at-a-time
    // plan (a key that is not a plain column is never absorbed).
    let reference = db
        .execute("SELECT * FROM a, b, c WHERE a.x + 150 < b.y AND b.id + 0 = c.id")
        .unwrap();
    let p = plan(&db, "SELECT * FROM a, b, c WHERE a.x + 150 < b.y AND b.id + 0 = c.id");
    assert!(p.find("HASH_JOIN").expect(&p) < p.find("CROSS_PRODUCT").expect(&p), "{p}");
    assert!(!r.rows.is_empty());
    assert_eq!(r.rows, reference.rows);
    for row in &r.rows {
        assert!(matches!((&row[2], &row[4]), (a, b) if a == b), "{row:?}");
    }
}
