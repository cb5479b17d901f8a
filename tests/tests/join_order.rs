//! The join-order pass and decorrelated `op ALL/ANY` subqueries
//! (DESIGN.md §12), checked against the row engine, which joins in FROM
//! order and runs every subquery once per outer row.
//!
//! - All 17 BerlinMOD queries return the row engine's rows; the blocks
//!   the order contract admits return them in the same order.
//! - Random 3–6-relation join graphs (equalities, `&&` over boxes and
//!   over `tstzspan`s, inequalities, NULLs): with ORDER BY over every
//!   output column the reordered plan returns the FROM-order rows; with a
//!   partial ORDER BY the plan is the FROM-order plan.
//! - `x op ALL/ANY (subquery)`, correlated and not, over NULL operands,
//!   NULL and duplicate keys, and empty and missing sets; a subquery that
//!   reads no outer row runs once.
//! - A block of 70 FROM items plans and runs.
//! - The EXPLAIN text of the BerlinMOD and use-case queries at SF-0.001
//!   matches `golden/join_order_plans.txt`, so a planner change that
//!   moves a plan shows as a diff there.

use berlinmod::{benchmark_queries, usecase_queries, BerlinModData, RoadNetwork, ScaleFactor};
use mduck_rowdb::RowDatabase;
use mduck_sql::Value;
use quackdb::{Database, ExecGuard, ExecLimits};

/// A small deterministic generator (64-bit LCG) for the test data.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// Rows as text, floats to 9 significant digits: the engines may sum a
/// group's floats in a different order.
fn canonical(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Float(f) => format!("{f:.8e}"),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect()
}

fn vec_rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    db.execute(sql).unwrap_or_else(|e| panic!("vecdb: {e}\n{sql}")).rows
}

fn row_rows(db: &RowDatabase, sql: &str) -> Vec<Vec<Value>> {
    db.execute(sql).unwrap_or_else(|e| panic!("rowdb: {e}\n{sql}")).rows
}

fn plan(db: &Database, sql: &str) -> String {
    vec_rows(db, &format!("EXPLAIN {sql}"))[0][0].to_string()
}

// ------------------------------------------------------------ BerlinMOD

/// The BerlinMOD queries whose main block the order contract admits:
/// ORDER BY names every output column (DESIGN.md §12).
const REORDERABLE: [u32; 8] = [4, 6, 11, 12, 13, 14, 15, 16];

/// Every SELECT block the order contract admits, as `Q<id>` for a main
/// block and `Q<id>/<cte>` for a CTE body, among blocks that join.
#[test]
fn the_order_contract_admits_these_berlinmod_blocks() {
    use mduck_sql::plan::order_insensitive;
    use mduck_sql::{parse_statement, Binder, BoundSelect, Statement};
    use mduck_wal::DurableEngine;
    fn walk(plan: &BoundSelect, name: String, out: &mut Vec<String>) {
        if plan.from.len() > 1 && order_insensitive(plan) {
            out.push(name.clone());
        }
        for cte in &plan.ctes {
            walk(&cte.plan, format!("{name}/{}", cte.name), out);
        }
    }
    let vdb = Database::new();
    mobilityduck::load(&vdb);
    for stmt in BerlinModData::ddl().split(';').filter(|s| !s.trim().is_empty()) {
        vdb.execute(stmt).unwrap();
    }
    let mut admitted = Vec::new();
    for (id, _, sql) in benchmark_queries() {
        let Ok(Statement::Select(sel)) = parse_statement(sql) else { panic!("{sql}") };
        let registry = DurableEngine::registry(&vdb);
        let plan = Binder::new(DurableEngine::catalog(&vdb), &registry).bind_select(&sel).unwrap();
        walk(&plan, format!("Q{id}"), &mut admitted);
    }
    let want: Vec<String> = REORDERABLE.iter().map(|id| format!("Q{id}")).collect();
    assert_eq!(admitted, want);
}

#[test]
fn berlinmod_queries_return_the_row_engine_rows() {
    for seed in [42, 7] {
        let net = RoadNetwork::generate(seed);
        let data = BerlinModData::generate(&net, ScaleFactor(0.001), seed);
        let vdb = Database::new();
        mobilityduck::load(&vdb);
        data.load_into_quack(&vdb).unwrap();
        let rdb = RowDatabase::new();
        mobilityduck::load_row(&rdb);
        data.load_into_row(&rdb, false).unwrap();
        for (id, _, sql) in benchmark_queries() {
            let got = canonical(&vec_rows(&vdb, sql));
            let want = canonical(&row_rows(&rdb, sql));
            if REORDERABLE.contains(&id) {
                assert_eq!(got, want, "seed {seed} Q{id}\n{sql}");
            } else {
                let (mut got, mut want) = (got, want);
                got.sort();
                want.sort();
                assert_eq!(got, want, "seed {seed} Q{id}\n{sql}");
            }
        }
    }
}

/// Q12 at SF-0.01: FROM order pairs trips with trips (millions of rows),
/// so only a reordered plan runs it. The row engine with its indexes
/// answers the same question written in a FROM order it can run.
#[test]
fn q12_at_sf_001_equals_the_indexed_row_engine_on_a_permuted_text() {
    let net = RoadNetwork::generate(42);
    let data = BerlinModData::generate(&net, ScaleFactor(0.01), 42);
    let vdb = Database::new();
    mobilityduck::load(&vdb);
    data.load_into_quack(&vdb).unwrap();
    let rdb = RowDatabase::new();
    mobilityduck::load_row(&rdb);
    data.load_into_row(&rdb, true).unwrap();
    let q12 = benchmark_queries().into_iter().find(|(id, _, _)| *id == 12).unwrap().2;
    let from = "FROM trips t1, vehicles v1, trips t2, vehicles v2, points1 p, instants1 i";
    assert!(q12.contains(from), "{q12}");
    let permuted = q12.replace(
        from,
        "FROM points1 p, instants1 i, trips t1, vehicles v1, trips t2, vehicles v2",
    );
    let p = plan(&vdb, q12);
    assert!(p.matches("INDEX_JOIN").count() >= 2, "{p}");
    let got = vec_rows(&vdb, q12);
    assert_eq!(canonical(&got), canonical(&row_rows(&rdb, &permuted)));
}

/// The EXPLAIN text of the 17 BerlinMOD queries and the 6 use-case
/// queries at SF-0.001, seed 1, each under a `== <name> ==` header.
fn berlinmod_plans() -> String {
    let net = RoadNetwork::generate(1);
    let data = BerlinModData::generate(&net, ScaleFactor(0.001), 1);
    let vdb = Database::new();
    mobilityduck::load(&vdb);
    data.load_into_quack(&vdb).unwrap();
    let queries = benchmark_queries().into_iter().map(|(id, _, sql)| (format!("Q{id}"), sql));
    let usecases = usecase_queries().into_iter().map(|(name, sql)| (name.to_string(), sql));
    queries.chain(usecases).map(|(name, sql)| format!("== {name} ==\n{}\n", plan(&vdb, sql))).collect()
}

#[test]
fn berlinmod_plans_match_the_golden_text() {
    let got = berlinmod_plans();
    let want = include_str!("golden/join_order_plans.txt");
    for (g, w) in got.split("\n== ").zip(want.split("\n== ")) {
        assert_eq!(g, w, "the plan moved");
    }
    assert_eq!(got, want);
}

// ------------------------------------------------------------ join graphs

fn graph_ddl(t: usize) -> String {
    format!("CREATE TABLE r{t}(id INTEGER, k INTEGER, p TSTZSPAN, g STBOX)")
}

/// Tables `r0`..`r5` of `(id, k, p, g)`: a small key with NULLs, a
/// `tstzspan` and a box, each NULL now and then; 0 to 9 rows each.
fn graph_tables(vdb: &Database, rdb: &RowDatabase, rng: &mut Lcg) {
    for t in 0..6 {
        vdb.execute(&graph_ddl(t)).unwrap();
        rdb.execute(&graph_ddl(t)).unwrap();
        let rows: Vec<String> = (0..rng.below(10))
            .map(|i| {
                let k = match rng.below(6) {
                    0 => "NULL".to_string(),
                    k => k.to_string(),
                };
                let hour = rng.below(16);
                let p = match rng.below(7) {
                    0 => "NULL".to_string(),
                    len => format!(
                        "'[2025-01-01 {hour:02}:00:00, 2025-01-01 {:02}:00:00)'::tstzspan",
                        hour + len
                    ),
                };
                let (x, y) = (rng.below(100), rng.below(100));
                let g = match rng.below(7) {
                    0 => "NULL".to_string(),
                    w => format!(
                        "'STBOX XT((({x},{y}),({},{})),[2025-01-01 {hour:02}:00:00, 2025-01-01 {:02}:00:00])'::stbox",
                        x + w * 10,
                        y + w * 10,
                        hour + 2
                    ),
                };
                format!("({i}, {k}, {p}, {g})")
            })
            .collect();
        if !rows.is_empty() {
            let sql = format!("INSERT INTO r{t} VALUES {}", rows.join(", "));
            vdb.execute(&sql).unwrap();
            rdb.execute(&sql).unwrap();
        }
    }
}

/// A random join of 3 to 6 aliases of `r0`..`r5`, each linked to an
/// earlier one, in shuffled FROM order: `(FROM and WHERE, select list)`.
fn random_join(rng: &mut Lcg) -> (String, Vec<String>) {
    let n = 3 + rng.below(4) as usize;
    let mut conjuncts = Vec::new();
    for i in 1..n {
        let j = rng.below(i as u64);
        let c = match rng.below(6) {
            0 | 1 => format!("a{i}.k = a{j}.k"),
            2 => format!("a{i}.p && a{j}.p"),
            3 => format!("a{j}.g && a{i}.g"),
            4 => format!("a{i}.k < a{j}.k"),
            _ => format!("a{i}.id <> a{j}.id"),
        };
        conjuncts.push(c);
        if rng.below(4) == 0 {
            conjuncts.push(format!("a{i}.k IS NOT NULL"));
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let from: Vec<String> =
        order.iter().map(|&a| format!("r{} a{a}", rng.below(6))).collect();
    let select: Vec<String> = (0..n).map(|a| format!("a{a}.id")).collect();
    (format!("FROM {} WHERE {}", from.join(", "), conjuncts.join(" AND ")), select)
}

#[test]
fn random_join_graphs_reorder_only_under_the_order_contract() {
    let mut rng = Lcg(0x6a09_e667);
    for _ in 0..4 {
        let (vdb, rdb, empty) = (Database::new(), RowDatabase::new(), Database::new());
        mobilityduck::load(&vdb);
        mobilityduck::load(&empty);
        mobilityduck::load_row(&rdb);
        graph_tables(&vdb, &rdb, &mut rng);
        for t in 0..6 {
            empty.execute(&graph_ddl(t)).unwrap();
        }
        for _ in 0..12 {
            let (body, select) = random_join(&mut rng);
            let distinct = if rng.below(2) == 0 { "DISTINCT " } else { "" };
            let cols = select.join(", ");
            let keys: Vec<String> = (1..=select.len()).map(|i| i.to_string()).collect();
            // The contract holds: the FROM-order rows, in order.
            let total = format!("SELECT {distinct}{cols} {body} ORDER BY {}", keys.join(", "));
            assert_eq!(vec_rows(&vdb, &total), row_rows(&rdb, &total), "{total}");
            // It does not: the plan with no rows, where every order ties.
            let partial = format!("SELECT {distinct}{cols} {body} ORDER BY 1");
            assert_eq!(plan(&vdb, &partial), plan(&empty, &partial), "{partial}");
            let (mut got, mut want) = (vec_rows(&vdb, &partial), row_rows(&rdb, &partial));
            got.sort_by_key(|r| format!("{r:?}"));
            want.sort_by_key(|r| format!("{r:?}"));
            assert_eq!(got, want, "{partial}");
        }
    }
}

#[test]
fn a_cheaper_order_is_taken_and_ties_keep_from_order() {
    let (vdb, rdb) = (Database::new(), RowDatabase::new());
    for sql in [
        "CREATE TABLE big(id INTEGER, k INTEGER)",
        "CREATE TABLE mid(id INTEGER, k INTEGER)",
        "CREATE TABLE tiny(id INTEGER, k INTEGER)",
        "INSERT INTO big SELECT i, i % 50 FROM generate_series(1, 400) AS t(i)",
        "INSERT INTO mid SELECT i, i % 7 FROM generate_series(1, 60) AS t(i)",
        "INSERT INTO tiny SELECT i, i FROM generate_series(1, 3) AS t(i)",
    ] {
        vdb.execute(sql).unwrap();
        rdb.execute(sql).unwrap();
    }
    // big × mid first would pair 24,000 rows; tiny keys both.
    let sql = "SELECT b.id, m.id FROM big b, mid m, tiny t \
               WHERE b.k = t.k AND m.k = t.id AND b.id < m.id ORDER BY 1, 2";
    let p = plan(&vdb, sql);
    assert!(!p.contains("CROSS_PRODUCT"), "{p}");
    assert_eq!(vec_rows(&vdb, sql), row_rows(&rdb, sql));
    // Without a total ORDER BY the FROM order stays, cross product and all.
    let p = plan(&vdb, &sql.replace("ORDER BY 1, 2", "ORDER BY 1"));
    assert!(p.contains("CROSS_PRODUCT"), "{p}");
    // Two relations cost the same either way round: FROM order.
    let p = plan(&vdb, "SELECT b.id, t.id FROM big b, tiny t WHERE b.k = t.k ORDER BY 1, 2");
    let scans: Vec<&str> = p.lines().filter(|l| l.contains("big") || l.contains("tiny")).collect();
    assert!(scans[0].contains("big") && scans[1].contains("tiny"), "{p}");
}

/// A block of more FROM items than a machine word has bits: groups of 7
/// relations keyed one to the next, each group a Rule 1 run crossed with
/// the groups before it, plan and return the row engine's rows.
#[test]
fn seventy_from_items_plan_as_runs() {
    let (vdb, rdb) = (Database::new(), RowDatabase::new());
    for sql in ["CREATE TABLE w(k INTEGER)", "INSERT INTO w VALUES (1), (2)"] {
        vdb.execute(sql).unwrap();
        rdb.execute(sql).unwrap();
    }
    let from: Vec<String> = (0..70).map(|i| format!("w a{i}")).collect();
    let keys: Vec<String> =
        (1..70).filter(|i| i % 7 != 0).map(|i| format!("a{i}.k = a{}.k", i - 1)).collect();
    let sql = format!("SELECT count(*) FROM {} WHERE {}", from.join(", "), keys.join(" AND "));
    assert_eq!(vec_rows(&vdb, &sql), vec![vec![Value::Int(1024)]]);
    assert_eq!(vec_rows(&vdb, &sql), row_rows(&rdb, &sql));
    assert_eq!(plan(&vdb, &sql).matches("CROSS_PRODUCT").count(), 9);
}

// ------------------------------------------------------------ ALL / ANY

/// `o(id, k, x)` against `i(k, y)`: keys 1 (two values), 2 (a value and a
/// NULL), 3 (a duplicate), 5 (no outer row), NULL (a value); outer keys 4
/// (no set) and NULL, and a NULL outer operand.
fn quantified_tables() -> (Database, RowDatabase) {
    let (vdb, rdb) = (Database::new(), RowDatabase::new());
    for sql in [
        "CREATE TABLE o(id INTEGER, k INTEGER, x INTEGER)",
        "CREATE TABLE i(k INTEGER, y INTEGER)",
        "INSERT INTO o VALUES (1, 1, 4), (2, 1, 6), (3, 1, 8), (4, 2, 4), (5, 2, 6), \
         (6, 3, 6), (7, 3, 7), (8, 4, 5), (9, NULL, 5), (10, 1, NULL), (11, 3, 5)",
        "INSERT INTO i VALUES (1, 5), (1, 7), (2, 5), (2, NULL), (3, 6), (3, 6), \
         (5, 9), (NULL, 1)",
    ] {
        vdb.execute(sql).unwrap();
        rdb.execute(sql).unwrap();
    }
    (vdb, rdb)
}

#[test]
fn quantified_subqueries_match_per_row_evaluation() {
    let (vdb, rdb) = quantified_tables();
    let sets = [
        "SELECT y FROM i WHERE i.k = o.k",
        "SELECT y FROM i WHERE o.k = i.k AND y > 5",
        "SELECT y FROM i",
        "SELECT y FROM i WHERE y > 100",
        "SELECT y FROM i WHERE y IS NULL",
        "SELECT DISTINCT y FROM i WHERE i.k = o.k ORDER BY y",
    ];
    for set in sets {
        for op in ["<", "<=", ">", ">="] {
            for q in ["ALL", "ANY"] {
                for sql in [
                    format!("SELECT id FROM o WHERE x {op} {q} ({set}) ORDER BY id"),
                    format!("SELECT id, x {op} {q} ({set}) FROM o ORDER BY id"),
                    format!("SELECT id FROM o WHERE NOT (x {op} {q} ({set})) ORDER BY id"),
                ] {
                    assert_eq!(vec_rows(&vdb, &sql), row_rows(&rdb, &sql), "{sql}");
                }
            }
        }
    }
}

/// A subquery that reads no outer row runs once for the block, not once
/// per row, and returns what the row engine's per-row runs return.
#[test]
fn an_uncorrelated_subquery_runs_once() {
    let (vdb, rdb) = (Database::new(), RowDatabase::new());
    for sql in [
        "CREATE TABLE big(b INTEGER)",
        "CREATE TABLE s(k INTEGER)",
        "INSERT INTO big SELECT n FROM generate_series(1, 3000) AS t(n)",
        "INSERT INTO s SELECT n * 7 FROM generate_series(1, 40) AS t(n)",
    ] {
        vdb.execute(sql).unwrap();
        rdb.execute(sql).unwrap();
    }
    let scalar = "SELECT b FROM big WHERE b > (SELECT min(k) FROM s) + 2900 ORDER BY b";
    for sql in [
        scalar,
        "SELECT b FROM big WHERE b IN (SELECT k FROM s) ORDER BY b",
        "SELECT b FROM big WHERE EXISTS (SELECT k FROM s WHERE k > 270) AND b < 4 ORDER BY b",
        "SELECT b, (SELECT max(k) FROM s WHERE k < 30) FROM big WHERE b % 1000 = 0 ORDER BY b",
        "SELECT b FROM big WHERE b = (SELECT k FROM s WHERE k = big.b) ORDER BY b",
    ] {
        let want = row_rows(&rdb, sql);
        assert!(!want.is_empty(), "{sql}");
        assert_eq!(vec_rows(&vdb, sql), want, "{sql}");
    }
    let guard = ExecGuard::new(&ExecLimits::default());
    assert_eq!(vdb.execute_with_guard(scalar, &guard).unwrap().rows.len(), 93);
    assert_eq!(guard.rows_scanned(), 3000 + 40, "big once and s once");
}

#[test]
fn a_correlated_all_runs_its_subquery_once() {
    let (vdb, rdb) = (Database::new(), RowDatabase::new());
    for sql in [
        "CREATE TABLE o(id INTEGER, k INTEGER, x INTEGER)",
        "CREATE TABLE i(k INTEGER, y INTEGER)",
        "INSERT INTO o SELECT n, n % 9, n % 13 FROM generate_series(1, 60) AS t(n)",
        "INSERT INTO i SELECT n % 9, n % 11 FROM generate_series(1, 60) AS t(n)",
    ] {
        vdb.execute(sql).unwrap();
        rdb.execute(sql).unwrap();
    }
    let once = "SELECT id FROM o WHERE x <= ALL (SELECT y FROM i WHERE i.k = o.k) ORDER BY id";
    // `=` is not decorrelated: 60 runs of the subquery.
    let per_row = "SELECT id FROM o WHERE x = ALL (SELECT y FROM i WHERE i.k = o.k) ORDER BY id";
    let want = row_rows(&rdb, once);
    assert!(!want.is_empty());
    vdb.set_exec_limits(ExecLimits { row_budget: Some(1000), ..ExecLimits::default() });
    assert_eq!(vec_rows(&vdb, once), want);
    let err = vdb.execute(per_row).err().map(|e| e.to_string()).unwrap_or_default();
    assert!(err.contains("budget"), "per-row subqueries should exceed the budget: {err}");
}
