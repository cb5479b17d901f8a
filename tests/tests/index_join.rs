//! Index joins (DESIGN.md §12): an `&&` conjunct linking the join tree to
//! the next relation (or absorbed run of relations) is answered by probing
//! a transient TRTREE/RTREE built over the right side, instead of a cross
//! product filtered pair by pair.
//!
//! Differential: every query runs as written, where the planner matches
//! `a && b`, and with the conjunct spelled `(a && b) = true`, which it
//! cannot match, so the cross product and filter run instead. Both forms
//! must return identical row sequences, serially and on a worker pool,
//! and the same sequence as the row engine (which joins left-deep in FROM
//! order, without indexes here).

use mduck_rowdb::RowDatabase;
use mduck_sql::{SqlError, Value};
use quackdb::{Database, ExecLimits};

const PARALLEL_THREADS: usize = 4;

/// Rows of the probe-side trip table: more than one 2048-row chunk, so the
/// probes fan out over the worker pool.
const LEFT_ROWS: usize = 2100;
const RIGHT_ROWS: usize = 30;

/// `(written, unmatched)`: the query with each `{{a && b}}` conjunct as
/// written, and spelled `((a && b) = true)`.
fn variants(sql: &str) -> (String, String) {
    let written = sql.replace("{{", "(").replace("}}", ")");
    let unmatched = sql.replace("{{", "((").replace("}}", ") = true)");
    (written, unmatched)
}

fn strings(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter().map(|r| r.iter().map(|v| v.to_string()).collect()).collect()
}

/// A small deterministic generator (64-bit LCG) for the test data.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// A 2- or 3-instant trip, 20 minutes per leg, inside a 1500 m square
/// on 2025-01-01 between 08:00 and 11:40; every `null_every`-th row is
/// NULL.
fn trip(rng: &mut Lcg, i: usize, null_every: usize) -> String {
    if i.is_multiple_of(null_every) {
        return "NULL".into();
    }
    let (mut x, mut y) = (rng.below(1500) as i64, rng.below(1500) as i64);
    let start = 8 * 60 + rng.below(180);
    let mut points = Vec::new();
    for k in 0..2 + rng.below(2) {
        let t = start + k * 20;
        points.push(format!("Point({x} {y})@2025-01-01 {:02}:{:02}:00", t / 60, t % 60));
        x += rng.below(200) as i64 - 100;
        y += rng.below(200) as i64 - 100;
    }
    format!("'[{}]'::tgeompoint", points.join(", "))
}

/// The same tables in both engines.
struct Pair {
    vec: Database,
    row: RowDatabase,
}

impl Pair {
    /// Trip tables `ta` (probe side, NULL every 17th) and `tb` (build
    /// side, NULL every 7th, keyed to `vb` by `vid`), an empty trip table
    /// `te`, geometry tables `rg` (envelopes) and `pg` (points), and
    /// one-dimensional boxes `tt` (time only) and `sx` (space only).
    fn new() -> Self {
        let vec = Database::new();
        mobilityduck::load(&vec);
        let row = RowDatabase::new();
        mobilityduck::load_row(&row);
        let p = Pair { vec, row };
        p.exec("CREATE TABLE ta(id INTEGER, trip TGEOMPOINT)");
        p.exec("CREATE TABLE tb(id INTEGER, vid INTEGER, trip TGEOMPOINT)");
        p.exec("CREATE TABLE te(id INTEGER, trip TGEOMPOINT)");
        p.exec("CREATE TABLE vb(vid INTEGER, kind VARCHAR)");
        p.exec("CREATE TABLE rg(id INTEGER, geom WKB_BLOB)");
        p.exec("CREATE TABLE pg(id INTEGER, geom WKB_BLOB)");
        p.exec("CREATE TABLE tt(id INTEGER, b STBOX)");
        p.exec("CREATE TABLE sx(id INTEGER, b STBOX)");
        let mut rng = Lcg(7);
        let rows: Vec<String> =
            (1..=LEFT_ROWS).map(|i| format!("({i}, {})", trip(&mut rng, i, 17))).collect();
        p.exec(&format!("INSERT INTO ta VALUES {}", rows.join(", ")));
        let rows: Vec<String> = (1..=RIGHT_ROWS)
            .map(|i| format!("({i}, {}, {})", i % 6, trip(&mut rng, i, 7)))
            .collect();
        p.exec(&format!("INSERT INTO tb VALUES {}", rows.join(", ")));
        p.exec("INSERT INTO vb VALUES (0, 'k0'), (1, 'k1'), (2, 'k0'), (3, 'k1'), (3, 'k1'), (5, 'k0')");
        let rows: Vec<String> = (1..=8)
            .map(|i| {
                let (x, y) = (rng.below(1800), rng.below(1800));
                format!("({i}, ST_MakeEnvelope({x}, {y}, {}, {})::WKB_BLOB)", x + 250, y + 250)
            })
            .collect();
        p.exec(&format!("INSERT INTO rg VALUES {}", rows.join(", ")));
        let rows: Vec<String> = (1..=60)
            .map(|i| format!("({i}, ST_Point({}, {})::WKB_BLOB)", rng.below(2000), rng.below(2000)))
            .collect();
        p.exec(&format!("INSERT INTO pg VALUES {}", rows.join(", ")));
        let rows: Vec<String> = (1..=6)
            .map(|i| format!("({i}, 'STBOX T([2025-01-01 {:02}:00:00, 2025-01-01 {:02}:30:00])'::stbox)", 7 + i, 7 + i))
            .collect();
        p.exec(&format!("INSERT INTO tt VALUES {}", rows.join(", ")));
        let rows: Vec<String> = (1..=6)
            .map(|i| format!("({i}, 'STBOX X(({0},{0}),({1},{1}))'::stbox)", i * 200, i * 200 + 300))
            .collect();
        p.exec(&format!("INSERT INTO sx VALUES {}", rows.join(", ")));
        p
    }

    fn exec(&self, sql: &str) {
        self.vec.execute(sql).unwrap_or_else(|e| panic!("vecdb: {e}\n{sql}"));
        self.row.execute(sql).unwrap_or_else(|e| panic!("rowdb: {e}\n{sql}"));
    }

    fn plan(&self, sql: &str) -> String {
        let r = self.vec.execute(&format!("EXPLAIN {sql}")).unwrap_or_else(|e| panic!("{e}\n{sql}"));
        r.rows[0][0].to_string()
    }

    /// Both forms plan as expected (an `INDEX_JOIN` through `method` as
    /// written, none unmatched) and return one row sequence on 1 and 4
    /// threads, equal to the row engine's.
    fn check(&self, sql: &str, method: &str) -> Vec<Vec<Value>> {
        let (written, unmatched) = variants(sql);
        let p = self.plan(&written);
        assert!(p.contains("INDEX_JOIN"), "no index join\n{p}");
        assert!(p.contains(&format!("index: {method}")), "expected {method}\n{p}");
        let p = self.plan(&unmatched);
        assert!(!p.contains("INDEX_JOIN"), "unmatched form planned an index join\n{p}");
        let mut first: Option<Vec<Vec<Value>>> = None;
        for threads in [1, PARALLEL_THREADS] {
            self.vec.set_threads(threads);
            for q in [&written, &unmatched] {
                let rows = self.vec.execute(q).unwrap_or_else(|e| panic!("vecdb: {e}\n{q}")).rows;
                match &first {
                    None => first = Some(rows),
                    Some(f) => assert_eq!(f, &rows, "threads={threads}: sequences differ\n{q}"),
                }
            }
        }
        let rows = first.unwrap_or_default();
        let row = self.row.execute(&written).unwrap_or_else(|e| panic!("rowdb: {e}\n{written}"));
        assert_eq!(strings(&rows), strings(&row.rows), "vecdb vs rowdb\n{written}");
        rows
    }

    /// Both forms fail with one error on 1 and 4 threads, and the row
    /// engine fails too.
    fn check_error(&self, sql: &str) -> String {
        let (written, unmatched) = variants(sql);
        assert!(self.row.execute(&written).is_err(), "rowdb accepted\n{written}");
        let mut first: Option<String> = None;
        for threads in [1, PARALLEL_THREADS] {
            self.vec.set_threads(threads);
            for q in [&written, &unmatched] {
                let err = match self.vec.execute(q) {
                    Err(e) => e.to_string(),
                    Ok(r) => panic!("vecdb threads={threads} returned {} rows\n{q}", r.rows.len()),
                };
                match &first {
                    None => first = Some(err),
                    Some(f) => assert_eq!(f, &err, "threads={threads}\n{q}"),
                }
            }
        }
        first.unwrap_or_default()
    }
}

#[test]
fn trip_pairs_equal_the_filtered_cross_product() {
    let p = Pair::new();
    let rows = p.check("SELECT a.id, b.id FROM ta a, tb b WHERE {{a.trip && b.trip}}", "TRTREE");
    assert!(!rows.is_empty(), "the data must produce overlapping pairs");
    // NULL trips on either side pair with nothing.
    assert!(rows.iter().all(|r| !matches!(&r[0], Value::Int(i) if i % 17 == 0)));
    assert!(rows.iter().all(|r| !matches!(&r[1], Value::Int(i) if i % 7 == 0)));
    // Probe and build expressions, either side of the operator.
    p.check(
        "SELECT b.id, a.id FROM ta a, tb b WHERE {{b.trip && expandSpace(a.trip::STBOX, 25.0)}}",
        "TRTREE",
    );
    p.check(
        "SELECT count(*), min(a.id), max(b.id) FROM ta a, tb b \
         WHERE {{expandSpace(b.trip::STBOX, 40.0) && a.trip}} AND a.id <> b.id",
        "TRTREE",
    );
}

#[test]
fn conjunct_after_another_cross_side_conjunct() {
    let p = Pair::new();
    let rows = p.check(
        "SELECT a.id, b.id, a.trip FROM ta a, tb b \
         WHERE a.id < b.id * 60 AND {{a.trip && b.trip}} AND a.id % 2 = 0",
        "TRTREE",
    );
    assert!(!rows.is_empty());
    let p_text = p.plan("SELECT a.id FROM ta a, tb b WHERE a.id < b.id * 60 AND a.trip && b.trip");
    // The join owns the `&&` conjunct: the `<` Filter sits directly above
    // it, and no Filter re-checks `&&`.
    let boxes = box_titles(&p_text);
    let join = boxes.iter().position(|(t, _)| t == "INDEX_JOIN").expect(&p_text);
    assert!(join > 0, "{p_text}");
    let (title, detail) = &boxes[join - 1];
    assert_eq!(title, "FILTER", "{p_text}");
    assert!(detail.starts_with("(col#0 < (col#1 * lit(Int("), "{p_text}");
    assert!(boxes.iter().all(|(t, d)| t != "FILTER" || !d.contains("&&")), "{p_text}");
    assert!(p_text.contains("cond: &&([col#1, col#3])"), "{p_text}");
}

/// The strict `&&` conjuncts right after the link go into the join too
/// when nothing comes before the link: every pair runs them there, in
/// written order, and no `&&` Filter is left.
#[test]
fn overlap_conjuncts_right_after_the_link_fold_too() {
    let p = Pair::new();
    // The second `&&` keeps the pairs whose `b` trip lies partly in the
    // lower-left quarter of the area.
    let quarter = "{{expandSpace(b.trip::STBOX, a.id * 0.0) && 'STBOX X((0,0),(700,700))'::stbox}}";
    let sql = format!(
        "SELECT a.id, b.id FROM ta a, tb b WHERE {{{{a.trip && b.trip}}}} AND {quarter} AND a.id < b.id * 60"
    );
    let sql = sql.as_str();
    let all = p.check("SELECT a.id, b.id FROM ta a, tb b WHERE {{a.trip && b.trip}} AND a.id < b.id * 60", "TRTREE");
    let rows = p.check(sql, "TRTREE");
    assert!(!rows.is_empty() && rows.len() < all.len(), "{} of {}", rows.len(), all.len());
    let plan = p.plan(&variants(sql).0);
    let boxes = box_titles(&plan);
    let join = boxes.iter().position(|(t, _)| t == "INDEX_JOIN").expect(&plan);
    assert_eq!(boxes[join - 1].0, "FILTER", "{plan}");
    assert!(boxes[join - 1].1.starts_with("(col#0 < "), "{plan}");
    assert_eq!(plan.matches("cond: &&(").count(), 2, "{plan}");
    assert!(boxes.iter().all(|(t, d)| t != "FILTER" || !d.contains("&&")), "{plan}");
    // After another conjunct, an `&&` stays a Filter.
    let sql = format!(
        "SELECT a.id, b.id FROM ta a, tb b WHERE {{{{a.trip && b.trip}}}} AND a.id < b.id * 60 AND {quarter}"
    );
    let sql = sql.as_str();
    p.check(sql, "TRTREE");
    let plan = p.plan(&variants(sql).0);
    assert_eq!(plan.matches("cond: &&(").count(), 1, "{plan}");
    assert!(box_titles(&plan).iter().any(|(t, d)| t == "FILTER" && d.starts_with("&&(")), "{plan}");
    // So does every `&&` after the link when a conjunct comes before it.
    let sql = format!(
        "SELECT a.id, b.id FROM ta a, tb b WHERE a.id < b.id * 60 AND {{{{a.trip && b.trip}}}} AND {quarter}"
    );
    let sql = sql.as_str();
    p.check(sql, "TRTREE");
    assert_eq!(p.plan(&variants(sql).0).matches("cond: &&(").count(), 1);
}

/// Each box of an EXPLAIN rendering, top to bottom: its title and its
/// first detail line.
fn box_titles(plan: &str) -> Vec<(String, String)> {
    let lines: Vec<&str> = plan.lines().collect();
    let text = |l: &str| l.trim_matches(|c| c == '│' || c == ' ').to_string();
    (0..lines.len())
        .filter(|&i| i > 0 && lines[i - 1].starts_with('┌'))
        .map(|i| (text(lines[i]), lines.get(i + 2).map_or(String::new(), |l| text(l))))
        .collect()
}

#[test]
fn empty_build_and_probe_sides() {
    let p = Pair::new();
    let rows = p.check("SELECT a.id, e.id FROM ta a, te e WHERE {{a.trip && e.trip}}", "TRTREE");
    assert!(rows.is_empty());
    let rows = p.check("SELECT e.id, a.id FROM te e, ta a WHERE {{e.trip && a.trip}}", "TRTREE");
    assert!(rows.is_empty());
    // Sides emptied by their own filters.
    let rows = p.check(
        "SELECT a.id, b.id FROM ta a, tb b WHERE a.id < 0 AND {{a.trip && b.trip}}",
        "TRTREE",
    );
    assert!(rows.is_empty());
    let rows = p.check(
        "SELECT a.id, b.id FROM ta a, tb b WHERE b.id > 1000 AND {{a.trip && b.trip}}",
        "TRTREE",
    );
    assert!(rows.is_empty());
}

#[test]
fn space_only_boxes_from_geometry() {
    let p = Pair::new();
    let rows = p.check(
        "SELECT r.id, a.id FROM ta a, rg r WHERE {{a.trip && stbox(r.geom)}}",
        "TRTREE",
    );
    assert!(!rows.is_empty());
    // Time-only boxes against trips that carry both dimensions.
    let rows = p.check("SELECT a.id, t.id FROM ta a, tt t WHERE {{a.trip && t.b}}", "TRTREE");
    assert!(!rows.is_empty());
}

#[test]
fn time_only_boxes_raise_the_cross_product_error() {
    let p = Pair::new();
    let (written, _) = variants("SELECT t.id, s.id FROM tt t, sx s WHERE {{t.b && s.b}}");
    assert!(p.plan(&written).contains("INDEX_JOIN"));
    let err = p.check_error("SELECT t.id, s.id FROM tt t, sx s WHERE {{t.b && s.b}}");
    assert!(err.contains("share no dimension"), "{err}");
}

#[test]
fn geometry_join_uses_rtree() {
    let p = Pair::new();
    let rows = p.check("SELECT p.id, r.id FROM pg p, rg r WHERE {{p.geom && r.geom}}", "RTREE");
    assert!(!rows.is_empty());
}

#[test]
fn absorbed_run_of_two_relations() {
    let p = Pair::new();
    let sql = "SELECT a.id, b.id, v.kind FROM ta a, tb b, vb v \
               WHERE b.vid = v.vid AND v.kind = 'k1' AND {{a.trip && b.trip}}";
    let rows = p.check(sql, "TRTREE");
    assert!(!rows.is_empty());
    let (written, _) = variants(sql);
    let plan = p.plan(&written);
    assert!(plan.contains("HASH_JOIN"), "{plan}");
    assert!(!plan.contains("CROSS_PRODUCT"), "{plan}");
    // Unmatched, the absorbed run is crossed with `ta` as a whole.
    let (_, unmatched) = variants(sql);
    let plan = p.plan(&unmatched);
    let cross = plan.find("CROSS_PRODUCT").expect(&plan);
    assert!(cross < plan.find("HASH_JOIN").expect(&plan), "{plan}");
    // Duplicate build keys (vid 3 twice) keep build order inside the run.
    p.check("SELECT * FROM ta a, tb b, vb v WHERE b.vid = v.vid AND {{a.trip && b.trip}}", "TRTREE");
}

#[test]
fn relation_keyed_to_the_tree_is_not_absorbed() {
    let p = Pair::new();
    let sql = "SELECT a.id, b.id, v.vid FROM ta a, tb b, vb v \
               WHERE a.id % 6 = v.vid AND b.vid = v.vid AND {{a.trip && b.trip}}";
    p.check(sql, "TRTREE");
    let (written, _) = variants(sql);
    let plan = p.plan(&written);
    // `vb` joins above the index join, with both keys.
    let hash = plan.find("HASH_JOIN").expect(&plan);
    assert!(hash < plan.find("INDEX_JOIN").expect(&plan), "{plan}");
    assert_eq!(plan.matches(" = ").count(), 2, "{plan}");
    // The same with a plain column key into the tree.
    let sql = "SELECT a.id, b.id, v.vid FROM ta a, tb b, vb v \
               WHERE v.vid = a.id % 6 AND b.vid = v.vid AND {{a.trip && b.trip}}";
    p.check(sql, "TRTREE");
    let sql = "SELECT * FROM tb b, ta a, vb v WHERE v.vid = a.id AND b.vid = v.vid AND {{a.trip && b.trip}}";
    p.check(sql, "TRTREE");
    let plan = p.plan(&variants(sql).0);
    assert!(plan.find("HASH_JOIN").expect(&plan) < plan.find("INDEX_JOIN").expect(&plan), "{plan}");
}

fn assert_trip(r: Result<quackdb::QueryResult, SqlError>, what: &str) {
    match r {
        Err(SqlError::ResourceExhausted(msg)) => assert!(msg.contains(what), "wrong trip: {msg}"),
        other => panic!("expected a {what} trip, got {other:?}"),
    }
}

#[test]
fn memory_limit_and_row_budget_trip_mid_join() {
    let p = Pair::new();
    // A space-only probe box covering every trip: the index skips only
    // the NULL trips and the join emits about 2100 × 26 pairs.
    let sql = "SELECT count(b.trip) FROM ta a, tb b \
               WHERE stbox(ST_MakeEnvelope(-5000.0, -5000.0, 5000.0 + a.id, 5000.0)) && b.trip";
    assert!(p.plan(sql).contains("INDEX_JOIN"));
    let all = p.vec.execute(sql).unwrap();
    assert!(matches!(all.rows[0][0], Value::Int(n) if n > 50_000), "{:?}", all.rows);
    for threads in [1, PARALLEL_THREADS] {
        p.vec.set_threads(threads);
        // The scans materialize ~2130 rows; the budget trips inside the join.
        p.vec.set_exec_limits(ExecLimits { row_budget: Some(10_000), ..ExecLimits::default() });
        assert_trip(p.vec.execute(sql), "row budget");
        p.vec.set_exec_limits(ExecLimits::default());
        p.vec.execute("PRAGMA memory_limit='2MB'").unwrap();
        assert_trip(p.vec.execute(sql), "memory_limit");
        p.vec.execute("PRAGMA memory_limit=0").unwrap();
        p.vec.execute(sql).unwrap();
    }
}

fn metric(db: &Database, name: &str) -> i64 {
    let r = db.execute("PRAGMA metrics").unwrap();
    match r.rows.iter().find(|row| row[0].to_string() == name).map(|row| &row[2]) {
        Some(Value::Int(v)) => *v,
        other => panic!("metric {name}: {other:?}"),
    }
}

#[test]
fn explain_analyze_and_metrics_report_the_join() {
    let p = Pair::new();
    p.vec.set_threads(1);
    let sql = "SELECT a.id, b.id FROM ta a, tb b WHERE a.trip && b.trip";
    let (builds, candidates) =
        (metric(&p.vec, "index_join_builds"), metric(&p.vec, "index_join_candidates"));
    let pq = p.vec.execute_analyzed(sql).unwrap();
    let text = &pq.explain;
    for line in ["INDEX_JOIN", "index: TRTREE", "probe: col#1", "build: col#1", "build rows: 30"] {
        assert!(text.contains(line), "{line:?} missing\n{text}");
    }
    // Every left row is answered by the index (NULL trips with nothing).
    assert!(text.contains(&format!("probes: {LEFT_ROWS}")), "{text}");
    let join = pq.operators.iter().find(|o| o.op == "index_join").expect("index_join operator");
    assert_eq!(join.detail, "TRTREE");
    // The re-check keeps a subset of the candidates.
    let emitted = join.rows_out as i64;
    assert!(emitted >= pq.result.rows.len() as i64, "{text}");
    assert!(text.contains(&format!("candidates: {emitted}")), "{text}");
    // Global counters (process-wide: other tests only add to them).
    assert!(metric(&p.vec, "index_join_builds") > builds);
    assert!(metric(&p.vec, "index_join_candidates") >= candidates + emitted);
}

/// Index scans (TRTREE on quackdb, GIST on the row engine) return exactly
/// the rows `&&` accepts: the R-tree closes every span bound, so a
/// half-open span touching the probe is a candidate the index must drop.
/// `tstzspan` columns are indexed as time-only boxes.
#[test]
fn index_scans_return_exactly_the_rows_overlap_accepts() {
    let cases: [(&str, &[&str], &[&str]); 2] = [
        (
            "STBOX",
            &[
                "'STBOX XT(((1,1),(2,2)),[2025-01-01, 2025-01-02))'::stbox",
                "'STBOX XT(((1,1),(2,2)),[2025-01-01, 2025-01-02])'::stbox",
                "'STBOX XT(((5,5),(6,6)),[2025-01-02, 2025-01-03])'::stbox",
                "'STBOX T([2025-01-03, 2025-01-05))'::stbox",
                "NULL",
            ],
            &[
                "'STBOX XT(((1,1),(2,2)),[2025-01-02, 2025-01-04])'::stbox",
                "'STBOX XT(((0,0),(9,9)),[2025-01-05, 2025-01-06])'::stbox",
                "'STBOX T([2025-01-02, 2025-01-02])'::stbox",
            ],
        ),
        (
            "TSTZSPAN",
            &[
                "'[2025-01-01, 2025-01-02)'::tstzspan",
                "'[2025-01-01, 2025-01-02]'::tstzspan",
                "'(2025-01-02, 2025-01-03]'::tstzspan",
                "'[2025-01-03, 2025-01-05)'::tstzspan",
                "NULL",
            ],
            &[
                "'[2025-01-02, 2025-01-04]'::tstzspan",
                "'(2025-01-01, 2025-01-02)'::tstzspan",
                "'[2025-01-05, 2025-01-06]'::tstzspan",
                "'[2025-01-02, 2025-01-02]'::tstzspan",
            ],
        ),
    ];
    for (ty, values, probes) in cases {
        let p = Pair::new();
        p.exec(&format!("CREATE TABLE b(id INTEGER, v {ty})"));
        let rows: Vec<String> =
            values.iter().enumerate().map(|(i, v)| format!("({i}, {v})")).collect();
        p.exec(&format!("INSERT INTO b VALUES {}", rows.join(", ")));
        let mut queries: Vec<String> = probes
            .iter()
            .map(|probe| format!("SELECT id FROM b WHERE v && {probe} ORDER BY id"))
            .collect();
        if ty == "TSTZSPAN" {
            // A timestamp probes as its singleton box `[t, t]`: the GIST
            // scan re-checks the candidates, TRTREE declines `@>`. The
            // instants lie on inclusive and exclusive bounds.
            for t in ["2025-01-01", "2025-01-02", "2025-01-03", "2025-01-05", "2025-01-07"] {
                queries.push(format!("SELECT id FROM b WHERE v @> '{t}'::timestamptz ORDER BY id"));
            }
            queries.push("SELECT id FROM b WHERE v @> NULL::timestamptz ORDER BY id".into());
        }
        let before: Vec<_> = queries
            .iter()
            .map(|q| strings(&p.row.execute(q).unwrap_or_else(|e| panic!("{e}\n{q}")).rows))
            .collect();
        p.vec.execute("CREATE INDEX bi ON b USING TRTREE(v)").unwrap();
        p.row.execute("CREATE INDEX bi ON b USING GIST(v)").unwrap();
        for (q, want) in queries.iter().zip(&before) {
            assert!(p.plan(q).contains("TRTREE_INDEX_SCAN") || q.contains("@>"), "{}", p.plan(q));
            let vec = strings(&p.vec.execute(q).unwrap_or_else(|e| panic!("{e}\n{q}")).rows);
            let row = strings(&p.row.execute(q).unwrap_or_else(|e| panic!("{e}\n{q}")).rows);
            assert_eq!(&vec, want, "TRTREE\n{q}");
            assert_eq!(&row, want, "GIST\n{q}");
        }
    }
    // A half-open day touching a closed probe, on one row.
    let p = Pair::new();
    p.exec("CREATE TABLE b(id INTEGER, box STBOX)");
    p.vec.execute("CREATE INDEX bi ON b USING TRTREE(box)").unwrap();
    p.exec("INSERT INTO b VALUES (1, 'STBOX XT(((1,1),(2,2)),[2025-01-01, 2025-01-02))')");
    let q = "SELECT id FROM b \
             WHERE box && 'STBOX XT(((1,1),(2,2)),[2025-01-02, 2025-01-04])'::stbox";
    assert!(p.vec.execute(q).unwrap().rows.is_empty());
}

/// A box of another SRID fails the statement with the index as without
/// it, on both engines.
#[test]
fn index_scans_report_srid_mismatches() {
    let p = Pair::new();
    p.exec("CREATE TABLE b(id INTEGER, box STBOX)");
    p.exec("INSERT INTO b VALUES (1, 'SRID=4326;STBOX X((1,1),(2,2))'::stbox)");
    let q = "SELECT id FROM b WHERE box && 'SRID=3857;STBOX X((0,0),(3,3))'::stbox";
    let errors = |p: &Pair| {
        let vec = p.vec.execute(q).err().map(|e| e.to_string()).unwrap_or_default();
        let row = p.row.execute(q).err().map(|e| e.to_string()).unwrap_or_default();
        (vec, row)
    };
    let (vec, row) = errors(&p);
    assert!(vec.contains("SRID") && row.contains("SRID"), "{vec} / {row}");
    p.vec.execute("CREATE INDEX bi ON b USING TRTREE(box)").unwrap();
    p.row.execute("CREATE INDEX bi ON b USING GIST(box)").unwrap();
    assert!(p.plan(q).contains("TRTREE_INDEX_SCAN"));
    let (vec_idx, row_idx) = errors(&p);
    assert!(vec_idx.contains("SRID") && row_idx.contains("SRID"), "{vec_idx} / {row_idx}");
}

/// `2025-01-01` at minute `m` past midnight.
fn minute(m: u64) -> String {
    format!("2025-01-01 {:02}:{:02}:00", m / 60, m % 60)
}

/// Span table `sp` (probe side, LEFT_ROWS spans on a whole-minute grid
/// between 08:00 and 13:30, random bound inclusivity, NULL every 13th),
/// instant table `it` (40 whole minutes in the same window, so many lie
/// exactly on span bounds, NULL every 9th) and an empty instant table
/// `ie`.
fn span_tables() -> Pair {
    let p = Pair::new();
    p.exec("CREATE TABLE sp(id INTEGER, p TSTZSPAN)");
    p.exec("CREATE TABLE it(id INTEGER, t TIMESTAMPTZ)");
    p.exec("CREATE TABLE ie(id INTEGER, t TIMESTAMPTZ)");
    let mut rng = Lcg(11);
    let rows: Vec<String> = (1..=LEFT_ROWS)
        .map(|i| {
            if i % 13 == 0 {
                return format!("({i}, NULL)");
            }
            let lo = 8 * 60 + rng.below(300);
            let hi = lo + 1 + rng.below(30);
            let l = if rng.below(2) == 0 { '[' } else { '(' };
            let u = if rng.below(2) == 0 { ']' } else { ')' };
            format!("({i}, '{l}{}, {}{u}'::tstzspan)", minute(lo), minute(hi))
        })
        .collect();
    p.exec(&format!("INSERT INTO sp VALUES {}", rows.join(", ")));
    let rows: Vec<String> = (1..=40)
        .map(|i| match i % 9 {
            0 => format!("({i}, NULL)"),
            _ => format!("({i}, '{}'::timestamptz)", minute(8 * 60 + rng.below(330))),
        })
        .collect();
    p.exec(&format!("INSERT INTO it VALUES {}", rows.join(", ")));
    p
}

/// `tstzspan @> timestamptz` and `timestamptz <@ tstzspan` link an index
/// join: a timestamp is the singleton time-only box `[t, t]`, on the
/// probe side or the build side. The link keeps its Filter above the
/// join, and the rows equal the cross product's, in its order.
#[test]
fn span_contains_timestamp_links_an_index_join() {
    let p = span_tables();
    let sql = "SELECT s.id, i.id FROM sp s, it i WHERE {{s.p @> i.t}}";
    let rows = p.check(sql, "TRTREE");
    assert!(rows.len() > 100, "{} rows", rows.len());
    let plan = p.plan(&variants(sql).0);
    assert!(plan.contains("link: @>([col#1, col#3])"), "{plan}");
    let boxes = box_titles(&plan);
    let join = boxes.iter().position(|(t, _)| t == "INDEX_JOIN").expect(&plan);
    assert_eq!(boxes[join - 1], ("FILTER".into(), "@>([col#1, col#3])".into()), "{plan}");
    // The index answers every probe, NULL spans included.
    p.vec.set_threads(1);
    let explain = p.vec.execute_analyzed(&variants(sql).0).unwrap().explain;
    assert!(explain.contains(&format!("probes: {LEFT_ROWS}")), "{explain}");
    // Instants exactly on a bound: inclusive bounds keep them, exclusive
    // ones do not.
    p.exec("CREATE TABLE sq(id INTEGER, p TSTZSPAN)");
    p.exec("CREATE TABLE iq(id INTEGER, t TIMESTAMPTZ)");
    let spans = ["[09:00, 09:10)", "(09:00, 09:10]", "[09:00, 09:10]", "(09:00, 09:10)"];
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| format!("({}, '{}'::tstzspan)", i + 1, s.replace(", ", ", 2025-01-01 ")))
        .collect();
    p.exec(&format!(
        "INSERT INTO sq VALUES {}, (5, NULL)",
        rows.join(", ").replace("'[", "'[2025-01-01 ").replace("'(", "'(2025-01-01 ")
    ));
    let instants = ["09:00", "09:10", "09:05", "08:59", "09:11"];
    let rows: Vec<String> = instants
        .iter()
        .enumerate()
        .map(|(i, t)| format!("({}, '2025-01-01 {t}'::timestamptz)", i + 1))
        .collect();
    p.exec(&format!("INSERT INTO iq VALUES {}, (6, NULL)", rows.join(", ")));
    let pairs = |rows: Vec<Vec<Value>>| strings(&rows).into_iter().map(|r| r.join("-")).collect::<Vec<_>>();
    let want = ["1-1", "1-3", "2-2", "2-3", "3-1", "3-2", "3-3", "4-3"];
    let rows = p.check("SELECT s.id, i.id FROM sq s, iq i WHERE {{s.p @> i.t}}", "TRTREE");
    assert_eq!(pairs(rows), want);
    let rows = p.check("SELECT s.id, i.id FROM iq i, sq s WHERE {{i.t <@ s.p}}", "TRTREE");
    let mut got = pairs(rows);
    got.sort();
    assert_eq!(got, want);
    // The timestamp on the probe side, the spans indexed.
    p.check("SELECT i.id, s.id FROM it i, sp s WHERE {{s.p @> i.t}}", "TRTREE");
    // `<@`, both ways round.
    p.check("SELECT s.id, i.id FROM sp s, it i WHERE {{i.t <@ s.p}}", "TRTREE");
    p.check("SELECT i.id, s.id FROM it i, sp s WHERE {{i.t <@ s.p}}", "TRTREE");
    // A conjunct written before the link, and one after it.
    p.check(
        "SELECT s.id, i.id FROM sp s, it i WHERE s.id % 7 < i.id % 5 AND {{s.p @> i.t}}",
        "TRTREE",
    );
    p.check(
        "SELECT i.id, s.id, s.p FROM it i, sp s WHERE {{i.t <@ s.p}} AND s.id % 3 <> i.id % 3",
        "TRTREE",
    );
    // Empty sides, as tables and emptied by their own conjuncts.
    assert!(p.check("SELECT s.id FROM sp s, ie e WHERE {{s.p @> e.t}}", "TRTREE").is_empty());
    assert!(p.check("SELECT s.id FROM ie e, sp s WHERE {{e.t <@ s.p}}", "TRTREE").is_empty());
    let q = "SELECT s.id FROM sp s, it i WHERE i.id < 0 AND {{s.p @> i.t}}";
    assert!(p.check(q, "TRTREE").is_empty());
}

/// The row engine's GIST index-nested-loop join answers `span @> t`
/// through the singleton box too, with the rows it returns without the
/// index.
#[test]
fn gist_index_nested_loop_answers_span_contains_timestamp() {
    let p = span_tables();
    let sql = "SELECT i.id, s.id FROM it i, sp s WHERE s.p @> i.t ORDER BY i.id, s.id";
    let before = strings(&p.row.execute(sql).unwrap().rows);
    assert!(!before.is_empty());
    p.row.execute("CREATE INDEX spi ON sp USING GIST(p)").unwrap();
    let plan = strings(&p.row.execute(&format!("EXPLAIN {sql}")).unwrap().rows);
    assert!(format!("{plan:?}").contains("index probe: @>"), "{plan:?}");
    assert_eq!(strings(&p.row.execute(sql).unwrap().rows), before);
}

/// A folded `&&` re-checks the pairs of every probe the index cannot
/// answer, so each statement returns the rows, or raises the error, of
/// the cross product and its Filters. Of the SRID-4326 boxes in `sa`, every
/// 50th is replaced by a box of another SRID covering the whole area: its
/// probe errors in the index and pairs with every right row, while the
/// other probes of its chunk are answered.
#[test]
fn folded_overlap_falls_back_to_the_filtered_cross_product() {
    let p = Pair::new();
    p.exec("CREATE TABLE sa(id INTEGER, b STBOX)");
    p.exec("CREATE TABLE sb(id INTEGER, b STBOX)");
    let mut rng = Lcg(13);
    let mut boxes = |i: usize, other_srid: bool| {
        if other_srid {
            return format!("({i}, 'SRID=3857;STBOX X((0,0),(2000,2000))'::stbox)");
        }
        let (x, y) = (rng.below(1800), rng.below(1800));
        format!("({i}, 'SRID=4326;STBOX X(({x},{y}),({},{}))'::stbox)", x + 150, y + 150)
    };
    let rows: Vec<String> = (1..=LEFT_ROWS).map(|i| boxes(i, i % 50 == 0)).collect();
    p.exec(&format!("INSERT INTO sa VALUES {}", rows.join(", ")));
    let rows: Vec<String> = (1..=RIGHT_ROWS).map(|i| boxes(i, false)).collect();
    p.exec(&format!("INSERT INTO sb VALUES {}", rows.join(", ")));

    // SRID mismatch: the cross product's error.
    let err = p.check_error("SELECT a.id, b.id FROM sa a, sb b WHERE {{a.b && b.b}}");
    assert!(err.contains("SRID"), "{err}");
    let sql = "SELECT a.id, b.id FROM sa a, sb b WHERE {{a.b && b.b}} AND a.id % 50 <> b.id * 0";
    assert!(p.check_error(sql).contains("SRID"));
    let sql = "SELECT a.id, b.id FROM sa a, sb b WHERE {{a.b && b.b}} AND {{b.b && a.b}}";
    assert!(p.check_error(sql).contains("SRID"));
    // A conjunct written before `&&` drops the mismatched pairs first, in
    // the join as in the Filters; the answered probes keep their
    // candidates in cross-product order around the fallen-back ones.
    let sql = "SELECT a.id, b.id FROM sa a, sb b WHERE a.id % 50 <> b.id * 0 AND {{a.b && b.b}}";
    let rows = p.check(sql, "TRTREE");
    assert!(rows.len() > 100, "{} rows", rows.len());
    p.vec.set_threads(1);
    let explain = p.vec.execute_analyzed(&variants(sql).0).unwrap().explain;
    let fell_back = LEFT_ROWS / 50;
    assert!(explain.contains(&format!("probes: {}", LEFT_ROWS - fell_back)), "{explain}");

    // Time-only against space-only boxes share no dimension.
    let sql = "SELECT t.id, s.id FROM tt t, sx s WHERE t.id < s.id - 100 AND {{t.b && s.b}}";
    assert!(p.check(sql, "TRTREE").is_empty());
    let err = p.check_error("SELECT t.id, s.id FROM tt t, sx s WHERE t.id < s.id AND {{t.b && s.b}}");
    assert!(err.contains("share no dimension"), "{err}");

    // A build side that fails to evaluate (a division by zero on every
    // fifth right row) indexes nothing: every probe falls back.
    let build = "expandSpace(b.trip::STBOX, 10 / (b.id % 5))";
    let err = p.check_error(&format!("SELECT a.id, b.id FROM ta a, tb b WHERE {{{{a.trip && {build}}}}}"));
    assert!(err.contains("division by zero"), "{err}");
    let sql = format!(
        "SELECT a.id, b.id FROM ta a, tb b WHERE b.id % 5 <> a.id * 0 AND {{{{a.trip && {build}}}}}"
    );
    assert!(!p.check(&sql, "TRTREE").is_empty());
    let explain = p.vec.execute_analyzed(&variants(&sql).0).unwrap().explain;
    assert!(explain.contains("probes: 0"), "{explain}");
}
