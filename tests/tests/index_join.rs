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
    // Both conjuncts re-run over the candidates, in written order (the
    // later-written filter renders first, above the earlier one).
    let lt = p_text.find("(col#0 < (col#2 * lit(Int(").expect(&p_text);
    let ov = p_text.find("&&([col#1, col#4])").expect(&p_text);
    assert!(ov < lt && lt < p_text.find("INDEX_JOIN").expect(&p_text), "{p_text}");
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
    let sql = "SELECT count(*) FROM ta a, tb b \
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
    for line in ["INDEX_JOIN", "index: TRTREE", "probe: col#1", "build: col#2", "build rows: 30"] {
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
            // No box for a timestamp: the GIST scan declines.
            let q = "SELECT id FROM b WHERE v @> '2025-01-02'::timestamptz ORDER BY id";
            queries.push(q.into());
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
