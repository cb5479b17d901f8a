//! Differential suite for the pruning pass (DESIGN.md §11): every scan,
//! join and Filter of a block hands on only the columns something above
//! it reads, and the results stay those of the row engine, which never
//! prunes.
//!
//! - `count(*)` over pruned scans, joins and Filters: their chunks carry
//!   no column and must keep their length;
//! - `SELECT *`, and ORDER BY a column the projection drops;
//! - GROUP BY and HAVING, and blocks with a subquery, which the pass
//!   leaves as they are;
//! - CTE bodies and FROM subqueries;
//! - index joins whose folded conjuncts read columns nothing above reads,
//!   and hash keys dropped after their join;
//! - a plan check: no node of the 17 BerlinMOD plans, nor of any
//!   statement here, hands on a column nothing above it reads, outside
//!   the blocks the pass leaves as they are (the main blocks of Q7 and
//!   Q17).
//!
//! Every statement runs at threads 1 and 4 and must print the same
//! `{:?}` as the row engine, row order included under ORDER BY.

use std::collections::BTreeSet;

use berlinmod::{benchmark_queries, BerlinModData, RoadNetwork, ScaleFactor};
use mduck_rowdb::RowDatabase;
use mduck_sql::{BoundExpr, BoundSelect, SortKey, Value};
use quackdb::exec::{PhysOp, PlannedSelect};
use quackdb::prune::prunable;
use quackdb::{Database, VECTOR_SIZE};

struct Pair {
    vec: Database,
    row: RowDatabase,
}

impl Pair {
    /// `w(id, k, pad)` over 2.5 chunks and `v(id, k, tag)` over 300
    /// rows, with NULL keys; `ta`/`tb` of `(id, k, g, h)` boxes for index
    /// joins.
    fn new() -> Self {
        let p = Pair { vec: Database::new(), row: RowDatabase::new() };
        mobilityduck::load(&p.vec);
        mobilityduck::load_row(&p.row);
        let n = 5 * VECTOR_SIZE / 2;
        p.both("CREATE TABLE w(id INTEGER, k INTEGER, pad TEXT)");
        p.both(&format!(
            "INSERT INTO w SELECT i, CASE WHEN i % 11 = 0 THEN NULL ELSE i % 7 END, \
             'pad-' || i FROM generate_series(1, {n}) AS g(i)"
        ));
        p.both("CREATE TABLE v(id INTEGER, k INTEGER, tag TEXT)");
        p.both(
            "INSERT INTO v SELECT i, CASE WHEN i % 13 = 0 THEN NULL ELSE i % 5 END, \
             'tag-' || (i % 4) FROM generate_series(1, 300) AS g(i)",
        );
        for (t, rows) in [("ta", 40), ("tb", 30)] {
            p.both(&format!("CREATE TABLE {t}(id INTEGER, k INTEGER, g STBOX, h STBOX)"));
            p.both(&format!(
                "INSERT INTO {t} SELECT i, i % 3, \
                 stbox(ST_MakeEnvelope(i * 1.0, 0.0, i + 4.0, 1.0)), \
                 stbox(ST_MakeEnvelope(0.0, i % 5 * 1.0, 1.0, i % 5 + 2.0)) \
                 FROM generate_series(1, {rows}) AS g(i)"
            ));
        }
        p
    }

    fn both(&self, sql: &str) {
        self.vec.execute(sql).unwrap_or_else(|e| panic!("vecdb: {e}\n{sql}"));
        self.row.execute(sql).unwrap_or_else(|e| panic!("rowdb: {e}\n{sql}"));
    }

    /// `sql` on quackdb at threads 1 and 4 prints the row engine's rows,
    /// and its plan prunes every column nothing reads. Returns the rows.
    fn check(&self, sql: &str) -> Vec<Vec<Value>> {
        let want = self.row.execute(sql).unwrap_or_else(|e| panic!("rowdb: {e}\n{sql}")).rows;
        for threads in [1, 4] {
            self.vec.set_threads(threads);
            let got = self.vec.execute(sql).unwrap_or_else(|e| panic!("vecdb: {e}\n{sql}")).rows;
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "threads={threads}\n{sql}");
        }
        assert_pruned(&self.vec, sql);
        want
    }

    fn explain(&self, sql: &str) -> String {
        self.vec.execute(&format!("EXPLAIN {sql}")).unwrap().rows[0][0].to_string()
    }
}

// ------------------------------------------------------------ plan check

/// Every block of `sql`'s plan that the pass may prune hands on no column
/// nothing above reads. Returns the blocks it left as they are.
fn assert_pruned(db: &Database, sql: &str) -> usize {
    let plan = db.plan_of(sql).unwrap_or_else(|e| panic!("{e}\n{sql}"));
    let mut unpruned = 0;
    check_block(&plan.bound, &plan.planned, &mut unpruned).unwrap_or_else(|e| {
        panic!("{e}\n{sql}\n{}", db.execute(&format!("EXPLAIN {sql}")).unwrap().rows[0][0])
    });
    unpruned
}

fn check_block(
    plan: &BoundSelect,
    planned: &PlannedSelect,
    unpruned: &mut usize,
) -> Result<(), String> {
    for (cte, cte_planned) in plan.ctes.iter().zip(&planned.ctes) {
        check_block(&cte.plan, cte_planned, unpruned)?;
    }
    let Some((tree, remaining)) = &planned.tree else { return Ok(()) };
    if !prunable(plan) {
        *unpruned += 1;
        return check_subqueries(tree, unpruned);
    }
    // What the block reads of its tree's rows.
    let mut above: Vec<&BoundExpr> = remaining.iter().collect();
    above.extend(&plan.group_by);
    above.extend(plan.aggregates.iter().flat_map(|a| &a.args));
    if !plan.aggregated {
        above.extend(&plan.projections);
        above.extend(plan.order_by.iter().filter_map(|o| match &o.key {
            SortKey::Input(e) => Some(e),
            SortKey::Output(_) => None,
        }));
    }
    check_op(tree, &reads(&[], above), unpruned)
}

/// The FROM subqueries under `op`, checked as blocks of their own.
fn check_subqueries(op: &PhysOp, unpruned: &mut usize) -> Result<(), String> {
    match op {
        PhysOp::SubqueryScan { plan, planned, .. } => check_block(plan, planned, unpruned),
        PhysOp::Filter { child, .. } => check_subqueries(child, unpruned),
        PhysOp::HashJoin { left, right, .. }
        | PhysOp::CrossJoin { left, right, .. }
        | PhysOp::IndexJoin { left, right, .. } => {
            check_subqueries(left, unpruned)?;
            check_subqueries(right, unpruned)
        }
        _ => Ok(()),
    }
}

/// Every column `op` hands on is in `read`, the columns its parent reads
/// of it; then the same for its children.
fn check_op(op: &PhysOp, read: &BTreeSet<usize>, unpruned: &mut usize) -> Result<(), String> {
    let width = op.columns().len();
    if let Some(i) = (0..width).find(|i| !read.contains(i)) {
        return Err(format!("{op:?}\nhands on column {i}, which nothing above reads"));
    }
    if let Some(i) = read.iter().find(|&&i| i >= width) {
        return Err(format!("{op:?}\nis read at column {i} of {width}"));
    }
    let split = |lw: usize, both: Vec<&BoundExpr>| {
        let all = reads(op.columns(), both);
        let left = all.iter().filter(|&&i| i < lw).copied().collect::<Vec<_>>();
        let right = all.iter().filter_map(|&i| i.checked_sub(lw)).collect::<Vec<_>>();
        (left, right)
    };
    match op {
        PhysOp::Filter { pred, child, columns, .. } => {
            check_op(child, &reads(columns, [pred]), unpruned)
        }
        PhysOp::HashJoin { left, right, left_keys, right_keys, .. } => {
            let (l, r) = split(left.columns().len(), Vec::new());
            check_op(left, &reads(&l, left_keys), unpruned)?;
            check_op(right, &reads(&r, right_keys), unpruned)
        }
        PhysOp::CrossJoin { left, right, .. } => {
            let (l, r) = split(left.columns().len(), Vec::new());
            check_op(left, &reads(&l, []), unpruned)?;
            check_op(right, &reads(&r, []), unpruned)
        }
        PhysOp::IndexJoin { left, right, probe, build, cond, folded, .. } => {
            let folded = folded.iter().flat_map(|f| f.before.iter().chain(&f.after));
            let (l, r) = split(left.columns().len(), [cond].into_iter().chain(folded).collect());
            check_op(left, &reads(&l, [probe]), unpruned)?;
            check_op(right, &reads(&r, [build]), unpruned)
        }
        PhysOp::SubqueryScan { plan, planned, .. } => check_block(plan, planned, unpruned),
        _ => Ok(()),
    }
}

fn reads<'e>(columns: &[usize], exprs: impl IntoIterator<Item = &'e BoundExpr>) -> BTreeSet<usize> {
    let mut out: Vec<usize> = columns.to_vec();
    exprs.into_iter().for_each(|e| e.collect_columns(&mut out));
    out.into_iter().collect()
}

// ------------------------------------------------------------ statements

#[test]
fn count_star_over_column_less_chunks_keeps_every_row() {
    let p = Pair::new();
    let n = 5 * VECTOR_SIZE as i64 / 2;
    assert_eq!(p.check("SELECT count(*) FROM w"), vec![vec![Value::Int(n)]]);
    p.check("SELECT count(*) FROM w WHERE id % 3 = 0");
    p.check("SELECT count(*) FROM w a, v b WHERE a.k = b.k");
    p.check("SELECT count(*) FROM w a, v b WHERE a.k = b.k AND a.id > b.id");
    // A cross product of two column-less sides.
    p.check("SELECT count(*) FROM v a, v b");
    p.check("SELECT count(*) FROM v a, v b WHERE a.id + b.id > 590");
    p.check("SELECT 1 FROM v a, v b LIMIT 3");
    p.check("SELECT DISTINCT 7 FROM w");
    p.check("SELECT count(*) FROM (SELECT id, pad FROM w) s");
    p.check("WITH c AS (SELECT id, pad FROM w) SELECT count(*) FROM c");
    p.check("SELECT count(*) FROM generate_series(1, 5000) AS g(i)");
    // A conjunct that reads no column stays above the tree.
    p.check("SELECT count(*) FROM w WHERE 1 = 0");
    p.check("SELECT id FROM w WHERE 2 > 1 ORDER BY id DESC LIMIT 3");
    assert!(p.explain("SELECT count(*) FROM w").contains("columns: []"));
}

#[test]
fn select_star_and_order_by_a_dropped_column() {
    let p = Pair::new();
    p.check("SELECT * FROM w a, v b WHERE a.k = b.k AND b.id < 40 ORDER BY a.id, b.id");
    p.check("SELECT a.pad FROM w a, v b WHERE a.k = b.k AND b.id < 20 ORDER BY b.id DESC, a.id");
    p.check("SELECT b.tag FROM w a, v b WHERE a.id = b.id ORDER BY a.pad");
    p.check("SELECT a.id FROM w a WHERE a.k = 3 ORDER BY a.pad DESC LIMIT 5");
    let plan = p.explain("SELECT a.id FROM w a WHERE a.k = 3 ORDER BY a.pad DESC LIMIT 5");
    assert!(plan.contains("columns: [0, 2]"), "{plan}");
}

#[test]
fn group_by_having_and_subquery_blocks() {
    let p = Pair::new();
    p.check(
        "SELECT b.k, count(*), max(a.pad) FROM w a, v b WHERE a.k = b.k \
         GROUP BY b.k ORDER BY b.k",
    );
    p.check(
        "SELECT b.tag, count(a.id) FROM w a, v b WHERE a.id = b.id \
         GROUP BY b.tag HAVING count(*) > 70 ORDER BY b.tag",
    );
    p.check("SELECT count(*) FROM w GROUP BY k ORDER BY k");
    // A correlated subquery reads the row by position: its block keeps
    // every column.
    let sql = "SELECT a.id, (SELECT count(*) FROM v b WHERE b.k = a.k) FROM w a \
               WHERE a.id < 50 ORDER BY a.id";
    p.check(sql);
    assert_eq!(assert_pruned(&p.vec, sql), 1);
    assert!(p.explain(sql).contains("columns: [0, 1, 2]"), "{}", p.explain(sql));
    p.check(
        "SELECT id FROM w a WHERE EXISTS (SELECT 1 FROM v b WHERE b.id = a.id * 7) ORDER BY id",
    );
    // An uncorrelated subquery body is planned, and pruned, as it runs.
    p.check(
        "SELECT id FROM v WHERE k > (SELECT avg(b.k) FROM w a, v b WHERE a.id = b.id) \
         ORDER BY id",
    );
    p.check("SELECT id FROM v WHERE id > ALL (SELECT a.id - 290 FROM w a, v b WHERE a.id = b.id)");
}

#[test]
fn cte_bodies_and_from_subqueries() {
    let p = Pair::new();
    let sql = "WITH c AS (SELECT a.id, a.k, b.tag, a.pad FROM w a, v b WHERE a.id = b.id) \
               SELECT c.tag, count(*) FROM c, v d WHERE c.k = d.k GROUP BY c.tag ORDER BY c.tag";
    p.check(sql);
    let plan = p.explain(sql);
    assert!(plan.contains("CTE_SCAN") && plan.contains("columns: [1, 2]"), "{plan}");
    p.check(
        "SELECT s.k, s.pad FROM (SELECT a.k, a.pad, b.id FROM w a, v b WHERE a.id = b.id) s \
         WHERE s.id > 250 ORDER BY s.k, s.pad",
    );
    p.check(
        "SELECT count(*) FROM (SELECT b.tag FROM (SELECT id, k FROM w) a, v b WHERE a.id = b.id) s",
    );
}

#[test]
fn index_join_conjuncts_and_hash_keys_read_pruned_columns() {
    let p = Pair::new();
    // `before` (ahead of the link) reads k on both sides; only a.id goes
    // on.
    let sql = "SELECT a.id FROM ta a, tb b WHERE a.k <> b.k AND a.g && b.g";
    p.check(&format!("{sql} ORDER BY a.id"));
    let plan = p.explain(sql);
    assert!(plan.contains("INDEX_JOIN"), "{plan}");
    // `after` (strict `&&` right behind the link) reads h on both sides.
    let sql = "SELECT count(*) FROM ta a, tb b WHERE a.g && b.g AND a.h && b.h";
    p.check(sql);
    let plan = p.explain(sql);
    assert_eq!(plan.matches("cond: ").count(), 2, "{plan}");
    p.check(
        "SELECT a.id, b.id FROM ta a, tb b WHERE a.g && b.g AND a.h && b.h ORDER BY a.id, b.id",
    );
    // The first join's keys are read by nothing above it.
    p.check(
        "SELECT a.pad, c.tag FROM w a, v b, v c WHERE a.k = b.k AND b.id = c.id AND a.id < 100 \
         ORDER BY a.pad, c.tag",
    );
}

#[test]
fn berlinmod_plans_hand_on_only_read_columns() {
    let net = RoadNetwork::generate(1);
    let data = BerlinModData::generate(&net, ScaleFactor(0.001), 1);
    let vdb = Database::new();
    mobilityduck::load(&vdb);
    data.load_into_quack(&vdb).unwrap();
    let queries = benchmark_queries();
    assert_eq!(queries.len(), 17);
    for (id, _, sql) in queries {
        // The main blocks of Q7 and Q17 compare each row with an `ALL`
        // subquery, so the pass leaves them (a CTE scan each) as they are.
        let unpruned = usize::from(id == 7 || id == 17);
        assert_eq!(assert_pruned(&vdb, sql), unpruned, "Q{id}: blocks left unpruned");
    }
}
