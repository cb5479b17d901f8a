//! Regenerates **Figure 2**: R-tree index scan versus sequential scan, for
//! MobilityDuck's stbox TRTREE and the Spatial-style geometry RTREE, at
//! table sizes 1k / 10k / 100k / 1M rows (mean of 5 runs, as the paper
//! reports).
//!
//! Pass `--small` to stop at 100k rows (CI-friendly).

#![forbid(unsafe_code)]

use std::time::Instant;

use mduck_bench::render_table;
use quackdb::Database;

fn setup_stbox(n: usize, with_index: bool) -> Database {
    let db = Database::new();
    mobilityduck::load(&db);
    db.execute("CREATE TABLE test_geo(times TIMESTAMPTZ, box STBOX)").unwrap();
    if with_index {
        db.execute("CREATE INDEX rtree_stbox ON test_geo USING TRTREE(box)").unwrap();
    }
    db.execute(&format!(
        "INSERT INTO test_geo \
         SELECT ('2025-08-11 12:00:00'::timestamp + INTERVAL (i || ' minutes')), \
                ('STBOX X((' || (i * 1.0)::DECIMAL(10,2) || ',' || (i * 1.0)::DECIMAL(10,2) || \
                '),(' || (i * 1.0 + 0.5)::DECIMAL(10,2) || ',' || (i * 1.0 + 0.5)::DECIMAL(10,2) || \
                '))')::stbox \
         FROM generate_series(1, {n}) AS t(i)"
    ))
    .unwrap();
    db
}

fn setup_geom(n: usize, with_index: bool) -> Database {
    // The paper's test_geo_geom table: same synthetic data plus a geometry
    // column derived from the box, indexed with Spatial's RTREE.
    let db = Database::new();
    mobilityduck::load(&db);
    db.execute("CREATE TABLE test_geo_geom(times TIMESTAMPTZ, box STBOX, geom GEOMETRY)")
        .unwrap();
    db.execute(&format!(
        "INSERT INTO test_geo_geom \
         SELECT ('2025-08-11 12:00:00'::timestamp + INTERVAL (i || ' minutes')), \
                ('STBOX X((' || (i * 1.0)::DECIMAL(10,2) || ',' || (i * 1.0)::DECIMAL(10,2) || \
                '),(' || (i * 1.0 + 0.5)::DECIMAL(10,2) || ',' || (i * 1.0 + 0.5)::DECIMAL(10,2) || \
                '))')::stbox, NULL \
         FROM generate_series(1, {n}) AS t(i)"
    ))
    .unwrap();
    db.execute("UPDATE test_geo_geom SET geom = geometry(box)::GEOMETRY").unwrap();
    if with_index {
        db.execute("CREATE INDEX rtree_geom ON test_geo_geom USING RTREE(geom)").unwrap();
    }
    db
}

/// Mean of 5 runs, in seconds.
fn time5(db: &Database, sql: &str) -> f64 {
    db.execute(sql).unwrap(); // warm-up
    let mut total = 0.0;
    for _ in 0..5 {
        let t = Instant::now();
        db.execute(sql).unwrap();
        total += t.elapsed().as_secs_f64();
    }
    total / 5.0
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let scales: &[usize] = if small {
        &[1_000, 10_000, 100_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    let mut rows = Vec::new();
    for &n in scales {
        // Query boxes near the upper-right corner, as in §4.4.
        let lo = n as f64;
        let hi = n as f64 * 1.1;
        let stbox_q = format!(
            "SELECT * FROM test_geo WHERE box && STBOX('STBOX X(({lo},{lo}),({hi},{hi}))')"
        );
        let geom_q = format!(
            "SELECT * FROM test_geo_geom WHERE geom && ST_MakeEnvelope({lo}, {lo}, {hi}, {hi})"
        );

        let db = setup_stbox(n, true);
        let t_idx = time5(&db, &stbox_q);
        let db = setup_stbox(n, false);
        let t_seq = time5(&db, &stbox_q);
        let db = setup_geom(n, true);
        let g_idx = time5(&db, &geom_q);
        let db = setup_geom(n, false);
        let g_seq = time5(&db, &geom_q);

        rows.push(vec![
            n.to_string(),
            format!("{t_idx:.6}"),
            format!("{t_seq:.6}"),
            format!("{g_idx:.6}"),
            format!("{g_seq:.6}"),
        ]);
        eprintln!("scale {n} done");
    }
    println!("Figure 2: R-tree index scan vs sequential scan (mean of 5 runs, seconds)\n");
    println!(
        "{}",
        render_table(
            &[
                "rows",
                "MobilityDuck TRTREE (s)",
                "MobilityDuck seq (s)",
                "geometry RTREE (s)",
                "geometry seq (s)",
            ],
            &rows,
        )
    );
    println!("Expected shape (paper): both index scans stay ~flat as the table grows;");
    println!("both sequential scans grow ~linearly; the stbox TRTREE is the fastest,");
    println!("especially at the largest scale.");
}
