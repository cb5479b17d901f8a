//! Durability overhead report: WAL-on vs in-memory ingest of the
//! BerlinMOD dataset, plus cold recovery time, on both engines.
//!
//! Each (engine, mode) cell loads the full SF dataset through the
//! engines' bulk commit path (`insert_rows`), which appends one WAL
//! record per table when a WAL is attached — the same discipline as an
//! INSERT statement. Recovery reopens the WAL cold (checkpoint decode +
//! record replay) into a fresh instance.
//!
//! Emits `BENCH_durability.json` (one record per measurement) and a
//! human-readable table on stdout.
//!
//!   durability_ingest --sf 0.001 --runs 3

use std::path::PathBuf;
use std::time::Instant;

use berlinmod::{BerlinModData, RoadNetwork, ScaleFactor};
use mduck_bench::json::Json;
use mduck_bench::render_table;
use mduck_sql::{SqlResult, Value};

fn wal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mduck_bench_dur_{}_{tag}.wal", std::process::id()))
}

fn cleanup(p: &PathBuf) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(format!("{}.ckpt", p.display()));
    let _ = std::fs::remove_file(format!("{}.ckpt.tmp", p.display()));
}

fn file_len(p: &PathBuf) -> u64 {
    std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// One engine's three measurements, medians over `runs` samples.
struct Cell {
    engine: &'static str,
    mem_ms: f64,
    wal_ms: f64,
    recover_ms: f64,
    wal_bytes: u64,
    ckpt_bytes: u64,
}

/// One engine's cell. `fresh` builds an empty instance with the
/// extension loaded, `attach` attaches (and recovers) a WAL, `load`
/// bulk-loads the dataset and `count_trips` queries the recovered trips.
fn bench<D>(
    engine: &'static str,
    runs: usize,
    fresh: impl Fn() -> D,
    attach: impl Fn(&D, &PathBuf) -> SqlResult<()>,
    load: impl Fn(&D) -> SqlResult<()>,
    count_trips: impl Fn(&D) -> SqlResult<Vec<Vec<Value>>>,
) -> Cell {
    let mut mem = Vec::new();
    let mut wal = Vec::new();
    let mut rec = Vec::new();
    let mut wal_bytes = 0;
    let mut ckpt_bytes = 0;
    for run in 0..runs {
        let t0 = Instant::now();
        let db = fresh();
        load(&db).expect("in-memory load");
        mem.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(db);

        let path = wal_path(&format!("{engine}_{run}"));
        cleanup(&path);
        let t0 = Instant::now();
        let db = fresh();
        attach(&db, &path).expect("attach wal");
        load(&db).expect("wal load");
        wal.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(db);
        wal_bytes = file_len(&path);
        ckpt_bytes = file_len(&PathBuf::from(format!("{}.ckpt", path.display())));

        let t0 = Instant::now();
        let db = fresh();
        attach(&db, &path).expect("recover");
        rec.push(t0.elapsed().as_secs_f64() * 1e3);
        let n = count_trips(&db).expect("recovered query");
        assert!(!n.is_empty(), "recovery lost the trips table");
        cleanup(&path);
    }
    Cell {
        engine,
        mem_ms: median(mem),
        wal_ms: median(wal),
        recover_ms: median(rec),
        wal_bytes,
        ckpt_bytes,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sf: f64 = args
        .iter()
        .position(|a| a == "--sf")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.001);
    let runs: usize = args
        .iter()
        .position(|a| a == "--runs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);

    eprintln!("preparing SF-{sf} ...");
    let net = RoadNetwork::generate(42);
    let data = BerlinModData::generate(&net, ScaleFactor(sf), 42);
    let total_rows: usize = data.trips.len() + data.vehicles.len();

    const TRIPS: &str = "SELECT count(*) FROM trips";
    let cells = [
        bench(
            "quackdb",
            runs,
            || {
                let db = quackdb::Database::new();
                mobilityduck::load(&db);
                db
            },
            |db, path| db.attach_wal(path),
            |db| data.load_into_quack(db),
            |db| db.execute(TRIPS).map(|r| r.rows),
        ),
        bench(
            "rowdb",
            runs,
            || {
                let db = mduck_rowdb::RowDatabase::new();
                mobilityduck::load_row(&db);
                db
            },
            |db, path| db.attach_wal(path),
            |db| data.load_into_row(db, false),
            |db| db.execute(TRIPS).map(|r| r.rows),
        ),
    ];

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for c in &cells {
        let overhead = if c.mem_ms > 0.0 { c.wal_ms / c.mem_ms } else { 1.0 };
        rows.push(vec![
            c.engine.to_string(),
            format!("{:.1}", c.mem_ms),
            format!("{:.1}", c.wal_ms),
            format!("{overhead:.2}x"),
            format!("{:.1}", c.recover_ms),
            format!("{}", c.wal_bytes),
            format!("{}", c.ckpt_bytes),
        ]);
        records.push(Json::Obj(vec![
            ("engine", Json::Str(c.engine.to_string())),
            ("sf", Json::Num(sf)),
            ("runs", Json::Int(runs as i64)),
            ("ingest_memory_ms", Json::Num(c.mem_ms)),
            ("ingest_wal_ms", Json::Num(c.wal_ms)),
            ("wal_overhead", Json::Num(overhead)),
            ("recovery_ms", Json::Num(c.recover_ms)),
            ("wal_bytes", Json::Int(c.wal_bytes as i64)),
            ("checkpoint_bytes", Json::Int(c.ckpt_bytes as i64)),
        ]));
    }

    println!(
        "\nDurability — SF-{sf}: {} vehicles, {} trips (~{total_rows} primary rows; \
         median of {runs})\n",
        data.vehicles.len(),
        data.trips.len()
    );
    println!(
        "{}",
        render_table(
            &[
                "engine",
                "ingest mem (ms)",
                "ingest wal (ms)",
                "overhead",
                "recovery (ms)",
                "wal bytes",
                "ckpt bytes"
            ],
            &rows
        )
    );

    match std::fs::write("BENCH_durability.json", Json::render_lines(&records)) {
        Ok(()) => println!("wrote BENCH_durability.json ({} records)", records.len()),
        Err(e) => eprintln!("failed to write BENCH_durability.json: {e}"),
    }
}
