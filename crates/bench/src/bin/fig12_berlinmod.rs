//! Regenerates **Figure 12**: the 17 BerlinMOD-Hanoi benchmark queries at
//! SF-0.001 / 0.002 / 0.005 / 0.01, across the three scenarios
//! (MobilityDuck; MobilityDB without indexes; MobilityDB with indexes).
//! Prints runtimes in milliseconds plus a per-query winner summary.
//!
//! Pass `--small` to run SF-0.001 only; `--runs N` to change the sample
//! count (default 3, median reported); `--skip 12` to leave a query out,
//! `--skip-baselines 12` to run it on MobilityDuck only (the row-engine
//! baselines join in FROM order, and Q12's FROM order pairs trips with
//! trips).
//!
//! Besides the plain-text tables, the run emits two machine-readable
//! reports into the working directory:
//! - `BENCH_queries.json` — one record per (query, scale factor, engine,
//!   thread count) with mean/p50/p95 runtimes and the result row count; the
//!   vectorized engine is measured at threads=1 and, on multi-core hosts,
//!   threads=max (morsel-driven parallelism);
//! - `BENCH_operators.json` — the vectorized engine's per-operator
//!   `EXPLAIN ANALYZE` breakdown for every (query, scale factor).

#![forbid(unsafe_code)]

use berlinmod::{benchmark_queries, ScaleFactor};
use mduck_bench::json::Json;
use mduck_bench::{render_table, BenchEnv, Scenario};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let runs: usize = args
        .iter()
        .position(|a| a == "--runs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let sf_arg: Option<f64> = args
        .iter()
        .position(|a| a == "--sf")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let ids = |flag: &str| -> Vec<u32> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(|v| v.split(',').filter_map(|x| x.parse().ok()).collect())
            .unwrap_or_default()
    };
    let skip = ids("--skip");
    let skip_baselines = ids("--skip-baselines");
    let single;
    let sfs: &[f64] = if let Some(sf) = sf_arg {
        single = [sf];
        &single
    } else if small {
        &[0.001]
    } else {
        &[0.001, 0.002, 0.005, 0.01]
    };

    let scenarios = [
        Scenario::MobilityDuck,
        Scenario::MobilityDbPlain,
        Scenario::MobilityDbIndexed,
    ];

    // wins[scenario] across all (query, sf) cells.
    let mut wins = [0usize; 3];
    let mut duck_beats_both = [true; 18]; // indexed by query id
    let mut query_records: Vec<Json> = Vec::new();
    let mut operator_records: Vec<Json> = Vec::new();
    // (query, sf, serial p50, parallel p50) for the threads summary.
    let mut speedups: Vec<(u32, f64, f64, f64)> = Vec::new();

    for &sf in sfs {
        eprintln!("preparing SF-{sf} ...");
        let env = BenchEnv::prepare(ScaleFactor(sf), 42);
        // Morsel-driven parallelism: the vectorized engine is measured at
        // threads=1 and (on multi-core hosts) threads=max, as its own
        // dimension in BENCH_queries.json.
        env.vdb.set_threads(0);
        let max_threads = env.vdb.effective_threads();
        println!(
            "\nFigure 12 — SF-{sf}: {} vehicles, {} trips (runtimes in ms, median of {runs})\n",
            env.data.vehicles.len(),
            env.data.trips.len()
        );
        let mut rows = Vec::new();
        for (id, _question, sql) in benchmark_queries() {
            if skip.contains(&id) {
                println!("Q{id}: skipped (--skip)");
                continue;
            }
            let mut cells = vec![format!("Q{id}")];
            let mut times = Vec::new();
            for (si, sc) in scenarios.iter().enumerate() {
                if *sc != Scenario::MobilityDuck && skip_baselines.contains(&id) {
                    times.push(f64::INFINITY);
                    cells.push("skipped".into());
                    continue;
                }
                let mut record = |stats: mduck_bench::RunStats, threads: usize| {
                    // Peak memory of the most recent sample: every
                    // `execute()` logs its statement (with the guard's
                    // mem peak) to the global query log, so the last
                    // record is the run that just finished.
                    let mem_peak = mduck_obs::query_log_snapshot()
                        .last()
                        .map(|r| r.mem_peak)
                        .unwrap_or(0);
                    query_records.push(Json::Obj(vec![
                        ("query", Json::Str(format!("Q{id}"))),
                        ("sf", Json::Num(sf)),
                        ("engine", Json::Str(sc.id().into())),
                        ("threads", Json::Int(threads as i64)),
                        ("mean_ms", Json::Num(stats.mean_ms)),
                        ("p50_ms", Json::Num(stats.p50_ms)),
                        ("p95_ms", Json::Num(stats.p95_ms)),
                        ("rows", Json::Int(stats.rows as i64)),
                        ("mem_peak", Json::Int(mem_peak as i64)),
                    ]));
                };
                let stats = if *sc == Scenario::MobilityDuck {
                    // Serial baseline first, then the worker pool at full
                    // width; the table reports the parallel numbers.
                    env.vdb.set_threads(1);
                    let serial = env.run_stats(*sc, sql, runs);
                    record(serial, 1);
                    if max_threads > 1 {
                        env.vdb.set_threads(max_threads);
                        let parallel = env.run_stats(*sc, sql, runs);
                        record(parallel, max_threads);
                        speedups.push((id, sf, serial.p50_ms, parallel.p50_ms));
                        parallel
                    } else {
                        serial
                    }
                } else {
                    // The row engine is single-threaded by design.
                    let stats = env.run_stats(*sc, sql, runs);
                    record(stats, 1);
                    stats
                };
                times.push(stats.p50_ms);
                cells.push(format!("{:.2}", stats.p50_ms));
                if si == 0 {
                    cells.push(stats.rows.to_string());
                }
            }
            match env.vdb.execute_analyzed(sql) {
                Ok(profiled) => {
                    for op in &profiled.operators {
                        operator_records.push(Json::Obj(vec![
                            ("query", Json::Str(format!("Q{id}"))),
                            ("sf", Json::Num(sf)),
                            ("op", Json::Str(op.op.into())),
                            ("detail", Json::Str(op.detail.clone())),
                            ("execs", Json::Int(op.execs as i64)),
                            ("elapsed_ms", Json::Num(op.elapsed_ms)),
                            ("rows_out", Json::Int(op.rows_out as i64)),
                            ("chunks_out", Json::Int(op.chunks_out as i64)),
                            ("rows_scanned", Json::Int(op.rows_scanned as i64)),
                            ("mem_bytes", Json::Int(op.mem_bytes as i64)),
                        ]));
                    }
                }
                Err(e) => eprintln!("  Q{id}: operator breakdown unavailable ({e})"),
            }
            let best = times
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            wins[best] += 1;
            if times[0] > times[1] || times[0] > times[2] {
                duck_beats_both[id as usize] = false;
            }
            cells.push(scenarios[best].label().to_string());
            rows.push(cells);
            eprintln!("  Q{id} done");
        }
        println!(
            "{}",
            render_table(
                &[
                    "query",
                    "MobilityDuck (ms)",
                    "rows",
                    "MobilityDB no-idx (ms)",
                    "MobilityDB idx (ms)",
                    "winner",
                ],
                &rows,
            )
        );
    }

    let duck_sweeps = duck_beats_both[1..=17].iter().filter(|b| **b).count();
    println!("\nSummary across all scale factors:");
    for (i, sc) in scenarios.iter().enumerate() {
        println!("  fastest in {:>3} cells: {}", wins[i], sc.label());
    }
    println!(
        "  MobilityDuck fastest in all tested SFs on {duck_sweeps}/17 queries \
         (paper reports 12/17)."
    );

    if speedups.is_empty() {
        println!("\nParallel execution: single-core host, threads dimension not measured.");
    } else {
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut accelerated = 0usize;
        for &(id, sf, serial, parallel) in &speedups {
            let x = if parallel > 0.0 { serial / parallel } else { 1.0 };
            if x >= 1.5 {
                accelerated += 1;
            }
            rows.push(vec![
                format!("Q{id}"),
                format!("{sf}"),
                format!("{serial:.2}"),
                format!("{parallel:.2}"),
                format!("{x:.2}x"),
            ]);
        }
        println!("\nMorsel-driven parallelism (vectorized engine, p50 ms):");
        println!(
            "{}",
            render_table(&["query", "sf", "threads=1", "threads=max", "speedup"], &rows)
        );
        println!("  >=1.5x speedup on {accelerated}/{} cells.", speedups.len());
    }

    for (path, records) in [
        ("BENCH_queries.json", &query_records),
        ("BENCH_operators.json", &operator_records),
    ] {
        match std::fs::write(path, Json::render_lines(records)) {
            Ok(()) => println!("wrote {path} ({} records)", records.len()),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}
