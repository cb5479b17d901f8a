//! # perfbench — the repository benchmark
//!
//! One command runs one workload against the vectorized engine
//! (`quackdb` with the MobilityDuck extension) through its public API,
//! checks every result against the row engine, and prints its metrics:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see each module for why it was chosen, its sizes, clients,
//! threads and flush policy):
//! - `berlinmod_olap` ([`olap`]): BerlinMOD Q1–Q17 without Q12, SF-0.01;
//! - `point_serving` ([`serving`]): index-backed window lookups and
//!   vehicle-position queries from concurrent clients, SF-0.01;
//! - `stream_ingest` ([`ingest`]): batched trip commits through the WAL
//!   with interleaved reads, then recovery, SF-0.05.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics
//! ([`END_TO_END`]); with `--trace 1` it carries the per-layer metrics
//! ([`PER_LAYER`]) of a traced run plus the tracing overhead. Earlier
//! lines print the workload's own named figures (`report ...`).

mod data;
mod ingest;
mod layers;
mod olap;
mod oracle;
mod serving;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with `--trace 0`:
/// (name, unit). What each means per workload is documented in
/// [`olap`], [`serving`] and [`ingest`]. Tail latencies are printed as
/// `report` lines only: none repeats within a tenth on a shared 2-core
/// machine.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer that does no work on a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("berlinmod.generate_ms", "ms"),
    ("vecdb.load_ms", "ms"),
    ("core.trtree_build_ms", "ms"),
    ("sql.parse_us", "us"),
    ("vecdb.bind_us", "us"),
    ("vecdb.plan_us", "us"),
    ("vecdb.exec_us", "us"),
    ("vecdb.fixed_overhead_us", "us"),
    ("vecdb.op.seq_scan_ms", "ms"),
    ("vecdb.op.index_scan_ms", "ms"),
    ("vecdb.op.filter_ms", "ms"),
    ("vecdb.op.hash_join_ms", "ms"),
    ("vecdb.op.cross_product_ms", "ms"),
    ("vecdb.op.cte_scan_ms", "ms"),
    ("vecdb.stage.aggregate_ms", "ms"),
    ("vecdb.stage.order_by_ms", "ms"),
    ("vecdb.stage.distinct_ms", "ms"),
    ("vecdb.stage.projection_ms", "ms"),
    ("vecdb.query_mem_peak_mb", "MB"),
    ("vecdb.rows_scanned", "count"),
    ("vecdb.rows_filtered", "count"),
    ("vecdb.rows_joined", "count"),
    ("vecdb.chunks_produced", "count"),
    ("vecdb.rows_returned_per_scanned", "ratio"),
    ("vecdb.parallel_stages", "count"),
    ("vecdb.morsels_dispatched", "count"),
    ("vecdb.parallel_workers_spawned", "count"),
    ("vecdb.index_probes", "count"),
    ("vecdb.full_scans", "count"),
    ("temporal.tdwithin_ns", "ns"),
    ("temporal.tdwithin_calls", "count"),
    ("temporal.edwithin_ns", "ns"),
    ("temporal.edwithin_calls", "count"),
    ("temporal.at_period_ns", "ns"),
    ("temporal.at_period_calls", "count"),
    ("temporal.value_at_ns", "ns"),
    ("temporal.value_at_calls", "count"),
    ("temporal.eintersects_ns", "ns"),
    ("temporal.eintersects_calls", "count"),
    ("temporal.trajectory_ns", "ns"),
    ("temporal.trajectory_calls", "count"),
    ("temporal.length_ns", "ns"),
    ("temporal.length_calls", "count"),
    ("geo.intersects_ns", "ns"),
    ("geo.intersects_calls", "count"),
    ("geo.distance_ns", "ns"),
    ("geo.distance_calls", "count"),
    ("rtree.search_ns", "ns"),
    ("rtree.candidates_per_probe", "count"),
    ("rtree.insert_ns", "ns"),
    ("core.index_precision", "ratio"),
    ("wal.append_us", "us"),
    ("wal.records", "count"),
    ("wal.bytes_per_trip", "B"),
    ("wal.checkpoints", "count"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.checkpoint_share", "ratio"),
    ("wal.checkpoint_bytes_total", "B"),
    ("wal.recovery_ms", "ms"),
    ("wal.records_replayed", "count"),
    ("obs.tracing_overhead_pct", "%"),
];

/// The default seed, used while tuning the benchmark. Seed 104729 was
/// never run while the benchmark was written: check performance claims
/// on it too.
pub const TUNING_SEED: u64 = 1;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// Input sizes and set-up repetitions. [`Scale::full`] is the benchmark;
/// [`Scale::tiny`] keeps the self-check to seconds.
#[derive(Debug, Clone)]
pub struct Scale {
    pub olap_sf: f64,
    pub serve_sf: f64,
    pub ingest_sf: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Distinct statements the serving clients draw from.
    pub serve_pool: usize,
    /// Serving statements checked against the row engine.
    pub serve_oracle_sample: usize,
    /// Damage the first checked result (self-check of the oracle).
    pub corrupt: bool,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            olap_sf: 0.01,
            serve_sf: 0.01,
            ingest_sf: 0.05,
            setup_reps: 3,
            serve_pool: 2048,
            serve_oracle_sample: 400,
            corrupt: false,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Scale {
            olap_sf: 0.0005,
            serve_sf: 0.0005,
            ingest_sf: 0.001,
            setup_reps: 2,
            serve_pool: 64,
            serve_oracle_sample: 64,
            corrupt: false,
        }
    }
}

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, oracle checks included.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// End-to-end metrics (untraced run), by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced run), by name.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// The workload's own named figures, printed before the result line.
    pub report: Vec<Metric>,
    /// One-line facts about the run (sizes, clients, threads, policy).
    pub notes: Vec<String>,
    /// The traced phase's spans.
    pub spans: Option<trace::Tracer>,
}

impl Outcome {
    pub fn report(&mut self, name: &str, unit: &'static str, value: f64) {
        self.report.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn error_rate(&self) -> f64 {
        stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

pub const WORKLOADS: &[&str] = &[olap::NAME, serving::NAME, ingest::NAME];

pub fn run_workload(args: &Args, scale: &Scale) -> Result<Outcome, String> {
    match args.workload.as_str() {
        olap::NAME => olap::run(args, scale),
        serving::NAME => serving::run(args, scale),
        ingest::NAME => ingest::run(args, scale),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// The metrics the result line must carry for this run, in declaration
/// order. Per-layer metrics a workload does not exercise read 0.
pub fn result_metrics(out: &Outcome, trace: bool) -> Result<Vec<Metric>, String> {
    let (catalogue, values) = if trace {
        (PER_LAYER, &out.per_layer)
    } else {
        (END_TO_END, &out.end_to_end)
    };
    if let Some(unknown) = values
        .keys()
        .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("workload reported undeclared metric {unknown:?}"));
    }
    catalogue
        .iter()
        .map(|&(name, unit)| {
            let value = match values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.
            Ok(Metric {
                name: name.to_string(),
                unit,
                value: value + 0.0,
            })
        })
        .collect()
}

fn json_number(v: f64) -> String {
    // `{:?}` prints the shortest representation that round-trips, so no
    // digit of the measurement is lost.
    let s = format!("{v:?}");
    if s.contains('e') || s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The final stdout line.
pub fn result_line(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = TUNING_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run_workload(&args, &Scale::full())
        .and_then(|out| result_metrics(&out, args.trace).map(|m| (out, m)));
    let (out, metrics) = match outcome {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for n in &out.notes {
        println!("note {} {n}", args.workload);
    }
    for m in &out.report {
        println!(
            "report {} {} = {} {}",
            args.workload, m.name, m.value, m.unit
        );
    }
    if let Some(spans) = &out.spans {
        for (name, s) in spans.summary() {
            println!(
                "span {} {name}: count {} total_ms {:.3}",
                args.workload,
                s.count,
                s.total_ns as f64 / 1e6
            );
        }
        let path = std::path::PathBuf::from(".perfbench_runs")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("note {} spans written to {}", args.workload, path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!(
        "report {} error_rate = {} ratio ({} failed of {} attempted)",
        args.workload,
        out.error_rate(),
        out.failed,
        out.attempted
    );
    println!("{}", result_line(&out, &metrics));
}

#[cfg(test)]
mod selfcheck;
