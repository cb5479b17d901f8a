//! # mduck-bench — the benchmark harness
//!
//! One report binary per table/figure of the paper (see DESIGN.md's
//! experiment index) plus Criterion micro-benchmarks. This library holds
//! the shared scenario plumbing: engine setup, timing, and plain-text
//! table rendering.

#![forbid(unsafe_code)]

pub mod json;
pub mod micro;

use std::time::Instant;

use berlinmod::{BerlinModData, RoadNetwork, ScaleFactor};
use mduck_rowdb::RowDatabase;
use quackdb::Database;

/// The three execution scenarios of Figure 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// MobilityDuck on the vectorized engine (no extra indexes).
    MobilityDuck,
    /// MobilityDB baseline, no indexes.
    MobilityDbPlain,
    /// MobilityDB baseline with B-tree + GiST indexes.
    MobilityDbIndexed,
}

impl Scenario {
    pub fn label(self) -> &'static str {
        match self {
            Scenario::MobilityDuck => "MobilityDuck",
            Scenario::MobilityDbPlain => "MobilityDB (no idx)",
            Scenario::MobilityDbIndexed => "MobilityDB (idx)",
        }
    }

    /// Stable machine-readable identifier (used in JSON reports).
    pub fn id(self) -> &'static str {
        match self {
            Scenario::MobilityDuck => "mobilityduck",
            Scenario::MobilityDbPlain => "mobilitydb_plain",
            Scenario::MobilityDbIndexed => "mobilitydb_indexed",
        }
    }
}

/// Timing statistics over `n` samples of one query under one scenario.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub rows: usize,
}

/// A loaded benchmark environment: both engines, all scenarios.
pub struct BenchEnv {
    pub sf: ScaleFactor,
    pub data: BerlinModData,
    pub vdb: Database,
    pub rdb_plain: RowDatabase,
    pub rdb_indexed: RowDatabase,
}

impl BenchEnv {
    /// Generate + load one scale factor into all three scenarios.
    pub fn prepare(sf: ScaleFactor, seed: u64) -> Self {
        let net = RoadNetwork::generate(seed);
        let data = BerlinModData::generate(&net, sf, seed);
        let vdb = Database::new();
        mobilityduck::load(&vdb);
        data.load_into_quack(&vdb).expect("load quackdb");
        let rdb_plain = RowDatabase::new();
        mobilityduck::load_row(&rdb_plain);
        data.load_into_row(&rdb_plain, false).expect("load rowdb");
        let rdb_indexed = RowDatabase::new();
        mobilityduck::load_row(&rdb_indexed);
        data.load_into_row(&rdb_indexed, true).expect("load rowdb idx");
        BenchEnv { sf, data, vdb, rdb_plain, rdb_indexed }
    }

    /// Run a query under a scenario; returns (milliseconds, row count).
    pub fn run(&self, scenario: Scenario, sql: &str) -> (f64, usize) {
        let start = Instant::now();
        let rows = match scenario {
            Scenario::MobilityDuck => self
                .vdb
                .execute(sql)
                .unwrap_or_else(|e| panic!("MobilityDuck failed: {e}\n{sql}"))
                .rows
                .len(),
            Scenario::MobilityDbPlain => self
                .rdb_plain
                .execute(sql)
                .unwrap_or_else(|e| panic!("MobilityDB failed: {e}\n{sql}"))
                .rows
                .len(),
            Scenario::MobilityDbIndexed => self
                .rdb_indexed
                .execute(sql)
                .unwrap_or_else(|e| panic!("MobilityDB-idx failed: {e}\n{sql}"))
                .rows
                .len(),
        };
        (start.elapsed().as_secs_f64() * 1000.0, rows)
    }

    /// Median of `n` timed runs (after one warm-up), in milliseconds.
    pub fn run_median(&self, scenario: Scenario, sql: &str, n: usize) -> (f64, usize) {
        let stats = self.run_stats(scenario, sql, n);
        (stats.p50_ms, stats.rows)
    }

    /// Mean/p50/p95 over `n` timed runs (after one warm-up), in
    /// milliseconds. Setting `MDUCK_COLD=1` skips the warm-up run (used
    /// to bound the wall time of the largest scale factors).
    pub fn run_stats(&self, scenario: Scenario, sql: &str, n: usize) -> RunStats {
        let cold = std::env::var("MDUCK_COLD").is_ok_and(|v| v == "1");
        let mut rows = 0;
        if !cold {
            rows = self.run(scenario, sql).1;
        }
        let mut times: Vec<f64> = (0..n.max(1))
            .map(|_| {
                let (ms, r) = self.run(scenario, sql);
                rows = r;
                ms
            })
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean_ms = times.iter().sum::<f64>() / times.len() as f64;
        // Nearest-rank percentile: smallest x with at least p% of samples <= x.
        let rank = |p: f64| -> f64 {
            let idx = ((p * times.len() as f64).ceil() as usize).max(1) - 1;
            times[idx.min(times.len() - 1)]
        };
        RunStats { mean_ms, p50_ms: times[times.len() / 2], p95_ms: rank(0.95), rows }
    }
}

/// Render an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Human-readable byte size.
pub fn human_size(bytes: usize) -> String {
    if bytes >= 1 << 30 {
        format!("{:.2} GB", bytes as f64 / (1u64 << 30) as f64)
    } else {
        format!("{:.1} MB", bytes as f64 / (1u64 << 20) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_prepares_and_runs() {
        let env = BenchEnv::prepare(ScaleFactor(0.0002), 42);
        let (_, rows) = env.run(Scenario::MobilityDuck, "SELECT count(*) FROM trips");
        assert_eq!(rows, 1);
        let (ms, _) = env.run_median(Scenario::MobilityDbPlain, "SELECT count(*) FROM trips", 3);
        assert!(ms >= 0.0);
        let stats = env.run_stats(Scenario::MobilityDuck, "SELECT count(*) FROM trips", 5);
        assert_eq!(stats.rows, 1);
        assert!(stats.mean_ms >= 0.0);
        assert!(stats.p95_ms >= stats.p50_ms);
    }

    #[test]
    fn table_rendering() {
        let t = render_table(
            &["a", "bbb"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
        assert!(t.contains("bbb"));
        assert_eq!(t.lines().count(), 4);
        assert_eq!(human_size(2 << 30), "2.00 GB");
        assert_eq!(human_size(10 << 20), "10.0 MB");
    }
}
