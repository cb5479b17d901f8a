//! `berlinmod_olap` — the paper's evaluation (Figure 12).
//!
//! **Why:** the `vecdb` operators (joins, aggregation, sort, morsel
//! parallelism) and the `temporal`/`geo` kernels do almost all the work
//! here; parse/bind/plan is a negligible share and the WAL is idle. A
//! gain in the operators or kernels shows here and not on
//! `point_serving`.
//!
//! **Inputs:** [`FLEETS`] BerlinMOD-Hanoi datasets at SF-0.01, each from
//! its own seed derived from the workload seed (200 vehicles, ~2.9k
//! trips, ~83k GPS points each), each loaded into its own quackdb
//! instance without extra indexes. The queries are BerlinMOD Q1–Q17
//! except Q12, run in order; one suite pass is the 16 queries on one
//! dataset, and passes rotate over the datasets. One dataset's cost
//! swings by ±10% from seed to seed (Q5, Q6 and Q10 follow the fleet's
//! geometry and truck count); averaging over several keeps the figures
//! about the engine rather than about one draw of the data.
//!
//! **Q12 is excluded:** at SF-0.01 its left-deep trips × trips cross
//! product materialises ~8.4M wide rows and exceeds the memory of a
//! 15 GB machine (the known deviation recorded in EXPERIMENTS.md).
//!
//! **Load:** one client, closed loop, `set_threads(nproc)`; one untimed
//! warm-up pass on the first dataset. No WAL (in-memory databases).
//!
//! **End-to-end metrics:** per dataset, the median pass time and each
//! query's median latency; then the mean over datasets. `ops_per_s` is
//! 16 queries over that mean pass time; `latency_p50_ms` is the geometric
//! mean over queries of their latency (`olap_query_geomean_ms` in the
//! report); `setup_s` is generating and loading all datasets. The report
//! also prints `olap_suite_s`, the mean pass time, the slowest query's
//! latency and the p99 over all statements.

use std::time::Instant;

use berlinmod::benchmark_queries;

use crate::data::{self, Phases};
use crate::layers::{self, Layers, StatementPhase};
use crate::oracle;
use crate::stats::{geomean, median, quantile};
use crate::trace::{ObsSnap, Tracer};
use crate::{Args, Outcome, Scale};

pub const NAME: &str = "berlinmod_olap";
pub const EXCLUDED_QUERY: u32 = 12;
/// Independently seeded datasets per run.
pub const FLEETS: usize = 4;

/// The timed executions of one loop.
#[derive(Default)]
struct SuiteRun {
    /// Per dataset: wall seconds of each complete pass.
    pass_s: Vec<Vec<f64>>,
    /// Per dataset and query (index into the query list): latencies, ms.
    query_ms: Vec<Vec<Vec<f64>>>,
    /// (dataset, query index, result digest or error) per execution.
    results: Vec<(usize, usize, Result<u64, String>)>,
    rows_returned: u64,
}

impl SuiteRun {
    /// Mean over datasets of the median pass time.
    fn suite_s(&self) -> f64 {
        mean(self.pass_s.iter().map(|p| median(p)))
    }

    /// Per query: mean over datasets of the median latency.
    fn query_p50_ms(&self) -> Vec<f64> {
        let queries = self.query_ms.first().map_or(0, Vec::len);
        (0..queries)
            .map(|qi| mean(self.query_ms.iter().map(|f| median(&f[qi]))))
            .collect()
    }

    fn all_ms(&self) -> Vec<f64> {
        self.query_ms.iter().flatten().flatten().copied().collect()
    }

    fn passes(&self) -> usize {
        self.pass_s.iter().map(Vec::len).sum()
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// Run suite passes, rotating over the datasets, until `budget` is
/// spent and every dataset ran at least once.
fn suite_loop(
    dbs: &[quackdb::Database],
    queries: &[(u32, &str)],
    budget: std::time::Duration,
    tracer: &mut Tracer,
    corrupt: bool,
) -> SuiteRun {
    let mut run = SuiteRun {
        pass_s: vec![Vec::new(); dbs.len()],
        query_ms: vec![vec![Vec::new(); queries.len()]; dbs.len()],
        ..Default::default()
    };
    let start = Instant::now();
    let mut pass = 0;
    while pass < dbs.len() || start.elapsed() < budget {
        let fleet = pass % dbs.len();
        let mut pass_s = 0.0;
        for (qi, (_, sql)) in queries.iter().enumerate() {
            tracer.next_request();
            let t0 = Instant::now();
            let res = tracer.span("vecdb.execute", || dbs[fleet].execute(sql));
            let secs = t0.elapsed().as_secs_f64();
            pass_s += secs;
            run.query_ms[fleet][qi].push(secs * 1e3);
            let res = res.map(|mut r| {
                run.rows_returned += r.rows.len() as u64;
                if corrupt && run.results.is_empty() {
                    oracle::corrupt(&mut r.rows);
                }
                oracle::digest(&r.rows)
            });
            run.results
                .push((fleet, qi, res.map_err(|e| e.to_string())));
        }
        run.pass_s[fleet].push(pass_s);
        pass += 1;
    }
    run
}

pub fn run(args: &Args, scale: &Scale) -> Result<Outcome, String> {
    let queries: Vec<(u32, &str)> = benchmark_queries()
        .into_iter()
        .filter(|(id, _, _)| *id != EXCLUDED_QUERY)
        .map(|(id, _, sql)| (id, sql))
        .collect();
    let threads = data::nproc();
    let ((datasets, dbs), phases) = data::repeat_setup(scale.setup_reps, || {
        let mut phases = Phases::default();
        let (mut datasets, mut dbs) = (Vec::new(), Vec::new());
        for fleet in 0..FLEETS {
            let t0 = Instant::now();
            let data = data::generate(scale.olap_sf, data::derive_seed(args.seed, fleet as u64));
            phases.generate_ms += data::ms_since(t0);
            let t1 = Instant::now();
            let db = data::new_quack();
            data.load_into_quack(&db)
                .map_err(|e| format!("loading quackdb: {e}"))?;
            phases.load_ms += data::ms_since(t1);
            datasets.push(data);
            dbs.push(db);
        }
        Ok(((datasets, dbs), phases))
    })?;
    for db in &dbs {
        db.set_threads(threads);
    }

    let mut out = Outcome::default();
    for (fleet, data) in datasets.iter().enumerate() {
        out.note(format!(
            "dataset {fleet}: BerlinMOD-Hanoi SF-{}, {} vehicles, {} trips, {} GPS points",
            scale.olap_sf,
            data.vehicles.len(),
            data.trips.len(),
            data.total_trip_points(),
        ));
    }
    out.note(format!(
        "{} queries (Q1-Q17 without Q{EXCLUDED_QUERY}); 1 client, closed loop, set_threads({threads}), in-memory (no WAL)",
        queries.len()
    ));

    // Warm-up pass: lazy set-up finishes before timing.
    for (_, sql) in &queries {
        dbs[0]
            .execute(sql)
            .map_err(|e| format!("warm-up: {e}\n{sql}"))?;
    }

    let mut runs = Vec::new();
    if args.trace {
        let half = args.seconds / 2;
        let plain = suite_loop(
            &dbs,
            &queries,
            half,
            &mut Tracer::new(false, Instant::now()),
            false,
        );
        let mut tracer = Tracer::new(true, Instant::now());
        let before = ObsSnap::take();
        let traced = suite_loop(&dbs, &queries, half, &mut tracer, false);
        let delta = ObsSnap::take().since(&before);
        let summary = tracer.summary();
        let mut m = Layers::new();
        layers::setup(&mut m, &phases);
        layers::statements(
            &mut m,
            &StatementPhase {
                delta,
                execute: summary.get("vecdb.execute").copied().unwrap_or_default(),
                rows_returned: traced.rows_returned,
            },
        );
        // Operator breakdown, kernels and index probes on the first
        // dataset: one suite pass's worth.
        let pass: Vec<_> = queries
            .iter()
            .map(|(_, sql)| {
                dbs[0]
                    .execute_analyzed(sql)
                    .map_err(|e| format!("analyzed: {e}\n{sql}"))
            })
            .collect::<Result<_, _>>()?;
        layers::analyzed(&mut m, &pass);
        let sqls: Vec<String> = queries.iter().map(|(_, s)| s.to_string()).collect();
        layers::parse(&mut m, &sqls)?;
        layers::kernels(&mut m, &datasets[0])?;
        layers::rtree(&mut m, &datasets[0], args.seed);
        m.insert(
            "obs.tracing_overhead_pct",
            layers::overhead_pct(plain.suite_s(), traced.suite_s()),
        );
        out.per_layer = m;
        out.spans = Some(tracer);
        runs.push(plain);
        runs.push(traced);
    } else {
        let run = suite_loop(
            &dbs,
            &queries,
            args.seconds,
            &mut Tracer::new(false, Instant::now()),
            scale.corrupt,
        );
        let peak = data::peak_rss_mb()?;
        let suite_s = run.suite_s();
        let medians = run.query_p50_ms();
        let all = run.all_ms();
        let e = &mut out.end_to_end;
        e.insert(
            "setup_s",
            median(&phases.iter().map(Phases::total_s).collect::<Vec<_>>()),
        );
        e.insert("ops_per_s", queries.len() as f64 / suite_s);
        e.insert("latency_p50_ms", geomean(&medians));
        e.insert("peak_rss_mb", peak);
        out.report("olap_suite_s", "s", suite_s);
        out.report("olap_query_geomean_ms", "ms", geomean(&medians));
        out.report("olap_passes", "count", run.passes() as f64);
        out.report("olap_statements", "count", all.len() as f64);
        out.report("olap_statement_p99_ms", "ms", quantile(&all, 0.99));
        out.report(
            "olap_slowest_query_ms",
            "ms",
            medians.iter().copied().fold(0.0, f64::max),
        );
        for ((id, _), ms) in queries.iter().zip(&medians) {
            out.report(&format!("olap_q{id}_p50_ms"), "ms", *ms);
        }
        runs.push(run);
    }
    drop(dbs);

    // The oracle, outside every timed region: the row engine answers each
    // query once per dataset; every timed execution must match its digest.
    let expected: Vec<Vec<u64>> = oracle::per_dataset(&datasets, |data| {
        let rdb = oracle::row_engine(data)?;
        queries
            .iter()
            .map(|(_, sql)| oracle::row_digest(&rdb, sql))
            .collect()
    })?;
    for run in &runs {
        for (fleet, qi, res) in &run.results {
            out.attempted += 1;
            match res {
                Ok(d) if *d == expected[*fleet][*qi] => {}
                Ok(_) => {
                    out.failed += 1;
                    eprintln!("perfbench: Q{} differs from the row engine", queries[*qi].0);
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("perfbench: Q{} failed: {e}", queries[*qi].0);
                }
            }
        }
    }
    Ok(out)
}
