//! `point_serving` — "what is near here / where is vehicle k now".
//!
//! **Why:** the fixed cost of each statement (parse, bind, plan, query
//! log and progress bookkeeping, locks) and the TRTREE index do most of
//! the work; the big operators and kernels barely run. A gain here that
//! shows nothing on `berlinmod_olap`, or the reverse, tells the two
//! apart. `vehicle_at` has no index and scans every trip, so chunk
//! pruning would show there.
//!
//! **Inputs:** BerlinMOD-Hanoi at SF-0.01 from the workload seed, plus
//! `CREATE INDEX … USING TRTREE(trip)` on `trips`. A seeded pool of
//! statements around positions vehicles really had:
//! - 40% `window`: trips whose box overlaps a 400 m square
//!   (`trip && STBOX X(...)`), answered by `TRTREE_INDEX_SCAN`;
//! - 40% `window_at`: the same square over the hour around an instant
//!   (`STBOX XT`), with `valueAtTimestamp(trip, t)` in the projection;
//! - 20% `vehicle_at`: `vehicleid = k AND trip::tstzspan @> t`, a full
//!   scan.
//!
//! **Load:** `min(2, nproc)` clients in a closed loop, each drawing
//! statements from the pool with its own seeded stream; `set_threads(1)`
//! so one statement does not fan out across cores. In-memory (no WAL).
//!
//! **End-to-end metrics:** `ops_per_s` is statements completed per second
//! by all clients; `latency_p50_ms` is the median statement latency over
//! all clients. The report adds the p99, the sample count and per-kind
//! medians.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use berlinmod::NETWORK_SRID;
use mduck_prng::{RngExt, SeedableRng, StdRng};
use mduck_temporal::TimestampTz;

use crate::data::{self, Phases};
use crate::layers::{self, Layers, Position, StatementPhase};
use crate::oracle;
use crate::stats::{median, quantile};
use crate::trace::{ObsSnap, Tracer};
use crate::{Args, Outcome, Scale};

pub const NAME: &str = "point_serving";
/// Half the side of the window square, in metres.
const WINDOW_HALF_M: f64 = 200.0;
/// Half the time window of `window_at`.
const WINDOW_HALF_USECS: i64 = 30 * 60 * 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Window,
    WindowAt,
    VehicleAt,
}

const KINDS: [(Kind, &str); 3] = [
    (Kind::Window, "window"),
    (Kind::WindowAt, "window_at"),
    (Kind::VehicleAt, "vehicle_at"),
];

struct Statement {
    kind: Kind,
    sql: String,
}

fn statement(kind: Kind, p: &Position) -> Statement {
    let (x0, y0) = (p.at.x - WINDOW_HALF_M, p.at.y - WINDOW_HALF_M);
    let (x1, y1) = (p.at.x + WINDOW_HALF_M, p.at.y + WINDOW_HALF_M);
    let sql = match kind {
        Kind::Window => format!(
            "SELECT tripid, vehicleid FROM trips \
             WHERE trip && STBOX('SRID={NETWORK_SRID};STBOX X(({x0},{y0}),({x1},{y1}))')"
        ),
        Kind::WindowAt => {
            let (t0, t1) = (
                TimestampTz(p.t.0 - WINDOW_HALF_USECS),
                TimestampTz(p.t.0 + WINDOW_HALF_USECS),
            );
            format!(
                "SELECT tripid, valueAtTimestamp(trip, timestamptz '{}') FROM trips \
                 WHERE trip && STBOX('SRID={NETWORK_SRID};STBOX XT((({x0},{y0}),({x1},{y1})),[{t0}, {t1}])')",
                p.t
            )
        }
        Kind::VehicleAt => format!(
            "SELECT tripid, valueAtTimestamp(trip, timestamptz '{t}') FROM trips \
             WHERE vehicleid = {k} AND trip::tstzspan @> timestamptz '{t}'",
            t = p.t,
            k = p.vehicle_id
        ),
    };
    Statement { kind, sql }
}

/// The seeded statement pool: 40% window, 40% window_at, 20% vehicle_at.
fn statement_pool(data: &berlinmod::BerlinModData, n: usize, seed: u64) -> Vec<Statement> {
    let mut rng = StdRng::seed_from_u64(data::derive_seed(seed, 100));
    let positions = layers::sample_positions(data, n, &mut rng);
    positions
        .iter()
        .map(|p| {
            let r: f64 = rng.random_range(0.0..1.0);
            let kind = if r < 0.4 {
                Kind::Window
            } else if r < 0.8 {
                Kind::WindowAt
            } else {
                Kind::VehicleAt
            };
            statement(kind, p)
        })
        .collect()
}

/// What the clients saw. Samples stay small (pool index, latency in ms)
/// so the benchmark's own memory does not grow with throughput.
struct LoadRun {
    wall_s: f64,
    samples: Vec<(u32, f32)>,
    rows_returned: u64,
    failed: u64,
    tracer: Tracer,
}

impl LoadRun {
    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| f64::from(s.1)).collect()
    }

    fn mean_ms(&self) -> f64 {
        self.latencies().iter().sum::<f64>() / self.samples.len().max(1) as f64
    }

    fn merge(&mut self, other: LoadRun) {
        self.samples.extend(other.samples);
        self.rows_returned += other.rows_returned;
        self.failed += other.failed;
        self.tracer.absorb(other.tracer);
    }
}

/// `clients` closed-loop clients for `budget`. Every statement must
/// return the row count its warm-up run returned (`expected_rows`).
fn load_loop(
    db: &quackdb::Database,
    pool: &[Statement],
    expected_rows: &[usize],
    clients: usize,
    budget: Duration,
    seed: u64,
    trace: bool,
) -> LoadRun {
    let barrier = Barrier::new(clients);
    let epoch = Instant::now();
    let client = |c: usize| {
        let mut rng = StdRng::seed_from_u64(data::derive_seed(seed, 200 + c as u64));
        let mut run = LoadRun {
            wall_s: 0.0,
            samples: Vec::new(),
            rows_returned: 0,
            failed: 0,
            tracer: Tracer::new(trace, epoch),
        };
        barrier.wait();
        let start = Instant::now();
        while start.elapsed() < budget {
            let i = rng.random_range(0..pool.len());
            run.tracer.next_request();
            let t0 = Instant::now();
            let res = run
                .tracer
                .span("vecdb.execute", || db.execute(&pool[i].sql));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            run.samples.push((i as u32, ms as f32));
            match res {
                Ok(r) if r.rows.len() == expected_rows[i] => {
                    run.rows_returned += r.rows.len() as u64
                }
                Ok(r) => {
                    run.failed += 1;
                    let want = expected_rows[i];
                    eprintln!(
                        "perfbench: {} rows instead of {want}: {}",
                        r.rows.len(),
                        pool[i].sql
                    );
                }
                Err(e) => {
                    run.failed += 1;
                    eprintln!("perfbench: {e}: {}", pool[i].sql);
                }
            }
        }
        run
    };
    let runs: Vec<LoadRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|c| s.spawn(move || client(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serving client panicked"))
            .collect()
    });
    let mut total = LoadRun {
        wall_s: epoch.elapsed().as_secs_f64(),
        samples: Vec::new(),
        rows_returned: 0,
        failed: 0,
        tracer: Tracer::new(trace, epoch),
    };
    for r in runs {
        total.merge(r);
    }
    total
}

pub fn run(args: &Args, scale: &Scale) -> Result<Outcome, String> {
    let ((data, db), phases) = data::repeat_setup(scale.setup_reps, || {
        let t0 = Instant::now();
        let data = data::generate(scale.serve_sf, args.seed);
        let generate_ms = data::ms_since(t0);
        let t1 = Instant::now();
        let db = data::new_quack();
        data.load_into_quack(&db)
            .map_err(|e| format!("loading quackdb: {e}"))?;
        let load_ms = data::ms_since(t1);
        let t2 = Instant::now();
        db.execute("CREATE INDEX trips_trip_trtree ON trips USING TRTREE(trip)")
            .map_err(|e| format!("building the TRTREE index: {e}"))?;
        let index_ms = data::ms_since(t2);
        Ok((
            (data, db),
            Phases {
                generate_ms,
                load_ms,
                index_ms,
            },
        ))
    })?;
    db.set_threads(1);
    let clients = data::nproc().min(2);
    let pool = statement_pool(&data, scale.serve_pool, args.seed);

    let mut out = Outcome::default();
    out.note(format!(
        "BerlinMOD-Hanoi SF-{} with TRTREE(trip): {} vehicles, {} trips; pool of {} statements (40% window, 40% window_at, 20% vehicle_at)",
        scale.serve_sf,
        data.vehicles.len(),
        data.trips.len(),
        pool.len()
    ));
    out.note(format!(
        "{clients} clients, closed loop, set_threads(1), in-memory (no WAL)"
    ));

    // Untimed warm-up over the whole pool: the expected row count of every
    // statement, and the results the oracle will check.
    let mut expected_rows = Vec::with_capacity(pool.len());
    let mut checked = Vec::new();
    for (i, st) in pool.iter().enumerate() {
        let mut r = db
            .execute(&st.sql)
            .map_err(|e| format!("warm-up: {e}\n{}", st.sql))?;
        expected_rows.push(r.rows.len());
        if i < scale.serve_oracle_sample {
            if scale.corrupt && i == 0 {
                oracle::corrupt(&mut r.rows);
            }
            checked.push(oracle::digest(&r.rows));
        }
    }

    if args.trace {
        let half = args.seconds / 2;
        let plain = load_loop(&db, &pool, &expected_rows, clients, half, args.seed, false);
        let before = ObsSnap::take();
        let traced = load_loop(&db, &pool, &expected_rows, clients, half, args.seed, true);
        let delta = ObsSnap::take().since(&before);
        let summary = traced.tracer.summary();
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
        // One pass over the first 100 pool statements under profiling.
        let pass: Vec<_> = pool
            .iter()
            .take(100)
            .map(|st| {
                db.execute_analyzed(&st.sql)
                    .map_err(|e| format!("analyzed: {e}\n{}", st.sql))
            })
            .collect::<Result<_, _>>()?;
        layers::analyzed(&mut m, &pass);
        let sqls: Vec<String> = pool.iter().take(100).map(|s| s.sql.clone()).collect();
        layers::parse(&mut m, &sqls)?;
        layers::kernels(&mut m, &data)?;
        layers::rtree(&mut m, &data, args.seed);
        m.insert(
            "obs.tracing_overhead_pct",
            layers::overhead_pct(plain.mean_ms(), traced.mean_ms()),
        );
        out.per_layer = m;
        for run in [&plain, &traced] {
            out.attempted += run.samples.len() as u64;
            out.failed += run.failed;
        }
        out.spans = Some(traced.tracer);
    } else {
        let run = load_loop(
            &db,
            &pool,
            &expected_rows,
            clients,
            args.seconds,
            args.seed,
            false,
        );
        let peak = data::peak_rss_mb()?;
        let lat = run.latencies();
        let e = &mut out.end_to_end;
        e.insert(
            "setup_s",
            median(&phases.iter().map(Phases::total_s).collect::<Vec<_>>()),
        );
        e.insert("ops_per_s", lat.len() as f64 / run.wall_s);
        e.insert("latency_p50_ms", quantile(&lat, 0.5));
        e.insert("peak_rss_mb", peak);
        out.report("serve_qps", "1/s", lat.len() as f64 / run.wall_s);
        out.report("serve_p50_ms", "ms", quantile(&lat, 0.5));
        out.report("serve_p99_ms", "ms", quantile(&lat, 0.99));
        out.report("serve_statements", "count", lat.len() as f64);
        for (kind, name) in KINDS {
            let k: Vec<f64> = run
                .samples
                .iter()
                .filter(|s| pool[s.0 as usize].kind == kind)
                .map(|s| f64::from(s.1))
                .collect();
            out.report(&format!("serve_{name}_p50_ms"), "ms", quantile(&k, 0.5));
            out.report(&format!("serve_{name}_statements"), "count", k.len() as f64);
        }
        out.attempted += run.samples.len() as u64;
        out.failed += run.failed;
    }

    drop(db);
    // The warm-up results of a seeded sample must match the row engine's.
    let rdb = oracle::row_engine(&data)?;
    for (st, digest) in pool.iter().zip(&checked) {
        out.attempted += 1;
        if oracle::row_digest(&rdb, &st.sql)? != *digest {
            out.failed += 1;
            eprintln!("perfbench: differs from the row engine: {}", st.sql);
        }
    }
    Ok(out)
}
