//! `stream_ingest` — the only workload that writes.
//!
//! **Why:** `wal` append and fsync, the whole-database checkpoint
//! rewrites and TRTREE index appends do the work here; the reads beside
//! the writes show whether a write-path gain costs readers.
//!
//! **Inputs:** the SF-0.05 BerlinMOD-Hanoi trips from the workload seed
//! (~10.4k trips, ~300k GPS points), sorted by start time and cut into
//! batches of [`BATCH`] trips.
//!
//! **One pass:** a fresh database with a WAL attached under a scratch
//! directory of the working directory, `trips` empty with a TRTREE on
//! `trip`. One writer commits the batches in a closed loop through
//! `Database::insert_rows`; after every [`READ_EVERY`] commits it runs
//! one `window` read: trips overlapping a 400 m square around the newest
//! trip's last position during the hour before it ended, so recent keys
//! are favoured. Then the database is dropped and reopened with
//! `attach_wal` (recovery). Passes repeat until the time budget is spent.
//!
//! **Flush policy:** the engine default on both sides of any comparison:
//! every commit is fsynced, and a checkpoint runs once the WAL passes
//! 4 MiB.
//!
//! **End-to-end metrics:** `ops_per_s` is trips committed per second of
//! stream wall time (reads included), the median over passes; `latency_p50_ms` is the median
//! commit latency. The report adds the commit p99 and p99.9 (checkpoint
//! stalls land there), the read p99, the recovery time and the bytes
//! written to disk per byte of ingested rows.

use std::path::Path;
use std::time::Instant;

use berlinmod::trips::Trip;
use berlinmod::NETWORK_SRID;
use mduck_sql::Value;
use mduck_temporal::boxes::STBox;
use mduck_temporal::TimestampTz;
use mobilityduck::MdTGeomPoint;

use crate::data::{self, Phases, ScratchDir};
use crate::layers::{self, Layers, StatementPhase};
use crate::oracle;
use crate::stats::{median, quantile, ratio};
use crate::trace::{hist_mean, ObsSnap, Tracer};
use crate::{Args, Outcome, Scale};

pub const NAME: &str = "stream_ingest";
/// Trips per commit.
pub const BATCH: usize = 16;
/// Commits between two reads.
pub const READ_EVERY: usize = 4;
const WINDOW_HALF_M: f64 = 200.0;
const HOUR_USECS: i64 = 3_600_000_000;

const TRIPS_DDL: &str = "CREATE TABLE trips(tripid INTEGER, vehicleid INTEGER, day DATE, \
                         seqno INTEGER, trip TGEOMPOINT, traj WKB_BLOB)";
const TRIPS_INDEX: &str = "CREATE INDEX trips_trip_trtree ON trips USING TRTREE(trip)";

/// The stream, prepared once per set-up.
struct Stream {
    rows: Vec<Vec<Value>>,
    boxes: Vec<STBox>,
    /// Per batch, the read that follows it (if any): its SQL and box.
    reads: Vec<Option<(String, STBox)>>,
    digest: u64,
    user_bytes: u64,
    points: usize,
}

fn trip_row(t: &Trip) -> Vec<Value> {
    vec![
        Value::Int(t.trip_id),
        Value::Int(t.vehicle_id),
        Value::Date(t.day.0),
        Value::Int(t.seq_no),
        MdTGeomPoint(t.trip.clone()).into_value(),
        Value::blob(mduck_geo::wkb::to_wkb(&t.trip.trajectory())),
    ]
}

fn prepare(mut trips: Vec<Trip>) -> Result<Stream, String> {
    trips.sort_by_key(|t| (t.trip.temp.start_timestamp(), t.trip_id));
    let rows: Vec<Vec<Value>> = trips.iter().map(trip_row).collect();
    let boxes: Vec<STBox> = trips.iter().map(|t| t.trip.stbox()).collect();
    let mut reads = Vec::new();
    for (b, batch) in trips.chunks(BATCH).enumerate() {
        if (b + 1) % READ_EVERY != 0 {
            reads.push(None);
            continue;
        }
        let newest = batch.last().ok_or("empty batch")?;
        let at = newest.trip.temp.end_value();
        let end = newest.trip.temp.end_timestamp();
        let (x0, y0, x1, y1) = (
            at.x - WINDOW_HALF_M,
            at.y - WINDOW_HALF_M,
            at.x + WINDOW_HALF_M,
            at.y + WINDOW_HALF_M,
        );
        let box_text = format!(
            "SRID={NETWORK_SRID};STBOX XT((({x0},{y0}),({x1},{y1})),[{}, {end}])",
            TimestampTz(end.0 - HOUR_USECS)
        );
        let stbox = mduck_temporal::boxes::parse_stbox(&box_text).map_err(|e| e.to_string())?;
        let sql = format!("SELECT tripid FROM trips WHERE trip && STBOX('{box_text}')");
        reads.push(Some((sql, stbox)));
    }
    let mut user_bytes = 0u64;
    let mut buf = Vec::new();
    for row in &rows {
        for v in row {
            buf.clear();
            mduck_wal::codec::encode_value(&mut buf, v);
            user_bytes += buf.len() as u64;
        }
    }
    Ok(Stream {
        digest: oracle::digest(&rows),
        points: trips.iter().map(|t| t.trip.temp.num_instants()).sum(),
        rows,
        boxes,
        reads,
        user_bytes,
    })
}

/// A fresh database logging to `dir/db.wal`, with the empty `trips`
/// table and its TRTREE.
fn open_fresh(dir: &Path) -> Result<quackdb::Database, String> {
    let db = data::new_quack();
    db.attach_wal(dir.join("db.wal"))
        .map_err(|e| format!("attaching the WAL: {e}"))?;
    db.execute(TRIPS_DDL).map_err(|e| e.to_string())?;
    db.execute(TRIPS_INDEX).map_err(|e| e.to_string())?;
    db.set_threads(1);
    Ok(db)
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)
}

fn all_trips_digest(db: &quackdb::Database) -> Result<u64, String> {
    db.execute("SELECT * FROM trips")
        .map(|r| oracle::digest(&r.rows))
        .map_err(|e| e.to_string())
}

/// One pass's measurements.
#[derive(Default)]
struct Pass {
    stream_s: f64,
    commit_ms: Vec<f64>,
    read_ms: Vec<f64>,
    recovery_s: f64,
    checkpoint_bytes: u64,
    /// Registry deltas over the timed stream alone.
    stream_obs: ObsSnap,
    rows_returned: u64,
    attempted: u64,
    failed: u64,
}

fn run_pass(stream: &Stream, tracer: &mut Tracer, corrupt: bool) -> Result<Pass, String> {
    let scratch = ScratchDir::create("ingest-pass")?;
    let dir = scratch.path();
    let ckpt = dir.join("db.wal.ckpt");
    let db = open_fresh(dir)?;
    let mut pass = Pass::default();
    // (the read, rows ingested when it ran, its row count or error)
    type Read<'a> = (&'a (String, STBox), usize, Result<usize, String>);
    let mut reads: Vec<Read> = Vec::new();
    let obs_before = ObsSnap::take();
    let start = Instant::now();
    let mut committed = 0usize;
    for (b, batch) in stream.rows.chunks(BATCH).enumerate() {
        tracer.next_request();
        let before = mduck_obs::metrics().wal_checkpoints.get();
        let t0 = Instant::now();
        let res = tracer.span("vecdb.insert_rows", || db.insert_rows("trips", batch));
        pass.commit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        pass.attempted += 1;
        match res {
            Ok(_) => committed += batch.len(),
            Err(e) => {
                pass.failed += 1;
                eprintln!("perfbench: commit {b} failed: {e}");
            }
        }
        if mduck_obs::metrics().wal_checkpoints.get() != before {
            pass.checkpoint_bytes += file_len(&ckpt);
        }
        if let Some(read) = &stream.reads[b] {
            tracer.next_request();
            let t0 = Instant::now();
            let res = tracer.span("vecdb.execute", || db.execute(&read.0));
            pass.read_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let rows = res.map(|r| r.rows.len()).map_err(|e| e.to_string());
            reads.push((read, committed, rows));
        }
    }
    pass.stream_s = start.elapsed().as_secs_f64();
    pass.stream_obs = ObsSnap::take().since(&obs_before);

    // Outside the timed stream: each read against the boxes of the trips
    // committed before it, then the table against the input.
    for ((sql, stbox), committed, res) in reads {
        pass.attempted += 1;
        let want = stream.boxes[..committed]
            .iter()
            .filter(|t| t.overlaps(stbox).unwrap_or(false))
            .count();
        pass.rows_returned += *res.as_ref().unwrap_or(&0) as u64;
        if res.as_ref() != Ok(&want) {
            pass.failed += 1;
            eprintln!("perfbench: read returned {res:?}, expected {want}: {sql}");
        }
    }
    let mut check = |db: &quackdb::Database, when: &str| -> Result<(), String> {
        pass.attempted += 1;
        let mut digest = all_trips_digest(db)?;
        if corrupt {
            digest ^= 1;
        }
        if digest != stream.digest {
            pass.failed += 1;
            eprintln!("perfbench: trips differ from the input {when}");
        }
        Ok(())
    };
    check(&db, "after the stream")?;
    drop(db);

    let reopened = data::new_quack();
    let t0 = Instant::now();
    tracer
        .span("vecdb.attach_wal", || {
            reopened.attach_wal(dir.join("db.wal"))
        })
        .map_err(|e| format!("recovery: {e}"))?;
    pass.recovery_s = t0.elapsed().as_secs_f64();
    check(&reopened, "after recovery")?;
    Ok(pass)
}

/// Passes until `budget` is spent (at least two).
fn pass_loop(
    stream: &Stream,
    budget: std::time::Duration,
    tracer: &mut Tracer,
    corrupt: bool,
) -> Result<Vec<Pass>, String> {
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < 2 || start.elapsed() < budget {
        passes.push(run_pass(stream, tracer, corrupt && passes.is_empty())?);
    }
    Ok(passes)
}

fn pooled(passes: &[Pass], f: fn(&Pass) -> &Vec<f64>) -> Vec<f64> {
    passes.iter().flat_map(|p| f(p).iter().copied()).collect()
}

pub fn run(args: &Args, scale: &Scale) -> Result<Outcome, String> {
    let (stream, phases) = data::repeat_setup(scale.setup_reps, || {
        let t0 = Instant::now();
        let data = data::generate(scale.ingest_sf, args.seed);
        let stream = prepare(data.trips)?;
        let generate_ms = data::ms_since(t0);
        let scratch = ScratchDir::create("ingest-setup")?;
        let t1 = Instant::now();
        let db = data::new_quack();
        db.attach_wal(scratch.path().join("db.wal"))
            .map_err(|e| format!("attaching the WAL: {e}"))?;
        db.execute(TRIPS_DDL).map_err(|e| e.to_string())?;
        let load_ms = data::ms_since(t1);
        let t2 = Instant::now();
        db.execute(TRIPS_INDEX).map_err(|e| e.to_string())?;
        let index_ms = data::ms_since(t2);
        Ok((
            stream,
            Phases {
                generate_ms,
                load_ms,
                index_ms,
            },
        ))
    })?;
    let trips = stream.rows.len();
    let commits = trips.div_ceil(BATCH);

    let mut out = Outcome::default();
    out.note(format!(
        "BerlinMOD-Hanoi SF-{} stream: {trips} trips, {} GPS points, {commits} commits of {BATCH} trips, a window read every {READ_EVERY} commits",
        scale.ingest_sf, stream.points
    ));
    out.note(
        "1 writer, closed loop, set_threads(1); WAL fsync on every commit, auto-checkpoint at 4 MiB (engine default)",
    );

    let mut passes = Vec::new();
    if args.trace {
        let half = args.seconds / 2;
        let plain = pass_loop(
            &stream,
            half,
            &mut Tracer::new(false, Instant::now()),
            false,
        )?;
        let mut tracer = Tracer::new(true, Instant::now());
        let before = ObsSnap::take();
        let traced = pass_loop(&stream, half, &mut tracer, false)?;
        let whole = ObsSnap::take().since(&before);
        let d = traced
            .iter()
            .fold(ObsSnap::default(), |acc, p| acc.plus(&p.stream_obs));
        let summary = tracer.summary();
        let n = traced.len() as f64;
        let stream_s: f64 = traced.iter().map(|p| p.stream_s).sum();
        let mut m = Layers::new();
        layers::setup(&mut m, &phases);
        layers::statements(
            &mut m,
            &StatementPhase {
                delta: d,
                execute: summary.get("vecdb.execute").copied().unwrap_or_default(),
                rows_returned: traced.iter().map(|p| p.rows_returned).sum(),
            },
        );
        m.insert("wal.append_us", hist_mean(d.wal_append_ns, 1e3));
        m.insert("wal.records", d.wal_records_appended as f64 / n);
        m.insert(
            "wal.bytes_per_trip",
            ratio(d.wal_bytes_written as f64, n * trips as f64),
        );
        m.insert("wal.checkpoints", d.wal_checkpoints as f64 / n);
        m.insert("wal.checkpoint_ms", hist_mean(d.wal_checkpoint_ns, 1e6));
        m.insert(
            "wal.checkpoint_share",
            ratio(d.wal_checkpoint_ns.1 as f64 / 1e9, stream_s),
        );
        m.insert(
            "wal.checkpoint_bytes_total",
            traced
                .iter()
                .map(|p| p.checkpoint_bytes as f64)
                .sum::<f64>()
                / n,
        );
        m.insert("wal.recovery_ms", hist_mean(whole.wal_recovery_ns, 1e6));
        m.insert(
            "wal.records_replayed",
            whole.wal_records_replayed as f64 / n,
        );
        // Operators, index precision and parse time over one pass's reads,
        // run against the full table.
        let scratch = ScratchDir::create("ingest-analyzed")?;
        let db = open_fresh(scratch.path())?;
        db.insert_rows("trips", &stream.rows)
            .map_err(|e| e.to_string())?;
        let sqls: Vec<String> = stream
            .reads
            .iter()
            .flatten()
            .map(|(sql, _)| sql.clone())
            .collect();
        let pass: Vec<_> = sqls
            .iter()
            .map(|sql| {
                db.execute_analyzed(sql)
                    .map_err(|e| format!("analyzed: {e}\n{sql}"))
            })
            .collect::<Result<_, _>>()?;
        drop(db);
        layers::analyzed(&mut m, &pass);
        layers::parse(&mut m, &sqls)?;
        let data = data::generate(scale.ingest_sf, args.seed);
        layers::kernels(&mut m, &data)?;
        layers::rtree(&mut m, &data, args.seed);
        let per_trip = |ps: &[Pass]| {
            ratio(
                ps.iter().map(|p| p.stream_s).sum::<f64>(),
                (ps.len() * trips) as f64,
            )
        };
        m.insert(
            "obs.tracing_overhead_pct",
            layers::overhead_pct(per_trip(&plain), per_trip(&traced)),
        );
        out.per_layer = m;
        out.spans = Some(tracer);
        passes.extend(plain);
        passes.extend(traced);
    } else {
        let mut tracer = Tracer::new(false, Instant::now());
        passes = pass_loop(&stream, args.seconds, &mut tracer, scale.corrupt)?;
        let peak = data::peak_rss_mb()?;
        let commits = pooled(&passes, |p| &p.commit_ms);
        let reads = pooled(&passes, |p| &p.read_ms);
        let trips_per_s = median(
            &passes
                .iter()
                .map(|p| trips as f64 / p.stream_s)
                .collect::<Vec<_>>(),
        );
        let disk = median(
            &passes
                .iter()
                .map(|p| {
                    let written = p.stream_obs.wal_bytes_written + p.checkpoint_bytes;
                    ratio(written as f64, stream.user_bytes as f64)
                })
                .collect::<Vec<_>>(),
        );
        let e = &mut out.end_to_end;
        e.insert(
            "setup_s",
            median(&phases.iter().map(Phases::total_s).collect::<Vec<_>>()),
        );
        e.insert("ops_per_s", trips_per_s);
        e.insert("latency_p50_ms", quantile(&commits, 0.5));
        e.insert("peak_rss_mb", peak);
        out.report("ingest_trips_per_s", "trips/s", trips_per_s);
        out.report("ingest_commit_p50_ms", "ms", quantile(&commits, 0.5));
        out.report("ingest_commit_p99_ms", "ms", quantile(&commits, 0.99));
        out.report("ingest_commit_p999_ms", "ms", quantile(&commits, 0.999));
        out.report("ingest_commits", "count", commits.len() as f64);
        out.report("ingest_read_p99_ms", "ms", quantile(&reads, 0.99));
        out.report("ingest_reads", "count", reads.len() as f64);
        out.report(
            "recovery_s",
            "s",
            median(&passes.iter().map(|p| p.recovery_s).collect::<Vec<_>>()),
        );
        out.report("ingest_disk_bytes_per_user_byte", "ratio", disk);
        out.report("ingest_passes", "count", passes.len() as f64);
    }
    for p in &passes {
        out.attempted += p.attempted;
        out.failed += p.failed;
    }
    Ok(out)
}
