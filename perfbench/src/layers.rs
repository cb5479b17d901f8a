//! Per-layer metrics shared by the workloads: set-up phases, statement
//! phases (from obs registry deltas and the benchmark's spans), operator
//! self times (from `execute_analyzed`), and probes that call the public
//! kernels of `sql`, `temporal`, `geo` and `rtree` on the workload's own
//! inputs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use berlinmod::BerlinModData;
use mduck_geo::point::Point;
use mduck_geo::Geometry;
use mduck_prng::{RngExt, SeedableRng, StdRng};
use mduck_rtree::{RTree, Rect3};
use mduck_temporal::boxes::STBox;
use mduck_temporal::temporal::TGeomPoint;
use mduck_temporal::TimestampTz;
use quackdb::database::ProfiledQuery;

use crate::data::Phases;
use crate::stats::{median, ratio};
use crate::trace::{hist_mean, ObsSnap, SpanStats};

pub type Layers = BTreeMap<&'static str, f64>;

/// Kernel calls timed per kernel; `*_calls` still counts every input.
const KERNEL_SAMPLE: usize = 2000;
/// Minimum wall time of the parse probe.
const PARSE_PROBE: Duration = Duration::from_millis(30);

/// A position some vehicle really had: where and when, on which trip.
#[derive(Debug, Clone, Copy)]
pub struct Position {
    pub at: Point,
    pub t: TimestampTz,
    pub vehicle_id: i64,
}

/// `n` positions drawn uniformly over trips, then over each trip's
/// instants.
pub fn sample_positions(data: &BerlinModData, n: usize, rng: &mut StdRng) -> Vec<Position> {
    (0..n)
        .map(|_| {
            let trip = &data.trips[rng.random_range(0..data.trips.len())];
            let instants = trip.trip.temp.instants();
            let i = instants[rng.random_range(0..instants.len())];
            Position {
                at: i.value,
                t: i.t,
                vehicle_id: trip.vehicle_id,
            }
        })
        .collect()
}

pub fn setup(m: &mut Layers, phases: &[Phases]) {
    let pick = |f: fn(&Phases) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    m.insert("berlinmod.generate_ms", pick(|p| p.generate_ms));
    m.insert("vecdb.load_ms", pick(|p| p.load_ms));
    m.insert("core.trtree_build_ms", pick(|p| p.index_ms));
}

/// A traced run of statements: registry deltas over the run, the spans
/// around each `Database::execute`, and the rows those returned.
pub struct StatementPhase {
    pub delta: ObsSnap,
    pub execute: SpanStats,
    pub rows_returned: u64,
}

pub fn statements(m: &mut Layers, p: &StatementPhase) {
    let d = &p.delta;
    let n = p.execute.count as f64;
    let per = |v: u64| ratio(v as f64, n);
    let exec_us = hist_mean(d.vecdb_exec_ns, 1e3);
    m.insert("vecdb.bind_us", hist_mean(d.vecdb_bind_ns, 1e3));
    m.insert("vecdb.plan_us", hist_mean(d.vecdb_plan_ns, 1e3));
    m.insert("vecdb.exec_us", exec_us);
    m.insert("vecdb.fixed_overhead_us", p.execute.mean_us() - exec_us);
    m.insert("vecdb.rows_scanned", per(d.rows_scanned));
    m.insert("vecdb.rows_filtered", per(d.rows_filtered));
    m.insert("vecdb.rows_joined", per(d.rows_joined));
    m.insert("vecdb.chunks_produced", per(d.chunks_produced));
    m.insert(
        "vecdb.rows_returned_per_scanned",
        ratio(p.rows_returned as f64, d.rows_scanned as f64),
    );
    m.insert("vecdb.parallel_stages", per(d.parallel_stages));
    m.insert("vecdb.morsels_dispatched", per(d.morsels_dispatched));
    m.insert(
        "vecdb.parallel_workers_spawned",
        per(d.parallel_workers_spawned),
    );
    m.insert("vecdb.index_probes", per(d.index_probes));
    m.insert("vecdb.full_scans", per(d.full_scans));
}

/// Operator and stage self times summed over one pass of analyzed
/// statements, the largest per-statement memory peak, and the index's
/// precision (rows returned per index candidate) over the statements
/// that used an index scan.
pub fn analyzed(m: &mut Layers, pass: &[ProfiledQuery]) {
    const OPS: &[(&str, &str)] = &[
        ("seq_scan", "vecdb.op.seq_scan_ms"),
        ("index_scan", "vecdb.op.index_scan_ms"),
        ("filter", "vecdb.op.filter_ms"),
        ("hash_join", "vecdb.op.hash_join_ms"),
        ("cross_product", "vecdb.op.cross_product_ms"),
        ("cte_scan", "vecdb.op.cte_scan_ms"),
    ];
    const STAGES: &[(&str, &str)] = &[
        ("aggregate", "vecdb.stage.aggregate_ms"),
        ("order_by", "vecdb.stage.order_by_ms"),
        ("distinct", "vecdb.stage.distinct_ms"),
        ("projection", "vecdb.stage.projection_ms"),
    ];
    for &(op, name) in OPS {
        let ms: f64 = pass
            .iter()
            .flat_map(|q| &q.operators)
            .filter(|o| o.op == op)
            .map(|o| o.elapsed_ms)
            .sum();
        m.insert(name, ms);
    }
    for &(stage, name) in STAGES {
        let ms: f64 = pass
            .iter()
            .flat_map(|q| &q.stages)
            .filter(|s| s.stage == stage)
            .map(|s| s.elapsed_ms)
            .sum();
        m.insert(name, ms);
    }
    let peak = pass.iter().map(|q| q.mem_peak).max().unwrap_or(0);
    m.insert("vecdb.query_mem_peak_mb", peak as f64 / (1024.0 * 1024.0));
    let (mut returned, mut candidates) = (0u64, 0u64);
    for q in pass {
        let scanned: u64 = q
            .operators
            .iter()
            .filter(|o| o.op == "index_scan")
            .map(|o| o.rows_scanned)
            .sum();
        if scanned > 0 {
            candidates += scanned;
            returned += q.result.rows.len() as u64;
        }
    }
    m.insert(
        "core.index_precision",
        ratio(returned as f64, candidates as f64),
    );
}

/// Mean `mduck_sql::parse_statement` time over the workload's own SQL.
pub fn parse(m: &mut Layers, sqls: &[String]) -> Result<(), String> {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < PARSE_PROBE {
        for sql in sqls {
            let stmt = mduck_sql::parse_statement(black_box(sql))
                .map_err(|e| format!("parse probe: {e}\n{sql}"))?;
            black_box(stmt);
            calls += 1;
        }
    }
    m.insert(
        "sql.parse_us",
        start.elapsed().as_secs_f64() * 1e6 / calls as f64,
    );
    Ok(())
}

/// Time `f` over the first [`KERNEL_SAMPLE`] inputs; records ns per
/// call and the number of inputs the workload's data offers.
fn kernel<T>(m: &mut Layers, ns: &'static str, calls: &'static str, inputs: &[T], f: impl Fn(&T)) {
    let sample = &inputs[..inputs.len().min(KERNEL_SAMPLE)];
    let start = Instant::now();
    for x in sample {
        f(black_box(x));
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    m.insert(ns, ratio(elapsed, sample.len() as f64));
    m.insert(calls, inputs.len() as f64);
}

fn boxes_overlap(a: &STBox, b: &STBox) -> bool {
    a.overlaps(b).unwrap_or(false)
}

/// The BerlinMOD kernels on the inputs the queries hand them: trips ×
/// `periods1` (Q8/Q9), trips × `instants1` (Q3/Q11/Q14), the Q6 truck
/// pairs, the Q10 candidate pairs, trips × `regions1` (Q13/Q16) and
/// trajectories × `points1` (Q4/Q7/Q17). Pairs are the ones that pass the
/// same bounding-box filter the SQL applies first.
pub fn kernels(m: &mut Layers, data: &BerlinModData) -> Result<(), String> {
    let trips: Vec<&TGeomPoint> = data.trips.iter().map(|t| &t.trip).collect();
    let boxes: Vec<STBox> = trips.iter().map(|t| t.stbox()).collect();
    let vehicle = |i: usize| data.trips[i].vehicle_id;
    // The 10-row sample tables are prefixes, as `BerlinModData` loads them.
    let periods1 = &data.periods[..data.periods.len().min(10)];
    let instants1 = &data.instants[..data.instants.len().min(10)];
    let points1 = &data.points[..data.points.len().min(10)];
    let regions1 = &data.regions[..data.regions.len().min(10)];
    let licenses1: Vec<i64> = data
        .vehicles
        .iter()
        .take(10)
        .map(|v| v.vehicle_id)
        .collect();
    let trucks: Vec<i64> = data
        .vehicles
        .iter()
        .filter(|v| v.vehicle_type == "truck")
        .map(|v| v.vehicle_id)
        .collect();

    // Q10: licenses1 trips against every other vehicle's trips within 3 m.
    let mut q10 = Vec::new();
    for (i, b) in boxes
        .iter()
        .enumerate()
        .filter(|(i, _)| licenses1.contains(&vehicle(*i)))
    {
        let grown = b.expand_space(3.0).map_err(|e| e.to_string())?;
        for (j, b2) in boxes.iter().enumerate() {
            if vehicle(j) != vehicle(i) && boxes_overlap(b2, &grown) {
                q10.push((i, j));
            }
        }
    }
    kernel(
        m,
        "temporal.tdwithin_ns",
        "temporal.tdwithin_calls",
        &q10,
        |&(i, j)| {
            black_box(trips[i].tdwithin(trips[j], 3.0));
        },
    );

    // Q6: truck pairs within 10 m.
    let truck_trips: Vec<usize> = (0..trips.len())
        .filter(|&i| trucks.contains(&vehicle(i)))
        .collect();
    let mut q6 = Vec::new();
    for &i in &truck_trips {
        for &j in &truck_trips {
            if vehicle(i) < vehicle(j) {
                let grown = boxes[j].expand_space(10.0).map_err(|e| e.to_string())?;
                if boxes_overlap(&boxes[i], &grown) {
                    q6.push((i, j));
                }
            }
        }
    }
    kernel(
        m,
        "temporal.edwithin_ns",
        "temporal.edwithin_calls",
        &q6,
        |&(i, j)| {
            black_box(trips[i].edwithin(trips[j], 10.0));
        },
    );

    let mut at_period = Vec::new();
    for (i, t) in trips.iter().enumerate() {
        for p in periods1 {
            if t.timespan().overlaps(p) {
                at_period.push((i, *p));
            }
        }
    }
    kernel(
        m,
        "temporal.at_period_ns",
        "temporal.at_period_calls",
        &at_period,
        |(i, p)| {
            black_box(trips[*i].at_period(p));
        },
    );
    let restricted: Vec<TGeomPoint> = at_period
        .iter()
        .filter_map(|(i, p)| trips[*i].at_period(p))
        .collect();
    kernel(
        m,
        "temporal.length_ns",
        "temporal.length_calls",
        &restricted,
        |t| {
            black_box(t.length());
        },
    );

    let mut value_at = Vec::new();
    for (i, t) in trips.iter().enumerate() {
        for at in instants1 {
            if t.timespan().contains_value(*at) {
                value_at.push((i, *at));
            }
        }
    }
    kernel(
        m,
        "temporal.value_at_ns",
        "temporal.value_at_calls",
        &value_at,
        |(i, at)| {
            black_box(trips[*i].value_at(*at));
        },
    );

    let region_boxes: Vec<STBox> = regions1
        .iter()
        .map(STBox::from_geometry)
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut eint = Vec::new();
    for (i, b) in boxes.iter().enumerate() {
        for (r, rb) in region_boxes.iter().enumerate() {
            if boxes_overlap(b, rb) {
                eint.push((i, r));
            }
        }
    }
    kernel(
        m,
        "temporal.eintersects_ns",
        "temporal.eintersects_calls",
        &eint,
        |&(i, r)| {
            black_box(trips[i].eintersects(&regions1[r]));
        },
    );

    let point_boxes: Vec<STBox> = points1
        .iter()
        .map(STBox::from_geometry)
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut near_points = Vec::new();
    for (i, b) in boxes.iter().enumerate() {
        for (p, pb) in point_boxes.iter().enumerate() {
            if boxes_overlap(b, pb) {
                near_points.push((i, p));
            }
        }
    }
    kernel(
        m,
        "temporal.trajectory_ns",
        "temporal.trajectory_calls",
        &near_points,
        |&(i, _)| {
            black_box(trips[i].trajectory());
        },
    );
    let with_traj: Vec<(Geometry, usize)> = near_points
        .iter()
        .map(|&(i, p)| (trips[i].trajectory(), p))
        .collect();
    kernel(
        m,
        "geo.intersects_ns",
        "geo.intersects_calls",
        &with_traj,
        |(g, p)| {
            black_box(mduck_geo::algorithms::intersects(g, &points1[*p]));
        },
    );
    kernel(
        m,
        "geo.distance_ns",
        "geo.distance_calls",
        &with_traj,
        |(g, p)| {
            black_box(mduck_geo::algorithms::distance(g, &points1[*p]));
        },
    );
    Ok(())
}

/// The 3-D box of a square of half-side `half` around `p`, over all time.
pub fn window_rect(p: Point, half: f64) -> Rect3 {
    Rect3::new(
        [p.x - half, p.y - half, f64::NEG_INFINITY],
        [p.x + half, p.y + half, f64::INFINITY],
    )
}

/// An `RTree` bulk-loaded from the workload's trip boxes: search time and
/// candidates per window probe, and incremental insert time.
pub fn rtree(m: &mut Layers, data: &BerlinModData, seed: u64) {
    let items: Vec<(Rect3, u64)> = data
        .trips
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let (lo, hi) = t.trip.stbox().to_xyt();
            (Rect3::new(lo, hi), i as u64)
        })
        .collect();
    let tree = RTree::bulk_load(items.clone());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7472_6565);
    let probes: Vec<Rect3> = sample_positions(data, 1000, &mut rng)
        .iter()
        .map(|p| window_rect(p.at, 200.0))
        .collect();
    let start = Instant::now();
    let mut candidates = 0usize;
    for q in &probes {
        candidates += black_box(tree.search(q)).len();
    }
    m.insert(
        "rtree.search_ns",
        ratio(start.elapsed().as_nanos() as f64, probes.len() as f64),
    );
    m.insert(
        "rtree.candidates_per_probe",
        ratio(candidates as f64, probes.len() as f64),
    );
    let start = Instant::now();
    let mut grown = RTree::new();
    for (rect, id) in &items {
        grown.insert(*rect, *id);
    }
    black_box(&grown);
    m.insert(
        "rtree.insert_ns",
        ratio(start.elapsed().as_nanos() as f64, items.len() as f64),
    );
}

/// `(traced / untraced - 1)` in percent, from the two runs' per-operation
/// figures.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    (ratio(traced, untraced) - 1.0) * 100.0
}
