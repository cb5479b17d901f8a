//! Ablation for the §6.3 Query-5 optimization: the WKB proxy-layer
//! formulation (`trajectory(...)::GEOMETRY`, `ST_Collect`, `ST_Distance`)
//! versus the MobilityDuck-native `_gs` formulation (`trajectory_gs`,
//! `collect_gs`, `distance_gs`), which keeps geometries in the native
//! serialized form end to end.
//!
//! The paper motivates `_gs` by the "heavy" casting between WKB_BLOB and
//! GEOMETRY; this binary measures exactly that gap.

#![forbid(unsafe_code)]

use berlinmod::ScaleFactor;
use mduck_bench::{render_table, BenchEnv, Scenario};

const Q5_WKB: &str = "WITH Temp1(license1, trajs) AS (
   SELECT l1.license, ST_Collect(list(trajectory(t1.trip)::GEOMETRY))
   FROM trips t1, licenses1 l1
   WHERE t1.vehicleid = l1.vehicleid
   GROUP BY l1.license ),
 Temp2(license2, trajs) AS (
   SELECT l2.license, ST_Collect(list(trajectory(t2.trip)::GEOMETRY))
   FROM trips t2, licenses2 l2
   WHERE t2.vehicleid = l2.vehicleid
   GROUP BY l2.license )
 SELECT license1, license2, ST_Distance(t1.trajs, t2.trajs) AS mindist
 FROM Temp1 t1, Temp2 t2
 ORDER BY license1, license2";

const Q5_GS: &str = "WITH Temp1(license1, trajs) AS (
   SELECT l1.license, collect_gs(list(trajectory_gs(t1.trip)))
   FROM trips t1, licenses1 l1
   WHERE t1.vehicleid = l1.vehicleid
   GROUP BY l1.license ),
 Temp2(license2, trajs) AS (
   SELECT l2.license, collect_gs(list(trajectory_gs(t2.trip)))
   FROM trips t2, licenses2 l2
   WHERE t2.vehicleid = l2.vehicleid
   GROUP BY l2.license )
 SELECT license1, license2, distance_gs(t1.trajs, t2.trajs) AS mindist
 FROM Temp1 t1, Temp2 t2
 ORDER BY license1, license2";

/// Runs per formulation and scale; the table reports their median. Three
/// runs let one noisy run move a cell by a quarter.
const RUNS: usize = 7;

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let sfs: &[f64] = if small { &[0.001] } else { &[0.001, 0.002, 0.005] };
    let mut rows = Vec::new();
    for &sf in sfs {
        eprintln!("preparing SF-{sf} ...");
        let env = BenchEnv::prepare(ScaleFactor(sf), 42);
        let (wkb_ms, n1) = env.run_median(Scenario::MobilityDuck, Q5_WKB, RUNS);
        let (gs_ms, n2) = env.run_median(Scenario::MobilityDuck, Q5_GS, RUNS);
        assert_eq!(n1, n2, "the two formulations must return the same rows");
        // The same license pairs, at the same distances.
        let a = env.vdb.execute(Q5_WKB).unwrap().rows;
        let b = env.vdb.execute(Q5_GS).unwrap().rows;
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra[..2], rb[..2], "the formulations pair different licenses");
            let (da, db) = (ra[2].as_float().unwrap(), rb[2].as_float().unwrap());
            assert!((da - db).abs() <= 1e-6 * da.abs().max(1.0), "distances diverge");
        }
        rows.push(vec![
            format!("SF-{sf}"),
            format!("{wkb_ms:.2}"),
            format!("{gs_ms:.2}"),
            format!("{:.2}×", wkb_ms / gs_ms.max(1e-9)),
        ]);
    }
    println!("§6.3 ablation: Query 5 via the WKB proxy layer vs the native _gs path\n");
    println!(
        "{}",
        render_table(&["scale", "WKB path (ms)", "_gs path (ms)", "speedup"], &rows)
    );
    println!("(the paper reports the _gs rewrite as the fix for Query 5's WKB-cast overhead)");
}
