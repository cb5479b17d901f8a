//! Regenerates **Table 2**: BerlinMOD-Hanoi datasets at SF 0.01 / 0.02 /
//! 0.05 / 0.1 (vehicles, days, trips, approximate size).
//!
//! Pass `--small` to only generate the two smallest factors (quick check).

#![forbid(unsafe_code)]

use berlinmod::{BerlinModData, RoadNetwork, ScaleFactor};
use mduck_bench::{human_size, render_table};

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let sfs: &[f64] = if small { &[0.01, 0.02] } else { &[0.01, 0.02, 0.05, 0.1] };
    let net = RoadNetwork::generate(42);
    let mut rows = Vec::new();
    for &sf in sfs {
        let data = BerlinModData::generate(&net, ScaleFactor(sf), 42);
        rows.push(vec![
            format!("SF {sf}"),
            data.vehicles.len().to_string(),
            ScaleFactor(sf).num_days().to_string(),
            data.trips.len().to_string(),
            human_size(data.approx_size_bytes()),
        ]);
    }
    println!("Table 2: BerlinMOD-Hanoi datasets at different scale factors\n");
    println!(
        "{}",
        render_table(&["Scale Factor", "Vehicles", "Days", "Trips", "Size"], &rows)
    );
    println!("(paper: SF 0.01 → 200 vehicles / 5 days / 2,903 trips; vehicle and day");
    println!(" counts are exact by the closed-form model, trip counts stochastic ±5%)");
}
