//! Regenerates **Table 3**: the benchmark datasets at SF-0.001 / 0.002 /
//! 0.005 / 0.01 (vehicles, trips).

#![forbid(unsafe_code)]

use berlinmod::{BerlinModData, RoadNetwork, ScaleFactor};
use mduck_bench::render_table;

fn main() {
    let net = RoadNetwork::generate(42);
    let mut rows = Vec::new();
    for sf in [0.001, 0.002, 0.005, 0.01] {
        let data = BerlinModData::generate(&net, ScaleFactor(sf), 42);
        rows.push(vec![
            format!("SF-{sf}"),
            data.vehicles.len().to_string(),
            data.trips.len().to_string(),
        ]);
    }
    println!("Table 3: BerlinMOD-Hanoi benchmark datasets\n");
    println!(
        "{}",
        render_table(&["Scale factor", "Number of vehicles", "Number of trips"], &rows)
    );
    println!("(paper: 63/549, 89/758, 141/1620, 200/2903)");
}
