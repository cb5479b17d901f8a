//! Seeded inputs and the set-up phases every workload shares: BerlinMOD
//! generation, loading into quackdb, and process-level measurements.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use berlinmod::{BerlinModData, RoadNetwork, ScaleFactor};
use mduck_prng::{RngExt, SeedableRng, StdRng};

/// Generate the BerlinMOD-Hanoi dataset for one scale factor. Both the
/// road network and the trips derive from the workload seed.
///
/// The generator draws each vehicle's type independently (10% trucks),
/// so the truck count of a 200-vehicle fleet swings by ±20% between
/// seeds, and Q6 (truck pairs) with it, quadratically. The benchmark
/// relabels a seeded choice of exactly a tenth of the vehicles as trucks
/// instead; trips do not depend on the label.
pub fn generate(sf: f64, seed: u64) -> BerlinModData {
    let net = RoadNetwork::generate(seed);
    let mut data = BerlinModData::generate(&net, ScaleFactor(sf), seed);
    let mut order: Vec<usize> = (0..data.vehicles.len()).collect();
    StdRng::seed_from_u64(seed ^ 0x7275_636b).shuffle(&mut order);
    let trucks = data.vehicles.len().div_ceil(10);
    for (rank, &v) in order.iter().enumerate() {
        data.vehicles[v].vehicle_type = if rank < trucks { "truck" } else { "passenger" };
    }
    data
}

/// The seed of the `i`-th dataset of a run (SplitMix64 finaliser).
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A quackdb instance with the MobilityDuck extension loaded.
pub fn new_quack() -> quackdb::Database {
    let db = quackdb::Database::new();
    mobilityduck::load(&db);
    db
}

/// A row-engine instance with the MobilityDuck extension loaded.
pub fn new_row() -> mduck_rowdb::RowDatabase {
    let db = mduck_rowdb::RowDatabase::new();
    mobilityduck::load_row(&db);
    db
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from process status".to_string())
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Wall time of each set-up phase, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub generate_ms: f64,
    pub load_ms: f64,
    pub index_ms: f64,
}

impl Phases {
    pub fn total_s(&self) -> f64 {
        (self.generate_ms + self.load_ms + self.index_ms) / 1e3
    }
}

/// Run a set-up `reps` times, dropping each result before the next one
/// is built, and keep the last. Returns the per-repetition phases.
pub fn repeat_setup<T>(
    reps: usize,
    mut once: impl FnMut() -> Result<(T, Phases), String>,
) -> Result<(T, Vec<Phases>), String> {
    let mut phases = Vec::new();
    let mut kept = None;
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let (t, p) = once()?;
        phases.push(p);
        kept = Some(t);
    }
    let kept = kept.ok_or("set-up ran zero times")?;
    Ok((kept, phases))
}

/// A scratch directory under the working directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(tag: &str) -> Result<Self, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            PathBuf::from(".perfbench_runs").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
