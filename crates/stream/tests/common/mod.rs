//! Fixtures and comparisons shared by the orchestrator suites: the run
//! matrix, the resume suite and the observability suite.
#![allow(dead_code)] // each suite uses its own subset

use pmkm_core::KMeansConfig;
use pmkm_stream::fault::InjectedPanic;
use pmkm_stream::prelude::*;
use pmkm_stream::CellClustering;
use std::path::{Path, PathBuf};
use std::sync::Once;
use std::time::Duration;

/// Keeps injected panics out of the test output (real panics still print).
pub fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Writes cell `idx`'s bucket of `n` 2-D points, half near 0 and half
/// near 40, under `dir`.
pub fn write_cell(dir: &Path, idx: u16, n: usize, seed: u64) -> PathBuf {
    use rand::Rng;
    let mut rng = pmkm_core::seeding::rng_for(seed, idx as u64);
    let mut points = pmkm_core::Dataset::new(2).unwrap();
    for _ in 0..n {
        let blob = if rng.gen_bool(0.5) { 0.0 } else { 40.0 };
        points.push(&[blob + rng.gen_range(-1.0..1.0), blob + rng.gen_range(-1.0..1.0)]).unwrap();
    }
    let cell = pmkm_data::GridCell::new(idx, idx).unwrap();
    let path = dir.join(cell.bucket_file_name());
    pmkm_data::GridBucket { cell, points }.write_to(&path).unwrap();
    path
}

/// A planet of `cells` buckets with varied sizes, k = 2, 40-point chunks.
pub fn planet(tag: &str, cells: usize, data_seed: u64, plan_seed: u64) -> (PathBuf, PhysicalPlan) {
    let dir = std::env::temp_dir().join(format!("pmkm_stream_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<PathBuf> =
        (1..=cells).map(|i| write_cell(&dir, i as u16, 60 + 25 * (i % 4), data_seed)).collect();
    let logical =
        LogicalPlan::new(paths, KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, plan_seed) });
    let plan = optimize_fixed_split(logical, &Resources::fixed(1 << 20, 2), 40);
    (dir, plan)
}

/// A cell's answer as text, wall times zeroed. JSON prints every `f64` as
/// the shortest string that reads back to the same bits, so two texts are
/// equal exactly when every centroid, weight, `E_pm`, MSE, iteration count,
/// per-chunk statistic, trajectory, mass figure and coreset summary is.
pub fn answer(c: &CellClustering) -> String {
    let mut c = c.clone();
    c.output.elapsed = Duration::ZERO;
    c.chunks.iter_mut().for_each(|s| s.elapsed = Duration::ZERO);
    serde_json::to_string(&c).unwrap()
}

/// Every answer of a planet run, wall times aside: each cell's input, path,
/// fault counters and [`answer`] in report order, then the planet's fault
/// counters and cell count.
pub fn answers(p: &PlanetReport) -> Vec<String> {
    let cell = |o: &pmkm_stream::CellOutcome| {
        let c = o.clustering.as_ref().map_or("lost".to_string(), answer);
        format!("{} {:?} {:?} {} {c}", o.input, o.path, o.faults, o.degraded)
    };
    let planet = format!("{:?} {} {}", p.faults, p.degraded, p.cells_total);
    p.cells.iter().map(cell).chain([planet]).collect()
}
