//! The full partial/merge pipeline over an in-memory grid cell.
//!
//! This is the library-level entry point (Figure 5 of the paper): deal the
//! cell into chunks, run best-of-R k-means on every chunk on the calling
//! thread, and merge the weighted centroids. The stream-operator version
//! that adds queues, backpressure and operator cloning (the only place the
//! partial step runs on more than one thread) lives in the `pmkm-stream`
//! crate. The two lay out chunks and derive chunk seeds differently, so the
//! integration tests assert structural agreement — same partition count,
//! point mass and k, comparable quality — not bit-identity.

use crate::config::{KMeansConfig, PartialMergeConfig};
use crate::dataset::{Dataset, PointSource, WeightedSet};
use crate::error::Result;
use crate::merge::{merge_collective_observed, MergeOutput};
use crate::partial::partial_kmeans_observed;
use crate::seeding::derive_seed;
use crate::slicing::slice;
use pmkm_obs::{CellReport, ChunkReport, MergeReport, Recorder, RunReport};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Chunk-size histogram bounds (points per chunk), shared with the stream
/// engine's chunker so the two pipelines report comparable distributions.
pub const CHUNK_SIZE_BOUNDS: [f64; 7] = [64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0];

/// Stream tag separating per-chunk seeds from restart and shuffle streams.
const CHUNK_STREAM: u64 = 0x4348_554E_4B53_4531; // "CHUNKSE1"

/// Summary of one partition's clustering, kept for Table 2 style reporting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChunkStats {
    /// Partition index (`0..p`).
    pub chunk: usize,
    /// Points in the partition (`N_j`).
    pub points: usize,
    /// Best-of-R minimum MSE achieved on the partition.
    pub best_mse: f64,
    /// Lloyd iterations summed over the partition's restarts.
    pub total_iterations: usize,
    /// Wall time of the partition's clustering.
    pub elapsed: Duration,
}

/// Result of a full partial/merge run on one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialMergeResult {
    /// The merged representation (final centroids, `E_pm`, merge timing).
    pub merge: MergeOutput,
    /// Per-chunk statistics in chunk order.
    pub chunks: Vec<ChunkStats>,
    /// Number of partitions used (`p`).
    pub partitions: usize,
    /// Wall time of the partial phase — the paper's `t C0−Ci` column.
    pub partial_elapsed: Duration,
    /// End-to-end wall time (`overall t` minus data generation).
    pub total_elapsed: Duration,
}

impl PartialMergeResult {
    /// Total points across all chunks.
    pub fn total_points(&self) -> usize {
        self.chunks.iter().map(|c| c.points).sum()
    }
}

/// Runs the pipeline with all partial steps on the calling thread — the
/// paper's "even if all partial k-means steps are run serially on one
/// machine" configuration used for Table 2.
pub fn partial_merge(ds: &Dataset, cfg: &PartialMergeConfig) -> Result<PartialMergeResult> {
    Ok(run(ds, cfg, None)?.0)
}

/// Runs the pipeline with full observability: chunk sizes, per-iteration
/// MSE, restart outcomes and pruning rates flow into `rec` (when given),
/// and the call returns a [`RunReport`] for the cell alongside the normal
/// result.
pub fn partial_merge_observed(
    ds: &Dataset,
    cfg: &PartialMergeConfig,
    rec: Option<&Recorder>,
) -> Result<(PartialMergeResult, RunReport)> {
    let started = Instant::now();
    let (res, trajectories) = run(ds, cfg, rec)?;
    if let Some(rec) = rec {
        rec.event(
            "merge.done",
            &[
                ("input_centroids", res.merge.input_centroids.into()),
                ("epm", res.merge.epm.into()),
                ("mse", res.merge.mse.into()),
                ("iterations", res.merge.iterations.into()),
                ("converged", res.merge.converged.into()),
            ],
        );
    }
    let report = RunReport {
        elapsed: started.elapsed(),
        cells: vec![cell_report("in-memory".to_string(), &res.chunks, &trajectories, &res.merge)],
        metrics: rec.map(|r| r.registry().snapshot()).unwrap_or_default(),
        phases: rec.map(|r| r.phase_rows()).unwrap_or_default(),
        ..RunReport::new()
    };
    Ok((res, report))
}

/// The seed of chunk `chunk`'s partial step, derived from the run's base
/// seed on a stream of its own, so a chunk's clustering does not depend on
/// how many chunks came before it or which thread runs it.
pub fn chunk_seed(seed: u64, chunk: usize) -> u64 {
    derive_seed(seed, CHUNK_STREAM ^ chunk as u64)
}

/// Builds the observability layer's [`CellReport`] for one merged cell from
/// its per-chunk statistics, their winning restarts' MSE trajectories
/// (aligned with `chunks`; a missing one reports empty) and the merge. The
/// mass accounting is that of a fault-free run: every clustered point was
/// expected and none was lost.
pub fn cell_report(
    cell: String,
    chunks: &[ChunkStats],
    trajectories: &[Vec<f64>],
    merge: &MergeOutput,
) -> CellReport {
    let total_points = merge.cluster_weights.iter().sum::<f64>().round() as usize;
    let chunks = chunks
        .iter()
        .enumerate()
        .map(|(i, c)| ChunkReport {
            chunk: c.chunk,
            points: c.points,
            best_mse: c.best_mse,
            iterations: c.total_iterations,
            elapsed: c.elapsed,
            mse_trajectory: trajectories.get(i).cloned().unwrap_or_default(),
        })
        .collect();
    CellReport {
        cell,
        total_points,
        expected_points: total_points as f64,
        lost_points: 0.0,
        lost_chunks: 0,
        degraded: false,
        chunks,
        merge: MergeReport {
            input_centroids: merge.input_centroids,
            epm: merge.epm,
            mse: merge.mse,
            iterations: merge.iterations,
            converged: merge.converged,
            elapsed: merge.elapsed,
        },
    }
}

/// The chunk loop: slice the cell, run best-of-R k-means on every non-empty
/// chunk under its [`chunk_seed`], then merge the weighted centroid sets.
/// Returns the result and each chunk's MSE trajectory.
fn run(
    ds: &Dataset,
    cfg: &PartialMergeConfig,
    rec: Option<&Recorder>,
) -> Result<(PartialMergeResult, Vec<Vec<f64>>)> {
    cfg.validate()?;
    let started = Instant::now();
    let p = cfg.partitions;
    let parts = slice(ds, p, cfg.slicing, cfg.kmeans.seed)?;
    let chunk_points = rec.map(|r| r.registry().histogram("chunk_points", &CHUNK_SIZE_BOUNDS));

    let partial_started = Instant::now();
    let mut sets: Vec<WeightedSet> = Vec::with_capacity(p);
    let mut chunks = Vec::with_capacity(p);
    let mut trajectories = Vec::with_capacity(p);
    for (i, chunk) in parts.iter().enumerate().filter(|(_, c)| !c.is_empty()) {
        if let Some(hist) = &chunk_points {
            hist.observe(chunk.len() as f64);
        }
        let o = {
            let _phase = rec.and_then(|r| r.phase("partial"));
            let chunk_cfg = KMeansConfig { seed: chunk_seed(cfg.kmeans.seed, i), ..cfg.kmeans };
            partial_kmeans_observed(chunk, &chunk_cfg, rec)?
        };
        chunks.push(ChunkStats {
            chunk: i,
            points: o.points,
            best_mse: o.best_mse,
            total_iterations: o.total_iterations,
            elapsed: o.elapsed,
        });
        trajectories.push(o.best_trajectory);
        sets.push(o.centroids);
    }
    let partial_elapsed = partial_started.elapsed();

    let merged = {
        let _phase = rec.and_then(|r| r.phase("merge"));
        merge_collective_observed(&sets, &cfg.kmeans, cfg.merge_restarts, rec)?
    };

    Ok((
        PartialMergeResult {
            merge: merged,
            chunks,
            partitions: p,
            partial_elapsed,
            total_elapsed: started.elapsed(),
        },
        trajectories,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn three_blob_cell(n_per: usize) -> Dataset {
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..n_per {
            let o = (i % 10) as f64 * 0.02;
            ds.push(&[o, o]).unwrap();
            ds.push(&[30.0 + o, 30.0 - o]).unwrap();
            ds.push(&[-30.0 + o, 30.0 + o]).unwrap();
        }
        ds
    }

    #[test]
    fn pipeline_recovers_cluster_structure() {
        let ds = three_blob_cell(60); // 180 points
        let cfg = PartialMergeConfig::paper(3, 5, 42);
        let res = partial_merge(&ds, &cfg).unwrap();
        assert_eq!(res.partitions, 5);
        assert_eq!(res.total_points(), 180);
        assert_eq!(res.merge.centroids.k(), 3);
        // Final centroids land near the three blob centers.
        let mut xs: Vec<f64> = res.merge.centroids.iter().map(|c| c[0]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((xs[0] + 30.0).abs() < 1.0);
        assert!(xs[1].abs() < 1.0);
        assert!((xs[2] - 30.0).abs() < 1.0);
        // Quality against the ORIGINAL points is excellent.
        let mse = metrics::mse_against(&ds, &res.merge.centroids).unwrap();
        assert!(mse < 1.0, "mse = {mse}");
    }

    #[test]
    fn weight_conservation_end_to_end() {
        let ds = three_blob_cell(40); // 120 points
        let cfg = PartialMergeConfig::paper(3, 10, 7);
        let res = partial_merge(&ds, &cfg).unwrap();
        let total: f64 = res.merge.cluster_weights.iter().sum();
        assert!((total - 120.0).abs() < 1e-9);
    }

    #[test]
    fn more_partitions_than_points_still_works() {
        let ds = three_blob_cell(2); // 6 points
        let cfg = PartialMergeConfig::paper(3, 10, 0);
        let res = partial_merge(&ds, &cfg).unwrap();
        // Empty chunks are skipped; all 6 points survive to the merge.
        let total: f64 = res.merge.cluster_weights.iter().sum();
        assert_eq!(total, 6.0);
    }

    #[test]
    fn single_partition_equals_plain_kmeans_structure() {
        // p = 1: partial/merge degenerates to k-means on the whole cell plus
        // a trivial merge of k weighted centroids (passthrough).
        let ds = three_blob_cell(30);
        let cfg = PartialMergeConfig::paper(3, 1, 21);
        let res = partial_merge(&ds, &cfg).unwrap();
        assert_eq!(res.partitions, 1);
        assert_eq!(res.merge.centroids.k(), 3);
        assert_eq!(res.merge.epm, 0.0); // passthrough merge
    }

    #[test]
    fn chunk_stats_are_complete() {
        let ds = three_blob_cell(50);
        let cfg = PartialMergeConfig::paper(3, 5, 3);
        let res = partial_merge(&ds, &cfg).unwrap();
        assert_eq!(res.chunks.len(), 5);
        for (i, c) in res.chunks.iter().enumerate() {
            assert_eq!(c.chunk, i);
            assert!(c.points == 30);
            assert!(c.total_iterations > 0);
        }
    }

    #[test]
    fn profiler_attachment_is_bit_identical_and_reports_phases() {
        use pmkm_obs::profile::Profiler;
        use std::sync::Arc;
        let ds = three_blob_cell(50);
        let cfg = PartialMergeConfig::paper(3, 5, 42);
        let plain = partial_merge(&ds, &cfg).unwrap();
        let rec = Recorder::new().with_profiler(Arc::new(Profiler::new()));
        let (observed, report) = partial_merge_observed(&ds, &cfg, Some(&rec)).unwrap();
        // Profiling must never perturb results.
        assert_eq!(plain.merge.centroids, observed.merge.centroids);
        assert_eq!(plain.merge.epm, observed.merge.epm);
        assert_eq!(plain.chunks.len(), observed.chunks.len());
        for (a, b) in plain.chunks.iter().zip(&observed.chunks) {
            assert_eq!(a.best_mse, b.best_mse);
            assert_eq!(a.total_iterations, b.total_iterations);
        }
        // The report carries the phase tree: partial nests the Lloyd
        // phases, merge nests its own k-means run.
        let paths: Vec<&str> = report.phases.iter().map(|p| p.path.as_str()).collect();
        for expected in [
            "partial",
            "partial/seed",
            "partial/assign",
            "partial/update",
            "partial/converge",
            "merge",
            "merge/seed",
            "merge/assign",
        ] {
            assert!(paths.contains(&expected), "missing phase {expected} in {paths:?}");
        }
        for p in &report.phases {
            assert!(p.self_us <= p.total_us, "{}: self > total", p.path);
            assert!(p.calls > 0, "{}: zero calls", p.path);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let ds = three_blob_cell(40);
        let cfg = PartialMergeConfig::paper(3, 5, 1234);
        let a = partial_merge(&ds, &cfg).unwrap();
        let b = partial_merge(&ds, &cfg).unwrap();
        assert_eq!(a.merge.centroids, b.merge.centroids);
        assert_eq!(a.merge.epm, b.merge.epm);
    }
}
