//! The partial k-means step (§3.2).
//!
//! A grid cell's points are divided into `p` partitions sized to fit
//! volatile memory. Each partition is clustered independently with best-of-R
//! k-means and reduced to `k` **weighted centroids**, the weight being the
//! number of points assigned to the centroid at convergence — so the weights
//! of a chunk's centroids sum to the chunk's point count `N_j`.

use crate::config::KMeansConfig;
use crate::dataset::{Dataset, PointSource, WeightedSet};
use crate::error::{Error, Result};
use crate::kmeans::{kmeans_observed, RestartStats};
use crate::seeding::{derive_seed, rng_for};
use pmkm_obs::Recorder;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Stream tag for the shuffle RNG (kept away from restart/chunk streams).
const SHUFFLE_STREAM: u64 = 0x5348_5546_464C_4531; // "SHUFFLE1"

/// Result of clustering one partition.
///
/// Serializable so long cells can checkpoint individual partials between
/// merge levels (the stream orchestrator persists the merged form).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialOutput {
    /// The chunk's weighted centroids `{(c_1j, w_1j), …}`. Clusters that
    /// attracted no points at convergence are dropped, so this may hold
    /// fewer than `k` entries; the weights always sum to `points`.
    pub centroids: WeightedSet,
    /// Number of points in the partition (`N_j`).
    pub points: usize,
    /// Minimum MSE over the restarts (the representation that was kept).
    pub best_mse: f64,
    /// Per-restart stats of the best-of-R search.
    pub restarts: Vec<RestartStats>,
    /// Lloyd iterations summed over restarts.
    pub total_iterations: usize,
    /// Wall time of this partition's clustering.
    pub elapsed: Duration,
    /// Per-iteration MSE of the winning restart (starting with `MSE(0)`).
    /// Empty for the tiny-chunk passthrough.
    pub best_trajectory: Vec<f64>,
}

/// Runs best-of-R k-means on one partition and emits weighted centroids.
///
/// # Examples
/// ```
/// use pmkm_core::{partial_kmeans, Dataset, KMeansConfig, PointSource};
/// let chunk = Dataset::from_rows(&[[0.0], [0.2], [5.0], [5.2], [5.4]])?;
/// let out = partial_kmeans(&chunk, &KMeansConfig::paper(2, 7))?;
/// // Weights count the points behind each centroid and sum to the chunk.
/// assert_eq!(out.centroids.total_weight(), 5.0);
/// # Ok::<(), pmkm_core::Error>(())
/// ```
///
/// If the chunk holds fewer than `k` points, every point becomes its own
/// weight-1 centroid — the exact representation with zero error, which is
/// what a k-means with `k ≥ n` would converge to anyway.
pub fn partial_kmeans(chunk: &Dataset, cfg: &KMeansConfig) -> Result<PartialOutput> {
    partial_kmeans_observed(chunk, cfg, None)
}

/// [`partial_kmeans`] with observability hooks: when `rec` is `Some`, the
/// chunk emits a `partial.chunk` event (points in, weighted centroids out,
/// best MSE) and bumps the `partial_*` counters, on top of the restart- and
/// iteration-level events from the inner best-of-R search.
pub fn partial_kmeans_observed(
    chunk: &Dataset,
    cfg: &KMeansConfig,
    rec: Option<&Recorder>,
) -> Result<PartialOutput> {
    cfg.validate()?;
    if chunk.is_empty() {
        return Err(Error::EmptyDataset);
    }
    let started = Instant::now();
    if chunk.len() <= cfg.k {
        let mut ws = WeightedSet::new(chunk.dim())?;
        for p in chunk.iter() {
            ws.push(p, 1.0)?;
        }
        record_chunk(rec, chunk.len(), ws.len(), 0.0);
        return Ok(PartialOutput {
            centroids: ws,
            points: chunk.len(),
            best_mse: 0.0,
            restarts: Vec::new(),
            total_iterations: 0,
            elapsed: started.elapsed(),
            best_trajectory: Vec::new(),
        });
    }
    let mut out = kmeans_observed(chunk, cfg, rec)?;
    let mut ws = WeightedSet::new(chunk.dim())?;
    for (j, c) in out.best.centroids.iter().enumerate() {
        let w = out.best.cluster_weights[j];
        if w > 0.0 {
            ws.push(c, w)?;
        }
    }
    record_chunk(rec, chunk.len(), ws.len(), out.best.mse);
    Ok(PartialOutput {
        centroids: ws,
        points: chunk.len(),
        best_mse: out.best.mse,
        total_iterations: out.total_iterations(),
        restarts: out.restarts,
        elapsed: started.elapsed(),
        best_trajectory: std::mem::take(&mut out.best.mse_trajectory),
    })
}

fn record_chunk(rec: Option<&Recorder>, points: usize, centroids: usize, best_mse: f64) {
    if let Some(rec) = rec {
        let reg = rec.registry();
        reg.counter("partial_chunks_total").inc();
        reg.counter("partial_points_total").add(points as u64);
        reg.counter("partial_weighted_centroids_total").add(centroids as u64);
        rec.event(
            "partial.chunk",
            &[
                ("points", points.into()),
                ("weighted_centroids", centroids.into()),
                ("best_mse", best_mse.into()),
            ],
        );
    }
}

/// Deals a cell's points into `p` near-equal chunks, optionally after a
/// Fisher–Yates shuffle (the paper distributes points over chunks randomly;
/// its swath input already arrives "in random order").
pub fn partition_random(ds: &Dataset, p: usize, seed: u64, shuffle: bool) -> Result<Vec<Dataset>> {
    if p == 0 {
        return Err(Error::InvalidPartitioning("zero partitions".into()));
    }
    if !shuffle {
        return ds.split_round_robin(p);
    }
    let n = ds.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = rng_for(derive_seed(seed, SHUFFLE_STREAM), 0);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let dim = ds.dim();
    let mut shuffled = Dataset::with_capacity(dim, n)?;
    for &i in &order {
        shuffled.push(ds.coords(i))?;
    }
    shuffled.split_round_robin(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KMeansConfig;

    fn blob_cell(n_per: usize) -> Dataset {
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..n_per {
            let o = (i % 7) as f64 * 0.01;
            ds.push(&[o, o]).unwrap();
            ds.push(&[50.0 + o, 50.0 - o]).unwrap();
        }
        ds
    }

    #[test]
    fn weights_sum_to_chunk_size() {
        let chunk = blob_cell(100); // 200 points
        let out = partial_kmeans(&chunk, &KMeansConfig::paper(5, 3)).unwrap();
        assert_eq!(out.points, 200);
        let total: f64 = out.centroids.weights().iter().sum();
        assert_eq!(total, 200.0);
    }

    #[test]
    fn emits_at_most_k_centroids_all_positive_weight() {
        let chunk = blob_cell(50);
        let out = partial_kmeans(&chunk, &KMeansConfig::paper(8, 1)).unwrap();
        assert!(out.centroids.len() <= 8);
        assert!(out.centroids.weights().iter().all(|&w| w > 0.0));
    }

    #[test]
    fn tiny_chunk_passes_points_through() {
        let mut chunk = Dataset::new(2).unwrap();
        chunk.push(&[1.0, 2.0]).unwrap();
        chunk.push(&[3.0, 4.0]).unwrap();
        let out = partial_kmeans(&chunk, &KMeansConfig::paper(40, 0)).unwrap();
        assert_eq!(out.centroids.len(), 2);
        assert_eq!(out.best_mse, 0.0);
        assert_eq!(out.centroids.weights(), &[1.0, 1.0]);
        assert_eq!(out.centroids.coords(0), &[1.0, 2.0]);
    }

    #[test]
    fn empty_chunk_is_error() {
        let chunk = Dataset::new(2).unwrap();
        assert_eq!(partial_kmeans(&chunk, &KMeansConfig::paper(4, 0)), Err(Error::EmptyDataset));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let chunk = blob_cell(80);
        let cfg = KMeansConfig::paper(6, 42);
        let a = partial_kmeans(&chunk, &cfg).unwrap();
        let b = partial_kmeans(&chunk, &cfg).unwrap();
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.best_mse, b.best_mse);
    }

    #[test]
    fn partition_random_preserves_multiset() {
        let ds = blob_cell(33); // 66 points
        let parts = partition_random(&ds, 5, 7, true).unwrap();
        assert_eq!(parts.len(), 5);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 66);
        // Multiset equality: sort all points from both sides.
        let mut orig: Vec<Vec<f64>> = ds.iter().map(|p| p.to_vec()).collect();
        let mut got: Vec<Vec<f64>> =
            parts.iter().flat_map(|c| c.iter().map(|p| p.to_vec()).collect::<Vec<_>>()).collect();
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(orig, got);
    }

    #[test]
    fn partition_random_shuffle_changes_layout() {
        let ds = blob_cell(50);
        let unshuffled = partition_random(&ds, 4, 1, false).unwrap();
        let shuffled = partition_random(&ds, 4, 1, true).unwrap();
        assert_ne!(unshuffled[0].as_flat(), shuffled[0].as_flat());
    }

    #[test]
    fn partition_random_is_seed_deterministic() {
        let ds = blob_cell(50);
        let a = partition_random(&ds, 4, 9, true).unwrap();
        let b = partition_random(&ds, 4, 9, true).unwrap();
        let c = partition_random(&ds, 4, 10, true).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn partition_sizes_near_equal() {
        let ds = blob_cell(101); // 202 points
        let parts = partition_random(&ds, 10, 0, true).unwrap();
        let min = parts.iter().map(|p| p.len()).min().unwrap();
        let max = parts.iter().map(|p| p.len()).max().unwrap();
        assert!(max - min <= 1);
    }
}
