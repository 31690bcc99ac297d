//! The merge k-means step (§3.3).
//!
//! Consumes the weighted centroid sets of every partition and produces the
//! cell's final `k` centroids the paper's way (its option b): gather all
//! `M = Σ k_p` weighted centroids, seed with the `k` heaviest, run weighted
//! k-means once — every chunk's centroids get "the same statistical chance
//! to contribute". Option (a), folding chunks in arrival order, lives only
//! in the `ablation_merge` experiment that measures it against this one.

use crate::config::{KMeansConfig, SeedMode};
use crate::dataset::{Centroids, PointSource, WeightedSet};
use crate::error::{Error, Result};
use crate::kmeans::kmeans_observed;
use pmkm_obs::Recorder;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Final merged representation of a grid cell.
///
/// Serializable so orchestrated runs can persist it as the payload of a
/// per-cell checkpoint (the merged weighted-centroid partial is the
/// bounded summary merge-reduce schemes carry between levels).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergeOutput {
    /// The cell's final centroid table (at most `k` centroids).
    pub centroids: Centroids,
    /// Input weight captured by each final centroid (sums to the cell's
    /// point count, since partial weights sum to chunk sizes).
    pub cluster_weights: Vec<f64>,
    /// The paper's `E_pm`: weighted SSE of *all* input centroids against the
    /// final centroids.
    pub epm: f64,
    /// `epm / total input weight` — the "MSE" the paper tabulates for the
    /// partial/merge rows of Table 2.
    pub mse: f64,
    /// Lloyd iterations of the merge clustering.
    pub iterations: usize,
    /// False if the merge clustering hit its iteration cap.
    pub converged: bool,
    /// Number of weighted centroids consumed (`M`).
    pub input_centroids: usize,
    /// Wall time of the merge step (`t merge` in Table 2).
    pub elapsed: Duration,
}

/// Collective merge: one weighted k-means over all gathered centroids,
/// seeded with the `k` heaviest (§3.3 step 1).
///
/// # Examples
/// ```
/// use pmkm_core::{merge_collective, KMeansConfig, WeightedSet};
/// let mut chunk_a = WeightedSet::new(1)?;
/// chunk_a.push(&[0.0], 40.0)?;
/// chunk_a.push(&[10.0], 60.0)?;
/// let mut chunk_b = WeightedSet::new(1)?;
/// chunk_b.push(&[0.2], 50.0)?;
/// chunk_b.push(&[9.8], 50.0)?;
/// let out = merge_collective(&[chunk_a, chunk_b], &KMeansConfig::paper(2, 3), 1)?;
/// assert_eq!(out.centroids.k(), 2);
/// assert_eq!(out.cluster_weights.iter().sum::<f64>(), 200.0);
/// # Ok::<(), pmkm_core::Error>(())
/// ```
pub fn merge_collective(
    sets: &[WeightedSet],
    cfg: &KMeansConfig,
    merge_restarts: usize,
) -> Result<MergeOutput> {
    merge_collective_observed(sets, cfg, merge_restarts, None)
}

/// [`merge_collective`] with observability hooks threaded into the inner
/// weighted k-means.
pub fn merge_collective_observed(
    sets: &[WeightedSet],
    cfg: &KMeansConfig,
    merge_restarts: usize,
    rec: Option<&Recorder>,
) -> Result<MergeOutput> {
    cfg.validate()?;
    let started = Instant::now();
    let dim = sets.iter().find(|s| !s.is_empty()).map(|s| s.dim()).ok_or(Error::EmptyDataset)?;
    let mut all = WeightedSet::new(dim)?;
    for s in sets {
        all.extend_from(s)?;
    }
    if all.len() <= cfg.k {
        // Fewer input centroids than k: the inputs themselves are the exact
        // (zero-E_pm) representation; a k ≥ M k-means would return them.
        return Ok(MergeOutput {
            centroids: Centroids::from_flat(dim, all.as_flat().to_vec())?,
            cluster_weights: all.weights().to_vec(),
            epm: 0.0,
            mse: 0.0,
            iterations: 0,
            converged: true,
            input_centroids: all.len(),
            elapsed: started.elapsed(),
        });
    }
    let merge_cfg = KMeansConfig {
        seed_mode: SeedMode::HeaviestPoints,
        restarts: merge_restarts.max(1),
        ..*cfg
    };
    let out = kmeans_observed(&all, &merge_cfg, rec)?;
    Ok(MergeOutput {
        epm: out.best.sse,
        mse: out.best.mse,
        iterations: out.total_iterations(),
        converged: out.best.converged,
        input_centroids: all.len(),
        cluster_weights: out.best.cluster_weights,
        centroids: out.best.centroids,
        elapsed: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two chunks that each saw the same two far-apart blobs.
    fn chunk_sets() -> Vec<WeightedSet> {
        let mut a = WeightedSet::new(2).unwrap();
        a.push(&[0.1, 0.0], 48.0).unwrap();
        a.push(&[100.0, 100.2], 52.0).unwrap();
        let mut b = WeightedSet::new(2).unwrap();
        b.push(&[-0.1, 0.0], 50.0).unwrap();
        b.push(&[100.0, 99.8], 50.0).unwrap();
        vec![a, b]
    }

    fn cfg(k: usize) -> KMeansConfig {
        KMeansConfig::paper(k, 17)
    }

    #[test]
    fn collective_merge_finds_the_two_blobs() {
        let out = merge_collective(&chunk_sets(), &cfg(2), 1).unwrap();
        assert_eq!(out.centroids.k(), 2);
        assert_eq!(out.input_centroids, 4);
        // Weighted means: x near 0 => (0.1·48 − 0.1·50)/98; x near 100.
        let mut xs: Vec<f64> = out.centroids.iter().map(|c| c[0]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(xs[0].abs() < 0.1);
        assert!((xs[1] - 100.0).abs() < 0.1);
        // Weight conservation: all 200 points' worth of weight captured.
        let total: f64 = out.cluster_weights.iter().sum();
        assert_eq!(total, 200.0);
        assert!(out.converged);
    }

    #[test]
    fn collective_weighted_mean_is_exact() {
        // One cluster (k=1): final centroid is the weighted mean of inputs.
        let mut s = WeightedSet::new(1).unwrap();
        s.push(&[0.0], 1.0).unwrap();
        s.push(&[10.0], 3.0).unwrap();
        let out = merge_collective(&[s], &cfg(1), 1).unwrap();
        assert_eq!(out.centroids.centroid(0), &[7.5]);
        // E_pm = 1·7.5² + 3·2.5² = 75.
        assert!((out.epm - 75.0).abs() < 1e-12);
        assert!((out.mse - 75.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn passthrough_when_inputs_fewer_than_k() {
        let out = merge_collective(&chunk_sets(), &cfg(40), 1).unwrap();
        assert_eq!(out.centroids.k(), 4); // all 4 inputs kept verbatim
        assert_eq!(out.epm, 0.0);
        assert_eq!(out.iterations, 0);
        let total: f64 = out.cluster_weights.iter().sum();
        assert_eq!(total, 200.0);
    }

    #[test]
    fn all_empty_sets_is_error() {
        let sets = vec![WeightedSet::new(2).unwrap()];
        assert_eq!(merge_collective(&sets, &cfg(2), 1), Err(Error::EmptyDataset));
    }

    #[test]
    fn merge_is_deterministic() {
        let sets = chunk_sets();
        let a = merge_collective(&sets, &cfg(2), 3).unwrap();
        let b = merge_collective(&sets, &cfg(2), 3).unwrap();
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.epm, b.epm);
    }

    #[test]
    fn heaviest_seeding_beats_or_ties_nothing_burned() {
        // Single heavy centroid dominates: seeding must include it.
        let mut s = WeightedSet::new(1).unwrap();
        s.push(&[0.0], 1000.0).unwrap();
        for i in 1..=10 {
            s.push(&[i as f64 * 0.1 + 50.0], 1.0).unwrap();
        }
        let out = merge_collective(&[s], &cfg(2), 1).unwrap();
        // One final centroid sits (almost) exactly on the heavy point.
        let closest = out.centroids.iter().map(|c| c[0].abs()).fold(f64::INFINITY, f64::min);
        assert!(closest < 1e-9, "heavy centroid lost: {closest}");
    }
}
