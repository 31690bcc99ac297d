//! Mini-batch k-means (Sculley, WWW 2010) — the modern streaming
//! comparator. Not in the 2004 paper (it postdates it by six years), but
//! it is *the* algorithm practitioners reach for today where partial/merge
//! k-means was proposed, so the showdown includes it: per step, sample a
//! mini-batch, assign it against the current centroids, and move each
//! centroid toward the batch members it won with a per-centroid learning
//! rate `1 / count`.

use pmkm_core::error::{Error, Result};
use pmkm_core::point::nearest_centroid;
use pmkm_core::seeding::rng_for;
use pmkm_core::{Centroids, Dataset, PointSource, SeedMode};
use rand::Rng;
use serde::Serialize;
use std::time::{Duration, Instant};

/// Mini-batch k-means parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MiniBatchConfig {
    /// Number of clusters.
    pub k: usize,
    /// Points sampled per step.
    pub batch_size: usize,
    /// Number of mini-batch steps.
    pub steps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MiniBatchConfig {
    fn default() -> Self {
        Self { k: 8, batch_size: 256, steps: 100, seed: 0 }
    }
}

impl MiniBatchConfig {
    fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(Error::ZeroK);
        }
        if self.batch_size == 0 || self.steps == 0 {
            return Err(Error::InvalidConfig("batch_size and steps must be >= 1".into()));
        }
        Ok(())
    }
}

/// Mini-batch k-means result.
#[derive(Debug, Clone)]
pub struct MiniBatchResult {
    /// Final centroids.
    pub centroids: Centroids,
    /// Points captured per centroid in the final full assignment.
    pub cluster_weights: Vec<f64>,
    /// Data-space MSE of the final centroids (full pass at the end).
    pub mse: f64,
    /// Points processed across all steps (`batch_size × steps`).
    pub points_processed: usize,
    /// Wall time.
    pub elapsed: Duration,
}

/// Runs mini-batch k-means on one cell.
pub fn minibatch_kmeans(ds: &Dataset, cfg: &MiniBatchConfig) -> Result<MiniBatchResult> {
    cfg.validate()?;
    if ds.is_empty() {
        return Err(Error::EmptyDataset);
    }
    let n = ds.len();
    if cfg.k > n {
        return Err(Error::KExceedsPoints { k: cfg.k, points: n });
    }
    let started = Instant::now();
    let dim = ds.dim();
    let mut rng = rng_for(cfg.seed, 0);
    // k-means++ seeding, like scikit-learn's MiniBatchKMeans default.
    let init = pmkm_core::seeding::seed_centroids(ds, cfg.k, SeedMode::PlusPlus, &mut rng)?;
    let mut centroids: Vec<f64> = init.as_flat().to_vec();
    let mut counts = vec![0u64; cfg.k];
    let mut batch = vec![0usize; cfg.batch_size];

    for _ in 0..cfg.steps {
        for slot in batch.iter_mut() {
            *slot = rng.gen_range(0..n);
        }
        // Assign the batch against the *frozen* centroids, then update.
        let assigned: Vec<usize> =
            batch.iter().map(|&i| nearest_centroid(ds.coords(i), &centroids, dim).0).collect();
        for (&i, &j) in batch.iter().zip(&assigned) {
            counts[j] += 1;
            let eta = 1.0 / counts[j] as f64;
            let c = &mut centroids[j * dim..(j + 1) * dim];
            for (cv, xv) in c.iter_mut().zip(ds.coords(i)) {
                *cv += eta * (xv - *cv);
            }
        }
    }

    let centroids = Centroids::from_flat(dim, centroids)?;
    let ev = pmkm_core::metrics::evaluate(ds, &centroids)?;
    Ok(MiniBatchResult {
        centroids,
        cluster_weights: ev.cluster_weights,
        mse: ev.mse,
        points_processed: cfg.batch_size * cfg.steps,
        elapsed: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmkm_core::metrics;

    fn blob_cell(n_per: usize) -> Dataset {
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..n_per {
            let o = (i % 8) as f64 * 0.1;
            ds.push(&[o, o]).unwrap();
            ds.push(&[40.0 + o, 40.0 - o]).unwrap();
        }
        ds
    }

    #[test]
    fn converges_to_blob_structure() {
        let ds = blob_cell(200);
        let cfg = MiniBatchConfig { k: 2, batch_size: 64, steps: 200, seed: 3 };
        let out = minibatch_kmeans(&ds, &cfg).unwrap();
        let mse = metrics::mse_against(&ds, &out.centroids).unwrap();
        assert!(mse < 2.0, "mse = {mse}");
        let total: f64 = out.cluster_weights.iter().sum();
        assert_eq!(total, 400.0);
        assert_eq!(out.points_processed, 64 * 200);
    }

    #[test]
    fn more_steps_do_not_hurt_much() {
        let ds = blob_cell(150);
        let short =
            minibatch_kmeans(&ds, &MiniBatchConfig { k: 2, batch_size: 32, steps: 20, seed: 7 })
                .unwrap();
        let long =
            minibatch_kmeans(&ds, &MiniBatchConfig { k: 2, batch_size: 32, steps: 400, seed: 7 })
                .unwrap();
        assert!(long.mse <= short.mse * 1.5 + 1.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ds = blob_cell(60);
        let cfg = MiniBatchConfig { k: 3, batch_size: 16, steps: 50, seed: 11 };
        let a = minibatch_kmeans(&ds, &cfg).unwrap();
        let b = minibatch_kmeans(&ds, &cfg).unwrap();
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.mse, b.mse);
    }

    #[test]
    fn input_validation() {
        let empty = Dataset::new(2).unwrap();
        assert!(matches!(
            minibatch_kmeans(&empty, &MiniBatchConfig::default()),
            Err(Error::EmptyDataset)
        ));
        let tiny = Dataset::from_rows(&[[0.0, 0.0]]).unwrap();
        assert!(matches!(
            minibatch_kmeans(&tiny, &MiniBatchConfig { k: 2, ..Default::default() }),
            Err(Error::KExceedsPoints { .. })
        ));
        let ds = blob_cell(10);
        assert!(minibatch_kmeans(&ds, &MiniBatchConfig { k: 0, ..Default::default() }).is_err());
        assert!(minibatch_kmeans(&ds, &MiniBatchConfig { batch_size: 0, ..Default::default() })
            .is_err());
    }
}
