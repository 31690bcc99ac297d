//! Decompression: synthesizing a point set from a multivariate histogram.
//!
//! Scientists downstream of the compression receive histograms, not points;
//! this module regenerates a surrogate point set by sampling each bucket as
//! an axis-aligned Gaussian (centroid + per-dimension spread), proportional
//! to bucket counts — and quantifies how faithful the surrogate is.

use crate::histogram::MultivariateHistogram;
use pmkm_core::error::{Error, Result};
use pmkm_core::{metrics, Dataset};
use pmkm_data::gaussian::BoxMuller;
use rand::Rng;
use serde::Serialize;

/// Reconstructs `n` points from the histogram (bucket choice proportional
/// to counts, within-bucket sampling from N(centroid, diag(spread²))).
pub fn reconstruct(hist: &MultivariateHistogram, n: usize, seed: u64) -> Result<Dataset> {
    if hist.buckets.is_empty() {
        return Err(Error::EmptyDataset);
    }
    let mut rng = pmkm_core::seeding::rng_for(seed, 0);
    let mut bm = BoxMuller::new();
    let mut ds = Dataset::with_capacity(hist.dim, n)?;
    let total = hist.total_count.max(f64::MIN_POSITIVE);
    let mut buf = vec![0.0; hist.dim];
    for _ in 0..n {
        // Weighted bucket draw.
        let mut target = rng.gen_range(0.0..total);
        let mut chosen = hist.buckets.len() - 1;
        for (j, b) in hist.buckets.iter().enumerate() {
            target -= b.count;
            if target <= 0.0 {
                chosen = j;
                break;
            }
        }
        let b = &hist.buckets[chosen];
        for (d, slot) in buf.iter_mut().enumerate() {
            *slot = b.centroid[d] + b.spread[d] * bm.sample(&mut rng);
        }
        ds.push(&buf)?;
    }
    Ok(ds)
}

/// Distortion report comparing original data with its histogram.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Distortion {
    /// MSE of the original points against the bucket centroids.
    pub quantization_mse: f64,
    /// Root of that (per-point RMS quantization error).
    pub rms: f64,
    /// Worst single-point squared error.
    pub max_sq_error: f64,
}

/// Measures quantization distortion of `original` under `hist`.
pub fn distortion(original: &Dataset, hist: &MultivariateHistogram) -> Result<Distortion> {
    let ev = metrics::evaluate(original, &hist.centroids()?)?;
    Ok(Distortion { quantization_mse: ev.mse, rms: ev.mse.sqrt(), max_sq_error: ev.max_sq_dist })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmkm_core::{Centroids, PointSource};
    use pmkm_data::stats;

    fn hist() -> MultivariateHistogram {
        let c = Centroids::from_flat(2, vec![0.0, 0.0, 100.0, 100.0]).unwrap();
        MultivariateHistogram::new(&c, &[75.0, 25.0], &[vec![1.0, 2.0], vec![3.0, 0.5]]).unwrap()
    }

    #[test]
    fn reconstruction_has_right_shape_and_mixture() {
        let h = hist();
        let ds = reconstruct(&h, 20_000, 1).unwrap();
        assert_eq!(ds.len(), 20_000);
        assert_eq!(ds.dim(), 2);
        let highs = ds.iter().filter(|p| p[0] > 50.0).count();
        let frac = highs as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn reconstruction_moments_match_buckets() {
        let h = hist();
        let ds = reconstruct(&h, 50_000, 3).unwrap();
        let s = stats::summarize(&ds).unwrap();
        // Mean ≈ 0.75·0 + 0.25·100 = 25 per dim.
        assert!((s[0].mean - 25.0).abs() < 1.0, "mean = {}", s[0].mean);
        assert!((s[1].mean - 25.0).abs() < 1.0);
    }

    #[test]
    fn reconstruction_is_deterministic() {
        let h = hist();
        assert_eq!(reconstruct(&h, 50, 9).unwrap(), reconstruct(&h, 50, 9).unwrap());
        assert_ne!(reconstruct(&h, 50, 9).unwrap(), reconstruct(&h, 50, 10).unwrap());
    }

    #[test]
    fn distortion_zero_for_points_on_centroids() {
        let h = hist();
        let ds = Dataset::from_rows(&[[0.0, 0.0], [100.0, 100.0]]).unwrap();
        let d = distortion(&ds, &h).unwrap();
        assert_eq!(d.quantization_mse, 0.0);
        assert_eq!(d.rms, 0.0);
        assert_eq!(d.max_sq_error, 0.0);
    }

    #[test]
    fn distortion_hand_checked() {
        let h = hist();
        let ds = Dataset::from_rows(&[[3.0, 4.0]]).unwrap(); // 25 from (0,0)
        let d = distortion(&ds, &h).unwrap();
        assert_eq!(d.quantization_mse, 25.0);
        assert_eq!(d.rms, 5.0);
        assert_eq!(d.max_sq_error, 25.0);
    }

    #[test]
    fn empty_histogram_is_error() {
        let h = MultivariateHistogram { dim: 2, total_count: 0.0, buckets: vec![] };
        assert!(reconstruct(&h, 10, 0).is_err());
    }
}
