//! Faithfulness metrics: does the compressed representation preserve what a
//! climate researcher would compute from the original points?
//!
//! The paper's requirement (§1.1): "the results of clustering should
//! provide a highly faithful representation of the original data, and
//! capture all correlations between data points". We quantify that by
//! comparing the first two moments — mean vector and covariance matrix —
//! of the original cell against the moments implied by the histogram's
//! weighted buckets (between-bucket covariance plus the diagonal
//! within-bucket spread).

use crate::histogram::MultivariateHistogram;
use pmkm_core::error::{Error, Result};
use pmkm_core::{Dataset, PointSource};
use pmkm_data::stats;
use serde::Serialize;

/// Moment-preservation report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Faithfulness {
    /// ‖mean_hist − mean_data‖ / (‖mean_data‖ + ε): relative mean error.
    pub mean_rel_error: f64,
    /// Frobenius-norm relative error of the covariance matrix.
    pub cov_rel_error: f64,
    /// Per-dimension absolute mean errors.
    pub mean_abs_errors: Vec<f64>,
}

/// Covariance implied by the histogram: weighted between-bucket scatter
/// plus the diagonal within-bucket variance (`spread²`).
pub fn histogram_covariance(hist: &MultivariateHistogram) -> Vec<f64> {
    let dim = hist.dim;
    let mean = hist.mean();
    let total = hist.total_count.max(f64::MIN_POSITIVE);
    let mut cov = vec![0.0; dim * dim];
    for b in &hist.buckets {
        let w = b.count / total;
        for i in 0..dim {
            let di = b.centroid[i] - mean[i];
            for j in 0..dim {
                cov[i * dim + j] += w * di * (b.centroid[j] - mean[j]);
            }
            // Within-bucket variance contributes to the diagonal.
            cov[i * dim + i] += w * b.spread[i] * b.spread[i];
        }
    }
    cov
}

/// Compares the original cell's moments with the histogram's.
pub fn faithfulness(original: &Dataset, hist: &MultivariateHistogram) -> Result<Faithfulness> {
    if original.dim() != hist.dim {
        return Err(Error::DimensionMismatch { expected: hist.dim, actual: original.dim() });
    }
    let data_stats = stats::summarize(original).ok_or(Error::EmptyDataset)?;
    let data_cov = stats::covariance(original).ok_or(Error::EmptyDataset)?;
    let hmean = hist.mean();
    let hcov = histogram_covariance(hist);

    let mean_abs_errors: Vec<f64> =
        data_stats.iter().enumerate().map(|(d, s)| (hmean[d] - s.mean).abs()).collect();
    let data_mean_norm: f64 = data_stats.iter().map(|s| s.mean * s.mean).sum::<f64>().sqrt();
    let mean_err_norm: f64 = mean_abs_errors.iter().map(|e| e * e).sum::<f64>().sqrt();
    let mean_rel_error = mean_err_norm / (data_mean_norm + 1e-12);

    let cov_err: f64 =
        data_cov.iter().zip(&hcov).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
    let cov_norm: f64 = data_cov.iter().map(|a| a * a).sum::<f64>().sqrt();
    let cov_rel_error = cov_err / (cov_norm + 1e-12);

    Ok(Faithfulness { mean_rel_error, cov_rel_error, mean_abs_errors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::compress_cell;
    use pmkm_core::PartialMergeConfig;

    fn correlated_cell() -> Dataset {
        // Two blobs along the diagonal: strong cross-dimension correlation.
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..300 {
            let o = (i % 20) as f64 * 0.1;
            ds.push(&[o, o * 0.9]).unwrap();
            ds.push(&[40.0 + o, 36.0 + o * 0.9]).unwrap();
        }
        ds
    }

    #[test]
    fn histogram_mean_is_close_to_data_mean() {
        let ds = correlated_cell();
        // k large enough to capture structure well.
        let out = compress_cell(&ds, &PartialMergeConfig::paper(8, 4, 3)).unwrap();
        let f = faithfulness(&ds, &out.histogram).unwrap();
        // Merged centroids are means of *partial* centroids while counts
        // come from re-assigning the original points, so the global mean is
        // preserved only approximately — but tightly for good clusterings.
        assert!(f.mean_rel_error < 0.01, "mean err = {}", f.mean_rel_error);
    }

    #[test]
    fn covariance_is_largely_preserved() {
        let ds = correlated_cell();
        let out = compress_cell(&ds, &PartialMergeConfig::paper(8, 4, 5)).unwrap();
        let f = faithfulness(&ds, &out.histogram).unwrap();
        assert!(f.cov_rel_error < 0.15, "cov err = {}", f.cov_rel_error);
    }

    #[test]
    fn histogram_covariance_hand_checked() {
        use pmkm_core::Centroids;
        // Two equal buckets at ±1 with zero spread: variance 1, no cross.
        let c = Centroids::from_flat(1, vec![-1.0, 1.0]).unwrap();
        let h = MultivariateHistogram::new(&c, &[5.0, 5.0], &[vec![0.0], vec![0.0]]).unwrap();
        assert_eq!(histogram_covariance(&h), vec![1.0]);
        // Adding within-bucket spread 2 adds 4 to the variance.
        let h = MultivariateHistogram::new(&c, &[5.0, 5.0], &[vec![2.0], vec![2.0]]).unwrap();
        assert_eq!(histogram_covariance(&h), vec![5.0]);
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let ds = correlated_cell();
        use pmkm_core::Centroids;
        let c = Centroids::from_flat(1, vec![0.0]).unwrap();
        let h = MultivariateHistogram::new(&c, &[1.0], &[vec![0.0]]).unwrap();
        assert!(faithfulness(&ds, &h).is_err());
    }
}
