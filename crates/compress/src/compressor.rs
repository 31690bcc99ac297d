//! Grid-cell compression via partial/merge k-means.
//!
//! The end-to-end motivating pipeline of §1: cluster a cell with the
//! partial/merge algorithm, turn the merged weighted centroids into a
//! multivariate histogram (with per-dimension bucket spreads measured from
//! the original points), and report compression ratio + distortion.

use crate::histogram::MultivariateHistogram;
use pmkm_core::error::Result;
use pmkm_core::point::nearest_centroid;
use pmkm_core::{metrics, partial_merge, Dataset, PartialMergeConfig, PointSource};
use serde::Serialize;
use std::time::Duration;

/// Everything a compression run reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompressionSummary {
    /// Original payload bytes (`n × dim × 8`).
    pub original_bytes: usize,
    /// Histogram payload bytes.
    pub compressed_bytes: usize,
    /// `original / compressed`.
    pub ratio: f64,
    /// Mean squared quantization error of the original points against the
    /// bucket centroids.
    pub mse: f64,
    /// The paper's merged-representation error `E_pm`.
    pub epm: f64,
    /// Wall time of the clustering.
    pub elapsed: Duration,
}

/// A compressed cell: the histogram plus its summary.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedCell {
    /// The multivariate histogram replacing the cell.
    pub histogram: MultivariateHistogram,
    /// Compression accounting.
    pub summary: CompressionSummary,
}

/// Compresses one cell with partial/merge k-means.
///
/// # Examples
/// ```
/// use pmkm_compress::compress_cell;
/// use pmkm_core::{Dataset, PartialMergeConfig};
/// let mut cell = Dataset::new(2)?;
/// for i in 0..100 {
///     let x = (i % 10) as f64;
///     cell.push(&[x, -x])?;
/// }
/// let out = compress_cell(&cell, &PartialMergeConfig::paper(5, 4, 1))?;
/// assert_eq!(out.histogram.k(), 5);
/// assert!(out.summary.ratio > 3.0);
/// # Ok::<(), pmkm_core::Error>(())
/// ```
///
/// A second pass over the original points measures each bucket's
/// per-dimension spread (the non-equi-depth bucket "shape") and the true
/// quantization distortion.
pub fn compress_cell(cell: &Dataset, cfg: &PartialMergeConfig) -> Result<CompressedCell> {
    let result = partial_merge(cell, cfg)?;
    let centroids = &result.merge.centroids;
    let dim = cell.dim();
    let k = centroids.k();

    // Per-bucket counts and per-dimension spreads from the original data.
    let mut counts = vec![0.0; k];
    let mut sums = vec![0.0; k * dim];
    let mut sq_sums = vec![0.0; k * dim];
    for p in cell.iter() {
        let (j, _) = nearest_centroid(p, centroids.as_flat(), dim);
        counts[j] += 1.0;
        for d in 0..dim {
            sums[j * dim + d] += p[d];
            sq_sums[j * dim + d] += p[d] * p[d];
        }
    }
    let spreads: Vec<Vec<f64>> = (0..k)
        .map(|j| {
            (0..dim)
                .map(|d| {
                    if counts[j] > 0.0 {
                        let mean = sums[j * dim + d] / counts[j];
                        (sq_sums[j * dim + d] / counts[j] - mean * mean).max(0.0).sqrt()
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();

    let histogram = MultivariateHistogram::new(centroids, &counts, &spreads)?;
    let ev = metrics::evaluate(cell, centroids)?;
    let original_bytes = cell.payload_bytes();
    let compressed_bytes = histogram.payload_bytes();
    Ok(CompressedCell {
        summary: CompressionSummary {
            original_bytes,
            compressed_bytes,
            ratio: original_bytes as f64 / compressed_bytes.max(1) as f64,
            mse: ev.mse,
            epm: result.merge.epm,
            elapsed: result.total_elapsed,
        },
        histogram,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmkm_core::PartialMergeConfig;

    fn cell() -> Dataset {
        let mut ds = Dataset::new(3).unwrap();
        for i in 0..200 {
            let o = (i % 10) as f64 * 0.1;
            ds.push(&[o, o, o]).unwrap();
            ds.push(&[50.0 + o, 50.0 - o, 25.0]).unwrap();
        }
        ds
    }

    #[test]
    fn compresses_and_accounts() {
        let ds = cell(); // 400 × 3 × 8 = 9600 B
        let cfg = PartialMergeConfig::paper(4, 4, 7);
        let out = compress_cell(&ds, &cfg).unwrap();
        assert_eq!(out.summary.original_bytes, 9600);
        // 4 buckets × 7 floats × 8 B = 224 B.
        assert_eq!(out.summary.compressed_bytes, out.histogram.payload_bytes());
        assert!(out.summary.ratio > 40.0, "ratio = {}", out.summary.ratio);
        assert!(out.summary.mse < 1.0, "mse = {}", out.summary.mse);
    }

    #[test]
    fn bucket_counts_cover_all_points() {
        let ds = cell();
        let out = compress_cell(&ds, &PartialMergeConfig::paper(4, 5, 1)).unwrap();
        let total: f64 = out.histogram.buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, 400.0);
    }

    #[test]
    fn spreads_reflect_within_bucket_variation() {
        let ds = cell();
        let out = compress_cell(&ds, &PartialMergeConfig::paper(2, 4, 3)).unwrap();
        for b in &out.histogram.buckets {
            assert_eq!(b.spread.len(), 3);
            for s in &b.spread {
                assert!(s.is_finite() && *s >= 0.0);
            }
        }
        // The offsets span ~0.9 within each blob, so nonzero spread exists.
        assert!(out.histogram.buckets.iter().any(|b| b.spread[0] > 0.05));
    }

    #[test]
    fn histogram_mean_matches_data_mean() {
        let ds = cell();
        let out = compress_cell(&ds, &PartialMergeConfig::paper(6, 4, 5)).unwrap();
        let stats = pmkm_data::stats::summarize(&ds).unwrap();
        let hmean = out.histogram.mean();
        for (d, s) in stats.iter().enumerate() {
            assert!((hmean[d] - s.mean).abs() < 0.5, "dim {d}: {} vs {}", hmean[d], s.mean);
        }
    }
}
