//! Per-dimension summary statistics for datasets — used by the harnesses to
//! sanity-check generated cells and by the compression crate to report
//! faithfulness.

use pmkm_core::{Dataset, PointSource};
use serde::Serialize;

/// Summary of one attribute dimension.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DimStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

/// Per-dimension statistics of a dataset. Empty datasets yield `None`.
pub fn summarize(ds: &Dataset) -> Option<Vec<DimStats>> {
    if ds.is_empty() {
        return None;
    }
    let dim = ds.dim();
    let n = ds.len() as f64;
    let mut sums = vec![0.0; dim];
    let mut mins = vec![f64::INFINITY; dim];
    let mut maxs = vec![f64::NEG_INFINITY; dim];
    for p in ds.iter() {
        for d in 0..dim {
            sums[d] += p[d];
            if p[d] < mins[d] {
                mins[d] = p[d];
            }
            if p[d] > maxs[d] {
                maxs[d] = p[d];
            }
        }
    }
    let means: Vec<f64> = sums.iter().map(|s| s / n).collect();
    let mut vars = vec![0.0; dim];
    for p in ds.iter() {
        for d in 0..dim {
            let delta = p[d] - means[d];
            vars[d] += delta * delta;
        }
    }
    Some(
        (0..dim)
            .map(|d| DimStats { mean: means[d], variance: vars[d] / n, min: mins[d], max: maxs[d] })
            .collect(),
    )
}

/// Full covariance matrix (row-major `dim × dim`, population normalization).
/// Empty datasets yield `None`.
pub fn covariance(ds: &Dataset) -> Option<Vec<f64>> {
    if ds.is_empty() {
        return None;
    }
    let dim = ds.dim();
    let n = ds.len() as f64;
    let mut means = vec![0.0; dim];
    for p in ds.iter() {
        for d in 0..dim {
            means[d] += p[d];
        }
    }
    means.iter_mut().for_each(|m| *m /= n);
    let mut cov = vec![0.0; dim * dim];
    for p in ds.iter() {
        for i in 0..dim {
            let di = p[i] - means[i];
            for j in 0..dim {
                cov[i * dim + j] += di * (p[j] - means[j]);
            }
        }
    }
    cov.iter_mut().for_each(|c| *c /= n);
    Some(cov)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_hand_checked() {
        let ds = Dataset::from_rows(&[[1.0, 10.0], [3.0, 20.0]]).unwrap();
        let s = summarize(&ds).unwrap();
        assert_eq!(s[0].mean, 2.0);
        assert_eq!(s[0].variance, 1.0);
        assert_eq!(s[0].min, 1.0);
        assert_eq!(s[0].max, 3.0);
        assert_eq!(s[1].mean, 15.0);
        assert_eq!(s[1].variance, 25.0);
    }

    #[test]
    fn summarize_empty_is_none() {
        let ds = Dataset::new(2).unwrap();
        assert!(summarize(&ds).is_none());
        assert!(covariance(&ds).is_none());
    }

    #[test]
    fn covariance_hand_checked() {
        // Perfectly correlated pair.
        let ds = Dataset::from_rows(&[[0.0, 0.0], [2.0, 4.0]]).unwrap();
        let c = covariance(&ds).unwrap();
        assert_eq!(c, vec![1.0, 2.0, 2.0, 4.0]);
    }

    #[test]
    fn covariance_diagonal_matches_variance() {
        let ds = Dataset::from_rows(&[[1.0, -5.0], [2.0, 0.0], [3.0, 5.0]]).unwrap();
        let s = summarize(&ds).unwrap();
        let c = covariance(&ds).unwrap();
        assert!((c[0] - s[0].variance).abs() < 1e-12);
        assert!((c[3] - s[1].variance).abs() < 1e-12);
        // Symmetry.
        assert_eq!(c[1], c[2]);
    }
}
