//! Clustering-quality metrics.
//!
//! The paper reports two error functions and compares their "MSE" values
//! across algorithms:
//!
//! * `E = Σ_k Σ_{v∈C_k} ‖µ_k − v‖²` for plain k-means (§2),
//! * `E_pm = Σ_k Σ_{c_i∈C_k} ‖µ_k − c_i‖² · w_i` for the merged
//!   representation (§3.3).
//!
//! Both are the weighted SSE of a point source against a centroid table,
//! which is what [`weighted_sse_against`] computes. [`evaluate`] bundles
//! the numbers a harness wants in one pass.

use crate::dataset::{Centroids, PointSource};
use crate::error::{Error, Result};
use crate::point::nearest_centroid;
use serde::Serialize;

/// One-pass evaluation of a centroid table against a point source.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Evaluation {
    /// Weighted sum of squared nearest-centroid distances (`E` / `E_pm`).
    pub sse: f64,
    /// `sse / total_weight`.
    pub mse: f64,
    /// Weight captured by each centroid.
    pub cluster_weights: Vec<f64>,
    /// Number of centroids that attracted no weight.
    pub empty_clusters: usize,
    /// Largest single squared distance (worst-case quantization error).
    pub max_sq_dist: f64,
}

/// Weighted SSE of `src` against `centroids` (each point charged to its
/// nearest centroid). This is the paper's `E` for unit weights and `E_pm`
/// for weighted centroid sets.
pub fn weighted_sse_against<S: PointSource + ?Sized>(
    src: &S,
    centroids: &Centroids,
) -> Result<f64> {
    Ok(evaluate(src, centroids)?.sse)
}

/// Mean squared error of `src` against `centroids` (weighted SSE divided by
/// the total weight).
pub fn mse_against<S: PointSource + ?Sized>(src: &S, centroids: &Centroids) -> Result<f64> {
    Ok(evaluate(src, centroids)?.mse)
}

/// Full one-pass evaluation. Errors on dimension mismatch or empty input.
pub fn evaluate<S: PointSource + ?Sized>(src: &S, centroids: &Centroids) -> Result<Evaluation> {
    if src.is_empty() {
        return Err(Error::EmptyDataset);
    }
    if centroids.dim() != src.dim() {
        return Err(Error::DimensionMismatch { expected: src.dim(), actual: centroids.dim() });
    }
    let dim = src.dim();
    let flat = centroids.as_flat();
    let mut cluster_weights = vec![0.0; centroids.k()];
    let mut sse = 0.0;
    let mut max_sq = 0.0f64;
    for i in 0..src.len() {
        let (j, d2) = nearest_centroid(src.coords(i), flat, dim);
        let w = src.weight(i);
        cluster_weights[j] += w;
        sse += w * d2;
        if d2 > max_sq {
            max_sq = d2;
        }
    }
    let total = src.total_weight();
    let empty_clusters = cluster_weights.iter().filter(|&&w| w == 0.0).count();
    Ok(Evaluation { sse, mse: sse / total, cluster_weights, empty_clusters, max_sq_dist: max_sq })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, WeightedSet};

    #[test]
    fn sse_of_perfect_centroids_is_zero() {
        let ds = Dataset::from_rows(&[[0.0, 0.0], [5.0, 5.0]]).unwrap();
        let c = Centroids::from_flat(2, vec![0.0, 0.0, 5.0, 5.0]).unwrap();
        let ev = evaluate(&ds, &c).unwrap();
        assert_eq!(ev.sse, 0.0);
        assert_eq!(ev.mse, 0.0);
        assert_eq!(ev.max_sq_dist, 0.0);
        assert_eq!(ev.empty_clusters, 0);
        assert_eq!(ev.cluster_weights, vec![1.0, 1.0]);
    }

    #[test]
    fn sse_matches_hand_computation() {
        // Points 0 and 2 against a single centroid at 1: SSE = 1 + 1.
        let ds = Dataset::from_rows(&[[0.0], [2.0]]).unwrap();
        let c = Centroids::from_flat(1, vec![1.0]).unwrap();
        let ev = evaluate(&ds, &c).unwrap();
        assert_eq!(ev.sse, 2.0);
        assert_eq!(ev.mse, 1.0);
        assert_eq!(ev.max_sq_dist, 1.0);
    }

    #[test]
    fn weighted_epm_charges_weights() {
        // E_pm = Σ w_i · ‖c_i − µ‖²: centroid at 0, points (1, w=2), (3, w=1).
        let mut ws = WeightedSet::new(1).unwrap();
        ws.push(&[1.0], 2.0).unwrap();
        ws.push(&[3.0], 1.0).unwrap();
        let c = Centroids::from_flat(1, vec![0.0]).unwrap();
        assert_eq!(weighted_sse_against(&ws, &c).unwrap(), 2.0 + 9.0);
        assert!((mse_against(&ws, &c).unwrap() - 11.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn counts_empty_clusters() {
        let ds = Dataset::from_rows(&[[0.0], [0.1]]).unwrap();
        let c = Centroids::from_flat(1, vec![0.0, 100.0, 200.0]).unwrap();
        let ev = evaluate(&ds, &c).unwrap();
        assert_eq!(ev.empty_clusters, 2);
        assert_eq!(ev.cluster_weights, vec![2.0, 0.0, 0.0]);
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let ds = Dataset::from_rows(&[[0.0, 0.0]]).unwrap();
        let c = Centroids::from_flat(1, vec![0.0]).unwrap();
        assert!(evaluate(&ds, &c).is_err());
    }

    #[test]
    fn empty_source_is_error() {
        let ds = Dataset::new(2).unwrap();
        let c = Centroids::from_flat(2, vec![0.0, 0.0]).unwrap();
        assert_eq!(evaluate(&ds, &c), Err(Error::EmptyDataset));
    }
}
