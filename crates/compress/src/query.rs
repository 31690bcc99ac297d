//! Approximate analytics over compressed cells.
//!
//! The whole point of replacing cells with multivariate histograms (§1) is
//! that scientists can answer questions from the *compressed* form without
//! shipping the raw points. This module provides the two workhorse query
//! shapes — range counts ("how many observations fall in this attribute
//! box?") and range means — estimated from the buckets under a Gaussian
//! within-bucket model, plus the machinery to measure estimation error
//! against the original points.

use crate::histogram::MultivariateHistogram;
use pmkm_core::error::{Error, Result};
use pmkm_core::{Dataset, PointSource};
use serde::Serialize;

/// An axis-aligned attribute-range predicate: per-dimension optional
/// `[lo, hi]` bounds (unbounded dimensions match everything).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RangeQuery {
    /// Per-dimension bounds; `None` leaves the dimension unconstrained.
    pub bounds: Vec<Option<(f64, f64)>>,
}

impl RangeQuery {
    /// An unconstrained query over `dim` dimensions.
    pub fn all(dim: usize) -> Self {
        Self { bounds: vec![None; dim] }
    }

    /// Constrains one dimension to `[lo, hi]`.
    pub fn with(mut self, dim: usize, lo: f64, hi: f64) -> Self {
        if dim < self.bounds.len() {
            self.bounds[dim] = Some((lo, hi));
        }
        self
    }

    fn validate(&self, dim: usize) -> Result<()> {
        if self.bounds.len() != dim {
            return Err(Error::DimensionMismatch { expected: dim, actual: self.bounds.len() });
        }
        for (d, b) in self.bounds.iter().enumerate() {
            if let Some((lo, hi)) = b {
                if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
                    return Err(Error::InvalidConfig(format!(
                        "dimension {d}: invalid range [{lo}, {hi}]"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Exact predicate evaluation on a raw point.
    pub fn matches(&self, p: &[f64]) -> bool {
        self.bounds.iter().zip(p).all(|(b, x)| match b {
            None => true,
            Some((lo, hi)) => *lo <= *x && *x <= *hi,
        })
    }
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max error ≈ 1.5e-7 — far below bucket-model error).
fn phi(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * x.abs());
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-x * x).exp();
    let erf = if x < 0.0 { -erf } else { erf };
    0.5 * (1.0 + erf)
}

/// Fraction of a bucket's mass inside the query box under the
/// independent-Gaussian within-bucket model `N(centroid, diag(spread²))`.
fn bucket_fraction(query: &RangeQuery, centroid: &[f64], spread: &[f64]) -> f64 {
    let mut frac = 1.0;
    for (d, b) in query.bounds.iter().enumerate() {
        let Some((lo, hi)) = b else { continue };
        let (c, s) = (centroid[d], spread[d]);
        let p = if s > 0.0 {
            phi((hi - c) / s) - phi((lo - c) / s)
        } else if *lo <= c && c <= *hi {
            1.0
        } else {
            0.0
        };
        frac *= p.clamp(0.0, 1.0);
        if frac == 0.0 {
            break;
        }
    }
    frac
}

/// Query answer estimated from a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RangeEstimate {
    /// Estimated number of matching observations.
    pub count: f64,
    /// Estimated mean vector of the matching observations is truncated to
    /// the first dimension unless requested via [`estimate_mean`]; this is
    /// the estimated selectivity `count / total`.
    pub selectivity: f64,
}

/// Estimates how many of the cell's observations satisfy `query`.
pub fn estimate_count(hist: &MultivariateHistogram, query: &RangeQuery) -> Result<RangeEstimate> {
    query.validate(hist.dim)?;
    let mut count = 0.0;
    for b in &hist.buckets {
        count += b.count * bucket_fraction(query, &b.centroid, &b.spread);
    }
    Ok(RangeEstimate { count, selectivity: count / hist.total_count.max(f64::MIN_POSITIVE) })
}

/// Estimates the mean vector of the observations matching `query`
/// (bucket centroids weighted by their in-box mass). `None` when the
/// estimated count is ~zero.
pub fn estimate_mean(hist: &MultivariateHistogram, query: &RangeQuery) -> Result<Option<Vec<f64>>> {
    query.validate(hist.dim)?;
    let mut mass = 0.0;
    let mut mean = vec![0.0; hist.dim];
    for b in &hist.buckets {
        let m = b.count * bucket_fraction(query, &b.centroid, &b.spread);
        mass += m;
        for (acc, c) in mean.iter_mut().zip(&b.centroid) {
            *acc += m * c;
        }
    }
    if mass < 1e-9 {
        return Ok(None);
    }
    mean.iter_mut().for_each(|m| *m /= mass);
    Ok(Some(mean))
}

/// Exact answers computed from the raw points, for error measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactAnswer {
    /// Matching observations.
    pub count: usize,
    /// Mean vector of the matches (`None` when no point matches).
    pub mean: Option<Vec<f64>>,
}

/// Evaluates `query` exactly against the original points.
pub fn exact_answer(ds: &Dataset, query: &RangeQuery) -> Result<ExactAnswer> {
    query.validate(ds.dim())?;
    let mut count = 0usize;
    let mut mean = vec![0.0; ds.dim()];
    for p in ds.iter() {
        if query.matches(p) {
            count += 1;
            for (m, x) in mean.iter_mut().zip(p) {
                *m += x;
            }
        }
    }
    let mean = if count > 0 {
        mean.iter_mut().for_each(|m| *m /= count as f64);
        Some(mean)
    } else {
        None
    };
    Ok(ExactAnswer { count, mean })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::compress_cell;
    use pmkm_core::{Centroids, PartialMergeConfig};

    fn two_bucket_hist() -> MultivariateHistogram {
        let c = Centroids::from_flat(2, vec![0.0, 0.0, 100.0, 100.0]).unwrap();
        MultivariateHistogram::new(&c, &[60.0, 40.0], &[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap()
    }

    #[test]
    fn phi_known_values() {
        assert!((phi(0.0) - 0.5).abs() < 1e-7);
        assert!((phi(1.96) - 0.975).abs() < 1e-3);
        assert!((phi(-1.96) - 0.025).abs() < 1e-3);
        assert!(phi(8.0) > 0.999999);
        assert!(phi(-8.0) < 1e-6);
    }

    #[test]
    fn unconstrained_query_counts_everything() {
        let h = two_bucket_hist();
        let est = estimate_count(&h, &RangeQuery::all(2)).unwrap();
        assert!((est.count - 100.0).abs() < 1e-9);
        assert!((est.selectivity - 1.0).abs() < 1e-9);
    }

    #[test]
    fn box_around_one_bucket_counts_its_mass() {
        let h = two_bucket_hist();
        // ±6σ box around bucket 0 only.
        let q = RangeQuery::all(2).with(0, -6.0, 6.0).with(1, -6.0, 6.0);
        let est = estimate_count(&h, &q).unwrap();
        assert!((est.count - 60.0).abs() < 0.01, "count = {}", est.count);
        let mean = estimate_mean(&h, &q).unwrap().unwrap();
        assert!(mean[0].abs() < 0.1 && mean[1].abs() < 0.1);
    }

    #[test]
    fn empty_box_estimates_zero() {
        let h = two_bucket_hist();
        let q = RangeQuery::all(2).with(0, 40.0, 60.0).with(1, 40.0, 60.0);
        let est = estimate_count(&h, &q).unwrap();
        assert!(est.count < 0.01, "count = {}", est.count);
        assert!(estimate_mean(&h, &q).unwrap().is_none());
    }

    #[test]
    fn exact_answer_hand_checked() {
        let ds = Dataset::from_rows(&[[0.0, 0.0], [1.0, 1.0], [10.0, 10.0]]).unwrap();
        let q = RangeQuery::all(2).with(0, -0.5, 1.5);
        let ans = exact_answer(&ds, &q).unwrap();
        assert_eq!(ans.count, 2);
        assert_eq!(ans.mean, Some(vec![0.5, 0.5]));
        let none = exact_answer(&ds, &RangeQuery::all(2).with(0, 50.0, 60.0)).unwrap();
        assert_eq!(none.count, 0);
        assert_eq!(none.mean, None);
    }

    #[test]
    fn estimates_track_exact_answers_on_compressed_cell() {
        // End to end: compress a cell, then compare estimated vs exact
        // selectivity for a family of half-space-ish queries.
        let mut cell = Dataset::new(2).unwrap();
        for i in 0..400 {
            let o = (i % 20) as f64 * 0.3;
            cell.push(&[o, o * 0.5]).unwrap();
            cell.push(&[30.0 + o, 15.0 + o * 0.5]).unwrap();
        }
        let out = compress_cell(&cell, &PartialMergeConfig::paper(8, 4, 3)).unwrap();
        for hi in [5.0, 20.0, 40.0] {
            let q = RangeQuery::all(2).with(0, -10.0, hi);
            let est = estimate_count(&out.histogram, &q).unwrap();
            let exact = exact_answer(&cell, &q).unwrap();
            let err = (est.count - exact.count as f64).abs() / cell.len() as f64;
            assert!(err < 0.05, "hi={hi}: est {} vs exact {}", est.count, exact.count);
        }
    }

    #[test]
    fn validation_errors() {
        let h = two_bucket_hist();
        // Wrong dimensionality.
        assert!(estimate_count(&h, &RangeQuery::all(3)).is_err());
        // Inverted range.
        let q = RangeQuery { bounds: vec![Some((5.0, 1.0)), None] };
        assert!(estimate_count(&h, &q).is_err());
        let q = RangeQuery { bounds: vec![Some((f64::NAN, 1.0)), None] };
        assert!(estimate_mean(&h, &q).is_err());
    }

    #[test]
    fn with_ignores_out_of_range_dim() {
        let q = RangeQuery::all(2).with(7, 0.0, 1.0);
        assert_eq!(q.bounds, vec![None, None]);
    }
}
