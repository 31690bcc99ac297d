//! Distance primitives on raw coordinate slices.
//!
//! The paper clusters D-dimensional metric vectors under the Euclidean
//! distance `dis(c, v) = (Σ_d (c_d − v_d)²)^½`. Everything in this crate
//! works on squared distances internally (monotone in the true distance, so
//! nearest-centroid decisions are identical) and only takes the square root
//! at reporting boundaries.

/// The paper's dimensionality (six metrics per measurement), the one row
/// width the Lloyd assignment step and the fused kernel compile at a known
/// length.
pub(crate) const PAPER_DIM: usize = 6;

/// The width parameter `D` of a row loop whose width is read at run time;
/// any other `D` is the width, known at compile time, so loops over it
/// unroll. Code generic over `D` runs the same operations in the same order
/// at either.
pub(crate) const RUN_TIME: usize = 0;

/// The row width at width parameter `D`: `dim` at [`RUN_TIME`], else `D`.
#[inline(always)]
pub(crate) fn width<const D: usize>(dim: usize) -> usize {
    if D == RUN_TIME {
        dim
    } else {
        D
    }
}

/// Squared Euclidean distance between two equal-length coordinate slices.
///
/// Panics in debug builds if the slices differ in length; callers in this
/// crate guarantee equal dimensionality through [`crate::dataset::Dataset`].
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Euclidean distance (the paper's `dis`).
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    sq_dist(a, b).sqrt()
}

/// Index of the centroid (given as a flat `k × dim` slice) nearest to
/// `point`, together with the squared distance to it.
///
/// Ties are broken toward the lower index, matching a sequential scan —
/// this makes all assignment code deterministic for identical inputs.
#[inline]
pub fn nearest_centroid(point: &[f64], centroids: &[f64], dim: usize) -> (usize, f64) {
    debug_assert_eq!(point.len(), dim);
    debug_assert!(!centroids.is_empty() && centroids.len().is_multiple_of(dim));
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (j, c) in centroids.chunks_exact(dim).enumerate() {
        let d = sq_dist(point, c);
        if d < best_d {
            best_d = d;
            best = j;
        }
    }
    (best, best_d)
}

/// True if every coordinate is finite (no NaN / ±inf).
#[inline]
pub fn all_finite(coords: &[f64]) -> bool {
    coords.iter().all(|c| c.is_finite())
}

/// Position of the first non-finite coordinate, if any.
#[inline]
pub fn first_non_finite(coords: &[f64]) -> Option<usize> {
    coords.iter().position(|c| !c.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sq_dist_matches_hand_computation() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn sq_dist_zero_for_identical_points() {
        let p = [1.5, -2.5, 3.25, 0.0];
        assert_eq!(sq_dist(&p, &p), 0.0);
    }

    #[test]
    fn sq_dist_is_symmetric() {
        let a = [1.0, 2.0, 3.0];
        let b = [-4.0, 0.5, 9.0];
        assert_eq!(sq_dist(&a, &b), sq_dist(&b, &a));
    }

    #[test]
    fn nearest_centroid_picks_closest() {
        // Two centroids in 2-D: (0,0) and (10,10).
        let cents = [0.0, 0.0, 10.0, 10.0];
        assert_eq!(nearest_centroid(&[1.0, 1.0], &cents, 2).0, 0);
        assert_eq!(nearest_centroid(&[9.0, 9.0], &cents, 2).0, 1);
    }

    #[test]
    fn nearest_centroid_tie_breaks_low_index() {
        let cents = [-1.0, 0.0, 1.0, 0.0];
        let (idx, d) = nearest_centroid(&[0.0, 0.0], &cents, 2);
        assert_eq!(idx, 0);
        assert_eq!(d, 1.0);
    }

    #[test]
    fn nearest_centroid_single_cluster() {
        let cents = [5.0, 5.0];
        let (idx, d) = nearest_centroid(&[5.0, 6.0], &cents, 2);
        assert_eq!(idx, 0);
        assert_eq!(d, 1.0);
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        assert!(all_finite(&[0.0, 1.0, -1.0]));
        assert!(!all_finite(&[0.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
        assert!(!all_finite(&[f64::NEG_INFINITY, 0.0]));
        assert!(all_finite(&[]));
    }
}
