//! In-memory point collections.
//!
//! Points are stored row-major in one flat `Vec<f64>` — the layout the Lloyd
//! inner loop wants (sequential scans, no per-point allocation). Three
//! concrete containers share the [`PointSource`] abstraction:
//!
//! * [`Dataset`] — plain, unit-weight points (a grid cell or one chunk of it),
//! * [`WeightedSet`] — weighted points; this is what the *partial* step emits
//!   (centroid + count) and what the *merge* step consumes,
//! * [`Centroids`] — a bare `k × dim` centroid table, the algorithm output.

use crate::error::{Error, Result};
use crate::point::{all_finite, first_non_finite};
use serde::{Deserialize, Serialize};

/// Read access to a (possibly weighted) collection of D-dimensional points.
///
/// The unweighted case reports weight `1.0` for every point; the generic
/// Lloyd implementation in [`crate::lloyd::lloyd`] then computes the paper's
/// unweighted k-means and weighted merge k-means from the same code, which is
/// exactly the property the paper stipulates ("the code for the serial and
/// the partial k-means implementation are identical besides that the partial
/// k-means generates weighted centroids").
pub trait PointSource {
    /// Dimensionality of every point.
    fn dim(&self) -> usize;
    /// Number of points.
    fn len(&self) -> usize;
    /// Coordinates of point `i`.
    fn coords(&self, i: usize) -> &[f64];
    /// Weight of point `i` (1.0 for plain datasets).
    fn weight(&self, i: usize) -> f64;
    /// Sum of all weights (number of points for plain datasets).
    fn total_weight(&self) -> f64;
    /// True if there are no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A flat, row-major collection of unit-weight points.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Dataset {
    dim: usize,
    data: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset of the given dimensionality.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if `dim == 0`.
    pub fn new(dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(Error::InvalidConfig("dimension must be at least 1".into()));
        }
        Ok(Self { dim, data: Vec::new() })
    }

    /// Creates an empty dataset with room for `points` points.
    pub fn with_capacity(dim: usize, points: usize) -> Result<Self> {
        let mut ds = Self::new(dim)?;
        ds.data.reserve(points * dim);
        Ok(ds)
    }

    /// Wraps an existing flat buffer. `data.len()` must be a multiple of
    /// `dim` and every coordinate must be finite — a NaN or ±inf smuggled in
    /// here would silently poison every centroid it ever touches.
    pub fn from_flat(dim: usize, data: Vec<f64>) -> Result<Self> {
        if dim == 0 {
            return Err(Error::InvalidConfig("dimension must be at least 1".into()));
        }
        if !data.len().is_multiple_of(dim) {
            return Err(Error::DimensionMismatch { expected: dim, actual: data.len() % dim });
        }
        if let Some(bad) = first_non_finite(&data) {
            return Err(Error::NonFiniteCoordinate { index: bad / dim });
        }
        Ok(Self { dim, data })
    }

    /// [`from_flat`](Self::from_flat) without the finiteness check.
    ///
    /// Exists solely so fault-injection harnesses can manufacture the
    /// NaN-poisoned chunks the stream engine must quarantine; production
    /// readers go through the checked constructors. Shape is still
    /// validated — only the per-coordinate finiteness scan is skipped.
    pub fn from_flat_unchecked(dim: usize, data: Vec<f64>) -> Result<Self> {
        if dim == 0 {
            return Err(Error::InvalidConfig("dimension must be at least 1".into()));
        }
        if !data.len().is_multiple_of(dim) {
            return Err(Error::DimensionMismatch { expected: dim, actual: data.len() % dim });
        }
        Ok(Self { dim, data })
    }

    /// Builds a dataset from per-point rows; all rows must share a length.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self> {
        let dim = rows.first().map(|r| r.as_ref().len()).unwrap_or(0);
        if dim == 0 {
            return Err(Error::EmptyDataset);
        }
        let mut ds = Self::with_capacity(dim, rows.len())?;
        for row in rows {
            ds.push(row.as_ref())?;
        }
        Ok(ds)
    }

    /// Appends one point.
    pub fn push(&mut self, coords: &[f64]) -> Result<()> {
        if coords.len() != self.dim {
            return Err(Error::DimensionMismatch { expected: self.dim, actual: coords.len() });
        }
        if !all_finite(coords) {
            return Err(Error::NonFiniteCoordinate { index: self.len() });
        }
        self.data.extend_from_slice(coords);
        Ok(())
    }

    /// Appends every point of `other` (same dimensionality required).
    pub fn extend_from(&mut self, other: &Dataset) -> Result<()> {
        if other.dim != self.dim {
            return Err(Error::DimensionMismatch { expected: self.dim, actual: other.dim });
        }
        self.data.extend_from_slice(&other.data);
        Ok(())
    }

    /// The underlying flat `n × dim` buffer.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the dataset, returning the flat buffer.
    pub fn into_flat(self) -> Vec<f64> {
        self.data
    }

    /// Iterates over points as slices.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim)
    }

    /// Splits into `p` near-equal chunks by round-robin dealing.
    ///
    /// The paper distributes a cell's points randomly over 5 or 10 "chunks";
    /// callers that want a shuffled deal shuffle first (see
    /// [`crate::partial::partition_random`]). Round-robin keeps chunk sizes
    /// within one point of each other, matching the paper's "about
    /// equal-sized chunks".
    pub fn split_round_robin(&self, p: usize) -> Result<Vec<Dataset>> {
        if p == 0 {
            return Err(Error::InvalidPartitioning("zero partitions".into()));
        }
        let mut parts: Vec<Dataset> = (0..p)
            .map(|i| {
                // Chunk i receives ceil((n - i) / p) points.
                let cap = (self.len() + p - 1 - i) / p;
                Dataset { dim: self.dim, data: Vec::with_capacity(cap * self.dim) }
            })
            .collect();
        for (i, pt) in self.iter().enumerate() {
            parts[i % p].data.extend_from_slice(pt);
        }
        Ok(parts)
    }

    /// Approximate heap footprint of the point payload, in bytes.
    ///
    /// The stream optimizer uses this to decide how many points fit a memory
    /// budget (`points × dim × 8`).
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

impl PointSource for Dataset {
    fn dim(&self) -> usize {
        self.dim
    }
    fn len(&self) -> usize {
        self.data.len() / self.dim
    }
    fn coords(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
    fn weight(&self, _i: usize) -> f64 {
        1.0
    }
    fn total_weight(&self) -> f64 {
        self.len() as f64
    }
}

/// A collection of weighted points (the partial step's output: one weighted
/// centroid per cluster per chunk, weight = points assigned to it).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WeightedSet {
    dim: usize,
    coords: Vec<f64>,
    weights: Vec<f64>,
}

impl WeightedSet {
    /// Creates an empty weighted set.
    pub fn new(dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(Error::InvalidConfig("dimension must be at least 1".into()));
        }
        Ok(Self { dim, coords: Vec::new(), weights: Vec::new() })
    }

    /// Appends a weighted point. Weights must be positive and finite.
    pub fn push(&mut self, coords: &[f64], weight: f64) -> Result<()> {
        if coords.len() != self.dim {
            return Err(Error::DimensionMismatch { expected: self.dim, actual: coords.len() });
        }
        if !all_finite(coords) {
            return Err(Error::NonFiniteCoordinate { index: self.len() });
        }
        if !(weight.is_finite() && weight > 0.0) {
            return Err(Error::InvalidWeight { index: self.len() });
        }
        self.coords.extend_from_slice(coords);
        self.weights.push(weight);
        Ok(())
    }

    /// Appends all points of another weighted set (the merge operator's
    /// "collective" gather of every chunk's centroids).
    pub fn extend_from(&mut self, other: &WeightedSet) -> Result<()> {
        if other.dim != self.dim {
            return Err(Error::DimensionMismatch { expected: self.dim, actual: other.dim });
        }
        self.coords.extend_from_slice(&other.coords);
        self.weights.extend_from_slice(&other.weights);
        Ok(())
    }

    /// Per-point weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Flat coordinate buffer.
    pub fn as_flat(&self) -> &[f64] {
        &self.coords
    }

    /// Iterates `(coords, weight)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[f64], f64)> {
        self.coords.chunks_exact(self.dim).zip(self.weights.iter().copied())
    }

    /// Scales every weight by a positive finite factor (exponential-decay
    /// coreset trees age all live mass by λ per arriving chunk).
    ///
    /// # Errors
    /// [`Error::InvalidWeight`] if the factor is not finite and positive.
    pub fn scale_weights(&mut self, factor: f64) -> Result<()> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(Error::InvalidWeight { index: 0 });
        }
        for w in &mut self.weights {
            *w *= factor;
        }
        Ok(())
    }

    /// Treats every point of a plain dataset as weight-1.
    pub fn from_dataset(ds: &Dataset) -> Self {
        Self { dim: ds.dim(), coords: ds.as_flat().to_vec(), weights: vec![1.0; ds.len()] }
    }
}

impl PointSource for WeightedSet {
    fn dim(&self) -> usize {
        self.dim
    }
    fn len(&self) -> usize {
        self.weights.len()
    }
    fn coords(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }
    fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }
    fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }
}

/// A `k × dim` centroid table: the output of any k-means run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Centroids {
    dim: usize,
    data: Vec<f64>,
}

impl Centroids {
    /// Wraps a flat `k × dim` buffer. Every coordinate must be finite.
    pub fn from_flat(dim: usize, data: Vec<f64>) -> Result<Self> {
        if dim == 0 {
            return Err(Error::InvalidConfig("dimension must be at least 1".into()));
        }
        if data.is_empty() || !data.len().is_multiple_of(dim) {
            return Err(Error::InvalidConfig(format!(
                "centroid buffer of {} floats is not a non-empty multiple of dim {}",
                data.len(),
                dim
            )));
        }
        if let Some(bad) = first_non_finite(&data) {
            return Err(Error::NonFiniteCoordinate { index: bad / dim });
        }
        Ok(Self { dim, data })
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Centroid `j` as a slice.
    pub fn centroid(&self, j: usize) -> &[f64] {
        &self.data[j * self.dim..(j + 1) * self.dim]
    }

    /// Flat buffer (`k × dim`).
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat buffer, for in-place centroid recalculation.
    pub(crate) fn as_flat_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterates over centroids.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds2(rows: &[[f64; 2]]) -> Dataset {
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn dataset_push_and_index() {
        let mut ds = Dataset::new(3).unwrap();
        ds.push(&[1.0, 2.0, 3.0]).unwrap();
        ds.push(&[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.coords(1), &[4.0, 5.0, 6.0]);
        assert_eq!(ds.total_weight(), 2.0);
        assert_eq!(ds.weight(0), 1.0);
    }

    #[test]
    fn dataset_rejects_wrong_dim() {
        let mut ds = Dataset::new(2).unwrap();
        assert_eq!(ds.push(&[1.0]), Err(Error::DimensionMismatch { expected: 2, actual: 1 }));
    }

    #[test]
    fn dataset_rejects_nan() {
        let mut ds = Dataset::new(2).unwrap();
        assert_eq!(ds.push(&[f64::NAN, 0.0]), Err(Error::NonFiniteCoordinate { index: 0 }));
    }

    #[test]
    fn dataset_rejects_zero_dim() {
        assert!(Dataset::new(0).is_err());
        assert!(Dataset::from_flat(0, vec![]).is_err());
    }

    #[test]
    fn from_flat_validates_multiple() {
        assert!(Dataset::from_flat(3, vec![1.0; 7]).is_err());
        let ds = Dataset::from_flat(3, vec![1.0; 9]).unwrap();
        assert_eq!(ds.len(), 3);
    }

    #[test]
    fn from_rows_empty_is_error() {
        let rows: Vec<[f64; 2]> = vec![];
        assert_eq!(Dataset::from_rows(&rows), Err(Error::EmptyDataset));
    }

    #[test]
    fn split_round_robin_deals_evenly() {
        let ds = ds2(&[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]);
        let parts = ds.split_round_robin(2).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 3); // points 0, 2, 4
        assert_eq!(parts[1].len(), 2); // points 1, 3
        assert_eq!(parts[0].coords(1), &[2.0, 2.0]);
        assert_eq!(parts[1].coords(0), &[1.0, 1.0]);
    }

    #[test]
    fn split_round_robin_more_parts_than_points() {
        let ds = ds2(&[[1.0, 1.0], [2.0, 2.0]]);
        let parts = ds.split_round_robin(5).unwrap();
        assert_eq!(parts.len(), 5);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![1, 1, 0, 0, 0]);
    }

    #[test]
    fn split_round_robin_sizes_within_one() {
        let ds = Dataset::from_flat(1, (0..103).map(|i| i as f64).collect()).unwrap();
        for p in 1..=12 {
            let parts = ds.split_round_robin(p).unwrap();
            let total: usize = parts.iter().map(|c| c.len()).sum();
            assert_eq!(total, 103);
            let min = parts.iter().map(|c| c.len()).min().unwrap();
            let max = parts.iter().map(|c| c.len()).max().unwrap();
            assert!(max - min <= 1, "p={p}: sizes spread {min}..{max}");
        }
    }

    #[test]
    fn split_zero_partitions_is_error() {
        let ds = ds2(&[[0.0, 0.0]]);
        assert!(ds.split_round_robin(0).is_err());
    }

    #[test]
    fn weighted_set_accumulates_weight() {
        let mut ws = WeightedSet::new(2).unwrap();
        ws.push(&[0.0, 0.0], 3.0).unwrap();
        ws.push(&[1.0, 1.0], 2.0).unwrap();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws.total_weight(), 5.0);
        assert_eq!(ws.weight(0), 3.0);
        assert_eq!(ws.coords(1), &[1.0, 1.0]);
    }

    #[test]
    fn weighted_set_rejects_bad_weight() {
        let mut ws = WeightedSet::new(2).unwrap();
        assert_eq!(ws.push(&[0.0, 0.0], 0.0), Err(Error::InvalidWeight { index: 0 }));
        assert_eq!(ws.push(&[0.0, 0.0], -1.0), Err(Error::InvalidWeight { index: 0 }));
        assert_eq!(ws.push(&[0.0, 0.0], f64::NAN), Err(Error::InvalidWeight { index: 0 }));
        assert_eq!(ws.push(&[0.0, 0.0], f64::INFINITY), Err(Error::InvalidWeight { index: 0 }));
    }

    #[test]
    fn weighted_set_extend_concatenates() {
        let mut a = WeightedSet::new(2).unwrap();
        a.push(&[0.0, 0.0], 1.0).unwrap();
        let mut b = WeightedSet::new(2).unwrap();
        b.push(&[1.0, 1.0], 4.0).unwrap();
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a.total_weight(), 5.0);
    }

    #[test]
    fn weighted_from_dataset_has_unit_weights() {
        let ds = ds2(&[[1.0, 2.0], [3.0, 4.0]]);
        let ws = WeightedSet::from_dataset(&ds);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws.weights(), &[1.0, 1.0]);
        assert_eq!(ws.coords(1), ds.coords(1));
    }

    #[test]
    fn centroids_accessors() {
        let c = Centroids::from_flat(2, vec![0.0, 0.0, 5.0, 5.0]).unwrap();
        assert_eq!(c.k(), 2);
        assert_eq!(c.dim(), 2);
        assert_eq!(c.centroid(1), &[5.0, 5.0]);
        assert_eq!(c.iter().count(), 2);
    }

    #[test]
    fn centroids_reject_empty_or_ragged() {
        assert!(Centroids::from_flat(2, vec![]).is_err());
        assert!(Centroids::from_flat(2, vec![1.0, 2.0, 3.0]).is_err());
    }
}
