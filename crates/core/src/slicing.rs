//! Cell-slicing strategies (§6 future work).
//!
//! The paper's experiments deal points into chunks randomly, making every
//! chunk a spatially overlapping sample of the whole cell (">90%"
//! overlapping), and names two alternatives for future work: "data cells
//! can be partitioned into spatially non-overlapping subcells, or a mostly
//! overlapping cells as in our test cases, or in a 'salami'-type slicing
//! strategy". All three are implemented here; the `slicing` ablation bench
//! measures their effect on merged quality.
//!
//! Grid-bucket points carry no positions (the cell *is* the spatial unit),
//! so "non-overlapping subcells" is realized in attribute space: sort by
//! one attribute and cut contiguous ranges — each chunk then covers a
//! disjoint region of the data space, which is exactly the property whose
//! effect on the merge the paper wants examined.

use crate::dataset::{Dataset, PointSource};
use crate::error::{Error, Result};
use crate::partial::partition_random;
use serde::Serialize;

/// How a cell's points are dealt into `p` chunks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum SliceStrategy {
    /// Shuffle, then round-robin: every chunk is an unbiased sample of the
    /// whole cell (the paper's test setup).
    #[default]
    RandomOverlap,
    /// Contiguous runs in arrival order — the paper's "'salami'-type
    /// slicing". Chunks inherit whatever ordering the scan produced.
    Salami,
    /// Sort by one attribute, then cut contiguous ranges: disjoint
    /// data-space subcells (the "spatially non-overlapping" strategy, in
    /// attribute space).
    AttributeRange {
        /// The attribute to sort by.
        dim: usize,
    },
}

/// Slices `ds` into `p` near-equal chunks with the given strategy.
pub fn slice(ds: &Dataset, p: usize, strategy: SliceStrategy, seed: u64) -> Result<Vec<Dataset>> {
    if p == 0 {
        return Err(Error::InvalidPartitioning("zero partitions".into()));
    }
    match strategy {
        SliceStrategy::RandomOverlap => partition_random(ds, p, seed, true),
        SliceStrategy::Salami => salami(ds, p),
        SliceStrategy::AttributeRange { dim } => {
            if dim >= ds.dim() {
                return Err(Error::InvalidPartitioning(format!(
                    "attribute {dim} out of range for {}-dimensional points",
                    ds.dim()
                )));
            }
            attribute_range(ds, p, dim)
        }
    }
}

/// Contiguous runs: chunk `i` gets points `[i·ceil(n/p) .. (i+1)·ceil(n/p))`.
fn salami(ds: &Dataset, p: usize) -> Result<Vec<Dataset>> {
    let n = ds.len();
    let dim = ds.dim();
    let per = n.div_ceil(p).max(1);
    let mut out = Vec::with_capacity(p);
    for c in 0..p {
        let start = (c * per).min(n);
        let end = ((c + 1) * per).min(n);
        let mut chunk = Dataset::with_capacity(dim, end - start)?;
        for i in start..end {
            chunk.push(ds.coords(i))?;
        }
        out.push(chunk);
    }
    Ok(out)
}

/// Sort by `dim`, then salami over the sorted order.
fn attribute_range(ds: &Dataset, p: usize, dim: usize) -> Result<Vec<Dataset>> {
    let mut order: Vec<usize> = (0..ds.len()).collect();
    order.sort_by(|&a, &b| {
        ds.coords(a)[dim].partial_cmp(&ds.coords(b)[dim]).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut sorted = Dataset::with_capacity(ds.dim(), ds.len())?;
    for &i in &order {
        sorted.push(ds.coords(i))?;
    }
    salami(&sorted, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staircase(n: usize) -> Dataset {
        // Points with strictly increasing first attribute.
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..n {
            ds.push(&[i as f64, (n - i) as f64]).unwrap();
        }
        ds
    }

    fn multiset(parts: &[Dataset]) -> Vec<Vec<f64>> {
        let mut all: Vec<Vec<f64>> =
            parts.iter().flat_map(|c| c.iter().map(|p| p.to_vec()).collect::<Vec<_>>()).collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        all
    }

    #[test]
    fn all_strategies_preserve_the_multiset() {
        let ds = staircase(53);
        let mut orig: Vec<Vec<f64>> = ds.iter().map(|p| p.to_vec()).collect();
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for strategy in [
            SliceStrategy::RandomOverlap,
            SliceStrategy::Salami,
            SliceStrategy::AttributeRange { dim: 0 },
            SliceStrategy::AttributeRange { dim: 1 },
        ] {
            let parts = slice(&ds, 7, strategy, 11).unwrap();
            assert_eq!(parts.len(), 7, "{strategy:?}");
            assert_eq!(multiset(&parts), orig, "{strategy:?}");
        }
    }

    #[test]
    fn salami_keeps_arrival_order() {
        let ds = staircase(10);
        let parts = slice(&ds, 3, SliceStrategy::Salami, 0).unwrap();
        assert_eq!(parts[0].coords(0), &[0.0, 10.0]);
        assert_eq!(parts[0].len(), 4);
        assert_eq!(parts[1].coords(0), &[4.0, 6.0]);
        assert_eq!(parts[2].len(), 2);
    }

    #[test]
    fn attribute_range_chunks_are_disjoint_intervals() {
        // Shuffle the staircase, then slice by attribute 0: each chunk must
        // cover a disjoint value range.
        let ds = staircase(60);
        let shuffled = partition_random(&ds, 1, 5, true).unwrap().remove(0);
        let parts = slice(&shuffled, 4, SliceStrategy::AttributeRange { dim: 0 }, 0).unwrap();
        let ranges: Vec<(f64, f64)> = parts
            .iter()
            .map(|c| {
                let xs: Vec<f64> = c.iter().map(|p| p[0]).collect();
                (
                    xs.iter().copied().fold(f64::INFINITY, f64::min),
                    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                )
            })
            .collect();
        for w in ranges.windows(2) {
            assert!(w[0].1 < w[1].0, "ranges overlap: {ranges:?}");
        }
    }

    #[test]
    fn attribute_range_rejects_bad_dim() {
        let ds = staircase(5);
        assert!(slice(&ds, 2, SliceStrategy::AttributeRange { dim: 2 }, 0).is_err());
    }

    #[test]
    fn zero_partitions_is_error() {
        let ds = staircase(5);
        assert!(slice(&ds, 0, SliceStrategy::Salami, 0).is_err());
    }

    #[test]
    fn more_chunks_than_points() {
        let ds = staircase(3);
        let parts = slice(&ds, 5, SliceStrategy::Salami, 0).unwrap();
        assert_eq!(parts.len(), 5);
        let total: usize = parts.iter().map(|c| c.len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn random_overlap_matches_partition_random() {
        let ds = staircase(40);
        let a = slice(&ds, 4, SliceStrategy::RandomOverlap, 9).unwrap();
        let b = partition_random(&ds, 4, 9, true).unwrap();
        assert_eq!(a, b);
    }
}
