//! The stripe → grid-bucket preprocessing pass.
//!
//! The paper assumes "the data had been scanned once, and sorted into one
//! degree latitude and one degree longitude grid buckets that were saved to
//! disk as binary files" (§3.1). This module performs that single scan:
//! stripe files in, one bucket file per touched cell out.

use crate::bucket::GridBucket;
use crate::error::{DataError, Result};
use crate::grid::GridCell;
use crate::swath::{read_stripe, Observation};
use pmkm_core::Dataset;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Summary of one binning run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinSummary {
    /// Bucket files written, keyed by cell, in cell order.
    pub buckets: Vec<(GridCell, PathBuf)>,
    /// Total observations binned.
    pub observations: usize,
}

/// Groups observations by grid cell (attributes only — the position is what
/// routes the point; the clustered vector is the attribute vector, as in the
/// paper's 6-attribute cells).
pub fn bin_observations(obs: &[Observation], dim: usize) -> Result<BTreeMap<GridCell, Dataset>> {
    let mut cells: BTreeMap<GridCell, Dataset> = BTreeMap::new();
    for o in obs {
        if o.attrs.len() != dim {
            return Err(DataError::Invalid(format!(
                "observation has {} attrs, expected {dim}",
                o.attrs.len()
            )));
        }
        let cell = GridCell::containing(o.lat, o.lon)?;
        let ds = match cells.entry(cell) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(Dataset::new(dim).map_err(|e| DataError::Invalid(e.to_string()))?)
            }
        };
        ds.push(&o.attrs).map_err(|e| DataError::Invalid(e.to_string()))?;
    }
    Ok(cells)
}

/// Reads every stripe file, bins all observations, and writes one bucket
/// file per cell into `out_dir` (named by [`GridCell::bucket_file_name`]).
/// `out_dir` is created once every stripe has been read, so a failed read
/// leaves nothing behind.
pub fn bin_stripes(stripes: &[PathBuf], out_dir: &Path) -> Result<BinSummary> {
    let mut merged: BTreeMap<GridCell, Dataset> = BTreeMap::new();
    let mut observations = 0usize;
    let mut dim: Option<usize> = None;
    for stripe in stripes {
        let obs = read_stripe(stripe)?;
        if obs.is_empty() {
            continue;
        }
        let d = obs[0].attrs.len();
        match dim {
            None => dim = Some(d),
            Some(existing) if existing != d => {
                return Err(DataError::Format(format!(
                    "stripe {} has dim {d}, earlier stripes had {existing}",
                    stripe.display()
                )))
            }
            _ => {}
        }
        observations += obs.len();
        for (cell, ds) in bin_observations(&obs, d)? {
            match merged.entry(cell) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().extend_from(&ds).map_err(|e| DataError::Invalid(e.to_string()))?;
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(ds);
                }
            }
        }
    }
    std::fs::create_dir_all(out_dir)?;
    let mut buckets = Vec::with_capacity(merged.len());
    for (cell, points) in merged {
        let path = out_dir.join(cell.bucket_file_name());
        GridBucket { cell, points }.write_to(&path)?;
        buckets.push((cell, path));
    }
    Ok(BinSummary { buckets, observations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swath::{write_stripe, SwathConfig, SwathSimulator};
    use pmkm_core::PointSource;

    fn obs(lat: f64, lon: f64, a: f64) -> Observation {
        Observation { lat, lon, attrs: vec![a, a * 2.0] }
    }

    #[test]
    fn bins_by_cell() {
        let observations = vec![
            obs(0.5, 0.5, 1.0),
            obs(0.6, 0.4, 2.0),
            obs(1.5, 0.5, 3.0), // different lat cell
        ];
        let cells = bin_observations(&observations, 2).unwrap();
        assert_eq!(cells.len(), 2);
        let c00 = GridCell::containing(0.5, 0.5).unwrap();
        assert_eq!(cells[&c00].len(), 2);
    }

    #[test]
    fn rejects_ragged_observations() {
        let observations = vec![obs(0.0, 0.0, 1.0)];
        assert!(bin_observations(&observations, 3).is_err());
    }

    #[test]
    fn end_to_end_stripes_to_buckets_conserves_points() {
        let dir = std::env::temp_dir().join(format!("pmkm_binner_{}", std::process::id()));
        let stripes_dir = dir.join("stripes");
        let buckets_dir = dir.join("buckets");
        let cfg = SwathConfig {
            orbits: 2,
            swath_width_deg: 2.0,
            along_track_step_deg: 0.5,
            cross_track_samples: 3,
            lat_range: (-3.0, 3.0),
            attrs_dim: 4,
            components_per_cell: 2,
            seed: 5,
            ..SwathConfig::default()
        };
        let mut sim = SwathSimulator::new(cfg).unwrap();
        let stripes = sim.write_stripes(&stripes_dir).unwrap();
        let summary = bin_stripes(&stripes, &buckets_dir).unwrap();
        // Every observation landed in exactly one bucket.
        let bucket_total: usize = summary
            .buckets
            .iter()
            .map(|(_, p)| GridBucket::read_from(p).unwrap().points.len())
            .sum();
        assert_eq!(bucket_total, summary.observations);
        assert!(summary.buckets.len() > 1, "swath should touch several cells");
        // Bucket headers carry the right cell ids.
        for (cell, path) in &summary.buckets {
            let b = GridBucket::read_from(path).unwrap();
            assert_eq!(b.cell, *cell);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mixed_dims_across_stripes_is_error() {
        let dir = std::env::temp_dir().join(format!("pmkm_binner_mix_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s1 = dir.join("a.sw");
        let s2 = dir.join("b.sw");
        write_stripe(&s1, 2, &[obs(0.0, 0.0, 1.0)]).unwrap();
        write_stripe(&s2, 3, &[Observation { lat: 0.0, lon: 0.0, attrs: vec![1.0, 2.0, 3.0] }])
            .unwrap();
        let out = dir.join("out");
        assert!(matches!(bin_stripes(&[s1, s2], &out), Err(DataError::Format(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_stripe_list_produces_empty_summary() {
        let dir = std::env::temp_dir().join(format!("pmkm_binner_empty_{}", std::process::id()));
        let summary = bin_stripes(&[], &dir).unwrap();
        assert_eq!(summary.observations, 0);
        assert!(summary.buckets.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
