//! Experiment dataset builder.
//!
//! Reproduces the paper's test data (§5.1): MISR-like 1° × 1° grid cells
//! with 6 attributes per point, point counts swept over
//! {250, 2,500, 12,500, 25,000, 50,000, 75,000}, five independently
//! generated versions per configuration, all from the same family of
//! distributions ("We used the R statistical package to recreate the files
//! with the same distribution, and created 5 different versions for each
//! configuration").

use crate::error::Result;
use crate::mixture::Mixture;
use pmkm_core::seeding::derive_seed;
use pmkm_core::Dataset;
use serde::Serialize;

/// The paper's attribute dimensionality.
pub const PAPER_DIM: usize = 6;
/// The paper's cluster count.
pub const PAPER_K: usize = 40;
/// The paper's dataset versions per configuration.
pub const PAPER_VERSIONS: u32 = 5;

/// The grid-cell sizes of Table 2 / Figures 6–8.
///
/// Table 2 lists 75,000 / 50,000 / 25,000 / 12,500 / 2,500 / 250; the
/// narrative also mentions 5,000 / 20,000 — we reproduce the tabulated set,
/// ascending.
pub const PAPER_SWEEP: [usize; 6] = [250, 2_500, 12_500, 25_000, 50_000, 75_000];

/// Parameters of one synthetic grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CellConfig {
    /// Points in the cell.
    pub points: usize,
    /// Attributes per point.
    pub dim: usize,
    /// Mixture components (distinct "regimes" in the cell).
    pub components: usize,
    /// Per-axis standard-deviation range of the regimes (σ relative to the
    /// 0–800 radiance range controls how separable the modes are).
    pub sd_range: (f64, f64),
    /// Seed controlling both the mixture shape and the sampled points.
    pub seed: u64,
}

impl CellConfig {
    /// A paper-style cell: 6 attributes, 12 broad overlapping regimes
    /// (k = 40 clustering then has sub-structure to trade off, the regime
    /// in which the paper's break-even behaviour reproduces), MISR-like
    /// radiance ranges.
    pub fn paper(points: usize, seed: u64) -> Self {
        Self { points, dim: PAPER_DIM, components: 12, sd_range: (5.0, 40.0), seed }
    }
}

/// Generates one cell's points (distribution and sample stream both derive
/// from `cfg.seed`).
pub fn generate_cell(cfg: &CellConfig) -> Result<Dataset> {
    let mixture_seed = derive_seed(cfg.seed, 0x4D49_5854); // "MIXT"
    let sample_seed = derive_seed(cfg.seed, 0x504F_494E); // "POIN"
    generate_cell_with(cfg, mixture_seed, sample_seed)
}

/// Generates a cell with an explicit split between the *distribution* seed
/// (which fixes the mixture) and the *sample* seed (which fixes the drawn
/// points). The experiment sweep holds the distribution fixed and varies
/// only the samples, exactly like the paper's five R-regenerated versions
/// of "the same distribution".
pub fn generate_cell_with(
    cfg: &CellConfig,
    distribution_seed: u64,
    sample_seed: u64,
) -> Result<Dataset> {
    let (sd_lo, sd_hi) = cfg.sd_range;
    let mixture = Mixture::random(
        cfg.dim,
        cfg.components.max(1),
        0.0..800.0,
        sd_lo..sd_hi,
        distribution_seed,
    )?;
    mixture.sample_dataset(cfg.points, sample_seed)
}

/// The seed for `(experiment base seed, n, version)` — every point-count /
/// version pair gets an independent stream, mirroring the paper's five
/// regenerated files per configuration.
pub fn version_seed(base: u64, n: usize, version: u32) -> u64 {
    derive_seed(base, (n as u64) << 8 | version as u64)
}

/// Generates one paper-style cell for a sweep point and version: the
/// underlying mixture is the same for every `(n, version)` of a given
/// `base_seed` (the paper's "same distribution"); only the sampled points
/// differ.
pub fn paper_cell(n: usize, version: u32, base_seed: u64) -> Result<Dataset> {
    let cfg = CellConfig::paper(n, base_seed);
    let distribution_seed = derive_seed(base_seed, 0x4449_5354); // "DIST"
    generate_cell_with(&cfg, distribution_seed, version_seed(base_seed, n, version))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmkm_core::PointSource;

    #[test]
    fn paper_constants() {
        assert_eq!(PAPER_DIM, 6);
        assert_eq!(PAPER_K, 40);
        assert_eq!(PAPER_SWEEP, [250, 2_500, 12_500, 25_000, 50_000, 75_000]);
    }

    #[test]
    fn generate_cell_has_requested_shape() {
        let ds = generate_cell(&CellConfig::paper(500, 3)).unwrap();
        assert_eq!(ds.len(), 500);
        assert_eq!(ds.dim(), 6);
    }

    #[test]
    fn versions_are_independent_but_reproducible() {
        let a = paper_cell(250, 0, 42).unwrap();
        let b = paper_cell(250, 0, 42).unwrap();
        let c = paper_cell(250, 1, 42).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn different_sizes_do_not_share_prefixes() {
        // n = 250 and n = 2,500 use different sample streams: the smaller
        // cell is not a prefix of the larger one.
        let small = paper_cell(250, 0, 7).unwrap();
        let large = paper_cell(2_500, 0, 7).unwrap();
        let prefix = &large.as_flat()[..small.as_flat().len()];
        assert_ne!(small.as_flat(), prefix);
    }

    #[test]
    fn all_sweep_cells_share_one_distribution() {
        // Same base seed ⇒ same mixture for every (n, version): per-dim
        // means agree across sizes within sampling error.
        let a = paper_cell(5_000, 0, 7).unwrap();
        let b = paper_cell(20_000, 3, 7).unwrap();
        let sa = crate::stats::summarize(&a).unwrap();
        let sb = crate::stats::summarize(&b).unwrap();
        for d in 0..PAPER_DIM {
            let scale = sa[d].variance.sqrt().max(1.0);
            assert!(
                (sa[d].mean - sb[d].mean).abs() / scale < 0.2,
                "dim {d}: {} vs {}",
                sa[d].mean,
                sb[d].mean
            );
        }
        // Different base seed ⇒ different distribution.
        let c = paper_cell(5_000, 0, 8).unwrap();
        let sc = crate::stats::summarize(&c).unwrap();
        let diverges = (0..PAPER_DIM).any(|d| (sa[d].mean - sc[d].mean).abs() > 5.0);
        assert!(diverges);
    }

    #[test]
    fn generated_values_are_finite_and_plausible() {
        let ds = generate_cell(&CellConfig::paper(1_000, 9)).unwrap();
        for p in ds.iter() {
            for &x in p {
                assert!(x.is_finite());
                assert!((-500.0..1500.0).contains(&x), "x = {x}");
            }
        }
    }

    #[test]
    fn version_seed_distinguishes_all_axes() {
        let s = version_seed(1, 250, 0);
        assert_ne!(s, version_seed(1, 250, 1));
        assert_ne!(s, version_seed(1, 2_500, 0));
        assert_ne!(s, version_seed(2, 250, 0));
        assert_eq!(s, version_seed(1, 250, 0));
    }
}
