//! Configuration types for every clustering entry point.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};

/// The paper's convergence threshold: stop when
/// `MSE(n−1) − MSE(n) ≤ 1 × 10⁻⁹` (§2, §3.3).
pub const PAPER_EPSILON: f64 = 1e-9;

/// Default safety cap on Lloyd iterations. The paper relies purely on the
/// MSE delta; the cap exists so adversarial inputs can't spin forever, and
/// results record whether it was hit.
pub const DEFAULT_MAX_ITERS: usize = 10_000;

/// Which nearest-centroid strategy drives the Lloyd assignment step.
///
/// Every kind is **exact**: they all produce the same assignments (and the
/// same bit-level distances) as the naive scalar scan — the differential
/// test suite in `tests/kernel_differential.rs` pins this. They differ only
/// in how much arithmetic they spend getting there; DESIGN.md §9 discusses
/// when each wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KernelKind {
    /// Pick automatically: always the fused SoA kernel. (A pruned scalar
    /// scan existed historically but measured 0.81× the plain scalar scan
    /// on the kernel-speedup workloads and was removed; `KernelKind` keeps
    /// only strategies that earn their maintenance.)
    #[default]
    Auto,
    /// The naive AoS scalar scan ([`crate::point::nearest_centroid`]) —
    /// the paper's §4 prototype behaviour, kept for timing mirrors.
    Scalar,
    /// The fused SoA kernel ([`crate::kernel::FusedLayout`]): `‖x−c‖²` via
    /// the norm expansion over coordinate-major centroid planes, four
    /// points per sweep, with an exact rescue pass, and the weighted
    /// accumulator updates fused into the same loop over the points.
    Fused,
}

impl KernelKind {
    /// Human-readable label used in metric names and trace events.
    pub fn label(&self) -> &'static str {
        match self {
            KernelKind::Auto => "auto",
            KernelKind::Scalar => "scalar",
            KernelKind::Fused => "fused",
        }
    }

    /// Inverse of [`Self::label`], for CLI/config parsing. Returns `None`
    /// for unknown names.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(KernelKind::Auto),
            "scalar" => Some(KernelKind::Scalar),
            "fused" => Some(KernelKind::Fused),
            _ => None,
        }
    }
}

/// Controls a single Lloyd (k-means) run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LloydConfig {
    /// Convergence threshold on the MSE decrease between iterations.
    pub epsilon: f64,
    /// Hard iteration cap (safety valve; `converged == false` when hit).
    pub max_iters: usize,
    /// Assignment-step strategy. [`KernelKind::Auto`] (the default)
    /// resolves to the fused SoA kernel — bit-identical results, just
    /// faster.
    pub kernel: KernelKind,
}

impl Default for LloydConfig {
    fn default() -> Self {
        Self { epsilon: PAPER_EPSILON, max_iters: DEFAULT_MAX_ITERS, kernel: KernelKind::Auto }
    }
}

impl LloydConfig {
    /// Validates field ranges.
    pub fn validate(&self) -> Result<()> {
        if !(self.epsilon.is_finite() && self.epsilon >= 0.0) {
            return Err(Error::InvalidConfig("epsilon must be finite and >= 0".into()));
        }
        if self.max_iters == 0 {
            return Err(Error::InvalidConfig("max_iters must be at least 1".into()));
        }
        Ok(())
    }

    /// The concrete strategy a run will use: resolves [`KernelKind::Auto`]
    /// to the fused kernel; never returns `Auto`.
    pub fn resolved_kernel(&self) -> KernelKind {
        match self.kernel {
            KernelKind::Auto => KernelKind::Fused,
            k => k,
        }
    }
}

/// How initial centroids are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedMode {
    /// k distinct points drawn uniformly at random (the paper's choice for
    /// the serial and partial steps).
    RandomPoints,
    /// The k points with the largest weights (the paper's choice for the
    /// merge step: "the weight wᵢ of zᵢ is one of the k largest weights").
    HeaviestPoints,
    /// k-means++ (D² sampling). Not used by the paper; provided as an
    /// ablation axis for `ablation_seeding`.
    PlusPlus,
}

/// Full k-means configuration: k, restarts, seeding and the Lloyd knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Number of independent restarts (`R` in the paper); the run with the
    /// minimum MSE wins. The paper uses `R = 10`.
    pub restarts: usize,
    /// Seeding strategy.
    pub seed_mode: SeedMode,
    /// Per-run Lloyd parameters.
    pub lloyd: LloydConfig,
    /// Base RNG seed. Restart `r` derives its own stream from this, so a
    /// given `(seed, r)` pair is reproducible regardless of scheduling.
    pub seed: u64,
}

impl KMeansConfig {
    /// The paper's experimental configuration: `k = 40`, `R = 10`,
    /// `ε = 1e-9`, random-point seeding.
    pub fn paper(k: usize, seed: u64) -> Self {
        Self {
            k,
            restarts: 10,
            seed_mode: SeedMode::RandomPoints,
            lloyd: LloydConfig::default(),
            seed,
        }
    }

    /// Validates field ranges (k and restarts nonzero, Lloyd fields sane).
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(Error::ZeroK);
        }
        if self.restarts == 0 {
            return Err(Error::InvalidConfig("restarts must be at least 1".into()));
        }
        self.lloyd.validate()
    }
}

/// Configuration of the full partial/merge pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartialMergeConfig {
    /// k-means parameters shared by the partial runs (the paper fixes one k
    /// for all partitions of a cell).
    pub kmeans: KMeansConfig,
    /// Number of near-equal chunks `p` a cell is split into (the paper's
    /// 5-split / 10-split). Must be at least 1.
    pub partitions: usize,
    /// Restarts for the merge k-means. The paper seeds the merge
    /// deterministically with the heaviest centroids, so one run suffices;
    /// more restarts fall back to random seeding for runs beyond the first.
    pub merge_restarts: usize,
    /// How the cell is sliced into chunks (§6 future work; the paper's
    /// experiments use the random-overlap deal).
    pub slicing: crate::slicing::SliceStrategy,
}

impl PartialMergeConfig {
    /// Paper defaults: `k = 40`, `R = 10`, one merge run, shuffled deal.
    pub fn paper(k: usize, partitions: usize, seed: u64) -> Self {
        Self {
            kmeans: KMeansConfig::paper(k, seed),
            partitions,
            merge_restarts: 1,
            slicing: crate::slicing::SliceStrategy::RandomOverlap,
        }
    }

    /// Validates all nested configuration.
    pub fn validate(&self) -> Result<()> {
        self.kmeans.validate()?;
        if self.partitions == 0 {
            return Err(Error::InvalidPartitioning("partition count must be >= 1".into()));
        }
        if self.merge_restarts == 0 {
            return Err(Error::InvalidConfig("merge_restarts must be at least 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_paper_constants() {
        let c = KMeansConfig::paper(40, 7);
        assert_eq!(c.k, 40);
        assert_eq!(c.restarts, 10);
        assert_eq!(c.lloyd.epsilon, 1e-9);
        assert_eq!(c.seed_mode, SeedMode::RandomPoints);
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut c = KMeansConfig::paper(40, 0);
        c.k = 0;
        assert_eq!(c.validate(), Err(Error::ZeroK));
        let mut c = KMeansConfig::paper(40, 0);
        c.restarts = 0;
        assert!(c.validate().is_err());
        let mut c = KMeansConfig::paper(40, 0);
        c.lloyd.max_iters = 0;
        assert!(c.validate().is_err());
        let mut c = KMeansConfig::paper(40, 0);
        c.lloyd.epsilon = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn partition_count_resolves_verbatim() {
        let ds = crate::Dataset::from_flat(1, (0..75).map(f64::from).collect()).unwrap();
        let res = crate::partial_merge(&ds, &PartialMergeConfig::paper(2, 5, 0)).unwrap();
        assert_eq!(res.partitions, 5);
        let c = PartialMergeConfig::paper(2, 0, 0);
        assert!(matches!(c.validate(), Err(Error::InvalidPartitioning(_))));
        assert!(crate::partial_merge(&ds, &c).is_err());
    }

    #[test]
    fn partial_merge_paper_defaults() {
        let c = PartialMergeConfig::paper(40, 10, 1);
        assert_eq!(c.partitions, 10);
        assert_eq!(c.slicing, crate::slicing::SliceStrategy::RandomOverlap);
        c.validate().unwrap();
    }

    #[test]
    fn configs_are_serde() {
        // Compile-time check that all config types derive Serialize +
        // Deserialize (the bench crate persists them with serde_json).
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<LloydConfig>();
        assert_serde::<KMeansConfig>();
        assert_serde::<PartialMergeConfig>();
        assert_serde::<SeedMode>();
    }

    #[test]
    fn lloyd_config_json_with_retired_keys_still_loads() {
        // Configs persisted before `parallel_assign` and `pruned_assign`
        // were removed carry both keys; the derive skips unknown keys.
        let old = r#"{"epsilon":1e-9,"max_iters":10000,"parallel_assign":true,
            "pruned_assign":true,"kernel":"Auto"}"#;
        let cfg: LloydConfig = serde_json::from_str(old).unwrap();
        assert_eq!(cfg, LloydConfig::default());
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(!json.contains("_assign"), "{json}");
    }
}
