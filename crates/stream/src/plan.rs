//! Logical and physical query plans.
//!
//! Mirrors the paper's Conquest workflow (§3.4, §4): the user states a
//! *logical* dataflow ("cluster these grid buckets with k = 40"), the
//! optimizer turns it into a *physical* plan by choosing the partition size
//! from the memory budget and the clone degree of the partial operator from
//! the available processors.

use crate::error::{EngineError, Result};
use crate::fault::FaultPolicy;
use crate::ops::ChunkPolicy;
use pmkm_core::coreset::CoresetConfig;
use pmkm_core::KMeansConfig;
use pmkm_obs::StatusCell;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// The logical dataflow: what to cluster and how.
#[derive(Debug, Clone)]
pub struct LogicalPlan {
    /// Grid-bucket files to cluster, one output clustering per cell.
    pub inputs: Vec<PathBuf>,
    /// k-means parameters for the partial runs (k, restarts, ε).
    pub kmeans: KMeansConfig,
    /// Restarts of the merge k-means.
    pub merge_restarts: usize,
}

impl LogicalPlan {
    /// A plan with the paper's algorithm defaults over the given buckets.
    pub fn new(inputs: Vec<PathBuf>, kmeans: KMeansConfig) -> Self {
        Self { inputs, kmeans, merge_restarts: 1 }
    }

    /// Validates the plan.
    pub fn validate(&self) -> Result<()> {
        if self.inputs.is_empty() {
            return Err(EngineError::InvalidPlan("no input buckets".into()));
        }
        self.kmeans.validate()?;
        if self.merge_restarts == 0 {
            return Err(EngineError::InvalidPlan("merge_restarts must be >= 1".into()));
        }
        Ok(())
    }
}

/// Coreset-mode execution: replace the gather-everything merge with a
/// bounded merge-reduce coreset tree per cell (see
/// [`pmkm_core::coreset`]), enabling anytime queries on unbounded streams.
#[derive(Clone)]
pub struct CoresetSpec {
    /// Representatives per tree bucket (live memory ≈ `levels × size`).
    pub size: usize,
    /// Sliding window in chunks (bucket-granularity eviction).
    pub window: Option<usize>,
    /// Exponential decay λ ∈ (0, 1] applied per arriving chunk.
    pub decay: Option<f64>,
    /// Live status cell the tail's coreset tree publishes anytime-query
    /// results into (the `/status` dashboard's mid-stream clustering).
    /// Not part of the plan's identity: fingerprints and `Debug` ignore it.
    pub probe: Option<Arc<StatusCell>>,
}

impl CoresetSpec {
    /// A plain coreset spec (no window, no decay, no probe).
    pub fn new(size: usize) -> Self {
        Self { size, window: None, decay: None, probe: None }
    }

    /// The tree configuration this spec describes.
    pub fn config(&self) -> CoresetConfig {
        CoresetConfig { size: self.size, window: self.window, decay: self.decay }
    }
}

// Manual impl so the probe handle (scheduling state, not plan identity)
// never leaks into `{:?}`-based plan fingerprints.
impl fmt::Debug for CoresetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoresetSpec")
            .field("size", &self.size)
            .field("window", &self.window)
            .field("decay", &self.decay)
            .finish()
    }
}

/// The physical plan: the logical plan plus every execution knob the
/// optimizer fixed.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The logical plan being executed.
    pub logical: LogicalPlan,
    /// Number of partial k-means clones (≥ 1).
    pub partial_clones: usize,
    /// Chunk sizing policy handed to the chunker.
    pub chunk_policy: ChunkPolicy,
    /// How the engine reacts to faults: [`FaultPolicy::strict`] (the
    /// default) fails fast, [`FaultPolicy::tolerant`] retries, quarantines
    /// and merges degraded cells.
    pub fault_policy: FaultPolicy,
    /// `Some` switches the engine into coreset mode: partial clones build
    /// per-chunk coresets and the tail's per-cell tree compacts at this
    /// bucket size, bounding live memory on unbounded streams. `None` keeps
    /// the paper's buffer, a tree that never samples.
    pub coreset: Option<CoresetSpec>,
    /// Storage backend the scan reads GB02 block containers through
    /// (GB01 buckets always use the legacy buffered reader). Part of the
    /// plan fingerprint: backends change injection granularity under
    /// chaos, so checkpoints must not cross backends.
    pub scan_backend: pmkm_data::BackendKind,
}

impl PhysicalPlan {
    /// Validates the physical knobs (and the nested logical plan).
    pub fn validate(&self) -> Result<()> {
        self.logical.validate()?;
        if self.partial_clones == 0 {
            return Err(EngineError::InvalidPlan("partial_clones must be >= 1".into()));
        }
        if self.fault_policy.max_chunk_attempts == 0 {
            return Err(EngineError::InvalidPlan("max_chunk_attempts must be >= 1".into()));
        }
        match self.chunk_policy {
            ChunkPolicy::FixedPoints(0) => {
                return Err(EngineError::InvalidPlan("fixed chunk size must be >= 1".into()));
            }
            ChunkPolicy::MemoryBudget { bytes: 0 } => {
                return Err(EngineError::InvalidPlan("memory budget must be >= 1 byte".into()));
            }
            _ => {}
        }
        if let Some(spec) = &self.coreset {
            spec.config().validate()?;
            if spec.size < self.logical.kmeans.k {
                return Err(EngineError::InvalidPlan(format!(
                    "coreset size {} must be >= k = {}",
                    spec.size, self.logical.kmeans.k
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logical() -> LogicalPlan {
        LogicalPlan::new(vec![PathBuf::from("a.gb")], KMeansConfig::paper(4, 0))
    }

    #[test]
    fn logical_defaults_match_paper() {
        let p = logical();
        assert_eq!(p.merge_restarts, 1);
        p.validate().unwrap();
    }

    #[test]
    fn logical_rejects_empty_inputs() {
        let p = LogicalPlan::new(vec![], KMeansConfig::paper(4, 0));
        assert!(p.validate().is_err());
    }

    #[test]
    fn physical_validation() {
        let ok = PhysicalPlan {
            logical: logical(),
            partial_clones: 2,
            chunk_policy: ChunkPolicy::FixedPoints(100),
            fault_policy: FaultPolicy::default(),
            coreset: None,
            scan_backend: pmkm_data::BackendKind::LocalFile,
        };
        ok.validate().unwrap();
        let bad = PhysicalPlan { partial_clones: 0, ..ok.clone() };
        assert!(bad.validate().is_err());
        let bad = PhysicalPlan { chunk_policy: ChunkPolicy::FixedPoints(0), ..ok.clone() };
        assert!(bad.validate().is_err());
        let bad = PhysicalPlan {
            fault_policy: FaultPolicy { max_chunk_attempts: 0, ..FaultPolicy::tolerant() },
            ..ok.clone()
        };
        assert!(bad.validate().is_err());
        let bad = PhysicalPlan { coreset: Some(CoresetSpec::new(0)), ..ok.clone() };
        assert!(bad.validate().is_err());
        // size < k is rejected up front, not at query time.
        let bad = PhysicalPlan { coreset: Some(CoresetSpec::new(2)), ..ok.clone() };
        assert!(bad.validate().is_err());
        let good = PhysicalPlan { coreset: Some(CoresetSpec::new(64)), ..ok };
        good.validate().unwrap();
    }

    #[test]
    fn coreset_spec_debug_ignores_probe() {
        let mut spec = CoresetSpec::new(128);
        let bare = format!("{spec:?}");
        spec.probe = Some(Arc::new(StatusCell::new()));
        assert_eq!(format!("{spec:?}"), bare, "probe must not leak into plan fingerprints");
    }
}
