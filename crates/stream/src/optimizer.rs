//! The query optimizer: logical plan + resources → physical plan.
//!
//! Implements the paper's planning rules (§3.4):
//!
//! * the partial k-means is "by far the most expensive computation" and "the
//!   most likely operator candidate to be cloned" — so it gets every
//!   available worker (Option 1: "clone the partial k-means to as many
//!   machines as possible"),
//! * the chunk size comes from the volatile-memory budget, so every
//!   partition "can be stored into available volatile memory",
//! * scan, chunker and merge stay single-instance on the calling thread:
//!   the scan is I/O-bound and the merge "is likely to be idle most of the
//!   time".

use crate::ops::ChunkPolicy;
use crate::plan::{LogicalPlan, PhysicalPlan};
use crate::resources::Resources;

/// Plans the physical execution of `logical` under `resources`.
pub fn optimize(logical: LogicalPlan, resources: &Resources) -> PhysicalPlan {
    PhysicalPlan {
        logical,
        partial_clones: resources.workers.max(1),
        chunk_policy: ChunkPolicy::MemoryBudget { bytes: resources.chunk_memory_bytes.max(1) },
        fault_policy: crate::fault::FaultPolicy::default(),
        coreset: None,
        scan_backend: pmkm_data::BackendKind::default(),
    }
}

/// Plans with an explicit chunk size instead of a memory budget — used by
/// the experiment harnesses to pin the paper's 5-split / 10-split cases.
pub fn optimize_fixed_split(
    logical: LogicalPlan,
    resources: &Resources,
    points_per_chunk: usize,
) -> PhysicalPlan {
    PhysicalPlan {
        chunk_policy: ChunkPolicy::FixedPoints(points_per_chunk.max(1)),
        ..optimize(logical, resources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmkm_core::KMeansConfig;
    use std::path::PathBuf;

    fn logical() -> LogicalPlan {
        LogicalPlan::new(vec![PathBuf::from("x.gb")], KMeansConfig::paper(4, 0))
    }

    #[test]
    fn clones_partial_to_all_workers() {
        let plan = optimize(logical(), &Resources::fixed(1 << 20, 6));
        assert_eq!(plan.partial_clones, 6);
        assert_eq!(plan.chunk_policy, ChunkPolicy::MemoryBudget { bytes: 1 << 20 });
        plan.validate().unwrap();
    }

    #[test]
    fn fixed_split_overrides_policy() {
        let plan = optimize_fixed_split(logical(), &Resources::fixed(1 << 20, 2), 2500);
        assert_eq!(plan.chunk_policy, ChunkPolicy::FixedPoints(2500));
        plan.validate().unwrap();
    }

    #[test]
    fn degenerate_resources_are_clamped() {
        let r = Resources { chunk_memory_bytes: 0, workers: 0 };
        let plan = optimize(logical(), &r);
        assert_eq!(plan.partial_clones, 1);
        assert_eq!(plan.chunk_policy, ChunkPolicy::MemoryBudget { bytes: 1 });
        plan.validate().unwrap();
    }
}
