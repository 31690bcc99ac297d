//! The data items flowing on the pipeline's edges.

use pmkm_core::coreset::CoresetStats;
use pmkm_core::merge::MergeOutput;
use pmkm_core::partial::PartialOutput;
use pmkm_core::pipeline::ChunkStats;
use pmkm_core::Dataset;
use pmkm_data::GridCell;
use serde::{Deserialize, Serialize};

/// Scan → chunker messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanMsg {
    /// A batch of points read from one cell's bucket.
    Batch {
        /// The cell being scanned.
        cell: GridCell,
        /// The points in this batch.
        points: Dataset,
    },
    /// The scan finished the cell's bucket (the chunker flushes the cell's
    /// final, possibly short, chunk on seeing this).
    CellEnd {
        /// The finished cell.
        cell: GridCell,
        /// Points the bucket header promised. Under a tolerant fault
        /// policy the scan may deliver fewer (abandoned bucket tail); the
        /// difference surfaces as lost mass in the merge.
        expected_points: usize,
    },
}

/// Chunker → partial-k-means messages: one memory-sized partition.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMsg {
    /// Owning cell.
    pub cell: GridCell,
    /// Partition index within the cell (`0..p`).
    pub chunk_id: usize,
    /// The partition's points.
    pub points: Dataset,
}

/// Partial/chunker → merge messages.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeMsg {
    /// One partition's weighted centroids.
    Partial {
        /// Owning cell.
        cell: GridCell,
        /// Partition index.
        chunk_id: usize,
        /// The partial k-means output.
        output: PartialOutput,
    },
    /// Emitted by the chunker when a cell's last chunk has been sent; tells
    /// the merge operator how many partials to expect for the cell.
    CellPlan {
        /// The completed cell.
        cell: GridCell,
        /// Number of chunks the cell was split into.
        chunks: usize,
        /// Points the cell's bucket header promised (`Σw_expected` for the
        /// merge's mass accounting).
        expected_points: usize,
    },
    /// A chunk that will never produce a partial: quarantined after
    /// failing validation or crashing past the retry budget. Counts toward
    /// the cell's completeness so the merge can still finish the cell.
    ChunkLost {
        /// Owning cell.
        cell: GridCell,
        /// Partition index of the lost chunk.
        chunk_id: usize,
        /// Points the chunk carried (lost mass).
        points: usize,
    },
}

/// Final per-cell result emitted by the tail operator.
///
/// Serializable because it is exactly the payload an orchestrated run
/// persists in a per-cell checkpoint file after the merge completes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellClustering {
    /// The cell.
    pub cell: GridCell,
    /// The merged representation.
    pub output: MergeOutput,
    /// Per-chunk statistics, in chunk order.
    pub chunks: Vec<ChunkStats>,
    /// Per-chunk MSE trajectories of the winning restarts, aligned with
    /// `chunks` (empty vectors for tiny-chunk passthroughs).
    pub trajectories: Vec<Vec<f64>>,
    /// Points the cell's bucket promised (`Σw_expected`); equals the
    /// clustered weight on a fault-free run.
    pub expected_points: f64,
    /// Mass missing from the merge (`Σw_expected − Σw_received`).
    pub lost_points: f64,
    /// Chunks of this cell that were quarantined.
    pub lost_chunks: usize,
    /// True when the cell merged with missing mass.
    pub degraded: bool,
    /// Coreset-tree summary when the cell ran in coreset mode (`None` on
    /// the classic merge path; defaulted so pre-coreset checkpoints still
    /// deserialize).
    #[serde(default)]
    pub coreset: Option<CoresetStats>,
}
