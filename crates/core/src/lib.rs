//! # pmkm-core — partial/merge k-means
//!
//! A faithful, production-quality implementation of the **partial/merge
//! k-means** algorithm from *"Scaling Clustering Algorithms for Massive Data
//! Sets using Data Streams"* (S. Nittel, K. T. Leung, A. Braverman,
//! ICDE 2004).
//!
//! The algorithm clusters a massive point set that does not fit in memory by
//!
//! 1. dealing the points into `p` partitions sized to the available memory,
//! 2. running best-of-R k-means on each partition independently
//!    ([`partial::partial_kmeans`]), emitting one **weighted centroid** per
//!    cluster (weight = points assigned to it), and
//! 3. running a **weighted** k-means over all partitions' centroids, seeded
//!    with the heaviest ones ([`merge::merge_collective`]).
//!
//! ## Quick start
//!
//! ```
//! use pmkm_core::prelude::*;
//!
//! // A toy cell: two clusters in 2-D.
//! let mut cell = Dataset::new(2)?;
//! for i in 0..100 {
//!     let o = (i % 10) as f64 * 0.03;
//!     cell.push(&[o, o])?;
//!     cell.push(&[10.0 + o, 10.0 - o])?;
//! }
//!
//! // Paper defaults: best-of-10 restarts, eps = 1e-9, collective merge.
//! let cfg = PartialMergeConfig::paper(/*k=*/ 2, /*partitions=*/ 5, /*seed=*/ 42);
//! let result = partial_merge(&cell, &cfg)?;
//!
//! assert_eq!(result.merge.centroids.k(), 2);
//! let mse = metrics::mse_against(&cell, &result.merge.centroids)?;
//! assert!(mse < 1.0);
//! # Ok::<(), pmkm_core::Error>(())
//! ```
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`point`] | §2 | distance primitives |
//! | [`mod@kernel`] | §4 ("improved search") | fused SoA assignment kernels |
//! | [`dataset`] | — | flat point containers, [`dataset::PointSource`] |
//! | [`seeding`] | §2/§3.3 | random / heaviest / k-means++ seeding, seed derivation |
//! | [`mod@lloyd`] | §2 | the shared (weighted) Lloyd iteration |
//! | [`mod@kmeans`] | §3.2 | best-of-R outer loop |
//! | [`mod@partial`] | §3.2 | chunk clustering → weighted centroids |
//! | [`mod@merge`] | §3.3 | collective & incremental merge |
//! | [`mod@pipeline`] | §3.4/Fig. 5 | end-to-end partial/merge on one thread |
//! | [`metrics`] | §2/§3.3 | `E`, `E_pm`, MSE evaluation |
//! | [`mod@ecvq`] | §3.3 remarks | entropy-constrained VQ (adaptive k) |
//! | [`mod@coreset`] | beyond the paper | weighted coresets, merge-reduce tree, anytime queries |
//!
//! The stream-operator execution (queues, backpressure, operator cloning —
//! §3/§4 of the paper) lives in the companion crate `pmkm-stream`, which
//! drives these same primitives.

#![warn(missing_docs)]
// Denied rather than forbidden: the one sanctioned exception is the
// runtime-dispatched SIMD screen in [`mod@kernel`], which carries its own
// `#[allow(unsafe_code)]` and safety proofs (in-bounds by construction,
// CPU features checked before dispatch).
#![deny(unsafe_code)]

pub mod config;
pub mod coreset;
pub mod dataset;
pub mod ecvq;
pub mod error;
pub mod kernel;
pub mod kmeans;
pub mod lloyd;
pub mod merge;
pub mod metrics;
pub mod partial;
pub mod pipeline;
pub mod point;
pub mod seeding;
pub mod slicing;

pub use config::{
    KMeansConfig, KernelKind, LloydConfig, MergeMode, PartialMergeConfig, SeedMode,
    DEFAULT_MAX_ITERS, PAPER_EPSILON,
};
pub use coreset::{
    chunk_coreset, CompactionInfo, CoresetBucket, CoresetConfig, CoresetStats, CoresetTree,
    EvictionInfo, InsertOutcome,
};
pub use dataset::{Centroids, Dataset, PointSource, WeightedSet};
pub use error::{Error, Result};
pub use kernel::{FusedLayout, KernelStats};
pub use kmeans::{kmeans, kmeans_observed, KMeansOutcome, RestartStats};
pub use lloyd::{lloyd, lloyd_observed, LloydRun};
pub use merge::{
    merge, merge_collective, merge_collective_observed, merge_incremental, MergeOutput,
};
pub use partial::{
    partial_ecvq, partial_kmeans, partial_kmeans_observed, partition_random, PartialOutput,
};
pub use pipeline::{
    partial_merge, partial_merge_ecvq, partial_merge_observed, ChunkStats, PartialMergeResult,
};
pub use slicing::{slice, SliceStrategy};

/// Convenience prelude: `use pmkm_core::prelude::*;`.
pub mod prelude {
    pub use crate::config::{
        KMeansConfig, KernelKind, LloydConfig, MergeMode, PartialMergeConfig, SeedMode,
    };
    pub use crate::dataset::{Centroids, Dataset, PointSource, WeightedSet};
    pub use crate::error::{Error, Result};
    pub use crate::kmeans::kmeans;
    pub use crate::merge::{merge_collective, merge_incremental};
    pub use crate::metrics;
    pub use crate::partial::partial_kmeans;
    pub use crate::pipeline::partial_merge;
}
