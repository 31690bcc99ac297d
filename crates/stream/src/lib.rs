//! # pmkm-stream — a Conquest-style data-stream engine
//!
//! The execution substrate of the paper (§3–§4): partial/merge k-means
//! expressed as a pipelined dataflow of stream operators connected by
//! bounded **smart queues**, with the expensive partial operator **cloned**
//! across workers and chunk sizes fixed by a volatile-memory budget.
//!
//! ```text
//!            ┌──────────┐   ┌─────────┐   ┌────────────────┐   ┌───────┐
//!  buckets ─▶│   scan   │──▶│ chunker │──▶│ partial k-means│──▶│ merge │──▶ results
//!            └──────────┘   └─────────┘   │   (× clones)   │   └───────┘
//!                                         └────────────────┘
//! ```
//!
//! * [`queue`] — bounded MPMC edges with backpressure + telemetry,
//! * [`ops`] — the four operators of Figure 5; the last, [`ops::tail`], is
//!   the paper's merge or (in coreset mode) a merge-reduce tree behind one
//!   per-cell protocol,
//! * [`plan`] / [`optimizer`] / [`resources`] — logical plans compiled to
//!   physical plans under a resource model (clone degree from processors,
//!   chunk size from memory),
//! * [`executor`] — one driver: scan, chunker and tail on the calling
//!   thread, the partial clones on a scoped pool fed one chunk at a time.
//!
//! A stage's busy time is its profiler phase (`scan`, `chunk`, `partial`,
//! `merge`), so the paper's observation that "the merge operator ... is
//! likely to be idle most of the time" reads off a run report's `phases`.
//!
//! ## Quick start
//!
//! ```no_run
//! use pmkm_stream::prelude::*;
//! use pmkm_core::KMeansConfig;
//!
//! let logical = LogicalPlan::new(
//!     vec!["buckets/cell_090_180.gb".into()],
//!     KMeansConfig::paper(40, 42),
//! );
//! let plan = optimize(logical, &Resources::detect());
//! let report = execute(&plan)?;
//! for cell in &report.cells {
//!     println!("cell {} → {} centroids, E_pm = {:.1}",
//!         cell.cell.index(), cell.output.centroids.k(), cell.output.epm);
//! }
//! # Ok::<(), pmkm_stream::EngineError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod executor;
pub mod fault;
pub mod item;
pub mod ops;
pub mod optimizer;
pub mod orchestrator;
pub mod plan;
pub mod queue;
pub mod resources;
pub mod watchdog;

pub use error::{EngineError, Result};
pub use executor::{coreset_report, execute, execute_with_faults, EngineReport};
pub use fault::{FaultContext, FaultCounters, FaultPlan, FaultPolicy};
pub use item::{CellClustering, ChunkMsg, MergeMsg, ScanMsg};
pub use optimizer::{optimize, optimize_fixed_split};
pub use orchestrator::{
    orchestrate, CellOutcome, MemoryBudget, OrchestratorOptions, PlanetReport, CHECKPOINT_VERSION,
};
pub use plan::{CoresetSpec, LogicalPlan, PhysicalPlan};
pub use queue::{QueueStats, SmartQueue};
pub use resources::Resources;
pub use watchdog::{Watchdog, WatchdogConfig, WatchdogSink};

/// Convenience prelude.
pub mod prelude {
    pub use crate::executor::{execute, execute_with_faults, EngineReport};
    pub use crate::fault::{FaultPlan, FaultPolicy};
    pub use crate::optimizer::{optimize, optimize_fixed_split};
    pub use crate::orchestrator::{orchestrate, OrchestratorOptions, PlanetReport};
    pub use crate::plan::{LogicalPlan, PhysicalPlan};
    pub use crate::resources::Resources;
}
