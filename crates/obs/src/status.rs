//! Live planet-progress snapshots for the `/status` endpoint.
//!
//! The orchestrator publishes a fresh [`StatusSnapshot`] into a shared
//! [`StatusCell`] at every progress point (cell committed, budget change,
//! run open/close). A publish swaps one `Arc` pointer under a
//! never-held-long mutex and a read clones the `Arc`, so readers never
//! block the orchestrator and the orchestrator never blocks readers —
//! the HTTP exporter serves whatever snapshot is current without touching
//! orchestrator state.

use crate::lock;
use serde::Serialize;
use std::sync::{Arc, Mutex};

/// `/status` document schema version.
///
/// History: v1 = planet progress + worker lanes; v2 adds the optional
/// `coreset` block (anytime mid-stream clustering from the coreset tree).
pub const STATUS_SCHEMA_VERSION: u32 = 2;

/// Mid-stream clustering published by the coreset operator: the latest
/// anytime-query result plus the live shape of the merge-reduce tree.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct CoresetStatus {
    /// Cell index the query ran on.
    pub cell: u32,
    /// Tree depth (`max level + 1`).
    pub levels: u32,
    /// Live buckets (≤ `floor(log2(chunks)) + 1` without a window).
    pub live_buckets: usize,
    /// Total representative weight across live buckets.
    pub live_weight: f64,
    /// Raw point mass inserted into the tree so far.
    pub ingested_points: f64,
    /// Raw point mass of quarantined chunks that never reached the tree.
    pub lost_points: f64,
    /// Raw point mass evicted by the sliding window.
    pub expired_points: f64,
    /// Pairwise compactions performed so far.
    pub compactions: u64,
    /// Chunk coresets inserted so far.
    pub builds: u64,
    /// Anytime queries answered so far.
    pub queries: u64,
    /// `k` of the anytime clustering below.
    pub k: usize,
    /// Weighted MSE of the anytime clustering over the live union.
    pub mse: f64,
    /// Lloyd iterations the anytime query spent.
    pub iterations: usize,
    /// Input points (union size) the anytime query consumed — bounded by
    /// `live_buckets × coreset_size`.
    pub query_points: usize,
    /// The anytime centroids, one `dim`-length row per cluster.
    pub centroids: Vec<Vec<f64>>,
}

/// One worker's row in the `/status` document.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct WorkerStatus {
    /// Lane label (`"w0"`, …).
    pub worker: String,
    /// Current state wire label (`"partial"`, `"budget-wait"`, …).
    pub state: String,
    /// Busy/total utilization in `[0, 1]`.
    pub utilization: f64,
}

/// Planet progress as served by `/status`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StatusSnapshot {
    /// Document schema version ([`STATUS_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Run state: `"idle"`, `"running"`, `"done"`, `"interrupted"`, or
    /// `"failed"`.
    pub state: String,
    /// Cells in the plan.
    pub cells_total: usize,
    /// Cells committed (including resumed ones).
    pub cells_done: usize,
    /// Cells currently executing on a worker.
    pub cells_running: usize,
    /// Committed cells whose clustering was entirely lost.
    pub cells_lost: usize,
    /// Cells restored from checkpoints instead of executed.
    pub cells_resumed: usize,
    /// `Σw_expected` over committed cells.
    pub expected_points: f64,
    /// `Σw_received` over committed cells.
    pub received_points: f64,
    /// `Σw_lost` over committed cells.
    pub lost_points: f64,
    /// `received / expected` (1.0 while nothing is expected).
    pub mass_ratio: f64,
    /// Memory budget capacity, bytes.
    pub budget_cap_bytes: u64,
    /// Budget high-water mark so far, bytes.
    pub budget_peak_bytes: u64,
    /// Cells executed off another worker's deque so far.
    pub steals: u64,
    /// Run time at publish, µs on the recorder clock.
    pub elapsed_us: u64,
    /// Estimated time to completion from cell throughput so far, µs
    /// (0 while unknown).
    pub eta_us: u64,
    /// Per-worker state and utilization.
    pub workers: Vec<WorkerStatus>,
    /// Latest mid-stream coreset clustering, when a coreset-mode run has
    /// published one.
    pub coreset: Option<CoresetStatus>,
}

impl Default for StatusSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

impl StatusSnapshot {
    /// An empty `"idle"` snapshot.
    pub fn new() -> Self {
        Self {
            schema: STATUS_SCHEMA_VERSION,
            state: "idle".to_string(),
            cells_total: 0,
            cells_done: 0,
            cells_running: 0,
            cells_lost: 0,
            cells_resumed: 0,
            expected_points: 0.0,
            received_points: 0.0,
            lost_points: 0.0,
            mass_ratio: 1.0,
            budget_cap_bytes: 0,
            budget_peak_bytes: 0,
            steals: 0,
            elapsed_us: 0,
            eta_us: 0,
            workers: Vec::new(),
            coreset: None,
        }
    }
}

/// Shared slot holding the current [`StatusSnapshot`]. See the
/// [module docs](self) for the publish/read model.
pub struct StatusCell {
    snap: Mutex<Arc<StatusSnapshot>>,
    /// Published independently of the planet snapshot: the coreset operator
    /// runs inside the engine (not the orchestrator loop), so its updates
    /// must not race or overwrite progress publishes.
    coreset: Mutex<Option<Arc<CoresetStatus>>>,
}

impl Default for StatusCell {
    fn default() -> Self {
        Self::new()
    }
}

impl StatusCell {
    /// A cell holding an empty `"idle"` snapshot.
    pub fn new() -> Self {
        Self { snap: Mutex::new(Arc::new(StatusSnapshot::new())), coreset: Mutex::new(None) }
    }

    /// Publishes a new snapshot (single pointer swap).
    pub fn publish(&self, snap: StatusSnapshot) {
        *lock(&self.snap) = Arc::new(snap);
    }

    /// The current snapshot (single pointer clone).
    pub fn get(&self) -> Arc<StatusSnapshot> {
        Arc::clone(&lock(&self.snap))
    }

    /// Publishes a fresh mid-stream coreset clustering (pointer swap).
    pub fn publish_coreset(&self, status: CoresetStatus) {
        *lock(&self.coreset) = Some(Arc::new(status));
    }

    /// The latest coreset clustering, if any run published one.
    pub fn coreset(&self) -> Option<Arc<CoresetStatus>> {
        lock(&self.coreset).clone()
    }
}

impl std::fmt::Debug for StatusCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.get();
        f.debug_struct("StatusCell")
            .field("state", &snap.state)
            .field("cells_done", &snap.cells_done)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_and_get_swap_snapshots() {
        let cell = StatusCell::new();
        assert_eq!(cell.get().state, "idle");
        let before = cell.get();
        let mut snap = StatusSnapshot::new();
        snap.state = "running".into();
        snap.cells_done = 3;
        cell.publish(snap);
        // Readers holding the old Arc keep a consistent document.
        assert_eq!(before.state, "idle");
        assert_eq!(cell.get().cells_done, 3);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut snap = StatusSnapshot::new();
        snap.state = "running".into();
        snap.workers.push(WorkerStatus {
            worker: "w0".into(),
            state: "partial".into(),
            utilization: 0.75,
        });
        // `/status` readers parse the document, never a `StatusSnapshot`:
        // its JSON must read back as the tree it was printed from.
        let json = serde_json::to_string(&snap).unwrap();
        let back: serde::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap.to_value());
        let schema = back.get("schema");
        assert_eq!(schema, Some(&serde::Value::U64(STATUS_SCHEMA_VERSION.into())));
    }

    #[test]
    fn coreset_slot_is_independent_of_snapshot_publishes() {
        let cell = StatusCell::new();
        assert!(cell.coreset().is_none());
        cell.publish_coreset(CoresetStatus { cell: 3, live_buckets: 2, ..Default::default() });
        let mut snap = StatusSnapshot::new();
        snap.state = "running".into();
        cell.publish(snap);
        let cs = cell.coreset().expect("survives snapshot publishes");
        assert_eq!(cs.cell, 3);
        assert_eq!(cs.live_buckets, 2);
    }

    #[test]
    fn concurrent_publish_and_read_never_tear() {
        let cell = Arc::new(StatusCell::new());
        let writer = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for i in 0..1000usize {
                    let mut snap = StatusSnapshot::new();
                    snap.cells_done = i;
                    snap.cells_total = i;
                    cell.publish(snap);
                }
            })
        };
        for _ in 0..1000 {
            let snap = cell.get();
            assert_eq!(snap.cells_done, snap.cells_total, "snapshot torn");
        }
        writer.join().unwrap();
    }
}
