//! Per-worker state timelines for the multi-cell orchestrator.
//!
//! A [`Timeline`] holds one dwell-time accumulator per registered worker
//! lane. Every transition is stamped by the caller with the owning
//! recorder's monotonic clock (`Recorder::elapsed_us`), so timeline
//! entries, ledger records, and profiler spans all share one time base and
//! can be joined into a single run chronology.
//!
//! Lanes move through the states of [`WorkerState`]: the orchestrator's
//! worker loop records `idle` / `stealing` / `checkpoint` / `budget-wait`
//! directly, while the pipeline operators of the cell a worker runs record
//! `scan` / `partial` / `merge` on that worker's lane (the cell's context
//! carries it) as the cell flows through them. Same-state records coalesce,
//! so a lane counts genuine transitions only.
//!
//! [`Timeline::snapshot`] folds the lanes into a [`WorkerTimeline`]:
//! per-lane per-state dwell times, a busy/total utilization, and the
//! planet-level `wall_us` rollup — the **maximum** busy time over lanes
//! (per-thread-max, the same methodology as the profiler's `wall_us`
//! column), not the sum, so it reads as "wall clock the busiest worker
//! needed".
//!
//! Like every observability seam in this workspace, the timeline only
//! observes: attaching one must never change results, and code paths
//! without a recorder never touch it.

use crate::lock;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// The states a worker lane moves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkerState {
    /// Looking for work (own deque empty, nothing stolen yet).
    Idle,
    /// Executing a cell stolen from another worker's deque.
    Stealing,
    /// The bound cell is scanning its bucket.
    Scan,
    /// The bound cell is clustering chunks (partial k-means).
    Partial,
    /// The bound cell is merging partial centroids.
    Merge,
    /// The bound cell is compacting its coreset tree (coreset-mode runs:
    /// inserting chunk coresets and carrying same-level buckets upward).
    Compact,
    /// Persisting the finished cell's checkpoint.
    Checkpoint,
    /// Parked waiting for memory-budget headroom.
    BudgetWait,
}

impl WorkerState {
    /// Every state, in ring-chart legend order.
    pub const ALL: [WorkerState; 8] = [
        WorkerState::Idle,
        WorkerState::Stealing,
        WorkerState::Scan,
        WorkerState::Partial,
        WorkerState::Merge,
        WorkerState::Compact,
        WorkerState::Checkpoint,
        WorkerState::BudgetWait,
    ];

    /// Stable wire label (used in `worker.state` ledger events).
    pub fn as_str(self) -> &'static str {
        match self {
            WorkerState::Idle => "idle",
            WorkerState::Stealing => "stealing",
            WorkerState::Scan => "scan",
            WorkerState::Partial => "partial",
            WorkerState::Merge => "merge",
            WorkerState::Compact => "compact",
            WorkerState::Checkpoint => "checkpoint",
            WorkerState::BudgetWait => "budget-wait",
        }
    }

    /// Parses a wire label back into a state.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|st| st.as_str() == s)
    }

    /// True for states that count toward utilization (everything except
    /// waiting for work or for budget headroom).
    pub fn is_busy(self) -> bool {
        !matches!(self, WorkerState::Idle | WorkerState::BudgetWait)
    }

    fn idx(self) -> usize {
        Self::ALL.iter().position(|s| *s == self).expect("state in ALL")
    }
}

struct Lane {
    label: String,
    opened_us: u64,
    current: WorkerState,
    since_us: u64,
    last_us: u64,
    transitions: u64,
    state_us: [u64; WorkerState::ALL.len()],
}

impl Lane {
    fn new(label: String, ts_us: u64) -> Self {
        Self {
            label,
            opened_us: ts_us,
            current: WorkerState::Idle,
            since_us: ts_us,
            last_us: ts_us,
            transitions: 1,
            state_us: [0; WorkerState::ALL.len()],
        }
    }
}

/// Shared per-worker state timeline. See the [module docs](self).
#[derive(Default)]
pub struct Timeline {
    lanes: Mutex<Vec<Lane>>,
}

impl Timeline {
    /// A timeline with no lanes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a worker lane starting in `idle` at `ts_us`; returns its
    /// lane id.
    pub fn register(&self, label: &str, ts_us: u64) -> usize {
        let mut lanes = lock(&self.lanes);
        lanes.push(Lane::new(label.to_string(), ts_us));
        lanes.len() - 1
    }

    /// Number of registered lanes.
    pub fn lanes(&self) -> usize {
        lock(&self.lanes).len()
    }

    /// The label a lane was registered with.
    pub fn label(&self, lane: usize) -> Option<String> {
        lock(&self.lanes).get(lane).map(|l| l.label.clone())
    }

    /// Records `lane` entering `state` at `ts_us`. Same-state records
    /// coalesce; returns true only when a genuine transition was recorded.
    /// Timestamps are clamped monotonic per lane; unknown lanes are
    /// ignored.
    pub fn record(&self, lane: usize, state: WorkerState, ts_us: u64) -> bool {
        let mut lanes = lock(&self.lanes);
        let Some(l) = lanes.get_mut(lane) else { return false };
        let ts_us = ts_us.max(l.last_us);
        l.last_us = ts_us;
        if state == l.current {
            return false;
        }
        l.state_us[l.current.idx()] += ts_us - l.since_us;
        l.current = state;
        l.since_us = ts_us;
        l.transitions += 1;
        true
    }

    /// Folds every lane into a [`WorkerTimeline`] as of `now_us` (the
    /// open interval of each lane's current state is counted up to `now`).
    pub fn snapshot(&self, now_us: u64) -> WorkerTimeline {
        let lanes = lock(&self.lanes);
        let mut workers = Vec::with_capacity(lanes.len());
        let mut wall_us = 0u64;
        let mut min_open = u64::MAX;
        for l in lanes.iter() {
            let now = now_us.max(l.last_us);
            let mut state_us = l.state_us;
            state_us[l.current.idx()] += now - l.since_us;
            let busy_us: u64 =
                WorkerState::ALL.iter().filter(|s| s.is_busy()).map(|s| state_us[s.idx()]).sum();
            let total_us = now - l.opened_us;
            let utilization = if total_us == 0 { 0.0 } else { busy_us as f64 / total_us as f64 };
            wall_us = wall_us.max(busy_us);
            min_open = min_open.min(l.opened_us);
            workers.push(WorkerLaneReport {
                worker: l.label.clone(),
                current: l.current.as_str().to_string(),
                transitions: l.transitions,
                idle_us: state_us[WorkerState::Idle.idx()],
                stealing_us: state_us[WorkerState::Stealing.idx()],
                scan_us: state_us[WorkerState::Scan.idx()],
                partial_us: state_us[WorkerState::Partial.idx()],
                merge_us: state_us[WorkerState::Merge.idx()],
                compact_us: state_us[WorkerState::Compact.idx()],
                checkpoint_us: state_us[WorkerState::Checkpoint.idx()],
                budget_wait_us: state_us[WorkerState::BudgetWait.idx()],
                busy_us,
                total_us,
                utilization,
            });
        }
        let span_us = if workers.is_empty() { 0 } else { now_us.saturating_sub(min_open) };
        WorkerTimeline { workers, wall_us, span_us }
    }
}

impl std::fmt::Debug for Timeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timeline").field("lanes", &lock(&self.lanes).len()).finish()
    }
}

/// Aggregated per-worker dwell times of one lane. All times µs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkerLaneReport {
    /// Lane label (`"w0"`, `"w1"`, …).
    pub worker: String,
    /// State the lane was in at snapshot time.
    pub current: String,
    /// Genuine transitions recorded (coalesced records excluded).
    pub transitions: u64,
    /// Time spent idle (looking for work).
    pub idle_us: u64,
    /// Time spent on stolen cells.
    pub stealing_us: u64,
    /// Time spent in the scan phase of bound cells.
    pub scan_us: u64,
    /// Time spent in partial k-means of bound cells.
    pub partial_us: u64,
    /// Time spent merging bound cells.
    pub merge_us: u64,
    /// Time spent compacting coreset trees of bound cells (defaulted so
    /// pre-coreset reports still deserialize).
    #[serde(default)]
    pub compact_us: u64,
    /// Time spent writing checkpoints.
    pub checkpoint_us: u64,
    /// Time parked on the memory budget.
    pub budget_wait_us: u64,
    /// Total busy time (everything except idle and budget-wait).
    pub busy_us: u64,
    /// Lane lifetime at snapshot time.
    pub total_us: u64,
    /// `busy_us / total_us` in `[0, 1]`.
    pub utilization: f64,
}

/// Timeline rollup across every worker lane.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkerTimeline {
    /// Per-lane reports in registration order.
    pub workers: Vec<WorkerLaneReport>,
    /// Per-thread-max wall clock: the busy time of the busiest lane (µs).
    pub wall_us: u64,
    /// Observed span from the first lane registration to the snapshot (µs).
    pub span_us: u64,
}

impl WorkerTimeline {
    /// True when no lanes were ever registered.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_labels_round_trip() {
        for s in WorkerState::ALL {
            assert_eq!(WorkerState::parse(s.as_str()), Some(s));
        }
        assert_eq!(WorkerState::parse("nope"), None);
        assert!(!WorkerState::Idle.is_busy());
        assert!(!WorkerState::BudgetWait.is_busy());
        assert!(WorkerState::Partial.is_busy());
    }

    #[test]
    fn transitions_coalesce_and_accumulate_dwell_times() {
        let tl = Timeline::new();
        let w = tl.register("w0", 0);
        assert!(tl.record(w, WorkerState::Scan, 10));
        assert!(!tl.record(w, WorkerState::Scan, 20), "same state must coalesce");
        assert!(tl.record(w, WorkerState::Partial, 40));
        assert!(tl.record(w, WorkerState::Idle, 100));
        let snap = tl.snapshot(130);
        let lane = &snap.workers[0];
        assert_eq!(lane.idle_us, 10 + 30); // 0..10 opening idle + 100..130
        assert_eq!(lane.scan_us, 30); // 10..40
        assert_eq!(lane.partial_us, 60); // 40..100
        assert_eq!(lane.busy_us, 90);
        assert_eq!(lane.total_us, 130);
        assert!((lane.utilization - 90.0 / 130.0).abs() < 1e-12);
        assert_eq!(lane.transitions, 4); // idle, scan, partial, idle
        assert_eq!(lane.current, "idle");
        assert_eq!(snap.wall_us, 90);
        assert_eq!(snap.span_us, 130);
    }

    #[test]
    fn wall_rollup_is_per_thread_max_not_sum() {
        let tl = Timeline::new();
        let a = tl.register("w0", 0);
        let b = tl.register("w1", 0);
        tl.record(a, WorkerState::Partial, 0);
        tl.record(a, WorkerState::Idle, 100);
        tl.record(b, WorkerState::Merge, 0);
        tl.record(b, WorkerState::Idle, 60);
        let snap = tl.snapshot(100);
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.wall_us, 100, "max(100, 60), not 160");
    }

    #[test]
    fn timestamps_clamp_monotonic_per_lane() {
        let tl = Timeline::new();
        let w = tl.register("w0", 100);
        tl.record(w, WorkerState::Scan, 50); // behind the lane clock
        let snap = tl.snapshot(200);
        // The transition was clamped to ts 100, so idle dwell is 0.
        assert_eq!(snap.workers[0].idle_us, 0);
        assert_eq!(snap.workers[0].scan_us, 100);
    }

    #[test]
    fn worker_timeline_serializes_and_round_trips() {
        let tl = Timeline::new();
        let w = tl.register("w0", 0);
        tl.record(w, WorkerState::Checkpoint, 10);
        let snap = tl.snapshot(20);
        let json = serde_json::to_string(&snap).unwrap();
        let back: WorkerTimeline = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert!(!snap.is_empty());
        assert!(WorkerTimeline::default().is_empty());
    }
}
