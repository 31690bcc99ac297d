//! Plain-data run reports.
//!
//! Everything here derives `Serialize`/`Deserialize` and round-trips
//! losslessly through `serde_json` (asserted by the integration tests):
//! floats are printed shortest-round-trip, `Duration` as `{secs, nanos}`.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Schema version stamped into every [`RunReport`].
///
/// v2 added the `phases` breakdown; v3 added fault accounting (the
/// top-level `degraded` flag, the `faults` counter block, and the per-cell
/// `expected_points`/`lost_points`/`lost_chunks`/`degraded` fields); v4
/// added the per-phase `wall_us` column (per-thread-max elapsed time); v5
/// added the optional `orchestrator` block of planet-level multi-cell
/// runs (scheduling, checkpoint and resume counters); v6 added the
/// optional `timeline` per-worker state rollup (utilization and
/// per-thread-max wall clock); v7 added the optional `coreset` block
/// (merge-reduce tree shape and mass accounting of coreset-mode runs) and
/// the timeline lanes' `compact_us` column.
/// The reader expects every key of the current version: older documents
/// are not parsed.
pub const SCHEMA_VERSION: u32 = 7;

/// Coreset-engine accounting for one run (schema v7): the aggregated shape
/// and mass audit of every cell's merge-reduce tree. `None` on classic
/// merge-path runs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CoresetReport {
    /// Cells that ran a coreset tree.
    pub trees: usize,
    /// Deepest tree (levels = max level + 1) across cells.
    pub max_levels: u32,
    /// Live buckets summed over cells at cell completion.
    pub live_buckets: usize,
    /// Pairwise compactions performed across cells.
    pub compactions: u64,
    /// Chunk coresets built across cells.
    pub builds: u64,
    /// Anytime queries answered across cells (including terminal merges).
    pub queries: u64,
    /// Total representative weight live at cell completion.
    pub live_weight: f64,
    /// Raw point mass ingested into trees.
    pub ingested_points: f64,
    /// Raw point mass quarantined before reaching a tree.
    pub lost_points: f64,
    /// Raw point mass evicted by sliding windows.
    pub expired_points: f64,
}

/// The kinds of fault a run books, in [`FaultReport`] field order. Each
/// kind is counted once per occurrence in three places that must agree:
/// its [`FaultReport`] field, the `kind` of a `fault` ledger event, and the
/// `fault_events_total{kind}` metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A scan read retried after a transient error.
    ScanRetry,
    /// A bucket (or bucket tail) abandoned after retries were exhausted.
    ScanFailure,
    /// A chunk whose payload failed validation.
    ChunkPoisoned,
    /// A chunk abandoned entirely; its mass is reported lost.
    ChunkQuarantined,
    /// A partial-worker panic caught and isolated.
    WorkerPanic,
    /// A chunk clustering re-run after a caught panic.
    ChunkRetry,
    /// An artificial queue-send stall injected by a fault plan.
    QueueStall,
    /// A cell merged with missing mass.
    CellDegraded,
}

impl FaultKind {
    /// Every kind, in [`FaultReport`] field order.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::ScanRetry,
        FaultKind::ScanFailure,
        FaultKind::ChunkPoisoned,
        FaultKind::ChunkQuarantined,
        FaultKind::WorkerPanic,
        FaultKind::ChunkRetry,
        FaultKind::QueueStall,
        FaultKind::CellDegraded,
    ];

    /// `(ledger kind, FaultReport field)` of each kind, indexed by kind.
    const NAMES: [(&'static str, &'static str); 8] = [
        ("scan_retry", "scan_retries"),
        ("scan_failure", "scan_failures"),
        ("chunk_poisoned", "chunks_poisoned"),
        ("chunk_quarantined", "chunks_quarantined"),
        ("worker_panic", "worker_panics"),
        ("chunk_retry", "chunk_retries"),
        ("queue_stall", "queue_stalls"),
        ("cell_degraded", "cells_degraded"),
    ];

    /// The `kind` field of the kind's `fault` ledger event, and its label in
    /// the `fault_events_total{kind}` family.
    pub fn kind(self) -> &'static str {
        Self::NAMES[self as usize].0
    }

    /// The name of the [`FaultReport`] field that counts the kind.
    pub fn field(self) -> &'static str {
        Self::NAMES[self as usize].1
    }

    /// The kind whose ledger string is `kind`, if any.
    pub fn from_kind(kind: &str) -> Option<FaultKind> {
        Self::ALL.into_iter().find(|k| k.kind() == kind)
    }
}

/// Fault-tolerance counters for one run (schema v3), one field per
/// [`FaultKind`]. All zero on a fault-free run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultReport {
    /// Scan read attempts that were retried after a transient error.
    pub scan_retries: u64,
    /// Buckets (or bucket tails) abandoned after retries were exhausted.
    pub scan_failures: u64,
    /// Chunks dropped because their payload failed validation (e.g.
    /// non-finite coordinates).
    pub chunks_poisoned: u64,
    /// Chunks abandoned entirely (poisoned, or crashed past the retry
    /// budget); their mass is reported lost.
    pub chunks_quarantined: u64,
    /// Partial-worker panics that were caught and isolated.
    pub worker_panics: u64,
    /// Chunk clusterings re-run after a caught panic.
    pub chunk_retries: u64,
    /// Artificial queue-send stalls injected by a fault plan.
    pub queue_stalls: u64,
    /// Cells merged with missing mass.
    pub cells_degraded: u64,
}

impl FaultReport {
    /// True when any counter is non-zero.
    pub fn any(&self) -> bool {
        *self != Self::default()
    }

    /// The counter of `kind`.
    pub fn count(mut self, kind: FaultKind) -> u64 {
        *self.count_mut(kind)
    }

    /// The counter of `kind`, for update.
    pub fn count_mut(&mut self, kind: FaultKind) -> &mut u64 {
        match kind {
            FaultKind::ScanRetry => &mut self.scan_retries,
            FaultKind::ScanFailure => &mut self.scan_failures,
            FaultKind::ChunkPoisoned => &mut self.chunks_poisoned,
            FaultKind::ChunkQuarantined => &mut self.chunks_quarantined,
            FaultKind::WorkerPanic => &mut self.worker_panics,
            FaultKind::ChunkRetry => &mut self.chunk_retries,
            FaultKind::QueueStall => &mut self.queue_stalls,
            FaultKind::CellDegraded => &mut self.cells_degraded,
        }
    }
}

/// A plain-data copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the finite buckets.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1` (last is +Inf).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

/// One named counter value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// One named gauge value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Gauge value.
    pub value: f64,
}

/// One named histogram snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// The histogram's state.
    pub histogram: HistogramSnapshot,
}

/// A point-in-time copy of a whole registry, sorted by name.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: Vec<CounterSample>,
    /// All gauges.
    pub gauges: Vec<GaugeSample>,
    /// All histograms.
    pub histograms: Vec<HistogramSample>,
}

/// One aggregated row of the span profiler's phase tree.
///
/// Produced by `Profiler::phase_rows`; `total_us`/`self_us` are summed
/// across threads, so on multi-clone runs they can exceed wall-clock time.
/// `wall_us` is the per-thread *maximum* instead — for a phase whose clones
/// run concurrently it approximates the phase's elapsed wall time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// `/`-joined span path, e.g. `"partial/assign"`.
    pub path: String,
    /// Times the span was entered.
    pub calls: u64,
    /// Total time inside the span, including children, summed over threads
    /// (µs).
    pub total_us: u64,
    /// Time not attributed to any child span, summed over threads (µs).
    pub self_us: u64,
    /// Maximum per-thread time inside the span (µs) — the phase's elapsed
    /// wall time when its threads run concurrently.
    pub wall_us: u64,
}

/// Per-operator-clone accounting with a busy-vs-blocked split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatorReport {
    /// Operator name (e.g. `"partial-kmeans"`).
    pub name: String,
    /// Clone index among clones of the same operator.
    pub clone_id: usize,
    /// Items consumed.
    pub items_in: u64,
    /// Items produced.
    pub items_out: u64,
    /// Time spent doing useful work.
    pub busy: Duration,
    /// Time spent blocked on queue sends/receives.
    pub blocked: Duration,
    /// Wall-clock lifetime of the clone.
    pub lifetime: Duration,
    /// `busy / lifetime`, clamped to `[0, 1]`.
    pub utilization: f64,
}

/// Per-queue accounting, including a depth histogram sampled at send time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueReport {
    /// Queue name (e.g. `"chunker→partial"`).
    pub name: String,
    /// Configured capacity.
    pub capacity: usize,
    /// Successful sends.
    pub sends: u64,
    /// Successful receives.
    pub recvs: u64,
    /// Sends that found the queue full (backpressure events).
    pub full_blocks: u64,
    /// Receives that found the queue empty.
    pub empty_blocks: u64,
    /// Total time producers spent blocked sending.
    pub blocked_send: Duration,
    /// Total time consumers spent blocked receiving.
    pub blocked_recv: Duration,
    /// Queue depth observed at each successful send.
    pub depth: HistogramSnapshot,
}

/// Per-chunk partial-k-means outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkReport {
    /// Chunk index within its cell.
    pub chunk: usize,
    /// Points in the chunk.
    pub points: usize,
    /// Best MSE over the restarts.
    pub best_mse: f64,
    /// Total Lloyd iterations across restarts.
    pub iterations: usize,
    /// Wall-clock time for the chunk.
    pub elapsed: Duration,
    /// Per-iteration MSE of the winning restart (monotonically
    /// non-increasing). Empty for passthrough/ECVQ chunks.
    pub mse_trajectory: Vec<f64>,
}

/// The merge phase of one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergeReport {
    /// Weighted centroids fed into the merge.
    pub input_centroids: usize,
    /// Error-per-mass of the merged clustering.
    pub epm: f64,
    /// Weighted MSE of the merged clustering.
    pub mse: f64,
    /// Lloyd iterations in the merge run.
    pub iterations: usize,
    /// Whether the merge run converged.
    pub converged: bool,
    /// Wall-clock time for the merge.
    pub elapsed: Duration,
}

/// Everything that happened to one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// Cell label (grid index, or `"in-memory"` for the core pipeline).
    pub cell: String,
    /// Points clustered in the cell.
    pub total_points: usize,
    /// Points the cell was expected to carry.
    pub expected_points: f64,
    /// Input mass lost to quarantined chunks or failed reads
    /// (`Σw_expected − Σw_received`).
    pub lost_points: f64,
    /// Chunks of this cell that were quarantined instead of merged.
    pub lost_chunks: usize,
    /// True when the cell was merged with missing mass.
    pub degraded: bool,
    /// Per-chunk outcomes, chunk order.
    pub chunks: Vec<ChunkReport>,
    /// The merge phase.
    pub merge: MergeReport,
}

/// Scheduling, checkpoint and resume accounting of an orchestrated
/// multi-cell run (schema v5). Absent from single-run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OrchestratorReport {
    /// Worker threads pulling cells off the work-stealing deques.
    pub jobs: usize,
    /// Cells in the plan.
    pub cells_total: usize,
    /// Cells restored from checkpoints instead of re-scanned.
    pub cells_resumed: usize,
    /// Cells executed through the pipeline this run.
    pub cells_executed: usize,
    /// Checkpoint files written this run.
    pub checkpoints_written: usize,
    /// Checkpoint files rejected (bad checksum/version/fingerprint) and
    /// re-scanned.
    pub checkpoints_invalid: usize,
    /// True when a kill drill stopped the run before every cell finished.
    pub interrupted: bool,
    /// High-water mark of the shared memory budget, bytes (0 = no budget).
    pub budget_peak_bytes: u64,
    /// Cells a worker stole from another worker's deque.
    pub steals: u64,
}

/// The top-level report for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Report schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Per-cell outcomes.
    pub cells: Vec<CellReport>,
    /// Per-operator-clone accounting (empty for in-process runs).
    pub operators: Vec<OperatorReport>,
    /// Per-queue accounting (empty for in-process runs).
    pub queues: Vec<QueueReport>,
    /// Snapshot of the recorder's metrics registry.
    pub metrics: MetricsSnapshot,
    /// Span-profiler phase breakdown (empty when no profiler was attached).
    pub phases: Vec<PhaseReport>,
    /// True when any cell was merged with missing mass.
    pub degraded: bool,
    /// Fault-tolerance counters (all zero for fault-free runs).
    pub faults: FaultReport,
    /// Planet-level orchestration accounting (`None` for single runs).
    pub orchestrator: Option<OrchestratorReport>,
    /// Per-worker state-timeline rollup (`None` when no timeline was
    /// attached).
    pub timeline: Option<crate::timeline::WorkerTimeline>,
    /// Coreset-engine rollup (`None` on classic merge-path runs).
    pub coreset: Option<CoresetReport>,
}

impl RunReport {
    /// An empty report with the current schema version.
    pub fn new() -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            elapsed: Duration::ZERO,
            cells: Vec::new(),
            operators: Vec::new(),
            queues: Vec::new(),
            metrics: MetricsSnapshot::default(),
            phases: Vec::new(),
            degraded: false,
            faults: FaultReport::default(),
            orchestrator: None,
            timeline: None,
            coreset: None,
        }
    }

    /// Total points across every cell.
    pub fn total_points(&self) -> usize {
        self.cells.iter().map(|c| c.total_points).sum()
    }
}

impl Default for RunReport {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            schema_version: SCHEMA_VERSION,
            elapsed: Duration::from_micros(12_345),
            cells: vec![CellReport {
                cell: "0".to_string(),
                total_points: 1000,
                expected_points: 1000.0,
                lost_points: 0.0,
                lost_chunks: 0,
                degraded: false,
                chunks: vec![ChunkReport {
                    chunk: 0,
                    points: 1000,
                    best_mse: 0.125,
                    iterations: 7,
                    elapsed: Duration::from_micros(431),
                    mse_trajectory: vec![0.5, 0.25, 0.125],
                }],
                merge: MergeReport {
                    input_centroids: 10,
                    epm: 0.02,
                    mse: 0.1,
                    iterations: 3,
                    converged: true,
                    elapsed: Duration::from_micros(99),
                },
            }],
            operators: vec![OperatorReport {
                name: "partial-kmeans".to_string(),
                clone_id: 1,
                items_in: 4,
                items_out: 4,
                busy: Duration::from_millis(3),
                blocked: Duration::from_millis(1),
                lifetime: Duration::from_millis(5),
                utilization: 0.6,
            }],
            queues: vec![QueueReport {
                name: "chunker→partial".to_string(),
                capacity: 8,
                sends: 4,
                recvs: 4,
                full_blocks: 1,
                empty_blocks: 2,
                blocked_send: Duration::from_micros(10),
                blocked_recv: Duration::from_micros(20),
                depth: HistogramSnapshot {
                    bounds: vec![0.0, 1.0],
                    counts: vec![2, 1, 1],
                    count: 4,
                    sum: 5.0,
                },
            }],
            metrics: MetricsSnapshot {
                counters: vec![CounterSample { name: "chunks_total".into(), value: 4 }],
                gauges: vec![GaugeSample { name: "depth".into(), value: 1.5 }],
                histograms: vec![HistogramSample {
                    name: "sizes".into(),
                    histogram: HistogramSnapshot {
                        bounds: vec![10.0],
                        counts: vec![1, 0],
                        count: 1,
                        sum: 3.0,
                    },
                }],
            },
            phases: vec![PhaseReport {
                path: "partial/assign".into(),
                calls: 7,
                total_us: 400,
                self_us: 350,
                wall_us: 380,
            }],
            degraded: false,
            faults: FaultReport::default(),
            orchestrator: None,
            timeline: None,
            coreset: None,
        }
    }

    #[test]
    fn coreset_block_round_trips() {
        let mut report = sample_report();
        report.coreset = Some(CoresetReport {
            trees: 2,
            max_levels: 5,
            live_buckets: 7,
            compactions: 13,
            builds: 20,
            queries: 6,
            live_weight: 48_000.0,
            ingested_points: 50_000.0,
            lost_points: 2_000.0,
            expired_points: 0.0,
        });
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.coreset.unwrap().compactions, 13);
    }

    #[test]
    fn orchestrator_block_round_trips() {
        let mut report = sample_report();
        report.orchestrator = Some(OrchestratorReport {
            jobs: 4,
            cells_total: 8,
            cells_resumed: 3,
            cells_executed: 5,
            checkpoints_written: 5,
            checkpoints_invalid: 1,
            interrupted: false,
            budget_peak_bytes: 1 << 20,
            steals: 2,
        });
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.orchestrator.unwrap().cells_resumed, 3);
    }

    #[test]
    fn run_report_round_trips_losslessly() {
        let report = sample_report();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn total_points_sums_cells() {
        let mut report = sample_report();
        report.cells.push(CellReport {
            cell: "1".to_string(),
            total_points: 250,
            expected_points: 250.0,
            lost_points: 0.0,
            lost_chunks: 0,
            degraded: false,
            chunks: Vec::new(),
            merge: MergeReport {
                input_centroids: 0,
                epm: 0.0,
                mse: 0.0,
                iterations: 0,
                converged: false,
                elapsed: Duration::ZERO,
            },
        });
        assert_eq!(report.total_points(), 1250);
    }

    #[test]
    fn fault_kinds_name_their_report_fields() {
        let mut seen = std::collections::HashSet::new();
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_kind(kind.kind()), Some(kind));
            assert!(seen.insert(kind.field()), "{kind:?} shares a field");
            let mut faults = FaultReport::default();
            *faults.count_mut(kind) = 7;
            assert_eq!(faults.count(kind), 7);
            let json = serde_json::to_string(&faults).unwrap();
            assert!(json.contains(&format!("\"{}\":7", kind.field())), "{kind:?}: {json}");
        }
        assert_eq!(FaultKind::from_kind("unknown"), None);
    }

    #[test]
    fn empty_report_has_schema_version() {
        let report = RunReport::new();
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.total_points(), 0);
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
