//! Multi-cell orchestration: work-stealing scheduling, a shared global
//! memory budget, and checkpoint/restart.
//!
//! The paper's pipeline clusters one grid cell at a time; the data
//! substrate defines all 64 800 1°×1° cells. This module is the first
//! layer that composes the pipeline, fault policy, ledger and mass
//! accounting *across* cells:
//!
//! * **Scheduling** — N cells are dealt round-robin onto per-worker
//!   deques; `jobs` workers pop their own queue front-first and steal from
//!   the back of other workers' queues when idle, so no cell starves and
//!   wall-clock tracks the slowest chain rather than the slowest worker.
//! * **Memory budget** — every cell admits its in-flight chunk footprint
//!   against a shared [`MemoryBudget`] before its pipeline starts and
//!   releases it after the merge; when the budget is exhausted workers
//!   block (backpressure) instead of over-committing memory.
//! * **Checkpoint/restart** — after a cell's merge, the merged partial
//!   plus its CellPlan mass accounting and fault counters are persisted to
//!   a versioned, checksummed checkpoint file. A killed run resumes by
//!   loading completed cells and re-scanning only the rest. Because every
//!   per-cell result is a pure function of `(bucket, plan, fault seed)`,
//!   a resumed run is bit-identical to an uninterrupted one — the
//!   equivalence suite in `tests/orchestrator_resume.rs` enforces this.
//!
//! ## Checkpoint file format
//!
//! Two JSON lines, mirroring the ledger's versioned JSONL convention:
//!
//! ```text
//! {"checkpoint":1,"fingerprint":"…16 hex…","checksum":"…16 hex…","input":"cell_090_180.gb"}
//! {"clustering":{…},"faults":{…},"degraded":false,"elapsed":{…}}
//! ```
//!
//! The header carries the format version, an FNV-1a fingerprint of every
//! plan knob that affects results, and an FNV-1a checksum of the payload
//! line. Unknown header or payload fields are ignored on load (forward
//! compatible, like the ledger); any mismatch — version, fingerprint,
//! input name, checksum, truncation, parse failure — invalidates the file
//! and the cell is silently re-scanned, never a panic.

use crate::error::{EngineError, Result};
use crate::executor::{cell_report, run_pipeline};
use crate::fault::{FaultContext, FaultPlan};
use crate::item::CellClustering;
use crate::ops::tail::{note_cell_close, CellClose};
use crate::ops::ChunkPolicy;
use crate::plan::{CoresetSpec, PhysicalPlan};
use pmkm_data::bucket::fnv1a;
use pmkm_obs::{
    lock, FaultKind, FaultReport, OrchestratorReport, Recorder, RunReport, StatusCell,
    StatusSnapshot, WorkerState,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Version stamped into every checkpoint file header. Readers reject
/// files from a *newer* version (re-scan, not panic); older readers skip
/// unknown fields, so additive evolution does not need a bump.
pub const CHECKPOINT_VERSION: u32 = 1;

/// How the orchestrator runs a batch of cells.
#[derive(Debug, Clone, Default)]
pub struct OrchestratorOptions {
    /// Worker threads pulling cells off the work-stealing deques (≥ 1;
    /// `0` is treated as 1).
    pub jobs: usize,
    /// Global memory budget in bytes shared by all in-flight cells; `None`
    /// admits everything. Must be at least the largest single cell's
    /// footprint or [`orchestrate`] rejects the plan.
    pub budget_bytes: Option<usize>,
    /// Directory for per-cell checkpoint files; `None` disables
    /// checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Load valid checkpoints from `checkpoint_dir` before scheduling and
    /// re-scan only the cells without one.
    pub resume: bool,
    /// Chaos-drill hook: simulate the process dying immediately after the
    /// k-th checkpoint write. Scheduling stops, in-flight cells are
    /// discarded (their checkpoint was never written) and the returned
    /// report is marked `interrupted`.
    pub kill_after_checkpoints: Option<usize>,
    /// Live-progress slot for the `/status` endpoint: the orchestrator
    /// publishes a fresh [`StatusSnapshot`] at run open, every cell
    /// commit, and run close. `None` skips publishing entirely.
    pub status: Option<Arc<StatusCell>>,
}

impl OrchestratorOptions {
    /// Options with `jobs` workers and everything else off.
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1), ..Self::default() }
    }

    /// Sets the shared memory budget.
    #[must_use]
    pub fn with_budget(mut self, bytes: usize) -> Self {
        self.budget_bytes = Some(bytes);
        self
    }

    /// Enables checkpointing into `dir`.
    #[must_use]
    pub fn with_checkpoints(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Enables resume-from-checkpoint.
    #[must_use]
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Arms the kill-after-k-checkpoints chaos drill.
    #[must_use]
    pub fn kill_after(mut self, checkpoints: usize) -> Self {
        self.kill_after_checkpoints = Some(checkpoints);
        self
    }

    /// Publishes live progress snapshots into `status` (the `/status`
    /// endpoint's source).
    #[must_use]
    pub fn with_status(mut self, status: Arc<StatusCell>) -> Self {
        self.status = Some(status);
        self
    }
}

/// A shared byte budget with blocking admission — the backpressure
/// primitive cells admit their chunk footprint against.
#[derive(Debug)]
pub struct MemoryBudget {
    cap: usize,
    state: Mutex<BudgetState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct BudgetState {
    in_use: usize,
    peak: usize,
}

impl MemoryBudget {
    /// A budget of `cap` bytes.
    pub fn new(cap: usize) -> Self {
        Self { cap, state: Mutex::new(BudgetState::default()), cv: Condvar::new() }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Blocks until `bytes` fit under the cap, then reserves them. A
    /// request larger than the whole budget is clamped so a mis-sized
    /// caller stalls instead of deadlocking (orchestrate validates sizes
    /// up front, so this clamp never fires there).
    pub fn acquire(&self, bytes: usize) {
        let bytes = bytes.min(self.cap);
        let mut st = self.state.lock().expect("budget lock poisoned");
        while st.in_use + bytes > self.cap {
            st = self.cv.wait(st).expect("budget lock poisoned");
        }
        st.in_use += bytes;
        st.peak = st.peak.max(st.in_use);
    }

    /// Returns a reservation.
    pub fn release(&self, bytes: usize) {
        let bytes = bytes.min(self.cap);
        let mut st = self.state.lock().expect("budget lock poisoned");
        st.in_use = st.in_use.saturating_sub(bytes);
        drop(st);
        self.cv.notify_all();
    }

    /// High-water mark of concurrent reservations (the "never exceeded"
    /// witness: `peak() <= capacity()` by construction, asserted in tests).
    pub fn peak(&self) -> usize {
        self.state.lock().expect("budget lock poisoned").peak
    }
}

/// What one cell contributed to the planet run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Position of the cell's bucket in the plan's input list — the
    /// canonical, completion-order-independent report ordering.
    pub input: usize,
    /// The bucket path.
    pub path: PathBuf,
    /// The merged clustering; `None` when the tolerant policy lost the
    /// whole cell.
    pub clustering: Option<CellClustering>,
    /// Fault counters of this cell's pipeline run.
    pub faults: FaultReport,
    /// True when the cell lost mass.
    pub degraded: bool,
    /// Wall time of the cell's pipeline (zero for resumed cells).
    pub elapsed: Duration,
    /// True when the outcome was loaded from a checkpoint instead of
    /// executed.
    pub resumed: bool,
}

/// The serialized slice of a [`CellOutcome`] — everything resume needs to
/// reproduce the cell's contribution bit-for-bit, including its fault
/// counters so the planet-level [`FaultReport`] matches an uninterrupted
/// run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CheckpointPayload {
    clustering: Option<CellClustering>,
    faults: FaultReport,
    degraded: bool,
    elapsed: Duration,
}

/// First line of a checkpoint file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CheckpointHeader {
    /// Format version ([`CHECKPOINT_VERSION`]).
    checkpoint: u32,
    /// FNV-1a over the result-affecting plan knobs, 16 hex digits.
    fingerprint: String,
    /// FNV-1a over the payload line's bytes, 16 hex digits.
    checksum: String,
    /// Bucket file name, as a paired-to-the-wrong-cell guard.
    input: String,
}

/// Planet-level report of an orchestrated run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanetReport {
    /// Worker threads the run was scheduled with.
    pub jobs: usize,
    /// Per-cell outcomes in input order, resumed and executed alike.
    /// Cells skipped by a kill are absent.
    pub cells: Vec<CellOutcome>,
    /// Fault counters summed across every cell (checkpointed counters for
    /// resumed cells).
    pub faults: FaultReport,
    /// True when any cell lost mass.
    pub degraded: bool,
    /// End-to-end wall time of the orchestrated run.
    pub elapsed: Duration,
    /// Cells in the plan.
    pub cells_total: usize,
    /// Cells restored from checkpoints.
    pub cells_resumed: usize,
    /// Cells executed through the pipeline this run.
    pub cells_executed: usize,
    /// Checkpoint files detected as corrupt/stale and re-scanned.
    pub checkpoints_invalid: usize,
    /// Checkpoint files written this run.
    pub checkpoints_written: usize,
    /// Stale checkpoint files (foreign bucket or outdated fingerprint)
    /// garbage-collected after the run completed cleanly.
    pub checkpoints_pruned: usize,
    /// True when the kill-after-k drill stopped the run early.
    pub interrupted: bool,
    /// High-water mark of the shared memory budget (0 without a budget).
    pub budget_peak: usize,
    /// Cells a worker stole from another worker's deque.
    pub steals: u64,
}

impl PlanetReport {
    /// Sum of bucket-promised points over all reported cells.
    pub fn expected_points(&self) -> f64 {
        self.clusterings().map(|c| c.expected_points).sum()
    }

    /// Sum of mass lost to faults over all reported cells.
    pub fn lost_points(&self) -> f64 {
        self.clusterings().map(|c| c.lost_points).sum()
    }

    /// Sum of mass that reached the merges (`Σ cluster_weights`).
    pub fn received_points(&self) -> f64 {
        self.clusterings().map(|c| c.output.cluster_weights.iter().sum::<f64>()).sum()
    }

    /// Every cell clustering, in input order.
    pub fn clusterings(&self) -> impl Iterator<Item = &CellClustering> {
        self.cells.iter().filter_map(|o| o.clustering.as_ref())
    }

    /// Rolls the per-cell outcomes into the observability layer's
    /// [`RunReport`] (schema v5's `orchestrator` block). Cell rows are
    /// sorted by cell index, matching the single-run executor.
    pub fn run_report(&self, rec: Option<&Recorder>) -> RunReport {
        let mut clusterings: Vec<&CellClustering> = self.clusterings().collect();
        clusterings.sort_by_key(|c| c.cell.index());
        RunReport {
            elapsed: self.elapsed,
            cells: clusterings.into_iter().map(cell_report).collect(),
            metrics: rec.map(|r| r.registry().snapshot()).unwrap_or_default(),
            phases: rec.map(|r| r.phase_rows()).unwrap_or_default(),
            degraded: self.degraded,
            faults: self.faults,
            orchestrator: Some(OrchestratorReport {
                jobs: self.jobs,
                cells_total: self.cells_total,
                cells_resumed: self.cells_resumed,
                cells_executed: self.cells_executed,
                checkpoints_written: self.checkpoints_written,
                checkpoints_invalid: self.checkpoints_invalid,
                interrupted: self.interrupted,
                budget_peak_bytes: self.budget_peak as u64,
                steals: self.steals,
            }),
            timeline: rec
                .and_then(|r| r.timeline().map(|tl| tl.snapshot(r.elapsed_us())))
                .filter(|tl| !tl.is_empty()),
            coreset: crate::executor::coreset_report(self.clusterings()),
            ..RunReport::new()
        }
    }

    /// Recomputes the executed-cell count from the recorded outcomes (the
    /// kill drill may have discarded in-flight cells).
    fn finalize(mut self) -> Self {
        self.cells_executed = self.cells.iter().filter(|o| !o.resumed).count();
        self
    }
}

/// Runs every input cell of `plan` through the pipeline under `opts`,
/// concurrently, and rolls the results into a [`PlanetReport`].
///
/// Each cell runs as its own single-bucket pipeline on the worker's thread
/// — its partial step on a pool when the plan has more than one partial
/// clone — so per-cell
/// results are bit-identical to a serial `execute` loop regardless of
/// `jobs`, completion order, or whether the cell was restored from a
/// checkpoint.
pub fn orchestrate(
    plan: &PhysicalPlan,
    opts: &OrchestratorOptions,
    rec: Option<Arc<Recorder>>,
    fault_plan: Option<FaultPlan>,
) -> Result<PlanetReport> {
    plan.validate()?;
    let started = Instant::now();
    let inputs = &plan.logical.inputs;
    let n = inputs.len();
    let jobs = opts.jobs.max(1);
    let fingerprint = plan_fingerprint(plan, fault_plan.as_ref());

    // Per-cell admission cost against the shared budget: the cell's
    // in-flight chunk footprint (one chunk per partial clone, plus the
    // chunker's build buffer and the merge's gathered centroids). The
    // same header read yields each cell's grid index, which the timeline
    // uses to route per-cell pipeline states onto the owning worker lane.
    let mut costs: Vec<usize> = Vec::with_capacity(n);
    let mut cell_ids: Vec<Option<u32>> = Vec::with_capacity(n);
    for p in inputs {
        // `probe` reads the shared 32-byte header prefix, so GB01 buckets
        // and GB02 block containers are admitted alike.
        match pmkm_data::probe(p) {
            Ok(info) => {
                cell_ids.push(Some(info.cell.index()));
                costs.push(cell_cost(plan, info.dim));
            }
            // Unreadable header: admit for free and let the pipeline
            // surface the proper scan error / tolerant abandonment.
            Err(_) => {
                cell_ids.push(None);
                costs.push(0);
            }
        }
    }
    let budget = match opts.budget_bytes {
        Some(cap) => {
            if let Some((i, &worst)) = costs.iter().enumerate().max_by_key(|(_, &c)| c) {
                if worst > cap {
                    return Err(EngineError::InvalidPlan(format!(
                        "memory budget of {cap} B cannot admit cell {} ({} B in-flight)",
                        inputs[i].display(),
                        worst
                    )));
                }
            }
            Some(MemoryBudget::new(cap))
        }
        None => None,
    };

    // Resume: restore completed cells, queue the rest.
    let mut outcomes: Vec<Option<CellOutcome>> = (0..n).map(|_| None).collect();
    let mut pending: Vec<usize> = Vec::new();
    let mut invalid = 0usize;
    if opts.resume {
        if let Some(dir) = &opts.checkpoint_dir {
            for (i, path) in inputs.iter().enumerate() {
                match load_checkpoint(dir, path, fingerprint) {
                    CheckpointState::Loaded(p) => {
                        outcomes[i] = Some(CellOutcome {
                            input: i,
                            path: path.clone(),
                            clustering: p.clustering,
                            faults: p.faults,
                            degraded: p.degraded,
                            elapsed: p.elapsed,
                            resumed: true,
                        });
                    }
                    CheckpointState::Invalid => {
                        invalid += 1;
                        pending.push(i);
                    }
                    CheckpointState::Missing => pending.push(i),
                }
            }
        } else {
            pending = (0..n).collect();
        }
    } else {
        pending = (0..n).collect();
    }
    let resumed = n - pending.len();

    if let Some(rec) = rec.as_deref() {
        rec.event(
            "run.open",
            &[
                ("cells", n.into()),
                ("jobs", jobs.into()),
                ("partial_clones", plan.partial_clones.into()),
            ],
        );
        if opts.resume {
            rec.event(
                "run.resume",
                &[
                    ("cells_resumed", resumed.into()),
                    ("cells_pending", pending.len().into()),
                    ("checkpoints_invalid", invalid.into()),
                ],
            );
            // Re-announce each restored cell so a resumed run's ledger
            // still rolls up the full per-cell table and mass audit, and
            // `/metrics` reports `Σw_received / Σw_expected` over the
            // *whole* run, resumed cells included.
            for o in outcomes.iter().flatten() {
                if let Some(c) = &o.clustering {
                    note_cell_close(
                        Some(rec),
                        &CellClose {
                            cell: c.cell.index(),
                            chunks: c.chunks.len(),
                            expected_points: c.expected_points,
                            lost_points: c.lost_points,
                            lost_chunks: c.lost_chunks,
                            degraded: c.degraded,
                            mse: c.output.mse,
                            epm: c.output.epm,
                            resumed: true,
                        },
                    );
                }
            }
        }
    }

    // Deal pending cells round-robin onto the per-worker deques.
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for (pos, &i) in pending.iter().enumerate() {
        lock(&queues[pos % jobs]).push_back(i);
    }

    // One timeline lane per worker (no-ops when no timeline is attached).
    let lanes: Vec<Option<usize>> = (0..jobs)
        .map(|w| rec.as_deref().and_then(|r| r.register_worker(&format!("w{w}"))))
        .collect();

    // Coreset runs report their anytime clustering on /status: route the
    // status cell into the tail unless the caller already wired a probe of
    // their own.
    let coreset = plan.coreset.clone().map(|mut spec| {
        if spec.probe.is_none() {
            spec.probe = opts.status.clone();
        }
        spec
    });

    let shared = Shared {
        plan,
        coreset,
        ctx: FaultContext { rec: rec.clone(), ..FaultContext::new(fault_plan, plan.fault_policy) },
        queues,
        costs,
        cell_ids,
        budget,
        outcomes: Mutex::new(outcomes),
        first_err: Mutex::new(None),
        kill: AtomicBool::new(false),
        interrupted: AtomicBool::new(false),
        ckpt_written: Mutex::new(0),
        steals: AtomicU64::new(0),
        running: AtomicUsize::new(0),
        checkpoint_dir: opts.checkpoint_dir.clone(),
        kill_after: opts.kill_after_checkpoints,
        fingerprint,
        lanes,
        status: opts.status.clone(),
        started,
        cells_total: n,
    };
    shared.publish_status("running");

    let panicked = std::thread::scope(|s| {
        let shared = &shared;
        let handles: Vec<_> = (0..jobs).map(|w| s.spawn(move || worker(w, shared))).collect();
        // Join every worker, not just up to the first that panicked.
        let mut panicked = false;
        for h in handles {
            panicked |= h.join().is_err();
        }
        panicked
    });
    if panicked {
        return Err(EngineError::OperatorPanic("orchestrator worker".into()));
    }

    if let Some(e) = lock(&shared.first_err).take() {
        shared.publish_status("failed");
        return Err(e);
    }
    let interrupted = shared.interrupted.load(Ordering::Relaxed);
    shared.publish_status(if interrupted { "interrupted" } else { "done" });

    // After a clean, uninterrupted run, prune checkpoint files the plan
    // can no longer use (foreign buckets, outdated fingerprints); the
    // current run's own checkpoints are kept so a re-run still resumes.
    let mut checkpoints_pruned = 0usize;
    if !interrupted {
        if let Some(dir) = &opts.checkpoint_dir {
            checkpoints_pruned = gc_checkpoints(dir, inputs, fingerprint);
            if checkpoints_pruned > 0 {
                if let Some(rec) = rec.as_deref() {
                    rec.event("checkpoint.gc", &[("removed", checkpoints_pruned.into())]);
                }
            }
        }
    }

    let cells: Vec<CellOutcome> = lock(&shared.outcomes).drain(..).flatten().collect();
    let mut faults = FaultReport::default();
    for o in &cells {
        add_faults(&mut faults, &o.faults);
    }
    let degraded = cells.iter().any(|o| o.degraded);
    let checkpoints_written =
        if opts.checkpoint_dir.is_some() { *lock(&shared.ckpt_written) } else { 0 };
    let elapsed = started.elapsed();
    if let Some(rec) = rec.as_deref() {
        pmkm_obs::emit_phase_events(rec);
        rec.event(
            "run.close",
            &[
                ("elapsed_us", (elapsed.as_micros() as u64).into()),
                ("cells", cells.len().into()),
                ("degraded", degraded.into()),
            ],
        );
        rec.flush();
    }
    Ok(PlanetReport {
        jobs,
        cells_executed: 0, // filled in by finalize() from the outcomes
        cells,
        faults,
        degraded,
        elapsed,
        cells_total: n,
        cells_resumed: resumed,
        checkpoints_invalid: invalid,
        checkpoints_written,
        checkpoints_pruned,
        interrupted,
        budget_peak: shared.budget.as_ref().map(MemoryBudget::peak).unwrap_or(0),
        steals: shared.steals.load(Ordering::Relaxed),
    }
    .finalize())
}

struct Shared<'a> {
    plan: &'a PhysicalPlan,
    /// The plan's coreset spec with the run's status probe attached.
    coreset: Option<CoresetSpec>,
    /// Recorder, injection schedule and policy of the run; every cell runs
    /// under a copy with counters of its own.
    ctx: FaultContext,
    queues: Vec<Mutex<VecDeque<usize>>>,
    costs: Vec<usize>,
    cell_ids: Vec<Option<u32>>,
    budget: Option<MemoryBudget>,
    outcomes: Mutex<Vec<Option<CellOutcome>>>,
    first_err: Mutex<Option<EngineError>>,
    kill: AtomicBool,
    interrupted: AtomicBool,
    ckpt_written: Mutex<usize>,
    steals: AtomicU64,
    running: AtomicUsize,
    checkpoint_dir: Option<PathBuf>,
    kill_after: Option<usize>,
    fingerprint: u64,
    lanes: Vec<Option<usize>>,
    status: Option<Arc<StatusCell>>,
    started: Instant,
    cells_total: usize,
}

impl Shared<'_> {
    /// Records worker `w`'s state on its timeline lane (no-op without one).
    fn set_state(&self, w: usize, state: WorkerState) {
        if let (Some(rec), Some(&Some(lane))) = (self.ctx.rec(), self.lanes.get(w)) {
            rec.worker_state(lane, state);
        }
    }

    /// Routes cell `i`'s pipeline states (scan/partial/merge) onto worker
    /// `w`'s lane for the duration of the cell's run.
    fn bind_cell(&self, w: usize, i: usize) {
        if let (Some(rec), Some(&Some(lane)), Some(&Some(cell))) =
            (self.ctx.rec(), self.lanes.get(w), self.cell_ids.get(i))
        {
            if let Some(tl) = rec.timeline() {
                tl.bind_cell(cell, lane);
            }
        }
    }

    fn unbind_cell(&self, i: usize) {
        if let (Some(rec), Some(&Some(cell))) = (self.ctx.rec(), self.cell_ids.get(i)) {
            if let Some(tl) = rec.timeline() {
                tl.unbind_cell(cell);
            }
        }
    }

    /// Publishes a fresh [`StatusSnapshot`] computed from the committed
    /// outcomes (no-op without a status cell). Mass numbers are the same
    /// sums [`PlanetReport`] reports, so the final snapshot matches the
    /// run's report.
    fn publish_status(&self, state: &str) {
        let Some(status) = &self.status else { return };
        let mut snap = StatusSnapshot::new();
        snap.state = state.to_string();
        snap.cells_total = self.cells_total;
        {
            let outcomes = lock(&self.outcomes);
            for o in outcomes.iter().flatten() {
                snap.cells_done += 1;
                if o.resumed {
                    snap.cells_resumed += 1;
                }
                match &o.clustering {
                    Some(c) => {
                        snap.expected_points += c.expected_points;
                        snap.lost_points += c.lost_points;
                        snap.received_points += c.output.cluster_weights.iter().sum::<f64>();
                    }
                    None => snap.cells_lost += 1,
                }
            }
        }
        snap.mass_ratio = if snap.expected_points > 0.0 {
            snap.received_points / snap.expected_points
        } else {
            1.0
        };
        snap.cells_running = self.running.load(Ordering::Relaxed);
        if let Some(b) = &self.budget {
            snap.budget_cap_bytes = b.capacity() as u64;
            snap.budget_peak_bytes = b.peak() as u64;
        }
        snap.steals = self.steals.load(Ordering::Relaxed);
        snap.elapsed_us = match self.ctx.rec() {
            // The recorder clock keeps /status consistent with the
            // timeline and the ledger; without one, the run clock.
            Some(rec) => rec.elapsed_us(),
            None => self.started.elapsed().as_micros() as u64,
        };
        // ETA from cell-completion throughput: cells executed this run
        // over elapsed time (resumed cells restore instantly and would
        // skew the rate).
        let executed = snap.cells_done - snap.cells_resumed;
        let remaining = self.cells_total.saturating_sub(snap.cells_done);
        if executed > 0 && remaining > 0 {
            snap.eta_us = snap.elapsed_us * remaining as u64 / executed as u64;
        }
        if let Some(tl) = self.ctx.rec().and_then(Recorder::timeline) {
            snap.workers = tl
                .snapshot(snap.elapsed_us)
                .workers
                .into_iter()
                .map(|lane| pmkm_obs::WorkerStatus {
                    worker: lane.worker,
                    state: lane.current,
                    utilization: lane.utilization,
                })
                .collect();
        }
        status.publish(snap);
    }
}

/// Worker `w`'s next cell and whether it was stolen: its own deque
/// front-first, else the back of another worker's (`before_steal` runs
/// between the two). The own deque's lock is released before a victim's is
/// taken: two workers going idle together would otherwise each hold their
/// own deque while waiting for the other's, and the run would never end.
fn take_task(
    queues: &[Mutex<VecDeque<usize>>],
    w: usize,
    before_steal: impl FnOnce(),
) -> Option<(usize, bool)> {
    let own = lock(&queues[w]).pop_front();
    if let Some(i) = own {
        return Some((i, false));
    }
    before_steal();
    let jobs = queues.len();
    (1..jobs).find_map(|d| lock(&queues[(w + d) % jobs]).pop_back()).map(|i| (i, true))
}

fn worker(w: usize, shared: &Shared<'_>) {
    loop {
        if shared.kill.load(Ordering::Relaxed) {
            shared.set_state(w, WorkerState::Idle);
            return;
        }
        let task = take_task(&shared.queues, w, || shared.set_state(w, WorkerState::Stealing));
        let Some((i, stolen)) = task else {
            shared.set_state(w, WorkerState::Idle);
            return;
        };
        if stolen {
            shared.steals.fetch_add(1, Ordering::Relaxed);
        }

        let cost = shared.costs[i];
        if let Some(b) = &shared.budget {
            shared.set_state(w, WorkerState::BudgetWait);
            b.acquire(cost);
            if shared.kill.load(Ordering::Relaxed) {
                b.release(cost);
                shared.set_state(w, WorkerState::Idle);
                return;
            }
        }
        // The cell's own pipeline states (scan → partial → merge) land on
        // this worker's lane via the binding.
        shared.bind_cell(w, i);
        shared.running.fetch_add(1, Ordering::Relaxed);
        let res = run_one_cell(shared, i);
        shared.running.fetch_sub(1, Ordering::Relaxed);
        shared.unbind_cell(i);
        if let Some(b) = &shared.budget {
            b.release(cost);
        }
        match res {
            Err(e) => {
                let mut err = lock(&shared.first_err);
                if err.is_none() {
                    *err = Some(e);
                }
                shared.kill.store(true, Ordering::Relaxed);
                shared.set_state(w, WorkerState::Idle);
                return;
            }
            Ok(outcome) => {
                // Checkpoint + commit atomically with the kill check: a
                // cell whose checkpoint was not written before the "kill"
                // is treated as died-in-flight and discarded, exactly what
                // a real process death would leave behind.
                let mut written = lock(&shared.ckpt_written);
                if shared.kill.load(Ordering::Relaxed) {
                    shared.set_state(w, WorkerState::Idle);
                    return;
                }
                if let Some(dir) = &shared.checkpoint_dir {
                    shared.set_state(w, WorkerState::Checkpoint);
                    match write_checkpoint(dir, shared.fingerprint, &outcome) {
                        Ok(bytes) => {
                            *written += 1;
                            if let Some(rec) = shared.ctx.rec() {
                                let cell = outcome
                                    .clustering
                                    .as_ref()
                                    .map(|c| c.cell.index().to_string())
                                    .unwrap_or_else(|| file_name(&outcome.path));
                                rec.event(
                                    "cell.checkpoint",
                                    &[
                                        ("cell", cell.into()),
                                        ("seq", (*written as u64).into()),
                                        ("bytes", (bytes as u64).into()),
                                    ],
                                );
                            }
                        }
                        Err(e) => {
                            drop(written);
                            let mut err = lock(&shared.first_err);
                            if err.is_none() {
                                *err = Some(e);
                            }
                            shared.kill.store(true, Ordering::Relaxed);
                            shared.set_state(w, WorkerState::Idle);
                            return;
                        }
                    }
                } else {
                    *written += 1;
                }
                if shared.kill_after == Some(*written) {
                    shared.kill.store(true, Ordering::Relaxed);
                    shared.interrupted.store(true, Ordering::Relaxed);
                }
                drop(written);
                lock(&shared.outcomes)[i] = Some(outcome);
                shared.set_state(w, WorkerState::Idle);
                shared.publish_status("running");
            }
        }
    }
}

fn run_one_cell(shared: &Shared<'_>, i: usize) -> Result<CellOutcome> {
    let plan = shared.plan;
    let inputs = std::slice::from_ref(&plan.logical.inputs[i]);
    // Fresh counters per cell: they become the cell's own fault report.
    let ctx = FaultContext { counters: Arc::default(), ..shared.ctx.clone() };
    let report = run_pipeline(plan, inputs, shared.coreset.as_ref(), &ctx)?;
    Ok(CellOutcome {
        input: i,
        path: inputs[0].clone(),
        clustering: report.cells.into_iter().next(),
        faults: report.faults,
        degraded: report.degraded,
        elapsed: report.elapsed,
        resumed: false,
    })
}

/// Per-point Lloyd scratch a partial clone holds at most while it clusters
/// a chunk: the running restart's assignment (4 B), `d²` (8 B), Hamerly
/// lower bound (8 B) and entry in the `u32` list of undecided points
/// (4 B), an observed run's copy of the previous assignments (4 B), and
/// the best restart so far's assignment, which best-of-R keeps while the
/// next restart runs (4 B).
const LLOYD_SCRATCH_PER_POINT: usize = 32;

/// In-flight bytes of one cell: a chunk in each of the partial pool's
/// workers, one in its queue and one the chunker builds, plus each
/// worker's per-point Lloyd scratch for its chunk — a bound the driver
/// keeps by construction. Unbooked: the scan's batch and prefetched block,
/// the tail's summaries and the per-centroid Lloyd buffers (`O(k · dim)`).
/// Saturates, since the chunk budget comes from the command line: a cost
/// too large to count is one no budget can admit.
fn cell_cost(plan: &PhysicalPlan, dim: usize) -> usize {
    let row = dim.saturating_mul(size_of::<f64>());
    let (chunk_bytes, chunk_points) = match plan.chunk_policy {
        ChunkPolicy::MemoryBudget { bytes } => (bytes, bytes / row.max(1)),
        ChunkPolicy::FixedPoints(p) => (p.saturating_mul(row), p),
    };
    let clones = plan.partial_clones;
    let scratch = clones.saturating_mul(chunk_points).saturating_mul(LLOYD_SCRATCH_PER_POINT);
    chunk_bytes.saturating_mul(clones.saturating_add(2)).saturating_add(scratch)
}

/// Every plan knob that changes clustering results or fault injection —
/// parallelism knobs (clones, jobs) are deliberately excluded because
/// results are invariant to them.
fn plan_fingerprint(plan: &PhysicalPlan, fault_plan: Option<&FaultPlan>) -> u64 {
    // `CoresetSpec`'s manual Debug omits the status probe, so attaching a
    // live dashboard never invalidates checkpoints.
    // The scan backend is part of the key: backends change injection
    // granularity under chaos, so checkpoints must not cross backends.
    // `Collective` holds the slot of the retired merge mode, so checkpoints
    // written before it was retired stay resumable.
    let key = format!(
        "{:?}|Collective|{}|{:?}|{:?}|{:?}|{:?}|{:?}",
        plan.logical.kmeans,
        plan.logical.merge_restarts,
        plan.chunk_policy,
        plan.fault_policy,
        plan.coreset,
        fault_plan,
        plan.scan_backend
    );
    fnv1a(key.as_bytes())
}

fn file_name(path: &Path) -> String {
    path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
}

/// Checkpoint file path for a bucket: `<dir>/<bucket file name>.ckpt`.
pub fn checkpoint_path(dir: &Path, input: &Path) -> PathBuf {
    dir.join(format!("{}.ckpt", file_name(input)))
}

fn write_checkpoint(dir: &Path, fingerprint: u64, outcome: &CellOutcome) -> Result<usize> {
    let payload = CheckpointPayload {
        clustering: outcome.clustering.clone(),
        faults: outcome.faults,
        degraded: outcome.degraded,
        elapsed: outcome.elapsed,
    };
    let payload_line = serde_json::to_string(&payload)
        .map_err(|e| EngineError::InvalidPlan(format!("checkpoint serialization failed: {e}")))?;
    let header = CheckpointHeader {
        checkpoint: CHECKPOINT_VERSION,
        fingerprint: format!("{fingerprint:016x}"),
        checksum: format!("{:016x}", fnv1a(payload_line.as_bytes())),
        input: file_name(&outcome.path),
    };
    let header_line = serde_json::to_string(&header)
        .map_err(|e| EngineError::InvalidPlan(format!("checkpoint serialization failed: {e}")))?;
    let text = format!("{header_line}\n{payload_line}\n");
    std::fs::create_dir_all(dir)
        .map_err(|e| EngineError::InvalidPlan(format!("checkpoint dir {}: {e}", dir.display())))?;
    let path = checkpoint_path(dir, &outcome.path);
    // Write-then-rename so a crash mid-write leaves no half file behind
    // (a truncated file would be caught by the checksum anyway).
    let tmp = path.with_extension("ckpt.tmp");
    std::fs::write(&tmp, &text)
        .and_then(|()| std::fs::rename(&tmp, &path))
        .map_err(|e| EngineError::InvalidPlan(format!("checkpoint {}: {e}", path.display())))?;
    Ok(text.len())
}

/// Garbage-collects checkpoint files a completed run can no longer use:
/// `.ckpt` files for buckets outside the plan's input list and files whose
/// header fingerprint does not match the run (both would be rejected as
/// stale on the next resume anyway). Checkpoints of the run's own cells
/// are kept, so re-running the same plan still resumes instantly. Returns
/// the number of files removed; I/O errors skip the file, never fail the
/// run.
fn gc_checkpoints(dir: &Path, inputs: &[std::path::PathBuf], fingerprint: u64) -> usize {
    let keep: std::collections::HashSet<PathBuf> =
        inputs.iter().map(|p| checkpoint_path(dir, p)).collect();
    let want = format!("{fingerprint:016x}");
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut removed = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("ckpt") {
            continue;
        }
        let stale = if !keep.contains(&path) {
            true // a bucket this plan does not schedule
        } else {
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    let header_line = text.split('\n').next().unwrap_or("");
                    match serde_json::from_str::<CheckpointHeader>(header_line) {
                        Ok(h) => h.fingerprint != want,
                        Err(_) => true, // unparsable header: dead weight
                    }
                }
                Err(_) => false, // unreadable now; leave it for resume to judge
            }
        };
        if stale && std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

enum CheckpointState {
    Loaded(Box<CheckpointPayload>),
    Missing,
    Invalid,
}

fn load_checkpoint(dir: &Path, input: &Path, fingerprint: u64) -> CheckpointState {
    let path = checkpoint_path(dir, input);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CheckpointState::Missing,
        Err(_) => return CheckpointState::Invalid,
    };
    let Some((header_line, rest)) = text.split_once('\n') else {
        return CheckpointState::Invalid;
    };
    let payload_line = rest.strip_suffix('\n').unwrap_or(rest);
    let Ok(header) = serde_json::from_str::<CheckpointHeader>(header_line) else {
        return CheckpointState::Invalid;
    };
    if header.checkpoint > CHECKPOINT_VERSION
        || header.fingerprint != format!("{fingerprint:016x}")
        || header.input != file_name(input)
        || header.checksum != format!("{:016x}", fnv1a(payload_line.as_bytes()))
    {
        return CheckpointState::Invalid;
    }
    match serde_json::from_str::<CheckpointPayload>(payload_line) {
        Ok(p) => CheckpointState::Loaded(Box::new(p)),
        Err(_) => CheckpointState::Invalid,
    }
}

fn add_faults(into: &mut FaultReport, from: &FaultReport) {
    for kind in FaultKind::ALL {
        *into.count_mut(kind) += from.count(kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::execute;
    use crate::optimizer::optimize_fixed_split;
    use crate::plan::LogicalPlan;
    use crate::resources::Resources;
    use pmkm_core::{Dataset, KMeansConfig};
    use pmkm_data::{GridBucket, GridCell};

    fn write_cell(dir: &Path, idx: u16, n: usize, seed: u64) -> PathBuf {
        use rand::Rng;
        let mut rng = pmkm_core::seeding::rng_for(seed, idx as u64);
        let mut points = Dataset::new(2).unwrap();
        for _ in 0..n {
            let blob = if rng.gen_bool(0.5) { 0.0 } else { 40.0 };
            points
                .push(&[blob + rng.gen_range(-1.0..1.0), blob + rng.gen_range(-1.0..1.0)])
                .unwrap();
        }
        let cell = GridCell::new(idx, idx).unwrap();
        let path = dir.join(cell.bucket_file_name());
        GridBucket { cell, points }.write_to(&path).unwrap();
        path
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pmkm_orch_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn mk_plan(paths: &[PathBuf], seed: u64) -> PhysicalPlan {
        optimize_fixed_split(
            LogicalPlan::new(
                paths.to_vec(),
                KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, seed) },
            ),
            &Resources::fixed(1 << 20, 2),
            40,
        )
    }

    fn assert_same_cells(a: &PlanetReport, b: &PlanetReport) {
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.input, y.input);
            assert_eq!(x.path, y.path);
            let (cx, cy) = (x.clustering.as_ref().unwrap(), y.clustering.as_ref().unwrap());
            assert_eq!(cx.output.centroids, cy.output.centroids);
            assert_eq!(cx.output.epm.to_bits(), cy.output.epm.to_bits());
            assert_eq!(cx.expected_points.to_bits(), cy.expected_points.to_bits());
        }
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn orchestrated_cells_match_a_serial_execute_loop() {
        let dir = tmpdir("serial_parity");
        let paths: Vec<PathBuf> =
            (1..=5).map(|i| write_cell(&dir, i, 80 + 30 * i as usize, 9)).collect();
        let plan = mk_plan(&paths, 11);
        let planet = orchestrate(&plan, &OrchestratorOptions::new(4), None, None).unwrap();
        assert_eq!(planet.cells.len(), 5);
        assert_eq!(planet.cells_executed, 5);
        for (i, outcome) in planet.cells.iter().enumerate() {
            let mut one = plan.clone();
            one.logical.inputs = vec![paths[i].clone()];
            let solo = execute(&one).unwrap();
            let orch = outcome.clustering.as_ref().unwrap();
            assert_eq!(orch.output.centroids, solo.cells[0].output.centroids);
            assert_eq!(orch.output.epm.to_bits(), solo.cells[0].output.epm.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn planet_report_ordering_is_independent_of_worker_count() {
        let dir = tmpdir("ordering");
        // Mixed sizes so completion order differs from input order.
        let sizes = [400usize, 60, 250, 90, 300, 70];
        let paths: Vec<PathBuf> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| write_cell(&dir, (i + 1) as u16, n, 5))
            .collect();
        let plan = mk_plan(&paths, 3);
        let one = orchestrate(&plan, &OrchestratorOptions::new(1), None, None).unwrap();
        let four = orchestrate(&plan, &OrchestratorOptions::new(4), None, None).unwrap();
        assert_same_cells(&one, &four);
        // Deterministic input-order reporting regardless of completion order.
        for (i, o) in four.cells.iter().enumerate() {
            assert_eq!(o.input, i);
            assert_eq!(o.path, paths[i]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workers_going_idle_together_do_not_deadlock() {
        // Two workers over two empty deques, released together round after
        // round: each must let go of its own deque before it looks into the
        // other's. Holding on (as `lock().pop_front().or_else(steal)` did,
        // the guard living to the end of the statement) deadlocks within a
        // few thousand rounds; the watcher turns that into a failure.
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..2).map(|_| Mutex::new(VecDeque::new())).collect();
        let barrier = std::sync::Barrier::new(2);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            for w in 0..2 {
                let (queues, barrier, done_tx) = (&queues, &barrier, done_tx.clone());
                s.spawn(move || {
                    for _ in 0..20_000 {
                        barrier.wait();
                        assert_eq!(take_task(queues, w, || {}), None);
                    }
                    done_tx.send(()).unwrap();
                });
            }
            for _ in 0..2 {
                if done_rx.recv_timeout(Duration::from_secs(60)).is_err() {
                    // Unwinding would join the stuck threads forever.
                    eprintln!("idle workers deadlocked stealing from each other");
                    std::process::abort();
                }
            }
        });
    }

    #[test]
    fn idle_workers_steal_and_no_cell_starves() {
        let dir = tmpdir("steal");
        // jobs=2 deals cells [0,2] to worker 0 and [1] to worker 1. Cell 0
        // is much bigger, so worker 1 finishes its own cell and must steal
        // cell 2 from worker 0's deque for the run to stay balanced.
        let paths = vec![
            write_cell(&dir, 1, 4000, 13),
            write_cell(&dir, 2, 40, 13),
            write_cell(&dir, 3, 40, 13),
        ];
        let mut plan = mk_plan(&paths, 29);
        plan.logical.kmeans.restarts = 3;
        let planet = orchestrate(&plan, &OrchestratorOptions::new(2), None, None).unwrap();
        assert_eq!(planet.cells.len(), 3, "a cell starved");
        assert!(planet.steals >= 1, "expected at least one steal, got {}", planet.steals);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tight_budget_backpressures_but_never_exceeds() {
        let dir = tmpdir("budget");
        let paths: Vec<PathBuf> = (1..=6).map(|i| write_cell(&dir, i, 120, 21)).collect();
        let plan = mk_plan(&paths, 7);
        // Budget for exactly one cell: 4 workers must serialize admission.
        let one_cell = cell_cost(&plan, 2);
        let opts = OrchestratorOptions::new(4).with_budget(one_cell);
        let planet = orchestrate(&plan, &opts, None, None).unwrap();
        assert_eq!(planet.cells.len(), 6);
        assert!(planet.budget_peak > 0);
        assert!(
            planet.budget_peak <= one_cell,
            "budget exceeded: {} > {}",
            planet.budget_peak,
            one_cell
        );
        // Results are unchanged by the backpressure.
        let free = orchestrate(&plan, &OrchestratorOptions::new(4), None, None).unwrap();
        assert_same_cells(&planet, &free);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cell_cost_books_chunks_and_lloyd_scratch() {
        // Two clones of 1,000-point 6-D chunks: four chunks of 48,000 B in
        // flight, and 32 B of Lloyd scratch per point in each clone.
        let mut plan = mk_plan(&[], 7);
        plan.partial_clones = 2;
        plan.chunk_policy = ChunkPolicy::FixedPoints(1_000);
        assert_eq!(cell_cost(&plan, 6), 4 * 48_000 + 2 * 32_000);
        // A byte budget holds its bytes over the row size in points.
        plan.chunk_policy = ChunkPolicy::MemoryBudget { bytes: 48_010 };
        assert_eq!(cell_cost(&plan, 6), 4 * 48_010 + 2 * 32_000);
        plan.chunk_policy = ChunkPolicy::FixedPoints(usize::MAX);
        assert_eq!(cell_cost(&plan, 6), usize::MAX, "saturates");
    }

    #[test]
    fn budget_smaller_than_one_cell_is_rejected() {
        let dir = tmpdir("budget_reject");
        let paths = vec![write_cell(&dir, 9, 100, 2)];
        let plan = mk_plan(&paths, 7);
        let opts = OrchestratorOptions::new(2).with_budget(16);
        match orchestrate(&plan, &opts, None, None) {
            Err(EngineError::InvalidPlan(msg)) => assert!(msg.contains("budget")),
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_chunk_budget_saturates_and_is_refused() {
        let dir = tmpdir("budget_huge");
        let paths = vec![write_cell(&dir, 3, 21, 5)];
        let logical =
            LogicalPlan::new(paths, KMeansConfig { restarts: 1, ..KMeansConfig::paper(2, 7) });
        // One clone: three chunks in flight, whose byte count wraps to 2.
        let plan = crate::optimizer::optimize(logical, &Resources::fixed(usize::MAX / 3 + 1, 1));
        assert_eq!(cell_cost(&plan, 2), usize::MAX);
        let planet = orchestrate(&plan, &OrchestratorOptions::new(1), None, None).unwrap();
        assert_eq!(planet.cells.len(), 1);
        let opts = OrchestratorOptions::new(1).with_budget(100);
        match orchestrate(&plan, &opts, None, None) {
            Err(EngineError::InvalidPlan(msg)) => assert!(msg.contains("cannot admit"), "{msg}"),
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_budget_tracks_peak() {
        let b = MemoryBudget::new(100);
        b.acquire(60);
        b.acquire(30);
        assert_eq!(b.peak(), 90);
        b.release(60);
        b.acquire(40);
        assert_eq!(b.peak(), 90);
        b.release(30);
        b.release(40);
        assert_eq!(b.capacity(), 100);
    }

    #[test]
    fn contended_budget_never_exceeds_its_capacity() {
        // Four threads start every round together and each acquires a
        // random share (some the whole budget), holds it a moment, then
        // releases it. At no time may the held bytes exceed the cap, and
        // every waiter must be woken by some release.
        use rand::Rng;
        const CAP: usize = 100;
        let budget = MemoryBudget::new(CAP);
        let held = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(4);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let (budget, held, barrier, done_tx) = (&budget, &held, &barrier, done_tx.clone());
                s.spawn(move || {
                    let mut rng = pmkm_core::seeding::rng_for(17, w);
                    for _ in 0..500 {
                        barrier.wait();
                        let bytes = rng.gen_range(1..=CAP);
                        budget.acquire(bytes);
                        let now = held.fetch_add(bytes, Ordering::SeqCst) + bytes;
                        assert!(now <= CAP, "{now} B held under a {CAP} B budget");
                        std::thread::yield_now();
                        held.fetch_sub(bytes, Ordering::SeqCst);
                        budget.release(bytes);
                    }
                    done_tx.send(()).unwrap();
                });
            }
            for _ in 0..4 {
                if done_rx.recv_timeout(Duration::from_secs(60)).is_err() {
                    // Unwinding would join the stuck threads forever.
                    eprintln!("a budget thread failed or was never woken");
                    std::process::abort();
                }
            }
        });
        assert!(budget.peak() <= budget.capacity());
        assert!(budget.peak() > 0);
    }

    #[test]
    fn strict_failure_aborts_the_whole_run() {
        let dir = tmpdir("strict_abort");
        let mut paths = vec![write_cell(&dir, 1, 80, 3)];
        paths.push(PathBuf::from("/nonexistent/cell.gb"));
        let plan = mk_plan(&paths, 1);
        assert!(matches!(
            orchestrate(&plan, &OrchestratorOptions::new(2), None, None),
            Err(EngineError::Data(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_gc_keeps_current_run_and_deletes_stale_files() {
        let dir = tmpdir("ckpt_gc");
        let ckpt_dir = dir.join("ckpt");
        let keep_bucket = write_cell(&dir, 21, 50, 3);
        let foreign_bucket = write_cell(&dir, 22, 50, 3);
        let outcome = |path: &PathBuf| CellOutcome {
            input: 0,
            path: path.clone(),
            clustering: None,
            faults: FaultReport::default(),
            degraded: false,
            elapsed: Duration::ZERO,
            resumed: false,
        };
        // Current-run checkpoint: in the plan, matching fingerprint.
        write_checkpoint(&ckpt_dir, 0x1111, &outcome(&keep_bucket)).unwrap();
        // Same bucket, old fingerprint — overwritten case doesn't apply
        // here, so stage the stale fingerprint on the foreign bucket and
        // a plan-external file instead.
        write_checkpoint(&ckpt_dir, 0x9999, &outcome(&foreign_bucket)).unwrap();
        std::fs::write(ckpt_dir.join("orphan.gb.ckpt"), "junk\n").unwrap();
        // A non-checkpoint file is never touched.
        std::fs::write(ckpt_dir.join("notes.txt"), "keep me").unwrap();

        let inputs = vec![keep_bucket.clone(), foreign_bucket.clone()];
        let removed = gc_checkpoints(&ckpt_dir, &inputs, 0x1111);
        assert_eq!(removed, 2, "stale fingerprint + orphan");
        assert!(checkpoint_path(&ckpt_dir, &keep_bucket).exists(), "current kept");
        assert!(!checkpoint_path(&ckpt_dir, &foreign_bucket).exists(), "stale deleted");
        assert!(!ckpt_dir.join("orphan.gb.ckpt").exists(), "orphan deleted");
        assert!(ckpt_dir.join("notes.txt").exists(), "non-ckpt untouched");
        // The kept checkpoint still loads.
        assert!(matches!(
            load_checkpoint(&ckpt_dir, &keep_bucket, 0x1111),
            CheckpointState::Loaded(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orchestrate_prunes_stale_checkpoints_after_a_clean_run() {
        let dir = tmpdir("gc_e2e");
        let paths: Vec<PathBuf> = (1..=2).map(|i| write_cell(&dir, i, 60, 4)).collect();
        let plan = mk_plan(&paths, 5);
        let ckpt_dir = dir.join("ckpt");
        // Seed a stale file from a "previous" differently-configured run.
        std::fs::create_dir_all(&ckpt_dir).unwrap();
        std::fs::write(ckpt_dir.join("old_run.gb.ckpt"), "junk\n").unwrap();
        let opts = OrchestratorOptions::new(2).with_checkpoints(&ckpt_dir);
        let planet = orchestrate(&plan, &opts, None, None).unwrap();
        assert_eq!(planet.checkpoints_written, 2);
        assert_eq!(planet.checkpoints_pruned, 1, "stale file pruned");
        assert!(!ckpt_dir.join("old_run.gb.ckpt").exists());
        for p in &paths {
            assert!(checkpoint_path(&ckpt_dir, p).exists(), "own checkpoints kept");
        }
        // An interrupted run must NOT prune (resume still needs the dir).
        std::fs::write(ckpt_dir.join("old_run.gb.ckpt"), "junk\n").unwrap();
        let killed = orchestrate(&plan, &opts.clone().kill_after(1), None, None).unwrap();
        assert!(killed.interrupted);
        assert_eq!(killed.checkpoints_pruned, 0);
        assert!(ckpt_dir.join("old_run.gb.ckpt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn coreset_orchestrate_publishes_anytime_status_and_report_block() {
        let dir = tmpdir("coreset");
        let paths: Vec<PathBuf> = (1..=3).map(|i| write_cell(&dir, i, 120, 8)).collect();
        let mut plan = mk_plan(&paths, 13);
        plan.coreset = Some(crate::plan::CoresetSpec::new(32));
        let status = Arc::new(StatusCell::new());
        let opts = OrchestratorOptions::new(2).with_status(status.clone());
        let planet = orchestrate(&plan, &opts, None, None).unwrap();
        assert_eq!(planet.cells.len(), 3);
        for c in planet.clusterings() {
            let stats = c.coreset.expect("coreset stats per cell");
            assert_eq!(stats.builds, 3); // 120 points / 40-point chunks
            let total: f64 = c.output.cluster_weights.iter().sum();
            assert_eq!(total, 120.0);
        }
        // The orchestrator's status cell doubles as the anytime probe.
        let cs = status.coreset().expect("anytime clustering published to /status");
        assert!(cs.builds > 0);
        assert_eq!(cs.centroids.len(), cs.k);
        // The planet report carries the aggregated v7 block.
        let block = planet.run_report(None).coreset.expect("coreset block");
        assert_eq!(block.trees, 3);
        assert_eq!(block.builds, 9);
        assert_eq!(block.ingested_points, 360.0);
        // Worker count and the probe never change the clustering.
        let one = orchestrate(&plan, &OrchestratorOptions::new(1), None, None).unwrap();
        assert_same_cells(&planet, &one);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_files_round_trip_and_detect_tampering() {
        let dir = tmpdir("ckpt_unit");
        let bucket = write_cell(&dir, 4, 90, 17);
        let outcome = CellOutcome {
            input: 0,
            path: bucket.clone(),
            clustering: None,
            faults: FaultReport { scan_retries: 2, ..FaultReport::default() },
            degraded: true,
            elapsed: Duration::from_micros(123),
            resumed: false,
        };
        let ckpt_dir = dir.join("ckpt");
        write_checkpoint(&ckpt_dir, 0xabcd, &outcome).unwrap();
        match load_checkpoint(&ckpt_dir, &bucket, 0xabcd) {
            CheckpointState::Loaded(p) => {
                assert_eq!(p.faults.scan_retries, 2);
                assert!(p.degraded);
                assert_eq!(p.elapsed, Duration::from_micros(123));
            }
            _ => panic!("expected a valid checkpoint"),
        }
        // Wrong fingerprint → invalid, not panic.
        assert!(matches!(load_checkpoint(&ckpt_dir, &bucket, 0xabce), CheckpointState::Invalid));
        // Flip one payload byte → checksum catches it.
        let path = checkpoint_path(&ckpt_dir, &bucket);
        let mut text = std::fs::read_to_string(&path).unwrap();
        let flip = text.len() - 3;
        text.replace_range(flip..flip + 1, "X");
        std::fs::write(&path, &text).unwrap();
        assert!(matches!(load_checkpoint(&ckpt_dir, &bucket, 0xabcd), CheckpointState::Invalid));
        // Missing file is a distinct state.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(load_checkpoint(&ckpt_dir, &bucket, 0xabcd), CheckpointState::Missing));
        std::fs::remove_dir_all(&dir).ok();
    }
}
