//! The executor: one driver chains the operator steps on the calling
//! thread, and only the partial k-means is cloned (§3.4), onto a pool of
//! worker threads fed one chunk at a time, so the chunks in flight are
//! bounded by the clone count, not by the cell (§3.2). A plan with one
//! bucket and one clone has no pool: the per-operator cost the paper blames
//! for Conquest's slowdown on tiny cells is then a few function calls.

use crate::error::{EngineError, Result};
use crate::fault::{FaultContext, FaultPlan};
use crate::item::{CellClustering, ChunkMsg, MergeMsg};
use crate::ops::{ChunkerOp, PartialKMeansOp, ScanOp, TailOp};
use crate::plan::{CoresetSpec, PhysicalPlan};
use crate::queue::{QueueConsumer, QueueProducer, QueueStats, SmartQueue};
use pmkm_obs::{CellReport, CoresetReport, FaultReport, Recorder, RunReport};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Points per scan batch.
const SCAN_BATCH: usize = 4096;

/// Everything a finished pipeline run reports.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// One clustering per non-empty input cell, sorted by cell index.
    pub cells: Vec<CellClustering>,
    /// Telemetry of the partial pool's two queues; empty when the plan ran
    /// without a pool.
    pub queue_stats: Vec<QueueStats>,
    /// End-to-end wall time.
    pub elapsed: Duration,
    /// Failure counters accumulated across the run (all zero on a clean
    /// run).
    pub faults: FaultReport,
    /// True when any input mass was lost: a quarantined bucket, chunk or
    /// degraded cell means the results do not cover every scanned point.
    pub degraded: bool,
}

impl EngineReport {
    /// Converts the engine telemetry into the observability layer's
    /// [`RunReport`]. When a recorder is supplied, its metrics registry is
    /// snapshotted into the report as well.
    pub fn run_report(&self, rec: Option<&Recorder>) -> RunReport {
        let cells = self.cells.iter().map(cell_report).collect();
        RunReport {
            elapsed: self.elapsed,
            cells,
            queues: self.queue_stats.iter().map(QueueStats::to_report).collect(),
            metrics: rec.map(|r| r.registry().snapshot()).unwrap_or_default(),
            phases: rec.map(|r| r.phase_rows()).unwrap_or_default(),
            degraded: self.degraded,
            faults: self.faults,
            coreset: coreset_report(&self.cells),
            ..RunReport::new()
        }
    }
}

/// Folds the per-cell coreset-tree summaries into the run report's v7
/// `coreset` block. `None` when no cell ran in coreset mode, so classic
/// merge-path reports keep serializing byte-identically to v6.
pub fn coreset_report<'a>(
    cells: impl IntoIterator<Item = &'a CellClustering>,
) -> Option<CoresetReport> {
    let mut out = CoresetReport::default();
    let mut any = false;
    for stats in cells.into_iter().filter_map(|c| c.coreset.as_ref()) {
        any = true;
        out.trees += 1;
        out.max_levels = out.max_levels.max(stats.levels);
        out.live_buckets += stats.live_buckets;
        out.compactions += stats.compactions;
        out.builds += stats.builds;
        out.queries += stats.queries;
        out.live_weight += stats.live_weight;
        out.ingested_points += stats.ingested_points;
        out.lost_points += stats.lost_points;
        out.expired_points += stats.expired_points;
    }
    any.then_some(out)
}

/// Converts one cell's clustering into the observability layer's
/// [`CellReport`]: the core pipeline's report with the engine's mass
/// accounting — shared by the single-run executor and the multi-cell
/// orchestrator's planet-level report.
pub fn cell_report(c: &CellClustering) -> CellReport {
    let cell = c.cell.index().to_string();
    CellReport {
        expected_points: c.expected_points,
        lost_points: c.lost_points,
        lost_chunks: c.lost_chunks,
        degraded: c.degraded,
        ..pmkm_core::cell_report(cell, &c.chunks, &c.trajectories, &c.output)
    }
}

/// Executes a physical plan to completion.
///
/// The dataflow is scan → chunker → `partial_clones` × partial k-means →
/// tail (the merge, or in coreset mode the merge-reduce tree), with the
/// final results collected on the calling thread. Operator panics and errors
/// abort the run and surface as [`EngineError`].
pub fn execute(plan: &PhysicalPlan) -> Result<EngineReport> {
    execute_with_faults(plan, None, None)
}

/// [`execute`] with an optional trace/metrics recorder attached to every
/// operator instance and an optional deterministic fault-injection schedule
/// — the entry point of observed runs and of the chaos suite. With `None`
/// for both and the default [`crate::fault::FaultPolicy::strict`] policy
/// this is exactly `execute`: no events, no metrics, no injection, no
/// validation passes, byte-identical results.
pub fn execute_with_faults(
    plan: &PhysicalPlan,
    rec: Option<Arc<Recorder>>,
    fault_plan: Option<FaultPlan>,
) -> Result<EngineReport> {
    plan.validate()?;
    if let Some(rec) = rec.as_deref() {
        rec.event(
            "run.open",
            &[
                ("cells", plan.logical.inputs.len().into()),
                ("partial_clones", plan.partial_clones.into()),
            ],
        );
    }
    let ctx = FaultContext { rec, ..FaultContext::new(fault_plan, plan.fault_policy) };
    let report = run_pipeline(plan, &plan.logical.inputs, plan.coreset.as_ref(), &ctx)?;
    if let Some(rec) = ctx.rec() {
        // Phases before close: `run.close` marks the journal's logical end.
        pmkm_obs::emit_phase_events(rec);
        rec.event(
            "run.close",
            &[
                ("elapsed_us", (report.elapsed.as_micros() as u64).into()),
                ("cells", report.cells.len().into()),
                ("degraded", report.degraded.into()),
            ],
        );
        rec.flush();
    }
    Ok(report)
}

/// One pass of the pipeline over `inputs` with every knob from `plan`,
/// without the run-level journal framing — the orchestrator's per-cell
/// hook. Cell-scoped events (`cell.open`, `cell.close`, `chunk.close`,
/// faults) still flow to the context's recorder, but `run.open` /
/// `run.close` / phase emission are left to the caller, which brackets the
/// whole run exactly once. `coreset` is the plan's own spec, or the
/// caller's copy of it with a status probe attached. `ctx` carries the
/// run's fault counters, so one context is one report.
///
/// A plan with one bucket and one partial clone runs every step on the
/// calling thread. Any other plan gets a [`Pool`] for its partial step, so
/// even at one clone the caller scans the next chunk while the pool
/// clusters this one (DESIGN.md §12 has the numbers).
pub(crate) fn run_pipeline(
    plan: &PhysicalPlan,
    inputs: &[PathBuf],
    coreset: Option<&CoresetSpec>,
    ctx: &FaultContext,
) -> Result<EngineReport> {
    let started = Instant::now();
    let (mut cells, queue_stats) = match inputs {
        [_] if plan.partial_clones == 1 => run_cell(plan, inputs, coreset, ctx, None)?,
        _ => std::thread::scope(|s| run_cell(plan, inputs, coreset, ctx, Some(s)))?,
    };
    cells.sort_by_key(|c| c.cell.index());
    let faults = ctx.counters.snapshot();
    let degraded =
        faults.scan_failures > 0 || faults.chunks_quarantined > 0 || faults.cells_degraded > 0;
    Ok(EngineReport { cells, queue_stats, elapsed: started.elapsed(), faults, degraded })
}

/// The driver's stages, in dataflow order.
const SCAN: usize = 0;
const CHUNKER: usize = 1;
const PARTIAL: usize = 2;
const TAIL: usize = 3;

/// Runs one step of operator `op`, turning a panic into
/// [`EngineError::OperatorPanic`] naming it.
fn caught<T>(op: &str, step: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(step))
        .unwrap_or_else(|_| Err(EngineError::OperatorPanic(op.to_string())))
}

/// Runs the calling thread's steps and remembers where a failure began.
struct Steps {
    /// Operator name of each stage.
    names: [&'static str; 4],
    /// The deepest stage whose step failed. A failure unwinds through
    /// every stage upstream of it, so this is the stage it started in.
    failed: Cell<usize>,
}

impl Steps {
    /// Runs one step of `stage`.
    fn run<T>(&self, stage: usize, step: impl FnOnce() -> Result<T>) -> Result<T> {
        caught(self.names[stage], step)
            .inspect_err(|_| self.failed.set(self.failed.get().max(stage)))
    }

    /// Did every failure so far start upstream of `stage`?
    fn live(&self, stage: usize) -> bool {
        self.failed.get() < stage
    }
}

/// Where the partial step runs: on the calling thread, or on a pool.
enum Partial<'scope> {
    Inline(PartialKMeansOp),
    Pool(Pool<'scope>),
}

/// The driver. Every scan message runs through the chunker on the calling
/// thread, each chunk through the partial step (inline, or pushed to the
/// pool), and every summary and cell plan through the tail, again on the
/// calling thread. Without a pool at most one chunk is in flight and no
/// thread, queue or hand-off exists; with one, at most `clones + 2`.
///
/// When a step fails, the stages downstream of it still finish, as they
/// would once their input ended, so a failed run journals the `op.finish`
/// events and degraded-cell answers an ended input gives. The stages
/// upstream stop at once, except the pool's workers: they finish the
/// chunks they hold, and then the stream, whichever stage failed.
fn run_cell<'scope>(
    plan: &PhysicalPlan,
    inputs: &[PathBuf],
    coreset: Option<&CoresetSpec>,
    ctx: &FaultContext,
    pool: Option<&'scope Scope<'scope, '_>>,
) -> Result<(Vec<CellClustering>, Vec<QueueStats>)> {
    let scan =
        ScanOp::new(inputs.to_vec(), SCAN_BATCH, ctx.clone()).with_backend(plan.scan_backend);
    let mut chunker = ChunkerOp::new(plan.chunk_policy, ctx.clone());
    let partial_op = |clone| {
        PartialKMeansOp::new(plan.logical.kmeans, clone, ctx.clone())
            .with_coreset(coreset.map(|s| s.size))
    };
    let clones = (0..plan.partial_clones).map(&partial_op);
    let mut partial = match pool {
        None => Partial::Inline(partial_op(0)),
        Some(s) => Partial::Pool(Pool::start(s, clones.collect())),
    };
    let mut tail = TailOp::new(&plan.logical, coreset.cloned(), ctx.clone());
    let steps = Steps {
        names: ["scan", "chunker", "partial-kmeans", tail.name()],
        failed: Cell::new(SCAN),
    };

    let mut cells = Vec::new();
    let mut to_sink = |cell| {
        cells.push(cell);
        Ok(())
    };
    let mut to_tail = |msg| steps.run(TAIL, || tail.handle(msg, &mut to_sink));
    let scanned = steps.run(SCAN, || {
        scan.drive(&mut |msg| {
            let cell_plan = steps.run(CHUNKER, || {
                chunker.handle(msg, &mut |chunk| match &mut partial {
                    Partial::Inline(op) => to_tail(steps.run(PARTIAL, || op.handle(chunk))?),
                    Partial::Pool(pool) => {
                        pool.push(chunk, &mut |summary| to_tail(steps.run(PARTIAL, || summary)?))
                    }
                })
            })?;
            cell_plan.map_or(Ok(()), &mut to_tail)
        })
    });

    let mut first_err = scanned.err();
    let mut queue_stats = Vec::new();
    match partial {
        Partial::Inline(op) if steps.live(PARTIAL) => op.finish(),
        Partial::Inline(_) => {}
        Partial::Pool(pool) => {
            queue_stats = pool.close(|summary| {
                if steps.live(TAIL) {
                    let fed = steps.run(PARTIAL, || summary).and_then(&mut to_tail);
                    first_err = first_err.take().or(fed.err());
                }
            })
        }
    }
    if steps.live(TAIL) {
        first_err = first_err.or(steps.run(TAIL, || tail.finish(&mut to_sink)).err());
    }
    first_err.map_or(Ok((cells, queue_stats)), Err)
}

/// A chunk's summary from a pool worker, or the error that ended it.
type Summary = Result<MergeMsg>;

/// The partial step's pool: one scoped thread per clone, fed by a chunk
/// queue of capacity 1, answering on a summary queue the caller drains
/// before every push. In flight are at most a chunk per worker, one queued
/// and one being built: the `chunk × (clones + 2)` `cell_cost` books.
struct Pool<'scope> {
    chunks: SmartQueue<ChunkMsg>,
    summaries: SmartQueue<Summary>,
    to_workers: QueueProducer<ChunkMsg>,
    from_workers: QueueConsumer<Summary>,
    workers: Vec<ScopedJoinHandle<'scope, ()>>,
}

impl<'scope> Pool<'scope> {
    /// Starts one worker per clone. A failed step's error is a worker's last
    /// summary, so it reaches the caller before the `Disconnected` it may
    /// cause; a worker that ends the stream journals `op.finish`.
    fn start(s: &'scope Scope<'scope, '_>, clones: Vec<PartialKMeansOp>) -> Self {
        let chunks = SmartQueue::new("chunker→partial", 1);
        // One push between two drains: the summaries that can wait are one
        // per chunk in a worker, queued or pushed, so no send ever blocks.
        let summaries = SmartQueue::new("partial→merge", clones.len() + 2);
        let workers = clones
            .into_iter()
            .map(|mut op| {
                let (input, output) = (chunks.consumer(), summaries.producer());
                s.spawn(move || {
                    while let Some(chunk) = input.recv() {
                        let summary = caught("partial-kmeans", || op.handle(chunk));
                        let failed = summary.is_err();
                        if output.send(summary).is_err() || failed {
                            return;
                        }
                    }
                    op.finish()
                })
            })
            .collect();
        let (to_workers, from_workers) = (chunks.producer(), summaries.consumer());
        chunks.seal();
        summaries.seal();
        Self { chunks, summaries, to_workers, from_workers, workers }
    }

    /// Hands the summaries already back to `emit`, then pushes `chunk`,
    /// blocking while the queue holds one.
    fn push(&self, chunk: ChunkMsg, emit: &mut impl FnMut(Summary) -> Result<()>) -> Result<()> {
        self.drain(emit)?;
        self.to_workers.send(chunk).or_else(|_| {
            // Every worker has failed, and each sent its error first.
            self.drain(emit)?;
            Err(EngineError::Disconnected("chunker→partial"))
        })
    }

    fn drain(&self, emit: &mut impl FnMut(Summary) -> Result<()>) -> Result<()> {
        while let Some(summary) = self.from_workers.try_recv() {
            emit(summary)?;
        }
        Ok(())
    }

    /// Ends the chunk stream, hands every summary still to come to `emit`,
    /// and joins the workers; returns the two queues' telemetry.
    fn close(self, mut emit: impl FnMut(Summary)) -> Vec<QueueStats> {
        drop(self.to_workers);
        while let Some(summary) = self.from_workers.recv() {
            emit(summary);
        }
        for worker in self.workers {
            worker.join().unwrap_or_else(|panic| resume_unwind(panic));
        }
        vec![self.chunks.stats(), self.summaries.stats()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{optimize, optimize_fixed_split};
    use crate::plan::LogicalPlan;
    use crate::resources::Resources;
    use pmkm_core::{Dataset, KMeansConfig};
    use pmkm_data::{GridBucket, GridCell};
    use std::path::PathBuf;

    fn write_cell(dir: &std::path::Path, idx: u16, n: usize, seed: u64) -> PathBuf {
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

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("pmkm_exec_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// `execute_with_faults` on a thread of its own, failing the test
    /// instead of hanging it when the run does not end within a minute.
    fn within_a_minute(
        plan: &PhysicalPlan,
        rec: Option<Arc<Recorder>>,
        faults: Option<FaultPlan>,
    ) -> Result<EngineReport> {
        let (tx, rx) = std::sync::mpsc::channel();
        let plan = plan.clone();
        std::thread::spawn(move || {
            let _ = tx.send(execute_with_faults(&plan, rec, faults));
        });
        rx.recv_timeout(Duration::from_secs(60)).expect("the run hung")
    }

    /// The `op.finish` records a run journaled, as `(op, clone, count)`:
    /// the scan's `items_out`, or a partial clone's `items_in`, sorted.
    fn op_finish_rows(ring: &pmkm_obs::RingBufferSink) -> Vec<(String, u64, u64)> {
        use pmkm_obs::FieldValue;
        let mut rows: Vec<_> = ring
            .events()
            .into_iter()
            .filter(|e| e.name == "op.finish")
            .map(|e| {
                let (mut op, mut clone, mut count) = (String::new(), 0, 0);
                for (key, value) in e.fields {
                    match (key.as_str(), value) {
                        ("op", FieldValue::Str(s)) => op = s,
                        ("clone", FieldValue::U64(n)) => clone = n,
                        ("items_in" | "items_out", FieldValue::U64(n)) => count = n,
                        other => panic!("unexpected op.finish field {other:?}"),
                    }
                }
                (op, clone, count)
            })
            .collect();
        rows.sort();
        rows
    }

    /// `execute_with_faults` with a ring-buffer journal attached.
    fn journaled(plan: &PhysicalPlan) -> (EngineReport, Arc<pmkm_obs::RingBufferSink>) {
        let ring = Arc::new(pmkm_obs::RingBufferSink::new(1 << 12));
        let rec = Arc::new(Recorder::new().with_sink(ring.clone()));
        (execute_with_faults(plan, Some(rec), None).unwrap(), ring)
    }

    #[test]
    fn clusters_multiple_cells_end_to_end() {
        let dir = tmpdir("multi");
        let paths = vec![
            write_cell(&dir, 1, 300, 7),
            write_cell(&dir, 2, 150, 7),
            write_cell(&dir, 3, 80, 7),
        ];
        let logical =
            LogicalPlan::new(paths, KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 11) });
        let plan = optimize_fixed_split(logical, &Resources::fixed(1 << 20, 3), 64);
        let (report, ring) = journaled(&plan);
        assert_eq!(report.cells.len(), 3);
        // Sorted by cell index; weights conserved per cell.
        let ns = [300.0, 150.0, 80.0];
        for (i, c) in report.cells.iter().enumerate() {
            let total: f64 = c.output.cluster_weights.iter().sum();
            assert_eq!(total, ns[i], "cell {i}");
            // Two blobs at 0 and 40: the merged centroids find them.
            let mut xs: Vec<f64> = c.output.centroids.iter().map(|p| p[0]).collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert!(xs[0] < 5.0 && xs[xs.len() - 1] > 35.0);
        }
        // Three partial clones ran, and each journaled its end.
        let clones: Vec<u64> = op_finish_rows(&ring)
            .into_iter()
            .filter(|(op, ..)| op == "partial-kmeans")
            .map(|(_, clone, _)| clone)
            .collect();
        assert_eq!(clones, [0, 1, 2]);
        assert_eq!(report.queue_stats.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_bucket_one_clone_runs_inline_with_the_same_telemetry_rows() {
        let dir = tmpdir("inline");
        let paths = vec![write_cell(&dir, 14, 300, 5)];
        let mk_plan = |workers: usize| {
            optimize_fixed_split(
                LogicalPlan::new(
                    paths.clone(),
                    KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 3) },
                ),
                &Resources::fixed(1 << 20, workers),
                60,
            )
        };
        let (inline, inline_ring) = journaled(&mk_plan(1));
        let (pooled, pooled_ring) = journaled(&mk_plan(2));
        // Both journal the scan's messages (one batch and the cell's end)
        // and the five chunks the partial step took: inline in one clone,
        // pooled split over two.
        let folded = |ring| {
            let mut rows: Vec<(String, u64)> = Vec::new();
            for (op, _, count) in op_finish_rows(ring) {
                match rows.iter_mut().find(|(name, _)| *name == op) {
                    Some(row) => row.1 += count,
                    None => rows.push((op, count)),
                }
            }
            rows
        };
        let want = [("partial-kmeans".to_string(), 5), ("scan".to_string(), 1 + 1)];
        assert_eq!(folded(&inline_ring), want);
        assert_eq!(folded(&pooled_ring), want);
        assert_eq!(op_finish_rows(&inline_ring).len(), 2);
        assert_eq!(op_finish_rows(&pooled_ring).len(), 3);
        // No queues exist inline; the pool's carry the same five chunks.
        assert!(inline.queue_stats.is_empty());
        let sends: Vec<u64> = pooled.queue_stats.iter().map(|q| q.sends).collect();
        assert_eq!(sends, [5, 5]);
        assert_eq!(inline.cells[0].chunks.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn engine_matches_in_memory_pipeline() {
        // The stream engine's fixed-split path must equal
        // pmkm_core::partial_merge with the same chunk seeds. We verify the
        // weaker (and more meaningful) invariant that both recover the same
        // blob structure with equal weight totals.
        let dir = tmpdir("parity");
        let paths = vec![write_cell(&dir, 8, 200, 21)];
        let logical =
            LogicalPlan::new(paths, KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 5) });
        let plan = optimize_fixed_split(logical, &Resources::fixed(1 << 20, 2), 40);
        let report = execute(&plan).unwrap();
        let engine_out = &report.cells[0].output;
        let total: f64 = engine_out.cluster_weights.iter().sum();
        assert_eq!(total, 200.0);
        assert_eq!(report.cells[0].chunks.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_budget_policy_resolves_chunks() {
        let dir = tmpdir("budget");
        let paths = vec![write_cell(&dir, 9, 100, 2)];
        let logical =
            LogicalPlan::new(paths, KMeansConfig { restarts: 1, ..KMeansConfig::paper(2, 5) });
        // dim-2 points are 16 B; 400 B budget → 25 points/chunk → 4 chunks.
        let plan = optimize(logical, &Resources::fixed(400, 2));
        let report = execute(&plan).unwrap();
        assert_eq!(report.cells[0].chunks.len(), 4);
        for c in &report.cells[0].chunks {
            assert!(c.points <= 25);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_bucket_aborts_with_data_error() {
        // One worker runs the lone bucket inline, two on a pool.
        for workers in [1, 2] {
            let logical = LogicalPlan::new(
                vec![PathBuf::from("/nonexistent/cell.gb")],
                KMeansConfig::paper(2, 0),
            );
            let plan = optimize(logical, &Resources::fixed(1 << 20, workers));
            assert!(matches!(execute(&plan), Err(EngineError::Data(_))), "{workers} worker(s)");
        }
    }

    #[test]
    fn strict_scan_failure_still_finishes_the_operators_downstream() {
        use crate::fault::{path_key, ScanFault};
        use pmkm_obs::{FieldValue, RingBufferSink};
        let dir = tmpdir("strict_scan");
        let paths = vec![write_cell(&dir, 16, 300, 6)];
        // The open and the first batch (all 300 points) read, the next
        // read fails for good: five chunks are clustered before the error.
        let key = path_key(&paths[0]);
        let faulted = |seed| FaultPlan {
            scan_error_rate: 0.3,
            scan_permanent_fraction: 1.0,
            ..FaultPlan::none(seed)
        };
        let seed = (0..10_000u64)
            .find(|&s| {
                let p = faulted(s);
                p.scan_fault(key, u64::MAX).is_none()
                    && p.scan_fault(key, 0).is_none()
                    && p.scan_fault(key, 1) == Some(ScanFault::Permanent)
            })
            .expect("some seed fails exactly batch 1");
        // One worker runs inline, two on a pool: either way the partial
        // clones see their input end and journal `op.finish`, the scan
        // does not, and the run fails with the scan's error.
        for workers in [1, 2] {
            let plan = optimize_fixed_split(
                LogicalPlan::new(paths.clone(), KMeansConfig::paper(2, 1)),
                &Resources::fixed(1 << 20, workers),
                60,
            );
            let ring = Arc::new(RingBufferSink::new(256));
            let rec = Arc::new(Recorder::new().with_sink(ring.clone()));
            let run = execute_with_faults(&plan, Some(rec), Some(faulted(seed)));
            assert!(matches!(run, Err(EngineError::Data(_))), "{workers} worker(s)");
            let field = |e: &pmkm_obs::Event, name: &str| {
                e.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
            };
            let finished: Vec<_> = ring
                .events()
                .into_iter()
                .filter(|e| e.name == "op.finish")
                .map(|e| (field(&e, "op"), field(&e, "items_in")))
                .collect();
            let partial = Some(FieldValue::Str("partial-kmeans".into()));
            assert_eq!(finished.len(), workers, "{workers} worker(s): {finished:?}");
            assert!(finished.iter().all(|(op, _)| *op == partial), "{finished:?}");
            let items_in: u64 = finished
                .iter()
                .map(|(_, n)| match n {
                    Some(FieldValue::U64(n)) => *n,
                    other => panic!("items_in {other:?}"),
                })
                .sum();
            assert_eq!(items_in, 5, "{workers} worker(s)");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn observed_run_matches_unobserved_and_builds_run_report() {
        use pmkm_obs::{Profiler, RingBufferSink};
        let dir = tmpdir("observed");
        let paths = vec![write_cell(&dir, 6, 250, 17), write_cell(&dir, 7, 90, 17)];
        let mk_plan = || {
            optimize_fixed_split(
                LogicalPlan::new(
                    paths.clone(),
                    KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 13) },
                ),
                &Resources::fixed(1 << 20, 2),
                60,
            )
        };
        let plain = execute(&mk_plan()).unwrap();

        let ring = Arc::new(RingBufferSink::new(4096));
        let rec = Arc::new(
            Recorder::new().with_sink(ring.clone()).with_profiler(Arc::new(Profiler::new())),
        );
        let observed = execute_with_faults(&mk_plan(), Some(rec.clone()), None).unwrap();

        // Observation must not change the results.
        assert_eq!(plain.cells.len(), observed.cells.len());
        for (a, b) in plain.cells.iter().zip(&observed.cells) {
            assert_eq!(a.output.centroids, b.output.centroids);
            assert_eq!(a.output.epm, b.output.epm);
        }
        // Events flowed: at least one per cell from scan and merge.
        assert!(ring.len() >= 4, "expected trace events, got {}", ring.len());
        // Trajectories were captured per chunk.
        for c in &observed.cells {
            assert_eq!(c.trajectories.len(), c.chunks.len());
        }

        let report = observed.run_report(Some(&rec));
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.total_points(), 340);
        assert_eq!(report.queues.len(), 2);
        // Queue depth histograms account for every send.
        for q in &report.queues {
            let bucketed: u64 = q.depth.counts.iter().sum();
            assert_eq!(bucketed, q.sends, "queue {}", q.name);
        }
        assert!(!report.metrics.counters.is_empty());
        // Every operator contributed spans, and the partial spans nest the
        // shared k-means phases beneath them.
        let paths_seen: Vec<&str> = report.phases.iter().map(|p| p.path.as_str()).collect();
        for expect in ["scan", "chunk", "partial", "partial/seed", "partial/assign", "merge"] {
            assert!(paths_seen.contains(&expect), "missing phase {expect}: {paths_seen:?}");
        }
        for p in &report.phases {
            assert!(p.self_us <= p.total_us, "phase {}", p.path);
        }
        // The report round-trips losslessly through JSON.
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A recorder without sinks (a `--metrics-out`-only run) builds no
    /// events, yet counts every registry counter and profiler phase a
    /// journaled run does, and its answers are the bare run's bits.
    #[test]
    fn sinkless_recorder_counts_and_profiles_at_bare_bits() {
        use pmkm_obs::{Profiler, RingBufferSink};
        let dir = tmpdir("sinkless");
        let one = vec![write_cell(&dir, 18, 300, 19)];
        let two = vec![write_cell(&dir, 19, 250, 19), write_cell(&dir, 20, 90, 19)];
        // One bucket at one worker runs inline, two buckets on a pool.
        for (paths, workers) in [(one, 1), (two, 2)] {
            let plan = optimize_fixed_split(
                LogicalPlan::new(paths, KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 8) }),
                &Resources::fixed(1 << 20, workers),
                50,
            );
            let bare = execute(&plan).unwrap();
            let observe = |rec: Recorder| {
                let rec = Arc::new(rec.with_profiler(Arc::new(Profiler::new())));
                let report = execute_with_faults(&plan, Some(rec.clone()), None).unwrap();
                (report, rec)
            };
            let (sinkless, rec) = observe(Recorder::new());
            let ring = Arc::new(RingBufferSink::new(1 << 16));
            let (journaled, journaled_rec) = observe(Recorder::new().with_sink(ring.clone()));
            assert!(!ring.is_empty());

            assert_eq!(bare.cells.len(), sinkless.cells.len());
            for (a, b) in bare.cells.iter().zip(&sinkless.cells) {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let flat = |c: &CellClustering| -> Vec<f64> {
                    c.output.centroids.iter().flat_map(|p| p.iter().copied()).collect()
                };
                assert_eq!(bits(&flat(a)), bits(&flat(b)), "{workers} worker(s)");
                assert_eq!(bits(&a.output.cluster_weights), bits(&b.output.cluster_weights));
                assert_eq!(a.output.epm.to_bits(), b.output.epm.to_bits());
                assert_eq!(a.output.mse.to_bits(), b.output.mse.to_bits());
            }
            let counters =
                |r: &EngineReport, rec: &Recorder| r.run_report(Some(rec)).metrics.counters;
            let seen = counters(&sinkless, &rec);
            assert!(seen.iter().any(|c| c.name == "lloyd_iterations_total" && c.value > 0));
            assert_eq!(seen, counters(&journaled, &journaled_rec), "{workers} worker(s)");
            let paths = |rec: &Recorder| {
                rec.phase_rows().into_iter().map(|p| (p.path, p.calls)).collect::<Vec<_>>()
            };
            assert!(paths(&rec).iter().any(|(p, n)| p == "partial/assign" && *n > 0));
            assert_eq!(paths(&rec), paths(&journaled_rec), "{workers} worker(s)");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A worker that errors out must end the pooled run, not leave the
    /// caller blocked pushing chunks: two partial clones of a strict
    /// heavy-chaos run over a 500-chunk cell both die long before the
    /// chunker runs out of chunks.
    #[test]
    fn dead_workers_end_the_pooled_run_instead_of_hanging() {
        use crate::fault::{path_key, FaultPolicy};
        let dir = tmpdir("dead_consumers");
        let path = write_cell(&dir, 22, 20_000, 1);
        let mut plan = optimize_fixed_split(
            LogicalPlan::new(
                vec![path.clone()],
                KMeansConfig { restarts: 1, ..KMeansConfig::paper(4, 0) },
            ),
            &Resources::fixed(1 << 20, 2),
            40,
        );
        plan.fault_policy = FaultPolicy::strict();
        assert_eq!(plan.partial_clones, 2);
        // The bucket's key holds the temp path, so pick the first heavy
        // seed whose scan reads the whole cell: the chunker then has all
        // 500 chunks to push at a one-chunk queue.
        let key = path_key(&path);
        let batches = 20_000u64.div_ceil(SCAN_BATCH as u64);
        let seed = (1..10_000u64)
            .find(|&s| {
                let p = FaultPlan::heavy(s);
                std::iter::once(u64::MAX).chain(0..=batches).all(|b| p.scan_fault(key, b).is_none())
            })
            .expect("some heavy seed reads the whole cell");
        let run = within_a_minute(&plan, None, Some(FaultPlan::heavy(seed)));
        let err = run.expect_err("strict heavy chaos must fail the run");
        assert!(!matches!(err, EngineError::Disconnected(_)), "root cause kept: {err:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The pool bounds what is in flight by construction. Over a 250-chunk
    /// cell at two and three clones, classic and coreset, the chunk queue
    /// never holds more than its one chunk, and no worker ever blocks on
    /// the summary queue, which the caller drains before every push (at a
    /// smaller capacity the run can deadlock). The answers are the inline
    /// driver's, also where the coreset tree's merges sample.
    #[test]
    fn pool_queues_bound_the_chunks_in_flight() {
        use crate::plan::CoresetSpec;
        let dir = tmpdir("bound");
        let path = write_cell(&dir, 23, 20_000, 2);
        for coreset in [None, Some(CoresetSpec::new(32))] {
            let mk_plan = |clones: usize| {
                let mut plan = optimize_fixed_split(
                    LogicalPlan::new(
                        vec![path.clone()],
                        KMeansConfig { restarts: 1, ..KMeansConfig::paper(4, 3) },
                    ),
                    &Resources::fixed(1 << 20, clones),
                    80,
                );
                plan.coreset = coreset.clone();
                plan
            };
            let inline = execute(&mk_plan(1)).unwrap();
            assert_eq!(inline.cells[0].chunks.len(), 250);
            for clones in [2, 3] {
                let pooled = within_a_minute(&mk_plan(clones), None, None).unwrap();
                assert_eq!(pooled.cells[0].output.centroids, inline.cells[0].output.centroids);
                let [chunks, summaries] = pooled.queue_stats.as_slice() else {
                    panic!("a pool has two queues: {:?}", pooled.queue_stats)
                };
                assert_eq!((chunks.capacity, chunks.sends), (1, 250), "{chunks:?}");
                assert!(chunks.depth_counts[2..].iter().all(|&n| n == 0), "{chunks:?}");
                assert_eq!((summaries.capacity, summaries.sends), (clones + 2, 250));
                assert_eq!(summaries.full_blocks, 0, "{clones} clones: {summaries:?}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A strict tail failure on the calling thread, while the workers hold
    /// chunks of the next cell, ends the pooled run with the tail's error:
    /// the chunk queue closes, and both workers finish what they hold and
    /// journal `op.finish`.
    #[test]
    fn strict_tail_failure_ends_the_pooled_run_and_finishes_the_workers() {
        use pmkm_obs::{FieldValue, RingBufferSink};
        let dir = tmpdir("tail_failure");
        // Every chunk loses its back half, so the 3-chunk first cell fails
        // the tail's strict mass check as soon as its last summary arrives,
        // with the 30-chunk second cell streaming. Its chunks take longer to
        // cluster than to cut, so the workers are busy when that happens.
        let paths = vec![write_cell(&dir, 24, 1_200, 3), write_cell(&dir, 25, 12_000, 3)];
        let plan = optimize_fixed_split(
            LogicalPlan::new(paths, KMeansConfig { restarts: 3, ..KMeansConfig::paper(8, 0) }),
            &Resources::fixed(1 << 20, 2),
            400,
        );
        let truncate = FaultPlan { truncate_rate: 1.0, ..FaultPlan::none(5) };
        let ring = Arc::new(RingBufferSink::new(1 << 14));
        let rec = Arc::new(Recorder::new().with_sink(ring.clone()));
        match within_a_minute(&plan, Some(rec), Some(truncate)) {
            Err(EngineError::InvalidPlan(msg)) => assert!(msg.contains("strict"), "{msg}"),
            other => panic!("the tail's strict mass check must fail the run: {other:?}"),
        }
        let field = |e: &pmkm_obs::Event, name: &str| {
            e.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
        };
        let partial = Some(FieldValue::Str("partial-kmeans".into()));
        let mut finished: Vec<_> = ring
            .events()
            .iter()
            .filter(|e| e.name == "op.finish" && field(e, "op") == partial)
            .map(|e| field(e, "clone"))
            .collect();
        finished.sort_by_key(|clone| format!("{clone:?}"));
        assert_eq!(finished, [Some(FieldValue::U64(0)), Some(FieldValue::U64(1))]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_ledger_rollup_reproduces_fault_counters_and_mass() {
        use crate::fault::FaultPolicy;
        use pmkm_obs::{parse_ledger, rollup, LedgerSink, Profiler};
        let dir = tmpdir("ledger_chaos");
        let paths = vec![
            write_cell(&dir, 1, 200, 23),
            write_cell(&dir, 2, 160, 23),
            write_cell(&dir, 3, 120, 23),
        ];
        let mk_plan = || {
            let mut plan = optimize_fixed_split(
                LogicalPlan::new(
                    paths.clone(),
                    KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 31) },
                ),
                &Resources::fixed(1 << 20, 2),
                40,
            );
            plan.fault_policy = FaultPolicy::tolerant();
            plan
        };
        let chaos = Some(FaultPlan::heavy(77));

        // Bare chaos run: the determinism baseline.
        let bare = execute_with_faults(&mk_plan(), None, chaos.clone()).unwrap();

        // Ledger-enabled chaos run with the same seed.
        let ledger = Arc::new(LedgerSink::in_memory());
        let rec = Arc::new(
            Recorder::new().with_sink(ledger.clone()).with_profiler(Arc::new(Profiler::new())),
        );
        let observed = execute_with_faults(&mk_plan(), Some(rec.clone()), chaos).unwrap();

        // Attaching the ledger must not change the clustering.
        assert_eq!(bare.cells.len(), observed.cells.len());
        for (a, b) in bare.cells.iter().zip(&observed.cells) {
            assert_eq!(a.output.centroids, b.output.centroids);
            assert_eq!(a.output.epm, b.output.epm);
            assert_eq!(a.lost_points, b.lost_points);
        }
        assert_eq!(bare.faults, observed.faults);

        // The ledger's rollup reproduces the run report exactly: fault
        // counters count-for-count and mass accounting cell-for-cell.
        let report = observed.run_report(Some(&rec));
        let records = parse_ledger(&ledger.snapshot_jsonl()).unwrap();
        let roll = rollup(&records);
        assert!(roll.faults.any(), "heavy chaos plan injected nothing");
        assert_eq!(roll.faults, report.faults);
        let report_expected: f64 = report.cells.iter().map(|c| c.expected_points).sum();
        let report_lost: f64 = report.cells.iter().map(|c| c.lost_points).sum();
        // Fully-lost cells never reach the report's cell list but do reach
        // the ledger, so the ledger's mass accounting covers at least the
        // report's and never disagrees on what both saw.
        for cell in &report.cells {
            let ledger_cell = roll
                .cells
                .iter()
                .find(|c| c.cell == cell.cell)
                .unwrap_or_else(|| panic!("cell {} missing from ledger", cell.cell));
            assert_eq!(ledger_cell.expected_points, cell.expected_points);
            assert_eq!(ledger_cell.lost_points, cell.lost_points);
            assert_eq!(ledger_cell.lost_chunks, cell.lost_chunks as u64);
            assert_eq!(ledger_cell.degraded, cell.degraded);
        }
        assert!(roll.expected_weight() >= report_expected);
        assert!(roll.lost_weight() >= report_lost);
        // Phases and timing made it into the journal.
        assert_eq!(roll.elapsed_us, report.elapsed.as_micros() as u64);
        assert!(!roll.phases.is_empty());
        assert!(!roll.chunks.is_empty());
        // The mass gauges expose the same ratio on /metrics.
        let ratio = rec.registry().gauge("mass_conservation_ratio").get();
        assert!((ratio - roll.mass_ratio()).abs() < 1e-9, "{ratio} vs {}", roll.mass_ratio());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coreset_mode_clusters_end_to_end_with_bounded_buckets() {
        use crate::plan::CoresetSpec;
        let dir = tmpdir("coreset");
        let paths = vec![write_cell(&dir, 21, 300, 9)];
        let mk_plan = |workers: usize| {
            let mut plan = optimize_fixed_split(
                LogicalPlan::new(
                    paths.clone(),
                    KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 11) },
                ),
                &Resources::fixed(1 << 20, workers),
                30, // 300 points → 10 chunks
            );
            plan.coreset = Some(CoresetSpec::new(32));
            plan
        };
        let report = execute(&mk_plan(3)).unwrap();
        assert_eq!(report.cells.len(), 1);
        let c = &report.cells[0];
        let total: f64 = c.output.cluster_weights.iter().sum();
        assert_eq!(total, 300.0, "coreset weights must conserve the cell mass");
        // Two blobs at 0 and 40: the anytime clustering still finds them.
        let mut xs: Vec<f64> = c.output.centroids.iter().map(|p| p[0]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(xs[0] < 5.0 && xs[xs.len() - 1] > 35.0);
        let stats = c.coreset.expect("coreset stats on a coreset run");
        assert_eq!(stats.builds, 10);
        // 10 chunks → popcount(10) = 2 live buckets, ≤ the log bound.
        assert_eq!(stats.live_buckets, 2);
        assert!(stats.live_buckets as u32 <= 10usize.ilog2() + 1);
        assert_eq!(stats.ingested_points, 300.0);
        // The v7 report block aggregates the tree.
        let run = report.run_report(None);
        let block = run.coreset.expect("coreset block");
        assert_eq!(block.trees, 1);
        assert_eq!(block.builds, 10);
        assert_eq!(block.ingested_points, 300.0);
        // Classic runs keep the block absent.
        let mut classic = mk_plan(3);
        classic.coreset = None;
        assert!(execute(&classic).unwrap().run_report(None).coreset.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
