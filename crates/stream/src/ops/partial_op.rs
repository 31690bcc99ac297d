//! The partial k-means operator — "by far the most expensive computation"
//! (§3.4) and therefore the operator the optimizer clones.
//!
//! Every clone takes chunks from the executor's chunk queue (MPMC work
//! stealing) and returns each chunk's weighted centroids. Per-chunk RNG seeds
//! derive from `(base seed, cell, chunk_id)`, so the clustering of a chunk
//! is identical no matter which clone processes it — cloning changes
//! wall-clock time, never results.

use crate::error::{EngineError, Result};
use crate::fault::{FaultContext, InjectedPanic, EDGE_MERGE};
use crate::item::{ChunkMsg, MergeMsg};
use pmkm_core::coreset::chunk_coreset;
use pmkm_core::partial::{partial_kmeans_observed, PartialOutput};
use pmkm_core::seeding::{derive_seed, rng_for};
use pmkm_core::{Dataset, KMeansConfig, PointSource};
use pmkm_data::GridCell;
use pmkm_obs::{FaultKind, Recorder};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Stream tag for per-(cell, chunk) seeds.
const STREAM_CHUNK: u64 = 0x5354_4348_554E_4B00; // "STCHUNK"

/// Stream tag separating a chunk's coreset-sampling draws from its k-means
/// restart streams (both derive from the same per-chunk seed).
const STREAM_CORESET_BUILD: u64 = 0x4353_4255_494C_4400; // "CSBUILD"

/// Builds one chunk's weighted coreset and wraps it in the partial-output
/// envelope the downstream operators already speak (`best_mse`/iterations
/// zeroed: no Lloyd ran). The RNG derives from the chunk seed, so the
/// summary is identical no matter which clone builds it.
fn build_chunk_coreset(
    points: &Dataset,
    size: usize,
    cfg: &KMeansConfig,
    cell: GridCell,
    chunk_id: usize,
    rec: Option<&Recorder>,
) -> Result<PartialOutput> {
    let started = Instant::now();
    let mut rng = rng_for(cfg.seed, STREAM_CORESET_BUILD);
    let set = chunk_coreset(points, size, &mut rng)?;
    if let Some(rec) = rec {
        rec.registry().counter("coreset_builds_total").inc();
        rec.event(
            "coreset.build",
            &[
                ("cell", cell.index().into()),
                ("chunk", chunk_id.into()),
                ("points", points.len().into()),
                ("size", set.len().into()),
                ("weight", set.total_weight().into()),
            ],
        );
    }
    Ok(PartialOutput {
        points: points.len(),
        best_mse: 0.0,
        restarts: Vec::new(),
        total_iterations: 0,
        elapsed: started.elapsed(),
        best_trajectory: Vec::new(),
        centroids: set,
    })
}

/// The seed used to cluster `(cell, chunk_id)` under `base`. Public so the
/// in-memory pipeline and tests can reproduce engine results exactly.
pub fn chunk_seed(base: u64, cell_index: u32, chunk_id: usize) -> u64 {
    derive_seed(base, STREAM_CHUNK ^ ((cell_index as u64) << 20) ^ chunk_id as u64)
}

/// One clone of the partial k-means operator.
pub struct PartialKMeansOp {
    kmeans: KMeansConfig,
    ctx: FaultContext,
    coreset_size: Option<usize>,
    clone_id: usize,
    /// Chunks handled, journaled by `op.finish`.
    items_in: u64,
}

impl PartialKMeansOp {
    /// Creates one clone.
    pub fn new(kmeans: KMeansConfig, clone_id: usize, ctx: FaultContext) -> Self {
        Self { kmeans, ctx, coreset_size: None, clone_id, items_in: 0 }
    }

    /// Switches the clone into coreset mode (builder style): each chunk is
    /// summarised by a weighted coreset of at most `size` points instead of
    /// best-of-R k-means centroids. All the fault machinery (poison gate,
    /// retries, quarantine) applies unchanged.
    pub fn with_coreset(mut self, size: Option<usize>) -> Self {
        self.coreset_size = size;
        self
    }

    /// Records a quarantined chunk; the returned notice tells the tail the
    /// chunk is gone, so the cell's plan still closes.
    fn quarantine_chunk(&self, cell: GridCell, chunk_id: usize, points: usize) -> MergeMsg {
        self.ctx.fault(
            FaultKind::ChunkQuarantined,
            &[("cell", cell.index().into()), ("chunk", chunk_id.into()), ("points", points.into())],
        );
        MergeMsg::ChunkLost { cell, chunk_id, points }
    }

    /// One chunk: its summary for the tail (weighted centroids, or in
    /// coreset mode a weighted coreset), or — once validation or the retry
    /// budget gives up on the chunk under a quarantining policy — the
    /// `ChunkLost` notice that closes its slot. Under the strict policy a
    /// chunk that panics on its last attempt re-raises the panic.
    pub(crate) fn handle(&mut self, chunk: ChunkMsg) -> Result<MergeMsg> {
        let ChunkMsg { cell, chunk_id, points } = chunk;
        let rec = self.ctx.rec();
        self.items_in += 1;
        // Coalesced by the timeline, so per-chunk cost is one same-state
        // check on the lane of the worker running the cell.
        self.ctx.worker_state(pmkm_obs::WorkerState::Partial);
        // Poison gate: a chunk with non-finite coordinates would corrupt
        // every centroid it touches, so it never reaches the kernel.
        if self.ctx.validate_chunks() && points.as_flat().iter().any(|v| !v.is_finite()) {
            self.ctx.fault(
                FaultKind::ChunkPoisoned,
                &[("cell", cell.index().into()), ("chunk", chunk_id.into())],
            );
            if self.ctx.policy.quarantine {
                return Ok(self.quarantine_chunk(cell, chunk_id, points.len()));
            }
            return Err(EngineError::PoisonedChunk { cell: cell.index(), chunk_id });
        }
        let cfg = KMeansConfig {
            seed: chunk_seed(self.kmeans.seed, cell.index(), chunk_id),
            ..self.kmeans
        };
        // Panic isolation: a crash while clustering one chunk (injected
        // or real) must not take the whole pipeline down. The chunk is
        // retried — deterministically reseeded, so a retry that succeeds
        // yields the exact fault-free result — and quarantined only once
        // the attempt budget is spent.
        let mut attempt = 0usize;
        let started = rec.map(|_| std::time::Instant::now());
        let output = loop {
            let inject = self
                .ctx
                .plan
                .as_deref()
                .is_some_and(|p| p.panic_fault(cell.index(), chunk_id, attempt));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if inject {
                    std::panic::panic_any(InjectedPanic);
                }
                if let Some(size) = self.coreset_size {
                    let _phase = rec.and_then(|r| r.phase("coreset"));
                    build_chunk_coreset(&points, size, &cfg, cell, chunk_id, rec)
                } else {
                    let _phase = rec.and_then(|r| r.phase("partial"));
                    partial_kmeans_observed(&points, &cfg, rec).map_err(EngineError::from)
                }
            }));
            match outcome {
                Ok(result) => break result?,
                Err(payload) => {
                    self.ctx.fault(
                        FaultKind::WorkerPanic,
                        &[
                            ("cell", cell.index().into()),
                            ("chunk", chunk_id.into()),
                            ("attempt", attempt.into()),
                        ],
                    );
                    attempt += 1;
                    if attempt < self.ctx.policy.max_chunk_attempts {
                        self.ctx.fault(
                            FaultKind::ChunkRetry,
                            &[("cell", cell.index().into()), ("chunk", chunk_id.into())],
                        );
                        continue;
                    }
                    if self.ctx.policy.quarantine {
                        return Ok(self.quarantine_chunk(cell, chunk_id, points.len()));
                    }
                    resume_unwind(payload);
                }
            }
        };
        if let Some(rec) = rec {
            let duration_us = started.map_or(0, |t| t.elapsed().as_micros() as u64);
            rec.event(
                "chunk.close",
                &[
                    ("cell", cell.index().into()),
                    ("chunk", chunk_id.into()),
                    ("points", points.len().into()),
                    ("duration_us", duration_us.into()),
                    ("attempts", (attempt + 1).into()),
                ],
            );
        }
        let stall_key = ((cell.index() as u64) << 20) ^ chunk_id as u64;
        self.ctx.maybe_stall(EDGE_MERGE, stall_key);
        Ok(MergeMsg::Partial { cell, chunk_id, output })
    }

    /// Ends the chunk stream, journaling the clone's chunk count as
    /// `op.finish`.
    pub(crate) fn finish(self) {
        if let Some(rec) = self.ctx.rec() {
            rec.event(
                "op.finish",
                &[
                    ("op", "partial-kmeans".into()),
                    ("clone", self.clone_id.into()),
                    ("items_in", self.items_in.into()),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmkm_core::Dataset;
    use pmkm_data::GridCell;

    fn chunk(cell_i: u16, chunk_id: usize, n: usize) -> ChunkMsg {
        let mut points = Dataset::new(2).unwrap();
        for i in 0..n {
            let o = (i % 4) as f64 * 0.1;
            points.push(&[o + if i % 2 == 0 { 0.0 } else { 20.0 }, o]).unwrap();
        }
        ChunkMsg { cell: GridCell::new(cell_i, 0).unwrap(), chunk_id, points }
    }

    #[test]
    fn clusters_each_chunk_and_forwards() {
        let mut op = PartialKMeansOp::new(
            KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 5) },
            0,
            FaultContext::default(),
        );
        let results: Vec<MergeMsg> =
            [chunk(1, 0, 30), chunk(1, 1, 30)].into_iter().map(|c| op.handle(c).unwrap()).collect();
        assert_eq!(op.items_in, 2);
        assert_eq!(results.len(), 2);
        for r in &results {
            match r {
                MergeMsg::Partial { output, .. } => {
                    assert_eq!(output.points, 30);
                    let total: f64 = output.centroids.weights().iter().sum();
                    assert_eq!(total, 30.0);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn chunk_seed_is_unique_per_cell_and_chunk() {
        let mut seen = std::collections::HashSet::new();
        for cell in 0..50u32 {
            for chunk in 0..50usize {
                assert!(seen.insert(chunk_seed(7, cell, chunk)));
            }
        }
    }

    #[test]
    fn result_independent_of_which_clone_processes() {
        // Two separate single-clone runs over permuted chunk orders produce
        // identical per-chunk outputs.
        let run = |order: Vec<ChunkMsg>| {
            let mut op = PartialKMeansOp::new(
                KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 9) },
                0,
                FaultContext::default(),
            );
            let mut out: Vec<(usize, pmkm_core::WeightedSet)> = order
                .into_iter()
                .map(|m| match op.handle(m).unwrap() {
                    MergeMsg::Partial { chunk_id, output, .. } => (chunk_id, output.centroids),
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            out.sort_by_key(|(id, _)| *id);
            out
        };
        let a = run(vec![chunk(1, 0, 24), chunk(1, 1, 24)]);
        let b = run(vec![chunk(1, 1, 24), chunk(1, 0, 24)]);
        assert_eq!(a, b);
    }

    use crate::fault::{FaultContext, FaultPlan, FaultPolicy};

    /// Steps one clone through `msgs` with the given fault context,
    /// stopping at the first error.
    fn run_faulted(msgs: Vec<ChunkMsg>, faults: FaultContext) -> (Result<()>, Vec<MergeMsg>) {
        let mut op = PartialKMeansOp::new(
            KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 5) },
            0,
            faults,
        );
        let mut out = Vec::new();
        for msg in msgs {
            match op.handle(msg) {
                Ok(summary) => out.push(summary),
                Err(e) => return (Err(e), out),
            }
        }
        op.finish();
        (Ok(()), out)
    }

    fn poisoned_chunk() -> ChunkMsg {
        let points =
            Dataset::from_flat_unchecked(2, vec![0.0, 0.0, f64::NAN, 1.0, 2.0, 2.0]).unwrap();
        ChunkMsg { cell: GridCell::new(3, 0).unwrap(), chunk_id: 1, points }
    }

    #[test]
    fn poisoned_chunk_errors_under_strict_policy() {
        let ctx = FaultContext::new(Some(FaultPlan::none(1)), FaultPolicy::strict());
        let (ended, _) = run_faulted(vec![poisoned_chunk()], ctx);
        assert!(matches!(ended, Err(EngineError::PoisonedChunk { chunk_id: 1, .. })));
    }

    #[test]
    fn poisoned_chunk_is_quarantined_under_tolerant_policy() {
        let ctx = FaultContext::new(Some(FaultPlan::none(1)), FaultPolicy::tolerant());
        let (ended, out) = run_faulted(vec![chunk(1, 0, 30), poisoned_chunk()], ctx.clone());
        ended.unwrap();
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], MergeMsg::Partial { chunk_id: 0, .. }));
        assert!(
            matches!(out[1], MergeMsg::ChunkLost { chunk_id: 1, points: 3, .. }),
            "got {:?}",
            out[1]
        );
        let snap = ctx.counters.snapshot();
        assert_eq!(snap.chunks_poisoned, 1);
        assert_eq!(snap.chunks_quarantined, 1);
    }

    #[test]
    fn transient_panic_retries_to_the_fault_free_result() {
        let clean = run_faulted(vec![chunk(1, 0, 30)], FaultContext::default());
        // panic_rate 1 + sticky 0: every chunk panics on attempt 0 only.
        let plan = FaultPlan { panic_rate: 1.0, panic_sticky_fraction: 0.0, ..FaultPlan::none(9) };
        let ctx = FaultContext::new(Some(plan), FaultPolicy::tolerant());
        let (ended, out) = run_faulted(vec![chunk(1, 0, 30)], ctx.clone());
        ended.unwrap();
        // The retry re-derives the chunk seed, so the surviving result is
        // bit-identical to the fault-free run (`elapsed` is wall clock and
        // excluded from the comparison).
        let centroids = |msgs: &[MergeMsg]| {
            msgs.iter()
                .map(|m| match m {
                    MergeMsg::Partial { output, .. } => output.centroids.clone(),
                    other => panic!("unexpected {other:?}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(centroids(&out), centroids(&clean.1));
        let snap = ctx.counters.snapshot();
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.chunk_retries, 1);
        assert_eq!(snap.chunks_quarantined, 0);
    }

    #[test]
    fn sticky_panic_exhausts_attempts_and_quarantines() {
        let plan = FaultPlan { panic_rate: 1.0, panic_sticky_fraction: 1.0, ..FaultPlan::none(9) };
        let ctx = FaultContext::new(Some(plan), FaultPolicy::tolerant());
        let (ended, out) = run_faulted(vec![chunk(2, 4, 30)], ctx.clone());
        ended.unwrap();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], MergeMsg::ChunkLost { chunk_id: 4, points: 30, .. }));
        let snap = ctx.counters.snapshot();
        assert_eq!(snap.worker_panics, FaultPolicy::tolerant().max_chunk_attempts as u64);
        assert_eq!(snap.chunks_quarantined, 1);
    }

    #[test]
    fn sticky_panic_under_strict_policy_propagates() {
        let plan = FaultPlan { panic_rate: 1.0, panic_sticky_fraction: 1.0, ..FaultPlan::none(9) };
        let ctx = FaultContext::new(Some(plan), FaultPolicy::strict());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_faulted(vec![chunk(2, 4, 30)], ctx)
        }));
        let payload = caught.expect_err("strict policy must re-raise the panic");
        assert!(payload.downcast_ref::<crate::fault::InjectedPanic>().is_some());
    }
}
