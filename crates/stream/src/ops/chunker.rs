//! The chunker operator: point batches → memory-sized partitions.
//!
//! This operator realizes the memory adaptation of §3.2: it accumulates at
//! most one partition's worth of points per cell (`budget / (dim × 8)`
//! points) and emits each partition as soon as it fills, so chunks stream
//! into the partial operators while the scan is still running. On a cell's
//! end marker it flushes the remainder and tells the merge operator how
//! many partials to expect.

use crate::error::{EngineError, Result};
use crate::fault::{ChunkFault, FaultContext, EDGE_CHUNKS};
use crate::item::{ChunkMsg, MergeMsg, ScanMsg};
use crate::queue::{QueueConsumer, QueueProducer};
use crate::telemetry::{OpMeter, OpStats};
use pmkm_core::{Dataset, PointSource};
use pmkm_data::GridCell;
use std::collections::HashMap;

/// How partition sizes are decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkPolicy {
    /// Points per chunk from a volatile-memory byte budget (resolved per
    /// cell from its dimensionality).
    MemoryBudget {
        /// Budget for one chunk's payload, in bytes.
        bytes: usize,
    },
    /// Fixed points per chunk (used to pin the paper's 5-/10-splits).
    FixedPoints(usize),
}

impl ChunkPolicy {
    fn points_per_chunk(&self, dim: usize) -> Result<usize> {
        let points = match *self {
            ChunkPolicy::MemoryBudget { bytes } => bytes / (dim * std::mem::size_of::<f64>()),
            ChunkPolicy::FixedPoints(p) => p,
        };
        if points == 0 {
            return Err(EngineError::InvalidPlan(format!(
                "chunk policy {self:?} cannot hold one {dim}-dimensional point"
            )));
        }
        Ok(points)
    }
}

struct CellState {
    buffer: Dataset,
    next_chunk: usize,
    points_per_chunk: usize,
}

/// The chunker operator.
pub struct ChunkerOp {
    input: QueueConsumer<ScanMsg>,
    chunks_out: QueueProducer<ChunkMsg>,
    plan_out: QueueProducer<MergeMsg>,
    policy: ChunkPolicy,
    ctx: FaultContext,
}

impl ChunkerOp {
    /// Creates the operator.
    pub fn new(
        input: QueueConsumer<ScanMsg>,
        chunks_out: QueueProducer<ChunkMsg>,
        plan_out: QueueProducer<MergeMsg>,
        policy: ChunkPolicy,
        ctx: FaultContext,
    ) -> Self {
        Self { input, chunks_out, plan_out, policy, ctx }
    }

    fn observe_chunk(&self, points: usize) {
        if let Some(rec) = self.ctx.rec() {
            rec.registry()
                .histogram("chunk_points", &pmkm_core::pipeline::CHUNK_SIZE_BOUNDS)
                .observe(points as f64);
        }
    }

    /// Applies any scheduled corruption to an outgoing chunk — the chunker
    /// is where truncated and NaN-poisoned payloads enter the pipeline.
    fn corrupt_chunk(&self, cell: GridCell, chunk_id: usize, points: Dataset) -> Dataset {
        let Some(plan) = self.ctx.plan.as_deref() else { return points };
        match plan.chunk_fault(cell.index(), chunk_id) {
            None => points,
            Some(ChunkFault::Truncate) => {
                let dim = points.dim();
                let keep = points.len().div_ceil(2);
                let mut flat = points.into_flat();
                flat.truncate(keep * dim);
                Dataset::from_flat(dim, flat).expect("prefix of a valid chunk")
            }
            Some(ChunkFault::Poison) => {
                let dim = points.dim();
                let mut flat = points.into_flat();
                let idx = (plan.seed ^ ((cell.index() as u64) << 20) ^ chunk_id as u64) as usize
                    % flat.len();
                flat[idx] = f64::NAN;
                Dataset::from_flat_unchecked(dim, flat).expect("shape unchanged")
            }
        }
    }

    /// Runs to completion.
    pub fn run(self) -> Result<OpStats> {
        let mut meter = OpMeter::new("chunker", 0);
        let mut cells: HashMap<GridCell, CellState> = HashMap::new();
        while let Some(msg) = meter.wait(|| self.input.recv()) {
            meter.item_in();
            // Span covers message processing only, never the recv wait above.
            let _phase = self.ctx.rec().and_then(|r| r.phase("chunk"));
            match msg {
                ScanMsg::Batch { cell, points } => {
                    if points.is_empty() {
                        continue;
                    }
                    let policy = self.policy;
                    let state = match cells.entry(cell) {
                        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            let ppc = policy.points_per_chunk(points.dim())?;
                            e.insert(CellState {
                                buffer: Dataset::new(points.dim())?,
                                next_chunk: 0,
                                points_per_chunk: ppc,
                            })
                        }
                    };
                    state.buffer.extend_from(&points)?;
                    while state.buffer.len() >= state.points_per_chunk {
                        let chunk = split_front(&mut state.buffer, state.points_per_chunk)?;
                        let chunk_id = state.next_chunk;
                        let chunk = self.corrupt_chunk(cell, chunk_id, chunk);
                        self.observe_chunk(chunk.len());
                        let msg = ChunkMsg { cell, chunk_id, points: chunk };
                        state.next_chunk += 1;
                        meter.item_out();
                        let stall_key = ((cell.index() as u64) << 20) ^ chunk_id as u64;
                        meter
                            .wait(|| {
                                self.ctx.maybe_stall(EDGE_CHUNKS, stall_key);
                                self.chunks_out.send(msg)
                            })
                            .map_err(|_| EngineError::Disconnected("chunker→partial"))?;
                    }
                }
                ScanMsg::CellEnd { cell, expected_points } => {
                    let chunks = match cells.remove(&cell) {
                        Some(mut state) => {
                            if !state.buffer.is_empty() {
                                let points = std::mem::replace(
                                    &mut state.buffer,
                                    Dataset::new(1).expect("dim 1 is valid"),
                                );
                                let chunk_id = state.next_chunk;
                                let points = self.corrupt_chunk(cell, chunk_id, points);
                                self.observe_chunk(points.len());
                                let msg = ChunkMsg { cell, chunk_id, points };
                                state.next_chunk += 1;
                                meter.item_out();
                                let stall_key = ((cell.index() as u64) << 20) ^ chunk_id as u64;
                                meter
                                    .wait(|| {
                                        self.ctx.maybe_stall(EDGE_CHUNKS, stall_key);
                                        self.chunks_out.send(msg)
                                    })
                                    .map_err(|_| EngineError::Disconnected("chunker→partial"))?;
                            }
                            state.next_chunk
                        }
                        None => 0, // empty bucket: zero chunks
                    };
                    meter.item_out();
                    if let Some(rec) = self.ctx.rec() {
                        rec.event(
                            "chunker.cell_plan",
                            &[("cell", cell.index().into()), ("chunks", chunks.into())],
                        );
                    }
                    meter
                        .wait(|| {
                            self.plan_out
                                .send(MergeMsg::CellPlan { cell, chunks, expected_points })
                                .map_err(drop)
                        })
                        .map_err(|_| EngineError::Disconnected("chunker→merge"))?;
                }
            }
        }
        Ok(meter.finish())
    }
}

/// Removes and returns the first `n` points of `ds` (requires `n ≤ len`).
fn split_front(ds: &mut Dataset, n: usize) -> Result<Dataset> {
    let dim = ds.dim();
    let mut flat = std::mem::replace(ds, Dataset::new(dim)?).into_flat();
    let rest = flat.split_off(n * dim);
    *ds = Dataset::from_flat(dim, rest)?;
    Ok(Dataset::from_flat(dim, flat)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::SmartQueue;

    fn cell(i: u16) -> GridCell {
        GridCell::new(i, i).unwrap()
    }

    fn batch(c: GridCell, n: usize, start: usize) -> ScanMsg {
        let mut points = Dataset::new(2).unwrap();
        for i in 0..n {
            points.push(&[(start + i) as f64, 0.0]).unwrap();
        }
        ScanMsg::Batch { cell: c, points }
    }

    /// Drives the chunker over `msgs` and returns (chunks, merge msgs).
    fn drive(msgs: Vec<ScanMsg>, policy: ChunkPolicy) -> (Vec<ChunkMsg>, Vec<MergeMsg>) {
        drive_faulted(msgs, policy, FaultContext::default())
    }

    #[test]
    fn fixed_points_chunking_cuts_exact_chunks() {
        let c = cell(3);
        let (chunks, merges) = drive(
            vec![batch(c, 7, 0), batch(c, 6, 7), ScanMsg::CellEnd { cell: c, expected_points: 13 }],
            ChunkPolicy::FixedPoints(5),
        );
        // 13 points at 5/chunk → chunks of 5, 5, 3.
        let sizes: Vec<usize> = chunks.iter().map(|m| m.points.len()).collect();
        assert_eq!(sizes, vec![5, 5, 3]);
        let ids: Vec<usize> = chunks.iter().map(|m| m.chunk_id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(merges, vec![MergeMsg::CellPlan { cell: c, chunks: 3, expected_points: 13 }]);
        // Points survive in order.
        let all: Vec<f64> = chunks.iter().flat_map(|m| m.points.as_flat().to_vec()).collect();
        let xs: Vec<f64> = all.chunks(2).map(|p| p[0]).collect();
        assert_eq!(xs, (0..13).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn memory_budget_resolves_per_dim() {
        let c = cell(4);
        // dim 2 → 16 B per point; 64 B budget → 4 points per chunk.
        let (chunks, _) = drive(
            vec![batch(c, 10, 0), ScanMsg::CellEnd { cell: c, expected_points: 10 }],
            ChunkPolicy::MemoryBudget { bytes: 64 },
        );
        let sizes: Vec<usize> = chunks.iter().map(|m| m.points.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn interleaved_cells_are_kept_separate() {
        let (a, b) = (cell(1), cell(2));
        let (chunks, merges) = drive(
            vec![
                batch(a, 3, 0),
                batch(b, 4, 100),
                batch(a, 3, 3),
                ScanMsg::CellEnd { cell: a, expected_points: 6 },
                ScanMsg::CellEnd { cell: b, expected_points: 4 },
            ],
            ChunkPolicy::FixedPoints(4),
        );
        let a_chunks: Vec<&ChunkMsg> = chunks.iter().filter(|m| m.cell == a).collect();
        let b_chunks: Vec<&ChunkMsg> = chunks.iter().filter(|m| m.cell == b).collect();
        assert_eq!(a_chunks.iter().map(|m| m.points.len()).sum::<usize>(), 6);
        assert_eq!(b_chunks.iter().map(|m| m.points.len()).sum::<usize>(), 4);
        assert_eq!(merges.len(), 2);
    }

    #[test]
    fn empty_cell_reports_zero_chunks() {
        let c = cell(9);
        let (chunks, merges) = drive(
            vec![ScanMsg::CellEnd { cell: c, expected_points: 0 }],
            ChunkPolicy::FixedPoints(5),
        );
        assert!(chunks.is_empty());
        assert_eq!(merges, vec![MergeMsg::CellPlan { cell: c, chunks: 0, expected_points: 0 }]);
    }

    /// Drives the chunker with a fault plan attached.
    fn drive_faulted(
        msgs: Vec<ScanMsg>,
        policy: ChunkPolicy,
        faults: FaultContext,
    ) -> (Vec<ChunkMsg>, Vec<MergeMsg>) {
        let q_in: SmartQueue<ScanMsg> = SmartQueue::new("in", 128);
        let q_chunks: SmartQueue<ChunkMsg> = SmartQueue::new("chunks", 128);
        let q_merge: SmartQueue<MergeMsg> = SmartQueue::new("merge", 128);
        let p_in = q_in.producer();
        let op = ChunkerOp::new(
            q_in.consumer(),
            q_chunks.producer(),
            q_merge.producer(),
            policy,
            faults,
        );
        let c_chunks = q_chunks.consumer();
        let c_merge = q_merge.consumer();
        q_in.seal();
        q_chunks.seal();
        q_merge.seal();
        for m in msgs {
            p_in.send(m).unwrap();
        }
        drop(p_in);
        op.run().unwrap();
        let chunks: Vec<ChunkMsg> = std::iter::from_fn(|| c_chunks.recv()).collect();
        let merges: Vec<MergeMsg> = std::iter::from_fn(|| c_merge.recv()).collect();
        (chunks, merges)
    }

    #[test]
    fn heavy_fault_plan_corrupts_some_chunks_deterministically() {
        use crate::fault::{FaultPlan, FaultPolicy};
        let c = cell(5);
        let msgs = || vec![batch(c, 40, 0), ScanMsg::CellEnd { cell: c, expected_points: 40 }];
        // Deterministically pick a seed whose schedule truncates at least
        // one of the 8 chunks and poisons another (pure plan queries).
        let seed = (0..500)
            .find(|&s| {
                let p = FaultPlan::heavy(s);
                let faults: Vec<_> = (0..8).map(|id| p.chunk_fault(c.index(), id)).collect();
                faults.contains(&Some(ChunkFault::Truncate))
                    && faults.contains(&Some(ChunkFault::Poison))
            })
            .expect("some seed under 500 schedules both fault kinds");
        let ctx = || {
            FaultContext::new(
                Some(FaultPlan { stall_rate: 0.0, ..FaultPlan::heavy(seed) }),
                FaultPolicy::tolerant(),
            )
        };
        let (chunks_a, merges_a) = drive_faulted(msgs(), ChunkPolicy::FixedPoints(5), ctx());
        let (chunks_b, _) = drive_faulted(msgs(), ChunkPolicy::FixedPoints(5), ctx());
        // The plan still promises every scanned point — corruption is
        // discovered downstream, so the chunker's accounting is untouched.
        assert_eq!(merges_a, vec![MergeMsg::CellPlan { cell: c, chunks: 8, expected_points: 40 }]);
        // Same seed → byte-identical corruption, regardless of run.
        for (a, b) in chunks_a.iter().zip(&chunks_b) {
            assert_eq!(a.points.as_flat().to_bits_vec(), b.points.as_flat().to_bits_vec());
        }
        // The seed search above guarantees both corruption kinds appear.
        let truncated = chunks_a.iter().filter(|m| m.points.len() < 5).count();
        let poisoned =
            chunks_a.iter().filter(|m| m.points.as_flat().iter().any(|v| v.is_nan())).count();
        assert!(truncated > 0, "expected at least one truncated chunk");
        assert!(poisoned > 0, "expected at least one poisoned chunk");
    }

    #[test]
    fn no_plan_means_no_corruption() {
        use crate::fault::FaultPolicy;
        let c = cell(6);
        let msgs = vec![batch(c, 10, 0), ScanMsg::CellEnd { cell: c, expected_points: 10 }];
        let (chunks, _) = drive_faulted(
            msgs,
            ChunkPolicy::FixedPoints(4),
            FaultContext::new(None, FaultPolicy::tolerant()),
        );
        let sizes: Vec<usize> = chunks.iter().map(|m| m.points.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        assert!(chunks.iter().all(|m| m.points.as_flat().iter().all(|v| v.is_finite())));
    }

    trait ToBits {
        fn to_bits_vec(&self) -> Vec<u64>;
    }
    impl ToBits for [f64] {
        fn to_bits_vec(&self) -> Vec<u64> {
            self.iter().map(|v| v.to_bits()).collect()
        }
    }

    #[test]
    fn budget_smaller_than_point_is_error() {
        let q_in: SmartQueue<ScanMsg> = SmartQueue::new("in", 8);
        let q_chunks: SmartQueue<ChunkMsg> = SmartQueue::new("chunks", 8);
        let q_merge: SmartQueue<MergeMsg> = SmartQueue::new("merge", 8);
        let p = q_in.producer();
        let op = ChunkerOp::new(
            q_in.consumer(),
            q_chunks.producer(),
            q_merge.producer(),
            ChunkPolicy::MemoryBudget { bytes: 8 }, // dim 2 needs 16
            FaultContext::default(),
        );
        let _cc = q_chunks.consumer();
        let _cm = q_merge.consumer();
        q_in.seal();
        q_chunks.seal();
        q_merge.seal();
        p.send(batch(cell(0), 3, 0)).unwrap();
        drop(p);
        assert!(matches!(op.run(), Err(EngineError::InvalidPlan(_))));
    }

    #[test]
    fn split_front_takes_prefix() {
        let mut ds = Dataset::from_rows(&[[0.0], [1.0], [2.0], [3.0]]).unwrap();
        let front = split_front(&mut ds, 3).unwrap();
        assert_eq!(front.as_flat(), &[0.0, 1.0, 2.0]);
        assert_eq!(ds.as_flat(), &[3.0]);
    }
}
