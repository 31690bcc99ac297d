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
    policy: ChunkPolicy,
    ctx: FaultContext,
    cells: HashMap<GridCell, CellState>,
}

impl ChunkerOp {
    /// Creates the operator.
    pub fn new(policy: ChunkPolicy, ctx: FaultContext) -> Self {
        Self { policy, ctx, cells: HashMap::new() }
    }

    /// One scan message. A batch is buffered and every chunk it fills is
    /// handed to `emit`; a cell's end hands on the cell's last, short chunk
    /// and returns the cell's plan, which goes to the tail.
    pub(crate) fn handle(
        &mut self,
        msg: ScanMsg,
        emit: &mut impl FnMut(ChunkMsg) -> Result<()>,
    ) -> Result<Option<MergeMsg>> {
        match msg {
            ScanMsg::Batch { cell, points } => {
                if !points.is_empty() {
                    self.buffer(cell, &points)?;
                    while let Some(chunk) = self.cut(cell, false)? {
                        self.hand_on(chunk, emit)?;
                    }
                }
                Ok(None)
            }
            ScanMsg::CellEnd { cell, expected_points } => {
                if let Some(chunk) = self.cut(cell, true)? {
                    self.hand_on(chunk, emit)?;
                }
                // An empty bucket never opened a state: zero chunks.
                let chunks = self.cells.remove(&cell).map_or(0, |state| state.next_chunk);
                Ok(Some(MergeMsg::CellPlan { cell, chunks, expected_points }))
            }
        }
    }

    /// Appends a batch to its cell's buffer, under the `chunk` span.
    fn buffer(&mut self, cell: GridCell, points: &Dataset) -> Result<()> {
        let _phase = self.ctx.rec().and_then(|r| r.phase("chunk"));
        let state = match self.cells.entry(cell) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(CellState {
                buffer: Dataset::new(points.dim())?,
                next_chunk: 0,
                points_per_chunk: self.policy.points_per_chunk(points.dim())?,
            }),
        };
        state.buffer.extend_from(points)?;
        Ok(())
    }

    /// Cuts the cell's next chunk under the `chunk` span: a full one, or
    /// with `flush` whatever is left. Scheduled corruption is applied here.
    fn cut(&mut self, cell: GridCell, flush: bool) -> Result<Option<ChunkMsg>> {
        let Some(state) = self.cells.get_mut(&cell) else { return Ok(None) };
        let n = state.buffer.len().min(state.points_per_chunk);
        if n == 0 || (n < state.points_per_chunk && !flush) {
            return Ok(None);
        }
        let _phase = self.ctx.rec().and_then(|r| r.phase("chunk"));
        let points = split_front(&mut state.buffer, n)?;
        let chunk_id = state.next_chunk;
        state.next_chunk += 1;
        let points = corrupt_chunk(&self.ctx, cell, chunk_id, points);
        if let Some(rec) = self.ctx.rec() {
            rec.registry()
                .histogram("chunk_points", &pmkm_core::pipeline::CHUNK_SIZE_BOUNDS)
                .observe(points.len() as f64);
        }
        Ok(Some(ChunkMsg { cell, chunk_id, points }))
    }

    /// Hands one chunk on, after any stall the fault plan schedules for it.
    fn hand_on(
        &self,
        chunk: ChunkMsg,
        emit: &mut impl FnMut(ChunkMsg) -> Result<()>,
    ) -> Result<()> {
        let stall_key = ((chunk.cell.index() as u64) << 20) ^ chunk.chunk_id as u64;
        self.ctx.maybe_stall(EDGE_CHUNKS, stall_key);
        emit(chunk)
    }
}

/// Applies any scheduled corruption to an outgoing chunk — the chunker is
/// where truncated and NaN-poisoned payloads enter the pipeline.
fn corrupt_chunk(ctx: &FaultContext, cell: GridCell, chunk_id: usize, points: Dataset) -> Dataset {
    let Some(plan) = ctx.plan.as_deref() else { return points };
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
            let idx =
                (plan.seed ^ ((cell.index() as u64) << 20) ^ chunk_id as u64) as usize % flat.len();
            flat[idx] = f64::NAN;
            Dataset::from_flat_unchecked(dim, flat).expect("shape unchanged")
        }
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

    /// Steps the chunker through `msgs` with a fault context attached.
    fn drive_faulted(
        msgs: Vec<ScanMsg>,
        policy: ChunkPolicy,
        faults: FaultContext,
    ) -> (Vec<ChunkMsg>, Vec<MergeMsg>) {
        let mut op = ChunkerOp::new(policy, faults);
        let (mut chunks, mut plans) = (Vec::new(), Vec::new());
        for msg in msgs {
            let plan = op.handle(msg, &mut |chunk| {
                chunks.push(chunk);
                Ok(())
            });
            plans.extend(plan.unwrap());
        }
        (chunks, plans)
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
        // dim 2 needs 16 B per point.
        let mut op =
            ChunkerOp::new(ChunkPolicy::MemoryBudget { bytes: 8 }, FaultContext::default());
        let res = op.handle(batch(cell(0), 3, 0), &mut |_| Ok(()));
        assert!(matches!(res, Err(EngineError::InvalidPlan(_))));
    }

    #[test]
    fn split_front_takes_prefix() {
        let mut ds = Dataset::from_rows(&[[0.0], [1.0], [2.0], [3.0]]).unwrap();
        let front = split_front(&mut ds, 3).unwrap();
        assert_eq!(front.as_flat(), &[0.0, 1.0, 2.0]);
        assert_eq!(ds.as_flat(), &[3.0]);
    }
}
