//! The tail operator: per-cell consumer of the partial results.
//!
//! A stream clusterer is *update(chunk summary)* + *query()* over a
//! summary structure (Zhang, Tangwongsan & Tirthapura). This operator owns
//! everything about that loop that is protocol — per-cell state, duplicate
//! detection, the contiguous-prefix drain that hands chunks to the summary
//! in chunk-id order whatever order the workers finished in, completeness
//! against the chunker's [`MergeMsg::CellPlan`], strict-vs-degraded
//! handling of lost mass, the `cell.close` mass audit, the send — over one
//! binary-counter merge-reduce [`CoresetTree`] per cell, whose answer is the
//! collective merge over the union of its live buckets:
//!
//! * **classic** — the paper's merge (§3.3) is the tree of
//!   [`CoresetConfig::buffer`]: no union outgrows its bucket, so the
//!   reduction never fires, the union is every chunk's weighted centroids
//!   in chunk-id order, and the query is one weighted k-means over all of
//!   them. The classic wire shows none of the tree's bookkeeping.
//! * **coreset** — a tree of bounded buckets: live memory is
//!   `levels × size` representatives however long the stream, an anytime
//!   query is published to the status probe on every level-up, and the
//!   final answer *is* that same query over the finished tree.
//!
//! Because chunks reach the tree in chunk-id order, a replay with a
//! different worker count is bit-identical.

use crate::error::{EngineError, Result};
use crate::fault::FaultContext;
use crate::item::{CellClustering, MergeMsg};
use crate::plan::{CoresetSpec, LogicalPlan};
use pmkm_core::coreset::{CoresetConfig, CoresetTree};
use pmkm_core::merge::MergeOutput;
use pmkm_core::partial::PartialOutput;
use pmkm_core::pipeline::ChunkStats;
use pmkm_core::KMeansConfig;
use pmkm_data::GridCell;
use pmkm_obs::{CoresetStatus, FaultKind, Recorder, WorkerState};
use std::collections::{BTreeMap, HashMap};

/// What tells the two tails apart on the wire: names, never behaviour.
struct Wire {
    /// Operator name in errors and the profiler's stage list.
    op: &'static str,
    /// Event announcing a finished merge clustering (a coreset tree
    /// journals its queries as they happen instead).
    done_event: Option<&'static str>,
    /// Counter of cells answered.
    cells_counter: &'static str,
    /// Timeline state stamped when a chunk reaches the summary.
    insert_state: Option<WorkerState>,
}

const MERGE: Wire = Wire {
    op: "merge",
    done_event: Some("merge.done"),
    cells_counter: "merge_cells_total",
    insert_state: None,
};

const CORESET: Wire = Wire {
    op: "coreset",
    done_event: None,
    cells_counter: "coreset_cells_total",
    insert_state: Some(WorkerState::Compact),
};

/// Per-cell protocol state around the summary.
struct CellState {
    /// The chunks drained so far.
    tree: CoresetTree,
    /// Arrived but not yet drained (waiting for earlier chunk ids).
    pending: BTreeMap<usize, PartialOutput>,
    /// Quarantined but not yet drained: `chunk_id → points lost`.
    pending_lost: BTreeMap<usize, usize>,
    /// Next chunk id the contiguous drain expects.
    next_chunk: usize,
    /// Chunks the chunker announced (known once the plan arrives).
    expected: Option<usize>,
    /// Points the bucket header promised (known once the plan arrives).
    expected_points: usize,
    lost_chunks: usize,
    /// Points of the chunks noted lost so far.
    lost_points: usize,
    chunk_stats: Vec<ChunkStats>,
    trajectories: Vec<Vec<f64>>,
}

impl CellState {
    fn complete(&self) -> bool {
        self.expected == Some(self.chunk_stats.len() + self.lost_chunks)
            && self.pending.is_empty()
            && self.pending_lost.is_empty()
    }

    fn note_lost(&mut self, points: usize) {
        self.tree.note_lost(points as f64);
        self.lost_chunks += 1;
        self.lost_points += points;
    }
}

/// The tail operator.
pub struct TailOp {
    kmeans: KMeansConfig,
    merge_restarts: usize,
    /// `Some` bounds each cell's tree; `None` is the paper's buffer.
    coreset: Option<CoresetSpec>,
    wire: &'static Wire,
    ctx: FaultContext,
    /// Cells with a message seen and no answer sent yet.
    cells: HashMap<GridCell, CellState>,
}

impl TailOp {
    /// Creates the operator: the paper's buffering merge, or with a
    /// `coreset` spec the bounded-memory tree.
    pub fn new(logical: &LogicalPlan, coreset: Option<CoresetSpec>, ctx: FaultContext) -> Self {
        let wire = if coreset.is_some() { &CORESET } else { &MERGE };
        Self {
            kmeans: logical.kmeans,
            merge_restarts: logical.merge_restarts,
            wire,
            coreset,
            ctx,
            cells: HashMap::new(),
        }
    }

    /// The operator's name: `"merge"` or `"coreset"`.
    pub fn name(&self) -> &'static str {
        self.wire.op
    }

    /// One message from the chunker or a partial clone. A cell it completes
    /// is answered and handed to `emit`; under the strict policy a
    /// duplicate, or a completed cell with missing mass, is an error.
    pub(crate) fn handle(
        &mut self,
        msg: MergeMsg,
        emit: &mut impl FnMut(CellClustering) -> Result<()>,
    ) -> Result<()> {
        let (MergeMsg::Partial { cell, .. }
        | MergeMsg::CellPlan { cell, .. }
        | MergeMsg::ChunkLost { cell, .. }) = msg;
        let mut state = match self.cells.remove(&cell) {
            Some(state) => state,
            None => self.open(cell)?,
        };
        match msg {
            MergeMsg::CellPlan { chunks, expected_points, .. } => {
                state.expected_points = expected_points;
                if state.expected.replace(chunks).is_some() {
                    return Err(EngineError::InvalidPlan(format!(
                        "duplicate cell plan for cell {}",
                        cell.index()
                    )));
                }
            }
            MergeMsg::Partial { chunk_id, .. } | MergeMsg::ChunkLost { chunk_id, .. }
                if chunk_id < state.next_chunk
                    || state.pending.contains_key(&chunk_id)
                    || state.pending_lost.contains_key(&chunk_id) =>
            {
                return Err(EngineError::InvalidPlan(format!(
                    "duplicate chunk {chunk_id} for cell {}",
                    cell.index()
                )));
            }
            MergeMsg::Partial { chunk_id, output, .. } => {
                state.pending.insert(chunk_id, output);
                self.drain(cell, &mut state)?;
            }
            MergeMsg::ChunkLost { chunk_id, points, .. } => {
                state.pending_lost.insert(chunk_id, points);
                self.drain(cell, &mut state)?;
            }
        }
        if state.complete() {
            return self.finish_cell(cell, state, false, emit);
        }
        self.cells.insert(cell, state);
        Ok(())
    }

    /// Ends the partial stream. Under the strict policy a cell still open
    /// is an error (lost messages — a broken pipeline); under a
    /// degraded-merge policy each answers from whatever survived and the
    /// lost mass is reported.
    pub(crate) fn finish(
        mut self,
        emit: &mut impl FnMut(CellClustering) -> Result<()>,
    ) -> Result<()> {
        if !self.cells.is_empty() {
            if self.ctx.strict_mass_check() {
                let lowest = self.cells.keys().map(GridCell::index).min().expect("non-empty");
                return Err(EngineError::InvalidPlan(format!(
                    "stream ended with {} incomplete cell(s), e.g. cell {lowest}",
                    self.cells.len()
                )));
            }
            // Degraded path: the stream died mid-cell; answer from what
            // survived.
            let mut rest: Vec<(GridCell, CellState)> = self.cells.drain().collect();
            rest.sort_by_key(|(cell, _)| cell.index());
            for (cell, state) in rest {
                self.finish_cell(cell, state, true, emit)?;
            }
        }
        Ok(())
    }

    /// Fresh per-cell state with an empty tree.
    fn open(&self, cell: GridCell) -> Result<CellState> {
        let cfg = self.coreset.as_ref().map_or_else(CoresetConfig::buffer, CoresetSpec::config);
        Ok(CellState {
            tree: CoresetTree::new(cfg, self.kmeans.seed, cell.index())?,
            pending: BTreeMap::new(),
            pending_lost: BTreeMap::new(),
            next_chunk: 0,
            expected: None,
            expected_points: 0,
            lost_chunks: 0,
            lost_points: 0,
            chunk_stats: Vec::new(),
            trajectories: Vec::new(),
        })
    }

    /// Feeds the contiguous prefix of buffered chunks into the tree,
    /// so insertion order — and therefore every compaction and the merge's
    /// input order — is a pure function of the plan, not of worker
    /// scheduling.
    fn drain(&mut self, cell: GridCell, state: &mut CellState) -> Result<()> {
        loop {
            let chunk_id = state.next_chunk;
            if let Some(output) = state.pending.remove(&chunk_id) {
                self.insert(cell, state, chunk_id, output)?;
            } else if let Some(points) = state.pending_lost.remove(&chunk_id) {
                state.note_lost(points);
            } else {
                return Ok(());
            }
            state.next_chunk = chunk_id + 1;
        }
    }

    /// Hands one chunk's summary to the tree. A coreset tree journals the
    /// compactions and evictions the insert caused and refreshes the
    /// anytime probe when it grew a level.
    fn insert(
        &mut self,
        cell: GridCell,
        state: &mut CellState,
        chunk_id: usize,
        output: PartialOutput,
    ) -> Result<()> {
        if let Some(stamp) = self.wire.insert_state {
            self.ctx.worker_state(stamp);
        }
        let PartialOutput {
            centroids,
            points,
            best_mse,
            total_iterations,
            elapsed,
            best_trajectory,
            ..
        } = output;
        let first = state.chunk_stats.is_empty();
        state.chunk_stats.push(ChunkStats {
            chunk: chunk_id,
            points,
            best_mse,
            total_iterations,
            elapsed,
        });
        state.trajectories.push(best_trajectory);
        let tree = &mut state.tree;
        let before_level = tree.max_level();
        let outcome = tree.insert_chunk(chunk_id, centroids, points as f64)?;
        let Some(spec) = &self.coreset else {
            // The paper's buffer: its carries only concatenate, and the
            // classic wire journals none of them.
            return Ok(());
        };
        if let Some(rec) = self.ctx.rec() {
            for ev in &outcome.evictions {
                rec.registry().counter("coreset_evictions_total").inc();
                rec.event(
                    "coreset.evict",
                    &[
                        ("cell", cell.index().into()),
                        ("level", u64::from(ev.level).into()),
                        ("size", ev.size.into()),
                        ("weight", ev.weight.into()),
                        ("points", ev.points.into()),
                    ],
                );
            }
            for cp in &outcome.compactions {
                rec.registry().counter("coreset_compactions_total").inc();
                rec.event(
                    "coreset.compact",
                    &[
                        ("cell", cell.index().into()),
                        ("level", u64::from(cp.level).into()),
                        ("size", cp.size.into()),
                        ("weight", cp.weight.into()),
                        ("consumed_weight", cp.consumed_weight.into()),
                        ("live_buckets", tree.live_buckets().into()),
                        ("live_weight", tree.live_weight().into()),
                    ],
                );
            }
        }
        // Refresh the probe's mid-stream clustering when the tree grows a
        // level (plus once on the very first chunk) — O(log chunks)
        // anytime queries per cell, each O(levels × size) input points.
        if spec.probe.is_some() && (first || tree.max_level() > before_level) {
            self.query(cell, tree)?;
        }
        Ok(())
    }

    /// Runs the query (weighted Lloyd over the live-bucket union) under the
    /// `merge` phase. A coreset tree's query is also journaled and published
    /// to the plan's live status probe. The final clustering *is* the query
    /// over the finished tree — there is no separate terminal merge, which
    /// is what makes `query_now()` after the last chunk bit-identical to
    /// the emitted result.
    fn query(&mut self, cell: GridCell, tree: &mut CoresetTree) -> Result<MergeOutput> {
        let out = {
            let _phase = self.ctx.rec().and_then(|r| r.phase("merge"));
            tree.query(&self.kmeans, self.merge_restarts, self.ctx.rec())?
        };
        let Some(spec) = &self.coreset else { return Ok(out) };
        if let Some(rec) = self.ctx.rec() {
            rec.registry().counter("coreset_queries_total").inc();
            rec.event(
                "coreset.query",
                &[
                    ("cell", cell.index().into()),
                    ("k", out.centroids.k().into()),
                    ("input_points", out.input_centroids.into()),
                    ("mse", out.mse.into()),
                    ("iterations", out.iterations.into()),
                    ("live_buckets", tree.live_buckets().into()),
                ],
            );
        }
        if let Some(probe) = &spec.probe {
            let stats = tree.stats();
            probe.publish_coreset(CoresetStatus {
                cell: cell.index(),
                levels: stats.levels,
                live_buckets: stats.live_buckets,
                live_weight: stats.live_weight,
                ingested_points: stats.ingested_points,
                lost_points: stats.lost_points,
                expired_points: stats.expired_points,
                compactions: stats.compactions,
                builds: stats.builds,
                queries: stats.queries,
                k: out.centroids.k(),
                mse: out.mse,
                iterations: out.iterations,
                query_points: out.input_centroids,
                centroids: out.centroids.iter().map(<[f64]>::to_vec).collect(),
            });
        }
        Ok(out)
    }

    /// Answers a finished (or, at end of stream, abandoned) cell and hands
    /// the result to `emit`. `incomplete` forces the degraded flag: a cell
    /// whose plan never closed has unknown loss, which is still loss.
    fn finish_cell(
        &mut self,
        cell: GridCell,
        mut state: CellState,
        incomplete: bool,
        emit: &mut impl FnMut(CellClustering) -> Result<()>,
    ) -> Result<()> {
        // An abandoned cell may hold buffered chunks beyond a gap the
        // drain never crossed; fold them in ascending order so the
        // degraded answer still uses every surviving chunk.
        for (chunk_id, output) in std::mem::take(&mut state.pending) {
            self.insert(cell, &mut state, chunk_id, output)?;
        }
        for (_, points) in std::mem::take(&mut state.pending_lost) {
            state.note_lost(points);
        }
        let received = state.tree.stats().ingested_points;
        let expected = if state.expected.is_some() {
            state.expected_points as f64
        } else {
            // The plan never arrived: the best lower bound on the cell's
            // mass is what actually reached the tail.
            received + state.lost_points as f64
        };
        let lost = (expected - received).max(0.0);
        // Silent shortfall (e.g. a truncated chunk that was never
        // quarantined) must still debit the tree's audit so its stats
        // balance: ingested + lost == expected.
        let shortfall = lost - state.lost_points as f64;
        if shortfall > 0.0 {
            state.tree.note_lost(shortfall);
        }
        let degraded = incomplete || state.lost_chunks > 0 || lost > 0.0;
        if degraded && self.ctx.strict_mass_check() {
            // Strict runs promise exact mass conservation; lost mass
            // reaching the tail means the pipeline dropped points.
            return Err(EngineError::InvalidPlan(format!(
                "cell {} lost {lost} of {expected} expected points ({} chunk(s)) under a strict \
                 policy",
                cell.index(),
                state.lost_chunks
            )));
        }
        if state.chunk_stats.is_empty() {
            if degraded {
                // Every chunk of the cell was lost: nothing to answer
                // from, but the loss must not be silent.
                self.note_degraded(cell, expected);
                note_cell_close(
                    self.ctx.rec(),
                    &CellClose {
                        cell: cell.index(),
                        chunks: 0,
                        expected_points: expected,
                        lost_points: expected,
                        lost_chunks: state.lost_chunks.max(1),
                        degraded: true,
                        mse: 0.0,
                        epm: 0.0,
                        resumed: false,
                    },
                );
            }
            return Ok(()); // empty bucket (or total loss): nothing to emit
        }
        self.ctx.worker_state(WorkerState::Merge);
        let output = self.query(cell, &mut state.tree)?;
        if degraded {
            self.note_degraded(cell, lost);
        }
        if let Some(rec) = self.ctx.rec() {
            rec.registry().counter(self.wire.cells_counter).inc();
            if let Some(done) = self.wire.done_event {
                rec.event(
                    done,
                    &[
                        ("cell", cell.index().into()),
                        ("input_centroids", output.input_centroids.into()),
                        ("epm", output.epm.into()),
                        ("mse", output.mse.into()),
                        ("iterations", output.iterations.into()),
                        ("converged", output.converged.into()),
                    ],
                );
            }
        }
        note_cell_close(
            self.ctx.rec(),
            &CellClose {
                cell: cell.index(),
                chunks: state.chunk_stats.len(),
                expected_points: expected,
                lost_points: lost,
                lost_chunks: state.lost_chunks,
                degraded,
                mse: output.mse,
                epm: output.epm,
                resumed: false,
            },
        );
        let result = CellClustering {
            cell,
            output,
            chunks: state.chunk_stats,
            trajectories: state.trajectories,
            expected_points: expected,
            lost_points: lost,
            lost_chunks: state.lost_chunks,
            degraded,
            coreset: self.coreset.is_some().then(|| state.tree.stats()),
        };
        emit(result)
    }

    fn note_degraded(&self, cell: GridCell, lost_points: f64) {
        self.ctx.fault(
            FaultKind::CellDegraded,
            &[("cell", cell.index().into()), ("lost_points", lost_points.into())],
        );
    }
}

/// The fields of a `cell.close` ledger event.
pub(crate) struct CellClose {
    pub cell: u32,
    pub chunks: usize,
    pub expected_points: f64,
    pub lost_points: f64,
    pub lost_chunks: usize,
    pub degraded: bool,
    pub mse: f64,
    pub epm: f64,
    /// The cell was restored from a checkpoint, not answered this run.
    pub resumed: bool,
}

/// Emits the `cell.close` ledger event and rolls the cell's mass into the
/// `mass_weight_expected` / `mass_weight_received` gauges (and the derived
/// `mass_conservation_ratio`), so `/metrics` exposes `Σw_received /
/// Σw_expected` live and a ledger rollup reproduces the run's mass
/// accounting.
pub(crate) fn note_cell_close(rec: Option<&Recorder>, close: &CellClose) {
    let Some(rec) = rec else { return };
    let mut fields = vec![
        ("cell", close.cell.into()),
        ("chunks", close.chunks.into()),
        ("expected_points", close.expected_points.into()),
        ("lost_points", close.lost_points.into()),
        ("lost_chunks", close.lost_chunks.into()),
        ("degraded", close.degraded.into()),
        ("mse", close.mse.into()),
        ("epm", close.epm.into()),
    ];
    if close.resumed {
        fields.push(("resumed", true.into()));
    }
    rec.event("cell.close", &fields);
    let expected = rec.registry().gauge("mass_weight_expected");
    let received = rec.registry().gauge("mass_weight_received");
    expected.add(close.expected_points);
    received.add(close.expected_points - close.lost_points);
    let total = expected.get();
    if total > 0.0 {
        rec.registry().gauge("mass_conservation_ratio").set(received.get() / total);
    }
}

/// The protocol cases, each written once over the tail under test;
/// [`super`] instantiates them per wire.
#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::fault::FaultPolicy;
    use pmkm_core::partial::partial_kmeans;
    use pmkm_core::Dataset;
    use pmkm_obs::{FieldValue, RingBufferSink, StatusCell};
    use std::sync::Arc;

    /// The tail a case runs over: `None` is the paper's buffer, `Some` a
    /// bounded coreset tree.
    pub(crate) type Acc = Option<CoresetSpec>;

    pub(crate) fn classic() -> Acc {
        None
    }

    pub(crate) fn tree() -> Acc {
        Some(CoresetSpec::new(16))
    }

    fn cell(i: u16) -> GridCell {
        GridCell::new(i, 0).unwrap()
    }

    fn partial(n: usize, offset: f64) -> PartialOutput {
        let mut ds = Dataset::new(1).unwrap();
        for i in 0..n {
            ds.push(&[offset + (i % 3) as f64 * 0.1]).unwrap();
        }
        partial_kmeans(&ds, &KMeansConfig { restarts: 1, ..KMeansConfig::paper(2, 3) }).unwrap()
    }

    fn run_with(msgs: Vec<MergeMsg>, acc: Acc, ctx: FaultContext) -> Result<Vec<CellClustering>> {
        let logical = LogicalPlan::new(
            vec!["unused.gb".into()],
            KMeansConfig { restarts: 1, ..KMeansConfig::paper(2, 3) },
        );
        let mut op = TailOp::new(&logical, acc, ctx);
        let mut out = Vec::new();
        let mut sink = |cell| {
            out.push(cell);
            Ok(())
        };
        for m in msgs {
            op.handle(m, &mut sink)?;
        }
        op.finish(&mut sink)?;
        Ok(out)
    }

    fn run(msgs: Vec<MergeMsg>, acc: Acc) -> Result<Vec<CellClustering>> {
        run_with(msgs, acc, FaultContext::default())
    }

    fn tolerant() -> FaultContext {
        FaultContext::new(None, FaultPolicy::tolerant())
    }

    /// A tolerant context journaling into a ring buffer.
    fn tolerant_observed() -> (FaultContext, Arc<RingBufferSink>) {
        let ring = Arc::new(RingBufferSink::new(256));
        let rec = Arc::new(Recorder::new().with_sink(ring.clone()));
        (FaultContext { rec: Some(rec), ..tolerant() }, ring)
    }

    /// The one `cell.close` event in `ring`, as `(lost_points, lost_chunks)`.
    fn closed_loss(ring: &RingBufferSink) -> (f64, u64) {
        let closes: Vec<_> = ring.events().into_iter().filter(|e| e.name == "cell.close").collect();
        assert_eq!(closes.len(), 1);
        let field = |name: &str| {
            closes[0].fields.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone()).unwrap()
        };
        match (field("lost_points"), field("lost_chunks")) {
            (FieldValue::F64(points), FieldValue::U64(chunks)) => (points, chunks),
            other => panic!("unexpected cell.close fields {other:?}"),
        }
    }

    pub(crate) fn completes_cell_and_conserves_mass(acc: Acc) {
        let c0 = cell(1);
        let out = run(
            vec![
                MergeMsg::Partial { cell: c0, chunk_id: 0, output: partial(10, 0.0) },
                MergeMsg::Partial { cell: c0, chunk_id: 1, output: partial(10, 50.0) },
                MergeMsg::CellPlan { cell: c0, chunks: 2, expected_points: 20 },
            ],
            acc.clone(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].cell, c0);
        assert_eq!(out[0].chunks.len(), 2);
        let total: f64 = out[0].output.cluster_weights.iter().sum();
        assert_eq!(total, 20.0);
        assert!(!out[0].degraded);
        assert_eq!(out[0].expected_points, 20.0);
        assert_eq!(out[0].lost_points, 0.0);
        assert_eq!(out[0].lost_chunks, 0);
        assert_eq!(out[0].coreset.is_some(), acc.is_some());
        if let Some(stats) = out[0].coreset {
            assert_eq!(stats.builds, 2);
            assert_eq!(stats.live_buckets, 1); // 2 chunks → one level-1 bucket
            assert_eq!(stats.compactions, 1);
            assert_eq!(stats.ingested_points, 20.0);
        }
    }

    pub(crate) fn plan_before_partials_also_completes(acc: Acc) {
        let c0 = cell(2);
        let out = run(
            vec![
                MergeMsg::CellPlan { cell: c0, chunks: 1, expected_points: 8 },
                MergeMsg::Partial { cell: c0, chunk_id: 0, output: partial(8, 0.0) },
            ],
            acc,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
    }

    pub(crate) fn arrival_order_does_not_change_result(acc: Acc) {
        let c0 = cell(3);
        let msgs = |flip: bool| {
            let a = MergeMsg::Partial { cell: c0, chunk_id: 0, output: partial(12, 0.0) };
            let b = MergeMsg::Partial { cell: c0, chunk_id: 1, output: partial(12, 9.0) };
            let plan = MergeMsg::CellPlan { cell: c0, chunks: 2, expected_points: 24 };
            if flip {
                vec![b, plan, a]
            } else {
                vec![a, b, plan]
            }
        };
        let x = run(msgs(false), acc.clone()).unwrap();
        let y = run(msgs(true), acc).unwrap();
        assert_eq!(x[0].output.centroids, y[0].output.centroids);
        assert_eq!(x[0].output.epm, y[0].output.epm);
        assert_eq!(x[0].output.mse, y[0].output.mse);
        assert_eq!(x[0].coreset, y[0].coreset);
    }

    pub(crate) fn interleaved_cells_emit_separately(acc: Acc) {
        let (a, b) = (cell(4), cell(5));
        let out = run(
            vec![
                MergeMsg::Partial { cell: a, chunk_id: 0, output: partial(6, 0.0) },
                MergeMsg::Partial { cell: b, chunk_id: 0, output: partial(7, 1.0) },
                MergeMsg::CellPlan { cell: b, chunks: 1, expected_points: 7 },
                MergeMsg::CellPlan { cell: a, chunks: 1, expected_points: 6 },
            ],
            acc,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let cells: std::collections::HashSet<GridCell> = out.iter().map(|r| r.cell).collect();
        assert!(cells.contains(&a) && cells.contains(&b));
    }

    pub(crate) fn empty_cell_plan_emits_nothing(acc: Acc) {
        let plan = MergeMsg::CellPlan { cell: cell(6), chunks: 0, expected_points: 0 };
        assert!(run(vec![plan], acc).unwrap().is_empty());
    }

    pub(crate) fn incomplete_cell_is_an_error_under_strict_policy(acc: Acc) {
        let err = run(
            vec![MergeMsg::Partial { cell: cell(7), chunk_id: 0, output: partial(5, 0.0) }],
            acc,
        );
        assert!(matches!(err, Err(EngineError::InvalidPlan(_))));
    }

    /// The strict refusal names the lowest incomplete cell, whatever order
    /// the cells sit in memory.
    pub(crate) fn end_of_stream_error_names_the_lowest_incomplete_cell(acc: Acc) {
        let cells = [cell(40), cell(17), cell(33), cell(21)];
        let msgs = cells
            .iter()
            .map(|&c| MergeMsg::Partial { cell: c, chunk_id: 0, output: partial(5, 0.0) })
            .collect();
        let lowest = cells.iter().map(|c| c.index()).min().unwrap();
        match run(msgs, acc) {
            Err(EngineError::InvalidPlan(msg)) => assert!(
                msg.ends_with(&format!("4 incomplete cell(s), e.g. cell {lowest}")),
                "{msg}"
            ),
            other => panic!("expected a strict-policy refusal, got {other:?}"),
        }
    }

    pub(crate) fn duplicate_chunk_is_an_error(acc: Acc) {
        let c0 = cell(8);
        let err = run(
            vec![
                MergeMsg::Partial { cell: c0, chunk_id: 0, output: partial(5, 0.0) },
                MergeMsg::Partial { cell: c0, chunk_id: 0, output: partial(5, 0.0) },
                MergeMsg::CellPlan { cell: c0, chunks: 2, expected_points: 10 },
            ],
            acc,
        );
        assert!(matches!(err, Err(EngineError::InvalidPlan(_))));
    }

    pub(crate) fn duplicate_between_lost_and_partial_is_an_error(acc: Acc) {
        let c0 = cell(13);
        let err = run_with(
            vec![
                MergeMsg::ChunkLost { cell: c0, chunk_id: 0, points: 5 },
                MergeMsg::Partial { cell: c0, chunk_id: 0, output: partial(5, 0.0) },
                MergeMsg::CellPlan { cell: c0, chunks: 1, expected_points: 5 },
            ],
            acc,
            tolerant(),
        );
        assert!(matches!(err, Err(EngineError::InvalidPlan(_))));
    }

    pub(crate) fn lost_chunk_completes_cell_as_degraded(acc: Acc) {
        let c0 = cell(9);
        let ctx = tolerant();
        let out = run_with(
            vec![
                MergeMsg::Partial { cell: c0, chunk_id: 0, output: partial(10, 0.0) },
                MergeMsg::ChunkLost { cell: c0, chunk_id: 1, points: 10 },
                MergeMsg::CellPlan { cell: c0, chunks: 2, expected_points: 20 },
            ],
            acc,
            ctx.clone(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].degraded);
        assert_eq!(out[0].expected_points, 20.0);
        assert_eq!(out[0].lost_points, 10.0);
        assert_eq!(out[0].lost_chunks, 1);
        assert_eq!(out[0].chunks.len(), 1);
        if let Some(stats) = out[0].coreset {
            // A lost chunk debits the tree's own audit too.
            assert_eq!(stats.ingested_points, 10.0);
            assert_eq!(stats.lost_points, 10.0);
        }
        assert_eq!(ctx.counters.snapshot().cells_degraded, 1);
    }

    pub(crate) fn lost_chunk_under_strict_policy_is_an_error(acc: Acc) {
        let c0 = cell(10);
        let err = run(
            vec![
                MergeMsg::Partial { cell: c0, chunk_id: 0, output: partial(10, 0.0) },
                MergeMsg::ChunkLost { cell: c0, chunk_id: 1, points: 10 },
                MergeMsg::CellPlan { cell: c0, chunks: 2, expected_points: 20 },
            ],
            acc,
        );
        // One refusal, carrying lost points, expected points and lost chunks.
        match err {
            Err(EngineError::InvalidPlan(msg)) => {
                assert!(msg.contains("lost 10 of 20 expected points (1 chunk(s))"), "{msg}")
            }
            other => panic!("expected a strict-policy refusal, got {other:?}"),
        }
    }

    pub(crate) fn fully_lost_cell_emits_nothing_but_counts_degraded(acc: Acc) {
        let c0 = cell(11);
        let ctx = tolerant();
        let out = run_with(
            vec![
                MergeMsg::ChunkLost { cell: c0, chunk_id: 0, points: 10 },
                MergeMsg::CellPlan { cell: c0, chunks: 1, expected_points: 10 },
            ],
            acc,
            ctx.clone(),
        )
        .unwrap();
        assert!(out.is_empty());
        assert_eq!(ctx.counters.snapshot().cells_degraded, 1);
    }

    pub(crate) fn incomplete_cell_answers_degraded_under_tolerant_policy(acc: Acc) {
        let c0 = cell(12);
        let ctx = tolerant();
        // Plan says 2 chunks but the second never arrives — a dead worker.
        let out = run_with(
            vec![
                MergeMsg::CellPlan { cell: c0, chunks: 2, expected_points: 20 },
                MergeMsg::Partial { cell: c0, chunk_id: 0, output: partial(10, 0.0) },
            ],
            acc,
            ctx.clone(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].degraded);
        assert_eq!(out[0].lost_points, 10.0);
        assert_eq!(ctx.counters.snapshot().cells_degraded, 1);
    }

    /// A cell that died after its plan with no chunk message still owes
    /// its whole mass, journaled as (at least) one lost chunk.
    pub(crate) fn cell_lost_without_a_chunk_message_closes_with_one_lost_chunk(acc: Acc) {
        let (ctx, ring) = tolerant_observed();
        let plan = MergeMsg::CellPlan { cell: cell(14), chunks: 2, expected_points: 20 };
        assert!(run_with(vec![plan], acc, ctx.clone()).unwrap().is_empty());
        assert_eq!(closed_loss(&ring), (20.0, 1));
        assert_eq!(ctx.counters.snapshot().cells_degraded, 1);
    }

    /// A bucket abandoned before its first batch closes its plan with no
    /// chunk and every point owed: complete, yet nothing to answer from.
    pub(crate) fn scan_lost_cell_is_journaled_not_dropped(acc: Acc) {
        let (ctx, ring) = tolerant_observed();
        let plan = MergeMsg::CellPlan { cell: cell(15), chunks: 0, expected_points: 600 };
        assert!(run_with(vec![plan.clone()], acc.clone(), ctx.clone()).unwrap().is_empty());
        assert_eq!(closed_loss(&ring), (600.0, 1));
        assert_eq!(ctx.counters.snapshot().cells_degraded, 1);
        assert!(matches!(run(vec![plan], acc), Err(EngineError::InvalidPlan(_))));
    }

    /// A cell abandoned before its plan arrived expects what reached the
    /// tail: the surviving chunks plus the chunks reported lost.
    pub(crate) fn cell_without_a_plan_expects_what_arrived(acc: Acc) {
        let c0 = cell(16);
        let out = run_with(
            vec![
                MergeMsg::Partial { cell: c0, chunk_id: 0, output: partial(10, 0.0) },
                MergeMsg::ChunkLost { cell: c0, chunk_id: 1, points: 7 },
            ],
            acc,
            tolerant(),
        )
        .unwrap();
        assert!(out[0].degraded);
        assert_eq!(
            (out[0].expected_points, out[0].lost_points, out[0].lost_chunks),
            (17.0, 7.0, 1)
        );
    }

    /// Tree only.
    pub(crate) fn many_chunks_keep_live_buckets_logarithmic(acc: Acc) {
        let c0 = cell(9);
        let chunks = 32;
        let mut msgs: Vec<MergeMsg> = (0..chunks)
            .map(|i| MergeMsg::Partial { cell: c0, chunk_id: i, output: partial(6, i as f64) })
            .collect();
        msgs.push(MergeMsg::CellPlan { cell: c0, chunks, expected_points: chunks * 6 });
        let out = run(msgs, acc).unwrap();
        let stats = out[0].coreset.expect("coreset stats");
        assert_eq!(stats.builds, chunks as u64);
        // 32 = 2^5 chunks collapse into a single level-5 bucket.
        assert_eq!(stats.live_buckets, 1);
        assert_eq!(stats.levels, 6);
        assert_eq!(stats.ingested_points, (chunks * 6) as f64);
        let total: f64 = out[0].output.cluster_weights.iter().sum();
        assert!((total - (chunks * 6) as f64).abs() < 1e-6);
    }

    /// Tree only.
    pub(crate) fn probe_receives_anytime_clustering(acc: Acc) {
        let c0 = cell(10);
        let probe = Arc::new(StatusCell::new());
        let mut spec = acc.expect("a tree spec");
        spec.probe = Some(probe.clone());
        let mut msgs: Vec<MergeMsg> = (0..4)
            .map(|i| MergeMsg::Partial { cell: c0, chunk_id: i, output: partial(8, i as f64) })
            .collect();
        msgs.push(MergeMsg::CellPlan { cell: c0, chunks: 4, expected_points: 32 });
        let out = run(msgs, Some(spec)).unwrap();
        assert_eq!(out.len(), 1);
        let status = probe.coreset().expect("published status");
        assert_eq!(status.cell, c0.index());
        assert_eq!(status.builds, 4);
        assert_eq!(status.k, out[0].output.centroids.k());
        assert_eq!(status.centroids.len(), status.k);
        // The last publish is the terminal query over the finished tree —
        // bit-identical to the emitted clustering.
        let flat: Vec<f64> = status.centroids.iter().flatten().copied().collect();
        assert_eq!(flat, out[0].output.centroids.as_flat().to_vec());
        assert_eq!(status.mse, out[0].output.mse);
    }

    /// Tree only.
    pub(crate) fn probe_queries_do_not_change_the_final_clustering(acc: Acc) {
        let c0 = cell(11);
        let mut msgs: Vec<MergeMsg> = (0..8)
            .map(|i| MergeMsg::Partial { cell: c0, chunk_id: i, output: partial(5, i as f64) })
            .collect();
        msgs.push(MergeMsg::CellPlan { cell: c0, chunks: 8, expected_points: 40 });
        let plain = run(msgs.clone(), acc.clone()).unwrap();
        let mut spec = acc.expect("a tree spec");
        spec.probe = Some(Arc::new(StatusCell::new()));
        let probed = run(msgs, Some(spec)).unwrap();
        assert_eq!(plain[0].output.centroids, probed[0].output.centroids);
        assert_eq!(plain[0].output.mse, probed[0].output.mse);
    }
}
