//! The one adapter between the benchmark and the `pmkm_*` crates.
//!
//! Every call the harness makes into library code goes through this file,
//! so the public surface the benchmark compiles against is listed in one
//! place (`benchmark/README.md` repeats it function by function) and a
//! renamed or consolidated API is re-pointed here and nowhere else.
//! Nothing in here measures time: the probes in `probes.rs` and the
//! workload runner time these calls from outside.

use pmkm_core::{
    chunk_coreset, kmeans, lloyd, merge_collective, metrics, partial_kmeans, partial_merge, point,
    seeding, Centroids, CoresetConfig, CoresetTree, Dataset, FusedLayout, KMeansConfig,
    KernelStats, LloydConfig, PartialMergeConfig, PointSource, SliceStrategy, WeightedSet,
};
use pmkm_data::generator::{self, CellConfig};
use pmkm_data::{codec, BackendKind, Gb02Reader, GridBucket, GridCell, DEFAULT_BLOCK_POINTS};
use pmkm_obs::{LedgerSink, Profiler, Recorder};
use pmkm_stream::{
    optimize_fixed_split, CoresetSpec, LogicalPlan, OrchestratorOptions, PhysicalPlan, Resources,
    SmartQueue,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Errors cross the adapter as text: the harness only ever prints them.
pub type Res<T> = Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// A cell's (or chunk's) points.
pub type Points = Dataset;
/// Weighted representatives: a partial step's or a coreset's output.
pub type Weighted = WeightedSet;
/// A merge-reduce coreset tree.
pub type Tree = CoresetTree;

/// Attributes per point of the paper's MISR-like cells.
pub const DIM: usize = generator::PAPER_DIM;
/// Points per GB02 block the CLI's `convert` writes by default.
pub const BLOCK_POINTS: usize = DEFAULT_BLOCK_POINTS;

/// Block codecs of the GB02 container, by their CLI names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    Raw,
    ShuffleRle,
}

impl Codec {
    /// The value `pmkm convert --codec=` takes.
    pub fn flag(self) -> &'static str {
        self.inner().label()
    }

    fn inner(self) -> pmkm_data::Codec {
        match self {
            Codec::Raw => pmkm_data::Codec::Raw,
            Codec::ShuffleRle => pmkm_data::Codec::ShuffleRle,
        }
    }
}

/// Scan backends, by their CLI names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    LocalFile,
    Mmap,
}

impl Backend {
    /// The value `pmkm orchestrate --backend=` takes.
    pub fn flag(self) -> &'static str {
        self.inner().label()
    }

    fn inner(self) -> BackendKind {
        match self {
            Backend::LocalFile => BackendKind::LocalFile,
            Backend::Mmap => BackendKind::Mmap,
        }
    }
}

// ---------------------------------------------------------------- data ----

/// `pmkm_data::generator::generate_cell(&CellConfig::paper(n, seed))`.
pub fn generate_cell(points: usize, seed: u64) -> Res<Points> {
    generator::generate_cell(&CellConfig::paper(points, seed)).map_err(text)
}

/// The first `n` points of `points` as their own set.
pub fn first_points(points: &Points, n: usize) -> Res<Points> {
    let dim = points.dim();
    Dataset::from_flat(dim, points.as_flat()[..n.min(points.len()) * dim].to_vec()).map_err(text)
}

/// The first `n` points of `points`, row-major (fixed centroids for the
/// assignment probes and the round trip's quality ratio).
pub fn first_flat(points: &Points, n: usize) -> Vec<f64> {
    points.as_flat()[..n.min(points.len()) * points.dim()].to_vec()
}

/// `points` cut into consecutive chunks of `chunk_points`.
pub fn split_chunks(points: &Points, chunk_points: usize) -> Res<Vec<Points>> {
    let dim = points.dim();
    points
        .as_flat()
        .chunks(chunk_points * dim)
        .map(|flat| Dataset::from_flat(dim, flat.to_vec()).map_err(text))
        .collect()
}

fn bucket(points: &Points, cell_index: u32) -> Res<GridBucket> {
    Ok(GridBucket { cell: GridCell::from_index(cell_index).map_err(text)?, points: points.clone() })
}

/// `pmkm_data::write_gb02` at the default block size; returns the file's
/// byte length.
pub fn write_container(points: &Points, cell_index: u32, path: &Path, codec: Codec) -> Res<u64> {
    let stats =
        pmkm_data::write_gb02(&bucket(points, cell_index)?, path, codec.inner(), BLOCK_POINTS)
            .map_err(text)?;
    Ok(stats.file_bytes)
}

/// A cell prepared for [`container_bytes`], so the probe times the
/// serializer alone.
pub struct Bucket(GridBucket);

/// Wraps a cell's points as the in-memory bucket `gb02_to_bytes` takes.
pub fn as_bucket(points: &Points, cell_index: u32) -> Res<Bucket> {
    bucket(points, cell_index).map(Bucket)
}

/// `pmkm_data::gb02_to_bytes` with the raw codec (container framing,
/// checksums and index; no compression); returns the image's length.
pub fn container_bytes(bucket: &Bucket) -> Res<usize> {
    let (bytes, _) =
        pmkm_data::gb02_to_bytes(&bucket.0, pmkm_data::Codec::Raw, BLOCK_POINTS).map_err(text)?;
    Ok(bytes.len())
}

/// `pmkm_data::probe` + `Gb02Reader::open_path` (mmap): what the engine
/// does to a file before its first block; returns the point count.
pub fn open_container(path: &Path) -> Res<usize> {
    let info = pmkm_data::probe(path).map_err(text)?;
    let reader = Gb02Reader::open_path(path, BackendKind::Mmap).map_err(text)?;
    Ok(info.count.min(reader.count))
}

/// `Gb02Reader::read_all` through the local-file backend.
pub fn read_container(path: &Path) -> Res<Points> {
    let reader = Gb02Reader::open_path(path, BackendKind::LocalFile).map_err(text)?;
    Ok(reader.read_all().map_err(text)?.points)
}

/// Byte and point tallies of one full scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanTally {
    pub points: u64,
    pub stored_bytes: u64,
    pub payload_bytes: u64,
}

/// `Gb02Reader::read_block_with_stats` over every block of one file.
pub fn scan_container(path: &Path, backend: Backend, tally: &mut ScanTally) -> Res<()> {
    let reader = Gb02Reader::open_path(path, backend.inner()).map_err(text)?;
    for i in 0..reader.n_blocks() {
        let (block, stats) = reader.read_block_with_stats(i).map_err(text)?;
        tally.points += block.len() as u64;
        tally.stored_bytes += stats.stored_bytes;
        tally.payload_bytes += stats.payload_bytes;
    }
    Ok(())
}

/// The little-endian payload of each GB02 block of `points`
/// (`codec::f64s_to_le`), the unit the block codecs work on.
pub fn block_payloads(points: &Points) -> Vec<Vec<u8>> {
    points
        .as_flat()
        .chunks(BLOCK_POINTS * points.dim())
        .map(|block| {
            let mut bytes = Vec::with_capacity(block.len() * 8);
            codec::f64s_to_le(block, &mut bytes);
            bytes
        })
        .collect()
}

/// `codec::encode(Codec::ShuffleRle, …)`.
pub fn encode_rle(payload: &[u8]) -> Res<Vec<u8>> {
    codec::encode(pmkm_data::Codec::ShuffleRle, payload).map_err(text)
}

/// `codec::decode(Codec::ShuffleRle, …)`.
pub fn decode_rle(stored: &[u8], payload_len: usize) -> Res<Vec<u8>> {
    codec::decode(pmkm_data::Codec::ShuffleRle, stored, payload_len).map_err(text)
}

// ---------------------------------------------------------------- core ----

/// `point::nearest_centroid` for every point; the returned index sum keeps
/// the loop observable.
pub fn assign_scalar(points: &Points, centroids: &[f64]) -> u64 {
    let dim = points.dim();
    points.iter().map(|p| point::nearest_centroid(p, centroids, dim).0 as u64).sum()
}

/// Centroids laid out for the fused kernel, with its scratch buffer.
pub struct Fused {
    layout: FusedLayout,
    scratch: Vec<f64>,
}

/// `FusedLayout::new`.
pub fn fused_layout(centroids: &[f64], dim: usize) -> Fused {
    let layout = FusedLayout::new(centroids, dim);
    let scratch = vec![0.0; layout.scratch_len()];
    Fused { layout, scratch }
}

/// `FusedLayout::nearest_counted` for every point; returns the index sum
/// and the kernel's own (points, rescued) tallies.
pub fn assign_fused(points: &Points, fused: &mut Fused) -> (u64, u64, u64) {
    let mut stats = KernelStats::default();
    let mut sum = 0u64;
    for p in points.iter() {
        sum += fused.layout.nearest_counted(p, &mut fused.scratch, &mut stats).0 as u64;
    }
    (sum, stats.points, stats.rescued)
}

/// `lloyd` from the chunk's first `k` points, capped at `max_iters`;
/// returns the iterations it ran.
pub fn lloyd_capped(chunk: &Points, k: usize, max_iters: usize) -> Res<usize> {
    let dim = chunk.dim();
    let init = Centroids::from_flat(dim, chunk.as_flat()[..k * dim].to_vec()).map_err(text)?;
    let cfg = LloydConfig { epsilon: 0.0, max_iters, ..LloydConfig::default() };
    Ok(lloyd(chunk, &init, &cfg).map_err(text)?.iterations)
}

fn kmeans_cfg(k: usize, restarts: usize, seed: u64) -> KMeansConfig {
    KMeansConfig { restarts, ..KMeansConfig::paper(k, seed) }
}

/// `partial_kmeans`; returns the Lloyd iterations over all restarts.
pub fn partial_chunk(chunk: &Points, k: usize, restarts: usize) -> Res<usize> {
    Ok(partial_kmeans(chunk, &kmeans_cfg(k, restarts, 0)).map_err(text)?.total_iterations)
}

/// `chunk_coreset`: `size` weighted representatives of `chunk`.
pub fn coreset_of(chunk: &Points, size: usize, seed: u64) -> Res<Weighted> {
    chunk_coreset(chunk, size, &mut seeding::rng_for(seed, 0)).map_err(text)
}

/// `merge_collective` (one merge restart, as the engine runs it); returns
/// its Lloyd iterations.
pub fn merge_sets(sets: &[Weighted], k: usize) -> Res<usize> {
    Ok(merge_collective(sets, &kmeans_cfg(k, 10, 0), 1).map_err(text)?.iterations)
}

/// `CoresetTree::new` + `insert_chunk` for every set in order; returns the
/// filled tree and the compactions the inserts caused.
pub fn coreset_tree_fill(
    sets: Vec<Weighted>,
    size: usize,
    chunk_points: usize,
) -> Res<(Tree, u64)> {
    let mut tree = CoresetTree::new(CoresetConfig::new(size), 0, 0).map_err(text)?;
    for (chunk_id, set) in sets.into_iter().enumerate() {
        tree.insert_chunk(chunk_id, set, chunk_points as f64).map_err(text)?;
    }
    let compactions = tree.stats().compactions;
    Ok((tree, compactions))
}

/// `CoresetTree::query_now`; returns the merge's Lloyd iterations.
pub fn coreset_query(tree: &mut Tree, k: usize) -> Res<usize> {
    Ok(tree.query_now(&kmeans_cfg(k, 10, 0), 1).map_err(text)?.iterations)
}

/// Lloyd iterations a whole-cell clustering spent in its partial steps.
pub type PartialIterations = usize;

/// `partial_merge` (all partial steps on the calling thread) with chunks
/// cut in arrival order, as the stream engine cuts them.
pub fn partial_merge_serial(cell: &Points, k: usize, partitions: usize) -> Res<PartialIterations> {
    let cfg = PartialMergeConfig {
        slicing: SliceStrategy::Salami,
        ..PartialMergeConfig::paper(k, partitions, 0)
    };
    let out = partial_merge(cell, &cfg).map_err(text)?;
    Ok(out.chunks.iter().map(|c| c.total_iterations).sum())
}

/// `pmkm_core::kmeans` on the whole cell: the serial baseline the quality
/// metric divides by. Returns the best restart's SSE.
pub fn serial_sse(cell: &Points, k: usize, restarts: usize, seed: u64) -> Res<f64> {
    Ok(kmeans(cell, &kmeans_cfg(k, restarts, seed)).map_err(text)?.best.sse)
}

/// `metrics::weighted_sse_against`: SSE of raw points under flat centroids.
pub fn sse_against(points: &Points, centroids: &[f64]) -> Res<f64> {
    let centroids = Centroids::from_flat(points.dim(), centroids.to_vec()).map_err(text)?;
    metrics::weighted_sse_against(points, &centroids).map_err(text)
}

// -------------------------------------------------------------- stream ----

/// The knobs of `pmkm orchestrate` the workloads set; everything else is
/// the CLI's default.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    pub k: usize,
    pub restarts: usize,
    pub splits: usize,
    pub jobs: usize,
    pub backend: Backend,
    pub coreset: Option<usize>,
}

/// Builds the physical plan exactly as `pmkm orchestrate` builds it from
/// `--k --restarts --splits --backend --coreset` (k-means seed 0, one
/// worker inside a cell, chunk size = largest cell ÷ splits).
fn cli_plan(files: &[PathBuf], spec: &ClusterSpec) -> Res<PhysicalPlan> {
    let logical = LogicalPlan::new(files.to_vec(), kmeans_cfg(spec.k, spec.restarts, 0));
    let resources = Resources { workers: 1, ..Resources::detect() };
    let mut max_points = 1;
    for file in files {
        max_points = max_points.max(pmkm_data::probe(file).map_err(text)?.count);
    }
    let mut plan =
        optimize_fixed_split(logical, &resources, max_points.div_ceil(spec.splits).max(1));
    plan.scan_backend = spec.backend.inner();
    plan.coreset = spec.coreset.map(CoresetSpec::new);
    Ok(plan)
}

/// One cell's final clustering, as the quality check needs it.
#[derive(Debug, Clone)]
pub struct CellCentroids {
    pub cell: u32,
    pub epm: f64,
    /// Row-major `k × dim`.
    pub centroids: Vec<f64>,
}

/// `pmkm_stream::orchestrate` with no observer, over the plan the CLI
/// would build for the same flags.
pub fn orchestrate(files: &[PathBuf], spec: &ClusterSpec) -> Res<Vec<CellCentroids>> {
    let plan = cli_plan(files, spec)?;
    let planet = pmkm_stream::orchestrate(&plan, &OrchestratorOptions::new(spec.jobs), None, None)
        .map_err(text)?;
    let cells: Vec<CellCentroids> = planet
        .clusterings()
        .map(|c| CellCentroids {
            cell: c.cell.index(),
            epm: c.output.epm,
            centroids: c.output.centroids.as_flat().to_vec(),
        })
        .collect();
    if cells.len() != files.len() {
        return Err(format!(
            "in-process orchestrate clustered {} of {} cells",
            cells.len(),
            files.len()
        ));
    }
    Ok(cells)
}

/// `pmkm_stream::execute` over one file with the CLI's plan: the engine a
/// single cell runs through. Returns the partial steps' Lloyd iterations.
pub fn execute_cell(file: &Path, spec: &ClusterSpec) -> Res<PartialIterations> {
    let plan = cli_plan(&[file.to_path_buf()], spec)?;
    let report = pmkm_stream::execute(&plan).map_err(text)?;
    let cell = report.cells.first().ok_or("engine returned no cell")?;
    Ok(cell.chunks.iter().map(|c| c.total_iterations).sum())
}

/// `SmartQueue` send/recv of `n` items, one producer thread, the caller
/// consuming.
pub fn queue_pairs(n: u64) -> u64 {
    let queue: SmartQueue<u64> = SmartQueue::new("probe", 64);
    let producer = queue.producer();
    let consumer = queue.consumer();
    queue.seal();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 0..n {
                if producer.send(i).is_err() {
                    break;
                }
            }
        });
        let mut sum = 0u64;
        while let Some(item) = consumer.recv() {
            sum = sum.wrapping_add(item);
        }
        sum
    })
}

// ----------------------------------------------------------------- obs ----

/// `Recorder` + `LedgerSink::create`, then `n` events of the `chunk.close`
/// shape and a flush; returns the ledger's byte length.
pub fn ledger_append(path: &Path, n: u64) -> Res<u64> {
    let sink = Arc::new(LedgerSink::create(path).map_err(text)?);
    let rec = Recorder::new().with_sink(sink);
    for i in 0..n {
        rec.event(
            "chunk.close",
            &[
                ("cell", ((i / 10) as u32).into()),
                ("chunk", ((i % 10) as usize).into()),
                ("points", 2_500usize.into()),
                ("duration_us", 70_000u64.into()),
                ("attempts", 1usize.into()),
            ],
        );
    }
    rec.flush();
    Ok(std::fs::metadata(path).map_err(text)?.len())
}

/// `Profiler::enter` + guard drop, `n` times on one thread.
pub fn profiler_spans(n: u64) -> u64 {
    let profiler = Profiler::new();
    for _ in 0..n {
        let _guard = profiler.enter("probe");
    }
    profiler.phase_rows().iter().map(|row| row.calls).sum()
}

/// What the journaled workload's checks read from a ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerFacts {
    pub events: u64,
    pub mass_ratio: f64,
    pub checkpoints: usize,
    pub cells: usize,
}

/// `read_ledger` + `rollup`.
pub fn ledger_rollup(path: &Path) -> Res<LedgerFacts> {
    let records = pmkm_obs::read_ledger(path).map_err(text)?;
    let roll = pmkm_obs::rollup(&records);
    Ok(LedgerFacts {
        events: roll.events,
        mass_ratio: roll.mass_ratio(),
        checkpoints: roll.checkpoints.len(),
        cells: roll.cells.len(),
    })
}
