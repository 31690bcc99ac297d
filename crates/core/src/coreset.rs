//! Weighted coresets and the merge-reduce tree behind unbounded streams.
//!
//! The paper's partial/merge pipeline keeps one weighted-centroid set per
//! chunk, so live memory grows linearly with stream length. This module
//! replaces that with the classic streaming compaction scheme:
//!
//! * [`chunk_coreset`] builds a bounded weighted summary of a chunk by
//!   importance sampling (the "lightweight coreset" distribution: half
//!   uniform-by-mass, half proportional to squared distance from the
//!   weighted mean), then re-weights each sampled representative with the
//!   total mass of the input points nearest to it. Because every input
//!   weight lands in exactly one representative, integer input masses are
//!   conserved *exactly* at every level.
//! * [`CoresetTree`] keeps the per-chunk coresets in a binary-counter
//!   merge-reduce tree: each arriving chunk is a level-0 bucket, and
//!   whenever two buckets share a level they are compacted into one bucket
//!   one level up. Live buckets therefore number at most
//!   `floor(log2(chunks)) + 1` regardless of stream length, so memory is
//!   bounded by `levels × coreset_size`.
//! * [`CoresetTree::query_now`] answers an *anytime* clustering query:
//!   union the live buckets (oldest first — a deterministic order) and run
//!   weighted Lloyd over the union via the collective merge. The terminal
//!   merge of a finite stream is the same call over the final tree, so an
//!   anytime query issued after the last chunk is bit-identical to it.
//!
//! Two aging variants cover evolving streams: a sliding window (buckets
//!   whose newest chunk falls out of the window are evicted whole, their
//!   audit mass moved to `expired_points`) and exponential decay (all live
//!   weights are scaled by λ per arriving chunk; audit masses stay
//!   undecayed so mass accounting remains in raw points).
//!
//! Determinism: every compaction derives its RNG from
//! `(seed, cell, level, first_chunk)`, none of which depend on scheduling,
//! so a tree fed the same chunks in chunk-id order produces bit-identical
//! buckets regardless of how many workers raced to produce those chunks.

use crate::config::KMeansConfig;
use crate::dataset::{PointSource, WeightedSet};
use crate::error::{Error, Result};
use crate::kernel::{FusedLayout, KernelStats};
use crate::merge::{merge_collective_observed, MergeOutput};
use crate::point::sq_dist;
use crate::seeding::{derive_seed, rng_for};
use pmkm_obs::Recorder;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// RNG stream tag for compaction seeds (ASCII `CSETTREE`).
const CORESET_STREAM: u64 = 0x4353_4554_5452_4545;

/// Configuration of a coreset tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CoresetConfig {
    /// Maximum number of weighted representatives per bucket.
    pub size: usize,
    /// Sliding window in chunks: buckets whose newest chunk is older than
    /// `current_chunk - window` are evicted whole. `None` keeps everything.
    pub window: Option<usize>,
    /// Exponential decay factor λ ∈ (0, 1]: all live weights are scaled by
    /// λ once per arriving chunk. `None` (or 1.0) disables aging.
    pub decay: Option<f64>,
}

impl CoresetConfig {
    /// A plain (no window, no decay) tree with the given bucket size.
    pub fn new(size: usize) -> Self {
        Self { size, window: None, decay: None }
    }

    /// The paper's buffer (§3.3): a bucket size no union can exceed, so
    /// every carry keeps `left ++ right` verbatim and nothing is ever
    /// sampled. The tree's union is then every chunk's set concatenated in
    /// chunk-id order, and its query is the collective merge over them.
    pub fn buffer() -> Self {
        Self::new(usize::MAX)
    }

    /// Checks the knobs are usable.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] if `size == 0`, `window == Some(0)`, or
    /// `decay` is not in `(0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if self.size == 0 {
            return Err(Error::InvalidConfig("coreset size must be at least 1".into()));
        }
        if self.window == Some(0) {
            return Err(Error::InvalidConfig("coreset window must be at least 1 chunk".into()));
        }
        if let Some(decay) = self.decay {
            if !(decay.is_finite() && decay > 0.0 && decay <= 1.0) {
                return Err(Error::InvalidConfig(format!(
                    "coreset decay must be in (0, 1], got {decay}"
                )));
            }
        }
        Ok(())
    }
}

/// Builds a bounded weighted coreset of `src` with at most `size` points.
///
/// When `src` already fits (`len ≤ size`) the input points pass through
/// verbatim. Otherwise `size` representatives are drawn (with replacement,
/// then deduplicated) from the lightweight-coreset distribution
/// `q(i) = ½·wᵢ/W + ½·wᵢ·d²(xᵢ, μ) / Σⱼ wⱼ·d²(xⱼ, μ)` around the weighted
/// mean `μ`, and each representative is re-weighted with the total input
/// mass nearest to it (ties broken towards the earlier representative —
/// [`FusedLayout::nearest_block`] guarantees the scalar scan's index,
/// lowest on ties — so the result is a deterministic function of `src` and
/// the RNG state).
///
/// Mass conservation is exact for integer weights: every input weight is
/// added to exactly one representative, so the output total is the same
/// sum grouped differently — and grouped sums of integers below 2⁵³ are
/// exact in `f64`.
///
/// # Errors
/// * [`Error::InvalidConfig`] if `size == 0`,
/// * [`Error::EmptyDataset`] if `src` has no points.
pub fn chunk_coreset<S: PointSource + ?Sized>(
    src: &S,
    size: usize,
    rng: &mut StdRng,
) -> Result<WeightedSet> {
    if size == 0 {
        return Err(Error::InvalidConfig("coreset size must be at least 1".into()));
    }
    if src.is_empty() {
        return Err(Error::EmptyDataset);
    }
    let n = src.len();
    let dim = src.dim();
    let mut out = WeightedSet::new(dim)?;
    if n <= size {
        for i in 0..n {
            out.push(src.coords(i), src.weight(i))?;
        }
        return Ok(out);
    }

    // Weighted mean of the chunk.
    let total_w = src.total_weight();
    let mut mean = vec![0.0f64; dim];
    for i in 0..n {
        let w = src.weight(i);
        for (m, &x) in mean.iter_mut().zip(src.coords(i)) {
            *m += w * x;
        }
    }
    for m in &mut mean {
        *m /= total_w;
    }

    // Cumulative sampling distribution q(i). On a degenerate chunk (all
    // points at the mean) the distance term vanishes and q collapses to
    // mass-proportional sampling; so does a chunk of finite but huge
    // coordinates whose d² overflow (Σ w·d² = +inf would make every q NaN).
    let mut d2 = vec![0.0f64; n];
    let mut sum_wd2 = 0.0f64;
    for (i, d) in d2.iter_mut().enumerate() {
        *d = sq_dist(src.coords(i), &mean);
        sum_wd2 += src.weight(i) * *d;
    }
    let by_distance = sum_wd2 > 0.0 && sum_wd2.is_finite();
    let mut cum = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for (i, d) in d2.iter().enumerate() {
        let w = src.weight(i);
        acc += if by_distance { 0.5 * w / total_w + 0.5 * w * d / sum_wd2 } else { w / total_w };
        cum.push(acc);
    }
    let total_q = acc;

    // `size` draws with replacement; duplicates collapse, so the output may
    // hold fewer than `size` representatives (never more).
    let mut chosen = BTreeSet::new();
    for _ in 0..size {
        let t = rng.gen_range(0.0..total_q);
        chosen.insert(cum.partition_point(|&c| c <= t).min(n - 1));
    }
    let reps: Vec<usize> = chosen.into_iter().collect();

    // Nearest-representative mass aggregation on the fused kernel: table,
    // layout and screen buffer are built once per call (and only here,
    // past the pass-through return). Four points go per sweep of the
    // table, then the `n mod 4` tail one at a time, and masses add up in
    // point order. The kernel's rescue pass returns the scalar scan's
    // index, lowest on ties, so the assignment — and therefore the
    // weights — is deterministic.
    let mut table = Vec::with_capacity(reps.len() * dim);
    for &r in &reps {
        table.extend_from_slice(src.coords(r));
    }
    let layout = FusedLayout::new(&table, dim);
    let mut screen = vec![0.0f64; FusedLayout::BLOCK * layout.scratch_len()];
    let mut agg = vec![0.0f64; reps.len()];
    layout.for_each_nearest(src, &mut screen, &mut KernelStats::default(), |i, _, (j, _)| {
        agg[j] += src.weight(i);
    });
    for (j, &r) in reps.iter().enumerate() {
        // A representative that is a duplicate of an earlier one can end up
        // with zero mass; dropping it loses nothing.
        if agg[j] > 0.0 {
            out.push(src.coords(r), agg[j])?;
        }
    }
    Ok(out)
}

/// One live bucket of a [`CoresetTree`]: a coreset covering the contiguous
/// chunk range `first_chunk..=last_chunk` at the given tree level.
#[derive(Debug, Clone)]
pub struct CoresetBucket {
    /// Tree level: 0 for a fresh chunk, `l+1` for a compaction of two
    /// level-`l` buckets.
    pub level: u32,
    /// The bucket's weighted representatives (at most `size` points).
    pub set: WeightedSet,
    /// Raw (undecayed) point mass the bucket summarises — the audit mass.
    pub points: f64,
    /// Oldest chunk id covered.
    pub first_chunk: usize,
    /// Newest chunk id covered.
    pub last_chunk: usize,
}

impl CoresetBucket {
    /// Current total weight of the bucket's representatives.
    pub fn weight(&self) -> f64 {
        self.set.total_weight()
    }
}

/// Record of one pairwise compaction performed during an insert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionInfo {
    /// Level of the bucket the compaction produced.
    pub level: u32,
    /// Representatives in the new bucket.
    pub size: usize,
    /// Weight of the new bucket.
    pub weight: f64,
    /// Combined weight of the two buckets consumed.
    pub consumed_weight: f64,
    /// Oldest chunk id the new bucket covers.
    pub first_chunk: usize,
    /// Newest chunk id the new bucket covers.
    pub last_chunk: usize,
}

/// Record of one bucket evicted by the sliding window during an insert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvictionInfo {
    /// Level of the evicted bucket.
    pub level: u32,
    /// Representatives the evicted bucket held.
    pub size: usize,
    /// Weight the evicted bucket held.
    pub weight: f64,
    /// Raw audit mass the evicted bucket covered.
    pub points: f64,
    /// Oldest chunk id covered.
    pub first_chunk: usize,
    /// Newest chunk id covered.
    pub last_chunk: usize,
}

/// Everything that happened inside the tree during one chunk insert.
#[derive(Debug, Clone, Default)]
pub struct InsertOutcome {
    /// Pairwise compactions triggered by the binary-counter carry, in the
    /// order they ran (lowest level first).
    pub compactions: Vec<CompactionInfo>,
    /// Buckets evicted by the sliding window before the insert.
    pub evictions: Vec<EvictionInfo>,
}

/// Summary of a tree's shape and mass accounting, embedded in per-cell
/// results, checkpoints and the v7 run report.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CoresetStats {
    /// Depth of the tree (`max level + 1`; 0 before the first insert).
    pub levels: u32,
    /// Live buckets right now (≤ `floor(log2(chunks)) + 1` without a
    /// window).
    pub live_buckets: usize,
    /// Total representative weight across live buckets (decayed if a decay
    /// factor is configured).
    pub live_weight: f64,
    /// Raw point mass inserted into the tree.
    pub ingested_points: f64,
    /// Raw point mass of quarantined chunks that never reached the tree.
    pub lost_points: f64,
    /// Raw point mass evicted by the sliding window.
    pub expired_points: f64,
    /// Pairwise compactions performed.
    pub compactions: u64,
    /// Chunk coresets inserted (level-0 builds).
    pub builds: u64,
    /// Anytime queries answered.
    pub queries: u64,
}

/// A binary-counter merge-reduce tree over per-chunk coresets.
///
/// Chunks must be inserted in strictly increasing chunk-id order (gaps are
/// fine — a quarantined chunk is reported via [`CoresetTree::note_lost`]
/// instead). Live memory is bounded by `levels × size` representatives.
#[derive(Debug, Clone)]
pub struct CoresetTree {
    cfg: CoresetConfig,
    seed: u64,
    cell: u32,
    buckets: Vec<CoresetBucket>,
    last_chunk: Option<usize>,
    ingested_points: f64,
    lost_points: f64,
    expired_points: f64,
    compactions: u64,
    builds: u64,
    queries: u64,
    max_level: u32,
}

impl CoresetTree {
    /// Creates an empty tree for the given cell.
    ///
    /// # Errors
    /// Propagates [`CoresetConfig::validate`] failures.
    pub fn new(cfg: CoresetConfig, seed: u64, cell: u32) -> Result<Self> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            seed,
            cell,
            buckets: Vec::new(),
            last_chunk: None,
            ingested_points: 0.0,
            lost_points: 0.0,
            expired_points: 0.0,
            compactions: 0,
            builds: 0,
            queries: 0,
            max_level: 0,
        })
    }

    /// The tree's configuration.
    pub fn config(&self) -> &CoresetConfig {
        &self.cfg
    }

    /// Live buckets, oldest chunk range first.
    pub fn buckets(&self) -> &[CoresetBucket] {
        &self.buckets
    }

    /// Number of live buckets.
    pub fn live_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Total representative weight across live buckets.
    pub fn live_weight(&self) -> f64 {
        self.buckets.iter().map(CoresetBucket::weight).sum()
    }

    /// Deepest level any bucket has reached.
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Live `(bucket count, total weight)` per level, for ledger replay
    /// checks.
    pub fn level_histogram(&self) -> BTreeMap<u32, (usize, f64)> {
        let mut hist: BTreeMap<u32, (usize, f64)> = BTreeMap::new();
        for b in &self.buckets {
            let e = hist.entry(b.level).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += b.weight();
        }
        hist
    }

    /// Inserts one chunk's coreset as a level-0 bucket and runs the
    /// binary-counter carry: while the two newest buckets share a level
    /// they are compacted into one bucket a level up (the older bucket is
    /// always the left operand, so the result is order-deterministic).
    ///
    /// With a sliding window configured, buckets whose newest chunk is
    /// older than `chunk_id - window` are evicted first; with decay, all
    /// pre-existing live weights are scaled by λ.
    ///
    /// # Errors
    /// * [`Error::InvalidConfig`] if `chunk_id` does not exceed the last
    ///   inserted chunk id,
    /// * propagated construction errors from compaction.
    pub fn insert_chunk(
        &mut self,
        chunk_id: usize,
        set: WeightedSet,
        points: f64,
    ) -> Result<InsertOutcome> {
        if let Some(last) = self.last_chunk {
            if chunk_id <= last {
                return Err(Error::InvalidConfig(format!(
                    "coreset chunks must arrive in increasing order (got {chunk_id} after {last})"
                )));
            }
        }
        let mut outcome = InsertOutcome::default();
        if let Some(window) = self.cfg.window {
            let mut kept = Vec::with_capacity(self.buckets.len());
            for b in self.buckets.drain(..) {
                if b.last_chunk + window <= chunk_id {
                    self.expired_points += b.points;
                    outcome.evictions.push(EvictionInfo {
                        level: b.level,
                        size: b.set.len(),
                        weight: b.weight(),
                        points: b.points,
                        first_chunk: b.first_chunk,
                        last_chunk: b.last_chunk,
                    });
                } else {
                    kept.push(b);
                }
            }
            self.buckets = kept;
        }
        if let Some(decay) = self.cfg.decay {
            if decay < 1.0 {
                for b in &mut self.buckets {
                    b.set.scale_weights(decay)?;
                }
            }
        }
        self.buckets.push(CoresetBucket {
            level: 0,
            set,
            points,
            first_chunk: chunk_id,
            last_chunk: chunk_id,
        });
        self.builds += 1;
        self.ingested_points += points;
        self.last_chunk = Some(chunk_id);
        while self.buckets.len() >= 2
            && self.buckets[self.buckets.len() - 1].level
                == self.buckets[self.buckets.len() - 2].level
        {
            outcome.compactions.push(self.compact_tail()?);
        }
        Ok(outcome)
    }

    /// Compacts the two newest buckets (which share a level) into one.
    fn compact_tail(&mut self) -> Result<CompactionInfo> {
        let right = self.buckets.pop().expect("compact_tail needs two buckets");
        let left = self.buckets.pop().expect("compact_tail needs two buckets");
        debug_assert_eq!(left.level, right.level);
        debug_assert!(left.first_chunk < right.first_chunk);
        let consumed_weight = left.set.total_weight() + right.set.total_weight();
        let level = left.level + 1;
        let mut union = left.set;
        union.extend_from(&right.set)?;
        let set = if union.len() <= self.cfg.size {
            // Small enough already: keep the union verbatim (conserves mass
            // trivially and keeps early trees exact).
            union
        } else {
            let stream = compact_stream(self.cell, level, left.first_chunk);
            chunk_coreset(&union, self.cfg.size, &mut rng_for(self.seed, stream))?
        };
        let bucket = CoresetBucket {
            level,
            points: left.points + right.points,
            first_chunk: left.first_chunk,
            last_chunk: right.last_chunk,
            set,
        };
        let info = CompactionInfo {
            level,
            size: bucket.set.len(),
            weight: bucket.weight(),
            consumed_weight,
            first_chunk: bucket.first_chunk,
            last_chunk: bucket.last_chunk,
        };
        self.buckets.push(bucket);
        self.compactions += 1;
        self.max_level = self.max_level.max(level);
        Ok(info)
    }

    /// Debits the audit for a chunk that was lost before reaching the tree
    /// (quarantined by the fault policy, exactly like the merge path's
    /// lost-mass accounting).
    pub fn note_lost(&mut self, points: f64) {
        self.lost_points += points;
    }

    /// Unions the live buckets into one weighted set, oldest chunk range
    /// first — a deterministic order, so queries are replayable.
    ///
    /// # Errors
    /// [`Error::EmptyDataset`] if the tree has no live buckets.
    pub fn union(&self) -> Result<WeightedSet> {
        let first = self.buckets.first().ok_or(Error::EmptyDataset)?;
        let mut all = WeightedSet::new(first.set.dim())?;
        for b in &self.buckets {
            all.extend_from(&b.set)?;
        }
        Ok(all)
    }

    /// Answers an anytime clustering query: weighted Lloyd (collective
    /// merge, heaviest-point seeding) over the union of live buckets. Cost
    /// is bounded by `live_buckets × size` input points. On a finite
    /// stream, calling this after the last chunk *is* the terminal merge.
    ///
    /// # Errors
    /// [`Error::EmptyDataset`] if the tree is empty; otherwise propagates
    /// the merge clustering's errors.
    pub fn query(
        &mut self,
        cfg: &KMeansConfig,
        merge_restarts: usize,
        rec: Option<&Recorder>,
    ) -> Result<MergeOutput> {
        let all = self.union()?;
        self.queries += 1;
        merge_collective_observed(std::slice::from_ref(&all), cfg, merge_restarts, rec)
    }

    /// [`CoresetTree::query`] without observability hooks.
    ///
    /// # Errors
    /// See [`CoresetTree::query`].
    pub fn query_now(&mut self, cfg: &KMeansConfig, merge_restarts: usize) -> Result<MergeOutput> {
        self.query(cfg, merge_restarts, None)
    }

    /// Snapshot of the tree's shape and mass accounting.
    pub fn stats(&self) -> CoresetStats {
        CoresetStats {
            levels: if self.builds == 0 { 0 } else { self.max_level + 1 },
            live_buckets: self.buckets.len(),
            live_weight: self.live_weight(),
            ingested_points: self.ingested_points,
            lost_points: self.lost_points,
            expired_points: self.expired_points,
            compactions: self.compactions,
            builds: self.builds,
            queries: self.queries,
        }
    }
}

/// RNG stream for the compaction producing `level` starting at
/// `first_chunk` in `cell` — unique, scheduling-independent inputs.
fn compact_stream(cell: u32, level: u32, first_chunk: usize) -> u64 {
    let a = derive_seed(CORESET_STREAM, u64::from(cell));
    let b = derive_seed(a, u64::from(level));
    derive_seed(b, first_chunk as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KMeansConfig;
    use crate::dataset::Dataset;
    use crate::merge::merge_collective;

    fn blob_chunk(seed: u64, n: usize) -> Dataset {
        let mut rng = rng_for(seed, 0xB10B);
        let mut ds = Dataset::new(2).unwrap();
        for _ in 0..n {
            let c = f64::from(rng.gen_range(0..3i32)) * 40.0;
            ds.push(&[c + rng.gen_range(-1.5..1.5), c + rng.gen_range(-1.5..1.5)]).unwrap();
        }
        ds
    }

    #[test]
    fn passthrough_when_chunk_fits() {
        let ds = blob_chunk(1, 8);
        let cs = chunk_coreset(&ds, 16, &mut rng_for(1, 2)).unwrap();
        assert_eq!(cs.len(), 8);
        assert_eq!(cs.as_flat(), ds.as_flat());
        assert!(cs.weights().iter().all(|&w| w == 1.0));
    }

    #[test]
    fn coreset_conserves_integer_mass_and_respects_size() {
        let ds = blob_chunk(7, 500);
        let cs = chunk_coreset(&ds, 64, &mut rng_for(7, 3)).unwrap();
        assert!(cs.len() <= 64);
        assert_eq!(cs.total_weight(), 500.0, "grouped integer sums are exact");
    }

    #[test]
    fn coreset_is_seed_deterministic() {
        let ds = blob_chunk(9, 300);
        let a = chunk_coreset(&ds, 32, &mut rng_for(9, 4)).unwrap();
        let b = chunk_coreset(&ds, 32, &mut rng_for(9, 4)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_chunk_still_builds() {
        let mut ds = Dataset::new(2).unwrap();
        for _ in 0..100 {
            ds.push(&[5.0, 5.0]).unwrap();
        }
        let cs = chunk_coreset(&ds, 10, &mut rng_for(3, 3)).unwrap();
        assert_eq!(cs.total_weight(), 100.0);
        assert!(cs.len() <= 10);
    }

    /// A 6-D chunk of the shape `planet_coreset` streams: a 40-blob
    /// mixture with per-blob spread, so sampled representatives land at
    /// every distance scale.
    fn wide_chunk(seed: u64, n: usize) -> Dataset {
        let mut rng = rng_for(seed, 0x6D1D);
        let mut ds = Dataset::new(6).unwrap();
        let mut row = [0.0f64; 6];
        for _ in 0..n {
            let blob = f64::from(rng.gen_range(0..40i32));
            for (d, x) in row.iter_mut().enumerate() {
                *x = blob * (7.0 + d as f64) % 90.0 + rng.gen_range(-2.5..2.5);
            }
            ds.push(&row).unwrap();
        }
        ds
    }

    /// Word-wise FNV-1a over the coordinates' bits, then the weights'.
    fn fnv_bits(set: &WeightedSet) -> u64 {
        set.as_flat().iter().chain(set.weights()).fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    // Both digests were recorded on the commit *before* the
    // nearest-representative pass moved onto the fused kernel (f572fbf: this
    // test dropped into an export of that tree, scalar double loop and all).
    // `sse_ratio_vs_serial` only says one cell's final centroids did not
    // move; this says no representative and no weight anywhere in the tree
    // did — 60 level-0 builds and 56 compactions, `planet_coreset`'s shape.
    // A kernel change that moves either constant changed a clustering.
    #[test]
    fn coreset_bits_are_pinned() {
        let build = |id: usize| {
            chunk_coreset(&wide_chunk(id as u64, 2_500), 256, &mut rng_for(42, id as u64))
        };
        assert_eq!(
            fnv_bits(&build(0).unwrap()),
            0xbc3e_ac75_77a5_a1c5,
            "one 2,500 x 6 -> 256 build"
        );

        let mut tree = CoresetTree::new(CoresetConfig::new(256), 42, 0).unwrap();
        for id in 0..60 {
            tree.insert_chunk(id, build(id).unwrap(), 2_500.0).unwrap();
        }
        assert_eq!((tree.live_buckets(), tree.stats().compactions), (4, 56));
        assert_eq!(tree.live_weight(), 60.0 * 2_500.0);
        assert_eq!(
            fnv_bits(&tree.union().unwrap()),
            0xd553_78d4_4f85_1e0f,
            "union after 60 chunks"
        );
    }

    /// The identity the stream engine's classic tail rests on: a buffer
    /// tree answers exactly what the collective merge over the buffered
    /// chunk sets answers.
    #[test]
    fn buffer_tree_is_the_collective_merge() {
        let sets: Vec<WeightedSet> = (0..7u64)
            .map(|chunk| WeightedSet::from_dataset(&blob_chunk(chunk + 60, 30 + chunk as usize)))
            .collect();
        let mut tree = CoresetTree::new(CoresetConfig::buffer(), 3, 0).unwrap();
        for (chunk, set) in sets.iter().enumerate() {
            tree.insert_chunk(chunk, set.clone(), set.total_weight()).unwrap();
        }
        // 7 = 0b111 chunks: carries reached levels 1 and 2, and three
        // buckets stay live.
        assert_eq!((tree.stats().compactions, tree.live_buckets(), tree.stats().levels), (4, 3, 3));

        let mut concatenated = WeightedSet::new(2).unwrap();
        for set in &sets {
            concatenated.extend_from(set).unwrap();
        }
        let union = tree.union().unwrap();
        let bits = |s: &WeightedSet| -> Vec<u64> {
            s.as_flat().iter().chain(s.weights()).map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&union), bits(&concatenated), "no compaction sampled");

        let cfg = KMeansConfig::paper(3, 19);
        let from_tree = merge_collective(std::slice::from_ref(&union), &cfg, 2).unwrap();
        let from_sets = merge_collective(&sets, &cfg, 2).unwrap();
        assert_eq!(from_tree.centroids, from_sets.centroids);
        assert_eq!(from_tree.cluster_weights, from_sets.cluster_weights);
        assert_eq!(from_tree.epm.to_bits(), from_sets.epm.to_bits());
        assert_eq!(from_tree.iterations, from_sets.iterations);
    }

    #[test]
    fn tree_follows_binary_counter() {
        let mut tree = CoresetTree::new(CoresetConfig::new(16), 42, 0).unwrap();
        for chunk in 0..13usize {
            let ds = blob_chunk(chunk as u64, 40);
            let cs = chunk_coreset(&ds, 16, &mut rng_for(42, chunk as u64)).unwrap();
            tree.insert_chunk(chunk, cs, 40.0).unwrap();
            let inserted = chunk + 1;
            assert_eq!(tree.live_buckets(), inserted.count_ones() as usize);
            assert!(tree.live_buckets() <= (usize::BITS - inserted.leading_zeros()) as usize);
        }
        let stats = tree.stats();
        assert_eq!(stats.ingested_points, 13.0 * 40.0);
        assert_eq!(stats.builds, 13);
        assert_eq!(tree.live_weight(), 13.0 * 40.0, "mass conserved through compactions");
    }

    #[test]
    fn tree_mass_survives_deep_compaction() {
        let mut tree = CoresetTree::new(CoresetConfig::new(24), 7, 1).unwrap();
        for chunk in 0..64usize {
            let ds = blob_chunk(chunk as u64 + 100, 50);
            let cs = chunk_coreset(&ds, 24, &mut rng_for(7, chunk as u64)).unwrap();
            tree.insert_chunk(chunk, cs, 50.0).unwrap();
        }
        assert_eq!(tree.live_buckets(), 1, "64 = 2^6 chunks collapse to one bucket");
        assert_eq!(tree.live_weight(), 64.0 * 50.0);
        assert_eq!(tree.stats().levels, 7);
    }

    #[test]
    fn tree_is_replay_deterministic() {
        let run = || {
            let mut tree = CoresetTree::new(CoresetConfig::new(20), 5, 2).unwrap();
            for chunk in 0..11usize {
                let ds = blob_chunk(chunk as u64 + 30, 45);
                let cs = chunk_coreset(&ds, 20, &mut rng_for(5, chunk as u64)).unwrap();
                tree.insert_chunk(chunk, cs, 45.0).unwrap();
            }
            tree.union().unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn out_of_order_insert_rejected() {
        let mut tree = CoresetTree::new(CoresetConfig::new(8), 1, 0).unwrap();
        let ds = blob_chunk(1, 10);
        let cs = WeightedSet::from_dataset(&ds);
        tree.insert_chunk(3, cs.clone(), 10.0).unwrap();
        assert!(tree.insert_chunk(3, cs.clone(), 10.0).is_err());
        assert!(tree.insert_chunk(2, cs, 10.0).is_err());
    }

    #[test]
    fn window_evicts_old_buckets_into_expired_mass() {
        let mut tree =
            CoresetTree::new(CoresetConfig { size: 16, window: Some(4), decay: None }, 11, 0)
                .unwrap();
        let mut evictions = 0usize;
        for chunk in 0..12usize {
            let ds = blob_chunk(chunk as u64, 30);
            let cs = WeightedSet::from_dataset(&ds);
            let out = tree.insert_chunk(chunk, cs, 30.0).unwrap();
            evictions += out.evictions.len();
            for b in tree.buckets() {
                assert!(b.last_chunk + 4 > chunk, "no live bucket is entirely out of window");
            }
        }
        assert!(evictions > 0, "a 4-chunk window over 12 chunks must evict");
        let stats = tree.stats();
        assert!(stats.expired_points > 0.0);
        assert_eq!(
            stats.ingested_points,
            tree.live_weight() + stats.expired_points,
            "live + expired mass accounts for everything ingested"
        );
    }

    #[test]
    fn decay_scales_live_weight_but_not_audit() {
        let mut tree =
            CoresetTree::new(CoresetConfig { size: 16, window: None, decay: Some(0.5) }, 13, 0)
                .unwrap();
        for chunk in 0..3usize {
            let ds = blob_chunk(chunk as u64, 8);
            tree.insert_chunk(chunk, WeightedSet::from_dataset(&ds), 8.0).unwrap();
        }
        // Weights: 8·0.25 + 8·0.5 + 8 = 14; audit mass stays 24.
        assert!((tree.live_weight() - 14.0).abs() < 1e-9);
        assert_eq!(tree.stats().ingested_points, 24.0);
    }

    #[test]
    fn lost_mass_debits_audit() {
        let mut tree = CoresetTree::new(CoresetConfig::new(8), 3, 0).unwrap();
        let ds = blob_chunk(2, 10);
        tree.insert_chunk(0, WeightedSet::from_dataset(&ds), 10.0).unwrap();
        tree.note_lost(25.0);
        let stats = tree.stats();
        assert_eq!(stats.lost_points, 25.0);
        assert_eq!(stats.ingested_points, 10.0);
    }

    #[test]
    fn query_runs_weighted_lloyd_over_union() {
        let mut tree = CoresetTree::new(CoresetConfig::new(32), 21, 0).unwrap();
        for chunk in 0..6usize {
            let ds = blob_chunk(chunk as u64 + 50, 120);
            let cs = chunk_coreset(&ds, 32, &mut rng_for(21, chunk as u64)).unwrap();
            tree.insert_chunk(chunk, cs, 120.0).unwrap();
        }
        let cfg = KMeansConfig::paper(3, 77);
        let out = tree.query_now(&cfg, 3).unwrap();
        assert_eq!(out.centroids.k(), 3);
        assert!(out.input_centroids <= tree.live_buckets() * 32);
        assert!((out.cluster_weights.iter().sum::<f64>() - 720.0).abs() < 1e-9);
        assert_eq!(tree.stats().queries, 1);
    }

    #[test]
    fn empty_tree_query_fails_cleanly() {
        let mut tree = CoresetTree::new(CoresetConfig::new(8), 0, 0).unwrap();
        let cfg = KMeansConfig::paper(2, 1);
        assert!(matches!(tree.query_now(&cfg, 1), Err(Error::EmptyDataset)));
    }

    #[test]
    fn config_validation() {
        assert!(CoresetConfig::new(0).validate().is_err());
        assert!(CoresetConfig { size: 8, window: Some(0), decay: None }.validate().is_err());
        assert!(CoresetConfig { size: 8, window: None, decay: Some(0.0) }.validate().is_err());
        assert!(CoresetConfig { size: 8, window: None, decay: Some(1.5) }.validate().is_err());
        assert!(CoresetConfig { size: 8, window: Some(2), decay: Some(0.9) }.validate().is_ok());
    }
}
