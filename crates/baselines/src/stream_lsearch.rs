//! A STREAM/LOCALSEARCH-style streaming clusterer (O'Callaghan, Mishra,
//! Meyerson, Guha & Motwani, ICDE 2002) — the related work the paper calls
//! "most closely related" (§2.2, \[7\]).
//!
//! The STREAM framework clusters each incoming chunk into `k` weighted
//! centers with a facility-location **local search** (k-median objective:
//! sum of weighted *distances*, not squared distances), retains only the
//! weighted centers, and re-clusters the retained centers whenever they
//! outgrow memory. Unlike partial/merge k-means there is no collective
//! merge over all chunks — later compressions always operate on already
//! compressed state, which is exactly the structural difference the paper
//! highlights.
//!
//! The local search here is the practical swap-based variant: start from
//! weighted k-means++-style seeds, then repeatedly try swapping a random
//! non-center in for the center whose removal costs least, keeping swaps
//! that reduce the k-median cost. Gain thresholds and iteration caps match
//! the published algorithm's spirit; the exact FL subroutine of the paper
//! (with facility cost binary search) is simplified — documented here and
//! in DESIGN.md — because the comparison axes are quality and time, not
//! facility-location internals.

use pmkm_core::config::SeedMode;
use pmkm_core::error::{Error, Result};
use pmkm_core::seeding::{derive_seed, rng_for, seed_centroids};
use pmkm_core::{Centroids, Dataset, PointSource, WeightedSet};
use rand::Rng;
use serde::Serialize;
use std::time::{Duration, Instant};

/// STREAM-LS parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StreamLsConfig {
    /// Centers kept per chunk (and finally).
    pub k: usize,
    /// Maximum retained weighted centers before re-compression.
    pub max_retained: usize,
    /// Swap attempts per local-search run.
    pub swap_attempts: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StreamLsConfig {
    fn default() -> Self {
        Self { k: 8, max_retained: 400, swap_attempts: 200, seed: 0 }
    }
}

impl StreamLsConfig {
    fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(Error::ZeroK);
        }
        if self.max_retained < self.k {
            return Err(Error::InvalidConfig("max_retained must be >= k".into()));
        }
        Ok(())
    }
}

/// Final result of a STREAM-LS pass.
#[derive(Debug, Clone)]
pub struct StreamLsResult {
    /// The final `k` weighted centers.
    pub centers: WeightedSet,
    /// k-median cost of the final centers over themselves at the last
    /// compression (internal objective).
    pub cost: f64,
    /// Number of chunk compressions performed.
    pub compressions: usize,
    /// Wall time.
    pub elapsed: Duration,
}

impl StreamLsResult {
    /// The centers as a plain centroid table (for SSE comparisons against
    /// k-means outputs).
    pub fn centroids(&self) -> Result<Centroids> {
        let flat: Vec<f64> = self.centers.iter().flat_map(|(c, _)| c.iter().copied()).collect();
        Centroids::from_flat(self.centers.dim(), flat)
    }
}

/// Streaming state: feed chunks with [`StreamLs::consume_chunk`], then call
/// [`StreamLs::finish`].
pub struct StreamLs {
    cfg: StreamLsConfig,
    retained: WeightedSet,
    compressions: usize,
    chunk_counter: u64,
    started: Instant,
    dim: usize,
}

impl StreamLs {
    /// A fresh streaming clusterer for `dim`-dimensional points.
    pub fn new(dim: usize, cfg: StreamLsConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            retained: WeightedSet::new(dim)?,
            compressions: 0,
            chunk_counter: 0,
            started: Instant::now(),
            dim,
        })
    }

    /// Consumes one chunk: clusters it to `k` weighted centers via local
    /// search and adds them to the retained set, re-compressing the
    /// retained set when it exceeds the memory bound.
    pub fn consume_chunk(&mut self, chunk: &Dataset) -> Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        if chunk.dim() != self.dim {
            return Err(Error::DimensionMismatch { expected: self.dim, actual: chunk.dim() });
        }
        let seed = derive_seed(self.cfg.seed, self.chunk_counter);
        self.chunk_counter += 1;
        let ws = WeightedSet::from_dataset(chunk);
        let (centers, _cost) = local_search(&ws, self.cfg.k, self.cfg.swap_attempts, seed)?;
        self.retained.extend_from(&centers)?;
        self.compressions += 1;
        if self.retained.len() > self.cfg.max_retained {
            let seed = derive_seed(self.cfg.seed, 0xC0DE ^ self.chunk_counter);
            let (compressed, _) =
                local_search(&self.retained, self.cfg.k, self.cfg.swap_attempts, seed)?;
            self.retained = compressed;
            self.compressions += 1;
        }
        Ok(())
    }

    /// Final compression of the retained centers down to `k`.
    pub fn finish(self) -> Result<StreamLsResult> {
        if self.retained.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let (centers, cost) = if self.retained.len() <= self.cfg.k {
            (self.retained, 0.0)
        } else {
            local_search(
                &self.retained,
                self.cfg.k,
                self.cfg.swap_attempts,
                derive_seed(self.cfg.seed, 0xF1A1),
            )?
        };
        Ok(StreamLsResult {
            centers,
            cost,
            compressions: self.compressions,
            elapsed: self.started.elapsed(),
        })
    }
}

/// One-shot convenience: stream a cell through in `p` chunks.
pub fn stream_lsearch(
    cell: &Dataset,
    chunks: usize,
    cfg: StreamLsConfig,
) -> Result<StreamLsResult> {
    cfg.validate()?;
    if cell.is_empty() {
        return Err(Error::EmptyDataset);
    }
    let mut ls = StreamLs::new(cell.dim(), cfg)?;
    for chunk in cell.split_round_robin(chunks.max(1))? {
        ls.consume_chunk(&chunk)?;
    }
    ls.finish()
}

/// Swap-based weighted k-median local search. Returns the chosen centers
/// (weighted by captured input weight) and the final k-median cost.
fn local_search(
    points: &WeightedSet,
    k: usize,
    swap_attempts: usize,
    seed: u64,
) -> Result<(WeightedSet, f64)> {
    let n = points.len();
    if n <= k {
        return Ok((points.clone(), 0.0));
    }
    let dim = points.dim();
    let mut rng = rng_for(seed, 0);
    // Seeds via weighted D² sampling (a good k-median start too).
    let init = seed_centroids(points, k, SeedMode::PlusPlus, &mut rng)?;
    let mut centers: Vec<Vec<f64>> = init.iter().map(|c| c.to_vec()).collect();
    let mut cost = kmedian_cost(points, &centers);

    for _ in 0..swap_attempts {
        let candidate_idx = rng.gen_range(0..n);
        let candidate = points.coords(candidate_idx).to_vec();
        if centers.iter().any(|c| c == &candidate) {
            continue;
        }
        let out_idx = rng.gen_range(0..k);
        let saved = std::mem::replace(&mut centers[out_idx], candidate);
        let new_cost = kmedian_cost(points, &centers);
        if new_cost + 1e-12 < cost {
            cost = new_cost;
        } else {
            centers[out_idx] = saved;
        }
    }

    // Weight each center by the input weight it captures.
    let mut weights = vec![0.0; k];
    for i in 0..n {
        let j = nearest_center(points.coords(i), &centers);
        weights[j] += points.weight(i);
    }
    let mut ws = WeightedSet::new(dim)?;
    for (c, w) in centers.iter().zip(&weights) {
        if *w > 0.0 {
            ws.push(c, *w)?;
        }
    }
    Ok((ws, cost))
}

fn nearest_center(p: &[f64], centers: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (j, c) in centers.iter().enumerate() {
        let d: f64 = p.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum();
        if d < best_d {
            best_d = d;
            best = j;
        }
    }
    best
}

/// k-median objective: Σ wᵢ · dist(xᵢ, nearest center).
fn kmedian_cost(points: &WeightedSet, centers: &[Vec<f64>]) -> f64 {
    let mut cost = 0.0;
    for i in 0..points.len() {
        let p = points.coords(i);
        let d: f64 = centers
            .iter()
            .map(|c| p.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt())
            .fold(f64::INFINITY, f64::min);
        cost += points.weight(i) * d;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmkm_core::metrics;

    fn blob_cell(n_per: usize) -> Dataset {
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..n_per {
            let o = (i % 8) as f64 * 0.05;
            ds.push(&[o, o]).unwrap();
            ds.push(&[25.0 + o, 25.0 - o]).unwrap();
        }
        ds
    }

    #[test]
    fn recovers_two_blobs() {
        let ds = blob_cell(100);
        let cfg = StreamLsConfig { k: 2, seed: 3, ..StreamLsConfig::default() };
        let out = stream_lsearch(&ds, 5, cfg).unwrap();
        assert_eq!(out.centers.len(), 2);
        let total: f64 = out.centers.weights().iter().sum();
        assert_eq!(total, 200.0);
        let mse = metrics::mse_against(&ds, &out.centroids().unwrap()).unwrap();
        assert!(mse < 5.0, "mse = {mse}");
    }

    #[test]
    fn weight_is_conserved_through_recompressions() {
        let ds = blob_cell(200); // 400 points
        let cfg = StreamLsConfig { k: 4, max_retained: 8, seed: 1, ..StreamLsConfig::default() };
        let out = stream_lsearch(&ds, 10, cfg).unwrap();
        let total: f64 = out.centers.weights().iter().sum();
        assert_eq!(total, 400.0);
        // max_retained = 8 with 10 chunks of k=4 each forces intermediate
        // compressions.
        assert!(out.compressions > 10, "compressions = {}", out.compressions);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ds = blob_cell(60);
        let cfg = StreamLsConfig { k: 3, seed: 9, ..StreamLsConfig::default() };
        let a = stream_lsearch(&ds, 4, cfg).unwrap();
        let b = stream_lsearch(&ds, 4, cfg).unwrap();
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn local_search_improves_or_keeps_cost() {
        let ds = blob_cell(60);
        let ws = WeightedSet::from_dataset(&ds);
        let (_, cost_many) = local_search(&ws, 2, 300, 5).unwrap();
        let (_, cost_none) = local_search(&ws, 2, 0, 5).unwrap();
        assert!(cost_many <= cost_none + 1e-9);
    }

    #[test]
    fn tiny_inputs_pass_through() {
        let mut ds = Dataset::new(1).unwrap();
        ds.push(&[1.0]).unwrap();
        ds.push(&[2.0]).unwrap();
        let cfg = StreamLsConfig { k: 8, ..StreamLsConfig::default() };
        let out = stream_lsearch(&ds, 2, cfg).unwrap();
        assert_eq!(out.centers.len(), 2);
        assert_eq!(out.cost, 0.0);
    }

    #[test]
    fn input_validation() {
        let empty = Dataset::new(2).unwrap();
        assert!(matches!(
            stream_lsearch(&empty, 3, StreamLsConfig::default()),
            Err(Error::EmptyDataset)
        ));
        let ds = blob_cell(5);
        assert!(stream_lsearch(&ds, 2, StreamLsConfig { k: 0, ..Default::default() }).is_err());
        assert!(stream_lsearch(
            &ds,
            2,
            StreamLsConfig { k: 10, max_retained: 5, ..Default::default() }
        )
        .is_err());
        let mut ls = StreamLs::new(2, StreamLsConfig::default()).unwrap();
        let wrong = Dataset::from_rows(&[[1.0]]).unwrap();
        assert!(ls.consume_chunk(&wrong).is_err());
    }

    #[test]
    fn empty_chunks_are_ignored() {
        let mut ls = StreamLs::new(2, StreamLsConfig { k: 2, ..Default::default() }).unwrap();
        ls.consume_chunk(&Dataset::new(2).unwrap()).unwrap();
        let ds = blob_cell(20);
        ls.consume_chunk(&ds).unwrap();
        let out = ls.finish().unwrap();
        let total: f64 = out.centers.weights().iter().sum();
        assert_eq!(total, 40.0);
    }
}
