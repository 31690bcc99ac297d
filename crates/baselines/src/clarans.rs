//! CLARANS (Ng & Han, VLDB 1994) — "Efficient and Effective Clustering
//! Methods for Spatial Data Mining", the paper's related-work citation
//! \[25\] for partitional clustering of large spatial data.
//!
//! CLARANS searches the graph whose nodes are k-medoid sets and whose
//! edges connect sets differing in one medoid: from a random node it
//! examines up to `max_neighbors` random swap-neighbors, moves greedily to
//! the first improving one, and declares a *local minimum* when none of
//! the sampled neighbors improves; the whole search restarts `num_local`
//! times and keeps the cheapest local minimum.
//!
//! Swap costs are evaluated with the classic PAM bookkeeping: for every
//! point we track the distance to its nearest and second-nearest medoid,
//! so the cost delta of swapping medoid `out` for candidate `in` is a
//! single O(n·d) pass instead of a full O(n·k·d) re-clustering.

use pmkm_core::error::{Error, Result};
use pmkm_core::point::dist;
use pmkm_core::seeding::rng_for;
use pmkm_core::{Centroids, Dataset, PointSource};
use rand::Rng;
use serde::Serialize;
use std::time::{Duration, Instant};

/// CLARANS parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ClaransConfig {
    /// Number of medoids (clusters).
    pub k: usize,
    /// Local-minimum searches (`numlocal`; Ng & Han recommend 2).
    pub num_local: usize,
    /// Neighbor samples per step (`maxneighbor`; Ng & Han recommend
    /// `max(250, 1.25 % · k(n−k))` — pass 0 to use that rule).
    pub max_neighbors: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClaransConfig {
    fn default() -> Self {
        Self { k: 8, num_local: 2, max_neighbors: 0, seed: 0 }
    }
}

impl ClaransConfig {
    fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(Error::ZeroK);
        }
        if self.num_local == 0 {
            return Err(Error::InvalidConfig("num_local must be >= 1".into()));
        }
        Ok(())
    }

    fn resolved_neighbors(&self, n: usize) -> usize {
        if self.max_neighbors > 0 {
            return self.max_neighbors;
        }
        let rule = (0.0125 * (self.k * (n - self.k.min(n))) as f64) as usize;
        rule.max(250)
    }
}

/// CLARANS result.
#[derive(Debug, Clone)]
pub struct ClaransResult {
    /// Indices of the chosen medoids in the input dataset.
    pub medoid_indices: Vec<usize>,
    /// The medoids as a centroid table (for metric comparisons).
    pub medoids: Centroids,
    /// k-medoid cost: Σ dist(point, nearest medoid).
    pub cost: f64,
    /// Points captured per medoid.
    pub cluster_weights: Vec<f64>,
    /// Swap-neighbors examined in total.
    pub neighbors_examined: usize,
    /// Local minima found (= `num_local`).
    pub local_minima: usize,
    /// Wall time.
    pub elapsed: Duration,
}

/// Per-point nearest/second-nearest bookkeeping.
struct Assign {
    nearest: Vec<usize>,
    d1: Vec<f64>,
    d2: Vec<f64>,
}

fn full_assign(ds: &Dataset, medoids: &[usize]) -> (Assign, f64) {
    let n = ds.len();
    let mut a = Assign { nearest: vec![0; n], d1: vec![0.0; n], d2: vec![0.0; n] };
    let mut cost = 0.0;
    for i in 0..n {
        let p = ds.coords(i);
        let mut best = (f64::INFINITY, 0usize);
        let mut second = f64::INFINITY;
        for (mi, &m) in medoids.iter().enumerate() {
            let d = dist(p, ds.coords(m));
            if d < best.0 {
                second = best.0;
                best = (d, mi);
            } else if d < second {
                second = d;
            }
        }
        a.nearest[i] = best.1;
        a.d1[i] = best.0;
        a.d2[i] = second;
        cost += best.0;
    }
    (a, cost)
}

/// PAM swap delta: cost change of replacing medoid slot `out_slot` with
/// point `cand`. O(n·d).
fn swap_delta(ds: &Dataset, a: &Assign, out_slot: usize, cand: usize) -> f64 {
    let cand_coords = ds.coords(cand);
    let mut delta = 0.0;
    for i in 0..ds.len() {
        let d_cand = dist(ds.coords(i), cand_coords);
        if a.nearest[i] == out_slot {
            // Point loses its medoid: goes to the candidate or its second.
            delta += d_cand.min(a.d2[i]) - a.d1[i];
        } else if d_cand < a.d1[i] {
            // Point defects to the candidate.
            delta += d_cand - a.d1[i];
        }
    }
    delta
}

/// Runs CLARANS on one cell.
pub fn clarans(ds: &Dataset, cfg: &ClaransConfig) -> Result<ClaransResult> {
    cfg.validate()?;
    if ds.is_empty() {
        return Err(Error::EmptyDataset);
    }
    let n = ds.len();
    if cfg.k > n {
        return Err(Error::KExceedsPoints { k: cfg.k, points: n });
    }
    let started = Instant::now();
    let max_neighbors = cfg.resolved_neighbors(n);
    let mut rng = rng_for(cfg.seed, 0);
    let mut best: Option<(Vec<usize>, f64)> = None;
    let mut neighbors_examined = 0usize;

    for _local in 0..cfg.num_local {
        // Random initial node: k distinct medoid indices.
        let mut medoids: Vec<usize> = {
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..cfg.k {
                let j = rng.gen_range(i..n);
                idx.swap(i, j);
            }
            idx.truncate(cfg.k);
            idx
        };
        let (mut assign, mut cost) = full_assign(ds, &medoids);

        let mut tries = 0usize;
        while tries < max_neighbors {
            let out_slot = rng.gen_range(0..cfg.k);
            let cand = rng.gen_range(0..n);
            if medoids.contains(&cand) {
                tries += 1;
                continue;
            }
            neighbors_examined += 1;
            let delta = swap_delta(ds, &assign, out_slot, cand);
            if delta < -1e-12 {
                medoids[out_slot] = cand;
                let (na, nc) = full_assign(ds, &medoids);
                assign = na;
                cost = nc;
                tries = 0; // restart the neighbor counter at the new node
            } else {
                tries += 1;
            }
        }
        if best.as_ref().map(|(_, c)| cost < *c).unwrap_or(true) {
            best = Some((medoids, cost));
        }
    }

    let (medoid_indices, cost) = best.expect("num_local >= 1");
    let (assign, _) = full_assign(ds, &medoid_indices);
    let mut cluster_weights = vec![0.0; cfg.k];
    for &m in &assign.nearest {
        cluster_weights[m] += 1.0;
    }
    let flat: Vec<f64> =
        medoid_indices.iter().flat_map(|&m| ds.coords(m).iter().copied()).collect();
    Ok(ClaransResult {
        medoids: Centroids::from_flat(ds.dim(), flat)?,
        medoid_indices,
        cost,
        cluster_weights,
        neighbors_examined,
        local_minima: cfg.num_local,
        elapsed: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmkm_core::metrics;

    fn blob_cell(n_per: usize) -> Dataset {
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..n_per {
            let o = (i % 9) as f64 * 0.05;
            ds.push(&[o, o]).unwrap();
            ds.push(&[20.0 + o, 20.0 - o]).unwrap();
            ds.push(&[-20.0 - o, 20.0 + o]).unwrap();
        }
        ds
    }

    fn cfg(k: usize) -> ClaransConfig {
        ClaransConfig { k, num_local: 2, max_neighbors: 100, seed: 5 }
    }

    #[test]
    fn finds_the_three_blobs() {
        let ds = blob_cell(40); // 120 points
        let out = clarans(&ds, &cfg(3)).unwrap();
        assert_eq!(out.medoid_indices.len(), 3);
        // One medoid per blob: data-space MSE is small.
        let mse = metrics::mse_against(&ds, &out.medoids).unwrap();
        assert!(mse < 2.0, "mse = {mse}");
        let total: f64 = out.cluster_weights.iter().sum();
        assert_eq!(total, 120.0);
    }

    #[test]
    fn medoids_are_actual_input_points() {
        let ds = blob_cell(20);
        let out = clarans(&ds, &cfg(3)).unwrap();
        for (slot, &idx) in out.medoid_indices.iter().enumerate() {
            assert_eq!(out.medoids.centroid(slot), ds.coords(idx));
        }
        // Medoid indices are distinct.
        let mut sorted = out.medoid_indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn cost_matches_direct_recomputation() {
        let ds = blob_cell(15);
        let out = clarans(&ds, &cfg(2)).unwrap();
        let mut expect = 0.0;
        for p in ds.iter() {
            expect += out.medoids.iter().map(|m| dist(p, m)).fold(f64::INFINITY, f64::min);
        }
        assert!((out.cost - expect).abs() < 1e-9, "{} vs {expect}", out.cost);
    }

    #[test]
    fn swap_delta_agrees_with_full_reassign() {
        let ds = blob_cell(12);
        let medoids = vec![0, 5, 20];
        let (assign, cost) = full_assign(&ds, &medoids);
        for out_slot in 0..3 {
            for cand in [2usize, 7, 19, 30] {
                if medoids.contains(&cand) {
                    continue;
                }
                let delta = swap_delta(&ds, &assign, out_slot, cand);
                let mut swapped = medoids.clone();
                swapped[out_slot] = cand;
                let (_, new_cost) = full_assign(&ds, &swapped);
                assert!(
                    (cost + delta - new_cost).abs() < 1e-9,
                    "slot {out_slot} cand {cand}: {cost} + {delta} != {new_cost}"
                );
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ds = blob_cell(20);
        let a = clarans(&ds, &cfg(3)).unwrap();
        let b = clarans(&ds, &cfg(3)).unwrap();
        assert_eq!(a.medoid_indices, b.medoid_indices);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn neighbor_rule_resolves() {
        let c = ClaransConfig { k: 40, max_neighbors: 0, ..ClaransConfig::default() };
        // 1.25% of 40·(10000−40) = 4980 > 250.
        assert_eq!(c.resolved_neighbors(10_000), 4980);
        // Small n falls back to the 250 floor.
        assert_eq!(c.resolved_neighbors(100), 250);
        let c = ClaransConfig { max_neighbors: 77, ..ClaransConfig::default() };
        assert_eq!(c.resolved_neighbors(10_000), 77);
    }

    #[test]
    fn input_validation() {
        let empty = Dataset::new(2).unwrap();
        assert!(matches!(clarans(&empty, &cfg(2)), Err(Error::EmptyDataset)));
        let tiny = Dataset::from_rows(&[[0.0, 0.0]]).unwrap();
        assert!(matches!(clarans(&tiny, &cfg(2)), Err(Error::KExceedsPoints { .. })));
        let ds = blob_cell(5);
        assert!(clarans(&ds, &ClaransConfig { k: 0, ..cfg(1) }).is_err());
        assert!(clarans(&ds, &ClaransConfig { num_local: 0, ..cfg(2) }).is_err());
    }

    #[test]
    fn more_search_never_worse() {
        let ds = blob_cell(25);
        let quick =
            clarans(&ds, &ClaransConfig { k: 3, num_local: 1, max_neighbors: 5, seed: 9 }).unwrap();
        let thorough =
            clarans(&ds, &ClaransConfig { k: 3, num_local: 4, max_neighbors: 200, seed: 9 })
                .unwrap();
        assert!(thorough.cost <= quick.cost + 1e-9);
        assert!(thorough.neighbors_examined >= quick.neighbors_examined);
    }
}
