//! Entropy-Constrained Vector Quantization (ECVQ) as a partial step.
//!
//! The paper's §3.3 remarks point at ECVQ (Chou, Lookabaugh & Gray 1989;
//! Braverman 2002) as the answer to "which k for which partition size":
//! instead of a fixed `k`, ECVQ starts from a maximum `k` and a Lagrangian
//! penalty `λ` on code length. A point is assigned to the centroid
//! minimizing `‖x − c_j‖² + λ·len_j` with `len_j = −log₂ p_j`, so small
//! clusters (long code words) are penalized, "some seeds might be starved,
//! and can be discarded. This allows to find an optimal k for a partition on
//! the fly."
//!
//! Neither engine runs it: only the `ablation_ecvq` harness does, so it
//! lives here, over `pmkm-core`'s public slicing, seeding and merge.

use pmkm_core::point::sq_dist;
use pmkm_core::seeding::{rng_for, seed_centroids};
use pmkm_core::{
    chunk_seed, merge_collective, slice, Centroids, ChunkStats, Dataset, Error, LloydConfig,
    PartialMergeConfig, PartialMergeResult, PartialOutput, PointSource, Result, SeedMode,
    WeightedSet, DEFAULT_MAX_ITERS, PAPER_EPSILON,
};
use std::time::Instant;

/// ECVQ parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcvqConfig {
    /// Upper bound on the codebook size (the paper: "define a maximum k").
    pub max_k: usize,
    /// Lagrange multiplier trading distortion for rate. `0.0` reduces ECVQ
    /// to plain k-means with `k = max_k` (minus starvation).
    pub lambda: f64,
    /// Convergence threshold on the per-iteration decrease of the
    /// Lagrangian cost `J = distortion + λ·rate·W`.
    pub epsilon: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// RNG seed for the initial codebook (random distinct points).
    pub seed: u64,
}

impl Default for EcvqConfig {
    fn default() -> Self {
        Self {
            max_k: 40,
            lambda: 1.0,
            epsilon: PAPER_EPSILON,
            max_iters: DEFAULT_MAX_ITERS,
            seed: 0,
        }
    }
}

impl EcvqConfig {
    fn validate(&self) -> Result<()> {
        if self.max_k == 0 {
            return Err(Error::ZeroK);
        }
        if !(self.lambda.is_finite() && self.lambda >= 0.0) {
            return Err(Error::InvalidConfig("lambda must be finite and >= 0".into()));
        }
        LloydConfig { epsilon: self.epsilon, max_iters: self.max_iters, ..LloydConfig::default() }
            .validate()
    }
}

/// Result of an ECVQ run.
#[derive(Debug, Clone, PartialEq)]
pub struct EcvqResult {
    /// Surviving codebook (`k_final ≤ max_k` centroids).
    pub centroids: Centroids,
    /// Weight captured by each surviving centroid.
    pub cluster_weights: Vec<f64>,
    /// Empirical probability of each surviving centroid.
    pub probabilities: Vec<f64>,
    /// Weighted SSE of the final assignment (distortion `D`).
    pub distortion: f64,
    /// Average code length in bits (`R = −Σ p_j log₂ p_j` under the
    /// empirical assignment distribution).
    pub rate_bits: f64,
    /// Final Lagrangian cost `D + λ·R·W`.
    pub cost: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Whether the cost delta criterion was met.
    pub converged: bool,
}

impl EcvqResult {
    /// The adaptive codebook size the paper wants "found on the fly".
    pub fn final_k(&self) -> usize {
        self.centroids.k()
    }

    /// Converts the codebook into a weighted centroid set, ready to feed
    /// the merge step.
    pub fn to_weighted_set(&self) -> Result<WeightedSet> {
        let mut ws = WeightedSet::new(self.centroids.dim())?;
        for (j, c) in self.centroids.iter().enumerate() {
            ws.push(c, self.cluster_weights[j])?;
        }
        Ok(ws)
    }
}

/// Runs entropy-constrained VQ on a (possibly weighted) point source.
pub fn ecvq<S: PointSource + ?Sized>(src: &S, cfg: &EcvqConfig) -> Result<EcvqResult> {
    cfg.validate()?;
    if src.is_empty() {
        return Err(Error::EmptyDataset);
    }
    let n = src.len();
    let dim = src.dim();
    let k0 = cfg.max_k.min(n);
    let mut rng = rng_for(cfg.seed, 0);
    let init = seed_centroids(src, k0, SeedMode::RandomPoints, &mut rng)?;
    let total_w = src.total_weight();

    // Live codebook as (coords, probability) with uniform initial code
    // lengths.
    let mut cents: Vec<f64> = init.as_flat().to_vec();
    let mut probs: Vec<f64> = vec![1.0 / k0 as f64; k0];

    let mut prev_cost = f64::INFINITY;
    let mut iterations = 0usize;
    let mut converged = false;
    let mut assignments = vec![0usize; n];
    let mut last = IterationOut::default();

    while iterations < cfg.max_iters {
        let k = probs.len();
        let lengths: Vec<f64> =
            probs.iter().map(|&p| if p > 0.0 { -p.log2() } else { f64::INFINITY }).collect();

        // Assignment under the Lagrangian cost.
        let mut sums = vec![0.0f64; k * dim];
        let mut weights = vec![0.0f64; k];
        let mut distortion = 0.0;
        let mut rate_w = 0.0; // Σ w_i · len(assigned)
        for (i, slot) in assignments.iter_mut().enumerate().take(n) {
            let x = src.coords(i);
            let mut best = 0usize;
            let mut best_cost = f64::INFINITY;
            let mut best_d2 = 0.0;
            for j in 0..k {
                let d2 = sq_dist(x, &cents[j * dim..(j + 1) * dim]);
                let c = d2 + cfg.lambda * lengths[j];
                if c < best_cost {
                    best_cost = c;
                    best = j;
                    best_d2 = d2;
                }
            }
            let w = src.weight(i);
            *slot = best;
            weights[best] += w;
            distortion += w * best_d2;
            rate_w += w * lengths[best];
            for (s, c) in sums[best * dim..(best + 1) * dim].iter_mut().zip(x) {
                *s += w * c;
            }
        }
        let cost = distortion + cfg.lambda * rate_w;
        iterations += 1;

        // Centroid + probability update, discarding starved codewords.
        let mut new_cents = Vec::with_capacity(k * dim);
        let mut new_probs = Vec::with_capacity(k);
        for j in 0..k {
            if weights[j] > 0.0 {
                for d in 0..dim {
                    new_cents.push(sums[j * dim + d] / weights[j]);
                }
                new_probs.push(weights[j] / total_w);
            }
        }
        last = IterationOut { distortion, rate_w, cost, weights, k };
        let delta = prev_cost - cost;
        prev_cost = cost;
        cents = new_cents;
        probs = new_probs;
        if delta >= 0.0 && delta <= cfg.epsilon {
            converged = true;
            break;
        }
    }

    // Rebuild final stats against the last assignment (weights vector from
    // the last iteration still indexes the pre-discard codebook; surviving
    // entries are those with positive weight, in order).
    let survivors: Vec<usize> = (0..last.k).filter(|&j| last.weights[j] > 0.0).collect();
    let cluster_weights: Vec<f64> = survivors.iter().map(|&j| last.weights[j]).collect();
    let probabilities: Vec<f64> = cluster_weights.iter().map(|w| w / total_w).collect();
    let rate_bits = last.rate_w / total_w;
    let centroids = Centroids::from_flat(dim, cents)?;
    debug_assert_eq!(centroids.k(), cluster_weights.len());
    Ok(EcvqResult {
        centroids,
        cluster_weights,
        probabilities,
        distortion: last.distortion,
        rate_bits,
        cost: last.cost,
        iterations,
        converged,
    })
}

#[derive(Default)]
struct IterationOut {
    distortion: f64,
    rate_w: f64,
    cost: f64,
    weights: Vec<f64>,
    k: usize,
}

/// Runs ECVQ on one partition instead of fixed-k k-means: small partitions
/// are represented with fewer centroids (starved codewords are discarded),
/// large ones with up to `max_k`, and the merge step consumes the weighted
/// codebook exactly like a fixed-k partial output.
pub fn partial_ecvq(chunk: &Dataset, cfg: &EcvqConfig) -> Result<PartialOutput> {
    if chunk.is_empty() {
        return Err(Error::EmptyDataset);
    }
    let started = Instant::now();
    let res = ecvq(chunk, cfg)?;
    Ok(PartialOutput {
        centroids: res.to_weighted_set()?,
        points: chunk.len(),
        best_mse: res.distortion / chunk.len() as f64,
        restarts: Vec::new(),
        total_iterations: res.iterations,
        elapsed: started.elapsed(),
        best_trajectory: Vec::new(),
    })
}

/// Partial/merge with the ECVQ partial step: the cell is sliced as
/// [`pmkm_core::partial_merge`] slices it, every non-empty chunk is
/// quantized under `ecvq_cfg` with the chunk's own [`chunk_seed`], and the
/// adaptive-size codebooks are merged with the ordinary weighted merge
/// k-means from `cfg.kmeans`.
pub fn partial_merge_ecvq(
    ds: &Dataset,
    cfg: &PartialMergeConfig,
    ecvq_cfg: &EcvqConfig,
) -> Result<PartialMergeResult> {
    cfg.validate()?;
    let started = Instant::now();
    let parts = slice(ds, cfg.partitions, cfg.slicing, cfg.kmeans.seed)?;
    let partial_started = Instant::now();
    let mut sets: Vec<WeightedSet> = Vec::with_capacity(parts.len());
    let mut chunks = Vec::with_capacity(parts.len());
    for (i, chunk) in parts.iter().enumerate().filter(|(_, c)| !c.is_empty()) {
        let o =
            partial_ecvq(chunk, &EcvqConfig { seed: chunk_seed(ecvq_cfg.seed, i), ..*ecvq_cfg })?;
        chunks.push(ChunkStats {
            chunk: i,
            points: o.points,
            best_mse: o.best_mse,
            total_iterations: o.total_iterations,
            elapsed: o.elapsed,
        });
        sets.push(o.centroids);
    }
    let partial_elapsed = partial_started.elapsed();
    Ok(PartialMergeResult {
        merge: merge_collective(&sets, &cfg.kmeans, cfg.merge_restarts)?,
        chunks,
        partitions: cfg.partitions,
        partial_elapsed,
        total_elapsed: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_per: usize, centers: &[f64]) -> Dataset {
        let mut ds = Dataset::new(1).unwrap();
        for &c in centers {
            for i in 0..n_per {
                ds.push(&[c + (i % 5) as f64 * 0.01]).unwrap();
            }
        }
        ds
    }

    #[test]
    fn lambda_zero_behaves_like_kmeans() {
        let ds = blobs(20, &[0.0, 100.0]);
        let cfg = EcvqConfig { max_k: 2, lambda: 0.0, seed: 3, ..EcvqConfig::default() };
        let res = ecvq(&ds, &cfg).unwrap();
        assert_eq!(res.final_k(), 2);
        let mut xs: Vec<f64> = res.centroids.iter().map(|c| c[0]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(xs[0] < 1.0 && xs[1] > 99.0);
        assert!(res.converged);
    }

    #[test]
    fn large_lambda_starves_clusters() {
        // Strong rate penalty collapses a 2-blob set into fewer codewords
        // than max_k = 8.
        let ds = blobs(25, &[0.0, 10.0]);
        let cfg = EcvqConfig { max_k: 8, lambda: 1000.0, seed: 1, ..EcvqConfig::default() };
        let res = ecvq(&ds, &cfg).unwrap();
        assert!(res.final_k() < 8, "no starvation at final_k = {}", res.final_k());
        assert!(res.final_k() >= 1);
    }

    #[test]
    fn rate_and_probabilities_are_consistent() {
        let ds = blobs(30, &[0.0, 50.0, 100.0]);
        let cfg = EcvqConfig { max_k: 3, lambda: 0.1, seed: 5, ..EcvqConfig::default() };
        let res = ecvq(&ds, &cfg).unwrap();
        let psum: f64 = res.probabilities.iter().sum();
        assert!((psum - 1.0).abs() < 1e-12);
        // Unlucky seeding may starve one codeword (ECVQ never re-seeds), so
        // 2 or 3 survivors are both legitimate; the rate must match the
        // entropy of the surviving assignment distribution either way.
        assert!(res.final_k() >= 2 && res.final_k() <= 3);
        let entropy: f64 = res.probabilities.iter().map(|&p| -p * p.log2()).sum();
        assert!((res.rate_bits - entropy).abs() < 1e-9, "rate = {}", res.rate_bits);
        let wsum: f64 = res.cluster_weights.iter().sum();
        assert_eq!(wsum, 90.0);
    }

    #[test]
    fn cost_decomposition_holds() {
        let ds = blobs(20, &[0.0, 10.0]);
        let cfg = EcvqConfig { max_k: 4, lambda: 2.0, seed: 7, ..EcvqConfig::default() };
        let res = ecvq(&ds, &cfg).unwrap();
        let total_w = 40.0;
        assert!((res.cost - (res.distortion + cfg.lambda * res.rate_bits * total_w)).abs() < 1e-9);
    }

    #[test]
    fn to_weighted_set_round_trips_weights() {
        let ds = blobs(15, &[0.0, 5.0]);
        let cfg = EcvqConfig { max_k: 2, lambda: 0.01, seed: 2, ..EcvqConfig::default() };
        let res = ecvq(&ds, &cfg).unwrap();
        let ws = res.to_weighted_set().unwrap();
        assert_eq!(ws.len(), res.final_k());
        assert_eq!(ws.total_weight(), 30.0);
    }

    #[test]
    fn errors_on_bad_config_and_input() {
        let ds = blobs(5, &[0.0]);
        assert!(ecvq(&ds, &EcvqConfig { max_k: 0, ..EcvqConfig::default() }).is_err());
        assert!(ecvq(&ds, &EcvqConfig { lambda: -1.0, ..EcvqConfig::default() }).is_err());
        let empty = Dataset::new(1).unwrap();
        assert_eq!(ecvq(&empty, &EcvqConfig::default()), Err(Error::EmptyDataset));
    }

    #[test]
    fn max_k_clamped_to_point_count() {
        let ds = blobs(2, &[0.0]); // 2 points
        let cfg = EcvqConfig { max_k: 40, lambda: 0.0, ..EcvqConfig::default() };
        let res = ecvq(&ds, &cfg).unwrap();
        assert!(res.final_k() <= 2);
    }
}
