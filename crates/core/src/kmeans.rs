//! Best-of-R k-means: the paper's outer loop around Lloyd.
//!
//! "To improve the quality k-means can be run several times with different
//! sets of initial seeds, and the representation producing the smallest mean
//! square error is chosen" (§3.2). The paper uses `R = 10` everywhere.

use crate::config::{KMeansConfig, SeedMode};
use crate::dataset::PointSource;
use crate::error::Result;
use crate::lloyd::{lloyd_observed, LloydRun};
use crate::seeding::{rng_for, seed_centroids};
use pmkm_obs::Recorder;
use serde::Serialize;
use std::time::{Duration, Instant};

/// Per-restart summary kept for telemetry and the experiment harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RestartStats {
    /// Restart index (`0..R`).
    pub restart: usize,
    /// Final MSE of this restart.
    pub mse: f64,
    /// Lloyd iterations used.
    pub iterations: usize,
    /// Whether the MSE delta criterion was met before the iteration cap.
    pub converged: bool,
}

/// Outcome of a best-of-R k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansOutcome {
    /// The minimum-MSE run.
    pub best: LloydRun,
    /// Which restart produced `best`.
    pub best_restart: usize,
    /// Stats for every restart, in restart order.
    pub restarts: Vec<RestartStats>,
    /// Wall time across all restarts.
    pub elapsed: Duration,
}

impl KMeansOutcome {
    /// Total Lloyd iterations across all restarts (`R·I` in the paper's
    /// complexity analysis).
    pub fn total_iterations(&self) -> usize {
        self.restarts.iter().map(|r| r.iterations).sum()
    }
}

/// Runs `cfg.restarts` independent Lloyd runs and keeps the minimum-MSE one.
///
/// # Examples
/// ```
/// use pmkm_core::{kmeans, Dataset, KMeansConfig};
/// let cell = Dataset::from_rows(&[[0.0], [0.1], [9.0], [9.1]])?;
/// let out = kmeans(&cell, &KMeansConfig::paper(2, 42))?;
/// assert_eq!(out.best.centroids.k(), 2);
/// assert!(out.best.mse < 0.01);
/// # Ok::<(), pmkm_core::Error>(())
/// ```
///
/// Restart `r` derives its RNG stream from `(cfg.seed, r)`, so outcomes are
/// reproducible and independent of evaluation order. With
/// [`SeedMode::HeaviestPoints`] the seeding is deterministic, so only the
/// first restart uses it; later restarts fall back to random points (this is
/// what makes `merge_restarts > 1` meaningful).
pub fn kmeans<S: PointSource + ?Sized>(src: &S, cfg: &KMeansConfig) -> Result<KMeansOutcome> {
    kmeans_observed(src, cfg, None)
}

/// [`kmeans`] with observability hooks: when `rec` is `Some`, seeding is
/// timed as a phase, the recorder's `kmeans_restarts_total` counter goes up
/// by the restart count, and each restart's [`lloyd_observed`] run books
/// its own phases, counters and `lloyd.kernel` event.
pub fn kmeans_observed<S: PointSource + ?Sized>(
    src: &S,
    cfg: &KMeansConfig,
    rec: Option<&Recorder>,
) -> Result<KMeansOutcome> {
    cfg.validate()?;
    let started = Instant::now();
    let mut best: Option<(usize, LloydRun)> = None;
    let mut restarts = Vec::with_capacity(cfg.restarts);
    for r in 0..cfg.restarts {
        let mode = match (cfg.seed_mode, r) {
            (SeedMode::HeaviestPoints, 0) => SeedMode::HeaviestPoints,
            (SeedMode::HeaviestPoints, _) => SeedMode::RandomPoints,
            (mode, _) => mode,
        };
        let mut rng = rng_for(cfg.seed, r as u64);
        let init = {
            let _phase = rec.and_then(|r| r.phase("seed"));
            seed_centroids(src, cfg.k, mode, &mut rng)?
        };
        let run = lloyd_observed(src, &init, &cfg.lloyd, rec)?;
        restarts.push(RestartStats {
            restart: r,
            mse: run.mse,
            iterations: run.iterations,
            converged: run.converged,
        });
        if best.as_ref().is_none_or(|(_, b)| run.mse < b.mse) {
            best = Some((r, run));
        }
    }
    if let Some(rec) = rec {
        rec.registry().counter("kmeans_restarts_total").add(cfg.restarts as u64);
    }
    let (best_restart, best) = best.expect("restarts >= 1 is validated");
    Ok(KMeansOutcome { best, best_restart, restarts, elapsed: started.elapsed() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, WeightedSet};

    fn blobs() -> Dataset {
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..30 {
            let o = (i % 6) as f64 * 0.05;
            ds.push(&[o, o]).unwrap();
            ds.push(&[10.0 + o, 10.0 + o]).unwrap();
            ds.push(&[-10.0 - o, 10.0 - o]).unwrap();
        }
        ds
    }

    #[test]
    fn picks_minimum_mse_restart() {
        let ds = blobs();
        let cfg = KMeansConfig { restarts: 8, ..KMeansConfig::paper(3, 123) };
        let out = kmeans(&ds, &cfg).unwrap();
        assert_eq!(out.restarts.len(), 8);
        let min = out.restarts.iter().map(|r| r.mse).fold(f64::INFINITY, f64::min);
        assert_eq!(out.best.mse, min);
        assert_eq!(out.restarts[out.best_restart].mse, min);
    }

    #[test]
    fn is_deterministic_for_fixed_seed() {
        let ds = blobs();
        let cfg = KMeansConfig::paper(3, 77);
        let a = kmeans(&ds, &cfg).unwrap();
        let b = kmeans(&ds, &cfg).unwrap();
        assert_eq!(a.best.centroids, b.best.centroids);
        assert_eq!(a.best_restart, b.best_restart);
        assert_eq!(a.restarts, b.restarts);
    }

    #[test]
    fn different_seeds_explore_different_inits() {
        let ds = blobs();
        let a = kmeans(&ds, &KMeansConfig { restarts: 1, ..KMeansConfig::paper(3, 1) }).unwrap();
        let b = kmeans(&ds, &KMeansConfig { restarts: 1, ..KMeansConfig::paper(3, 2) }).unwrap();
        // Same data, same k: both converge to a solution; the *trajectories*
        // (iteration counts or centroid order) almost surely differ.
        let differs =
            a.best.centroids != b.best.centroids || a.best.iterations != b.best.iterations;
        assert!(differs);
    }

    #[test]
    fn more_restarts_never_worse() {
        let ds = blobs();
        let base = KMeansConfig::paper(3, 555);
        let one = kmeans(&ds, &KMeansConfig { restarts: 1, ..base }).unwrap();
        let ten = kmeans(&ds, &KMeansConfig { restarts: 10, ..base }).unwrap();
        assert!(ten.best.mse <= one.best.mse + 1e-15);
    }

    #[test]
    fn heaviest_seed_mode_first_restart_is_deterministic() {
        let mut ws = WeightedSet::new(1).unwrap();
        for (x, w) in [(0.0, 10.0), (1.0, 1.0), (10.0, 9.0), (11.0, 1.0)] {
            ws.push(&[x], w).unwrap();
        }
        let cfg = KMeansConfig {
            k: 2,
            restarts: 1,
            seed_mode: SeedMode::HeaviestPoints,
            ..KMeansConfig::paper(2, 0)
        };
        let out = kmeans(&ws, &cfg).unwrap();
        // Seeds were 0.0 (w=10) and 10.0 (w=9); weighted means of the two
        // natural groups are (0·10+1·1)/11 and (10·9+11·1)/10.
        let c: Vec<f64> = out.best.centroids.as_flat().to_vec();
        let mut c_sorted = c.clone();
        c_sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((c_sorted[0] - 1.0 / 11.0).abs() < 1e-12);
        assert!((c_sorted[1] - 101.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn total_iterations_sums_restarts() {
        let ds = blobs();
        let out = kmeans(&ds, &KMeansConfig::paper(3, 9)).unwrap();
        let sum: usize = out.restarts.iter().map(|r| r.iterations).sum();
        assert_eq!(out.total_iterations(), sum);
        assert!(sum >= out.restarts.len()); // every restart iterates at least once
    }

    #[test]
    fn rejects_invalid_config() {
        let ds = blobs();
        let mut cfg = KMeansConfig::paper(3, 0);
        cfg.restarts = 0;
        assert!(kmeans(&ds, &cfg).is_err());
    }
}
