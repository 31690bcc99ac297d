//! The three classical k-means parallelization strategies of Figure 2.
//!
//! * **Method A** — one grid cell per processor,
//! * **Method B** — one restart (`R_i`) per processor for a single cell,
//! * **Method C** — distributed k-means: the points of one cell are
//!   partitioned across slaves; each iteration every slave assigns its
//!   points against the broadcast centroids, sends partial sums to the
//!   master, and receives the recomputed means back (message-passing
//!   overhead counted explicitly).
//!
//! All three produce results identical to their serial counterparts for the
//! same seeds (parallelism changes wall-clock, never output), which the
//! tests assert.

use pmkm_core::config::SeedMode;
use pmkm_core::error::{Error, Result};
use pmkm_core::lloyd::lloyd;
use pmkm_core::seeding::{rng_for, seed_centroids};
use pmkm_core::{kmeans, Centroids, Dataset, KMeansConfig, KMeansOutcome, LloydRun, PointSource};
use std::time::{Duration, Instant};

/// Calls `f(0), …, f(items − 1)` on up to `workers` scoped threads, one
/// contiguous slab of indices each, and returns the results in index order
/// — so the output never depends on the thread count.
fn fan_out<R: Send>(items: usize, workers: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let slab = items.div_ceil(workers.max(1)).max(1);
    let f = &f;
    std::thread::scope(|s| {
        let slabs: Vec<_> = (0..items)
            .step_by(slab)
            .map(|lo| s.spawn(move || (lo..items.min(lo + slab)).map(f).collect::<Vec<R>>()))
            .collect();
        slabs.into_iter().flat_map(|h| h.join().expect("fan_out worker panicked")).collect()
    })
}

/// Method A result: one serial k-means per cell, cells fanned out.
#[derive(Debug, Clone)]
pub struct MethodAResult {
    /// Per-cell best-of-R outcomes, in input order.
    pub cells: Vec<KMeansOutcome>,
    /// Wall time of the whole fan-out.
    pub elapsed: Duration,
}

/// Method A: "assign the clustering of one grid cell each to a processor".
/// Cell `i` uses seed stream `(cfg.seed, i)`.
pub fn method_a(cells: &[Dataset], cfg: &KMeansConfig, workers: usize) -> Result<MethodAResult> {
    cfg.validate()?;
    let started = Instant::now();
    let outcomes = fan_out(cells.len(), workers, |i| {
        let cell_cfg =
            KMeansConfig { seed: pmkm_core::seeding::derive_seed(cfg.seed, i as u64), ..*cfg };
        kmeans(&cells[i], &cell_cfg)
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;
    Ok(MethodAResult { cells: outcomes, elapsed: started.elapsed() })
}

/// Method B result: restarts of one cell fanned out.
#[derive(Debug, Clone)]
pub struct MethodBResult {
    /// The minimum-MSE run across all restarts.
    pub best: LloydRun,
    /// Which restart won.
    pub best_restart: usize,
    /// MSE per restart, in restart order.
    pub restart_mses: Vec<f64>,
    /// Wall time.
    pub elapsed: Duration,
}

/// Method B: "assign each run `R_i` of k-means on one grid cell using one
/// set of initial, randomly chosen k seeds to a processor". Restart seeds
/// match [`pmkm_core::kmeans::kmeans`], so the result equals the serial best-of-R.
pub fn method_b(cell: &Dataset, cfg: &KMeansConfig, workers: usize) -> Result<MethodBResult> {
    cfg.validate()?;
    let started = Instant::now();
    let runs = fan_out(cfg.restarts, workers, |r| {
        let mut rng = rng_for(cfg.seed, r as u64);
        let init = seed_centroids(cell, cfg.k, cfg.seed_mode, &mut rng)?;
        lloyd(cell, &init, &cfg.lloyd)
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;
    let restart_mses: Vec<f64> = runs.iter().map(|r| r.mse).collect();
    // First minimum wins, matching the serial "better = strictly smaller"
    // selection rule.
    let mut best_restart = 0;
    for (i, m) in restart_mses.iter().enumerate() {
        if *m < restart_mses[best_restart] {
            best_restart = i;
        }
    }
    let best = runs
        .into_iter()
        .nth(best_restart)
        .ok_or(Error::InvalidConfig("restarts must be at least 1".into()))?;
    Ok(MethodBResult { best, best_restart, restart_mses, elapsed: started.elapsed() })
}

/// Method C result: distributed Lloyd with explicit message accounting.
#[derive(Debug, Clone)]
pub struct MethodCResult {
    /// Final centroids (bit-identical to a serial Lloyd from the same init).
    pub centroids: Centroids,
    /// Final MSE.
    pub mse: f64,
    /// Iterations to converge (same count as the serial Lloyd).
    pub iterations: usize,
    /// Whether the MSE delta criterion was met.
    pub converged: bool,
    /// Messages passed between master and slaves (the overhead the paper
    /// says Method C "introduces"): per assignment round, one centroid
    /// broadcast to each slave plus one partial-statistics reply per slave.
    pub messages: usize,
    /// Total floats shipped in those messages.
    pub floats_shipped: usize,
    /// Wall time.
    pub elapsed: Duration,
}

/// Accumulated round statistics: (sums, weights, sse, donors).
type RoundStats = (Vec<f64>, Vec<f64>, f64, Vec<(f64, usize, Vec<f64>)>);

/// Per-slave statistics for one assignment round.
struct SlaveReply {
    sums: Vec<f64>,
    weights: Vec<f64>,
    sse: f64,
    /// Up to k donor candidates for empty-cluster repair:
    /// (d², global point index, coordinates), farthest first.
    donors: Vec<(f64, usize, Vec<f64>)>,
}

/// Method C: distributed k-means over `slaves` point partitions.
///
/// Every assignment round:
/// 1. the master broadcasts the current `k × dim` centroid table to each
///    slave (`slaves` messages),
/// 2. each slave assigns its points and replies with per-cluster weighted
///    sums, weights, its partial SSE and its top-k empty-cluster donor
///    candidates (`slaves` messages),
/// 3. the master reduces the replies into new means — re-seeding empty
///    clusters from the globally farthest points, exactly like
///    [`pmkm_core::lloyd::lloyd`] — and checks convergence on the global MSE
///    delta.
///
/// The arithmetic replicates the serial Lloyd step for step, so for the
/// same initial seeds Method C converges to the same centroids in the same
/// number of iterations; only the message overhead differs.
pub fn method_c(cell: &Dataset, cfg: &KMeansConfig, slaves: usize) -> Result<MethodCResult> {
    cfg.validate()?;
    if cell.is_empty() {
        return Err(Error::EmptyDataset);
    }
    if cfg.k > cell.len() {
        return Err(Error::KExceedsPoints { k: cfg.k, points: cell.len() });
    }
    let started = Instant::now();
    let slaves = slaves.max(1);
    let dim = cell.dim();
    let k = cfg.k;
    let n = cell.len();
    // Static point partitioning (paper: "divide the grid cell into disjunct
    // subsets ... assigned to different slaves"). Round-robin deal: original
    // point `j` lands in partition `j % slaves` at position `j / slaves`.
    let parts = cell.split_round_robin(slaves)?;

    let mut rng = rng_for(cfg.seed, 0);
    let mut centroids = seed_centroids(cell, k, SeedMode::RandomPoints, &mut rng)?;

    let mut messages = 0usize;
    let mut floats_shipped = 0usize;
    let mut iterations = 0usize;
    let mut converged = false;

    // One assignment round: broadcast + parallel slave work + reduce.
    let round = |centroids: &Centroids, messages: &mut usize, floats: &mut usize| -> RoundStats {
        *messages += slaves; // broadcast
        *floats += slaves * k * dim;
        let replies =
            fan_out(parts.len(), slaves, |p| slave_assign(&parts[p], centroids, p, slaves, k));
        *messages += slaves; // replies
        for r in &replies {
            *floats += r.sums.len() + r.weights.len() + 1 + r.donors.len() * (dim + 2);
        }
        let mut sums = vec![0.0; k * dim];
        let mut weights = vec![0.0; k];
        let mut sse = 0.0;
        let mut donors: Vec<(f64, usize, Vec<f64>)> = Vec::new();
        for r in replies {
            for (s, v) in sums.iter_mut().zip(&r.sums) {
                *s += v;
            }
            for (w, v) in weights.iter_mut().zip(&r.weights) {
                *w += v;
            }
            sse += r.sse;
            donors.extend(r.donors);
        }
        // Same donor order as the core implementation: d² descending,
        // original point index ascending among ties.
        donors.sort_by(|a, b| {
            b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
        });
        (sums, weights, sse, donors)
    };

    // MSE(0) from the initial seeds, then iterate recompute → assign.
    let (mut sums, mut weights, sse0, mut donors) =
        round(&centroids, &mut messages, &mut floats_shipped);
    let mut prev_mse = sse0 / n as f64;
    let mut final_mse = prev_mse;

    while iterations < cfg.lloyd.max_iters {
        // Master recomputes means; empty clusters jump to farthest points.
        let mut flat = centroids.as_flat().to_vec();
        let mut donor_iter = donors.iter();
        for j in 0..k {
            if weights[j] > 0.0 {
                for d in 0..dim {
                    flat[j * dim + d] = sums[j * dim + d] / weights[j];
                }
            } else if let Some((_, _, coords)) = donor_iter.next() {
                flat[j * dim..(j + 1) * dim].copy_from_slice(coords);
            }
        }
        centroids = Centroids::from_flat(dim, flat)?;

        let (s, w, sse, d) = round(&centroids, &mut messages, &mut floats_shipped);
        sums = s;
        weights = w;
        donors = d;
        let mse = sse / n as f64;
        iterations += 1;
        let delta = prev_mse - mse;
        final_mse = mse;
        prev_mse = mse;
        if delta >= 0.0 && delta <= cfg.lloyd.epsilon {
            converged = true;
            break;
        }
    }

    Ok(MethodCResult {
        centroids,
        mse: final_mse,
        iterations,
        converged,
        messages,
        floats_shipped,
        elapsed: started.elapsed(),
    })
}

fn slave_assign(
    part: &Dataset,
    centroids: &Centroids,
    part_idx: usize,
    slaves: usize,
    k: usize,
) -> SlaveReply {
    let dim = centroids.dim();
    let kc = centroids.k();
    let mut sums = vec![0.0; kc * dim];
    let mut weights = vec![0.0; kc];
    let mut sse = 0.0;
    // (d², global index, coords) for every local point; truncated to the
    // top k below.
    let mut donors: Vec<(f64, usize, Vec<f64>)> = Vec::with_capacity(part.len());
    for (pos, p) in part.iter().enumerate() {
        let (j, d2) = pmkm_core::point::nearest_centroid(p, centroids.as_flat(), dim);
        for (s, c) in sums[j * dim..(j + 1) * dim].iter_mut().zip(p) {
            *s += c;
        }
        weights[j] += 1.0;
        sse += d2;
        donors.push((d2, pos * slaves + part_idx, p.to_vec()));
    }
    donors.sort_by(|a, b| {
        b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
    });
    donors.truncate(k);
    SlaveReply { sums, weights, sse, donors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_cell(seed: u64, n: usize) -> Dataset {
        use rand::Rng;
        let mut rng = rng_for(seed, 0);
        let mut ds = Dataset::new(2).unwrap();
        for _ in 0..n {
            let b = if rng.gen_bool(0.5) { 0.0 } else { 30.0 };
            ds.push(&[b + rng.gen_range(-1.0..1.0), b + rng.gen_range(-1.0..1.0)]).unwrap();
        }
        ds
    }

    #[test]
    fn method_a_matches_per_cell_serial() {
        let cells = vec![blob_cell(1, 80), blob_cell(2, 60)];
        let cfg = KMeansConfig { restarts: 3, ..KMeansConfig::paper(2, 9) };
        let out = method_a(&cells, &cfg, 2).unwrap();
        assert_eq!(out.cells.len(), 2);
        for (i, cell) in cells.iter().enumerate() {
            let cell_cfg =
                KMeansConfig { seed: pmkm_core::seeding::derive_seed(9, i as u64), ..cfg };
            let serial = kmeans(cell, &cell_cfg).unwrap();
            assert_eq!(out.cells[i].best.centroids, serial.best.centroids);
        }
    }

    #[test]
    fn method_a_worker_count_is_irrelevant_to_results() {
        let cells = vec![blob_cell(3, 50), blob_cell(4, 50), blob_cell(5, 50)];
        let cfg = KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 0) };
        let w1 = method_a(&cells, &cfg, 1).unwrap();
        let w4 = method_a(&cells, &cfg, 4).unwrap();
        for (a, b) in w1.cells.iter().zip(&w4.cells) {
            assert_eq!(a.best.centroids, b.best.centroids);
        }
    }

    #[test]
    fn method_b_equals_serial_best_of_r() {
        let cell = blob_cell(6, 100);
        let cfg = KMeansConfig { restarts: 5, ..KMeansConfig::paper(2, 77) };
        let serial = kmeans(&cell, &cfg).unwrap();
        let parallel = method_b(&cell, &cfg, 4).unwrap();
        assert_eq!(parallel.best.centroids, serial.best.centroids);
        assert_eq!(parallel.best_restart, serial.best_restart);
        assert_eq!(parallel.restart_mses.len(), 5);
        for (m, r) in parallel.restart_mses.iter().zip(&serial.restarts) {
            assert_eq!(*m, r.mse);
        }
    }

    #[test]
    fn method_c_matches_serial_lloyd_exactly() {
        let cell = blob_cell(7, 120);
        let cfg = KMeansConfig { restarts: 1, ..KMeansConfig::paper(3, 13) };
        // Serial reference from the same deterministic seeding.
        let mut rng = rng_for(13, 0);
        let init = seed_centroids(&cell, 3, SeedMode::RandomPoints, &mut rng).unwrap();
        let serial = lloyd(&cell, &init, &cfg.lloyd).unwrap();
        // One slave reproduces the serial summation order bit for bit.
        let one = method_c(&cell, &cfg, 1).unwrap();
        assert_eq!(one.centroids, serial.centroids);
        assert_eq!(one.iterations, serial.iterations);
        // Multiple slaves reorder float additions; results agree to within
        // accumulated rounding (the algorithm is otherwise identical).
        for slaves in [2, 4] {
            let dist = method_c(&cell, &cfg, slaves).unwrap();
            assert_eq!(dist.iterations, serial.iterations, "slaves={slaves}");
            for (a, b) in dist.centroids.as_flat().iter().zip(serial.centroids.as_flat()) {
                assert!((a - b).abs() < 1e-9, "slaves={slaves}: {a} vs {b}");
            }
            assert!((dist.mse - serial.mse).abs() < 1e-9 * serial.mse.max(1.0));
            assert!(dist.converged);
        }
    }

    #[test]
    fn method_c_with_forced_empty_cluster_still_matches() {
        // A cell with a big duplicate mass makes random seeds likely to
        // collide, exercising the empty-cluster repair path.
        let mut cell = Dataset::new(1).unwrap();
        for _ in 0..40 {
            cell.push(&[0.0]).unwrap();
        }
        for i in 0..10 {
            cell.push(&[100.0 + i as f64]).unwrap();
        }
        for seed in 0..20u64 {
            let cfg = KMeansConfig { restarts: 1, ..KMeansConfig::paper(4, seed) };
            let mut rng = rng_for(seed, 0);
            let init = seed_centroids(&cell, 4, SeedMode::RandomPoints, &mut rng).unwrap();
            let serial = lloyd(&cell, &init, &cfg.lloyd).unwrap();
            let dist = method_c(&cell, &cfg, 3).unwrap();
            assert_eq!(dist.iterations, serial.iterations, "seed={seed}");
            for (a, b) in dist.centroids.as_flat().iter().zip(serial.centroids.as_flat()) {
                assert!((a - b).abs() < 1e-9, "seed={seed}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn method_c_counts_messages_per_round() {
        let cell = blob_cell(8, 90);
        let cfg = KMeansConfig { restarts: 1, ..KMeansConfig::paper(2, 3) };
        let out = method_c(&cell, &cfg, 3).unwrap();
        // One initial round plus one per iteration; 2 messages per slave
        // per round.
        assert_eq!(out.messages, 2 * 3 * (out.iterations + 1));
        assert!(out.floats_shipped > 0);
        let out6 = method_c(&cell, &cfg, 6).unwrap();
        assert_eq!(out6.iterations, out.iterations);
        assert!(out6.messages > out.messages);
    }

    #[test]
    fn method_c_input_validation() {
        let empty = Dataset::new(2).unwrap();
        let cfg = KMeansConfig::paper(2, 0);
        assert!(matches!(method_c(&empty, &cfg, 2), Err(Error::EmptyDataset)));
        let tiny = Dataset::from_rows(&[[0.0, 0.0]]).unwrap();
        assert!(matches!(
            method_c(&tiny, &KMeansConfig::paper(2, 0), 2),
            Err(Error::KExceedsPoints { .. })
        ));
    }
}
