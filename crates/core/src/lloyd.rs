//! The Lloyd iteration shared by every k-means variant in this crate.
//!
//! One generic implementation over [`PointSource`] covers both of the
//! paper's algorithms:
//!
//! * **unweighted k-means** (§2: serial k-means, and the partial step run on
//!   each chunk) — sources report weight 1.0 per point,
//! * **weighted merge k-means** (§3.3) — sources are weighted centroid sets
//!   and the centroid recalculation computes the *weighted* mean
//!   `µ_j = (Σ w_i c_i) / (Σ w_i)`.
//!
//! Convergence follows the paper exactly: iterate until
//! `MSE(n−1) − MSE(n) ≤ ε` with `ε = 1e-9`, where MSE is the weighted mean
//! of squared point-to-assigned-centroid distances. A hard iteration cap
//! protects against pathological inputs; hitting it is reported via
//! [`LloydRun::converged`].
//!
//! ## Bounds: skipping the screen where the answer cannot change
//!
//! After the first few iterations most points keep their centroid. A run on
//! the fused kernel with at least [`BOUND_GATE`] points per centroid keeps,
//! per point, a lower bound `l` on its distance to every centroid but its
//! own (Hamerly, "Making k-means even faster", SDM 2010). The kernel hands
//! back the first `l` with each screened point
//! ([`FusedLayout::nearest_block_floored`]); after each centroid update `l`
//! shrinks by the farthest any *other* centroid moved, and a point whose
//! exact `d² = sq_dist(x, c_a)` to its own centroid satisfies
//! `d²·(1 + η) < l²` keeps it without entering the screen. The upper
//! bound of Hamerly's scheme is that exact distance: the SSE needs every
//! point's `d²` anyway, so it costs nothing to keep tight.
//!
//! The test only ever keeps a point the scalar scan would keep: `η` (the
//! kernel's own [`screen_slack`]) exceeds the error of every `sq_dist`,
//! every drift is inflated by `1 + η` and rounded up, and `l` is rounded
//! down at each update, so `l` stays at or below the true distance and
//! `d²` stays strictly below the scalar distance to every other centroid.
//! Below `l = 1e-150` squares may underflow and relative bounds do not
//! hold, so such a point is screened. Any NaN or `inf` fails the test.
//! Assignments, distances, sums and SSE are therefore bit-identical to
//! [`KernelKind::Scalar`]: the assignment is decided first for every point,
//! and the accumulation then runs in point order, as without bounds.
//!
//! ## Decided points: a branch-free gather and fixed-width rows
//!
//! On a bounded run most points are decided by their bound, so what a
//! decided point costs is most of the step. The decide pass writes every
//! point's index to the undecided list and advances the list's length by
//! the bound test's result, so no branch depends on the outcome. At the
//! paper's six dimensions the whole step, the decide pass's `sq_dist` and
//! the per-cluster row add included, runs with the row width fixed at
//! compile time; any other width runs the same body with the width read
//! at run time. Either way every `sq_dist` sums its coordinates in order
//! and every cluster sum adds its points in order.

use crate::config::{KernelKind, LloydConfig};
use crate::dataset::{Centroids, PointSource};
use crate::error::{Error, Result};
use crate::kernel::{screen_slack, FusedLayout, KernelStats};
use crate::point::{nearest_centroid, sq_dist, width, PAPER_DIM, RUN_TIME};
use pmkm_obs::Recorder;

/// Fewest points per centroid (`n ≥ BOUND_GATE · k`) at which a fused run
/// keeps per-point bounds. The bounds break even near 3 points per
/// centroid and win from 4 on (DESIGN.md §9 has the crossover table).
/// Smaller runs, among them the small-cell chunks of 125 points at
/// k = 40, take the plain path.
pub const BOUND_GATE: usize = 4;

/// Smallest lower bound the bound test trusts. Its square, `1e-300`, is far
/// above the absolute error that underflow can put into a squared distance
/// (a few `1e-324` per coordinate), so relative error bounds hold above it.
/// Every drift is also padded by it, which covers a drift whose square
/// underflowed.
const BOUND_FLOOR: f64 = 1e-150;

/// Outcome of one converged (or capped) Lloyd run.
#[derive(Debug, Clone, PartialEq)]
pub struct LloydRun {
    /// Final centroid table (`k × dim`).
    pub centroids: Centroids,
    /// Cluster index of every input point, consistent with `centroids`.
    pub assignments: Vec<u32>,
    /// Total input weight assigned to each cluster. For unweighted sources
    /// these are the cluster point-counts — exactly the weights the partial
    /// operator attaches to its emitted centroids.
    pub cluster_weights: Vec<f64>,
    /// The paper's error function: weighted sum of squared distances
    /// (`E` for unweighted sources, `E_pm` for weighted ones).
    pub sse: f64,
    /// `sse / total_weight` — the quantity whose per-iteration decrease
    /// drives convergence and that the paper reports as "MSE".
    pub mse: f64,
    /// Number of centroid-recalculation iterations performed (`I`).
    pub iterations: usize,
    /// False only if the iteration cap was hit before the MSE settled.
    pub converged: bool,
    /// MSE after each distance calculation, starting with `MSE(0)` against
    /// the seeds — `mse_trajectory.len() == iterations + 1`. Monotonically
    /// non-increasing for plain Lloyd steps (empty-cluster re-seeds are the
    /// only way a value can tick up).
    pub mse_trajectory: Vec<f64>,
    /// Empty clusters re-seeded across the whole run. `0` certifies that
    /// `mse_trajectory` is monotone non-increasing (up to FP round-off) —
    /// the property tests lean on this.
    pub reseeds: usize,
}

/// Assignment-phase scratch, reused across iterations to avoid
/// per-iteration allocation. `bounds` is `Some` only on runs at or above
/// [`BOUND_GATE`]; the others allocate nothing for it.
struct Scratch {
    assignments: Vec<u32>,
    /// Squared distance of each point to its assigned centroid.
    d2: Vec<f64>,
    /// Per-cluster weighted coordinate sums (`k × dim`).
    sums: Vec<f64>,
    /// Per-cluster total weight.
    weights: Vec<f64>,
    /// Screened-distance buffer for the fused kernel (one padded row per
    /// point of a block), unused by the scalar paths.
    screen: Vec<f64>,
    /// Per-point bounds of a bounded run.
    bounds: Option<Bounds>,
}

impl Scratch {
    fn new(n: usize, k: usize, dim: usize, bounded: bool) -> Self {
        Self {
            assignments: vec![0; n],
            d2: vec![0.0; n],
            sums: vec![0.0; k * dim],
            weights: vec![0.0; k],
            screen: Vec::new(),
            bounds: bounded.then(|| Bounds::new(n, k, dim)),
        }
    }
}

/// The bounds of one run (see the module docs).
struct Bounds {
    /// Per point: a lower bound on its true distance to every centroid
    /// other than its own. Empty until the first assignment fills it.
    lower: Vec<f64>,
    /// The centroid table before the latest update.
    prev: Vec<f64>,
    /// Per cluster `j`: an upper bound on how far any centroid other than
    /// `j` moved in the latest update.
    far: Vec<f64>,
    /// Points the bounds left undecided, in ascending order, in the first
    /// slots; the rest of its `n` slots are stale. `u32` like the
    /// assignments: a run of more points takes the plain path.
    todo: Vec<u32>,
    /// `η` of [`screen_slack`] at the run's `dim`.
    slack: f64,
    /// Point-assignments the bounds decided without the screen.
    pruned: u64,
}

impl Bounds {
    fn new(n: usize, k: usize, dim: usize) -> Self {
        Self {
            lower: Vec::with_capacity(n),
            prev: vec![0.0; k * dim],
            far: vec![0.0; k],
            // Bounded runs have `n ≤ u32::MAX`.
            todo: (0..n as u32).collect(),
            slack: screen_slack(dim),
            pruned: 0,
        }
    }

    /// Records how far each centroid moved from `prev` to `now`. A drift is
    /// `√sq_dist · (1 + η) + BOUND_FLOOR`, at least the true distance; a
    /// non-finite one sets every `far` to `+inf`, which fails every test.
    fn note_drift(&mut self, now: &[f64], dim: usize) {
        let grow = 1.0 + self.slack;
        let (mut top, mut second, mut arg) = (0.0f64, 0.0f64, usize::MAX);
        for (j, (new, old)) in now.chunks_exact(dim).zip(self.prev.chunks_exact(dim)).enumerate() {
            let drift = sq_dist(new, old).sqrt() * grow + BOUND_FLOOR;
            if !drift.is_finite() {
                self.far.fill(f64::INFINITY);
                return;
            }
            if drift > top {
                (second, top, arg) = (top, drift, j);
            } else if drift > second {
                second = drift;
            }
        }
        for (j, far) in self.far.iter_mut().enumerate() {
            *far = if j == arg { second } else { top };
        }
    }
}

/// Runs Lloyd's algorithm from the given initial centroids.
///
/// # Errors
/// * [`Error::EmptyDataset`] for an empty source,
/// * [`Error::DimensionMismatch`] if `init` and `src` disagree on `dim`,
/// * [`Error::KExceedsPoints`] if `init.k() > src.len()` (more clusters than
///   points can never be non-empty).
pub fn lloyd<S: PointSource + ?Sized>(
    src: &S,
    init: &Centroids,
    cfg: &LloydConfig,
) -> Result<LloydRun> {
    lloyd_observed(src, init, cfg, None)
}

/// [`lloyd`] with observability hooks: when `rec` is `Some`, the assign
/// and update steps are timed as phases, and at the end of the run the
/// iteration count and the fused kernel's tallies go into the recorder's
/// registry and one `lloyd.kernel` event. `None` takes the exact same code
/// path as [`lloyd`].
pub fn lloyd_observed<S: PointSource + ?Sized>(
    src: &S,
    init: &Centroids,
    cfg: &LloydConfig,
    rec: Option<&Recorder>,
) -> Result<LloydRun> {
    cfg.validate()?;
    if src.is_empty() {
        return Err(Error::EmptyDataset);
    }
    if init.dim() != src.dim() {
        return Err(Error::DimensionMismatch { expected: src.dim(), actual: init.dim() });
    }
    let n = src.len();
    let k = init.k();
    if k > n {
        return Err(Error::KExceedsPoints { k, points: n });
    }
    let dim = src.dim();
    let total_weight = src.total_weight();
    debug_assert!(total_weight > 0.0);

    let kernel = cfg.resolved_kernel();
    let mut centroids = init.clone();
    // One centroid has no runner-up to bound, and the bounds index points
    // with `u32`.
    let bounded =
        kernel == KernelKind::Fused && k > 1 && n >= BOUND_GATE * k && u32::try_from(n).is_ok();
    let mut scratch = Scratch::new(n, k, dim, bounded);
    // Fused-kernel tallies are two integer bumps per point — cheap enough
    // to keep unconditionally without forking the code path.
    let mut kernel_stats = KernelStats::default();

    // Distance calculation against the initial seeds gives MSE(0).
    let mut prev_mse = {
        let _phase = rec.and_then(|r| r.phase("assign"));
        assign(src, &centroids, kernel, &mut scratch, &mut kernel_stats) / total_weight
    };
    let mut iterations = 0usize;
    let mut converged = false;
    let mut final_mse = prev_mse;
    let mut reseeds = 0usize;
    let mut mse_trajectory = Vec::with_capacity(cfg.max_iters.min(64) + 1);
    mse_trajectory.push(prev_mse);

    while iterations < cfg.max_iters {
        // Centroid recalculation: µ_j = Σ w_i v_i / Σ w_i, with empty
        // clusters re-seeded from the points farthest from their centroid.
        reseeds += {
            let _phase = rec.and_then(|r| r.phase("update"));
            update(src, &mut centroids, &mut scratch)
        };
        let mse = {
            let _phase = rec.and_then(|r| r.phase("assign"));
            assign(src, &centroids, kernel, &mut scratch, &mut kernel_stats) / total_weight
        };
        iterations += 1;
        let delta = prev_mse - mse;
        final_mse = mse;
        prev_mse = mse;
        mse_trajectory.push(mse);
        // Plain Lloyd decreases MSE monotonically; a negative delta can only
        // follow an empty-cluster re-seed, in which case we keep iterating.
        if delta >= 0.0 && delta <= cfg.epsilon {
            converged = true;
            break;
        }
    }

    if let Some(rec) = rec {
        rec.registry().counter("lloyd_iterations_total").add(iterations as u64);
        if kernel_stats.points > 0 {
            rec.registry().counter("kernel_fused_points_total").add(kernel_stats.points);
            rec.registry().counter("kernel_fused_rescued_total").add(kernel_stats.rescued);
        }
        let pruned = scratch.bounds.as_ref().map(|b| b.pruned);
        let fields = [
            ("kind", kernel.label().into()),
            ("points", kernel_stats.points.into()),
            ("rescued", kernel_stats.rescued.into()),
            ("rescues_per_point", kernel_stats.rescues_per_point().into()),
            ("reseeds", reseeds.into()),
            ("pruned", pruned.unwrap_or(0).into()),
        ];
        // Only bounded runs carry `pruned`, so the others' events keep
        // their bytes.
        rec.event("lloyd.kernel", if pruned.is_some() { &fields } else { &fields[..5] });
    }

    let sse = final_mse * total_weight;
    Ok(LloydRun {
        centroids,
        assignments: std::mem::take(&mut scratch.assignments),
        cluster_weights: std::mem::take(&mut scratch.weights),
        sse,
        mse: final_mse,
        iterations,
        converged,
        mse_trajectory,
        reseeds,
    })
}

/// `sum += w·x`, coordinate by coordinate.
#[inline(always)]
fn add_row(sum: &mut [f64], w: f64, x: &[f64]) {
    for (s, c) in sum.iter_mut().zip(x) {
        *s += w * c;
    }
}

/// Distance-calculation step: assigns every point to its nearest centroid,
/// filling `scratch` (assignments, per-point d², per-cluster sums/weights)
/// and returning the weighted SSE.
///
/// Every strategy produces bit-identical contents of `scratch` (the fused
/// kernel's rescue pass recomputes the winning distance with the scalar
/// `sq_dist`, and the accumulation visits points in the same order), so
/// iteration counts, trajectories, and final centroids never depend on the
/// kernel choice. At the paper's six dimensions the step runs with the
/// width fixed at compile time, at any other with the width read at run
/// time; both are the one body of [`assign_at`], with the same operations
/// in the same order.
fn assign<S: PointSource + ?Sized>(
    src: &S,
    centroids: &Centroids,
    kernel: KernelKind,
    scratch: &mut Scratch,
    kernel_stats: &mut KernelStats,
) -> f64 {
    match src.dim() {
        PAPER_DIM => assign_at::<PAPER_DIM, S>(src, centroids, kernel, scratch, kernel_stats),
        _ => assign_at::<RUN_TIME, S>(src, centroids, kernel, scratch, kernel_stats),
    }
}

/// [`assign`] at width parameter `D` (see [`RUN_TIME`]).
#[inline(always)]
fn assign_at<const D: usize, S: PointSource + ?Sized>(
    src: &S,
    centroids: &Centroids,
    kernel: KernelKind,
    scratch: &mut Scratch,
    kernel_stats: &mut KernelStats,
) -> f64 {
    let dim = width::<D>(src.dim());
    let cents = centroids.as_flat();

    if kernel == KernelKind::Fused {
        // Fused path: one pass over the points does the SoA screen, the
        // exact rescue, and the weighted accumulator updates — four points
        // per sweep of the planes, then the `n mod 4` tail one at a time.
        // Sums, weights and the SSE accumulate in point order either way.
        let layout = FusedLayout::new(cents, dim);
        // Allocates on a run's first call only: k is fixed for the run.
        scratch.screen.resize(FusedLayout::BLOCK * layout.scratch_len(), 0.0);
        if scratch.bounds.is_some() {
            return assign_bounded::<D, S>(src, &layout, cents, scratch, kernel_stats);
        }
        scratch.sums.fill(0.0);
        scratch.weights.fill(0.0);
        let Scratch { assignments, d2, sums, weights, screen, .. } = scratch;
        let mut wsse = 0.0;
        layout.for_each_nearest(src, screen, kernel_stats, |i, x, (j, dist2)| {
            assignments[i] = j as u32;
            d2[i] = dist2;
            let w = src.weight(i);
            add_row(&mut sums[j * dim..(j + 1) * dim], w, &x[..dim]);
            weights[j] += w;
            wsse += w * dist2;
        });
        return wsse;
    }

    for (i, (a, d)) in scratch.assignments.iter_mut().zip(scratch.d2.iter_mut()).enumerate() {
        let (j, d2) = nearest_centroid(src.coords(i), cents, dim);
        *a = j as u32;
        *d = d2;
    }
    accumulate::<D, S>(src, scratch)
}

/// Per-cluster sums and weights of `scratch`'s assignments, accumulated in
/// point order, and the weighted SSE of its distances.
#[inline(always)]
fn accumulate<const D: usize, S: PointSource + ?Sized>(src: &S, scratch: &mut Scratch) -> f64 {
    let dim = width::<D>(src.dim());
    let Scratch { assignments, d2, sums, weights, .. } = scratch;
    sums.fill(0.0);
    weights.fill(0.0);
    let mut wsse = 0.0;
    for (i, (&j, &dist2)) in assignments.iter().zip(d2.iter()).enumerate() {
        let j = j as usize;
        let w = src.weight(i);
        add_row(&mut sums[j * dim..(j + 1) * dim], w, &src.coords(i)[..dim]);
        weights[j] += w;
        wsse += w * dist2;
    }
    wsse
}

/// [`assign`] on a bounded run, in three passes. The first decides every
/// point without a branch on the outcome: it refreshes the point's exact
/// `d²` and bound, writes the point's index to the next free slot of the
/// undecided list, and advances the list's length by the test's result,
/// 0 for a point the bound keeps and 1 for the rest (on the run's first
/// call every point is undecided). The second screens the undecided points
/// in blocks of four, each with its new floor. The third accumulates sums,
/// weights and SSE in point order, from the same `d²` the screen's rescue
/// returns, so the result is the unbounded path's to the bit.
#[inline(always)]
fn assign_bounded<const D: usize, S: PointSource + ?Sized>(
    src: &S,
    layout: &FusedLayout,
    cents: &[f64],
    scratch: &mut Scratch,
    kernel_stats: &mut KernelStats,
) -> f64 {
    const BLOCK: usize = FusedLayout::BLOCK;
    // `l − far` rounded down: with round-to-nearest the product of the
    // rounded difference and `1 − ε` never exceeds the exact difference.
    const SHRINK: f64 = 1.0 - f64::EPSILON;
    let dim = width::<D>(src.dim());
    let n = src.len();
    let Scratch { assignments, d2, screen, bounds, .. } = scratch;
    let b = bounds.as_mut().expect("assign_bounded runs with bounds");

    // `todo` starts as `0..n`, the first call's list.
    let undecided = if b.lower.is_empty() {
        b.lower.resize(n, 0.0);
        n
    } else {
        let grow = 1.0 + b.slack;
        let mut m = 0;
        for (i, ((&a, d2), lower)) in
            assignments.iter().zip(d2.iter_mut()).zip(b.lower.iter_mut()).enumerate()
        {
            let a = a as usize;
            let d = sq_dist(&src.coords(i)[..dim], &cents[a * dim..(a + 1) * dim]);
            let l = (*lower - b.far[a]) * SHRINK;
            *d2 = d;
            *lower = l;
            b.todo[m] = i as u32;
            // Written so NaN fails it too.
            m += usize::from(!(l > BOUND_FLOOR && d * grow < l * l));
        }
        m
    };
    // A kept point is tallied as assigned with one exact distance, its
    // own: what the screen's rescue computes for a point alone in its
    // window.
    let kept = (n - undecided) as u64;
    b.pruned += kept;
    kernel_stats.points += kept;
    kernel_stats.rescued += kept;

    let mut settle = |i: usize, (j, dist2): (usize, f64), floor: f64| {
        assignments[i] = j as u32;
        d2[i] = dist2;
        b.lower[i] = floor.sqrt();
    };
    let mut blocks = b.todo[..undecided].chunks_exact(BLOCK);
    for idx in &mut blocks {
        let idx: [usize; BLOCK] = std::array::from_fn(|p| idx[p] as usize);
        let xs = idx.map(|i| src.coords(i));
        let (hits, floors) = layout.nearest_block_floored(xs, screen, kernel_stats);
        for p in 0..BLOCK {
            settle(idx[p], hits[p], floors[p]);
        }
    }
    for &i in blocks.remainder() {
        let i = i as usize;
        let (hit, floor) = layout.nearest_floored(src.coords(i), screen, kernel_stats);
        settle(i, hit, floor);
    }
    accumulate::<D, S>(src, scratch)
}

/// The update step: [`recompute_means`], with a bounded run's drifts noted.
/// Returns how many clusters were re-seeded.
fn update<S: PointSource + ?Sized>(
    src: &S,
    centroids: &mut Centroids,
    scratch: &mut Scratch,
) -> usize {
    if let Some(b) = &mut scratch.bounds {
        b.prev.copy_from_slice(centroids.as_flat());
    }
    let reseeded = recompute_means(src, centroids, scratch);
    if let Some(b) = &mut scratch.bounds {
        b.note_drift(centroids.as_flat(), src.dim());
    }
    reseeded
}

/// Centroid recalculation from the accumulated sums. Clusters that received
/// no weight are re-seeded to the input points currently farthest from their
/// assigned centroid (distinct donors for multiple empty clusters); the
/// paper does not specify an empty-cluster policy, see DESIGN.md §5.
/// Returns how many clusters were re-seeded.
fn recompute_means<S: PointSource + ?Sized>(
    src: &S,
    centroids: &mut Centroids,
    scratch: &mut Scratch,
) -> usize {
    let dim = centroids.dim();
    let k = centroids.k();
    let mut empties: Vec<usize> = Vec::new();
    {
        let flat = centroids.as_flat_mut();
        for j in 0..k {
            let w = scratch.weights[j];
            if w > 0.0 {
                let dst = &mut flat[j * dim..(j + 1) * dim];
                let sum = &scratch.sums[j * dim..(j + 1) * dim];
                for (d, s) in dst.iter_mut().zip(sum) {
                    *d = s / w;
                }
            } else {
                empties.push(j);
            }
        }
    }
    if empties.is_empty() {
        return 0;
    }
    // Rank donor points by their current squared distance, farthest first.
    let n = src.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        scratch.d2[b].partial_cmp(&scratch.d2[a]).unwrap_or(std::cmp::Ordering::Equal)
    });
    let flat = centroids.as_flat_mut();
    for (e, &j) in empties.iter().enumerate() {
        // With k ≤ n there are always enough donors.
        let donor = order[e.min(n - 1)];
        flat[j * dim..(j + 1) * dim].copy_from_slice(src.coords(donor));
    }
    empties.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, WeightedSet};

    fn two_blob_dataset() -> Dataset {
        // Tight blobs around (0,0) and (100,100).
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..20 {
            let o = (i % 5) as f64 * 0.1;
            ds.push(&[o, -o]).unwrap();
            ds.push(&[100.0 + o, 100.0 - o]).unwrap();
        }
        ds
    }

    fn cfg() -> LloydConfig {
        LloydConfig::default()
    }

    #[test]
    fn converges_on_two_obvious_blobs() {
        let ds = two_blob_dataset();
        let init = Centroids::from_flat(2, vec![1.0, 1.0, 99.0, 99.0]).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        assert!(run.converged);
        assert_eq!(run.cluster_weights, vec![20.0, 20.0]);
        // Means of the blobs: (0.2, -0.2) and (100.2, 99.8).
        let c0 = run.centroids.centroid(0);
        assert!((c0[0] - 0.2).abs() < 1e-12, "c0 = {c0:?}");
        assert!((c0[1] + 0.2).abs() < 1e-12);
        let c1 = run.centroids.centroid(1);
        assert!((c1[0] - 100.2).abs() < 1e-12);
    }

    #[test]
    fn assignments_consistent_with_final_centroids() {
        let ds = two_blob_dataset();
        let init = Centroids::from_flat(2, vec![0.0, 0.0, 1.0, 1.0]).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        for (i, &a) in run.assignments.iter().enumerate() {
            let (nearest, _) = nearest_centroid(ds.coords(i), run.centroids.as_flat(), 2);
            assert_eq!(a as usize, nearest, "point {i}");
        }
    }

    #[test]
    fn sse_matches_direct_recomputation() {
        let ds = two_blob_dataset();
        let init = Centroids::from_flat(2, vec![0.0, 0.0, 50.0, 50.0]).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        let mut expect = 0.0;
        for (i, &a) in run.assignments.iter().enumerate() {
            expect += crate::point::sq_dist(ds.coords(i), run.centroids.centroid(a as usize));
        }
        assert!((run.sse - expect).abs() < 1e-9 * expect.max(1.0));
        assert!((run.mse - expect / ds.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn k_equals_one_returns_global_mean() {
        let ds = Dataset::from_rows(&[[0.0, 0.0], [2.0, 4.0], [4.0, 2.0]]).unwrap();
        let init = Centroids::from_flat(2, vec![100.0, 100.0]).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        assert_eq!(run.centroids.centroid(0), &[2.0, 2.0]);
        assert!(run.converged);
    }

    #[test]
    fn k_equals_n_gives_zero_error() {
        let ds = Dataset::from_rows(&[[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]]).unwrap();
        let init = ds.clone();
        let init = Centroids::from_flat(2, init.into_flat()).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        assert_eq!(run.sse, 0.0);
        assert_eq!(run.mse, 0.0);
        assert!(run.converged);
    }

    #[test]
    fn weighted_centroid_recalculation_uses_weighted_mean() {
        // One cluster; weighted mean of {(0, w=1), (10, w=3)} is 7.5.
        let mut ws = WeightedSet::new(1).unwrap();
        ws.push(&[0.0], 1.0).unwrap();
        ws.push(&[10.0], 3.0).unwrap();
        let init = Centroids::from_flat(1, vec![4.0]).unwrap();
        let run = lloyd(&ws, &init, &cfg()).unwrap();
        assert_eq!(run.centroids.centroid(0), &[7.5]);
        assert_eq!(run.cluster_weights, vec![4.0]);
        // E_pm = 1·7.5² + 3·2.5² = 75.0; MSE = 75 / 4.
        assert!((run.sse - 75.0).abs() < 1e-12);
        assert!((run.mse - 18.75).abs() < 1e-12);
    }

    #[test]
    fn weight_scaling_does_not_move_centroids() {
        // Scaling all weights by a constant must leave centroids unchanged.
        let mut a = WeightedSet::new(2).unwrap();
        let mut b = WeightedSet::new(2).unwrap();
        let pts = [[0.0, 1.0], [2.0, 3.0], [10.0, 10.0], [12.0, 9.0]];
        for (i, p) in pts.iter().enumerate() {
            a.push(p, 1.0 + i as f64).unwrap();
            b.push(p, 10.0 * (1.0 + i as f64)).unwrap();
        }
        let init = Centroids::from_flat(2, vec![0.0, 0.0, 11.0, 10.0]).unwrap();
        let ra = lloyd(&a, &init, &cfg()).unwrap();
        let rb = lloyd(&b, &init, &cfg()).unwrap();
        assert_eq!(ra.centroids, rb.centroids);
        assert!((ra.mse - rb.mse).abs() < 1e-12);
        assert!((rb.sse - 10.0 * ra.sse).abs() < 1e-9);
    }

    #[test]
    fn empty_cluster_is_reseeded_not_lost() {
        // Three centroids but the third starts far from all mass: after the
        // first assignment it is empty and must be re-seeded, and the final
        // result must keep k = 3 with no NaNs.
        let ds = two_blob_dataset();
        let init = Centroids::from_flat(2, vec![0.0, 0.0, 100.0, 100.0, 1e6, 1e6]).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        assert_eq!(run.centroids.k(), 3);
        assert!(run.centroids.as_flat().iter().all(|c| c.is_finite()));
        // Every point is still assigned and weights sum to n.
        let total: f64 = run.cluster_weights.iter().sum();
        assert_eq!(total, ds.len() as f64);
    }

    #[test]
    fn multiple_empty_clusters_get_distinct_donors() {
        // 4 identical-ish points near origin, 4 centroids far away except one.
        let ds = Dataset::from_rows(&[[0.0], [1.0], [2.0], [3.0]]).unwrap();
        let init = Centroids::from_flat(1, vec![0.0, 1e9, 2e9, 3e9]).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        assert_eq!(run.centroids.k(), 4);
        // With k = n = 4, the optimum puts one centroid on each point.
        let mut finals: Vec<f64> = run.centroids.as_flat().to_vec();
        finals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(finals, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(run.sse, 0.0);
    }

    #[test]
    fn iteration_cap_reports_not_converged() {
        let ds = two_blob_dataset();
        let init = Centroids::from_flat(2, vec![0.0, 0.0, 0.1, 0.1]).unwrap();
        let tight = LloydConfig { max_iters: 1, ..LloydConfig::default() };
        let run = lloyd(&ds, &init, &tight).unwrap();
        assert_eq!(run.iterations, 1);
        assert!(!run.converged);
    }

    #[test]
    fn errors_on_bad_inputs() {
        let empty = Dataset::new(2).unwrap();
        let init = Centroids::from_flat(2, vec![0.0, 0.0]).unwrap();
        assert_eq!(lloyd(&empty, &init, &cfg()), Err(Error::EmptyDataset));

        let ds = Dataset::from_rows(&[[0.0, 0.0]]).unwrap();
        let init3 = Centroids::from_flat(3, vec![0.0; 3]).unwrap();
        assert_eq!(
            lloyd(&ds, &init3, &cfg()),
            Err(Error::DimensionMismatch { expected: 2, actual: 3 })
        );

        let init2 = Centroids::from_flat(2, vec![0.0, 0.0, 1.0, 1.0]).unwrap();
        assert_eq!(lloyd(&ds, &init2, &cfg()), Err(Error::KExceedsPoints { k: 2, points: 1 }));
    }

    #[test]
    fn mse_trajectory_tracks_every_iteration() {
        let ds = two_blob_dataset();
        let init = Centroids::from_flat(2, vec![0.0, 0.0, 1.0, 1.0]).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        assert_eq!(run.mse_trajectory.len(), run.iterations + 1);
        assert_eq!(*run.mse_trajectory.last().unwrap(), run.mse);
        for w in run.mse_trajectory.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "trajectory rose: {:?}", run.mse_trajectory);
        }
    }

    #[test]
    fn observed_run_is_bit_identical_and_emits_events() {
        use pmkm_obs::RingBufferSink;
        use std::sync::Arc;
        let ds = two_blob_dataset();
        let init = Centroids::from_flat(2, vec![0.0, 0.0, 1.0, 1.0]).unwrap();
        let plain = lloyd(&ds, &init, &cfg()).unwrap();

        let ring = Arc::new(RingBufferSink::new(256));
        let rec = pmkm_obs::Recorder::new().with_sink(ring.clone());
        let observed = lloyd_observed(&ds, &init, &cfg(), Some(&rec)).unwrap();

        assert_eq!(plain.centroids, observed.centroids);
        assert_eq!(plain.mse, observed.mse);
        assert_eq!(plain.mse_trajectory, observed.mse_trajectory);

        let events = ring.events();
        assert_eq!(events.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(), ["lloyd.kernel"]);
        let snap = rec.registry().snapshot();
        assert_eq!(
            rec.registry().counter_value("lloyd_iterations_total"),
            observed.iterations as u64
        );
        let fused_points = snap
            .counters
            .iter()
            .find(|c| c.name == "kernel_fused_points_total")
            .map(|c| c.value)
            .unwrap();
        // One fused screen per point per distance calculation.
        assert_eq!(fused_points, (ds.len() * (observed.iterations + 1)) as u64);
    }

    /// A 6-D chunk of the shape `planet_classic` streams: a 40-blob
    /// mixture with per-blob spread (the coreset golden's generator).
    fn wide_chunk(seed: u64, n: usize) -> Dataset {
        chunk_of_width(seed, n, 6)
    }

    /// [`wide_chunk`]'s mixture at any width; at 6 it is the same chunk.
    fn chunk_of_width(seed: u64, n: usize, dim: usize) -> Dataset {
        use rand::Rng;
        let mut rng = crate::seeding::rng_for(seed, 0x6D1D);
        let mut ds = Dataset::new(dim).unwrap();
        let mut row = vec![0.0f64; dim];
        for _ in 0..n {
            let blob = f64::from(rng.gen_range(0..40i32));
            for (d, x) in row.iter_mut().enumerate() {
                *x = blob * (7.0 + d as f64) % 90.0 + rng.gen_range(-2.5..2.5);
            }
            ds.push(&row).unwrap();
        }
        ds
    }

    /// Word-wise FNV-1a over a stream of 64-bit words.
    fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
        words
            .into_iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
    }

    /// Two digests of a best-of-10 run at the paper's parameters. The first
    /// hashes centroid bits, `mse` bits, the iteration total over all
    /// restarts and every assignment; the second hashes the same words and
    /// then every restart's `mse`.
    fn kmeans_digest(n: usize, seed: u64) -> [u64; 2] {
        kmeans_digest_at(n, 6, seed)
    }

    /// [`kmeans_digest`] on a chunk of width `dim`.
    fn kmeans_digest_at(n: usize, dim: usize, seed: u64) -> [u64; 2] {
        let cfg = crate::KMeansConfig::paper(40, seed);
        let out = crate::kmeans(&chunk_of_width(seed, n, dim), &cfg).unwrap();
        let best = &out.best;
        let words: Vec<u64> = (best.centroids.as_flat().iter().map(|v| v.to_bits()))
            .chain([best.mse.to_bits(), out.total_iterations() as u64])
            .chain(best.assignments.iter().map(|&a| u64::from(a)))
            .collect();
        let restarts = out.restarts.iter().map(|r| r.mse.to_bits());
        [fnv_words(words.iter().copied()), fnv_words(words.into_iter().chain(restarts))]
    }

    /// Digests of one fused run's assign steps at k = 40 from random seeds:
    /// every point's `d²` bits and the step's SSE bits after the first step
    /// (every point screened), then the same after the fifth (on a bounded
    /// run, some points decided by their bounds) followed by the kernel's
    /// tallies and, on a bounded run, `pruned`.
    fn d2_digest(n: usize, dim: usize, seed: u64) -> [u64; 2] {
        use crate::config::SeedMode;
        const K: usize = 40;
        let ds = chunk_of_width(seed, n, dim);
        let mut rng = crate::seeding::rng_for(seed, 1);
        let mut centroids =
            crate::seeding::seed_centroids(&ds, K, SeedMode::RandomPoints, &mut rng).unwrap();
        let mut scratch = Scratch::new(n, K, dim, n >= BOUND_GATE * K);
        let mut stats = KernelStats::default();
        let mut step = |centroids: &Centroids, scratch: &mut Scratch| {
            let sse = assign(&ds, centroids, KernelKind::Fused, scratch, &mut stats);
            scratch.d2.iter().map(|v| v.to_bits()).chain([sse.to_bits()]).collect::<Vec<_>>()
        };
        let first = step(&centroids, &mut scratch);
        let mut later = Vec::new();
        for _ in 0..4 {
            update(&ds, &mut centroids, &mut scratch);
            later = step(&centroids, &mut scratch);
        }
        let pruned = scratch.bounds.as_ref().map(|b| b.pruned);
        later.extend([stats.points, stats.rescued].into_iter().chain(pruned));
        [fnv_words(first), fnv_words(later)]
    }

    // Recorded on 0bed336, the commit before the screen kept its row in
    // registers, the way the constants of `lloyd_bits_are_pinned` were (the
    // test printing instead of asserting, in a `git archive` export; debug
    // and release printed the same words). A one-ulp change in a single
    // `d²` vanishes in the SSE that `lloyd_bits_are_pinned` hashes; here
    // every `d²` is a word of its own. The bounded path runs at 2,500 x 6
    // and at the two run-time widths, the unbounded one on a small-cell
    // chunk.
    #[test]
    fn assign_d2_bits_are_pinned() {
        for ((n, dim, seed), want) in [
            ((2_500, 6, 42), [0x29d6_bf21_a0d1_8f06, 0x423e_417a_176e_8ab8]),
            ((20_000, 3, 48), [0x42e1_a1ac_3c78_5ca2, 0x5496_6d20_93af_68ec]),
            ((20_000, 11, 49), [0x017f_416b_5335_bdc9, 0x6c30_b8c1_c12d_c91b]),
            ((125, 6, 43), [0x0e81_1c9f_fe01_7acc, 0x6719_52c5_e782_80ea]),
        ] {
            assert_eq!(d2_digest(n, dim, seed), want, "{n} x {dim}: first and fifth assign step");
        }
    }

    // The first four digests were recorded on the commit *before* the
    // assignment kernel went to four points per sweep and a one-mask rescue
    // window (ee18bf5: this test, printing instead of asserting, dropped
    // into a `git archive` export of that tree; debug and release printed
    // the same words). `sse_ratio_vs_serial` says one cell's final
    // centroids did not move; this says no centroid bit, no assignment and
    // no iteration count of any restart did, on a `planet_classic` chunk
    // (2,500 x 6), a small-cell chunk (125 x 6), a chunk with a three-point
    // tail behind its blocks, and the merge's weighted Lloyd over 400
    // centroids. The last two were recorded the same way on f3a8e7c, the
    // commit before Lloyd kept per-point bounds: a 20,000-point run, long
    // enough for the bounds to decide most assignments, and a weighted
    // Lloyd over 1,500 points (more than 16 per centroid, as in a coreset
    // query). The two digests at widths 3 and 11 were recorded the same
    // way on b561354, the commit before the assignment step dispatched on
    // the row width. The second word of each `kmeans_digest` pair also
    // hashes every restart's `mse`; those were recorded the same way on
    // 0bed336, the commit before the screen kept its row in registers.
    #[test]
    fn lloyd_bits_are_pinned() {
        assert_eq!(
            kmeans_digest(2_500, 42),
            [0x3153_ad8e_b63f_2a3c, 0x82e1_bd4f_09b2_5290],
            "2,500 x 6, k = 40"
        );
        assert_eq!(
            kmeans_digest(125, 43),
            [0x07b6_6320_301d_3fa9, 0xd52e_237d_cb44_2efa],
            "125 x 6, k = 40"
        );
        assert_eq!(
            kmeans_digest(2_503, 44),
            [0x3bbd_3b90_3d24_bd97, 0x4eb2_2544_a47b_35bb],
            "2,503 x 6: tail of 3"
        );

        // Ten partitions' worth of weighted centroids, as the merge sees them.
        let sets: Vec<WeightedSet> = (0..10u64)
            .map(|p| {
                let mut ws = WeightedSet::new(6).unwrap();
                for (i, row) in wide_chunk(100 + p, 40).as_flat().chunks_exact(6).enumerate() {
                    ws.push(row, 1.0 + ((i as u64 * 37 + p * 11) % 120) as f64).unwrap();
                }
                ws
            })
            .collect();
        let out = crate::merge_collective(&sets, &crate::KMeansConfig::paper(40, 45), 1).unwrap();
        assert_eq!(out.input_centroids, 400);
        let digest = fnv_words(
            (out.centroids.as_flat().iter().chain(&out.cluster_weights).map(|v| v.to_bits()))
                .chain([out.mse.to_bits(), out.epm.to_bits(), out.iterations as u64]),
        );
        assert_eq!(digest, 0x1c56_a119_bbb9_06a6, "merge_collective over 400 weighted points");

        // A long run, and one union of 1,500 weighted points as a coreset
        // query sees it.
        assert_eq!(
            kmeans_digest(20_000, 46),
            [0x6bb5_2448_6a0a_f4e4, 0xee79_60ce_1197_0680],
            "20,000 x 6, k = 40"
        );
        let mut union = WeightedSet::new(6).unwrap();
        for (i, row) in wide_chunk(200, 1_500).as_flat().chunks_exact(6).enumerate() {
            union.push(row, 1.0 + ((i as u64 * 53) % 97) as f64).unwrap();
        }
        let out = crate::merge_collective(
            std::slice::from_ref(&union),
            &crate::KMeansConfig::paper(40, 47),
            1,
        )
        .unwrap();
        let digest = fnv_words(
            (out.centroids.as_flat().iter().chain(&out.cluster_weights).map(|v| v.to_bits()))
                .chain([out.mse.to_bits(), out.epm.to_bits(), out.iterations as u64]),
        );
        assert_eq!(digest, 0x9362_8611_d50f_f50e, "merge_collective over one union of 1,500");

        // Long runs at widths other than the paper's 6, which take the
        // assignment step's run-time-width body.
        assert_eq!(
            kmeans_digest_at(20_000, 3, 48),
            [0xc154_5552_c20e_9608, 0xb16b_a991_09b2_0a82],
            "20,000 x 3, k = 40"
        );
        assert_eq!(
            kmeans_digest_at(20_000, 11, 49),
            [0xc116_0570_3fa1_1230, 0xc277_6e45_53b0_e3ba],
            "20,000 x 11, k = 40"
        );
    }

    #[test]
    fn zero_iterations_never_happens() {
        // Even a perfectly seeded run performs one recalculation iteration
        // to observe the zero delta.
        let ds = Dataset::from_rows(&[[0.0], [10.0]]).unwrap();
        let init = Centroids::from_flat(1, vec![0.0, 10.0]).unwrap();
        let run = lloyd(&ds, &init, &cfg()).unwrap();
        assert_eq!(run.iterations, 1);
        assert!(run.converged);
    }
}
