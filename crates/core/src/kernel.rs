//! Fused SoA assignment kernels for the Lloyd hot path.
//!
//! The assignment step is the `O(n · k · dim)` core every experiment in the
//! paper stands on. The naive scan ([`crate::point::nearest_centroid`])
//! walks centroids one at a time in AoS order, so the compiler must
//! serialize the per-candidate accumulation. This module restructures the
//! search around the norm expansion
//!
//! ```text
//! ‖x − c‖² = ‖x‖² − 2·x·c + ‖c‖²
//! ```
//!
//! with the centroid table transposed into **coordinate-major planes**:
//! plane `d` holds coordinate `d` of *all* centroids contiguously (padded
//! to a multiple of [`LANES`]). The screen then runs `d` as the *outer*
//! loop — one broadcast of `x[d]` per plane and a contiguous
//! multiply-accumulate sweep across all centroids — so every SIMD lane
//! carries an independent accumulator chain and the loop is
//! throughput-bound instead of latency-bound. (The earlier shape, blocks
//! of 8 centroids with `d` innermost, serializes each block behind a
//! `dim`-deep FMA dependency chain.) `‖c‖²` is computed once per layout
//! (once per Lloyd iteration), `‖x‖²` once per point.
//!
//! ## Four points per sweep, rows in registers
//!
//! One point's sweep keeps few accumulator chains in flight and reloads
//! every plane vector for every point. [`FusedLayout::nearest_block`]
//! takes [`FusedLayout::BLOCK`] points at once: each plane vector is
//! loaded once and multiplied into one accumulator per point, and the
//! sweep, the window test and the rescue of all four points live in one
//! `#[target_feature]` function per instruction set.
//! [`FusedLayout::nearest_counted`] is the same routine instantiated at one
//! point. The arithmetic of every (point, centroid) pair is the same in
//! both, so a block returns exactly what four single-point calls return.
//!
//! How the sweep is laid out depends on the call. On AVX-512, four points
//! of the paper's six dimensions against a table of the paper's k = 40
//! (33 to 40 centroids, five `zmm` per screened row) are swept together
//! with their rows held as vector values, the window mask is built from
//! those values, the screen scratch is never written, and the norm, the
//! sweep and the rescue run at a row width fixed at compile time. Every
//! other call is swept in panels of eight accumulator chains (two vectors
//! × four points, or four vectors for one point), stored to the caller's
//! scratch and reloaded for the window test. Held rows are instantiated for
//! that one shape only: every benchmark workload runs k = 40, and each
//! further shape is one more body per kernel instance, which the binary's
//! resident text pays for (DESIGN.md §9). `η` is computed once per layout.
//!
//! ## Exactness: the rescue pass
//!
//! The expansion is algebraically equal to the squared distance but not
//! bit-equal in floating point, and a k-means assignment must not silently
//! flip near-ties: the differential test suite (and the paper's
//! determinism story) requires the fused kernel to make **the same
//! decision as the scalar scan on every input**. The kernel therefore
//! treats the expanded values as a *screen*, not an answer:
//!
//! 1. compute `approx_j = ‖x‖² − 2·x·c_j + ‖c_j‖²` for every centroid,
//! 2. bound the worst-case disagreement between `approx_j` and the
//!    scalar-computed `sq_dist(x, c_j)` by
//!    `margin = 16 (dim + 4) ε (‖x‖² + max_j ‖c_j‖²)` — a standard
//!    summation-error bound (each of the two computations errs by at most
//!    `~(dim+2) ε` relative to magnitudes bounded by `‖x‖² + ‖c_j‖²`),
//!    widened by a safety factor,
//! 3. **rescue**: recompute the exact [`crate::point::sq_dist`] for every
//!    candidate within `2·margin` of the best screened value and pick the
//!    winner among those by the scalar's own values and tie-break
//!    (lowest index).
//!
//! Any candidate outside the rescue window is strictly worse than the
//! rescued winner under the scalar's arithmetic, so the returned index
//! *and* the returned squared distance are bit-identical to
//! [`crate::point::nearest_centroid`]. On real data the window almost
//! never admits more than one candidate (the tallies are surfaced through
//! [`KernelStats`] and the `pmkm-obs` recorder), so the exactness costs
//! one `O(dim)` recomputation per point. That is not noise against the
//! `O(k · dim)` screen: with the sweep out of memory, a point's tail (its
//! norm, the horizontal minimum, the window, the rescue and the floor) was
//! about half of what a screened point cost (DESIGN.md §9), which is why
//! it stays out of memory and, at the paper's width, runs at a fixed
//! length.
//!
//! The window test is a vector compare per screened vector. Up to 64
//! padded centroids (every Lloyd call at the paper's k = 40) the compare
//! masks are OR-ed into one `u64` and the set bits walked once — one loop
//! whose trip count is almost always one, where a bit-scan per vector
//! mispredicts once per point because which vector holds the winner is
//! random. Wider tables (the coreset builder's up to 256 representatives)
//! scan vector by vector and rescue as they go. Which of the two runs is
//! read off `k_pad`; candidates come out in ascending index order either
//! way.
//!
//! The expansion is only meaningful while its terms are finite. Unless
//! `‖x‖² + max_j ‖c_j‖² < f64::MAX / 4` the kernel takes the exact scalar
//! scan for that point (in a block: for the block): past that bound
//! `‖x‖²`, `‖c‖²` or `2·x·c` can overflow, the screen goes `inf`/NaN, and
//! a screened window could miss the true winner. Below it every screened
//! value and the window are finite, so no `+inf` padding lane is ever a
//! candidate.
//!
//! Ties and duplicate centroids are exact by construction: identical
//! centroid coordinates produce identical `approx` values and identical
//! rescued distances, and both layers break ties toward the lower index.
//! The per-centroid dot product is accumulated in ascending-`d` order in
//! both layouts, so transposing the table does not reorder the summation.
//!
//! ## The runner-up floor
//!
//! Lloyd's bounded path (`crate::lloyd`, DESIGN.md §9) needs, with each
//! screened point, a lower bound on its distance to every centroid but the
//! winner. [`FusedLayout::nearest_block_floored`] and
//! [`FusedLayout::nearest_floored`] return one: the screen also keeps each
//! lane's second minimum, and when the window held a single candidate the
//! floor is the second-smallest screened value less `2·margin`, shrunk by
//! `1 − η`. The floor is a const generic of the shared routine, so
//! [`FusedLayout::nearest`], [`FusedLayout::nearest_counted`] and
//! [`FusedLayout::nearest_block`] compile to the screen they had before it.
//!
//! The strategy is selected per run via [`KernelKind`] on
//! [`crate::config::LloydConfig`]; see DESIGN.md §9 for when each wins.
//!
//! This module is the crate's sole `unsafe` exception (the crate denies
//! `unsafe_code` elsewhere): the AVX2/AVX-512 paths use raw `std::arch`
//! intrinsics. Every pointer access is in bounds by construction — `k_pad`
//! is a multiple of [`LANES`], all loads/stores stay below `k_pad` within a
//! plane or a point's scratch row, and the entry points assert the point
//! and scratch lengths — and each `#[target_feature]` function is only
//! reachable through a `ScreenIsa` variant constructed after
//! `is_x86_feature_detected!` confirmed the features.
#![allow(unsafe_code)]

use crate::dataset::PointSource;
use crate::point::{nearest_centroid, sq_dist, width, PAPER_DIM, RUN_TIME};

pub use crate::config::KernelKind;

/// Padding granularity of the centroid planes: eight f64 lanes span one
/// AVX-512 (or two AVX2, or four SSE2) vectors, so the finalize/min loop
/// can be written over fixed-size `[f64; LANES]` chunks.
pub const LANES: usize = 8;

/// Safety factor applied to the analytic FP-error bound of the norm
/// expansion (see the module docs). Loose on purpose: widening the rescue
/// window only costs a few extra exact recomputations.
const MARGIN_SCALE: f64 = 16.0;

/// The relative error scale `η = 16·(dim + 4)·ε` of the screen: the
/// margin is `η·(‖x‖² + max_j ‖c_j‖²)`. It is also the slack the runner-up
/// floor ([`FusedLayout::nearest_block_floored`]) and the bounds of
/// `lloyd` give themselves, so one constant sizes every FP allowance.
pub fn screen_slack(dim: usize) -> f64 {
    MARGIN_SCALE * (dim as f64 + 4.0) * f64::EPSILON
}

/// The screen is used only while `‖x‖² + max_j ‖c_j‖²` is below this.
/// Then `|2·x·c| ≤ ‖x‖² + ‖c‖²` keeps every partial sum of the expansion,
/// every exact squared distance and the window finite; at or above it (or
/// with a NaN norm) the point takes the exact scan.
const EXPANSION_LIMIT: f64 = f64::MAX / 4.0;

/// Work tallies of the fused kernel, reported through the observability
/// recorder when one is attached to the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Points assigned through the fused path.
    pub points: u64,
    /// Candidates whose exact distance was recomputed in the rescue pass
    /// (at least one per point — the screened winner itself).
    pub rescued: u64,
}

impl KernelStats {
    /// Mean rescued candidates per point (`1.0` is the floor; values near
    /// it mean the screen almost always decides alone).
    pub fn rescues_per_point(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.rescued as f64 / self.points as f64
        }
    }
}

/// Instruction set the kernel dispatches to, detected once per layout.
/// The screen is a *bound*, not an answer (the rescue pass re-derives
/// exact scalar distances), so the wider paths may use FMA — fused
/// rounding only shrinks the screen's error, never the margin's validity
/// — and every path returns the same rescued result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScreenIsa {
    /// Autovectorized fallback (SSE2 on baseline x86-64 builds).
    Portable,
    /// 4-wide `__m256d` with FMA, runtime-detected.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// 8-wide `__m512d` with FMA, runtime-detected.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

fn detect_isa() -> ScreenIsa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return ScreenIsa::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return ScreenIsa::Avx2Fma;
        }
    }
    ScreenIsa::Portable
}

/// Rescue state of one point: the best exact `(index, squared distance)`
/// among the window candidates seen so far.
type Hit = (usize, f64);

/// No candidate rescued yet.
const NO_HIT: Hit = (usize::MAX, f64::INFINITY);

/// Centroids laid out for the fused kernel: coordinate-major planes for
/// the vectorized screen, plus the original AoS table for the exact
/// rescue pass. Built once per Lloyd iteration (`O(k · dim)`).
#[derive(Debug, Clone)]
pub struct FusedLayout {
    dim: usize,
    k: usize,
    /// `k` rounded up to a whole number of [`LANES`]; the stride of one
    /// plane and the length of `cnorm2` / one point's screen scratch.
    k_pad: usize,
    /// `dim` planes of `k_pad` values each: `planes[d·k_pad + j]` is
    /// coordinate `d` of centroid `j`. Padding lanes hold zeros.
    planes: Vec<f64>,
    /// `‖c_j‖²` per centroid, padded with `+inf` so padding lanes can
    /// never win the screen.
    cnorm2: Vec<f64>,
    /// The original row-major `k × dim` table, for the rescue pass.
    aos: Vec<f64>,
    /// `max_j ‖c_j‖²`, one term of the per-point error margin.
    max_cnorm2: f64,
    /// `η` of [`screen_slack`] at `dim`, the margin's relative scale.
    slack: f64,
    isa: ScreenIsa,
}

impl FusedLayout {
    /// Points per [`Self::nearest_block`] call.
    pub const BLOCK: usize = 4;

    /// Transposes a flat row-major `k × dim` centroid table into
    /// coordinate-major planes. `centroids.len()` must be a non-zero
    /// multiple of `dim`.
    pub fn new(centroids: &[f64], dim: usize) -> Self {
        debug_assert!(dim > 0 && !centroids.is_empty() && centroids.len().is_multiple_of(dim));
        let k = centroids.len() / dim;
        let k_pad = k.div_ceil(LANES) * LANES;
        let mut planes = vec![0.0; dim * k_pad];
        let mut cnorm2 = vec![f64::INFINITY; k_pad];
        let mut max_cnorm2 = 0.0f64;
        for (j, c) in centroids.chunks_exact(dim).enumerate() {
            for (d, &v) in c.iter().enumerate() {
                planes[d * k_pad + j] = v;
            }
            let n2 = c.iter().map(|v| v * v).sum::<f64>();
            cnorm2[j] = n2;
            max_cnorm2 = max_cnorm2.max(n2);
        }
        Self {
            dim,
            k,
            k_pad,
            planes,
            cnorm2,
            aos: centroids.to_vec(),
            max_cnorm2,
            slack: screen_slack(dim),
            isa: detect_isa(),
        }
    }

    /// Label of the screen path this layout dispatches to
    /// (`"avx512f"`, `"avx2+fma"`, or `"portable"`).
    pub fn isa_label(&self) -> &'static str {
        match self.isa {
            ScreenIsa::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            ScreenIsa::Avx2Fma => "avx2+fma",
            #[cfg(target_arch = "x86_64")]
            ScreenIsa::Avx512 => "avx512f",
        }
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Required length of the caller-provided screen scratch buffer for
    /// one point (`k` rounded up to a whole number of [`LANES`]);
    /// [`Self::nearest_block`] needs [`Self::BLOCK`] times as much.
    pub fn scratch_len(&self) -> usize {
        self.k_pad
    }

    /// Nearest centroid to `x`: index and **scalar-exact** squared
    /// distance, bit-identical to [`crate::point::nearest_centroid`].
    ///
    /// `scratch` must be at least [`Self::scratch_len`] long; it holds the
    /// screened distances and carries no state between calls.
    #[inline]
    pub fn nearest(&self, x: &[f64], scratch: &mut [f64]) -> (usize, f64) {
        let mut stats = KernelStats::default();
        self.nearest_counted(x, scratch, &mut stats)
    }

    /// [`Self::nearest`] with work tallies accumulated into `stats`.
    pub fn nearest_counted(
        &self,
        x: &[f64],
        scratch: &mut [f64],
        stats: &mut KernelStats,
    ) -> (usize, f64) {
        self.nearest_n::<1, false>([x], scratch, stats, &mut [0.0])[0]
    }

    /// [`Self::nearest_counted`] for [`Self::BLOCK`] points in one sweep
    /// of the planes: the same results and the same tallies as four
    /// single-point calls in the order given.
    ///
    /// `scratch` must be at least `BLOCK × scratch_len()` long.
    pub fn nearest_block(
        &self,
        xs: [&[f64]; Self::BLOCK],
        scratch: &mut [f64],
        stats: &mut KernelStats,
    ) -> [(usize, f64); Self::BLOCK] {
        self.nearest_n::<{ Self::BLOCK }, false>(xs, scratch, stats, &mut [0.0; Self::BLOCK])
    }

    /// [`Self::nearest_block`] that also returns each point's **runner-up
    /// floor**: a squared distance no larger than the exact
    /// [`crate::point::sq_dist`] from the point to any centroid other than
    /// the one returned (and no larger than the true distance squared).
    /// Hits and tallies are those of [`Self::nearest_block`].
    ///
    /// The floor is `(s₂ − 2·margin)·(1 − η)`, where `s₂` is the
    /// second-smallest screened value and `η` is [`screen_slack`], when the
    /// rescue window held exactly one candidate: that candidate is then the
    /// screen's minimum and the winner, and every other centroid screened at
    /// `s₂` or more, which is within `margin` of its exact distance. It is
    /// `0` whenever that does not hold: several candidates, the exact-scan
    /// fallback, or a floor that is not positive. It is `+inf` only for a
    /// one-centroid table, where no other centroid exists.
    pub fn nearest_block_floored(
        &self,
        xs: [&[f64]; Self::BLOCK],
        scratch: &mut [f64],
        stats: &mut KernelStats,
    ) -> ([(usize, f64); Self::BLOCK], [f64; Self::BLOCK]) {
        let mut floors = [0.0; Self::BLOCK];
        let hits = self.nearest_n::<{ Self::BLOCK }, true>(xs, scratch, stats, &mut floors);
        (hits, floors)
    }

    /// [`Self::nearest_block_floored`] for one point: the hit and tallies
    /// of [`Self::nearest_counted`], and the runner-up floor.
    pub fn nearest_floored(
        &self,
        x: &[f64],
        scratch: &mut [f64],
        stats: &mut KernelStats,
    ) -> ((usize, f64), f64) {
        let mut floor = [0.0];
        let hit = self.nearest_n::<1, true>([x], scratch, stats, &mut floor)[0];
        (hit, floor[0])
    }

    /// Nearest centroid of every point of `src`, handed to `f(i, x_i, hit)`
    /// in ascending `i`: [`Self::nearest_block`] on each run of four
    /// points, then [`Self::nearest_counted`] on the `n mod 4` tail.
    /// `screen` must be at least `BLOCK × scratch_len()` long.
    #[inline]
    pub(crate) fn for_each_nearest<S: PointSource + ?Sized>(
        &self,
        src: &S,
        screen: &mut [f64],
        stats: &mut KernelStats,
        mut f: impl FnMut(usize, &[f64], Hit),
    ) {
        const BLOCK: usize = FusedLayout::BLOCK;
        let n = src.len();
        let mut i = 0;
        while i + BLOCK <= n {
            let xs: [&[f64]; BLOCK] = std::array::from_fn(|p| src.coords(i + p));
            let hits = self.nearest_block(xs, screen, stats);
            for (p, (x, hit)) in xs.into_iter().zip(hits).enumerate() {
                f(i + p, x, hit);
            }
            i += BLOCK;
        }
        for i in i..n {
            let x = src.coords(i);
            f(i, x, self.nearest_counted(x, screen, stats));
        }
    }

    /// The one routine behind every entry point: `P` points against the
    /// whole table. With `FLOOR` the screen also keeps each lane's second
    /// minimum and writes each point's runner-up floor to `floors`; without
    /// it `floors` is never touched and the sweep is the plain one.
    #[inline]
    fn nearest_n<const P: usize, const FLOOR: bool>(
        &self,
        xs: [&[f64]; P],
        scratch: &mut [f64],
        stats: &mut KernelStats,
        floors: &mut [f64; P],
    ) -> [Hit; P] {
        // The SIMD paths index planes by `d < x.len()` and scratch rows
        // through raw pointers: this check and the width check of
        // `nearest_at` are what keep them in bounds.
        assert!(scratch.len() >= P * self.k_pad, "screen scratch too short");
        match self.dim {
            PAPER_DIM => self.nearest_at::<P, FLOOR, PAPER_DIM>(xs, scratch, stats, floors),
            _ => self.nearest_at::<P, FLOOR, RUN_TIME>(xs, scratch, stats, floors),
        }
    }

    /// [`Self::nearest_n`] at width parameter `D` (see [`RUN_TIME`]): at
    /// the paper's width the norms, and on AVX-512 the sweep and the rescue
    /// too, run over rows of a length known at compile time.
    #[inline(always)]
    fn nearest_at<const P: usize, const FLOOR: bool, const D: usize>(
        &self,
        xs: [&[f64]; P],
        scratch: &mut [f64],
        stats: &mut KernelStats,
        floors: &mut [f64; P],
    ) -> [Hit; P] {
        let dim = width::<D>(self.dim);
        let px2 = xs.map(|x| {
            assert_eq!(x.len(), dim, "point dimensionality");
            x.iter().map(|v| v * v).sum::<f64>()
        });
        // Written so a NaN norm fails it too.
        // The exact scan leaves every floor at the caller's 0.
        if !px2.iter().all(|&n| n + self.max_cnorm2 < EXPANSION_LIMIT) {
            return xs.map(|x| self.exact_scan(x, stats));
        }
        match self.isa {
            ScreenIsa::Portable => std::array::from_fn(|p| {
                let approx = &mut scratch[..self.k_pad];
                self.nearest_portable::<FLOOR>(xs[p], px2[p], approx, stats, &mut floors[p])
            }),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the variant is only constructed after
            // `is_x86_feature_detected!` confirmed the features; lengths
            // were asserted above.
            ScreenIsa::Avx2Fma => unsafe {
                self.nearest_avx2::<P, FLOOR>(xs, px2, scratch, stats, floors)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            ScreenIsa::Avx512 => unsafe {
                self.nearest_avx512::<P, FLOOR, D>(xs, px2, scratch, stats, floors)
            },
        }
    }

    /// The scalar scan, tallied as one point that rescued every centroid.
    #[cold]
    fn exact_scan(&self, x: &[f64], stats: &mut KernelStats) -> Hit {
        stats.points += 1;
        stats.rescued += self.k as u64;
        nearest_centroid(x, &self.aos, self.dim)
    }

    /// Upper edge of the rescue window. Both the screen and the scalar sum
    /// err by at most ~(dim + 2)·ε relative to ‖x‖² + ‖c‖², so 2·margin
    /// separates "provably worse under scalar arithmetic" from "must
    /// check".
    #[inline(always)]
    fn window(&self, best_a: f64, px2: f64) -> f64 {
        best_a + 2.0 * self.margin(px2)
    }

    /// `margin = η·(‖x‖² + max_j ‖c_j‖²)`, the bound on how far a screened
    /// value and its exact squared distance can disagree.
    #[inline(always)]
    fn margin(&self, px2: f64) -> f64 {
        self.slack * (px2 + self.max_cnorm2)
    }

    /// The runner-up floor of a point whose window held `candidates`
    /// candidates and whose second-smallest screened value was `second`
    /// (see [`Self::nearest_block_floored`]).
    #[inline(always)]
    fn floor(&self, candidates: u32, second: f64, px2: f64) -> f64 {
        let floor = (second - 2.0 * self.margin(px2)) * (1.0 - self.slack);
        // Written so NaN fails too.
        if candidates == 1 && floor > 0.0 {
            floor
        } else {
            0.0
        }
    }

    /// Exact distance of window candidate `j`, folded into `hit` with the
    /// scalar scan's strict `<` (candidates arrive in ascending index
    /// order, so ties stay with the lowest index).
    #[inline(always)]
    fn rescue<const D: usize>(&self, x: &[f64], j: usize, hit: &mut Hit, stats: &mut KernelStats) {
        let dim = width::<D>(self.dim);
        let d = sq_dist(&x[..dim], &self.aos[j * dim..(j + 1) * dim]);
        stats.rescued += 1;
        if d < hit.1 {
            *hit = (j, d);
        }
    }

    /// [`Self::rescue`] of every candidate in window mask `m`, whose bit
    /// `b` stands for centroid `jb + b`, in ascending index order. Returns
    /// how many there were.
    #[inline(always)]
    fn rescue_mask<const D: usize>(
        &self,
        x: &[f64],
        mut m: u64,
        jb: usize,
        hit: &mut Hit,
        stats: &mut KernelStats,
    ) -> u32 {
        let mut candidates = 0;
        while m != 0 {
            self.rescue::<D>(x, jb + m.trailing_zeros() as usize, hit, stats);
            candidates += 1;
            m &= m - 1;
        }
        candidates
    }

    /// Closes one point's rescue. The screen winner is always inside its
    /// own window, so a point below [`EXPANSION_LIMIT`] always has a hit;
    /// should that ever not hold, degrade to the exact scan, never to a
    /// bogus index.
    #[inline(always)]
    fn settle(&self, x: &[f64], hit: Hit, stats: &mut KernelStats) -> Hit {
        if hit.0 == usize::MAX {
            return self.exact_scan(x, stats);
        }
        stats.points += 1;
        hit
    }

    /// One point without SIMD intrinsics: autovectorized screen, scalar
    /// window sweep. `approx` is exactly `k_pad` long. The floor comes from
    /// the screen's lane minima, not from `approx`, which the next point of
    /// a block overwrites.
    fn nearest_portable<const FLOOR: bool>(
        &self,
        x: &[f64],
        px2: f64,
        approx: &mut [f64],
        stats: &mut KernelStats,
        floor: &mut f64,
    ) -> Hit {
        let (best, second) = self.screen_portable::<FLOOR>(x, px2, approx);
        let window = self.window(best, px2);
        let mut hit = NO_HIT;
        let mut candidates = 0u32;
        for (j, &a) in approx[..self.k].iter().enumerate() {
            if a <= window {
                candidates += 1;
                self.rescue::<RUN_TIME>(x, j, &mut hit, stats);
            }
        }
        if FLOOR {
            *floor = self.floor(candidates, second, px2);
        }
        self.settle(x, hit, stats)
    }

    /// Autovectorized screen sweep: dot products accumulate plane by
    /// plane (ascending `d`) into `approx` — one broadcast of `x[d]` per
    /// plane, then a contiguous mul-add sweep whose lanes are independent
    /// accumulator chains — after which a second sweep finalizes the
    /// expansion in place and folds the running minimum in lane-wise.
    /// Returns the minimum screened value and, with `FLOOR`, the
    /// second-smallest one (`+inf` without).
    fn screen_portable<const FLOOR: bool>(
        &self,
        x: &[f64],
        px2: f64,
        approx: &mut [f64],
    ) -> (f64, f64) {
        approx.fill(0.0);
        for (d, &xd) in x.iter().enumerate() {
            let plane = &self.planes[d * self.k_pad..(d + 1) * self.k_pad];
            for (a, &p) in approx.iter_mut().zip(plane) {
                *a += xd * p;
            }
        }
        // Eight independent lane minima reduce once at the end: a serial
        // k-deep min chain over the finished buffer costs more than the
        // screen itself.
        let mut mins = [f64::INFINITY; LANES];
        let mut seconds = [f64::INFINITY; LANES];
        for (out, cn) in approx.chunks_exact_mut(LANES).zip(self.cnorm2.chunks_exact(LANES)) {
            let out: &mut [f64; LANES] = out.try_into().expect("approx block");
            let cn: &[f64; LANES] = cn.try_into().expect("cnorm2 block");
            for l in 0..LANES {
                out[l] = px2 - 2.0 * out[l] + cn[l];
            }
            for l in 0..LANES {
                if FLOOR {
                    let high = if out[l] > mins[l] { out[l] } else { mins[l] };
                    seconds[l] = if high < seconds[l] { high } else { seconds[l] };
                }
                // Select form (not f64::min) so NaN keeps the old minimum
                // and the loop lowers to a plain vector compare + blend.
                mins[l] = if out[l] < mins[l] { out[l] } else { mins[l] };
            }
        }
        let best = reduce_min8(&mins);
        if !FLOOR {
            return (best, f64::INFINITY);
        }
        // The lane holding `best` contributes its second minimum.
        let lanes = std::array::from_fn(|l| if mins[l] == best { seconds[l] } else { mins[l] });
        (best, reduce_min8(&lanes))
    }

    /// [`Self::nearest_simd`] on 8-wide `__m512d`. Four points of the
    /// paper's six dimensions against a table of 33 to 40 centroids (the
    /// paper's k = 40) hold their screened rows in five `zmm`; every other
    /// call takes the scratch path.
    ///
    /// # Safety
    ///
    /// Requires the `avx512f` CPU feature, and the conditions of
    /// [`Self::nearest_simd`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn nearest_avx512<const P: usize, const FLOOR: bool, const D: usize>(
        &self,
        xs: [&[f64]; P],
        px2: [f64; P],
        scratch: &mut [f64],
        stats: &mut KernelStats,
        floors: &mut [f64; P],
    ) -> [Hit; P] {
        use std::arch::x86_64::__m512d;
        // Held rows are instantiated only where a workload runs them: each
        // held shape is one more body per instance of this function, and
        // the binary's resident text grows with it. Single points are the
        // `n mod 4` tail of a pass.
        if P == Self::BLOCK && D == PAPER_DIM && self.k_pad == HELD * <__m512d as Lanes>::N {
            self.nearest_simd::<__m512d, P, FLOOR, HELD, D>(xs, px2, scratch, stats, floors)
        } else {
            self.nearest_simd::<__m512d, P, FLOOR, WIDE, D>(xs, px2, scratch, stats, floors)
        }
    }

    /// [`Self::nearest_simd`] on 4-wide `__m256d`, at run-time width and
    /// on the scratch path: at the paper's k = 40 a row is ten `ymm`, so a
    /// block's rows would need forty accumulators against sixteen
    /// registers, and no workload runs this arm.
    ///
    /// # Safety
    ///
    /// Requires the `avx2` and `fma` CPU features, and the conditions of
    /// [`Self::nearest_simd`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn nearest_avx2<const P: usize, const FLOOR: bool>(
        &self,
        xs: [&[f64]; P],
        px2: [f64; P],
        scratch: &mut [f64],
        stats: &mut KernelStats,
        floors: &mut [f64; P],
    ) -> [Hit; P] {
        self.nearest_simd::<std::arch::x86_64::__m256d, P, FLOOR, WIDE, RUN_TIME>(
            xs, px2, scratch, stats, floors,
        )
    }

    /// Sweep, window and rescue of `P` points, generic over the vector
    /// type and inlined whole into its `#[target_feature]` caller, at width
    /// parameter `D` and `VC` vectors per screened row. With `FLOOR` point
    /// `p`'s runner-up floor lands in `floors[p]`.
    ///
    /// At a `VC` other than [`WIDE`] (`VC · V::N == k_pad`) each screened
    /// row is `VC` vector values, not memory: the `P` points are swept
    /// together, the window mask is built from their rows, and `scratch` is
    /// never written. At [`WIDE`] the `P` points are swept together in
    /// panels, their rows are stored to
    /// `scratch[p·k_pad..(p + 1)·k_pad]`, and the window test reloads them.
    /// The arithmetic of every (point, centroid) pair, and the order in
    /// which each point's running minima fold its vectors, are the same
    /// either way.
    ///
    /// # Safety
    ///
    /// The CPU must support `V`'s instruction set; every `xs[p]` must be
    /// `dim` long and `scratch` at least `P · k_pad`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn nearest_simd<
        V: Lanes,
        const P: usize,
        const FLOOR: bool,
        const VC: usize,
        const D: usize,
    >(
        &self,
        xs: [&[f64]; P],
        px2: [f64; P],
        scratch: &mut [f64],
        stats: &mut KernelStats,
        floors: &mut [f64; P],
    ) -> [Hit; P] {
        let k_pad = self.k_pad;
        let out = scratch.as_mut_ptr();

        // --- Screen: ‖x‖² − 2·x·c + ‖c‖² for every (point, centroid) ---
        // On a wide table eight accumulator chains per panel hide the FMA
        // latency: four vectors of centroids for one point, two for a block
        // of four. `min_keep` keeps the running minimum NaN-free.
        // `rows` is empty at WIDE.
        let mut mins = [V::splat(f64::INFINITY); P];
        let mut seconds = [V::splat(f64::INFINITY); P];
        let mut rows = [[V::splat(0.0); VC]; P];
        if VC != WIDE {
            rows = self.panel::<V, P, VC, FLOOR, D>(&xs, &px2, 0, None, &mut mins, &mut seconds);
        } else {
            let (out, m, s) = (Some(out), &mut mins, &mut seconds);
            let wide = if P == 1 { 4 } else { 2 };
            let mut jb = 0usize;
            while jb + wide * V::N <= k_pad {
                if P == 1 {
                    self.panel::<V, P, 4, FLOOR, D>(&xs, &px2, jb, out, m, s);
                } else {
                    self.panel::<V, P, 2, FLOOR, D>(&xs, &px2, jb, out, m, s);
                }
                jb += wide * V::N;
            }
            while jb < k_pad {
                self.panel::<V, P, 1, FLOOR, D>(&xs, &px2, jb, out, m, s);
                jb += V::N;
            }
        }

        // --- Rescue: exact distances within the error window -----------
        // The tallies are counted in a local copy, which stays in registers.
        let mut tally = *stats;
        let mut hits = [NO_HIT; P];
        for p in 0..P {
            let x = xs[p];
            let best = mins[p].reduce_min();
            let w = V::splat(self.window(best, px2[p]));
            let mut hit = NO_HIT;
            let approx = out.add(p * k_pad) as *const f64;
            let candidates = if VC != WIDE || k_pad <= 64 {
                // One mask for the whole table, walked once.
                let mut m = 0u64;
                if VC != WIDE {
                    for (v, t) in rows[p].iter().enumerate() {
                        m |= t.le_mask(w) << (v * V::N);
                    }
                } else {
                    for jb in (0..k_pad).step_by(V::N) {
                        m |= V::load(approx.add(jb)).le_mask(w) << jb;
                    }
                }
                self.rescue_mask::<D>(x, m, 0, &mut hit, &mut tally)
            } else {
                let mut candidates = 0;
                for jb in (0..k_pad).step_by(V::N) {
                    let m = V::load(approx.add(jb)).le_mask(w);
                    candidates += self.rescue_mask::<D>(x, m, jb, &mut hit, &mut tally);
                }
                candidates
            };
            if FLOOR {
                // The lane holding `best` contributes its second minimum. (A
                // second lane at `best` is a second candidate: floor 0.)
                let second = mins[p].replace_eq(best, seconds[p]).reduce_min();
                floors[p] = self.floor(candidates, second, px2[p]);
            }
            hits[p] = self.settle(x, hit, &mut tally);
        }
        *stats = tally;
        hits
    }

    /// One panel of the screen: `W` vectors of centroids starting at `jb`
    /// against all `P` points. Each plane vector is loaded once and
    /// multiplied into one accumulator per point, FMA in ascending `d`;
    /// then `(‖x‖² − 2·dot) + ‖c‖²` is folded into the point's running
    /// minimum (with `FLOOR`, into its running second minimum too),
    /// stored to the point's row of `out` when there is one, and returned.
    ///
    /// # Safety
    ///
    /// As [`Self::nearest_simd`], with `jb + W · V::N ≤ k_pad` and `out`,
    /// if given, pointing at `P · k_pad` writable values.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // p, w and d each index several arrays
    unsafe fn panel<V: Lanes, const P: usize, const W: usize, const FLOOR: bool, const D: usize>(
        &self,
        xs: &[&[f64]; P],
        px2: &[f64; P],
        jb: usize,
        out: Option<*mut f64>,
        mins: &mut [V; P],
        seconds: &mut [V; P],
    ) -> [[V; W]; P] {
        let k_pad = self.k_pad;
        let mut acc = [[V::splat(0.0); W]; P];
        for d in 0..width::<D>(self.dim) {
            let base = self.planes.as_ptr().add(d * k_pad + jb);
            let mut plane = [V::splat(0.0); W];
            for (w, v) in plane.iter_mut().enumerate() {
                *v = V::load(base.add(w * V::N));
            }
            for p in 0..P {
                let xd = V::splat(xs[p][d]);
                for w in 0..W {
                    acc[p][w] = xd.mul_add(plane[w], acc[p][w]);
                }
            }
        }
        let two = V::splat(2.0);
        for w in 0..W {
            let cn = V::load(self.cnorm2.as_ptr().add(jb + w * V::N));
            for p in 0..P {
                let t = two.neg_mul_add(acc[p][w], V::splat(px2[p])).add(cn);
                if let Some(out) = out {
                    t.store(out.add(p * k_pad + jb + w * V::N));
                }
                if FLOOR {
                    seconds[p] = t.max_keep(mins[p]).min_keep(seconds[p]);
                }
                mins[p] = t.min_keep(mins[p]);
                acc[p][w] = t;
            }
        }
        acc
    }
}

/// The vector-count parameter of [`FusedLayout::nearest_simd`] for a table
/// whose screened rows go through the screen scratch.
#[cfg(target_arch = "x86_64")]
const WIDE: usize = 0;

/// The vector count of a screened row held in registers: five `zmm`, a
/// table of 33 to 40 centroids.
#[cfg(target_arch = "x86_64")]
const HELD: usize = 5;

/// The vector operations [`FusedLayout::nearest_simd`] is written in, so
/// the AVX2 and AVX-512 paths are one routine. Every method is
/// `#[inline(always)]` and must only be reached from a function compiled
/// with the implementing type's target features.
#[cfg(target_arch = "x86_64")]
trait Lanes: Copy {
    /// f64 lanes per vector; divides [`LANES`].
    const N: usize;
    unsafe fn splat(v: f64) -> Self;
    /// Unaligned load of `N` values.
    unsafe fn load(p: *const f64) -> Self;
    /// Unaligned store of `N` values.
    unsafe fn store(self, p: *mut f64);
    /// `self · b + c`, fused.
    unsafe fn mul_add(self, b: Self, c: Self) -> Self;
    /// `c − self · b`, fused.
    unsafe fn neg_mul_add(self, b: Self, c: Self) -> Self;
    unsafe fn add(self, b: Self) -> Self;
    /// Lane-wise minimum that returns `acc`'s lane when either is NaN
    /// (`vminpd` returns its second operand then).
    unsafe fn min_keep(self, acc: Self) -> Self;
    /// Lane-wise maximum that returns `acc`'s lane when either is NaN
    /// (`vmaxpd` returns its second operand then).
    unsafe fn max_keep(self, acc: Self) -> Self;
    /// `self` with every lane equal to `v` replaced by `other`'s lane.
    unsafe fn replace_eq(self, v: f64, other: Self) -> Self;
    /// Bit `l` set where lane `l` of `self` is `≤` lane `l` of `w`; NaN
    /// compares false (`LE_OQ`), so poisoned lanes never qualify.
    unsafe fn le_mask(self, w: Self) -> u64;

    /// Minimum over the lanes, in registers. Only ever applied to the
    /// NaN-free running minima, where any order of `vminpd` gives the
    /// same value.
    unsafe fn reduce_min(self) -> f64;
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Lanes;
    use std::arch::x86_64::*;

    impl Lanes for __m512d {
        const N: usize = 8;
        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            _mm512_set1_pd(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            _mm512_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm512_storeu_pd(p, self)
        }
        #[inline(always)]
        unsafe fn mul_add(self, b: Self, c: Self) -> Self {
            _mm512_fmadd_pd(self, b, c)
        }
        #[inline(always)]
        unsafe fn neg_mul_add(self, b: Self, c: Self) -> Self {
            _mm512_fnmadd_pd(self, b, c)
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm512_add_pd(self, b)
        }
        #[inline(always)]
        unsafe fn min_keep(self, acc: Self) -> Self {
            _mm512_min_pd(self, acc)
        }
        #[inline(always)]
        unsafe fn max_keep(self, acc: Self) -> Self {
            _mm512_max_pd(self, acc)
        }
        #[inline(always)]
        unsafe fn replace_eq(self, v: f64, other: Self) -> Self {
            let eq = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(self, _mm512_set1_pd(v));
            _mm512_mask_blend_pd(eq, self, other)
        }
        #[inline(always)]
        unsafe fn le_mask(self, w: Self) -> u64 {
            u64::from(_mm512_cmp_pd_mask::<_CMP_LE_OQ>(self, w))
        }
        #[inline(always)]
        unsafe fn reduce_min(self) -> f64 {
            _mm512_reduce_min_pd(self)
        }
    }

    impl Lanes for __m256d {
        const N: usize = 4;
        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            _mm256_set1_pd(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            _mm256_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self)
        }
        #[inline(always)]
        unsafe fn mul_add(self, b: Self, c: Self) -> Self {
            _mm256_fmadd_pd(self, b, c)
        }
        #[inline(always)]
        unsafe fn neg_mul_add(self, b: Self, c: Self) -> Self {
            _mm256_fnmadd_pd(self, b, c)
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm256_add_pd(self, b)
        }
        #[inline(always)]
        unsafe fn min_keep(self, acc: Self) -> Self {
            _mm256_min_pd(self, acc)
        }
        #[inline(always)]
        unsafe fn max_keep(self, acc: Self) -> Self {
            _mm256_max_pd(self, acc)
        }
        #[inline(always)]
        unsafe fn replace_eq(self, v: f64, other: Self) -> Self {
            _mm256_blendv_pd(self, other, _mm256_cmp_pd::<_CMP_EQ_OQ>(self, _mm256_set1_pd(v)))
        }
        #[inline(always)]
        unsafe fn le_mask(self, w: Self) -> u64 {
            // Four sign bits, zero-extended.
            _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(self, w)) as u64
        }
        #[inline(always)]
        unsafe fn reduce_min(self) -> f64 {
            let m = _mm_min_pd(_mm256_castpd256_pd128(self), _mm256_extractf128_pd::<1>(self));
            _mm_cvtsd_f64(_mm_min_sd(m, _mm_unpackhi_pd(m, m)))
        }
    }
}

/// Tree-reduce eight lane minima with the NaN-keeps-old select form.
#[inline]
fn reduce_min8(mins: &[f64; LANES]) -> f64 {
    let m01 = if mins[1] < mins[0] { mins[1] } else { mins[0] };
    let m23 = if mins[3] < mins[2] { mins[3] } else { mins[2] };
    let m45 = if mins[5] < mins[4] { mins[5] } else { mins[4] };
    let m67 = if mins[7] < mins[6] { mins[7] } else { mins[6] };
    let m0123 = if m23 < m01 { m23 } else { m01 };
    let m4567 = if m67 < m45 { m67 } else { m45 };
    if m4567 < m0123 {
        m4567
    } else {
        m0123
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::nearest_centroid;
    use crate::seeding::rng_for;
    use rand::Rng;

    #[test]
    fn matches_scalar_bit_for_bit_on_random_inputs() {
        let mut rng = rng_for(21, 0);
        for _ in 0..400 {
            let dim = rng.gen_range(1usize..12);
            let k = rng.gen_range(1usize..40);
            let cents: Vec<f64> = (0..k * dim).map(|_| rng.gen_range(-100.0..100.0)).collect();
            let layout = FusedLayout::new(&cents, dim);
            let mut scratch = vec![0.0; layout.scratch_len()];
            let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-100.0..100.0)).collect();
            let naive = nearest_centroid(&x, &cents, dim);
            let fused = layout.nearest(&x, &mut scratch);
            assert_eq!(fused.0, naive.0, "index (dim={dim}, k={k})");
            assert_eq!(fused.1.to_bits(), naive.1.to_bits(), "distance bits");
        }
    }

    #[test]
    fn duplicate_centroids_tie_break_to_lowest_index() {
        // Centroids 0 and 1 are identical; 2 is the true nearest's double.
        let cents = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0];
        let layout = FusedLayout::new(&cents, 2);
        let mut scratch = vec![0.0; layout.scratch_len()];
        let (j, d) = layout.nearest(&[1.0, 1.0], &mut scratch);
        assert_eq!((j, d), (0, 0.0));
        let naive = nearest_centroid(&[1.0, 1.0], &cents, 2);
        assert_eq!((j, d), naive);
    }

    #[test]
    fn exact_tie_between_mirrored_centroids() {
        // (0,0) is exactly equidistant from (−1,0) and (1,0); both layers
        // must settle on index 0.
        let cents = [-1.0, 0.0, 1.0, 0.0];
        let layout = FusedLayout::new(&cents, 2);
        let mut scratch = vec![0.0; layout.scratch_len()];
        assert_eq!(layout.nearest(&[0.0, 0.0], &mut scratch), (0, 1.0));
    }

    #[test]
    fn single_centroid_and_k_not_multiple_of_lanes() {
        for k in [1usize, 7, 8, 9, 17] {
            let cents: Vec<f64> = (0..k * 3).map(|i| i as f64 * 0.25).collect();
            let layout = FusedLayout::new(&cents, 3);
            assert_eq!(layout.k(), k);
            let mut scratch = vec![0.0; layout.scratch_len()];
            let x = [50.0, -3.0, 0.125];
            assert_eq!(layout.nearest(&x, &mut scratch), nearest_centroid(&x, &cents, 3));
        }
    }

    #[test]
    fn stats_tally_points_and_rescues() {
        let cents = [0.0, 0.0, 10.0, 10.0];
        let layout = FusedLayout::new(&cents, 2);
        let mut scratch = vec![0.0; layout.scratch_len()];
        let mut stats = KernelStats::default();
        for i in 0..10 {
            layout.nearest_counted(&[i as f64, 0.5], &mut scratch, &mut stats);
        }
        assert_eq!(stats.points, 10);
        // Every point rescues at least its screened winner.
        assert!(stats.rescued >= 10);
        assert!(stats.rescues_per_point() >= 1.0);
    }

    /// Every arm this CPU can run, widest last: an AVX-512 box can and
    /// must run the AVX2 arm too.
    fn supported_isas() -> Vec<ScreenIsa> {
        let mut isas = vec![ScreenIsa::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                isas.push(ScreenIsa::Avx2Fma);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                isas.push(ScreenIsa::Avx512);
            }
        }
        isas
    }

    /// Smallest scalar distance from `x` to any centroid but `winner`
    /// (`+inf` for a one-centroid table).
    fn runner_up_distance(x: &[f64], cents: &[f64], dim: usize, winner: usize) -> f64 {
        cents
            .chunks_exact(dim)
            .enumerate()
            .filter(|&(j, _)| j != winner)
            .map(|(_, c)| crate::point::sq_dist(x, c))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn simd_and_portable_dispatch_agree() {
        // Every arm forced through the `isa` field, all four entry points
        // (one point and a block of four, plain and floored), against the
        // scalar scan, at every k up to 72 and every width up to 12: every
        // vector count of a one-mask window on both SIMD arms, the held
        // rows of k = 33..=40, the 4- and 8-lane boundaries, and from
        // k = 65 the wide tables that scan their window vector by vector,
        // with every remainder of their panel loops (k = 80 leaves two
        // single vectors on AVX-512, k = 128 and 256 none). The floored
        // entries must return the plain entries' hits and tallies, and
        // floors no larger than the scalar distance to any other centroid;
        // every arm must tally the same work.
        let mut rng = rng_for(22, 0);
        for k in (1usize..=72).chain([80, 100, 128, 149, 256]) {
            for dim in 1usize..=12 {
                check_every_arm(&mut rng, k, dim);
            }
        }
    }

    /// One random table of `k` centroids at width `dim` and a block of four
    /// queries through every arm (see `simd_and_portable_dispatch_agree`).
    fn check_every_arm(rng: &mut rand::rngs::StdRng, k: usize, dim: usize) {
        let cents: Vec<f64> = (0..k * dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
        let mut xs: Vec<f64> =
            (0..FusedLayout::BLOCK * dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
        // One query sits on a centroid: an exact zero and, with luck, a tie.
        xs[..dim].copy_from_slice(&cents[(k / 2) * dim..(k / 2 + 1) * dim]);
        let xs: [&[f64]; FusedLayout::BLOCK] = std::array::from_fn(|p| &xs[p * dim..(p + 1) * dim]);
        let want = xs.map(|x| nearest_centroid(x, &cents, dim));
        let bits = |hits: [Hit; FusedLayout::BLOCK]| hits.map(|(j, d)| (j, d.to_bits()));

        let mut layout = FusedLayout::new(&cents, dim);
        let mut scratch = vec![0.0; FusedLayout::BLOCK * layout.scratch_len()];
        let mut tallies = Vec::new();
        for isa in supported_isas() {
            layout.isa = isa;
            let label = layout.isa_label();
            let mut single = KernelStats::default();
            let one = xs.map(|x| layout.nearest_counted(x, &mut scratch, &mut single));
            assert_eq!(bits(one), bits(want), "single ({label}, dim={dim}, k={k})");
            let mut block = KernelStats::default();
            let four = layout.nearest_block(xs, &mut scratch, &mut block);
            assert_eq!(bits(four), bits(want), "block ({label}, dim={dim}, k={k})");
            assert_eq!(block, single, "block tallies ({label}, dim={dim}, k={k})");
            assert_eq!(single.points, FusedLayout::BLOCK as u64);

            let mut floored = KernelStats::default();
            let (hits, floors) = layout.nearest_block_floored(xs, &mut scratch, &mut floored);
            assert_eq!(bits(hits), bits(want), "floored block ({label}, dim={dim}, k={k})");
            assert_eq!(floored, block, "floored block tallies ({label}, dim={dim}, k={k})");
            let mut floored_single = KernelStats::default();
            for ((x, (j, _)), floor) in xs.into_iter().zip(want).zip(floors) {
                let (hit, one) = layout.nearest_floored(x, &mut scratch, &mut floored_single);
                assert_eq!(hit.0, j, "floored single ({label}, dim={dim}, k={k})");
                assert_eq!(one.to_bits(), floor.to_bits(), "block and single floors ({label})");
                let bound = runner_up_distance(x, &cents, dim, j);
                assert!(floor >= 0.0 && floor <= bound, "floor {floor} > {bound} ({label})");
            }
            assert_eq!(floored_single, single, "floored single tallies ({label})");
            tallies.push((label, single));
        }
        // The SIMD arms screen with the same arithmetic, so their windows
        // match; the portable arm's mul-add screen differs in the last
        // bits, which on these inputs never moves a candidate across the
        // window's edge.
        for (label, t) in &tallies {
            assert_eq!(*t, tallies[0].1, "{label} vs {} tallies (dim={dim}, k={k})", tallies[0].0);
        }
    }

    #[test]
    fn floors_are_zero_on_the_exact_scan() {
        // A point whose norm passes the expansion limit sends its block down
        // the exact scan: every floor of that block is 0. Alone, a small
        // point gets a positive floor on every arm.
        let cents = [0.0, 0.0, 10.0, 0.0, 0.0, 10.0];
        let (huge, near, other) = ([1e154, 0.0], [1.0, 0.5], [9.0, 2.0]);
        let mut layout = FusedLayout::new(&cents, 2);
        let mut scratch = vec![0.0; FusedLayout::BLOCK * layout.scratch_len()];
        for isa in supported_isas() {
            layout.isa = isa;
            let label = layout.isa_label();
            let mut stats = KernelStats::default();
            let xs: [&[f64]; 4] = [&near, &huge, &other, &near];
            let (hits, floors) = layout.nearest_block_floored(xs, &mut scratch, &mut stats);
            assert_eq!(hits, xs.map(|x| nearest_centroid(x, &cents, 2)), "{label}");
            assert_eq!(floors, [0.0; 4], "exact-scan floors ({label})");
            assert_eq!(stats, KernelStats { points: 4, rescued: 12 }, "four exact scans of k = 3");
            let (hit, floor) = layout.nearest_floored(&near, &mut scratch, &mut stats);
            assert_eq!(hit, nearest_centroid(&near, &cents, 2));
            assert!(floor > 0.0 && floor <= runner_up_distance(&near, &cents, 2, hit.0), "{label}");
            assert_eq!(layout.nearest_floored(&huge, &mut scratch, &mut stats).1, 0.0, "{label}");
        }
    }

    #[test]
    fn huge_magnitude_gaps_stay_exact() {
        // Mixed scales stress the margin: ‖c‖² spans 24 orders of magnitude.
        let cents = [1e-6, 0.0, 1e6, 0.0, -1e6, 0.0];
        let layout = FusedLayout::new(&cents, 2);
        let mut scratch = vec![0.0; layout.scratch_len()];
        for x in [[0.0, 0.0], [5e5, 1.0], [-5e5 - 1.0, 0.0], [1e-6, 0.0]] {
            assert_eq!(layout.nearest(&x, &mut scratch), nearest_centroid(&x, &cents, 2));
        }
    }
}
