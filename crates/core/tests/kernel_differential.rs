//! Differential tests: the fused SoA kernel vs the naive scalar search.
//!
//! The fused kernel ([`FusedLayout`]) screens with the expanded form
//! ‖x−c‖² = ‖x‖² − 2·x·c + ‖c‖² and then *rescues* every candidate inside
//! the floating-point error window with the exact scalar distance, so it
//! promises **bit-identical** results to [`nearest_centroid`] — same index
//! (same lowest-index tie-break) and same distance bits — not merely
//! approximately equal ones. These tests hold it to that promise across
//! dim ∈ [1, 32] and k ∈ [1, 64], including duplicate centroids, exact
//! ties, and degenerate all-equal inputs, hold the four-point block entry
//! point to the same promise (and to the tallies of four single-point
//! calls) up to k = 300, run all four entry points (one point and a
//! block, plain and floored) at every vector count the kernel dispatches
//! on (k ∈ [1, 72], dim ∈ [1, 12]), and then check that threading the
//! kernel through full Lloyd runs — blocks of four and every length of
//! tail — leaves assignments identical and the MSE within 1e-9 relative
//! of the scalar path.
//!
//! A Lloyd run with at least `BOUND_GATE` points per centroid keeps
//! per-point bounds and screens only the points they leave undecided; the
//! bounded-path oracle drives such runs on clustered data full of exact
//! duplicates, mirrored ties and empty clusters, on both sides of the gate,
//! and holds every word of the run to the scalar path's.
//!
//! The coreset builder is the kernel's second caller: `chunk_coreset` finds
//! every point's nearest of up to `size` sampled representatives through
//! one [`FusedLayout`]. The scalar double loop it replaced is kept as
//! [`common::chunk_coreset_scalar`], and the last section holds the two to
//! equal output bits — over k far beyond a centroid table's (320
//! representatives, `k_pad` > 64) and over piles of more than 64
//! coincident representatives, all inside one rescue window.

mod common;

use common::{assert_coreset_matches_oracle, chunk_coreset_scalar, set_bits};
use pmkm_core::kernel::FusedLayout;
use pmkm_core::lloyd::{LloydRun, BOUND_GATE};
use pmkm_core::point::nearest_centroid;
use pmkm_core::prelude::*;
use pmkm_core::seeding::{rng_for, seed_centroids};
use pmkm_core::{chunk_coreset, lloyd, KernelStats};
use pmkm_obs::{FieldValue, Recorder, RingBufferSink};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::Rng;
use std::sync::Arc;

/// Flat centroid buffer with optional duplicates: with `dup_from` supplied,
/// roughly half the centroids are copies of earlier ones, so ties between
/// identical centroids are common rather than accidental.
fn arb_centroids(max_dim: usize, max_k: usize) -> impl Strategy<Value = (usize, usize, Vec<f64>)> {
    (1..=max_dim, 1..=max_k).prop_flat_map(|(dim, k)| {
        (
            proptest::collection::vec(-100.0..100.0f64, dim * k),
            proptest::collection::vec(any::<u16>(), k),
        )
            .prop_map(move |(mut flat, dups)| {
                for (j, &d) in dups.iter().enumerate().skip(1) {
                    if d % 2 == 0 {
                        let src = (d as usize) % j;
                        let (a, b) = flat.split_at_mut(j * dim);
                        b[..dim].copy_from_slice(&a[src * dim..src * dim + dim]);
                    }
                }
                (dim, k, flat)
            })
    })
}

fn assert_bit_identical(
    dim: usize,
    cents: &[f64],
    points: &[Vec<f64>],
) -> std::result::Result<(), TestCaseError> {
    let layout = FusedLayout::new(cents, dim);
    let mut scratch = vec![0.0; layout.scratch_len()];
    let mut stats = KernelStats::default();
    for x in points {
        let (fj, fd) = layout.nearest_counted(x, &mut scratch, &mut stats);
        let (sj, sd) = nearest_centroid(x, cents, dim);
        prop_assert_eq!(fj, sj, "index diverged for x = {:?}", x);
        prop_assert_eq!(fd.to_bits(), sd.to_bits(), "distance bits diverged: {} vs {}", fd, sd);
    }
    prop_assert_eq!(stats.points, points.len() as u64);
    prop_assert!(stats.rescued >= stats.points, "each point rescues at least its winner");
    Ok(())
}

/// Four points through the block entry point: index and distance bits of
/// four scalar searches, and the tallies of four single-point calls.
fn assert_block_bit_identical(
    dim: usize,
    cents: &[f64],
    points: [&[f64]; FusedLayout::BLOCK],
) -> std::result::Result<(), TestCaseError> {
    let layout = FusedLayout::new(cents, dim);
    let mut scratch = vec![0.0; FusedLayout::BLOCK * layout.scratch_len()];
    let mut block_stats = KernelStats::default();
    let block = layout.nearest_block(points, &mut scratch, &mut block_stats);
    let mut single_stats = KernelStats::default();
    for (x, (bj, bd)) in points.into_iter().zip(block) {
        let (sj, sd) = nearest_centroid(x, cents, dim);
        prop_assert_eq!(bj, sj, "block index diverged for x = {:?}", x);
        prop_assert_eq!(bd.to_bits(), sd.to_bits(), "block distance bits: {} vs {}", bd, sd);
        layout.nearest_counted(x, &mut scratch, &mut single_stats);
    }
    prop_assert_eq!(block_stats, single_stats, "one block call tallies as four single calls");
    prop_assert_eq!(block_stats.points, FusedLayout::BLOCK as u64);
    Ok(())
}

/// The floored entry points on four points: the hits and tallies of the
/// plain ones, equal floors from a block and from single calls, and every
/// floor at most the scalar distance to any centroid but the winner.
fn assert_floored_bit_identical(
    dim: usize,
    cents: &[f64],
    points: [&[f64]; FusedLayout::BLOCK],
) -> std::result::Result<(), TestCaseError> {
    let layout = FusedLayout::new(cents, dim);
    let mut scratch = vec![0.0; FusedLayout::BLOCK * layout.scratch_len()];
    let mut plain = KernelStats::default();
    let want = layout.nearest_block(points, &mut scratch, &mut plain);
    let mut block = KernelStats::default();
    let (hits, floors) = layout.nearest_block_floored(points, &mut scratch, &mut block);
    prop_assert_eq!(block, plain, "floored block tallies as the plain block");
    let mut single = KernelStats::default();
    for (((x, hit), (wj, wd)), floor) in points.into_iter().zip(hits).zip(want).zip(floors) {
        prop_assert_eq!((hit.0, hit.1.to_bits()), (wj, wd.to_bits()), "floored block hit");
        let (one, one_floor) = layout.nearest_floored(x, &mut scratch, &mut single);
        prop_assert_eq!((one.0, one.1.to_bits()), (wj, wd.to_bits()), "floored single hit");
        prop_assert_eq!(one_floor.to_bits(), floor.to_bits(), "block and single floors");
        let runner_up = cents
            .chunks_exact(dim)
            .enumerate()
            .filter(|&(j, _)| j != wj)
            .map(|(_, c)| pmkm_core::point::sq_dist(x, c))
            .fold(f64::INFINITY, f64::min);
        prop_assert!(
            floor >= 0.0 && floor <= runner_up,
            "floor {} > runner-up {}",
            floor,
            runner_up
        );
    }
    prop_assert_eq!(single, plain, "four floored single calls tally as the plain block");
    Ok(())
}

/// The largest `m ≤ n` with `m mod 4 == tail` (0 when there is none).
fn with_tail(n: usize, tail: usize) -> usize {
    n.saturating_sub((n + FusedLayout::BLOCK - tail) % FusedLayout::BLOCK)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // The headline differential: random centroid tables (with forced
    // duplicates) and random query points across the full supported shape
    // range. Index AND distance must match the scalar search bit for bit.
    #[test]
    fn kernel_matches_scalar_search(
        (dim, k, cents) in arb_centroids(32, 64),
        raw in proptest::collection::vec(-100.0..100.0f64, 32 * 16),
        n in 1usize..16,
    ) {
        let _ = k;
        let points: Vec<Vec<f64>> =
            (0..n).map(|i| raw[i * dim..(i + 1) * dim].to_vec()).collect();
        assert_bit_identical(dim, &cents, &points)?;
    }

    // Exact-tie stress: every query point IS one of the centroids (distance
    // 0 to it and to all its duplicates), so the lowest-index tie-break is
    // exercised on every lookup.
    #[test]
    fn kernel_matches_on_centroid_queries(
        (dim, k, cents) in arb_centroids(16, 48),
        pick in proptest::collection::vec(any::<usize>(), 8),
    ) {
        let points: Vec<Vec<f64>> = pick
            .iter()
            .map(|&p| {
                let j = p % k;
                cents[j * dim..(j + 1) * dim].to_vec()
            })
            .collect();
        assert_bit_identical(dim, &cents, &points)?;
    }

    // Degenerate inputs: all centroids identical (k-way tie on every query)
    // and zero vectors (‖x‖² = ‖c‖² = 0 cancels the screen to exact zero).
    #[test]
    fn kernel_matches_on_degenerate_tables(
        dim in 1usize..33,
        k in 1usize..65,
        v in -10.0..10.0f64,
    ) {
        let cents = vec![v; dim * k];
        let points = vec![vec![v; dim], vec![0.0; dim], vec![-v; dim]];
        assert_bit_identical(dim, &cents, &points)?;
    }

    // The block entry point against the same oracle, over tables wide
    // enough to cross k_pad 64 -> 72 (one-mask window to per-vector window)
    // and several mask words. `lattice` snaps every coordinate to nine
    // values per axis, so low dimensions are full of coincident centroids
    // and exact ties; `mirror` makes every odd centroid the negation of its
    // predecessor, so the origin (query 0) ties exactly within each pair;
    // query 1 sits on a centroid.
    #[test]
    fn block_matches_scalar_search(
        (dim, k, mut cents) in arb_centroids(32, 300),
        raw in proptest::collection::vec(-100.0..100.0f64, 32 * 4),
        (lattice, mirror) in (any::<bool>(), any::<bool>()),
        pick in any::<usize>(),
    ) {
        let mut queries = raw[..dim * FusedLayout::BLOCK].to_vec();
        if lattice {
            for v in cents.iter_mut().chain(queries.iter_mut()) {
                *v = (*v / 25.0).round();
            }
        }
        if mirror {
            for j in (1..k).step_by(2) {
                let (a, b) = cents.split_at_mut(j * dim);
                for (dst, src) in b[..dim].iter_mut().zip(&a[(j - 1) * dim..]) {
                    *dst = -src;
                }
            }
            queries[..dim].fill(0.0);
        }
        let on = pick % k;
        queries[dim..2 * dim].copy_from_slice(&cents[on * dim..(on + 1) * dim]);
        let points: [&[f64]; FusedLayout::BLOCK] =
            std::array::from_fn(|p| &queries[p * dim..(p + 1) * dim]);
        assert_block_bit_identical(dim, &cents, points)?;
    }

    // Every vector count the kernel dispatches on: k up to 72 crosses every
    // 4- and 8-lane boundary and, from k = 65, the wide tables; widths up
    // to 12 run both the paper's compile-time width and the run-time one.
    // One point and a block of four, plain and floored, on the host's
    // instruction set (the in-module `simd_and_portable_dispatch_agree`
    // forces every arm the host supports). Half the draws snap to a
    // lattice, so coincident centroids and exact ties are common.
    #[test]
    fn every_vector_count_matches_scalar_search(
        (dim, k, mut cents) in arb_centroids(12, 72),
        mut queries in proptest::collection::vec(-100.0..100.0f64, 12 * 4),
        lattice in any::<bool>(),
        pick in any::<usize>(),
    ) {
        queries.truncate(dim * FusedLayout::BLOCK);
        if lattice {
            for v in cents.iter_mut().chain(queries.iter_mut()) {
                *v = (*v / 25.0).round();
            }
        }
        let on = pick % k;
        queries[..dim].copy_from_slice(&cents[on * dim..(on + 1) * dim]);
        let points: [&[f64]; FusedLayout::BLOCK] =
            std::array::from_fn(|p| &queries[p * dim..(p + 1) * dim]);
        assert_block_bit_identical(dim, &cents, points)?;
        assert_floored_bit_identical(dim, &cents, points)?;
    }

    // Threaded through full Lloyd runs: the fused path must reproduce the
    // scalar path's assignments exactly and its MSE to ≤ 1e-9 relative —
    // the acceptance bar — on both unweighted and weighted sources. `tail`
    // fixes n mod 4, so whole blocks alone and every length of tail behind
    // them are all drawn.
    #[test]
    fn fused_lloyd_matches_scalar_lloyd(
        flat in proptest::collection::vec(-1000.0..1000.0f64, 6..360),
        dim in 1usize..7,
        k in 1usize..9,
        tail in 0usize..4,
        seed in any::<u64>(),
    ) {
        let n = with_tail(flat.len() / dim, tail);
        prop_assume!(n >= 1);
        let ds = Dataset::from_flat(dim, flat[..n * dim].to_vec()).unwrap();
        prop_assume!(k <= ds.len());
        let mut rng = rng_for(seed, 7);
        let init = seed_centroids(&ds, k, SeedMode::RandomPoints, &mut rng).unwrap();

        let scalar_cfg = LloydConfig { kernel: KernelKind::Scalar, ..LloydConfig::default() };
        let fused_cfg = LloydConfig { kernel: KernelKind::Fused, ..LloydConfig::default() };
        let s = lloyd::lloyd(&ds, &init, &scalar_cfg).unwrap();
        let f = lloyd::lloyd(&ds, &init, &fused_cfg).unwrap();

        prop_assert_eq!(&f.assignments, &s.assignments, "assignments diverged");
        prop_assert_eq!(f.iterations, s.iterations);
        let rel = (f.mse - s.mse).abs() / s.mse.abs().max(1.0);
        prop_assert!(rel <= 1e-9, "relative MSE gap {} > 1e-9 ({} vs {})", rel, f.mse, s.mse);
        prop_assert_eq!(f.mse.to_bits(), s.mse.to_bits(), "expected bit-identical MSE");
    }

    // Same bar for weighted sources (the merge step's input) — including
    // k > distinct points, which forces empty clusters and reseeding.
    #[test]
    fn fused_weighted_lloyd_matches_scalar(
        flat in proptest::collection::vec(-50.0..50.0f64, 4..120),
        weights_raw in proptest::collection::vec(0.5..20.0f64, 60),
        dim in 1usize..5,
        k in 1usize..13,
        tail in 0usize..4,
        seed in any::<u64>(),
    ) {
        let n = with_tail(flat.len() / dim, tail);
        prop_assume!(n >= 1 && k <= n);
        let mut ws = WeightedSet::new(dim).unwrap();
        for i in 0..n {
            ws.push(&flat[i * dim..(i + 1) * dim], weights_raw[i % weights_raw.len()]).unwrap();
        }
        let mut rng = rng_for(seed, 11);
        let init = seed_centroids(&ws, k, SeedMode::RandomPoints, &mut rng).unwrap();

        let scalar_cfg = LloydConfig { kernel: KernelKind::Scalar, ..LloydConfig::default() };
        let fused_cfg = LloydConfig { kernel: KernelKind::Fused, ..LloydConfig::default() };
        let s = lloyd::lloyd(&ws, &init, &scalar_cfg).unwrap();
        let f = lloyd::lloyd(&ws, &init, &fused_cfg).unwrap();

        prop_assert_eq!(&f.assignments, &s.assignments);
        prop_assert_eq!(f.reseeds, s.reseeds);
        prop_assert_eq!(f.mse.to_bits(), s.mse.to_bits());
    }

    // Every selectable strategy lands on the same geometry: the
    // Auto-resolved fused kernel is bit-identical to scalar.
    #[test]
    fn all_strategies_agree_on_final_mse(
        flat in proptest::collection::vec(-500.0..500.0f64, 8..240),
        dim in 1usize..5,
        k in 1usize..7,
        seed in any::<u64>(),
    ) {
        let n = flat.len() / dim;
        prop_assume!(n >= 1);
        let ds = Dataset::from_flat(dim, flat[..n * dim].to_vec()).unwrap();
        prop_assume!(k <= ds.len());
        let mut rng = rng_for(seed, 13);
        let init = seed_centroids(&ds, k, SeedMode::RandomPoints, &mut rng).unwrap();

        let run = |kernel| {
            let cfg = LloydConfig { kernel, ..LloydConfig::default() };
            lloyd::lloyd(&ds, &init, &cfg).unwrap()
        };
        let scalar = run(KernelKind::Scalar);
        let auto = run(KernelKind::Auto);

        prop_assert_eq!(&auto.assignments, &scalar.assignments);
        prop_assert_eq!(auto.mse.to_bits(), scalar.mse.to_bits(), "Auto must resolve to Fused");
    }

    // The coreset builder against its scalar oracle: same draws (same RNG
    // state), so every representative coordinate and every aggregated weight
    // must carry the same bits. Shapes cross every `LANES` multiple up to
    // k_pad = 320; `lattice` snaps coordinates to nine values per axis, so in
    // low dimensions most points coincide with a representative or sit
    // exactly between two (duplicate representatives, exact ties).
    #[test]
    fn chunk_coreset_matches_scalar_oracle(
        (dim, n, size) in (1usize..=12, 1usize..=700, 1usize..=320),
        raw in proptest::collection::vec(-100.0..100.0f64, 700 * 12),
        weights_raw in proptest::collection::vec(0.25..9.0f64, 61),
        (lattice, weighting) in (any::<bool>(), 0u8..3),
        seed in any::<u64>(),
    ) {
        let coord = |v: f64| if lattice { (v / 25.0).round() } else { v };
        let mut ds = Dataset::new(dim).unwrap();
        let mut ws = WeightedSet::new(dim).unwrap();
        for (i, row) in raw.chunks_exact(dim).take(n).enumerate() {
            let row: Vec<f64> = row.iter().map(|&v| coord(v)).collect();
            let w = weights_raw[i % weights_raw.len()];
            ds.push(&row).unwrap();
            ws.push(&row, if weighting == 1 { w.ceil() } else { w }).unwrap();
        }
        let src: &dyn PointSource = if weighting == 0 { &ds } else { &ws };
        let fused = chunk_coreset(src, size, &mut rng_for(seed, 0xC0)).unwrap();
        let scalar = chunk_coreset_scalar(src, size, &mut rng_for(seed, 0xC0)).unwrap();
        prop_assert!(fused.len() <= size.min(n));
        prop_assert_eq!(set_bits(&fused), set_bits(&scalar));
    }
}

/// Every output word of a Lloyd run, as bits.
type RunBits = (Vec<u32>, Vec<u64>, Vec<u64>, Vec<u64>, usize, usize, u64);

fn run_bits(run: &LloydRun) -> RunBits {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    (
        run.assignments.clone(),
        bits(run.centroids.as_flat()),
        bits(&run.cluster_weights),
        bits(&run.mse_trajectory),
        run.iterations,
        run.reseeds,
        run.sse.to_bits(),
    )
}

/// `n` points around `blobs` tight blobs: about one in eight an exact copy
/// of an earlier point and one in eight the mirror image of one through
/// the origin (the blob centres are mirrored too, so mirrored points tie
/// exactly between mirrored centroids). `lattice` snaps every coordinate
/// to a multiple of 0.5, which makes exact ties common.
fn blob_rows(n: usize, dim: usize, blobs: usize, lattice: bool, seed: u64) -> Vec<f64> {
    let mut rng = rng_for(seed, 0xB0B5);
    let centres: Vec<f64> = (0..blobs * dim).map(|_| rng.gen_range(-100.0..100.0)).collect();
    let mut flat: Vec<f64> = Vec::with_capacity(n * dim);
    for i in 0..n {
        let roll = rng.gen_range(0..8u32);
        let row: Vec<f64> = if i > 0 && roll == 0 {
            let from = rng.gen_range(0..i);
            flat[from * dim..(from + 1) * dim].to_vec()
        } else if i > 0 && roll == 1 {
            let from = rng.gen_range(0..i);
            flat[from * dim..(from + 1) * dim].iter().map(|v| -v).collect()
        } else {
            let b = rng.gen_range(0..blobs);
            let sign = if rng.gen_range(0..2u32) == 0 { 1.0 } else { -1.0 };
            (0..dim).map(|d| sign * centres[b * dim + d] + rng.gen_range(-0.5..0.5)).collect()
        };
        flat.extend(row.into_iter().map(|v| if lattice { (v * 2.0).round() / 2.0 } else { v }));
    }
    flat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The bounded-path oracle. `ratio` puts n = ratio·k + tail on both
    // sides of `BOUND_GATE`; `collapse` seeds every centroid from the
    // first few points, so most start as duplicates and the run must
    // re-seed empty clusters; `weighted` runs the merge's weighted Lloyd.
    // The fused run must equal the scalar run in every word, and carry a
    // `pruned` tally exactly when it took the bounded path. Widths up to
    // 12 run both bodies of the assignment step: the one compiled at the
    // paper's width 6 and the one that reads the width at run time.
    #[test]
    fn bounded_lloyd_matches_scalar_lloyd(
        (dim, k, blobs) in (1usize..=12, 2usize..=64, 1usize..6),
        (ratio, tail) in (1usize..=3 * BOUND_GATE, 0usize..4),
        (lattice, weighted, collapse) in (any::<bool>(), any::<bool>(), any::<bool>()),
        weights_raw in proptest::collection::vec(0.5..20.0f64, 61),
        seed in any::<u64>(),
    ) {
        let n = ratio * k + tail;
        let flat = blob_rows(n, dim, blobs, lattice, seed);
        let ds = Dataset::from_flat(dim, flat.clone()).unwrap();
        let mut ws = WeightedSet::new(dim).unwrap();
        for (i, row) in flat.chunks_exact(dim).enumerate() {
            ws.push(row, weights_raw[i % weights_raw.len()]).unwrap();
        }
        let src: &dyn PointSource = if weighted { &ws } else { &ds };
        let init = if collapse {
            let few = 1 + k / 8;
            let rows: Vec<f64> = (0..k).flat_map(|j| src.coords(j % few).to_vec()).collect();
            Centroids::from_flat(dim, rows).unwrap()
        } else {
            seed_centroids(src, k, SeedMode::RandomPoints, &mut rng_for(seed, 17)).unwrap()
        };

        let scalar_cfg = LloydConfig { kernel: KernelKind::Scalar, ..LloydConfig::default() };
        let fused_cfg = LloydConfig { kernel: KernelKind::Fused, ..LloydConfig::default() };
        let s = lloyd::lloyd(src, &init, &scalar_cfg).unwrap();
        let ring = Arc::new(RingBufferSink::new(1024));
        let rec = Recorder::new().with_sink(ring.clone());
        let f = lloyd::lloyd_observed(src, &init, &fused_cfg, Some(&rec)).unwrap();
        prop_assert_eq!(run_bits(&f), run_bits(&s), "n = {}, k = {}, dim = {}", n, k, dim);

        let events = ring.events();
        let kernel = events.iter().find(|e| e.name == "lloyd.kernel").unwrap();
        let pruned = kernel.fields.iter().find(|(key, _)| key == "pruned");
        prop_assert_eq!(pruned.is_some(), n >= BOUND_GATE * k, "pruned only on bounded runs");
        if let Some((_, FieldValue::U64(pruned))) = pruned {
            let points = (n * (f.iterations + 1)) as u64;
            prop_assert!(*pruned <= points - n as u64, "the first assignment screens every point");
        }
    }
}

/// 600 coincident points and 10 distinct ones, 200 draws: about half the
/// draws land on the pile, so the representative table holds 89 identical
/// rows (of 99, with this seed), and for every point of the pile all of
/// them tie inside the rescue window — more candidates than one 64-bit
/// mask holds, on a table (`k_pad` = 104) that scans its window vector by
/// vector. The lowest-index copy must take the whole pile; the rest end
/// with zero mass and are dropped.
#[test]
fn coreset_with_more_than_64_coincident_representatives() {
    let mut ds = Dataset::new(3).unwrap();
    for _ in 0..600 {
        ds.push(&[2.5, -1.0, 7.0]).unwrap();
    }
    for i in 0..10u32 {
        let t = f64::from(i);
        ds.push(&[40.0 + 9.0 * t, 3.0 * t - 60.0, t * t]).unwrap();
    }
    let cs = assert_coreset_matches_oracle(&ds, 200, 18);
    assert_eq!(cs.total_weight(), 610.0);
    assert!(cs.len() <= 11, "one copy of the pile survives, got {} rows", cs.len());
    let pile = cs.weights()[0];
    assert!(pile >= 600.0, "the first representative is the pile's, weight {pile}");

    // Seen from outside: every tied copy is rescued, none skipped.
    let table: Vec<f64> = ds.as_flat()[..3 * 90].to_vec();
    let layout = FusedLayout::new(&table, 3);
    let mut scratch = vec![0.0; layout.scratch_len()];
    let mut stats = KernelStats::default();
    let got = layout.nearest_counted(ds.coords(0), &mut scratch, &mut stats);
    assert_eq!(got, (0, 0.0));
    assert_eq!(stats.rescued, 90, "all 90 tied copies rescued");
}

/// Tables of coincident centroids through the block entry point: 64 of
/// them fill the one-mask window to its last bit (`k_pad` = 64, all 64
/// set), 100 need the per-vector scan (`k_pad` = 104) and put more than 64
/// candidates inside one window. Every copy ties for every query, so each
/// point rescues the whole table and settles on index 0.
#[test]
fn block_over_tables_of_coincident_centroids() {
    for k in [64usize, 100] {
        let table: Vec<f64> = [2.5, -1.0, 7.0].repeat(k);
        let layout = FusedLayout::new(&table, 3);
        let mut scratch = vec![0.0; FusedLayout::BLOCK * layout.scratch_len()];
        let mut stats = KernelStats::default();
        let far = [40.0, -60.0, 0.0];
        let queries: [&[f64]; FusedLayout::BLOCK] =
            [&table[..3], &far, &[0.0, 0.0, 0.0], &[2.5, -1.0, 7.5]];
        let block = layout.nearest_block(queries, &mut scratch, &mut stats);
        for (x, hit) in queries.into_iter().zip(block) {
            assert_eq!(hit, nearest_centroid(x, &table, 3), "k = {k}, x = {x:?}");
            assert_eq!(hit.0, 0, "ties go to the lowest index");
        }
        assert_eq!(stats, KernelStats { points: 4, rescued: 4 * k as u64 }, "k = {k}");
    }
}

/// Mirrored exact ties: a 25 x 25 integer lattice centred on the origin.
/// All squared distances are small integers, so a point is routinely
/// equidistant from two or four representatives, and mirrored
/// representatives share `‖c‖²` — equal screened values, equal rescued
/// distances. Unit and non-unit weights, several sizes.
#[test]
fn coreset_on_a_mirrored_lattice() {
    let mut ds = Dataset::new(2).unwrap();
    let mut ws = WeightedSet::new(2).unwrap();
    for x in -12..=12i32 {
        for y in -12..=12i32 {
            ds.push(&[f64::from(x), f64::from(y)]).unwrap();
            ws.push(&[f64::from(x), f64::from(y)], f64::from((x + y).rem_euclid(5) + 1)).unwrap();
        }
    }
    for (size, seed) in [(8, 1u64), (40, 2), (72, 3), (200, 4)] {
        let cs = assert_coreset_matches_oracle(&ds, size, seed);
        assert_eq!(cs.total_weight(), 625.0);
        let cs = assert_coreset_matches_oracle(&ws, size, seed);
        assert_eq!(cs.total_weight(), ws.total_weight());
    }
}

/// Magnitudes from 1e-6 to 1e6 in one chunk: the kernel's error margin is
/// set by the largest `‖c‖²` in the table (1e12), which swallows every
/// screened difference among the small representatives — the rescue window
/// admits all of them and the exact distances decide.
#[test]
fn coreset_across_twelve_orders_of_magnitude() {
    let mut rng = rng_for(77, 0xC1);
    let mut ds = Dataset::new(3).unwrap();
    for i in 0..600usize {
        let scale = [1e-6, 1e-3, 1.0, 1e3, 1e6][i % 5];
        let row: Vec<f64> = (0..3).map(|_| scale * rng.gen_range(-1.0..1.0)).collect();
        ds.push(&row).unwrap();
    }
    for (size, seed) in [(16, 5u64), (60, 6), (130, 7)] {
        let cs = assert_coreset_matches_oracle(&ds, size, seed);
        assert_eq!(cs.total_weight(), 600.0);
    }
}
