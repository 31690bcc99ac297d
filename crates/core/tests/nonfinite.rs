//! Fuzz-ish tests: non-finite coordinates (NaN / ±inf) must surface as a
//! typed [`Error::NonFiniteCoordinate`] at the input boundary — never as a
//! silently poisoned centroid — and ill-conditioned but *finite* inputs must
//! still produce exact assignments from the fused kernel, and a coreset
//! from `chunk_coreset`, whose distances they overflow.

mod common;

use common::assert_coreset_matches_oracle;
use pmkm_core::kernel::FusedLayout;
use pmkm_core::point::{all_finite, first_non_finite, nearest_centroid};
use pmkm_core::prelude::*;
use pmkm_core::KernelStats;
use proptest::prelude::*;

/// One of the three non-finite doubles, selected by index.
fn poison(which: u8) -> f64 {
    match which % 3 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        _ => f64::NEG_INFINITY,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // `all_finite` / `first_non_finite` agree, and injection is always found.
    #[test]
    fn finite_scanners_agree(
        mut coords in proptest::collection::vec(-1e12..1e12f64, 1..64),
        pos in any::<usize>(),
        which in any::<u8>(),
        inject in any::<bool>(),
    ) {
        prop_assert!(all_finite(&coords));
        prop_assert_eq!(first_non_finite(&coords), None);
        if inject {
            let pos = pos % coords.len();
            coords[pos] = poison(which);
            prop_assert!(!all_finite(&coords));
            let found = first_non_finite(&coords).unwrap();
            prop_assert!(found <= pos);
            prop_assert!(!coords[found].is_finite());
        }
    }

    // `Dataset::from_flat` rejects poisoned buffers with the point index.
    #[test]
    fn dataset_from_flat_rejects_poison(
        dim in 1usize..8,
        n in 1usize..32,
        pos in any::<usize>(),
        which in any::<u8>(),
    ) {
        let mut flat = vec![1.5f64; dim * n];
        let pos = pos % flat.len();
        flat[pos] = poison(which);
        match Dataset::from_flat(dim, flat) {
            Err(Error::NonFiniteCoordinate { index }) => prop_assert_eq!(index, pos / dim),
            other => prop_assert!(false, "expected NonFiniteCoordinate, got {:?}", other),
        }
    }

    // `Centroids::from_flat` rejects poisoned buffers with the centroid index.
    #[test]
    fn centroids_from_flat_rejects_poison(
        dim in 1usize..8,
        k in 1usize..16,
        pos in any::<usize>(),
        which in any::<u8>(),
    ) {
        let mut flat = vec![-2.25f64; dim * k];
        let pos = pos % flat.len();
        flat[pos] = poison(which);
        match Centroids::from_flat(dim, flat) {
            Err(Error::NonFiniteCoordinate { index }) => prop_assert_eq!(index, pos / dim),
            other => prop_assert!(false, "expected NonFiniteCoordinate, got {:?}", other),
        }
    }

    // `Dataset::push` / `WeightedSet::push` reject poisoned rows and bad
    // weights, and a rejected push leaves the container untouched.
    #[test]
    fn push_rejects_poison_and_preserves_state(
        dim in 1usize..6,
        pos in any::<usize>(),
        which in any::<u8>(),
        bad_weight_idx in 0u8..4,
    ) {
        let bad_weight = [f64::NAN, f64::INFINITY, 0.0, -1.0][bad_weight_idx as usize];
        let mut row = vec![3.0f64; dim];
        row[pos % dim] = poison(which);

        let mut ds = Dataset::new(dim).unwrap();
        ds.push(&vec![1.0; dim]).unwrap();
        prop_assert!(matches!(
            ds.push(&row),
            Err(Error::NonFiniteCoordinate { index: 1 })
        ));
        prop_assert_eq!(ds.len(), 1);

        let mut ws = WeightedSet::new(dim).unwrap();
        ws.push(&vec![1.0; dim], 2.0).unwrap();
        prop_assert!(matches!(
            ws.push(&row, 1.0),
            Err(Error::NonFiniteCoordinate { index: 1 })
        ));
        prop_assert!(matches!(
            ws.push(&vec![1.0; dim], bad_weight),
            Err(Error::InvalidWeight { index: 1 })
        ));
        prop_assert_eq!(ws.len(), 1);
    }

    // End-to-end poisoning guard: clustering validated finite input can
    // never emit a non-finite centroid, weight, or MSE.
    #[test]
    fn kmeans_output_is_always_finite(
        flat in proptest::collection::vec(-1e8..1e8f64, 2..120),
        k in 1usize..5,
        seed in any::<u64>(),
    ) {
        let dim = 2;
        let n = flat.len() / dim;
        let ds = Dataset::from_flat(dim, flat[..n * dim].to_vec()).unwrap();
        let mut cfg = KMeansConfig::paper(k.min(n), seed);
        cfg.restarts = 2;
        cfg.lloyd.max_iters = 10;
        let out = pmkm_core::kmeans(&ds, &cfg).unwrap();
        for j in 0..out.best.centroids.k() {
            prop_assert!(all_finite(out.best.centroids.centroid(j)));
        }
        prop_assert!(out.best.mse.is_finite());
        prop_assert!(out.best.cluster_weights.iter().all(|w| w.is_finite()));
    }

    // The fused kernel's overflow guard: with coordinates large enough
    // that ‖x‖², ‖c‖² or the cross term overflows to ±inf, the screen would
    // produce inf/NaN approximations — the kernel must take the exact
    // scalar scan and agree with `nearest_centroid`, never return a bogus
    // index from a NaN comparison. One strategy scales the whole case by
    // one power of ten; the other draws an exponent in 150..156 per
    // coordinate, so norms land on both sides of sqrt(f64::MAX) ≈ 1.34e154
    // inside one table — the band where some terms overflow and others do
    // not. Both entry points, every point of the block.
    #[test]
    fn fused_kernel_survives_overflowing_magnitudes(
        dim in 1usize..7,
        k in 1usize..9,
        scale_exp in 150.0..308.0f64,
        band_exps in proptest::collection::vec(150.0..156.0f64, 67),
        mixed in any::<bool>(),
        raw in proptest::collection::vec(-1.0..1.0f64, 1..64),
        praw in proptest::collection::vec(-1.0..1.0f64, 4 * 8),
    ) {
        let scale = |i: usize| 10f64.powf(if mixed { band_exps[i % band_exps.len()] } else { scale_exp });
        let finite_or_zero = |v: f64| if v.is_finite() { v } else { 0.0 };
        let cents: Vec<f64> =
            (0..k * dim).map(|i| finite_or_zero(raw[i % raw.len()] * scale(i))).collect();
        let points: Vec<Vec<f64>> = (0..FusedLayout::BLOCK)
            .map(|p| (0..dim).map(|d| finite_or_zero(praw[p * 8 + d] * scale(31 * p + d))).collect())
            .collect();

        let layout = FusedLayout::new(&cents, dim);
        let mut scratch = vec![0.0; FusedLayout::BLOCK * layout.scratch_len()];
        let mut stats = KernelStats::default();
        let xs: [&[f64]; FusedLayout::BLOCK] = std::array::from_fn(|p| points[p].as_slice());
        let block = layout.nearest_block(xs, &mut scratch, &mut stats);
        for (x, (bj, bd)) in xs.into_iter().zip(block) {
            let (fj, fd) = layout.nearest_counted(x, &mut scratch, &mut stats);
            let (sj, sd) = nearest_centroid(x, &cents, dim);
            prop_assert_eq!((fj, bj), (sj, sj), "x = {:?}, table = {:?}", x, &cents);
            // Distances may all be +inf here; bit-compare handles that too.
            prop_assert_eq!((fd.to_bits(), bd.to_bits()), (sd.to_bits(), sd.to_bits()));
        }
    }
}

/// The gap the guard closes, hand-built: `‖x‖²` = 1.8225e308 overflows, so
/// candidate 0 screened as NaN, the window went `+inf`, and the rescue only
/// ever saw candidate 1. Before the guard the kernel answered
/// `(1, 1.5625e308)` here.
#[test]
fn norms_straddling_sqrt_max_stay_exact() {
    let cents = [1.35e154, 0.0, 1e153, 0.0];
    let x = [1.35e154, 0.0];
    assert_eq!(nearest_centroid(&x, &cents, 2), (0, 0.0));
    let layout = FusedLayout::new(&cents, 2);
    let mut scratch = vec![0.0; FusedLayout::BLOCK * layout.scratch_len()];
    let mut stats = KernelStats::default();
    assert_eq!(layout.nearest_counted(&x, &mut scratch, &mut stats), (0, 0.0));
    assert_eq!(stats, KernelStats { points: 1, rescued: 2 }, "tallied as an exact scan of k = 2");
    // One such point sends its whole block down the exact scan.
    let near = [1e153, 1.0];
    let block = layout.nearest_block([&x, &near, &x, &near], &mut scratch, &mut stats);
    assert_eq!(block, [(0, 0.0), (1, 1.0), (0, 0.0), (1, 1.0)]);
    assert_eq!(stats, KernelStats { points: 5, rescued: 10 });
}

/// Serde round-trips cannot resurrect poison either: a `Dataset` is
/// deserialized through the same flat representation it serializes to, so a
/// hand-poisoned JSON payload still fails construction downstream.
#[test]
fn poisoned_singletons_are_rejected() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(matches!(
            Dataset::from_flat(1, vec![bad]),
            Err(Error::NonFiniteCoordinate { index: 0 })
        ));
        assert!(matches!(
            Centroids::from_flat(1, vec![bad]),
            Err(Error::NonFiniteCoordinate { index: 0 })
        ));
    }
}

/// Finite-but-huge coordinates are admitted by `Dataset`, yet every d² to
/// the chunk mean overflows to +inf. `chunk_coreset` used to turn that into
/// `Σ w·d² = inf`, every `q(i)` into NaN, and the first draw into a panic
/// ("cannot sample empty range"), which the engine's partial clone caught,
/// retried with the same seed, and ended by quarantining the chunk. It now
/// samples such a chunk by mass. The aggregation behind it is exact on both
/// sides — plain comparisons in the scalar loop, the exact-scan fallback of
/// an overflowed screen in the kernel — so the oracle must agree bit for bit.
#[test]
fn chunk_coreset_survives_overflowing_distances() {
    let mut ds = Dataset::new(2).unwrap();
    for i in 0..100u32 {
        ds.push(&[if i % 2 == 0 { 1e200 } else { -1e200 }, f64::from(i)]).unwrap();
    }
    let got = assert_coreset_matches_oracle(&ds, 10, 3);
    assert!((2..=10).contains(&got.len()), "{} representatives", got.len());
    assert_eq!(got.total_weight(), ds.total_weight(), "mass is conserved");
}

/// A bounded Lloyd run (64 points, k = 4: 16 per centroid) on coordinates
/// in the 1e150–1e154 band: four blobs near 1e150 and four outliers near
/// 1e154. Against the seeds, the outliers' norms pass the kernel's
/// expansion limit, so they take the exact scan inside the run (floor 0)
/// while the blobs are screened; once a centroid follows an outlier the
/// whole table does, and some squared distances overflow to +inf, which
/// must fail every bound test. The fused run must equal the scalar run in
/// every word.
#[test]
fn bounded_lloyd_survives_overflowing_magnitudes() {
    let mut ds = Dataset::new(2).unwrap();
    for i in 0..64u32 {
        let t = f64::from(i);
        let (sx, sy) = if i % 4 == 0 { (1.0, 1.0) } else { (-1.0, 1.0) };
        let row = if i % 16 == 15 {
            [sx * 1e154 * (1.0 + t / 100.0), -sy * 5e153]
        } else {
            let blob = f64::from(i % 3);
            [sx * 1e150 * (3.0 + blob + (t * 0.61) % 1.0), sy * 1e151 * (blob - (t * 0.37) % 1.0)]
        };
        ds.push(&row).unwrap();
    }
    assert!(ds.len() >= pmkm_core::lloyd::BOUND_GATE * 4, "the run takes the bounded path");
    let init = Centroids::from_flat(2, ds.as_flat()[..8].to_vec()).unwrap();
    let run = |kernel| {
        pmkm_core::lloyd(&ds, &init, &LloydConfig { kernel, ..LloydConfig::default() }).unwrap()
    };
    let (f, s) = (run(KernelKind::Fused), run(KernelKind::Scalar));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(f.assignments, s.assignments);
    assert_eq!(bits(f.centroids.as_flat()), bits(s.centroids.as_flat()));
    assert_eq!(bits(&f.cluster_weights), bits(&s.cluster_weights));
    assert_eq!(bits(&f.mse_trajectory), bits(&s.mse_trajectory));
    assert_eq!((f.iterations, f.reseeds), (s.iterations, s.reseeds));
    // Against the seeds the band reaches both sides of the limit.
    let norm2 = |v: &[f64]| v.iter().map(|c| c * c).sum::<f64>();
    let max_c = init.as_flat().chunks_exact(2).map(norm2).fold(0.0, f64::max);
    let exact = (0..ds.len()).filter(|&i| norm2(ds.coords(i)) + max_c >= f64::MAX / 4.0).count();
    assert_eq!(exact, 4, "the four outliers take the exact scan against the seeds");
}
