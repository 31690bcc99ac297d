//! Property-based tests for the core invariants of partial/merge k-means.

use pmkm_core::prelude::*;
use pmkm_core::seeding::{derive_seed, rng_for, seed_centroids};
use pmkm_core::{lloyd, point};
use proptest::prelude::*;

/// A small random dataset: n points in `dim` dimensions, coordinates in a
/// bounded range so distances stay well-conditioned.
fn arb_dataset(max_n: usize, max_dim: usize) -> impl Strategy<Value = Dataset> {
    (1..=max_dim, 1..=max_n).prop_flat_map(|(dim, n)| {
        proptest::collection::vec(-1000.0..1000.0f64, dim * n)
            .prop_map(move |flat| Dataset::from_flat(dim, flat).unwrap())
    })
}

fn arb_weighted(max_n: usize, max_dim: usize) -> impl Strategy<Value = WeightedSet> {
    (1..=max_dim, 1..=max_n).prop_flat_map(|(dim, n)| {
        (
            proptest::collection::vec(-100.0..100.0f64, dim * n),
            proptest::collection::vec(0.1..50.0f64, n),
        )
            .prop_map(move |(flat, weights)| {
                let mut ws = WeightedSet::new(dim).unwrap();
                for (chunk, w) in flat.chunks_exact(dim).zip(weights) {
                    ws.push(chunk, w).unwrap();
                }
                ws
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sq_dist_nonnegative_and_symmetric(
        a in proptest::collection::vec(-1e6..1e6f64, 1..8),
        b in proptest::collection::vec(-1e6..1e6f64, 1..8),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        prop_assert!(point::sq_dist(a, b) >= 0.0);
        prop_assert_eq!(point::sq_dist(a, b), point::sq_dist(b, a));
        prop_assert_eq!(point::sq_dist(a, a), 0.0);
    }

    #[test]
    fn split_round_robin_partitions_exactly(ds in arb_dataset(64, 4), p in 1usize..12) {
        let parts = ds.split_round_robin(p).unwrap();
        prop_assert_eq!(parts.len(), p);
        let total: usize = parts.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, ds.len());
        let min = parts.iter().map(|c| c.len()).min().unwrap();
        let max = parts.iter().map(|c| c.len()).max().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn partition_random_preserves_multiset(
        ds in arb_dataset(48, 3),
        p in 1usize..10,
        seed in any::<u64>(),
    ) {
        let parts = pmkm_core::partition_random(&ds, p, seed, true).unwrap();
        let mut orig: Vec<Vec<f64>> = ds.iter().map(|r| r.to_vec()).collect();
        let mut got: Vec<Vec<f64>> = parts
            .iter()
            .flat_map(|c| c.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
            .collect();
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(orig, got);
    }

    #[test]
    fn lloyd_never_increases_mse_vs_seeding(
        ds in arb_dataset(40, 3),
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= ds.len());
        let mut rng = rng_for(seed, 0);
        let init = seed_centroids(&ds, k, SeedMode::RandomPoints, &mut rng).unwrap();
        let init_mse = metrics::mse_against(&ds, &init).unwrap();
        let run = lloyd::lloyd(&ds, &init, &LloydConfig::default()).unwrap();
        prop_assert!(run.mse <= init_mse + 1e-9 * init_mse.abs().max(1.0),
            "final {} > initial {}", run.mse, init_mse);
    }

    #[test]
    fn lloyd_conserves_weight(ds in arb_dataset(40, 3), k in 1usize..5, seed in any::<u64>()) {
        prop_assume!(k <= ds.len());
        let mut rng = rng_for(seed, 1);
        let init = seed_centroids(&ds, k, SeedMode::RandomPoints, &mut rng).unwrap();
        let run = lloyd::lloyd(&ds, &init, &LloydConfig::default()).unwrap();
        let total: f64 = run.cluster_weights.iter().sum();
        prop_assert!((total - ds.len() as f64).abs() < 1e-9);
        prop_assert_eq!(run.assignments.len(), ds.len());
        for &a in &run.assignments {
            prop_assert!((a as usize) < k);
        }
    }

    #[test]
    fn kmeans_best_is_min_over_restarts(
        ds in arb_dataset(30, 2),
        k in 1usize..4,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= ds.len());
        let cfg = KMeansConfig { restarts: 4, ..KMeansConfig::paper(k, seed) };
        let out = pmkm_core::kmeans(&ds, &cfg).unwrap();
        let min = out.restarts.iter().map(|r| r.mse).fold(f64::INFINITY, f64::min);
        prop_assert_eq!(out.best.mse, min);
    }

    #[test]
    fn partial_weights_sum_to_chunk_size(
        ds in arb_dataset(60, 3),
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        let cfg = KMeansConfig { restarts: 2, ..KMeansConfig::paper(k, seed) };
        let out = pmkm_core::partial_kmeans(&ds, &cfg).unwrap();
        let total: f64 = out.centroids.weights().iter().sum();
        prop_assert!((total - ds.len() as f64).abs() < 1e-9);
        prop_assert!(out.centroids.len() <= k.max(ds.len().min(k)) || ds.len() <= k);
    }

    #[test]
    fn merge_conserves_total_weight(ws in arb_weighted(30, 3), k in 1usize..5) {
        let cfg = KMeansConfig { restarts: 2, ..KMeansConfig::paper(k, 7) };
        let out = pmkm_core::merge_collective(std::slice::from_ref(&ws), &cfg, 1).unwrap();
        let total: f64 = out.cluster_weights.iter().sum();
        prop_assert!((total - ws.total_weight()).abs() < 1e-6 * ws.total_weight());
        prop_assert!(out.epm >= 0.0);
    }

    #[test]
    fn weight_scale_invariance_of_merge_centroids(ws in arb_weighted(20, 2), k in 1usize..4) {
        prop_assume!(ws.len() > k);
        let mut scaled = WeightedSet::new(ws.dim()).unwrap();
        for (c, w) in ws.iter() {
            scaled.push(c, w * 8.0).unwrap();
        }
        let cfg = KMeansConfig { restarts: 1, ..KMeansConfig::paper(k, 3) };
        let a = pmkm_core::merge_collective(std::slice::from_ref(&ws), &cfg, 1).unwrap();
        let b = pmkm_core::merge_collective(&[scaled], &cfg, 1).unwrap();
        for (ca, cb) in a.centroids.iter().zip(b.centroids.iter()) {
            for (x, y) in ca.iter().zip(cb.iter()) {
                prop_assert!((x - y).abs() < 1e-6, "{} vs {}", x, y);
            }
        }
    }

    #[test]
    fn full_pipeline_is_deterministic_and_sane(
        ds in arb_dataset(80, 3),
        k in 1usize..5,
        p in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut cfg = PartialMergeConfig::paper(k, p, seed);
        cfg.kmeans.restarts = 2;
        let a = partial_merge(&ds, &cfg).unwrap();
        let b = partial_merge(&ds, &cfg).unwrap();
        prop_assert_eq!(&a.merge.centroids, &b.merge.centroids);
        // Output size never exceeds the gathered centroid count and the
        // final E over the original data is finite.
        let e = metrics::weighted_sse_against(&ds, &a.merge.centroids).unwrap();
        prop_assert!(e.is_finite() && e >= 0.0);
        let total: f64 = a.merge.cluster_weights.iter().sum();
        prop_assert!((total - ds.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn derive_seed_has_no_cheap_collisions(base in any::<u64>()) {
        let mut seen = std::collections::HashSet::new();
        for stream in 0..256u64 {
            prop_assert!(seen.insert(derive_seed(base, stream)));
        }
    }
}

// --- Pipeline invariants (PR 2): mass conservation, E_pm sign, monotone
// --- per-chunk trajectories under the paper's 1e-9 convergence rule.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // §3.2: the partial step's weighted centroids carry every input point
    // exactly once — Σ wᵢ == Nⱼ per chunk, and Σⱼ Nⱼ == n over a random
    // partition of the cell.
    #[test]
    fn partial_conserves_mass_per_chunk_and_overall(
        ds in arb_dataset(72, 3),
        k in 1usize..5,
        p in 1usize..6,
        seed in any::<u64>(),
    ) {
        let chunks = pmkm_core::partition_random(&ds, p, seed, true).unwrap();
        let mut cfg = KMeansConfig::paper(k, seed);
        cfg.restarts = 2;
        let mut grand_total = 0.0f64;
        for chunk in &chunks {
            if chunk.is_empty() {
                continue;
            }
            let out = partial_kmeans(chunk, &cfg).unwrap();
            let mass: f64 = out.centroids.weights().iter().sum();
            prop_assert!(
                (mass - chunk.len() as f64).abs() < 1e-9 * (chunk.len() as f64).max(1.0),
                "chunk mass {} != {}", mass, chunk.len()
            );
            prop_assert_eq!(out.points, chunk.len());
            grand_total += mass;
        }
        prop_assert!((grand_total - ds.len() as f64).abs() < 1e-6);
    }

    // §3.3: E_pm is a weighted sum of squared distances — non-negative,
    // finite, and internally consistent: the tabulated MSE is exactly
    // E_pm / total weight, and the merge conserves the cell's point mass.
    #[test]
    fn epm_is_nonnegative_and_internally_consistent(
        ds in arb_dataset(60, 3),
        k in 1usize..5,
        p in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut cfg = PartialMergeConfig::paper(k, p, seed);
        cfg.kmeans.restarts = 2;
        let result = partial_merge(&ds, &cfg).unwrap();
        prop_assert!(result.merge.epm.is_finite() && result.merge.epm >= 0.0);
        prop_assert!(result.merge.mse.is_finite() && result.merge.mse >= 0.0);

        let total: f64 = result.merge.cluster_weights.iter().sum();
        prop_assert!((total - ds.len() as f64).abs() < 1e-6 * (ds.len() as f64).max(1.0));
        let rel = (result.merge.mse * total - result.merge.epm).abs()
            / result.merge.epm.abs().max(1.0);
        prop_assert!(rel <= 1e-9, "mse·W {} vs E_pm {}", result.merge.mse * total, result.merge.epm);
        prop_assert!(result.merge.cluster_weights.iter().all(|w| *w >= 0.0));
    }

    // §2: each Lloyd step minimizes the quantization error given the other
    // half of the state, so the per-run MSE trajectory is non-increasing
    // (to the paper's 1e-9 rule) whenever no empty cluster was reseeded.
    #[test]
    fn mse_trajectory_is_monotone_without_reseeds(
        ds in arb_dataset(64, 4),
        k in 1usize..7,
        seed in any::<u64>(),
        kernel_idx in 0u8..2,
    ) {
        prop_assume!(k <= ds.len());
        let kernel = [KernelKind::Fused, KernelKind::Scalar][kernel_idx as usize];
        let mut rng = rng_for(seed, 3);
        let init = seed_centroids(&ds, k, SeedMode::RandomPoints, &mut rng).unwrap();
        let cfg = LloydConfig { kernel, ..LloydConfig::default() };
        let run = lloyd::lloyd(&ds, &init, &cfg).unwrap();
        prop_assert_eq!(run.mse_trajectory.len(), run.iterations + 1);
        if run.reseeds == 0 {
            for w in run.mse_trajectory.windows(2) {
                prop_assert!(
                    w[1] <= w[0] + 1e-9 * w[0].abs().max(1.0),
                    "trajectory rose: {} -> {}", w[0], w[1]
                );
            }
        }
        prop_assert!(*run.mse_trajectory.last().unwrap() == run.mse);
    }
}
