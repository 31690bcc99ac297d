//! Property tests for the baseline algorithms' invariants.

use pmkm_baselines::{
    birch, method_a, method_b, method_c, stream_lsearch, BirchConfig, ClusteringFeature,
    StreamLsConfig,
};
use pmkm_core::seeding::derive_seed;
use pmkm_core::{kmeans, Dataset, KMeansConfig, PointSource};
use proptest::prelude::*;

/// Thread counts for Methods A/B: one, even, odd, and more than the items.
const WORKERS: [usize; 4] = [1, 2, 3, 8];

fn arb_dataset(min_n: usize) -> impl Strategy<Value = Dataset> {
    (1usize..4, min_n..60usize).prop_flat_map(move |(dim, n)| {
        proptest::collection::vec(-500.0..500.0f64, dim * n)
            .prop_map(move |flat| Dataset::from_flat(dim, flat).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn birch_conserves_weight(ds in arb_dataset(1), threshold in 0.0..100.0f64) {
        let cfg = BirchConfig { threshold, k: 4, ..BirchConfig::default() };
        let out = birch(&ds, &cfg).unwrap();
        let total: f64 = out.cluster_weights.iter().sum();
        prop_assert!((total - ds.len() as f64).abs() < 1e-9);
        prop_assert!(out.leaf_entries >= 1);
        prop_assert!(out.leaf_entries <= ds.len());
        prop_assert!(out.tree_height >= 1);
    }

    #[test]
    fn cf_merge_is_commutative(
        a in proptest::collection::vec(-100.0..100.0f64, 2),
        b in proptest::collection::vec(-100.0..100.0f64, 2),
        c in proptest::collection::vec(-100.0..100.0f64, 2),
    ) {
        let cf = |p: &[f64]| ClusteringFeature::from_point(p);
        let mut abc = cf(&a);
        abc.merge(&cf(&b));
        abc.merge(&cf(&c));
        let mut cba = cf(&c);
        cba.merge(&cf(&b));
        cba.merge(&cf(&a));
        prop_assert_eq!(abc.n, cba.n);
        for (x, y) in abc.ls.iter().zip(&cba.ls) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        prop_assert!((abc.ss - cba.ss).abs() < 1e-6 * abc.ss.abs().max(1.0));
        prop_assert!(abc.radius() >= 0.0);
    }

    #[test]
    fn stream_ls_conserves_weight(ds in arb_dataset(1), chunks in 1usize..6) {
        let cfg = StreamLsConfig { k: 3, max_retained: 30, swap_attempts: 20, seed: 1 };
        let out = stream_lsearch(&ds, chunks, cfg).unwrap();
        let total: f64 = out.centers.weights().iter().sum();
        prop_assert!((total - ds.len() as f64).abs() < 1e-9);
        prop_assert!(out.centers.len() <= 3 || ds.len() <= 3);
    }

    #[test]
    fn method_a_always_equals_per_cell_serial(
        cells in proptest::collection::vec(arb_dataset(6), 1..6),
        seed in any::<u64>(),
    ) {
        let cfg = KMeansConfig { restarts: 2, ..KMeansConfig::paper(3, seed) };
        let serial: Vec<_> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| kmeans(c, &KMeansConfig { seed: derive_seed(seed, i as u64), ..cfg }))
            .collect::<Result<_, _>>()
            .unwrap();
        for workers in WORKERS {
            let fanned = method_a(&cells, &cfg, workers).unwrap();
            prop_assert_eq!(fanned.cells.len(), cells.len());
            for (a, s) in fanned.cells.iter().zip(&serial) {
                prop_assert_eq!(&a.best, &s.best, "workers={}", workers);
                prop_assert_eq!(a.best_restart, s.best_restart);
            }
        }
    }

    #[test]
    fn method_b_always_equals_serial(ds in arb_dataset(6), seed in any::<u64>()) {
        let k = 3.min(ds.len());
        let cfg = KMeansConfig { restarts: 3, ..KMeansConfig::paper(k, seed) };
        let serial = kmeans(&ds, &cfg).unwrap();
        for workers in WORKERS {
            let parallel = method_b(&ds, &cfg, workers).unwrap();
            prop_assert_eq!(&parallel.best, &serial.best, "workers={}", workers);
            prop_assert_eq!(parallel.best_restart, serial.best_restart);
            let mses: Vec<f64> = serial.restarts.iter().map(|r| r.mse).collect();
            prop_assert_eq!(&parallel.restart_mses, &mses);
        }
    }

    #[test]
    fn method_c_single_slave_is_bit_exact(ds in arb_dataset(6), seed in any::<u64>()) {
        let k = 2.min(ds.len());
        let cfg = KMeansConfig { restarts: 1, ..KMeansConfig::paper(k, seed) };
        let serial = {
            let mut rng = pmkm_core::seeding::rng_for(seed, 0);
            let init = pmkm_core::seeding::seed_centroids(
                &ds,
                k,
                pmkm_core::SeedMode::RandomPoints,
                &mut rng,
            )
            .unwrap();
            pmkm_core::lloyd::lloyd(&ds, &init, &cfg.lloyd).unwrap()
        };
        let dist = method_c(&ds, &cfg, 1).unwrap();
        prop_assert_eq!(dist.centroids, serial.centroids);
        prop_assert_eq!(dist.iterations, serial.iterations);
    }
}

/// The master reduces slave replies in slave order, not arrival order, so
/// a multi-threaded Method C repeats itself bit for bit.
#[test]
fn method_c_four_slaves_repeat_bit_for_bit() {
    let cell = Dataset::from_flat(
        2,
        (0..400).map(|i| ((i * 37 % 101) as f64).sin() * 50.0 + (i % 3) as f64 * 200.0).collect(),
    )
    .unwrap();
    let cfg = KMeansConfig { restarts: 1, ..KMeansConfig::paper(3, 11) };
    let first = method_c(&cell, &cfg, 4).unwrap();
    assert!(first.iterations > 0);
    let bits = |c: &pmkm_core::Centroids| -> Vec<u64> {
        c.as_flat().iter().map(|v| v.to_bits()).collect()
    };
    for _ in 0..4 {
        let again = method_c(&cell, &cfg, 4).unwrap();
        assert_eq!(bits(&again.centroids), bits(&first.centroids));
        assert_eq!(again.mse.to_bits(), first.mse.to_bits());
        assert_eq!(again.iterations, first.iterations);
        assert_eq!(again.messages, first.messages);
        assert_eq!(again.floats_shipped, first.floats_shipped);
    }
}

/// One cell too small for `k` fails the whole fan-out with that cell's
/// error; the other workers' threads are joined, not left running.
#[test]
fn method_a_with_one_failing_cell_returns_err() {
    let big = Dataset::from_flat(1, (0..40).map(f64::from).collect()).unwrap();
    let tiny = Dataset::from_flat(1, vec![0.0, 1.0]).unwrap();
    let cells = vec![big.clone(), big.clone(), tiny, big];
    let cfg = KMeansConfig { restarts: 2, ..KMeansConfig::paper(3, 5) };
    for workers in WORKERS {
        let err = method_a(&cells, &cfg, workers).unwrap_err();
        assert_eq!(err, pmkm_core::Error::KExceedsPoints { k: 3, points: 2 }, "workers={workers}");
    }
}
