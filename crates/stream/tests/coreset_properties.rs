//! The coreset oracle suite: property tests pinning the merge-reduce
//! tree's contract, at the tree level and through the full engine.
//!
//! The invariants checked here are the tentpole's contract:
//!
//! 1. **per-level mass conservation** — the binary-counter tree never
//!    creates or destroys weight: at every level the live representative
//!    weight sums back to the raw mass it stands for, and tree-wide
//!    `live_weight + expired == ingested` exactly (integer masses group
//!    losslessly in f64),
//! 2. **query cost** — an anytime query consumes at most
//!    `live_buckets × size` input points, and `live_buckets` is the
//!    popcount of the chunk counter, ≤ ⌈log₂ chunks⌉ + 1,
//! 3. **scheduling independence** — checked by the run matrix
//!    (`tests/run_matrix.rs`), which crosses the coreset tail with every
//!    worker and job count,
//! 4. **anytime = final** — on a finite stream, the last published
//!    anytime query *is* the terminal clustering, bit for bit,
//! 5. **bounded regret** — mid-stream query MSE against the raw prefix
//!    stays within a small constant of the serial weighted-Lloyd
//!    baseline on the same prefix.

use pmkm_core::{CoresetConfig, CoresetTree, Dataset, KMeansConfig, PointSource, WeightedSet};
use pmkm_stream::prelude::*;
use pmkm_stream::CoresetSpec;
use proptest::prelude::*;
use rand::Rng;
use std::path::PathBuf;

/// A deterministic two-blob chunk: `n` unit-weight points alternating
/// between blobs at 0 and 40, perturbed by the seeded RNG.
fn blob_chunk(n: usize, seed: u64, stream: u64) -> WeightedSet {
    let mut rng = pmkm_core::seeding::rng_for(seed, stream);
    let mut set = WeightedSet::new(2).unwrap();
    for i in 0..n {
        let blob = if i % 2 == 0 { 0.0 } else { 40.0 };
        set.push(&[blob + rng.gen_range(-1.0..1.0), blob + rng.gen_range(-1.0..1.0)], 1.0).unwrap();
    }
    set
}

/// `⌈log₂ chunks⌉ + 1`, the ISSUE's live-bucket ceiling.
fn bucket_ceiling(chunks: usize) -> u32 {
    assert!(chunks > 0);
    (usize::BITS - (chunks - 1).leading_zeros()) + 1
}

fn write_cell(dir: &std::path::Path, idx: u16, n: usize, seed: u64) -> PathBuf {
    let mut rng = pmkm_core::seeding::rng_for(seed, idx as u64);
    let mut points = pmkm_core::Dataset::new(2).unwrap();
    for i in 0..n {
        let blob = if i % 2 == 0 { 0.0 } else { 40.0 };
        points.push(&[blob + rng.gen_range(-1.0..1.0), blob + rng.gen_range(-1.0..1.0)]).unwrap();
    }
    let cell = pmkm_data::GridCell::new(idx, idx).unwrap();
    let path = dir.join(cell.bucket_file_name());
    pmkm_data::GridBucket { cell, points }.write_to(&path).unwrap();
    path
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmkm_cprop_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // (1) Per-level mass conservation, exactly, after every insert: each
    // level's live weight equals the raw mass of the chunks it covers,
    // the binary counter keeps at most one bucket per level, and the
    // tree-wide audit balances without any loss channel.
    #[test]
    fn per_level_mass_conservation_is_exact(
        seed in any::<u64>(),
        chunks in 1usize..48,
        chunk_points in 1usize..40,
        size in 4usize..24,
    ) {
        let mut tree = CoresetTree::new(CoresetConfig::new(size), seed, 7).unwrap();
        for id in 0..chunks {
            tree.insert_chunk(id, blob_chunk(chunk_points, seed, id as u64), chunk_points as f64)
                .unwrap();
            let ingested = ((id + 1) * chunk_points) as f64;
            let hist = tree.level_histogram();
            // Integer masses: grouped sums are exact, so == not ≈.
            let total: f64 = hist.values().map(|(_, w)| w).sum();
            prop_assert_eq!(total, ingested);
            prop_assert_eq!(tree.live_weight(), ingested);
            for (level, (buckets, weight)) in &hist {
                prop_assert_eq!(*buckets, 1, "binary counter: one bucket per level");
                // A level-ℓ bucket covers exactly 2^ℓ chunks.
                prop_assert_eq!(
                    *weight,
                    (chunk_points << level) as f64,
                    "level {} covers 2^{} chunks", level, level
                );
            }
            let stats = tree.stats();
            prop_assert_eq!(stats.lost_points, 0.0);
            prop_assert_eq!(stats.expired_points, 0.0);
            prop_assert_eq!(stats.live_buckets, (id + 1).count_ones() as usize);
        }
    }

    // (2) Query cost: the union an anytime query clusters is bounded by
    // live_buckets × size representatives, and live_buckets by the
    // popcount ≤ ⌈log₂ chunks⌉ + 1 ceiling.
    #[test]
    fn query_cost_is_bounded_by_levels_times_size(
        seed in any::<u64>(),
        chunks in 1usize..64,
        size in 4usize..16,
    ) {
        let mut tree = CoresetTree::new(CoresetConfig::new(size), seed, 3).unwrap();
        for id in 0..chunks {
            tree.insert_chunk(id, blob_chunk(30, seed, id as u64), 30.0).unwrap();
        }
        prop_assert_eq!(tree.live_buckets(), chunks.count_ones() as usize);
        prop_assert!(tree.live_buckets() as u32 <= bucket_ceiling(chunks));
        prop_assert!(tree.union().unwrap().len() <= tree.live_buckets() * size.max(30));
        let cfg = KMeansConfig { restarts: 1, ..KMeansConfig::paper(2, 5) };
        let out = tree.query_now(&cfg, 1).unwrap();
        // The engine-visible cost figure obeys the same bound.
        prop_assert!(out.input_centroids <= tree.live_buckets() * size.max(30));
        prop_assert!(out.mse.is_finite() && out.mse >= 0.0);
    }

    // Sliding window: evicted mass is *expired*, never *lost*, and the
    // audit still balances: live + expired == ingested.
    #[test]
    fn sliding_window_expires_mass_without_losing_it(
        seed in any::<u64>(),
        chunks in 2usize..40,
        window in 1usize..8,
    ) {
        let cfg = CoresetConfig { window: Some(window), ..CoresetConfig::new(8) };
        let mut tree = CoresetTree::new(cfg, seed, 11).unwrap();
        for id in 0..chunks {
            tree.insert_chunk(id, blob_chunk(20, seed, id as u64), 20.0).unwrap();
            let stats = tree.stats();
            prop_assert_eq!(stats.lost_points, 0.0);
            prop_assert_eq!(stats.live_weight + stats.expired_points, stats.ingested_points);
            // Live buckets only ever cover the window.
            for b in tree.buckets() {
                prop_assert!(b.last_chunk + window > id);
            }
        }
        if chunks > window {
            prop_assert!(tree.stats().expired_points > 0.0, "something must expire");
        }
    }

    // Exponential decay: each arriving chunk scales all pre-existing live
    // weight by λ, then adds its own mass — so the live weight follows
    // the recurrence exactly (and stays below the undecayed mass).
    #[test]
    fn decay_follows_the_weight_recurrence(
        seed in any::<u64>(),
        chunks in 2usize..24,
        decay in 0.5f64..0.99,
    ) {
        let cfg = CoresetConfig { decay: Some(decay), ..CoresetConfig::new(8) };
        let mut tree = CoresetTree::new(cfg, seed, 13).unwrap();
        let mut expect = 0.0f64;
        for id in 0..chunks {
            tree.insert_chunk(id, blob_chunk(20, seed, id as u64), 20.0).unwrap();
            expect = expect * decay + 20.0;
            let live = tree.live_weight();
            prop_assert!(
                (live - expect).abs() < 1e-6 * expect,
                "live {} vs recurrence {}", live, expect
            );
            prop_assert!(live < tree.stats().ingested_points || id == 0);
        }
    }
}

/// (2b) The ISSUE's memory-bound proof: a 10×-longer stream keeps live
/// buckets within the same logarithmic ceiling — memory does not grow
/// linearly with stream length.
#[test]
fn ten_times_longer_stream_keeps_live_buckets_logarithmic() {
    let size = 12;
    for chunks in [12usize, 120] {
        let mut tree = CoresetTree::new(CoresetConfig::new(size), 99, 1).unwrap();
        let mut peak = 0usize;
        for id in 0..chunks {
            tree.insert_chunk(id, blob_chunk(25, 99, id as u64), 25.0).unwrap();
            peak = peak.max(tree.live_buckets());
        }
        // Peak over the whole run, not just the final popcount: mid-run
        // the counter holds at most ⌈log₂ chunks⌉ + 1 buckets.
        assert!(
            peak as u32 <= bucket_ceiling(chunks),
            "{chunks} chunks peaked at {peak} live buckets"
        );
        // Live representatives (the actual memory) obey levels × size.
        assert!(tree.union().unwrap().len() <= (tree.max_level() as usize + 1) * size.max(25));
        assert_eq!(tree.stats().ingested_points, (chunks * 25) as f64);
    }
}

/// (4) Anytime = final: on a finite stream the last anytime query the
/// probe saw *is* the emitted terminal clustering, bit for bit.
#[test]
fn anytime_query_after_the_last_chunk_is_the_final_clustering() {
    let dir = tmpdir("anytime");
    let paths = vec![write_cell(&dir, 5, 240, 31)];
    let status = std::sync::Arc::new(pmkm_obs::StatusCell::new());
    let logical =
        LogicalPlan::new(paths, KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 41) });
    let mut plan = optimize_fixed_split(logical, &Resources::fixed(1 << 20, 2), 30);
    plan.coreset = Some(CoresetSpec { probe: Some(status.clone()), ..CoresetSpec::new(16) });
    let report = execute(&plan).unwrap();
    let cell = &report.cells[0];
    let last = status.coreset().expect("the probe saw at least one anytime query");
    let final_bits: Vec<u64> =
        cell.output.centroids.iter().flat_map(|p| p.iter().map(|v| v.to_bits())).collect();
    let anytime_bits: Vec<u64> =
        last.centroids.iter().flat_map(|p| p.iter().map(|v| v.to_bits())).collect();
    assert_eq!(final_bits, anytime_bits);
    assert_eq!(last.mse.to_bits(), cell.output.mse.to_bits());
    assert_eq!(last.ingested_points, 240.0);
    assert_eq!(last.lost_points, 0.0);
    // The probe never perturbs the clustering: a probe-free run emits
    // the same bits.
    let mut bare = plan.clone();
    bare.coreset = Some(CoresetSpec::new(16));
    let unprobed = execute(&bare).unwrap();
    let bare_bits: Vec<u64> = unprobed.cells[0]
        .output
        .centroids
        .iter()
        .flat_map(|p| p.iter().map(|v| v.to_bits()))
        .collect();
    assert_eq!(final_bits, bare_bits);
    std::fs::remove_dir_all(&dir).ok();
}

/// (5) Bounded regret: at every prefix of the stream, the anytime
/// query's MSE against the *raw* prefix stays within a small constant of
/// the serial weighted-Lloyd baseline clustering the same prefix — the
/// coreset answers mid-stream questions about the data it has seen, not
/// just about its compressed summary.
#[test]
fn mid_stream_query_mse_stays_within_the_serial_lloyd_bound() {
    let chunk_points = 40;
    let chunks = 12;
    let cfg = KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 61) };
    let mut tree = CoresetTree::new(CoresetConfig::new(16), 77, 2).unwrap();
    let mut prefix = Dataset::new(2).unwrap();
    for id in 0..chunks {
        let chunk = blob_chunk(chunk_points, 77, id as u64);
        for i in 0..chunk.len() {
            prefix.push(chunk.coords(i)).unwrap();
        }
        tree.insert_chunk(id, chunk, chunk_points as f64).unwrap();
        let out = tree.query_now(&cfg, 2).unwrap();
        let coreset_mse = pmkm_core::metrics::mse_against(&prefix, &out.centroids).unwrap();
        let serial = pmkm_baselines::serial_kmeans(&prefix, &cfg).unwrap().min_mse();
        assert!(
            coreset_mse <= 2.0 * serial + 1e-9,
            "chunk {id}: anytime MSE {coreset_mse} vs serial bound {serial}"
        );
    }
}
