//! Cross-crate integration tests: swath simulation → binning → stream
//! engine → merge results, compression round trips, and the qualitative
//! claims of the paper's evaluation at reduced scale.

use pmkm_baselines::serial_kmeans;
use pmkm_bench::experiments::{mean_rows, run_split, run_sweep, SweepConfig};
use pmkm_compress::{compress_cell, faithfulness, reconstruct};
use pmkm_core::{metrics, partial_merge, KMeansConfig, PartialMergeConfig, PointSource};
use pmkm_data::binner::bin_stripes;
use pmkm_data::{CellConfig, GridBucket, GridCell, SwathConfig, SwathSimulator};
use pmkm_stream::prelude::*;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("pmkm_it_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn swath_to_engine_end_to_end() {
    // Simulate acquisition, bin into buckets, cluster every bucket through
    // the stream engine, and check conservation invariants per cell.
    let dir = tmpdir("swath_engine");
    let mut sim = SwathSimulator::new(SwathConfig {
        orbits: 3,
        lat_range: (-4.0, 4.0),
        along_track_step_deg: 0.05,
        cross_track_samples: 8,
        attrs_dim: 4,
        components_per_cell: 3,
        seed: 31,
        ..SwathConfig::default()
    })
    .unwrap();
    let stripes = sim.write_stripes(&dir.join("stripes")).unwrap();
    let summary = bin_stripes(&stripes, &dir.join("buckets")).unwrap();
    assert!(summary.buckets.len() > 5);

    // Cluster the five fullest buckets.
    let mut sizes: Vec<(usize, &std::path::PathBuf)> = summary
        .buckets
        .iter()
        .map(|(_, p)| (GridBucket::read_from(p).unwrap().points.len(), p))
        .collect();
    sizes.sort_by_key(|(n, _)| std::cmp::Reverse(*n));
    let paths: Vec<std::path::PathBuf> = sizes.iter().take(5).map(|(_, p)| (*p).clone()).collect();
    let expected: Vec<usize> = sizes.iter().take(5).map(|(n, _)| *n).collect();

    let logical =
        LogicalPlan::new(paths, KMeansConfig { restarts: 2, ..KMeansConfig::paper(8, 5) });
    let plan = optimize_fixed_split(logical, &Resources::fixed(1 << 20, 2), 64);
    let report = execute(&plan).unwrap();
    assert_eq!(report.cells.len(), 5);
    let mut got: Vec<usize> = report
        .cells
        .iter()
        .map(|c| c.output.cluster_weights.iter().sum::<f64>() as usize)
        .collect();
    got.sort_unstable_by(|a, b| b.cmp(a));
    let mut want = expected.clone();
    want.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(got, want, "every binned point must be accounted for");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_and_core_pipeline_agree_structurally() {
    // Same cell through the stream engine (sequential chunking) and the
    // in-memory pipeline (shuffled round-robin chunking): chunk layouts and
    // seeds differ by design, but both must conserve weight, emit k
    // centroids, and land in the same quality regime.
    let dir = tmpdir("parity");
    let n = 6_000usize;
    let cell = pmkm_data::generator::generate_cell(&CellConfig::paper(n, 3)).unwrap();
    let gc = GridCell::new(50, 60).unwrap();
    let path = dir.join(gc.bucket_file_name());
    GridBucket { cell: gc, points: cell.clone() }.write_to(&path).unwrap();

    // Best-of-2 at k=20 is high-variance: a single unlucky seeding on either
    // path can push the MSE ratio outside the shared-regime band. Four
    // restarts keep both paths near good optima regardless of RNG stream.
    let kcfg = KMeansConfig { restarts: 4, ..KMeansConfig::paper(20, 9) };
    let plan = optimize_fixed_split(
        LogicalPlan::new(vec![path], kcfg),
        &Resources::fixed(16 << 20, 2),
        n / 5,
    );
    let engine = execute(&plan).unwrap();
    let pm_cfg =
        PartialMergeConfig { kmeans: kcfg, partitions: 5, ..PartialMergeConfig::paper(20, 5, 9) };
    let core = partial_merge(&cell, &pm_cfg).unwrap();

    let engine_out = &engine.cells[0].output;
    assert_eq!(engine.cells[0].chunks.len(), core.partitions);
    assert_eq!(engine_out.centroids.k(), core.merge.centroids.k());
    let ew: f64 = engine_out.cluster_weights.iter().sum();
    let cw: f64 = core.merge.cluster_weights.iter().sum();
    assert_eq!(ew, n as f64);
    assert_eq!(cw, n as f64);
    let engine_mse = metrics::mse_against(&cell, &engine_out.centroids).unwrap();
    let core_mse = metrics::mse_against(&cell, &core.merge.centroids).unwrap();
    let ratio = engine_mse / core_mse;
    assert!((0.5..2.0).contains(&ratio), "quality regimes diverged: {ratio}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compression_round_trip_preserves_moments() {
    let cell = pmkm_data::generator::generate_cell(&CellConfig::paper(4_000, 77)).unwrap();
    let cfg = PartialMergeConfig {
        kmeans: KMeansConfig { restarts: 3, ..KMeansConfig::paper(30, 5) },
        ..PartialMergeConfig::paper(30, 5, 5)
    };
    let out = compress_cell(&cell, &cfg).unwrap();
    assert!(out.summary.ratio > 10.0, "ratio = {}", out.summary.ratio);

    let faith = faithfulness(&cell, &out.histogram).unwrap();
    assert!(faith.mean_rel_error < 0.02, "mean err = {}", faith.mean_rel_error);
    assert!(faith.cov_rel_error < 0.30, "cov err = {}", faith.cov_rel_error);

    // Reconstruct a surrogate and compare first moments with the original.
    let surrogate = reconstruct(&out.histogram, 4_000, 1).unwrap();
    let orig = pmkm_data::stats::summarize(&cell).unwrap();
    let rec = pmkm_data::stats::summarize(&surrogate).unwrap();
    for d in 0..cell.dim() {
        let scale = orig[d].variance.sqrt().max(1.0);
        assert!(
            (orig[d].mean - rec[d].mean).abs() / scale < 0.25,
            "dim {d}: mean {} vs {}",
            orig[d].mean,
            rec[d].mean
        );
    }
}

#[test]
fn paper_claim_partial_merge_wins_at_large_n() {
    // §5.2: "at N = 12,500, partial/merge breaks even, and the MSE and
    // execution time … is significantly better than a serial k-means."
    // At reduced restart counts the time advantage is already decisive.
    let cfg = SweepConfig { k: 40, restarts: 2, versions: 1, sizes: vec![25_000], seed: 0xBEEF };
    let serial = pmkm_bench::experiments::run_serial(&cfg, 25_000, 0);
    let split10 = run_split(&cfg, 25_000, 0, 10);
    assert!(
        split10.overall_ms < serial.overall_ms,
        "10-split ({:.0} ms) should beat serial ({:.0} ms)",
        split10.overall_ms,
        serial.overall_ms
    );
    // The paper's Min MSE metric also favors partial/merge at this size.
    assert!(
        split10.min_mse < serial.min_mse,
        "10-split MSE {} vs serial {}",
        split10.min_mse,
        serial.min_mse
    );
}

#[test]
fn paper_claim_small_n_serial_is_fine() {
    // §5.2: for very small cells the serial algorithm is at least as good
    // and much faster (partial/merge pays overhead for nothing).
    let cfg = SweepConfig { k: 40, restarts: 2, versions: 1, sizes: vec![250], seed: 0xF00D };
    let serial = pmkm_bench::experiments::run_serial(&cfg, 250, 0);
    let split10 = run_split(&cfg, 250, 0, 10);
    // Quality: serial sees all points at once; it must not be (much) worse.
    assert!(serial.data_mse <= split10.data_mse * 1.5 + 1.0);
}

#[test]
fn sweep_rows_serialize_and_average() {
    let cfg = SweepConfig { k: 6, restarts: 2, versions: 2, sizes: vec![400], seed: 2 };
    let rows = run_sweep(&cfg);
    assert_eq!(rows.len(), 6);
    let json = serde_json::to_string(&rows).unwrap();
    let back: Vec<pmkm_bench::experiments::CaseRow> = serde_json::from_str(&json).unwrap();
    assert_eq!(back.len(), rows.len());
    let means = mean_rows(&rows);
    assert_eq!(means.len(), 3);
}

#[test]
fn serial_baseline_equals_partial_with_one_split() {
    // partial/merge with p = 1 degenerates to serial k-means plus a
    // passthrough merge: data-space quality must match the serial baseline
    // built from the same (seed-derived) restart streams.
    let cell = pmkm_data::generator::generate_cell(&CellConfig::paper(2_000, 4)).unwrap();
    let kcfg = KMeansConfig { restarts: 3, ..KMeansConfig::paper(10, 21) };
    let serial = serial_kmeans(&cell, &kcfg).unwrap();
    let pm =
        PartialMergeConfig { kmeans: kcfg, partitions: 1, ..PartialMergeConfig::paper(10, 1, 21) };
    let merged = partial_merge(&cell, &pm).unwrap();
    let pm_mse = metrics::mse_against(&cell, &merged.merge.centroids).unwrap();
    // Not bit-identical (the chunk derives its own seed stream) but the
    // same algorithm at the same scale: identical quality regime.
    let ratio = pm_mse / serial.outcome.best.mse;
    assert!((0.5..2.0).contains(&ratio), "ratio = {ratio}");
    assert_eq!(merged.merge.epm, 0.0, "single split must passthrough-merge");
}

#[test]
fn engine_aborts_cleanly_on_corrupt_bucket() {
    // Failure injection: a bucket whose payload was flipped must abort the
    // whole pipeline with a checksum error — no hang, no partial results
    // silently returned.
    let dir = tmpdir("corrupt");
    let cell = pmkm_data::generator::generate_cell(&CellConfig::paper(2_000, 8)).unwrap();
    let good_cell = GridCell::new(10, 10).unwrap();
    let bad_cell = GridCell::new(11, 11).unwrap();
    let good = dir.join(good_cell.bucket_file_name());
    let bad = dir.join(bad_cell.bucket_file_name());
    GridBucket { cell: good_cell, points: cell.clone() }.write_to(&good).unwrap();
    GridBucket { cell: bad_cell, points: cell }.write_to(&bad).unwrap();
    // Flip one payload byte of the bad bucket.
    let mut bytes = std::fs::read(&bad).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&bad, bytes).unwrap();

    let plan = optimize_fixed_split(
        LogicalPlan::new(
            vec![good, bad],
            KMeansConfig { restarts: 1, ..KMeansConfig::paper(4, 1) },
        ),
        &Resources::fixed(1 << 20, 2),
        500,
    );
    let started = std::time::Instant::now();
    let err = pmkm_stream::execute(&plan);
    assert!(err.is_err(), "corrupt bucket must fail the run");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "pipeline must not hang on corruption"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_error_names_the_root_cause() {
    let dir = tmpdir("rootcause");
    let cell_id = GridCell::new(12, 12).unwrap();
    let path = dir.join(cell_id.bucket_file_name());
    std::fs::write(&path, b"definitely not a bucket file, padded past the header").unwrap();
    let plan = optimize_fixed_split(
        LogicalPlan::new(vec![path], KMeansConfig::paper(4, 1)),
        &Resources::fixed(1 << 20, 2),
        500,
    );
    match pmkm_stream::execute(&plan) {
        Err(pmkm_stream::EngineError::Data(e)) => {
            assert!(
                e.to_string().contains("magic") || e.to_string().contains("format"),
                "unexpected data error: {e}"
            );
        }
        other => panic!("expected Data error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn observed_partial_merge_reports_dataset_and_monotone_trajectories() {
    // The observability satellite's core invariant: an observed
    // partial/merge run yields a RunReport whose total point count matches
    // the dataset exactly and whose per-chunk MSE trajectories — Lloyd's
    // objective after every assign step — are monotonically non-increasing.
    let points = pmkm_data::generator::generate_cell(&CellConfig::paper(3_000, 5)).unwrap();
    let cfg = PartialMergeConfig {
        kmeans: KMeansConfig { restarts: 3, ..KMeansConfig::paper(8, 5) },
        partitions: 4,
        ..PartialMergeConfig::paper(8, 4, 5)
    };
    let rec = pmkm_obs::Recorder::new();
    let (result, report) = pmkm_core::partial_merge_observed(&points, &cfg, Some(&rec)).unwrap();

    assert_eq!(report.total_points(), points.len());
    assert_eq!(report.cells.len(), 1);
    assert_eq!(report.cells[0].chunks.len(), result.chunks.len());
    for chunk in &report.cells[0].chunks {
        let t = &chunk.mse_trajectory;
        assert!(t.len() >= 2, "chunk {} trajectory too short: {t:?}", chunk.chunk);
        for w in t.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "chunk {} trajectory increased: {} -> {}",
                chunk.chunk,
                w[0],
                w[1]
            );
        }
        assert!((t[t.len() - 1] - chunk.best_mse).abs() <= 1e-9 * chunk.best_mse.max(1.0));
    }

    // The counters agree with the report's own accounting.
    let snap = report.metrics;
    let counter =
        |name: &str| snap.counters.iter().find(|c| c.name == name).map(|c| c.value).unwrap_or(0);
    assert_eq!(counter("partial_points_total"), points.len() as u64);
    assert_eq!(counter("partial_chunks_total"), result.chunks.len() as u64);
    assert!(counter("lloyd_iterations_total") > 0);

    // Observation must not change the clustering itself.
    let unobserved = partial_merge(&points, &cfg).unwrap();
    assert_eq!(unobserved.merge.centroids, result.merge.centroids);
    assert_eq!(unobserved.merge.epm, result.merge.epm);
}

#[test]
fn observed_engine_run_report_round_trips_and_balances() {
    // Engine-level observability: the RunReport survives JSON round trips
    // losslessly, and its queue-depth histograms account for every send.
    let dir = tmpdir("obs_engine");
    let cell_id = GridCell::new(33, 44).unwrap();
    let points = pmkm_data::generator::generate_cell(&CellConfig::paper(2_500, 9)).unwrap();
    let n = points.len();
    let path = dir.join(cell_id.bucket_file_name());
    GridBucket { cell: cell_id, points }.write_to(&path).unwrap();

    let plan = optimize_fixed_split(
        LogicalPlan::new(vec![path], KMeansConfig { restarts: 2, ..KMeansConfig::paper(6, 3) }),
        &Resources::fixed(1 << 20, 2),
        500,
    );
    let rec = std::sync::Arc::new(pmkm_obs::Recorder::new());
    let engine = pmkm_stream::execute_with_faults(&plan, Some(rec.clone()), None).unwrap();
    let report = engine.run_report(Some(&rec));

    assert_eq!(report.total_points(), n);
    let json = serde_json::to_string_pretty(&report).unwrap();
    let back: pmkm_obs::RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);

    for q in &report.queues {
        assert_eq!(
            q.depth.counts.iter().sum::<u64>(),
            q.sends,
            "queue {} depth histogram does not balance",
            q.name
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
