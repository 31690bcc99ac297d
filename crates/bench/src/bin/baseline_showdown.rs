//! Extension experiment: partial/merge k-means against the §2.2 related
//! work — BIRCH and a STREAM/LOCALSEARCH-style streaming k-median — on the
//! same cells, comparing wall time and data-space MSE (all algorithms
//! evaluated against the original points for a fair quality axis).

use pmkm_baselines::{
    birch, clarans, minibatch_kmeans, serial_kmeans, stream_lsearch, BirchConfig, ClaransConfig,
    MiniBatchConfig, StreamLsConfig,
};
use pmkm_bench::experiments::SweepConfig;
use pmkm_bench::report::{grouped, ms, print_table, write_json};
use pmkm_core::{metrics, partial_merge, PartialMergeConfig, PointSource};
use serde::Serialize;

#[derive(Serialize)]
struct ShowdownRow {
    n: usize,
    algo: String,
    time_ms: f64,
    data_mse: f64,
    representation_size: usize,
}

fn main() {
    let cfg = SweepConfig::from_args();
    let mut rows = Vec::new();
    for &n in &cfg.sizes {
        for version in 0..cfg.versions.min(2) {
            let cell = cfg.cell(n, version);
            let kcfg = cfg.kmeans_for(n, version);
            eprintln!("[showdown] n={n} v={version}");

            // Serial k-means.
            let t = std::time::Instant::now();
            let serial = serial_kmeans(&cell, &kcfg).expect("serial");
            rows.push(ShowdownRow {
                n,
                algo: "serial-kmeans".into(),
                time_ms: t.elapsed().as_secs_f64() * 1e3,
                data_mse: serial.outcome.best.mse,
                representation_size: serial.outcome.best.centroids.k(),
            });

            // Partial/merge (10-split).
            let pm = PartialMergeConfig {
                kmeans: kcfg,
                partitions: 10,
                merge_restarts: 1,
                slicing: pmkm_core::SliceStrategy::RandomOverlap,
            };
            let t = std::time::Instant::now();
            let out = partial_merge(&cell, &pm).expect("partial/merge");
            let dmse = metrics::mse_against(&cell, &out.merge.centroids).expect("eval");
            rows.push(ShowdownRow {
                n,
                algo: "partial/merge".into(),
                time_ms: t.elapsed().as_secs_f64() * 1e3,
                data_mse: dmse,
                representation_size: out.merge.centroids.k(),
            });

            // BIRCH: threshold tuned to the generator's within-regime
            // spread (σ ∈ 5..40 over 6 dims ⇒ cluster radius ~30-100).
            let bcfg = BirchConfig {
                branching: 8,
                max_leaf_entries: 16,
                threshold: 60.0,
                k: cfg.k,
                restarts: kcfg.restarts,
                seed: kcfg.seed,
            };
            let t = std::time::Instant::now();
            let b = birch(&cell, &bcfg).expect("birch");
            let dmse = metrics::mse_against(&cell, &b.centroids).expect("eval");
            rows.push(ShowdownRow {
                n,
                algo: "birch".into(),
                time_ms: t.elapsed().as_secs_f64() * 1e3,
                data_mse: dmse,
                representation_size: b.leaf_entries,
            });

            // STREAM-LS (same 10 chunks).
            let scfg = StreamLsConfig {
                k: cfg.k,
                max_retained: cfg.k * 12,
                swap_attempts: 150,
                seed: kcfg.seed,
            };
            let t = std::time::Instant::now();
            let s = stream_lsearch(&cell, 10, scfg).expect("stream-ls");
            let dmse =
                metrics::mse_against(&cell, &s.centroids().expect("centroids")).expect("eval");
            rows.push(ShowdownRow {
                n,
                algo: "stream-ls".into(),
                time_ms: t.elapsed().as_secs_f64() * 1e3,
                data_mse: dmse,
                representation_size: s.centers.len(),
            });

            // Mini-batch k-means (post-2004 comparator): one "epoch" worth
            // of samples.
            let mcfg = MiniBatchConfig {
                k: cfg.k,
                batch_size: 256,
                steps: (n / 256).max(50),
                seed: kcfg.seed,
            };
            let t = std::time::Instant::now();
            let mb = minibatch_kmeans(&cell, &mcfg).expect("minibatch");
            rows.push(ShowdownRow {
                n,
                algo: "minibatch".into(),
                time_ms: t.elapsed().as_secs_f64() * 1e3,
                data_mse: mb.mse,
                representation_size: mb.centroids.k(),
            });

            // CLARANS (bounded neighbor search so large N stays tractable).
            let ccfg =
                ClaransConfig { k: cfg.k, num_local: 2, max_neighbors: 250, seed: kcfg.seed };
            let t = std::time::Instant::now();
            let c = clarans(&cell, &ccfg).expect("clarans");
            let dmse = metrics::mse_against(&cell, &c.medoids).expect("eval");
            rows.push(ShowdownRow {
                n,
                algo: "clarans".into(),
                time_ms: t.elapsed().as_secs_f64() * 1e3,
                data_mse: dmse,
                representation_size: c.medoids.k(),
            });
        }
    }

    // Average and print.
    let mut printable = Vec::new();
    let mut sizes = cfg.sizes.clone();
    sizes.sort_unstable();
    for &n in &sizes {
        for algo in ["serial-kmeans", "partial/merge", "birch", "stream-ls", "clarans", "minibatch"]
        {
            let group: Vec<&ShowdownRow> =
                rows.iter().filter(|r| r.n == n && r.algo == algo).collect();
            if group.is_empty() {
                continue;
            }
            let m = group.len() as f64;
            printable.push(vec![
                n.to_string(),
                algo.to_string(),
                ms(group.iter().map(|r| r.time_ms).sum::<f64>() / m),
                grouped(group.iter().map(|r| r.data_mse).sum::<f64>() / m),
                format!(
                    "{:.0}",
                    group.iter().map(|r| r.representation_size as f64).sum::<f64>() / m
                ),
            ]);
        }
    }
    print_table(
        "Related-work showdown — data-space MSE and wall time",
        &["N", "algorithm", "time", "data MSE", "repr size"],
        &printable,
    );
    write_json("baseline_showdown", &rows).expect("write JSON");
}
