//! Ablation of the §3.3 ECVQ remark: fixed-k partial k-means vs
//! entropy-constrained VQ as the partial step, across a λ sweep. ECVQ
//! finds "an optimal k for a partition on the fly"; this harness shows the
//! rate/quality trade-off it buys (fewer transmitted centroids vs merged
//! quality).

use pmkm_bench::experiments::SweepConfig;
use pmkm_bench::report::{grouped, print_table, write_json};
use pmkm_core::ecvq::EcvqConfig;
use pmkm_core::{metrics, partial_merge, partial_merge_ecvq};
use serde::Serialize;

#[derive(Serialize)]
struct EcvqRow {
    n: usize,
    arm: String,
    transmitted_centroids: usize,
    data_mse: f64,
    epm_mse: f64,
}

fn main() {
    let cfg = SweepConfig::from_args();
    let splits = 10usize;
    let mut rows = Vec::new();
    for &n in &cfg.sizes {
        for version in 0..cfg.versions {
            let cell = cfg.cell(n, version);
            let mut pm = pmkm_core::PartialMergeConfig {
                kmeans: cfg.kmeans_for(n, version),
                partitions: splits,
                ..pmkm_core::PartialMergeConfig::paper(cfg.k, splits, 0)
            };
            pm.merge_restarts = 3;

            eprintln!("[ablation_ecvq] n={n} v={version} fixed-k");
            let fixed = partial_merge(&cell, &pm).expect("fixed-k arm");
            rows.push(EcvqRow {
                n,
                arm: "fixed-k".into(),
                transmitted_centroids: fixed.merge.input_centroids,
                data_mse: metrics::mse_against(&cell, &fixed.merge.centroids).expect("eval"),
                epm_mse: fixed.merge.mse,
            });

            for lambda in [10.0f64, 100.0, 1000.0] {
                eprintln!("[ablation_ecvq] n={n} v={version} ecvq λ={lambda}");
                let ecfg = EcvqConfig {
                    max_k: cfg.k,
                    lambda,
                    seed: pm.kmeans.seed,
                    ..EcvqConfig::default()
                };
                let out = partial_merge_ecvq(&cell, &pm, &ecfg).expect("ecvq arm");
                rows.push(EcvqRow {
                    n,
                    arm: format!("ecvq λ={lambda}"),
                    transmitted_centroids: out.merge.input_centroids,
                    data_mse: metrics::mse_against(&cell, &out.merge.centroids).expect("eval"),
                    epm_mse: out.merge.mse,
                });
            }
        }
    }

    let mut printable = Vec::new();
    let mut sizes = cfg.sizes.clone();
    sizes.sort_unstable();
    let arms = ["fixed-k", "ecvq λ=10", "ecvq λ=100", "ecvq λ=1000"];
    for &n in &sizes {
        for arm in arms {
            let group: Vec<&EcvqRow> = rows.iter().filter(|r| r.n == n && r.arm == arm).collect();
            if group.is_empty() {
                continue;
            }
            let m = group.len() as f64;
            printable.push(vec![
                n.to_string(),
                arm.to_string(),
                format!(
                    "{:.0}",
                    group.iter().map(|r| r.transmitted_centroids as f64).sum::<f64>() / m
                ),
                grouped(group.iter().map(|r| r.epm_mse).sum::<f64>() / m),
                grouped(group.iter().map(|r| r.data_mse).sum::<f64>() / m),
            ]);
        }
    }
    print_table(
        "§3.3 ECVQ ablation — fixed-k vs adaptive-k partial step (10-split)",
        &["N", "partial step", "sent centroids", "E_pm MSE", "data MSE"],
        &printable,
    );
    write_json("ablation_ecvq", &rows).expect("write JSON");
}
