//! Ablation of the §3.3 merge options: **collective** (option b, the
//! paper's choice) vs **incremental** (option a). The paper argues the
//! collective merge is more faithful because early chunks are not treated
//! preferentially; this harness measures that claim on the N sweep.

use pmkm_bench::experiments::SweepConfig;
use pmkm_bench::report::{grouped, print_table, write_json};
use pmkm_core::{metrics, partial_merge, MergeMode, PartialMergeConfig};
use serde::Serialize;

#[derive(Serialize)]
struct AblationRow {
    n: usize,
    mode: String,
    epm_mse: f64,
    data_mse: f64,
    merge_ms: f64,
}

fn main() {
    let cfg = SweepConfig::from_args();
    let splits = 10usize;
    let mut rows = Vec::new();
    for &n in &cfg.sizes {
        for version in 0..cfg.versions {
            let cell = cfg.cell(n, version);
            for (mode, label) in
                [(MergeMode::Collective, "collective"), (MergeMode::Incremental, "incremental")]
            {
                eprintln!("[ablation_merge] n={n} v={version} {label}");
                let pm = PartialMergeConfig {
                    kmeans: cfg.kmeans_for(n, version),
                    partitions: splits,
                    merge_mode: mode,
                    merge_restarts: 1,
                    slicing: pmkm_core::SliceStrategy::RandomOverlap,
                };
                let out = partial_merge(&cell, &pm).expect("ablation case");
                let data_mse =
                    metrics::mse_against(&cell, &out.merge.centroids).expect("evaluation");
                rows.push(AblationRow {
                    n,
                    mode: label.into(),
                    epm_mse: out.merge.mse,
                    data_mse,
                    merge_ms: out.merge.elapsed.as_secs_f64() * 1e3,
                });
            }
        }
    }

    // Average over versions.
    let mut printable = Vec::new();
    let mut sizes = cfg.sizes.clone();
    sizes.sort_unstable();
    for &n in &sizes {
        for mode in ["collective", "incremental"] {
            let group: Vec<&AblationRow> =
                rows.iter().filter(|r| r.n == n && r.mode == mode).collect();
            if group.is_empty() {
                continue;
            }
            let m = group.len() as f64;
            printable.push(vec![
                n.to_string(),
                mode.to_string(),
                grouped(group.iter().map(|r| r.epm_mse).sum::<f64>() / m),
                grouped(group.iter().map(|r| r.data_mse).sum::<f64>() / m),
                format!("{:.1}", group.iter().map(|r| r.merge_ms).sum::<f64>() / m),
            ]);
        }
    }
    print_table(
        "§3.3 merge ablation — collective vs incremental (10-split)",
        &["N", "mode", "E_pm MSE", "data MSE", "merge ms"],
        &printable,
    );
    write_json("ablation_merge", &rows).expect("write JSON");
}
