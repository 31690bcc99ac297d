//! Ablation of the §6 future-work slicing strategies: random-overlap (the
//! paper's setup), salami (contiguous arrival order), and attribute-range
//! (disjoint data-space subcells).
//!
//! Two arrival scenarios are measured, because salami slicing only differs
//! from random when arrival order carries structure:
//! * `iid` — points arrive in random order (the paper's §3.1 assumption),
//! * `correlated` — points arrive sorted by attribute 0, emulating a
//!   stripe-wise scan that has not been shuffled.

use pmkm_bench::experiments::SweepConfig;
use pmkm_bench::report::{grouped, print_table, write_json};
use pmkm_core::{metrics, partial_merge, Dataset, PartialMergeConfig, PointSource, SliceStrategy};
use serde::Serialize;

#[derive(Serialize)]
struct SliceRow {
    n: usize,
    scenario: String,
    strategy: String,
    epm_mse: f64,
    data_mse: f64,
}

fn sort_by_attr0(ds: &Dataset) -> Dataset {
    let mut idx: Vec<usize> = (0..ds.len()).collect();
    idx.sort_by(|&a, &b| {
        ds.coords(a)[0].partial_cmp(&ds.coords(b)[0]).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = Dataset::with_capacity(ds.dim(), ds.len()).unwrap();
    for i in idx {
        out.push(ds.coords(i)).unwrap();
    }
    out
}

fn main() {
    let cfg = SweepConfig::from_args();
    let strategies = [
        (SliceStrategy::RandomOverlap, "random-overlap"),
        (SliceStrategy::Salami, "salami"),
        (SliceStrategy::AttributeRange { dim: 0 }, "attr-range"),
    ];
    let mut rows = Vec::new();
    for &n in &cfg.sizes {
        for version in 0..cfg.versions {
            let iid = cfg.cell(n, version);
            let correlated = sort_by_attr0(&iid);
            for (scenario, cell) in [("iid", &iid), ("correlated", &correlated)] {
                for (strategy, label) in strategies {
                    eprintln!("[slicing] n={n} v={version} {scenario} {label}");
                    let pm = PartialMergeConfig {
                        kmeans: cfg.kmeans_for(n, version),
                        partitions: 10,
                        merge_restarts: 1,
                        slicing: strategy,
                    };
                    let out = partial_merge(cell, &pm).expect("slicing case");
                    let data_mse = metrics::mse_against(cell, &out.merge.centroids).expect("eval");
                    rows.push(SliceRow {
                        n,
                        scenario: scenario.into(),
                        strategy: label.into(),
                        epm_mse: out.merge.mse,
                        data_mse,
                    });
                }
            }
        }
    }

    let mut printable = Vec::new();
    let mut sizes = cfg.sizes.clone();
    sizes.sort_unstable();
    for &n in &sizes {
        for scenario in ["iid", "correlated"] {
            for (_, label) in strategies {
                let group: Vec<&SliceRow> = rows
                    .iter()
                    .filter(|r| r.n == n && r.scenario == scenario && r.strategy == label)
                    .collect();
                if group.is_empty() {
                    continue;
                }
                let m = group.len() as f64;
                printable.push(vec![
                    n.to_string(),
                    scenario.to_string(),
                    label.to_string(),
                    grouped(group.iter().map(|r| r.epm_mse).sum::<f64>() / m),
                    grouped(group.iter().map(|r| r.data_mse).sum::<f64>() / m),
                ]);
            }
        }
    }
    print_table(
        "§6 slicing-strategy ablation (10-split)",
        &["N", "arrival", "strategy", "E_pm MSE", "data MSE"],
        &printable,
    );
    write_json("slicing", &rows).expect("write JSON");
}
