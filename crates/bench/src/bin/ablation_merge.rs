//! Ablation of the §3.3 merge options: **collective** (option b, the
//! paper's choice and the library's only merge) vs **incremental** (option
//! a, which exists only here). The paper argues the collective merge is
//! more faithful because early chunks are not treated preferentially; this
//! harness measures that claim on the N sweep. Each cell's partials are
//! computed once, and both merges consume the same weighted sets.

use pmkm_bench::experiments::SweepConfig;
use pmkm_bench::report::{grouped, print_table, write_json};
use pmkm_core::{
    chunk_seed, kmeans, merge_collective, metrics, partial_kmeans, slice, Centroids, Dataset,
    Error, KMeansConfig, MergeOutput, PointSource, Result, SeedMode, SliceStrategy, WeightedSet,
};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct AblationRow {
    n: usize,
    mode: String,
    epm_mse: f64,
    data_mse: f64,
    merge_ms: f64,
}

type Merge = fn(&[WeightedSet], &KMeansConfig) -> Result<MergeOutput>;

const MERGES: [(&str, Merge); 2] = [
    ("collective", |sets, cfg| merge_collective(sets, cfg, 1)),
    ("incremental", merge_incremental),
];

/// The weighted centroid sets of `cell`'s non-empty chunks under the
/// paper's shuffled deal, each chunk seeded as the library pipeline seeds
/// it.
fn partials(cell: &Dataset, cfg: &KMeansConfig, splits: usize) -> Result<Vec<WeightedSet>> {
    let parts = slice(cell, splits, SliceStrategy::RandomOverlap, cfg.seed)?;
    let chunks = parts.iter().enumerate().filter(|(_, c)| !c.is_empty());
    chunks
        .map(|(i, c)| {
            let chunk_cfg = KMeansConfig { seed: chunk_seed(cfg.seed, i), ..*cfg };
            Ok(partial_kmeans(c, &chunk_cfg)?.centroids)
        })
        .collect()
}

/// Option (a): fold the sets in arrival order, re-clustering the running
/// weighted set (seeded with its heaviest centroids) with each new one.
/// `E_pm` is evaluated against every input centroid, so it compares
/// directly with the collective merge's.
fn merge_incremental(sets: &[WeightedSet], cfg: &KMeansConfig) -> Result<MergeOutput> {
    cfg.validate()?;
    let started = Instant::now();
    let dim = sets.iter().find(|s| !s.is_empty()).map(|s| s.dim()).ok_or(Error::EmptyDataset)?;
    let mut all = WeightedSet::new(dim)?;
    for s in sets {
        all.extend_from(s)?;
    }
    if all.len() <= cfg.k {
        // Too few inputs to cluster: both merges keep them verbatim.
        return merge_collective(sets, cfg, 1);
    }
    let fold_cfg = KMeansConfig { seed_mode: SeedMode::HeaviestPoints, restarts: 1, ..*cfg };
    let mut running = WeightedSet::new(dim)?;
    let mut iterations = 0;
    let mut converged = true;
    for s in sets.iter().filter(|s| !s.is_empty()) {
        running.extend_from(s)?;
        if running.len() <= cfg.k {
            continue; // not enough material to cluster yet
        }
        let out = kmeans(&running, &fold_cfg)?;
        iterations += out.total_iterations();
        converged &= out.best.converged;
        let mut next = WeightedSet::new(dim)?;
        for (c, &w) in out.best.centroids.iter().zip(&out.best.cluster_weights) {
            if w > 0.0 {
                next.push(c, w)?;
            }
        }
        running = next;
    }
    let centroids = Centroids::from_flat(dim, running.as_flat().to_vec())?;
    let ev = metrics::evaluate(&all, &centroids)?;
    Ok(MergeOutput {
        centroids,
        cluster_weights: ev.cluster_weights,
        epm: ev.sse,
        mse: ev.mse,
        iterations,
        converged,
        input_centroids: all.len(),
        elapsed: started.elapsed(),
    })
}

fn main() {
    let cfg = SweepConfig::from_args();
    let splits = 10usize;
    let mut rows = Vec::new();
    for &n in &cfg.sizes {
        for version in 0..cfg.versions {
            let cell = cfg.cell(n, version);
            let kmeans = cfg.kmeans_for(n, version);
            eprintln!("[ablation_merge] n={n} v={version} partials");
            let sets = partials(&cell, &kmeans, splits).expect("partial step");
            for (label, merge) in MERGES {
                eprintln!("[ablation_merge] n={n} v={version} {label}");
                let out = merge(&sets, &kmeans).expect("ablation case");
                let data_mse = metrics::mse_against(&cell, &out.centroids).expect("evaluation");
                rows.push(AblationRow {
                    n,
                    mode: label.into(),
                    epm_mse: out.mse,
                    data_mse,
                    merge_ms: out.elapsed.as_secs_f64() * 1e3,
                });
            }
        }
    }

    // Average over versions.
    let mut printable = Vec::new();
    let mut sizes = cfg.sizes.clone();
    sizes.sort_unstable();
    for &n in &sizes {
        for (mode, _) in MERGES {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Two chunks that each saw the same two far-apart blobs.
    fn chunk_sets() -> Vec<WeightedSet> {
        let mut a = WeightedSet::new(2).unwrap();
        a.push(&[0.1, 0.0], 48.0).unwrap();
        a.push(&[100.0, 100.2], 52.0).unwrap();
        let mut b = WeightedSet::new(2).unwrap();
        b.push(&[-0.1, 0.0], 50.0).unwrap();
        b.push(&[100.0, 99.8], 50.0).unwrap();
        vec![a, b]
    }

    fn cfg(k: usize) -> KMeansConfig {
        KMeansConfig::paper(k, 17)
    }

    #[test]
    fn incremental_merge_also_finds_blobs() {
        let out = merge_incremental(&chunk_sets(), &cfg(2)).unwrap();
        assert_eq!(out.centroids.k(), 2);
        let mut xs: Vec<f64> = out.centroids.iter().map(|c| c[0]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(xs[0].abs() < 0.2);
        assert!((xs[1] - 100.0).abs() < 0.2);
    }

    #[test]
    fn incremental_epm_evaluated_on_full_input() {
        // E_pm must be computed against all 4 original centroids, so it is
        // directly comparable with the collective number.
        let sets = chunk_sets();
        let col = merge_collective(&sets, &cfg(2), 1).unwrap();
        let inc = merge_incremental(&sets, &cfg(2)).unwrap();
        assert_eq!(col.input_centroids, inc.input_centroids);
        // Both recover the same 2-blob structure here.
        assert!((col.epm - inc.epm).abs() < 1e-9, "{} vs {}", col.epm, inc.epm);
    }

    #[test]
    fn empty_sets_among_inputs_are_skipped() {
        let mut sets = chunk_sets();
        sets.push(WeightedSet::new(2).unwrap());
        let out = merge_incremental(&sets, &cfg(2)).unwrap();
        assert_eq!(out.input_centroids, 4);
        assert_eq!(out.centroids.k(), 2);
        let empty = vec![WeightedSet::new(2).unwrap()];
        assert_eq!(merge_incremental(&empty, &cfg(2)), Err(Error::EmptyDataset));
    }

    #[test]
    fn incremental_mode_runs_end_to_end() {
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..40 {
            let o = (i % 10) as f64 * 0.02;
            ds.push(&[o, o]).unwrap();
            ds.push(&[30.0 + o, 30.0 - o]).unwrap();
            ds.push(&[-30.0 + o, 30.0 + o]).unwrap();
        }
        let kmeans = KMeansConfig::paper(3, 11);
        let out = merge_incremental(&partials(&ds, &kmeans, 5).unwrap(), &kmeans).unwrap();
        assert_eq!(out.centroids.k(), 3);
        let mse = metrics::mse_against(&ds, &out.centroids).unwrap();
        assert!(mse < 2.0, "mse = {mse}");
    }
}
