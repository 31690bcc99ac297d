//! The shared experiment sweep behind Table 2 and Figures 6–8.
//!
//! One *case* = (cell size `N`, algorithm, dataset version). Algorithms:
//! serial best-of-R k-means, and partial/merge with 5 or 10 splits —
//! exactly the paper's §5.1 comparison matrix (k = 40, D = 6, R = 10,
//! five data versions per configuration).

use pmkm_baselines::serial_kmeans;
use pmkm_core::{metrics, partial_merge, Dataset, KMeansConfig, PartialMergeConfig};
use pmkm_data::generator::{paper_cell, version_seed, PAPER_K, PAPER_SWEEP};
use serde::{Deserialize, Serialize};

/// Sweep parameters (scaled-down defaults keep a full run laptop-friendly;
/// `--full` reproduces the paper's exact R = 10 / 5-version setting).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Cluster count (paper: 40).
    pub k: usize,
    /// Restarts per clustering (paper: 10).
    pub restarts: usize,
    /// Dataset versions per configuration (paper: 5).
    pub versions: u32,
    /// Cell sizes to sweep.
    pub sizes: Vec<usize>,
    /// Base seed for data generation and clustering.
    pub seed: u64,
}

impl SweepConfig {
    /// The paper's full experimental grid.
    pub fn paper() -> Self {
        Self { k: PAPER_K, restarts: 10, versions: 5, sizes: PAPER_SWEEP.to_vec(), seed: 0xC0FFEE }
    }

    /// A reduced grid for quick regeneration (same sizes, fewer repeats).
    pub fn quick() -> Self {
        Self { restarts: 3, versions: 2, ..Self::paper() }
    }

    /// Parses command-line arguments:
    /// `--full`, `--k=K`, `--restarts=R`, `--versions=V`, `--seed=S`,
    /// `--sizes=a,b,c`. Unknown arguments abort with a usage message.
    pub fn from_args() -> Self {
        let mut cfg = Self::quick();
        for arg in std::env::args().skip(1) {
            if arg == "--reuse" {
                // handled by `reuse_requested`
            } else if arg == "--full" {
                cfg = Self::paper();
            } else if let Some(v) = arg.strip_prefix("--k=") {
                cfg.k = v.parse().expect("--k=<usize>");
            } else if let Some(v) = arg.strip_prefix("--restarts=") {
                cfg.restarts = v.parse().expect("--restarts=<usize>");
            } else if let Some(v) = arg.strip_prefix("--versions=") {
                cfg.versions = v.parse().expect("--versions=<u32>");
            } else if let Some(v) = arg.strip_prefix("--seed=") {
                cfg.seed = v.parse().expect("--seed=<u64>");
            } else if let Some(v) = arg.strip_prefix("--sizes=") {
                cfg.sizes =
                    v.split(',').map(|s| s.trim().parse().expect("--sizes=<n,n,...>")).collect();
            } else {
                eprintln!(
                    "unknown argument '{arg}'; supported: --full --k= --restarts= \
                     --versions= --seed= --sizes=a,b,c"
                );
                std::process::exit(2);
            }
        }
        cfg
    }

    /// The k-means configuration for `(n, version)`.
    pub fn kmeans_for(&self, n: usize, version: u32) -> KMeansConfig {
        KMeansConfig {
            restarts: self.restarts,
            ..KMeansConfig::paper(self.k, version_seed(self.seed, n, version))
        }
    }

    /// Generates the `(n, version)` cell.
    pub fn cell(&self, n: usize, version: u32) -> Dataset {
        paper_cell(n, version, self.seed).expect("valid generator parameters")
    }
}

/// One measured case.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseRow {
    /// Cell size `N`.
    pub n: usize,
    /// `"serial"`, `"5split"` or `"10split"`.
    pub algo: String,
    /// Dataset version.
    pub version: u32,
    /// Partial-phase time (Table 2's `t C0−Ci`); 0 for serial.
    pub partial_ms: f64,
    /// Merge time (`t merge`); 0 for serial.
    pub merge_ms: f64,
    /// The paper's `Min MSE` column. Inspection of Table 2 shows the paper
    /// tabulates the error *sum* (its `E` for serial — linear in N at
    /// ~1.4/point — and `E_pm` for partial/merge), so that is what this
    /// records: serial = best SSE over points, splits = `E_pm` over the
    /// gathered weighted centroids.
    pub min_mse: f64,
    /// Overall wall time (`overall t`).
    pub overall_ms: f64,
    /// Extra (not in the paper): MSE of the final centroids against the
    /// *original* points — an apples-to-apples quality metric.
    pub data_mse: f64,
    /// Lloyd iterations spent in total.
    pub iterations: usize,
}

/// Runs the serial baseline case.
pub fn run_serial(cfg: &SweepConfig, n: usize, version: u32) -> CaseRow {
    let cell = cfg.cell(n, version);
    let kcfg = cfg.kmeans_for(n, version);
    let out = serial_kmeans(&cell, &kcfg).expect("serial case");
    let ms = out.elapsed.as_secs_f64() * 1e3;
    CaseRow {
        n,
        algo: "serial".into(),
        version,
        partial_ms: 0.0,
        merge_ms: 0.0,
        min_mse: out.outcome.best.sse,
        overall_ms: ms,
        data_mse: out.outcome.best.mse,
        iterations: out.outcome.total_iterations(),
    }
}

/// Runs a partial/merge case with `splits` chunks (serial partial phase,
/// matching Table 2's single-machine runs).
pub fn run_split(cfg: &SweepConfig, n: usize, version: u32, splits: usize) -> CaseRow {
    let cell = cfg.cell(n, version);
    let pm_cfg = PartialMergeConfig {
        kmeans: cfg.kmeans_for(n, version),
        partitions: splits,
        merge_restarts: 1,
        slicing: pmkm_core::SliceStrategy::RandomOverlap,
    };
    let out = partial_merge(&cell, &pm_cfg).expect("partial/merge case");
    let data_mse = metrics::mse_against(&cell, &out.merge.centroids).expect("evaluation");
    let iters: usize =
        out.chunks.iter().map(|c| c.total_iterations).sum::<usize>() + out.merge.iterations;
    CaseRow {
        n,
        algo: format!("{splits}split"),
        version,
        partial_ms: out.partial_elapsed.as_secs_f64() * 1e3,
        merge_ms: out.merge.elapsed.as_secs_f64() * 1e3,
        min_mse: out.merge.epm,
        overall_ms: out.total_elapsed.as_secs_f64() * 1e3,
        data_mse,
        iterations: iters,
    }
}

/// Mean of the per-version rows for one `(n, algo)` group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeanRow {
    /// Cell size.
    pub n: usize,
    /// Algorithm label.
    pub algo: String,
    /// Mean partial time (ms).
    pub partial_ms: f64,
    /// Mean merge time (ms).
    pub merge_ms: f64,
    /// Mean of the minimum MSEs.
    pub min_mse: f64,
    /// Mean overall time (ms).
    pub overall_ms: f64,
    /// Mean data-space MSE.
    pub data_mse: f64,
    /// Versions averaged.
    pub versions: usize,
}

/// Groups rows by `(n, algo)` and averages, preserving sweep order.
pub fn mean_rows(rows: &[CaseRow]) -> Vec<MeanRow> {
    let mut order: Vec<(usize, String)> = Vec::new();
    for r in rows {
        let key = (r.n, r.algo.clone());
        if !order.contains(&key) {
            order.push(key);
        }
    }
    order
        .into_iter()
        .map(|(n, algo)| {
            let group: Vec<&CaseRow> = rows.iter().filter(|r| r.n == n && r.algo == algo).collect();
            let m = group.len() as f64;
            MeanRow {
                n,
                algo,
                partial_ms: group.iter().map(|r| r.partial_ms).sum::<f64>() / m,
                merge_ms: group.iter().map(|r| r.merge_ms).sum::<f64>() / m,
                min_mse: group.iter().map(|r| r.min_mse).sum::<f64>() / m,
                overall_ms: group.iter().map(|r| r.overall_ms).sum::<f64>() / m,
                data_mse: group.iter().map(|r| r.data_mse).sum::<f64>() / m,
                versions: group.len(),
            }
        })
        .collect()
}

/// Loads previously written rows from `target/experiments/<name>.json`
/// (written by the `table2` binary), so the figure binaries can re-plot
/// without re-running the sweep. Pass `--reuse` to those binaries.
pub fn load_rows(name: &str) -> Option<Vec<CaseRow>> {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/experiments")
        .join(format!("{name}.json"));
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// True if `--reuse` was passed on the command line.
pub fn reuse_requested() -> bool {
    std::env::args().any(|a| a == "--reuse")
}

/// Either loads `table2_rows.json` (with `--reuse`) or runs the sweep.
pub fn load_or_run_sweep(cfg: &SweepConfig) -> Vec<CaseRow> {
    if reuse_requested() {
        if let Some(rows) = load_rows("table2_rows") {
            eprintln!("[sweep] reusing {} rows from table2_rows.json", rows.len());
            return rows;
        }
        eprintln!("[sweep] --reuse requested but no table2_rows.json; running sweep");
    }
    run_sweep(cfg)
}

/// Runs the full three-algorithm sweep, logging progress to stderr.
pub fn run_sweep(cfg: &SweepConfig) -> Vec<CaseRow> {
    let mut rows = Vec::new();
    for &n in &cfg.sizes {
        for version in 0..cfg.versions {
            eprintln!("[sweep] n={n} version={version} serial…");
            rows.push(run_serial(cfg, n, version));
            for splits in [5usize, 10] {
                eprintln!("[sweep] n={n} version={version} {splits}split…");
                rows.push(run_split(cfg, n, version, splits));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig { k: 5, restarts: 2, versions: 2, sizes: vec![120], seed: 3 }
    }

    #[test]
    fn serial_case_reports_sane_numbers() {
        let cfg = tiny();
        let row = run_serial(&cfg, 120, 0);
        assert_eq!(row.algo, "serial");
        assert!(row.min_mse.is_finite() && row.min_mse >= 0.0);
        // Serial: the paper metric is the SSE = data MSE × N.
        assert!((row.min_mse - row.data_mse * 120.0).abs() < 1e-6 * row.min_mse.max(1.0));
        assert!(row.overall_ms > 0.0);
        assert!(row.iterations >= 2);
    }

    #[test]
    fn split_case_reports_sane_numbers() {
        let cfg = tiny();
        let row = run_split(&cfg, 120, 0, 5);
        assert_eq!(row.algo, "5split");
        assert!(row.partial_ms > 0.0);
        assert!(row.overall_ms >= row.partial_ms);
        assert!(row.min_mse >= 0.0 && row.data_mse >= 0.0);
        // E_pm (over centroids) is never larger than the data-space MSE for
        // the same centroids plus intra-cluster scatter; just check both
        // are finite and ordered sensibly.
        assert!(row.data_mse.is_finite());
    }

    #[test]
    fn sweep_produces_three_algos_per_version() {
        let cfg = tiny();
        let rows = run_sweep(&cfg);
        assert_eq!(rows.len(), 6); // 1 size × 2 versions × 3 algorithms
        let means = mean_rows(&rows);
        assert_eq!(means.len(), 3);
        for m in &means {
            assert_eq!(m.versions, 2);
        }
    }

    #[test]
    fn cases_are_reproducible() {
        let cfg = tiny();
        let a = run_split(&cfg, 120, 1, 5);
        let b = run_split(&cfg, 120, 1, 5);
        assert_eq!(a.min_mse, b.min_mse);
        assert_eq!(a.data_mse, b.data_mse);
        assert_eq!(a.iterations, b.iterations);
    }
}
