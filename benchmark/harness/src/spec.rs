//! What the benchmark measures: the five workloads, the end-to-end metrics
//! with their bounds, and how large a run is. `BENCHMARK.json` at the repo
//! root repeats the names, units, directions and bounds; a unit test keeps
//! the two in step.

use crate::api::{Backend, ClusterSpec, Codec};
use crate::stats::Better;

/// The paper's cluster count and restarts (its §5 parameters).
pub const K: usize = 40;
pub const RESTARTS: usize = 10;
/// Worker count of every clustering run: the reference box has two cores,
/// and the harness refuses to run on fewer.
pub const JOBS: usize = 2;
/// Restarts and seed of the serial reference the quality metric divides by.
pub const REFERENCE_RESTARTS: usize = 3;
pub const REFERENCE_SEED: u64 = 7;
/// Seed of the cells the quality metric is computed on, whatever `--seed`
/// is (see [`Workload::cell_seed`]).
pub const QUALITY_SEED: u64 = 42;

/// One end-to-end metric and the share of the base median by which it may
/// worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "points_per_s", unit: "points/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "cpu_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "sse_ratio_vs_serial", unit: "ratio", better: Better::Lower, bound: 0.01 },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// What a workload's run does.
#[derive(Debug, Clone)]
pub enum Kind {
    /// `pmkm orchestrate` over the cells.
    Cluster {
        spec: ClusterSpec,
        /// Adds `--checkpoint-dir` and `--ledger` (fresh for every run).
        journaled: bool,
        /// How many leading cells the quality metric is summed over.
        quality_cells: usize,
    },
    /// `pmkm convert` to shuffle-rle and back to raw.
    Recompress,
}

/// One workload: its inputs, its command and why it exists.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub cells: usize,
    pub points_per_cell: usize,
    /// Codec the generated inputs are stored with.
    pub codec: Codec,
    pub kind: Kind,
}

impl Workload {
    /// Seed of cell `index` under benchmark seed `seed`: every cell draws
    /// its own mixture and points.
    ///
    /// The leading cells the quality metric is summed over are drawn from
    /// [`QUALITY_SEED`] instead. k-means lands in a different local optimum
    /// on every data set, so over a handful of cells `sse_ratio_vs_serial`
    /// would swing by tens of percent from seed to seed and could carry no
    /// 1 % bound; on fixed cells it repeats exactly and moves only when the
    /// program's clustering does. All other cells, and so every timing,
    /// follow `--seed`.
    pub fn cell_seed(&self, seed: u64, index: usize) -> u64 {
        let fixed = match self.kind {
            Kind::Cluster { quality_cells, .. } => index < quality_cells,
            Kind::Recompress => false,
        };
        cell_seed(if fixed { QUALITY_SEED } else { seed }, index)
    }

    /// Points one run processes (both legs count for the round trip).
    pub fn points_per_run(&self) -> u64 {
        let once = (self.cells * self.points_per_cell) as u64;
        match self.kind {
            Kind::Cluster { .. } => once,
            Kind::Recompress => 2 * once,
        }
    }
}

fn cluster(splits: usize, backend: Backend, coreset: Option<usize>) -> ClusterSpec {
    ClusterSpec { k: K, restarts: RESTARTS, splits, jobs: JOBS, backend, coreset }
}

/// The five workloads. `quick` divides every cell count by ten.
///
/// Cell counts are sized so that one run takes a little over three seconds
/// on the two-core box the baseline was recorded on (see the README's
/// run-length budget); the per-cell shape (points, k, restarts, splits,
/// codec, backend) is the issue's and does not change with the size.
pub fn workloads(quick: bool) -> Vec<Workload> {
    let scaled = |cells: usize| if quick { cells.div_ceil(10) } else { cells };
    vec![
        Workload {
            name: "planet_classic",
            why: "the paper's algorithm at the paper's parameters; the assignment kernel does \
                  nearly all the CPU, scan under 1 %",
            cells: scaled(12),
            points_per_cell: 25_000,
            codec: Codec::Raw,
            kind: Kind::Cluster {
                spec: cluster(10, Backend::Mmap, None),
                journaled: false,
                quality_cells: 2,
            },
        },
        Workload {
            name: "planet_coreset",
            why: "bounded-memory path on long cells; coreset sampling and compaction do nearly \
                  all the CPU, the kernel sees few points, block decode is visible",
            cells: scaled(22),
            points_per_cell: 150_000,
            codec: Codec::ShuffleRle,
            kind: Kind::Cluster {
                spec: cluster(60, Backend::LocalFile, Some(256)),
                journaled: false,
                quality_cells: 1,
            },
        },
        Workload {
            name: "small_cells_bare",
            why: "many tiny cells, observers off: per-cell fixed cost (open, threads, queues, \
                  merge) is a large share and assignment under half",
            cells: scaled(3_000),
            points_per_cell: 250,
            codec: Codec::Raw,
            kind: Kind::Cluster {
                spec: cluster(2, Backend::Mmap, None),
                journaled: false,
                quality_cells: 32,
            },
        },
        Workload {
            name: "small_cells_journaled",
            why: "the same tiny cells with checkpoints and the run ledger on: the write side of \
                  the observers, whose cost is the gap to small_cells_bare",
            cells: scaled(1_300),
            points_per_cell: 250,
            codec: Codec::Raw,
            kind: Kind::Cluster {
                spec: cluster(2, Backend::Mmap, None),
                journaled: true,
                quality_cells: 32,
            },
        },
        Workload {
            name: "recompress_roundtrip",
            why: "convert raw to shuffle-rle and back: the data layer (read, encode, index, \
                  write, decode) does all the work, the clustering layers none",
            cells: scaled(28),
            points_per_cell: 150_000,
            codec: Codec::Raw,
            kind: Kind::Recompress,
        },
    ]
}

/// The generator seed of cell `index` under `seed`; the same pair gives the
/// same cell in every workload and in the probes.
pub fn cell_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(index as u64)
}

/// How much measuring one invocation does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Effort {
    /// Set-ups per workload (the median is reported).
    pub setups: usize,
    /// Timed runs per workload: at least this many …
    pub min_runs: usize,
    /// … and until this many seconds of timed runs have passed.
    pub min_seconds: f64,
    /// Seconds each probe loop runs at least, and samples per probe.
    pub probe_seconds: f64,
    pub probe_samples: usize,
}

impl Effort {
    /// `benchmark/run.sh`: five set-ups, five timed runs, probes of 1 s × 5.
    pub const FULL: Effort =
        Effort { setups: 5, min_runs: 5, min_seconds: 0.0, probe_seconds: 1.0, probe_samples: 5 };
    /// `benchmark/run.sh --quick`: one timed run, probes of 0.1 s.
    pub const QUICK: Effort =
        Effort { setups: 1, min_runs: 1, min_seconds: 0.0, probe_seconds: 0.1, probe_samples: 1 };

    /// One workload for the acceptance driver: three set-ups, at least three
    /// timed runs filling `seconds`, and probes that share `seconds`.
    pub fn driver(seconds: f64) -> Effort {
        Effort {
            setups: 3,
            min_runs: 3,
            min_seconds: seconds,
            probe_seconds: seconds / 40.0,
            probe_samples: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_shrinks_cells_but_not_their_shape() {
        let (full, quick) = (workloads(false), workloads(true));
        assert_eq!(full.len(), 5);
        for (f, q) in full.iter().zip(&quick) {
            assert_eq!(f.name, q.name);
            assert_eq!(f.points_per_cell, q.points_per_cell);
            assert_eq!(q.cells, f.cells.div_ceil(10));
            assert!(q.cells >= 1);
        }
    }

    #[test]
    fn cell_seeds_differ_by_seed_and_index() {
        assert_ne!(cell_seed(42, 0), cell_seed(42, 1));
        assert_ne!(cell_seed(42, 0), cell_seed(43, 0));
        assert_eq!(cell_seed(42, 5), cell_seed(42, 5));
    }

    #[test]
    fn only_the_quality_cells_ignore_the_benchmark_seed() {
        for w in workloads(false) {
            let fixed = match w.kind {
                Kind::Cluster { quality_cells, .. } => quality_cells,
                Kind::Recompress => 0,
            };
            assert!(fixed < w.cells, "{}: some cell must follow --seed", w.name);
            for index in 0..w.cells {
                let same = w.cell_seed(1, index) == w.cell_seed(2, index);
                assert_eq!(same, index < fixed, "{} cell {index}", w.name);
            }
        }
    }
}
