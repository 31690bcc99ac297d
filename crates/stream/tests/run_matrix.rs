//! One oracle for the run matrix.
//!
//! Cloning, scheduling, storage, observers, resume and (seeded) chaos may
//! change how long a run takes, never its answer: every per-cell result is a
//! pure function of the bucket's points, the plan's clustering knobs and the
//! fault schedule. This suite crosses every run axis at once. It runs each
//! case of an all-pairs covering array over the axes below through
//! `orchestrate` (and, without resume, through `execute_with_faults` too:
//! one pipeline and one partial pool for the whole planet, where `jobs` has
//! no meaning), and requires every answer to equal one reference's, bit for
//! bit.
//!
//! The reference is one job, one partial clone (inline), unobserved, no
//! resume, at the case's tail, reading GB01 buckets through the local-file
//! backend. Under chaos it takes the case's storage and backend instead:
//! scan faults are keyed per block and per GET, so those two change the
//! schedule. The observers are a ledger, the profiler and a timeline; a
//! `/status` cell is not among them, because the coreset tail runs anytime
//! queries for it and counts them in the cell's coreset summary.
//!
//! `PMKM_CHAOS_SEED=<s1>,<s2>,…` replaces the default chaos seed (the CI
//! chaos job sweeps its seed sets this way); every chaos case then runs once
//! per seed.

mod common;

use common::{answer, quiet_injected_panics};
use pmkm_core::KMeansConfig;
use pmkm_data::{BackendKind, Codec, GridBucket, GridCell};
use pmkm_obs::{parse_ledger, rollup, FaultKind, FaultReport, LedgerSink, Profiler, Recorder};
use pmkm_stream::prelude::*;
use pmkm_stream::{CellClustering, CoresetSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The default chaos seed; the chaos cases at this seed fire every fault
/// kind the non-vacuity check below asks for.
const DEFAULT_SEED: u64 = 5;

/// The planet: (cell index, points). At 70-point chunks the cells split
/// into 4, 3, 5 and 3 chunks.
const CELLS: [(u16, usize); 4] = [(101, 260), (102, 170), (103, 330), (104, 210)];
const CHUNK: usize = 70;

/// The number of values each axis takes; a case holds one value index per
/// axis. In order: jobs {1, 2, 3}; partial clones {1, 2, 3}; backend
/// {local-file, mmap, sim-object-store}; storage {GB01, GB02 raw, GB02
/// shuffle-rle}; GB02 block points {5, 8, 4096}; tail {classic, coreset 64};
/// observers {none, ledger + profiler + timeline}; resume {none, kill after
/// 1, kill after n − 1}; chaos {none, light under the tolerant policy}.
const AXES: [usize; 9] = [3, 3, 3, 3, 3, 2, 2, 3, 2];
const N: usize = AXES.len();
const BACKENDS: [BackendKind; 3] =
    [BackendKind::LocalFile, BackendKind::Mmap, BackendKind::SimObjectStore];
const BLOCKS: [usize; 3] = [5, 8, pmkm_data::DEFAULT_BLOCK_POINTS];

/// An all-pairs covering array over the axes: every value pair of every two
/// axes is in some case, which `every_case_answers_like_the_reference`
/// asserts. The block size means something only on GB02, so GB01 rows carry
/// block 0 and a pair with a block value counts only on a GB02 row.
const CASES: [[usize; N]; 15] = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 2, 2, 1, 0, 1, 0],
    [0, 0, 2, 1, 0, 1, 0, 2, 1],
    [0, 1, 0, 1, 1, 1, 0, 2, 1],
    [0, 2, 0, 2, 0, 1, 1, 0, 1],
    [1, 0, 2, 1, 1, 0, 1, 1, 1],
    [1, 1, 1, 2, 0, 1, 1, 1, 0],
    [1, 1, 2, 2, 1, 1, 0, 0, 0],
    [1, 2, 0, 2, 2, 0, 1, 2, 0],
    [1, 2, 2, 0, 0, 0, 1, 1, 1],
    [2, 0, 2, 2, 2, 1, 0, 0, 1],
    [2, 1, 1, 0, 0, 1, 1, 2, 1],
    [2, 1, 1, 1, 2, 0, 0, 2, 0],
    [2, 2, 0, 1, 0, 0, 0, 1, 0],
    [2, 2, 1, 1, 1, 1, 1, 0, 1],
];
const STORAGE: usize = 3;
const BLOCK: usize = 4;

type Pair = (usize, usize, usize, usize);

/// Every value pair of every two axes, `(axis a, value, axis b, value)`,
/// except GB01 with a block size.
fn all_pairs() -> Vec<Pair> {
    let axes = (0..N).flat_map(|a| (a + 1..N).map(move |b| (a, b)));
    axes.flat_map(|(a, b)| {
        (0..AXES[a]).flat_map(move |va| (0..AXES[b]).map(move |vb| (a, va, b, vb)))
    })
    .filter(|&(a, va, b, _)| (a, va, b) != (STORAGE, 0, BLOCK))
    .collect()
}

fn covers(case: &[usize; N], &(a, va, b, vb): &Pair) -> bool {
    let block_counts = case[STORAGE] != 0 || (a != BLOCK && b != BLOCK);
    block_counts && case[a] == va && case[b] == vb
}

fn chaos_seeds() -> Vec<u64> {
    match std::env::var("PMKM_CHAOS_SEED") {
        Ok(v) => v
            .split(',')
            .map(|s| s.trim().parse().expect("PMKM_CHAOS_SEED must be comma-separated u64s"))
            .collect(),
        Err(_) => vec![DEFAULT_SEED],
    }
}

/// Writes the planet once per storage variant, under `root`, keyed by
/// `(storage, block)`; GB01 ignores the block size.
fn planet(root: &Path, storage: usize, block: usize) -> Vec<PathBuf> {
    use rand::Rng;
    let dir = match storage {
        0 => root.join("gb01"),
        _ => root.join(format!("gb02_{storage}_{}", BLOCKS[block])),
    };
    std::fs::create_dir_all(&dir).unwrap();
    CELLS
        .iter()
        .map(|&(idx, n)| {
            let mut rng = pmkm_core::seeding::rng_for(5, idx as u64);
            let mut points = pmkm_core::Dataset::new(3).unwrap();
            for i in 0..n {
                let blob = [0.0, 30.0, 60.0][i % 3];
                let mut jitter = || rng.gen_range(-2.0..2.0);
                points.push(&[blob + jitter(), jitter(), blob + jitter()]).unwrap();
            }
            let bucket = GridBucket { cell: GridCell::new(idx, idx).unwrap(), points };
            let path = dir.join(bucket.cell.bucket_file_name());
            if storage == 0 {
                bucket.write_to(&path).unwrap();
                return path;
            }
            let (path, codec) = (path.with_extension("gb2"), [Codec::Raw, Codec::ShuffleRle]);
            pmkm_data::write_gb02(&bucket, &path, codec[storage - 1], BLOCKS[block]).unwrap();
            path
        })
        .collect()
}

/// The plan every case runs: k = 3, two restarts, 70-point chunks; a chaos
/// run tolerates its faults.
fn mk_plan(
    inputs: &[PathBuf],
    workers: usize,
    backend: usize,
    coreset: bool,
    chaos: bool,
) -> PhysicalPlan {
    let kmeans = KMeansConfig { restarts: 2, ..KMeansConfig::paper(3, 17) };
    let logical = LogicalPlan::new(inputs.to_vec(), kmeans);
    let mut plan = optimize_fixed_split(logical, &Resources::fixed(1 << 20, workers), CHUNK);
    plan.scan_backend = BACKENDS[backend];
    plan.coreset = coreset.then(|| CoresetSpec::new(64));
    plan.fault_policy = if chaos { FaultPolicy::tolerant() } else { FaultPolicy::strict() };
    plan
}

fn add(into: &mut FaultReport, from: &FaultReport) {
    for kind in FaultKind::ALL {
        *into.count_mut(kind) += from.count(kind);
    }
}

/// A recorder with every observer attached, and its ledger to read back.
fn observers() -> (Arc<Recorder>, Arc<LedgerSink>) {
    let ledger = Arc::new(LedgerSink::in_memory());
    let rec = Recorder::new()
        .with_sink(ledger.clone())
        .with_profiler(Arc::new(Profiler::new()))
        .with_timeline(Arc::default());
    (Arc::new(rec), ledger)
}

/// The ledger agrees with the run it journaled: one closed cell per answer
/// with the same mass, and one `fault` record per fault the run executed.
fn assert_ledger(
    ledger: &LedgerSink,
    cells: Vec<&CellClustering>,
    faults: &FaultReport,
    tag: &str,
) {
    let roll = rollup(&parse_ledger(&ledger.snapshot_jsonl()).unwrap());
    assert_eq!(roll.cells.len(), cells.len(), "{tag}: ledger cells");
    for c in cells {
        let label = c.cell.index().to_string();
        let row = roll.cells.iter().find(|r| r.cell == label).expect("cell in the ledger");
        assert_eq!(row.expected_points.to_bits(), c.expected_points.to_bits(), "{tag}");
        assert_eq!(row.lost_points.to_bits(), c.lost_points.to_bits(), "{tag}");
        assert_eq!(row.lost_chunks, c.lost_chunks as u64, "{tag}");
        assert_eq!(row.epm.to_bits(), c.output.epm.to_bits(), "{tag}");
    }
    assert_eq!(&roll.faults, faults, "{tag}: ledger faults");
}

#[test]
fn every_case_answers_like_the_reference() {
    let started = std::time::Instant::now();
    quiet_injected_panics();
    let missing: Vec<_> =
        all_pairs().into_iter().filter(|p| !CASES.iter().any(|c| covers(c, p))).collect();
    assert!(missing.is_empty(), "pairs no case covers: {missing:?}");

    let root = std::env::temp_dir().join(format!("pmkm_run_matrix_{}", std::process::id()));
    let mut planets: BTreeMap<(usize, usize), Vec<PathBuf>> = BTreeMap::new();
    let mut references: BTreeMap<String, PlanetReport> = BTreeMap::new();
    let mut fired = FaultReport::default();
    let mut runs = 0;
    let seeds = chaos_seeds();
    for (ci, case) in CASES.iter().enumerate() {
        let [jobs, workers, backend, storage, block, tail, observed, resume, chaos] = *case;
        let (jobs, workers, coreset, observed) = (jobs + 1, workers + 1, tail == 1, observed == 1);
        let inputs =
            planets.entry((storage, block)).or_insert_with(|| planet(&root, storage, block));
        let (inputs, n) = (inputs.clone(), inputs.len());
        let kill = [None, Some(1), Some(n - 1)][resume];
        let schedules: Vec<Option<u64>> =
            if chaos == 1 { seeds.iter().copied().map(Some).collect() } else { vec![None] };
        for seed in schedules {
            let tag = format!("case {ci} {case:?} seed {seed:?}");
            let faults = seed.map(FaultPlan::light);
            let plan = mk_plan(&inputs, workers, backend, coreset, seed.is_some());

            // The reference: inline, unobserved, one job, no resume.
            let (ref_storage, ref_block, ref_backend) =
                if seed.is_some() { (storage, block, backend) } else { (0, 0, 0) };
            let key = format!("{ref_storage}/{ref_block}/{ref_backend}/{coreset}/{seed:?}");
            let reference = references.entry(key).or_insert_with(|| {
                let inputs = planets
                    .entry((ref_storage, ref_block))
                    .or_insert_with(|| planet(&root, ref_storage, ref_block));
                let plan = mk_plan(inputs, 1, ref_backend, coreset, seed.is_some());
                runs += 1;
                orchestrate(&plan, &OrchestratorOptions::new(1), None, faults.clone()).unwrap()
            });

            let (rec, ledger) = observers();
            let rec = observed.then_some(rec);
            let opts = OrchestratorOptions::new(jobs);
            let got = match kill {
                None => orchestrate(&plan, &opts, rec.clone(), faults.clone()).unwrap(),
                Some(j) => {
                    let ckpt = root.join(format!("ckpt_{ci}_{seed:?}"));
                    let opts = opts.with_checkpoints(&ckpt);
                    let killed =
                        orchestrate(&plan, &opts.clone().kill_after(j), None, faults.clone())
                            .unwrap();
                    let killed =
                        (killed.interrupted, killed.checkpoints_written, killed.cells.len());
                    assert_eq!(killed, (true, j, j), "{tag}: killed run");
                    let got =
                        orchestrate(&plan, &opts.resuming(), rec.clone(), faults.clone()).unwrap();
                    let restored = got.cells.iter().filter(|o| o.resumed).count();
                    let resumed =
                        (got.interrupted, got.cells_resumed, restored, got.cells_executed);
                    assert_eq!(resumed, (false, j, j, n - j), "{tag}: resumed run");
                    assert_eq!(got.checkpoints_invalid, 0, "{tag}");
                    runs += 1;
                    got
                }
            };
            runs += 1;

            assert_eq!((got.cells.len(), reference.cells.len()), (n, n), "{tag}");
            for (i, (o, r)) in got.cells.iter().zip(&reference.cells).enumerate() {
                assert_eq!((o.input, &o.path), (i, &inputs[i]), "{tag}: input order");
                assert_eq!(o.faults, r.faults, "{tag}: cell {i} faults");
                assert_eq!(o.degraded, r.degraded, "{tag}: cell {i}");
                let (c, rc) = (o.clustering.as_ref().unwrap(), r.clustering.as_ref().unwrap());
                assert_eq!(answer(c), answer(rc), "{tag}: cell {i}");
                let received: f64 = c.output.cluster_weights.iter().sum();
                assert_eq!(received + c.lost_points, c.expected_points, "{tag}: cell {i} mass");
            }
            assert_eq!((got.faults, got.degraded), (reference.faults, reference.degraded), "{tag}");
            if observed {
                let mut executed = FaultReport::default();
                got.cells.iter().filter(|o| !o.resumed).for_each(|o| add(&mut executed, &o.faults));
                assert_ledger(&ledger, got.clusterings().collect(), &executed, &tag);
            }
            if seed.is_some() {
                add(&mut fired, &got.faults);
            }

            // One pipeline and one partial pool across every cell.
            if kill.is_none() {
                let (rec, ledger) = observers();
                let rec = observed.then_some(rec);
                let one = execute_with_faults(&plan, rec, faults.clone()).unwrap();
                runs += 1;
                let want: Vec<_> = reference.clusterings().map(answer).collect();
                assert_eq!(
                    one.cells.iter().map(answer).collect::<Vec<_>>(),
                    want,
                    "{tag}: execute"
                );
                // Several buckets run on a pool even at one clone.
                let pooled = (one.faults, one.queue_stats.len());
                assert_eq!(pooled, (reference.faults, 2), "{tag}: execute faults and queues");
                if observed {
                    assert_ledger(&ledger, one.cells.iter().collect(), &one.faults, &tag);
                }
            }
        }
    }
    if std::env::var("PMKM_CHAOS_SEED").is_err() {
        use FaultKind::{ChunkQuarantined, QueueStall, ScanRetry, WorkerPanic};
        for kind in [ScanRetry, ChunkQuarantined, WorkerPanic, QueueStall] {
            assert!(fired.count(kind) > 0, "{kind:?} never fired: {fired:?}");
        }
    }
    eprintln!("{} cases, {runs} runs, {:.1?}", CASES.len(), started.elapsed());
    std::fs::remove_dir_all(&root).ok();
}
