//! Bit-level pins on everything the pipeline's tail produces.
//!
//! The digests below were recorded on the commit *before* the two tail
//! operators (buffering merge, coreset tree) were folded into one: this
//! file dropped unmodified into a `git archive` export of e3269d9. They
//! cover every word a cell's answer carries — centroids, weights, `E_pm`,
//! MSE, per-chunk stats, mass accounting, tree stats — through `execute`
//! and `orchestrate`, the tail's own ledger events under a tolerant chaos
//! schedule, and the checkpoint fingerprint of a fixed plan. A change to
//! the tail that moves any constant changed an output.
//!
//! The one-bucket cases, the orchestrated chaos run, the strict-panic error
//! and the phase paths were recorded the same way on af34532, the last
//! commit on which every pipeline ran one thread per operator: a
//! one-bucket, one-clone plan must answer, fail and profile as it did
//! there.
//!
//! The two `CHAOS_*_EVENTS` digests and the phase lists moved once since,
//! through retired records alone: with `merge.degraded` /
//! `coreset.degraded` left out of [`tail_event`] and the `converge` phase
//! rows left out of the paths, the parent of the change that stopped
//! writing them computes the new constants.

use pmkm_core::KMeansConfig;
use pmkm_obs::{FaultReport, FieldValue, LedgerRecord, LedgerSink, Profiler, Recorder};
use pmkm_stream::fault::InjectedPanic;
use pmkm_stream::prelude::*;
use pmkm_stream::{CellClustering, CoresetSpec, EngineError, FaultPlan, FaultPolicy};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Once};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Word-wise FNV-1a.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

fn write_cell(dir: &Path, idx: u16, n: usize) -> PathBuf {
    use rand::Rng;
    let mut rng = pmkm_core::seeding::rng_for(2004, idx as u64);
    let mut points = pmkm_core::Dataset::new(2).unwrap();
    for _ in 0..n {
        let blob = f64::from(rng.gen_range(0..3i32)) * 25.0;
        points.push(&[blob + rng.gen_range(-2.0..2.0), blob + rng.gen_range(-2.0..2.0)]).unwrap();
    }
    let cell = pmkm_data::GridCell::new(idx, idx).unwrap();
    let path = dir.join(cell.bucket_file_name());
    pmkm_data::GridBucket { cell, points }.write_to(&path).unwrap();
    path
}

/// Three cells of 600 points, k = 3, 100-point chunks: 3 cells × 6 chunks.
fn planet(tag: &str) -> (PathBuf, PhysicalPlan) {
    let dir = std::env::temp_dir().join(format!("pmkm_tail_pins_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<PathBuf> = (1..=3).map(|i| write_cell(&dir, i, 600)).collect();
    let logical =
        LogicalPlan::new(paths, KMeansConfig { restarts: 2, ..KMeansConfig::paper(3, 23) });
    let plan = optimize_fixed_split(logical, &Resources::fixed(1 << 20, 1), 100);
    (dir, plan)
}

/// Every deterministic word of the cells' answers, in cell order.
fn digest<'a>(cells: impl IntoIterator<Item = &'a CellClustering>) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    for c in cells {
        h.word(u64::from(c.cell.index()));
        c.output.centroids.as_flat().iter().for_each(|v| h.float(*v));
        c.output.cluster_weights.iter().for_each(|v| h.float(*v));
        h.float(c.output.epm);
        h.float(c.output.mse);
        h.word(c.output.iterations as u64);
        h.word(u64::from(c.output.converged));
        h.word(c.output.input_centroids as u64);
        for s in &c.chunks {
            h.word(s.chunk as u64);
            h.word(s.points as u64);
            h.float(s.best_mse);
            h.word(s.total_iterations as u64);
        }
        for t in &c.trajectories {
            h.word(t.len() as u64);
            t.iter().for_each(|v| h.float(*v));
        }
        h.float(c.expected_points);
        h.float(c.lost_points);
        h.word(c.lost_chunks as u64);
        h.word(u64::from(c.degraded));
        match &c.coreset {
            None => h.word(0),
            Some(s) => {
                h.word(1);
                h.word(u64::from(s.levels));
                h.word(s.live_buckets as u64);
                h.float(s.live_weight);
                h.float(s.ingested_points);
                h.float(s.lost_points);
                h.float(s.expired_points);
                h.word(s.compactions);
                h.word(s.builds);
                h.word(s.queries);
            }
        }
    }
    h.0
}

/// Is this one of the events only the tail thread emits?
fn tail_event(r: &LedgerRecord) -> bool {
    matches!(
        r.name.as_str(),
        "coreset.evict" | "coreset.compact" | "coreset.query" | "merge.done" | "cell.close"
    ) || (r.name == "fault" && r.str_field("kind") == Some("cell_degraded"))
}

/// The tail's events in emission order per cell (cells may interleave on
/// the wire; a stable sort by cell removes the scheduling), one line per
/// event with every field but the timestamp, floats by their bits.
fn tail_events(ledger: &LedgerSink) -> String {
    let mut events: Vec<LedgerRecord> =
        ledger.records_after(0).into_iter().filter(tail_event).collect();
    events.sort_by_key(|r| r.u64_field("cell"));
    let mut out = String::new();
    for r in &events {
        out.push_str(&r.name);
        for (key, value) in &r.fields {
            let text = match value {
                FieldValue::U64(v) => v.to_string(),
                FieldValue::I64(v) => v.to_string(),
                FieldValue::F64(v) => format!("{:016x}", v.to_bits()),
                FieldValue::Bool(v) => v.to_string(),
                FieldValue::Str(v) => v.clone(),
            };
            out.push_str(&format!(" {key}={text}"));
        }
        out.push('\n');
    }
    out
}

fn fnv_text(text: &str) -> u64 {
    text.bytes().fold(FNV_OFFSET, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn observed() -> (Arc<LedgerSink>, Arc<Recorder>) {
    let ledger = Arc::new(LedgerSink::in_memory());
    let rec = Arc::new(Recorder::new().with_sink(ledger.clone()));
    (ledger, rec)
}

const CLASSIC: u64 = 0x28bb_6cfc_9f48_92b8;
const CORESET: u64 = 0x480c_6481_53d0_607d;
const CHAOS_CLASSIC: u64 = 0x6cb3_5b59_8f2a_186c;
const CHAOS_CLASSIC_EVENTS: u64 = 0x8ac8_ca30_23ba_56e6;
const CHAOS_CORESET: u64 = 0xd89d_a43d_9723_de4f;
const CHAOS_CORESET_EVENTS: u64 = 0x51bc_3ba1_e0fc_cb64;
const FINGERPRINT: &str = "96933b9cde449369";

#[test]
fn tail_bits_are_pinned() {
    let (dir, classic) = planet("clean");
    let mut coreset = classic.clone();
    coreset.coreset = Some(CoresetSpec::new(64));

    // Fault-free answers: the same words whatever runs the cells.
    for clones in [1, 3] {
        let mut plan = classic.clone();
        plan.partial_clones = clones;
        assert_eq!(digest(&execute(&plan).unwrap().cells), CLASSIC, "classic, {clones} clone(s)");
        plan.coreset = coreset.coreset.clone();
        assert_eq!(digest(&execute(&plan).unwrap().cells), CORESET, "coreset, {clones} clone(s)");
    }
    for jobs in [1, 2] {
        let opts = OrchestratorOptions::new(jobs);
        let planet = orchestrate(&classic, &opts, None, None).unwrap();
        assert_eq!(digest(planet.clusterings()), CLASSIC, "orchestrate classic, {jobs} job(s)");
        let planet = orchestrate(&coreset, &opts, None, None).unwrap();
        assert_eq!(digest(planet.clusterings()), CORESET, "orchestrate coreset, {jobs} job(s)");
    }

    // One bucket per plan, the shape every orchestrated cell runs: the
    // three answers in cell order are the three-cell run's words.
    assert_eq!(digest(&one_bucket_at_a_time(&classic)), CLASSIC, "single-bucket classic");
    assert_eq!(digest(&one_bucket_at_a_time(&coreset)), CORESET, "single-bucket coreset");

    // The observed run answers the same and closes every cell once.
    let (ledger, rec) = observed();
    let report = execute_with_faults(&classic, Some(rec), None).unwrap();
    assert_eq!(digest(&report.cells), CLASSIC, "observed classic");
    assert_eq!(tail_events(&ledger).lines().filter(|l| l.starts_with("cell.close")).count(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// `execute` over each of `plan`'s buckets alone, answers in input order.
fn one_bucket_at_a_time(plan: &PhysicalPlan) -> Vec<CellClustering> {
    let mut cells = Vec::new();
    for input in &plan.logical.inputs {
        let mut one = plan.clone();
        one.logical.inputs = vec![input.clone()];
        cells.extend(execute(&one).unwrap().cells);
    }
    cells
}

#[test]
fn tail_events_under_chaos_are_pinned() {
    quiet_injected_panics();
    let (dir, mut classic) = planet("chaos");
    classic.fault_policy = FaultPolicy::tolerant();
    let mut coreset = classic.clone();
    coreset.coreset = Some(CoresetSpec::new(64));
    // Scan faults are off: these pins hold what the sites keyed on
    // (cell, chunk) do to the tail.
    let chaos = FaultPlan { scan_error_rate: 0.0, ..FaultPlan::heavy(29) };

    let (ledger, rec) = observed();
    let report = execute_with_faults(&classic, Some(rec), Some(chaos.clone())).unwrap();
    let events = tail_events(&ledger);
    assert!(report.faults.cells_degraded > 0, "the schedule must degrade a cell");
    assert_eq!(digest(&report.cells), CHAOS_CLASSIC, "classic under chaos");
    assert_eq!(fnv_text(&events), CHAOS_CLASSIC_EVENTS, "classic tail events:\n{events}");

    let (ledger, rec) = observed();
    let report = execute_with_faults(&coreset, Some(rec), Some(chaos)).unwrap();
    let events = tail_events(&ledger);
    assert!(report.faults.cells_degraded > 0, "the schedule must degrade a cell");
    assert_eq!(digest(&report.cells), CHAOS_CORESET, "coreset under chaos");
    assert_eq!(fnv_text(&events), CHAOS_CORESET_EVENTS, "coreset tail events:\n{events}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The chaos schedule's fault counters summed over the planet, the same in
/// both modes (every injection site sits before the tail).
const CHAOS_FAULTS: FaultReport = FaultReport {
    scan_retries: 0,
    scan_failures: 0,
    chunks_poisoned: 2,
    chunks_quarantined: 4,
    worker_panics: 7,
    chunk_retries: 5,
    queue_stalls: 6,
    cells_degraded: 3,
};

/// `orchestrate` runs each cell as a one-bucket, one-clone pipeline. Under
/// the tolerant chaos schedule it answers with the words, fault counters and
/// tail events of the three-bucket `execute` above, whatever the job count.
#[test]
fn orchestrate_under_chaos_is_pinned() {
    quiet_injected_panics();
    let (dir, mut classic) = planet("orch_chaos");
    assert_eq!(classic.partial_clones, 1);
    classic.fault_policy = FaultPolicy::tolerant();
    let mut coreset = classic.clone();
    coreset.coreset = Some(CoresetSpec::new(64));
    let chaos = FaultPlan { scan_error_rate: 0.0, ..FaultPlan::heavy(29) };
    let cases = [
        ("classic", &classic, CHAOS_CLASSIC, CHAOS_CLASSIC_EVENTS),
        ("coreset", &coreset, CHAOS_CORESET, CHAOS_CORESET_EVENTS),
    ];
    for (mode, plan, answers, tail) in cases {
        for jobs in [1, 2] {
            let (ledger, rec) = observed();
            let opts = OrchestratorOptions::new(jobs);
            let planet = orchestrate(plan, &opts, Some(rec), Some(chaos.clone())).unwrap();
            let events = tail_events(&ledger);
            assert_eq!(digest(planet.clusterings()), answers, "{mode}, {jobs} job(s)");
            assert_eq!(planet.faults, CHAOS_FAULTS, "{mode}, {jobs} job(s)");
            assert_eq!(fnv_text(&events), tail, "{mode}, {jobs} job(s) tail events:\n{events}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A chunk that panics on every attempt under the strict policy fails the
/// run naming the partial operator, through either entry point and at any
/// clone count.
#[test]
fn strict_sticky_panic_fails_the_run_as_an_operator_panic() {
    quiet_injected_panics();
    let (dir, planet_plan) = planet("strict_panic");
    let sticky = FaultPlan { panic_rate: 1.0, panic_sticky_fraction: 1.0, ..FaultPlan::none(5) };
    let is_partial_panic = |r: &Result<_, EngineError>| matches!(r, Err(EngineError::OperatorPanic(op)) if op == "partial-kmeans");
    for clones in [1, 2] {
        let mut plan = planet_plan.clone();
        plan.partial_clones = clones;
        let mut one = plan.clone();
        one.logical.inputs.truncate(1);
        let run = execute_with_faults(&one, None, Some(sticky.clone())).map(|_| ());
        assert!(is_partial_panic(&run), "execute, {clones} clone(s): {run:?}");
        let opts = OrchestratorOptions::new(2);
        let run = orchestrate(&plan, &opts, None, Some(sticky.clone())).map(|_| ());
        assert!(is_partial_panic(&run), "orchestrate, {clones} clone(s): {run:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

const CLASSIC_PHASES: [&str; 10] = [
    "chunk",
    "merge",
    "merge/assign",
    "merge/seed",
    "merge/update",
    "partial",
    "partial/assign",
    "partial/seed",
    "partial/update",
    "scan",
];
const CORESET_PHASES: [&str; 7] =
    ["chunk", "coreset", "merge", "merge/assign", "merge/seed", "merge/update", "scan"];

/// Phase paths of an observed one-bucket, one-clone run: no operator's span
/// encloses another operator's work, whichever thread runs it.
#[test]
fn phase_paths_do_not_nest_across_operators() {
    let (dir, classic) = planet("phases");
    let mut coreset = classic.clone();
    coreset.coreset = Some(CoresetSpec::new(64));
    let paths = |rec: &Recorder| -> BTreeSet<String> {
        rec.phase_rows().into_iter().map(|row| row.path).collect()
    };
    for (mode, plan, want) in
        [("classic", &classic, CLASSIC_PHASES.as_slice()), ("coreset", &coreset, &CORESET_PHASES)]
    {
        let want: BTreeSet<String> = want.iter().map(|p| p.to_string()).collect();
        let mut one = plan.clone();
        one.logical.inputs.truncate(1);
        let rec = Arc::new(Recorder::new().with_profiler(Arc::new(Profiler::new())));
        execute_with_faults(&one, Some(rec.clone()), None).unwrap();
        assert_eq!(paths(&rec), want, "{mode} execute");
        let rec = Arc::new(Recorder::new().with_profiler(Arc::new(Profiler::new())));
        orchestrate(plan, &OrchestratorOptions::new(2), Some(rec.clone()), None).unwrap();
        assert_eq!(paths(&rec), want, "{mode} orchestrate");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_fingerprint_is_pinned() {
    let (dir, mut plan) = planet("fingerprint");
    plan.coreset = Some(CoresetSpec::new(64));
    plan.fault_policy = FaultPolicy::tolerant();
    let ckpt = dir.join("ckpt");
    let opts = OrchestratorOptions::new(1).with_checkpoints(&ckpt);
    orchestrate(&plan, &opts, None, Some(FaultPlan::none(7))).unwrap();
    let file = pmkm_stream::orchestrator::checkpoint_path(&ckpt, &plan.logical.inputs[0]);
    let text = std::fs::read_to_string(file).unwrap();
    let header = text.lines().next().unwrap();
    assert!(header.contains(&format!("\"fingerprint\":\"{FINGERPRINT}\"")), "{header}");
    std::fs::remove_dir_all(&dir).ok();
}
