//! The seeded chaos suite: deterministic fault schedules driven through the
//! full pipeline.
//!
//! Every schedule is a pure function of its seed, so each scenario replays
//! byte-for-byte: `PMKM_CHAOS_SEED=<s1>,<s2>,…` reproduces a failing seed
//! exactly (the CI chaos job pins a fixed matrix the same way). The
//! invariants checked here are the tentpole's contract:
//!
//! 1. a zero-fault run is bit-identical to the engine's pre-fault-layer
//!    output (pinned below),
//! 2. every faulted tolerant run either errors cleanly or conserves mass
//!    over the surviving chunks (`received + lost == expected`) with finite
//!    E_pm,
//! 3. recoverable faults (transient scan errors, one-shot panics) leave the
//!    results bit-identical to the fault-free run,
//! 4. the strict policy never emits degraded results — it fails.

use pmkm_core::KMeansConfig;
use pmkm_stream::fault::InjectedPanic;
use pmkm_stream::prelude::*;
use pmkm_stream::{EngineReport, FaultPlan, FaultPolicy};
use std::path::PathBuf;
use std::sync::Once;

/// Keeps injected panics out of the test output (real panics still print).
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

/// The chaos seed matrix: `PMKM_CHAOS_SEED=11,23` overrides the default.
fn seeds() -> Vec<u64> {
    match std::env::var("PMKM_CHAOS_SEED") {
        Ok(v) => v
            .split(',')
            .map(|s| s.trim().parse().expect("PMKM_CHAOS_SEED must be comma-separated u64s"))
            .collect(),
        Err(_) => vec![11, 23, 47],
    }
}

fn write_cell(dir: &std::path::Path, idx: u16, n: usize, seed: u64) -> PathBuf {
    use pmkm_core::PointSource;
    use rand::Rng;
    let mut rng = pmkm_core::seeding::rng_for(seed, idx as u64);
    let mut points = pmkm_core::Dataset::new(2).unwrap();
    for _ in 0..n {
        let blob = if rng.gen_bool(0.5) { 0.0 } else { 40.0 };
        points.push(&[blob + rng.gen_range(-1.0..1.0), blob + rng.gen_range(-1.0..1.0)]).unwrap();
    }
    assert_eq!(points.len(), n);
    let cell = pmkm_data::GridCell::new(idx, idx).unwrap();
    let path = dir.join(cell.bucket_file_name());
    pmkm_data::GridBucket { cell, points }.write_to(&path).unwrap();
    path
}

/// The standard chaos workload: two cells (indices 722 and 1083) of 180 and
/// 120 points, k = 3, fixed 40-point chunks → 5 + 3 chunks.
fn workload(tag: &str) -> (std::path::PathBuf, PhysicalPlan) {
    let dir = std::env::temp_dir().join(format!("pmkm_chaos_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths = vec![write_cell(&dir, 2, 180, 1234), write_cell(&dir, 3, 120, 1234)];
    let logical =
        LogicalPlan::new(paths, KMeansConfig { restarts: 2, ..KMeansConfig::paper(3, 42) });
    let plan = optimize_fixed_split(logical, &Resources::fixed(1 << 20, 2), 40);
    (dir, plan)
}

fn centroid_bits(report: &EngineReport, cell_index: u32) -> Vec<u64> {
    let cell = report.cells.iter().find(|c| c.cell.index() == cell_index).unwrap();
    cell.output.centroids.iter().flat_map(|p| p.iter().map(|v| v.to_bits())).collect()
}

fn weight_bits(report: &EngineReport, cell_index: u32) -> Vec<u64> {
    let cell = report.cells.iter().find(|c| c.cell.index() == cell_index).unwrap();
    cell.output.cluster_weights.iter().map(|v| v.to_bits()).collect()
}

fn epm_bits(report: &EngineReport, cell_index: u32) -> u64 {
    report.cells.iter().find(|c| c.cell.index() == cell_index).unwrap().output.epm.to_bits()
}

/// The engine's output on this workload before the fault layer existed,
/// captured bit-for-bit from the pre-PR build. The zero-fault path must
/// reproduce it exactly — the fault layer may cost nothing when idle.
mod pinned {
    pub const CELL_A: u32 = 722;
    pub const CELL_B: u32 = 1083;
    pub const EPM_A: u64 = 0x403b3b5b2ec1843c;
    pub const EPM_B: u64 = 0x4032aced0b40c065;
    pub const CENTROIDS_A: [u64; 6] = [
        0x4044171e385db843,
        0x404413669edc3071,
        0xbfab0d982696a2f3,
        0x3facf7acd7ce2afd,
        0x4043e9a0476993da,
        0x4043d8ee6c93d4be,
    ];
    pub const CENTROIDS_B: [u64; 6] = [
        0x4043f55937ff88ae,
        0x404404ace5645acc,
        0x3fb1812d424bae86,
        0xbfceb343f574a16f,
        0xbfd9d06436987bf6,
        0x3fd70f2c694a3ff1,
    ];
    pub const WEIGHTS_A: [u64; 3] = [0x4046000000000000, 0x4054400000000000, 0x404b800000000000];
    pub const WEIGHTS_B: [u64; 3] = [0x404c800000000000, 0x4047000000000000, 0x4031000000000000];
}

fn assert_matches_pinned(report: &EngineReport) {
    assert_eq!(report.cells.len(), 2);
    assert_eq!(epm_bits(report, pinned::CELL_A), pinned::EPM_A);
    assert_eq!(epm_bits(report, pinned::CELL_B), pinned::EPM_B);
    assert_eq!(centroid_bits(report, pinned::CELL_A), pinned::CENTROIDS_A);
    assert_eq!(centroid_bits(report, pinned::CELL_B), pinned::CENTROIDS_B);
    assert_eq!(weight_bits(report, pinned::CELL_A), pinned::WEIGHTS_A);
    assert_eq!(weight_bits(report, pinned::CELL_B), pinned::WEIGHTS_B);
    assert_eq!(report.cells[0].chunks.len(), 5);
    assert_eq!(report.cells[1].chunks.len(), 3);
    assert!(!report.degraded);
    for c in &report.cells {
        assert!(!c.degraded);
        assert_eq!(c.lost_points, 0.0);
        assert_eq!(c.lost_chunks, 0);
    }
}

/// Mass conservation over surviving chunks, per cell and run-wide.
fn assert_mass_invariants(report: &EngineReport) {
    for c in &report.cells {
        let received: f64 = c.output.cluster_weights.iter().sum();
        assert!(
            (received + c.lost_points - c.expected_points).abs() < 1e-6,
            "cell {}: received {} + lost {} != expected {}",
            c.cell.index(),
            received,
            c.lost_points,
            c.expected_points
        );
        let expect = if c.cell.index() == pinned::CELL_A { 180.0 } else { 120.0 };
        assert_eq!(c.expected_points, expect, "cell {}", c.cell.index());
        assert!(received > 0.0);
        assert!(c.output.epm.is_finite() && c.output.epm >= 0.0, "cell {}", c.cell.index());
        assert!(c.output.cluster_weights.iter().all(|w| *w > 0.0 && w.is_finite()));
        assert_eq!(c.degraded, c.lost_points > 0.0, "cell {}", c.cell.index());
        if c.lost_chunks > 0 {
            assert!(c.degraded, "cell {} lost chunks but is not degraded", c.cell.index());
        }
    }
    let any_loss = report.faults.scan_failures > 0
        || report.faults.chunks_quarantined > 0
        || report.faults.cells_degraded > 0;
    assert_eq!(report.degraded, any_loss);
}

#[test]
fn zero_fault_run_is_bit_identical_to_pre_pr_output() {
    let (dir, plan) = workload("pinned");
    // The historical entry point (strict policy, no fault plan)…
    let clean = execute(&plan).unwrap();
    assert_matches_pinned(&clean);
    assert!(!clean.faults.any());
    // …and the fault-layer entry point with an empty schedule.
    let with_plan = execute_with_faults(&plan, None, Some(FaultPlan::none(7))).unwrap();
    assert_matches_pinned(&with_plan);
    assert!(!with_plan.faults.any());
    // A tolerant policy with nothing to tolerate also changes nothing.
    let mut tolerant_plan = plan;
    tolerant_plan.fault_policy = FaultPolicy::tolerant();
    let tolerant = execute_with_faults(&tolerant_plan, None, None).unwrap();
    assert_matches_pinned(&tolerant);
    assert!(!tolerant.faults.any());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recoverable_faults_reproduce_the_fault_free_result() {
    quiet_injected_panics();
    let (dir, plan) = workload("recover");
    let mut plan = plan;
    plan.fault_policy = FaultPolicy::tolerant();
    // Every chunk panics once; every scan batch fails once. All of it is
    // recoverable, so the output must be bit-identical to the pinned run.
    let fault_plan = FaultPlan {
        scan_error_rate: 1.0,
        scan_permanent_fraction: 0.0,
        panic_rate: 1.0,
        panic_sticky_fraction: 0.0,
        ..FaultPlan::none(5)
    };
    let report = execute_with_faults(&plan, None, Some(fault_plan)).unwrap();
    assert_matches_pinned(&report);
    assert!(report.faults.worker_panics >= 8, "got {:?}", report.faults);
    assert!(report.faults.scan_retries > 0);
    assert_eq!(report.faults.chunks_quarantined, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_matrix_conserves_surviving_mass() {
    quiet_injected_panics();
    for seed in seeds() {
        let (dir, plan) = workload(&format!("matrix_{seed}"));
        let mut plan = plan;
        plan.fault_policy = FaultPolicy::tolerant();
        for fault_plan in [FaultPlan::light(seed), FaultPlan::heavy(seed)] {
            let run = || execute_with_faults(&plan, None, Some(fault_plan.clone()));
            match run() {
                Ok(report) => {
                    assert_mass_invariants(&report);
                    // Replays are byte-identical: same cells, same bits,
                    // same failure counters.
                    let again = run().unwrap();
                    assert_eq!(report.faults, again.faults, "seed {seed}");
                    assert_eq!(report.degraded, again.degraded, "seed {seed}");
                    assert_eq!(report.cells.len(), again.cells.len(), "seed {seed}");
                    for c in &report.cells {
                        assert_eq!(
                            centroid_bits(&report, c.cell.index()),
                            centroid_bits(&again, c.cell.index()),
                            "seed {seed} cell {}",
                            c.cell.index()
                        );
                    }
                }
                Err(e) => panic!("tolerant policy must survive seed {seed}: {e}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The orchestrator under the chaos matrix: light and heavy schedules with
/// the tolerant policy conserve mass **across all cells** — planet-wide,
/// Σ(received + lost) == Σ expected — and replay byte-identically.
#[test]
fn orchestrator_chaos_matrix_conserves_planet_mass() {
    use pmkm_stream::{orchestrate, OrchestratorOptions};
    for seed in seeds() {
        let dir =
            std::env::temp_dir().join(format!("pmkm_chaos_orch_{seed}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let paths = vec![
            write_cell(&dir, 2, 180, 1234),
            write_cell(&dir, 3, 120, 1234),
            write_cell(&dir, 4, 150, 1234),
            write_cell(&dir, 5, 90, 1234),
        ];
        let expected_total = 180.0 + 120.0 + 150.0 + 90.0;
        quiet_injected_panics();
        let logical =
            LogicalPlan::new(paths, KMeansConfig { restarts: 2, ..KMeansConfig::paper(3, 42) });
        let mut plan = optimize_fixed_split(logical, &Resources::fixed(1 << 20, 2), 40);
        plan.fault_policy = FaultPolicy::tolerant();
        for fault_plan in [FaultPlan::light(seed), FaultPlan::heavy(seed)] {
            let run =
                || orchestrate(&plan, &OrchestratorOptions::new(3), None, Some(fault_plan.clone()));
            let planet = run().unwrap_or_else(|e| {
                panic!("tolerant orchestrated run must survive seed {seed}: {e}")
            });
            assert_eq!(planet.cells.len(), 4, "seed {seed}: an outcome went missing");
            // Planet-wide conservation over surviving cells; a cell whose
            // every chunk was quarantined reports no clustering and must be
            // flagged degraded.
            let received = planet.received_points();
            let lost = planet.lost_points();
            let expected = planet.expected_points();
            assert!(
                (received + lost - expected).abs() < 1e-6,
                "seed {seed}: received {received} + lost {lost} != expected {expected}"
            );
            assert!(expected <= expected_total + 1e-6, "seed {seed}");
            if planet.clusterings().count() == 4 {
                assert_eq!(expected, expected_total, "seed {seed}");
            } else {
                assert!(planet.degraded, "seed {seed}: lost a whole cell silently");
            }
            // Per-cell accounting also balances.
            for c in &planet.cells {
                if let Some(cl) = &c.clustering {
                    let got: f64 = cl.output.cluster_weights.iter().sum();
                    assert!(
                        (got + cl.lost_points - cl.expected_points).abs() < 1e-6,
                        "seed {seed} cell {}",
                        c.input
                    );
                    assert!(cl.output.epm.is_finite() && cl.output.epm >= 0.0);
                }
            }
            // Replays are byte-identical, worker count notwithstanding.
            let again = run().unwrap();
            assert_eq!(planet.faults, again.faults, "seed {seed}");
            assert_eq!(planet.degraded, again.degraded, "seed {seed}");
            for (a, b) in planet.cells.iter().zip(&again.cells) {
                match (&a.clustering, &b.clustering) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        assert_eq!(x.output.centroids, y.output.centroids, "seed {seed}");
                        assert_eq!(x.output.epm.to_bits(), y.output.epm.to_bits());
                    }
                    _ => panic!("seed {seed}: replay diverged on cell {}", a.input),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The pinned workload converted to GB02 block containers reproduces the
/// exact pre-PR bits through every backend × codec at 1 and 4 workers:
/// storage format, compression, prefetch, and parallelism are all
/// invisible to the clustering output.
#[test]
fn gb02_backends_reproduce_pinned_bits_any_worker_count() {
    use pmkm_data::{BackendKind, Codec};
    let (dir, base_plan) = workload("gb02_ident");
    // Convert each bucket in place to GB02 with a block size deliberately
    // misaligned with the 40-point chunks (37), so batching is reshaped.
    let gb02_paths: Vec<PathBuf> =
        base_plan.logical.inputs.iter().map(|p| p.with_extension("gb2")).collect();
    for codec in Codec::ALL {
        for (src, dst) in base_plan.logical.inputs.iter().zip(&gb02_paths) {
            let bucket = pmkm_data::GridBucket::read_from(src).unwrap();
            pmkm_data::write_gb02(&bucket, dst, codec, 37).unwrap();
        }
        for backend in BackendKind::ALL {
            for workers in [1usize, 4] {
                let logical = LogicalPlan::new(
                    gb02_paths.clone(),
                    KMeansConfig { restarts: 2, ..KMeansConfig::paper(3, 42) },
                );
                let mut plan =
                    optimize_fixed_split(logical, &Resources::fixed(1 << 20, workers), 40);
                plan.scan_backend = backend;
                let report = execute(&plan).unwrap();
                assert_matches_pinned(&report);
                assert_mass_invariants(&report);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The chaos matrix over the sim-object-store backend: GET-level
/// flakiness (a fault channel the other backends never roll) composes
/// with scan/panic injection, and tolerant runs still conserve surviving
/// mass and replay byte-identically.
#[test]
fn gb02_sim_store_chaos_matrix_conserves_mass() {
    use pmkm_data::{BackendKind, Codec};
    quiet_injected_panics();
    for seed in seeds() {
        let (dir, base_plan) = workload(&format!("gb02_chaos_{seed}"));
        let gb02_paths: Vec<PathBuf> = base_plan
            .logical
            .inputs
            .iter()
            .map(|p| {
                let bucket = pmkm_data::GridBucket::read_from(p).unwrap();
                let dst = p.with_extension("gb2");
                pmkm_data::write_gb02(&bucket, &dst, Codec::ShuffleRle, 37).unwrap();
                dst
            })
            .collect();
        let logical = LogicalPlan::new(
            gb02_paths,
            KMeansConfig { restarts: 2, ..KMeansConfig::paper(3, 42) },
        );
        let mut plan = optimize_fixed_split(logical, &Resources::fixed(1 << 20, 2), 40);
        plan.fault_policy = FaultPolicy::tolerant();
        plan.scan_backend = BackendKind::SimObjectStore;
        for fault_plan in [FaultPlan::light(seed), FaultPlan::heavy(seed)] {
            let run = || execute_with_faults(&plan, None, Some(fault_plan.clone()));
            let report =
                run().unwrap_or_else(|e| panic!("tolerant policy must survive seed {seed}: {e}"));
            assert_mass_invariants(&report);
            let again = run().unwrap();
            assert_eq!(report.faults, again.faults, "seed {seed}");
            assert_eq!(report.degraded, again.degraded, "seed {seed}");
            for c in &report.cells {
                assert_eq!(
                    centroid_bits(&report, c.cell.index()),
                    centroid_bits(&again, c.cell.index()),
                    "seed {seed} cell {}",
                    c.cell.index()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Every fault kind is booked the same three ways: the run's fault
/// counters, the ledger's `fault` records, and the labeled
/// `fault_events_total{kind}` metric family agree count for count, and the
/// heavy schedule fires each kind somewhere across the seed matrix.
///
/// Scan faults are keyed by bucket path, and the path holds the process id,
/// so each run draws a fresh schedule. Sixteen cells make a kind that never
/// fires over three seeds rare: none was missed in 600 trial directories.
#[test]
fn every_fault_kind_is_booked_alike_in_report_ledger_and_metrics() {
    use pmkm_obs::{labeled_name, parse_ledger, rollup, FaultKind, FaultReport};
    use pmkm_obs::{LedgerSink, Recorder};
    use std::sync::Arc;
    quiet_injected_panics();
    let mut fired = FaultReport::default();
    for seed in seeds() {
        let dir =
            std::env::temp_dir().join(format!("pmkm_chaos_booked_{seed}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let paths = (0..16).map(|i| write_cell(&dir, 2 + i, 180 - 15 * (i as usize % 5), 1234));
        let logical = LogicalPlan::new(
            paths.collect(),
            KMeansConfig { restarts: 2, ..KMeansConfig::paper(3, 42) },
        );
        let mut plan = optimize_fixed_split(logical, &Resources::fixed(1 << 20, 2), 40);
        plan.fault_policy = FaultPolicy::tolerant();
        let ledger = Arc::new(LedgerSink::in_memory());
        let rec = Arc::new(Recorder::new().with_sink(ledger.clone()));
        let report = execute_with_faults(&plan, Some(rec.clone()), Some(FaultPlan::heavy(seed)))
            .unwrap_or_else(|e| panic!("tolerant policy must survive seed {seed}: {e}"))
            .run_report(Some(&rec));
        let ledger_faults = rollup(&parse_ledger(&ledger.snapshot_jsonl()).unwrap()).faults;
        for kind in FaultKind::ALL {
            let booked = report.faults.count(kind);
            let family = labeled_name("fault_events_total", "kind", kind.kind());
            let metric = report.metrics.counters.iter().find(|c| c.name == family);
            assert_eq!(ledger_faults.count(kind), booked, "seed {seed}, {kind:?}: ledger");
            assert_eq!(metric.map_or(0, |c| c.value), booked, "seed {seed}, {kind:?}: {family}");
            *fired.count_mut(kind) += booked;
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    for kind in FaultKind::ALL {
        assert!(fired.count(kind) > 0, "{kind:?} never fired over seeds {:?}", seeds());
    }
}

#[test]
fn strict_policy_fails_cleanly_instead_of_degrading() {
    quiet_injected_panics();
    for seed in seeds() {
        let (dir, plan) = workload(&format!("strict_{seed}"));
        // Strict policy (the plan default): a heavy schedule must surface
        // as a clean error, never as silently-degraded output.
        // A clean `Err` is the contract; `Ok` is only possible if this
        // seed's schedule injected nothing fatal into this workload —
        // then the output must be pristine.
        if let Ok(report) = execute_with_faults(&plan, None, Some(FaultPlan::heavy(seed))) {
            assert!(!report.degraded, "seed {seed}");
            assert_eq!(report.faults.chunks_quarantined, 0, "seed {seed}");
            assert_matches_pinned(&report);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn degraded_run_report_round_trips_and_flags_loss() {
    quiet_injected_panics();
    let (dir, plan) = workload("report");
    let mut plan = plan;
    plan.fault_policy = FaultPolicy::tolerant();
    // Sticky-panic every chunk of cell B's range? Simplest guaranteed loss:
    // poison every chunk; quarantine then drops each poisoned one.
    let fault_plan = FaultPlan { poison_rate: 1.0, ..FaultPlan::none(3) };
    let report = execute_with_faults(&plan, None, Some(fault_plan)).unwrap();
    // Every chunk was poisoned and quarantined: no cells survive, the run
    // is degraded, and the counters say why.
    assert!(report.cells.is_empty());
    assert!(report.degraded);
    assert_eq!(report.faults.chunks_poisoned, 8);
    assert_eq!(report.faults.chunks_quarantined, 8);
    assert_eq!(report.faults.cells_degraded, 2);

    let run_report = report.run_report(None);
    assert!(run_report.degraded);
    assert_eq!(run_report.faults, report.faults);
    let json = serde_json::to_string(&run_report).unwrap();
    let back: pmkm_obs::RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, run_report);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partial_loss_marks_only_the_hit_cell_degraded() {
    quiet_injected_panics();
    // Find a seed whose heavy schedule quarantines some but not all chunks
    // and leaves at least one cell fully intact — then check per-cell
    // accounting end-to-end.
    for seed in 0..200u64 {
        let fault_plan = FaultPlan { poison_rate: 0.2, ..FaultPlan::none(seed) };
        let hit_a = (0..5).any(|id| fault_plan.chunk_fault(722, id).is_some());
        let hit_b = (0..3).any(|id| fault_plan.chunk_fault(1083, id).is_some());
        if !(hit_a ^ hit_b) {
            continue;
        }
        let (dir, plan) = workload(&format!("partial_{seed}"));
        let mut plan = plan;
        plan.fault_policy = FaultPolicy::tolerant();
        let report = execute_with_faults(&plan, None, Some(fault_plan)).unwrap();
        assert_mass_invariants(&report);
        assert!(report.degraded);
        let degraded: Vec<bool> = report.cells.iter().map(|c| c.degraded).collect();
        assert!(degraded.iter().any(|d| *d) && !degraded.iter().all(|d| *d), "seed {seed}");
        let clean = report.cells.iter().find(|c| !c.degraded).unwrap();
        assert_eq!(clean.lost_points, 0.0);
        assert_eq!(clean.lost_chunks, 0);
        let hurt = report.cells.iter().find(|c| c.degraded).unwrap();
        assert!(hurt.lost_points > 0.0 && hurt.lost_chunks > 0);
        // Lost mass is a whole number of points on this workload.
        assert_eq!(hurt.lost_points.fract(), 0.0);
        std::fs::remove_dir_all(&dir).ok();
        return;
    }
    panic!("no seed under 200 hits exactly one cell");
}

/// The coreset path under the chaos matrix: a quarantined chunk's mass is
/// debited from the tree's audit exactly like the merge path's, the audit
/// balances through compaction (`ingested + lost == expected`), and the
/// live-bucket bound survives arbitrary fault schedules.
#[test]
fn coreset_chaos_matrix_conserves_mass_through_compaction() {
    quiet_injected_panics();
    for seed in seeds() {
        let (dir, plan) = workload(&format!("coreset_{seed}"));
        let mut plan = plan;
        plan.coreset = Some(pmkm_stream::CoresetSpec::new(12));
        plan.fault_policy = FaultPolicy::tolerant();
        for fault_plan in [FaultPlan::light(seed), FaultPlan::heavy(seed)] {
            let run = || execute_with_faults(&plan, None, Some(fault_plan.clone()));
            let report = run()
                .unwrap_or_else(|e| panic!("tolerant coreset run must survive seed {seed}: {e}"));
            for c in &report.cells {
                let stats = c.coreset.expect("coreset stats on a coreset run");
                // The emitted weights are the tree's live representatives:
                // they carry exactly the ingested mass…
                let received: f64 = c.output.cluster_weights.iter().sum();
                assert!(
                    (received - stats.ingested_points).abs() < 1e-6,
                    "seed {seed} cell {}: weights {} vs ingested {}",
                    c.cell.index(),
                    received,
                    stats.ingested_points
                );
                // …and the audit debits quarantined chunks, balancing the
                // bucket's promise through every compaction.
                assert!(
                    (stats.ingested_points + stats.lost_points - c.expected_points).abs() < 1e-6,
                    "seed {seed} cell {}: ingested {} + lost {} != expected {}",
                    c.cell.index(),
                    stats.ingested_points,
                    stats.lost_points,
                    c.expected_points
                );
                assert_eq!(c.lost_points, stats.lost_points, "seed {seed}");
                assert_eq!(c.degraded, c.lost_points > 0.0 || c.lost_chunks > 0, "seed {seed}");
                if c.lost_chunks > 0 {
                    assert!(stats.lost_points > 0.0, "seed {seed}: lost chunk left no debit");
                }
                // Faults never break the memory bound: live buckets stay
                // within the binary counter's popcount ceiling.
                assert!(stats.builds >= 1, "seed {seed}");
                assert!(
                    stats.live_buckets as u32 <= (stats.builds as usize).ilog2() + 1,
                    "seed {seed}: {} buckets from {} builds",
                    stats.live_buckets,
                    stats.builds
                );
                assert!(c.output.epm.is_finite() && c.output.epm >= 0.0);
            }
            // Replays are byte-identical.
            let again = run().unwrap();
            assert_eq!(report.faults, again.faults, "seed {seed}");
            for c in &report.cells {
                assert_eq!(
                    centroid_bits(&report, c.cell.index()),
                    centroid_bits(&again, c.cell.index()),
                    "seed {seed} cell {}",
                    c.cell.index()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A fault-free coreset run through the fault layer is bit-identical to
/// the plain entry point, and a strict-policy run with guaranteed chunk
/// loss fails cleanly instead of emitting a degraded tree.
#[test]
fn coreset_strict_policy_fails_cleanly_and_idle_fault_layer_costs_nothing() {
    quiet_injected_panics();
    let (dir, plan) = workload("coreset_strict");
    let mut plan = plan;
    plan.coreset = Some(pmkm_stream::CoresetSpec::new(12));

    // Idle fault layer: same bits as the plain path.
    let clean = execute(&plan).unwrap();
    let with_layer = execute_with_faults(&plan, None, Some(FaultPlan::none(7))).unwrap();
    for c in &clean.cells {
        assert_eq!(
            centroid_bits(&clean, c.cell.index()),
            centroid_bits(&with_layer, c.cell.index())
        );
        let stats = c.coreset.expect("coreset stats");
        assert_eq!(stats.lost_points, 0.0);
        assert!(!c.degraded);
    }

    // Poison every chunk under the strict default: a clean error, never a
    // silently-degraded tree.
    let err = execute_with_faults(
        &plan,
        None,
        Some(FaultPlan { poison_rate: 1.0, ..FaultPlan::none(3) }),
    );
    assert!(err.is_err(), "strict policy must refuse lost coreset mass");
    std::fs::remove_dir_all(&dir).ok();
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // Any seeded schedule under the tolerant policy conserves mass
        // over surviving chunks and keeps every statistic finite.
        #[test]
        fn tolerant_runs_conserve_surviving_mass(
            seed in any::<u64>(),
            scan_error_rate in 0.0..0.4f64,
            scan_permanent_fraction in 0.0..1.0f64,
            truncate_rate in 0.0..0.3f64,
            poison_rate in 0.0..0.3f64,
            panic_rate in 0.0..0.4f64,
            panic_sticky_fraction in 0.0..1.0f64,
        ) {
            quiet_injected_panics();
            let fault_plan = FaultPlan {
                seed,
                scan_error_rate,
                scan_permanent_fraction,
                truncate_rate,
                poison_rate,
                panic_rate,
                panic_sticky_fraction,
                ..FaultPlan::none(seed)
            };
            let (dir, plan) = workload(&format!("prop_{seed}"));
            let mut plan = plan;
            plan.fault_policy = FaultPolicy::tolerant();
            let report = execute_with_faults(&plan, None, Some(fault_plan))
                .expect("tolerant policy must survive any schedule");
            for c in &report.cells {
                let received: f64 = c.output.cluster_weights.iter().sum();
                prop_assert!((received + c.lost_points - c.expected_points).abs() < 1e-6);
                prop_assert!(c.output.epm.is_finite() && c.output.epm >= 0.0);
                prop_assert!(c.output.mse.is_finite());
            }
            // Loss only ever shows up flagged.
            let lost_any = report.cells.iter().any(|c| c.lost_points > 0.0)
                || report.faults.scan_failures > 0
                || report.faults.chunks_quarantined > 0;
            if lost_any {
                prop_assert!(report.degraded);
            } else if report.cells.len() == 2 {
                prop_assert!(!report.degraded);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
