//! The resume-equivalence suite: the orchestrator's headline contract.
//!
//! Every per-cell result is a pure function of `(bucket, plan, fault seed)`,
//! so a run that is killed after k checkpoints and then resumed must produce
//! **bit-identical** per-cell centroids, weights, E_pm, mass accounting and
//! fault counters to an uninterrupted run. The run matrix
//! (`tests/run_matrix.rs`) crosses kill-and-resume with every other run
//! axis; this suite adds:
//!
//! 1. a checkpoint directory that refuses two inputs with one file name,
//! 2. resumed cells rolled into the `/metrics` mass gauges,
//! 3. corrupted / truncated / stale checkpoint files — detected via
//!    checksum, fingerprint and version checks, answered with a silent
//!    re-scan, never a panic,
//! 4. random `(seed, cells, kill_k, jobs)` triples via proptest.

mod common;

use common::{answers, planet, quiet_injected_panics, write_cell};
use pmkm_core::KMeansConfig;
use pmkm_stream::prelude::*;
use pmkm_stream::{FaultPlan, FaultPolicy};
use std::path::{Path, PathBuf};

fn ckpt_dir(data_dir: &Path) -> PathBuf {
    data_dir.join("ckpt")
}

/// A resumed orchestrated run's `/metrics` mass gauges cover the *whole*
/// planet: restored cells roll their mass into `mass_weight_expected` /
/// `mass_weight_received` exactly as live merges do, so
/// `mass_conservation_ratio` reports `Σw_received / Σw_expected` over
/// executed and resumed cells alike.
#[test]
fn resumed_cells_roll_into_mass_conservation_gauges() {
    let (dir, plan) = planet("mass_gauges", 6, 41, 9);
    let cdir = ckpt_dir(&dir);
    let killed = orchestrate(
        &plan,
        &OrchestratorOptions::new(2).with_checkpoints(&cdir).kill_after(3),
        None,
        None,
    )
    .unwrap();
    assert!(killed.interrupted);
    let rec = std::sync::Arc::new(pmkm_obs::Recorder::new());
    let resumed = orchestrate(
        &plan,
        &OrchestratorOptions::new(3).with_checkpoints(&cdir).resuming(),
        Some(std::sync::Arc::clone(&rec)),
        None,
    )
    .unwrap();
    assert_eq!(resumed.cells_resumed, 3);
    let expected = rec.registry().gauge("mass_weight_expected").get();
    let received = rec.registry().gauge("mass_weight_received").get();
    let ratio = rec.registry().gauge("mass_conservation_ratio").get();
    assert_eq!(
        expected,
        resumed.expected_points(),
        "gauges must include the {} resumed cells",
        resumed.cells_resumed
    );
    assert_eq!(received, resumed.received_points());
    assert!((ratio - 1.0).abs() < 1e-12, "clean run must conserve all mass, got {ratio}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupted, truncated and garbage checkpoint files are caught by the
/// checksum and answered with a re-scan — never a panic, and the final
/// results are still bit-identical.
#[test]
fn corrupted_checkpoints_fall_back_to_rescan() {
    let (dir, plan) = planet("corrupt", 8, 13, 3);
    let baseline = orchestrate(&plan, &OrchestratorOptions::new(2), None, None).unwrap();
    let cdir = ckpt_dir(&dir);
    let full = orchestrate(&plan, &OrchestratorOptions::new(2).with_checkpoints(&cdir), None, None)
        .unwrap();
    assert_eq!(full.checkpoints_written, 8);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&cdir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 8);
    // Flip a payload byte in one…
    let text = std::fs::read_to_string(&files[0]).unwrap();
    let mut bytes = text.into_bytes();
    let last = bytes.len() - 3;
    bytes[last] ^= 0x01;
    std::fs::write(&files[0], &bytes).unwrap();
    // …truncate another mid-payload…
    let text = std::fs::read_to_string(&files[1]).unwrap();
    std::fs::write(&files[1], &text[..text.len() / 2]).unwrap();
    // …and replace a third with garbage.
    std::fs::write(&files[2], b"not json at all\n").unwrap();

    let resumed = orchestrate(
        &plan,
        &OrchestratorOptions::new(3).with_checkpoints(&cdir).resuming(),
        None,
        None,
    )
    .unwrap();
    assert_eq!(resumed.checkpoints_invalid, 3);
    assert_eq!(resumed.cells_resumed, 5);
    assert_eq!(resumed.cells_executed, 3);
    assert_eq!(answers(&baseline), answers(&resumed));
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint from a *different plan* (fingerprint mismatch) or a
/// *newer format version* is stale, not trusted.
#[test]
fn stale_fingerprint_or_newer_version_forces_rescan() {
    let (dir, plan) = planet("stale", 4, 9, 21);
    let cdir = ckpt_dir(&dir);
    let full = orchestrate(&plan, &OrchestratorOptions::new(2).with_checkpoints(&cdir), None, None)
        .unwrap();
    assert_eq!(full.checkpoints_written, 4);

    // Same buckets, different k-means seed → different fingerprint.
    let mut other = plan.clone();
    other.logical.kmeans.seed = 9999;
    let other_baseline = orchestrate(&other, &OrchestratorOptions::new(2), None, None).unwrap();
    let resumed = orchestrate(
        &other,
        &OrchestratorOptions::new(2).with_checkpoints(&cdir).resuming(),
        None,
        None,
    )
    .unwrap();
    assert_eq!(resumed.cells_resumed, 0);
    assert_eq!(resumed.checkpoints_invalid, 4);
    assert_eq!(answers(&other_baseline), answers(&resumed));

    // A file claiming a future format version is rejected too. (The resume
    // above rewrote checkpoints for `other`; doctor one to version 99.)
    let mut files: Vec<PathBuf> = std::fs::read_dir(&cdir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    files.sort();
    let text = std::fs::read_to_string(&files[0]).unwrap();
    let doctored = text.replacen("\"checkpoint\":1", "\"checkpoint\":99", 1);
    assert_ne!(text, doctored);
    std::fs::write(&files[0], doctored).unwrap();
    let resumed2 = orchestrate(
        &other,
        &OrchestratorOptions::new(2).with_checkpoints(&cdir).resuming(),
        None,
        None,
    )
    .unwrap();
    assert_eq!(resumed2.checkpoints_invalid, 1);
    assert_eq!(resumed2.cells_resumed, 3);
    assert_eq!(answers(&other_baseline), answers(&resumed2));
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoints are named after their bucket's file name, so under a
/// checkpoint directory two inputs sharing one (the same path given twice
/// included) are refused before anything is written; without one they run.
#[test]
fn inputs_sharing_a_file_name_are_refused_under_checkpoints() {
    let root = std::env::temp_dir().join(format!("pmkm_resume_collide_{}", std::process::id()));
    let (a, b) = (root.join("a"), root.join("b"));
    std::fs::create_dir_all(&a).unwrap();
    std::fs::create_dir_all(&b).unwrap();
    let (first, second) = (write_cell(&a, 7, 90, 1), write_cell(&b, 7, 90, 2));
    assert_eq!(first.file_name(), second.file_name());
    let cdir = ckpt_dir(&root);
    for inputs in [vec![first.clone(), second], vec![first.clone(), first]] {
        let kmeans = KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, 3) };
        let logical = LogicalPlan::new(inputs.clone(), kmeans);
        let plan = optimize_fixed_split(logical, &Resources::fixed(1 << 20, 1), 40);
        let opts = OrchestratorOptions::new(1).with_checkpoints(&cdir);
        match orchestrate(&plan, &opts, None, None) {
            Err(pmkm_stream::EngineError::InvalidPlan(msg)) => {
                for p in &inputs {
                    assert!(msg.contains(&p.display().to_string()), "{msg}");
                }
            }
            other => panic!("a shared file name must be refused: {other:?}"),
        }
        assert!(!cdir.exists(), "a refused plan writes nothing");
        let planet = orchestrate(&plan, &OrchestratorOptions::new(1), None, None).unwrap();
        assert_eq!(planet.cells.len(), 2);
    }
    std::fs::remove_dir_all(&root).ok();
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        // Random (seed, cells, kill_k, jobs) triples: kill-then-resume is
        // always bit-identical to uninterrupted, faulty or not.
        #[test]
        fn kill_resume_equivalence(
            data_seed in 0..1000u64,
            plan_seed in 0..1000u64,
            cells in 3..=5usize,
            kill_k in 0..=5usize,
            jobs in 1..=4usize,
        ) {
            quiet_injected_panics();
            let kill_k = kill_k.min(cells);
            let faulty = (data_seed ^ plan_seed) % 2 == 1;
            let tag = format!("prop_{data_seed}_{plan_seed}_{cells}_{kill_k}_{jobs}");
            let (dir, plan) = planet(&tag, cells, data_seed, plan_seed);
            let mut plan = plan;
            let faults = if faulty {
                plan.fault_policy = FaultPolicy::tolerant();
                Some(FaultPlan::light(data_seed ^ plan_seed))
            } else {
                None
            };
            let baseline =
                orchestrate(&plan, &OrchestratorOptions::new(jobs), None, faults.clone()).unwrap();
            let cdir = ckpt_dir(&dir);
            let killed = orchestrate(
                &plan,
                &OrchestratorOptions::new(jobs).with_checkpoints(&cdir).kill_after(kill_k),
                None,
                faults.clone(),
            )
            .unwrap();
            // kill_after(0) never fires: the run completes and checkpoints
            // every cell; resume then re-executes nothing.
            if kill_k > 0 && kill_k < cells {
                prop_assert!(killed.interrupted);
                prop_assert_eq!(killed.checkpoints_written, kill_k);
            }
            let resumed = orchestrate(
                &plan,
                &OrchestratorOptions::new(jobs).with_checkpoints(&cdir).resuming(),
                None,
                faults,
            )
            .unwrap();
            prop_assert_eq!(resumed.checkpoints_invalid, 0);
            prop_assert_eq!(resumed.cells_resumed, killed.checkpoints_written);
            assert_eq!(answers(&baseline), answers(&resumed));
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
