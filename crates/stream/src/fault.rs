//! Deterministic fault injection and the engine's tolerance policy.
//!
//! A [`FaultPlan`] decides — purely from a seed and stable identifiers
//! (bucket path, cell index, chunk id, attempt number) — where the pipeline
//! misbehaves: scan reads error out, chunks arrive truncated or poisoned
//! with NaNs, partial workers panic mid-chunk, queue sends stall. Because
//! every decision is a hash of `(seed, site, key)` rather than a draw from
//! shared RNG state, a schedule replays byte-for-byte regardless of thread
//! interleaving or clone count — the property the chaos suite builds on.
//!
//! A [`FaultPolicy`] decides how the engine *reacts*: the default
//! ([`FaultPolicy::strict`]) preserves the historical fail-fast behavior,
//! while [`FaultPolicy::tolerant`] enables retry-with-backoff for scan
//! errors, quarantine for poisoned or repeatedly-crashing chunks, and the
//! degraded merge that proceeds with surviving mass. Injection and
//! tolerance are orthogonal: chaos tests combine a `FaultPlan` with either
//! policy, and production runs use a policy with no plan at all.

use pmkm_obs::{FaultKind, FaultReport, FieldValue, Recorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Injection site tags, hashed into every roll so the same key draws
/// independent faults at different sites.
const SITE_SCAN: u64 = 0x5343_414E; // "SCAN"
const SITE_SCAN_KIND: u64 = 0x5343_4B44; // "SCKD"
const SITE_OBJGET: u64 = 0x4F47_4554; // "OGET"
const SITE_TRUNCATE: u64 = 0x5452_554E; // "TRUN"
const SITE_POISON: u64 = 0x504F_4953; // "POIS"
const SITE_PANIC: u64 = 0x504E_4943; // "PNIC"
const SITE_PANIC_KIND: u64 = 0x504B_4454; // "PKDT"
const SITE_STALL: u64 = 0x5354_4C4C; // "STLL"

/// Stall-injection key for the chunker→partial edge.
pub const EDGE_CHUNKS: u64 = 1;
/// Stall-injection key for the partial→merge edge.
pub const EDGE_MERGE: u64 = 2;

/// The payload of an injected partial-worker panic. Public so panic hooks
/// (and the chaos suite's noise filter) can recognize injected crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedPanic;

impl std::fmt::Display for InjectedPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected partial-worker panic")
    }
}

/// splitmix64 finalizer: avalanche a 64-bit value.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string, for keying faults off bucket paths.
pub fn path_key(path: &std::path::Path) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in path.as_os_str().as_encoded_bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// How an injected scan error behaves across retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanFault {
    /// Fails on the first attempt, succeeds on any retry.
    Transient,
    /// Fails on every attempt.
    Permanent,
}

/// What an injected chunk-level fault does to the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkFault {
    /// Drop the back half of the chunk's points (at least one survives).
    Truncate,
    /// Overwrite one coordinate with NaN.
    Poison,
}

/// A seeded, deterministic fault schedule. All rates are probabilities in
/// `[0, 1]` evaluated independently per site/key.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Base seed; two plans with equal rates and seeds inject identically.
    pub seed: u64,
    /// Probability a scan batch read (or bucket open) errors.
    pub scan_error_rate: f64,
    /// Of injected scan errors, the fraction that persist across retries.
    pub scan_permanent_fraction: f64,
    /// Probability a chunk is truncated on its way out of the chunker.
    pub truncate_rate: f64,
    /// Probability a chunk is NaN-poisoned on its way out of the chunker.
    pub poison_rate: f64,
    /// Probability a partial worker panics on a chunk's first attempt.
    pub panic_rate: f64,
    /// Of injected panics, the fraction that recur on *every* attempt
    /// (forcing quarantine) rather than only the first.
    pub panic_sticky_fraction: f64,
    /// Probability a queue send stalls for [`stall`](Self::stall).
    pub stall_rate: f64,
    /// Duration of an injected queue stall.
    pub stall: Duration,
    /// Probability an individual object-store ranged GET fails (only
    /// meaningful under the `sim-object-store` scan backend). GET faults
    /// are naturally transient: a retried read issues fresh GETs with new
    /// ordinals, so each retry re-rolls.
    pub object_get_error_rate: f64,
}

impl FaultPlan {
    /// A schedule that injects nothing (useful as a chaos-suite control).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            scan_error_rate: 0.0,
            scan_permanent_fraction: 0.0,
            truncate_rate: 0.0,
            poison_rate: 0.0,
            panic_rate: 0.0,
            panic_sticky_fraction: 0.0,
            stall_rate: 0.0,
            stall: Duration::ZERO,
            object_get_error_rate: 0.0,
        }
    }

    /// A mostly-recoverable schedule: occasional transient read errors,
    /// rare poisoned chunks and worker panics, short stalls.
    pub fn light(seed: u64) -> Self {
        Self {
            scan_error_rate: 0.05,
            scan_permanent_fraction: 0.0,
            truncate_rate: 0.02,
            poison_rate: 0.02,
            panic_rate: 0.05,
            panic_sticky_fraction: 0.0,
            stall_rate: 0.05,
            stall: Duration::from_micros(200),
            object_get_error_rate: 0.03,
            ..Self::none(seed)
        }
    }

    /// An aggressive schedule: frequent faults, some of them permanent, so
    /// quarantine and degraded-merge paths are guaranteed exercise.
    pub fn heavy(seed: u64) -> Self {
        Self {
            scan_error_rate: 0.25,
            scan_permanent_fraction: 0.3,
            truncate_rate: 0.15,
            poison_rate: 0.15,
            panic_rate: 0.25,
            panic_sticky_fraction: 0.5,
            stall_rate: 0.2,
            stall: Duration::from_micros(500),
            object_get_error_rate: 0.1,
            ..Self::none(seed)
        }
    }

    /// Uniform `[0, 1)` roll for `(site, key)`, independent across sites.
    fn roll(&self, site: u64, key: u64) -> f64 {
        let h = mix(self.seed ^ mix(site.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ key));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Does the read of `batch` from the bucket keyed `path` fail, and how?
    /// `batch` is the 0-based batch index (`u64::MAX` keys the open itself).
    pub fn scan_fault(&self, path: u64, batch: u64) -> Option<ScanFault> {
        let key = path ^ batch.wrapping_mul(0xa076_1d64_78bd_642f);
        if self.roll(SITE_SCAN, key) < self.scan_error_rate {
            if self.roll(SITE_SCAN_KIND, key) < self.scan_permanent_fraction {
                Some(ScanFault::Permanent)
            } else {
                Some(ScanFault::Transient)
            }
        } else {
            None
        }
    }

    /// Is chunk `(cell, chunk_id)` corrupted on emission, and how?
    /// Truncation and poisoning are mutually exclusive (truncation wins).
    pub fn chunk_fault(&self, cell: u32, chunk_id: usize) -> Option<ChunkFault> {
        let key = ((cell as u64) << 32) ^ chunk_id as u64;
        if self.roll(SITE_TRUNCATE, key) < self.truncate_rate {
            Some(ChunkFault::Truncate)
        } else if self.roll(SITE_POISON, key) < self.poison_rate {
            Some(ChunkFault::Poison)
        } else {
            None
        }
    }

    /// Does the worker clustering `(cell, chunk_id)` panic on `attempt`
    /// (0-based)? Non-sticky panics fire only on attempt 0, so one retry
    /// recovers; sticky panics fire on every attempt until the retry
    /// budget quarantines the chunk.
    pub fn panic_fault(&self, cell: u32, chunk_id: usize, attempt: usize) -> bool {
        let key = ((cell as u64) << 32) ^ chunk_id as u64;
        if self.roll(SITE_PANIC, key) >= self.panic_rate {
            return false;
        }
        attempt == 0 || self.roll(SITE_PANIC_KIND, key) < self.panic_sticky_fraction
    }

    /// Does the `get_ordinal`-th ranged GET against the object keyed
    /// `path` fail? Rolled by the simulated object store per GET, so a
    /// retried block read (fresh ordinals) re-rolls — injected GET faults
    /// behave like transient network flakiness.
    pub fn object_get_fault(&self, path: u64, get_ordinal: u64) -> bool {
        let key = path ^ get_ordinal.wrapping_mul(0xd6e8_feb8_6659_fd93);
        self.roll(SITE_OBJGET, key) < self.object_get_error_rate
    }

    /// Should the `seq`-th send on the edge keyed `edge` stall, and for how
    /// long?
    pub fn stall(&self, edge: u64, seq: u64) -> Option<Duration> {
        let key = edge ^ seq.wrapping_mul(0xe703_7ed1_a0b4_28db);
        (self.roll(SITE_STALL, key) < self.stall_rate).then_some(self.stall)
    }
}

/// How the engine reacts to faults (injected or real).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Extra scan-read attempts after the first failure.
    pub scan_retries: usize,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub retry_backoff: Duration,
    /// Quarantine invalid (non-finite) or repeatedly-crashing chunks
    /// instead of aborting the run.
    pub quarantine: bool,
    /// Merge cells whose partials are incomplete at end of stream,
    /// reporting the lost mass, instead of erroring.
    pub degraded_merge: bool,
    /// Total clustering attempts per chunk before a crashing chunk is
    /// given up on (`>= 1`).
    pub max_chunk_attempts: usize,
}

impl FaultPolicy {
    /// Fail-fast: no retries, no quarantine, no degraded merge — the
    /// engine's historical behavior, and the default.
    pub fn strict() -> Self {
        Self {
            scan_retries: 0,
            retry_backoff: Duration::ZERO,
            quarantine: false,
            degraded_merge: false,
            max_chunk_attempts: 1,
        }
    }

    /// Keep the run alive: retry transient scan errors with backoff,
    /// quarantine bad chunks, merge degraded cells.
    pub fn tolerant() -> Self {
        Self {
            scan_retries: 3,
            retry_backoff: Duration::from_micros(100),
            quarantine: true,
            degraded_merge: true,
            max_chunk_attempts: 3,
        }
    }
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self::strict()
    }
}

/// Shared failure counters, one per [`FaultKind`], bumped by
/// [`FaultContext::fault`] and snapshotted into the run's [`FaultReport`].
#[derive(Debug, Default)]
pub struct FaultCounters([AtomicU64; FaultKind::ALL.len()]);

impl FaultCounters {
    /// Plain-data copy for reports.
    pub fn snapshot(&self) -> FaultReport {
        let mut report = FaultReport::default();
        for kind in FaultKind::ALL {
            *report.count_mut(kind) = self.0[kind as usize].load(Ordering::Relaxed);
        }
        report
    }
}

/// Everything an operator is handed beside its queues, bundled so the
/// executor passes one value to every clone: the run's recorder, the
/// (optional) injection schedule, the reaction policy, and the shared
/// counters. The default is the bare strict run: no observer, no injection.
#[derive(Debug, Clone, Default)]
pub struct FaultContext {
    /// Trace/metrics recorder; `None` records nothing and costs nothing.
    pub rec: Option<Arc<Recorder>>,
    /// The injection schedule; `None` injects nothing.
    pub plan: Option<Arc<FaultPlan>>,
    /// How the operators react to faults.
    pub policy: FaultPolicy,
    /// Shared counters, snapshotted into the engine report.
    pub counters: Arc<FaultCounters>,
}

impl FaultContext {
    /// An unobserved context that injects `plan` under `policy`.
    pub fn new(plan: Option<FaultPlan>, policy: FaultPolicy) -> Self {
        Self {
            rec: None,
            plan: plan.map(Arc::new),
            policy,
            counters: Arc::new(FaultCounters::default()),
        }
    }

    /// The recorder, if the run is observed.
    pub fn rec(&self) -> Option<&Recorder> {
        self.rec.as_deref()
    }

    /// Books one fault of `kind`: bumps its counter and, when the run is
    /// observed, emits one `fault` ledger event (`kind` plus any
    /// site-specific context fields) and bumps `fault_events_total{kind}`.
    ///
    /// Each kind has one booking site, so a ledger rollup and the metric
    /// family reproduce the run's [`FaultReport`] count for count.
    pub fn fault(&self, kind: FaultKind, fields: &[(&str, FieldValue)]) {
        self.counters.0[kind as usize].fetch_add(1, Ordering::Relaxed);
        if let Some(rec) = self.rec() {
            let mut all: Vec<(&str, FieldValue)> = Vec::with_capacity(fields.len() + 1);
            all.push(("kind", kind.kind().into()));
            all.extend_from_slice(fields);
            rec.event("fault", &all);
            rec.registry().labeled_counter("fault_events_total", "kind", kind.kind()).inc();
        }
    }

    /// True when chunk payloads must be validated before clustering:
    /// either faults may be injected or the policy wants quarantine.
    pub fn validate_chunks(&self) -> bool {
        self.plan.is_some() || self.policy.quarantine
    }

    /// True when the merge must treat any mass shortfall as a pipeline bug
    /// (the fail-fast promise of a non-degraded-merge policy).
    pub fn strict_mass_check(&self) -> bool {
        !self.policy.degraded_merge
    }

    /// Sleeps through an injected queue-send stall, if the plan schedules
    /// one for `(edge, key)`; counts it either way it fires.
    pub fn maybe_stall(&self, edge: u64, key: u64) {
        if let Some(stall) = self.plan.as_deref().and_then(|p| p.stall(edge, key)) {
            self.fault(
                FaultKind::QueueStall,
                &[("edge", edge.into()), ("stall_us", (stall.as_micros() as u64).into())],
            );
            if !stall.is_zero() {
                std::thread::sleep(stall);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn rolls_are_deterministic_and_site_independent() {
        let plan = FaultPlan::heavy(42);
        assert_eq!(plan.scan_fault(7, 3), plan.scan_fault(7, 3));
        assert_eq!(plan.chunk_fault(1, 2), plan.chunk_fault(1, 2));
        assert_eq!(plan.panic_fault(1, 2, 0), plan.panic_fault(1, 2, 0));
        assert_eq!(plan.stall(9, 5), plan.stall(9, 5));
        // Different seeds decorrelate the schedule.
        let other = FaultPlan::heavy(43);
        let same = (0..200)
            .filter(|&i| plan.scan_fault(7, i).is_some() == other.scan_fault(7, i).is_some())
            .count();
        assert!(same < 200, "seeds 42 and 43 agree on every roll");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan { scan_error_rate: 0.5, ..FaultPlan::none(7) };
        let hits = (0..2000).filter(|&i| plan.scan_fault(1, i).is_some()).count();
        assert!((800..1200).contains(&hits), "0.5 rate produced {hits}/2000 hits");
        let none = FaultPlan::none(7);
        assert!((0..2000).all(|i| none.scan_fault(1, i).is_none()));
        assert!((0..2000).all(|i| none.chunk_fault(0, i as usize).is_none()));
        assert!((0..2000).all(|i| !none.panic_fault(0, i as usize, 0)));
        assert!((0..2000).all(|i| none.stall(0, i).is_none()));
    }

    #[test]
    fn transient_panics_clear_on_retry_sticky_ones_do_not() {
        let plan = FaultPlan { panic_rate: 1.0, panic_sticky_fraction: 0.0, ..FaultPlan::none(3) };
        assert!(plan.panic_fault(5, 0, 0));
        assert!(!plan.panic_fault(5, 0, 1));
        let sticky =
            FaultPlan { panic_rate: 1.0, panic_sticky_fraction: 1.0, ..FaultPlan::none(3) };
        assert!(sticky.panic_fault(5, 0, 0));
        assert!(sticky.panic_fault(5, 0, 1));
        assert!(sticky.panic_fault(5, 0, 7));
    }

    #[test]
    fn scan_fault_kind_follows_permanent_fraction() {
        let all_permanent =
            FaultPlan { scan_error_rate: 1.0, scan_permanent_fraction: 1.0, ..FaultPlan::none(1) };
        assert_eq!(all_permanent.scan_fault(2, 0), Some(ScanFault::Permanent));
        let all_transient =
            FaultPlan { scan_error_rate: 1.0, scan_permanent_fraction: 0.0, ..FaultPlan::none(1) };
        assert_eq!(all_transient.scan_fault(2, 0), Some(ScanFault::Transient));
    }

    #[test]
    fn object_get_faults_roll_per_ordinal() {
        let plan = FaultPlan { object_get_error_rate: 0.5, ..FaultPlan::none(9) };
        assert_eq!(plan.object_get_fault(3, 0), plan.object_get_fault(3, 0));
        let hits = (0..2000).filter(|&i| plan.object_get_fault(3, i)).count();
        assert!((800..1200).contains(&hits), "0.5 rate produced {hits}/2000 hits");
        assert!((0..2000).all(|i| !FaultPlan::none(9).object_get_fault(3, i)));
        // Presets with injection enable some GET flakiness.
        assert!(FaultPlan::light(1).object_get_error_rate > 0.0);
        assert!(
            FaultPlan::heavy(1).object_get_error_rate > FaultPlan::light(1).object_get_error_rate
        );
    }

    #[test]
    fn path_key_distinguishes_paths() {
        assert_ne!(path_key(Path::new("a/cell_1.gb")), path_key(Path::new("a/cell_2.gb")));
        assert_eq!(path_key(Path::new("x.gb")), path_key(Path::new("x.gb")));
    }

    #[test]
    fn policy_defaults_are_strict() {
        let p = FaultPolicy::default();
        assert_eq!(p, FaultPolicy::strict());
        assert_eq!(p.scan_retries, 0);
        assert!(!p.quarantine);
        assert!(!p.degraded_merge);
        assert_eq!(p.max_chunk_attempts, 1);
        let t = FaultPolicy::tolerant();
        assert!(t.scan_retries > 0 && t.quarantine && t.degraded_merge);
        assert!(t.max_chunk_attempts > 1);
    }

    #[test]
    fn counters_snapshot_roundtrip() {
        let c = FaultCounters::default();
        c.0[FaultKind::ScanRetry as usize].store(2, Ordering::Relaxed);
        c.0[FaultKind::WorkerPanic as usize].store(1, Ordering::Relaxed);
        c.0[FaultKind::CellDegraded as usize].store(3, Ordering::Relaxed);
        let snap = c.snapshot();
        assert_eq!(snap.scan_retries, 2);
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.cells_degraded, 3);
        assert!(snap.any());
        assert!(!FaultCounters::default().snapshot().any());
    }

    #[test]
    fn context_validation_gate() {
        assert!(!FaultContext::default().validate_chunks());
        assert!(FaultContext::new(None, FaultPolicy::tolerant()).validate_chunks());
        assert!(
            FaultContext::new(Some(FaultPlan::none(0)), FaultPolicy::strict()).validate_chunks()
        );
    }
}
