//! # pmkm-obs — observability for the partial/merge pipeline
//!
//! Nine modules, each usable on its own:
//!
//! 1. [`metrics`] — a lock-cheap metrics [`Registry`] of named
//!    [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s, with a
//!    Prometheus text renderer ([`Registry::render_prometheus`]).
//! 2. [`trace`] — a structured [`Recorder`] that stamps [`Event`]s with
//!    monotonic microsecond timestamps and fans them out to pluggable
//!    [`TraceSink`]s (an in-memory [`RingBufferSink`]; the run ledger's
//!    [`LedgerSink`] is the on-disk one).
//! 3. [`report`] — plain-data [`RunReport`] types (serde round-trippable)
//!    that the pipeline and the stream engine fill in per run.
//! 4. [`profile`] — a hierarchical span [`Profiler`] aggregating nested
//!    timed phases (scan → partial{seed, assign, update, converge} → merge)
//!    with self/child attribution and folded-stack flamegraph export.
//! 5. [`serve`] — a dependency-light HTTP [`MetricsServer`] exposing
//!    `/metrics`, `/report.json`, `/healthz`, and — when a ledger is
//!    attached — the `/events` long-poll stream and `/ledger.jsonl`
//!    download, on a background thread.
//! 6. [`ledger`] — the versioned, append-only JSONL run ledger
//!    ([`LedgerSink`]) with a parser, a per-cell/per-phase [`rollup`]
//!    engine, and the cross-run [`diff_profiles`] attribution engine.
//! 7. [`timeline`] — per-worker state [`Timeline`]s (per-state dwell
//!    times on the recorder clock) aggregated into [`WorkerTimeline`]
//!    utilization and per-thread-max wall rollups.
//! 8. [`status`] — the live `/status` planet-progress document
//!    ([`StatusSnapshot`]) published through a pointer-swap
//!    [`StatusCell`].
//! 9. [`chrome`] — Chrome trace-event / Perfetto JSON export
//!    ([`chrome_trace`]) and terminal Gantt rendering ([`ascii_gantt`]) of
//!    a run ledger.
//!
//! The instrumented code paths in `pmkm-core` and `pmkm-stream` thread an
//! `Option<&Recorder>` through; `None` keeps the hooks zero-cost (no
//! allocation, no locking, no timestamping), which is the contract the
//! `lloyd` benches guard.
//!
//! ```
//! use pmkm_obs::{Recorder, RingBufferSink};
//! use std::sync::Arc;
//!
//! let ring = Arc::new(RingBufferSink::new(64));
//! let rec = Recorder::new().with_sink(ring.clone());
//! rec.registry().counter("chunks_total").add(3);
//! rec.event("partial.chunk", &[("points", 500u64.into())]);
//! assert_eq!(ring.events().len(), 1);
//! assert!(rec.registry().render_prometheus().contains("chunks_total 3"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod ledger;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod serve;
pub mod status;
pub mod timeline;
pub mod trace;

pub use chrome::{ascii_gantt, chrome_trace, chrome_trace_from_report};
pub use ledger::{
    attribute_phases, diff_profiles, emit_phase_events, parse_ledger, read_ledger, rollup,
    CheckpointRollup, CoresetLevelRollup, CoresetRollup, LedgerRecord, LedgerRollup, LedgerSink,
    PhaseDelta, ProfileDiff, RunProfile, LEDGER_VERSION,
};
pub use metrics::{escape_label_value, labeled_name, Counter, Gauge, Histogram, Registry};
pub use profile::{ManualClock, MonotonicClock, PhaseGuard, Profiler, ProfilerClock};
pub use report::{
    CellReport, ChunkReport, CoresetReport, CounterSample, FaultKind, FaultReport, GaugeSample,
    HistogramSample, HistogramSnapshot, MergeReport, MetricsSnapshot, OperatorReport,
    OrchestratorReport, PhaseReport, QueueReport, RunReport,
};
pub use serve::MetricsServer;
pub use status::{CoresetStatus, StatusCell, StatusSnapshot, WorkerStatus, STATUS_SCHEMA_VERSION};
pub use timeline::{Timeline, WorkerLaneReport, WorkerState, WorkerTimeline};
pub use trace::{Event, FieldValue, Recorder, RingBufferSink, TraceSink};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard when another thread panicked while
/// holding it.
///
/// Every lock in this crate and in `pmkm-stream`, `MemoryBudget`'s
/// aside, is taken through here. A poisoned lock is not an error
/// for them: what they guard (metric maps, event rings, the ledger writer,
/// status snapshots, the run's bookkeeping) stays usable as it stands, so a
/// worker's panic (an injected chaos fault, say) remains that worker's
/// failure instead of cascading into every thread that takes the lock
/// after it.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::lock;
    use std::sync::{Arc, Mutex};

    #[test]
    fn lock_recovers_the_guard_after_a_panic_under_it() {
        let m = Arc::new(Mutex::new(vec![1u32, 2]));
        let held = Arc::clone(&m);
        let panicked = std::thread::spawn(move || {
            let mut v = lock(&held);
            v.push(3);
            panic!("panic while holding the lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(m.is_poisoned());
        let mut v = lock(&m);
        assert_eq!(*v, [1, 2, 3]);
        v.push(4);
        drop(v);
        assert_eq!(*lock(&m), [1, 2, 3, 4]);
    }
}
