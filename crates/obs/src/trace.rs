//! Structured tracing: events and pluggable sinks.

use crate::lock;
use crate::metrics::Registry;
use crate::profile::{PhaseGuard, Profiler};
use crate::timeline::{Timeline, WorkerState};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One typed field value on an [`Event`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Microseconds since the owning [`Recorder`] was created (monotonic).
    pub ts_us: u64,
    /// Event name, dotted by convention (`"lloyd.iteration"`).
    pub name: String,
    /// Named field values, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

/// Where emitted events go. Implementations must be safe to share across
/// operator threads.
pub trait TraceSink: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &Event);
    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

/// An in-memory ring buffer keeping the newest `capacity` events.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    buf: Mutex<VecDeque<Event>>,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { capacity, buf: Mutex::new(VecDeque::with_capacity(capacity)) }
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        lock(&self.buf).iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        lock(&self.buf).len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        lock(&self.buf).is_empty()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, event: &Event) {
        let mut buf = lock(&self.buf);
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

/// The event recorder: a monotonic clock, a set of sinks, and a metrics
/// [`Registry`].
///
/// Instrumented code takes `Option<&Recorder>`; `None` short-circuits every
/// hook before any timestamp or allocation happens, so disabled tracing
/// costs one branch.
pub struct Recorder {
    epoch: Instant,
    sinks: Vec<Arc<dyn TraceSink>>,
    registry: Registry,
    profiler: Option<Arc<Profiler>>,
    timeline: Option<Arc<Timeline>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with no sinks (metrics still work; events go nowhere).
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            sinks: Vec::new(),
            registry: Registry::new(),
            profiler: None,
            timeline: None,
        }
    }

    /// Adds a sink (builder style).
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Attaches a span profiler (builder style); [`Recorder::phase`] spans
    /// go nowhere without one.
    pub fn with_profiler(mut self, profiler: Arc<Profiler>) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Attaches a worker-state timeline (builder style); the
    /// [`Recorder::worker_state`] family goes nowhere without one.
    pub fn with_timeline(mut self, timeline: Arc<Timeline>) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// The attached span profiler, if any.
    pub fn profiler(&self) -> Option<&Arc<Profiler>> {
        self.profiler.as_ref()
    }

    /// The attached worker-state timeline, if any.
    pub fn timeline(&self) -> Option<&Arc<Timeline>> {
        self.timeline.as_ref()
    }

    /// Registers a worker lane on the attached timeline (no-op without
    /// one), emitting the lane's opening `worker.state` event.
    pub fn register_worker(&self, label: &str) -> Option<usize> {
        let tl = self.timeline.as_deref()?;
        let lane = tl.register(label, self.elapsed_us());
        self.emit_worker_state(label, lane, WorkerState::Idle);
        Some(lane)
    }

    /// Records a worker-state transition on `lane`. Coalesced records
    /// (same state) and recorders without a timeline emit nothing.
    pub fn worker_state(&self, lane: usize, state: WorkerState) {
        let Some(tl) = self.timeline.as_deref() else { return };
        if tl.record(lane, state, self.elapsed_us()) {
            if let Some(label) = tl.label(lane) {
                self.emit_worker_state(&label, lane, state);
            }
        }
    }

    /// Records a worker-state transition addressed by the cell bound to a
    /// lane (see [`Timeline::bind_cell`]). Unbound cells, coalesced
    /// records, and recorders without a timeline emit nothing.
    pub fn worker_state_cell(&self, cell: u32, state: WorkerState) {
        let Some(tl) = self.timeline.as_deref() else { return };
        if let Some(lane) = tl.record_cell(cell, state, self.elapsed_us()) {
            if let Some(label) = tl.label(lane) {
                self.emit_worker_state(&label, lane, state);
            }
        }
    }

    fn emit_worker_state(&self, label: &str, lane: usize, state: WorkerState) {
        self.event(
            "worker.state",
            &[("worker", label.into()), ("lane", lane.into()), ("state", state.as_str().into())],
        );
    }

    /// Opens a profiler phase span, or returns `None` when no profiler is
    /// attached. Idiomatic call site, zero-cost without a recorder:
    ///
    /// ```
    /// # use pmkm_obs::Recorder;
    /// # fn work(rec: Option<&Recorder>) {
    /// let _phase = rec.and_then(|r| r.phase("assign"));
    /// // ... timed work ...
    /// # }
    /// ```
    pub fn phase(&self, name: &str) -> Option<PhaseGuard<'_>> {
        self.profiler.as_deref().map(|p| p.enter(name))
    }

    /// Phase rows from the attached profiler (empty without one).
    pub fn phase_rows(&self) -> Vec<crate::report::PhaseReport> {
        self.profiler.as_deref().map(|p| p.phase_rows()).unwrap_or_default()
    }

    /// The recorder's metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Microseconds since the recorder was created.
    pub fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Emits one event to every sink. Without sinks nothing is built.
    pub fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        if self.sinks.is_empty() {
            return;
        }
        let event = Event {
            ts_us: self.elapsed_us(),
            name: name.to_string(),
            fields: fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        };
        for sink in &self.sinks {
            sink.record(&event);
        }
    }

    /// Flushes every sink.
    pub fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("sinks", &self.sinks.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_carry_monotonic_timestamps_and_fields() {
        let ring = Arc::new(RingBufferSink::new(8));
        let rec = Recorder::new().with_sink(ring.clone());
        rec.event("a", &[("n", 1u64.into())]);
        rec.event("b", &[("x", 2.5.into()), ("ok", true.into())]);
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert!(events[0].ts_us <= events[1].ts_us);
        assert_eq!(events[1].fields[0], ("x".to_string(), FieldValue::F64(2.5)));
        assert_eq!(events[1].fields[1], ("ok".to_string(), FieldValue::Bool(true)));
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let ring = Arc::new(RingBufferSink::new(3));
        let rec = Recorder::new().with_sink(ring.clone());
        for i in 0..5u64 {
            rec.event("e", &[("i", i.into())]);
        }
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].fields[0].1, FieldValue::U64(2));
        assert_eq!(events[2].fields[0].1, FieldValue::U64(4));
    }

    #[test]
    fn sinkless_recorder_still_counts_and_profiles() {
        use crate::profile::{ManualClock, Profiler};
        let clock = Arc::new(ManualClock::new());
        let rec = Recorder::new().with_profiler(Arc::new(Profiler::with_clock(clock.clone())));
        {
            let _phase = rec.phase("assign");
            rec.event("e", &[("n", 1u64.into())]);
            rec.registry().counter("chunks_total").add(2);
            clock.advance_us(5);
        }
        assert_eq!(rec.registry().counter_value("chunks_total"), 2);
        let rows = rec.phase_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].path.as_str(), rows[0].calls, rows[0].total_us), ("assign", 1, 5));
    }

    #[test]
    fn worker_state_transitions_emit_events_and_coalesce() {
        use crate::timeline::{Timeline, WorkerState};
        let ring = Arc::new(RingBufferSink::new(64));
        let timeline = Arc::new(Timeline::new());
        let rec = Recorder::new().with_sink(ring.clone()).with_timeline(Arc::clone(&timeline));
        let lane = rec.register_worker("w0").expect("timeline attached");
        rec.worker_state(lane, WorkerState::Scan);
        rec.worker_state(lane, WorkerState::Scan); // coalesced: no event
        rec.worker_state(lane, WorkerState::Idle);
        let events = ring.events();
        let states: Vec<&Event> = events.iter().filter(|e| e.name == "worker.state").collect();
        assert_eq!(states.len(), 3, "register + scan + idle, coalesced repeat dropped");
        assert_eq!(
            states[1].fields,
            vec![
                ("worker".to_string(), FieldValue::Str("w0".into())),
                ("lane".to_string(), FieldValue::U64(lane as u64)),
                ("state".to_string(), FieldValue::Str("scan".into())),
            ]
        );
        // Cell-bound recording reaches the same lane.
        timeline.bind_cell(7, lane);
        rec.worker_state_cell(7, WorkerState::Partial);
        assert_eq!(ring.events().iter().filter(|e| e.name == "worker.state").count(), 4);
        // Without a timeline the whole family is a no-op.
        let bare = Recorder::new().with_sink(ring.clone());
        assert!(bare.register_worker("w1").is_none());
        bare.worker_state(0, WorkerState::Merge);
        assert_eq!(ring.events().iter().filter(|e| e.name == "worker.state").count(), 4);
    }

    #[test]
    fn event_round_trips_through_json() {
        let e = Event {
            ts_us: 123,
            name: "x.y".into(),
            fields: vec![
                ("a".into(), FieldValue::I64(-4)),
                ("b".into(), FieldValue::Str("s".into())),
            ],
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
