//! Stall and straggler detection for orchestrated runs.
//!
//! The watchdog is two cooperating pieces:
//!
//! * a [`WatchdogSink`] registered on the run's [`Recorder`] — it folds
//!   the same event stream the ledger sees (`run.open`, `cell.open`,
//!   `chunk.close`, `cell.checkpoint`, `worker.state`, `run.close`) into
//!   a tiny progress model: when the run last advanced, which cells are
//!   open and for how long, which workers sit in budget-wait;
//! * a polling thread ([`Watchdog::start`]) that checks the model on the
//!   recorder clock every [`WatchdogConfig::poll_interval`] and emits
//!   verdict events back through the recorder:
//!
//!   - `watchdog.stall` with `reason:"no_progress"` when no chunk, cell,
//!     or checkpoint completed within [`WatchdogConfig::stall_after`];
//!   - `watchdog.stall` with `reason:"budget_wait"` when a worker has been
//!     parked waiting on the memory budget beyond
//!     [`WatchdogConfig::budget_wait_after`];
//!   - `watchdog.straggler` when an open cell has run longer than
//!     [`WatchdogConfig::straggler_factor`] × the median completed-cell
//!     time AND at least [`WatchdogConfig::straggler_floor`] in absolute
//!     terms (needs [`MIN_COMPLETED_FOR_MEDIAN`] completions first).
//!
//! Verdicts are deduplicated per episode — one `no_progress` per dry
//! spell, one `budget_wait` per parked stretch, one `straggler` per cell —
//! and each emission bumps the labeled `watchdog_events_total{kind}`
//! counter, so `/metrics` exposes the tally and a ledger rollup counts
//! them ([`pmkm_obs::LedgerRollup`]'s `watchdog_stalls` /
//! `watchdog_stragglers`). Once `run.close` arrives the model disarms and
//! the thread goes quiet; a plan whose cells are all done never stalls.
//!
//! The detector itself is a pure function of `(model, now)` — the polling
//! thread just calls [`WatchdogSink::check`], which the unit tests drive
//! directly with synthetic events and hand-picked clocks.

use pmkm_obs::{lock, Event, FieldValue, Recorder, TraceSink};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Completed cells required before straggler math turns on — a median of
/// fewer is noise.
pub const MIN_COMPLETED_FOR_MEDIAN: usize = 3;

/// A pending verdict: (event name, kind label, event fields).
type Verdict = (&'static str, String, Vec<(String, FieldValue)>);

/// Watchdog thresholds. All comparisons run on the recorder's microsecond
/// clock.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// No chunk/cell/checkpoint completion for this long → `no_progress`.
    pub stall_after: Duration,
    /// A worker in `budget-wait` for this long → `budget_wait`.
    pub budget_wait_after: Duration,
    /// An open cell older than `factor × median(completed cell time)` →
    /// `straggler`.
    pub straggler_factor: f64,
    /// Absolute minimum open-cell age before the straggler rule may fire.
    /// On planets of tiny cells the median completes in microseconds, and
    /// without a floor every ordinarily-big cell would be flagged.
    pub straggler_floor: Duration,
    /// How often the polling thread re-checks the model.
    pub poll_interval: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self::after(Duration::from_secs(30))
    }
}

impl WatchdogConfig {
    /// Thresholds derived from one deadline: stall and budget-wait fire
    /// after `deadline`, polling runs at `deadline / 4` capped to 250 ms,
    /// stragglers at 4× the median cell time once a cell has been open at
    /// least `deadline`.
    pub fn after(deadline: Duration) -> Self {
        Self {
            stall_after: deadline,
            budget_wait_after: deadline,
            straggler_factor: 4.0,
            straggler_floor: deadline,
            poll_interval: (deadline / 4).min(Duration::from_millis(250)),
        }
    }
}

#[derive(Default)]
struct Model {
    /// Cells announced by `run.open` (0 until it arrives — armed lazily so
    /// attaching the sink before the run costs nothing).
    cells_total: u64,
    /// Cells closed so far (executed or re-announced by a resume).
    cells_done: u64,
    /// Recorder timestamp of the last completion beacon.
    last_progress_us: u64,
    /// Open cells: label → `cell.open` timestamp.
    open_cells: HashMap<String, u64>,
    /// Completed cell durations (µs), for the straggler median.
    completed_us: Vec<u64>,
    /// Cells already flagged as stragglers (one verdict per cell).
    flagged: HashMap<String, ()>,
    /// Budget-parked workers: lane → `worker.state` entry timestamp.
    budget_wait: HashMap<u64, u64>,
    /// Lanes already flagged for the current parked stretch.
    budget_flagged: HashMap<u64, ()>,
    /// One `no_progress` verdict per dry spell.
    stall_reported: bool,
    /// `run.open` seen and `run.close` not yet — the armed window.
    armed: bool,
}

/// The event-folding half of the watchdog. Register it as a sink on the
/// run's recorder; see the [module docs](self).
#[derive(Default)]
pub struct WatchdogSink {
    model: Mutex<Model>,
}

impl WatchdogSink {
    /// A sink with an empty, disarmed model.
    pub fn new() -> Self {
        Self::default()
    }

    fn cell_label(event: &Event) -> Option<String> {
        event.fields.iter().find(|(k, _)| k == "cell").map(|(_, v)| match v {
            FieldValue::Str(s) => s.clone(),
            FieldValue::U64(u) => u.to_string(),
            FieldValue::I64(i) => i.to_string(),
            other => format!("{other:?}"),
        })
    }

    /// Checks the model against `now_us` and emits due verdicts through
    /// `rec`. Called by the polling thread; public so tests (and embedders
    /// with their own scheduling) can drive it with a hand-picked clock.
    pub fn check(&self, rec: &Recorder, config: &WatchdogConfig, now_us: u64) {
        let mut verdicts: Vec<Verdict> = Vec::new();
        {
            let mut m = lock(&self.model);
            if !m.armed || (m.cells_total > 0 && m.cells_done >= m.cells_total) {
                return;
            }
            let stall_us = config.stall_after.as_micros() as u64;
            if now_us.saturating_sub(m.last_progress_us) >= stall_us && !m.stall_reported {
                m.stall_reported = true;
                verdicts.push((
                    "watchdog.stall",
                    "stall".into(),
                    vec![
                        ("reason".into(), "no_progress".into()),
                        ("idle_us".into(), now_us.saturating_sub(m.last_progress_us).into()),
                        ("cells_done".into(), m.cells_done.into()),
                        ("cells_total".into(), m.cells_total.into()),
                    ],
                ));
            }
            let wait_us = config.budget_wait_after.as_micros() as u64;
            let parked: Vec<(u64, u64)> = m
                .budget_wait
                .iter()
                .filter(|(lane, since)| {
                    now_us.saturating_sub(**since) >= wait_us
                        && !m.budget_flagged.contains_key(*lane)
                })
                .map(|(lane, since)| (*lane, *since))
                .collect();
            for (lane, since) in parked {
                m.budget_flagged.insert(lane, ());
                verdicts.push((
                    "watchdog.stall",
                    "stall".into(),
                    vec![
                        ("reason".into(), "budget_wait".into()),
                        ("lane".into(), lane.into()),
                        ("waited_us".into(), now_us.saturating_sub(since).into()),
                    ],
                ));
            }
            if m.completed_us.len() >= MIN_COMPLETED_FOR_MEDIAN {
                let mut sorted = m.completed_us.clone();
                sorted.sort_unstable();
                let median = sorted[sorted.len() / 2].max(1);
                let limit = ((median as f64 * config.straggler_factor) as u64)
                    .max(config.straggler_floor.as_micros() as u64);
                let slow: Vec<(String, u64)> = m
                    .open_cells
                    .iter()
                    .filter(|(cell, opened)| {
                        now_us.saturating_sub(**opened) > limit && !m.flagged.contains_key(*cell)
                    })
                    .map(|(cell, opened)| (cell.clone(), *opened))
                    .collect();
                for (cell, opened) in slow {
                    m.flagged.insert(cell.clone(), ());
                    verdicts.push((
                        "watchdog.straggler",
                        "straggler".into(),
                        vec![
                            ("cell".into(), cell.into()),
                            ("running_us".into(), now_us.saturating_sub(opened).into()),
                            ("median_us".into(), median.into()),
                        ],
                    ));
                }
            }
        }
        // Emit outside the model lock: the event fans back into this sink
        // (it's registered on the recorder), which re-locks the model.
        for (name, kind, fields) in verdicts {
            let borrowed: Vec<(&str, FieldValue)> =
                fields.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
            rec.event(name, &borrowed);
            rec.registry().labeled_counter("watchdog_events_total", "kind", &kind).inc();
        }
    }
}

impl TraceSink for WatchdogSink {
    fn record(&self, event: &Event) {
        let mut m = lock(&self.model);
        match event.name.as_str() {
            "run.open" => {
                *m = Model::default();
                m.armed = true;
                m.last_progress_us = event.ts_us;
                m.cells_total = event
                    .fields
                    .iter()
                    .find(|(k, _)| k == "cells")
                    .and_then(|(_, v)| match v {
                        FieldValue::U64(u) => Some(*u),
                        _ => None,
                    })
                    .unwrap_or(0);
            }
            "run.close" => {
                m.armed = false;
            }
            "run.resume" | "chunk.close" | "cell.checkpoint" => {
                m.last_progress_us = event.ts_us;
                m.stall_reported = false;
            }
            "cell.open" => {
                if let Some(cell) = Self::cell_label(event) {
                    m.open_cells.insert(cell, event.ts_us);
                }
            }
            "cell.close" => {
                m.cells_done += 1;
                m.last_progress_us = event.ts_us;
                m.stall_reported = false;
                if let Some(cell) = Self::cell_label(event) {
                    if let Some(opened) = m.open_cells.remove(&cell) {
                        m.completed_us.push(event.ts_us.saturating_sub(opened));
                    }
                    m.flagged.remove(&cell);
                }
            }
            "worker.state" => {
                let lane =
                    event.fields.iter().find(|(k, _)| k == "lane").and_then(|(_, v)| match v {
                        FieldValue::U64(u) => Some(*u),
                        _ => None,
                    });
                let waiting =
                    event.fields.iter().find(|(k, _)| k == "state").is_some_and(
                        |(_, v)| matches!(v, FieldValue::Str(s) if s == "budget-wait"),
                    );
                if let Some(lane) = lane {
                    if waiting {
                        m.budget_wait.entry(lane).or_insert(event.ts_us);
                    } else {
                        m.budget_wait.remove(&lane);
                        m.budget_flagged.remove(&lane);
                    }
                }
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for WatchdogSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = lock(&self.model);
        f.debug_struct("WatchdogSink")
            .field("armed", &m.armed)
            .field("cells_done", &m.cells_done)
            .field("cells_total", &m.cells_total)
            .finish()
    }
}

/// Handle for the polling thread. Dropping it (or calling
/// [`Watchdog::stop`]) ends the thread; the sink can stay registered — a
/// disarmed model never fires.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Spawns the polling thread. `sink` must also be registered on `rec`
    /// (via [`Recorder::with_sink`]) or the model never sees any events.
    pub fn start(rec: Arc<Recorder>, sink: Arc<WatchdogSink>, config: WatchdogConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("pmkm-watchdog".into())
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    std::thread::sleep(config.poll_interval);
                    if thread_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    sink.check(&rec, &config, rec.elapsed_us());
                }
            })
            .expect("spawn watchdog thread");
        Self { stop, handle: Some(handle) }
    }

    /// Stops and joins the polling thread.
    pub fn stop(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog").field("stopped", &self.stop.load(Ordering::Relaxed)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmkm_obs::RingBufferSink;

    /// Recorder wired so the watchdog sink sees every event and verdicts
    /// land in the ring.
    fn rig() -> (Arc<Recorder>, Arc<WatchdogSink>, Arc<RingBufferSink>) {
        let ring = Arc::new(RingBufferSink::new(256));
        let sink = Arc::new(WatchdogSink::new());
        let rec = Arc::new(
            Recorder::new().with_sink(ring.clone()).with_sink(sink.clone() as Arc<dyn TraceSink>),
        );
        (rec, sink, ring)
    }

    fn verdicts(ring: &RingBufferSink, name: &str) -> usize {
        ring.events().iter().filter(|e| e.name == name).count()
    }

    fn cfg_us(stall: u64) -> WatchdogConfig {
        WatchdogConfig {
            stall_after: Duration::from_micros(stall),
            budget_wait_after: Duration::from_micros(stall),
            straggler_factor: 4.0,
            // No absolute floor: these tests drive the relative rule with
            // hand-picked microsecond clocks.
            straggler_floor: Duration::ZERO,
            poll_interval: Duration::from_millis(1),
        }
    }

    /// Feeds the sink one synthetic event at a hand-picked timestamp.
    fn feed(sink: &WatchdogSink, ts_us: u64, name: &str, fields: Vec<(String, FieldValue)>) {
        sink.record(&Event { ts_us, name: name.into(), fields });
    }

    #[test]
    fn no_progress_stall_fires_once_per_dry_spell() {
        let (rec, sink, ring) = rig();
        feed(&sink, 1_000, "run.open", vec![("cells".into(), 2u64.into())]);
        sink.check(&rec, &cfg_us(1_000_000), 1_000 + 999_999);
        assert_eq!(verdicts(&ring, "watchdog.stall"), 0, "under the deadline");
        sink.check(&rec, &cfg_us(1_000_000), 1_000 + 1_000_000);
        assert_eq!(verdicts(&ring, "watchdog.stall"), 1, "deadline crossed");
        // Same dry spell: deduplicated.
        sink.check(&rec, &cfg_us(1_000_000), 1_000 + 2_000_000);
        assert_eq!(verdicts(&ring, "watchdog.stall"), 1);
        // Progress resets the episode; a fresh stall fires again.
        feed(
            &sink,
            3_000_000,
            "chunk.close",
            vec![("cell".into(), 1u64.into()), ("chunk".into(), 0u64.into())],
        );
        sink.check(&rec, &cfg_us(1_000_000), 3_000_000 + 999_999);
        assert_eq!(verdicts(&ring, "watchdog.stall"), 1, "beacon reset the clock");
        sink.check(&rec, &cfg_us(1_000_000), 3_000_000 + 1_000_000);
        assert_eq!(verdicts(&ring, "watchdog.stall"), 2);
        let prom = rec.registry().render_prometheus();
        assert!(
            prom.contains("watchdog_events_total{kind=\"stall\"} 2"),
            "labeled counter: {prom}"
        );
    }

    #[test]
    fn completed_run_never_stalls() {
        let (rec, sink, ring) = rig();
        rec.event("run.open", &[("cells", 1u64.into())]);
        rec.event("cell.open", &[("cell", 5u64.into())]);
        rec.event("cell.close", &[("cell", 5u64.into())]);
        // All cells done: quiet forever, even far past the deadline.
        sink.check(&rec, &cfg_us(10), rec.elapsed_us() + 60_000_000);
        assert_eq!(verdicts(&ring, "watchdog.stall"), 0);
        // And a disarmed (closed) run is quiet too.
        rec.event("run.close", &[("elapsed_us", 1u64.into())]);
        sink.check(&rec, &cfg_us(10), rec.elapsed_us() + 60_000_000);
        assert_eq!(verdicts(&ring, "watchdog.stall"), 0);
    }

    #[test]
    fn budget_wait_stall_flags_the_parked_lane() {
        let (rec, sink, ring) = rig();
        feed(&sink, 0, "run.open", vec![("cells".into(), 4u64.into())]);
        feed(
            &sink,
            500,
            "worker.state",
            vec![
                ("worker".into(), "w1".into()),
                ("lane".into(), 1u64.into()),
                ("state".into(), "budget-wait".into()),
            ],
        );
        // Keep the progress beacon fresh so only the budget rule can fire.
        feed(
            &sink,
            1_000_000,
            "chunk.close",
            vec![("cell".into(), 0u64.into()), ("chunk".into(), 0u64.into())],
        );
        sink.check(&rec, &cfg_us(1_000_000), 500 + 1_000_000);
        let stalls: Vec<_> =
            ring.events().iter().filter(|e| e.name == "watchdog.stall").cloned().collect();
        assert_eq!(stalls.len(), 1);
        assert!(stalls[0]
            .fields
            .iter()
            .any(|(k, v)| k == "reason" && matches!(v, FieldValue::Str(s) if s == "budget_wait")));
        // Dedup while still parked; no re-fire after the lane moves on.
        feed(
            &sink,
            1_900_000,
            "chunk.close",
            vec![("cell".into(), 0u64.into()), ("chunk".into(), 1u64.into())],
        );
        sink.check(&rec, &cfg_us(1_000_000), 2_000_000);
        assert_eq!(verdicts(&ring, "watchdog.stall"), 1);
        feed(
            &sink,
            2_100_000,
            "worker.state",
            vec![
                ("worker".into(), "w1".into()),
                ("lane".into(), 1u64.into()),
                ("state".into(), "partial".into()),
            ],
        );
        feed(
            &sink,
            2_900_000,
            "chunk.close",
            vec![("cell".into(), 0u64.into()), ("chunk".into(), 2u64.into())],
        );
        sink.check(&rec, &cfg_us(1_000_000), 3_000_000);
        assert_eq!(verdicts(&ring, "watchdog.stall"), 1, "left budget-wait: no re-fire");
    }

    #[test]
    fn straggler_needs_a_median_and_fires_once_per_cell() {
        let (rec, sink, ring) = rig();
        rec.event("run.open", &[("cells", 5u64.into())]);
        let base = rec.elapsed_us();
        // Three completed cells of ~100 µs give a median.
        for i in 0..3u64 {
            sink.record(&Event {
                ts_us: base + i * 200,
                name: "cell.open".into(),
                fields: vec![("cell".into(), i.into())],
            });
            sink.record(&Event {
                ts_us: base + i * 200 + 100,
                name: "cell.close".into(),
                fields: vec![("cell".into(), i.into())],
            });
        }
        // Cell 9 opens and just keeps running.
        sink.record(&Event {
            ts_us: base + 1_000,
            name: "cell.open".into(),
            fields: vec![("cell".into(), 9u64.into())],
        });
        // 2× the median: not yet a straggler at factor 4.
        sink.check(&rec, &cfg_us(60_000_000), base + 1_000 + 200);
        assert_eq!(verdicts(&ring, "watchdog.straggler"), 0);
        // Past 4× the 100 µs median: flagged, once.
        sink.check(&rec, &cfg_us(60_000_000), base + 1_000 + 500);
        assert_eq!(verdicts(&ring, "watchdog.straggler"), 1);
        sink.check(&rec, &cfg_us(60_000_000), base + 1_000 + 900);
        assert_eq!(verdicts(&ring, "watchdog.straggler"), 1, "per-cell dedup");
        let prom = rec.registry().render_prometheus();
        assert!(prom.contains("watchdog_events_total{kind=\"straggler\"} 1"), "{prom}");
    }

    #[test]
    fn straggler_floor_shields_big_cells_from_a_tiny_median() {
        let (rec, sink, ring) = rig();
        rec.event("run.open", &[("cells", 5u64.into())]);
        let base = rec.elapsed_us();
        // A microsecond-scale median: three cells of ~100 µs.
        for i in 0..3u64 {
            sink.record(&Event {
                ts_us: base + i * 200,
                name: "cell.open".into(),
                fields: vec![("cell".into(), i.into())],
            });
            sink.record(&Event {
                ts_us: base + i * 200 + 100,
                name: "cell.close".into(),
                fields: vec![("cell".into(), i.into())],
            });
        }
        sink.record(&Event {
            ts_us: base + 1_000,
            name: "cell.open".into(),
            fields: vec![("cell".into(), 9u64.into())],
        });
        let config =
            WatchdogConfig { straggler_floor: Duration::from_micros(50_000), ..cfg_us(60_000_000) };
        // 100× the median, but under the absolute floor: an ordinary big
        // cell on a planet of tiny ones, not a straggler.
        sink.check(&rec, &config, base + 1_000 + 10_000);
        assert_eq!(verdicts(&ring, "watchdog.straggler"), 0, "floor shields the big cell");
        // Past the floor AND the relative limit: now it is one.
        sink.check(&rec, &config, base + 1_000 + 60_000);
        assert_eq!(verdicts(&ring, "watchdog.straggler"), 1);
    }

    #[test]
    fn polling_thread_fires_and_stops_cleanly() {
        let (rec, sink, ring) = rig();
        rec.event("run.open", &[("cells", 3u64.into())]);
        let config = WatchdogConfig {
            stall_after: Duration::from_millis(5),
            budget_wait_after: Duration::from_secs(60),
            straggler_factor: 4.0,
            straggler_floor: Duration::ZERO,
            poll_interval: Duration::from_millis(2),
        };
        let wd = Watchdog::start(Arc::clone(&rec), Arc::clone(&sink), config);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while verdicts(&ring, "watchdog.stall") == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        wd.stop();
        assert!(verdicts(&ring, "watchdog.stall") >= 1, "polling thread never fired");
    }
}
