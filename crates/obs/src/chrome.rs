//! Chrome trace-event export and ASCII Gantt rendering.
//!
//! [`chrome_trace`] converts a run ledger into the Chrome trace-event JSON
//! format (the `{"traceEvents": [...]}` object form), loadable in
//! `chrome://tracing`, Perfetto, and speedscope:
//!
//! * `worker.state` records become complete (`ph:"X"`) slices on one track
//!   per worker lane, so steals, budget waits, and per-phase dwell are
//!   visible as a Gantt chart;
//! * `cell.open`/`cell.close` bracket one slice per cell, with its
//!   `chunk.close` timings nested inside (a chunk record carries its end
//!   timestamp and duration, so the slice is `[ts−dur, ts]`);
//! * checkpoints, faults, and watchdog verdicts render as instant
//!   (`ph:"i"`) markers on dedicated tracks.
//!
//! All timestamps are the ledger's `ts_us` values unchanged — the trace
//! shares the run's single monotonic clock. [`chrome_trace_from_report`]
//! covers `RunReport` JSON inputs, which carry durations but no start
//! timestamps: each cell's chunk slices are laid end-to-end from t=0, so
//! within-cell ordering and durations are real while cross-cell alignment
//! is not (every cell track starts at zero).
//!
//! [`ascii_gantt`] renders the same `worker.state` stream as a terminal
//! chart for `pmkm inspect`.

use crate::ledger::{push_json_str, LedgerRecord};
use crate::report::RunReport;
use crate::timeline::WorkerState;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Track ids: workers are `1 + lane`, cells follow [`CELL_TID_BASE`], and
/// marker tracks sit between them.
const CELL_TID_BASE: u64 = 1000;
const CHECKPOINT_TID: u64 = 900;
const FAULT_TID: u64 = 901;
const WATCHDOG_TID: u64 = 902;

/// `s` as a quoted JSON string literal.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(s, &mut out);
    out
}

/// Accumulates trace events and renders the final JSON document.
struct TraceJson {
    events: Vec<String>,
}

impl TraceJson {
    fn new() -> Self {
        Self { events: Vec::new() }
    }

    fn complete(&mut self, name: &str, cat: &str, ts: u64, dur: u64, tid: u64) {
        self.events.push(format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
             \"pid\":1,\"tid\":{tid}}}",
            quoted(name),
            quoted(cat),
        ));
    }

    fn instant(&mut self, name: &str, cat: &str, ts: u64, tid: u64) {
        self.events.push(format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
             \"pid\":1,\"tid\":{tid}}}",
            quoted(name),
            quoted(cat),
        ));
    }

    fn thread_name(&mut self, tid: u64, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            quoted(name),
        ));
    }

    fn finish(self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(&self.events.join(","));
        out.push_str("]}");
        out
    }
}

/// Per-worker transition stream extracted from `worker.state` records,
/// keyed by lane, plus the labels. Shared by the JSON and ASCII renderers.
fn worker_streams(records: &[LedgerRecord]) -> BTreeMap<u64, (String, Vec<(u64, String)>)> {
    let mut lanes: BTreeMap<u64, (String, Vec<(u64, String)>)> = BTreeMap::new();
    for r in records {
        if r.name != "worker.state" {
            continue;
        }
        let lane = r.u64_field("lane").unwrap_or(0);
        let worker = r.str_field("worker").unwrap_or("w?").to_string();
        let state = r.str_field("state").unwrap_or("idle").to_string();
        let entry = lanes.entry(lane).or_insert_with(|| (worker.clone(), Vec::new()));
        entry.1.push((r.ts_us, state));
    }
    lanes
}

/// Converts ledger records into Chrome trace-event JSON. See the
/// [module docs](self) for the track layout.
pub fn chrome_trace(records: &[LedgerRecord]) -> String {
    let end_ts = records.iter().map(|r| r.ts_us).max().unwrap_or(0);
    let mut trace = TraceJson::new();
    if !records.is_empty() {
        trace.thread_name(0, "run");
    }

    // Worker lanes: one slice per state interval.
    for (lane, (worker, stream)) in worker_streams(records) {
        let tid = 1 + lane;
        trace.thread_name(tid, &format!("worker {worker}"));
        for (i, (ts, state)) in stream.iter().enumerate() {
            let until = stream.get(i + 1).map(|(t, _)| *t).unwrap_or(end_ts);
            trace.complete(state, "worker", *ts, until.saturating_sub(*ts), tid);
        }
    }

    // Cell tracks: the cell's open→close slice plus its chunk slices.
    let mut cell_tids: BTreeMap<String, u64> = BTreeMap::new();
    let mut tid_for = |cell: &str, trace: &mut TraceJson| -> u64 {
        if let Some(t) = cell_tids.get(cell) {
            return *t;
        }
        let tid = CELL_TID_BASE + cell_tids.len() as u64;
        cell_tids.insert(cell.to_string(), tid);
        trace.thread_name(tid, &format!("cell {cell}"));
        tid
    };
    let cell_label = |r: &LedgerRecord| -> String {
        r.str_field("cell")
            .map(str::to_string)
            .or_else(|| r.u64_field("cell").map(|c| c.to_string()))
            .unwrap_or_default()
    };
    let mut open_cells: BTreeMap<String, u64> = BTreeMap::new();
    for r in records {
        match r.name.as_str() {
            "cell.open" => {
                open_cells.insert(cell_label(r), r.ts_us);
            }
            "cell.close" => {
                let cell = cell_label(r);
                let tid = tid_for(&cell, &mut trace);
                let start = open_cells.remove(&cell).unwrap_or(r.ts_us);
                let name = if r.bool_field("resumed").unwrap_or(false) {
                    format!("cell {cell} (resumed)")
                } else {
                    format!("cell {cell}")
                };
                trace.complete(&name, "cell", start, r.ts_us.saturating_sub(start), tid);
            }
            "chunk.close" => {
                let cell = cell_label(r);
                let tid = tid_for(&cell, &mut trace);
                let dur = r.u64_field("duration_us").unwrap_or(0);
                let chunk = r.u64_field("chunk").unwrap_or(0);
                trace.complete(
                    &format!("chunk {chunk}"),
                    "chunk",
                    r.ts_us.saturating_sub(dur),
                    dur,
                    tid,
                );
            }
            "cell.checkpoint" => {
                trace.instant(
                    &format!("checkpoint {}", cell_label(r)),
                    "checkpoint",
                    r.ts_us,
                    CHECKPOINT_TID,
                );
            }
            "fault" => {
                let kind = r.str_field("kind").unwrap_or("unknown");
                trace.instant(&format!("fault:{kind}"), "fault", r.ts_us, FAULT_TID);
            }
            "watchdog.stall" | "watchdog.straggler" => {
                let reason = r.str_field("reason").unwrap_or("");
                trace.instant(&format!("{} {reason}", r.name), "watchdog", r.ts_us, WATCHDOG_TID);
            }
            _ => {}
        }
    }
    // A still-open cell (interrupted run) renders up to the last record.
    for (cell, start) in open_cells {
        let tid = tid_for(&cell, &mut trace);
        trace.complete(
            &format!("cell {cell} (open)"),
            "cell",
            start,
            end_ts.saturating_sub(start),
            tid,
        );
    }
    if !records.is_empty() {
        trace.complete("run", "run", 0, end_ts, 0);
    }
    trace.finish()
}

/// Chrome trace from a `RunReport`: per-cell chunk slices laid end-to-end
/// from t=0 on one track per cell (see the [module docs](self) caveat).
pub fn chrome_trace_from_report(report: &RunReport) -> String {
    let mut trace = TraceJson::new();
    for (i, cell) in report.cells.iter().enumerate() {
        let tid = CELL_TID_BASE + i as u64;
        trace.thread_name(tid, &format!("cell {}", cell.cell));
        let mut cursor = 0u64;
        for chunk in &cell.chunks {
            let dur = chunk.elapsed.as_micros() as u64;
            trace.complete(&format!("chunk {}", chunk.chunk), "chunk", cursor, dur, tid);
            cursor += dur;
        }
        let merge_us = cell.merge.elapsed.as_micros() as u64;
        trace.complete("merge", "merge", cursor, merge_us, tid);
    }
    if let Some(tl) = &report.timeline {
        // No transition timestamps survive into the report, so lanes
        // render as one summary slice each.
        for (i, lane) in tl.workers.iter().enumerate() {
            let tid = 1 + i as u64;
            trace.thread_name(tid, &format!("worker {}", lane.worker));
            trace.complete(
                &format!("busy {:.0}% ({})", lane.utilization * 100.0, lane.current),
                "worker",
                0,
                lane.busy_us,
                tid,
            );
        }
    }
    trace.complete("run", "run", 0, report.elapsed.as_micros() as u64, 0);
    trace.finish()
}

fn state_glyph(state: &str) -> char {
    match WorkerState::parse(state) {
        Some(WorkerState::Idle) => '.',
        Some(WorkerState::Stealing) => 't',
        Some(WorkerState::Scan) => 'S',
        Some(WorkerState::Partial) => 'P',
        Some(WorkerState::Merge) => 'M',
        Some(WorkerState::Compact) => 'K',
        Some(WorkerState::Checkpoint) => 'C',
        Some(WorkerState::BudgetWait) => 'B',
        None => '?',
    }
}

/// Renders the `worker.state` stream as an ASCII Gantt chart, one row per
/// lane, `width` columns over the run's full span. Returns `None` when
/// the ledger carries no `worker.state` records.
pub fn ascii_gantt(records: &[LedgerRecord], width: usize) -> Option<String> {
    let lanes = worker_streams(records);
    if lanes.is_empty() {
        return None;
    }
    let width = width.clamp(10, 400);
    let start = records.iter().map(|r| r.ts_us).min().unwrap_or(0);
    let end = records.iter().map(|r| r.ts_us).max().unwrap_or(0).max(start + 1);
    let span = end - start;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "[gantt ] {span} µs over {} worker(s); . idle  t stealing  S scan  P partial  \
         M merge  C checkpoint  B budget-wait",
        lanes.len()
    );
    for (_, (worker, stream)) in lanes {
        let mut row = String::with_capacity(width);
        for col in 0..width {
            // The state active at the column's midpoint.
            let mid = start + span * (2 * col as u64 + 1) / (2 * width as u64);
            let state = stream
                .iter()
                .take_while(|(ts, _)| *ts <= mid)
                .last()
                .map(|(_, s)| s.as_str())
                .unwrap_or("idle");
            row.push(state_glyph(state));
        }
        let busy = stream_busy_us(&stream, end);
        let util = 100.0 * busy as f64 / span as f64;
        let _ = writeln!(out, "  {worker:<6} |{row}| {util:5.1}% busy");
    }
    Some(out)
}

/// Busy µs of one transition stream up to `end`.
fn stream_busy_us(stream: &[(u64, String)], end: u64) -> u64 {
    let mut busy = 0u64;
    for (i, (ts, state)) in stream.iter().enumerate() {
        let until = stream.get(i + 1).map(|(t, _)| *t).unwrap_or(end);
        if WorkerState::parse(state).is_some_and(WorkerState::is_busy) {
            busy += until.saturating_sub(*ts);
        }
    }
    busy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerSink;
    use crate::timeline::Timeline;
    use crate::trace::Recorder;
    use std::sync::Arc;

    // Minimal typed mirror of the trace-event schema, used to prove the
    // exporter's output parses as the format a viewer expects. Unknown
    // fields are ignored by the reader, matching real consumers. Field
    // names match the wire format verbatim — the vendored serde derive
    // has no `rename` support.
    #[allow(non_snake_case)]
    #[derive(Debug, serde::Deserialize)]
    struct Doc {
        #[serde(default)]
        traceEvents: Vec<Ev>,
        #[serde(default)]
        displayTimeUnit: String,
    }

    #[derive(Debug, Default, serde::Deserialize)]
    struct Ev {
        #[serde(default)]
        name: String,
        #[serde(default)]
        ph: String,
        #[serde(default)]
        ts: u64,
        #[serde(default)]
        dur: u64,
        #[serde(default)]
        pid: u64,
        #[serde(default)]
        tid: u64,
    }

    fn sample_ledger() -> Vec<LedgerRecord> {
        let sink = Arc::new(LedgerSink::in_memory());
        let tl = Arc::new(Timeline::new());
        let rec = Recorder::new().with_sink(sink.clone()).with_timeline(tl.clone());
        let w0 = rec.register_worker("w0").unwrap();
        rec.event("run.open", &[("cells", 1u64.into())]);
        rec.event("cell.open", &[("cell", 7u32.into()), ("expected_points", 100.0.into())]);
        rec.worker_state(w0, WorkerState::Scan);
        rec.event(
            "chunk.close",
            &[
                ("cell", 7u32.into()),
                ("chunk", 0usize.into()),
                ("points", 50usize.into()),
                ("duration_us", 10u64.into()),
                ("attempts", 1usize.into()),
            ],
        );
        rec.worker_state(w0, WorkerState::Merge);
        rec.event("fault", &[("kind", "chunk_retry".into()), ("cell", 7u32.into())]);
        rec.event(
            "cell.close",
            &[("cell", 7u32.into()), ("chunks", 1u64.into()), ("expected_points", 100.0.into())],
        );
        rec.event("cell.checkpoint", &[("cell", 7u32.into()), ("seq", 1u64.into())]);
        rec.worker_state(w0, WorkerState::Idle);
        rec.event("watchdog.stall", &[("reason", "no_progress".into())]);
        rec.event("run.close", &[("elapsed_us", 50u64.into())]);
        sink.records_after(0)
    }

    #[test]
    fn chrome_trace_parses_as_trace_event_json() {
        let records = sample_ledger();
        let json = chrome_trace(&records);
        let doc: Doc = serde_json::from_str(&json).unwrap();
        assert_eq!(doc.displayTimeUnit, "ms");
        assert!(!doc.traceEvents.is_empty());
        for ev in &doc.traceEvents {
            assert!(["X", "i", "M"].contains(&ev.ph.as_str()), "bad ph in {ev:?}");
            assert_eq!(ev.pid, 1);
            assert!(!ev.name.is_empty());
        }
        // All three track families are present.
        let slices: Vec<&Ev> = doc.traceEvents.iter().filter(|e| e.ph == "X").collect();
        assert!(slices.iter().any(|e| e.tid == 1 && e.name == "scan"), "worker slice");
        assert!(slices.iter().any(|e| e.tid >= CELL_TID_BASE && e.name.starts_with("cell ")));
        let chunk = slices.iter().find(|e| e.name == "chunk 0").expect("chunk slice");
        assert_eq!(chunk.dur, 10);
        let instants: Vec<&Ev> = doc.traceEvents.iter().filter(|e| e.ph == "i").collect();
        assert!(instants.iter().any(|e| e.tid == FAULT_TID));
        assert!(instants.iter().any(|e| e.tid == CHECKPOINT_TID));
        assert!(instants.iter().any(|e| e.tid == WATCHDOG_TID));
    }

    #[test]
    fn chrome_trace_handles_interrupted_runs_and_empty_input() {
        assert!(chrome_trace(&[]).contains("\"traceEvents\":[]"));
        // A cell.open without close renders as an "(open)" slice.
        let records = vec![LedgerRecord {
            seq: 0,
            ts_us: 5,
            name: "cell.open".into(),
            fields: vec![("cell".into(), crate::FieldValue::U64(3))],
        }];
        let doc: Doc = serde_json::from_str(&chrome_trace(&records)).unwrap();
        assert!(doc.traceEvents.iter().any(|e| e.name == "cell 3 (open)"));
    }

    #[test]
    fn chrome_trace_escapes_names() {
        let records = vec![LedgerRecord {
            seq: 0,
            ts_us: 1,
            name: "fault".into(),
            fields: vec![("kind".into(), crate::FieldValue::Str("a\"b\\c\nd".into()))],
        }];
        let json = chrome_trace(&records);
        let doc: Doc = serde_json::from_str(&json).unwrap();
        assert!(doc.traceEvents.iter().any(|e| e.name.contains("a\"b\\c\nd")));
    }

    fn chunk_report(chunk: usize, us: u64) -> crate::ChunkReport {
        crate::ChunkReport {
            chunk,
            points: 10,
            best_mse: 0.0,
            iterations: 1,
            elapsed: std::time::Duration::from_micros(us),
            mse_trajectory: Vec::new(),
        }
    }

    #[test]
    fn report_trace_lays_chunks_end_to_end() {
        let mut report = RunReport::new();
        report.elapsed = std::time::Duration::from_micros(100);
        report.cells.push(crate::CellReport {
            cell: "4".into(),
            total_points: 20,
            expected_points: 20.0,
            lost_points: 0.0,
            lost_chunks: 0,
            degraded: false,
            chunks: vec![chunk_report(0, 30), chunk_report(1, 20)],
            merge: crate::MergeReport {
                input_centroids: 2,
                epm: 0.0,
                mse: 0.0,
                iterations: 1,
                converged: true,
                elapsed: std::time::Duration::from_micros(40),
            },
        });
        let doc: Doc = serde_json::from_str(&chrome_trace_from_report(&report)).unwrap();
        let c0 = doc.traceEvents.iter().find(|e| e.name == "chunk 0").unwrap();
        let c1 = doc.traceEvents.iter().find(|e| e.name == "chunk 1").unwrap();
        assert_eq!((c0.ts, c0.dur), (0, 30));
        assert_eq!((c1.ts, c1.dur), (30, 20));
        let merge = doc.traceEvents.iter().find(|e| e.name == "merge").unwrap();
        assert_eq!(merge.ts, 50);
    }

    #[test]
    fn ascii_gantt_renders_lanes_and_legend() {
        let records = sample_ledger();
        let chart = ascii_gantt(&records, 40).expect("worker.state records present");
        assert!(chart.contains("[gantt ]"));
        assert!(chart.contains("w0"));
        assert!(chart.contains("% busy"));
        // No worker.state records → no chart.
        assert!(ascii_gantt(&[], 40).is_none());
    }
}
