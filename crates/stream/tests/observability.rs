//! The observed-run suite: the tentpole invariants of the live
//! observability layer.
//!
//! 1. **Zero interference** — an orchestrate run with the full stack
//!    attached (event ledger, worker timeline, `/status` cell, watchdog)
//!    is bit-identical to a bare run of the same plan. The run matrix
//!    (`tests/run_matrix.rs`) crosses a ledger, a profiler and a timeline
//!    with every other run axis; the status cell and the watchdog are
//!    checked here.
//! 2. **Status truth** — the final `/status` snapshot agrees with the
//!    `PlanetReport` on every cell and mass number.
//! 3. **Watchdog restraint** — a chaos run under the tolerant policy
//!    with a sane deadline produces zero stall/straggler verdicts.
//! 4. **Liveness** — `/events` sequence numbers are strictly monotonic
//!    and `/healthz` keeps answering while a multi-worker run is live.
//! 5. **Vocabulary** — a journaled run writes a pinned set of record
//!    shapes, each fact once: one `fault` record per counted fault and
//!    none of the records that only repeated one.

mod common;

use common::{answers, planet, quiet_injected_panics};
use pmkm_obs::{
    chrome_trace, parse_ledger, rollup, FaultKind, LedgerSink, MetricsServer, Recorder, StatusCell,
    Timeline,
};
use pmkm_stream::prelude::*;
use pmkm_stream::{CoresetSpec, FaultPlan, FaultPolicy, Watchdog, WatchdogConfig, WatchdogSink};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: pmkm\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// Pulls `"key":<number>` out of a JSON body without a Value type.
fn json_u64(body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle).unwrap_or_else(|| panic!("missing {key} in {body}"));
    let rest = &body[at + needle.len()..];
    let digits: String =
        rest.trim_start().chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
    digits.split('.').next().unwrap().parse().unwrap_or_else(|_| panic!("bad {key} in {body}"))
}

/// Pulls `"key":"value"` out of a JSON body without a Value type.
fn json_str(body: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle).unwrap_or_else(|| panic!("missing {key} in {body}"));
    let rest = body[at + needle.len()..].trim_start();
    let rest = rest.strip_prefix('"').unwrap_or_else(|| panic!("{key} not a string in {body}"));
    rest.chars().take_while(|c| *c != '"').collect()
}

fn json_f64(body: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle).unwrap_or_else(|| panic!("missing {key} in {body}"));
    let rest = &body[at + needle.len()..].trim_start();
    let digits: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+'))
        .collect();
    digits.parse().unwrap_or_else(|_| panic!("bad {key} in {body}"))
}

/// Invariants 1 + 2: the fully-observed run is bit-identical to the bare
/// run, and the final status snapshot tells the same story as the report.
#[test]
fn observed_run_is_bit_identical_and_status_matches_the_report() {
    let (dir, plan) = planet("pin", 6, 11, 7);

    let bare = orchestrate(&plan, &OrchestratorOptions::new(3), None, None).unwrap();

    let ledger = Arc::new(LedgerSink::in_memory());
    let watchdog_sink = Arc::new(WatchdogSink::new());
    let timeline = Arc::new(Timeline::new());
    let status = Arc::new(StatusCell::new());
    let rec = Arc::new(
        Recorder::new()
            .with_sink(ledger.clone())
            .with_sink(watchdog_sink.clone())
            .with_timeline(timeline.clone()),
    );
    let watchdog = Watchdog::start(
        Arc::clone(&rec),
        Arc::clone(&watchdog_sink),
        WatchdogConfig::after(Duration::from_secs(30)),
    );
    let opts = OrchestratorOptions::new(3).with_status(Arc::clone(&status));
    let observed = orchestrate(&plan, &opts, Some(Arc::clone(&rec)), None).unwrap();
    watchdog.stop();

    assert_eq!(answers(&bare), answers(&observed));

    // The final snapshot is the report, seen through /status eyes.
    let snap = status.get();
    assert_eq!(snap.state, "done");
    assert_eq!(snap.cells_total, observed.cells_total);
    assert_eq!(snap.cells_done, observed.cells.len());
    assert_eq!(snap.cells_running, 0);
    assert_eq!(snap.expected_points.to_bits(), observed.expected_points().to_bits());
    assert_eq!(snap.received_points.to_bits(), observed.received_points().to_bits());
    assert_eq!(snap.lost_points.to_bits(), observed.lost_points().to_bits());
    assert_eq!(snap.steals, observed.steals);
    assert!(!snap.workers.is_empty(), "worker rows in the final snapshot");

    // The ledger saw worker-state transitions and no watchdog verdicts,
    // and the record stream renders as a Chrome trace document.
    let records = ledger.records_after(0);
    let roll = rollup(&records);
    assert!(roll.worker_transitions > 0, "timeline events in the ledger");
    assert_eq!(roll.watchdog_stalls, 0);
    assert_eq!(roll.watchdog_stragglers, 0);
    let trace = chrome_trace(&records);
    assert!(trace.contains("\"traceEvents\":["), "chrome trace shape: {trace}");
    assert!(trace.contains("worker.state") || trace.contains("\"ph\":\"X\""));

    // The report carries the timeline rollup (schema v6).
    let tl = observed.run_report(Some(&rec)).timeline.expect("v6 timeline block");
    assert_eq!(tl.workers.len(), 3, "one lane per worker");
    assert!(tl.span_us > 0);

    std::fs::remove_dir_all(dir).ok();
}

/// Invariant 3: heavy chaos under the tolerant policy is slow and ugly but
/// *alive* — a watchdog with a sane deadline must stay silent. This is the
/// false-positive guard: progress beacons (chunk.close / cell.close) keep
/// arriving, so neither the stall nor the straggler rule may fire.
#[test]
fn watchdog_stays_silent_under_heavy_chaos_with_tolerant_policy() {
    quiet_injected_panics();
    let (dir, mut plan) = planet("chaos_quiet", 6, 29, 3);
    plan.fault_policy = FaultPolicy::tolerant();

    let ledger = Arc::new(LedgerSink::in_memory());
    let sink = Arc::new(WatchdogSink::new());
    let rec = Arc::new(Recorder::new().with_sink(ledger.clone()).with_sink(sink.clone()));
    let config = WatchdogConfig::after(Duration::from_secs(30));
    let watchdog = Watchdog::start(Arc::clone(&rec), Arc::clone(&sink), config.clone());

    let report = orchestrate(
        &plan,
        &OrchestratorOptions::new(2),
        Some(Arc::clone(&rec)),
        Some(FaultPlan::heavy(17)),
    )
    .unwrap();
    // One extra synchronous sweep at the post-run clock so the test does
    // not depend on the polling thread's schedule.
    sink.check(&rec, &config, rec.elapsed_us());
    watchdog.stop();

    assert_eq!(report.cells.len(), report.cells_total, "tolerant run commits every cell");
    let roll = rollup(&ledger.records_after(0));
    assert_eq!(roll.watchdog_stalls, 0, "no stall verdicts under live progress");
    assert_eq!(roll.watchdog_stragglers, 0, "no straggler verdicts under live progress");

    std::fs::remove_dir_all(dir).ok();
}

/// Invariant 4: `/events` and `/status` under a live multi-worker run.
/// Sequence numbers must be strictly monotonic across polls, `/status`
/// must always parse with a sane shape, and `/healthz` must never block.
#[test]
fn events_and_status_stay_live_under_a_multi_worker_run() {
    let (dir, plan) = planet("live", 8, 41, 13);

    let ledger = Arc::new(LedgerSink::in_memory());
    let timeline = Arc::new(Timeline::new());
    let status = Arc::new(StatusCell::new());
    let rec = Arc::new(Recorder::new().with_sink(ledger.clone()).with_timeline(timeline.clone()));
    let server = MetricsServer::serve_full(
        "127.0.0.1:0",
        Arc::clone(&rec),
        Some(Arc::clone(&ledger)),
        Some(Arc::clone(&status)),
    )
    .expect("bind port 0");
    let addr = server.local_addr();

    let run = {
        let rec = Arc::clone(&rec);
        let status = Arc::clone(&status);
        std::thread::spawn(move || {
            let opts = OrchestratorOptions::new(3).with_status(status);
            orchestrate(&plan, &opts, Some(rec), None).unwrap()
        })
    };

    // Poll all three routes while the run is live, then once more after
    // the snapshot settles on "done" (an empty `/events` long-poll waits
    // ~2 s, so the loop stops as soon as the run is over). Monotonicity
    // must hold across the transition.
    let mut last_seq = 0u64;
    let mut seen_done = false;
    for _ in 0..400 {
        let (health_status, health_body) = get(addr, "/healthz");
        assert_eq!(health_status, "HTTP/1.1 200 OK", "/healthz while running");
        assert!(health_body.contains("\"status\":\"ok\""), "healthz body: {health_body}");

        let (ev_status, ev_body) = get(addr, &format!("/events?after={last_seq}"));
        assert_eq!(ev_status, "HTTP/1.1 200 OK");
        for line in ev_body.lines().filter(|l| !l.trim().is_empty()) {
            let seq = json_u64(line, "seq");
            assert!(seq > last_seq, "monotonic seq: {seq} after {last_seq}");
            last_seq = seq;
        }

        let (st_status, st_body) = get(addr, "/status");
        assert_eq!(st_status, "HTTP/1.1 200 OK");
        assert_eq!(json_u64(&st_body, "schema"), u64::from(pmkm_obs::STATUS_SCHEMA_VERSION));
        let done = json_u64(&st_body, "cells_done");
        let total = json_u64(&st_body, "cells_total");
        assert!(done <= total.max(8), "done {done} within plan size");
        let ratio = json_f64(&st_body, "mass_ratio");
        assert!((0.0..=1.0).contains(&ratio), "mass ratio in range: {ratio}");

        if seen_done {
            break;
        }
        seen_done = json_str(&st_body, "state") == "done";
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(seen_done, "the run never reported done through /status");

    let report = run.join().expect("run thread");
    assert_eq!(report.cells.len(), 8);

    // After completion the snapshot settles on the report's numbers.
    let (_, st_body) = get(addr, "/status");
    assert_eq!(json_str(&st_body, "state"), "done", "final state: {st_body}");
    assert_eq!(json_u64(&st_body, "cells_done") as usize, report.cells.len());
    assert_eq!(json_u64(&st_body, "cells_running"), 0);

    // New events past the final cursor still respect the cursor contract.
    let (_, tail) = get(addr, &format!("/events?after={last_seq}"));
    for line in tail.lines().filter(|l| !l.trim().is_empty()) {
        let seq = json_u64(line, "seq");
        assert!(seq > last_seq);
        last_seq = seq;
    }
    assert!(last_seq > 0, "the ledger saw events");

    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

/// Pipeline states land on the lane of the worker running the cell: two
/// buckets of one grid cell, run at once on two workers, each journal
/// `scan` and `partial` on their own worker's lane.
#[test]
fn each_worker_journals_its_own_cells_pipeline_states() {
    let (dir, mut plan) = planet("lanes", 1, 3, 5);
    let one = plan.logical.inputs[0].clone();
    plan.logical.inputs = ["a", "b"]
        .iter()
        .map(|name| {
            let path = dir.join(format!("{name}.gb"));
            std::fs::copy(&one, &path).unwrap();
            path
        })
        .collect();
    let ledger = Arc::new(LedgerSink::in_memory());
    let rec = Arc::new(Recorder::new().with_sink(ledger.clone()).with_timeline(Arc::default()));
    let opts = OrchestratorOptions::new(2).with_checkpoints(dir.join("ckpt"));
    orchestrate(&plan, &opts, Some(rec), None).unwrap();
    let mut states: [BTreeSet<String>; 2] = Default::default();
    for r in ledger.records_after(0).iter().filter(|r| r.name == "worker.state") {
        let lane = r.u64_field("lane").unwrap() as usize;
        states[lane].insert(r.str_field("state").unwrap().to_string());
    }
    assert!(states.iter().any(|s| s.contains("checkpoint")), "{states:?}");
    for lane in &states {
        let ran = lane.contains("checkpoint");
        assert_eq!((lane.contains("scan"), lane.contains("partial")), (ran, ran), "{states:?}");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Records the journal no longer writes: each had no reader, or repeated a
/// `fault` or `cell.close` record.
const RETIRED: [&str; 9] = [
    "lloyd.iteration",
    "kmeans.restart",
    "partial.panic",
    "partial.chunk_quarantined",
    "scan.failure",
    "merge.degraded",
    "coreset.degraded",
    "chunker.cell_plan",
    "scan.cell",
];

/// Every (record name, sorted field keys) shape that a checkpointed
/// `orchestrate` of GB02 cells journals, clean and under heavy chaos, on
/// both tails.
const VOCABULARY: &[(&str, &str)] = &[
    ("cell.checkpoint", "bytes,cell,seq"),
    ("cell.close", "cell,chunks,degraded,epm,expected_points,lost_chunks,lost_points,mse"),
    ("cell.open", "cell,expected_points"),
    ("chunk.close", "attempts,cell,chunk,duration_us,points"),
    ("coreset.build", "cell,chunk,points,size,weight"),
    ("coreset.compact", "cell,consumed_weight,level,live_buckets,live_weight,size,weight"),
    ("coreset.query", "cell,input_points,iterations,k,live_buckets,mse"),
    ("fault", "attempt,batch,kind"),
    ("fault", "attempt,cell,chunk,kind"),
    ("fault", "cell,chunk,kind"),
    ("fault", "cell,chunk,kind,points"),
    ("fault", "cell,kind,lost_points"),
    ("fault", "error,kind,path"),
    ("ledger.open", "version"),
    ("lloyd.kernel", "kind,points,pruned,rescued,rescues_per_point,reseeds"),
    ("lloyd.kernel", "kind,points,rescued,rescues_per_point,reseeds"),
    ("merge.done", "cell,converged,epm,input_centroids,iterations,mse"),
    ("op.finish", "clone,items_in,op"),
    ("op.finish", "clone,items_out,op"),
    ("partial.chunk", "best_mse,points,weighted_centroids"),
    ("run.close", "cells,degraded,elapsed_us"),
    ("run.open", "cells,jobs,partial_clones"),
    ("scan.block", "block,cell,payload_bytes,prefetch_hit,stored_bytes,zero_copy"),
];

/// Invariant 5: the journal's record shapes are pinned, no retired record
/// comes back, and every counted fault is journaled exactly once.
#[test]
fn journal_vocabulary_is_pinned_and_counts_each_fault_once() {
    quiet_injected_panics();
    let (dir, mut plan) = planet("vocabulary", 4, 11, 13);
    plan.fault_policy = FaultPolicy::tolerant();
    plan.logical.inputs = plan
        .logical
        .inputs
        .iter()
        .map(|src| {
            let bucket = pmkm_data::GridBucket::read_from(src).unwrap();
            let dst = src.with_extension("gb2");
            pmkm_data::write_gb02(&bucket, &dst, pmkm_data::Codec::ShuffleRle, 16).unwrap();
            dst
        })
        .collect();
    let mut shapes = BTreeSet::new();
    for (run, (coreset, chaos)) in [None, Some(CoresetSpec::new(16))]
        .into_iter()
        .flat_map(|c| [(c.clone(), None), (c, Some(FaultPlan::heavy(21)))])
        .enumerate()
    {
        let mut plan = plan.clone();
        plan.coreset = coreset;
        let chaotic = chaos.is_some();
        let ledger = Arc::new(LedgerSink::in_memory());
        let rec = Arc::new(Recorder::new().with_sink(ledger.clone()));
        let opts = OrchestratorOptions::new(2).with_checkpoints(dir.join(format!("ckpt_{run}")));
        let planet = orchestrate(&plan, &opts, Some(rec), chaos).unwrap();
        let records = parse_ledger(&ledger.snapshot_jsonl()).unwrap();
        let faults: u64 = FaultKind::ALL.iter().map(|&kind| planet.faults.count(kind)).sum();
        assert_eq!(chaotic, faults > 0, "run {run}: {:?}", planet.faults);
        assert_eq!(
            records.iter().filter(|r| r.name == "fault").count() as u64,
            faults,
            "run {run}: one fault record per counted fault"
        );
        for r in &records {
            assert!(!RETIRED.contains(&r.name.as_str()), "run {run} wrote {}", r.name);
            let mut keys: Vec<&str> = r.fields.iter().map(|(key, _)| key.as_str()).collect();
            keys.sort_unstable();
            shapes.insert((r.name.clone(), keys.join(",")));
        }
    }
    let want: BTreeSet<(String, String)> =
        VOCABULARY.iter().map(|&(name, keys)| (name.to_string(), keys.to_string())).collect();
    let listed: Vec<String> =
        shapes.iter().map(|(n, k)| format!("    (\"{n}\", \"{k}\"),")).collect();
    assert_eq!(shapes, want, "journaled shapes:\n{}", listed.join("\n"));
    std::fs::remove_dir_all(dir).ok();
}
