//! End-to-end exporter tests: bind port 0, speak raw HTTP over a
//! `TcpStream`, and check every route's status, content type, and body.

use pmkm_obs::profile::{ManualClock, Profiler};
use pmkm_obs::{MetricsServer, Recorder, RunReport};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// One raw HTTP/1.1 GET; returns (status line, headers, body).
fn get(addr: SocketAddr, path: &str) -> (String, String, String) {
    request(addr, &format!("GET {path} HTTP/1.1\r\nHost: pmkm\r\nConnection: close\r\n\r\n"))
}

fn request(addr: SocketAddr, raw: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), headers.to_string(), body.to_string())
}

fn header<'h>(headers: &'h str, name: &str) -> Option<&'h str> {
    headers.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim().eq_ignore_ascii_case(name)).then(|| v.trim())
    })
}

#[test]
fn exporter_serves_all_three_routes() {
    let clock = Arc::new(ManualClock::new());
    let prof = Arc::new(Profiler::with_clock(clock.clone()));
    let rec = Arc::new(Recorder::new().with_profiler(prof.clone()));
    rec.registry().counter("chunks_total").add(7);
    rec.registry().histogram("chunk_points", &[10.0, 100.0]).observe(42.0);
    {
        let _g = prof.enter("partial");
        clock.advance_us(25);
    }

    let server = MetricsServer::serve("127.0.0.1:0", Arc::clone(&rec)).expect("bind port 0");
    let addr = server.local_addr();
    assert_ne!(addr.port(), 0, "port 0 must resolve to a real port");

    // /metrics — Prometheus text with the registered instruments.
    let (status, headers, body) = get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(header(&headers, "content-type"), Some("text/plain; version=0.0.4; charset=utf-8"));
    assert_eq!(
        header(&headers, "content-length").map(|v| v.parse::<usize>().unwrap()),
        Some(body.len())
    );
    assert!(body.contains("chunks_total 7"), "metrics body: {body}");
    assert!(body.contains("chunk_points_bucket{le=\"+Inf\"} 1"), "metrics body: {body}");

    // /report.json before set_report — a live snapshot with current
    // metrics and profiler phases.
    let (status, headers, body) = get(addr, "/report.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    let live: RunReport = serde_json::from_str(&body).expect("live report parses");
    assert!(live.cells.is_empty());
    assert_eq!(live.metrics.counters[0].name, "chunks_total");
    assert_eq!(live.phases.len(), 1);
    assert_eq!(live.phases[0].path, "partial");
    assert_eq!(live.phases[0].total_us, 25);

    // /healthz — parseable liveness JSON.
    let (status, headers, body) = get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    assert!(body.contains("\"status\":\"ok\""), "healthz body: {body}");

    // After set_report the stored document is served verbatim.
    let mut done = RunReport::new();
    done.phases = prof.phase_rows();
    server.set_report(done.clone());
    let (_, _, body) = get(addr, "/report.json");
    let back: RunReport = serde_json::from_str(&body).expect("final report parses");
    assert_eq!(back, done);

    server.shutdown();
}

#[test]
fn exporter_serves_status_with_live_worker_rows() {
    use pmkm_obs::timeline::{Timeline, WorkerState};
    use pmkm_obs::{StatusCell, StatusSnapshot, STATUS_SCHEMA_VERSION};
    use serde::Value;

    let timeline = Arc::new(Timeline::new());
    let rec = Arc::new(Recorder::new().with_timeline(Arc::clone(&timeline)));
    let status = Arc::new(StatusCell::new());
    let server =
        MetricsServer::serve_full("127.0.0.1:0", Arc::clone(&rec), None, Some(Arc::clone(&status)))
            .expect("bind");
    let addr = server.local_addr();

    // Idle snapshot before the orchestrator publishes anything.
    let (st, headers, body) = get(addr, "/status");
    assert_eq!(st, "HTTP/1.1 200 OK");
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    let snap: Value = serde_json::from_str(&body).expect("status parses");
    assert_eq!(snap.get("schema"), Some(&Value::U64(STATUS_SCHEMA_VERSION.into())));
    assert_eq!(snap.get("state"), Some(&Value::Str("idle".into())));

    // After a publish plus worker activity, the document carries the
    // orchestrator's numbers and worker rows refreshed from the timeline.
    let lane = rec.register_worker("w0").expect("timeline attached");
    rec.worker_state(lane, WorkerState::Partial);
    let mut running = StatusSnapshot::new();
    running.state = "running".into();
    running.cells_total = 4;
    running.cells_done = 1;
    running.mass_ratio = 1.0;
    status.publish(running);
    let (_, _, body) = get(addr, "/status");
    let snap: Value = serde_json::from_str(&body).expect("status parses");
    assert_eq!(snap.get("state"), Some(&Value::Str("running".into())));
    assert_eq!(snap.get("cells_total"), Some(&Value::U64(4)));
    assert_eq!(snap.get("cells_done"), Some(&Value::U64(1)));
    let Some(Value::Seq(workers)) = snap.get("workers") else { panic!("worker rows: {body}") };
    assert_eq!(workers.len(), 1);
    assert_eq!(workers[0].get("worker"), Some(&Value::Str("w0".into())));
    assert_eq!(workers[0].get("state"), Some(&Value::Str("partial".into())));

    server.shutdown();

    // A server without a status source 404s the route.
    let bare = MetricsServer::serve("127.0.0.1:0", Arc::new(Recorder::new())).expect("bind");
    let (st, _, _) = get(bare.local_addr(), "/status");
    assert_eq!(st, "HTTP/1.1 404 Not Found");
    bare.shutdown();
}

#[test]
fn exporter_rejects_unknown_paths_and_methods() {
    let rec = Arc::new(Recorder::new());
    let server = MetricsServer::serve("127.0.0.1:0", rec).expect("bind");
    let addr = server.local_addr();

    let (status, _, _) = get(addr, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    let (status, _, _) =
        request(addr, "POST /metrics HTTP/1.1\r\nHost: pmkm\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");

    // Query strings route to the bare path.
    let (status, _, _) = get(addr, "/healthz?probe=1");
    assert_eq!(status, "HTTP/1.1 200 OK");

    server.shutdown();
}

#[test]
fn exporter_answers_concurrent_scrapes_from_the_worker_pool() {
    let rec = Arc::new(Recorder::new());
    rec.registry().counter("chunks_total").add(11);
    let server = MetricsServer::serve("127.0.0.1:0", Arc::clone(&rec)).expect("bind");
    let addr = server.local_addr();

    // More clients than pool workers, all firing at once across every
    // route; each must get a complete, well-formed response.
    let paths = ["/metrics", "/report.json", "/healthz"];
    let barrier = Arc::new(std::sync::Barrier::new(paths.len() * 4));
    let threads: Vec<_> = (0..paths.len() * 4)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            let path = paths[i % paths.len()];
            std::thread::spawn(move || {
                barrier.wait();
                get(addr, path)
            })
        })
        .collect();
    for (i, t) in threads.into_iter().enumerate() {
        let (status, headers, body) = t.join().expect("scraper thread");
        assert_eq!(status, "HTTP/1.1 200 OK", "client {i}");
        assert_eq!(
            header(&headers, "content-length").map(|v| v.parse::<usize>().unwrap()),
            Some(body.len()),
            "client {i} got a truncated body"
        );
        match i % paths.len() {
            0 => assert!(body.contains("chunks_total 11"), "client {i}: {body}"),
            1 => {
                let live: RunReport = serde_json::from_str(&body).expect("report parses");
                assert_eq!(live.metrics.counters[0].name, "chunks_total");
            }
            _ => assert!(body.contains("\"status\":\"ok\""), "client {i}: {body}"),
        }
    }

    // A slow client holding one worker must not block other scrapes.
    let mut idle = TcpStream::connect(addr).expect("slow client connects");
    idle.write_all(b"GET /metrics HTTP/1.1\r\n").expect("partial request");
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK", "healthz stuck behind a stalled scraper");
    drop(idle);

    server.shutdown();
}

#[test]
fn exporter_streams_ledger_events_and_tolerates_slow_consumers() {
    use pmkm_obs::{LedgerRecord, LedgerSink};

    let ledger = Arc::new(LedgerSink::in_memory());
    let rec = Arc::new(Recorder::new().with_sink(Arc::clone(&ledger) as _));
    rec.event("chunk.close", &[("cell", 3u64.into()), ("points", 500u64.into())]);
    let server =
        MetricsServer::serve_full("127.0.0.1:0", Arc::clone(&rec), Some(ledger.clone()), None)
            .expect("bind");
    let addr = server.local_addr();

    // /ledger.jsonl — the whole journal (header + our event) as NDJSON.
    let (status, headers, body) = get(addr, "/ledger.jsonl");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(header(&headers, "content-type"), Some("application/x-ndjson"));
    let records: Vec<LedgerRecord> =
        body.lines().map(|l| serde_json::from_str(l).expect("record parses")).collect();
    assert_eq!(records[0].name, "ledger.open");
    assert!(records.iter().any(|r| r.name == "chunk.close"), "{body}");
    let last_seq = records.last().unwrap().seq;

    // /events?after=0 answers immediately when records past the cursor
    // already exist (seq 0, the header, sits before it).
    let (status, _, body) = get(addr, "/events?after=0");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("chunk.close"), "{body}");

    // A long-poll past the cursor blocks until a new event lands; feed one
    // from another thread mid-poll and check it comes back alone.
    let feeder = {
        let rec = Arc::clone(&rec);
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(150));
            rec.event("merge.done", &[("cell", 3u64.into())]);
        })
    };
    let (status, _, body) = get(addr, &format!("/events?after={last_seq}"));
    feeder.join().unwrap();
    assert_eq!(status, "HTTP/1.1 200 OK");
    let fresh: Vec<LedgerRecord> =
        body.lines().map(|l| serde_json::from_str(l).expect("record parses")).collect();
    assert_eq!(fresh.len(), 1, "{body}");
    assert_eq!(fresh[0].name, "merge.done");
    assert!(fresh[0].seq > last_seq);

    // Slow consumers — one client parked in a long-poll with nothing to
    // deliver, one stalled mid-request — must not starve other routes out
    // of the worker pool.
    let parked = std::thread::spawn(move || get(addr, "/events?after=999999"));
    let mut stalled = TcpStream::connect(addr).expect("stalled client connects");
    stalled.write_all(b"GET /events HTTP/1.1\r\n").expect("partial request");
    std::thread::sleep(std::time::Duration::from_millis(50));
    for path in ["/healthz", "/metrics", "/ledger.jsonl"] {
        let (status, _, _) = get(addr, path);
        assert_eq!(status, "HTTP/1.1 200 OK", "{path} stuck behind slow /events consumers");
    }
    drop(stalled);
    // The parked poll eventually answers (empty — nothing new arrived).
    let (status, _, body) = parked.join().expect("parked poller");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.is_empty(), "expected an empty long-poll window, got: {body}");

    server.shutdown();

    // Without a ledger the streaming routes 404 with a hint.
    let bare = MetricsServer::serve("127.0.0.1:0", Arc::new(Recorder::new())).expect("bind");
    for path in ["/events", "/ledger.jsonl"] {
        let (status, _, body) = get(bare.local_addr(), path);
        assert_eq!(status, "HTTP/1.1 404 Not Found", "{path}");
        assert!(body.contains("no ledger attached"), "{path}: {body}");
    }
    bare.shutdown();
}

#[test]
fn exporter_survives_shutdown_while_idle_and_frees_port_eventually() {
    let rec = Arc::new(Recorder::new());
    let server = MetricsServer::serve("127.0.0.1:0", Arc::clone(&rec)).expect("bind");
    let addr = server.local_addr();
    server.shutdown();
    // The accept loop is gone: a fresh connection must not be answered.
    if let Ok(mut s) = TcpStream::connect(addr) {
        let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
        let mut buf = String::new();
        s.set_read_timeout(Some(std::time::Duration::from_millis(500))).unwrap();
        let n = s.read_to_string(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "server answered after shutdown: {buf}");
    }
}
