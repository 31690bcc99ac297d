//! Dependency-light HTTP exporter for live pipeline telemetry.
//!
//! [`MetricsServer`] binds a `std::net::TcpListener` and answers a handful
//! of routes with a small hand-rolled HTTP/1.1 responder — no async
//! runtime, no HTTP crate:
//!
//! * `GET /metrics` — the recorder's registry in Prometheus text format;
//! * `GET /report.json` — the final [`RunReport`] once one has been
//!   published via [`MetricsServer::set_report`], else a *live* snapshot
//!   (elapsed time, current metrics, current profiler phases) built on the
//!   fly, so the endpoint is useful while a run is still in flight;
//! * `GET /healthz` — `{"status":"ok", ...}` liveness probe;
//! * `GET /events?after=N` — run-ledger long-poll (requires a
//!   [`LedgerSink`] via [`MetricsServer::serve_full`]): returns the
//!   JSONL records with sequence number greater than `N` as soon as any
//!   exist, waiting up to ~2 s before answering with an empty body. Each
//!   record carries its own `seq`, so a scraper resumes from the last one
//!   it saw and watches a run in flight;
//! * `GET /ledger.jsonl` — the full journal so far, as a download;
//! * `GET /status` — live planet progress (requires a [`StatusCell`] via
//!   [`MetricsServer::serve_full`]): the orchestrator's latest
//!   [`crate::status::StatusSnapshot`], with per-worker state and
//!   utilization rows refreshed from the recorder's timeline at request
//!   time.
//!
//! One background thread accepts connections and hands them to a small
//! pool of worker threads over a channel, so a slow scraper cannot block
//! the next one; short read/write timeouts bound each worker's exposure
//! to a broken client. This is telemetry for a handful of scrapers, not a
//! web server. Bind to port 0 to let the OS pick (tests do), then read the
//! actual address back with [`MetricsServer::local_addr`].
//!
//! ```
//! use pmkm_obs::{MetricsServer, Recorder};
//! use std::sync::Arc;
//!
//! let rec = Arc::new(Recorder::new());
//! rec.registry().counter("chunks_total").add(3);
//! let server = MetricsServer::serve("127.0.0.1:0", rec).unwrap();
//! let addr = server.local_addr();
//! // ... point a browser or `curl` at http://{addr}/metrics ...
//! server.shutdown();
//! ```

use crate::ledger::LedgerSink;
use crate::lock;
use crate::report::RunReport;
use crate::status::{StatusCell, WorkerStatus};
use crate::trace::Recorder;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(2);
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How long `/events` waits for new records before answering empty. Kept
/// under [`IO_TIMEOUT`] so a long-poller cannot outlive a worker's write
/// window, and short enough that shutdown drains promptly.
const EVENTS_POLL_WINDOW: Duration = Duration::from_millis(1900);
/// Sleep between ledger checks inside one `/events` long-poll.
const EVENTS_POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Worker threads answering requests concurrently. Scrapes are cheap, so
/// a handful of workers rides out a slow client without unbounded threads.
const WORKERS: usize = 4;

/// A running telemetry HTTP server. See the [module docs](self).
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    report: Arc<Mutex<Option<RunReport>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9464"`, port 0 for OS-assigned) and
    /// starts answering requests on a background accept thread plus a
    /// pool of four workers.
    pub fn serve(addr: impl ToSocketAddrs, recorder: Arc<Recorder>) -> std::io::Result<Self> {
        Self::serve_full(addr, recorder, None, None)
    }

    /// [`MetricsServer::serve`] with the optional endpoints: a run ledger
    /// enabling the `/events` long-poll stream and the `/ledger.jsonl`
    /// download (it should also be registered as a sink on `recorder` so it
    /// actually receives the run's events; a file-backed ledger starts
    /// keeping its in-memory tail here), and a [`StatusCell`] enabling the
    /// `/status` endpoint; the orchestrator publishes snapshots into it
    /// while the exporter reads them.
    pub fn serve_full(
        addr: impl ToSocketAddrs,
        recorder: Arc<Recorder>,
        ledger: Option<Arc<LedgerSink>>,
        status: Option<Arc<StatusCell>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        if let Some(ledger) = &ledger {
            ledger.retain_tail();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let report: Arc<Mutex<Option<RunReport>>> = Arc::new(Mutex::new(None));
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut handles = Vec::with_capacity(WORKERS + 1);
        for i in 0..WORKERS {
            let conn_rx = Arc::clone(&conn_rx);
            let recorder = Arc::clone(&recorder);
            let report = Arc::clone(&report);
            let ledger = ledger.clone();
            let status = status.clone();
            let stop = Arc::clone(&stop);
            handles.push(
                std::thread::Builder::new().name(format!("pmkm-metrics-worker-{i}")).spawn(
                    move || loop {
                        // Take the lock only to dequeue, not while serving,
                        // so workers answer distinct clients concurrently.
                        let conn = lock(&conn_rx).recv();
                        match conn {
                            // One slow or broken client must not wedge the
                            // exporter; errors just drop the connection.
                            Ok(stream) => {
                                let _ = handle_connection(
                                    stream,
                                    &recorder,
                                    &report,
                                    ledger.as_deref(),
                                    status.as_deref(),
                                    &stop,
                                );
                            }
                            // Accept thread gone: sender dropped, drain done.
                            Err(_) => break,
                        }
                    },
                )?,
            );
        }
        handles.push({
            let stop = Arc::clone(&stop);
            std::thread::Builder::new().name("pmkm-metrics-accept".into()).spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        if conn_tx.send(stream).is_err() {
                            break;
                        }
                    }
                }
                // Dropping `conn_tx` here wakes every idle worker with a
                // recv error so the pool drains and exits.
            })?
        });
        Ok(Self { addr, stop, report, handles })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Publishes the final report; `/report.json` serves it verbatim from
    /// now on instead of building live snapshots.
    pub fn set_report(&self, report: RunReport) {
        *lock(&self.report) = Some(report);
    }

    /// Stops the accept loop, drains the worker pool, and joins every
    /// server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection. The accept
        // thread then drops the channel sender, which unblocks the workers.
        let _ = TcpStream::connect(self.addr);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer").field("addr", &self.addr).finish()
    }
}

/// A live `/report.json` body: no cells/operators yet, but current elapsed
/// time, metrics, and profiler phases.
fn live_report(recorder: &Recorder) -> RunReport {
    let mut report = RunReport::new();
    report.elapsed = Duration::from_micros(recorder.elapsed_us());
    report.metrics = recorder.registry().snapshot();
    report.phases = recorder.phase_rows();
    report
}

/// A `/status` body: the orchestrator's latest snapshot with the worker
/// rows and (while running) the elapsed clock refreshed at request time
/// from the recorder's timeline, so the dashboard shows current worker
/// states even between orchestrator publishes.
fn status_body(recorder: &Recorder, status: &StatusCell) -> Result<String, serde_json::Error> {
    let mut snap = (*status.get()).clone();
    // The coreset operator publishes into its own slot; merge the latest
    // anytime clustering into the document at request time.
    snap.coreset = status.coreset().map(|cs| (*cs).clone());
    if let Some(timeline) = recorder.timeline() {
        let now = recorder.elapsed_us();
        if snap.state == "running" {
            snap.elapsed_us = now;
        }
        snap.workers = timeline
            .snapshot(now)
            .workers
            .into_iter()
            .map(|lane| WorkerStatus {
                worker: lane.worker,
                state: lane.current,
                utilization: lane.utilization,
            })
            .collect();
    }
    serde_json::to_string_pretty(&snap)
}

/// Serves one `/events` long-poll: returns the records with `seq > after`
/// as soon as any exist, polling the ledger until the window closes or the
/// server begins shutdown.
fn poll_events(ledger: &LedgerSink, after: u64, stop: &AtomicBool) -> String {
    let deadline = Instant::now() + EVENTS_POLL_WINDOW;
    loop {
        let lines = ledger.jsonl_after(after);
        if !lines.is_empty() {
            return lines;
        }
        if Instant::now() >= deadline || stop.load(Ordering::SeqCst) {
            return String::new();
        }
        std::thread::sleep(EVENTS_POLL_INTERVAL);
    }
}

fn handle_connection(
    mut stream: TcpStream,
    recorder: &Recorder,
    report: &Mutex<Option<RunReport>>,
    ledger: Option<&LedgerSink>,
    status: Option<&StatusCell>,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let request = read_request_head(&mut stream)?;
    let (status, content_type, body) = match parse_request_line(&request) {
        Some(("GET", "/metrics")) => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            recorder.registry().render_prometheus(),
        ),
        Some(("GET", "/events")) => match ledger {
            Some(ledger) => {
                let after = query_param(&request, "after").unwrap_or(0);
                ("200 OK", "application/x-ndjson", poll_events(ledger, after, stop))
            }
            None => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no ledger attached (run with --ledger)\n".to_string(),
            ),
        },
        Some(("GET", "/ledger.jsonl")) => match ledger {
            Some(ledger) => ("200 OK", "application/x-ndjson", ledger.snapshot_jsonl()),
            None => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no ledger attached (run with --ledger)\n".to_string(),
            ),
        },
        Some(("GET", "/report.json")) => {
            let body = {
                let stored = lock(report);
                match stored.as_ref() {
                    Some(r) => serde_json::to_string_pretty(r),
                    None => serde_json::to_string_pretty(&live_report(recorder)),
                }
            };
            match body {
                Ok(json) => ("200 OK", "application/json", json),
                Err(e) => (
                    "500 Internal Server Error",
                    "text/plain; charset=utf-8",
                    format!("serialization error: {e}\n"),
                ),
            }
        }
        Some(("GET", "/status")) => match status {
            Some(cell) => match status_body(recorder, cell) {
                Ok(json) => ("200 OK", "application/json", json),
                Err(e) => (
                    "500 Internal Server Error",
                    "text/plain; charset=utf-8",
                    format!("serialization error: {e}\n"),
                ),
            },
            None => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no status source attached (run pmkm orchestrate --serve)\n".to_string(),
            ),
        },
        Some(("GET", "/healthz")) => (
            "200 OK",
            "application/json",
            format!("{{\"status\":\"ok\",\"uptime_us\":{}}}", recorder.elapsed_us()),
        ),
        Some(("GET", _)) => {
            ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string())
        }
        Some((_, _)) => (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        ),
        None => ("400 Bad Request", "text/plain; charset=utf-8", "bad request\n".to_string()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Reads until the end of the header block (`\r\n\r\n`), EOF, or the size
/// cap. The body, if any, is ignored — every route is a GET.
fn read_request_head(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

/// `"GET /metrics HTTP/1.1\r\n..."` → `("GET", "/metrics")`. Query strings
/// are stripped so `/metrics?x=1` still routes.
fn parse_request_line(request: &str) -> Option<(&str, &str)> {
    let line = request.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let path = target.split('?').next().unwrap_or(target);
    Some((method, path))
}

/// Extracts a `u64` query parameter from the raw request head, e.g.
/// `query_param("GET /events?after=12 HTTP/1.1…", "after")` → `Some(12)`.
/// Missing or unparsable values yield `None`.
fn query_param(request: &str, key: &str) -> Option<u64> {
    let line = request.lines().next()?;
    let target = line.split_whitespace().nth(1)?;
    let query = target.split_once('?')?.1;
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parsing() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("GET", "/metrics"))
        );
        assert_eq!(parse_request_line("POST / HTTP/1.1\r\n\r\n"), Some(("POST", "/")));
        assert_eq!(
            parse_request_line("GET /metrics?scrape=1 HTTP/1.1\r\n"),
            Some(("GET", "/metrics"))
        );
        assert_eq!(parse_request_line(""), None);
        assert_eq!(parse_request_line("GARBAGE"), None);
    }

    #[test]
    fn query_param_extraction() {
        assert_eq!(query_param("GET /events?after=12 HTTP/1.1\r\n\r\n", "after"), Some(12));
        assert_eq!(query_param("GET /events?x=1&after=7 HTTP/1.1\r\n", "after"), Some(7));
        assert_eq!(query_param("GET /events HTTP/1.1\r\n", "after"), None);
        assert_eq!(query_param("GET /events?after=nope HTTP/1.1\r\n", "after"), None);
        assert_eq!(query_param("", "after"), None);
    }

    #[test]
    fn live_report_carries_metrics_and_phases() {
        use crate::profile::{ManualClock, Profiler};
        let clock = Arc::new(ManualClock::new());
        let prof = Arc::new(Profiler::with_clock(clock.clone()));
        let rec = Recorder::new().with_profiler(prof.clone());
        rec.registry().counter("chunks_total").add(2);
        {
            let _g = prof.enter("scan");
            clock.advance_us(5);
        }
        let report = live_report(&rec);
        assert_eq!(report.metrics.counters[0].name, "chunks_total");
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].path, "scan");
    }
}
