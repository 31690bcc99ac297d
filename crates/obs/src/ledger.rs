//! The run ledger: a versioned, append-only JSONL event journal.
//!
//! A [`LedgerSink`] is a [`TraceSink`] that gives every event a monotonic
//! sequence number and appends it as one JSON object per line — to a file,
//! an in-memory tail, or both. Because it attaches through the ordinary
//! `Recorder::with_sink` seam, bare runs (no recorder) pay nothing and
//! ledger-enabled runs stay bit-identical to bare runs: the ledger only
//! *observes* the event stream the instrumented code already emits.
//!
//! On top of the raw journal sit three layers:
//!
//! * [`parse_ledger`] / [`read_ledger`] — line-oriented readers returning
//!   [`LedgerRecord`]s; unknown fields are ignored and missing
//!   `#[serde(default)]` fields are zeroed, so a v1 journal parses under
//!   every later reader.
//! * [`rollup`] — folds a record stream into a [`LedgerRollup`]: per-cell
//!   mass accounting, per-chunk timings, kernel dispatch decisions, the
//!   fault timeline, and the per-phase self/wall-time table. The rollup of
//!   a run's ledger reproduces the run's `RunReport` fault counters and
//!   mass accounting exactly (asserted by the stream crate's tests).
//! * [`diff_profiles`] — compares two [`RunProfile`]s (built from ledgers
//!   *or* `RunReport`s) and attributes the elapsed-time delta to specific
//!   phases with a confidence score, for `pmkm diff`.
//!
//! ## Causality model
//!
//! Records are causally linked by identifier fields rather than explicit
//! parent pointers: `run.open`/`run.close` bracket the run, `cell.open`
//! (scan) and `cell.close` (merge) bracket one cell keyed by its `cell`
//! field, and `chunk.close` records carry `(cell, chunk)` so a chunk's
//! retries, quarantine, and timing join to its cell. `fault` records carry
//! a `kind` plus the same identifiers, and every record's `ts_us` comes
//! from the one monotonic recorder clock, so sorting by `(ts_us, seq)`
//! yields a consistent global timeline.

use crate::lock;
use crate::report::{FaultKind, FaultReport, PhaseReport, RunReport};
use crate::trace::{Event, FieldValue, TraceSink};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal schema version, stamped into the `ledger.open` header record.
///
/// v1 is the initial schema. Additions must be `#[serde(default)]` fields
/// on [`LedgerRecord`] (or new event names), never removals, so old
/// journals keep parsing under new readers.
pub const LEDGER_VERSION: u32 = 1;

/// Number of records a sink that keeps a tail holds in memory for
/// `/events` serving.
const RETAINED: usize = 65_536;

/// One journal line: a trace event plus its ledger sequence number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerRecord {
    /// Monotonic per-ledger sequence number (the `/events?after=` cursor).
    /// Absent in pre-release journals; defaults to 0.
    #[serde(default)]
    pub seq: u64,
    /// Microseconds since the recorder epoch.
    pub ts_us: u64,
    /// Event name (`"chunk.close"`, `"fault"`, …).
    pub name: String,
    /// Named payload fields in emission order.
    #[serde(default)]
    pub fields: Vec<(String, FieldValue)>,
}

impl LedgerRecord {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// A field as `u64` (accepts `U64` and non-negative `I64`).
    pub fn u64_field(&self, name: &str) -> Option<u64> {
        match self.field(name)? {
            FieldValue::U64(v) => Some(*v),
            FieldValue::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// A field as `f64` (accepts `F64`, `U64`, and `I64`).
    pub fn f64_field(&self, name: &str) -> Option<f64> {
        match self.field(name)? {
            FieldValue::F64(v) => Some(*v),
            FieldValue::U64(v) => Some(*v as f64),
            FieldValue::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// A field as `&str`.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        match self.field(name)? {
            FieldValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// A field as `bool`.
    pub fn bool_field(&self, name: &str) -> Option<bool> {
        match self.field(name)? {
            FieldValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct LedgerState {
    writer: Option<BufWriter<std::fs::File>>,
    /// The newest records as `(seq, body)`, where the body is the line
    /// after its `{"seq":N,` prefix. `None` while nothing reads the sink's
    /// memory.
    tail: Option<VecDeque<(u64, Box<str>)>>,
    next_seq: u64,
}

thread_local! {
    /// Per-thread scratch line for [`LedgerSink::record`]: a record is
    /// formatted here before the sink's lock is taken, and the buffer's
    /// capacity carries over to the thread's next record.
    static BODY: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Append-only JSONL journal sink. See the [module docs](self).
///
/// Each record is formatted once, straight from the borrowed [`Event`],
/// into a per-thread buffer; the sink's lock covers only the `seq`
/// assignment and the buffered append. A file-backed sink holds no records
/// in memory — the file is the journal — until the HTTP exporter serves it
/// ([`crate::MetricsServer::serve_full`]); from then on, like a memory-only sink,
/// it also keeps the newest 65,536 formatted lines for `/events`.
pub struct LedgerSink {
    state: Mutex<LedgerState>,
    path: Option<PathBuf>,
}

impl LedgerSink {
    /// Creates (truncating) a file-backed ledger at `path` and writes the
    /// versioned `ledger.open` header record.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path.as_ref())?;
        Ok(Self::open(Some(BufWriter::new(file)), Some(path.as_ref().to_path_buf())))
    }

    /// A memory-only ledger (serves `/events` without touching disk).
    pub fn in_memory() -> Self {
        Self::open(None, None)
    }

    /// Writes the header; a sink without a file keeps a tail from the start.
    fn open(writer: Option<BufWriter<std::fs::File>>, path: Option<PathBuf>) -> Self {
        let tail = writer.is_none().then(VecDeque::new);
        let sink = Self { state: Mutex::new(LedgerState { writer, tail, next_seq: 0 }), path };
        sink.record(&Event {
            ts_us: 0,
            name: "ledger.open".to_string(),
            fields: vec![("version".to_string(), FieldValue::U64(LEDGER_VERSION as u64))],
        });
        sink
    }

    /// Starts keeping the newest records in memory, for `/events`. The
    /// exporter calls this when it serves the sink; records appended
    /// before then are only in the file.
    pub(crate) fn retain_tail(&self) {
        lock(&self.state).tail.get_or_insert_with(VecDeque::new);
    }

    /// Appends one formatted record body under the next sequence number.
    fn append(&self, body: &str) {
        let mut state = lock(&self.state);
        let seq = state.next_seq;
        state.next_seq += 1;
        if let Some(writer) = state.writer.as_mut() {
            let _ = writeln!(writer, "{{\"seq\":{seq},{body}");
        }
        if let Some(tail) = state.tail.as_mut() {
            if tail.len() == RETAINED {
                tail.pop_front();
            }
            tail.push_back((seq, body.into()));
        }
    }

    /// The backing file path, when file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The sequence number the next record will get.
    pub fn next_seq(&self) -> u64 {
        lock(&self.state).next_seq
    }

    /// Retained records with `seq > after`, oldest first, parsed from the
    /// retained lines. Only a memory-only or served sink retains any (see
    /// [`LedgerSink`]); records older than the newest 65,536 are gone. Use
    /// the journal file for the full history.
    pub fn records_after(&self, after: u64) -> Vec<LedgerRecord> {
        parse_ledger(&self.jsonl_after(after)).expect("the sink's own lines parse")
    }

    /// Retained lines with `seq > after` as JSONL text — the `/events`
    /// long-poll body.
    pub(crate) fn jsonl_after(&self, after: u64) -> String {
        self.tail_jsonl(after.saturating_add(1))
    }

    /// Retained lines with `seq >= from`, oldest first.
    fn tail_jsonl(&self, from: u64) -> String {
        let state = lock(&self.state);
        let mut out = String::new();
        if let Some(tail) = &state.tail {
            let start = tail.partition_point(|(seq, _)| *seq < from);
            for (seq, body) in tail.range(start..) {
                let _ = writeln!(out, "{{\"seq\":{seq},{body}");
            }
        }
        out
    }

    /// The full journal as JSONL text: the file contents when file-backed
    /// (flushed first), else the retained lines.
    pub fn snapshot_jsonl(&self) -> String {
        self.flush();
        if let Some(path) = &self.path {
            if let Ok(text) = std::fs::read_to_string(path) {
                return text;
            }
        }
        self.tail_jsonl(0)
    }
}

/// Appends an event's journal body, `"ts_us":T,"name":…,"fields":[…]}` —
/// byte for byte what `serde_json::to_string` prints for the
/// [`LedgerRecord`] after its `{"seq":N,` prefix (pinned by the
/// `ledger_bytes_are_pinned` test and a proptest oracle).
fn write_body(event: &Event, out: &mut String) {
    let _ = write!(out, "\"ts_us\":{},\"name\":", event.ts_us);
    push_json_str(&event.name, out);
    out.push_str(",\"fields\":[");
    for (i, (key, value)) in event.fields.iter().enumerate() {
        out.push_str(if i == 0 { "[" } else { ",[" });
        push_json_str(key, out);
        let _ = match value {
            FieldValue::U64(v) => write!(out, ",{{\"U64\":{v}}}]"),
            FieldValue::I64(v) => write!(out, ",{{\"I64\":{v}}}]"),
            // `{:?}` is serde_json's shortest round-trip float form.
            FieldValue::F64(v) if v.is_finite() => write!(out, ",{{\"F64\":{v:?}}}]"),
            FieldValue::F64(_) => write!(out, ",{{\"F64\":null}}]"),
            FieldValue::Bool(v) => write!(out, ",{{\"Bool\":{v}}}]"),
            FieldValue::Str(s) => {
                out.push_str(",{\"Str\":");
                push_json_str(s, out);
                write!(out, "}}]")
            }
        };
    }
    out.push_str("]}");
}

/// Appends `s` as a JSON string, escaped as serde_json escapes it: `"`,
/// `\`, `\n`, `\r` and `\t` by name, other control characters as `\u00XX`,
/// everything else verbatim. Every escaped character is ASCII, so the runs
/// between them are copied whole.
pub(crate) fn push_json_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let named = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if named.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(named);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl TraceSink for LedgerSink {
    fn record(&self, event: &Event) {
        BODY.with_borrow_mut(|body| {
            body.clear();
            write_body(event, body);
            self.append(body);
        });
    }

    fn flush(&self) {
        if let Some(writer) = lock(&self.state).writer.as_mut() {
            let _ = writer.flush();
        }
    }
}

impl Drop for LedgerSink {
    fn drop(&mut self) {
        if let Some(writer) = lock(&self.state).writer.as_mut() {
            let _ = writer.flush();
        }
    }
}

impl std::fmt::Debug for LedgerSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LedgerSink")
            .field("path", &self.path)
            .field("next_seq", &lock(&self.state).next_seq)
            .finish()
    }
}

/// Parses JSONL text into records. Blank lines are skipped; the first
/// malformed line aborts with a message naming its line number.
pub fn parse_ledger(text: &str) -> Result<Vec<LedgerRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<LedgerRecord>(line) {
            Ok(record) => records.push(record),
            Err(e) => return Err(format!("ledger line {}: {e}", i + 1)),
        }
    }
    Ok(records)
}

/// Reads and parses a ledger file; parse failures surface as
/// `io::ErrorKind::InvalidData`.
pub fn read_ledger(path: impl AsRef<Path>) -> std::io::Result<Vec<LedgerRecord>> {
    let text = std::fs::read_to_string(path)?;
    parse_ledger(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Emits one `run.phase` record per profiler phase row into `rec`'s sinks,
/// so a ledger carries the per-phase self/wall-time table without needing
/// the `RunReport`. Call once, after the profiled work has finished.
pub fn emit_phase_events(rec: &crate::trace::Recorder) {
    for row in rec.phase_rows() {
        rec.event(
            "run.phase",
            &[
                ("path", row.path.as_str().into()),
                ("calls", row.calls.into()),
                ("total_us", row.total_us.into()),
                ("self_us", row.self_us.into()),
                ("wall_us", row.wall_us.into()),
            ],
        );
    }
}

// ---------------------------------------------------------------------------
// Rollup
// ---------------------------------------------------------------------------

/// Mass accounting and outcome of one cell, folded from `cell.close`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CellRollup {
    /// Cell label.
    pub cell: String,
    /// Chunks merged into the cell.
    pub chunks: u64,
    /// Mass the scan promised (`Σw_expected`).
    pub expected_points: f64,
    /// Mass lost to quarantine or failed reads.
    pub lost_points: f64,
    /// Chunks quarantined instead of merged.
    pub lost_chunks: u64,
    /// True when the cell merged with missing mass.
    pub degraded: bool,
    /// Weighted MSE of the merged clustering.
    pub mse: f64,
    /// Error-per-mass of the merged clustering.
    pub epm: f64,
}

/// One chunk's timing, folded from `chunk.close`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChunkRollup {
    /// Owning cell label.
    pub cell: String,
    /// Chunk id within the cell.
    pub chunk: u64,
    /// Points clustered.
    pub points: u64,
    /// Wall time of the chunk's clustering (µs).
    pub duration_us: u64,
    /// Clustering attempts (1 unless panics forced retries).
    pub attempts: u64,
}

/// One kernel's dispatch tally, folded from `lloyd.kernel`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct KernelRollup {
    /// Kernel label (`"fused"`, `"scalar"`, …).
    pub kind: String,
    /// Lloyd runs dispatched to this kernel.
    pub runs: u64,
    /// Point-assignments executed by this kernel.
    pub points: u64,
    /// Of those, the ones a bounded Lloyd run decided without the screen
    /// (the event's `pruned` field; runs without it count 0).
    #[serde(default)]
    pub pruned: u64,
}

/// One checkpoint write, folded from `cell.checkpoint` records of an
/// orchestrated run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CheckpointRollup {
    /// When the checkpoint was written (µs since recorder epoch).
    pub ts_us: u64,
    /// Cell label (grid index, or the bucket file name for lost cells).
    pub cell: String,
    /// Write sequence within the run (1-based).
    pub seq: u64,
    /// Checkpoint file size, bytes.
    pub bytes: u64,
}

/// One fault on the run's timeline, folded from `fault` records.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultEntry {
    /// When the fault was recorded (µs since recorder epoch).
    pub ts_us: u64,
    /// Fault kind ([`FaultKind::kind`], or an unknown kind verbatim).
    pub kind: String,
    /// Compact rendering of the fault's context fields.
    pub detail: String,
}

/// Net live state of one coreset-tree level, folded from
/// `coreset.build`/`coreset.compact`/`coreset.evict` records.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CoresetLevelRollup {
    /// Tree level (0 = fresh chunk coresets).
    pub level: u32,
    /// Net live buckets at this level (builds/compaction outputs minus
    /// compaction inputs and evictions). Signed so a malformed journal
    /// shows up as a negative count instead of a silent wrap.
    pub buckets: i64,
    /// Net live representative weight at this level.
    pub weight: f64,
}

/// Coreset-engine state folded from `coreset.*` records: per-level net
/// bucket counts and weights, which for a well-formed journal of a
/// non-decaying run reproduce the live tree exactly.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CoresetRollup {
    /// `coreset.build` records folded.
    pub builds: u64,
    /// `coreset.compact` records folded.
    pub compactions: u64,
    /// `coreset.evict` records folded.
    pub evictions: u64,
    /// `coreset.query` records folded.
    pub queries: u64,
    /// Raw point mass evicted by sliding windows.
    pub expired_points: f64,
    /// Net per-level live state, sorted by level.
    pub levels: Vec<CoresetLevelRollup>,
}

impl CoresetRollup {
    /// True when no coreset records were seen.
    pub fn is_empty(&self) -> bool {
        self.builds == 0 && self.compactions == 0 && self.evictions == 0 && self.queries == 0
    }

    /// Net live buckets across levels.
    pub fn live_buckets(&self) -> i64 {
        self.levels.iter().map(|l| l.buckets).sum()
    }

    /// Net live representative weight across levels.
    pub fn live_weight(&self) -> f64 {
        self.levels.iter().map(|l| l.weight).sum()
    }
}

/// Block-scan I/O rebuilt from `scan.block` records (GB02 block
/// containers only; empty for GB01-only runs and pre-container journals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ScanRollup {
    /// Blocks fetched and decoded.
    pub blocks: u64,
    /// Bytes fetched from the storage backend (compressed size).
    pub stored_bytes: u64,
    /// Bytes after decode (raw `f64` payload).
    pub payload_bytes: u64,
    /// Blocks decoded straight from a borrowed mmap range with no
    /// intermediate payload copy.
    pub zero_copy_blocks: u64,
    /// Blocks already resident when the consumer asked for them (the
    /// double-buffered prefetcher won the race).
    pub prefetch_hits: u64,
}

impl ScanRollup {
    /// True when no `scan.block` records were seen.
    pub fn is_empty(&self) -> bool {
        self.blocks == 0
    }

    /// Payload/stored compression ratio (1.0 when nothing was stored).
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.payload_bytes as f64 / self.stored_bytes as f64
        }
    }

    /// Fraction of block fetches served out of the prefetch buffer.
    pub fn prefetch_hit_rate(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / self.blocks as f64
        }
    }
}

/// Aggregated view of one ledger. Produced by [`rollup`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LedgerRollup {
    /// Journal schema version from the `ledger.open` header (0 if absent).
    pub version: u32,
    /// Total records folded.
    pub events: u64,
    /// Run wall time: the `run.close` elapsed when present, else the
    /// newest record timestamp.
    pub elapsed_us: u64,
    /// Per-phase table from `run.phase` records, sorted by path.
    pub phases: Vec<PhaseReport>,
    /// Fault counters rebuilt from `fault` records.
    pub faults: FaultReport,
    /// Every fault in timeline order.
    pub fault_timeline: Vec<FaultEntry>,
    /// Per-cell mass accounting, sorted by cell label.
    pub cells: Vec<CellRollup>,
    /// Per-chunk timings in record order.
    pub chunks: Vec<ChunkRollup>,
    /// Kernel dispatch tallies, sorted by kind.
    pub kernels: Vec<KernelRollup>,
    /// Checkpoint writes in timeline order (orchestrated runs only;
    /// absent in pre-orchestrator journals).
    #[serde(default)]
    pub checkpoints: Vec<CheckpointRollup>,
    /// Cells restored from checkpoints, from the `run.resume` record (0
    /// when the run was not a resume).
    #[serde(default)]
    pub resumed_cells: u64,
    /// Checkpoint files the resume rejected as corrupt or stale.
    #[serde(default)]
    pub invalid_checkpoints: u64,
    /// `worker.state` transitions recorded (0 when no timeline was
    /// attached; absent in pre-timeline journals).
    #[serde(default)]
    pub worker_transitions: u64,
    /// Stall verdicts (`watchdog.stall`) emitted by the watchdog.
    #[serde(default)]
    pub watchdog_stalls: u64,
    /// Straggler verdicts (`watchdog.straggler`) emitted by the watchdog.
    #[serde(default)]
    pub watchdog_stragglers: u64,
    /// Coreset-tree state rebuilt from `coreset.*` records (empty for
    /// classic merge-path runs and pre-coreset journals).
    #[serde(default)]
    pub coreset: CoresetRollup,
    /// Block-scan I/O rebuilt from `scan.block` records (empty for
    /// GB01-only runs and pre-container journals).
    #[serde(default)]
    pub scan: ScanRollup,
}

impl LedgerRollup {
    /// `Σw_expected` across cells.
    pub fn expected_weight(&self) -> f64 {
        self.cells.iter().map(|c| c.expected_points).sum()
    }

    /// `Σw_lost` across cells.
    pub fn lost_weight(&self) -> f64 {
        self.cells.iter().map(|c| c.lost_points).sum()
    }

    /// The mass-conservation ratio `Σw_received / Σw_expected` (1.0 when
    /// nothing was expected).
    pub fn mass_ratio(&self) -> f64 {
        let expected = self.expected_weight();
        if expected <= 0.0 {
            1.0
        } else {
            (expected - self.lost_weight()) / expected
        }
    }

    /// The `n` slowest chunks, slowest first.
    pub fn slowest_chunks(&self, n: usize) -> Vec<&ChunkRollup> {
        let mut sorted: Vec<&ChunkRollup> = self.chunks.iter().collect();
        sorted.sort_by(|a, b| {
            b.duration_us
                .cmp(&a.duration_us)
                .then_with(|| (a.cell.as_str(), a.chunk).cmp(&(b.cell.as_str(), b.chunk)))
        });
        sorted.truncate(n);
        sorted
    }
}

/// Folds a record stream into a [`LedgerRollup`].
pub fn rollup(records: &[LedgerRecord]) -> LedgerRollup {
    let mut out = LedgerRollup { events: records.len() as u64, ..LedgerRollup::default() };
    let mut phases: BTreeMap<String, PhaseReport> = BTreeMap::new();
    let mut cells: BTreeMap<String, CellRollup> = BTreeMap::new();
    let mut kernels: BTreeMap<String, KernelRollup> = BTreeMap::new();
    let mut coreset_levels: BTreeMap<u32, (i64, f64)> = BTreeMap::new();
    let mut close_elapsed: Option<u64> = None;
    for r in records {
        out.elapsed_us = out.elapsed_us.max(r.ts_us);
        match r.name.as_str() {
            "ledger.open" => {
                out.version = r.u64_field("version").unwrap_or(0) as u32;
            }
            "run.close" => {
                close_elapsed = r.u64_field("elapsed_us").or(close_elapsed);
            }
            "run.phase" => {
                if let Some(path) = r.str_field("path") {
                    phases.insert(
                        path.to_string(),
                        PhaseReport {
                            path: path.to_string(),
                            calls: r.u64_field("calls").unwrap_or(0),
                            total_us: r.u64_field("total_us").unwrap_or(0),
                            self_us: r.u64_field("self_us").unwrap_or(0),
                            wall_us: r.u64_field("wall_us").unwrap_or(0),
                        },
                    );
                }
            }
            "fault" => {
                let kind = r.str_field("kind").unwrap_or("unknown").to_string();
                // A kind this reader does not know (a newer writer's) is
                // still kept on the timeline.
                if let Some(k) = FaultKind::from_kind(&kind) {
                    *out.faults.count_mut(k) += 1;
                }
                let detail = r
                    .fields
                    .iter()
                    .filter(|(k, _)| k != "kind")
                    .map(|(k, v)| format!("{k}={}", render_field(v)))
                    .collect::<Vec<_>>()
                    .join(" ");
                out.fault_timeline.push(FaultEntry { ts_us: r.ts_us, kind, detail });
            }
            "cell.close" => {
                let cell = r.str_field("cell").map(str::to_string).unwrap_or_else(|| {
                    r.u64_field("cell").map(|c| c.to_string()).unwrap_or_default()
                });
                cells.insert(
                    cell.clone(),
                    CellRollup {
                        cell,
                        chunks: r.u64_field("chunks").unwrap_or(0),
                        expected_points: r.f64_field("expected_points").unwrap_or(0.0),
                        lost_points: r.f64_field("lost_points").unwrap_or(0.0),
                        lost_chunks: r.u64_field("lost_chunks").unwrap_or(0),
                        degraded: r.bool_field("degraded").unwrap_or(false),
                        mse: r.f64_field("mse").unwrap_or(0.0),
                        epm: r.f64_field("epm").unwrap_or(0.0),
                    },
                );
            }
            "chunk.close" => {
                out.chunks.push(ChunkRollup {
                    cell: r.str_field("cell").map(str::to_string).unwrap_or_else(|| {
                        r.u64_field("cell").map(|c| c.to_string()).unwrap_or_default()
                    }),
                    chunk: r.u64_field("chunk").unwrap_or(0),
                    points: r.u64_field("points").unwrap_or(0),
                    duration_us: r.u64_field("duration_us").unwrap_or(0),
                    attempts: r.u64_field("attempts").unwrap_or(1),
                });
            }
            "cell.checkpoint" => {
                out.checkpoints.push(CheckpointRollup {
                    ts_us: r.ts_us,
                    cell: r.str_field("cell").map(str::to_string).unwrap_or_else(|| {
                        r.u64_field("cell").map(|c| c.to_string()).unwrap_or_default()
                    }),
                    seq: r.u64_field("seq").unwrap_or(0),
                    bytes: r.u64_field("bytes").unwrap_or(0),
                });
            }
            "run.resume" => {
                out.resumed_cells = r.u64_field("cells_resumed").unwrap_or(0);
                out.invalid_checkpoints = r.u64_field("checkpoints_invalid").unwrap_or(0);
            }
            "worker.state" => out.worker_transitions += 1,
            "watchdog.stall" => out.watchdog_stalls += 1,
            "watchdog.straggler" => out.watchdog_stragglers += 1,
            "lloyd.kernel" => {
                let kind = r.str_field("kind").unwrap_or("unknown").to_string();
                let entry = kernels
                    .entry(kind.clone())
                    .or_insert_with(|| KernelRollup { kind, ..KernelRollup::default() });
                entry.runs += 1;
                entry.points += r.u64_field("points").unwrap_or(0);
                entry.pruned += r.u64_field("pruned").unwrap_or(0);
            }
            "coreset.build" => {
                out.coreset.builds += 1;
                let slot = coreset_levels.entry(0).or_insert((0, 0.0));
                slot.0 += 1;
                slot.1 += r.f64_field("weight").unwrap_or(0.0);
            }
            "coreset.compact" => {
                out.coreset.compactions += 1;
                let level = r.u64_field("level").unwrap_or(0) as u32;
                let out_slot = coreset_levels.entry(level).or_insert((0, 0.0));
                out_slot.0 += 1;
                out_slot.1 += r.f64_field("weight").unwrap_or(0.0);
                // A compaction consumes the two newest buckets one level
                // below and emits one bucket at `level`.
                let in_level = level.saturating_sub(1);
                let in_slot = coreset_levels.entry(in_level).or_insert((0, 0.0));
                in_slot.0 -= 2;
                in_slot.1 -= r.f64_field("consumed_weight").unwrap_or(0.0);
            }
            "coreset.evict" => {
                out.coreset.evictions += 1;
                let level = r.u64_field("level").unwrap_or(0) as u32;
                let slot = coreset_levels.entry(level).or_insert((0, 0.0));
                slot.0 -= 1;
                slot.1 -= r.f64_field("weight").unwrap_or(0.0);
                out.coreset.expired_points += r.f64_field("points").unwrap_or(0.0);
            }
            "coreset.query" => out.coreset.queries += 1,
            "scan.block" => {
                out.scan.blocks += 1;
                out.scan.stored_bytes += r.u64_field("stored_bytes").unwrap_or(0);
                out.scan.payload_bytes += r.u64_field("payload_bytes").unwrap_or(0);
                if r.bool_field("zero_copy").unwrap_or(false) {
                    out.scan.zero_copy_blocks += 1;
                }
                if r.bool_field("prefetch_hit").unwrap_or(false) {
                    out.scan.prefetch_hits += 1;
                }
            }
            _ => {}
        }
    }
    out.coreset.levels = coreset_levels
        .into_iter()
        .map(|(level, (buckets, weight))| CoresetLevelRollup { level, buckets, weight })
        .collect();
    if let Some(us) = close_elapsed {
        out.elapsed_us = us;
    }
    out.phases = phases.into_values().collect();
    out.cells = cells.into_values().collect();
    out.kernels = kernels.into_values().collect();
    out
}

fn render_field(v: &FieldValue) -> String {
    match v {
        FieldValue::U64(x) => x.to_string(),
        FieldValue::I64(x) => x.to_string(),
        FieldValue::F64(x) => format!("{x}"),
        FieldValue::Bool(x) => x.to_string(),
        FieldValue::Str(x) => x.clone(),
    }
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

/// The comparable surface of one run — buildable from a ledger rollup or a
/// `RunReport`, so `pmkm diff` accepts either format on either side.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunProfile {
    /// Display label (usually the source path).
    pub label: String,
    /// Run wall time (µs).
    pub elapsed_us: u64,
    /// Per-phase table.
    pub phases: Vec<PhaseReport>,
    /// Kernel dispatch tallies (empty when the source does not carry them).
    pub kernels: Vec<KernelRollup>,
    /// Fault counters.
    pub faults: FaultReport,
    /// `Σw_expected` across cells.
    pub expected_weight: f64,
    /// `Σw_lost` across cells.
    pub lost_weight: f64,
}

impl RunProfile {
    /// Builds a profile from a ledger rollup.
    pub fn from_rollup(label: impl Into<String>, r: &LedgerRollup) -> Self {
        Self {
            label: label.into(),
            elapsed_us: r.elapsed_us,
            phases: r.phases.clone(),
            kernels: r.kernels.clone(),
            faults: r.faults,
            expected_weight: r.expected_weight(),
            lost_weight: r.lost_weight(),
        }
    }

    /// Builds a profile from a `RunReport`.
    pub fn from_run_report(label: impl Into<String>, r: &RunReport) -> Self {
        Self {
            label: label.into(),
            elapsed_us: r.elapsed.as_micros() as u64,
            phases: r.phases.clone(),
            kernels: Vec::new(),
            faults: r.faults,
            expected_weight: r.cells.iter().map(|c| c.expected_points).sum(),
            lost_weight: r.cells.iter().map(|c| c.lost_points).sum(),
        }
    }
}

/// One phase's contribution to an elapsed-time delta.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseDelta {
    /// Phase path.
    pub path: String,
    /// Self time in run A (µs).
    pub self_us_a: u64,
    /// Self time in run B (µs).
    pub self_us_b: u64,
    /// `self_us_b − self_us_a`.
    pub delta_us: i64,
    /// `|delta| / Σ|delta|` over all phases — how much of the total change
    /// this phase accounts for, in `[0, 1]`.
    pub share: f64,
}

/// Per-phase attribution of the self-time difference between two phase
/// tables, sorted by `|delta|` descending. Phases present on only one side
/// diff against zero.
pub fn attribute_phases(a: &[PhaseReport], b: &[PhaseReport]) -> Vec<PhaseDelta> {
    let mut paths: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for p in a {
        paths.entry(p.path.as_str()).or_default().0 = p.self_us;
    }
    for p in b {
        paths.entry(p.path.as_str()).or_default().1 = p.self_us;
    }
    let total: u64 = paths.values().map(|&(x, y)| x.abs_diff(y)).sum();
    let mut deltas: Vec<PhaseDelta> = paths
        .into_iter()
        .map(|(path, (x, y))| PhaseDelta {
            path: path.to_string(),
            self_us_a: x,
            self_us_b: y,
            delta_us: y as i64 - x as i64,
            share: if total == 0 { 0.0 } else { x.abs_diff(y) as f64 / total as f64 },
        })
        .collect();
    deltas.sort_by(|p, q| {
        q.delta_us.unsigned_abs().cmp(&p.delta_us.unsigned_abs()).then_with(|| p.path.cmp(&q.path))
    });
    deltas
}

/// One fault counter that changed between two runs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultDelta {
    /// The [`FaultReport`] field that changed ([`FaultKind::field`]).
    pub kind: String,
    /// Count in run A.
    pub a: u64,
    /// Count in run B.
    pub b: u64,
}

/// The result of diffing two [`RunProfile`]s.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ProfileDiff {
    /// Label of run A (the baseline).
    pub label_a: String,
    /// Label of run B (the candidate).
    pub label_b: String,
    /// Run A wall time (µs).
    pub elapsed_us_a: u64,
    /// Run B wall time (µs).
    pub elapsed_us_b: u64,
    /// `elapsed_b / elapsed_a` (1.0 when A is empty).
    pub slowdown: f64,
    /// True when B exceeded A's elapsed time by more than the threshold.
    pub regression: bool,
    /// Per-phase attribution, largest |delta| first.
    pub phases: Vec<PhaseDelta>,
    /// Confidence of the top attribution: the leading phase's share of the
    /// total self-time change (0 when the phase tables are identical).
    pub confidence: f64,
    /// Fault counters that changed.
    pub fault_deltas: Vec<FaultDelta>,
    /// Kernel dispatch changes, rendered (`"assign: fused → scalar"` style).
    pub kernel_changes: Vec<String>,
    /// Mass-conservation ratio of run A.
    pub mass_ratio_a: f64,
    /// Mass-conservation ratio of run B.
    pub mass_ratio_b: f64,
}

impl ProfileDiff {
    /// The phase the delta is attributed to, when one dominates.
    pub fn attributed_phase(&self) -> Option<&PhaseDelta> {
        self.phases.first().filter(|p| p.share > 0.0)
    }

    /// Human-readable rendering for terminals and CI logs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "A: {} ({} µs)\nB: {} ({} µs)\nelapsed ratio B/A: {:.3}{}\n",
            self.label_a,
            self.elapsed_us_a,
            self.label_b,
            self.elapsed_us_b,
            self.slowdown,
            if self.regression { "  REGRESSION" } else { "" },
        ));
        if let Some(top) = self.attributed_phase() {
            out.push_str(&format!(
                "attribution: phase '{}' ({:+} µs self, confidence {:.2})\n",
                top.path, top.delta_us, self.confidence
            ));
        }
        if !self.phases.is_empty() {
            out.push_str(
                "phase                      self A µs    self B µs      delta µs  share\n",
            );
            for p in &self.phases {
                out.push_str(&format!(
                    "{:<24} {:>12} {:>12} {:>13} {:>6.2}\n",
                    p.path, p.self_us_a, p.self_us_b, p.delta_us, p.share
                ));
            }
        }
        for k in &self.kernel_changes {
            out.push_str(&format!("kernel: {k}\n"));
        }
        for f in &self.fault_deltas {
            out.push_str(&format!("fault {}: {} → {}\n", f.kind, f.a, f.b));
        }
        if (self.mass_ratio_a - self.mass_ratio_b).abs() > f64::EPSILON {
            out.push_str(&format!(
                "mass ratio: {:.6} → {:.6}\n",
                self.mass_ratio_a, self.mass_ratio_b
            ));
        }
        out
    }
}

fn mass_ratio(expected: f64, lost: f64) -> f64 {
    if expected <= 0.0 {
        1.0
    } else {
        (expected - lost) / expected
    }
}

/// Diffs two profiles: B is a regression against A when B's elapsed time
/// exceeds A's by more than `threshold` (0.10 = 10% slower).
pub fn diff_profiles(a: &RunProfile, b: &RunProfile, threshold: f64) -> ProfileDiff {
    let slowdown = if a.elapsed_us == 0 { 1.0 } else { b.elapsed_us as f64 / a.elapsed_us as f64 };
    let phases = attribute_phases(&a.phases, &b.phases);
    let confidence = phases.first().map(|p| p.share).unwrap_or(0.0);
    let fault_deltas = FaultKind::ALL
        .into_iter()
        .map(|k| FaultDelta {
            kind: k.field().to_string(),
            a: a.faults.count(k),
            b: b.faults.count(k),
        })
        .filter(|d| d.a != d.b)
        .collect();
    let mut kernel_changes = Vec::new();
    let mut kinds: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for k in &a.kernels {
        kinds.entry(k.kind.as_str()).or_default().0 = k.runs;
    }
    for k in &b.kernels {
        kinds.entry(k.kind.as_str()).or_default().1 = k.runs;
    }
    for (kind, (x, y)) in kinds {
        if x != y {
            kernel_changes.push(format!("{kind}: {x} → {y} dispatches"));
        }
    }
    ProfileDiff {
        label_a: a.label.clone(),
        label_b: b.label.clone(),
        elapsed_us_a: a.elapsed_us,
        elapsed_us_b: b.elapsed_us,
        slowdown,
        regression: a.elapsed_us > 0 && slowdown > 1.0 + threshold,
        phases,
        confidence,
        fault_deltas,
        kernel_changes,
        mass_ratio_a: mass_ratio(a.expected_weight, a.lost_weight),
        mass_ratio_b: mass_ratio(b.expected_weight, b.lost_weight),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Recorder;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pmkm_ledger_{tag}_{}.jsonl", std::process::id()))
    }

    #[test]
    fn ledger_round_trips_write_parse_rollup() {
        let path = temp_path("roundtrip");
        {
            // A file-backed sink keeps no tail; a memory-only one fed the
            // same events does.
            let sink = Arc::new(LedgerSink::create(&path).unwrap());
            let memory = Arc::new(LedgerSink::in_memory());
            let rec = Recorder::new().with_sink(sink.clone()).with_sink(memory.clone());
            rec.event("cell.open", &[("cell", "0".into()), ("expected_points", 100.0.into())]);
            rec.event(
                "chunk.close",
                &[
                    ("cell", "0".into()),
                    ("chunk", 0u64.into()),
                    ("points", 50u64.into()),
                    ("duration_us", 300u64.into()),
                    ("attempts", 1u64.into()),
                ],
            );
            rec.event("fault", &[("kind", "chunk_retry".into()), ("cell", "0".into())]);
            rec.event(
                "cell.close",
                &[
                    ("cell", "0".into()),
                    ("chunks", 2u64.into()),
                    ("expected_points", 100.0.into()),
                    ("lost_points", 0.0.into()),
                    ("lost_chunks", 0u64.into()),
                    ("degraded", false.into()),
                    ("mse", 0.5.into()),
                    ("epm", 0.1.into()),
                ],
            );
            rec.flush();
            // Rollup of the in-memory tail matches rollup of the file.
            assert!(sink.records_after(0).is_empty());
            let from_tail = rollup(&memory.records_after(0));
            let from_file = rollup(&read_ledger(&path).unwrap());
            // Header (seq 0) is excluded from the tail read; fold it in.
            assert_eq!(from_file.cells, from_tail.cells);
            assert_eq!(from_file.chunks, from_tail.chunks);
            assert_eq!(from_file.faults, from_tail.faults);
        }
        let records = read_ledger(&path).unwrap();
        assert_eq!(records[0].name, "ledger.open");
        assert_eq!(records[0].u64_field("version"), Some(LEDGER_VERSION as u64));
        // Sequence numbers are dense and monotonic.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
        let up = rollup(&records);
        assert_eq!(up.version, LEDGER_VERSION);
        assert_eq!(up.cells.len(), 1);
        assert_eq!(up.cells[0].expected_points, 100.0);
        assert_eq!(up.faults.chunk_retries, 1);
        assert_eq!(up.fault_timeline.len(), 1);
        assert_eq!(up.chunks.len(), 1);
        assert_eq!(up.chunks[0].duration_us, 300);
        assert_eq!(up.mass_ratio(), 1.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scan_block_records_roll_up_io_and_prefetch_tallies() {
        let sink = Arc::new(LedgerSink::in_memory());
        let rec = Recorder::new().with_sink(sink.clone());
        // Three blocks: one compressed prefetch hit, one zero-copy raw
        // block, one plain miss.
        for (stored, payload, zero_copy, hit) in
            [(400u64, 800u64, false, true), (800, 800, true, false), (800, 800, false, false)]
        {
            rec.event(
                "scan.block",
                &[
                    ("cell", "9".into()),
                    ("block", 0u64.into()),
                    ("stored_bytes", stored.into()),
                    ("payload_bytes", payload.into()),
                    ("zero_copy", zero_copy.into()),
                    ("prefetch_hit", hit.into()),
                ],
            );
        }
        let roll = rollup(&sink.records_after(0));
        assert!(!roll.scan.is_empty());
        assert_eq!(roll.scan.blocks, 3);
        assert_eq!(roll.scan.stored_bytes, 2000);
        assert_eq!(roll.scan.payload_bytes, 2400);
        assert_eq!(roll.scan.zero_copy_blocks, 1);
        assert_eq!(roll.scan.prefetch_hits, 1);
        assert!((roll.scan.compression_ratio() - 1.2).abs() < 1e-12);
        assert!((roll.scan.prefetch_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        // A GB01-only journal stays empty and serde-defaults on old files.
        assert!(rollup(&[]).scan.is_empty());
        assert_eq!(rollup(&[]).scan.compression_ratio(), 1.0);
    }

    #[test]
    fn v1_ledger_without_seq_parses_under_v2_reader() {
        // A pre-`seq` journal line (the v1-shape document) must parse under
        // the current reader with the missing field defaulted — the
        // `#[serde(default)]` forward-compat contract.
        let sink = LedgerSink::in_memory();
        let rec = Recorder::new().with_sink(Arc::new(sink));
        rec.event("run.close", &[("elapsed_us", 42u64.into())]);
        // Simulate the older writer by stripping the `seq` key.
        let record = LedgerRecord {
            seq: 7,
            ts_us: 5,
            name: "run.close".into(),
            fields: vec![("elapsed_us".into(), FieldValue::U64(42))],
        };
        let json = serde_json::to_string(&record).unwrap();
        let v1 = json.replace("\"seq\":7,", "");
        assert!(!v1.contains("seq"), "surgery failed: {v1}");
        let back: LedgerRecord = serde_json::from_str(&v1).unwrap();
        assert_eq!(back.seq, 0);
        assert_eq!(back.ts_us, 5);
        assert_eq!(back.u64_field("elapsed_us"), Some(42));
        // And a whole stripped journal still parses + rolls up.
        let stripped = parse_ledger(&v1).unwrap();
        assert_eq!(rollup(&stripped).elapsed_us, 42);
    }

    #[test]
    fn malformed_ledger_lines_name_the_line() {
        let err = parse_ledger("{\"ts_us\":1,\"name\":\"a\"}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn records_after_is_a_cursor() {
        let sink = Arc::new(LedgerSink::in_memory());
        let rec = Recorder::new().with_sink(sink.clone());
        for i in 0..5u64 {
            rec.event("e", &[("i", i.into())]);
        }
        // Header is seq 0; events are 1..=5.
        assert_eq!(sink.next_seq(), 6);
        let all = sink.records_after(0);
        assert_eq!(all.len(), 5);
        let tail = sink.records_after(3);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 4);
        assert!(sink.records_after(100).is_empty());
    }

    /// A file-backed sink that an exporter serves keeps a tail from then
    /// on, and `records_after(k)` is exactly the file's records past `k`.
    #[test]
    fn served_tail_matches_the_file_past_every_cursor() {
        let path = temp_path("served");
        let sink = Arc::new(LedgerSink::create(&path).unwrap());
        let rec = Arc::new(Recorder::new().with_sink(sink.clone()));
        let server = crate::serve::MetricsServer::serve_full(
            "127.0.0.1:0",
            Arc::clone(&rec),
            Some(sink.clone()),
            None,
        )
        .unwrap();
        for i in 0..300u64 {
            rec.event("e", &[("i", i.into()), ("s", format!("v\"{i}\n").into())]);
        }
        server.shutdown();
        let file = parse_ledger(&sink.snapshot_jsonl()).unwrap();
        assert_eq!(file.len(), 301);
        for k in [0, 1, 57, 299, 300, 301, u64::MAX] {
            let want: Vec<LedgerRecord> = file.iter().filter(|r| r.seq > k).cloned().collect();
            assert_eq!(sink.records_after(k), want, "after {k}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Formatting happens outside the lock, so only `seq` assignment and
    /// the append are ordered: every line must still parse, `seq` must be
    /// dense, and the file must be in `seq` order.
    #[test]
    fn concurrent_records_keep_seq_dense_and_the_file_in_order() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 5_000;
        let path = temp_path("concurrent");
        let sink = Arc::new(LedgerSink::create(&path).unwrap());
        let rec = Arc::new(Recorder::new().with_sink(sink.clone()));
        let barrier = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (rec, barrier) = (Arc::clone(&rec), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        rec.event(
                            "chunk.close",
                            &[
                                ("thread", t.into()),
                                ("i", i.into()),
                                ("x", (i as f64 / 7.0).into()),
                            ],
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        rec.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut next_i = [0u64; THREADS as usize];
        for (line_no, line) in text.lines().enumerate() {
            let r: LedgerRecord = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("line {line_no} does not parse ({e}): {line}"));
            assert_eq!(r.seq, line_no as u64, "file out of seq order at line {line_no}");
            if r.seq > 0 {
                // Each thread's own events keep their emission order.
                let t = r.u64_field("thread").unwrap() as usize;
                assert_eq!(r.u64_field("i"), Some(next_i[t]));
                next_i[t] += 1;
            }
        }
        assert_eq!(text.lines().count() as u64, THREADS * PER_THREAD + 1);
        assert_eq!(next_i, [PER_THREAD; THREADS as usize]);
        assert_eq!(sink.next_seq(), THREADS * PER_THREAD + 1);
    }

    /// Characters the escaper treats specially, mixed with plain ASCII and
    /// multi-byte text.
    fn arbitrary_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(any::<u32>(), 0..12).prop_map(|codes| {
            codes
                .into_iter()
                .map(|c| match c % 6 {
                    0 => ['"', '\\', '\n', '\r', '\t', '/'][(c / 6 % 6) as usize],
                    1 => char::from_u32(c / 6 % 0x20).unwrap(),
                    2 => char::from_u32(0x20 + c / 6 % 0x60).unwrap(),
                    3 => char::from_u32(0x80 + c / 6 % 0x780).unwrap(),
                    4 => char::from_u32(0x1_0000 + c / 6 % 0x1_0000).unwrap(),
                    _ => char::from_u32(c / 6 % 0x11_0000).unwrap_or('\u{fffd}'),
                })
                .collect()
        })
    }

    fn arbitrary_field() -> impl Strategy<Value = FieldValue> {
        (any::<u64>(), arbitrary_string()).prop_map(|(bits, s)| match bits % 5 {
            0 => FieldValue::U64(bits.rotate_left(7)),
            1 => FieldValue::I64(bits.rotate_left(13) as i64),
            // Every bit pattern: NaNs, infinities, subnormals, -0.0.
            2 => FieldValue::F64(f64::from_bits(bits.rotate_left(29))),
            3 => FieldValue::Bool(bits & 8 != 0),
            _ => FieldValue::Str(s),
        })
    }

    proptest! {
        // The direct formatter is an exact stand-in for serde_json: the
        // line the sink journals for an event is the one serde_json prints
        // for the equivalent record.
        #[test]
        fn formatted_line_equals_serde_json(
            ts_us in any::<u64>(),
            name in arbitrary_string(),
            fields in proptest::collection::vec((arbitrary_string(), arbitrary_field()), 0..6),
        ) {
            let sink = LedgerSink::in_memory();
            let event = Event { ts_us, name, fields };
            sink.record(&event);
            let record = LedgerRecord { seq: 1, ts_us, name: event.name, fields: event.fields };
            prop_assert_eq!(sink.jsonl_after(0), serde_json::to_string(&record).unwrap() + "\n");
        }
    }

    #[test]
    fn snapshot_jsonl_round_trips_in_memory() {
        let sink = Arc::new(LedgerSink::in_memory());
        let rec = Recorder::new().with_sink(sink.clone());
        rec.event("x", &[]);
        let text = sink.snapshot_jsonl();
        let records = parse_ledger(&text).unwrap();
        assert_eq!(records.len(), 2); // header + event
        assert_eq!(records[0].name, "ledger.open");
        assert_eq!(records[1].name, "x");
    }

    #[test]
    fn rollup_prefers_run_close_elapsed_and_tracks_kernels() {
        let records = vec![
            LedgerRecord {
                seq: 0,
                ts_us: 900,
                name: "lloyd.kernel".into(),
                fields: vec![
                    ("kind".into(), FieldValue::Str("fused".into())),
                    ("points".into(), FieldValue::U64(1000)),
                ],
            },
            LedgerRecord {
                seq: 1,
                ts_us: 950,
                name: "lloyd.kernel".into(),
                fields: vec![
                    ("kind".into(), FieldValue::Str("fused".into())),
                    ("points".into(), FieldValue::U64(500)),
                    ("pruned".into(), FieldValue::U64(300)),
                ],
            },
            LedgerRecord {
                seq: 2,
                ts_us: 1000,
                name: "run.close".into(),
                fields: vec![("elapsed_us".into(), FieldValue::U64(1234))],
            },
        ];
        let up = rollup(&records);
        assert_eq!(up.elapsed_us, 1234);
        assert_eq!(up.kernels.len(), 1);
        assert_eq!(up.kernels[0].runs, 2);
        assert_eq!(up.kernels[0].points, 1500);
        // Only bounded runs carry `pruned`; the other reads as 0.
        assert_eq!(up.kernels[0].pruned, 300);
    }

    fn phases(rows: &[(&str, u64)]) -> Vec<PhaseReport> {
        rows.iter()
            .map(|&(path, self_us)| PhaseReport {
                path: path.into(),
                calls: 1,
                total_us: self_us,
                self_us,
                wall_us: self_us,
            })
            .collect()
    }

    #[test]
    fn diff_attributes_assign_phase_between_scalar_and_fused_runs() {
        // A scalar run spends far longer in partial/assign than a fused
        // run; everything else is comparable. The diff must attribute the
        // delta to the assignment phase with nonzero confidence.
        let scalar = RunProfile {
            label: "scalar".into(),
            elapsed_us: 10_000,
            phases: phases(&[("partial", 500), ("partial/assign", 8000), ("merge", 500)]),
            ..RunProfile::default()
        };
        let fused = RunProfile {
            label: "fused".into(),
            elapsed_us: 5_000,
            phases: phases(&[("partial", 520), ("partial/assign", 3100), ("merge", 480)]),
            ..RunProfile::default()
        };
        let diff = diff_profiles(&scalar, &fused, 0.10);
        assert!(!diff.regression, "B is faster, not a regression");
        let top = diff.attributed_phase().expect("attribution");
        assert_eq!(top.path, "partial/assign");
        assert!(top.delta_us < 0);
        assert!(diff.confidence > 0.9, "confidence = {}", diff.confidence);
        // The reverse direction is a regression, attributed identically.
        let rev = diff_profiles(&fused, &scalar, 0.10);
        assert!(rev.regression);
        assert_eq!(rev.attributed_phase().unwrap().path, "partial/assign");
        assert!(rev.render().contains("REGRESSION"));
        assert!(rev.render().contains("partial/assign"));
    }

    #[test]
    fn diff_reports_fault_and_kernel_changes() {
        let mut a = RunProfile { label: "a".into(), elapsed_us: 100, ..RunProfile::default() };
        a.kernels = vec![KernelRollup { kind: "fused".into(), runs: 4, points: 100, pruned: 0 }];
        let mut b = RunProfile { label: "b".into(), elapsed_us: 104, ..RunProfile::default() };
        b.faults.worker_panics = 2;
        b.kernels = vec![KernelRollup { kind: "scalar".into(), runs: 4, points: 100, pruned: 0 }];
        let diff = diff_profiles(&a, &b, 0.10);
        assert!(!diff.regression);
        assert_eq!(diff.fault_deltas.len(), 1);
        assert_eq!(diff.fault_deltas[0].kind, "worker_panics");
        assert_eq!(diff.fault_deltas[0].b, 2);
        assert_eq!(diff.kernel_changes.len(), 2);
        let rendered = diff.render();
        assert!(rendered.contains("worker_panics"));
        assert!(rendered.contains("fused"));
    }

    #[test]
    fn profile_from_run_report_carries_mass_and_faults() {
        let mut report = RunReport::new();
        report.elapsed = std::time::Duration::from_micros(777);
        report.faults.scan_retries = 3;
        let profile = RunProfile::from_run_report("r", &report);
        assert_eq!(profile.elapsed_us, 777);
        assert_eq!(profile.faults.scan_retries, 3);
        assert_eq!(mass_ratio(profile.expected_weight, profile.lost_weight), 1.0);
    }

    #[test]
    fn rollup_serializes() {
        let up = rollup(&[LedgerRecord {
            seq: 0,
            ts_us: 0,
            name: "ledger.open".into(),
            fields: vec![("version".into(), FieldValue::U64(1))],
        }]);
        let json = serde_json::to_string(&up).unwrap();
        let back: LedgerRollup = serde_json::from_str(&json).unwrap();
        assert_eq!(back, up);
    }

    #[test]
    fn rollup_reproduces_coreset_tree_state() {
        fn rec(seq: u64, name: &str, fields: Vec<(String, FieldValue)>) -> LedgerRecord {
            LedgerRecord { seq, ts_us: seq, name: name.into(), fields }
        }
        // Four chunk builds of weight 100 each, then the binary counter
        // compacts pairwise: two level-1 buckets, then one level-2 bucket.
        let mut records = Vec::new();
        for i in 0..4u64 {
            records.push(rec(
                i,
                "coreset.build",
                vec![
                    ("cell".into(), FieldValue::U64(0)),
                    ("chunk".into(), FieldValue::U64(i)),
                    ("weight".into(), FieldValue::F64(100.0)),
                ],
            ));
        }
        for (seq, level, consumed) in [(4u64, 1u64, 200.0), (5, 1, 200.0), (6, 2, 400.0)] {
            records.push(rec(
                seq,
                "coreset.compact",
                vec![
                    ("cell".into(), FieldValue::U64(0)),
                    ("level".into(), FieldValue::U64(level)),
                    ("weight".into(), FieldValue::F64(consumed)),
                    ("consumed_weight".into(), FieldValue::F64(consumed)),
                ],
            ));
        }
        records.push(rec(
            7,
            "coreset.evict",
            vec![
                ("cell".into(), FieldValue::U64(0)),
                ("level".into(), FieldValue::U64(2)),
                ("weight".into(), FieldValue::F64(400.0)),
                ("points".into(), FieldValue::F64(400.0)),
            ],
        ));
        records.push(rec(8, "coreset.query", vec![("cell".into(), FieldValue::U64(0))]));
        let up = rollup(&records);
        assert_eq!(up.coreset.builds, 4);
        assert_eq!(up.coreset.compactions, 3);
        assert_eq!(up.coreset.evictions, 1);
        assert_eq!(up.coreset.queries, 1);
        assert_eq!(up.coreset.expired_points, 400.0);
        // All mass was compacted up to level 2 and then evicted: every
        // level nets out to zero buckets and zero weight.
        assert_eq!(up.coreset.live_buckets(), 0);
        assert_eq!(up.coreset.live_weight(), 0.0);
        for lvl in &up.coreset.levels {
            assert_eq!(lvl.buckets, 0, "level {} buckets", lvl.level);
            assert_eq!(lvl.weight, 0.0, "level {} weight", lvl.level);
        }
        // Round-trips, and old journals without coreset records parse to
        // an empty block.
        let json = serde_json::to_string(&up).unwrap();
        let back: LedgerRollup = serde_json::from_str(&json).unwrap();
        assert_eq!(back, up);
        let empty = rollup(&[]);
        assert!(empty.coreset.is_empty());
    }

    #[test]
    fn slowest_chunks_sorts_and_truncates() {
        let mut up = LedgerRollup::default();
        for (i, us) in [(0u64, 10u64), (1, 50), (2, 30)] {
            up.chunks.push(ChunkRollup {
                cell: "0".into(),
                chunk: i,
                points: 1,
                duration_us: us,
                attempts: 1,
            });
        }
        let top = up.slowest_chunks(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].duration_us, 50);
        assert_eq!(top[1].duration_us, 30);
    }
}
