//! The `pmkm` subcommands. Each command is one row of [`COMMANDS`]: its
//! synopsis, help and flag table, and a function from checked [`Args`] to
//! an exit outcome that writes human-readable output to the supplied writer
//! so tests can capture it. Parsing, defaults, help and dispatch all read
//! the rows.

use crate::args::{ArgError, Args, Flag};
use pmkm_compress::compress_cell;
use pmkm_core::{KMeansConfig, PartialMergeConfig, PointSource};
use pmkm_data::binner::bin_stripes;
use pmkm_data::{GridBucket, SwathConfig, SwathSimulator};
use pmkm_obs::{
    LedgerRecord, LedgerSink, MetricsServer, Profiler, Recorder, RunReport, StatusCell,
};
use pmkm_stream::prelude::*;
use pmkm_stream::CellClustering;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

/// Any command failure.
#[derive(Debug)]
pub enum CliError {
    /// A flag the command's table rejects.
    Args(ArgError),
    /// Any other misuse: wrong operands, exclusive flags together.
    Usage(String),
    /// Underlying library failure.
    Run(String),
    /// No such subcommand.
    UnknownCommand(String),
    /// A compared run regressed past the threshold.
    Regression(String),
}

impl CliError {
    /// The process exit status: 2 for misuse, 3 for a detected regression,
    /// 1 for any other failure.
    pub fn exit_code(&self) -> i32 {
        match self {
            Self::Run(_) => 1,
            Self::Regression(_) => 3,
            Self::Args(_) | Self::Usage(_) | Self::UnknownCommand(_) => 2,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Args(e) => write!(f, "{e}"),
            Self::Usage(msg) | Self::Run(msg) | Self::Regression(msg) => write!(f, "{msg}"),
            Self::UnknownCommand(c) => {
                let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
                write!(f, "unknown command '{c}'; try: {}", names.join(", "))
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        run_err(e)
    }
}

fn run_err<E: std::fmt::Display>(e: E) -> CliError {
    CliError::Run(e.to_string())
}

/// One subcommand.
pub struct Command {
    /// The name typed after `pmkm`.
    pub name: &'static str,
    /// Operand synopsis, e.g. `<bucket files…>`.
    pub operands: &'static str,
    /// Fewest and most operands accepted.
    pub arity: (usize, usize),
    /// One paragraph, wrapped; its first line is the overview's summary.
    pub about: &'static str,
    /// Flag groups, shared groups first.
    pub flags: &'static [&'static [Flag]],
    /// Runs the command on checked arguments.
    pub run: fn(&Args, &mut dyn Write) -> Result<(), CliError>,
}

const MANY: usize = usize::MAX;
const SYNOPSIS: &str = "USAGE: pmkm <command> [options] [operands…]";
const EXIT_STATUS: &str =
    "EXIT STATUS: 0 success, 1 run failure, 2 usage error, 3 performance regression detected\n";

const SEED: &[Flag] = &[Flag::value("seed", "N", "0", "random seed")];

const KMEANS: &[Flag] = &[
    Flag::value("k", "N", "40", "clusters per cell"),
    Flag::value("restarts", "R", "10", "k-means restarts per chunk; the best run is kept"),
];

/// The physical-plan knobs, read by [`physical_plan`] and [`parse_chaos`].
#[rustfmt::skip]
const PLAN: &[Flag] = &[
    Flag::value("splits", "P", "0", "chunks per bucket, sized by the largest bucket; excludes --memory"),
    Flag::computed("memory", "BYTES", "chunk memory budget, from the detected resources"),
    Flag::value("backend", "KIND", "local-file", "GB02 storage backend: local-file, mmap, sim-object-store"),
    Flag::switch("tolerant", "retry scans, quarantine poison chunks and merge degraded, not fail fast"),
    Flag::value("chaos", "LEVEL:SEED", "", "inject a seeded fault schedule, light:SEED or heavy:SEED"),
    Flag::value("coreset", "SIZE", "0", "merge through a tree of SIZE-point coresets (0: buffer all)"),
    Flag::value("coreset-window", "CHUNKS", "0", "keep only the last CHUNKS chunks; needs --coreset"),
    Flag::value("coreset-decay", "L", "0", "scale live weights by L in (0,1] per chunk; needs --coreset"),
];

/// The observers a clustering run can write or serve.
#[rustfmt::skip]
const OBSERVE: &[Flag] = &[
    Flag::value("metrics-out", "REPORT.json", "", "write a structured RunReport (JSON)"),
    Flag::value("ledger", "LEDGER.jsonl", "", "journal the run as an append-only JSONL event ledger"),
    Flag::value("serve", "ADDR", "", "serve live telemetry over HTTP for the duration of the run"),
];

/// Every subcommand, in overview order: the only list of them.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command { name: "generate", operands: "", arity: (0, 0), run: generate,
        about: "Simulate a satellite swath and write its stripe files into --out.",
        flags: &[SEED, &[
            Flag::value("out", "DIR", "stripes", "output directory"),
            Flag::value("orbits", "N", "4", "orbits to simulate"),
            Flag::value("dim", "N", "6", "attributes per observation"),
            Flag::value("lat", "DEG", "20", "latitude band, ±DEG"),
            Flag::value("step", "DEG", "0.05", "along-track step"),
            Flag::value("samples", "N", "16", "cross-track samples per step"),
        ]] },
    Command { name: "bin", operands: "<stripe files…>", arity: (1, MANY), run: bin,
        about: "Sort stripe observations into per-cell grid-bucket files under --out.",
        flags: &[&[Flag::value("out", "DIR", "buckets", "output directory")]] },
    Command { name: "inspect", operands: "<bucket files… | ledger.jsonl… | report.json…>",
        arity: (1, MANY), run: inspect,
        about: "Summarize buckets, run ledgers or run reports.\n\
                A bucket gets its header and per-dimension statistics; a run ledger its\n\
                per-phase table, per-cell mass audit, slowest chunks, kernel dispatches,\n\
                fault timeline and per-worker Gantt; a RunReport its headline numbers and\n\
                per-worker utilization.",
        flags: &[&[Flag::value("timeline", "TRACE.json", "", "export the run as a Chrome trace (Perfetto)")]] },
    Command { name: "cluster", operands: "<bucket files…>", arity: (1, MANY), run: cluster,
        about: "Cluster each bucket with partial/merge k-means on the stream engine.\n\
                Prints a line per cell and the operator telemetry. --backend applies to\n\
                GB02 containers; GB01 buckets always use the buffered reader. With\n\
                --coreset, live memory stays bounded by levels x SIZE regardless of\n\
                stream length.",
        flags: &[KMEANS, SEED, PLAN, OBSERVE, &[
            Flag::computed("workers", "N", "partial clones per cell, one per core (0: detect)"),
            Flag::value("kernel", "KIND", "auto", "assignment kernel: auto, scalar, fused"),
            Flag::value("folded", "STACKS.txt", "", "write the profiler's folded stacks (flamegraph)"),
        ]] },
    Command { name: "orchestrate", operands: "<bucket files…>", arity: (1, MANY), run: orchestrate_cmd,
        about: "Run many cells through the pipeline concurrently.\n\
                Each cell is an independent pipeline on one of --jobs work-stealing workers.\n\
                A resumed run is bit-identical to an uninterrupted one, and a clean run\n\
                deletes stale checkpoints. The backend is part of the checkpoint\n\
                fingerprint. --serve adds the /status dashboard, which under --coreset\n\
                carries the anytime clustering.",
        flags: &[KMEANS, SEED, PLAN, OBSERVE, &[
            Flag::value("jobs", "N", "4", "cells run at a time, on work-stealing workers"),
            Flag::value("cells", "N", "0", "run only the first N buckets (0: all)"),
            Flag::value("workers", "N", "1", "partial clones inside each cell"),
            Flag::value("budget", "BYTES", "0", "bound the in-flight chunk memory across cells (0: off)"),
            Flag::value("checkpoint-dir", "DIR", "", "write each finished cell to a checksummed checkpoint"),
            Flag::switch("resume", "load valid checkpoints instead of re-scanning; needs --checkpoint-dir"),
            Flag::value("kill-after", "K", "0", "drill: exit after the K-th checkpoint; needs --checkpoint-dir"),
            Flag::value("watchdog", "SECS", "0", "journal stalls and stragglers past SECS (0: off)"),
        ]] },
    Command { name: "convert", operands: "<bucket files…>", arity: (1, MANY), run: convert,
        about: "Re-encode buckets as PMKMGB02 block containers.\n\
                Each block is compressed on its own and indexed for ranged reads. Writes\n\
                NAME.gb2 next to each input, or into --out, one block at a time through\n\
                NAME.gb2.tmp, so converting a .gb2 in place is safe.",
        flags: &[&[
            Flag::value("codec", "NAME", "shuffle-rle", "block codec: raw, shuffle-rle"),
            Flag::value("block-points", "N", "4096", "points per block"),
            Flag::value("out", "DIR", "", "write into DIR instead of next to each input"),
        ]] },
    Command { name: "diff", operands: "<A> <B>", arity: (2, 2), run: diff_runs,
        about: "Compare two runs, each a run ledger or a RunReport JSON.\n\
                Prints the elapsed ratio and attributes the delta to phases, kernels,\n\
                faults and mass drift; exits 3 when B is more than --threshold slower.",
        flags: &[&[Flag::value("threshold", "FRAC", "0.10", "slowdown that counts as a regression")]] },
    Command { name: "compress", operands: "<bucket files…>", arity: (1, MANY), run: compress,
        about: "Compress each bucket into a multivariate histogram (JSON) under --out.",
        flags: &[KMEANS, SEED, &[
            Flag::value("splits", "P", "5", "chunks per bucket"),
            Flag::value("out", "DIR", "histograms", "output directory"),
        ]] },
    Command { name: "query", operands: "<histogram.json>", arity: (1, 1), run: query,
        about: "Estimate a range count and mean from a compressed histogram.",
        flags: &[&[
            Flag::repeated("range", "DIM:LO:HI", "restrict dimension DIM to [LO, HI]"),
            Flag::value("exact", "BUCKET.gb", "", "compare with the exact answer from this bucket"),
        ]] },
    Command { name: "help", operands: "[command]", arity: (0, 1), run: print_help, flags: &[],
        about: "Print this overview, or one command's options and exit status." },
];

impl Command {
    /// `USAGE: pmkm NAME [options] OPERANDS`.
    pub fn synopsis(&self) -> String {
        let options = if self.flags.is_empty() { "" } else { " [options]" };
        format!("USAGE: pmkm {}{options} {}", self.name, self.operands).trim_end().to_string()
    }

    /// Every flag row, shared groups first.
    pub fn rows(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    /// The synopsis, the about paragraph, one line per flag, the exit status.
    pub fn help(&self) -> String {
        let mut text = format!("{}\n\n", self.synopsis());
        for line in self.about.lines() {
            text += &format!("  {line}\n");
        }
        text += "\nOPTIONS\n";
        let width = self.rows().map(|row| row.form().chars().count()).max().unwrap_or(0);
        for row in self.rows() {
            let default = match row.default {
                None => " [default: computed]".to_string(),
                Some("") => String::new(),
                Some(value) => format!(" [default: {value}]"),
            };
            text += &format!("  {:<width$}  {}{default}\n", row.form(), row.help);
        }
        format!("{text}  {:<width$}  print this help\n\n{EXIT_STATUS}", "--help")
    }
}

/// The top-level help: each command's summary line, and the exit status.
pub fn overview() -> String {
    let mut text = format!(
        "pmkm — partial/merge k-means over data streams (ICDE 2004 reproduction)\n\n\
         {SYNOPSIS}\n\nCOMMANDS\n"
    );
    let width = COMMANDS.iter().map(|c| c.name.len()).max().unwrap_or(0);
    for c in COMMANDS {
        text += &format!("  {:<width$}  {}\n", c.name, c.about.lines().next().unwrap_or_default());
    }
    format!("{text}\nRun 'pmkm <command> --help' for a command's options.\n\n{EXIT_STATUS}")
}

/// The synopsis shown under a usage error; the top-level one if no such command.
pub fn usage_hint(command: &str) -> String {
    match find(command) {
        Ok(c) => format!("{}\nRun 'pmkm {} --help' for its options.", c.synopsis(), c.name),
        Err(_) => format!("{SYNOPSIS}\nRun 'pmkm --help' for the commands."),
    }
}

/// The command named `name`.
pub fn find(name: &str) -> Result<&'static Command, CliError> {
    COMMANDS.iter().find(|c| c.name == name).ok_or_else(|| CliError::UnknownCommand(name.into()))
}

/// Dispatches a subcommand: `--help` prints its help; otherwise its flags
/// and operand count are checked against its row before it runs.
pub fn dispatch<W: Write>(command: &str, args: &Args, out: &mut W) -> Result<(), CliError> {
    let cmd = find(command)?;
    if args.flag("help") {
        return Ok(out.write_all(cmd.help().as_bytes())?);
    }
    let args = args.clone().check(cmd.flags)?;
    let n = args.positionals().len();
    if n < cmd.arity.0 || n > cmd.arity.1 {
        let want = if cmd.operands.is_empty() { "no operands" } else { cmd.operands };
        return Err(CliError::Usage(format!("expected {want}, got {n} operand(s)")));
    }
    (cmd.run)(&args, out)
}

fn print_help(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let text = match args.positionals().first() {
        Some(name) => find(name)?.help(),
        None => overview(),
    };
    Ok(out.write_all(text.as_bytes())?)
}

fn generate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let dir: PathBuf = PathBuf::from(args.get_str("out"));
    let lat: f64 = args.get("lat")?;
    let cfg = SwathConfig {
        orbits: args.get("orbits")?,
        attrs_dim: args.get("dim")?,
        seed: args.get("seed")?,
        lat_range: (-lat.abs(), lat.abs()),
        along_track_step_deg: args.get("step")?,
        cross_track_samples: args.get("samples")?,
        ..SwathConfig::default()
    };
    let mut sim = SwathSimulator::new(cfg).map_err(run_err)?;
    let stripes = sim.write_stripes(&dir).map_err(run_err)?;
    writeln!(out, "wrote {} stripe files to {}", stripes.len(), dir.display())?;
    Ok(())
}

fn bin(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = PathBuf::from(args.get_str("out"));
    let stripes: Vec<PathBuf> = args.positionals().iter().map(PathBuf::from).collect();
    let summary = bin_stripes(&stripes, &dir).map_err(run_err)?;
    writeln!(
        out,
        "binned {} observations into {} buckets under {}",
        summary.observations,
        summary.buckets.len(),
        dir.display()
    )?;
    Ok(())
}

/// True when the file's first byte is `{` — a JSONL run ledger rather than
/// a binary grid bucket (whose magic never starts with `{`).
fn looks_like_ledger(path: &str) -> bool {
    std::fs::read(path)
        .is_ok_and(|bytes| bytes.iter().find(|b| !b.is_ascii_whitespace()).copied() == Some(b'{'))
}

/// Prints the per-cell / per-phase rollup of one run ledger.
fn inspect_ledger(
    path: &str,
    records: &[LedgerRecord],
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let roll = pmkm_obs::rollup(records);
    writeln!(
        out,
        "{path}: ledger v{}, {} events, elapsed {} µs, mass ratio {:.6}",
        roll.version,
        roll.events,
        roll.elapsed_us,
        roll.mass_ratio()
    )?;
    if !roll.phases.is_empty() {
        writeln!(out, "  [phases] path, calls, total µs, self µs, wall µs")?;
        for p in &roll.phases {
            writeln!(
                out,
                "    {:<24} {:>6} {:>10} {:>10} {:>10}",
                p.path, p.calls, p.total_us, p.self_us, p.wall_us
            )?;
        }
    }
    for c in &roll.cells {
        let flag = if c.degraded { " DEGRADED" } else { "" };
        writeln!(
            out,
            "  [cell {}] {} chunks, expected {:.0}, lost {:.0} in {} chunk(s), \
             mse {:.3}, E_pm {:.1}{flag}",
            c.cell, c.chunks, c.expected_points, c.lost_points, c.lost_chunks, c.mse, c.epm
        )?;
    }
    for ch in roll.slowest_chunks(5) {
        writeln!(
            out,
            "  [slow chunk] cell {} chunk {}: {} points in {} µs ({} attempt(s))",
            ch.cell, ch.chunk, ch.points, ch.duration_us, ch.attempts
        )?;
    }
    for k in &roll.kernels {
        writeln!(out, "  [kernel] {}: {} dispatches, {} points", k.kind, k.runs, k.points)?;
    }
    for f in &roll.fault_timeline {
        writeln!(out, "  [fault +{} µs] {} {}", f.ts_us, f.kind, f.detail)?;
    }
    if roll.resumed_cells > 0 || roll.invalid_checkpoints > 0 {
        writeln!(
            out,
            "  [resume] {} cell(s) restored from checkpoint, {} invalid checkpoint(s) re-scanned",
            roll.resumed_cells, roll.invalid_checkpoints
        )?;
    }
    for ck in &roll.checkpoints {
        writeln!(
            out,
            "  [checkpoint +{} µs] cell {} seq {} ({} bytes)",
            ck.ts_us, ck.cell, ck.seq, ck.bytes
        )?;
    }
    if roll.worker_transitions > 0 {
        writeln!(
            out,
            "  [workers] {} state transition(s) journaled (--timeline exports a Chrome trace)",
            roll.worker_transitions
        )?;
    }
    if roll.watchdog_stalls > 0 || roll.watchdog_stragglers > 0 {
        writeln!(
            out,
            "  [watchdog] {} stall(s), {} straggler(s)",
            roll.watchdog_stalls, roll.watchdog_stragglers
        )?;
    }
    if !roll.scan.is_empty() {
        writeln!(
            out,
            "  [scan] {} block(s), {} stored / {} payload bytes ({:.2}x), \
             {} zero-copy, prefetch hit rate {:.0}%",
            roll.scan.blocks,
            roll.scan.stored_bytes,
            roll.scan.payload_bytes,
            roll.scan.compression_ratio(),
            roll.scan.zero_copy_blocks,
            roll.scan.prefetch_hit_rate() * 100.0
        )?;
    }
    if !roll.coreset.is_empty() {
        writeln!(
            out,
            "  [coreset] {} build(s), {} compaction(s), {} eviction(s), {} query(s); \
             net live {} bucket(s) / {:.0} point(s) across {} level(s), expired {:.0}",
            roll.coreset.builds,
            roll.coreset.compactions,
            roll.coreset.evictions,
            roll.coreset.queries,
            roll.coreset.live_buckets(),
            roll.coreset.live_weight(),
            roll.coreset.levels.len(),
            roll.coreset.expired_points
        )?;
    }
    Ok(())
}

/// Prints the headline numbers of a structured `RunReport` JSON, including
/// the v6 per-worker timeline rollup when present.
fn inspect_report(path: &str, report: &RunReport, out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(
        out,
        "{path}: run report v{}, {} cells, elapsed {:.0} ms",
        report.schema_version,
        report.cells.len(),
        report.elapsed.as_secs_f64() * 1e3
    )?;
    if let Some(tl) = &report.timeline {
        writeln!(
            out,
            "  [timeline] {} worker(s), busy wall {} µs (per-thread max), span {} µs",
            tl.workers.len(),
            tl.wall_us,
            tl.span_us
        )?;
        for w in &tl.workers {
            writeln!(
                out,
                "    {:<4} {:>3.0}% busy ({} transitions; scan {} µs, partial {} µs, \
                 merge {} µs, checkpoint {} µs, budget-wait {} µs)",
                w.worker,
                w.utilization * 100.0,
                w.transitions,
                w.scan_us,
                w.partial_us,
                w.merge_us,
                w.checkpoint_us,
                w.budget_wait_us
            )?;
        }
    }
    Ok(())
}

fn inspect(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let timeline_out = args.get_str("timeline");
    let mut trace_json: Option<String> = None;
    for path in args.positionals() {
        if looks_like_ledger(path) {
            let text = std::fs::read_to_string(path)?;
            // A RunReport is one JSON document; a ledger is JSON lines.
            // Try the report first — a ledger always fails that parse.
            if let Ok(report) = serde_json::from_str::<RunReport>(&text) {
                inspect_report(path, &report, out)?;
                trace_json = Some(pmkm_obs::chrome_trace_from_report(&report));
            } else {
                let records = pmkm_obs::parse_ledger(&text).map_err(run_err)?;
                inspect_ledger(path, &records, out)?;
                if let Some(gantt) = pmkm_obs::ascii_gantt(&records, 72) {
                    for line in gantt.lines() {
                        writeln!(out, "  {line}")?;
                    }
                }
                trace_json = Some(pmkm_obs::chrome_trace(&records));
            }
            continue;
        }
        let p = PathBuf::from(path);
        let info = pmkm_data::probe(&p).map_err(run_err)?;
        let bucket = match info.format {
            pmkm_data::BucketFormat::Gb01 => GridBucket::read_from(&p).map_err(run_err)?,
            pmkm_data::BucketFormat::Gb02 => {
                let reader =
                    pmkm_data::Gb02Reader::open_path(&p, pmkm_data::BackendKind::LocalFile)
                        .map_err(run_err)?;
                writeln!(
                    out,
                    "{path}: gb02 container, {} block(s) of ≤{} points, codec {}",
                    reader.n_blocks(),
                    reader.block_points,
                    reader.default_codec
                )?;
                reader.read_all().map_err(run_err)?
            }
        };
        let (lat, lon) = bucket.cell.center();
        writeln!(
            out,
            "{path}: cell {} (center {lat:.1}°, {lon:.1}°), {} points × {} dims [{}]",
            bucket.cell.index(),
            bucket.points.len(),
            bucket.points.dim(),
            info.format.label()
        )?;
        if let Some(stats) = pmkm_data::stats::summarize(&bucket.points) {
            for (d, s) in stats.iter().enumerate() {
                writeln!(
                    out,
                    "  dim {d}: mean {:.2}, sd {:.2}, range [{:.2}, {:.2}]",
                    s.mean,
                    s.variance.sqrt(),
                    s.min,
                    s.max
                )?;
            }
        }
    }
    if !timeline_out.is_empty() {
        let json = trace_json.ok_or_else(|| {
            CliError::Run("--timeline needs a run ledger or RunReport JSON among the inputs".into())
        })?;
        std::fs::write(&timeline_out, json)?;
        writeln!(
            out,
            "wrote Chrome trace to {timeline_out} (open in chrome://tracing or ui.perfetto.dev)"
        )?;
    }
    Ok(())
}

/// Loads one side of a comparison as a comparable [`pmkm_obs::RunProfile`].
///
/// Accepts either a structured `RunReport` JSON (from `--metrics-out`) or a
/// JSONL run ledger (from `--ledger`); the two sides of a diff may mix the
/// formats freely. A whole-file `RunReport` parse is tried first — a JSONL
/// ledger always fails it (trailing lines) and falls through to the ledger
/// parser.
fn load_profile(path: &str) -> Result<pmkm_obs::RunProfile, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Run(format!("cannot read {path}: {e}")))?;
    if let Ok(report) = serde_json::from_str::<RunReport>(&text) {
        return Ok(pmkm_obs::RunProfile::from_run_report(path, &report));
    }
    let records = pmkm_obs::parse_ledger(&text)
        .map_err(|e| CliError::Run(format!("{path} is neither a RunReport nor a ledger: {e}")))?;
    Ok(pmkm_obs::RunProfile::from_rollup(path, &pmkm_obs::rollup(&records)))
}

fn diff_runs(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let threshold: f64 = args.get("threshold")?;
    let paths = args.positionals();
    let a = load_profile(&paths[0])?;
    let b = load_profile(&paths[1])?;
    let diff = pmkm_obs::diff_profiles(&a, &b, threshold);
    write!(out, "{}", diff.render())?;
    if diff.regression {
        let culprit = diff
            .attributed_phase()
            .map(|p| format!(" (attributed to phase '{}')", p.path))
            .unwrap_or_default();
        return Err(CliError::Regression(format!(
            "regression: {} is {:.2}x slower than {}{culprit}",
            diff.label_b, diff.slowdown, diff.label_a
        )));
    }
    Ok(())
}

fn cluster(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let paths: Vec<PathBuf> = args.positionals().iter().map(PathBuf::from).collect();
    let kernel_name = args.get_str("kernel");
    let kernel = pmkm_core::KernelKind::parse(&kernel_name).ok_or_else(|| {
        CliError::Run(format!("unknown kernel '{kernel_name}' (auto, scalar, fused)"))
    })?;
    let mut kcfg = KMeansConfig {
        restarts: args.get("restarts")?,
        ..KMeansConfig::paper(args.get("k")?, args.get("seed")?)
    };
    kcfg.lloyd.kernel = kernel;
    let logical = LogicalPlan::new(paths, kcfg);
    // `--workers=0` also means one clone per detected core.
    let detected = Resources::detect();
    let workers = match args.get_or("workers", detected.workers)? {
        0 => detected.workers,
        workers => workers,
    };
    let fault_plan = parse_chaos(args)?;
    let plan = physical_plan(args, logical, Resources { workers, ..detected })?;
    let metrics_out = args.get_str("metrics-out");
    let ledger_out = args.get_str("ledger");
    let serve_addr = args.get_str("serve");
    let folded_out = args.get_str("folded");
    let ledger = open_ledger(&ledger_out, &serve_addr)?;
    // `--serve` always opens a ledger, in memory when `--ledger` is absent.
    let recorder = if metrics_out.is_empty() && folded_out.is_empty() && ledger.is_none() {
        None
    } else {
        let mut rec = Recorder::new().with_profiler(Arc::new(Profiler::new()));
        if let Some(ledger) = &ledger {
            rec = rec.with_sink(ledger.clone());
        }
        Some(Arc::new(rec))
    };
    let server = serve(out, &serve_addr, &recorder, &ledger, None)?;
    let report =
        pmkm_stream::execute_with_faults(&plan, recorder.clone(), fault_plan).map_err(run_err)?;
    writeln!(
        out,
        "clustered {} cells in {:.0} ms",
        report.cells.len(),
        report.elapsed.as_secs_f64() * 1e3
    )?;
    for cell in &report.cells {
        write_cell_line(out, cell, "")?;
    }
    write_faults_line(out, &report.faults)?;
    for op in &report.op_stats {
        writeln!(
            out,
            "  [op] {} #{}: busy {:.1} ms, blocked {:.1} ms, util {:.0}%, {} in / {} out",
            op.name,
            op.clone_id,
            op.busy.as_secs_f64() * 1e3,
            op.blocked.as_secs_f64() * 1e3,
            op.utilization() * 100.0,
            op.items_in,
            op.items_out
        )?;
    }
    if let Some(rec) = &recorder {
        rec.flush();
    }
    if !metrics_out.is_empty() {
        write_run_report(out, &metrics_out, &report.run_report(recorder.as_deref()))?;
    }
    if !ledger_out.is_empty() {
        writeln!(out, "wrote ledger to {ledger_out}")?;
    }
    if !folded_out.is_empty() {
        let folded =
            recorder.as_ref().and_then(|r| r.profiler()).map(|p| p.folded()).unwrap_or_default();
        std::fs::write(&folded_out, folded)?;
        writeln!(out, "wrote folded stacks to {folded_out}")?;
    }
    if let Some(server) = server {
        // Publish the final report so a last scrape sees the complete run,
        // then release the socket.
        server.set_report(report.run_report(recorder.as_deref()));
        server.shutdown();
    }
    Ok(())
}

/// Compiles `logical` into the physical plan both engine fronts run:
/// chunk size from `--splits` (per the largest bucket) or `--memory`, which
/// exclude each other, then `--backend`, `--tolerant` and the `--coreset*`
/// knobs.
fn physical_plan(
    args: &Args,
    logical: LogicalPlan,
    resources: Resources,
) -> Result<pmkm_stream::PhysicalPlan, CliError> {
    if args.given("splits").is_some() && args.given("memory").is_some() {
        return Err(CliError::Usage("--splits and --memory exclude each other".into()));
    }
    let mut plan = match args.get::<usize>("splits")? {
        0 => {
            let memory = args.get_or("memory", resources.chunk_memory_bytes)?;
            optimize(logical, &Resources { chunk_memory_bytes: memory, ..resources })
        }
        splits => {
            // Resolve splits per the largest bucket so every bucket gets at
            // most `splits` chunks. probe() reads only the header, and
            // understands both bucket formats.
            let mut max_points = 1;
            for p in &logical.inputs {
                max_points = max_points.max(pmkm_data::probe(p).map_err(run_err)?.count);
            }
            optimize_fixed_split(logical, &resources, max_points.div_ceil(splits).max(1))
        }
    };
    plan.scan_backend = parse_backend(args)?;
    if args.flag("tolerant") {
        plan.fault_policy = pmkm_stream::FaultPolicy::tolerant();
    }
    plan.coreset = parse_coreset(args)?;
    Ok(plan)
}

/// Opens the run ledger: a file for `--ledger=PATH`; a ledger also backs
/// the /events long-poll, so `--serve` without `--ledger` still gets an
/// in-memory journal; a bare run gets none at all.
fn open_ledger(ledger_out: &str, serve_addr: &str) -> Result<Option<Arc<LedgerSink>>, CliError> {
    Ok(if !ledger_out.is_empty() {
        Some(Arc::new(LedgerSink::create(ledger_out).map_err(run_err)?))
    } else if !serve_addr.is_empty() {
        Some(Arc::new(LedgerSink::in_memory()))
    } else {
        None
    })
}

/// Starts the `--serve` exporter when an address is given, and announces
/// its routes (`/status` only with a status cell).
fn serve(
    out: &mut dyn Write,
    addr: &str,
    recorder: &Option<Arc<Recorder>>,
    ledger: &Option<Arc<LedgerSink>>,
    status: Option<Arc<StatusCell>>,
) -> Result<Option<MetricsServer>, CliError> {
    if addr.is_empty() {
        return Ok(None);
    }
    let rec = recorder.clone().expect("recorder is built whenever --serve is given");
    let status_route = if status.is_some() { "/status, " } else { "" };
    let server = MetricsServer::serve_full(addr, rec, ledger.clone(), status).map_err(run_err)?;
    writeln!(
        out,
        "serving telemetry at http://{} (/metrics, /report.json, /healthz, {status_route}/events, \
         /ledger.jsonl)",
        server.local_addr()
    )?;
    Ok(Some(server))
}

/// One clustered cell's row; `tag` trails it (`" [resumed]"` or nothing).
fn write_cell_line(out: &mut dyn Write, cell: &CellClustering, tag: &str) -> Result<(), CliError> {
    let weight: f64 = cell.output.cluster_weights.iter().sum();
    let degraded = if cell.degraded {
        format!(" [degraded: lost {} points in {} chunk(s)]", cell.lost_points, cell.lost_chunks)
    } else {
        String::new()
    };
    let tree = coreset_tag(cell.coreset.as_ref());
    writeln!(
        out,
        "  cell {}: {} chunks, {} centroids, E_pm {:.1}, {} points{tree}{degraded}{tag}",
        cell.cell.index(),
        cell.chunks.len(),
        cell.output.centroids.k(),
        cell.output.epm,
        weight as u64
    )?;
    Ok(())
}

/// The `[faults]` counter row, when any fault fired.
fn write_faults_line(out: &mut dyn Write, f: &pmkm_obs::FaultReport) -> Result<(), CliError> {
    if !f.any() {
        return Ok(());
    }
    writeln!(
        out,
        "  [faults] scan retries {}, scan failures {}, poisoned {}, quarantined {}, \
         worker panics {}, chunk retries {}, stalls {}, degraded cells {}",
        f.scan_retries,
        f.scan_failures,
        f.chunks_poisoned,
        f.chunks_quarantined,
        f.worker_panics,
        f.chunk_retries,
        f.queue_stalls,
        f.cells_degraded
    )?;
    Ok(())
}

/// Writes the `--metrics-out` run report.
fn write_run_report(out: &mut dyn Write, path: &str, report: &RunReport) -> Result<(), CliError> {
    let json = serde_json::to_string_pretty(report).map_err(run_err)?;
    std::fs::write(path, json)?;
    Ok(writeln!(out, "wrote run report to {path}")?)
}

/// Parses the coreset-engine knobs: `--coreset=SIZE` switches the plan's
/// tail from the buffer-everything merge to the bounded-memory
/// merge-reduce tree; `--coreset-window=CHUNKS` adds a sliding window and
/// `--coreset-decay=LAMBDA` an exponential weight decay. Returns `None`
/// when `--coreset` is absent (the classic merge path).
fn parse_coreset(args: &Args) -> Result<Option<pmkm_stream::CoresetSpec>, CliError> {
    let size = args.get::<usize>("coreset")?;
    let window = Some(args.get::<usize>("coreset-window")?).filter(|&w| w > 0);
    let decay = Some(args.get::<f64>("coreset-decay")?).filter(|&d| d != 0.0);
    match size {
        0 if window.is_some() || decay.is_some() => {
            Err(CliError::Run("--coreset-window/--coreset-decay need --coreset=SIZE".into()))
        }
        0 => Ok(None),
        size => Ok(Some(pmkm_stream::CoresetSpec {
            window,
            decay,
            ..pmkm_stream::CoresetSpec::new(size)
        })),
    }
}

/// One-line tree summary for the per-cell rows of a clustering run.
fn coreset_tag(stats: Option<&pmkm_core::CoresetStats>) -> String {
    match stats {
        Some(s) => format!(
            " [coreset: {} bucket(s), {} level(s), {} compaction(s)]",
            s.live_buckets, s.levels, s.compactions
        ),
        None => String::new(),
    }
}

/// Parses `--backend=KIND` into the plan's scan-backend knob.
fn parse_backend(args: &Args) -> Result<pmkm_data::BackendKind, CliError> {
    let name = args.get_str("backend");
    pmkm_data::BackendKind::parse(&name).ok_or_else(|| {
        CliError::Run(format!("unknown backend '{name}' (local-file, mmap, sim-object-store)"))
    })
}

/// Reads either bucket format fully into memory: a GB01 blob via the
/// legacy reader, a GB02 block container via the local-file backend.
fn read_bucket_any(path: &std::path::Path) -> Result<GridBucket, CliError> {
    match pmkm_data::probe(path).map_err(run_err)?.format {
        pmkm_data::BucketFormat::Gb01 => GridBucket::read_from(path).map_err(run_err),
        pmkm_data::BucketFormat::Gb02 => {
            pmkm_data::Gb02Reader::open_path(path, pmkm_data::BackendKind::LocalFile)
                .and_then(|r| r.read_all())
                .map_err(run_err)
        }
    }
}

fn convert(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let codec_name = args.get_str("codec");
    let codec = pmkm_data::Codec::parse(&codec_name)
        .ok_or_else(|| CliError::Run(format!("unknown codec '{codec_name}' (raw, shuffle-rle)")))?;
    let block_points = args.get("block-points")?;
    let out_dir = args.get_str("out");
    if !out_dir.is_empty() {
        std::fs::create_dir_all(&out_dir)?;
    }
    for path in args.positionals().iter().map(std::path::Path::new) {
        let dst = if out_dir.is_empty() {
            path.with_extension("gb2")
        } else {
            let name = path.file_stem().unwrap_or_default().to_string_lossy().into_owned();
            PathBuf::from(&out_dir).join(format!("{name}.gb2"))
        };
        let (info, stats) =
            pmkm_data::convert_bucket(path, &dst, codec, block_points).map_err(run_err)?;
        writeln!(
            out,
            "{}: {} points -> {} ({} block(s), {codec}, {:.2}x payload ratio, {} bytes)",
            path.display(),
            info.count,
            dst.display(),
            stats.blocks,
            stats.ratio(),
            stats.file_bytes
        )?;
    }
    Ok(())
}

/// Parses `--chaos=LEVEL:SEED` into a fault plan (absent → `None`).
fn parse_chaos(args: &Args) -> Result<Option<pmkm_stream::FaultPlan>, CliError> {
    let chaos = args.get_str("chaos");
    if chaos.is_empty() {
        return Ok(None);
    }
    let (level, seed) = chaos.split_once(':').ok_or_else(|| {
        CliError::Run(format!("--chaos takes LEVEL:SEED (e.g. light:11), got '{chaos}'"))
    })?;
    let seed: u64 = seed.parse().map_err(|_| CliError::Run(format!("bad chaos seed '{seed}'")))?;
    Ok(Some(match level {
        "light" => pmkm_stream::FaultPlan::light(seed),
        "heavy" => pmkm_stream::FaultPlan::heavy(seed),
        other => {
            return Err(CliError::Run(format!("unknown chaos level '{other}' (light, heavy)")))
        }
    }))
}

fn orchestrate_cmd(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut paths: Vec<PathBuf> = args.positionals().iter().map(PathBuf::from).collect();
    paths.truncate(match args.get("cells")? {
        0 => usize::MAX,
        cap => cap,
    });
    let kcfg = KMeansConfig {
        restarts: args.get("restarts")?,
        ..KMeansConfig::paper(args.get("k")?, args.get("seed")?)
    };
    let logical = LogicalPlan::new(paths, kcfg);
    // Inside each cell the pipeline stays narrow by default — the
    // orchestrator's cross-cell workers are the parallelism axis.
    let workers = args.get::<usize>("workers")?.max(1);
    let plan = physical_plan(args, logical, Resources { workers, ..Resources::detect() })?;
    let fault_plan = parse_chaos(args)?;

    let mut opts = pmkm_stream::OrchestratorOptions::new(args.get("jobs")?);
    let budget = args.get::<usize>("budget")?;
    if budget > 0 {
        opts = opts.with_budget(budget);
    }
    let ckpt_dir = args.get_str("checkpoint-dir");
    if !ckpt_dir.is_empty() {
        opts = opts.with_checkpoints(&ckpt_dir);
    }
    if args.flag("resume") {
        if ckpt_dir.is_empty() {
            return Err(CliError::Run("--resume needs --checkpoint-dir".into()));
        }
        opts = opts.resuming();
    }
    let kill_after = args.get::<usize>("kill-after")?;
    if kill_after > 0 {
        if ckpt_dir.is_empty() {
            return Err(CliError::Run("--kill-after needs --checkpoint-dir".into()));
        }
        opts = opts.kill_after(kill_after);
    }

    let metrics_out = args.get_str("metrics-out");
    let ledger_out = args.get_str("ledger");
    let serve_addr = args.get_str("serve");
    let watchdog_secs = args.get::<u64>("watchdog")?;
    let ledger = open_ledger(&ledger_out, &serve_addr)?;
    let watchdog_sink = (watchdog_secs > 0).then(|| Arc::new(pmkm_stream::WatchdogSink::new()));
    let status = (!serve_addr.is_empty()).then(|| Arc::new(StatusCell::new()));
    if let Some(status) = &status {
        opts = opts.with_status(status.clone());
    }
    let recorder = if metrics_out.is_empty() && ledger.is_none() && watchdog_sink.is_none() {
        None
    } else {
        // Any observed run gets a worker timeline: it feeds the /status
        // worker rows, the report's v6 rollup and the Chrome-trace export,
        // and costs nothing when nobody reads it.
        let mut rec = Recorder::new()
            .with_profiler(Arc::new(Profiler::new()))
            .with_timeline(Arc::new(pmkm_obs::Timeline::new()));
        if let Some(ledger) = &ledger {
            rec = rec.with_sink(ledger.clone());
        }
        if let Some(sink) = &watchdog_sink {
            rec = rec.with_sink(sink.clone());
        }
        Some(Arc::new(rec))
    };
    let server = serve(out, &serve_addr, &recorder, &ledger, status)?;
    let watchdog = watchdog_sink.as_ref().map(|sink| {
        pmkm_stream::Watchdog::start(
            recorder.clone().expect("recorder is built whenever --watchdog is given"),
            sink.clone(),
            pmkm_stream::WatchdogConfig::after(std::time::Duration::from_secs(watchdog_secs)),
        )
    });

    let planet =
        pmkm_stream::orchestrate(&plan, &opts, recorder.clone(), fault_plan).map_err(run_err)?;
    if let Some(watchdog) = watchdog {
        watchdog.stop();
    }
    let interrupted = if planet.interrupted { " INTERRUPTED" } else { "" };
    writeln!(
        out,
        "orchestrated {} cells on {} workers in {:.0} ms ({} resumed, {} executed, \
         {} checkpoint(s) written, {} invalid, {} steal(s)){interrupted}",
        planet.cells.len(),
        planet.jobs,
        planet.elapsed.as_secs_f64() * 1e3,
        planet.cells_resumed,
        planet.cells_executed,
        planet.checkpoints_written,
        planet.checkpoints_invalid,
        planet.steals
    )?;
    if planet.budget_peak > 0 {
        writeln!(out, "  [budget] peak in-flight {} bytes", planet.budget_peak)?;
    }
    for o in &planet.cells {
        let tag = if o.resumed { " [resumed]" } else { "" };
        match &o.clustering {
            Some(c) => write_cell_line(out, c, tag)?,
            None => {
                writeln!(out, "  cell #{}: no surviving chunks [degraded]{tag}", o.input)?;
            }
        }
    }
    write_faults_line(out, &planet.faults)?;
    if let Some(rec) = &recorder {
        rec.flush();
    }
    if let (Some(_), Some(_), Some(rec)) = (&ledger, &watchdog_sink, &recorder) {
        // The watchdog counts its verdicts as it journals them; read the
        // counts without creating counters a silent watchdog never made.
        let verdicts = |kind| {
            let name = pmkm_obs::labeled_name("watchdog_events_total", "kind", kind);
            rec.registry().counter_value(&name)
        };
        let (stalls, stragglers) = (verdicts("stall"), verdicts("straggler"));
        if stalls > 0 || stragglers > 0 {
            writeln!(
                out,
                "  [watchdog] {stalls} stall(s), {stragglers} straggler(s) — see the ledger for \
                 details"
            )?;
        }
    }
    if !metrics_out.is_empty() {
        write_run_report(out, &metrics_out, &planet.run_report(recorder.as_deref()))?;
    }
    if !ledger_out.is_empty() {
        writeln!(out, "wrote ledger to {ledger_out}")?;
    }
    if let Some(server) = server {
        // Publish the final report so a last scrape sees the complete run,
        // then release the socket.
        server.set_report(planet.run_report(recorder.as_deref()));
        server.shutdown();
    }
    Ok(())
}

fn compress(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let out_dir = PathBuf::from(args.get_str("out"));
    std::fs::create_dir_all(&out_dir)?;
    let mut cfg = PartialMergeConfig::paper(args.get("k")?, args.get("splits")?, args.get("seed")?);
    cfg.kmeans.restarts = args.get("restarts")?;
    for path in args.positionals().iter().map(std::path::Path::new) {
        let bucket = read_bucket_any(path)?;
        if bucket.points.is_empty() {
            writeln!(out, "{}: empty, skipped", path.display())?;
            continue;
        }
        let mut cell_cfg = cfg;
        cell_cfg.kmeans.k = cfg.kmeans.k.min(bucket.points.len());
        let compressed = compress_cell(&bucket.points, &cell_cfg).map_err(run_err)?;
        let json_path = out_dir.join(format!("cell_{}.json", bucket.cell.index()));
        let json = serde_json::to_string_pretty(&compressed.histogram).map_err(run_err)?;
        std::fs::write(&json_path, json)?;
        writeln!(
            out,
            "{}: {} points -> {} buckets, ratio {:.1}x, rms {:.2} -> {}",
            path.display(),
            bucket.points.len(),
            compressed.histogram.k(),
            compressed.summary.ratio,
            compressed.summary.mse.sqrt(),
            json_path.display()
        )?;
    }
    Ok(())
}

fn parse_ranges(args: &Args, dim: usize) -> Result<pmkm_compress::RangeQuery, CliError> {
    let mut q = pmkm_compress::RangeQuery::all(dim);
    for value in args.get_all("range") {
        let parts: Vec<&str> = value.split(':').collect();
        if parts.len() != 3 {
            return Err(CliError::Run(format!("--range={value}: expected DIM:LO:HI")));
        }
        let d: usize =
            parts[0].parse().map_err(|_| CliError::Run(format!("bad dim '{}'", parts[0])))?;
        let lo: f64 =
            parts[1].parse().map_err(|_| CliError::Run(format!("bad lo '{}'", parts[1])))?;
        let hi: f64 =
            parts[2].parse().map_err(|_| CliError::Run(format!("bad hi '{}'", parts[2])))?;
        if d >= dim {
            return Err(CliError::Run(format!("dim {d} out of range for {dim}-d histogram")));
        }
        q = q.with(d, lo, hi);
    }
    Ok(q)
}

fn query(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let text = std::fs::read_to_string(&args.positionals()[0])?;
    let hist: pmkm_compress::MultivariateHistogram =
        serde_json::from_str(&text).map_err(run_err)?;
    let q = parse_ranges(args, hist.dim)?;
    let est = pmkm_compress::estimate_count(&hist, &q).map_err(run_err)?;
    writeln!(
        out,
        "estimated count: {:.1} of {} ({:.2}% selectivity)",
        est.count,
        hist.total_count as u64,
        est.selectivity * 100.0
    )?;
    if let Some(mean) = pmkm_compress::estimate_mean(&hist, &q).map_err(run_err)? {
        let pretty: Vec<String> = mean.iter().map(|m| format!("{m:.2}")).collect();
        writeln!(out, "estimated mean: [{}]", pretty.join(", "))?;
    }
    let exact_path = args.get_str("exact");
    if !exact_path.is_empty() {
        let bucket = read_bucket_any(&PathBuf::from(&exact_path))?;
        let exact = pmkm_compress::exact_answer(&bucket.points, &q).map_err(run_err)?;
        writeln!(
            out,
            "exact count:     {} (estimate error {:.2}% of cell)",
            exact.count,
            (est.count - exact.count as f64).abs() / bucket.points.len().max(1) as f64 * 100.0
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cmd: &str, argv: &[String]) -> Result<String, CliError> {
        let args = Args::parse(argv.to_vec());
        let mut buf = Vec::new();
        dispatch(cmd, &args, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pmkm_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn full_cli_workflow() {
        let dir = tmp("flow");
        let stripes_dir = dir.join("stripes");
        // generate
        let out = run(
            "generate",
            &[
                format!("--out={}", stripes_dir.display()),
                "--orbits=2".into(),
                "--dim=3".into(),
                "--lat=3".into(),
                "--step=0.2".into(),
                "--samples=6".into(),
            ],
        )
        .unwrap();
        assert!(out.contains("2 stripe files"), "{out}");

        // bin
        let buckets_dir = dir.join("buckets");
        let mut argv: Vec<String> = vec![format!("--out={}", buckets_dir.display())];
        for e in std::fs::read_dir(&stripes_dir).unwrap() {
            argv.push(e.unwrap().path().display().to_string());
        }
        let out = run("bin", &argv).unwrap();
        assert!(out.contains("buckets under"), "{out}");

        // pick the biggest bucket
        let mut buckets: Vec<PathBuf> =
            std::fs::read_dir(&buckets_dir).unwrap().map(|e| e.unwrap().path()).collect();
        buckets.sort_by_key(|p| std::cmp::Reverse(std::fs::metadata(p).unwrap().len()));
        let biggest = buckets[0].display().to_string();

        // inspect
        let out = run("inspect", std::slice::from_ref(&biggest)).unwrap();
        assert!(out.contains("points ×"), "{out}");
        assert!(out.contains("dim 0"), "{out}");

        // cluster
        let out = run(
            "cluster",
            &["--k=4".into(), "--restarts=2".into(), "--splits=3".into(), biggest.clone()],
        )
        .unwrap();
        assert!(out.contains("clustered 1 cells"), "{out}");
        assert!(out.contains("E_pm"), "{out}");

        // cluster with an explicit assignment kernel
        let out = run(
            "cluster",
            &[
                "--k=4".into(),
                "--restarts=2".into(),
                "--splits=3".into(),
                "--kernel=fused".into(),
                biggest.clone(),
            ],
        )
        .unwrap();
        assert!(out.contains("clustered 1 cells"), "{out}");
        let err =
            run("cluster", &["--k=4".into(), "--kernel=warp".into(), biggest.clone()]).unwrap_err();
        assert!(err.to_string().contains("unknown kernel 'warp'"), "{err}");

        // compress
        let hist_dir = dir.join("hist");
        let out = run(
            "compress",
            &[
                "--k=4".into(),
                "--restarts=2".into(),
                "--splits=3".into(),
                format!("--out={}", hist_dir.display()),
                biggest.clone(),
            ],
        )
        .unwrap();
        assert!(out.contains("ratio"), "{out}");
        assert!(std::fs::read_dir(&hist_dir).unwrap().count() == 1);

        // query the compressed form, with exact comparison
        let hist_json = std::fs::read_dir(&hist_dir).unwrap().next().unwrap().unwrap().path();
        let out = run(
            "query",
            &[
                "--range=0:-10000:10000".into(),
                format!("--exact={biggest}"),
                hist_json.display().to_string(),
            ],
        )
        .unwrap();
        assert!(out.contains("estimated count"), "{out}");
        assert!(out.contains("exact count"), "{out}");
        // Unbounded range: estimate equals the full cell.
        assert!(out.contains("100.00% selectivity"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_metrics_out_round_trips_losslessly() {
        let dir = tmp("metrics");
        // Build a small bucket directly.
        let mut points = pmkm_core::Dataset::new(2).unwrap();
        let mut x = 0.32_f64;
        for i in 0..180 {
            // Deterministic pseudo-random points around two separated blobs.
            x = (x * 997.13 + 0.7).fract();
            let blob = if i % 2 == 0 { 0.0 } else { 30.0 };
            points.push(&[blob + x, blob + (1.0 - x)]).unwrap();
        }
        let cell = pmkm_data::GridCell::new(21, 21).unwrap();
        let bucket_path = dir.join(cell.bucket_file_name());
        pmkm_data::GridBucket { cell, points }.write_to(&bucket_path).unwrap();

        let report_path = dir.join("report.json");
        let out = run(
            "cluster",
            &[
                "--k=2".into(),
                "--restarts=2".into(),
                "--splits=3".into(),
                format!("--metrics-out={}", report_path.display()),
                bucket_path.display().to_string(),
            ],
        )
        .unwrap();
        assert!(out.contains("wrote run report"), "{out}");
        assert!(out.contains("util"), "{out}");

        // The written report parses, matches the dataset, and survives a
        // serialize → deserialize → serialize cycle without loss.
        let text = std::fs::read_to_string(&report_path).unwrap();
        let report: pmkm_obs::RunReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report.schema_version, pmkm_obs::report::SCHEMA_VERSION);
        assert_eq!(report.total_points(), 180);
        assert_eq!(report.cells.len(), 1);
        assert!(!report.metrics.counters.is_empty());
        let again = serde_json::to_string_pretty(&report).unwrap();
        let report2: pmkm_obs::RunReport = serde_json::from_str(&again).unwrap();
        assert_eq!(report, report2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_serve_and_folded_expose_profiler_output() {
        let dir = tmp("serve");
        let mut points = pmkm_core::Dataset::new(2).unwrap();
        let mut x = 0.41_f64;
        for i in 0..160 {
            x = (x * 997.13 + 0.7).fract();
            let blob = if i % 2 == 0 { 0.0 } else { 25.0 };
            points.push(&[blob + x, blob - x]).unwrap();
        }
        let cell = pmkm_data::GridCell::new(22, 22).unwrap();
        let bucket_path = dir.join(cell.bucket_file_name());
        pmkm_data::GridBucket { cell, points }.write_to(&bucket_path).unwrap();

        let folded_path = dir.join("stacks.folded");
        let report_path = dir.join("report.json");
        let out = run(
            "cluster",
            &[
                "--k=2".into(),
                "--restarts=2".into(),
                "--splits=3".into(),
                "--serve=127.0.0.1:0".into(),
                format!("--folded={}", folded_path.display()),
                format!("--metrics-out={}", report_path.display()),
                bucket_path.display().to_string(),
            ],
        )
        .unwrap();
        assert!(out.contains("serving telemetry at http://127.0.0.1:"), "{out}");
        assert!(out.contains("wrote folded stacks"), "{out}");

        // Folded stacks carry the pipeline phases in `name;name value` form.
        let folded = std::fs::read_to_string(&folded_path).unwrap();
        assert!(folded.lines().any(|l| l.starts_with("partial ")), "{folded}");
        assert!(folded.lines().any(|l| l.starts_with("partial;assign ")), "{folded}");
        for line in folded.lines() {
            let (_, value) = line.rsplit_once(' ').expect("folded line has a value");
            value.parse::<u64>().expect("folded value is integral microseconds");
        }

        // The run report now carries the phase breakdown.
        let text = std::fs::read_to_string(&report_path).unwrap();
        let report: pmkm_obs::RunReport = serde_json::from_str(&text).unwrap();
        assert!(report.phases.iter().any(|p| p.path == "partial"), "{:?}", report.phases);
        assert!(report.phases.iter().any(|p| p.path == "merge"), "{:?}", report.phases);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_chaos_flags_inject_and_degrade_deterministically() {
        let dir = tmp("chaos");
        let cell = pmkm_data::GridCell::new(5, 5).unwrap();
        let mut points = pmkm_core::Dataset::new(2).unwrap();
        for i in 0..200 {
            let blob = if i % 2 == 0 { 0.0 } else { 40.0 };
            points.push(&[blob + (i % 7) as f64 * 0.1, blob + (i % 5) as f64 * 0.1]).unwrap();
        }
        let bucket = dir.join(cell.bucket_file_name());
        GridBucket { cell, points }.write_to(&bucket).unwrap();
        let path = bucket.display().to_string();

        // Chunk faults are keyed by (cell, chunk_id), independent of the
        // temp path, so a seed whose schedule corrupts at least one of the
        // four chunks can be found deterministically.
        let seed = (0..500u64)
            .find(|&s| {
                let plan = pmkm_stream::FaultPlan::heavy(s);
                (0..4).any(|c| plan.chunk_fault(cell.index(), c).is_some())
            })
            .expect("some seed corrupts a chunk");
        let base = vec!["--k=2".into(), "--restarts=2".into(), "--splits=4".into()];

        // Strict policy (the default): the injected corruption is an error,
        // never a silently wrong clustering.
        let mut argv = base.clone();
        argv.push(format!("--chaos=heavy:{seed}"));
        argv.push(path.clone());
        assert!(matches!(run("cluster", &argv), Err(CliError::Run(_))));

        // Tolerant policy: the run completes, reports the fault counters,
        // and flags the degradation in the RunReport.
        let report_path = dir.join("chaos_report.json");
        let mut argv = base.clone();
        argv.push(format!("--chaos=heavy:{seed}"));
        argv.push("--tolerant".into());
        argv.push(format!("--metrics-out={}", report_path.display()));
        argv.push(path.clone());
        let out = run("cluster", &argv).unwrap();
        assert!(out.contains("clustered"), "{out}");
        assert!(out.contains("[faults]"), "{out}");
        let report: pmkm_obs::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        assert!(report.degraded, "chaos run must flag degradation");
        assert!(report.faults.any(), "fault counters must reach the report");

        // Malformed chaos specs fail with usage errors.
        let mut argv = base.clone();
        argv.push("--chaos=heavy".into());
        argv.push(path.clone());
        assert!(matches!(run("cluster", &argv), Err(CliError::Run(_))));
        let mut argv = base;
        argv.push("--chaos=cosmic:1".into());
        argv.push(path);
        assert!(matches!(run("cluster", &argv), Err(CliError::Run(_))));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_rejects_malformed_ranges() {
        let dir = tmp("queryerr");
        let path = dir.join("h.json");
        let hist = pmkm_compress::MultivariateHistogram {
            dim: 2,
            total_count: 1.0,
            buckets: vec![pmkm_compress::Bucket {
                centroid: vec![0.0, 0.0],
                count: 1.0,
                spread: vec![1.0, 1.0],
            }],
        };
        std::fs::write(&path, serde_json::to_string(&hist).unwrap()).unwrap();
        let p = path.display().to_string();
        assert!(matches!(run("query", &["--range=0:1".into(), p.clone()]), Err(CliError::Run(_))));
        assert!(matches!(
            run("query", &["--range=9:0:1".into(), p.clone()]),
            Err(CliError::Run(_))
        ));
        assert!(run("query", &["--range=1:-5:5".into(), p]).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_command_and_bad_args() {
        assert!(matches!(run("frobnicate", &[]), Err(CliError::UnknownCommand(_))));
        assert!(matches!(
            run("cluster", &["--bogus=1".into()]),
            Err(CliError::Args(ArgError::Unknown(_)))
        ));
        assert!(matches!(run("cluster", &[]), Err(CliError::Usage(_))));
        assert!(matches!(run("bin", &[]), Err(CliError::Usage(_))));
        assert!(matches!(run("inspect", &[]), Err(CliError::Usage(_))));
        assert!(matches!(run("compress", &[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn help_is_derived_from_the_rows() {
        let help = run("help", &["cluster".into()]).unwrap();
        assert_eq!(help, run("cluster", &["--help".into()]).unwrap());
        assert!(help.starts_with("USAGE: pmkm cluster [options] <bucket files…>\n"), "{help}");
        assert!(help.contains("--k=N "), "{help}");
        assert!(help.contains("clusters per cell [default: 40]"), "{help}");
        assert!(help.contains("[default: computed]"), "{help}");
        assert!(help.contains("--tolerant "), "{help}");
        assert!(help.contains("EXIT STATUS"), "{help}");
        let overview = run("help", &[]).unwrap();
        for c in COMMANDS {
            assert!(overview.contains(&format!("  {} ", c.name)), "{overview}");
        }
        assert!(matches!(run("help", &["frobnicate".into()]), Err(CliError::UnknownCommand(_))));
    }

    #[test]
    fn splits_and_memory_exclude_each_other() {
        let argv = ["--splits=2".into(), "--memory=1".into(), "x.gb".into()];
        let err = run("cluster", &argv).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert!(err.to_string().contains("--memory"), "{err}");
    }

    #[test]
    fn block_points_row_matches_the_container_default() {
        let row = find("convert").unwrap().rows().find(|r| r.name == "block-points");
        let default = pmkm_data::DEFAULT_BLOCK_POINTS.to_string();
        assert_eq!(row.unwrap().default, Some(default.as_str()));
    }

    #[test]
    fn inspect_rejects_garbage_file() {
        let dir = tmp("garbage");
        let path = dir.join("junk.gb");
        std::fs::write(&path, b"not a bucket").unwrap();
        assert!(matches!(run("inspect", &[path.display().to_string()]), Err(CliError::Run(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_ledger_inspect_and_diff_round_trip() {
        let dir = tmp("ledger");
        let cell = pmkm_data::GridCell::new(30, 30).unwrap();
        let mut points = pmkm_core::Dataset::new(2).unwrap();
        let mut x = 0.27_f64;
        for i in 0..200 {
            x = (x * 997.13 + 0.7).fract();
            let blob = if i % 2 == 0 { 0.0 } else { 35.0 };
            points.push(&[blob + x, blob - x]).unwrap();
        }
        let bucket_path = dir.join(cell.bucket_file_name());
        pmkm_data::GridBucket { cell, points }.write_to(&bucket_path).unwrap();

        // Two identical chaos runs, each journaling a ledger; one also
        // writes a RunReport so the diff can mix formats.
        let base = vec![
            "--k=2".into(),
            "--restarts=2".into(),
            "--splits=3".into(),
            "--tolerant".into(),
            "--chaos=light:7".into(),
        ];
        let ledger_a = dir.join("a.jsonl").display().to_string();
        let ledger_b = dir.join("b.jsonl").display().to_string();
        let report_a = dir.join("a_report.json").display().to_string();
        let mut argv = base.clone();
        argv.push(format!("--ledger={ledger_a}"));
        argv.push(format!("--metrics-out={report_a}"));
        argv.push(bucket_path.display().to_string());
        let out = run("cluster", &argv).unwrap();
        assert!(out.contains("wrote ledger to"), "{out}");
        let mut argv = base;
        argv.push(format!("--ledger={ledger_b}"));
        argv.push(bucket_path.display().to_string());
        run("cluster", &argv).unwrap();

        // The ledger rollup reproduces the RunReport's fault counters.
        let report: pmkm_obs::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&report_a).unwrap()).unwrap();
        let records = pmkm_obs::read_ledger(&ledger_a).unwrap();
        let roll = pmkm_obs::rollup(&records);
        assert_eq!(roll.faults, report.faults, "ledger rollup must match the report");

        // inspect understands ledgers.
        let out = run("inspect", std::slice::from_ref(&ledger_a)).unwrap();
        assert!(out.contains("ledger v"), "{out}");
        assert!(out.contains("[phases]"), "{out}");
        assert!(out.contains("[cell "), "{out}");

        // Two same-machine same-workload runs diff clean under a generous
        // threshold — including the ledger-vs-RunReport mixed form.
        let out =
            run("diff", &["--threshold=1000".into(), ledger_a.clone(), ledger_b.clone()]).unwrap();
        assert!(out.contains("elapsed"), "{out}");
        let out =
            run("diff", &["--threshold=1000".into(), report_a.clone(), ledger_b.clone()]).unwrap();
        assert!(out.contains(&report_a), "{out}");

        // Usage errors: wrong arity, unreadable input.
        assert!(matches!(run("diff", std::slice::from_ref(&ledger_a)), Err(CliError::Usage(_))));
        assert!(matches!(
            run("diff", &[ledger_a, "no_such_file.jsonl".into()]),
            Err(CliError::Run(_))
        ));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes `n` two-blob buckets under `dir` and returns their paths.
    fn write_buckets(dir: &std::path::Path, n: usize) -> Vec<String> {
        (1..=n as u16)
            .map(|idx| {
                let cell = pmkm_data::GridCell::new(idx, idx).unwrap();
                let mut points = pmkm_core::Dataset::new(2).unwrap();
                let mut x = 0.19_f64 + idx as f64;
                for i in 0..(80 + 20 * idx as usize) {
                    x = (x * 997.13 + 0.7).fract();
                    let blob = if i % 2 == 0 { 0.0 } else { 30.0 };
                    points.push(&[blob + x, blob - x]).unwrap();
                }
                let path = dir.join(cell.bucket_file_name());
                pmkm_data::GridBucket { cell, points }.write_to(&path).unwrap();
                path.display().to_string()
            })
            .collect()
    }

    #[test]
    fn coreset_flags_run_both_commands_and_reject_bad_combinations() {
        let dir = tmp("coreset_cli");
        let buckets = write_buckets(&dir, 2);

        // cluster --coreset: the summary carries the tree tag and the
        // v7 report grows the coreset block.
        let report_path = dir.join("coreset_report.json").display().to_string();
        let mut argv = vec![
            "--k=2".into(),
            "--restarts=2".into(),
            "--splits=4".into(),
            "--coreset=16".into(),
            format!("--metrics-out={report_path}"),
        ];
        argv.extend(buckets.iter().cloned());
        let out = run("cluster", &argv).unwrap();
        assert!(out.contains("[coreset:"), "{out}");
        let report: pmkm_obs::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        let block = report.coreset.as_ref().expect("v7 coreset block");
        assert_eq!(block.trees, 2);
        assert!(block.builds >= 2, "{block:?}");
        assert!(block.lost_points == 0.0, "{block:?}");

        // orchestrate --coreset with decay still answers every cell, and
        // the journaled coreset events surface in the inspect rollup.
        let ledger_path = dir.join("coreset_run.jsonl").display().to_string();
        let mut argv = vec![
            "--k=2".into(),
            "--restarts=2".into(),
            "--splits=4".into(),
            "--jobs=2".into(),
            "--coreset=16".into(),
            "--coreset-decay=0.9".into(),
            format!("--ledger={ledger_path}"),
        ];
        argv.extend(buckets.iter().cloned());
        let out = run("orchestrate", &argv).unwrap();
        assert!(out.contains("orchestrated 2 cells"), "{out}");
        assert!(out.contains("[coreset:"), "{out}");
        let out = run("inspect", &[ledger_path]).unwrap();
        assert!(out.contains("[coreset]"), "{out}");
        assert!(out.contains("build(s)"), "{out}");

        // Window/decay without a size is an error.
        let err = run("cluster", &["--coreset-window=4".into(), buckets[0].clone()]).unwrap_err();
        assert!(matches!(err, CliError::Run(_)), "{err:?}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn convert_and_backend_flags_round_trip() {
        let dir = tmp("convert");
        let buckets = write_buckets(&dir, 2);

        // convert writes .gb2 siblings and reports block/ratio stats.
        let mut argv: Vec<String> = vec!["--block-points=37".into()];
        argv.extend(buckets.iter().cloned());
        let out = run("convert", &argv).unwrap();
        assert!(out.contains(".gb2"), "{out}");
        assert!(out.contains("block(s)"), "{out}");
        let gb2: Vec<String> = buckets
            .iter()
            .map(|p| PathBuf::from(p).with_extension("gb2").display().to_string())
            .collect();
        for p in &gb2 {
            assert!(std::path::Path::new(p).exists(), "missing {p}");
        }

        // inspect understands the container: block map plus the usual
        // cell header and per-dimension stats.
        let out = run("inspect", std::slice::from_ref(&gb2[0])).unwrap();
        assert!(out.contains("gb02 container"), "{out}");
        assert!(out.contains("[gb02]"), "{out}");
        assert!(out.contains("dim 0"), "{out}");

        // Clustering is bit-identical across formats and backends: the
        // per-cell summary lines (chunks, centroids, E_pm, points) of
        // every GB02 backend must match the GB01 baseline exactly.
        let base = vec!["--k=2".into(), "--restarts=2".into(), "--splits=3".into()];
        let mut argv = base.clone();
        argv.extend(buckets.iter().cloned());
        let reference = run("cluster", &argv).unwrap();
        let ref_cells: Vec<&str> =
            reference.lines().filter(|l| l.trim_start().starts_with("cell ")).collect();
        assert_eq!(ref_cells.len(), 2, "{reference}");
        for backend in ["local-file", "mmap", "sim-object-store"] {
            let mut argv = base.clone();
            argv.push(format!("--backend={backend}"));
            argv.extend(gb2.iter().cloned());
            let out = run("cluster", &argv).unwrap();
            let cells: Vec<&str> =
                out.lines().filter(|l| l.trim_start().starts_with("cell ")).collect();
            assert_eq!(cells, ref_cells, "backend {backend} diverged");
        }

        // orchestrate accepts the knob too.
        let mut argv = base.clone();
        argv.push("--jobs=2".into());
        argv.push("--backend=mmap".into());
        argv.extend(gb2.iter().cloned());
        let out = run("orchestrate", &argv).unwrap();
        assert!(out.contains("orchestrated 2 cells"), "{out}");

        // A ledgered GB02 run journals scan.block events; inspect
        // surfaces the block I/O rollup.
        let ledger = dir.join("gb2.jsonl").display().to_string();
        let mut argv = base.clone();
        argv.push(format!("--ledger={ledger}"));
        argv.extend(gb2.iter().cloned());
        run("cluster", &argv).unwrap();
        let out = run("inspect", &[ledger]).unwrap();
        assert!(out.contains("[scan]"), "{out}");
        assert!(out.contains("zero-copy, prefetch hit rate"), "{out}");

        // convert --out=DIR with the raw codec (ratio exactly 1.00), and
        // recompression of an already-GB02 input.
        let out_dir = dir.join("converted");
        let out = run(
            "convert",
            &[format!("--out={}", out_dir.display()), "--codec=raw".into(), gb2[0].clone()],
        )
        .unwrap();
        assert!(out.contains("1.00x"), "{out}");

        // Usage errors: bad codec, bad backend, no inputs.
        let err = run("convert", &["--codec=zstd".into(), buckets[0].clone()]).unwrap_err();
        assert!(err.to_string().contains("unknown codec"), "{err}");
        let err = run("cluster", &["--backend=s3".into(), buckets[0].clone()]).unwrap_err();
        assert!(err.to_string().contains("unknown backend"), "{err}");
        assert!(matches!(run("convert", &[]), Err(CliError::Usage(_))));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orchestrate_kill_resume_inspect_round_trip() {
        let dir = tmp("orch");
        let buckets = write_buckets(&dir, 4);
        let ckpt = dir.join("ckpt").display().to_string();
        let base = vec!["--k=2".into(), "--restarts=2".into(), "--splits=3".into()];

        // Kill after 2 checkpoints (jobs=1 keeps the drill deterministic).
        let mut argv = base.clone();
        argv.push("--jobs=1".into());
        argv.push(format!("--checkpoint-dir={ckpt}"));
        argv.push("--kill-after=2".into());
        argv.extend(buckets.iter().cloned());
        let out = run("orchestrate", &argv).unwrap();
        assert!(out.contains("INTERRUPTED"), "{out}");
        assert!(out.contains("2 checkpoint(s) written"), "{out}");

        // Resume with a ledger and a report: 2 restored, 2 executed.
        let ledger = dir.join("orch.jsonl").display().to_string();
        let report_path = dir.join("orch_report.json").display().to_string();
        let mut argv = base.clone();
        argv.push("--jobs=2".into());
        argv.push(format!("--checkpoint-dir={ckpt}"));
        argv.push("--resume".into());
        argv.push(format!("--ledger={ledger}"));
        argv.push(format!("--metrics-out={report_path}"));
        argv.extend(buckets.iter().cloned());
        let out = run("orchestrate", &argv).unwrap();
        assert!(out.contains("2 resumed, 2 executed"), "{out}");
        assert!(out.contains("[resumed]"), "{out}");
        assert!(!out.contains("INTERRUPTED"), "{out}");

        // The RunReport carries the v5 orchestrator block.
        let report: pmkm_obs::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        let orch = report.orchestrator.expect("orchestrate writes the orchestrator block");
        assert_eq!(orch.cells_total, 4);
        assert_eq!(orch.cells_resumed, 2);
        assert_eq!(orch.cells_executed, 2);
        assert_eq!(report.cells.len(), 4);

        // inspect rolls the multi-cell ledger up, resume events included.
        let out = run("inspect", std::slice::from_ref(&ledger)).unwrap();
        assert!(out.contains("ledger v"), "{out}");
        assert!(out.contains("[resume] 2 cell(s) restored"), "{out}");
        assert!(out.contains("[checkpoint +"), "{out}");
        assert_eq!(out.matches("[cell ").count(), 4, "{out}");

        // A budget smaller than one cell's footprint is a clean error.
        let mut argv = base.clone();
        argv.push("--budget=1".into());
        argv.extend(buckets.iter().cloned());
        assert!(matches!(run("orchestrate", &argv), Err(CliError::Run(_))));

        // --resume / --kill-after without --checkpoint-dir are usage errors.
        let mut argv = base.clone();
        argv.push("--resume".into());
        argv.extend(buckets.iter().cloned());
        assert!(matches!(run("orchestrate", &argv), Err(CliError::Run(_))));
        let mut argv = base.clone();
        argv.push("--kill-after=1".into());
        argv.extend(buckets.iter().cloned());
        assert!(matches!(run("orchestrate", &argv), Err(CliError::Run(_))));
        assert!(matches!(run("orchestrate", &[]), Err(CliError::Usage(_))));

        // --cells caps the planet.
        let mut argv = base;
        argv.push("--cells=2".into());
        argv.extend(buckets.iter().cloned());
        let out = run("orchestrate", &argv).unwrap();
        assert!(out.contains("orchestrated 2 cells"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orchestrate_watchdog_timeline_and_chrome_export_round_trip() {
        let dir = tmp("orch_obs");
        let buckets = write_buckets(&dir, 3);
        let ledger = dir.join("obs.jsonl").display().to_string();
        let report_path = dir.join("obs_report.json").display().to_string();

        // An observed run with the watchdog armed at a sane deadline: it
        // must stay silent, and the ledger must carry worker transitions.
        let mut argv = vec![
            "--k=2".into(),
            "--restarts=2".into(),
            "--splits=3".into(),
            "--jobs=2".into(),
            "--watchdog=30".into(),
            format!("--ledger={ledger}"),
            format!("--metrics-out={report_path}"),
        ];
        argv.extend(buckets.iter().cloned());
        let out = run("orchestrate", &argv).unwrap();
        assert!(out.contains("orchestrated 3 cells"), "{out}");
        assert!(!out.contains("[watchdog]"), "silent watchdog: {out}");

        // The report carries the v6 timeline block with one lane per job.
        let report: pmkm_obs::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        let tl = report.timeline.as_ref().expect("v6 timeline block");
        assert_eq!(tl.workers.len(), 2);

        // inspect on the ledger prints the Gantt and exports a Chrome trace.
        let trace_path = dir.join("trace.json").display().to_string();
        let out = run("inspect", &[format!("--timeline={trace_path}"), ledger.clone()]).unwrap();
        assert!(out.contains("[workers]"), "{out}");
        assert!(out.contains("[gantt"), "{out}");
        assert!(out.contains("wrote Chrome trace"), "{out}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"traceEvents\":["), "{trace}");
        assert!(trace.contains("\"displayTimeUnit\":\"ms\""), "{trace}");

        // inspect on the RunReport prints the per-worker rollup and also
        // renders a trace (summary slices from the report's timeline).
        let out = run("inspect", &[format!("--timeline={trace_path}"), report_path]).unwrap();
        assert!(out.contains("run report v7"), "{out}");
        assert!(out.contains("[timeline] 2 worker(s)"), "{out}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"traceEvents\":["), "{trace}");

        // --timeline without a ledger or report among the inputs errors.
        let err =
            run("inspect", &[format!("--timeline={trace_path}"), buckets[0].clone()]).unwrap_err();
        assert!(matches!(err, CliError::Run(_)), "{err:?}");

        // --serve on orchestrate announces the dashboard routes and shuts
        // down cleanly when the run completes.
        let mut argv = vec![
            "--k=2".into(),
            "--restarts=2".into(),
            "--splits=3".into(),
            "--serve=127.0.0.1:0".into(),
        ];
        argv.extend(buckets.iter().cloned());
        let out = run("orchestrate", &argv).unwrap();
        assert!(out.contains("serving telemetry"), "{out}");
        assert!(out.contains("/status"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_detects_regression_and_attributes_phase() {
        use std::sync::Arc;
        let dir = tmp("diffreg");
        // Synthesize two ledgers whose only difference is a 3x slower
        // assignment phase, dominating the elapsed delta.
        let write_ledger = |path: &PathBuf, assign_us: u64| {
            let sink = Arc::new(pmkm_obs::LedgerSink::create(path).unwrap());
            let rec = pmkm_obs::Recorder::new().with_sink(sink);
            for (phase, self_us) in [("partial;assign", assign_us), ("merge", 40u64)] {
                rec.event(
                    "run.phase",
                    &[
                        ("path", phase.into()),
                        ("calls", 1u64.into()),
                        ("total_us", self_us.into()),
                        ("self_us", self_us.into()),
                        ("wall_us", self_us.into()),
                    ],
                );
            }
            rec.event(
                "run.close",
                &[
                    ("elapsed_us", (assign_us + 40).into()),
                    ("cells", 1u64.into()),
                    ("degraded", false.into()),
                ],
            );
            rec.flush();
        };
        let fast = dir.join("fast.jsonl");
        let slow = dir.join("slow.jsonl");
        write_ledger(&fast, 1000);
        write_ledger(&slow, 3000);

        let fast = fast.display().to_string();
        let slow = slow.display().to_string();
        let err = run("diff", &[fast.clone(), slow.clone()]).unwrap_err();
        let CliError::Regression(msg) = &err else {
            panic!("expected Regression, got {err:?}");
        };
        assert!(msg.contains("partial;assign"), "{msg}");

        // Same pair in the non-regressing direction passes and renders the
        // attribution table.
        let out = run("diff", &[slow, fast]).unwrap();
        assert!(out.contains("partial;assign"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
