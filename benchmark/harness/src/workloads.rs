//! Sets a workload up, runs it through the CLI, and checks what it printed.
//!
//! The process that spawns the timed children stays small: generating
//! inputs, the in-process quality check and reading a run report each run
//! in a child of their own (this binary re-invoked with a `__` subcommand).
//! A spawned child's `ru_maxrss` starts from its parent's high-water mark,
//! so a parent that had held a 150 000-point cell would put a floor under
//! every later `peak_rss_mb`.

use crate::api::{self, Codec};
use crate::child::{self, ChildRun};
use crate::parse::{self, Orchestrated};
use crate::spec::{self, Effort, Kind, Workload};
use crate::trace;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where one workload's files live under the work directory.
pub struct Layout {
    pub dir: PathBuf,
}

impl Layout {
    pub fn new(work_dir: &Path, workload: &Workload) -> Self {
        Self { dir: work_dir.join(workload.name) }
    }
    /// Generated input containers.
    pub fn input_dir(&self) -> PathBuf {
        self.dir.join("input")
    }
    pub fn input_file(&self, cell: usize) -> PathBuf {
        self.input_dir().join(format!("cell_{cell:05}.gb2"))
    }
    /// Round-trip legs of `recompress_roundtrip` (`A`: packed, `B`: back).
    pub fn leg_dir(&self, leg: &str) -> PathBuf {
        self.dir.join(leg)
    }
    pub fn leg_file(&self, leg: &str, cell: usize) -> PathBuf {
        self.leg_dir(leg).join(format!("cell_{cell:05}.gb2"))
    }
    pub fn checkpoint_dir(&self) -> PathBuf {
        self.dir.join("checkpoints")
    }
    pub fn ledger(&self) -> PathBuf {
        self.dir.join("ledger.jsonl")
    }
    pub fn run_report(&self) -> PathBuf {
        self.dir.join("run_report.json")
    }
    /// Child stdout/stderr captures.
    pub fn log_dir(&self) -> PathBuf {
        self.dir.join("logs")
    }
}

fn io<T>(what: &Path, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{}: {e}", what.display()))
}

fn remove_path(path: &Path) -> Result<(), String> {
    let removed =
        if path.is_dir() { std::fs::remove_dir_all(path) } else { std::fs::remove_file(path) };
    match removed {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => io(path, Err(e)),
        _ => Ok(()),
    }
}

fn path_arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

// --------------------------------------------------------------- set-up ----

/// Body of the `__setup` child: wipes the workload's directory and writes
/// its input containers from `seed`.
pub fn generate_inputs(workload: &Workload, seed: u64, layout: &Layout) -> Result<(), String> {
    remove_path(&layout.dir)?;
    io(&layout.input_dir(), std::fs::create_dir_all(layout.input_dir()))?;
    io(&layout.log_dir(), std::fs::create_dir_all(layout.log_dir()))?;
    for cell in 0..workload.cells {
        let points = api::generate_cell(workload.points_per_cell, workload.cell_seed(seed, cell))?;
        api::write_container(&points, cell as u32, &layout.input_file(cell), workload.codec)?;
    }
    Ok(())
}

/// Runs one of this binary's `__` subcommands on a workload.
fn self_child(
    ctx: &Context,
    workload: &Workload,
    log_dir: &Path,
    subcommand: &str,
    extra: &[String],
) -> Result<ChildRun, String> {
    let mut args = vec![
        subcommand.to_string(),
        workload.name.to_string(),
        ctx.seed.to_string(),
        u8::from(ctx.quick).to_string(),
        path_arg(&ctx.work_dir),
    ];
    args.extend_from_slice(extra);
    let tag = format!("{}.{}", workload.name, subcommand.trim_start_matches('_'));
    let run = child::run(&ctx.self_exe, &args, log_dir, &tag)?;
    if !run.exit_ok {
        return Err(format!("{subcommand} of {} failed", workload.name));
    }
    Ok(run)
}

/// Sets the workload up once untimed, then `setups` times; returns each
/// timed set-up's wall time. The untimed one clears whatever the previous
/// invocation left behind (up to 600 MB of another seed's files), so every
/// timed set-up replaces the same state: its own output.
pub fn set_up(ctx: &Context, workload: &Workload, setups: usize) -> Result<Vec<f64>, String> {
    // The set-up wipes the workload's own directory, logs included, so its
    // output is captured one level up.
    let once = || Ok(self_child(ctx, workload, &ctx.work_dir, "__setup", &[])?.wall_s);
    once()?;
    (0..setups).map(|_| once()).collect()
}

// ------------------------------------------------------------- commands ----

/// Argument vectors (after `pmkm`) of one run of the workload: one command
/// for a clustering workload, two for the round trip.
pub fn commands(workload: &Workload, layout: &Layout, trace: bool) -> Vec<Vec<String>> {
    let inputs = || (0..workload.cells).map(|c| path_arg(&layout.input_file(c)));
    match &workload.kind {
        Kind::Cluster { spec, journaled, .. } => {
            let mut args = vec![
                "orchestrate".to_string(),
                format!("--k={}", spec.k),
                format!("--restarts={}", spec.restarts),
                format!("--splits={}", spec.splits),
                format!("--jobs={}", spec.jobs),
            ];
            if let Some(size) = spec.coreset {
                args.push(format!("--coreset={size}"));
            }
            args.push(format!("--backend={}", spec.backend.flag()));
            if *journaled {
                args.push(format!("--checkpoint-dir={}", path_arg(&layout.checkpoint_dir())));
                args.push(format!("--ledger={}", path_arg(&layout.ledger())));
            }
            if trace {
                args.push(format!("--metrics-out={}", path_arg(&layout.run_report())));
            }
            args.extend(inputs());
            vec![args]
        }
        Kind::Recompress => {
            let leg = |codec: Codec, out: &str, files: Vec<String>| {
                let mut args = vec![
                    "convert".to_string(),
                    format!("--codec={}", codec.flag()),
                    format!("--out={}", path_arg(&layout.leg_dir(out))),
                ];
                args.extend(files);
                args
            };
            let packed = (0..workload.cells).map(|c| path_arg(&layout.leg_file("A", c))).collect();
            vec![leg(Codec::ShuffleRle, "A", inputs().collect()), leg(Codec::Raw, "B", packed)]
        }
    }
}

/// The command lines as a user would type them, for the result file.
pub fn command_lines(workload: &Workload, layout: &Layout) -> Vec<String> {
    commands(workload, layout, false)
        .iter()
        .map(|args| {
            // Thousands of input paths say nothing the cell count does not.
            let (flags, files): (Vec<&String>, Vec<&String>) =
                args.iter().partition(|a| !a.ends_with(".gb2"));
            let flags: Vec<&str> = flags.iter().map(|s| s.as_str()).collect();
            format!("pmkm {} <{} .gb2 file(s)>", flags.join(" "), files.len())
        })
        .collect()
}

// ----------------------------------------------------------------- runs ----

/// One run of a workload, as measured from outside.
#[derive(Debug, Clone)]
pub struct RunSample {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Cells (or files) that failed a check in this run.
    pub failed: usize,
    /// Printed `E_pm` per cell (empty for the round trip).
    pub epm: BTreeMap<u32, String>,
}

/// Checks one `orchestrate` run's exit status and stdout against the
/// workload; returns the number of failed cells and the printed `E_pm`s.
pub fn check_cluster(
    workload: &Workload,
    k: usize,
    journaled: bool,
    exit_ok: bool,
    stdout: &str,
) -> (usize, BTreeMap<u32, String>) {
    let all_failed = (workload.cells, BTreeMap::new());
    if !exit_ok {
        return all_failed;
    }
    let Some(Orchestrated { header, cells, .. }) = parse::parse_orchestrate(stdout) else {
        return all_failed;
    };
    let expected_checkpoints = if journaled { workload.cells } else { 0 };
    if header.interrupted
        || header.cells != workload.cells
        || header.executed != workload.cells
        || header.checkpoints_written != expected_checkpoints
    {
        return all_failed;
    }
    let mut epm = BTreeMap::new();
    let mut good = 0;
    for cell in &cells {
        let sound = cell.centroids == k
            && cell.points == workload.points_per_cell as u64
            && !cell.degraded
            && (cell.cell as usize) < workload.cells;
        if sound && epm.insert(cell.cell, cell.epm.clone()).is_none() {
            good += 1;
        }
    }
    (workload.cells - good.min(workload.cells), epm)
}

/// Checks the round trip: every file of leg B is byte-identical to its
/// source. Returns the number of files that are not.
fn check_roundtrip(workload: &Workload, layout: &Layout, runs: &[ChildRun]) -> usize {
    let converted = |run: &ChildRun| {
        let rows = parse::parse_convert(&run.stdout);
        run.exit_ok
            && rows.len() == workload.cells
            && rows.iter().all(|r| r.points == workload.points_per_cell as u64)
    };
    if !runs.iter().all(converted) {
        return workload.cells;
    }
    (0..workload.cells)
        .filter(|&cell| {
            !files_identical(&layout.input_file(cell), &layout.leg_file("B", cell)).unwrap_or(false)
        })
        .count()
}

/// Byte-compares two files through small buffers (the spawning process
/// must stay small, see the module docs).
fn files_identical(a: &Path, b: &Path) -> std::io::Result<bool> {
    use std::io::Read;
    let (mut fa, mut fb) = (std::fs::File::open(a)?, std::fs::File::open(b)?);
    if fa.metadata()?.len() != fb.metadata()?.len() {
        return Ok(false);
    }
    let (mut ba, mut bb) = ([0u8; 1 << 16], [0u8; 1 << 16]);
    loop {
        let n = fa.read(&mut ba)?;
        if n == 0 {
            return Ok(true);
        }
        fb.read_exact(&mut bb[..n])?;
        if ba[..n] != bb[..n] {
            return Ok(false);
        }
    }
}

/// Runs the workload once through the CLI and checks the result.
pub fn run_once(
    ctx: &Context,
    workload: &Workload,
    layout: &Layout,
    tag: &str,
    trace: bool,
) -> Result<RunSample, String> {
    if let Kind::Cluster { journaled: true, .. } = workload.kind {
        // A fresh checkpoint directory and ledger for every run.
        remove_path(&layout.checkpoint_dir())?;
        remove_path(&layout.ledger())?;
    }
    let mut runs = Vec::new();
    for (i, args) in commands(workload, layout, trace).iter().enumerate() {
        runs.push(child::run(&ctx.pmkm, args, &layout.log_dir(), &format!("{tag}.{i}"))?);
    }
    let (failed, epm) = match &workload.kind {
        Kind::Cluster { spec, journaled, .. } => {
            check_cluster(workload, spec.k, *journaled, runs[0].exit_ok, &runs[0].stdout)
        }
        Kind::Recompress => (check_roundtrip(workload, layout, &runs), BTreeMap::new()),
    };
    Ok(RunSample {
        wall_s: runs.iter().map(|r| r.wall_s).sum(),
        cpu_s: runs.iter().map(|r| r.cpu_s).sum(),
        peak_rss_mb: runs.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
        failed,
        epm,
    })
}

/// Cells whose printed `E_pm` differs between two runs of one workload.
pub fn epm_mismatches(a: &BTreeMap<u32, String>, b: &BTreeMap<u32, String>) -> usize {
    let differing = a.iter().filter(|(cell, epm)| b.get(cell) != Some(epm)).count();
    differing + b.keys().filter(|cell| !a.contains_key(cell)).count()
}

// ----------------------------------------------- in-process inspection ----

/// Body of the `__verify` child, printed as `name value` lines.
///
/// `sse_ratio`, clustering workloads: Σ SSE of the engine's final centroids
/// over the raw points ÷ Σ SSE of serial k-means on the whole cell, over the
/// first `quality_cells` cells. The centroids come from an in-process
/// `orchestrate` with the CLI's plan; `printed` (the CLI's stdout) must show
/// the same `E_pm` for those cells, which ties the centroids to the timed
/// runs (`epm_mismatches` counts the cells where it does not). The round
/// trip has no clustering: its ratio is the SSE of the round-tripped points
/// over that of the source points under the same centroids (the source's
/// first k points), 1 exactly while the codec is lossless.
///
/// `journal_failed`, journaled workload: all cells unless the last run's
/// ledger has mass ratio 1 and it, and the checkpoint directory, hold one
/// checkpoint per cell.
pub fn verify(
    workload: &Workload,
    seed: u64,
    layout: &Layout,
    printed: &str,
) -> Result<Vec<(&'static str, f64)>, String> {
    let (sse_ratio, epm_mismatches) = match &workload.kind {
        Kind::Cluster { spec, quality_cells, .. } => {
            let cells = (*quality_cells).min(workload.cells);
            let files: Vec<PathBuf> = (0..cells).map(|c| layout.input_file(c)).collect();
            let clustered = api::orchestrate(&files, spec)?;
            let printed =
                parse::parse_orchestrate(printed).ok_or("no orchestrate output to compare")?;
            let (mut engine_sse, mut serial_sse, mut mismatches) = (0.0, 0.0, 0);
            for cell in &clustered {
                // Cell ids are the input indices (see `generate_inputs`).
                let seed = workload.cell_seed(seed, cell.cell as usize);
                let points = api::generate_cell(workload.points_per_cell, seed)?;
                engine_sse += api::sse_against(&points, &cell.centroids)?;
                serial_sse += api::serial_sse(
                    &points,
                    spec.k,
                    spec::REFERENCE_RESTARTS,
                    spec::REFERENCE_SEED,
                )?;
                let cli = printed.cells.iter().find(|c| c.cell == cell.cell);
                if cli.map(|c| c.epm.as_str()) != Some(format!("{:.1}", cell.epm).as_str()) {
                    mismatches += 1;
                }
            }
            (engine_sse / serial_sse, mismatches)
        }
        Kind::Recompress => {
            let source = api::generate_cell(workload.points_per_cell, workload.cell_seed(seed, 0))?;
            let centroids = api::first_flat(&source, spec::K);
            let back = api::read_container(&layout.leg_file("B", 0))?;
            let ratio =
                api::sse_against(&back, &centroids)? / api::sse_against(&source, &centroids)?;
            (ratio, 0)
        }
    };
    let journal_failed = match workload.kind {
        Kind::Cluster { journaled: true, .. } => journal_failures(workload, layout),
        _ => 0,
    };
    Ok(vec![
        ("sse_ratio", sse_ratio),
        ("epm_mismatches", epm_mismatches as f64),
        ("journal_failed", journal_failed as f64),
    ])
}

fn journal_failures(workload: &Workload, layout: &Layout) -> usize {
    let files = std::fs::read_dir(layout.checkpoint_dir()).map(|d| d.count()).unwrap_or(0);
    let sound = |f: &api::LedgerFacts| {
        f.mass_ratio == 1.0 && f.checkpoints == workload.cells && f.cells == workload.cells
    };
    match api::ledger_rollup(&layout.ledger()) {
        Ok(facts) if sound(&facts) && files == workload.cells => 0,
        outcome => {
            eprintln!(
                "[{}] journal check failed: {outcome:?}, {files} checkpoint file(s)",
                workload.name
            );
            workload.cells
        }
    }
}

/// Body of the `__report` child: the rows the traced run's report carries,
/// and the summed self time of its phases.
pub fn report_rows(layout: &Layout) -> Result<Vec<(&'static str, f64)>, String> {
    let path = layout.run_report();
    let insitu = trace::read_report(&io(&path, std::fs::read_to_string(&path))?)?;
    let mut rows = insitu.rows;
    rows.push(("phase_self_s", insitu.phase_self_s));
    Ok(rows)
}

/// Runs an inspection subcommand and parses the `name value` lines it prints.
fn inspect_child(
    ctx: &Context,
    workload: &Workload,
    layout: &Layout,
    subcommand: &str,
    extra: &[String],
) -> Result<BTreeMap<String, f64>, String> {
    self_child(ctx, workload, &layout.log_dir(), subcommand, extra)?
        .stdout
        .lines()
        .map(|line| {
            let (name, value) = line.split_once(' ').ok_or_else(|| format!("bad line '{line}'"))?;
            Ok((name.to_string(), value.parse::<f64>().map_err(|e| format!("'{line}': {e}"))?))
        })
        .collect()
}

// ------------------------------------------------------------ measuring ----

/// What an invocation knows about its surroundings.
pub struct Context {
    /// The `pmkm` CLI beside this executable.
    pub pmkm: PathBuf,
    pub self_exe: PathBuf,
    pub work_dir: PathBuf,
    pub seed: u64,
    pub quick: bool,
}

/// Everything measured for one workload with observers off.
#[derive(Debug, Clone)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub runs: Vec<RunSample>,
    pub sse_ratio: f64,
    /// Cells (or files) checked over the warm-up and every timed run, and
    /// how many failed a check.
    pub attempted: usize,
    pub failed: usize,
    /// `E_pm` per cell as the warm-up printed it.
    pub epm: BTreeMap<u32, String>,
}

/// Sets the workload up, warms up once, then times runs with every observer
/// off and checks their output and quality.
pub fn measure(ctx: &Context, workload: &Workload, effort: &Effort) -> Result<Measured, String> {
    let layout = Layout::new(&ctx.work_dir, workload);
    let setup_s = set_up(ctx, workload, effort.setups)?;

    let warm_up = run_once(ctx, workload, &layout, "warmup", false)?;
    let mut attempted = workload.cells;
    let mut failed = warm_up.failed;

    let mut runs = Vec::new();
    let started = Instant::now();
    while runs.len() < effort.min_runs || started.elapsed().as_secs_f64() < effort.min_seconds {
        let run = run_once(ctx, workload, &layout, &format!("run{}", runs.len()), false)?;
        attempted += workload.cells;
        // A cell that printed a different E_pm than the warm-up did is a
        // failed cell even if the run looked fine on its own.
        failed += run.failed.max(epm_mismatches(&warm_up.epm, &run.epm)).min(workload.cells);
        runs.push(run);
    }

    let printed = path_arg(&layout.log_dir().join("warmup.0.stdout"));
    let verified = inspect_child(ctx, workload, &layout, "__verify", &[printed])?;
    let field =
        |name: &str| verified.get(name).copied().ok_or(format!("__verify printed no {name}"));
    let in_process_failed = (field("epm_mismatches")? + field("journal_failed")?) as usize;
    if in_process_failed > 0 {
        eprintln!("[{}] in-process checks failed: {verified:?}", workload.name);
    }
    failed = (failed + in_process_failed).min(attempted);
    Ok(Measured {
        setup_s,
        runs,
        sse_ratio: field("sse_ratio")?,
        attempted,
        failed,
        epm: warm_up.epm,
    })
}

/// The traced run of a clustering workload.
#[derive(Debug, Clone)]
pub struct Traced {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Rows the run report carried, by metric name, plus `phase_self_s`.
    pub rows: BTreeMap<String, f64>,
    /// Cells that failed a check or printed another `E_pm` than `baseline`.
    pub failed: usize,
}

/// Runs the workload once more with the program's observers on and reads
/// the run report it wrote. `None` for the round trip, which has none.
pub fn traced(
    ctx: &Context,
    workload: &Workload,
    baseline: &BTreeMap<u32, String>,
) -> Result<Option<Traced>, String> {
    if matches!(workload.kind, Kind::Recompress) {
        return Ok(None);
    }
    let layout = Layout::new(&ctx.work_dir, workload);
    let run = run_once(ctx, workload, &layout, "traced", true)?;
    let rows = inspect_child(ctx, workload, &layout, "__report", &[])?;
    let failed = run.failed.max(epm_mismatches(baseline, &run.epm)).min(workload.cells);
    Ok(Some(Traced { wall_s: run.wall_s, cpu_s: run.cpu_s, rows, failed }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(cells: usize, journaled: bool) -> Workload {
        let mut w =
            spec::workloads(true).into_iter().find(|w| w.name == "small_cells_bare").unwrap();
        w.cells = cells;
        if let Kind::Cluster { journaled: j, .. } = &mut w.kind {
            *j = journaled;
        }
        w
    }

    fn stdout(cells: usize, checkpoints: usize, rows: &[&str]) -> String {
        let mut out = format!(
            "orchestrated {cells} cells on 2 workers in 5 ms (0 resumed, {cells} executed, \
             {checkpoints} checkpoint(s) written, 0 invalid, 0 steal(s))\n"
        );
        for row in rows {
            out.push_str(row);
            out.push('\n');
        }
        out
    }

    const GOOD0: &str = "  cell 0: 2 chunks, 40 centroids, E_pm 1.5, 250 points";
    const GOOD1: &str = "  cell 1: 2 chunks, 40 centroids, E_pm 2.5, 250 points";

    #[test]
    fn a_clean_run_fails_no_cell() {
        let (failed, epm) =
            check_cluster(&tiny(2, false), 40, false, true, &stdout(2, 0, &[GOOD0, GOOD1]));
        assert_eq!(failed, 0);
        assert_eq!(epm.get(&1).map(String::as_str), Some("2.5"));
    }

    #[test]
    fn a_bad_exit_or_header_fails_every_cell() {
        let w = tiny(2, false);
        let good = stdout(2, 0, &[GOOD0, GOOD1]);
        assert_eq!(check_cluster(&w, 40, false, false, &good).0, 2);
        assert_eq!(check_cluster(&w, 40, false, true, "").0, 2);
        assert_eq!(check_cluster(&w, 40, false, true, &stdout(3, 0, &[GOOD0, GOOD1])).0, 2);
        let interrupted = good.replacen("steal(s))", "steal(s)) INTERRUPTED", 1);
        assert_eq!(check_cluster(&w, 40, false, true, &interrupted).0, 2);
        // Journaled runs must have written one checkpoint per cell.
        assert_eq!(check_cluster(&tiny(2, true), 40, true, true, &good).0, 2);
        assert_eq!(
            check_cluster(&tiny(2, true), 40, true, true, &stdout(2, 2, &[GOOD0, GOOD1])).0,
            0
        );
    }

    #[test]
    fn each_unsound_or_missing_cell_counts_once() {
        let w = tiny(2, false);
        let few_centroids = "  cell 1: 2 chunks, 39 centroids, E_pm 2.5, 250 points";
        let few_points = "  cell 1: 2 chunks, 40 centroids, E_pm 2.5, 249 points";
        let degraded = "  cell 1: 2 chunks, 40 centroids, E_pm 2.5, 250 points [degraded: lost 0 points in 0 chunk(s)]";
        let lost = "  cell #1: no surviving chunks [degraded]";
        for bad in [few_centroids, few_points, degraded, lost] {
            assert_eq!(
                check_cluster(&w, 40, false, true, &stdout(2, 0, &[GOOD0, bad])).0,
                1,
                "{bad}"
            );
        }
        assert_eq!(check_cluster(&w, 40, false, true, &stdout(2, 0, &[GOOD0])).0, 1);
        // The same cell printed twice does not stand in for a missing one.
        assert_eq!(check_cluster(&w, 40, false, true, &stdout(2, 0, &[GOOD0, GOOD0])).0, 1);
    }

    #[test]
    fn epm_mismatches_count_differing_and_missing_cells() {
        let map = |rows: &[(u32, &str)]| rows.iter().map(|(c, e)| (*c, e.to_string())).collect();
        let a: BTreeMap<u32, String> = map(&[(0, "1.5"), (1, "2.5")]);
        assert_eq!(epm_mismatches(&a, &a), 0);
        assert_eq!(epm_mismatches(&a, &map(&[(0, "1.5"), (1, "2.6")])), 1);
        assert_eq!(epm_mismatches(&a, &map(&[(0, "1.5")])), 1);
        assert_eq!(epm_mismatches(&a, &map(&[(0, "1.5"), (1, "2.5"), (2, "9.9")])), 1);
    }

    #[test]
    fn command_lines_name_flags_and_count_files() {
        let w = tiny(3, true);
        let layout = Layout::new(Path::new("work"), &w);
        let lines = command_lines(&w, &layout);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with(
            "pmkm orchestrate --k=40 --restarts=10 --splits=2 --jobs=2 --backend=mmap --checkpoint-dir="
        ));
        assert!(lines[0].ends_with("<3 .gb2 file(s)>"), "{}", lines[0]);
        let round =
            spec::workloads(true).into_iter().find(|w| w.name == "recompress_roundtrip").unwrap();
        let lines = command_lines(&round, &Layout::new(Path::new("work"), &round));
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("pmkm convert --codec=shuffle-rle --out=work/"));
        assert!(lines[1].starts_with("pmkm convert --codec=raw --out=work/"));
    }
}
