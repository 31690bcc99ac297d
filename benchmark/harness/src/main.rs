//! `pmkm_benchmark`: the repo's one benchmark.
//!
//! * `pmkm_benchmark [--seed N] [--quick] [--label L] [--results-dir D]
//!   [--work-dir W] [--commit C]` runs every workload and every probe, prints every
//!   metric by name with its unit, and writes `D/L.json`.
//! * `pmkm_benchmark --workload W --seed N --seconds S --trace 0|1` runs
//!   one workload for the acceptance driver and prints one JSON object as
//!   the last line of stdout (`--trace 0`: end-to-end metrics, `--trace 1`:
//!   per-layer metrics).
//! * `pmkm_benchmark compare A.json B.json` compares two result files.
//!
//! `benchmark/run.sh` builds this binary and the `pmkm` CLI into one
//! directory and forwards its arguments here; `benchmark/README.md` says
//! what every number means.

mod api;
mod child;
mod compare;
mod json;
mod parse;
mod probes;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::{count, obj, text};
use serde::Value;
use spec::{Effort, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Context, Layout};

/// Exit code of a guard rail: the benchmark refuses to run at all.
const REFUSED: i32 = 2;

fn refuse(message: &str) -> ! {
    eprintln!("pmkm_benchmark: {message}");
    std::process::exit(REFUSED);
}

/// `--name value` and `--name=value` options plus bare flags.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<String> {
        let flag = format!("--{name}");
        let prefix = format!("--{name}=");
        self.0.iter().enumerate().find_map(|(i, a)| {
            if *a == flag {
                self.0.get(i + 1).cloned()
            } else {
                a.strip_prefix(&prefix).map(str::to_string)
            }
        })
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => {
                v.parse().unwrap_or_else(|_| refuse(&format!("bad value for --{name}: {v}")))
            }
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| *a == format!("--{name}"))
    }
}

/// Checks the guard rails and builds the invocation's context.
fn context(args: &Args, seed: u64, quick: bool) -> Context {
    let cores = report::nproc();
    if cores < spec::JOBS {
        refuse(&format!(
            "this machine has {cores} core(s); every workload runs --jobs={} and oversubscribed \
             numbers are not published",
            spec::JOBS
        ));
    }
    let self_exe = std::env::current_exe()
        .unwrap_or_else(|e| refuse(&format!("cannot locate this executable: {e}")));
    let bin_dir = self_exe.parent().unwrap_or(Path::new(".")).to_path_buf();
    let pmkm = bin_dir.join("pmkm");
    if !pmkm.is_file() {
        refuse(&format!(
            "{} is missing; benchmark/run.sh builds it beside this executable",
            pmkm.display()
        ));
    }
    // target/release/pmkm_benchmark -> target/pmkm_benchmark/
    let default_work = bin_dir.parent().unwrap_or(&bin_dir).join("pmkm_benchmark");
    let work_dir = args.value("work-dir").map_or(default_work, PathBuf::from);
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        refuse(&format!("cannot create the work directory {}: {e}", work_dir.display()));
    }
    let work_dir = work_dir.canonicalize().unwrap_or(work_dir);
    Context { pmkm, self_exe, work_dir, seed, quick }
}

fn find_workload(name: &str, quick: bool) -> Workload {
    spec::workloads(quick)
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| refuse(&format!("unknown workload '{name}'")))
}

/// The `__setup`, `__verify` and `__report` children (see `workloads.rs`):
/// `__x WORKLOAD SEED QUICK WORK_DIR [EXTRA]`.
fn inspection_child(subcommand: &str, rest: &[String]) -> Result<(), String> {
    let [name, seed, quick, work_dir, extra @ ..] = rest else {
        return Err(format!("{subcommand}: expected WORKLOAD SEED QUICK WORK_DIR"));
    };
    let workload = find_workload(name, quick == "1");
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let layout = Layout::new(Path::new(work_dir), &workload);
    let rows = match subcommand {
        "__setup" => return workloads::generate_inputs(&workload, seed, &layout),
        "__verify" => {
            let printed = extra.first().ok_or("__verify: expected the CLI's stdout file")?;
            let printed =
                std::fs::read_to_string(printed).map_err(|e| format!("{printed}: {e}"))?;
            workloads::verify(&workload, seed, &layout, &printed)?
        }
        "__report" => workloads::report_rows(&layout)?,
        other => return Err(format!("unknown subcommand {other}")),
    };
    for (name, value) in rows {
        println!("{name} {value:?}");
    }
    Ok(())
}

/// One workload for the acceptance driver.
fn driver_run(args: &Args, name: &str) -> Result<i32, String> {
    let seed = args.parsed("seed", 42u64);
    let seconds = args.parsed("seconds", 10.0f64);
    let trace = args.parsed("trace", 0u8) != 0;
    let ctx = context(args, seed, false);
    let workload = find_workload(name, false);
    let effort = Effort::driver(seconds);

    let (attempted, failed, metrics) = if trace {
        let layout = Layout::new(&ctx.work_dir, &workload);
        workloads::set_up(&ctx, &workload, 0)?;
        let untraced = workloads::run_once(&ctx, &workload, &layout, "untraced", false)?;
        let traced = workloads::traced(&ctx, &workload, &untraced.epm)?;
        let probes = probes::run(&ctx, &effort)?;
        report::print_probes(&probes);
        // The driver's line has no way to say `absent`: such a row is 0 there.
        let rows = report::trace_rows(traced.as_ref(), untraced.wall_s);
        report::print_trace_rows(&rows);
        let mut metrics: Vec<(String, Value)> = rows
            .iter()
            .map(|(name, unit, value)| (name.to_string(), metric_value(value.unwrap_or(0.0), unit)))
            .collect();
        metrics.extend(probes.iter().map(|p| (p.name.to_string(), metric_value(p.value, p.unit))));
        let runs = 1 + usize::from(traced.is_some());
        let failed = untraced.failed + traced.map_or(0, |t| t.failed);
        (runs * workload.cells, failed, metrics)
    } else {
        let measured = workloads::measure(&ctx, &workload, &effort)?;
        report::print_workload(&workload, &measured, None);
        let metrics = report::end_to_end_samples(&workload, &measured)
            .into_iter()
            .map(|(name, samples)| {
                let unit = spec::end_to_end(name).expect("known metric").unit;
                (name.to_string(), metric_value(stats::median(&samples), unit))
            })
            .collect();
        (measured.attempted, measured.failed, metrics)
    };
    let line = obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", count(attempted)),
        ("failed", count(failed)),
        ("metrics", Value::Map(metrics)),
    ]);
    println!("{}", serde_json::to_string(&line).map_err(|e| e.to_string())?);
    Ok(0)
}

fn metric_value(value: f64, unit: &str) -> Value {
    obj(vec![("value", Value::F64(value)), ("unit", text(unit))])
}

/// Every workload and every probe; writes the result file.
fn suite(args: &Args) -> Result<i32, String> {
    let seed = args.parsed("seed", 42u64);
    let quick = args.flag("quick");
    let ctx = context(args, seed, quick);
    let effort = if quick { Effort::QUICK } else { Effort::FULL };
    let mode = if quick { "quick" } else { "full" };
    let label = args.value("label").unwrap_or_else(|| format!("latest-{mode}"));
    let results_dir =
        PathBuf::from(args.value("results-dir").unwrap_or_else(|| "benchmark/results".into()));
    let machine = report::machine_key(args.value("commit"));
    println!("pmkm_benchmark {mode} run, seed {seed}, label {label}");
    println!("machine: {}", serde_json::to_string(&machine).map_err(|e| e.to_string())?);
    println!(
        "closed loop, one client, --jobs={}; per workload 1 untimed warm-up then {} timed run(s) \
         with every observer off.\n{} samples support a median and quartiles but no tail \
         percentile, so none is reported.",
        spec::JOBS,
        effort.min_runs,
        effort.min_runs
    );

    let started = Instant::now();
    let (mut entries, mut failed_total, mut setup_total) = (Vec::new(), 0, 0.0);
    let mut wall_per_cell = std::collections::BTreeMap::new();
    for workload in spec::workloads(quick) {
        let layout = Layout::new(&ctx.work_dir, &workload);
        let measured = workloads::measure(&ctx, &workload, &effort)?;
        let traced = workloads::traced(&ctx, &workload, &measured.epm)?;
        report::print_workload(&workload, &measured, traced.as_ref());
        let wall: Vec<f64> = measured.runs.iter().map(|r| r.wall_s).collect();
        wall_per_cell.insert(workload.name, stats::median(&wall) / workload.cells as f64);
        setup_total += stats::median(&measured.setup_s);
        failed_total += measured.failed + traced.as_ref().map_or(0, |t| t.failed);
        let commands = workloads::command_lines(&workload, &layout);
        entries.push(report::workload_value(&workload, &commands, &measured, traced.as_ref()));
    }
    // Probes run last: they grow this process, and a grown parent puts a
    // floor under the peak RSS of every child it spawns afterwards.
    let probes = probes::run(&ctx, &effort)?;
    report::print_probes(&probes);

    let observer_cost = wall_per_cell["small_cells_journaled"] / wall_per_cell["small_cells_bare"];
    println!("\n== derived, printed but not gated ==");
    println!(
        "  small_cells_journaled wall_s per cell / small_cells_bare wall_s per cell = {observer_cost:.3} \
         (cost of observers on)"
    );
    println!("  setup_s over all workloads = {setup_total:.3} s");
    println!("whole benchmark took {:.1} s", started.elapsed().as_secs_f64());

    let result = obj(vec![
        ("schema", count(1)),
        ("label", text(&label)),
        ("mode", text(mode)),
        ("seed", Value::U64(seed)),
        ("machine", machine),
        ("setup_total_s", Value::F64(setup_total)),
        ("journaled_vs_bare_wall_per_cell", Value::F64(observer_cost)),
        ("workloads", Value::Seq(entries)),
        ("probes", Value::Seq(probes.iter().map(report::probe_value).collect())),
    ]);
    std::fs::create_dir_all(&results_dir).map_err(|e| format!("{}: {e}", results_dir.display()))?;
    let path = results_dir.join(format!("{label}.json"));
    let json = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
    std::fs::write(&path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if failed_total > 0 {
        eprintln!("pmkm_benchmark: {failed_total} cell(s)/file(s) failed a correctness check");
        return Ok(1);
    }
    Ok(0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => Ok(compare::run(a, b)),
            _ => Err("usage: pmkm_benchmark compare A.json B.json".to_string()),
        },
        Some(sub) if sub.starts_with("__") => inspection_child(sub, &argv[1..]).map(|()| 0),
        _ => {
            let args = Args(argv);
            match args.value("workload") {
                Some(name) => driver_run(&args, &name),
                None => suite(&args),
            }
        }
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("pmkm_benchmark: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_in_both_spellings() {
        let args = Args(["--seed", "7", "--trace=1", "--quick"].map(String::from).to_vec());
        assert_eq!(args.parsed("seed", 0u64), 7);
        assert_eq!(args.parsed("trace", 0u8), 1);
        assert_eq!(args.parsed("seconds", 10.0f64), 10.0);
        assert!(args.flag("quick") && !args.flag("seed=7"));
    }

    /// `BENCHMARK.json` repeats what `spec.rs`, `probes.rs` and `trace.rs`
    /// define; this keeps them from drifting apart.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let manifest: Value =
            serde_json::from_str(include_str!("../../../BENCHMARK.json")).unwrap();
        let list = |key: &str| json::items(manifest.get(key)).to_vec();
        let field = |v: &Value, key: &str| json::string(v.get(key)).to_string();

        let workloads = spec::workloads(false);
        let names: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, workloads.iter().map(|w| w.name).collect::<Vec<_>>());

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), spec::END_TO_END.len());
        for (listed, metric) in end_to_end.iter().zip(&spec::END_TO_END) {
            assert_eq!(field(listed, "name"), metric.name);
            assert_eq!(field(listed, "unit"), metric.unit);
            let better = match metric.better {
                stats::Better::Lower => "lower",
                stats::Better::Higher => "higher",
            };
            assert_eq!(field(listed, "better"), better);
            assert_eq!(listed.get("bound"), Some(&Value::F64(metric.bound)), "{}", metric.name);
        }

        let per_layer: Vec<(String, String)> =
            list("per_layer").iter().map(|m| (field(m, "name"), field(m, "unit"))).collect();
        let expected: Vec<(String, String)> = trace::metrics()
            .into_iter()
            .chain(probes::METRICS)
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect();
        assert_eq!(per_layer, expected);
    }
}
