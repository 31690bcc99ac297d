//! Turns measurements into the result file and the printed tables.

use crate::json::{count, numbers, obj, text};
use crate::probes::Probe;
use crate::spec::{self, Kind, Workload};
use crate::stats::{self, Summary};
use crate::trace;
use crate::workloads::{Measured, Traced};
use serde::Value;

/// The machine and build a result was recorded on. `commit` overrides what
/// git reports (for runs from an exported tree that is not a repository).
pub fn machine_key(commit: Option<String>) -> Value {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    obj(vec![
        ("cpu_model", text(&cpu_model)),
        ("nproc", count(nproc())),
        ("rustc", text(&command("rustc", &["--version"]))),
        (
            "commit",
            text(&commit.unwrap_or_else(|| {
                command("git", &["describe", "--always", "--dirty", "--abbrev=40"])
            })),
        ),
    ])
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One workload's end-to-end samples, by metric name in [`spec::END_TO_END`]
/// order. `sse_ratio_vs_serial` is deterministic and has one sample.
pub fn end_to_end_samples(workload: &Workload, m: &Measured) -> Vec<(&'static str, Vec<f64>)> {
    let per_run = |f: fn(&crate::workloads::RunSample) -> f64| m.runs.iter().map(f).collect();
    let points = workload.points_per_run() as f64;
    vec![
        ("setup_s", m.setup_s.clone()),
        ("wall_s", per_run(|r| r.wall_s)),
        ("points_per_s", m.runs.iter().map(|r| points / r.wall_s).collect()),
        ("cpu_s", per_run(|r| r.cpu_s)),
        ("peak_rss_mb", per_run(|r| r.peak_rss_mb)),
        ("sse_ratio_vs_serial", vec![m.sse_ratio]),
    ]
}

/// `wall_s` samples ranging over more than twice their bound: not one
/// population (see the recompress delete/overwrite effect in the README).
pub fn is_unstable(m: &Measured) -> bool {
    let wall: Vec<f64> = m.runs.iter().map(|r| r.wall_s).collect();
    let bound = spec::end_to_end("wall_s").expect("wall_s is an end-to-end metric").bound;
    stats::unstable(&wall, bound)
}

/// Trace rows of one workload in [`trace::metrics`] order; `None` where the
/// run report carried no such row (or the workload has no traced run).
pub fn trace_rows(
    traced: Option<&Traced>,
    untraced_wall_s: f64,
) -> Vec<(&'static str, &'static str, Option<f64>)> {
    trace::metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = traced.and_then(|t| match name {
                "trace_overhead_frac" => Some(t.wall_s / untraced_wall_s - 1.0),
                "insitu.cpu_explained_frac" => Some(t.rows.get("phase_self_s")? / t.cpu_s),
                _ => t.rows.get(name).copied(),
            });
            (name, unit, value)
        })
        .collect()
}

fn summary_value(unit: &str, samples: &[f64]) -> Value {
    let s = stats::summarize(samples);
    obj(vec![
        ("unit", text(unit)),
        ("n", count(s.n)),
        ("median", Value::F64(s.median)),
        ("min", Value::F64(s.min)),
        ("max", Value::F64(s.max)),
        ("q1", Value::F64(s.q1)),
        ("q3", Value::F64(s.q3)),
        ("samples", numbers(samples)),
    ])
}

/// One workload's entry in the result file.
pub fn workload_value(
    workload: &Workload,
    commands: &[String],
    m: &Measured,
    traced: Option<&Traced>,
) -> Value {
    let samples = end_to_end_samples(workload, m);
    let median_of = |name: &str| {
        stats::median(&samples.iter().find(|(n, _)| *n == name).expect("known metric").1)
    };
    let end_to_end = samples
        .iter()
        .map(|(name, values)| {
            let unit = spec::end_to_end(name).expect("known metric").unit;
            (name.to_string(), summary_value(unit, values))
        })
        .collect();
    let attempted = m.attempted + traced.map_or(0, |_| workload.cells);
    let failed = m.failed + traced.map_or(0, |t| t.failed);
    let trace = trace_rows(traced, median_of("wall_s"))
        .into_iter()
        .map(|(name, _, value)| (name.to_string(), value.map_or(Value::Null, Value::F64)))
        .collect();
    obj(vec![
        ("name", text(workload.name)),
        ("why", text(workload.why)),
        ("cells", count(workload.cells)),
        ("points_per_run", Value::U64(workload.points_per_run())),
        ("commands", Value::Seq(commands.iter().map(|c| text(c)).collect())),
        ("timed_runs", count(m.runs.len())),
        ("unstable", Value::Bool(is_unstable(m))),
        ("attempted", count(attempted)),
        ("failed", count(failed)),
        ("failed_frac", Value::F64(failed as f64 / attempted as f64)),
        ("end_to_end", Value::Map(end_to_end)),
        ("cpu_per_wall", Value::F64(median_of("cpu_s") / median_of("wall_s"))),
        ("traced", if traced.is_some() { Value::Map(trace) } else { Value::Null }),
    ])
}

pub fn probe_value(p: &Probe) -> Value {
    obj(vec![
        ("name", text(p.name)),
        ("unit", text(p.unit)),
        ("value", Value::F64(p.value)),
        ("work", text(&p.work)),
        ("samples", numbers(&p.samples)),
    ])
}

// --------------------------------------------------------------- tables ----

fn fmt(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".to_string()
    } else if a >= 1e6 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

fn summary_line(s: &Summary) -> String {
    if s.n == 1 {
        "n=1".to_string()
    } else {
        format!("min {} q1 {} q3 {} max {} n={}", fmt(s.min), fmt(s.q1), fmt(s.q3), fmt(s.max), s.n)
    }
}

/// Prints one workload's end-to-end and traced rows.
pub fn print_workload(workload: &Workload, m: &Measured, traced: Option<&Traced>) {
    let shape = match workload.kind {
        Kind::Cluster { .. } => "clustered per run",
        Kind::Recompress => "converted per run, both legs",
    };
    println!(
        "\n== {} — {} cells x {} pts, {} pts {shape}; {} timed run(s){} ==",
        workload.name,
        workload.cells,
        workload.points_per_cell,
        workload.points_per_run(),
        m.runs.len(),
        if is_unstable(m) { "; UNSTABLE: wall_s samples range over twice their bound" } else { "" },
    );
    let samples = end_to_end_samples(workload, m);
    for (name, values) in &samples {
        let metric = spec::end_to_end(name).expect("known metric");
        let s = stats::summarize(values);
        println!("  {:<24} {:>14} {:<9} [{}]", name, fmt(s.median), metric.unit, summary_line(&s));
    }
    println!(
        "  {:<24} {:>14} {:<9} [{} of {} cells/files failed a check]",
        "failed_frac",
        fmt(m.failed as f64 / m.attempted as f64),
        "fraction",
        m.failed,
        m.attempted
    );
    let median_of =
        |name: &str| stats::median(&samples.iter().find(|(n, _)| *n == name).expect("known").1);
    println!(
        "  {:<24} {:>14} {:<9} [cores kept busy; derived, not gated]",
        "cpu_s/wall_s",
        fmt(median_of("cpu_s") / median_of("wall_s")),
        "ratio"
    );
    if traced.is_some() {
        println!("  traced run (observers on; never the source of the numbers above):");
        print_trace_rows(&trace_rows(traced, median_of("wall_s")));
    }
}

/// Prints traced rows; one the run report did not carry reads `absent`.
pub fn print_trace_rows(rows: &[(&str, &str, Option<f64>)]) {
    for (name, unit, value) in rows {
        match value {
            Some(v) => println!("    {:<28} {:>14} {}", name, fmt(*v), unit),
            None => println!("    {:<28} {:>14}", name, "absent"),
        }
    }
}

pub fn print_probes(probes: &[Probe]) {
    println!("\n== layer probes (single-threaded, timed from outside the library) ==");
    for p in probes {
        println!("  {:<30} {:>12} {:<7} {}", p.name, fmt(p.value), p.unit, p.work);
    }
}
