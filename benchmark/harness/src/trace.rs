//! The traced run: one extra CLI run per clustering workload with the
//! program's existing observers on (`--metrics-out`, and the ledger where
//! the workload already has one). Its `RunReport` JSON is read here as the
//! CLI's published output, not through library types. End-to-end numbers
//! never come from this run.

use crate::json::{items, number};
use serde::Value;

/// Where in the run report a row comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// `phases[path].self_us`, as seconds.
    PhaseSelf(&'static str),
    /// `phases[path].total_us` (the phase and its children), as seconds.
    PhaseTotal(&'static str),
    /// `metrics.counters[name].value`.
    Counter(&'static str),
    /// `orchestrator.<field>`.
    Orchestrator(&'static str),
    /// Mean of `timeline.workers[].utilization`.
    WorkerUtilization,
}

/// Name, unit and source of every row read from the report, in report
/// order. `trace_overhead_frac` and `insitu.cpu_explained_frac` need the
/// child's outside-measured times and are added by the caller.
const ROWS: [(&str, &str, Source); 19] = [
    ("insitu.scan_s", "s", Source::PhaseSelf("scan")),
    ("insitu.chunk_s", "s", Source::PhaseSelf("chunk")),
    ("insitu.partial_seed_s", "s", Source::PhaseSelf("partial/seed")),
    ("insitu.partial_assign_s", "s", Source::PhaseSelf("partial/assign")),
    ("insitu.partial_update_s", "s", Source::PhaseSelf("partial/update")),
    ("insitu.partial_converge_s", "s", Source::PhaseSelf("partial/converge")),
    ("insitu.partial_self_s", "s", Source::PhaseSelf("partial")),
    ("insitu.coreset_s", "s", Source::PhaseSelf("coreset")),
    ("insitu.merge_s", "s", Source::PhaseTotal("merge")),
    ("insitu.worker_utilization", "ratio", Source::WorkerUtilization),
    ("insitu.lloyd_iterations", "count", Source::Counter("lloyd_iterations_total")),
    ("insitu.assign_points", "count", Source::Counter("kernel_fused_points_total")),
    ("insitu.assign_rescued", "count", Source::Counter("kernel_fused_rescued_total")),
    ("insitu.scan_payload_bytes", "bytes", Source::Counter("scan_payload_bytes_total")),
    ("insitu.scan_stored_bytes", "bytes", Source::Counter("scan_stored_bytes_total")),
    ("insitu.coreset_builds", "count", Source::Counter("coreset_builds_total")),
    ("insitu.coreset_compactions", "count", Source::Counter("coreset_compactions_total")),
    ("insitu.steals", "count", Source::Orchestrator("steals")),
    ("insitu.checkpoints_written", "count", Source::Orchestrator("checkpoints_written")),
];

/// The two rows computed from outside-measured times, then [`ROWS`].
pub fn metrics() -> Vec<(&'static str, &'static str)> {
    let mut all = vec![("trace_overhead_frac", "ratio"), ("insitu.cpu_explained_frac", "ratio")];
    all.extend(ROWS.iter().map(|(name, unit, _)| (*name, *unit)));
    all
}

fn phase(report: &Value, path: &str, field: &str) -> Option<f64> {
    items(report.get("phases"))
        .iter()
        .find(|p| matches!(p.get("path"), Some(Value::Str(s)) if s == path))
        .and_then(|p| number(p.get(field)))
        .map(|us| us / 1e6)
}

fn read(report: &Value, source: Source) -> Option<f64> {
    match source {
        Source::PhaseSelf(path) => phase(report, path, "self_us"),
        Source::PhaseTotal(path) => phase(report, path, "total_us"),
        Source::Counter(name) => items(report.get("metrics")?.get("counters"))
            .iter()
            .find(|c| matches!(c.get("name"), Some(Value::Str(s)) if s == name))
            .and_then(|c| number(c.get("value"))),
        Source::Orchestrator(field) => number(report.get("orchestrator")?.get(field)),
        Source::WorkerUtilization => {
            let lanes: Vec<f64> = items(report.get("timeline")?.get("workers"))
                .iter()
                .filter_map(|w| number(w.get("utilization")))
                .collect();
            (!lanes.is_empty()).then(|| lanes.iter().sum::<f64>() / lanes.len() as f64)
        }
    }
}

/// What one run report carries: each row of [`ROWS`] it has (a phase or
/// counter it lacks is left out, never reported as zero), and the summed
/// self time of every phase, which `insitu.cpu_explained_frac` divides by
/// the child's CPU seconds.
pub struct Insitu {
    pub rows: Vec<(&'static str, f64)>,
    pub phase_self_s: f64,
}

/// Reads the run report the traced run wrote.
pub fn read_report(json: &str) -> Result<Insitu, String> {
    let report: Value = serde_json::from_str(json).map_err(|e| format!("run report: {e}"))?;
    let rows = ROWS
        .iter()
        .filter_map(|(name, _, source)| Some((*name, read(&report, *source)?)))
        .collect();
    let phase_self_s =
        items(report.get("phases")).iter().filter_map(|p| number(p.get("self_us"))).sum::<f64>()
            / 1e6;
    Ok(Insitu { rows, phase_self_s })
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
      "schema_version": 7,
      "phases": [
        {"path": "merge", "calls": 4, "total_us": 1900, "self_us": 173, "wall_us": 590},
        {"path": "merge/assign", "calls": 40, "total_us": 1528, "self_us": 1528, "wall_us": 461},
        {"path": "partial", "calls": 40, "total_us": 4421080, "self_us": 40440, "wall_us": 1516713},
        {"path": "partial/assign", "calls": 10590, "total_us": 4250668, "self_us": 4250668, "wall_us": 1},
        {"path": "scan", "calls": 4, "total_us": 41587, "self_us": 41587, "wall_us": 19277}
      ],
      "metrics": {"counters": [
        {"name": "kernel_fused_points_total", "value": 26491000},
        {"name": "lloyd_iterations_total", "value": 10226}
      ], "gauges": [], "histograms": []},
      "orchestrator": {"jobs": 2, "steals": 3, "checkpoints_written": 0},
      "timeline": {"workers": [{"worker": "w0", "utilization": 0.9}, {"worker": "w1", "utilization": 0.7}]},
      "coreset": null
    }"#;

    fn row(insitu: &Insitu, name: &str) -> Option<f64> {
        insitu.rows.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    #[test]
    fn reads_phases_counters_and_blocks() {
        let insitu = read_report(REPORT).unwrap();
        assert_eq!(row(&insitu, "insitu.partial_assign_s"), Some(4.250668));
        assert_eq!(row(&insitu, "insitu.partial_self_s"), Some(0.04044));
        assert_eq!(row(&insitu, "insitu.merge_s"), Some(0.0019));
        assert_eq!(row(&insitu, "insitu.assign_points"), Some(26_491_000.0));
        assert_eq!(row(&insitu, "insitu.steals"), Some(3.0));
        assert_eq!(row(&insitu, "insitu.checkpoints_written"), Some(0.0));
        assert!((row(&insitu, "insitu.worker_utilization").unwrap() - 0.8).abs() < 1e-12);
        let explained = 173.0 + 1528.0 + 40_440.0 + 4_250_668.0 + 41_587.0;
        assert!((insitu.phase_self_s - explained / 1e6).abs() < 1e-12);
    }

    #[test]
    fn a_row_the_report_lacks_is_absent_not_zero() {
        let insitu = read_report(REPORT).unwrap();
        for absent in
            ["insitu.coreset_s", "insitu.chunk_s", "insitu.coreset_builds", "insitu.assign_rescued"]
        {
            assert_eq!(row(&insitu, absent), None, "{absent}");
        }
        assert!(read_report("not json").is_err());
        assert!(read_report("{}").unwrap().rows.is_empty());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = metrics().iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ROWS.len() + 2);
    }
}
