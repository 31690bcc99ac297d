//! `pmkm_benchmark compare A.json B.json`: one row per workload × end-to-end
//! metric, with a verdict under the metric's bound.

use crate::json::{items, number, string};
use crate::spec;
use crate::stats::{self, Summary, Verdict};
use serde::Value;

fn summary(metric: &Value) -> Option<Summary> {
    Some(Summary {
        n: number(metric.get("n"))? as usize,
        median: number(metric.get("median"))?,
        min: number(metric.get("min"))?,
        max: number(metric.get("max"))?,
        q1: number(metric.get("q1"))?,
        q3: number(metric.get("q3"))?,
    })
}

fn workload<'a>(result: &'a Value, name: &str) -> Option<&'a Value> {
    items(result.get("workloads")).iter().find(|w| string(w.get("name")) == name)
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: Summary,
    pub b: Summary,
    /// `b.median ÷ a.median`.
    pub ratio: f64,
    pub verdict: Verdict,
}

/// Exact counts (probe rows without samples, traced counts) present in both
/// results whose values differ: `(name, a, b)`.
fn differing_counts(a: &Value, b: &Value) -> (usize, Vec<(String, f64, f64)>) {
    let mut pairs: Vec<(String, Option<f64>, Option<f64>)> = Vec::new();
    for pa in items(a.get("probes")).iter().filter(|p| items(p.get("samples")).is_empty()) {
        let name = string(pa.get("name"));
        let pb = items(b.get("probes")).iter().find(|p| string(p.get("name")) == name);
        pairs.push((
            name.to_string(),
            number(pa.get("value")),
            pb.and_then(|p| number(p.get("value"))),
        ));
    }
    for wa in items(a.get("workloads")) {
        let name = string(wa.get("name"));
        let (Some(Value::Map(ta)), Some(wb)) = (wa.get("traced"), workload(b, name)) else {
            continue;
        };
        for (row, va) in ta.iter().filter(|(row, _)| is_count(row)) {
            let vb = wb.get("traced").and_then(|t| t.get(row));
            pairs.push((format!("{name}.{row}"), number(Some(va)), number(vb)));
        }
        pairs.push((
            format!("{name}.sse_ratio_vs_serial"),
            wa.get("end_to_end").and_then(|e| number(e.get("sse_ratio_vs_serial")?.get("median"))),
            wb.get("end_to_end").and_then(|e| number(e.get("sse_ratio_vs_serial")?.get("median"))),
        ));
    }
    let differing: Vec<_> = pairs
        .iter()
        .filter_map(|(name, a, b)| match (a, b) {
            (Some(a), Some(b)) if a != b => Some((name.clone(), *a, *b)),
            _ => None,
        })
        .collect();
    (pairs.len(), differing)
}

/// Traced rows that are counts made by the program, not times.
fn is_count(row: &str) -> bool {
    row.starts_with("insitu.")
        && !row.ends_with("_s")
        && !row.ends_with("_frac")
        && row != "insitu.worker_utilization"
        // Work stealing depends on thread timing.
        && row != "insitu.steals"
}

/// Compares two parsed result files. `Err` when they must not be compared.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let (mode_a, mode_b) = (string(a.get("mode")), string(b.get("mode")));
    if mode_a != mode_b {
        return Err(format!("refusing to compare a {mode_a} result with a {mode_b} result"));
    }
    let mut rows = Vec::new();
    for wa in items(a.get("workloads")) {
        let name = string(wa.get("name"));
        let wb =
            workload(b, name).ok_or(format!("workload {name} is missing from the second file"))?;
        for metric in &spec::END_TO_END {
            let read = |w: &Value| w.get("end_to_end")?.get(metric.name).and_then(summary);
            let (Some(sa), Some(sb)) = (read(wa), read(wb)) else {
                return Err(format!("{name}.{} is missing from one file", metric.name));
            };
            let (ratio, verdict) = stats::verdict(&sa, &sb, metric.better, metric.bound);
            rows.push(Row {
                workload: name.to_string(),
                metric: metric.name,
                a: sa,
                b: sb,
                ratio,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Loads, compares and prints. Returns the process exit code: 0 unless a
/// row is `worse`, 2 when the files cannot be compared.
pub fn run(path_a: &str, path_b: &str) -> i32 {
    let load = |path: &str| -> Result<Value, String> {
        let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&json).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let rows = match compare(&a, &b) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    println!(
        "A = {path_a} ({}, seed {}), B = {path_b} ({}, seed {}); ratio = B median / A median",
        string(a.get("label")),
        number(a.get("seed")).unwrap_or(f64::NAN),
        string(b.get("label")),
        number(b.get("seed")).unwrap_or(f64::NAN),
    );
    println!(
        "{:<22} {:<20} {:>6} {:>13} {:>11} {:>13} {:>11} {:>7}  verdict",
        "workload", "metric", "bound", "A median", "A iqr", "B median", "B iqr", "B/A"
    );
    for r in &rows {
        let bound = spec::end_to_end(r.metric).expect("known metric").bound;
        println!(
            "{:<22} {:<20} {:>6} {:>13.5} {:>11.5} {:>13.5} {:>11.5} {:>7.4}  {}",
            r.workload,
            r.metric,
            bound,
            r.a.median,
            r.a.q3 - r.a.q1,
            r.b.median,
            r.b.q3 - r.b.q1,
            r.ratio,
            r.verdict.label()
        );
    }
    let tally = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} row(s): {} better, {} within-bound, {} worse, {} unresolved",
        rows.len(),
        tally(Verdict::Better),
        tally(Verdict::WithinBound),
        tally(Verdict::Worse),
        tally(Verdict::Unresolved)
    );
    let (counts, differing) = differing_counts(&a, &b);
    println!("exact counts: {} compared, {} differ", counts, differing.len());
    for (name, va, vb) in &differing {
        println!("  {name}: A {va} B {vb}");
    }
    i32::from(tally(Verdict::Worse) > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{count, obj, text};

    fn metric(median: f64, spread: f64) -> Value {
        obj(vec![
            ("n", count(5)),
            ("median", Value::F64(median)),
            ("min", Value::F64(median * (1.0 - spread))),
            ("max", Value::F64(median * (1.0 + spread))),
            ("q1", Value::F64(median * (1.0 - spread / 2.0))),
            ("q3", Value::F64(median * (1.0 + spread / 2.0))),
        ])
    }

    fn result(mode: &str, wall: f64, spread: f64) -> Value {
        let end_to_end = spec::END_TO_END
            .iter()
            .map(|m| {
                (m.name, if m.name == "wall_s" { metric(wall, spread) } else { metric(1.0, 0.0) })
            })
            .collect();
        let workload = obj(vec![("name", text("planet_classic")), ("end_to_end", obj(end_to_end))]);
        obj(vec![("mode", text(mode)), ("workloads", Value::Seq(vec![workload]))])
    }

    fn wall_verdict(rows: &[Row]) -> Verdict {
        rows.iter().find(|r| r.metric == "wall_s").unwrap().verdict
    }

    #[test]
    fn one_row_per_workload_and_metric_with_the_right_verdict() {
        let bound = spec::end_to_end("wall_s").unwrap().bound;
        let base = result("full", 4.0, 0.01);
        let against = |wall: f64, spread: f64| {
            wall_verdict(&compare(&base, &result("full", wall, spread)).unwrap())
        };
        assert_eq!(compare(&base, &base).unwrap().len(), spec::END_TO_END.len());
        assert_eq!(against(4.0 * (1.0 + bound / 2.0), 0.01), Verdict::WithinBound);
        assert_eq!(against(4.0 * (1.0 + bound * 1.5), 0.01), Verdict::Worse);
        assert_eq!(against(4.0 * (1.0 - bound * 1.5), 0.01), Verdict::Better);
        assert_eq!(against(4.0 * (1.0 + bound * 1.5), bound * 2.5), Verdict::Unresolved);
    }

    #[test]
    fn refuses_to_mix_quick_with_full_or_missing_workloads() {
        assert!(compare(&result("quick", 4.0, 0.0), &result("full", 4.0, 0.0)).is_err());
        let empty = obj(vec![("mode", text("full")), ("workloads", Value::Seq(vec![]))]);
        assert!(compare(&result("full", 4.0, 0.0), &empty).is_err());
        assert!(compare(&empty, &result("full", 4.0, 0.0)).unwrap().is_empty());
    }

    #[test]
    fn only_program_counts_are_held_to_exact_equality() {
        assert!(is_count("insitu.lloyd_iterations") && is_count("insitu.scan_stored_bytes"));
        for timed in [
            "insitu.scan_s",
            "insitu.cpu_explained_frac",
            "insitu.worker_utilization",
            "insitu.steals",
            "trace_overhead_frac",
        ] {
            assert!(!is_count(timed), "{timed}");
        }
    }
}
