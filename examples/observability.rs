//! Tour of the observability layer (`pmkm-obs`): attach a recorder to both
//! the in-memory partial/merge pipeline and the stream engine, then inspect
//! the three outputs it produces —
//!
//! * a **structured event trace** (ring buffer in memory + JSONL run ledger
//!   on disk),
//! * a **metrics registry** (counters / gauges / histograms, renderable as
//!   Prometheus text),
//! * a **RunReport** (one JSON document per run: per-chunk MSE
//!   trajectories, queue-depth histograms, span-profiler phase breakdown),
//!
//! plus the two live surfaces added in PR 3: the **span profiler** (folded
//! stacks for flamegraphs) and the **HTTP exporter** (`/metrics`,
//! `/report.json`, `/healthz`).
//!
//! ```sh
//! cargo run --release --example observability
//! ```

use pmkm_core::{partial_merge_observed, KMeansConfig, PartialMergeConfig};
use pmkm_data::{CellConfig, GridBucket, GridCell};
use pmkm_obs::{LedgerSink, MetricsServer, PhaseReport, Profiler, Recorder, RingBufferSink};
use pmkm_stream::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("pmkm_obs_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;

    // A recorder fans every event out to its sinks; metrics live in its
    // registry. Both sinks here: a bounded in-memory ring (for programmatic
    // inspection) and a JSONL run ledger (for `pmkm inspect` and `pmkm diff`).
    let ledger_path = dir.join("ledger.jsonl");
    let ring = Arc::new(RingBufferSink::new(8192));
    let rec = Arc::new(
        Recorder::new()
            .with_sink(ring.clone())
            .with_sink(Arc::new(LedgerSink::create(&ledger_path)?))
            .with_profiler(Arc::new(Profiler::new())),
    );

    // ── 1. Observed in-memory partial/merge ────────────────────────────
    let points = pmkm_data::generator::generate_cell(&CellConfig::paper(20_000, 7))?;
    let pm = PartialMergeConfig {
        kmeans: KMeansConfig { restarts: 3, ..KMeansConfig::paper(40, 7) },
        partitions: 5,
        ..PartialMergeConfig::paper(40, 5, 7)
    };
    let (result, run_report) = partial_merge_observed(&points, &pm, Some(&rec))?;
    println!(
        "partial/merge: {} chunks -> {} centroids, MSE {:.1}",
        result.chunks.len(),
        result.merge.centroids.k(),
        result.merge.mse
    );
    for chunk in &run_report.cells[0].chunks {
        let t = &chunk.mse_trajectory;
        println!(
            "  chunk {}: {} points, best MSE {:>10.1}, trajectory {} -> {} over {} steps",
            chunk.chunk,
            chunk.points,
            chunk.best_mse,
            t.first().map(|v| format!("{v:.0}")).unwrap_or_default(),
            t.last().map(|v| format!("{v:.0}")).unwrap_or_default(),
            t.len()
        );
    }

    // ── 2. Observed stream-engine run over on-disk buckets ─────────────
    let mut paths = Vec::new();
    for (i, n) in [15_000usize, 6_000].into_iter().enumerate() {
        let cell = GridCell::new(100 + i as u16, 200)?;
        let pts = pmkm_data::generator::generate_cell(&CellConfig::paper(n, i as u64))?;
        let path = dir.join(cell.bucket_file_name());
        GridBucket { cell, points: pts }.write_to(&path)?;
        paths.push(path);
    }
    let logical =
        LogicalPlan::new(paths, KMeansConfig { restarts: 3, ..KMeansConfig::paper(40, 11) });
    let resources = Resources { chunk_memory_bytes: 256 << 10, ..Resources::detect() };
    let plan = optimize(logical, &resources);
    let before = rec.phase_rows();
    let report = execute_with_faults(&plan, Some(rec.clone()), None)?;
    println!(
        "\nengine: {} cells in {:.0} ms, {} partial clones",
        report.cells.len(),
        report.elapsed.as_secs_f64() * 1e3,
        plan.partial_clones
    );

    // Per-stage busy time: the profiler's top-level phases, less what the
    // in-memory run above booked. The partial step dominates and the merge
    // is mostly idle, the paper's §3.4 point.
    let booked = |rows: &[PhaseReport], path: &str| {
        rows.iter().find(|p| p.path == path).map_or(0, |p| p.total_us)
    };
    let stages: Vec<(u64, String)> = rec
        .phase_rows()
        .into_iter()
        .filter(|p| !p.path.contains('/'))
        .map(|p| (p.total_us - booked(&before, &p.path), p.path))
        .collect();
    let all_us = stages.iter().map(|(us, _)| us).sum::<u64>().max(1) as f64;
    println!("\n  {:<8} {:>10}  {:>6}", "stage", "busy", "share");
    for (us, stage) in &stages {
        let us = *us as f64;
        println!("  {stage:<8} {:>8.1}ms  {:>5.1}%", us / 1e3, 100.0 * us / all_us);
    }

    // ── 3. The three outputs ───────────────────────────────────────────
    let engine_report = report.run_report(Some(&rec));
    let report_path = dir.join("run_report.json");
    std::fs::write(&report_path, serde_json::to_string_pretty(&engine_report)?)?;
    rec.flush();
    println!("\nrun report : {}", report_path.display());
    println!("ledger     : {} ({} events buffered in the ring)", ledger_path.display(), ring.len());

    // Prometheus text rendering of the metrics registry (excerpt).
    let prom = rec.registry().render_prometheus();
    println!("\nmetrics (prometheus excerpt):");
    for line in prom.lines().filter(|l| l.contains("lloyd_iterations") || l.contains("partial_")) {
        println!("  {line}");
    }

    // ── 4. Span profiler: phase tree + folded stacks ───────────────────
    // Both runs above fed the same profiler; `phases` is the aggregated
    // tree (total vs self time), `folded()` is inferno-flamegraph input:
    //   cargo run --release --example observability  # then pipe folded
    //   lines into inferno-flamegraph > flame.svg
    println!("\nphase breakdown (total µs / self µs / calls):");
    for p in &engine_report.phases {
        println!("  {:<24} {:>10} {:>10} {:>7}", p.path, p.total_us, p.self_us, p.calls);
    }
    let folded = rec.profiler().expect("profiler attached").folded();
    println!("folded stacks: {} lines (flamegraph-ready)", folded.lines().count());

    // ── 5. HTTP exporter: scrape the run we just recorded ──────────────
    let server = MetricsServer::serve("127.0.0.1:0", rec.clone())?;
    server.set_report(engine_report);
    let addr = server.local_addr();
    println!("\nexporter at http://{addr}:");
    for path in ["/healthz", "/metrics", "/report.json"] {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr)?;
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        let status = response.lines().next().unwrap_or_default();
        println!("  GET {path:<13} -> {status} ({} bytes)", response.len());
        assert!(status.contains("200 OK"), "exporter probe failed: {status}");
    }
    server.shutdown();

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
