//! Drive the Conquest-style stream engine directly: scan grid-bucket files
//! through the chunker into cloned partial k-means operators and the merge
//! operator, then inspect the engine telemetry (the paper's §3.4 claims —
//! the partial operator dominates, the merge operator idles — are visible
//! in the profiler's per-stage busy time).
//!
//! ```sh
//! cargo run --release --example streaming_pipeline
//! ```

use pmkm_core::KMeansConfig;
use pmkm_data::{CellConfig, GridBucket, GridCell};
use pmkm_obs::{Profiler, Recorder};
use pmkm_stream::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three grid buckets of different sizes, on disk.
    let dir = std::env::temp_dir().join(format!("pmkm_pipeline_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let mut paths = Vec::new();
    for (i, n) in [30_000usize, 12_000, 4_000].into_iter().enumerate() {
        let cell = GridCell::new(100 + i as u16, 200)?;
        let points = pmkm_data::generator::generate_cell(&CellConfig::paper(n, i as u64))?;
        let path = dir.join(cell.bucket_file_name());
        GridBucket { cell, points }.write_to(&path)?;
        paths.push(path);
    }

    // Logical plan: cluster each bucket with k = 40, best-of-3 restarts.
    let logical =
        LogicalPlan::new(paths, KMeansConfig { restarts: 3, ..KMeansConfig::paper(40, 11) });

    // The optimizer sizes chunks from the memory budget and clones the
    // partial operator across the detected processors. A small 256 KiB
    // budget forces real chunking (≈5,400 six-dim points per chunk).
    let resources = Resources { chunk_memory_bytes: 256 << 10, ..Resources::detect() };
    let plan = optimize(logical, &resources);
    println!(
        "physical plan: {} partial clones, chunk policy {:?}",
        plan.partial_clones, plan.chunk_policy
    );

    // A recorder without sinks journals nothing; its span profiler books
    // each stage's busy time.
    let rec = Arc::new(Recorder::new().with_profiler(Arc::new(Profiler::new())));
    let report = execute_with_faults(&plan, Some(rec.clone()), None)?;
    println!("\nengine finished in {:.0} ms", report.elapsed.as_secs_f64() * 1e3);
    for cell in &report.cells {
        println!(
            "  cell {}: {} chunks -> {} centroids, E_pm = {:.1}",
            cell.cell.index(),
            cell.chunks.len(),
            cell.output.centroids.k(),
            cell.output.epm
        );
    }

    // The top-level phases are the stages; a cloned stage's busy time is
    // summed over its clones.
    println!("\nstage busy time (profiler phases):");
    let stages: Vec<_> = rec.phase_rows().into_iter().filter(|p| !p.path.contains('/')).collect();
    let all_us = stages.iter().map(|p| p.total_us).sum::<u64>().max(1) as f64;
    for p in &stages {
        let us = p.total_us as f64;
        println!(
            "  {:<8} busy {:>8.1} ms ({:>5.1}% of all stages), {:>5} spans",
            p.path,
            us / 1e3,
            100.0 * us / all_us,
            p.calls
        );
    }
    println!("\nqueue telemetry:");
    for q in &report.queue_stats {
        println!(
            "  {:<18} cap {:>3}: {:>5} sends, {:>5} recvs, {:>3} full-blocks, {:>4} empty-blocks",
            q.name, q.capacity, q.sends, q.recvs, q.full_blocks, q.empty_blocks
        );
    }

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
