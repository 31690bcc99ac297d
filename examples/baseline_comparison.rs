//! Compare partial/merge k-means against every baseline in this repo on
//! one grid cell: serial best-of-R k-means, the three Figure-2
//! parallelization methods, BIRCH, and STREAM/LOCALSEARCH.
//!
//! ```sh
//! cargo run --release --example baseline_comparison
//! ```

use pmkm_baselines::{
    birch, clarans, method_b, method_c, serial_kmeans, stream_lsearch, BirchConfig, ClaransConfig,
    StreamLsConfig,
};
use pmkm_core::{metrics, partial_merge, KMeansConfig, PartialMergeConfig, PointSource};
use pmkm_data::CellConfig;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 25_000usize;
    let k = 40usize;
    let cell = pmkm_data::generator::generate_cell(&CellConfig::paper(n, 99))?;
    let kcfg = KMeansConfig { restarts: 5, ..KMeansConfig::paper(k, 17) };
    println!("cell: {n} points × 6 attributes, k = {k}, R = {}\n", kcfg.restarts);
    println!("{:<26} {:>10} {:>12}", "algorithm", "time (ms)", "data MSE");

    let report = |name: &str, ms: f64, mse: f64| {
        println!("{name:<26} {ms:>10.0} {mse:>12.1}");
    };

    // Serial best-of-R.
    let t = Instant::now();
    let serial = serial_kmeans(&cell, &kcfg)?;
    report("serial k-means", t.elapsed().as_secs_f64() * 1e3, serial.outcome.best.mse);

    // Partial/merge, 10 chunks, serial partial phase.
    let pm_cfg =
        PartialMergeConfig { kmeans: kcfg, partitions: 10, ..PartialMergeConfig::paper(k, 10, 17) };
    let t = Instant::now();
    let pm = partial_merge(&cell, &pm_cfg)?;
    let mse = metrics::mse_against(&cell, &pm.merge.centroids)?;
    report("partial/merge (10-split)", t.elapsed().as_secs_f64() * 1e3, mse);

    // Method B: restarts in parallel.
    let t = Instant::now();
    let mb = method_b(&cell, &kcfg, 4)?;
    report("method B (4 workers)", t.elapsed().as_secs_f64() * 1e3, mb.best.mse);

    // Method C: distributed Lloyd (single restart).
    let t = Instant::now();
    let mc = method_c(&cell, &KMeansConfig { restarts: 1, ..kcfg }, 4)?;
    report(
        &format!("method C (4 slaves, {} msgs)", mc.messages),
        t.elapsed().as_secs_f64() * 1e3,
        mc.mse,
    );

    // BIRCH.
    let t = Instant::now();
    let b = birch(
        &cell,
        &BirchConfig { k, threshold: 60.0, restarts: 5, seed: 17, ..BirchConfig::default() },
    )?;
    let mse = metrics::mse_against(&cell, &b.centroids)?;
    report(
        &format!("BIRCH ({} leaf entries)", b.leaf_entries),
        t.elapsed().as_secs_f64() * 1e3,
        mse,
    );

    // CLARANS (k-medoid; medoids are actual observations).
    let t = Instant::now();
    let cl = clarans(&cell, &ClaransConfig { k, num_local: 2, max_neighbors: 250, seed: 17 })?;
    let mse = metrics::mse_against(&cell, &cl.medoids)?;
    report(
        &format!("CLARANS ({} swaps tried)", cl.neighbors_examined),
        t.elapsed().as_secs_f64() * 1e3,
        mse,
    );

    // STREAM-LS.
    let t = Instant::now();
    let s = stream_lsearch(
        &cell,
        10,
        StreamLsConfig { k, max_retained: k * 12, swap_attempts: 150, seed: 17 },
    )?;
    let mse = metrics::mse_against(&cell, &s.centroids()?)?;
    report(
        &format!("STREAM-LS ({} centers)", s.centers.len()),
        t.elapsed().as_secs_f64() * 1e3,
        mse,
    );

    Ok(())
}
