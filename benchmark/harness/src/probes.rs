//! Layer probes: single-threaded loops around one public call each, timed
//! from here (no tracing inside the program), on fixed inputs generated
//! from the seed. Every probe reports the exact work it did beside its
//! rate. `benchmark/README.md` states which end-to-end metric each one is
//! expected to move.

use crate::api::{self, Backend, ClusterSpec, Codec, Points, ScanTally, Weighted};
use crate::child;
use crate::spec::{self, Effort, JOBS, K, RESTARTS};
use crate::stats;
use crate::workloads::Context;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Name and unit of every probe metric, in report order.
pub const METRICS: [(&str, &str); 29] = [
    ("core.assign_scalar_mpts_s", "Mpts/s"),
    ("core.assign_fused_mpts_s", "Mpts/s"),
    ("core.assign_rescue_rate", "ratio"),
    ("core.lloyd_mpts_iter_s", "Mpts/s"),
    ("core.partial_chunk_ms", "ms"),
    ("core.partial_chunk_iters", "count"),
    ("core.partial_small_chunk_us", "us"),
    ("core.merge_ms", "ms"),
    ("core.coreset_build_mpts_s", "Mpts/s"),
    ("core.coreset_insert_us", "us"),
    ("core.coreset_compactions", "count"),
    ("core.coreset_query_ms", "ms"),
    ("core.partial_merge_25k_s", "s"),
    ("stream.engine_vs_core_ratio", "ratio"),
    ("stream.cell_overhead_us", "us"),
    ("stream.queue_mops_s", "Mops/s"),
    ("data.open_us", "us"),
    ("data.scan_raw_mmap_mpts_s", "Mpts/s"),
    ("data.scan_raw_file_mpts_s", "Mpts/s"),
    ("data.scan_rle_file_mpts_s", "Mpts/s"),
    ("data.rle_ratio", "ratio"),
    ("data.encode_rle_mb_s", "MB/s"),
    ("data.decode_rle_mb_s", "MB/s"),
    ("data.write_gb02_mpts_s", "Mpts/s"),
    ("obs.ledger_append_us", "us"),
    ("obs.ledger_bytes_per_event", "bytes"),
    ("obs.profiler_span_ns", "ns"),
    ("obs.ledger_rollup_ms", "ms"),
    ("obs.ledger_rollup_events", "count"),
];

/// One probe's result.
#[derive(Debug, Clone)]
pub struct Probe {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The exact work one sample did, in words.
    pub work: String,
    /// Per-sample values (empty for exact counts).
    pub samples: Vec<f64>,
}

/// Chunk and coreset sizes the clustering workloads use.
const CELL_POINTS: usize = 25_000;
const CHUNK_POINTS: usize = 2_500;
const SMALL_CHUNK_POINTS: usize = 125;
const LONG_CELL_POINTS: usize = 150_000;
const CORESET_SIZE: usize = 256;
const PARTITIONS: usize = 10;
const LLOYD_ITER_CAP: usize = 20;

struct Inputs {
    cell: Points,
    chunk: Points,
    small_chunk: Points,
    /// The first k points of the cell, row-major: fixed centroids.
    centroids: Vec<f64>,
    long_chunks: Vec<Points>,
    cell_file: PathBuf,
    tiny_file: PathBuf,
    raw_files: Vec<PathBuf>,
    rle_files: Vec<PathBuf>,
    small_files: Vec<PathBuf>,
    ledger: PathBuf,
    scratch_ledger: PathBuf,
}

fn prepare(ctx: &Context, dir: &Path) -> Result<Inputs, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cell = api::generate_cell(CELL_POINTS, spec::cell_seed(ctx.seed, 0))?;
    let cell_file = dir.join("cell25k.gb2");
    api::write_container(&cell, 0, &cell_file, Codec::Raw)?;
    // Fewer points than k: the engine passes the chunk through unclustered.
    let tiny_file = dir.join("tiny.gb2");
    api::write_container(&api::first_points(&cell, K - 10)?, 1, &tiny_file, Codec::Raw)?;

    let long_cell = api::generate_cell(LONG_CELL_POINTS, spec::cell_seed(ctx.seed, 1))?;
    let long_chunks = api::split_chunks(&long_cell, CHUNK_POINTS)?;

    let (scan_cells, small_cells, journal_cells) =
        if ctx.quick { (1, 30, 10) } else { (8, 300, 100) };
    let (mut raw_files, mut rle_files) = (Vec::new(), Vec::new());
    for i in 0..scan_cells {
        let points = api::generate_cell(LONG_CELL_POINTS, spec::cell_seed(ctx.seed, 2 + i))?;
        for (codec, tag, files) in
            [(Codec::Raw, "raw", &mut raw_files), (Codec::ShuffleRle, "rle", &mut rle_files)]
        {
            let path = dir.join(format!("scan_{tag}_{i:02}.gb2"));
            api::write_container(&points, i as u32, &path, codec)?;
            files.push(path);
        }
    }
    let mut small_files = Vec::new();
    for i in 0..small_cells {
        let path = dir.join(format!("small_{i:04}.gb2"));
        let points = api::generate_cell(250, spec::cell_seed(ctx.seed, i))?;
        api::write_container(&points, i as u32, &path, Codec::Raw)?;
        small_files.push(path);
    }

    // A real run ledger for the read-side probe: a journaled CLI run over
    // some of the small cells.
    let ledger = dir.join("journaled.jsonl");
    let mut args = vec![
        "orchestrate".to_string(),
        format!("--k={K}"),
        format!("--restarts={RESTARTS}"),
        "--splits=2".to_string(),
        format!("--jobs={JOBS}"),
        "--backend=mmap".to_string(),
        format!("--checkpoint-dir={}", dir.join("checkpoints").display()),
        format!("--ledger={}", ledger.display()),
    ];
    args.extend(small_files[..journal_cells].iter().map(|p| p.to_string_lossy().into_owned()));
    if !child::run(&ctx.pmkm, &args, dir, "journaled")?.exit_ok {
        return Err("probe set-up: the journaled run failed".into());
    }

    Ok(Inputs {
        chunk: api::first_points(&cell, CHUNK_POINTS)?,
        small_chunk: api::first_points(&cell, SMALL_CHUNK_POINTS)?,
        centroids: api::first_flat(&cell, K),
        cell,
        long_chunks,
        cell_file,
        tiny_file,
        raw_files,
        rle_files,
        small_files,
        ledger,
        scratch_ledger: dir.join("append.jsonl"),
    })
}

/// Median seconds per call of `body`, over `effort.probe_samples` samples
/// that each repeat `body` until `effort.probe_seconds` have passed.
/// Returns the median and the per-sample values.
fn seconds_per_call(
    effort: &Effort,
    mut body: impl FnMut() -> Result<(), String>,
) -> Result<(f64, Vec<f64>), String> {
    let mut samples = Vec::new();
    for _ in 0..effort.probe_samples {
        let started = Instant::now();
        let mut calls = 0u64;
        loop {
            body()?;
            calls += 1;
            if started.elapsed().as_secs_f64() >= effort.probe_seconds {
                break;
            }
        }
        samples.push(started.elapsed().as_secs_f64() / calls as f64);
    }
    Ok((stats::median(&samples), samples))
}

/// Collects probe rows in [`METRICS`] order.
struct Rows(Vec<Probe>);

impl Rows {
    /// Adds a row; `convert` maps seconds-per-call to the metric's unit.
    fn timed(
        &mut self,
        name: &'static str,
        work: String,
        (median, samples): (f64, Vec<f64>),
        convert: impl Fn(f64) -> f64,
    ) {
        let samples = samples.into_iter().map(&convert).collect();
        self.push(name, convert(median), work, samples);
    }

    fn exact(&mut self, name: &'static str, value: f64, work: String) {
        self.push(name, value, work, Vec::new());
    }

    fn push(&mut self, name: &'static str, value: f64, work: String, samples: Vec<f64>) {
        let (expected, unit) = METRICS[self.0.len()];
        assert_eq!(expected, name, "probe rows are pushed in METRICS order");
        self.0.push(Probe { name, unit, value, work, samples });
    }
}

/// Runs every probe.
pub fn run(ctx: &Context, effort: &Effort) -> Result<Vec<Probe>, String> {
    let inp = prepare(ctx, &ctx.work_dir.join("probes"))?;
    let mut rows = Rows(Vec::new());
    core_probes(&inp, effort, &mut rows)?;
    stream_probes(&inp, effort, &mut rows)?;
    data_probes(&inp, effort, &mut rows)?;
    obs_probes(&inp, effort, &mut rows)?;
    assert_eq!(rows.0.len(), METRICS.len());
    Ok(rows.0)
}

fn core_probes(inp: &Inputs, effort: &Effort, rows: &mut Rows) -> Result<(), String> {
    let n = CELL_POINTS as f64;
    let assign_work = format!("{CELL_POINTS} pts x {K} centroids per pass");
    let scalar = seconds_per_call(effort, || {
        black_box(api::assign_scalar(black_box(&inp.cell), &inp.centroids));
        Ok(())
    })?;
    rows.timed("core.assign_scalar_mpts_s", assign_work.clone(), scalar, |s| n / s / 1e6);

    let mut fused = api::fused_layout(&inp.centroids, api::DIM);
    let (mut points, mut rescued) = (0, 0);
    let fused_time = seconds_per_call(effort, || {
        let (sum, p, r) = api::assign_fused(black_box(&inp.cell), &mut fused);
        black_box(sum);
        (points, rescued) = (p, r);
        Ok(())
    })?;
    rows.timed("core.assign_fused_mpts_s", assign_work, fused_time, |s| n / s / 1e6);
    rows.exact(
        "core.assign_rescue_rate",
        rescued as f64 / points as f64,
        format!("{rescued} rescues / {points} pts"),
    );

    let mut iterations = 0;
    let lloyd = seconds_per_call(effort, || {
        iterations = api::lloyd_capped(black_box(&inp.chunk), K, LLOYD_ITER_CAP)?;
        Ok(())
    })?;
    let point_iters = (CHUNK_POINTS * iterations) as f64;
    rows.timed(
        "core.lloyd_mpts_iter_s",
        format!("{CHUNK_POINTS} pts x {iterations} iterations, k={K}"),
        lloyd,
        |s| point_iters / s / 1e6,
    );

    let mut chunk_iters = 0;
    let partial = seconds_per_call(effort, || {
        chunk_iters = api::partial_chunk(black_box(&inp.chunk), K, RESTARTS)?;
        Ok(())
    })?;
    let partial_work = |points: usize| format!("{points} pts, k={K}, R={RESTARTS}");
    rows.timed("core.partial_chunk_ms", partial_work(CHUNK_POINTS), partial, |s| s * 1e3);
    rows.exact(
        "core.partial_chunk_iters",
        chunk_iters as f64,
        format!("Lloyd iterations over {RESTARTS} restarts of that chunk"),
    );
    let small = seconds_per_call(effort, || {
        black_box(api::partial_chunk(black_box(&inp.small_chunk), K, RESTARTS)?);
        Ok(())
    })?;
    rows.timed("core.partial_small_chunk_us", partial_work(SMALL_CHUNK_POINTS), small, |s| s * 1e6);

    let sets: Vec<Weighted> = inp.long_chunks[..PARTITIONS]
        .iter()
        .map(|chunk| api::coreset_of(chunk, K, 0))
        .collect::<Result<_, _>>()?;
    let merge = seconds_per_call(effort, || {
        black_box(api::merge_sets(black_box(&sets), K)?);
        Ok(())
    })?;
    rows.timed(
        "core.merge_ms",
        format!("{PARTITIONS} sets x {K} weighted centroids"),
        merge,
        |s| s * 1e3,
    );

    let build = seconds_per_call(effort, || {
        black_box(api::coreset_of(black_box(&inp.chunk), CORESET_SIZE, 0)?);
        Ok(())
    })?;
    rows.timed(
        "core.coreset_build_mpts_s",
        format!("{CHUNK_POINTS} pts -> {CORESET_SIZE} representatives"),
        build,
        |s| CHUNK_POINTS as f64 / s / 1e6,
    );

    let chunk_sets: Vec<Weighted> = inp
        .long_chunks
        .iter()
        .map(|chunk| api::coreset_of(chunk, CORESET_SIZE, 0))
        .collect::<Result<_, _>>()?;
    let inserts = chunk_sets.len();
    let mut filled = None;
    // Cloning the sets is part of each call but three orders of magnitude
    // below the compactions the inserts trigger.
    let insert = seconds_per_call(effort, || {
        filled = Some(api::coreset_tree_fill(chunk_sets.clone(), CORESET_SIZE, CHUNK_POINTS)?);
        Ok(())
    })?;
    let (mut tree, compactions) = filled.ok_or("coreset probe did not run")?;
    rows.timed(
        "core.coreset_insert_us",
        format!("{inserts} inserts of {CORESET_SIZE} representatives per tree"),
        insert,
        |s| s * 1e6 / inserts as f64,
    );
    rows.exact(
        "core.coreset_compactions",
        compactions as f64,
        format!("compactions caused by those {inserts} inserts"),
    );
    let query = seconds_per_call(effort, || {
        black_box(api::coreset_query(&mut tree, K)?);
        Ok(())
    })?;
    rows.timed(
        "core.coreset_query_ms",
        format!("query_now on the filled tree, k={K}"),
        query,
        |s| s * 1e3,
    );
    Ok(())
}

fn stream_probes(inp: &Inputs, effort: &Effort, rows: &mut Rows) -> Result<(), String> {
    let mut core_iters = 0;
    let core = seconds_per_call(effort, || {
        core_iters = api::partial_merge_serial(black_box(&inp.cell), K, PARTITIONS)?;
        Ok(())
    })?;
    rows.timed(
        "core.partial_merge_25k_s",
        format!(
            "{CELL_POINTS} pts, {PARTITIONS} partitions, {core_iters} partial Lloyd iterations"
        ),
        core.clone(),
        |s| s,
    );

    // One worker inside the cell, as every workload's plan has it.
    let spec = ClusterSpec {
        k: K,
        restarts: RESTARTS,
        splits: PARTITIONS,
        jobs: 1,
        backend: Backend::Mmap,
        coreset: None,
    };
    let mut engine_iters = 0;
    let engine = seconds_per_call(effort, || {
        engine_iters = api::execute_cell(&inp.cell_file, &spec)?;
        Ok(())
    })?;
    rows.timed(
        "stream.engine_vs_core_ratio",
        format!(
            "execute on the same cell from disk ({engine_iters} partial Lloyd iterations) / \
             core.partial_merge_25k_s"
        ),
        engine,
        |s| s / core.0,
    );

    let tiny = seconds_per_call(effort, || {
        black_box(api::execute_cell(&inp.tiny_file, &ClusterSpec { splits: 1, ..spec.clone() })?);
        Ok(())
    })?;
    rows.timed(
        "stream.cell_overhead_us",
        format!("execute on a {}-pt cell (pass-through, no clustering)", K - 10),
        tiny,
        |s| s * 1e6,
    );

    const QUEUE_ITEMS: u64 = 200_000;
    let queue = seconds_per_call(effort, || {
        black_box(api::queue_pairs(QUEUE_ITEMS));
        Ok(())
    })?;
    rows.timed(
        "stream.queue_mops_s",
        format!("{QUEUE_ITEMS} send/recv pairs, capacity 64, 1 producer 1 consumer"),
        queue,
        |s| QUEUE_ITEMS as f64 / s / 1e6,
    );
    Ok(())
}

fn data_probes(inp: &Inputs, effort: &Effort, rows: &mut Rows) -> Result<(), String> {
    let files = inp.small_files.len();
    let open = seconds_per_call(effort, || {
        for file in &inp.small_files {
            black_box(api::open_container(file)?);
        }
        Ok(())
    })?;
    rows.timed("data.open_us", format!("probe + open over {files} files of 250 pts"), open, |s| {
        s * 1e6 / files as f64
    });

    let mut rle_tally = ScanTally::default();
    for (name, files, backend) in [
        ("data.scan_raw_mmap_mpts_s", &inp.raw_files, Backend::Mmap),
        ("data.scan_raw_file_mpts_s", &inp.raw_files, Backend::LocalFile),
        ("data.scan_rle_file_mpts_s", &inp.rle_files, Backend::LocalFile),
    ] {
        let mut tally = ScanTally::default();
        let scan = seconds_per_call(effort, || {
            tally = ScanTally::default();
            for file in files {
                api::scan_container(file, backend, &mut tally)?;
            }
            Ok(())
        })?;
        let points = tally.points as f64;
        rows.timed(
            name,
            format!(
                "{} pts, {} stored bytes, every block of {} file(s)",
                tally.points,
                tally.stored_bytes,
                files.len()
            ),
            scan,
            |s| points / s / 1e6,
        );
        rle_tally = tally;
    }
    rows.exact(
        "data.rle_ratio",
        rle_tally.stored_bytes as f64 / rle_tally.payload_bytes as f64,
        format!("{} stored / {} payload bytes", rle_tally.stored_bytes, rle_tally.payload_bytes),
    );

    let payloads = api::block_payloads(&inp.cell);
    let payload_bytes: usize = payloads.iter().map(Vec::len).sum();
    let mut stored = Vec::new();
    let encode = seconds_per_call(effort, || {
        stored = payloads.iter().map(|p| api::encode_rle(p)).collect::<Result<Vec<_>, _>>()?;
        Ok(())
    })?;
    let codec_work = format!("{payload_bytes} payload bytes in {} blocks", payloads.len());
    rows.timed("data.encode_rle_mb_s", codec_work.clone(), encode, |s| {
        payload_bytes as f64 / s / 1e6
    });
    let decode = seconds_per_call(effort, || {
        for (block, payload) in stored.iter().zip(&payloads) {
            black_box(api::decode_rle(block, payload.len())?);
        }
        Ok(())
    })?;
    rows.timed("data.decode_rle_mb_s", codec_work, decode, |s| payload_bytes as f64 / s / 1e6);

    let bucket = api::as_bucket(&inp.cell, 0)?;
    let mut image_bytes = 0;
    let write = seconds_per_call(effort, || {
        image_bytes = api::container_bytes(black_box(&bucket))?;
        Ok(())
    })?;
    rows.timed(
        "data.write_gb02_mpts_s",
        format!("{CELL_POINTS} pts -> {image_bytes}-byte raw container image"),
        write,
        |s| CELL_POINTS as f64 / s / 1e6,
    );
    Ok(())
}

fn obs_probes(inp: &Inputs, effort: &Effort, rows: &mut Rows) -> Result<(), String> {
    const EVENTS: u64 = 20_000;
    let mut bytes = 0;
    let append = seconds_per_call(effort, || {
        bytes = api::ledger_append(&inp.scratch_ledger, EVENTS)?;
        Ok(())
    })?;
    rows.timed(
        "obs.ledger_append_us",
        format!("{EVENTS} chunk.close events to a fresh file-backed ledger"),
        append,
        |s| s * 1e6 / EVENTS as f64,
    );
    // Timestamps vary in width, so this is a measurement, not an exact count.
    let per_event = bytes as f64 / (EVENTS + 1) as f64;
    rows.push(
        "obs.ledger_bytes_per_event",
        per_event,
        format!("{bytes} bytes / {} records (header included)", EVENTS + 1),
        vec![per_event],
    );

    const SPANS: u64 = 100_000;
    let spans = seconds_per_call(effort, || {
        black_box(api::profiler_spans(SPANS));
        Ok(())
    })?;
    rows.timed(
        "obs.profiler_span_ns",
        format!("{SPANS} enter/exit pairs, one thread"),
        spans,
        |s| s * 1e9 / SPANS as f64,
    );

    let mut facts = None;
    let rollup = seconds_per_call(effort, || {
        facts = Some(api::ledger_rollup(&inp.ledger)?);
        Ok(())
    })?;
    let facts = facts.ok_or("ledger probe did not run")?;
    rows.timed(
        "obs.ledger_rollup_ms",
        format!("read_ledger + rollup of a journaled run over {} cells", facts.cells),
        rollup,
        |s| s * 1e3,
    );
    // Worker-state and steal events depend on thread timing: not exact either.
    let events = facts.events as f64;
    rows.push("obs.ledger_rollup_events", events, "events in that ledger".into(), vec![events]);
    Ok(())
}
