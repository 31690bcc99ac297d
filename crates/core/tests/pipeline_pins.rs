//! Bit-level pins on the in-memory partial/merge pipeline.
//!
//! The digests below were recorded on e60cfb7, the last commit on which
//! `partial_merge_ecvq` ran its own chunk loop and the merge went through a
//! mode dispatcher: this file passed unmodified on a `git archive` export
//! of it. They cover every word the pipeline's public entry points
//! return — final centroids, cluster weights, `E_pm`, MSE, merge
//! iterations and convergence, per-chunk stats — and every deterministic
//! field of `partial_merge_observed`'s `RunReport` (durations and the
//! profiler's phase rows are left out). A change that moves any constant
//! changed an output.

use pmkm_core::seeding::rng_for;
use pmkm_core::{
    partial_merge, partial_merge_observed, Dataset, PartialMergeConfig, PartialMergeResult,
    SliceStrategy,
};
use pmkm_obs::{Profiler, Recorder, RunReport};
use rand::Rng;
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Word-wise FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn floats(&mut self, vs: &[f64]) {
        self.word(vs.len() as u64);
        vs.iter().for_each(|&v| self.float(v));
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        s.bytes().for_each(|b| self.word(u64::from(b)));
    }
}

/// `n` 3-D points around five blobs of unequal spread, arrival-ordered by
/// blob so that salami slicing sees skewed chunks.
fn cell(n: usize, seed: u64) -> Dataset {
    let mut rng = rng_for(seed, 0x5049_4E53);
    let mut ds = Dataset::new(3).unwrap();
    for i in 0..n {
        let blob = (i * 5 / n) as f64;
        let spread = 0.5 + blob;
        let p: Vec<f64> = (0..3)
            .map(|d| blob * 20.0 * (d as f64 - 1.0) + rng.gen_range(-spread..spread))
            .collect();
        ds.push(&p).unwrap();
    }
    ds
}

fn digest_result(h: &mut Fnv, res: &PartialMergeResult) {
    let m = &res.merge;
    h.word(m.centroids.k() as u64);
    h.floats(m.centroids.as_flat());
    h.floats(&m.cluster_weights);
    h.float(m.epm);
    h.float(m.mse);
    h.word(m.iterations as u64);
    h.word(u64::from(m.converged));
    h.word(m.input_centroids as u64);
    h.word(res.partitions as u64);
    h.word(res.chunks.len() as u64);
    for c in &res.chunks {
        h.word(c.chunk as u64);
        h.word(c.points as u64);
        h.float(c.best_mse);
        h.word(c.total_iterations as u64);
    }
}

fn digest_report(h: &mut Fnv, report: &RunReport) {
    h.word(u64::from(report.schema_version));
    h.word(report.cells.len() as u64);
    for c in &report.cells {
        h.text(&c.cell);
        h.word(c.total_points as u64);
        h.float(c.expected_points);
        h.float(c.lost_points);
        h.word(c.lost_chunks as u64);
        h.word(u64::from(c.degraded));
        h.word(c.chunks.len() as u64);
        for ch in &c.chunks {
            h.word(ch.chunk as u64);
            h.word(ch.points as u64);
            h.float(ch.best_mse);
            h.word(ch.iterations as u64);
            h.floats(&ch.mse_trajectory);
        }
        h.word(c.merge.input_centroids as u64);
        h.float(c.merge.epm);
        h.float(c.merge.mse);
        h.word(c.merge.iterations as u64);
        h.word(u64::from(c.merge.converged));
    }
    h.word((report.operators.len() + report.queues.len()) as u64);
    let metrics = &report.metrics;
    for c in &metrics.counters {
        h.text(&c.name);
        h.word(c.value);
    }
    for g in &metrics.gauges {
        h.text(&g.name);
        h.float(g.value);
    }
    for s in &metrics.histograms {
        h.text(&s.name);
        h.floats(&s.histogram.bounds);
        s.histogram.counts.iter().for_each(|&n| h.word(n));
        h.word(s.histogram.count);
        h.float(s.histogram.sum);
    }
    h.word(u64::from(report.degraded));
    h.word(u64::from(report.faults.any()));
    h.word(u64::from(report.orchestrator.is_some()));
    h.word(u64::from(report.timeline.is_some()));
    h.word(u64::from(report.coreset.is_some()));
}

fn pin(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: digest {got:#018x}, pinned {want:#018x}");
}

#[test]
fn partial_merge_bits_are_pinned() {
    for (slicing, want) in [
        (SliceStrategy::RandomOverlap, 0x2795_bab7_8b0c_9514u64),
        (SliceStrategy::Salami, 0xa38c_07d7_492a_cd38),
    ] {
        let mut h = Fnv::new();
        for (n, p, seed) in [(2_500, 10, 1u64), (1_203, 7, 2), (9, 4, 3)] {
            let cfg = PartialMergeConfig { slicing, ..PartialMergeConfig::paper(6, p, seed) };
            digest_result(&mut h, &partial_merge(&cell(n, seed), &cfg).unwrap());
        }
        pin(&format!("{slicing:?}"), h.0, want);
    }
}

#[test]
fn partial_merge_observed_report_bits_are_pinned() {
    let ds = cell(2_000, 17);
    let cfg = PartialMergeConfig::paper(6, 8, 17);
    let mut h = Fnv::new();
    let (_, bare) = partial_merge_observed(&ds, &cfg, None).unwrap();
    digest_report(&mut h, &bare);
    let rec = Recorder::new().with_profiler(Arc::new(Profiler::new()));
    let (res, report) = partial_merge_observed(&ds, &cfg, Some(&rec)).unwrap();
    digest_result(&mut h, &res);
    digest_report(&mut h, &report);
    pin("observed", h.0, 0x59c6_cf1e_2cda_8ab6);
}
