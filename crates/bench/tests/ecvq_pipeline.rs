//! Tests for the ECVQ partial step and the ECVQ pipeline variant
//! (§3.3 remarks: adaptive k per partition), and the bit-level pin on the
//! pipeline's output.

use pmkm_bench::ecvq::{partial_ecvq, partial_merge_ecvq, EcvqConfig};
use pmkm_core::prelude::*;
use pmkm_core::seeding::rng_for;
use pmkm_core::{PartialMergeResult, SliceStrategy};
use rand::Rng;

fn blob_cell(n_per: usize) -> Dataset {
    let mut ds = Dataset::new(2).unwrap();
    for i in 0..n_per {
        let o = (i % 10) as f64 * 0.02;
        ds.push(&[o, o]).unwrap();
        ds.push(&[30.0 + o, 30.0 - o]).unwrap();
        ds.push(&[-30.0 + o, 30.0 + o]).unwrap();
    }
    ds
}

#[test]
fn partial_ecvq_emits_adaptive_codebook() {
    let chunk = blob_cell(60); // 180 points, 3 tight blobs
    let cfg = EcvqConfig { max_k: 12, lambda: 50.0, seed: 3, ..EcvqConfig::default() };
    let out = partial_ecvq(&chunk, &cfg).unwrap();
    assert!(out.centroids.len() <= 12);
    // Strong rate penalty on tight blobs starves codewords.
    assert!(out.centroids.len() >= 3);
    let total: f64 = out.centroids.weights().iter().sum();
    assert_eq!(total, 180.0);
    assert!(out.best_mse.is_finite());
}

#[test]
fn stronger_rate_penalty_starves_more_codewords() {
    // The adaptive-k mechanism of §3.3: the Lagrangian rate penalty starves
    // codewords. The same chunk under the same seeds keeps (weakly) fewer
    // codewords as λ grows from 0 to a dominating value.
    let chunk = blob_cell(100); // 300 points
    let free = EcvqConfig { max_k: 20, lambda: 0.0, seed: 1, ..EcvqConfig::default() };
    let costly = EcvqConfig { max_k: 20, lambda: 1e6, seed: 1, ..EcvqConfig::default() };
    let f = partial_ecvq(&chunk, &free).unwrap();
    let c = partial_ecvq(&chunk, &costly).unwrap();
    assert!(
        c.centroids.len() < f.centroids.len(),
        "λ=1e6 kept {} codewords, λ=0 kept {}",
        c.centroids.len(),
        f.centroids.len()
    );
    // Weight is conserved regardless of starvation.
    let total: f64 = c.centroids.weights().iter().sum();
    assert_eq!(total, 300.0);
}

#[test]
fn ecvq_pipeline_recovers_structure() {
    let cell = blob_cell(100); // 300 points
                               // A few merge restarts guard against the heaviest-seed local optimum
                               // (three far-apart blobs, only 3 final centroids).
    let pm = PartialMergeConfig { merge_restarts: 5, ..PartialMergeConfig::paper(3, 5, 9) };
    let ecvq = EcvqConfig { max_k: 10, lambda: 5.0, seed: 9, ..EcvqConfig::default() };
    let out = partial_merge_ecvq(&cell, &pm, &ecvq).unwrap();
    assert_eq!(out.partitions, 5);
    assert_eq!(out.merge.centroids.k(), 3);
    let total: f64 = out.merge.cluster_weights.iter().sum();
    assert_eq!(total, 300.0);
    let mse = metrics::mse_against(&cell, &out.merge.centroids).unwrap();
    assert!(mse < 2.0, "mse = {mse}");
}

#[test]
fn ecvq_pipeline_is_deterministic() {
    let cell = blob_cell(50);
    let pm = PartialMergeConfig::paper(3, 4, 21);
    let ecvq = EcvqConfig { max_k: 8, lambda: 1.0, seed: 21, ..EcvqConfig::default() };
    let a = partial_merge_ecvq(&cell, &pm, &ecvq).unwrap();
    let b = partial_merge_ecvq(&cell, &pm, &ecvq).unwrap();
    assert_eq!(a.merge.centroids, b.merge.centroids);
    assert_eq!(a.merge.epm, b.merge.epm);
}

#[test]
fn ecvq_pipeline_chunks_get_distinct_seeds() {
    // Chunks of identical content still get different ECVQ seeds (derived
    // per chunk index), so codebooks are not trivially identical.
    let mut cell = Dataset::new(1).unwrap();
    for _ in 0..4 {
        for i in 0..50 {
            cell.push(&[(i % 10) as f64]).unwrap();
        }
    }
    let pm =
        PartialMergeConfig { slicing: SliceStrategy::Salami, ..PartialMergeConfig::paper(4, 4, 5) };
    let ecvq = EcvqConfig { max_k: 6, lambda: 0.5, seed: 5, ..EcvqConfig::default() };
    let out = partial_merge_ecvq(&cell, &pm, &ecvq).unwrap();
    assert_eq!(out.chunks.len(), 4);
    let total: f64 = out.merge.cluster_weights.iter().sum();
    assert_eq!(total, 200.0);
}

#[test]
fn ecvq_pipeline_rejects_invalid_configs() {
    let cell = blob_cell(20);
    let pm = PartialMergeConfig::paper(3, 2, 0);
    let bad = EcvqConfig { max_k: 0, ..EcvqConfig::default() };
    assert!(partial_merge_ecvq(&cell, &pm, &bad).is_err());
    let bad = EcvqConfig { lambda: f64::NAN, ..EcvqConfig::default() };
    assert!(partial_merge_ecvq(&cell, &pm, &bad).is_err());
}

/// Word-wise FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn floats(&mut self, vs: &[f64]) {
        self.word(vs.len() as u64);
        vs.iter().for_each(|&v| self.float(v));
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

/// Recorded on e60cfb7 with `pmkm-core`'s own ECVQ pipeline, which this
/// pipeline replaces: it covers every word the pipeline returns except
/// durations, so a change that moves it changed an output.
#[test]
fn partial_merge_ecvq_bits_are_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (slicing, lambda) in [(SliceStrategy::RandomOverlap, 10.0), (SliceStrategy::Salami, 200.0)]
    {
        let cfg = PartialMergeConfig {
            slicing,
            merge_restarts: 3,
            ..PartialMergeConfig::paper(5, 6, 11)
        };
        let ecvq = EcvqConfig { max_k: 8, lambda, seed: 5, ..EcvqConfig::default() };
        digest_result(&mut h, &partial_merge_ecvq(&cell(1_800, 11), &cfg, &ecvq).unwrap());
    }
    let (got, want) = (h.0, 0x0745_21ea_cba7_9d17);
    assert_eq!(got, want, "ecvq: digest {got:#018x}, pinned {want:#018x}");
}
