//! The scalar oracle for [`pmkm_core::chunk_coreset`], shared by the
//! differential and the non-finite suites.

use pmkm_core::point::sq_dist;
use pmkm_core::seeding::rng_for;
use pmkm_core::{chunk_coreset, Error, PointSource, Result, WeightedSet};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;

/// `chunk_coreset` as it stood before its nearest-representative pass moved
/// onto the fused kernel: the body is that commit's, verbatim, down to the
/// strict-`<` double loop over `src.coords(r)` — except for the one
/// condition (`by_distance`) that keeps an overflowed `Σ w·d²` from turning
/// every `q(i)` into NaN, which the library gained in the same change. Fed
/// the same `StdRng` state it makes the same draws, so the two outputs may
/// be compared bit for bit.
pub fn chunk_coreset_scalar<S: PointSource + ?Sized>(
    src: &S,
    size: usize,
    rng: &mut StdRng,
) -> Result<WeightedSet> {
    if size == 0 {
        return Err(Error::InvalidConfig("coreset size must be at least 1".into()));
    }
    if src.is_empty() {
        return Err(Error::EmptyDataset);
    }
    let n = src.len();
    let dim = src.dim();
    let mut out = WeightedSet::new(dim)?;
    if n <= size {
        for i in 0..n {
            out.push(src.coords(i), src.weight(i))?;
        }
        return Ok(out);
    }

    let total_w = src.total_weight();
    let mut mean = vec![0.0f64; dim];
    for i in 0..n {
        let w = src.weight(i);
        for (m, &x) in mean.iter_mut().zip(src.coords(i)) {
            *m += w * x;
        }
    }
    for m in &mut mean {
        *m /= total_w;
    }

    let mut d2 = vec![0.0f64; n];
    let mut sum_wd2 = 0.0f64;
    for (i, d) in d2.iter_mut().enumerate() {
        *d = sq_dist(src.coords(i), &mean);
        sum_wd2 += src.weight(i) * *d;
    }
    let by_distance = sum_wd2 > 0.0 && sum_wd2.is_finite();
    let mut cum = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for (i, d) in d2.iter().enumerate() {
        let w = src.weight(i);
        acc += if by_distance { 0.5 * w / total_w + 0.5 * w * d / sum_wd2 } else { w / total_w };
        cum.push(acc);
    }
    let total_q = acc;

    let mut chosen = BTreeSet::new();
    for _ in 0..size {
        let t = rng.gen_range(0.0..total_q);
        chosen.insert(cum.partition_point(|&c| c <= t).min(n - 1));
    }
    let reps: Vec<usize> = chosen.into_iter().collect();

    let mut agg = vec![0.0f64; reps.len()];
    for i in 0..n {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (j, &r) in reps.iter().enumerate() {
            let d = sq_dist(src.coords(i), src.coords(r));
            if d < best_d {
                best_d = d;
                best = j;
            }
        }
        agg[best] += src.weight(i);
    }
    for (j, &r) in reps.iter().enumerate() {
        if agg[j] > 0.0 {
            out.push(src.coords(r), agg[j])?;
        }
    }
    Ok(out)
}

/// Coordinate bits, then weight bits.
pub fn set_bits(set: &WeightedSet) -> (Vec<u64>, Vec<u64>) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    (bits(set.as_flat()), bits(set.weights()))
}

/// Builds the coreset of `src` with the library and with the scalar oracle
/// from the same RNG state, asserts the two agree in every bit, and returns
/// it.
pub fn assert_coreset_matches_oracle<S: PointSource + ?Sized>(
    src: &S,
    size: usize,
    seed: u64,
) -> WeightedSet {
    let fused = chunk_coreset(src, size, &mut rng_for(seed, 0xC0)).unwrap();
    let scalar = chunk_coreset_scalar(src, size, &mut rng_for(seed, 0xC0)).unwrap();
    assert_eq!(set_bits(&fused), set_bits(&scalar), "n {} size {size} seed {seed}", src.len());
    fused
}
