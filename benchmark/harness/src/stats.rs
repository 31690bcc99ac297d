//! Sample summaries and the regression verdict.

/// Median, range and quartiles of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile range as a share of the median (0 for one sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Median of `samples` (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Summarizes `samples`. Quartiles follow Python's
/// `statistics.quantiles(samples, n=4)` (the exclusive method), the rule the
/// acceptance driver applies; one sample has no spread.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let med = median(&sorted);
    if n < 2 {
        return Summary { n, median: med, min: med, max: med, q1: med, q3: med };
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Summary { n, median: med, min: sorted[0], max: sorted[n - 1], q1: quartile(1), q3: quartile(3) }
}

/// `(max − min) ÷ median` above twice the bound: the samples are not one
/// population (bimodal, or drifting) and their median should not be trusted.
pub fn unstable(samples: &[f64], bound: f64) -> bool {
    let s = summarize(samples);
    s.n >= 2 && s.median != 0.0 && (s.max - s.min) / s.median.abs() > 2.0 * bound
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Outcome of comparing one metric on one workload between two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// Either side's inter-quartile range exceeds the bound, so a change of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares candidate `b` against base `a`. Returns `b.median ÷ a.median`
/// and the verdict under `bound`, the share of `a`'s median by which the
/// metric may worsen.
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> (f64, Verdict) {
    let ratio = b.median / a.median;
    if a.spread() > bound || b.spread() > bound {
        return (ratio, Verdict::Unresolved);
    }
    // Worsening as a positive share of the base, whichever way is better.
    let worsening = match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let verdict = if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (ratio, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = summarize(&[1.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
    }

    #[test]
    fn one_sample_has_no_spread() {
        let s = summarize(&[2.5]);
        assert_eq!((s.q1, s.q3, s.spread()), (2.5, 2.5, 0.0));
        assert!(!unstable(&[2.5], 0.08));
    }

    #[test]
    fn unstable_flags_a_range_over_twice_the_bound() {
        assert!(!unstable(&[1.0, 1.05, 1.1], 0.08));
        assert!(unstable(&[1.5, 1.5, 3.1, 3.1, 1.5], 0.08));
    }

    fn tight(median: f64) -> Summary {
        summarize(&[median * 0.999, median, median * 1.001])
    }

    #[test]
    fn verdict_respects_direction_and_bound() {
        let base = tight(10.0);
        assert_eq!(verdict(&base, &tight(10.5), Better::Lower, 0.08).1, Verdict::WithinBound);
        assert_eq!(verdict(&base, &tight(11.0), Better::Lower, 0.08).1, Verdict::Worse);
        assert_eq!(verdict(&base, &tight(9.0), Better::Lower, 0.08).1, Verdict::Better);
        assert_eq!(verdict(&base, &tight(9.0), Better::Higher, 0.08).1, Verdict::Worse);
        assert_eq!(verdict(&base, &tight(11.0), Better::Higher, 0.08).1, Verdict::Better);
        let (ratio, _) = verdict(&base, &tight(11.0), Better::Lower, 0.08);
        assert!((ratio - 1.1).abs() < 1e-12);
    }

    #[test]
    fn verdict_is_unresolved_when_either_side_is_noisier_than_the_bound() {
        let noisy = summarize(&[8.0, 10.0, 12.0]);
        assert!(noisy.spread() > 0.08);
        assert_eq!(verdict(&noisy, &tight(20.0), Better::Lower, 0.08).1, Verdict::Unresolved);
        assert_eq!(verdict(&tight(10.0), &noisy, Better::Lower, 0.08).1, Verdict::Unresolved);
        // A deterministic metric (one sample each) is always resolved.
        let (a, b) = (summarize(&[1.02]), summarize(&[1.02]));
        assert_eq!(verdict(&a, &b, Better::Lower, 0.01).1, Verdict::WithinBound);
    }
}
