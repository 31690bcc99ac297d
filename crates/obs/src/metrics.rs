//! A lock-cheap metrics registry.
//!
//! Instruments are cheap to update from many threads at once: counters and
//! gauges are single atomics, histograms are one atomic per bucket plus an
//! atomic bit-cast sum. The registry itself takes a short
//! [`std::sync::Mutex`] only on instrument *creation/lookup*; hot paths
//! hold an `Arc` to the instrument and never touch the registry again.

use crate::lock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::report::{
    CounterSample, GaugeSample, HistogramSample, HistogramSnapshot, MetricsSnapshot,
};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) with a compare-and-swap loop.
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram with fixed, cumulative-style buckets.
///
/// `bounds` are the inclusive upper bounds of the finite buckets; one extra
/// `+Inf` bucket catches everything above the last bound, so an observation
/// always lands in exactly one of `bounds.len() + 1` buckets.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Creates a histogram; `bounds` must be finite and strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(bounds.iter().all(|b| b.is_finite()));
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// The finite bucket bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// A plain-data snapshot (`counts.len() == bounds.len() + 1`; the last
    /// entry is the `+Inf` bucket).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// A named collection of instruments.
///
/// `counter`/`gauge`/`histogram` get-or-create by name and hand back an
/// `Arc`; updating through the `Arc` is lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock(&self.counters);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The value of the counter named `name`, or 0 when there is none.
    /// Unlike [`Registry::counter`] this never creates the counter, so
    /// reading leaves the registry's snapshot and rendering unchanged.
    pub fn counter_value(&self, name: &str) -> u64 {
        lock(&self.counters).get(name).map_or(0, |c| c.get())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock(&self.gauges);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`; `bounds` are used only on first creation
    /// (later callers share the existing instrument).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = lock(&self.histograms);
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| Arc::new(Histogram::new(bounds))))
    }

    /// A plain-data snapshot of every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(name, c)| CounterSample { name: name.clone(), value: c.get() })
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(name, g)| GaugeSample { name: name.clone(), value: g.get() })
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(name, h)| HistogramSample { name: name.clone(), histogram: h.snapshot() })
                .collect(),
        }
    }

    /// The counter `family{label="value"}` — a labeled member of the
    /// `family` metric family. The label value is escaped; members of one
    /// family share a single `# TYPE` line in the Prometheus rendering.
    pub fn labeled_counter(&self, family: &str, label: &str, value: &str) -> Arc<Counter> {
        self.counter(&labeled_name(family, label, value))
    }

    /// Renders every instrument in the Prometheus text exposition format
    /// (counters, gauges, and cumulative histogram buckets). Labeled
    /// members of one family (`name{label="v"}`) are grouped under a
    /// single `# TYPE` line. An empty registry renders the empty string.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, c) in lock(&self.counters).iter() {
            let family = metric_family(name);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} counter");
                last_family = family.to_string();
            }
            let _ = writeln!(out, "{name} {}", c.get());
        }
        last_family.clear();
        for (name, g) in lock(&self.gauges).iter() {
            let family = metric_family(name);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} gauge");
                last_family = family.to_string();
            }
            let _ = writeln!(out, "{name} {}", g.get());
        }
        for (name, h) in lock(&self.histograms).iter() {
            let snap = h.snapshot();
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, &count) in snap.counts.iter().enumerate() {
                cumulative += count;
                let le = match snap.bounds.get(i) {
                    Some(bound) => escape_label_value(&bound.to_string()),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_sum {}", snap.sum);
            let _ = writeln!(out, "{name}_count {}", snap.count);
        }
        out
    }
}

/// The family part of a (possibly labeled) metric name:
/// `fault_events_total{kind="x"}` → `fault_events_total`.
fn metric_family(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Formats a labeled metric name: `family{label="escaped value"}`.
pub fn labeled_name(family: &str, label: &str, value: &str) -> String {
    format!("{family}{{{label}=\"{}\"}}", escape_label_value(value))
}

/// Escapes a Prometheus label *value*: backslash, double quote, and newline
/// must be backslash-escaped per the text exposition format.
pub fn escape_label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for ch in raw.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_semantics() {
        let r = Registry::new();
        let c = r.counter("items");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same instrument.
        assert_eq!(r.counter("items").get(), 5);
        assert_eq!(r.counter("other").get(), 0);
        // Reading by value never creates a counter.
        assert_eq!(r.counter_value("items"), 5);
        assert_eq!(r.counter_value("absent"), 0);
        assert_eq!(r.snapshot().counters.len(), 2);
    }

    #[test]
    fn gauge_goes_up_and_down() {
        let g = Gauge::default();
        g.set(2.5);
        g.add(1.0);
        g.add(-4.0);
        assert!((g.get() + 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_bucket_placement() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 2.0, 10.0, 50.0, 1000.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        // Inclusive upper bounds: 0.5 and 1.0 → ≤1; 2.0 and 10.0 → ≤10;
        // 50.0 → ≤100; 1000.0 → +Inf.
        assert_eq!(snap.counts, vec![2, 2, 1, 1]);
        assert_eq!(snap.count, 6);
        assert!((snap.sum - 1063.5).abs() < 1e-9);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let r = Arc::new(Registry::new());
        let c = r.counter("hits");
        let h = r.histogram("sizes", &[10.0, 100.0]);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let (c, h) = (Arc::clone(&c), Arc::clone(&h));
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        c.inc();
                        h.observe((t * 1000 + i) as f64 % 200.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 8000);
        assert_eq!(snap.counts.iter().sum::<u64>(), 8000);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter("jobs_total").add(2);
        r.gauge("queue_depth").set(3.0);
        r.histogram("latency", &[1.0, 5.0]).observe(2.0);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE jobs_total counter"));
        assert!(text.contains("jobs_total 2"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("latency_bucket{le=\"5\"} 1"));
        assert!(text.contains("latency_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("latency_count 1"));
    }

    #[test]
    fn labeled_counter_family_shares_one_type_line() {
        let r = Registry::new();
        r.labeled_counter("fault_events_total", "kind", "worker_panic").add(2);
        r.labeled_counter("fault_events_total", "kind", "chunk_retry").inc();
        r.counter("other_total").inc();
        let text = r.render_prometheus();
        let type_lines = text.lines().filter(|l| *l == "# TYPE fault_events_total counter").count();
        assert_eq!(type_lines, 1, "family must get exactly one TYPE line:\n{text}");
        assert!(text.contains("fault_events_total{kind=\"worker_panic\"} 2"));
        assert!(text.contains("fault_events_total{kind=\"chunk_retry\"} 1"));
        assert!(text.contains("# TYPE other_total counter"));
        // The TYPE line precedes every member of its family.
        let type_pos = text.find("# TYPE fault_events_total counter").unwrap();
        assert!(type_pos < text.find("fault_events_total{").unwrap());
    }

    #[test]
    fn labeled_name_escapes_values() {
        assert_eq!(labeled_name("f", "kind", "a\"b"), "f{kind=\"a\\\"b\"}");
        assert_eq!(labeled_name("f", "kind", "plain"), "f{kind=\"plain\"}");
    }

    #[test]
    fn empty_registry_renders_empty_string() {
        assert_eq!(Registry::new().render_prometheus(), "");
    }

    #[test]
    fn zero_observation_histogram_renders_all_buckets() {
        let r = Registry::new();
        r.histogram("idle", &[1.0, 2.0]);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE idle histogram"));
        assert!(text.contains("idle_bucket{le=\"1\"} 0"));
        assert!(text.contains("idle_bucket{le=\"2\"} 0"));
        assert!(text.contains("idle_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("idle_sum 0"));
        assert!(text.contains("idle_count 0"));
    }

    #[test]
    fn inf_bucket_is_cumulative_total() {
        let r = Registry::new();
        let h = r.histogram("lat", &[1.0]);
        h.observe(0.5);
        h.observe(100.0);
        h.observe(200.0);
        let text = r.render_prometheus();
        assert!(text.contains("lat_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn label_value_escaping() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        assert_eq!(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
    }

    // Property: however the observations fall, every one lands in exactly
    // one bucket — the per-bucket counts sum to the total.
    proptest! {
        #[test]
        fn histogram_counts_sum_to_observations(values in proptest::collection::vec(-1e6f64..1e6, 0..200)) {
            let h = Histogram::new(&[-100.0, 0.0, 1.0, 1000.0]);
            for &v in &values {
                h.observe(v);
            }
            let snap = h.snapshot();
            prop_assert_eq!(snap.counts.iter().sum::<u64>(), values.len() as u64);
            prop_assert_eq!(snap.count, values.len() as u64);
            prop_assert_eq!(snap.counts.len(), snap.bounds.len() + 1);
        }
    }
}
