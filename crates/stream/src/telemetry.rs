//! Per-operator telemetry.

use pmkm_obs::OperatorReport;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Runtime statistics of one operator instance (one clone).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OpStats {
    /// Operator name (`"scan"`, `"chunker"`, `"partial-kmeans"`, `"merge"`).
    pub name: String,
    /// Clone index for cloned operators, 0 otherwise.
    pub clone_id: usize,
    /// Items consumed from the input edge.
    pub items_in: u64,
    /// Items produced on the output edge.
    pub items_out: u64,
    /// Time spent doing work (excludes time blocked on queues).
    pub busy: Duration,
    /// Time spent blocked on queue sends/receives (backpressure and
    /// underflow waits).
    pub blocked: Duration,
    /// Wall-clock lifetime of the operator.
    pub lifetime: Duration,
}

impl OpStats {
    /// Fraction of its lifetime the operator spent busy (0 when unknown).
    ///
    /// Clamped to `[0, 1]`: timer granularity can make `busy` overshoot
    /// `lifetime` by a few ticks (the two are measured with separate
    /// `Instant` reads), and a ratio above 1.0 is meaningless to report.
    pub fn utilization(&self) -> f64 {
        if self.lifetime.is_zero() {
            0.0
        } else {
            (self.busy.as_secs_f64() / self.lifetime.as_secs_f64()).clamp(0.0, 1.0)
        }
    }

    /// Folds another clone's stats into this one: throughput and busy /
    /// blocked time add up, lifetime takes the max (clones run
    /// concurrently, so their wall-clock spans overlap).
    pub fn merge(&mut self, other: &OpStats) {
        self.items_in += other.items_in;
        self.items_out += other.items_out;
        self.busy += other.busy;
        self.blocked += other.blocked;
        self.lifetime = self.lifetime.max(other.lifetime);
    }

    /// Converts into the observability layer's report row.
    pub fn to_report(&self) -> OperatorReport {
        OperatorReport {
            name: self.name.clone(),
            clone_id: self.clone_id,
            items_in: self.items_in,
            items_out: self.items_out,
            busy: self.busy,
            blocked: self.blocked,
            lifetime: self.lifetime,
            utilization: self.utilization(),
        }
    }
}

/// Meters one operator instance's steps.
#[derive(Debug)]
pub struct OpMeter {
    name: String,
    clone_id: usize,
    items_in: u64,
    items_out: u64,
    busy: Duration,
    blocked: Duration,
    started: Instant,
}

impl OpMeter {
    /// Starts metering an operator.
    pub fn new(name: impl Into<String>, clone_id: usize) -> Self {
        Self {
            name: name.into(),
            clone_id,
            items_in: 0,
            items_out: 0,
            busy: Duration::ZERO,
            blocked: Duration::ZERO,
            started: Instant::now(),
        }
    }

    /// Records one consumed item.
    pub fn item_in(&mut self) {
        self.items_in += 1;
    }

    /// Records one produced item.
    pub fn item_out(&mut self) {
        self.items_out += 1;
    }

    /// Times a unit of work and adds it to the busy total.
    pub fn work<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.busy += start.elapsed();
        out
    }

    /// Times a potentially blocking queue operation (send/recv) and adds it
    /// to the blocked total.
    pub fn wait<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.blocked += start.elapsed();
        out
    }

    /// Finishes metering.
    pub fn finish(self) -> OpStats {
        OpStats {
            name: self.name,
            clone_id: self.clone_id,
            items_in: self.items_in,
            items_out: self.items_out,
            busy: self.busy,
            blocked: self.blocked,
            lifetime: self.started.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates() {
        let mut m = OpMeter::new("op", 2);
        m.item_in();
        m.item_in();
        let v = m.work(|| {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        m.item_out();
        let s = m.finish();
        assert_eq!(s.name, "op");
        assert_eq!(s.clone_id, 2);
        assert_eq!(s.items_in, 2);
        assert_eq!(s.items_out, 1);
        assert!(s.busy >= Duration::from_millis(4));
        assert!(s.lifetime >= s.busy);
    }

    #[test]
    fn utilization_bounds() {
        let m = OpMeter::new("idle", 0);
        let s = m.finish();
        let u = s.utilization();
        assert!((0.0..=1.0).contains(&u));
    }

    #[test]
    fn utilization_is_clamped_when_busy_overshoots_lifetime() {
        // Separate Instant reads can leave busy a hair above lifetime; the
        // ratio must never exceed 1.0.
        let s = OpStats {
            name: "hot".into(),
            busy: Duration::from_millis(1001),
            lifetime: Duration::from_millis(1000),
            ..OpStats::default()
        };
        assert_eq!(s.utilization(), 1.0);
        let zero = OpStats::default();
        assert_eq!(zero.utilization(), 0.0);
    }

    #[test]
    fn wait_accumulates_blocked_time() {
        let mut m = OpMeter::new("op", 0);
        m.wait(|| std::thread::sleep(Duration::from_millis(5)));
        let s = m.finish();
        assert!(s.blocked >= Duration::from_millis(4));
        assert!(s.busy.is_zero());
    }

    #[test]
    fn merge_sums_throughput_and_takes_max_lifetime() {
        let mut a = OpStats {
            name: "partial-kmeans".into(),
            clone_id: 0,
            items_in: 3,
            items_out: 3,
            busy: Duration::from_millis(30),
            blocked: Duration::from_millis(5),
            lifetime: Duration::from_millis(50),
        };
        let b = OpStats {
            name: "partial-kmeans".into(),
            clone_id: 1,
            items_in: 4,
            items_out: 4,
            busy: Duration::from_millis(40),
            blocked: Duration::from_millis(10),
            lifetime: Duration::from_millis(45),
        };
        a.merge(&b);
        assert_eq!(a.items_in, 7);
        assert_eq!(a.items_out, 7);
        assert_eq!(a.busy, Duration::from_millis(70));
        assert_eq!(a.blocked, Duration::from_millis(15));
        assert_eq!(a.lifetime, Duration::from_millis(50));
    }

    #[test]
    fn to_report_carries_the_busy_blocked_split() {
        let s = OpStats {
            name: "merge".into(),
            clone_id: 1,
            items_in: 10,
            items_out: 2,
            busy: Duration::from_millis(60),
            blocked: Duration::from_millis(20),
            lifetime: Duration::from_millis(100),
        };
        let r = s.to_report();
        assert_eq!(r.name, "merge");
        assert_eq!(r.clone_id, 1);
        assert_eq!(r.busy, Duration::from_millis(60));
        assert_eq!(r.blocked, Duration::from_millis(20));
        assert!((r.utilization - 0.6).abs() < 1e-12);
    }
}
