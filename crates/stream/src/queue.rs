//! Smart queues: the bounded, telemetry-bearing edges between operators.
//!
//! "Producer operator(s) and consumer operator(s) are connected via smart
//! queues to avoid buffer overflow or underflow" (§3.4). Concretely: a
//! bounded MPMC channel — blocking sends give backpressure (no overflow),
//! blocking receives give pipelining (no busy underflow) — plus counters
//! that let the engine report throughput and contention per edge. The MPMC
//! receive side is what makes *operator cloning* trivial: every clone of a
//! consumer holds a receiver on the same queue and the clones steal work
//! from each other.

use crossbeam::channel::{bounded, Receiver, SendError, Sender, TryRecvError, TrySendError};
use parking_lot::Mutex;
use pmkm_obs::{HistogramSnapshot, QueueReport};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of depth-histogram buckets: depths 0, 1, 2–3, 4–7, 8–15, 16–31,
/// 32–63, and 64+. Power-of-two ranges keep the sampling a handful of
/// compares regardless of capacity.
const DEPTH_BUCKETS: usize = 8;

/// Inclusive upper bounds of the finite depth buckets (the 8th is +Inf).
const DEPTH_BOUNDS: [f64; DEPTH_BUCKETS - 1] = [0.0, 1.0, 3.0, 7.0, 15.0, 31.0, 63.0];

fn depth_bucket(depth: usize) -> usize {
    match depth {
        0 => 0,
        1 => 1,
        2..=3 => 2,
        4..=7 => 3,
        8..=15 => 4,
        16..=31 => 5,
        32..=63 => 6,
        _ => 7,
    }
}

/// Snapshot of one queue's telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Edge name (e.g. `"chunks"`).
    pub name: String,
    /// Configured capacity.
    pub capacity: usize,
    /// Items pushed.
    pub sends: u64,
    /// Items popped.
    pub recvs: u64,
    /// Sends that found the queue full and had to block (backpressure
    /// events — the producer outpacing the consumer).
    pub full_blocks: u64,
    /// Receives that found the queue empty and had to block (underflow
    /// events — the consumer outpacing the producer).
    pub empty_blocks: u64,
    /// Total time producers spent blocked on a full queue.
    pub blocked_send: Duration,
    /// Total time consumers spent blocked on an empty queue.
    pub blocked_recv: Duration,
    /// Queue-depth histogram observed after every successful send: counts
    /// for depths 0, 1, 2–3, 4–7, 8–15, 16–31, 32–63, 64+. The counts sum
    /// to `sends`.
    pub depth_counts: Vec<u64>,
}

impl QueueStats {
    /// Converts into the observability layer's report row.
    pub fn to_report(&self) -> QueueReport {
        let count: u64 = self.depth_counts.iter().sum();
        QueueReport {
            name: self.name.clone(),
            capacity: self.capacity,
            sends: self.sends,
            recvs: self.recvs,
            full_blocks: self.full_blocks,
            empty_blocks: self.empty_blocks,
            blocked_send: self.blocked_send,
            blocked_recv: self.blocked_recv,
            depth: HistogramSnapshot {
                bounds: DEPTH_BOUNDS.to_vec(),
                counts: self.depth_counts.clone(),
                count,
                // Exact depths are bucketed away; the sum is not tracked.
                sum: 0.0,
            },
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    sends: AtomicU64,
    recvs: AtomicU64,
    full_blocks: AtomicU64,
    empty_blocks: AtomicU64,
    blocked_send_nanos: AtomicU64,
    blocked_recv_nanos: AtomicU64,
    depth: [AtomicU64; DEPTH_BUCKETS],
}

impl Counters {
    fn observe_depth(&self, depth: usize) {
        self.depth[depth_bucket(depth)].fetch_add(1, Ordering::Relaxed);
    }
}

/// A named, bounded MPMC queue.
///
/// Cheap to clone on both ends; the channel closes when every sender (or
/// every receiver) is dropped, which is how end-of-stream propagates through
/// a pipeline without explicit EOS messages on most edges — and how a
/// producer learns that every consumer has gone.
pub struct SmartQueue<T> {
    name: String,
    capacity: usize,
    counters: Arc<Counters>,
    sender: Mutex<Option<Sender<T>>>,
    receiver: Mutex<Option<Receiver<T>>>,
}

impl<T> SmartQueue<T> {
    /// Creates a queue with the given capacity (min 1).
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let (tx, rx) = bounded(capacity);
        Self {
            name: name.into(),
            capacity,
            counters: Arc::new(Counters::default()),
            sender: Mutex::new(Some(tx)),
            receiver: Mutex::new(Some(rx)),
        }
    }

    /// A producer handle. Call once per producer clone, **before**
    /// [`SmartQueue::seal`].
    pub fn producer(&self) -> QueueProducer<T> {
        let guard = self.sender.lock();
        let tx = guard.as_ref().expect("queue already sealed").clone();
        QueueProducer { tx, counters: Arc::clone(&self.counters) }
    }

    /// A consumer handle. Call once per consumer clone, **before**
    /// [`SmartQueue::seal`].
    pub fn consumer(&self) -> QueueConsumer<T> {
        let guard = self.receiver.lock();
        let rx = guard.as_ref().expect("queue already sealed").clone();
        QueueConsumer { rx, counters: Arc::clone(&self.counters) }
    }

    /// Drops the queue's internal sender and receiver, so the channel
    /// closes once all handed-out producers finish (consumers see
    /// end-of-stream) or once all handed-out consumers are gone (a
    /// producer's send, even one blocked on a full queue, fails). Must be
    /// called after wiring, before waiting for the pipeline.
    pub fn seal(&self) {
        self.sender.lock().take();
        self.receiver.lock().take();
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            name: self.name.clone(),
            capacity: self.capacity,
            sends: self.counters.sends.load(Ordering::Relaxed),
            recvs: self.counters.recvs.load(Ordering::Relaxed),
            full_blocks: self.counters.full_blocks.load(Ordering::Relaxed),
            empty_blocks: self.counters.empty_blocks.load(Ordering::Relaxed),
            blocked_send: Duration::from_nanos(
                self.counters.blocked_send_nanos.load(Ordering::Relaxed),
            ),
            blocked_recv: Duration::from_nanos(
                self.counters.blocked_recv_nanos.load(Ordering::Relaxed),
            ),
            depth_counts: self.counters.depth.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// Sending half; dropped ⇒ one fewer producer on the edge.
pub struct QueueProducer<T> {
    tx: Sender<T>,
    counters: Arc<Counters>,
}

impl<T> QueueProducer<T> {
    /// Blocking send with backpressure accounting. `Err` means every
    /// consumer hung up (broken pipeline).
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        match self.tx.try_send(item) {
            Ok(()) => {
                self.counters.sends.fetch_add(1, Ordering::Relaxed);
                self.counters.observe_depth(self.tx.len());
                Ok(())
            }
            Err(TrySendError::Full(item)) => {
                self.counters.full_blocks.fetch_add(1, Ordering::Relaxed);
                let start = Instant::now();
                let res = self.tx.send(item);
                self.counters
                    .blocked_send_nanos
                    .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                if res.is_ok() {
                    self.counters.sends.fetch_add(1, Ordering::Relaxed);
                    self.counters.observe_depth(self.tx.len());
                }
                res
            }
            Err(TrySendError::Disconnected(item)) => Err(SendError(item)),
        }
    }
}

impl<T> Clone for QueueProducer<T> {
    fn clone(&self) -> Self {
        Self { tx: self.tx.clone(), counters: Arc::clone(&self.counters) }
    }
}

/// Receiving half; clones share the queue (work stealing between operator
/// clones).
pub struct QueueConsumer<T> {
    rx: Receiver<T>,
    counters: Arc<Counters>,
}

impl<T> QueueConsumer<T> {
    /// Blocking receive with underflow accounting. `None` means the stream
    /// ended (all producers dropped and the queue drained).
    pub fn recv(&self) -> Option<T> {
        match self.rx.try_recv() {
            Ok(item) => {
                self.counters.recvs.fetch_add(1, Ordering::Relaxed);
                Some(item)
            }
            Err(TryRecvError::Empty) => {
                self.counters.empty_blocks.fetch_add(1, Ordering::Relaxed);
                let start = Instant::now();
                let res = self.rx.recv().ok();
                self.counters
                    .blocked_recv_nanos
                    .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                if res.is_some() {
                    self.counters.recvs.fetch_add(1, Ordering::Relaxed);
                }
                res
            }
            Err(TryRecvError::Disconnected) => None,
        }
    }
}

impl<T> Clone for QueueConsumer<T> {
    fn clone(&self) -> Self {
        Self { rx: self.rx.clone(), counters: Arc::clone(&self.counters) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_within_single_producer_consumer() {
        let q: SmartQueue<u32> = SmartQueue::new("t", 4);
        let p = q.producer();
        let c = q.consumer();
        q.seal();
        for i in 0..4 {
            p.send(i).unwrap();
        }
        drop(p);
        let got: Vec<u32> = std::iter::from_fn(|| c.recv()).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn end_of_stream_after_all_producers_drop() {
        let q: SmartQueue<u32> = SmartQueue::new("t", 2);
        let p1 = q.producer();
        let p2 = q.producer();
        let c = q.consumer();
        q.seal();
        p1.send(1).unwrap();
        drop(p1);
        p2.send(2).unwrap();
        drop(p2);
        assert!(c.recv().is_some());
        assert!(c.recv().is_some());
        assert!(c.recv().is_none());
    }

    #[test]
    fn backpressure_blocks_and_is_counted() {
        let q: SmartQueue<u32> = SmartQueue::new("t", 1);
        let p = q.producer();
        let c = q.consumer();
        q.seal();
        p.send(0).unwrap();
        let handle = thread::spawn(move || {
            p.send(1).unwrap(); // must block until the consumer drains
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(c.recv(), Some(0));
        handle.join().unwrap();
        assert_eq!(c.recv(), Some(1));
        let s = q.stats();
        assert_eq!(s.sends, 2);
        assert_eq!(s.recvs, 2);
        assert!(s.full_blocks >= 1);
        assert!(s.blocked_send >= Duration::from_millis(10));
    }

    #[test]
    fn cloned_consumers_partition_the_stream() {
        let q: SmartQueue<u64> = SmartQueue::new("t", 8);
        let p = q.producer();
        let c1 = q.consumer();
        let c2 = q.consumer();
        q.seal();
        let n = 1000u64;
        let producer = thread::spawn(move || {
            for i in 0..n {
                p.send(i).unwrap();
            }
        });
        let worker = |c: QueueConsumer<u64>| {
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = c.recv() {
                    got.push(v);
                }
                got
            })
        };
        let h1 = worker(c1);
        let h2 = worker(c2);
        producer.join().unwrap();
        let mut all = h1.join().unwrap();
        all.extend(h2.join().unwrap());
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn send_fails_when_consumers_gone() {
        let q: SmartQueue<u32> = SmartQueue::new("t", 1);
        let p = q.producer();
        let c = q.consumer();
        q.seal();
        drop(c);
        // The sealed queue holds no receiver of its own.
        assert!(p.send(1).is_err());
    }

    #[test]
    fn blocked_send_fails_when_the_last_consumer_drops() {
        let q: SmartQueue<u32> = SmartQueue::new("t", 1);
        let p = q.producer();
        let c1 = q.consumer();
        let c2 = q.consumer();
        q.seal();
        p.send(0).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let blocked = thread::spawn(move || {
            // The queue is full: this send blocks until a consumer drains
            // it or every consumer is gone.
            done_tx.send(p.send(1).is_err()).unwrap();
        });
        while q.stats().full_blocks == 0 {
            thread::yield_now();
        }
        drop(c1);
        assert!(done_rx.try_recv().is_err(), "one consumer is still live");
        drop(c2);
        let failed = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a producer blocked on a full queue hangs after its consumers are gone");
        assert!(failed);
        blocked.join().unwrap();
        let s = q.stats();
        assert_eq!((s.sends, s.full_blocks), (1, 1));
    }

    #[test]
    fn empty_block_counted() {
        let q: SmartQueue<u32> = SmartQueue::new("t", 2);
        let p = q.producer();
        let c = q.consumer();
        q.seal();
        let h = thread::spawn(move || c.recv());
        thread::sleep(Duration::from_millis(20));
        p.send(7).unwrap();
        assert_eq!(h.join().unwrap(), Some(7));
        let s = q.stats();
        assert!(s.empty_blocks >= 1);
        assert!(s.blocked_recv >= Duration::from_millis(10));
    }

    #[test]
    fn capacity_minimum_is_one() {
        let q: SmartQueue<u32> = SmartQueue::new("t", 0);
        assert_eq!(q.stats().capacity, 1);
    }

    #[test]
    fn depth_histogram_counts_sum_to_sends() {
        let q: SmartQueue<u32> = SmartQueue::new("t", 16);
        let p = q.producer();
        let c = q.consumer();
        q.seal();
        // Fill to varying depths with interleaved drains.
        for i in 0..10 {
            p.send(i).unwrap();
        }
        for _ in 0..5 {
            c.recv().unwrap();
        }
        for i in 10..20 {
            p.send(i).unwrap();
        }
        let s = q.stats();
        assert_eq!(s.sends, 20);
        assert_eq!(s.depth_counts.len(), DEPTH_BUCKETS);
        assert_eq!(s.depth_counts.iter().sum::<u64>(), s.sends);
        // Depths above capacity are impossible: cap 16 ⇒ 64+ bucket empty.
        assert_eq!(s.depth_counts[7], 0);

        let report = s.to_report();
        assert_eq!(report.depth.count, 20);
        assert_eq!(report.depth.counts, s.depth_counts);
        assert_eq!(report.depth.bounds.len() + 1, report.depth.counts.len());
    }

    #[test]
    fn depth_bucket_boundaries() {
        assert_eq!(depth_bucket(0), 0);
        assert_eq!(depth_bucket(1), 1);
        assert_eq!(depth_bucket(2), 2);
        assert_eq!(depth_bucket(3), 2);
        assert_eq!(depth_bucket(4), 3);
        assert_eq!(depth_bucket(63), 6);
        assert_eq!(depth_bucket(64), 7);
        assert_eq!(depth_bucket(100_000), 7);
    }
}
