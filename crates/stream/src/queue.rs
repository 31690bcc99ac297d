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

use pmkm_obs::{lock, HistogramSnapshot, QueueReport};
use std::collections::VecDeque;
use std::sync::mpsc::SendError;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
#[derive(Debug, Clone, Default, PartialEq)]
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

/// Everything a queue's handles share, behind one lock.
struct State<T> {
    items: VecDeque<T>,
    /// Live producer handles, plus the queue's own until it is sealed.
    producers: usize,
    /// Live consumer handles, plus the queue's own until it is sealed.
    consumers: usize,
    sealed: bool,
    stats: QueueStats,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when an item arrives or the last producer leaves.
    not_empty: Condvar,
    /// Signalled when an item leaves or the last consumer leaves.
    not_full: Condvar,
}

/// A named, bounded MPMC queue.
///
/// Hands out any number of producers and consumers; the queue closes
/// when every producer (or every consumer) is dropped, which is how
/// end-of-stream propagates without explicit EOS messages — and how a
/// producer learns that every consumer has gone. Items, handle counts and
/// telemetry sit under one lock, which a send or a receive takes once.
pub struct SmartQueue<T> {
    shared: Arc<Shared<T>>,
}

impl<T> SmartQueue<T> {
    /// Creates a queue with the given capacity (min 1).
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        let stats = QueueStats {
            name: name.into(),
            capacity: capacity.max(1),
            depth_counts: vec![0; DEPTH_BUCKETS],
            ..QueueStats::default()
        };
        let state =
            State { items: VecDeque::new(), producers: 1, consumers: 1, sealed: false, stats };
        let shared = Shared {
            state: Mutex::new(state),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        };
        Self { shared: Arc::new(shared) }
    }

    /// A producer handle. Call once per producer clone, **before**
    /// [`SmartQueue::seal`].
    pub fn producer(&self) -> QueueProducer<T> {
        let mut state = lock(&self.shared.state);
        assert!(!state.sealed, "queue already sealed");
        state.producers += 1;
        QueueProducer { shared: Arc::clone(&self.shared) }
    }

    /// A consumer handle. Call once per consumer clone, **before**
    /// [`SmartQueue::seal`].
    pub fn consumer(&self) -> QueueConsumer<T> {
        let mut state = lock(&self.shared.state);
        assert!(!state.sealed, "queue already sealed");
        state.consumers += 1;
        QueueConsumer { shared: Arc::clone(&self.shared) }
    }

    /// Releases the queue's own producer and consumer count, so the queue
    /// closes once all handed-out producers finish (consumers see
    /// end-of-stream) or once all handed-out consumers are gone (a
    /// producer's send, even one blocked on a full queue, fails). Must be
    /// called after wiring, before waiting for the pipeline; dropping the
    /// queue seals it too.
    pub fn seal(&self) {
        let mut state = lock(&self.shared.state);
        if !state.sealed {
            state.sealed = true;
            state.producers -= 1;
            state.consumers -= 1;
            self.shared.not_empty.notify_all();
            self.shared.not_full.notify_all();
        }
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> QueueStats {
        lock(&self.shared.state).stats.clone()
    }
}

impl<T> Drop for SmartQueue<T> {
    fn drop(&mut self) {
        self.seal();
    }
}

/// Sending half; dropped ⇒ one fewer producer on the edge.
pub struct QueueProducer<T> {
    shared: Arc<Shared<T>>,
}

impl<T> QueueProducer<T> {
    /// Blocking send with backpressure accounting. `Err` means every
    /// consumer hung up (broken pipeline); it hands the item back.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        let mut state = lock(&self.shared.state);
        let full = |s: &State<T>| s.consumers > 0 && s.items.len() >= s.stats.capacity;
        if full(&state) {
            state.stats.full_blocks += 1;
            let start = Instant::now();
            while full(&state) {
                state = self.shared.not_full.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            state.stats.blocked_send += start.elapsed();
        }
        if state.consumers == 0 {
            return Err(SendError(item));
        }
        state.items.push_back(item);
        let depth = depth_bucket(state.items.len());
        state.stats.depth_counts[depth] += 1;
        state.stats.sends += 1;
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Drop for QueueProducer<T> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.producers -= 1;
        if state.producers == 0 {
            self.shared.not_empty.notify_all();
        }
    }
}

/// Receiving half; the consumers of one queue share it (work stealing
/// between operator clones).
pub struct QueueConsumer<T> {
    shared: Arc<Shared<T>>,
}

impl<T> QueueConsumer<T> {
    /// Blocking receive with underflow accounting. `None` means the stream
    /// ended (all producers dropped and the queue drained).
    pub fn recv(&self) -> Option<T> {
        let mut state = lock(&self.shared.state);
        let empty = |s: &State<T>| s.producers > 0 && s.items.is_empty();
        if empty(&state) {
            state.stats.empty_blocks += 1;
            let start = Instant::now();
            while empty(&state) {
                state = self.shared.not_empty.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            state.stats.blocked_recv += start.elapsed();
        }
        self.pop(state)
    }

    /// Non-blocking receive: the next item if one is queued, `None`
    /// otherwise, whether or not the stream has ended. Counted as `recv`
    /// counts; it never blocks, so it books no underflow.
    pub(crate) fn try_recv(&self) -> Option<T> {
        self.pop(lock(&self.shared.state))
    }

    /// Pops the front item, releases the lock, and wakes one producer.
    fn pop(&self, mut state: MutexGuard<'_, State<T>>) -> Option<T> {
        let item = state.items.pop_front()?;
        state.stats.recvs += 1;
        drop(state);
        self.shared.not_full.notify_one();
        Some(item)
    }
}

impl<T> Drop for QueueConsumer<T> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.consumers -= 1;
        if state.consumers == 0 {
            self.shared.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
    fn try_recv_takes_what_is_queued_without_blocking() {
        let q: SmartQueue<u32> = SmartQueue::new("t", 1);
        let p = q.producer();
        let c = q.consumer();
        q.seal();
        assert_eq!(c.try_recv(), None);
        p.send(0).unwrap();
        let blocked = thread::spawn(move || p.send(1).unwrap());
        while q.stats().full_blocks == 0 {
            thread::yield_now();
        }
        // Taking the queued item wakes the producer blocked behind it.
        assert_eq!(c.try_recv(), Some(0));
        blocked.join().unwrap();
        assert_eq!(c.try_recv(), Some(1));
        assert_eq!(c.try_recv(), None, "ended and drained");
        let s = q.stats();
        assert_eq!((s.sends, s.recvs, s.empty_blocks), (2, 2, 0));
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

    /// What a handle's thread did before its handle dropped.
    enum Done {
        /// A producer: the items handed back inside `SendError`.
        Sent(Vec<u64>),
        /// A consumer: the items it received, in order.
        Received(Vec<u64>),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The close protocol under any mix of handles. Producer `p` sends
        // `loads[p]` items and drops; a consumer with a quota under 24
        // leaves after that many items, the others read to end-of-stream.
        // Threads start in a random order with the seal at a random point
        // among them. Every item ends up received exactly once, handed
        // back, or still queued, and every blocked call returns.
        #[test]
        fn close_protocol_accounts_for_every_item(
            loads in proptest::collection::vec(0u64..24, 1..5),
            quotas in proptest::collection::vec(0usize..48, 1..5),
            capacity in 1usize..5,
            keys in proptest::collection::vec(any::<u64>(), 8),
            seal_at in 0usize..9,
        ) {
            let q: SmartQueue<u64> = SmartQueue::new("close", capacity);
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let mut starts: Vec<(u64, Box<dyn FnOnce() -> Done + Send>)> = Vec::new();
            for (p, &load) in loads.iter().enumerate() {
                let producer = q.producer();
                let items: Vec<u64> = (0..load).map(|j| p as u64 * 1000 + j).collect();
                starts.push((keys[p], Box::new(move || {
                    let returned = items.into_iter().filter_map(|v| producer.send(v).err()).map(|e| e.0);
                    Done::Sent(returned.collect())
                })));
            }
            for (c, &quota) in quotas.iter().enumerate() {
                let consumer = q.consumer();
                let quota = if quota < 24 { quota } else { usize::MAX };
                starts.push((keys[4 + c], Box::new(move || {
                    Done::Received(std::iter::from_fn(|| consumer.recv()).take(quota).collect())
                })));
            }
            starts.sort_by_key(|(key, _)| *key);
            let n = starts.len();
            let mut threads = Vec::new();
            for (i, (_, start)) in starts.into_iter().enumerate() {
                if i == seal_at.min(n) {
                    q.seal();
                }
                let done_tx = done_tx.clone();
                threads.push(thread::spawn(move || done_tx.send(start()).unwrap()));
            }
            q.seal();
            let (mut returned, mut received) = (Vec::new(), Vec::new());
            for _ in 0..n {
                let done = done_rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("a blocked send or receive never returned");
                match done {
                    Done::Sent(items) => returned.extend(items),
                    Done::Received(items) => {
                        // One producer's items reach any one consumer in order.
                        for p in 0..loads.len() as u64 {
                            let mine: Vec<u64> = items.iter().copied().filter(|v| v / 1000 == p).collect();
                            prop_assert!(mine.windows(2).all(|w| w[0] < w[1]), "{:?}", items);
                        }
                        received.extend(items);
                    }
                }
            }
            for t in threads {
                t.join().unwrap();
            }
            let left: Vec<u64> = lock(&q.shared.state).items.iter().copied().collect();
            let s = q.stats();
            prop_assert_eq!(s.recvs, received.len() as u64);
            prop_assert_eq!(s.sends, s.recvs + left.len() as u64);
            prop_assert_eq!(s.depth_counts.iter().sum::<u64>(), s.sends);
            prop_assert!(s.depth_counts[depth_bucket(capacity) + 1..].iter().all(|&n| n == 0));
            if quotas.iter().any(|&quota| quota >= 24) {
                // A consumer that reads to end-of-stream outlives every
                // producer, so nothing is refused and nothing is left.
                prop_assert!(returned.is_empty() && left.is_empty());
            }
            let mut all: Vec<u64> = [received, returned, left].concat();
            all.sort_unstable();
            let mut want: Vec<u64> = (0..loads.len() as u64)
                .flat_map(|p| (0..loads[p as usize]).map(move |j| p * 1000 + j))
                .collect();
            want.sort_unstable();
            prop_assert_eq!(all, want);
        }
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
