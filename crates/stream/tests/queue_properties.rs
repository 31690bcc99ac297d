//! Property tests for the smart-queue substrate.

use pmkm_stream::SmartQueue;
use proptest::prelude::*;
use std::thread;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_item_delivered_exactly_once(
        items in proptest::collection::vec(any::<u64>(), 0..256),
        consumers in 1usize..5,
        capacity in 1usize..32,
    ) {
        let q: SmartQueue<u64> = SmartQueue::new("prop", capacity);
        let p = q.producer();
        let handles: Vec<_> = (0..consumers)
            .map(|_| {
                let c = q.consumer();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = c.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        q.seal();
        for &v in &items {
            p.send(v).unwrap();
        }
        drop(p);
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        let mut want = items.clone();
        want.sort_unstable();
        prop_assert_eq!(all, want);
        let s = q.stats();
        prop_assert_eq!(s.sends, items.len() as u64);
        prop_assert_eq!(s.recvs, items.len() as u64);
    }

    #[test]
    fn single_consumer_preserves_order(
        items in proptest::collection::vec(any::<u32>(), 0..128),
        capacity in 1usize..16,
    ) {
        let q: SmartQueue<u32> = SmartQueue::new("order", capacity);
        let p = q.producer();
        let c = q.consumer();
        q.seal();
        let want = items.clone();
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = c.recv() {
                got.push(v);
            }
            got
        });
        for v in items {
            p.send(v).unwrap();
        }
        drop(p);
        prop_assert_eq!(consumer.join().unwrap(), want);
    }

    // Backpressure + shutdown ordering: with a queue far smaller than the
    // stream, producers must block (never drop), every item must still be
    // delivered before end-of-stream, and consumers only see `None` after
    // the full stream has drained.
    #[test]
    fn backpressure_delivers_everything_before_shutdown(
        items in proptest::collection::vec(any::<u16>(), 1..200),
        capacity in 1usize..4,
        producers in 1usize..4,
    ) {
        let q: SmartQueue<u16> = SmartQueue::new("bp", capacity);
        let chunks: Vec<Vec<u16>> =
            items.chunks(items.len().div_ceil(producers)).map(<[u16]>::to_vec).collect();
        let senders: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let p = q.producer();
                let chunk = chunk.clone();
                thread::spawn(move || {
                    for v in chunk {
                        p.send(v).unwrap();
                    }
                })
            })
            .collect();
        let c = q.consumer();
        q.seal();
        let mut got = Vec::new();
        while let Some(v) = c.recv() {
            got.push(v);
        }
        // `None` is sticky: once the stream ended it stays ended.
        prop_assert!(c.recv().is_none());
        for h in senders {
            h.join().unwrap();
        }
        got.sort_unstable();
        let mut want = items.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        let s = q.stats();
        prop_assert_eq!(s.sends, items.len() as u64);
        prop_assert_eq!(s.recvs, items.len() as u64);
        // Blocking is accounted, never silently swallowed: every
        // backpressure event is a send that eventually completed.
        prop_assert!(s.full_blocks <= s.sends);
    }

    // The depth histogram only ever grows, holds exactly one observation
    // per send, and never records a depth above the queue's capacity.
    #[test]
    fn depth_histogram_is_monotone_and_bounded(
        rounds in proptest::collection::vec(1usize..16, 1..12),
        capacity in 1usize..32,
    ) {
        let q: SmartQueue<u32> = SmartQueue::new("depth", capacity);
        let p = q.producer();
        let c = q.consumer();
        q.seal();
        let mut prev = q.stats().depth_counts;
        let mut sent = 0u64;
        let mut received = 0u64;
        for &n in &rounds {
            for _ in 0..n {
                // Keep room so the single-threaded send never blocks, but
                // let the depth wander through the buckets.
                if sent - received >= capacity as u64 || (sent.is_multiple_of(3) && received < sent) {
                    c.recv().unwrap();
                    received += 1;
                }
                p.send(0).unwrap();
                sent += 1;
            }
            let s = q.stats();
            // Monotone: cumulative counters never decrease between snapshots.
            for (now, before) in s.depth_counts.iter().zip(&prev) {
                prop_assert!(now >= before, "bucket shrank: {:?} -> {:?}", prev, s.depth_counts);
            }
            prev = s.depth_counts;
            // One depth observation per send.
            let observed: u64 = prev.iter().sum();
            prop_assert_eq!(observed, sent);
        }
        // Depths beyond capacity are impossible; the overflow buckets
        // strictly above the capacity's bucket must stay empty.
        let bounds = [0usize, 1, 3, 7, 15, 31, 63];
        let s = q.stats();
        for (i, &bound) in bounds.iter().enumerate() {
            if capacity <= bound {
                for overflow in &s.depth_counts[i + 1..] {
                    prop_assert_eq!(*overflow, 0u64);
                }
                break;
            }
        }
    }

    // Producer stalls (the chaos harness's queue-stall fault) must never
    // lose or duplicate messages: consumers just block on the empty queue
    // and the accounting stays exact.
    #[test]
    fn producer_stalls_lose_nothing(
        items in proptest::collection::vec(any::<u32>(), 1..64),
        stall_mask in any::<u64>(),
        consumers in 1usize..4,
    ) {
        let q: SmartQueue<u32> = SmartQueue::new("stall", 2);
        let p = q.producer();
        let handles: Vec<_> = (0..consumers)
            .map(|_| {
                let c = q.consumer();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = c.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        q.seal();
        for (i, &v) in items.iter().enumerate() {
            if stall_mask & (1 << (i % 64)) != 0 {
                thread::sleep(std::time::Duration::from_micros(50));
            }
            p.send(v).unwrap();
        }
        drop(p);
        let mut all: Vec<u32> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        let mut want = items.clone();
        want.sort_unstable();
        prop_assert_eq!(all, want);
        let s = q.stats();
        prop_assert_eq!(s.sends, items.len() as u64);
        prop_assert_eq!(s.recvs, items.len() as u64);
        prop_assert!(s.empty_blocks <= s.recvs + consumers as u64);
    }
}
