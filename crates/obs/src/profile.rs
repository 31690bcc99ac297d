//! Hierarchical span profiler with self/child wall-time attribution.
//!
//! A [`Profiler`] aggregates nested timed spans into a *phase tree*: each
//! distinct stack of span names (`partial` → `assign`) is one node holding a
//! call count and total wall time. Per-thread span stacks mean concurrent
//! operator clones profile independently and their times *sum* into the
//! shared tree — the same semantics as the operator `busy` accounting, so on
//! a multi-clone run a phase's total can exceed wall-clock time.
//!
//! Alongside the summed totals, every node tracks a *per-thread* total and
//! reports the maximum as `wall_us`: for a phase whose clones run
//! concurrently, that is the phase's elapsed wall time rather than the sum
//! of thread times, so a 4-clone partial phase no longer looks 4× longer
//! than the run it happened inside.
//!
//! Output comes in two shapes:
//!
//! * [`Profiler::phase_rows`] — flat [`PhaseReport`] rows (path, calls,
//!   total, self, wall) sorted by path, embedded in `RunReport.phases`;
//! * [`Profiler::folded`] — folded-stack text, one
//!   `scan;read <self_us> <wall_us>` line per phase. The *last* column is
//!   the per-thread-max wall time; pipe through `awk '{print $1, $2}'` for
//!   strict `flamegraph.pl` single-value input.
//!
//! Time comes from a pluggable [`ProfilerClock`]; tests use [`ManualClock`]
//! for deterministic output, production uses the default [`MonotonicClock`].
//!
//! ```
//! use pmkm_obs::profile::{ManualClock, Profiler};
//! use std::sync::Arc;
//!
//! let clock = Arc::new(ManualClock::new());
//! let prof = Profiler::with_clock(clock.clone());
//! {
//!     let _outer = prof.enter("partial");
//!     clock.advance_us(10);
//!     {
//!         let _inner = prof.enter("assign");
//!         clock.advance_us(30);
//!     }
//! }
//! assert_eq!(prof.folded(), "partial 10 40\npartial;assign 30 30\n");
//! ```

use crate::lock;
use crate::report::PhaseReport;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Source of monotonic microsecond timestamps for the profiler.
pub trait ProfilerClock: Send + Sync {
    /// Microseconds since an arbitrary (but fixed) epoch.
    fn now_us(&self) -> u64;
}

/// The production clock: microseconds since the clock was created.
#[derive(Debug)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        Self { epoch: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfilerClock for MonotonicClock {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// A hand-cranked clock for deterministic tests: time only moves when
/// [`ManualClock::advance_us`] is called.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A clock stopped at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves time forward by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.now.fetch_add(us, Ordering::Relaxed);
    }
}

impl ProfilerClock for ManualClock {
    fn now_us(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

/// One node of the aggregated phase tree. Names live in the parent's
/// `children` map (and `roots` for top-level nodes).
struct Node {
    /// Child name → node index, kept sorted for deterministic traversal.
    children: BTreeMap<String, usize>,
    total_us: u64,
    calls: u64,
    /// Per-thread share of `total_us`; the maximum is the node's wall time
    /// when its threads ran concurrently.
    per_thread: HashMap<ThreadId, u64>,
}

struct State {
    /// Arena of tree nodes; indices are stable for the profiler's lifetime.
    nodes: Vec<Node>,
    /// Root name → node index.
    roots: BTreeMap<String, usize>,
    /// Per-thread stack of open span node indices.
    stacks: HashMap<ThreadId, Vec<usize>>,
}

impl State {
    fn resolve(&mut self, parent: Option<usize>, name: &str) -> usize {
        let map = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&idx) = map.get(name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            children: BTreeMap::new(),
            total_us: 0,
            calls: 0,
            per_thread: HashMap::new(),
        });
        let map = match parent {
            Some(p) => &mut self.nodes[p].children,
            None => &mut self.roots,
        };
        map.insert(name.to_string(), idx);
        idx
    }
}

/// Aggregating span profiler. See the [module docs](self) for the model.
///
/// Entering and exiting a span takes a short mutex; spans are meant to wrap
/// *phases* (a chunk's assignment step, a merge), never per-point work, so
/// contention is negligible next to the work being timed.
pub struct Profiler {
    clock: Arc<dyn ProfilerClock>,
    state: Mutex<State>,
}

impl Profiler {
    /// A profiler on the default monotonic clock.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A profiler on an injected clock (use [`ManualClock`] in tests).
    pub fn with_clock(clock: Arc<dyn ProfilerClock>) -> Self {
        Self {
            clock,
            state: Mutex::new(State {
                nodes: Vec::new(),
                roots: BTreeMap::new(),
                stacks: HashMap::new(),
            }),
        }
    }

    /// Opens a span named `name` nested under the calling thread's current
    /// innermost open span (or as a root). Dropping the guard closes it.
    pub fn enter(&self, name: &str) -> PhaseGuard<'_> {
        let tid = std::thread::current().id();
        let node = {
            let mut state = lock(&self.state);
            let parent = state.stacks.get(&tid).and_then(|s| s.last().copied());
            let node = state.resolve(parent, name);
            state.stacks.entry(tid).or_default().push(node);
            node
        };
        // Stamp *after* releasing the lock so lock wait is not attributed
        // to the span being opened.
        PhaseGuard { profiler: self, node, tid, start_us: self.clock.now_us() }
    }

    fn exit(&self, node: usize, tid: ThreadId, start_us: u64) {
        let end_us = self.clock.now_us();
        let mut state = lock(&self.state);
        if let Some(stack) = state.stacks.get_mut(&tid) {
            // Normal case: the guard being dropped is the innermost span.
            // Out-of-order drops (possible if a guard is moved) still close
            // the right node.
            if let Some(pos) = stack.iter().rposition(|&n| n == node) {
                stack.remove(pos);
            }
        }
        let n = &mut state.nodes[node];
        let elapsed = end_us.saturating_sub(start_us);
        n.total_us += elapsed;
        n.calls += 1;
        *n.per_thread.entry(tid).or_insert(0) += elapsed;
    }

    /// Flat per-phase rows sorted by path (`/`-joined), with
    /// `self_us = total_us − Σ children.total_us` (saturating) and
    /// `wall_us = max` over the per-thread totals.
    pub fn phase_rows(&self) -> Vec<PhaseReport> {
        let state = lock(&self.state);
        let mut rows = Vec::new();
        let mut pending: Vec<(usize, String)> =
            state.roots.iter().rev().map(|(name, &idx)| (idx, name.clone())).collect();
        while let Some((idx, path)) = pending.pop() {
            let node = &state.nodes[idx];
            let child_total: u64 = node.children.values().map(|&c| state.nodes[c].total_us).sum();
            rows.push(PhaseReport {
                path: path.clone(),
                calls: node.calls,
                total_us: node.total_us,
                self_us: node.total_us.saturating_sub(child_total),
                wall_us: node.per_thread.values().copied().max().unwrap_or(0),
            });
            for (name, &child) in node.children.iter().rev() {
                pending.push((child, format!("{path}/{name}")));
            }
        }
        rows
    }

    /// Folded-stack text: one `a;b;c <self_us> <wall_us>` line per phase in
    /// depth-first order. The first value is the thread-summed self time
    /// (the classic flamegraph weight), the second the per-thread-max wall
    /// time. Output is deterministic: siblings are sorted by name.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for row in self.phase_rows() {
            out.push_str(&row.path.replace('/', ";"));
            out.push(' ');
            out.push_str(&row.self_us.to_string());
            out.push(' ');
            out.push_str(&row.wall_us.to_string());
            out.push('\n');
        }
        out
    }

    /// Sum of the root phases' total times (≈ profiled wall time per thread,
    /// summed over threads).
    pub fn total_us(&self) -> u64 {
        let state = lock(&self.state);
        state.roots.values().map(|&idx| state.nodes[idx].total_us).sum()
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = lock(&self.state);
        f.debug_struct("Profiler")
            .field("nodes", &state.nodes.len())
            .field("roots", &state.roots.len())
            .finish()
    }
}

/// Guard for one open span; dropping it closes the span and adds the elapsed
/// time to the phase tree.
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct PhaseGuard<'p> {
    profiler: &'p Profiler,
    node: usize,
    tid: ThreadId,
    start_us: u64,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.profiler.exit(self.node, self.tid, self.start_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual() -> (Arc<ManualClock>, Profiler) {
        let clock = Arc::new(ManualClock::new());
        let prof = Profiler::with_clock(clock.clone());
        (clock, prof)
    }

    #[test]
    fn nested_spans_attribute_self_and_child_time_exactly() {
        let (clock, prof) = manual();
        {
            let _outer = prof.enter("partial");
            clock.advance_us(5); // self time before children
            {
                let _a = prof.enter("assign");
                clock.advance_us(30);
            }
            {
                let _u = prof.enter("update");
                clock.advance_us(10);
            }
            clock.advance_us(5); // self time after children
        }
        let rows = prof.phase_rows();
        let by_path: std::collections::HashMap<_, _> =
            rows.iter().map(|r| (r.path.as_str(), r)).collect();
        let partial = by_path["partial"];
        assert_eq!(partial.total_us, 50);
        assert_eq!(partial.self_us, 10);
        assert_eq!(partial.calls, 1);
        assert_eq!(by_path["partial/assign"].total_us, 30);
        assert_eq!(by_path["partial/assign"].self_us, 30);
        assert_eq!(by_path["partial/update"].total_us, 10);
        // self + children == total, exactly, under the manual clock.
        assert_eq!(
            partial.self_us
                + by_path["partial/assign"].total_us
                + by_path["partial/update"].total_us,
            partial.total_us
        );
    }

    #[test]
    fn repeated_calls_accumulate() {
        let (clock, prof) = manual();
        for _ in 0..3 {
            let _g = prof.enter("scan");
            clock.advance_us(7);
        }
        let rows = prof.phase_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].calls, 3);
        assert_eq!(rows[0].total_us, 21);
        assert_eq!(prof.total_us(), 21);
    }

    #[test]
    fn folded_output_is_deterministic_and_sorted() {
        let (clock, prof) = manual();
        // Enter children in non-alphabetical order; output must still be
        // sorted and byte-identical across runs.
        {
            let _m = prof.enter("merge");
            clock.advance_us(4);
        }
        {
            let _p = prof.enter("partial");
            {
                let _u = prof.enter("update");
                clock.advance_us(2);
            }
            {
                let _a = prof.enter("assign");
                clock.advance_us(3);
            }
            clock.advance_us(1);
        }
        // Columns: self_us then wall_us. Single-threaded, wall == total.
        let expected = "merge 4 4\npartial 1 6\npartial;assign 3 3\npartial;update 2 2\n";
        assert_eq!(prof.folded(), expected);
        assert_eq!(prof.folded(), expected); // stable across calls
    }

    #[test]
    fn same_phase_on_two_threads_sums_into_one_node() {
        let clock = Arc::new(ManualClock::new());
        let prof = Arc::new(Profiler::with_clock(clock.clone()));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (prof, clock) = (Arc::clone(&prof), Arc::clone(&clock));
                std::thread::spawn(move || {
                    let _g = prof.enter("partial");
                    clock.advance_us(10);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let rows = prof.phase_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].calls, 2);
        // Each thread saw the shared clock advance at least its own 10µs;
        // with two advances the combined total lands in [20, 40].
        assert!(rows[0].total_us >= 20 && rows[0].total_us <= 40);
        // Wall is the per-thread max: never more than the summed total.
        assert!(rows[0].wall_us >= 10 && rows[0].wall_us <= rows[0].total_us);
    }

    #[test]
    fn wall_time_is_per_thread_max_not_thread_sum() {
        // Two threads run the same phase strictly one after the other, each
        // observing exactly a 10µs advance: the summed total is 20 but the
        // per-thread max (the "wall" column) is 10.
        let clock = Arc::new(ManualClock::new());
        let prof = Arc::new(Profiler::with_clock(clock.clone()));
        for _ in 0..2 {
            let (prof, clock) = (Arc::clone(&prof), Arc::clone(&clock));
            std::thread::spawn(move || {
                let _g = prof.enter("partial");
                clock.advance_us(10);
            })
            .join()
            .unwrap();
        }
        let rows = prof.phase_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].total_us, 20);
        assert_eq!(rows[0].wall_us, 10);
        assert_eq!(prof.folded(), "partial 20 10\n");
    }

    #[test]
    fn sibling_stacks_do_not_nest_across_threads() {
        // A span open on thread A must not become the parent of a span
        // opened on thread B.
        let (clock, prof) = manual();
        let prof = Arc::new(prof);
        let _outer = prof.enter("partial");
        clock.advance_us(1);
        let p = Arc::clone(&prof);
        std::thread::spawn(move || {
            let _g = p.enter("merge");
        })
        .join()
        .unwrap();
        drop(_outer);
        let paths: Vec<String> = prof.phase_rows().into_iter().map(|r| r.path).collect();
        assert_eq!(paths, vec!["merge".to_string(), "partial".to_string()]);
    }

    #[test]
    fn monotonic_clock_measures_real_time() {
        let prof = Profiler::new();
        {
            let _g = prof.enter("sleep");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let rows = prof.phase_rows();
        assert_eq!(rows[0].path, "sleep");
        assert!(rows[0].total_us >= 1_000);
    }

    #[test]
    fn phase_rows_serialize() {
        let (clock, prof) = manual();
        {
            let _g = prof.enter("scan");
            clock.advance_us(3);
        }
        let rows = prof.phase_rows();
        let json = serde_json::to_string(&rows).unwrap();
        let back: Vec<PhaseReport> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rows);
    }
}
