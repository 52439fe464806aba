//! The execution engine: one primitive, [`parallel_for`].
//!
//! A batch runs on its caller and up to `threads − 1` helpers spawned with
//! `std::thread::scope`, reserved from one process-wide budget of
//! `threads − 1`: a nested or concurrent call that finds the budget spent
//! gets fewer helpers, or none and runs inline. Every participant claims
//! indices from the batch's atomic counter, so uneven tasks balance
//! without queues or stealing. No helper outlives its call: there is no
//! pool to wake or shut down, and [`set_num_threads`] only stores the
//! count the next batch reads. Helpers inherit the caller's CPU mask.
//!
//! Panic contract: a panicking task ends its batch (unclaimed tasks are
//! skipped), and the first payload is re-thrown on the caller once every
//! helper has been joined. The atomics are all `Relaxed`: they count or
//! claim and publish no data, which reaches the caller through the join.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::thread::Scope;
use std::time::Instant;

/// The engine's lifetime counters (a shim extension). They are cumulative
/// and process-global: a delta around a phase assumes one build in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured thread count, the caller included (0 until first use).
    pub threads: usize,
    /// Tasks executed by batches, on any thread.
    pub tasks_executed: u64,
    /// Tasks a helper thread ran rather than the batch's caller.
    pub tasks_helped: u64,
    /// Batches run by [`parallel_for`] (its inline paths not included).
    pub batches: u64,
    /// Nanoseconds spent in task bodies, summed over threads. A nested
    /// `parallel_for`'s wall time is excluded from the enclosing task (the
    /// inner tasks count themselves), so `busy_ns / wall_ns` over a phase
    /// is its effective parallelism.
    pub busy_ns: u64,
}

/// Configured thread count; 0 until first use.
static THREADS: AtomicUsize = AtomicUsize::new(0);
/// Helper threads currently reserved, process-wide (≤ `THREADS − 1`).
static HELPERS: AtomicUsize = AtomicUsize::new(0);
static EXECUTED: AtomicU64 = AtomicU64::new(0);
static HELPED: AtomicU64 = AtomicU64::new(0);
static BATCHES: AtomicU64 = AtomicU64::new(0);
static BUSY_NS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Wall ns of `parallel_for` calls issued by the task body running here
    /// (excluded from its `busy_ns`; never read outside a task).
    static NESTED_NS: Cell<u64> = const { Cell::new(0) };
}

/// Thread count used on first use: `BAT_THREADS`, else
/// `RAYON_NUM_THREADS`, else the machine's available parallelism.
pub fn default_threads() -> usize {
    let env = |var| std::env::var(var).ok()?.trim().parse::<usize>().ok();
    let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
    env("BAT_THREADS")
        .or_else(|| env("RAYON_NUM_THREADS"))
        .map_or_else(cores, |n| n.max(1))
}

/// Number of threads a batch may use, the caller included. Always at
/// least 1; at 1 every parallel construct runs inline on the caller.
pub fn current_num_threads() -> usize {
    if THREADS.load(Relaxed) == 0 {
        _ = THREADS.compare_exchange(0, default_threads(), Relaxed, Relaxed);
    }
    THREADS.load(Relaxed)
}

/// Use `threads` threads from the next batch on; results do not depend on
/// the count (determinism invariant, DESIGN.md §10).
pub fn set_num_threads(threads: usize) {
    THREADS.store(threads.max(1), Relaxed);
}

/// Current engine counters (see [`PoolStats`]).
pub fn pool_stats() -> PoolStats {
    PoolStats {
        threads: THREADS.load(Relaxed),
        tasks_executed: EXECUTED.load(Relaxed),
        tasks_helped: HELPED.load(Relaxed),
        batches: BATCHES.load(Relaxed),
        busy_ns: BUSY_NS.load(Relaxed),
    }
}

/// One `parallel_for` call: its closure, next unclaimed index, helpers
/// started, first panic.
struct Batch<'a> {
    func: &'a (dyn Fn(usize) + Sync),
    tasks: usize,
    next: AtomicUsize,
    started: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Batch<'_> {
    /// Claim and run indices until none are left; returns how many ran.
    fn drain(&self) -> u64 {
        let claims = std::iter::repeat_with(|| self.next.fetch_add(1, Relaxed));
        claims
            .take_while(|&i| i < self.tasks)
            .map(|i| self.run(i))
            .count() as u64
    }

    fn run(&self, index: usize) {
        let t0 = Instant::now();
        // parallel_for calls issued by this body add their wall time to
        // NESTED_NS; it is subtracted, as the inner tasks count themselves.
        let outer_nested = NESTED_NS.with(|n| n.replace(0));
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.func)(index))) {
            // End the batch: every later claim lands past `tasks`.
            self.next.store(self.tasks, Relaxed);
            let mut first = self.panic.lock().unwrap_or_else(|e| e.into_inner());
            first.get_or_insert(payload);
        }
        let nested = NESTED_NS.with(|n| n.replace(outer_nested));
        let busy = (t0.elapsed().as_nanos() as u64).saturating_sub(nested);
        EXECUTED.fetch_add(1, Relaxed);
        BUSY_NS.fetch_add(busy, Relaxed);
    }
}

/// Run `func(0..tasks)` on the caller and up to `threads − 1` helpers,
/// returning once every index has run. Indices run on any thread in any
/// order, so each index's effect must be independent (disjoint output
/// slots). A panic in `func` is re-thrown here after the batch retires.
pub fn parallel_for(tasks: usize, func: &(dyn Fn(usize) + Sync)) {
    let threads = current_num_threads();
    if tasks <= 1 || threads <= 1 {
        (0..tasks).for_each(func);
        return;
    }
    BATCHES.fetch_add(1, Relaxed);
    let t0 = Instant::now();
    let batch = Batch {
        func,
        tasks,
        next: AtomicUsize::new(0),
        started: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };
    std::thread::scope(|s| {
        start_helper(s, &batch, 1, threads);
        batch.drain();
    });
    NESTED_NS.with(|n| n.set(n.get() + t0.elapsed().as_nanos() as u64));
    if let Some(payload) = batch.panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(payload);
    }
}

/// Start the batch's `n`-th helper if it has unclaimed tasks and the
/// budget of `threads − 1` has room, then park until the helper runs: a
/// new thread starts on its parent's CPU, and the wake-up is what moves
/// the parent to an idle one. Each helper starts the next, so where no CPU
/// is idle only the chain waits, not the batch's caller.
fn start_helper<'s>(s: &'s Scope<'s, '_>, batch: &'s Batch<'s>, n: usize, threads: usize) {
    let reserve = |busy: usize| (busy + 1 < threads).then_some(busy + 1);
    if n >= batch.tasks.min(threads)
        || batch.next.load(Relaxed) >= batch.tasks
        || HELPERS.fetch_update(Relaxed, Relaxed, reserve).is_err()
    {
        return;
    }
    let parent = std::thread::current();
    let helper = std::thread::Builder::new().spawn_scoped(s, move || {
        batch.started.fetch_add(1, Relaxed);
        parent.unpark();
        start_helper(s, batch, n + 1, threads);
        HELPED.fetch_add(batch.drain(), Relaxed);
        HELPERS.fetch_sub(1, Relaxed);
    });
    if helper.is_err() {
        HELPERS.fetch_sub(1, Relaxed);
        return;
    }
    while batch.started.load(Relaxed) < n {
        std::thread::park();
    }
}

/// Items per task when splitting `n`: about 4 tasks per thread, so claims
/// balance uneven work, but never fewer than `min_len` items.
pub(crate) fn chunk_len(n: usize, min_len: usize) -> usize {
    n.div_ceil(4 * current_num_threads()).max(min_len).max(1)
}

/// Serializes this crate's tests (they share the pool) and sets its size.
#[cfg(test)]
pub(crate) fn test_pool(threads: usize) -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_num_threads(threads);
    guard
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(n: usize) -> Vec<AtomicU64> {
        (0..n).map(|_| AtomicU64::new(0)).collect()
    }

    #[test]
    fn parallel_for_covers_every_index_once() {
        let _g = test_pool(4);
        let hits = counters(1000);
        parallel_for(1000, &|i| _ = hits[i].fetch_add(1, Relaxed));
        assert!(hits.iter().all(|h| h.load(Relaxed) == 1));
    }

    #[test]
    fn nested_parallel_for_completes() {
        let _g = test_pool(3);
        let (total, t0, busy0) = (AtomicU64::new(0), Instant::now(), pool_stats().busy_ns);
        parallel_for(8, &|_| {
            parallel_for(8, &|j| {
                total.fetch_add(j as u64, Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(200));
            })
        });
        assert_eq!(total.load(Relaxed), 8 * 28);
        // Nested wall time is not counted twice: 3 threads, busy ≤ 3 × wall.
        let busy = (pool_stats().busy_ns - busy0) as f64;
        assert!(busy <= 3.05 * t0.elapsed().as_nanos() as f64);
    }

    #[test]
    fn panics_propagate_and_pool_survives() {
        let _g = test_pool(2);
        let result = std::panic::catch_unwind(|| parallel_for(64, &|i| assert_ne!(i, 13)));
        assert!(result.is_err());
        // The engine is still usable afterwards, with its whole budget.
        assert_eq!(HELPERS.load(Relaxed), 0);
        let hits = counters(32);
        parallel_for(32, &|i| _ = hits[i].fetch_add(1, Relaxed));
        assert!(hits.iter().all(|h| h.load(Relaxed) == 1));
    }

    #[test]
    fn resize_mid_flight_is_safe() {
        let _g = test_pool(4);
        let n = AtomicU64::new(0);
        for t in [2, 5] {
            set_num_threads(t);
            parallel_for(100, &|_| _ = n.fetch_add(1, Relaxed));
        }
        assert_eq!((n.load(Relaxed), current_num_threads()), (200, 5));
    }

    /// Resizing while another thread runs nested batches (a deadlock in
    /// the persistent pool this engine replaced): a pass is the absence of
    /// a hang.
    #[test]
    fn resize_races_nested_parallelism() {
        let _g = test_pool(4);
        let total = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..20 {
                    parallel_for(8, &|_| {
                        parallel_for(4, &|j| _ = total.fetch_add(j as u64, Relaxed))
                    });
                }
            });
            for t in [2, 6, 3, 5, 4] {
                set_num_threads(t);
            }
        });
        assert_eq!(total.load(Relaxed), 20 * 8 * 6);
    }

    #[test]
    fn stats_move_forward() {
        let _g = test_pool(2);
        let before = pool_stats();
        parallel_for(50, &|_| {});
        let after = pool_stats();
        assert_eq!(after.tasks_executed, before.tasks_executed + 50);
        assert_eq!((after.batches, after.threads), (before.batches + 1, 2));
    }

    /// 4 submitters issue nested batches and recursive joins: at most
    /// `submitters + threads − 1` threads run task bodies at once, every
    /// index runs exactly once, and the counters add up exactly.
    #[test]
    fn oversubscription_is_bounded() {
        const SUBS: usize = 4;
        const OUTER: usize = 6;
        const INNER: usize = 5;
        const DEPTH: u32 = 4;
        let (running, high) = (AtomicUsize::new(0), AtomicUsize::new(0));
        // Only innermost bodies count: a thread runs one of those at a time.
        let leaf = |hit: &AtomicU64| {
            high.fetch_max(running.fetch_add(1, Relaxed) + 1, Relaxed);
            hit.fetch_add(1, Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(50));
            running.fetch_sub(1, Relaxed);
        };
        fn tree(depth: u32, leaf: &(dyn Fn(usize) + Sync), at: usize) {
            let half = |k| move || tree(depth - 1, leaf, 2 * at + k);
            match depth {
                0 => leaf(at),
                _ => _ = crate::join(half(0), half(1)),
            }
        }
        let _g = test_pool(4);
        for threads in [2, 4] {
            set_num_threads(threads);
            high.store(0, Relaxed);
            let (nested, leaves) = (counters(SUBS * OUTER * INNER), counters(SUBS << DEPTH));
            let before = pool_stats();
            std::thread::scope(|s| {
                for sub in 0..SUBS {
                    let (nested, leaves, leaf) = (&nested, &leaves, &leaf);
                    s.spawn(move || {
                        parallel_for(OUTER, &|i| {
                            parallel_for(INNER, &|j| leaf(&nested[(sub * OUTER + i) * INNER + j]))
                        });
                        tree(DEPTH, &|at| leaf(&leaves[(sub << DEPTH) + at]), 0);
                    });
                }
            });
            let (after, hw) = (pool_stats(), high.load(Relaxed));
            assert!(hw < SUBS + threads, "{hw} at once");
            assert!(nested.iter().chain(&leaves).all(|h| h.load(Relaxed) == 1));
            let joins = (1 << DEPTH) - 1;
            let batches = SUBS * (1 + OUTER + joins);
            let tasks = SUBS * (OUTER + OUTER * INNER + 2 * joins);
            assert_eq!(after.batches - before.batches, batches as u64);
            assert_eq!(after.tasks_executed - before.tasks_executed, tasks as u64);
        }
    }
}
