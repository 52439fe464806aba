//! The bounded serving front-end: an admission gate with a bounded wait
//! and backpressure (DESIGN.md §12).
//!
//! The gate bounds *how many requests execute at once*, not which thread
//! runs them: a session asks for a permit ([`ServePool::admit`]) and runs
//! the query itself while it holds one, so total query concurrency is
//! `workers` no matter how many clients connect, and a request never
//! changes threads. At most `queue_depth` sessions wait for a permit, in
//! arrival order; beyond that admission fails immediately with a
//! retry-after hint — the overload signal travels to the client instead
//! of accumulating as unbounded queued work. Shutdown is a graceful
//! drain: admitted requests finish, new ones are refused.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Sizing and backpressure knobs for a [`ServePool`].
#[derive(Debug, Clone)]
pub struct ServePoolConfig {
    /// Permits: how many requests may execute at once. Defaults to the
    /// rayon shim's pool-sizing convention (`BAT_THREADS` /
    /// `RAYON_NUM_THREADS` / available parallelism).
    pub workers: usize,
    /// Requests that may wait for a permit beyond the ones executing; one
    /// arriving to a full wait line is rejected.
    pub queue_depth: usize,
    /// Hint returned with rejections: how long a client should wait
    /// before retrying.
    pub retry_after: Duration,
}

impl Default for ServePoolConfig {
    fn default() -> ServePoolConfig {
        ServePoolConfig {
            workers: rayon::current_num_threads(),
            queue_depth: 64,
            retry_after: Duration::from_millis(25),
        }
    }
}

/// An admission refused by a full (or draining) gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected {
    /// Suggested client backoff before retrying.
    pub retry_after: Duration,
}

/// Live counters for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests admitted (immediately or after waiting) over the gate's
    /// lifetime.
    pub queued: u64,
    /// Admissions refused because the wait line was full or the gate
    /// draining.
    pub rejected: u64,
    /// Admitted requests whose permit has been returned.
    pub completed: u64,
}

struct State {
    /// Permits currently held.
    running: usize,
    /// Tickets: `head..tail` are waiting, lowest first.
    head: u64,
    tail: u64,
    draining: bool,
}

/// An admission gate: `workers` permits and a bounded, ordered wait.
pub struct ServePool {
    state: Mutex<State>,
    /// Signalled when a permit returns or the wait line advances.
    changed: Condvar,
    cfg: ServePoolConfig,
    queued: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
}

/// The right to execute one request; returned to the gate on drop.
pub struct Permit<'a> {
    pool: &'a ServePool,
}

impl ServePool {
    /// A gate with `cfg.workers` permits (at least one).
    pub fn new(mut cfg: ServePoolConfig) -> ServePool {
        cfg.workers = cfg.workers.max(1);
        ServePool {
            state: Mutex::new(State {
                running: 0,
                head: 0,
                tail: 0,
                draining: false,
            }),
            changed: Condvar::new(),
            cfg,
            queued: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("serve gate lock")
    }

    /// Take a permit, waiting behind earlier arrivals while all are held.
    /// `Err(Rejected)` means `queue_depth` requests already wait (or the
    /// gate is draining) — the caller was not queued and should surface
    /// the retry-after hint to its client. The caller runs its request on
    /// its own thread and drops the permit when done.
    pub fn admit(&self) -> Result<Permit<'_>, Rejected> {
        let mut st = self.lock();
        let waiting = (st.tail - st.head) as usize;
        let must_wait = st.running >= self.cfg.workers || waiting > 0;
        if st.draining || (must_wait && waiting >= self.cfg.queue_depth) {
            drop(st);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            bat_obs::counter_add("serve.rejected", 1);
            return Err(Rejected {
                retry_after: self.cfg.retry_after,
            });
        }
        let ticket = st.tail;
        st.tail += 1;
        while st.running >= self.cfg.workers || st.head != ticket {
            st = self.changed.wait(st).expect("serve gate wait");
        }
        st.head += 1;
        st.running += 1;
        if st.head != st.tail {
            // The next in line may have woken while it was not yet first.
            self.changed.notify_all();
        }
        drop(st);
        self.queued.fetch_add(1, Ordering::Relaxed);
        bat_obs::counter_add("serve.queued", 1);
        Ok(Permit { pool: self })
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            queued: self.queued.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
        }
    }

    /// Graceful drain: refuse new admissions, then wait until every
    /// request already admitted or waiting has run and returned its
    /// permit.
    pub fn drain(&self) {
        let mut st = self.lock();
        st.draining = true;
        while st.running > 0 || st.head != st.tail {
            st = self.changed.wait(st).expect("serve gate wait");
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // Runs during a holder's unwind too, so it must not panic: every
        // update leaves the state valid, so a poisoned lock is usable.
        let mut st = self.pool.state.lock().unwrap_or_else(|e| e.into_inner());
        st.running -= 1;
        drop(st);
        self.pool.completed.fetch_add(1, Ordering::Relaxed);
        self.pool.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    fn cfg(workers: usize, queue_depth: usize) -> ServePoolConfig {
        ServePoolConfig {
            workers,
            queue_depth,
            retry_after: Duration::from_millis(7),
        }
    }

    /// Spin until `cond` holds on the gate's state (the tests force their
    /// interleavings by observing it, not by sleeping).
    fn until(pool: &ServePool, cond: impl Fn(&State) -> bool) {
        while !cond(&pool.lock()) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_request_runs_on_its_callers_thread_under_a_permit() {
        let pool = ServePool::new(cfg(4, 16));
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..4 {
                        // Honor the backpressure contract: a rejected
                        // admission is retried after the hinted delay,
                        // never dropped.
                        let permit = loop {
                            match pool.admit() {
                                Ok(p) => break p,
                                Err(r) => std::thread::sleep(r.retry_after),
                            }
                        };
                        // The request is whatever the holder does next, on
                        // this thread; the gate spawned nothing.
                        counter.fetch_add(1, Ordering::SeqCst);
                        drop(permit);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 32);
        let stats = pool.stats();
        assert_eq!((stats.queued, stats.completed), (32, 32));
        assert_eq!(pool.lock().running, 0, "every permit came back");
    }

    #[test]
    fn full_queue_rejects_with_retry_after() {
        let pool = ServePool::new(cfg(1, 1));
        std::thread::scope(|s| {
            // Hold the single permit.
            let holder = pool.admit().unwrap();
            // One request may wait; the next must be refused, not queued.
            let waiter = s.spawn(|| drop(pool.admit().unwrap()));
            until(&pool, |st| st.tail - st.head == 1);
            let err = pool.admit().map(drop).unwrap_err();
            assert_eq!(err.retry_after, Duration::from_millis(7));
            assert_eq!(pool.stats().rejected, 1);
            // The session stays usable: once the line moves, it gets in.
            drop(holder);
            waiter.join().unwrap();
            drop(pool.admit().unwrap());
        });
        assert_eq!(
            pool.stats(),
            PoolStats {
                queued: 3,
                rejected: 1,
                completed: 3
            }
        );
    }

    #[test]
    fn drain_refuses_new_holders_and_waits_for_current_ones() {
        let pool = ServePool::new(cfg(1, 8));
        let ran = AtomicUsize::new(0);
        let drained = AtomicBool::new(false);
        std::thread::scope(|s| {
            let holder = pool.admit().unwrap();
            for _ in 0..4 {
                s.spawn(|| {
                    let _permit = pool.admit().expect("accepted before the drain");
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
            until(&pool, |st| st.tail - st.head == 4);
            s.spawn(|| {
                pool.drain();
                drained.store(true, Ordering::SeqCst);
            });
            until(&pool, |st| st.draining);
            assert!(pool.admit().is_err(), "a draining gate admits nobody new");
            assert!(
                !drained.load(Ordering::SeqCst),
                "drain returned while a permit was still held"
            );
            assert_eq!(ran.load(Ordering::SeqCst), 0);
            drop(holder);
        });
        assert!(drained.load(Ordering::SeqCst));
        assert_eq!(ran.load(Ordering::SeqCst), 4, "drain runs waiting requests");
        assert_eq!(pool.stats().completed, 5);
    }

    #[test]
    fn draining_pool_refuses_new_work() {
        let pool = ServePool::new(cfg(1, 8));
        pool.drain();
        assert!(pool.admit().is_err());
    }

    #[test]
    fn eight_threads_never_see_more_than_two_permits_in_flight() {
        let pool = ServePool::new(cfg(2, 8));
        let in_flight = AtomicUsize::new(0);
        let max_seen = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..200 {
                        // 2 hold and at most 6 wait: depth 8 rejects nobody.
                        let _permit = pool.admit().expect("within the wait bound");
                        let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        max_seen.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(max_seen.load(Ordering::SeqCst) <= 2);
        assert_eq!(pool.stats().completed, 8 * 200);
    }
}
