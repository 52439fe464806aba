//! Offline stand-in for `rayon` (see `shims/README.md` for the exact
//! behavioral contract vs. the real crate).
//!
//! One primitive does the work: [`parallel_for`] runs a batch of indexed
//! tasks on the caller plus scoped helper threads ([`pool`]). The parallel
//! iterators ([`iter`]) and [`join`] are thin layers over it. Every
//! construct produces bytes identical to sequential execution for any pool
//! size, 1 included. The size comes from `BAT_THREADS` (then
//! `RAYON_NUM_THREADS`, then `available_parallelism()`) and can be pinned
//! with [`ThreadPoolBuilder::build_global`].

#![deny(unsafe_code)]

pub mod iter;
pub mod pool;

pub use iter::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
pub use pool::{current_num_threads, parallel_for, pool_stats, PoolStats};

use std::sync::Mutex;

/// Run `a` and `b`, potentially in parallel, returning both results, with
/// `rayon::join`'s signature and panic behaviour. It is a two-task
/// [`parallel_for`], so recursive joins draw on the one helper budget.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    fn take<T>(slot: &Mutex<Option<T>>) -> T {
        let taken = slot.lock().unwrap_or_else(|e| e.into_inner()).take();
        taken.expect("each slot is filled before it is taken, and taken once")
    }
    fn run<R>(f: &Mutex<Option<impl FnOnce() -> R>>, out: &Mutex<Option<R>>) {
        let r = take(f)();
        *out.lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
    }
    let (a, b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
    let (ra, rb) = (Mutex::new(None), Mutex::new(None));
    parallel_for(2, &|i| if i == 0 { run(&a, &ra) } else { run(&b, &rb) });
    (take(&ra), take(&rb))
}

/// Global-pool configuration, in rayon's call shape. Divergence from
/// upstream: `build_global` may be called again to resize the pool, which
/// lets tests compare pool sizes in one process.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    /// `0` (rayon's convention) selects the default sizing rule.
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    pub fn num_threads(self, num_threads: usize) -> ThreadPoolBuilder {
        ThreadPoolBuilder { num_threads }
    }

    /// Never fails in the shim; the `Result` keeps rayon's signature.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        pool::set_num_threads(match self.num_threads {
            0 => pool::default_threads(),
            n => n,
        });
        Ok(())
    }
}

/// [`ThreadPoolBuilder::build_global`] never fails in the shim.
pub type ThreadPoolBuildError = std::convert::Infallible;

pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use crate::pool::test_pool;

    #[test]
    fn join_returns_both_and_runs_closures() {
        let _g = test_pool(4);
        assert_eq!(crate::join(|| 2 + 2, || "ok".to_string()), (4, "ok".into()));
    }

    #[test]
    fn join_nests() {
        let _g = test_pool(4);
        fn sum(v: &[u64]) -> u64 {
            if v.len() <= 2 {
                return v.iter().sum();
            }
            let (l, r) = v.split_at(v.len() / 2);
            let (a, b) = crate::join(|| sum(l), || sum(r));
            a + b
        }
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(sum(&v), 999 * 1000 / 2);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn join_propagates_panics() {
        let _g = test_pool(4);
        crate::join(|| (), || panic!("boom"));
    }

    #[test]
    fn par_iter_adapters_match_sequential() {
        let _g = test_pool(4);
        let v = [3, 1, 2];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![6, 2, 4]);
        let idx: Vec<usize> = (0..4usize).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(idx, vec![1, 2, 3, 4]);
    }

    #[test]
    fn build_global_pins_and_resizes() {
        let _g = test_pool(4);
        for n in [3, 1] {
            crate::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .unwrap();
            assert_eq!(crate::current_num_threads(), n);
        }
    }
}
