//! The build's parallelism readings stay honest: over one
//! `BatBuilder::build` at pools of 1, 2 and 8 threads, every
//! `bat.*_speedup` gauge is reported, none exceeds the pool size, all
//! read 0 when a 1-thread pool runs everything inline, and the `pool.*`
//! counters the build publishes are the engine's own deltas. The shim's
//! own tests pin the parts this one cannot see: that `tasks_executed` is
//! the exact sum of tasks over the batches issued
//! (`oversubscription_is_bounded`, where the batches are known) and that
//! nested `parallel_for` time is not counted twice
//! (`nested_parallel_for_completes`).
//!
//! One test in its own binary: the engine's counters are process-global.

use bat_geom::rng::Xoshiro256;
use bat_geom::{Aabb, Vec3};
use bat_layout::{AttributeDesc, BatBuilder, BatConfig, ParticleSet};
use std::sync::Arc;

const GAUGES: [&str; 4] = [
    "bat.morton_sort_speedup",
    "bat.shallow_tree_speedup",
    "bat.treelet_build_speedup",
    "bat.permute_speedup",
];

/// Large enough to cross the Morton sort's sequential cutoff.
fn random_set(n: usize, seed: u64) -> ParticleSet {
    let mut rng = Xoshiro256::new(seed);
    let mut set = ParticleSet::new(vec![AttributeDesc::f64("mass"), AttributeDesc::f32("temp")]);
    for _ in 0..n {
        let p = Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32());
        set.push(p, &[p.x as f64, p.y as f64 * 10.0]);
    }
    set
}

#[test]
fn speedup_gauges_and_pool_counters_stay_honest() {
    let set = random_set(40_000, 21);
    let _on = bat_obs::enable();
    for threads in [1usize, 2, 8] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .unwrap();
        let registry = Arc::new(bat_obs::Registry::new());
        let before = rayon::pool_stats();
        {
            let _scope = bat_obs::scope(registry.clone());
            BatBuilder::new(BatConfig::default()).build(set.clone(), Aabb::unit());
        }
        let after = rayon::pool_stats();
        let snap = registry.snapshot();
        for name in GAUGES {
            let speedup = snap
                .gauge(name)
                .unwrap_or_else(|| panic!("{name} missing at pool {threads}"));
            if threads == 1 {
                assert_eq!(speedup, 0.0, "{name} at pool 1");
            } else {
                assert!(
                    (0.0..=threads as f64 + 0.05).contains(&speedup),
                    "{name} = {speedup} at pool {threads}"
                );
            }
        }
        let tasks = after.tasks_executed - before.tasks_executed;
        let batches = after.batches - before.batches;
        assert_eq!(snap.counter("pool.tasks_executed"), Some(tasks));
        assert_eq!(
            snap.counter("pool.tasks_helped"),
            Some(after.tasks_helped - before.tasks_helped)
        );
        assert_eq!(snap.gauge("pool.threads"), Some(threads as f64));
        if threads == 1 {
            assert_eq!((tasks, batches), (0, 0), "a 1-thread pool runs inline");
        } else {
            assert!(
                batches > 0 && tasks >= 2 * batches,
                "{tasks} tasks in {batches} batches"
            );
        }
    }
}
