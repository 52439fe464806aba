//! Self-healing shard fabric (DESIGN.md §16): replica failover, hedged
//! reads, degraded-mode serving, and supervision. The invariant under
//! every fault: a query ends in a byte-identical stream, a typed error,
//! or an explicit partial outcome — never a hang, never silent
//! truncation.

mod common;

use bat_comm::{Cluster, TransportKind};
use bat_layout::Query;
use bat_obs::knobs::{self, EnvGuard};
use bat_stream::{run_shard, ShardRouter, SupervisorConfig, ROUTER_RANK};
use common::{build_test_dataset, route_mix, wire_reference, BuildOpts, Workload};
use libbat::Dataset;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn lock() -> common::Serial {
    common::serial_resetting(bat_faults::reset)
}

fn global_counter(name: &str) -> u64 {
    bat_obs::Registry::global().counter(name).get()
}

/// With `BAT_SHARD_REPLICAS=2`, a shard rank that dies mid-query must not
/// surface as `ERR_SHARD`: the router retries its leaves on the replica
/// and the merged stream stays byte-identical to the single process.
#[test]
fn replica_failover_rides_out_a_dead_shard() {
    let _guard = lock();
    let _env = EnvGuard::set(&[
        (&knobs::SHARD_REPLICAS, Some("2")),
        (&knobs::SHARD_HEDGE_MS, Some("off")),
    ]);
    let scratch = build_test_dataset(
        &Workload::Uniform {
            per_rank: 3000,
            seed: 17,
        },
        &BuildOpts {
            tag: "shard-failover",
            target_file_bytes: 30_000,
            ..Default::default()
        },
    );
    let (_, expected) = wire_reference(&scratch.path);

    let _on = bat_obs::enable();
    let failover_before = global_counter("shard.failover");
    let dir = scratch.path.clone();
    let shards = 3usize;
    let results = Cluster::run_with(TransportKind::Socket, 1 + shards, move |comm| {
        if comm.rank() == ROUTER_RANK {
            Some(route_mix(comm, &dir))
        } else if comm.rank() == shards {
            // The last shard joins, then crashes 80 ms in — mid first
            // query. `mark_dead` severs its links the way a killed
            // process would, so peers observe EOF, not silence.
            std::thread::sleep(Duration::from_millis(80));
            comm.mark_dead();
            None
        } else {
            let ds = Dataset::open(&dir, "s").expect("open dataset");
            run_shard(&*comm, &ds).expect("shard serve loop");
            None
        }
    });
    let got = results
        .into_iter()
        .nth(ROUTER_RANK)
        .flatten()
        .expect("router digests");
    assert_eq!(got, expected, "failover changed the merged stream");
    assert!(
        global_counter("shard.failover") > failover_before,
        "the dead shard's leaves must have failed over to the replica"
    );
}

/// With `BAT_SHARD_REPLICAS=1` (the default) a dead shard is fatal —
/// unless the query opts into degraded mode, in which case the router
/// serves what it can and reports an explicit partial outcome.
#[test]
fn degraded_mode_reports_explicit_partial() {
    let _guard = lock();
    let _env = EnvGuard::set(&[(&knobs::SHARD_HEDGE_MS, Some("off"))]);
    let scratch = build_test_dataset(
        &Workload::Uniform {
            per_rank: 2000,
            seed: 23,
        },
        &BuildOpts {
            tag: "shard-partial",
            target_file_bytes: 30_000,
            ..Default::default()
        },
    );
    let _on = bat_obs::enable();
    let partial_before = global_counter("shard.partial.queries");
    let dir = scratch.path.clone();
    let outcomes = Cluster::run_with(TransportKind::Socket, 3, move |comm| {
        if comm.rank() == ROUTER_RANK {
            let ds = Dataset::open(&dir, "s").expect("open dataset");
            let total = ds.meta().leaves.len() as u64;
            let router = ShardRouter::new(comm, Arc::new(ds));
            let mut sunk = 0u64;
            let outcome = router
                .query(
                    &Query::new().with_allow_partial(true),
                    Some(Duration::from_secs(10)),
                    |c| sunk += c.len() as u64,
                )
                .expect("degraded query succeeds");
            assert!(outcome.is_partial(), "dead shard must surface as partial");
            assert_eq!(outcome.total_leaves, total);
            assert!(outcome.served_leaves < total);
            assert!(outcome.served_leaves > 0, "live shard must still serve");
            assert_eq!(outcome.points, sunk, "outcome counts the sunk points");
            assert!(sunk > 0);

            // The same query without the opt-in stays a hard, typed error:
            // partial data is never passed off as complete.
            let strict = router.query(&Query::new(), Some(Duration::from_secs(10)), |_| {});
            assert!(strict.is_err(), "without opt-in the dead shard is fatal");
            router.shutdown();
            true
        } else if comm.rank() == 2 {
            std::thread::sleep(Duration::from_millis(50));
            comm.mark_dead();
            false
        } else {
            let ds = Dataset::open(&dir, "s").expect("open dataset");
            run_shard(&*comm, &ds).expect("shard serve loop");
            false
        }
    });
    assert!(outcomes[ROUTER_RANK]);
    assert!(
        global_counter("shard.partial.queries") > partial_before,
        "partial serving must be counted"
    );
}

/// The supervisor leaves a healthy, ponging worker alone.
#[test]
fn supervisor_does_not_respawn_a_live_worker() {
    let _guard = lock();
    let scratch = build_test_dataset(
        &Workload::Uniform {
            per_rank: 800,
            seed: 31,
        },
        &BuildOpts {
            tag: "sup-live",
            ..Default::default()
        },
    );
    let dir = scratch.path.clone();
    let respawns: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let seen = respawns.clone();
    let outcomes = Cluster::run_with(TransportKind::Socket, 2, move |comm| {
        if comm.rank() == ROUTER_RANK {
            let sup_comm = comm.clone_comm();
            let ds = Dataset::open(&dir, "s").expect("open dataset");
            let router = ShardRouter::new(comm, Arc::new(ds));
            let log = seen.clone();
            let sup = bat_stream::supervise(
                sup_comm,
                SupervisorConfig {
                    interval: Duration::from_millis(300),
                    missed_beats: 2,
                },
                move |s| {
                    log.lock().unwrap().push(s);
                    Ok(())
                },
            );
            // Several heartbeat rounds, with a query in the middle to
            // prove supervision and serving share the link cleanly.
            std::thread::sleep(Duration::from_millis(700));
            let mut sunk = 0u64;
            router
                .query(&Query::new(), Some(Duration::from_secs(10)), |c| {
                    sunk += c.len() as u64
                })
                .expect("query during supervision");
            assert!(sunk > 0);
            std::thread::sleep(Duration::from_millis(700));
            sup.stop();
            router.shutdown();
            true
        } else {
            let ds = Dataset::open(&dir, "s").expect("open dataset");
            run_shard(&*comm, &ds).expect("shard serve loop");
            false
        }
    });
    assert!(outcomes[ROUTER_RANK]);
    assert!(
        respawns.lock().unwrap().is_empty(),
        "live worker was respawned: {:?}",
        respawns.lock().unwrap()
    );
}

/// A worker that dies is detected (dead flag or missed beats) and handed
/// to the respawn callback — and only that worker.
#[test]
fn supervisor_respawns_a_dead_worker() {
    let _guard = lock();
    let scratch = build_test_dataset(
        &Workload::Uniform {
            per_rank: 800,
            seed: 37,
        },
        &BuildOpts {
            tag: "sup-dead",
            ..Default::default()
        },
    );
    let dir = scratch.path.clone();
    let respawns: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let seen = respawns.clone();
    let outcomes = Cluster::run_with(TransportKind::Socket, 3, move |comm| {
        if comm.rank() == ROUTER_RANK {
            let sup_comm = comm.clone_comm();
            let ds = Dataset::open(&dir, "s").expect("open dataset");
            let router = ShardRouter::new(comm, Arc::new(ds));
            let log = seen.clone();
            let interval = Duration::from_millis(300);
            let sup = bat_stream::supervise(
                sup_comm,
                SupervisorConfig {
                    interval,
                    missed_beats: 2,
                },
                move |s| {
                    log.lock().unwrap().push(s);
                    Ok(())
                },
            );
            // Shard index 1 (rank 2) dies shortly after joining; the
            // supervisor must hand it to respawn within the detection
            // bound (missed beats + one collection round, plus slack).
            let t0 = Instant::now();
            let deadline = t0 + Duration::from_secs(8);
            let detected = loop {
                if seen.lock().unwrap().contains(&1) {
                    break true;
                }
                if Instant::now() > deadline {
                    break false;
                }
                std::thread::sleep(Duration::from_millis(25));
            };
            assert!(detected, "dead worker was never handed to respawn");
            sup.stop();
            router.shutdown();
            true
        } else if comm.rank() == 2 {
            std::thread::sleep(Duration::from_millis(100));
            comm.mark_dead();
            false
        } else {
            let ds = Dataset::open(&dir, "s").expect("open dataset");
            run_shard(&*comm, &ds).expect("shard serve loop");
            false
        }
    });
    assert!(outcomes[ROUTER_RANK]);
    let log = respawns.lock().unwrap();
    assert!(
        log.contains(&1),
        "shard 1 missing from respawn log: {log:?}"
    );
    assert!(!log.contains(&0), "healthy shard 0 was respawned: {log:?}");
}

/// Fault-driven hedging: one shard delayed far past the hedge budget; the
/// router must issue hedges, the replica must win some, and the merge must
/// stay byte-identical.
mod faults {
    use super::*;

    #[test]
    fn hedged_reads_beat_a_slow_shard_and_stay_identical() {
        let _guard = lock();
        let _env = EnvGuard::set(&[
            (&knobs::SHARD_REPLICAS, Some("2")),
            (&knobs::SHARD_HEDGE_MS, Some("10")),
        ]);
        let scratch = build_test_dataset(
            &Workload::Uniform {
                per_rank: 2500,
                seed: 41,
            },
            &BuildOpts {
                tag: "shard-hedge",
                target_file_bytes: 30_000,
                ..Default::default()
            },
        );
        let (_, expected) = wire_reference(&scratch.path);

        let _on = bat_obs::enable();
        let issued_before = global_counter("shard.hedge.issued");
        let won_before = global_counter("shard.hedge.won");
        // 150 ms per leaf on shard rank 2: alive, just far over budget.
        bat_faults::configure("shard.exec=delay:150@rank=2").expect("fault spec");
        let dir = scratch.path.clone();
        let results = Cluster::run_with(TransportKind::Socket, 3, move |comm| {
            if comm.rank() == ROUTER_RANK {
                Some(route_mix(comm, &dir))
            } else {
                let ds = Dataset::open(&dir, "s").expect("open dataset");
                run_shard(&*comm, &ds).expect("shard serve loop");
                None
            }
        });
        let got = results
            .into_iter()
            .nth(ROUTER_RANK)
            .flatten()
            .expect("router digests");
        assert_eq!(got, expected, "hedging changed the merged stream");
        assert!(
            global_counter("shard.hedge.issued") > issued_before,
            "slow shard must have triggered hedges"
        );
        assert!(
            global_counter("shard.hedge.won") > won_before,
            "with a 150 ms/leaf handicap the replica must win hedges"
        );
    }
}
