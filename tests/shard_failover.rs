//! Self-healing shard fabric (DESIGN.md §16): replica failover, hedged
//! reads, degraded-mode serving, and supervision. The invariant under
//! every fault: a query ends in a byte-identical stream, a typed error,
//! or an explicit partial outcome — never a hang, never silent
//! truncation.

mod common;

use bat_comm::{Cluster, TransportKind};
use bat_geom::{Aabb, Vec3};
use bat_layout::Query;
use bat_obs::knobs::{self, EnvGuard};
use bat_serve::QueryPlan;
use bat_stream::{run_shard, ShardRouter, SupervisorConfig};
use common::{build_test_dataset, BuildOpts, Workload};
use libbat::Dataset;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One shard cluster at a time per process: rank numbers repeat across
/// clusters and the router policy knobs are process-global env vars.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// FNV-1a over the merged point stream plus the point count.
struct StreamHash {
    h: u64,
    points: u64,
}

impl StreamHash {
    fn new() -> StreamHash {
        StreamHash {
            h: 0xcbf2_9ce4_8422_2325,
            points: 0,
        }
    }

    fn byte(&mut self, b: u8) {
        self.h ^= b as u64;
        self.h = self.h.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn point(&mut self, pos: Vec3, attrs: &[f64]) {
        for c in [pos.x, pos.y, pos.z] {
            for b in c.to_le_bytes() {
                self.byte(b);
            }
        }
        for a in attrs {
            for b in a.to_le_bytes() {
                self.byte(b);
            }
        }
        self.points += 1;
    }

    fn digest(&self) -> (u64, u64) {
        (self.h, self.points)
    }
}

fn test_queries() -> Vec<Query> {
    vec![
        Query::new(),
        Query::new().with_quality(0.4),
        Query::new()
            .with_bounds(Aabb::new(Vec3::ZERO, Vec3::new(1.0, 0.6, 1.0)))
            .with_filter(0, 0.1, 0.9),
    ]
}

fn single_process_digests(ds: &Dataset) -> Vec<(u64, u64)> {
    test_queries()
        .iter()
        .map(|q| {
            let plan = QueryPlan::new(ds, q).expect("plan");
            let mut hash = StreamHash::new();
            plan.execute(None, |p| hash.point(p.position, p.attrs))
                .expect("execute");
            hash.digest()
        })
        .collect()
}

fn router_digest(router: &ShardRouter, q: &Query) -> (u64, u64, bat_stream::QueryOutcome) {
    let mut hash = StreamHash::new();
    let outcome = router
        .query(q, Some(Duration::from_secs(20)), |c| {
            for (i, p) in c.positions.iter().enumerate() {
                let attrs: Vec<f64> = (0..c.num_attrs).map(|a| c.attr(i, a)).collect();
                hash.point(*p, &attrs);
            }
        })
        .expect("replicated fan-out succeeds");
    let (h, n) = hash.digest();
    (h, n, outcome)
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
    let ds = Dataset::open(&scratch.path, "s").expect("open");
    assert!(ds.meta().leaves.len() >= 4);
    let expected = single_process_digests(&ds);
    drop(ds);

    let _on = bat_obs::enable();
    let failover_before = global_counter("shard.failover");
    let dir = scratch.path.clone();
    let shards = 3usize;
    let results = Cluster::run_with(TransportKind::Socket, 1 + shards, move |comm| {
        if comm.rank() == bat_stream::ROUTER_RANK {
            let ds = Dataset::open(&dir, "s").expect("open dataset");
            let router = ShardRouter::new(comm, Arc::new(ds));
            let digests: Vec<(u64, u64)> = test_queries()
                .iter()
                .map(|q| {
                    let (h, n, outcome) = router_digest(&router, q);
                    assert_eq!(outcome.points, n);
                    assert!(!outcome.is_partial(), "replicas must cover the dead shard");
                    (h, n)
                })
                .collect();
            router.shutdown();
            Some(digests)
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
        .nth(bat_stream::ROUTER_RANK)
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
        if comm.rank() == bat_stream::ROUTER_RANK {
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
    assert!(outcomes[bat_stream::ROUTER_RANK]);
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
        if comm.rank() == bat_stream::ROUTER_RANK {
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
    assert!(outcomes[bat_stream::ROUTER_RANK]);
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
        if comm.rank() == bat_stream::ROUTER_RANK {
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
    assert!(outcomes[bat_stream::ROUTER_RANK]);
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
        let ds = Dataset::open(&scratch.path, "s").expect("open");
        assert!(ds.meta().leaves.len() >= 4);
        let expected = single_process_digests(&ds);
        drop(ds);

        let _on = bat_obs::enable();
        let issued_before = global_counter("shard.hedge.issued");
        let won_before = global_counter("shard.hedge.won");
        bat_faults::reset();
        // 150 ms per leaf on shard rank 2: alive, just far over budget.
        bat_faults::configure("shard.exec=delay:150@rank=2").expect("fault spec");
        let dir = scratch.path.clone();
        let results = Cluster::run_with(TransportKind::Socket, 3, move |comm| {
            if comm.rank() == bat_stream::ROUTER_RANK {
                let ds = Dataset::open(&dir, "s").expect("open dataset");
                let router = ShardRouter::new(comm, Arc::new(ds));
                let digests: Vec<(u64, u64)> = test_queries()
                    .iter()
                    .map(|q| {
                        let (h, n, outcome) = router_digest(&router, q);
                        assert!(!outcome.is_partial());
                        (h, n)
                    })
                    .collect();
                router.shutdown();
                Some(digests)
            } else {
                let ds = Dataset::open(&dir, "s").expect("open dataset");
                run_shard(&*comm, &ds).expect("shard serve loop");
                None
            }
        });
        bat_faults::reset();
        let got = results
            .into_iter()
            .nth(bat_stream::ROUTER_RANK)
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
