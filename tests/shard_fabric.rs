//! Shard-fabric integration tests: a router rank fanning queries out to
//! shard ranks over each transport must reproduce the single-process
//! answer point-for-point, and a silent or killed shard must surface as a
//! typed, bounded error — never a hang, never partial data passed off as
//! a complete result.

mod common;

use bat_comm::{Cluster, TransportKind};
use bat_geom::{Aabb, Vec3};
use bat_layout::Query;
use bat_serve::QueryPlan;
use bat_stream::{run_shard, ShardQueryError, ShardRouter};
use common::{build_test_dataset, BuildOpts, Workload};
use libbat::Dataset;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One shard cluster at a time per process: the fault registry is
/// process-global and rank numbers repeat across clusters.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// FNV-1a over the merged point stream (positions then attrs, in arrival
/// order) plus the point count — the identity the fan-out must preserve.
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
        Query::new().with_quality(0.3),
        Query::new()
            .with_quality(0.8)
            .with_bounds(Aabb::new(Vec3::splat(0.1), Vec3::splat(0.7))),
        Query::new()
            .with_bounds(Aabb::new(Vec3::ZERO, Vec3::new(1.0, 0.5, 1.0)))
            .with_filter(0, 0.2, 0.9),
    ]
}

/// The single-process answers for [`test_queries`] on `ds`.
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

/// Run [`test_queries`] through a router + `shards` shard ranks on the
/// given transport and return the merged-stream digests.
fn fanout_digests(
    kind: TransportKind,
    dir: &std::path::Path,
    basename: &'static str,
    shards: usize,
) -> Vec<(u64, u64)> {
    let dir = dir.to_path_buf();
    let mut results = Cluster::run_with(kind, 1 + shards, move |comm| {
        let ds = Dataset::open(&dir, basename).expect("open dataset");
        if comm.rank() == bat_stream::ROUTER_RANK {
            let router = ShardRouter::new(comm, std::sync::Arc::new(ds));
            let digests: Vec<(u64, u64)> = test_queries()
                .iter()
                .map(|q| {
                    let mut hash = StreamHash::new();
                    let outcome = router
                        .query(q, None, |c| {
                            for (i, p) in c.positions.iter().enumerate() {
                                let attrs: Vec<f64> =
                                    (0..c.num_attrs).map(|a| c.attr(i, a)).collect();
                                hash.point(*p, &attrs);
                            }
                        })
                        .expect("fan-out succeeds");
                    let (h, merged) = hash.digest();
                    assert_eq!(outcome.points, merged, "router count matches sunk points");
                    assert!(
                        !outcome.is_partial(),
                        "no-fault fan-out must serve every leaf"
                    );
                    (h, merged)
                })
                .collect();
            router.shutdown();
            Some(digests)
        } else {
            run_shard(&comm, &ds).expect("shard serve loop");
            None
        }
    });
    results
        .remove(bat_stream::ROUTER_RANK)
        .expect("router digests")
}

#[test]
fn fanout_matches_single_process_on_every_transport() {
    let _guard = lock();
    let scratch = build_test_dataset(
        &Workload::Uniform {
            per_rank: 4000,
            seed: 11,
        },
        &BuildOpts {
            tag: "shard-id",
            target_file_bytes: 40_000,
            ..Default::default()
        },
    );
    let ds = Dataset::open(&scratch.path, "s").expect("open");
    assert!(
        ds.meta().leaves.len() >= 4,
        "fixture must fan out over several leaf files"
    );
    let expected = single_process_digests(&ds);
    drop(ds);

    for kind in [
        TransportKind::Channel,
        TransportKind::Socket,
        TransportKind::Sim,
    ] {
        for shards in [1, 2, 3] {
            let got = fanout_digests(kind, &scratch.path, "s", shards);
            assert_eq!(
                got, expected,
                "merged stream differs from single-process ({kind:?}, {shards} shards)"
            );
        }
    }
}

#[test]
fn silent_shard_is_a_bounded_typed_error() {
    let _guard = lock();
    let scratch = build_test_dataset(
        &Workload::Uniform {
            per_rank: 1500,
            seed: 3,
        },
        &BuildOpts {
            tag: "shard-silent",
            ..Default::default()
        },
    );
    let dir = scratch.path.clone();
    let outcomes = Cluster::run_with(TransportKind::Socket, 3, move |comm| {
        if comm.rank() == bat_stream::ROUTER_RANK {
            let ds = Dataset::open(&dir, "s").expect("open dataset");
            let router = ShardRouter::new(comm, std::sync::Arc::new(ds));
            let t0 = Instant::now();
            // A short deadline bounds the wait for the shard that never
            // serves; the error must be typed, not a hang or a panic.
            let result = router.query(&Query::new(), Some(Duration::from_millis(300)), |_| {});
            let elapsed = t0.elapsed();
            assert!(
                matches!(result, Err(ShardQueryError::Comm { .. })),
                "expected a typed comm error, got {result:?}"
            );
            assert!(
                elapsed < Duration::from_secs(15),
                "silent shard must not stall the router: waited {elapsed:?}"
            );
            router.shutdown();
            true
        } else {
            // Shard 1 serves normally; shard 2 joins the cluster but
            // never enters the serve loop — a wedged process.
            if comm.rank() == 1 {
                let ds = Dataset::open(&dir, "s").expect("open dataset");
                run_shard(&comm, &ds).expect("shard serve loop");
            } else {
                std::thread::sleep(Duration::from_millis(600));
            }
            false
        }
    });
    assert!(outcomes[bat_stream::ROUTER_RANK]);
}

/// Fault-driven cases: a shard killed mid-query and a slow shard that
/// stays within the deadline.
mod faults {
    use super::*;

    #[test]
    fn killed_shard_mid_query_fails_fast_and_typed() {
        let _guard = lock();
        let scratch = build_test_dataset(
            &Workload::Uniform {
                per_rank: 3000,
                seed: 7,
            },
            &BuildOpts {
                tag: "shard-kill",
                target_file_bytes: 30_000,
                ..Default::default()
            },
        );
        bat_faults::reset();
        // Kill shard rank 1 after it has already streamed one leaf: the
        // router holds partial data and must report failure, not success.
        bat_faults::configure("shard.exec=kill@rank=1@nth=2").expect("fault spec");
        let dir = scratch.path.clone();
        let outcomes = Cluster::run_with(TransportKind::Socket, 3, move |comm| {
            if comm.rank() == bat_stream::ROUTER_RANK {
                let ds = Dataset::open(&dir, "s").expect("open dataset");
                let router = ShardRouter::new(comm, std::sync::Arc::new(ds));
                let t0 = Instant::now();
                let mut sunk = 0u64;
                let result = router.query(&Query::new(), Some(Duration::from_secs(5)), |c| {
                    sunk += c.len() as u64;
                });
                let elapsed = t0.elapsed();
                assert!(
                    matches!(
                        result,
                        Err(ShardQueryError::Comm {
                            error: bat_comm::CommError::PeerDead { .. },
                            ..
                        })
                    ),
                    "expected PeerDead from the killed shard, got {result:?}"
                );
                // Fail-fast: death is detected by liveness, well before
                // the deadline-plus-grace worst case.
                assert!(
                    elapsed < Duration::from_secs(10),
                    "killed shard took {elapsed:?} to surface"
                );
                router.shutdown();
                true
            } else {
                let ds = Dataset::open(&dir, "s").expect("open dataset");
                run_shard(&comm, &ds).expect("shard serve loop");
                false
            }
        });
        bat_faults::reset();
        assert!(outcomes[bat_stream::ROUTER_RANK]);
    }

    #[test]
    fn slow_shard_still_merges_identically() {
        let _guard = lock();
        let scratch = build_test_dataset(
            &Workload::Uniform {
                per_rank: 2000,
                seed: 5,
            },
            &BuildOpts {
                tag: "shard-slow",
                ..Default::default()
            },
        );
        let ds = Dataset::open(&scratch.path, "s").expect("open");
        let expected = single_process_digests(&ds);
        drop(ds);
        bat_faults::reset();
        // 30 ms per leaf on shard 2: a slow peer, not a dead one. The
        // merge must still be byte-identical, just later.
        bat_faults::configure("shard.exec=delay:30@rank=2").expect("fault spec");
        let got = fanout_digests(TransportKind::Socket, &scratch.path, "s", 2);
        bat_faults::reset();
        assert_eq!(got, expected, "slow shard changed the merged stream");
    }
}
