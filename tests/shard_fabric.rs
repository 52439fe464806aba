//! Shard-fabric integration tests: a router rank fanning queries out to
//! shard ranks over each transport must reproduce the single-process
//! answer point-for-point, and a silent or killed shard must surface as a
//! typed, bounded error — never a hang, never partial data passed off as
//! a complete result.

mod common;

use bat_comm::{Cluster, TransportKind};
use bat_layout::Query;
use bat_stream::{run_shard, ShardQueryError, ShardRouter, ROUTER_RANK};
use common::{build_test_dataset, route_mix, wire_reference, BuildOpts, Digest, Workload};
use libbat::Dataset;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn lock() -> common::Serial {
    common::serial_resetting(bat_faults::reset)
}

/// Run the mix through a router + `shards` shard ranks on the given
/// transport and return the merged-stream digests.
fn fanout_digests(kind: TransportKind, dir: &Path, shards: usize) -> Vec<Digest> {
    let dir = dir.to_path_buf();
    let mut results = Cluster::run_with(kind, 1 + shards, move |comm| {
        if comm.rank() == ROUTER_RANK {
            return Some(route_mix(comm, &dir));
        }
        let ds = Dataset::open(&dir, "s").expect("open dataset");
        run_shard(&comm, &ds).expect("shard serve loop");
        None
    });
    results.swap_remove(ROUTER_RANK).expect("router digests")
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
    let leaves = Dataset::open(&scratch.path, "s").unwrap().num_files();
    assert!(leaves >= 4, "fixture must fan out over several leaf files");
    let (_, expected) = wire_reference(&scratch.path);

    for kind in [
        TransportKind::Channel,
        TransportKind::Socket,
        TransportKind::Sim,
    ] {
        for shards in [1, 2, 3] {
            let got = fanout_digests(kind, &scratch.path, shards);
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
        if comm.rank() == ROUTER_RANK {
            let ds = Dataset::open(&dir, "s").expect("open dataset");
            let router = ShardRouter::new(comm, Arc::new(ds));
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
    assert!(outcomes[ROUTER_RANK]);
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
        // Kill shard rank 1 after it has already streamed one leaf: the
        // router holds partial data and must report failure, not success.
        bat_faults::configure("shard.exec=kill@rank=1@nth=2").expect("fault spec");
        let dir = scratch.path.clone();
        let outcomes = Cluster::run_with(TransportKind::Socket, 3, move |comm| {
            if comm.rank() == ROUTER_RANK {
                let ds = Dataset::open(&dir, "s").expect("open dataset");
                let router = ShardRouter::new(comm, Arc::new(ds));
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
        assert!(outcomes[ROUTER_RANK]);
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
        let (_, expected) = wire_reference(&scratch.path);
        // 30 ms per leaf on shard 2: a slow peer, not a dead one. The
        // merge must still be byte-identical, just later.
        bat_faults::configure("shard.exec=delay:30@rank=2").expect("fault spec");
        let got = fanout_digests(TransportKind::Socket, &scratch.path, 2);
        assert_eq!(got, expected, "slow shard changed the merged stream");
    }
}
