//! A virtual-cluster message-passing runtime.
//!
//! The paper's I/O pipelines are expressed against MPI: nonblocking
//! point-to-point sends/receives with tag matching, gather/scatter
//! collectives rooted at rank 0, and — for the parallel read path — a
//! *nonblocking barrier* (`MPI_Ibarrier`) that lets read aggregators keep
//! serving queries until every rank has its data (paper §IV-B).
//!
//! Production MPI is not available in this environment (see DESIGN.md), so
//! this crate implements the same communication model itself: messages move
//! through per-rank inboxes with MPI-style `(source, tag)` matching and
//! non-overtaking delivery order. The pipelines in `libbat` are written
//! purely against [`Comm`], so they would port to a real MPI binding by
//! re-implementing this one interface.
//!
//! # Structure
//!
//! One inbox sits under three transports (DESIGN.md §14). The `inbox`
//! module owns the per-rank queues, the single matched-receive loop
//! (poison → first visible match → dead source only when nothing is
//! pending → deadline → wait), the nonblocking receive and probe, the one
//! lock-then-wake helper, and the liveness state (dead flags, poison,
//! ibarrier generations). `transport` holds the one rank handle
//! implementing [`Comm`] over it. A transport is only *how a send reaches
//! the destination inbox*: a push (`channel`, ranks are threads), a push
//! that becomes visible when a modelled NIC says so (`sim`), or a frame
//! written to a socket whose reader thread pushes it (`socket`, ranks are
//! threads or processes). `BAT_TRANSPORT` / `BAT_CLUSTER` pick one
//! ([`Cluster`]).
//!
//! # Model
//!
//! - [`Cluster::run`] spawns `n` rank threads and hands each a [`Comm`].
//! - [`Comm::isend`] is *eager*: the payload (a cheap-to-clone [`bytes::Bytes`])
//!   is enqueued at the destination immediately; the returned request is
//!   already complete. This matches MPI eager-protocol semantics for the
//!   message sizes the pipelines exchange and keeps the runtime deadlock-free
//!   for any send ordering.
//! - [`Comm::recv`] / [`Comm::irecv`] match by exact tag and optional source
//!   (`None` = `MPI_ANY_SOURCE`), preserving per-(source, tag) FIFO order.
//! - Collectives are built *on top of* the p2p layer using reserved internal
//!   tags, like a real MPI implementation, and never interfere with pending
//!   user-tag messages.
//! - If any rank panics, the cluster is poisoned: all blocked ranks wake and
//!   panic instead of deadlocking, and [`Cluster::run`] propagates the
//!   original panic.
//!
//! # Example
//!
//! ```
//! use bat_comm::Cluster;
//! use bytes::Bytes;
//!
//! let sums = Cluster::run(4, |comm| {
//!     // Everyone sends their rank to rank 0.
//!     if comm.rank() == 0 {
//!         let mut sum = 0u64;
//!         for _ in 1..comm.size() {
//!             let msg = comm.recv(None, 7);
//!             sum += u64::from_le_bytes(msg.payload[..8].try_into().unwrap());
//!         }
//!         sum
//!     } else {
//!         comm.isend(0, 7, Bytes::copy_from_slice(&(comm.rank() as u64).to_le_bytes()));
//!         0
//!     }
//! });
//! assert_eq!(sums[0], 1 + 2 + 3);
//! ```

mod cluster;
mod collectives;
mod comm;
mod error;
mod ibarrier;
mod inbox;
mod request;
mod sim;
mod socket;
mod transport;

pub use cluster::{Cluster, ClusterConfig, Topology, TransportKind};
pub use comm::{Comm, Message, ProbeInfo};
pub use error::CommError;
pub use ibarrier::IBarrier;
pub use request::{wait_all, RecvRequest};

/// Highest tag value available to users. Tags at or above this are reserved
/// for the collective implementations.
pub const MAX_USER_TAG: u32 = 1 << 30;

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn payload(v: u64) -> Bytes {
        Bytes::copy_from_slice(&v.to_le_bytes())
    }

    fn value(m: &Message) -> u64 {
        u64::from_le_bytes(m.payload[..8].try_into().unwrap())
    }

    /// Matching, FIFO order, probes and liveness are the shared inbox's,
    /// so the tests of that contract run on every transport, not only the
    /// one `BAT_TRANSPORT` selects.
    pub(super) const TRANSPORTS: [TransportKind; 3] = [
        TransportKind::Channel,
        TransportKind::Socket,
        TransportKind::Sim,
    ];

    #[test]
    fn single_rank_cluster() {
        let out = Cluster::run(1, |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            comm.barrier();
            42
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn ring_pass() {
        let n = 8;
        let out = Cluster::run(n, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.isend(next, 1, payload(comm.rank() as u64));
            let m = comm.recv(Some(prev), 1);
            value(&m)
        });
        for (r, v) in out.iter().enumerate() {
            assert_eq!(*v as usize, (r + n - 1) % n);
        }
    }

    #[test]
    fn tag_matching_is_exact() {
        for kind in TRANSPORTS {
            let out = Cluster::run_with(kind, 2, |comm| {
                if comm.rank() == 0 {
                    // Send tag 2 first, then tag 1; receiver asks for tag 1 first.
                    comm.isend(1, 2, payload(200));
                    comm.isend(1, 1, payload(100));
                    0
                } else {
                    let a = comm.recv(Some(0), 1);
                    let b = comm.recv(Some(0), 2);
                    assert_eq!(value(&a), 100, "{kind:?}");
                    assert_eq!(value(&b), 200, "{kind:?}");
                    1
                }
            });
            assert_eq!(out, vec![0, 1]);
        }
    }

    #[test]
    fn per_source_fifo_order() {
        for kind in TRANSPORTS {
            let out = Cluster::run_with(kind, 2, |comm| {
                if comm.rank() == 0 {
                    for i in 0..100u64 {
                        comm.isend(1, 3, payload(i));
                    }
                    0
                } else {
                    for i in 0..100u64 {
                        let m = comm.recv(Some(0), 3);
                        assert_eq!(value(&m), i, "{kind:?}: messages must not overtake");
                    }
                    1
                }
            });
            assert_eq!(out.len(), 2);
        }
    }

    #[test]
    fn any_source_receives_from_all() {
        Cluster::run(5, |comm| {
            if comm.rank() == 0 {
                let mut seen = vec![false; comm.size()];
                for _ in 1..comm.size() {
                    let m = comm.recv(None, 9);
                    seen[m.src] = true;
                    assert_eq!(value(&m), m.src as u64);
                }
                assert!(seen[1..].iter().all(|&s| s));
            } else {
                comm.isend(0, 9, payload(comm.rank() as u64));
            }
        });
    }

    #[test]
    fn irecv_test_and_wait() {
        Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                comm.barrier();
                comm.isend(1, 5, payload(77));
            } else {
                let mut req = comm.irecv(Some(0), 5);
                // Nothing sent yet: test must not block and must say not-ready.
                assert!(req.test().is_none());
                comm.barrier();
                let m = req.wait();
                assert_eq!(value(&m), 77);
            }
        });
    }

    #[test]
    fn iprobe_sees_pending_without_consuming() {
        for kind in TRANSPORTS {
            Cluster::run_with(kind, 2, |comm| {
                if comm.rank() == 0 {
                    comm.isend(1, 4, payload(9));
                    comm.barrier();
                } else {
                    comm.barrier();
                    let info = comm.iprobe(None, 4).expect("message should be queued");
                    assert_eq!(info.src, 0, "{kind:?}");
                    assert_eq!(info.len, 8, "{kind:?}");
                    // Probing does not consume.
                    let m = comm.recv(Some(0), 4);
                    assert_eq!(value(&m), 9, "{kind:?}");
                    assert!(comm.iprobe(None, 4).is_none(), "{kind:?}");
                }
            });
        }
    }

    #[test]
    fn self_send() {
        Cluster::run(3, |comm| {
            comm.isend(comm.rank(), 6, payload(comm.rank() as u64));
            let m = comm.recv(Some(comm.rank()), 6);
            assert_eq!(value(&m), comm.rank() as u64);
        });
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        let n = 16;
        Cluster::run(n, |comm| {
            before.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier, every rank must have incremented.
            assert_eq!(before.load(Ordering::SeqCst), n);
        });
    }

    #[test]
    fn gather_at_root() {
        Cluster::run(6, |comm| {
            let data = payload(comm.rank() as u64 * 10);
            let gathered = comm.gather(0, data);
            if comm.rank() == 0 {
                let g = gathered.expect("root gets data");
                assert_eq!(g.len(), comm.size());
                for (r, b) in g.iter().enumerate() {
                    assert_eq!(
                        u64::from_le_bytes(b[..8].try_into().unwrap()),
                        r as u64 * 10
                    );
                }
            } else {
                assert!(gathered.is_none());
            }
        });
    }

    #[test]
    fn scatter_from_root() {
        Cluster::run(5, |comm| {
            let parts = if comm.rank() == 0 {
                Some((0..comm.size()).map(|r| payload(r as u64 + 1)).collect())
            } else {
                None
            };
            let mine = comm.scatter(0, parts);
            assert_eq!(
                u64::from_le_bytes(mine[..8].try_into().unwrap()),
                comm.rank() as u64 + 1
            );
        });
    }

    #[test]
    fn bcast_from_nonzero_root() {
        Cluster::run(7, |comm| {
            let data = if comm.rank() == 3 {
                Some(payload(555))
            } else {
                None
            };
            let got = comm.bcast(3, data);
            assert_eq!(u64::from_le_bytes(got[..8].try_into().unwrap()), 555);
        });
    }

    #[test]
    fn allreduce_sum_and_max() {
        Cluster::run(9, |comm| {
            let sum = comm.allreduce_u64(comm.rank() as u64, &|a, b| a + b);
            assert_eq!(sum, (0..9).sum::<u64>());
            let max = comm.allreduce_u64(comm.rank() as u64, &u64::max);
            assert_eq!(max, 8);
        });
    }

    #[test]
    fn allgather_bytes() {
        Cluster::run(4, |comm| {
            let all = comm.allgather(payload(comm.rank() as u64));
            assert_eq!(all.len(), 4);
            for (r, b) in all.iter().enumerate() {
                assert_eq!(u64::from_le_bytes(b[..8].try_into().unwrap()), r as u64);
            }
        });
    }

    #[test]
    fn ibarrier_completes_only_after_all_enter() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let entered = AtomicUsize::new(0);
        let n = 8;
        Cluster::run(n, |comm| {
            entered.fetch_add(1, Ordering::SeqCst);
            let mut ib = comm.ibarrier();
            let mut spins = 0u64;
            while !ib.test() {
                spins += 1;
                if spins > 50_000_000 {
                    panic!("ibarrier did not complete");
                }
                std::thread::yield_now();
            }
            assert_eq!(entered.load(Ordering::SeqCst), n);
        });
    }

    #[test]
    fn ibarrier_overlaps_with_p2p_traffic() {
        // The paper's read loop keeps serving queries while the ibarrier is
        // outstanding; p2p traffic with user tags must flow unimpeded.
        Cluster::run(4, |comm| {
            let mut ib = comm.ibarrier();
            // Everyone sends everyone a message *after* entering the barrier.
            for dst in 0..comm.size() {
                if dst != comm.rank() {
                    comm.isend(dst, 11, payload(comm.rank() as u64));
                }
            }
            let mut got = 0;
            let mut done = false;
            while !done || got < comm.size() - 1 {
                if !done {
                    done = ib.test();
                }
                if got < comm.size() - 1 && comm.iprobe(None, 11).is_some() {
                    let _ = comm.recv(None, 11);
                    got += 1;
                }
                std::thread::yield_now();
            }
        });
    }

    #[test]
    #[should_panic]
    fn user_tags_above_limit_rejected() {
        Cluster::run(2, |comm| {
            comm.isend((comm.rank() + 1) % 2, MAX_USER_TAG, Bytes::new());
        });
    }

    #[test]
    fn panicked_rank_poisons_cluster() {
        for kind in TRANSPORTS {
            let result = std::panic::catch_unwind(|| {
                Cluster::run_with(kind, 3, |comm| {
                    if comm.rank() == 1 {
                        panic!("rank 1 exploded");
                    }
                    // Other ranks block forever waiting for a message that
                    // will never come; poisoning must wake them. Rank 2
                    // waits on any source, so the panicked rank's death
                    // alone would not.
                    let _ = comm.recv((comm.rank() == 0).then_some(1), 99);
                });
            });
            assert!(result.is_err(), "{kind:?}");
        }
    }

    #[test]
    fn large_payload_transfer() {
        Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                let big = vec![0xabu8; 4 << 20];
                comm.isend(1, 8, Bytes::from(big));
            } else {
                let m = comm.recv(Some(0), 8);
                assert_eq!(m.payload.len(), 4 << 20);
                assert!(m.payload.iter().all(|&b| b == 0xab));
            }
        });
    }

    #[test]
    fn many_ranks_stress() {
        // More ranks than cores: threads must park politely, not spin.
        let n = 64;
        let out = Cluster::run(n, |comm| {
            let sum = comm.allreduce_u64(1, &|a, b| a + b);
            comm.barrier();
            sum
        });
        assert!(out.iter().all(|&s| s == n as u64));
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use bytes::Bytes;

    /// Randomized traffic soak: every rank sends a random number of
    /// messages (random sizes) to random destinations, then all ranks
    /// exchange expected counts and drain their inboxes. Every payload
    /// must arrive intact, whatever the interleaving.
    #[test]
    fn random_traffic_all_delivered() {
        for seed in [1u64, 7, 42, 1234] {
            let n = 10;
            let results = Cluster::run(n, move |comm| {
                use bat_wire::{Decoder, Encoder};
                let rng = bat_geom_rng(seed + comm.rank() as u64);
                // Decide sends: up to 20 messages to random peers.
                let mut sent_to = vec![0u64; comm.size()];
                let n_msgs = (rng % 21) as usize;
                let mut rng_state = rng;
                for i in 0..n_msgs {
                    rng_state = next(rng_state);
                    let dst = (rng_state % comm.size() as u64) as usize;
                    rng_state = next(rng_state);
                    let len = (rng_state % 4096) as usize;
                    let mut payload = vec![0u8; len];
                    for (k, b) in payload.iter_mut().enumerate() {
                        *b = (comm.rank() + i + k) as u8;
                    }
                    let mut enc = Encoder::new();
                    enc.put_u64(comm.rank() as u64);
                    enc.put_u64(i as u64);
                    enc.put_bytes(&payload);
                    comm.isend(dst, 42, Bytes::from(enc.finish()));
                    sent_to[dst] += 1;
                }
                // Everyone learns how many messages to expect from whom.
                let mut enc = Encoder::new();
                enc.put_u64_slice(&sent_to);
                let all = comm.allgather(Bytes::from(enc.finish()));
                let mut expected = 0u64;
                for (src, b) in all.iter().enumerate() {
                    let mut dec = Decoder::new(b);
                    let v = dec.get_u64_vec("sent counts").expect("valid");
                    expected += v[comm.rank()];
                    let _ = src;
                }
                // Drain and validate.
                let mut got = 0u64;
                while got < expected {
                    let m = comm.recv(None, 42);
                    let mut dec = Decoder::new(&m.payload);
                    let src = dec.get_u64("src").expect("valid") as usize;
                    let i = dec.get_u64("i").expect("valid") as usize;
                    let payload = dec.get_bytes("payload").expect("valid");
                    assert_eq!(src, m.src);
                    for (k, &b) in payload.iter().enumerate() {
                        assert_eq!(b, (src + i + k) as u8, "payload corrupted");
                    }
                    got += 1;
                }
                got
            });
            assert_eq!(results.len(), n);
        }
    }

    /// A tiny inline splitmix step so this test has no dev-dependency on
    /// bat-geom (comm sits below it in the crate graph).
    fn next(state: u64) -> u64 {
        let mut z = state.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn bat_geom_rng(seed: u64) -> u64 {
        next(seed)
    }

    /// Back-to-back collectives of different kinds must not cross-talk.
    #[test]
    fn interleaved_collectives_soak() {
        Cluster::run(9, |comm| {
            for round in 0..25u64 {
                let sum = comm.allreduce_u64(comm.rank() as u64 + round, &|a, b| a + b);
                let expect: u64 = (0..9).map(|r| r + round).sum();
                assert_eq!(sum, expect, "round {round}");
                let root = (round % 9) as usize;
                let data = if comm.rank() == root {
                    Some(Bytes::copy_from_slice(&round.to_le_bytes()))
                } else {
                    None
                };
                let out = comm.bcast(root, data);
                assert_eq!(u64::from_le_bytes(out[..8].try_into().unwrap()), round);
                comm.barrier();
            }
        });
    }
}

#[cfg(test)]
mod liveness_tests {
    use super::tests::TRANSPORTS;
    use super::*;
    use bytes::Bytes;
    use std::time::{Duration, Instant};

    #[test]
    fn recv_timeout_expires_when_nothing_arrives() {
        for kind in TRANSPORTS {
            Cluster::run_with(kind, 2, |comm| {
                if comm.rank() == 0 {
                    let start = Instant::now();
                    let err = comm
                        .recv_timeout(Some(1), 5, Duration::from_millis(30))
                        .expect_err("nothing was sent");
                    assert!(
                        matches!(err, CommError::Timeout { .. }),
                        "{kind:?}: got {err}"
                    );
                    assert!(start.elapsed() >= Duration::from_millis(30), "{kind:?}");
                }
                // Rank 1 sends nothing and returns — a departure, not a
                // death, on every transport; both ranks still finish (no
                // barrier — rank 0's wait is the only synchronization
                // under test).
            });
        }
    }

    #[test]
    fn recv_timeout_delivers_a_message_that_arrives_in_time() {
        for kind in TRANSPORTS {
            let out = Cluster::run_with(kind, 2, |comm| {
                if comm.rank() == 0 {
                    let msg = comm
                        .recv_timeout(Some(1), 5, Duration::from_secs(5))
                        .expect("message arrives well before the deadline");
                    msg.payload[0]
                } else {
                    comm.isend(0, 5, Bytes::from(vec![0xAB]));
                    0
                }
            });
            assert_eq!(out[0], 0xAB, "{kind:?}");
        }
    }

    #[test]
    fn dead_peer_fails_receivers_fast_but_queued_messages_still_drain() {
        for kind in TRANSPORTS {
            Cluster::run_with(kind, 2, |comm| {
                if comm.rank() == 1 {
                    // Send one message, then die.
                    comm.isend(0, 7, Bytes::from(vec![1]));
                    comm.mark_dead();
                } else {
                    // The pre-death message is delivered...
                    let msg = comm
                        .recv_timeout(Some(1), 7, Duration::from_secs(5))
                        .expect("pre-death message is still queued");
                    assert_eq!(msg.payload[0], 1, "{kind:?}");
                    // ...and the next receive fails fast with PeerDead, long
                    // before the generous deadline.
                    let start = Instant::now();
                    let err = comm
                        .recv_timeout(Some(1), 7, Duration::from_secs(60))
                        .expect_err("peer is dead");
                    assert!(
                        matches!(err, CommError::PeerDead { peer: 1, .. }),
                        "{kind:?}: got {err}"
                    );
                    assert!(start.elapsed() < Duration::from_secs(10), "{kind:?}");
                }
            });
        }
    }

    #[test]
    fn sends_to_a_dead_rank_are_dropped_not_queued() {
        for kind in TRANSPORTS {
            Cluster::run_with(kind, 2, |comm| {
                if comm.rank() == 0 {
                    comm.mark_dead();
                    comm.isend(1, 3, Bytes::from(vec![9])); // tells rank 1 to proceed
                } else {
                    let _ = comm.recv_timeout(Some(0), 3, Duration::from_secs(5));
                    // Messages *to* rank 0 vanish; nothing to assert beyond
                    // not panicking (delivery would push into a dead mailbox).
                    comm.isend(0, 3, Bytes::from(vec![4]));
                }
            });
        }
    }

    #[test]
    fn try_collectives_err_on_all_survivors_when_a_rank_dies() {
        let timeout = Duration::from_millis(100);
        for kind in TRANSPORTS {
            let results = Cluster::run_with(kind, 4, move |comm| {
                let comm = comm.with_timeout(Some(timeout));
                if comm.rank() == 2 {
                    comm.mark_dead();
                    return Err(());
                }
                // Every survivor errs within a bounded number of deadlines —
                // no hang, no panic. Allreduce blocks every rank (gather at 0,
                // then broadcast), so no survivor can slip through.
                comm.try_allreduce_u64(1, &|a, b| a + b)
                    .map(|_| ())
                    .map_err(|_| ())
            });
            assert!(results[2].is_err());
            for r in [0, 1, 3] {
                assert!(
                    results[r].is_err(),
                    "{kind:?}: rank {r} should report the dead peer"
                );
            }
        }
    }

    #[test]
    fn try_barrier_completes_when_everyone_is_healthy() {
        Cluster::run(5, |comm| {
            let comm = comm.with_timeout(Some(Duration::from_secs(5)));
            for _ in 0..10 {
                comm.try_barrier().expect("healthy barrier");
            }
        });
    }
}

#[cfg(test)]
mod waitall_tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn wait_all_returns_in_request_order() {
        Cluster::run(4, |comm| {
            if comm.rank() == 0 {
                // Post receives for ranks 1..4 on distinct tags, in order.
                let reqs: Vec<RecvRequest> = (1..4)
                    .map(|src| comm.irecv(Some(src), src as u32))
                    .collect();
                let msgs = wait_all(reqs);
                for (i, m) in msgs.iter().enumerate() {
                    assert_eq!(m.src, i + 1);
                    assert_eq!(m.payload[0] as usize, i + 1);
                }
            } else {
                comm.isend(0, comm.rank() as u32, Bytes::from(vec![comm.rank() as u8]));
            }
        });
    }
}
