//! Transport-contract tests: the deadline and retry semantics every
//! [`bat_comm::Comm`] implementation must share, run against all three
//! transports (channel, socket, sim).
//!
//! The fault-driven `send_with_retry` cases arm the process-global
//! failpoint registry, so every test here takes one lock.

use bat_comm::{Cluster, Comm, CommError, TransportKind};
use bytes::Bytes;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const TRANSPORTS: [TransportKind; 3] = [
    TransportKind::Channel,
    TransportKind::Socket,
    TransportKind::Sim,
];

/// The fault registry is process-global and rank-filtered; clusters reuse
/// rank numbers, so no test may overlap an armed retry test.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn zero_timeout_expires_immediately_on_every_transport() {
    let _guard = lock();
    for kind in TRANSPORTS {
        Cluster::run_with(kind, 2, |comm| {
            if comm.rank() == 0 {
                // A zero timeout is a valid deadline that is already
                // over: the receive must return Timeout without waiting,
                // not hang and not panic.
                let c = comm.with_timeout(Some(Duration::ZERO));
                let t0 = Instant::now();
                let r = c.recv_bounded(Some(1), 5);
                assert!(
                    matches!(
                        r,
                        Err(CommError::Timeout {
                            rank: 0,
                            src: Some(1),
                            tag: 5,
                            ..
                        })
                    ),
                    "{kind:?}: expected immediate Timeout, got {r:?}"
                );
                assert!(
                    t0.elapsed() < Duration::from_secs(1),
                    "{kind:?}: zero timeout waited {:?}",
                    t0.elapsed()
                );
            }
        });
    }
}

#[test]
fn with_timeout_returns_an_independent_handle() {
    let _guard = lock();
    for kind in TRANSPORTS {
        Cluster::run_with(kind, 2, |comm| {
            let bounded = comm.with_timeout(Some(Duration::from_millis(40)));
            assert_eq!(bounded.timeout(), Some(Duration::from_millis(40)));
            assert_eq!(bounded.rank(), comm.rank());
            assert_eq!(bounded.size(), comm.size());
            // The original handle's deadline is untouched, and the
            // bounded handle's deadline governs its receives.
            if comm.rank() == 0 {
                let t0 = Instant::now();
                let r = bounded.recv_bounded(Some(1), 9);
                assert!(
                    matches!(r, Err(CommError::Timeout { .. })),
                    "{kind:?}: got {r:?}"
                );
                let waited = t0.elapsed();
                assert!(
                    waited >= Duration::from_millis(40) && waited < Duration::from_secs(5),
                    "{kind:?}: 40 ms deadline waited {waited:?}"
                );
                // Unbounding again also works (explicit None).
                let unbounded = bounded.with_timeout(None);
                assert_eq!(unbounded.timeout(), None);
            }
        });
    }
}

#[test]
fn send_with_retry_delivers_without_faults() {
    let _guard = lock();
    for kind in TRANSPORTS {
        Cluster::run_with(kind, 2, |comm| {
            if comm.rank() == 1 {
                comm.send_with_retry(0, 3, Bytes::copy_from_slice(b"payload"))
                    .expect("clean send_with_retry succeeds");
            } else {
                let msg = comm
                    .recv_timeout(Some(1), 3, Duration::from_secs(10))
                    .expect("message arrives");
                assert_eq!(&msg.payload[..], b"payload");
            }
        });
    }
}

mod faults {
    use super::*;

    #[test]
    fn send_with_retry_heals_transient_faults() {
        let _guard = lock();
        for kind in TRANSPORTS {
            bat_faults::reset();
            // The first two attempts fail, the third goes through: the
            // message must arrive exactly once and the call return Ok.
            bat_faults::configure("comm.send.retry=error@rank=1@limit=2").expect("fault spec");
            Cluster::run_with(kind, 2, |comm| {
                if comm.rank() == 1 {
                    comm.send_with_retry(0, 4, Bytes::copy_from_slice(b"healed"))
                        .expect("retries heal transient faults");
                } else {
                    let msg = comm
                        .recv_timeout(Some(1), 4, Duration::from_secs(10))
                        .expect("healed message arrives");
                    assert_eq!(&msg.payload[..], b"healed");
                    // Exactly once: no duplicate from the failed attempts.
                    assert!(comm.iprobe(Some(1), 4).is_none());
                }
            });
            assert!(
                bat_faults::hits("comm.send.retry") >= 2,
                "{kind:?}: failpoint never fired"
            );
            bat_faults::reset();
        }
    }

    #[test]
    fn send_with_retry_exhaustion_is_typed_and_marks_dead() {
        let _guard = lock();
        for kind in TRANSPORTS {
            bat_faults::reset();
            // Every attempt fails: after the attempt budget the sender
            // gets a typed SendFailed, marks itself dead, and the
            // receiver's bounded wait fails fast with PeerDead.
            bat_faults::configure("comm.send.retry=error@rank=1").expect("fault spec");
            Cluster::run_with(kind, 2, |comm| {
                if comm.rank() == 1 {
                    let r = comm.send_with_retry(0, 6, Bytes::copy_from_slice(b"lost"));
                    match r {
                        Err(CommError::SendFailed {
                            rank: 1,
                            dst: 0,
                            tag: 6,
                            attempts: 4,
                        }) => {}
                        other => {
                            panic!("{kind:?}: expected SendFailed after 4 attempts, got {other:?}")
                        }
                    }
                    assert!(comm.is_dead(1), "{kind:?}: exhausted sender must be dead");
                } else {
                    let r = comm.recv_timeout(Some(1), 6, Duration::from_secs(10));
                    assert!(
                        matches!(r, Err(CommError::PeerDead { peer: 1, .. })),
                        "{kind:?}: expected PeerDead, got {r:?}"
                    );
                }
            });
            bat_faults::reset();
        }
    }

    #[test]
    fn send_with_retry_kill_fails_fast() {
        let _guard = lock();
        for kind in TRANSPORTS {
            bat_faults::reset();
            // A kill fault is a crash, not a transient: no retries, the
            // first attempt returns SendFailed{attempts: 1}.
            bat_faults::configure("comm.send.retry=kill@rank=1").expect("fault spec");
            Cluster::run_with(kind, 2, |comm| {
                if comm.rank() == 1 {
                    let t0 = Instant::now();
                    let r = comm.send_with_retry(0, 8, Bytes::copy_from_slice(b"killed"));
                    match r {
                        Err(CommError::SendFailed { attempts: 1, .. }) => {}
                        other => {
                            panic!("{kind:?}: expected first-attempt SendFailed, got {other:?}")
                        }
                    }
                    assert!(
                        t0.elapsed() < Duration::from_secs(1),
                        "{kind:?}: kill must not back off"
                    );
                } else {
                    let r = comm.recv_timeout(Some(1), 8, Duration::from_secs(10));
                    assert!(
                        matches!(r, Err(CommError::PeerDead { peer: 1, .. })),
                        "{kind:?}: expected PeerDead, got {r:?}"
                    );
                }
            });
            bat_faults::reset();
        }
    }
}
