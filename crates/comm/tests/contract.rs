//! Transport-contract tests: the deadline semantics every
//! [`bat_comm::Comm`] implementation must share, run against all three
//! transports (channel, socket, sim).

use bat_comm::{Cluster, Comm, CommError, TransportKind};
use std::time::{Duration, Instant};

const TRANSPORTS: [TransportKind; 3] = [
    TransportKind::Channel,
    TransportKind::Socket,
    TransportKind::Sim,
];

#[test]
fn zero_timeout_expires_immediately_on_every_transport() {
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
