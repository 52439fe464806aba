//! The simulated transport: in-process ranks whose messages travel over a
//! `bat-iosim` network model instead of arriving instantaneously.
//!
//! Each sender owns a virtual NIC: a message occupies the NIC for
//! `bytes / bandwidth` (back-to-back sends serialize, exactly like the
//! iosim write-phase model) and becomes *visible* to the receiver one
//! latency later. Receives, probes, and nonblocking tests only see
//! visible messages, so protocols that are timing-sensitive (ibarrier
//! polling loops, deadline-bounded receives, the read pipeline's
//! serve-while-waiting loop) run against realistic skew — deterministic
//! enough for offline testing, honest enough to surface ordering bugs the
//! zero-latency channel transport can never show.
//!
//! Matching, liveness and poison are the shared inbox's
//! ([`crate::inbox`]), so the one rule only this transport can show — a
//! matching message still in flight beats a dead source — is the same
//! receive loop every transport runs; the `comm.send` / `comm.recv`
//! failpoints fire in the shared trait wrappers, so fault grammars from
//! the PR 4 matrix apply unchanged.

use crate::comm::Message;
use crate::inbox::Mailroom;
use crate::transport::Transport;
use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// Network parameters for the simulated transport.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SimParams {
    /// One-way message latency.
    latency: Duration,
    /// NIC bandwidth in bytes per second (serializes a sender's messages).
    bytes_per_sec: f64,
}

impl SimParams {
    /// Parameters from a `bat-iosim` system profile's network section
    /// (bandwidth derated by the fabric oversubscription factor, like the
    /// iosim shuffle model).
    fn from_profile(profile: &bat_iosim::SystemProfile) -> SimParams {
        SimParams {
            latency: Duration::from_secs_f64(profile.network.latency),
            bytes_per_sec: profile.network.nic_bw / profile.network.oversubscription,
        }
    }
}

impl Default for SimParams {
    /// The iosim Stampede2 profile.
    fn default() -> SimParams {
        SimParams::from_profile(&bat_iosim::SystemProfile::stampede2())
    }
}

/// The simulated network: one virtual NIC per rank.
pub(crate) struct SimNet {
    params: SimParams,
    /// Per-rank virtual NIC: the instant the NIC frees up.
    nic_free: Vec<Mutex<Instant>>,
}

impl SimNet {
    pub(crate) fn new(n: usize, params: SimParams) -> SimNet {
        let now = Instant::now();
        SimNet {
            params,
            nic_free: (0..n).map(|_| Mutex::new(now)).collect(),
        }
    }
}

impl Transport for SimNet {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn send(&self, room: &Mailroom, dst: usize, msg: Message) {
        let now = Instant::now();
        // Occupy the sender's virtual NIC for the transfer time, then add
        // the propagation latency. Serialization point per sender keeps
        // same-source visibility monotonic (FIFO preserved).
        let visible_at = {
            let mut free = self.nic_free[msg.src].lock();
            let xfer =
                Duration::from_secs_f64(msg.payload.len() as f64 / self.params.bytes_per_sec);
            *free = (*free).max(now) + xfer;
            *free + self.params.latency
        };
        room.deliver(dst, msg, Some(visible_at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::RankComm;
    use crate::{Comm, CommError};
    use bytes::Bytes;
    use std::sync::Arc;

    /// The one liveness rule only this transport can show: a matching
    /// message that is queued but not yet visible was sent before its
    /// sender died, so the receive waits for it instead of failing with
    /// `PeerDead`. Single-threaded, so the interleaving is forced: the
    /// source is dead before the receive starts, and the message cannot
    /// be visible earlier than one latency after `t0`.
    #[test]
    fn a_message_in_flight_beats_a_dead_source() {
        let params = SimParams {
            latency: Duration::from_millis(50),
            bytes_per_sec: 1e9,
        };
        let room = Arc::new(Mailroom::new(2));
        let net: Arc<dyn Transport> = Arc::new(SimNet::new(2, params));
        let receiver = RankComm::new(room.clone(), net.clone(), 0);
        let sender = RankComm::new(room, net, 1);

        let t0 = Instant::now();
        sender.isend(0, 7, Bytes::from(vec![1]));
        sender.mark_dead();
        assert!(receiver.is_dead(1));
        let msg = receiver
            .recv_timeout(Some(1), 7, Duration::from_secs(5))
            .expect("an in-flight message is delivered, dead source or not");
        assert_eq!(msg.payload[0], 1);
        assert!(
            t0.elapsed() >= params.latency,
            "delivered before it was visible: {:?}",
            t0.elapsed()
        );
        // With nothing left in flight the dead source fails fast.
        let err = receiver
            .recv_timeout(Some(1), 7, Duration::from_secs(60))
            .expect_err("peer is dead");
        assert!(matches!(err, CommError::PeerDead { peer: 1, .. }), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(10));
    }
}
