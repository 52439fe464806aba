//! The one rank handle over every transport, and the in-process channel
//! transport.
//!
//! [`RankComm`] implements [`Comm`]'s raw primitives once: receiving,
//! probing and liveness are the shared [`Mailroom`]'s; sending is the
//! only thing delegated to the [`Transport`] behind the handle.

use crate::comm::{default_timeout, Comm, Message, ProbeInfo};
use crate::error::CommError;
use crate::inbox::Mailroom;
use bytes::Bytes;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How messages leave a rank. The hooks beyond [`Transport::send`] exist
/// for the socket transport, whose peers live in other processes.
pub(crate) trait Transport: Send + Sync {
    /// The transport's name (`channel`, `socket`, `sim`) for diagnostics.
    fn name(&self) -> &'static str;

    /// Move `msg` towards `dst`'s inbox ([`Mailroom::deliver`], directly
    /// or at the far end of a connection).
    fn send(&self, room: &Mailroom, dst: usize, msg: Message);

    /// This rank just declared itself dead; tell whoever cannot see its
    /// flag.
    fn announce_death(&self) {}

    /// See [`Comm::incarnation`].
    fn incarnation(&self, _rank: usize) -> u64 {
        0
    }

    /// See [`Comm::shutdown`].
    fn shutdown(&self) {}
}

/// The in-process channel transport: ranks are OS threads sharing one
/// [`Mailroom`], and a send is a push into the destination's inbox. This
/// is the original `bat-comm` fabric — synchronous eager delivery — and
/// the byte-identity reference the other transports are tested against.
pub(crate) struct Channel;

impl Transport for Channel {
    fn name(&self) -> &'static str {
        "channel"
    }

    fn send(&self, room: &Mailroom, dst: usize, msg: Message) {
        room.deliver(dst, msg, None);
    }
}

/// A rank's handle to its cluster, whatever the transport.
#[derive(Clone)]
pub(crate) struct RankComm {
    room: Arc<Mailroom>,
    link: Arc<dyn Transport>,
    rank: usize,
    /// Deadline applied per bounded receive (`recv_bounded` and every
    /// `try_*` collective). `None` = wait forever.
    timeout: Option<Duration>,
}

impl RankComm {
    /// A handle for `rank` with the `BAT_RECV_TIMEOUT_MS` deadline.
    pub(crate) fn new(room: Arc<Mailroom>, link: Arc<dyn Transport>, rank: usize) -> RankComm {
        RankComm {
            room,
            link,
            rank,
            timeout: default_timeout(),
        }
    }
}

impl Comm for RankComm {
    #[inline]
    fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    fn size(&self) -> usize {
        self.room.size()
    }

    #[inline]
    fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    fn with_timeout(&self, timeout: Option<Duration>) -> Box<dyn Comm> {
        Box::new(RankComm {
            timeout,
            ..self.clone()
        })
    }

    fn clone_comm(&self) -> Box<dyn Comm> {
        Box::new(self.clone())
    }

    fn transport(&self) -> &'static str {
        self.link.name()
    }

    fn mark_dead(&self) {
        // The rank can keep *sending* afterwards — a dying rank may still
        // flush (crash simulation wants the flush-then-die shape).
        if !self.room.set_dead(self.rank, true) {
            self.link.announce_death();
        }
    }

    fn is_dead(&self, rank: usize) -> bool {
        self.room.is_dead(rank)
    }

    fn incarnation(&self, rank: usize) -> u64 {
        self.link.incarnation(rank)
    }

    fn poison(&self) {
        // Ranks in this process wake and panic; ranks in other processes
        // cannot see the flag and learn of the death instead.
        self.room.poison();
        self.mark_dead();
    }

    #[inline]
    fn check_alive(&self) {
        self.room.check_alive();
    }

    fn shutdown(&self) {
        self.link.shutdown();
    }

    fn send_raw(&self, dst: usize, tag: u32, payload: Bytes) {
        let src = self.rank;
        self.link
            .send(&self.room, dst, Message { src, tag, payload });
    }

    fn recv_deadline_raw(
        &self,
        src: Option<usize>,
        tag: u32,
        deadline: Option<Instant>,
    ) -> Result<Message, CommError> {
        self.room.recv(self.rank, src, tag, deadline)
    }

    fn try_recv_raw(&self, src: Option<usize>, tag: u32) -> Option<Message> {
        self.room.try_recv(self.rank, src, tag)
    }

    fn iprobe_raw(&self, src: Option<usize>, tag: u32) -> Option<ProbeInfo> {
        self.room.iprobe(self.rank, src, tag)
    }

    fn next_ibarrier_generation(&self) -> u64 {
        self.room.next_ibarrier_generation(self.rank)
    }
}
