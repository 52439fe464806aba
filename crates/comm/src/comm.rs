//! The transport-agnostic communicator contract.
//!
//! [`Comm`] is the one interface every pipeline in the workspace is written
//! against: MPI-style point-to-point operations with `(source, tag)`
//! matching, liveness (deadlines + per-rank death), and the collectives.
//! The rank handle implements the small set of *raw* primitives (`send_raw`,
//! `recv_deadline_raw`, probes, and handle plumbing) over the shared inbox;
//! everything user-facing — tag validation, fault injection, retries, the
//! collective algorithms, the nonblocking barrier — is provided by the trait
//! itself, so all three transports (in-process channels, sockets, the
//! simulated network) share identical semantics above the byte-moving layer
//! (DESIGN.md §14).

use crate::error::CommError;
use crate::request::RecvRequest;
use crate::{collectives, IBarrier, MAX_USER_TAG};
use bytes::Bytes;
use std::time::{Duration, Instant};

/// A message delivered to a rank.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// User tag.
    pub tag: u32,
    /// Payload bytes.
    pub payload: Bytes,
}

impl Message {
    /// The payload as a zero-copy [`bat_wire::Block`] view. Receivers that
    /// parse columnar frames slice their sections out of this block without
    /// copying the message body.
    pub fn block(&self) -> bat_wire::Block {
        bat_wire::Block::from(self.payload.clone())
    }
}

/// Metadata returned by [`Comm::iprobe`] without consuming the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeInfo {
    /// Sending rank of the queued message.
    pub src: usize,
    /// Its tag.
    pub tag: u32,
    /// Payload length in bytes.
    pub len: usize,
}

/// The default receive deadline a rank handle starts with, from
/// `BAT_RECV_TIMEOUT_MS` when the handle is built (unset or `0` = no
/// deadline: the classic block-forever MPI semantics).
pub(crate) fn default_timeout() -> Option<Duration> {
    bat_obs::knobs::RECV_TIMEOUT_MS
        .uint()
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
}

pub(crate) fn check_user_tag(tag: u32) {
    assert!(
        tag < MAX_USER_TAG,
        "tag {tag} is reserved for internal collectives (must be < {MAX_USER_TAG})"
    );
}

/// A rank's handle to the cluster: knows its rank, the cluster size, and how
/// to exchange messages. Handles are cheap to clone via
/// [`Comm::clone_comm`]; clones refer to the same rank.
///
/// The trait is dyn-compatible: pipelines take `&dyn Comm` and work over
/// any transport (channel, socket, sim).
pub trait Comm: Send + Sync {
    // ------------------------------------------------------------------
    // Identity and deadlines
    // ------------------------------------------------------------------

    /// This rank's index in `0..size`.
    fn rank(&self) -> usize;

    /// Number of ranks in the cluster.
    fn size(&self) -> usize;

    /// The per-receive deadline bounded operations use (from
    /// `BAT_RECV_TIMEOUT_MS`, or [`Comm::with_timeout`]).
    fn timeout(&self) -> Option<Duration>;

    /// A handle to the same rank with a different per-receive deadline
    /// (`None` disables deadlines).
    fn with_timeout(&self, timeout: Option<Duration>) -> Box<dyn Comm>;

    /// A new handle to the same rank (same transport, same deadline).
    fn clone_comm(&self) -> Box<dyn Comm>;

    /// The transport's name (`channel`, `socket`, `sim`) for diagnostics.
    fn transport(&self) -> &'static str;

    // ------------------------------------------------------------------
    // Liveness
    // ------------------------------------------------------------------

    /// Declare this rank dead: it is abandoning the protocol (crash
    /// simulation, unrecoverable local failure). Pending and future
    /// messages to it are dropped, and every peer blocked on a bounded
    /// receive from it wakes with [`CommError::PeerDead`].
    fn mark_dead(&self);

    /// Whether `rank` has declared itself dead (or, on the socket
    /// transport, its connection has failed).
    fn is_dead(&self, rank: usize) -> bool;

    /// How many times `rank`'s connection has been replaced by a
    /// re-admitted process (socket star topology; always 0 elsewhere). A
    /// request sent before the count changed died with the old process:
    /// its frames are purged and no answer will ever arrive, even though
    /// [`Comm::is_dead`] reads `false` again.
    fn incarnation(&self, _rank: usize) -> u64 {
        0
    }

    /// Poison the whole cluster after a local panic (in-process transports
    /// wake every blocked rank; the socket transport falls back to
    /// [`Comm::mark_dead`] so remote peers fail fast instead).
    #[doc(hidden)]
    fn poison(&self) {
        self.mark_dead();
    }

    /// Panic if the cluster was poisoned by another rank's panic. A no-op
    /// on transports without shared poison state.
    #[doc(hidden)]
    fn check_alive(&self) {}

    /// Tear the transport down (close connections, stop reader threads).
    /// Peers observe the departure as this rank dying once they wait on
    /// it. A no-op on in-process transports.
    fn shutdown(&self) {}

    // ------------------------------------------------------------------
    // Raw transport primitives (reserved tags allowed)
    // ------------------------------------------------------------------

    /// Move bytes to `dst`'s mailbox. No tag validation, no fault
    /// injection — that happens in the provided wrappers.
    #[doc(hidden)]
    fn send_raw(&self, dst: usize, tag: u32, payload: Bytes);

    /// Blocking matched receive with an optional deadline.
    #[doc(hidden)]
    fn recv_deadline_raw(
        &self,
        src: Option<usize>,
        tag: u32,
        deadline: Option<Instant>,
    ) -> Result<Message, CommError>;

    /// Nonblocking matched receive.
    #[doc(hidden)]
    fn try_recv_raw(&self, src: Option<usize>, tag: u32) -> Option<Message>;

    /// Nonblocking probe.
    #[doc(hidden)]
    fn iprobe_raw(&self, src: Option<usize>, tag: u32) -> Option<ProbeInfo>;

    /// Allocate the next ibarrier generation number for this rank.
    /// Barriers are collective, so all ranks observe matching sequences.
    #[doc(hidden)]
    fn next_ibarrier_generation(&self) -> u64;

    // ------------------------------------------------------------------
    // Provided: point-to-point API
    // ------------------------------------------------------------------

    /// Nonblocking send with a user tag. Eager: the payload is enqueued at
    /// the destination before this returns, so there is no request to wait
    /// on (matching MPI's eager protocol for small/medium messages).
    fn isend(&self, dst: usize, tag: u32, payload: Bytes) {
        check_user_tag(tag);
        self.isend_internal(dst, tag, payload);
    }

    /// Internal send that may use reserved tags (collectives).
    #[doc(hidden)]
    fn isend_internal(&self, dst: usize, tag: u32, payload: Bytes) {
        self.check_alive();
        assert!(dst < self.size(), "destination rank {dst} out of range");
        // Failpoint: a lost message (any configured fault drops it). The
        // receiver's deadline is what turns the loss into an error.
        if bat_faults::fire("comm.send").is_some() {
            return;
        }
        self.send_raw(dst, tag, payload);
    }

    /// Post a nonblocking receive for `(src, tag)`; `src = None` matches any
    /// source. Complete it with [`RecvRequest::wait`] or poll with
    /// [`RecvRequest::test`].
    fn irecv(&self, src: Option<usize>, tag: u32) -> RecvRequest {
        check_user_tag(tag);
        RecvRequest::new(self.clone_comm(), src, tag)
    }

    /// Blocking receive: waits until a matching message arrives.
    fn recv(&self, src: Option<usize>, tag: u32) -> Message {
        check_user_tag(tag);
        self.recv_internal(src, tag)
    }

    /// Bounded receive with an explicit deadline: waits at most `timeout`
    /// for a matching message, and fails fast with
    /// [`CommError::PeerDead`] if `src` has died with nothing queued.
    fn recv_timeout(
        &self,
        src: Option<usize>,
        tag: u32,
        timeout: Duration,
    ) -> Result<Message, CommError> {
        check_user_tag(tag);
        self.recv_deadline_internal(src, tag, Some(Instant::now() + timeout))
    }

    /// Bounded receive using this handle's configured [`Comm::timeout`]
    /// (blocks indefinitely when none is configured — but still fails fast
    /// on a dead peer).
    fn recv_bounded(&self, src: Option<usize>, tag: u32) -> Result<Message, CommError> {
        check_user_tag(tag);
        self.recv_bounded_internal(src, tag)
    }

    #[doc(hidden)]
    fn recv_bounded_internal(&self, src: Option<usize>, tag: u32) -> Result<Message, CommError> {
        self.recv_deadline_internal(src, tag, self.timeout().map(|t| Instant::now() + t))
    }

    #[doc(hidden)]
    fn recv_internal(&self, src: Option<usize>, tag: u32) -> Message {
        match self.recv_deadline_internal(src, tag, None) {
            Ok(msg) => msg,
            // Unbounded receives keep the legacy all-ranks-healthy
            // contract; a dead peer here means the program logic already
            // abandoned the collective protocol.
            Err(e) => panic!("unbounded receive failed: {e}"),
        }
    }

    #[doc(hidden)]
    fn recv_deadline_internal(
        &self,
        src: Option<usize>,
        tag: u32,
        deadline: Option<Instant>,
    ) -> Result<Message, CommError> {
        // Failpoint: injected receive latency (`comm.recv=delay:MS`). Any
        // non-delay action configured here is ignored — losses are
        // injected on the send side.
        let _ = bat_faults::fire("comm.recv");
        self.recv_deadline_raw(src, tag, deadline)
    }

    /// Try to receive without blocking; returns `None` when no matching
    /// message is queued.
    #[doc(hidden)]
    fn try_recv_internal(&self, src: Option<usize>, tag: u32) -> Option<Message> {
        self.check_alive();
        self.try_recv_raw(src, tag)
    }

    /// Nonblocking probe: report the first queued message matching
    /// `(src, tag)` without consuming it.
    fn iprobe(&self, src: Option<usize>, tag: u32) -> Option<ProbeInfo> {
        check_user_tag(tag);
        self.check_alive();
        self.iprobe_raw(src, tag)
    }

    /// Begin a nonblocking barrier (the `MPI_Ibarrier` of the read pipeline,
    /// paper §IV-B). Poll the returned handle with [`IBarrier::test`].
    fn ibarrier(&self) -> IBarrier {
        IBarrier::begin(self.clone_comm())
    }

    // ------------------------------------------------------------------
    // Provided: collectives (algorithms in `collectives.rs`)
    // ------------------------------------------------------------------

    /// Blocking dissemination barrier.
    fn barrier(&self) {
        self.with_timeout(None)
            .try_barrier()
            .unwrap_or_else(|e| panic!("unbounded barrier failed: {e}"));
    }

    /// Bounded dissemination barrier: errs if any round's partner message
    /// does not arrive within the configured timeout.
    fn try_barrier(&self) -> Result<(), CommError> {
        collectives::try_barrier(self)
    }

    /// Gather one byte payload from every rank at `root` (rank order).
    /// Returns `Some(all_payloads)` at the root, `None` elsewhere.
    fn gather(&self, root: usize, data: Bytes) -> Option<Vec<Bytes>> {
        self.with_timeout(None)
            .try_gather(root, data)
            .unwrap_or_else(|e| panic!("unbounded gather failed: {e}"))
    }

    /// Bounded [`Comm::gather`].
    fn try_gather(&self, root: usize, data: Bytes) -> Result<Option<Vec<Bytes>>, CommError> {
        collectives::try_gather(self, root, data)
    }

    /// Scatter one byte payload to every rank from `root`. The root passes
    /// `Some(parts)` with exactly `size` entries; other ranks pass `None`.
    /// Every rank returns its own part.
    fn scatter(&self, root: usize, parts: Option<Vec<Bytes>>) -> Bytes {
        self.with_timeout(None)
            .try_scatter(root, parts)
            .unwrap_or_else(|e| panic!("unbounded scatter failed: {e}"))
    }

    /// Bounded [`Comm::scatter`].
    fn try_scatter(&self, root: usize, parts: Option<Vec<Bytes>>) -> Result<Bytes, CommError> {
        collectives::try_scatter(self, root, parts)
    }

    /// Broadcast from `root` via a binomial tree. The root passes
    /// `Some(data)`; every rank returns the payload.
    fn bcast(&self, root: usize, data: Option<Bytes>) -> Bytes {
        self.with_timeout(None)
            .try_bcast(root, data)
            .unwrap_or_else(|e| panic!("unbounded bcast failed: {e}"))
    }

    /// Bounded [`Comm::bcast`].
    fn try_bcast(&self, root: usize, data: Option<Bytes>) -> Result<Bytes, CommError> {
        collectives::try_bcast(self, root, data)
    }

    /// All-reduce a `u64` with an associative, commutative operator.
    fn allreduce_u64(&self, value: u64, op: &dyn Fn(u64, u64) -> u64) -> u64 {
        self.with_timeout(None)
            .try_allreduce_u64(value, op)
            .unwrap_or_else(|e| panic!("unbounded allreduce failed: {e}"))
    }

    /// Bounded [`Comm::allreduce_u64`].
    fn try_allreduce_u64(
        &self,
        value: u64,
        op: &dyn Fn(u64, u64) -> u64,
    ) -> Result<u64, CommError> {
        collectives::try_allreduce_u64(self, value, op)
    }

    /// Gather everyone's payload on every rank (gather at 0 + broadcast).
    fn allgather(&self, data: Bytes) -> Vec<Bytes> {
        collectives::allgather(self, data)
    }
}

/// Forwarding impl so a boxed communicator (what [`crate::Cluster::run`]
/// hands each rank closure) can be used anywhere a `&dyn Comm` is expected.
impl Comm for Box<dyn Comm> {
    fn rank(&self) -> usize {
        (**self).rank()
    }
    fn size(&self) -> usize {
        (**self).size()
    }
    fn timeout(&self) -> Option<Duration> {
        (**self).timeout()
    }
    fn with_timeout(&self, timeout: Option<Duration>) -> Box<dyn Comm> {
        (**self).with_timeout(timeout)
    }
    fn clone_comm(&self) -> Box<dyn Comm> {
        (**self).clone_comm()
    }
    fn transport(&self) -> &'static str {
        (**self).transport()
    }
    fn mark_dead(&self) {
        (**self).mark_dead()
    }
    fn is_dead(&self, rank: usize) -> bool {
        (**self).is_dead(rank)
    }
    fn incarnation(&self, rank: usize) -> u64 {
        (**self).incarnation(rank)
    }
    fn poison(&self) {
        (**self).poison()
    }
    fn check_alive(&self) {
        (**self).check_alive()
    }
    fn shutdown(&self) {
        (**self).shutdown()
    }
    fn send_raw(&self, dst: usize, tag: u32, payload: Bytes) {
        (**self).send_raw(dst, tag, payload)
    }
    fn recv_deadline_raw(
        &self,
        src: Option<usize>,
        tag: u32,
        deadline: Option<Instant>,
    ) -> Result<Message, CommError> {
        (**self).recv_deadline_raw(src, tag, deadline)
    }
    fn try_recv_raw(&self, src: Option<usize>, tag: u32) -> Option<Message> {
        (**self).try_recv_raw(src, tag)
    }
    fn iprobe_raw(&self, src: Option<usize>, tag: u32) -> Option<ProbeInfo> {
        (**self).iprobe_raw(src, tag)
    }
    fn next_ibarrier_generation(&self) -> u64 {
        (**self).next_ibarrier_generation()
    }
}
