//! The one inbox under every transport: per-rank message queues with
//! `(source, tag)` matching, the single matched-receive loop, and the
//! liveness state that loop consults (DESIGN.md §14).
//!
//! A transport decides only *how a message reaches the destination
//! inbox* ([`crate::transport::Transport::send`]): pushed directly
//! (channel), pushed with the instant a virtual NIC makes it visible
//! (sim), or written to a socket whose reader thread pushes it (socket).
//! Everything a receiver does — matching, FIFO order, deadlines, failing
//! fast on a dead source, panicking out of a poisoned cluster — happens
//! here, once.

use crate::comm::{Message, ProbeInfo};
use crate::error::CommError;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A queued message and, on a transport that models transfer time, the
/// instant it becomes visible to the receiver (`None` = on arrival).
struct Queued {
    msg: Message,
    visible_at: Option<Instant>,
}

/// One rank's incoming-message queue.
///
/// Messages are kept in arrival order; matching scans from the front so
/// per-(source, tag) delivery is FIFO (MPI's non-overtaking guarantee).
/// A sender's messages become visible in the order it sent them on every
/// transport, so taking the first *visible* match keeps that guarantee.
#[derive(Default)]
struct Inbox {
    queue: Mutex<Vec<Queued>>,
    cv: Condvar,
}

impl Inbox {
    /// The one wake site: apply `change` under the queue lock, then wake
    /// every waiter. Taking the lock even for a change that lives outside
    /// the queue (a dead or poison flag) means a receiver between its
    /// checks and its condvar wait cannot miss the notification.
    fn update(&self, change: impl FnOnce(&mut Vec<Queued>)) {
        let mut q = self.queue.lock();
        change(&mut q);
        self.cv.notify_all();
    }
}

/// What a scan of the queue for `(src, tag)` found at instant `now`: the
/// index of the first visible match, else the earliest instant at which a
/// queued match becomes visible.
fn scan(
    queue: &[Queued],
    src: Option<usize>,
    tag: u32,
    now: Instant,
) -> (Option<usize>, Option<Instant>) {
    let mut pending: Option<Instant> = None;
    for (i, q) in queue.iter().enumerate() {
        if q.msg.tag != tag || src.is_some_and(|s| s != q.msg.src) {
            continue;
        }
        match q.visible_at {
            Some(t) if t > now => pending = Some(pending.map_or(t, |p| p.min(t))),
            _ => return (Some(i), pending),
        }
    }
    (None, pending)
}

/// One rank's view of a cluster: the inboxes hosted by this process, and
/// who is dead or poisoned as far as this rank knows.
///
/// In-process clusters (channel, sim) share a single `Mailroom` between
/// all ranks. A socket rank owns a private one — it learns of deaths from
/// its own connections — except that thread-hosted socket ranks share
/// the inboxes and the poison flag ([`Mailroom::private_view`]), so a
/// panicking rank still wakes its siblings out of blocked receives.
pub(crate) struct Mailroom {
    /// One inbox per rank; a rank receives from the one at its index. A
    /// multi-process member only ever fills its own.
    inboxes: Arc<Vec<Inbox>>,
    /// Set when a rank hosted by this process panics; blocked ranks wake
    /// and panic instead of deadlocking on messages that will never
    /// arrive.
    poisoned: Arc<AtomicBool>,
    /// Per-rank death flags ([`crate::Comm::mark_dead`]): a dead rank has
    /// abandoned the protocol. Unlike poisoning, death is per-rank and
    /// survivable — receivers waiting on a dead peer get a clean
    /// [`CommError::PeerDead`] instead of a panic.
    dead: Vec<AtomicBool>,
    /// Per-rank ibarrier invocation counters, used to disambiguate the
    /// round tags of successive nonblocking barriers.
    ibarrier_gen: Vec<AtomicU64>,
}

impl Mailroom {
    pub(crate) fn new(size: usize) -> Mailroom {
        Mailroom {
            inboxes: Arc::new((0..size).map(|_| Inbox::default()).collect()),
            poisoned: Arc::new(AtomicBool::new(false)),
            dead: (0..size).map(|_| AtomicBool::new(false)).collect(),
            ibarrier_gen: (0..size).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// A view over the same inboxes and poison flag with its own death
    /// flags and barrier counters: what each rank of a thread-hosted
    /// socket cluster holds.
    pub(crate) fn private_view(&self) -> Mailroom {
        Mailroom {
            inboxes: self.inboxes.clone(),
            poisoned: self.poisoned.clone(),
            ..Mailroom::new(self.size())
        }
    }

    pub(crate) fn size(&self) -> usize {
        self.dead.len()
    }

    fn wake_all(&self) {
        for inbox in self.inboxes.iter() {
            inbox.update(|_| {});
        }
    }

    /// Mark the cluster poisoned and wake every blocked rank.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.wake_all();
    }

    /// Panic if another rank's panic poisoned the cluster.
    pub(crate) fn check_alive(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            panic!("cluster poisoned: another rank panicked");
        }
    }

    pub(crate) fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::Acquire)
    }

    /// Record that `rank` died (or, `dead = false`, was re-admitted) and
    /// wake every blocked receiver, so waits on that rank fail fast
    /// instead of running out their deadline. Returns the previous flag.
    pub(crate) fn set_dead(&self, rank: usize, dead: bool) -> bool {
        let was = self.dead[rank].swap(dead, Ordering::AcqRel);
        self.wake_all();
        was
    }

    /// Allocate the next ibarrier generation number for `rank`. Barriers
    /// are collective, so all ranks observe matching sequences.
    pub(crate) fn next_ibarrier_generation(&self, rank: usize) -> u64 {
        self.ibarrier_gen[rank].fetch_add(1, Ordering::Relaxed)
    }

    /// Queue `msg` in `dst`'s inbox, visible from `visible_at` (`None` =
    /// now), and wake it. Messages to a dead rank are dropped — nobody is
    /// left to consume them, and letting them queue would only hide the
    /// fault.
    pub(crate) fn deliver(&self, dst: usize, msg: Message, visible_at: Option<Instant>) {
        if !self.is_dead(dst) {
            self.inboxes[dst].update(|q| q.push(Queued { msg, visible_at }));
        }
    }

    /// Drop everything `src` has queued in `rank`'s inbox: the frames of a
    /// dead incarnation, whose request tags are retired, when the socket
    /// hub re-admits the restarted rank.
    pub(crate) fn purge(&self, rank: usize, src: usize) {
        self.inboxes[rank].update(|q| q.retain(|m| m.msg.src != src));
    }

    /// Blocking matched receive on `rank`'s inbox with an optional
    /// deadline — the one receive loop of the crate.
    pub(crate) fn recv(
        &self,
        rank: usize,
        src: Option<usize>,
        tag: u32,
        deadline: Option<Instant>,
    ) -> Result<Message, CommError> {
        let started = Instant::now();
        let inbox = &self.inboxes[rank];
        let mut q = inbox.queue.lock();
        loop {
            self.check_alive();
            let now = Instant::now();
            let (hit, pending) = scan(&q, src, tag, now);
            if let Some(i) = hit {
                return Ok(q.remove(i).msg);
            }
            // A dead source fails the receive only once nothing from it is
            // queued or still in flight: messages sent before the death
            // are deliverable.
            if let Some(peer) = src.filter(|&s| pending.is_none() && self.is_dead(s)) {
                return Err(CommError::PeerDead { rank, peer, tag });
            }
            if deadline.is_some_and(|d| now >= d) {
                return Err(CommError::Timeout {
                    rank,
                    src,
                    tag,
                    waited_ms: started.elapsed().as_millis() as u64,
                });
            }
            // Sleep until a pending match becomes visible, the deadline,
            // or a wakeup (an arrival, a death, poison) — whichever is
            // first; spurious and non-matching wakeups loop back around.
            match pending.into_iter().chain(deadline).min() {
                None => inbox.cv.wait(&mut q),
                Some(t) => {
                    let _ = inbox.cv.wait_for(&mut q, t.saturating_duration_since(now));
                }
            }
        }
    }

    /// Nonblocking matched receive.
    pub(crate) fn try_recv(&self, rank: usize, src: Option<usize>, tag: u32) -> Option<Message> {
        let mut q = self.inboxes[rank].queue.lock();
        let (hit, _) = scan(&q, src, tag, Instant::now());
        hit.map(|i| q.remove(i).msg)
    }

    /// Nonblocking probe: the first visible match, left in the queue.
    pub(crate) fn iprobe(&self, rank: usize, src: Option<usize>, tag: u32) -> Option<ProbeInfo> {
        let q = self.inboxes[rank].queue.lock();
        let (hit, _) = scan(&q, src, tag, Instant::now());
        hit.map(|i| ProbeInfo {
            src: q[i].msg.src,
            tag: q[i].msg.tag,
            len: q[i].msg.payload.len(),
        })
    }
}
