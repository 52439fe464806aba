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
//! Liveness and poison semantics are identical to the channel transport;
//! the `comm.send` / `comm.recv` failpoints fire in the shared trait
//! wrappers, so fault grammars from the PR 4 matrix apply unchanged.

use crate::comm::{default_timeout, Comm, Message, ProbeInfo};
use crate::error::CommError;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Network parameters for the simulated transport.
#[derive(Debug, Clone, Copy)]
pub struct SimParams {
    /// One-way message latency.
    pub latency: Duration,
    /// NIC bandwidth in bytes per second (serializes a sender's messages).
    pub bytes_per_sec: f64,
}

impl SimParams {
    /// Parameters from a `bat-iosim` system profile's network section
    /// (bandwidth derated by the fabric oversubscription factor, like the
    /// iosim shuffle model).
    pub fn from_profile(profile: &bat_iosim::SystemProfile) -> SimParams {
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

/// Aggregate traffic accounting for a simulated cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimNetStats {
    /// Messages sent (including self-sends).
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Total virtual NIC busy time across ranks, in microseconds.
    pub nic_busy_us: u64,
}

/// A queued message and the instant it becomes visible to the receiver.
struct InFlight {
    visible_at: Instant,
    msg: Message,
}

#[derive(Default)]
struct SimMailbox {
    queue: Mutex<Vec<InFlight>>,
    cv: Condvar,
}

impl SimMailbox {
    /// Index of the first *visible* queued message matching `(src, tag)`.
    /// Per-sender NIC serialization makes same-source visibility monotonic
    /// in queue order, so taking the first visible match preserves the
    /// per-(source, tag) FIFO guarantee.
    fn find_visible(
        queue: &[InFlight],
        src: Option<usize>,
        tag: u32,
        now: Instant,
    ) -> Option<usize> {
        queue.iter().position(|f| {
            f.visible_at <= now && f.msg.tag == tag && src.is_none_or(|s| s == f.msg.src)
        })
    }

    /// Earliest future visibility among queued matches, if any.
    fn next_visible(
        queue: &[InFlight],
        src: Option<usize>,
        tag: u32,
        now: Instant,
    ) -> Option<Instant> {
        queue
            .iter()
            .filter(|f| {
                f.visible_at > now && f.msg.tag == tag && src.is_none_or(|s| s == f.msg.src)
            })
            .map(|f| f.visible_at)
            .min()
    }
}

struct SimState {
    size: usize,
    params: SimParams,
    mailboxes: Vec<SimMailbox>,
    poisoned: AtomicBool,
    dead: Vec<AtomicBool>,
    ibarrier_gen: Vec<AtomicU64>,
    /// Per-rank virtual NIC: the instant the NIC frees up.
    nic_free: Vec<Mutex<Instant>>,
    messages: AtomicU64,
    bytes: AtomicU64,
    nic_busy_us: AtomicU64,
}

impl SimState {
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        for mb in &self.mailboxes {
            let _guard = mb.queue.lock();
            mb.cv.notify_all();
        }
    }

    fn mark_dead(&self, rank: usize) {
        self.dead[rank].store(true, Ordering::Release);
        for mb in &self.mailboxes {
            let _guard = mb.queue.lock();
            mb.cv.notify_all();
        }
    }
}

/// A rank handle on the simulated transport.
#[derive(Clone)]
pub struct SimComm {
    state: Arc<SimState>,
    rank: usize,
    timeout: Option<Duration>,
}

impl SimComm {
    /// Build an `n`-rank simulated cluster; returns one handle per rank.
    pub fn cluster(n: usize, params: SimParams) -> Vec<SimComm> {
        let now = Instant::now();
        let state = Arc::new(SimState {
            size: n,
            params,
            mailboxes: (0..n).map(|_| SimMailbox::default()).collect(),
            poisoned: AtomicBool::new(false),
            dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
            ibarrier_gen: (0..n).map(|_| AtomicU64::new(0)).collect(),
            nic_free: (0..n).map(|_| Mutex::new(now)).collect(),
            messages: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            nic_busy_us: AtomicU64::new(0),
        });
        (0..n)
            .map(|rank| SimComm {
                state: state.clone(),
                rank,
                timeout: default_timeout(),
            })
            .collect()
    }

    /// Traffic accounting across the whole simulated cluster so far.
    pub fn net_stats(&self) -> SimNetStats {
        SimNetStats {
            messages: self.state.messages.load(Ordering::Relaxed),
            bytes: self.state.bytes.load(Ordering::Relaxed),
            nic_busy_us: self.state.nic_busy_us.load(Ordering::Relaxed),
        }
    }
}

impl Comm for SimComm {
    #[inline]
    fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    fn size(&self) -> usize {
        self.state.size
    }

    #[inline]
    fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    fn with_timeout(&self, timeout: Option<Duration>) -> Box<dyn Comm> {
        Box::new(SimComm {
            state: self.state.clone(),
            rank: self.rank,
            timeout,
        })
    }

    fn clone_comm(&self) -> Box<dyn Comm> {
        Box::new(self.clone())
    }

    fn transport(&self) -> &'static str {
        "sim"
    }

    fn mark_dead(&self) {
        self.state.mark_dead(self.rank);
    }

    fn is_dead(&self, rank: usize) -> bool {
        self.state.dead[rank].load(Ordering::Acquire)
    }

    fn poison(&self) {
        self.state.poison();
    }

    #[inline]
    fn check_alive(&self) {
        if self.state.poisoned.load(Ordering::Acquire) {
            panic!("cluster poisoned: another rank panicked");
        }
    }

    fn send_raw(&self, dst: usize, tag: u32, payload: Bytes) {
        let st = &self.state;
        let now = Instant::now();
        let len = payload.len();
        // Occupy this rank's virtual NIC for the transfer time, then add
        // the propagation latency. Serialization point per sender keeps
        // same-source visibility monotonic (FIFO preserved).
        let visible_at = {
            let mut free = st.nic_free[self.rank].lock();
            let start = if *free > now { *free } else { now };
            let xfer = Duration::from_secs_f64(len as f64 / st.params.bytes_per_sec);
            *free = start + xfer;
            st.nic_busy_us
                .fetch_add(xfer.as_micros() as u64, Ordering::Relaxed);
            *free + st.params.latency
        };
        st.messages.fetch_add(1, Ordering::Relaxed);
        st.bytes.fetch_add(len as u64, Ordering::Relaxed);
        if st.dead[dst].load(Ordering::Acquire) {
            return;
        }
        let mb = &st.mailboxes[dst];
        let mut q = mb.queue.lock();
        q.push(InFlight {
            visible_at,
            msg: Message {
                src: self.rank,
                tag,
                payload,
            },
        });
        mb.cv.notify_all();
    }

    fn recv_deadline_raw(
        &self,
        src: Option<usize>,
        tag: u32,
        deadline: Option<Instant>,
    ) -> Result<Message, CommError> {
        let st = &self.state;
        let started = Instant::now();
        let mb = &st.mailboxes[self.rank];
        let mut q = mb.queue.lock();
        loop {
            if st.poisoned.load(Ordering::Acquire) {
                panic!("cluster poisoned: another rank panicked");
            }
            let now = Instant::now();
            if let Some(i) = SimMailbox::find_visible(&q, src, tag, now) {
                return Ok(q.remove(i).msg);
            }
            let pending = SimMailbox::next_visible(&q, src, tag, now);
            // A matching in-flight message beats a dead source: it was
            // sent before the death and is still deliverable.
            if pending.is_none() {
                if let Some(s) = src {
                    if st.dead[s].load(Ordering::Acquire) {
                        return Err(CommError::PeerDead {
                            rank: self.rank,
                            peer: s,
                            tag,
                        });
                    }
                }
            }
            if let Some(d) = deadline {
                if now >= d {
                    return Err(CommError::Timeout {
                        rank: self.rank,
                        src,
                        tag,
                        waited_ms: started.elapsed().as_millis() as u64,
                    });
                }
            }
            // Wait until the earliest of: a pending match becoming
            // visible, the deadline, or a wakeup for new arrivals.
            let wake_at = match (pending, deadline) {
                (Some(p), Some(d)) => Some(p.min(d)),
                (Some(p), None) => Some(p),
                (None, d) => d,
            };
            match wake_at {
                None => mb.cv.wait(&mut q),
                Some(t) => {
                    let now = Instant::now();
                    if t > now {
                        let _ = mb.cv.wait_for(&mut q, t - now);
                    }
                    // t <= now: loop re-scans immediately (the pending
                    // message just became visible).
                }
            }
        }
    }

    fn try_recv_raw(&self, src: Option<usize>, tag: u32) -> Option<Message> {
        let mb = &self.state.mailboxes[self.rank];
        let mut q = mb.queue.lock();
        SimMailbox::find_visible(&q, src, tag, Instant::now()).map(|i| q.remove(i).msg)
    }

    fn iprobe_raw(&self, src: Option<usize>, tag: u32) -> Option<ProbeInfo> {
        let mb = &self.state.mailboxes[self.rank];
        let q = mb.queue.lock();
        SimMailbox::find_visible(&q, src, tag, Instant::now()).map(|i| ProbeInfo {
            src: q[i].msg.src,
            tag: q[i].msg.tag,
            len: q[i].msg.payload.len(),
        })
    }

    fn next_ibarrier_generation(&self) -> u64 {
        self.state.ibarrier_gen[self.rank].fetch_add(1, Ordering::Relaxed)
    }
}
