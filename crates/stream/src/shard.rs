//! The shard fabric: one thin router process fanning queries out to N
//! shard processes over a `bat-comm` cluster (DESIGN.md §14, §16).
//!
//! Each shard owns a contiguous slice of the aggregation tree's leaf
//! files ([`owned_leaves`]) and plans/executes queries against only its
//! slice ([`bat_serve::QueryPlan::for_leaves`]). The router computes the
//! *global* plan order (metadata only — no treelet pages), tells each
//! owning shard which of its leaves to run and in what order, then merges
//! the per-leaf result streams back into exactly the single-process
//! answer:
//!
//! ```text
//! router → shard   Ctrl::Query { req_tag, budget, query, leaves }   (tag TAG_CTRL)
//! shard  → router  Chunk { ≤ CHUNK_POINTS points }                  (tag req_tag, repeated)
//! shard  → router  LeafDone { leaf }                                (after each leaf)
//! shard  → router  Done { points } | Failed { code, message }       (end of request)
//! ```
//!
//! A shard's `Chunk` frame *is* the client protocol's chunk frame payload
//! ([`Chunk::encode_frame`]), encoded once by the worker thread that
//! filled it. The router never decodes points: it checks the frame's
//! header and length ([`check_chunk_frame`]), keeps the bytes per leaf,
//! and the session writes them to the client's socket as they are.
//! [`ShardRouter::query`] decodes at the edge for callers that want
//! [`Chunk`]s.
//!
//! Correctness of the merge rests on two invariants: per-file planning is
//! independent of which other files exist (so a shard's restricted plan
//! equals the global plan's slice), and `bat-comm` guarantees per-(source,
//! tag) FIFO delivery (so one shard's frames arrive in emission order).
//! The router consumes frames leaf-by-leaf in global plan order; frames
//! from not-yet-merged shards simply wait in the mailbox.
//!
//! # Self-healing (DESIGN.md §16)
//!
//! With `BAT_SHARD_REPLICAS ≥ 2` every leaf slice has a replica chain
//! ([`replica_owners`]) and the router becomes a routing *policy* layer on
//! top of the same wire protocol:
//!
//! * **Failover** — a failed or silent sub-query is re-dispatched from the
//!   current merge position to the next untried replica, with bounded
//!   backoff, instead of surfacing `ERR_SHARD`.
//! * **Hedged reads** — when the current leaf has been pending longer than
//!   a latency budget (fixed `BAT_SHARD_HEDGE_MS`, or 3× the streaming
//!   per-leaf p99 once warmed), the remaining slice is speculatively
//!   issued to a replica and the merge takes whichever stream completes
//!   each leaf first. Chunk boundaries are deterministic per leaf, so the
//!   winning stream is byte-identical either way.
//! * **Circuit breaker** — per-shard closed/open/half-open state steers
//!   initial placement and hedges away from recently failing shards; a
//!   half-open shard admits one probe.
//! * **Degraded mode** — when a slice's chain is exhausted and the query
//!   opted in (`Query::allow_partial`), its remaining leaves are skipped
//!   and the outcome reports `served_leaves < total_leaves`; partial data
//!   is never folded into a complete result.
//!
//! Because replica routing is purely router-side (workers always open the
//! full dataset and plan whatever slice they are handed), `replicas = 1`
//! reduces exactly to the original fabric: one stream per slice, strict
//! per-shard `Done` accounting, and typed errors on any failure.
//!
//! Failure semantics: every router receive is deadline-bounded, so a shard
//! killed mid-query surfaces as a typed [`ShardQueryError`] within the
//! wait budget — never a hang, and never partial bytes presented as a
//! complete result (the client sees `Error` or `Partial`, not `Done`).
//!
//! Clients reach the fabric through [`ShardFront`], which is the stream
//! front-end of [`crate::server`] with the router as its executor: the
//! accept loop, sessions, `Busy` backpressure, deadline clock, failpoints
//! and `stream.*` counters are the single-process server's own. Shard
//! workers build their chunks and map their errors with that module's
//! accumulator and `ERR_*` table too.

use crate::protocol::{
    check_chunk_frame, decode_chunk, Chunk, ServerMsg, ERR_INTERNAL, ERR_SHARD, MSG_CHUNK,
};
use crate::server::{error_code, spawn_front, ChunkBuilder, Executor, ServerHandle};
use bat_comm::{Comm, CommError, MAX_USER_TAG};
use bat_layout::Query;
use bat_obs::knobs;
pub use bat_serve::{owned_leaves, replica_owners, shard_of};
use bat_serve::{QueryPlan, ServeError};
use bat_wire::{Decoder, Encoder, WireError, WireResult};
use bytes::Bytes;
use libbat::Dataset;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The router's rank in the shard cluster; shards are ranks `1..=N`.
pub const ROUTER_RANK: usize = 0;

/// Control tag (router → shard).
const TAG_CTRL: u32 = 1;
/// Heartbeat tag (supervisor ping ↔ worker pong); separate from control
/// so liveness probes never queue behind fanned-out queries.
pub(crate) const TAG_HEARTBEAT: u32 = 2;
/// Cancellation tag (router → shard): a retired request tag whose frames
/// the worker should stop producing.
const TAG_CANCEL: u32 = 3;
/// First per-query streaming tag; each dispatched stream allocates a tag
/// round-robin above this so concurrent fan-outs (and a slice's replica
/// streams) never share a (source, tag) stream.
const FIRST_REQ_TAG: u32 = 64;

/// Grace on top of the query's own deadline, so a shard's typed
/// `DeadlineExpired` beats the router's transport timeout.
const DEADLINE_GRACE: Duration = Duration::from_secs(2);

/// Base backoff before a failed sub-query is retried on a replica;
/// doubled per retry.
const RETRY_BACKOFF: Duration = Duration::from_millis(10);
/// Consecutive failures that open a shard's circuit breaker.
const BREAKER_FAILS: u32 = 3;
/// How long an open breaker rejects before admitting a half-open probe.
const BREAKER_COOLDOWN: Duration = Duration::from_secs(1);

// ---------------------------------------------------------------------------
// Routing policy (read once per router, so tests can scope env changes)
// ---------------------------------------------------------------------------

/// When the router issues a speculative replica stream for a slow leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hedge {
    /// Never hedge.
    Off,
    /// Budget = 3× the streaming per-leaf p99, clamped to
    /// `[25 ms, BAT_SHARD_WAIT_MS]`, once ≥ 16 leaves have been observed.
    Auto,
    /// Fixed budget.
    Fixed(Duration),
}

impl Hedge {
    /// `BAT_SHARD_HEDGE_MS`: unset or `auto` → [`Hedge::Auto`]; `0` or
    /// `off` → [`Hedge::Off`]; a number → fixed budget in ms.
    fn from_knob(v: Option<&str>) -> Hedge {
        match v {
            None | Some("auto") => Hedge::Auto,
            Some("0" | "off") => Hedge::Off,
            Some(ms) => ms
                .parse()
                .map_or(Hedge::Auto, |ms| Hedge::Fixed(Duration::from_millis(ms))),
        }
    }
}

/// The self-healing knobs, snapshotted at [`ShardRouter::new`].
#[derive(Debug, Clone, Copy)]
struct RouterPolicy {
    /// Owners per leaf slice (`BAT_SHARD_REPLICAS`, default 1 = the
    /// original primary-only fabric).
    replicas: usize,
    hedge: Hedge,
    /// How long the router waits on a silent shard when the query has no
    /// deadline of its own (`BAT_SHARD_WAIT_MS`, default 30 s).
    wait: Duration,
}

impl RouterPolicy {
    fn from_env() -> RouterPolicy {
        RouterPolicy {
            replicas: knobs::SHARD_REPLICAS.uint().unwrap_or(1) as usize,
            hedge: Hedge::from_knob(knobs::SHARD_HEDGE_MS.get().as_deref()),
            wait: Duration::from_millis(knobs::SHARD_WAIT_MS.uint().unwrap_or(30_000)),
        }
    }
}

// ---------------------------------------------------------------------------
// Per-shard circuit breaker
// ---------------------------------------------------------------------------

#[derive(Default)]
struct BreakerInner {
    consecutive: u32,
    opened_at: Option<Instant>,
    /// A half-open probe is in flight; further admits are rejected until
    /// it reports.
    probing: bool,
}

/// Closed / open / half-open breaker over one shard's recent failures.
#[derive(Default)]
struct Breaker {
    inner: Mutex<BreakerInner>,
}

impl Breaker {
    /// May a new sub-query be routed to this shard? An open breaker past
    /// its cooldown admits exactly one half-open probe.
    fn admit(&self, cooldown: Duration) -> bool {
        let mut g = self.inner.lock().unwrap();
        match g.opened_at {
            None => true,
            Some(t) if t.elapsed() >= cooldown => {
                if g.probing {
                    false
                } else {
                    g.probing = true;
                    true
                }
            }
            Some(_) => false,
        }
    }

    fn success(&self) {
        let mut g = self.inner.lock().unwrap();
        *g = BreakerInner::default();
    }

    /// Record a failure; returns true when this failure newly opened the
    /// breaker.
    fn failure(&self, threshold: u32) -> bool {
        let mut g = self.inner.lock().unwrap();
        g.consecutive += 1;
        g.probing = false;
        let newly = g.opened_at.is_none() && g.consecutive >= threshold;
        if g.consecutive >= threshold {
            // Re-arm the cooldown on every failure at/over the threshold.
            g.opened_at = Some(Instant::now());
        }
        newly
    }

    /// 0 = closed, 1 = open, 2 = half-open (probe in flight).
    fn gauge(&self) -> f64 {
        let g = self.inner.lock().unwrap();
        match (g.opened_at, g.probing) {
            (None, _) => 0.0,
            (Some(_), true) => 2.0,
            (Some(_), false) => 1.0,
        }
    }
}

// ---------------------------------------------------------------------------
// Wire messages (bat-wire encoded payloads inside bat-comm messages)
// ---------------------------------------------------------------------------

const CTRL_QUERY: u8 = 1;
const CTRL_SHUTDOWN: u8 = 2;

/// Router → shard control message.
enum Ctrl {
    Query {
        /// Tag the shard streams this request's frames on.
        req_tag: u32,
        /// Remaining deadline budget in ms (0 = unbounded).
        budget_ms: u64,
        query: Query,
        /// The shard's leaves to execute, in global plan order.
        leaves: Vec<u32>,
    },
    Shutdown,
}

impl Ctrl {
    fn encode(&self) -> Bytes {
        let mut enc = Encoder::new();
        match self {
            Ctrl::Query {
                req_tag,
                budget_ms,
                query,
                leaves,
            } => {
                enc.put_u8(CTRL_QUERY);
                enc.put_u32(*req_tag);
                enc.put_u64(*budget_ms);
                query.encode(&mut enc);
                enc.put_u64(leaves.len() as u64);
                for &l in leaves {
                    enc.put_u32(l);
                }
            }
            Ctrl::Shutdown => enc.put_u8(CTRL_SHUTDOWN),
        }
        Bytes::from(enc.finish())
    }

    fn decode(payload: &[u8]) -> WireResult<Ctrl> {
        let mut dec = Decoder::new(payload);
        match dec.get_u8("ctrl tag")? {
            CTRL_QUERY => {
                let req_tag = dec.get_u32("ctrl req tag")?;
                let budget_ms = dec.get_u64("ctrl budget")?;
                let query = Query::decode(&mut dec)?;
                let n = dec.get_usize("ctrl leaf count")?;
                if n > (1 << 24) {
                    return Err(WireError::BadLength {
                        what: "ctrl leaf count",
                        len: n as u64,
                        remaining: dec.remaining(),
                    });
                }
                let mut leaves = Vec::with_capacity(n);
                for _ in 0..n {
                    leaves.push(dec.get_u32("ctrl leaf")?);
                }
                Ok(Ctrl::Query {
                    req_tag,
                    budget_ms,
                    query,
                    leaves,
                })
            }
            CTRL_SHUTDOWN => Ok(Ctrl::Shutdown),
            tag => Err(WireError::BadTag {
                what: "ctrl tag",
                tag: tag as u64,
            }),
        }
    }
}

/// Heartbeat kinds on [`TAG_HEARTBEAT`].
pub(crate) const HB_PING: u8 = 1;
pub(crate) const HB_PONG: u8 = 2;

pub(crate) fn encode_heartbeat(kind: u8, seq: u64) -> Bytes {
    let mut enc = Encoder::new();
    enc.put_u8(kind);
    enc.put_u64(seq);
    Bytes::from(enc.finish())
}

pub(crate) fn decode_heartbeat(payload: &[u8]) -> Option<(u8, u64)> {
    let mut dec = Decoder::new(payload);
    let kind = dec.get_u8("heartbeat kind").ok()?;
    let seq = dec.get_u64("heartbeat seq").ok()?;
    Some((kind, seq))
}

fn encode_cancel(req_tag: u32) -> Bytes {
    let mut enc = Encoder::new();
    enc.put_u32(req_tag);
    Bytes::from(enc.finish())
}

fn decode_cancel(payload: &[u8]) -> Option<u32> {
    Decoder::new(payload).get_u32("cancel req tag").ok()
}

/// A chunk frame is the client's frame payload, so it carries that
/// protocol's tag; the other three exist only between shard and router.
const SHARD_CHUNK: u8 = MSG_CHUNK;
const SHARD_LEAF_DONE: u8 = 2;
const SHARD_DONE: u8 = 1;
const SHARD_FAILED: u8 = 4;

/// Shard → router frame on a request's streaming tag. A `Chunk` is a
/// client-ready chunk frame payload with the point count its (checked)
/// header declares.
enum ShardMsg {
    Chunk { frame: Bytes, points: usize },
    LeafDone { leaf: u32 },
    Done { points: u64 },
    Failed { code: u32, message: String },
}

impl ShardMsg {
    fn encode(&self) -> Bytes {
        let mut enc = Encoder::new();
        match self {
            ShardMsg::Chunk { frame, .. } => return frame.clone(),
            ShardMsg::LeafDone { leaf } => {
                enc.put_u8(SHARD_LEAF_DONE);
                enc.put_u32(*leaf);
            }
            ShardMsg::Done { points } => {
                enc.put_u8(SHARD_DONE);
                enc.put_u64(*points);
            }
            ShardMsg::Failed { code, message } => {
                enc.put_u8(SHARD_FAILED);
                enc.put_u32(*code);
                enc.put_str(message);
            }
        }
        Bytes::from(enc.finish())
    }

    /// Parse a frame from a shard serving a schema of `num_attrs`
    /// attributes. A chunk frame is validated, not decoded.
    fn decode(payload: &Bytes, num_attrs: usize) -> WireResult<ShardMsg> {
        let mut dec = Decoder::new(payload);
        match dec.get_u8("shard msg tag")? {
            SHARD_CHUNK => Ok(ShardMsg::Chunk {
                points: check_chunk_frame(payload, num_attrs)?,
                frame: payload.clone(),
            }),
            SHARD_LEAF_DONE => Ok(ShardMsg::LeafDone {
                leaf: dec.get_u32("shard leaf")?,
            }),
            SHARD_DONE => Ok(ShardMsg::Done {
                points: dec.get_u64("shard points")?,
            }),
            SHARD_FAILED => Ok(ShardMsg::Failed {
                code: dec.get_u32("shard err code")?,
                message: dec.get_str("shard err message")?,
            }),
            tag => Err(WireError::BadTag {
                what: "shard msg tag",
                tag: tag as u64,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Shard worker
// ---------------------------------------------------------------------------

/// Request tags the router has retired; the worker stops producing for
/// them at leaf boundaries. Bounded so a long-lived worker can't grow it
/// without limit.
struct CancelSet {
    tags: VecDeque<u32>,
}

impl CancelSet {
    fn new() -> CancelSet {
        CancelSet {
            tags: VecDeque::new(),
        }
    }

    fn insert(&mut self, tag: u32) {
        if !self.tags.contains(&tag) {
            self.tags.push_back(tag);
            if self.tags.len() > 256 {
                self.tags.pop_front();
            }
        }
    }

    fn contains(&self, tag: u32) -> bool {
        self.tags.contains(&tag)
    }

    fn remove(&mut self, tag: u32) -> bool {
        if let Some(i) = self.tags.iter().position(|&t| t == tag) {
            self.tags.remove(i);
            true
        } else {
            false
        }
    }
}

/// Drain liveness pings (answering each with a pong) and cancellation
/// notices. Called from the worker's idle loop and at leaf boundaries, so
/// a worker busy streaming a long request still heartbeats.
///
/// The `shard.heartbeat` failpoint fires per ping: `delay:MS` makes the
/// pong late (a laggy-but-live worker), `error` drops it (a worker that
/// will be declared missing), `kill` marks the rank dead.
fn drain_control(comm: &dyn Comm, cancelled: &mut CancelSet) {
    while let Some(m) = comm.try_recv_raw(Some(ROUTER_RANK), TAG_HEARTBEAT) {
        if let Some((HB_PING, seq)) = decode_heartbeat(&m.payload) {
            match bat_faults::fire("shard.heartbeat") {
                Some(bat_faults::Fault::Kill) => comm.mark_dead(),
                Some(_) => {} // drop the pong: a silent worker
                None => comm.isend(ROUTER_RANK, TAG_HEARTBEAT, encode_heartbeat(HB_PONG, seq)),
            }
        }
    }
    while let Some(m) = comm.try_recv_raw(Some(ROUTER_RANK), TAG_CANCEL) {
        if let Some(tag) = decode_cancel(&m.payload) {
            cancelled.insert(tag);
        }
    }
}

/// Run a shard worker until the router shuts the cluster down (or dies).
/// `comm.rank()` must be in `1..=num_shards`; the worker serves queries
/// over whichever slice of `ds`'s leaves each request assigns, streaming
/// results back to [`ROUTER_RANK`], answering heartbeats, and honoring
/// cancellations at leaf boundaries.
pub fn run_shard(comm: &dyn Comm, ds: &Dataset) -> std::io::Result<()> {
    assert!(comm.rank() != ROUTER_RANK, "the router is not a shard");
    let mut cancelled = CancelSet::new();
    loop {
        // A rank that abandoned the protocol (fault kill) can no longer
        // be sent a shutdown: stop serving on its behalf.
        if comm.is_dead(comm.rank()) {
            return Ok(());
        }
        drain_control(comm, &mut cancelled);
        // Poll with a bounded receive so a dead router ends the worker
        // instead of parking it forever; short enough that heartbeats get
        // answered well inside a supervision interval.
        let msg = match comm.recv_timeout(Some(ROUTER_RANK), TAG_CTRL, Duration::from_millis(250)) {
            Ok(m) => m,
            Err(CommError::Timeout { .. }) => continue,
            Err(CommError::PeerDead { .. }) => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        match Ctrl::decode(&msg.payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
        {
            Ctrl::Shutdown => return Ok(()),
            Ctrl::Query {
                req_tag,
                budget_ms,
                query,
                leaves,
            } => {
                // A cancel can outrun its query when the router retires a
                // hedge it never needed; skip without producing frames.
                if cancelled.remove(req_tag) {
                    continue;
                }
                serve_one(
                    comm,
                    ds,
                    req_tag,
                    budget_ms,
                    &query,
                    &leaves,
                    &mut cancelled,
                );
                bat_obs::counter_add("shard.requests", 1);
            }
        }
    }
}

/// Execute one fanned-out request on a shard: plan the assigned slice, run
/// each leaf in the router's order, stream bounded chunks.
#[allow(clippy::too_many_arguments)]
fn serve_one(
    comm: &dyn Comm,
    ds: &Dataset,
    req_tag: u32,
    budget_ms: u64,
    query: &Query,
    leaves: &[u32],
    cancelled: &mut CancelSet,
) {
    let deadline = (budget_ms > 0).then(|| Instant::now() + Duration::from_millis(budget_ms));
    let fail = |e: &ServeError| {
        comm.isend(
            ROUTER_RANK,
            req_tag,
            ShardMsg::Failed {
                code: error_code(e),
                message: e.to_string(),
            }
            .encode(),
        );
    };
    let mut sorted = leaves.to_vec();
    sorted.sort_unstable();
    let plan = match QueryPlan::for_leaves(ds, query, &sorted) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let mut points = 0u64;
    let mut chunks = ChunkBuilder::new(ds.descs().len());
    // The frame goes out as encoded: these bytes reach the client.
    let mut send = |frame: Vec<u8>, n: usize| {
        points += n as u64;
        comm.isend(ROUTER_RANK, req_tag, Bytes::from(frame));
    };
    for &leaf in leaves {
        // Leaf boundaries are the cancellation / liveness granularity: a
        // worker whose stream the router retired stops producing here
        // (silently — the router is already draining the tag), and a
        // worker mid-request still answers pings.
        drain_control(comm, cancelled);
        if cancelled.contains(req_tag) {
            return;
        }
        // The `shard.exec` failpoint: `delay:MS` makes this a slow shard
        // (the fault matrix's slow-peer case); `kill` abandons the
        // request mid-stream like a crash, with the rank marked dead so
        // the router fails fast instead of waiting out its deadline.
        if let Some(bat_faults::Fault::Kill) = bat_faults::fire("shard.exec") {
            comm.mark_dead();
            return;
        }
        if let Err(e) = plan.execute_leaf(leaf, deadline, |p| chunks.push(&p, &mut send)) {
            return fail(&e);
        }
        // Flush the partial chunk at the leaf boundary: the router needs
        // every point of a leaf before the LeafDone marker so the merged
        // stream is leaf-contiguous in global plan order.
        chunks.flush(&mut send);
        comm.isend(ROUTER_RANK, req_tag, ShardMsg::LeafDone { leaf }.encode());
    }
    comm.isend(ROUTER_RANK, req_tag, ShardMsg::Done { points }.encode());
    bat_obs::counter_add("shard.points_sent", points);
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

/// Why a fanned-out query failed.
#[derive(Debug)]
pub enum ShardQueryError {
    /// Planning the global order failed locally (bad query, I/O).
    Plan(ServeError),
    /// A shard reported a typed execution failure (`ERR_*` codes).
    Shard {
        /// The failing shard (0-based).
        shard: usize,
        /// The `ERR_*` code it reported.
        code: u32,
        /// Its message.
        message: String,
    },
    /// A shard went silent or died mid-query; the wait was bounded. With
    /// replicas this is only surfaced once the whole replica chain is
    /// exhausted (and the query did not opt into partial results).
    Comm {
        /// The shard the router was waiting on (0-based).
        shard: usize,
        /// The transport-level error.
        error: CommError,
    },
}

impl std::fmt::Display for ShardQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardQueryError::Plan(e) => write!(f, "shard fan-out planning: {e}"),
            ShardQueryError::Shard {
                shard,
                code,
                message,
            } => {
                write!(f, "shard {shard} failed (code {code}): {message}")
            }
            ShardQueryError::Comm { shard, error } => {
                write!(f, "shard {shard} unreachable: {error}")
            }
        }
    }
}

impl std::error::Error for ShardQueryError {}

impl From<ServeError> for ShardQueryError {
    fn from(e: ServeError) -> ShardQueryError {
        ShardQueryError::Plan(e)
    }
}

/// What a successful fan-out produced. `served_leaves < total_leaves`
/// only happens when the query opted in via [`Query::allow_partial`]; a
/// partial outcome is always announced, never folded into a complete one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Points handed to the sink.
    pub points: u64,
    /// Planned leaves actually merged.
    pub served_leaves: u64,
    /// Leaves the global plan wanted.
    pub total_leaves: u64,
}

impl QueryOutcome {
    /// True when degraded serving skipped part of the plan.
    pub fn is_partial(&self) -> bool {
        self.served_leaves < self.total_leaves
    }
}

/// A tag the router abandoned (hedge loser, failed-over stream): its
/// late frames are drained on subsequent queries until it expires.
struct Retired {
    shard: usize,
    tag: u32,
    expires: Instant,
}

/// One contiguous leaf slice's fan-out state: its replica chain, merge
/// position, and the stream(s) currently racing to serve it.
struct SubQuery {
    /// Primary owner (for error attribution).
    primary: usize,
    /// Replica chain, primary first.
    chain: Vec<usize>,
    /// This slice's leaves in global plan order.
    leaves: Vec<u32>,
    /// Next index into `leaves` to merge.
    next: usize,
    /// Active streams (one normally; two while a hedge races).
    streams: Vec<StreamCur>,
    /// Shards already dispatched to (never re-tried).
    dispatched: Vec<usize>,
    /// Failover re-dispatches so far (drives backoff).
    attempts: u32,
    /// Anything non-clean happened (failover, hedge, skip): per-shard
    /// `Done` accounting is no longer meaningful for this slice.
    dirty: bool,
    /// Degraded: merge position where the chain was exhausted and the
    /// remaining leaves abandoned (requires `Query::allow_partial`).
    skipped_at: Option<usize>,
    /// Most recent stream failure, surfaced if the chain is exhausted.
    last_err: Option<ShardQueryError>,
}

impl SubQuery {
    /// A slice served by `chain` (primary first) with nothing dispatched.
    fn new(chain: Vec<usize>, leaves: Vec<u32>) -> SubQuery {
        SubQuery {
            primary: chain[0],
            chain,
            leaves,
            next: 0,
            streams: Vec::new(),
            dispatched: Vec::new(),
            attempts: 0,
            dirty: false,
            skipped_at: None,
            last_err: None,
        }
    }
}

/// One leaf's chunk frames — still encoded — with their point counts.
type LeafFrames = Vec<(Bytes, usize)>;

/// One dispatched stream: frames are sorted into completed per-leaf chunk
/// groups so the merge can take whole leaves from whichever replica
/// finishes first (chunk boundaries are deterministic per leaf, so the
/// merged bytes don't depend on the winner).
struct StreamCur {
    shard: usize,
    tag: u32,
    /// The shard's [`Comm::incarnation`] when the request was sent.
    incarnation: u64,
    /// This is the later, speculative dispatch of a hedge pair.
    hedge: bool,
    /// Leaf index (into the slice) of the front of `groups`.
    base: usize,
    /// Completed leaves awaiting merge, in order from `base`.
    groups: VecDeque<LeafFrames>,
    /// Chunks of the leaf currently being received.
    cur: LeafFrames,
    /// Terminal `Done { points }` received.
    done: bool,
    done_points: u64,
    failed: Option<ShardQueryError>,
}

impl StreamCur {
    /// Leaf index the next incoming frame belongs to.
    fn recv_pos(&self) -> usize {
        self.base + self.groups.len()
    }

    /// Still expecting frames from the wire.
    fn receivable(&self) -> bool {
        !self.done && self.failed.is_none()
    }
}

/// The router: plans globally, fans out to owning shards (and their
/// replicas), merges streams. Shareable across session threads (receives
/// use per-stream tags, so concurrent fan-outs never steal each other's
/// frames).
pub struct ShardRouter {
    comm: Box<dyn Comm>,
    ds: Arc<Dataset>,
    next_tag: AtomicU32,
    policy: RouterPolicy,
    breakers: Vec<Breaker>,
    /// Streaming per-leaf merge latency (µs) — the hedge trigger's p99
    /// source. Router-owned (not the obs registry) so hedging works with
    /// observability disabled.
    leaf_latency: bat_obs::AtomicHistogram,
    retired: Mutex<Vec<Retired>>,
}

impl ShardRouter {
    /// Wrap the router rank's communicator (`comm.rank()` must be
    /// [`ROUTER_RANK`]; shards are the other `comm.size() - 1` ranks).
    /// Routing knobs (`BAT_SHARD_REPLICAS`, `BAT_SHARD_HEDGE_MS`,
    /// `BAT_SHARD_WAIT_MS`) are snapshotted here.
    pub fn new(comm: Box<dyn Comm>, ds: Arc<Dataset>) -> ShardRouter {
        assert_eq!(comm.rank(), ROUTER_RANK, "the router must be rank 0");
        assert!(comm.size() >= 2, "a shard cluster needs at least one shard");
        let shards = comm.size() - 1;
        ShardRouter {
            comm,
            ds,
            next_tag: AtomicU32::new(0),
            policy: RouterPolicy::from_env(),
            breakers: (0..shards).map(|_| Breaker::default()).collect(),
            leaf_latency: bat_obs::AtomicHistogram::default(),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Number of shard processes behind this router.
    pub fn num_shards(&self) -> usize {
        self.comm.size() - 1
    }

    /// Whether shard `shard` (0-based) is currently reachable — false
    /// after the transport observed its death, true again once a
    /// supervised respawn rejoins the mesh.
    pub fn shard_alive(&self, shard: usize) -> bool {
        !self.comm.is_dead(1 + shard)
    }

    /// Tell every shard to exit its serve loop, then tear down the
    /// router's own transport (idempotent; frames already written are
    /// flushed before connections close).
    pub fn shutdown(&self) {
        for shard in 0..self.num_shards() {
            self.comm
                .isend(1 + shard, TAG_CTRL, Ctrl::Shutdown.encode());
        }
        self.comm.shutdown();
    }

    fn fresh_tag(&self) -> u32 {
        let seq = self.next_tag.fetch_add(1, Ordering::Relaxed);
        FIRST_REQ_TAG + seq % (MAX_USER_TAG - FIRST_REQ_TAG)
    }

    fn admit(&self, shard: usize) -> bool {
        let ok = self.breakers[shard].admit(BREAKER_COOLDOWN);
        bat_obs::gauge_set(
            &format!("shard.breaker.state.{shard}"),
            self.breakers[shard].gauge(),
        );
        ok
    }

    fn breaker_failure(&self, shard: usize) {
        if self.breakers[shard].failure(BREAKER_FAILS) {
            bat_obs::counter_add("shard.breaker.opened", 1);
        }
        bat_obs::gauge_set(
            &format!("shard.breaker.state.{shard}"),
            self.breakers[shard].gauge(),
        );
    }

    fn breaker_success(&self, shard: usize) {
        self.breakers[shard].success();
        bat_obs::gauge_set(&format!("shard.breaker.state.{shard}"), 0.0);
    }

    /// Tell `shard` to stop producing `tag` and remember to drain its
    /// late frames.
    fn cancel_and_retire(&self, shard: usize, tag: u32) {
        self.comm.isend(1 + shard, TAG_CANCEL, encode_cancel(tag));
        self.retired.lock().unwrap().push(Retired {
            shard,
            tag,
            expires: Instant::now() + Duration::from_secs(60),
        });
    }

    /// Drop queued frames of retired tags (mailbox hygiene between
    /// queries); entries whose terminal frame arrived — or that expired —
    /// are forgotten.
    fn scrub_retired(&self) {
        let mut retired = self.retired.lock().unwrap();
        retired.retain_mut(|r| {
            let mut terminal = false;
            while let Some(m) = self.comm.try_recv_raw(Some(1 + r.shard), r.tag) {
                if let Ok(ShardMsg::Done { .. } | ShardMsg::Failed { .. }) =
                    ShardMsg::decode(&m.payload, self.ds.descs().len())
                {
                    terminal = true;
                }
            }
            !terminal && r.expires > Instant::now()
        });
    }

    /// `ShardRouter::relay` with every chunk decoded for `sink`: the
    /// decode-at-the-edge adapter for callers that want points, not
    /// frames.
    pub fn query(
        &self,
        q: &Query,
        deadline: Option<Duration>,
        mut sink: impl FnMut(Chunk),
    ) -> Result<QueryOutcome, ShardQueryError> {
        self.relay(q, deadline, &mut |frame, _| {
            let chunk = decode_chunk(&mut Decoder::new(&frame[1..]));
            sink(chunk.expect("the relay checked this frame's header and length"));
        })
    }

    /// Fan `q` out to the owning shards (and, on failure or latency,
    /// their replicas) and merge the result streams in global plan order,
    /// handing each merged chunk to `sink` as the shard encoded it (a
    /// client frame payload) with its point count. Every receive is
    /// bounded by the remaining `deadline` (plus a relay grace period) or
    /// `BAT_SHARD_WAIT_MS`, so a killed or wedged fabric yields a typed
    /// error — never a hang — and chunks already sunk are explicitly
    /// partial (`Err`, or an `Ok` outcome that says so).
    pub(crate) fn relay(
        &self,
        q: &Query,
        deadline: Option<Duration>,
        sink: &mut dyn FnMut(&[u8], usize),
    ) -> Result<QueryOutcome, ShardQueryError> {
        self.scrub_retired();
        let num_leaves = self.ds.meta().leaves.len();
        let num_shards = self.num_shards();
        let expires = deadline.map(|d| Instant::now() + d);

        // Global plan: metadata + file heads only; execution happens on
        // the shards. Its file order is the merge order.
        let plan = QueryPlan::new(&self.ds, q)?;
        let order: Vec<u32> = plan.file_order().collect();
        let mut assigned: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
        for &leaf in &order {
            assigned[shard_of(leaf, num_leaves, num_shards)].push(leaf);
        }

        let run = RouterRun {
            router: self,
            q,
            expires,
            last_progress: Cell::new(Instant::now()),
        };

        // One sub-query per participating primary; `sub_of[s]` maps a
        // primary shard back to its slot.
        let mut subs: Vec<SubQuery> = Vec::new();
        let mut sub_of: Vec<Option<usize>> = vec![None; num_shards];
        for (s, leaves) in assigned.iter_mut().enumerate() {
            if leaves.is_empty() {
                continue;
            }
            let chain = replica_owners(s, num_shards, self.policy.replicas);
            let mut sub = SubQuery::new(chain, std::mem::take(leaves));
            let owner = run.initial_owner(&sub);
            let stream = run.dispatch(&mut sub, owner, false);
            sub.streams.push(stream);
            sub_of[s] = Some(subs.len());
            subs.push(sub);
        }

        // Merge leaf-by-leaf in global order. Per-(source, tag) FIFO means
        // each stream's frames arrive in emission order; frames from
        // slices later in the merge wait in the mailbox (or in their
        // stream's completed-leaf groups).
        let mut points = 0u64;
        let mut served = 0u64;
        for &leaf in &order {
            let si = sub_of[shard_of(leaf, num_leaves, num_shards)].expect("assigned leaf");
            if let Some(frames) = run.merge_leaf(&mut subs[si])? {
                for (frame, n) in frames {
                    points += n as u64;
                    sink(&frame, n);
                }
                served += 1;
            }
        }

        run.finalize(&mut subs, points)?;

        let skipped = order.len() as u64 - served;
        if skipped > 0 {
            bat_obs::counter_add("shard.partial.queries", 1);
            bat_obs::counter_add("shard.partial.leaves_skipped", skipped);
        }
        bat_obs::counter_add("router.requests", 1);
        bat_obs::counter_add("router.points_merged", points);
        self.scrub_retired();
        Ok(QueryOutcome {
            points,
            served_leaves: served,
            total_leaves: order.len() as u64,
        })
    }
}

/// One query's routing pass: the merge engine with failover, hedging, and
/// breaker bookkeeping. Stack-local to [`ShardRouter::query`].
struct RouterRun<'a> {
    router: &'a ShardRouter,
    q: &'a Query,
    expires: Option<Instant>,
    /// Last time any frame arrived; the silence bound for unbounded
    /// queries is measured from here.
    last_progress: Cell<Instant>,
}

impl RouterRun<'_> {
    /// How much longer the router may wait without any frame arriving
    /// before declaring the active streams silent.
    fn remaining_silence(&self) -> Duration {
        match self.expires {
            // Grace on top of the shard's own budget, so the shard's
            // typed DeadlineExpired beats the router's Timeout.
            Some(e) => (e + DEADLINE_GRACE).saturating_duration_since(Instant::now()),
            None => {
                let wait = self.router.policy.wait;
                wait.saturating_sub(self.last_progress.get().elapsed())
            }
        }
    }

    /// First choice of owner for a slice: the failover choice with nothing
    /// tried yet; failing that the primary (whose fast PeerDead keeps the
    /// error typed and bounded). A single-owner chain always dispatches to
    /// its primary — exactly the `replicas = 1` fabric.
    fn initial_owner(&self, sub: &SubQuery) -> usize {
        if sub.chain.len() == 1 {
            return sub.chain[0];
        }
        self.failover_candidate(sub).unwrap_or(sub.chain[0])
    }

    /// Send the slice's remaining leaves to `shard` on a fresh tag.
    fn dispatch(&self, sub: &mut SubQuery, shard: usize, hedge: bool) -> StreamCur {
        let tag = self.router.fresh_tag();
        let budget_ms = self.expires.map_or(0, |e| {
            (e.saturating_duration_since(Instant::now()).as_millis() as u64).max(1)
        });
        self.router.comm.isend(
            1 + shard,
            TAG_CTRL,
            Ctrl::Query {
                req_tag: tag,
                budget_ms,
                query: self.q.clone(),
                leaves: sub.leaves[sub.next..].to_vec(),
            }
            .encode(),
        );
        sub.dispatched.push(shard);
        StreamCur {
            shard,
            tag,
            incarnation: self.router.comm.incarnation(1 + shard),
            hedge,
            base: sub.next,
            groups: VecDeque::new(),
            cur: Vec::new(),
            done: false,
            done_points: 0,
            failed: None,
        }
    }

    /// Sort one frame into stream `i`'s state. Protocol violations — a
    /// malformed chunk frame included — are recorded as that stream's
    /// failure (so replicas can still save the slice), not returned.
    fn apply(&self, sub: &mut SubQuery, i: usize, payload: &Bytes) {
        self.last_progress.set(Instant::now());
        let total = sub.leaves.len();
        let s = &mut sub.streams[i];
        let shard = s.shard;
        let msg = match ShardMsg::decode(payload, self.router.ds.descs().len()) {
            Ok(m) => m,
            Err(e) => {
                s.failed = Some(ShardQueryError::Shard {
                    shard,
                    code: ERR_INTERNAL,
                    message: format!("undecodable shard frame: {e}"),
                });
                return;
            }
        };
        let unexpected = |s: &mut StreamCur| {
            s.failed = Some(ShardQueryError::Shard {
                shard,
                code: ERR_INTERNAL,
                message: "unexpected frame after the last leaf".into(),
            });
        };
        match msg {
            ShardMsg::Chunk { frame, points } => {
                if s.recv_pos() < total {
                    s.cur.push((frame, points));
                } else {
                    unexpected(s);
                }
            }
            ShardMsg::LeafDone { leaf } => {
                if s.recv_pos() >= total {
                    unexpected(s);
                } else if leaf != sub.leaves[s.recv_pos()] {
                    let expected = sub.leaves[s.recv_pos()];
                    s.failed = Some(ShardQueryError::Shard {
                        shard,
                        code: ERR_INTERNAL,
                        message: format!("shard finished leaf {leaf}, router expected {expected}"),
                    });
                } else {
                    let group = std::mem::take(&mut s.cur);
                    s.groups.push_back(group);
                }
            }
            ShardMsg::Done { points } => {
                if s.recv_pos() < total {
                    s.failed = Some(ShardQueryError::Shard {
                        shard,
                        code: ERR_INTERNAL,
                        message: format!(
                            "shard done before finishing leaf {}",
                            sub.leaves[s.recv_pos()]
                        ),
                    });
                } else {
                    s.done = true;
                    s.done_points = points;
                }
            }
            ShardMsg::Failed { code, message } => {
                s.failed = Some(ShardQueryError::Shard {
                    shard,
                    code,
                    message,
                });
            }
        }
    }

    /// Discard completed leaves a stream delivered behind the merge
    /// position (the hedge race's duplicates).
    fn advance_lagging(&self, sub: &mut SubQuery) {
        let next = sub.next;
        for s in &mut sub.streams {
            while s.base < next && !s.groups.is_empty() {
                s.groups.pop_front();
                s.base += 1;
                bat_obs::counter_add("shard.hedge.wasted", 1);
            }
        }
    }

    /// Remove failed streams, recording breaker state and keeping the
    /// most recent error for exhaustion reporting. A stream whose shard
    /// was respawned and re-admitted since the dispatch counts as failed:
    /// the request died with the old process, and waiting on the new one
    /// would burn the whole silence budget before failing over.
    fn reap_failed(&self, sub: &mut SubQuery) {
        for s in sub.streams.iter_mut().filter(|s| s.receivable()) {
            if self.router.comm.incarnation(1 + s.shard) != s.incarnation {
                s.failed = Some(ShardQueryError::Comm {
                    shard: s.shard,
                    error: CommError::PeerDead {
                        rank: ROUTER_RANK,
                        peer: 1 + s.shard,
                        tag: s.tag,
                    },
                });
            }
        }
        let mut i = 0;
        while i < sub.streams.len() {
            if let Some(err) = sub.streams[i].failed.take() {
                let s = sub.streams.remove(i);
                self.router.breaker_failure(s.shard);
                self.router.cancel_and_retire(s.shard, s.tag);
                sub.dirty = true;
                sub.last_err = Some(err);
            } else {
                i += 1;
            }
        }
    }

    /// The hedge latency budget, if hedging is currently armed.
    fn hedge_budget(&self) -> Option<Duration> {
        if self.router.policy.replicas < 2 {
            return None;
        }
        match self.router.policy.hedge {
            Hedge::Off => None,
            Hedge::Fixed(d) => Some(d),
            Hedge::Auto => {
                // Not enough signal to estimate a tail yet: don't hedge.
                if self.router.leaf_latency.count() < 16 {
                    return None;
                }
                let p99 = Duration::from_micros(self.router.leaf_latency.quantile(0.99));
                Some((p99 * 3).clamp(Duration::from_millis(25), self.router.policy.wait))
            }
        }
    }

    /// The live shards of the slice's chain no stream was dispatched to.
    fn untried<'a>(&'a self, sub: &'a SubQuery) -> impl Iterator<Item = usize> + 'a {
        let comm = &self.router.comm;
        sub.chain
            .iter()
            .copied()
            .filter(move |s| !sub.dispatched.contains(s) && !comm.is_dead(1 + s))
    }

    /// An untried, live, breaker-admitted shard to hedge onto.
    fn hedge_candidate(&self, sub: &SubQuery) -> Option<usize> {
        self.untried(sub).find(|&s| self.router.admit(s))
    }

    /// An untried, live shard to fail over to (breaker-admitted
    /// preferred, but an open breaker is only advisory when it's the last
    /// option).
    fn failover_candidate(&self, sub: &SubQuery) -> Option<usize> {
        let alive: Vec<usize> = self.untried(sub).collect();
        alive
            .iter()
            .copied()
            .find(|&s| self.router.admit(s))
            .or_else(|| alive.first().copied())
    }

    /// Produce the chunks of the slice's next leaf, pumping, failing
    /// over, and hedging as needed. `Ok(None)` means the leaf was skipped
    /// under degraded mode.
    fn merge_leaf(&self, sub: &mut SubQuery) -> Result<Option<LeafFrames>, ShardQueryError> {
        if sub.skipped_at.is_some() {
            return Ok(None);
        }
        let leaf_start = Instant::now();
        loop {
            self.advance_lagging(sub);

            // A stream completed the merge leaf: it wins.
            if let Some(i) = sub
                .streams
                .iter()
                .position(|s| s.base == sub.next && !s.groups.is_empty())
            {
                let s = &mut sub.streams[i];
                let frames = s.groups.pop_front().expect("non-empty groups");
                s.base += 1;
                if s.hedge {
                    bat_obs::counter_add("shard.hedge.won", 1);
                }
                sub.next += 1;
                let us = leaf_start.elapsed().as_micros().min(u64::MAX as u128) as u64;
                self.router.leaf_latency.record(us);
                bat_obs::observe("router.leaf_merge_us", us);
                return Ok(Some(frames));
            }

            self.reap_failed(sub);

            // All streams gone: fail over, degrade, or surface the error.
            if sub.streams.is_empty() {
                match self.failover_candidate(sub) {
                    Some(shard) => {
                        let backoff = RETRY_BACKOFF
                            .saturating_mul(1 << sub.attempts.min(4))
                            .min(Duration::from_millis(200))
                            .min(self.remaining_silence());
                        std::thread::sleep(backoff);
                        sub.attempts += 1;
                        let stream = self.dispatch(sub, shard, false);
                        sub.streams.push(stream);
                        bat_obs::counter_add("shard.failover", 1);
                        continue;
                    }
                    None => {
                        let err = sub.last_err.take().unwrap_or(ShardQueryError::Shard {
                            shard: sub.primary,
                            code: ERR_INTERNAL,
                            message: "replica chain exhausted".into(),
                        });
                        if self.q.allow_partial {
                            sub.skipped_at = Some(sub.next);
                            return Ok(None);
                        }
                        return Err(err);
                    }
                }
            }

            // Hedge: the merge leaf has waited past the latency budget
            // and a replica is available.
            let receivable = sub.streams.iter().filter(|s| s.receivable()).count();
            let mut hedge_in: Option<Duration> = None;
            if receivable == 1 && sub.streams.len() == 1 {
                if let Some(budget) = self.hedge_budget() {
                    let due = budget.saturating_sub(leaf_start.elapsed());
                    if due.is_zero() {
                        if let Some(shard) = self.hedge_candidate(sub) {
                            let stream = self.dispatch(sub, shard, true);
                            sub.streams.push(stream);
                            sub.dirty = true;
                            bat_obs::counter_add("shard.hedge.issued", 1);
                            continue;
                        }
                    } else if self.untried(sub).next().is_some() {
                        // Existence only: asking `hedge_candidate` early
                        // would use up a half-open probe slot.
                        hedge_in = Some(due);
                    }
                }
            }

            // Pump: drain everything queued without blocking first.
            let mut progressed = false;
            for i in 0..sub.streams.len() {
                if !sub.streams[i].receivable() {
                    continue;
                }
                let (shard, tag) = (sub.streams[i].shard, sub.streams[i].tag);
                while let Some(m) = self.router.comm.try_recv_raw(Some(1 + shard), tag) {
                    progressed = true;
                    self.apply(sub, i, &m.payload);
                    if !sub.streams[i].receivable() {
                        break;
                    }
                }
            }
            if progressed {
                continue;
            }

            // Nothing queued: block (briefly when racing streams, fully
            // otherwise), bounded by the silence budget and the hedge
            // trigger.
            let silence = self.remaining_silence();
            if silence.is_zero() {
                // Harvest the real transport error per silent stream.
                for i in 0..sub.streams.len() {
                    let (shard, tag) = (sub.streams[i].shard, sub.streams[i].tag);
                    if !sub.streams[i].receivable() {
                        continue;
                    }
                    match self.router.comm.recv_timeout(
                        Some(1 + shard),
                        tag,
                        Duration::from_millis(1),
                    ) {
                        Ok(m) => self.apply(sub, i, &m.payload),
                        Err(error) => {
                            sub.streams[i].failed = Some(ShardQueryError::Comm { shard, error });
                        }
                    }
                }
                continue;
            }
            let racing = sub.streams.len() > 1;
            let mut slice = silence;
            if let Some(h) = hedge_in {
                slice = slice.min(h);
            }
            if racing {
                slice = slice.min(Duration::from_millis(5));
            }
            // Prefer the stream positioned on the merge leaf.
            let i = sub
                .streams
                .iter()
                .position(|s| s.receivable() && s.recv_pos() <= sub.next)
                .or_else(|| sub.streams.iter().position(|s| s.receivable()))
                .unwrap_or(0);
            if !sub.streams[i].receivable() {
                continue;
            }
            let (shard, tag) = (sub.streams[i].shard, sub.streams[i].tag);
            match self.router.comm.recv_timeout(Some(1 + shard), tag, slice) {
                Ok(m) => self.apply(sub, i, &m.payload),
                Err(CommError::Timeout { .. }) => {
                    // Hedge trigger or short race slice: loop and
                    // re-evaluate. True exhaustion is caught by
                    // remaining_silence above.
                }
                Err(error) => {
                    sub.streams[i].failed = Some(ShardQueryError::Comm { shard, error });
                }
            }
        }
    }

    /// After the merge: strict `Done` accounting for clean slices (the
    /// original fabric's invariant), cancel-and-retire for everything
    /// touched by failover, hedging, or degradation.
    fn finalize(&self, subs: &mut [SubQuery], merged_points: u64) -> Result<(), ShardQueryError> {
        let all_clean = subs.iter().all(|s| !s.dirty && s.skipped_at.is_none());
        let mut confirmed = 0u64;
        for sub in subs.iter_mut() {
            let clean = !sub.dirty && sub.skipped_at.is_none();
            if clean {
                debug_assert_eq!(sub.streams.len(), 1);
                while !sub.streams[0].done {
                    let (shard, tag) = (sub.streams[0].shard, sub.streams[0].tag);
                    let wait = match self.expires {
                        Some(e) => (e + DEADLINE_GRACE).saturating_duration_since(Instant::now()),
                        None => self.router.policy.wait,
                    };
                    let msg = self
                        .router
                        .comm
                        .recv_timeout(Some(1 + shard), tag, wait)
                        .map_err(|error| ShardQueryError::Comm { shard, error })?;
                    self.apply(sub, 0, &msg.payload);
                    if let Some(err) = sub.streams[0].failed.take() {
                        return Err(err);
                    }
                }
                confirmed += sub.streams[0].done_points;
                self.router.breaker_success(sub.streams[0].shard);
            } else {
                for s in &sub.streams {
                    if s.done {
                        self.router.breaker_success(s.shard);
                    } else {
                        self.router.cancel_and_retire(s.shard, s.tag);
                    }
                }
            }
        }
        // Every clean slice's terminal count must re-add to the merged
        // total or the merge dropped something. Only meaningful when no
        // slice was hedged, failed over, or skipped.
        if all_clean && confirmed != merged_points {
            return Err(ShardQueryError::Shard {
                shard: usize::MAX,
                code: ERR_INTERNAL,
                message: format!("shards report {confirmed} points, router merged {merged_points}"),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Client-facing TCP front (the router as the stream front-end's executor)
// ---------------------------------------------------------------------------

/// A bound-but-not-running router front: the stream front-end of
/// [`crate::StreamServer`] (same sessions, same [`bat_serve::ServePool`]
/// admission gate, same `Busy { retry_after }` backpressure and
/// submission-time deadline clock) with the router as its executor, so
/// every request runs as a shard fan-out. Degraded fan-outs (opted in via
/// [`Query::allow_partial`]) terminate with a `Partial` frame carrying
/// served/total leaf counts.
pub struct ShardFront {
    listener: std::net::TcpListener,
    router: Arc<ShardRouter>,
    options: bat_serve::ServeOptions,
}

impl ShardFront {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"`).
    pub fn bind(
        addr: &str,
        router: Arc<ShardRouter>,
        options: bat_serve::ServeOptions,
    ) -> std::io::Result<ShardFront> {
        Ok(ShardFront {
            listener: std::net::TcpListener::bind(addr)?,
            router,
            options,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Start accepting clients on a background thread; same lifecycle as
    /// [`crate::StreamServer::spawn`] (shutdown drains the gate, letting
    /// in-flight fan-outs finish, and joins sessions).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        spawn_front(self.listener, self.router, &self.options)
    }
}

/// The sharded executor: every request is a fan-out merged back in global
/// plan order, its chunk frames relayed as the shards encoded them.
impl Executor for ShardRouter {
    fn dataset(&self) -> &Dataset {
        &self.ds
    }

    fn execute(
        &self,
        query: &Query,
        deadline: Option<Instant>,
        sink: &mut dyn FnMut(&[u8], usize),
    ) -> ServerMsg {
        let budget = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        match self.relay(query, budget, sink) {
            Ok(outcome) if outcome.is_partial() => ServerMsg::Partial {
                points: outcome.points,
                served_leaves: outcome.served_leaves,
                total_leaves: outcome.total_leaves,
            },
            Ok(outcome) => ServerMsg::Done {
                points: outcome.points,
            },
            Err(e) => ServerMsg::Error {
                code: match &e {
                    ShardQueryError::Plan(e) => error_code(e),
                    ShardQueryError::Shard { code, .. } => *code,
                    ShardQueryError::Comm { .. } => ERR_SHARD,
                },
                message: e.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_and_complete() {
        for (num_leaves, num_shards) in [(10, 4), (1, 1), (7, 7), (16, 3), (5, 8)] {
            let mut seen = Vec::new();
            for s in 0..num_shards {
                let owned = owned_leaves(s, num_leaves, num_shards);
                // Contiguous run.
                for w in owned.windows(2) {
                    assert_eq!(w[1], w[0] + 1);
                }
                for &l in &owned {
                    assert_eq!(shard_of(l, num_leaves, num_shards), s);
                }
                seen.extend(owned);
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..num_leaves as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ctrl_roundtrip() {
        let c = Ctrl::Query {
            req_tag: 77,
            budget_ms: 1500,
            query: Query::new().with_quality(0.5),
            leaves: vec![3, 1, 9],
        };
        match Ctrl::decode(&c.encode()).unwrap() {
            Ctrl::Query {
                req_tag,
                budget_ms,
                leaves,
                ..
            } => {
                assert_eq!(req_tag, 77);
                assert_eq!(budget_ms, 1500);
                assert_eq!(leaves, vec![3, 1, 9]);
            }
            _ => panic!("wrong ctrl variant"),
        }
        assert!(matches!(
            Ctrl::decode(&Ctrl::Shutdown.encode()).unwrap(),
            Ctrl::Shutdown
        ));
    }

    #[test]
    fn shard_msg_roundtrip() {
        let chunk = Chunk {
            positions: vec![bat_geom::Vec3::ONE],
            attrs: vec![2.5],
            num_attrs: 1,
        };
        let msgs = [
            ShardMsg::Chunk {
                frame: Bytes::from(chunk.encode_frame()),
                points: 1,
            },
            ShardMsg::LeafDone { leaf: 4 },
            ShardMsg::Done { points: 12 },
            ShardMsg::Failed {
                code: ERR_INTERNAL,
                message: "boom".into(),
            },
        ];
        for m in msgs {
            let rt = ShardMsg::decode(&m.encode(), 1).unwrap();
            match (&m, &rt) {
                (
                    ShardMsg::Chunk { frame, points: a },
                    ShardMsg::Chunk {
                        frame: relayed,
                        points: b,
                    },
                ) => {
                    // The router keeps the worker's bytes, which are the
                    // client's frame.
                    assert_eq!(frame, relayed);
                    assert_eq!(a, b);
                    assert_eq!(
                        ServerMsg::decode(relayed).unwrap(),
                        ServerMsg::Chunk(chunk.clone())
                    );
                }
                (ShardMsg::LeafDone { leaf: a }, ShardMsg::LeafDone { leaf: b }) => {
                    assert_eq!(a, b)
                }
                (ShardMsg::Done { points: a }, ShardMsg::Done { points: b }) => assert_eq!(a, b),
                (
                    ShardMsg::Failed {
                        code: a,
                        message: am,
                    },
                    ShardMsg::Failed {
                        code: b,
                        message: bm,
                    },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(am, bm);
                }
                _ => panic!("variant changed in roundtrip"),
            }
        }
    }

    /// Every way a worker's chunk frame can be malformed is that stream's
    /// typed `ERR_INTERNAL` failure — so a replica can still save the
    /// slice — and none of its bytes is kept for relay.
    #[test]
    fn malformed_chunk_frames_fail_the_stream_and_relay_nothing() {
        let (dir, _) = crate::client::tests::make_dataset("router-apply", 300);
        bat_comm::Cluster::run_with(bat_comm::TransportKind::Channel, 2, |comm| {
            if comm.rank() != ROUTER_RANK {
                return;
            }
            let ds = Arc::new(Dataset::open(&dir, "s").unwrap());
            let num_attrs = ds.descs().len();
            let router = ShardRouter::new(comm, ds);
            let q = Query::new();
            let run = RouterRun {
                router: &router,
                q: &q,
                expires: None,
                last_progress: Cell::new(Instant::now()),
            };
            let chunk_of = |n: usize, num_attrs: usize| Chunk {
                positions: vec![bat_geom::Vec3::ONE; n],
                attrs: vec![0.5; n * num_attrs],
                num_attrs,
            };
            let good = chunk_of(3, num_attrs).encode_frame();
            let count_at = 17 + 12 * 3;
            let mut miscounted = good.clone();
            miscounted[count_at] ^= 1;
            let mut extended = good.clone();
            extended.push(0);
            let malformed: [(&str, Vec<u8>); 7] = [
                ("truncated", good[..good.len() - 1].to_vec()),
                ("extended", extended),
                ("other schema", chunk_of(3, num_attrs + 1).encode_frame()),
                ("attr count", miscounted),
                (
                    "oversized",
                    chunk_of(crate::CHUNK_POINTS + 1, num_attrs).encode_frame(),
                ),
                ("unknown tag", vec![99, 0, 0]),
                ("empty", Vec::new()),
            ];
            for (what, frame) in malformed {
                let mut sub = SubQuery::new(vec![0], vec![0, 1]);
                let stream = run.dispatch(&mut sub, 0, false);
                sub.streams.push(stream);
                // A well-formed frame first, so there is something to lose.
                run.apply(&mut sub, 0, &Bytes::from(good.clone()));
                assert!(sub.streams[0].receivable(), "{what}: control frame");
                assert_eq!(sub.streams[0].cur.len(), 1);
                assert_eq!(sub.streams[0].cur[0].1, 3, "point count from the header");

                run.apply(&mut sub, 0, &Bytes::from(frame));
                let s = &sub.streams[0];
                assert!(
                    matches!(
                        s.failed,
                        Some(ShardQueryError::Shard {
                            shard: 0,
                            code: ERR_INTERNAL,
                            ..
                        })
                    ),
                    "{what}: got {:?}",
                    s.failed
                );
                assert!(!s.receivable(), "{what}: the stream takes no more frames");
                assert_eq!(s.cur.len(), 1, "{what}: the bad frame was not kept");
                assert!(s.groups.is_empty(), "{what}: no leaf completed");
            }
            router.shutdown();
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn heartbeat_and_cancel_roundtrip() {
        let hb = encode_heartbeat(HB_PING, 42);
        assert_eq!(decode_heartbeat(&hb), Some((HB_PING, 42)));
        let hb = encode_heartbeat(HB_PONG, u64::MAX);
        assert_eq!(decode_heartbeat(&hb), Some((HB_PONG, u64::MAX)));
        assert_eq!(decode_heartbeat(b""), None);
        assert_eq!(decode_cancel(&encode_cancel(99)), Some(99));
        assert_eq!(decode_cancel(b"x"), None);
    }

    #[test]
    fn cancel_set_is_bounded() {
        let mut set = CancelSet::new();
        for t in 0..300u32 {
            set.insert(t);
        }
        assert!(set.tags.len() <= 256);
        assert!(!set.contains(0), "oldest entries evicted");
        assert!(set.contains(299));
        assert!(set.remove(299));
        assert!(!set.contains(299));
        assert!(!set.remove(299));
    }

    #[test]
    fn breaker_lifecycle() {
        let cooldown = Duration::from_millis(20);
        let b = Breaker::default();
        assert!(b.admit(cooldown), "closed admits");
        assert_eq!(b.gauge(), 0.0);
        assert!(!b.failure(3));
        assert!(!b.failure(3));
        assert!(b.failure(3), "third consecutive failure opens");
        assert_eq!(b.gauge(), 1.0);
        assert!(!b.admit(cooldown), "open rejects during cooldown");
        std::thread::sleep(cooldown + Duration::from_millis(5));
        assert!(b.admit(cooldown), "half-open admits one probe");
        assert_eq!(b.gauge(), 2.0);
        assert!(!b.admit(cooldown), "second probe rejected");
        assert!(!b.failure(3), "probe failure re-opens, not newly");
        assert!(!b.admit(cooldown), "cooldown re-armed");
        std::thread::sleep(cooldown + Duration::from_millis(5));
        assert!(b.admit(cooldown));
        b.success();
        assert_eq!(b.gauge(), 0.0);
        assert!(b.admit(cooldown), "closed again after probe success");
    }

    #[test]
    fn hedge_knob_parses() {
        let parse = |raw: &str| Hedge::from_knob(knobs::SHARD_HEDGE_MS.parse(raw).as_deref());
        assert_eq!(Hedge::from_knob(None), Hedge::Auto);
        assert_eq!(parse("auto"), Hedge::Auto);
        assert_eq!(parse(""), Hedge::Auto);
        assert_eq!(parse("off"), Hedge::Off);
        assert_eq!(parse("0"), Hedge::Off);
        assert_eq!(parse("25"), Hedge::Fixed(Duration::from_millis(25)));
        assert_eq!(parse("bogus"), Hedge::Auto);
    }

    #[test]
    fn outcome_partial_flag() {
        let complete = QueryOutcome {
            points: 10,
            served_leaves: 4,
            total_leaves: 4,
        };
        assert!(!complete.is_partial());
        let partial = QueryOutcome {
            points: 7,
            served_leaves: 3,
            total_leaves: 4,
        };
        assert!(partial.is_partial());
    }
}
