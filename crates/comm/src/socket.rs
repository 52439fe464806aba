//! The socket transport: ranks are processes (or threads) exchanging
//! length-prefixed frames over TCP or Unix-domain stream sockets.
//!
//! Topology is a full mesh by default, built deadlock-free by ordering:
//! rank `r` *connects* to every lower rank and *accepts* from every
//! higher rank (listen backlogs absorb arrival-order skew). Each
//! connection starts with a HELLO handshake exchanging a magic number,
//! protocol version, rank, and cluster size, so a misconfigured peer
//! fails fast instead of corrupting a mailbox. Connect *and* handshake
//! are retried with bounded backoff inside a fixed 10 s budget, so
//! a worker that dials before a peer is listening (or gets reset by a
//! restarting peer's backlog) heals instead of failing the mesh build.
//!
//! A `topo=star` cluster wires ranks `1..n` to rank 0 only. The hub
//! keeps its listener for the cluster's lifetime and *re-admits* a
//! restarted rank: a later HELLO from a known rank replaces its write
//! half, purges stale mailbox frames from the dead incarnation, spawns a
//! fresh reader (epoch-guarded so the old reader's EOF can't re-kill
//! it), and clears the dead flag. This is the membership layer under the
//! shard supervisor's crash→respawn→rejoin cycle.
//!
//! Wire format (all integers little-endian, matching `bat_wire`):
//!
//! ```text
//! frame   := len:u32 body
//! body    := MSG   (kind=1) src:u32 tag:u32 payload…
//!          | HELLO (kind=2) rank:u32 size:u32 magic:u32 version:u16
//!          | DEAD  (kind=3) rank:u32
//! ```
//!
//! A MSG payload is the same byte blob the channel transport delivers —
//! receivers view it as a zero-copy [`bat_wire::Block`] via
//! [`Message::block`]. One reader thread per peer drains its connection
//! into the rank's single inbox mailbox, preserving the per-(source, tag)
//! FIFO guarantee (TCP is in-order per connection).
//!
//! Failure semantics mirror the channel transport: `mark_dead` broadcasts
//! a best-effort DEAD frame (the rank can keep *sending* afterwards — a
//! dying rank may still flush); an EOF, connection reset, or write error
//! on a peer's connection marks that peer dead locally, waking any
//! blocked receive into [`CommError::PeerDead`]. Sends to a dead or
//! disconnected peer are silently dropped, exactly like channel delivery
//! to a dead mailbox — the receiver's deadline converts loss into error.

use crate::cluster::ClusterConfig;
use crate::comm::Message;
use crate::inbox::Mailroom;
use crate::transport::Transport;
use bytes::Bytes;
use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FRAME_MSG: u8 = 1;
const FRAME_HELLO: u8 = 2;
const FRAME_DEAD: u8 = 3;
/// Clean departure: the peer finished its protocol and closed the
/// connection. Distinguishes orderly exit (peer goes silent, receivers
/// run out their deadlines — channel semantics for a returned rank) from
/// a crash (EOF with no BYE → peer marked dead, receivers fail fast).
const FRAME_BYE: u8 = 4;
/// "BAT!" — rejects accidental connections from anything else.
const HELLO_MAGIC: u32 = 0x4241_5421;
const WIRE_VERSION: u16 = 1;
/// Frames above this are a protocol violation (mirrors `bat_stream`'s
/// MAX_FRAME guard; shuffle payloads are far smaller).
const MAX_FRAME: u32 = 1 << 30;

/// How long connection establishment (bind retry + handshake) may take.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed peer endpoint: `host:port` for TCP, an absolute path or
/// `unix:<path>` for Unix-domain sockets.
#[derive(Debug, Clone)]
pub(crate) enum Endpoint {
    Tcp(String),
    Unix(PathBuf),
}

impl Endpoint {
    pub(crate) fn parse(s: &str) -> io::Result<Endpoint> {
        if let Some(path) = s.strip_prefix("unix:") {
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else if s.starts_with('/') {
            Ok(Endpoint::Unix(PathBuf::from(s)))
        } else if s.contains(':') {
            Ok(Endpoint::Tcp(s.to_string()))
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("endpoint `{s}` is neither host:port nor a unix path"),
            ))
        }
    }
}

/// One established stream connection, TCP or Unix.
pub(crate) enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn connect(ep: &Endpoint) -> io::Result<Conn> {
        match ep {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true).ok();
                Ok(Conn::Tcp(s))
            }
            Endpoint::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
        }
    }

    /// Connect *and handshake* with retry until `deadline`. Process
    /// startup is unordered: the peer's listener may not be bound yet
    /// (connection refused), or may be bound but not yet accepting — a
    /// backlogged connection can be reset or EOF'd mid-handshake when the
    /// peer restarts. All of those are startup races, so any I/O-level
    /// failure before the handshake completes retries with exponential
    /// backoff; only a *semantic* rejection (wrong magic, version, rank,
    /// or size — `InvalidData`) is fatal, because retrying a
    /// misconfigured peer would just spin out the deadline.
    fn connect_handshake(
        ep: &Endpoint,
        deadline: Instant,
        rank: u32,
        size: u32,
        expect_peer: u32,
    ) -> io::Result<Conn> {
        let mut backoff = Duration::from_millis(5);
        loop {
            let attempt = (|| -> io::Result<Conn> {
                let mut c = Conn::connect(ep)?;
                // set_read_timeout rejects a zero Duration; clamp up.
                let remaining = deadline
                    .saturating_duration_since(Instant::now())
                    .max(Duration::from_millis(1));
                c.set_read_timeout(Some(remaining))?;
                write_hello(&mut c, rank, size)?;
                let (r, s) = read_hello(&mut c)?;
                if r != expect_peer || s != size {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "endpoint {expect_peer} answered as rank {r} of {s} \
                             (expected {expect_peer} of {size})"
                        ),
                    ));
                }
                c.set_read_timeout(None)?;
                Ok(c)
            })();
            match attempt {
                Ok(c) => return Ok(c),
                Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            e.kind(),
                            format!("connecting to {ep:?} timed out: {e}"),
                        ));
                    }
                    std::thread::sleep(
                        backoff.min(deadline.saturating_duration_since(Instant::now())),
                    );
                    backoff = (backoff * 2).min(Duration::from_millis(100));
                }
            }
        }
    }

    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => Ok(Conn::Tcp(s.try_clone()?)),
            Conn::Unix(s) => Ok(Conn::Unix(s.try_clone()?)),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            Conn::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => {
                s.shutdown(Shutdown::Both).ok();
            }
            Conn::Unix(s) => {
                s.shutdown(Shutdown::Both).ok();
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A bound listener for this rank's endpoint. Unix listeners own their
/// socket path and remove it on drop.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    pub(crate) fn bind(ep: &Endpoint) -> io::Result<Listener> {
        match ep {
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
            Endpoint::Unix(path) => {
                // A stale path from a crashed predecessor would fail the
                // bind; remove it first (fresh dirs are the common case).
                std::fs::remove_file(path).ok();
                Ok(Listener::Unix(UnixListener::bind(path)?, path.clone()))
            }
        }
    }

    /// The actual bound endpoint (resolves `:0` ephemeral TCP ports).
    pub(crate) fn local_endpoint(&self) -> io::Result<String> {
        match self {
            Listener::Tcp(l) => Ok(l.local_addr()?.to_string()),
            Listener::Unix(_, path) => Ok(path.display().to_string()),
        }
    }

    /// Accept one connection, polling until `deadline`.
    fn accept_deadline(&self, deadline: Instant) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            Listener::Unix(l, _) => l.set_nonblocking(true)?,
        }
        loop {
            let got = match self {
                Listener::Tcp(l) => l.accept().map(|(s, _)| {
                    s.set_nodelay(true).ok();
                    Conn::Tcp(s)
                }),
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            };
            match got {
                Ok(c) => {
                    match self {
                        Listener::Tcp(l) => l.set_nonblocking(false)?,
                        Listener::Unix(l, _) => l.set_nonblocking(false)?,
                    }
                    // The accepted stream inherits nonblocking on some
                    // platforms; force blocking mode.
                    match &c {
                        Conn::Tcp(s) => s.set_nonblocking(false)?,
                        Conn::Unix(s) => s.set_nonblocking(false)?,
                    }
                    return Ok(c);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "timed out waiting for peer connections",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            std::fs::remove_file(path).ok();
        }
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

fn write_frame(w: &mut Conn, body: &[&[u8]]) -> io::Result<()> {
    let len: usize = body.iter().map(|b| b.len()).sum();
    assert!(len <= MAX_FRAME as usize, "frame exceeds MAX_FRAME");
    w.write_all(&(len as u32).to_le_bytes())?;
    for part in body {
        w.write_all(part)?;
    }
    w.flush()
}

fn write_msg(w: &mut Conn, src: u32, tag: u32, payload: &[u8]) -> io::Result<()> {
    let mut head = [0u8; 9];
    head[0] = FRAME_MSG;
    head[1..5].copy_from_slice(&src.to_le_bytes());
    head[5..9].copy_from_slice(&tag.to_le_bytes());
    write_frame(w, &[&head, payload])
}

fn write_hello(w: &mut Conn, rank: u32, size: u32) -> io::Result<()> {
    let mut body = [0u8; 15];
    body[0] = FRAME_HELLO;
    body[1..5].copy_from_slice(&rank.to_le_bytes());
    body[5..9].copy_from_slice(&size.to_le_bytes());
    body[9..13].copy_from_slice(&HELLO_MAGIC.to_le_bytes());
    body[13..15].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    write_frame(w, &[&body])
}

fn write_dead(w: &mut Conn, rank: u32) -> io::Result<()> {
    let mut body = [0u8; 5];
    body[0] = FRAME_DEAD;
    body[1..5].copy_from_slice(&rank.to_le_bytes());
    write_frame(w, &[&body])
}

fn write_bye(w: &mut Conn, rank: u32) -> io::Result<()> {
    let mut body = [0u8; 5];
    body[0] = FRAME_BYE;
    body[1..5].copy_from_slice(&rank.to_le_bytes());
    write_frame(w, &[&body])
}

/// Read one frame. `Ok(None)` = clean EOF at a frame boundary.
fn read_frame(r: &mut Conn) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(None);
                }
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

fn read_hello(r: &mut Conn) -> io::Result<(u32, u32)> {
    let body = read_frame(r)?.ok_or(io::ErrorKind::UnexpectedEof)?;
    if body.len() != 15 || body[0] != FRAME_HELLO {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected HELLO frame",
        ));
    }
    let rank = u32::from_le_bytes(body[1..5].try_into().unwrap());
    let size = u32::from_le_bytes(body[5..9].try_into().unwrap());
    let magic = u32::from_le_bytes(body[9..13].try_into().unwrap());
    let version = u16::from_le_bytes(body[13..15].try_into().unwrap());
    if magic != HELLO_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "handshake magic mismatch (not a bat-comm peer)",
        ));
    }
    if version != WIRE_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("wire version mismatch: peer {version}, ours {WIRE_VERSION}"),
        ));
    }
    Ok((rank, size))
}

// ---------------------------------------------------------------------
// The transport
// ---------------------------------------------------------------------

/// One rank's connections: the write halves it sends on and the reader
/// threads that push what arrives into its inbox.
pub(crate) struct SocketLinks {
    rank: usize,
    /// This rank's view of the cluster; reader threads deliver into
    /// `room`'s inbox for `rank` and record the deaths they observe.
    room: Arc<Mailroom>,
    /// Write halves, indexed by peer rank (`None` at our own index or
    /// after a connection failed).
    writers: Vec<Mutex<Option<Conn>>>,
    /// Per-peer connection incarnation. A reader thread only marks its
    /// peer dead if its epoch is still current, so a stale reader from a
    /// replaced connection can't kill a re-admitted peer.
    epochs: Vec<AtomicU64>,
    /// Set by `shutdown` so reader threads exit silently instead of
    /// marking peers dead when we close our own sockets.
    closed: AtomicBool,
    readers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

fn reader_loop(mut conn: Conn, peer: usize, epoch: u64, links: Arc<SocketLinks>) {
    let room = &links.room;
    // Set once the peer announces a clean departure; the EOF that follows
    // is then an orderly exit, not a death.
    let mut peer_left = false;
    loop {
        match read_frame(&mut conn) {
            Ok(Some(body)) => match body[0] {
                FRAME_MSG if body.len() >= 9 => {
                    let src = u32::from_le_bytes(body[1..5].try_into().unwrap()) as usize;
                    let tag = u32::from_le_bytes(body[5..9].try_into().unwrap());
                    if src < room.size() {
                        // The payload is a window of the frame body this
                        // thread already owns: no second copy.
                        let payload = Bytes::from(body).slice(9..);
                        room.deliver(links.rank, Message { src, tag, payload }, None);
                    }
                }
                FRAME_DEAD if body.len() >= 5 => {
                    let r = u32::from_le_bytes(body[1..5].try_into().unwrap()) as usize;
                    if r < room.size() {
                        room.set_dead(r, true);
                    }
                }
                FRAME_BYE => peer_left = true,
                // Unknown/short frames are dropped (forward compatibility).
                _ => {}
            },
            Ok(None) | Err(_) => {
                let current = links.epochs[peer].load(Ordering::Acquire) == epoch;
                if !peer_left && current && !links.closed.load(Ordering::Acquire) {
                    room.set_dead(peer, true);
                }
                return;
            }
        }
    }
}

/// Install `conn` as the link to `peer`: the write half, and a reader
/// thread (named for `epoch`) draining the other half into the inbox.
fn attach(links: &Arc<SocketLinks>, peer: usize, epoch: u64, conn: Conn) -> io::Result<()> {
    let reader_half = conn.try_clone()?;
    *links.writers[peer].lock() = Some(conn);
    let l = links.clone();
    let handle = std::thread::Builder::new()
        .name(format!("bat-sock-r{}p{}e{}", links.rank, peer, epoch))
        .spawn(move || reader_loop(reader_half, peer, epoch, l))?;
    links.readers.lock().push(handle);
    Ok(())
}

/// Wire a reconnected peer into the fabric: purge any queued frames from
/// its previous incarnation, install the new connection, and finally
/// clear the dead flag so sends resume. Called by the hub's rejoin loop
/// when a supervised worker restarts and dials back in.
fn readmit(links: &Arc<SocketLinks>, peer: usize, conn: Conn) -> io::Result<()> {
    // Bump the epoch first: a reader still draining the replaced
    // connection must not mark the new incarnation dead on its EOF.
    let epoch = links.epochs[peer].fetch_add(1, Ordering::AcqRel) + 1;
    links.room.purge(links.rank, peer);
    attach(links, peer, epoch, conn)?;
    links.room.set_dead(peer, false);
    Ok(())
}

/// Hub-only accept loop (star topology): the listener stays bound for the
/// cluster's lifetime, and any later HELLO from a known rank re-admits
/// that peer — the membership half of supervised respawn.
fn rejoin_loop(listener: Listener, links: Arc<SocketLinks>) {
    let poll = Duration::from_millis(100);
    let size = links.room.size();
    while !links.closed.load(Ordering::Acquire) {
        let Ok(mut c) = listener.accept_deadline(Instant::now() + poll) else {
            continue;
        };
        let hello = (|| -> io::Result<u32> {
            c.set_read_timeout(Some(CONNECT_TIMEOUT))?;
            let (r, s) = read_hello(&mut c)?;
            if r as usize == 0 || r as usize >= size || s as usize != size {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("rejoin HELLO from rank {r} of {s} rejected"),
                ));
            }
            write_hello(&mut c, links.rank as u32, size as u32)?;
            c.set_read_timeout(None)?;
            Ok(r)
        })();
        if let Ok(r) = hello {
            readmit(&links, r as usize, c).ok();
        }
    }
}

impl SocketLinks {
    /// Join the cluster `cfg` describes as rank `cfg.rank`, receiving
    /// into `room`: mesh up with every peer over the already-bound
    /// `listener` and return once all handshakes complete. Thread-hosted
    /// clusters pre-bind all listeners (no ephemeral-port race).
    pub(crate) fn establish(
        listener: Listener,
        cfg: &ClusterConfig,
        room: Arc<Mailroom>,
    ) -> io::Result<Arc<SocketLinks>> {
        let n = cfg.size;
        let rank = cfg.rank;
        assert!(rank < n, "rank {rank} out of range for size {n}");
        let eps = cfg.parsed_endpoints()?;
        if eps.len() != n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cluster size {n} but {} endpoints", eps.len()),
            ));
        }
        let star = cfg.topology == crate::cluster::Topology::Star;
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        let handshake_timeout = Some(CONNECT_TIMEOUT);
        let mut conns: Vec<Option<Conn>> = (0..n).map(|_| None).collect();

        // Connect to every lower rank (star spokes dial only the hub)…
        let dial_to = if star && rank > 0 { 1 } else { rank };
        for (j, ep) in eps.iter().enumerate().take(dial_to) {
            conns[j] = Some(Conn::connect_handshake(
                ep,
                deadline,
                rank as u32,
                n as u32,
                j as u32,
            )?);
        }
        // …and accept from every higher rank (none for star spokes; the
        // hub, rank 0, accepts everyone — same as its mesh role).
        let accepts = if star && rank > 0 { 0 } else { n - rank - 1 };
        for _ in 0..accepts {
            let mut c = listener.accept_deadline(deadline)?;
            c.set_read_timeout(handshake_timeout)?;
            let (r, s) = read_hello(&mut c)?;
            let r = r as usize;
            if r <= rank || r >= n || s as usize != n || conns[r].is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected HELLO from rank {r} of {s}"),
                ));
            }
            write_hello(&mut c, rank as u32, n as u32)?;
            c.set_read_timeout(None)?;
            conns[r] = Some(c);
        }

        let links = Arc::new(SocketLinks {
            rank,
            room,
            writers: (0..n).map(|_| Mutex::new(None)).collect(),
            epochs: (0..n).map(|_| AtomicU64::new(0)).collect(),
            closed: AtomicBool::new(false),
            readers: Mutex::new(Vec::new()),
        });
        let wire_up = || -> io::Result<()> {
            for (j, conn) in conns.into_iter().enumerate() {
                if let Some(conn) = conn {
                    attach(&links, j, 0, conn)?;
                }
            }
            if star && rank == 0 {
                // The hub keeps listening for the cluster's lifetime so a
                // supervised worker that crashed and respawned can dial
                // back in; `rejoin_loop` re-admits it and clears its dead
                // flag.
                let l = links.clone();
                let h = std::thread::Builder::new()
                    .name(format!("bat-sock-hub{rank}"))
                    .spawn(move || rejoin_loop(listener, l))?;
                links.readers.lock().push(h);
            }
            Ok(())
        };
        // On failure, close what was attached so far, or its reader
        // threads would hold the links open forever.
        wire_up().inspect_err(|_| links.shutdown())?;
        // Mesh (and star spokes): the listener is dropped by now — Unix
        // paths are unlinked; reconnects are not part of the mesh protocol.
        Ok(links)
    }
}

impl Transport for SocketLinks {
    fn name(&self) -> &'static str {
        "socket"
    }

    fn send(&self, room: &Mailroom, dst: usize, msg: Message) {
        // Mirror channel semantics: messages to a dead rank are dropped.
        if room.is_dead(dst) {
            return;
        }
        if dst == self.rank {
            return room.deliver(dst, msg, None);
        }
        let mut guard = self.writers[dst].lock();
        let failed = match guard.as_mut() {
            Some(conn) => write_msg(conn, msg.src as u32, msg.tag, &msg.payload).is_err(),
            None => false, // already torn down; drop like a dead mailbox
        };
        if failed {
            *guard = None;
            drop(guard);
            room.set_dead(dst, true);
        }
    }

    fn announce_death(&self) {
        // Best-effort death notice so peers fail fast instead of waiting
        // out their deadlines. The write halves stay open: a dead rank
        // may still send.
        for w in &self.writers {
            if let Some(conn) = w.lock().as_mut() {
                let _ = write_dead(conn, self.rank as u32);
            }
        }
    }

    fn incarnation(&self, rank: usize) -> u64 {
        self.epochs[rank].load(Ordering::Acquire)
    }

    fn shutdown(&self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        for w in &self.writers {
            if let Some(mut conn) = w.lock().take() {
                let _ = write_bye(&mut conn, self.rank as u32);
                conn.shutdown();
            }
        }
        let handles: Vec<_> = self.readers.lock().drain(..).collect();
        for h in handles {
            h.join().ok();
        }
    }
}
