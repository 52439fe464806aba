//! Cluster entry points: thread-hosted launch across any transport, plus
//! explicit topology configuration for multi-process clusters.
//!
//! [`Cluster::run`] spawns `n` rank threads and hands each a boxed
//! [`Comm`]; which transport backs those handles is picked by
//! `BAT_TRANSPORT` (`channel` default, `socket`, `sim`), so the entire
//! test suite and every pipeline can run over real sockets or the
//! simulated network without touching a call site.
//!
//! Multi-process clusters skip `run` entirely: each process parses a
//! [`ClusterConfig`] (usually from the `BAT_CLUSTER` env var) naming its
//! rank, the cluster size, and every peer endpoint, then calls
//! [`Cluster::connect`] to join the mesh.

use crate::comm::Comm;
use crate::inbox::Mailroom;
use crate::sim::{SimNet, SimParams};
use crate::socket::{Endpoint, Listener, SocketLinks};
use crate::transport::{Channel, RankComm, Transport};
use parking_lot::Mutex;
use std::io;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Which byte-moving fabric backs a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process mailboxes (threads; the default and byte-identity
    /// reference).
    Channel,
    /// TCP or Unix-domain stream sockets (threads or processes).
    Socket,
    /// In-process with a `bat-iosim` latency/bandwidth model.
    Sim,
}

impl TransportKind {
    fn parse(s: &str) -> Result<TransportKind, String> {
        match s {
            "channel" | "thread" | "threads" => Ok(TransportKind::Channel),
            "socket" | "tcp" | "unix" => Ok(TransportKind::Socket),
            "sim" | "simulated" => Ok(TransportKind::Sim),
            other => Err(format!(
                "unknown transport `{other}` (expected channel|socket|sim)"
            )),
        }
    }
}

/// How socket ranks are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Full mesh: every rank connects to every other (the original
    /// shape; worker↔worker traffic possible, no rejoin after a crash).
    #[default]
    Mesh,
    /// Hub-and-spoke: ranks `1..n` connect only to rank 0, which keeps
    /// its listener alive and re-admits a restarted rank. The shard
    /// fabric's shape — all traffic flows through the router, and a
    /// supervised worker can crash, respawn, and rejoin.
    Star,
}

impl Topology {
    fn parse(s: &str) -> Result<Topology, String> {
        match s {
            "mesh" | "full" => Ok(Topology::Mesh),
            "star" | "hub" => Ok(Topology::Star),
            other => Err(format!("unknown topology `{other}` (expected mesh|star)")),
        }
    }
}

/// Explicit cluster topology: size, this process's rank, the transport,
/// and every rank's endpoint. Parsed from a `key=value;…` spec, the shape
/// the `BAT_CLUSTER` env var and `batcli` flags share:
///
/// ```text
/// transport=tcp;rank=1;size=3;peers=127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
/// transport=unix;rank=0;size=2;topo=star;peers=/tmp/bat0.sock,/tmp/bat1.sock
/// ```
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of ranks.
    pub size: usize,
    /// This process's rank in `0..size`.
    pub rank: usize,
    /// Transport the cluster runs over.
    pub transport: TransportKind,
    /// Wiring shape for socket clusters (`topo=` key, default mesh).
    pub topology: Topology,
    /// One endpoint per rank (`host:port` for TCP, paths for Unix
    /// sockets); empty for in-process transports.
    pub endpoints: Vec<String>,
}

impl ClusterConfig {
    /// Parse a `key=value;…` topology spec (see the type-level example).
    pub fn parse(spec: &str) -> Result<ClusterConfig, String> {
        let mut size = None;
        let mut rank = None;
        let mut transport = TransportKind::Socket;
        let mut topology = Topology::default();
        let mut endpoints = Vec::new();
        for kv in spec.split(';').filter(|s| !s.is_empty()) {
            let (key, val) = kv
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{kv}`"))?;
            match key.trim() {
                "size" => {
                    size = Some(
                        val.parse::<usize>()
                            .map_err(|_| format!("bad size `{val}`"))?,
                    )
                }
                "rank" => {
                    rank = Some(
                        val.parse::<usize>()
                            .map_err(|_| format!("bad rank `{val}`"))?,
                    )
                }
                "transport" => transport = TransportKind::parse(val.trim())?,
                "topo" | "topology" => topology = Topology::parse(val.trim())?,
                "peers" => {
                    endpoints = val
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.trim().to_string())
                        .collect()
                }
                other => return Err(format!("unknown cluster key `{other}`")),
            }
        }
        let size = size
            .or((!endpoints.is_empty()).then_some(endpoints.len()))
            .ok_or("cluster spec needs size= or peers=")?;
        let rank = rank.ok_or("cluster spec needs rank=")?;
        if rank >= size {
            return Err(format!("rank {rank} out of range for size {size}"));
        }
        if transport == TransportKind::Socket && endpoints.len() != size {
            return Err(format!(
                "socket cluster of size {size} needs {size} peers=, got {}",
                endpoints.len()
            ));
        }
        Ok(ClusterConfig {
            size,
            rank,
            transport,
            topology,
            endpoints,
        })
    }

    /// The topology from the `BAT_CLUSTER` env var, if set.
    pub fn from_env() -> Option<Result<ClusterConfig, String>> {
        bat_obs::knobs::CLUSTER.get().map(|s| Self::parse(&s))
    }

    /// Serialize back into the spec format (for spawning worker
    /// processes: set `BAT_CLUSTER` to `cfg.with_rank(r).to_spec()`).
    pub fn to_spec(&self) -> String {
        let transport = match self.transport {
            TransportKind::Channel => "channel",
            TransportKind::Socket => "tcp",
            TransportKind::Sim => "sim",
        };
        let topo = match self.topology {
            // Omitted when mesh so specs from older builds round-trip.
            Topology::Mesh => String::new(),
            Topology::Star => ";topo=star".to_string(),
        };
        format!(
            "transport={};rank={};size={}{};peers={}",
            transport,
            self.rank,
            self.size,
            topo,
            self.endpoints.join(",")
        )
    }

    /// This topology viewed from a different rank.
    pub fn with_rank(&self, rank: usize) -> ClusterConfig {
        ClusterConfig {
            rank,
            ..self.clone()
        }
    }

    /// A Unix-domain-socket topology with one socket path per rank under
    /// `dir` (the shape `batcli shard-serve` uses).
    pub fn unix_in_dir(dir: &std::path::Path, size: usize) -> ClusterConfig {
        ClusterConfig {
            size,
            rank: 0,
            transport: TransportKind::Socket,
            topology: Topology::default(),
            endpoints: (0..size)
                .map(|r| dir.join(format!("rank{r}.sock")).display().to_string())
                .collect(),
        }
    }

    /// The same topology wired as a star (supervised fabrics: workers
    /// dial only the hub, and a respawned worker can rejoin).
    pub fn star(mut self) -> ClusterConfig {
        self.topology = Topology::Star;
        self
    }

    pub(crate) fn parsed_endpoints(&self) -> io::Result<Vec<Endpoint>> {
        self.endpoints.iter().map(|e| Endpoint::parse(e)).collect()
    }
}

/// Cap on thread-hosted socket cluster sizes: a full mesh needs
/// O(n²) file descriptors in one process, so big rank counts (the 64-rank
/// stress tests) fall back to the channel transport.
const SOCKET_MAX_RANKS: usize = 12;

/// A virtual cluster. Stateless; [`Cluster::run`] is the entry point.
pub struct Cluster;

impl Cluster {
    /// Run `f` on `n` rank threads, each with its own [`Comm`], and return
    /// the per-rank results in rank order. The transport is chosen by
    /// `BAT_TRANSPORT` (default: channel).
    ///
    /// If any rank panics, the cluster is poisoned (ranks blocked in `recv`
    /// wake up and panic rather than deadlock) and the first panic is
    /// propagated to the caller.
    ///
    /// Rank counts well above the physical core count are fine: blocked
    /// ranks park on condition variables rather than spinning.
    pub fn run<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Box<dyn Comm>) -> T + Sync,
    {
        Self::run_with(Self::transport_from_env(n), n, f)
    }

    /// The transport `run` would pick for an `n`-rank cluster.
    pub fn transport_from_env(n: usize) -> TransportKind {
        let word = bat_obs::knobs::TRANSPORT.get();
        match word.as_deref().map(TransportKind::parse) {
            Some(Ok(TransportKind::Socket)) if n > SOCKET_MAX_RANKS => {
                // O(n²) sockets in one process would exhaust fd limits.
                bat_obs::counter_add("comm.transport_fallback", 1);
                TransportKind::Channel
            }
            Some(Ok(kind)) => kind,
            _ => TransportKind::Channel,
        }
    }

    /// [`Cluster::run`] over an explicit transport.
    pub fn run_with<T, F>(kind: TransportKind, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Box<dyn Comm>) -> T + Sync,
    {
        assert!(n > 0, "cluster needs at least one rank");
        // In-process transports: every rank shares one mailroom and one
        // transport object.
        let shared = |link: Arc<dyn Transport>| {
            let room = Arc::new(Mailroom::new(n));
            run_ranks(n, &f, move |rank| {
                Box::new(RankComm::new(room.clone(), link.clone(), rank))
            })
        };
        match kind {
            TransportKind::Channel => shared(Arc::new(Channel)),
            TransportKind::Sim => shared(Arc::new(SimNet::new(n, SimParams::default()))),
            TransportKind::Socket => {
                // Pre-bind every listener on an ephemeral loopback port so
                // endpoints are known before any rank starts connecting
                // (no port race). Each rank keeps a private view of who is
                // dead, but all share the inboxes and the poison flag so a
                // panicking rank still wakes its in-process siblings.
                let listeners: Vec<Listener> = (0..n)
                    .map(|_| {
                        Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into()))
                            .expect("bind loopback listener")
                    })
                    .collect();
                let endpoints: Vec<String> = listeners
                    .iter()
                    .map(|l| l.local_endpoint().expect("listener addr"))
                    .collect();
                let slots = Mutex::new(listeners.into_iter().map(Some).collect::<Vec<_>>());
                let root = Mailroom::new(n);
                run_ranks(n, &f, move |rank| {
                    let listener = slots.lock()[rank].take().expect("one listener per rank");
                    let cfg = ClusterConfig {
                        size: n,
                        rank,
                        transport: TransportKind::Socket,
                        topology: Topology::default(),
                        endpoints: endpoints.clone(),
                    };
                    socket_rank(listener, &cfg, root.private_view())
                        .expect("socket transport setup")
                })
            }
        }
    }

    /// Join a multi-process cluster described by `cfg` (usually
    /// `ClusterConfig::from_env()` from `BAT_CLUSTER`): bind this rank's
    /// endpoint, mesh up with every peer, and return once all handshakes
    /// complete. Only the socket transport is meaningful across
    /// processes; in-process transports are accepted for size-1
    /// topologies so single-rank tools can run under a generic launcher.
    pub fn connect(cfg: &ClusterConfig) -> io::Result<Box<dyn Comm>> {
        bat_faults::set_rank(Some(cfg.rank));
        match cfg.transport {
            TransportKind::Socket => {
                let listener = Listener::bind(&cfg.parsed_endpoints()?[cfg.rank])?;
                socket_rank(listener, cfg, Mailroom::new(cfg.size))
            }
            TransportKind::Channel | TransportKind::Sim if cfg.size == 1 => Ok(Box::new(
                RankComm::new(Arc::new(Mailroom::new(1)), Arc::new(Channel), 0),
            )),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "channel/sim transports are in-process; multi-process clusters need transport=tcp|unix",
            )),
        }
    }
}

/// Rank `cfg.rank` of a socket cluster, receiving into `room`.
fn socket_rank(
    listener: Listener,
    cfg: &ClusterConfig,
    room: Mailroom,
) -> io::Result<Box<dyn Comm>> {
    let room = Arc::new(room);
    let links = SocketLinks::establish(listener, cfg, room.clone())?;
    Ok(Box::new(RankComm::new(room, links, cfg.rank)))
}

/// Shared thread-hosting loop: per-rank obs registries, fault context,
/// panic → poison, transport teardown, and first-panic propagation.
fn run_ranks<T, F, M>(n: usize, f: &F, make: M) -> Vec<T>
where
    T: Send,
    F: Fn(Box<dyn Comm>) -> T + Sync,
    M: Fn(usize) -> Box<dyn Comm> + Sync,
{
    // When metrics are on, each rank thread records into its own scoped
    // registry (so concurrent ranks never contend on one map) which is
    // drained into the launcher's registry after the join: counters add
    // and histograms merge across ranks, giving cluster-wide totals and
    // across-rank latency distributions.
    let rank_regs: Vec<std::sync::Arc<bat_obs::Registry>> = if bat_obs::enabled() {
        (0..n)
            .map(|_| std::sync::Arc::new(bat_obs::Registry::new()))
            .collect()
    } else {
        Vec::new()
    };

    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    let make = &make;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for rank in 0..n {
            let rank_reg = rank_regs.get(rank).cloned();
            handles.push(scope.spawn(move || {
                let _obs_scope = rank_reg.map(bat_obs::scope);
                // Fault context: tag this thread with its rank so
                // `@rank=R` triggers can target a single rank.
                bat_faults::set_rank(Some(rank));
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let comm = make(rank);
                    // Kept aside so a panicking `f` can still poison: the
                    // primary handle moves into the closure.
                    let guard = comm.clone_comm();
                    let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(comm)));
                    if out.is_err() {
                        guard.poison();
                    }
                    // Socket ranks close their connections and join their
                    // reader threads here; a no-op in-process.
                    guard.shutdown();
                    match out {
                        Ok(v) => v,
                        Err(p) => std::panic::resume_unwind(p),
                    }
                }))
            }));
        }
        for (rank, h) in handles.into_iter().enumerate() {
            // Threads never leak panics past catch_unwind, so join() is
            // infallible here.
            match h.join().expect("rank thread join") {
                Ok(v) => results[rank] = Some(v),
                Err(p) => {
                    if first_panic.is_none() {
                        first_panic = Some(p);
                    }
                }
            }
        }
    });

    for reg in &rank_regs {
        reg.drain_into_current();
    }

    if let Some(p) = first_panic {
        std::panic::resume_unwind(p);
    }
    results
        .into_iter()
        .map(|r| r.expect("all ranks returned"))
        .collect()
}
