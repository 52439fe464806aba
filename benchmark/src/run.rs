//! The six workloads: set-up, warm-up, the measured closed loops and the
//! oracle check of every result.
//!
//! Every caller of this system waits for its reply (a simulation rank for
//! the commit, a viewer for its points), so all loops are closed: a client
//! issues its next request only when the previous one has delivered its
//! last point.

use crate::datasets::{self, Config, Written};
use crate::inputs::{Class, Digest, Inputs, Spec, NUM_ATTRS};
use crate::trace::{Span, Tracer};
use bat_comm::{Cluster, TransportKind};
use bat_iosim::{ObjectStore, ObjectStoreConfig, StoreStats};
use bat_layout::reader::QueryStats;
use bat_layout::{BatFile, FilePlan, PageCache, PointRecord, Query};
use bat_serve::ServeOptions;
use bat_stream::{run_shard, ShardFront, ShardRouter, StreamClient, StreamServer, ROUTER_RANK};
use libbat::{Dataset, ReadBackend};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Budget of every page cache the harness creates: it holds the whole
/// decoded data set at any supported particle count.
pub const CACHE_BYTES: usize = 256 << 20;
/// `Busy` retries a served client makes before the request counts as failed.
pub const BUSY_RETRIES: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WriteCommit,
    LocalV1,
    LocalV2,
    RemoteCold,
    ServeWarm,
    ShardWarm,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::WriteCommit,
        Workload::LocalV1,
        Workload::LocalV2,
        Workload::RemoteCold,
        Workload::ServeWarm,
        Workload::ShardWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WriteCommit => "write-commit",
            Workload::LocalV1 => "local-v1",
            Workload::LocalV2 => "local-v2",
            Workload::RemoteCold => "remote-cold",
            Workload::ServeWarm => "serve-warm",
            Workload::ShardWarm => "shard-warm",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Workloads whose requests are relays between sleeping threads, or sleep
    /// through their GETs, run on one CPU: see `pin.rs`.
    pub fn one_cpu(self) -> bool {
        matches!(
            self,
            Workload::RemoteCold | Workload::ServeWarm | Workload::ShardWarm
        )
    }

    /// The on-disk configuration the workload's queries read.
    pub fn reads(self) -> Config {
        match self {
            Workload::WriteCommit | Workload::LocalV1 => Config::A,
            _ => Config::B,
        }
    }
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

/// Latencies and oracle verdicts of the operations one loop performed.
#[derive(Debug, Default, Clone)]
pub struct Acc {
    pub lat_ms: BTreeMap<Class, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub errors: Vec<String>,
}

impl Acc {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Count one operation that is checked but has no latency class.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(format!("{what}: {e}"));
        }
    }

    fn record(&mut self, spec: &Spec, ms: f64, result: Result<Digest, String>) {
        self.attempted += 1;
        match result {
            Ok(digest) if spec.check(&digest) => {
                self.lat_ms.entry(spec.class).or_default().push(ms);
            }
            Ok(digest) => self.fail(format!(
                "{:?} disagrees with its oracle: got {digest:?}, want {:?}",
                spec.class, spec.expect
            )),
            Err(e) => self.fail(format!("{:?} failed: {e}", spec.class)),
        }
    }

    pub fn merge(&mut self, other: Acc) {
        self.absorb_checks(&other);
        for (class, mut v) in other.lat_ms {
            self.lat_ms.entry(class).or_default().append(&mut v);
        }
    }

    /// Take over `other`'s verdicts but not its latencies (warm-up and
    /// set-up queries are checked like any other, never timed).
    pub fn absorb_checks(&mut self, other: &Acc) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in &other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e.clone());
            }
        }
    }

    /// Every reported-class latency of the loop.
    pub fn all_ms(&self) -> Vec<f64> {
        self.lat_ms.values().flatten().copied().collect()
    }

    pub fn queries(&self) -> u64 {
        self.lat_ms.values().map(|v| v.len() as u64).sum()
    }
}

pub fn add_stats(sum: &mut QueryStats, s: &QueryStats) {
    sum.nodes_visited += s.nodes_visited;
    sum.treelets_visited += s.treelets_visited;
    sum.points_tested += s.points_tested;
    sum.points_returned += s.points_returned;
    sum.pages_touched += s.pages_touched;
    sum.bitmap_hits += s.bitmap_hits;
    sum.bitmap_skips += s.bitmap_skips;
    sum.cache_hits += s.cache_hits;
    sum.cache_misses += s.cache_misses;
    sum.filter_hits += s.filter_hits;
    sum.filter_false_positives += s.filter_false_positives;
}

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

/// Where a workload's requests go.
pub enum Endpoint<'a> {
    /// In-process `Dataset::query`.
    Local(&'a Dataset),
    /// A stream server (single-process or shard front) on loopback.
    Net(SocketAddr),
}

pub enum Client<'a> {
    Local(&'a Dataset),
    Net(Box<StreamClient>),
}

impl Endpoint<'_> {
    pub fn connect(&self) -> Result<Client<'_>, String> {
        match self {
            Endpoint::Local(ds) => Ok(Client::Local(ds)),
            Endpoint::Net(addr) => StreamClient::connect(*addr)
                .map(|c| Client::Net(Box::new(c)))
                .map_err(|e| format!("connect {addr}: {e}")),
        }
    }
}

/// `Dataset::query`, taken apart at its layer boundaries so each call into
/// a layer gets a span: metadata cull, leaf open, per-file plan, per-file
/// execute. Same calls in the same order as the library's own loop; each
/// file plan is also handed to `on_plan`.
pub fn layered_query(
    ds: &Dataset,
    q: &Query,
    tr: &mut Tracer,
    qid: u64,
    on_point: &mut dyn FnMut(PointRecord<'_>),
    on_plan: &mut dyn FnMut(u32, &BatFile, &FilePlan),
) -> Result<QueryStats, String> {
    let q = &q
        .clone()
        .validated(ds.descs().len())
        .map_err(|e| e.to_string())?;
    let leaves = tr
        .span("cull", qid, |_| ds.meta().candidate_leaves(q))
        .map_err(|e| e.to_string())?;
    let mut stats = QueryStats::default();
    for leaf in leaves {
        let file = tr
            .span("open", qid, |_| ds.file(leaf))
            .map_err(|e| e.to_string())?;
        let plan = tr
            .span("plan", qid, |_| file.plan(q))
            .map_err(|e| e.to_string())?;
        on_plan(leaf, &file, &plan);
        let s = tr
            .span("execute", qid, |_| {
                file.execute_plan(q, &plan, &mut *on_point)
            })
            .map_err(|e| e.to_string())?;
        add_stats(&mut stats, &s);
    }
    Ok(stats)
}

impl Client<'_> {
    /// Run one query to its last point and reduce the stream to a digest.
    fn run(&mut self, q: &Query, tr: &mut Tracer, qid: u64) -> Result<Digest, String> {
        let mut digest = Digest::default();
        match self {
            Client::Local(ds) if tr.enabled() => {
                layered_query(
                    ds,
                    q,
                    tr,
                    qid,
                    &mut |p| digest.point(p.position, p.attrs),
                    &mut |_, _, _| {},
                )?;
            }
            Client::Local(ds) => {
                ds.query(q, |p| digest.point(p.position, p.attrs))
                    .map_err(|e| e.to_string())?;
            }
            Client::Net(client) => {
                let t0 = Instant::now();
                let mut first_chunk = None;
                let sent = client
                    .request_with_retry(q, BUSY_RETRIES, |chunk| {
                        first_chunk.get_or_insert_with(Instant::now);
                        debug_assert_eq!(chunk.num_attrs, NUM_ATTRS);
                        for (i, &p) in chunk.positions.iter().enumerate() {
                            digest.point(
                                p,
                                &chunk.attrs[i * chunk.num_attrs..(i + 1) * chunk.num_attrs],
                            );
                        }
                    })
                    .map_err(|e| e.to_string())?;
                if sent != digest.count {
                    return Err(format!(
                        "server sent {sent} points, client saw {}",
                        digest.count
                    ));
                }
                // Time to the first chunk (queue + plan + first treelets)
                // and the streaming remainder, as children of the query.
                let end = Instant::now();
                let first = first_chunk.unwrap_or(end);
                tr.record("first_chunk", qid, t0, first);
                tr.record("stream", qid, first, end);
            }
        }
        Ok(digest)
    }
}

/// Issue `specs` one after another, timing each from the request to its
/// last point and checking each result.
pub fn run_specs(
    client: &mut Client<'_>,
    specs: &[&Spec],
    acc: &mut Acc,
    tr: &mut Tracer,
    next_qid: &mut u64,
) {
    for spec in specs {
        let qid = *next_qid;
        *next_qid += 1;
        let t0 = Instant::now();
        let result = tr.span("query", qid, |tr| client.run(&spec.query, tr, qid));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        acc.record(spec, ms, result);
    }
}

// ---------------------------------------------------------------------------
// Set-up shared by every workload
// ---------------------------------------------------------------------------

/// What one set-up produces: the inputs, both committed data sets, the
/// oracle, and one simulated-store replay of the exploration path.
pub struct Ctx {
    pub inputs: Inputs,
    pub dir: PathBuf,
    /// The set-up's commits of each configuration, `SETUP_COMMITS` long.
    pub a: Vec<Written>,
    pub b: Vec<Written>,
    /// Simulated object-store time of the exploration path on config B.
    pub sim_session: SessionOut,
    /// Verdicts of the set-up's own checks.
    pub checks: Acc,
}

/// The simulated store: 10 ms to first byte, accounted per GET in
/// `sim_ns`; `sleep_ms` makes the latency real for `remote-cold`.
fn store(sleep_ms: u64) -> Arc<ObjectStore> {
    ObjectStore::new(ObjectStoreConfig {
        first_byte_us: 10_000,
        sleep_ms,
        ..ObjectStoreConfig::default()
    })
}

/// Wall sleep per GET of the `remote-cold` store.
pub const REMOTE_SLEEP_MS: u64 = 10;

/// Commits of each configuration per set-up: A, B, A, B, A, B, a later
/// commit replacing the earlier one the way the next timestep would. They
/// are the write samples of every workload but `write-commit`, which times
/// its own: taken before the workload's service exists, so whatever the
/// service leaves behind (a grown heap, idle threads, a host that has put a
/// sleeping guest aside) is not in them. A run has three set-ups, hence
/// nine samples; with three, or with commits made after the service, the
/// medians spread 10-30 % from run to run.
pub const SETUP_COMMITS: usize = 3;

impl Ctx {
    pub fn prepare(particles: usize, seed: u64, dir: &Path) -> Result<Ctx, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut inputs = Inputs::generate(particles, seed);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for _ in 0..SETUP_COMMITS {
            a.push(datasets::write(&inputs, dir, Config::A).map_err(|e| format!("write A: {e}"))?);
            b.push(datasets::write(&inputs, dir, Config::B).map_err(|e| format!("write B: {e}"))?);
        }

        // The reference path (config A, mmap, no cache): pins the
        // level-of-detail streams, and is itself checked against the oracle
        // on every query that has one.
        let mut checks = Acc::default();
        let ds = open_local(dir, Config::A)?;
        inputs.queries.take_reference(|q| {
            let mut d = Digest::default();
            ds.query(q, |p| d.point(p.position, p.attrs))
                .map_err(|e| e.to_string())?;
            Ok(d)
        })?;
        let mut client = Client::Local(&ds);
        let all: Vec<&Spec> = inputs.queries.all().collect();
        run_specs(&mut client, &all, &mut checks, &mut Tracer::off(), &mut 0);
        drop(ds);

        // Range backend against a store that accounts but does not sleep.
        let mut sim_acc = Acc::default();
        let sim_session = session(
            &inputs,
            dir,
            &store(0),
            &mut sim_acc,
            &mut Tracer::off(),
            &mut 0,
        )?;
        checks.absorb_checks(&sim_acc);
        Ok(Ctx {
            inputs,
            dir: dir.to_path_buf(),
            a,
            b,
            sim_session,
            checks,
        })
    }
}

pub fn open_local(dir: &Path, cfg: Config) -> Result<Dataset, String> {
    let ds = Dataset::open(dir, cfg.basename()).map_err(|e| format!("open {cfg:?}: {e}"))?;
    ds.set_backend(ReadBackend::Mmap);
    ds.set_cache(None);
    Ok(ds)
}

// ---------------------------------------------------------------------------
// remote-cold sessions
// ---------------------------------------------------------------------------

/// One exploration session against the simulated store.
#[derive(Debug, Clone, Default)]
pub struct SessionOut {
    /// Open -> last point of the path, wall seconds.
    pub secs: f64,
    /// `StoreStats` delta of the session (GETs, bytes, simulated ns).
    pub store: StoreStats,
    pub cache: bat_layout::CacheStats,
}

impl SessionOut {
    pub fn sim_ms(&self) -> f64 {
        self.store.sim_ns as f64 / 1e6
    }
}

/// A session is what a viewer does against a bucket it has never touched:
/// `Dataset::open`, the range backend, a fresh page cache, then the fixed
/// exploration path. Every query is a first touch of its region.
pub fn session(
    inputs: &Inputs,
    dir: &Path,
    store: &Arc<ObjectStore>,
    acc: &mut Acc,
    tr: &mut Tracer,
    next_qid: &mut u64,
) -> Result<SessionOut, String> {
    let before = store.stats();
    let t0 = Instant::now();
    let (ds, cache) = tr.span("session_open", *next_qid, |_| -> Result<_, String> {
        let ds = Dataset::open(dir, Config::B.basename()).map_err(|e| format!("open B: {e}"))?;
        ds.set_backend(ReadBackend::RangeSim(store.clone()));
        let cache = PageCache::new(CACHE_BYTES);
        ds.set_cache(Some(cache.clone()));
        Ok((ds, cache))
    })?;
    let mut client = Client::Local(&ds);
    run_specs(&mut client, &inputs.queries.session(), acc, tr, next_qid);
    let secs = t0.elapsed().as_secs_f64();
    let after = store.stats();
    Ok(SessionOut {
        secs,
        store: StoreStats {
            requests: after.requests - before.requests,
            bytes: after.bytes - before.bytes,
            sim_ns: after.sim_ns - before.sim_ns,
            cost: after.cost - before.cost,
        },
        cache: cache.stats(),
    })
}

// ---------------------------------------------------------------------------
// Services (what sits between the client and the data)
// ---------------------------------------------------------------------------

pub struct Service<'a> {
    pub endpoint: Endpoint<'a>,
    /// The page cache in front of the data, where the workload has one.
    pub cache: Option<Arc<PageCache>>,
}

fn serve_options(cache: Option<Arc<PageCache>>) -> ServeOptions {
    ServeOptions {
        workers: Some(crate::host_cores()),
        queue_depth: Some(64),
        deadline: None,
        cache,
    }
}

/// Bring up what `w` serves queries through, hand it to `body`, tear it
/// down. For `shard-warm` the body runs on the router rank's thread of the
/// in-process cluster, which is why it must be `Send`.
pub fn with_service<R: Send>(
    w: Workload,
    dir: &Path,
    body: impl FnOnce(&Service<'_>) -> R + Send,
) -> Result<R, String> {
    match w {
        Workload::WriteCommit | Workload::LocalV1 | Workload::LocalV2 | Workload::RemoteCold => {
            let ds = open_local(dir, w.reads())?;
            Ok(body(&Service {
                endpoint: Endpoint::Local(&ds),
                cache: None,
            }))
        }
        Workload::ServeWarm => {
            let ds =
                Dataset::open(dir, Config::B.basename()).map_err(|e| format!("open B: {e}"))?;
            let cache = PageCache::new(CACHE_BYTES);
            let handle =
                StreamServer::bind_with("127.0.0.1:0", ds, serve_options(Some(cache.clone())))
                    .and_then(StreamServer::spawn)
                    .map_err(|e| format!("start stream server: {e}"))?;
            let out = body(&Service {
                endpoint: Endpoint::Net(handle.addr()),
                cache: Some(cache),
            });
            handle.shutdown();
            Ok(out)
        }
        Workload::ShardWarm => {
            // Router policy is read when the router is built: one replica,
            // no hedging, so every query is exactly one stream per shard.
            std::env::set_var("BAT_SHARD_REPLICAS", "1");
            std::env::set_var("BAT_SHARD_HEDGE_MS", "off");
            let cache = PageCache::new(CACHE_BYTES);
            bat_layout::cache::install_global(Some(cache.clone()));
            let body = Mutex::new(Some(body));
            let mut per_rank = Cluster::run_with(
                TransportKind::Channel,
                3,
                |comm| -> Result<Option<R>, String> {
                    let ds = Dataset::open(dir, Config::B.basename())
                        .map_err(|e| format!("open B: {e}"))?;
                    if comm.rank() != ROUTER_RANK {
                        run_shard(&*comm, &ds).map_err(|e| format!("shard worker: {e}"))?;
                        return Ok(None);
                    }
                    let router = Arc::new(ShardRouter::new(comm, Arc::new(ds)));
                    let started =
                        ShardFront::bind("127.0.0.1:0", router.clone(), serve_options(None))
                            .and_then(|front| front.spawn());
                    let out = started.map(|handle| {
                        let body = body
                            .lock()
                            .expect("body lock")
                            .take()
                            .expect("one router rank");
                        let out = body(&Service {
                            endpoint: Endpoint::Net(handle.addr()),
                            cache: Some(cache.clone()),
                        });
                        handle.shutdown();
                        out
                    });
                    // Always release the shard ranks, or the cluster never joins.
                    router.shutdown();
                    out.map(Some).map_err(|e| format!("start shard front: {e}"))
                },
            );
            bat_layout::cache::install_global(None);
            std::env::remove_var("BAT_SHARD_REPLICAS");
            std::env::remove_var("BAT_SHARD_HEDGE_MS");
            let router = per_rank.swap_remove(ROUTER_RANK)?;
            for worker in per_rank {
                worker?;
            }
            Ok(router.expect("router rank returns the body's result"))
        }
    }
}

// ---------------------------------------------------------------------------
// Measured passes
// ---------------------------------------------------------------------------

/// One measured pass of a workload.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    pub acc: Acc,
    /// Seconds per unit of repeating work: one cycle, one session, or one
    /// write iteration (`session_p50_s`).
    pub unit_secs: Vec<f64>,
    /// First timed request -> last reply: the whole pass, or on
    /// `write-commit` its closing read-back (`queries_per_s` divides by it).
    pub secs: f64,
    pub spans: Vec<Span>,
    /// `remote-cold`: the sessions of the pass.
    pub sessions: Vec<SessionOut>,
    /// `write-commit`: the writes of the pass.
    pub writes_a: Vec<Written>,
    pub writes_b: Vec<Written>,
    /// Page-cache counters over the pass (served workloads).
    pub cache: Option<bat_layout::CacheStats>,
}

impl Pass {
    /// Add the pass that ran after this one (the same loop in the run's
    /// next set-up): samples pool, seconds add up.
    pub fn append(&mut self, next: Pass) {
        self.acc.merge(next.acc);
        self.unit_secs.extend(next.unit_secs);
        self.secs += next.secs;
        self.sessions.extend(next.sessions);
        self.writes_a.extend(next.writes_a);
        self.writes_b.extend(next.writes_b);
    }

    pub fn queries_per_s(&self) -> f64 {
        if self.secs > 0.0 {
            self.acc.queries() as f64 / self.secs
        } else {
            0.0
        }
    }
}

/// Closed loop of whole cycles from one connection for `seconds` (at least
/// two cycles). One client: the served workloads run on one CPU (`pin.rs`),
/// where a request keeps the client, a session thread and a pool worker busy
/// in turn and a second client would only queue behind the first.
pub fn cycle_pass(svc: &Service<'_>, inputs: &Inputs, seconds: f64, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let mut tr = Tracer::new(traced, Instant::now());
    let before = svc.cache.as_ref().map(|c| c.stats());
    let mut client = match svc.endpoint.connect() {
        Ok(c) => c,
        Err(e) => {
            pass.acc.check("connect", Err(e));
            return pass;
        }
    };
    let mut qid = 0;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || pass.unit_secs.len() < 2 {
        let tc = Instant::now();
        run_specs(
            &mut client,
            &inputs.queries.cycle(pass.unit_secs.len()),
            &mut pass.acc,
            &mut tr,
            &mut qid,
        );
        pass.unit_secs.push(tc.elapsed().as_secs_f64());
    }
    pass.secs = t0.elapsed().as_secs_f64();
    pass.spans = tr.spans;
    pass.cache = svc
        .cache
        .as_ref()
        .zip(before)
        .map(|(c, b)| cache_delta(&c.stats(), &b));
    pass
}

pub fn cache_delta(
    after: &bat_layout::CacheStats,
    before: &bat_layout::CacheStats,
) -> bat_layout::CacheStats {
    bat_layout::CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        rejected: after.rejected - before.rejected,
        entries: after.entries,
        bytes: after.bytes,
    }
}

/// `remote-cold`: whole sessions for `seconds` (at least three), each with
/// real first-byte latency.
pub fn session_pass(inputs: &Inputs, dir: &Path, seconds: f64, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let mut tr = Tracer::new(traced, Instant::now());
    let store = store(REMOTE_SLEEP_MS);
    let mut qid = 0;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || pass.sessions.len() < 3 {
        match session(inputs, dir, &store, &mut pass.acc, &mut tr, &mut qid) {
            Ok(out) => {
                pass.unit_secs.push(out.secs);
                pass.sessions.push(out);
            }
            Err(e) => {
                pass.acc.check("session", Err(e));
                break;
            }
        }
    }
    pass.secs = t0.elapsed().as_secs_f64();
    pass.spans = tr.spans;
    pass
}

/// Share of a `write-commit` pass spent committing; the rest reads back.
const COMMIT_SHARE: f64 = 0.85;

/// `write-commit`: whole iterations for `COMMIT_SHARE` of `seconds` (at
/// least three), then the read-back for the rest. One iteration commits the
/// timestep as A and as B (each verified) and reads one cycle from the
/// fresh A through `Dataset::query`, checked but not timed, so a
/// committed-but-wrong file fails the oracle here. The class latencies come
/// from the closing read-back of the last commit: whole cycles, at least
/// four (every box once). Timed inside the iterations, a handful of
/// sub-millisecond queries each right after eight rank threads had emptied
/// the caches, their medians spread 10-30 % from run to run.
pub fn write_pass(inputs: &Inputs, dir: &Path, seconds: f64, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let mut tr = Tracer::new(traced, Instant::now());
    let mut qid = 0;
    let mut checked = Acc::default();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < COMMIT_SHARE * seconds || pass.unit_secs.len() < 3 {
        let ti = Instant::now();
        for (cfg, sink) in [
            (Config::A, &mut pass.writes_a),
            (Config::B, &mut pass.writes_b),
        ] {
            let written = tr.span(
                if cfg == Config::A {
                    "write_a"
                } else {
                    "write_b"
                },
                qid,
                |_| datasets::write(inputs, dir, cfg),
            );
            match written {
                Ok(w) => {
                    pass.acc.check("write", Ok(()));
                    sink.push(w);
                }
                Err(e) => pass.acc.check("write", Err(e.to_string())),
            }
        }
        match open_local(dir, Config::A) {
            Ok(ds) => run_specs(
                &mut Client::Local(&ds),
                &inputs.queries.cycle(pass.unit_secs.len()),
                &mut checked,
                &mut Tracer::off(),
                &mut qid,
            ),
            Err(e) => pass.acc.check("read back", Err(e)),
        }
        pass.unit_secs.push(ti.elapsed().as_secs_f64());
    }
    pass.acc.absorb_checks(&checked);
    match open_local(dir, Config::A) {
        Ok(ds) => {
            // A fixed length, not "until `seconds` are up": the last
            // iteration overshoots its share by up to its own length, and
            // the read-back must not shrink by that.
            let read_start = Instant::now();
            let mut cycle = 0;
            while read_start.elapsed().as_secs_f64() < (1.0 - COMMIT_SHARE) * seconds || cycle < 4 {
                run_specs(
                    &mut Client::Local(&ds),
                    &inputs.queries.cycle(cycle),
                    &mut pass.acc,
                    &mut tr,
                    &mut qid,
                );
                cycle += 1;
            }
            pass.secs = read_start.elapsed().as_secs_f64();
        }
        Err(e) => pass.acc.check("read back", Err(e)),
    }
    pass.spans = tr.spans;
    pass
}

/// Warm-up before the clock starts: one cycle on the local paths (leaf
/// files opened, OS cache touched); on the served paths the cycle twice,
/// sequentially from one client, so the cache fills in a deterministic
/// order. `remote-cold` and `write-commit` have none: first touches and
/// fresh commits are what they measure.
pub fn warm_up(w: Workload, svc: &Service<'_>, inputs: &Inputs, checks: &mut Acc) {
    let cycles = match w {
        Workload::LocalV1 | Workload::LocalV2 => 1,
        Workload::ServeWarm | Workload::ShardWarm => 2,
        Workload::WriteCommit | Workload::RemoteCold => return,
    };
    let mut acc = Acc::default();
    match svc.endpoint.connect() {
        Ok(mut client) => {
            for c in 0..cycles {
                run_specs(
                    &mut client,
                    &inputs.queries.cycle(c),
                    &mut acc,
                    &mut Tracer::off(),
                    &mut 0,
                );
            }
        }
        Err(e) => acc.check("warm-up connect", Err(e)),
    }
    checks.absorb_checks(&acc);
}

/// Result of running one workload's measured part inside its service.
pub struct Measured {
    /// When set-up (including warm-up) was complete.
    pub ready: Instant,
    /// Warm-up verdicts.
    pub checks: Acc,
    /// The untraced pass: every end-to-end number comes from here.
    pub untraced: Pass,
    /// The traced pass (`--trace 1` only).
    pub traced: Option<Pass>,
    /// Global obs registry delta over the traced pass.
    pub obs: Option<bat_obs::Snapshot>,
}

/// How much of a workload to run inside its service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// Untraced measured pass of `seconds`.
    Measure { seconds: f64 },
    /// Untraced pass of `seconds / 2`, then a traced pass of `seconds / 2`
    /// with `bat_obs` enabled.
    Trace { seconds: f64 },
}

pub fn run_in_service(w: Workload, ctx: &Ctx, phase: Phase) -> Result<Measured, String> {
    let inputs = &ctx.inputs;
    let dir = ctx.dir.as_path();
    let measured = with_service(w, dir, |svc| {
        let mut checks = Acc::default();
        warm_up(w, svc, inputs, &mut checks);
        let ready = Instant::now();
        let pass = |seconds: f64, traced: bool| match w {
            Workload::WriteCommit => write_pass(inputs, dir, seconds, traced),
            Workload::RemoteCold => session_pass(inputs, dir, seconds, traced),
            _ => cycle_pass(svc, inputs, seconds, traced),
        };
        let (untraced, traced) = match phase {
            Phase::Measure { seconds } => (pass(seconds, false), None),
            Phase::Trace { seconds } => {
                let untraced = pass(seconds / 2.0, false);
                bat_obs::Registry::global().clear();
                let on = bat_obs::enable();
                let traced = pass(seconds / 2.0, true);
                drop(on);
                (untraced, Some(traced))
            }
        };
        Measured {
            ready,
            checks,
            untraced,
            traced,
            obs: None,
        }
    })?;
    // Shard workers' registries drain into the global one only when their
    // cluster joins, so the snapshot is taken after the service is down.
    let obs = measured
        .traced
        .is_some()
        .then(|| bat_obs::Registry::global().snapshot());
    Ok(Measured { obs, ..measured })
}
