//! Multi-process shard-fabric benchmark (ISSUE 7): throughput and tail
//! latency of `shard-serve`-style fan-out at 1, 2, and 4 shard worker
//! *processes*, with two hard gates and one bounded-failure demonstration.
//!
//! ```sh
//! cargo run --release -p bat-bench --bin bench_shard [--smoke]
//! ```
//!
//! For each shard count the bench spawns that many worker processes
//! (re-executing this binary with `--shard-worker`), meshes them with the
//! router over Unix sockets, fronts the router with the bounded stream
//! server, and drives a mixed query workload through a real client.
//! Hard gate #1: every merged point stream is FNV-identical to the
//! single-process `QueryPlan` answer — sharding must never change bytes.
//! Hard gate #2: SIGKILLing a shard process (at `replicas = 1`) yields a
//! typed server error within a bounded wait — never a hang, never partial
//! data passed off as a complete result. Hard gate #3 (DESIGN.md §16): a
//! supervised fabric at `replicas = 2` rides out a SIGKILL mid-load with
//! zero shard errors and byte-identical streams, and the supervisor
//! respawns and re-admits the worker within a couple of heartbeat
//! intervals. Failpoint builds add hard gate #4: against a delayed shard,
//! hedged reads win and improve p99 without changing bytes
//! (`BENCH_HEDGE_WARN_ONLY=1` demotes the p99 gate on noisy hosts). QPS
//! and p99 are reported (and saved to `BENCH_shard.json`) but not gated:
//! wall-clock ratios across process counts are too host-dependent for CI.

use bat_comm::{Cluster, ClusterConfig};
use bat_geom::{Aabb, Vec3};
use bat_layout::Query;
use bat_obs::knobs::{self, EnvGuard};
use bat_serve::{QueryPlan, ServeOptions};
use bat_stream::{RequestError, ShardFront, ShardRouter, StreamClient, ERR_SHARD};
use bat_workloads::{uniform, RankGrid};
use libbat::write::{write_particles, WriteConfig};
use libbat::Dataset;
use std::sync::Arc;
use std::time::{Duration, Instant};

const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");

const RANKS: usize = 4;
const PER_RANK: u64 = 10_000;
/// Timed repetitions of the whole query mix per shard count.
const REPS: usize = 24;

/// FNV-1a over the point stream (positions then attrs, in arrival order):
/// the identity a shard fan-out must preserve bit for bit.
#[derive(PartialEq, Eq, Debug, Clone, Copy)]
struct Digest(u64, u64);

struct StreamHash {
    h: u64,
    points: u64,
}

impl StreamHash {
    fn new() -> StreamHash {
        StreamHash {
            h: 0xcbf2_9ce4_8422_2325,
            points: 0,
        }
    }

    fn byte(&mut self, b: u8) {
        self.h ^= b as u64;
        self.h = self.h.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn point(&mut self, pos: Vec3, attrs: impl Iterator<Item = f64>) {
        for c in [pos.x, pos.y, pos.z] {
            for b in c.to_le_bytes() {
                self.byte(b);
            }
        }
        for a in attrs {
            for b in a.to_le_bytes() {
                self.byte(b);
            }
        }
        self.points += 1;
    }

    fn digest(&self) -> Digest {
        Digest(self.h, self.points)
    }
}

/// The benchmark's query mix: a full scan, a progressive pass, and two
/// spatially bounded interactive queries.
fn query_mix() -> Vec<Query> {
    vec![
        Query::new(),
        Query::new().with_quality(0.3),
        Query::new()
            .with_quality(0.8)
            .with_bounds(Aabb::new(Vec3::splat(0.1), Vec3::splat(0.7))),
        Query::new()
            .with_bounds(Aabb::new(Vec3::ZERO, Vec3::new(1.0, 0.5, 1.0)))
            .with_filter(0, 0.2, 0.9),
    ]
}

fn write_dataset(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bat-bench-shard-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let grid = RankGrid::new_3d(RANKS, Aabb::unit());
    let d = dir.clone();
    Cluster::run(RANKS, move |comm| {
        let set = uniform::generate_rank(&grid, comm.rank(), PER_RANK, 3);
        // Small leaf files so even 4 shards each own several leaves.
        let cfg = WriteConfig::with_target_size(48 << 10, set.bytes_per_particle() as u64);
        write_particles(&comm, set, grid.bounds_of(comm.rank()), &cfg, &d, "shard").unwrap();
    });
    dir
}

/// Single-process ground truth for [`query_mix`].
fn baseline_digests(ds: &Dataset) -> Vec<Digest> {
    query_mix()
        .iter()
        .map(|q| {
            let plan = QueryPlan::new(ds, q).expect("plan");
            let mut hash = StreamHash::new();
            plan.execute(None, |p| hash.point(p.position, p.attrs.iter().copied()))
                .expect("baseline execute");
            hash.digest()
        })
        .collect()
}

/// A running shard fabric: router + front in-process, `shards` worker
/// child processes over Unix sockets — meshed, or star-wired with a
/// heartbeat supervisor when `FabricOpts::supervised` (DESIGN.md §16).
#[derive(Default, Clone)]
struct FabricOpts {
    /// Star topology + supervisor with a respawn callback.
    supervised: bool,
    /// Extra env vars for the worker children only (e.g. `BAT_FAULTS`).
    worker_env: Vec<(String, String)>,
}

struct Fabric {
    handle: bat_stream::ServerHandle,
    router: Arc<ShardRouter>,
    supervisor: Option<bat_stream::Supervisor>,
    children: Arc<std::sync::Mutex<Vec<Option<std::process::Child>>>>,
    sock_dir: std::path::PathBuf,
    addr: std::net::SocketAddr,
}

impl Fabric {
    fn spawn(dataset_dir: &std::path::Path, tag: &str, shards: usize) -> Fabric {
        Fabric::spawn_opts(dataset_dir, tag, shards, FabricOpts::default())
    }

    fn spawn_opts(
        dataset_dir: &std::path::Path,
        tag: &str,
        shards: usize,
        opts: FabricOpts,
    ) -> Fabric {
        let sock_dir = std::env::temp_dir().join(format!(
            "bat-bench-shard-sock-{tag}-{shards}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&sock_dir).expect("socket dir");
        let mut cfg = ClusterConfig::unix_in_dir(&sock_dir, 1 + shards);
        if opts.supervised {
            cfg = cfg.star();
        }
        let exe = std::env::current_exe().expect("current_exe");
        let spawn_worker = {
            let exe = exe.clone();
            let dir = dataset_dir.to_path_buf();
            let cfg = cfg.clone();
            let envs = opts.worker_env.clone();
            move |s: usize| -> std::io::Result<std::process::Child> {
                let mut cmd = std::process::Command::new(&exe);
                cmd.arg("--shard-worker")
                    .arg(&dir)
                    .arg("shard")
                    .env(knobs::CLUSTER.name, cfg.with_rank(1 + s).to_spec());
                for (k, v) in &envs {
                    cmd.env(k, v);
                }
                cmd.spawn()
            }
        };
        let children: Arc<std::sync::Mutex<Vec<Option<std::process::Child>>>> =
            Arc::new(std::sync::Mutex::new(
                (0..shards)
                    .map(|s| Some(spawn_worker(s).expect("spawn shard worker")))
                    .collect(),
            ));
        let comm = Cluster::connect(&cfg).expect("router connect");
        let supervisor = opts.supervised.then(|| {
            let children = children.clone();
            bat_stream::supervise(
                comm.clone_comm(),
                bat_stream::SupervisorConfig::from_env(),
                move |s| {
                    let mut kids = children.lock().unwrap();
                    if let Some(mut old) = kids[s].take() {
                        old.kill().ok();
                        old.wait().ok();
                    }
                    kids[s] = Some(spawn_worker(s)?);
                    Ok(())
                },
            )
        });
        let ds = Dataset::open(dataset_dir, "shard").expect("open dataset");
        let router = Arc::new(ShardRouter::new(comm, Arc::new(ds)));
        let options = ServeOptions {
            workers: Some(4),
            queue_depth: Some(64),
            deadline: None,
            cache: None,
        };
        let front = ShardFront::bind("127.0.0.1:0", router.clone(), options).expect("bind front");
        let addr = front.local_addr().expect("front addr");
        let handle = front.spawn().expect("start front");
        Fabric {
            handle,
            router,
            supervisor,
            children,
            sock_dir,
            addr,
        }
    }

    /// SIGKILL shard `s`'s current worker process.
    fn kill_worker(&self, s: usize) {
        if let Some(c) = self.children.lock().unwrap()[s].as_mut() {
            c.kill().expect("kill shard worker");
        }
    }

    fn teardown(self) {
        self.handle.shutdown();
        // Supervision stops before the shutdown broadcast, or exiting
        // workers would be respawned mid-teardown.
        if let Some(sup) = self.supervisor {
            sup.stop();
        }
        self.router.shutdown();
        for c in self.children.lock().unwrap().iter_mut() {
            if let Some(c) = c.as_mut() {
                c.wait().ok();
            }
        }
        std::fs::remove_dir_all(&self.sock_dir).ok();
    }
}

/// One timed request; the digest doubles as the identity check.
fn timed_request(client: &mut StreamClient, q: &Query) -> (Duration, Digest) {
    let mut hash = StreamHash::new();
    let t0 = Instant::now();
    client
        .request_with_retry(q, 16, |c| {
            for (i, p) in c.positions.iter().enumerate() {
                hash.point(*p, (0..c.num_attrs).map(|a| c.attr(i, a)));
            }
        })
        .expect("bench request succeeds");
    (t0.elapsed(), hash.digest())
}

struct ShardResult {
    shards: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Drive the query mix through a `shards`-process fabric: identity hard
/// gate on the first pass, then `REPS` timed passes for QPS/p99.
fn measure(dataset_dir: &std::path::Path, expected: &[Digest], shards: usize) -> ShardResult {
    let fabric = Fabric::spawn(dataset_dir, "qps", shards);
    let mut client = StreamClient::connect(fabric.addr).expect("client connect");
    let mix = query_mix();

    for (q, want) in mix.iter().zip(expected) {
        let (_, got) = timed_request(&mut client, q);
        assert_eq!(
            got, *want,
            "HARD GATE: {shards}-shard merged stream differs from single-process"
        );
    }

    let mut latencies = Vec::with_capacity(REPS * mix.len());
    let t0 = Instant::now();
    for _ in 0..REPS {
        for q in &mix {
            let (dt, _) = timed_request(&mut client, q);
            latencies.push(dt);
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    drop(client);
    fabric.teardown();

    latencies.sort();
    let pct = |p: f64| {
        let idx = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[idx].as_secs_f64() * 1e3
    };
    ShardResult {
        shards,
        qps: latencies.len() as f64 / wall,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
    }
}

/// SIGKILL one shard worker under a live fabric and prove the failure is
/// typed and bounded. The kill races the in-flight query: either that
/// request observes it mid-stream or the next one finds the peer dead —
/// both must surface as a server error, never a hang and never an `Ok`
/// built from partial data.
fn killed_shard_demo(dataset_dir: &std::path::Path) -> (u32, f64) {
    let fabric = Fabric::spawn(dataset_dir, "kill", 2);
    let mut client = StreamClient::connect(fabric.addr).expect("client connect");

    // Warm request proves the fabric is healthy before the kill.
    let (_, healthy) = timed_request(&mut client, &Query::new());
    assert!(healthy.1 > 0, "healthy fabric must stream points");

    let t0 = Instant::now();
    let mut error = None;
    for attempt in 0..10u32 {
        if attempt == 0 {
            fabric.kill_worker(1);
        }
        match client.request(&Query::new(), |_| {}) {
            // The kill may not have landed yet; a completed answer must
            // still be the full one (the client verifies its Done count).
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    let elapsed = t0.elapsed();
    let code = match error {
        Some(RequestError::Server { code, message }) => {
            assert_eq!(
                code, ERR_SHARD,
                "expected the shard-comm error code, got {code}: {message}"
            );
            code
        }
        Some(other) => panic!("HARD GATE: expected a typed server error, got {other}"),
        None => panic!("HARD GATE: killed shard never surfaced as an error"),
    };
    assert!(
        elapsed < Duration::from_secs(20),
        "HARD GATE: killed shard took {elapsed:?} to surface (must be bounded)"
    );
    drop(client);
    fabric.teardown();
    (code, elapsed.as_secs_f64() * 1e3)
}

struct FailoverResult {
    requests: usize,
    detect_ms: f64,
    restored_ms: f64,
}

/// Self-healing demo (DESIGN.md §16): a supervised 4-worker fabric with
/// `BAT_SHARD_REPLICAS=2` takes a SIGKILL mid-load. Hard gates: every
/// query — including the ones racing the kill — returns the
/// FNV-identical stream with zero shard errors (the replica absorbs the
/// loss), and the supervisor respawns the worker and restores mesh
/// membership within a couple of heartbeat intervals.
fn failover_demo(dataset_dir: &std::path::Path, expected: &[Digest]) -> FailoverResult {
    const HEARTBEAT_MS: u64 = 250;
    const MISSED_BEATS: u64 = 2;
    let _env = EnvGuard::set(&[
        (&knobs::SHARD_REPLICAS, Some("2")),
        (&knobs::SHARD_HEDGE_MS, Some("off")),
        (&knobs::SHARD_HEARTBEAT_MS, Some("250")),
        (&knobs::SHARD_MISSED_BEATS, Some("2")),
    ]);
    let _on = bat_obs::enable();
    let respawns = bat_obs::Registry::global().counter("shard.respawn");
    let respawns_before = respawns.get();
    let fabric = Fabric::spawn_opts(
        dataset_dir,
        "failover",
        4,
        FabricOpts {
            supervised: true,
            worker_env: Vec::new(),
        },
    );
    let mut client = StreamClient::connect(fabric.addr).expect("client connect");
    let mix = query_mix();

    // Mixed load with a SIGKILL landing mid-stream. No client retry: a
    // single ERR_SHARD fails the gate.
    let victim = 2usize;
    let mut requests = 0usize;
    let mut t_kill = None;
    for rep in 0..6 {
        for (q, want) in mix.iter().zip(expected) {
            if rep == 2 && t_kill.is_none() {
                fabric.kill_worker(victim);
                t_kill = Some(Instant::now());
            }
            let mut hash = StreamHash::new();
            client
                .request(q, |c| {
                    for (i, p) in c.positions.iter().enumerate() {
                        hash.point(*p, (0..c.num_attrs).map(|a| c.attr(i, a)));
                    }
                })
                .expect("HARD GATE: query failed despite replica coverage");
            assert_eq!(
                hash.digest(),
                *want,
                "HARD GATE: failover changed the merged stream"
            );
            requests += 1;
        }
    }
    let t_kill = t_kill.expect("kill happened");

    // The supervisor must notice the death (missed beats), respawn the
    // worker, and the replacement must rejoin: membership restored
    // within ~2 heartbeat intervals on top of the detection window.
    let detect_budget =
        Duration::from_millis(HEARTBEAT_MS * (MISSED_BEATS + 2)) + Duration::from_secs(2);
    let detect_ms = loop {
        if respawns.get() > respawns_before {
            break t_kill.elapsed().as_secs_f64() * 1e3;
        }
        assert!(
            t_kill.elapsed() < detect_budget,
            "HARD GATE: supervisor never respawned the killed worker"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let restore_budget = Duration::from_millis(HEARTBEAT_MS * 2) + Duration::from_secs(3);
    let t_respawn = Instant::now();
    let restored_ms = loop {
        if fabric.router.shard_alive(victim) {
            break t_kill.elapsed().as_secs_f64() * 1e3;
        }
        assert!(
            t_respawn.elapsed() < restore_budget,
            "HARD GATE: respawned worker never rejoined the mesh"
        );
        std::thread::sleep(Duration::from_millis(10));
    };

    // The healed fabric still serves identically.
    for (q, want) in mix.iter().zip(expected) {
        let (_, got) = timed_request(&mut client, q);
        assert_eq!(got, *want, "HARD GATE: healed fabric stream differs");
        requests += 1;
    }
    drop(client);
    fabric.teardown();
    FailoverResult {
        requests,
        detect_ms,
        restored_ms,
    }
}

struct HedgeResult {
    ran: bool,
    p99_off_ms: f64,
    p99_on_ms: f64,
    hedges_won: u64,
}

/// Hedged-read demo (failpoint builds only): one shard delayed 25 ms per
/// leaf. With `BAT_SHARD_HEDGE_MS=10` the router re-issues slow
/// sub-queries to the replica; p99 must improve and hedges must win,
/// with the stream identity untouched. `BENCH_HEDGE_WARN_ONLY=1` demotes
/// the p99 gate to a warning (shared CI hosts).
#[cfg(feature = "failpoints")]
fn hedge_demo(dataset_dir: &std::path::Path, expected: &[Digest]) -> HedgeResult {
    const DELAY_REPS: usize = 6;
    let delayed_env = vec![(
        "BAT_FAULTS".to_string(),
        "shard.exec=delay:25@rank=2".to_string(),
    )];
    let mix: Vec<Query> = query_mix().into_iter().take(2).collect();
    let run_phase = |hedge: &str| -> (f64, Vec<Digest>) {
        let _env = EnvGuard::set(&[
            (&knobs::SHARD_REPLICAS, Some("2")),
            (&knobs::SHARD_HEDGE_MS, Some(hedge)),
        ]);
        let fabric = Fabric::spawn_opts(
            dataset_dir,
            "hedge",
            2,
            FabricOpts {
                supervised: false,
                worker_env: delayed_env.clone(),
            },
        );
        let mut client = StreamClient::connect(fabric.addr).expect("client connect");
        let mut latencies = Vec::new();
        let mut digests = Vec::new();
        for rep in 0..DELAY_REPS {
            for q in &mix {
                let (dt, d) = timed_request(&mut client, q);
                latencies.push(dt);
                if rep == 0 {
                    digests.push(d);
                }
            }
        }
        drop(client);
        fabric.teardown();
        latencies.sort();
        let idx = ((latencies.len() as f64 * 0.99).ceil() as usize).clamp(1, latencies.len()) - 1;
        (latencies[idx].as_secs_f64() * 1e3, digests)
    };

    let _on = bat_obs::enable();
    let won = bat_obs::Registry::global().counter("shard.hedge.won");
    let (p99_off_ms, digests_off) = run_phase("off");
    let won_before = won.get();
    let (p99_on_ms, digests_on) = run_phase("10");
    let hedges_won = won.get() - won_before;

    let want: Vec<Digest> = expected.iter().take(2).copied().collect();
    assert_eq!(digests_off, want, "HARD GATE: delayed stream differs");
    assert_eq!(digests_on, want, "HARD GATE: hedged stream differs");
    assert!(
        hedges_won > 0,
        "HARD GATE: a 25 ms/leaf handicap must make hedges win"
    );
    if p99_on_ms >= p99_off_ms {
        let msg =
            format!("hedged p99 {p99_on_ms:.2} ms did not improve on unhedged {p99_off_ms:.2} ms");
        if std::env::var("BENCH_HEDGE_WARN_ONLY").is_ok() {
            eprintln!("WARN: {msg}");
        } else {
            panic!("HARD GATE: {msg} (set BENCH_HEDGE_WARN_ONLY=1 on noisy hosts)");
        }
    }
    HedgeResult {
        ran: true,
        p99_off_ms,
        p99_on_ms,
        hedges_won,
    }
}

#[cfg(not(feature = "failpoints"))]
fn hedge_demo(_dataset_dir: &std::path::Path, _expected: &[Digest]) -> HedgeResult {
    println!("hedge demo skipped (build without --features failpoints)");
    HedgeResult {
        ran: false,
        p99_off_ms: 0.0,
        p99_on_ms: 0.0,
        hedges_won: 0,
    }
}

fn run_smoke() {
    println!(
        "bench_shard --smoke: {} particles over {RANKS} ranks, shard processes 1/2/4",
        RANKS as u64 * PER_RANK
    );
    let dir = write_dataset("smoke");
    let ds = Dataset::open(&dir, "shard").expect("open bench dataset");
    let leaves = ds.meta().leaves.len();
    assert!(leaves >= 4, "bench dataset must span several leaves");
    let expected = baseline_digests(&ds);
    drop(ds);

    let mut results = Vec::new();
    for shards in [1usize, 2, 4] {
        let r = measure(&dir, &expected, shards);
        println!(
            "{} shard(s): {:.0} req/s, p50 {:.2} ms, p99 {:.2} ms (streams identical to single-process)",
            r.shards, r.qps, r.p50_ms, r.p99_ms
        );
        results.push(r);
    }

    let (kill_code, kill_ms) = killed_shard_demo(&dir);
    println!(
        "killed shard: typed server error {kill_code} after {kill_ms:.1} ms — no hang, no partial success"
    );

    let fo = failover_demo(&dir, &expected);
    println!(
        "failover: {} requests over a SIGKILL with replicas=2 — zero shard errors, \
         respawn {:.0} ms, membership restored {:.0} ms after the kill",
        fo.requests, fo.detect_ms, fo.restored_ms
    );

    let hedge = hedge_demo(&dir, &expected);
    if hedge.ran {
        println!(
            "hedged reads: p99 {:.2} ms -> {:.2} ms against a 25 ms/leaf slow shard, \
             {} hedges won, streams identical",
            hedge.p99_off_ms, hedge.p99_on_ms, hedge.hedges_won
        );
    }

    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"shards\": {}, \"qps\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}",
                r.shards, r.qps, r.p50_ms, r.p99_ms
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"shard_smoke\",\n  \"particles\": {},\n  \"leaves\": {leaves},\n  \
         \"requests_per_shard_count\": {},\n  \"bytes_identical\": true,\n  \
         \"killed_shard_error_code\": {kill_code},\n  \"killed_shard_detect_ms\": {kill_ms:.1},\n  \
         \"failover\": {{\"requests\": {}, \"shard_errors\": 0, \"respawn_ms\": {:.1}, \
         \"membership_restored_ms\": {:.1}}},\n  \
         \"hedge\": {{\"ran\": {}, \"p99_off_ms\": {:.3}, \"p99_on_ms\": {:.3}, \"hedges_won\": {}}},\n  \
         \"shard_counts\": [\n{}\n  ]\n}}\n",
        RANKS as u64 * PER_RANK,
        REPS * query_mix().len(),
        fo.requests,
        fo.detect_ms,
        fo.restored_ms,
        hedge.ran,
        hedge.p99_off_ms,
        hedge.p99_on_ms,
        hedge.hedges_won,
        rows.join(",\n"),
    );
    bat_bench::report::append_run(JSON_PATH, &json).expect("append BENCH_shard.json");
    println!("saved {JSON_PATH}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Child-process mode: one shard worker of a fabric spawned by this same
/// binary. Topology arrives in `BAT_CLUSTER`, like `batcli shard-worker`.
fn run_worker(dir: &str, basename: &str) {
    let cfg = ClusterConfig::from_env()
        .expect("--shard-worker needs BAT_CLUSTER")
        .expect("BAT_CLUSTER parses");
    let comm = Cluster::connect(&cfg).expect("worker connect");
    let ds = Dataset::open(dir, basename).expect("worker open dataset");
    bat_stream::run_shard(&*comm, &ds).expect("shard serve loop");
    comm.shutdown();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--shard-worker") {
        let dir = args.get(1).expect("--shard-worker <dir> <basename>");
        let base = args.get(2).expect("--shard-worker <dir> <basename>");
        run_worker(dir, base);
    } else {
        // `--smoke` and the default run the same workload: the fixture is
        // already CI-sized. The flag is accepted for CLI uniformity.
        run_smoke();
    }
}
