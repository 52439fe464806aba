//! The shard fabric across real process boundaries (DESIGN.md §14, §16):
//! the router and its stream front live in the test, every shard worker
//! is the shipped `batcli shard-worker` in its own process, wired over
//! Unix sockets through `BAT_CLUSTER`. The in-process suites
//! (`tests/shard_fabric.rs`, `tests/shard_failover.rs`) cover the policy
//! matrix; only here does a worker die by a real `SIGKILL` and come back
//! as a fresh process.

#[path = "../../../tests/common/mod.rs"]
mod common;

use bat_comm::{Cluster, ClusterConfig};
use bat_layout::Query;
use bat_obs::knobs::{self, EnvGuard};
use bat_serve::ServeOptions;
use bat_stream::{
    supervise, RequestError, ServerHandle, ShardFront, ShardRouter, StreamClient, Supervisor,
    SupervisorConfig, ERR_SHARD,
};
use common::{build_test_dataset, serial, served, wire_reference, BuildOpts, ScratchDir, Workload};
use libbat::Dataset;
use std::path::Path;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const HEARTBEAT: Duration = Duration::from_millis(250);
const MISSED_BEATS: u32 = 2;

/// 40 k uniform particles from 16 ranks under a target size below one
/// rank's payload: one leaf file per rank, so even four shards own four
/// leaves each and a failover resumes mid-slice.
fn dataset() -> ScratchDir {
    let scratch = build_test_dataset(
        &Workload::Uniform {
            per_rank: 2_500,
            seed: 3,
        },
        &BuildOpts {
            tag: "shard-proc",
            ranks: 16,
            target_file_bytes: 48 << 10,
            ..BuildOpts::default()
        },
    );
    let leaves = Dataset::open(&scratch.path, "s")
        .unwrap()
        .meta()
        .leaves
        .len();
    assert_eq!(leaves, 16, "one leaf per writing rank");
    scratch
}

/// The worker processes of one fabric; whatever is still running when the
/// test ends (a failed assertion included) is killed.
struct Workers(Mutex<Vec<Child>>);

impl Drop for Workers {
    fn drop(&mut self) {
        for child in self.0.lock().unwrap_or_else(|e| e.into_inner()).iter_mut() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// Router + front in this process, `shards` `batcli shard-worker`
/// processes behind them.
struct Fabric {
    front: ServerHandle,
    router: Arc<ShardRouter>,
    supervisor: Option<Supervisor>,
    workers: Arc<Workers>,
    respawns: Arc<AtomicUsize>,
    _sockets: ScratchDir,
}

impl Fabric {
    /// `replicas = 1`: a full mesh and nobody watching the workers.
    /// `replicas = 2`: the star topology a respawned worker can rejoin,
    /// under a supervisor that relaunches a lost worker.
    fn start(data: &Path, shards: usize, replicas: usize) -> Fabric {
        let sockets = ScratchDir::new("shard-proc-sock");
        let mut cfg = ClusterConfig::unix_in_dir(&sockets.path, 1 + shards);
        if replicas > 1 {
            cfg = cfg.star();
        }
        let workers = Arc::new(Workers(Mutex::new(
            (0..shards)
                .map(|s| spawn_worker(data, &cfg, s).expect("spawn batcli shard-worker"))
                .collect(),
        )));
        let comm = Cluster::connect(&cfg).expect("router connects to its workers");
        let respawns = Arc::new(AtomicUsize::new(0));
        let supervisor = (replicas > 1).then(|| {
            let (data, cfg) = (data.to_path_buf(), cfg.clone());
            let (workers, respawns) = (workers.clone(), respawns.clone());
            supervise(
                comm.clone_comm(),
                SupervisorConfig {
                    interval: HEARTBEAT,
                    missed_beats: MISSED_BEATS,
                },
                move |s| {
                    let mut kids = workers.0.lock().unwrap();
                    kids[s].kill().ok();
                    kids[s].wait().ok();
                    kids[s] = spawn_worker(&data, &cfg, s)?;
                    respawns.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                },
            )
        });
        let ds = Arc::new(Dataset::open(data, "s").unwrap());
        let router = {
            // The router reads its replica and hedge policy when it is built.
            let replicas = replicas.to_string();
            let _env = EnvGuard::set(&[
                (&knobs::SHARD_REPLICAS, Some(&replicas)),
                (&knobs::SHARD_HEDGE_MS, Some("off")),
            ]);
            Arc::new(ShardRouter::new(comm, ds))
        };
        let options = ServeOptions {
            workers: Some(4),
            queue_depth: Some(64),
            deadline: None,
            cache: None,
        };
        let front = ShardFront::bind("127.0.0.1:0", router.clone(), options)
            .and_then(ShardFront::spawn)
            .expect("start shard front");
        Fabric {
            front,
            router,
            supervisor,
            workers,
            respawns,
            _sockets: sockets,
        }
    }

    fn client(&self) -> StreamClient {
        StreamClient::connect(self.front.addr()).expect("client connects")
    }

    fn sigkill(&self, shard: usize) {
        self.workers.0.lock().unwrap()[shard]
            .kill()
            .expect("SIGKILL shard worker");
    }

    /// Drain the front, stop supervising (or exiting workers would be
    /// respawned), tell the workers to leave and see every one exit.
    fn stop(self) {
        self.front.shutdown();
        if let Some(supervisor) = self.supervisor {
            supervisor.stop();
        }
        self.router.shutdown();
        for child in self.workers.0.lock().unwrap().iter_mut() {
            child
                .wait()
                .expect("worker exits after the shutdown broadcast");
        }
    }
}

/// Shard `shard` (rank `1 + shard`) as the shipped worker binary.
fn spawn_worker(data: &Path, cfg: &ClusterConfig, shard: usize) -> std::io::Result<Child> {
    Command::new(env!("CARGO_BIN_EXE_batcli"))
        .arg("shard-worker")
        .arg(data)
        .arg("s")
        .env(knobs::CLUSTER.name, cfg.with_rank(1 + shard).to_spec())
        .spawn()
}

#[test]
fn worker_processes_merge_to_the_single_process_stream() {
    let _serial = serial();
    let data = dataset();
    let (mix, expected) = wire_reference(&data.path);
    for shards in [1, 2, 4] {
        let fabric = Fabric::start(&data.path, shards, 1);
        let mut client = fabric.client();
        for (q, want) in mix.iter().zip(&expected) {
            let got = served(&mut client, q).expect("healthy fabric answers");
            assert_eq!(got, *want, "{shards} worker process(es), {q:?}");
        }
        drop(client);
        fabric.stop();
    }
}

/// At `replicas = 1` nobody covers for a dead worker: the client must get
/// the typed shard error within a bounded wait — never a hang, never an
/// `Ok` assembled from the surviving shard's leaves.
#[test]
fn sigkilled_worker_without_a_replica_is_a_typed_bounded_error() {
    let _serial = serial();
    let data = dataset();
    let total = Dataset::open(&data.path, "s").unwrap().num_particles();
    let fabric = Fabric::start(&data.path, 2, 1);
    let mut client = fabric.client();
    assert_eq!(served(&mut client, &Query::new()).unwrap().points, total);

    fabric.sigkill(1);
    let killed = Instant::now();
    let mut error = None;
    for _ in 0..10 {
        match client.request(&Query::new(), |_| {}) {
            // The kill may not have landed yet; then the answer is whole.
            Ok(points) => {
                assert_eq!(points, total, "Ok must never be a partial answer");
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    let waited = killed.elapsed();
    match error {
        Some(RequestError::Server { code, .. }) => assert_eq!(code, ERR_SHARD),
        other => panic!("expected the typed shard error, got {other:?}"),
    }
    assert!(
        waited < Duration::from_secs(20),
        "dead shard took {waited:?} to surface"
    );
    drop(client);
    fabric.stop();
}

/// At `replicas = 2` under supervision a `SIGKILL` mid-load costs the
/// client nothing — no error, no changed byte — and the supervisor
/// replaces the process and re-admits it within a few heartbeats.
#[test]
fn supervised_replicas_ride_out_a_sigkill_and_the_worker_comes_back() {
    let _serial = serial();
    let data = dataset();
    let (mix, expected) = wire_reference(&data.path);
    let fabric = Fabric::start(&data.path, 4, 2);
    let mut client = fabric.client();
    let victim = 2;

    let mut killed = None;
    for rep in 0..6 {
        if rep == 2 {
            fabric.sigkill(victim);
            killed = Some(Instant::now());
        }
        for (q, want) in mix.iter().zip(&expected) {
            let got = served(&mut client, q).expect("a replica covers the dead worker");
            assert_eq!(got, *want, "failover changed the stream of {q:?}");
        }
    }
    let killed = killed.expect("the kill happened");

    // Detection takes the missed beats; allow two more rounds plus
    // scheduling slack, then the same again for the replacement to dial
    // the hub and be re-admitted.
    let detect_by = HEARTBEAT * (MISSED_BEATS + 2) + Duration::from_secs(2);
    while fabric.respawns.load(Ordering::SeqCst) == 0 {
        assert!(
            killed.elapsed() < detect_by,
            "supervisor never respawned the killed worker"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let respawned = Instant::now();
    let rejoin_by = HEARTBEAT * 2 + Duration::from_secs(3);
    while !fabric.router.shard_alive(victim) {
        assert!(
            respawned.elapsed() < rejoin_by,
            "respawned worker never rejoined the mesh"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        fabric.respawns.load(Ordering::SeqCst),
        1,
        "exactly the victim"
    );

    for (q, want) in mix.iter().zip(&expected) {
        let got = served(&mut client, q).expect("healed fabric answers");
        assert_eq!(got, *want, "healed fabric, {q:?}");
    }
    drop(client);
    fabric.stop();
}
