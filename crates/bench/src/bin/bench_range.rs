//! Range read-path benchmark (ISSUE 6): request coalescing against the
//! in-process object-store simulator, plus the cross-backend byte-identity
//! gate.
//!
//! ```sh
//! cargo run --release -p bat-bench --bin bench_range [--smoke]
//! ```
//!
//! `--smoke` (the CI gate) writes a clustered cosmology dataset, runs the
//! serving query mix against the simulated store twice — once with
//! prefetch/coalescing disabled (naive: one GET per treelet) and once with
//! the planner-driven coalesced prefetch — and asserts the coalesced run
//! issues **≤ 0.5×** the naive run's requests. It then replays the mix on
//! every reader backend (mmap, positioned file reads, simulated
//! store) across the cache matrix (off / 8 MiB / one page) and on a served
//! 4-worker vs 1-worker range-sim stream, asserting every result is
//! FNV-identical to the local mmap reference. Results land in
//! `BENCH_range.json` at the repository root.
//!
//! Without `--smoke`, sweeps the coalescing gap threshold and prints a
//! requests/bytes/simulated-time table.

use bat_comm::Cluster;
use bat_geom::{Aabb, Vec3};
use bat_iosim::{ObjectStore, ObjectStoreConfig};
use bat_layout::{PageCache, Query};
use bat_obs::knobs::{self, EnvGuard};
use bat_serve::ServeOptions;
use bat_stream::{StreamClient, StreamServer};
use bat_workloads::Cosmology;
use libbat::write::{write_particles, WriteConfig};
use libbat::{Dataset, ReadBackend};
use std::sync::Arc;

const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_range.json");

const RANKS: usize = 4;
const PARTICLES: u64 = 100_000;
const HALOS: usize = 24;
const GATE_RATIO: f64 = 0.5;

fn write_dataset(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bat-bench-range-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let cosmo = Cosmology::new(PARTICLES, HALOS, 7);
    let grid = cosmo.grid(RANKS);
    let d = dir.clone();
    Cluster::run(RANKS, move |comm| {
        let set = cosmo.generate_rank(&grid, comm.rank());
        // Small leaf files: the dataset fans out over many files and many
        // treelets, which is what gives the coalescer ranges to merge.
        let cfg = WriteConfig::with_target_size(64 << 10, set.bytes_per_particle() as u64);
        write_particles(&comm, set, grid.bounds_of(comm.rank()), &cfg, &d, "r").unwrap();
    });
    dir
}

/// The serving mix: bulk read, spatial+attribute filtered read, low-quality
/// interactive read — same shape as the identity-matrix integration test.
fn query_mix() -> Vec<Query> {
    vec![
        Query::new(),
        Query::new()
            .with_bounds(Aabb::new(Vec3::ZERO, Vec3::splat(0.5)))
            .with_filter(0, 0.6, 1.4),
        Query::new().with_quality(0.3),
    ]
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV fingerprints of the full query mix against one dataset handle.
fn mix_fnv(ds: &Dataset) -> Vec<u64> {
    query_mix()
        .iter()
        .map(|q| {
            let mut bytes: Vec<u8> = Vec::new();
            ds.query(q, |p| {
                bytes.extend_from_slice(&p.index.to_le_bytes());
                bytes.extend_from_slice(&p.position.x.to_bits().to_le_bytes());
                bytes.extend_from_slice(&p.position.y.to_bits().to_le_bytes());
                bytes.extend_from_slice(&p.position.z.to_bits().to_le_bytes());
                for a in p.attrs {
                    bytes.extend_from_slice(&a.to_bits().to_le_bytes());
                }
            })
            .expect("bench query succeeds");
            fnv1a(bytes)
        })
        .collect()
}

/// Run the mix against a fresh simulated store and return (store stats,
/// total treelet fetch stats) for one prefetch setting.
fn measure_store(dir: &std::path::Path, prefetch: bool, gap: Option<u64>) -> bat_iosim::StoreStats {
    // The reader snapshots `BAT_RANGE_*` at file-open time, so toggling the
    // env between runs (each with a fresh Dataset) selects the mode.
    let gap = gap.map(|g| g.to_string());
    let _env = EnvGuard::set(&[
        (
            &knobs::RANGE_PREFETCH,
            Some(if prefetch { "1" } else { "0" }),
        ),
        (&knobs::RANGE_GAP_BYTES, gap.as_deref()),
    ]);
    let store = ObjectStore::new(ObjectStoreConfig::default());
    let ds = Dataset::open(dir, "r").expect("open bench dataset");
    ds.set_backend(ReadBackend::RangeSim(store.clone()));
    ds.set_cache(None);
    for q in query_mix() {
        ds.query(&q, |_| {}).expect("store-backed query succeeds");
    }
    store.stats()
}

/// Byte-identity sweep: every backend × cache budget must reproduce the
/// mmap reference fingerprints. Returns the number of configurations run.
type BackendFactory = Box<dyn Fn() -> ReadBackend>;
type CacheFactory = Option<fn() -> Arc<PageCache>>;

fn identity_matrix(dir: &std::path::Path, reference: &[u64]) -> usize {
    let backends: Vec<(&str, BackendFactory)> = vec![
        ("mmap", Box::new(|| ReadBackend::Mmap)),
        ("range-file", Box::new(|| ReadBackend::RangeFile)),
        (
            "range-sim",
            Box::new(|| ReadBackend::RangeSim(ObjectStore::new(ObjectStoreConfig::default()))),
        ),
    ];
    let caches: Vec<(&str, CacheFactory)> = vec![
        ("off", None),
        ("8m", Some(|| PageCache::new(8 << 20))),
        ("1page", Some(|| PageCache::new(4096))),
    ];
    let mut configs = 0;
    for (bname, mk_backend) in &backends {
        for (cname, mk_cache) in &caches {
            let ds = Dataset::open(dir, "r").expect("open bench dataset");
            ds.set_backend(mk_backend());
            ds.set_cache(mk_cache.map(|mk| mk()));
            for pass in ["cold", "warm"] {
                let got = mix_fnv(&ds);
                assert_eq!(
                    got, reference,
                    "{bname}/cache-{cname}/{pass}: bytes diverged from mmap"
                );
            }
            configs += 1;
        }
    }
    configs
}

/// Served identity: stream the full dataset from a range-sim backed server
/// at 4 workers and at 1 worker; the two streams must carry identical
/// position/attribute bits (sorted, since worker interleaving reorders
/// chunks across files).
fn served_identity(dir: &std::path::Path) {
    let mut streams: Vec<Vec<u64>> = Vec::new();
    for workers in [4usize, 1] {
        let ds = Dataset::open(dir, "r").expect("open bench dataset");
        ds.set_backend(ReadBackend::RangeSim(ObjectStore::new(
            ObjectStoreConfig::default(),
        )));
        let options = ServeOptions {
            workers: Some(workers),
            queue_depth: Some(64),
            deadline: None,
            cache: Some(PageCache::new(8 << 20)),
        };
        let handle = StreamServer::bind_with("127.0.0.1:0", ds, options)
            .unwrap()
            .spawn()
            .unwrap();
        let mut client = StreamClient::connect(handle.addr()).unwrap();
        let mut bits = Vec::new();
        client
            .request_with_retry(&Query::new(), 64, |chunk| {
                for (j, p) in chunk.positions.iter().enumerate() {
                    bits.push(p.x.to_bits() as u64);
                    bits.push(p.y.to_bits() as u64);
                    bits.push(p.z.to_bits() as u64);
                    for a in 0..chunk.num_attrs {
                        bits.push(chunk.attr(j, a).to_bits());
                    }
                }
            })
            .expect("served range-sim query succeeds");
        bits.sort_unstable();
        streams.push(bits);
        // Disconnect before shutdown: join waits for live sessions.
        drop(client);
        handle.shutdown();
    }
    assert_eq!(
        streams[0], streams[1],
        "range-sim served streams diverged between 4 and 1 workers"
    );
}

fn run_smoke() {
    println!(
        "bench_range --smoke: {PARTICLES} cosmology particles ({HALOS} halos) over {RANKS} ranks"
    );
    let dir = write_dataset("smoke");

    // Reference fingerprints: local mmap, no cache.
    let ds = Dataset::open(&dir, "r").expect("open bench dataset");
    ds.set_backend(ReadBackend::Mmap);
    ds.set_cache(None);
    let reference = mix_fnv(&ds);
    drop(ds);

    // Gate 1: coalescing. Naive = prefetch off, one GET per treelet.
    let naive = measure_store(&dir, false, None);
    let coalesced = measure_store(&dir, true, None);
    let ratio = coalesced.requests as f64 / naive.requests.max(1) as f64;
    println!(
        "naive: {} GETs, {:.1} MiB, {:.1} sim-ms | coalesced: {} GETs, {:.1} MiB, {:.1} sim-ms",
        naive.requests,
        naive.bytes as f64 / (1 << 20) as f64,
        naive.sim_ns as f64 / 1e6,
        coalesced.requests,
        coalesced.bytes as f64 / (1 << 20) as f64,
        coalesced.sim_ns as f64 / 1e6,
    );
    assert!(
        ratio <= GATE_RATIO,
        "coalesced plan issued {:.2}x the naive request count (gate: <= {GATE_RATIO})",
        ratio
    );
    println!("gate OK: coalesced/naive = {ratio:.3} <= {GATE_RATIO}");

    // Gate 2: byte identity across the backend × cache matrix + the served
    // worker-pool pair.
    let configs = identity_matrix(&dir, &reference);
    served_identity(&dir);
    println!("gate OK: {configs} backend/cache configs + served 4w/1w are FNV-identical to mmap");

    let json = format!(
        "{{\n  \"bench\": \"range_smoke\",\n  \"particles\": {PARTICLES},\n  \
         \"naive_requests\": {},\n  \"coalesced_requests\": {},\n  \
         \"request_ratio\": {ratio:.4},\n  \"gate_ratio\": {GATE_RATIO},\n  \
         \"naive_bytes\": {},\n  \"coalesced_bytes\": {},\n  \
         \"naive_sim_ms\": {:.3},\n  \"coalesced_sim_ms\": {:.3},\n  \
         \"identity_configs\": {configs},\n  \"bytes_identical\": true\n}}\n",
        naive.requests,
        coalesced.requests,
        naive.bytes,
        coalesced.bytes,
        naive.sim_ns as f64 / 1e6,
        coalesced.sim_ns as f64 / 1e6,
    );
    bat_bench::report::append_run(JSON_PATH, &json).expect("append BENCH_range.json");
    println!("saved {JSON_PATH}");
    std::fs::remove_dir_all(&dir).ok();
}

fn run_full() {
    use bat_bench::report::Table;
    println!("bench_range: gap-threshold sweep, {PARTICLES} cosmology particles");
    let dir = write_dataset("full");
    let naive = measure_store(&dir, false, None);
    let mut table = Table::new(
        "object-store requests vs coalescing gap (serving query mix)".to_string(),
        &["gap", "requests", "vs_naive", "MiB_fetched", "sim_ms"],
    );
    table.row(vec![
        "naive".to_string(),
        naive.requests.to_string(),
        "1.00x".to_string(),
        format!("{:.1}", naive.bytes as f64 / (1 << 20) as f64),
        format!("{:.1}", naive.sim_ns as f64 / 1e6),
    ]);
    for gap in [0u64, 4 << 10, 16 << 10, 64 << 10, 256 << 10] {
        let s = measure_store(&dir, true, Some(gap));
        table.row(vec![
            format!("{}k", gap >> 10),
            s.requests.to_string(),
            format!("{:.2}x", s.requests as f64 / naive.requests.max(1) as f64),
            format!("{:.1}", s.bytes as f64 / (1 << 20) as f64),
            format!("{:.1}", s.sim_ns as f64 / 1e6),
        ]);
    }
    table.print();
    let csv = table.save_csv("bench_range").expect("write csv");
    println!("saved {}", csv.display());
    std::fs::remove_dir_all(&dir).ok();
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        run_smoke();
    } else {
        run_full();
    }
}
