//! Attribute-index benchmark (ISSUE 10): exact treelet culling by the
//! packed B-tree indexes against the binned-bitmap plan, over the
//! simulated object store.
//!
//! ```sh
//! cargo run --release -p bat-bench --bin bench_index [--smoke]
//! ```
//!
//! `--smoke` (the CI gate) writes an indexed dataset carrying a planted
//! rare attribute value whose bitmap bin is polluted by near-miss noise —
//! every treelet's bitmap matches the query bin, so the bitmap plan keeps
//! (and fetches) nearly everything, while the index rank search proves
//! most treelets empty. The gate asserts the index-strategy run fetches
//! **≤ 0.5×** the bitmap run's bytes from the simulated store. It then
//! replays the query mix under every forced strategy (scan / bitmap /
//! index) on every reader backend (mmap, positioned file reads,
//! simulated store), asserting every result stream is FNV-identical to
//! the mmap auto-strategy reference. Results land in `BENCH_index.json`
//! at the repository root.
//!
//! Without `--smoke`, sweeps the predicate width and prints a
//! requests/bytes/treelets table per strategy.

use bat_comm::Cluster;
use bat_geom::rng::Xoshiro256;
use bat_geom::{Aabb, Vec3};
use bat_iosim::{ObjectStore, ObjectStoreConfig};
use bat_layout::{AttributeDesc, ParticleSet, Query};
use bat_obs::knobs::{self, EnvGuard};
use bat_workloads::RankGrid;
use libbat::write::{write_particles, WriteConfig};
use libbat::{Dataset, ReadBackend};

const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_index.json");

const RANKS: usize = 4;
const PER_RANK: u64 = 25_000;
const GATE_RATIO: f64 = 0.5;
/// The planted rare value and the query band around it.
const PLANTED: f64 = 42.0;
const BAND: (f64, f64) = (41.5, 42.5);

/// One rank's slab: uniform positions with `energy` noise over [0, 100)
/// that *avoids* the query band but not its bitmap bin (near misses land
/// just outside [41.5, 42.5], inside the same 100/32-wide bin), plus a
/// planted spatial blob in a corner of the rank's subdomain where every
/// 4th blob particle carries exactly 42.0. The bitmap plan keeps every
/// treelet; only the blob's treelets truly match.
fn generate_rank(grid: &RankGrid, rank: usize) -> ParticleSet {
    let bounds = grid.bounds_of(rank);
    let mut rng = Xoshiro256::new(0x1D0 ^ (rank as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let descs = vec![AttributeDesc::f64("energy"), AttributeDesc::f32("speed")];
    let mut set = ParticleSet::with_capacity(descs, PER_RANK as usize);
    let ext = bounds.extent();
    for i in 0..PER_RANK {
        let (p, energy) = if i % 64 < 4 {
            // Planted blob: a tight corner box, exact value on every 4th.
            let p = Vec3::new(
                bounds.min.x + rng.next_f32() * ext.x * 0.1,
                bounds.min.y + rng.next_f32() * ext.y * 0.1,
                bounds.min.z + rng.next_f32() * ext.z * 0.1,
            );
            let e = if i % 4 == 0 {
                PLANTED
            } else {
                rng.next_f32() as f64 * 100.0
            };
            (p, e)
        } else {
            let p = Vec3::new(
                rng.uniform_f32(bounds.min.x, bounds.max.x),
                rng.uniform_f32(bounds.min.y, bounds.max.y),
                rng.uniform_f32(bounds.min.z, bounds.max.z),
            );
            let mut e = rng.next_f32() as f64 * 100.0;
            if e > BAND.0 && e < BAND.1 {
                // Near miss: same bitmap bin, outside the query band.
                e += BAND.1 - BAND.0;
            }
            (p, e)
        };
        set.push(p, &[energy, p.z as f64]);
    }
    set
}

fn write_dataset(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bat-bench-index-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let grid = RankGrid::new_3d(RANKS, Aabb::unit());
    let d = dir.clone();
    // Index every attribute at write time; small leaf files give the
    // planner many treelets to cull.
    let _env = EnvGuard::set(&[(&knobs::INDEX_ATTRS, Some("all"))]);
    Cluster::run(RANKS, move |comm| {
        let set = generate_rank(&grid, comm.rank());
        let cfg = WriteConfig::with_target_size(128 << 10, set.bytes_per_particle() as u64);
        write_particles(&comm, set, grid.bounds_of(comm.rank()), &cfg, &d, "r").unwrap();
    });
    dir
}

/// The query mix replayed for identity: the rare band, a spatial +
/// attribute filter, and an unfiltered bulk read.
fn query_mix() -> Vec<Query> {
    vec![
        Query::new().with_filter(0, BAND.0, BAND.1),
        Query::new()
            .with_bounds(Aabb::new(Vec3::ZERO, Vec3::splat(0.5)))
            .with_filter(0, 20.0, 60.0),
        Query::new(),
    ]
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV fingerprints of the query mix; rows are sorted by particle index
/// so fingerprints are independent of treelet visit order.
fn mix_fnv(ds: &Dataset) -> Vec<u64> {
    query_mix()
        .iter()
        .map(|q| {
            let mut rows: Vec<Vec<u8>> = Vec::new();
            ds.query(q, |p| {
                let mut row = Vec::with_capacity(20 + p.attrs.len() * 8);
                row.extend_from_slice(&p.index.to_le_bytes());
                row.extend_from_slice(&p.position.x.to_bits().to_le_bytes());
                row.extend_from_slice(&p.position.y.to_bits().to_le_bytes());
                row.extend_from_slice(&p.position.z.to_bits().to_le_bytes());
                for a in p.attrs {
                    row.extend_from_slice(&a.to_bits().to_le_bytes());
                }
                rows.push(row);
            })
            .expect("bench query succeeds");
            rows.sort_unstable();
            let flat: Vec<u8> = rows.into_iter().flatten().collect();
            fnv1a(&flat)
        })
        .collect()
}

/// Run the rare-band query against a fresh simulated store under one
/// forced plan strategy; returns the store's request/byte stats.
fn measure_store(dir: &std::path::Path, strategy: &str) -> bat_iosim::StoreStats {
    // Files snapshot the strategy when the dataset opens them.
    let _env = EnvGuard::set(&[(&knobs::PLAN_STRATEGY, Some(strategy))]);
    let store = ObjectStore::new(ObjectStoreConfig::default());
    let ds = Dataset::open(dir, "r").expect("open bench dataset");
    ds.set_backend(ReadBackend::RangeSim(store.clone()));
    ds.set_cache(None);
    let q = Query::new().with_filter(0, BAND.0, BAND.1);
    let mut hits = 0u64;
    ds.query(&q, |_| hits += 1).expect("store-backed query");
    assert!(hits > 0, "planted band must match particles ({strategy})");
    store.stats()
}

/// Identity matrix: forced strategy × backend must reproduce the mmap
/// auto-strategy reference fingerprints. Returns configurations run.
fn identity_matrix(dir: &std::path::Path, reference: &[u64]) -> usize {
    type BackendFactory = Box<dyn Fn() -> ReadBackend>;
    let backends: Vec<(&str, BackendFactory)> = vec![
        ("mmap", Box::new(|| ReadBackend::Mmap)),
        ("range-file", Box::new(|| ReadBackend::RangeFile)),
        (
            "range-sim",
            Box::new(|| ReadBackend::RangeSim(ObjectStore::new(ObjectStoreConfig::default()))),
        ),
    ];
    let mut configs = 0;
    for strategy in ["scan", "bitmap", "index"] {
        let _env = EnvGuard::set(&[(&knobs::PLAN_STRATEGY, Some(strategy))]);
        for (bname, mk_backend) in &backends {
            let ds = Dataset::open(dir, "r").expect("open bench dataset");
            ds.set_backend(mk_backend());
            ds.set_cache(None);
            let got = mix_fnv(&ds);
            assert_eq!(
                got, reference,
                "{strategy}/{bname}: bytes diverged from mmap auto plan"
            );
            configs += 1;
        }
    }
    configs
}

fn run_smoke() {
    println!(
        "bench_index --smoke: {} planted particles over {RANKS} ranks, indexed attrs",
        PER_RANK * RANKS as u64
    );
    let dir = write_dataset("smoke");

    // Reference fingerprints: local mmap, auto strategy.
    let ds = Dataset::open(&dir, "r").expect("open bench dataset");
    ds.set_backend(ReadBackend::Mmap);
    ds.set_cache(None);
    let reference = mix_fnv(&ds);
    drop(ds);

    // Gate 1: object-store bytes, bitmap plan vs index plan.
    let bitmap = measure_store(&dir, "bitmap");
    let index = measure_store(&dir, "index");
    let ratio = index.bytes as f64 / bitmap.bytes.max(1) as f64;
    println!(
        "bitmap: {} GETs, {:.2} MiB | index: {} GETs, {:.2} MiB",
        bitmap.requests,
        bitmap.bytes as f64 / (1 << 20) as f64,
        index.requests,
        index.bytes as f64 / (1 << 20) as f64,
    );
    assert!(
        ratio <= GATE_RATIO,
        "index plan fetched {ratio:.2}x the bitmap plan's bytes (gate: <= {GATE_RATIO})"
    );
    println!("gate OK: index/bitmap bytes = {ratio:.3} <= {GATE_RATIO}");

    // Gate 2: FNV identity across strategy × backend.
    let configs = identity_matrix(&dir, &reference);
    println!("gate OK: {configs} strategy/backend configs are FNV-identical to mmap auto");

    let json = format!(
        "{{\n  \"bench\": \"index_smoke\",\n  \"particles\": {},\n  \
         \"bitmap_requests\": {},\n  \"index_requests\": {},\n  \
         \"bitmap_bytes\": {},\n  \"index_bytes\": {},\n  \
         \"byte_ratio\": {ratio:.4},\n  \"gate_ratio\": {GATE_RATIO},\n  \
         \"identity_configs\": {configs},\n  \"bytes_identical\": true\n}}\n",
        PER_RANK * RANKS as u64,
        bitmap.requests,
        index.requests,
        bitmap.bytes,
        index.bytes,
    );
    bat_bench::report::append_run(JSON_PATH, &json).expect("append BENCH_index.json");
    println!("saved {JSON_PATH}");
    std::fs::remove_dir_all(&dir).ok();
}

fn run_full() {
    use bat_bench::report::Table;
    println!(
        "bench_index: strategy sweep, {} planted particles",
        PER_RANK * RANKS as u64
    );
    let dir = write_dataset("full");
    let mut table = Table::new(
        "object-store traffic per plan strategy (rare-band query)".to_string(),
        &["strategy", "requests", "MiB_fetched", "sim_ms"],
    );
    for strategy in ["scan", "bitmap", "index", "auto"] {
        let s = measure_store(&dir, strategy);
        table.row(vec![
            strategy.to_string(),
            s.requests.to_string(),
            format!("{:.2}", s.bytes as f64 / (1 << 20) as f64),
            format!("{:.1}", s.sim_ns as f64 / 1e6),
        ]);
    }
    table.print();
    let csv = table.save_csv("bench_index").expect("write csv");
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
