//! Compressed-treelet benchmark (ISSUE 8): v2 codec compression ratio,
//! decode throughput, byte identity, and wire-byte savings on the
//! cosmology workload.
//!
//! ```sh
//! cargo run --release -p bat-bench --bin bench_compress [--smoke]
//! ```
//!
//! `--smoke` (the CI gate) writes the same clustered cosmology dataset
//! twice — once v1 (verbatim treelets) and once `v2-lossless` — then:
//!
//! 1. sums the v2 section codec tables and **gates the position columns at
//!    ≤ 0.7× their raw bytes**;
//! 2. asserts the v2 query results are **FNV-identical to v1** across all
//!    three read backends (mmap / range-file / range-sim);
//! 3. replays the serving mix against the object-store simulator on both
//!    datasets and asserts v2 **fetches fewer bytes** on the same plan;
//! 4. reports cold decode throughput and appends the run to
//!    `BENCH_compress.json` (run history accumulates, never overwrites).
//!
//! Without `--smoke`, sweeps the `v2-lossy` error bound and prints a
//! ratio table (with a lossless row for reference).

use bat_comm::Cluster;
use bat_geom::{Aabb, Vec3};
use bat_iosim::{ObjectStore, ObjectStoreConfig};
use bat_layout::format::read_head;
use bat_layout::{PageCache, Query};
use bat_obs::knobs::{self, EnvGuard};
use bat_workloads::Cosmology;
use libbat::write::{leaf_file_name, write_particles, WriteConfig};
use libbat::{Dataset, ReadBackend};

const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compress.json");

const RANKS: usize = 4;
const PARTICLES: u64 = 100_000;
const HALOS: usize = 24;
/// CI gate: stored position bytes over raw position bytes.
const GATE_POSITION_RATIO: f64 = 0.7;

/// Write the bench dataset with `BAT_TREELET_CODEC` / `BAT_CODEC_ERROR_BOUND`
/// forced to the given values (`None` = unset) for the duration.
fn write_dataset(tag: &str, codec: Option<&str>, bound: Option<&str>) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bat-bench-compress-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let _env = EnvGuard::set(&[
        (&knobs::TREELET_CODEC, codec),
        (&knobs::CODEC_ERROR_BOUND, bound),
    ]);
    let cosmo = Cosmology::new(PARTICLES, HALOS, 7);
    let grid = cosmo.grid(RANKS);
    let d = dir.clone();
    Cluster::run(RANKS, move |comm| {
        let set = cosmo.generate_rank(&grid, comm.rank());
        let cfg = WriteConfig::with_target_size(64 << 10, set.bytes_per_particle() as u64);
        write_particles(&comm, set, grid.bounds_of(comm.rank()), &cfg, &d, "c").unwrap();
    });
    dir
}

/// Per-section-class byte accounting summed over every leaf file, straight
/// from the v2 codec tables (raw sizes recomputed from the leaf records).
#[derive(Default)]
struct SectionBytes {
    raw: [u64; 3],    // nodes, positions, attrs
    stored: [u64; 3], // same classes as stored on disk
    file_bytes: u64,
}

impl SectionBytes {
    fn ratio(&self, class: usize) -> f64 {
        self.stored[class] as f64 / self.raw[class].max(1) as f64
    }
}

fn measure_sections(dir: &std::path::Path) -> SectionBytes {
    let ds = Dataset::open(dir, "c").expect("open bench dataset");
    let mut acc = SectionBytes::default();
    for i in 0..ds.num_files() as u32 {
        let path = dir.join(leaf_file_name("c", i));
        let bytes = std::fs::read(&path).expect("read leaf file");
        acc.file_bytes += bytes.len() as u64;
        let head = read_head(&bytes).expect("parse leaf head");
        for (t, leaf) in head.leaves.iter().enumerate() {
            let layout = bat_layout::format::TreeletLayout::compute(
                leaf.num_nodes as usize,
                leaf.num_particles as usize,
                &head.descs,
            );
            let n = leaf.num_particles as usize;
            let raw_of = |si: usize| -> u64 {
                match si {
                    0 => (layout.positions_off - layout.nodes_off) as u64,
                    1 => (n * 12) as u64,
                    _ => (n * head.descs[si - 2].dtype.size()) as u64,
                }
            };
            let class_of = |si: usize| si.min(2);
            match head.codec_rec(t) {
                Some(rec) => {
                    for (si, sec) in rec.sections.iter().enumerate() {
                        acc.raw[class_of(si)] += raw_of(si);
                        acc.stored[class_of(si)] += sec.stored_len as u64;
                    }
                }
                None => {
                    for si in 0..2 + head.descs.len() {
                        acc.raw[class_of(si)] += raw_of(si);
                        acc.stored[class_of(si)] += raw_of(si);
                    }
                }
            }
        }
    }
    acc
}

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

/// Replay the serving mix against a fresh simulated store (prefetch on,
/// default gap) and return what crossed the simulated wire.
fn measure_store(dir: &std::path::Path) -> bat_iosim::StoreStats {
    let store = ObjectStore::new(ObjectStoreConfig::default());
    let ds = Dataset::open(dir, "c").expect("open bench dataset");
    ds.set_backend(ReadBackend::RangeSim(store.clone()));
    ds.set_cache(None);
    for q in query_mix() {
        ds.query(&q, |_| {}).expect("store-backed query succeeds");
    }
    store.stats()
}

/// Cold full-scan wall time on the mmap backend; with the v2 dataset this
/// decodes every treelet block exactly once.
fn cold_scan_secs(dir: &std::path::Path) -> f64 {
    let ds = Dataset::open(dir, "c").expect("open bench dataset");
    ds.set_backend(ReadBackend::Mmap);
    ds.set_cache(None);
    let t0 = std::time::Instant::now();
    ds.query(&Query::new(), |_| {}).expect("full scan succeeds");
    t0.elapsed().as_secs_f64()
}

fn run_smoke() {
    println!(
        "bench_compress --smoke: {PARTICLES} cosmology particles ({HALOS} halos) over {RANKS} ranks"
    );
    let v1_dir = write_dataset("v1", None, None);
    let v2_dir = write_dataset("v2", Some("v2-lossless"), None);

    // Section accounting + the position-ratio gate.
    let v1 = measure_sections(&v1_dir);
    let v2 = measure_sections(&v2_dir);
    let pos_ratio = v2.ratio(1);
    let attr_ratio = v2.ratio(2);
    println!(
        "v2 stored/raw: positions {:.3}, attrs {:.3}, nodes {:.3} | files {:.2} MiB -> {:.2} MiB",
        pos_ratio,
        attr_ratio,
        v2.ratio(0),
        v1.file_bytes as f64 / (1 << 20) as f64,
        v2.file_bytes as f64 / (1 << 20) as f64,
    );
    assert!(
        pos_ratio <= GATE_POSITION_RATIO,
        "position compression ratio {pos_ratio:.3} exceeds gate {GATE_POSITION_RATIO}"
    );
    println!("gate OK: position ratio {pos_ratio:.3} <= {GATE_POSITION_RATIO}");

    // Byte identity: v2 must reproduce the v1 mmap reference on every
    // backend, cold and warm.
    let ref_ds = Dataset::open(&v1_dir, "c").expect("open v1 dataset");
    ref_ds.set_backend(ReadBackend::Mmap);
    let reference = mix_fnv(&ref_ds);
    drop(ref_ds);
    type BackendFactory = Box<dyn Fn() -> ReadBackend>;
    let backends: Vec<(&str, BackendFactory)> = vec![
        ("mmap", Box::new(|| ReadBackend::Mmap)),
        ("range-file", Box::new(|| ReadBackend::RangeFile)),
        (
            "range-sim",
            Box::new(|| ReadBackend::RangeSim(ObjectStore::new(ObjectStoreConfig::default()))),
        ),
    ];
    for (name, mk) in &backends {
        let ds = Dataset::open(&v2_dir, "c").expect("open v2 dataset");
        ds.set_backend(mk());
        ds.set_cache(Some(PageCache::new(8 << 20)));
        for pass in ["cold", "warm"] {
            assert_eq!(
                mix_fnv(&ds),
                reference,
                "v2-lossless/{name}/{pass}: bytes diverged from v1 mmap"
            );
        }
    }
    println!(
        "gate OK: v2-lossless FNV-identical to v1 across {} backends (cold+warm)",
        backends.len()
    );

    // Wire bytes: same plan, compressed fetches must move fewer bytes.
    let v1_store = measure_store(&v1_dir);
    let v2_store = measure_store(&v2_dir);
    println!(
        "object store: v1 {} GETs / {:.2} MiB, v2 {} GETs / {:.2} MiB",
        v1_store.requests,
        v1_store.bytes as f64 / (1 << 20) as f64,
        v2_store.requests,
        v2_store.bytes as f64 / (1 << 20) as f64,
    );
    assert!(
        v2_store.bytes < v1_store.bytes,
        "v2 fetched {} bytes, v1 fetched {} — compression must shrink the wire",
        v2_store.bytes,
        v1_store.bytes
    );
    println!(
        "gate OK: range bytes_fetched {:.3}x of v1",
        v2_store.bytes as f64 / v1_store.bytes.max(1) as f64
    );

    // Decode throughput (report only): raw block bytes decoded per second
    // of cold full scan.
    let secs = cold_scan_secs(&v2_dir);
    let decoded: u64 = v2.raw.iter().sum();
    let gbps = decoded as f64 / secs.max(1e-9) / 1e9;
    println!("cold v2 full scan: {decoded} decoded bytes in {secs:.3}s = {gbps:.2} GB/s");

    let json = format!(
        "{{\n  \"bench\": \"compress_smoke\",\n  \"particles\": {PARTICLES},\n  \
         \"position_ratio\": {pos_ratio:.4},\n  \"attr_ratio\": {attr_ratio:.4},\n  \
         \"gate_position_ratio\": {GATE_POSITION_RATIO},\n  \
         \"v1_file_bytes\": {},\n  \"v2_file_bytes\": {},\n  \
         \"v1_store_bytes\": {},\n  \"v2_store_bytes\": {},\n  \
         \"decode_gbps\": {gbps:.3},\n  \"bytes_identical\": true\n}}\n",
        v1.file_bytes, v2.file_bytes, v1_store.bytes, v2_store.bytes,
    );
    bat_bench::report::append_run(JSON_PATH, &json).expect("append BENCH_compress.json");
    println!("saved {JSON_PATH}");
    std::fs::remove_dir_all(&v1_dir).ok();
    std::fs::remove_dir_all(&v2_dir).ok();
}

fn run_full() {
    use bat_bench::report::Table;
    println!("bench_compress: error-bound sweep, {PARTICLES} cosmology particles");
    let v1_dir = write_dataset("v1", None, None);
    let v1 = measure_sections(&v1_dir);
    let mut table = Table::new(
        "v2 stored/raw bytes vs codec (cosmology)".to_string(),
        &["codec", "bound", "positions", "attrs", "file_MiB"],
    );
    table.row(vec![
        "v1".into(),
        "-".into(),
        "1.000".into(),
        "1.000".into(),
        format!("{:.2}", v1.file_bytes as f64 / (1 << 20) as f64),
    ]);
    std::fs::remove_dir_all(&v1_dir).ok();
    let mut cases = vec![("v2-lossless".to_string(), None)];
    for bound in ["1e-4", "1e-3", "1e-2"] {
        cases.push(("v2-lossy".to_string(), Some(bound.to_string())));
    }
    for (codec, bound) in cases {
        let dir = write_dataset("sweep", Some(&codec), bound.as_deref());
        let s = measure_sections(&dir);
        table.row(vec![
            codec,
            bound.unwrap_or_else(|| "-".into()),
            format!("{:.3}", s.ratio(1)),
            format!("{:.3}", s.ratio(2)),
            format!("{:.2}", s.file_bytes as f64 / (1 << 20) as f64),
        ]);
        std::fs::remove_dir_all(&dir).ok();
    }
    table.print();
    let csv = table.save_csv("bench_compress").expect("write csv");
    println!("saved {}", csv.display());
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        run_smoke();
    } else {
        run_full();
    }
}
