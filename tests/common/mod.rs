//! Shared helpers for the integration tests.

use bat_comm::Cluster;
use bat_geom::Aabb;
use bat_obs::knobs::{self, EnvGuard};
use bat_workloads::{uniform, Cosmology, RankGrid};
use libbat::write::{write_particles, WriteConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory; removed on drop.
pub struct ScratchDir {
    pub path: PathBuf,
}

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("bat-itest-{tag}-{}-{id}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir { path }
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

/// Workload shape for [`build_test_dataset`].
#[allow(dead_code)] // not every test binary that includes this module uses it
pub enum Workload {
    /// `uniform::generate_rank` — evenly distributed particles.
    Uniform {
        /// Particles per rank.
        per_rank: u64,
        /// Generator seed.
        seed: u64,
    },
    /// `Cosmology` — clustered halos, the workload the paper's adaptive
    /// layout (and the range coalescer) is built for.
    Cosmology {
        /// Total particles across all ranks.
        n_particles: u64,
        /// Halo count.
        n_halos: usize,
        /// Generator seed.
        seed: u64,
    },
}

/// Knobs for [`build_test_dataset`]; `..Default::default()` covers the
/// common case (4 ranks, ~80 KB target files, basename "s").
pub struct BuildOpts {
    /// Tag for the scratch directory name.
    pub tag: &'static str,
    /// Cluster size to write with.
    pub ranks: usize,
    /// Target leaf-file size handed to [`WriteConfig::with_target_size`].
    pub target_file_bytes: u64,
    /// Dataset basename.
    pub basename: &'static str,
    /// Treelet codec to write with (a `BAT_TREELET_CODEC` spelling, set
    /// for the duration of the write); `None` keeps the environment's.
    pub codec: Option<&'static str>,
}

impl Default for BuildOpts {
    fn default() -> BuildOpts {
        BuildOpts {
            tag: "dataset",
            ranks: 4,
            target_file_bytes: 80_000,
            basename: "s",
            codec: None,
        }
    }
}

/// Write one dataset of `workload` into a fresh scratch directory (the
/// shared fixture behind the serving/identity/fault integration tests —
/// one implementation of the write-side boilerplate instead of a copy per
/// test binary). Open it with `Dataset::open(&scratch.path, opts.basename)`.
#[allow(dead_code)] // not every test binary that includes this module uses it
pub fn build_test_dataset(workload: &Workload, opts: &BuildOpts) -> ScratchDir {
    let scratch = ScratchDir::new(opts.tag);
    write_dataset_into(&scratch.path, workload, opts);
    scratch
}

/// [`build_test_dataset`] into an existing directory (for tests that need
/// to control the directory's lifetime themselves).
#[allow(dead_code)] // not every test binary that includes this module uses it
pub fn write_dataset_into(dir: &Path, workload: &Workload, opts: &BuildOpts) {
    let dir = dir.to_path_buf();
    let basename = opts.basename;
    let target = opts.target_file_bytes;
    let _env = opts
        .codec
        .map(|codec| EnvGuard::set(&[(&knobs::TREELET_CODEC, Some(codec))]));
    match *workload {
        Workload::Uniform { per_rank, seed } => {
            let grid = RankGrid::new_3d(opts.ranks, Aabb::unit());
            Cluster::run(opts.ranks, move |comm| {
                let set = uniform::generate_rank(&grid, comm.rank(), per_rank, seed);
                let cfg = WriteConfig::with_target_size(target, set.bytes_per_particle() as u64);
                write_particles(
                    &comm,
                    set,
                    grid.bounds_of(comm.rank()),
                    &cfg,
                    &dir,
                    basename,
                )
                .expect("write succeeds");
            });
        }
        Workload::Cosmology {
            n_particles,
            n_halos,
            seed,
        } => {
            let cosmo = Cosmology::new(n_particles, n_halos, seed);
            let grid = cosmo.grid(opts.ranks);
            Cluster::run(opts.ranks, move |comm| {
                let set = cosmo.generate_rank(&grid, comm.rank());
                let cfg = WriteConfig::with_target_size(target, set.bytes_per_particle() as u64);
                write_particles(
                    &comm,
                    set,
                    grid.bounds_of(comm.rank()),
                    &cfg,
                    &dir,
                    basename,
                )
                .expect("write succeeds");
            });
        }
    }
}

/// The clustered fixture the coalescing and compression gates measure
/// on: 100 k cosmology particles in 24 halos over 64 KiB leaf files —
/// many treelets per file, positions that delta-code well.
#[allow(dead_code)] // not every test binary that includes this module uses it
pub fn build_cosmology_dataset(tag: &'static str, codec: Option<&'static str>) -> ScratchDir {
    build_test_dataset(
        &Workload::Cosmology {
            n_particles: 100_000,
            n_halos: 24,
            seed: 7,
        },
        &BuildOpts {
            tag,
            target_file_bytes: 64 << 10,
            codec,
            ..BuildOpts::default()
        },
    )
}

/// The query mix the serving tests run: a bulk full read, a
/// spatial+attribute filtered read, and a low-quality interactive read —
/// one per cache admission class.
#[allow(dead_code)] // not every test binary that includes this module uses it
pub fn query_mix() -> Vec<bat_layout::Query> {
    use bat_geom::Vec3;
    use bat_layout::Query;
    vec![
        Query::new(),
        Query::new()
            .with_bounds(Aabb::new(Vec3::ZERO, Vec3::splat(0.5)))
            .with_filter(0, 0.6, 1.4),
        Query::new().with_quality(0.3),
    ]
}

/// Serve dataset `basename` in `dir` through a [`bat_stream::ShardFront`]
/// over `shards` in-process shard workers (channel transport), run `body`
/// against the front's address on the router rank, then drain everything.
#[allow(dead_code)] // not every test binary that includes this module uses it
pub fn with_shard_front<R: Send>(
    dir: &Path,
    basename: &'static str,
    shards: usize,
    options: bat_serve::ServeOptions,
    body: impl FnOnce(std::net::SocketAddr) -> R + Send,
) -> R {
    use bat_stream::{run_shard, ShardFront, ShardRouter, ROUTER_RANK};
    let body = std::sync::Mutex::new(Some((body, options)));
    let mut per_rank = Cluster::run_with(bat_comm::TransportKind::Channel, 1 + shards, |comm| {
        let ds = libbat::Dataset::open(dir, basename).expect("open dataset");
        if comm.rank() != ROUTER_RANK {
            run_shard(&*comm, &ds).expect("shard serve loop");
            return None;
        }
        let (body, options) = body.lock().unwrap().take().expect("one router rank");
        let router = std::sync::Arc::new(ShardRouter::new(comm, std::sync::Arc::new(ds)));
        let handle = ShardFront::bind("127.0.0.1:0", router.clone(), options)
            .and_then(ShardFront::spawn)
            .expect("start shard front");
        let out = body(handle.addr());
        handle.shutdown();
        router.shutdown();
        Some(out)
    });
    per_rank.swap_remove(ROUTER_RANK).expect("router result")
}

/// 64-bit FNV-1a over a byte stream — the fingerprint the identity matrix
/// and bench gates compare across reader backends.
#[allow(dead_code)] // not every test binary that includes this module uses it
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Order-independent fingerprint of a particle set: sums of positions and
/// attributes. Robust to the reordering the BAT layout performs.
#[allow(dead_code)] // not every test binary that includes this module uses it
pub fn fingerprint(set: &bat_layout::ParticleSet) -> (usize, f64) {
    let mut acc = 0.0f64;
    for p in &set.positions {
        acc += p.x as f64 + 2.0 * p.y as f64 + 3.0 * p.z as f64;
    }
    for a in 0..set.num_attrs() {
        for i in 0..set.len() {
            acc += set.value(a, i) * (a + 1) as f64 * 1e-3;
        }
    }
    (set.len(), acc)
}
