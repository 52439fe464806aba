//! Shared helpers for the integration tests, and the one identity harness
//! every identity suite runs on: [`Digest`], [`query_mix`], [`reference`]
//! and [`serial`].

// Not every test binary that includes this module uses every item.
#![allow(dead_code)]

use bat_comm::Cluster;
use bat_geom::{Aabb, Vec3};
use bat_layout::{PointRecord, Query};
use bat_obs::knobs::{self, EnvGuard};
use bat_serve::QueryPlan;
use bat_stream::{Chunk, QueryOutcome, RequestError, ShardQueryError, ShardRouter, StreamClient};
use bat_workloads::{uniform, Cosmology, RankGrid};
use libbat::write::{write_particles, WriteConfig};
use libbat::Dataset;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

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
    /// Attribute indexes to write (a `BAT_INDEX_ATTRS` spelling such as
    /// `"none"` or `"all"`, set for the duration of the write); `None`
    /// keeps the environment's.
    pub index: Option<&'static str>,
}

impl Default for BuildOpts {
    fn default() -> BuildOpts {
        BuildOpts {
            tag: "dataset",
            ranks: 4,
            target_file_bytes: 80_000,
            basename: "s",
            codec: None,
            index: None,
        }
    }
}

/// Write one dataset of `workload` into a fresh scratch directory (the
/// shared fixture behind the serving/identity/fault integration tests —
/// one implementation of the write-side boilerplate instead of a copy per
/// test binary). Open it with `Dataset::open(&scratch.path, opts.basename)`.
pub fn build_test_dataset(workload: &Workload, opts: &BuildOpts) -> ScratchDir {
    let scratch = ScratchDir::new(opts.tag);
    write_dataset_into(&scratch.path, workload, opts);
    scratch
}

/// [`build_test_dataset`] into an existing directory (for tests that need
/// to control the directory's lifetime themselves).
pub fn write_dataset_into(dir: &Path, workload: &Workload, opts: &BuildOpts) {
    let dir = dir.to_path_buf();
    let basename = opts.basename;
    let target = opts.target_file_bytes;
    let pinned: Vec<_> = [
        (&knobs::TREELET_CODEC, opts.codec),
        (&knobs::INDEX_ATTRS, opts.index),
    ]
    .into_iter()
    .filter(|(_, value)| value.is_some())
    .collect();
    // No guard when nothing is pinned: a caller may already hold one.
    let _env = (!pinned.is_empty()).then(|| EnvGuard::set(&pinned));
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

/// The one query mix every identity suite runs: the full read, the
/// progressive passes and a `prev_quality → quality` refinement, bounded
/// reads, and attribute filters alone and with a box. Filter bounds are
/// fractions of attribute 0's global range, so every query but the full
/// read selects some but not all points of any fixture. A slow suite may
/// run a prefix; none defines its own queries.
pub fn query_mix(ds: &Dataset) -> Vec<Query> {
    let (lo, hi) = ds.global_range(0);
    let at = |f: f64| lo + f * (hi - lo);
    let boxed = |a: Vec3, b: Vec3| Query::new().with_bounds(Aabb::new(a, b));
    vec![
        Query::new(),
        Query::new().with_quality(0.3),
        Query::new().with_quality(0.4),
        Query::new().with_quality(0.5),
        Query::new().with_prev_quality(0.3).with_quality(0.6),
        boxed(Vec3::splat(0.1), Vec3::splat(0.7)).with_quality(0.8),
        // Covered most by the last leaf: the plan visits files out of
        // leaf order, and every path must follow it.
        boxed(Vec3::splat(0.3), Vec3::ONE),
        Query::new().with_filter(0, at(0.1), at(0.9)),
        boxed(Vec3::ZERO, Vec3::splat(0.5)).with_filter(0, at(0.3), at(0.7)),
        boxed(Vec3::ZERO, Vec3::new(1.0, 0.5, 1.0)).with_filter(0, at(0.2), at(0.9)),
        boxed(Vec3::ZERO, Vec3::new(1.0, 0.6, 1.0)).with_filter(0, at(0.1), at(0.9)),
    ]
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

/// 64-bit FNV-1a over a byte stream.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(FNV_OFFSET, fnv_step)
}

/// What a query returned, in a form every read path produces: the point
/// count and FNV-1a over the bytes that cross the wire — x, y, z as `f32`
/// LE, then each attribute as `f64` LE, point by point in arrival order.
/// A direct path also hashes each point's file index
/// ([`PointRecord::index`]), which no stream carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub points: u64,
    pub wire: u64,
    pub index: Option<u64>,
}

impl Default for Digest {
    fn default() -> Digest {
        Digest {
            points: 0,
            wire: FNV_OFFSET,
            index: None,
        }
    }
}

impl Digest {
    /// Feed one point a direct path handed its callback.
    pub fn record(&mut self, p: &PointRecord) {
        self.point(p.position, p.attrs.iter().copied());
        let h = self.index.get_or_insert(FNV_OFFSET);
        *h = p.index.to_le_bytes().into_iter().fold(*h, fnv_step);
    }

    /// Feed every point of a streamed chunk.
    pub fn chunk(&mut self, c: &Chunk) {
        for (i, p) in c.positions.iter().enumerate() {
            self.point(*p, (0..c.num_attrs).map(|a| c.attr(i, a)));
        }
    }

    fn point(&mut self, pos: Vec3, attrs: impl Iterator<Item = f64>) {
        let bytes = [pos.x, pos.y, pos.z]
            .into_iter()
            .flat_map(f32::to_le_bytes)
            .chain(attrs.flat_map(f64::to_le_bytes));
        self.wire = bytes.fold(self.wire, fnv_step);
        self.points += 1;
    }

    /// This digest without the file indexes: what a stream of the same
    /// points hashes to.
    pub fn on_wire(self) -> Digest {
        Digest {
            index: None,
            ..self
        }
    }
}

/// The answer every path must reproduce: each of `queries` run by the
/// planner itself (`QueryPlan::execute`) on `ds`.
pub fn reference(ds: &Dataset, queries: &[Query]) -> Vec<Digest> {
    queries
        .iter()
        .map(|q| {
            let mut d = Digest::default();
            let stats = QueryPlan::new(ds, q)
                .expect("plan")
                .execute(None, |p| d.record(&p))
                .expect("execute");
            assert_eq!(stats.points_returned, d.points);
            d
        })
        .collect()
}

/// The mix on dataset `s` in `dir` (opened on mmap with no cache, whatever
/// the environment says) and its [`reference`] as a stream carries it.
pub fn wire_reference(dir: &Path) -> (Vec<Query>, Vec<Digest>) {
    let ds = Dataset::open(dir, "s").expect("open dataset");
    ds.set_backend(libbat::ReadBackend::Mmap);
    ds.set_cache(None);
    let mix = query_mix(&ds);
    let want = reference(&ds, &mix).into_iter().map(Digest::on_wire);
    let want = want.collect();
    (mix, want)
}

/// `q` through `Dataset::query`.
pub fn direct(ds: &Dataset, q: &Query) -> std::io::Result<Digest> {
    let mut d = Digest::default();
    ds.query(q, |p| d.record(&p))?;
    Ok(d)
}

/// `q` from a stream client (a `Busy` answer is retried).
pub fn served(client: &mut StreamClient, q: &Query) -> Result<Digest, RequestError> {
    let mut d = Digest::default();
    let points = client.request_with_retry(q, 64, |c| d.chunk(c))?;
    assert_eq!(
        points, d.points,
        "the client counts the points it handed over"
    );
    Ok(d)
}

/// `q` through a shard router's merge, with the router's outcome.
pub fn routed(
    router: &ShardRouter,
    q: &Query,
    deadline: Option<Duration>,
) -> Result<(Digest, QueryOutcome), ShardQueryError> {
    let mut d = Digest::default();
    let outcome = router.query(q, deadline, |c| d.chunk(&c))?;
    assert_eq!(
        outcome.points, d.points,
        "the router counts the points it merged"
    );
    Ok((d, outcome))
}

/// The router rank of a shard cluster: open dataset `s` in `dir`, route
/// the mix over `comm`'s shards, and shut the router down. Every query
/// must complete, none partially.
pub fn route_mix(comm: Box<dyn bat_comm::Comm>, dir: &Path) -> Vec<Digest> {
    let ds = Dataset::open(dir, "s").expect("open dataset");
    let mix = query_mix(&ds);
    let router = ShardRouter::new(comm, std::sync::Arc::new(ds));
    let digests = mix
        .iter()
        .map(|q| {
            let (digest, outcome) =
                routed(&router, q, Some(Duration::from_secs(20))).expect("fan-out succeeds");
            assert!(!outcome.is_partial(), "every leaf must be served");
            digest
        })
        .collect();
    router.shutdown();
    digests
}

/// The lock a test takes when it touches process-global state: the fault
/// registry, `BAT_*` knobs, the global metrics registry, rank numbers that
/// repeat across clusters, or wall-clock bounds that assume the host's
/// cores are its own. One per test binary.
pub fn serial() -> Serial {
    serial_resetting(|| {})
}

/// [`serial`] for a test binary that arms failpoints: `reset`
/// (`bat_faults::reset`; not every crate that includes this module depends
/// on `bat-faults`) runs on acquire and on drop, so a failed test leaks no
/// armed fault into the next one.
pub fn serial_resetting(reset: fn()) -> Serial {
    static LOCK: Mutex<()> = Mutex::new(());
    let lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset();
    Serial { reset, _lock: lock }
}

/// Held for the duration of a test; see [`serial`].
pub struct Serial {
    reset: fn(),
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Serial {
    fn drop(&mut self) {
        (self.reset)();
    }
}

/// Serve dataset `basename` in `dir` through a [`bat_stream::ShardFront`]
/// over `shards` in-process shard workers (channel transport), run `body`
/// against the front's address on the router rank, then drain everything.
/// `configure` runs on every rank's freshly opened [`Dataset`] (to set its
/// read backend or cache) before the rank serves.
pub fn with_shard_front<R: Send>(
    dir: &Path,
    basename: &'static str,
    shards: usize,
    options: bat_serve::ServeOptions,
    configure: impl Fn(&Dataset) + Sync,
    body: impl FnOnce(std::net::SocketAddr) -> R + Send,
) -> R {
    use bat_stream::{run_shard, ShardFront, ROUTER_RANK};
    let body = Mutex::new(Some((body, options)));
    let mut per_rank = Cluster::run_with(bat_comm::TransportKind::Channel, 1 + shards, |comm| {
        let ds = Dataset::open(dir, basename).expect("open dataset");
        configure(&ds);
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

/// Order-independent fingerprint of a particle set: sums of positions and
/// attributes. Robust to the reordering the BAT layout performs.
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
