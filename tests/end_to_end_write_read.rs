//! End-to-end collective write → read tests across the whole stack:
//! workload generators → comm runtime → aggregation → BAT layout → files →
//! parallel read pipeline.

mod common;

use bat_comm::Cluster;
use bat_geom::Aabb;
use bat_layout::ParticleSet;
use bat_obs::knobs::{self, EnvGuard};
use bat_workloads::{uniform, RankGrid};
use common::{build_cosmology_dataset, fingerprint, ScratchDir};
use libbat::read::{query_distributed, read_particles};
use libbat::write::{leaf_file_name, write_particles, WriteConfig};

/// Write the uniform workload on `n` ranks and return per-rank fingerprints.
fn write_uniform(
    dir: &std::path::Path,
    n: usize,
    per_rank: u64,
    target: u64,
    aug: bool,
) -> Vec<(usize, f64)> {
    let grid = RankGrid::new_3d(n, Aabb::unit());
    let dir = dir.to_path_buf();
    Cluster::run(n, move |comm| {
        let set = uniform::generate_rank(&grid, comm.rank(), per_rank, 42);
        let fp = fingerprint(&set);
        let mut cfg = WriteConfig::with_target_size(target, set.bytes_per_particle() as u64);
        if aug {
            cfg = cfg.aug();
        }
        let report = write_particles(&comm, set, grid.bounds_of(comm.rank()), &cfg, &dir, "u")
            .expect("write succeeds");
        assert!(report.files >= 1);
        assert!(report.times.total > 0.0);
        fp
    })
}

#[test]
fn same_rank_count_roundtrip() {
    let scratch = ScratchDir::new("same");
    let n = 8;
    let fps = write_uniform(&scratch.path, n, 2000, 200_000, false);

    let grid = RankGrid::new_3d(n, Aabb::unit());
    let dir = scratch.path.clone();
    let read_fps = Cluster::run(n, move |comm| {
        let set =
            read_particles(&comm, grid.bounds_of(comm.rank()), &dir, "u").expect("read succeeds");
        fingerprint(&set)
    });
    for (rank, (w, r)) in fps.iter().zip(&read_fps).enumerate() {
        assert_eq!(w.0, r.0, "rank {rank} particle count");
        assert!(
            (w.1 - r.1).abs() < 1e-6 * w.1.abs().max(1.0),
            "rank {rank} checksum"
        );
    }
}

#[test]
fn restart_on_more_ranks() {
    let scratch = ScratchDir::new("more");
    let fps = write_uniform(&scratch.path, 4, 3000, 150_000, false);
    let total_written: usize = fps.iter().map(|f| f.0).sum();

    // 12 readers re-partition the same domain.
    let grid = RankGrid::new_3d(12, Aabb::unit());
    let dir = scratch.path.clone();
    let counts = Cluster::run(12, move |comm| {
        read_particles(&comm, grid.bounds_of(comm.rank()), &dir, "u")
            .expect("read succeeds")
            .len()
    });
    let total_read: usize = counts.iter().sum();
    assert_eq!(
        total_read, total_written,
        "12-rank restart must recover every particle"
    );
}

#[test]
fn restart_on_fewer_ranks() {
    let scratch = ScratchDir::new("fewer");
    let fps = write_uniform(&scratch.path, 8, 2000, 100_000, false);
    let total_written: usize = fps.iter().map(|f| f.0).sum();

    let grid = RankGrid::new_3d(3, Aabb::unit());
    let dir = scratch.path.clone();
    let counts = Cluster::run(3, move |comm| {
        read_particles(&comm, grid.bounds_of(comm.rank()), &dir, "u")
            .expect("read succeeds")
            .len()
    });
    let total_read: usize = counts.iter().sum();
    assert_eq!(
        total_read, total_written,
        "3-rank restart must recover every particle"
    );
}

/// Every particle of `set` inside `bounds` as sortable bit rows.
fn bit_rows(set: &ParticleSet, bounds: &Aabb) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = (0..set.len())
        .filter(|&i| bounds.contains_point(set.positions[i]))
        .map(|i| {
            let p = set.positions[i];
            let mut row = vec![
                p.x.to_bits() as u64,
                p.y.to_bits() as u64,
                p.z.to_bits() as u64,
            ];
            row.extend((0..set.num_attrs()).map(|a| set.value(a, i).to_bits()));
            row
        })
        .collect();
    rows.sort_unstable();
    rows
}

#[test]
fn checkpoint_read_equals_bounds_query_equals_brute_force() {
    // A checkpoint read is the bounds-only case of a distributed query:
    // on a reader count that differs from the writer count, both entry
    // points must return, on every rank, exactly the generator's
    // particles inside that rank's bounds.
    let scratch = ScratchDir::new("collective-equiv");
    let (writers, readers, per_rank) = (4, 6, 2500);
    write_uniform(&scratch.path, writers, per_rank, 120_000, false);
    let write_grid = RankGrid::new_3d(writers, Aabb::unit());
    let written: Vec<ParticleSet> = (0..writers)
        .map(|r| uniform::generate_rank(&write_grid, r, per_rank, 42))
        .collect();

    let grid = RankGrid::new_3d(readers, Aabb::unit());
    let dir = scratch.path.clone();
    let per_reader = Cluster::run(readers, move |comm| {
        let bounds = grid.bounds_of(comm.rank());
        let read = read_particles(&comm, bounds, &dir, "u").expect("checkpoint read");
        let q = bat_layout::Query::new().with_bounds(bounds);
        let queried = query_distributed(&comm, &q, &dir, "u").expect("distributed query");
        (
            bounds,
            bit_rows(&read, &bounds),
            bit_rows(&queried, &bounds),
            read.len(),
            queried.len(),
        )
    });
    let mut total = 0;
    for (rank, (bounds, read, queried, read_len, queried_len)) in per_reader.iter().enumerate() {
        let mut want: Vec<Vec<u64>> = written.iter().flat_map(|s| bit_rows(s, bounds)).collect();
        want.sort_unstable();
        assert!(!want.is_empty(), "rank {rank}: bounds hold no particles");
        // Nothing outside the bounds came back, so the rows are the result.
        assert_eq!((read.len(), queried.len()), (*read_len, *queried_len));
        assert_eq!(read, &want, "rank {rank}: read_particles vs brute force");
        assert_eq!(
            queried, &want,
            "rank {rank}: query_distributed vs brute force"
        );
        total += want.len();
    }
    assert!(
        total >= writers * per_rank as usize,
        "readers cover the domain"
    );
}

#[test]
fn single_rank_write_and_read() {
    let scratch = ScratchDir::new("single");
    let fps = write_uniform(&scratch.path, 1, 5000, 1 << 20, false);
    let dir = scratch.path.clone();
    let counts = Cluster::run(1, move |comm| {
        read_particles(&comm, Aabb::unit(), &dir, "u")
            .unwrap()
            .len()
    });
    assert_eq!(counts[0], fps[0].0);
}

#[test]
fn aug_strategy_roundtrip() {
    let scratch = ScratchDir::new("aug");
    let fps = write_uniform(&scratch.path, 8, 1500, 100_000, true);
    let total: usize = fps.iter().map(|f| f.0).sum();
    let grid = RankGrid::new_3d(8, Aabb::unit());
    let dir = scratch.path.clone();
    let counts = Cluster::run(8, move |comm| {
        read_particles(&comm, grid.bounds_of(comm.rank()), &dir, "u")
            .unwrap()
            .len()
    });
    assert_eq!(counts.iter().sum::<usize>(), total);
}

#[test]
fn empty_ranks_are_skipped() {
    let scratch = ScratchDir::new("empty");
    let n = 6;
    let grid = RankGrid::new_3d(n, Aabb::unit());
    let dir = scratch.path.clone();
    // Only ranks 0 and 3 have particles.
    Cluster::run(n, move |comm| {
        let set = if comm.rank() == 0 || comm.rank() == 3 {
            uniform::generate_rank(&grid, comm.rank(), 1000, 7)
        } else {
            ParticleSet::new(uniform::descs())
        };
        let cfg = WriteConfig::with_target_size(50_000, 124);
        let report = write_particles(
            &comm,
            set,
            grid.bounds_of(comm.rank()),
            &cfg,
            &dir,
            "sparse",
        )
        .expect("write succeeds");
        assert!(report.files >= 1);
    });
    let grid2 = RankGrid::new_3d(n, Aabb::unit());
    let dir = scratch.path.clone();
    let counts = Cluster::run(n, move |comm| {
        read_particles(&comm, grid2.bounds_of(comm.rank()), &dir, "sparse")
            .unwrap()
            .len()
    });
    assert_eq!(counts.iter().sum::<usize>(), 2000);
}

#[test]
fn all_ranks_empty_writes_empty_dataset() {
    let scratch = ScratchDir::new("all-empty");
    let dir = scratch.path.clone();
    Cluster::run(4, move |comm| {
        let set = ParticleSet::new(uniform::descs());
        let cfg = WriteConfig::with_target_size(50_000, 124);
        let report = write_particles(&comm, set, Aabb::unit(), &cfg, &dir, "void")
            .expect("empty write succeeds");
        assert_eq!(report.files, 0);
    });
    let dir = scratch.path.clone();
    let counts = Cluster::run(4, move |comm| {
        read_particles(&comm, Aabb::unit(), &dir, "void")
            .unwrap()
            .len()
    });
    assert_eq!(counts.iter().sum::<usize>(), 0);
}

#[test]
fn grossly_imbalanced_rank_roundtrip() {
    // One rank holds 100x the particles of the others; the write must
    // still succeed with that rank's data unsplit (possibly an oversized
    // file) and reads must recover everything.
    let scratch = ScratchDir::new("imbalanced");
    let n = 6;
    let grid = RankGrid::new_3d(n, Aabb::unit());
    let dir = scratch.path.clone();
    let written = Cluster::run(n, move |comm| {
        let count = if comm.rank() == 2 { 20_000 } else { 200 };
        let set = uniform::generate_rank(&grid, comm.rank(), count, 11);
        let cfg = WriteConfig::with_target_size(60_000, set.bytes_per_particle() as u64);
        write_particles(&comm, set, grid.bounds_of(comm.rank()), &cfg, &dir, "imb")
            .expect("write succeeds");
        count as usize
    });
    let grid2 = RankGrid::new_3d(n, Aabb::unit());
    let dir = scratch.path.clone();
    let counts = Cluster::run(n, move |comm| {
        read_particles(&comm, grid2.bounds_of(comm.rank()), &dir, "imb")
            .unwrap()
            .len()
    });
    assert_eq!(counts.iter().sum::<usize>(), written.iter().sum::<usize>());
}

#[test]
fn multiple_timesteps_coexist() {
    let scratch = ScratchDir::new("steps");
    let n = 4;
    let grid = RankGrid::new_3d(n, Aabb::unit());
    for (step, seed) in [(0u32, 1u64), (1, 2), (2, 3)] {
        let dir = scratch.path.clone();
        let g = grid.clone();
        Cluster::run(n, move |comm| {
            let set = uniform::generate_rank(&g, comm.rank(), 500 + 100 * step as u64, seed);
            let cfg = WriteConfig::with_target_size(40_000, set.bytes_per_particle() as u64);
            write_particles(
                &comm,
                set,
                g.bounds_of(comm.rank()),
                &cfg,
                &dir,
                &format!("step{step}"),
            )
            .expect("write succeeds");
        });
    }
    // Each timestep reads back its own population.
    for step in 0..3u32 {
        let dir = scratch.path.clone();
        let g = grid.clone();
        let counts = Cluster::run(n, move |comm| {
            read_particles(
                &comm,
                g.bounds_of(comm.rank()),
                &dir,
                &format!("step{step}"),
            )
            .unwrap()
            .len()
        });
        assert_eq!(
            counts.iter().sum::<usize>() as u64,
            (500 + 100 * step as u64) * n as u64
        );
    }
}

#[test]
fn in_transit_hook_sees_every_particle() {
    use libbat::write::write_particles_in_transit;
    use std::sync::atomic::{AtomicU64, Ordering};
    let scratch = ScratchDir::new("in-transit");
    let n = 6;
    let grid = RankGrid::new_3d(n, Aabb::unit());
    let dir = scratch.path.clone();
    let seen = std::sync::Arc::new(AtomicU64::new(0));
    let seen2 = seen.clone();
    Cluster::run(n, move |comm| {
        let set = uniform::generate_rank(&grid, comm.rank(), 1000, 13);
        let cfg = WriteConfig::with_target_size(60_000, set.bytes_per_particle() as u64);
        let seen = seen2.clone();
        write_particles_in_transit(
            &comm,
            set,
            grid.bounds_of(comm.rank()),
            &cfg,
            &dir,
            "intransit",
            |_leaf, bat| {
                // In-transit analysis: count particles before the write.
                seen.fetch_add(bat.num_particles() as u64, Ordering::Relaxed);
            },
        )
        .expect("write succeeds");
    });
    assert_eq!(seen.load(Ordering::Relaxed), 6000);
    // The data still landed on disk normally.
    let dir = scratch.path.clone();
    let counts = Cluster::run(n, move |comm| {
        let g = RankGrid::new_3d(n, Aabb::unit());
        read_particles(&comm, g.bounds_of(comm.rank()), &dir, "intransit")
            .unwrap()
            .len()
    });
    assert_eq!(counts.iter().sum::<usize>(), 6000);
}

#[test]
fn auto_target_size_roundtrip() {
    let scratch = ScratchDir::new("auto-target");
    let n = 8;
    let grid = RankGrid::new_3d(n, Aabb::unit());
    let dir = scratch.path.clone();
    let reports = Cluster::run(n, move |comm| {
        let set = uniform::generate_rank(&grid, comm.rank(), 2000, 17);
        // target_file_bytes = 0 → rank 0 picks it from the totals.
        let cfg = WriteConfig::auto(set.bytes_per_particle() as u64);
        write_particles(&comm, set, grid.bounds_of(comm.rank()), &cfg, &dir, "auto")
            .expect("write succeeds")
    });
    assert!(reports[0].files >= 1);
    let dir = scratch.path.clone();
    let counts = Cluster::run(n, move |comm| {
        let g = RankGrid::new_3d(n, Aabb::unit());
        read_particles(&comm, g.bounds_of(comm.rank()), &dir, "auto")
            .unwrap()
            .len()
    });
    assert_eq!(counts.iter().sum::<usize>(), 16_000);
}

/// FNV-1a over a file's bytes; enough to detect any single-byte drift.
fn hash_file(path: &std::path::Path) -> u64 {
    common::fnv1a(std::fs::read(path).unwrap())
}

/// Sorted (name, size, hash) triples for every regular file in `dir`.
fn dir_digest(dir: &std::path::Path) -> Vec<(String, u64, u64)> {
    let mut out: Vec<(String, u64, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_type().unwrap().is_file())
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let size = e.metadata().unwrap().len();
            (name, size, hash_file(&e.path()))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn metrics_do_not_change_written_bytes() {
    // The observability layer must be purely passive: writing with metrics
    // enabled produces byte-identical leaf files and metadata to writing
    // with them disabled.
    let scratch_off = ScratchDir::new("det-off");
    write_uniform(&scratch_off.path, 6, 1800, 90_000, false);

    let scratch_on = ScratchDir::new("det-on");
    {
        let registry = std::sync::Arc::new(bat_obs::Registry::new());
        let _on = bat_obs::enable();
        let _scope = bat_obs::scope(registry.clone());
        write_uniform(&scratch_on.path, 6, 1800, 90_000, false);
        // The instrumentation actually fired while enabled.
        let snap = registry.snapshot();
        assert!(
            snap.counter("write.particles").is_some(),
            "write path recorded metrics"
        );
        assert!(
            snap.histogram("bat.morton_sort_ns").is_some(),
            "BAT build recorded spans"
        );
    }

    let off = dir_digest(&scratch_off.path);
    let on = dir_digest(&scratch_on.path);
    assert!(!off.is_empty(), "write produced files");
    assert_eq!(
        off, on,
        "metrics-enabled write must be byte-identical to disabled"
    );
}

/// Copy accounting of the zero-copy data plane on 4 ranks x 2000 uniform
/// particles (seed 5, 14 f64 attrs), 120000-byte target. The bounds are what
/// the seed (pre-columnar) data plane copied on this workload: the shuffle
/// made 3 copies of the 992000-byte raw payload (encoder copy, decode copy,
/// append copy), and compaction staged the whole 1078400-byte file in
/// memory in `write_bat` before `fs::write`. (Was `fig6_breakdown --smoke`
/// against `crates/bench/baselines/copy_baseline.json`.)
const SEED_SHUFFLE_BYTES_COPIED: u64 = 2_976_000;
const SEED_COMPACT_BYTES_COPIED: u64 = 1_078_400;

#[test]
fn shuffle_and_compaction_copy_less_than_the_seed_data_plane() {
    const RANKS: usize = 4;
    let scratch = ScratchDir::new("copy-accounting");
    // The seed files carried no attribute indexes (the index-matrix CI job
    // turns them on for the whole suite).
    let _env = EnvGuard::set(&[(&knobs::INDEX_ATTRS, None)]);
    let registry = std::sync::Arc::new(bat_obs::Registry::new());
    let _recording = (bat_obs::enable(), bat_obs::scope(registry.clone()));
    let grid = RankGrid::new_3d(RANKS, Aabb::unit());
    Cluster::run(RANKS, |comm| {
        let set = uniform::generate_rank(&grid, comm.rank(), 2000, 5);
        let cfg = WriteConfig::with_target_size(120_000, set.bytes_per_particle() as u64);
        let bounds = grid.bounds_of(comm.rank());
        write_particles(&comm, set, bounds, &cfg, &scratch.path, "copies").expect("write");
    });
    let snap = registry.snapshot();
    let shuffle = snap
        .counter("shuffle.bytes_copied")
        .expect("shuffle.bytes_copied recorded");
    let compact = snap
        .counter("compact.bytes_copied")
        .expect("compact.bytes_copied recorded");
    assert!(
        shuffle < SEED_SHUFFLE_BYTES_COPIED,
        "shuffle copies regressed: {shuffle} >= seed {SEED_SHUFFLE_BYTES_COPIED}"
    );
    assert!(
        compact < SEED_COMPACT_BYTES_COPIED,
        "compaction staging regressed: {compact} >= seed {SEED_COMPACT_BYTES_COPIED}"
    );
}

/// The v2-lossless codecs must keep paying for themselves on the
/// clustered workload they were tuned on: stored payload over raw payload
/// across every leaf file stays at the recorded ratio (0.8426: positions
/// 0.680, attributes 0.883) within the tolerance `stored_ratio_v2` carries
/// in `BENCHMARK.json`.
#[test]
fn v2_lossless_compresses_the_cosmology_payload() {
    let scratch = build_cosmology_dataset("v2-ratio", Some("v2-lossless"));
    let ds = libbat::Dataset::open(&scratch.path, "s").unwrap();
    let (mut stored, mut raw) = (0u64, 0u64);
    for leaf in 0..ds.num_files() as u32 {
        let bytes = std::fs::read(scratch.path.join(leaf_file_name("s", leaf))).unwrap();
        let stats = bat_layout::LayoutStats::measure(&bytes).unwrap();
        assert!(stats.compression_ratio() <= 1.0, "leaf {leaf} grew");
        stored += stats.stored_payload_bytes;
        raw += stats.raw_bytes;
    }
    let ratio = stored as f64 / raw as f64;
    assert!(
        ratio <= 0.8426 + 0.01,
        "v2-lossless stored/raw payload ratio {ratio:.4} ({stored} / {raw} B)"
    );
}
