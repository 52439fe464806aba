//! The executed experiments: real rank threads, real files on local disk,
//! real queries — what the paper itself measures on one workstation. Every
//! `*_ms` / `*_MBs` / `pts_per_ms` column is wall-clock on this host.

use crate::report::Table;
use crate::{sweeps, RunScale};
use bat_baselines::executed::{fpp_read, fpp_write, shared_read, shared_write};
use bat_comm::{Cluster, Comm};
use bat_geom::{Aabb, Vec3};
use bat_layout::stats::LayoutStats;
use bat_layout::treelet::TreeletConfig;
use bat_layout::{AttributeDesc, BatBuilder, BatConfig, BatFile, ParticleSet, Query};
use bat_workloads::{coal_boiler, dam_break, uniform, CoalBoiler, DamBreak, RankGrid};
use libbat::read::read_particles;
use libbat::write::{build_tree, write_particles, WriteConfig, WriteReport};
use libbat::Dataset;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A scratch directory under the target dir for executed datasets.
fn scratch(tag: &str) -> PathBuf {
    let dir = crate::report::experiments_dir().join(format!("data-{tag}"));
    std::fs::create_dir_all(&dir).expect("create scratch");
    dir
}

/// Write one timestep through the executed pipeline, one rank thread per
/// cell of `grid`, each generating its own particles; rank 0's report.
fn write_step(
    dir: &Path,
    basename: &str,
    grid: &RankGrid,
    target_bytes: u64,
    generate: impl Fn(usize) -> ParticleSet + Sync,
) -> WriteReport {
    Cluster::run(grid.len(), |comm| {
        let set = generate(comm.rank());
        let cfg = WriteConfig::with_target_size(target_bytes, set.bytes_per_particle() as u64);
        let bounds = grid.bounds_of(comm.rank());
        write_particles(&comm, set, bounds, &cfg, dir, basename).expect("executed write")
    })
    .swap_remove(0)
}

fn write_coal(
    dir: &Path,
    base: &str,
    cb: &CoalBoiler,
    step: u32,
    ranks: usize,
    target: u64,
) -> WriteReport {
    let grid = cb.grid(step, ranks);
    write_step(dir, base, &grid, target, |r| {
        cb.generate_rank(step, &grid, r)
    })
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One aggregator's worth of the Coal Boiler jet at t=4501 (7 × f64), the
/// single-file population the layout ablations build over.
fn coal_jet(particles: u64, seed: u64) -> (ParticleSet, Aabb) {
    let cb = CoalBoiler::new(particles as f64 / 41_500_000.0, seed);
    let grid = cb.grid(4501, 1);
    (cb.generate_rank(4501, &grid, 0), grid.bounds_of(0))
}

/// Single-file particle count of the layout ablations.
fn ablation_particles(scale: RunScale) -> u64 {
    match scale {
        RunScale::Quick => 200_000,
        RunScale::Default => 1_000_000,
        RunScale::Full => 4_000_000,
    }
}

/// The cells of a 48³ grid over `domain` that `p` falls in: the silhouette
/// measure standing in for the paper's renderings (Fig. 13).
fn voxel_of(domain: &Aabb, p: Vec3) -> (u16, u16, u16) {
    const GRID: f32 = 48.0;
    let n = domain.normalize(p);
    let c = |v: f32| ((v * GRID) as u16).min(GRID as u16 - 1);
    (c(n.x), c(n.y), c(n.z))
}

/// Fig. 13 without a renderer: how many particles each quality level shows
/// and what fraction of the full data's occupied voxels they cover — the
/// "holes" the paper's enlarged-radius trick fills.
pub fn fig13(scale: RunScale) -> Vec<Table> {
    let pop_scale = match scale {
        RunScale::Quick => 4e-3,
        RunScale::Default => 2e-2,
        RunScale::Full => 5e-2,
    };
    let cb = CoalBoiler::new(pop_scale, 42);
    let step = 3501;
    let dir = scratch("fig13");
    write_coal(&dir, "f13", &cb, step, 12, 1 << 20);
    let ds = Dataset::open(&dir, "f13").expect("open");
    let domain = ds.meta().domain;
    let total = ds.num_particles();

    let mut table = Table::new(
        "fig13_quality",
        format!("Fig 13: quality progression, Coal Boiler step {step} ({total} particles)"),
        &["quality", "points", "pct_of_data", "voxel_coverage_pct"],
    );
    let survey = |quality: f64| {
        let mut voxels = HashSet::new();
        let mut pts = 0u64;
        ds.query(&Query::new().with_quality(quality), |p| {
            pts += 1;
            voxels.insert(voxel_of(&domain, p.position));
        })
        .expect("query");
        (pts, voxels.len() as f64)
    };
    let (_, full_voxels) = survey(1.0);
    for q in [0.2, 0.4, 0.8, 1.0] {
        let (pts, voxels) = survey(q);
        table.row(vec![
            format!("{q:.1}"),
            pts.to_string(),
            format!("{:.1}", pts as f64 / total as f64 * 100.0),
            format!("{:.1}", voxels / full_voxels * 100.0),
        ]);
    }
    std::fs::remove_dir_all(&dir).ok();
    vec![table]
}

/// The paper's progressive protocol (§VI-B1): request quality 0.1 → 1.0 in
/// 0.1 increments, single-threaded; per-step milliseconds and total points.
fn progressive_read(ds: &Dataset, times_ms: &mut Vec<f64>) -> u64 {
    let mut points = 0u64;
    let mut prev = 0.0;
    for i in 1..=10 {
        let cur = i as f64 / 10.0;
        let q = Query::new().with_prev_quality(prev).with_quality(cur);
        let timer = Instant::now();
        ds.query(&q, |_| points += 1).expect("query");
        times_ms.push(ms_since(timer));
        prev = cur;
    }
    points
}

fn avg_and_throughput(times_ms: &[f64], points: u64) -> [String; 2] {
    let sum: f64 = times_ms.iter().sum();
    [
        format!("{:.2}", sum / times_ms.len() as f64),
        format!("{:.0}", points as f64 / sum),
    ]
}

/// Table I, executed on a scaled-down boiler (the published
/// 1536-rank/41.5M-particle data needs a machine we don't have), plus the
/// single-file full-scan row that puts points/ms at the paper's file sizes.
pub fn table1(scale: RunScale) -> Vec<Table> {
    let (pop_scale, ranks, steps, scan_particles): (f64, usize, &[u32], u64) = match scale {
        RunScale::Quick => (2e-3, 8, &[2501], 200_000),
        RunScale::Default => (1e-2, 16, &[501, 2501, 4501], 2_000_000),
        RunScale::Full => (2.5e-2, 16, &[501, 1501, 2501, 3501, 4501], 2_000_000),
    };
    let cb = CoalBoiler::new(pop_scale, 42);
    let dir = scratch("table1");
    let mut table = Table::new(
        "table1_progressive_coal",
        format!(
            "Table I: progressive single-thread reads, Coal Boiler (scale {pop_scale}, {ranks} ranks)"
        ),
        &["target", "files", "avg_read_ms", "avg_pts_per_ms", "points_total"],
    );
    // The paper sweeps 2–16 MB targets at full scale; scale them with the
    // population so the file counts are comparable.
    for t in [2u64, 4, 8, 16] {
        let target_bytes = ((t << 20) as f64 * pop_scale) as u64 + 4096;
        let mut times = Vec::new();
        let mut points = 0u64;
        let mut files = 0;
        for &step in steps {
            let base = format!("t1-{t}-{step}");
            files = write_coal(&dir, &base, &cb, step, ranks, target_bytes).files;
            let ds = Dataset::open(&dir, &base).expect("open dataset");
            points += progressive_read(&ds, &mut times);
        }
        let [avg_ms, pts_per_ms] = avg_and_throughput(&times, points);
        table.row(vec![
            format!("{t}MB*"),
            files.to_string(),
            avg_ms,
            pts_per_ms,
            points.to_string(),
        ]);
    }
    std::fs::remove_dir_all(&dir).ok();

    // One file the size of a paper aggregator's, scanned in full (best of 3).
    let (set, domain) = coal_jet(scan_particles, 7);
    let bat = BatBuilder::new(BatConfig::default()).build(set, domain);
    let file = BatFile::from_bytes(bat.to_bytes()).expect("valid");
    let mut points = 0u64;
    let best_ms = (0..3)
        .map(|_| {
            points = 0;
            let timer = Instant::now();
            file.query(&Query::new(), |_| points += 1).expect("query");
            ms_since(timer)
        })
        .fold(f64::MAX, f64::min);
    let [scan_ms, pts_per_ms] = avg_and_throughput(&[best_ms], points);
    table.row(vec![
        "one file (full scan)".to_string(),
        "1".to_string(),
        scan_ms,
        pts_per_ms,
        points.to_string(),
    ]);
    vec![table]
}

/// Table II: the Table I protocol on the Dam Break at reduced rank counts;
/// the particle populations are the paper's where the machine allows.
pub fn table2(scale: RunScale) -> Vec<Table> {
    // (particles, executed ranks, published label)
    let configs: &[(u64, usize, &str)] = match scale {
        RunScale::Quick => &[(200_000, 8, "0.2M")],
        RunScale::Default => &[(500_000, 16, "0.5M"), (2_000_000, 16, "2M")],
        RunScale::Full => &[(2_000_000, 16, "2M"), (8_000_000, 24, "8M")],
    };
    let (targets_mb, steps): (&[u64], &[u32]) = match scale {
        RunScale::Quick => (&[3], &[2001]),
        _ => (&[1, 3, 6], &[0, 2001, 4001]),
    };
    let dir = scratch("table2");
    let mut table = Table::new(
        "table2_progressive_dam",
        "Table II: progressive single-thread reads, Dam Break",
        &["config", "target", "files", "avg_read_ms", "avg_pts_per_ms"],
    );
    for &(particles, ranks, label) in configs {
        let db = DamBreak::new(particles, 17);
        let grid = db.grid(ranks);
        // Scale the published targets with the population relative to 2M.
        let factor = particles as f64 / 2_000_000.0;
        for &t in targets_mb {
            let target_bytes = (((t << 20) as f64) * factor).max(64.0 * 1024.0) as u64;
            let mut times = Vec::new();
            let mut points = 0u64;
            let mut files = 0;
            for &step in steps {
                let base = format!("t2-{label}-{t}-{step}");
                files = write_step(&dir, &base, &grid, target_bytes, |r| {
                    db.generate_rank(step, &grid, r)
                })
                .files;
                let ds = Dataset::open(&dir, &base).expect("open dataset");
                points += progressive_read(&ds, &mut times);
                // Clean as we go: the 8M datasets are sizable.
                for leaf in 0..files {
                    let name = libbat::write::leaf_file_name(&base, leaf as u32);
                    std::fs::remove_file(dir.join(name)).ok();
                }
            }
            let [avg_ms, pts_per_ms] = avg_and_throughput(&times, points);
            table.row(vec![
                label.to_string(),
                format!("{t}MB*"),
                files.to_string(),
                avg_ms,
                pts_per_ms,
            ]);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    vec![table]
}

/// §VI-B: layout bytes beyond the raw particle payload, on real compacted
/// files across both workload schemas and a range of aggregator population
/// sizes (the overhead amortizes with particles per treelet).
pub fn stats_overhead(scale: RunScale) -> Vec<Table> {
    let sizes: &[u64] = match scale {
        RunScale::Quick => &[100_000, 500_000],
        RunScale::Default => &[100_000, 500_000, 2_000_000],
        RunScale::Full => &[100_000, 500_000, 2_000_000, 8_000_000],
    };
    let mut table = Table::new(
        "stats_overhead",
        "BAT layout storage overhead",
        &[
            "dataset",
            "particles",
            "raw_MB",
            "treelets",
            "nodes",
            "dict",
            "structure%",
            "file%",
        ],
    );
    let mut measure = |name: String, set: ParticleSet, domain: Aabb| {
        let n = set.len();
        let bytes = BatBuilder::new(BatConfig::default())
            .build(set, domain)
            .to_bytes();
        let stats = LayoutStats::measure(&bytes).expect("valid image");
        table.row(vec![
            name,
            n.to_string(),
            format!("{:.1}", stats.raw_bytes as f64 / 1e6),
            stats.num_treelets.to_string(),
            stats.num_nodes.to_string(),
            stats.dict_entries.to_string(),
            format!("{:.2}", stats.structure_overhead() * 100.0),
            format!("{:.2}", stats.overhead() * 100.0),
        ]);
    };
    for &n in sizes {
        let (set, domain) = coal_jet(n, 11);
        measure(format!("coal_{}k", n / 1000), set, domain);
        // Dam Break schema (4 × f64).
        let db = DamBreak::new(n, 13);
        let set = db.generate_rank(2001, &db.grid(1), 0);
        measure(format!("dam_{}k", n / 1000), set, db.tank);
    }
    vec![table]
}

/// §III-C1: "a 12-bit subprefix provides satisfactory results". Fewer bits
/// → few huge treelets (less parallelism, deeper treelets); more bits →
/// thousands of tiny treelets (padding and header overhead).
pub fn ablate_subprefix(scale: RunScale) -> Vec<Table> {
    let (set, domain) = coal_jet(ablation_particles(scale), 7);
    let mut table = Table::new(
        "ablate_subprefix",
        format!(
            "Ablation: subprefix bits ({} particles, coal jet)",
            set.len()
        ),
        &[
            "bits",
            "treelets",
            "max_depth",
            "build_ms",
            "structure%",
            "file%",
            "full_query_ms",
        ],
    );
    for bits in [6u32, 9, 12, 15, 18] {
        let cfg = BatConfig {
            subprefix_bits: bits,
            ..BatConfig::default()
        };
        let t = Instant::now();
        let bat = BatBuilder::new(cfg).build(set.clone(), domain);
        let build_ms = ms_since(t);
        let bytes = bat.to_bytes();
        let stats = LayoutStats::measure(&bytes).expect("valid");
        let file = BatFile::from_bytes(bytes).expect("valid");
        let t = Instant::now();
        let _ = file.count(&Query::new()).expect("query");
        let query_ms = ms_since(t);
        table.row(vec![
            bits.to_string(),
            stats.num_treelets.to_string(),
            bat.max_treelet_depth.to_string(),
            format!("{build_ms:.1}"),
            format!("{:.2}", stats.structure_overhead() * 100.0),
            format!("{:.2}", stats.overhead() * 100.0),
            format!("{query_ms:.2}"),
        ]);
    }
    vec![table]
}

/// §VII: "the effectiveness of limiting bitmaps to just 32 bits warrants
/// further evaluation." For attribute range filters of varying selectivity,
/// how many candidate points the traversal tests exactly versus how many it
/// returns — on a spatially *correlated* attribute (where the paper expects
/// bitmaps to work) and on pure noise (the acknowledged worst case).
pub fn ablate_bitmap(scale: RunScale) -> Vec<Table> {
    let n = ablation_particles(scale) as usize;
    let mut rng = bat_geom::rng::Xoshiro256::new(3);
    let mut set = ParticleSet::new(vec![
        AttributeDesc::f64("temp"),
        AttributeDesc::f64("noise"),
    ]);
    for _ in 0..n {
        let p = Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32());
        let temp = 1000.0 * p.x as f64 + 5.0 * rng.normal();
        let noise = rng.uniform(0.0, 1000.0);
        set.push(p, &[temp, noise]);
    }
    let bat = BatBuilder::new(BatConfig::default()).build(set, Aabb::unit());
    let file = BatFile::from_bytes(bat.to_bytes()).expect("valid");

    let mut table = Table::new(
        "ablate_bitmap",
        format!("Ablation: 32-bit bitmap filtering effectiveness ({n} particles)"),
        &[
            "attribute",
            "selectivity%",
            "returned",
            "tested",
            "false_pos%",
            "scan_avoided%",
        ],
    );
    for (attr, name) in [(0usize, "temp (coherent)"), (1, "noise (worst case)")] {
        let (lo, hi) = file.head().attr_ranges[attr];
        for sel in [0.01, 0.05, 0.2, 0.5] {
            let qlo = lo + (0.5 - sel / 2.0) * (hi - lo);
            let qhi = lo + (0.5 + sel / 2.0) * (hi - lo);
            let stats = file
                .query(&Query::new().with_filter(attr, qlo, qhi), |_| {})
                .expect("query");
            let tested = stats.points_tested as f64;
            let false_pos = (tested - stats.points_returned as f64) / tested.max(1.0);
            table.row(vec![
                name.to_string(),
                format!("{:.0}", sel * 100.0),
                stats.points_returned.to_string(),
                stats.points_tested.to_string(),
                format!("{:.1}", false_pos * 100.0),
                format!("{:.1}", (1.0 - tested / n as f64) * 100.0),
            ]);
        }
    }
    vec![table]
}

/// §III-A: "Users can also optionally configure the tree to find and use
/// the best split across all spatial axes." Balance quality vs. measured
/// tree build cost on both nonuniform workloads.
pub fn ablate_split_axis(scale: RunScale) -> Vec<Table> {
    let samples = sweeps::mc_samples(scale);
    let cb = CoalBoiler::new(1.0, 42);
    let coal = cb.rank_infos(4501, &cb.grid(4501, 1536), samples);
    let db = DamBreak::new(8_000_000, 17);
    let dam = db.rank_infos(2001, &db.grid(6144), samples);

    let mut table = Table::new(
        "ablate_split_axis",
        "Ablation: split axis policy",
        &[
            "workload",
            "mode",
            "build_ms",
            "files",
            "stddev_MB",
            "max_MB",
        ],
    );
    for (name, infos, bpp, target) in [
        (
            "coal t=4501",
            &coal,
            coal_boiler::BYTES_PER_PARTICLE,
            8u64 << 20,
        ),
        (
            "dam 8M t=2001",
            &dam,
            dam_break::BYTES_PER_PARTICLE,
            3 << 20,
        ),
    ] {
        for (all_axes, mode) in [(false, "longest"), (true, "all-axes")] {
            let mut cfg = WriteConfig::with_target_size(target, bpp);
            cfg.agg.split_all_axes = all_axes;
            let t = Instant::now();
            let tree = build_tree(infos, &cfg);
            let build_ms = ms_since(t);
            let b = tree.balance();
            table.row(vec![
                name.to_string(),
                mode.to_string(),
                format!("{build_ms:.1}"),
                b.num_files.to_string(),
                format!("{:.1}", b.stddev_bytes / 1e6),
                format!("{:.1}", b.max_bytes as f64 / 1e6),
            ]);
        }
    }
    vec![table]
}

/// §VI-B builds BATs with 8 LOD particles per inner node. More give richer
/// coarse previews but fatten every inner node's block; fewer make the
/// coarse levels sparser. Preview size and coverage at quality 0.2, and
/// build cost.
pub fn ablate_lod(scale: RunScale) -> Vec<Table> {
    let (set, domain) = coal_jet(ablation_particles(scale), 7);
    let full_voxels: HashSet<_> = set
        .positions
        .iter()
        .map(|&p| voxel_of(&domain, p))
        .collect();
    let mut table = Table::new(
        "ablate_lod",
        format!(
            "Ablation: LOD particles per inner node ({} particles)",
            set.len()
        ),
        &[
            "lod",
            "build_ms",
            "q0.2_points",
            "q0.2_coverage%",
            "max_depth",
        ],
    );
    for lod in [2u32, 4, 8, 16, 32] {
        let cfg = BatConfig {
            subprefix_bits: 12,
            treelet: TreeletConfig {
                lod_per_inner: lod,
                max_leaf: 128,
                seed: 1,
            },
        };
        let t = Instant::now();
        let bat = BatBuilder::new(cfg).build(set.clone(), domain);
        let build_ms = ms_since(t);
        let file = BatFile::from_bytes(bat.to_bytes()).expect("valid");
        let mut pts = 0u64;
        let mut voxels = HashSet::new();
        file.query(&Query::new().with_quality(0.2), |p| {
            pts += 1;
            voxels.insert(voxel_of(&domain, p.position));
        })
        .expect("query");
        table.row(vec![
            lod.to_string(),
            format!("{build_ms:.1}"),
            pts.to_string(),
            format!(
                "{:.1}",
                voxels.len() as f64 / full_voxels.len() as f64 * 100.0
            ),
            bat.max_treelet_depth.to_string(),
        ]);
    }
    vec![table]
}

/// Real files on local disk, real rank threads — no performance model
/// anywhere: the two-phase adaptive write/read against executed
/// file-per-process and single-shared-file baselines at laptop scale.
/// Absolute numbers are machine-local.
pub fn extra_executed(scale: RunScale) -> Vec<Table> {
    let (ranks, per_rank, reps) = match scale {
        RunScale::Quick => (8usize, 20_000u64, 2u64),
        RunScale::Default => (16, 50_000, 3),
        RunScale::Full => (16, 200_000, 5),
    };
    let dir = scratch("extra-executed");
    let grid = RankGrid::new_3d(ranks, Aabb::unit());
    let total_bytes = (ranks as u64 * per_rank * uniform::BYTES_PER_PARTICLE) as f64;
    let mut table = Table::new(
        "extra_executed",
        format!(
            "Executed comparison: {ranks} ranks × {per_rank} particles ({:.1} MB), best of {reps}",
            total_bytes / 1e6
        ),
        &[
            "strategy",
            "write_ms",
            "read_ms",
            "write_MBs",
            "read_MBs",
            "queryable",
        ],
    );

    type Write<'a> = &'a (dyn Fn(&dyn Comm, ParticleSet, &str) + Sync);
    type Read<'a> = &'a (dyn Fn(&dyn Comm, &str) + Sync);
    let bounds = |comm: &dyn Comm| grid.bounds_of(comm.rank());
    let strategies: [(&str, &str, Write, Read, &str); 3] = [
        (
            "two-phase adaptive",
            "tp",
            &|comm, set, name| {
                let cfg = WriteConfig::auto(uniform::BYTES_PER_PARTICLE);
                write_particles(comm, set, bounds(comm), &cfg, &dir, name).expect("write");
            },
            &|comm, name| {
                read_particles(comm, bounds(comm), &dir, name).expect("read");
            },
            "yes (BAT)",
        ),
        (
            "file per process",
            "fpp",
            &|comm, set, name| fpp_write(comm, &set, &dir, name).expect("write"),
            &|comm, name| {
                fpp_read(comm, &dir, name).expect("read");
            },
            "no",
        ),
        (
            "single shared file",
            "sh",
            &|comm, set, name| {
                shared_write(comm, &set, &dir, name).expect("write");
            },
            &|comm, name| {
                shared_read(comm, &dir, name).expect("read");
            },
            "no",
        ),
    ];
    for (strategy, tag, write, read, queryable) in strategies {
        // Slowest rank per repetition, best repetition per strategy.
        let mut best = [f64::MAX; 2];
        for rep in 0..reps {
            let name = format!("{tag}{rep}");
            let times = Cluster::run(ranks, |comm| {
                let set = uniform::generate_rank(&grid, comm.rank(), per_rank, rep);
                let t = Instant::now();
                write(&*comm, set, &name);
                let w = t.elapsed().as_secs_f64();
                comm.barrier();
                let t = Instant::now();
                read(&*comm, &name);
                [w, t.elapsed().as_secs_f64()]
            });
            for (op, best) in best.iter_mut().enumerate() {
                *best = best.min(times.iter().map(|t| t[op]).fold(0.0, f64::max));
            }
        }
        let [w, r] = best;
        table.row(vec![
            strategy.to_string(),
            format!("{:.1}", w * 1e3),
            format!("{:.1}", r * 1e3),
            format!("{:.0}", total_bytes / w / 1e6),
            format!("{:.0}", total_bytes / r / 1e6),
            queryable.to_string(),
        ]);
    }
    std::fs::remove_dir_all(&dir).ok();
    vec![table]
}
