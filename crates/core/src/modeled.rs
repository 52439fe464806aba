//! The two-phase pipelines at supercomputer scale, against the
//! `bat-iosim` performance model.
//!
//! The paper's weak-scaling studies run at 1.5k–43k ranks on Stampede2 and
//! Summit. Those rank counts cannot execute as threads on one machine, but
//! the *decisions* the pipeline makes at that scale can be computed exactly:
//! rank 0's aggregation-tree build is serial in the paper too, so we run
//! the real algorithm on the real rank population, and the resulting plan
//! (who sends how many bytes to whom, which files exist at what sizes)
//! drives the storage/network queueing model, which prices the transfer,
//! write, and read phases. Every byte count and file layout is real; every
//! duration is priced from the committed [`SystemProfile`] — none is
//! measured on the host — so both functions here are pure: the same inputs
//! give bit-identical [`PhaseTimes`]. See DESIGN.md §2.

use crate::write::{build_tree, Strategy, WriteConfig};
use bat_aggregation::assign::assign_read_aggregators;
use bat_aggregation::{assign_aggregators, BalanceStats, RankInfo};
use bat_iosim::{NetworkModel, PhaseTimes, StorageModel, SystemProfile, WritePhase};

/// Outcome of a modeled write or read.
#[derive(Debug, Clone)]
pub struct ModeledOutcome {
    /// Per-phase durations; `total` is their sum (the pipeline's phases are
    /// bulk-synchronous).
    pub times: PhaseTimes,
    /// Leaf-file balance statistics from the real aggregation plan.
    pub balance: BalanceStats,
    /// Number of leaf files.
    pub files: usize,
    /// Total particle payload bytes.
    pub bytes_total: u64,
}

impl ModeledOutcome {
    /// Achieved bandwidth in bytes/second.
    pub fn bandwidth(&self) -> f64 {
        self.times.bandwidth(self.bytes_total)
    }
}

/// Size in bytes of the control structure each rank contributes to the
/// gather (rank id + bounds + count).
const RANK_INFO_BYTES: u64 = 36;

/// Model a collective write of the given rank population on `profile`.
///
/// The aggregation tree is *built for real* over `ranks`; its build is
/// priced by [`bat_iosim::ComputeProfile::tree_build_secs`] and the
/// transfer/build/write phases by the queueing model.
pub fn model_write(
    profile: &SystemProfile,
    ranks: &[RankInfo],
    cfg: &WriteConfig,
) -> ModeledOutcome {
    let n = ranks.len();
    let nodes = profile.nodes_for(n);
    let mut net = NetworkModel::new(profile, nodes);
    let mut storage = StorageModel::new(&profile.storage);
    let mut times = PhaseTimes::new();
    let bpp = cfg.agg.bytes_per_particle;

    // --- Phase 1: gather infos + build the tree (really) on "rank 0". ---
    let t_gather = net.control_collective(n, RANK_INFO_BYTES, 0.0);
    let mut tree = build_tree(ranks, cfg);
    assign_aggregators(&mut tree.leaves, n);
    let populated = ranks.iter().filter(|r| r.particles > 0).count();
    let hierarchical = cfg.strategy == Strategy::Adaptive;
    times[WritePhase::TreeBuild] = t_gather
        + profile
            .compute
            .tree_build_secs(populated, tree.leaves.len(), hierarchical);

    // --- Phase 2: scatter assignments. ---
    net.reset();
    times[WritePhase::Scatter] = net.control_collective(n, 64, 0.0);

    // --- Phase 3: transfer particles to aggregators. ---
    net.reset();
    let mut transfer_done = 0.0f64;
    let particles_of = |r: u32| ranks[r as usize].particles;
    for leaf in &tree.leaves {
        for &r in &leaf.ranks {
            let bytes = particles_of(r) * bpp;
            if r != leaf.aggregator && bytes > 0 {
                let t = net.transfer(r as usize, leaf.aggregator as usize, 0.0, bytes);
                transfer_done = transfer_done.max(t);
            }
        }
    }
    times[WritePhase::Transfer] = transfer_done;
    net.publish_metrics("iosim.write.network");

    // --- Phase 4: BAT construction on each aggregator. ---
    let build_rate = profile.compute.bat_build_rate;
    let slowest_build = tree
        .leaves
        .iter()
        .map(|l| l.bytes as f64 / build_rate)
        .fold(0.0, f64::max);
    times[WritePhase::LayoutBuild] = slowest_build;

    // --- Phase 5: write one file per leaf. ---
    net.reset();
    storage.reset();
    let mut write_done = 0.0f64;
    for (li, leaf) in tree.leaves.iter().enumerate() {
        let created = storage.create_file(0.0);
        let stored = storage.write_file(li, created, leaf.bytes);
        let injected = net.inject(leaf.aggregator as usize, created, leaf.bytes);
        write_done = write_done.max(stored.max(injected));
    }
    times[WritePhase::FileWrite] = write_done;

    // --- Phase 6: metadata gather + write. ---
    net.reset();
    let t_reports = net.control_collective(n, 128, 0.0);
    let meta_bytes = 128 * tree.leaves.len() as u64 + 1024;
    let created = storage.create_file(write_done);
    let t_meta = storage.write_file(tree.leaves.len(), created, meta_bytes) - write_done;
    times[WritePhase::Metadata] = t_reports + t_meta;
    storage.publish_metrics("iosim.write.storage");

    times.total = times.component_sum();
    let bytes_total: u64 = ranks.iter().map(|r| r.particles * bpp).sum();
    ModeledOutcome {
        balance: tree.balance(),
        files: tree.leaves.len(),
        bytes_total,
        times,
    }
}

/// Model a collective checkpoint-restart read: `reader_ranks` ranks read
/// back the data written by the plan for `ranks` under `cfg` (each reader
/// fetching its own region). With `reader_ranks == ranks.len()` this is the
/// paper's weak-scaling read; other values model restarting on a different
/// rank count (§IV-A).
pub fn model_read(
    profile: &SystemProfile,
    ranks: &[RankInfo],
    cfg: &WriteConfig,
    reader_ranks: usize,
) -> ModeledOutcome {
    let n = reader_ranks.max(1);
    let nodes = profile.nodes_for(n);
    let mut net = NetworkModel::new(profile, nodes);
    let mut storage = StorageModel::new(&profile.storage);
    let mut times = PhaseTimes::new();
    let bpp = cfg.agg.bytes_per_particle;

    let mut tree = build_tree(ranks, cfg);
    assign_aggregators(&mut tree.leaves, ranks.len());
    let owners = assign_read_aggregators(tree.leaves.len(), n);

    // --- Metadata: one read + broadcast. ---
    let t_open = storage.open_file(0.0);
    let meta_bytes = 128 * tree.leaves.len() as u64 + 1024;
    let t_meta = storage.read_file(tree.leaves.len(), t_open, meta_bytes);
    times[WritePhase::Metadata] = t_meta + (n as f64).log2().ceil() * net.latency();

    // --- File reads by the read aggregators. ---
    storage.reset();
    let mut read_done = 0.0f64;
    for (li, leaf) in tree.leaves.iter().enumerate() {
        let opened = storage.open_file(0.0);
        let t = storage.read_file(li, opened, leaf.bytes);
        let injected = net.inject(owners[li] as usize, opened, leaf.bytes);
        read_done = read_done.max(t.max(injected));
    }
    times[WritePhase::FileWrite] = read_done;

    // --- Transfer: each writing rank's region flows back to a reader. ---
    // Readers map over the writer population proportionally (a restart on
    // fewer/more ranks re-partitions the same domain).
    net.reset();
    let mut transfer_done = 0.0f64;
    for (li, leaf) in tree.leaves.iter().enumerate() {
        let owner = owners[li] as usize;
        for &r in &leaf.ranks {
            let bytes = ranks[r as usize].particles * bpp;
            let reader = (r as usize * n) / ranks.len();
            if reader != owner && bytes > 0 {
                let t = net.transfer(owner, reader, 0.0, bytes);
                transfer_done = transfer_done.max(t);
            }
        }
    }
    times[WritePhase::Transfer] = transfer_done;
    net.publish_metrics("iosim.read.network");
    storage.publish_metrics("iosim.read.storage");

    times.total = times.component_sum();
    let bytes_total: u64 = ranks.iter().map(|r| r.particles * bpp).sum();
    ModeledOutcome {
        balance: tree.balance(),
        files: tree.leaves.len(),
        bytes_total,
        times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_geom::{Aabb, Vec3};

    /// Uniform 3D grid of ranks, `per` particles each (the Fig. 5 setup).
    fn uniform_ranks(n: usize, per: u64) -> Vec<RankInfo> {
        let g = (n as f64).cbrt().ceil() as usize;
        (0..n)
            .map(|r| {
                let (x, y, z) = (r % g, (r / g) % g, r / (g * g));
                let min = Vec3::new(x as f32, y as f32, z as f32);
                let max = min + Vec3::ONE;
                RankInfo::new(r as u32, Aabb::new(min, max), per)
            })
            .collect()
    }

    /// Bytes/particle of the uniform benchmark: 3×f32 + 14×f64 (§VI-A1).
    const BPP: u64 = 124;

    fn cfg(target_mb: u64) -> WriteConfig {
        WriteConfig::with_target_size(target_mb << 20, BPP)
    }

    #[test]
    fn write_model_produces_sane_bandwidth() {
        let profile = SystemProfile::stampede2();
        let ranks = uniform_ranks(1536, 32_768);
        let out = model_write(&profile, &ranks, &cfg(64));
        let bw = out.bandwidth();
        // Bandwidth must be positive and below the filesystem peak.
        assert!(bw > 1e8, "bw {bw:.3e}");
        assert!(bw < profile.peak_storage_bw(), "bw {bw:.3e}");
        assert_eq!(out.bytes_total, 1536 * 32_768 * BPP);
        assert!(out.files > 0);
    }

    #[test]
    fn larger_target_fewer_files() {
        let profile = SystemProfile::stampede2();
        let ranks = uniform_ranks(3072, 32_768);
        let small = model_write(&profile, &ranks, &cfg(8));
        let large = model_write(&profile, &ranks, &cfg(128));
        assert!(
            large.files < small.files,
            "{} vs {}",
            large.files,
            small.files
        );
    }

    #[test]
    fn small_targets_hit_metadata_wall_at_scale() {
        // At high rank counts, tiny target sizes create file storms whose
        // create cost dominates — the Fig. 5 degradation.
        let profile = SystemProfile::stampede2();
        let ranks = uniform_ranks(24_576, 32_768);
        let small = model_write(&profile, &ranks, &cfg(8));
        let large = model_write(&profile, &ranks, &cfg(128));
        assert!(
            large.bandwidth() > small.bandwidth(),
            "large target should win at 24k ranks: {:.3e} vs {:.3e}",
            large.bandwidth(),
            small.bandwidth()
        );
    }

    #[test]
    fn weak_scaling_bandwidth_grows_then_saturates() {
        let profile = SystemProfile::summit();
        let mut prev_bw = 0.0;
        let mut grew = 0;
        for n in [168, 672, 2688, 10_752] {
            let ranks = uniform_ranks(n, 32_768);
            let out = model_write(&profile, &ranks, &cfg(64));
            if out.bandwidth() > prev_bw {
                grew += 1;
            }
            prev_bw = out.bandwidth();
        }
        assert!(grew >= 2, "bandwidth should scale up over the sweep");
    }

    #[test]
    fn read_model_mirrors_write() {
        let profile = SystemProfile::stampede2();
        let ranks = uniform_ranks(1536, 32_768);
        let w = model_write(&profile, &ranks, &cfg(32));
        let r = model_read(&profile, &ranks, &cfg(32), 1536);
        assert_eq!(w.files, r.files);
        assert!(r.times.total > 0.0);
        // Reads skip tree construction and layout builds entirely.
        assert_eq!(r.times[WritePhase::TreeBuild], 0.0);
        assert_eq!(r.times[WritePhase::LayoutBuild], 0.0);
    }

    #[test]
    fn read_on_different_rank_count() {
        let profile = SystemProfile::stampede2();
        let ranks = uniform_ranks(1536, 32_768);
        for readers in [96, 1536, 4096] {
            let r = model_read(&profile, &ranks, &cfg(32), readers);
            assert!(r.times.total > 0.0, "readers={readers}");
        }
    }

    #[test]
    fn modeled_times_are_a_pure_function_of_the_inputs() {
        let profile = SystemProfile::stampede2();
        let ranks = uniform_ranks(1536, 32_768);
        let run = |strategy| {
            let mut c = cfg(8);
            c.strategy = strategy;
            (
                model_write(&profile, &ranks, &c).times,
                model_read(&profile, &ranks, &c, 1536).times,
            )
        };
        // A sibling thread keeps a core busy while the runs repeat: host
        // load must not reach a single bit of the modeled phases.
        let stop = std::sync::atomic::AtomicBool::new(false);
        let runs: Vec<_> = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
            let runs = (0..4)
                .map(|_| [run(Strategy::Adaptive), run(Strategy::Aug)])
                .collect();
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            runs
        });
        for again in &runs[1..] {
            assert_eq!(again, &runs[0]);
        }
        let [(adaptive, _), (aug, _)] = &runs[0];
        assert!(adaptive[WritePhase::TreeBuild] > aug[WritePhase::TreeBuild]);
        assert!(aug[WritePhase::TreeBuild] > 0.0);
    }

    #[test]
    fn aug_strategy_flows_through() {
        let profile = SystemProfile::stampede2();
        let ranks = uniform_ranks(512, 32_768);
        let mut c = cfg(16);
        c.strategy = Strategy::Aug;
        let out = model_write(&profile, &ranks, &c);
        assert!(out.files > 0);
        assert!(out.bandwidth() > 0.0);
    }
}
