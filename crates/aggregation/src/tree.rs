//! The adaptive Aggregation Tree build (paper §III-A).

use crate::rank::RankInfo;
use bat_geom::{Aabb, Axis};
use bat_layout::radix::NodeRef;

/// Aggregation tree parameters.
///
/// `target_file_bytes` is the paper's main tunable: smaller targets mean
/// more, smaller files and less network traffic; larger targets mean fewer,
/// larger files with more aggregation. The best value varies by system and
/// scale, which is why it is exposed (paper §III-A).
#[derive(Debug, Clone, Copy)]
pub struct AggConfig {
    /// Desired file size per leaf, in bytes.
    pub target_file_bytes: u64,
    /// Bytes per particle (positions + attributes) for sizing.
    pub bytes_per_particle: u64,
    /// Imbalance ratio `max(n_l, n_r) / min(n_l, n_r)` at or above which a
    /// split is considered bad enough to prefer an overfull leaf. The paper
    /// runs its evaluation with "a cost of four or higher" (§VI-A2).
    pub overfull_ratio: f64,
    /// Overfull leaves may hold up to this factor × target size (paper
    /// evaluation: 1.5×).
    pub overfull_factor: f64,
    /// Search every axis for the best split instead of only the longest
    /// (the optional mode of §III-A).
    pub split_all_axes: bool,
}

impl AggConfig {
    /// Configuration used throughout the paper's evaluation: overfull leaves
    /// up to 1.5× target when the best split ratio is ≥ 4.
    pub fn new(target_file_bytes: u64, bytes_per_particle: u64) -> AggConfig {
        AggConfig {
            target_file_bytes,
            bytes_per_particle,
            overfull_ratio: 4.0,
            overfull_factor: 1.5,
            split_all_axes: false,
        }
    }
}

/// An inner node of the aggregation tree: a split plane over rank bounds.
#[derive(Debug, Clone, Copy)]
pub struct AggInner {
    /// Split axis.
    pub axis: Axis,
    /// Split plane position along `axis`.
    pub pos: f32,
    /// Bounds of all ranks below this node.
    pub bounds: Aabb,
    /// Left child reference.
    pub left: NodeRef,
    /// Right child reference.
    pub right: NodeRef,
}

/// A leaf: the set of ranks whose data one aggregator receives and writes
/// as one file.
#[derive(Debug, Clone)]
pub struct AggLeaf {
    /// Ranks assigned to this leaf (each rank appears in exactly one leaf).
    pub ranks: Vec<u32>,
    /// Union of the member ranks' bounds.
    pub bounds: Aabb,
    /// Total particles in the leaf.
    pub particles: u64,
    /// Total payload bytes in the leaf.
    pub bytes: u64,
    /// Aggregator rank assigned to receive and write this leaf
    /// (see [`crate::assign_aggregators`]).
    pub aggregator: u32,
}

/// The aggregation tree: inner split nodes plus balanced leaves.
#[derive(Debug, Clone)]
pub struct AggregationTree {
    /// Inner split nodes.
    pub inners: Vec<AggInner>,
    /// Balanced leaves (one output file each).
    pub leaves: Vec<AggLeaf>,
    /// Root reference; `None` when no rank has particles.
    pub root: Option<NodeRef>,
    /// Bounds of all populated ranks.
    pub domain: Aabb,
}

/// File-size balance statistics over the leaves (paper §VI-A2 reports file
/// count, mean, standard deviation, and maximum size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceStats {
    /// Number of leaf files.
    pub num_files: usize,
    /// Mean file size in bytes.
    pub mean_bytes: f64,
    /// Standard deviation of file sizes.
    pub stddev_bytes: f64,
    /// Largest file.
    pub max_bytes: u64,
    /// Smallest file.
    pub min_bytes: u64,
}

impl AggregationTree {
    /// Build the adaptive aggregation tree over the gathered rank infos.
    ///
    /// Ranks without particles are excluded (they skip the data transfer,
    /// paper §III-B); every rank *with* particles lands in exactly one
    /// leaf. The build is parallelized top-down: a task builds the right
    /// subtree while the current thread continues with the left (the paper
    /// uses Intel TBB for this; we use rayon's join). The result is
    /// deterministic and identical to a serial build.
    pub fn build(ranks: &[RankInfo], cfg: &AggConfig) -> AggregationTree {
        assert!(cfg.target_file_bytes > 0);
        assert!(cfg.bytes_per_particle > 0);
        let populated: Vec<RankInfo> = ranks.iter().filter(|r| r.particles > 0).copied().collect();
        let mut domain = Aabb::empty();
        for r in &populated {
            domain = domain.union(&r.bounds);
        }
        let mut tree = AggregationTree {
            inners: Vec::new(),
            leaves: Vec::new(),
            root: None,
            domain,
        };
        if populated.is_empty() {
            return tree;
        }
        let built = build_subtree(populated, cfg);
        let root = flatten(&mut tree, built, cfg);
        tree.root = Some(root);
        tree
    }

    /// Leaf file-size balance statistics.
    pub fn balance(&self) -> BalanceStats {
        balance_of(&self.leaves)
    }
}

/// Balance statistics over any leaf set.
pub fn balance_of(leaves: &[AggLeaf]) -> BalanceStats {
    if leaves.is_empty() {
        return BalanceStats {
            num_files: 0,
            mean_bytes: 0.0,
            stddev_bytes: 0.0,
            max_bytes: 0,
            min_bytes: 0,
        };
    }
    let n = leaves.len() as f64;
    let mean = leaves.iter().map(|l| l.bytes as f64).sum::<f64>() / n;
    let var = leaves
        .iter()
        .map(|l| (l.bytes as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    BalanceStats {
        num_files: leaves.len(),
        mean_bytes: mean,
        stddev_bytes: var.sqrt(),
        max_bytes: leaves.iter().map(|l| l.bytes).max().unwrap_or(0),
        min_bytes: leaves.iter().map(|l| l.bytes).min().unwrap_or(0),
    }
}

fn make_leaf(tree: &mut AggregationTree, ranks: Vec<RankInfo>, cfg: &AggConfig) -> NodeRef {
    let mut bounds = Aabb::empty();
    let mut particles = 0u64;
    for r in &ranks {
        bounds = bounds.union(&r.bounds);
        particles += r.particles;
    }
    let leaf = AggLeaf {
        ranks: ranks.iter().map(|r| r.rank).collect(),
        bounds,
        particles,
        bytes: particles * cfg.bytes_per_particle,
        aggregator: 0,
    };
    tree.leaves.push(leaf);
    NodeRef::Leaf(tree.leaves.len() as u32 - 1)
}

/// The best candidate split over the given ranks: `(axis, pos, cost, ratio)`.
///
/// Candidates are the unique rank-bound edges along each considered axis;
/// ranks partition by bounds-center so no rank's data is ever divided.
fn best_split(ranks: &[RankInfo], bounds: &Aabb, cfg: &AggConfig) -> Option<(Axis, f32, f64, f64)> {
    // Axes ordered by extent (longest first). In longest-axis mode we take
    // the first axis that yields any valid split: an axis the rank grid
    // does not decompose (e.g. z under the Dam Break's 2D x-y grid) has no
    // interior rank edges and must not dead-end the build.
    let e = bounds.extent();
    let mut axes = [Axis::X, Axis::Y, Axis::Z];
    axes.sort_by(|&a, &b| e[b].total_cmp(&e[a]));

    let total: u64 = ranks.iter().map(|r| r.particles).sum();
    let mut best: Option<(Axis, f32, f64, f64)> = None;
    let mut candidates: Vec<f32> = Vec::with_capacity(2 * ranks.len());
    for &axis in &axes {
        candidates.clear();
        for r in ranks {
            candidates.push(r.bounds.min[axis]);
            candidates.push(r.bounds.max[axis]);
        }
        candidates.sort_by(f32::total_cmp);
        candidates.dedup();
        for &pos in &candidates {
            let n_l: u64 = ranks
                .iter()
                .filter(|r| r.bounds.center()[axis] < pos)
                .map(|r| r.particles)
                .sum();
            let n_r = total - n_l;
            if n_l == 0 || n_r == 0 {
                continue; // degenerate split
            }
            let cost = (0.5 - n_l as f64 / total as f64).abs();
            let ratio = n_l.max(n_r) as f64 / n_l.min(n_r) as f64;
            if best.is_none_or(|b| cost < b.2) {
                best = Some((axis, pos, cost, ratio));
            }
        }
        if !cfg.split_all_axes && best.is_some() {
            break;
        }
    }
    best
}

/// A subtree built in parallel, flattened into the arena afterwards.
enum BuiltNode {
    Leaf(Vec<RankInfo>),
    Inner {
        axis: Axis,
        pos: f32,
        bounds: Aabb,
        left: Box<BuiltNode>,
        right: Box<BuiltNode>,
    },
}

/// Below this many ranks, recurse serially (task spawn would cost more).
const PARALLEL_THRESHOLD: usize = 192;

fn build_subtree(ranks: Vec<RankInfo>, cfg: &AggConfig) -> BuiltNode {
    let mut bounds = Aabb::empty();
    let mut bytes = 0u64;
    for r in &ranks {
        bounds = bounds.union(&r.bounds);
        bytes += r.bytes(cfg.bytes_per_particle);
    }

    // Below target size, or indivisible: leaf. A single rank's data is never
    // partitioned, so one oversized rank exceeds the target alone (§III-A).
    if bytes <= cfg.target_file_bytes || ranks.len() == 1 {
        return BuiltNode::Leaf(ranks);
    }

    let split = best_split(&ranks, &bounds, cfg);
    let Some((axis, pos, _cost, ratio)) = split else {
        // No valid split (e.g. all ranks share a center): forced leaf.
        return BuiltNode::Leaf(ranks);
    };

    // Overfull escape: if the best split is badly imbalanced and we are
    // close enough to the target, absorb the region into one leaf instead
    // of forcing a bad cut.
    if ratio >= cfg.overfull_ratio
        && (bytes as f64) <= cfg.overfull_factor * cfg.target_file_bytes as f64
    {
        return BuiltNode::Leaf(ranks);
    }

    let parallel = ranks.len() >= PARALLEL_THRESHOLD;
    let (left_ranks, right_ranks): (Vec<RankInfo>, Vec<RankInfo>) = ranks
        .into_iter()
        .partition(|r| r.bounds.center()[axis] < pos);
    debug_assert!(!left_ranks.is_empty() && !right_ranks.is_empty());

    let (left, right) = if parallel {
        rayon::join(
            || build_subtree(left_ranks, cfg),
            || build_subtree(right_ranks, cfg),
        )
    } else {
        (
            build_subtree(left_ranks, cfg),
            build_subtree(right_ranks, cfg),
        )
    };
    BuiltNode::Inner {
        axis,
        pos,
        bounds,
        left: Box::new(left),
        right: Box::new(right),
    }
}

/// Serial left-to-right flatten so leaf indices match a serial build.
fn flatten(tree: &mut AggregationTree, node: BuiltNode, cfg: &AggConfig) -> NodeRef {
    match node {
        BuiltNode::Leaf(ranks) => make_leaf(tree, ranks, cfg),
        BuiltNode::Inner {
            axis,
            pos,
            bounds,
            left,
            right,
        } => {
            let node_idx = tree.inners.len();
            tree.inners.push(AggInner {
                axis,
                pos,
                bounds,
                left: NodeRef::Leaf(u32::MAX), // patched below
                right: NodeRef::Leaf(u32::MAX),
            });
            let l = flatten(tree, *left, cfg);
            let r = flatten(tree, *right, cfg);
            tree.inners[node_idx].left = l;
            tree.inners[node_idx].right = r;
            NodeRef::Inner(node_idx as u32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_geom::rng::Xoshiro256;
    use bat_geom::Vec3;

    /// A `gx × gy × gz` grid decomposition of the unit cube.
    fn grid_ranks(
        gx: usize,
        gy: usize,
        gz: usize,
        mut counts: impl FnMut(usize, usize, usize) -> u64,
    ) -> Vec<RankInfo> {
        let mut out = Vec::new();
        let mut rank = 0;
        for z in 0..gz {
            for y in 0..gy {
                for x in 0..gx {
                    let min = Vec3::new(
                        x as f32 / gx as f32,
                        y as f32 / gy as f32,
                        z as f32 / gz as f32,
                    );
                    let max = Vec3::new(
                        (x + 1) as f32 / gx as f32,
                        (y + 1) as f32 / gy as f32,
                        (z + 1) as f32 / gz as f32,
                    );
                    out.push(RankInfo::new(rank, Aabb::new(min, max), counts(x, y, z)));
                    rank += 1;
                }
            }
        }
        out
    }

    fn check_partition(tree: &AggregationTree, ranks: &[RankInfo]) {
        let mut seen = std::collections::HashSet::new();
        for leaf in &tree.leaves {
            assert!(!leaf.ranks.is_empty());
            for &r in &leaf.ranks {
                assert!(seen.insert(r), "rank {r} in two leaves");
            }
        }
        let populated: Vec<u32> = ranks
            .iter()
            .filter(|r| r.particles > 0)
            .map(|r| r.rank)
            .collect();
        assert_eq!(
            seen.len(),
            populated.len(),
            "every populated rank in a leaf"
        );
        for r in populated {
            assert!(seen.contains(&r));
        }
        // Leaf totals equal the population.
        let total: u64 = ranks.iter().map(|r| r.particles).sum();
        let leaf_total: u64 = tree.leaves.iter().map(|l| l.particles).sum();
        assert_eq!(total, leaf_total);
    }

    #[test]
    fn empty_input() {
        let cfg = AggConfig::new(1 << 20, 124);
        let tree = AggregationTree::build(&[], &cfg);
        assert!(tree.leaves.is_empty());
        assert!(tree.root.is_none());
    }

    #[test]
    fn all_ranks_empty() {
        let ranks = grid_ranks(4, 4, 1, |_, _, _| 0);
        let cfg = AggConfig::new(1 << 20, 124);
        let tree = AggregationTree::build(&ranks, &cfg);
        assert!(tree.leaves.is_empty());
    }

    #[test]
    fn single_rank() {
        let ranks = vec![RankInfo::new(0, Aabb::unit(), 1000)];
        let cfg = AggConfig::new(100, 124); // target far below data
        let tree = AggregationTree::build(&ranks, &cfg);
        assert_eq!(tree.leaves.len(), 1, "a rank is never split");
        check_partition(&tree, &ranks);
    }

    #[test]
    fn uniform_grid_balanced_leaves() {
        let ranks = grid_ranks(8, 8, 8, |_, _, _| 32_768);
        let bpp = 124;
        let total_bytes: u64 = 512 * 32_768 * bpp;
        let target = total_bytes / 16; // want ~16 leaves
        let cfg = AggConfig::new(target, bpp);
        let tree = AggregationTree::build(&ranks, &cfg);
        check_partition(&tree, &ranks);
        let stats = tree.balance();
        assert!(stats.num_files >= 12 && stats.num_files <= 32, "{stats:?}");
        // Uniform data: near-perfect balance.
        assert!(
            stats.stddev_bytes / stats.mean_bytes < 0.25,
            "uniform data should balance: {stats:?}"
        );
    }

    #[test]
    fn ranks_never_split_and_leaves_respect_target_or_single_rank() {
        let mut rng = Xoshiro256::new(77);
        let ranks = grid_ranks(6, 6, 6, |_, _, _| 1000 + rng.next_below(50_000));
        let cfg = AggConfig::new(2_000_000, 124);
        let tree = AggregationTree::build(&ranks, &cfg);
        check_partition(&tree, &ranks);
        for leaf in &tree.leaves {
            let over_target =
                leaf.bytes > (cfg.overfull_factor * cfg.target_file_bytes as f64) as u64;
            assert!(
                !over_target || leaf.ranks.len() == 1,
                "oversize leaf must be a single unsplittable rank: {leaf:?}"
            );
        }
    }

    #[test]
    fn nonuniform_distribution_adapts() {
        // Particles heavily clustered in one corner (like the coal jets):
        // the tree must cut the dense region finer than the sparse one.
        let ranks = grid_ranks(8, 8, 1, |x, y, _| {
            if x < 2 && y < 2 {
                1_000_000 // dense corner
            } else {
                1_000
            }
        });
        let bpp = 100;
        let total: u64 = ranks.iter().map(|r| r.particles).sum();
        let cfg = AggConfig::new(total * bpp / 8, bpp);
        let tree = AggregationTree::build(&ranks, &cfg);
        check_partition(&tree, &ranks);
        let stats = tree.balance();
        // Adaptive: spread should stay moderate even on a 1000:1 density.
        assert!(
            (stats.max_bytes as f64) < 3.0 * stats.mean_bytes,
            "adaptive tree should balance the dense corner: {stats:?}"
        );
        // The dense corner must be covered by several leaves.
        let corner = Aabb::new(Vec3::ZERO, Vec3::new(0.25, 0.25, 1.0));
        let corner_leaves = tree
            .leaves
            .iter()
            .filter(|l| l.bounds.overlaps(&corner))
            .count();
        assert!(corner_leaves >= 2, "{corner_leaves} leaves over the corner");
    }

    #[test]
    fn split_never_divides_rank_bounds() {
        // With center-based partitioning on rank-edge candidates, each leaf
        // bounds union must not cut through any member rank's box.
        let ranks = grid_ranks(5, 4, 3, |x, _, _| (x as u64 + 1) * 10_000);
        let cfg = AggConfig::new(800_000, 100);
        let tree = AggregationTree::build(&ranks, &cfg);
        check_partition(&tree, &ranks);
        for leaf in &tree.leaves {
            for &r in &leaf.ranks {
                let rb = ranks[r as usize].bounds;
                assert!(
                    leaf.bounds.contains_box(&rb),
                    "leaf must contain whole rank boxes"
                );
            }
        }
    }

    #[test]
    fn overfull_leaf_absorbs_bad_splits() {
        // Two ranks with wildly different counts, total just over target:
        // the best split has ratio ≥ 4, so the tree should prefer one
        // overfull leaf over a terrible cut.
        let ranks = vec![
            RankInfo::new(0, Aabb::new(Vec3::ZERO, Vec3::new(0.5, 1.0, 1.0)), 9000),
            RankInfo::new(1, Aabb::new(Vec3::new(0.5, 0.0, 0.0), Vec3::ONE), 1000),
        ];
        let cfg = AggConfig {
            target_file_bytes: 900_000, // total = 1MB ≤ 1.5 × target
            bytes_per_particle: 100,
            overfull_ratio: 4.0,
            overfull_factor: 1.5,
            split_all_axes: false,
        };
        let tree = AggregationTree::build(&ranks, &cfg);
        assert_eq!(tree.leaves.len(), 1, "overfull leaf expected");
        // With the escape disabled, it must split.
        let cfg2 = AggConfig {
            overfull_ratio: f64::INFINITY,
            ..cfg
        };
        let tree2 = AggregationTree::build(&ranks, &cfg2);
        assert_eq!(tree2.leaves.len(), 2);
    }

    #[test]
    fn all_axes_mode_no_worse_than_longest_axis() {
        let mut rng = Xoshiro256::new(5);
        let ranks = grid_ranks(6, 6, 2, |_, _, _| 1 + rng.next_below(100_000));
        let cfg1 = AggConfig::new(1_500_000, 100);
        let cfg2 = AggConfig {
            split_all_axes: true,
            ..cfg1
        };
        let t1 = AggregationTree::build(&ranks, &cfg1);
        let t2 = AggregationTree::build(&ranks, &cfg2);
        check_partition(&t1, &ranks);
        check_partition(&t2, &ranks);
        // Searching more candidates can only improve (or match) the best
        // split cost at each node; end-to-end we accept a small tolerance
        // since greedy choices interact.
        assert!(t2.balance().stddev_bytes <= t1.balance().stddev_bytes * 1.25);
    }

    #[test]
    fn balance_stats_math() {
        let leaves = vec![
            AggLeaf {
                ranks: vec![0],
                bounds: Aabb::unit(),
                particles: 1,
                bytes: 10,
                aggregator: 0,
            },
            AggLeaf {
                ranks: vec![1],
                bounds: Aabb::unit(),
                particles: 3,
                bytes: 30,
                aggregator: 0,
            },
        ];
        let s = balance_of(&leaves);
        assert_eq!(s.num_files, 2);
        assert_eq!(s.mean_bytes, 20.0);
        assert_eq!(s.stddev_bytes, 10.0);
        assert_eq!(s.max_bytes, 30);
        assert_eq!(s.min_bytes, 10);
    }
}
