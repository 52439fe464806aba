//! BAT construction: Morton sort → shallow tree → parallel treelets →
//! bitmaps (paper §III-C, Figure 1c).
//!
//! Aggregators call [`BatBuilder::build`] on the particles they received.
//! The build is parallel in the paper's two ways: the shallow radix tree is
//! Karras-parallel, and the per-leaf treelet builds are independent and run
//! under rayon (the paper uses TBB).

use crate::attr::AttributeDesc;
use crate::bitmap::Bitmap32;
use crate::particles::ParticleSet;
use crate::radix::NodeRef;
use crate::shallow::ShallowTree;
use crate::treelet::{self, Treelet, TreeletConfig};
use bat_geom::{morton, Aabb};
use rayon::prelude::*;

/// Build parameters for a BAT (paper defaults: 12-bit subprefix, 8 LOD
/// particles per inner node, up to 128 particles per leaf; §III-C1, §VI-B).
#[derive(Debug, Clone, Copy)]
pub struct BatConfig {
    /// Morton subprefix length for the shallow tree, in bits. `0` selects
    /// automatically from the particle count (capped at the paper's 12):
    /// enough cells for ~8 leaves' worth of particles per treelet, so small
    /// aggregator populations don't shatter into page-aligned
    /// micro-treelets. Realistic populations (≥ ~4M particles) resolve to
    /// the paper's 12 bits.
    pub subprefix_bits: u32,
    /// Treelet parameters.
    pub treelet: TreeletConfig,
}

impl Default for BatConfig {
    fn default() -> BatConfig {
        BatConfig {
            subprefix_bits: 12,
            treelet: TreeletConfig::default(),
        }
    }
}

impl BatConfig {
    /// Paper parameters but with automatic subprefix selection.
    pub fn auto() -> BatConfig {
        BatConfig {
            subprefix_bits: 0,
            ..BatConfig::default()
        }
    }

    /// Resolve an automatic subprefix length for `n` particles.
    pub fn resolve_subprefix(&self, n: usize) -> u32 {
        if self.subprefix_bits != 0 {
            return self.subprefix_bits;
        }
        let per_treelet = 8 * self.treelet.max_leaf.max(1) as u64;
        let cells = (n as u64 / per_treelet).max(1);
        let bits = 64 - (cells - 1).leading_zeros().min(63); // ceil(log2(cells))
        bits.clamp(3, 12)
    }
}

/// A fully built, in-memory Binned Attribute Tree.
///
/// Compact it with [`Bat::to_bytes`] for writing to disk or in-transit use;
/// the compacted form is what [`crate::BatFile`] queries.
#[derive(Debug, Clone)]
pub struct Bat {
    /// Build parameters (with any auto values resolved).
    pub config: BatConfig,
    /// The bounds particles were Morton-quantized against (aggregator-local).
    pub domain: Aabb,
    /// Particles in final build order (treelet blocks, LOD-first spans).
    pub particles: ParticleSet,
    /// Aggregator-local `(min, max)` per attribute — the bitmap bin ranges.
    pub attr_ranges: Vec<(f64, f64)>,
    /// The shallow radix tree over merged Morton subprefixes.
    pub shallow: ShallowTree,
    /// One treelet per shallow leaf.
    pub treelets: Vec<Treelet>,
    /// Deepest treelet depth (drives the quality → depth mapping).
    pub max_treelet_depth: u32,
}

impl Bat {
    /// Number of particles stored.
    pub fn num_particles(&self) -> usize {
        self.particles.len()
    }

    /// The attribute schema.
    pub fn descs(&self) -> &[AttributeDesc] {
        self.particles.descs()
    }

    /// Root bitmap of attribute `a`: the union over all treelet roots. This
    /// is what each aggregator reports to rank 0 for the top-level metadata
    /// (paper §III-D).
    pub fn root_bitmap(&self, a: usize) -> Bitmap32 {
        self.treelets
            .iter()
            .fold(Bitmap32::EMPTY, |acc, t| acc.or(t.bitmaps[0][a]))
    }

    /// Compact into the on-disk byte form (paper §III-C3). The result is
    /// what the aggregator writes to its file, and what
    /// [`crate::BatFile::from_bytes`] queries in transit.
    pub fn to_bytes(&self) -> Vec<u8> {
        let bytes = bat_obs::time("bat.compact_ns", || crate::format::write_bat(self));
        bat_obs::counter_add("bat.compact_bytes", bytes.len() as u64);
        bytes
    }

    /// A precomputed streaming writer for this BAT. Use when the compacted
    /// form goes straight to a file: [`crate::format::BatWriter::write_to`]
    /// emits the same bytes as [`Bat::to_bytes`] without ever materializing
    /// the treelet payload in memory.
    pub fn writer(&self) -> crate::format::BatWriter<'_> {
        crate::format::BatWriter::new(self)
    }

    /// Like [`Bat::writer`] but with an explicit treelet codec, ignoring
    /// `BAT_TREELET_CODEC`. Use [`crate::codec::Codec::V1`] to pin the
    /// uncompressed format regardless of environment.
    pub fn writer_with(&self, codec: crate::codec::Codec) -> crate::format::BatWriter<'_> {
        crate::format::BatWriter::with_codec(self, codec)
    }

    /// Stream the compacted form to `w` (byte-identical to
    /// [`Bat::to_bytes`]). Wrap file sinks in a `BufWriter`.
    pub fn write_to<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<u64> {
        let writer = self.writer();
        bat_obs::time("bat.compact_ns", || writer.write_to(w))?;
        bat_obs::counter_add("bat.compact_bytes", writer.file_size() as u64);
        Ok(writer.file_size() as u64)
    }

    /// Compact and open for querying in one step — the in-transit analysis
    /// path (§III-C: the tree "can be used for in transit visualization and
    /// analysis on the aggregators before or instead of being written").
    pub fn to_file(&self) -> crate::BatFile {
        crate::BatFile::from_bytes(self.to_bytes()).expect("a just-built BAT is always valid")
    }

    /// Per-inner-shallow-node bitmaps for attribute `a` (union of treelet
    /// roots in each node's leaf range), bottom-up. Index = shallow node id.
    pub fn shallow_bitmaps(&self, a: usize) -> Vec<Bitmap32> {
        let nodes = &self.shallow.nodes;
        let mut out = vec![Bitmap32::EMPTY; nodes.len()];
        // Children have strictly longer prefixes than parents, so processing
        // nodes in descending prefix-length order is bottom-up. Shallow node
        // counts are small (≤ subprefix leaves), so the sort is cheap.
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by(|&x, &y| {
            let px = nodes[x].last_leaf - nodes[x].first_leaf;
            let py = nodes[y].last_leaf - nodes[y].first_leaf;
            px.cmp(&py) // smaller range = deeper; process first
        });
        for ni in order {
            let n = &nodes[ni];
            let mut bm = Bitmap32::EMPTY;
            for c in [n.left, n.right] {
                bm = bm.or(match c {
                    NodeRef::Leaf(l) => self.treelets[l as usize].bitmaps[0][a],
                    NodeRef::Inner(i) => out[i as usize],
                });
            }
            out[ni] = bm;
        }
        out
    }
}

/// Time a build phase through `bat_obs` and also record its effective
/// parallelism — task busy-time over wall-time — as a `*_speedup` gauge
/// (e.g. `bat.morton_sort_ns` → `bat.morton_sort_speedup`). Busy time is
/// summed over the caller and the helper threads that ran the phase's
/// batches, so the gauge is at most the pool size. It reads 0 when the
/// engine was bypassed entirely (a 1-thread pool runs every construct
/// inline on the caller). The engine excludes nested `parallel_for` wall
/// time from the enclosing task's busy time, so phases with nested
/// parallelism (treelet build) are not double-counted; the counter is
/// still process-global, so the gauge assumes one build in flight at a
/// time (true for the write pipeline).
fn timed_phase<T>(timer: &'static str, f: impl FnOnce() -> T) -> T {
    let busy0 = rayon::pool_stats().busy_ns;
    let t0 = std::time::Instant::now();
    let out = bat_obs::time(timer, f);
    let wall = t0.elapsed().as_nanos() as u64;
    let busy = rayon::pool_stats().busy_ns - busy0;
    if wall > 0 {
        let gauge = format!("{}_speedup", timer.trim_end_matches("_ns"));
        bat_obs::gauge_set(&gauge, busy as f64 / wall as f64);
    }
    out
}

/// Builds [`Bat`]s from received particle sets.
#[derive(Debug, Clone, Default)]
pub struct BatBuilder {
    config: BatConfig,
}

impl BatBuilder {
    /// A builder with the given parameters.
    pub fn new(config: BatConfig) -> BatBuilder {
        BatBuilder { config }
    }

    /// Build the BAT over `set`, quantizing Morton codes against `domain`
    /// (normally the union of the leaf's rank bounds; must contain every
    /// particle — out-of-bounds positions are clamped into the edge cells).
    pub fn build(&self, set: ParticleSet, domain: Aabb) -> Bat {
        debug_assert!(set.validate().is_ok());
        let n = set.len();
        let mut config = self.config;
        config.subprefix_bits = config.resolve_subprefix(n);
        if n == 0 {
            return Bat {
                config,
                domain,
                attr_ranges: vec![(0.0, 0.0); set.num_attrs()],
                shallow: ShallowTree::build(&[], config.subprefix_bits, &domain),
                treelets: Vec::new(),
                max_treelet_depth: 0,
                particles: set,
            };
        }

        let pool_before = rayon::pool_stats();

        // 1. Morton codes + parallel radix sort (the specialized LSD
        //    kernel in [`crate::morton_sort`]).
        let (sorted, sorted_codes) = timed_phase("bat.morton_sort_ns", || {
            let codes: Vec<u64> = set
                .positions
                .par_iter()
                .map(|&p| morton::encode_point(p, &domain))
                .collect();
            let perm = crate::morton_sort::sorted_perm(&codes);
            let sorted_codes: Vec<u64> = perm.par_iter().map(|&i| codes[i as usize]).collect();
            (set.permute(&perm), sorted_codes)
        });

        // 2. Shallow tree over merged subprefixes.
        let shallow = timed_phase("bat.shallow_tree_ns", || {
            ShallowTree::build(&sorted_codes, config.subprefix_bits, &domain)
        });

        // 3. Independent treelet builds per shallow leaf (parallel).
        let structures: Vec<treelet::TreeletStructure> =
            timed_phase("bat.treelet_build_ns", || {
                shallow
                    .leaf_ranges
                    .par_iter()
                    .map(|&(s, e)| {
                        let span = &sorted.positions[s as usize..e as usize];
                        treelet::build_structure(span, &config.treelet, s as u64)
                    })
                    .collect()
            });

        // 4. Compose the treelet-local orders into one global permutation
        //    and reorder the particle arrays once.
        let particles = timed_phase("bat.permute_ns", || {
            let mut final_perm: Vec<u32> = Vec::with_capacity(n);
            for (&(s, _), st) in shallow.leaf_ranges.iter().zip(&structures) {
                final_perm.extend(st.order.iter().map(|&o| s + o));
            }
            sorted.permute(&final_perm)
        });

        // 5. Aggregator-local attribute ranges, then per-node bitmaps.
        let _span = bat_obs::span("bat.bitmap_bin_ns");
        let attr_ranges: Vec<(f64, f64)> = (0..particles.num_attrs())
            .map(|a| particles.attr(a).value_range())
            .collect();

        let max_treelet_depth = structures.iter().map(|s| s.max_depth).max().unwrap_or(0);
        let treelets: Vec<Treelet> = shallow
            .leaf_ranges
            .par_iter()
            .zip(structures)
            .map(|(&(s, e), st)| {
                let bitmaps =
                    treelet::compute_bitmaps(&st.nodes, &particles, s as usize, &attr_ranges);
                Treelet {
                    nodes: st.nodes,
                    bitmaps,
                    first_particle: s as u64,
                    num_particles: e - s,
                    max_depth: st.max_depth,
                }
            })
            .collect();
        drop(_span);
        bat_obs::counter_add("bat.treelets", treelets.len() as u64);
        bat_obs::counter_add("bat.particles", n as u64);

        // Engine counters for this build, so traces show how parallel the
        // build actually was (ISSUE 3: the shim used to fake all of this).
        let pool_after = rayon::pool_stats();
        bat_obs::gauge_set("pool.threads", pool_after.threads as f64);
        bat_obs::counter_add(
            "pool.tasks_executed",
            pool_after.tasks_executed - pool_before.tasks_executed,
        );
        bat_obs::counter_add(
            "pool.tasks_helped",
            pool_after.tasks_helped - pool_before.tasks_helped,
        );

        Bat {
            config,
            domain,
            particles,
            attr_ranges,
            shallow,
            treelets,
            max_treelet_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttributeDesc;
    use bat_geom::rng::Xoshiro256;
    use bat_geom::Vec3;

    pub(crate) fn random_set(n: usize, seed: u64) -> (ParticleSet, Aabb) {
        let mut rng = Xoshiro256::new(seed);
        let mut set =
            ParticleSet::new(vec![AttributeDesc::f64("mass"), AttributeDesc::f32("temp")]);
        for _ in 0..n {
            let p = Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32());
            set.push(p, &[p.x as f64 * 10.0, p.y as f64 * 100.0]);
        }
        (set, Aabb::unit())
    }

    #[test]
    fn empty_build() {
        let (set, domain) = random_set(0, 1);
        let bat = BatBuilder::new(BatConfig::default()).build(set, domain);
        assert_eq!(bat.num_particles(), 0);
        assert!(bat.treelets.is_empty());
    }

    #[test]
    fn build_preserves_particles() {
        let (set, domain) = random_set(5000, 2);
        let before: f64 = (0..set.len()).map(|i| set.value(0, i)).sum();
        let bat = BatBuilder::new(BatConfig::default()).build(set, domain);
        assert_eq!(bat.num_particles(), 5000);
        let after: f64 = (0..5000).map(|i| bat.particles.value(0, i)).sum();
        assert!(
            (before - after).abs() < 1e-6,
            "no particle lost or duplicated"
        );
        bat.particles.validate().unwrap();
    }

    #[test]
    fn treelets_tile_the_particle_array() {
        let (set, domain) = random_set(20_000, 3);
        let bat = BatBuilder::new(BatConfig::default()).build(set, domain);
        let mut expect = 0u64;
        for t in &bat.treelets {
            assert_eq!(t.first_particle, expect);
            assert!(t.num_particles > 0);
            expect += t.num_particles as u64;
        }
        assert_eq!(expect, 20_000);
        assert_eq!(bat.treelets.len(), bat.shallow.num_leaves());
    }

    #[test]
    fn node_particles_inside_node_bounds() {
        let (set, domain) = random_set(10_000, 4);
        let bat = BatBuilder::new(BatConfig::default()).build(set, domain);
        for t in &bat.treelets {
            for node in &t.nodes {
                let begin = t.first_particle as usize + node.start as usize;
                for i in begin..begin + node.count as usize {
                    assert!(node.bounds.contains_point(bat.particles.positions[i]));
                }
            }
        }
    }

    #[test]
    fn attr_ranges_cover_values() {
        let (set, domain) = random_set(3000, 5);
        let bat = BatBuilder::new(BatConfig::default()).build(set, domain);
        let (lo, hi) = bat.attr_ranges[0];
        for i in 0..bat.num_particles() {
            let v = bat.particles.value(0, i);
            assert!(v >= lo && v <= hi);
        }
    }

    #[test]
    fn root_bitmap_covers_every_value() {
        let (set, domain) = random_set(2000, 6);
        let bat = BatBuilder::new(BatConfig::default()).build(set, domain);
        let root = bat.root_bitmap(0);
        let (lo, hi) = bat.attr_ranges[0];
        for i in 0..bat.num_particles() {
            let single = Bitmap32::from_values([bat.particles.value(0, i)], lo, hi);
            assert!(root.overlaps(single));
        }
    }

    #[test]
    fn shallow_bitmaps_nest() {
        let (set, domain) = random_set(30_000, 7);
        let bat = BatBuilder::new(BatConfig::default()).build(set, domain);
        if bat.shallow.nodes.is_empty() {
            return;
        }
        let sb = bat.shallow_bitmaps(0);
        for (ni, n) in bat.shallow.nodes.iter().enumerate() {
            for c in [n.left, n.right] {
                let cb = match c {
                    NodeRef::Leaf(l) => bat.treelets[l as usize].bitmaps[0][0],
                    NodeRef::Inner(i) => sb[i as usize],
                };
                assert_eq!(sb[ni].or(cb), sb[ni], "parent covers child");
            }
        }
    }

    #[test]
    fn deterministic_build() {
        let (set, domain) = random_set(4000, 8);
        let b1 = BatBuilder::new(BatConfig::default()).build(set.clone(), domain);
        let b2 = BatBuilder::new(BatConfig::default()).build(set, domain);
        assert_eq!(b1.particles.positions, b2.particles.positions);
        assert_eq!(b1.treelets.len(), b2.treelets.len());
    }

    #[test]
    fn clustered_distribution_fewer_treelets() {
        // Tightly clustered particles share subprefixes → few treelets.
        let mut rng = Xoshiro256::new(9);
        let mut set = ParticleSet::new(vec![AttributeDesc::f64("m")]);
        for _ in 0..5000 {
            set.push(
                Vec3::new(
                    0.5 + rng.next_f32() * 1e-4,
                    0.5 + rng.next_f32() * 1e-4,
                    0.5 + rng.next_f32() * 1e-4,
                ),
                &[1.0],
            );
        }
        let bat = BatBuilder::new(BatConfig::default()).build(set, Aabb::unit());
        assert!(bat.treelets.len() <= 8, "got {}", bat.treelets.len());
    }
}

#[cfg(test)]
mod auto_subprefix_tests {
    use super::*;
    use crate::build::tests::random_set;

    #[test]
    fn resolve_rules() {
        let auto = BatConfig::auto();
        // Tiny populations use coarse prefixes; huge ones cap at 12.
        assert_eq!(auto.resolve_subprefix(0), 3);
        assert_eq!(auto.resolve_subprefix(1000), 3);
        assert!(auto.resolve_subprefix(100_000) < 12);
        assert_eq!(auto.resolve_subprefix(8_000_000), 12);
        // Explicit settings pass through untouched.
        let fixed = BatConfig::default();
        assert_eq!(fixed.resolve_subprefix(10), 12);
    }

    #[test]
    fn auto_build_produces_fewer_treelets_on_small_data() {
        let (set, domain) = random_set(20_000, 44);
        let fixed = BatBuilder::new(BatConfig::default()).build(set.clone(), domain);
        let auto = BatBuilder::new(BatConfig::auto()).build(set, domain);
        assert!(auto.treelets.len() < fixed.treelets.len());
        assert_eq!(auto.num_particles(), fixed.num_particles());
        // And the resolved value is recorded in the config (and the file).
        assert!(auto.config.subprefix_bits > 0);
        let head = crate::format::read_head(&auto.to_bytes()).unwrap();
        assert_eq!(head.subprefix_bits, auto.config.subprefix_bits);
    }
}
