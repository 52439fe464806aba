//! The shallow tree: a radix k-d tree over merged Morton subprefixes
//! (paper §III-C1).
//!
//! Karras's construction builds one leaf per particle, which is far too fine
//! for a multiresolution layout. The BAT instead takes a *subprefix* of each
//! particle's Morton code (12 bits by default), merges equal subprefixes,
//! and builds the radix tree over the unique values. Each shallow leaf then
//! covers a contiguous run of the Morton-sorted particle array — the range a
//! treelet is built over.
//!
//! Because a node's key range shares a common bit prefix, its spatial cell
//! is recovered directly from the prefix (each bit halves the domain along
//! x, y, z in turn), so node bounds need no bottom-up pass.

use crate::radix::{NodeRef, RadixTree};
use bat_geom::{morton, Aabb};
use rayon::prelude::*;

/// One inner node of the shallow tree, with spatial bounds for culling.
#[derive(Debug, Clone, Copy)]
pub struct ShallowNode {
    /// Left child reference.
    pub left: NodeRef,
    /// Right child reference.
    pub right: NodeRef,
    /// Conservative cell bounds derived from the node's common prefix.
    pub bounds: Aabb,
    /// First covered leaf (inclusive).
    pub first_leaf: u32,
    /// Last covered leaf (inclusive).
    pub last_leaf: u32,
}

/// The shallow tree over an aggregator's Morton-sorted particles.
#[derive(Debug, Clone)]
pub struct ShallowTree {
    /// Subprefix length in bits used to merge codes.
    pub subprefix_bits: u32,
    /// Inner nodes; node 0 is the root when there is more than one leaf.
    pub nodes: Vec<ShallowNode>,
    /// Per-leaf particle range `[start, end)` in the sorted particle array.
    pub leaf_ranges: Vec<(u32, u32)>,
    /// Per-leaf conservative cell bounds (subprefix cell).
    pub leaf_bounds: Vec<Aabb>,
}

impl ShallowTree {
    /// Number of leaves (== number of treelets).
    pub fn num_leaves(&self) -> usize {
        self.leaf_ranges.len()
    }

    /// Root reference; `None` for an empty tree.
    pub fn root(&self) -> Option<NodeRef> {
        NodeRef::root_of(self.leaf_ranges.len())
    }

    /// Build over the *sorted* Morton codes of all particles.
    ///
    /// `domain` must be the same bounds the codes were quantized against.
    pub fn build(sorted_codes: &[u64], subprefix_bits: u32, domain: &Aabb) -> ShallowTree {
        assert!(
            (1..=morton::CODE_BITS).contains(&subprefix_bits),
            "subprefix bits must be in 1..={}",
            morton::CODE_BITS
        );
        debug_assert!(sorted_codes.windows(2).all(|w| w[0] <= w[1]));
        if sorted_codes.is_empty() {
            return ShallowTree {
                subprefix_bits,
                nodes: Vec::new(),
                leaf_ranges: Vec::new(),
                leaf_bounds: Vec::new(),
            };
        }

        // Merge equal subprefixes into leaves: one (prefix, range) per run.
        let mut prefixes: Vec<u64> = Vec::new();
        let mut leaf_ranges: Vec<(u32, u32)> = Vec::new();
        let mut run_start = 0usize;
        let mut run_prefix = morton::subprefix(sorted_codes[0], subprefix_bits);
        for (i, &c) in sorted_codes.iter().enumerate().skip(1) {
            let p = morton::subprefix(c, subprefix_bits);
            if p != run_prefix {
                prefixes.push(run_prefix);
                leaf_ranges.push((run_start as u32, i as u32));
                run_start = i;
                run_prefix = p;
            }
        }
        prefixes.push(run_prefix);
        leaf_ranges.push((run_start as u32, sorted_codes.len() as u32));

        let leaf_bounds: Vec<Aabb> = prefixes
            .par_iter()
            .map(|&p| morton::subprefix_bounds(p, subprefix_bits, domain))
            .collect();

        // MSB-align the prefixes so the radix build's δ works on bit 63 down.
        let keys: Vec<u64> = prefixes
            .iter()
            .map(|&p| p << (64 - subprefix_bits))
            .collect();
        let radix = RadixTree::build(&keys);

        // Derive each inner node's cell bounds from its common prefix.
        let nodes: Vec<ShallowNode> = radix
            .nodes
            .par_iter()
            .map(|n| {
                let plen = n.prefix_len.min(subprefix_bits);
                let prefix = if plen == 0 {
                    0
                } else {
                    keys[n.first as usize] >> (64 - plen)
                };
                ShallowNode {
                    left: n.left,
                    right: n.right,
                    bounds: morton::subprefix_bounds(prefix, plen, domain),
                    first_leaf: n.first,
                    last_leaf: n.last,
                }
            })
            .collect();

        ShallowTree {
            subprefix_bits,
            nodes,
            leaf_ranges,
            leaf_bounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_geom::rng::Xoshiro256;
    use bat_geom::Vec3;

    fn codes_for(points: &[Vec3], domain: &Aabb) -> Vec<u64> {
        let mut codes: Vec<u64> = points
            .iter()
            .map(|&p| morton::encode_point(p, domain))
            .collect();
        codes.sort_unstable();
        codes
    }

    #[test]
    fn empty_input() {
        let t = ShallowTree::build(&[], 12, &Aabb::unit());
        assert_eq!(t.num_leaves(), 0);
        assert!(t.root().is_none());
    }

    #[test]
    fn single_cluster_single_leaf() {
        // All particles inside one tiny cell share the 12-bit subprefix.
        let domain = Aabb::unit();
        let pts: Vec<Vec3> = (0..100)
            .map(|i| Vec3::new(0.5 + i as f32 * 1e-6, 0.5, 0.5))
            .collect();
        let t = ShallowTree::build(&codes_for(&pts, &domain), 12, &domain);
        assert_eq!(t.num_leaves(), 1);
        assert_eq!(t.root(), Some(NodeRef::Leaf(0)));
        assert_eq!(t.leaf_ranges[0], (0, 100));
    }

    #[test]
    fn leaves_partition_particles() {
        let domain = Aabb::unit();
        let mut rng = Xoshiro256::new(5);
        let pts: Vec<Vec3> = (0..5000)
            .map(|_| Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()))
            .collect();
        let codes = codes_for(&pts, &domain);
        let t = ShallowTree::build(&codes, 12, &domain);
        assert!(t.num_leaves() > 1);
        // Ranges are contiguous, disjoint, and cover everything.
        let mut expect = 0u32;
        for &(s, e) in &t.leaf_ranges {
            assert_eq!(s, expect);
            assert!(e > s);
            expect = e;
        }
        assert_eq!(expect as usize, codes.len());
    }

    #[test]
    fn leaf_bounds_contain_their_particles() {
        let domain = Aabb::new(Vec3::new(-2.0, 0.0, 1.0), Vec3::new(4.0, 3.0, 9.0));
        let mut rng = Xoshiro256::new(6);
        let mut pts: Vec<Vec3> = (0..3000)
            .map(|_| {
                Vec3::new(
                    rng.uniform_f32(-2.0, 4.0),
                    rng.uniform_f32(0.0, 3.0),
                    rng.uniform_f32(1.0, 9.0),
                )
            })
            .collect();
        // Sort points by code so leaf ranges index them directly.
        pts.sort_by_key(|&p| morton::encode_point(p, &domain));
        let codes: Vec<u64> = pts
            .iter()
            .map(|&p| morton::encode_point(p, &domain))
            .collect();
        let t = ShallowTree::build(&codes, 9, &domain);
        for (li, &(s, e)) in t.leaf_ranges.iter().enumerate() {
            // Cells are half-open along each axis; allow epsilon at the seam.
            let mut cell = t.leaf_bounds[li];
            let eps = 1e-4;
            cell.min = cell.min - Vec3::splat(eps);
            cell.max += Vec3::splat(eps);
            for p in &pts[s as usize..e as usize] {
                assert!(cell.contains_point(*p), "leaf {li}: {p:?} outside {cell:?}");
            }
        }
    }

    #[test]
    fn inner_bounds_contain_children() {
        let domain = Aabb::unit();
        let mut rng = Xoshiro256::new(8);
        let pts: Vec<Vec3> = (0..4000)
            .map(|_| Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()))
            .collect();
        let t = ShallowTree::build(&codes_for(&pts, &domain), 12, &domain);
        let eps = Vec3::splat(1e-5);
        for n in &t.nodes {
            let mut grown = n.bounds;
            grown.min = grown.min - eps;
            grown.max += eps;
            for c in [n.left, n.right] {
                let cb = match c {
                    NodeRef::Leaf(i) => t.leaf_bounds[i as usize],
                    NodeRef::Inner(i) => t.nodes[i as usize].bounds,
                };
                assert!(grown.contains_box(&cb), "parent {grown:?} child {cb:?}");
            }
        }
    }

    #[test]
    fn more_bits_more_leaves() {
        let domain = Aabb::unit();
        let mut rng = Xoshiro256::new(9);
        let pts: Vec<Vec3> = (0..20_000)
            .map(|_| Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()))
            .collect();
        let codes = codes_for(&pts, &domain);
        let l6 = ShallowTree::build(&codes, 6, &domain).num_leaves();
        let l12 = ShallowTree::build(&codes, 12, &domain).num_leaves();
        let l15 = ShallowTree::build(&codes, 15, &domain).num_leaves();
        assert!(l6 < l12, "{l6} vs {l12}");
        assert!(l12 < l15, "{l12} vs {l15}");
        assert!(l6 <= 64);
        assert!(l12 <= 4096);
    }
}
