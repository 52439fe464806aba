//! Karras-style parallel bottom-up radix tree construction.
//!
//! Implements the algorithm of Karras, "Maximizing Parallelism in the
//! Construction of BVHs, Octrees, and k-d Trees" (HPG 2012), which the paper
//! uses for its shallow-tree build (§III-C1): given a sorted array of
//! distinct keys, every internal node of the binary radix tree is computed
//! *independently* (hence in parallel) by locating the range of keys sharing
//! its prefix via the δ (common-prefix-length) function.
//!
//! Keys must be sorted, distinct, and MSB-aligned in a `u64` (callers shift
//! subprefixes up so `leading_zeros` of the XOR gives the common prefix
//! length directly). The radix tree over Morton keys *is* a k-d tree: the
//! first differing bit after a node's common prefix determines the split
//! axis (bit position mod 3) and plane.

use bat_wire::{WireError, WireResult};
use rayon::prelude::*;

/// Reference to a child node: inner index or leaf index. The one child-link
/// type of every k-d tree in the workspace — the radix tree built here, a
/// file's shallow tree, the aggregation tree and the `.batmeta` tree — and
/// of their one `u32` packing (bit 31 set = leaf).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRef {
    /// Index into the internal-node array.
    Inner(u32),
    /// Index into the leaf array.
    Leaf(u32),
}

impl NodeRef {
    /// Pack into a `u32` for compact storage: high bit set = leaf.
    pub fn pack(self) -> u32 {
        match self {
            NodeRef::Inner(i) => {
                debug_assert!(i < 1 << 31);
                i
            }
            NodeRef::Leaf(i) => {
                debug_assert!(i < 1 << 31);
                i | (1 << 31)
            }
        }
    }

    /// Unpack from the `u32` form.
    pub fn unpack(v: u32) -> NodeRef {
        if v & (1 << 31) != 0 {
            NodeRef::Leaf(v & !(1 << 31))
        } else {
            NodeRef::Inner(v)
        }
    }

    /// The root of a tree whose inner node 0 is the root: none without
    /// leaves, the only leaf when there is one, else inner node 0.
    pub fn root_of(num_leaves: usize) -> Option<NodeRef> {
        match num_leaves {
            0 => None,
            1 => Some(NodeRef::Leaf(0)),
            _ => Some(NodeRef::Inner(0)),
        }
    }
}

/// Depth-first walk from `root`, right subtree first. `visit` sees every
/// node reached and returns whether to descend into it (ignored for
/// leaves); `children` gives an inner node's `[left, right]` links. Walks
/// trust the tree: run [`check_tree`] on decoded bytes first.
pub fn walk(
    root: Option<NodeRef>,
    children: impl Fn(u32) -> [NodeRef; 2],
    mut visit: impl FnMut(NodeRef) -> bool,
) {
    let mut stack: Vec<NodeRef> = root.into_iter().collect();
    while let Some(c) = stack.pop() {
        if let (NodeRef::Inner(i), true) = (c, visit(c)) {
            stack.extend(children(i));
        }
    }
}

/// Check that `root` and the child links of `num_inners` inner nodes form
/// one binary tree over `num_leaves` leaves: every link is in range and
/// every inner node and leaf is reached exactly once from the root, which
/// rules out cycles, shared children and orphans (and leaves the root
/// absent only when there is nothing to reach). The one structural check
/// for trees decoded from untrusted bytes; walks after it index freely.
pub fn check_tree(
    root: Option<NodeRef>,
    num_inners: usize,
    num_leaves: usize,
    children: impl Fn(u32) -> [NodeRef; 2],
) -> WireResult<()> {
    let mut seen = vec![false; num_inners + num_leaves];
    let mut bad = None;
    walk(root, children, |c| {
        let slot = match c {
            NodeRef::Inner(i) if (i as usize) < num_inners => i as usize,
            NodeRef::Leaf(l) if (l as usize) < num_leaves => num_inners + l as usize,
            _ => seen.len(),
        };
        if seen.get(slot) == Some(&false) {
            seen[slot] = true;
            return true;
        }
        bad.get_or_insert(c);
        false
    });
    if let Some(c) = bad {
        return Err(WireError::BadTag {
            what: "tree child link (out of range or reached twice)",
            tag: c.pack() as u64,
        });
    }
    match seen.iter().filter(|&&s| !s).count() {
        0 => Ok(()),
        unreached => Err(WireError::BadLength {
            what: "tree nodes unreached from the root",
            len: unreached as u64,
            remaining: seen.len(),
        }),
    }
}

/// One internal node of the radix tree.
#[derive(Debug, Clone, Copy)]
pub struct RadixNode {
    /// Left child (covers the lower key subrange).
    pub left: NodeRef,
    /// Right child.
    pub right: NodeRef,
    /// First leaf index covered by this node (inclusive).
    pub first: u32,
    /// Last leaf index covered (inclusive).
    pub last: u32,
    /// Length in bits of the common prefix shared by all covered keys.
    pub prefix_len: u32,
}

/// A binary radix tree over `m` distinct sorted keys: `m - 1` internal
/// nodes (node 0 is the root when `m > 1`).
#[derive(Debug, Clone)]
pub struct RadixTree {
    /// Internal nodes; node 0 is the root when `num_leaves > 1`.
    pub nodes: Vec<RadixNode>,
    /// Number of leaves (== number of input keys).
    pub num_leaves: usize,
}

impl RadixTree {
    /// The root reference (a leaf when there is a single key).
    pub fn root(&self) -> NodeRef {
        NodeRef::root_of(self.num_leaves).expect("a radix tree has a key")
    }

    /// Build the tree over MSB-aligned, sorted, distinct keys.
    ///
    /// Panics (debug) if keys are unsorted or duplicated.
    pub fn build(keys: &[u64]) -> RadixTree {
        let m = keys.len();
        assert!(m >= 1, "radix tree needs at least one key");
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be sorted and distinct"
        );
        if m == 1 {
            return RadixTree {
                nodes: Vec::new(),
                num_leaves: 1,
            };
        }

        // Karras: every internal node is independent. Chunked ranges (at
        // least `MIN_NODES_PER_TASK` nodes per task) keep the engine from
        // thrashing on per-element tasks — each node is only a few dozen
        // instructions, far below a profitable task size.
        let nodes: Vec<RadixNode> = (0..m - 1)
            .into_par_iter()
            .with_min_len(MIN_NODES_PER_TASK)
            .map(|i| karras_node(keys, i))
            .collect();

        RadixTree {
            nodes,
            num_leaves: m,
        }
    }
}

/// Smallest node count worth a pool task (see [`RadixTree::build`]).
const MIN_NODES_PER_TASK: usize = 128;

/// Compute internal node `i` of the radix tree over sorted distinct
/// `keys` — the body of Karras' parallel loop, independent per node.
fn karras_node(keys: &[u64], i: usize) -> RadixNode {
    let m = keys.len();
    // δ(i, j): common prefix length of keys i and j, -1 out of range.
    let delta = |i: usize, j: isize| -> i64 {
        if j < 0 || j >= m as isize {
            return -1;
        }
        let a = keys[i];
        let b = keys[j as usize];
        debug_assert_ne!(a, b);
        (a ^ b).leading_zeros() as i64
    };

    let ii = i as isize;
    // Direction of the range containing i.
    let d: isize = if delta(i, ii + 1) > delta(i, ii - 1) {
        1
    } else {
        -1
    };
    let delta_min = delta(i, ii - d);
    // Find an upper bound for the range length by doubling.
    let mut lmax: isize = 2;
    while delta(i, ii + lmax * d) > delta_min {
        lmax *= 2;
    }
    // Binary-search the exact length.
    let mut l: isize = 0;
    let mut t = lmax / 2;
    while t >= 1 {
        if delta(i, ii + (l + t) * d) > delta_min {
            l += t;
        }
        t /= 2;
    }
    let j = ii + l * d;
    let delta_node = delta(i, j);
    // Binary-search the split position.
    let mut s: isize = 0;
    let mut t = l;
    loop {
        t = (t + 1) / 2;
        if delta(i, ii + (s + t) * d) > delta_node {
            s += t;
        }
        if t == 1 {
            break;
        }
    }
    let gamma = (ii + s * d + d.min(0)) as usize;
    let first = ii.min(j) as u32;
    let last = ii.max(j) as u32;
    let left = if first as usize == gamma {
        NodeRef::Leaf(gamma as u32)
    } else {
        NodeRef::Inner(gamma as u32)
    };
    let right = if last as usize == gamma + 1 {
        NodeRef::Leaf(gamma as u32 + 1)
    } else {
        NodeRef::Inner(gamma as u32 + 1)
    };
    RadixNode {
        left,
        right,
        first,
        last,
        prefix_len: delta_node as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_geom::rng::SplitMix64;
    use std::collections::HashSet;

    /// Check structural invariants: every leaf referenced exactly once,
    /// every non-root inner referenced exactly once, ranges nest.
    fn check_invariants(tree: &RadixTree) {
        let m = tree.num_leaves;
        if m == 1 {
            assert!(tree.nodes.is_empty());
            return;
        }
        assert_eq!(tree.nodes.len(), m - 1);
        let mut leaf_refs = HashSet::new();
        let mut inner_refs = HashSet::new();
        for n in &tree.nodes {
            for c in [n.left, n.right] {
                match c {
                    NodeRef::Leaf(i) => assert!(leaf_refs.insert(i), "leaf {i} ref'd twice"),
                    NodeRef::Inner(i) => {
                        assert_ne!(i, 0, "root must not be a child");
                        assert!(inner_refs.insert(i), "inner {i} ref'd twice");
                    }
                }
            }
        }
        assert_eq!(leaf_refs.len(), m, "every leaf referenced once");
        assert_eq!(
            inner_refs.len(),
            m - 2,
            "every non-root inner referenced once"
        );
        // Root covers everything.
        assert_eq!(tree.nodes[0].first, 0);
        assert_eq!(tree.nodes[0].last as usize, m - 1);
        // Children partition the parent's range.
        for n in &tree.nodes {
            let (lf, ll) = match n.left {
                NodeRef::Leaf(i) => (i, i),
                NodeRef::Inner(i) => (tree.nodes[i as usize].first, tree.nodes[i as usize].last),
            };
            let (rf, rl) = match n.right {
                NodeRef::Leaf(i) => (i, i),
                NodeRef::Inner(i) => (tree.nodes[i as usize].first, tree.nodes[i as usize].last),
            };
            assert_eq!(lf, n.first);
            assert_eq!(rl, n.last);
            assert_eq!(ll + 1, rf, "children contiguous");
        }
    }

    fn msb_align(keys: &mut [u64], bits: u32) {
        for k in keys.iter_mut() {
            *k <<= 64 - bits;
        }
    }

    #[test]
    fn single_key() {
        let tree = RadixTree::build(&[42 << 32]);
        assert_eq!(tree.root(), NodeRef::Leaf(0));
        check_invariants(&tree);
    }

    #[test]
    fn two_keys() {
        let mut keys = vec![0b01u64, 0b10u64];
        msb_align(&mut keys, 2);
        let tree = RadixTree::build(&keys);
        check_invariants(&tree);
        assert_eq!(tree.root(), NodeRef::Inner(0));
        assert_eq!(tree.nodes[0].left, NodeRef::Leaf(0));
        assert_eq!(tree.nodes[0].right, NodeRef::Leaf(1));
        assert_eq!(tree.nodes[0].prefix_len, 0);
    }

    #[test]
    fn full_two_bit_space() {
        let mut keys = vec![0b00u64, 0b01, 0b10, 0b11];
        msb_align(&mut keys, 2);
        let tree = RadixTree::build(&keys);
        check_invariants(&tree);
        // Perfect binary tree: root splits at bit 0.
        assert_eq!(tree.nodes[0].prefix_len, 0);
    }

    #[test]
    fn skewed_keys() {
        // Keys sharing successively longer prefixes → a skewed tree.
        let mut keys: Vec<u64> = vec![0b0001, 0b0010, 0b0100, 0b1000];
        keys.sort();
        msb_align(&mut keys, 4);
        let tree = RadixTree::build(&keys);
        check_invariants(&tree);
    }

    #[test]
    fn random_keys_invariants() {
        let mut rng = SplitMix64::new(99);
        for trial in 0..50 {
            let m = 2 + (rng.next_u64() % 500) as usize;
            let mut set = HashSet::new();
            while set.len() < m {
                set.insert(rng.next_u64() >> 1); // keep MSB clear like Morton codes
            }
            let mut keys: Vec<u64> = set.into_iter().collect();
            keys.sort_unstable();
            msb_align(&mut keys, 63);
            let tree = RadixTree::build(&keys);
            check_invariants(&tree);
            let _ = trial;
        }
    }

    #[test]
    fn prefix_len_increases_downward() {
        let mut rng = SplitMix64::new(3);
        let mut set = HashSet::new();
        while set.len() < 300 {
            set.insert(rng.next_u64() >> 1);
        }
        let mut keys: Vec<u64> = set.into_iter().collect();
        keys.sort_unstable();
        msb_align(&mut keys, 63);
        let tree = RadixTree::build(&keys);
        for n in &tree.nodes {
            for c in [n.left, n.right] {
                if let NodeRef::Inner(i) = c {
                    assert!(
                        tree.nodes[i as usize].prefix_len > n.prefix_len,
                        "child prefixes strictly extend the parent's"
                    );
                }
            }
        }
    }

    #[test]
    fn noderef_pack_roundtrip() {
        for r in [
            NodeRef::Inner(0),
            NodeRef::Leaf(0),
            NodeRef::Inner(12345),
            NodeRef::Leaf(67890),
        ] {
            assert_eq!(NodeRef::unpack(r.pack()), r);
        }
    }

    #[test]
    fn check_tree_accepts_built_trees_and_rejects_bad_links() {
        let mut keys = vec![0b000u64, 0b001, 0b011, 0b100, 0b110];
        msb_align(&mut keys, 3);
        let tree = RadixTree::build(&keys);
        let check = |root: Option<NodeRef>, nodes: &[RadixNode], leaves: usize| {
            check_tree(root, nodes.len(), leaves, |i| {
                [nodes[i as usize].left, nodes[i as usize].right]
            })
        };
        assert!(check(Some(tree.root()), &tree.nodes, 5).is_ok());
        assert!(check(Some(NodeRef::Leaf(0)), &[], 1).is_ok());
        assert!(check(None, &[], 0).is_ok());

        let NodeRef::Inner(child) = tree.nodes[0].left else {
            panic!("the root's left subtree holds three keys");
        };
        let edited = |edit: &dyn Fn(&mut [RadixNode])| {
            let mut nodes = tree.nodes.clone();
            edit(&mut nodes);
            nodes
        };
        let c = child as usize;
        for (what, nodes) in [
            (
                "leaf out of range",
                edited(&|n| n[c].right = NodeRef::Leaf(5)),
            ),
            (
                "inner out of range",
                edited(&|n| n[c].left = NodeRef::Inner(4)),
            ),
            ("cycle", edited(&|n| n[c].right = NodeRef::Inner(0))),
            ("shared child", edited(&|n| n[c].right = n[c].left)),
        ] {
            assert!(check(Some(tree.root()), &nodes, 5).is_err(), "{what}");
        }
        assert!(
            check(Some(NodeRef::Inner(child)), &tree.nodes, 5).is_err(),
            "orphans"
        );
        assert!(check(None, &tree.nodes, 5).is_err(), "no root over leaves");
        assert!(check(None, &[], 1).is_err(), "no root over one leaf");
    }
}
