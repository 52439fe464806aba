//! The top-level metadata tree (`.batmeta`, paper §III-D).
//!
//! After the aggregators finish writing their BAT files, each sends rank 0
//! the value range and root bitmap of every attribute. Rank 0 remaps each
//! aggregator's bitmaps from its local range onto the *global* range,
//! populates the Aggregation Tree leaves with them, merges inner-node
//! bitmaps bottom-up, and writes one small metadata file. A reader can then
//! treat the whole dataset as a single file: spatial queries descend the
//! tree, attribute queries cull entire leaf files by their global bitmaps,
//! and each surviving leaf file resolves the query exactly.

use bat_geom::Aabb;
use bat_layout::format::{get_aabb, put_aabb};
use bat_layout::query::Query;
use bat_layout::radix::{self, NodeRef};
use bat_layout::{AttributeDesc, Bitmap32};
use bat_wire::{Decoder, Encoder, WireError, WireResult};

/// Metadata file magic: "BATM".
pub const META_MAGIC: u32 = 0x4241_544D;
/// Metadata format version.
pub const META_VERSION: u32 = 1;

/// One leaf file of the dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaLeaf {
    /// File name, relative to the metadata file's directory.
    pub file: String,
    /// Spatial bounds of the leaf (union of its ranks' bounds).
    pub bounds: Aabb,
    /// Particles stored in the leaf file.
    pub particles: u64,
    /// Rank that wrote the file (write aggregator).
    pub aggregator: u32,
    /// Aggregator-local attribute ranges (the bin ranges inside the file).
    pub local_ranges: Vec<(f64, f64)>,
    /// Root bitmaps remapped to the global attribute ranges.
    pub global_bitmaps: Vec<Bitmap32>,
}

/// Inner node of the metadata k-d tree.
#[derive(Debug, Clone, PartialEq)]
struct MetaInner {
    /// Left child reference.
    left: NodeRef,
    /// Right child reference.
    right: NodeRef,
    /// Bounds of the subtree.
    bounds: Aabb,
    /// Per-attribute bitmaps (global bins), merged bottom-up.
    bitmaps: Vec<Bitmap32>,
}

/// The top-level metadata: one per dataset timestep. Its k-d tree is
/// checked once, when built or decoded; walks over it then trust it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaTree {
    /// Attribute schema of the dataset.
    pub descs: Vec<AttributeDesc>,
    /// Global `(min, max)` per attribute over all leaf files.
    pub global_ranges: Vec<(f64, f64)>,
    /// Bounds of the whole dataset.
    pub domain: Aabb,
    /// Total particles across all leaf files.
    pub total_particles: u64,
    /// Inner k-d nodes over the leaves.
    inners: Vec<MetaInner>,
    /// Leaf file records.
    pub leaves: Vec<MetaLeaf>,
    /// Root reference; `None` for an empty dataset.
    root: Option<NodeRef>,
}

/// What each aggregator reports to rank 0 about its written file.
#[derive(Debug, Clone)]
pub struct LeafReport {
    /// Leaf file name.
    pub file: String,
    /// Leaf spatial bounds.
    pub bounds: Aabb,
    /// Particles written.
    pub particles: u64,
    /// The aggregator rank that wrote the file.
    pub aggregator: u32,
    /// Aggregator-local `(min, max)` per attribute.
    pub local_ranges: Vec<(f64, f64)>,
    /// Root bitmaps in the *local* bins; remapped during metadata build.
    pub local_bitmaps: Vec<Bitmap32>,
    /// On-disk length of the committed leaf file (footer included).
    pub file_len: u64,
    /// CRC32C of the whole committed leaf file (footer included).
    pub file_crc: u32,
}

impl LeafReport {
    /// Serialize for the gather at rank 0 (paper Fig. 1d).
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.file);
        put_aabb(enc, &self.bounds);
        enc.put_u64(self.particles);
        enc.put_u32(self.aggregator);
        enc.put_u64(self.file_len);
        enc.put_u32(self.file_crc);
        enc.put_u64(self.local_ranges.len() as u64);
        for (&(lo, hi), bm) in self.local_ranges.iter().zip(&self.local_bitmaps) {
            enc.put_f64(lo);
            enc.put_f64(hi);
            bm.encode(enc);
        }
    }

    /// Inverse of [`LeafReport::encode`].
    pub fn decode(dec: &mut Decoder) -> WireResult<LeafReport> {
        let file = dec.get_str("leaf file")?;
        let bounds = get_aabb(dec)?;
        let particles = dec.get_u64("leaf particles")?;
        let aggregator = dec.get_u32("leaf aggregator")?;
        let file_len = dec.get_u64("leaf file len")?;
        let file_crc = dec.get_u32("leaf file crc")?;
        let na = dec.get_usize("leaf attr count")?;
        let mut local_ranges = Vec::with_capacity(na);
        let mut local_bitmaps = Vec::with_capacity(na);
        for _ in 0..na {
            let lo = dec.get_f64("leaf range lo")?;
            let hi = dec.get_f64("leaf range hi")?;
            local_ranges.push((lo, hi));
            local_bitmaps.push(Bitmap32::decode(dec)?);
        }
        Ok(LeafReport {
            file,
            bounds,
            particles,
            aggregator,
            local_ranges,
            local_bitmaps,
            file_len,
            file_crc,
        })
    }
}

impl MetaTree {
    /// Build the metadata tree on rank 0 from the aggregators' reports
    /// (paper Fig. 1d): compute global ranges, remap each leaf's bitmaps
    /// into global bins, and merge inner bitmaps bottom-up over a k-d tree
    /// of the leaf bounds.
    pub fn build(descs: Vec<AttributeDesc>, reports: Vec<LeafReport>) -> MetaTree {
        let na = descs.len();
        let mut global_ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); na];
        let mut domain = Aabb::empty();
        let mut total = 0u64;
        for r in &reports {
            assert_eq!(r.local_ranges.len(), na, "report schema mismatch");
            for (g, &(lo, hi)) in global_ranges.iter_mut().zip(&r.local_ranges) {
                if r.particles > 0 {
                    g.0 = g.0.min(lo);
                    g.1 = g.1.max(hi);
                }
            }
            domain = domain.union(&r.bounds);
            total += r.particles;
        }
        for g in &mut global_ranges {
            if g.0 > g.1 {
                *g = (0.0, 0.0);
            }
        }

        let leaves: Vec<MetaLeaf> = reports
            .into_iter()
            .map(|r| {
                let global_bitmaps = r
                    .local_bitmaps
                    .iter()
                    .zip(&r.local_ranges)
                    .zip(&global_ranges)
                    .map(|((bm, &local), &global)| bm.remap(local, global))
                    .collect();
                MetaLeaf {
                    file: r.file,
                    bounds: r.bounds,
                    particles: r.particles,
                    aggregator: r.aggregator,
                    local_ranges: r.local_ranges,
                    global_bitmaps,
                }
            })
            .collect();

        let mut tree = MetaTree {
            descs,
            global_ranges,
            domain,
            total_particles: total,
            inners: Vec::new(),
            leaves,
            root: None,
        };
        if !tree.leaves.is_empty() {
            let mut order: Vec<u32> = (0..tree.leaves.len() as u32).collect();
            let root = build_meta_node(&mut tree, &mut order);
            tree.root = Some(root);
        }
        tree
    }

    /// Leaf files that *may* contain matches for a query, culled by bounds
    /// and by the global root bitmaps (never drops a real match).
    pub fn candidate_leaves(&self, q: &Query) -> WireResult<Vec<u32>> {
        // Precompute global query masks.
        let mut masks = Vec::with_capacity(q.filters.len());
        for f in &q.filters {
            if f.attr >= self.descs.len() {
                return Err(WireError::BadTag {
                    what: "metadata filter attribute",
                    tag: f.attr as u64,
                });
            }
            let (lo, hi) = self.global_ranges[f.attr];
            let mask = Bitmap32::query_mask(f.lo, f.hi, lo, hi);
            if mask == Bitmap32::EMPTY {
                return Ok(Vec::new());
            }
            masks.push((f.attr, mask));
        }
        let mut out = Vec::new();
        radix::walk(
            self.root,
            |i| self.children(i),
            |c| {
                let (bounds, bitmaps) = match c {
                    NodeRef::Inner(i) => (
                        &self.inners[i as usize].bounds,
                        &self.inners[i as usize].bitmaps,
                    ),
                    NodeRef::Leaf(l) => (
                        &self.leaves[l as usize].bounds,
                        &self.leaves[l as usize].global_bitmaps,
                    ),
                };
                let hit = q.bounds.as_ref().is_none_or(|qb| qb.overlaps(bounds))
                    && masks.iter().all(|&(a, m)| bitmaps[a].overlaps(m));
                if let (NodeRef::Leaf(l), true) = (c, hit) {
                    out.push(l);
                }
                hit
            },
        );
        out.sort_unstable();
        Ok(out)
    }

    /// An inner node's `[left, right]` child links.
    fn children(&self, i: u32) -> [NodeRef; 2] {
        let n = &self.inners[i as usize];
        [n.left, n.right]
    }

    /// Serialize to the `.batmeta` byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u32(META_MAGIC);
        enc.put_u32(META_VERSION);
        enc.put_u64(self.total_particles);
        put_aabb(&mut enc, &self.domain);
        enc.put_u64(self.descs.len() as u64);
        for (d, &(lo, hi)) in self.descs.iter().zip(&self.global_ranges) {
            d.encode(&mut enc);
            enc.put_f64(lo);
            enc.put_f64(hi);
        }
        enc.put_u32(match self.root {
            None => u32::MAX,
            Some(c) => c.pack(),
        });
        enc.put_u64(self.inners.len() as u64);
        for n in &self.inners {
            enc.put_u32(n.left.pack());
            enc.put_u32(n.right.pack());
            put_aabb(&mut enc, &n.bounds);
            for bm in &n.bitmaps {
                bm.encode(&mut enc);
            }
        }
        enc.put_u64(self.leaves.len() as u64);
        for l in &self.leaves {
            enc.put_str(&l.file);
            put_aabb(&mut enc, &l.bounds);
            enc.put_u64(l.particles);
            enc.put_u32(l.aggregator);
            for (&(lo, hi), bm) in l.local_ranges.iter().zip(&l.global_bitmaps) {
                enc.put_f64(lo);
                enc.put_f64(hi);
                bm.encode(&mut enc);
            }
        }
        enc.finish()
    }

    /// Parse a `.batmeta` byte buffer.
    pub fn decode(data: &[u8]) -> WireResult<MetaTree> {
        let mut dec = Decoder::new(data);
        dec.expect_magic(META_MAGIC)?;
        let version = dec.get_u32("meta version")?;
        if version != META_VERSION {
            return Err(WireError::BadTag {
                what: "meta version",
                tag: version as u64,
            });
        }
        let total_particles = dec.get_u64("total particles")?;
        let domain = get_aabb(&mut dec)?;
        let na = dec.get_usize("meta attr count")?;
        if na > data.len() {
            return Err(WireError::BadLength {
                what: "meta attr count",
                len: na as u64,
                remaining: data.len(),
            });
        }
        let mut descs = Vec::with_capacity(na);
        let mut global_ranges = Vec::with_capacity(na);
        for _ in 0..na {
            descs.push(AttributeDesc::decode(&mut dec)?);
            let lo = dec.get_f64("global lo")?;
            let hi = dec.get_f64("global hi")?;
            global_ranges.push((lo, hi));
        }
        let root_raw = dec.get_u32("meta root")?;
        let root = if root_raw == u32::MAX {
            None
        } else {
            Some(NodeRef::unpack(root_raw))
        };
        let ni = dec.get_usize("meta inner count")?;
        if ni > data.len() {
            return Err(WireError::BadLength {
                what: "meta inner count",
                len: ni as u64,
                remaining: data.len(),
            });
        }
        let mut inners = Vec::with_capacity(ni);
        for _ in 0..ni {
            let left = NodeRef::unpack(dec.get_u32("meta left")?);
            let right = NodeRef::unpack(dec.get_u32("meta right")?);
            let bounds = get_aabb(&mut dec)?;
            let mut bitmaps = Vec::with_capacity(na);
            for _ in 0..na {
                bitmaps.push(Bitmap32::decode(&mut dec)?);
            }
            inners.push(MetaInner {
                left,
                right,
                bounds,
                bitmaps,
            });
        }
        let nl = dec.get_usize("meta leaf count")?;
        if nl > data.len() {
            return Err(WireError::BadLength {
                what: "meta leaf count",
                len: nl as u64,
                remaining: data.len(),
            });
        }
        let mut leaves = Vec::with_capacity(nl);
        for _ in 0..nl {
            let file = dec.get_str("leaf file")?;
            let bounds = get_aabb(&mut dec)?;
            let particles = dec.get_u64("leaf particles")?;
            let aggregator = dec.get_u32("leaf aggregator")?;
            let mut local_ranges = Vec::with_capacity(na);
            let mut global_bitmaps = Vec::with_capacity(na);
            for _ in 0..na {
                let lo = dec.get_f64("leaf lo")?;
                let hi = dec.get_f64("leaf hi")?;
                local_ranges.push((lo, hi));
                global_bitmaps.push(Bitmap32::decode(&mut dec)?);
            }
            leaves.push(MetaLeaf {
                file,
                bounds,
                particles,
                aggregator,
                local_ranges,
                global_bitmaps,
            });
        }
        let tree = MetaTree {
            descs,
            global_ranges,
            domain,
            total_particles,
            inners,
            leaves,
            root,
        };
        radix::check_tree(root, tree.inners.len(), tree.leaves.len(), |i| {
            tree.children(i)
        })?;
        Ok(tree)
    }
}

/// Recursive median k-d build over leaf indices; returns the child ref and
/// fills `tree.inners`. Inner bitmaps/bounds merge children bottom-up.
fn build_meta_node(tree: &mut MetaTree, idx: &mut [u32]) -> NodeRef {
    debug_assert!(!idx.is_empty());
    if idx.len() == 1 {
        return NodeRef::Leaf(idx[0]);
    }
    let mut bounds = Aabb::empty();
    for &i in idx.iter() {
        bounds = bounds.union(&tree.leaves[i as usize].bounds);
    }
    let axis = bounds.longest_axis();
    let mid = idx.len() / 2;
    idx.select_nth_unstable_by(mid, |&a, &b| {
        tree.leaves[a as usize].bounds.center()[axis]
            .total_cmp(&tree.leaves[b as usize].bounds.center()[axis])
    });
    let (lo, hi) = idx.split_at_mut(mid);
    let node_idx = tree.inners.len();
    tree.inners.push(MetaInner {
        left: NodeRef::Leaf(u32::MAX),
        right: NodeRef::Leaf(u32::MAX),
        bounds,
        bitmaps: Vec::new(),
    });
    let left = build_meta_node(tree, lo);
    let right = build_meta_node(tree, hi);
    let merged: Vec<Bitmap32> = {
        let get = |c: NodeRef| -> Vec<Bitmap32> {
            match c {
                NodeRef::Inner(i) => tree.inners[i as usize].bitmaps.clone(),
                NodeRef::Leaf(l) => tree.leaves[l as usize].global_bitmaps.clone(),
            }
        };
        get(left)
            .into_iter()
            .zip(get(right))
            .map(|(a, b)| a.or(b))
            .collect()
    };
    let n = &mut tree.inners[node_idx];
    n.left = left;
    n.right = right;
    n.bitmaps = merged;
    NodeRef::Inner(node_idx as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_geom::Vec3;

    fn report(i: u32, lo: f32, hi: f32, vlo: f64, vhi: f64, particles: u64) -> LeafReport {
        LeafReport {
            file: format!("leaf{i}.bat"),
            bounds: Aabb::new(Vec3::splat(lo), Vec3::splat(hi)),
            particles,
            aggregator: i,
            local_ranges: vec![(vlo, vhi)],
            local_bitmaps: vec![Bitmap32::from_values(
                [vlo, (vlo + vhi) / 2.0, vhi],
                vlo,
                vhi,
            )],
            file_len: 0,
            file_crc: 0,
        }
    }

    fn descs() -> Vec<AttributeDesc> {
        vec![AttributeDesc::f64("v")]
    }

    #[test]
    fn global_range_is_union() {
        let tree = MetaTree::build(
            descs(),
            vec![
                report(0, 0.0, 0.5, 10.0, 20.0, 100),
                report(1, 0.5, 1.0, -5.0, 15.0, 100),
            ],
        );
        assert_eq!(tree.global_ranges[0], (-5.0, 20.0));
        assert_eq!(tree.total_particles, 200);
        assert_eq!(tree.leaves.len(), 2);
        assert_eq!(tree.inners.len(), 1);
    }

    #[test]
    fn empty_dataset() {
        let tree = MetaTree::build(descs(), vec![]);
        assert!(tree.root.is_none());
        assert_eq!(tree.global_ranges[0], (0.0, 0.0));
        let round = MetaTree::decode(&tree.encode()).unwrap();
        assert_eq!(round, tree);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let tree = MetaTree::build(
            descs(),
            (0..13)
                .map(|i| {
                    report(
                        i,
                        i as f32 * 0.1,
                        i as f32 * 0.1 + 0.1,
                        0.0,
                        i as f64 + 1.0,
                        50,
                    )
                })
                .collect(),
        );
        let bytes = tree.encode();
        let out = MetaTree::decode(&bytes).unwrap();
        assert_eq!(out, tree);
    }

    #[test]
    fn truncation_rejected() {
        let tree = MetaTree::build(descs(), vec![report(0, 0.0, 1.0, 0.0, 1.0, 10)]);
        let bytes = tree.encode();
        for cut in [2, 10, bytes.len() - 1] {
            assert!(MetaTree::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn spatial_leaf_lookup() {
        let tree = MetaTree::build(
            descs(),
            vec![
                report(0, 0.0, 0.4, 0.0, 1.0, 10),
                report(1, 0.4, 0.7, 0.0, 1.0, 10),
                report(2, 0.7, 1.0, 0.0, 1.0, 10),
            ],
        );
        // The linear scan over the leaves is the reference.
        let overlapping = |b: &Aabb| -> Vec<u32> {
            (0..tree.leaves.len() as u32)
                .filter(|&i| tree.leaves[i as usize].bounds.overlaps(b))
                .collect()
        };
        let hits = overlapping(&Aabb::new(Vec3::splat(0.45), Vec3::splat(0.5)));
        assert_eq!(hits, vec![1]);
        let all = overlapping(&Aabb::new(Vec3::splat(-1.0), Vec3::splat(2.0)));
        assert_eq!(all, vec![0, 1, 2]);
        // It is the reference for the tree walk every read path culls
        // with: a bounds-only query picks exactly these leaves.
        for (lo, hi) in [
            (0.45, 0.5),
            (-1.0, 2.0),
            (0.4, 0.7),
            (0.0, 0.05),
            (3.0, 4.0),
        ] {
            let b = Aabb::new(Vec3::splat(lo), Vec3::splat(hi));
            let walked = tree.candidate_leaves(&Query::new().with_bounds(b)).unwrap();
            assert_eq!(walked, overlapping(&b), "box {lo}..{hi}");
        }
    }

    #[test]
    fn candidate_leaves_cull_by_attribute() {
        // Leaf 0 has values 0..10, leaf 1 has 100..200.
        let tree = MetaTree::build(
            descs(),
            vec![
                report(0, 0.0, 0.5, 0.0, 10.0, 10),
                report(1, 0.5, 1.0, 100.0, 200.0, 10),
            ],
        );
        let q = Query::new().with_filter(0, 150.0, 160.0);
        let c = tree.candidate_leaves(&q).unwrap();
        assert_eq!(c, vec![1], "leaf 0's bitmap cannot cover 150..160");
        // A filter outside every range culls everything.
        let none = tree
            .candidate_leaves(&Query::new().with_filter(0, 1e6, 2e6))
            .unwrap();
        assert!(none.is_empty());
        // No filters: everything survives.
        let all = tree.candidate_leaves(&Query::new()).unwrap();
        assert_eq!(all, vec![0, 1]);
    }

    #[test]
    fn candidate_leaves_never_drop_matches() {
        // Conservative culling: any leaf whose local range intersects the
        // query interval must survive.
        let reports: Vec<LeafReport> = (0..20)
            .map(|i| {
                report(
                    i,
                    i as f32 * 0.05,
                    i as f32 * 0.05 + 0.05,
                    i as f64,
                    i as f64 + 5.0,
                    10,
                )
            })
            .collect();
        let tree = MetaTree::build(descs(), reports.clone());
        let q = Query::new().with_filter(0, 7.0, 9.0);
        let c = tree.candidate_leaves(&q).unwrap();
        for (i, r) in reports.iter().enumerate() {
            let overlaps = r.local_ranges[0].0 <= 9.0 && r.local_ranges[0].1 >= 7.0;
            // The bitmap is coarse: it may keep extra leaves but must keep
            // every overlapping one whose occupied bins intersect.
            if overlaps {
                // Values in bitmap were lo, mid, hi — if any is in range the
                // leaf must survive.
                let vals = [
                    r.local_ranges[0].0,
                    (r.local_ranges[0].0 + r.local_ranges[0].1) / 2.0,
                    r.local_ranges[0].1,
                ];
                if vals.iter().any(|&v| (7.0..=9.0).contains(&v)) {
                    assert!(c.contains(&(i as u32)), "leaf {i} dropped wrongly");
                }
            }
        }
    }

    #[test]
    fn corrupt_child_links_are_typed_errors() {
        let reports = (0..6)
            .map(|i| report(i, i as f32 * 0.1, i as f32 * 0.1 + 0.1, 0.0, 1.0, 10))
            .collect();
        let tree = MetaTree::build(descs(), reports);
        let Some(NodeRef::Inner(root)) = tree.root else {
            panic!("six leaves need inner nodes");
        };
        let NodeRef::Inner(child) = tree.inners[root as usize].left else {
            panic!("the root's left subtree holds three leaves");
        };
        let with = |edit: &dyn Fn(&mut MetaTree)| {
            let mut bad = tree.clone();
            edit(&mut bad);
            bad
        };
        let child = child as usize;
        for (what, bad) in [
            (
                "leaf out of range",
                with(&|t| t.inners[child].right = NodeRef::Leaf(99)),
            ),
            (
                "inner out of range",
                with(&|t| t.inners[child].left = NodeRef::Inner(99)),
            ),
            (
                "cycle",
                with(&|t| t.inners[child].right = NodeRef::Inner(root)),
            ),
            (
                "shared child",
                with(&|t| t.inners[child].right = t.inners[child].left),
            ),
            (
                "orphaned root and right subtree",
                with(&|t| t.root = Some(NodeRef::Inner(child as u32))),
            ),
            ("no root over six leaves", with(&|t| t.root = None)),
        ] {
            assert!(MetaTree::decode(&bad.encode()).is_err(), "{what}");
        }
        assert_eq!(MetaTree::decode(&tree.encode()).unwrap(), tree);
    }

    #[test]
    fn bad_filter_attr_rejected() {
        let tree = MetaTree::build(descs(), vec![report(0, 0.0, 1.0, 0.0, 1.0, 1)]);
        assert!(tree
            .candidate_leaves(&Query::new().with_filter(5, 0.0, 1.0))
            .is_err());
    }
}
