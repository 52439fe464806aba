//! Property-based tests (proptest) over the core data structures and
//! invariants: the BAT layout roundtrip, query exactness against brute
//! force, aggregation-tree partitioning, bitmap conservativeness, and the
//! progressive-read contract.

use bat_aggregation::{AggConfig, AggregationTree, RankInfo};
use bat_geom::{Aabb, Vec3};
use bat_layout::{AttributeDesc, BatBuilder, BatConfig, BatFile, Bitmap32, ParticleSet, Query};
use proptest::prelude::*;

/// Strategy: a particle cloud with one f64 attribute, arbitrary positions
/// inside a fixed domain.
fn particle_cloud(max_n: usize) -> impl Strategy<Value = ParticleSet> {
    prop::collection::vec(
        (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0, -100.0f64..100.0),
        0..max_n,
    )
    .prop_map(|rows| {
        let mut set = ParticleSet::new(vec![AttributeDesc::f64("v")]);
        for (x, y, z, v) in rows {
            set.push(Vec3::new(x, y, z), &[v]);
        }
        set
    })
}

fn build_file(set: &ParticleSet) -> BatFile {
    let bat = BatBuilder::new(BatConfig {
        subprefix_bits: 9,
        treelet: bat_layout::treelet::TreeletConfig {
            lod_per_inner: 4,
            max_leaf: 16,
            seed: 1,
        },
    })
    .build(set.clone(), Aabb::unit());
    BatFile::from_bytes(bat.to_bytes()).expect("valid image")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn full_query_returns_every_particle(set in particle_cloud(400)) {
        let file = build_file(&set);
        let mut n = 0u64;
        let mut sum = 0.0f64;
        file.query(&Query::new(), |p| { n += 1; sum += p.attrs[0]; }).unwrap();
        prop_assert_eq!(n as usize, set.len());
        let expect: f64 = (0..set.len()).map(|i| set.value(0, i)).sum();
        prop_assert!((sum - expect).abs() < 1e-9 * expect.abs().max(1.0));
    }

    #[test]
    fn spatial_query_equals_brute_force(
        set in particle_cloud(300),
        bx in 0.0f32..1.0, by in 0.0f32..1.0, bz in 0.0f32..1.0,
        ex in 0.01f32..0.8, ey in 0.01f32..0.8, ez in 0.01f32..0.8,
    ) {
        let qb = Aabb::new(
            Vec3::new(bx, by, bz),
            Vec3::new((bx + ex).min(1.0), (by + ey).min(1.0), (bz + ez).min(1.0)),
        );
        let file = build_file(&set);
        let got = file.count(&Query::new().with_bounds(qb)).unwrap();
        let expect = set.positions.iter().filter(|p| qb.contains_point(**p)).count();
        prop_assert_eq!(got as usize, expect);
    }

    #[test]
    fn attribute_query_equals_brute_force(
        set in particle_cloud(300),
        lo in -120.0f64..120.0,
        width in 0.0f64..150.0,
    ) {
        let hi = lo + width;
        let file = build_file(&set);
        let got = file.count(&Query::new().with_filter(0, lo, hi)).unwrap();
        let expect = (0..set.len())
            .filter(|&i| { let v = set.value(0, i); v >= lo && v <= hi })
            .count();
        prop_assert_eq!(got as usize, expect);
    }

    #[test]
    fn progressive_reads_partition(set in particle_cloud(300), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (a, b) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let file = build_file(&set);
        let n_a = file.count(&Query::new().with_quality(a)).unwrap();
        let n_b = file.count(&Query::new().with_quality(b)).unwrap();
        let n_inc = file.count(&Query::new().with_prev_quality(a).with_quality(b)).unwrap();
        prop_assert!(n_a <= n_b);
        prop_assert_eq!(n_b - n_a, n_inc, "increment must equal the difference");
    }

    #[test]
    fn bitmap_query_mask_never_false_negative(
        v in -1e6f64..1e6,
        lo in -1e6f64..1e6,
        w in 1e-6f64..1e6,
        qpad in 0.0f64..1e5,
    ) {
        let hi = lo + w;
        let v = v.clamp(lo, hi);
        let bm = Bitmap32::from_values([v], lo, hi);
        let mask = Bitmap32::query_mask(v - qpad, v + qpad, lo, hi);
        prop_assert!(bm.overlaps(mask));
    }

    #[test]
    fn bitmap_remap_conservative(
        v in -1e3f64..1e3,
        llo in -1e3f64..1e3,
        lw in 1e-3f64..1e3,
        glo in -2e3f64..-1e3,
        gw in 3e3f64..6e3,
    ) {
        let lhi = llo + lw;
        let ghi = glo + gw;
        let v = v.clamp(llo, lhi);
        let local = Bitmap32::from_values([v], llo, lhi);
        let global = local.remap((llo, lhi), (glo, ghi));
        let mask = Bitmap32::query_mask(v - 1.0, v + 1.0, glo, ghi);
        prop_assert!(global.overlaps(mask), "remapped bitmap must still match v={v}");
    }

    #[test]
    fn aggregation_tree_partitions_ranks(
        counts in prop::collection::vec(0u64..200_000, 1..64),
        target_kb in 1u64..5_000,
    ) {
        // Arbitrary rank counts on a line of rank boxes.
        let ranks: Vec<RankInfo> = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let min = Vec3::new(i as f32, 0.0, 0.0);
                RankInfo::new(i as u32, Aabb::new(min, min + Vec3::ONE), c)
            })
            .collect();
        let cfg = AggConfig::new(target_kb * 1024, 100);
        let tree = AggregationTree::build(&ranks, &cfg);
        // Every populated rank appears in exactly one leaf.
        let mut seen = std::collections::HashSet::new();
        for leaf in &tree.leaves {
            prop_assert!(!leaf.ranks.is_empty());
            for &r in &leaf.ranks {
                prop_assert!(seen.insert(r));
                prop_assert!(counts[r as usize] > 0, "empty ranks excluded");
            }
        }
        let populated = counts.iter().filter(|&&c| c > 0).count();
        prop_assert_eq!(seen.len(), populated);
        // Total particle conservation.
        let total: u64 = counts.iter().sum();
        let leaf_total: u64 = tree.leaves.iter().map(|l| l.particles).sum();
        prop_assert_eq!(total, leaf_total);
    }

    #[test]
    fn compacted_image_parses_after_any_truncation(
        set in particle_cloud(120),
        frac in 0.0f64..1.0,
    ) {
        // Decoding any prefix of a valid image must error or succeed — but
        // never panic (fuzz-style robustness for the panic-free parser).
        let bat = BatBuilder::new(BatConfig::default()).build(set, Aabb::unit());
        let bytes = bat.to_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        let _ = bat_layout::format::read_head(&bytes[..cut]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn treelet_structure_invariants(
        pts in prop::collection::vec((0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0), 1..600),
        lod in 1u32..16,
        max_leaf in 2u32..64,
        salt in 0u64..1000,
    ) {
        use bat_layout::treelet::{build_structure, TreeletConfig, NO_CHILD};
        let positions: Vec<Vec3> = pts.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();
        let cfg = TreeletConfig { lod_per_inner: lod, max_leaf, seed: 77 };
        let s = build_structure(&positions, &cfg, salt);

        // The order is a permutation of the input.
        let mut seen = vec![false; positions.len()];
        for &i in &s.order {
            prop_assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        prop_assert!(seen.iter().all(|&b| b));

        // Node blocks tile the order exactly once.
        let total: u32 = s.nodes.iter().map(|n| n.count).sum();
        prop_assert_eq!(total as usize, positions.len());

        for node in &s.nodes {
            prop_assert!(node.depth <= s.max_depth);
            for o in node.start..node.start + node.count {
                let p = positions[s.order[o as usize] as usize];
                prop_assert!(node.bounds.contains_point(p));
            }
            if node.left != NO_CHILD {
                prop_assert!(node.count <= lod);
                let l = &s.nodes[node.left as usize];
                let r = &s.nodes[node.right as usize];
                prop_assert!(node.bounds.contains_box(&l.bounds));
                prop_assert!(node.bounds.contains_box(&r.bounds));
            } else {
                prop_assert!(node.count <= max_leaf);
            }
        }
    }

    #[test]
    fn morton_order_is_monotone_within_axis(
        x1 in 0.0f32..1.0, x2 in 0.0f32..1.0,
        y in 0.0f32..1.0, z in 0.0f32..1.0,
    ) {
        use bat_geom::morton;
        // With y and z fixed, Morton codes are monotone in x.
        let d = Aabb::unit();
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let c_lo = morton::encode_point(Vec3::new(lo, y, z), &d);
        let c_hi = morton::encode_point(Vec3::new(hi, y, z), &d);
        prop_assert!(c_lo <= c_hi);
    }

    #[test]
    fn read_aggregator_assignment_total(files in 0usize..500, ranks in 1usize..300) {
        use bat_aggregation::assign::assign_read_aggregators;
        let owners = assign_read_aggregators(files, ranks);
        prop_assert_eq!(owners.len(), files);
        for &o in &owners {
            prop_assert!((o as usize) < ranks);
        }
        // Load is near-even: no rank owns more than ceil(files/ranks) + 1.
        if files > 0 {
            let mut counts = vec![0usize; ranks];
            for &o in &owners {
                counts[o as usize] += 1;
            }
            let cap = files.div_ceil(ranks) + 1;
            prop_assert!(counts.iter().all(|&c| c <= cap), "counts {:?}", counts);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shard router relays a worker's chunk frame after checking only
    /// its header and length. That check must accept exactly what the
    /// encoder writes — and so everything it accepts decodes — and reject
    /// every way a frame can be the wrong size or for the wrong schema.
    #[test]
    fn chunk_frame_check_accepts_exactly_what_the_encoder_writes(
        rows in prop::collection::vec(
            (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0, -1e6f64..1e6),
            0..300,
        ),
        num_attrs in 0usize..4,
    ) {
        use bat_stream::protocol::{check_chunk_frame, encode_chunk};
        use bat_stream::{Chunk, ServerMsg};

        let chunk = Chunk {
            positions: rows.iter().map(|&(x, y, z, _)| Vec3::new(x, y, z)).collect(),
            attrs: rows
                .iter()
                .flat_map(|&(.., v)| (0..num_attrs).map(move |a| v + a as f64))
                .collect(),
            num_attrs,
        };
        let n = chunk.len();
        let frame = chunk.encode_frame();

        // The frame is the client message: tag + `encode_chunk`'s bytes.
        let mut body = bat_wire::Encoder::new();
        encode_chunk(&mut body, &chunk);
        prop_assert_eq!(&frame[1..], body.as_slice());
        prop_assert_eq!(frame.len(), 25 + n * (12 + 8 * num_attrs));
        prop_assert_eq!(check_chunk_frame(&frame, num_attrs).ok(), Some(n));
        prop_assert_eq!(ServerMsg::decode(&frame).ok(), Some(ServerMsg::Chunk(chunk)));

        // Every truncation and any extension.
        for cut in 0..frame.len() {
            prop_assert!(check_chunk_frame(&frame[..cut], num_attrs).is_err(), "cut at {}", cut);
        }
        for extra in [1usize, 8, 20] {
            let mut long = frame.clone();
            long.resize(frame.len() + extra, 0);
            prop_assert!(check_chunk_frame(&long, num_attrs).is_err());
        }
        // A frame for another schema, under another tag.
        prop_assert!(check_chunk_frame(&frame, num_attrs + 1).is_err());
        if num_attrs > 0 {
            prop_assert!(check_chunk_frame(&frame, num_attrs - 1).is_err());
        }
        let mut retagged = frame.clone();
        retagged[0] ^= 0x04;
        prop_assert!(check_chunk_frame(&retagged, num_attrs).is_err());
        // An attribute column whose declared count disagrees with n, at
        // the right total length.
        let count_at = 17 + 12 * n;
        let mut miscounted = frame.clone();
        miscounted[count_at..count_at + 8]
            .copy_from_slice(&((n * num_attrs) as u64 + 1).to_le_bytes());
        prop_assert!(check_chunk_frame(&miscounted, num_attrs).is_err());
        // A point count that disagrees with the columns that follow.
        let mut recounted = frame;
        recounted[9..17].copy_from_slice(&(n as u64 + 1).to_le_bytes());
        prop_assert!(check_chunk_frame(&recounted, num_attrs).is_err());
    }
}

/// An oversized chunk is refused even when every length in it agrees.
#[test]
fn chunk_frame_check_bounds_the_point_count() {
    use bat_stream::protocol::check_chunk_frame;
    use bat_stream::{Chunk, CHUNK_POINTS};
    let chunk_of = |n: usize| Chunk {
        positions: vec![Vec3::ZERO; n],
        attrs: vec![1.0; n * 2],
        num_attrs: 2,
    };
    let full = chunk_of(CHUNK_POINTS).encode_frame();
    assert_eq!(check_chunk_frame(&full, 2).ok(), Some(CHUNK_POINTS));
    let over = chunk_of(CHUNK_POINTS + 1).encode_frame();
    assert!(check_chunk_frame(&over, 2).is_err());
}
