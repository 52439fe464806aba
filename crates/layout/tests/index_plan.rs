//! Attribute-index integration: planner strategies must be result-identical
//! across every backing, and a corrupted index must degrade to the bitmap
//! plan (typed, never a panic) while the file keeps serving.

mod common;

use bat_geom::rng::Xoshiro256;
use bat_geom::{Aabb, Vec3};
use bat_layout::build::Bat;
use bat_layout::codec::Codec;
use bat_layout::format::{self, write_bat_indexed};
use bat_layout::query::AttrFilter;
use bat_layout::source::MemorySource;
use bat_layout::{
    AttributeDesc, BatBuilder, BatConfig, BatFile, IndexSpec, ParticleSet, PlanStrategy, Query,
};
use bat_obs::knobs::{self, EnvGuard};
use common::fnv1a;
use std::sync::Arc;

/// Force `BAT_PLAN_STRATEGY` until the guard drops. A file snapshots the
/// knob when it is opened, so open files *under* the guard; holders are
/// serialized, so tests asserting on the chosen strategy cannot interleave.
fn force_strategy(strategy: &str) -> EnvGuard {
    EnvGuard::set(&[(&knobs::PLAN_STRATEGY, Some(strategy))])
}

/// Clustered cloud with a planted rare value: attribute `energy` is
/// uniform noise except in one spatial cluster, where every other particle
/// carries exactly 42.0 — a low-selectivity predicate the bitmap bins
/// cannot isolate: noise that would land in [`rare_query`]'s band is
/// nudged just past it, so 42 shares its bin with plenty of near misses
/// in every treelet while only the cluster truly matches.
fn planted(n: usize, seed: u64) -> (ParticleSet, Aabb) {
    let mut rng = Xoshiro256::new(seed);
    let mut set = ParticleSet::new(vec![
        AttributeDesc::f64("energy"),
        AttributeDesc::f32("speed"),
    ]);
    let centers: Vec<Vec3> = (0..8)
        .map(|_| Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()))
        .collect();
    for i in 0..n {
        let c = centers[i % centers.len()];
        let j = |r: &mut Xoshiro256| (r.next_f32() - 0.5) * 0.05;
        let p = Vec3::new(
            (c.x + j(&mut rng)).clamp(0.0, 1.0),
            (c.y + j(&mut rng)).clamp(0.0, 1.0),
            (c.z + j(&mut rng)).clamp(0.0, 1.0),
        );
        let energy = if i % centers.len() == 0 && i % 16 == 0 {
            42.0
        } else {
            let e = rng.next_f32() as f64 * 100.0;
            if e > 41.5 && e < 42.5 {
                e + 1.0
            } else {
                e
            }
        };
        set.push(p, &[energy, p.z as f64 * 10.0]);
    }
    (set, Aabb::unit())
}

fn build(n: usize, seed: u64) -> Bat {
    let (set, domain) = planted(n, seed);
    BatBuilder::new(BatConfig::default()).build(set, domain)
}

/// FNV over the full result stream: particle index, position bits, and
/// every attribute's bits, in callback order after an index sort.
fn result_fnv(file: &BatFile, q: &Query) -> u64 {
    let mut rows: Vec<Vec<u8>> = Vec::new();
    file.query(q, |r| {
        let mut row = Vec::with_capacity(8 + 12 + r.attrs.len() * 8);
        row.extend_from_slice(&r.index.to_le_bytes());
        row.extend_from_slice(&r.position.x.to_le_bytes());
        row.extend_from_slice(&r.position.y.to_le_bytes());
        row.extend_from_slice(&r.position.z.to_le_bytes());
        for a in r.attrs {
            row.extend_from_slice(&a.to_le_bytes());
        }
        rows.push(row);
    })
    .expect("query must succeed");
    rows.sort_unstable();
    let mut flat = Vec::new();
    for r in rows {
        flat.extend_from_slice(&r);
    }
    fnv1a(&flat)
}

fn rare_query() -> Query {
    let mut q = Query::new();
    q.filters.push(AttrFilter {
        attr: 0,
        lo: 41.5,
        hi: 42.5,
    });
    q
}

fn open_block(bytes: &[u8]) -> BatFile {
    BatFile::from_bytes(bytes.to_vec()).expect("open block")
}

fn open_range(bytes: &[u8]) -> BatFile {
    BatFile::from_source(Arc::new(MemorySource::new(bytes.to_vec()))).expect("open range")
}

#[test]
fn indexed_files_carry_a_directory() {
    let bat = build(20_000, 7);
    let bytes = write_bat_indexed(&bat, Codec::V1, &IndexSpec::All);
    let head = format::read_head(&bytes).unwrap();
    assert_eq!(head.indexes.len(), 2, "both attributes indexed");
    for (a, e) in head.indexes.iter().enumerate() {
        assert_eq!(e.attr as usize, a);
        assert_eq!(e.entries, head.num_particles);
        assert!(e.offset >= head.head_end);
        assert!(e.offset as usize + e.len as usize <= bytes.len());
    }
    // Named spec indexes only the named column.
    let named = write_bat_indexed(&bat, Codec::V1, &IndexSpec::Named(vec!["speed".into()]));
    let head = format::read_head(&named).unwrap();
    assert_eq!(head.indexes.len(), 1);
    assert_eq!(head.indexes[0].attr, 1);
}

#[test]
fn strategies_and_backings_are_result_identical() {
    let bat = build(30_000, 11);
    let plain = format::write_bat_with(&bat, Codec::V1);
    let q = rare_query();
    let reference = result_fnv(&open_block(&plain), &q);
    assert_ne!(reference, fnv1a(&[]), "query must match something");

    for codec in [Codec::V1, Codec::V2Lossless] {
        let bytes = write_bat_indexed(&bat, codec, &IndexSpec::All);
        for strategy in ["scan", "bitmap", "index", "auto"] {
            let env = force_strategy(strategy);
            let block = result_fnv(&open_block(&bytes), &q);
            let range = result_fnv(&open_range(&bytes), &q);
            drop(env);
            assert_eq!(block, reference, "block backing, {codec:?}, {strategy}");
            assert_eq!(range, reference, "range backing, {codec:?}, {strategy}");
        }
    }
}

#[test]
fn index_plan_culls_treelets_the_bitmap_keeps() {
    let bat = build(30_000, 11);
    let bytes = write_bat_indexed(&bat, Codec::V1, &IndexSpec::All);
    let q = rare_query();

    // The same bytes opened once per strategy.
    let open_forced = |strategy: &str| {
        let _env = force_strategy(strategy);
        open_block(&bytes)
    };
    let bitmap_plan = open_forced("bitmap").plan(&q).unwrap();
    let file = open_forced("index");
    let index_plan = file.plan(&q).unwrap();

    assert_eq!(bitmap_plan.strategy, PlanStrategy::Bitmap);
    assert_eq!(index_plan.strategy, PlanStrategy::Index);
    let sel = index_plan.index_selectivity.expect("rank search ran");
    assert!(sel > 0.0 && sel < 0.1, "planted predicate is rare: {sel}");
    // Exact culling must at least halve what the bins keep — in treelets
    // planned and in bytes crossing the wire (index pages included).
    let fetched = |strategy: &str| {
        let _env = force_strategy(strategy);
        let file = open_range(&bytes);
        assert!(file.count(&q).unwrap() > 0, "planted band matches");
        file.range_stats().expect("range-backed").bytes_fetched
    };
    let (index_bytes, bitmap_bytes) = (fetched("index"), fetched("bitmap"));
    let (index_treelets, bitmap_treelets) = (index_plan.num_treelets(), bitmap_plan.num_treelets());
    assert!(
        2 * index_treelets <= bitmap_treelets && 2 * index_bytes <= bitmap_bytes,
        "index plan must be <= 0.5x the bitmap plan: treelets {index_treelets} vs \
         {bitmap_treelets}, fetched bytes {index_bytes} vs {bitmap_bytes}"
    );

    // A predicate outside every stored key is proven empty by rank search.
    let mut none = Query::new();
    none.filters.push(AttrFilter {
        attr: 0,
        lo: 1.0e6,
        hi: 2.0e6,
    });
    let empty = file.plan(&none).unwrap();
    assert!(empty.is_empty());
}

#[test]
fn auto_strategy_stays_on_bitmap_for_dense_predicates() {
    let bat = build(20_000, 3);
    let bytes = write_bat_indexed(&bat, Codec::V1, &IndexSpec::All);
    // Matches essentially every particle: auto must not pay the payload
    // pull for this. Pin `auto` explicitly — CI matrix runs force `index`
    // process-wide.
    let mut q = Query::new();
    q.filters.push(AttrFilter {
        attr: 0,
        lo: -1.0,
        hi: 1.0e9,
    });
    let env = force_strategy("auto");
    let file = open_block(&bytes);
    drop(env);
    let plan = file.plan(&q).unwrap();
    assert_eq!(plan.strategy, PlanStrategy::Bitmap);
    assert!(plan.index_selectivity.expect("rank search ran") > 0.5);
}

/// Every truncation of the index region must either fail typed at open or
/// open cleanly and serve bitmap-identical results with the index ignored.
#[test]
fn truncation_sweep_never_panics_and_keeps_serving() {
    let bat = build(8_000, 5);
    let plain = format::write_bat_with(&bat, Codec::V1);
    let q = rare_query();
    let reference = result_fnv(&open_block(&plain), &q);

    let bytes = write_bat_indexed(&bat, Codec::V1, &IndexSpec::All);
    let head = format::read_head(&bytes).unwrap();
    let index_start = head.indexes.iter().map(|e| e.offset).min().unwrap() as usize;

    // Cut points across both blobs, plus the exact blob boundaries.
    let mut cuts: Vec<usize> = (index_start..bytes.len()).step_by(977).collect();
    for e in &head.indexes {
        cuts.push(e.offset as usize);
        cuts.push((e.offset + e.len) as usize - 1);
    }
    let _env = force_strategy("index");
    for cut in cuts {
        let truncated = bytes[..cut].to_vec();
        // A typed rejection is fine; a panic is not.
        if let Ok(file) = BatFile::from_bytes(truncated) {
            assert_eq!(result_fnv(&file, &q), reference, "cut at {cut}");
        }
    }
}

/// Bit flips in the directory must reject it wholesale (file still serves,
/// index ignored) and bit flips in a blob header must degrade at search
/// time — both result-identical, neither a panic.
#[test]
fn flipped_directory_and_node_counts_degrade_typed() {
    let bat = build(8_000, 5);
    let q = rare_query();
    let bytes = write_bat_indexed(&bat, Codec::V1, &IndexSpec::All);
    let head = format::read_head(&bytes).unwrap();
    let reference = result_fnv(&open_block(&bytes), &q);
    let dir_start = head.head_end as usize - (8 + head.indexes.len() * 28);

    let _env = force_strategy("index");
    // Flip every byte of the directory, one at a time.
    for pos in dir_start..head.head_end as usize {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0xA5;
        if let Ok(file) = BatFile::from_bytes(corrupt) {
            assert_eq!(result_fnv(&file, &q), reference, "dir flip at {pos}");
        }
    }
    // Flip the entry count inside each blob header (offset 8 in the blob):
    // the searcher must reject it against the directory and the planner
    // falls back to the bitmap plan.
    for e in &head.indexes {
        let mut corrupt = bytes.clone();
        corrupt[e.offset as usize + 8] ^= 0xFF;
        let file = BatFile::from_bytes(corrupt).expect("head is intact");
        let plan = file.plan(&q).unwrap();
        if e.attr == 0 {
            // The query filters attr 0, so its corrupt blob is opened,
            // rejected, and the planner falls back.
            assert_eq!(plan.strategy, PlanStrategy::Bitmap, "fell back");
        }
        assert_eq!(result_fnv(&file, &q), reference);
    }
}

/// A stored payload at or above the particle count is a typed corruption:
/// the payload pull fails, the planner falls back, results are unchanged.
#[test]
fn out_of_range_payload_degrades_typed() {
    let bat = build(8_000, 5);
    let q = rare_query();
    let bytes = write_bat_indexed(&bat, Codec::V1, &IndexSpec::All);
    let head = format::read_head(&bytes).unwrap();
    let reference = result_fnv(&open_block(&bytes), &q);

    let e = head.index_for(0).expect("energy is indexed");
    let geo = bat_index::IndexGeometry::with_defaults(e.entries);
    let mut corrupt = bytes.clone();
    // Overwrite every leaf payload with u32::MAX so any rank range the
    // query lands on trips the payload-limit check.
    for rank in 0..e.entries as usize {
        let off = e.offset as usize + geo.leaf_offset() as usize + rank * 12 + 8;
        corrupt[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    }
    let env = force_strategy("index");
    let file = BatFile::from_bytes(corrupt).expect("head is intact");
    drop(env);
    let plan = file.plan(&q).unwrap();
    assert_eq!(
        plan.strategy,
        PlanStrategy::Bitmap,
        "payload pull fell back"
    );
    assert_eq!(result_fnv(&file, &q), reference);
}
