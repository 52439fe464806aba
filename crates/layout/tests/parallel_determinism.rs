//! The determinism invariant of the parallel execution engine (DESIGN.md
//! §10, ISSUE 3 acceptance): `BatBuilder::build` must produce *the same
//! compacted bytes* for every pool size. The tests compare the FNV-1a of
//! the full `write_bat` output across pools of 1, 2, and 8 threads, over
//! randomized particle sets and the structural edge cases (`n == 0`, one
//! particle, a single-leaf cluster, and sets large enough to cross every
//! kernel's sequential cutoff).

mod common;

use bat_geom::rng::Xoshiro256;
use bat_geom::{Aabb, Vec3};
use bat_layout::{AttributeDesc, BatBuilder, BatConfig, ParticleSet};
use common::fnv1a;
use proptest::prelude::*;

const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// Hash of the compacted build output with the pool pinned to `threads`.
///
/// Tests in this binary run concurrently and repin the shared pool; that
/// is fine — byte-equality must hold *whatever* the pool size is while a
/// build runs, which is exactly the property under test.
fn build_hash(set: &ParticleSet, domain: Aabb, threads: usize) -> u64 {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .unwrap();
    let bat = BatBuilder::new(BatConfig::default()).build(set.clone(), domain);
    fnv1a(&bat.to_bytes())
}

fn assert_pool_size_invariant(set: &ParticleSet, domain: Aabb, what: &str) {
    let hashes: Vec<u64> = POOL_SIZES
        .iter()
        .map(|&t| build_hash(set, domain, t))
        .collect();
    assert!(
        hashes.iter().all(|&h| h == hashes[0]),
        "{what}: BAT bytes depend on pool size: {hashes:x?} for pools {POOL_SIZES:?}"
    );
}

fn random_set(n: usize, seed: u64) -> ParticleSet {
    let mut rng = Xoshiro256::new(seed);
    let mut set = ParticleSet::new(vec![
        AttributeDesc::f64("mass"),
        AttributeDesc::f32("temp"),
        AttributeDesc::f64("vx"),
    ]);
    for _ in 0..n {
        let p = Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32());
        set.push(
            p,
            &[p.x as f64 * 10.0, p.y as f64 * 100.0, rng.next_f32() as f64],
        );
    }
    set
}

#[test]
fn empty_set() {
    assert_pool_size_invariant(&random_set(0, 1), Aabb::unit(), "n=0");
}

#[test]
fn single_particle() {
    assert_pool_size_invariant(&random_set(1, 2), Aabb::unit(), "n=1");
}

#[test]
fn single_leaf_cluster() {
    // Particles packed into one Morton cell → one shallow leaf, one
    // treelet: the degenerate shallow tree plus heavily duplicated code
    // prefixes (only low Morton bytes vary — the radix kernel's
    // constant-byte skip path).
    let mut rng = Xoshiro256::new(3);
    let mut set = ParticleSet::new(vec![AttributeDesc::f64("m")]);
    for _ in 0..30_000 {
        set.push(
            Vec3::new(
                0.5 + rng.next_f32() * 1e-4,
                0.5 + rng.next_f32() * 1e-4,
                0.5 + rng.next_f32() * 1e-4,
            ),
            &[rng.next_f32() as f64],
        );
    }
    let bat = BatBuilder::new(BatConfig::default()).build(set.clone(), Aabb::unit());
    assert!(bat.treelets.len() <= 8, "cluster should stay in few leaves");
    assert_pool_size_invariant(&set, Aabb::unit(), "single-leaf cluster");
}

#[test]
fn large_uniform_set_crosses_parallel_cutoffs() {
    // 60k particles clears every sequential cutoff (the radix kernel's
    // 16k, the merge sort's 4k, the collect chunking), so the 2- and
    // 8-thread builds genuinely run the parallel code paths.
    assert_pool_size_invariant(&random_set(60_000, 4), Aabb::unit(), "n=60k uniform");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn randomized_sets_are_pool_size_invariant(
        points in prop::collection::vec(
            ((0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0), -5.0f64..5.0, 0.0f64..700.0),
            0..300,
        ),
    ) {
        let mut set = ParticleSet::new(vec![
            AttributeDesc::f64("mass"),
            AttributeDesc::f32("temp"),
        ]);
        for &((x, y, z), m, t) in &points {
            set.push(Vec3::new(x, y, z), &[m, t]);
        }
        let domain = Aabb::unit();
        let hashes: Vec<u64> = POOL_SIZES
            .iter()
            .map(|&t| build_hash(&set, domain, t))
            .collect();
        prop_assert!(
            hashes.iter().all(|&h| h == hashes[0]),
            "BAT bytes depend on pool size for n={}: {:x?}",
            set.len(),
            hashes
        );
    }
}
