//! Byte-identity matrix for the reader backends (DESIGN.md §13).
//!
//! Every query in the serving mix must produce FNV-identical result bytes
//! no matter how the leaf files' bytes are reached — local mmap, an owned
//! buffer, positioned range reads against the file, or range GETs against
//! the in-process object-store simulator — and no matter the treelet cache
//! configuration (off, ample, or a one-page thrashing budget). The range
//! backends must also actually behave like range backends: issue requests,
//! coalesce them, and serve repeats from the cache.

mod common;

use bat_geom::{Aabb, Vec3};
use bat_iosim::{ObjectStore, ObjectStoreConfig};
use bat_layout::{PageCache, Query};
use common::{build_cosmology_dataset, build_test_dataset, fnv1a, BuildOpts, Workload};
use libbat::{Dataset, ReadBackend};
use std::sync::Arc;

/// The serving query mix: bulk full read, spatial+attribute filtered read,
/// low-quality interactive read.
fn query_mix() -> Vec<Query> {
    vec![
        Query::new(),
        Query::new()
            .with_bounds(Aabb::new(Vec3::ZERO, Vec3::splat(0.5)))
            .with_filter(0, 0.6, 1.4),
        Query::new().with_quality(0.3),
    ]
}

/// FNV-1a over a query's full result stream in arrival order: index,
/// position bits, every attribute's bits.
fn query_fnv(ds: &Dataset, q: &Query) -> u64 {
    let mut bytes: Vec<u8> = Vec::new();
    ds.query(q, |p| {
        bytes.extend_from_slice(&p.index.to_le_bytes());
        bytes.extend_from_slice(&p.position.x.to_bits().to_le_bytes());
        bytes.extend_from_slice(&p.position.y.to_bits().to_le_bytes());
        bytes.extend_from_slice(&p.position.z.to_bits().to_le_bytes());
        for a in p.attrs {
            bytes.extend_from_slice(&a.to_bits().to_le_bytes());
        }
    })
    .expect("query succeeds");
    fnv1a(bytes)
}

fn backends() -> Vec<(&'static str, ReadBackend)> {
    vec![
        ("mmap", ReadBackend::Mmap),
        ("range-file", ReadBackend::RangeFile),
        (
            "range-sim",
            ReadBackend::RangeSim(ObjectStore::new(ObjectStoreConfig::default())),
        ),
    ]
}

#[test]
fn all_backends_fnv_identical_across_cache_matrix() {
    let scratch = build_test_dataset(
        &Workload::Uniform {
            per_rank: 1_500,
            seed: 11,
        },
        &BuildOpts {
            tag: "range-ident",
            ..BuildOpts::default()
        },
    );

    // Reference: mmap with the cache disabled.
    let reference: Vec<u64> = {
        let ds = Dataset::open(&scratch.path, "s").unwrap();
        ds.set_backend(ReadBackend::Mmap);
        ds.set_cache(None);
        query_mix().iter().map(|q| query_fnv(&ds, q)).collect()
    };
    assert!(reference.iter().all(|&h| h != fnv1a([])), "empty results");

    type CacheFactory = Option<fn() -> Arc<PageCache>>;
    let caches: Vec<(&str, CacheFactory)> = vec![
        ("cache-off", None),
        ("cache-8m", Some(|| PageCache::new(8 << 20))),
        ("cache-1page", Some(|| PageCache::new(4096))),
    ];
    for (bname, backend) in backends() {
        for (cname, mk_cache) in &caches {
            let ds = Dataset::open(&scratch.path, "s").unwrap();
            ds.set_backend(backend.clone());
            ds.set_cache(mk_cache.map(|mk| mk()));
            // Two passes: cold (source/store reads) and warm (cache reads
            // where one is attached) must both match the reference.
            for pass in ["cold", "warm"] {
                let got: Vec<u64> = query_mix().iter().map(|q| query_fnv(&ds, q)).collect();
                assert_eq!(
                    got, reference,
                    "{bname}/{cname}/{pass}: result bytes diverged from mmap reference"
                );
            }
        }
    }
}

#[test]
fn range_sim_issues_coalesced_requests_and_reuses_cache() {
    // Many treelets per file: the case the coalescer exists for.
    let scratch = build_cosmology_dataset("range-reqs", None);
    let store = ObjectStore::new(ObjectStoreConfig::default());
    let ds = Dataset::open(&scratch.path, "s").unwrap();
    ds.set_backend(ReadBackend::RangeSim(store.clone()));
    ds.set_cache(Some(PageCache::new(64 << 20)));

    let q = Query::new();
    let total_treelets = ds.query(&q, |_| {}).unwrap().treelets_visited;
    let cold = store.stats();
    assert!(cold.requests > 0, "range backend must issue store requests");
    // Coalescing: a naive reader issues one GET per planned treelet. With
    // treelets page-adjacent in each leaf file and the 16 KiB gap, the cold
    // read (head fetches included) must need at most half as many.
    assert!(
        2 * cold.requests <= total_treelets,
        "expected coalesced requests <= 0.5x naive: {} GETs for {} treelets",
        cold.requests,
        total_treelets
    );
    assert!(cold.sim_ns > 0 && cold.cost > 0, "accounting: {cold:?}");

    // Warm pass: everything is in the treelet cache; no new GETs.
    let warm_stats = ds.query(&q, |_| {}).unwrap();
    assert!(warm_stats.cache_hits > 0, "warm pass must hit the cache");
    assert_eq!(
        store.stats().requests,
        cold.requests,
        "warm pass must not touch the store"
    );

    // Per-file reader stats agree: prefetch staged blocks were consumed.
    let mut prefetch_hits = 0;
    let mut retries = 0;
    for leaf in 0..ds.num_files() as u32 {
        if let Some(s) = ds.file(leaf).unwrap().range_stats() {
            prefetch_hits += s.prefetch_hits;
            retries += s.retries;
        }
    }
    assert!(
        prefetch_hits > 0,
        "planned execution should consume prefetches"
    );
    assert_eq!(retries, 0, "no faults configured, so no retries");
}
