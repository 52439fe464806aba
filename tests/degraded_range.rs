//! Degraded open (DESIGN.md §9) over the range-request read backends
//! (§13): a dataset with one bit-rotted leaf must open degraded and serve
//! the identical surviving stream whether its bytes come from local mmap,
//! positioned range reads against the file, or range GETs against the
//! object-store simulator — with every skipped leaf counted.

mod common;

use bat_iosim::{ObjectStore, ObjectStoreConfig};
use common::{build_test_dataset, query_mix, BuildOpts, Digest, Workload};
use libbat::{verify_dataset, Dataset, ReadBackend};

/// Every query of the mix through `Dataset::query`.
fn digests(ds: &Dataset) -> Vec<Digest> {
    let mix = query_mix(ds);
    mix.iter().map(|q| common::direct(ds, q).unwrap()).collect()
}

#[test]
fn degraded_open_serves_identically_on_range_backends() {
    let scratch = build_test_dataset(
        &Workload::Uniform {
            per_rank: 2000,
            seed: 13,
        },
        &BuildOpts {
            tag: "degr-range",
            target_file_bytes: 30_000,
            ..Default::default()
        },
    );

    // Bit-rot one byte mid-payload in leaf 0, post-commit: length intact,
    // CRC broken.
    let clean = verify_dataset(&scratch.path, "s").expect("verify runs");
    assert!(clean.is_clean());
    assert!(
        clean.leaves.len() >= 3,
        "need several leaves to degrade one"
    );
    let victim = scratch.path.join(&clean.leaves[0].file);
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, bytes).unwrap();

    // Reference: the degraded stream over mmap, with skips counted.
    let reg = std::sync::Arc::new(bat_obs::Registry::new());
    let _on = bat_obs::enable();
    let reference = {
        let _scope = bat_obs::scope(reg.clone());
        let (ds, report) = Dataset::open_degraded(&scratch.path, "s").expect("degraded open");
        assert!(!report.is_clean());
        assert_eq!(ds.excluded_leaves().len(), 1);
        ds.set_backend(ReadBackend::Mmap);
        digests(&ds)
    };
    let mmap_skips = reg.counter("read.degraded_skips").get();
    assert!(
        mmap_skips >= 1,
        "the full query must skip the excluded leaf"
    );
    assert!(reference[0].points > 0, "surviving leaves must still serve");

    // The same degraded dataset behind each range backend: identical
    // streams, skips counted identically.
    let backends: Vec<(&str, ReadBackend)> = vec![
        ("range-file", ReadBackend::RangeFile),
        (
            "range-sim",
            ReadBackend::RangeSim(ObjectStore::new(ObjectStoreConfig::default())),
        ),
    ];
    for (name, backend) in backends {
        let reg = std::sync::Arc::new(bat_obs::Registry::new());
        let _scope = bat_obs::scope(reg.clone());
        let (ds, _) = Dataset::open_degraded(&scratch.path, "s").expect("degraded open");
        assert_eq!(ds.excluded_leaves().len(), 1, "{name}: exclusions differ");
        ds.set_backend(backend);
        assert_eq!(
            digests(&ds),
            reference,
            "{name}: degraded stream differs from mmap reference"
        );
        assert_eq!(
            reg.counter("read.degraded_skips").get(),
            mmap_skips,
            "{name}: degraded skips not counted identically"
        );
    }
}
