//! Fault-injection matrix for the range read path (DESIGN.md §13).
//!
//! Each test points the dataset at the in-process object-store simulator,
//! arms one failpoint on the GET path (`store.get` errors, `store.get.torn`
//! truncated bodies), and asserts the retry contract:
//!
//! 1. **Transient faults heal** — one failed/torn GET is retried with
//!    backoff, the query succeeds, and the result bytes are identical to
//!    the local mmap reference. The retry is visible in `range.retries`.
//! 2. **Persistent faults surface as typed errors after bounded attempts**
//!    — never a panic, never an unbounded retry loop, and never a garbage
//!    particle delivered to the callback.
//!
//! These extend the crash-consistency matrix to the read side.

mod common;

use bat_faults::FaultAction;
use bat_geom::{Aabb, Vec3};
use bat_iosim::{ObjectStore, ObjectStoreConfig};
use bat_layout::Query;
use common::{build_test_dataset, BuildOpts, ScratchDir, Workload};
use libbat::{Dataset, ReadBackend};

/// The fault registry is process-global, so the matrix runs serialized;
/// it is reset on acquire and on drop, so a failed test never leaks faults
/// into the next one.
fn faults() -> common::Serial {
    common::serial_resetting(bat_faults::reset)
}

/// Each test's own dataset (the faults are injected in the store, not on
/// disk, so the files never change); it is removed when the test ends.
fn dataset() -> ScratchDir {
    build_test_dataset(
        &Workload::Uniform {
            per_rank: 1_500,
            seed: 11,
        },
        &BuildOpts {
            tag: "range-faults",
            ..BuildOpts::default()
        },
    )
}

fn query() -> Query {
    Query::new()
        .with_bounds(Aabb::new(Vec3::ZERO, Vec3::splat(0.8)))
        .with_filter(0, 0.2, 1.8)
}

/// `(count, positions-checksum)` of the query against the local mmap
/// reference — the ground truth every healed read must reproduce.
fn reference(dir: &ScratchDir) -> (u64, Vec<(u64, u32)>) {
    let ds = Dataset::open(&dir.path, "s").unwrap();
    ds.set_backend(ReadBackend::Mmap);
    ds.set_cache(None);
    collect(&ds).expect("mmap reference read")
}

fn collect(ds: &Dataset) -> std::io::Result<(u64, Vec<(u64, u32)>)> {
    let mut pts = Vec::new();
    let stats = ds.query(&query(), |p| {
        pts.push((p.index, p.position.x.to_bits()));
    })?;
    Ok((stats.points_returned, pts))
}

/// A fresh dataset handle over the simulated store, cache detached so every
/// read goes through the GET path.
fn sim_dataset(dir: &ScratchDir) -> (Dataset, std::sync::Arc<ObjectStore>) {
    let store = ObjectStore::new(ObjectStoreConfig::default());
    let ds = Dataset::open(&dir.path, "s").unwrap();
    ds.set_backend(ReadBackend::RangeSim(store.clone()));
    ds.set_cache(None);
    (ds, store)
}

fn total_retries(ds: &Dataset) -> u64 {
    (0..ds.num_files() as u32)
        .filter_map(|leaf| ds.file(leaf).ok())
        .filter_map(|f| f.range_stats())
        .map(|s| s.retries)
        .sum()
}

#[test]
fn transient_get_error_is_retried_and_heals() {
    let dir = dataset();
    let expect = reference(&dir);
    let _guard = faults();
    // The very first GET (the head-prefix fetch of the first leaf opened)
    // fails once; every subsequent request succeeds.
    bat_faults::configure_site("store.get", FaultAction::Error, Some(1), None, None, None);
    let (ds, store) = sim_dataset(&dir);
    let got = collect(&ds).expect("query heals after one retry");
    assert_eq!(got, expect, "healed read diverged from mmap reference");
    assert!(
        total_retries(&ds) >= 1,
        "the failed GET must be counted in range.retries"
    );
    assert!(
        store.stats().requests > 1,
        "the retry must show up as an extra store request"
    );
}

#[test]
fn persistent_get_error_is_typed_and_bounded() {
    let dir = dataset();
    let _guard = faults();
    // Every GET fails: the read must give up after the configured retry
    // budget with a typed error naming the fault — not panic, not loop.
    bat_faults::configure_site("store.get", FaultAction::Error, None, None, None, None);
    let (ds, _store) = sim_dataset(&dir);
    let mut delivered = 0u64;
    let err = ds
        .query(&query(), |_| delivered += 1)
        .expect_err("a dead store must be a typed error");
    let msg = err.to_string();
    assert!(
        msg.contains("injected fault at store.get"),
        "error should name the failing site: {msg}"
    );
    assert_eq!(delivered, 0, "no points may be served from a dead store");
    // Bounded attempts: the head fetch of the first leaf is 1 + retries
    // attempts; allow generous slack for a second head request and a
    // coalesced fetch, but rule out anything resembling an unbounded loop.
    let attempts = bat_faults::hits("store.get");
    assert!(
        (1..=64).contains(&attempts),
        "expected a small bounded number of attempts, saw {attempts}"
    );
}

#[test]
fn torn_get_response_is_detected_and_retried() {
    let dir = dataset();
    let expect = reference(&dir);
    let _guard = faults();
    // The first GET returns only 64 bytes of the requested page. The
    // reader's exact-length check must catch the truncation (there is no
    // other signal: the store returned `Ok`), retry, and heal.
    bat_faults::configure_site(
        "store.get.torn",
        FaultAction::Torn(64),
        Some(1),
        None,
        None,
        None,
    );
    let (ds, _store) = sim_dataset(&dir);
    let got = collect(&ds).expect("query heals after retrying the torn GET");
    assert_eq!(got, expect, "healed read diverged from mmap reference");
    assert!(
        total_retries(&ds) >= 1,
        "the torn response must be counted in range.retries"
    );
}

#[test]
fn persistently_torn_responses_never_serve_garbage() {
    let dir = dataset();
    let _guard = faults();
    // Every GET body is truncated to 64 bytes. The length check fires on
    // every attempt; after the retry budget the read errs with the torn
    // diagnostic and the callback has never seen a fabricated particle.
    bat_faults::configure_site(
        "store.get.torn",
        FaultAction::Torn(64),
        None,
        None,
        None,
        None,
    );
    let (ds, _store) = sim_dataset(&dir);
    let mut delivered = 0u64;
    let err = ds
        .query(&query(), |_| delivered += 1)
        .expect_err("persistently torn responses must be a typed error");
    let msg = err.to_string();
    assert!(
        msg.contains("torn range response"),
        "error should carry the torn diagnostic: {msg}"
    );
    assert_eq!(delivered, 0, "no garbage points may reach the callback");
}
