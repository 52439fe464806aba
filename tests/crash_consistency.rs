//! The crash-consistency failpoint matrix (DESIGN.md §11).
//!
//! Each test kills or corrupts the write pipeline at one registered fault
//! site and asserts the two invariants the commit protocol guarantees:
//!
//! 1. **No rank ever panics or hangs** — the faulted rank returns an
//!    error, and every survivor observes the failure through its bounded
//!    collectives and errs cleanly.
//! 2. **The dataset on disk is all-or-nothing** — either `.batmeta`
//!    committed and the dataset verifies clean and fully readable, or the
//!    commit never happened and verification reports exactly that.

mod common;

use bat_comm::Cluster;
use bat_faults::FaultAction;
use bat_geom::Aabb;
use bat_layout::Query;
use bat_workloads::{uniform, RankGrid};
use common::ScratchDir;
use libbat::write::{write_particles, WriteConfig, WriteReport};
use libbat::{verify_dataset, CommitState, Dataset};
use std::io;
use std::time::Duration;

/// The fault registry is process-global, so the matrix runs serialized;
/// it is reset on acquire and on drop, so a failed test never leaks faults
/// into the next one.
fn faults() -> common::Serial {
    common::serial_resetting(bat_faults::reset)
}

const RANKS: usize = 4;
const PER_RANK: u64 = 1_500;
const TOTAL: u64 = RANKS as u64 * PER_RANK;

/// Run a collective write with a 10 s receive deadline on every rank (so a
/// test failure surfaces as `Err`, never a hung test binary) and return
/// the per-rank results.
fn run_write(dir: &std::path::Path, basename: &str) -> Vec<io::Result<WriteReport>> {
    let grid = RankGrid::new_3d(RANKS, Aabb::unit());
    let dir = dir.to_path_buf();
    let basename = basename.to_string();
    Cluster::run(RANKS, move |comm| {
        let comm = comm.with_timeout(Some(Duration::from_secs(10)));
        let set = uniform::generate_rank(&grid, comm.rank(), PER_RANK, 11);
        // Small target size => several leaf files and several aggregators.
        let cfg = WriteConfig::with_target_size(60_000, set.bytes_per_particle() as u64);
        write_particles(
            &comm,
            set,
            grid.bounds_of(comm.rank()),
            &cfg,
            &dir,
            &basename,
        )
    })
}

fn assert_all_err(results: &[io::Result<WriteReport>]) {
    for (rank, r) in results.iter().enumerate() {
        assert!(r.is_err(), "rank {rank} must err, got {r:?}");
    }
}

fn assert_all_ok(results: &[io::Result<WriteReport>]) {
    for (rank, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "rank {rank} must succeed, got {r:?}");
    }
}

/// The scratch dir must hold no `*.tmp` stragglers from a failed write
/// (torn metadata deliberately keeps its tmp — pass `allow_meta_tmp`).
fn assert_no_tmp(dir: &std::path::Path, allow_meta_tmp: bool) {
    for entry in std::fs::read_dir(dir).expect("scratch dir readable") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().into_owned();
        if name.ends_with(".tmp") && !(allow_meta_tmp && name.contains(".batmeta")) {
            panic!("stray tmp file after failed write: {name}");
        }
    }
}

fn assert_uncommitted(dir: &std::path::Path, basename: &str) {
    let report = verify_dataset(dir, basename).expect("verify runs");
    assert_eq!(report.commit, CommitState::NotCommitted, "{report:?}");
    assert!(Dataset::open(dir, basename).is_err());
    assert!(Dataset::open_degraded(dir, basename).is_err());
}

#[test]
fn baseline_write_commits_and_verifies_clean() {
    let _guard = faults();
    let scratch = ScratchDir::new("cc-baseline");
    let results = run_write(&scratch.path, "ts");
    assert_all_ok(&results);
    let report = verify_dataset(&scratch.path, "ts").expect("verify runs");
    assert_eq!(report.commit, CommitState::Committed);
    assert!(report.is_clean(), "{report:?}");
    assert!(report.leaves.len() >= 2, "want a multi-file dataset");
    assert_no_tmp(&scratch.path, false);
    let ds = Dataset::open(&scratch.path, "ts").expect("opens");
    assert_eq!(ds.num_particles(), TOTAL);
}

#[test]
fn torn_leaf_write_aborts_every_rank_and_commits_nothing() {
    let _guard = faults();
    let scratch = ScratchDir::new("cc-torn-leaf");
    bat_faults::configure_site(
        "write.leaf",
        FaultAction::Torn(4096),
        Some(1),
        None,
        None,
        None,
    );
    let results = run_write(&scratch.path, "ts");
    assert_all_err(&results);
    assert!(
        bat_faults::hits("write.leaf") >= 1,
        "failpoint never reached"
    );
    assert_uncommitted(&scratch.path, "ts");
    assert_no_tmp(&scratch.path, false);
}

#[test]
fn leaf_write_error_aborts_every_rank() {
    let _guard = faults();
    let scratch = ScratchDir::new("cc-leaf-err");
    bat_faults::configure_site("write.leaf", FaultAction::Error, Some(1), None, None, None);
    let results = run_write(&scratch.path, "ts");
    assert_all_err(&results);
    assert_uncommitted(&scratch.path, "ts");
}

#[test]
fn leaf_fsync_failure_aborts_every_rank() {
    let _guard = faults();
    let scratch = ScratchDir::new("cc-leaf-sync");
    bat_faults::configure_site(
        "write.leaf.sync",
        FaultAction::Error,
        Some(1),
        None,
        None,
        None,
    );
    let results = run_write(&scratch.path, "ts");
    assert_all_err(&results);
    assert_uncommitted(&scratch.path, "ts");
    assert_no_tmp(&scratch.path, false);
}

#[test]
fn torn_layout_stream_is_a_leaf_error() {
    let _guard = faults();
    let scratch = ScratchDir::new("cc-layout-torn");
    bat_faults::configure_site(
        "layout.write",
        FaultAction::Torn(256),
        Some(1),
        None,
        None,
        None,
    );
    let results = run_write(&scratch.path, "ts");
    assert_all_err(&results);
    assert_uncommitted(&scratch.path, "ts");
    assert_no_tmp(&scratch.path, false);
}

#[test]
fn torn_metadata_write_leaves_dataset_uncommitted() {
    let _guard = faults();
    let scratch = ScratchDir::new("cc-torn-meta");
    bat_faults::configure_site("write.meta", FaultAction::Torn(64), None, None, None, None);
    let results = run_write(&scratch.path, "ts");
    assert_all_err(&results);
    // The torn prefix lives only in the `.tmp` sibling; no reader sees it.
    assert_uncommitted(&scratch.path, "ts");
    assert_no_tmp(&scratch.path, true);
}

#[test]
fn kill_before_meta_rename_reads_as_uncommitted() {
    let _guard = faults();
    let scratch = ScratchDir::new("cc-kill-pre");
    bat_faults::configure_site(
        "write.meta.rename.before",
        FaultAction::Kill,
        None,
        None,
        None,
        None,
    );
    let results = run_write(&scratch.path, "ts");
    // Rank 0 died at the commit point; survivors err in their bounded
    // trailing collectives. The dataset never committed — the durable
    // metadata tmp is invisible to every reader.
    assert_all_err(&results);
    assert_uncommitted(&scratch.path, "ts");
}

#[test]
fn kill_after_meta_rename_commits_a_fully_readable_dataset() {
    let _guard = faults();
    let scratch = ScratchDir::new("cc-kill-post");
    bat_faults::configure_site(
        "write.meta.rename.after",
        FaultAction::Kill,
        None,
        None,
        None,
        None,
    );
    let results = run_write(&scratch.path, "ts");
    // The crash happened *after* the commit point: every rank still errs
    // (the collective never finished) but the bytes on disk are a
    // complete, durable dataset.
    assert_all_err(&results);
    let report = verify_dataset(&scratch.path, "ts").expect("verify runs");
    assert_eq!(report.commit, CommitState::Committed);
    assert!(report.is_clean(), "{report:?}");
    let ds = Dataset::open(&scratch.path, "ts").expect("committed dataset opens");
    assert_eq!(ds.num_particles(), TOTAL);
    assert_eq!(ds.count(&Query::new()).expect("full query"), TOTAL);
}

#[test]
fn dead_aggregator_mid_shuffle_errs_every_survivor() {
    let _guard = faults();
    let scratch = ScratchDir::new("cc-dead-agg");
    // The first aggregator to enter the shuffle dies. Survivors observe
    // the death through dead-rank detection in their bounded receives and
    // collectives — within the deadline, never hanging.
    bat_faults::configure_site(
        "write.shuffle.recv",
        FaultAction::Kill,
        Some(1),
        None,
        None,
        None,
    );
    let started = std::time::Instant::now();
    let results = run_write(&scratch.path, "ts");
    assert_all_err(&results);
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "survivors must err within the deadline, took {:?}",
        started.elapsed()
    );
    assert_uncommitted(&scratch.path, "ts");
}

#[test]
fn transient_send_failure_retries_and_commits_clean() {
    let _guard = faults();
    let scratch = ScratchDir::new("cc-retry");
    bat_faults::configure_site(
        "write.shuffle.send",
        FaultAction::Error,
        Some(1),
        None,
        None,
        None,
    );
    // Record the pipeline's obs counters so the retry is visible the same
    // way `batcli stats` would show it.
    let reg = std::sync::Arc::new(bat_obs::Registry::new());
    let _on = bat_obs::enable();
    let _scope = bat_obs::scope(reg.clone());
    let results = run_write(&scratch.path, "ts");
    assert_all_ok(&results);
    assert!(reg.counter("write.retries").get() >= 1, "retry not counted");
    assert!(reg.counter("faults.triggered").get() >= 1);
    assert!(reg.counter("commit.fsyncs").get() >= 1);
    let report = verify_dataset(&scratch.path, "ts").expect("verify runs");
    assert!(report.is_clean(), "{report:?}");
    let ds = Dataset::open(&scratch.path, "ts").expect("opens");
    assert_eq!(ds.num_particles(), TOTAL);
}

#[test]
fn exhausted_send_retries_abandon_the_write() {
    let _guard = faults();
    let scratch = ScratchDir::new("cc-retry-exhaust");
    // Every attempt fails: the sender gives up, marks itself dead, and the
    // cluster errs together.
    bat_faults::configure_site(
        "write.shuffle.send",
        FaultAction::Error,
        None,
        None,
        None,
        None,
    );
    let results = run_write(&scratch.path, "ts");
    assert_all_err(&results);
    assert_uncommitted(&scratch.path, "ts");
}

#[test]
fn killed_shuffle_sender_abandons_the_write() {
    let _guard = faults();
    let scratch = ScratchDir::new("cc-shuffle-kill");
    // A kill is a crash, not a transient: rank 1 dies at its first shuffle
    // send without retrying, and the survivors observe the death through
    // their bounded receives.
    bat_faults::configure("write.shuffle.send=kill@rank=1").expect("fault spec");
    let reg = std::sync::Arc::new(bat_obs::Registry::new());
    let _on = bat_obs::enable();
    let _scope = bat_obs::scope(reg.clone());
    let started = std::time::Instant::now();
    let results = run_write(&scratch.path, "ts");
    assert_all_err(&results);
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "survivors must err within the deadline, took {:?}",
        started.elapsed()
    );
    assert!(reg.counter("faults.triggered").get() >= 1, "never killed");
    assert_eq!(
        reg.counter("write.retries").get(),
        0,
        "a kill must not retry"
    );
    assert_uncommitted(&scratch.path, "ts");
}

#[test]
fn lost_message_surfaces_as_timeout_not_hang() {
    let _guard = faults();
    let scratch = ScratchDir::new("cc-lost-msg");
    // `comm.send` drops one message silently (a lost packet, below the
    // retry layer). The receiver's deadline is the only thing that can
    // catch this; the write must err within it on every rank.
    bat_faults::configure_site("comm.send", FaultAction::Error, Some(3), None, None, None);
    let grid = RankGrid::new_3d(RANKS, Aabb::unit());
    let dir = scratch.path.clone();
    let results = Cluster::run(RANKS, move |comm| {
        let comm = comm.with_timeout(Some(Duration::from_millis(500)));
        let set = uniform::generate_rank(&grid, comm.rank(), 500, 13);
        let cfg = WriteConfig::with_target_size(60_000, set.bytes_per_particle() as u64);
        write_particles(&comm, set, grid.bounds_of(comm.rank()), &cfg, &dir, "ts")
    });
    assert_all_err(&results);
    assert_uncommitted(&scratch.path, "ts");
}

#[test]
fn post_commit_damage_is_localized_and_degraded_open_recovers() {
    let _guard = faults();
    let scratch = ScratchDir::new("cc-degraded");
    let results = run_write(&scratch.path, "ts");
    assert_all_ok(&results);
    let clean = verify_dataset(&scratch.path, "ts").expect("verify runs");
    assert!(clean.is_clean());
    assert!(
        clean.leaves.len() >= 2,
        "need several leaves to degrade one"
    );

    // Bit-rot one byte in the middle of leaf 0 (length unchanged).
    let victim = scratch.path.join(&clean.leaves[0].file);
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, bytes).unwrap();

    let report = verify_dataset(&scratch.path, "ts").expect("verify runs");
    assert_eq!(report.commit, CommitState::Committed);
    assert!(!report.is_clean());
    let damaged: Vec<_> = report.damaged().collect();
    assert_eq!(damaged.len(), 1, "damage must be localized: {report:?}");
    assert_eq!(damaged[0].file, clean.leaves[0].file);

    // The degraded open serves everything outside the damaged leaf.
    let (ds, _) = Dataset::open_degraded(&scratch.path, "ts").expect("degraded open");
    assert_eq!(ds.excluded_leaves().len(), 1);
    let served = ds.count(&Query::new()).expect("query runs");
    assert!(served < TOTAL, "damaged leaf must be excluded");
    assert!(served > 0, "intact leaves must still serve");
}

#[test]
fn faults_compiled_but_idle_write_identical_bytes() {
    let _guard = faults();
    // With the feature compiled in but nothing configured, two writes of
    // the same data must be byte-identical (and identical to what the
    // no-feature build writes — the golden hashes in bat-layout pin that).
    let triggered_before = bat_faults::triggered_total();
    let a = ScratchDir::new("cc-idle-a");
    let b = ScratchDir::new("cc-idle-b");
    assert_all_ok(&run_write(&a.path, "ts"));
    assert_all_ok(&run_write(&b.path, "ts"));
    let report = verify_dataset(&a.path, "ts").expect("verify runs");
    assert!(report.is_clean());
    for leaf in &report.leaves {
        let ba = std::fs::read(a.path.join(&leaf.file)).unwrap();
        let bb = std::fs::read(b.path.join(&leaf.file)).unwrap();
        assert_eq!(ba, bb, "leaf {} bytes differ across runs", leaf.file);
    }
    assert_eq!(
        bat_faults::triggered_total(),
        triggered_before,
        "no fault may fire when none is configured"
    );
}
