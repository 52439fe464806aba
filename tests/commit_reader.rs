//! The commit boundary (DESIGN.md §11): `.batmeta` is untrusted bytes, a
//! reader only ever serves what the committed manifest names, and the
//! trailer bytes the commit protocol writes are pinned.

mod common;

use bat_comm::Cluster;
use bat_faults::FaultAction;
use bat_geom::Aabb;
use bat_layout::Query;
use bat_obs::knobs::{self, EnvGuard};
use bat_workloads::{uniform, RankGrid};
use common::{fnv1a, ScratchDir};
use libbat::read::read_particles;
use libbat::write::{leaf_file_name, meta_file_name, write_particles, WriteConfig};
use libbat::Dataset;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

const RANKS: usize = 4;

/// Writes in this binary share the process-global fault registry and the
/// write knobs, so they run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Write `per_rank` uniform points per rank (v1 treelets, no indexes)
/// as dataset `basename` in `dir`; every rank's result.
fn write(dir: &Path, basename: &str, per_rank: u64) -> Vec<io::Result<()>> {
    let _env = EnvGuard::set(&[
        (&knobs::TREELET_CODEC, Some("v1")),
        (&knobs::INDEX_ATTRS, None),
    ]);
    let grid = RankGrid::new_3d(RANKS, Aabb::unit());
    let dir = dir.to_path_buf();
    let basename = basename.to_string();
    Cluster::run(RANKS, move |comm| {
        let comm = comm.with_timeout(Some(Duration::from_secs(10)));
        let set = uniform::generate_rank(&grid, comm.rank(), per_rank, 5);
        let cfg = WriteConfig::with_target_size(60_000, set.bytes_per_particle() as u64);
        write_particles(
            &comm,
            set,
            grid.bounds_of(comm.rank()),
            &cfg,
            &dir,
            &basename,
        )
        .map(drop)
    })
}

fn write_ok(dir: &Path, basename: &str, per_rank: u64) {
    for (rank, r) in write(dir, basename, per_rank).into_iter().enumerate() {
        r.unwrap_or_else(|e| panic!("rank {rank} write failed: {e}"));
    }
}

/// `(points, FNV-1a over every returned point's position and attributes)`
/// of a full query, in plan order.
fn full_query(ds: &Dataset) -> io::Result<(u64, u64)> {
    let mut bytes = Vec::new();
    let stats = ds.query(&Query::new(), |p| {
        for c in [p.position.x, p.position.y, p.position.z] {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        for a in p.attrs {
            bytes.extend_from_slice(&a.to_le_bytes());
        }
    })?;
    Ok((stats.points_returned, fnv1a(bytes)))
}

/// The trailing `[…][crc32c][total_len][magic]` trailer of a file.
fn trailer(bytes: &[u8]) -> &[u8] {
    let n = bytes.len();
    let total = u32::from_le_bytes(bytes[n - 8..n - 4].try_into().unwrap()) as usize;
    &bytes[n - total..]
}

/// `(length, FNV-1a)` of the committed `.batmeta` and of leaf 0's footer
/// for 4 ranks × 1 500 uniform points (seed 5, v1, no indexes). The
/// metadata tree, the commit manifest (which carries every leaf's length
/// and CRC32C) and the leaf footer all enter these; a change to any of
/// them changes the pin on purpose.
const META_PIN: (usize, u64) = (2_266, 0x29e8_b4e3_f311_c633);
const FOOTER_PIN: (usize, u64) = (140, 0x3c95_1918_6c15_946a);

#[test]
fn commit_trailer_bytes_are_pinned() {
    let _serial = serial();
    let scratch = ScratchDir::new("commit-pin");
    write_ok(&scratch.path, "p", 1_500);
    let meta = std::fs::read(scratch.path.join(meta_file_name("p"))).unwrap();
    let leaf = std::fs::read(scratch.path.join(leaf_file_name("p", 0))).unwrap();
    let footer = trailer(&leaf);
    assert_eq!((meta.len(), fnv1a(meta.iter().copied())), META_PIN);
    assert_eq!((footer.len(), fnv1a(footer.iter().copied())), FOOTER_PIN);
}

/// A re-commit that dies before its commit point has already renamed its
/// leaf files over the committed ones. The committed manifest still names
/// the old lengths, so neither a fresh open nor a handle opened before
/// the re-commit may serve the uncommitted particles.
#[test]
fn killed_recommit_never_serves_uncommitted_leaves() {
    let _serial = serial();
    let scratch = ScratchDir::new("commit-recommit");
    write_ok(&scratch.path, "r", 1_500);
    let before = Dataset::open(&scratch.path, "r").unwrap();
    assert_eq!(before.num_particles(), RANKS as u64 * 1_500);

    bat_faults::reset();
    bat_faults::configure_site(
        "write.meta.rename.before",
        FaultAction::Kill,
        None,
        None,
        None,
        None,
    );
    let results = write(&scratch.path, "r", 1_200);
    bat_faults::reset();
    assert!(results.iter().all(Result::is_err), "{results:?}");

    // The collective read opens the same leaves (one rank owns them all).
    let dir = scratch.path.clone();
    let read = Cluster::run(1, move |comm| {
        read_particles(&comm, Aabb::unit(), &dir, "r")
    });
    match &read[0] {
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "collective read: {e}"),
        Ok(set) => panic!("collective read served {} uncommitted points", set.len()),
    }

    let fresh = Dataset::open(&scratch.path, "r").expect("the old commit still opens");
    for (name, ds) in [("fresh", &fresh), ("pre-opened", &before)] {
        match full_query(ds) {
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{name}: {e}");
                assert!(e.to_string().contains("open_degraded"), "{name}: {e}");
            }
            Ok((n, _)) => panic!("{name} handle served {n} points of an uncommitted write"),
        }
    }
}

/// Every single-bit flip (bits 0, 3 and 7 of every byte) and every
/// truncation of a committed `.batmeta` is a typed error from
/// `Dataset::open` or the committed answer — never a panic, an unbounded
/// allocation or a partial result.
#[test]
fn batmeta_flips_and_truncations_are_typed_errors_or_identical() {
    let _serial = serial();
    let scratch = ScratchDir::new("commit-sweep");
    write_ok(&scratch.path, "m", 1_500);
    let path = scratch.path.join(meta_file_name("m"));
    let original = std::fs::read(&path).unwrap();
    let reference = full_query(&Dataset::open(&scratch.path, "m").unwrap()).unwrap();
    assert_eq!(reference.0, RANKS as u64 * 1_500);

    let flips = (0..original.len()).flat_map(|byte| {
        [0, 3, 7].map(|bit| {
            let mut bytes = original.clone();
            bytes[byte] ^= 1 << bit;
            bytes
        })
    });
    let cuts = (0..original.len()).map(|len| original[..len].to_vec());
    let (mut errors, mut identical, mut panics, mut partial) = (0, 0, 0, 0);
    for bytes in flips.chain(cuts) {
        std::fs::write(&path, &bytes).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Dataset::open(&scratch.path, "m").and_then(|ds| full_query(&ds))
        }));
        match outcome {
            Err(_) => panics += 1,
            Ok(Err(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                errors += 1;
            }
            Ok(Ok(got)) if got == reference => identical += 1,
            Ok(Ok(_)) => partial += 1,
        }
    }
    eprintln!(
        "{} bytes: {errors} typed errors, {identical} identical, {panics} panics, \
         {partial} partial results",
        original.len()
    );
    assert_eq!((panics, partial), (0, 0));
    assert_eq!(errors + identical, 4 * original.len());
}

/// A read aggregator that cannot open one of its leaves still runs the
/// collective read to the end: every rank errs, none waits for a reply
/// that never comes (no receive deadline is set here).
#[test]
fn collective_read_with_an_unservable_leaf_errs_on_every_rank() {
    let _serial = serial();
    let scratch = ScratchDir::new("commit-collective");
    write_ok(&scratch.path, "c", 1_500);
    let meta = libbat::verify::read_commit(&scratch.path, "c")
        .unwrap()
        .meta;
    let owners = bat_aggregation::assign::assign_read_aggregators(meta.leaves.len(), 2);
    let victim = owners
        .iter()
        .position(|&o| o == 1)
        .expect("rank 1 serves a leaf");
    std::fs::remove_file(scratch.path.join(&meta.leaves[victim].file)).unwrap();

    let dir = scratch.path.clone();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let reads = Cluster::run(2, |comm| {
            read_particles(&comm, Aabb::unit(), &dir, "c").map(|set| set.len())
        });
        tx.send(reads).ok();
    });
    let reads = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("the collective read must finish");
    for (rank, r) in reads.iter().enumerate() {
        assert!(r.is_err(), "rank {rank} must err, got {r:?}");
    }
    // The asking rank learns which leaf its owner could not serve, and why.
    let asked = reads[0].as_ref().unwrap_err().to_string();
    let file = &meta.leaves[victim].file;
    assert!(asked.contains(file.as_str()), "{asked}");
    assert!(
        asked.contains("rank 1") && asked.contains("No such file"),
        "{asked}"
    );
}

/// A `.batmeta` whose tree is malformed but whose manifest was re-sealed
/// over it (a valid `meta_crc`) is rejected when it is opened: the tree's
/// structure is checked at decode, not by the first query that walks it.
#[test]
fn resealed_batmeta_with_a_shared_child_fails_to_open() {
    use bat_aggregation::manifest::CommitManifest;
    let _serial = serial();
    let scratch = ScratchDir::new("commit-reseal");
    write_ok(&scratch.path, "r", 1_500);
    let path = scratch.path.join(meta_file_name("r"));
    let original = std::fs::read(&path).unwrap();
    let (manifest, meta_bytes) = CommitManifest::parse(&original).unwrap();
    let meta = bat_aggregation::MetaTree::decode(meta_bytes).unwrap();

    // Fixed header (48 bytes), the attribute table, then the root link, the
    // inner count and inner node 0's `[left, right]` links.
    let mut descs = bat_wire::Encoder::new();
    for d in &meta.descs {
        d.encode(&mut descs);
    }
    let root_at = 48 + descs.finish().len() + 16 * meta.descs.len();
    let word = |at: usize| u32::from_le_bytes(meta_bytes[at..at + 4].try_into().unwrap());
    let inners = u64::from_le_bytes(meta_bytes[root_at + 4..root_at + 12].try_into().unwrap());
    assert_eq!(word(root_at), 0, "the root is inner node 0");
    assert_eq!(inners as usize, meta.leaves.len() - 1);

    // Inner node 0's right link now names its left child a second time.
    let mut patched = meta_bytes.to_vec();
    let left = word(root_at + 12);
    patched[root_at + 16..root_at + 20].copy_from_slice(&left.to_le_bytes());
    let resealed = CommitManifest::new(&patched, manifest.files);
    let trailer = resealed.encode(patched.len() as u64);
    patched.extend_from_slice(&trailer);
    std::fs::write(&path, &patched).unwrap();

    let err = Dataset::open(&scratch.path, "r")
        .err()
        .expect("must not open");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
}
