//! Offline dataset verification and recovery (DESIGN.md §11).
//!
//! [`verify_dataset`] proves, from the bytes on disk alone, whether a
//! dataset is fully committed and intact — and when it is not, reports
//! exactly which files are torn and which byte ranges inside them. The
//! commit protocol makes this decidable:
//!
//! - `.batmeta` is the commit marker, and [`read_commit`] is the one place
//!   it is read from disk. Absent (or present only as a `.tmp` sibling) →
//!   the write never committed. Present with a missing or torn
//!   [`CommitManifest`] → the commit itself was interrupted; the dataset
//!   must be treated as uncommitted.
//! - The manifest lists every leaf file with its committed length and
//!   whole-file CRC32C, so missing, truncated, extended, and bit-rotted
//!   leaves are all distinguishable.
//! - Each leaf file carries its own per-section [`FileFooter`], so damage
//!   is localized to the head or an individual treelet block.
//!
//! [`Dataset::open_degraded`] is the recovery path: it opens the
//! consistent subset of a damaged dataset read-only, skipping the leaves
//! verification rejected and answering queries from the rest.

use crate::dataset::Dataset;
use bat_aggregation::{CommitManifest, ManifestEntry, MetaTree};
use bat_layout::{BatFile, FileFooter, SectionMismatch};
use bat_wire::crc32c;
use std::fmt;
use std::io;
use std::path::Path;

/// Verdict for one leaf file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeafStatus {
    /// Length and whole-file CRC match the manifest.
    Ok,
    /// The file is absent.
    Missing,
    /// On-disk length differs from the committed length (a torn or
    /// truncated file, or one extended after the commit).
    LengthMismatch {
        /// Committed length from the manifest.
        expected: u64,
        /// Actual on-disk length.
        found: u64,
    },
    /// Length matches but bytes do not; `sections` localizes the damage
    /// via the file's own footer (empty when the footer itself is gone
    /// or too damaged to localize).
    ChecksumMismatch {
        /// Damaged payload sections, per the leaf file's footer.
        sections: Vec<SectionMismatch>,
    },
    /// The file could not be read at all.
    Unreadable,
}

impl LeafStatus {
    /// Whether this leaf is safe to read.
    pub fn is_ok(&self) -> bool {
        matches!(self, LeafStatus::Ok)
    }
}

impl fmt::Display for LeafStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeafStatus::Ok => write!(f, "ok"),
            LeafStatus::Missing => write!(f, "missing"),
            LeafStatus::LengthMismatch { expected, found } => {
                write!(
                    f,
                    "length mismatch: committed {expected} bytes, found {found}"
                )
            }
            LeafStatus::ChecksumMismatch { sections } if sections.is_empty() => {
                write!(f, "checksum mismatch (damage not localizable)")
            }
            LeafStatus::ChecksumMismatch { sections } => {
                write!(f, "checksum mismatch in section(s)")?;
                for s in sections {
                    write!(f, " {}[{}..{})", s.section, s.start, s.end)?;
                }
                Ok(())
            }
            LeafStatus::Unreadable => write!(f, "unreadable"),
        }
    }
}

/// One leaf file's verification result.
#[derive(Debug, Clone)]
pub struct LeafCheck {
    /// File name relative to the dataset directory.
    pub file: String,
    /// The verdict.
    pub status: LeafStatus,
}

/// Why the dataset as a whole is not committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitState {
    /// `.batmeta` present with a valid manifest: the write committed.
    Committed,
    /// No `.batmeta` on disk: the write never reached its commit point.
    NotCommitted,
    /// `.batmeta` exists but its commit marker is torn or inconsistent —
    /// an interrupted commit; the message says what was wrong.
    TornCommit(String),
}

/// The full verification report for one dataset.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Commit-marker verdict.
    pub commit: CommitState,
    /// Per-leaf verdicts, in manifest (metadata) order.
    pub leaves: Vec<LeafCheck>,
}

impl VerifyReport {
    /// Whether the dataset is committed and every leaf checks clean.
    pub fn is_clean(&self) -> bool {
        self.commit == CommitState::Committed && self.leaves.iter().all(|l| l.status.is_ok())
    }

    /// The leaves that failed verification.
    pub fn damaged(&self) -> impl Iterator<Item = &LeafCheck> {
        self.leaves.iter().filter(|l| !l.status.is_ok())
    }
}

/// Check one leaf file against its committed length and CRC, localizing
/// any damage with the file's own footer.
fn check_leaf(path: &Path, expected_len: u64, expected_crc: u32) -> LeafStatus {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return LeafStatus::Missing,
        Err(_) => return LeafStatus::Unreadable,
    };
    if bytes.len() as u64 != expected_len {
        return LeafStatus::LengthMismatch {
            expected: expected_len,
            found: bytes.len() as u64,
        };
    }
    if crc32c(&bytes) == expected_crc {
        return LeafStatus::Ok;
    }
    // Whole-file CRC failed: use the footer to say where.
    let sections = match FileFooter::parse(&bytes) {
        Ok(footer) => footer.verify(&bytes),
        // Footer gone or itself damaged: report the mismatch unlocalized.
        Err(_) => Vec::new(),
    };
    LeafStatus::ChecksumMismatch { sections }
}

/// A committed dataset's top-level metadata, checked against its commit
/// manifest by [`read_commit`].
#[derive(Debug)]
pub struct Commit {
    /// The metadata tree.
    pub meta: MetaTree,
    /// The manifest: each leaf file's committed length and CRC32C, in
    /// leaf order.
    pub manifest: CommitManifest,
}

/// Read dataset `basename`'s commit marker from `dir`: the only place
/// `.batmeta` is read from disk. The manifest is required, the metadata
/// bytes must match its `meta_crc`, the [`MetaTree`] is decoded from
/// exactly those bytes, and the manifest must list the tree's leaves.
///
/// A missing `.batmeta` is `NotFound` (the dataset never committed), any
/// damage `InvalidData`; other I/O errors pass through.
pub fn read_commit(dir: &Path, basename: &str) -> io::Result<Commit> {
    let name = crate::write::meta_file_name(basename);
    let bytes = std::fs::read(dir.join(&name))
        .map_err(|e| io::Error::new(e.kind(), format!("{name}: {e}")))?;
    let torn = |why: String| io::Error::new(io::ErrorKind::InvalidData, format!("{name}: {why}"));
    let (manifest, meta_bytes) = CommitManifest::parse(&bytes).map_err(|e| torn(e.to_string()))?;
    let meta =
        MetaTree::decode(meta_bytes).map_err(|e| torn(format!("metadata undecodable: {e}")))?;
    let listed = meta.leaves.iter().map(|l| &l.file);
    if !listed.eq(manifest.files.iter().map(|f| &f.file)) {
        return Err(torn(
            "manifest file list disagrees with the metadata tree".into(),
        ));
    }
    Ok(Commit { meta, manifest })
}

/// `file`, opened for leaf `entry`, if it still has the committed length.
/// A leaf that changed length after the commit (a later write renamed
/// over it, or it was truncated) is never served; its length is already
/// known, so this costs no I/O.
pub(crate) fn committed_leaf(file: BatFile, entry: &ManifestEntry) -> io::Result<BatFile> {
    let found = file.byte_size() as u64;
    if found == entry.len {
        return Ok(file);
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "leaf file {}: {found} bytes on disk, {} committed; it changed after the \
             commit (Dataset::open_degraded serves the intact leaves)",
            entry.file, entry.len
        ),
    ))
}

/// Check every leaf the manifest lists.
fn check_leaves(dir: &Path, manifest: &CommitManifest) -> Vec<LeafCheck> {
    manifest
        .files
        .iter()
        .map(|f| LeafCheck {
            file: f.file.clone(),
            status: check_leaf(&dir.join(&f.file), f.len, f.crc),
        })
        .collect()
}

/// Verify dataset `basename` in `dir` against its commit manifest.
///
/// Never errs on damage — damage is the *result*. `Err` is reserved for
/// environmental failures (e.g. the directory itself is unreadable).
pub fn verify_dataset(dir: impl AsRef<Path>, basename: &str) -> io::Result<VerifyReport> {
    let dir = dir.as_ref();
    let (commit, leaves) = match read_commit(dir, basename) {
        Ok(c) => (CommitState::Committed, check_leaves(dir, &c.manifest)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => (CommitState::NotCommitted, Vec::new()),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            (CommitState::TornCommit(e.to_string()), Vec::new())
        }
        Err(e) => return Err(e),
    };
    Ok(VerifyReport { commit, leaves })
}

impl Dataset {
    /// Open the consistent subset of a (possibly damaged) dataset
    /// read-only: verification runs first, and every leaf it rejected is
    /// excluded from queries instead of erroring them. Returns the
    /// dataset plus the verification report that drove the exclusions.
    ///
    /// Errs only when there is nothing consistent to open: the dataset
    /// never committed (`NotFound`), or its commit marker is torn
    /// (`InvalidData`).
    pub fn open_degraded(
        dir: impl AsRef<Path>,
        basename: &str,
    ) -> io::Result<(Dataset, VerifyReport)> {
        let dir = dir.as_ref();
        let commit = read_commit(dir, basename)?;
        let report = VerifyReport {
            commit: CommitState::Committed,
            leaves: check_leaves(dir, &commit.manifest),
        };
        let excluded: Vec<u32> = report
            .leaves
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.status.is_ok())
            .map(|(i, _)| i as u32)
            .collect();
        let ds = Dataset::from_commit(dir, commit).with_excluded(excluded);
        Ok((ds, report))
    }
}
