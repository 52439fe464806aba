//! The commit manifest: the tail section of `.batmeta` that makes the
//! metadata file a *commit marker* (DESIGN.md §11).
//!
//! The manifest is appended after the [`crate::MetaTree`] bytes and is
//! mandatory: every reader goes through the one commit reader
//! (`libbat::verify::read_commit`), which proves from the metadata file
//! alone (a) that the metadata bytes themselves are intact (`meta_crc`)
//! and (b) the exact committed length and whole-file CRC32C of every leaf
//! file the dataset references. A dataset is *committed* iff its
//! `.batmeta` exists with a valid manifest and every listed file matches;
//! anything else is a detectable partial state, never silent corruption.
//!
//! It is a [`bat_wire::trailer`] of kind "BATX" (version 1) behind the
//! MetaTree bytes, with the body (little-endian)
//!
//! ```text
//! u32 meta_crc            (over the MetaTree bytes)
//! u32 num_files
//! num_files × { str file, u64 len, u32 crc }
//! ```

use bat_wire::{crc32c, trailer, WireError, WireResult};

/// Manifest magic: "BATX" (BAT commit).
pub const MANIFEST_MAGIC: u32 = 0x4241_5458;
/// Manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// One committed leaf file: what must be on disk for the dataset to be
/// complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Leaf file name, relative to the metadata file's directory.
    pub file: String,
    /// Committed byte length (CRC footer included).
    pub len: u64,
    /// CRC32C of the whole file (CRC footer included).
    pub crc: u32,
}

/// The decoded commit manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitManifest {
    /// CRC32C of the MetaTree bytes the manifest follows.
    pub meta_crc: u32,
    /// Every leaf file the commit references, in metadata order.
    pub files: Vec<ManifestEntry>,
}

impl CommitManifest {
    /// Build a manifest for `meta_bytes` (the encoded MetaTree) and the
    /// committed files.
    pub fn new(meta_bytes: &[u8], files: Vec<ManifestEntry>) -> CommitManifest {
        CommitManifest {
            meta_crc: crc32c(meta_bytes),
            files,
        }
    }

    /// Serialize to follow `meta_len` bytes of MetaTree.
    pub fn encode(&self, meta_len: u64) -> Vec<u8> {
        let mut enc = trailer::begin(MANIFEST_MAGIC, MANIFEST_VERSION, meta_len);
        enc.put_u32(self.meta_crc);
        enc.put_u32(self.files.len() as u32);
        for f in &self.files {
            enc.put_str(&f.file);
            enc.put_u64(f.len);
            enc.put_u32(f.crc);
        }
        trailer::seal(enc, MANIFEST_MAGIC)
    }

    /// Parse the manifest at the tail of a `.batmeta` image and check
    /// `meta_crc`; returns it with the MetaTree bytes it covers. A missing
    /// manifest is an error like a damaged one: either way the commit
    /// marker is torn and the dataset is not committed.
    pub fn parse(meta_file: &[u8]) -> WireResult<(CommitManifest, &[u8])> {
        let trailer::Trailer {
            prefix_len,
            mut fields,
        } = trailer::open(meta_file, MANIFEST_MAGIC, MANIFEST_VERSION)?;
        let meta_crc = fields.get_u32("manifest meta crc")?;
        let n = fields.get_u32("manifest file count")? as usize;
        if n > fields.remaining() {
            return Err(WireError::BadLength {
                what: "manifest file count",
                len: n as u64,
                remaining: fields.remaining(),
            });
        }
        let mut files = Vec::with_capacity(n);
        for _ in 0..n {
            let file = fields.get_str("manifest file name")?;
            let len = fields.get_u64("manifest file len")?;
            let crc = fields.get_u32("manifest file crc")?;
            files.push(ManifestEntry { file, len, crc });
        }
        let meta_bytes = &meta_file[..prefix_len as usize];
        let found = crc32c(meta_bytes);
        if found != meta_crc {
            return Err(WireError::BadChecksum {
                what: "metadata",
                expected: meta_crc,
                found,
            });
        }
        Ok((CommitManifest { meta_crc, files }, meta_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<u8>, CommitManifest) {
        let meta = b"pretend this is a MetaTree".to_vec();
        let manifest = CommitManifest::new(
            &meta,
            vec![
                ManifestEntry {
                    file: "ts.00000.bat".into(),
                    len: 4096,
                    crc: 0xDEAD_BEEF,
                },
                ManifestEntry {
                    file: "ts.00001.bat".into(),
                    len: 8192,
                    crc: 0x1234_5678,
                },
            ],
        );
        let mut file = meta;
        file.extend_from_slice(&manifest.encode(file.len() as u64));
        (file, manifest)
    }

    #[test]
    fn roundtrip() {
        let (file, manifest) = sample();
        let (got, meta) = CommitManifest::parse(&file).unwrap();
        assert_eq!(got, manifest);
        assert_eq!(meta, b"pretend this is a MetaTree");
    }

    #[test]
    fn no_manifest_is_a_typed_error() {
        assert!(matches!(
            CommitManifest::parse(b"just a meta tree"),
            Err(WireError::BadMagic { .. })
        ));
        assert!(matches!(
            CommitManifest::parse(b""),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupt_meta_bytes_fail_the_meta_crc() {
        let (mut file, _) = sample();
        file[3] ^= 0x40; // damage the MetaTree region
        assert!(matches!(
            CommitManifest::parse(&file),
            Err(WireError::BadChecksum {
                what: "metadata",
                ..
            })
        ));
    }

    #[test]
    fn corrupt_manifest_body_is_rejected() {
        let (mut file, _) = sample();
        let pos = file.len() - 20; // inside the manifest body
        file[pos] ^= 0xFF;
        assert!(matches!(
            CommitManifest::parse(&file),
            Err(WireError::BadChecksum {
                what: "trailer",
                ..
            })
        ));
    }

    #[test]
    fn truncated_commit_marker_reads_as_uncommitted() {
        let (file, _) = sample();
        // A torn rename/write that loses the tail: no sentinel, no commit.
        assert!(CommitManifest::parse(&file[..file.len() - 3]).is_err());
    }
}
