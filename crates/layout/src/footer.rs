//! The per-section CRC32C file footer the commit protocol appends to every
//! leaf file (DESIGN.md §11).
//!
//! The footer is a *trailing* section: it lives after the last treelet, in
//! bytes the head's section table never indexes, so a version-1 reader
//! opens a footered file unchanged and the golden byte hashes of the
//! payload stay valid. It is a [`bat_wire::trailer`] of kind "BATC"
//! (version 1) behind the payload, with the body
//!
//! ```text
//! u32 num_sections
//! num_sections × { u64 end_offset, u32 crc32c }
//! ```
//!
//! Sections partition the payload: section `i` spans
//! `[end[i-1], end[i])` with `end[-1] = 0` and `end[last] = payload_len`.
//! For a BAT file the boundaries are the head and each treelet block, so a
//! verifier can report *which treelet* a flipped bit landed in.

use crate::format::MAGIC;
use bat_wire::{crc32c, trailer, Crc32c, WireError, WireResult};
use std::io::{self, Write};

/// Footer magic: "BATC" (BAT Checksums).
pub const FOOTER_MAGIC: u32 = 0x4241_5443;
/// Footer format version.
pub const FOOTER_VERSION: u32 = 1;
/// Bytes per section entry.
const SECTION_BYTES: usize = 12;

/// One checksummed span of the payload, ending at `end` (exclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionCrc {
    /// Exclusive end offset of this section in the payload.
    pub end: u64,
    /// CRC32C of the section's bytes.
    pub crc: u32,
}

/// A decoded (or freshly computed) file footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileFooter {
    /// Per-section checksums; ends ascend and the last is the payload
    /// length (the file minus the footer).
    pub sections: Vec<SectionCrc>,
}

/// One section's verification verdict from [`FileFooter::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionMismatch {
    /// Index of the damaged section.
    pub section: usize,
    /// Byte range `[start, end)` of the section in the file.
    pub start: u64,
    /// Exclusive end.
    pub end: u64,
}

impl FileFooter {
    /// Bytes the footer checksums (the file minus the footer).
    pub fn payload_len(&self) -> u64 {
        self.sections.last().map_or(0, |s| s.end)
    }

    /// Serialize the footer (self-checksummed, tail-discoverable).
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = trailer::begin(FOOTER_MAGIC, FOOTER_VERSION, self.payload_len());
        enc.put_u32(self.sections.len() as u32);
        for s in &self.sections {
            enc.put_u64(s.end);
            enc.put_u32(s.crc);
        }
        trailer::seal(enc, FOOTER_MAGIC)
    }

    /// Parse the footer at the tail of `file`. A file without one is an
    /// error like a damaged or inconsistent footer.
    pub fn parse(file: &[u8]) -> WireResult<FileFooter> {
        let trailer::Trailer {
            prefix_len,
            mut fields,
        } = trailer::open(file, FOOTER_MAGIC, FOOTER_VERSION)?;
        let n = fields.get_u32("footer section count")? as usize;
        if fields.remaining() != n * SECTION_BYTES {
            return Err(WireError::BadLength {
                what: "footer section table",
                len: n as u64,
                remaining: fields.remaining(),
            });
        }
        let mut sections = Vec::with_capacity(n);
        for _ in 0..n {
            let end = fields.get_u64("section end")?;
            let crc = fields.get_u32("section crc")?;
            sections.push(SectionCrc { end, crc });
        }
        let footer = FileFooter { sections };
        let ascending = footer.sections.windows(2).all(|w| w[0].end <= w[1].end);
        if !ascending || footer.payload_len() != prefix_len {
            return Err(WireError::BadLength {
                what: "footer section bounds",
                len: footer.payload_len(),
                remaining: prefix_len as usize,
            });
        }
        Ok(footer)
    }

    /// Recompute every section checksum over `file` (the footer after the
    /// payload is not covered) and report the sections that do not match.
    pub fn verify(&self, file: &[u8]) -> Vec<SectionMismatch> {
        let mut bad = Vec::new();
        let mut start = 0u64;
        for (i, s) in self.sections.iter().enumerate() {
            let range = file.get(start as usize..s.end as usize);
            let ok = range.is_some_and(|bytes| crc32c(bytes) == s.crc);
            if !ok {
                bad.push(SectionMismatch {
                    section: i,
                    start,
                    end: s.end,
                });
            }
            start = s.end;
        }
        bad
    }
}

/// An `io::Write` adapter that accumulates per-section CRC32C as payload
/// bytes stream through, cutting sections at the caller-supplied
/// boundaries, then appends the footer on [`CrcSectionWriter::finish`].
///
/// `ends` are the exclusive end offsets of each section, strictly
/// increasing; the last must equal the total payload length (checked at
/// finish). The writer also keeps a whole-file CRC (payload + footer) —
/// that is what the commit manifest records per leaf file.
pub struct CrcSectionWriter<W: Write> {
    inner: W,
    ends: Vec<u64>,
    next: usize,
    written: u64,
    section: Crc32c,
    whole: Crc32c,
    sections: Vec<SectionCrc>,
}

impl<W: Write> CrcSectionWriter<W> {
    pub fn new(inner: W, ends: Vec<u64>) -> CrcSectionWriter<W> {
        debug_assert!(ends.windows(2).all(|w| w[0] < w[1]), "ends must ascend");
        CrcSectionWriter {
            inner,
            sections: Vec::with_capacity(ends.len()),
            ends,
            next: 0,
            written: 0,
            section: Crc32c::new(),
            whole: Crc32c::new(),
        }
    }

    fn absorb(&mut self, mut buf: &[u8]) {
        self.whole.update(buf);
        while !buf.is_empty() {
            let room = match self.ends.get(self.next) {
                Some(&end) => (end - self.written) as usize,
                // Bytes past the last declared boundary: finish() rejects
                // the mismatch, but keep the CRC state consistent.
                None => buf.len(),
            };
            let take = buf.len().min(room);
            self.section.update(&buf[..take]);
            self.written += take as u64;
            buf = &buf[take..];
            if Some(&self.written) == self.ends.get(self.next) {
                self.sections.push(SectionCrc {
                    end: self.written,
                    crc: self.section.finish(),
                });
                self.section = Crc32c::new();
                self.next += 1;
            }
        }
    }

    /// Close the last section, append the footer, and flush. Returns the
    /// inner writer, the footer, and `(total_file_len, whole_file_crc)`
    /// where both cover payload *plus* footer bytes.
    pub fn finish(mut self) -> io::Result<(W, FileFooter, u64, u32)> {
        let expected = self.ends.last().copied().unwrap_or(0);
        if self.written != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "section writer: payload is {} bytes, boundaries declared {}",
                    self.written, expected
                ),
            ));
        }
        // An empty payload still gets one (empty) section so the footer is
        // well formed.
        if self.sections.is_empty() {
            self.sections.push(SectionCrc {
                end: 0,
                crc: Crc32c::new().finish(),
            });
        }
        let footer = FileFooter {
            sections: self.sections,
        };
        let bytes = footer.encode();
        self.whole.update(&bytes);
        self.inner.write_all(&bytes)?;
        self.inner.flush()?;
        let total = self.written + bytes.len() as u64;
        Ok((self.inner, footer, total, self.whole.finish()))
    }
}

impl<W: Write> Write for CrcSectionWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.absorb(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The section boundaries (exclusive ends) of a BAT payload: the head,
/// then each treelet block. Derived from the writer's precomputed layout.
pub fn bat_section_ends(writer: &crate::format::BatWriter<'_>) -> Vec<u64> {
    let mut ends: Vec<u64> = writer
        .treelet_offsets()
        .iter()
        .skip(1)
        .map(|&o| o as u64)
        .collect();
    if let Some(&first) = writer.treelet_offsets().first() {
        ends.insert(0, first as u64);
    }
    let size = writer.file_size() as u64;
    if ends.last() != Some(&size) {
        ends.push(size);
    }
    ends
}

/// Sanity guard: the footer magic must differ from the format magic so a
/// footer can never be mistaken for a file head.
const _: () = assert!(FOOTER_MAGIC != MAGIC);

#[cfg(test)]
mod tests {
    use super::*;

    fn footered(payload: &[u8], ends: Vec<u64>) -> Vec<u8> {
        let mut w = CrcSectionWriter::new(Vec::new(), ends);
        w.write_all(payload).unwrap();
        let (file, ..) = w.finish().unwrap();
        file
    }

    #[test]
    fn roundtrip_and_verify_clean() {
        let payload: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let file = footered(&payload, vec![100, 400, 1000]);
        let footer = FileFooter::parse(&file).unwrap();
        assert_eq!(footer.payload_len(), 1000);
        assert_eq!(footer.sections.len(), 3);
        assert!(footer.verify(&file).is_empty());
    }

    #[test]
    fn no_footer_is_a_typed_error() {
        assert!(matches!(
            FileFooter::parse(b"no footer here"),
            Err(WireError::BadMagic { .. })
        ));
        assert!(matches!(
            FileFooter::parse(b""),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn flipped_bit_is_localized_to_its_section() {
        let payload = vec![7u8; 1000];
        let mut file = footered(&payload, vec![100, 400, 1000]);
        file[450] ^= 0x01; // lands in section 2: [400, 1000)
        let footer = FileFooter::parse(&file).unwrap();
        let bad = footer.verify(&file);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].section, 2);
        assert_eq!((bad[0].start, bad[0].end), (400, 1000));
    }

    #[test]
    fn damaged_footer_is_an_error_not_a_false_negative() {
        let payload = vec![1u8; 64];
        let mut file = footered(&payload, vec![64]);
        let crc_pos = file.len() - 12; // footer self-crc
        file[crc_pos] ^= 0xFF;
        assert!(matches!(
            FileFooter::parse(&file),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn truncated_file_loses_the_footer_cleanly() {
        let payload = vec![2u8; 256];
        let file = footered(&payload, vec![256]);
        // Truncation chops the tail sentinel: the footer is gone, which is
        // an error, never a footer-less file that checks clean.
        let truncated = &file[..file.len() - 5];
        assert!(FileFooter::parse(truncated).is_err());
    }

    #[test]
    fn empty_payload_gets_a_wellformed_footer() {
        let file = footered(&[], vec![]);
        let footer = FileFooter::parse(&file).unwrap();
        assert_eq!(footer.payload_len(), 0);
        assert_eq!(footer.sections.len(), 1);
        assert!(footer.verify(&file).is_empty());
    }

    #[test]
    fn short_write_against_declared_boundaries_fails_finish() {
        let mut w = CrcSectionWriter::new(Vec::new(), vec![100]);
        w.write_all(&[0u8; 50]).unwrap();
        assert!(w.finish().is_err());
    }
}
