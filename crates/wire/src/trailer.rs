//! The one framing for checksummed trailers found from the end of a file
//! (DESIGN.md §11): the leaf-file footer (`BATC`) and the `.batmeta`
//! commit manifest (`BATX`) both use it. Little-endian:
//!
//! ```text
//! u32 magic               u32 version
//! u64 prefix_len          (the file bytes before the trailer)
//! body fields …           (the trailer kind's own)
//! u32 crc32c              (over every preceding trailer byte)
//! u32 total_len           (the whole trailer, these 12 tail bytes included)
//! u32 magic               (tail sentinel: trailers are found from EOF)
//! ```

use crate::{crc32c, Decoder, Encoder, WireError, WireResult};

/// magic + version + prefix_len.
const HEAD_BYTES: usize = 16;
/// crc32c + total_len + magic.
const TAIL_BYTES: usize = 12;

/// Start a trailer of kind `magic`/`version` behind `prefix_len` bytes;
/// the caller appends its body fields, then [`seal`]s it.
pub fn begin(magic: u32, version: u32, prefix_len: u64) -> Encoder {
    let mut enc = Encoder::new();
    enc.put_u32(magic);
    enc.put_u32(version);
    enc.put_u64(prefix_len);
    enc
}

/// Append the tail (body CRC, total length, sentinel) to a trailer
/// started with [`begin`].
pub fn seal(trailer: Encoder, magic: u32) -> Vec<u8> {
    let mut bytes = trailer.finish();
    let crc = crc32c(&bytes);
    let total = (bytes.len() + TAIL_BYTES) as u32;
    for word in [crc, total, magic] {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    bytes
}

/// A checked trailer: the bytes before it and a decoder over its body.
#[derive(Debug)]
pub struct Trailer<'a> {
    /// Length of the file bytes the trailer follows.
    pub prefix_len: u64,
    /// The body fields, after the head.
    pub fields: Decoder<'a>,
}

/// Find the `magic`/`version` trailer at the end of `file` and check, in
/// order: the tail sentinel, the length bounds, the body CRC, the head
/// magic and version, and that prefix plus trailer is the whole file. A
/// file without the trailer is an error like any other damage.
pub fn open(file: &[u8], magic: u32, version: u32) -> WireResult<Trailer<'_>> {
    let word = |at: usize| u32::from_le_bytes(file[at..at + 4].try_into().expect("len 4"));
    let len = file.len();
    if len < TAIL_BYTES {
        return Err(WireError::Truncated {
            what: "trailer",
            needed: TAIL_BYTES,
            remaining: len,
        });
    }
    let sentinel = word(len - 4);
    if sentinel != magic {
        return Err(WireError::BadMagic {
            expected: magic,
            found: sentinel,
        });
    }
    let total = word(len - 8) as usize;
    if total < HEAD_BYTES + TAIL_BYTES || total > len {
        return Err(WireError::BadLength {
            what: "trailer length",
            len: total as u64,
            remaining: len,
        });
    }
    let body = &file[len - total..len - TAIL_BYTES];
    let (stored, found) = (word(len - TAIL_BYTES), crc32c(body));
    if stored != found {
        return Err(WireError::BadChecksum {
            what: "trailer",
            expected: stored,
            found,
        });
    }
    let mut fields = Decoder::new(body);
    fields.expect_magic(magic)?;
    let found = fields.get_u32("trailer version")?;
    if found != version {
        return Err(WireError::BadTag {
            what: "trailer version",
            tag: found as u64,
        });
    }
    let prefix_len = fields.get_u64("trailer prefix length")?;
    if prefix_len.checked_add(total as u64) != Some(len as u64) {
        return Err(WireError::BadLength {
            what: "trailer prefix length",
            len: prefix_len,
            remaining: len,
        });
    }
    Ok(Trailer { prefix_len, fields })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: u32 = 0x5445_5354;

    fn file(prefix: &[u8], field: u32) -> Vec<u8> {
        let mut t = begin(MAGIC, 3, prefix.len() as u64);
        t.put_u32(field);
        let mut out = prefix.to_vec();
        out.extend(seal(t, MAGIC));
        out
    }

    #[test]
    fn roundtrip() {
        let f = file(b"payload", 0xABCD);
        assert_eq!(f.len(), 7 + HEAD_BYTES + 4 + TAIL_BYTES);
        let mut t = open(&f, MAGIC, 3).unwrap();
        assert_eq!(t.prefix_len, 7);
        assert_eq!(t.fields.get_u32("field").unwrap(), 0xABCD);
        assert!(t.fields.is_empty());
    }

    #[test]
    fn every_damage_is_a_typed_error() {
        let f = file(b"payload", 1);
        assert!(matches!(
            open(b"", MAGIC, 3),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            open(b"no trailer here", MAGIC, 3),
            Err(WireError::BadMagic { .. })
        ));
        assert!(open(&f, MAGIC + 1, 3).is_err(), "other kind");
        assert!(
            matches!(open(&f, MAGIC, 4), Err(WireError::BadTag { .. })),
            "other version"
        );
        for cut in 0..f.len() {
            assert!(open(&f[..cut], MAGIC, 3).is_err(), "cut {cut}");
            assert!(
                open(&f[cut..], MAGIC, 3).is_err() || cut == 0,
                "prefix cut {cut}"
            );
        }
        for byte in 0..f.len() {
            let mut g = f.clone();
            g[byte] ^= 0x10;
            let ok = open(&g, MAGIC, 3).is_ok();
            // The prefix is not the trailer's to check.
            assert_eq!(ok, byte < 7, "flip at {byte}");
        }
    }
}
