//! v2 treelet section codecs (DESIGN.md §15).
//!
//! A v2 file stores each treelet as a sequence of independently coded
//! *sections* — node records, positions, one column per attribute — with a
//! per-section codec tag and stored length recorded in the file head. The
//! decoded bytes of a block are laid out exactly like a v1 treelet block
//! ([`crate::format::TreeletLayout`]), and [`decode_section`] writes each
//! section straight into its range of that image, so everything above the
//! decode step (traversal, progressive slicing, exact filtering) is shared
//! between the two versions.
//!
//! Codec registry (tag byte in the head's section table):
//!
//! | tag | name      | pipeline                                             |
//! |-----|-----------|------------------------------------------------------|
//! | 0   | `raw`     | verbatim bytes                                       |
//! | 1   | `shuffle` | XOR-delta over records → bitshuffle → zero-run RLE   |
//!
//! `shuffle` is lossless and exploits the build's Morton ordering: adjacent
//! particles are spatial neighbours, so XOR-ing each position/attribute
//! record with its predecessor clears the high bits, bit-plane transposition
//! groups those cleared bits into long zero runs, and a byte-level zero-run
//! RLE removes them. Node records are always `raw` — they are the
//! traversal-hot ~3 % of a block. Any other tag, a `shuffle` tag on node
//! records, or a `raw` section whose stored length differs from its decoded
//! length is a typed error at head parse.
//!
//! The encoder falls back to `raw` whenever its output would not be
//! smaller, so a stored section is never larger than its decoded form —
//! an invariant the head parser enforces against corrupt inputs before any
//! decode allocation happens.

use crate::attr::AttributeType;
use bat_obs::knobs;
use bat_wire::{WireError, WireResult};

/// Hard ceiling on a single decoded treelet block. Parsed (untrusted)
/// counts that imply a larger block are rejected before any allocation.
pub const MAX_DECODED_BLOCK: usize = 1 << 28;

/// Section stored verbatim.
pub const TAG_RAW: u8 = 0;
/// XOR-delta + bitshuffle + zero-run RLE (lossless).
pub const TAG_SHUFFLE: u8 = 1;

/// Write-time codec selection for a whole file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Version-1 format: verbatim treelet blocks, byte-identical to the
    /// seed encoder (pinned by golden hashes).
    V1,
    /// Version-2 format: every section `raw` or `shuffle`.
    V2Lossless,
}

impl Codec {
    /// Codec from `BAT_TREELET_CODEC` (`v1` | `v2-lossless`; unset → `v1`),
    /// read when a writer is built.
    pub fn from_env() -> Codec {
        match knobs::TREELET_CODEC.get().as_deref() {
            Some("v2-lossless") => Codec::V2Lossless,
            _ => Codec::V1,
        }
    }

    /// True for the version-2 format.
    pub fn is_v2(&self) -> bool {
        *self == Codec::V2Lossless
    }

    /// Stable name (the `BAT_TREELET_CODEC` spelling).
    pub fn name(&self) -> &'static str {
        match self {
            Codec::V1 => "v1",
            Codec::V2Lossless => "v2-lossless",
        }
    }
}

/// What kind of section is being coded; determines record/word geometry
/// and which tags are legal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SectionKind {
    /// Node records (always raw); the record stride is schema-dependent.
    Nodes,
    /// Positions: 12-byte records of three `f32` lanes.
    Positions,
    /// One attribute column of the given element type.
    Attr(AttributeType),
}

impl SectionKind {
    /// `(record, word)` byte strides for the delta/shuffle pipeline.
    fn geometry(&self) -> Option<(usize, usize)> {
        match self {
            SectionKind::Nodes => None,
            SectionKind::Positions => Some((12, 4)),
            SectionKind::Attr(t) => Some((t.size(), t.size())),
        }
    }
}

// ---------------------------------------------------------------------------
// Lossless pipeline: XOR-delta → bitshuffle → zero-run RLE
// ---------------------------------------------------------------------------

/// XOR every `record`-byte record with its predecessor, in place (last to
/// first, so decode is a forward prefix pass). Morton-adjacent records
/// differ in few bits, so this clears most of each record.
pub fn xor_delta_encode(data: &mut [u8], record: usize) {
    debug_assert!(record > 0 && data.len().is_multiple_of(record));
    for i in (record..data.len()).rev() {
        data[i] ^= data[i - record];
    }
}

/// Inverse of [`xor_delta_encode`].
pub fn xor_delta_decode(data: &mut [u8], record: usize) {
    debug_assert!(record > 0 && data.len().is_multiple_of(record));
    for i in record..data.len() {
        data[i] ^= data[i - record];
    }
}

/// Bit-plane transpose: element `e`'s bit `p` (of `elem * 8`) moves to
/// plane `p`, bit `e`. Planes are padded to whole bytes, so the output is
/// `elem * 8 * ceil(n / 8)` bytes for `n = data.len() / elem` elements.
pub fn bitshuffle(data: &[u8], elem: usize) -> Vec<u8> {
    debug_assert!(elem > 0 && data.len().is_multiple_of(elem));
    let n = data.len() / elem;
    let stride = n.div_ceil(8);
    let mut out = vec![0u8; elem * 8 * stride];
    for e in 0..n {
        let slot = e / 8;
        let bit = (e % 8) as u8;
        for b in 0..elem {
            let mut v = data[e * elem + b] as u32;
            let mut i = 0;
            while v != 0 {
                let tz = v.trailing_zeros() as usize;
                i += tz;
                out[(b * 8 + i) * stride + slot] |= 1 << bit;
                v >>= tz + 1;
                i += 1;
            }
        }
    }
    out
}

/// Inverse of [`bitshuffle`]: fills `out` (`elem`-byte elements, whatever
/// it held before); rejects a shuffled buffer whose length does not match
/// that geometry.
pub fn bitunshuffle(data: &[u8], elem: usize, out: &mut [u8]) -> WireResult<()> {
    debug_assert!(elem > 0 && out.len().is_multiple_of(elem));
    let n = out.len() / elem;
    let stride = n.div_ceil(8);
    if data.len() != elem * 8 * stride {
        return Err(WireError::BadLength {
            what: "bitshuffled section",
            len: data.len() as u64,
            remaining: elem * 8 * stride,
        });
    }
    out.fill(0);
    for plane in 0..elem * 8 {
        let b = plane / 8;
        let i = (plane % 8) as u8;
        let row = &data[plane * stride..(plane + 1) * stride];
        for (slot, &byte) in row.iter().enumerate() {
            if byte == 0 {
                continue;
            }
            let base = slot * 8;
            let mut v = byte as u32;
            let mut k = 0;
            while v != 0 {
                let tz = v.trailing_zeros() as usize;
                k += tz;
                let e = base + k;
                if e < n {
                    out[e * elem + b] |= 1 << i;
                }
                v >>= tz + 1;
                k += 1;
            }
        }
    }
    Ok(())
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(data: &[u8], mut i: usize) -> WireResult<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = data.get(i).ok_or(WireError::Truncated {
            what: "rle varint",
            needed: i + 1,
            remaining: data.len(),
        })?;
        i += 1;
        // The 10th byte holds only bit 63: a higher bit or a continuation
        // would overflow `u64`, so the loop never passes shift 63.
        if shift == 63 && b > 1 {
            return Err(WireError::BadTag {
                what: "rle varint overflow",
                tag: b as u64,
            });
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok((v, i));
        }
        shift += 7;
    }
}

/// Zero-run RLE: an alternating stream of `varint zero_run`, `varint
/// literal_len`, literal bytes. Bitshuffled Morton-delta data is mostly
/// zero planes, which collapse to two-byte tokens.
pub fn rle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 8 + 16);
    let mut i = 0;
    while i < data.len() {
        let zs = i;
        while i < data.len() && data[i] == 0 {
            i += 1;
        }
        put_varint(&mut out, (i - zs) as u64);
        // Literal run: extend until a zero run long enough to pay for its
        // two-token overhead (≥ 4 bytes) or end of input.
        let ls = i;
        let mut j = i;
        while j < data.len() {
            if data[j] == 0 {
                let mut k = j;
                while k < data.len() && data[k] == 0 {
                    k += 1;
                }
                if k - j >= 4 || k == data.len() {
                    break;
                }
                j = k;
            } else {
                j += 1;
            }
        }
        put_varint(&mut out, (j - ls) as u64);
        out.extend_from_slice(&data[ls..j]);
        i = j;
    }
    out
}

/// Inverse of [`rle_encode`], filling exactly `out` (whatever it held
/// before). The output length is dictated by the caller (derived from
/// trusted head geometry, capped by [`MAX_DECODED_BLOCK`]); runs claiming
/// to exceed it are a typed error, so corrupt streams can never write
/// past it.
pub fn rle_decode(data: &[u8], out: &mut [u8]) -> WireResult<()> {
    let expected_len = out.len();
    let overflow = |len: u64| WireError::BadLength {
        what: "rle run length",
        len,
        remaining: expected_len,
    };
    let mut w = 0usize;
    let mut i = 0usize;
    while i < data.len() {
        let (z, ni) = get_varint(data, i)?;
        i = ni;
        if z > (expected_len - w) as u64 {
            return Err(overflow(z));
        }
        out[w..w + z as usize].fill(0);
        w += z as usize;
        let (l, ni) = get_varint(data, i)?;
        i = ni;
        if l > (expected_len - w) as u64 || l > (data.len() - i) as u64 {
            return Err(overflow(l));
        }
        out[w..w + l as usize].copy_from_slice(&data[i..i + l as usize]);
        w += l as usize;
        i += l as usize;
    }
    if w != expected_len {
        return Err(WireError::Truncated {
            what: "rle stream",
            needed: expected_len,
            remaining: w,
        });
    }
    Ok(())
}

/// Lossless-encode one section. Returns `(tag, stored)`; falls back to
/// [`TAG_RAW`] whenever the pipeline does not shrink the bytes, so
/// `stored.len() <= raw.len()` always holds.
pub fn encode_lossless(raw: &[u8], record: usize, word: usize) -> (u8, Vec<u8>) {
    if raw.is_empty() {
        return (TAG_RAW, Vec::new());
    }
    let mut d = raw.to_vec();
    xor_delta_encode(&mut d, record);
    let comp = rle_encode(&bitshuffle(&d, word));
    if comp.len() < raw.len() {
        (TAG_SHUFFLE, comp)
    } else {
        (TAG_RAW, raw.to_vec())
    }
}

/// Decode a [`TAG_SHUFFLE`] section into exactly `out`. `scratch` holds
/// the run-length-decoded bit planes; a caller decoding many sections
/// passes the same buffer to each.
pub fn decode_lossless(
    stored: &[u8],
    record: usize,
    word: usize,
    out: &mut [u8],
    scratch: &mut Vec<u8>,
) -> WireResult<()> {
    if !out.len().is_multiple_of(record) || !record.is_multiple_of(word) {
        return Err(WireError::BadLength {
            what: "shuffle section geometry",
            len: out.len() as u64,
            remaining: record,
        });
    }
    let n_words = out.len() / word;
    scratch.resize(word * 8 * n_words.div_ceil(8), 0);
    rle_decode(stored, scratch)?;
    bitunshuffle(scratch, word, out)?;
    xor_delta_decode(out, record);
    Ok(())
}

// ---------------------------------------------------------------------------
// Section- and block-level entry points
// ---------------------------------------------------------------------------

/// Encode one section of a v2 file. Node records are always raw;
/// positions and attributes go through the lossless pipeline. The returned
/// bytes are never longer than `raw`.
pub fn encode_section(kind: SectionKind, raw: &[u8], codec: Codec) -> (u8, Vec<u8>) {
    debug_assert!(codec.is_v2());
    match kind.geometry() {
        Some((record, word)) => encode_lossless(raw, record, word),
        None => (TAG_RAW, raw.to_vec()),
    }
}

/// The one rule for a stored section, applied at head parse and again at
/// decode: `raw` stores exactly its decoded length, `shuffle` codes only
/// positions and attribute columns and never stores more than it decodes
/// to. Any other tag, or a tag illegal for the section kind, is
/// [`WireError::BadTag`]; a length that breaks the rule is
/// [`WireError::BadLength`].
pub(crate) fn check_section(
    kind: SectionKind,
    tag: u8,
    stored_len: usize,
    raw_len: usize,
) -> WireResult<()> {
    let fits = match (tag, kind.geometry()) {
        (TAG_RAW, _) => stored_len == raw_len,
        (TAG_SHUFFLE, Some(_)) => stored_len <= raw_len,
        _ => {
            return Err(WireError::BadTag {
                what: "section codec tag",
                tag: tag as u64,
            })
        }
    };
    if fits {
        Ok(())
    } else {
        Err(WireError::BadLength {
            what: "stored section length",
            len: stored_len as u64,
            remaining: raw_len,
        })
    }
}

/// Decode one stored section into `out`, which it fills exactly whatever
/// it held before (`out.len()` is the section's decoded length). `scratch`
/// is working space for [`decode_lossless`]. A section that breaks
/// `check_section`'s rule is a typed error.
pub fn decode_section(
    kind: SectionKind,
    tag: u8,
    stored: &[u8],
    out: &mut [u8],
    scratch: &mut Vec<u8>,
) -> WireResult<()> {
    check_section(kind, tag, stored.len(), out.len())?;
    match kind.geometry() {
        Some((record, word)) if tag == TAG_SHUFFLE => {
            decode_lossless(stored, record, word, out, scratch)
        }
        _ => {
            out.copy_from_slice(stored);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos_bytes(pts: &[(f32, f32, f32)]) -> Vec<u8> {
        let mut raw = Vec::with_capacity(pts.len() * 12);
        for &(x, y, z) in pts {
            raw.extend_from_slice(&x.to_le_bytes());
            raw.extend_from_slice(&y.to_le_bytes());
            raw.extend_from_slice(&z.to_le_bytes());
        }
        raw
    }

    #[test]
    fn rle_roundtrip() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0; 100],
            vec![7; 100],
            (0..=255).collect(),
            [vec![0; 50], vec![3, 0, 0, 1], vec![0; 9]].concat(),
        ];
        for data in cases {
            let enc = rle_encode(&data);
            let mut out = vec![0xFF; data.len()];
            rle_decode(&enc, &mut out).unwrap();
            assert_eq!(out, data);
        }
    }

    #[test]
    fn rle_rejects_oversized_runs() {
        let mut enc = Vec::new();
        put_varint(&mut enc, u64::MAX); // zero run far beyond expected_len
        assert!(rle_decode(&enc, &mut [0; 16]).is_err());
        // Literal longer than the remaining stream.
        let mut enc = Vec::new();
        put_varint(&mut enc, 0);
        put_varint(&mut enc, 1000);
        enc.push(1);
        assert!(rle_decode(&enc, &mut [0; 2000]).is_err());
        // A 10th varint byte above 1 overflows u64; it must not decode as
        // its low bit (here a zero run of 0 followed by an empty literal).
        let overflow = [[0x80; 9].as_slice(), &[0x02], &[0x00]].concat();
        assert!(matches!(
            get_varint(&overflow, 0),
            Err(WireError::BadTag { tag: 2, .. })
        ));
        assert!(rle_decode(&overflow, &mut []).is_err());
        // The widest legal varint still round-trips.
        let mut max = Vec::new();
        put_varint(&mut max, u64::MAX);
        assert_eq!(max.len(), 10);
        assert_eq!(get_varint(&max, 0).unwrap(), (u64::MAX, 10));
    }

    #[test]
    fn shuffle_roundtrip_positions() {
        let pts: Vec<(f32, f32, f32)> = (0..1000)
            .map(|i| {
                let t = i as f32 / 1000.0;
                (t, t * t, 1.0 - t)
            })
            .collect();
        let raw = pos_bytes(&pts);
        let (tag, stored) = encode_lossless(&raw, 12, 4);
        assert_eq!(tag, TAG_SHUFFLE, "smooth data must compress");
        assert!(stored.len() < raw.len());
        let mut out = vec![0; raw.len()];
        decode_lossless(&stored, 12, 4, &mut out, &mut Vec::new()).unwrap();
        assert_eq!(out, raw);
    }

    #[test]
    fn lossless_handles_degenerate_blocks() {
        for raw in [
            pos_bytes(&[]),
            pos_bytes(&[(0.25, 0.5, 0.75)]),
            pos_bytes(&vec![(0.1, 0.2, 0.3); 64]), // identical Morton duplicates
        ] {
            let (tag, stored) = encode_section(SectionKind::Positions, &raw, Codec::V2Lossless);
            assert!(stored.len() <= raw.len());
            let mut back = vec![0; raw.len()];
            decode_section(
                SectionKind::Positions,
                tag,
                &stored,
                &mut back,
                &mut Vec::new(),
            )
            .unwrap();
            assert_eq!(back, raw);
        }
    }

    #[test]
    fn bad_tags_are_typed_errors() {
        // Tag 2 was the deleted lossy quantizer: like any unknown tag, a
        // typed error for every section kind.
        for tag in [2, 99] {
            for kind in [
                SectionKind::Nodes,
                SectionKind::Positions,
                SectionKind::Attr(AttributeType::F64),
            ] {
                assert!(matches!(
                    decode_section(kind, tag, &[], &mut [], &mut Vec::new()),
                    Err(WireError::BadTag { .. })
                ));
            }
        }
        let scratch = &mut Vec::new();
        assert!(decode_section(SectionKind::Nodes, TAG_SHUFFLE, &[], &mut [], scratch).is_err());
        let out = &mut [0; 12];
        assert!(decode_section(SectionKind::Positions, TAG_RAW, &[1, 2], out, scratch).is_err());
    }

    #[test]
    fn codec_env_parsing() {
        // from_env reads the live environment, so only exercise the
        // unset/default path here; the spellings are covered by name().
        assert_eq!(Codec::V1.name(), "v1");
        assert_eq!(Codec::V2Lossless.name(), "v2-lossless");
        assert!(Codec::V2Lossless.is_v2());
        assert!(!Codec::V1.is_v2());
    }
}
