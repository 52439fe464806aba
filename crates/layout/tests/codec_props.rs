//! Property tests for the v2 treelet codecs (DESIGN.md §15): the lossless
//! pipeline (Morton-delta XOR + bitshuffle + RLE) must be byte-exact for
//! *arbitrary* column blocks — including empty, single-record, and
//! all-identical (duplicate-Morton) blocks.

use bat_layout::codec::{
    decode_lossless, decode_section, encode_lossless, encode_section, rle_decode, rle_encode,
    Codec, SectionKind, TAG_RAW,
};
use bat_layout::AttributeType;
use proptest::prelude::*;

/// Decode a `shuffle` section into a fresh `len`-byte buffer.
fn unshuffled(stored: &[u8], record: usize, word: usize, len: usize) -> Vec<u8> {
    let mut out = vec![0; len];
    decode_lossless(stored, record, word, &mut out, &mut Vec::new()).expect("decode own encoding");
    out
}

/// Arbitrary bytes (full 0..=255 value range; the shim has no `any::<u8>()`).
fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u16..256, len).prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

/// Arbitrary position blocks: n records of 12 bytes (three LE f32 words),
/// drawn from raw bytes so NaN/Inf/denormal bit patterns are included —
/// the lossless path must treat them as opaque bytes.
fn position_block() -> impl Strategy<Value = Vec<u8>> {
    bytes(0..200).prop_map(|mut v| {
        v.truncate(v.len() - v.len() % 12);
        v
    })
}

/// Blocks of `word`-sized records with heavy duplication: a handful of
/// distinct records repeated in a cycle (sorted layouts repeat runs).
fn dup_block(word: usize) -> impl Strategy<Value = Vec<u8>> {
    (bytes(word * 3..word * 3 + 1), 0usize..64).prop_map(move |(pool, n)| {
        let mut out = Vec::with_capacity(n * word);
        for i in 0..n {
            let rec = (i % 3) * word;
            out.extend_from_slice(&pool[rec..rec + word]);
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn rle_roundtrips_arbitrary_bytes(data in bytes(0..2048)) {
        let enc = rle_encode(&data);
        let mut dec = vec![0; data.len()];
        rle_decode(&enc, &mut dec).expect("own encoding must decode");
        prop_assert_eq!(dec, data);
    }

    #[test]
    fn lossless_positions_roundtrip_exact(raw in position_block()) {
        let (tag, stored) = encode_lossless(&raw, 12, 4);
        prop_assert!(stored.len() <= raw.len(), "stored may never exceed raw");
        let back = if tag == TAG_RAW {
            stored.clone()
        } else {
            unshuffled(&stored, 12, 4, raw.len())
        };
        prop_assert_eq!(back, raw);
    }

    #[test]
    fn lossless_attr_roundtrip_exact(
        raw in bytes(0..400),
        wide in 0u8..2,
    ) {
        let word = if wide == 1 { 8 } else { 4 };
        let mut raw = raw;
        raw.truncate(raw.len() - raw.len() % word);
        let (tag, stored) = encode_lossless(&raw, word, word);
        let back = if tag == TAG_RAW {
            stored.clone()
        } else {
            unshuffled(&stored, word, word, raw.len())
        };
        prop_assert_eq!(back, raw);
    }

    /// Duplicate-record blocks (identical Morton codes) are the
    /// best case for delta coding and a classic off-by-one trap for RLE.
    #[test]
    fn lossless_exact_on_duplicate_records(raw in dup_block(12)) {
        let (tag, stored) = encode_lossless(&raw, 12, 4);
        let back = if tag == TAG_RAW {
            stored.clone()
        } else {
            unshuffled(&stored, 12, 4, raw.len())
        };
        prop_assert_eq!(back, raw);
    }

    /// Full section round trip through the tag dispatch used by the file
    /// reader, for every section kind under the lossless codec. Arbitrary
    /// bytes almost never compress, so half the cases repeat one 24-byte
    /// record (a multiple of every kind's record), which takes the
    /// `shuffle` path.
    #[test]
    fn lossless_section_roundtrip_exact(
        arbitrary in position_block(),
        record in bytes(24..25),
        reps in 0usize..64,
        repeated in 0u8..2,
        which in 0u8..3,
    ) {
        let raw = if repeated == 1 { record.repeat(reps) } else { arbitrary };
        let (kind, raw) = match which {
            0 => (SectionKind::Positions, raw),
            1 => {
                let mut r = raw;
                r.truncate(r.len() - r.len() % 4);
                (SectionKind::Attr(AttributeType::F32), r)
            }
            _ => {
                let mut r = raw;
                r.truncate(r.len() - r.len() % 8);
                (SectionKind::Attr(AttributeType::F64), r)
            }
        };
        let (tag, stored) = encode_section(kind, &raw, Codec::V2Lossless);
        let mut scratch = Vec::new();
        let mut back = vec![0; raw.len()];
        decode_section(kind, tag, &stored, &mut back, &mut scratch).expect("decode own encoding");
        prop_assert_eq!(&back, &raw);
        // Decoding fills the destination whatever it held: a stale 0xFF
        // image (and a scratch buffer left over from the decode above)
        // must give the same bytes.
        let mut stale = vec![0xFF; raw.len()];
        decode_section(kind, tag, &stored, &mut stale, &mut scratch).expect("decode own encoding");
        prop_assert_eq!(stale, raw);
    }
}

/// The fixed degenerate shapes, spelled out so a proptest shrink can never
/// hide them: empty block, one record, all-identical records.
#[test]
fn lossless_degenerate_blocks_are_exact() {
    for raw in [
        Vec::new(),
        vec![0x42u8; 12],
        [0xAB; 12].repeat(57).to_vec(),
        vec![0u8; 12 * 33],
    ] {
        let (tag, stored) = encode_lossless(&raw, 12, 4);
        let back = if tag == TAG_RAW {
            stored
        } else {
            unshuffled(&stored, 12, 4, raw.len())
        };
        assert_eq!(back, raw);
    }
}
