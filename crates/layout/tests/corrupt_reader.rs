//! Corrupt-input robustness: a reader over untrusted file bytes must
//! return `Err` on damage, never panic and never hang. Every test here
//! drives `BatFile` decode + queries over deliberately mangled buffers.

use bat_geom::rng::Xoshiro256;
use bat_geom::{Aabb, Vec3};
use bat_layout::format::{read_head, write_bat_with, SectionRec};
use bat_layout::{AttributeDesc, BatBuilder, BatConfig, BatFile, Codec, ParticleSet, Query};
use bat_wire::WireError;

fn build_file_bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = Xoshiro256::new(seed);
    let mut set = ParticleSet::new(vec![
        AttributeDesc::f64("energy"),
        AttributeDesc::f32("speed"),
    ]);
    for _ in 0..n {
        let p = Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32());
        set.push(p, &[p.x as f64 * 100.0, p.z as f64 * 10.0]);
    }
    BatBuilder::new(BatConfig::default())
        .build(set, Aabb::unit())
        .to_bytes()
}

/// Open + run the standard query battery; the only acceptable outcomes are
/// `Ok` (the damage happened to be benign) or `Err` — never a panic.
fn exercise(bytes: Vec<u8>) {
    let file = match BatFile::from_bytes(bytes) {
        Ok(f) => f,
        Err(_) => return,
    };
    let queries = [
        Query::new(),
        Query::new().with_bounds(Aabb::new(Vec3::ZERO, Vec3::splat(0.5))),
        Query::new().with_filter(0, 10.0, 60.0),
        Query::new().with_quality(0.3),
        Query::new().with_prev_quality(0.3).with_quality(0.8),
    ];
    for q in &queries {
        let _ = file.query(q, |_| {});
    }
}

#[test]
fn truncation_at_every_length_errs_cleanly() {
    let bytes = build_file_bytes(1_000, 1);
    // Sweep truncation points: dense near the head, strided through the body.
    let mut cuts: Vec<usize> = (0..bytes.len().min(512)).collect();
    cuts.extend((512..bytes.len()).step_by(199));
    for cut in cuts {
        exercise(bytes[..cut].to_vec());
    }
}

#[test]
fn single_bit_flips_never_panic() {
    let bytes = build_file_bytes(400, 2);
    // Flip one bit at every byte of the head, where all the structural
    // fields live (child links, counts, offsets, dictionary ids), then at a
    // stride through the particle body. Benign flips are expected in the
    // body — the point is that *nothing* panics or hangs.
    let head_len = 2048.min(bytes.len());
    for pos in (0..head_len).chain((head_len..bytes.len()).step_by(509)) {
        for bit in [0u8, 7] {
            let mut mangled = bytes.clone();
            mangled[pos] ^= 1 << bit;
            exercise(mangled);
        }
    }
}

#[test]
fn scrambled_head_bytes_never_panic() {
    let bytes = build_file_bytes(600, 3);
    let mut rng = Xoshiro256::new(99);
    // Overwrite random head windows with random garbage: this forges
    // plausible-but-wrong child links, bitmap ids, counts, and offsets.
    for _ in 0..150 {
        let mut mangled = bytes.clone();
        let window = 1 + (rng.next_u64() as usize % 16);
        let start = rng.next_u64() as usize % mangled.len().saturating_sub(window).max(1);
        for b in &mut mangled[start..start + window] {
            *b = rng.next_u64() as u8;
        }
        exercise(mangled);
    }
}

#[test]
fn all_ones_and_all_zero_regions_never_panic() {
    let bytes = build_file_bytes(800, 4);
    for fill in [0x00u8, 0xFF] {
        // Blank out successive 64-byte windows of the head region.
        for start in (0..bytes.len().min(2048)).step_by(64) {
            let mut mangled = bytes.clone();
            let end = (start + 64).min(mangled.len());
            for b in &mut mangled[start..end] {
                *b = fill;
            }
            exercise(mangled);
        }
    }
}

#[test]
fn garbage_buffers_err() {
    assert!(BatFile::from_bytes(Vec::new()).is_err());
    assert!(BatFile::from_bytes(vec![0u8; 64]).is_err());
    assert!(BatFile::from_bytes(vec![0xFFu8; 4096]).is_err());
    let mut rng = Xoshiro256::new(5);
    for _ in 0..50 {
        let len = (rng.next_u64() % 8192) as usize;
        let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        exercise(buf);
    }
}

// ---------------------------------------------------------------------------
// v2 (compressed treelets): the codec table and the compressed blocks are
// extra attack surface. Damage must surface as a typed `Err` before any
// oversized allocation — never a panic, hang, or OOM.
// ---------------------------------------------------------------------------

/// Clustered particles so v2 sections genuinely compress (non-raw tags):
/// uniform data yields near-empty treelets whose sections all fall back to
/// raw, which would leave the shuffle/RLE decode paths unexercised.
fn build_v2_file_bytes(n: usize, seed: u64, codec: Codec) -> Vec<u8> {
    let mut rng = Xoshiro256::new(seed);
    let centers = [
        Vec3::new(0.2, 0.3, 0.4),
        Vec3::new(0.7, 0.6, 0.2),
        Vec3::new(0.5, 0.8, 0.7),
    ];
    let mut set = ParticleSet::new(vec![
        AttributeDesc::f64("energy"),
        AttributeDesc::f32("speed"),
    ]);
    for i in 0..n {
        let c = centers[i % centers.len()];
        let mut jitter = || (rng.next_f32() - 0.5) * 0.04;
        let p = Vec3::new(
            (c.x + jitter()).clamp(0.0, 1.0),
            (c.y + jitter()).clamp(0.0, 1.0),
            (c.z + jitter()).clamp(0.0, 1.0),
        );
        set.push(p, &[p.x as f64 * 100.0, p.z as f64 * 10.0]);
    }
    let bat = BatBuilder::new(BatConfig::default()).build(set, Aabb::unit());
    write_bat_with(&bat, codec)
}

/// Byte span of the v2 section codec table inside the head (it is the last
/// head component, directly before `head_end`).
fn codec_table_span(bytes: &[u8]) -> std::ops::Range<usize> {
    let head = read_head(bytes).expect("pristine v2 file must parse");
    let table_bytes = head.leaves.len() * (2 + head.descs.len()) * SectionRec::BYTES;
    let end = head.head_end as usize;
    end - table_bytes..end
}

#[test]
fn v2_truncation_at_every_length_errs_cleanly() {
    for codec in [Codec::V1, Codec::V2Lossless] {
        let bytes = build_v2_file_bytes(3_000, 11, codec);
        let mut cuts: Vec<usize> = (0..bytes.len().min(512)).collect();
        cuts.extend((512..bytes.len()).step_by(211));
        for cut in cuts {
            exercise(bytes[..cut].to_vec());
        }
    }
}

#[test]
fn v2_codec_table_bit_flips_never_panic() {
    let bytes = build_v2_file_bytes(3_000, 12, Codec::V2Lossless);
    let table = codec_table_span(&bytes);
    for pos in table {
        for bit in [0u8, 3, 7] {
            let mut mangled = bytes.clone();
            mangled[pos] ^= 1 << bit;
            exercise(mangled);
        }
    }
}

#[test]
fn v2_bad_codec_tags_rejected_at_head_parse() {
    let bytes = build_v2_file_bytes(2_000, 13, Codec::V2Lossless);
    let table = codec_table_span(&bytes);
    // Every 5-byte SectionRec starts with its tag byte; any unregistered
    // value must be rejected while parsing the head, before any block work.
    // Tag 2 is the retired lossy quantizer's: old files carrying it must
    // fail here too, not reach a decoder.
    for bad_tag in [2u8, 3, 4, 17, 0x80, 0xFF] {
        for rec_start in table.clone().step_by(SectionRec::BYTES) {
            let mut mangled = bytes.clone();
            mangled[rec_start] = bad_tag;
            assert!(
                matches!(
                    read_head(&mangled),
                    Err(WireError::BadTag { what: "section codec tag", tag })
                        if tag == bad_tag as u64
                ),
                "tag {bad_tag} at {rec_start}: expected BadTag from read_head"
            );
            assert!(
                BatFile::from_bytes(mangled).is_err(),
                "tag {bad_tag} at {rec_start} must be a typed parse error"
            );
        }
    }
}

#[test]
fn v2_declared_size_overflow_rejected_before_allocating() {
    let bytes = build_v2_file_bytes(2_000, 14, Codec::V2Lossless);
    let table = codec_table_span(&bytes);
    // Forge enormous stored lengths: each claim must be rejected against the
    // section's decoded size / the file length at head parse — reaching the
    // allocator with an attacker-controlled length would be an OOM vector.
    for rec_start in table.clone().step_by(SectionRec::BYTES) {
        let mut mangled = bytes.clone();
        mangled[rec_start + 1..rec_start + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            BatFile::from_bytes(mangled).is_err(),
            "stored_len u32::MAX at {rec_start} must be rejected"
        );
    }
    // And a subtler one: stored_len one byte past the section's raw size.
    let head = read_head(&bytes).unwrap();
    let mut rec_start = table.start;
    for leaf in &head.leaves {
        let layout = bat_layout::format::TreeletLayout::compute(
            leaf.num_nodes as usize,
            leaf.num_particles as usize,
            &head.descs,
        );
        for (_, range) in layout.sections(&head.descs) {
            let raw_len = range.len();
            let mut mangled = bytes.clone();
            mangled[rec_start + 1..rec_start + 5]
                .copy_from_slice(&((raw_len as u32) + 1).to_le_bytes());
            assert!(
                BatFile::from_bytes(mangled).is_err(),
                "stored_len > raw_len at {rec_start} must be rejected"
            );
            rec_start += SectionRec::BYTES;
        }
    }
}

#[test]
fn v2_truncated_compressed_blocks_err() {
    let bytes = build_v2_file_bytes(3_000, 15, Codec::V2Lossless);
    let head = read_head(&bytes).unwrap();
    // Cut mid-way through each stored treelet block: the head-parse bound
    // `leaf.offset + stored_total <= file_len` must catch every one.
    for (i, leaf) in head.leaves.iter().enumerate() {
        let stored = head.stored_block_size(i).unwrap();
        if stored == 0 {
            continue;
        }
        let cut = leaf.offset as usize + stored / 2;
        if cut < bytes.len() {
            assert!(
                BatFile::from_bytes(bytes[..cut].to_vec()).is_err(),
                "file cut inside treelet {i}'s stored block must not open"
            );
        }
    }
}

#[test]
fn v2_scrambled_blocks_never_panic() {
    // Keep the head pristine but scramble compressed payload bytes: decode
    // must either error or produce garbage points — never panic or hang.
    let bytes = build_v2_file_bytes(3_000, 16, Codec::V2Lossless);
    let head = read_head(&bytes).unwrap();
    let body_start = head.leaves.iter().map(|l| l.offset).min().unwrap_or(0) as usize;
    let mut rng = Xoshiro256::new(44);
    for _ in 0..60 {
        let mut mangled = bytes.clone();
        let span = body_start..mangled.len();
        let window = 1 + (rng.next_u64() as usize % 32);
        let start =
            span.start + rng.next_u64() as usize % (span.len().saturating_sub(window)).max(1);
        for b in &mut mangled[start..(start + window).min(bytes.len())] {
            *b = rng.next_u64() as u8;
        }
        exercise(mangled);
    }
}
