//! Golden-bytes guard for the compacted BAT format.
//!
//! The FNV-1a hashes below were generated from the seed (pre-`BatWriter`)
//! `write_bat` implementation on fixed-RNG datasets. Any change to the
//! on-disk encoding — intentional or not — trips this test; a format bump
//! must update the hashes *and* the format `VERSION` together.

mod common;

use bat_geom::rng::Xoshiro256;
use bat_geom::{Aabb, Vec3};
use bat_layout::build::Bat;
use bat_layout::codec::Codec;
use bat_layout::{AttributeDesc, BatBuilder, BatConfig, ParticleSet};
use common::fnv1a;

/// v1 bytes, pinned regardless of `BAT_TREELET_CODEC` / `BAT_INDEX_ATTRS`
/// — the goldens guard the *v1, index-free* encoding; CI reruns this suite
/// under `v2-lossless` and `BAT_INDEX_ATTRS=all`.
fn v1_bytes(bat: &Bat) -> Vec<u8> {
    bat_layout::format::write_bat_with(bat, Codec::V1)
}

/// Explicitly-index-free writes are byte-identical to the plain path, so
/// golden files never shift when index support is compiled in.
#[test]
fn index_free_writes_are_byte_identical() {
    let bat = golden_bat(257, 2);
    let plain = bat_layout::format::write_bat_with(&bat, Codec::V1);
    let spec_none =
        bat_layout::format::write_bat_indexed(&bat, Codec::V1, &bat_layout::IndexSpec::None);
    assert_eq!(plain, spec_none);
}

fn golden_bat(n: usize, seed: u64) -> Bat {
    let mut rng = Xoshiro256::new(seed);
    let mut set = ParticleSet::new(vec![
        AttributeDesc::f64("mass"),
        AttributeDesc::f32("temp"),
        AttributeDesc::f64("vx"),
    ]);
    for _ in 0..n {
        let p = Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32());
        set.push(
            p,
            &[p.x as f64 * 10.0, p.y as f64 * 100.0, rng.next_f32() as f64],
        );
    }
    BatBuilder::new(BatConfig::default()).build(set, Aabb::unit())
}

/// `(n, rng seed, file length, FNV-1a of the whole file)` captured from the
/// seed encoder.
const GOLDEN: [(usize, u64, usize, u64); 4] = [
    (0, 1, 173, 0x210b_3bed_6ef0_1b15),
    (257, 2, 1_032_274, 0x1102_a642_d05b_fda4),
    (5000, 3, 12_173_394, 0x2078_0a1d_883f_942a),
    (20_000, 4, 16_957_842, 0x14da_86f9_fdd2_09cf),
];

#[test]
fn bytes_identical_to_seed_encoder() {
    for (n, seed, len, fnv) in GOLDEN {
        let bytes = v1_bytes(&golden_bat(n, seed));
        assert_eq!(bytes.len(), len, "file length changed for n={n}");
        assert_eq!(fnv1a(&bytes), fnv, "file bytes changed for n={n}");
    }
}

/// `(n, rng seed, file length, FNV-1a of the whole file)` of the v2-lossless
/// encoding of the same four data sets. The 20 000-point file carries both
/// codec tags (4 888 `shuffle` and 15 452 `raw` sections). A change to a
/// section codec or to the v2 block layout updates these on purpose.
const GOLDEN_V2: [(usize, u64, usize, u64); 4] = [
    (0, 1, 173, 0x5836_f685_8648_9264),
    (257, 2, 1_040_466, 0xeaf0_4eaa_5c25_e9c0),
    (5000, 3, 12_247_122, 0xffa2_3397_57a1_be3d),
    (20_000, 4, 17_060_188, 0x8fae_fc2a_443b_2cd4),
];

#[test]
fn v2_lossless_bytes_are_pinned() {
    for (n, seed, len, fnv) in GOLDEN_V2 {
        let bytes = bat_layout::format::write_bat_with(&golden_bat(n, seed), Codec::V2Lossless);
        assert_eq!(bytes.len(), len, "v2 file length changed for n={n}");
        assert_eq!(fnv1a(&bytes), fnv, "v2 file bytes changed for n={n}");
    }
}

#[test]
fn default_codec_is_v1_when_env_unset() {
    // `Bat::to_bytes` follows `BAT_TREELET_CODEC` and `BAT_INDEX_ATTRS`;
    // with both knobs unset it must keep producing the golden v1 bytes.
    if !matches!(Codec::from_env(), Codec::V1) {
        return; // codec-matrix CI run — v2 bytes are covered elsewhere
    }
    let index_attrs = bat_obs::knobs::INDEX_ATTRS.get().unwrap_or_default();
    if !bat_layout::IndexSpec::parse(&index_attrs).is_none() {
        return; // index-matrix CI run — indexed bytes are covered elsewhere
    }
    let (n, seed, len, fnv) = GOLDEN[2];
    let bytes = golden_bat(n, seed).to_bytes();
    assert_eq!(bytes.len(), len);
    assert_eq!(fnv1a(&bytes), fnv);
}

#[test]
fn streaming_writer_matches_vec_writer() {
    for (n, seed, ..) in GOLDEN {
        let bat = golden_bat(n, seed);
        let vec_path = bat.to_bytes();
        let mut streamed = Vec::new();
        let written = bat.write_to(&mut streamed).unwrap();
        assert_eq!(written as usize, streamed.len());
        assert_eq!(streamed, vec_path, "streaming output diverged for n={n}");
    }
}

#[test]
fn writer_precomputes_exact_sizes_and_offsets() {
    let bat = golden_bat(5000, 3);
    let writer = bat.writer_with(Codec::V1);
    let bytes = v1_bytes(&bat);
    assert_eq!(writer.file_size(), bytes.len());
    let head = bat_layout::format::read_head(&bytes).unwrap();
    assert_eq!(writer.head_end(), head.head_end);
    let offsets: Vec<usize> = head.leaves.iter().map(|l| l.offset as usize).collect();
    assert_eq!(writer.treelet_offsets(), &offsets[..]);
}

#[test]
fn copy_accounting_streaming_stages_only_the_head() {
    // Pinned to v1: the v2 path stages the encoded treelet buffers in memory
    // as well, so "only the head" is a v1-specific guarantee.
    let bat = golden_bat(5000, 3);
    let writer = bat.writer_with(Codec::V1);
    let head = writer.head_end();
    let file = writer.file_size() as u64;
    assert!(
        head < file / 10,
        "head should be a small fraction of the file"
    );

    let reg = std::sync::Arc::new(bat_obs::Registry::new());
    let _on = bat_obs::enable();
    let _scope = bat_obs::scope(reg.clone());
    let _ = v1_bytes(&bat);
    let vec_copied = reg.snapshot().counter("compact.bytes_copied").unwrap_or(0);
    let mut sink = std::io::sink();
    writer.write_to(&mut sink).unwrap();
    let total = reg.snapshot().counter("compact.bytes_copied").unwrap_or(0);
    assert_eq!(vec_copied, file, "Vec path materializes the whole file");
    assert_eq!(
        total - vec_copied,
        head,
        "streaming path stages only the head"
    );
}
