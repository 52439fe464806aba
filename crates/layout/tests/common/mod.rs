//! Shared helpers for the bat-layout integration tests.

/// 64-bit FNV-1a over a byte slice: the fingerprint the golden files, the
/// pool-size determinism check and the index plans compare.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
