//! Little-endian binary codec for libbat file headers and comm messages.
//!
//! The paper's library defines its own on-disk format (the compacted BAT
//! file, Figure 2, and the top-level `.batmeta` file) and exchanges small
//! control structures between ranks during aggregation. Both need a
//! deterministic, versioned, zero-dependency encoding; this crate provides
//! the [`Encoder`]/[`Decoder`] pair every other crate builds on.
//!
//! All integers are little-endian. Variable-length fields are length-prefixed
//! with `u64`. Decoding is panic-free: every read returns a [`WireError`] on
//! truncated or malformed input, so a corrupt file can never crash a reader.

pub mod block;
pub mod crc;
mod decode;
mod encode;
pub mod trailer;

pub use block::{page_align, pages_spanned, Block, PAGE_SIZE};
pub use crc::{crc32c, Crc32c};
pub use decode::Decoder;
pub use encode::Encoder;

use std::fmt;

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the requested field.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes needed.
        needed: usize,
        /// Bytes remaining.
        remaining: usize,
    },
    /// A length prefix exceeded the remaining input (corrupt or hostile data).
    BadLength {
        /// What was being read.
        what: &'static str,
        /// The offending length prefix.
        len: u64,
        /// Bytes remaining.
        remaining: usize,
    },
    /// String field was not valid UTF-8.
    BadUtf8 {
        /// What was being read.
        what: &'static str,
    },
    /// A magic number or version check failed.
    BadMagic {
        /// The expected magic value.
        expected: u32,
        /// The value actually read.
        found: u32,
    },
    /// A stored checksum did not match the bytes it covers.
    BadChecksum {
        /// What was being checked.
        what: &'static str,
        /// The stored CRC32C.
        expected: u32,
        /// The CRC32C of the bytes as read.
        found: u32,
    },
    /// A tag/enum discriminant was out of range.
    BadTag {
        /// What was being read.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// An I/O request backing the decode failed (e.g. a range request
    /// against a remote byte source, after its retry budget).
    Io {
        /// What was being read.
        what: &'static str,
        /// The underlying error, rendered (kept as a string so the error
        /// type stays `Clone + PartialEq`).
        message: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated {
                what,
                needed,
                remaining,
            } => {
                write!(
                    f,
                    "truncated input reading {what}: need {needed} bytes, have {remaining}"
                )
            }
            WireError::BadLength {
                what,
                len,
                remaining,
            } => {
                write!(
                    f,
                    "bad length for {what}: {len} exceeds remaining {remaining} bytes"
                )
            }
            WireError::BadUtf8 { what } => write!(f, "invalid UTF-8 in {what}"),
            WireError::BadMagic { expected, found } => {
                write!(
                    f,
                    "bad magic: expected {expected:#010x}, found {found:#010x}"
                )
            }
            WireError::BadChecksum {
                what,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch in {what}: stored {expected:#010x}, computed {found:#010x}"
            ),
            WireError::BadTag { what, tag } => write!(f, "bad tag for {what}: {tag}"),
            WireError::Io { what, message } => write!(f, "i/o error reading {what}: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Shorthand result type for decoding.
pub type WireResult<T> = Result<T, WireError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut e = Encoder::new();
        e.put_u8(0xab);
        e.put_u16(0xbeef);
        e.put_u32(0xdeadbeef);
        e.put_u64(0x0123456789abcdef);
        e.put_i64(-42);
        e.put_f32(1.5);
        e.put_f64(-2.25);
        e.put_bool(true);
        e.put_bool(false);
        let buf = e.finish();

        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_u8("a").unwrap(), 0xab);
        assert_eq!(d.get_u16("b").unwrap(), 0xbeef);
        assert_eq!(d.get_u32("c").unwrap(), 0xdeadbeef);
        assert_eq!(d.get_u64("d").unwrap(), 0x0123456789abcdef);
        assert_eq!(d.get_i64("e").unwrap(), -42);
        assert_eq!(d.get_f32("f").unwrap(), 1.5);
        assert_eq!(d.get_f64("g").unwrap(), -2.25);
        assert!(d.get_bool("h").unwrap());
        assert!(!d.get_bool("i").unwrap());
        assert!(d.is_empty());
    }

    #[test]
    fn roundtrip_slices_and_strings() {
        let mut e = Encoder::new();
        e.put_str("hello, 世界");
        e.put_bytes(&[1, 2, 3]);
        e.put_u64_slice(&[10, 20, 30]);
        e.put_u32_slice(&[7; 5]);
        e.put_f32_slice(&[0.5, -0.5]);
        e.put_f64_slice(&[3.13, 2.71]);
        let buf = e.finish();

        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_str("s").unwrap(), "hello, 世界");
        assert_eq!(d.get_bytes("b").unwrap(), vec![1, 2, 3]);
        assert_eq!(d.get_u64_vec("u64s").unwrap(), vec![10, 20, 30]);
        assert_eq!(d.get_u32_vec("u32s").unwrap(), vec![7; 5]);
        assert_eq!(d.get_f32_vec("f32s").unwrap(), vec![0.5, -0.5]);
        assert_eq!(d.get_f64_vec("f64s").unwrap(), vec![3.13, 2.71]);
        assert!(d.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Encoder::new();
        e.put_u64(7);
        let buf = e.finish();
        let mut d = Decoder::new(&buf[..4]);
        let err = d.get_u64("x").unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut e = Encoder::new();
        e.put_u64(u64::MAX); // absurd length prefix
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        let err = d.get_bytes("payload").unwrap_err();
        assert!(matches!(err, WireError::BadLength { .. }));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xff, 0xfe]);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        let err = d.get_str("s").unwrap_err();
        assert!(matches!(err, WireError::BadUtf8 { .. }));
    }

    #[test]
    fn empty_collections() {
        let mut e = Encoder::new();
        e.put_str("");
        e.put_bytes(&[]);
        e.put_f64_slice(&[]);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_str("s").unwrap(), "");
        assert!(d.get_bytes("b").unwrap().is_empty());
        assert!(d.get_f64_vec("f").unwrap().is_empty());
    }

    #[test]
    fn float_bit_exactness() {
        // NaNs and signed zeros must roundtrip bit-exactly.
        let vals = [f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE];
        let mut e = Encoder::new();
        e.put_f64_slice(&vals);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        let out = d.get_f64_vec("v").unwrap();
        for (a, b) in vals.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pad_to_alignment() {
        let mut e = Encoder::new();
        e.put_u8(1);
        e.pad_to(4096);
        assert_eq!(e.len() % 4096, 0);
        e.put_u8(2);
        let buf = e.finish();
        assert_eq!(buf[0], 1);
        assert_eq!(buf[4096], 2);
        // Padding already aligned is a no-op.
        let mut e2 = Encoder::new();
        e2.pad_to(4096);
        assert_eq!(e2.len(), 0);
    }
}
