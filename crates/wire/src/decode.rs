//! Panic-free little-endian decoder over a borrowed byte slice.

use crate::{WireError, WireResult};

/// Reads fields sequentially from a byte slice.
///
/// Every accessor takes a `what` label naming the field being read so
/// decoding errors in deep format code produce actionable messages.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Start decoding at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Current read offset from the start of the buffer.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Jump to an absolute offset (e.g. a treelet offset from a file table).
    pub fn seek(&mut self, pos: usize, what: &'static str) -> WireResult<()> {
        if pos > self.buf.len() {
            return Err(WireError::Truncated {
                what,
                needed: pos,
                remaining: self.buf.len(),
            });
        }
        self.pos = pos;
        Ok(())
    }

    #[inline]
    fn take(&mut self, n: usize, what: &'static str) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                what,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a little-endian `u8` (`what` labels decode errors).
    #[inline]
    pub fn get_u8(&mut self, what: &'static str) -> WireResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u16` (`what` labels decode errors).
    #[inline]
    pub fn get_u16(&mut self, what: &'static str) -> WireResult<u16> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32` (`what` labels decode errors).
    #[inline]
    pub fn get_u32(&mut self, what: &'static str) -> WireResult<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64` (`what` labels decode errors).
    #[inline]
    pub fn get_u64(&mut self, what: &'static str) -> WireResult<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("len 8")))
    }

    /// Read a little-endian `i64` (`what` labels decode errors).
    #[inline]
    pub fn get_i64(&mut self, what: &'static str) -> WireResult<i64> {
        Ok(self.get_u64(what)? as i64)
    }

    /// Read a little-endian `f32` (`what` labels decode errors).
    #[inline]
    pub fn get_f32(&mut self, what: &'static str) -> WireResult<f32> {
        Ok(f32::from_bits(self.get_u32(what)?))
    }

    /// Read a little-endian `f64` (`what` labels decode errors).
    #[inline]
    pub fn get_f64(&mut self, what: &'static str) -> WireResult<f64> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Read a little-endian `bool` (`what` labels decode errors).
    #[inline]
    pub fn get_bool(&mut self, what: &'static str) -> WireResult<bool> {
        Ok(self.get_u8(what)? != 0)
    }

    /// `usize` decoded from `u64`; rejects values over `usize::MAX`.
    #[inline]
    pub fn get_usize(&mut self, what: &'static str) -> WireResult<usize> {
        let v = self.get_u64(what)?;
        usize::try_from(v).map_err(|_| WireError::BadLength {
            what,
            len: v,
            remaining: self.remaining(),
        })
    }

    /// Read and validate a length prefix for elements of `elem_size` bytes.
    fn get_len(&mut self, elem_size: usize, what: &'static str) -> WireResult<usize> {
        let len = self.get_u64(what)?;
        let total = (len as u128) * elem_size as u128;
        if total > self.remaining() as u128 {
            return Err(WireError::BadLength {
                what,
                len,
                remaining: self.remaining(),
            });
        }
        Ok(len as usize)
    }

    /// Length-prefixed raw bytes, borrowed from the input.
    pub fn get_bytes_ref(&mut self, what: &'static str) -> WireResult<&'a [u8]> {
        let len = self.get_len(1, what)?;
        self.take(len, what)
    }

    /// Length-prefixed raw bytes, copied.
    pub fn get_bytes(&mut self, what: &'static str) -> WireResult<Vec<u8>> {
        Ok(self.get_bytes_ref(what)?.to_vec())
    }

    /// Raw bytes with no length prefix.
    pub fn get_raw(&mut self, n: usize, what: &'static str) -> WireResult<&'a [u8]> {
        self.take(n, what)
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &'static str) -> WireResult<String> {
        let bytes = self.get_bytes_ref(what)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| WireError::BadUtf8 { what })
    }

    /// Length-prefixed `u32` vector.
    pub fn get_u32_vec(&mut self, what: &'static str) -> WireResult<Vec<u32>> {
        let len = self.get_len(4, what)?;
        let raw = self.take(len * 4, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Length-prefixed `u64` vector.
    pub fn get_u64_vec(&mut self, what: &'static str) -> WireResult<Vec<u64>> {
        let len = self.get_len(8, what)?;
        let raw = self.take(len * 8, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("len 8")))
            .collect())
    }

    /// Length-prefixed `f32` vector.
    pub fn get_f32_vec(&mut self, what: &'static str) -> WireResult<Vec<f32>> {
        let len = self.get_len(4, what)?;
        let raw = self.take(len * 4, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Length-prefixed `f64` vector.
    pub fn get_f64_vec(&mut self, what: &'static str) -> WireResult<Vec<f64>> {
        let len = self.get_len(8, what)?;
        let raw = self.take(len * 8, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("len 8")))
            .collect())
    }

    /// Skip forward over alignment padding to the next multiple of `align`.
    pub fn skip_to_alignment(&mut self, align: usize, what: &'static str) -> WireResult<()> {
        debug_assert!(align.is_power_of_two());
        let rem = self.pos % align;
        if rem != 0 {
            self.take(align - rem, what)?;
        }
        Ok(())
    }

    /// Check a `u32` magic value.
    pub fn expect_magic(&mut self, expected: u32) -> WireResult<()> {
        let found = self.get_u32("magic")?;
        if found != expected {
            return Err(WireError::BadMagic { expected, found });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoder;

    #[test]
    fn seek_and_position() {
        let mut e = Encoder::new();
        e.put_u32(1);
        e.put_u32(2);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        d.seek(4, "second").unwrap();
        assert_eq!(d.get_u32("v").unwrap(), 2);
        assert_eq!(d.position(), 8);
        assert!(d.seek(9, "oob").is_err());
    }

    #[test]
    fn magic_check() {
        let mut e = Encoder::new();
        e.put_u32(0xB47B47);
        let buf = e.finish();
        assert!(Decoder::new(&buf).expect_magic(0xB47B47).is_ok());
        assert!(matches!(
            Decoder::new(&buf).expect_magic(0xFF),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn alignment_skip() {
        let mut e = Encoder::new();
        e.put_u8(1);
        e.pad_to(8);
        e.put_u8(2);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_u8("a").unwrap(), 1);
        d.skip_to_alignment(8, "pad").unwrap();
        assert_eq!(d.get_u8("b").unwrap(), 2);
    }

    #[test]
    fn get_usize_rejects_giant_on_corrupt() {
        // Craft a valid u64 that can't be a length on any platform input.
        let mut e = Encoder::new();
        e.put_u64(42);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_usize("n").unwrap(), 42);
    }
}
