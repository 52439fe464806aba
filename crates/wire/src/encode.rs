//! Append-only little-endian encoder.

/// Builds a byte buffer by appending little-endian fields.
///
/// The encoder is infallible; all failure handling lives on the decode side.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Encoder {
        Encoder { buf: Vec::new() }
    }

    /// Pre-size the internal buffer.
    pub fn with_capacity(cap: usize) -> Encoder {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the encoder, returning the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Append a little-endian `u8`.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f32`.
    #[inline]
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f64`.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `bool`.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Length-prefixed raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Length-prefixed slice of `u32`.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_u64(v.len() as u64);
        self.buf.reserve(v.len() * 4);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Length-prefixed slice of `u64`.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        self.buf.reserve(v.len() * 8);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Length-prefixed slice of `f32`.
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.put_u64(v.len() as u64);
        self.buf.reserve(v.len() * 4);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Length-prefixed slice of `f64`.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        self.buf.reserve(v.len() * 8);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Zero-pad so the current length is a multiple of `align`.
    ///
    /// Used to place treelets on 4 KiB page boundaries (paper Figure 2).
    pub fn pad_to(&mut self, align: usize) {
        debug_assert!(align.is_power_of_two());
        let rem = self.buf.len() % align;
        if rem != 0 {
            self.buf.resize(self.buf.len() + (align - rem), 0);
        }
    }
}
