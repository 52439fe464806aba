//! v2 treelet section codecs (DESIGN.md §15).
//!
//! A v2 file stores each treelet as a sequence of independently coded
//! *sections* — node records, positions, one column per attribute — with a
//! per-section codec tag and stored length recorded in the file head. The
//! decoded bytes of a block are laid out exactly like a v1 treelet block
//! ([`crate::format::TreeletLayout`]), so everything above the decode step
//! (traversal, progressive slicing, exact filtering) is shared between the
//! two versions.
//!
//! Codec registry (tag byte in the head's section table):
//!
//! | tag | name      | pipeline                                             |
//! |-----|-----------|------------------------------------------------------|
//! | 0   | `raw`     | verbatim bytes                                       |
//! | 1   | `shuffle` | XOR-delta over records → bitshuffle → zero-run RLE   |
//! | 2   | `quant`   | error-bounded bit-adaptive quantization (lossy)      |
//!
//! `shuffle` is lossless and exploits the build's Morton ordering: adjacent
//! particles are spatial neighbours, so XOR-ing each position/attribute
//! record with its predecessor clears the high bits, bit-plane transposition
//! groups those cleared bits into long zero runs, and a byte-level zero-run
//! RLE removes them. `quant` is **opt-in** and follows the bit-adaptive
//! scheme of "An Error-Bounded Lossy Compression Method with Bit-Adaptive
//! Quantization for Particle Data": values are quantized onto a uniform grid
//! over the section's local value range with just enough bits that every
//! *decoded* value is within a user-supplied absolute error bound of its
//! original; the bound is stored in the section header. Node records are
//! always `raw` — they are the traversal-hot ~3 % of a block.
//!
//! Every encoder falls back to `raw` whenever its output would not be
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
/// Error-bounded bit-adaptive quantization (lossy, opt-in).
pub const TAG_QUANT: u8 = 2;
/// Largest valid codec tag.
pub const MAX_TAG: u8 = TAG_QUANT;

/// Default absolute error bound when `BAT_CODEC_ERROR_BOUND` is unset.
pub const DEFAULT_ERROR_BOUND: f64 = 1e-3;

/// Write-time codec selection for a whole file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Codec {
    /// Version-1 format: verbatim treelet blocks, byte-identical to the
    /// seed encoder (pinned by golden hashes).
    V1,
    /// Version-2 format, lossless sections only.
    V2Lossless,
    /// Version-2 format with the error-bounded lossy path enabled for
    /// positions and attribute columns (absolute bound, stored per section).
    V2Lossy {
        /// Maximum absolute error of any decoded position coordinate or
        /// attribute value.
        error_bound: f64,
    },
}

impl Codec {
    /// Codec from `BAT_TREELET_CODEC` (`v1` | `v2-lossless` | `v2-lossy`;
    /// unset → `v1`) and `BAT_CODEC_ERROR_BOUND` (absolute bound for the
    /// lossy path, default `1e-3`), read when a writer is built.
    pub fn from_env() -> Codec {
        match knobs::TREELET_CODEC.get().as_deref() {
            Some("v2-lossless") => Codec::V2Lossless,
            Some("v2-lossy") => Codec::V2Lossy {
                error_bound: knobs::CODEC_ERROR_BOUND
                    .float()
                    .unwrap_or(DEFAULT_ERROR_BOUND),
            },
            _ => Codec::V1,
        }
    }

    /// True for either v2 variant.
    pub fn is_v2(&self) -> bool {
        !matches!(self, Codec::V1)
    }

    /// Stable name (the `BAT_TREELET_CODEC` spelling).
    pub fn name(&self) -> &'static str {
        match self {
            Codec::V1 => "v1",
            Codec::V2Lossless => "v2-lossless",
            Codec::V2Lossy { .. } => "v2-lossy",
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
    let n = data.len() / record;
    for r in (1..n).rev() {
        let (prev, cur) = data.split_at_mut(r * record);
        let prev = &prev[(r - 1) * record..];
        for k in 0..record {
            cur[k] ^= prev[k];
        }
    }
}

/// Inverse of [`xor_delta_encode`].
pub fn xor_delta_decode(data: &mut [u8], record: usize) {
    debug_assert!(record > 0 && data.len().is_multiple_of(record));
    let n = data.len() / record;
    for r in 1..n {
        let (prev, cur) = data.split_at_mut(r * record);
        let prev = &prev[(r - 1) * record..];
        for k in 0..record {
            cur[k] ^= prev[k];
        }
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

/// Inverse of [`bitshuffle`] for `n` elements of `elem` bytes; rejects a
/// shuffled buffer whose length does not match that geometry.
pub fn bitunshuffle(data: &[u8], elem: usize, n: usize) -> WireResult<Vec<u8>> {
    debug_assert!(elem > 0);
    let stride = n.div_ceil(8);
    if data.len() != elem * 8 * stride {
        return Err(WireError::BadLength {
            what: "bitshuffled section",
            len: data.len() as u64,
            remaining: elem * 8 * stride,
        });
    }
    let mut out = vec![0u8; n * elem];
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
    Ok(out)
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
        if shift >= 64 {
            return Err(WireError::BadTag {
                what: "rle varint width",
                tag: shift as u64,
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

/// Inverse of [`rle_encode`]. The output length is dictated by the caller
/// (derived from trusted head geometry, capped by [`MAX_DECODED_BLOCK`]);
/// runs claiming to exceed it are a typed error, so corrupt streams can
/// never over-allocate.
pub fn rle_decode(data: &[u8], expected_len: usize) -> WireResult<Vec<u8>> {
    let overflow = |len: u64| WireError::BadLength {
        what: "rle run length",
        len,
        remaining: expected_len,
    };
    let mut out = vec![0u8; expected_len];
    let mut w = 0usize;
    let mut i = 0usize;
    while i < data.len() {
        let (z, ni) = get_varint(data, i)?;
        i = ni;
        if z > (expected_len - w) as u64 {
            return Err(overflow(z));
        }
        w += z as usize; // the run is already zeroed
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
    Ok(out)
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

/// Decode a [`TAG_SHUFFLE`] section back to exactly `raw_len` bytes.
pub fn decode_lossless(
    stored: &[u8],
    record: usize,
    word: usize,
    raw_len: usize,
) -> WireResult<Vec<u8>> {
    if !raw_len.is_multiple_of(record) || !record.is_multiple_of(word) {
        return Err(WireError::BadLength {
            what: "shuffle section geometry",
            len: raw_len as u64,
            remaining: record,
        });
    }
    let n_words = raw_len / word;
    let shuf_len = word * 8 * n_words.div_ceil(8);
    let shuffled = rle_decode(stored, shuf_len)?;
    let mut out = bitunshuffle(&shuffled, word, n_words)?;
    xor_delta_decode(&mut out, record);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Lossy pipeline: error-bounded bit-adaptive quantization
// ---------------------------------------------------------------------------

struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    fn new(cap: usize) -> BitWriter {
        BitWriter {
            out: Vec::with_capacity(cap),
            acc: 0,
            nbits: 0,
        }
    }

    fn push(&mut self, v: u64, bits: u32) {
        debug_assert!(bits <= 32);
        self.acc |= v << self.nbits;
        self.nbits += bits;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xff) as u8);
        }
        self.out
    }
}

struct BitReader<'a> {
    data: &'a [u8],
    bitpos: usize,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> BitReader<'a> {
        BitReader { data, bitpos: 0 }
    }

    fn read(&mut self, bits: u32) -> WireResult<u64> {
        debug_assert!(bits <= 32);
        let end = self.bitpos + bits as usize;
        if end > self.data.len() * 8 {
            return Err(WireError::Truncated {
                what: "quantized bitstream",
                needed: end.div_ceil(8),
                remaining: self.data.len(),
            });
        }
        let mut v = 0u64;
        let mut got = 0u32;
        while got < bits {
            let byte = self.data[self.bitpos / 8] as u64;
            let off = (self.bitpos % 8) as u32;
            let take = (8 - off).min(bits - got);
            v |= ((byte >> off) & ((1u64 << take) - 1)) << got;
            got += take;
            self.bitpos += take as usize;
        }
        Ok(v)
    }
}

/// Plan for one quantized column: grid origin/extent and bit width.
struct QuantPlan {
    lo: f64,
    hi: f64,
    bits: u32,
}

fn quant_step(lo: f64, hi: f64, bits: u32) -> f64 {
    if bits == 0 {
        0.0
    } else {
        (hi - lo) / ((1u64 << bits) - 1) as f64
    }
}

fn reconstruct(lo: f64, step: f64, q: u64, narrow_f32: bool) -> f64 {
    let v = lo + q as f64 * step;
    if narrow_f32 {
        (v as f32) as f64
    } else {
        v
    }
}

/// Pick the narrowest bit width whose decoded values all land within
/// `bound` of the originals (bit-*adaptive*: tight blocks take few bits).
/// Returns the plan and quantized values, or `None` when no width ≤ 32
/// satisfies the bound (non-finite inputs, or `f32` targets whose own
/// rounding exceeds the bound) — the caller then falls back to lossless.
fn plan_quant(vals: &[f64], bound: f64, narrow_f32: bool) -> Option<(QuantPlan, Vec<u64>)> {
    if !(bound.is_finite() && bound > 0.0) || vals.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let (lo, hi) = if vals.is_empty() {
        (0.0, 0.0)
    } else {
        (lo, hi)
    };
    // First candidate from the bound itself: a grid of step 2·bound needs
    // ceil((hi-lo) / (2·bound)) intervals; verification bumps from there.
    let want = ((hi - lo) / (2.0 * bound)).ceil().max(1.0);
    let mut bits = if hi > lo {
        (want.log2().ceil() as u32).max(1)
    } else {
        0
    };
    'widths: while bits <= 32 {
        let step = quant_step(lo, hi, bits);
        let mut qs = Vec::with_capacity(vals.len());
        for &v in vals {
            let q = if step == 0.0 {
                0u64
            } else {
                (((v - lo) / step).round() as u64).min((1u64 << bits) - 1)
            };
            if (reconstruct(lo, step, q, narrow_f32) - v).abs() > bound {
                if bits == 0 || bits == 32 {
                    return None;
                }
                bits += 1;
                continue 'widths;
            }
            qs.push(q);
        }
        return Some((QuantPlan { lo, hi, bits }, qs));
    }
    None
}

/// Quantized attribute section payload:
/// `bound f64 | lo f64 | hi f64 | bits u8 | packed values`.
const QUANT_ATTR_HEADER: usize = 25;

/// Encode an attribute column under `bound`; `None` falls back to lossless
/// (bound unsatisfiable, or the quantized form would not be smaller).
pub fn encode_quant_attr(raw: &[u8], dtype: AttributeType, bound: f64) -> Option<Vec<u8>> {
    let w = dtype.size();
    debug_assert!(raw.len().is_multiple_of(w));
    let vals: Vec<f64> = raw
        .chunks_exact(w)
        .map(|c| match dtype {
            AttributeType::F32 => f32::from_le_bytes(c.try_into().unwrap()) as f64,
            AttributeType::F64 => f64::from_le_bytes(c.try_into().unwrap()),
        })
        .collect();
    let narrow = dtype == AttributeType::F32;
    let (plan, qs) = plan_quant(&vals, bound, narrow)?;
    let packed_len = (vals.len() * plan.bits as usize).div_ceil(8);
    if QUANT_ATTR_HEADER + packed_len >= raw.len() {
        return None;
    }
    let mut out = Vec::with_capacity(QUANT_ATTR_HEADER + packed_len);
    out.extend_from_slice(&bound.to_le_bytes());
    out.extend_from_slice(&plan.lo.to_le_bytes());
    out.extend_from_slice(&plan.hi.to_le_bytes());
    out.push(plan.bits as u8);
    let mut bw = BitWriter::new(packed_len);
    for &q in &qs {
        bw.push(q, plan.bits);
    }
    out.extend_from_slice(&bw.finish());
    Some(out)
}

fn get_f64(stored: &[u8], off: usize, what: &'static str) -> WireResult<f64> {
    let end = off + 8;
    if end > stored.len() {
        return Err(WireError::Truncated {
            what,
            needed: end,
            remaining: stored.len(),
        });
    }
    let v = f64::from_le_bytes(stored[off..end].try_into().expect("len 8"));
    if !v.is_finite() {
        return Err(WireError::BadTag {
            what,
            tag: v.to_bits(),
        });
    }
    Ok(v)
}

/// Decode a quantized attribute section of `n` values back to raw bytes.
pub fn decode_quant_attr(stored: &[u8], dtype: AttributeType, n: usize) -> WireResult<Vec<u8>> {
    let lo = get_f64(stored, 8, "quant lo")?;
    let hi = get_f64(stored, 16, "quant hi")?;
    let bits = *stored.get(24).ok_or(WireError::Truncated {
        what: "quant bit width",
        needed: QUANT_ATTR_HEADER,
        remaining: stored.len(),
    })? as u32;
    if bits > 32 {
        return Err(WireError::BadTag {
            what: "quant bit width",
            tag: bits as u64,
        });
    }
    let step = quant_step(lo, hi, bits);
    let mut br = BitReader::new(&stored[QUANT_ATTR_HEADER..]);
    let w = dtype.size();
    let mut out = Vec::with_capacity(n * w);
    for _ in 0..n {
        let v = lo + br.read(bits)? as f64 * step;
        match dtype {
            AttributeType::F32 => out.extend_from_slice(&(v as f32).to_le_bytes()),
            AttributeType::F64 => out.extend_from_slice(&v.to_le_bytes()),
        }
    }
    Ok(out)
}

/// Quantized positions payload:
/// `bound f64 | (lo, hi) f64 per axis | bits u8 per axis | packed x, y, z`.
const QUANT_POS_HEADER: usize = 8 + 48 + 3;

/// Encode a positions section (12-byte `f32` triples) under `bound`,
/// independently per axis; `None` falls back to lossless.
pub fn encode_quant_positions(raw: &[u8], bound: f64) -> Option<Vec<u8>> {
    debug_assert!(raw.len().is_multiple_of(12));
    let n = raw.len() / 12;
    let axis_vals = |a: usize| -> Vec<f64> {
        (0..n)
            .map(|i| {
                let off = i * 12 + a * 4;
                f32::from_le_bytes(raw[off..off + 4].try_into().unwrap()) as f64
            })
            .collect()
    };
    let mut plans = Vec::with_capacity(3);
    let mut packed_bits = 0usize;
    for a in 0..3 {
        let (plan, qs) = plan_quant(&axis_vals(a), bound, true)?;
        packed_bits += n * plan.bits as usize;
        plans.push((plan, qs));
    }
    let total = QUANT_POS_HEADER + packed_bits.div_ceil(8) + 2;
    if total >= raw.len() {
        return None;
    }
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&bound.to_le_bytes());
    for (plan, _) in &plans {
        out.extend_from_slice(&plan.lo.to_le_bytes());
        out.extend_from_slice(&plan.hi.to_le_bytes());
    }
    for (plan, _) in &plans {
        out.push(plan.bits as u8);
    }
    // Axes are packed as separate planes (x block, then y, then z), each
    // byte-aligned so a corrupt width in one axis cannot shift another.
    for (plan, qs) in &plans {
        let mut bw = BitWriter::new((n * plan.bits as usize).div_ceil(8));
        for &q in qs {
            bw.push(q, plan.bits);
        }
        out.extend_from_slice(&bw.finish());
    }
    Some(out)
}

/// Decode a quantized positions section of `n` particles.
pub fn decode_quant_positions(stored: &[u8], n: usize) -> WireResult<Vec<u8>> {
    let mut plans = Vec::with_capacity(3);
    for a in 0..3 {
        let lo = get_f64(stored, 8 + a * 16, "quant position lo")?;
        let hi = get_f64(stored, 16 + a * 16, "quant position hi")?;
        plans.push((lo, hi));
    }
    if stored.len() < QUANT_POS_HEADER {
        return Err(WireError::Truncated {
            what: "quant position header",
            needed: QUANT_POS_HEADER,
            remaining: stored.len(),
        });
    }
    let mut out = vec![0u8; n * 12];
    let mut off = QUANT_POS_HEADER;
    for (a, &(lo, hi)) in plans.iter().enumerate() {
        let bits = stored[56 + a] as u32;
        if bits > 32 {
            return Err(WireError::BadTag {
                what: "quant bit width",
                tag: bits as u64,
            });
        }
        let plane_len = (n * bits as usize).div_ceil(8);
        if off + plane_len > stored.len() {
            return Err(WireError::Truncated {
                what: "quant position plane",
                needed: off + plane_len,
                remaining: stored.len(),
            });
        }
        let step = quant_step(lo, hi, bits);
        let mut br = BitReader::new(&stored[off..off + plane_len]);
        for i in 0..n {
            let v = (lo + br.read(bits)? as f64 * step) as f32;
            out[i * 12 + a * 4..i * 12 + a * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        off += plane_len;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Section- and block-level entry points
// ---------------------------------------------------------------------------

/// Encode one section under the file codec. Node records are always raw;
/// positions and attributes go through the lossless pipeline, with the
/// quantizer tried first when the codec is lossy. The returned bytes are
/// never longer than `raw`.
pub fn encode_section(kind: SectionKind, raw: &[u8], codec: Codec) -> (u8, Vec<u8>) {
    let Some((record, word)) = kind.geometry() else {
        return (TAG_RAW, raw.to_vec());
    };
    if let Codec::V2Lossy { error_bound } = codec {
        let quant = match kind {
            SectionKind::Positions => encode_quant_positions(raw, error_bound),
            SectionKind::Attr(t) => encode_quant_attr(raw, t, error_bound),
            SectionKind::Nodes => None,
        };
        if let Some(stored) = quant {
            debug_assert!(stored.len() < raw.len());
            return (TAG_QUANT, stored);
        }
    }
    encode_lossless(raw, record, word)
}

/// Decode one stored section back to exactly `raw_len` bytes (`num_points`
/// sizes the quantized paths). Unknown tags, tags illegal for the section
/// kind, and any length mismatch are typed errors.
pub fn decode_section(
    kind: SectionKind,
    tag: u8,
    stored: &[u8],
    num_points: usize,
    raw_len: usize,
) -> WireResult<Vec<u8>> {
    let decoded = match (tag, kind) {
        (TAG_RAW, _) => {
            if stored.len() != raw_len {
                return Err(WireError::BadLength {
                    what: "raw section",
                    len: stored.len() as u64,
                    remaining: raw_len,
                });
            }
            stored.to_vec()
        }
        (TAG_SHUFFLE, SectionKind::Positions) => decode_lossless(stored, 12, 4, raw_len)?,
        (TAG_SHUFFLE, SectionKind::Attr(t)) => {
            decode_lossless(stored, t.size(), t.size(), raw_len)?
        }
        (TAG_QUANT, SectionKind::Positions) => decode_quant_positions(stored, num_points)?,
        (TAG_QUANT, SectionKind::Attr(t)) => decode_quant_attr(stored, t, num_points)?,
        _ => {
            return Err(WireError::BadTag {
                what: "section codec tag",
                tag: tag as u64,
            })
        }
    };
    if decoded.len() != raw_len {
        return Err(WireError::BadLength {
            what: "decoded section",
            len: decoded.len() as u64,
            remaining: raw_len,
        });
    }
    Ok(decoded)
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
            assert_eq!(rle_decode(&enc, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn rle_rejects_oversized_runs() {
        let mut enc = Vec::new();
        put_varint(&mut enc, u64::MAX); // zero run far beyond expected_len
        assert!(rle_decode(&enc, 16).is_err());
        // Literal longer than the remaining stream.
        let mut enc = Vec::new();
        put_varint(&mut enc, 0);
        put_varint(&mut enc, 1000);
        enc.push(1);
        assert!(rle_decode(&enc, 2000).is_err());
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
        assert_eq!(decode_lossless(&stored, 12, 4, raw.len()).unwrap(), raw);
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
            let back = decode_section(
                SectionKind::Positions,
                tag,
                &stored,
                raw.len() / 12,
                raw.len(),
            )
            .unwrap();
            assert_eq!(back, raw);
        }
    }

    #[test]
    fn quantizer_respects_bound() {
        let vals: Vec<f64> = (0..500).map(|i| (i as f64 * 0.37).sin() * 40.0).collect();
        let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        for bound in [1.0, 1e-2, 1e-5] {
            let stored = encode_quant_attr(&raw, AttributeType::F64, bound).unwrap();
            assert!(stored.len() < raw.len());
            let back = decode_quant_attr(&stored, AttributeType::F64, vals.len()).unwrap();
            for (b, v) in back.chunks_exact(8).zip(&vals) {
                let d = f64::from_le_bytes(b.try_into().unwrap());
                assert!((d - v).abs() <= bound, "|{d} - {v}| > {bound}");
            }
        }
    }

    #[test]
    fn quantizer_rejects_non_finite() {
        let raw: Vec<u8> = [1.0f64, f64::NAN, 3.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        assert!(encode_quant_attr(&raw, AttributeType::F64, 0.1).is_none());
        // The section-level entry falls back to a lossless tag.
        let (tag, stored) = encode_section(
            SectionKind::Attr(AttributeType::F64),
            &raw,
            Codec::V2Lossy { error_bound: 0.1 },
        );
        assert_ne!(tag, TAG_QUANT);
        let back =
            decode_section(SectionKind::Attr(AttributeType::F64), tag, &stored, 3, 24).unwrap();
        assert_eq!(back, raw);
    }

    #[test]
    fn quant_positions_roundtrip_within_bound() {
        let pts: Vec<(f32, f32, f32)> = (0..800)
            .map(|i| {
                let t = i as f32 * 0.011;
                (t.sin(), t.cos() * 3.0, t * 0.5)
            })
            .collect();
        let raw = pos_bytes(&pts);
        let bound = 1e-3;
        let stored = encode_quant_positions(&raw, bound).unwrap();
        assert!(stored.len() < raw.len());
        let back = decode_quant_positions(&stored, pts.len()).unwrap();
        for (rec, &(x, y, z)) in back.chunks_exact(12).zip(&pts) {
            let f = |k: usize| f32::from_le_bytes(rec[k..k + 4].try_into().unwrap());
            for (got, want) in [(f(0), x), (f(4), y), (f(8), z)] {
                assert!((got as f64 - want as f64).abs() <= bound);
            }
        }
    }

    #[test]
    fn bad_tags_are_typed_errors() {
        assert!(decode_section(SectionKind::Positions, 99, &[], 0, 0).is_err());
        assert!(decode_section(SectionKind::Nodes, TAG_SHUFFLE, &[], 0, 0).is_err());
        assert!(decode_section(SectionKind::Positions, TAG_RAW, &[1, 2], 1, 12).is_err());
    }

    #[test]
    fn codec_env_parsing() {
        // from_env reads the live environment, so only exercise the
        // unset/default path here; the spellings are covered by name().
        assert_eq!(Codec::V1.name(), "v1");
        assert_eq!(Codec::V2Lossless.name(), "v2-lossless");
        assert!(Codec::V2Lossy { error_bound: 0.5 }.is_v2());
        assert!(!Codec::V1.is_v2());
    }
}
