//! The workspace's single buffer abstraction: a reference-counted,
//! zero-copy-sliceable view of immutable bytes.
//!
//! Every layer of the data plane — shuffle payloads built by ranks, the
//! views `bat-comm` delivers to aggregators, columnar particle columns, and
//! the reader's owned-or-mapped file backing — moves [`Block`]s instead of
//! copying byte vectors. A `Block` is either backed by a [`Bytes`] buffer
//! or by an arbitrary reference-counted external backing (e.g. a memory
//! map), and [`Block::slice`] narrows the window without touching the
//! payload. Cloning is an `Arc` refcount bump.
//!
//! Page-alignment helpers mirror the file format's 4 KiB treelet
//! placement (paper §III-C3, Figure 2): the writer emits treelet blocks at
//! [`PAGE_SIZE`] boundaries and the reader's cost model counts the distinct
//! pages a block spans.

use bytes::Bytes;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// The page size treelet blocks are aligned to (one 4 KiB page).
pub const PAGE_SIZE: usize = 4096;

/// Round `n` up to the next multiple of [`PAGE_SIZE`].
#[inline]
pub const fn page_align(n: usize) -> usize {
    (n + PAGE_SIZE - 1) & !(PAGE_SIZE - 1)
}

/// Number of distinct 4 KiB pages the byte range `[start, end)` touches.
#[inline]
pub fn pages_spanned(start: usize, end: usize) -> u64 {
    if end <= start {
        0
    } else {
        ((end - 1) / PAGE_SIZE - start / PAGE_SIZE + 1) as u64
    }
}

/// External backing storage a [`Block`] can borrow from (e.g. a memory
/// map). The blanket bound keeps `bat-wire` free of I/O dependencies.
pub trait BlockBacking: Send + Sync {
    /// The full backing byte range.
    fn bytes(&self) -> &[u8];
}

impl<T: AsRef<[u8]> + Send + Sync> BlockBacking for T {
    fn bytes(&self) -> &[u8] {
        self.as_ref()
    }
}

#[derive(Clone)]
enum Repr {
    Bytes(Bytes),
    Ext(Arc<dyn BlockBacking>),
}

/// A reference-counted, zero-copy-sliceable view of immutable bytes.
#[derive(Clone)]
pub struct Block {
    repr: Repr,
    off: usize,
    len: usize,
}

impl Block {
    /// An empty block.
    pub fn new() -> Block {
        Block {
            repr: Repr::Bytes(Bytes::new()),
            off: 0,
            len: 0,
        }
    }

    /// Take ownership of a byte vector.
    pub fn from_vec(v: Vec<u8>) -> Block {
        let len = v.len();
        Block {
            repr: Repr::Bytes(Bytes::from(v)),
            off: 0,
            len,
        }
    }

    /// Wrap an external reference-counted backing (e.g. a memory map)
    /// without copying it.
    pub fn from_arc(backing: Arc<dyn BlockBacking>) -> Block {
        let len = backing.bytes().len();
        Block {
            repr: Repr::Ext(backing),
            off: 0,
            len,
        }
    }

    /// Number of visible bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The visible window as a plain slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        let all = match &self.repr {
            Repr::Bytes(b) => &b[..],
            Repr::Ext(e) => e.bytes(),
        };
        &all[self.off..self.off + self.len]
    }

    /// Zero-copy subrange: shares the backing, narrows the window.
    ///
    /// Panics when the range is out of bounds (a programming error, like
    /// slicing `&[u8]`); decode paths bounds-check before slicing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Block {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len,
        };
        assert!(start <= end, "slice start {start} > end {end}");
        assert!(
            end <= self.len,
            "slice end {end} out of bounds ({})",
            self.len
        );
        Block {
            repr: self.repr.clone(),
            off: self.off + start,
            len: end - start,
        }
    }

    /// Offset of this view inside its backing buffer. Lets alignment
    /// invariants be checked on views, not just whole buffers.
    #[inline]
    pub fn backing_offset(&self) -> usize {
        self.off
    }

    /// True when the view starts on a 4 KiB page boundary of its backing.
    #[inline]
    pub fn is_page_aligned(&self) -> bool {
        self.off.is_multiple_of(PAGE_SIZE)
    }

    /// Distinct 4 KiB pages of the backing buffer this view spans — the
    /// unit the OS faults in on an mmap-backed read.
    pub fn pages_4k(&self) -> u64 {
        pages_spanned(self.off, self.off + self.len)
    }

    /// Copy the visible window out to an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// The visible window as [`Bytes`]. Zero-copy when already
    /// `Bytes`-backed; copies only for external backings.
    pub fn to_payload(&self) -> Bytes {
        match &self.repr {
            Repr::Bytes(b) => b.slice(self.off..self.off + self.len),
            Repr::Ext(_) => Bytes::copy_from_slice(self.as_slice()),
        }
    }
}

impl Default for Block {
    fn default() -> Block {
        Block::new()
    }
}

impl From<Bytes> for Block {
    fn from(b: Bytes) -> Block {
        let len = b.len();
        Block {
            repr: Repr::Bytes(b),
            off: 0,
            len,
        }
    }
}

impl From<Vec<u8>> for Block {
    fn from(v: Vec<u8>) -> Block {
        Block::from_vec(v)
    }
}

impl std::ops::Deref for Block {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Block {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.repr {
            Repr::Bytes(_) => "bytes",
            Repr::Ext(_) => "ext",
        };
        write!(f, "Block({} bytes, {kind}, off {})", self.len, self.off)
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Block) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Block {}

impl PartialEq<[u8]> for Block {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_math() {
        assert_eq!(page_align(0), 0);
        assert_eq!(page_align(1), PAGE_SIZE);
        assert_eq!(page_align(PAGE_SIZE), PAGE_SIZE);
        assert_eq!(page_align(PAGE_SIZE + 1), 2 * PAGE_SIZE);
        assert_eq!(pages_spanned(0, 0), 0);
        assert_eq!(pages_spanned(0, 1), 1);
        assert_eq!(pages_spanned(4095, 4097), 2);
        assert_eq!(pages_spanned(4096, 8192), 1);
    }

    #[test]
    fn slices_share_backing() {
        let b = Block::from_vec((0u8..200).collect());
        let s = b.slice(100..150);
        assert_eq!(s.len(), 50);
        assert_eq!(s[0], 100);
        assert_eq!(s.backing_offset(), 100);
        let t = s.slice(10..20);
        assert_eq!(t[0], 110);
        assert_eq!(t.backing_offset(), 110);
        assert_eq!(t.to_vec(), (110u8..120).collect::<Vec<u8>>());
    }

    #[test]
    fn from_vec_takes_ownership_of_the_heap_buffer() {
        let v = vec![9u8; 2 * PAGE_SIZE];
        let ptr = v.as_ptr();
        let b = Block::from_vec(v);
        assert_eq!(b.as_ptr(), ptr, "Block::from_vec must not copy");
        assert_eq!(b.slice(PAGE_SIZE..).as_ptr(), ptr.wrapping_add(PAGE_SIZE));
        assert_eq!(b.slice(..).to_payload().as_ptr(), ptr);
    }

    #[test]
    fn external_backing() {
        let backing: Arc<dyn BlockBacking> = Arc::new(vec![7u8; PAGE_SIZE * 2]);
        let b = Block::from_arc(backing);
        assert!(b.is_page_aligned());
        assert_eq!(b.pages_4k(), 2);
        let s = b.slice(PAGE_SIZE..PAGE_SIZE + 16);
        assert!(s.is_page_aligned());
        assert_eq!(s.pages_4k(), 1);
        assert!(!b.slice(1..).is_page_aligned());
        assert_eq!(s.to_payload().len(), 16);
    }

    #[test]
    fn bytes_payload_roundtrip_is_zero_copy_window() {
        let payload = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let b = Block::from(payload);
        let s = b.slice(1..4);
        assert_eq!(&s.to_payload()[..], &[2, 3, 4]);
        assert_eq!(s, [2u8, 3, 4][..]);
    }
}
