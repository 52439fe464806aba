//! Offline stand-in for `bytes` (see `shims/README.md`).
//!
//! [`Bytes`] is an immutable, cheaply clonable byte buffer backed by an
//! `Arc<Vec<u8>>` — the same reference-counted-sharing semantics as the real
//! crate, including zero-copy [`Bytes::slice`] (a slice shares the parent's
//! allocation and only narrows the visible window) and, like the real
//! crate, `Bytes::from(Vec<u8>)` takes ownership of the vector's heap
//! buffer instead of copying it.

use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable contiguous slice of immutable bytes.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Copy `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copy out to an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// The visible window as a plain slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }

    /// Zero-copy subrange: the result shares this buffer's allocation.
    ///
    /// Panics when the range is out of bounds (mirroring the real crate).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
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
        Bytes {
            data: self.data.clone(),
            off: self.off + start,
            len: end - start,
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership: the vector's heap buffer becomes the backing, so
    /// no payload byte is copied (`Arc<[u8]>::from(Vec)` would reallocate
    /// and memcpy to put the refcounts in front of the data).
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            data: Arc::new(v),
            off: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(a: [u8; N]) -> Bytes {
        Bytes::copy_from_slice(&a)
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == &other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_cheap_clone() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::copy_from_slice(&[9, 9]).to_vec(), vec![9, 9]);
    }

    #[test]
    fn from_vec_takes_ownership_of_the_heap_buffer() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "Bytes::from(Vec) must not copy");
        assert_eq!(b.slice(100..200).as_ptr(), ptr.wrapping_add(100));
        assert_eq!(b.clone().as_ptr(), ptr);
    }

    #[test]
    fn slice_is_zero_copy_and_nests() {
        let b = Bytes::from((0u8..100).collect::<Vec<u8>>());
        let s = b.slice(10..50);
        assert_eq!(s.len(), 40);
        assert_eq!(s[0], 10);
        // A slice of a slice offsets from the inner window.
        let t = s.slice(5..=9);
        assert_eq!(&t[..], &[15, 16, 17, 18, 19]);
        // Unbounded forms.
        assert_eq!(s.slice(..).len(), 40);
        assert_eq!(s.slice(35..).len(), 5);
        assert_eq!(s.slice(..5)[4], 14);
        // Empty tail slice is fine.
        assert!(b.slice(100..).is_empty());
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![1u8, 2]).slice(1..4);
    }
}
