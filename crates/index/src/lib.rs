//! Packed static B-tree (S+tree) attribute indexes.
//!
//! A BAT file stores particles sorted along a space-filling curve; attribute
//! columns are therefore *not* sorted, and the 32-bin attribute bitmaps
//! (DESIGN.md §5) can only cull treelets whose binned range misses the query.
//! This crate adds an exact secondary index per attribute: the column is
//! key-sorted once at write time and packed into an implicit level-order
//! B-tree whose leaves carry the particle indices (payloads) back into the
//! curve-ordered file.
//!
//! ## Blob layout (version 1, little-endian)
//!
//! ```text
//! header   32 B   magic, version, entries n, leaf_entries L, fanout F,
//!                 payload_limit (= num_particles at build time)
//! inners   level-order, root level first: each node is F u64 keys, where
//!                 keys[j] = min key of child subtree j (u64::MAX padding)
//! leaves   n * 12 B   (key u64, payload u32) sorted by (key, payload)
//! ```
//!
//! The tree is *implicit*: a node's children are located by arithmetic on
//! the level sizes ([`IndexGeometry`]), so there are no stored pointers and
//! a search touches exactly one node per level — `O(log_F n)` fetches, which
//! is the whole point for HTTP-range/object-store readers where each node
//! fetch is a GET.
//!
//! ## Key transform
//!
//! Keys are [`key_of`]-mapped `f64`s: a monotone bijection from the IEEE
//! ordering onto `u64` with `-0.0` folded into `+0.0` and every NaN pattern
//! mapped to `u64::MAX`, *above* `key_of(+inf)`. Range queries with finite
//! (or infinite) bounds therefore never match NaN entries — the same
//! semantics as the reader's exact `v >= lo && v <= hi` filter, which a NaN
//! fails.
//!
//! Fetching is abstracted behind [`IndexFetch`] so the same search runs over
//! an in-memory slice, an mmap, or a page-cached range reader.

use std::fmt;

/// Blob magic: `"BIDX"` in little-endian byte order.
pub const MAGIC: u32 = 0x5844_4942;
/// Current blob version.
pub const VERSION: u32 = 1;
/// Fixed blob header size in bytes.
pub const HEADER_BYTES: usize = 32;
/// Bytes per leaf entry: `u64` key + `u32` payload.
pub const ENTRY_BYTES: usize = 12;
/// Leaf entries per leaf block (search fetches one whole block).
pub const LEAF_ENTRIES: u32 = 256;
/// Keys per inner node (= children per inner node).
pub const FANOUT: u32 = 256;

/// Typed index failure; the reader treats any of these as "no index" and
/// falls back to the bitmap path — they must never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// Backing read failed (range fetch error, …).
    Io { what: &'static str, message: String },
    /// Blob ends before a required structure.
    Truncated {
        what: &'static str,
        needed: u64,
        have: u64,
    },
    /// A parsed field is out of range or inconsistent.
    Corrupt { what: &'static str, value: u64 },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Io { what, message } => write!(f, "index io error in {what}: {message}"),
            IndexError::Truncated { what, needed, have } => {
                write!(
                    f,
                    "index truncated at {what}: need {needed} bytes, have {have}"
                )
            }
            IndexError::Corrupt { what, value } => {
                write!(f, "index corrupt at {what}: value {value}")
            }
        }
    }
}

impl std::error::Error for IndexError {}

pub type IndexResult<T> = Result<T, IndexError>;

/// Monotone bijection from the IEEE `f64` ordering onto `u64`.
///
/// `-0.0` folds into `+0.0` and every NaN bit pattern maps to `u64::MAX`,
/// strictly above `key_of(f64::INFINITY)`; for non-NaN `a <= b` iff
/// `key_of(a) <= key_of(b)`.
#[inline]
pub fn key_of(v: f64) -> u64 {
    if v.is_nan() {
        return u64::MAX;
    }
    // Fold -0.0 into +0.0 so the two bit patterns share a key.
    let v = if v == 0.0 { 0.0 } else { v };
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Key range `[lo_key, hi_key]` matching the reader's inclusive attribute
/// filter `lo <= v <= hi`. `None` when the bounds are NaN or inverted (the
/// filter matches nothing).
#[inline]
pub fn range_keys(lo: f64, hi: f64) -> Option<(u64, u64)> {
    if lo.is_nan() || hi.is_nan() || lo > hi {
        return None;
    }
    Some((key_of(lo), key_of(hi)))
}

/// Which attributes to index at write time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum IndexSpec {
    /// Index nothing (the default; files stay byte-identical to pre-index
    /// builds).
    #[default]
    None,
    /// Index every attribute.
    All,
    /// Index the named attributes (unknown names are ignored).
    Named(Vec<String>),
}

impl IndexSpec {
    /// Parse the `BAT_INDEX_ATTRS` value syntax: empty or `none` → `None`,
    /// `all` → `All`, otherwise a comma-separated attribute-name list.
    pub fn parse(v: &str) -> IndexSpec {
        let v = v.trim();
        if v.is_empty() || v.eq_ignore_ascii_case("none") {
            IndexSpec::None
        } else if v.eq_ignore_ascii_case("all") {
            IndexSpec::All
        } else {
            IndexSpec::Named(
                v.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect(),
            )
        }
    }

    /// Does this spec select the attribute `name`?
    pub fn selects(&self, name: &str) -> bool {
        match self {
            IndexSpec::None => false,
            IndexSpec::All => true,
            IndexSpec::Named(names) => names.iter().any(|n| n == name),
        }
    }

    pub fn is_none(&self) -> bool {
        matches!(self, IndexSpec::None)
    }
}

/// Derived shape of a blob with `entries` leaf entries: level-order inner
/// node counts (root level first) and byte offsets for every region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexGeometry {
    pub entries: u64,
    pub leaf_entries: u32,
    pub fanout: u32,
    /// Inner-node count per level, root level first; empty when the tree is
    /// a single leaf (or empty).
    pub levels: Vec<u64>,
}

impl IndexGeometry {
    pub fn new(entries: u64, leaf_entries: u32, fanout: u32) -> IndexResult<IndexGeometry> {
        if leaf_entries == 0 {
            return Err(IndexError::Corrupt {
                what: "leaf_entries",
                value: 0,
            });
        }
        if fanout < 2 {
            return Err(IndexError::Corrupt {
                what: "fanout",
                value: fanout as u64,
            });
        }
        let mut levels = Vec::new();
        let mut count = entries.div_ceil(leaf_entries as u64);
        while count > 1 {
            count = count.div_ceil(fanout as u64);
            levels.push(count);
        }
        levels.reverse();
        Ok(IndexGeometry {
            entries,
            leaf_entries,
            fanout,
            levels,
        })
    }

    /// Geometry for the default block parameters.
    pub fn with_defaults(entries: u64) -> IndexGeometry {
        IndexGeometry::new(entries, LEAF_ENTRIES, FANOUT).expect("default parameters are valid")
    }

    pub fn num_leaves(&self) -> u64 {
        self.entries.div_ceil(self.leaf_entries as u64)
    }

    pub fn inner_nodes(&self) -> u64 {
        self.levels.iter().sum()
    }

    /// Tree depth in levels, counting the leaf level (0 for an empty index).
    pub fn depth(&self) -> u32 {
        if self.entries == 0 {
            0
        } else {
            self.levels.len() as u32 + 1
        }
    }

    fn node_bytes(&self) -> u64 {
        self.fanout as u64 * 8
    }

    /// Byte offset of inner level `li` (root level is 0).
    fn level_offset(&self, li: usize) -> u64 {
        let before: u64 = self.levels[..li].iter().sum();
        HEADER_BYTES as u64 + before * self.node_bytes()
    }

    /// Byte offset of the sorted leaf-entry array.
    pub fn leaf_offset(&self) -> u64 {
        HEADER_BYTES as u64 + self.inner_nodes() * self.node_bytes()
    }

    /// Total blob size in bytes.
    pub fn blob_len(&self) -> u64 {
        self.leaf_offset() + self.entries * ENTRY_BYTES as u64
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Build a version-1 index blob over `values` (payload `i` = position of
/// the value in the column, i.e. the particle's index in file order).
///
/// `payload_limit` is recorded in the header; [`IndexSearcher::payloads`]
/// rejects any stored payload at or above it, which catches bit flips in
/// the payload bytes. Columns longer than `u32::MAX` are not indexable.
pub fn build_index(values: &[f64], payload_limit: u64) -> Vec<u8> {
    build_index_with(values, payload_limit, LEAF_ENTRIES, FANOUT)
}

/// [`build_index`] with explicit block parameters (tests use tiny blocks to
/// exercise multi-level trees cheaply).
pub fn build_index_with(
    values: &[f64],
    payload_limit: u64,
    leaf_entries: u32,
    fanout: u32,
) -> Vec<u8> {
    assert!(
        values.len() <= u32::MAX as usize,
        "column too long to index"
    );
    let mut entries: Vec<(u64, u32)> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| (key_of(v), i as u32))
        .collect();
    // Sort by (key, payload): ties break on file order, making the blob a
    // pure function of the column.
    entries.sort_unstable();

    let geo = IndexGeometry::new(entries.len() as u64, leaf_entries, fanout)
        .expect("build parameters are valid");
    let mut out = Vec::with_capacity(geo.blob_len() as usize);
    put_u32(&mut out, MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, entries.len() as u64);
    put_u32(&mut out, leaf_entries);
    put_u32(&mut out, fanout);
    put_u64(&mut out, payload_limit);

    // Min key of every node on every level, built bottom-up from the leaf
    // blocks, then emitted root-first.
    let mut mins: Vec<u64> = entries
        .chunks(leaf_entries as usize)
        .map(|c| c[0].0)
        .collect();
    let mut level_keys: Vec<Vec<u64>> = Vec::with_capacity(geo.levels.len());
    for _ in 0..geo.levels.len() {
        let mut keys = Vec::with_capacity(mins.len().div_ceil(fanout as usize) * fanout as usize);
        for chunk in mins.chunks(fanout as usize) {
            keys.extend_from_slice(chunk);
            keys.resize(keys.len() + (fanout as usize - chunk.len()), u64::MAX);
        }
        mins = keys.chunks(fanout as usize).map(|node| node[0]).collect();
        level_keys.push(keys);
    }
    for keys in level_keys.iter().rev() {
        for &k in keys {
            put_u64(&mut out, k);
        }
    }
    for (key, payload) in &entries {
        put_u64(&mut out, *key);
        put_u32(&mut out, *payload);
    }
    debug_assert_eq!(out.len() as u64, geo.blob_len());
    out
}

/// Abstract exact-length read of blob bytes `[off, off + len)`, offsets
/// relative to the blob start. Implementations back onto an in-memory
/// slice, an mmap, or a page-cached range reader.
pub trait IndexFetch {
    fn fetch(&self, off: u64, len: usize) -> IndexResult<Vec<u8>>;
}

/// [`IndexFetch`] over an in-memory blob (tests, owned/mmap readers).
pub struct SliceFetch<'a>(pub &'a [u8]);

impl IndexFetch for SliceFetch<'_> {
    fn fetch(&self, off: u64, len: usize) -> IndexResult<Vec<u8>> {
        let end = off.checked_add(len as u64).ok_or(IndexError::Corrupt {
            what: "fetch range",
            value: off,
        })?;
        if end > self.0.len() as u64 {
            return Err(IndexError::Truncated {
                what: "blob bytes",
                needed: end,
                have: self.0.len() as u64,
            });
        }
        Ok(self.0[off as usize..end as usize].to_vec())
    }
}

fn read_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
}

fn read_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

/// Search handle over one index blob; every node/leaf access goes through
/// the [`IndexFetch`], so opening validates only the 32-byte header.
pub struct IndexSearcher<'a> {
    fetch: &'a dyn IndexFetch,
    geo: IndexGeometry,
    payload_limit: u64,
}

impl<'a> IndexSearcher<'a> {
    /// Parse and validate the header. `blob_len` is the directory-recorded
    /// blob extent and `expect_entries` the directory-recorded entry count;
    /// both must agree with the header (bit-flipped counts surface here as
    /// typed errors).
    pub fn open(
        fetch: &'a dyn IndexFetch,
        blob_len: u64,
        expect_entries: u64,
    ) -> IndexResult<IndexSearcher<'a>> {
        let head = fetch.fetch(0, HEADER_BYTES)?;
        if head.len() < HEADER_BYTES {
            return Err(IndexError::Truncated {
                what: "header",
                needed: HEADER_BYTES as u64,
                have: head.len() as u64,
            });
        }
        let magic = read_u32(&head, 0);
        if magic != MAGIC {
            return Err(IndexError::Corrupt {
                what: "magic",
                value: magic as u64,
            });
        }
        let version = read_u32(&head, 4);
        if version != VERSION {
            return Err(IndexError::Corrupt {
                what: "version",
                value: version as u64,
            });
        }
        let entries = read_u64(&head, 8);
        if entries != expect_entries {
            return Err(IndexError::Corrupt {
                what: "entries",
                value: entries,
            });
        }
        let leaf_entries = read_u32(&head, 16);
        let fanout = read_u32(&head, 20);
        let payload_limit = read_u64(&head, 24);
        let geo = IndexGeometry::new(entries, leaf_entries, fanout)?;
        if geo.blob_len() != blob_len {
            return Err(IndexError::Corrupt {
                what: "blob length",
                value: geo.blob_len(),
            });
        }
        Ok(IndexSearcher {
            fetch,
            geo,
            payload_limit,
        })
    }

    pub fn entries(&self) -> u64 {
        self.geo.entries
    }

    pub fn depth(&self) -> u32 {
        self.geo.depth()
    }

    pub fn geometry(&self) -> &IndexGeometry {
        &self.geo
    }

    /// Rank of the first entry with key `>= key` (== `entries` when none).
    pub fn lower_bound(&self, key: u64) -> IndexResult<u64> {
        self.search(key, false)
    }

    /// Rank of the first entry with key `> key` (== `entries` when none).
    pub fn upper_bound(&self, key: u64) -> IndexResult<u64> {
        self.search(key, true)
    }

    /// Number of entries with keys in `[lo_key, hi_key]`.
    pub fn count_range(&self, lo_key: u64, hi_key: u64) -> IndexResult<u64> {
        let lo = self.lower_bound(lo_key)?;
        let hi = self.upper_bound(hi_key)?;
        Ok(hi.saturating_sub(lo))
    }

    /// Payloads of ranks `[lo, hi)`, in rank order. Every stored payload
    /// must be below the header's `payload_limit`; a violation is a typed
    /// corruption error.
    pub fn payloads(&self, lo: u64, hi: u64) -> IndexResult<Vec<u32>> {
        if lo > hi || hi > self.geo.entries {
            return Err(IndexError::Corrupt {
                what: "rank range",
                value: hi,
            });
        }
        if lo == hi {
            return Ok(Vec::new());
        }
        let count = (hi - lo) as usize;
        let off = self.geo.leaf_offset() + lo * ENTRY_BYTES as u64;
        let bytes = self.fetch.fetch(off, count * ENTRY_BYTES)?;
        if bytes.len() < count * ENTRY_BYTES {
            return Err(IndexError::Truncated {
                what: "leaf entries",
                needed: (count * ENTRY_BYTES) as u64,
                have: bytes.len() as u64,
            });
        }
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let payload = read_u32(&bytes, i * ENTRY_BYTES + 8);
            if (payload as u64) >= self.payload_limit {
                return Err(IndexError::Corrupt {
                    what: "payload",
                    value: payload as u64,
                });
            }
            out.push(payload);
        }
        Ok(out)
    }

    /// Descend the implicit tree to the leaf block that contains the
    /// boundary rank, then binary-search the block.
    ///
    /// At each inner node, `keys[j]` is the *min* of child `j`'s subtree, so
    /// the first entry `>= key` lives in the last child whose min is `< key`
    /// (ties can spill backwards into the previous subtree), and the first
    /// entry `> key` in the last child whose min is `<= key`.
    fn search(&self, key: u64, strict: bool) -> IndexResult<u64> {
        if self.geo.entries == 0 {
            return Ok(0);
        }
        let node_bytes = self.geo.node_bytes() as usize;
        let fanout = self.geo.fanout as u64;
        let mut child = 0u64; // node index within the next level down
        for (li, _) in self.geo.levels.iter().enumerate() {
            let off = self.geo.level_offset(li) + child * node_bytes as u64;
            let node = self.fetch.fetch(off, node_bytes)?;
            if node.len() < node_bytes {
                return Err(IndexError::Truncated {
                    what: "inner node",
                    needed: node_bytes as u64,
                    have: node.len() as u64,
                });
            }
            let children_below = if li + 1 < self.geo.levels.len() {
                self.geo.levels[li + 1]
            } else {
                self.geo.num_leaves()
            };
            let first_child = child * fanout;
            let real = (children_below.saturating_sub(first_child)).min(fanout) as usize;
            if real == 0 {
                return Err(IndexError::Corrupt {
                    what: "empty inner node",
                    value: child,
                });
            }
            let mut pick = 0usize;
            for j in 1..real {
                let k = read_u64(&node, j * 8);
                let descend = if strict { k <= key } else { k < key };
                if descend {
                    pick = j;
                } else {
                    break;
                }
            }
            child = first_child + pick as u64;
        }
        // `child` is now a leaf-block index.
        let leaf_lo = child * self.geo.leaf_entries as u64;
        let leaf_hi = (leaf_lo + self.geo.leaf_entries as u64).min(self.geo.entries);
        let count = (leaf_hi - leaf_lo) as usize;
        let off = self.geo.leaf_offset() + leaf_lo * ENTRY_BYTES as u64;
        let bytes = self.fetch.fetch(off, count * ENTRY_BYTES)?;
        if bytes.len() < count * ENTRY_BYTES {
            return Err(IndexError::Truncated {
                what: "leaf block",
                needed: (count * ENTRY_BYTES) as u64,
                have: bytes.len() as u64,
            });
        }
        // Binary search within the block for the boundary position.
        let mut lo = 0usize;
        let mut hi = count;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = read_u64(&bytes, mid * ENTRY_BYTES);
            let go_right = if strict { k <= key } else { k < key };
            if go_right {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(leaf_lo + lo as u64)
    }
}

/// Reference implementation: ranks by scalar scan over the key-sorted
/// column. Used by tests to pin the searcher's semantics.
pub fn scan_matches(values: &[f64], lo: f64, hi: f64) -> Vec<u32> {
    values
        .iter()
        .enumerate()
        .filter(|(_, &v)| v >= lo && v <= hi)
        .map(|(i, _)| i as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn searcher_matches(blob: &[u8], n: u64, lo: f64, hi: f64) -> Vec<u32> {
        let fetch = SliceFetch(blob);
        let s = IndexSearcher::open(&fetch, blob.len() as u64, n).unwrap();
        let Some((klo, khi)) = range_keys(lo, hi) else {
            return Vec::new();
        };
        let r0 = s.lower_bound(klo).unwrap();
        let r1 = s.upper_bound(khi).unwrap();
        let mut p = s.payloads(r0, r1).unwrap();
        p.sort_unstable();
        p
    }

    #[test]
    fn key_of_is_monotone_and_nan_is_max() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(key_of(w[0]) <= key_of(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(key_of(-0.0), key_of(0.0));
        assert_eq!(key_of(f64::NAN), u64::MAX);
        assert_eq!(key_of(-f64::NAN), u64::MAX);
        assert!(key_of(f64::INFINITY) < u64::MAX);
    }

    #[test]
    fn empty_column_builds_and_searches() {
        let blob = build_index(&[], 0);
        assert_eq!(blob.len(), HEADER_BYTES);
        assert_eq!(searcher_matches(&blob, 0, -1.0, 1.0), Vec::<u32>::new());
    }

    #[test]
    fn single_leaf_round_trip() {
        let vals = [3.0, 1.0, 2.0, 1.0, f64::NAN, -0.0];
        let blob = build_index(&vals, vals.len() as u64);
        assert_eq!(searcher_matches(&blob, 6, 1.0, 2.0), vec![1, 2, 3]);
        assert_eq!(searcher_matches(&blob, 6, 0.0, 0.0), vec![5]);
        // NaN never matches, even against an unbounded range.
        assert_eq!(
            searcher_matches(&blob, 6, f64::NEG_INFINITY, f64::INFINITY),
            vec![0, 1, 2, 3, 5]
        );
    }

    #[test]
    fn multi_level_tree_matches_scan() {
        // Tiny blocks force a 3-level tree at a few hundred entries.
        let vals: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64).collect();
        let blob = build_index_with(&vals, vals.len() as u64, 4, 4);
        let fetch = SliceFetch(&blob);
        let s = IndexSearcher::open(&fetch, blob.len() as u64, 500).unwrap();
        assert!(s.depth() >= 3);
        for (lo, hi) in [(0.0, 100.0), (10.0, 10.0), (33.5, 60.0), (200.0, 300.0)] {
            let (klo, khi) = range_keys(lo, hi).unwrap();
            let r0 = s.lower_bound(klo).unwrap();
            let r1 = s.upper_bound(khi).unwrap();
            let mut got = s.payloads(r0, r1).unwrap();
            got.sort_unstable();
            assert_eq!(got, scan_matches(&vals, lo, hi), "range [{lo}, {hi}]");
        }
    }

    #[test]
    fn corrupt_header_is_typed() {
        let vals = [1.0, 2.0, 3.0];
        let blob = build_index(&vals, 3);
        // Bad magic.
        let mut b = blob.clone();
        b[0] ^= 0xff;
        let f = SliceFetch(&b);
        assert!(matches!(
            IndexSearcher::open(&f, b.len() as u64, 3),
            Err(IndexError::Corrupt { what: "magic", .. })
        ));
        // Bit-flipped entry count disagrees with the directory.
        let mut b = blob.clone();
        b[8] ^= 0x01;
        let f = SliceFetch(&b);
        assert!(matches!(
            IndexSearcher::open(&f, b.len() as u64, 3),
            Err(IndexError::Corrupt {
                what: "entries",
                ..
            })
        ));
        // Truncated blob: geometry no longer matches the directory extent.
        let b = &blob[..blob.len() - 1];
        let f = SliceFetch(b);
        assert!(IndexSearcher::open(&f, b.len() as u64, 3).is_err());
    }

    #[test]
    fn out_of_range_payload_is_typed() {
        let vals = [1.0, 2.0, 3.0];
        let mut blob = build_index(&vals, 3);
        let geo = IndexGeometry::with_defaults(3);
        let payload_off = geo.leaf_offset() as usize + 8;
        blob[payload_off..payload_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let f = SliceFetch(&blob);
        let s = IndexSearcher::open(&f, blob.len() as u64, 3).unwrap();
        assert!(matches!(
            s.payloads(0, 3),
            Err(IndexError::Corrupt {
                what: "payload",
                ..
            })
        ));
    }

    #[test]
    fn spec_parsing() {
        assert_eq!(IndexSpec::parse(""), IndexSpec::None);
        assert_eq!(IndexSpec::parse("none"), IndexSpec::None);
        assert_eq!(IndexSpec::parse("all"), IndexSpec::All);
        assert_eq!(IndexSpec::parse("ALL"), IndexSpec::All);
        let named = IndexSpec::parse("mass, temp");
        assert!(named.selects("mass") && named.selects("temp") && !named.selects("vx"));
    }
}
