//! Remote-style byte access for BAT files: the [`ByteSource`] trait and
//! the [`RangeReader`] that drives it (ROADMAP item 1, DESIGN.md §13).
//!
//! The compacted BAT layout is deliberately range-request-friendly — a
//! small head (tree + dictionary) followed by treelet blocks at 4 KiB
//! boundaries — so a reader that can only issue `GET(offset, len)` against
//! an object store needs nothing beyond the head to plan a query and the
//! planned treelet ranges to execute it. [`RangeReader`] adds the three
//! behaviours a real remote path needs on top of a raw source:
//!
//! * **verification** — a response shorter (or longer) than requested is a
//!   torn range and surfaces as a typed error, never as garbage particles;
//! * **bounded retries** — transient failures are retried with exponential
//!   backoff up to [`RangeConfig::retries`] times, counted in
//!   `range.retries`;
//! * **coalescing** — [`coalesce_ranges`] merges planned treelet ranges
//!   whose gap is at most [`RangeConfig::gap_bytes`], trading a few padding
//!   bytes for fewer round trips (the request/byte tradeoff the paper's
//!   I/O model measures).
//!
//! Counters (all through `bat-obs`): `range.requests`, `range.bytes_fetched`,
//! `range.retries`, `range.coalesced`, `range.prefetch_hits`.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Anything that can serve absolute byte ranges of one immutable object.
///
/// Contract: `read_range(offset, len)` returns **exactly** `len` bytes of
/// the object at `[offset, offset + len)`, or an error. Implementations
/// must not return short reads as `Ok` — callers treat any length mismatch
/// as a torn response. Sources must be cheap to call concurrently; the
/// reader issues ranges from multiple worker threads.
pub trait ByteSource: Send + Sync {
    /// Total byte length of the object.
    fn len(&self) -> u64;

    /// True when the object is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read exactly `len` bytes starting at `offset`.
    fn read_range(&self, offset: u64, len: usize) -> io::Result<Vec<u8>>;
}

/// An in-memory [`ByteSource`] (owned buffer behind an `Arc`).
pub struct MemorySource {
    bytes: Arc<Vec<u8>>,
}

impl MemorySource {
    /// Wrap an owned buffer.
    pub fn new(bytes: Vec<u8>) -> MemorySource {
        MemorySource {
            bytes: Arc::new(bytes),
        }
    }

    /// Share an existing refcounted buffer.
    pub fn from_arc(bytes: Arc<Vec<u8>>) -> MemorySource {
        MemorySource { bytes }
    }
}

impl ByteSource for MemorySource {
    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn read_range(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let start = usize::try_from(offset)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "range offset overflow"))?;
        let end = start.checked_add(len).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => Ok(self.bytes[start..end].to_vec()),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "range [{offset}, +{len}) out of bounds (object is {} bytes)",
                    self.bytes.len()
                ),
            )),
        }
    }
}

/// A [`ByteSource`] over a local file using positioned reads (no mmap).
///
/// This is the "remote semantics, local bytes" backend: every access is an
/// explicit `pread`, so request/byte accounting matches what a true remote
/// store would see while the data still lives on local disk.
pub struct FileSource {
    file: std::fs::File,
    len: u64,
}

impl FileSource {
    /// Open `path` for positioned range reads.
    pub fn open(path: impl AsRef<std::path::Path>) -> io::Result<FileSource> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        Ok(FileSource { file, len })
    }
}

impl ByteSource for FileSource {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_range(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        use std::os::unix::fs::FileExt;
        let mut buf = vec![0u8; len];
        self.file.read_exact_at(&mut buf, offset)?;
        Ok(buf)
    }
}

/// Configuration of the range read path. Nothing here is read from the
/// environment: [`BatFile::from_source`](crate::BatFile::from_source) uses
/// the default, and a caller that needs another retry policy builds the
/// struct itself (the range fault tests do).
#[derive(Debug, Clone)]
pub struct RangeConfig {
    /// Maximum gap (bytes) between two planned ranges that still get merged
    /// into one request. `0` merges only exactly-adjacent ranges.
    pub gap_bytes: u64,
    /// Retries after a failed or torn range request (total attempts =
    /// `retries + 1`).
    pub retries: u32,
    /// Base backoff between retries; doubles per attempt. `0` disables
    /// sleeping (tests).
    pub backoff_ms: u64,
}

impl Default for RangeConfig {
    fn default() -> RangeConfig {
        RangeConfig {
            // One page of slack on each side of a 4 KiB-aligned treelet is
            // almost always cheaper than a second round trip; 16 KiB merges
            // runs of small neighbouring treelets without inflating bytes
            // much (gap sweep recorded in DESIGN.md §13).
            gap_bytes: 16 * 1024,
            retries: 3,
            backoff_ms: 1,
        }
    }
}

/// Cumulative counters for one [`RangeReader`] (mirrors the `range.*`
/// obs counters, but always on and per-reader for tests and benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeStats {
    /// Range requests issued against the source (after coalescing).
    pub requests: u64,
    /// Bytes fetched, including coalescing slack.
    pub bytes_fetched: u64,
    /// Requests saved by coalescing (naive count − merged count).
    pub coalesced: u64,
    /// Failed or torn attempts that were retried.
    pub retries: u64,
    /// Planned blocks served from the coalesced fetch of the plan
    /// execution that needed them ([`RangeReader::fetch_coalesced`]),
    /// rather than from a demand request of their own.
    pub prefetch_hits: u64,
}

/// Issues verified, retried, coalesced range requests against a
/// [`ByteSource`]. It holds no bytes: what a plan fetches lives in the
/// [`Coalesced`] of that plan's execution.
pub struct RangeReader {
    source: Arc<dyn ByteSource>,
    cfg: RangeConfig,
    requests: AtomicU64,
    bytes_fetched: AtomicU64,
    coalesced: AtomicU64,
    retries: AtomicU64,
    prefetch_hits: AtomicU64,
}

impl RangeReader {
    /// Wrap a source with the given config.
    pub fn new(source: Arc<dyn ByteSource>, cfg: RangeConfig) -> RangeReader {
        RangeReader {
            source,
            cfg,
            requests: AtomicU64::new(0),
            bytes_fetched: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
        }
    }

    /// Total byte length of the underlying object.
    pub fn len(&self) -> u64 {
        self.source.len()
    }

    /// True when the underlying object is empty.
    pub fn is_empty(&self) -> bool {
        self.source.is_empty()
    }

    /// Snapshot of this reader's cumulative counters.
    pub fn stats(&self) -> RangeStats {
        RangeStats {
            requests: self.requests.load(Ordering::Relaxed),
            bytes_fetched: self.bytes_fetched.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
        }
    }

    /// Fetch exactly `len` bytes at `offset`: one verified range request,
    /// retried with exponential backoff on failure or torn (wrong-length)
    /// responses. Returns a typed error once retries are exhausted.
    pub fn fetch(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..=self.cfg.retries {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                bat_obs::counter_add("range.retries", 1);
                if self.cfg.backoff_ms > 0 {
                    let ms = self.cfg.backoff_ms << (attempt - 1).min(10);
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
            }
            self.requests.fetch_add(1, Ordering::Relaxed);
            bat_obs::counter_add("range.requests", 1);
            match self.source.read_range(offset, len) {
                Ok(buf) if buf.len() == len => {
                    self.bytes_fetched.fetch_add(len as u64, Ordering::Relaxed);
                    bat_obs::counter_add("range.bytes_fetched", len as u64);
                    return Ok(buf);
                }
                Ok(buf) => {
                    // A short (or long) response is a torn range: never
                    // hand mismatched bytes to the decoder.
                    last_err = Some(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!(
                            "torn range response at [{offset}, +{len}): got {} bytes",
                            buf.len()
                        ),
                    ));
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("range request failed with no error")))
    }

    /// Fetch the `[start, end)` spans one plan execution needs in
    /// coalesced requests (merged within [`RangeConfig::gap_bytes`]).
    ///
    /// Best-effort and infallible: a failed merged request is left out,
    /// and its spans fall back to demand fetches, which surface the error
    /// with their own retry budget. Records `range.coalesced` savings.
    pub fn fetch_coalesced(&self, spans: &[(u64, u64)]) -> Coalesced<'_> {
        let merged = coalesce_ranges(spans, self.cfg.gap_bytes);
        let saved = (spans.len() - merged.len()) as u64;
        if saved > 0 {
            self.coalesced.fetch_add(saved, Ordering::Relaxed);
            bat_obs::counter_add("range.coalesced", saved);
        }
        let runs = merged
            .into_iter()
            .filter_map(|(s, e)| Some((s, self.fetch(s, (e - s) as usize).ok()?)))
            .collect();
        Coalesced { reader: self, runs }
    }
}

/// The bytes [`RangeReader::fetch_coalesced`] brought in for one plan
/// execution; they live exactly as long as the execution does.
pub struct Coalesced<'a> {
    reader: &'a RangeReader,
    /// The merged requests that succeeded, sorted by start offset.
    runs: Vec<(u64, Vec<u8>)>,
}

impl Coalesced<'_> {
    /// The bytes of `[start, end)` when one fetched run covers them,
    /// counted in `range.prefetch_hits`; `None` sends the caller to a
    /// demand [`RangeReader::fetch`].
    pub fn get(&self, start: u64, end: u64) -> Option<&[u8]> {
        let i = self.runs.partition_point(|r| r.0 <= start).checked_sub(1)?;
        let (run, bytes) = &self.runs[i];
        let bytes = bytes.get((start - run) as usize..(end - run) as usize)?;
        self.reader.prefetch_hits.fetch_add(1, Ordering::Relaxed);
        bat_obs::counter_add("range.prefetch_hits", 1);
        Some(bytes)
    }
}

/// Merge sorted-or-not byte ranges `[start, end)` whose gap is at most
/// `gap` into a minimal list of covering requests.
///
/// Properties (see `tests/range_properties.rs`):
/// * the output covers exactly the union of the inputs plus gaps of at
///   most `gap` bytes between merged neighbours (never more slack);
/// * output ranges are sorted, non-empty, and pairwise separated by more
///   than `gap` bytes (maximally merged);
/// * every output endpoint is an input endpoint.
pub fn coalesce_ranges(ranges: &[(u64, u64)], gap: u64) -> Vec<(u64, u64)> {
    let mut sorted: Vec<(u64, u64)> = ranges.iter().copied().filter(|r| r.1 > r.0).collect();
    sorted.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
    for (start, end) in sorted {
        match out.last_mut() {
            Some(last) if start <= last.1.saturating_add(gap) => {
                last.1 = last.1.max(end);
            }
            _ => out.push((start, end)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_merges_adjacent_and_respects_gap() {
        // Exactly adjacent always merges; gap-separated merges only when
        // the threshold allows it.
        assert_eq!(coalesce_ranges(&[(0, 10), (10, 20)], 0), vec![(0, 20)]);
        assert_eq!(
            coalesce_ranges(&[(0, 10), (15, 20)], 4),
            vec![(0, 10), (15, 20)]
        );
        assert_eq!(coalesce_ranges(&[(0, 10), (15, 20)], 5), vec![(0, 20)]);
        // Unsorted, overlapping, and empty inputs are normalized.
        assert_eq!(
            coalesce_ranges(&[(30, 40), (0, 20), (10, 25), (50, 50)], 0),
            vec![(0, 25), (30, 40)]
        );
        assert!(coalesce_ranges(&[], 16).is_empty());
    }

    #[test]
    fn memory_source_serves_exact_ranges() {
        let src = MemorySource::new((0u8..=255).collect());
        assert_eq!(src.len(), 256);
        assert_eq!(src.read_range(10, 4).unwrap(), vec![10, 11, 12, 13]);
        assert!(src.read_range(250, 10).is_err());
        assert!(src.read_range(300, 1).is_err());
    }

    #[test]
    fn fetch_verifies_length_and_retries() {
        // A source that returns a short buffer on the first call and the
        // real bytes afterwards: fetch must retry and succeed.
        struct Flaky {
            calls: AtomicU64,
        }
        impl ByteSource for Flaky {
            fn len(&self) -> u64 {
                8
            }
            fn read_range(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
                if self.calls.fetch_add(1, Ordering::Relaxed) == 0 {
                    Ok(vec![0; len / 2]) // torn
                } else {
                    Ok((offset as u8..offset as u8 + len as u8).collect())
                }
            }
        }
        let rr = RangeReader::new(
            Arc::new(Flaky {
                calls: AtomicU64::new(0),
            }),
            RangeConfig {
                backoff_ms: 0,
                ..RangeConfig::default()
            },
        );
        assert_eq!(rr.fetch(2, 4).unwrap(), vec![2, 3, 4, 5]);
        let s = rr.stats();
        assert_eq!(s.retries, 1);
        assert_eq!(s.requests, 2);
        assert_eq!(s.bytes_fetched, 4);
    }

    #[test]
    fn fetch_exhausts_retries_with_typed_error() {
        struct Dead;
        impl ByteSource for Dead {
            fn len(&self) -> u64 {
                100
            }
            fn read_range(&self, _: u64, _: usize) -> io::Result<Vec<u8>> {
                Err(io::Error::other("unreachable store"))
            }
        }
        let rr = RangeReader::new(
            Arc::new(Dead),
            RangeConfig {
                retries: 2,
                backoff_ms: 0,
                ..RangeConfig::default()
            },
        );
        let err = rr.fetch(0, 10).unwrap_err();
        assert!(err.to_string().contains("unreachable store"));
        assert_eq!(rr.stats().requests, 3);
        assert_eq!(rr.stats().retries, 2);
    }

    #[test]
    fn fetch_coalesced_serves_spans_and_counts_coalescing() {
        let bytes: Vec<u8> = (0..2048u64).map(|i| (i % 251) as u8).collect();
        let spans = [(0u64, 100u64), (120, 200), (1000, 1050)];
        let rr = RangeReader::new(
            Arc::new(MemorySource::new(bytes.clone())),
            RangeConfig {
                gap_bytes: 64,
                backoff_ms: 0,
                ..RangeConfig::default()
            },
        );
        let fetched = rr.fetch_coalesced(&spans);
        // (0,100) and (120,200) merge across the 20-byte gap; 1000 stays.
        let s = rr.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.coalesced, 1);
        for &(a, b) in &spans {
            let got = fetched.get(a, b).unwrap();
            assert_eq!(got, &bytes[a as usize..b as usize]);
        }
        assert_eq!(rr.stats().prefetch_hits, 3);
        // A span no run covers is left to a demand fetch.
        assert!(fetched.get(500, 600).is_none());
        assert!(fetched.get(1040, 1100).is_none());
        assert_eq!(rr.stats().prefetch_hits, 3);
    }
}
