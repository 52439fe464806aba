//! Sharded, memory-bounded treelet-block cache for the serve path.
//!
//! The BAT layout writes every treelet block at a 4 KiB page boundary
//! (DESIGN.md §9), so a treelet block is the natural page-granular caching
//! unit of the format: one entry covers the exact run of 4 KiB pages the
//! block spans, and its budget charge is that page span — never the raw
//! byte length — so cache accounting matches what the mmap read path would
//! fault in.
//!
//! The *mechanism* lives here in `bat-layout` so [`crate::reader::BatFile`]
//! can consult a cache before touching its mapping without a dependency
//! cycle (`bat-serve` depends on `bat-layout`, not the other way around).
//! The *policy* — sizing, admission priorities per query class, install —
//! is owned by `bat-serve` (DESIGN.md §12).
//!
//! Design:
//!
//! - **Sharded.** Entries hash over `(file_id, treelet)` to one of up to
//!   [`MAX_SHARDS`] shards, each behind its own lock, so concurrent
//!   serving workers do not serialize on a single cache mutex. Small
//!   budgets collapse to fewer shards so a shard can always hold at least
//!   one page.
//! - **Memory-bounded LRU.** Each shard keeps an intrusive LRU list and
//!   evicts from the cold end until an insert fits its slice of
//!   `BAT_CACHE_BYTES`.
//! - **Priority admission.** Every entry records the priority of the
//!   query that inserted it (set per worker thread via
//!   [`set_thread_priority`]). An insert may only evict entries of equal
//!   or lower priority; if walking the whole LRU list cannot free enough
//!   such bytes, the insert is *rejected* — a bulk scan cannot wash an
//!   interactive client's working set out of the cache.
//!
//! Correctness note: the cache stores verbatim copies of on-disk bytes and
//! is keyed by per-open file ids, so query results are byte-identical with
//! the cache disabled, enabled, or thrashing at a one-page budget (pinned
//! by `tests/serve_concurrent.rs` and the CI eviction-stress job).

use bat_wire::{pages_spanned, PAGE_SIZE};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Identifies one opened [`crate::reader::BatFile`]. Ids are never reused
/// within a process, so a reopened (possibly rewritten) file can never
/// alias a stale cache entry.
pub type FileId = u64;

/// Allocate a fresh [`FileId`] (called by `BatFile` on open).
pub fn next_file_id() -> FileId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Admission priority of a cache insert. Higher values may evict lower
/// ones, never the reverse.
pub const PRIORITY_BULK: u8 = 0;
/// Default priority for unclassified reads.
pub const PRIORITY_NORMAL: u8 = 1;
/// Interactive/progressive refinement queries (the paper's viewer loop).
pub const PRIORITY_INTERACTIVE: u8 = 2;

/// Upper bound on shard count (power of two for cheap masking).
pub const MAX_SHARDS: usize = 16;

thread_local! {
    static THREAD_PRIORITY: std::cell::Cell<u8> = const { std::cell::Cell::new(PRIORITY_NORMAL) };
}

/// Set the calling thread's cache-admission priority until the guard
/// drops (restores the previous value). Serving workers set this per
/// query before executing a plan.
#[must_use = "the priority reverts when the guard drops"]
pub fn set_thread_priority(priority: u8) -> PriorityGuard {
    let prev = THREAD_PRIORITY.with(|p| p.replace(priority));
    PriorityGuard { prev }
}

/// The calling thread's current admission priority.
pub fn thread_priority() -> u8 {
    THREAD_PRIORITY.with(|p| p.get())
}

/// Restores the previous thread priority on drop.
pub struct PriorityGuard {
    prev: u8,
}

impl Drop for PriorityGuard {
    fn drop(&mut self) {
        THREAD_PRIORITY.with(|p| p.set(self.prev));
    }
}

/// Aggregate counters (process lifetime, all shards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Inserts refused by the admission policy (victims outranked the
    /// incoming entry, or the block exceeds a shard's whole budget).
    pub rejected: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently charged against the budget (page-rounded).
    pub bytes: u64,
}

const NIL: usize = usize::MAX;

struct Slot {
    key: (FileId, u32),
    block: Arc<Vec<u8>>,
    charged: usize,
    priority: u8,
    prev: usize,
    next: usize,
}

/// One LRU shard: an intrusive doubly-linked recency list over a slab.
#[derive(Default)]
struct Shard {
    map: HashMap<(FileId, u32), usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
    bytes: usize,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            head: NIL,
            tail: NIL,
            ..Shard::default()
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = {
            let s = self.slots[i].as_ref().expect("linked slot");
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p].as_mut().expect("prev slot").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].as_mut().expect("next slot").prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        {
            let s = self.slots[i].as_mut().expect("slot to link");
            s.prev = NIL;
            s.next = self.head;
        }
        if let Some(h) = self.slots.get_mut(self.head).and_then(Option::as_mut) {
            h.prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn remove(&mut self, i: usize) -> Slot {
        self.unlink(i);
        let slot = self.slots[i].take().expect("slot to remove");
        self.map.remove(&slot.key);
        self.bytes -= slot.charged;
        self.free.push(i);
        slot
    }

    fn insert_front(&mut self, slot: Slot) {
        let key = slot.key;
        let charged = slot.charged;
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.bytes += charged;
        self.push_front(i);
    }
}

/// The sharded, memory-bounded, priority-admitting treelet-block cache.
pub struct PageCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    rejected: AtomicU64,
}

impl PageCache {
    /// A cache bounded to `budget_bytes` (page-rounded charges), with a
    /// shard count scaled so every shard can hold at least one page.
    pub fn new(budget_bytes: usize) -> Arc<PageCache> {
        let shards = MAX_SHARDS.min((budget_bytes / PAGE_SIZE).max(1));
        PageCache::with_shards(budget_bytes, shards)
    }

    /// As [`PageCache::new`] with an explicit shard count (clamped to
    /// `1..=MAX_SHARDS`).
    pub fn with_shards(budget_bytes: usize, shards: usize) -> Arc<PageCache> {
        let shards = shards.clamp(1, MAX_SHARDS);
        Arc::new(PageCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_budget: budget_bytes / shards,
            budget: budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        })
    }

    /// Total byte budget across all shards.
    pub fn budget(&self) -> usize {
        self.budget
    }

    fn shard(&self, file: FileId, treelet: u32) -> &Mutex<Shard> {
        // Fibonacci-style mix of both key halves; shard count is small so
        // the top bits carry the selection.
        let h = file
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            .wrapping_add((treelet as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        &self.shards[(h >> 48) as usize % self.shards.len()]
    }

    /// Look up a treelet block; a hit refreshes its recency.
    pub fn get(&self, file: FileId, treelet: u32) -> Option<Arc<Vec<u8>>> {
        let mut shard = self
            .shard(file, treelet)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match shard.map.get(&(file, treelet)).copied() {
            Some(i) => {
                shard.unlink(i);
                shard.push_front(i);
                let block = shard.slots[i].as_ref().expect("hit slot").block.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                if bat_obs::enabled() {
                    bat_obs::counter_add("cache.hits", 1);
                }
                Some(block)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                if bat_obs::enabled() {
                    bat_obs::counter_add("cache.misses", 1);
                }
                None
            }
        }
    }

    /// True when a block for `(file, treelet)` is resident. Pure probe:
    /// touches neither recency nor the hit/miss counters, so a caller
    /// (e.g. a test working out what a query will find resident) can
    /// consult the cache without distorting its statistics.
    pub fn contains(&self, file: FileId, treelet: u32) -> bool {
        let shard = self
            .shard(file, treelet)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        shard.map.contains_key(&(file, treelet))
    }

    /// Offer a treelet block at `priority` (normally the thread priority
    /// of the executing query; see [`set_thread_priority`]). The charge is
    /// the block's 4 KiB page span. Eviction walks the shard's LRU list
    /// from the cold end, skipping entries that outrank `priority`; if the
    /// evictable bytes cannot cover the charge the insert is rejected.
    pub fn insert(&self, file: FileId, treelet: u32, block: Arc<Vec<u8>>, priority: u8) {
        let charged = pages_spanned(0, block.len()) as usize * PAGE_SIZE;
        if charged > self.shard_budget || charged == 0 {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            if bat_obs::enabled() {
                bat_obs::counter_add("cache.rejected", 1);
            }
            return;
        }
        let mut shard = self
            .shard(file, treelet)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if shard.map.contains_key(&(file, treelet)) {
            // Racing workers materialized the same block; the resident
            // copy is identical by construction — keep it.
            return;
        }

        // Feasibility pass: can enough equal-or-lower-priority bytes be
        // freed, walking cold to hot?
        let need = (shard.bytes + charged).saturating_sub(self.shard_budget);
        if need > 0 {
            let mut freeable = 0usize;
            let mut i = shard.tail;
            while i != NIL && freeable < need {
                let s = shard.slots[i].as_ref().expect("lru slot");
                if s.priority <= priority {
                    freeable += s.charged;
                }
                i = s.prev;
            }
            if freeable < need {
                drop(shard);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                if bat_obs::enabled() {
                    bat_obs::counter_add("cache.rejected", 1);
                }
                return;
            }
            // Eviction pass: free exactly what the feasibility pass found.
            let mut freed = 0usize;
            let mut i = shard.tail;
            let mut evicted = 0u64;
            while i != NIL && freed < need {
                let (prev, evictable, charge) = {
                    let s = shard.slots[i].as_ref().expect("lru slot");
                    (s.prev, s.priority <= priority, s.charged)
                };
                if evictable {
                    shard.remove(i);
                    freed += charge;
                    evicted += 1;
                }
                i = prev;
            }
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            if bat_obs::enabled() {
                bat_obs::counter_add("cache.evictions", evicted);
            }
        }

        shard.insert_front(Slot {
            key: (file, treelet),
            block,
            charged,
            priority,
            prev: NIL,
            next: NIL,
        });
        // The shard lock must be released before the gauge: bytes_cached()
        // locks every shard, and the shard mutex is not reentrant.
        drop(shard);
        if bat_obs::enabled() {
            bat_obs::gauge_set("cache.bytes", self.bytes_cached() as f64);
        }
    }

    /// Bytes currently charged across all shards.
    pub fn bytes_cached(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).bytes)
            .sum()
    }

    /// Lifetime counters plus current residency.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for s in &self.shards {
            let s = s.lock().unwrap_or_else(|e| e.into_inner());
            entries += s.map.len() as u64;
            bytes += s.bytes as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

// ---------------------------------------------------------------------------
// Global install (the zero-code engagement path)
// ---------------------------------------------------------------------------

enum GlobalState {
    /// Nothing decided yet: first [`global`] call consults
    /// `BAT_CACHE_BYTES`.
    Unset,
    /// Explicitly disabled (or the env was absent/unparsable).
    Disabled,
    Installed(Arc<PageCache>),
}

fn global_slot() -> &'static Mutex<GlobalState> {
    static GLOBAL: OnceLock<Mutex<GlobalState>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(GlobalState::Unset))
}

/// Install (or, with `None`, remove) the process-wide cache that
/// [`crate::reader::BatFile`] consumers attach by default. `bat-serve`
/// calls this when configuring a server; the env path below covers
/// processes that never touch `bat-serve`.
pub fn install_global(cache: Option<Arc<PageCache>>) {
    let mut slot = global_slot().lock().unwrap_or_else(|e| e.into_inner());
    *slot = match cache {
        Some(c) => GlobalState::Installed(c),
        None => GlobalState::Disabled,
    };
}

/// The process-wide cache, if any. The first call (absent an explicit
/// [`install_global`]) reads `BAT_CACHE_BYTES` — a byte budget, optional
/// `k`/`m`/`g` suffix — so the entire tier-1 suite can run against a
/// cache (even a one-page one) by exporting a single variable.
pub fn global() -> Option<Arc<PageCache>> {
    let mut slot = global_slot().lock().unwrap_or_else(|e| e.into_inner());
    if let GlobalState::Unset = *slot {
        *slot = match bat_obs::knobs::CACHE_BYTES.uint() {
            Some(budget) if budget > 0 => GlobalState::Installed(PageCache::new(budget as usize)),
            _ => GlobalState::Disabled,
        };
    }
    match &*slot {
        GlobalState::Installed(c) => Some(c.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(pages: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![0xAB; pages * PAGE_SIZE])
    }

    #[test]
    fn hit_miss_and_recency() {
        let c = PageCache::with_shards(8 * PAGE_SIZE, 1);
        assert!(c.get(1, 0).is_none());
        c.insert(1, 0, block(1), PRIORITY_NORMAL);
        assert!(c.get(1, 0).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let c = PageCache::with_shards(2 * PAGE_SIZE, 1);
        c.insert(1, 0, block(1), PRIORITY_NORMAL);
        c.insert(1, 1, block(1), PRIORITY_NORMAL);
        // Touch 0 so 1 is the LRU victim.
        assert!(c.get(1, 0).is_some());
        c.insert(1, 2, block(1), PRIORITY_NORMAL);
        assert!(c.get(1, 0).is_some(), "recently used entry must survive");
        assert!(c.get(1, 1).is_none(), "LRU entry must be evicted");
        assert!(c.get(1, 2).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn admission_respects_priority() {
        let c = PageCache::with_shards(PAGE_SIZE, 1);
        c.insert(1, 0, block(1), PRIORITY_INTERACTIVE);
        // A bulk insert may not evict the interactive entry.
        c.insert(1, 1, block(1), PRIORITY_BULK);
        assert!(c.get(1, 0).is_some(), "high-priority entry must survive");
        assert!(c.get(1, 1).is_none(), "low-priority insert was rejected");
        assert_eq!(c.stats().rejected, 1);
        // An equal-priority insert may evict it.
        c.insert(1, 2, block(1), PRIORITY_INTERACTIVE);
        assert!(c.get(1, 2).is_some());
        assert!(c.get(1, 0).is_none());
    }

    #[test]
    fn oversized_blocks_rejected() {
        let c = PageCache::with_shards(PAGE_SIZE, 1);
        c.insert(1, 0, block(2), PRIORITY_INTERACTIVE);
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn charges_are_page_rounded() {
        let c = PageCache::with_shards(4 * PAGE_SIZE, 1);
        c.insert(1, 0, Arc::new(vec![1u8; 10]), PRIORITY_NORMAL);
        assert_eq!(c.stats().bytes, PAGE_SIZE as u64);
    }

    #[test]
    fn shard_count_scales_with_budget() {
        assert_eq!(PageCache::new(PAGE_SIZE).shards.len(), 1);
        assert_eq!(PageCache::new(64 << 20).shards.len(), MAX_SHARDS);
    }

    #[test]
    fn thread_priority_guard_restores() {
        assert_eq!(thread_priority(), PRIORITY_NORMAL);
        {
            let _g = set_thread_priority(PRIORITY_INTERACTIVE);
            assert_eq!(thread_priority(), PRIORITY_INTERACTIVE);
            {
                let _g2 = set_thread_priority(PRIORITY_BULK);
                assert_eq!(thread_priority(), PRIORITY_BULK);
            }
            assert_eq!(thread_priority(), PRIORITY_INTERACTIVE);
        }
        assert_eq!(thread_priority(), PRIORITY_NORMAL);
    }

    #[test]
    fn insert_with_obs_enabled_does_not_self_deadlock() {
        // Regression: the post-insert `cache.bytes` gauge sums every
        // shard's bytes; computing it while still holding the inserting
        // shard's (non-reentrant) lock hung the first observed insert.
        let _obs = bat_obs::enable();
        let reg = Arc::new(bat_obs::Registry::new());
        let _scope = bat_obs::scope(reg.clone());
        let c = PageCache::with_shards(2 * PAGE_SIZE, 1);
        for t in 0..4 {
            c.insert(7, t, block(1), PRIORITY_NORMAL);
            assert!(c.get(7, t).is_some());
        }
        assert_eq!(reg.gauge("cache.bytes").get(), (2 * PAGE_SIZE) as f64);
        assert!(reg.counter("cache.evictions").get() >= 2);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c = PageCache::new(64 * PAGE_SIZE);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..200u32 {
                        let key = i % 32;
                        if let Some(b) = c.get(t, key) {
                            assert_eq!(b.len(), PAGE_SIZE);
                        } else {
                            c.insert(t, key, Arc::new(vec![t as u8; PAGE_SIZE]), PRIORITY_NORMAL);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = c.stats();
        assert!(s.bytes <= c.budget() as u64);
        assert_eq!(s.hits + s.misses, 800);
    }
}
