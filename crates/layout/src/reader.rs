//! Reading compacted BAT files: spatial, attribute, and progressive
//! multiresolution queries (paper §V).
//!
//! [`BatFile`] opens a compacted buffer either from memory or through a
//! memory mapping (the paper's read path; the OS page cache then serves
//! frequently accessed treelets). The file head is parsed eagerly; treelet
//! blocks are interpreted in place — node records are decoded as the
//! traversal touches them, and particle data is read directly out of the
//! mapped pages.

use crate::attr::AttributeType;
use crate::bitmap::Bitmap32;
use crate::cache::{self, PageCache};
use crate::codec::SectionKind;
use crate::format::{self, FileHead, LeafRec, TreeletLayout};
use crate::query::{contribution, quality_to_depth, PointRecord, Query};
use crate::radix::{self, NodeRef};
use crate::source::{ByteSource, RangeConfig, RangeReader};
use crate::treelet::NO_CHILD;
use bat_geom::{Aabb, Vec3};
use bat_wire::{Block, WireError, WireResult};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Counters describing how much work a query did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Shallow + treelet nodes visited.
    pub nodes_visited: u64,
    /// Treelets whose blocks were touched.
    pub treelets_visited: u64,
    /// Points read and tested against exact filters.
    pub points_tested: u64,
    /// Points passed to the callback.
    pub points_returned: u64,
    /// Distinct 4 KiB pages covered by the treelet blocks touched (the
    /// I/O cost proxy for an mmap-backed read; §V).
    pub pages_touched: u64,
    /// Nodes whose bitmaps overlapped every filter mask (descended).
    pub bitmap_hits: u64,
    /// Nodes culled because a bitmap missed a filter mask.
    pub bitmap_skips: u64,
    /// Treelet blocks served from an attached [`PageCache`].
    pub cache_hits: u64,
    /// Treelet blocks materialized from the backing mapping (and offered
    /// to the attached cache, if any).
    pub cache_misses: u64,
    /// Points that survived the binned-bitmap pre-filter *and* passed the
    /// exact attribute filters (counted only for filtered queries).
    pub filter_hits: u64,
    /// Points that survived the bitmap pre-filter but failed the exact
    /// filters — the bins' measured false positives.
    pub filter_false_positives: u64,
}

impl std::ops::AddAssign for QueryStats {
    fn add_assign(&mut self, rhs: QueryStats) {
        // Destructured without `..` on purpose: a field added to the
        // struct but not merged here fails to compile instead of silently
        // dropping out of every per-file and per-dataset total.
        let QueryStats {
            nodes_visited,
            treelets_visited,
            points_tested,
            points_returned,
            pages_touched,
            bitmap_hits,
            bitmap_skips,
            cache_hits,
            cache_misses,
            filter_hits,
            filter_false_positives,
        } = rhs;
        self.nodes_visited += nodes_visited;
        self.treelets_visited += treelets_visited;
        self.points_tested += points_tested;
        self.points_returned += points_returned;
        self.pages_touched += pages_touched;
        self.bitmap_hits += bitmap_hits;
        self.bitmap_skips += bitmap_skips;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.filter_hits += filter_hits;
        self.filter_false_positives += filter_false_positives;
    }
}

impl QueryStats {
    /// Report one file's executed work through the `read.query.*` and
    /// `bitmap.*` counters (a no-op while metrics are off).
    fn emit_counters(&self) {
        if !bat_obs::enabled() {
            return;
        }
        bat_obs::counter_add("read.query.count", 1);
        bat_obs::counter_add("read.query.treelets", self.treelets_visited);
        bat_obs::counter_add("read.query.pages_4k", self.pages_touched);
        bat_obs::counter_add("read.query.points_tested", self.points_tested);
        bat_obs::counter_add("read.query.points_returned", self.points_returned);
        bat_obs::counter_add("read.query.bitmap_hits", self.bitmap_hits);
        bat_obs::counter_add("read.query.bitmap_skips", self.bitmap_skips);
        bat_obs::counter_add("bitmap.hits", self.filter_hits);
        bat_obs::counter_add("bitmap.false_positives", self.filter_false_positives);
        let survived = self.filter_hits + self.filter_false_positives;
        if survived > 0 {
            bat_obs::gauge_set(
                "bitmap.false_positive_rate",
                self.filter_false_positives as f64 / survived as f64,
            );
        }
    }
}

/// How [`BatFile::plan`] culled treelets for an attribute-filtered query
/// (`BAT_PLAN_STRATEGY`, read when the file is opened, forces a choice;
/// `auto` picks by selectivity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStrategy {
    /// No attribute-based culling: every bounds-surviving treelet is
    /// scanned and only the exact per-point filters reject.
    Scan,
    /// Binned-bitmap pre-filtering (the default paper path).
    Bitmap,
    /// Exact packed B-tree culling layered on top of the bitmap plan.
    Index,
}

impl PlanStrategy {
    pub fn name(self) -> &'static str {
        match self {
            PlanStrategy::Scan => "scan",
            PlanStrategy::Bitmap => "bitmap",
            PlanStrategy::Index => "index",
        }
    }

    /// The `BAT_PLAN_STRATEGY` override in the environment right now:
    /// `scan`, `bitmap` or `index`; unset or `auto` lets the planner choose.
    fn forced_by_env() -> Option<PlanStrategy> {
        match bat_obs::knobs::PLAN_STRATEGY.get()?.as_str() {
            "scan" => Some(PlanStrategy::Scan),
            "bitmap" => Some(PlanStrategy::Bitmap),
            "index" => Some(PlanStrategy::Index),
            _ => None,
        }
    }
}

/// The per-file slice of a query plan (paper §V + DESIGN.md §12): the
/// treelets the query must materialize, in deterministic traversal order,
/// plus the shallow-tree pruning evidence. Produced by [`BatFile::plan`]
/// *before any treelet block is touched*, so a serving layer can order,
/// admit, or reject work using only file-head metadata.
#[derive(Debug, Clone)]
pub struct FilePlan {
    /// Treelet indices to materialize, in the order execution visits them.
    treelets: Vec<u32>,
    /// Precomputed per-filter query masks (reused by execution).
    masks: Vec<(usize, Bitmap32)>,
    /// Shallow inner nodes inspected while planning.
    pub shallow_nodes_visited: u64,
    /// Shallow subtrees pruned because their AABB missed the query bounds.
    pub pruned_bounds: u64,
    /// Shallow subtrees pruned by bitmap-index pre-filtering.
    pub pruned_bitmap: u64,
    /// Shallow nodes whose bitmaps overlapped every filter mask.
    pub shallow_bitmap_hits: u64,
    /// How attribute predicates culled treelets for this plan.
    pub strategy: PlanStrategy,
    /// Exact match fraction from the B-tree rank search, when one ran:
    /// `matching entries / file particles` for the most selective indexed
    /// filter.
    pub index_selectivity: Option<f64>,
}

impl FilePlan {
    /// Treelets the query must materialize, in execution order.
    pub fn treelets(&self) -> &[u32] {
        &self.treelets
    }

    /// Number of treelets the plan will materialize.
    pub fn num_treelets(&self) -> usize {
        self.treelets.len()
    }

    /// True when the plan proves the file contributes nothing.
    pub fn is_empty(&self) -> bool {
        self.treelets.is_empty()
    }

    /// Shallow subtrees pruned before materialization (bounds + bitmap).
    pub fn nodes_pruned(&self) -> u64 {
        self.pruned_bounds + self.pruned_bitmap
    }
}

/// Where an opened file's bytes come from.
///
/// `Block` is the local path: the whole file is addressable as one
/// zero-copy byte window (owned buffer, message payload, or memory map).
/// `Range` is the remote path: only the head has been materialized, and
/// treelet blocks are fetched on demand — or prefetched in coalesced
/// requests — through a [`RangeReader`] (DESIGN.md §13).
enum Backing {
    Block(Block),
    Range(RangeReader),
}

impl Backing {
    fn len(&self) -> usize {
        match self {
            Backing::Block(b) => b.len(),
            Backing::Range(r) => r.len() as usize,
        }
    }
}

/// An opened, compacted BAT file.
///
/// The backing storage is either one [`Block`] (owned buffer, received
/// message payload, or memory map) or a [`ByteSource`] reached through
/// range requests; every open path shares the same treelet access and
/// returns byte-identical query results.
pub struct BatFile {
    backing: Backing,
    head: FileHead,
    /// Treelet-block cache consulted before the backing block; see
    /// [`crate::cache`]. `None` reads straight from the mapping (or, for
    /// range backings, fetches per touch).
    cache: Option<Arc<PageCache>>,
    /// Process-unique id keying this open file's cache entries.
    file_id: cache::FileId,
    /// `BAT_PLAN_STRATEGY` as it stood when the file was opened; `None`
    /// lets [`BatFile::plan`] choose by selectivity.
    forced: Option<PlanStrategy>,
}

impl BatFile {
    /// Open from an in-memory buffer (also the in-transit path: aggregators
    /// can query the compacted tree before/instead of writing it; §III-C).
    pub fn from_bytes(bytes: Vec<u8>) -> WireResult<BatFile> {
        BatFile::from_block(Block::from_vec(bytes))
    }

    /// Open from any [`Block`] — e.g. a comm message payload or a slice of
    /// a larger mapped region — without copying the file bytes.
    pub fn from_block(block: Block) -> WireResult<BatFile> {
        let head = format::read_head(&block)?;
        Ok(BatFile {
            backing: Backing::Block(block),
            head,
            cache: None,
            file_id: cache::next_file_id(),
            forced: PlanStrategy::forced_by_env(),
        })
    }

    /// Open from a remote-style [`ByteSource`] with the default
    /// [`RangeConfig`].
    ///
    /// Only the file head is fetched here — typically one request for the
    /// first page plus one for the rest of the head. Treelet blocks are
    /// fetched on demand during execution, or ahead of it in coalesced
    /// range requests by the prefetch [`BatFile::execute_plan`] runs.
    pub fn from_source(source: Arc<dyn ByteSource>) -> WireResult<BatFile> {
        BatFile::from_source_with(source, RangeConfig::default())
    }

    /// As [`BatFile::from_source`] with an explicit [`RangeConfig`].
    pub fn from_source_with(source: Arc<dyn ByteSource>, cfg: RangeConfig) -> WireResult<BatFile> {
        let reader = RangeReader::new(source, cfg);
        let file_len = reader.len();
        let io_err = |what: &'static str| {
            move |e: std::io::Error| WireError::Io {
                what,
                message: e.to_string(),
            }
        };
        // First request: one page, enough for the fixed header of any
        // well-formed file. `head_end` sits at bytes 8..16.
        let prefix_len = (file_len as usize).min(bat_wire::PAGE_SIZE);
        let mut head_bytes = reader.fetch(0, prefix_len).map_err(io_err("file head"))?;
        if head_bytes.len() >= 16 {
            let head_end =
                u64::from_le_bytes(head_bytes[8..16].try_into().expect("len 8")) as usize;
            if head_end > head_bytes.len() && head_end as u64 <= file_len {
                let rest = reader
                    .fetch(prefix_len as u64, head_end - prefix_len)
                    .map_err(io_err("file head"))?;
                head_bytes.extend_from_slice(&rest);
            }
            // An out-of-bounds head_end falls through to the parser, which
            // reports it as a typed BadLength.
        }
        let head = format::read_head_bounded(&head_bytes, file_len as usize)?;
        Ok(BatFile {
            backing: Backing::Range(reader),
            head,
            cache: None,
            file_id: cache::next_file_id(),
            forced: PlanStrategy::forced_by_env(),
        })
    }

    /// Open a file on disk through a memory mapping.
    ///
    /// The mapping assumes the file is not concurrently truncated or
    /// modified (the write-once model of simulation output). If a
    /// process-wide treelet cache is installed ([`crate::cache::global`],
    /// sized by `BAT_CACHE_BYTES`), the file attaches it.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<BatFile> {
        let file = std::fs::File::open(path)?;
        // SAFETY: BAT files follow a write-once-read-many model; mapping a
        // file nobody mutates is sound. A hostile concurrent writer could at
        // worst cause decode errors, which the panic-free parser reports.
        let map = unsafe { memmap2::Mmap::map(&file)? };
        let block = Block::from_arc(Arc::new(map));
        BatFile::from_block(block)
            .map(|f| f.with_cache(cache::global()))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// This file with the given treelet cache attached (or detached, with
    /// `None`). Queries consult the cache before touching the backing
    /// block; results are byte-identical either way.
    pub fn with_cache(mut self, cache: Option<Arc<PageCache>>) -> BatFile {
        self.cache = cache;
        self
    }

    /// The attached treelet cache, if any.
    pub fn cache(&self) -> Option<&Arc<PageCache>> {
        self.cache.as_ref()
    }

    /// The process-unique id keying this open file's cache entries.
    pub fn file_id(&self) -> cache::FileId {
        self.file_id
    }

    /// The backing block (shared, zero-copy), when the file is block-backed.
    /// Range-backed files have no whole-file buffer and return `None`.
    pub fn block(&self) -> Option<&Block> {
        match &self.backing {
            Backing::Block(b) => Some(b),
            Backing::Range(_) => None,
        }
    }

    /// Cumulative range-request counters, when the file is range-backed.
    pub fn range_stats(&self) -> Option<crate::source::RangeStats> {
        match &self.backing {
            Backing::Block(_) => None,
            Backing::Range(r) => Some(r.stats()),
        }
    }

    /// Parsed file head (schema, ranges, shallow tree, dictionary).
    pub fn head(&self) -> &FileHead {
        &self.head
    }

    /// Total particle count in the file.
    pub fn num_particles(&self) -> u64 {
        self.head.num_particles
    }

    /// Raw byte size of the backing buffer or remote object.
    pub fn byte_size(&self) -> usize {
        self.backing.len()
    }

    /// Domain bounds the layout was built over.
    pub fn domain(&self) -> Aabb {
        self.head.domain
    }

    /// Run a query, invoking `cb` for every matching point, and return work
    /// counters. See [`Query`] for the knobs.
    pub fn query(&self, q: &Query, cb: impl FnMut(PointRecord<'_>)) -> WireResult<QueryStats> {
        let plan = self.plan(q)?;
        self.execute_plan(q, &plan, cb)
    }

    /// Plan a query against this file **without materializing any treelet
    /// block**: walk the shallow tree, prune subtrees by node AABBs and by
    /// bitmap-index pre-filtering, and return the surviving treelets in
    /// deterministic traversal order. [`BatFile::execute_plan_until`] then
    /// does the page-touching work.
    pub fn plan(&self, q: &Query) -> WireResult<FilePlan> {
        let forced = self.forced;
        let mut plan = FilePlan {
            treelets: Vec::new(),
            masks: Vec::with_capacity(q.filters.len()),
            shallow_nodes_visited: 0,
            pruned_bounds: 0,
            pruned_bitmap: 0,
            shallow_bitmap_hits: 0,
            strategy: if forced == Some(PlanStrategy::Scan) {
                PlanStrategy::Scan
            } else {
                PlanStrategy::Bitmap
            },
            index_selectivity: None,
        };
        let na = self.head.descs.len();

        // Per-filter query masks over this file's local ranges. An empty
        // mask proves no particle here can match (bins have no false
        // negatives), so the whole file is skipped. Under a forced `scan`
        // strategy no masks are built: every treelet the bounds admit is
        // scanned and only the exact per-point filters reject.
        for f in &q.filters {
            if f.attr >= na {
                return Err(WireError::BadTag {
                    what: "filter attribute index",
                    tag: f.attr as u64,
                });
            }
            if plan.strategy == PlanStrategy::Scan {
                continue;
            }
            let (lo, hi) = self.head.attr_ranges[f.attr];
            let mask = Bitmap32::query_mask(f.lo, f.hi, lo, hi);
            if mask == Bitmap32::EMPTY {
                plan.masks.clear();
                return Ok(Self::finish_plan(plan));
            }
            plan.masks.push((f.attr, mask));
        }

        // The head's shallow tree was checked when the file was opened.
        let inners = &self.head.inners;
        let children = |i: u32| [inners[i as usize].left, inners[i as usize].right];
        radix::walk(
            NodeRef::root_of(self.head.leaves.len()),
            children,
            |c| match c {
                NodeRef::Inner(i) => {
                    plan.shallow_nodes_visited += 1;
                    let node = &inners[i as usize];
                    if q.bounds
                        .as_ref()
                        .is_some_and(|qb| !qb.overlaps(&node.bounds))
                    {
                        plan.pruned_bounds += 1;
                        return false;
                    }
                    let dict = &self.head.dict;
                    if plan
                        .masks
                        .iter()
                        .any(|&(a, m)| !dict.get(node.bitmap_ids[a]).overlaps(m))
                    {
                        plan.pruned_bitmap += 1;
                        return false;
                    }
                    if !plan.masks.is_empty() {
                        plan.shallow_bitmap_hits += 1;
                    }
                    true
                }
                NodeRef::Leaf(l) => {
                    plan.treelets.push(l);
                    false
                }
            },
        );

        // Exact B-tree refinement: when the query filters an indexed
        // attribute, rank-search the index for an exact match count; a
        // selective-enough predicate then culls every treelet without a
        // match (`auto` picks by selectivity, `index` forces it). A broken
        // index degrades to the bitmap plan — typed, never a query error.
        if forced != Some(PlanStrategy::Scan)
            && forced != Some(PlanStrategy::Bitmap)
            && !q.filters.is_empty()
            && !self.head.indexes.is_empty()
            && !plan.treelets.is_empty()
        {
            if let Err(err) = self.index_refine(q, &mut plan, forced == Some(PlanStrategy::Index)) {
                bat_obs::counter_add("index.errors", 1);
                let _ = err;
            }
        }
        Ok(Self::finish_plan(plan))
    }

    /// Emit the per-plan strategy counter and hand the plan back.
    fn finish_plan(plan: FilePlan) -> FilePlan {
        if bat_obs::enabled() {
            let name = match plan.strategy {
                PlanStrategy::Scan => "plan.strategy.scan",
                PlanStrategy::Bitmap => "plan.strategy.bitmap",
                PlanStrategy::Index => "plan.strategy.index",
            };
            bat_obs::counter_add(name, 1);
        }
        plan
    }

    /// Consult the attribute indexes for `q` and, when the most selective
    /// indexed filter is sparse enough (or `forced`), retain only the
    /// planned treelets that hold an exact match.
    fn index_refine(
        &self,
        q: &Query,
        plan: &mut FilePlan,
        forced: bool,
    ) -> Result<(), bat_index::IndexError> {
        /// `auto` cutoff: above this match fraction, pulling the payload
        /// list costs more pages than the bitmap plan would save.
        const INDEX_MAX_SELECTIVITY: f64 = 0.1;

        // Rank-search every indexed filter; the most selective one culls.
        let mut best: Option<(usize, u64, u64, u64)> = None; // (attr, r0, r1, count)
        let mut lookups = 0u64;
        let mut fetched = 0u64;
        for f in &q.filters {
            let Some(entry) = self.head.index_for(f.attr) else {
                continue;
            };
            let Some((klo, khi)) = bat_index::range_keys(f.lo, f.hi) else {
                // Inverted bounds match nothing; NaN bounds never get here
                // (`Query::validated` rejects them).
                best = Some((f.attr, 0, 0, 0));
                break;
            };
            let fetch = IndexBlobFetch::new(self, entry);
            let searcher = bat_index::IndexSearcher::open(&fetch, entry.len, entry.entries)?;
            let r0 = searcher.lower_bound(klo)?;
            let r1 = searcher.upper_bound(khi)?;
            lookups += 1;
            fetched += fetch.fetches.get();
            let count = r1.saturating_sub(r0);
            if best.is_none_or(|(.., c)| count < c) {
                best = Some((f.attr, r0, r1, count));
            }
            if count == 0 {
                break;
            }
        }
        bat_obs::counter_add("index.lookups", lookups);
        let Some((attr, r0, r1, count)) = best else {
            bat_obs::counter_add("index.nodes_fetched", fetched);
            return Ok(()); // no filter touches an indexed attribute
        };
        let selectivity = count as f64 / self.head.num_particles.max(1) as f64;
        plan.index_selectivity = Some(selectivity);
        if count == 0 {
            // Exact proof of emptiness: nothing in this file matches.
            plan.treelets.clear();
            plan.strategy = PlanStrategy::Index;
            bat_obs::counter_add("index.nodes_fetched", fetched);
            return Ok(());
        }
        if !forced && selectivity > INDEX_MAX_SELECTIVITY {
            bat_obs::counter_add("index.nodes_fetched", fetched);
            return Ok(()); // dense predicate: stay on the bitmap plan
        }

        // Pull the matching payloads (particle indices in file order) and
        // keep only the treelets that own at least one of them. The payload
        // read is one contiguous range; on remote backings it streams past
        // the page cache.
        let entry = self
            .head
            .index_for(attr)
            .expect("winning attribute came from the directory");
        let fetch = IndexBlobFetch::new(self, entry);
        let searcher = bat_index::IndexSearcher::open(&fetch, entry.len, entry.entries)?;
        let payloads = searcher.payloads(r0, r1)?;
        fetched += fetch.fetches.get();
        bat_obs::counter_add("index.nodes_fetched", fetched);
        let mut keep = vec![false; self.head.leaves.len()];
        for &p in &payloads {
            // Leaves are laid out in particle order: find the treelet whose
            // particle range contains payload `p`.
            let i = self
                .head
                .leaves
                .partition_point(|l| l.first_particle <= p as u64);
            if i > 0 {
                keep[i - 1] = true;
            }
        }
        plan.treelets.retain(|&t| keep[t as usize]);
        plan.strategy = PlanStrategy::Index;
        Ok(())
    }

    /// Execute a plan produced by [`BatFile::plan`] for the same query to
    /// completion; the returned stats include the plan's shallow-traversal
    /// counters (so `plan` + `execute_plan` report exactly what
    /// [`BatFile::query`] would).
    pub fn execute_plan(
        &self,
        q: &Query,
        plan: &FilePlan,
        cb: impl FnMut(PointRecord<'_>),
    ) -> WireResult<QueryStats> {
        let mut stats = QueryStats::default();
        self.execute_plan_until(q, plan, None, &mut stats, cb)?;
        Ok(stats)
    }

    /// The per-file execute loop every read path runs: coalesced prefetch,
    /// parallel warm-up, then the plan's treelets in order. This file's
    /// work (shallow-traversal counters included) is added to `stats` and
    /// reported through the `read.query.*` / `bitmap.*` counters.
    ///
    /// `deadline` is checked before the prefetch and between treelets —
    /// the unit of page-touching work — so an expired query fetches and
    /// decodes nothing further and stops within one treelet's effort.
    /// Returns `false` when the deadline fired before the plan finished;
    /// `stats.treelets_visited` then says how far execution got.
    pub fn execute_plan_until(
        &self,
        q: &Query,
        plan: &FilePlan,
        deadline: Option<Instant>,
        stats: &mut QueryStats,
        mut cb: impl FnMut(PointRecord<'_>),
    ) -> WireResult<bool> {
        let expired = || deadline.is_some_and(|d| Instant::now() >= d);
        if expired() {
            return Ok(false);
        }
        let _span = bat_obs::span("read.query_ns");
        let mut file_stats = QueryStats {
            nodes_visited: plan.shallow_nodes_visited,
            bitmap_hits: plan.shallow_bitmap_hits,
            bitmap_skips: plan.pruned_bitmap,
            ..QueryStats::default()
        };
        self.prefetch(plan);
        self.warm_up(plan);
        let mut attr_buf = vec![0.0; self.head.descs.len()];
        let mut finished = true;
        for &t in &plan.treelets {
            if expired() {
                finished = false;
                break;
            }
            self.query_treelet(t, q, &plan.masks, &mut attr_buf, &mut file_stats, &mut cb)?;
        }
        file_stats.emit_counters();
        *stats += file_stats;
        Ok(finished)
    }

    /// v2 + cache: materialize the plan's not-yet-resident blocks in
    /// parallel through the rayon pool, populating the cache ahead of the
    /// (still sequential, deterministic) scan. Each block decodes
    /// independently to the same bytes regardless of pool size, so results
    /// are byte-identical with this warm-up disabled. Best-effort: any
    /// fetch/decode error is dropped here and resurfaces as the typed error
    /// on the demand path.
    fn warm_up(&self, plan: &FilePlan) {
        let (true, Some(cache)) = (self.head.is_v2(), &self.cache) else {
            return;
        };
        let pending: Vec<u32> = plan
            .treelets
            .iter()
            .copied()
            .filter(|&t| !cache.contains(self.file_id, t))
            .collect();
        if pending.len() < 2 {
            return;
        }
        // Rayon workers don't inherit the query thread's cache-admission
        // priority (it's thread-local), so capture and pass it through.
        let priority = cache::thread_priority();
        use rayon::prelude::*;
        let _: Vec<()> = pending
            .par_iter()
            .map(|&t| {
                let _prio = cache::set_thread_priority(priority);
                let leaf = &self.head.leaves[t as usize];
                let layout = self.treelet_layout(leaf);
                let _ = self.treelet_block(leaf, t, &layout, &mut None, &mut QueryStats::default());
            })
            .collect();
    }

    /// Speculatively fetch the plan's treelet blocks in coalesced range
    /// requests (a no-op for block-backed files, where the bytes are
    /// already addressable), so a remote backend sees a handful of merged
    /// GETs per planned file instead of one per treelet.
    ///
    /// Best-effort: blocks already resident in the attached cache or the
    /// staging area are skipped, and fetch failures are deferred to the
    /// demand path (which retries and returns the typed error).
    fn prefetch(&self, plan: &FilePlan) {
        let Backing::Range(reader) = &self.backing else {
            return;
        };
        let mut wanted: Vec<(u32, u64, usize)> = Vec::with_capacity(plan.treelets.len());
        for &t in &plan.treelets {
            if reader.is_staged(t) {
                continue;
            }
            if let Some(cache) = &self.cache {
                if cache.contains(self.file_id, t) {
                    continue;
                }
            }
            // Stored size: compressed bytes for v2, layout size for v1 —
            // a remote prefetch only ever moves the on-disk bytes.
            let size = self.head.stored_block_size(t as usize);
            let offset = self.head.leaves[t as usize].offset;
            wanted.push((t, offset, size.expect("a planned treelet is in the head")));
        }
        reader.prefetch_blocks(&wanted);
    }

    /// Count matching points without materializing them.
    pub fn count(&self, q: &Query) -> WireResult<u64> {
        let stats = self.query(q, |_| {})?;
        Ok(stats.points_returned)
    }

    #[allow(clippy::too_many_arguments)]
    fn query_treelet(
        &self,
        treelet: u32,
        q: &Query,
        masks: &[(usize, Bitmap32)],
        attr_buf: &mut [f64],
        stats: &mut QueryStats,
        cb: &mut impl FnMut(PointRecord<'_>),
    ) -> WireResult<()> {
        let leaf = &self.head.leaves[treelet as usize];
        // Keeps a cache-resident copy of the block alive for the duration
        // of the scan; borrowed by the view when the cache path is taken.
        let mut storage: Option<Arc<Vec<u8>>> = None;
        let view = self.treelet_view(leaf, treelet, &mut storage, stats)?;
        stats.treelets_visited += 1;
        stats.pages_touched += view.pages_4k;

        // Quality maps to a depth within *this* treelet: the LOD particle
        // count roughly doubles per level of each treelet (§V-B), so the
        // log remap is applied against the treelet's own depth. This keeps
        // refinement uniform across regions even when treelet depths vary.
        let limit = quality_to_depth(q.quality, leaf.max_depth);
        let prev = quality_to_depth(q.prev_quality, leaf.max_depth);

        let mut stack: Vec<u32> = vec![0];
        // Treelet blocks are checked lazily, node by node as the walk
        // reaches them (checking whole blocks would add O(nodes) to every
        // coarse read): a well-formed treelet visits each node once, so
        // corrupt left/right links that form a cycle exhaust this budget.
        let mut budget = view.num_nodes() + 1;
        while let Some(ni) = stack.pop() {
            if budget == 0 {
                return Err(WireError::BadTag {
                    what: "treelet traversal budget (cycle in child links)",
                    tag: ni as u64,
                });
            }
            budget -= 1;
            stats.nodes_visited += 1;
            let node = view.node(ni as usize)?;
            if node.depth > limit.0 {
                continue;
            }
            if let Some(qb) = &q.bounds {
                if !qb.overlaps(&node.bounds) {
                    continue;
                }
            }
            let mut bitmaps_pass = true;
            for &(a, m) in masks {
                let id = view.bitmap_id(ni as usize, a)?;
                let bm = self.head.dict.try_get(id).ok_or(WireError::BadTag {
                    what: "bitmap dictionary id",
                    tag: id as u64,
                })?;
                if !bm.overlaps(m) {
                    bitmaps_pass = false;
                    break;
                }
            }
            if !bitmaps_pass {
                stats.bitmap_skips += 1;
                continue;
            }
            if !masks.is_empty() {
                stats.bitmap_hits += 1;
            }

            // Emit the progressive slice of this node's own particle block.
            let now = contribution(node.count, node.depth, limit.0, limit.1);
            let before = contribution(node.count, node.depth, prev.0, prev.1);
            for o in before..now {
                let local = node.start.checked_add(o).ok_or(WireError::BadTag {
                    what: "treelet particle offset overflow",
                    tag: node.start as u64,
                })?;
                stats.points_tested += 1;
                let pos = view.position(local as usize)?;
                if let Some(qb) = &q.bounds {
                    if !qb.contains_point(pos) {
                        continue;
                    }
                }
                for (a, slot) in attr_buf.iter_mut().enumerate() {
                    *slot = view.attr(a, local as usize)?;
                }
                // Exact false-positive rejection for attribute filters.
                // Points reaching here already survived the bitmap
                // pre-filter, so the reject/accept split is the bins'
                // measured false-positive rate.
                if !q.filters.is_empty() {
                    if q.filters
                        .iter()
                        .all(|f| attr_buf[f.attr] >= f.lo && attr_buf[f.attr] <= f.hi)
                    {
                        stats.filter_hits += 1;
                    } else {
                        stats.filter_false_positives += 1;
                        continue;
                    }
                }
                stats.points_returned += 1;
                cb(PointRecord {
                    position: pos,
                    attrs: attr_buf,
                    index: leaf.first_particle + local as u64,
                });
            }

            if node.depth < limit.0 && node.left != NO_CHILD {
                stack.push(node.left);
                stack.push(node.right);
            }
        }
        Ok(())
    }

    /// Interpret a treelet block as a [`TreeletView`]. `storage` keeps a
    /// materialized (cached, fetched or decoded) block alive for the borrow
    /// the returned view holds.
    fn treelet_view<'a>(
        &'a self,
        leaf: &LeafRec,
        treelet: u32,
        storage: &'a mut Option<Arc<Vec<u8>>>,
        stats: &mut QueryStats,
    ) -> WireResult<TreeletView<'a>> {
        let layout = self.treelet_layout(leaf);
        let (block, stored) = self.treelet_block(leaf, treelet, &layout, storage, stats)?;
        let start = leaf.offset as usize;
        // The view pre-slices the block's sections once: every per-point
        // access is then a cheap in-bounds index (section lengths are exact
        // by construction, and node-supplied indices are range-checked
        // against `num_points`/`num_nodes` before use, so corrupt files
        // surface as errors, never panics).
        TreeletView::over(block, leaf, &layout, &self.head, start, start + stored)
    }

    fn treelet_layout(&self, leaf: &LeafRec) -> TreeletLayout {
        TreeletLayout::compute(
            leaf.num_nodes as usize,
            leaf.num_particles as usize,
            &self.head.descs,
        )
    }

    /// Materialize one treelet's v1-layout block image and report its
    /// stored (on-disk) size. The one place a block comes into being, for
    /// the demand path and the parallel warm-up alike:
    ///
    /// 1. the attached cache — verbatim on-disk bytes for v1 files,
    ///    *decoded* blocks (charged at decoded size) for v2;
    /// 2. the stored bytes — a slice of the block backing, or over a range
    ///    backing the prefetch staging area, else a demand range request
    ///    (verified-length, so a torn response is a typed error, never a
    ///    short block);
    /// 3. the v2 decode, whose output is a verbatim v1-layout image — so
    ///    every path is byte-identical by construction;
    /// 4. the cache insert, at the calling thread's admission priority.
    ///
    /// An uncached v1 block over a block backing is returned as a borrow
    /// of the mapping: no copy, no allocation.
    fn treelet_block<'a>(
        &'a self,
        leaf: &LeafRec,
        treelet: u32,
        layout: &TreeletLayout,
        storage: &'a mut Option<Arc<Vec<u8>>>,
        stats: &mut QueryStats,
    ) -> WireResult<(&'a [u8], usize)> {
        // The head checked at open that every stored block lies inside
        // the file.
        let codec = self.head.codec_rec(treelet as usize);
        let stored = codec.map_or(layout.size, |rec| rec.stored_size());
        let start = leaf.offset as usize;
        let end = start + stored;
        if let Some(cache) = &self.cache {
            if let Some(arc) = cache.get(self.file_id, treelet) {
                // A stale entry can only disagree in length if the file
                // was rewritten under a reused id, which `FileId` makes
                // impossible; the check still guards cache corruption.
                if arc.len() == layout.size {
                    stats.cache_hits += 1;
                    return Ok((storage.insert(arc).as_slice(), stored));
                }
            }
        }
        let decode = |bytes: &[u8], rec| {
            let points = leaf.num_particles as usize;
            format::decode_block(bytes, rec, layout, &self.head.descs, points).map(Arc::new)
        };
        let image = match &self.backing {
            Backing::Block(data) => match codec {
                Some(rec) => decode(&data[start..end], rec)?,
                None if self.cache.is_none() => return Ok((&data[start..end], stored)),
                None => Arc::new(data[start..end].to_vec()),
            },
            Backing::Range(reader) => {
                let fetched = match reader.take_staged(treelet) {
                    Some(arc) if arc.len() == stored => arc,
                    _ => {
                        let bytes = reader.fetch(start as u64, stored);
                        Arc::new(bytes.map_err(|e| WireError::Io {
                            what: "treelet block",
                            message: e.to_string(),
                        })?)
                    }
                };
                match codec {
                    Some(rec) => decode(&fetched, rec)?,
                    None => fetched,
                }
            }
        };
        if let Some(cache) = &self.cache {
            stats.cache_misses += 1;
            cache.insert(
                self.file_id,
                treelet,
                image.clone(),
                cache::thread_priority(),
            );
        }
        Ok((storage.insert(image).as_slice(), stored))
    }
}

/// Cache key space for index-blob pages: the high bit separates index keys
/// from treelet-block indices, then 11 bits of attribute and 20 bits of
/// page number within the blob. Offsets past the encodable range simply
/// bypass the cache.
const INDEX_KEY_BASE: u32 = 0x8000_0000;
/// Index blobs are cached in 4 KiB pages, like everything else.
const INDEX_PAGE: u64 = 4096;

fn index_cache_key(attr: u32, page: u64) -> Option<u32> {
    if attr >= 1 << 11 || page >= 1 << 20 {
        return None;
    }
    Some(INDEX_KEY_BASE | (attr << 20) | page as u32)
}

/// [`bat_index::IndexFetch`] over an open file's backing: direct slices on
/// the block path, page-granular cached range requests on the remote path
/// (so a warm search costs zero GETs and a cold one `O(log_B n)`).
struct IndexBlobFetch<'a> {
    file: &'a BatFile,
    entry: &'a format::IndexDirEntry,
    /// Backing reads actually issued (each one a GET on the range path).
    fetches: std::cell::Cell<u64>,
}

impl<'a> IndexBlobFetch<'a> {
    fn new(file: &'a BatFile, entry: &'a format::IndexDirEntry) -> IndexBlobFetch<'a> {
        IndexBlobFetch {
            file,
            entry,
            fetches: std::cell::Cell::new(0),
        }
    }

    fn direct(
        &self,
        reader: &RangeReader,
        off: u64,
        len: usize,
    ) -> bat_index::IndexResult<Vec<u8>> {
        self.fetches.set(self.fetches.get() + 1);
        reader
            .fetch(self.entry.offset + off, len)
            .map_err(|e| bat_index::IndexError::Io {
                what: "index range fetch",
                message: e.to_string(),
            })
    }

    fn fetch_range(
        &self,
        reader: &RangeReader,
        off: u64,
        len: usize,
    ) -> bat_index::IndexResult<Vec<u8>> {
        let Some(cache) = &self.file.cache else {
            return self.direct(reader, off, len);
        };
        let p0 = off / INDEX_PAGE;
        let p1 = (off + len as u64 - 1) / INDEX_PAGE;
        // Node and leaf-block reads span at most two pages; anything larger
        // is a payload pull, which streams directly so it cannot evict the
        // search working set.
        if p1 - p0 > 1 {
            return self.direct(reader, off, len);
        }
        let mut out = Vec::with_capacity(len);
        for page in p0..=p1 {
            let Some(key) = index_cache_key(self.entry.attr, page) else {
                return self.direct(reader, off, len);
            };
            let page_off = page * INDEX_PAGE;
            let page_len = INDEX_PAGE.min(self.entry.len - page_off) as usize;
            let bytes = match cache.get(self.file.file_id, key) {
                Some(b) if b.len() == page_len => b,
                _ => {
                    let arc = Arc::new(self.direct(reader, page_off, page_len)?);
                    cache.insert(
                        self.file.file_id,
                        key,
                        arc.clone(),
                        cache::thread_priority(),
                    );
                    arc
                }
            };
            let s = (off.max(page_off) - page_off) as usize;
            let e = ((off + len as u64).min(page_off + page_len as u64) - page_off) as usize;
            out.extend_from_slice(&bytes[s..e]);
        }
        debug_assert_eq!(out.len(), len);
        Ok(out)
    }
}

impl bat_index::IndexFetch for IndexBlobFetch<'_> {
    fn fetch(&self, off: u64, len: usize) -> bat_index::IndexResult<Vec<u8>> {
        let end = off
            .checked_add(len as u64)
            .ok_or(bat_index::IndexError::Corrupt {
                what: "index fetch range",
                value: off,
            })?;
        if end > self.entry.len {
            return Err(bat_index::IndexError::Truncated {
                what: "index blob range",
                needed: end,
                have: self.entry.len,
            });
        }
        match &self.file.backing {
            Backing::Block(data) => {
                let lo = (self.entry.offset + off) as usize;
                let hi = lo + len;
                if hi > data.len() {
                    return Err(bat_index::IndexError::Truncated {
                        what: "index blob bytes",
                        needed: hi as u64,
                        have: data.len() as u64,
                    });
                }
                self.fetches.set(self.fetches.get() + 1);
                Ok(data[lo..hi].to_vec())
            }
            Backing::Range(reader) => self.fetch_range(reader, off, len),
        }
    }
}

/// Decoded treelet node (mirror of [`crate::treelet::TreeletNode`]).
#[derive(Debug, Clone, Copy)]
pub struct FileTreeletNode {
    /// Tight bounds of the node's subtree.
    pub bounds: Aabb,
    /// Treelet-local start of the node's own particle block.
    pub start: u32,
    /// Particle count of the node's own block.
    pub count: u32,
    /// Left child index; `NO_CHILD` for leaves.
    pub left: u32,
    /// Right child index; `NO_CHILD` for leaves.
    pub right: u32,
    /// Depth below the treelet root.
    pub depth: u32,
}

/// Zero-copy interpretation of one treelet block.
pub struct TreeletView<'a> {
    /// Node records section, exactly `num_nodes * node_record_bytes` long.
    nodes: &'a [u8],
    /// Positions section, exactly `num_points * 12` bytes.
    positions: &'a [u8],
    /// One section per attribute, exactly `num_points * elem_size` each.
    attr_sections: Vec<(&'a [u8], AttributeType)>,
    na: usize,
    num_nodes: usize,
    num_points: usize,
    /// Distinct 4 KiB pages the backing block spans.
    pages_4k: u64,
}

impl<'a> TreeletView<'a> {
    /// Slice a (decoded) block image into its sections. `block` must be
    /// exactly `layout.size` bytes — verbatim file bytes for v1, the
    /// decoded image for v2. `start..end` is the block's *stored* span in
    /// the file, which sizes `pages_4k` (compressed pages for v2: the I/O
    /// a reader actually performs).
    fn over(
        block: &'a [u8],
        leaf: &LeafRec,
        layout: &TreeletLayout,
        head: &FileHead,
        start: usize,
        end: usize,
    ) -> WireResult<TreeletView<'a>> {
        let mut nodes: &[u8] = &[];
        let mut positions: &[u8] = &[];
        let mut attr_sections = Vec::with_capacity(head.descs.len());
        for (kind, range) in layout.sections(&head.descs) {
            let bytes = &block[range];
            match kind {
                SectionKind::Nodes => nodes = bytes,
                SectionKind::Positions => positions = bytes,
                SectionKind::Attr(dtype) => attr_sections.push((bytes, dtype)),
            }
        }
        Ok(TreeletView {
            nodes,
            positions,
            attr_sections,
            na: head.descs.len(),
            num_nodes: leaf.num_nodes as usize,
            num_points: leaf.num_particles as usize,
            // Distinct 4 KiB pages the stored block spans in the file — the
            // unit the OS faults in on the mmap read path.
            pages_4k: bat_wire::pages_spanned(start, end),
        })
    }

    /// Decode node `i`'s record.
    pub fn node(&self, i: usize) -> WireResult<FileTreeletNode> {
        if i >= self.num_nodes {
            return Err(WireError::BadTag {
                what: "treelet node index",
                tag: i as u64,
            });
        }
        let off = i * format::node_record_bytes(self.na);
        let rec = &self.nodes[off..off + format::NODE_FIXED_BYTES];
        let f = |k: usize| f32::from_le_bytes(rec[k..k + 4].try_into().expect("len 4"));
        let u = |k: usize| u32::from_le_bytes(rec[k..k + 4].try_into().expect("len 4"));
        Ok(FileTreeletNode {
            bounds: Aabb::new(Vec3::new(f(0), f(4), f(8)), Vec3::new(f(12), f(16), f(20))),
            start: u(24),
            count: u(28),
            left: u(32),
            right: u(36),
            depth: u(40),
        })
    }

    /// Dictionary ID of node `i`'s bitmap for attribute `a`.
    pub fn bitmap_id(&self, i: usize, a: usize) -> WireResult<u16> {
        if i >= self.num_nodes || a >= self.na {
            return Err(WireError::BadTag {
                what: "bitmap id index",
                tag: i as u64,
            });
        }
        let off = i * format::node_record_bytes(self.na) + format::NODE_FIXED_BYTES + 2 * a;
        Ok(u16::from_le_bytes(
            self.nodes[off..off + 2].try_into().expect("len 2"),
        ))
    }

    /// Position of treelet-local particle `i`.
    #[inline]
    pub fn position(&self, i: usize) -> WireResult<Vec3> {
        if i >= self.num_points {
            return Err(WireError::BadTag {
                what: "treelet particle index",
                tag: i as u64,
            });
        }
        let rec = &self.positions[i * format::POSITION_BYTES..(i + 1) * format::POSITION_BYTES];
        Ok(Vec3::new(
            f32::from_le_bytes(rec[0..4].try_into().expect("len 4")),
            f32::from_le_bytes(rec[4..8].try_into().expect("len 4")),
            f32::from_le_bytes(rec[8..12].try_into().expect("len 4")),
        ))
    }

    /// Attribute `a` of treelet-local particle `i`, widened to `f64`.
    #[inline]
    pub fn attr(&self, a: usize, i: usize) -> WireResult<f64> {
        if i >= self.num_points {
            return Err(WireError::BadTag {
                what: "treelet particle index",
                tag: i as u64,
            });
        }
        let (section, dtype) = self.attr_sections[a];
        Ok(match dtype {
            AttributeType::F32 => {
                f32::from_le_bytes(section[i * 4..i * 4 + 4].try_into().expect("len 4")) as f64
            }
            AttributeType::F64 => {
                f64::from_le_bytes(section[i * 8..i * 8 + 8].try_into().expect("len 8"))
            }
        })
    }

    /// Number of nodes in the treelet.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttributeDesc;
    use crate::build::{Bat, BatBuilder, BatConfig};
    use crate::particles::ParticleSet;
    use bat_geom::rng::Xoshiro256;
    use std::collections::HashSet;

    /// A particle cloud with two attributes correlated with position.
    fn sample(n: usize, seed: u64) -> (ParticleSet, Aabb) {
        let mut rng = Xoshiro256::new(seed);
        let mut set = ParticleSet::new(vec![
            AttributeDesc::f64("energy"),
            AttributeDesc::f32("speed"),
        ]);
        for _ in 0..n {
            let p = Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32());
            set.push(p, &[p.x as f64 * 100.0, p.z as f64 * 10.0]);
        }
        (set, Aabb::unit())
    }

    /// Clustered cloud (dense treelets — the regime where v2 compression
    /// actually shrinks blocks; see `format::tests::clustered_bat`).
    fn clustered(n: usize, seed: u64) -> (ParticleSet, Aabb) {
        let mut rng = Xoshiro256::new(seed);
        let mut set = ParticleSet::new(vec![
            AttributeDesc::f64("energy"),
            AttributeDesc::f32("speed"),
        ]);
        let centers: Vec<Vec3> = (0..6)
            .map(|_| Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()))
            .collect();
        for i in 0..n {
            let c = centers[i % centers.len()];
            let j = |r: &mut Xoshiro256| (r.next_f32() - 0.5) * 0.04;
            let p = Vec3::new(
                (c.x + j(&mut rng)).clamp(0.0, 1.0),
                (c.y + j(&mut rng)).clamp(0.0, 1.0),
                (c.z + j(&mut rng)).clamp(0.0, 1.0),
            );
            set.push(p, &[p.x as f64 * 100.0, p.z as f64 * 10.0]);
        }
        (set, Aabb::unit())
    }

    fn build(n: usize, seed: u64) -> (Bat, BatFile) {
        let (set, domain) = sample(n, seed);
        let bat = BatBuilder::new(BatConfig::default()).build(set, domain);
        let file = BatFile::from_bytes(bat.to_bytes()).unwrap();
        (bat, file)
    }

    #[test]
    fn full_read_returns_every_particle_once() {
        let (bat, file) = build(10_000, 1);
        let mut seen = HashSet::new();
        let stats = file
            .query(&Query::new(), |p| {
                assert!(seen.insert(p.index), "particle {} duplicated", p.index);
            })
            .unwrap();
        assert_eq!(seen.len(), 10_000);
        assert_eq!(stats.points_returned, 10_000);
        let _ = bat;
    }

    #[test]
    fn spatial_query_matches_brute_force() {
        let (bat, file) = build(5_000, 2);
        let qb = Aabb::new(Vec3::new(0.2, 0.3, 0.1), Vec3::new(0.6, 0.7, 0.5));
        let expect = bat
            .particles
            .positions
            .iter()
            .filter(|p| qb.contains_point(**p))
            .count();
        let q = Query::new().with_bounds(qb);
        let mut got = 0;
        file.query(&q, |p| {
            assert!(qb.contains_point(p.position));
            got += 1;
        })
        .unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn attribute_query_matches_brute_force() {
        let (bat, file) = build(5_000, 3);
        let (lo, hi) = (25.0, 60.0);
        let expect = (0..bat.num_particles())
            .filter(|&i| {
                let v = bat.particles.value(0, i);
                v >= lo && v <= hi
            })
            .count();
        let q = Query::new().with_filter(0, lo, hi);
        let mut got = 0;
        let stats = file
            .query(&q, |p| {
                assert!(p.attrs[0] >= lo && p.attrs[0] <= hi);
                got += 1;
            })
            .unwrap();
        assert_eq!(got, expect);
        // Bitmap culling should have pruned work: we must not have tested
        // every particle in the file.
        assert!(
            stats.points_tested < 5_000,
            "bitmap filtering should prune: tested {}",
            stats.points_tested
        );
    }

    #[test]
    fn combined_spatial_and_attribute_query() {
        let (bat, file) = build(8_000, 4);
        let qb = Aabb::new(Vec3::ZERO, Vec3::splat(0.5));
        let (lo, hi) = (0.0, 30.0);
        let expect = (0..bat.num_particles())
            .filter(|&i| {
                let p = bat.particles.positions[i];
                let v = bat.particles.value(0, i);
                qb.contains_point(p) && v >= lo && v <= hi
            })
            .count();
        let q = Query::new().with_bounds(qb).with_filter(0, lo, hi);
        assert_eq!(file.count(&q).unwrap() as usize, expect);
    }

    #[test]
    fn disjoint_filter_skips_file_entirely() {
        let (_, file) = build(1_000, 5);
        // energy = x*100 is in [0, 100]; ask for 500..900.
        let q = Query::new().with_filter(0, 500.0, 900.0);
        let stats = file.query(&q, |_| panic!("no point should match")).unwrap();
        assert_eq!(
            stats.nodes_visited, 0,
            "empty mask must skip the whole file"
        );
    }

    #[test]
    fn quality_zero_returns_nothing_and_one_everything() {
        let (_, file) = build(3_000, 6);
        assert_eq!(file.count(&Query::new().with_quality(0.0)).unwrap(), 0);
        assert_eq!(file.count(&Query::new().with_quality(1.0)).unwrap(), 3_000);
    }

    #[test]
    fn quality_monotonically_adds_points() {
        let (_, file) = build(20_000, 7);
        let mut prev = 0;
        for i in 1..=10 {
            let q = Query::new().with_quality(i as f64 / 10.0);
            let n = file.count(&q).unwrap();
            assert!(n >= prev, "quality {i}: {n} < {prev}");
            prev = n;
        }
        assert_eq!(prev, 20_000);
    }

    #[test]
    fn progressive_reads_partition_the_data() {
        // Reading 0→0.3, 0.3→0.7, 0.7→1.0 must return every particle
        // exactly once (the paper's progressive streaming use case, §V-B).
        let (_, file) = build(15_000, 8);
        let mut seen = HashSet::new();
        for (prev, cur) in [(0.0, 0.3), (0.3, 0.7), (0.7, 1.0)] {
            let q = Query::new().with_prev_quality(prev).with_quality(cur);
            file.query(&q, |p| {
                assert!(seen.insert(p.index), "particle {} seen twice", p.index);
            })
            .unwrap();
        }
        assert_eq!(seen.len(), 15_000);
    }

    #[test]
    fn progressive_fine_steps_match_table_one_protocol() {
        // The Table I/II protocol: 0.1 steps from 0.1 to 1.0.
        let (_, file) = build(10_000, 9);
        let mut seen = HashSet::new();
        let mut prev = 0.0;
        for i in 1..=10 {
            let cur = i as f64 / 10.0;
            let q = Query::new().with_prev_quality(prev).with_quality(cur);
            file.query(&q, |p| {
                assert!(seen.insert(p.index));
            })
            .unwrap();
            prev = cur;
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn low_quality_reads_fraction_of_data() {
        let (_, file) = build(50_000, 10);
        let n = file.count(&Query::new().with_quality(0.1)).unwrap();
        // ~10% of the data at quality 0.1, log-remapped: must be well under
        // half and nonzero.
        assert!(n > 0);
        assert!(n < 25_000, "quality 0.1 returned {n} of 50k");
    }

    #[test]
    fn mmap_open_matches_in_memory() {
        let (_, file) = build(4_000, 11);
        let dir = std::env::temp_dir().join(format!("battest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.bat");
        // Write the same bytes and re-open via mmap.
        let (bat, _) = build(4_000, 11);
        std::fs::write(&path, bat.to_bytes()).unwrap();
        let mapped = BatFile::open(&path).unwrap();
        assert_eq!(mapped.num_particles(), file.num_particles());
        let q = Query::new().with_bounds(Aabb::new(Vec3::ZERO, Vec3::splat(0.4)));
        assert_eq!(mapped.count(&q).unwrap(), file.count(&q).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn range_source_matches_block_backing() {
        use crate::source::MemorySource;
        let (bat, file) = build(12_000, 20);
        let src = Arc::new(MemorySource::new(bat.to_bytes()));
        let cfg = RangeConfig {
            backoff_ms: 0,
            ..RangeConfig::default()
        };
        let ranged = BatFile::from_source_with(src.clone(), cfg.clone()).unwrap();
        let queries = [
            Query::new(),
            Query::new().with_bounds(Aabb::new(Vec3::ZERO, Vec3::splat(0.5))),
            Query::new().with_filter(0, 10.0, 70.0).with_quality(0.4),
        ];
        for q in &queries {
            let mut a: Vec<u64> = Vec::new();
            let mut b: Vec<u64> = Vec::new();
            file.query(q, |p| a.push(p.index)).unwrap();
            ranged.query(q, |p| b.push(p.index)).unwrap();
            assert_eq!(a, b);
        }
        let s = ranged.range_stats().unwrap();
        assert!(s.requests > 0);
        assert!(s.bytes_fetched > 0);
        assert!(
            s.prefetch_hits > 0,
            "execute_plan should consume prefetches"
        );
        assert!(s.retries == 0);

        // With a cache attached, repeat reads hit the cache instead of the
        // source: request count stays flat on the second pass.
        let cached = BatFile::from_source_with(src, cfg)
            .unwrap()
            .with_cache(Some(PageCache::new(64 << 20)));
        let first = cached.query(&Query::new(), |_| {}).unwrap();
        let reqs_after_first = cached.range_stats().unwrap().requests;
        let second = cached.query(&Query::new(), |_| {}).unwrap();
        assert_eq!(first.points_returned, second.points_returned);
        assert!(second.cache_hits > 0);
        assert_eq!(cached.range_stats().unwrap().requests, reqs_after_first);
    }

    #[test]
    fn truncated_source_is_a_typed_error() {
        use crate::source::MemorySource;
        let (bat, _) = build(5_000, 21);
        let bytes = bat.to_bytes();
        // Cut the object short of the last treelet: the head parses (its
        // offsets are validated against the *claimed* length), but
        // execution must fail with a typed error, never panic.
        let head_end = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let cut = (head_end + (bytes.len() - head_end) / 2).min(bytes.len() - 1);
        let src = Arc::new(MemorySource::new(bytes[..cut].to_vec()));
        let cfg = RangeConfig {
            backoff_ms: 0,
            ..RangeConfig::default()
        };
        // Err(_) on open (head no longer fits) is also an acceptable typed
        // failure; only a successfully opened file must fail at query time.
        if let Ok(f) = BatFile::from_source_with(src, cfg) {
            assert!(f.query(&Query::new(), |_| {}).is_err());
        }
    }

    #[test]
    fn v2_lossless_matches_v1_across_backings() {
        use crate::format::write_bat_with;
        use crate::source::MemorySource;
        let (set, domain) = sample(15_000, 30);
        let bat = BatBuilder::new(BatConfig::default()).build(set, domain);
        let v1 = BatFile::from_bytes(write_bat_with(&bat, crate::codec::Codec::V1)).unwrap();
        let v2_bytes = write_bat_with(&bat, crate::codec::Codec::V2Lossless);
        let cfg = RangeConfig {
            backoff_ms: 0,
            ..RangeConfig::default()
        };
        let queries = [
            Query::new(),
            Query::new().with_bounds(Aabb::new(Vec3::ZERO, Vec3::splat(0.5))),
            Query::new().with_filter(0, 10.0, 70.0).with_quality(0.4),
            Query::new().with_prev_quality(0.2).with_quality(0.8),
        ];
        let collect = |f: &BatFile, q: &Query| {
            let mut out: Vec<(u64, [u32; 3], u64)> = Vec::new();
            f.query(q, |p| {
                out.push((
                    p.index,
                    [
                        p.position.x.to_bits(),
                        p.position.y.to_bits(),
                        p.position.z.to_bits(),
                    ],
                    p.attrs[0].to_bits(),
                ));
            })
            .unwrap();
            out
        };
        let v2_files = [
            BatFile::from_bytes(v2_bytes.clone()).unwrap(),
            BatFile::from_bytes(v2_bytes.clone())
                .unwrap()
                .with_cache(Some(PageCache::new(64 << 20))),
            BatFile::from_source_with(Arc::new(MemorySource::new(v2_bytes.clone())), cfg.clone())
                .unwrap(),
            BatFile::from_source_with(Arc::new(MemorySource::new(v2_bytes.clone())), cfg)
                .unwrap()
                .with_cache(Some(PageCache::new(64 << 20))),
        ];
        for q in &queries {
            let want = collect(&v1, q);
            for (i, f) in v2_files.iter().enumerate() {
                assert_eq!(collect(f, q), want, "v2 backing {i} diverged");
                // Warm pass must match too (decoded blocks from cache).
                assert_eq!(collect(f, q), want, "v2 backing {i} warm diverged");
            }
        }
    }

    #[test]
    fn v2_range_backend_fetches_fewer_bytes() {
        use crate::format::write_bat_with;
        use crate::source::MemorySource;
        let (set, domain) = clustered(20_000, 31);
        let bat = BatBuilder::new(BatConfig::default()).build(set, domain);
        let cfg = RangeConfig {
            backoff_ms: 0,
            ..RangeConfig::default()
        };
        let fetched = |bytes: Vec<u8>| {
            let f =
                BatFile::from_source_with(Arc::new(MemorySource::new(bytes)), cfg.clone()).unwrap();
            f.query(&Query::new(), |_| {}).unwrap();
            f.range_stats().unwrap().bytes_fetched
        };
        let b1 = fetched(write_bat_with(&bat, crate::codec::Codec::V1));
        let b2 = fetched(write_bat_with(&bat, crate::codec::Codec::V2Lossless));
        assert!(
            b2 < b1,
            "v2 should move fewer bytes over the wire: {b2} !< {b1}"
        );
    }

    #[test]
    fn empty_file_queries_cleanly() {
        let (set, domain) = sample(0, 12);
        let bat = BatBuilder::new(BatConfig::default()).build(set, domain);
        let file = BatFile::from_bytes(bat.to_bytes()).unwrap();
        assert_eq!(file.count(&Query::new()).unwrap(), 0);
    }

    #[test]
    fn bad_filter_attr_is_an_error() {
        let (_, file) = build(100, 13);
        let q = Query::new().with_filter(99, 0.0, 1.0);
        assert!(file.query(&q, |_| {}).is_err());
    }

    #[test]
    fn stats_merge_is_the_field_wise_sum() {
        // Distinct primes per field, so a swapped or dropped field shows.
        let a = QueryStats {
            nodes_visited: 2,
            treelets_visited: 3,
            points_tested: 5,
            points_returned: 7,
            pages_touched: 11,
            bitmap_hits: 13,
            bitmap_skips: 17,
            cache_hits: 19,
            cache_misses: 23,
            filter_hits: 29,
            filter_false_positives: 31,
        };
        let b = QueryStats {
            nodes_visited: 100,
            treelets_visited: 200,
            points_tested: 300,
            points_returned: 400,
            pages_touched: 500,
            bitmap_hits: 600,
            bitmap_skips: 700,
            cache_hits: 800,
            cache_misses: 900,
            filter_hits: 1000,
            filter_false_positives: 1100,
        };
        let mut sum = a;
        sum += b;
        assert_eq!(
            sum,
            QueryStats {
                nodes_visited: 102,
                treelets_visited: 203,
                points_tested: 305,
                points_returned: 407,
                pages_touched: 511,
                bitmap_hits: 613,
                bitmap_skips: 717,
                cache_hits: 819,
                cache_misses: 923,
                filter_hits: 1029,
                filter_false_positives: 1131,
            }
        );
    }

    #[test]
    fn expired_deadline_stops_before_any_treelet() {
        let (_, file) = build(5_000, 15);
        let q = Query::new();
        let plan = file.plan(&q).unwrap();
        let mut stats = QueryStats::default();
        let finished = file
            .execute_plan_until(&q, &plan, Some(Instant::now()), &mut stats, |_| {
                panic!("an expired deadline must not emit points")
            })
            .unwrap();
        assert!(!finished);
        assert_eq!(stats, QueryStats::default());
        // Without a deadline the same plan runs to completion.
        assert!(file
            .execute_plan_until(&q, &plan, None, &mut stats, |_| {})
            .unwrap());
        assert_eq!(stats.points_returned, 5_000);
        assert_eq!(stats.treelets_visited, plan.num_treelets() as u64);
    }

    #[test]
    fn stats_reflect_culling() {
        let (_, file) = build(30_000, 14);
        let all = file.query(&Query::new(), |_| {}).unwrap();
        let tiny = file
            .query(
                &Query::new().with_bounds(Aabb::new(Vec3::ZERO, Vec3::splat(0.1))),
                |_| {},
            )
            .unwrap();
        assert!(tiny.nodes_visited < all.nodes_visited);
        assert!(tiny.treelets_visited < all.treelets_visited);
        assert!(tiny.points_tested < all.points_tested);
    }
}
