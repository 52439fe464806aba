//! Postprocess visualization reads over a written dataset (paper §V).
//!
//! [`Dataset::open`] loads the committed top-level metadata
//! ([`crate::verify::read_commit`]) and lazily memory-maps the leaf files,
//! serving each only while it has its committed length. Queries run
//! against the whole timestep as if it were a single file
//! ([`crate::plan::QueryPlan`]): the metadata tree culls leaf files by
//! bounds and by the global root bitmaps, then each surviving file
//! resolves the query with its own shallow tree, treelets, and exact
//! checks. Progressive
//! multiresolution reads (quality in `[0, 1]`, with an optional previous
//! quality) work across all files, which is how the paper's prototype web
//! viewer streams data (Fig. 4).

use crate::plan::QueryPlan;
use crate::verify::{committed_leaf, read_commit, Commit};
use bat_aggregation::meta::MetaTree;
use bat_aggregation::CommitManifest;
use bat_iosim::ObjectStore;
use bat_layout::reader::QueryStats;
use bat_layout::source::FileSource;
use bat_layout::{cache, AttributeDesc, BatFile, PageCache, PointRecord, Query};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How leaf files opened by a [`Dataset`] attach to a treelet page cache.
#[derive(Clone, Default)]
enum CachePolicy {
    /// Use the process-global cache, if one is installed
    /// (`BAT_CACHE_BYTES` / [`bat_layout::cache::install_global`]).
    #[default]
    Global,
    /// Attach every opened file to this dataset-private cache.
    Attached(Arc<PageCache>),
    /// Never cache, even if a global cache is installed.
    Disabled,
}

/// How a [`Dataset`] materializes leaf-file bytes (DESIGN.md §13).
///
/// Every backend returns byte-identical query results; they differ only in
/// the I/O they issue. The default comes from `BAT_READ_BACKEND`
/// (`mmap` | `range-file` | `range-sim`), falling back to mmap.
#[derive(Clone, Default)]
pub enum ReadBackend {
    /// Memory-map each leaf file (the paper's local read path).
    #[default]
    Mmap,
    /// Range requests (positioned reads) against the local file — remote
    /// semantics over local bytes, for request/byte accounting.
    RangeFile,
    /// Range requests against an in-process simulated object store
    /// ([`bat_iosim::ObjectStore`]); leaf files are uploaded on first open.
    RangeSim(Arc<ObjectStore>),
}

impl ReadBackend {
    /// The backend selected by `BAT_READ_BACKEND`, defaulting to mmap.
    /// `range-sim` uses the process-global [`ObjectStore::global`].
    pub fn from_env() -> ReadBackend {
        match bat_obs::knobs::READ_BACKEND.get().as_deref() {
            Some("range-file") => ReadBackend::RangeFile,
            Some("range-sim") => ReadBackend::RangeSim(ObjectStore::global()),
            _ => ReadBackend::Mmap,
        }
    }

    /// The backend's `BAT_READ_BACKEND` spelling.
    pub fn name(&self) -> &'static str {
        match self {
            ReadBackend::Mmap => "mmap",
            ReadBackend::RangeFile => "range-file",
            ReadBackend::RangeSim(_) => "range-sim",
        }
    }
}

/// A written timestep opened for visualization/analysis reads.
pub struct Dataset {
    meta: MetaTree,
    /// The commit manifest: each leaf's committed length.
    manifest: CommitManifest,
    dir: PathBuf,
    /// Lazily opened leaf files (mmap handles are cheap but opening all
    /// files of a large dataset up front is not).
    files: Mutex<HashMap<u32, std::sync::Arc<BatFile>>>,
    /// Leaves excluded from queries — damaged files skipped by
    /// [`Dataset::open_degraded`] (sorted, usually empty).
    excluded: Vec<u32>,
    /// Cache attachment for files opened after the policy was set.
    cache: Mutex<CachePolicy>,
    /// Byte-access backend for files opened after the policy was set.
    backend: Mutex<ReadBackend>,
}

impl Dataset {
    /// Open dataset `basename` from `dir` (reads `basename.batmeta`). A
    /// dataset that never committed is `NotFound`, a torn commit marker
    /// `InvalidData`.
    pub fn open(dir: impl AsRef<Path>, basename: &str) -> io::Result<Dataset> {
        let dir = dir.as_ref();
        Ok(Dataset::from_commit(dir, read_commit(dir, basename)?))
    }

    /// A dataset over a commit [`read_commit`] checked.
    pub(crate) fn from_commit(dir: &Path, commit: Commit) -> Dataset {
        Dataset {
            meta: commit.meta,
            manifest: commit.manifest,
            dir: dir.to_path_buf(),
            files: Mutex::new(HashMap::new()),
            excluded: Vec::new(),
            cache: Mutex::new(CachePolicy::default()),
            backend: Mutex::new(ReadBackend::from_env()),
        }
    }

    /// Select how leaf files are materialized. Already-opened files are
    /// dropped so they reopen under the new backend; in-flight queries
    /// keep their handles and finish unaffected.
    pub fn set_backend(&self, backend: ReadBackend) {
        *self.backend.lock() = backend;
        self.files.lock().clear();
    }

    /// The active read backend's name (`mmap`, `range-file`, …).
    pub fn backend_name(&self) -> &'static str {
        self.backend.lock().name()
    }

    /// Attach a treelet page cache to this dataset: `Some(cache)` makes
    /// every leaf file consult (and fill) `cache`; `None` disables caching
    /// for this dataset even when a process-global cache is installed.
    /// Already-opened files are dropped so they reopen under the new
    /// policy; in-flight queries keep their handles and finish unaffected.
    pub fn set_cache(&self, cache: Option<Arc<PageCache>>) {
        *self.cache.lock() = match cache {
            Some(c) => CachePolicy::Attached(c),
            None => CachePolicy::Disabled,
        };
        self.files.lock().clear();
    }

    /// This dataset with the given leaves excluded from queries (the
    /// degraded-open path; see [`Dataset::open_degraded`]).
    pub(crate) fn with_excluded(mut self, mut excluded: Vec<u32>) -> Dataset {
        excluded.sort_unstable();
        self.excluded = excluded;
        self
    }

    /// Leaves excluded from queries by a degraded open.
    pub fn excluded_leaves(&self) -> &[u32] {
        &self.excluded
    }

    /// The parsed top-level metadata.
    pub fn meta(&self) -> &MetaTree {
        &self.meta
    }

    /// Attribute schema of the dataset.
    pub fn descs(&self) -> &[AttributeDesc] {
        &self.meta.descs
    }

    /// Total particles across all leaf files.
    pub fn num_particles(&self) -> u64 {
        self.meta.total_particles
    }

    /// Number of leaf files.
    pub fn num_files(&self) -> usize {
        self.meta.leaves.len()
    }

    /// Global `(min, max)` of attribute `a`.
    pub fn global_range(&self, a: usize) -> (f64, f64) {
        self.meta.global_ranges[a]
    }

    /// The (lazily opened, shared) handle for leaf file `leaf`. Public so
    /// a serving layer can plan and execute per-file work itself.
    pub fn file(&self, leaf: u32) -> io::Result<std::sync::Arc<BatFile>> {
        let mut files = self.files.lock();
        if let Some(f) = files.get(&leaf) {
            return Ok(f.clone());
        }
        if leaf as usize >= self.meta.leaves.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "leaf {leaf} out of range ({} files)",
                    self.meta.leaves.len()
                ),
            ));
        }
        let path = self.dir.join(&self.meta.leaves[leaf as usize].file);
        // Every backend attaches the process-global cache (as `open` does
        // for mmap); the dataset cache policy below can replace or remove
        // that attachment.
        let backend = self.backend.lock().clone();
        let opened = match &backend {
            ReadBackend::Mmap => BatFile::open(&path)?,
            ReadBackend::RangeFile => BatFile::from_source(Arc::new(FileSource::open(&path)?))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
                .with_cache(cache::global()),
            ReadBackend::RangeSim(store) => {
                // Upload (or refresh) the leaf's bytes under its absolute
                // path, so distinct datasets never collide and a rewritten
                // file never serves stale store content.
                let key = path.to_string_lossy().into_owned();
                store.put_file(&key, &path)?;
                BatFile::from_source(store.source(&key)?)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
                    .with_cache(cache::global())
            }
        };
        let opened = match &*self.cache.lock() {
            CachePolicy::Global => opened,
            CachePolicy::Attached(c) => opened.with_cache(Some(c.clone())),
            CachePolicy::Disabled => opened.with_cache(None),
        };
        let opened = committed_leaf(opened, &self.manifest.files[leaf as usize])?;
        let f = std::sync::Arc::new(opened);
        files.insert(leaf, f.clone());
        Ok(files[&leaf].clone())
    }

    /// Run a query across the whole dataset, invoking `cb` per matching
    /// point. Quality/progressive parameters apply per leaf file, so a
    /// progressive sweep over the dataset refines every region uniformly.
    /// Files are visited in plan order: most query coverage first, leaf id
    /// on ties (so unbounded queries stream in leaf order).
    pub fn query(&self, q: &Query, cb: impl FnMut(PointRecord<'_>)) -> io::Result<QueryStats> {
        Ok(QueryPlan::new(self, q)?.execute(None, cb)?)
    }

    /// Count matching points.
    pub fn count(&self, q: &Query) -> io::Result<u64> {
        Ok(self.query(q, |_| {})?.points_returned)
    }

    /// Total on-disk bytes of all leaf files (for overhead reporting).
    pub fn total_file_bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for leaf in &self.meta.leaves {
            total += std::fs::metadata(self.dir.join(&leaf.file))?.len();
        }
        Ok(total)
    }
}
