//! Dataset-level query planning (DESIGN.md §12) — the one chain every
//! read runs: [`Dataset::query`], the stream server, each shard worker and
//! the router's global ordering all go through [`QueryPlan`].
//!
//! A [`QueryPlan`] is built *before any treelet block is materialized*:
//! the metadata tree culls candidate leaf files by bounds and global root
//! bitmaps, each surviving file's shallow tree is walked (pruning subtrees
//! by node AABBs and bitmap-index pre-filtering — [`bat_layout::BatFile::plan`]),
//! and the files are ordered by how much of the query volume they cover,
//! so a deadline that fires mid-query has already delivered the most
//! relevant data. Execution then hands each file to the reader's per-file
//! loop ([`BatFile::execute_plan_until`]), which checks the deadline
//! before its fetch, before each decode window and between treelets.

use crate::Dataset;
use bat_geom::Aabb;
use bat_layout::reader::QueryStats;
use bat_layout::{BatFile, FilePlan, PointRecord, Query, QueryError};
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Why a query could not be planned or executed.
#[derive(Debug)]
pub enum ServeError {
    /// The query is malformed for the dataset's schema.
    Query(QueryError),
    /// A leaf file could not be opened or read.
    Io(io::Error),
    /// A file's index structures are corrupt.
    Wire(bat_wire::WireError),
    /// The per-query deadline expired before execution finished.
    DeadlineExpired {
        /// Treelets already fully executed when the deadline fired.
        treelets_done: u64,
        /// Treelets the plan wanted in total.
        treelets_planned: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Query(e) => write!(f, "invalid query: {e}"),
            ServeError::Io(e) => write!(f, "leaf file I/O: {e}"),
            ServeError::Wire(e) => write!(f, "corrupt leaf file: {e}"),
            ServeError::DeadlineExpired {
                treelets_done,
                treelets_planned,
            } => write!(
                f,
                "query deadline expired after {treelets_done}/{treelets_planned} treelets"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<QueryError> for ServeError {
    fn from(e: QueryError) -> ServeError {
        ServeError::Query(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl From<bat_wire::WireError> for ServeError {
    fn from(e: bat_wire::WireError) -> ServeError {
        ServeError::Wire(e)
    }
}

/// The `io::Error` face of a [`ServeError`], for [`Dataset::query`]'s
/// `io::Result` signature: a bad query is `InvalidInput`, corrupt bytes
/// are `InvalidData`, an I/O failure passes through.
impl From<ServeError> for io::Error {
    fn from(e: ServeError) -> io::Error {
        match e {
            ServeError::Query(e) => io::Error::new(io::ErrorKind::InvalidInput, e),
            ServeError::Io(e) => e,
            ServeError::Wire(e) => io::Error::new(io::ErrorKind::InvalidData, e),
            e @ ServeError::DeadlineExpired { .. } => io::Error::new(io::ErrorKind::TimedOut, e),
        }
    }
}

/// Planning evidence: what the planner looked at and what it proved
/// irrelevant without touching data pages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Leaf files surviving metadata-level culling.
    pub files_considered: u64,
    /// Files whose shallow-tree plan kept at least one treelet.
    pub files_planned: u64,
    /// Files whose plan proved them empty for this query.
    pub files_pruned: u64,
    /// Shallow subtrees pruned by node-AABB misses.
    pub nodes_pruned_bounds: u64,
    /// Shallow subtrees pruned by bitmap pre-filtering.
    pub nodes_pruned_bitmap: u64,
    /// Treelets execution will materialize, across all files.
    pub treelets_planned: u64,
    /// Files planned with the forced full-scan strategy.
    pub files_scan: u64,
    /// Files planned on the binned-bitmap path.
    pub files_bitmap: u64,
    /// Files whose plan was refined by an attribute index rank search.
    pub files_index: u64,
}

impl PlanStats {
    /// Total shallow subtrees pruned before materialization.
    pub fn nodes_pruned(&self) -> u64 {
        self.nodes_pruned_bounds + self.nodes_pruned_bitmap
    }
}

/// One leaf file's share of the plan, with its ordering score.
struct PlannedFile {
    leaf: u32,
    file: Arc<BatFile>,
    plan: FilePlan,
    /// Fraction of the query volume this file's bounds cover (1.0 for
    /// unbounded queries, so ordering degenerates to leaf id).
    score: f64,
}

/// A planned dataset query: validated, culled, ordered, not yet executed.
pub struct QueryPlan {
    query: Query,
    files: Vec<PlannedFile>,
    stats: PlanStats,
}

impl QueryPlan {
    /// Plan `q` against `ds`. Touches only metadata and file heads — no
    /// treelet pages — and emits `plan.*` counters through bat-obs.
    pub fn new(ds: &Dataset, q: &Query) -> Result<QueryPlan, ServeError> {
        QueryPlan::plan_filtered(ds, q, None)
    }

    /// Plan `q` against only the given leaf files (`owned` must be
    /// sorted). This is the shard-side planner: a shard process owning a
    /// contiguous slice of the aggregation tree's leaves plans exactly its
    /// slice, and — because per-file planning and the coverage ordering
    /// are independent of which other files exist — produces the same
    /// per-file plans, in the same relative order, as the global plan
    /// restricted to those leaves. That invariant is what lets the shard
    /// router merge per-leaf result streams back into the exact
    /// single-process answer.
    pub fn for_leaves(ds: &Dataset, q: &Query, owned: &[u32]) -> Result<QueryPlan, ServeError> {
        QueryPlan::plan_filtered(ds, q, Some(owned))
    }

    fn plan_filtered(
        ds: &Dataset,
        q: &Query,
        owned: Option<&[u32]>,
    ) -> Result<QueryPlan, ServeError> {
        let query = q.clone().validated(ds.descs().len())?;
        let candidates = ds
            .meta()
            .candidate_leaves(&query)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;

        let mut stats = PlanStats::default();
        let mut files = Vec::new();
        for leaf in candidates {
            if owned.is_some_and(|o| o.binary_search(&leaf).is_err()) {
                continue;
            }
            // A damaged leaf skipped by a degraded open: the query goes
            // on without it, and says so.
            if ds.excluded_leaves().binary_search(&leaf).is_ok() {
                bat_obs::counter_add("read.degraded_skips", 1);
                continue;
            }
            stats.files_considered += 1;
            let file = ds.file(leaf)?;
            let plan = file.plan(&query)?;
            stats.nodes_pruned_bounds += plan.pruned_bounds;
            stats.nodes_pruned_bitmap += plan.pruned_bitmap;
            match plan.strategy {
                bat_layout::PlanStrategy::Scan => stats.files_scan += 1,
                bat_layout::PlanStrategy::Bitmap => stats.files_bitmap += 1,
                bat_layout::PlanStrategy::Index => stats.files_index += 1,
            }
            if plan.is_empty() {
                stats.files_pruned += 1;
                continue;
            }
            stats.files_planned += 1;
            stats.treelets_planned += plan.num_treelets() as u64;
            let score = match &query.bounds {
                Some(qb) => overlap_fraction(qb, &ds.meta().leaves[leaf as usize].bounds),
                None => 1.0,
            };
            files.push(PlannedFile {
                leaf,
                file,
                plan,
                score,
            });
        }
        // Most-covering file first; leaf id breaks ties deterministically
        // (and fully orders the unbounded case, preserving the dataset's
        // native emission order).
        files.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.leaf.cmp(&b.leaf))
        });

        if bat_obs::enabled() {
            bat_obs::counter_add("plan.queries", 1);
            bat_obs::counter_add("plan.nodes_pruned", stats.nodes_pruned());
            bat_obs::counter_add("plan.files_pruned", stats.files_pruned);
            bat_obs::counter_add("plan.treelets_planned", stats.treelets_planned);
        }
        Ok(QueryPlan {
            query,
            files,
            stats,
        })
    }

    /// Planning evidence for this query.
    pub fn stats(&self) -> &PlanStats {
        &self.stats
    }

    /// The validated (clamped) query this plan executes.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Leaf files in execution order (most query coverage first).
    pub fn file_order(&self) -> impl Iterator<Item = u32> + '_ {
        self.files.iter().map(|f| f.leaf)
    }

    /// Execute the plan, invoking `cb` per matching point. The optional
    /// `deadline` is checked before each file's fetch, before each decode
    /// window and between treelets, so an expired query fetches and
    /// decodes nothing, a live one stops within one decode window, and
    /// either reports how far it got.
    pub fn execute(
        &self,
        deadline: Option<Instant>,
        mut cb: impl FnMut(PointRecord<'_>),
    ) -> Result<QueryStats, ServeError> {
        let mut stats = QueryStats::default();
        for pf in &self.files {
            self.execute_file(pf, deadline, &mut stats, &mut cb)?;
        }
        Ok(stats)
    }

    /// Execute only the planned file for `leaf`, invoking `cb` per
    /// matching point. A no-op returning empty stats when the plan pruned
    /// (or never considered) that leaf. This is the shard execution
    /// granularity: the router asks the owning shard for one leaf's worth
    /// of points at a time, in global plan order.
    pub fn execute_leaf(
        &self,
        leaf: u32,
        deadline: Option<Instant>,
        mut cb: impl FnMut(PointRecord<'_>),
    ) -> Result<QueryStats, ServeError> {
        let mut stats = QueryStats::default();
        if let Some(pf) = self.files.iter().find(|f| f.leaf == leaf) {
            self.execute_file(pf, deadline, &mut stats, &mut cb)?;
        }
        Ok(stats)
    }

    /// Files are already in overlap order, so the blocks a range-backed
    /// file's loop fetches are the most likely to be scanned before any
    /// deadline fires.
    fn execute_file(
        &self,
        pf: &PlannedFile,
        deadline: Option<Instant>,
        stats: &mut QueryStats,
        cb: &mut impl FnMut(PointRecord<'_>),
    ) -> Result<(), ServeError> {
        if pf
            .file
            .execute_plan_until(&self.query, &pf.plan, deadline, stats, cb)?
        {
            return Ok(());
        }
        bat_obs::counter_add("serve.deadline_expired", 1);
        Err(ServeError::DeadlineExpired {
            treelets_done: stats.treelets_visited,
            treelets_planned: self.stats.treelets_planned,
        })
    }
}

/// Fraction of the query box's volume covered by `leaf_bounds` (in `[0,1]`;
/// degenerate query boxes score by containment).
fn overlap_fraction(query: &Aabb, leaf_bounds: &Aabb) -> f64 {
    if !query.overlaps(leaf_bounds) {
        return 0.0;
    }
    let qv = query.volume();
    if qv <= 0.0 {
        return 1.0;
    }
    query.intersection(leaf_bounds).volume() / qv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_fraction_bounds() {
        let unit = Aabb::unit();
        assert_eq!(overlap_fraction(&unit, &unit), 1.0);
        let half = Aabb::new(bat_geom::Vec3::ZERO, bat_geom::Vec3::splat(0.5));
        let f = overlap_fraction(&unit, &half);
        assert!((f - 0.125).abs() < 1e-9, "{f}");
        let outside = Aabb::new(bat_geom::Vec3::splat(2.0), bat_geom::Vec3::splat(3.0));
        assert_eq!(overlap_fraction(&unit, &outside), 0.0);
    }
}
