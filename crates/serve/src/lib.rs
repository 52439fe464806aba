//! bat-serve: concurrent query serving over written BAT datasets
//! (DESIGN.md §12).
//!
//! The write side of the pipeline builds pruned, page-aligned layouts; this
//! crate is the layer that makes *reading them under concurrency* a
//! first-class property. It composes three pieces:
//!
//! 1. **Treelet page cache** — the sharded, memory-bounded LRU lives in
//!    [`bat_layout::cache`] (the mechanism must sit below the reader so
//!    `BatFile` can consult it without a dependency cycle, and it is
//!    `bat_layout::cache::global` that sizes the process-wide cache from
//!    `BAT_CACHE_BYTES`); this crate owns the *policy*: admission priority
//!    derived from query class ([`query_priority`]) and a server-private
//!    cache ([`ServeOptions::cache`]).
//! 2. **Shard placement** — [`shard_of`] / [`owned_leaves`] /
//!    [`replica_owners`]: which shard process serves which leaf files.
//!    The planner itself ([`QueryPlan`], re-exported from `libbat`) is
//!    the one `Dataset::query` runs, so a served query and a library call
//!    plan, order and execute identically.
//! 3. **Bounded front-end** — [`ServePool`], an admission gate: `workers`
//!    permits, a bounded ordered wait, reject-with-retry-after
//!    backpressure, and graceful drain. The session thread that holds a
//!    permit runs the query itself; the per-query deadline is checked by
//!    the reader's per-file loop, between treelets.
//!
//! The stream front-end (`bat-stream`) builds its session handling on top
//! of these pieces; `batcli serve` exposes them on the command line.

pub mod plan;
pub mod pool;

pub use bat_layout::cache::{
    self, PageCache, PRIORITY_BULK, PRIORITY_INTERACTIVE, PRIORITY_NORMAL,
};
pub use plan::{owned_leaves, replica_owners, shard_of, PlanStats, QueryPlan, ServeError};
pub use pool::{Permit, PoolStats, Rejected, ServePool, ServePoolConfig};

use bat_layout::Query;
use std::sync::Arc;
use std::time::Duration;

/// Cache admission priority for a query (DESIGN.md §12): low-quality
/// interactive reads touch few pages and back a user who is waiting, so
/// their treelets may evict bulk pages; a full-quality bulk scan streams
/// everything once and must not flush the interactive working set.
pub fn query_priority(q: &Query) -> u8 {
    if q.quality <= 0.35 {
        PRIORITY_INTERACTIVE
    } else if q.quality < 1.0 {
        PRIORITY_NORMAL
    } else {
        PRIORITY_BULK
    }
}

/// Serving configuration. The default is the gate's own sizing
/// ([`ServePoolConfig::default`]: workers from the rayon shim's thread
/// count, queue depth 64) and no deadline; `batcli serve` sets the fields
/// from `--workers` / `--queue` / `--deadline-ms`.
#[derive(Clone, Default)]
pub struct ServeOptions {
    /// Requests executing at once; `None` uses [`ServePoolConfig::default`].
    pub workers: Option<usize>,
    /// Requests that may wait for a permit; `None` uses the default.
    pub queue_depth: Option<usize>,
    /// Per-query deadline; `None` means queries run to completion.
    pub deadline: Option<Duration>,
    /// Dataset-private cache; `None` leaves the process-global policy
    /// (`BAT_CACHE_BYTES`) in charge.
    pub cache: Option<Arc<PageCache>>,
}

impl ServeOptions {
    /// The pool configuration these options resolve to.
    pub fn pool_config(&self) -> ServePoolConfig {
        let mut cfg = ServePoolConfig::default();
        if let Some(w) = self.workers {
            cfg.workers = w;
        }
        if let Some(d) = self.queue_depth {
            cfg.queue_depth = d;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_tracks_quality() {
        assert_eq!(
            query_priority(&Query::new().with_quality(0.1)),
            PRIORITY_INTERACTIVE
        );
        assert_eq!(
            query_priority(&Query::new().with_quality(0.5)),
            PRIORITY_NORMAL
        );
        assert_eq!(
            query_priority(&Query::new().with_quality(1.0)),
            PRIORITY_BULK
        );
    }

    #[test]
    fn options_resolve_pool_config() {
        let opts = ServeOptions {
            workers: Some(3),
            queue_depth: Some(9),
            deadline: None,
            cache: None,
        };
        let cfg = opts.pool_config();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_depth, 9);
    }
}
