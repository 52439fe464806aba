//! Shard partition: how a dataset's leaves split across shard processes
//! (DESIGN.md §14). Routing policy only — the planner itself
//! ([`QueryPlan`], re-exported here) lives in `libbat` so that
//! `Dataset::query`, the stream server and the shard workers all run the
//! same chain.

pub use libbat::plan::{PlanStats, QueryPlan, ServeError};

/// Owner shard (0-based, contiguous equal slices) of `leaf`. This is the
/// primary placement; replica placement walks the ring from here
/// ([`replica_owners`]).
pub fn shard_of(leaf: u32, num_leaves: usize, num_shards: usize) -> usize {
    debug_assert!((leaf as usize) < num_leaves);
    ((leaf as usize + 1) * num_shards - 1) / num_leaves.max(1)
}

/// The sorted leaves shard `shard` owns out of `num_leaves`.
pub fn owned_leaves(shard: usize, num_leaves: usize, num_shards: usize) -> Vec<u32> {
    (0..num_leaves as u32)
        .filter(|&l| shard_of(l, num_leaves, num_shards) == shard)
        .collect()
}

/// The replica chain for a leaf slice whose primary owner is `primary`:
/// the primary followed by the next `replicas - 1` shards in ring order.
/// Capped at `num_shards` distinct owners, so `replicas = 1` degenerates
/// to primary-only placement and an oversized replica count never lists
/// a shard twice.
pub fn replica_owners(primary: usize, num_shards: usize, replicas: usize) -> Vec<usize> {
    debug_assert!(primary < num_shards);
    (0..replicas.clamp(1, num_shards))
        .map(|i| (primary + i) % num_shards)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_chain_is_distinct_and_ring_ordered() {
        assert_eq!(replica_owners(0, 4, 1), vec![0]);
        assert_eq!(replica_owners(2, 4, 2), vec![2, 3]);
        assert_eq!(replica_owners(3, 4, 2), vec![3, 0]);
        // Oversized replica counts cap at the shard count, never repeating.
        assert_eq!(replica_owners(1, 3, 9), vec![1, 2, 0]);
        assert_eq!(replica_owners(0, 1, 5), vec![0]);
        // Degenerate replicas = 0 still places the primary.
        assert_eq!(replica_owners(2, 4, 0), vec![2]);
    }
}
