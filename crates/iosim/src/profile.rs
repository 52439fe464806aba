//! System profiles: the modeled HPC platforms.
//!
//! Constants are first-order approximations of the two machines in the
//! paper's evaluation (§VI-A), taken from the paper where stated (peak
//! bandwidths, network rates, stripe settings) and from public system
//! documentation otherwise. They are deliberately exposed as plain fields
//! an experiment can override.

/// Which parallel filesystem semantics to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// Lustre: striped files over OSTs, single metadata server, extent locks
    /// for shared-file writes.
    Lustre,
    /// IBM Spectrum Scale (GPFS): blocks distributed over all NSD servers,
    /// distributed metadata (cheaper creates), token-based shared-file
    /// coordination.
    Gpfs,
}

/// Storage-side parameters.
#[derive(Debug, Clone)]
pub struct StorageProfile {
    /// Filesystem semantics to model.
    pub kind: StorageKind,
    /// Number of storage targets (Lustre OSTs / GPFS NSD servers).
    pub targets: usize,
    /// Per-target bandwidth, bytes/s. `targets * target_bw` is the peak.
    pub target_bw: f64,
    /// Fixed per-write-RPC latency at a target, seconds.
    pub target_latency: f64,
    /// Seconds per file create at the metadata service (serialized).
    pub create_latency: f64,
    /// Seconds per metadata stat/open of an existing file.
    pub open_latency: f64,
    /// Lustre stripe count per file (ignored for GPFS).
    pub stripe_count: usize,
    /// Lustre stripe size in bytes (ignored for GPFS).
    pub stripe_size: u64,
    /// GPFS block size in bytes (ignored for Lustre).
    pub block_size: u64,
    /// Seconds per lock/token acquisition for shared-file writes
    /// (serialized at the lock manager; the shared-file scalability killer).
    pub lock_latency: f64,
}

/// Network-side parameters.
#[derive(Debug, Clone)]
pub struct NetworkProfile {
    /// Per-node injection bandwidth, bytes/s.
    pub nic_bw: f64,
    /// Per-message latency, seconds.
    pub latency: f64,
    /// Fat-tree oversubscription factor: core capacity is
    /// `nodes * nic_bw / oversubscription`.
    pub oversubscription: f64,
    /// Intra-node (shared-memory) transfer rate, bytes/s.
    pub memcpy_bw: f64,
}

/// Compute-side constants for costing the pipeline's CPU phases at modeled
/// scale. They are committed, not calibrated at run time: a modeled
/// experiment is a pure function of its profile, so nothing timed on the
/// host may enter it (DESIGN.md §2).
#[derive(Debug, Clone)]
pub struct ComputeProfile {
    /// Bytes/second one aggregator core sustains building the BAT layout.
    pub bat_build_rate: f64,
    /// Seconds rank 0 spends per populated rank per aggregation-tree level
    /// ([`ComputeProfile::tree_build_secs`]). Fitted once against the real
    /// `build_tree` over the Default-scale sweeps of every modeled
    /// experiment (314 plans, geometric mean 55.9 ns, measured/model within
    /// 0.46–2.2×; CHANGES.md PR 22 has the table).
    pub tree_visit_secs: f64,
}

impl ComputeProfile {
    /// Cost of rank 0's aggregation-tree build over `ranks` populated
    /// ranks ending in `leaves` leaves. A hierarchical (adaptive k-d) build
    /// re-partitions every rank once per level, `1 + log2(leaves)` levels
    /// — the `n log n` shape of any top-down tree build; a flat build (the
    /// AUG grid) bins every rank once. Monotone in both counts, and
    /// hierarchical ≥ flat on equal inputs.
    pub fn tree_build_secs(&self, ranks: usize, leaves: usize, hierarchical: bool) -> f64 {
        let levels = if hierarchical {
            1.0 + (leaves.max(1) as f64).log2()
        } else {
            1.0
        };
        self.tree_visit_secs * ranks as f64 * levels
    }
}

/// A complete modeled platform.
#[derive(Debug, Clone)]
pub struct SystemProfile {
    /// Human-readable name used in experiment reports.
    pub name: &'static str,
    /// MPI ranks per node (how rank ids map to nodes and NICs).
    pub cores_per_node: usize,
    /// Network parameters.
    pub network: NetworkProfile,
    /// Storage parameters.
    pub storage: StorageProfile,
    /// Compute-rate parameters.
    pub compute: ComputeProfile,
}

impl SystemProfile {
    /// A Stampede2-like system: dual-socket Skylake nodes (48 cores), 100
    /// Gb/s Omni-Path fat tree, Lustre scratch with 330 GB/s peak write
    /// bandwidth. The paper writes with stripe count 32 and stripe size
    /// 8 MB (§VI-A).
    pub fn stampede2() -> SystemProfile {
        SystemProfile {
            name: "stampede2",
            cores_per_node: 48,
            network: NetworkProfile {
                nic_bw: 12.5e9, // 100 Gb/s
                latency: 2e-6,
                oversubscription: 1.75,
                memcpy_bw: 10e9,
            },
            storage: StorageProfile {
                kind: StorageKind::Lustre,
                targets: 66,
                target_bw: 5e9, // 66 * 5 GB/s = 330 GB/s peak
                target_latency: 0.4e-3,
                create_latency: 3e-5, // ~33k creates/s at the MDS (DNE-era Lustre)
                open_latency: 2e-5,
                stripe_count: 32,
                stripe_size: 8 << 20,
                block_size: 1 << 20,
                lock_latency: 2.5e-5,
            },
            compute: ComputeProfile {
                bat_build_rate: 900e6,
                tree_visit_secs: 56e-9,
            },
        }
    }

    /// A Summit-like system: POWER9 nodes (42 usable cores), 184 Gb/s dual
    /// rail EDR fat tree, GPFS (Alpine) with 2.5 TB/s peak write bandwidth.
    pub fn summit() -> SystemProfile {
        SystemProfile {
            name: "summit",
            cores_per_node: 42,
            network: NetworkProfile {
                nic_bw: 23e9, // 184 Gb/s
                latency: 1.5e-6,
                oversubscription: 1.0, // non-blocking fat tree
                memcpy_bw: 12e9,
            },
            storage: StorageProfile {
                kind: StorageKind::Gpfs,
                targets: 154,
                target_bw: 16.2e9, // ~2.5 TB/s peak
                target_latency: 0.3e-3,
                create_latency: 10e-5, // distributed metadata, but shared-dir contention
                open_latency: 2e-5,
                stripe_count: 1,
                stripe_size: 16 << 20,
                block_size: 16 << 20,
                lock_latency: 1.2e-5,
            },
            // Larger L3 on POWER9 helps the build (§VI-A1 observes the BAT
            // build takes a smaller share of time on Summit).
            compute: ComputeProfile {
                bat_build_rate: 1.4e9,
                // Fitted on one host, so the same on both platforms.
                tree_visit_secs: 56e-9,
            },
        }
    }

    /// Peak storage bandwidth, bytes/s.
    pub fn peak_storage_bw(&self) -> f64 {
        self.storage.targets as f64 * self.storage.target_bw
    }

    /// The node a rank lives on under block placement.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.cores_per_node
    }

    /// Number of nodes needed for `ranks` ranks.
    pub fn nodes_for(&self, ranks: usize) -> usize {
        ranks.div_ceil(self.cores_per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_bandwidths_match_paper() {
        let s2 = SystemProfile::stampede2();
        assert!((s2.peak_storage_bw() - 330e9).abs() < 1e9);
        let summit = SystemProfile::summit();
        assert!((summit.peak_storage_bw() - 2.5e12).abs() < 0.01e12);
    }

    #[test]
    fn tree_build_cost_is_monotone_and_hierarchical_costs_more() {
        let c = SystemProfile::stampede2().compute;
        let sweep = [1usize, 2, 37, 1536, 6144, 43_008];
        for hierarchical in [false, true] {
            for w in sweep.windows(2) {
                for &fixed in &sweep {
                    let by_ranks = |r| c.tree_build_secs(r, fixed, hierarchical);
                    let by_leaves = |l| c.tree_build_secs(fixed, l, hierarchical);
                    assert!(by_ranks(w[0]) < by_ranks(w[1]));
                    assert!(by_leaves(w[0]) <= by_leaves(w[1]));
                }
            }
        }
        for &r in &sweep {
            for &l in &sweep {
                assert!(c.tree_build_secs(r, l, true) >= c.tree_build_secs(r, l, false));
            }
        }
        // The Fig. 12 regime (8M Dam Break, 6144 ranks, ~180 leaves):
        // milliseconds for the adaptive tree, a fraction of one for AUG.
        let adaptive = c.tree_build_secs(6144, 180, true);
        let aug = c.tree_build_secs(6144, 12, false);
        assert!((1e-3..6e-3).contains(&adaptive), "{adaptive}");
        assert!((1e-4..5e-4).contains(&aug), "{aug}");
    }

    #[test]
    fn rank_to_node_mapping() {
        let s2 = SystemProfile::stampede2();
        assert_eq!(s2.node_of(0), 0);
        assert_eq!(s2.node_of(47), 0);
        assert_eq!(s2.node_of(48), 1);
        assert_eq!(s2.nodes_for(1), 1);
        assert_eq!(s2.nodes_for(48), 1);
        assert_eq!(s2.nodes_for(49), 2);
        assert_eq!(s2.nodes_for(1536), 32);
    }
}
