//! The paper reproductions — and only those: performance is measured by
//! `benchmark/` (`BENCHMARK.json`), correctness gates are tests under the
//! tier-1 command.
//!
//! Every figure and table of the paper's evaluation (§VI) is one function
//! `fn(RunScale) -> Vec<Table>` listed in [`EXPERIMENTS`]: the same
//! workloads, parameter sweeps, baselines, and output rows/series. The
//! `figures` binary prints the tables and writes CSVs under
//! `target/experiments/`; `tests/golden.rs` calls the same functions.
//!
//! Two kinds (DESIGN.md §2):
//! - [`Kind::Modeled`]: the real planning algorithms at full rank counts
//!   (up to 43k), every duration priced by `bat-iosim` from committed
//!   constants — the weak-scaling and adaptive-vs-AUG figures (5–7, 9–12),
//!   which the paper measures on Stampede2/Summit. Pure functions of the
//!   scale: the golden test pins every cell.
//! - [`Kind::Executed`]: real rank threads, real files on local disk — the
//!   visualization-read tables (I, II), Fig. 13, the overhead stats and the
//!   ablations, which the paper itself measures on a single workstation.
//!   Columns ending in `_ms`/`_MBs` are host wall-clock and are never set
//!   beside simulated seconds.

pub mod executed;
pub mod modeled;
pub mod report;

use report::Table;

/// How large a sweep to run; quick mode shrinks every experiment so the
/// whole registry runs in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    Quick,
    Default,
    Full,
}

/// Whether an experiment's cells are simulated or measured on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Modeled,
    Executed,
}

/// One entry of the registry.
pub struct Experiment {
    /// What `figures <name>` selects; also the stem of its CSV names.
    pub name: &'static str,
    /// The paper artefact it regenerates.
    pub artefact: &'static str,
    pub kind: Kind,
    /// The shape the paper reports, printed under the tables.
    pub expect: &'static str,
    pub run: fn(RunScale) -> Vec<Table>,
}

/// Every experiment, in the order `figures all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig5",
        artefact: "Fig. 5: write bandwidth weak scaling (uniform, 4.06 MB/rank) vs IOR baselines",
        kind: Kind::Modeled,
        expect: "FPP good early then degrading (metadata wall); shared/HDF5 capped by lock \
                 coordination; two-phase with larger targets keeps scaling, with small targets \
                 degrading like FPP.",
        run: modeled::fig5,
    },
    Experiment {
        name: "fig6",
        artefact: "Fig. 6: write pipeline component breakdowns at 8 MB and 64 MB targets",
        kind: Kind::Modeled,
        expect: "component shares stay similar through each target's scaling regime; 8 MB spends \
                 a growing share in file writes at high rank counts; the BAT build takes a larger \
                 share on Stampede2 than on Summit.",
        run: modeled::fig6,
    },
    Experiment {
        name: "fig7",
        artefact: "Fig. 7: read bandwidth weak scaling (uniform, 4.06 MB/rank) vs IOR baselines",
        kind: Kind::Modeled,
        expect: "two-phase reads beat FPP and shared beyond moderate core counts; small targets \
                 flatten early, 256 MB keeps scaling longest.",
        run: modeled::fig7,
    },
    Experiment {
        name: "fig9",
        artefact:
            "Fig. 9: Coal Boiler adaptive vs AUG, write (a) and read (b) bandwidth, 1536 ranks",
        kind: Kind::Modeled,
        expect: "adaptive up to 2.5x faster writes and 3x faster reads than AUG, with small \
                 targets losing ground as the particle count grows.",
        run: modeled::fig9,
    },
    Experiment {
        name: "fig10",
        artefact: "Fig. 10: Coal Boiler component breakdowns at the 8 MB target",
        kind: Kind::Modeled,
        expect: "the adaptive strategy spends less time in each major component (transfer, \
                 layout build, file write).",
        run: modeled::fig10,
    },
    Experiment {
        name: "fig11",
        artefact: "Fig. 11: Dam Break adaptive vs AUG, 2M/1536 and 8M/6144 (Stampede2)",
        kind: Kind::Modeled,
        expect: "FPP best for the small 2M case; at 8M/6144 the adaptive 3 MB target wins \
                 overall at 1.5-2x over AUG (3x for reads), with the gap growing at the larger \
                 scale.",
        run: modeled::fig11,
    },
    Experiment {
        name: "fig12",
        artefact: "Fig. 12: 8M Dam Break component breakdowns at the 3 MB target",
        kind: Kind::Modeled,
        expect: "with a fixed population adaptive write times stay nearly constant over the \
                 series; AUG swings with the particle distribution.",
        run: modeled::fig12,
    },
    Experiment {
        name: "fig13",
        artefact: "Fig. 13: visual quality progression on the Coal Boiler (quality 0.2/0.4/0.8)",
        kind: Kind::Executed,
        expect: "coarse levels already preserve the overall shape of the object (high voxel \
                 coverage at a small fraction of the points), refining smoothly toward full \
                 quality.",
        run: executed::fig13,
    },
    Experiment {
        name: "table1",
        artefact: "Table I: progressive single-thread reads, Coal Boiler",
        kind: Kind::Executed,
        expect: "(*) published target, scaled by the population factor so file counts match the \
                 paper's setup. Paper: ~70 ms average reads at ~54k points/ms on the full \
                 41.5M-particle data; points/ms is the comparable figure, and the target size \
                 should barely matter across rows.",
        run: executed::table1,
    },
    Experiment {
        name: "table2",
        artefact: "Table II: progressive single-thread reads, Dam Break",
        kind: Kind::Executed,
        expect: "(*) published target, scaled with the population. Paper: ~10 ms average reads \
                 at 70k pts/ms (2M) and ~48 ms at 58k pts/ms (8M); the target size barely moves \
                 the rows, and throughput is flat to slightly lower for the larger configuration.",
        run: executed::table2,
    },
    Experiment {
        name: "stats_file_sizes",
        artefact: "§VI-A2 file-size balance: Coal Boiler t=4501, 8 MB target, 1536 ranks",
        kind: Kind::Modeled,
        expect: "similar file counts; adaptive with a much tighter spread and roughly half the \
                 maximum file size.",
        run: modeled::stats_file_sizes,
    },
    Experiment {
        name: "stats_overhead",
        artefact: "§VI-B storage overhead of the BAT layout (paper: ≈0.9%)",
        kind: Kind::Executed,
        expect: "`structure%` is the in-memory cost (nodes + bitmap IDs + dictionary); `file%` \
                 adds the 4 KiB treelet page alignment of the on-disk image. Overhead falls \
                 toward the published figure as aggregator populations grow.",
        run: executed::stats_overhead,
    },
    Experiment {
        name: "ablate_subprefix",
        artefact: "Ablation (§III-C1): Morton subprefix bits of the shallow tree",
        kind: Kind::Executed,
        expect: "12 bits sits at the knee: enough treelets for parallel builds without the \
                 per-treelet padding/header overhead of finer subprefixes.",
        run: executed::ablate_subprefix,
    },
    Experiment {
        name: "ablate_bitmap",
        artefact: "Ablation (§VII): effectiveness of the fixed 32-bit bitmap indices",
        kind: Kind::Executed,
        expect: "on the coherent attribute 32 bins skip most of the data for selective queries; \
                 on pure noise every node's bitmap fills up and cannot cull, the limitation §VII \
                 acknowledges.",
        run: executed::ablate_bitmap,
    },
    Experiment {
        name: "ablate_overfull",
        artefact: "Ablation (§III-A): overfull-leaf ratio and factor",
        kind: Kind::Modeled,
        expect: "aggressive overfull acceptance (low ratio) makes fewer, fatter files; disabling \
                 it (off) forces bad splits that produce many small files. The paper's (4, 1.5x) \
                 sits between.",
        run: modeled::ablate_overfull,
    },
    Experiment {
        name: "ablate_split_axis",
        artefact: "Ablation (§III-A): longest-axis vs best-of-all-axes splits",
        kind: Kind::Executed,
        expect: "all-axes search costs more tree-build time for a usually modest balance \
                 improvement, which is why the paper leaves it off by default.",
        run: executed::ablate_split_axis,
    },
    Experiment {
        name: "ablate_lod",
        artefact: "Ablation (§VI-B): LOD particles per treelet inner node",
        kind: Kind::Executed,
        expect: "more LOD particles per node raise the coarse preview's coverage at the cost of \
                 larger previews; 8 (the paper's choice) already covers most of the silhouette.",
        run: executed::ablate_lod,
    },
    Experiment {
        name: "extra_cosmology",
        artefact: "Extra: cosmology halos, a third imbalance shape (paper §I motivation)",
        kind: Kind::Modeled,
        expect: "the adaptive advantage generalizes to halo clusters, supporting the paper's \
                 claim of handling arbitrary nonuniform distributions.",
        run: modeled::extra_cosmology,
    },
    Experiment {
        name: "extra_executed",
        artefact: "Extra: executed local-disk comparison vs file-per-process and shared file",
        kind: Kind::Executed,
        expect: "at laptop scale the baselines write raw blobs faster (no layout to build); at \
                 HPC scale the two-phase pipeline wins on bandwidth too (Figs 5/7), while the \
                 BAT files stay directly queryable either way.",
        run: executed::extra_executed,
    },
];

/// Format bytes/second in the unit the paper's figures use.
pub fn fmt_bw(bytes_per_sec: f64) -> String {
    if bytes_per_sec >= 1e9 {
        format!("{:.2} GB/s", bytes_per_sec / 1e9)
    } else if bytes_per_sec >= 1e6 {
        format!("{:.1} MB/s", bytes_per_sec / 1e6)
    } else {
        format!("{:.0} KB/s", bytes_per_sec / 1e3)
    }
}

/// Geometric mean (the aggregation the paper/IO500 use across reps).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn bw_formatting() {
        assert_eq!(fmt_bw(2.5e9), "2.50 GB/s");
        assert_eq!(fmt_bw(3.14e7), "31.4 MB/s");
        assert_eq!(fmt_bw(5.0e3), "5 KB/s");
    }
}

/// Rank sweeps and shared workload parameters for the weak-scaling figures.
pub mod sweeps {
    use super::RunScale;

    /// Stampede2 rank sweep (48-core SKX nodes), up to the paper's 24k.
    pub fn stampede2_ranks(scale: RunScale) -> Vec<usize> {
        match scale {
            RunScale::Quick => vec![96, 384, 1536, 6144],
            RunScale::Default => vec![96, 192, 384, 768, 1536, 3072, 6144, 12_288, 24_576],
            RunScale::Full => vec![48, 96, 192, 384, 768, 1536, 3072, 6144, 12_288, 24_576],
        }
    }

    /// Summit rank sweep (42 usable cores/node), up to the paper's 43k.
    pub fn summit_ranks(scale: RunScale) -> Vec<usize> {
        match scale {
            RunScale::Quick => vec![168, 672, 2688, 10_752, 43_008],
            RunScale::Default => {
                vec![168, 336, 672, 1344, 2688, 5376, 10_752, 21_504, 43_008]
            }
            RunScale::Full => {
                vec![84, 168, 336, 672, 1344, 2688, 5376, 10_752, 21_504, 43_008]
            }
        }
    }

    /// Target file sizes swept in Figures 5–7 (8 MB ≈ file per process at
    /// 4.06 MB/rank, up to 256 MB ≈ 63 ranks per file).
    pub fn target_sizes_mb(scale: RunScale) -> Vec<u64> {
        match scale {
            RunScale::Quick => vec![8, 64, 256],
            _ => vec![8, 16, 32, 64, 128, 256],
        }
    }

    /// Coal Boiler timesteps (§VI-A2 plots 501..4501).
    pub fn coal_steps(scale: RunScale) -> Vec<u32> {
        match scale {
            RunScale::Quick => vec![501, 2501, 4501],
            _ => vec![501, 1001, 1501, 2001, 2501, 3001, 3501, 4001, 4501],
        }
    }

    /// Dam Break timesteps (§VI-A2 plots 0..4001).
    pub fn dam_steps(scale: RunScale) -> Vec<u32> {
        match scale {
            RunScale::Quick => vec![0, 2001, 4001],
            _ => vec![0, 501, 1001, 1501, 2001, 2501, 3001, 3501, 4001],
        }
    }

    /// Monte Carlo samples for per-rank count integration.
    pub fn mc_samples(scale: RunScale) -> usize {
        match scale {
            RunScale::Quick => 100_000,
            RunScale::Default => 300_000,
            RunScale::Full => 1_000_000,
        }
    }
}
