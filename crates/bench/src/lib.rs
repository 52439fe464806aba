//! Shared infrastructure for the paper reproductions — and only those:
//! performance is measured by `benchmark/` (`BENCHMARK.json`), correctness
//! gates are tests under the tier-1 command.
//!
//! Every figure and table of the paper's evaluation (§VI) has a binary in
//! `src/bin/` that regenerates it: the same workloads, parameter sweeps,
//! baselines, and output rows/series. Binaries print aligned text tables
//! and write CSVs under `target/experiments/` for plotting.
//!
//! Two execution modes (DESIGN.md §2):
//! - **executed**: real rank threads, real files on local disk — used for
//!   the visualization-read tables (I, II), Fig. 13, and the overhead
//!   stats, which the paper itself measures on a single workstation;
//! - **modeled**: the real planning algorithms at full rank counts (up to
//!   43k), with I/O and network durations priced by `bat-iosim` — used for
//!   the weak-scaling and adaptive-vs-AUG figures (5–7, 9–12), which the
//!   paper measures on Stampede2/Summit.

pub mod calibrate;
pub mod report;

/// Parse the common `--quick` / `--full` flags; quick mode shrinks sweeps
/// so the whole suite runs in minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    Quick,
    Default,
    Full,
}

impl RunScale {
    pub fn from_args() -> RunScale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            RunScale::Quick
        } else if args.iter().any(|a| a == "--full") {
            RunScale::Full
        } else {
            RunScale::Default
        }
    }
}

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

/// Helpers for executed-mode experiments: write real datasets through the
/// full pipeline on rank threads, onto local disk.
pub mod executed {
    use bat_comm::Cluster;
    use bat_workloads::{CoalBoiler, DamBreak};
    use libbat::write::{write_particles, Strategy, WriteConfig, WriteReport};
    use std::path::Path;

    /// Write one Coal Boiler step through the executed pipeline.
    pub fn write_coal(
        dir: &Path,
        basename: &str,
        cb: &CoalBoiler,
        step: u32,
        ranks: usize,
        target_bytes: u64,
        strategy: Strategy,
    ) -> WriteReport {
        let grid = cb.grid(step, ranks);
        let cb = cb.clone();
        let dir = dir.to_path_buf();
        let basename = basename.to_string();
        Cluster::run(ranks, move |comm| {
            let set = cb.generate_rank(step, &grid, comm.rank());
            let mut cfg = WriteConfig::with_target_size(
                target_bytes,
                bat_workloads::coal_boiler::BYTES_PER_PARTICLE,
            );
            cfg.strategy = strategy;
            write_particles(
                &comm,
                set,
                grid.bounds_of(comm.rank()),
                &cfg,
                &dir,
                &basename,
            )
            .expect("executed coal write")
        })
        .into_iter()
        .next()
        .expect("rank 0 report")
    }

    /// Write one Dam Break step through the executed pipeline.
    pub fn write_dam(
        dir: &Path,
        basename: &str,
        db: &DamBreak,
        step: u32,
        ranks: usize,
        target_bytes: u64,
        strategy: Strategy,
    ) -> WriteReport {
        let grid = db.grid(ranks);
        let db = db.clone();
        let dir = dir.to_path_buf();
        let basename = basename.to_string();
        Cluster::run(ranks, move |comm| {
            let set = db.generate_rank(step, &grid, comm.rank());
            let mut cfg = WriteConfig::with_target_size(
                target_bytes,
                bat_workloads::dam_break::BYTES_PER_PARTICLE,
            );
            cfg.strategy = strategy;
            write_particles(
                &comm,
                set,
                grid.bounds_of(comm.rank()),
                &cfg,
                &dir,
                &basename,
            )
            .expect("executed dam write")
        })
        .into_iter()
        .next()
        .expect("rank 0 report")
    }

    /// A scratch directory under the target dir for executed datasets.
    pub fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = crate::report::experiments_dir().join(format!("data-{tag}"));
        std::fs::create_dir_all(&dir).expect("create scratch");
        dir
    }
}
