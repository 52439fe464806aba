//! Writing the timestep through the library's collective write pipeline, in
//! the two on-disk configurations every workload is built on.

use crate::inputs::{Inputs, RANKS};
use bat_comm::Cluster;
use libbat::write::{write_particles, WriteConfig, WriteReport};
use libbat::{verify_dataset, CommitState, Dataset};
use std::io;
use std::path::Path;
use std::time::Instant;

/// On-disk configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Paper default: v1 treelets, no attribute index.
    A,
    /// `BAT_TREELET_CODEC=v2-lossless` + `BAT_INDEX_ATTRS=mass,local_density`.
    B,
}

impl Config {
    pub fn basename(self) -> &'static str {
        match self {
            Config::A => "a",
            Config::B => "b",
        }
    }

    /// The write-time environment of this configuration. The library reads
    /// both knobs when a leaf file is laid out, so they are set around the
    /// collective write and cleared after it.
    fn env(self) -> [(&'static str, Option<&'static str>); 2] {
        match self {
            Config::A => [("BAT_TREELET_CODEC", None), ("BAT_INDEX_ATTRS", None)],
            Config::B => [
                ("BAT_TREELET_CODEC", Some("v2-lossless")),
                ("BAT_INDEX_ATTRS", Some("mass,local_density")),
            ],
        }
    }
}

/// One committed write.
#[derive(Debug, Clone)]
pub struct Written {
    /// Seconds from the first rank entering `write_particles` to the last
    /// rank returning (the `.batmeta` rename is inside).
    pub secs: f64,
    /// Leaf files + `.batmeta`, bytes on disk.
    pub stored_bytes: u64,
    /// Rank 0's report (identical on every rank).
    pub report: WriteReport,
}

/// Write the timestep as `cfg` into `dir` and check the commit: the marker
/// must verify as `Committed` and the data set must hold every particle.
pub fn write(inputs: &Inputs, dir: &Path, cfg: Config) -> io::Result<Written> {
    for (k, v) in cfg.env() {
        match v {
            Some(v) => std::env::set_var(k, v),
            None => std::env::remove_var(k),
        }
    }
    let wcfg = WriteConfig::with_target_size(
        inputs.target_file_bytes(),
        bat_workloads::cosmology::BYTES_PER_PARTICLE,
    );
    let per_rank = Cluster::run(RANKS, |comm| {
        let set = inputs.rank_sets[comm.rank()].clone();
        let bounds = inputs.grid.bounds_of(comm.rank());
        // Line the ranks up after their clones so the timed interval holds
        // the write pipeline only.
        comm.barrier();
        let t0 = Instant::now();
        let report = write_particles(&*comm, set, bounds, &wcfg, dir, cfg.basename());
        (t0, Instant::now(), report)
    });
    for (k, _) in cfg.env() {
        std::env::remove_var(k);
    }
    let start = per_rank.iter().map(|r| r.0).min().expect("ranks ran");
    let end = per_rank.iter().map(|r| r.1).max().expect("ranks ran");
    let report = per_rank
        .into_iter()
        .map(|r| r.2)
        .collect::<io::Result<Vec<_>>>()?
        .swap_remove(0);

    let verify = verify_dataset(dir, cfg.basename())?;
    if verify.commit != CommitState::Committed || !verify.is_clean() {
        return Err(io::Error::other(format!(
            "config {cfg:?} did not verify as committed: {:?}",
            verify.commit
        )));
    }
    let ds = Dataset::open(dir, cfg.basename())?;
    if ds.num_particles() != inputs.particles as u64 {
        return Err(io::Error::other(format!(
            "config {cfg:?} holds {} particles, wrote {}",
            ds.num_particles(),
            inputs.particles
        )));
    }
    let meta = dir.join(libbat::write::meta_file_name(cfg.basename()));
    let stored_bytes = ds.total_file_bytes()? + std::fs::metadata(meta)?.len();
    Ok(Written {
        secs: end.duration_since(start).as_secs_f64(),
        stored_bytes,
        report,
    })
}
