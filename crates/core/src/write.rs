//! The executed two-phase write pipeline (paper §III, Fig. 1).
//!
//! Every rank calls [`write_particles`] collectively. Rank 0 gathers each
//! rank's particle count and spatial bounds, builds the Aggregation Tree
//! (adaptive k-d by default, or the AUG baseline for comparisons), assigns
//! leaves to aggregator ranks spread across the rank space, and scatters
//! the assignments. Ranks then send their particles to their leaf's
//! aggregator with nonblocking sends; each aggregator builds a Binned
//! Attribute Tree over what it received, compacts it, and writes one file.
//! Finally rank 0 gathers every aggregator's value ranges and root bitmaps
//! and writes the top-level `.batmeta` (paper §III-D).

use bat_aggregation::meta::{LeafReport, MetaTree};
use bat_aggregation::{
    assign_aggregators, build_aug_tree, AggConfig, AggregationTree, BalanceStats, CommitManifest,
    ManifestEntry, RankInfo,
};
use bat_comm::{Comm, CommError};
use bat_faults::Fault;
use bat_geom::Aabb;
use bat_iosim::{PhaseTimes, WritePhase};
use bat_layout::format::{get_aabb, put_aabb};
use bat_layout::{BatBuilder, BatConfig, ColumnarParticles, CrcSectionWriter, ParticleSet};
use bat_wire::{Decoder, Encoder, WireError, WireResult};
use bytes::Bytes;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Tag for particle payloads flowing to write aggregators.
pub(crate) const TAG_DATA: u32 = 1;

/// Which aggregation strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's adaptive k-d aggregation tree (§III-A).
    Adaptive,
    /// The adjustable-uniform-grid baseline of Kumar et al. \[27\].
    Aug,
}

/// Write pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct WriteConfig {
    /// Aggregation strategy (adaptive tree or AUG baseline).
    pub strategy: Strategy,
    /// Aggregation-tree parameters (target size, overfull policy).
    pub agg: AggConfig,
    /// BAT layout parameters.
    pub bat: BatConfig,
}

impl WriteConfig {
    /// Adaptive aggregation at the given target file size, with the paper's
    /// default overfull policy and BAT parameters.
    pub fn with_target_size(target_file_bytes: u64, bytes_per_particle: u64) -> WriteConfig {
        WriteConfig {
            strategy: Strategy::Adaptive,
            agg: AggConfig::new(target_file_bytes, bytes_per_particle),
            // Auto subprefix: resolves to the paper's 12 bits at realistic
            // aggregator populations, fewer for small ones (less padding).
            bat: BatConfig::auto(),
        }
    }

    /// Automatic target-size selection: rank 0 picks the size from the
    /// gathered totals using the paper's recommendations (§VI-A2, encoded
    /// in [`bat_aggregation::recommended_target_size`]). Addresses the
    /// §VII future-work item.
    pub fn auto(bytes_per_particle: u64) -> WriteConfig {
        WriteConfig::with_target_size(0, bytes_per_particle)
    }

    /// Same parameters but using the AUG baseline.
    pub fn aug(mut self) -> WriteConfig {
        self.strategy = Strategy::Aug;
        self
    }
}

/// Result of a collective write, identical on every rank.
#[derive(Debug, Clone)]
pub struct WriteReport {
    /// Slowest-rank time per pipeline component, plus end-to-end total.
    pub times: PhaseTimes,
    /// Leaf-file balance statistics.
    pub balance: BalanceStats,
    /// Number of leaf files written.
    pub files: usize,
    /// Total particle payload bytes across all ranks.
    pub bytes_total: u64,
}

/// One aggregator duty: which leaf to receive and write.
#[derive(Debug, Clone)]
struct LeafDuty {
    leaf_idx: u32,
    file: String,
    bounds: Aabb,
    /// `(source rank, particle count)` pairs, including the aggregator
    /// itself if it owns particles in the leaf.
    sources: Vec<(u32, u64)>,
}

/// Per-rank assignment scattered from rank 0.
#[derive(Debug, Clone, Default)]
struct Assignment {
    /// Aggregator to send this rank's particles to (`None` = no particles).
    agg_of_me: Option<u32>,
    /// Set when this rank aggregates a leaf.
    duty: Option<LeafDuty>,
}

impl Assignment {
    fn encode(&self) -> Bytes {
        let mut enc = Encoder::new();
        match self.agg_of_me {
            Some(a) => {
                enc.put_bool(true);
                enc.put_u32(a);
            }
            None => enc.put_bool(false),
        }
        match &self.duty {
            Some(d) => {
                enc.put_bool(true);
                enc.put_u32(d.leaf_idx);
                enc.put_str(&d.file);
                put_aabb(&mut enc, &d.bounds);
                enc.put_u64(d.sources.len() as u64);
                for &(r, c) in &d.sources {
                    enc.put_u32(r);
                    enc.put_u64(c);
                }
            }
            None => enc.put_bool(false),
        }
        Bytes::from(enc.finish())
    }

    fn decode(data: &[u8]) -> WireResult<Assignment> {
        let mut dec = Decoder::new(data);
        let agg_of_me = if dec.get_bool("has agg")? {
            Some(dec.get_u32("agg rank")?)
        } else {
            None
        };
        let duty = if dec.get_bool("has duty")? {
            let leaf_idx = dec.get_u32("leaf idx")?;
            let file = dec.get_str("leaf file")?;
            let bounds = get_aabb(&mut dec)?;
            let ns = dec.get_usize("num sources")?;
            let mut sources = Vec::with_capacity(ns);
            for _ in 0..ns {
                let r = dec.get_u32("source rank")?;
                let c = dec.get_u64("source count")?;
                sources.push((r, c));
            }
            Some(LeafDuty {
                leaf_idx,
                file,
                bounds,
                sources,
            })
        } else {
            None
        };
        Ok(Assignment { agg_of_me, duty })
    }
}

/// Resolve an automatic target size (`target_file_bytes == 0`) from the
/// gathered rank population.
pub fn resolve_config(ranks: &[RankInfo], cfg: &WriteConfig) -> WriteConfig {
    let mut resolved = *cfg;
    if resolved.agg.target_file_bytes == 0 {
        let total: u64 = ranks
            .iter()
            .map(|r| r.particles * cfg.agg.bytes_per_particle)
            .sum();
        resolved.agg.target_file_bytes =
            bat_aggregation::recommended_target_size(total, ranks.len());
    }
    resolved
}

/// Build the aggregation tree for the chosen strategy (resolving an
/// automatic target size first).
pub fn build_tree(ranks: &[RankInfo], cfg: &WriteConfig) -> AggregationTree {
    let cfg = resolve_config(ranks, cfg);
    match cfg.strategy {
        Strategy::Adaptive => AggregationTree::build(ranks, &cfg.agg),
        Strategy::Aug => build_aug_tree(ranks, &cfg.agg),
    }
}

/// The leaf file name for a dataset `basename`.
pub fn leaf_file_name(basename: &str, leaf_idx: u32) -> String {
    format!("{basename}.{leaf_idx:05}.bat")
}

/// The metadata file name for a dataset `basename`.
pub fn meta_file_name(basename: &str) -> String {
    format!("{basename}.batmeta")
}

/// Collectively write a timestep. Every rank passes its local particles and
/// its bounds in the simulation domain; files land in `dir` under
/// `basename`. Returns the same [`WriteReport`] on every rank.
pub fn write_particles(
    comm: &dyn Comm,
    set: ParticleSet,
    bounds: Aabb,
    cfg: &WriteConfig,
    dir: &Path,
    basename: &str,
) -> io::Result<WriteReport> {
    write_particles_in_transit(comm, set, bounds, cfg, dir, basename, |_, _| {})
}

/// Durably write one leaf file with the commit protocol (DESIGN.md §11):
/// stream to a `.tmp` sibling through a [`CrcSectionWriter`] (per-section
/// CRC32C over the head and each treelet, plus the trailing footer), fsync,
/// and atomically rename into place. Returns the committed
/// `(file_len, whole_file_crc)` the metadata manifest records.
///
/// `torn` simulates a crash mid-write (injected by the `write.leaf`
/// failpoint): the first N bytes land in the `.tmp` file and the write
/// fails, so no committed file ever carries the torn bytes.
fn write_leaf_file(
    dir: &Path,
    file_name: &str,
    bat: &bat_layout::Bat,
    torn: Option<u64>,
) -> io::Result<(u64, u32)> {
    let tmp = dir.join(format!("{file_name}.tmp"));
    let committed = (|| -> io::Result<(u64, u32)> {
        let file = std::fs::File::create(&tmp)?;
        let writer = bat.writer();
        let ends = bat_layout::footer::bat_section_ends(&writer);
        let mut cw = CrcSectionWriter::new(io::BufWriter::new(file), ends);
        match torn {
            Some(n) => {
                let mut tw = bat_faults::TornWriter::new(&mut cw, n, "write.leaf");
                bat_obs::time("bat.compact_ns", || writer.write_to(&mut tw))?;
            }
            None => bat_obs::time("bat.compact_ns", || writer.write_to(&mut cw))?,
        }
        bat_obs::counter_add("bat.compact_bytes", writer.file_size() as u64);
        let (buf, _footer, total, crc) = cw.finish()?;
        let file = buf.into_inner().map_err(io::IntoInnerError::into_error)?;
        bat_faults::fire_io("write.leaf.sync")?;
        file.sync_all()?;
        bat_obs::counter_add("commit.fsyncs", 1);
        drop(file);
        std::fs::rename(&tmp, dir.join(file_name))?;
        fsync_dir(dir)?;
        Ok((total, crc))
    })();
    if committed.is_err() {
        // Best effort: a failed write must not leave a stray `.tmp` behind
        // for a later commit of the same name to trip on.
        let _ = std::fs::remove_file(&tmp);
    }
    committed
}

/// Fsync a directory so a just-renamed entry is durable — the rename only
/// becomes persistent once its directory does.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    std::fs::File::open(dir)?.sync_all()?;
    bat_obs::counter_add("commit.fsyncs", 1);
    Ok(())
}

/// A peer (or this rank) left the protocol: mark this rank dead so the
/// failure cascades to everyone blocked on us, and surface a clean error.
pub(crate) fn abandon(comm: &dyn Comm, stage: &str, e: CommError) -> io::Error {
    comm.mark_dead();
    let io: io::Error = e.into();
    io::Error::new(
        io.kind(),
        format!("collective operation abandoned during {stage}: {io}"),
    )
}

/// Send with bounded retry on injected transient failures.
///
/// The `write.shuffle.send` failpoint models a transient transport error:
/// each triggered `error` burns one attempt (exponential backoff, counted
/// in `write.retries`); `kill` dies in place. Exhausting the attempts
/// abandons the protocol like any other liveness failure.
fn send_with_retry(comm: &dyn Comm, dst: usize, tag: u32, payload: Bytes) -> io::Result<()> {
    const ATTEMPTS: u32 = 4;
    let mut backoff = std::time::Duration::from_millis(1);
    for attempt in 0..ATTEMPTS {
        match bat_faults::fire("write.shuffle.send") {
            None => {
                comm.isend(dst, tag, payload);
                return Ok(());
            }
            Some(Fault::Kill) => {
                comm.mark_dead();
                return Err(bat_faults::injected_error(
                    "write.shuffle.send",
                    "rank killed",
                ));
            }
            Some(_) if attempt + 1 < ATTEMPTS => {
                bat_obs::counter_add("write.retries", 1);
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            Some(_) => break,
        }
    }
    comm.mark_dead();
    Err(bat_faults::injected_error(
        "write.shuffle.send",
        "send failed after retries",
    ))
}

/// Why the metadata commit failed: a local I/O error (record it, finish
/// the protocol, err together) or an injected kill (abandon immediately —
/// the rank is "gone" and survivors must observe the death).
enum MetaAbort {
    Io(io::Error),
    Killed(io::Error),
}

/// Commit the top-level metadata (DESIGN.md §11): the MetaTree bytes with
/// the [`CommitManifest`] appended, written to a `.tmp` sibling, fsynced,
/// and renamed into place. The rename is the dataset's commit point —
/// before it there is no `.batmeta` and the dataset reads as uncommitted;
/// after it every leaf the manifest lists is durable and checksummed.
fn commit_meta(
    dir: &Path,
    basename: &str,
    meta: &MetaTree,
    files: Vec<ManifestEntry>,
) -> Result<(), MetaAbort> {
    let meta_bytes = meta.encode();
    let manifest = CommitManifest::new(&meta_bytes, files).encode(meta_bytes.len() as u64);
    let mut bytes = meta_bytes;
    bytes.extend_from_slice(&manifest);

    let name = meta_file_name(basename);
    let tmp = dir.join(format!("{name}.tmp"));
    match bat_faults::fire("write.meta") {
        Some(Fault::Kill) => {
            return Err(MetaAbort::Killed(bat_faults::injected_error(
                "write.meta",
                "rank killed before the metadata write",
            )))
        }
        Some(Fault::Error) => {
            return Err(MetaAbort::Io(bat_faults::injected_error(
                "write.meta",
                "metadata write failed",
            )))
        }
        Some(Fault::Torn(n)) => {
            // Crash mid-write: a torn prefix stays in the `.tmp` sibling,
            // which no reader ever opens — the dataset is uncommitted.
            let _ = std::fs::write(&tmp, &bytes[..bytes.len().min(n as usize)]);
            return Err(MetaAbort::Io(bat_faults::injected_error(
                "write.meta",
                "torn metadata write",
            )));
        }
        None => {}
    }
    let durable = (|| -> io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        bat_obs::counter_add("commit.fsyncs", 1);
        Ok(())
    })();
    if let Err(e) = durable {
        let _ = std::fs::remove_file(&tmp);
        return Err(MetaAbort::Io(e));
    }
    if let Some(Fault::Kill) = bat_faults::fire("write.meta.rename.before") {
        // Crash after the tmp is durable but before the commit point: the
        // dataset must read back as uncommitted (no `.batmeta` on disk).
        return Err(MetaAbort::Killed(bat_faults::injected_error(
            "write.meta.rename.before",
            "rank killed before the metadata rename",
        )));
    }
    let renamed = std::fs::rename(&tmp, dir.join(&name)).and_then(|()| fsync_dir(dir));
    if let Err(e) = renamed {
        let _ = std::fs::remove_file(&tmp);
        return Err(MetaAbort::Io(e));
    }
    if let Some(Fault::Kill) = bat_faults::fire("write.meta.rename.after") {
        // Crash after the commit point: survivors err (the collective never
        // finishes) but the dataset on disk is complete and verifies clean.
        return Err(MetaAbort::Killed(bat_faults::injected_error(
            "write.meta.rename.after",
            "rank killed after the metadata rename",
        )));
    }
    Ok(())
}

/// Decode the rank infos rank 0 gathered in phase 1.
fn decode_infos(blobs: &[Bytes]) -> WireResult<Vec<RankInfo>> {
    blobs
        .iter()
        .map(|b| RankInfo::decode(&mut Decoder::new(b)))
        .collect()
}

fn wire_io_err(stage: &str, err: Option<WireError>) -> io::Error {
    let msg = match err {
        Some(e) => format!("collective write aborted during {stage}: {e}"),
        None => format!(
            "collective write aborted during {stage}: a peer rank reported corrupt wire data"
        ),
    };
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// As [`write_particles`], additionally invoking `hook(leaf_index, &bat)`
/// on every aggregator once its BAT is built, *before* it is written — the
/// paper's in-transit visualization/analysis entry point (§III-C: "the
/// tree can be used for in transit visualization and analysis on the
/// aggregators before or instead of being written to disk").
///
/// Corrupt wire payloads and file-write failures never panic a rank:
/// errors are recorded, the protocol (sends, receives, and every trailing
/// collective) runs to completion so no healthy rank is left blocked, and
/// then all ranks return `Err` together.
pub fn write_particles_in_transit(
    comm: &dyn Comm,
    set: ParticleSet,
    bounds: Aabb,
    cfg: &WriteConfig,
    dir: &Path,
    basename: &str,
    mut hook: impl FnMut(u32, &bat_layout::Bat),
) -> io::Result<WriteReport> {
    // Spin up the execution engine before timing starts, honoring
    // `BAT_THREADS` (see README "Thread count"): first touch initializes
    // the pool from the env, and the gauge records what the BAT builds
    // below will actually run with.
    bat_obs::gauge_set("pool.threads", rayon::current_num_threads() as f64);

    let descs = set.descs_arc();
    let mut times = PhaseTimes::new();
    // Bounded entry barrier: a peer that died before the collective even
    // started (or a lost barrier message under a receive deadline) must
    // surface as `Err`, never a panic or a hang (DESIGN.md §11).
    comm.try_barrier()
        .map_err(|e| abandon(comm, "entry barrier", e))?;
    let t_start = Instant::now();

    // --- Phase 1: gather rank infos; rank 0 builds the tree (§III-A). ---
    let t0 = Instant::now();
    let info = RankInfo::new(comm.rank() as u32, bounds, set.len() as u64);
    let mut enc = Encoder::new();
    info.encode(&mut enc);
    let gathered = comm
        .try_gather(0, Bytes::from(enc.finish()))
        .map_err(|e| abandon(comm, "bounds gather", e))?;
    bat_obs::observe_duration("write.gather_bounds_ns", t0.elapsed());

    let t_tree = Instant::now();
    let mut setup_err: Option<WireError> = None;
    let assignment_bytes = if comm.rank() == 0 {
        match decode_infos(&gathered.expect("root gathers")) {
            Ok(infos) => {
                let mut tree = build_tree(&infos, cfg);
                assign_aggregators(&mut tree.leaves, comm.size());

                // Build per-rank assignments.
                let mut assignments: Vec<Assignment> = vec![Assignment::default(); comm.size()];
                for (li, leaf) in tree.leaves.iter().enumerate() {
                    let duty = LeafDuty {
                        leaf_idx: li as u32,
                        file: leaf_file_name(basename, li as u32),
                        bounds: leaf.bounds,
                        sources: leaf
                            .ranks
                            .iter()
                            .map(|&r| (r, infos[r as usize].particles))
                            .collect(),
                    };
                    for &(r, _) in &duty.sources {
                        assignments[r as usize].agg_of_me = Some(leaf.aggregator);
                    }
                    assignments[leaf.aggregator as usize].duty = Some(duty);
                }
                Some(
                    assignments
                        .iter()
                        .map(Assignment::encode)
                        .collect::<Vec<_>>(),
                )
            }
            Err(e) => {
                // Scatter well-formed empty assignments; the agreement
                // collective below turns this into an error on every rank.
                setup_err = Some(e);
                Some(vec![Assignment::default().encode(); comm.size()])
            }
        }
    } else {
        None
    };
    if comm.rank() == 0 {
        bat_obs::observe_duration("write.agg_tree_build_ns", t_tree.elapsed());
    }
    times[WritePhase::TreeBuild] = t0.elapsed().as_secs_f64();

    // --- Phase 2: scatter assignments. ---
    let t0 = Instant::now();
    let mine = comm
        .try_scatter(0, assignment_bytes)
        .map_err(|e| abandon(comm, "assignment scatter", e))?;
    let assignment = match Assignment::decode(&mine) {
        Ok(a) => a,
        Err(e) => {
            setup_err.get_or_insert(e);
            Assignment::default()
        }
    };
    // Agreement: every rank learns whether any rank failed setup. Erring
    // together here (before any data flows) keeps phase 3's sends and
    // receives matched on the surviving ranks.
    let abort = comm
        .try_allreduce_u64(setup_err.is_some() as u64, &|a, b| a | b)
        .map_err(|e| abandon(comm, "setup agreement", e))?
        != 0;
    if abort {
        return Err(wire_io_err("setup", setup_err));
    }
    let el = t0.elapsed();
    bat_obs::observe_duration("write.scatter_ns", el);
    times[WritePhase::Scatter] = el.as_secs_f64();

    // --- Phase 3: transfer particles to aggregators (§III-B). ---
    let t0 = Instant::now();
    let my_bytes = set.raw_bytes() as u64;
    let mut local_io: Option<io::Error> = None;
    if let Some(agg) = assignment.agg_of_me {
        let payload = ColumnarParticles::encode_frame(&set);
        bat_obs::counter_add("write.shuffle.send_bytes", payload.len() as u64);
        bat_obs::counter_add("write.shuffle.send_msgs", 1);
        send_with_retry(comm, agg as usize, TAG_DATA, payload)?;
    }
    // Aggregators receive from every source (self-sends included above).
    // Each frame stays a zero-copy columnar view over the message body;
    // the single merge below is the only copy on the receive side.
    let mut received: Option<ParticleSet> = None;
    let mut agg_err: Option<WireError> = None;
    if let Some(duty) = &assignment.duty {
        // An aggregator dying here is a *liveness* fault: mark this rank
        // dead and abandon at once so peers observe the death through
        // their own bounded receives instead of a half-run protocol.
        match bat_faults::fire("write.shuffle.recv") {
            Some(Fault::Kill) => {
                comm.mark_dead();
                return Err(bat_faults::injected_error(
                    "write.shuffle.recv",
                    "rank killed",
                ));
            }
            Some(_) => {
                local_io.get_or_insert(bat_faults::injected_error(
                    "write.shuffle.recv",
                    "receive failed",
                ));
            }
            None => {}
        }
        let mut views = Vec::with_capacity(duty.sources.len());
        for &(src, count) in &duty.sources {
            // Consume the message even after an earlier source failed so
            // no payload is left queued for a later collective to trip on.
            let msg = match comm.recv_bounded(Some(src as usize), TAG_DATA) {
                Ok(m) => m,
                Err(e) => return Err(abandon(comm, "particle shuffle", e)),
            };
            bat_obs::counter_add("write.shuffle.recv_bytes", msg.payload.len() as u64);
            bat_obs::counter_add("write.shuffle.recv_msgs", 1);
            match ColumnarParticles::parse_frame(&msg.block()) {
                Ok(view) if view.len() as u64 == count => views.push(view),
                Ok(view) => {
                    agg_err.get_or_insert(WireError::BadLength {
                        what: "shuffled particle count",
                        len: view.len() as u64,
                        remaining: count as usize,
                    });
                }
                Err(e) => {
                    agg_err.get_or_insert(e);
                }
            }
        }
        if agg_err.is_none() {
            match ColumnarParticles::concat_owned(descs.clone(), &views) {
                Ok(merged) => received = Some(merged),
                Err(e) => {
                    agg_err.get_or_insert(e);
                }
            }
        }
    }
    let el = t0.elapsed();
    bat_obs::observe_duration("write.shuffle_ns", el);
    times[WritePhase::Transfer] = el.as_secs_f64();

    // --- Phase 4: build the layout on each aggregator (§III-C). ---
    let t0 = Instant::now();
    let mut compacted: Option<bat_layout::Bat> = None;
    let mut report: Option<LeafReport> = None;
    if let (Some(duty), Some(merged)) = (&assignment.duty, received.take()) {
        let particles = merged.len() as u64;
        let bat = BatBuilder::new(cfg.bat).build(merged, duty.bounds);
        hook(duty.leaf_idx, &bat);
        report = Some(LeafReport {
            file: duty.file.clone(),
            bounds: duty.bounds,
            particles,
            aggregator: comm.rank() as u32,
            local_ranges: bat.attr_ranges.clone(),
            local_bitmaps: (0..bat.descs().len()).map(|a| bat.root_bitmap(a)).collect(),
            // Filled in by phase 5 once the file is committed.
            file_len: 0,
            file_crc: 0,
        });
        compacted = Some(bat);
    }
    let el = t0.elapsed();
    if assignment.duty.is_some() {
        bat_obs::observe_duration("write.layout_build_ns", el);
    }
    times[WritePhase::LayoutBuild] = el.as_secs_f64();

    // --- Phase 5: write leaf files, streamed head first, then treelet by
    // treelet (never materializing the file in memory). ---
    let t0 = Instant::now();
    if let (Some(bat), Some(duty)) = (&compacted, &assignment.duty) {
        let mut injected = false;
        let torn = match bat_faults::fire("write.leaf") {
            Some(Fault::Kill) => {
                comm.mark_dead();
                return Err(bat_faults::injected_error("write.leaf", "rank killed"));
            }
            Some(Fault::Error) => {
                injected = true;
                None
            }
            Some(Fault::Torn(n)) => Some(n),
            None => None,
        };
        let written = if injected {
            Err(bat_faults::injected_error(
                "write.leaf",
                "leaf write failed",
            ))
        } else {
            write_leaf_file(dir, &duty.file, bat, torn)
        };
        match written {
            Ok((len, crc)) => {
                bat_obs::counter_add("write.file.bytes", len);
                bat_obs::counter_add("write.file.count", 1);
                bat_obs::observe_duration("write.file_write_ns", t0.elapsed());
                if let Some(r) = report.as_mut() {
                    r.file_len = len;
                    r.file_crc = crc;
                }
            }
            Err(e) => {
                report = None; // the leaf is not on disk; don't advertise it
                local_io.get_or_insert(e);
            }
        }
    }
    times[WritePhase::FileWrite] = t0.elapsed().as_secs_f64();

    // --- Phase 6: gather leaf reports; rank 0 writes metadata (§III-D). ---
    let t0 = Instant::now();
    // Report status: 0 = not an aggregator, 1 = report follows, 2 = this
    // aggregator failed (corrupt frame or file-write error).
    let failed = agg_err.is_some() || local_io.is_some();
    let payload = {
        let mut enc = Encoder::new();
        match &report {
            _ if failed => enc.put_u8(2),
            Some(r) => {
                enc.put_u8(1);
                r.encode(&mut enc);
            }
            None => enc.put_u8(0),
        }
        Bytes::from(enc.finish())
    };
    let reports = comm
        .try_gather(0, payload)
        .map_err(|e| abandon(comm, "report gather", e))?;
    let mut meta_summary: Option<(usize, BalanceStats)> = None;
    let mut root_err: Option<WireError> = None;
    if comm.rank() == 0 {
        let mut leaf_reports = Vec::new();
        for b in reports.expect("root gathers") {
            let mut dec = Decoder::new(&b);
            match dec.get_u8("report status") {
                Ok(0) => {}
                Ok(1) => match LeafReport::decode(&mut dec) {
                    Ok(r) => leaf_reports.push(r),
                    Err(e) => {
                        root_err.get_or_insert(e);
                    }
                },
                Ok(tag) => {
                    root_err.get_or_insert(WireError::BadTag {
                        what: "leaf report status",
                        tag: tag as u64,
                    });
                }
                Err(e) => {
                    root_err.get_or_insert(e);
                }
            }
        }
        if root_err.is_none() {
            // Order leaves by index for stable metadata.
            leaf_reports.sort_by(|a, b| a.file.cmp(&b.file));
            let balance = balance_from_reports(&leaf_reports, cfg.agg.bytes_per_particle);
            let files = leaf_reports.len();
            let entries: Vec<ManifestEntry> = leaf_reports
                .iter()
                .map(|r| ManifestEntry {
                    file: r.file.clone(),
                    len: r.file_len,
                    crc: r.file_crc,
                })
                .collect();
            let meta = MetaTree::build(descs.to_vec(), leaf_reports);
            match commit_meta(dir, basename, &meta, entries) {
                Ok(()) => meta_summary = Some((files, balance)),
                Err(MetaAbort::Io(e)) => {
                    local_io.get_or_insert(e);
                }
                Err(MetaAbort::Killed(e)) => {
                    comm.mark_dead();
                    return Err(e);
                }
            }
        }
    }
    let el = t0.elapsed();
    bat_obs::observe_duration("write.metadata_ns", el);
    times[WritePhase::Metadata] = el.as_secs_f64();
    times.total = t_start.elapsed().as_secs_f64();
    bat_obs::observe_duration("write.total_ns", t_start.elapsed());
    bat_obs::counter_add("write.particles", set.len() as u64);

    // --- Merge the report across ranks so every rank returns the same. ---
    // These trailing collectives always run, error or not: every rank that
    // got here is still in the protocol, and skipping one would strand
    // peers. They are bounded, though — if a peer died mid-pipeline they
    // err on every survivor instead of hanging, and any local error
    // recorded above takes precedence in the returned report.
    let finalize = (|| -> Result<_, CommError> {
        let bytes_total = comm.try_allreduce_u64(my_bytes, &|a, b| a + b)?;
        let merged_times = try_reduce_times(comm, &times)?;
        let summary = try_broadcast_summary(comm, meta_summary)?;
        Ok((bytes_total, merged_times, summary))
    })();
    let (bytes_total, merged_times, summary) = match finalize {
        Ok(v) => v,
        Err(e) => {
            let ab = abandon(comm, "finalize", e);
            return Err(local_io.unwrap_or(ab));
        }
    };

    if let Some(e) = local_io {
        return Err(e);
    }
    if let Some(e) = agg_err.or(root_err) {
        return Err(wire_io_err("aggregation", Some(e)));
    }
    let Some((files, balance)) = summary else {
        return Err(wire_io_err("aggregation", None));
    };
    Ok(WriteReport {
        times: merged_times,
        balance,
        files,
        bytes_total,
    })
}

/// Max-merge phase times across ranks and broadcast the result. Bounded:
/// a dead peer errs the merge instead of hanging the trailing collective.
pub(crate) fn try_reduce_times(
    comm: &dyn Comm,
    times: &PhaseTimes,
) -> Result<PhaseTimes, CommError> {
    let mut enc = Encoder::new();
    for p in WritePhase::ALL {
        enc.put_f64(times[p]);
    }
    enc.put_f64(times.total);
    let gathered = comm.try_gather(0, Bytes::from(enc.finish()))?;
    let merged_bytes = if comm.rank() == 0 {
        let mut merged = PhaseTimes::new();
        for b in gathered.expect("root gathers") {
            let mut dec = Decoder::new(&b);
            let mut pt = PhaseTimes::new();
            for p in WritePhase::ALL {
                pt[p] = dec.get_f64("phase time").expect("valid time");
            }
            pt.total = dec.get_f64("total time").expect("valid total");
            merged.max_merge(&pt);
        }
        let mut enc = Encoder::new();
        for p in WritePhase::ALL {
            enc.put_f64(merged[p]);
        }
        enc.put_f64(merged.total);
        Some(Bytes::from(enc.finish()))
    } else {
        None
    };
    let out = comm.try_bcast(0, merged_bytes)?;
    let mut dec = Decoder::new(&out);
    let mut pt = PhaseTimes::new();
    for p in WritePhase::ALL {
        pt[p] = dec.get_f64("merged phase").expect("valid merged");
    }
    pt.total = dec.get_f64("merged total").expect("valid merged total");
    Ok(pt)
}

fn balance_from_reports(reports: &[LeafReport], bpp: u64) -> BalanceStats {
    let leaves: Vec<bat_aggregation::AggLeaf> = reports
        .iter()
        .map(|r| bat_aggregation::AggLeaf {
            ranks: Vec::new(),
            bounds: r.bounds,
            particles: r.particles,
            bytes: r.particles * bpp,
            aggregator: r.aggregator,
        })
        .collect();
    bat_aggregation::tree::balance_of(&leaves)
}

/// Broadcast rank 0's `(files, balance)` summary, or its absence when the
/// metadata step failed; `Ok(None)` tells every rank to report the abort.
fn try_broadcast_summary(
    comm: &dyn Comm,
    summary: Option<(usize, BalanceStats)>,
) -> Result<Option<(usize, BalanceStats)>, CommError> {
    let payload = (comm.rank() == 0).then(|| {
        let mut enc = Encoder::new();
        match summary {
            Some((files, b)) => {
                enc.put_u8(1);
                enc.put_u64(files as u64);
                enc.put_u64(b.num_files as u64);
                enc.put_f64(b.mean_bytes);
                enc.put_f64(b.stddev_bytes);
                enc.put_u64(b.max_bytes);
                enc.put_u64(b.min_bytes);
            }
            None => enc.put_u8(0),
        }
        Bytes::from(enc.finish())
    });
    let out = comm.try_bcast(0, payload)?;
    let mut dec = Decoder::new(&out);
    if dec.get_u8("summary status").expect("valid summary") == 0 {
        return Ok(None);
    }
    let files = dec.get_u64("files").expect("valid summary") as usize;
    let balance = BalanceStats {
        num_files: dec.get_u64("num files").expect("valid") as usize,
        mean_bytes: dec.get_f64("mean").expect("valid"),
        stddev_bytes: dec.get_f64("stddev").expect("valid"),
        max_bytes: dec.get_u64("max").expect("valid"),
        min_bytes: dec.get_u64("min").expect("valid"),
    };
    Ok(Some((files, balance)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_geom::Vec3;

    #[test]
    fn rank_info_decode_errors_are_propagated_not_panicked() {
        // A well-formed gather round-trips.
        let info = RankInfo::new(3, Aabb::unit(), 42);
        let mut enc = Encoder::new();
        info.encode(&mut enc);
        let good = Bytes::from(enc.finish());
        let infos = decode_infos(std::slice::from_ref(&good)).expect("valid rank info decodes");
        assert_eq!(infos[0].particles, 42);

        // Any corrupt entry fails the whole decode with Err, never a panic.
        assert!(decode_infos(&[Bytes::copy_from_slice(b"junk")]).is_err());
        assert!(decode_infos(&[good.clone(), Bytes::new()]).is_err());
        let truncated = Bytes::copy_from_slice(&good[..good.len() / 2]);
        assert!(decode_infos(&[truncated]).is_err());
    }

    #[test]
    fn assignment_decode_rejects_garbage() {
        let duty = LeafDuty {
            leaf_idx: 7,
            file: leaf_file_name("ts", 7),
            bounds: Aabb::new(Vec3::ZERO, Vec3::ONE),
            sources: vec![(0, 10), (3, 20)],
        };
        let a = Assignment {
            agg_of_me: Some(2),
            duty: Some(duty),
        };
        let bytes = a.encode();
        let back = Assignment::decode(&bytes).unwrap();
        assert_eq!(back.agg_of_me, Some(2));
        let d = back.duty.expect("duty survives");
        assert_eq!(d.leaf_idx, 7);
        assert_eq!(d.sources, vec![(0, 10), (3, 20)]);

        assert!(Assignment::decode(b"\xff\xff\xff").is_err());
        assert!(Assignment::decode(&bytes[..bytes.len() - 3]).is_err());
    }
}
