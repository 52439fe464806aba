//! The executed two-phase parallel read pipeline (paper §IV, Fig. 3).
//!
//! Checkpoint-restart reads mirror the two-phase write: every rank parses
//! the top-level metadata, a deterministic subset of ranks becomes *read
//! aggregators* (each responsible for a set of leaf files), and each rank
//! requests the particles overlapping its bounds from the aggregators of
//! the leaves it overlaps.
//!
//! Because an aggregator may need data served by another aggregator, the
//! transfer runs as a client/server loop over nonblocking operations: a
//! rank serves incoming queries, collects its own replies, then enters a
//! nonblocking barrier and *keeps serving* until the barrier completes —
//! the paper's `MPI_Ibarrier` termination protocol (§IV-B). Queries a rank
//! would send to itself are answered locally after the loop.
//!
//! A checkpoint read is the bounds-only case of a distributed query, so
//! [`read_particles`] and [`query_distributed`] are entry points over one
//! collective loop and one responder.

use bat_aggregation::assign::assign_read_aggregators;
use bat_comm::Comm;
use bat_geom::Aabb;
use bat_iosim::{PhaseTimes, WritePhase};
use bat_layout::{BatFile, ColumnarParticles, ParticleSet, Query};
use bat_wire::{Decoder, Encoder};
use bytes::Bytes;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Tag for queries to read aggregators.
const TAG_QUERY: u32 = 2;
/// Tag for query replies.
const TAG_REPLY: u32 = 3;

/// Result of a collective read on one rank.
#[derive(Debug, Clone)]
pub struct ReadReport {
    /// Particles overlapping the caller's bounds.
    pub particles: ParticleSet,
    /// Slowest-rank component times (Transfer = query/reply traffic,
    /// FileWrite slot holds file-read time, Metadata = metadata parse).
    pub times: PhaseTimes,
}

/// Collectively read back every particle overlapping `bounds` from the
/// dataset `basename` in `dir`. Works for any rank count relative to the
/// writing run (paper §IV-A).
pub fn read_particles(
    comm: &dyn Comm,
    bounds: Aabb,
    dir: &Path,
    basename: &str,
) -> io::Result<ParticleSet> {
    Ok(read_particles_timed(comm, bounds, dir, basename)?.particles)
}

/// As [`read_particles`], returning per-phase timings as well. A
/// checkpoint read *is* a distributed query for `bounds`, bracketed by an
/// entry barrier and the slowest-rank time reduction.
pub fn read_particles_timed(
    comm: &dyn Comm,
    bounds: Aabb,
    dir: &Path,
    basename: &str,
) -> io::Result<ReadReport> {
    // Bounded entry barrier, same rationale as the write pipeline: dead
    // peers err cleanly instead of panicking the collective.
    comm.try_barrier()
        .map_err(|e| crate::write::abandon(comm, "read entry barrier", e))?;
    let t_start = Instant::now();
    let mut times = PhaseTimes::new();
    let q = Query::new().with_bounds(bounds);
    let (particles, reply_err) = collective_query(comm, &q, dir, basename, &mut times)?;
    times.total = t_start.elapsed().as_secs_f64();

    // Run the trailing collective before reporting any reply error so
    // healthy ranks are never left waiting on this one. A reply error
    // still takes precedence over a collective failure: it names the
    // root cause on this rank.
    let merged = crate::write::try_reduce_times(comm, &times);
    if let Some(e) = reply_err {
        return Err(io::Error::new(io::ErrorKind::InvalidData, e));
    }
    let merged = merged.map_err(|e| crate::write::abandon(comm, "read finalize", e))?;
    Ok(ReadReport {
        particles,
        times: merged,
    })
}

/// Collectively run an arbitrary [`Query`] against a written dataset — the
/// paper's distributed in situ analytics path (§IV-B: "This query mechanism
/// can also be leveraged to enable distributed data access for in situ
/// analytics").
///
/// Every rank passes its *own* query (different ranks may ask different
/// questions); the metadata tree culls candidate leaf files by bounds and
/// global bitmaps, read aggregators resolve each query against their files
/// (including progressive quality levels), and the union of the per-file
/// results returns to the asking rank. Termination uses the same
/// nonblocking-barrier server loop as checkpoint reads.
pub fn query_distributed(
    comm: &dyn Comm,
    q: &Query,
    dir: &Path,
    basename: &str,
) -> io::Result<ParticleSet> {
    match collective_query(comm, q, dir, basename, &mut PhaseTimes::new())? {
        (_, Some(e)) => Err(io::Error::new(io::ErrorKind::InvalidData, e)),
        (particles, None) => Ok(particles),
    }
}

/// The collective read every entry point runs: parse the metadata, open
/// the files this rank aggregates, fan `q` out to the owners of its
/// candidate leaves, and serve peers until the nonblocking barrier
/// completes. Returns the gathered particles plus the first corrupt reply
/// or failed local read, if any — recorded rather than returned early so
/// the protocol (and any trailing collective of the caller) still runs to
/// completion and the error surfaces on this rank without hanging the
/// others.
fn collective_query(
    comm: &dyn Comm,
    q: &Query,
    dir: &Path,
    basename: &str,
    times: &mut PhaseTimes,
) -> io::Result<(ParticleSet, Option<bat_wire::WireError>)> {
    // --- Phase 1: all ranks read the metadata (Fig. 3a). ---
    let t0 = Instant::now();
    let crate::verify::Commit { meta, manifest } = crate::verify::read_commit(dir, basename)?;
    // Reject malformed queries before any traffic is generated; silently
    // matching nothing would look identical to an honest empty result.
    let q = &q
        .clone()
        .validated(meta.descs.len())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let num_files = meta.leaves.len();
    let file_owner = assign_read_aggregators(num_files, comm.size());
    times[WritePhase::Metadata] = t0.elapsed().as_secs_f64();

    // --- Phase 2: open the files I aggregate (Fig. 3a). A leaf that is
    // missing or no longer its committed length is recorded, not returned:
    // peers asking for it get an invalid reply and the loop still ends. ---
    let t0 = Instant::now();
    let mut reply_err: Option<bat_wire::WireError> = None;
    let mut open_files: HashMap<u32, BatFile> = HashMap::new();
    for l in (0..num_files as u32).filter(|&l| file_owner[l as usize] == comm.rank() as u32) {
        let entry = &manifest.files[l as usize];
        match BatFile::open(dir.join(&entry.file))
            .and_then(|f| crate::verify::committed_leaf(f, entry))
        {
            Ok(file) => {
                open_files.insert(l, file);
            }
            Err(e) => {
                reply_err.get_or_insert(bat_wire::WireError::Io {
                    what: "read aggregator leaf",
                    message: e.to_string(),
                });
            }
        }
    }
    times[WritePhase::FileWrite] = t0.elapsed().as_secs_f64();

    // --- Phase 3: metadata-level culling, then request the candidate
    // leaves from their owners (Fig. 3b, c). ---
    let t0 = Instant::now();
    let wanted = meta
        .candidate_leaves(q)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut local_leaves: Vec<u32> = Vec::new();
    let mut outstanding = 0usize;
    for &l in &wanted {
        let owner = file_owner[l as usize] as usize;
        if owner == comm.rank() {
            local_leaves.push(l);
        } else {
            let mut enc = Encoder::new();
            enc.put_u32(l);
            q.encode(&mut enc);
            comm.isend(owner, TAG_QUERY, Bytes::from(enc.finish()));
            outstanding += 1;
        }
    }

    // Client/server loop with ibarrier termination (§IV-B). Liveness is
    // bounded: a dead peer is noticed between polls, and with a configured
    // receive timeout the whole loop carries a deadline (DESIGN.md §11).
    let mut result = ParticleSet::new(meta.descs.clone());
    let mut barrier: Option<bat_comm::IBarrier> = None;
    let deadline = comm.timeout().map(|t| Instant::now() + 4 * t);
    // Serve one incoming query if present.
    let serve_pending = || {
        let pending = comm.iprobe(None, TAG_QUERY).is_some();
        if pending {
            let msg = comm.recv(None, TAG_QUERY);
            comm.isend(msg.src, TAG_REPLY, serve_query(&open_files, &msg.payload));
        }
        pending
    };
    loop {
        check_liveness(comm, deadline)?;
        serve_pending();
        // Collect one reply if present: parse the columnar frame zero-copy
        // out of the message and bulk-append it.
        if outstanding > 0 && comm.iprobe(None, TAG_REPLY).is_some() {
            let msg = comm.recv(None, TAG_REPLY);
            if let Err(e) = ColumnarParticles::parse_frame(&msg.block())
                .and_then(|view| result.extend_from_columns(&view))
            {
                reply_err.get_or_insert(e);
            }
            outstanding -= 1;
        }
        // Once all replies are in, enter the nonblocking barrier; keep
        // serving until it completes.
        if outstanding == 0 && barrier.get_or_insert_with(|| comm.ibarrier()).test() {
            break;
        }
        std::thread::yield_now();
    }
    // Drain any stragglers (none should exist after the barrier, but a
    // query sent just before a peer's barrier entry may still be queued).
    while serve_pending() {}
    times[WritePhase::Transfer] = t0.elapsed().as_secs_f64();

    // --- Phase 4: local queries against my own files (§IV-B); one that
    // failed to open already recorded its error. ---
    let t0 = Instant::now();
    for file in local_leaves.iter().filter_map(|l| open_files.get(l)) {
        if let Err(e) = file.query(q, |p| result.push(p.position, p.attrs)) {
            reply_err.get_or_insert(e);
        }
    }
    times[WritePhase::LayoutBuild] = t0.elapsed().as_secs_f64();
    Ok((result, reply_err))
}

/// Fail the server loop when a peer has died or the loop deadline passed:
/// mark this rank dead (cascading the failure to anyone blocked on it)
/// and return a clean error instead of spinning forever.
fn check_liveness(comm: &dyn Comm, deadline: Option<Instant>) -> io::Result<()> {
    if let Some(dead) = (0..comm.size()).find(|&r| r != comm.rank() && comm.is_dead(r)) {
        comm.mark_dead();
        return Err(io::Error::new(
            io::ErrorKind::BrokenPipe,
            format!("read server loop abandoned: rank {dead} died"),
        ));
    }
    if deadline.is_some_and(|d| Instant::now() > d) {
        comm.mark_dead();
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "read server loop abandoned: deadline exceeded",
        ));
    }
    Ok(())
}

/// Answer one query message (`leaf`, then [`Query::encode`]) against the
/// served files.
///
/// A malformed query or an unservable/corrupt leaf yields an intentionally
/// empty (invalid) reply frame, which the requester records as a reply
/// error — the protocol still completes and no rank panics on untrusted
/// bytes (DESIGN.md §11).
fn serve_query(open_files: &HashMap<u32, BatFile>, payload: &[u8]) -> Bytes {
    let reply = || -> bat_wire::WireResult<Bytes> {
        let mut dec = Decoder::new(payload);
        let leaf = dec.get_u32("query leaf")?;
        let q = Query::decode(&mut dec)?;
        let file = open_files.get(&leaf).ok_or(bat_wire::WireError::BadTag {
            what: "query for a leaf this rank does not serve",
            tag: leaf as u64,
        })?;
        let mut out = ParticleSet::new(file.head().descs.clone());
        file.query(&q, |p| out.push(p.position, p.attrs))?;
        Ok(ColumnarParticles::encode_frame(&out))
    };
    reply().unwrap_or_default()
}
