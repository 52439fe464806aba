//! Shard supervision: heartbeats, death detection, and respawn
//! (DESIGN.md §16).
//!
//! The supervisor runs next to the router on rank 0 and pings every
//! shard rank each `BAT_SHARD_HEARTBEAT_MS`. A shard counts as lost when
//! it misses `BAT_SHARD_MISSED_BEATS` consecutive pongs or its rank is
//! already marked dead (`PeerDead` propagated by the transport). Lost
//! shards are handed to a caller-supplied respawn callback — typically
//! "SIGKILL the stale process if any, spawn a fresh `batcli shard-worker`
//! with the same star-topology spec" — and the fresh incarnation rejoins
//! through the hub's retained listener, which clears the dead flag and
//! re-admits it to the mesh.
//!
//! Supervision is deliberately decoupled from query routing: a respawn
//! triggered by a slow-but-alive worker (a false positive) is safe,
//! because the router's replica failover independently covers any query
//! the restart interrupts.

use crate::shard::{decode_heartbeat, encode_heartbeat, HB_PING, HB_PONG, TAG_HEARTBEAT};
use bat_comm::Comm;
use bat_obs::knobs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Heartbeat cadence and tolerance.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Ping interval (`BAT_SHARD_HEARTBEAT_MS`, default 500 ms).
    pub interval: Duration,
    /// Consecutive missed pongs before a live-but-silent shard is
    /// declared lost (`BAT_SHARD_MISSED_BEATS`, default 4).
    pub missed_beats: u32,
}

impl SupervisorConfig {
    pub fn from_env() -> SupervisorConfig {
        let ms = knobs::SHARD_HEARTBEAT_MS.uint().unwrap_or(500);
        let beats = knobs::SHARD_MISSED_BEATS.uint().unwrap_or(4);
        SupervisorConfig {
            interval: Duration::from_millis(ms),
            missed_beats: beats.min(u32::MAX as u64) as u32,
        }
    }
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig::from_env()
    }
}

/// Handle to a running supervision thread; stops (and joins) on
/// [`Supervisor::stop`] or drop.
pub struct Supervisor {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Supervisor {
    /// Signal the heartbeat loop to exit and wait for it.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            t.join().ok();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Start supervising the shard ranks behind `comm` (a clone of the
/// router rank's communicator). `respawn(shard)` is invoked — off the
/// router's query path, on the supervision thread — whenever shard
/// `shard` (0-based) is lost; it should replace the process and return
/// once the replacement has been launched (the rejoin itself is
/// asynchronous). After a respawn the shard gets a full tolerance window
/// to come back before being declared lost again.
///
/// Emits `shard.heartbeat.missed` per silent round and `shard.respawn`
/// per replacement. The `shard.respawn` failpoint can suppress a
/// replacement cycle (`error`) to exercise supervisor retry.
pub fn supervise(
    comm: Box<dyn Comm>,
    cfg: SupervisorConfig,
    mut respawn: impl FnMut(usize) -> std::io::Result<()> + Send + 'static,
) -> Supervisor {
    assert_eq!(
        comm.rank(),
        crate::shard::ROUTER_RANK,
        "the supervisor runs on the router rank"
    );
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let shards = comm.size() - 1;
    let thread = std::thread::Builder::new()
        .name("bat-shard-sup".into())
        .spawn(move || {
            let mut missed = vec![0u32; shards];
            // Rounds to hold off after a respawn, giving the fresh
            // incarnation time to dial back in before re-counting.
            let mut grace = vec![0u32; shards];
            let mut seq = 0u64;
            while !stop2.load(Ordering::Acquire) {
                seq += 1;
                for s in 0..shards {
                    if !comm.is_dead(1 + s) {
                        comm.isend(1 + s, TAG_HEARTBEAT, encode_heartbeat(HB_PING, seq));
                    }
                }
                // Collect pongs for one interval.
                let round_end = Instant::now() + cfg.interval;
                let mut ponged = vec![false; shards];
                loop {
                    let left = round_end.saturating_duration_since(Instant::now());
                    if left.is_zero() || stop2.load(Ordering::Acquire) {
                        break;
                    }
                    match comm.recv_timeout(None, TAG_HEARTBEAT, left) {
                        Ok(m) => {
                            if let Some((HB_PONG, _)) = decode_heartbeat(&m.payload) {
                                if (1..=shards).contains(&m.src) {
                                    ponged[m.src - 1] = true;
                                }
                            }
                        }
                        Err(_) => break,
                    }
                }
                if stop2.load(Ordering::Acquire) {
                    break;
                }
                for s in 0..shards {
                    let dead = comm.is_dead(1 + s);
                    if !dead && ponged[s] {
                        missed[s] = 0;
                        grace[s] = 0;
                        continue;
                    }
                    if grace[s] > 0 {
                        grace[s] -= 1;
                        continue;
                    }
                    if !dead {
                        missed[s] += 1;
                        bat_obs::counter_add("shard.heartbeat.missed", 1);
                    }
                    if dead || missed[s] >= cfg.missed_beats {
                        // Failpoint: a respawn that fails to launch; the
                        // supervisor retries next round.
                        if bat_faults::fire("shard.respawn").is_some() {
                            continue;
                        }
                        bat_obs::counter_add("shard.respawn", 1);
                        if respawn(s).is_ok() {
                            missed[s] = 0;
                            grace[s] = cfg.missed_beats.max(2);
                        }
                    }
                }
            }
        })
        .expect("spawn supervisor thread");
    Supervisor {
        stop,
        thread: Some(thread),
    }
}
