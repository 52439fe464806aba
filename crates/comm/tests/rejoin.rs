//! Star-topology membership: a crashed-and-restarted rank must be able
//! to rejoin the fabric through the hub's retained listener, and the
//! connect path must survive the startup races a supervisor creates
//! (dialing before the peer listens, or into a resetting predecessor).

use bat_comm::{Cluster, ClusterConfig, Comm, CommError};
use bytes::Bytes;
use std::time::{Duration, Instant};

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bat-rejoin-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create socket dir");
    dir
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A spoke announces death, departs, reconnects as a fresh incarnation,
/// and the hub re-admits it: the dead flag clears and traffic flows both
/// ways again, without disturbing the other spoke.
#[test]
fn star_spoke_rejoins_after_death() {
    let dir = fresh_dir("star");
    let cfg = ClusterConfig::unix_in_dir(&dir, 3).star();

    // The hub blocks in connect until both spokes dial in.
    let hub_cfg = cfg.with_rank(0);
    let hub = std::thread::spawn(move || Cluster::connect(&hub_cfg).expect("hub connect"));
    let comm1 = Cluster::connect(&cfg.with_rank(1)).expect("spoke 1 connect");
    let comm2 = Cluster::connect(&cfg.with_rank(2)).expect("spoke 2 connect");
    let comm0 = hub.join().expect("hub thread");

    comm1.isend(0, 7, Bytes::copy_from_slice(b"first life"));
    let m = comm0
        .recv_timeout(Some(1), 7, Duration::from_secs(5))
        .expect("pre-crash msg");
    assert_eq!(&m.payload[..], b"first life");

    // Crash: announce death (the PeerDead the router/supervisor would
    // observe), then tear the connection down.
    comm1.mark_dead();
    wait_until("hub to observe spoke 1 death", || comm0.is_dead(1));
    comm1.shutdown();
    drop(comm1);
    let r = comm0.recv_timeout(Some(1), 7, Duration::from_secs(5));
    assert!(
        matches!(r, Err(CommError::PeerDead { peer: 1, .. })),
        "receives from the dead incarnation must fail fast, got {r:?}"
    );

    // Respawn: a fresh incarnation dials the hub and is re-admitted. The
    // dead flag reads as before the crash; only the incarnation count
    // tells a waiter that what it sent to spoke 1 earlier is lost.
    assert_eq!((comm0.incarnation(1), comm0.incarnation(2)), (0, 0));
    let comm1b = Cluster::connect(&cfg.with_rank(1)).expect("spoke 1 rejoin");
    wait_until("hub to clear spoke 1 dead flag", || !comm0.is_dead(1));
    assert_eq!((comm0.incarnation(1), comm0.incarnation(2)), (1, 0));

    comm1b.isend(0, 8, Bytes::copy_from_slice(b"second life"));
    let m = comm0
        .recv_timeout(Some(1), 8, Duration::from_secs(5))
        .expect("post-rejoin msg");
    assert_eq!(&m.payload[..], b"second life");
    comm0.isend(1, 9, Bytes::copy_from_slice(b"welcome back"));
    let m = comm1b
        .recv_timeout(Some(0), 9, Duration::from_secs(5))
        .expect("hub->spoke msg");
    assert_eq!(&m.payload[..], b"welcome back");

    // The other spoke never noticed.
    comm2.isend(0, 10, Bytes::copy_from_slice(b"steady"));
    let m = comm0
        .recv_timeout(Some(2), 10, Duration::from_secs(5))
        .expect("spoke 2 msg");
    assert_eq!(&m.payload[..], b"steady");

    for c in [comm0, comm1b, comm2] {
        c.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The startup race the supervisor creates: a worker whose first dial
/// lands on a predecessor's socket that accepts and immediately resets
/// must retry the whole connect+handshake, not fail the mesh build.
#[test]
fn connect_retries_through_a_resetting_predecessor() {
    let dir = fresh_dir("reset");
    let cfg = ClusterConfig::unix_in_dir(&dir, 2);
    let path0 = std::path::PathBuf::from(&cfg.endpoints[0]);

    // A fake predecessor holds rank 0's socket: it accepts one
    // connection and drops it mid-handshake.
    let fake = std::os::unix::net::UnixListener::bind(&path0).expect("bind fake predecessor");
    let spoke_cfg = cfg.with_rank(1);
    let spoke = std::thread::spawn(move || Cluster::connect(&spoke_cfg));
    let (conn, _) = fake.accept().expect("fake accept");
    drop(conn);
    drop(fake);
    std::fs::remove_file(&path0).ok();

    // Now the real rank 0 comes up; the spoke's retry loop must find it.
    let comm0 = Cluster::connect(&cfg.with_rank(0)).expect("real rank 0 connect");
    let comm1 = spoke
        .join()
        .expect("spoke thread")
        .expect("spoke survives the reset");

    comm1.isend(0, 3, Bytes::copy_from_slice(b"made it"));
    let m = comm0
        .recv_timeout(Some(1), 3, Duration::from_secs(5))
        .expect("post-retry msg");
    assert_eq!(&m.payload[..], b"made it");

    comm0.shutdown();
    comm1.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
