//! One read path, one set of counters: `Dataset::query`, the stream
//! server and the shard front all run the same planner, per-file loop and
//! block materializer, so the work they report through `bat-obs` must
//! agree — and the work they *skip* (an expired deadline's fetch and
//! decode) must be skipped on every path.
//!
//! Server sessions record into the process-global registry (a
//! `bat_obs::scope` is per-thread), so every test here
//! serializes behind one lock and clears that registry around each
//! measured run; nothing else in this binary records.

mod common;

use bat_layout::Query;
use bat_obs::{Registry, Snapshot};
use bat_serve::ServeOptions;
use bat_stream::{StreamClient, StreamServer};
use common::{build_test_dataset, query_mix, BuildOpts, ScratchDir, Workload};
use libbat::{verify_dataset, Dataset};
use std::net::SocketAddr;

fn lock() -> common::Serial {
    common::serial_resetting(bat_faults::reset)
}

fn sample(tag: &'static str, codec: Option<&'static str>) -> ScratchDir {
    build_test_dataset(
        &Workload::Uniform {
            per_rank: 1_500,
            seed: 11,
        },
        &BuildOpts {
            tag,
            codec,
            ..BuildOpts::default()
        },
    )
}

fn options() -> ServeOptions {
    ServeOptions {
        workers: Some(2),
        queue_depth: Some(64),
        deadline: None,
        cache: None,
    }
}

/// Everything recorded into the global registry while `run` executes.
fn recorded(run: impl FnOnce()) -> Snapshot {
    let _on = bat_obs::enable();
    Registry::global().clear();
    run();
    Registry::global().snapshot()
}

/// Run `mix` from one client; returns the chunk frames it got.
fn run_mix(addr: SocketAddr, mix: &[Query]) -> u64 {
    let mut client = StreamClient::connect(addr).expect("connect");
    let mut chunks = 0;
    for q in mix {
        client
            .request_with_retry(q, 64, |_| chunks += 1)
            .expect("request succeeds");
    }
    chunks
}

/// `run_mix` against a single-process server over `ds`; shutdown joins
/// the sessions, so every counter has landed when this returns.
fn serve_mix(ds: Dataset, mix: &[Query]) -> u64 {
    let handle = StreamServer::bind_with("127.0.0.1:0", ds, options())
        .and_then(StreamServer::spawn)
        .expect("start server");
    let chunks = run_mix(handle.addr(), mix);
    handle.shutdown();
    chunks
}

#[test]
fn counters_agree_across_direct_served_and_sharded_paths() {
    let _serial = lock();
    let scratch = sample("parity", None);
    let open = || {
        let ds = Dataset::open(&scratch.path, "s").expect("open");
        ds.set_cache(None);
        ds
    };
    let mix = query_mix(&open());

    let direct = recorded(|| {
        let ds = open();
        for q in &mix {
            ds.query(q, |_| {}).expect("direct query");
        }
    });
    let (mut served_chunks, mut sharded_chunks) = (0, 0);
    let served = recorded(|| served_chunks = serve_mix(open(), &mix));
    let sharded = recorded(|| {
        sharded_chunks = common::with_shard_front(
            &scratch.path,
            "s",
            2,
            options(),
            |_| {},
            |addr| run_mix(addr, &mix),
        )
    });

    let count = |snap: &Snapshot, name: &str| snap.counter(name).unwrap_or(0);
    for name in [
        "read.query.count",
        "read.query.points_returned",
        "bitmap.hits",
        "bitmap.false_positives",
    ] {
        let want = count(&direct, name);
        assert_eq!(count(&served, name), want, "{name}: served vs direct");
        assert_eq!(count(&sharded, name), want, "{name}: sharded vs direct");
    }
    assert!(count(&direct, "read.query.count") > 0);
    assert!(count(&direct, "read.query.points_returned") > 0);
    assert!(
        count(&direct, "bitmap.hits") > 0,
        "the filtered query must exercise the exact filter"
    );
    let requests = mix.len() as u64;
    assert_eq!(count(&direct, "stream.requests"), 0);
    assert_eq!(count(&served, "stream.requests"), requests);
    assert_eq!(count(&sharded, "stream.requests"), requests);
    assert!(count(&sharded, "stream.points_sent") > 0);
    assert_eq!(
        count(&sharded, "stream.points_sent"),
        count(&served, "stream.points_sent")
    );
    // A chunk is encoded once — by the thread that filled it, server or
    // shard worker — and those bytes are the frame the client receives:
    // the router relays, the session writes.
    assert!(served_chunks > 0 && sharded_chunks > 0);
    assert_eq!(count(&direct, "stream.chunks_encoded"), 0);
    assert_eq!(count(&served, "stream.chunks_encoded"), served_chunks);
    assert_eq!(count(&sharded, "stream.chunks_encoded"), sharded_chunks);
}

#[test]
fn degraded_skips_are_counted_on_the_served_path() {
    let _serial = lock();
    let scratch = build_test_dataset(
        &Workload::Uniform {
            per_rank: 2_000,
            seed: 13,
        },
        &BuildOpts {
            tag: "parity-degraded",
            target_file_bytes: 30_000,
            ..BuildOpts::default()
        },
    );
    // Bit-rot one byte mid-payload in leaf 0: length intact, CRC broken.
    let clean = verify_dataset(&scratch.path, "s").expect("verify runs");
    assert!(clean.leaves.len() >= 3, "need several leaves to lose one");
    let victim = scratch.path.join(&clean.leaves[0].file);
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, bytes).unwrap();
    let open = || {
        let (ds, report) = Dataset::open_degraded(&scratch.path, "s").expect("degraded open");
        assert!(!report.is_clean());
        assert_eq!(ds.excluded_leaves().len(), 1);
        ds
    };
    let mix = query_mix(&open());

    let direct = recorded(|| {
        let ds = open();
        for q in &mix {
            ds.query(q, |_| {}).expect("direct query");
        }
    });
    let served = recorded(|| {
        serve_mix(open(), &mix);
    });
    let skips = direct.counter("read.degraded_skips").unwrap_or(0);
    assert!(skips >= 1, "the full query must skip the excluded leaf");
    assert_eq!(
        served.counter("read.degraded_skips").unwrap_or(0),
        skips,
        "a served query skips — and counts — the same leaves"
    );
}

/// Uses the `serve.exec` failpoint to stall a worker past the deadline.
#[test]
fn expired_deadline_returns_before_the_warm_up_decodes_anything() {
    use bat_faults::FaultAction;
    use bat_serve::PageCache;
    use bat_stream::{RequestError, ERR_DEADLINE};
    use std::time::Duration;

    let _serial = lock();
    // v2 files + an attached cache: the per-file loop would decode the
    // plan's blocks on the pool and fill the cache.
    let scratch = sample("parity-deadline", Some("v2-lossless"));
    let cache = PageCache::new(8 << 20);
    let ds = Dataset::open(&scratch.path, "s").expect("open");
    // Every execution stalls 60 ms on the worker; the 10 ms deadline
    // (started at submission) has expired before the plan runs.
    bat_faults::configure_site("serve.exec", FaultAction::Delay(60), None, None, None, None);
    let snap = recorded(|| {
        let handle = StreamServer::bind_with(
            "127.0.0.1:0",
            ds,
            ServeOptions {
                workers: Some(1),
                queue_depth: Some(8),
                deadline: Some(Duration::from_millis(10)),
                cache: Some(cache.clone()),
            },
        )
        .and_then(StreamServer::spawn)
        .expect("start server");
        let mut client = StreamClient::connect(handle.addr()).expect("connect");
        match client.request(&Query::new(), |_| {}) {
            Err(RequestError::Server { code, message }) => {
                assert_eq!(code, ERR_DEADLINE, "unexpected error: {message}");
            }
            other => panic!("expected deadline expiry, got {other:?}"),
        }
        drop(client);
        handle.shutdown();
    });
    bat_faults::reset();
    assert_eq!(
        snap.counter("codec.bytes_decoded").unwrap_or(0),
        0,
        "an already-expired query must not decode its plan"
    );
    assert_eq!(snap.counter("serve.deadline_expired"), Some(1));
    let s = cache.stats();
    assert_eq!(
        (s.entries, s.misses),
        (0, 0),
        "no block may be materialized after the deadline: {s:?}"
    );

    // The same server configuration without the stall decodes and caches.
    let ds = Dataset::open(&scratch.path, "s").expect("open");
    ds.set_cache(Some(cache.clone()));
    let warm = recorded(|| {
        ds.query(&Query::new(), |_| {}).expect("query");
    });
    assert!(warm.counter("codec.bytes_decoded").unwrap_or(0) > 0);
    assert!(cache.stats().entries > 0);
}

/// The deadline clock starts when a request is submitted, not when the
/// gate admits it: a request whose deadline runs out while it waits in
/// line for a permit answers `ERR_DEADLINE` and touches no treelet.
#[test]
fn a_deadline_that_expires_waiting_for_a_permit_touches_no_treelet() {
    use bat_faults::FaultAction;
    use bat_serve::PageCache;
    use bat_stream::{RequestError, ERR_DEADLINE};
    use std::time::Duration;

    let _serial = lock();
    let scratch = sample("parity-wait", Some("v2-lossless"));
    let cache = PageCache::new(8 << 20);
    let ds = Dataset::open(&scratch.path, "s").expect("open");
    // Only the first execution stalls: 400 ms under the only permit.
    bat_faults::configure_site(
        "serve.exec",
        FaultAction::Delay(400),
        None,
        None,
        None,
        Some(1),
    );
    let snap = recorded(|| {
        let handle = StreamServer::bind_with(
            "127.0.0.1:0",
            ds,
            ServeOptions {
                workers: Some(1),
                queue_depth: Some(8),
                deadline: Some(Duration::from_millis(50)),
                cache: Some(cache.clone()),
            },
        )
        .and_then(StreamServer::spawn)
        .expect("start server");
        let addr = handle.addr();
        let ask = move || {
            let mut client = StreamClient::connect(addr).expect("connect");
            match client.request(&Query::new(), |_| {}) {
                Err(RequestError::Server { code, .. }) => code,
                other => panic!("expected a typed error, got {other:?}"),
            }
        };
        let holder = std::thread::spawn(ask);
        while bat_faults::hits("serve.exec") == 0 {
            std::thread::yield_now();
        }
        // The permit is held for ~400 ms more. This request waits in line
        // behind it and then runs with no stall of its own, so only the
        // wait can have used up its 50 ms.
        assert_eq!(ask(), ERR_DEADLINE, "the waiter");
        assert_eq!(holder.join().unwrap(), ERR_DEADLINE, "the stalled holder");
        handle.shutdown();
    });
    assert_eq!(snap.counter("serve.queued"), Some(2), "both were admitted");
    assert_eq!(snap.counter("serve.rejected"), None);
    assert_eq!(snap.counter("serve.deadline_expired"), Some(2));
    assert_eq!(snap.counter("codec.bytes_decoded").unwrap_or(0), 0);
    let s = cache.stats();
    assert_eq!(
        (s.entries, s.misses),
        (0, 0),
        "an expired request materialized a block: {s:?}"
    );
}
