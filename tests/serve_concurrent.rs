//! Concurrent serving: the bat-serve front-end must return byte-identical
//! results no matter the cache configuration (disabled, ample, or a
//! one-page thrashing budget) or worker-pool size, while backpressure and
//! deadlines stay observable as typed protocol errors.

mod common;

use bat_layout::Query;
use bat_serve::{PageCache, ServeOptions};
use bat_stream::{RequestError, StreamClient, StreamServer, ERR_BAD_QUERY, ERR_DEADLINE};
use common::{query_mix, served, wire_reference, BuildOpts, Digest, ScratchDir, Workload};
use libbat::Dataset;
use std::sync::Arc;
use std::time::Duration;

const RANKS: usize = 4;
const PER_RANK: u64 = 1_500;

fn lock() -> common::Serial {
    common::serial_resetting(bat_faults::reset)
}

fn write_sample(dir: &std::path::Path) {
    common::write_dataset_into(
        dir,
        &Workload::Uniform {
            per_rank: PER_RANK,
            seed: 11,
        },
        &BuildOpts {
            ranks: RANKS,
            ..BuildOpts::default()
        },
    );
}

/// Serve the dataset under one (cache, workers) configuration and collect
/// each query's digest from `clients` concurrent connections, each running
/// the mix twice (cold then warm).
fn serve_and_collect(
    dir: &std::path::Path,
    cache: Option<Arc<PageCache>>,
    workers: usize,
    clients: usize,
) -> Vec<Digest> {
    let ds = Dataset::open(dir, "s").unwrap();
    let mix = Arc::new(query_mix(&ds));
    // `None` must mean *no* cache even when BAT_CACHE_BYTES is exported
    // (the CI eviction-stress job does exactly that).
    ds.set_cache(cache.clone());
    let options = ServeOptions {
        workers: Some(workers),
        queue_depth: Some(64),
        deadline: None,
        cache,
    };
    let handle = StreamServer::bind_with("127.0.0.1:0", ds, options)
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr();

    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let mix = mix.clone();
            std::thread::spawn(move || {
                let mut client = StreamClient::connect(addr).unwrap();
                let mut run = || -> Vec<Digest> {
                    let digests = mix.iter().map(|q| served(&mut client, q).unwrap());
                    digests.collect()
                };
                let cold = run();
                assert_eq!(run(), cold, "warm rerun diverged from cold run");
                cold
            })
        })
        .collect();

    let mut per_client: Vec<Vec<Digest>> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let first = per_client.pop().unwrap();
    for other in &per_client {
        assert_eq!(other, &first, "concurrent clients saw different streams");
    }
    handle.shutdown();
    first
}

#[test]
fn byte_identical_across_cache_and_pool_configs() {
    let _guard = lock();
    let scratch = ScratchDir::new("serve-ident");
    write_sample(&scratch.path);

    // Reference: the planner's own answer with the cache disabled. Every
    // served stream must equal it bit for bit, in order, whatever the
    // cache, the pool size or the number of concurrent clients.
    let (_, want) = wire_reference(&scratch.path);

    let configs: Vec<(&str, Option<Arc<PageCache>>, usize)> = vec![
        ("cache-off/1w", None, 1),
        ("cache-off/4w", None, 4),
        ("cache-8m/1w", Some(PageCache::new(8 << 20)), 1),
        ("cache-8m/4w", Some(PageCache::new(8 << 20)), 4),
        // One page: every treelet thrashes through eviction.
        ("cache-1page/4w", Some(PageCache::new(4096)), 4),
    ];
    for (name, cache, workers) in configs {
        let got = serve_and_collect(&scratch.path, cache, workers, 3);
        assert_eq!(
            got, want,
            "{name}: served stream diverged from the planner's"
        );
    }
}

#[test]
fn one_page_cache_stays_within_budget() {
    let _guard = lock();
    let scratch = ScratchDir::new("serve-1page");
    write_sample(&scratch.path);
    let cache = PageCache::new(4096);
    serve_and_collect(&scratch.path, Some(cache.clone()), 2, 2);
    let s = cache.stats();
    assert!(
        s.bytes <= 4096,
        "budget exceeded: {} bytes resident",
        s.bytes
    );
    assert!(
        s.evictions + s.rejected > 0,
        "a one-page budget must thrash: {s:?}"
    );
}

#[test]
fn zero_deadline_expires_as_typed_error() {
    let _guard = lock();
    let scratch = ScratchDir::new("serve-deadline");
    write_sample(&scratch.path);
    let ds = Dataset::open(&scratch.path, "s").unwrap();
    let options = ServeOptions {
        workers: Some(1),
        queue_depth: Some(8),
        deadline: Some(Duration::ZERO),
        cache: None,
    };
    let handle = StreamServer::bind_with("127.0.0.1:0", ds, options)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = StreamClient::connect(handle.addr()).unwrap();
    match client.request(&Query::new(), |_| {}) {
        Err(RequestError::Server { code, message }) => {
            assert_eq!(code, ERR_DEADLINE, "unexpected error: {message}");
            assert!(message.contains("deadline"), "message: {message}");
        }
        other => panic!("expected deadline error, got {other:?}"),
    }
    // A typed failure must not kill the connection: the next request
    // fails the same typed way instead of hitting a dead socket.
    assert!(matches!(
        client.request(&Query::new(), |_| {}),
        Err(RequestError::Server { code, .. }) if code == ERR_DEADLINE
    ));
    drop(client);
    handle.shutdown();
}

#[test]
fn malformed_queries_are_typed_protocol_errors() {
    let _guard = lock();
    let scratch = ScratchDir::new("serve-badquery");
    write_sample(&scratch.path);
    let ds = Dataset::open(&scratch.path, "s").unwrap();
    let handle = StreamServer::bind_with("127.0.0.1:0", ds, ServeOptions::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = StreamClient::connect(handle.addr()).unwrap();
    // Attribute index beyond the schema.
    match client.request(&Query::new().with_filter(99, 0.0, 1.0), |_| {}) {
        Err(RequestError::Server { code, .. }) => assert_eq!(code, ERR_BAD_QUERY),
        other => panic!("expected bad-query error, got {other:?}"),
    }
    // Inverted filter range.
    match client.request(&Query::new().with_filter(0, 1.0, -1.0), |_| {}) {
        Err(RequestError::Server { code, .. }) => assert_eq!(code, ERR_BAD_QUERY),
        other => panic!("expected bad-query error, got {other:?}"),
    }
    // The session is still usable for a valid query afterwards.
    let total = client.request(&Query::new(), |_| {}).unwrap();
    assert_eq!(total, RANKS as u64 * PER_RANK);
    drop(client);
    handle.shutdown();
}

#[test]
fn a_client_that_disconnects_mid_stream_leaks_no_permit() {
    use bat_stream::protocol::{read_frame, write_frame};
    use std::io::Write;

    let _guard = lock();
    let scratch = ScratchDir::new("serve-disconnect");
    write_sample(&scratch.path);
    let ds = Dataset::open(&scratch.path, "s").unwrap();
    // One permit and nobody may wait: a permit that is not returned
    // answers every later request `Busy`.
    let options = ServeOptions {
        workers: Some(1),
        queue_depth: Some(0),
        deadline: None,
        cache: None,
    };
    let handle = StreamServer::bind_with("127.0.0.1:0", ds, options)
        .unwrap()
        .spawn()
        .unwrap();
    let request = bat_stream::Request {
        query: Query::new(),
    }
    .encode();
    for _ in 0..4 {
        let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
        read_frame(&mut raw).unwrap().expect("schema preamble");
        write_frame(&mut raw, &request).unwrap();
        raw.flush().unwrap();
        // Hang up after the first chunk, with the rest of the stream
        // unread or still being written.
        read_frame(&mut raw).unwrap().expect("first chunk");
        drop(raw);
    }
    let mut client = StreamClient::connect(handle.addr()).unwrap();
    let total = client
        .request_with_retry(&Query::new(), 64, |_| {})
        .expect("the abandoned requests gave their permits back");
    assert_eq!(total, RANKS as u64 * PER_RANK);
    drop(client);
    handle.shutdown();
}

/// Fault-injection cases: `serve.exec` delays armed in the process-global
/// fault registry.
mod faults {
    use super::*;
    use bat_faults::FaultAction;

    #[test]
    fn injected_latency_makes_deadlines_fire() {
        let _guard = lock();
        let scratch = ScratchDir::new("serve-fault-deadline");
        write_sample(&scratch.path);
        // Stall every worker execution 60 ms; the 10 ms deadline (started
        // at submission) has always expired by the first treelet check.
        bat_faults::configure_site("serve.exec", FaultAction::Delay(60), None, None, None, None);
        let ds = Dataset::open(&scratch.path, "s").unwrap();
        let options = ServeOptions {
            workers: Some(1),
            queue_depth: Some(8),
            deadline: Some(Duration::from_millis(10)),
            cache: None,
        };
        let handle = StreamServer::bind_with("127.0.0.1:0", ds, options)
            .unwrap()
            .spawn()
            .unwrap();
        let mut client = StreamClient::connect(handle.addr()).unwrap();
        match client.request(&Query::new(), |_| {}) {
            Err(RequestError::Server { code, message }) => {
                assert_eq!(code, ERR_DEADLINE, "unexpected error: {message}");
            }
            other => panic!("expected deadline expiry, got {other:?}"),
        }
        drop(client);
        handle.shutdown();
    }

    #[test]
    fn saturated_queue_rejects_with_retry_after_then_recovers() {
        let _guard = lock();
        let scratch = ScratchDir::new("serve-fault-busy");
        write_sample(&scratch.path);
        // Each execution stalls 150 ms, so one worker plus a depth-1 queue
        // saturates with two requests in flight.
        bat_faults::configure_site(
            "serve.exec",
            FaultAction::Delay(150),
            None,
            None,
            None,
            None,
        );
        let ds = Dataset::open(&scratch.path, "s").unwrap();
        let options = ServeOptions {
            workers: Some(1),
            queue_depth: Some(1),
            deadline: None,
            cache: None,
        };
        let handle = StreamServer::bind_with("127.0.0.1:0", ds, options)
            .unwrap()
            .spawn()
            .unwrap();
        let addr = handle.addr();

        // Two background clients occupy the worker and the queue slot.
        let occupiers: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = StreamClient::connect(addr).unwrap();
                    c.request_with_retry(&Query::new(), 64, |_| {}).unwrap()
                })
            })
            .collect();
        // Give them time to submit (well under the 150 ms stall).
        std::thread::sleep(Duration::from_millis(60));

        // A third request must be refused with the retry hint — and a
        // retrying client must eventually get the full answer.
        let mut c = StreamClient::connect(addr).unwrap();
        let mut saw_busy = false;
        let mut hint = Duration::ZERO;
        let total = loop {
            match c.request(&Query::new(), |_| {}) {
                Ok(n) => break n,
                Err(RequestError::Busy { retry_after }) => {
                    saw_busy = true;
                    hint = retry_after;
                    std::thread::sleep(retry_after);
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert!(saw_busy, "a saturated queue must reject at least once");
        assert!(hint > Duration::ZERO, "retry hint must be non-zero");
        assert_eq!(total, RANKS as u64 * PER_RANK);
        for t in occupiers {
            assert_eq!(t.join().unwrap(), RANKS as u64 * PER_RANK);
        }
        drop(c);
        handle.shutdown();
    }
}
