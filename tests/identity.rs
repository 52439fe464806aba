//! The identity lattice (DESIGN.md §12, §13): every query of the mix
//! returns the same points however the leaf files are reached — whatever
//! the treelet codec, the attribute indexes, the read backend, the treelet
//! cache or the path (`Dataset::query`, `StreamServer`, or `ShardFront`
//! over two shards) — and the range backends behave like range backends:
//! they issue requests, coalesce them, and serve repeats from the cache.

mod common;

use bat_iosim::{ObjectStore, ObjectStoreConfig};
use bat_layout::{PageCache, Query};
use bat_serve::{QueryPlan, ServeOptions};
use bat_stream::{StreamClient, StreamServer};
use common::{build_cosmology_dataset, build_test_dataset, BuildOpts, Digest, Workload};
use libbat::{Dataset, ReadBackend};

const CODECS: [&str; 2] = ["v1", "v2-lossless"];
const INDEXES: [&str; 2] = ["none", "all"];
const BACKENDS: [&str; 3] = ["mmap", "range-file", "range-sim"];
/// Treelet cache budgets: none, ample, and one page (every treelet
/// thrashes through eviction).
const CACHES: [(&str, Option<usize>); 3] =
    [("off", None), ("8MiB", Some(8 << 20)), ("4KiB", Some(4096))];
const PATHS: [&str; 3] = ["direct", "served", "sharded"];

/// Point `ds` at `backend` and give it its own cache of `budget` bytes
/// (`None`: no cache, whatever `BAT_CACHE_BYTES` says).
fn configure(ds: &Dataset, backend: &str, budget: Option<usize>) {
    ds.set_backend(match backend {
        "mmap" => ReadBackend::Mmap,
        "range-file" => ReadBackend::RangeFile,
        _ => ReadBackend::RangeSim(ObjectStore::new(ObjectStoreConfig::default())),
    });
    ds.set_cache(budget.map(PageCache::new));
}

fn options() -> ServeOptions {
    ServeOptions {
        workers: Some(2),
        queue_depth: Some(64),
        ..ServeOptions::default()
    }
}

/// Every cell of codec × index × backend × cache × path (108) runs the
/// whole mix — twice, cold then warm, where a cache is attached — and must
/// equal the planner's answer on v1 files without indexes over mmap with
/// no cache. Direct paths must also hand over the same file indexes.
#[test]
fn identity_lattice() {
    let _serial = common::serial();
    let fixtures: Vec<_> = CODECS
        .iter()
        .flat_map(|&codec| INDEXES.map(|index| (codec, index)))
        .map(|(codec, index)| {
            let opts = BuildOpts {
                tag: "lattice",
                target_file_bytes: 16_000,
                codec: Some(codec),
                index: Some(index),
                ..BuildOpts::default()
            };
            let workload = Workload::Uniform {
                per_rank: 200,
                seed: 11,
            };
            (codec, index, build_test_dataset(&workload, &opts))
        })
        .collect();

    let ds = Dataset::open(&fixtures[0].2.path, "s").unwrap();
    configure(&ds, "mmap", None);
    let mix = common::query_mix(&ds);
    let want = common::reference(&ds, &mix);
    let total = ds.num_particles();
    assert!(ds.num_files() >= 4, "both shards must own several leaves");
    assert_eq!(want[0].points, total, "the full read");
    for (q, d) in mix.iter().zip(&want).skip(1) {
        assert!(
            0 < d.points && d.points < total,
            "{q:?} selects {} of {total} points",
            d.points
        );
    }
    assert!(
        mix.iter().any(|q| {
            let order: Vec<u32> = QueryPlan::new(&ds, q).unwrap().file_order().collect();
            order.windows(2).any(|w| w[0] > w[1])
        }),
        "some query must visit files out of leaf order"
    );
    drop(ds);

    let mut cells = 0;
    for (codec, index, scratch) in &fixtures {
        for backend in BACKENDS {
            for (cache, budget) in CACHES {
                for path in PATHS {
                    let cell = format!("{codec}/index={index}/{backend}/cache={cache}/{path}");
                    let passes: &[&str] = if budget.is_some() {
                        &["cold", "warm"]
                    } else {
                        &["cold"]
                    };
                    // Streams carry no file index; direct paths hand it over.
                    let check = |digest: &mut dyn FnMut(&Query) -> Digest| {
                        for pass in passes {
                            for ((qi, q), want) in mix.iter().enumerate().zip(&want) {
                                let want = if path == "direct" {
                                    *want
                                } else {
                                    want.on_wire()
                                };
                                assert_eq!(digest(q), want, "{cell}/{pass}: query {qi} {q:?}");
                            }
                        }
                    };
                    let open = || {
                        let ds = Dataset::open(&scratch.path, "s").unwrap();
                        configure(&ds, backend, budget);
                        ds
                    };
                    let ask = |addr| {
                        let mut client = StreamClient::connect(addr).unwrap();
                        check(&mut |q| common::served(&mut client, q).unwrap());
                    };
                    match path {
                        "direct" => {
                            let ds = open();
                            check(&mut |q| common::direct(&ds, q).unwrap());
                        }
                        "served" => {
                            let handle = StreamServer::bind_with("127.0.0.1:0", open(), options())
                                .and_then(StreamServer::spawn)
                                .unwrap();
                            ask(handle.addr());
                            handle.shutdown();
                        }
                        _ => common::with_shard_front(
                            &scratch.path,
                            "s",
                            2,
                            options(),
                            |ds| configure(ds, backend, budget),
                            ask,
                        ),
                    }
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 108);
}

#[test]
fn range_sim_issues_coalesced_requests_and_reuses_cache() {
    // The lattice pins knobs while it writes; this fixture takes the
    // environment's.
    let _serial = common::serial();
    // Many treelets per file: the case the coalescer exists for.
    let scratch = build_cosmology_dataset("range-reqs", None);
    let store = ObjectStore::new(ObjectStoreConfig::default());
    let ds = Dataset::open(&scratch.path, "s").unwrap();
    ds.set_backend(ReadBackend::RangeSim(store.clone()));
    ds.set_cache(Some(PageCache::new(64 << 20)));

    let q = Query::new();
    let total_treelets = ds.query(&q, |_| {}).unwrap().treelets_visited;
    let cold = store.stats();
    assert!(cold.requests > 0, "range backend must issue store requests");
    // Coalescing: a naive reader issues one GET per planned treelet. With
    // treelets page-adjacent in each leaf file and the 16 KiB gap, the cold
    // read (head fetches included) must need at most half as many.
    assert!(
        2 * cold.requests <= total_treelets,
        "expected coalesced requests <= 0.5x naive: {} GETs for {} treelets",
        cold.requests,
        total_treelets
    );
    assert!(cold.sim_ns > 0 && cold.cost > 0, "accounting: {cold:?}");

    // Warm pass: everything is in the treelet cache; no new GETs.
    let warm_stats = ds.query(&q, |_| {}).unwrap();
    assert!(warm_stats.cache_hits > 0, "warm pass must hit the cache");
    assert_eq!(
        store.stats().requests,
        cold.requests,
        "warm pass must not touch the store"
    );

    // Per-file reader stats agree: blocks were served from each plan's
    // coalesced fetch.
    let mut prefetch_hits = 0;
    let mut retries = 0;
    for leaf in 0..ds.num_files() as u32 {
        if let Some(s) = ds.file(leaf).unwrap().range_stats() {
            prefetch_hits += s.prefetch_hits;
            retries += s.retries;
        }
    }
    assert!(
        prefetch_hits > 0,
        "planned execution should consume prefetches"
    );
    assert_eq!(retries, 0, "no faults configured, so no retries");
}
