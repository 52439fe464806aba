//! One pass over the plan (DESIGN.md §12): each planned treelet that the
//! cache does not hold is decoded exactly once, on the caller's pool, and
//! counted in the caller's obs scope — whatever the pool size, cache budget
//! or read backend — and the cache statistics and pool batches a query
//! reports describe that pass and nothing more.

mod common;

use bat_iosim::{ObjectStore, ObjectStoreConfig};
use bat_layout::format::TreeletLayout;
use bat_layout::{PageCache, Query};
use bat_obs::Registry;
use bat_serve::QueryPlan;
use common::{build_test_dataset, BuildOpts, ScratchDir, Workload};
use libbat::{Dataset, ReadBackend};
use std::sync::Arc;

const POOLS: [usize; 3] = [1, 2, 4];
/// Treelet cache budgets: none, one page (no decoded block fits), ample.
const CACHES: [(&str, Option<usize>); 3] =
    [("off", None), ("4KiB", Some(4096)), ("8MiB", Some(8 << 20))];
const BACKENDS: [&str; 2] = ["mmap", "range-sim"];

fn fixture(codec: &'static str) -> ScratchDir {
    build_test_dataset(
        &Workload::Uniform {
            per_rank: 1_000,
            seed: 7,
        },
        &BuildOpts {
            tag: "one-pass",
            target_file_bytes: 24_000,
            codec: Some(codec),
            index: Some("none"),
            ..BuildOpts::default()
        },
    )
}

fn open(dir: &ScratchDir, backend: &str, budget: Option<usize>) -> Dataset {
    let ds = Dataset::open(&dir.path, "s").unwrap();
    ds.set_backend(match backend {
        "mmap" => ReadBackend::Mmap,
        _ => ReadBackend::RangeSim(ObjectStore::new(ObjectStoreConfig::default())),
    });
    ds.set_cache(budget.map(PageCache::new));
    ds
}

/// Decoded bytes `q` must cost on `ds` right now: the decoded size of
/// every planned treelet its file's cache does not hold.
fn expected_decode(ds: &Dataset, q: &Query) -> u64 {
    let plan = QueryPlan::new(ds, q).unwrap();
    let mut bytes = 0;
    for leaf in plan.file_order() {
        let file = ds.file(leaf).unwrap();
        let head = file.head();
        for &t in file.plan(plan.query()).unwrap().treelets() {
            if file.cache().is_some_and(|c| c.contains(file.file_id(), t)) {
                continue;
            }
            let rec = &head.leaves[t as usize];
            let (nodes, points) = (rec.num_nodes as usize, rec.num_particles as usize);
            bytes += TreeletLayout::compute(nodes, points, &head.descs).size as u64;
        }
    }
    bytes
}

/// Run `q` with metrics recorded into a fresh scope on this thread; return
/// the `codec.bytes_decoded` the scope saw.
fn scoped_decode(ds: &Dataset, q: &Query) -> u64 {
    let reg = Arc::new(Registry::new());
    let _on = bat_obs::enable();
    let _scope = bat_obs::scope(reg.clone());
    ds.query(q, |_| {}).unwrap();
    reg.snapshot().counter("codec.bytes_decoded").unwrap_or(0)
}

/// Restores the pool size the process started with.
struct Pool;

impl Pool {
    fn set(threads: usize) -> Pool {
        rayon::pool::set_num_threads(threads);
        Pool
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        rayon::pool::set_num_threads(rayon::pool::default_threads());
    }
}

/// Pool × cache × backend, cold pass then warm pass (36 cells): every
/// query of the mix decodes exactly the planned blocks that were not
/// resident when it started, counted in the caller's scope.
#[test]
fn each_missing_block_is_decoded_once_in_the_callers_scope() {
    let _serial = common::serial();
    let dir = fixture("v2-lossless");
    let mix = common::query_mix(&Dataset::open(&dir.path, "s").unwrap());
    let mut cells = 0;
    for threads in POOLS {
        let _pool = Pool::set(threads);
        for (cache, budget) in CACHES {
            for backend in BACKENDS {
                let ds = open(&dir, backend, budget);
                for pass in ["cold", "warm"] {
                    let cell = format!("pool={threads}/cache={cache}/{backend}/{pass}");
                    let mut total = 0;
                    for (qi, q) in mix.iter().enumerate() {
                        let want = expected_decode(&ds, q);
                        let got = scoped_decode(&ds, q);
                        assert_eq!(got, want, "{cell}: query {qi} {q:?}");
                        total += got;
                    }
                    // Only an ample cache ever holds a decoded block.
                    assert_eq!(
                        total == 0,
                        pass == "warm" && budget == Some(8 << 20),
                        "{cell}: decoded {total} bytes"
                    );
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 36);
}

/// A query's cache statistics count each visited treelet once, as a hit
/// or a miss; a cold pass hits nothing; and a pass with nothing to decode
/// starts no pool batch.
#[test]
fn cache_stats_count_each_treelet_once_and_idle_passes_start_no_batch() {
    let _serial = common::serial();
    let v2 = fixture("v2-lossless");
    let v1 = fixture("v1");
    let mix = common::query_mix(&Dataset::open(&v2.path, "s").unwrap());
    for threads in POOLS {
        let _pool = Pool::set(threads);
        for (cache, budget) in CACHES.into_iter().filter(|(_, b)| b.is_some()) {
            for backend in BACKENDS {
                let ds = open(&v2, backend, budget);
                for pass in ["cold", "warm"] {
                    let cell = format!("pool={threads}/cache={cache}/{backend}/{pass}");
                    for (qi, q) in mix.iter().enumerate() {
                        let s = ds.query(q, |_| {}).unwrap();
                        assert_eq!(
                            s.cache_hits + s.cache_misses,
                            s.treelets_visited,
                            "{cell}: query {qi} {s:?}"
                        );
                        if qi == 0 && pass == "cold" {
                            assert_eq!(s.cache_hits, 0, "{cell}: a cold full read hit");
                        }
                    }
                }
            }
        }
    }

    let _pool = Pool::set(4);
    let batches = |ds: &Dataset| {
        let before = rayon::pool_stats().batches;
        for q in &mix {
            ds.query(q, |_| {}).unwrap();
        }
        rayon::pool_stats().batches - before
    };
    for backend in BACKENDS {
        let ds = open(&v2, backend, Some(8 << 20));
        assert!(
            batches(&ds) > 0,
            "{backend}: the cold pass decodes on the pool"
        );
        assert_eq!(batches(&ds), 0, "{backend}: an all-resident pass");
    }
    assert_eq!(
        batches(&open(&v1, "mmap", None)),
        0,
        "v1 over mmap, no cache"
    );
}
