//! An in-process object-store simulator for the range-request read path
//! (DESIGN.md §13).
//!
//! Cloud object stores change the read-cost model the rest of this crate
//! simulates for parallel filesystems: every GET pays a first-byte latency
//! and a per-request fee, and throughput comes from few large ranges
//! rather than many small ones. [`ObjectStore`] holds immutable objects in
//! memory and serves absolute byte ranges through the same accounting
//! style as [`crate::storage`] — simulated time and cost are accumulated
//! per request instead of being waited out, so tests and benches can
//! assert on the economics of an access pattern without slowing down.
//!
//! Fault injection (`bat-faults` sites, armed by tests through
//! `bat_faults::configure`) hooks every GET:
//!
//! * `store.get` — `error` fails the request, `delay:MS` stalls it;
//! * `store.get.torn` — `torn:N` truncates the response to `N` bytes,
//!   modeling a connection that died mid-body. The reader must detect the
//!   short body and retry or surface a typed error, never decode it.
//!
//! [`ObjectStore::source`] adapts an object to `bat_layout::ByteSource`,
//! which is what `BatFile::from_source` consumes.

use bat_layout::source::ByteSource;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Performance model for one simulated store (S3-style defaults).
#[derive(Debug, Clone)]
pub struct ObjectStoreConfig {
    /// Time to first byte per GET, microseconds (network round trip +
    /// service latency).
    pub first_byte_us: u64,
    /// Sustained per-connection bandwidth, bytes per second.
    pub bytes_per_sec: f64,
    /// Accounting cost per request, in micro-units (e.g. micro-cents);
    /// object stores bill per 1000 GETs, so requests — not bytes — dominate
    /// small-range workloads.
    pub cost_per_request: u64,
    /// Real wall-clock sleep per GET, milliseconds. Zero (the default)
    /// keeps the model purely virtual; tests that want observable latency
    /// can turn it on.
    pub sleep_ms: u64,
}

impl Default for ObjectStoreConfig {
    fn default() -> ObjectStoreConfig {
        ObjectStoreConfig {
            first_byte_us: 15_000,      // ~15 ms TTFB
            bytes_per_sec: 100.0 * 1e6, // ~100 MB/s per connection
            cost_per_request: 4,        // ~$0.0000004/GET
            sleep_ms: 0,
        }
    }
}

/// Cumulative counters for one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// GET requests served (including ones that then failed by injection).
    pub requests: u64,
    /// Payload bytes returned.
    pub bytes: u64,
    /// Simulated time spent serving, nanoseconds (TTFB + transfer).
    pub sim_ns: u64,
    /// Accumulated request cost, micro-units.
    pub cost: u64,
}

/// An in-memory object store serving verified byte ranges with simulated
/// latency/cost accounting and failpoint-driven failure injection.
pub struct ObjectStore {
    cfg: ObjectStoreConfig,
    objects: RwLock<HashMap<String, Arc<Vec<u8>>>>,
    requests: AtomicU64,
    bytes: AtomicU64,
    sim_ns: AtomicU64,
    cost: AtomicU64,
}

impl ObjectStore {
    /// An empty store with the given performance model.
    pub fn new(cfg: ObjectStoreConfig) -> Arc<ObjectStore> {
        Arc::new(ObjectStore {
            cfg,
            objects: RwLock::new(HashMap::new()),
            requests: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            sim_ns: AtomicU64::new(0),
            cost: AtomicU64::new(0),
        })
    }

    /// The process-wide store used by the `BAT_READ_BACKEND=range-sim`
    /// backend (default config; datasets upload their leaf files into it
    /// on first open).
    pub fn global() -> Arc<ObjectStore> {
        static GLOBAL: OnceLock<Arc<ObjectStore>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| ObjectStore::new(ObjectStoreConfig::default()))
            .clone()
    }

    /// The store's performance model.
    pub fn config(&self) -> &ObjectStoreConfig {
        &self.cfg
    }

    /// Upload (or replace) an object.
    pub fn put(&self, key: &str, bytes: Vec<u8>) {
        self.objects
            .write()
            .expect("object map lock")
            .insert(key.to_string(), Arc::new(bytes));
    }

    /// Upload a local file as an object under `key`.
    pub fn put_file(&self, key: &str, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        self.put(key, std::fs::read(path)?);
        Ok(())
    }

    /// True when `key` exists.
    pub fn contains(&self, key: &str) -> bool {
        self.objects
            .read()
            .expect("object map lock")
            .contains_key(key)
    }

    /// Byte length of the object at `key`.
    pub fn object_len(&self, key: &str) -> Option<u64> {
        self.objects
            .read()
            .expect("object map lock")
            .get(key)
            .map(|o| o.len() as u64)
    }

    /// Serve one range GET: `[offset, offset + len)` of `key`.
    ///
    /// Accounting always runs (simulated TTFB + transfer time, request
    /// cost, `store.requests`/`store.bytes` obs counters). Failpoints run
    /// after accounting — an injected failure still cost a round trip,
    /// exactly like a real store.
    pub fn get_range(&self, key: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let ttfb_ns = self.cfg.first_byte_us * 1_000;
        let xfer_ns = if self.cfg.bytes_per_sec > 0.0 {
            (len as f64 / self.cfg.bytes_per_sec * 1e9) as u64
        } else {
            0
        };
        self.sim_ns.fetch_add(ttfb_ns + xfer_ns, Ordering::Relaxed);
        self.cost
            .fetch_add(self.cfg.cost_per_request, Ordering::Relaxed);
        if bat_obs::enabled() {
            bat_obs::counter_add("store.requests", 1);
        }
        if self.cfg.sleep_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.cfg.sleep_ms));
        }

        // `store.get`: fail or stall the whole request.
        if bat_faults::fire("store.get").is_some() {
            return Err(bat_faults::injected_error("store.get", "object range GET"));
        }

        let obj = {
            let map = self.objects.read().expect("object map lock");
            map.get(key).cloned()
        }
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no such object: {key}")))?;
        let start = usize::try_from(offset)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "range offset overflow"))?;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= obj.len())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "range [{offset}, +{len}) out of bounds (object {key} is {} bytes)",
                        obj.len()
                    ),
                )
            })?;
        let mut body = obj[start..end].to_vec();

        // `store.get.torn`: the connection died mid-body — return the
        // prefix that made it. The caller's length check catches it.
        if let Some(bat_faults::Fault::Torn(n)) = bat_faults::fire("store.get.torn") {
            body.truncate((n as usize).min(body.len()));
        }
        self.bytes.fetch_add(body.len() as u64, Ordering::Relaxed);
        if bat_obs::enabled() {
            bat_obs::counter_add("store.bytes", body.len() as u64);
        }
        Ok(body)
    }

    /// Snapshot of the store's cumulative counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            requests: self.requests.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            sim_ns: self.sim_ns.load(Ordering::Relaxed),
            cost: self.cost.load(Ordering::Relaxed),
        }
    }

    /// Adapt the object at `key` to a [`ByteSource`] for
    /// `BatFile::from_source`. Fails when the object does not exist.
    pub fn source(self: &Arc<ObjectStore>, key: &str) -> io::Result<Arc<dyn ByteSource>> {
        let len = self.object_len(key).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no such object: {key}"))
        })?;
        Ok(Arc::new(ObjectSource {
            store: self.clone(),
            key: key.to_string(),
            len,
        }))
    }
}

/// One object viewed as a [`ByteSource`]; every `read_range` is a GET.
struct ObjectSource {
    store: Arc<ObjectStore>,
    key: String,
    len: u64,
}

impl ByteSource for ObjectSource {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_range(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.store.get_range(&self.key, offset, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_ranges_with_accounting() {
        let store = ObjectStore::new(ObjectStoreConfig {
            first_byte_us: 10_000,
            bytes_per_sec: 1e6,
            cost_per_request: 4,
            sleep_ms: 0,
        });
        store.put("a", (0u8..=255).collect());
        assert!(store.contains("a"));
        assert_eq!(store.object_len("a"), Some(256));
        assert_eq!(store.get_range("a", 16, 4).unwrap(), vec![16, 17, 18, 19]);
        assert!(store.get_range("a", 250, 10).is_err());
        assert!(store.get_range("missing", 0, 1).is_err());
        let s = store.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.bytes, 4);
        assert_eq!(s.cost, 12);
        // 10 ms TTFB per request + 4 bytes at 1 MB/s.
        assert!(s.sim_ns >= 30_000_000);
    }

    #[test]
    fn source_adapter_reads_through() {
        let store = ObjectStore::new(ObjectStoreConfig::default());
        store.put("obj", vec![9u8; 1000]);
        let src = store.source("obj").unwrap();
        assert_eq!(src.len(), 1000);
        assert_eq!(src.read_range(500, 10).unwrap(), vec![9u8; 10]);
        assert!(store.source("absent").is_err());
    }
}
