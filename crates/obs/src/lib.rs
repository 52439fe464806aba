//! `bat-obs` — dependency-free observability for the two-phase I/O
//! pipeline.
//!
//! The paper's whole evaluation (§VI) is per-phase breakdowns: where did
//! the write spend its time — aggregation-tree build, shuffle, BAT
//! construction, compaction, file write — and how much work did a read
//! touch. This crate provides the counters, gauges, log-linear latency
//! histograms, and span timers the rest of the workspace records into,
//! with three design constraints:
//!
//! 1. **Near-zero cost when disabled.** Every recording helper first
//!    checks one global `AtomicBool`; when metrics are off (the default)
//!    a record is a relaxed load and a predictable branch. Nothing is
//!    allocated, no locks are taken, and — pinned by a determinism test
//!    in the workspace — instrumentation never changes a written byte.
//! 2. **Scoped registries for in-process parallelism.** The virtual
//!    cluster runs many MPI-style ranks as threads of one process. Each
//!    rank thread can install its own [`Registry`] scope so per-rank
//!    recordings don't collide, then drain it into a parent registry for
//!    cluster-wide aggregation (counters add, histograms merge
//!    bucket-wise, gauges keep their last value).
//! 3. **Dependency-free.** Std only, like `bat-wire`; snapshots
//!    serialize themselves to an aligned table or JSON by hand.
//!
//! The crate also hosts [`knobs`], the workspace's one table and reader
//! of `BAT_*` environment knobs: every crate that reads a knob already
//! depends on `bat-obs`, and a rejected value is itself an observation
//! (`config.invalid`).
//!
//! # Naming scheme
//!
//! Metric names are dotted paths, `<subsystem>.<operation>[.<detail>]`,
//! with a unit suffix on the leaf: `_ns` (span durations), `_bytes`,
//! `_msgs`, `_pages`, or a bare countable noun for event counters.
//! Examples: `write.shuffle.send_bytes`, `bat.morton_sort_ns`,
//! `read.query.treelets`.
//!
//! # Typical use
//!
//! ```
//! use std::sync::Arc;
//!
//! let reg = Arc::new(bat_obs::Registry::new());
//! let _on = bat_obs::enable();               // metrics off again when dropped
//! let _scope = bat_obs::scope(reg.clone());  // this thread records into `reg`
//!
//! bat_obs::counter_add("demo.events", 3);
//! {
//!     let _span = bat_obs::span("demo.work_ns");
//!     // ... timed work ...
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("demo.events"), Some(3));
//! assert!(snap.to_table().contains("demo.work_ns"));
//! ```

pub mod hist;
pub mod knobs;
pub mod snapshot;

pub use hist::{AtomicHistogram, HistData};
pub use snapshot::{HistSummary, Snapshot};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Metric cores
// ---------------------------------------------------------------------------

/// Monotone event counter.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-value gauge storing an `f64` (queue depths, utilizations).
#[derive(Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<AtomicHistogram>),
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A named collection of metrics.
///
/// Lookups go through a mutex-guarded map; the returned `Arc` handles
/// record lock-free. Instrumentation call sites record at per-phase /
/// per-request / per-treelet granularity (never per particle), so the
/// name lookup is off every per-element hot loop by construction.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide default registry (used when no scope is
    /// installed).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Counter handle, created on first use. Panics if `name` already
    /// names a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Gauge handle, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Histogram handle, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<AtomicHistogram> {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(AtomicHistogram::default())))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let mut snap = Snapshot::default();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => {
                    snap.histograms.push((name.clone(), h.load()));
                }
            }
        }
        snap
    }

    /// Fold every metric of `self` into `target` by name: counters add,
    /// histograms merge bucket-wise, gauges overwrite. Used when a
    /// rank-scoped registry drains into the cluster-level one.
    pub fn drain_into(&self, target: &Registry) {
        let snap = self.snapshot();
        for (name, v) in &snap.counters {
            target.counter(name).add(*v);
        }
        for (name, v) in &snap.gauges {
            target.gauge(name).set(*v);
        }
        for (name, data) in &snap.histograms {
            target.histogram(name).absorb(data);
        }
    }

    /// As [`Registry::drain_into`], targeting the calling thread's current
    /// registry (innermost scope, else the global default). This is what a
    /// cluster calls after joining its rank threads: each rank's scoped
    /// registry folds into whatever registry the launching thread records
    /// into.
    pub fn drain_into_current(&self) {
        with_current(|r| self.drain_into(r));
    }

    /// Remove every metric (counts reset to nothing, names forgotten).
    pub fn clear(&self) {
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

// ---------------------------------------------------------------------------
// Enablement and scoping
// ---------------------------------------------------------------------------

/// Process-wide fast flag every recording helper checks first.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Number of outstanding [`EnabledGuard`]s (enablement nests).
static ENABLE_DEPTH: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SCOPE: RefCell<Vec<Arc<Registry>>> = const { RefCell::new(Vec::new()) };
}

/// True when metrics are being recorded; instrumentation early-outs on
/// this (a relaxed load) before doing any other work.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on until the returned guard drops. Nests; recording
/// stays on while any guard is alive.
#[must_use = "metrics turn back off when the guard drops"]
pub fn enable() -> EnabledGuard {
    ENABLE_DEPTH.fetch_add(1, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    EnabledGuard { _priv: () }
}

/// Keeps metrics enabled while alive.
pub struct EnabledGuard {
    _priv: (),
}

impl Drop for EnabledGuard {
    fn drop(&mut self) {
        if ENABLE_DEPTH.fetch_sub(1, Ordering::Relaxed) == 1 {
            ENABLED.store(false, Ordering::Relaxed);
        }
    }
}

/// Install `registry` as this thread's recording target until the guard
/// drops (scopes nest; the innermost wins). Rank threads of a virtual
/// cluster each install their own so concurrent ranks don't collide.
#[must_use = "the scope is removed when the guard drops"]
pub fn scope(registry: Arc<Registry>) -> ScopeGuard {
    SCOPE.with(|s| s.borrow_mut().push(registry));
    ScopeGuard { _priv: () }
}

/// The calling thread's innermost scoped registry, if one is installed.
/// Work handed to helper threads installs it there with [`scope`], so it
/// is counted where the caller's own work is.
pub fn current_scope() -> Option<Arc<Registry>> {
    SCOPE.with(|s| s.borrow().last().cloned())
}

/// Pops the scope installed by [`scope`].
pub struct ScopeGuard {
    _priv: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Run `f` against the thread's current registry (innermost scope, else
/// the global default).
fn with_current<R>(f: impl FnOnce(&Registry) -> R) -> R {
    SCOPE.with(|s| match s.borrow().last() {
        Some(reg) => f(reg),
        None => f(Registry::global()),
    })
}

// ---------------------------------------------------------------------------
// Recording helpers (the API instrumentation sites call)
// ---------------------------------------------------------------------------

/// Add `n` to counter `name` in the current registry.
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    with_current(|r| r.counter(name).add(n));
}

/// Set gauge `name` to `v` in the current registry.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if !enabled() {
        return;
    }
    with_current(|r| r.gauge(name).set(v));
}

/// Record `v` into histogram `name` in the current registry.
#[inline]
pub fn observe(name: &str, v: u64) {
    if !enabled() {
        return;
    }
    with_current(|r| r.histogram(name).record(v));
}

/// Record a duration into histogram `name` as integer nanoseconds.
#[inline]
pub fn observe_duration(name: &str, d: std::time::Duration) {
    if !enabled() {
        return;
    }
    observe(name, d.as_nanos().min(u64::MAX as u128) as u64);
}

/// Time a region: records elapsed nanoseconds into histogram `name`
/// when the returned guard drops. When metrics are disabled this takes
/// no clock reading at all.
#[must_use = "the span records on drop; binding to _ drops immediately"]
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { name, start: None };
    }
    Span {
        name,
        start: Some(Instant::now()),
    }
}

/// Live span from [`span`].
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Finish early (equivalent to dropping).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            // Re-check: if metrics were disabled mid-span, drop the
            // reading rather than recording into a disabled registry.
            if enabled() {
                observe_duration(self.name, start.elapsed());
            }
        }
    }
}

/// Time a closure, recording into histogram `name`.
#[inline]
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = span(name);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests here share the process-wide ENABLED flag; serialize them.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = serial();
        let reg = Arc::new(Registry::new());
        let _scope = scope(reg.clone());
        counter_add("c", 1);
        observe("h", 5);
        gauge_set("g", 1.0);
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn scoped_recording_lands_in_scope_not_global() {
        let _g = serial();
        let reg = Arc::new(Registry::new());
        let _on = enable();
        {
            let _scope = scope(reg.clone());
            counter_add("scoped.c", 2);
            counter_add("scoped.c", 3);
            observe("scoped.h_ns", 1000);
            gauge_set("scoped.g", 0.5);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("scoped.c"), Some(5));
        assert_eq!(snap.histogram("scoped.h_ns").map(|h| h.count), Some(1));
        assert_eq!(snap.gauge("scoped.g"), Some(0.5));
        assert_eq!(Registry::global().snapshot().counter("scoped.c"), None);
    }

    #[test]
    fn current_scope_hands_the_scope_to_another_thread() {
        let _g = serial();
        let reg = Arc::new(Registry::new());
        let _on = enable();
        assert!(current_scope().is_none());
        let _s = scope(reg.clone());
        let handed = current_scope().expect("a scope is installed");
        std::thread::spawn(move || {
            let _s = scope(handed);
            counter_add("handed.c", 4);
        })
        .join()
        .unwrap();
        assert_eq!(reg.snapshot().counter("handed.c"), Some(4));
        assert_eq!(Registry::global().snapshot().counter("handed.c"), None);
    }

    #[test]
    fn scopes_nest_innermost_wins() {
        let _g = serial();
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        let _on = enable();
        let _s1 = scope(outer.clone());
        {
            let _s2 = scope(inner.clone());
            counter_add("n", 1);
        }
        counter_add("n", 10);
        assert_eq!(inner.snapshot().counter("n"), Some(1));
        assert_eq!(outer.snapshot().counter("n"), Some(10));
    }

    #[test]
    fn drain_into_adds_counters_and_merges_hists() {
        let _g = serial();
        let a = Registry::new();
        let b = Registry::new();
        a.counter("x").add(4);
        b.counter("x").add(6);
        a.histogram("h").record(10);
        b.histogram("h").record(20);
        a.drain_into(&b);
        let snap = b.snapshot();
        assert_eq!(snap.counter("x"), Some(10));
        assert_eq!(snap.histogram("h").map(|h| h.count), Some(2));
    }

    #[test]
    fn span_times_into_histogram() {
        let _g = serial();
        let reg = Arc::new(Registry::new());
        let _on = enable();
        let _scope = scope(reg.clone());
        {
            let _span = span("work_ns");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let h = reg
            .snapshot()
            .histogram("work_ns")
            .cloned()
            .expect("recorded");
        assert_eq!(h.count, 1);
        assert!(h.min >= 1_000_000, "slept 2ms, recorded {}ns", h.min);
    }

    #[test]
    fn enable_nests() {
        let _g = serial();
        let a = enable();
        let b = enable();
        drop(a);
        assert!(enabled(), "still one guard alive");
        drop(b);
        assert!(!enabled());
    }
}
