//! Deterministic fault injection for the write/read pipeline.
//!
//! A *failpoint* is a named site in the code (`"write.leaf"`,
//! `"comm.send"`, …) where a configured fault can trigger. Sites are
//! compiled in only with the `failpoints` cargo feature; without it every
//! entry point here is an inline no-op, so hot paths and golden byte
//! hashes are untouched (the fast path with the feature *on* but no
//! faults configured is a single relaxed atomic load).
//!
//! Faults are configured programmatically ([`configure_site`]) or from the
//! `BAT_FAULTS` environment variable ([`init_from_env`], grammar below),
//! and trigger deterministically: a per-site hit counter (optionally
//! filtered to one rank) decides which hit fires. There is no randomness —
//! a given configuration fails the same way every run.
//!
//! ## `BAT_FAULTS` grammar
//!
//! ```text
//! BAT_FAULTS = spec *( ";" spec )
//! spec       = site "=" action [ ":" arg ] *( "@" key "=" value )
//! action     = "error" | "torn" | "kill" | "delay"
//! key        = "nth" | "every" | "rank" | "limit"
//! ```
//!
//! Examples:
//!
//! ```text
//! BAT_FAULTS="write.leaf=torn:4096@nth=1"      # 1st leaf write torn after 4 KiB
//! BAT_FAULTS="write.shuffle.recv=kill@rank=2"  # rank 2 dies entering the shuffle
//! BAT_FAULTS="comm.send=error@every=3@limit=2" # every 3rd send fails, twice
//! BAT_FAULTS="comm.recv=delay:50"              # every recv sleeps 50 ms first
//! ```
//!
//! Actions:
//! - `error` — the site reports an injected [`std::io::Error`].
//! - `torn:N` — a write site truncates after `N` bytes (see [`TornWriter`]).
//! - `kill` — the rank at the site "dies": it marks itself dead to the
//!   communicator and unwinds with an error, never completing the
//!   collective protocol. Survivors must rely on receive deadlines.
//! - `delay:MS` — the site sleeps `MS` milliseconds, then proceeds
//!   normally ([`fire`] performs the sleep itself and reports no fault).
//!
//! Every triggered fault increments the `faults.triggered` obs counter and
//! the process-wide [`triggered_total`].

use std::io;

/// A fault a site must act on. `Delay` is handled inside [`fire`] (the
/// sleep happens there), so call sites only ever see these three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the operation with an injected I/O error.
    Error,
    /// Truncate the write after this many bytes, then fail.
    Torn(u64),
    /// The rank dies here: mark it dead and abandon the protocol.
    Kill,
}

/// The action configured for a site (the four-verb surface of the
/// `BAT_FAULTS` grammar; `Delay` never escapes [`fire`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    Error,
    Torn(u64),
    Kill,
    Delay(u64),
}

/// The injected-error constructor every site uses, so tests and operators
/// can recognize injected failures by message.
pub fn injected_error(site: &str, what: &str) -> io::Error {
    io::Error::other(format!("injected fault at {site}: {what}"))
}

/// An `io::Write` adapter that forwards the first `n` bytes and then fails
/// every subsequent write — the on-disk effect of a crash mid-write.
pub struct TornWriter<W: io::Write> {
    inner: W,
    remaining: u64,
    site: &'static str,
}

impl<W: io::Write> TornWriter<W> {
    pub fn new(inner: W, after_bytes: u64, site: &'static str) -> TornWriter<W> {
        TornWriter {
            inner,
            remaining: after_bytes,
            site,
        }
    }
}

impl<W: io::Write> io::Write for TornWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(injected_error(self.site, "torn write"));
        }
        let take = buf.len().min(self.remaining as usize);
        let written = self.inner.write(&buf[..take])?;
        self.remaining -= written as u64;
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::{Fault, FaultAction};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    #[derive(Debug, Clone)]
    struct FaultPoint {
        action: FaultAction,
        /// Fire only on the `nth` (1-based) hit.
        nth: Option<u64>,
        /// Fire on every `every`-th hit (ignored when `nth` is set).
        every: Option<u64>,
        /// Fire only on this rank (requires [`set_rank`] on the thread).
        rank: Option<u32>,
        /// Stop firing after this many triggers.
        limit: Option<u64>,
        hits: u64,
        fired: u64,
    }

    impl FaultPoint {
        fn should_fire(&mut self, current_rank: Option<usize>) -> bool {
            if let Some(r) = self.rank {
                if current_rank != Some(r as usize) {
                    return false;
                }
            }
            self.hits += 1;
            if let Some(limit) = self.limit {
                if self.fired >= limit {
                    return false;
                }
            }
            let due = match (self.nth, self.every) {
                (Some(n), _) => self.hits == n,
                (None, Some(k)) => k != 0 && self.hits.is_multiple_of(k),
                (None, None) => true,
            };
            if due {
                self.fired += 1;
            }
            due
        }
    }

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static TRIGGERED: AtomicU64 = AtomicU64::new(0);

    fn registry() -> &'static Mutex<HashMap<String, FaultPoint>> {
        static REG: OnceLock<Mutex<HashMap<String, FaultPoint>>> = OnceLock::new();
        REG.get_or_init(|| Mutex::new(HashMap::new()))
    }

    thread_local! {
        static RANK: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
    }

    pub fn compiled() -> bool {
        true
    }

    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    pub fn set_rank(rank: Option<usize>) {
        RANK.with(|r| r.set(rank));
    }

    pub fn current_rank() -> Option<usize> {
        RANK.with(|r| r.get())
    }

    pub fn reset() {
        ENABLED.store(false, Ordering::Relaxed);
        registry().lock().unwrap().clear();
    }

    pub fn configure_site(
        site: &str,
        action: FaultAction,
        nth: Option<u64>,
        every: Option<u64>,
        rank: Option<u32>,
        limit: Option<u64>,
    ) {
        registry().lock().unwrap().insert(
            site.to_string(),
            FaultPoint {
                action,
                nth,
                every,
                rank,
                limit,
                hits: 0,
                fired: 0,
            },
        );
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// Parse one `site=action[:arg][@key=val]…` spec.
    fn parse_spec(spec: &str) -> Result<(), String> {
        let (site, rest) = spec
            .split_once('=')
            .ok_or_else(|| format!("fault spec {spec:?}: missing '='"))?;
        let mut parts = rest.split('@');
        let action_str = parts.next().unwrap_or("");
        let (verb, arg) = match action_str.split_once(':') {
            Some((v, a)) => (v, Some(a)),
            None => (action_str, None),
        };
        let num = |what: &str, s: Option<&str>| -> Result<u64, String> {
            s.ok_or_else(|| format!("fault spec {spec:?}: {what} needs a numeric argument"))?
                .parse::<u64>()
                .map_err(|_| format!("fault spec {spec:?}: bad {what} argument"))
        };
        let action = match verb {
            "error" => FaultAction::Error,
            "torn" => FaultAction::Torn(num("torn", arg)?),
            "kill" => FaultAction::Kill,
            "delay" => FaultAction::Delay(num("delay", arg)?),
            other => return Err(format!("fault spec {spec:?}: unknown action {other:?}")),
        };
        let (mut nth, mut every, mut rank, mut limit) = (None, None, None, None);
        for kv in parts {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("fault spec {spec:?}: bad trigger {kv:?}"))?;
            let v: u64 = v
                .parse()
                .map_err(|_| format!("fault spec {spec:?}: bad value in {kv:?}"))?;
            match k {
                "nth" => nth = Some(v),
                "every" => every = Some(v),
                "rank" => rank = Some(v as u32),
                "limit" => limit = Some(v),
                other => return Err(format!("fault spec {spec:?}: unknown trigger {other:?}")),
            }
        }
        configure_site(site.trim(), action, nth, every, rank, limit);
        Ok(())
    }

    pub fn configure(specs: &str) -> Result<(), String> {
        for spec in specs.split(';') {
            let spec = spec.trim();
            if !spec.is_empty() {
                parse_spec(spec)?;
            }
        }
        Ok(())
    }

    /// Read `BAT_FAULTS` once per process; later calls are no-ops.
    pub fn init_from_env() {
        static INIT: OnceLock<()> = OnceLock::new();
        INIT.get_or_init(|| {
            if let Some(spec) = bat_obs::knobs::FAULTS.get() {
                if let Err(e) = configure(&spec) {
                    eprintln!("warning: ignoring BAT_FAULTS: {e}");
                }
            }
        });
    }

    pub fn fire(site: &str) -> Option<Fault> {
        if !enabled() {
            return None;
        }
        let action = {
            let mut reg = registry().lock().unwrap();
            let point = reg.get_mut(site)?;
            if !point.should_fire(current_rank()) {
                return None;
            }
            point.action
        };
        TRIGGERED.fetch_add(1, Ordering::Relaxed);
        bat_obs::counter_add("faults.triggered", 1);
        match action {
            FaultAction::Error => Some(Fault::Error),
            FaultAction::Torn(n) => Some(Fault::Torn(n)),
            FaultAction::Kill => Some(Fault::Kill),
            FaultAction::Delay(ms) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                None
            }
        }
    }

    pub fn triggered_total() -> u64 {
        TRIGGERED.load(Ordering::Relaxed)
    }

    pub fn hits(site: &str) -> u64 {
        registry().lock().unwrap().get(site).map_or(0, |p| p.hits)
    }
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    //! The production build: every entry point is an inline no-op the
    //! optimizer deletes, so instrumented call sites cost nothing.
    use super::{Fault, FaultAction};

    #[inline(always)]
    pub fn compiled() -> bool {
        false
    }

    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    #[inline(always)]
    pub fn set_rank(_rank: Option<usize>) {}

    #[inline(always)]
    pub fn current_rank() -> Option<usize> {
        None
    }

    #[inline(always)]
    pub fn reset() {}

    #[inline(always)]
    pub fn configure_site(
        _site: &str,
        _action: FaultAction,
        _nth: Option<u64>,
        _every: Option<u64>,
        _rank: Option<u32>,
        _limit: Option<u64>,
    ) {
    }

    #[inline(always)]
    pub fn configure(_specs: &str) -> Result<(), String> {
        Err("bat-faults was built without the `failpoints` feature".into())
    }

    #[inline(always)]
    pub fn init_from_env() {}

    #[inline(always)]
    pub fn fire(_site: &str) -> Option<Fault> {
        None
    }

    #[inline(always)]
    pub fn triggered_total() -> u64 {
        0
    }

    #[inline(always)]
    pub fn hits(_site: &str) -> u64 {
        0
    }
}

pub use imp::{
    compiled, configure, configure_site, current_rank, enabled, fire, hits, init_from_env, reset,
    set_rank, triggered_total,
};

/// Fire a site whose only meaningful actions are `Error`/`Delay`; `Torn`
/// and `Kill` configured here degrade to a plain injected error.
pub fn fire_io(site: &str) -> io::Result<()> {
    match fire(site) {
        None => Ok(()),
        Some(Fault::Error) => Err(injected_error(site, "I/O error")),
        Some(Fault::Torn(_)) => Err(injected_error(site, "torn write")),
        Some(Fault::Kill) => Err(injected_error(site, "rank killed")),
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// The registry is process-global; serialize tests that mutate it.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_registry_fires_nothing() {
        let _guard = serial();
        reset();
        assert!(!enabled());
        assert_eq!(fire("write.leaf"), None);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _guard = serial();
        reset();
        configure("write.leaf=error@nth=2").unwrap();
        assert_eq!(fire("write.leaf"), None);
        assert_eq!(fire("write.leaf"), Some(Fault::Error));
        assert_eq!(fire("write.leaf"), None);
        assert_eq!(hits("write.leaf"), 3);
        reset();
    }

    #[test]
    fn every_and_limit_compose() {
        let _guard = serial();
        reset();
        configure("comm.send=error@every=2@limit=2").unwrap();
        let fired: Vec<bool> = (0..8).map(|_| fire("comm.send").is_some()).collect();
        assert_eq!(
            fired,
            vec![false, true, false, true, false, false, false, false]
        );
        reset();
    }

    #[test]
    fn rank_filter_requires_matching_thread_rank() {
        let _guard = serial();
        reset();
        configure("write.shuffle.recv=kill@rank=2").unwrap();
        set_rank(Some(1));
        assert_eq!(fire("write.shuffle.recv"), None);
        set_rank(Some(2));
        assert_eq!(fire("write.shuffle.recv"), Some(Fault::Kill));
        set_rank(None);
        reset();
    }

    #[test]
    fn parse_errors_are_reported_not_panicked() {
        let _guard = serial();
        reset();
        assert!(configure("no-equals-sign").is_err());
        assert!(configure("site=explode").is_err());
        assert!(configure("site=torn").is_err()); // torn needs :N
        assert!(configure("site=error@nth=x").is_err());
        reset();
    }

    #[test]
    fn torn_writer_truncates_at_the_configured_byte() {
        use std::io::Write;
        let mut out = Vec::new();
        let mut w = TornWriter::new(&mut out, 10, "test.site");
        assert!(w.write_all(&[0xAB; 7]).is_ok());
        assert!(w.write_all(&[0xCD; 7]).is_err());
        assert_eq!(out.len(), 10);
    }
}
