//! Deterministic fault injection for the write/read pipeline.
//!
//! A *failpoint* is a named site in the code (`"write.leaf"`,
//! `"comm.send"`, …) where a configured fault can trigger. Sites are part
//! of every build. An idle site (nothing configured) costs one relaxed
//! atomic load at the call site; sites sit per leaf write, message, GET or
//! query, never per point, and an idle build writes byte-identical output.
//!
//! Faults are configured only through this API, by tests: [`configure`]
//! takes the spec grammar below, [`configure_site`] the parsed form. No
//! environment variable arms a site, so a running process cannot be made
//! to fail from outside. Triggers are deterministic: a per-site hit
//! counter (optionally filtered to one rank) decides which hit fires.
//! There is no randomness — a given configuration fails the same way
//! every run.
//!
//! ## Spec grammar
//!
//! ```text
//! specs  = spec *( ";" spec )
//! spec   = site "=" action [ ":" arg ] *( "@" key "=" value )
//! action = "error" | "torn" | "kill" | "delay"
//! key    = "nth" | "every" | "rank" | "limit"
//! ```
//!
//! `nth` and `every` are at least 1 and `rank` fits a `u32`; a spec that
//! breaks the grammar is an `Err` and [`configure`] then installs nothing.
//! Examples:
//!
//! ```text
//! write.leaf=torn:4096@nth=1      # 1st leaf write torn after 4 KiB
//! write.shuffle.recv=kill@rank=2  # rank 2 dies entering the shuffle
//! comm.send=error@every=3@limit=2 # every 3rd send fails, twice
//! comm.recv=delay:50              # every recv sleeps 50 ms first
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

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

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

/// The action configured for a site (the four verbs of the spec
/// grammar; `Delay` never escapes [`fire`]).
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
    fn new(
        action: FaultAction,
        nth: Option<u64>,
        every: Option<u64>,
        rank: Option<u32>,
        limit: Option<u64>,
    ) -> FaultPoint {
        FaultPoint {
            action,
            nth,
            every,
            rank,
            limit,
            hits: 0,
            fired: 0,
        }
    }

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

/// Whether any site is configured (cleared by [`reset`]).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag this thread with its rank, so `@rank=R` triggers can target it.
pub fn set_rank(rank: Option<usize>) {
    RANK.with(|r| r.set(rank));
}

pub fn current_rank() -> Option<usize> {
    RANK.with(|r| r.get())
}

/// Disarm every site and forget their hit counters.
pub fn reset() {
    ENABLED.store(false, Ordering::Relaxed);
    registry().lock().unwrap().clear();
}

/// Arm `site`, replacing whatever was configured there.
pub fn configure_site(
    site: &str,
    action: FaultAction,
    nth: Option<u64>,
    every: Option<u64>,
    rank: Option<u32>,
    limit: Option<u64>,
) {
    install([(site, FaultPoint::new(action, nth, every, rank, limit))]);
}

fn install<'a>(points: impl IntoIterator<Item = (&'a str, FaultPoint)>) {
    let mut reg = registry().lock().unwrap();
    for (site, point) in points {
        reg.insert(site.to_string(), point);
    }
    ENABLED.store(true, Ordering::Relaxed);
}

/// Parse one `site=action[:arg][@key=val]…` spec.
fn parse_spec(spec: &str) -> Result<(&str, FaultPoint), String> {
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
        let bad = || format!("fault spec {spec:?}: bad value in {kv:?}");
        let v: u64 = v.parse().map_err(|_| bad())?;
        // A zero `nth`/`every` could never fire: reject it rather than arm
        // a site that silently checks nothing.
        let count = || (v >= 1).then_some(v).ok_or_else(bad);
        match k {
            "nth" => nth = Some(count()?),
            "every" => every = Some(count()?),
            "rank" => rank = Some(u32::try_from(v).map_err(|_| bad())?),
            "limit" => limit = Some(v),
            other => return Err(format!("fault spec {spec:?}: unknown trigger {other:?}")),
        }
    }
    Ok((
        site.trim(),
        FaultPoint::new(action, nth, every, rank, limit),
    ))
}

/// Arm every `;`-separated spec. All-or-nothing: if any spec fails to
/// parse, the error is returned and no site is armed.
pub fn configure(specs: &str) -> Result<(), String> {
    let points = specs
        .split(';')
        .map(str::trim)
        .filter(|spec| !spec.is_empty())
        .map(parse_spec)
        .collect::<Result<Vec<_>, _>>()?;
    install(points);
    Ok(())
}

/// The fault to act on at `site`, if one is due. The idle check is inlined
/// into the caller; only an armed registry pays for the lookup.
#[inline]
pub fn fire(site: &str) -> Option<Fault> {
    if !enabled() {
        return None;
    }
    fire_armed(site)
}

#[cold]
#[inline(never)]
fn fire_armed(site: &str) -> Option<Fault> {
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

/// Fire a site whose only meaningful actions are `Error`/`Delay`; `Torn`
/// and `Kill` configured here degrade to a plain injected error.
#[inline]
pub fn fire_io(site: &str) -> io::Result<()> {
    match fire(site) {
        None => Ok(()),
        Some(Fault::Error) => Err(injected_error(site, "I/O error")),
        Some(Fault::Torn(_)) => Err(injected_error(site, "torn write")),
        Some(Fault::Kill) => Err(injected_error(site, "rank killed")),
    }
}

#[cfg(test)]
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
        for bad in [
            "no-equals-sign",
            "site=explode",
            "site=torn", // torn needs :N
            "site=error@nth=x",
            "site=error@rank=4294967297", // not rank 1
            "site=error@nth=0",           // could never fire
            "site=error@every=0",         // could never fire
            "write.leaf=error;site=explode",
        ] {
            assert!(configure(bad).is_err(), "{bad:?} accepted");
        }
        // A rejected spec list arms none of its specs, not even the ones
        // before the bad one.
        assert!(!enabled());
        assert_eq!(fire("write.leaf"), None);
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
