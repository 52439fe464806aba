//! The one table of `BAT_*` environment knobs and the one reader of them
//! (DESIGN.md "Configuration").
//!
//! Every knob is a [`Knob`] constant — name, documented default, meaning,
//! value grammar — and [`ENV_KNOBS`] lists them all; `batcli env` and the
//! README environment table are printed from it. Consumers call a getter
//! ([`Knob::get`], [`Knob::uint`]) **when they construct the object the
//! knob configures** (writer, `BatFile`, `Dataset`, `ShardRouter`,
//! supervisor, cluster) and keep the result; nothing here caches, so a
//! test or bench that flips a variable between two constructions gets two
//! configurations in one process.
//!
//! A value is trimmed and, unless its grammar is free text, ASCII-
//! lowercased before parsing. An unset or empty variable yields `None`
//! (the consumer applies the documented default). So does a value outside
//! the grammar, but that also prints one `warning: ignoring BAT_X=…` line
//! per knob per process on stderr and bumps the `config.invalid` counter,
//! so a typo cannot silently select the default.

use std::ffi::OsString;
use std::sync::{Mutex, MutexGuard};
use Grammar::{Bytes, Text, Uint, Word, WordOrUint};

/// What values a knob accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grammar {
    /// One of the listed spellings (aliases included).
    Word(&'static [&'static str]),
    /// Unsigned integer, at least `min`.
    Uint { min: u64 },
    /// One of the listed spellings or an unsigned integer (`auto|off|<ms>`).
    WordOrUint(&'static [&'static str]),
    /// Byte count with an optional `k`/`m`/`g` suffix.
    Bytes,
    /// Free text its consumer validates (topology specs, attribute
    /// names): trimmed, case kept.
    Text,
}

/// One row of the knob table.
#[derive(Debug)]
pub struct Knob {
    /// The environment variable.
    pub name: &'static str,
    /// The default as documented; parenthesized when unset means "absent"
    /// rather than a value of the grammar.
    pub default: &'static str,
    /// One-line meaning.
    pub meaning: &'static str,
    pub grammar: Grammar,
}

macro_rules! knob_table {
    ($($id:ident = $name:literal, $default:literal, $grammar:expr, $meaning:literal;)*) => {
        $(
            #[doc = $meaning]
            pub const $id: Knob = Knob {
                name: $name,
                default: $default,
                meaning: $meaning,
                grammar: $grammar,
            };
        )*
        /// Every `BAT_*` knob the workspace reads.
        pub const ENV_KNOBS: &[Knob] = &[$($id),*];
    };
}

knob_table! {
    // Read by `shims/rayon` (a stand-in for a third-party crate, so it
    // cannot depend on this one); the row documents and validates it.
    THREADS = "BAT_THREADS", "(available cores)", Uint { min: 0 },
        "thread count for builds/queries (caller + helpers)";
    TRANSPORT = "BAT_TRANSPORT", "channel",
        Word(&["channel", "thread", "threads", "socket", "tcp", "unix", "sim", "simulated"]),
        "cluster transport: channel | socket | sim";
    CLUSTER = "BAT_CLUSTER", "(thread-hosted)", Text,
        "multi-process topology spec (transport=;rank=;size=;peers=)";
    RECV_TIMEOUT_MS = "BAT_RECV_TIMEOUT_MS", "(unbounded)", Uint { min: 0 },
        "default deadline for bounded receives (0 = unbounded)";
    SHARD_WAIT_MS = "BAT_SHARD_WAIT_MS", "30000", Uint { min: 0 },
        "router wait on a silent shard (no query deadline)";
    SHARD_REPLICAS = "BAT_SHARD_REPLICAS", "1", Uint { min: 1 },
        "replicas per leaf slice (primary + N-1 failover targets)";
    SHARD_HEDGE_MS = "BAT_SHARD_HEDGE_MS", "auto", WordOrUint(&["auto", "off"]),
        "hedged-read trigger: auto (3x streaming p99) | off | fixed ms";
    SHARD_HEARTBEAT_MS = "BAT_SHARD_HEARTBEAT_MS", "500", Uint { min: 1 },
        "supervisor ping interval for shard workers";
    SHARD_MISSED_BEATS = "BAT_SHARD_MISSED_BEATS", "4", Uint { min: 1 },
        "missed pongs before the supervisor respawns a worker";
    CHAOS_SEED = "BAT_CHAOS_SEED", "(fixed)", Uint { min: 0 },
        "seed for the randomized shard chaos test schedule";
    CACHE_BYTES = "BAT_CACHE_BYTES", "(off)", Bytes,
        "treelet page cache budget (accepts k/m/g suffixes; 0 = off)";
    READ_BACKEND = "BAT_READ_BACKEND", "mmap", Word(&["mmap", "range-file", "range-sim"]),
        "reader backend: mmap | range-file | range-sim";
    TREELET_CODEC = "BAT_TREELET_CODEC", "v1", Word(&["v1", "v2-lossless"]),
        "treelet write codec: v1 | v2-lossless";
    INDEX_ATTRS = "BAT_INDEX_ATTRS", "(none)", Text,
        "attributes to B-tree index at write time: all | name,name,...";
    PLAN_STRATEGY = "BAT_PLAN_STRATEGY", "auto", Word(&["auto", "scan", "bitmap", "index"]),
        "filter-plan strategy: auto | scan | bitmap | index";
}

/// Parse `"4096"`, `"64k"`, `"256m"`, `"2g"` (case-insensitive).
pub fn parse_bytes(s: &str) -> Option<u64> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, shift) = match t.as_bytes().last()? {
        b'k' => (&t[..t.len() - 1], 10),
        b'm' => (&t[..t.len() - 1], 20),
        b'g' => (&t[..t.len() - 1], 30),
        _ => (t.as_str(), 0),
    };
    digits.trim().parse::<u64>().ok()?.checked_mul(1 << shift)
}

impl Knob {
    /// `raw` normalized under this knob's grammar — trimmed and, unless
    /// free text, ASCII-lowercased; `None` when it is outside the grammar.
    pub fn parse(&self, raw: &str) -> Option<String> {
        let t = match self.grammar {
            Text => raw.trim().to_string(),
            _ => raw.trim().to_ascii_lowercase(),
        };
        let uint = |min: u64| t.parse::<u64>().is_ok_and(|n| n >= min);
        let valid = match self.grammar {
            Word(words) => words.contains(&t.as_str()),
            Uint { min } => uint(min),
            WordOrUint(words) => words.contains(&t.as_str()) || uint(0),
            Bytes => parse_bytes(&t).is_some(),
            Text => true,
        };
        valid.then_some(t)
    }

    /// The variable as set: `None` when unset or empty, `Err(raw)` when
    /// outside the grammar.
    fn read(&self) -> Option<Result<String, String>> {
        let raw = std::env::var_os(self.name)?;
        let raw = raw.to_string_lossy();
        if raw.trim().is_empty() {
            return None;
        }
        Some(self.parse(&raw).ok_or_else(|| raw.into_owned()))
    }

    /// The normalized value in effect from the environment, read now.
    /// `None` means the documented default applies — because the variable
    /// is unset or empty, or because its value is outside the grammar
    /// (warned once per knob per process, counted in `config.invalid`).
    pub fn get(&self) -> Option<String> {
        match self.read()? {
            Ok(v) => Some(v),
            Err(raw) => {
                crate::counter_add("config.invalid", 1);
                static WARNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
                let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
                if !warned.contains(&self.name) {
                    warned.push(self.name);
                    eprintln!(
                        "warning: ignoring {}={raw:?}, not valid for \"{}\"; using the default {}",
                        self.name, self.meaning, self.default
                    );
                }
                None
            }
        }
    }

    /// [`Knob::get`] as an integer (a byte count with its suffix applied).
    pub fn uint(&self) -> Option<u64> {
        parse_bytes(&self.get()?)
    }

    /// The effective value as `batcli env` prints it, and its origin:
    /// `default` (unset or empty), `set`, or `invalid` (set outside the
    /// grammar, so ignored). Does not warn or count.
    pub fn effective(&self) -> (String, &'static str) {
        match self.read() {
            None => (self.default.to_string(), "default"),
            Some(Ok(v)) => (v, "set"),
            Some(Err(_)) => (self.default.to_string(), "invalid"),
        }
    }
}

/// `BAT_*` variables present in the environment that name no table row
/// (a misspelt knob is ignored exactly like any unknown variable, so this
/// is the only place it shows up). Sorted.
pub fn unknown_vars() -> Vec<String> {
    let mut unknown: Vec<String> = std::env::vars_os()
        .map(|(name, _)| name.to_string_lossy().into_owned())
        .filter(|name| name.starts_with("BAT_") && ENV_KNOBS.iter().all(|k| k.name != name))
        .collect();
    unknown.sort();
    unknown
}

/// Scoped knob override for tests and benches: sets (or, with `None`,
/// unsets) each variable, restores the previous values on drop, and
/// serializes holders process-wide — the environment is global, so two
/// tests overriding knobs must not overlap. Do not nest on one thread.
pub struct EnvGuard {
    saved: Vec<(&'static str, Option<OsString>)>,
    _serial: MutexGuard<'static, ()>,
}

impl EnvGuard {
    pub fn set(vars: &[(&Knob, Option<&str>)]) -> EnvGuard {
        static SERIAL: Mutex<()> = Mutex::new(());
        let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let saved = vars
            .iter()
            .map(|&(knob, value)| {
                let old = std::env::var_os(knob.name);
                match value {
                    Some(v) => std::env::set_var(knob.name, v),
                    None => std::env::remove_var(knob.name),
                }
                (knob.name, old)
            })
            .collect();
        EnvGuard {
            saved,
            _serial: serial,
        }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        // Reverse order, so a knob listed twice ends at its first saved value.
        for (name, old) in self.saved.drain(..).rev() {
            match old {
                Some(v) => std::env::set_var(name, v),
                None => std::env::remove_var(name),
            }
        }
    }
}
