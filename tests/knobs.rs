//! The `BAT_*` knob table (`bat_obs::knobs`, DESIGN.md "Configuration"):
//! every row parses what it documents, a value outside the grammar is
//! visible, each knob is read when the object it configures is built —
//! never later — and the table is the only place the workspace reads the
//! environment for a knob.

mod common;

use bat_comm::{Cluster, TransportKind};
use bat_geom::{Aabb, Vec3};
use bat_layout::codec::Codec;
use bat_layout::format::{write_bat_indexed, VERSION, VERSION_V2};
use bat_layout::source::RangeConfig;
use bat_layout::{
    AttributeDesc, BatBuilder, BatConfig, BatFile, IndexSpec, ParticleSet, PlanStrategy, Query,
};
use bat_obs::knobs::{self, EnvGuard, Grammar, Knob, ENV_KNOBS};
use bat_stream::{run_shard, ShardQueryError, ShardRouter, SupervisorConfig, ROUTER_RANK};
use common::{build_test_dataset, BuildOpts, Workload};
use libbat::{Dataset, ReadBackend};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

// The tests below put transient values into the process environment (a v2
// codec, a fault spec, a 2 s receive deadline…) that the other tests'
// writers, clusters and datasets would pick up, so each holds
// `common::serial()`.

/// The typed value a spelling must come out as: the normalized string
/// from [`Knob::get`], or the number from [`Knob::uint`].
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Uint(u64),
}

fn word(w: &str) -> Value {
    Value::Str(w.to_string())
}

/// Read `knob` from the environment through the getter `like` calls for.
fn typed(knob: &Knob, like: &Value) -> Option<Value> {
    match like {
        Value::Str(_) => knob.get().map(Value::Str),
        Value::Uint(_) => knob.uint().map(Value::Uint),
    }
}

/// One row of expectations per knob: the typed value of its documented
/// default (`None` for a parenthesized "absent" default), every documented
/// spelling with its typed value, and one value outside the grammar
/// (`None` for free-text knobs, which accept anything).
type Case = (
    &'static Knob,
    Option<Value>,
    Vec<(&'static str, Value)>,
    Option<&'static str>,
);

fn cases() -> Vec<Case> {
    use Value::Uint;
    vec![
        (
            &knobs::THREADS,
            None,
            vec![("1", Uint(1)), ("4", Uint(4))],
            Some("four"),
        ),
        (
            &knobs::TRANSPORT,
            Some(word("channel")),
            vec![
                ("channel", word("channel")),
                ("thread", word("thread")),
                ("threads", word("threads")),
                ("socket", word("socket")),
                ("tcp", word("tcp")),
                ("unix", word("unix")),
                ("sim", word("sim")),
                ("simulated", word("simulated")),
            ],
            Some("sockets"),
        ),
        (
            &knobs::CLUSTER,
            None,
            vec![(
                "transport=unix;rank=0;size=2;peers=/tmp/A.sock,/tmp/b.sock",
                word("transport=unix;rank=0;size=2;peers=/tmp/A.sock,/tmp/b.sock"),
            )],
            None,
        ),
        (
            &knobs::RECV_TIMEOUT_MS,
            None,
            vec![("2000", Uint(2000)), ("0", Uint(0))],
            Some("2s"),
        ),
        (
            &knobs::SHARD_WAIT_MS,
            Some(Uint(30_000)),
            vec![("15000", Uint(15_000))],
            Some("-1"),
        ),
        (
            &knobs::SHARD_REPLICAS,
            Some(Uint(1)),
            vec![("2", Uint(2))],
            Some("two"),
        ),
        (
            &knobs::SHARD_HEDGE_MS,
            Some(word("auto")),
            vec![
                ("auto", word("auto")),
                ("off", word("off")),
                ("0", Uint(0)),
                ("10", Uint(10)),
            ],
            Some("fast"),
        ),
        (
            &knobs::SHARD_HEARTBEAT_MS,
            Some(Uint(500)),
            vec![("250", Uint(250))],
            Some("0"),
        ),
        (
            &knobs::SHARD_MISSED_BEATS,
            Some(Uint(4)),
            vec![("2", Uint(2))],
            Some("0"),
        ),
        (
            &knobs::CHAOS_SEED,
            None,
            vec![("3128707589", Uint(3_128_707_589))],
            Some("0xBA7C"),
        ),
        (
            &knobs::CACHE_BYTES,
            None,
            vec![
                ("4096", Uint(4096)),
                ("64k", Uint(64 << 10)),
                ("2m", Uint(2 << 20)),
                ("1g", Uint(1 << 30)),
                ("0", Uint(0)),
            ],
            Some("lots"),
        ),
        (
            &knobs::READ_BACKEND,
            Some(word("mmap")),
            vec![
                ("mmap", word("mmap")),
                ("range-file", word("range-file")),
                ("range-sim", word("range-sim")),
            ],
            Some("range_sim"),
        ),
        (
            &knobs::TREELET_CODEC,
            Some(word("v1")),
            vec![("v1", word("v1")), ("v2-lossless", word("v2-lossless"))],
            // The deleted lossy codec's spelling.
            Some("v2-lossy"),
        ),
        (
            &knobs::INDEX_ATTRS,
            None,
            vec![
                ("all", word("all")),
                ("Mass,local_density", word("Mass,local_density")),
            ],
            None,
        ),
        (
            &knobs::PLAN_STRATEGY,
            Some(word("auto")),
            vec![
                ("auto", word("auto")),
                ("scan", word("scan")),
                ("bitmap", word("bitmap")),
                ("index", word("index")),
            ],
            Some("btree"),
        ),
    ]
}

/// (a) Table-driven: defaults, every documented spelling (bare, and
/// upper-cased inside whitespace), and one invalid value per knob.
#[test]
fn every_knob_parses_its_documented_values() {
    let _serial = common::serial();
    let cases = cases();
    let covered: Vec<&str> = cases.iter().map(|c| c.0.name).collect();
    let table: Vec<&str> = ENV_KNOBS.iter().map(|k| k.name).collect();
    assert_eq!(covered, table, "one case per table row, in table order");
    assert_eq!(table.len(), 15);

    for (knob, default, spellings, invalid) in cases {
        let name = knob.name;
        match &default {
            Some(v) => {
                let _env = EnvGuard::set(&[(knob, Some(knob.default))]);
                assert_eq!(typed(knob, v).as_ref(), Some(v), "{name} default");
            }
            None => assert!(knob.default.starts_with('('), "{name}: absent default"),
        }
        {
            let _env = EnvGuard::set(&[(knob, None)]);
            assert_eq!(knob.get(), None, "{name} unset");
            assert_eq!(knob.effective(), (knob.default.to_string(), "default"));
        }
        {
            let _env = EnvGuard::set(&[(knob, Some("  "))]);
            assert_eq!(knob.get(), None, "{name} empty counts as unset");
        }
        for (spelling, expected) in spellings {
            let env = EnvGuard::set(&[(knob, Some(spelling))]);
            assert_eq!(
                typed(knob, &expected).as_ref(),
                Some(&expected),
                "{name}={spelling}"
            );
            assert_eq!(knob.effective(), (spelling.to_string(), "set"));
            drop(env);
            let shouted = format!(" \t{} ", spelling.to_ascii_uppercase());
            let _env = EnvGuard::set(&[(knob, Some(&shouted))]);
            let expected = match knob.grammar {
                // Free text keeps its case (paths, attribute names).
                Grammar::Text => word(shouted.trim()),
                _ => expected,
            };
            assert_eq!(typed(knob, &expected), Some(expected), "{name}={shouted:?}");
        }
        let Some(invalid) = invalid else {
            assert_eq!(
                knob.grammar,
                Grammar::Text,
                "{name}: only free text accepts anything"
            );
            continue;
        };
        let _env = EnvGuard::set(&[(knob, Some(invalid))]);
        let reg = Arc::new(bat_obs::Registry::new());
        let _on = bat_obs::enable();
        let _scope = bat_obs::scope(reg.clone());
        assert_eq!(
            knob.get(),
            None,
            "{name}={invalid} falls back to the default"
        );
        assert_eq!(
            reg.snapshot().counter("config.invalid"),
            Some(1),
            "{name}={invalid}"
        );
        assert_eq!(knob.effective(), (knob.default.to_string(), "invalid"));
    }
}

/// The typed defaults consumers apply when a knob yields `None` are the
/// ones the table documents.
#[test]
fn consumer_defaults_match_the_table() {
    let _serial = common::serial();
    let _env = EnvGuard::set(&[
        (&knobs::TREELET_CODEC, None),
        (&knobs::READ_BACKEND, None),
        (&knobs::TRANSPORT, None),
        (&knobs::SHARD_HEARTBEAT_MS, None),
        (&knobs::SHARD_MISSED_BEATS, None),
    ]);
    let uint = |k: &Knob| knobs::parse_bytes(k.default).expect("numeric default");
    // Not knobs: the range path's constants (DESIGN.md §18).
    let range = RangeConfig::default();
    assert_eq!(
        (range.gap_bytes, range.retries, range.backoff_ms),
        (16 << 10, 3, 1)
    );
    assert_eq!(Codec::from_env(), Codec::V1);
    assert_eq!(ReadBackend::from_env().name(), knobs::READ_BACKEND.default);
    assert_eq!(Cluster::transport_from_env(4), TransportKind::Channel);
    let sup = SupervisorConfig::from_env();
    assert_eq!(
        sup.interval.as_millis() as u64,
        uint(&knobs::SHARD_HEARTBEAT_MS)
    );
    assert_eq!(sup.missed_beats as u64, uint(&knobs::SHARD_MISSED_BEATS));
}

/// `v2-lossy` names the deleted lossy codec: setting it is warned about
/// (once per process), counted in `config.invalid`, and the codec a writer
/// reads (`Codec::from_env`, called by `BatWriter::new`) stays v1.
#[test]
fn deleted_lossy_codec_falls_back_to_v1() {
    let _serial = common::serial();
    let _env = EnvGuard::set(&[(&knobs::TREELET_CODEC, Some("v2-lossy"))]);
    let reg = Arc::new(bat_obs::Registry::new());
    let _on = bat_obs::enable();
    let _scope = bat_obs::scope(reg.clone());
    assert_eq!(Codec::from_env(), Codec::V1);
    assert_eq!(reg.snapshot().counter("config.invalid"), Some(1));
    assert_eq!(
        knobs::TREELET_CODEC.effective(),
        ("v1".to_string(), "invalid")
    );
}

fn indexed_file_bytes() -> Vec<u8> {
    let mut set = ParticleSet::new(vec![AttributeDesc::f64("energy")]);
    let mut rng = bat_geom::rng::Xoshiro256::new(9);
    for _ in 0..6_000 {
        let p = Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32());
        set.push(p, &[rng.next_f32() as f64 * 100.0]);
    }
    let bat = BatBuilder::new(BatConfig::default()).build(set, Aabb::unit());
    write_bat_indexed(&bat, Codec::V1, &IndexSpec::All)
}

/// (b) `BAT_PLAN_STRATEGY` is read when a `BatFile` is opened: setting it
/// afterwards changes nothing, setting it before forces the strategy.
#[test]
fn plan_strategy_is_read_when_the_file_is_opened() {
    let _serial = common::serial();
    let bytes = indexed_file_bytes();
    // Dense predicate: `auto` stays on the bitmap plan, `index` is forced.
    let q = Query::new().with_filter(0, -1.0, 1.0e9);
    let opened_unset = {
        let _env = EnvGuard::set(&[(&knobs::PLAN_STRATEGY, None)]);
        BatFile::from_bytes(bytes.clone()).expect("open")
    };
    let _env = EnvGuard::set(&[(&knobs::PLAN_STRATEGY, Some("index"))]);
    assert_eq!(
        opened_unset.plan(&q).unwrap().strategy,
        PlanStrategy::Bitmap,
        "set after open: no effect"
    );
    let opened_forced = BatFile::from_bytes(bytes).expect("open");
    assert_eq!(
        opened_forced.plan(&q).unwrap().strategy,
        PlanStrategy::Index
    );
}

/// (b) `BAT_SHARD_WAIT_MS` is read at `ShardRouter::new`: a router built
/// under a 200 ms wait gives up on a silent shard after 200 ms even though
/// the variable says 20 s by the time it queries.
#[test]
fn router_reads_its_silence_wait_when_it_is_built() {
    let _serial = common::serial();
    let scratch = build_test_dataset(
        &Workload::Uniform {
            per_rank: 1500,
            seed: 3,
        },
        &BuildOpts {
            tag: "knobs-wait",
            ..Default::default()
        },
    );
    let dir = scratch.path.clone();
    let outcomes = Cluster::run_with(TransportKind::Channel, 3, |comm| {
        if comm.rank() == ROUTER_RANK {
            let ds = Dataset::open(&dir, "s").expect("open dataset");
            let early = EnvGuard::set(&[
                (&knobs::SHARD_WAIT_MS, Some("200")),
                (&knobs::SHARD_REPLICAS, None),
            ]);
            let router = ShardRouter::new(comm, Arc::new(ds));
            drop(early);
            let _late = EnvGuard::set(&[(&knobs::SHARD_WAIT_MS, Some("20000"))]);
            let t0 = Instant::now();
            let result = router.query(&Query::new(), None, |_| {});
            let elapsed = t0.elapsed();
            assert!(
                matches!(result, Err(ShardQueryError::Comm { .. })),
                "expected a typed comm error, got {result:?}"
            );
            assert!(
                elapsed < Duration::from_secs(10),
                "the router waited {elapsed:?}: it re-read BAT_SHARD_WAIT_MS after construction"
            );
            router.shutdown();
            true
        } else if comm.rank() == 1 {
            let ds = Dataset::open(&dir, "s").expect("open dataset");
            run_shard(&comm, &ds).expect("shard serve loop");
            false
        } else {
            // A wedged shard: joins the cluster, never serves.
            std::thread::sleep(Duration::from_millis(1500));
            false
        }
    });
    assert!(outcomes[ROUTER_RANK]);
}

fn head_version(dir: &Path) -> u32 {
    let ds = Dataset::open(dir, "s").expect("open dataset");
    ds.file(0).expect("leaf 0").head().version
}

/// (c) The flip `benchmark/src/datasets.rs` relies on: two writes in one
/// process, the codec variable changed in between, give a v1 and a v2 file.
#[test]
fn codec_flip_between_two_writes_in_one_process() {
    let _serial = common::serial();
    let write = |tag: &'static str, codec: Option<&str>| {
        let _env = EnvGuard::set(&[(&knobs::TREELET_CODEC, codec)]);
        let workload = Workload::Uniform {
            per_rank: 1500,
            seed: 5,
        };
        build_test_dataset(
            &workload,
            &BuildOpts {
                tag,
                ..Default::default()
            },
        )
    };
    let first = write("knobs-v1", None);
    let second = write("knobs-v2", Some("v2-lossless"));
    assert_eq!(head_version(&first.path), VERSION);
    assert_eq!(head_version(&second.path), VERSION_V2);
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// (d) Every `BAT_*: "value"` the CI workflow sets names a table row and
/// is inside its grammar — a typo in the matrix must not test the default.
#[test]
fn ci_workflow_sets_only_valid_knobs() {
    let yml = std::fs::read_to_string(repo_root().join(".github/workflows/ci.yml")).unwrap();
    let mut seen = 0;
    for line in yml.lines().map(str::trim) {
        let Some((name, rest)) = line.split_once(": \"") else {
            continue;
        };
        if !name.starts_with("BAT_") {
            continue;
        }
        let value = rest.trim_end_matches('"');
        let knob = ENV_KNOBS
            .iter()
            .find(|k| k.name == name)
            .unwrap_or_else(|| panic!("ci.yml sets {name}, which is not a knob"));
        assert!(
            knob.parse(value).is_some(),
            "ci.yml sets {name}={value:?}, outside its grammar ({})",
            knob.meaning
        );
        seen += 1;
    }
    assert!(
        seen >= 15,
        "ci.yml scan looks broken: {seen} settings found"
    );
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// (e) One reader: no source outside the knob module (and the rayon shim,
/// which stands in for a third-party crate) looks a knob up itself.
#[test]
fn only_the_knob_module_reads_knobs_from_the_environment() {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "shims", "tests", "examples"] {
        rust_sources(&root.join(dir), &mut files);
    }
    assert!(files.len() > 50, "source scan looks broken");
    // Assembled so this file does not match itself.
    let needles: Vec<String> = ["var(\"BAT_", "var_os(\"BAT_", "var(ENV_", "var_os(ENV_"]
        .iter()
        .map(|tail| format!("env::{tail}"))
        .collect();
    let allowed = [
        root.join("crates/obs/src/knobs.rs"),
        root.join("shims/rayon/src/pool.rs"),
    ];
    for path in files.iter().filter(|p| !allowed.contains(p)) {
        let text = std::fs::read_to_string(path).unwrap();
        for needle in &needles {
            assert!(
                !text.contains(needle.as_str()),
                "{} reads a knob with `{needle}…`; go through bat_obs::knobs",
                path.display()
            );
        }
    }
}

/// (e) The README environment table is the knob table, row for row.
#[test]
fn readme_environment_table_is_the_knob_table() {
    let readme = std::fs::read_to_string(repo_root().join("README.md")).unwrap();
    let rows: Vec<&str> = readme
        .lines()
        .filter(|l| l.starts_with("| `BAT_"))
        .collect();
    let expected: Vec<String> = ENV_KNOBS
        .iter()
        .map(|k| {
            let cell = |s: &str| s.replace('|', "\\|");
            format!(
                "| `{}` | {} | {} |",
                k.name,
                cell(k.default),
                cell(k.meaning)
            )
        })
        .collect();
    assert_eq!(rows, expected, "regenerate the README table from ENV_KNOBS");
}
