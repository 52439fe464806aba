//! `bat-benchmark`: the repository's one end-to-end benchmark.
//!
//! ```text
//! bat-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! bat-benchmark run [--all | --workload W ...] [options]        each workload in a fresh child
//! bat-benchmark compare --base FILE... --new FILE...            verdict per (metric, workload)
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and why each
//! was chosen.

mod compare;
mod datasets;
mod inputs;
mod json;
mod layers;
mod pin;
mod probes;
mod run;
mod stats;
mod trace;

use inputs::Class;
use json::Value;
use run::{Acc, Ctx, Measured, Pass, Phase, Workload};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// `(name, unit)` of every end-to-end metric, in report order;
/// `BENCHMARK.json` lists the same set with direction and bound.
pub const END_TO_END: [(&str, &str); 16] = [
    ("setup_s", "s"),
    ("write_mpts_s", "Mpts/s"),
    ("write_v2_mpts_s", "Mpts/s"),
    ("stored_ratio", "ratio"),
    ("stored_ratio_v2", "ratio"),
    ("coarse_p50_ms", "ms"),
    ("full_p50_ms", "ms"),
    ("box_p50_ms", "ms"),
    ("filter_lo_p50_ms", "ms"),
    ("filter_hi_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("session_p50_s", "s"),
    ("sim_ms_per_session", "sim_ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Particles of the timestep unless `--particles` says otherwise. The sizes
/// quoted in ISSUE 11 are for one million; the default is a quarter of that
/// so that 136 runs with three set-ups each fit the driver's hour, and the
/// aggregation target scales along, so the tree keeps its ~6 leaves.
pub const DEFAULT_PARTICLES: usize = 250_000;
pub const SMOKE_PARTICLES: usize = 50_000;
pub const SMOKE_SECONDS: f64 = 2.0;
/// Instances (set-up + measured pass) per untraced run; `setup_s` is the
/// median of their set-ups.
pub const SETUPS: usize = 3;

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where data sets of a run live: under the benchmark's own directory,
/// which the repository's `.gitignore` covers, removed when the run ends.
fn data_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("run-{}", std::process::id()))
}

#[derive(Debug, Clone)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    particles: usize,
    setups: usize,
    spans: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage:\n  bat-benchmark --workload <{}> --seed N --seconds S --trace 0|1 [--particles N] [--setups K] [--spans FILE]\n  \
         bat-benchmark run [--all | --workload W ...] [--seed N] [--seconds S] [--particles N] [--smoke] [--trace] [--reverse] [--out FILE]\n  \
         bat-benchmark compare --base FILE... --new FILE... [--bounds BENCHMARK.json]",
        names.join("|")
    )
}

/// Flags of the form `--name value`, values collected per name; bare flags
/// get an empty value.
fn parse_flags(args: &[String], bare: &[&str]) -> Result<BTreeMap<String, Vec<String>>, String> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut current: Option<&str> = None;
    for a in args {
        if let Some(name) = a.strip_prefix("--") {
            out.entry(name.to_string()).or_default();
            current = (!bare.contains(&name)).then_some(name);
        } else if let Some(name) = current {
            out.get_mut(name)
                .expect("flag was inserted")
                .push(a.clone());
        } else {
            return Err(format!("unexpected argument `{a}`"));
        }
    }
    Ok(out)
}

fn one<T: std::str::FromStr>(
    flags: &BTreeMap<String, Vec<String>>,
    name: &str,
) -> Result<Option<T>, String> {
    match flags.get(name).map(Vec::as_slice) {
        None => Ok(None),
        Some([v]) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("--{name}: cannot read `{v}`")),
        Some(_) => Err(format!("--{name} takes exactly one value")),
    }
}

fn workloads_of(flags: &BTreeMap<String, Vec<String>>) -> Result<Vec<Workload>, String> {
    flags
        .get("workload")
        .map(Vec::as_slice)
        .unwrap_or_default()
        .iter()
        .map(|n| Workload::parse(n).ok_or_else(|| format!("unknown workload `{n}`")))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some(a) if a.starts_with("--") && a != "--help" => cmd_single(&args),
        _ => Err(usage()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// One workload in this process
// ---------------------------------------------------------------------------

fn cmd_single(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &[])?;
    let workloads = workloads_of(&flags)?;
    let [workload] = workloads[..] else {
        return Err(usage());
    };
    let opts = Opts {
        workload,
        seed: one(&flags, "seed")?.unwrap_or(7),
        seconds: one(&flags, "seconds")?.unwrap_or(10.0),
        trace: one::<u8>(&flags, "trace")?.unwrap_or(0) != 0,
        particles: one(&flags, "particles")?.unwrap_or(DEFAULT_PARTICLES),
        setups: one(&flags, "setups")?.unwrap_or(SETUPS).max(1),
        spans: one::<String>(&flags, "spans")?.map(PathBuf::from),
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) || opts.particles < 1000 {
        return Err("--seconds must be in (0, 600] and --particles at least 1000".into());
    }
    let root = data_root();
    let outcome = run_workload(&opts, &root);
    // The data sets are scratch: nothing of a run stays in the tree (the
    // shared `out/` goes too unless another run is using it).
    let _ = std::fs::remove_dir_all(&root);
    if let Some(out) = root.parent() {
        let _ = std::fs::remove_dir(out);
    }
    let outcome = outcome?;
    for line in &outcome.notes {
        eprintln!("{line}");
    }
    println!("{}", outcome.result.render());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

struct Outcome {
    correct: bool,
    result: Value,
    notes: Vec<String>,
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric_obj(metrics: &[(&'static str, f64, &'static str)]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|&(name, v, unit)| {
                (
                    name.to_string(),
                    json::obj(vec![("value", json::num(v)), ("unit", json::str(unit))]),
                )
            })
            .collect(),
    )
}

fn run_workload(opts: &Opts, root: &Path) -> Result<Outcome, String> {
    let w = opts.workload;
    // Before the first thread is spawned, so that every thread inherits it.
    let cpu = w.one_cpu().then(pin::to_one_cpu);
    let setups = if opts.trace { 1 } else { opts.setups };
    let mut notes = vec![format!(
        "{}: seed {}, {} particles, {} s, {} set-up(s), {}{}",
        w.name(),
        opts.seed,
        opts.particles,
        opts.seconds,
        setups,
        match cpu {
            None => format!("{} core(s)", host_cores()),
            Some(Some(cpu)) => format!("on CPU {cpu} only"),
            Some(None) => format!("could not pin to one CPU: {} core(s)", host_cores()),
        },
        if opts.trace { ", traced" } else { "" }
    )];

    // A run is `setups` instances of the workload, one after another: each
    // sets up from nothing (new files, new service, new cache), warms up
    // and measures for its share of `--seconds`. The samples pool. What one
    // instance happens to get (where its pages and threads land, which
    // second of a shared host it runs in) then moves a third of the
    // samples, not the run.
    let mut setup_secs = Vec::new();
    let mut write_a_secs = Vec::new();
    let mut write_b_secs = Vec::new();
    let mut stored_a = Vec::new();
    let mut stored_b = Vec::new();
    let mut sim_ms = Vec::new();
    let mut checks = Acc::default();
    let mut pooled = Pass::default();
    let mut last: Option<(Ctx, Measured, bat_obs::Snapshot)> = None;
    for rep in 0..setups {
        let t0 = Instant::now();
        let dir = root.join(format!("s{rep}"));
        let obs_on = opts.trace.then(|| {
            bat_obs::Registry::global().clear();
            bat_obs::enable()
        });
        let ctx = Ctx::prepare(opts.particles, opts.seed, &dir)?;
        let setup_obs = bat_obs::Registry::global().snapshot();
        drop(obs_on);
        let phase = if opts.trace {
            Phase::Trace {
                seconds: opts.seconds,
            }
        } else {
            Phase::Measure {
                seconds: opts.seconds / setups as f64,
            }
        };
        let mut measured = run::run_in_service(w, &ctx, phase)?;
        setup_secs.push(measured.ready.duration_since(t0).as_secs_f64());
        write_a_secs.extend(ctx.a.iter().map(|w| w.secs));
        write_b_secs.extend(ctx.b.iter().map(|w| w.secs));
        stored_a.extend(ctx.a.iter().map(|w| w.stored_bytes as f64));
        stored_b.extend(ctx.b.iter().map(|w| w.stored_bytes as f64));
        sim_ms.push(ctx.sim_session.sim_ms());
        checks.absorb_checks(&ctx.checks);
        checks.absorb_checks(&measured.checks);
        if !opts.trace {
            pooled.append(std::mem::take(&mut measured.untraced));
        }
        if rep + 1 < setups {
            drop((ctx, measured));
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            last = Some((ctx, measured, setup_obs));
        }
    }
    let (ctx, measured, setup_obs) = last.expect("at least one set-up");
    // (In a traced run nothing is pooled and the last instance still holds
    // its untraced pass; in an untraced run it was taken above.)
    checks.absorb_checks(&pooled.acc);
    checks.absorb_checks(&measured.untraced.acc);
    if let Some(t) = &measured.traced {
        checks.absorb_checks(&t.acc);
    }

    let metrics = if opts.trace {
        trace_metrics(
            opts,
            &ctx,
            &measured,
            &setup_obs,
            root,
            &mut checks,
            &mut notes,
        )?
    } else {
        // `write-commit` times its commits in the loop; the other workloads
        // report the commits of their set-ups.
        if w == Workload::WriteCommit {
            write_a_secs = pooled.writes_a.iter().map(|w| w.secs).collect();
            write_b_secs = pooled.writes_b.iter().map(|w| w.secs).collect();
        }
        if w == Workload::RemoteCold {
            sim_ms = pooled.sessions.iter().map(|s| s.sim_ms()).collect();
        }
        let mpts = opts.particles as f64 / 1e6;
        let raw = ctx.inputs.raw_bytes() as f64;
        let class_p50 = |c: Class| median(pooled.acc.lat_ms.get(&c).map_or(&[][..], Vec::as_slice));
        let all = pooled.acc.all_ms();
        notes.push(format!(
            "samples: {} queries ({}), {} sessions, {} A-writes, {} B-writes, {} set-ups",
            all.len(),
            Class::REPORTED
                .iter()
                .map(|c| format!(
                    "{} {}",
                    pooled.acc.lat_ms.get(c).map_or(0, Vec::len),
                    c.metric()
                ))
                .collect::<Vec<_>>()
                .join(", "),
            pooled.unit_secs.len(),
            write_a_secs.len(),
            write_b_secs.len(),
            setup_secs.len(),
        ));
        let values: BTreeMap<&str, f64> = [
            ("setup_s", median(&setup_secs)),
            ("write_mpts_s", mpts / median(&write_a_secs)),
            ("write_v2_mpts_s", mpts / median(&write_b_secs)),
            ("stored_ratio", median(&stored_a) / raw),
            ("stored_ratio_v2", median(&stored_b) / raw),
            ("coarse_p50_ms", class_p50(Class::Coarse)),
            ("full_p50_ms", class_p50(Class::Full)),
            ("box_p50_ms", class_p50(Class::Box)),
            ("filter_lo_p50_ms", class_p50(Class::FilterLo)),
            ("filter_hi_p50_ms", class_p50(Class::FilterHi)),
            ("query_p95_ms", percentile(&all, 95.0)),
            ("queries_per_s", pooled.queries_per_s()),
            ("session_p50_s", median(&pooled.unit_secs)),
            ("sim_ms_per_session", median(&sim_ms)),
            (
                "ok_frac",
                (checks.attempted - checks.failed) as f64 / checks.attempted.max(1) as f64,
            ),
            ("peak_rss_mb", peak_rss_mb()),
        ]
        .into_iter()
        .collect();
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, values[name], unit))
            .collect::<Vec<_>>()
    };

    for e in &checks.errors {
        notes.push(format!("FAILED: {e}"));
    }
    // An end-to-end metric without a finite, positive value means the run
    // measured nothing for it: that is a failure, not a number. (Per-layer
    // metrics are 0 where the layer is not on the workload's path.)
    let measured_all = metrics
        .iter()
        .all(|&(_, v, _)| v.is_finite() && (opts.trace || v > 0.0));
    let correct = checks.failed == 0 && measured_all;
    Ok(Outcome {
        correct,
        result: json::obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", json::num(checks.attempted as f64)),
            ("failed", json::num(checks.failed as f64)),
            ("metrics", metric_obj(&metrics)),
        ]),
        notes,
    })
}

/// The per-layer list of a `--trace 1` run: probes, a layer replay, the
/// traced pass's counters and spans, and the closing check.
fn trace_metrics(
    opts: &Opts,
    ctx: &Ctx,
    measured: &Measured,
    setup_obs: &bat_obs::Snapshot,
    root: &Path,
    checks: &mut Acc,
    notes: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let w = opts.workload;
    let traced = measured.traced.as_ref().expect("traced pass ran");
    let untraced = &measured.untraced;

    let mut probe_values = BTreeMap::new();
    probes::host_ceilings(root, &mut probe_values, notes)
        .map_err(|e| format!("host ceilings: {e}"))?;
    let density = &ctx.inputs.queries.filter_lo[0].query.filters[0];
    probes::layer_probes(&ctx.dir, (density.lo, density.hi), &mut probe_values)?;
    probe_values.insert(
        "core.dataset.open_ms",
        probes::open_ms(&ctx.dir, w.reads())?,
    );

    let replay = layers::replay(w, ctx)?;

    // Same cycle list through the single-process server, one client: the
    // per-class difference is what the router, the merge and the comm add.
    let shard_overhead_ms = if w == Workload::ShardWarm {
        let serve: Pass = run::with_service(Workload::ServeWarm, &ctx.dir, |svc| {
            run::warm_up(Workload::ServeWarm, svc, &ctx.inputs, &mut Acc::default());
            run::cycle_pass(svc, &ctx.inputs, opts.seconds / 4.0, false)
        })?;
        checks.absorb_checks(&serve.acc);
        Some(layers::class_gap_ms(untraced, &serve))
    } else {
        None
    };

    let values = layers::per_layer(&layers::Sources {
        workload: w,
        ctx,
        setup_obs,
        untraced,
        traced,
        obs: measured.obs.as_ref().expect("traced pass was observed"),
        replay: &replay,
        probes: &probe_values,
        shard_overhead_ms,
    });

    // Closing check over the traced pass and the replay: what the spans
    // under a query do not cover is time the trace cannot attribute.
    for (what, spans) in [
        ("traced pass", &traced.spans),
        ("layer replay", &replay.spans),
    ] {
        let c = trace::closing_check(spans, "query", 0.10);
        notes.push(format!(
            "closing check, {what}: {:.2} % of query wall time not under a layer span \
             (worst single query {:.1} %, {} of {} queries over 10 %)",
            c.uncovered_share * 100.0,
            c.worst * 100.0,
            c.misses,
            c.checked
        ));
        checks.check(
            "closing check",
            if c.uncovered_share <= 0.10 {
                Ok(())
            } else {
                Err(format!(
                    "{what}: spans leave {:.1} % of query wall time unattributed",
                    c.uncovered_share * 100.0
                ))
            },
        );
    }
    if let Some(path) = &opts.spans {
        let mut text = trace::to_json_lines(w.name(), &traced.spans);
        text.push_str(&trace::to_json_lines(w.name(), &replay.spans));
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    // Every rate next to what the host can do.
    for &(name, _) in &layers::PER_LAYER {
        if let Some(ceiling) = layers::ceiling_of(name) {
            let rate = if name.ends_with("_mbps") {
                values[name] / 1e3
            } else {
                values[name]
            };
            let top = values[ceiling];
            if rate > 0.0 && top > 0.0 {
                notes.push(format!("{name}: {:.2} % of {ceiling}", rate / top * 100.0));
            }
        }
    }
    Ok(layers::PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values[name], unit))
        .collect())
}

// ---------------------------------------------------------------------------
// `run`: every workload in its own freshly spawned child
// ---------------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["all", "smoke", "trace", "reverse"])?;
    let smoke = flags.contains_key("smoke");
    let mut workloads = workloads_of(&flags)?;
    if flags.contains_key("all") || workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    if flags.contains_key("reverse") {
        workloads.reverse();
    }
    let seed: u64 = one(&flags, "seed")?.unwrap_or(7);
    let seconds: f64 = one(&flags, "seconds")?.unwrap_or(if smoke { SMOKE_SECONDS } else { 10.0 });
    let particles: usize = one(&flags, "particles")?.unwrap_or(if smoke {
        SMOKE_PARTICLES
    } else {
        DEFAULT_PARTICLES
    });
    let setups: usize = one(&flags, "setups")?.unwrap_or(if smoke { 2 } else { SETUPS });
    let out: Option<String> = one(&flags, "out")?;
    let passes: &[bool] = if flags.contains_key("trace") {
        &[false, true]
    } else {
        &[false]
    };

    let commit = command_line("git", &["rev-parse", "HEAD"]);
    let rustc = command_line("rustc", &["--version"]);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut lines = String::new();
    for &w in &workloads {
        for &trace in passes {
            let child = std::process::Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .args(["--particles", &particles.to_string()])
                .args(["--setups", &setups.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", w.name()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let Some(result) = stdout.lines().last().and_then(|l| json::parse(l).ok()) else {
                eprintln!("{}: no result (exit {:?})", w.name(), child.status.code());
                all_correct = false;
                continue;
            };
            all_correct &=
                child.status.success() && result.get("correct") == Some(&Value::Bool(true));
            let unix_time = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs());
            let mut fields = vec![
                ("workload".to_string(), json::str(w.name())),
                ("trace".to_string(), Value::Bool(trace)),
                ("commit".to_string(), json::str(commit.clone())),
                ("host_cores".to_string(), json::num(host_cores() as f64)),
                ("unix_time".to_string(), json::num(unix_time as f64)),
                ("rustc".to_string(), json::str(rustc.clone())),
                ("seed".to_string(), json::num(seed as f64)),
                ("particles".to_string(), json::num(particles as f64)),
                ("duration_s".to_string(), json::num(seconds)),
                // Wall-clock everywhere; simulated time only ever appears
                // under the unit `sim_ms`.
                ("mode".to_string(), json::str("wall")),
            ];
            fields.extend(result.as_obj().unwrap_or_default().iter().cloned());
            let row = Value::Obj(fields);
            print_result(&row);
            lines.push_str(&row.render());
            lines.push('\n');
        }
    }
    if let Some(path) = out {
        use std::io::Write;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(lines.as_bytes()))
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Every metric by name with its unit, then the result object itself.
fn print_result(row: &Value) {
    let text = |k: &str| {
        row.get(k)
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let number = |k: &str| row.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    println!(
        "== {}{} | commit {} | {} core(s) | seed {} | {} particles | {} s | failed {} of {}",
        text("workload"),
        if row.get("trace") == Some(&Value::Bool(true)) {
            " (traced)"
        } else {
            ""
        },
        text("commit").chars().take(12).collect::<String>(),
        number("host_cores"),
        number("seed"),
        number("particles"),
        number("duration_s"),
        number("failed"),
        number("attempted"),
    );
    for (name, m) in row
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or_default()
    {
        println!(
            "   {name:<36} {:>16.6} {}",
            m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
            m.get("unit").and_then(Value::as_str).unwrap_or("")
        );
    }
    println!("{}", row.render());
}

// ---------------------------------------------------------------------------
// `compare`
// ---------------------------------------------------------------------------

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &[])?;
    let files = |name: &str| -> Result<compare::Samples, String> {
        let mut samples = compare::Samples::new();
        let paths = flags
            .get(name)
            .filter(|p| !p.is_empty())
            .ok_or_else(usage)?;
        for path in paths {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            compare::load(&mut samples, &text).map_err(|e| format!("{path}: {e}"))?;
        }
        Ok(samples)
    };
    let base = files("base")?;
    let new = files("new")?;
    let bounds_path = one::<String>(&flags, "bounds")?.map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        PathBuf::from,
    );
    let bounds_text = std::fs::read_to_string(&bounds_path)
        .map_err(|e| format!("read {}: {e}", bounds_path.display()))?;
    let bounds = compare::Bounds::parse(&bounds_text)?;
    let rows = compare::compare(&bounds, &base, &new);
    print!("{}", compare::render(&rows));
    let bad = rows
        .iter()
        .filter(|r| {
            matches!(
                r.verdict,
                compare::Verdict::Regressed | compare::Verdict::Unresolved
            )
        })
        .count();
    println!("{} rows, {bad} regressed or unresolved", rows.len());
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the harness must name the same workloads and
    /// metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Value::as_str).unwrap().to_string(),
                        m.get("unit")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&layers::PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        compare::Bounds::parse(&doc.render()).unwrap();
    }

    /// The whole pipeline on a tiny timestep: a correct run reports no
    /// failure, and the same run with the oracle made to disagree does.
    #[test]
    fn a_wrong_answer_fails_the_run() {
        let root = data_root();
        let mut ctx = Ctx::prepare(6000, 3, &root.join("s0")).unwrap();
        assert_eq!(ctx.checks.failed, 0, "{:?}", ctx.checks.errors);
        let good =
            run::run_in_service(Workload::LocalV2, &ctx, Phase::Measure { seconds: 0.05 }).unwrap();
        let pass = good.untraced;
        assert!(pass.acc.attempted >= 20);
        assert_eq!(pass.acc.failed, 0, "{:?}", pass.acc.errors);

        ctx.inputs.queries.corrupt_oracle();
        let bad =
            run::run_in_service(Workload::LocalV2, &ctx, Phase::Measure { seconds: 0.05 }).unwrap();
        let pass = bad.untraced;
        assert_eq!(pass.acc.failed, pass.acc.attempted);
        assert!(pass.acc.lat_ms.is_empty(), "a wrong answer has no latency");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn flags_parse_and_reject() {
        let args: Vec<String> = [
            "--workload",
            "local-v1",
            "--workload",
            "serve-warm",
            "--all",
            "--seed",
            "9",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let flags = parse_flags(&args, &["all"]).unwrap();
        assert_eq!(
            workloads_of(&flags).unwrap(),
            vec![Workload::LocalV1, Workload::ServeWarm]
        );
        assert_eq!(one::<u64>(&flags, "seed").unwrap(), Some(9));
        assert!(flags.contains_key("all"));
        assert!(one::<u64>(&flags, "workload").is_err());
        assert!(parse_flags(&["stray".to_string()], &[]).is_err());
        let bad = parse_flags(&["--workload".to_string(), "nope".to_string()], &[]).unwrap();
        assert!(workloads_of(&bad).is_err());
    }
}
