//! Implementations of the `bat` subcommands.

use bat_layout::stats::LayoutStats;
use bat_layout::{BatFile, Query};
use bat_obs::knobs::{self, ENV_KNOBS};
use libbat::{verify_dataset, CommitState, Dataset};
use std::fmt::Write as _;

type Result<T> = std::result::Result<T, String>;

fn open(args: &[String]) -> Result<(Dataset, String, Vec<String>)> {
    let (dir, basename) = match (args.first(), args.get(1)) {
        (Some(d), Some(b)) => (d.clone(), b.clone()),
        _ => return Err("expected <dir> <basename>".into()),
    };
    let ds = Dataset::open(&dir, &basename).map_err(|e| format!("open dataset: {e}"))?;
    Ok((ds, dir, args[2..].to_vec()))
}

/// `bat info` — dataset summary.
pub fn info(args: &[String]) -> Result<()> {
    let (ds, _, _) = open(args)?;
    let meta = ds.meta();
    println!("particles : {}", ds.num_particles());
    println!("files     : {}", ds.num_files());
    let d = meta.domain;
    println!(
        "domain    : [{:.4}, {:.4}, {:.4}] .. [{:.4}, {:.4}, {:.4}]",
        d.min.x, d.min.y, d.min.z, d.max.x, d.max.y, d.max.z
    );
    println!("attributes:");
    for (i, (desc, &(lo, hi))) in meta.descs.iter().zip(&meta.global_ranges).enumerate() {
        println!(
            "  [{i}] {:<20} {:?}  global range [{lo:.6}, {hi:.6}]",
            desc.name, desc.dtype
        );
    }
    println!(
        "total size: {} bytes on disk",
        ds.total_file_bytes().map_err(|e| e.to_string())?
    );
    Ok(())
}

/// `bat files` — per-leaf table.
pub fn files(args: &[String]) -> Result<()> {
    let (ds, dir, _) = open(args)?;
    let meta = ds.meta();
    println!(
        "{:>5}  {:>12}  {:>12}  {:>10}  bounds",
        "leaf", "particles", "bytes", "aggregator"
    );
    for (i, leaf) in meta.leaves.iter().enumerate() {
        let path = std::path::Path::new(&dir).join(&leaf.file);
        let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let b = leaf.bounds;
        println!(
            "{i:>5}  {:>12}  {size:>12}  {:>10}  [{:.3},{:.3},{:.3}]..[{:.3},{:.3},{:.3}]  {}",
            leaf.particles,
            leaf.aggregator,
            b.min.x,
            b.min.y,
            b.min.z,
            b.max.x,
            b.max.y,
            b.max.z,
            leaf.file,
        );
    }
    Ok(())
}

/// Minimal JSON string escaping for the `verify --json` report.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `bat verify` — crash-consistency check against the commit manifest:
/// the `.batmeta` commit marker, then every leaf file's committed length
/// and CRC32C (damage localized to sections via the per-file footer).
/// `--deep` additionally opens every intact leaf and cross-checks particle
/// counts with a full query. Exits nonzero with a per-file report when
/// anything is damaged. `--json` swaps the human report for one
/// machine-readable document on stdout (stable schema, `schema_version`
/// 1); exit codes are identical either way.
pub fn verify(args: &[String]) -> Result<()> {
    let (dir, basename) = match (args.first(), args.get(1)) {
        (Some(d), Some(b)) => (d.clone(), b.clone()),
        _ => return Err("expected <dir> <basename>".into()),
    };
    let deep = args.iter().skip(2).any(|a| a == "--deep");
    let json = args.iter().skip(2).any(|a| a == "--json");
    if let Some(bad) = args
        .iter()
        .skip(2)
        .find(|a| *a != "--deep" && *a != "--json")
    {
        return Err(format!("unknown option '{bad}' (expected --deep | --json)"));
    }

    let report = verify_dataset(&dir, &basename).map_err(|e| format!("verify: {e}"))?;
    let mut problems = 0usize;
    // (commit tag, optional detail, commit itself counts as fatal)
    let (commit_tag, commit_detail, commit_fatal) = match &report.commit {
        CommitState::Committed => ("committed", None, false),
        CommitState::NotCommitted => ("not-committed", None, true),
        CommitState::TornCommit(why) => ("torn-commit", Some(why.clone()), true),
    };
    if !json {
        match &report.commit {
            CommitState::Committed => println!("commit : ok (manifest present and intact)"),
            CommitState::NotCommitted => {
                eprintln!("FAIL: dataset never committed (no metadata on disk)")
            }
            CommitState::TornCommit(why) => eprintln!("FAIL: torn commit marker: {why}"),
        }
    }
    // Per-leaf rows: (leaf index, file, status string, ok) — the JSON
    // schema's `leaves` array and the human report share this.
    let mut rows: Vec<(usize, String, String, bool)> = Vec::new();
    let mut deep_problems: Vec<String> = Vec::new();
    if !commit_fatal {
        for (i, check) in report.leaves.iter().enumerate() {
            let ok = check.status.is_ok();
            let status = if ok {
                "ok".to_string()
            } else {
                check.status.to_string()
            };
            if !ok {
                problems += 1;
            }
            if !json {
                if ok {
                    println!("leaf {i:>4} : ok  {}", check.file);
                } else {
                    eprintln!("FAIL: leaf {i} ({}): {status}", check.file);
                }
            }
            rows.push((i, check.file.clone(), status, ok));
        }

        // Deep check: the intact leaves must also *query* consistently.
        if deep && problems == 0 {
            let ds = Dataset::open(&dir, &basename).map_err(|e| format!("open dataset: {e}"))?;
            let meta = ds.meta();
            let mut total = 0u64;
            for (i, leaf) in meta.leaves.iter().enumerate() {
                let path = std::path::Path::new(&dir).join(&leaf.file);
                match BatFile::open(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|f| f.count(&Query::new()).map_err(|e| e.to_string()))
                {
                    Ok(n) => {
                        if n != leaf.particles {
                            deep_problems.push(format!(
                                "leaf {i}: full query returned {n}, metadata says {}",
                                leaf.particles
                            ));
                        }
                        total += n;
                    }
                    Err(e) => deep_problems.push(format!("leaf {i} ({}): {e}", leaf.file)),
                }
            }
            if total != meta.total_particles {
                deep_problems.push(format!(
                    "dataset total {total} does not match metadata {}",
                    meta.total_particles
                ));
            }
            problems += deep_problems.len();
            if !json {
                for p in &deep_problems {
                    eprintln!("FAIL: {p}");
                }
            }
        }
    }
    if commit_fatal {
        problems += 1;
    }

    if json {
        let mut doc = String::new();
        let _ = write!(
            doc,
            "{{\"schema_version\":1,\"dir\":\"{}\",\"basename\":\"{}\",\"commit\":\"{commit_tag}\"",
            json_escape(&dir),
            json_escape(&basename)
        );
        match &commit_detail {
            Some(d) => {
                let _ = write!(doc, ",\"commit_detail\":\"{}\"", json_escape(d));
            }
            None => doc.push_str(",\"commit_detail\":null"),
        }
        let _ = write!(doc, ",\"deep\":{deep},\"leaves\":[");
        for (n, (i, file, status, ok)) in rows.iter().enumerate() {
            if n > 0 {
                doc.push(',');
            }
            let _ = write!(
                doc,
                "{{\"leaf\":{i},\"file\":\"{}\",\"ok\":{ok},\"status\":\"{}\"}}",
                json_escape(file),
                json_escape(status)
            );
        }
        doc.push_str("],\"deep_problems\":[");
        for (n, p) in deep_problems.iter().enumerate() {
            if n > 0 {
                doc.push(',');
            }
            let _ = write!(doc, "\"{}\"", json_escape(p));
        }
        let _ = write!(doc, "],\"problems\":{problems},\"ok\":{}}}", problems == 0);
        println!("{doc}");
    } else if problems == 0 {
        println!("OK: {} files verified", report.leaves.len());
    }

    if problems == 0 {
        Ok(())
    } else {
        Err(format!("{problems} problem(s) found"))
    }
}

/// `bat query` — count or dump matching points.
pub fn query(args: &[String]) -> Result<()> {
    let (ds, _, rest) = open(args)?;
    let mut q = Query::new();
    let mut dump: Option<usize> = None;
    let mut it = rest.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quality" => {
                q.quality = next_f64(&mut it, "--quality")?;
            }
            "--prev-quality" => {
                q.prev_quality = next_f64(&mut it, "--prev-quality")?;
            }
            "--bounds" => {
                let v = next_list(&mut it, "--bounds", 6)?;
                q = q.with_bounds(bat_geom::Aabb::new(
                    bat_geom::Vec3::new(v[0] as f32, v[1] as f32, v[2] as f32),
                    bat_geom::Vec3::new(v[3] as f32, v[4] as f32, v[5] as f32),
                ));
            }
            "--filter" => {
                let v = next_list(&mut it, "--filter", 3)?;
                q = q.with_filter(v[0] as usize, v[1], v[2]);
            }
            "--dump" => {
                let n = it
                    .peek()
                    .and_then(|s| s.parse::<usize>().ok())
                    .inspect(|_| {
                        it.next();
                    })
                    .unwrap_or(20);
                dump = Some(n);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }

    let limit = dump.unwrap_or(0);
    let mut shown = 0usize;
    let stats = ds
        .query(&q, |p| {
            if shown < limit {
                let mut line = format!(
                    "({:.5}, {:.5}, {:.5})",
                    p.position.x, p.position.y, p.position.z
                );
                for v in p.attrs {
                    let _ = write!(line, "  {v:.6}");
                }
                println!("{line}");
                shown += 1;
            }
        })
        .map_err(|e| e.to_string())?;
    println!(
        "matched {} points ({} tested, {} treelets, {} nodes visited)",
        stats.points_returned, stats.points_tested, stats.treelets_visited, stats.nodes_visited
    );
    Ok(())
}

/// `bat density` — ASCII top-down density projection of the dataset (a
/// quick look at the spatial distribution, in the spirit of the paper's
/// Fig. 8 dataset renderings).
pub fn density(args: &[String]) -> Result<()> {
    let (ds, _, rest) = open(args)?;
    let quality = match rest.first().map(|s| s.as_str()) {
        Some("--quality") => rest
            .get(1)
            .ok_or("--quality needs a value")?
            .parse::<f64>()
            .map_err(|e| format!("--quality: {e}"))?,
        _ => 0.3,
    };
    const W: usize = 72;
    const H: usize = 24;
    let dom = ds.meta().domain;
    let mut grid = vec![0u64; W * H];
    ds.query(&Query::new().with_quality(quality), |p| {
        let n = dom.normalize(p.position);
        let x = ((n.x * W as f32) as usize).min(W - 1);
        // Project along y; rows show z top-down.
        let z = ((n.z * H as f32) as usize).min(H - 1);
        grid[(H - 1 - z) * W + x] += 1;
    })
    .map_err(|e| e.to_string())?;
    let max = *grid.iter().max().unwrap_or(&1);
    let ramp: &[u8] = b" .:-=+*#%@";
    println!(
        "x → (width {:.2}), z ↑ (height {:.2}), projected along y, quality {quality}",
        dom.extent().x,
        dom.extent().z
    );
    for row in 0..H {
        let line: String = (0..W)
            .map(|col| {
                let v = grid[row * W + col];
                if v == 0 {
                    ' '
                } else {
                    let idx = 1 + (v * (ramp.len() as u64 - 2) / max.max(1)) as usize;
                    ramp[idx.min(ramp.len() - 1)] as char
                }
            })
            .collect();
        println!("|{line}|");
    }
    Ok(())
}

/// `bat stats` — layout overhead per leaf file and dataset-wide.
pub fn stats(args: &[String]) -> Result<()> {
    if args.is_empty() || args[0].starts_with("--") {
        return stats_demo(args);
    }
    let (ds, dir, _) = open(args)?;
    let meta = ds.meta();
    println!(
        "{:>5}  {:>10}  {:>10}  {:>9}  {:>9}  {:>9}  {:>8}  {:>6}",
        "leaf", "raw_B", "file_B", "struct_B", "idx_B", "pad_B", "treelets", "dict"
    );
    let mut acc = (0u64, 0u64, 0u64, 0u64, 0u64);
    // Per-attribute index rollup: (files indexed, total bytes, max depth).
    let descs = ds.descs().to_vec();
    let mut idx_attrs: Vec<(u64, u64, u64)> = vec![(0, 0, 0); descs.len()];
    for (i, leaf) in meta.leaves.iter().enumerate() {
        let path = std::path::Path::new(&dir).join(&leaf.file);
        let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", leaf.file))?;
        let s = LayoutStats::measure(&bytes).map_err(|e| e.to_string())?;
        println!(
            "{i:>5}  {:>10}  {:>10}  {:>9}  {:>9}  {:>9}  {:>8}  {:>6}",
            s.raw_bytes,
            s.file_bytes,
            s.structure_bytes,
            s.index_bytes,
            s.padding_bytes,
            s.num_treelets,
            s.dict_entries
        );
        acc.0 += s.raw_bytes;
        acc.1 += s.file_bytes;
        acc.2 += s.structure_bytes;
        acc.3 += s.padding_bytes;
        acc.4 += s.index_bytes;
        let head = bat_layout::format::read_head(&bytes).map_err(|e| e.to_string())?;
        for e in &head.indexes {
            if let Some(a) = idx_attrs.get_mut(e.attr as usize) {
                a.0 += 1;
                a.1 += e.len;
                let depth = bat_index::IndexGeometry::with_defaults(e.entries).depth() as u64;
                a.2 = a.2.max(depth);
            }
        }
    }
    if acc.0 > 0 {
        println!(
            "total: raw {} B, files {} B — structure overhead {:.2}%, index {:.2}%, with padding {:.2}%",
            acc.0,
            acc.1,
            acc.2 as f64 / acc.0 as f64 * 100.0,
            acc.4 as f64 / acc.0 as f64 * 100.0,
            // Negative for compressed (v2) datasets: files smaller than raw.
            (acc.1 as f64 - acc.0 as f64) / acc.0 as f64 * 100.0
        );
    }
    // Attribute-index presence (paper's "spatially aware" read path gains
    // exact value culling when a column is indexed at write time).
    if idx_attrs.iter().any(|a| a.0 > 0) {
        println!(
            "{:>12}  {:>7}  {:>10}  {:>5}",
            "attribute", "indexed", "index_B", "depth"
        );
        for (a, (files, bytes, depth)) in idx_attrs.iter().enumerate() {
            println!(
                "{:>12}  {:>7}  {:>10}  {:>5}",
                descs[a].name,
                format!("{files}/{}", meta.leaves.len()),
                bytes,
                depth
            );
        }
    } else {
        println!("no attribute indexes (write with BAT_INDEX_ATTRS=all to build them)");
    }
    Ok(())
}

/// `bat stats` with no dataset: run a small in-process two-phase
/// write → read with metrics enabled and print the per-phase
/// observability breakdown — aggregation-tree build, shuffle, the BAT
/// build stages (Morton sort, shallow tree, treelets, bitmap binning,
/// compaction), file writes, and the read path. `--json` switches the
/// output to machine-readable JSON.
fn stats_demo(args: &[String]) -> Result<()> {
    let json = args.iter().any(|a| a == "--json");
    if let Some(bad) = args.iter().find(|a| *a != "--json") {
        return Err(format!(
            "unknown option '{bad}' (expected --json or a <dir> <basename>)"
        ));
    }

    let reg = std::sync::Arc::new(bat_obs::Registry::new());
    let _on = bat_obs::enable();
    let _scope = bat_obs::scope(reg.clone());

    let dir = std::env::temp_dir().join(format!("batcli-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create scratch dir: {e}"))?;

    // A small but real collective write: 4 rank threads, each generating a
    // slab of the uniform benchmark workload, aggregated two-phase into
    // leaf files + metadata.
    let ranks = 4;
    let per_rank = 20_000u64;
    let grid = bat_workloads::RankGrid::new_3d(ranks, bat_geom::Aabb::unit());
    {
        let grid = grid.clone();
        let dir = dir.clone();
        bat_comm::Cluster::run(ranks, move |comm| {
            let set = bat_workloads::uniform::generate_rank(&grid, comm.rank(), per_rank, 7);
            let cfg = libbat::write::WriteConfig::with_target_size(
                1 << 20,
                set.bytes_per_particle() as u64,
            );
            libbat::write::write_particles(
                &comm,
                set,
                grid.bounds_of(comm.rank()),
                &cfg,
                &dir,
                "demo",
            )
            .expect("demo write succeeds");
        });
    }

    // Exercise the read path too: a progressive query plus a filtered one
    // (so treelet fetches, page touches, and bitmap hit/skip all record).
    let ds = Dataset::open(&dir, "demo").map_err(|e| format!("open demo dataset: {e}"))?;
    ds.query(&Query::new().with_quality(0.5), |_| {})
        .map_err(|e| e.to_string())?;
    let (lo, hi) = ds.meta().global_ranges[0];
    let mid = lo + 0.5 * (hi - lo);
    ds.query(&Query::new().with_filter(0, lo, mid), |_| {})
        .map_err(|e| e.to_string())?;

    // And the serving layer: plan a bounded query (plan.* counters), then
    // execute it twice against a small treelet cache so both the cold
    // (cache.misses) and warm (cache.hits) paths record.
    ds.set_cache(Some(bat_serve::PageCache::new(8 << 20)));
    let bounded = Query::new().with_bounds(bat_geom::Aabb::new(
        bat_geom::Vec3::ZERO,
        bat_geom::Vec3::splat(0.4),
    ));
    let plan = bat_serve::QueryPlan::new(&ds, &bounded).map_err(|e| e.to_string())?;
    for _ in 0..2 {
        plan.execute(None, |_| {}).map_err(|e| e.to_string())?;
    }
    std::fs::remove_dir_all(&dir).ok();

    let snap = reg.snapshot();
    if json {
        println!("{}", snap.to_json());
    } else {
        println!(
            "two-phase pipeline breakdown — demo write ({ranks} ranks × {per_rank} particles) + read back"
        );
        print!("{}", snap.to_table());
    }
    Ok(())
}

/// What `serve` and `shard-serve` share: `<dir> <basename>`, `--addr`, the
/// admission gate (`--workers`, `--queue`, `--deadline-ms`) and `--smoke`;
/// `--shards` where `shards` (`shard-serve`'s default) is `Some`.
struct ServeArgs {
    dir: String,
    basename: String,
    addr: String,
    options: bat_serve::ServeOptions,
    shards: Option<usize>,
    smoke: bool,
}

/// Parse [`ServeArgs`]. Counts are integers: a fraction, a negative number
/// or a count below its minimum is a usage error, never clamped.
fn serve_args(args: &[String], addr: &str, shards: Option<usize>) -> Result<ServeArgs> {
    let [dir, basename, rest @ ..] = args else {
        return Err("expected <dir> <basename>".into());
    };
    let mut parsed = ServeArgs {
        dir: dir.clone(),
        basename: basename.clone(),
        addr: addr.to_string(),
        options: bat_serve::ServeOptions::default(),
        shards,
        smoke: false,
    };
    let (mut it, options) = (rest.iter(), &mut parsed.options);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => parsed.addr = it.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--shards" if shards.is_some() => parsed.shards = Some(next_count(&mut it, a, 1)?),
            "--workers" => options.workers = Some(next_count(&mut it, a, 1)?),
            "--queue" => options.queue_depth = Some(next_count(&mut it, a, 0)?),
            "--deadline-ms" => {
                let ms = next_count(&mut it, a, 0)? as u64;
                options.deadline = Some(std::time::Duration::from_millis(ms))
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(parsed)
}

/// The next argument as an integer of at least `min`.
fn next_count(it: &mut std::slice::Iter<String>, opt: &str, min: usize) -> Result<usize> {
    let raw = it.next().ok_or_else(|| format!("{opt} needs a value"))?;
    match raw.parse::<usize>() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(format!(
            "{opt} needs an integer of at least {min}, got '{raw}'"
        )),
    }
}

/// `--smoke`: one local client asks the front at `addr` for a coarse pass,
/// proving the serving path end to end; returns the points it streamed.
fn smoke(addr: std::net::SocketAddr) -> Result<u64> {
    let mut client = bat_stream::StreamClient::connect(addr)
        .map_err(|e| format!("smoke client connect: {e}"))?;
    client
        .request_with_retry(&Query::new().with_quality(0.2), 8, |_| {})
        .map_err(|e| format!("smoke request: {e}"))
}

/// `bat serve` — serve a dataset to stream clients through the bounded
/// bat-serve front-end (worker pool, bounded queue, treelet cache).
pub fn serve(args: &[String]) -> Result<()> {
    let args = serve_args(args, "127.0.0.1:4927", None)?;
    let (addr, options) = (&args.addr, &args.options);
    // The budget in effect: the process-global cache (BAT_CACHE_BYTES).
    let cache_budget = bat_serve::cache::global().map_or(0, |c| c.budget());

    let ds = Dataset::open(&args.dir, &args.basename).map_err(|e| format!("open dataset: {e}"))?;
    let particles = ds.num_particles();
    let backend_name = ds.backend_name();
    let server = bat_stream::StreamServer::bind_with(addr, ds, options.clone())
        .map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let handle = server.spawn().map_err(|e| format!("start server: {e}"))?;
    println!(
        "serving {particles} particles on {bound} \
         (backend {backend_name}, workers {}, queue {}, deadline {}, cache {})",
        options
            .workers
            .map_or("auto".to_string(), |w| w.to_string()),
        options
            .queue_depth
            .map_or("default".to_string(), |q| q.to_string()),
        options
            .deadline
            .map_or("none".to_string(), |d| format!("{d:?}")),
        match cache_budget {
            0 => "off".to_string(),
            b => format!("{b} B"),
        },
    );
    if !args.smoke {
        // Serve until killed; the handle's Drop path still drains cleanly.
        loop {
            std::thread::park();
        }
    }
    // Prove the serving loop, then drain and exit (CI and the tests).
    let n = smoke(bound)?;
    handle.shutdown();
    println!("smoke: streamed {n} points, server drained cleanly");
    Ok(())
}

fn next_f64(it: &mut std::iter::Peekable<std::slice::Iter<String>>, opt: &str) -> Result<f64> {
    it.next()
        .ok_or_else(|| format!("{opt} needs a value"))?
        .parse()
        .map_err(|e| format!("{opt}: {e}"))
}

fn next_list(
    it: &mut std::iter::Peekable<std::slice::Iter<String>>,
    opt: &str,
    n: usize,
) -> Result<Vec<f64>> {
    let raw = it.next().ok_or_else(|| format!("{opt} needs a value"))?;
    let vals: std::result::Result<Vec<f64>, _> = raw.split(',').map(str::parse).collect();
    let vals = vals.map_err(|e| format!("{opt}: {e}"))?;
    if vals.len() != n {
        return Err(format!("{opt} needs {n} comma-separated numbers"));
    }
    Ok(vals)
}

/// `bat shard-serve` — serve a dataset through a multi-process shard
/// fabric: this process becomes the router (rank 0) and client-facing
/// front; `--shards N` worker processes are spawned, each owning a
/// contiguous slice of the aggregation tree's leaves and connected over a
/// Unix-socket bat-comm cluster.
pub fn shard_serve(args: &[String]) -> Result<()> {
    let args = serve_args(args, "127.0.0.1:4928", Some(2))?;
    let (dir, basename, addr) = (&args.dir, &args.basename, &args.addr);
    let shards = args.shards.expect("shard-serve takes --shards");
    // Open (and so check) the dataset before any worker process exists.
    let ds = Dataset::open(dir, basename).map_err(|e| format!("open dataset: {e}"))?;
    let particles = ds.num_particles();
    let leaves = ds.meta().leaves.len();
    if shards > leaves {
        return Err(format!(
            "--shards {shards} exceeds the dataset's {leaves} leaf files"
        ));
    }

    // The cluster: rank 0 (this process) is the router hub; ranks 1..=N
    // are spawned shard workers, wired as a star over Unix sockets in a
    // scratch dir. The star keeps the hub's listener bound so a respawned
    // worker can rejoin (DESIGN.md §16).
    let sock_dir = std::env::temp_dir().join(format!("bat-shard-{}", std::process::id()));
    std::fs::create_dir_all(&sock_dir).map_err(|e| format!("socket dir: {e}"))?;
    let cfg = bat_comm::ClusterConfig::unix_in_dir(&sock_dir, 1 + shards).star();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let spawn_worker = {
        let exe = exe.clone();
        let dir = dir.clone();
        let basename = basename.clone();
        let cfg = cfg.clone();
        move |s: usize| -> std::io::Result<std::process::Child> {
            std::process::Command::new(&exe)
                .args(["shard-worker", &dir, &basename])
                .env(knobs::CLUSTER.name, cfg.with_rank(1 + s).to_spec())
                .spawn()
        }
    };
    let children: std::sync::Arc<std::sync::Mutex<Vec<Option<std::process::Child>>>> =
        std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    for s in 0..shards {
        let child = spawn_worker(s).map_err(|e| format!("spawn shard {s}: {e}"))?;
        children.lock().unwrap().push(Some(child));
    }
    let comm = bat_comm::Cluster::connect(&cfg).map_err(|e| format!("cluster connect: {e}"))?;

    // Supervision: heartbeat the workers; on loss, kill any stale process
    // and relaunch the same rank. The replacement dials the hub's
    // retained listener and is re-admitted to the mesh.
    let supervisor = {
        let children = children.clone();
        bat_stream::supervise(
            comm.clone_comm(),
            bat_stream::SupervisorConfig::from_env(),
            move |s| {
                let mut kids = children.lock().unwrap();
                if let Some(mut old) = kids[s].take() {
                    old.kill().ok();
                    old.wait().ok();
                }
                let fresh = spawn_worker(s)?;
                eprintln!("shard-serve: respawned shard {s} (rank {})", 1 + s);
                kids[s] = Some(fresh);
                Ok(())
            },
        )
    };

    let router = std::sync::Arc::new(bat_stream::ShardRouter::new(comm, std::sync::Arc::new(ds)));
    let front = bat_stream::ShardFront::bind(addr, router.clone(), args.options)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = front.local_addr().map_err(|e| format!("local addr: {e}"))?;
    let handle = front.spawn().map_err(|e| format!("start front: {e}"))?;
    println!(
        "shard-serving {particles} particles ({leaves} leaves) on {bound} across {shards} shard processes"
    );

    if !args.smoke {
        // Serve until killed.
        loop {
            std::thread::park();
        }
    }
    // Prove the fan-out path, then drain everything (CI and the tests).
    let n = smoke(bound)?;
    handle.shutdown();
    // Stop supervision before the shutdown broadcast, or exiting workers
    // would be "lost" and respawned mid-teardown.
    supervisor.stop();
    router.shutdown();
    for c in children.lock().unwrap().iter_mut().flatten() {
        c.wait().ok();
    }
    std::fs::remove_dir_all(&sock_dir).ok();
    println!("smoke: streamed {n} points through {shards} shards, drained cleanly");
    Ok(())
}

/// `bat shard-worker` — internal: one shard process of a `shard-serve`
/// fabric. Expects its rank's topology in `BAT_CLUSTER`.
pub fn shard_worker(args: &[String]) -> Result<()> {
    let (dir, basename) = match (args.first(), args.get(1)) {
        (Some(d), Some(b)) => (d.clone(), b.clone()),
        _ => return Err("expected <dir> <basename>".into()),
    };
    let cfg = bat_comm::ClusterConfig::from_env()
        .ok_or("shard-worker needs BAT_CLUSTER (it is spawned by shard-serve)")?
        .map_err(|e| format!("BAT_CLUSTER: {e}"))?;
    let comm = bat_comm::Cluster::connect(&cfg).map_err(|e| format!("cluster connect: {e}"))?;
    let ds = Dataset::open(&dir, &basename).map_err(|e| format!("open dataset: {e}"))?;
    let result = bat_stream::run_shard(&*comm, &ds);
    comm.shutdown();
    result.map_err(|e| format!("shard serve loop: {e}"))
}

/// `bat env` — print every `BAT_*` knob the workspace reads with the
/// parsed value in effect for this process (see the README's environment
/// table). Fails when a knob is set outside its grammar (it is being
/// ignored) or a `BAT_*` variable names no knob (probably a typo).
pub fn env(_args: &[String]) -> Result<()> {
    println!(
        "{:<24} {:<28} {:<8} meaning",
        "knob", "effective value", "origin"
    );
    let mut invalid = Vec::new();
    for knob in ENV_KNOBS {
        let (val, origin) = knob.effective();
        if origin == "invalid" {
            invalid.push(knob.name);
        }
        println!("{:<24} {val:<28} {origin:<8} {}", knob.name, knob.meaning);
    }
    let unknown = knobs::unknown_vars();
    for name in &unknown {
        println!(
            "{name:<24} {:<28} {:<8} not a knob (ignored)",
            "", "unknown"
        );
    }
    if invalid.is_empty() && unknown.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "ignored settings — out of grammar: {invalid:?}, not in the knob table: {unknown:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_comm::Cluster;
    use bat_workloads::{uniform, RankGrid};
    use libbat::write::{write_particles, WriteConfig};

    fn make_dataset(tag: &str) -> (std::path::PathBuf, String) {
        make_dataset_of(tag, 4, 2000)
    }

    fn make_dataset_of(tag: &str, ranks: usize, per_rank: u64) -> (std::path::PathBuf, String) {
        let dir = std::env::temp_dir().join(format!("bat-tools-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let grid = RankGrid::new_3d(ranks, bat_geom::Aabb::unit());
        let d = dir.clone();
        Cluster::run(ranks, move |comm| {
            let set = uniform::generate_rank(&grid, comm.rank(), per_rank, 3);
            let cfg = WriteConfig::with_target_size(100_000, set.bytes_per_particle() as u64);
            write_particles(&comm, set, grid.bounds_of(comm.rank()), &cfg, &d, "t").unwrap();
        });
        (dir, "t".to_string())
    }

    fn args(dir: &std::path::Path, base: &str, extra: &[&str]) -> Vec<String> {
        let mut v = vec![dir.to_str().unwrap().to_string(), base.to_string()];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    }

    #[test]
    fn info_files_stats_succeed() {
        let (dir, base) = make_dataset("info");
        info(&args(&dir, &base, &[])).unwrap();
        files(&args(&dir, &base, &[])).unwrap();
        stats(&args(&dir, &base, &[])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_ok_and_detects_damage() {
        let (dir, base) = make_dataset("verify");
        verify(&args(&dir, &base, &[])).unwrap();
        verify(&args(&dir, &base, &["--deep"])).unwrap();
        assert!(verify(&args(&dir, &base, &["--bogus"])).is_err());
        // Truncate a leaf file: the committed length no longer matches.
        let leaf = dir.join(libbat::write::leaf_file_name(&base, 0));
        let mut bytes = std::fs::read(&leaf).unwrap();
        let cut = bytes.len() / 2;
        bytes.truncate(cut);
        std::fs::write(&leaf, bytes).unwrap();
        assert!(verify(&args(&dir, &base, &[])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `--json` must track the human report's exit behavior exactly: same
    /// Ok/Err, same problem count in the error.
    #[test]
    fn verify_json_matches_human_exit_codes() {
        let (dir, base) = make_dataset("verify-json");
        verify(&args(&dir, &base, &["--json"])).unwrap();
        verify(&args(&dir, &base, &["--json", "--deep"])).unwrap();
        assert!(verify(&args(&dir, &base, &["--json", "--bogus"])).is_err());
        let leaf = dir.join(libbat::write::leaf_file_name(&base, 0));
        let mut bytes = std::fs::read(&leaf).unwrap();
        let cut = bytes.len() / 2;
        bytes.truncate(cut);
        std::fs::write(&leaf, bytes).unwrap();
        let human = verify(&args(&dir, &base, &[])).unwrap_err();
        let json = verify(&args(&dir, &base, &["--json"])).unwrap_err();
        assert_eq!(human, json, "json mode must not change the exit contract");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(
            json_escape("line\nbreak\tand\u{1}"),
            "line\\nbreak\\tand\\u0001"
        );
    }

    #[test]
    fn verify_detects_bit_rot_and_torn_commit() {
        let (dir, base) = make_dataset("verify-rot");
        // Flip one payload byte, keeping the length: only the CRC catches it.
        let leaf = dir.join(libbat::write::leaf_file_name(&base, 0));
        let mut bytes = std::fs::read(&leaf).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&leaf, bytes).unwrap();
        assert!(verify(&args(&dir, &base, &[])).is_err());
        // Damage the manifest body (tail sentinel intact): a torn commit.
        let meta = dir.join(libbat::write::meta_file_name(&base));
        let mut mb = std::fs::read(&meta).unwrap();
        let pos = mb.len() - 20;
        mb[pos] ^= 0xFF;
        std::fs::write(&meta, mb).unwrap();
        assert!(verify(&args(&dir, &base, &[])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_options_parse_and_run() {
        let (dir, base) = make_dataset("query");
        query(&args(&dir, &base, &[])).unwrap();
        query(&args(&dir, &base, &["--quality", "0.5"])).unwrap();
        query(&args(
            &dir,
            &base,
            &["--bounds", "0,0,0,0.5,0.5,0.5", "--dump", "2"],
        ))
        .unwrap();
        query(&args(&dir, &base, &["--filter", "0,-1,1"])).unwrap();
        assert!(query(&args(&dir, &base, &["--bogus"])).is_err());
        assert!(query(&args(&dir, &base, &["--bounds", "1,2"])).is_err());
        assert!(query(&args(&dir, &base, &["--quality"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn density_renders() {
        let (dir, base) = make_dataset("density");
        density(&args(&dir, &base, &[])).unwrap();
        density(&args(&dir, &base, &["--quality", "0.2"])).unwrap();
        assert!(density(&args(&dir, &base, &["--quality"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dataset_errors() {
        let bogus = vec!["/nonexistent".to_string(), "x".to_string()];
        assert!(info(&bogus).is_err());
        assert!(verify(&bogus).is_err());
    }

    #[test]
    fn serve_takes_backend_and_cache_from_the_knobs_only() {
        // Arguments are parsed before the dataset is opened; the read
        // backend and the cache budget are BAT_READ_BACKEND and
        // BAT_CACHE_BYTES, with no second parser behind a flag.
        for flag in ["--backend", "--cache-bytes"] {
            let argv = ["/nonexistent", "x", flag, "mmap"];
            let err = serve(&argv.map(String::from)).unwrap_err();
            assert_eq!(err, format!("unknown option '{flag}'"));
        }
    }

    #[test]
    fn serve_counts_are_integers_parsed_before_anything_runs() {
        // Parsed before the dataset is opened: a bad count errs on a path
        // that does not exist, and is never clamped into range.
        let bad = [
            ("--workers", "0"),
            ("--workers", "1.5"),
            ("--queue", "-1"),
            ("--deadline-ms", "-5"),
            ("--deadline-ms", "2.5"),
        ];
        for (flag, value) in bad {
            let argv = ["/nonexistent", "x", flag, value].map(String::from);
            for run in [serve, shard_serve] {
                let err = run(&argv).unwrap_err();
                assert!(err.starts_with(flag), "{flag} {value}: {err}");
            }
        }
        for value in ["0", "2.5", "-1"] {
            let argv = ["/nonexistent", "x", "--shards", value].map(String::from);
            let err = shard_serve(&argv).unwrap_err();
            assert!(err.starts_with("--shards"), "{value}: {err}");
        }
        let argv = ["/nonexistent", "x", "--shards", "2"].map(String::from);
        assert_eq!(serve(&argv).unwrap_err(), "unknown option '--shards'");
    }

    #[test]
    fn shard_serve_checks_the_dataset_before_it_spawns_workers() {
        let argv = ["/nonexistent", "x", "--shards", "2"].map(String::from);
        let err = shard_serve(&argv).unwrap_err();
        assert!(err.starts_with("open dataset"), "{err}");
        // One writing rank, one leaf file: two shards would own nothing.
        let (dir, base) = make_dataset_of("shard-serve", 1, 300);
        let leaves = Dataset::open(&dir, &base).unwrap().meta().leaves.len();
        assert_eq!(leaves, 1);
        let err = shard_serve(&args(&dir, &base, &["--shards", "2"])).unwrap_err();
        assert_eq!(err, "--shards 2 exceeds the dataset's 1 leaf files");
        std::fs::remove_dir_all(&dir).ok();
    }
}
