//! The per-layer numbers of a traced run.
//!
//! Four sources, none of which edits the program: the stats structs the
//! public API already returns (`WriteReport`, `QueryStats`, `StoreStats`,
//! `CacheStats`), `bat_obs` counters over the traced pass, bench-side spans
//! around the calls into each layer, and the probes of `probes.rs`. A layer
//! that is not on a workload's path reports 0 there.

use crate::datasets::Written;
use crate::inputs::{Class, Spec};
use crate::run::{
    add_stats, layered_query, open_local, Ctx, Pass, SessionOut, Workload, REMOTE_SLEEP_MS,
};
use crate::stats::median;
use crate::trace::{self, Span, Tracer};
use bat_iosim::WritePhase;
use bat_layout::reader::QueryStats;
use bat_obs::Snapshot;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// `(name, unit)` of every per-layer metric, in report order. The names are
/// `<crate>.<module>.<what>`; `BENCHMARK.json` lists the same set.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("aggregation.tree_build_ms", "ms"),
    ("aggregation.leaf_imbalance", "ratio"),
    ("comm.scatter_ms", "ms"),
    ("comm.shuffle_ms", "ms"),
    ("comm.shuffle_mbps", "MB/s"),
    ("layout.build_ms", "ms"),
    ("layout.build.probe_mbps", "MB/s"),
    ("layout.codec.encode_gbps", "GB/s"),
    ("index.build_mkeys_s", "Mkeys/s"),
    ("layout.format.write_ms", "ms"),
    ("layout.format.serialize_gbps", "GB/s"),
    ("wire.crc32c_gbps", "GB/s"),
    ("core.write.fsyncs", "count"),
    ("core.write.metadata_ms", "ms"),
    ("core.write.phase_sum_over_total", "ratio"),
    ("core.dataset.open_ms", "ms"),
    ("aggregation.meta.cull_us", "us"),
    ("layout.reader.plan_us", "us"),
    ("serve.plan.plan_us", "us"),
    ("index.search_us", "us"),
    ("index.nodes_fetched_per_query", "count"),
    ("layout.reader.execute_ms", "ms"),
    ("layout.reader.treelets_per_query", "count"),
    ("layout.reader.tested_per_returned", "ratio"),
    ("layout.reader.bitmap_skip_frac", "ratio"),
    ("layout.reader.filter_fp_frac", "ratio"),
    ("layout.codec.decode_gbps", "GB/s"),
    ("layout.codec.decoded_mb_per_query", "MB"),
    ("layout.codec.decode_share", "ratio"),
    ("layout.cache.hit_rate", "ratio"),
    ("layout.cache.evictions_per_query", "count"),
    ("layout.cache.rejected", "count"),
    ("layout.cache.resident_mb", "MB"),
    ("layout.cache.get_ns", "ns"),
    ("layout.source.requests_per_session", "count"),
    ("layout.source.bytes_per_session", "B"),
    ("layout.source.coalesced_frac", "ratio"),
    ("layout.source.prefetch_hit_rate", "ratio"),
    ("layout.source.retries", "count"),
    ("layout.source.overread", "ratio"),
    ("iosim.store.slept_share", "ratio"),
    ("stream.protocol.encode_gbps", "GB/s"),
    ("stream.protocol.decode_gbps", "GB/s"),
    ("stream.bytes_per_point", "B"),
    ("stream.server.request_ms", "ms"),
    ("stream.client.overhead_ms", "ms"),
    ("serve.pool.rejected", "count"),
    ("stream.client.retries", "count"),
    ("stream.shard.overhead_ms", "ms"),
    ("stream.shard.leaf_merge_us", "us"),
    ("stream.shard.requests_per_query", "count"),
    ("stream.shard.failovers", "count"),
    ("stream.shard.hedges", "count"),
    ("host.memcpy_gbps", "GB/s"),
    ("host.pread_gbps", "GB/s"),
    ("host.loopback_rtt_us", "us"),
    ("host.loopback_gbps", "GB/s"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// The host ceiling a rate metric is printed against.
pub fn ceiling_of(metric: &str) -> Option<&'static str> {
    if !(metric.ends_with("_gbps") || metric.ends_with("_mbps")) || metric.starts_with("host.") {
        return None;
    }
    Some(if metric.starts_with("stream.") {
        "host.loopback_gbps"
    } else {
        "host.memcpy_gbps"
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

/// One pass over the workload's query list on a local handle to the data
/// set the workload reads, every layer call under a span. This is what
/// gives the served workloads reader-level numbers: their planning and
/// scanning happen behind a socket, on exactly these bytes.
pub struct Replay {
    pub spans: Vec<Span>,
    pub stats: QueryStats,
    pub queries: u64,
    pub filter_queries: u64,
    /// Mean `QueryPlan::new` time, microseconds.
    pub plan_new_us: f64,
    /// Stored bytes of the distinct treelets the pass executed.
    pub touched_stored_bytes: u64,
    pub obs: Snapshot,
}

pub fn replay(w: Workload, ctx: &Ctx) -> Result<Replay, String> {
    let ds = open_local(&ctx.dir, w.reads())?;
    let queries = &ctx.inputs.queries;
    let specs: Vec<&Spec> = match w {
        Workload::RemoteCold => queries.session(),
        _ => (0..2).flat_map(|c| queries.cycle(c)).collect(),
    };
    bat_obs::Registry::global().clear();
    let on = bat_obs::enable();
    let mut tr = Tracer::new(true, Instant::now());
    let mut out = Replay {
        spans: Vec::new(),
        stats: QueryStats::default(),
        queries: 0,
        filter_queries: 0,
        plan_new_us: 0.0,
        touched_stored_bytes: 0,
        obs: Snapshot::default(),
    };
    let mut touched: HashSet<(u32, u32)> = HashSet::new();
    let mut plan_secs = Vec::new();
    for (qid, spec) in specs.iter().enumerate() {
        let t = Instant::now();
        bat_serve::QueryPlan::new(&ds, &spec.query).map_err(|e| e.to_string())?;
        plan_secs.push(t.elapsed().as_secs_f64());
        let mut touched_bytes = 0u64;
        let stats = tr.span("query", qid as u64, |tr| {
            layered_query(
                &ds,
                &spec.query,
                tr,
                qid as u64,
                &mut |_| {},
                &mut |leaf, file, plan| {
                    for &t in plan.treelets() {
                        if touched.insert((leaf, t)) {
                            touched_bytes +=
                                file.head().stored_block_size(t as usize).unwrap_or(0) as u64;
                        }
                    }
                },
            )
        })?;
        out.touched_stored_bytes += touched_bytes;
        add_stats(&mut out.stats, &stats);
        out.queries += 1;
        if matches!(spec.class, Class::FilterLo | Class::FilterHi) {
            out.filter_queries += 1;
        }
    }
    drop(on);
    out.obs = bat_obs::Registry::global().snapshot();
    out.plan_new_us = plan_secs.iter().sum::<f64>() / plan_secs.len().max(1) as f64 * 1e6;
    out.spans = tr.spans;
    Ok(out)
}

/// Everything a traced run has gathered, reduced to the per-layer list.
pub struct Sources<'a> {
    pub workload: Workload,
    pub ctx: &'a Ctx,
    /// `bat_obs` over the set-up (writes, reference queries, sim session).
    pub setup_obs: &'a Snapshot,
    /// The run's two measured passes and `bat_obs` over the traced one.
    pub untraced: &'a Pass,
    pub traced: &'a Pass,
    pub obs: &'a Snapshot,
    pub replay: &'a Replay,
    pub probes: &'a BTreeMap<&'static str, f64>,
    /// Per-class median of `shard-warm` minus the same cycle through a
    /// single-process stream server, milliseconds (`shard-warm` only).
    pub shard_overhead_ms: Option<f64>,
}

fn median_of(writes: &[&Written], f: impl Fn(&Written) -> f64) -> f64 {
    median(&writes.iter().map(|w| f(w)).collect::<Vec<_>>())
}

pub fn per_layer(src: &Sources<'_>) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect();
    let mut set = |name: &'static str, v: f64| {
        debug_assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not declared"
        );
        m.insert(name, if v.is_finite() { v } else { 0.0 });
    };
    let (traced, obs) = (src.traced, src.obs);

    // --- write pipeline: the set-up's config-A commits, plus the traced
    // pass's on `write-commit` (median over them) ---
    let mut writes_a: Vec<&Written> = src.ctx.a.iter().collect();
    writes_a.extend(&traced.writes_a);
    let phase = |ph: WritePhase| median_of(&writes_a, |w| w.report.times[ph] * 1e3);
    set("aggregation.tree_build_ms", phase(WritePhase::TreeBuild));
    set(
        "aggregation.leaf_imbalance",
        median_of(&writes_a, |w| {
            ratio(
                w.report.balance.max_bytes as f64,
                w.report.balance.mean_bytes,
            )
        }),
    );
    set("comm.scatter_ms", phase(WritePhase::Scatter));
    set("comm.shuffle_ms", phase(WritePhase::Transfer));
    set(
        "comm.shuffle_mbps",
        median_of(&writes_a, |w| {
            ratio(
                w.report.bytes_total as f64 / 1e6,
                w.report.times[WritePhase::Transfer],
            )
        }),
    );
    set("layout.build_ms", phase(WritePhase::LayoutBuild));
    set("layout.format.write_ms", phase(WritePhase::FileWrite));
    set("core.write.metadata_ms", phase(WritePhase::Metadata));
    set(
        "core.write.phase_sum_over_total",
        median_of(&writes_a, |w| {
            ratio(w.report.times.component_sum(), w.report.times.total)
        }),
    );
    // The set-up's commits ran under obs: fsyncs per commit.
    set(
        "core.write.fsyncs",
        counter(src.setup_obs, "commit.fsyncs") / (2 * crate::run::SETUP_COMMITS) as f64,
    );

    // --- probes and host ceilings ---
    for (&name, &v) in src.probes {
        set(name, v);
    }

    // --- reader layers, from the replay's spans and QueryStats ---
    let r = src.replay;
    let by_name = trace::totals_by_name(&r.spans);
    let mean_us = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |&(ns, n)| ratio(ns as f64 / 1e3, n as f64))
    };
    set("aggregation.meta.cull_us", mean_us("cull"));
    set("layout.reader.plan_us", mean_us("plan"));
    set("serve.plan.plan_us", r.plan_new_us);
    set(
        "layout.reader.execute_ms",
        by_name
            .get("execute")
            .map_or(0.0, |&(ns, _)| ratio(ns as f64 / 1e6, r.queries as f64)),
    );
    set(
        "index.nodes_fetched_per_query",
        ratio(
            counter(&r.obs, "index.nodes_fetched"),
            r.filter_queries as f64,
        ),
    );
    let s = &r.stats;
    set(
        "layout.reader.treelets_per_query",
        ratio(s.treelets_visited as f64, r.queries as f64),
    );
    set(
        "layout.reader.tested_per_returned",
        ratio(s.points_tested as f64, s.points_returned as f64),
    );
    set(
        "layout.reader.bitmap_skip_frac",
        ratio(
            s.bitmap_skips as f64,
            (s.bitmap_skips + s.bitmap_hits) as f64,
        ),
    );
    set(
        "layout.reader.filter_fp_frac",
        ratio(
            s.filter_false_positives as f64,
            (s.filter_false_positives + s.filter_hits) as f64,
        ),
    );

    // --- decode on the workload's own path (traced pass) ---
    let queries = traced.acc.queries().max(1) as f64;
    let mean_wall_ms = traced.acc.all_ms().iter().sum::<f64>() / queries;
    let decoded_mb = counter(obs, "codec.bytes_decoded") / 1e6 / queries;
    set("layout.codec.decoded_mb_per_query", decoded_mb);
    let decode_ms = ratio(
        decoded_mb,
        src.probes
            .get("layout.codec.decode_gbps")
            .copied()
            .unwrap_or(0.0),
    );
    set("layout.codec.decode_share", ratio(decode_ms, mean_wall_ms));

    // --- page cache: the served workloads' shared cache, or the sessions' ---
    let sessions: Vec<&SessionOut> = if traced.sessions.is_empty() {
        vec![&src.ctx.sim_session]
    } else {
        traced.sessions.iter().collect()
    };
    let cache = traced.cache.or_else(|| {
        (src.workload == Workload::RemoteCold).then(|| {
            let mut sum = bat_layout::CacheStats::default();
            for s in &sessions {
                sum.hits += s.cache.hits;
                sum.misses += s.cache.misses;
                sum.evictions += s.cache.evictions;
                sum.rejected += s.cache.rejected;
                sum.bytes = sum.bytes.max(s.cache.bytes);
            }
            sum
        })
    });
    if let Some(c) = cache {
        set(
            "layout.cache.hit_rate",
            ratio(c.hits as f64, (c.hits + c.misses) as f64),
        );
        set(
            "layout.cache.evictions_per_query",
            ratio(c.evictions as f64, queries),
        );
        set("layout.cache.rejected", c.rejected as f64);
        set("layout.cache.resident_mb", c.bytes as f64 / 1e6);
    }

    // --- range source: the measured sessions on `remote-cold`, the
    // set-up's replay against the accounting-only store elsewhere ---
    let range_obs = if src.workload == Workload::RemoteCold {
        obs
    } else {
        src.setup_obs
    };
    let n = sessions.len() as f64;
    let requests = sessions
        .iter()
        .map(|s| s.store.requests as f64)
        .sum::<f64>()
        / n;
    let bytes = sessions.iter().map(|s| s.store.bytes as f64).sum::<f64>() / n;
    set("layout.source.requests_per_session", requests);
    set("layout.source.bytes_per_session", bytes);
    let coalesced = counter(range_obs, "range.coalesced");
    set(
        "layout.source.coalesced_frac",
        ratio(coalesced, coalesced + counter(range_obs, "range.requests")),
    );
    // Every block a session materializes lands in its (fresh, big enough)
    // cache exactly once: resident entries = blocks fetched.
    let blocks: f64 = sessions.iter().map(|s| s.cache.entries as f64).sum();
    set(
        "layout.source.prefetch_hit_rate",
        ratio(counter(range_obs, "range.prefetch_hits"), blocks),
    );
    set("layout.source.retries", counter(range_obs, "range.retries"));
    // The replay walked the same path, so its distinct treelets are the
    // bytes a perfect fetch plan would have moved.
    if src.workload == Workload::RemoteCold {
        set(
            "layout.source.overread",
            ratio(bytes, r.touched_stored_bytes as f64),
        );
        let wall = sessions.iter().map(|s| s.secs).sum::<f64>() / n;
        set(
            "iosim.store.slept_share",
            ratio(requests * REMOTE_SLEEP_MS as f64 / 1e3, wall),
        );
    }

    // --- stream + shard, from the traced pass's obs ---
    set(
        "stream.bytes_per_point",
        ratio(
            counter(obs, "stream.bytes_sent"),
            counter(obs, "stream.points_sent"),
        ),
    );
    if let Some(h) = obs.histogram("stream.request_ns") {
        let server_ms = h.mean() / 1e6;
        set("stream.server.request_ms", server_ms);
        set("stream.client.overhead_ms", mean_wall_ms - server_ms);
    }
    let rejected = counter(obs, "serve.rejected");
    set("serve.pool.rejected", rejected);
    // `request_with_retry` resubmits every refusal it is sent.
    set("stream.client.retries", rejected);
    if let Some(h) = obs.histogram("router.leaf_merge_us") {
        set("stream.shard.leaf_merge_us", h.mean());
    }
    set(
        "stream.shard.requests_per_query",
        ratio(
            counter(obs, "shard.requests"),
            counter(obs, "router.requests"),
        ),
    );
    set("stream.shard.failovers", counter(obs, "shard.failover"));
    set("stream.shard.hedges", counter(obs, "shard.hedge.issued"));
    if let Some(ms) = src.shard_overhead_ms {
        set("stream.shard.overhead_ms", ms);
    }
    set(
        "obs.trace_overhead_frac",
        1.0 - ratio(traced.queries_per_s(), src.untraced.queries_per_s()),
    );
    m
}

/// Mean over the five classes of `a`'s median latency minus `b`'s.
pub fn class_gap_ms(a: &Pass, b: &Pass) -> f64 {
    let gaps: Vec<f64> = Class::REPORTED
        .iter()
        .filter_map(|c| {
            let (x, y) = (a.acc.lat_ms.get(c)?, b.acc.lat_ms.get(c)?);
            Some(median(x) - median(y))
        })
        .collect();
    ratio(gaps.iter().sum(), gaps.len() as f64)
}
