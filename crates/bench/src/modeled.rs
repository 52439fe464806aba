//! The modeled experiments: the real aggregation plans at the paper's rank
//! counts, every duration priced by `bat-iosim` from the committed
//! [`SystemProfile`]s. Nothing here reads a clock, so every table is a pure
//! function of the [`RunScale`].

use crate::report::Table;
use crate::{sweeps, RunScale};
use bat_aggregation::RankInfo;
use bat_baselines as ior;
use bat_geom::Aabb;
use bat_iosim::{SystemProfile, WritePhase};
use bat_workloads::{coal_boiler, cosmology, dam_break, uniform};
use bat_workloads::{CoalBoiler, Cosmology, DamBreak, RankGrid};
use libbat::write::{build_tree, Strategy, WriteConfig};
use libbat::{model_read, model_write, ModeledOutcome};

const STRATEGIES: [Strategy; 2] = [Strategy::Adaptive, Strategy::Aug];
/// The rank count the paper runs the Coal Boiler on.
const COAL_RANKS: usize = 1536;

fn config(target_mb: u64, bpp: u64, strategy: Strategy) -> WriteConfig {
    let mut cfg = WriteConfig::with_target_size(target_mb << 20, bpp);
    cfg.strategy = strategy;
    cfg
}

fn label(strategy: Strategy) -> String {
    format!("{strategy:?}").to_lowercase()
}

fn gbs(bytes_per_sec: f64) -> String {
    format!("{:.2}", bytes_per_sec / 1e9)
}

/// The weak-scaling sweep both systems run in Figs. 5–7.
fn systems(scale: RunScale) -> [(SystemProfile, Vec<usize>); 2] {
    [
        (SystemProfile::stampede2(), sweeps::stampede2_ranks(scale)),
        (SystemProfile::summit(), sweeps::summit_ranks(scale)),
    ]
}

fn uniform_infos(ranks: usize) -> Vec<RankInfo> {
    let grid = RankGrid::new_3d(ranks, Aabb::unit());
    uniform::rank_infos(&grid, uniform::PARTICLES_PER_RANK)
}

type Baseline = fn(&SystemProfile, usize, u64) -> f64;
type TwoPhase = fn(&SystemProfile, &[RankInfo], &WriteConfig) -> ModeledOutcome;

/// Figs. 5 and 7: bandwidth against the three IOR-style baselines over the
/// rank sweep, one table per system, one `ours_*` column per target size.
fn weak_scaling(
    fig: u32,
    verb: &str,
    baselines: [Baseline; 3],
    ours: TwoPhase,
    scale: RunScale,
) -> Vec<Table> {
    let bpr = uniform::PARTICLES_PER_RANK * uniform::BYTES_PER_PARTICLE;
    let targets = sweeps::target_sizes_mb(scale);
    let mut headers: Vec<String> = ["ranks", "total_GB", "fpp", "shared", "hdf5"]
        .map(String::from)
        .to_vec();
    headers.extend(targets.iter().map(|t| format!("ours_{t}MB")));
    systems(scale)
        .into_iter()
        .map(|(profile, ranks_sweep)| {
            let mut table = Table::new(
                format!("fig{fig}_{}", profile.name),
                format!("Fig {fig} ({}) {verb} bandwidth, GB/s", profile.name),
                &headers,
            );
            for n in ranks_sweep {
                let total_bytes = (n as u64 * bpr) as f64;
                let infos = uniform_infos(n);
                let mut row = vec![n.to_string(), format!("{:.1}", total_bytes / 1e9)];
                row.extend(
                    baselines
                        .iter()
                        .map(|model| gbs(total_bytes / model(&profile, n, bpr))),
                );
                for &t in &targets {
                    let cfg = config(t, uniform::BYTES_PER_PARTICLE, Strategy::Adaptive);
                    row.push(gbs(ours(&profile, &infos, &cfg).bandwidth()));
                }
                table.row(row);
            }
            table
        })
        .collect()
}

pub fn fig5(scale: RunScale) -> Vec<Table> {
    weak_scaling(
        5,
        "write",
        [
            ior::model_fpp_write,
            ior::model_shared_write,
            ior::model_hdf5_write,
        ],
        model_write,
        scale,
    )
}

pub fn fig7(scale: RunScale) -> Vec<Table> {
    weak_scaling(
        7,
        "read",
        [
            ior::model_fpp_read,
            ior::model_shared_read,
            ior::model_hdf5_read,
        ],
        |profile, infos, cfg| model_read(profile, infos, cfg, infos.len()),
        scale,
    )
}

/// Fig. 6: per system, the share of each write phase at 8 MB and 64 MB
/// targets, then the queue/utilization gauges the queueing model published
/// for the last point of the sweep.
pub fn fig6(scale: RunScale) -> Vec<Table> {
    let mut tables = Vec::new();
    for (profile, ranks_sweep) in systems(scale) {
        let registry = std::sync::Arc::new(bat_obs::Registry::new());
        let _recording = (bat_obs::enable(), bat_obs::scope(registry.clone()));
        let mut table = Table::new(
            format!("fig6_{}", profile.name),
            format!(
                "Fig 6 ({}) write pipeline breakdown, % of component time",
                profile.name
            ),
            &[
                "target",
                "ranks",
                "total_s",
                "tree%",
                "scatter%",
                "transfer%",
                "build%",
                "write%",
                "meta%",
            ],
        );
        for target_mb in [8u64, 64] {
            for &n in &ranks_sweep {
                let cfg = config(target_mb, uniform::BYTES_PER_PARTICLE, Strategy::Adaptive);
                let times = model_write(&profile, &uniform_infos(n), &cfg).times;
                let mut row = vec![
                    format!("{target_mb}MB"),
                    n.to_string(),
                    format!("{:.3}", times.total),
                ];
                row.extend(WritePhase::ALL.map(|p| format!("{:.1}", times.fraction(p) * 100.0)));
                table.row(row);
            }
        }
        tables.push(table);

        let mut gauges = Table::new(
            format!("fig6_{}_observability", profile.name),
            format!("Fig 6 ({}) — observability", profile.name),
            &["metric", "value"],
        );
        let snap = registry.snapshot();
        for (name, value) in snap.gauges.iter().filter(|(n, _)| n.starts_with("iosim.")) {
            gauges.row(vec![name.clone(), format!("{value:.3}")]);
        }
        tables.push(gauges);
    }
    tables
}

/// One row per timestep of adaptive-vs-AUG write and read bandwidth, a
/// column pair per target size. `step` yields the rank population and the
/// leading cells of the write and read row.
fn strategy_series(
    [write_name, read_name]: [String; 2],
    [write_title, read_title]: [String; 2],
    lead: &[&str],
    profile: &SystemProfile,
    (bpp, targets_mb): (u64, &[u64]),
    steps: &[u32],
    step: impl Fn(u32) -> (Vec<RankInfo>, Vec<String>, Vec<String>),
) -> Vec<Table> {
    let mut headers: Vec<String> = lead.iter().map(|s| s.to_string()).collect();
    for t in targets_mb {
        headers.extend([format!("ad_{t}MB"), format!("aug_{t}MB")]);
    }
    let mut wtable = Table::new(write_name, write_title, &headers);
    let mut rtable = Table::new(read_name, read_title, &headers);
    for &s in steps {
        let (infos, mut wrow, mut rrow) = step(s);
        for &t in targets_mb {
            for strategy in STRATEGIES {
                let cfg = config(t, bpp, strategy);
                wrow.push(gbs(model_write(profile, &infos, &cfg).bandwidth()));
                rrow.push(gbs(
                    model_read(profile, &infos, &cfg, infos.len()).bandwidth()
                ));
            }
        }
        wtable.row(wrow);
        rtable.row(rrow);
    }
    vec![wtable, rtable]
}

/// Seconds per write phase and in total, adaptive then AUG, per timestep;
/// also returns the totals per strategy (in [`STRATEGIES`] order).
fn breakdown_series(
    name: &str,
    title: &str,
    (bpp, target_mb): (u64, u64),
    steps: &[u32],
    infos_of: impl Fn(u32) -> Vec<RankInfo>,
) -> (Table, [Vec<f64>; 2]) {
    let s2 = SystemProfile::stampede2();
    let mut table = Table::new(
        name,
        title,
        &[
            "step", "strategy", "tree", "scatter", "transfer", "build", "write", "meta", "total",
        ],
    );
    let mut totals = [Vec::new(), Vec::new()];
    for &step in steps {
        let infos = infos_of(step);
        for (strategy, totals) in STRATEGIES.into_iter().zip(&mut totals) {
            let times = model_write(&s2, &infos, &config(target_mb, bpp, strategy)).times;
            let mut row = vec![step.to_string(), label(strategy)];
            row.extend(WritePhase::ALL.map(|p| format!("{:.4}", times[p])));
            row.push(format!("{:.4}", times.total));
            table.row(row);
            totals.push(times.total);
        }
    }
    (table, totals)
}

pub fn fig9(scale: RunScale) -> Vec<Table> {
    let targets_mb: &[u64] = match scale {
        RunScale::Quick => &[8, 64],
        _ => &[8, 16, 32, 64],
    };
    let samples = sweeps::mc_samples(scale);
    let cb = CoalBoiler::new(1.0, 42);
    let bpp = coal_boiler::BYTES_PER_PARTICLE;
    strategy_series(
        ["fig9a_coal_write", "fig9b_coal_read"].map(String::from),
        ["Fig 9a: Coal Boiler write", "Fig 9b: Coal Boiler read"]
            .map(|t| format!("{t} bandwidth (GB/s), {COAL_RANKS} ranks")),
        &["step", "particles", "GB"],
        &SystemProfile::stampede2(),
        (bpp, targets_mb),
        &sweeps::coal_steps(scale),
        |step| {
            let particles = cb.particle_count(step);
            let lead = vec![
                step.to_string(),
                particles.to_string(),
                format!("{:.1}", (particles * bpp) as f64 / 1e9),
            ];
            let grid = cb.grid(step, COAL_RANKS);
            (cb.rank_infos(step, &grid, samples), lead.clone(), lead)
        },
    )
}

pub fn fig10(scale: RunScale) -> Vec<Table> {
    let samples = sweeps::mc_samples(scale);
    let cb = CoalBoiler::new(1.0, 42);
    let (table, _) = breakdown_series(
        "fig10_coal_breakdown",
        "Fig 10: Coal Boiler breakdowns at 8 MB target, 1536 ranks (seconds)",
        (coal_boiler::BYTES_PER_PARTICLE, 8),
        &sweeps::coal_steps(scale),
        |step| cb.rank_infos(step, &cb.grid(step, COAL_RANKS), samples),
    );
    vec![table]
}

pub fn fig11(scale: RunScale) -> Vec<Table> {
    let targets_mb: &[u64] = match scale {
        RunScale::Quick => &[3],
        _ => &[1, 3, 6],
    };
    let s2 = SystemProfile::stampede2();
    let samples = sweeps::mc_samples(scale);
    let bpp = dam_break::BYTES_PER_PARTICLE;
    let mut tables = Vec::new();
    for (particles, ranks) in [(2_000_000u64, 1536usize), (8_000_000, 6144)] {
        let db = DamBreak::new(particles, 17);
        let grid = db.grid(ranks);
        let millions = particles / 1_000_000;
        // FPP moves each rank's own data; bytes/rank varies, but IOR-style
        // FPP is approximated with the mean payload (the distribution's
        // effect on FPP is small: every rank still creates one file).
        let total_bytes = particles * bpp;
        let mean_bpr = total_bytes / ranks as u64;
        let fpp = |model: Baseline| gbs(total_bytes as f64 / model(&s2, ranks, mean_bpr));
        tables.extend(strategy_series(
            ["write", "read"].map(|op| format!("fig11_dam_{millions}m_{ranks}r_{op}")),
            ["write", "read"]
                .map(|op| format!("Fig 11 Dam Break {millions}M/{ranks}: {op} bandwidth (GB/s)")),
            &["step", "fpp"],
            &s2,
            (bpp, targets_mb),
            &sweeps::dam_steps(scale),
            |step| {
                (
                    db.rank_infos(step, &grid, samples),
                    vec![step.to_string(), fpp(ior::model_fpp_write)],
                    vec![step.to_string(), fpp(ior::model_fpp_read)],
                )
            },
        ));
    }
    tables
}

pub fn fig12(scale: RunScale) -> Vec<Table> {
    let samples = sweeps::mc_samples(scale);
    let db = DamBreak::new(8_000_000, 17);
    let grid = db.grid(6144);
    let (table, totals) = breakdown_series(
        "fig12_dam_breakdown",
        "Fig 12: 8M Dam Break breakdowns at 3 MB target, 6144 ranks (seconds)",
        (dam_break::BYTES_PER_PARTICLE, 3),
        &sweeps::dam_steps(scale),
        |step| db.rank_infos(step, &grid, samples),
    );
    let mut spread = Table::new(
        "fig12_dam_variability",
        "Fig 12: write-time variability over the series (max/min of total)",
        &["strategy", "min_s", "max_s", "max_over_min"],
    );
    for (strategy, totals) in STRATEGIES.into_iter().zip(&totals) {
        let max = totals.iter().copied().fold(f64::MIN, f64::max);
        let min = totals.iter().copied().fold(f64::MAX, f64::min);
        spread.row(vec![
            label(strategy),
            format!("{min:.4}"),
            format!("{max:.4}"),
            format!("{:.2}", max / min),
        ]);
    }
    vec![table, spread]
}

/// Coal Boiler t=4501 on 1536 ranks: the population the §VI-A2 statistic
/// and the overfull ablation both plan over.
fn coal_final_step(scale: RunScale) -> Vec<RankInfo> {
    let cb = CoalBoiler::new(1.0, 42);
    cb.rank_infos(4501, &cb.grid(4501, COAL_RANKS), sweeps::mc_samples(scale))
}

fn mb(bytes: f64) -> String {
    format!("{:.1}", bytes / 1e6)
}

/// §VI-A2: the *real* aggregation algorithms over the full-scale rank
/// population (41.5M particles) — no performance model is involved.
pub fn stats_file_sizes(scale: RunScale) -> Vec<Table> {
    let infos = coal_final_step(scale);
    let mut table = Table::new(
        "stats_file_sizes",
        "File-size balance, Coal Boiler t=4501, 8 MB target, 1536 ranks",
        &[
            "strategy",
            "files",
            "mean_MB",
            "stddev_MB",
            "max_MB",
            "paper",
        ],
    );
    for (strategy, paper) in [
        (Strategy::Aug, "296 files, 10.2 ± 13.9, max 72.9"),
        (Strategy::Adaptive, "327 files, 9.2 ± 8.4, max 36.6"),
    ] {
        let b = build_tree(
            &infos,
            &config(8, coal_boiler::BYTES_PER_PARTICLE, strategy),
        )
        .balance();
        table.row(vec![
            format!("{strategy:?}"),
            b.num_files.to_string(),
            mb(b.mean_bytes),
            mb(b.stddev_bytes),
            mb(b.max_bytes as f64),
            paper.to_string(),
        ]);
    }
    vec![table]
}

/// §III-A introduces overfull leaves "to avoid forcing the creation of
/// extremely imbalanced leaves"; the evaluation runs with a split-cost
/// threshold of 4 and an overfull factor of 1.5×. Both knobs' effect on the
/// Coal Boiler's file-size distribution.
pub fn ablate_overfull(scale: RunScale) -> Vec<Table> {
    let infos = coal_final_step(scale);
    let mut table = Table::new(
        "ablate_overfull",
        "Ablation: overfull policy (Coal Boiler t=4501, 8 MB target, 1536 ranks)",
        &["ratio", "factor", "files", "mean_MB", "stddev_MB", "max_MB"],
    );
    for ratio in [1.5f64, 2.0, 4.0, 8.0, f64::INFINITY] {
        for factor in [1.25f64, 1.5, 2.0] {
            let mut cfg = config(8, coal_boiler::BYTES_PER_PARTICLE, Strategy::Adaptive);
            cfg.agg.overfull_ratio = ratio;
            cfg.agg.overfull_factor = factor;
            let b = build_tree(&infos, &cfg).balance();
            table.row(vec![
                if ratio.is_infinite() {
                    "off".to_string()
                } else {
                    format!("{ratio}")
                },
                format!("{factor}"),
                b.num_files.to_string(),
                mb(b.mean_bytes),
                mb(b.stddev_bytes),
                mb(b.max_bytes as f64),
            ]);
        }
    }
    vec![table]
}

/// Generalization beyond the paper's two datasets: deep point clusters are
/// a different imbalance shape than jets (Coal Boiler) or a traveling wave
/// (Dam Break); the adaptive tree should still beat the AUG on balance and
/// modeled I/O time.
pub fn extra_cosmology(scale: RunScale) -> Vec<Table> {
    let s2 = SystemProfile::stampede2();
    let samples = sweeps::mc_samples(scale);
    let mut table = Table::new(
        "extra_cosmology",
        "Extra: cosmology halos, adaptive vs AUG (Stampede2-like)",
        &[
            "particles",
            "ranks",
            "target",
            "strategy",
            "files",
            "sigma_MB",
            "max_MB",
            "write_GBs",
            "read_GBs",
        ],
    );
    let configs: &[(u64, usize)] = match scale {
        RunScale::Quick => &[(50_000_000, 1536)],
        _ => &[(50_000_000, 1536), (200_000_000, 6144)],
    };
    for &(particles, ranks) in configs {
        let cosmo = Cosmology::new(particles, 256, 2024);
        let infos = cosmo.rank_infos(&cosmo.grid(ranks), samples);
        for target_mb in [8u64, 32] {
            for strategy in STRATEGIES {
                let cfg = config(target_mb, cosmology::BYTES_PER_PARTICLE, strategy);
                let w = model_write(&s2, &infos, &cfg);
                let r = model_read(&s2, &infos, &cfg, ranks);
                table.row(vec![
                    particles.to_string(),
                    ranks.to_string(),
                    format!("{target_mb}MB"),
                    format!("{strategy:?}"),
                    w.files.to_string(),
                    mb(w.balance.stddev_bytes),
                    mb(w.balance.max_bytes as f64),
                    gbs(w.bandwidth()),
                    gbs(r.bandwidth()),
                ]);
            }
        }
    }
    vec![table]
}
