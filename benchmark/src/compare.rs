//! `compare`: two sets of run files in, one row per (metric, workload) out.
//!
//! A row carries the median, quartiles and sample count of each side and a
//! verdict against the bound `BENCHMARK.json` fixes for the metric:
//!
//! * `regressed`  — the new median is worse than the base median by more
//!   than the bound;
//! * `unresolved` — the run-to-run spread (interquartile range over the
//!   median, the wider of the two sides) exceeds the bound, so a change of
//!   the bound's size could hide in the noise; reported instead of
//!   `unchanged` unless every new run beats every base run;
//! * `improved`   — every new run is better than every base run and the
//!   medians differ by more than the base's own spread;
//! * `unchanged`  — none of the above.
//!
//! Per-layer metrics have no bound; they are listed with `-` as verdict.

use crate::json::{self, Value};
use crate::stats::{quartiles, spread};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
    /// No bound is fixed for this metric (per-layer).
    Unbounded,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unbounded => "-",
        }
    }
}

/// Direction and bound of every end-to-end metric, as `BENCHMARK.json`
/// declares them (per-layer metrics carry no bound).
#[derive(Debug, Default)]
pub struct Bounds {
    pub end_to_end: BTreeMap<String, (Better, f64)>,
}

impl Bounds {
    pub fn parse(text: &str) -> Result<Bounds, String> {
        let doc = json::parse(text)?;
        let mut out = Bounds::default();
        for (key, bounded) in [("end_to_end", true), ("per_layer", false)] {
            let list = doc
                .get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?;
            for m in list {
                let name = m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("a `{key}` metric has no name"))?;
                let better = match m.get("better").and_then(Value::as_str) {
                    Some("lower") => Better::Lower,
                    Some("higher") => Better::Higher,
                    other => return Err(format!("{name}: `better` is {other:?}")),
                };
                if bounded {
                    let bound = m
                        .get("bound")
                        .and_then(Value::as_f64)
                        .filter(|b| (0.0..=0.25).contains(b))
                        .ok_or_else(|| format!("{name}: missing or out-of-range bound"))?;
                    out.end_to_end.insert(name.to_string(), (better, bound));
                }
            }
        }
        Ok(out)
    }
}

/// `(workload, metric) -> values`, from the result objects of a set of run
/// files (JSON lines as `run --out` writes them).
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

pub fn load(samples: &mut Samples, text: &str) -> Result<(), String> {
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: result has no workload", n + 1))?;
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("line {}: result has no metrics", n + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                samples
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(())
}

/// The verdict for one (metric, workload) pair.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (_, base_med, _) = quartiles(base);
    let (_, new_med, _) = quartiles(new);
    if base_med == 0.0 {
        return if new_med == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    // Positive = worse, as a share of the base median.
    let worse_by = match better {
        Better::Lower => (new_med - base_med) / base_med.abs(),
        Better::Higher => (base_med - new_med) / base_med.abs(),
    };
    let noise = spread(base).max(spread(new));
    let beats = |n: f64, b: f64| match better {
        Better::Lower => n < b,
        Better::Higher => n > b,
    };
    let all_better = new.iter().all(|&n| base.iter().all(|&b| beats(n, b)));
    if all_better && -worse_by > spread(base) {
        return Verdict::Improved;
    }
    if noise > bound {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        return Verdict::Regressed;
    }
    Verdict::Unchanged
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: (f64, f64, f64, usize),
    pub new: (f64, f64, f64, usize),
    pub verdict: Verdict,
}

pub fn compare(bounds: &Bounds, base: &Samples, new: &Samples) -> Vec<Row> {
    let mut rows = Vec::new();
    for ((workload, metric), b) in base {
        let Some(n) = new.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let verdict = match bounds.end_to_end.get(metric) {
            Some(&(better, bound)) => verdict(b, n, better, bound),
            None => Verdict::Unbounded,
        };
        let q = |v: &[f64]| {
            let (q1, q2, q3) = quartiles(v);
            (q1, q2, q3, v.len())
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            base: q(b),
            new: q(n),
            verdict,
        });
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<36} {:>12} {:>25} {:>3}  {:>12} {:>25} {:>3}  {:>8}  {}\n",
        "workload",
        "metric",
        "base median",
        "[q1, q3]",
        "n",
        "new median",
        "[q1, q3]",
        "n",
        "change",
        "verdict"
    );
    for r in rows {
        let change = if r.base.1 != 0.0 {
            format!("{:+.1}%", (r.new.1 - r.base.1) / r.base.1.abs() * 100.0)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{:<14} {:<36} {:>12.5} {:>25} {:>3}  {:>12.5} {:>25} {:>3}  {:>8}  {}\n",
            r.workload,
            r.metric,
            r.base.1,
            format!("[{:.5}, {:.5}]", r.base.0, r.base.2),
            r.base.3,
            r.new.1,
            format!("[{:.5}, {:.5}]", r.new.0, r.new.2),
            r.new.3,
            change,
            r.verdict.name(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Better = Better::Lower;
    const HIGHER: Better = Better::Higher;

    #[test]
    fn verdicts_on_synthetic_runs() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same numbers: unchanged.
        assert_eq!(verdict(&base, &base, LOWER, 0.10), Verdict::Unchanged);
        // 5 % slower with a 10 % bound: still unchanged.
        let slower5: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&base, &slower5, LOWER, 0.10), Verdict::Unchanged);
        // 20 % slower: regressed; for a higher-is-better metric it improved.
        let slower20: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&base, &slower20, LOWER, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&base, &slower20, HIGHER, 0.10), Verdict::Improved);
        // 20 % faster, every run beating every base run: improved.
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&base, &faster, LOWER, 0.10), Verdict::Improved);
        assert_eq!(verdict(&base, &faster, HIGHER, 0.10), Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy = [80.0, 120.0, 95.0, 130.0, 70.0];
        let also = [85.0, 118.0, 99.0, 125.0, 75.0];
        assert_eq!(verdict(&noisy, &also, LOWER, 0.10), Verdict::Unresolved);
        // ... unless every new run beats every base run.
        let clear = [10.0, 12.0, 11.0, 13.0, 9.0];
        assert_eq!(verdict(&noisy, &clear, LOWER, 0.10), Verdict::Improved);
        // A zero bound (`no increase`) tolerates no worsening at all.
        let base = [1.0, 1.0, 1.0];
        assert_eq!(verdict(&base, &base, HIGHER, 0.0), Verdict::Unchanged);
        assert_eq!(
            verdict(&base, &[0.99, 0.99, 0.99], HIGHER, 0.0),
            Verdict::Regressed
        );
    }

    #[test]
    fn loads_run_files_and_applies_declared_bounds() {
        let bounds = Bounds::parse(
            r#"{"end_to_end": [{"name": "box_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "layout.reader.plan_us", "unit": "us", "better": "lower"}]}"#,
        )
        .unwrap();
        let line = |w: &str, box_ms: f64| {
            format!(
                r#"{{"workload": "{w}", "metrics": {{"box_p50_ms": {{"value": {box_ms}, "unit": "ms"}}, "layout.reader.plan_us": {{"value": 3.5, "unit": "us"}}}}}}"#
            )
        };
        let mut base = Samples::new();
        let mut new = Samples::new();
        for v in [10.0, 10.1, 9.9] {
            load(&mut base, &line("local-v1", v)).unwrap();
            load(&mut new, &line("local-v1", v * 1.5)).unwrap();
        }
        let rows = compare(&bounds, &base, &new);
        assert_eq!(rows.len(), 2);
        let row = |m: &str| rows.iter().find(|r| r.metric == m).unwrap();
        assert_eq!(row("box_p50_ms").verdict, Verdict::Regressed);
        assert_eq!(row("box_p50_ms").base.3, 3);
        assert_eq!(row("layout.reader.plan_us").verdict, Verdict::Unbounded);
        assert!(render(&rows).contains("regressed"));
        assert!(load(&mut base, "{not json").is_err());
    }
}
