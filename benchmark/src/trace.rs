//! Bench-side spans: one record per call into a layer, kept in memory and
//! written out when the run ends. Spans inside the program are a later
//! change (ROADMAP item 5); these sit in the harness, around the calls.

use crate::json::{self, Value};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one query share this identifier.
    pub query_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder of one client thread. When disabled (the untraced pass)
/// `enter`/`exit` do nothing, so the same code path serves both passes.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, query_id: u64) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            query_id,
        });
        self.stack.push(id);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.stack.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.now();
    }

    /// Add a finished span measured by the caller, as a child of the span
    /// that is open now (for intervals bounded inside a callback).
    pub fn record(&mut self, name: &'static str, query_id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.stack.last().copied(),
            query_id,
        });
    }

    /// Time `f` as a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        query_id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.enter(name, query_id);
        let r = f(self);
        self.exit();
        r
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Sum of span durations by name, and how many there were.
pub fn totals_by_name(spans: &[Span]) -> std::collections::BTreeMap<&'static str, (u64, u64)> {
    let mut out = std::collections::BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += s.duration_ns();
        e.1 += 1;
    }
    out
}

/// Result of [`closing_check`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Closing {
    /// Share of all checked queries' wall time that no child span covers.
    pub uncovered_share: f64,
    /// The largest uncovered share of a single query.
    pub worst: f64,
    /// Queries whose own uncovered share exceeds the tolerance.
    pub misses: usize,
    pub checked: usize,
}

/// Closing check: the spans directly under each root span named `root` must
/// account for its wall time. What they leave uncovered (the root's self
/// time) is time the trace cannot attribute to a layer.
pub fn closing_check(spans: &[Span], root: &'static str, tolerance: f64) -> Closing {
    let selfs = self_times(spans);
    let mut out = Closing {
        uncovered_share: 0.0,
        worst: 0.0,
        misses: 0,
        checked: 0,
    };
    let (mut own_total, mut wall_total) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(selfs) {
        if s.name != root || s.parent.is_some() || s.duration_ns() == 0 {
            continue;
        }
        let uncovered = own as f64 / s.duration_ns() as f64;
        out.checked += 1;
        out.worst = out.worst.max(uncovered);
        if uncovered > tolerance {
            out.misses += 1;
        }
        own_total += own;
        wall_total += s.duration_ns();
    }
    if wall_total > 0 {
        out.uncovered_share = own_total as f64 / wall_total as f64;
    }
    out
}

/// One JSON object per span, for `--spans FILE`.
pub fn to_json_lines(workload: &str, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let v = json::obj(vec![
            ("workload", json::str(workload)),
            ("id", json::num(i as f64)),
            ("name", json::str(s.name)),
            ("start_ns", json::num(s.start_ns as f64)),
            ("end_ns", json::num(s.end_ns as f64)),
            ("self_ns", json::num(own as f64)),
            (
                "parent",
                s.parent.map_or(Value::Null, |p| json::num(f64::from(p))),
            ),
            ("query_id", json::num(s.query_id as f64)),
        ]);
        out.push_str(&v.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            query_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = vec![
            span("query", 0, 100, None),
            span("plan", 10, 30, Some(0)),
            // Overlaps `plan` by 10: the union covers 10..60, i.e. 50.
            span("execute", 20, 60, Some(0)),
            span("decode", 25, 40, Some(2)),
            // A child that leaks past its parent only counts inside it.
            span("late", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 20, 40 - 15, 15, 30]);
    }

    #[test]
    fn closing_check_flags_unattributed_time() {
        let covered = vec![
            span("query", 0, 100, None),
            span("plan", 0, 40, Some(0)),
            span("execute", 40, 95, Some(0)),
        ];
        let ok = closing_check(&covered, "query", 0.10);
        assert_eq!((ok.uncovered_share, ok.misses, ok.checked), (0.05, 0, 1));
        let gap = vec![span("query", 0, 100, None), span("plan", 0, 40, Some(0))];
        let bad = closing_check(&gap, "query", 0.10);
        assert!((bad.worst - 0.6).abs() < 1e-12 && (bad.uncovered_share - 0.6).abs() < 1e-12);
        assert_eq!(bad.misses, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let got = t.span("query", 1, |t| t.span("plan", 1, |_| 7));
        assert_eq!(got, 7);
        assert!(t.spans.is_empty());
        let mut on = Tracer::new(true, Instant::now());
        on.span("query", 1, |t| t.span("plan", 1, |_| ()));
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.spans[1].parent, Some(0));
        assert!(on.spans[0].end_ns >= on.spans[1].end_ns);
    }
}
