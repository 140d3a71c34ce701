//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer:
//! name, start, end, the span that caused it, and a request id (figure,
//! pass, cell or tick index). Nothing is written while the workload runs;
//! [`Tracer::to_chrome`] renders them once at the end in the Chrome
//! trace-event format.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One closed (or still open) interval of work.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `runner.run_batch`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch (equal to `start_ns`
    /// while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request id shared by the spans of one figure, pass or tick.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (open spans stay open).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`] (and any still-open spans
    /// nested inside it).
    pub fn end(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let value = f();
        self.end(id);
        value
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the spans as a Chrome trace-event document (`ph: "X"`
    /// complete events, microsecond timestamps) with `meta` as top-level
    /// string fields.
    pub fn to_chrome(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{");
        for (k, v) in meta {
            let _ = write!(out, "\"{k}\":\"{}\",", escape(v));
        }
        out.push_str("\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.req
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Children of every span, by parent index.
fn children(spans: &[Span]) -> Vec<Vec<SpanId>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    kids
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (children may overlap each other, e.g. on worker threads).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let kids = children(spans);
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut iv: Vec<(u64, u64)> = kids[i]
                .iter()
                .map(|&c| (spans[c].start_ns, spans[c].end_ns))
                .collect();
            s.dur_ns() - union_len(&mut iv, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Share of the root spans named `root` covered by their children: the
/// summed union of child intervals over the summed root durations (1 when
/// there is no such root).
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let kids = children(spans);
    let (mut covered, mut total) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if s.name != root {
            continue;
        }
        let mut iv: Vec<(u64, u64)> = kids[i]
            .iter()
            .map(|&c| (spans[c].start_ns, spans[c].end_ns))
            .collect();
        covered += union_len(&mut iv, s.start_ns, s.end_ns);
        total += s.dur_ns();
    }
    if total == 0 {
        1.0
    } else {
        covered as f64 / total as f64
    }
}

/// Self time summed per span name, in seconds, largest first.
pub fn waterfall(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_default() += self_ns;
    }
    let mut rows: Vec<(&'static str, f64)> = by_name
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / 1e9))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    rows
}

/// Summed duration of the spans named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

/// Durations of the spans named `name`, in milliseconds.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // root [0,100); children [10,40) and [30,60) overlap on [30,40),
        // so they cover 50, not 60; grandchild [35,45) lies inside child 2.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 35, 45, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20, 10]);
        assert!((coverage(&spans, "root") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn union_of_disjoint_nested_and_empty_intervals() {
        let mut iv = vec![(0, 10), (20, 30), (2, 5), (25, 25)];
        assert_eq!(union_len(&mut iv, 0, 100), 20);
        let mut touching = vec![(0, 10), (10, 20)];
        assert_eq!(union_len(&mut touching, 0, 100), 20);
        assert_eq!(union_len(&mut [], 0, 100), 0);
    }

    #[test]
    fn waterfall_sums_self_time_per_name() {
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 0, 30, Some(0)),
            span("x", 50, 70, Some(0)),
            span("y", 70, 80, Some(0)),
        ];
        let rows = waterfall(&spans);
        assert_eq!(rows[0].0, "x");
        assert!((rows[0].1 - 50e-9).abs() < 1e-15);
        assert_eq!(rows[1].0, "root");
        assert_eq!(rows[2].0, "y");
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        t.span("inner", 2, || ());
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].req, 2);
        assert!(t.spans()[0].start_ns <= t.spans()[1].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);
        let chrome = t.to_chrome(&[("workload", "w".into())]);
        assert!(chrome.contains("\"name\":\"inner\""));
        assert!(chrome.contains("\"parent\":0"));

        let mut off = Tracer::new(false);
        off.span("x", 0, || ());
        assert!(off.spans().is_empty());
    }
}
