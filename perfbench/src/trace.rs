//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, start, end and parent; all spans of one request
//! share its request id. Spans stay in memory and are written out when the
//! run ends. A span's self time is its duration minus the part its child
//! spans cover.

use crate::report::Report;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (the recording thread in the high bits).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The request (or load / adapt step) the span belongs to.
    pub request: u64,
    /// Layer call the span covers, e.g. `session.execute`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. When off, [`Tracer::now`] returns `None`,
/// no clock is read for child spans and nothing is recorded.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for one thread; `epoch` is shared by every thread.
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The current time, read only when tracing.
    pub fn now(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// A fresh span id (allocate a parent's id before its children).
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 40) | self.next
    }

    /// Record a span; ignored when tracing is off or a bound is missing.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Option<Instant>,
        end: Option<Instant>,
    ) {
        let (true, Some(start), Some(end)) = (self.on, start, end) else {
            return;
        };
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// The spans recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of spans with the name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times (duration minus covered child time).
    pub self_ns: u64,
    /// Whether spans with this name have no parent.
    pub top_level: bool,
}

/// Totals per span name, with self time computed from the parent links.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut covered: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            covered
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for span in spans {
        let children = covered.get(&span.id).map_or(0, |c| union_ns(c));
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(children);
        entry.top_level = span.parent.is_none();
    }
    out
}

/// Length of the union of intervals.
fn union_ns(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in sorted {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Print the traced phase's reconciliation: every span name's self time as
/// a share of the phase's wall time (times client threads), the sum of the
/// top-level spans' self times, and the unattributed share: the time no
/// layer span covers. That is the top-level spans' self time (the
/// harness's own work between layer calls) plus time outside every span.
pub fn reconcile(report: &mut Report, spans: &[Span], wall: Duration, threads: usize) {
    let budget_ns = (wall.as_nanos() as f64 * threads as f64).max(1.0);
    let totals = totals(spans);
    let mut layers_ns = 0u64;
    let mut top_self_ns = 0u64;
    let mut line = String::new();
    for (name, t) in &totals {
        let _ = write!(line, " {name}={:.2}%", 100.0 * t.self_ns as f64 / budget_ns);
        if t.top_level {
            top_self_ns += t.self_ns;
        } else {
            layers_ns += t.self_ns;
        }
    }
    report.note(format!(
        "trace self time by span (share of {:.3}s wall x {threads} thread(s)):{line}",
        wall.as_secs_f64()
    ));
    report.note(format!(
        "trace reconcile: layer spans {:.3}s of {:.3}s wall; top-level self {:.3}s ({:.2}%); \
         unattributed share {:.2}% (aim: <= 5%)",
        layers_ns as f64 / 1e9,
        budget_ns / 1e9,
        top_self_ns as f64 / 1e9,
        100.0 * top_self_ns as f64 / budget_ns,
        100.0 * (1.0 - layers_ns as f64 / budget_ns),
    ));
}

/// Write spans as JSON lines to `path`, creating its directory.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, out)
}

/// Write the traced phase's spans to `.bench_out/`.
pub fn save(report: &mut Report, spans: &[Span]) {
    let path = std::path::PathBuf::from(".bench_out").join(format!(
        "trace-{}-seed{}.jsonl",
        report.workload.name(),
        report.seed
    ));
    match write_spans(&path, spans) {
        Ok(()) => report.note(format!("trace spans written to {}", path.display())),
        Err(e) => report.note(format!("trace spans not written: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = [
            span(1, None, "request", 0, 100),
            span(2, Some(1), "parse", 10, 30),
            span(3, Some(1), "submit", 25, 80),
        ];
        let t = totals(&spans);
        assert_eq!(t["request"].self_ns, 100 - 70);
        assert!(t["request"].top_level);
        assert_eq!(t["parse"].self_ns, 20);
        assert!(!t["submit"].top_level);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        assert!(tracer.now().is_none());
        let id = tracer.id();
        let t = Instant::now();
        tracer.record(id, "x", None, 0, Some(t), Some(t));
        assert!(tracer.into_spans().is_empty());
    }
}
