//! In-memory spans recorded at the benchmark's own call boundaries
//! (traced runs only), with self-time attribution.
//!
//! A span is `(name, start, end, parent, run)`; spans of one route or
//! one job share a run id. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Boundary name, e.g. `session.initial_routing`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Route or job the span belongs to.
    pub run: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; returns its id for [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, run: u64) -> usize {
        let now = self.ns(Instant::now());
        self.push(name, parent, run, now, now)
    }

    /// Closes an open span at the current time.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span whose bounds were observed elsewhere (e.g. job
    /// completions seen by a poller).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        run: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, parent, run, s, e)
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        run: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        run: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, run);
        let out = f();
        self.close(id);
        out
    }

    /// Duration of span `id` in seconds.
    pub fn seconds(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e9
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.duration_ns()).sum::<u64>() as f64 / 1e9
    }

    /// How many spans are named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Mean duration of the spans named `name`, in ms (0 when none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let n = self.count(name);
        if n == 0 {
            0.0
        } else {
            self.total_s(name) * 1e3 / n as f64
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time per span name, in seconds, sorted by name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            *out.entry(span.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            );
        }
        out
    }
}

/// Self time of each span in ns: its duration minus the part of its
/// interval covered by its children (the union of their intervals,
/// clipped to the parent, so overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.duration_ns() - covered_ns(&mut kids))
        .collect()
}

/// Length of the union of half-open intervals.
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(lo, hi) in intervals.iter() {
        cur = match cur {
            Some((a, b)) if lo <= b => Some((a, b.max(hi))),
            Some((a, b)) => {
                total += b - a;
                Some((lo, hi))
            }
            None => Some((lo, hi)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("route", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two concurrent jobs under one drain span.
        let spans = vec![
            span("drain", 0, 100, None),
            span("job", 10, 60, Some(0)),
            span("job", 40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 0, 15, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 15]);
    }

    #[test]
    fn self_time_by_name_sums_across_spans() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("route", 0, 1_000_000_000, None),
            span("step", 0, 250_000_000, Some(0)),
            span("step", 500_000_000, 750_000_000, Some(0)),
        ];
        let by_name = t.self_time_by_name();
        assert!((by_name["route"] - 0.5).abs() < 1e-12);
        assert!((by_name["step"] - 0.5).abs() < 1e-12);
        assert_eq!(t.count("step"), 2);
        assert!((t.total_s("step") - 0.5).abs() < 1e-12);
        assert!((t.mean_ms("step") - 250.0).abs() < 1e-9);
        assert_eq!(t.mean_ms("absent"), 0.0);
    }

    #[test]
    fn open_close_nests_and_serializes() {
        let mut t = Tracer::new();
        let root = t.open("root", None, 7);
        let v = t.time("leaf", Some(root), 7, || 42);
        t.close(root);
        assert_eq!(v, 42);
        let s = &t.spans;
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\":\"leaf\"") && lines.contains("\"parent\":0"));
        assert!(lines.contains("\"run\":7"));
    }
}
