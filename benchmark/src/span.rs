//! The benchmark's own spans: one around every call into a layer, kept in
//! memory and written as JSONL when the run ends. Spans inside the program
//! are a later change; these sit in the benchmark's files only.
//!
//! A layer's self time is its spans' durations minus the part their direct
//! children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// The crate (layer) the call went into, or `harness` for the
    /// benchmark's own bookkeeping.
    pub layer: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread. A disabled tracer runs the closure and
/// records nothing, so end-to-end runs pay one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`. Tracers of several
    /// threads share one epoch so their spans merge onto one timeline.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The epoch, for tracers of other threads.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Runs `f` inside a span of `layer`; spans opened by `f` become its
    /// children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Appends another thread's finished spans, keeping their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.duration_ns());
        }
    }
    out
}

/// Self time summed per layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0) += t;
    }
    out
}

/// The spans as JSONL, one object per line, tagged with the workload they
/// belong to.
pub fn to_jsonl(spans: &[Span], workload: &str) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"parent\": {parent}, \"workload\": \"{workload}\", \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.layer,
            bulk_repro::obs::json_escape(&s.name),
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: layer.to_string(),
            layer,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 has two sibling children (10..30, 40..80); the second
        // child has a nested child of its own (50..60).
        let spans = vec![
            span("cli", 0, 100, None),
            span("trace", 10, 30, Some(0)),
            span("tm", 40, 80, Some(0)),
            span("sig", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        let by_layer = layer_self_times(&spans);
        assert_eq!(by_layer["cli"], 40);
        assert_eq!(by_layer["tm"], 30);
        assert_eq!(
            by_layer.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn tracer_links_children_to_the_open_span() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("cli", "outer", |t| {
            t.span("trace", "first", |_| ());
            t.span("tm", "second", |t| t.span("sig", "inner", |_| ()));
        });
        t.span("obs", "sibling-root", |_| ());
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2), None]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_still_runs_the_closure() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("tm", "x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn merge_rebases_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("bulkd", "a", |_| ());
        let mut b = Tracer::new(true, epoch);
        b.span("bulkd", "b", |t| t.span("par", "child", |_| ()));
        a.merge(b);
        let parents: Vec<_> = a.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, None, Some(1)]);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let spans = vec![span("cli", 0, 5, None), span("tm", 1, 2, Some(0))];
        let text = to_jsonl(&spans, "paper-bulk");
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\": 0"));
        assert!(text.contains("\"workload\": \"paper-bulk\""));
    }
}
