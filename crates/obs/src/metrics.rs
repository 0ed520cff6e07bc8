//! The metrics registry: monotonic counters, gauges and fixed-bucket
//! histograms with zero-allocation hot-path recording and deterministic
//! JSON serialization.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are registered once by
//! name in a [`Registry`] and then recorded through shared atomics: the
//! hot path is one atomic read-modify-write, with no locking, no
//! allocation and no formatting. Serialization ([`Registry::to_json`])
//! walks the registry in name order, so two runs that record the same
//! values produce byte-identical JSON — the property the determinism
//! tests and the golden digests rely on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic counter. Cloning shares the underlying value.
///
/// Increments saturate at `u64::MAX` instead of wrapping: a counter that
/// has hit the ceiling stays pinned there, so a report can never show a
/// small value that silently wrapped.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a standalone counter (not attached to any registry).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (e.g. resident overflow
/// lines). Cloning shares the underlying value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Creates a standalone gauge (not attached to any registry).
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (a high-water mark).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    /// Inclusive upper bounds of the finite buckets, strictly increasing.
    edges: Vec<u64>,
    /// `edges.len() + 1` buckets; the last one counts values above the
    /// largest edge.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

/// A fixed-bucket histogram. Bucket `i` counts observations `v` with
/// `edges[i-1] < v <= edges[i]` (the first bucket counts `v <= edges[0]`);
/// one extra bucket counts everything above the last edge.
///
/// Cloning shares the underlying buckets. Recording is a binary search
/// over the edge array plus two relaxed atomic adds — no allocation. The
/// observation count is the sum of the buckets and nothing else, so a
/// reader racing with `observe` sees a count that matches its buckets.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// Creates a standalone histogram with the given inclusive upper
    /// bucket edges.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly increasing.
    pub fn with_edges(edges: &[u64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one bucket edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        let buckets = (0..edges.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistInner {
            edges: edges.to_vec(),
            buckets,
            sum: AtomicU64::new(0),
        }))
    }

    /// Power-of-two edges `[1, 2, 4, …, 2^max_exp]` — the workspace's
    /// default shape for byte and line counts.
    pub fn pow2_edges(max_exp: u32) -> Vec<u64> {
        (0..=max_exp).map(|e| 1u64 << e).collect()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = self.0.edges.partition_point(|&e| e < v);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.0.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self
                .0
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Every bucket, overflow bucket last, each read once.
    fn snapshot(&self) -> Vec<u64> {
        self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The inclusive upper bounds of the finite buckets.
    pub fn edges(&self) -> &[u64] {
        &self.0.edges
    }

    /// Counts per finite bucket, in edge order.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0.buckets[..self.0.edges.len()]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Count of observations above the last edge.
    pub fn overflow_count(&self) -> u64 {
        self.0.buckets[self.0.edges.len()].load(Ordering::Relaxed)
    }

    /// Upper-edge quantile estimate: the inclusive upper edge of the
    /// first bucket whose cumulative count reaches `ceil(q * count)`.
    ///
    /// With pow2 edges this over-reports by at most 2x — the right bias
    /// for a latency percentile (never under-promises). Returns `None`
    /// when nothing has been observed, and `f64::INFINITY` when the rank
    /// falls in the overflow bucket (rendered `+Inf` by the Prometheus
    /// encoder). `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        // The rank is taken from the same reads it is looked up in, so it
        // cannot fall past the last bucket while other threads observe.
        let buckets = self.snapshot();
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        let i = buckets.iter().position(|n| {
            cum += n;
            cum >= rank
        })?;
        Some(self.0.edges.get(i).map_or(f64::INFINITY, |&edge| edge as f64))
    }

    fn to_json(&self) -> String {
        let snapshot = self.snapshot();
        let (gt, finite) = snapshot.split_last().expect("the overflow bucket exists");
        let buckets: Vec<String> = self
            .0
            .edges
            .iter()
            .zip(finite)
            .map(|(e, n)| format!("{{\"le\": {e}, \"n\": {n}}}"))
            .collect();
        format!(
            "{{\"count\": {}, \"sum\": {}, \"buckets\": [{}], \"gt\": {gt}}}",
            snapshot.iter().sum::<u64>(),
            self.sum(),
            buckets.join(", "),
        )
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of metrics.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a lock and may
/// allocate; it is meant to happen once, up front. The returned handles
/// record lock-free. Registering the same name twice returns a handle to
/// the same underlying metric.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter named `name`, registering it if new.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Returns the gauge named `name`, registering it if new.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Returns the histogram named `name`, registering it with the given
    /// edges if new. The edges of an already-registered histogram win; a
    /// mismatch is a caller bug and panics.
    pub fn histogram(&self, name: &str, edges: &[u64]) -> Histogram {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let h = inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_edges(edges))
            .clone();
        assert_eq!(
            h.edges(),
            edges,
            "histogram `{name}` re-registered with different edges"
        );
        h
    }

    /// Current value of the counter named `name` (0 if unregistered).
    pub fn counter_value(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("registry poisoned");
        inner.counters.get(name).map_or(0, Counter::value)
    }

    /// Snapshot of every counter as `(name, value)`, in name order.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner
            .counters
            .iter()
            .map(|(n, c)| (n.clone(), c.value()))
            .collect()
    }

    /// Snapshot of every gauge as `(name, value)`, in name order.
    pub fn gauges(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner
            .gauges
            .iter()
            .map(|(n, g)| (n.clone(), g.value()))
            .collect()
    }

    /// Snapshot of every histogram as `(name, handle)`, in name order.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner
            .histograms
            .iter()
            .map(|(n, h)| (n.clone(), h.clone()))
            .collect()
    }

    /// Serializes the whole registry as a deterministic JSON object:
    /// metrics appear sorted by name, values are integers, and the layout
    /// is fixed — identical runs produce byte-identical output.
    pub fn to_json(&self) -> String {
        self.to_json_indented("")
    }

    /// [`Registry::to_json`] with every line prefixed by `base` — for
    /// embedding the object inside an outer JSON document (the CLI's
    /// `--metrics-out` file).
    pub fn to_json_indented(&self, base: &str) -> String {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut out = String::new();
        out.push_str("{\n");
        push_map(
            &mut out,
            base,
            "counters",
            inner.counters.iter().map(|(n, c)| (n.as_str(), c.value().to_string())),
            true,
        );
        push_map(
            &mut out,
            base,
            "gauges",
            inner.gauges.iter().map(|(n, g)| (n.as_str(), g.value().to_string())),
            true,
        );
        push_map(
            &mut out,
            base,
            "histograms",
            inner.histograms.iter().map(|(n, h)| (n.as_str(), h.to_json())),
            false,
        );
        out.push_str(base);
        out.push('}');
        out
    }
}

fn push_map<'a>(
    out: &mut String,
    base: &str,
    key: &str,
    entries: impl Iterator<Item = (&'a str, String)>,
    trailing_comma: bool,
) {
    out.push_str(&format!("{base}  \"{key}\": {{\n"));
    let entries: Vec<_> = entries.collect();
    for (i, (name, value)) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!("{base}    \"{}\": {value}{sep}\n", crate::json_escape(name)));
    }
    out.push_str(&format!(
        "{base}  }}{}\n",
        if trailing_comma { "," } else { "" }
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_at_max() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.value(), u64::MAX, "counter must saturate, not wrap");
        c.inc();
        assert_eq!(c.value(), u64::MAX);
    }

    #[test]
    fn counter_handles_share_state() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter_value("x"), 3);
    }

    #[test]
    fn gauge_set_and_max() {
        let g = Gauge::new();
        g.set(7);
        g.record_max(3);
        assert_eq!(g.value(), 7);
        g.record_max(10);
        assert_eq!(g.value(), 10);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let h = Histogram::with_edges(&[1, 4, 16]);
        // Exactly on an edge lands in that edge's bucket.
        h.observe(0);
        h.observe(1); // -> le=1
        h.observe(2);
        h.observe(4); // -> le=4
        h.observe(5);
        h.observe(16); // -> le=16
        h.observe(17); // -> gt
        assert_eq!(h.bucket_counts(), vec![2, 2, 2]);
        assert_eq!(h.overflow_count(), 1);
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 45);
    }

    #[test]
    fn histogram_single_edge() {
        let h = Histogram::with_edges(&[10]);
        h.observe(10);
        h.observe(11);
        assert_eq!(h.bucket_counts(), vec![1]);
        assert_eq!(h.overflow_count(), 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_edges() {
        Histogram::with_edges(&[4, 4]);
    }

    #[test]
    fn pow2_edges_shape() {
        assert_eq!(Histogram::pow2_edges(3), vec![1, 2, 4, 8]);
    }

    #[test]
    fn pow2_edge_boundaries_land_in_their_edge_bucket() {
        // Edges [1, 2, 4, 8]: every exact power of two must land in its
        // own bucket (inclusive upper bound), one above it in the next.
        let h = Histogram::with_edges(&Histogram::pow2_edges(3));
        for v in [1u64, 2, 4, 8] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), vec![1, 1, 1, 1]);
        assert_eq!(h.overflow_count(), 0);
        for v in [3u64, 5, 9] {
            h.observe(v);
        }
        // 3 -> le=4, 5 -> le=8, 9 -> gt.
        assert_eq!(h.bucket_counts(), vec![1, 1, 2, 2]);
        assert_eq!(h.overflow_count(), 1);
    }

    #[test]
    fn pow2_zero_lands_in_first_bucket() {
        let h = Histogram::with_edges(&Histogram::pow2_edges(10));
        h.observe(0);
        assert_eq!(h.bucket_counts()[0], 1, "0 <= first edge (1)");
        assert_eq!(h.overflow_count(), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn pow2_u64_max_lands_in_overflow_bucket() {
        let h = Histogram::with_edges(&Histogram::pow2_edges(63));
        assert_eq!(*h.edges().last().unwrap(), 1u64 << 63);
        h.observe(1u64 << 63); // exactly the last edge: finite bucket
        h.observe(u64::MAX); // past it: overflow bucket
        assert_eq!(*h.bucket_counts().last().unwrap(), 1);
        assert_eq!(h.overflow_count(), 1);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn quantile_walks_cumulative_buckets_to_the_upper_edge() {
        let h = Histogram::with_edges(&[1, 4, 16]);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        for v in [1u64, 1, 2, 3, 5, 6, 7, 8, 9, 10] {
            h.observe(v);
        }
        // Buckets: le=1 -> 2, le=4 -> 2, le=16 -> 6; count = 10.
        assert_eq!(h.quantile(0.0), Some(1.0), "q=0 is the first non-empty bucket");
        assert_eq!(h.quantile(0.2), Some(1.0));
        assert_eq!(h.quantile(0.4), Some(4.0));
        assert_eq!(h.quantile(0.5), Some(16.0));
        assert_eq!(h.quantile(1.0), Some(16.0));
    }

    #[test]
    fn quantile_overflow_bucket_is_infinite() {
        let h = Histogram::with_edges(&[1]);
        h.observe(100);
        assert_eq!(h.quantile(0.5), Some(f64::INFINITY));
        h.observe(1);
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(h.quantile(0.99), Some(f64::INFINITY));
    }

    #[test]
    fn quantile_clamps_q() {
        let h = Histogram::with_edges(&[2, 8]);
        h.observe(1);
        h.observe(5);
        assert_eq!(h.quantile(-3.0), Some(2.0));
        assert_eq!(h.quantile(7.0), Some(8.0));
    }

    #[test]
    fn histogram_sum_saturates() {
        let h = Histogram::with_edges(&[1]);
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn json_is_sorted_and_deterministic() {
        let mk = || {
            let reg = Registry::new();
            reg.counter("z.last").add(2);
            reg.counter("a.first").inc();
            reg.gauge("mid").set(9);
            let h = reg.histogram("h", &[1, 2]);
            h.observe(2);
            reg.to_json()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b, "same recording must serialize byte-identically");
        let first = a.find("a.first").unwrap();
        let last = a.find("z.last").unwrap();
        assert!(first < last, "counters must appear in name order");
        assert!(a.contains("\"h\": {\"count\": 1, \"sum\": 2"));
    }

    #[test]
    fn a_snapshot_during_observation_is_self_consistent() {
        use std::sync::atomic::AtomicBool;
        let h = Histogram::with_edges(&Histogram::pow2_edges(6));
        let stop = AtomicBool::new(false);
        let field = |json: &str, key: &str| -> Vec<u64> {
            json.split(key)
                .skip(1)
                .map(|rest| {
                    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                    digits.parse().expect("a number follows the key")
                })
                .collect()
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut v = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    h.observe(v % 64); // never past the last edge
                    v += 1;
                }
            });
            // The observer is running once its first observation shows.
            while h.count() == 0 {
                std::thread::yield_now();
            }
            let before = h.count();
            let mut torn = None;
            for _ in 0..2000 {
                let json = h.to_json();
                let count = field(&json, "\"count\": ")[0];
                let in_buckets: u64 = field(&json, "\"n\": ").iter().sum();
                let gt = field(&json, "\"gt\": ")[0];
                if count != in_buckets + gt {
                    torn = Some(json);
                    break;
                }
                // No value is in the overflow bucket, so no rank is.
                let p100 = h.quantile(1.0);
                if !p100.is_some_and(f64::is_finite) {
                    torn = Some(format!("p100 = {p100:?}"));
                    break;
                }
            }
            let observed = h.count() > before;
            stop.store(true, Ordering::Relaxed);
            assert_eq!(torn, None, "snapshot disagrees with itself");
            assert!(observed, "nothing was observed while snapshotting");
        });
    }

    #[test]
    fn json_indented_prefixes_every_line() {
        let reg = Registry::new();
        reg.counter("c").inc();
        let s = reg.to_json_indented("    ");
        for line in s.lines().skip(1) {
            assert!(line.starts_with("    "), "unprefixed line: {line:?}");
        }
    }
}
