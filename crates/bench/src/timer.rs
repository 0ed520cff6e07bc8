//! A minimal wall-clock benchmark harness (the in-repo stand-in for
//! `criterion`).
//!
//! Each `[[bench]]` target builds a [`BenchSuite`], registers routines
//! with [`BenchSuite::bench`] / [`BenchSuite::bench_batched`], and calls
//! [`BenchSuite::finish`]. Per routine the harness:
//!
//! 1. calibrates an iteration count so one sample runs ≥ ~2 ms,
//! 2. takes a fixed number of samples (median-of-N over
//!    [`std::time::Instant`]),
//! 3. reports the median/min/max per-iteration time.
//!
//! `finish` prints an aligned table and writes the results as
//! `BENCH_<suite>.json` (into `BULK_BENCH_OUT` if set, else the working
//! directory — for `cargo bench` that is the crate root,
//! `crates/bench/`). The JSON is hand-rolled: the workspace is hermetic
//! and takes no serialization dependency for five fields.
//!
//! Positional command-line arguments filter benchmarks by substring of
//! `group/id`, mirroring `cargo bench <filter>`; `--…` flags that cargo
//! forwards (e.g. `--bench`) are ignored.

use bulk_obs::json_escape;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples per benchmark; the reported time is the median.
const SAMPLES: usize = 15;
/// Minimum measured duration of one sample during calibration.
const MIN_SAMPLE: Duration = Duration::from_millis(2);
/// Iteration-count ceiling, for routines in the low nanoseconds.
const MAX_ITERS: u64 = 1 << 22;

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark group (e.g. `"insert"`).
    pub group: String,
    /// Benchmark id within the group (e.g. `"S14"`).
    pub id: String,
    /// Iterations per sample.
    pub iters: u64,
    /// Median per-iteration time over all samples, in nanoseconds.
    pub median_ns: f64,
    /// Fastest sample's per-iteration time, in nanoseconds.
    pub min_ns: f64,
    /// Slowest sample's per-iteration time, in nanoseconds.
    pub max_ns: f64,
}

/// A named collection of benchmarks, written out as one
/// `BENCH_<suite>.json`.
pub struct BenchSuite {
    name: &'static str,
    filters: Vec<String>,
    results: Vec<BenchResult>,
    metrics: Option<MetricsBlock>,
}

/// The self-describing metrics attachment: which substrate produced the
/// numbers, under which seed, and the registry snapshot itself.
struct MetricsBlock {
    runtime: String,
    seed: u64,
    json: String,
}

impl BenchSuite {
    /// Creates a suite, taking benchmark name filters from `argv`
    /// (ignoring the flags `cargo bench` forwards).
    pub fn from_args(name: &'static str) -> Self {
        let filters = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        BenchSuite { name, filters, results: Vec::new(), metrics: None }
    }

    /// Creates an unfiltered suite. Figure/table binaries use this to
    /// write a `BENCH_<name>.json` carrying only the metrics block (their
    /// output is a table, not timings).
    pub fn named(name: &'static str) -> Self {
        BenchSuite { name, filters: Vec::new(), results: Vec::new(), metrics: None }
    }

    /// Attaches a metrics registry snapshot to the suite: its contents are
    /// embedded as a `"metrics"` object in `BENCH_<suite>.json`, and the
    /// file gains top-level `"runtime"` and `"seed"` keys so every metrics
    /// artifact — bench or CLI — is self-describing the same way. Bench
    /// targets run one small instrumented scenario (untimed) so every
    /// results file carries the observability counters alongside the
    /// timings.
    pub fn set_metrics(&mut self, runtime: &str, seed: u64, registry: &bulk_obs::Registry) {
        self.metrics = Some(MetricsBlock {
            runtime: runtime.to_string(),
            seed,
            json: registry.to_json_indented("  "),
        });
    }

    fn selected(&self, group: &str, id: &str) -> bool {
        let full = format!("{group}/{id}");
        self.filters.is_empty() || self.filters.iter().any(|f| full.contains(f.as_str()))
    }

    /// Measures `routine` called back-to-back (state may persist across
    /// calls, as with criterion's `Bencher::iter`).
    pub fn bench<R>(&mut self, group: &str, id: impl ToString, mut routine: impl FnMut() -> R) {
        let id = id.to_string();
        if !self.selected(group, &id) {
            return;
        }
        let iters = calibrate(&mut routine);
        let mut per_iter: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(routine());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        self.push(group, id, iters, &mut per_iter);
    }

    /// Measures `routine` on a fresh `setup()` value per call, timing only
    /// the routine (as with criterion's `iter_batched`). Use when the
    /// routine consumes or mutates its input.
    pub fn bench_batched<S, R>(
        &mut self,
        group: &str,
        id: impl ToString,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        let id = id.to_string();
        if !self.selected(group, &id) {
            return;
        }
        let mut timed = move || {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            start.elapsed()
        };
        // Calibrate on the timed portion only.
        let once = timed().max(Duration::from_nanos(20));
        let iters = (MIN_SAMPLE.as_nanos() / once.as_nanos()).max(1) as u64;
        let mut per_iter: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let total: Duration = (0..iters).map(|_| timed()).sum();
                total.as_nanos() as f64 / iters as f64
            })
            .collect();
        self.push(group, id, iters, &mut per_iter);
    }

    fn push(&mut self, group: &str, id: String, iters: u64, per_iter: &mut [f64]) {
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let median = per_iter[per_iter.len() / 2];
        let result = BenchResult {
            group: group.to_string(),
            id,
            iters,
            median_ns: median,
            min_ns: per_iter[0],
            max_ns: per_iter[per_iter.len() - 1],
        };
        eprintln!(
            "{:<40} {:>14} median {:>12} .. {:>12}",
            format!("{}/{}", result.group, result.id),
            fmt_ns(result.median_ns),
            fmt_ns(result.min_ns),
            fmt_ns(result.max_ns),
        );
        self.results.push(result);
    }

    /// Prints the summary table and writes `BENCH_<suite>.json`.
    pub fn finish(self) {
        let path = match std::env::var_os("BULK_BENCH_OUT") {
            Some(dir) => std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.name)),
            None => std::path::PathBuf::from(format!("BENCH_{}.json", self.name)),
        };
        let json = self.to_json();
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("\nwrote {} ({} benchmarks)", path.display(), self.results.len()),
            Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
        }
    }

    /// The suite as a JSON document (`BENCH_*.json` format).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", self.name));
        if let Some(m) = &self.metrics {
            out.push_str(&format!("  \"runtime\": \"{}\",\n", json_escape(&m.runtime)));
            out.push_str(&format!("  \"seed\": {},\n", m.seed));
        }
        out.push_str(&format!("  \"samples_per_bench\": {SAMPLES},\n"));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"group\": \"{}\", \"bench\": \"{}\", \"iters\": {}, \
                 \"median_ns\": {:.2}, \"min_ns\": {:.2}, \"max_ns\": {:.2}}}{}\n",
                json_escape(&r.group),
                json_escape(&r.id),
                r.iters,
                r.median_ns,
                r.min_ns,
                r.max_ns,
                if i + 1 == self.results.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        match &self.metrics {
            Some(m) => out.push_str(&format!("  \"metrics\": {}\n", m.json)),
            None => out.push_str("  \"metrics\": null\n"),
        }
        out.push_str("}\n");
        out
    }

    /// Measured results so far (exposed for the harness's own tests).
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

/// Picks an iteration count whose total runtime is at least [`MIN_SAMPLE`].
fn calibrate<R>(routine: &mut impl FnMut() -> R) -> u64 {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        let took = start.elapsed();
        if took >= MIN_SAMPLE || iters >= MAX_ITERS {
            // Scale so one sample lands near MIN_SAMPLE.
            let per = (took.as_nanos() as u64 / iters).max(1);
            return (MIN_SAMPLE.as_nanos() as u64 / per).clamp(1, MAX_ITERS);
        }
        iters *= 4;
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_serializes() {
        let mut suite = BenchSuite {
            name: "selftest",
            filters: Vec::new(),
            results: Vec::new(),
            metrics: None,
        };
        let mut x = 0u64;
        suite.bench("group", "spin", || {
            x = x.wrapping_add(1);
            black_box(x)
        });
        suite.bench_batched(
            "group",
            "batched",
            || vec![1u64; 64],
            |v| v.into_iter().sum::<u64>(),
        );
        assert_eq!(suite.results().len(), 2);
        for r in suite.results() {
            assert!(r.median_ns > 0.0);
            assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
            assert!(r.iters >= 1);
        }
        let json = suite.to_json();
        assert!(json.contains("\"suite\": \"selftest\""));
        assert!(json.contains("\"bench\": \"spin\""));
        assert!(json.contains("\"median_ns\""));
    }

    #[test]
    fn filters_select_by_substring() {
        let mut suite = BenchSuite {
            name: "filters",
            filters: vec!["keep".to_string()],
            results: Vec::new(),
            metrics: None,
        };
        suite.bench("group", "keep_this", || black_box(1));
        suite.bench("group", "drop_this", || black_box(1));
        assert_eq!(suite.results().len(), 1);
        assert_eq!(suite.results()[0].id, "keep_this");
    }

    /// A bench name is free text: quotes, backslashes and control
    /// characters must all leave `BENCH_*.json` parseable.
    #[test]
    fn json_escapes_bench_names() {
        let mut suite = BenchSuite {
            name: "escape",
            filters: Vec::new(),
            results: Vec::new(),
            metrics: None,
        };
        suite.bench("a\"b\\c", "line\nbreak\u{1}", || black_box(1));
        let json = suite.to_json();
        assert!(json.contains(r#""group": "a\"b\\c""#), "{json}");
        assert!(json.contains(r#""bench": "line\nbreak\u0001""#), "{json}");
        assert!(!json.contains("line\nbreak"), "a raw newline inside a JSON string: {json}");
    }

    #[test]
    fn metrics_block_is_embedded() {
        let mut suite = BenchSuite {
            name: "metrics",
            filters: Vec::new(),
            results: Vec::new(),
            metrics: None,
        };
        assert!(suite.to_json().contains("\"metrics\": null"));
        let reg = bulk_obs::Registry::new();
        reg.counter("bench.scenario.squashes").add(7);
        suite.set_metrics("sim", 42, &reg);
        let json = suite.to_json();
        assert!(json.contains("\"metrics\": {"));
        assert!(json.contains("\"bench.scenario.squashes\": 7"));
        assert!(!json.contains("\"metrics\": null"));
        // The file is self-describing: substrate and seed ride along as
        // top-level keys, matching the CLI's --metrics-out wrapper.
        assert!(json.contains("\"runtime\": \"sim\""));
        assert!(json.contains("\"seed\": 42"));
    }
}
