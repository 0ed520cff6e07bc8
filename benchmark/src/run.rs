//! One run of one workload: set-up (several times, so its median is
//! steady), timed passes until the clock runs out, and the end-to-end
//! metrics computed from them. Every time is scaled to the reference host
//! speed (see `calib.rs`) before it is aggregated.

use std::time::Instant;

use crate::calib::{Calibrator, REFERENCE_BURST_NS};
use crate::cli_loads::Fidelity;
use crate::span::Tracer;
use crate::stats::{median, percentile, tail_percentile, Better};

/// How often set-up is repeated within a run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Calibration bursts before and after every set-up and pass.
const BRACKET_BURSTS: usize = 10;

/// What one pass cost, measured from outside the program under test.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PassCost {
    /// Wall seconds spent in the operations of the pass.
    pub wall_s: f64,
    /// User plus system CPU seconds of the process(es) under test.
    pub cpu_s: f64,
    /// Transactions plus tasks committed by operations that passed their
    /// checks.
    pub commits: u64,
}

/// Everything a run accumulates.
#[derive(Debug, Default)]
pub struct RunData {
    /// One entry per set-up repeat, at reference speed.
    pub setup_s: Vec<f64>,
    /// One entry per timed pass, times at reference speed.
    pub passes: Vec<PassCost>,
    /// Wall seconds of every timed pass as the clock read them.
    pub raw_wall_s: Vec<f64>,
    /// Reference burst time ÷ measured burst time of every timed pass:
    /// below 1 when the host ran slower than the reference.
    pub speed: Vec<f64>,
    /// Latency of every timed operation at reference speed: one spawn, one
    /// `Runtime::run_*` call, or one submit→`done`.
    pub op_ms: Vec<f64>,
    /// Largest peak resident set seen among the processes under test.
    pub peak_rss_mb: f64,
    /// Operations run, warm-up included.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Checksum and simulated cycles of every sim spec's output.
    pub fidelity: Fidelity,
    /// Numbers worth printing that are not end-to-end metrics of every
    /// workload (`serve`: jobs/s, scrape latency).
    pub notes: Vec<(String, f64, &'static str)>,
    calibrator: Calibrator,
    /// Bursts since the current set-up or pass began.
    bursts: Vec<f64>,
}

impl RunData {
    /// Takes `n` calibration bursts. Workloads call this between their
    /// operations so that a pass's speed is sampled throughout it.
    pub fn calibrate(&mut self, n: usize) {
        for _ in 0..n {
            let ns = self.calibrator.burst();
            self.bursts.push(ns);
        }
    }

    /// Runs `f` bracketed by bursts; returns its result, its wall seconds
    /// and the host speed while it ran.
    fn at_speed<T>(&mut self, f: impl FnOnce(&mut RunData) -> T) -> (T, f64, f64) {
        self.bursts.clear();
        self.calibrate(BRACKET_BURSTS);
        let start = Instant::now();
        let out = f(self);
        let wall = start.elapsed().as_secs_f64();
        self.calibrate(BRACKET_BURSTS);
        (out, wall, REFERENCE_BURST_NS / median(&self.bursts))
    }

    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// A workload the run loop can drive.
pub trait Load {
    /// Operations in every pass; with `min_passes` it fixes which tail
    /// percentile the sample can support.
    fn ops_per_pass(&self) -> usize;
    /// Passes a run makes even when `--seconds` is already spent.
    fn min_passes(&self) -> usize;
    /// Builds the inputs from the seed and runs the untimed warm-up pass.
    /// Called [`SETUP_REPEATS`] times; each call starts from scratch.
    fn setup(&mut self, data: &mut RunData, tracer: &mut Tracer);
    /// Runs timed pass `k`.
    fn pass(&mut self, k: usize, data: &mut RunData, tracer: &mut Tracer) -> PassCost;
}

/// Runs `load`: set-up `setup_repeats` times, then passes until `seconds`
/// have gone by and at least `min_passes` are done.
pub fn run(
    load: &mut dyn Load,
    seconds: f64,
    setup_repeats: usize,
    min_passes: usize,
    tracer: &mut Tracer,
) -> RunData {
    let mut data = RunData::default();
    for _ in 0..setup_repeats {
        let ((), wall, speed) =
            data.at_speed(|d| tracer.span("harness", "setup", |t| load.setup(d, t)));
        data.setup_s.push(wall * speed);
    }
    // Warm-up operations are checked and counted, but not timed.
    data.op_ms.clear();
    let start = Instant::now();
    let mut k = 0;
    while k < min_passes || start.elapsed().as_secs_f64() < seconds {
        let first_op = data.op_ms.len();
        let (cost, _, speed) =
            data.at_speed(|d| tracer.span("harness", "pass", |t| load.pass(k, d, t)));
        for ms in &mut data.op_ms[first_op..] {
            *ms *= speed;
        }
        data.raw_wall_s.push(cost.wall_s);
        data.speed.push(speed);
        data.passes.push(PassCost {
            wall_s: cost.wall_s * speed,
            cpu_s: cost.cpu_s * speed,
            ..cost
        });
        k += 1;
    }
    data
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
}

/// Name, unit, direction and regression bound of every end-to-end metric,
/// in the order they are printed. `BENCHMARK.json` repeats this table; a
/// unit test keeps the two in step.
pub const END_TO_END: [(&str, &str, Better, f64); 7] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("wall_s", "s", Better::Lower, 0.25),
    ("cpu_s", "s", Better::Lower, 0.25),
    ("commits_per_s", "1/s", Better::Higher, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.15),
    ("op_p50_ms", "ms", Better::Lower, 0.25),
    ("op_tail_ms", "ms", Better::Lower, 0.25),
];

/// The percentile `op_tail_ms` reports for a workload: the highest one
/// its guaranteed sample count supports, so it is the same on every run.
pub fn tail_of(load: &dyn Load) -> u32 {
    tail_percentile(load.ops_per_pass() * load.min_passes()).unwrap_or(50)
}

/// The end-to-end metrics of a finished run, in [`END_TO_END`] order. All
/// times are at reference speed.
pub fn end_to_end(data: &RunData, tail: u32) -> Vec<Metric> {
    let walls: Vec<f64> = data.passes.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = data.passes.iter().map(|p| p.cpu_s).collect();
    let rates: Vec<f64> = data
        .passes
        .iter()
        .map(|p| p.commits as f64 / p.wall_s)
        .collect();
    let values = [
        (median(&data.setup_s), data.setup_s.len()),
        (median(&walls), walls.len()),
        (median(&cpus), cpus.len()),
        (median(&rates), rates.len()),
        (data.peak_rss_mb, 1),
        (median(&data.op_ms), data.op_ms.len()),
        (percentile(&data.op_ms, f64::from(tail)), data.op_ms.len()),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), (value, samples))| Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        setups: usize,
    }

    impl Load for Fake {
        fn ops_per_pass(&self) -> usize {
            10
        }
        fn min_passes(&self) -> usize {
            4
        }
        fn setup(&mut self, data: &mut RunData, _: &mut Tracer) {
            self.setups += 1;
            data.op_ms.push(1e9); // a warm-up sample that must not survive
        }
        fn pass(&mut self, k: usize, data: &mut RunData, _: &mut Tracer) -> PassCost {
            data.op_ms.extend((0..10).map(|i| f64::from(i) + 1.0));
            PassCost {
                wall_s: 1.0 + k as f64,
                cpu_s: 0.5,
                commits: 100,
            }
        }
    }

    #[test]
    fn run_repeats_setup_and_makes_the_minimum_passes_when_time_is_up() {
        let mut load = Fake { setups: 0 };
        let mut tracer = Tracer::new(false, Instant::now());
        let data = run(&mut load, 0.0, SETUP_REPEATS, 4, &mut tracer);
        assert_eq!(load.setups, SETUP_REPEATS);
        assert_eq!(data.setup_s.len(), SETUP_REPEATS);
        assert_eq!(data.passes.len(), 4);
        assert_eq!(data.op_ms.len(), 40, "warm-up samples are dropped");
        // 40 guaranteed samples support p75.
        assert_eq!(tail_of(&load), 75);
        // Every time of a pass is scaled by that pass's host speed.
        for (k, (pass, speed)) in data.passes.iter().zip(&data.speed).enumerate() {
            assert!(*speed > 0.0 && speed.is_finite());
            assert_eq!(pass.wall_s, (1.0 + k as f64) * speed);
            assert_eq!(pass.cpu_s, 0.5 * speed);
            assert_eq!(pass.commits, 100);
            assert_eq!(data.op_ms[10 * k], 1.0 * speed);
            assert_eq!(data.raw_wall_s[k], 1.0 + k as f64);
        }
    }

    #[test]
    fn end_to_end_metrics_are_medians_over_passes_and_percentiles_over_ops() {
        let pass = |wall_s| PassCost {
            wall_s,
            cpu_s: wall_s / 2.0,
            commits: 100,
        };
        let data = RunData {
            setup_s: vec![3.0, 1.0, 2.0],
            passes: vec![pass(1.0), pass(2.0), pass(3.0), pass(4.0)],
            op_ms: (1..=10).map(f64::from).collect(),
            peak_rss_mb: 7.5,
            ..RunData::default()
        };
        let m = end_to_end(&data, 75);
        let names: Vec<_> = m.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|e| e.0));
        let values: Vec<_> = m.iter().map(|m| m.value).collect();
        assert_eq!(
            values,
            [
                2.0,
                2.5,
                1.25,
                (100.0 / 2.0 + 100.0 / 3.0) / 2.0,
                7.5,
                5.5,
                7.75
            ]
        );
        assert_eq!(m[5].samples, 10);
    }

    #[test]
    fn benchmark_json_lists_the_same_end_to_end_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}",
                better.as_str()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
