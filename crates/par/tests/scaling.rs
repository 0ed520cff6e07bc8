//! Strong scaling of the commit path (EXPERIMENTS.md "Throughput vs.
//! threads"): 64 conflict-light transactions split across N threads, each
//! dwelling ~100 µs (100k cycles at 1000 ns/kcycle). The dwell is a sleep,
//! so it overlaps across OS threads the way memory latency overlaps
//! across real processors and the run shrinks with thread count even on a
//! one-core host — unless something serializes the whole commit path, in
//! which case the dwells queue up behind it and the ratio collapses to 1.

use std::time::{Duration, Instant};

use bulk_par::{conflict_light_tm, ParConfig, ParRuntime, Runtime};
use bulk_sim::SimConfig;
use bulk_tm::Scheme;

fn median_run(threads: usize) -> Duration {
    let wl = conflict_light_tm(threads, 64, 4, 100_000);
    let rt = ParRuntime::new(ParConfig {
        compute_ns_per_kcycle: 1_000,
        seed: 42,
        ..ParConfig::default()
    });
    let cfg = SimConfig::tm_default();
    let mut runs: Vec<Duration> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let report = rt.run_tm(&wl, Scheme::Bulk, &cfg).expect("bulk is par-supported");
            let elapsed = start.elapsed();
            assert_eq!(report.commits, 64, "t{threads}: every transaction commits");
            elapsed
        })
        .collect();
    runs.sort();
    runs[runs.len() / 2]
}

#[test]
fn commit_path_is_not_globally_serialized() {
    let t1 = median_run(1);
    let t8 = median_run(8);
    let speedup = t1.as_secs_f64() / t8.as_secs_f64();
    assert!(
        speedup >= 1.5,
        "1 → 8 threads sped the run up only {speedup:.2}× ({t1:?} → {t8:?}): \
         the dwells no longer overlap, so something serializes the commit path"
    );
}
