//! Determinism and invariants of the observability layer, end to end:
//! two runs of the same seeded workload must produce byte-identical
//! metrics JSON and event JSONL, squash attribution must sum exactly,
//! and the signature oracle cross-check must never report a false
//! negative (a Bloom filter cannot miss).

use std::sync::Arc;

use bulk_repro::obs::Obs;
use bulk_repro::sim::SimConfig;
use bulk_repro::tls::{run_tls_observed, TlsScheme};
use bulk_repro::tm::{run_tm_observed, Scheme};
use bulk_repro::trace::profiles;

fn observed_tm_run(seed: u64) -> Arc<Obs> {
    let mut p = profiles::tm_profile("mc").expect("profile");
    p.txs_per_thread = 12;
    let obs = Arc::new(Obs::new());
    run_tm_observed(&p.generate(seed), Scheme::Bulk, &SimConfig::tm_default(), Arc::clone(&obs));
    obs
}

fn observed_tls_run(seed: u64) -> Arc<Obs> {
    let mut p = profiles::tls_profile("gzip").expect("profile");
    p.tasks = 60;
    let obs = Arc::new(Obs::new());
    run_tls_observed(
        &p.generate(seed),
        TlsScheme::Bulk,
        &SimConfig::tls_default(),
        Arc::clone(&obs),
    );
    obs
}

#[test]
fn same_seed_tm_runs_produce_identical_metrics_and_events() {
    let a = observed_tm_run(42);
    let b = observed_tm_run(42);
    assert!(a.registry().counter_value("tm.commits") > 0, "scenario must do work");
    assert_eq!(a.registry().to_json(), b.registry().to_json());
    assert_eq!(a.events().to_jsonl(), b.events().to_jsonl());
    assert!(!a.events().is_empty());
}

#[test]
fn same_seed_tls_runs_produce_identical_metrics_and_events() {
    let a = observed_tls_run(42);
    let b = observed_tls_run(42);
    assert!(a.registry().counter_value("tls.commits") > 0, "scenario must do work");
    assert_eq!(a.registry().to_json(), b.registry().to_json());
    assert_eq!(a.events().to_jsonl(), b.events().to_jsonl());
    assert!(!a.events().is_empty());
}

#[test]
fn different_seeds_differ() {
    // Guards against the determinism test passing vacuously (e.g. an
    // instrumentation path that never records anything).
    let a = observed_tm_run(42);
    let b = observed_tm_run(43);
    assert_ne!(a.registry().to_json(), b.registry().to_json());
}

#[test]
fn squash_attribution_sums_and_oracle_never_misses() {
    for (obs, prefix) in [(observed_tm_run(42), "tm."), (observed_tls_run(42), "tls.")] {
        let reg = obs.registry();
        let c = |n: &str| reg.counter_value(&format!("{prefix}{n}"));
        assert!(c("squashes") > 0, "{prefix}: scenario must squash");
        assert_eq!(
            c("squash.true_conflict") + c("squash.aliasing"),
            c("squashes"),
            "{prefix}: every squash is attributed to exactly one cause"
        );
        assert_eq!(
            c("verdict.false_negative"),
            0,
            "{prefix}: a signature can never miss a real conflict"
        );
        assert_eq!(
            c("invalidate.exact") + c("invalidate.overshoot"),
            c("invalidate.lines"),
            "{prefix}: every invalidated line is exact or overshoot"
        );
    }
}

/// `false_squashes` counts full squashes only, so the report's "from
/// aliasing" line and Table 7's `Sq (%)` agree with the registry: an
/// aliasing-induced *partial rollback* is a `verdict.false_positive`, not
/// a squash.
#[test]
fn bulk_partial_false_squashes_match_the_registry_and_never_exceed_squashes() {
    for p in profiles::tm_profiles() {
        for seed in [42, 7] {
            let obs = Arc::new(Obs::new());
            let stats = run_tm_observed(
                &p.generate(seed),
                Scheme::BulkPartial,
                &SimConfig::tm_default(),
                Arc::clone(&obs),
            );
            let aliasing = obs.registry().counter_value("tm.squash.aliasing");
            assert_eq!(stats.false_squashes, aliasing, "{} seed {seed}", p.name);
            assert!(stats.false_squashes <= stats.squashes, "{} seed {seed}", p.name);
        }
    }
}

#[test]
fn event_jsonl_lines_are_valid_and_ordered() {
    let obs = observed_tm_run(42);
    let jsonl = obs.events().to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    let (events, trailer) = lines.split_at(lines.len() - 1);
    assert!(!events.is_empty(), "log must not be empty");
    let mut prev_seq = None;
    for line in events {
        assert!(line.starts_with("{\"seq\": "), "fixed field order: {line}");
        assert!(line.ends_with('}'), "one object per line: {line}");
        let seq: u64 = line["{\"seq\": ".len()..]
            .split(',')
            .next()
            .and_then(|s| s.trim().parse().ok())
            .expect("numeric seq");
        if let Some(p) = prev_seq {
            assert!(seq > p, "sequence numbers strictly increase");
        }
        prev_seq = Some(seq);
    }
    // The stream ends with a trailer surfacing ring overflow, so a
    // consumer can tell a complete log from a truncated one.
    assert_eq!(
        trailer[0],
        format!(
            "{{\"trailer\": true, \"retained\": {}, \"dropped\": {}}}",
            obs.events().len(),
            obs.events().dropped()
        )
    );
    assert_eq!(obs.events().dropped(), 0, "scenario fits in the ring");
}
