//! Exactly-once delivery under injected churn (`ParConfig::stress`).
//!
//! The stress plan re-delivers already-applied bus records and bumps the
//! bus epoch mid-run — the failure modes the `crates/live` arbiter
//! machinery exists for. The assertions are the exactly-once contract:
//! every injected duplicate is dropped by receiver-side dedup
//! (`dedup_drops > 0`), no record is ever applied twice
//! (`duplicate_applications == 0`), and the committed-order class still
//! matches the deterministic sim's.

use bulk_par::{
    conflict_light_tm, CrashPoint, KillSpec, ParConfig, ParRuntime, RunDetail, Runtime,
    SimRuntime, StressConfig, same_commit_class,
};
use bulk_sim::SimConfig;
use bulk_tls::TlsScheme;
use bulk_tm::Scheme;
use bulk_trace::profiles;

fn stressed(seed: u64) -> ParRuntime {
    ParRuntime::new(ParConfig {
        seed,
        stress: Some(StressConfig::default()),
        ..ParConfig::default()
    })
}

#[test]
fn tm_redeliveries_are_deduped_exactly_once() {
    let cfg = SimConfig::tm_default();
    let wl = conflict_light_tm(4, 32, 4, 0);
    let sim = SimRuntime.run_tm(&wl, Scheme::Bulk, &cfg).unwrap();
    let mut total_redeliveries = 0;
    let mut total_drops = 0;
    let mut total_bumps = 0;
    for seed in 1..=5u64 {
        let par = stressed(seed).run_tm(&wl, Scheme::Bulk, &cfg).unwrap();
        same_commit_class(&sim, &par)
            .unwrap_or_else(|e| panic!("stress broke conformance (seed={seed}): {e}"));
        let RunDetail::Par(s) = &par.detail else { panic!("not a par report") };
        assert_eq!(s.duplicate_applications, 0, "seed={seed}: a record was applied twice");
        assert!(
            s.dedup_drops >= s.stress_redeliveries,
            "seed={seed}: {} redeliveries but only {} dedup drops",
            s.stress_redeliveries,
            s.dedup_drops
        );
        total_redeliveries += s.stress_redeliveries;
        total_drops += s.dedup_drops;
        total_bumps += s.stress_epoch_bumps;
    }
    assert!(total_redeliveries > 0, "stress plan injected nothing");
    assert!(total_drops > 0, "dedup never engaged");
    assert!(total_bumps > 0, "no epoch churn was injected");
}

/// A worker killed mid-commit (ticket stamped, record unpublished) while
/// the stress plan is re-delivering records and churning epochs: the
/// respawned incarnation replays the whole log through a fresh
/// [`DedupFilter`](bulk_live::DedupFilter), so even with the injected
/// duplicates on top of the replay, no record may ever be applied twice
/// and the committed-order class must still match the sim oracle's.
#[test]
fn par_crash_recovery_never_double_applies_under_stress() {
    let cfg = SimConfig::tm_default();
    let wl = conflict_light_tm(4, 32, 4, 0);
    let sim = SimRuntime.run_tm(&wl, Scheme::Bulk, &cfg).unwrap();
    let mut total_crashes = 0;
    for seed in 1..=5u64 {
        let rt = ParRuntime::new(ParConfig {
            seed,
            stress: Some(StressConfig::default()),
            kills: vec![KillSpec {
                proc: seed as usize % 4,
                point: CrashPoint::Publish,
                at: 1,
            }],
            ..ParConfig::default()
        });
        let par = rt.run_tm(&wl, Scheme::Bulk, &cfg).unwrap();
        same_commit_class(&sim, &par)
            .unwrap_or_else(|e| panic!("crash recovery broke conformance (seed={seed}): {e}"));
        let RunDetail::Par(s) = &par.detail else { panic!("not a par report") };
        assert!(s.worker_crashes >= 1, "seed={seed}: the kill never fired");
        assert!(s.fences >= 1, "seed={seed}: the orphaned slot was never fenced");
        assert_eq!(
            s.duplicate_applications, 0,
            "seed={seed}: a respawned worker re-applied a record"
        );
        assert!(s.violations.is_empty(), "seed={seed}: {:?}", s.violations);
        total_crashes += s.worker_crashes;
    }
    assert!(total_crashes >= 5, "every seed must crash its worker once");
}

#[test]
fn tls_redeliveries_are_deduped_exactly_once() {
    let cfg = SimConfig::tls_default();
    let mut p = profiles::tls_profile("gzip").unwrap();
    p.tasks = 60;
    let wl = p.generate(7);
    let sim = SimRuntime.run_tls(&wl, TlsScheme::Bulk, &cfg).unwrap();
    let mut total_drops = 0;
    for seed in 1..=5u64 {
        let par = stressed(seed).run_tls(&wl, TlsScheme::Bulk, &cfg).unwrap();
        same_commit_class(&sim, &par)
            .unwrap_or_else(|e| panic!("stress broke conformance (seed={seed}): {e}"));
        let RunDetail::Par(s) = &par.detail else { panic!("not a par report") };
        assert_eq!(s.duplicate_applications, 0, "seed={seed}");
        total_drops += s.dedup_drops;
    }
    assert!(total_drops > 0, "dedup never engaged");
}
