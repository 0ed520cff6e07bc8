//! Property tests for crash recovery on the parallel runtime, under
//! arbitrary seeded crash schedules (bulk-rng `check` harness; replay a
//! failing case with `BULK_PROP_SEED=<seed>`).
//!
//! The two structural properties recovery must preserve, whatever the
//! schedule of worker deaths:
//!
//! * **Density** — every bus slot below the tail ends the run published,
//!   by its claimer or by the respawn that adopted it: the auditor flags
//!   any claimed-but-never-published slot, and the record count is
//!   exactly commits + non-tx stores. A crash never leaves a hole that
//!   would hang a replaying reader, and never adds a record.
//! * **Exactly-once completeness** — every transaction/task commits
//!   exactly once across all worker incarnations: commit counts match
//!   the workload and the auditor (per-thread program order, the
//!   validated prefix, signature containment) stays clean.

use bulk_par::{
    conflict_light_tm, CrashPoint, KillSpec, ParConfig, ParRuntime, RunDetail, Runtime,
};
use bulk_rng::check::{run, Gen};
use bulk_rng::{prop_assert, prop_assert_eq};
use bulk_sim::SimConfig;
use bulk_tls::TlsScheme;
use bulk_tm::Scheme;
use bulk_trace::profiles;

/// A random crash schedule: up to three kills at either protocol
/// point, arbitrary event indices (some may never fire — the
/// properties must hold regardless).
fn crash_schedule(g: &mut Gen, procs: usize) -> Vec<KillSpec> {
    let points = [CrashPoint::Claim, CrashPoint::Apply];
    g.vec_of(0..4, |g| KillSpec {
        proc: g.in_range(0..procs),
        point: points[g.in_range(0usize..2)],
        at: g.in_range(0u64..4),
    })
}

#[test]
fn tm_log_is_dense_and_exactly_once_under_any_crash_schedule() {
    run("par_tm_crash_density", 48, |g| {
        let threads = g.in_range(2usize..5);
        let txs_per_thread = g.in_range(1usize..5);
        let accesses = g.in_range(1usize..4);
        let wl = conflict_light_tm(threads, threads * txs_per_thread, accesses, 0);
        let cfg = ParConfig {
            seed: g.u64(),
            kills: crash_schedule(g, threads),
            ..ParConfig::default()
        };
        let scheme = if g.bool() { Scheme::Bulk } else { Scheme::Lazy };
        let r = ParRuntime::new(cfg)
            .run_tm(&wl, scheme, &SimConfig::tm_default())
            .map_err(|e| e.to_string())?;
        let RunDetail::Par(s) = &r.detail else { return Err("no par detail".into()) };
        prop_assert!(s.violations.is_empty(), "violations: {:?}", s.violations);
        prop_assert_eq!(s.commits, (threads * txs_per_thread) as u64);
        // Density: the published log decomposes exactly — no holes, no
        // extras — however many slots recovery handed on.
        prop_assert_eq!(s.records, s.commits + s.non_tx_stores);
        prop_assert_eq!(s.respawns, s.worker_crashes);
        prop_assert!(
            s.adopted_slots <= s.worker_crashes,
            "{} adoptions from {} crashes",
            s.adopted_slots,
            s.worker_crashes
        );
        Ok(())
    });
}

#[test]
fn tls_commits_every_task_once_under_any_crash_schedule() {
    run("par_tls_crash_completeness", 48, |g| {
        let mut p = profiles::tls_profile("gzip").expect("gzip profile");
        p.tasks = g.in_range(4usize..25);
        let wl = p.generate(g.u64());
        let cfg = ParConfig {
            seed: g.u64(),
            kills: crash_schedule(g, 4),
            ..ParConfig::default()
        };
        let scheme = if g.bool() { TlsScheme::Bulk } else { TlsScheme::Lazy };
        let r = ParRuntime::new(cfg)
            .run_tls(&wl, scheme, &SimConfig::tls_default())
            .map_err(|e| e.to_string())?;
        let RunDetail::Par(s) = &r.detail else { return Err("no par detail".into()) };
        prop_assert!(s.violations.is_empty(), "violations: {:?}", s.violations);
        prop_assert_eq!(s.commits, p.tasks as u64);
        // TLS density is stricter: slot i holds task i.
        prop_assert_eq!(s.records, s.commits);
        prop_assert!(
            s.adopted_slots <= s.worker_crashes,
            "{} adoptions from {} crashes",
            s.adopted_slots,
            s.worker_crashes
        );
        Ok(())
    });
}
