//! Crash-recovery acceptance matrix for the parallel runtime.
//!
//! A worker killed at any commit-protocol point — `claim` (slot won,
//! record unpublished), `publish` (ticket stamped, record unpublished)
//! or `apply` (mid-replay of a peer's record) — must not take the run
//! down: the supervisor fences the orphaned slot (TM) or hands it to
//! the respawned incarnation for adoption (TLS), respawns the worker
//! from its last verified checkpoint, and the finished run must be
//! indistinguishable from a crash-free one: every transaction/task
//! committed exactly once, auditor-clean (ticket uniqueness, a dense log),
//! and in the same committed-order class as the deterministic sim
//! oracle running the same trace.
//!
//! Unrecoverable deaths (respawn budget exhausted) and hung peers
//! (wall-clock watchdog) must surface as *typed* errors carrying enough
//! context to replay, never as process aborts.

use bulk_repro::chaos::ChaosConfig;
use bulk_repro::par::{
    CrashPoint, KillSpec, ParConfig, ParRuntime, RunDetail, RunReport, Runtime, RuntimeError,
    SimRuntime, same_commit_class,
};
use bulk_repro::sim::SimConfig;
use bulk_repro::tls::TlsScheme;
use bulk_repro::tm::Scheme;
use bulk_repro::trace::profiles;

const SEEDS: [u64; 3] = [1, 2, 3];
const POINTS: [CrashPoint; 3] = [CrashPoint::Claim, CrashPoint::Publish, CrashPoint::Apply];

fn par_stats(r: &RunReport) -> &bulk_repro::par::ParStats {
    match &r.detail {
        RunDetail::Par(s) => s,
        other => panic!("expected par detail, got {other:?}"),
    }
}

/// One TM run with a scheduled kill, checked against the sim oracle.
fn tm_crash_run(scheme: Scheme, point: CrashPoint, seed: u64) {
    let mut p = profiles::tm_profile("mc").unwrap();
    p.txs_per_thread = 4;
    let wl = p.generate(seed);
    let proc = seed as usize % p.threads;
    let cfg = ParConfig {
        seed,
        kills: vec![KillSpec { proc, point, at: 1 }],
        ..ParConfig::default()
    };
    let sim_cfg = SimConfig::tm_default();
    let par = ParRuntime::new(cfg)
        .run_tm(&wl, scheme, &sim_cfg)
        .unwrap_or_else(|e| panic!("{scheme:?}/{point}/{seed}: {e}"));
    let sim = SimRuntime.run_tm(&wl, scheme, &sim_cfg).unwrap();

    let s = par_stats(&par);
    let label = format!("{scheme:?}/{point}/seed {seed}");
    assert!(s.worker_crashes >= 1, "{label}: the scheduled kill never fired");
    assert!(s.respawns >= 1, "{label}: the dead worker was not respawned");
    match point {
        // Claim- and publish-point deaths orphan a claimed slot: the
        // supervisor must have fenced it (and the log stayed dense).
        CrashPoint::Claim | CrashPoint::Publish => {
            assert!(s.fences >= 1, "{label}: orphaned slot was never fenced")
        }
        // Apply-point deaths hold no slot: nothing to fence.
        CrashPoint::Apply => assert_eq!(s.fences, 0, "{label}: fence without an orphaned slot"),
    }
    assert!(s.violations.is_empty(), "{label}: {:?}", s.violations);
    same_commit_class(&sim, &par).unwrap_or_else(|e| panic!("{label}: {e}"));
}

/// One TLS run with a scheduled kill, checked against the sim oracle.
fn tls_crash_run(scheme: TlsScheme, point: CrashPoint, seed: u64) {
    let mut p = profiles::tls_profile("gzip").unwrap();
    p.tasks = 24;
    let wl = p.generate(seed);
    let cfg = ParConfig {
        seed,
        kills: vec![KillSpec { proc: 1 + seed as usize % 3, point, at: 1 }],
        ..ParConfig::default()
    };
    let sim_cfg = SimConfig::tls_default();
    let par = ParRuntime::new(cfg)
        .run_tls(&wl, scheme, &sim_cfg)
        .unwrap_or_else(|e| panic!("{scheme:?}/{point}/{seed}: {e}"));
    let sim = SimRuntime.run_tls(&wl, scheme, &sim_cfg).unwrap();

    let s = par_stats(&par);
    let label = format!("{scheme:?}/{point}/seed {seed}");
    assert!(s.worker_crashes >= 1, "{label}: the scheduled kill never fired");
    assert!(s.respawns >= 1, "{label}: the dead worker was not respawned");
    assert_eq!(s.fences, 0, "{label}: TLS must never fence (slot i holds task i)");
    match point {
        // The dead worker held its current task's slot claimed: the
        // respawned incarnation must have adopted and republished it.
        CrashPoint::Claim | CrashPoint::Publish => {
            assert!(s.adopted_slots >= 1, "{label}: orphaned claim was never adopted")
        }
        CrashPoint::Apply => {
            assert_eq!(s.adopted_slots, 0, "{label}: adoption without an orphaned claim")
        }
    }
    assert!(s.violations.is_empty(), "{label}: {:?}", s.violations);
    same_commit_class(&sim, &par).unwrap_or_else(|e| panic!("{label}: {e}"));
}

#[test]
fn tm_bulk_survives_kills_at_every_protocol_point() {
    for point in POINTS {
        for seed in SEEDS {
            tm_crash_run(Scheme::Bulk, point, seed);
        }
    }
}

#[test]
fn tm_lazy_survives_kills_at_every_protocol_point() {
    for point in POINTS {
        for seed in SEEDS {
            tm_crash_run(Scheme::Lazy, point, seed);
        }
    }
}

#[test]
fn tls_bulk_survives_kills_at_every_protocol_point() {
    for point in POINTS {
        for seed in SEEDS {
            tls_crash_run(TlsScheme::Bulk, point, seed);
        }
    }
}

#[test]
fn tls_lazy_survives_kills_at_every_protocol_point() {
    for point in POINTS {
        for seed in SEEDS {
            tls_crash_run(TlsScheme::Lazy, point, seed);
        }
    }
}

#[test]
fn unrecoverable_tm_death_is_a_typed_error_not_an_abort() {
    let mut p = profiles::tm_profile("mc").unwrap();
    p.txs_per_thread = 2;
    let wl = p.generate(7);
    let cfg = ParConfig {
        seed: 7,
        kills: vec![KillSpec { proc: 2, point: CrashPoint::Publish, at: 0 }],
        respawn_budget: 0,
        ..ParConfig::default()
    };
    let err = ParRuntime::new(cfg).run_tm(&wl, Scheme::Bulk, &SimConfig::tm_default()).unwrap_err();
    match err {
        RuntimeError::WorkerDied { proc, slot, detail } => {
            assert_eq!(proc, 2);
            assert!(slot.is_some(), "a publish-point death holds a claimed slot");
            assert!(detail.contains("respawn budget exhausted"), "{detail}");
        }
        other => panic!("expected WorkerDied, got: {other}"),
    }
}

#[test]
fn unrecoverable_tls_death_is_a_typed_error_not_an_abort() {
    let mut p = profiles::tls_profile("gzip").unwrap();
    p.tasks = 12;
    let wl = p.generate(9);
    let cfg = ParConfig {
        seed: 9,
        kills: vec![KillSpec { proc: 1, point: CrashPoint::Claim, at: 0 }],
        respawn_budget: 0,
        ..ParConfig::default()
    };
    let err =
        ParRuntime::new(cfg).run_tls(&wl, TlsScheme::Bulk, &SimConfig::tls_default()).unwrap_err();
    match err {
        RuntimeError::WorkerDied { proc, detail, .. } => {
            assert_eq!(proc, 1);
            assert!(detail.contains("respawn budget exhausted"), "{detail}");
        }
        other => panic!("expected WorkerDied, got: {other}"),
    }
}

#[test]
fn a_hung_peer_trips_the_wall_clock_watchdog_with_a_replay_seed() {
    // Every publish is preceded by a 200ms injected sleep, against a
    // 50ms wall-clock stall bound: the watchdog must trip and surface a
    // typed liveness violation carrying the chaos replay seed, instead
    // of the run spinning forever.
    let mut p = profiles::tm_profile("mc").unwrap();
    p.txs_per_thread = 2;
    let wl = p.generate(11);
    let chaos = ChaosConfig {
        publish_delay_prob: 1.0,
        publish_delay_ns: 200_000_000,
        ..ChaosConfig::new(11)
    };
    let cfg = ParConfig {
        seed: 11,
        chaos: Some(chaos),
        stall_timeout_ms: 50,
        ..ParConfig::default()
    };
    let err = ParRuntime::new(cfg).run_tm(&wl, Scheme::Bulk, &SimConfig::tm_default()).unwrap_err();
    match err {
        RuntimeError::Liveness(v) => {
            assert_eq!(v.seed, Some(11), "the violation must carry the replay seed");
            assert!(v.scheme.contains("par/tm"), "{}", v.scheme);
        }
        other => panic!("expected a liveness violation, got: {other}"),
    }
}

#[test]
fn recovered_runs_compose_with_probabilistic_chaos() {
    // The full `--chaos` preset (probabilistic kills, stalls, delays)
    // on top of a scheduled kill: still auditor-clean, still the sim's
    // commit class.
    let mut p = profiles::tm_profile("mc").unwrap();
    p.txs_per_thread = 4;
    let wl = p.generate(13);
    let cfg = ParConfig {
        seed: 13,
        chaos: Some(ChaosConfig::worker_crash(13)),
        kills: vec![KillSpec { proc: 0, point: CrashPoint::Publish, at: 1 }],
        ..ParConfig::default()
    };
    let sim_cfg = SimConfig::tm_default();
    let par = ParRuntime::new(cfg).run_tm(&wl, Scheme::Bulk, &sim_cfg).unwrap();
    let sim = SimRuntime.run_tm(&wl, Scheme::Bulk, &sim_cfg).unwrap();
    let s = par_stats(&par);
    assert!(s.worker_crashes >= 1);
    assert!(s.violations.is_empty(), "{:?}", s.violations);
    same_commit_class(&sim, &par).unwrap();
}

#[test]
fn recovered_tls_runs_compose_with_probabilistic_chaos() {
    // The TLS twin, long enough for the preset's kills to land while peers
    // wait on the commit token and the supervisor repairs it.
    let mut p = profiles::tls_profile("crafty").unwrap();
    p.tasks = 240;
    let sim_cfg = SimConfig::tls_default();
    for seed in [7, 13, 42] {
        let wl = p.generate(seed);
        let cfg = ParConfig {
            seed,
            chaos: Some(ChaosConfig::worker_crash(seed)),
            kills: vec![KillSpec { proc: 1, point: CrashPoint::Publish, at: 1 }],
            ..ParConfig::default()
        };
        let par = ParRuntime::new(cfg)
            .run_tls(&wl, TlsScheme::Bulk, &sim_cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let sim = SimRuntime.run_tls(&wl, TlsScheme::Bulk, &sim_cfg).unwrap();
        let s = par_stats(&par);
        assert!(s.worker_crashes >= 1, "seed {seed}: the scheduled kill never fired");
        assert_eq!(s.respawns, s.worker_crashes, "seed {seed}");
        assert!(s.violations.is_empty(), "seed {seed}: {:?}", s.violations);
        same_commit_class(&sim, &par).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn an_adopter_that_dies_before_publishing_hands_the_slot_on_again() {
    // Worker 2 dies on its first claim — task 2's slot, orphaned. Its
    // respawn adopts the slot and dies on the first record it replays
    // (worker 2's third application), still holding it. The next
    // incarnation must adopt the slot again, not wait on it until the
    // watchdog trips.
    let mut p = profiles::tls_profile("gzip").unwrap();
    p.tasks = 24;
    let wl = p.generate(7);
    let cfg = ParConfig {
        seed: 7,
        kills: vec![
            KillSpec { proc: 2, point: CrashPoint::Claim, at: 0 },
            KillSpec { proc: 2, point: CrashPoint::Apply, at: 2 },
        ],
        stall_timeout_ms: 1_000,
        ..ParConfig::default()
    };
    let sim_cfg = SimConfig::tls_default();
    let par = ParRuntime::new(cfg).run_tls(&wl, TlsScheme::Bulk, &sim_cfg).unwrap();
    let sim = SimRuntime.run_tls(&wl, TlsScheme::Bulk, &sim_cfg).unwrap();
    let s = par_stats(&par);
    assert_eq!((s.worker_crashes, s.respawns, s.adopted_slots), (2, 2, 2));
    assert!(s.violations.is_empty(), "{:?}", s.violations);
    same_commit_class(&sim, &par).unwrap();
}
