//! Liveness soak: every chaos profile (baseline, squash storm, arbiter
//! crash) across TM and TLS with the full liveness engine armed — backoff
//! arbitration, forward-progress watchdog, commit-arbiter failover whose
//! re-elections hold the bus — plus the invariant auditor and the
//! observability registry.
//!
//! Each configuration runs twice and must: commit every transaction/task,
//! record zero invariant violations and zero liveness violations, produce
//! byte-identical metrics JSON across the two runs (the whole engine is a
//! pure function of the seed), and publish into the registry exactly the
//! liveness and chaos counts the run kept in their owners (`LiveStats`,
//! `FaultStats`). The arbiter-crash profile must actually crash the
//! arbiter at least once per sweep, or it would be vacuous.
//!
//! `tests/golden/liveness_digests.txt` pins the `sig::crc64` of every
//! configuration's metrics JSON: the failover half of the commit pipeline
//! (re-election, unapplied re-deliveries) that no `sim_digests` row arms. A
//! PR that means to change a simulated result regenerates the file and
//! says why in CHANGES.md:
//!
//! ```text
//! cargo test --test liveness_soak -- --ignored regenerate
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use bulk_repro::chaos::{ChaosConfig, FaultPlan, FaultStats};
use bulk_repro::live::{BackoffConfig, LiveStats, LivenessConfig, LivenessKind};
use bulk_repro::obs::Obs;
use bulk_repro::sig::crc64;
use bulk_repro::sim::SimConfig;
use bulk_repro::tls::{TlsMachine, TlsScheme};
use bulk_repro::tm::{Scheme, TmMachine};
use bulk_repro::trace::{patterns, profiles};

const SEEDS: [u64; 3] = [1, 2, 3];

/// The chaos profiles under soak. `baseline` is the default fault mix,
/// `storm` its high-pressure variant, `arbiter-crash` adds commit-arbiter
/// crashes mid-broadcast.
fn chaos_profiles(seed: u64) -> [(&'static str, ChaosConfig); 3] {
    [
        ("baseline", ChaosConfig::new(seed)),
        ("storm", ChaosConfig::storm(seed)),
        ("arbiter-crash", ChaosConfig::arbiter_crash(seed)),
    ]
}

struct RunOutcome {
    commits: u64,
    violations: usize,
    liveness_violations: Vec<String>,
    liveness: LiveStats,
    chaos: FaultStats,
    metrics_json: String,
}

/// Asserts that the registry's `{prefix}live.*` and `{prefix}ctx_switches`
/// series are the counts the run kept in their owners: the liveness
/// engine's `LiveStats` and the chaos plan's `FaultStats`, whose
/// duplicates and crashes are the deliveries an armed receiver does not
/// apply (`live.dedup_drops`).
fn assert_published(obs: &Obs, prefix: &str, live: &LiveStats, chaos: &FaultStats, ctx: &str) {
    let reg = obs.registry();
    let counter = |name: &str| reg.counter_value(&format!("{prefix}{name}"));
    let published = [
        counter("ctx_switches"),
        counter("live.arbiter_crashes"),
        counter("live.backoff_waits"),
        counter("live.checkpoints"),
        counter("live.dedup_drops"),
        counter("live.watchdog_trips"),
    ];
    let owned = [
        chaos.forced_context_switches,
        chaos.arbiter_crashes,
        live.backoff_waits,
        live.checkpoints,
        chaos.duplicated_broadcasts + chaos.arbiter_crashes,
        live.watchdog_trips,
    ];
    assert_eq!(published, owned, "published counts differ from their owners' ({ctx})");
    let epoch = format!("{prefix}live.arbiter_epoch");
    assert!(
        reg.gauges().contains(&(epoch, chaos.arbiter_crashes)),
        "the epoch gauge is the crash count ({ctx})"
    );
    assert_eq!(
        reg.histograms()
            .iter()
            .find(|(name, _)| *name == format!("{prefix}live.backoff_cycles"))
            .map(|(_, h)| (h.count(), h.sum())),
        Some((live.backoff_waits, live.backoff_cycles)),
        "one backoff_cycles observation per wait ({ctx})"
    );
}

fn tm_run(app: &str, scheme: Scheme, cfg: &ChaosConfig, seed: u64) -> RunOutcome {
    let mut profile = profiles::tm_profile(app).expect("known app");
    profile.txs_per_thread = 5;
    let wl = profile.generate(seed);
    let obs = Arc::new(Obs::new());
    let mut m = TmMachine::try_new(&wl, scheme, &SimConfig::tm_default())
        .expect("construction succeeds");
    m.set_escalation_threshold(Some(16));
    m.enable_audit();
    m.set_chaos(FaultPlan::new(cfg.clone()));
    m.enable_liveness(LivenessConfig::default());
    m.attach_obs(Arc::clone(&obs));
    let stats = m.try_run().expect("run completes");
    let ctx = format!("{app} {scheme} seed={seed}");
    assert_published(&obs, "tm.", &stats.liveness, &stats.chaos, &ctx);
    RunOutcome {
        commits: stats.commits,
        violations: stats.violations.len(),
        liveness_violations: stats
            .liveness_violations
            .iter()
            .map(ToString::to_string)
            .collect(),
        liveness: stats.liveness,
        chaos: stats.chaos,
        metrics_json: obs.registry().to_json(),
    }
}

fn tls_run(app: &str, scheme: TlsScheme, cfg: &ChaosConfig, seed: u64) -> RunOutcome {
    let mut profile = profiles::tls_profile(app).expect("known app");
    profile.tasks = 40;
    let wl = profile.generate(seed);
    let obs = Arc::new(Obs::new());
    let mut m = TlsMachine::try_new(&wl, scheme, &SimConfig::tls_default())
        .expect("construction succeeds");
    m.enable_audit();
    m.set_chaos(FaultPlan::new(cfg.clone()));
    m.enable_liveness(LivenessConfig::default());
    m.attach_obs(Arc::clone(&obs));
    let stats = m.try_run().expect("run completes");
    let ctx = format!("{app} {scheme} seed={seed}");
    assert_published(&obs, "tls.", &stats.liveness, &stats.chaos, &ctx);
    RunOutcome {
        commits: stats.commits,
        violations: stats.violations.len(),
        liveness_violations: stats
            .liveness_violations
            .iter()
            .map(ToString::to_string)
            .collect(),
        liveness: stats.liveness,
        chaos: stats.chaos,
        metrics_json: obs.registry().to_json(),
    }
}

/// A sweep is vacuous unless its runs crashed the arbiter (so
/// `live.dedup_drops` is non-zero too), forced context switches and
/// issued backoff waits: the published series must have had non-zero
/// values to match.
fn assert_covered(live: &LiveStats, chaos: &FaultStats) {
    assert!(chaos.arbiter_crashes > 0, "the arbiter-crash profile never crashed the arbiter");
    assert!(chaos.forced_context_switches > 0, "{chaos:?}");
    assert!(live.backoff_waits > 0, "{live:?}");
}

fn check(a: &RunOutcome, b: &RunOutcome, expected_commits: u64, ctx: &str) {
    assert_eq!(a.commits, expected_commits, "not all work committed ({ctx})");
    assert_eq!(a.violations, 0, "invariant violations ({ctx})");
    assert!(
        a.liveness_violations.is_empty(),
        "liveness violations ({ctx}):\n{}",
        a.liveness_violations.join("\n")
    );
    assert_eq!(
        a.metrics_json, b.metrics_json,
        "metrics JSON not byte-identical across identical runs ({ctx})"
    );
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/liveness_digests.txt")
}

/// Asserts that `digests` (one machine's sweep) are exactly that
/// machine's rows of the golden file.
fn assert_golden(machine: &str, digests: &[String]) {
    let golden = std::fs::read_to_string(golden_path()).expect("tests/golden/liveness_digests.txt");
    let want: Vec<&str> =
        golden.lines().filter(|l| l.split(' ').nth(1) == Some(machine)).collect();
    let moved: Vec<&String> =
        digests.iter().filter(|d| !want.contains(&d.as_str())).collect();
    assert!(
        moved.is_empty() && digests.len() == want.len(),
        "{} of {} {machine} liveness digests differ from tests/golden/liveness_digests.txt \
         (see this file's header to regenerate): {moved:?}",
        moved.len(),
        want.len(),
    );
}

/// The TM sweep: checks every configuration and returns its golden rows.
fn tm_sweep() -> Vec<String> {
    let mut digests = Vec::new();
    let (mut live, mut chaos) = (LiveStats::default(), FaultStats::default());
    for app in ["mc", "cb"] {
        for scheme in [Scheme::EagerNaive, Scheme::Bulk] {
            for seed in SEEDS {
                for (name, cfg) in chaos_profiles(seed) {
                    let ctx = format!("tm app={app} scheme={scheme} chaos={name} seed={seed}");
                    let a = tm_run(app, scheme, &cfg, seed);
                    let b = tm_run(app, scheme, &cfg, seed);
                    let profile = profiles::tm_profile(app).expect("known app");
                    check(&a, &b, (profile.threads * 5) as u64, &ctx);
                    digests.push(format!("{:016x} {ctx}", crc64(a.metrics_json.as_bytes())));
                    if name != "arbiter-crash" {
                        assert_eq!(a.chaos.arbiter_crashes, 0, "crash outside its profile ({ctx})");
                    }
                    live.merge(&a.liveness);
                    chaos.merge(&a.chaos);
                }
            }
        }
    }
    assert_covered(&live, &chaos);
    // Only a TM context switch checkpoints its spilled version.
    assert!(live.checkpoints > 0, "no checkpoint to publish: {live:?}");
    digests
}

/// The TLS sweep: checks every configuration and returns its golden rows.
fn tls_sweep() -> Vec<String> {
    let mut digests = Vec::new();
    let (mut live, mut chaos) = (LiveStats::default(), FaultStats::default());
    for app in ["gzip", "vpr"] {
        for scheme in [TlsScheme::Eager, TlsScheme::Bulk] {
            for seed in SEEDS {
                for (name, cfg) in chaos_profiles(seed) {
                    let ctx = format!("tls app={app} scheme={scheme} chaos={name} seed={seed}");
                    let a = tls_run(app, scheme, &cfg, seed);
                    let b = tls_run(app, scheme, &cfg, seed);
                    check(&a, &b, 40, &ctx);
                    digests.push(format!("{:016x} {ctx}", crc64(a.metrics_json.as_bytes())));
                    if name != "arbiter-crash" {
                        assert_eq!(a.chaos.arbiter_crashes, 0, "crash outside its profile ({ctx})");
                    }
                    live.merge(&a.liveness);
                    chaos.merge(&a.chaos);
                }
            }
        }
    }
    assert_covered(&live, &chaos);
    digests
}

#[test]
fn tm_liveness_soak_commits_everything_exactly_once() {
    assert_golden("tm", &tm_sweep());
}

#[test]
fn tls_liveness_soak_commits_everything_exactly_once() {
    assert_golden("tls", &tls_sweep());
}

#[test]
#[ignore = "rewrites tests/golden/liveness_digests.txt"]
fn regenerate() {
    let rows: Vec<String> = tm_sweep().into_iter().chain(tls_sweep()).collect();
    std::fs::write(golden_path(), rows.join("\n") + "\n").expect("write golden digests");
}

/// Regenerates the EXPERIMENTS.md "Liveness policies" table: the
/// Fig. 12(a) ping-pong and the contended `cb` profile under (none |
/// backoff-only | escalation-only | combined) forward-progress policies.
///
/// Run with:
/// `cargo test --release --test liveness_soak -- --ignored liveness_policy_comparison --nocapture`
#[test]
#[ignore = "prints the EXPERIMENTS.md liveness comparison table"]
fn liveness_policy_comparison() {
    let backoff_only = || LivenessConfig {
        // Watchdog thresholds stay armed but the detectors never fire on
        // these runs; the policy under test is the backoff ladder.
        ..LivenessConfig::default()
    };
    let run = |wl: &bulk_repro::trace::TmWorkload,
               scheme: Scheme,
               escalation: Option<u64>,
               live: Option<LivenessConfig>| {
        let mut m = TmMachine::try_new(wl, scheme, &SimConfig::tm_default())
            .expect("construction succeeds");
        m.set_escalation_threshold(escalation);
        if let Some(cfg) = live {
            m.enable_liveness(cfg);
        }
        m.try_run().expect("run terminates")
    };
    let policies: [(&str, Option<u64>, Option<LivenessConfig>); 4] = [
        ("none", None, None),
        ("backoff-only", None, Some(backoff_only())),
        ("escalation-only", Some(16), None),
        ("combined", Some(16), Some(backoff_only())),
    ];
    println!("\n### fig12a ping-pong (EagerNaive, 50 iterations)");
    println!("| policy | outcome | commits | squashes | escalations | cycles |");
    println!("|---|---|---|---|---|---|");
    let wl = patterns::fig12a_livelock(50, 400);
    for (name, esc, live) in policies.clone() {
        let s = run(&wl, Scheme::EagerNaive, esc, live);
        let outcome = if s.livelocked { "livelocked" } else { "completes" };
        println!(
            "| {name} | {outcome} | {} | {} | {} | {} |",
            s.commits, s.squashes, s.escalations, s.cycles
        );
    }
    for scheme in [Scheme::EagerNaive, Scheme::Bulk] {
        println!("\n### contended `cb` profile ({scheme}, 5 txs/thread, seed 1)");
        println!("| policy | commits | squashes | escalations | backoff cycles | cycles |");
        println!("|---|---|---|---|---|---|");
        let mut profile = profiles::tm_profile("cb").expect("known app");
        profile.txs_per_thread = 5;
        let wl = profile.generate(1);
        for (name, esc, live) in policies.clone() {
            let s = run(&wl, scheme, esc, live);
            println!(
                "| {name} | {} | {} | {} | {} | {} |",
                s.commits, s.squashes, s.escalations, s.liveness.backoff_cycles, s.cycles
            );
        }
    }
}

/// The Fig. 12(a) reproducer: the symmetric EagerNaive ping-pong must trip
/// the livelock watchdog — deterministically, with the same diagnosis on
/// every run — instead of burning the squash cap, and publish the trip.
#[test]
fn eager_naive_ping_pong_trips_the_livelock_watchdog_deterministically() {
    let wl = patterns::fig12a_livelock(50, 400);
    let run = || {
        let mut m = TmMachine::try_new(&wl, Scheme::EagerNaive, &SimConfig::tm_default())
            .expect("construction succeeds");
        // Detection only: a zero backoff ladder leaves the pathological
        // schedule untouched so the watchdog sees the raw ping-pong.
        m.enable_liveness(LivenessConfig {
            backoff: BackoffConfig { base: 0, cap: 0, ..BackoffConfig::default() },
            ..LivenessConfig::default()
        });
        let obs = Arc::new(Obs::new());
        m.attach_obs(Arc::clone(&obs));
        let stats = m.try_run().expect("run terminates via the watchdog");
        assert_published(&obs, "tm.", &stats.liveness, &stats.chaos, "fig12a");
        stats
    };
    let a = run();
    let b = run();
    assert!(a.livelocked, "watchdog must abort the livelocked run");
    assert_eq!(a.liveness.watchdog_trips, 1, "{:?}", a.liveness);
    assert_eq!(a.liveness_violations.len(), 1);
    let v = &a.liveness_violations[0];
    assert_eq!(v.kind, LivenessKind::Livelock);
    assert!(v.detail.contains("squash cycle"), "{v}");
    assert_eq!(
        a.liveness_violations, b.liveness_violations,
        "diagnosis must be deterministic"
    );
}
