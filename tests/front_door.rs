//! The front door (DESIGN.md §19): a run is a `JobSpec` resolved to a
//! `Job`, armed by `RunOptions`, executed by `Runtime::run` — and that
//! path is indistinguishable from building and arming a machine by hand.
//!
//! The CLI half — `bulk tm`/`bulk tls` flags and a `bulkd` wire line
//! yield the same `JobSpec` — lives with the parser, in
//! `crates/cli/src/args.rs` (`flags_and_wire_line_yield_the_same_job_spec`):
//! `bulk` is a binary crate and exports no library.

use std::sync::Arc;

use bulk_repro::bulkd::JobTable;
use bulk_repro::chaos::FaultPlan;
use bulk_repro::live::{BackoffConfig, LivenessConfig, WatchdogConfig};
use bulk_repro::obs::Obs;
use bulk_repro::par::{
    same_commit_class, Job, JobPlan, ParConfig, ParRuntime, RunDetail, RunOptions, Runtime,
    SimRuntime,
};
use bulk_repro::sim::SimHarness;
use bulk_repro::tls::{run_tls, TlsMachine, TlsScheme};
use bulk_repro::tm::{run_tm, Scheme, TmMachine};
use bulk_repro::trace::jobspec::{JobSpec, Machine};

const SEED: u64 = 7;
const WATCHDOG_TICKS: u64 = 1_000_000;

/// Every option set at once: audit, chaos seed 7, the detection-only
/// watchdog, and a fresh observability bundle.
fn all_armed() -> RunOptions {
    RunOptions {
        sig: None,
        audit: true,
        chaos: Some(SEED),
        watchdog_ticks: Some(WATCHDOG_TICKS),
        obs: Some(Arc::new(Obs::new())),
    }
}

/// What `all_armed` must amount to, spelled out on the harness.
fn arm_by_hand(h: &mut SimHarness) {
    h.enable_audit();
    h.set_chaos(FaultPlan::seeded(SEED));
    h.enable_liveness(LivenessConfig {
        watchdog: WatchdogConfig { stall_ticks: WATCHDOG_TICKS, ..WatchdogConfig::default() },
        backoff: BackoffConfig { base: 0, cap: 0, ..BackoffConfig::default() },
        ..LivenessConfig::default()
    });
}

/// What a run left in its bundle, as the artifacts would serialize it.
fn recorded(o: &Obs) -> (String, String, String) {
    (o.registry().to_json(), o.events().to_jsonl(), o.trace().to_chrome_json())
}

fn generated(machine: Machine, app: &str, scheme: &str) -> Job<'static> {
    let mut spec = JobSpec { seed: SEED, ..JobSpec::new(machine, app, scheme) };
    (spec.txs, spec.tasks) = (Some(12), Some(48));
    JobPlan::resolve(&spec).expect("catalog app and scheme").generate(spec.seed)
}

#[test]
fn sim_run_equals_the_hand_built_tm_machine_under_every_scheme() {
    for app in ["mc", "sjbb2k"] {
        for scheme in Scheme::ALL {
            let job = generated(Machine::Tm, app, scheme.kebab_name());
            let Job::Tm { workload, cfg, .. } = &job else { panic!("{job:?}") };
            let tag = format!("{app}/{scheme}");

            let r = SimRuntime.run(&job, &RunOptions::default()).unwrap();
            let RunDetail::Tm(stats) = &r.detail else { panic!("{tag}: {:?}", r.detail) };
            assert_eq!(format!("{stats:?}"), format!("{:?}", run_tm(workload, scheme, cfg)), "{tag}");

            let opts = all_armed();
            let r = SimRuntime.run(&job, &opts).unwrap();
            let RunDetail::Tm(stats) = &r.detail else { panic!("{tag}: {:?}", r.detail) };
            let by_hand = Arc::new(Obs::new());
            let mut m = TmMachine::new(workload, scheme, cfg);
            arm_by_hand(m.harness_mut());
            m.attach_obs(Arc::clone(&by_hand));
            assert_eq!(format!("{stats:?}"), format!("{:?}", m.run()), "{tag} armed");
            assert_eq!(recorded(opts.obs.as_ref().unwrap()), recorded(&by_hand), "{tag} obs");
            assert!(stats.audit_checks > 0 && stats.chaos.total_injected() > 0, "{tag}: armed");
        }
    }
}

#[test]
fn sim_run_equals_the_hand_built_tls_machine_under_every_scheme() {
    for app in ["gzip", "crafty"] {
        for scheme in TlsScheme::ALL {
            let job = generated(Machine::Tls, app, scheme.kebab_name());
            let Job::Tls { workload, cfg, .. } = &job else { panic!("{job:?}") };
            let tag = format!("{app}/{scheme}");

            let r = SimRuntime.run(&job, &RunOptions::default()).unwrap();
            let RunDetail::Tls(stats) = &r.detail else { panic!("{tag}: {:?}", r.detail) };
            assert_eq!(format!("{stats:?}"), format!("{:?}", run_tls(workload, scheme, cfg)), "{tag}");

            let opts = all_armed();
            let r = SimRuntime.run(&job, &opts).unwrap();
            let RunDetail::Tls(stats) = &r.detail else { panic!("{tag}: {:?}", r.detail) };
            let by_hand = Arc::new(Obs::new());
            let mut m = TlsMachine::new(workload, scheme, cfg);
            arm_by_hand(m.harness_mut());
            m.attach_obs(Arc::clone(&by_hand));
            assert_eq!(format!("{stats:?}"), format!("{:?}", m.run()), "{tag} armed");
            assert_eq!(recorded(opts.obs.as_ref().unwrap()), recorded(&by_hand), "{tag} obs");
            assert!(stats.audit_checks > 0 && stats.chaos.total_injected() > 0, "{tag}: armed");
        }
    }
}

/// The watchdog is detection only: without chaos, a watched run's stats
/// equal an unwatched run's, `liveness` aside. Under chaos they may not,
/// since an armed engine's receivers apply a duplicated broadcast once
/// (`SimHarness::broadcast`). Eager-naive is left out: it livelocks
/// (Fig. 12(a)), and the watchdog's trip ends that run early.
#[test]
fn without_chaos_a_watched_run_equals_an_unwatched_one() {
    let watched = RunOptions { watchdog_ticks: Some(WATCHDOG_TICKS), ..RunOptions::default() };
    let runs = |job: &Job<'_>| {
        let [plain, armed] = [RunOptions::default(), watched.clone()]
            .map(|opts| SimRuntime.run(job, &opts).expect("run completes").detail);
        (plain, armed)
    };
    for scheme in Scheme::ALL.into_iter().filter(|&s| s != Scheme::EagerNaive) {
        let (RunDetail::Tm(plain), RunDetail::Tm(mut armed)) =
            runs(&generated(Machine::Tm, "mc", scheme.kebab_name()))
        else {
            panic!("{scheme}: not a TM run")
        };
        armed.liveness = plain.liveness.clone();
        assert_eq!(format!("{armed:?}"), format!("{plain:?}"), "tm {scheme}");
    }
    for scheme in TlsScheme::ALL {
        let (RunDetail::Tls(plain), RunDetail::Tls(mut armed)) =
            runs(&generated(Machine::Tls, "gzip", scheme.kebab_name()))
        else {
            panic!("{scheme}: not a TLS run")
        };
        armed.liveness = plain.liveness.clone();
        assert_eq!(format!("{armed:?}"), format!("{plain:?}"), "tls {scheme}");
    }
}

#[test]
fn par_run_publishes_its_counters_and_lands_in_the_sims_commit_class() {
    for (machine, app, scheme) in [(Machine::Tm, "cb", "lazy"), (Machine::Tls, "gzip", "bulk")] {
        let job = generated(machine, app, scheme);
        let obs = Arc::new(Obs::new());
        let opts = RunOptions { obs: Some(Arc::clone(&obs)), ..RunOptions::default() };
        let par = ParRuntime::new(ParConfig { seed: SEED, ..ParConfig::default() })
            .run(&job, &opts)
            .unwrap();
        let sim = SimRuntime.run(&job, &RunOptions::default()).unwrap();
        same_commit_class(&sim, &par).unwrap();
        let reg = obs.registry();
        assert!(par.commits > 0);
        assert_eq!(reg.counter_value("par.commits"), par.commits, "{app}");
        assert_eq!(reg.counter_value("par.squashes"), par.squashes, "{app}");
        assert_eq!(
            reg.counter_value("par.squash.true_conflict") + reg.counter_value("par.squash.aliasing"),
            par.squashes,
            "{app}: attribution sums"
        );
    }
}

#[test]
fn an_unknown_app_or_scheme_reads_the_same_at_submit_and_at_run() {
    let table = JobTable::new(1, 0);
    for (machine, app, scheme, needle) in [
        (Machine::Tm, "no-such-app", "bulk", "unknown TM app `no-such-app`"),
        (Machine::Tls, "no-such-app", "bulk", "unknown TLS app `no-such-app`"),
        (Machine::Tm, "cb", "bulk-no-overlap", "unknown TM scheme `bulk-no-overlap`"),
        (Machine::Tls, "gzip", "wat", "unknown TLS scheme `wat`"),
    ] {
        let spec = JobSpec::new(machine, app, scheme);
        let at_run = JobPlan::resolve(&spec).unwrap_err();
        assert_eq!(at_run.kind(), "invalid-workload");
        let at_submit = table.submit(spec).unwrap_err();
        assert_eq!(at_submit, at_run.to_string());
        assert!(at_submit.contains(needle), "{at_submit}");
    }
    assert!(table.snapshot().is_empty(), "a refused spec never enters the table");
}
