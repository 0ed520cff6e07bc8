//! End-to-end properties of the causal span trace and the
//! cycle-accounting profiler: deterministic Chrome export, causal links
//! from every storm squash back to the commit broadcast that triggered
//! it, and exact cycle conservation across the chaos- and liveness-soak
//! matrices.

use std::sync::Arc;

use bulk_repro::chaos::{ChaosConfig, FaultPlan};
use bulk_repro::live::LivenessConfig;
use bulk_repro::obs::{Obs, SpanKind};
use bulk_repro::sim::SimConfig;
use bulk_repro::tls::{run_tls_observed, TlsMachine, TlsScheme};
use bulk_repro::tm::{run_tm_observed, Scheme, TmMachine};
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

/// Asserts the `{prefix}cycles.*` counters published at the end of a run
/// cover the run and conserve exactly.
fn assert_conserves(obs: &Obs, prefix: &str, ctx: &str) {
    let reg = obs.registry();
    let c = |n: &str| reg.counter_value(&format!("{prefix}cycles.{n}"));
    assert!(c("total") > 0, "{ctx}: accounting must cover the run");
    assert_eq!(
        c("useful") + c("squashed") + c("commit") + c("stall") + c("overhead") + c("other"),
        c("total"),
        "{ctx}: cycle categories must conserve"
    );
    assert_eq!(c("audit_violations"), 0, "{ctx}: cycle-accounting violations");
}

#[test]
fn same_seed_traces_export_byte_identically() {
    for (a, b) in [
        (observed_tm_run(42), observed_tm_run(42)),
        (observed_tls_run(42), observed_tls_run(42)),
    ] {
        assert!(!a.trace().is_empty(), "scenario must record spans");
        assert_eq!(a.trace().to_chrome_json(), b.trace().to_chrome_json());
    }
    // Different seeds must differ, or identity would be vacuous.
    assert_ne!(
        observed_tm_run(42).trace().to_chrome_json(),
        observed_tm_run(43).trace().to_chrome_json()
    );
}

#[test]
fn chrome_export_is_structurally_valid() {
    let obs = observed_tm_run(42);
    let json = obs.trace().to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\": [\n"), "object form");
    assert!(json.ends_with("\n]}\n"), "closed object");
    let body = &json["{\"traceEvents\": [\n".len()..json.len() - "\n]}\n".len()];
    let mut phases = std::collections::BTreeMap::new();
    for (i, line) in body.lines().enumerate() {
        let line = line.strip_suffix(',').unwrap_or(line);
        assert!(
            line.starts_with("{\"ph\": \"") && line.ends_with('}'),
            "event {i} is one object per line: {line}"
        );
        let ph = &line["{\"ph\": \"".len()..][..1];
        *phases.entry(ph.to_string()).or_insert(0u32) += 1;
        for field in ["\"pid\": ", "\"tid\": ", "\"name\": "] {
            assert!(line.contains(field), "event {i} missing {field}: {line}");
        }
        if ph == "X" {
            for field in
                ["\"ts\": ", "\"dur\": ", "\"cat\": \"bulk\"", "\"args\": {\"span\": "]
            {
                assert!(line.contains(field), "event {i} missing {field}: {line}");
            }
        }
    }
    assert!(phases.get("M").is_some_and(|&n| n >= 1), "track metadata: {phases:?}");
    assert!(phases.get("X").is_some_and(|&n| n > 0), "complete events: {phases:?}");
    // Flow pairs come in equal numbers of starts and ends.
    assert_eq!(phases.get("s"), phases.get("f"), "flow pairs balance: {phases:?}");
    assert!(phases.get("s").is_some_and(|&n| n > 0), "scenario has causal links");
}

/// Under Bulk, disambiguation happens only against commit broadcasts, so
/// in a squash storm every squash (and every bulk invalidation) must
/// carry a causal link back to the commit span whose broadcast triggered
/// it — the property that makes the trace *causal* rather than a flat
/// timeline.
#[test]
fn storm_squashes_all_link_back_to_commit_broadcasts() {
    let mut checked = 0usize;
    for seed in [1, 2, 3] {
        // TM: the contended profile under the high-pressure chaos mix.
        let mut p = profiles::tm_profile("cb").expect("profile");
        p.txs_per_thread = 5;
        let obs = Arc::new(Obs::new());
        let mut m = TmMachine::try_new(&p.generate(seed), Scheme::Bulk, &SimConfig::tm_default())
            .expect("construction succeeds");
        m.set_escalation_threshold(Some(16));
        m.set_chaos(FaultPlan::new(ChaosConfig::storm(seed)));
        m.enable_liveness(LivenessConfig::default());
        m.attach_obs(Arc::clone(&obs));
        m.try_run().expect("run completes");
        checked += assert_squashes_caused_by_commits(&obs, &format!("tm seed={seed}"));

        // TLS: same pressure on the speculative-task machine.
        let mut p = profiles::tls_profile("vpr").expect("profile");
        p.tasks = 40;
        let obs = Arc::new(Obs::new());
        let mut m =
            TlsMachine::try_new(&p.generate(seed), TlsScheme::Bulk, &SimConfig::tls_default())
                .expect("construction succeeds");
        m.set_chaos(FaultPlan::new(ChaosConfig::storm(seed)));
        m.enable_liveness(LivenessConfig::default());
        m.attach_obs(Arc::clone(&obs));
        m.try_run().expect("run completes");
        checked += assert_squashes_caused_by_commits(&obs, &format!("tls seed={seed}"));
    }
    assert!(checked > 0, "the storm must squash via commit broadcasts");
}

/// The `links` array of each span's complete event in the Chrome export,
/// indexed by span ID (the export writes the events in ID order).
fn exported_links(obs: &Obs) -> Vec<Vec<u64>> {
    obs.trace()
        .to_chrome_json()
        .lines()
        .filter(|l| l.contains("\"ph\": \"X\""))
        .map(|l| {
            let tail = &l[l.find("\"links\": [").expect("a links array") + 10..];
            tail[..tail.find(']').expect("a closed links array")]
                .split(", ")
                .filter(|id| !id.is_empty())
                .map(|id| id.parse().expect("a span ID"))
                .collect()
        })
        .collect()
}

/// Every squash and receiver-side bulk invalidation must carry a causal
/// link. Bulk invalidations are only ever selected by a commit
/// broadcast; squashes are caused by a commit broadcast or — for
/// non-speculative stores in TM — by an individual invalidation span.
/// Returns the number of commit-broadcast-caused squashes.
fn assert_squashes_caused_by_commits(obs: &Obs, ctx: &str) -> usize {
    let spans = obs.trace().spans();
    let links = exported_links(obs);
    let mut commit_caused = 0usize;
    for s in &spans {
        if !matches!(s.kind, SpanKind::Squash | SpanKind::BulkInvalidate) {
            continue;
        }
        let cause = s.cause.unwrap_or_else(|| {
            panic!("{ctx}: {:?} span {} has no causal link", s.kind, s.id)
        });
        let cause_kind = spans[cause as usize].kind;
        if s.kind == SpanKind::BulkInvalidate || cause_kind == SpanKind::Commit {
            assert_eq!(
                cause_kind,
                SpanKind::Commit,
                "{ctx}: span {} must be caused by a commit broadcast",
                s.id
            );
            if s.kind == SpanKind::Squash {
                commit_caused += 1;
            }
        } else {
            assert_eq!(
                cause_kind,
                SpanKind::Invalidate,
                "{ctx}: non-broadcast squash {} must be caused by an invalidation",
                s.id
            );
        }
        assert!(
            links[cause as usize].contains(&s.id),
            "{ctx}: cause {cause} must link forward to span {} in the export",
            s.id
        );
    }
    commit_caused
}

/// The chaos-soak matrix (every profile × scheme × seed with fault
/// injection and the auditor armed) with observability attached: the
/// cycle-accounting conservation invariant must hold on every run — no
/// `cycle-conservation` audit violations, and the published categories
/// must sum exactly to the sum of all per-actor timelines.
#[test]
fn tm_chaos_matrix_conserves_cycles() {
    let cfg = SimConfig::tm_default();
    let schemes =
        [Scheme::EagerNaive, Scheme::Eager, Scheme::Lazy, Scheme::Bulk, Scheme::BulkPartial];
    for profile in profiles::tm_profiles() {
        let mut profile = profile;
        profile.txs_per_thread = 5;
        for scheme in schemes {
            for seed in [1, 2, 3] {
                let ctx = format!("tm app={} scheme={scheme} seed={seed}", profile.name);
                let obs = Arc::new(Obs::new());
                let mut m = TmMachine::try_new(&profile.generate(seed), scheme, &cfg)
                    .unwrap_or_else(|e| panic!("construction failed ({ctx}): {e}"));
                m.set_escalation_threshold(Some(16));
                m.enable_audit();
                m.set_chaos(FaultPlan::seeded(seed));
                m.attach_obs(Arc::clone(&obs));
                let stats =
                    m.try_run().unwrap_or_else(|e| panic!("run failed ({ctx}): {e}"));
                assert!(
                    stats.violations.is_empty(),
                    "invariant violation(s) ({ctx}):\n{}",
                    stats
                        .violations
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("\n")
                );
                assert_conserves(&obs, "tm.", &ctx);
            }
        }
    }
}

#[test]
fn tls_chaos_matrix_conserves_cycles() {
    let cfg = SimConfig::tls_default();
    let schemes =
        [TlsScheme::Eager, TlsScheme::Lazy, TlsScheme::Bulk, TlsScheme::BulkNoOverlap];
    for profile in profiles::tls_profiles() {
        let mut profile = profile;
        profile.tasks = 40;
        for scheme in schemes {
            for seed in [1, 2, 3] {
                let ctx = format!("tls app={} scheme={scheme} seed={seed}", profile.name);
                let obs = Arc::new(Obs::new());
                let mut m = TlsMachine::try_new(&profile.generate(seed), scheme, &cfg)
                    .unwrap_or_else(|e| panic!("construction failed ({ctx}): {e}"));
                m.enable_audit();
                m.set_chaos(FaultPlan::seeded(seed));
                m.attach_obs(Arc::clone(&obs));
                let stats =
                    m.try_run().unwrap_or_else(|e| panic!("run failed ({ctx}): {e}"));
                assert!(
                    stats.violations.is_empty(),
                    "invariant violation(s) ({ctx}):\n{}",
                    stats
                        .violations
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("\n")
                );
                assert_conserves(&obs, "tls.", &ctx);
            }
        }
    }
}

/// The liveness-soak matrix (backoff arbitration, watchdog, failable
/// arbiter) with observability attached: backoff and checkpoint overhead
/// must still account exactly.
#[test]
fn liveness_matrix_conserves_cycles() {
    let chaos_profiles = |seed: u64| {
        [
            ("baseline", ChaosConfig::new(seed)),
            ("storm", ChaosConfig::storm(seed)),
            ("arbiter-crash", ChaosConfig::arbiter_crash(seed)),
        ]
    };
    for seed in [1, 2, 3] {
        for (name, cfg) in chaos_profiles(seed) {
            let ctx = format!("tm app=cb chaos={name} seed={seed}");
            let mut profile = profiles::tm_profile("cb").expect("known app");
            profile.txs_per_thread = 5;
            let obs = Arc::new(Obs::new());
            let mut m =
                TmMachine::try_new(&profile.generate(seed), Scheme::Bulk, &SimConfig::tm_default())
                    .expect("construction succeeds");
            m.set_escalation_threshold(Some(16));
            m.enable_audit();
            m.set_chaos(FaultPlan::new(cfg.clone()));
            m.enable_liveness(LivenessConfig::default());
            m.attach_obs(Arc::clone(&obs));
            let stats = m.try_run().expect("run completes");
            assert!(stats.violations.is_empty(), "violations ({ctx})");
            assert_conserves(&obs, "tm.", &ctx);

            let ctx = format!("tls app=vpr chaos={name} seed={seed}");
            let mut profile = profiles::tls_profile("vpr").expect("known app");
            profile.tasks = 40;
            let obs = Arc::new(Obs::new());
            let mut m = TlsMachine::try_new(
                &profile.generate(seed),
                TlsScheme::Bulk,
                &SimConfig::tls_default(),
            )
            .expect("construction succeeds");
            m.enable_audit();
            m.set_chaos(FaultPlan::new(cfg));
            m.enable_liveness(LivenessConfig::default());
            m.attach_obs(Arc::clone(&obs));
            let stats = m.try_run().expect("run completes");
            assert!(stats.violations.is_empty(), "violations ({ctx})");
            assert_conserves(&obs, "tls.", &ctx);
        }
    }
}
