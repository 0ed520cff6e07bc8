//! Model-to-machine conformance: every interleaving class the `bulk-mc`
//! explorer finds at the documented exhaustive bounds is replayed onto the
//! real TM and TLS machines as a deterministic `ScheduleScript`, and the
//! machine-observable outcomes must match the model's predictions for
//! that class:
//!
//! * every transaction/task commits,
//! * every scripted crash is injected (the chaos plan's count is the one
//!   count of crashes and re-elections), and the registry's
//!   `live.dedup_drops` counts exactly the class's deliveries a receiver
//!   does not apply (one per crash, one per interconnect duplication):
//!   each receiver applies a broadcast once, the model's cursor,
//! * the committed order stays serializable (runtime auditor), and
//! * the whole run is a pure function of the script: two runs of the same
//!   class produce byte-identical metrics JSON.
//!
//! The workloads are conflict-free by construction (disjoint address
//! ranges, strided in the low bits the signature key actually hashes so
//! the Bloom signatures do not alias), so the machines perform exactly
//! one commit broadcast per thread/task — the same number of broadcasts
//! the model's executions grant — and the per-broadcast fault bundles
//! line up one-to-one.

use std::sync::Arc;

use bulk_repro::chaos::ScheduleScript;
use bulk_repro::live::LivenessConfig;
use bulk_repro::mc::{expectations, explore, ClassExpectation, ModelConfig};
use bulk_repro::mem::Addr;
use bulk_repro::obs::Obs;
use bulk_repro::sim::SimConfig;
use bulk_repro::tls::{TlsMachine, TlsScheme};
use bulk_repro::tm::{Scheme, TmMachine};
use bulk_repro::trace::{TaskTrace, ThreadTrace, TlsOp, TlsWorkload, TmOp, TmWorkload};

/// One TM thread per model processor, each committing exactly one
/// transaction over a private address range: broadcasts == model commits.
fn tm_workload(threads: usize) -> TmWorkload {
    let thread = |i: usize| {
        let base = 0x10_0000u32 + i as u32 * 0x1000;
        ThreadTrace {
            ops: vec![
                TmOp::Begin,
                TmOp::Read(Addr::new(base)),
                TmOp::Write(Addr::new(base + 0x40)),
                TmOp::Compute(20),
                TmOp::End,
            ],
        }
    };
    TmWorkload { name: "mc-conformance".into(), threads: (0..threads).map(thread).collect() }
}

/// One TLS task per model processor, likewise disjoint.
fn tls_workload(tasks: usize) -> TlsWorkload {
    let task = |i: usize| {
        let base = 0x20_0000u32 + i as u32 * 0x1000;
        TaskTrace {
            ops: vec![
                TlsOp::Read(Addr::new(base)),
                TlsOp::Write(Addr::new(base + 0x40)),
                TlsOp::Compute(10),
            ],
        }
    };
    TlsWorkload { name: "mc-conformance".into(), tasks: (0..tasks).map(task).collect() }
}

struct MachineOutcome {
    commits: u64,
    squashes: u64,
    arbiter_crashes: u64,
    dedup_drops: u64,
    invariant_violations: usize,
    liveness_violations: usize,
    metrics_json: String,
}

fn tm_replay(wl: &TmWorkload, script: ScheduleScript) -> MachineOutcome {
    let obs = Arc::new(Obs::new());
    let mut m = TmMachine::try_new(wl, Scheme::Bulk, &SimConfig::tm_default())
        .expect("construction succeeds");
    m.enable_audit();
    m.set_chaos(script.into_plan());
    m.enable_liveness(LivenessConfig::default());
    m.attach_obs(Arc::clone(&obs));
    let stats = m.try_run().expect("scripted run completes");
    MachineOutcome {
        commits: stats.commits,
        squashes: stats.squashes,
        arbiter_crashes: stats.chaos.arbiter_crashes,
        dedup_drops: obs.registry().counter_value("tm.live.dedup_drops"),
        invariant_violations: stats.violations.len(),
        liveness_violations: stats.liveness_violations.len(),
        metrics_json: obs.registry().to_json(),
    }
}

fn tls_replay(wl: &TlsWorkload, script: ScheduleScript) -> MachineOutcome {
    let obs = Arc::new(Obs::new());
    let mut m = TlsMachine::try_new(wl, TlsScheme::Bulk, &SimConfig::tls_default())
        .expect("construction succeeds");
    m.enable_audit();
    m.set_chaos(script.into_plan());
    m.enable_liveness(LivenessConfig::default());
    m.attach_obs(Arc::clone(&obs));
    let stats = m.try_run().expect("scripted run completes");
    MachineOutcome {
        commits: stats.commits,
        squashes: stats.squashes,
        arbiter_crashes: stats.chaos.arbiter_crashes,
        dedup_drops: obs.registry().counter_value("tls.live.dedup_drops"),
        invariant_violations: stats.violations.len(),
        liveness_violations: stats.liveness_violations.len(),
        metrics_json: obs.registry().to_json(),
    }
}

/// Asserts one machine run matches the model's class expectation, plus a
/// byte-identical rerun.
fn check_conformance(
    exp: &ClassExpectation,
    a: &MachineOutcome,
    b: &MachineOutcome,
    expected_commits: u64,
    ctx: &str,
) {
    assert_eq!(a.commits, expected_commits, "lost commits ({ctx})");
    assert_eq!(
        a.squashes, 0,
        "conformance workloads are conflict-free; a squash breaks the \
         broadcast/script alignment ({ctx})"
    );
    assert_eq!(
        a.arbiter_crashes,
        exp.crashes,
        "scripted crashes not all injected ({ctx})"
    );
    assert_eq!(
        a.dedup_drops,
        exp.script.expected_dedup_drops(),
        "the registry must count exactly the class's unapplied deliveries ({ctx})"
    );
    assert_eq!(a.invariant_violations, 0, "serializability broke ({ctx})");
    assert_eq!(a.liveness_violations, 0, "liveness violation ({ctx})");
    assert_eq!(
        a.metrics_json, b.metrics_json,
        "scripted runs must be byte-identical ({ctx})"
    );
}

#[test]
fn every_explored_interleaving_class_replays_on_both_machines() {
    let cfg = ModelConfig::exhaustive();
    let report = explore(cfg);
    assert!(report.passed(), "the correct protocol must verify: {}", report.summary());
    // The harness delivers one bus occupancy at a time — a broadcast's
    // duplicate and re-elections included — and the model grants the
    // next broadcast only once every copy has drained.
    assert_eq!(
        report.max_inflight_commits, 1,
        "one broadcast in flight at a time: {}",
        report.summary()
    );
    let classes = expectations(&report.classes);
    assert!(!classes.is_empty());
    // The class set must include the quiet baseline, an interconnect
    // duplication, and two crashes on one broadcast — otherwise the
    // sweep is vacuous.
    assert!(classes.iter().any(|e| e.crashes == 0 && e.duplicates == 0));
    assert!(classes.iter().any(|e| e.duplicates > 0));
    assert!(classes
        .iter()
        .any(|e| e.script.broadcasts.iter().any(|b| b.crashes >= 2)));

    let procs = usize::from(cfg.procs);
    let expected_commits = cfg.total_commits() as u64;
    let tm_wl = tm_workload(procs);
    let tls_wl = tls_workload(procs);
    for exp in &classes {
        let name = exp.script.name.clone();
        let tm_a = tm_replay(&tm_wl, exp.script.clone());
        let tm_b = tm_replay(&tm_wl, exp.script.clone());
        check_conformance(exp, &tm_a, &tm_b, expected_commits, &format!("tm class={name}"));
        let tls_a = tls_replay(&tls_wl, exp.script.clone());
        let tls_b = tls_replay(&tls_wl, exp.script.clone());
        check_conformance(exp, &tls_a, &tls_b, expected_commits, &format!("tls class={name}"));
    }
}

#[test]
fn seeded_protocol_bugs_are_caught() {
    use bulk_repro::mc::Mutation;
    for m in Mutation::seeded_bugs() {
        let report = explore(ModelConfig::mutated(m));
        let cx = report
            .counterexample
            .as_ref()
            .unwrap_or_else(|| panic!("seeded bug {m} escaped the explorer"));
        assert!(!cx.trace.is_empty(), "{m}: counterexample must carry a trace");
    }
}
