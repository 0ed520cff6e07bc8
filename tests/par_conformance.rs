//! Cross-runtime conformance: the deterministic sim is the oracle for
//! the OS-thread parallel runtime.
//!
//! Two substrates running the same trace must land in the same
//! *committed-order class* — the same multiset of `(thread, ordinal)`
//! commit identities, each thread's commits in program order — with both
//! histories auditor-clean. Timestamps (simulated cycles vs. bus
//! positions) are deliberately outside the equivalence relation: they
//! are the one thing real threads cannot reproduce.
//!
//! Also pinned here: the sim runtime's byte-identical determinism (the
//! property that makes it usable as an oracle at all) and the parallel
//! runtime's serializability under a repeated-run soak.

use bulk_repro::par::{
    conflict_light_tm, ParConfig, ParRuntime, RunDetail, RunReport, Runtime, SimRuntime,
    same_commit_class,
};
use bulk_repro::sim::SimConfig;
use bulk_repro::tls::TlsScheme;
use bulk_repro::tm::Scheme;
use bulk_repro::trace::profiles;
use bulk_repro::trace::{ThreadTrace, TmOp, TmWorkload};
use bulk_repro::mem::Addr;

const SEEDS: [u64; 3] = [1, 2, 3];

fn par_runtime(seed: u64) -> ParRuntime {
    ParRuntime::new(ParConfig { seed, ..ParConfig::default() })
}

/// The parallel-runtime detail block of a report.
fn par_stats(r: &RunReport) -> &bulk_repro::par::ParStats {
    match &r.detail {
        RunDetail::Par(s) => s,
        other => panic!("expected par detail, got {other:?}"),
    }
}

/// A deliberately conflict-heavy workload: every thread reads and writes
/// the same few lines, so commit broadcasts squash peers constantly and
/// the disambiguation path (not just the happy path) is what's conformed.
fn contended_tm(threads: usize, txs: usize) -> TmWorkload {
    let mut traces = Vec::new();
    for t in 0..threads {
        let mut ops = Vec::new();
        for tx in 0..txs {
            ops.push(TmOp::Begin);
            let shared = ((tx + t) % 4) as u32 * 64;
            ops.push(TmOp::Read(Addr::new(shared)));
            ops.push(TmOp::Write(Addr::new(shared + 4)));
            ops.push(TmOp::End);
        }
        traces.push(ThreadTrace { ops });
    }
    TmWorkload { name: format!("contended_t{threads}_n{txs}"), threads: traces }
}

#[test]
fn tm_profiles_land_in_the_same_commit_class_on_both_runtimes() {
    let cfg = SimConfig::tm_default();
    for profile in profiles::tm_profiles() {
        let mut profile = profile;
        profile.txs_per_thread = 5;
        for scheme in [Scheme::Bulk, Scheme::Lazy] {
            for seed in SEEDS {
                let wl = profile.generate(seed);
                let ctx = format!("app={} scheme={scheme} seed={seed}", profile.name);
                let sim = SimRuntime
                    .run_tm(&wl, scheme, &cfg)
                    .unwrap_or_else(|e| panic!("sim run failed ({ctx}): {e}"));
                let par = par_runtime(seed)
                    .run_tm(&wl, scheme, &cfg)
                    .unwrap_or_else(|e| panic!("par run failed ({ctx}): {e}"));
                same_commit_class(&sim, &par)
                    .unwrap_or_else(|e| panic!("conformance failed ({ctx}): {e}"));
            }
        }
    }
}

#[test]
fn contended_tm_conforms_and_squashes_on_both_runtimes() {
    let cfg = SimConfig::tm_default();
    let wl = contended_tm(4, 12);
    for seed in SEEDS {
        let sim = SimRuntime.run_tm(&wl, Scheme::Bulk, &cfg).unwrap();
        let par = par_runtime(seed).run_tm(&wl, Scheme::Bulk, &cfg).unwrap();
        same_commit_class(&sim, &par)
            .unwrap_or_else(|e| panic!("contended conformance failed (seed={seed}): {e}"));
        assert_eq!(par.commits, 48, "every transaction must still commit");
    }
}

#[test]
fn unsupported_schemes_are_refused_not_misrun() {
    let cfg = SimConfig::tm_default();
    let wl = conflict_light_tm(2, 4, 1, 0);
    for scheme in [Scheme::EagerNaive, Scheme::Eager, Scheme::BulkPartial] {
        let err = par_runtime(1).run_tm(&wl, scheme, &cfg).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("does not support"), "{msg}");
    }
}

#[test]
fn tls_profiles_land_in_the_same_commit_class_on_both_runtimes() {
    let cfg = SimConfig::tls_default();
    for profile in profiles::tls_profiles() {
        let mut profile = profile;
        profile.tasks = 40;
        for scheme in [TlsScheme::Bulk, TlsScheme::BulkNoOverlap, TlsScheme::Lazy] {
            for seed in SEEDS {
                let wl = profile.generate(seed);
                let ctx = format!("app={} scheme={scheme} seed={seed}", profile.name);
                let sim = SimRuntime
                    .run_tls(&wl, scheme, &cfg)
                    .unwrap_or_else(|e| panic!("sim run failed ({ctx}): {e}"));
                let par = par_runtime(seed)
                    .run_tls(&wl, scheme, &cfg)
                    .unwrap_or_else(|e| panic!("par run failed ({ctx}): {e}"));
                same_commit_class(&sim, &par)
                    .unwrap_or_else(|e| panic!("conformance failed ({ctx}): {e}"));
            }
        }
    }
}

/// The oracle property: the sim runtime is deterministic down to the
/// byte. Same trace + same seed twice must produce identical histories
/// (including timestamps) and an identical stats block — `Debug` output
/// is compared, which covers every field.
#[test]
fn sim_runtime_is_byte_identical_across_runs() {
    let cfg = SimConfig::tm_default();
    let wl = profiles::tm_profile("mc").unwrap().generate(7);
    let a = SimRuntime.run_tm(&wl, Scheme::Bulk, &cfg).unwrap();
    let b = SimRuntime.run_tm(&wl, Scheme::Bulk, &cfg).unwrap();
    assert_eq!(a.history, b.history, "histories diverged with timestamps included");
    assert_eq!(
        format!("{:?}", a.detail),
        format!("{:?}", b.detail),
        "sim stats are not byte-identical across same-seed runs"
    );

    let tls_cfg = SimConfig::tls_default();
    let wl = profiles::tls_profile("gzip").unwrap().generate(7);
    let a = SimRuntime.run_tls(&wl, TlsScheme::Bulk, &tls_cfg).unwrap();
    let b = SimRuntime.run_tls(&wl, TlsScheme::Bulk, &tls_cfg).unwrap();
    assert_eq!(a.history, b.history);
    assert_eq!(format!("{:?}", a.detail), format!("{:?}", b.detail));
}

/// Serializability soak: the parallel runtime's committed history passes
/// its auditor on every run of a repeated matrix — different OS-thread
/// interleavings each time, zero violations always. Mirrors the chaos
/// soak matrix shape (profiles × seeds) with a repeat axis on the
/// contended workload where interleavings matter most.
#[test]
fn par_soak_is_always_auditor_clean() {
    let cfg = SimConfig::tm_default();
    let contended = contended_tm(4, 8);
    for round in 0..5u64 {
        let r = par_runtime(round).run_tm(&contended, Scheme::Bulk, &cfg).unwrap();
        let s = par_stats(&r);
        assert!(
            s.violations.is_empty(),
            "round {round}: {} violation(s): {:?}",
            s.violations.len(),
            s.violations
        );
        assert_eq!(r.commits, 32, "round {round}: lost or duplicated a commit");
    }
    for profile in profiles::tm_profiles().into_iter().take(3) {
        let mut profile = profile;
        profile.txs_per_thread = 4;
        for seed in SEEDS {
            let wl = profile.generate(seed);
            let r = par_runtime(seed).run_tm(&wl, Scheme::Bulk, &cfg).unwrap();
            let s = par_stats(&r);
            assert!(
                s.violations.is_empty(),
                "app={} seed={seed}: {:?}",
                profile.name,
                s.violations
            );
        }
    }
}
