//! The runtime invariant auditor.

use bulk_core::{set_restriction::verify_set_restriction, Bdm};
use bulk_mem::Cache;
use std::fmt;

/// Which correctness invariant a violation report is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// The Set Restriction (§4.3/§4.5): dirty lines of one cache set owned
    /// by more than one speculative version, or failing owner membership.
    SetRestriction,
    /// Signature-vs-oracle containment: an address in a thread's exact
    /// read/write set is *not* a member of its signature. Signatures may
    /// alias (false positives) but must never miss (false negatives).
    SignatureContainment,
    /// The committed order is not serializable: a surviving speculative
    /// thread still holds an un-disambiguated overlap with a committed
    /// write set.
    Serializability,
    /// A thread's clock or the global commit order went backwards.
    ClockMonotonicity,
    /// A corrupted signature passed its CRC and was silently accepted.
    UndetectedCorruption,
    /// The serialized-fallback token protocol broke: the token was held by
    /// a finished thread, double-granted, or a commit slot was cleared out
    /// of order. These were `debug_assert!`s inside the machines; as
    /// auditor checks, release-mode chaos soaks catch them too.
    TokenProtocol,
    /// Cycle-accounting conservation broke: the trace reducer found
    /// overlapping same-timeline spans, a span running backwards or past
    /// its actor's final clock, or an actor claiming more cycles than its
    /// timeline holds — so the Fig. 13 categories cannot sum to the
    /// total.
    CycleConservation,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InvariantKind::SetRestriction => "set-restriction",
            InvariantKind::SignatureContainment => "signature-containment",
            InvariantKind::Serializability => "serializability",
            InvariantKind::ClockMonotonicity => "clock-monotonicity",
            InvariantKind::UndetectedCorruption => "undetected-corruption",
            InvariantKind::TokenProtocol => "token-protocol",
            InvariantKind::CycleConservation => "cycle-conservation",
        };
        f.write_str(name)
    }
}

/// A structured invariant-violation report: what broke, where, when, and
/// the seed that replays it. Produced instead of a panic so a chaos run
/// can finish, aggregate, and exit nonzero.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantViolation {
    /// The violated invariant.
    pub kind: InvariantKind,
    /// The scheme under test (e.g. `"Bulk"`, `"tls/Lazy"`).
    pub scheme: String,
    /// The thread (TM) or processor (TLS) the violation was observed on.
    pub thread: usize,
    /// Simulated cycle of the observation.
    pub cycle: u64,
    /// The chaos seed in force, when the run was seeded.
    pub seed: Option<u64>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} violated on thread {} at cycle {}: {}",
            self.scheme, self.kind, self.thread, self.cycle, self.detail
        )?;
        if let Some(seed) = self.seed {
            write!(f, " (replay: BULK_CHAOS_SEED={seed})")?;
        }
        Ok(())
    }
}

/// Collects invariant checks during a machine run. Disabled by default
/// (zero cost on the hot path beyond one branch); when enabled, the
/// machines feed it after every commit, squash, and invalidation.
pub struct Auditor {
    enabled: bool,
    scheme: String,
    seed: Option<u64>,
    clocks: Vec<u64>,
    last_commit_finish: u64,
    checks: u64,
    violations: Vec<InvariantViolation>,
}

impl Auditor {
    /// An auditor that records nothing (the default for plain runs).
    pub fn off() -> Self {
        Auditor {
            enabled: false,
            scheme: String::new(),
            seed: None,
            clocks: Vec::new(),
            last_commit_finish: 0,
            checks: 0,
            violations: Vec::new(),
        }
    }

    /// An active auditor for a run of `scheme` with `threads`
    /// threads/processors, tagged with the chaos seed when one is set.
    pub fn new(scheme: impl Into<String>, threads: usize, seed: Option<u64>) -> Self {
        Auditor {
            enabled: true,
            scheme: scheme.into(),
            seed,
            clocks: vec![0; threads],
            last_commit_finish: 0,
            checks: 0,
            violations: Vec::new(),
        }
    }

    /// Whether checks should be fed to this auditor at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of individual invariant checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Records a violation found by a machine-side check.
    pub fn record(&mut self, kind: InvariantKind, thread: usize, cycle: u64, detail: String) {
        if !self.enabled {
            return;
        }
        self.violations.push(InvariantViolation {
            kind,
            scheme: self.scheme.clone(),
            thread,
            cycle,
            seed: self.seed,
            detail,
        });
    }

    /// Checks a thread-local clock observation for monotonicity. Called on
    /// every step, so the disabled check inlines and the body does not.
    #[inline]
    pub fn observe_clock(&mut self, thread: usize, now: u64) {
        if self.enabled {
            self.check_clock(thread, now);
        }
    }

    #[inline(never)]
    fn check_clock(&mut self, thread: usize, now: u64) {
        self.checks += 1;
        if thread >= self.clocks.len() {
            self.clocks.resize(thread + 1, 0);
        }
        let prev = self.clocks[thread];
        if now < prev {
            self.record(
                InvariantKind::ClockMonotonicity,
                thread,
                now,
                format!("thread clock went backwards: {prev} -> {now}"),
            );
        }
        self.clocks[thread] = now.max(prev);
    }

    /// Checks the global commit order: `thread`'s commit finishing at
    /// `finish` must not precede an already-observed commit.
    #[inline]
    pub fn observe_commit(&mut self, thread: usize, finish: u64) {
        if self.enabled {
            self.check_commit(thread, finish);
        }
    }

    #[inline(never)]
    fn check_commit(&mut self, thread: usize, finish: u64) {
        self.checks += 1;
        if finish < self.last_commit_finish {
            self.record(
                InvariantKind::ClockMonotonicity,
                thread,
                finish,
                format!(
                    "commit order went backwards: finish {finish} after {}",
                    self.last_commit_finish
                ),
            );
        }
        self.last_commit_finish = self.last_commit_finish.max(finish);
    }

    /// Runs the Set Restriction verifier for one processor's BDM + cache.
    pub fn audit_set_restriction(&mut self, thread: usize, cycle: u64, bdm: &Bdm, cache: &Cache) {
        if !self.enabled {
            return;
        }
        self.checks += 1;
        if let Err(detail) = verify_set_restriction(bdm, cache) {
            self.record(InvariantKind::SetRestriction, thread, cycle, detail);
        }
    }

    /// Records a signature-containment check result (the machine computes
    /// membership itself, since granularity and set shapes are its own).
    pub fn audit_containment(&mut self, thread: usize, cycle: u64, missing: Option<String>) {
        if !self.enabled {
            return;
        }
        self.checks += 1;
        if let Some(detail) = missing {
            self.record(InvariantKind::SignatureContainment, thread, cycle, detail);
        }
    }

    /// The violations recorded so far.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Drains the recorded violations (for folding into run stats).
    pub fn take_violations(&mut self) -> Vec<InvariantViolation> {
        std::mem::take(&mut self.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulk_mem::{Addr, CacheGeometry};
    use bulk_sig::SignatureConfig;

    #[test]
    fn disabled_auditor_records_nothing() {
        let mut a = Auditor::off();
        a.observe_clock(0, 10);
        a.observe_clock(0, 5);
        a.record(InvariantKind::Serializability, 0, 0, "x".into());
        assert!(a.violations().is_empty());
        assert_eq!(a.checks(), 0);
    }

    #[test]
    fn clock_regression_is_reported_with_seed() {
        let mut a = Auditor::new("Bulk", 2, Some(42));
        a.observe_clock(1, 100);
        a.observe_clock(1, 90);
        let v = &a.violations()[0];
        assert_eq!(v.kind, InvariantKind::ClockMonotonicity);
        assert_eq!((v.thread, v.seed), (1, Some(42)));
        assert!(v.to_string().contains("BULK_CHAOS_SEED=42"), "{v}");
    }

    #[test]
    fn commit_order_regression_is_reported() {
        let mut a = Auditor::new("Lazy", 2, None);
        a.observe_commit(0, 500);
        a.observe_commit(1, 400);
        assert_eq!(a.violations().len(), 1);
        assert!(a.violations()[0].to_string().contains("commit order"));
    }

    #[test]
    fn set_restriction_audit_flags_seeded_violation() {
        let geom = CacheGeometry::tm_l1();
        let mut bdm = Bdm::new(SignatureConfig::s14_tm(), geom, 2);
        let mut cache = Cache::new(geom);
        let v = bdm.alloc_version().unwrap();
        bdm.set_running(Some(v));
        bdm.record_store(v, Addr::new(0x40));
        cache.fill_dirty(Addr::new(0x40).line(64));

        let mut a = Auditor::new("Bulk", 1, None);
        a.audit_set_restriction(0, 10, &bdm, &cache);
        assert!(a.violations().is_empty());

        // An alien dirty line in the speculatively-owned set.
        cache.fill_dirty(Addr::new(0x4040).line(64));
        a.audit_set_restriction(0, 20, &bdm, &cache);
        assert_eq!(a.violations().len(), 1);
        assert_eq!(a.violations()[0].kind, InvariantKind::SetRestriction);
        assert_eq!(a.take_violations().len(), 1);
        assert!(a.violations().is_empty());
    }
}
