//! The [`Runtime`] trait — the execution-substrate abstraction — and its
//! two implementations.
//!
//! A `Runtime` takes a workload trace, a conflict-detection scheme and
//! the Table 5 machine configuration, and returns a [`RunReport`]: the
//! committed history plus scheme-level counters. Two substrates
//! implement it:
//!
//! * [`SimRuntime`] — the deterministic discrete-event simulator the
//!   repo has always had, unchanged, behind the trait. Same trace + same
//!   seed ⇒ byte-identical results; it is the *oracle*.
//! * [`ParRuntime`] — real OS threads over the lock-free broadcast log
//!   of [`crate::bus`]. Nondeterministic interleavings, genuinely
//!   concurrent signature disambiguation.
//!
//! Equivalence between them is a checkable statement, not an
//! aspiration: [`same_commit_class`] compares two reports' committed
//! histories as multisets of `(thread, ordinal)` identities — both
//! runtimes must commit exactly the same transactions, each thread's in
//! program order — and each report carries its own auditor verdict.

use crate::config::ParConfig;
use crate::stats::ParStats;
use crate::tls::run_par_tls;
use crate::tm::run_par_tm;
use bulk_chaos::InvariantViolation;
use bulk_core::CommitEvent;
use bulk_sim::SimConfig;
use bulk_tls::{TlsMachine, TlsScheme, TlsStats};
use bulk_tm::{Scheme, TmMachine, TmStats};
use bulk_trace::{TlsWorkload, TmWorkload};
use std::collections::BTreeSet;
use std::fmt;
use std::time::Instant;

/// Why a runtime refused to execute a workload, or why an execution
/// could not run to completion.
#[derive(Debug)]
pub enum RuntimeError {
    /// The scheme has no sound mapping onto this substrate.
    UnsupportedScheme {
        /// The refusing runtime's name.
        runtime: &'static str,
        /// The requested scheme.
        scheme: String,
        /// Why the combination is unsupported.
        why: &'static str,
    },
    /// The workload trace failed validation.
    InvalidWorkload(String),
    /// A worker thread died (panic or injected kill) and the supervisor
    /// could not recover it — the respawn budget was exhausted, or its
    /// checkpoint failed verification.
    WorkerDied {
        /// The dead processor (TM workload thread / TLS pool worker).
        proc: usize,
        /// The bus slot it held claimed-but-unpublished, if any (the
        /// slot the supervisor fenced).
        slot: Option<usize>,
        /// Human-readable cause (panic message, kill point, budget).
        detail: String,
    },
    /// The run tripped a liveness bound — typically the wall-clock
    /// watchdog detecting a hung peer. Carries the replay seed.
    Liveness(bulk_live::LivenessViolation),
    /// An internal protocol invariant broke (double publish, token
    /// ordering, resume-state underflow). Always a bug, never a
    /// workload problem.
    ProtocolBug(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnsupportedScheme { runtime, scheme, why } => {
                write!(f, "runtime '{runtime}' does not support scheme {scheme}: {why}")
            }
            RuntimeError::InvalidWorkload(e) => write!(f, "invalid workload: {e}"),
            RuntimeError::WorkerDied { proc, slot, detail } => match slot {
                Some(s) => write!(
                    f,
                    "worker {proc} died holding bus slot {s} and could not be recovered: {detail}"
                ),
                None => write!(f, "worker {proc} died and could not be recovered: {detail}"),
            },
            RuntimeError::Liveness(v) => write!(f, "liveness violation: {v}"),
            RuntimeError::ProtocolBug(e) => write!(f, "parallel-runtime protocol bug: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Substrate-specific detail attached to a [`RunReport`].
#[derive(Debug, Clone)]
pub enum RunDetail {
    /// Full sim TM statistics.
    Tm(TmStats),
    /// Full sim TLS statistics.
    Tls(TlsStats),
    /// Parallel-runtime statistics (either machine).
    Par(ParStats),
}

/// What every runtime returns: the cross-substrate commit summary plus
/// the substrate's own statistics.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which runtime produced this report (`"sim"` or `"par"`).
    pub runtime: &'static str,
    /// Committed outer transactions (TM) or tasks (TLS).
    pub commits: u64,
    /// Squashes / task restarts.
    pub squashes: u64,
    /// Committed history in the substrate's commit order.
    pub history: Vec<CommitEvent>,
    /// Invariant violations observed (empty on a healthy run).
    pub violations: Vec<InvariantViolation>,
    /// Wall-clock nanoseconds the run took on the host.
    pub wall_ns: u64,
    /// The substrate's full statistics.
    pub detail: RunDetail,
}

impl RunReport {
    /// Lifts a substrate's statistics into the cross-substrate summary.
    fn new(runtime: &'static str, wall_ns: u64, detail: RunDetail) -> Self {
        let (commits, squashes, history, violations) = match &detail {
            RunDetail::Tm(s) => (s.commits, s.squashes, &s.history, &s.violations),
            RunDetail::Tls(s) => (s.commits, s.squashes, &s.history, &s.violations),
            RunDetail::Par(s) => (s.commits, s.squashes, &s.history, &s.violations),
        };
        let (history, violations) = (history.clone(), violations.clone());
        RunReport { runtime, commits, squashes, history, violations, wall_ns, detail }
    }

    /// The committed-order class identity: the set of `(thread, ordinal)`
    /// pairs. Within one thread ordinals are contiguous, so equality of
    /// these sets means "same transactions committed, each thread's in
    /// program order" — the strongest order statement preserved across
    /// substrates with different timestamps.
    pub fn commit_class(&self) -> BTreeSet<(u32, u64)> {
        self.history.iter().map(CommitEvent::identity).collect()
    }
}

/// Checks that two reports land in the same committed-order class and
/// that both are auditor-clean. `Err` carries a human-readable diff.
pub fn same_commit_class(a: &RunReport, b: &RunReport) -> Result<(), String> {
    if !a.violations.is_empty() {
        return Err(format!("{} run has violations: {:?}", a.runtime, a.violations));
    }
    if !b.violations.is_empty() {
        return Err(format!("{} run has violations: {:?}", b.runtime, b.violations));
    }
    let (ca, cb) = (a.commit_class(), b.commit_class());
    if ca != cb {
        let only_a: Vec<_> = ca.difference(&cb).take(5).collect();
        let only_b: Vec<_> = cb.difference(&ca).take(5).collect();
        return Err(format!(
            "committed-order classes differ: {} commits on {} vs {} on {}; \
             only-{}: {only_a:?}, only-{}: {only_b:?}",
            ca.len(),
            a.runtime,
            cb.len(),
            b.runtime,
            a.runtime,
            b.runtime,
        ));
    }
    Ok(())
}

/// An execution substrate for the TM and TLS machines.
pub trait Runtime {
    /// The substrate's name, embedded in reports and metrics artifacts.
    fn name(&self) -> &'static str;

    /// Runs a TM workload under `scheme`.
    fn run_tm(
        &self,
        workload: &TmWorkload,
        scheme: Scheme,
        cfg: &SimConfig,
    ) -> Result<RunReport, RuntimeError>;

    /// Runs a TLS workload under `scheme`.
    fn run_tls(
        &self,
        workload: &TlsWorkload,
        scheme: TlsScheme,
        cfg: &SimConfig,
    ) -> Result<RunReport, RuntimeError>;
}

/// The deterministic discrete-event simulator, behind the trait. Its
/// semantics are exactly `bulk_tm::run_tm` / `bulk_tls::run_tls` — this
/// adapter only repackages the stats into a [`RunReport`] and the
/// machines' typed errors into [`RuntimeError`]s: a workload the machine
/// refuses is [`RuntimeError::InvalidWorkload`], a run it cannot finish a
/// [`RuntimeError::ProtocolBug`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SimRuntime;

impl Runtime for SimRuntime {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run_tm(
        &self,
        workload: &TmWorkload,
        scheme: Scheme,
        cfg: &SimConfig,
    ) -> Result<RunReport, RuntimeError> {
        let start = Instant::now();
        let stats = TmMachine::try_new(workload, scheme, cfg)
            .map_err(|e| RuntimeError::InvalidWorkload(e.to_string()))?
            .try_run()
            .map_err(|e| RuntimeError::ProtocolBug(e.to_string()))?;
        Ok(RunReport::new(self.name(), start.elapsed().as_nanos() as u64, RunDetail::Tm(stats)))
    }

    fn run_tls(
        &self,
        workload: &TlsWorkload,
        scheme: TlsScheme,
        cfg: &SimConfig,
    ) -> Result<RunReport, RuntimeError> {
        let start = Instant::now();
        let stats = TlsMachine::try_new(workload, scheme, cfg)
            .map_err(|e| RuntimeError::InvalidWorkload(e.to_string()))?
            .try_run()
            .map_err(|e| RuntimeError::ProtocolBug(e.to_string()))?;
        Ok(RunReport::new(self.name(), start.elapsed().as_nanos() as u64, RunDetail::Tls(stats)))
    }
}

/// The OS-thread parallel runtime. The [`SimConfig`] parameter is
/// accepted for trait parity but ignored: real threads have no
/// simulated clock; timing knobs live in [`ParConfig`].
#[derive(Debug, Clone, Default)]
pub struct ParRuntime {
    /// The runtime's tuning knobs.
    pub cfg: ParConfig,
}

impl ParRuntime {
    /// A runtime with the given configuration.
    pub fn new(cfg: ParConfig) -> Self {
        ParRuntime { cfg }
    }
}

impl Runtime for ParRuntime {
    fn name(&self) -> &'static str {
        "par"
    }

    fn run_tm(
        &self,
        workload: &TmWorkload,
        scheme: Scheme,
        _cfg: &SimConfig,
    ) -> Result<RunReport, RuntimeError> {
        let stats = run_par_tm(workload, scheme, &self.cfg)?;
        Ok(RunReport::new(self.name(), stats.wall_ns, RunDetail::Par(stats)))
    }

    fn run_tls(
        &self,
        workload: &TlsWorkload,
        scheme: TlsScheme,
        _cfg: &SimConfig,
    ) -> Result<RunReport, RuntimeError> {
        let stats = run_par_tls(workload, scheme, &self.cfg)?;
        Ok(RunReport::new(self.name(), stats.wall_ns, RunDetail::Par(stats)))
    }
}

/// Resolves a runtime by its CLI name.
pub fn runtime_by_name(name: &str, par_cfg: ParConfig) -> Option<Box<dyn Runtime>> {
    match name {
        "sim" => Some(Box::new(SimRuntime)),
        "par" => Some(Box::new(ParRuntime::new(par_cfg))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulk_trace::profiles;

    #[test]
    fn sim_runtime_reports_history_matching_commits() {
        let wl = profiles::tm_profile("mc").unwrap().generate(1);
        let r = SimRuntime.run_tm(&wl, Scheme::Bulk, &SimConfig::tm_default()).unwrap();
        assert_eq!(r.runtime, "sim");
        assert_eq!(r.commits as usize, r.history.len());
        assert_eq!(r.commit_class().len(), r.history.len());
    }

    #[test]
    fn commit_class_ignores_timestamps() {
        let wl = profiles::tm_profile("mc").unwrap().generate(1);
        let a = SimRuntime.run_tm(&wl, Scheme::Bulk, &SimConfig::tm_default()).unwrap();
        let mut b = a.clone();
        for ev in &mut b.history {
            ev.at += 1000; // same class, shifted clock
        }
        same_commit_class(&a, &b).unwrap();
    }

    #[test]
    fn differing_classes_are_reported() {
        let wl = profiles::tm_profile("mc").unwrap().generate(1);
        let a = SimRuntime.run_tm(&wl, Scheme::Bulk, &SimConfig::tm_default()).unwrap();
        let mut b = a.clone();
        b.history.pop();
        let err = same_commit_class(&a, &b).unwrap_err();
        assert!(err.contains("committed-order classes differ"), "{err}");
    }

    #[test]
    fn sim_runtime_refuses_an_empty_workload_with_a_typed_error() {
        let tm = TmWorkload { name: "empty".into(), threads: Vec::new() };
        let err = SimRuntime.run_tm(&tm, Scheme::Bulk, &SimConfig::tm_default()).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidWorkload(_)), "{err}");
        let tls = TlsWorkload { name: "empty".into(), tasks: Vec::new() };
        let err = SimRuntime.run_tls(&tls, TlsScheme::Bulk, &SimConfig::tls_default()).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidWorkload(_)), "{err}");
    }

    #[test]
    fn runtime_lookup() {
        assert!(runtime_by_name("sim", ParConfig::default()).is_some());
        assert!(runtime_by_name("par", ParConfig::default()).is_some());
        assert!(runtime_by_name("hw", ParConfig::default()).is_none());
    }
}
