//! The front door: what a run is ([`Job`] + [`RunOptions`]), the one way
//! to execute it ([`Runtime::run`]), and the two substrates behind it.
//!
//! A [`JobSpec`] — the CLI's flags or a `bulkd` wire line — resolves to
//! a [`JobPlan`] (catalog profile + typed scheme), which generates a
//! [`Job`]; `bulk replay` enters with a parsed trace instead. A
//! `Runtime` takes the job and the options and returns a [`RunReport`]:
//! the committed history plus scheme-level counters. Two substrates
//! implement it:
//!
//! * [`SimRuntime`] — the deterministic discrete-event simulator. Same
//!   trace + same seed ⇒ byte-identical results; it is the *oracle*.
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
use bulk_chaos::{ChaosConfig, FaultPlan, InvariantViolation, MachineError};
use bulk_core::CommitEvent;
use bulk_live::{BackoffConfig, LivenessConfig, LivenessViolation, WatchdogConfig};
use bulk_obs::Obs;
use bulk_sig::SignatureConfig;
use bulk_sim::{SimConfig, SimHarness};
use bulk_tls::{TlsMachine, TlsScheme, TlsStats};
use bulk_tm::{Scheme, TmMachine, TmStats};
use bulk_trace::jobspec::{JobRuntime, JobSpec, Machine};
use bulk_trace::{profiles, TlsProfile, TlsWorkload, TmProfile, TmWorkload};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// The instruments a run is armed with — exactly the CLI's flags. A new
/// option is one field here plus one arm in each substrate's `run`.
#[derive(Clone, Default)]
pub struct RunOptions {
    /// Signature configuration (`--sig`; sim only — the parallel runtime
    /// hard-codes S14). `None` is the machine's paper default.
    pub sig: Option<SignatureConfig>,
    /// Check runtime invariants after every commit and squash (`--audit`;
    /// the parallel runtime always audits).
    pub audit: bool,
    /// Inject faults from this seed (`--chaos`): the deterministic
    /// `FaultPlan` on the sim, the worker-crash preset on real threads.
    pub chaos: Option<u64>,
    /// Arm the detection-only forward-progress watchdog with this
    /// global-stall bound in cycles (`--watchdog-ticks`; sim only).
    pub watchdog_ticks: Option<u64>,
    /// Where the run records itself: the sim mirrors every protocol step
    /// under `tm.`/`tls.`, the parallel runtime publishes its counters
    /// under `par.` when it ends.
    pub obs: Option<Arc<Obs>>,
}

/// One run's work: a trace, its typed scheme and the Table 5 machine.
/// The workload is borrowed by callers that already hold one
/// ([`Runtime::run_tm`]) and owned when generated from a [`JobPlan`] or
/// parsed from a trace file.
#[derive(Debug, Clone)]
pub enum Job<'a> {
    /// A transactional-memory run.
    Tm {
        /// The per-thread traces.
        workload: Cow<'a, TmWorkload>,
        /// Conflict-detection scheme.
        scheme: Scheme,
        /// Simulated machine (ignored by the parallel runtime: real
        /// threads have no simulated clock).
        cfg: SimConfig,
    },
    /// A thread-level-speculation run.
    Tls {
        /// The task traces.
        workload: Cow<'a, TlsWorkload>,
        /// Conflict-detection scheme.
        scheme: TlsScheme,
        /// Simulated machine (ignored by the parallel runtime).
        cfg: SimConfig,
    },
}

/// A [`JobSpec`] checked against the catalogs: the application profile
/// with the spec's size override applied, and the scheme typed. Nothing
/// is generated yet, so `bulkd` resolves once at the socket to refuse a
/// bad submission and again on the worker to run it — the same function,
/// hence the same message.
#[derive(Debug, Clone, PartialEq)]
pub enum JobPlan {
    /// A TM application under a TM scheme.
    Tm(TmProfile, Scheme),
    /// A TLS application under a TLS scheme.
    Tls(TlsProfile, TlsScheme),
}

impl JobPlan {
    /// Looks up the spec's application and parses its scheme.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidWorkload`] naming the unknown app or scheme.
    pub fn resolve(spec: &JobSpec) -> Result<JobPlan, RuntimeError> {
        let unknown = |family: &str| {
            let app = &spec.app;
            RuntimeError::InvalidWorkload(format!("unknown {family} app `{app}` (try `bulk list`)"))
        };
        match spec.machine {
            Machine::Tm => {
                let mut p = profiles::tm_profile(&spec.app).ok_or_else(|| unknown("TM"))?;
                if let Some(txs) = spec.txs {
                    p.txs_per_thread = txs as usize;
                }
                Ok(JobPlan::Tm(p, spec.scheme.parse().map_err(RuntimeError::InvalidWorkload)?))
            }
            Machine::Tls => {
                let mut p = profiles::tls_profile(&spec.app).ok_or_else(|| unknown("TLS"))?;
                if let Some(tasks) = spec.tasks {
                    p.tasks = tasks as usize;
                }
                Ok(JobPlan::Tls(p, spec.scheme.parse().map_err(RuntimeError::InvalidWorkload)?))
            }
        }
    }

    /// Generates the workload from `seed`, on the paper's Table 5 machine.
    pub fn generate(&self, seed: u64) -> Job<'static> {
        match self {
            JobPlan::Tm(p, scheme) => Job::Tm {
                workload: Cow::Owned(p.generate(seed)),
                scheme: *scheme,
                cfg: SimConfig::tm_default(),
            },
            JobPlan::Tls(p, scheme) => Job::Tls {
                workload: Cow::Owned(p.generate(seed)),
                scheme: *scheme,
                cfg: SimConfig::tls_default(),
            },
        }
    }
}

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

impl RuntimeError {
    /// Stable kebab-case error class: what `bulkd` puts in a `done`
    /// line's `"kind"`, the same on either substrate.
    pub fn kind(&self) -> &'static str {
        match self {
            RuntimeError::UnsupportedScheme { .. } => "unsupported-scheme",
            RuntimeError::InvalidWorkload(_) => "invalid-workload",
            RuntimeError::WorkerDied { .. } => "worker-died",
            RuntimeError::Liveness(_) => "liveness",
            RuntimeError::ProtocolBug(_) => "protocol-bug",
        }
    }
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
            RuntimeError::ProtocolBug(e) => write!(f, "protocol bug: {e}"),
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
/// the substrate's own statistics, which the summary reads rather than
/// copies.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which runtime produced this report (`"sim"` or `"par"`).
    pub runtime: &'static str,
    /// Committed outer transactions (TM) or tasks (TLS).
    pub commits: u64,
    /// Squashes / task restarts.
    pub squashes: u64,
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
        let (commits, squashes, violations) = match &detail {
            RunDetail::Tm(s) => (s.commits, s.squashes, &s.violations),
            RunDetail::Tls(s) => (s.commits, s.squashes, &s.violations),
            RunDetail::Par(s) => (s.commits, s.squashes, &s.violations),
        };
        let violations = violations.clone();
        RunReport { runtime, commits, squashes, violations, wall_ns, detail }
    }

    /// Committed history in the substrate's commit order.
    pub fn history(&self) -> &[CommitEvent] {
        match &self.detail {
            RunDetail::Tm(s) => &s.history,
            RunDetail::Tls(s) => &s.history,
            RunDetail::Par(s) => &s.history,
        }
    }

    /// Watchdog trips of a sim run that finished with a diagnosis (the
    /// parallel runtime reports a stall as [`RuntimeError::Liveness`]).
    pub fn liveness_violations(&self) -> &[LivenessViolation] {
        match &self.detail {
            RunDetail::Tm(s) => &s.liveness_violations,
            RunDetail::Tls(s) => &s.liveness_violations,
            RunDetail::Par(_) => &[],
        }
    }

    /// The committed-order class identity: the set of `(thread, ordinal)`
    /// pairs. Within one thread ordinals are contiguous, so equality of
    /// these sets means "same transactions committed, each thread's in
    /// program order" — the strongest order statement preserved across
    /// substrates with different timestamps.
    pub fn commit_class(&self) -> BTreeSet<(u32, u64)> {
        self.history().iter().map(CommitEvent::identity).collect()
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
    /// Runs `job` armed as `opts` asks — the only way to execute one.
    fn run(&self, job: &Job<'_>, opts: &RunOptions) -> Result<RunReport, RuntimeError>;

    /// [`Runtime::run`] on a TM workload the caller holds, nothing armed
    /// (the shape the conformance tests and the ledger call).
    fn run_tm(
        &self,
        workload: &TmWorkload,
        scheme: Scheme,
        cfg: &SimConfig,
    ) -> Result<RunReport, RuntimeError> {
        let job = Job::Tm { workload: Cow::Borrowed(workload), scheme, cfg: cfg.clone() };
        self.run(&job, &RunOptions::default())
    }

    /// [`Runtime::run`] on a TLS workload the caller holds, nothing armed.
    fn run_tls(
        &self,
        workload: &TlsWorkload,
        scheme: TlsScheme,
        cfg: &SimConfig,
    ) -> Result<RunReport, RuntimeError> {
        let job = Job::Tls { workload: Cow::Borrowed(workload), scheme, cfg: cfg.clone() };
        self.run(&job, &RunOptions::default())
    }
}

/// The substrate a spec names. The workload seed doubles as the parallel
/// runtime's backoff-jitter seed; everything else stays at the defaults
/// (`--runtime par` is about substrate semantics, not tuning).
pub fn runtime_for(spec: &JobSpec) -> Box<dyn Runtime> {
    match spec.runtime {
        JobRuntime::Sim => Box::new(SimRuntime),
        JobRuntime::Par => {
            Box::new(ParRuntime::new(ParConfig { seed: spec.seed, ..ParConfig::default() }))
        }
    }
}

/// The deterministic discrete-event simulator — the only code outside
/// tests, benches and examples that builds a machine and arms its
/// harness. With default options its semantics are exactly
/// `bulk_tm::run_tm` / `bulk_tls::run_tls`; the machines' typed errors
/// become [`RuntimeError`]s: a workload the machine refuses is
/// [`RuntimeError::InvalidWorkload`], a run it cannot finish a
/// [`RuntimeError::ProtocolBug`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SimRuntime;

/// Arms a sim machine's instruments. The order matters: the auditor is
/// rebuilt around the chaos plan's replay seed, and the liveness engine
/// inherits that seed for its jitter.
fn arm(h: &mut SimHarness, opts: &RunOptions) {
    if opts.audit {
        h.enable_audit();
    }
    if let Some(seed) = opts.chaos {
        h.set_chaos(FaultPlan::seeded(seed));
    }
    if let Some(stall_ticks) = opts.watchdog_ticks {
        // Pure detection: a zero backoff ladder means arming the watchdog
        // never perturbs the schedule, so a watched run stays
        // cycle-identical to an unwatched one.
        h.enable_liveness(LivenessConfig {
            watchdog: WatchdogConfig { stall_ticks, ..WatchdogConfig::default() },
            backoff: BackoffConfig { base: 0, cap: 0, ..BackoffConfig::default() },
            ..LivenessConfig::default()
        });
    }
}

impl Runtime for SimRuntime {
    fn run(&self, job: &Job<'_>, opts: &RunOptions) -> Result<RunReport, RuntimeError> {
        let start = Instant::now();
        let refused = |e: MachineError| RuntimeError::InvalidWorkload(e.to_string());
        let broke = |e: MachineError| RuntimeError::ProtocolBug(e.to_string());
        let detail = match job {
            Job::Tm { workload, scheme, cfg } => {
                let sig = opts.sig.clone().unwrap_or_else(SignatureConfig::s14_tm);
                let mut m =
                    TmMachine::try_with_signature(workload, *scheme, cfg, sig).map_err(refused)?;
                arm(m.harness_mut(), opts);
                if let Some(o) = &opts.obs {
                    m.attach_obs(Arc::clone(o));
                }
                RunDetail::Tm(m.try_run().map_err(broke)?)
            }
            Job::Tls { workload, scheme, cfg } => {
                let sig = opts.sig.clone().unwrap_or_else(SignatureConfig::s14_tls);
                let mut m =
                    TlsMachine::try_with_signature(workload, *scheme, cfg, sig).map_err(refused)?;
                arm(m.harness_mut(), opts);
                if let Some(o) = &opts.obs {
                    m.attach_obs(Arc::clone(o));
                }
                RunDetail::Tls(m.try_run().map_err(broke)?)
            }
        };
        Ok(RunReport::new("sim", start.elapsed().as_nanos() as u64, detail))
    }
}

/// The OS-thread parallel runtime; its timing knobs live in
/// [`ParConfig`].
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
    fn run(&self, job: &Job<'_>, opts: &RunOptions) -> Result<RunReport, RuntimeError> {
        let mut cfg = self.cfg.clone();
        if let Some(seed) = opts.chaos {
            // The real-thread fault preset: seeded worker kills at
            // commit-protocol points, injected stalls, widened
            // claim-to-publish windows.
            cfg.chaos = Some(ChaosConfig::worker_crash(seed));
        }
        let stats = match job {
            Job::Tm { workload, scheme, .. } => run_par_tm(workload, *scheme, &cfg)?,
            Job::Tls { workload, scheme, .. } => run_par_tls(workload, *scheme, &cfg)?,
        };
        if let Some(o) = &opts.obs {
            stats.publish(o.registry());
        }
        Ok(RunReport::new("par", stats.wall_ns, RunDetail::Par(stats)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulk_trace::profiles;

    fn tm_stats(r: &mut RunReport) -> &mut TmStats {
        match &mut r.detail {
            RunDetail::Tm(s) => s,
            other => panic!("not a sim TM report: {other:?}"),
        }
    }

    #[test]
    fn sim_runtime_reports_history_matching_commits() {
        let wl = profiles::tm_profile("mc").unwrap().generate(1);
        let r = SimRuntime.run_tm(&wl, Scheme::Bulk, &SimConfig::tm_default()).unwrap();
        assert_eq!(r.runtime, "sim");
        assert_eq!(r.commits as usize, r.history().len());
        assert_eq!(r.commit_class().len(), r.history().len());
    }

    #[test]
    fn commit_class_ignores_timestamps() {
        let wl = profiles::tm_profile("mc").unwrap().generate(1);
        let a = SimRuntime.run_tm(&wl, Scheme::Bulk, &SimConfig::tm_default()).unwrap();
        let mut b = a.clone();
        for ev in &mut tm_stats(&mut b).history {
            ev.at += 1000; // same class, shifted clock
        }
        same_commit_class(&a, &b).unwrap();
    }

    #[test]
    fn differing_classes_are_reported() {
        let wl = profiles::tm_profile("mc").unwrap().generate(1);
        let a = SimRuntime.run_tm(&wl, Scheme::Bulk, &SimConfig::tm_default()).unwrap();
        let mut b = a.clone();
        tm_stats(&mut b).history.pop();
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
}
