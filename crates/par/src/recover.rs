//! Shared recovery machinery of the parallel engines: typed worker
//! halts, the run-wide control block, and the supervisor loop.
//!
//! A worker never aborts the process. Every way it can stop — finishing
//! its trace, an injected kill, a detected stall, a broken invariant, a
//! supervisor-requested abort, or a genuine panic (caught at the thread
//! boundary) — funnels into one [`Halt`] value that [`supervise`] folds
//! into its recovery decision: contain-and-respawn for crashes, a typed
//! [`RuntimeError`] for everything unrecoverable.

use crate::config::ParConfig;
use crate::receiver::{Receiver, Resume};
use crate::runtime::RuntimeError;
use crate::stats::ParStats;
use bulk_chaos::{CrashPoint, InvariantKind, InvariantViolation, ThreadChaos};
use bulk_live::{LivenessViolation, WallClockWatchdog};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Supervisor wake-up period while waiting for worker exits, so the
/// wall-clock watchdog is checked even when every worker is spinning.
const SUPERVISE_TICK: Duration = Duration::from_millis(50);

/// Why a worker's run loop stopped before finishing its trace.
#[derive(Debug)]
pub(crate) enum Halt {
    /// An injected kill fired (chaos schedule or probabilistic).
    Killed {
        /// The protocol point the kill hit.
        point: CrashPoint,
    },
    /// The worker's closure panicked; caught at the thread boundary.
    Panicked(String),
    /// The wall-clock watchdog tripped while this worker was spinning.
    Stalled(LivenessViolation),
    /// A protocol invariant broke (double publish, token misorder).
    Bug(String),
    /// The supervisor requested an abort; the worker unwound cleanly.
    Aborted,
}

impl Halt {
    /// `true` for the halts the supervisor treats as a worker *crash*
    /// (fence the orphaned slot, respawn from the last checkpoint).
    pub(crate) fn is_crash(&self) -> bool {
        matches!(self, Halt::Killed { .. } | Halt::Panicked(_))
    }

    /// Human-readable cause, embedded in `WorkerDied` details.
    pub(crate) fn describe(&self) -> String {
        match self {
            Halt::Killed { point } => format!("injected kill at {point} point"),
            Halt::Panicked(msg) => format!("panicked: {msg}"),
            Halt::Stalled(v) => format!("stalled: {v}"),
            Halt::Bug(m) => format!("protocol bug: {m}"),
            Halt::Aborted => "aborted".into(),
        }
    }
}

/// Run-wide control block shared by the supervisor and every worker
/// incarnation: the abort flag, the wall-clock stall detector, the fault
/// injector's shared state, and the run's identity (scheme label, replay
/// seed) that every violation it reports carries.
pub(crate) struct RunControl {
    abort: AtomicBool,
    watchdog: WallClockWatchdog,
    pub(crate) chaos: Arc<ThreadChaos>,
    pub(crate) scheme: String,
    pub(crate) seed: u64,
}

impl RunControl {
    /// Control block of a run of `workers` workers, labelled `scheme`.
    pub(crate) fn new(scheme: String, workers: usize, cfg: &ParConfig) -> Self {
        RunControl {
            abort: AtomicBool::new(false),
            watchdog: WallClockWatchdog::new(cfg.stall_timeout_ms.saturating_mul(1_000_000)),
            chaos: ThreadChaos::new(workers, cfg.chaos.clone(), cfg.kills.clone()),
            scheme,
            seed: cfg.seed,
        }
    }

    /// Tells every worker to unwind at its next spin-site check.
    pub(crate) fn abort(&self) {
        self.abort.store(true, Ordering::Release);
    }

    pub(crate) fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Notes a bus publish (progress) for the stall detector.
    pub(crate) fn progress(&self) {
        self.watchdog.note_progress();
    }

    /// Checks the wall-clock bound; `Some` carries the typed violation
    /// (with the replay seed) once the bound is exceeded.
    pub(crate) fn check_stall(&self, thread: Option<usize>) -> Option<LivenessViolation> {
        self.watchdog
            .stalled()
            .then(|| self.watchdog.violation(&self.scheme, thread, Some(self.seed)))
    }

    /// The check every spin site of worker `proc` makes: a requested abort
    /// or a tripped watchdog ends the wait with a typed halt.
    pub(crate) fn check_spin(&self, proc: usize) -> Result<(), Halt> {
        if self.aborted() {
            return Err(Halt::Aborted);
        }
        self.check_stall(Some(proc)).map_or(Ok(()), |v| Err(Halt::Stalled(v)))
    }

    /// An invariant violation of this run, stamped with the scheme label
    /// and the replay seed.
    pub(crate) fn violation(
        &self,
        kind: InvariantKind,
        thread: usize,
        cycle: u64,
        detail: &str,
    ) -> InvariantViolation {
        InvariantViolation {
            kind,
            scheme: self.scheme.clone(),
            thread,
            cycle,
            seed: Some(self.seed),
            detail: detail.to_string(),
        }
    }
}

/// Runs `workers` workers to completion under supervision and folds their
/// counters into `stats`. Worker `w` starts from recovery point
/// `first(w)`; `work` is one incarnation's run, advancing the point as it
/// goes. When an incarnation crashes (injected kill or panic), `recover`
/// contains the damage — it sees the dead incarnation's [`Receiver`] and
/// last recovery point — and says where the next incarnation resumes;
/// the respawn budget bounds how often. Every other way a run can fail
/// (stall, protocol bug, failed recovery, spent budget) aborts the
/// surviving workers and comes back as the first typed error.
pub(crate) fn supervise<P: Send>(
    workers: usize,
    cfg: &ParConfig,
    ctl: &RunControl,
    stats: &mut ParStats,
    first: impl Fn(usize) -> P,
    work: impl Fn(&mut Receiver, &mut P) -> Result<(), Halt> + Sync,
    mut recover: impl FnMut(&mut ParStats, &Receiver, P) -> Result<(P, Resume), RuntimeError>,
) -> Result<(), RuntimeError> {
    let mut fatal: Option<RuntimeError> = None;
    let start = Instant::now();
    std::thread::scope(|s| {
        let (tx, exits) = mpsc::channel::<(Receiver, Result<(), Halt>, P)>();
        let spawn = |proc: usize, incarnation: u32, mut point: P, resume: Resume| {
            let (tx, work) = (tx.clone(), &work);
            let mut rx = Receiver::new(proc, cfg, ctl.chaos.worker(proc, incarnation), resume);
            s.spawn(move || {
                let run = std::panic::AssertUnwindSafe(|| work(&mut rx, &mut point));
                let outcome = std::panic::catch_unwind(run)
                    .unwrap_or_else(|p| Err(Halt::Panicked(panic_msg(p))));
                let _ = tx.send((rx, outcome, point));
            });
        };
        (0..workers).for_each(|w| spawn(w, 0, first(w), Resume::default()));

        let mut live = workers;
        let mut budget = cfg.respawn_budget;
        let mut incarnations = vec![0u32; workers];
        while live > 0 {
            // One supervision step: a respawn to perform, nothing, or the
            // error that ends the run.
            let step = match exits.recv_timeout(SUPERVISE_TICK) {
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    ctl.check_stall(None).map_or(Ok(None), |v| Err(RuntimeError::Liveness(v)))
                }
                Ok((mut dead, outcome, point)) => {
                    live -= 1;
                    stats.fold(std::mem::take(&mut dead.stats));
                    match outcome {
                        Ok(()) | Err(Halt::Aborted) => Ok(None),
                        Err(Halt::Stalled(v)) => Err(RuntimeError::Liveness(v)),
                        Err(Halt::Bug(m)) => Err(RuntimeError::ProtocolBug(m)),
                        Err(crash) => {
                            debug_assert!(crash.is_crash());
                            stats.worker_crashes += 1;
                            let t0 = Instant::now();
                            // Containment comes first and runs even when the
                            // run is already lost or the budget is spent: the
                            // log must stay dense for the survivors.
                            let cause = crash.describe();
                            recover(stats, &dead, point).and_then(|(point, resume)| match budget {
                                0 => Err(RuntimeError::WorkerDied {
                                    proc: dead.proc,
                                    slot: dead.claimed_unpublished,
                                    detail: format!("{cause}; respawn budget exhausted"),
                                }),
                                _ => Ok(Some((dead.proc, point, resume, t0))),
                            })
                        }
                    }
                }
            };
            match step {
                Ok(Some((proc, point, resume, t0))) if fatal.is_none() => {
                    budget -= 1;
                    incarnations[proc] += 1;
                    spawn(proc, incarnations[proc], point, resume);
                    live += 1;
                    stats.respawns += 1;
                    stats.recovery_ns += t0.elapsed().as_nanos() as u64;
                }
                Ok(_) => {}
                Err(e) if fatal.is_none() => {
                    fatal = Some(e);
                    ctl.abort();
                }
                Err(_) => {}
            }
        }
    });
    stats.wall_ns = start.elapsed().as_nanos() as u64;
    fatal.map_or(Ok(()), Err)
}

/// Extracts a readable message from a caught panic payload.
pub(crate) fn panic_msg(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_flag_round_trips() {
        let cfg = ParConfig { seed: 7, stall_timeout_ms: 0, ..ParConfig::default() };
        let ctl = RunControl::new("par/tm/Bulk".into(), 1, &cfg);
        assert!(!ctl.aborted());
        ctl.abort();
        assert!(ctl.aborted());
        // Watchdog disabled at 0: never stalls.
        assert!(ctl.check_stall(Some(0)).is_none());
    }

    #[test]
    fn stall_check_carries_scheme_and_seed() {
        let cfg = ParConfig { seed: 99, stall_timeout_ms: 1, ..ParConfig::default() };
        let ctl = RunControl::new("par/tls/Bulk".into(), 4, &cfg);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let v = ctl.check_stall(Some(3)).expect("1ms bound must trip");
        assert_eq!(v.scheme, "par/tls/Bulk");
        assert_eq!(v.thread, Some(3));
        assert_eq!(v.seed, Some(99));
        // Containment violations carry the same identity, so the CLI's
        // "replay with BULK_CHAOS_SEED" hint survives.
        let c = ctl.violation(InvariantKind::SignatureContainment, 3, 0, "missed");
        assert_eq!((c.scheme.as_str(), c.seed), ("par/tls/Bulk", Some(99)));
    }

    #[test]
    fn crash_classification() {
        assert!(Halt::Killed { point: CrashPoint::Claim }.is_crash());
        assert!(Halt::Panicked("x".into()).is_crash());
        assert!(!Halt::Aborted.is_crash());
        assert!(!Halt::Bug("x".into()).is_crash());
        assert!(panic_msg(Box::new("boom")).contains("boom"));
        assert!(panic_msg(Box::new(String::from("bang"))).contains("bang"));
    }
}
