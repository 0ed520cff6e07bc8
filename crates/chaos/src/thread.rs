//! Fault injection for the real-thread parallel runtime.
//!
//! The sim-facing [`FaultPlan`](crate::FaultPlan) hooks the simulated
//! clock; real OS threads have none, so the parallel runtime gets its
//! own fault mix, a [`ThreadChaosConfig`], and its own injector built
//! from two pieces:
//!
//! * [`ThreadChaos`] — the run-wide shared state: the explicit
//!   [`KillSpec`] schedule (each spec fires exactly once, across the
//!   whole run), the probabilistic-kill budget, and per-processor event
//!   counters that stay monotonic *across respawns*, so "the Nth
//!   broadcast of processor P" names the same event no matter how many
//!   incarnations P has been through.
//! * [`WorkerChaos`] — one worker incarnation's view: a deterministic
//!   RNG seeded from `(seed, proc, incarnation)` drives the
//!   probabilistic kills, stalls and delayed publishes, so the explicit
//!   schedule is exactly reproducible and the probabilistic stream is
//!   reproducible per `(seed, incarnation)` event order.
//!
//! A worker dies at one of two points: right after it wins a slot claim
//! ([`CrashPoint::Claim`], holding the empty slot its respawn adopts) or
//! right after it applies a record ([`CrashPoint::Apply`], holding
//! nothing). A record carries no identity beyond its slot, so there is
//! nothing else in flight to orphan.
//!
//! The injector only *decides*; the runtime carries the decision out
//! (returning a typed halt from the worker loop, sleeping for a stall,
//! delaying a publish). That keeps the chaos crate free of any threading
//! policy and makes the decisions unit-testable in isolation.

use bulk_rng::{Rng, SeedableRng, SmallRng};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The parallel runtime's fault mix: seeded worker kills at
/// commit-protocol points, injected stalls and widened claim-to-publish
/// windows, each a probability plus, for stalls and delays, a
/// wall-clock length. None of the sim's [`ChaosConfig`](crate::ChaosConfig)
/// faults applies to real threads, and none of these applies to the sim.
/// The default is the zero mix, under which nothing fires.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadChaosConfig {
    /// The replay seed: each worker incarnation's stream derives from it.
    pub seed: u64,
    /// Per-event probability that a worker is killed at a commit-protocol
    /// point: after each won slot claim and each applied record (see
    /// [`CrashPoint`]).
    pub worker_kill_prob: f64,
    /// Hard budget on probabilistic worker kills per run (explicit
    /// [`KillSpec`] schedules are not budgeted), so respawn recovery
    /// always terminates.
    pub max_worker_kills: u32,
    /// Per-poll probability a worker stalls (sleeps) instead of making
    /// progress — a descheduled peer the wall-clock watchdog must
    /// tolerate below its bound.
    pub thread_stall_prob: f64,
    /// Length of one injected thread stall, in wall-clock nanoseconds.
    pub thread_stall_ns: u64,
    /// Per-publish probability the claim-to-publish window is widened by
    /// a delay — every reader spins through exactly the window a worker
    /// death orphans.
    pub publish_delay_prob: f64,
    /// Length of one injected publish delay, in wall-clock nanoseconds.
    pub publish_delay_ns: u64,
}

impl ThreadChaosConfig {
    /// The `--chaos` preset under `--runtime par`: seeded worker kills
    /// (at most three a run), short injected stalls and widened
    /// claim-to-publish windows. Stalls are kept far below the runtime's
    /// wall-clock watchdog bound so a chaos run is slow, not stalled.
    pub fn worker_crash(seed: u64) -> Self {
        ThreadChaosConfig {
            seed,
            worker_kill_prob: 0.02,
            max_worker_kills: 3,
            thread_stall_prob: 0.01,
            thread_stall_ns: 200_000,
            publish_delay_prob: 0.05,
            publish_delay_ns: 50_000,
        }
    }
}

/// Where in the commit protocol a worker is killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// After winning the bus-slot claim CAS, before publishing the
    /// record: the orphaned slot is claimed but empty, and the slot is
    /// all the record's identity there is.
    Claim,
    /// While applying a peer's record from the log (no slot is held).
    Apply,
}

impl CrashPoint {
    /// Stable kebab-case name, usable as a report/artifact tag.
    pub fn as_str(&self) -> &'static str {
        match self {
            CrashPoint::Claim => "claim",
            CrashPoint::Apply => "apply",
        }
    }
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One scripted worker kill: processor `proc` dies at its `at`-th
/// matching event (0-based; slot claims for [`CrashPoint::Claim`],
/// record applications for [`CrashPoint::Apply`]). Event counts are
/// cumulative across respawns, and each spec fires exactly once per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// The processor (TM workload thread / TLS pool worker) to kill.
    pub proc: usize,
    /// Protocol point at which it dies.
    pub point: CrashPoint,
    /// Which occurrence of that point triggers the kill (0-based).
    pub at: u64,
}

/// Run-wide shared state of the real-thread fault injector, armed by a
/// [`ThreadChaosConfig`] mix, an explicit [`KillSpec`] schedule, both or
/// neither. One per run, shared (`Arc`) by every worker incarnation and
/// the supervisor.
#[derive(Debug)]
pub struct ThreadChaos {
    cfg: Option<ThreadChaosConfig>,
    kills: Vec<KillSpec>,
    consumed: Vec<AtomicBool>,
    /// Remaining probabilistic kills (explicit specs are not budgeted).
    kill_budget: AtomicU32,
    events: Vec<ProcEvents>,
}

/// One processor's cumulative event counts. Only that processor's current
/// incarnation writes them, once per claim or applied record, so each
/// processor gets a cache line of its own: packed side by side, every
/// worker's increment would take the line from every other worker.
#[derive(Debug, Default)]
#[repr(align(64))]
struct ProcEvents {
    /// Successful slot claims.
    claims: AtomicU64,
    /// Record applications.
    applies: AtomicU64,
}

impl ThreadChaos {
    /// Shared injector state for `procs` processors. `cfg` arms the
    /// probabilistic faults (worker kills, stalls, delayed publishes);
    /// `kills` is the explicit deterministic schedule. Either may be
    /// empty/`None` — an unarmed injector never fires.
    pub fn new(procs: usize, cfg: Option<ThreadChaosConfig>, kills: Vec<KillSpec>) -> Arc<Self> {
        let budget = cfg.as_ref().map_or(0, |c| c.max_worker_kills);
        Arc::new(ThreadChaos {
            consumed: kills.iter().map(|_| AtomicBool::new(false)).collect(),
            kills,
            cfg,
            kill_budget: AtomicU32::new(budget),
            events: (0..procs).map(|_| ProcEvents::default()).collect(),
        })
    }

    /// A worker incarnation's handle. `incarnation` is 0 for the
    /// original spawn and increments per respawn, so respawned workers
    /// draw a fresh (but still seed-determined) probabilistic stream.
    pub fn worker(self: &Arc<Self>, proc: usize, incarnation: u32) -> WorkerChaos {
        let seed = self.cfg.as_ref().map_or(0, |c| c.seed);
        let mix = seed
            ^ (proc as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (incarnation as u64).wrapping_mul(0xd1b5_4a32_d192_ed03);
        WorkerChaos { shared: Arc::clone(self), proc, rng: SmallRng::seed_from_u64(mix) }
    }

    /// Whether `proc` still has an unconsumed explicit [`CrashPoint::Apply`]
    /// kill. A worker that reaches the end of its trace with one pending
    /// keeps applying records until it fires: the worker's own publishes
    /// never count as applications, so a worker that outruns its peers
    /// would otherwise finish before the scheduled kill is reachable.
    pub fn apply_kill_pending(&self, proc: usize) -> bool {
        self.kills.iter().zip(&self.consumed).any(|(k, consumed)| {
            k.proc == proc && k.point == CrashPoint::Apply && !consumed.load(Ordering::Acquire)
        })
    }

    fn take_kill_budget(&self) -> bool {
        self.kill_budget
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| b.checked_sub(1))
            .is_ok()
    }

    fn explicit_kill(&self, proc: usize, n: u64, point: CrashPoint) -> bool {
        self.kills.iter().zip(&self.consumed).any(|(k, consumed)| {
            k.proc == proc && k.at == n && k.point == point && !consumed.swap(true, Ordering::AcqRel)
        })
    }

    /// The probabilistic kill: a coin of `worker_kill_prob`, while the
    /// budget lasts.
    fn random_kill(&self, rng: &mut SmallRng) -> bool {
        let Some(cfg) = self.cfg.as_ref() else { return false };
        cfg.worker_kill_prob > 0.0
            && rng.random::<f64>() < cfg.worker_kill_prob
            && self.take_kill_budget()
    }
}

/// One worker incarnation's deterministic fault stream. Not `Sync`: each
/// worker owns exactly one.
#[derive(Debug)]
pub struct WorkerChaos {
    shared: Arc<ThreadChaos>,
    proc: usize,
    rng: SmallRng,
}

impl WorkerChaos {
    /// Consulted after every successful bus-slot claim. `true` means the
    /// worker dies here ([`CrashPoint::Claim`] — holding the claimed,
    /// unpublished slot).
    pub fn on_claim(&mut self) -> bool {
        let n = self.shared.events[self.proc].claims.fetch_add(1, Ordering::Relaxed);
        self.shared.explicit_kill(self.proc, n, CrashPoint::Claim)
            || self.shared.random_kill(&mut self.rng)
    }

    /// Consulted after every record application. `true` means the worker
    /// dies here ([`CrashPoint::Apply`] — no bus slot is held).
    pub fn on_apply(&mut self) -> bool {
        let n = self.shared.events[self.proc].applies.fetch_add(1, Ordering::Relaxed);
        self.shared.explicit_kill(self.proc, n, CrashPoint::Apply)
            || self.shared.random_kill(&mut self.rng)
    }

    /// [`ThreadChaos::apply_kill_pending`] for this worker's processor.
    pub fn apply_kill_pending(&self) -> bool {
        self.shared.apply_kill_pending(self.proc)
    }

    /// Consulted at poll sites: `Some(d)` stalls the worker for `d`
    /// (simulating a descheduled/hung peer the watchdog must tolerate
    /// below its bound and report above it).
    #[inline]
    pub fn maybe_stall(&mut self) -> Option<Duration> {
        let cfg = self.shared.cfg.as_ref()?;
        (cfg.thread_stall_prob > 0.0 && self.rng.random::<f64>() < cfg.thread_stall_prob)
            .then(|| Duration::from_nanos(cfg.thread_stall_ns))
    }

    /// Consulted between claiming a slot and publishing into it:
    /// `Some(d)` widens the claim-to-publish window every reader spins
    /// through, the exact window worker death orphans.
    pub fn publish_delay(&mut self) -> Option<Duration> {
        let cfg = self.shared.cfg.as_ref()?;
        (cfg.publish_delay_prob > 0.0 && self.rng.random::<f64>() < cfg.publish_delay_prob)
            .then(|| Duration::from_nanos(cfg.publish_delay_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_kill_fires_exactly_once_at_nth_claim() {
        let chaos = ThreadChaos::new(
            2,
            None,
            vec![KillSpec { proc: 1, point: CrashPoint::Claim, at: 2 }],
        );
        let mut w0 = chaos.worker(0, 0);
        let mut w1 = chaos.worker(1, 0);
        for _ in 0..8 {
            assert!(!w0.on_claim(), "spec targets proc 1, not 0");
        }
        assert!(!w1.on_claim()); // claim 0
        assert!(!w1.on_claim()); // claim 1
        assert!(w1.on_claim()); // claim 2
        // The respawned incarnation continues the cumulative count and
        // the consumed spec never fires again.
        let mut w1b = chaos.worker(1, 1);
        for _ in 0..8 {
            assert!(!w1b.on_claim());
        }
    }

    #[test]
    fn apply_kills_use_their_own_counter() {
        let chaos =
            ThreadChaos::new(1, None, vec![KillSpec { proc: 0, point: CrashPoint::Apply, at: 1 }]);
        let mut w = chaos.worker(0, 0);
        assert!(!w.on_claim(), "claim events must not consume an Apply spec");
        assert!(!w.on_apply()); // apply 0
        assert!(w.apply_kill_pending(), "armed until it fires");
        assert!(!chaos.apply_kill_pending(1), "no spec names proc 1");
        assert!(w.on_apply()); // apply 1
        assert!(!w.apply_kill_pending(), "consumed");
        assert!(!w.on_apply(), "consumed");
    }

    #[test]
    fn processors_count_on_separate_cache_lines_and_across_respawns() {
        let chaos =
            ThreadChaos::new(3, None, vec![KillSpec { proc: 2, point: CrashPoint::Apply, at: 3 }]);
        let line_of = |e: &ProcEvents| e as *const ProcEvents as usize / 64;
        assert_ne!(line_of(&chaos.events[0]), line_of(&chaos.events[1]));
        assert_ne!(line_of(&chaos.events[1]), line_of(&chaos.events[2]));
        // `at` counts the processor's applications, not the incarnation's.
        let mut first = chaos.worker(2, 0);
        assert!(!first.on_apply() && !first.on_apply());
        let mut second = chaos.worker(2, 1);
        assert!(!second.on_apply()); // apply 2
        assert!(second.on_apply()); // apply 3
    }

    #[test]
    fn probabilistic_kills_respect_the_budget() {
        let cfg = ThreadChaosConfig {
            seed: 42,
            worker_kill_prob: 1.0,
            max_worker_kills: 3,
            ..ThreadChaosConfig::default()
        };
        let chaos = ThreadChaos::new(1, Some(cfg), Vec::new());
        let mut w = chaos.worker(0, 0);
        let kills = (0..100).filter(|_| w.on_claim()).count();
        assert_eq!(kills, 3, "budget must cap probabilistic kills");
    }

    #[test]
    fn unarmed_injector_never_fires() {
        let chaos = ThreadChaos::new(1, None, Vec::new());
        let mut w = chaos.worker(0, 0);
        for _ in 0..64 {
            assert!(!w.on_claim());
            assert!(!w.on_apply());
            assert_eq!(w.maybe_stall(), None);
            assert_eq!(w.publish_delay(), None);
        }
    }

    #[test]
    fn same_seed_same_incarnation_is_deterministic() {
        let cfg = ThreadChaosConfig::worker_crash(7);
        let mk = || ThreadChaos::new(1, Some(cfg.clone()), Vec::new());
        let (a, b) = (mk(), mk());
        let (mut wa, mut wb) = (a.worker(0, 0), b.worker(0, 0));
        for _ in 0..200 {
            assert_eq!(wa.on_claim(), wb.on_claim());
            assert_eq!(wa.maybe_stall(), wb.maybe_stall());
            assert_eq!(wa.publish_delay(), wb.publish_delay());
        }
    }
}
