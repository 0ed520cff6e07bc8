//! Forward-progress watchdog.
//!
//! The watchdog observes the three progress-relevant events a speculative
//! machine produces — squashes, commits, and the passage of logical time —
//! and trips a typed [`LivenessViolation`] when any of the three progress
//! properties is violated:
//!
//! * **livelock** — the same unordered pair of threads alternates squasher
//!   and victim for [`WatchdogConfig::ping_pong_rounds`] consecutive rounds
//!   with no commit anywhere in between (the Fig. 12(a) ping-pong);
//! * **starvation** — a thread's commit age (commits elsewhere since its
//!   own last commit) exceeds [`WatchdogConfig::starvation_commits`];
//! * **global stall** — no commit for [`WatchdogConfig::stall_ticks`]
//!   cycles while work remains.
//!
//! Detection is purely observational: the watchdog never perturbs the
//! machine. (Arming the engine it lives in does move a chaos run: an
//! armed engine's receivers apply a duplicated broadcast once — see
//! `bulk_sim::SimHarness::broadcast`.) A trip is sticky — the first
//! violation latches and the machine is expected to abort the run and
//! surface the violation.

use std::collections::BTreeMap;

use crate::violation::{LivenessKind, LivenessViolation};

/// Thresholds for the three watchdog detectors.
///
/// The defaults are deliberately generous: they are far beyond anything a
/// healthy run produces (the chaos soaks run with them armed and never
/// trip) while still catching a true livelock within a few hundred cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Consecutive alternating squash rounds between one unordered thread
    /// pair before declaring livelock.
    pub ping_pong_rounds: u32,
    /// Commits elsewhere since a thread's last own commit before declaring
    /// it starved.
    pub starvation_commits: u64,
    /// Cycles without any commit before declaring a global stall.
    pub stall_ticks: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            ping_pong_rounds: 12,
            starvation_commits: 512,
            stall_ticks: 1_000_000,
        }
    }
}

/// Alternation state for one unordered thread pair.
#[derive(Debug, Clone)]
struct PairState {
    /// Squasher of the most recent squash on this edge.
    last_squasher: usize,
    /// Consecutive rounds in which the squasher alternated.
    rounds: u32,
}

/// The watchdog itself. One instance observes one machine run.
#[derive(Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    scheme: String,
    seed: Option<u64>,
    /// Alternation counters keyed by unordered `(lo, hi)` thread pair.
    /// `BTreeMap` keeps any future iteration deterministic.
    pairs: BTreeMap<(usize, usize), PairState>,
    /// Commits elsewhere since each thread's own last commit.
    starve: Vec<u64>,
    /// Threads that still have uncommitted work.
    active: Vec<bool>,
    last_commit_cycle: u64,
    tripped: bool,
    trips: u64,
    violations: Vec<LivenessViolation>,
}

impl Watchdog {
    /// Creates a watchdog for `threads` threads running `scheme`, with the
    /// given thresholds and optional chaos replay seed.
    pub fn new(
        scheme: impl Into<String>,
        threads: usize,
        cfg: WatchdogConfig,
        seed: Option<u64>,
    ) -> Self {
        Watchdog {
            cfg,
            scheme: scheme.into(),
            seed,
            pairs: BTreeMap::new(),
            starve: vec![0; threads],
            active: vec![true; threads],
            last_commit_cycle: 0,
            tripped: false,
            trips: 0,
            violations: Vec::new(),
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &WatchdogConfig {
        &self.cfg
    }

    fn trip(
        &mut self,
        kind: LivenessKind,
        thread: Option<usize>,
        cycle: u64,
        detail: String,
    ) {
        self.tripped = true;
        self.trips += 1;
        self.violations.push(LivenessViolation {
            kind,
            scheme: self.scheme.clone(),
            thread,
            cycle,
            seed: self.seed,
            detail,
        });
    }

    /// Records that `by` squashed `victim` at `cycle`.
    ///
    /// `by` is `None` when the squash has no identifiable peer (e.g. a
    /// chaos-forced restart); such squashes do not feed the livelock
    /// detector because they cannot form a cycle.
    pub fn observe_squash(&mut self, by: Option<usize>, victim: usize, cycle: u64) {
        if self.tripped {
            return;
        }
        let Some(s) = by else { return };
        if s == victim {
            return;
        }
        let key = (s.min(victim), s.max(victim));
        let state = self.pairs.entry(key).or_insert(PairState {
            last_squasher: s,
            rounds: 0,
        });
        if state.rounds == 0 || state.last_squasher == victim {
            // First squash on this edge, or roles swapped: one more round
            // of the ping-pong.
            state.rounds += 1;
        }
        // Same squasher twice in a row: the victim keeps losing the same
        // duel (it typically restarts and is squashed again before winning
        // the line back). That extends the current round without advancing
        // the cycle count — only a role swap is a new round, and only a
        // commit resets the count. Pure one-sided squashing therefore
        // never trips livelock (rounds stays at 1); it is caught by the
        // starvation detector instead.
        state.last_squasher = s;
        let rounds = state.rounds;
        if rounds >= self.cfg.ping_pong_rounds {
            let (a, b) = key;
            self.trip(
                LivenessKind::Livelock,
                Some(victim),
                cycle,
                format!(
                    "detected squash cycle {a} -> {b} -> {a}: threads {a} and {b} \
                     squashed each other for {rounds} consecutive rounds without a \
                     commit (last round: {s} squashed {victim})"
                ),
            );
        }
    }

    /// Records that `thread` committed at `cycle`.
    ///
    /// A commit anywhere is progress: it resets every livelock alternation
    /// counter and the global-stall clock, and ages every other in-flight
    /// thread for starvation accounting.
    pub fn observe_commit(&mut self, thread: usize, cycle: u64) {
        self.pairs.clear();
        self.last_commit_cycle = cycle;
        if self.tripped {
            return;
        }
        if thread < self.starve.len() {
            self.starve[thread] = 0;
        }
        for t in 0..self.starve.len() {
            if t == thread || !self.active[t] {
                continue;
            }
            self.starve[t] += 1;
            if self.starve[t] > self.cfg.starvation_commits {
                let age = self.starve[t];
                self.trip(
                    LivenessKind::Starvation,
                    Some(t),
                    cycle,
                    format!(
                        "thread {t} has not committed while {age} commits landed \
                         elsewhere (bound {})",
                        self.cfg.starvation_commits
                    ),
                );
                return;
            }
        }
    }

    /// Records that `thread` has retired all its work.
    pub fn observe_done(&mut self, thread: usize) {
        if thread < self.active.len() {
            self.active[thread] = false;
            self.starve[thread] = 0;
        }
    }

    /// Advances the global-stall clock to `cycle`.
    pub fn observe_tick(&mut self, cycle: u64) {
        if self.tripped {
            return;
        }
        let idle = cycle.saturating_sub(self.last_commit_cycle);
        if idle > self.cfg.stall_ticks {
            self.trip(
                LivenessKind::GlobalStall,
                None,
                cycle,
                format!(
                    "no commit for {idle} cycles (bound {}, last commit at cycle {})",
                    self.cfg.stall_ticks, self.last_commit_cycle
                ),
            );
        }
    }

    /// Whether any detector has tripped. Sticky.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Number of trips recorded (0 or 1; the first trip latches).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// The recorded violations.
    pub fn violations(&self) -> &[LivenessViolation] {
        &self.violations
    }

    /// Drains the recorded violations.
    pub fn take_violations(&mut self) -> Vec<LivenessViolation> {
        std::mem::take(&mut self.violations)
    }
}

/// Wall-clock stall detector for execution substrates that have no
/// simulated clock (the real-thread parallel runtime).
///
/// The simulated [`Watchdog`] measures progress in cycles; on real OS
/// threads a hung peer manifests as wall time passing with no bus
/// publish. The par supervisor's audit is the one writer: it calls
/// [`note_progress`](Self::note_progress) when its cursor over the bus
/// log moves. Every spin site calls [`stalled`](Self::stalled), which
/// trips — stickily — once the gap since the last progress exceeds the
/// bound.
///
/// Memory-ordering argument: `note_progress` stores the elapsed-ns
/// reading with `Release` and `stalled` loads it with `Acquire`, so a
/// checker that observes a fresh timestamp also observes everything the
/// audit saw before it (a publish itself synchronizes via the bus's
/// `OnceLock`, so this ordering is for monotonicity of the *detector*,
/// not for protocol safety — a stale read can only make the detector
/// conservative by at most one progress event, never unsound: it may
/// trip late, and it never un-trips). The trip latch is a sticky
/// `AtomicBool` (`Release` store, `Acquire` load), so once any checker
/// trips, every later check reports stalled without re-deriving it.
#[derive(Debug)]
pub struct WallClockWatchdog {
    start: std::time::Instant,
    /// Elapsed nanoseconds (since `start`) of the last observed progress.
    last_progress_ns: std::sync::atomic::AtomicU64,
    /// Sticky trip latch.
    tripped: std::sync::atomic::AtomicBool,
    timeout_ns: u64,
}

impl WallClockWatchdog {
    /// A detector that trips after `timeout_ns` wall-clock nanoseconds
    /// without progress. `0` disables it (never trips).
    pub fn new(timeout_ns: u64) -> Self {
        WallClockWatchdog {
            start: std::time::Instant::now(),
            last_progress_ns: std::sync::atomic::AtomicU64::new(0),
            tripped: std::sync::atomic::AtomicBool::new(false),
            timeout_ns,
        }
    }

    /// Records that the system made progress: the par supervisor calls
    /// it when its audit of the bus log moves.
    pub fn note_progress(&self) {
        let now = self.start.elapsed().as_nanos() as u64;
        // The par supervisor is the only writer and its readings only
        // grow, so a store would do as well; the max keeps the deadline
        // monotone without relying on there being one writer.
        self.last_progress_ns.fetch_max(now, std::sync::atomic::Ordering::Release);
    }

    /// `true` once the stall bound has been exceeded. Sticky: the first
    /// trip latches, later progress cannot un-trip it — a run that ever
    /// stalled past the bound reports the stall even if the hung peer
    /// eventually woke up.
    pub fn stalled(&self) -> bool {
        if self.timeout_ns == 0 {
            return false;
        }
        if self.tripped.load(std::sync::atomic::Ordering::Acquire) {
            return true;
        }
        let now = self.start.elapsed().as_nanos() as u64;
        let last = self.last_progress_ns.load(std::sync::atomic::Ordering::Acquire);
        if now.saturating_sub(last) > self.timeout_ns {
            self.tripped.store(true, std::sync::atomic::Ordering::Release);
            return true;
        }
        false
    }

    /// Wall-clock nanoseconds since the last observed progress.
    pub fn since_progress_ns(&self) -> u64 {
        let now = self.start.elapsed().as_nanos() as u64;
        now.saturating_sub(self.last_progress_ns.load(std::sync::atomic::Ordering::Acquire))
    }

    /// Builds the typed violation for a trip, with replay context. The
    /// caller (the runtime's supervisor or a spinning worker) owns
    /// thread attribution.
    pub fn violation(&self, scheme: &str, thread: Option<usize>, seed: Option<u64>) -> LivenessViolation {
        LivenessViolation {
            kind: LivenessKind::GlobalStall,
            scheme: scheme.to_string(),
            thread,
            cycle: 0,
            seed,
            detail: format!(
                "no bus publish for {} ms (wall-clock bound {} ms)",
                self.since_progress_ns() / 1_000_000,
                self.timeout_ns / 1_000_000
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wd(rounds: u32) -> Watchdog {
        Watchdog::new(
            "test",
            2,
            WatchdogConfig {
                ping_pong_rounds: rounds,
                ..WatchdogConfig::default()
            },
            None,
        )
    }

    #[test]
    fn alternating_squashes_trip_livelock() {
        let mut w = wd(4);
        for round in 0..4u64 {
            let (s, v) = if round % 2 == 0 { (0, 1) } else { (1, 0) };
            w.observe_squash(Some(s), v, 100 * (round + 1));
        }
        assert!(w.tripped());
        let v = &w.violations()[0];
        assert_eq!(v.kind, LivenessKind::Livelock);
        assert!(v.detail.contains("squash cycle 0 -> 1 -> 0"));
        assert_eq!(v.cycle, 400);
    }

    #[test]
    fn a_commit_resets_the_alternation() {
        let mut w = wd(4);
        for round in 0..3u64 {
            let (s, v) = if round % 2 == 0 { (0, 1) } else { (1, 0) };
            w.observe_squash(Some(s), v, 100 * (round + 1));
        }
        w.observe_commit(0, 350);
        w.observe_squash(Some(1), 0, 400);
        assert!(!w.tripped());
    }

    #[test]
    fn one_sided_squashing_is_not_a_livelock_cycle() {
        let mut w = wd(3);
        for round in 0..10u64 {
            w.observe_squash(Some(0), 1, 10 * (round + 1));
        }
        // Same squasher every time: the victim is being starved, not
        // ping-ponged; the livelock detector must not fire.
        assert!(!w.tripped());
    }

    #[test]
    fn self_and_anonymous_squashes_are_ignored() {
        let mut w = wd(1);
        w.observe_squash(None, 1, 10);
        w.observe_squash(Some(1), 1, 20);
        assert!(!w.tripped());
    }

    #[test]
    fn commit_age_past_bound_trips_starvation() {
        let mut w = Watchdog::new(
            "test",
            3,
            WatchdogConfig {
                starvation_commits: 4,
                ..WatchdogConfig::default()
            },
            Some(9),
        );
        for i in 0..5 {
            w.observe_commit(i % 2, 10 * (i as u64 + 1));
        }
        assert!(w.tripped());
        let v = &w.violations()[0];
        assert_eq!(v.kind, LivenessKind::Starvation);
        assert_eq!(v.thread, Some(2));
        assert_eq!(v.seed, Some(9));
    }

    #[test]
    fn done_threads_cannot_starve() {
        let mut w = Watchdog::new(
            "test",
            3,
            WatchdogConfig {
                starvation_commits: 2,
                ..WatchdogConfig::default()
            },
            None,
        );
        w.observe_done(2);
        for i in 0..8 {
            w.observe_commit(i % 2, 10 * (i as u64 + 1));
        }
        assert!(!w.tripped());
    }

    #[test]
    fn quiet_machine_trips_global_stall() {
        let mut w = Watchdog::new(
            "test",
            2,
            WatchdogConfig {
                stall_ticks: 100,
                ..WatchdogConfig::default()
            },
            None,
        );
        w.observe_commit(0, 50);
        w.observe_tick(140);
        assert!(!w.tripped());
        w.observe_tick(151);
        assert!(w.tripped());
        assert_eq!(w.violations()[0].kind, LivenessKind::GlobalStall);
    }

    #[test]
    fn trips_latch_once() {
        let mut w = wd(2);
        for round in 0..10u64 {
            let (s, v) = if round % 2 == 0 { (0, 1) } else { (1, 0) };
            w.observe_squash(Some(s), v, round + 1);
        }
        assert_eq!(w.trips(), 1);
        assert_eq!(w.violations().len(), 1);
    }

    #[test]
    fn wall_clock_watchdog_trips_and_stays_tripped() {
        let w = WallClockWatchdog::new(1); // 1 ns bound: trips immediately
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(w.stalled());
        // Progress after the trip cannot un-trip the latch.
        w.note_progress();
        assert!(w.stalled());
        let v = w.violation("bulk", Some(1), Some(42));
        assert_eq!(v.kind, LivenessKind::GlobalStall);
        assert_eq!(v.seed, Some(42));
        assert!(v.detail.contains("wall-clock bound"));
    }

    #[test]
    fn wall_clock_watchdog_disabled_at_zero() {
        let w = WallClockWatchdog::new(0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(!w.stalled());
    }

    #[test]
    fn wall_clock_watchdog_progress_defers_the_trip() {
        let w = WallClockWatchdog::new(60_000_000_000); // 60 s: never in-test
        std::thread::sleep(std::time::Duration::from_millis(1));
        w.note_progress();
        assert!(w.since_progress_ns() < 60_000_000_000);
        assert!(!w.stalled());
    }
}
