//! The composed liveness engine the machines embed.
//!
//! [`LivenessEngine`] bundles the three mechanisms — watchdog, backoff
//! arbitration, and checkpoint accounting — behind one small hook
//! surface, so a machine wires liveness with a handful of calls at its
//! existing event sites (tick, squash, commit, delivery).
//! Everything is deterministic: the only randomness is the backoff
//! jitter, seeded from [`LivenessConfig::seed`] (the machines pass the
//! chaos seed through, so `BULK_CHAOS_SEED` replays liveness behaviour
//! too).

use crate::backoff::{BackoffConfig, BackoffPolicy};
use crate::violation::LivenessViolation;
use crate::watchdog::{Watchdog, WatchdogConfig};

/// Aggregate configuration for a machine's liveness engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivenessConfig {
    /// Watchdog thresholds.
    pub watchdog: WatchdogConfig,
    /// Backoff ladder tuning.
    pub backoff: BackoffConfig,
    /// Seed for the deterministic backoff jitter. Machines pass the chaos
    /// seed so one `BULK_CHAOS_SEED` replays the whole run.
    pub seed: u64,
}

impl Default for LivenessConfig {
    fn default() -> Self {
        LivenessConfig {
            watchdog: WatchdogConfig::default(),
            backoff: BackoffConfig::default(),
            seed: 0,
        }
    }
}

/// Counters the engine accumulates over a run; folded into the machines'
/// stats structs and published once into the observability registry at
/// the end of the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Backoff waits issued.
    pub backoff_waits: u64,
    /// Total cycles of backoff issued.
    pub backoff_cycles: u64,
    /// Times the squash-storm throttle opened.
    pub storm_widenings: u64,
    /// Watchdog trips (0 or 1 per run; the first trip aborts).
    pub watchdog_trips: u64,
    /// Checkpoints captured at chaos context switches.
    pub checkpoints: u64,
    /// Checkpoint restores that failed verification (must stay 0).
    pub checkpoint_restore_failures: u64,
}

impl LiveStats {
    /// Folds `other` into `self` (sums every counter).
    pub fn merge(&mut self, other: &LiveStats) {
        self.backoff_waits += other.backoff_waits;
        self.backoff_cycles += other.backoff_cycles;
        self.storm_widenings += other.storm_widenings;
        self.watchdog_trips += other.watchdog_trips;
        self.checkpoints += other.checkpoints;
        self.checkpoint_restore_failures += other.checkpoint_restore_failures;
    }
}

/// One machine run's liveness engine: watchdog + backoff + checkpoint
/// accounting, with a unified stats snapshot.
#[derive(Debug)]
pub struct LivenessEngine {
    watchdog: Watchdog,
    backoff: BackoffPolicy,
    checkpoints: u64,
    checkpoint_restore_failures: u64,
}

impl LivenessEngine {
    /// Creates an engine for `threads` threads running `scheme`.
    /// `chaos_seed` is the armed chaos seed, if any, used only for replay
    /// hints in emitted violations.
    pub fn new(
        scheme: impl Into<String>,
        threads: usize,
        cfg: LivenessConfig,
        chaos_seed: Option<u64>,
    ) -> Self {
        LivenessEngine {
            watchdog: Watchdog::new(scheme, threads, cfg.watchdog, chaos_seed),
            backoff: BackoffPolicy::new(threads, cfg.backoff, cfg.seed),
            checkpoints: 0,
            checkpoint_restore_failures: 0,
        }
    }

    /// Advances the global-stall clock. Call once per scheduler iteration.
    pub fn on_tick(&mut self, cycle: u64) {
        self.watchdog.observe_tick(cycle);
    }

    /// Records a squash of `victim` by `by` and returns the backoff wait
    /// (in cycles) the victim must observe before retrying.
    ///
    /// `aliasing` is the oracle's verdict for the squash (signature-only
    /// conflict) and `age_rank` the victim's age among in-flight
    /// transactions (0 = oldest).
    pub fn on_squash(
        &mut self,
        by: Option<usize>,
        victim: usize,
        aliasing: bool,
        age_rank: usize,
        cycle: u64,
    ) -> u64 {
        self.watchdog.observe_squash(by, victim, cycle);
        self.backoff.on_squash(victim, aliasing, age_rank)
    }

    /// Records a commit by `thread`, resetting its backoff ladder and the
    /// watchdog's progress clocks.
    pub fn on_commit(&mut self, thread: usize, cycle: u64) {
        self.watchdog.observe_commit(thread, cycle);
        self.backoff.on_commit(thread);
    }

    /// Records that `thread` retired all its work.
    pub fn on_done(&mut self, thread: usize) {
        self.watchdog.observe_done(thread);
    }

    /// Whether the watchdog has tripped; the machine must abort the run
    /// and surface [`LivenessEngine::take_violations`].
    pub fn tripped(&self) -> bool {
        self.watchdog.tripped()
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[LivenessViolation] {
        self.watchdog.violations()
    }

    /// Drains recorded violations.
    pub fn take_violations(&mut self) -> Vec<LivenessViolation> {
        self.watchdog.take_violations()
    }

    /// Records a checkpoint capture and whether its restore verified.
    pub fn note_checkpoint(&mut self, restore_ok: bool) {
        self.checkpoints += 1;
        if !restore_ok {
            self.checkpoint_restore_failures += 1;
        }
    }

    /// Records a failed crash-consistent checkpoint restore as a typed
    /// [`LivenessKind::CheckpointRestore`](crate::LivenessKind) violation
    /// carrying the scheme label and replay seed, instead of the machine
    /// panicking at the restore site. Counts the checkpoint as captured
    /// and its restore as failed.
    pub fn report_checkpoint_failure(&mut self, thread: usize, cycle: u64, detail: String) {
        self.note_checkpoint(false);
        self.watchdog.report(
            crate::LivenessKind::CheckpointRestore,
            Some(thread),
            cycle,
            detail,
        );
    }

    /// Snapshot of the engine's counters.
    pub fn stats(&self) -> LiveStats {
        LiveStats {
            backoff_waits: self.backoff.waits(),
            backoff_cycles: self.backoff.wait_cycles(),
            storm_widenings: self.backoff.storm_widenings(),
            watchdog_trips: self.watchdog.trips(),
            checkpoints: self.checkpoints,
            checkpoint_restore_failures: self.checkpoint_restore_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::violation::LivenessKind;

    #[test]
    fn engine_composes_watchdog_and_backoff() {
        let cfg = LivenessConfig {
            watchdog: WatchdogConfig {
                ping_pong_rounds: 3,
                ..WatchdogConfig::default()
            },
            ..LivenessConfig::default()
        };
        let mut e = LivenessEngine::new("tm/test", 2, cfg, Some(5));
        let mut waits = Vec::new();
        for round in 0..3u64 {
            let (s, v) = if round % 2 == 0 { (0, 1) } else { (1, 0) };
            waits.push(e.on_squash(Some(s), v, false, 0, 100 * (round + 1)));
        }
        assert!(e.tripped());
        assert!(waits.iter().all(|&w| w > 0));
        let stats = e.stats();
        assert_eq!(stats.watchdog_trips, 1);
        assert_eq!(stats.backoff_waits, 3);
        let v = e.take_violations();
        assert_eq!(v[0].kind, LivenessKind::Livelock);
        assert_eq!(v[0].seed, Some(5));
    }

    #[test]
    fn checkpoints_are_counted() {
        let mut e = LivenessEngine::new("tm/test", 4, LivenessConfig::default(), None);
        e.note_checkpoint(true);
        let s = e.stats();
        assert_eq!((s.checkpoints, s.checkpoint_restore_failures), (1, 0));
    }

    #[test]
    fn stats_merge_sums() {
        let mut a = LiveStats { backoff_waits: 1, ..LiveStats::default() };
        let b = LiveStats { backoff_waits: 3, checkpoints: 4, ..LiveStats::default() };
        a.merge(&b);
        assert_eq!((a.backoff_waits, a.checkpoints), (4, 4));
    }
}
