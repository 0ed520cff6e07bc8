//! The composed liveness engine the machines embed.
//!
//! [`LivenessEngine`] bundles the four mechanisms — watchdog, backoff
//! arbitration, arbiter failover, and checkpoint accounting — behind one
//! small hook surface, so a machine wires liveness with a handful of
//! calls at its existing event sites (tick, squash, commit, broadcast).
//! Everything is deterministic: the only randomness is the backoff
//! jitter, seeded from [`LivenessConfig::seed`] (the machines pass the
//! chaos seed through, so `BULK_CHAOS_SEED` replays liveness behaviour
//! too).

use crate::arbiter::Arbiter;
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
    /// Cycles one arbiter re-election costs (lease timeout + election).
    pub reelect_cycles: u64,
    /// Seed for the deterministic backoff jitter. Machines pass the chaos
    /// seed so one `BULK_CHAOS_SEED` replays the whole run.
    pub seed: u64,
}

impl Default for LivenessConfig {
    fn default() -> Self {
        LivenessConfig {
            watchdog: WatchdogConfig::default(),
            backoff: BackoffConfig::default(),
            reelect_cycles: 120,
            seed: 0,
        }
    }
}

/// Counters the engine accumulates over a run; folded into the machines'
/// stats structs and mirrored into the observability registry.
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
    /// Arbiter crashes survived.
    pub arbiter_crashes: u64,
    /// Final arbiter epoch.
    pub arbiter_epoch: u64,
    /// In-flight commit broadcasts replayed after a failover.
    pub replayed_commits: u64,
    /// Delivery rounds after a broadcast's first (chaos duplicates and
    /// failover replays) that receivers dropped.
    pub dedup_drops: u64,
    /// Checkpoints captured at chaos context switches.
    pub checkpoints: u64,
    /// Checkpoint restores that failed verification (must stay 0).
    pub checkpoint_restore_failures: u64,
}

impl LiveStats {
    /// Folds `other` into `self` (sums counters; epoch takes the max).
    pub fn merge(&mut self, other: &LiveStats) {
        self.backoff_waits += other.backoff_waits;
        self.backoff_cycles += other.backoff_cycles;
        self.storm_widenings += other.storm_widenings;
        self.watchdog_trips += other.watchdog_trips;
        self.arbiter_crashes += other.arbiter_crashes;
        self.arbiter_epoch = self.arbiter_epoch.max(other.arbiter_epoch);
        self.replayed_commits += other.replayed_commits;
        self.dedup_drops += other.dedup_drops;
        self.checkpoints += other.checkpoints;
        self.checkpoint_restore_failures += other.checkpoint_restore_failures;
    }
}

/// One machine run's liveness engine: watchdog + backoff + failable
/// arbiter, with a unified stats snapshot.
#[derive(Debug)]
pub struct LivenessEngine {
    watchdog: Watchdog,
    backoff: BackoffPolicy,
    arbiter: Arbiter,
    replayed_commits: u64,
    dedup_drops: u64,
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
            arbiter: Arbiter::new(threads, cfg.reelect_cycles),
            replayed_commits: 0,
            dedup_drops: 0,
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

    /// Crashes the arbiter mid-broadcast: re-elects, marks the in-flight
    /// commit as replayed, and returns the re-election cost in cycles.
    pub fn arbiter_crash(&mut self) -> u64 {
        self.replayed_commits += 1;
        self.arbiter.fail_over()
    }

    /// Current arbiter epoch.
    pub fn epoch(&self) -> u64 {
        self.arbiter.epoch()
    }

    /// Current arbiter leader.
    pub fn leader(&self) -> usize {
        self.arbiter.leader()
    }

    /// Records a delivery round the receivers dropped: a chaos duplicate
    /// or failover replay of a broadcast they already applied.
    pub fn note_dedup_drop(&mut self) {
        self.dedup_drops += 1;
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
            arbiter_crashes: self.arbiter.crashes(),
            arbiter_epoch: self.arbiter.epoch(),
            replayed_commits: self.replayed_commits,
            dedup_drops: self.dedup_drops,
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
    fn dropped_replay_and_duplicate_rounds_are_counted() {
        let mut e = LivenessEngine::new("tm/test", 4, LivenessConfig::default(), None);
        let cost = e.arbiter_crash();
        assert_eq!(cost, LivenessConfig::default().reelect_cycles);
        // One broadcast, three rounds (original, replay, chaos duplicate):
        // the receivers drop the two after the first.
        e.note_dedup_drop();
        e.note_dedup_drop();
        let s = e.stats();
        assert_eq!(s.arbiter_crashes, 1);
        assert_eq!(s.arbiter_epoch, 1);
        assert_eq!(s.replayed_commits, 1);
        assert_eq!(s.dedup_drops, 2);
    }

    #[test]
    fn stats_merge_sums_and_maxes() {
        let mut a = LiveStats {
            backoff_waits: 1,
            arbiter_epoch: 2,
            ..LiveStats::default()
        };
        let b = LiveStats {
            backoff_waits: 3,
            arbiter_epoch: 1,
            dedup_drops: 4,
            ..LiveStats::default()
        };
        a.merge(&b);
        assert_eq!(a.backoff_waits, 4);
        assert_eq!(a.arbiter_epoch, 2);
        assert_eq!(a.dedup_drops, 4);
    }
}
