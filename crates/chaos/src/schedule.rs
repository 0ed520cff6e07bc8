//! Deterministic fault schedules: the bridge from the model checker to
//! the real machines.
//!
//! A [`FaultPlan`](crate::FaultPlan) normally draws its decisions from a
//! seeded PRNG — good for soaking, useless for *replaying a specific
//! interleaving class*. A [`ScheduleScript`] is the alternative driver:
//! an explicit per-broadcast list of fault bundles (arbitration denials,
//! interconnect delay, duplication, arbiter crashes), consumed in commit
//! order. The `bulk-mc` model checker serializes every interleaving class
//! it explores as one of these scripts, and the conformance tests drive
//! the TM and TLS machines through each class, asserting the machines'
//! committed order and dedup behaviour match the model's.
//!
//! A scripted plan injects *nothing* the script does not name: no bit
//! flips, no forced context switches, no evictions — the schedule is the
//! whole fault universe, so a run is a pure function of (workload, scheme,
//! script).

use crate::fault::{ChaosConfig, FaultPlan};

/// The faults injected into one commit broadcast, in the order the
/// machines consult them: arbitration denials first, then interconnect
/// delay and duplication, then arbiter crashes mid-broadcast.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BroadcastSchedule {
    /// Consecutive arbitration denials before the grant (each costs the
    /// scripted backoff base, doubling per retry).
    pub denials: u32,
    /// Interconnect delay added to the broadcast, in cycles.
    pub delay: u64,
    /// Whether the broadcast is delivered a second time by the
    /// interconnect (chaos duplication).
    pub duplicate: bool,
    /// Arbiter crashes during this broadcast. The first crash hits the
    /// original transmission; each further crash hits the *replay* of the
    /// previous epoch (crash-during-replay). Every crash forces an epoch
    /// re-election and one more replay round.
    pub crashes: u32,
}

impl BroadcastSchedule {
    /// A broadcast with no faults at all.
    pub const QUIET: BroadcastSchedule =
        BroadcastSchedule { denials: 0, delay: 0, duplicate: false, crashes: 0 };

    /// Delivery rounds a liveness-armed machine performs for this
    /// broadcast: the original, plus one per duplication, plus one replay
    /// per crash. Receivers apply the first and drop the rest, so the
    /// expected dedup-drop count is `rounds() - 1`.
    pub fn rounds(&self) -> u64 {
        1 + u64::from(self.duplicate) + u64::from(self.crashes)
    }
}

/// A deterministic fault schedule: one [`BroadcastSchedule`] per commit
/// broadcast, consumed in the order the machine's commits reach the
/// arbiter. Broadcasts past the end of the script are fault-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleScript {
    /// Human-readable class label (e.g. `"crash@0x2+dup@1"`), carried into
    /// failure messages so a conformance mismatch names its class.
    pub name: String,
    /// Per-broadcast fault bundles, indexed by commit order.
    pub broadcasts: Vec<BroadcastSchedule>,
}

impl ScheduleScript {
    /// A script with no faults (the quiescent class).
    pub fn quiet(name: impl Into<String>) -> Self {
        ScheduleScript { name: name.into(), broadcasts: Vec::new() }
    }

    /// Total arbiter crashes the script injects.
    pub fn total_crashes(&self) -> u64 {
        self.broadcasts.iter().map(|b| u64::from(b.crashes)).sum()
    }

    /// Total duplicated deliveries the script injects.
    pub fn total_duplicates(&self) -> u64 {
        self.broadcasts.iter().filter(|b| b.duplicate).count() as u64
    }

    /// Expected receiver-side dedup drops for a liveness-armed run that
    /// performs at least `self.broadcasts.len()` commits: every delivery
    /// round after a broadcast's first is dropped.
    pub fn expected_dedup_drops(&self) -> u64 {
        self.broadcasts.iter().map(|b| b.rounds() - 1).sum()
    }

    /// A compact stable label for the script's fault pattern, used as the
    /// default `name`: `-` for a quiet broadcast, `[cNdD]` otherwise
    /// (crash count, duplicate flag, denials, delay).
    pub fn pattern_label(broadcasts: &[BroadcastSchedule]) -> String {
        let mut s = String::new();
        for (i, b) in broadcasts.iter().enumerate() {
            if i > 0 {
                s.push('.');
            }
            if *b == BroadcastSchedule::QUIET {
                s.push('-');
            } else {
                s.push_str(&format!("c{}", b.crashes));
                if b.duplicate {
                    s.push_str("+dup");
                }
                if b.denials > 0 {
                    s.push_str(&format!("+deny{}", b.denials));
                }
                if b.delay > 0 {
                    s.push_str(&format!("+delay{}", b.delay));
                }
            }
        }
        if s.is_empty() {
            s.push_str("quiet");
        }
        s
    }

    /// Builds a script from a fault pattern, labelling it with
    /// [`ScheduleScript::pattern_label`].
    pub fn from_pattern(broadcasts: Vec<BroadcastSchedule>) -> Self {
        let name = ScheduleScript::pattern_label(&broadcasts);
        ScheduleScript { name, broadcasts }
    }

    /// Arms a [`FaultPlan`] that injects exactly this schedule and nothing
    /// else. The plan reports `seed() == 0`; a scripted run's identity is
    /// the script, not a seed.
    pub fn into_plan(self) -> FaultPlan {
        FaultPlan::scripted(self)
    }
}

/// Cursor state of a scripted [`FaultPlan`]: which broadcast is current
/// and how much of its fault bundle remains unconsumed.
#[derive(Debug, Clone)]
pub(crate) struct ScriptState {
    script: ScheduleScript,
    /// Index of the broadcast currently being served; `usize::MAX` before
    /// the first `deny_commit(0)`.
    cursor: usize,
    crashes_left: u32,
    duplicate_left: bool,
    delay_left: u64,
    denials: u32,
}

impl ScriptState {
    pub(crate) fn new(script: ScheduleScript) -> Self {
        ScriptState {
            script,
            cursor: usize::MAX,
            crashes_left: 0,
            duplicate_left: false,
            delay_left: 0,
            denials: 0,
        }
    }

    pub(crate) fn script(&self) -> &ScheduleScript {
        &self.script
    }

    /// Advances to the next broadcast's fault bundle. Called at the first
    /// arbitration attempt of each commit (the first hook every machine
    /// consults per broadcast).
    pub(crate) fn begin_broadcast(&mut self) {
        self.cursor = self.cursor.wrapping_add(1);
        let b = self
            .script
            .broadcasts
            .get(self.cursor)
            .copied()
            .unwrap_or(BroadcastSchedule::QUIET);
        self.crashes_left = b.crashes;
        self.duplicate_left = b.duplicate;
        self.delay_left = b.delay;
        self.denials = b.denials;
    }

    pub(crate) fn deny(&mut self, attempt: u32) -> bool {
        attempt < self.denials
    }

    pub(crate) fn take_delay(&mut self) -> u64 {
        std::mem::take(&mut self.delay_left)
    }

    pub(crate) fn take_duplicate(&mut self) -> bool {
        std::mem::take(&mut self.duplicate_left)
    }

    pub(crate) fn take_crash(&mut self) -> bool {
        if self.crashes_left > 0 {
            self.crashes_left -= 1;
            true
        } else {
            false
        }
    }
}

/// The [`ChaosConfig`] a scripted plan runs under: every probabilistic
/// fault is off, backoff costs are fixed and small, and the
/// crash-per-broadcast bound is wide enough for any scripted class.
pub(crate) fn scripted_config() -> ChaosConfig {
    ChaosConfig {
        seed: 0,
        denial_prob: 0.0,
        max_denials: u32::MAX,
        backoff_base: 16,
        backoff_cap: 256,
        delay_prob: 0.0,
        delay_max: 0,
        dup_prob: 0.0,
        flip_prob: 0.0,
        ctx_switch_prob: 0.0,
        ctx_switch_cycles: 60,
        evict_prob: 0.0,
        retransmit_cycles: 80,
        arbiter_crash_prob: 0.0,
        reelect_cycles: 120,
        max_crashes_per_broadcast: u32::MAX,
        worker_kill_prob: 0.0,
        max_worker_kills: 0,
        thread_stall_prob: 0.0,
        thread_stall_ns: 0,
        publish_delay_prob: 0.0,
        publish_delay_ns: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crashy() -> ScheduleScript {
        ScheduleScript::from_pattern(vec![
            BroadcastSchedule { crashes: 2, duplicate: false, denials: 1, delay: 5 },
            BroadcastSchedule::QUIET,
            BroadcastSchedule { crashes: 0, duplicate: true, denials: 0, delay: 0 },
        ])
    }

    #[test]
    fn pattern_label_is_stable_and_readable() {
        let s = crashy();
        assert_eq!(s.name, "c2+deny1+delay5.-.c0+dup");
        assert_eq!(ScheduleScript::pattern_label(&[]), "quiet");
    }

    #[test]
    fn totals_and_expected_drops() {
        let s = crashy();
        assert_eq!(s.total_crashes(), 2);
        assert_eq!(s.total_duplicates(), 1);
        // Broadcast 0 has 2 replays (drops), broadcast 2 one duplicate.
        assert_eq!(s.expected_dedup_drops(), 3);
    }

    #[test]
    fn scripted_plan_replays_the_bundle_in_machine_hook_order() {
        let mut plan = crashy().into_plan();
        // Broadcast 0: one denial, 5-cycle delay, no dup, two crashes.
        assert!(plan.deny_commit(0).is_some());
        assert_eq!(plan.deny_commit(1), None);
        assert_eq!(plan.broadcast_delay(), 5);
        assert!(!plan.duplicate_broadcast());
        assert!(plan.arbiter_crash());
        assert!(plan.arbiter_crash());
        assert!(!plan.arbiter_crash());
        // Broadcast 1: quiet.
        assert_eq!(plan.deny_commit(0), None);
        assert_eq!(plan.broadcast_delay(), 0);
        assert!(!plan.duplicate_broadcast());
        assert!(!plan.arbiter_crash());
        // Broadcast 2: duplicate only.
        assert_eq!(plan.deny_commit(0), None);
        assert_eq!(plan.broadcast_delay(), 0);
        assert!(plan.duplicate_broadcast());
        assert!(!plan.arbiter_crash());
        // Broadcasts past the script are fault-free.
        assert_eq!(plan.deny_commit(0), None);
        assert!(!plan.arbiter_crash());
        let stats = plan.take_stats();
        assert_eq!(stats.denials, 1);
        assert_eq!(stats.broadcast_delays, 1);
        assert_eq!(stats.duplicated_broadcasts, 1);
        assert_eq!(stats.arbiter_crashes, 2);
    }

    #[test]
    fn scripted_plans_never_inject_unscripted_faults() {
        let mut plan = ScheduleScript::quiet("q").into_plan();
        for attempt in 0..4 {
            assert_eq!(plan.deny_commit(attempt), None);
        }
        for _ in 0..100 {
            assert!(!plan.force_context_switch());
            assert!(!plan.force_eviction());
            assert!(!plan.duplicate_broadcast());
            assert_eq!(plan.broadcast_delay(), 0);
        }
        assert_eq!(plan.pick(7), 0);
        assert_eq!(plan.stats().total_injected(), 0);
    }
}
