//! The deterministic fault injector.

use bulk_core::CommitMsg;
use bulk_rng::{Rng, SeedableRng, SmallRng};

use crate::schedule::{ScheduleScript, ScriptState};

/// Consecutive denials of one commit before the arbiter must grant: the
/// backoff is *bounded*, so commit always makes progress.
const MAX_DENIALS: u32 = 4;
/// Backoff after the first denial, in cycles; doubles per retry.
const BACKOFF_BASE: u64 = 16;
/// Cap on a single backoff wait, in cycles.
const BACKOFF_CAP: u64 = 256;
/// Longest injected broadcast delay, in cycles.
const DELAY_MAX: u64 = 40;
/// Arbiter crashes one broadcast of a seeded plan absorbs.
const MAX_CRASHES: u32 = 4;

/// The sim's fault mix: one probability per fault kind. All decisions
/// derive from `seed`; two plans built from the same config replay the
/// same fault sequence against the same machine. What a fault costs is
/// fixed (the backoff and delay bounds here, the context-switch,
/// retransmission and re-election cycles in the sim harness); a mix only
/// says how often each fault fires. The default is the zero mix, under
/// which no fault fires. The parallel runtime's worker
/// faults are a [`ThreadChaosConfig`](crate::ThreadChaosConfig).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosConfig {
    /// The replay seed (what `BULK_CHAOS_SEED` prints).
    pub seed: u64,
    /// Per-attempt probability that commit arbitration is denied.
    pub denial_prob: f64,
    /// Probability a commit broadcast is delayed in the interconnect.
    pub delay_prob: f64,
    /// Probability a commit broadcast is delivered twice.
    pub dup_prob: f64,
    /// Probability one bit of a signature-carrying broadcast is flipped
    /// in flight.
    pub flip_prob: f64,
    /// Per-operation probability of a forced context switch (the OS
    /// preempts the processor; signatures spill and reload, §6.2.2).
    pub ctx_switch_prob: f64,
    /// Per-operation probability of a forced cache eviction (capacity
    /// pressure; speculative dirty victims exercise the overflow path).
    pub evict_prob: f64,
    /// Per-broadcast probability that the commit arbiter crashes
    /// mid-broadcast (after the bus grant, before every receiver has
    /// acknowledged). Recovery — a re-election that holds the bus while
    /// the broadcast drains — is the sim broadcast stage's job, and it
    /// consults this fault only with a liveness engine armed, so the
    /// default chaos mix is unchanged. The plan's
    /// [`FaultStats::arbiter_crashes`] is the one count of crashes (and so
    /// of re-elections). Zero by default.
    pub arbiter_crash_prob: f64,
}

impl ChaosConfig {
    /// The default fault mix for `seed` — lively enough to exercise every
    /// hook on small workloads, bounded enough to terminate quickly.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            denial_prob: 0.20,
            delay_prob: 0.15,
            dup_prob: 0.10,
            flip_prob: 0.25,
            ctx_switch_prob: 0.01,
            evict_prob: 0.03,
            arbiter_crash_prob: 0.0,
        }
    }

    /// The default mix plus arbiter crashes: every broadcast has a real
    /// chance of losing the arbiter mid-flight, forcing a re-election that
    /// holds the bus. Requires a liveness engine
    /// on the machine; used by the liveness soak and the CI soak job.
    pub fn arbiter_crash(seed: u64) -> Self {
        ChaosConfig {
            arbiter_crash_prob: 0.25,
            ..ChaosConfig::new(seed)
        }
    }

    /// A squash-storm-leaning mix: aggressive corruption and duplication
    /// with calm arbitration, to drive the aliasing-squash rate up and
    /// exercise the liveness engine's storm throttle.
    pub fn storm(seed: u64) -> Self {
        ChaosConfig {
            denial_prob: 0.05,
            dup_prob: 0.30,
            flip_prob: 0.50,
            ..ChaosConfig::new(seed)
        }
    }
}

/// Counters of what a [`FaultPlan`] injected and what the machines
/// reported back about detection. Folded into `TmStats`/`TlsStats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Commit-arbitration denials injected.
    pub denials: u64,
    /// Total cycles spent in arbitration backoff.
    pub backoff_cycles: u64,
    /// Commit broadcasts delayed.
    pub broadcast_delays: u64,
    /// Total cycles of injected broadcast delay.
    pub delay_cycles: u64,
    /// Commit broadcasts delivered twice.
    pub duplicated_broadcasts: u64,
    /// Signature bits flipped in flight.
    pub corruptions_injected: u64,
    /// Corruptions the receivers' CRC check caught (must equal
    /// `corruptions_injected` — single-bit faults are always detectable).
    pub corruptions_detected: u64,
    /// Corruptions that slipped past the CRC (always an invariant
    /// violation; must stay zero).
    pub silent_corruptions: u64,
    /// Context switches forced onto running speculative threads.
    pub forced_context_switches: u64,
    /// Cache evictions forced by injected capacity pressure.
    pub forced_evictions: u64,
    /// Arbiter crashes injected mid-broadcast.
    pub arbiter_crashes: u64,
}

impl FaultStats {
    /// Accumulates another run's counters (for sweep aggregation).
    pub fn merge(&mut self, other: &FaultStats) {
        self.denials += other.denials;
        self.backoff_cycles += other.backoff_cycles;
        self.broadcast_delays += other.broadcast_delays;
        self.delay_cycles += other.delay_cycles;
        self.duplicated_broadcasts += other.duplicated_broadcasts;
        self.corruptions_injected += other.corruptions_injected;
        self.corruptions_detected += other.corruptions_detected;
        self.silent_corruptions += other.silent_corruptions;
        self.forced_context_switches += other.forced_context_switches;
        self.forced_evictions += other.forced_evictions;
        self.arbiter_crashes += other.arbiter_crashes;
    }

    /// Total faults injected, across all kinds.
    pub fn total_injected(&self) -> u64 {
        self.denials
            + self.broadcast_delays
            + self.duplicated_broadcasts
            + self.corruptions_injected
            + self.forced_context_switches
            + self.forced_evictions
            + self.arbiter_crashes
    }
}

/// A stream of fault decisions, consulted by the machines at their
/// protocol hook points. The machines query it in deterministic
/// (clock-ordered) execution order, so a run is a pure function of
/// (workload, scheme, config, chaos seed) — or, for a scripted plan, of
/// (workload, scheme, script).
pub struct FaultPlan {
    cfg: ChaosConfig,
    rng: SmallRng,
    stats: FaultStats,
    script: Option<ScriptState>,
}

impl FaultPlan {
    /// A plan drawing its decisions from `cfg.seed`.
    pub fn new(cfg: ChaosConfig) -> Self {
        let rng = SmallRng::seed_from_u64(cfg.seed ^ 0xC4A0_5Fau64);
        FaultPlan { cfg, rng, stats: FaultStats::default(), script: None }
    }

    /// A plan with the default fault mix for `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan::new(ChaosConfig::new(seed))
    }

    /// A plan that injects exactly `script` and nothing else: the zero
    /// mix, so no probabilistic fault fires, plus the script's
    /// per-broadcast bundles, which answer the denial, delay,
    /// duplication and arbiter-crash hooks in commit order. This is how
    /// the `bulk-mc` conformance layer replays a model-checked
    /// interleaving class onto a real machine. The plan reports
    /// `seed() == 0`; a scripted run's identity is the script.
    pub fn scripted(script: ScheduleScript) -> Self {
        FaultPlan { script: Some(ScriptState::new(script)), ..FaultPlan::new(ChaosConfig::default()) }
    }

    /// The replay seed.
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// The most arbiter crashes one broadcast absorbs (each further crash
    /// hits the re-election of the one before), so recovery always
    /// terminates: 4 on a seeded plan; a scripted plan crashes exactly as
    /// often as its script says.
    pub fn max_crashes(&self) -> u32 {
        if self.script.is_some() {
            u32::MAX
        } else {
            MAX_CRASHES
        }
    }

    /// Consulted once per commit-arbitration attempt. `Some(backoff)`
    /// means the arbiter denied this attempt and the committer must wait
    /// `backoff` cycles before retrying; `None` means the grant went
    /// through. Denials are bounded: on a seeded plan attempt
    /// `MAX_DENIALS` is always granted, so arbitration cannot livelock.
    pub fn deny_commit(&mut self, attempt: u32) -> Option<u64> {
        if let Some(script) = &mut self.script {
            // The first arbitration attempt is the first hook a machine
            // consults for a broadcast: advance the script's cursor here.
            if attempt == 0 {
                script.begin_broadcast();
            }
            if !script.deny(attempt) {
                return None;
            }
        } else if attempt >= MAX_DENIALS || self.rng.random::<f64>() >= self.cfg.denial_prob {
            return None;
        }
        let backoff = (BACKOFF_BASE << attempt.min(16)).min(BACKOFF_CAP);
        self.stats.denials += 1;
        self.stats.backoff_cycles += backoff;
        Some(backoff)
    }

    /// Cycles of interconnect delay to add to the current commit
    /// broadcast (0 = delivered on time).
    pub fn broadcast_delay(&mut self) -> u64 {
        let d = if let Some(script) = &mut self.script {
            script.take_delay()
        } else if self.rng.random::<f64>() >= self.cfg.delay_prob {
            0
        } else {
            self.rng.random_range(1..DELAY_MAX + 1)
        };
        if d > 0 {
            self.stats.broadcast_delays += 1;
            self.stats.delay_cycles += d;
        }
        d
    }

    /// Whether the current commit broadcast is delivered a second time
    /// (receivers must tolerate the duplicate — the protocol is
    /// idempotent for already-squashed and committed receivers).
    pub fn duplicate_broadcast(&mut self) -> bool {
        let dup = if let Some(script) = &mut self.script {
            script.take_duplicate()
        } else {
            self.rng.random::<f64>() < self.cfg.dup_prob
        };
        if dup {
            self.stats.duplicated_broadcasts += 1;
        }
        dup
    }

    /// Possibly flips one in-flight bit of a signature-carrying commit
    /// message. Returns `true` if a corruption was injected.
    pub fn maybe_corrupt(&mut self, msg: &mut CommitMsg) -> bool {
        if !msg.carries_signatures() || self.rng.random::<f64>() >= self.cfg.flip_prob {
            return false;
        }
        let bit = self.rng.random::<u64>();
        let injected = msg.corrupt_bit(bit);
        if injected {
            self.stats.corruptions_injected += 1;
        }
        injected
    }

    /// Machine feedback after a broadcast delivery: did the CRC catch an
    /// injected corruption, or did one slip through silently?
    pub fn note_delivery(&mut self, corruption_detected: bool, silent_corruption: bool) {
        if corruption_detected {
            self.stats.corruptions_detected += 1;
        }
        if silent_corruption {
            self.stats.silent_corruptions += 1;
        }
    }

    /// Consulted once per commit broadcast *when a liveness engine is
    /// armed*: does the arbiter crash mid-broadcast? Machines without a
    /// liveness engine must not call this (they could not recover), which
    /// also keeps the fault stream of engine-less runs unchanged.
    pub fn arbiter_crash(&mut self) -> bool {
        let hit = if let Some(script) = &mut self.script {
            script.take_crash()
        } else if self.cfg.arbiter_crash_prob <= 0.0 {
            return false;
        } else {
            self.rng.random::<f64>() < self.cfg.arbiter_crash_prob
        };
        if hit {
            self.stats.arbiter_crashes += 1;
        }
        hit
    }

    /// Consulted once per executed operation: force a context switch on
    /// this processor now?
    pub fn force_context_switch(&mut self) -> bool {
        let hit = self.rng.random::<f64>() < self.cfg.ctx_switch_prob;
        if hit {
            self.stats.forced_context_switches += 1;
        }
        hit
    }

    /// Consulted once per executed operation: evict a resident line now?
    pub fn force_eviction(&mut self) -> bool {
        let hit = self.rng.random::<f64>() < self.cfg.evict_prob;
        if hit {
            self.stats.forced_evictions += 1;
        }
        hit
    }

    /// A deterministic index in `[0, n)` — victim selection for forced
    /// evictions (callers must present candidates in a deterministic
    /// order).
    pub fn pick(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        self.rng.random_range(0..n)
    }

    /// The counters so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Drains the counters (for folding into machine stats at run end).
    pub fn take_stats(&mut self) -> FaultStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulk_mem::Addr;
    use bulk_sig::{Signature, SignatureConfig};

    fn drain(plan: &mut FaultPlan, ops: usize) -> FaultStats {
        for attempt in 0..3u32 {
            let _ = plan.deny_commit(attempt);
        }
        for _ in 0..ops {
            let _ = plan.broadcast_delay();
            let _ = plan.duplicate_broadcast();
            let _ = plan.force_context_switch();
            let _ = plan.force_eviction();
        }
        plan.take_stats()
    }

    #[test]
    fn same_seed_replays_identical_decisions() {
        let a = drain(&mut FaultPlan::seeded(7), 500);
        let b = drain(&mut FaultPlan::seeded(7), 500);
        assert_eq!(a, b);
        let c = drain(&mut FaultPlan::seeded(8), 500);
        assert_ne!(a, c, "different seeds should draw different fault mixes");
    }

    #[test]
    fn denials_are_bounded_by_max_attempts() {
        let mut plan = FaultPlan::seeded(3);
        for _ in 0..200 {
            // However unlucky the stream, attempt `MAX_DENIALS` is always
            // granted.
            assert_eq!(plan.deny_commit(MAX_DENIALS), None);
        }
    }

    #[test]
    fn backoff_grows_and_saturates() {
        let mut cfg = ChaosConfig::new(1);
        cfg.denial_prob = 1.0; // deny every attempt up to the bound
        let mut plan = FaultPlan::new(cfg);
        let waits: Vec<u64> =
            (0..MAX_DENIALS).map(|a| plan.deny_commit(a).expect("denied")).collect();
        assert!(waits.windows(2).all(|w| w[0] <= w[1]), "non-decreasing: {waits:?}");
        assert_eq!(*waits.last().unwrap(), BACKOFF_CAP.min(BACKOFF_BASE << 3));
        assert_eq!(plan.stats().denials, u64::from(MAX_DENIALS));
    }

    #[test]
    fn corruption_only_applies_to_signature_payloads() {
        let mut cfg = ChaosConfig::new(5);
        cfg.flip_prob = 1.0;
        let mut plan = FaultPlan::new(cfg);
        let mut addr_list = CommitMsg::AddressList;
        assert!(!plan.maybe_corrupt(&mut addr_list));
        assert_eq!(plan.stats().corruptions_injected, 0);

        let mut sig = Signature::with_shared(SignatureConfig::s14_tm().into_shared());
        sig.insert_addr(Addr::new(0x40));
        let mut msg = CommitMsg::signatures(sig);
        assert!(plan.maybe_corrupt(&mut msg));
        let d = msg.deliver().unwrap();
        assert!(d.corruption_detected && !d.silent_corruption);
        plan.note_delivery(d.corruption_detected, d.silent_corruption);
        let stats = plan.stats();
        assert_eq!((stats.corruptions_injected, stats.corruptions_detected), (1, 1));
        assert_eq!(stats.silent_corruptions, 0);
    }

    #[test]
    fn arbiter_crashes_only_when_configured() {
        // The default mix never crashes the arbiter — and, crucially,
        // consulting the fault must not consume randomness, so arming a
        // liveness engine under the default mix leaves the fault stream
        // of every other hook unchanged.
        let mut consulted = FaultPlan::seeded(4);
        let mut untouched = FaultPlan::seeded(4);
        for _ in 0..50 {
            assert!(!consulted.arbiter_crash());
        }
        let a = drain(&mut consulted, 200);
        let b = drain(&mut untouched, 200);
        assert_eq!(a, b);

        let mut plan = FaultPlan::new(ChaosConfig::arbiter_crash(4));
        let crashes = (0..100).filter(|_| plan.arbiter_crash()).count() as u64;
        assert!(crashes > 0, "arbiter-crash profile should crash sometimes");
        assert_eq!(plan.stats().arbiter_crashes, crashes);
        assert_eq!(plan.take_stats().total_injected(), crashes);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = drain(&mut FaultPlan::seeded(11), 300);
        let b = drain(&mut FaultPlan::seeded(12), 300);
        let total = a.total_injected() + b.total_injected();
        a.merge(&b);
        assert_eq!(a.total_injected(), total);
        assert!(total > 0, "default mix should inject something in 300 ops");
    }
}
