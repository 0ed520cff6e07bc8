//! The deterministic fault injector.

use bulk_core::CommitMsg;
use bulk_rng::{Rng, SeedableRng, SmallRng};

/// Fault probabilities and magnitudes for one chaos run. All decisions
/// derive from `seed`; two plans built from the same config replay the
/// same fault sequence against the same machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// The replay seed (what `BULK_CHAOS_SEED` prints).
    pub seed: u64,
    /// Per-attempt probability that commit arbitration is denied.
    pub denial_prob: f64,
    /// Hard bound on consecutive denials of one commit: the backoff is
    /// *bounded* and the arbiter must eventually grant, so commit always
    /// makes progress.
    pub max_denials: u32,
    /// Backoff after the first denial, in cycles; doubles per retry.
    pub backoff_base: u64,
    /// Cap on a single backoff wait.
    pub backoff_cap: u64,
    /// Probability a commit broadcast is delayed in the interconnect.
    pub delay_prob: f64,
    /// Maximum broadcast delay, in cycles.
    pub delay_max: u64,
    /// Probability a commit broadcast is delivered twice.
    pub dup_prob: f64,
    /// Probability one bit of a signature-carrying broadcast is flipped
    /// in flight.
    pub flip_prob: f64,
    /// Per-operation probability of a forced context switch (the OS
    /// preempts the processor; signatures spill and reload, §6.2.2).
    pub ctx_switch_prob: f64,
    /// Cycles a forced context switch costs.
    pub ctx_switch_cycles: u64,
    /// Per-operation probability of a forced cache eviction (capacity
    /// pressure; speculative dirty victims exercise the overflow path).
    pub evict_prob: f64,
    /// Cycles a detected-corruption retransmission costs.
    pub retransmit_cycles: u64,
    /// Per-broadcast probability that the commit arbiter crashes
    /// mid-broadcast (after the bus grant, before every receiver has
    /// acknowledged). Recovery — a re-election that holds the bus while
    /// the broadcast drains — is the sim broadcast stage's job, and it
    /// consults this fault only with a liveness engine armed, so the
    /// default chaos mix is unchanged. The plan's
    /// [`FaultStats::arbiter_crashes`] is the one count of crashes (and so
    /// of re-elections). Zero by default.
    pub arbiter_crash_prob: f64,
    /// Hard bound on arbiter crashes within one broadcast (each further
    /// crash hits the re-election of the one before). The machines stop
    /// consulting [`FaultPlan::arbiter_crash`] once a broadcast has
    /// absorbed this many, so recovery always terminates.
    pub max_crashes_per_broadcast: u32,
    /// Per-event probability that a real-thread worker is killed at a
    /// commit-protocol point: after each won slot claim and each applied
    /// record (see [`CrashPoint`](crate::CrashPoint)). Consulted only by the
    /// parallel runtime's [`ThreadChaos`](crate::ThreadChaos); the sim
    /// machines never read it. Zero by default.
    pub worker_kill_prob: f64,
    /// Hard budget on probabilistic worker kills per run (explicit
    /// [`KillSpec`](crate::KillSpec) schedules are not budgeted), so
    /// respawn recovery always terminates.
    pub max_worker_kills: u32,
    /// Per-poll probability a real-thread worker stalls (sleeps) instead
    /// of making progress — a descheduled peer the wall-clock watchdog
    /// must tolerate below its bound. Zero by default.
    pub thread_stall_prob: f64,
    /// Length of one injected thread stall, in wall-clock nanoseconds.
    pub thread_stall_ns: u64,
    /// Per-publish probability the claim-to-publish window is widened by
    /// a delay — every reader spins through exactly the window a worker
    /// death orphans. Zero by default.
    pub publish_delay_prob: f64,
    /// Length of one injected publish delay, in wall-clock nanoseconds.
    pub publish_delay_ns: u64,
}

impl ChaosConfig {
    /// The default fault mix for `seed` — lively enough to exercise every
    /// hook on small workloads, bounded enough to terminate quickly.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            denial_prob: 0.20,
            max_denials: 4,
            backoff_base: 16,
            backoff_cap: 256,
            delay_prob: 0.15,
            delay_max: 40,
            dup_prob: 0.10,
            flip_prob: 0.25,
            ctx_switch_prob: 0.01,
            ctx_switch_cycles: 60,
            evict_prob: 0.03,
            retransmit_cycles: 80,
            arbiter_crash_prob: 0.0,
            max_crashes_per_broadcast: 4,
            worker_kill_prob: 0.0,
            max_worker_kills: 0,
            thread_stall_prob: 0.0,
            thread_stall_ns: 0,
            publish_delay_prob: 0.0,
            publish_delay_ns: 0,
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

    /// Real-thread worker faults for the parallel runtime: seeded worker
    /// kills at commit-protocol points (bounded by `max_worker_kills`),
    /// short injected stalls, and widened claim-to-publish windows. The
    /// sim-facing probabilities stay at their defaults but are never
    /// consulted by the parallel runtime; what this preset arms is the
    /// [`ThreadChaos`](crate::ThreadChaos) stream (`--chaos` under
    /// `--runtime par`). Stalls are kept far below the runtime's
    /// wall-clock watchdog bound so a chaos run is slow, not stalled.
    pub fn worker_crash(seed: u64) -> Self {
        ChaosConfig {
            worker_kill_prob: 0.02,
            max_worker_kills: 3,
            thread_stall_prob: 0.01,
            thread_stall_ns: 200_000,
            publish_delay_prob: 0.05,
            publish_delay_ns: 50_000,
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

/// A seeded stream of fault decisions, consulted by the machines at their
/// protocol hook points. The machines query it in deterministic
/// (clock-ordered) execution order, so a run is a pure function of
/// (workload, scheme, config, chaos seed).
pub struct FaultPlan {
    cfg: ChaosConfig,
    rng: SmallRng,
    stats: FaultStats,
    script: Option<crate::schedule::ScriptState>,
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

    /// A plan that injects exactly `script` and nothing else: every
    /// probabilistic fault is disabled and each hook answers from the
    /// script's per-broadcast bundles, consumed in commit order. This is
    /// how the `bulk-mc` conformance layer replays a model-checked
    /// interleaving class onto a real machine.
    pub fn scripted(script: crate::schedule::ScheduleScript) -> Self {
        let cfg = crate::schedule::scripted_config();
        let rng = SmallRng::seed_from_u64(0);
        FaultPlan {
            cfg,
            rng,
            stats: FaultStats::default(),
            script: Some(crate::schedule::ScriptState::new(script)),
        }
    }

    /// The schedule driving this plan, if it is scripted.
    pub fn script(&self) -> Option<&crate::schedule::ScheduleScript> {
        self.script.as_ref().map(|s| s.script())
    }

    /// The replay seed.
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// The fault mix in force.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Consulted once per commit-arbitration attempt. `Some(backoff)`
    /// means the arbiter denied this attempt and the committer must wait
    /// `backoff` cycles before retrying; `None` means the grant went
    /// through. Denials are bounded: attempt `max_denials` is always
    /// granted, so arbitration cannot livelock.
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
        } else if attempt >= self.cfg.max_denials
            || self.rng.random::<f64>() >= self.cfg.denial_prob
        {
            return None;
        }
        let backoff = self
            .cfg
            .backoff_base
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.cfg.backoff_cap)
            .max(1);
        self.stats.denials += 1;
        self.stats.backoff_cycles += backoff;
        Some(backoff)
    }

    /// Cycles of interconnect delay to add to the current commit
    /// broadcast (0 = delivered on time).
    pub fn broadcast_delay(&mut self) -> u64 {
        let d = if let Some(script) = &mut self.script {
            script.take_delay()
        } else if self.rng.random::<f64>() >= self.cfg.delay_prob || self.cfg.delay_max == 0 {
            0
        } else {
            self.rng.random_range(1..self.cfg.delay_max + 1)
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
        if self.script.is_some()
            || !msg.carries_signatures()
            || self.rng.random::<f64>() >= self.cfg.flip_prob
        {
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
        if self.script.is_some() {
            return false;
        }
        let hit = self.rng.random::<f64>() < self.cfg.ctx_switch_prob;
        if hit {
            self.stats.forced_context_switches += 1;
        }
        hit
    }

    /// Consulted once per executed operation: evict a resident line now?
    pub fn force_eviction(&mut self) -> bool {
        if self.script.is_some() {
            return false;
        }
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
        if self.script.is_some() {
            return 0;
        }
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
        let max = plan.config().max_denials;
        for _ in 0..200 {
            // However unlucky the stream, attempt `max` is always granted.
            assert_eq!(plan.deny_commit(max), None);
        }
    }

    #[test]
    fn backoff_grows_and_saturates() {
        let mut cfg = ChaosConfig::new(1);
        cfg.denial_prob = 1.0; // deny every attempt up to the bound
        let mut plan = FaultPlan::new(cfg.clone());
        let waits: Vec<u64> =
            (0..cfg.max_denials).map(|a| plan.deny_commit(a).expect("denied")).collect();
        assert!(waits.windows(2).all(|w| w[0] <= w[1]), "non-decreasing: {waits:?}");
        assert_eq!(*waits.last().unwrap(), cfg.backoff_cap.min(cfg.backoff_base << 3));
        assert_eq!(plan.stats().denials, u64::from(cfg.max_denials));
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
