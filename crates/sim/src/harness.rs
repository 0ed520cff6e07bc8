//! The machine-independent half of a sim machine: the commit bus and the
//! cross-cutting instruments (chaos, auditor, observability, liveness),
//! with the one copy of every pipeline stage the TM and TLS machines
//! share — most of all the [`SimHarness::broadcast`] stage (DESIGN.md
//! §16). A machine keeps what differs: payload construction, who the
//! receivers are, line vs word disambiguation, cleanup.

use std::sync::Arc;

use bulk_chaos::{Auditor, FaultPlan, FaultStats, InvariantKind, InvariantViolation};
use bulk_core::{flows, Bdm, CommitApplication, CommitMsg, DeliveredSignatures};
use bulk_live::{LiveStats, LivenessConfig, LivenessEngine, LivenessViolation};
use bulk_mem::{AddrSet, BandwidthStats, Cache, LineAddr};
use bulk_obs::{Obs, RuntimeObs, SpanId, SpanKind, SpanOutcome, Verdict};
use bulk_sig::{SetBitmask, Signature};

use crate::{Bus, CoreTimer, SimConfig};

/// Bus cycles one commit-arbiter re-election holds (lease timeout plus
/// election round) before the crashed broadcast's bus occupancy ends.
const REELECT_CYCLES: u64 = 120;

/// Cycles a chaos-forced context switch charges the preempted core.
const CTX_SWITCH_CYCLES: u64 = 60;

/// Bus cycles the retransmission of a broadcast whose CRC check failed
/// holds.
const RETRANSMIT_CYCLES: u64 = 80;

/// One commit asking for the bus: the input of [`SimHarness::broadcast`].
pub struct CommitRequest {
    /// Who commits (TM thread, TLS task), as events name it.
    pub committer: usize,
    /// The actor audit reports name (TM thread, TLS processor).
    pub actor: usize,
    /// Trace lane of the commit span (the TM thread; the TLS bus lane).
    pub lane: u32,
    /// Cycle at which the committer first asks for the bus.
    pub at: u64,
    /// Bytes the broadcast puts on the bus; `None` under an eager scheme,
    /// whose stores already propagated and whose commit only arbitrates.
    pub payload: Option<u64>,
    /// Size of the exact write set (lines or words), for the metrics.
    pub writes: u64,
    /// The message as the committer built it.
    pub msg: CommitMsg,
    /// Span of the section being committed; the commit span nests in it.
    pub section: SpanId,
}

/// What [`SimHarness::broadcast`] did with a [`CommitRequest`].
pub struct Broadcast {
    /// Cycle the bus is released: arbitration, denial backoff, payload,
    /// retransmission and re-elections all included.
    pub finish: u64,
    /// The signatures as the receivers got them (`None` for address lists).
    pub delivered: Option<DeliveredSignatures>,
    /// `δ(W_C)` of the delivered write signature: decoded once here, not
    /// once per receiver (the expansion FSM's input, Fig. 4).
    delta_w_c: Option<SetBitmask>,
    /// Deliveries every receiver applies, all inside this broadcast's one
    /// bus occupancy. It is 2 only for a chaos duplicate in a run with no
    /// liveness engine, and 1 otherwise: an armed engine's receivers apply
    /// a broadcast once (the cursor rule `crates/mc` model-checks). The
    /// second delivery is not a no-op: a TM receiver the first one
    /// squashed is out of its transaction, so the second invalidates the
    /// clean copies of `W_C`'s lines the squash left in its cache.
    pub rounds: u32,
    /// Arbitration denials the committer retried through.
    pub retries: u32,
}

impl Broadcast {
    /// The delivered `W_C` with its `δ(W_C)`, as [`SimHarness::bulk_apply`]
    /// takes them; `None` for address lists.
    pub fn w_c(&self) -> Option<(&Signature, &SetBitmask)> {
        Some((&self.delivered.as_ref()?.w, self.delta_w_c.as_ref()?))
    }
}

/// One squash or partial rollback, as [`SimHarness::squash_tail`] charges
/// and traces it.
pub struct SquashTail {
    /// Trace lane of the victim (the TM thread; the TLS task's processor).
    pub lane: usize,
    /// Cycle the squash reaches the victim.
    pub at: u64,
    /// What the squash span carries: the dependence size, or the section a
    /// partial rollback restarts from.
    pub arg: u64,
    /// The squashed attempt's section span and whether it ends where the
    /// squash begins (a TLS task awaiting commit ended its span when it
    /// finished). `None` for a partial rollback: the transaction is still
    /// live, only its tail sections re-execute.
    pub section: Option<(SpanId, bool)>,
    /// Who retries after a full squash; `None` for a partial rollback,
    /// which the liveness engine does not see.
    pub victim: Option<Victim>,
}

/// The contender a full squash sends back to retry.
pub struct Victim {
    /// The squasher (committing or storing contender), when there is one:
    /// the watchdog looks for ping-pong cycles between the two.
    pub by: Option<usize>,
    /// The squashed contender (TM thread, TLS task).
    pub id: usize,
    /// The exact oracle saw no conflict: only the signatures aliased.
    pub aliasing: bool,
    /// Rank among in-flight contenders by age (0 = oldest); the backoff
    /// policy makes older ones wait longer.
    pub age_rank: usize,
}

/// What a run leaves in the instruments, drained by [`SimHarness::drain`]
/// into the machine's stats.
pub struct RunTail {
    /// Faults the chaos plan injected.
    pub chaos: FaultStats,
    /// Invariant checks the auditor performed.
    pub audit_checks: u64,
    /// Invariant violations it found.
    pub violations: Vec<InvariantViolation>,
    /// Liveness-engine counters.
    pub liveness: LiveStats,
    /// Liveness violations (watchdog trips).
    pub liveness_violations: Vec<LivenessViolation>,
}

/// Bus plus instruments of one sim machine. The instruments are public:
/// the machines consult them on their own per-op paths.
pub struct SimHarness {
    /// Metric prefix of the machine (`"tm."` / `"tls."`).
    prefix: &'static str,
    scheme: String,
    /// Actors the auditor tracks (TM threads, TLS processors).
    actors: usize,
    /// Contenders the liveness engine tracks (TM threads, TLS tasks).
    contenders: usize,
    /// The serializing commit bus.
    pub bus: Bus,
    /// Deterministic fault injector, when armed.
    pub chaos: Option<FaultPlan>,
    /// Invariant auditor ([`Auditor::off`] until armed).
    pub auditor: Auditor,
    /// Observability handles, when attached.
    pub obs: Option<RuntimeObs>,
    /// Liveness engine (watchdog + backoff + context-switch count); arming
    /// it also arms commit-arbiter failover. `None` leaves a run
    /// bit-identical: no fault-stream draws, no timing change.
    pub live: Option<LivenessEngine>,
    /// Trace span of the commit broadcast (or individual invalidation)
    /// currently being delivered, so receiver-side squash and invalidate
    /// spans link back to it. [`SpanId::DROPPED`] outside a delivery.
    pub commit_cause: SpanId,
}

impl SimHarness {
    /// A harness with nothing armed.
    pub fn new(prefix: &'static str, scheme: String, actors: usize, contenders: usize) -> Self {
        SimHarness {
            prefix,
            scheme,
            actors,
            contenders,
            bus: Bus::new(),
            chaos: None,
            auditor: Auditor::off(),
            obs: None,
            live: None,
            commit_cause: SpanId::DROPPED,
        }
    }

    /// Attaches an observability bundle: protocol steps are mirrored into
    /// metrics under the machine's prefix and into the shared event log,
    /// and the counts [`SimHarness::drain`] publishes start at zero.
    pub fn attach_obs(&mut self, obs: Arc<Obs>) -> &RuntimeObs {
        let obs = self.obs.insert(RuntimeObs::attach(obs, self.prefix));
        publish_tail(obs, &FaultStats::default(), &LiveStats::default(), false);
        obs
    }

    /// Arms the chaos fault injector. The run then becomes a pure function
    /// of (workload, scheme, config, `plan.seed()`).
    pub fn set_chaos(&mut self, plan: FaultPlan) {
        self.chaos = Some(plan);
        if self.auditor.enabled() {
            self.rebuild_auditor(); // violations carry the plan's replay seed
        }
    }

    /// Arms the liveness engine. Call *after* [`SimHarness::set_chaos`] so
    /// the backoff jitter inherits the chaos seed: with `cfg.seed == 0` and
    /// chaos armed, the chaos seed is used.
    pub fn enable_liveness(&mut self, mut cfg: LivenessConfig) {
        let chaos_seed = self.chaos.as_ref().map(|p| p.seed());
        if cfg.seed == 0 {
            cfg.seed = chaos_seed.unwrap_or(0);
        }
        self.live =
            Some(LivenessEngine::new(self.scheme.clone(), self.contenders, cfg, chaos_seed));
    }

    /// Arms the invariant auditor; violations are collected instead of
    /// panicking.
    pub fn enable_audit(&mut self) {
        self.rebuild_auditor();
    }

    fn rebuild_auditor(&mut self) {
        let seed = self.chaos.as_ref().map(|p| p.seed());
        self.auditor = Auditor::new(self.scheme.clone(), self.actors, seed);
    }

    /// A broken protocol invariant: under audit it becomes a structured
    /// report (so release-mode chaos soaks catch it); otherwise it stays a
    /// `debug_assert!`.
    fn breach(&mut self, kind: InvariantKind, actor: usize, cycle: u64, detail: String) {
        if self.auditor.enabled() {
            self.auditor.record(kind, actor, cycle, detail);
        } else {
            debug_assert!(false, "{detail}");
        }
    }

    /// Token-protocol invariant check (serial token, commit slot).
    pub fn check_token_protocol(&mut self, ok: bool, actor: usize, cycle: u64, detail: &str) {
        if !ok {
            self.breach(InvariantKind::TokenProtocol, actor, cycle, detail.to_string());
        }
    }

    /// The receiver's verdict (Fig. 5(b)): its signatures' answer `sig` to
    /// a delivered `W_C`, attributed against the exact oracle's `exact` —
    /// counted as TP/FP/TN/FN, and audited for the one failure signatures
    /// must never have (§3), a missed real conflict. Returns `sig`: Bulk
    /// decides on signatures alone.
    pub fn judge(
        &mut self,
        exact: bool,
        sig: bool,
        actor: usize,
        cycle: u64,
        detail: impl FnOnce() -> String,
    ) -> bool {
        if let Some(obs) = &self.obs {
            obs.verdicts.record(sig, exact);
        }
        if Verdict::classify(sig, exact) == Verdict::FalseNegative {
            self.breach(InvariantKind::SignatureContainment, actor, cycle, detail());
        }
        sig
    }

    /// How every squash ends (Fig. 5(b), left branch, after the machine
    /// invalidated and rewound its victim): the victim's timer is charged
    /// the squash overhead, its section span closes as squashed, a squash
    /// span links back to [`SimHarness::commit_cause`], and an armed
    /// liveness engine records the squash and makes the victim sit out its
    /// backoff before it retries.
    pub fn squash_tail(&mut self, cfg: &SimConfig, timer: &mut CoreTimer, s: SquashTail) {
        let pre = timer.now();
        timer.wait_until(s.at);
        timer.advance(cfg.squash_overhead);
        let lane = s.lane as u32;
        if let Some(obs) = &self.obs {
            if let Some((section, ends_here)) = s.section {
                if ends_here {
                    obs.span_end(section, pre);
                }
                obs.span_outcome(section, SpanOutcome::Squashed);
            }
            let sq = obs.span_complete(lane, SpanKind::Squash, pre, timer.now(), s.arg);
            obs.span_link(self.commit_cause, sq);
        }
        if let (Some(live), Some(v)) = (self.live.as_mut(), s.victim) {
            let wait = live.on_squash(v.by, v.id, v.aliasing, v.age_rank, s.at);
            let b0 = timer.now();
            timer.advance(wait);
            if let Some(obs) = &self.obs {
                obs.on_backoff(v.id as u32, s.at, wait);
                if wait > 0 {
                    obs.span_complete(lane, SpanKind::Backoff, b0, b0 + wait, 0);
                }
            }
        }
    }

    /// Chaos hook, consulted once per scheduled operation and before
    /// [`SimHarness::forced_eviction`]: a forced context switch charges
    /// `actor`'s timer the preemption. Returns whether one fired.
    pub fn forced_ctx_switch(&mut self, actor: usize, timer: &mut CoreTimer) -> bool {
        let Some(plan) = &mut self.chaos else { return false };
        if !plan.force_context_switch() {
            return false;
        }
        let pre = timer.now();
        timer.advance(CTX_SWITCH_CYCLES);
        if let Some(obs) = &self.obs {
            obs.on_ctx_switch(actor as u32, timer.now());
            obs.span_complete(actor as u32, SpanKind::CtxSwitch, pre, timer.now(), 0);
        }
        true
    }

    /// Chaos hook: the resident line (and whether it is dirty) a forced
    /// eviction drops from `cache`, among the clean ones only when
    /// `clean_only`. The caller invalidates it.
    pub fn forced_eviction(&mut self, cache: &Cache, clean_only: bool) -> Option<(LineAddr, bool)> {
        let plan = self.chaos.as_mut()?;
        if !plan.force_eviction() {
            return None;
        }
        let mut resident: Vec<(LineAddr, bool)> = cache
            .iter()
            .map(|l| (l.addr(), l.is_dirty()))
            .filter(|&(_, dirty)| !(clean_only && dirty))
            .collect();
        // Sort so the pick is a function of the cache *contents*, not of
        // the sets' internal order (which depends on the hash-ordered
        // invalidation history and differs run to run).
        resident.sort_unstable();
        (!resident.is_empty()).then(|| resident[plan.pick(resident.len())])
    }

    /// The broadcast stage: arbitrates for the bus, carries the message
    /// across it under whatever the chaos plan injects, accounts the
    /// commit (metrics, event, commit span — which becomes
    /// [`SimHarness::commit_cause`]), and reports when the bus is released
    /// and how often receivers see the message.
    ///
    /// The fault stream is drawn in a fixed order — `deny_commit`* →
    /// `maybe_corrupt` → `broadcast_delay` → `duplicate_broadcast` →
    /// `arbiter_crash`* — which every golden digest depends on.
    pub fn broadcast(
        &mut self,
        cfg: &SimConfig,
        bw: &mut BandwidthStats,
        req: CommitRequest,
    ) -> Broadcast {
        let CommitRequest { committer, actor, payload, mut msg, .. } = req;
        let mut at = req.at;
        // Chaos: the arbiter may deny the request a bounded number of
        // times, the committer retrying with exponential backoff; then
        // in-flight bit flips, broadcast delay, duplication.
        let mut retries = 0u32;
        let (delay, duplicate) = match self.chaos.as_mut() {
            Some(plan) => {
                while let Some(backoff) = plan.deny_commit(retries) {
                    at += backoff;
                    retries += 1;
                }
                plan.maybe_corrupt(&mut msg);
                (plan.broadcast_delay(), plan.duplicate_broadcast())
            }
            None => (0, false),
        };
        let duration = cfg.commit_arb + payload.map_or(0, |b| cfg.broadcast_cycles(b)) + delay;
        let mut finish = self.bus.acquire(at, duration) + duration;
        if let Some(bytes) = payload {
            bw.record_commit(bytes, &cfg.msg_sizes);
        }

        // Delivery: receivers CRC-check signature payloads. A detected
        // corruption is nacked and retransmitted from the committer's
        // pristine copy — costing bus time, never correctness.
        let delivered = msg.deliver();
        let delta_w_c = delivered.as_ref().map(|d| d.w.decode_sets(&cfg.geom));
        if let Some(d) = &delivered {
            if d.corruption_detected {
                finish = self.bus.acquire(finish, RETRANSMIT_CYCLES) + RETRANSMIT_CYCLES;
                bw.record_commit(payload.unwrap_or(0), &cfg.msg_sizes);
            }
            if let Some(plan) = self.chaos.as_mut() {
                plan.note_delivery(d.corruption_detected, d.silent_corruption);
            }
            if d.silent_corruption {
                self.auditor.record(
                    InvariantKind::UndetectedCorruption,
                    actor,
                    finish,
                    "corrupted commit signature passed its CRC".to_string(),
                );
            }
        }

        // Liveness: the commit arbiter itself can crash mid-broadcast
        // (chaos `arbiter_crash` fault, consulted only when a liveness
        // engine is armed; the plan counts every crash). A crash is bus
        // time: the re-election holds the bus, so no broadcast can proceed
        // while the arbiter lease times out and commit order stays total,
        // and the broadcast is still delivered once. Each crash costs one
        // more re-election, up to the plan's per-broadcast bound so
        // recovery always terminates.
        let mut crashes = 0u32;
        if let (Some(plan), Some(_)) = (self.chaos.as_mut(), &self.live) {
            let crash_cap = plan.max_crashes();
            while crashes < crash_cap && plan.arbiter_crash() {
                finish = self.bus.acquire(finish, REELECT_CYCLES) + REELECT_CYCLES;
                crashes += 1;
                if let Some(obs) = &self.obs {
                    let epoch = plan.stats().arbiter_crashes;
                    obs.on_arbiter_failover(committer as u32, finish, epoch);
                }
            }
        }
        if let Some(obs) = &self.obs {
            // Latency and commit span run from the first request to bus
            // release: denial backoff, arbitration queueing, re-elections
            // and bus occupancy are all commit time.
            let latency = finish.saturating_sub(req.at);
            obs.on_commit(committer as u32, finish, payload.unwrap_or(0), req.writes, latency);
            obs.span_outcome(req.section, SpanOutcome::Useful);
            let c = obs.span_child(req.lane, SpanKind::Commit, req.at, req.writes, req.section);
            obs.span_end(c, finish);
            // Receiver-side squashes and bulk invalidations triggered by
            // this broadcast link back to its commit span.
            self.commit_cause = c;
        }
        let rounds = 1 + u32::from(duplicate && self.live.is_none());
        Broadcast { finish, delivered, delta_w_c, rounds, retries }
    }

    /// A Bulk receiver that was not squashed applies the commit: bulk
    /// invalidation of `cache` against [`Broadcast::w_c`], accounted
    /// against the exact committed lines. Returns the application (the
    /// caller accounts word merges) and the number of false invalidations.
    pub fn bulk_apply(
        &self,
        actor: usize,
        bdm: &Bdm,
        cache: &mut Cache,
        (w_c, delta_w_c): (&Signature, &SetBitmask),
        exact_lines: &AddrSet<LineAddr>,
        at: u64,
    ) -> (CommitApplication, u64) {
        let exp = self.obs.as_ref().map(|o| &o.expansion);
        let app = flows::apply_remote_commit_observed(bdm, w_c, delta_w_c, cache, exp);
        let lines = app.invalidated.len() as u64;
        let false_inv = app.invalidated.iter().filter(|l| !exact_lines.contains(l)).count() as u64;
        if let Some(obs) = &self.obs {
            obs.on_bulk_invalidate(actor as u32, at, lines, lines - false_inv);
            if lines > 0 {
                let inv = obs.span_complete(actor as u32, SpanKind::BulkInvalidate, at, at, lines);
                obs.span_link(self.commit_cause, inv);
            }
        }
        (app, false_inv)
    }

    /// End of run: drains every instrument, in the order their outputs
    /// depend on each other — chaos stats, the Fig. 13 cycle accounting
    /// (`totals[a]` is actor `a`'s final clock; conservation failures
    /// become audited violations, so they must land before the auditor is
    /// drained), the auditor, the liveness engine, and the watchdog events
    /// its violations imply — then publishes the chaos and liveness counts
    /// into the registry, once.
    pub fn drain(&mut self, totals: &[u64]) -> RunTail {
        let chaos = self.chaos.as_mut().map(FaultPlan::take_stats).unwrap_or_default();
        if let Some(obs) = &self.obs {
            let breakdown = obs.finish_cycle_accounting(totals);
            if self.auditor.enabled() {
                for v in &breakdown.violations {
                    self.auditor.record(
                        InvariantKind::CycleConservation,
                        if v.actor == u32::MAX { 0 } else { v.actor as usize },
                        v.cycle,
                        v.detail.clone(),
                    );
                }
            }
        }
        let audit_checks = self.auditor.checks();
        let violations = self.auditor.take_violations();
        let (liveness, liveness_violations) = match &mut self.live {
            Some(live) => (live.stats(), live.take_violations()),
            None => Default::default(),
        };
        if let Some(obs) = &self.obs {
            for v in &liveness_violations {
                obs.on_watchdog_trip(v.thread.unwrap_or(0) as u32, v.cycle, v.kind.as_str());
            }
            publish_tail(obs, &chaos, &liveness, self.live.is_some());
        }
        RunTail { chaos, audit_checks, violations, liveness, liveness_violations }
    }
}

/// The registry's copy of the counts the chaos plan and the liveness
/// engine keep: zeros at attach, the final values at drain. Every arbiter
/// crash is one re-election, so the plan's crash count is also the last
/// epoch. `live.dedup_drops` counts the deliveries a liveness-armed
/// receiver does not apply: one per chaos duplicate and one per crash.
fn publish_tail(obs: &RuntimeObs, chaos: &FaultStats, live: &LiveStats, armed: bool) {
    let dedup_drops = if armed { chaos.duplicated_broadcasts + chaos.arbiter_crashes } else { 0 };
    obs.publish(
        &[
            ("ctx_switches", chaos.forced_context_switches),
            ("live.arbiter_crashes", chaos.arbiter_crashes),
            ("live.backoff_waits", live.backoff_waits),
            ("live.checkpoints", live.checkpoints),
            ("live.dedup_drops", dedup_drops),
            ("live.watchdog_trips", live.watchdog_trips),
        ],
        &[("live.arbiter_epoch", chaos.arbiter_crashes)],
    );
}
