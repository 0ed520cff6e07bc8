//! The TM machine: a clock-ordered multiprocessor simulation that executes
//! [`TmWorkload`] traces under one of the conflict-detection [`Scheme`]s.
//!
//! Each processor runs one thread through its trace, one operation at a
//! time, always advancing the processor with the lowest clock — a
//! deterministic interleaving that respects per-processor timing. The Bulk
//! schemes maintain *only* signatures for disambiguation; exact per-address
//! sets are additionally tracked as an **oracle** to classify signature
//! false positives and validate correctness, never to make Bulk decisions.

use std::sync::Arc;

use bulk_chaos::{FaultPlan, InvariantKind, MachineError};
use bulk_core::{
    check_speculative_store, flows, Bdm, CommitEvent, CommitMsg,
    SectionStack, StoreCheck, VersionId,
};
use bulk_live::LivenessConfig;
use bulk_mem::{Addr, AddrSet, Cache, LineAddr, MsgClass, OverflowArea};
use bulk_obs::{Obs, SpanId, SpanKind, SpanOutcome};
use bulk_sig::{Signature, SignatureConfig};
use bulk_sim::{
    earliest, AccessTiming, Broadcast, CommitRequest, CoreTimer, SimConfig, SimHarness, SquashTail,
    Victim,
};
use bulk_trace::{TmOp, TmWorkload};

use crate::{Scheme, TmStats};

/// Safety cap on total squashes, used to detect the Fig. 12(a) livelock in
/// the naive Eager scheme.
const DEFAULT_SQUASH_CAP: u64 = 100_000;

/// Squashes of one transaction before it escalates to the serialized
/// non-speculative fallback (graceful degradation instead of livelock).
const DEFAULT_ESCALATION_THRESHOLD: u64 = 16;

struct Thread {
    ops: Vec<TmOp>,
    pc: usize,
    timer: CoreTimer,
    cache: Cache,
    // --- transaction state ---
    depth: usize,
    tx_start_pc: usize,
    tx_start_cycle: u64,
    tx_serial: u64,
    // Commits retired so far; the ordinal of the next CommitEvent.
    commit_ordinal: u64,
    // Exact oracle sets for the current outer transaction (line grain).
    read_set: AddrSet<LineAddr>,
    write_set: AddrSet<LineAddr>,
    // --- Bulk state ---
    bdm: Bdm,
    version: Option<VersionId>,
    // --- Bulk-Partial state ---
    sections: SectionStack,
    section_starts: Vec<usize>,
    exact_sections: Vec<(AddrSet<LineAddr>, AddrSet<LineAddr>)>,
    // --- overflow ---
    overflow: OverflowArea,
    // --- eager stall (forward-progress fix) ---
    stalled_on: Option<(usize, u64)>,
    // --- escalation (graceful degradation) ---
    /// Squashes of the currently-attempted transaction (reset on commit).
    tx_squashes: u64,
    /// The thread crossed the escalation threshold; its next `Begin`
    /// enters serialized non-speculative execution.
    escalated: bool,
    /// Currently executing its transaction serialized and non-speculative
    /// (holds the machine's serial token).
    serialized: bool,
    /// Trace span of the current transaction attempt (when observed).
    section_span: SpanId,
    done: bool,
}

impl Thread {
    fn in_tx(&self) -> bool {
        self.depth > 0
    }

    /// In a transaction *speculatively* — i.e. squashable. A serialized
    /// (escalated) transaction is non-speculative and never squashed.
    fn speculative(&self) -> bool {
        self.in_tx() && !self.serialized
    }

    fn tx_progress(&self) -> u64 {
        self.timer.now().saturating_sub(self.tx_start_cycle)
    }

    /// Forgets the transaction's speculative footprint: the exact oracle
    /// sets and the section stack (at a Begin, a commit, a full squash).
    fn reset_tx(&mut self) {
        self.read_set.clear();
        self.write_set.clear();
        self.sections.clear();
        self.section_starts.clear();
        self.exact_sections.clear();
        self.depth = 0;
    }

    fn exact_union_contains(&self, line: LineAddr) -> bool {
        self.read_set.contains(&line) || self.write_set.contains(&line)
    }
}

/// The simulated TM multiprocessor. Construct with [`TmMachine::new`], run
/// with [`TmMachine::run`] (or use the [`run_tm`] convenience function).
pub struct TmMachine {
    cfg: SimConfig,
    scheme: Scheme,
    threads: Vec<Thread>,
    /// Commit bus and instruments (chaos, auditor, obs, liveness), with
    /// the pipeline stages shared with the TLS machine.
    h: SimHarness,
    stats: TmStats,
    squash_cap: u64,
    /// Per-transaction squash count at which a thread escalates to the
    /// serialized fallback; `None` disables escalation (the naive-eager
    /// baseline keeps its Fig. 12(a) livelock demonstration).
    escalation: Option<u64>,
    /// The thread currently executing its transaction serialized, if any.
    /// While held, only the holder is scheduled: the serial region is a
    /// global exclusion, which is what makes the fallback trivially safe.
    serial_token: Option<usize>,
}

/// Runs `workload` under `scheme` on the given machine configuration and
/// returns the collected statistics.
///
/// ```
/// use bulk_sim::SimConfig;
/// use bulk_tm::{run_tm, Scheme};
/// use bulk_trace::patterns::fig12b_eager_only_squash;
///
/// let w = fig12b_eager_only_squash(3);
/// let stats = run_tm(&w, Scheme::Lazy, &SimConfig::tm_default());
/// assert!(stats.commits >= 6);
/// ```
pub fn run_tm(workload: &TmWorkload, scheme: Scheme, cfg: &SimConfig) -> TmStats {
    TmMachine::new(workload, scheme, cfg).run()
}

/// [`run_tm`] with an observability bundle attached: metrics land in
/// `obs`'s registry under the `tm.` prefix and protocol events in its
/// event log (see [`TmMachine::attach_obs`]).
pub fn run_tm_observed(
    workload: &TmWorkload,
    scheme: Scheme,
    cfg: &SimConfig,
    obs: Arc<Obs>,
) -> TmStats {
    let mut m = TmMachine::new(workload, scheme, cfg);
    m.attach_obs(obs);
    m.run()
}

impl TmMachine {
    /// Builds a machine with one processor per workload thread, using the
    /// paper's default S14 TM signature configuration.
    ///
    /// # Panics
    ///
    /// Panics if the workload is empty or a trace has unbalanced nesting;
    /// use [`TmMachine::try_new`] for a typed error instead.
    pub fn new(workload: &TmWorkload, scheme: Scheme, cfg: &SimConfig) -> Self {
        TmMachine::try_new(workload, scheme, cfg)
            .unwrap_or_else(|e| panic!("invalid TM workload: {e}"))
    }

    /// Fallible construction: returns a typed [`MachineError`] when the
    /// workload is empty or a thread trace fails validation.
    pub fn try_new(
        workload: &TmWorkload,
        scheme: Scheme,
        cfg: &SimConfig,
    ) -> Result<Self, MachineError> {
        TmMachine::try_with_signature(workload, scheme, cfg, SignatureConfig::s14_tm())
    }

    /// Builds a machine with an explicit signature configuration (used by
    /// the Table 8 / Fig. 15 sweeps).
    ///
    /// # Panics
    ///
    /// Panics if the workload is empty or a trace has unbalanced nesting;
    /// use [`TmMachine::try_with_signature`] for a typed error instead.
    pub fn with_signature(
        workload: &TmWorkload,
        scheme: Scheme,
        cfg: &SimConfig,
        sig: SignatureConfig,
    ) -> Self {
        TmMachine::try_with_signature(workload, scheme, cfg, sig)
            .unwrap_or_else(|e| panic!("invalid TM workload: {e}"))
    }

    /// Fallible construction with an explicit signature configuration.
    pub fn try_with_signature(
        workload: &TmWorkload,
        scheme: Scheme,
        cfg: &SimConfig,
        sig: SignatureConfig,
    ) -> Result<Self, MachineError> {
        if workload.threads.is_empty() {
            return Err(MachineError::EmptyWorkload { machine: "tm" });
        }
        assert_eq!(
            sig.granularity(),
            bulk_sig::Granularity::Line,
            "the TM machine disambiguates at line granularity (Table 5); \
             word-level merging is exercised by the TLS machine"
        );
        let sig_config = sig.into_shared();
        let mut threads = Vec::with_capacity(workload.threads.len());
        for (i, t) in workload.threads.iter().enumerate() {
            t.validate(8).map_err(|source| MachineError::Trace { thread: i, source })?;
            threads.push(Thread {
                ops: t.ops.clone(),
                pc: 0,
                timer: CoreTimer::new(),
                cache: Cache::new(cfg.geom),
                depth: 0,
                tx_start_pc: 0,
                tx_start_cycle: 0,
                tx_serial: 0,
                commit_ordinal: 0,
                read_set: AddrSet::default(),
                write_set: AddrSet::default(),
                bdm: Bdm::new_shared(sig_config.clone(), cfg.geom, 2),
                version: None,
                sections: SectionStack::new(sig_config.clone()),
                section_starts: Vec::new(),
                exact_sections: Vec::new(),
                overflow: OverflowArea::new(),
                stalled_on: None,
                tx_squashes: 0,
                escalated: false,
                serialized: false,
                section_span: SpanId::DROPPED,
                done: t.ops.is_empty(),
            });
        }
        Ok(TmMachine {
            cfg: cfg.clone(),
            scheme,
            h: SimHarness::new("tm.", scheme.to_string(), threads.len(), threads.len()),
            threads,
            stats: TmStats::default(),
            squash_cap: DEFAULT_SQUASH_CAP,
            // The naive-eager baseline exists to demonstrate the Fig. 12(a)
            // livelock; escalation would paper over exactly that.
            escalation: if scheme == Scheme::EagerNaive {
                None
            } else {
                Some(DEFAULT_ESCALATION_THRESHOLD)
            },
            serial_token: None,
        })
    }

    /// Overrides the livelock safety cap (total squashes before the run is
    /// declared livelocked and stopped). Useful to demonstrate Fig. 12(a).
    pub fn set_squash_cap(&mut self, cap: u64) {
        self.squash_cap = cap;
    }

    /// Overrides the per-transaction escalation threshold (`None` disables
    /// the serialized fallback entirely).
    pub fn set_escalation_threshold(&mut self, threshold: Option<u64>) {
        self.escalation = threshold;
    }

    /// Attaches an observability bundle: all protocol steps are mirrored
    /// into metrics under the `tm.` prefix and into the shared event log,
    /// and every squash is attributed against the exact oracle.
    pub fn attach_obs(&mut self, obs: Arc<Obs>) {
        let robs = self.h.attach_obs(obs);
        for t in &mut self.threads {
            t.overflow.attach_obs(robs.overflow.clone());
        }
    }

    /// The machine's bus and instruments, for callers that arm chaos,
    /// audit and liveness the same way on either machine.
    pub fn harness_mut(&mut self) -> &mut SimHarness {
        &mut self.h
    }

    /// Arms the chaos fault injector for this run. The run then becomes a
    /// pure function of (workload, scheme, config, `plan.seed()`).
    pub fn set_chaos(&mut self, plan: FaultPlan) {
        self.h.set_chaos(plan);
    }

    /// Arms the liveness engine: squash-triggered backoff arbitration, the
    /// forward-progress watchdog, commit-arbiter failover (an armed chaos
    /// plan's `arbiter_crash` fault is consulted only then), and the count
    /// of chaos context switches. Call *after*
    /// [`TmMachine::set_chaos`] so the backoff jitter inherits the chaos
    /// seed; with `cfg.seed == 0` and chaos armed, the chaos seed is used.
    pub fn enable_liveness(&mut self, cfg: LivenessConfig) {
        self.h.enable_liveness(cfg);
    }

    /// Enables the runtime invariant auditor; violations are collected in
    /// [`TmStats::violations`] instead of panicking.
    pub fn enable_audit(&mut self) {
        self.h.enable_audit();
    }

    /// Runs the machine to completion and returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics on a typed machine error (see [`TmMachine::try_run`]).
    pub fn run(self) -> TmStats {
        self.try_run().unwrap_or_else(|e| panic!("TM run failed: {e}"))
    }

    /// Runs the machine to completion, surfacing machine-level failures
    /// (conflict deadlock, missing versions, malformed commit payloads) as
    /// typed errors rather than panics.
    pub fn try_run(mut self) -> Result<TmStats, MachineError> {
        loop {
            if self.stats.squashes >= self.squash_cap {
                self.stats.livelocked = true;
                break;
            }
            if self.h.live.as_ref().is_some_and(|l| l.tripped()) {
                // The watchdog tripped: the run cannot make progress, so it
                // aborts with a diagnosis instead of burning the squash cap.
                self.stats.livelocked = true;
                break;
            }
            let Some(tid) = self.pick_runnable()? else {
                break;
            };
            self.step(tid)?;
            if let Some(live) = &mut self.h.live {
                live.on_tick(self.threads[tid].timer.now());
                if self.threads[tid].done {
                    live.on_done(tid);
                }
            }
        }
        self.stats.cycles = self.threads.iter().map(|t| t.timer.now()).max().unwrap_or(0);
        self.stats.overflow_accesses =
            self.threads.iter().map(|t| t.overflow.accesses()).sum();
        let totals: Vec<u64> = self.threads.iter().map(|t| t.timer.now()).collect();
        let tail = self.h.drain(&totals);
        self.stats.chaos = tail.chaos;
        self.stats.audit_checks = tail.audit_checks;
        self.stats.violations = tail.violations;
        self.stats.liveness = tail.liveness;
        self.stats.liveness_violations = tail.liveness_violations;
        Ok(self.stats)
    }

    fn pick_runnable(&mut self) -> Result<Option<usize>, MachineError> {
        // A serialized (escalated) transaction runs under global exclusion:
        // while the token is held, only the holder is scheduled.
        if let Some(k) = self.serial_token {
            if self.threads[k].done {
                let cycle = self.threads[k].timer.now();
                self.h.check_token_protocol(
                    false,
                    k,
                    cycle,
                    "serial token held by a finished thread",
                );
                // Recover: release the orphaned token so the run can finish.
                self.serial_token = None;
            } else {
                return Ok(Some(k));
            }
        }
        let threads = &self.threads;
        let picked = earliest(threads.iter().map(|t| {
            let blocked = t.stalled_on.is_some_and(|(blocker, serial)| {
                let b = &threads[blocker];
                b.tx_serial == serial && b.in_tx() && !b.done
            });
            (!t.done && !blocked).then_some(t.timer.now())
        }));
        if picked.is_none() && threads.iter().any(|t| !t.done) {
            let cycle = self.threads.iter().map(|t| t.timer.now()).max().unwrap_or(0);
            return Err(MachineError::ConflictDeadlock { cycle });
        }
        Ok(picked)
    }

    fn step(&mut self, tid: usize) -> Result<(), MachineError> {
        // A resuming thread re-checks its op with stall cleared.
        if let Some((blocker, _)) = self.threads[tid].stalled_on {
            let release = self.threads[blocker].timer.now();
            let t = &mut self.threads[tid];
            t.stalled_on = None;
            let pre = t.timer.now();
            t.timer.wait_until(release);
            if release > pre {
                if let Some(obs) = &self.h.obs {
                    obs.span_complete(tid as u32, SpanKind::Stall, pre, release, blocker as u64);
                }
            }
        }
        if self.h.chaos.is_some() {
            self.chaos_perturb(tid);
        }
        let op = self.threads[tid].ops[self.threads[tid].pc];
        match op {
            TmOp::Compute(n) => {
                self.threads[tid].timer.compute(u64::from(n), &self.cfg);
                self.threads[tid].pc += 1;
            }
            TmOp::Begin => self.op_begin(tid),
            TmOp::End => self.op_end(tid)?,
            TmOp::Read(a) => self.op_read(tid, a)?,
            TmOp::Write(a) => self.op_write(tid, a)?,
        }
        self.h.auditor.observe_clock(tid, self.threads[tid].timer.now());
        if self.threads[tid].pc >= self.threads[tid].ops.len() {
            self.threads[tid].done = true;
            debug_assert!(!self.threads[tid].in_tx(), "trace ended inside a transaction");
        }
        Ok(())
    }

    /// Chaos hook, consulted once per scheduled operation: forced context
    /// switches (spill + reload of the running version's signatures,
    /// §6.2.2) and forced cache evictions (overflow pressure).
    fn chaos_perturb(&mut self, tid: usize) {
        if self.h.forced_ctx_switch(tid, &mut self.threads[tid].timer) {
            let t = &mut self.threads[tid];
            if let Some(v) = t.version.take() {
                // The OS preempts mid-transaction: signatures spill to
                // memory and reload when the thread is rescheduled.
                let spilled = t.bdm.spill_version(v);
                match t.bdm.reload_version(spilled) {
                    Ok(v2) => {
                        t.bdm.set_running(Some(v2));
                        t.version = Some(v2);
                    }
                    // No free slot to reload into (cannot happen — the
                    // spill just freed one — but a typed dead thread
                    // beats a panic): the next operation that needs the
                    // version reports MissingVersion.
                    Err(_) => t.version = None,
                }
                if let Some(live) = &mut self.h.live {
                    live.note_checkpoint();
                    if let Some(obs) = &self.h.obs {
                        let now = t.timer.now();
                        obs.span_complete(tid as u32, SpanKind::Checkpoint, now, now, 0);
                    }
                }
            }
        }
        if let Some((victim, dirty)) = self.h.forced_eviction(&self.threads[tid].cache, false) {
            self.threads[tid].cache.invalidate(victim);
            if dirty {
                self.handle_dirty_victim(tid, victim);
            }
        }
    }

    /// The running version of `tid`, or a typed error naming the protocol
    /// step that required it.
    fn version_of(&self, tid: usize, context: &'static str) -> Result<VersionId, MachineError> {
        self.threads[tid].version.ok_or(MachineError::MissingVersion {
            thread: tid,
            pc: self.threads[tid].pc,
            context,
        })
    }

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    fn op_begin(&mut self, tid: usize) {
        let partial = self.scheme == Scheme::BulkPartial;
        // Graceful degradation: after repeated squashes this transaction
        // re-executes non-speculatively under global exclusion — it can
        // no longer be squashed, so it is guaranteed to finish.
        let serialize = self.threads[tid].escalated && self.threads[tid].depth == 0;
        if serialize {
            let ok = self.serial_token.is_none();
            let now = self.threads[tid].timer.now();
            self.h.check_token_protocol(ok, tid, now, "serial token double-granted at Begin");
            self.serial_token = Some(tid);
        }
        let t = &mut self.threads[tid];
        if t.serialized {
            // Nested Begin inside a serialized transaction: flat, nothing
            // speculative to track.
        } else if t.depth == 0 {
            t.serialized = serialize;
            t.tx_serial += 1;
            t.tx_start_pc = t.pc;
            t.tx_start_cycle = t.timer.now();
            if let Some(obs) = &self.h.obs {
                t.section_span =
                    obs.span_begin(tid as u32, SpanKind::Section, t.tx_start_cycle, t.tx_serial);
            }
            t.reset_tx();
            if let Some(v) = t.version.take() {
                t.bdm.free_version(v);
            }
            if !serialize && self.scheme.uses_signatures() {
                let v = t.bdm.alloc_version().expect("fresh BDM slot");
                t.bdm.set_running(Some(v));
                t.version = Some(v);
            }
        }
        if partial && !t.serialized {
            // Every Begin opens a section (paper Fig. 8).
            t.sections.begin_section();
            t.section_starts.push(t.pc + 1);
            t.exact_sections.push(Default::default());
        }
        t.depth += 1;
        t.pc += 1;
    }

    fn op_end(&mut self, tid: usize) -> Result<(), MachineError> {
        let partial = self.scheme == Scheme::BulkPartial && !self.threads[tid].serialized;
        let t = &mut self.threads[tid];
        debug_assert!(t.depth > 0, "End without Begin");
        t.depth -= 1;
        if t.depth > 0 {
            // Closed-nesting inner commit: nothing becomes visible; a new
            // section starts (paper Fig. 8 section 3).
            if partial {
                t.sections.begin_section();
                t.section_starts.push(t.pc + 1);
                t.exact_sections.push(Default::default());
            }
            t.pc += 1;
        } else if t.serialized {
            self.serialized_commit(tid);
            self.threads[tid].pc += 1;
        } else {
            self.commit(tid)?;
            self.threads[tid].pc += 1;
        }
        Ok(())
    }

    /// Appends one entry to the committed history (the cross-runtime
    /// conformance record): the committing thread, its per-thread commit
    /// ordinal, and the finish cycle.
    fn push_commit_event(&mut self, tid: usize, finish: u64) {
        let ordinal = self.threads[tid].commit_ordinal;
        self.threads[tid].commit_ordinal += 1;
        self.stats.history.push(CommitEvent { thread: tid as u32, ordinal, at: finish });
    }

    /// Commit of a serialized (escalated) transaction: its stores already
    /// propagated as ordinary coherence traffic, so commit only arbitrates
    /// for the bus (keeping the global commit order total) and releases
    /// the serial token.
    fn serialized_commit(&mut self, tid: usize) {
        let now = self.threads[tid].timer.now();
        let start = self.h.bus.acquire(now, self.cfg.commit_arb);
        let finish = start + self.cfg.commit_arb;
        self.threads[tid].timer.wait_until(finish);
        if let Some(obs) = &self.h.obs {
            let sec = self.threads[tid].section_span;
            obs.span_end(sec, now);
            obs.span_outcome(sec, SpanOutcome::Useful);
            let c = obs.span_child(tid as u32, SpanKind::Commit, now, 0, sec);
            obs.span_end(c, finish);
            self.threads[tid].section_span = SpanId::DROPPED;
        }
        self.stats.commits += 1;
        self.stats.serialized_commits += 1;
        self.push_commit_event(tid, finish);
        self.h.auditor.observe_commit(tid, finish);
        let t = &mut self.threads[tid];
        t.serialized = false;
        t.escalated = false;
        t.tx_squashes = 0;
        t.tx_serial += 1; // releases threads stalled on this transaction
        t.overflow.discard();
        let ok = self.serial_token == Some(tid);
        self.h.check_token_protocol(ok, tid, finish, "serialized commit without the serial token");
        self.serial_token = None;
        if let Some(live) = &mut self.h.live {
            live.on_commit(tid, finish);
        }
        self.audit_state(finish);
    }

    fn op_read(&mut self, tid: usize, a: Addr) -> Result<(), MachineError> {
        let line = a.line(self.cfg.geom.line_bytes());
        if self.threads[tid].serialized {
            // A serialized transaction reads non-speculatively: no read set,
            // no signature, no conflict checks — the serial token already
            // guarantees atomicity. Speculative dirty copies elsewhere are
            // nacked by `neighbor_has`, so it reads committed state.
            self.timed_access(tid, line, false);
            self.threads[tid].pc += 1;
            return Ok(());
        }
        // Eager RAW conflict: reading a line speculatively written elsewhere.
        if self.scheme.is_eager() {
            let conflicting: Vec<usize> = self
                .others(tid)
                .filter(|&j| self.threads[j].in_tx() && self.threads[j].write_set.contains(&line))
                .collect();
            if !self.resolve_eager_conflicts(tid, &conflicting) {
                return Ok(()); // stalled; retry this op later
            }
        }
        let in_tx = self.threads[tid].in_tx();
        let acc = self.timed_access(tid, line, false);
        if in_tx {
            let v = if self.scheme.uses_signatures() {
                Some(self.version_of(tid, "transactional load")?)
            } else {
                None
            };
            let t = &mut self.threads[tid];
            t.read_set.insert(line);
            if let Some(v) = v {
                t.bdm.record_load(v, a);
                if self.scheme == Scheme::BulkPartial {
                    t.sections.record_load(a);
                    t.exact_sections.last_mut().expect("open section").0.insert(line);
                }
            }
            if !acc.hit {
                self.consult_overflow(tid, a, line);
            }
        }
        self.threads[tid].pc += 1;
        Ok(())
    }

    fn op_write(&mut self, tid: usize, a: Addr) -> Result<(), MachineError> {
        let line = a.line(self.cfg.geom.line_bytes());
        if !self.threads[tid].in_tx() || self.threads[tid].serialized {
            // A serialized transaction's store is an ordinary coherent
            // store: it propagates an individual invalidation, which may
            // squash speculative readers — exactly the paper's
            // non-transactional-write rule (§4.2).
            self.non_tx_write(tid, a, line);
            return Ok(());
        }
        // Eager conflict: writing a line another in-flight tx read/wrote.
        if self.scheme.is_eager() {
            let conflicting: Vec<usize> = self
                .others(tid)
                .filter(|&j| self.threads[j].in_tx() && self.threads[j].exact_union_contains(line))
                .collect();
            if !self.resolve_eager_conflicts(tid, &conflicting) {
                return Ok(()); // stalled
            }
            // The eager store itself propagates an invalidation.
            if !self.threads[tid].write_set.contains(&line) {
                self.stats.bw.record(MsgClass::Inv, self.cfg.msg_sizes.addr_msg);
                self.invalidate_in_others(tid, line);
            }
        }
        // Set Restriction enforcement (Bulk schemes).
        if self.scheme.uses_signatures() {
            let v = self.version_of(tid, "speculative store check")?;
            let t = &self.threads[tid];
            match check_speculative_store(&t.bdm, v, a, &t.cache) {
                StoreCheck::Proceed { safe_writebacks } => {
                    let n = safe_writebacks.len() as u64;
                    let t = &mut self.threads[tid];
                    for wb in safe_writebacks {
                        t.cache.mark_clean(wb);
                    }
                    self.stats.safe_writebacks += n;
                    self.stats.bw.record(MsgClass::Wb, n * self.cfg.msg_sizes.line_msg);
                }
                StoreCheck::ConflictWithPreempted => {
                    // Cannot occur with one transaction per processor; kept
                    // for the multi-version TLS runtime.
                    unreachable!("TM machine runs one version per processor");
                }
            }
        }
        self.timed_access(tid, line, true);
        let v = if self.scheme.uses_signatures() {
            Some(self.version_of(tid, "speculative store")?)
        } else {
            None
        };
        let t = &mut self.threads[tid];
        t.write_set.insert(line);
        if let Some(v) = v {
            t.bdm.record_store(v, a);
            if self.scheme == Scheme::BulkPartial {
                t.sections.record_store(a);
                t.exact_sections.last_mut().expect("open section").1.insert(line);
            }
        }
        t.pc += 1;
        Ok(())
    }

    /// A non-transactional store: updates this cache and sends an
    /// individual invalidation that may squash speculative threads
    /// (paper §4.2 last paragraph).
    fn non_tx_write(&mut self, tid: usize, a: Addr, line: LineAddr) {
        self.stats.individual_invalidations += 1;
        self.stats.bw.record(MsgClass::Inv, self.cfg.msg_sizes.addr_msg);
        // Single-address probe signature (built once per non-transactional
        // store, not per receiver).
        let probe = (self.scheme == Scheme::BulkPartial).then(|| {
            let mut p = Signature::with_shared(self.threads[tid].bdm.config().clone());
            p.insert_addr(a);
            p
        });
        let victims: Vec<usize> = self
            .others(tid)
            .filter(|&j| {
                let o = &self.threads[j];
                if !o.in_tx() {
                    false
                } else if self.scheme.uses_signatures() {
                    match &probe {
                        Some(p) => o.sections.disambiguate(p).is_some(),
                        None => match o.version {
                            Some(v) => o.bdm.disambiguate_addr(v, a),
                            None => false,
                        },
                    }
                } else {
                    o.exact_union_contains(line)
                }
            })
            .collect();
        let now = self.threads[tid].timer.now();
        if let Some(obs) = &self.h.obs {
            if !victims.is_empty() {
                // A non-speculative store squashes via an individual
                // invalidation rather than a commit broadcast; its span
                // is the cause the victims' squash spans link back to.
                let inv = obs.span_complete(tid as u32, SpanKind::Invalidate, now, now, 1);
                self.h.commit_cause = inv;
            }
        }
        for j in victims {
            let truly = self.threads[j].exact_union_contains(line);
            self.squash_thread(j, now, truly, if truly { 1 } else { 0 }, Some(tid));
        }
        self.h.commit_cause = SpanId::DROPPED;
        self.invalidate_in_others(tid, line);
        self.timed_access(tid, line, true);
        self.threads[tid].pc += 1;
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit(&mut self, tid: usize) -> Result<(), MachineError> {
        // Cloned, not taken: the committer stays speculative until its
        // cleanup below, and the audit a squash triggers mid-delivery still
        // checks this write set against the W signature.
        let exact_w = self.threads[tid].write_set.clone();
        let scheme = self.scheme;
        // The speculative section ends here; everything from this point
        // to bus-finish (denied-retry backoff included) is commit time.
        let sec_end = self.threads[tid].timer.now();

        // Broadcast payload.
        let (payload, msg) = match scheme {
            Scheme::EagerNaive | Scheme::Eager => (None, CommitMsg::AddressList),
            Scheme::Lazy => {
                (Some(exact_w.len() as u64 * self.cfg.msg_sizes.addr_msg), CommitMsg::AddressList)
            }
            Scheme::Bulk => {
                let v = self.version_of(tid, "bulk commit")?;
                let w = self.threads[tid].bdm.write_signature(v).clone();
                (Some(w.compressed_size_bits().div_ceil(8)), CommitMsg::signatures(w))
            }
            Scheme::BulkPartial => {
                let w = self.threads[tid].sections.commit_union();
                (Some(w.compressed_size_bits().div_ceil(8)), CommitMsg::signatures(w))
            }
        };

        // The committing processor is blocked from the request to
        // bus-finish, so a denied arbitration's backoff lands on its timer.
        let section = std::mem::replace(&mut self.threads[tid].section_span, SpanId::DROPPED);
        if let Some(obs) = &self.h.obs {
            obs.span_end(section, sec_end);
        }
        let request = CommitRequest {
            committer: tid,
            actor: tid,
            lane: tid as u32,
            at: sec_end,
            payload,
            writes: exact_w.len() as u64,
            msg,
            section,
        };
        let b = self.h.broadcast(&self.cfg, &mut self.stats.bw, request);
        let finish = b.finish;
        self.stats.commit_retries += u64::from(b.retries);
        self.threads[tid].timer.wait_until(finish);

        self.stats.commits += 1;
        self.push_commit_event(tid, finish);
        self.stats.rd_set_lines += self.threads[tid].read_set.len() as u64;
        self.stats.wr_set_lines += self.threads[tid].write_set.len() as u64;

        // Lazy-style commit makes the write set globally visible, pushing
        // the committed data out of the L1 (TCC-style); the cache stays
        // largely clean, as the paper's low Safe-WB rates imply.
        if !scheme.is_eager() {
            let dirty: Vec<LineAddr> = exact_w
                .iter()
                .filter(|l| {
                    self.threads[tid].cache.state_of(**l)
                        == Some(bulk_mem::LineState::Dirty)
                })
                .copied()
                .collect();
            let n = dirty.len() as u64;
            for l in dirty {
                self.threads[tid].cache.mark_clean(l);
            }
            self.stats.bw.record(MsgClass::Wb, n * self.cfg.msg_sizes.line_msg);
        }

        // Receivers, once per delivery round.
        for _ in 0..b.rounds {
            for j in self.others(tid) {
                self.receive_commit(j, tid, &exact_w, &b)?;
            }
        }
        self.h.commit_cause = SpanId::DROPPED;

        // Committer cleanup: the paper's clear-a-signature commit. The
        // broadcast copy was already taken above; freeing the slot clears it.
        let t = &mut self.threads[tid];
        if let Some(v) = t.version.take() {
            t.bdm.free_version(v);
        }
        t.reset_tx();
        t.tx_serial += 1; // releases stalled threads
        t.tx_squashes = 0; // the transaction finished; escalation pressure resets
        t.escalated = false;
        // Overflow area at commit: the spilled lines are already in
        // memory, so Bulk simply forgets the area; a conventional lazy
        // scheme walks it to fold the data into architectural state.
        match scheme {
            Scheme::Lazy => t.overflow.deallocate(true),
            _ => t.overflow.discard(),
        }

        self.h.auditor.observe_commit(tid, finish);
        if let Some(live) = &mut self.h.live {
            live.on_commit(tid, finish);
        }
        if self.h.auditor.enabled() {
            // Serializability: every surviving speculative transaction must
            // be conflict-free with the committed write set — anything else
            // should have been squashed or rolled back above.
            for j in self.others(tid) {
                let o = &self.threads[j];
                if !o.speculative() {
                    continue;
                }
                if let Some(l) = exact_w
                    .iter()
                    .find(|l| o.read_set.contains(l) || o.write_set.contains(l))
                {
                    let detail = format!(
                        "thread {j} survived a commit by thread {tid} that overlaps \
                         its exact sets at line {l}"
                    );
                    self.h.auditor.record(InvariantKind::Serializability, j, finish, detail);
                }
            }
            self.audit_state(finish);
        }
        Ok(())
    }

    fn receive_commit(
        &mut self,
        j: usize,
        committer: usize,
        exact_w: &AddrSet<LineAddr>,
        b: &Broadcast,
    ) -> Result<(), MachineError> {
        let finish = b.finish;
        let in_tx = self.threads[j].in_tx();
        let exact_conflict = in_tx && {
            let o = &self.threads[j];
            exact_w.iter().any(|l| o.read_set.contains(l) || o.write_set.contains(l))
        };

        if !self.scheme.uses_signatures() {
            // Eager handled conflicts at access time; any residue (from
            // interleaving approximation) is squashed here for safety.
            if exact_conflict {
                let dep = self.exact_dep_size(j, exact_w);
                self.squash_thread(j, finish, true, dep, Some(committer));
                return Ok(());
            }
            for &l in exact_w {
                self.threads[j].cache.invalidate(l);
            }
            // A conventional lazy scheme must also disambiguate the commit
            // against its overflowed addresses in memory.
            if self.scheme == Scheme::Lazy && in_tx && !self.threads[j].overflow.is_empty() {
                let (walked, _) = self.threads[j].overflow.disambiguate_walk(exact_w);
                self.stats.bw.record(MsgClass::Ub, walked * self.cfg.msg_sizes.addr_msg);
            }
            return Ok(());
        }
        let partial = self.scheme == Scheme::BulkPartial;
        let malformed = |payload| MachineError::MalformedCommit {
            scheme: if partial { "Bulk-Partial" } else { "Bulk" },
            payload,
        };
        let w_c = b.w_c().ok_or_else(|| malformed("address-list"))?;
        // The first violated section; plain Bulk's one section is index 0.
        let violated = if in_tx {
            let o = &self.threads[j];
            // The signature came off the wire: a config mismatch is a
            // malformed commit, not a machine panic.
            let violated = match (partial, o.version) {
                (true, _) => o.sections.try_disambiguate(w_c.0),
                (false, Some(v)) => {
                    o.bdm.try_disambiguate(v, w_c.0).map(|d| d.squash().then_some(0))
                }
                (false, None) => Ok(None),
            }
            .map_err(|_| malformed("mismatched-signature-config"))?;
            self.h.judge(exact_conflict, violated.is_some(), j, finish, || {
                "signature disambiguation missed an exact-set conflict (false negative)".to_string()
            });
            violated
        } else {
            None
        };
        match violated {
            // A violation in the first section is a full restart.
            Some(0) => {
                let dep = self.exact_dep_size(j, exact_w);
                self.squash_thread(j, finish, exact_conflict, dep, Some(committer));
            }
            Some(sec) => self.partial_rollback(j, sec, finish),
            None => {
                let t = &mut self.threads[j];
                let (app, false_inv) =
                    self.h.bulk_apply(j, &t.bdm, &mut t.cache, w_c, exact_w, finish);
                self.stats.false_invalidations += false_inv;
                debug_assert!(app.merged.is_empty(), "line-grain TM signatures never merge");
            }
        }
        Ok(())
    }

    fn partial_rollback(&mut self, j: usize, sec: usize, at: u64) {
        self.stats.partial_rollbacks += 1;
        let t = &mut self.threads[j];
        self.stats.sections_rolled_back += (t.sections.depth() - sec) as u64;
        // Discard the rolled-back sections' dirty lines.
        for e in t.sections.write_union_from(sec).expand(&t.cache) {
            if e.state == bulk_mem::LineState::Dirty {
                t.cache.invalidate(e.addr);
            }
        }
        t.sections.rollback_to(sec);
        t.section_starts.truncate(sec + 1);
        // Rebuild the exact oracle sets from the surviving sections.
        t.exact_sections.truncate(sec);
        t.exact_sections.push(Default::default());
        t.read_set = t.exact_sections.iter().flat_map(|(r, _)| r.iter().copied()).collect();
        t.write_set = t.exact_sections.iter().flat_map(|(_, w)| w.iter().copied()).collect();
        t.pc = t.section_starts[sec];
        // Re-entering mid-transaction keeps depth consistent with the
        // section structure: sections after `sec` came from deeper or later
        // nesting; recompute depth by replaying is unnecessary because the
        // restart point records it implicitly — the ops from `pc` onward
        // re-execute their own Begin/End pairs. Depth at a section start
        // equals 1 + number of unmatched Begins before it; we conservatively
        // recompute it here.
        t.depth = depth_at(&t.ops, t.pc, t.tx_start_pc);
        let tail = SquashTail { lane: j, at, arg: sec as u64, section: None, victim: None };
        self.h.squash_tail(&self.cfg, &mut t.timer, tail);
        self.audit_state(at);
    }

    /// Squashes thread `j` at cycle `at`. `by` is the squasher (the
    /// committing or storing thread), fed to the liveness watchdog to
    /// detect ping-pong cycles; `truly` is the exact-oracle verdict.
    fn squash_thread(&mut self, j: usize, at: u64, truly: bool, dep: u64, by: Option<usize>) {
        self.stats.squashes += 1;
        if truly {
            self.stats.dep_set_lines += dep;
            self.stats.dep_samples += 1;
        } else {
            self.stats.false_squashes += 1;
        }
        if let Some(obs) = &self.h.obs {
            obs.on_squash(j as u32, at, truly, dep);
        }
        let scheme = self.scheme;
        let exp = self.h.obs.as_ref().map(|o| o.expansion.clone());
        let t = &mut self.threads[j];
        if scheme.uses_signatures() {
            if let Some(v) = t.version {
                flows::squash_observed(&mut t.bdm, v, &mut t.cache, false, exp.as_ref());
            }
        } else {
            // Conventional squash: walk the cache and drop speculative
            // dirty lines (exact sets say which).
            let dirty: Vec<LineAddr> = t
                .write_set
                .iter()
                .filter(|l| t.cache.state_of(**l) == Some(bulk_mem::LineState::Dirty))
                .copied()
                .collect();
            for l in dirty {
                t.cache.invalidate(l);
            }
        }
        // Squash deallocates the overflow area: Bulk discards it in one
        // step; conventional schemes walk the spilled entries.
        let spilled = t.overflow.len() as u64;
        t.overflow.deallocate(!scheme.uses_signatures());
        self.stats.bw.record(MsgClass::Ub, spilled * self.cfg.msg_sizes.addr_msg);
        let t = &mut self.threads[j];
        t.reset_tx();
        t.pc = t.tx_start_pc;
        t.tx_serial += 1;
        t.stalled_on = None;
        t.tx_squashes += 1;
        let section = std::mem::replace(&mut t.section_span, SpanId::DROPPED);
        let victim = Victim { by, id: j, aliasing: !truly, age_rank: self.age_rank(j) };
        let tail =
            SquashTail { lane: j, at, arg: dep, section: Some((section, true)), victim: Some(victim) };
        self.h.squash_tail(&self.cfg, &mut self.threads[j].timer, tail);
        // Escalation: too many squashes of the same transaction trigger the
        // serialized fallback on its next restart.
        if let Some(threshold) = self.escalation {
            let t = &mut self.threads[j];
            if !t.escalated && t.tx_squashes >= threshold {
                t.escalated = true;
                self.stats.escalations += 1;
                if let Some(obs) = &self.h.obs {
                    obs.on_escalation(j as u32, at);
                }
            }
        }
        self.audit_state(at);
    }

    // ------------------------------------------------------------------
    // Eager conflict resolution
    // ------------------------------------------------------------------

    /// Resolves eager conflicts between `tid` and `conflicting` threads.
    /// Returns `false` if `tid` must stall and retry the op.
    fn resolve_eager_conflicts(&mut self, tid: usize, conflicting: &[usize]) -> bool {
        if conflicting.is_empty() {
            return true;
        }
        if self.scheme == Scheme::Eager {
            // Forward-progress fix: the longer-running transaction wins.
            let my_progress = self.threads[tid].tx_progress();
            if let Some(&winner) = conflicting
                .iter()
                .filter(|&&j| self.threads[j].tx_progress() > my_progress)
                .max_by_key(|&&j| self.threads[j].tx_progress())
            {
                self.stats.stalls += 1;
                let serial = self.threads[winner].tx_serial;
                self.threads[tid].stalled_on = Some((winner, serial));
                return false;
            }
        }
        let now = self.threads[tid].timer.now();
        for &j in conflicting {
            let dep = 1; // the conflicting line
            self.squash_thread(j, now, true, dep, Some(tid));
        }
        true
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// Every thread index but `tid`, ascending. Borrows nothing, so a
    /// loop over it may mutate the machine.
    fn others(&self, tid: usize) -> impl Iterator<Item = usize> {
        (0..self.threads.len()).filter(move |&j| j != tid)
    }

    /// Age rank of thread `j` among in-flight speculative transactions,
    /// ordered by transaction start cycle (0 = oldest). Older transactions
    /// get longer backoff multipliers so the *young* retry first and the
    /// old — closest to committing — win the next arbitration.
    fn age_rank(&self, j: usize) -> usize {
        let key = (self.threads[j].tx_start_cycle, j);
        self.threads
            .iter()
            .enumerate()
            .filter(|(i, t)| *i != j && t.speculative())
            .filter(|(i, t)| (t.tx_start_cycle, *i) < key)
            .count()
    }

    /// Whether some other processor can *supply* `line`. A holder whose
    /// copy is speculatively dirty nacks the request (the paper's §4.5:
    /// the BDM checks its `δ(W)` bitmasks and refuses to leak speculative
    /// data), so the requester falls back to memory for the committed
    /// version. Clean and non-speculative dirty copies are supplied
    /// normally.
    fn neighbor_has(&self, tid: usize, line: LineAddr) -> bool {
        let set = self.cfg.geom.set_of_line(line);
        self.others(tid).any(|j| {
            let t = &self.threads[j];
            match t.cache.state_of(line) {
                None => false,
                Some(bulk_mem::LineState::Clean) => true,
                Some(bulk_mem::LineState::Dirty) => {
                    let nacks = if self.scheme.uses_signatures() {
                        t.bdm.holds_speculative_dirty_set(set)
                    } else {
                        t.in_tx() && t.write_set.contains(&line)
                    };
                    !nacks
                }
            }
        })
    }

    /// One timed L1 load or store by thread `tid`, its dirty victim
    /// handled. The other caches are probed only when the line misses
    /// locally: `CoreTimer` reads `in_neighbor` on no other path and
    /// `neighbor_has` is pure, so skipping the probe on a hit cannot
    /// change a result.
    fn timed_access(&mut self, tid: usize, line: LineAddr, store: bool) -> AccessTiming {
        let miss = !self.threads[tid].cache.contains(line);
        let in_neighbor = miss && self.neighbor_has(tid, line);
        let t = &mut self.threads[tid];
        let bw = &mut self.stats.bw;
        let acc = if store {
            t.timer.store(&mut t.cache, line, in_neighbor, &self.cfg, bw)
        } else {
            t.timer.load(&mut t.cache, line, in_neighbor, &self.cfg, bw)
        };
        debug_assert!(miss || acc.hit, "a skipped neighbour probe fed a miss");
        if let Some(victim) = acc.writeback {
            self.handle_dirty_victim(tid, victim);
        }
        acc
    }

    fn invalidate_in_others(&mut self, tid: usize, line: LineAddr) {
        for j in self.others(tid) {
            self.threads[j].cache.invalidate(line);
        }
    }

    fn exact_dep_size(&self, j: usize, exact_w: &AddrSet<LineAddr>) -> u64 {
        let o = &self.threads[j];
        exact_w
            .iter()
            .filter(|l| o.read_set.contains(l) || o.write_set.contains(l))
            .count() as u64
    }

    fn handle_dirty_victim(&mut self, tid: usize, victim: LineAddr) {
        let speculative =
            self.threads[tid].speculative() && self.threads[tid].write_set.contains(&victim);
        if speculative {
            // §6.2.2: speculative dirty evictions go to the overflow area.
            self.threads[tid].overflow.spill(victim);
            self.stats.overflow_spills += 1;
            if let Some(obs) = &self.h.obs {
                let t = &self.threads[tid];
                let now = t.timer.now();
                obs.on_overflow_spill(tid as u32, now, t.overflow.len() as u64);
                obs.span_complete(tid as u32, SpanKind::Spill, now, now, t.overflow.len() as u64);
            }
            self.stats.bw.record(MsgClass::Ub, self.cfg.msg_sizes.line_msg);
            if self.scheme.uses_signatures() {
                let t = &mut self.threads[tid];
                if let Some(v) = t.version {
                    t.bdm.note_overflow(v);
                }
            }
        } else {
            self.stats.bw.record(MsgClass::Wb, self.cfg.msg_sizes.line_msg);
        }
    }

    /// Feeds the auditor the whole machine state: the Set Restriction for
    /// every cache/BDM pair, and signature-vs-oracle containment for every
    /// speculative thread (a signature may alias, but an address in the
    /// exact read/write set missing from the signature is a false-negative
    /// hazard).
    fn audit_state(&mut self, cycle: u64) {
        if !self.h.auditor.enabled() {
            return;
        }
        for j in 0..self.threads.len() {
            let t = &self.threads[j];
            self.h.auditor.audit_set_restriction(j, cycle, &t.bdm, &t.cache);
            if !t.speculative() {
                continue;
            }
            let Some(v) = t.version else { continue };
            let r = t.bdm.read_signature(v);
            let w = t.bdm.write_signature(v);
            let missing = t
                .read_set
                .iter()
                .find(|l| !r.contains_line(**l))
                .map(|l| format!("read-set line {l} is not in the R signature"))
                .or_else(|| {
                    t.write_set
                        .iter()
                        .find(|l| !w.contains_line(**l))
                        .map(|l| format!("write-set line {l} is not in the W signature"))
                });
            self.h.auditor.audit_containment(j, cycle, missing);
        }
    }

    fn consult_overflow(&mut self, tid: usize, a: Addr, line: LineAddr) {
        match self.scheme {
            Scheme::Bulk | Scheme::BulkPartial => {
                let must = {
                    let t = &self.threads[tid];
                    match t.version {
                        Some(v) => t.bdm.must_check_overflow(v, a),
                        None => false,
                    }
                };
                if must {
                    let _ = self.threads[tid].overflow.lookup(line);
                    self.stats.bw.record(MsgClass::Ub, self.cfg.msg_sizes.addr_msg);
                }
            }
            Scheme::Lazy
                if !self.threads[tid].overflow.is_empty() => {
                    let _ = self.threads[tid].overflow.lookup(line);
                    self.stats.bw.record(MsgClass::Ub, self.cfg.msg_sizes.addr_msg);
                }
            _ => {}
        }
    }
}

/// Transaction nesting depth immediately before executing `ops[pc]`,
/// counting from the outer `Begin` at `tx_start_pc`.
fn depth_at(ops: &[TmOp], pc: usize, tx_start_pc: usize) -> usize {
    let mut depth = 0usize;
    for op in &ops[tx_start_pc..pc] {
        match op {
            TmOp::Begin => depth += 1,
            TmOp::End => depth -= 1,
            _ => {}
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulk_trace::patterns::{fig12a_livelock, fig12b_eager_only_squash};
    use bulk_trace::{profiles, ThreadTrace};

    fn cfg() -> SimConfig {
        SimConfig::tm_default()
    }

    fn simple_workload(ops: Vec<Vec<TmOp>>) -> TmWorkload {
        TmWorkload {
            name: "test".into(),
            threads: ops.into_iter().map(|ops| ThreadTrace { ops }).collect(),
        }
    }

    #[test]
    fn independent_transactions_commit_without_squash() {
        let w = simple_workload(vec![
            vec![TmOp::Begin, TmOp::Write(Addr::new(0x1000)), TmOp::End],
            vec![TmOp::Begin, TmOp::Write(Addr::new(0x8000)), TmOp::End],
        ]);
        for s in Scheme::ALL {
            let stats = run_tm(&w, s, &cfg());
            assert_eq!(stats.commits, 2, "{s}");
            assert_eq!(stats.squashes, 0, "{s}");
        }
    }

    #[test]
    fn conflicting_transactions_squash_in_lazy_and_bulk() {
        // Both threads write the same line; one must restart.
        let mk = || {
            vec![
                TmOp::Begin,
                TmOp::Write(Addr::new(0x1000)),
                TmOp::Compute(100),
                TmOp::End,
            ]
        };
        for s in [Scheme::Lazy, Scheme::Bulk, Scheme::BulkPartial] {
            let stats = run_tm(&simple_workload(vec![mk(), mk()]), s, &cfg());
            assert_eq!(stats.commits, 2, "{s}");
            assert!(stats.squashes + stats.partial_rollbacks >= 1, "{s}");
        }
    }

    #[test]
    fn naive_eager_livelocks_on_fig12a() {
        let w = fig12a_livelock(50, 400);
        let mut m = TmMachine::new(&w, Scheme::EagerNaive, &cfg());
        m.set_squash_cap(2_000);
        let stats = m.run();
        assert!(stats.livelocked, "naive eager should livelock: {stats:?}");
    }

    #[test]
    fn fixed_eager_makes_progress_on_fig12a() {
        let w = fig12a_livelock(50, 400);
        let stats = run_tm(&w, Scheme::Eager, &cfg());
        assert!(!stats.livelocked);
        assert_eq!(stats.commits, 100);
        assert!(stats.stalls > 0, "the fix stalls the shorter transaction");
    }

    #[test]
    fn lazy_and_bulk_make_progress_on_fig12a() {
        let w = fig12a_livelock(30, 400);
        for s in [Scheme::Lazy, Scheme::Bulk] {
            let stats = run_tm(&w, s, &cfg());
            assert!(!stats.livelocked, "{s}");
            assert_eq!(stats.commits, 60, "{s}");
        }
    }

    #[test]
    fn fig12b_squashes_in_eager_but_not_lazy() {
        let w = fig12b_eager_only_squash(10);
        let eager = run_tm(&w, Scheme::Eager, &cfg());
        let lazy = run_tm(&w, Scheme::Lazy, &cfg());
        // Eager pays (squash or stall) on nearly every iteration; Lazy only
        // on the few iterations where phase drift makes the overlap real.
        assert!(
            eager.squashes + eager.stalls >= 5,
            "eager must pay for the conflict: {eager:?}"
        );
        assert!(
            lazy.squashes < eager.squashes + eager.stalls,
            "lazy {lazy:?} vs eager {eager:?}"
        );
    }

    #[test]
    fn non_tx_write_squashes_speculative_reader() {
        let w = simple_workload(vec![
            vec![
                TmOp::Begin,
                TmOp::Read(Addr::new(0x1000)),
                TmOp::Compute(5000),
                TmOp::End,
            ],
            vec![TmOp::Compute(100), TmOp::Write(Addr::new(0x1000))],
        ]);
        for s in [Scheme::Lazy, Scheme::Bulk] {
            let stats = run_tm(&w, s, &cfg());
            assert_eq!(stats.commits, 1, "{s}");
            assert_eq!(stats.squashes, 1, "{s}");
            assert!(stats.individual_invalidations >= 1, "{s}");
        }
    }

    #[test]
    fn commit_bandwidth_bulk_below_lazy_on_real_profile() {
        let p = profiles::tm_profile("mc").unwrap();
        let w = p.generate(11);
        let lazy = run_tm(&w, Scheme::Lazy, &cfg());
        let bulk = run_tm(&w, Scheme::Bulk, &cfg());
        assert!(lazy.bw.commit_bytes() > 0);
        assert!(bulk.bw.commit_bytes() > 0);
        assert!(
            (bulk.bw.commit_bytes() as f64) < 0.7 * lazy.bw.commit_bytes() as f64,
            "bulk {} vs lazy {}",
            bulk.bw.commit_bytes(),
            lazy.bw.commit_bytes()
        );
    }

    #[test]
    fn profile_run_produces_sane_characterization() {
        let p = profiles::tm_profile("sjbb2k").unwrap();
        let w = p.generate(5);
        let stats = run_tm(&w, Scheme::Bulk, &cfg());
        assert_eq!(stats.commits as usize, p.threads * p.txs_per_thread);
        // Footprints near the Table 7 targets.
        assert!((stats.avg_rd_set() - p.rd_lines).abs() < p.rd_lines * 0.5);
        assert!((stats.avg_wr_set() - p.wr_lines).abs() < p.wr_lines * 0.5);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn bulk_overflow_accesses_below_lazy() {
        let p = profiles::tm_profile("cb").unwrap();
        let w = p.generate(3);
        let lazy = run_tm(&w, Scheme::Lazy, &cfg());
        let bulk = run_tm(&w, Scheme::Bulk, &cfg());
        if lazy.overflow_accesses > 0 {
            assert!(
                bulk.overflow_accesses < lazy.overflow_accesses,
                "bulk {} vs lazy {}",
                bulk.overflow_accesses,
                lazy.overflow_accesses
            );
        }
    }

    #[test]
    fn nested_partial_rollback_happens_under_contention() {
        // Thread 0 commits a write to X while thread 1 is in its inner
        // section that reads X: Bulk-Partial rolls back the inner section
        // only.
        let w = simple_workload(vec![
            vec![
                TmOp::Compute(50),
                TmOp::Begin,
                TmOp::Write(Addr::new(0x1000)),
                TmOp::End,
            ],
            vec![
                TmOp::Begin,
                TmOp::Read(Addr::new(0x9000)), // section 0
                TmOp::Begin,
                TmOp::Read(Addr::new(0x1000)), // section 1 reads X
                TmOp::Compute(100_000),
                TmOp::End,
                TmOp::Read(Addr::new(0xa000)),
                TmOp::End,
            ],
        ]);
        let stats = run_tm(&w, Scheme::BulkPartial, &cfg());
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.partial_rollbacks, 1, "{stats:?}");
        assert_eq!(stats.squashes, 0);
    }

    #[test]
    fn overflow_bit_gates_area_lookups() {
        // A transaction whose writes exceed one set's associativity spills
        // speculative dirty lines; subsequent misses on signature-member
        // addresses consult the area, others do not.
        let geom = cfg().geom;
        let sets = geom.num_sets();
        let mut ops = vec![TmOp::Begin];
        // Six writes to lines of the same cache set (assoc = 4): two spill.
        for i in 0..6u32 {
            ops.push(TmOp::Write(Addr::new(i * sets * 64)));
        }
        // A read far away (missing) that is NOT in W: must not touch the
        // area thanks to the membership filter.
        ops.push(TmOp::Read(Addr::new(0x123440)));
        ops.push(TmOp::End);
        let w = simple_workload(vec![ops]);
        let stats = run_tm(&w, Scheme::Bulk, &cfg());
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.overflow_spills, 2, "{stats:?}");
        assert_eq!(
            stats.overflow_accesses, 0,
            "reads outside W never consult the overflow area"
        );
    }

    #[test]
    fn lazy_consults_overflow_on_every_miss_once_spilled() {
        let geom = cfg().geom;
        let sets = geom.num_sets();
        let mut ops = vec![TmOp::Begin];
        for i in 0..6u32 {
            ops.push(TmOp::Write(Addr::new(i * sets * 64)));
        }
        ops.push(TmOp::Read(Addr::new(0x123440))); // miss -> area lookup
        ops.push(TmOp::Read(Addr::new(0x133440))); // miss -> area lookup
        ops.push(TmOp::End);
        let w = simple_workload(vec![ops]);
        let stats = run_tm(&w, Scheme::Lazy, &cfg());
        assert!(stats.overflow_accesses >= 2, "{stats:?}");
    }

    #[test]
    fn eager_stall_releases_on_blocker_commit() {
        // Thread 1 writes A early and holds it; thread 0 (younger in tx
        // progress) tries to write A, stalls, then completes after 1
        // commits.
        let w = simple_workload(vec![
            vec![
                TmOp::Compute(200),
                TmOp::Begin,
                TmOp::Write(Addr::new(0x7000)),
                TmOp::End,
            ],
            vec![
                TmOp::Begin,
                TmOp::Write(Addr::new(0x7000)),
                TmOp::Compute(2000),
                TmOp::End,
            ],
        ]);
        let stats = run_tm(&w, Scheme::Eager, &cfg());
        assert_eq!(stats.commits, 2);
        assert!(stats.stalls >= 1, "{stats:?}");
        assert!(!stats.livelocked);
    }

    #[test]
    fn commit_broadcasts_serialize_on_the_bus() {
        // Two same-length transactions finish simultaneously; the second
        // commit must wait for the first broadcast to drain.
        let mk = || {
            vec![
                TmOp::Begin,
                TmOp::Write(Addr::new(0x9000)),
                TmOp::End,
            ]
        };
        let mk2 = || {
            vec![
                TmOp::Begin,
                TmOp::Write(Addr::new(0xA000)),
                TmOp::End,
            ]
        };
        let c = cfg();
        let stats = run_tm(&simple_workload(vec![mk(), mk2()]), Scheme::Lazy, &c);
        // Both misses cost mem_rt; both commits need arb + broadcast, and
        // they cannot overlap: finish >= mem_rt + 2 * commit_arb.
        assert!(stats.cycles >= c.mem_rt + 2 * c.commit_arb, "{stats:?}");
    }

    #[test]
    fn speculative_dirty_lines_are_invisible_to_other_processors() {
        // Thread 0 writes X speculatively and lingers; thread 1 reads X
        // outside any transaction. The fill must come from memory (mem_rt),
        // not the speculative neighbor copy (neighbor_rt).
        let c = cfg();
        let w = simple_workload(vec![
            vec![
                TmOp::Begin,
                TmOp::Write(Addr::new(0xB000)),
                TmOp::Compute(10_000),
                TmOp::End,
            ],
            vec![TmOp::Compute(500), TmOp::Read(Addr::new(0xB000))],
        ]);
        let stats = run_tm(&w, Scheme::Bulk, &c);
        assert_eq!(stats.commits, 1);
        // Thread 1's clock: 500 compute + mem_rt (nacked by the owner).
        // If the speculative copy had been supplied it would be 500 + 8.
        // We can't read per-thread clocks here, so assert via traffic:
        // the fill happened without a Coh message (no cache-to-cache).
        assert_eq!(stats.bw.bytes(bulk_mem::MsgClass::Coh), 0, "{stats:?}");
    }

    #[test]
    fn deterministic_across_runs() {
        let p = profiles::tm_profile("lu").unwrap();
        let w = p.generate(2);
        let a = run_tm(&w, Scheme::Bulk, &cfg());
        let b = run_tm(&w, Scheme::Bulk, &cfg());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.squashes, b.squashes);
        assert_eq!(a.bw.total(), b.bw.total());
    }

    #[test]
    fn escalation_serializes_past_the_naive_eager_livelock() {
        // With the serialized fallback armed, even the naive-eager dueling
        // increments of Fig. 12(a) finish: after a few squashes one thread
        // escalates, runs non-speculatively under the serial token, and the
        // system drains.
        let w = fig12a_livelock(50, 400);
        let mut m = TmMachine::new(&w, Scheme::EagerNaive, &cfg());
        m.set_escalation_threshold(Some(4));
        let stats = m.run();
        assert!(!stats.livelocked, "escalation must break the livelock: {stats:?}");
        assert_eq!(stats.commits, 100);
        assert!(stats.escalations > 0, "{stats:?}");
        assert!(stats.serialized_commits > 0, "{stats:?}");
    }

    #[test]
    fn try_with_signature_reports_typed_trace_error() {
        let w = TmWorkload {
            name: "bad".into(),
            threads: vec![ThreadTrace { ops: vec![TmOp::End] }],
        };
        let err = TmMachine::try_new(&w, Scheme::Bulk, &cfg()).err().expect("must fail");
        assert!(matches!(
            err,
            bulk_chaos::MachineError::Trace { thread: 0, .. }
        ));
        assert!(err.to_string().contains("thread 0"), "{err}");
    }

    #[test]
    fn try_new_rejects_empty_workloads() {
        let w = TmWorkload { name: "empty".into(), threads: vec![] };
        let err = TmMachine::try_new(&w, Scheme::Lazy, &cfg()).err().expect("must fail");
        assert_eq!(err, bulk_chaos::MachineError::EmptyWorkload { machine: "tm" });
    }

    #[test]
    fn chaos_run_is_deterministic_and_clean_under_audit() {
        let p = profiles::tm_profile("lu").unwrap();
        let w = p.generate(2);
        let run = |seed: u64| {
            let mut m = TmMachine::new(&w, Scheme::Bulk, &cfg());
            m.set_chaos(bulk_chaos::FaultPlan::seeded(seed));
            m.enable_audit();
            m.try_run().expect("chaos run completes")
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.chaos, b.chaos);
        assert!(
            a.violations.is_empty(),
            "chaos must cost time, never correctness: {:?}",
            a.violations
        );
        assert!(a.audit_checks > 0);
        assert_eq!(
            a.chaos.corruptions_injected, a.chaos.corruptions_detected,
            "every injected signature flip must be caught by the CRC: {:?}",
            a.chaos
        );
        assert_eq!(a.chaos.silent_corruptions, 0);
        assert!(a.chaos.total_injected() > 0, "the plan must actually inject: {:?}", a.chaos);
        assert!(!a.livelocked);
        assert_eq!(a.commits, (p.threads * p.txs_per_thread) as u64);
    }

    #[test]
    fn serializability_invariant_no_residual_conflicts() {
        // After any run, committed reads must never have overlapped a
        // write committed during the transaction's lifetime — enforced by
        // construction; here we spot-check that all schemes agree on commit
        // counts for the same workload (no lost transactions).
        let p = profiles::tm_profile("mc").unwrap();
        let w = p.generate(4);
        let expected = (p.threads * p.txs_per_thread) as u64;
        for s in [Scheme::Eager, Scheme::Lazy, Scheme::Bulk, Scheme::BulkPartial] {
            let stats = run_tm(&w, s, &cfg());
            assert_eq!(stats.commits, expected, "{s}");
        }
    }

    /// A liveness config whose backoff ladder is a no-op: detection only,
    /// zero timing perturbation — what the CLI's `--watchdog-ticks` arms.
    fn watchdog_only() -> bulk_live::LivenessConfig {
        bulk_live::LivenessConfig {
            backoff: bulk_live::BackoffConfig {
                base: 0,
                cap: 0,
                ..bulk_live::BackoffConfig::default()
            },
            ..bulk_live::LivenessConfig::default()
        }
    }

    #[test]
    fn watchdog_diagnoses_the_naive_eager_livelock_deterministically() {
        // The Fig. 12(a) ping-pong, previously only *demonstrated* by
        // burning the squash cap, is now *diagnosed*: the watchdog names
        // the squash cycle after a dozen alternations, long before the cap.
        let w = fig12a_livelock(50, 400);
        let run = || {
            let mut m = TmMachine::new(&w, Scheme::EagerNaive, &cfg());
            m.set_squash_cap(1_000_000);
            m.enable_liveness(watchdog_only());
            m.try_run().expect("watchdog abort is a clean stop")
        };
        let a = run();
        let b = run();
        assert!(a.livelocked, "the trip aborts the run: {a:?}");
        assert_eq!(a.liveness.watchdog_trips, 1);
        let v = &a.liveness_violations[0];
        assert_eq!(v.kind, bulk_live::LivenessKind::Livelock);
        assert!(v.detail.contains("squash cycle"), "{}", v.detail);
        assert_eq!(
            a.liveness_violations, b.liveness_violations,
            "the diagnosis must be reproducible"
        );
        assert!(
            a.squashes < 1_000,
            "the watchdog must trip long before the squash cap: {}",
            a.squashes
        );
    }

    #[test]
    fn randomized_backoff_alone_breaks_the_symmetric_livelock() {
        // With only the age-weighted randomized backoff armed (watchdog
        // thresholds pushed out of reach, no escalation), the dueling
        // transactions desynchronize and drain — the classic
        // backoff-beats-livelock result.
        let w = fig12a_livelock(50, 400);
        let mut m = TmMachine::new(&w, Scheme::EagerNaive, &cfg());
        m.set_squash_cap(1_000_000);
        let mut lc = bulk_live::LivenessConfig::default();
        lc.seed = 42;
        lc.watchdog.ping_pong_rounds = 1_000_000;
        lc.watchdog.starvation_commits = u64::MAX;
        m.enable_liveness(lc);
        let stats = m.try_run().expect("run completes");
        assert!(!stats.livelocked, "{stats:?}");
        assert_eq!(stats.commits, 100);
        assert_eq!(stats.escalations, 0, "no serialized fallback was armed");
        assert!(stats.liveness.backoff_waits > 0);
        assert!(stats.liveness.backoff_cycles > 0);
    }

    /// A machine of `n` one-transaction threads, for the scheduler tests.
    fn scheduler_machine(n: u32) -> TmMachine {
        let threads = (0..n)
            .map(|i| vec![TmOp::Begin, TmOp::Write(Addr::new(i * 4096)), TmOp::End])
            .collect();
        TmMachine::new(&simple_workload(threads), Scheme::Eager, &cfg())
    }

    #[test]
    fn pick_runnable_takes_the_earliest_clock_ties_to_the_lowest_index() {
        let mut m = scheduler_machine(4);
        assert_eq!(m.pick_runnable().unwrap(), Some(0));
        m.threads[0].timer.wait_until(30);
        m.threads[1].timer.wait_until(20);
        m.threads[2].timer.wait_until(10);
        m.threads[3].timer.wait_until(10);
        assert_eq!(m.pick_runnable().unwrap(), Some(2));
        m.threads[2].done = true;
        assert_eq!(m.pick_runnable().unwrap(), Some(3), "a done thread is skipped");
    }

    #[test]
    fn pick_runnable_skips_a_thread_stalled_on_a_blocker_still_in_its_transaction() {
        let mut m = scheduler_machine(3);
        m.threads[1].depth = 1;
        m.threads[1].tx_serial = 5;
        m.threads[0].stalled_on = Some((1, 5));
        assert_eq!(m.pick_runnable().unwrap(), Some(1));
        // The blocker moved on to another transaction: the stall is over.
        m.threads[1].tx_serial = 6;
        assert_eq!(m.pick_runnable().unwrap(), Some(0));
        // The blocker left its transaction.
        m.threads[1].tx_serial = 5;
        m.threads[1].depth = 0;
        assert_eq!(m.pick_runnable().unwrap(), Some(0));
        // The blocker finished.
        m.threads[1].depth = 1;
        m.threads[1].done = true;
        assert_eq!(m.pick_runnable().unwrap(), Some(0));
    }

    #[test]
    fn pick_runnable_schedules_the_serial_token_holder_first() {
        let mut m = scheduler_machine(3);
        m.threads[2].timer.wait_until(1000);
        m.serial_token = Some(2);
        assert_eq!(m.pick_runnable().unwrap(), Some(2));
    }

    #[test]
    fn pick_runnable_reports_a_deadlock_when_every_live_thread_is_blocked() {
        let mut m = scheduler_machine(3);
        m.threads[2].done = true;
        m.threads[2].timer.wait_until(70);
        for (me, other) in [(0, 1), (1, 0)] {
            m.threads[me].depth = 1;
            m.threads[me].tx_serial = 9;
            m.threads[me].stalled_on = Some((other, 9));
        }
        m.threads[1].timer.wait_until(40);
        assert_eq!(m.pick_runnable().unwrap_err(), MachineError::ConflictDeadlock { cycle: 70 });
        // With every thread done there is nothing to run, and no deadlock.
        m.threads[0].done = true;
        m.threads[1].done = true;
        assert_eq!(m.pick_runnable().unwrap(), None);
    }

    #[test]
    fn orphaned_serial_token_is_reported_and_released() {
        // The promoted token-protocol invariant: a finished thread must
        // never hold the serial token. Under audit the breach becomes a
        // structured violation and the token is released so the run drains.
        let w = simple_workload(vec![
            vec![TmOp::Begin, TmOp::Write(Addr::new(0)), TmOp::End],
            vec![TmOp::Begin, TmOp::Write(Addr::new(4096)), TmOp::End],
        ]);
        let mut m = TmMachine::new(&w, Scheme::Eager, &cfg());
        m.enable_audit();
        m.serial_token = Some(0);
        m.threads[0].done = true;
        let picked = m.pick_runnable().expect("not a deadlock");
        assert_eq!(m.serial_token, None, "orphaned token must be released");
        assert_eq!(picked, Some(1));
        let v = &m.h.auditor.violations()[0];
        assert_eq!(v.kind, InvariantKind::TokenProtocol);
        assert!(v.detail.contains("finished thread"), "{}", v.detail);
    }

    #[test]
    fn double_granted_serial_token_is_reported() {
        let w = simple_workload(vec![
            vec![TmOp::Begin, TmOp::Write(Addr::new(0)), TmOp::End],
            vec![TmOp::Begin, TmOp::Write(Addr::new(4096)), TmOp::End],
        ]);
        let mut m = TmMachine::new(&w, Scheme::Eager, &cfg());
        m.enable_audit();
        m.serial_token = Some(1);
        m.threads[0].escalated = true;
        m.op_begin(0);
        let v = &m.h.auditor.violations()[0];
        assert_eq!(v.kind, InvariantKind::TokenProtocol);
        assert!(v.detail.contains("double-granted"), "{}", v.detail);
    }

    #[test]
    fn escalated_thread_releases_token_under_chaos() {
        // End-to-end serial-token handoff: with chaos perturbations, the
        // liveness engine, and an aggressive escalation threshold, every
        // escalated transaction must finish, hand the token back (zero
        // token-protocol violations), and the machine must drain fully.
        let w = fig12a_livelock(25, 200);
        let run = |seed: u64| {
            let mut m = TmMachine::new(&w, Scheme::EagerNaive, &cfg());
            m.set_escalation_threshold(Some(2));
            m.set_chaos(FaultPlan::seeded(seed));
            m.enable_audit();
            m.enable_liveness(bulk_live::LivenessConfig::default());
            m.try_run().expect("run completes")
        };
        for seed in [13, 14] {
            let stats = run(seed);
            assert!(!stats.livelocked, "seed {seed}: {stats:?}");
            assert_eq!(stats.commits, 50, "seed {seed}");
            assert!(stats.escalations > 0, "seed {seed}");
            assert!(stats.serialized_commits > 0, "seed {seed}");
            assert!(stats.violations.is_empty(), "seed {seed}: {:?}", stats.violations);
            assert!(
                stats.liveness_violations.is_empty(),
                "seed {seed}: {:?}",
                stats.liveness_violations
            );
        }
    }

    #[test]
    fn arbiter_crash_is_survived_with_exactly_once_application() {
        // The commit arbiter crashes mid-broadcast (chaos fault); the
        // re-election holds the bus and the broadcast is still applied
        // once: crashes are counted, and every transaction commits.
        let p = profiles::tm_profile("lu").unwrap();
        let w = p.generate(2);
        let run = |seed: u64| {
            let mut m = TmMachine::new(&w, Scheme::Bulk, &cfg());
            m.set_chaos(FaultPlan::new(bulk_chaos::ChaosConfig::arbiter_crash(seed)));
            m.enable_audit();
            m.enable_liveness(bulk_live::LivenessConfig::default());
            m.try_run().expect("run completes")
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.cycles, b.cycles, "failover must stay deterministic");
        assert!(a.chaos.arbiter_crashes > 0, "the profile must crash: {:?}", a.chaos);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.commits, (p.threads * p.txs_per_thread) as u64);
    }

    #[test]
    fn scripted_double_crash_is_survived() {
        // Two crashes on one broadcast, deterministically: the schedule
        // crashes the arbiter twice during the first commit broadcast.
        // Both re-elections hold the bus, the registry counts both as
        // deliveries a receiver does not apply, and nothing is lost.
        use bulk_chaos::{BroadcastSchedule, ScheduleScript};
        let p = profiles::tm_profile("lu").unwrap();
        let w = p.generate(2);
        let script = ScheduleScript::from_pattern(vec![BroadcastSchedule {
            crashes: 2,
            ..BroadcastSchedule::QUIET
        }]);
        let run = || {
            let obs = Arc::new(Obs::new());
            let mut m = TmMachine::new(&w, Scheme::Bulk, &cfg());
            m.set_chaos(FaultPlan::scripted(script.clone()));
            m.enable_audit();
            m.enable_liveness(bulk_live::LivenessConfig::default());
            m.attach_obs(Arc::clone(&obs));
            (m.try_run().expect("double crash is survived"), obs)
        };
        let (a, obs) = run();
        let (b, _) = run();
        assert_eq!(a.cycles, b.cycles, "scripted runs are deterministic");
        assert_eq!(a.chaos.arbiter_crashes, 2, "{:?}", a.chaos);
        let drops = obs.registry().counter_value("tm.live.dedup_drops");
        assert_eq!(drops, script.expected_dedup_drops());
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert!(a.liveness_violations.is_empty(), "{:?}", a.liveness_violations);
        assert_eq!(a.commits, (p.threads * p.txs_per_thread) as u64);
    }

    #[test]
    fn scripted_crash_while_bus_is_contended_serializes_the_reelection() {
        // Crash-while-bus-occupied: the arbiter dies during thread A's
        // broadcast while other threads are racing to commit. Re-election
        // occupies the bus (bus.acquire serializes it against every other
        // broadcast), so the crash visibly perturbs the machine's timing —
        // but commit order stays total (auditor-checked), every
        // transaction still commits.
        use bulk_chaos::{BroadcastSchedule, ScheduleScript};
        let p = profiles::tm_profile("lu").unwrap();
        let w = p.generate(2);
        let run = |script: ScheduleScript| {
            let mut m = TmMachine::new(&w, Scheme::Bulk, &cfg());
            m.set_chaos(FaultPlan::scripted(script));
            m.enable_audit();
            m.enable_liveness(bulk_live::LivenessConfig::default());
            m.try_run().expect("run completes")
        };
        let quiet = run(ScheduleScript::quiet("quiet"));
        let crashed = run(ScheduleScript::from_pattern(vec![BroadcastSchedule {
            crashes: 1,
            ..BroadcastSchedule::QUIET
        }]));
        assert_eq!(quiet.chaos.arbiter_crashes, 0);
        assert_eq!(crashed.chaos.arbiter_crashes, 1);
        assert_ne!(
            crashed.cycles, quiet.cycles,
            "holding the bus through re-election must perturb global timing"
        );
        for out in [&quiet, &crashed] {
            assert_eq!(out.commits, (p.threads * p.txs_per_thread) as u64);
            assert!(out.violations.is_empty(), "{:?}", out.violations);
        }
    }

    #[test]
    fn checkpoints_count_chaos_context_switches() {
        let p = profiles::tm_profile("mc").unwrap();
        let w = p.generate(3);
        let mut m = TmMachine::new(&w, Scheme::Bulk, &cfg());
        m.set_chaos(FaultPlan::seeded(21));
        m.enable_audit();
        m.enable_liveness(bulk_live::LivenessConfig::default());
        let stats = m.try_run().expect("run completes");
        // One count per forced switch that caught a running version.
        let (checkpoints, switches) =
            (stats.liveness.checkpoints, stats.chaos.forced_context_switches);
        assert!(0 < checkpoints && checkpoints <= switches, "{checkpoints} of {switches}");
        assert!(stats.violations.is_empty(), "{:?}", stats.violations);
    }
}
