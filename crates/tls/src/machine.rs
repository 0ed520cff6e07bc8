//! The TLS machine: ordered speculative tasks on a multiprocessor.
//!
//! Tasks of a [`TlsWorkload`] execute in speculative order on the paper's
//! 4-processor machine (Table 5): a task spawns its successor at its
//! `Spawn` op, tasks commit strictly in order, and a dependence violation
//! squashes the offending task *and all more-speculative tasks* (the
//! cascade). Each processor's BDM holds two version slots, so a processor
//! whose task finished but cannot yet commit starts the next task — which
//! is what makes the Set Restriction's write–write set conflicts (Table 6)
//! reachable.
//!
//! As in the TM runtime, exact word-level sets are tracked as an oracle to
//! classify aliasing artifacts; Bulk's decisions use signatures only.

use std::ops::Range;

use bulk_chaos::{FaultPlan, InvariantKind, MachineError};
use bulk_core::{check_speculative_store, flows, Bdm, CommitEvent, CommitMsg, StoreCheck, VersionId};
use bulk_live::LivenessConfig;
use bulk_obs::{Obs, SpanId, SpanKind};
use bulk_mem::{Addr, AddrSet, Cache, LineAddr, MsgClass, WordAddr};
use bulk_sig::{Signature, SignatureConfig};
use bulk_sim::{CommitRequest, CoreTimer, SimConfig, SimHarness, SquashTail, Victim};
use bulk_trace::{TlsOp, TlsWorkload};

use crate::{TlsScheme, TlsStats};

/// BDM version slots per processor (running + awaiting-commit).
const VERSIONS_PER_PROC: usize = 2;

/// Restarts of one task before it escalates to head-serialized execution.
const DEFAULT_ESCALATION_THRESHOLD: u32 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    NotStarted,
    Ready,
    Running,
    WaitingCommit,
    Committed,
}

struct Task {
    ops: Vec<TlsOp>,
    pc: usize,
    status: Status,
    proc: Option<usize>,
    version: Option<VersionId>,
    r_words: AddrSet<WordAddr>,
    w_words: AddrSet<WordAddr>,
    /// Exact snapshot of `w_words` at the spawn point (Partial Overlap).
    w_prespawn: AddrSet<WordAddr>,
    ready_at: Option<u64>,
    finish_time: u64,
    /// Spawn-time invalidation payload for this task's processor (§6.3):
    /// the parent's write signature / exact lines at spawn.
    spawn_inval_sig: Option<Signature>,
    spawn_inval_lines: Vec<LineAddr>,
    restarts: u32,
    /// Graceful degradation: after enough restarts the task only (re)starts
    /// once it is the oldest uncommitted task — at the head it is
    /// effectively non-speculative and can no longer be squashed.
    escalated: bool,
    /// Trace span of the current execution attempt ([`SpanId::DROPPED`]
    /// when tracing is off or the task is not in flight).
    section_span: SpanId,
}

impl Task {
    fn in_flight(&self) -> bool {
        matches!(self.status, Status::Running | Status::WaitingCommit)
    }

    fn reads_or_writes(&self, w: WordAddr) -> bool {
        self.r_words.contains(&w) || self.w_words.contains(&w)
    }
}

struct Proc {
    timer: CoreTimer,
    cache: Cache,
    bdm: Bdm,
    running: Option<usize>,
}

/// The simulated TLS multiprocessor. Construct with [`TlsMachine::new`],
/// run with [`TlsMachine::run`] (or use [`run_tls`]).
pub struct TlsMachine {
    cfg: SimConfig,
    scheme: TlsScheme,
    procs: Vec<Proc>,
    tasks: Vec<Task>,
    oldest_uncommitted: usize,
    /// The next task to start for the first time. With
    /// `oldest_uncommitted` it bounds the in-flight window (see
    /// [`TlsMachine::window`]).
    next_unstarted: usize,
    last_commit_finish: u64,
    /// Commit bus and instruments (chaos, auditor, obs, liveness), with
    /// the pipeline stages shared with the TM machine.
    h: SimHarness,
    stats: TlsStats,
    /// Restarts before a task escalates to head-serialized execution
    /// (`None` disables the fallback).
    escalation: Option<u32>,
}

/// Runs `workload` under `scheme` and returns the collected statistics.
pub fn run_tls(workload: &TlsWorkload, scheme: TlsScheme, cfg: &SimConfig) -> TlsStats {
    TlsMachine::new(workload, scheme, cfg).run()
}

/// [`run_tls`] with an observability bundle attached: metrics land in
/// `obs`'s registry under the `tls.` prefix and protocol events in its
/// event log (see [`TlsMachine::attach_obs`]).
pub fn run_tls_observed(
    workload: &TlsWorkload,
    scheme: TlsScheme,
    cfg: &SimConfig,
    obs: std::sync::Arc<Obs>,
) -> TlsStats {
    let mut m = TlsMachine::new(workload, scheme, cfg);
    m.attach_obs(obs);
    m.run()
}

/// Executes the workload sequentially (the Fig. 10 baseline): all tasks in
/// order on one processor, no speculation overheads. Returns total cycles.
pub fn run_tls_sequential(workload: &TlsWorkload, cfg: &SimConfig) -> u64 {
    let mut timer = CoreTimer::new();
    let mut cache = Cache::new(cfg.geom);
    let mut bw = bulk_mem::BandwidthStats::new();
    for task in &workload.tasks {
        for op in &task.ops {
            match *op {
                TlsOp::Compute(n) => timer.compute(u64::from(n), cfg),
                TlsOp::Read(a) => {
                    timer.load(&mut cache, a.line(cfg.geom.line_bytes()), false, cfg, &mut bw);
                }
                TlsOp::Write(a) => {
                    timer.store(&mut cache, a.line(cfg.geom.line_bytes()), false, cfg, &mut bw);
                }
                TlsOp::Spawn => {}
            }
        }
    }
    timer.now()
}

impl TlsMachine {
    /// Builds a machine with the paper's S14 word-granularity signatures.
    ///
    /// # Panics
    ///
    /// Panics if the workload has no tasks or a task trace is malformed;
    /// use [`TlsMachine::try_new`] for a typed error instead.
    pub fn new(workload: &TlsWorkload, scheme: TlsScheme, cfg: &SimConfig) -> Self {
        TlsMachine::try_new(workload, scheme, cfg)
            .unwrap_or_else(|e| panic!("invalid TLS workload: {e}"))
    }

    /// Fallible construction: returns a typed [`MachineError`] when the
    /// workload is empty or a task trace fails validation.
    pub fn try_new(
        workload: &TlsWorkload,
        scheme: TlsScheme,
        cfg: &SimConfig,
    ) -> Result<Self, MachineError> {
        TlsMachine::try_with_signature(workload, scheme, cfg, SignatureConfig::s14_tls())
    }

    /// Builds a machine with an explicit signature configuration.
    ///
    /// # Panics
    ///
    /// Panics if the workload has no tasks, a task trace is malformed, or
    /// the signature is not word-granularity.
    pub fn with_signature(
        workload: &TlsWorkload,
        scheme: TlsScheme,
        cfg: &SimConfig,
        sig: SignatureConfig,
    ) -> Self {
        TlsMachine::try_with_signature(workload, scheme, cfg, sig)
            .unwrap_or_else(|e| panic!("invalid TLS workload: {e}"))
    }

    /// Fallible construction with an explicit signature configuration.
    pub fn try_with_signature(
        workload: &TlsWorkload,
        scheme: TlsScheme,
        cfg: &SimConfig,
        sig: SignatureConfig,
    ) -> Result<Self, MachineError> {
        if workload.tasks.is_empty() {
            return Err(MachineError::EmptyWorkload { machine: "tls" });
        }
        assert_eq!(
            sig.granularity(),
            bulk_sig::Granularity::Word,
            "TLS disambiguation is word-granularity"
        );
        let sig_config = sig.into_shared();
        let procs = (0..cfg.num_procs)
            .map(|_| Proc {
                timer: CoreTimer::new(),
                cache: Cache::new(cfg.geom),
                bdm: Bdm::new_shared(sig_config.clone(), cfg.geom, VERSIONS_PER_PROC),
                running: None,
            })
            .collect();
        let mut tasks = Vec::with_capacity(workload.tasks.len());
        for (i, t) in workload.tasks.iter().enumerate() {
            t.validate().map_err(|source| MachineError::Trace { thread: i, source })?;
            tasks.push(Task {
                ops: t.ops.clone(),
                pc: 0,
                status: Status::NotStarted,
                proc: None,
                version: None,
                r_words: AddrSet::default(),
                w_words: AddrSet::default(),
                w_prespawn: AddrSet::default(),
                ready_at: None,
                finish_time: 0,
                spawn_inval_sig: None,
                spawn_inval_lines: Vec::new(),
                restarts: 0,
                escalated: false,
                section_span: SpanId::DROPPED,
            });
        }
        let mut m = TlsMachine {
            cfg: cfg.clone(),
            scheme,
            // The auditor watches processors; liveness watches tasks.
            h: SimHarness::new("tls.", scheme.to_string(), cfg.num_procs, tasks.len()),
            procs,
            tasks,
            oldest_uncommitted: 0,
            next_unstarted: 0,
            last_commit_finish: 0,
            stats: TlsStats::default(),
            escalation: Some(DEFAULT_ESCALATION_THRESHOLD),
        };
        m.tasks[0].ready_at = Some(0);
        Ok(m)
    }

    /// Overrides the per-task escalation threshold (`None` disables the
    /// head-serialized fallback entirely).
    pub fn set_escalation_threshold(&mut self, threshold: Option<u32>) {
        self.escalation = threshold;
    }

    /// Attaches an observability bundle: all protocol steps are mirrored
    /// into metrics under the `tls.` prefix and into the shared event log,
    /// and every squash is attributed against the exact oracle.
    pub fn attach_obs(&mut self, obs: std::sync::Arc<Obs>) {
        self.h.attach_obs(obs);
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
    /// forward-progress watchdog, and the failable commit arbiter
    /// (consulted by an armed chaos plan's `arbiter_crash` fault). Call
    /// *after* [`TlsMachine::set_chaos`] so the backoff jitter inherits the
    /// chaos seed; with `cfg.seed == 0` and chaos armed, the chaos seed is
    /// used.
    pub fn enable_liveness(&mut self, cfg: LivenessConfig) {
        self.h.enable_liveness(cfg);
    }

    /// Enables the runtime invariant auditor; violations are collected in
    /// [`TlsStats::violations`] instead of panicking.
    pub fn enable_audit(&mut self) {
        self.h.enable_audit();
    }

    /// Runs the machine to completion and returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics on a typed machine error (see [`TlsMachine::try_run`]).
    pub fn run(self) -> TlsStats {
        self.try_run().unwrap_or_else(|e| panic!("TLS run failed: {e}"))
    }

    /// Runs the machine to completion, surfacing machine-level failures
    /// (lost progress, malformed commit payloads) as typed errors rather
    /// than panics.
    pub fn try_run(mut self) -> Result<TlsStats, MachineError> {
        let op_total: usize = self.tasks.iter().map(|t| t.ops.len() + 1).sum();
        let budget = (op_total as u64 + 1000) * 200;
        let mut steps = 0u64;
        while self.oldest_uncommitted < self.tasks.len() {
            steps += 1;
            if steps >= budget {
                return Err(MachineError::NoProgress {
                    steps,
                    context: "TLS scheduling budget exhausted",
                });
            }
            if self.h.live.as_ref().is_some_and(|l| l.tripped()) {
                // The watchdog tripped: the run cannot make progress, so it
                // aborts with a diagnosis instead of burning the budget.
                break;
            }
            self.try_commits()?;
            if self.oldest_uncommitted >= self.tasks.len() {
                break;
            }
            self.assign_tasks();
            let Some(p) = self.pick_proc() else {
                // Nothing runnable: the oldest task must be committable.
                if self.tasks[self.oldest_uncommitted].status != Status::WaitingCommit {
                    return Err(MachineError::NoProgress {
                        steps,
                        context: "no runnable processor and nothing to commit",
                    });
                }
                continue;
            };
            self.step(p);
            debug_assert!(self.window_holds(), "in-flight window invariant broken after a step");
            if let Some(live) = &mut self.h.live {
                live.on_tick(self.procs[p].timer.now());
            }
        }
        self.stats.cycles = self
            .procs
            .iter()
            .map(|p| p.timer.now())
            .max()
            .unwrap_or(0)
            .max(self.last_commit_finish);
        // The bus lane (actor == num_procs) carries commit broadcasts and
        // is accounted separately from the per-processor timelines.
        let totals: Vec<u64> = self.procs.iter().map(|p| p.timer.now()).collect();
        let tail = self.h.drain(&totals);
        self.stats.chaos = tail.chaos;
        self.stats.audit_checks = tail.audit_checks;
        self.stats.violations = tail.violations;
        self.stats.liveness = tail.liveness;
        self.stats.liveness_violations = tail.liveness_violations;
        Ok(self.stats)
    }

    fn pick_proc(&self) -> Option<usize> {
        self.procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.running.is_some())
            .min_by_key(|(i, p)| (p.timer.now(), *i))
            .map(|(i, _)| i)
    }

    /// The in-flight window: the index range holding every `Ready`,
    /// `Running` and `WaitingCommit` task. Tasks start in index order and
    /// commit in index order, a squash leaves its victim `Ready` (never
    /// `NotStarted`) and a cascade stops at the first `NotStarted` task,
    /// so everything below the window is `Committed` and everything from
    /// its end on is `NotStarted` (DESIGN.md §15). The version budget
    /// bounds its length by `procs × VERSIONS_PER_PROC`, plus the head
    /// task while it commits. Scans that used to walk `self.tasks` walk
    /// this; debug builds assert each one against the full scan.
    fn window(&self) -> Range<usize> {
        self.oldest_uncommitted..self.next_unstarted
    }

    /// The window invariant and its length bound, checked over the whole
    /// task vector (debug builds only).
    fn window_holds(&self) -> bool {
        let committed = &self.tasks[..self.oldest_uncommitted];
        let unstarted = &self.tasks[self.next_unstarted..];
        committed.iter().all(|t| t.status == Status::Committed)
            && unstarted.iter().all(|t| t.status == Status::NotStarted)
            && self.window().len() <= self.procs.len() * VERSIONS_PER_PROC + 1
    }

    fn tasks_on_proc(&self, p: usize) -> usize {
        let count_in = |range: Range<usize>| {
            self.tasks[range]
                .iter()
                .filter(|t| {
                    t.proc == Some(p)
                        && matches!(t.status, Status::Ready | Status::Running | Status::WaitingCommit)
                })
                .count()
        };
        let n = count_in(self.window());
        debug_assert_eq!(n, count_in(0..self.tasks.len()), "tasks_on_proc: window vs full scan");
        n
    }

    fn assign_tasks(&mut self) {
        // 1. Resume restarted (Ready) tasks on their affined processors.
        for p in 0..self.procs.len() {
            if self.procs[p].running.is_some() {
                continue;
            }
            let ready_in = |mut range: Range<usize>| {
                range.find(|&i| {
                    let t = &self.tasks[i];
                    t.status == Status::Ready
                        && t.proc == Some(p)
                        // An escalated task waits for the head: once it is
                        // the oldest uncommitted task nothing can squash it.
                        && (!t.escalated || i == self.oldest_uncommitted)
                })
            };
            let ready = ready_in(self.window());
            debug_assert_eq!(ready, ready_in(0..self.tasks.len()), "ready search: window vs full scan");
            if let Some(i) = ready {
                self.start_on(p, i, false);
            }
        }
        // 2. Start new tasks in order on free processors (lowest clock
        // first), respecting the per-processor version budget.
        loop {
            let i = self.next_unstarted;
            debug_assert_eq!(
                (i < self.tasks.len()).then_some(i),
                self.tasks.iter().position(|t| t.status == Status::NotStarted),
                "next_unstarted vs full scan"
            );
            if self.tasks.get(i).is_none_or(|t| t.ready_at.is_none()) {
                return;
            }
            let Some(p) = self
                .procs
                .iter()
                .enumerate()
                .filter(|(q, p)| p.running.is_none() && self.tasks_on_proc(*q) < VERSIONS_PER_PROC)
                .min_by_key(|(q, p)| (p.timer.now(), *q))
                .map(|(q, _)| q)
            else {
                return;
            };
            self.tasks[i].proc = Some(p);
            self.start_on(p, i, true);
            self.next_unstarted += 1;
        }
    }

    fn start_on(&mut self, p: usize, i: usize, fresh: bool) {
        // An escalated task is only non-speculative at the head; (re)starting
        // it anywhere else would let it be squashed again, defeating the
        // head-serialized fallback.
        let at_head = !self.tasks[i].escalated || i == self.oldest_uncommitted;
        let now = self.procs[p].timer.now();
        self.h.check_token_protocol(at_head, p, now, "escalated task started off the head");
        let t = &mut self.tasks[i];
        t.status = Status::Running;
        t.pc = 0;
        self.procs[p].running = Some(i);
        if fresh {
            let ready_at = t.ready_at.expect("spawned before start");
            self.procs[p].timer.wait_until(ready_at + self.cfg.spawn_overhead);
            if self.scheme.uses_signatures() {
                let v = self.procs[p].bdm.alloc_version().expect("version budget enforced");
                self.tasks[i].version = Some(v);
            }
            // Partial Overlap spawn-time invalidation: drop stale clean
            // copies of everything the parent wrote before the spawn.
            if self.scheme.partial_overlap() {
                if let Some(sig) = self.tasks[i].spawn_inval_sig.take() {
                    let inv = flows::invalidate_clean_matching(&sig, &mut self.procs[p].cache);
                    self.stats.spawn_invalidations += inv.len() as u64;
                }
                let lines = std::mem::take(&mut self.tasks[i].spawn_inval_lines);
                for l in lines {
                    if self.procs[p].cache.state_of(l) == Some(bulk_mem::LineState::Clean) {
                        self.procs[p].cache.invalidate(l);
                        self.stats.spawn_invalidations += 1;
                    }
                }
            }
        }
        if self.scheme.uses_signatures() {
            let v = self.tasks[i].version.expect("version allocated");
            self.procs[p].bdm.set_running(Some(v));
        }
        if let Some(obs) = &self.h.obs {
            self.tasks[i].section_span =
                obs.span_begin(p as u32, SpanKind::Section, self.procs[p].timer.now(), i as u64);
        }
    }

    fn step(&mut self, p: usize) {
        let i = self.procs[p].running.expect("running task");
        if self.h.chaos.is_some() {
            self.chaos_perturb(p);
        }
        if self.tasks[i].pc >= self.tasks[i].ops.len() {
            self.finish_task(p, i);
            self.h.auditor.observe_clock(p, self.procs[p].timer.now());
            return;
        }
        let op = self.tasks[i].ops[self.tasks[i].pc];
        match op {
            TlsOp::Compute(n) => {
                self.procs[p].timer.compute(u64::from(n), &self.cfg);
                self.tasks[i].pc += 1;
            }
            TlsOp::Spawn => {
                self.op_spawn(p, i);
            }
            TlsOp::Read(a) => {
                self.op_read(p, i, a);
            }
            TlsOp::Write(a) => {
                self.op_write(p, i, a);
            }
        }
        if self.procs[p].running == Some(i) && self.tasks[i].pc >= self.tasks[i].ops.len() {
            self.finish_task(p, i);
        }
        self.h.auditor.observe_clock(p, self.procs[p].timer.now());
    }

    /// Chaos hook, consulted once per scheduled operation: forced context
    /// switches charge preemption time; forced evictions drop a clean
    /// resident line (stale-copy pressure — a speculative dirty line never
    /// silently leaves the cache).
    fn chaos_perturb(&mut self, p: usize) {
        self.h.forced_ctx_switch(p, &mut self.procs[p].timer);
        if let Some((victim, _)) = self.h.forced_eviction(&self.procs[p].cache, true) {
            self.procs[p].cache.invalidate(victim);
        }
    }

    fn op_spawn(&mut self, p: usize, i: usize) {
        let now = self.procs[p].timer.now();
        self.tasks[i].w_prespawn = self.tasks[i].w_words.clone();
        if self.scheme.partial_overlap() && self.scheme.uses_signatures() {
            let v = self.tasks[i].version.expect("in flight");
            let snapshot = self.procs[p].bdm.begin_shadow(v);
            if let Some(child) = self.tasks.get_mut(i + 1) {
                if child.status == Status::NotStarted {
                    child.spawn_inval_sig = Some(snapshot);
                }
            }
        } else if self.scheme.partial_overlap() {
            let lines: Vec<LineAddr> = self.tasks[i]
                .w_prespawn
                .iter()
                .map(|w| w.line(self.cfg.geom.line_bytes()))
                .collect::<AddrSet<_>>()
                .into_iter()
                .collect();
            if let Some(child) = self.tasks.get_mut(i + 1) {
                if child.status == Status::NotStarted {
                    child.spawn_inval_lines = lines;
                }
            }
        }
        if let Some(child) = self.tasks.get_mut(i + 1) {
            if child.ready_at.is_none() {
                child.ready_at = Some(now);
            }
        }
        self.tasks[i].pc += 1;
        self.procs[p].timer.advance(1);
    }

    fn op_read(&mut self, p: usize, i: usize, a: Addr) {
        let line = a.line(self.cfg.geom.line_bytes());
        self.timed_access(p, line, false);
        self.tasks[i].r_words.insert(a.word());
        if self.scheme.uses_signatures() {
            let v = self.tasks[i].version.expect("in flight");
            self.procs[p].bdm.record_load(v, a);
        }
        self.tasks[i].pc += 1;
    }

    fn op_write(&mut self, p: usize, i: usize, a: Addr) {
        let word = a.word();
        let line = a.line(self.cfg.geom.line_bytes());
        // Eager disambiguation: squash more-speculative tasks that already
        // touched this word.
        if self.scheme.is_eager() {
            let victim_in = |mut range: Range<usize>| {
                range.find(|&j| self.tasks[j].in_flight() && self.tasks[j].reads_or_writes(word))
            };
            let victim = victim_in(i + 1..self.next_unstarted);
            debug_assert_eq!(
                victim,
                victim_in(i + 1..self.tasks.len()),
                "eager victim search: window vs full scan"
            );
            if let Some(j) = victim {
                let now = self.procs[p].timer.now();
                let dep = 1;
                self.squash_cascade(j, now, true, dep, Some(i));
            }
        }
        // Set Restriction enforcement (Bulk schemes only).
        if self.scheme.uses_signatures() {
            let v = self.tasks[i].version.expect("in flight");
            match check_speculative_store(&self.procs[p].bdm, v, a, &self.procs[p].cache) {
                StoreCheck::Proceed { safe_writebacks } => {
                    let n = safe_writebacks.len() as u64;
                    for wb in safe_writebacks {
                        self.procs[p].cache.mark_clean(wb);
                    }
                    self.stats.safe_writebacks += n;
                    self.stats.bw.record(MsgClass::Wb, n * self.cfg.msg_sizes.line_msg);
                }
                StoreCheck::ConflictWithPreempted => {
                    // The preempted owner is older; squash the most
                    // speculative of the two — this running task.
                    self.stats.wr_wr_set_conflicts += 1;
                    let now = self.procs[p].timer.now();
                    // The conflicting owner is a preempted co-resident
                    // version, not an identifiable squasher task.
                    self.squash_cascade(i, now, true, 0, None);
                    return; // task restarted; do not perform the write
                }
            }
        }
        self.timed_access(p, line, true);
        if self.scheme.is_eager() {
            // Eager schemes propagate the update (invalidation) right away.
            self.stats.bw.record(MsgClass::Inv, self.cfg.msg_sizes.addr_msg);
        }
        self.tasks[i].w_words.insert(word);
        if self.scheme.uses_signatures() {
            let v = self.tasks[i].version.expect("in flight");
            self.procs[p].bdm.record_store(v, a);
        }
        self.tasks[i].pc += 1;
    }

    fn finish_task(&mut self, p: usize, i: usize) {
        // An implicit spawn if the task never spawned explicitly.
        if let Some(child) = self.tasks.get_mut(i + 1) {
            if child.ready_at.is_none() {
                child.ready_at = Some(self.procs[p].timer.now());
            }
        }
        self.tasks[i].status = Status::WaitingCommit;
        self.tasks[i].finish_time = self.procs[p].timer.now();
        if let Some(obs) = &self.h.obs {
            // The attempt's processor occupancy ends here; the outcome
            // (Useful/Squashed) is resolved at commit or squash time.
            obs.span_end(self.tasks[i].section_span, self.tasks[i].finish_time);
        }
        self.procs[p].running = None;
        if self.scheme.uses_signatures() {
            self.procs[p].bdm.set_running(None);
        }
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn try_commits(&mut self) -> Result<(), MachineError> {
        while self.oldest_uncommitted < self.tasks.len()
            && self.tasks[self.oldest_uncommitted].status == Status::WaitingCommit
        {
            let i = self.oldest_uncommitted;
            // The commit is a global event at `request`; defer it until
            // every running processor's clock has reached that time, so
            // receivers' access histories are complete up to the commit.
            let request = self.tasks[i].finish_time.max(self.last_commit_finish);
            let laggard = self
                .procs
                .iter()
                .any(|p| p.running.is_some() && p.timer.now() < request);
            if laggard {
                break;
            }
            self.commit_task(i)?;
            self.oldest_uncommitted += 1;
        }
        Ok(())
    }

    fn commit_task(&mut self, i: usize) -> Result<(), MachineError> {
        let p = self.tasks[i].proc.expect("committed task had a processor");
        // A committed task's write sets are read nowhere else again.
        let exact_w_words = std::mem::take(&mut self.tasks[i].w_words);
        let exact_prespawn = std::mem::take(&mut self.tasks[i].w_prespawn);
        let exact_lines: AddrSet<LineAddr> = exact_w_words
            .iter()
            .map(|w| w.line(self.cfg.geom.line_bytes()))
            .collect();

        // Broadcast.
        let (payload, msg) = match self.scheme {
            TlsScheme::Eager => (None, CommitMsg::AddressList),
            TlsScheme::Lazy => (
                Some(exact_w_words.len() as u64 * self.cfg.msg_sizes.addr_msg),
                CommitMsg::AddressList,
            ),
            TlsScheme::Bulk | TlsScheme::BulkNoOverlap => {
                let v = self.tasks[i].version.ok_or(MachineError::MissingVersion {
                    thread: i,
                    pc: self.tasks[i].pc,
                    context: "tls commit",
                })?;
                let sigs = self.procs[p].bdm.commit(v);
                let mut payload = sigs.w.compressed_size_bits().div_ceil(8);
                if let Some(sh) = &sigs.w_sh {
                    payload += sh.compressed_size_bits().div_ceil(8);
                }
                let msg = match sigs.w_sh {
                    Some(sh) => CommitMsg::signatures_with_shadow(sigs.w, sh),
                    None => CommitMsg::signatures(sigs.w),
                };
                (Some(payload), msg)
            }
        };
        // The commit point: the slot was cleared (clear-a-register commit,
        // §5.1), so the task is no longer speculative — mark it committed
        // *before* any cascade squash can audit it in a half-torn state.
        // Only the head task's slot may be cleared, and only from the
        // awaiting-commit state.
        let head_ok = i == self.oldest_uncommitted;
        let slot_ok = self.tasks[i].status == Status::WaitingCommit;
        let at = self.tasks[i].finish_time;
        self.h.check_token_protocol(head_ok, p, at, "commit slot cleared for a non-head task");
        self.h.check_token_protocol(slot_ok, p, at, "commit slot cleared while not awaiting commit");
        self.tasks[i].status = Status::Committed;

        // The committer's processor has moved on to its next task, so a
        // denied arbitration delays only the request, never a processor
        // clock. Commit broadcasts serialize on the bus, so their spans
        // live on a dedicated bus lane (one past the processors).
        let request = CommitRequest {
            committer: i,
            actor: p,
            lane: self.procs.len() as u32,
            at: self.tasks[i].finish_time.max(self.last_commit_finish),
            payload,
            writes: exact_w_words.len() as u64,
            msg,
            section: std::mem::replace(&mut self.tasks[i].section_span, SpanId::DROPPED),
        };
        let b = self.h.broadcast(&self.cfg, &mut self.stats.bw, request);
        let finish = b.finish;
        self.stats.commit_retries += u64::from(b.retries);
        self.last_commit_finish = finish;
        self.stats.commits += 1;
        // TLS tasks commit exactly once and in task order, so the task
        // index is the history identity and the ordinal is always 0.
        self.stats.history.push(CommitEvent { thread: i as u32, ordinal: 0, at: finish });
        if self.tasks[i].escalated {
            self.stats.serialized_commits += 1;
        }
        self.stats.rd_set_words += self.tasks[i].r_words.len() as u64;
        self.stats.wr_set_words += exact_w_words.len() as u64;

        // Partial Overlap (§6.3): the first child was spawned with the words
        // its parent had written by then, so only the parent's later writes
        // (`W_sh`) can violate it. `hits`: does committed word `w` land in
        // task `j`'s exact sets?
        let scheme = self.scheme;
        let overlapped = move |j: usize| j == i + 1 && scheme.partial_overlap();
        let hits = |t: &Task, j: usize, w: &WordAddr| {
            !(overlapped(j) && exact_prespawn.contains(w)) && t.reads_or_writes(*w)
        };

        // Disambiguate against more-speculative in-flight tasks, in order.
        let mut squash_from: Option<(usize, bool, u64)> = None;
        for j in i + 1..self.next_unstarted {
            let t = &self.tasks[j];
            if !t.in_flight() {
                continue;
            }
            let exact_conflict = exact_w_words.iter().any(|w| hits(t, j, w));
            let violated = match scheme {
                // Eager already detected and resolved every violation at
                // store time; by commit the successor's re-reads are in
                // correct order and must not squash again.
                TlsScheme::Eager => false,
                TlsScheme::Lazy => exact_conflict,
                TlsScheme::Bulk | TlsScheme::BulkNoOverlap => {
                    let Some(d) = b.delivered.as_ref() else {
                        return Err(MachineError::MalformedCommit {
                            scheme: "TLS-Bulk",
                            payload: "address-list",
                        });
                    };
                    let sig = match &d.w_sh {
                        Some(sh) if overlapped(j) => sh,
                        _ => &d.w,
                    };
                    let q = t.proc.expect("in-flight task has proc");
                    let v = t.version.ok_or(MachineError::MissingVersion {
                        thread: j,
                        pc: t.pc,
                        context: "tls commit disambiguation",
                    })?;
                    // The signature came off the wire: a config mismatch is
                    // a malformed commit, not a machine panic.
                    let squash = self.procs[q]
                        .bdm
                        .try_disambiguate(v, sig)
                        .map_err(|_| MachineError::MalformedCommit {
                            scheme: "TLS-Bulk",
                            payload: "mismatched-signature-config",
                        })?
                        .squash();
                    self.h.judge(exact_conflict, squash, q, finish, || {
                        format!(
                            "commit of task {i} conflicts with task {j}'s \
                             exact sets but the signature missed it"
                        )
                    })
                }
            };
            if violated {
                let dep = exact_w_words.iter().filter(|w| hits(t, j, w)).count() as u64;
                squash_from = Some((j, exact_conflict, dep));
                break;
            }
        }

        // Apply commit invalidations to every other processor's cache,
        // once per admitted delivery round.
        for round in 0..b.rounds {
            if !self.h.admit(round) {
                continue;
            }
            for q in 0..self.procs.len() {
                if q == p {
                    continue;
                }
                // Squashed tasks' caches get cleaned by the squash itself;
                // the commit invalidation still applies to lines of *other*
                // tasks on that processor, so we apply it everywhere.
                match self.scheme {
                    TlsScheme::Eager | TlsScheme::Lazy => {
                        self.exact_apply_commit(q, &exact_lines);
                    }
                    TlsScheme::Bulk | TlsScheme::BulkNoOverlap => {
                        let w_c = b.w_c().expect("bulk commit delivers signatures");
                        let Proc { bdm, cache, .. } = &mut self.procs[q];
                        let (app, false_inv) =
                            self.h.bulk_apply(q, bdm, cache, w_c, &exact_lines, finish);
                        if round > 0 {
                            // Duplicate delivery: every clean match is gone
                            // already, and a merged line is not refetched.
                            continue;
                        }
                        self.stats.false_invalidations += false_inv;
                        self.stats.line_merges += app.merged.len() as u64;
                        // Merged lines are refetched from the network (Fig. 6).
                        self.stats.bw.record(
                            MsgClass::Fill,
                            app.merged.len() as u64 * self.cfg.msg_sizes.line_msg,
                        );
                    }
                }
            }
        }

        if let Some((j, truly, dep)) = squash_from {
            self.squash_cascade(j, finish, truly, dep, Some(i));
        }
        self.h.commit_cause = SpanId::DROPPED;

        // Committer cleanup.
        if self.scheme.uses_signatures() {
            if let Some(v) = self.tasks[i].version.take() {
                self.procs[p].bdm.free_version(v);
            }
        }

        self.h.auditor.observe_commit(p, finish);
        if let Some(live) = &mut self.h.live {
            live.on_commit(i, finish);
            // A TLS task commits exactly once; it can no longer starve.
            live.on_done(i);
        }
        if self.h.auditor.enabled() {
            // Serializability: any surviving in-flight task whose exact
            // sets overlap the committed (non-overlap-covered) writes
            // should have been squashed — except under Eager, where the
            // violation was already resolved at store time.
            if scheme != TlsScheme::Eager {
                for j in i + 1..self.next_unstarted {
                    let t = &self.tasks[j];
                    if !t.in_flight() {
                        continue;
                    }
                    if let Some(w) = exact_w_words.iter().find(|w| hits(t, j, w)) {
                        let q = t.proc.unwrap_or(0);
                        let detail = format!(
                            "task {j} survived the commit of task {i} despite an \
                             exact-set overlap at word {w:?}"
                        );
                        self.h.auditor.record(InvariantKind::Serializability, q, finish, detail);
                    }
                }
            }
            self.audit_state(finish);
        }
        Ok(())
    }

    /// Feeds the auditor the whole machine state: the Set Restriction for
    /// every processor's cache/BDM pair, and signature-vs-oracle
    /// containment for every in-flight task.
    fn audit_state(&mut self, cycle: u64) {
        if !self.h.auditor.enabled() {
            return;
        }
        debug_assert!(self.window_holds(), "in-flight window invariant broken at an audit");
        for q in 0..self.procs.len() {
            let proc = &self.procs[q];
            self.h.auditor.audit_set_restriction(q, cycle, &proc.bdm, &proc.cache);
        }
        if !self.scheme.uses_signatures() {
            return;
        }
        for k in self.window() {
            let t = &self.tasks[k];
            if !t.in_flight() {
                continue;
            }
            let (Some(q), Some(v)) = (t.proc, t.version) else { continue };
            let bdm = &self.procs[q].bdm;
            let r = bdm.read_signature(v);
            let w = bdm.write_signature(v);
            let missing = t
                .r_words
                .iter()
                .find(|word| !r.contains_word(**word))
                .map(|word| format!("task {k}: read word {word:?} not in the R signature"))
                .or_else(|| {
                    t.w_words
                        .iter()
                        .find(|word| !w.contains_word(**word))
                        .map(|word| format!("task {k}: written word {word:?} not in the W signature"))
                });
            self.h.auditor.audit_containment(q, cycle, missing);
        }
    }

    /// Exact-scheme commit application: invalidate committed lines in
    /// cache `q`, except lines partially written by a local in-flight task
    /// (those merge word-wise, as per-word access bits would allow).
    fn exact_apply_commit(&mut self, q: usize, lines: &AddrSet<LineAddr>) {
        let line_bytes = self.cfg.geom.line_bytes();
        let local_written_in = |range: Range<usize>| -> AddrSet<LineAddr> {
            self.tasks[range]
                .iter()
                .filter(|t| t.proc == Some(q) && t.in_flight())
                .flat_map(|t| t.w_words.iter().map(|w| w.line(line_bytes)))
                .collect()
        };
        let local_written = local_written_in(self.window());
        debug_assert_eq!(
            local_written,
            local_written_in(0..self.tasks.len()),
            "local written lines: window vs full scan"
        );
        for &l in lines {
            if local_written.contains(&l) {
                continue; // word-merged in place
            }
            self.procs[q].cache.invalidate(l);
        }
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    fn squash_cascade(&mut self, from: usize, at: u64, truly: bool, dep: u64, by: Option<usize>) {
        if truly {
            self.stats.dep_set_words += dep;
            self.stats.dep_samples += 1;
        }
        for k in from..self.tasks.len() {
            match self.tasks[k].status {
                Status::NotStarted => break,
                Status::Running | Status::WaitingCommit => {
                    self.squash_task(k, at, truly, if k == from { dep } else { 0 }, by);
                }
                Status::Ready | Status::Committed => {}
            }
        }
    }

    fn squash_task(&mut self, k: usize, at: u64, truly: bool, dep: u64, by: Option<usize>) {
        // An escalated task runs only at the head, where no older peer
        // exists to squash it (a wr-wr set conflict with a co-resident
        // preempted version has no peer and is exempt).
        let unsquashable =
            by.is_some() && self.tasks[k].escalated && k == self.oldest_uncommitted;
        let proc_of_k = self.tasks[k].proc.unwrap_or(0);
        self.h.check_token_protocol(!unsquashable, proc_of_k, at, "escalated head task squashed");
        self.stats.squashes += 1;
        if !truly {
            self.stats.false_squashes += 1;
        }
        if let Some(obs) = &self.h.obs {
            obs.on_squash(k as u32, at, truly, dep);
        }
        let was_running = self.tasks[k].status == Status::Running;
        let p = self.tasks[k].proc.expect("in-flight task has proc");
        if self.scheme.uses_signatures() {
            let v = self.tasks[k].version.expect("in-flight task has version");
            // TLS squash also invalidates lines the task read (§6.3).
            let exp = self.h.obs.as_ref().map(|o| o.expansion.clone());
            let proc = &mut self.procs[p];
            flows::squash_observed(&mut proc.bdm, v, &mut proc.cache, true, exp.as_ref());
        } else {
            let line_bytes = self.cfg.geom.line_bytes();
            let dirty: Vec<LineAddr> = self.tasks[k]
                .w_words
                .iter()
                .map(|w| w.line(line_bytes))
                .filter(|l| self.procs[p].cache.state_of(*l) == Some(bulk_mem::LineState::Dirty))
                .collect();
            for l in dirty {
                self.procs[p].cache.invalidate(l);
            }
            let read: Vec<LineAddr> = self.tasks[k]
                .r_words
                .iter()
                .map(|w| w.line(line_bytes))
                .filter(|l| self.procs[p].cache.state_of(*l) == Some(bulk_mem::LineState::Clean))
                .collect();
            for l in read {
                self.procs[p].cache.invalidate(l);
            }
        }
        if self.procs[p].running == Some(k) {
            self.procs[p].running = None;
            if self.scheme.uses_signatures() {
                self.procs[p].bdm.set_running(None);
            }
        }
        let t = &mut self.tasks[k];
        t.r_words.clear();
        t.w_words.clear();
        t.w_prespawn.clear();
        t.pc = 0;
        t.status = Status::Ready;
        t.restarts += 1;
        // Graceful degradation: enough restarts and the task defers its
        // next start until it runs at the head, where it cannot be
        // squashed again.
        if let Some(threshold) = self.escalation {
            if !t.escalated && t.restarts >= threshold {
                t.escalated = true;
                self.stats.escalations += 1;
                if let Some(obs) = &self.h.obs {
                    obs.on_escalation(k as u32, at);
                }
            }
        }
        // A running victim's attempt ends where the squash begins; a
        // waiting-commit victim's span already ended at finish. The
        // victim's processor then sits out the backoff before the task is
        // eligible to restart.
        let section = std::mem::replace(&mut t.section_span, SpanId::DROPPED);
        let age_rank = k.saturating_sub(self.oldest_uncommitted);
        let victim = Victim { by, id: k, aliasing: !truly, age_rank };
        let tail = SquashTail {
            lane: p,
            at,
            arg: dep,
            section: Some((section, was_running)),
            victim: Some(victim),
        };
        self.h.squash_tail(&self.cfg, &mut self.procs[p].timer, tail);
        self.audit_state(at);
    }

    fn neighbor_has(&self, p: usize, line: LineAddr) -> bool {
        self.procs
            .iter()
            .enumerate()
            .any(|(q, proc)| q != p && proc.cache.contains(line))
    }

    /// One timed L1 load or store by processor `p`. The other caches are
    /// probed only when the line misses locally: `CoreTimer` reads
    /// `in_neighbor` on no other path and `neighbor_has` is pure, so
    /// skipping the probe on a hit cannot change a result.
    fn timed_access(&mut self, p: usize, line: LineAddr, store: bool) {
        let miss = !self.procs[p].cache.contains(line);
        let in_neighbor = miss && self.neighbor_has(p, line);
        let proc = &mut self.procs[p];
        let bw = &mut self.stats.bw;
        let acc = if store {
            proc.timer.store(&mut proc.cache, line, in_neighbor, &self.cfg, bw)
        } else {
            proc.timer.load(&mut proc.cache, line, in_neighbor, &self.cfg, bw)
        };
        debug_assert!(miss || acc.hit, "a skipped neighbour probe fed a miss");
        if acc.writeback.is_some() {
            self.stats.bw.record(MsgClass::Wb, self.cfg.msg_sizes.line_msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulk_trace::{profiles, TaskTrace};

    fn cfg() -> SimConfig {
        SimConfig::tls_default()
    }

    fn workload(tasks: Vec<Vec<TlsOp>>) -> TlsWorkload {
        TlsWorkload {
            name: "test".into(),
            tasks: tasks.into_iter().map(|ops| TaskTrace { ops }).collect(),
        }
    }

    fn w(a: u32) -> TlsOp {
        TlsOp::Write(Addr::new(a))
    }

    fn r(a: u32) -> TlsOp {
        TlsOp::Read(Addr::new(a))
    }

    #[test]
    fn independent_tasks_all_commit() {
        let tasks: Vec<Vec<TlsOp>> = (0..8u32)
            .map(|i| vec![TlsOp::Spawn, w(0x1_0000 + i * 0x100), TlsOp::Compute(50)])
            .collect();
        for s in TlsScheme::ALL {
            let stats = run_tls(&workload(tasks.clone()), s, &cfg());
            assert_eq!(stats.commits, 8, "{s}");
            assert_eq!(stats.squashes, 0, "{s}");
        }
    }

    #[test]
    fn parallel_run_beats_sequential() {
        let p = profiles::tls_profile("gap").unwrap();
        let wl = p.generate(3);
        let seq = run_tls_sequential(&wl, &cfg());
        let par = run_tls(&wl, TlsScheme::Bulk, &cfg());
        assert!(par.cycles < seq, "par {} vs seq {seq}", par.cycles);
    }

    #[test]
    fn true_dependence_squashes_in_all_schemes() {
        // Task 0 writes X late; task 1 reads X early.
        let tasks = vec![
            vec![TlsOp::Spawn, TlsOp::Compute(5000), w(0x9000)],
            vec![TlsOp::Spawn, r(0x9000), TlsOp::Compute(100)],
        ];
        for s in TlsScheme::ALL {
            let stats = run_tls(&workload(tasks.clone()), s, &cfg());
            assert_eq!(stats.commits, 2, "{s}");
            assert!(stats.squashes >= 1, "{s}: {stats:?}");
        }
    }

    #[test]
    fn partial_overlap_prevents_live_in_squash() {
        // Task 0 writes the live-in BEFORE spawning; task 1 reads it.
        let tasks = vec![
            vec![w(0x9000), TlsOp::Spawn, TlsOp::Compute(5000)],
            vec![TlsOp::Spawn, r(0x9000), TlsOp::Compute(100)],
        ];
        let with = run_tls(&workload(tasks.clone()), TlsScheme::Bulk, &cfg());
        assert_eq!(with.squashes, 0, "partial overlap: {with:?}");
        let without = run_tls(&workload(tasks.clone()), TlsScheme::BulkNoOverlap, &cfg());
        assert!(without.squashes >= 1, "no overlap: {without:?}");
        let lazy = run_tls(&workload(tasks), TlsScheme::Lazy, &cfg());
        assert_eq!(lazy.squashes, 0, "lazy has exact overlap: {lazy:?}");
    }

    #[test]
    fn squash_cascade_hits_descendants() {
        // Task 0 violates task 1 -> tasks 1..n restart.
        let mut tasks = vec![vec![TlsOp::Spawn, TlsOp::Compute(20_000), w(0x9000)]];
        tasks.push(vec![TlsOp::Spawn, r(0x9000), TlsOp::Compute(3000)]);
        for i in 0..3u32 {
            tasks.push(vec![TlsOp::Spawn, w(0xA000 + i * 0x100), TlsOp::Compute(3000)]);
        }
        let stats = run_tls(&workload(tasks), TlsScheme::Lazy, &cfg());
        assert_eq!(stats.commits, 5);
        assert!(stats.squashes >= 2, "cascade: {stats:?}");
    }

    #[test]
    fn word_level_disambiguation_merges_instead_of_squashing() {
        // Adjacent tasks write different words of the same line.
        let line_base = 0x3000_0000u32;
        let tasks = vec![
            vec![TlsOp::Spawn, w(line_base), TlsOp::Compute(2000)],
            vec![TlsOp::Spawn, w(line_base + 4), TlsOp::Compute(4000)],
        ];
        let stats = run_tls(&workload(tasks), TlsScheme::Bulk, &cfg());
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.squashes, 0, "different words must not conflict: {stats:?}");
    }

    #[test]
    fn eager_restarts_earlier_than_lazy() {
        let p = profiles::tls_profile("gzip").unwrap(); // high violation rate
        let wl = p.generate(9);
        let eager = run_tls(&wl, TlsScheme::Eager, &cfg());
        let lazy = run_tls(&wl, TlsScheme::Lazy, &cfg());
        assert!(eager.cycles <= lazy.cycles, "eager {} lazy {}", eager.cycles, lazy.cycles);
    }

    #[test]
    fn profile_run_matches_table6_footprints() {
        let p = profiles::tls_profile("bzip2").unwrap();
        let wl = p.generate(1);
        let stats = run_tls(&wl, TlsScheme::Bulk, &cfg());
        assert_eq!(stats.commits as usize, p.tasks);
        assert!((stats.avg_rd_set() - p.rd_words).abs() < p.rd_words * 0.5,
            "rd {}", stats.avg_rd_set());
        assert!((stats.avg_wr_set() - p.wr_words).abs() < p.wr_words * 0.6,
            "wr {}", stats.avg_wr_set());
    }

    #[test]
    fn spawn_invalidation_counts_with_overlap() {
        // Parent writes X pre-spawn; the child's processor holds a stale
        // clean copy of X which the spawn-time bulk invalidation drops.
        // Only the FIRST child is covered by Partial Overlap: task 1 reads
        // the live-in safely; task 2 reads unrelated data.
        let tasks = vec![
            vec![TlsOp::Read(Addr::new(0x9000)), w(0x9000), TlsOp::Spawn, TlsOp::Compute(3000)],
            vec![TlsOp::Spawn, r(0x9000), TlsOp::Compute(50)],
            vec![TlsOp::Spawn, r(0xA000), TlsOp::Compute(50)],
        ];
        let stats = run_tls(&workload(tasks), TlsScheme::Bulk, &cfg());
        assert_eq!(stats.commits, 3);
        assert_eq!(stats.squashes, 0, "{stats:?}");

        // A SECOND child reading the pre-spawn write is *not* covered and
        // squashes when the parent commits — the paper's simplification.
        let tasks = vec![
            vec![w(0x9000), TlsOp::Spawn, TlsOp::Compute(3000)],
            vec![TlsOp::Spawn, TlsOp::Compute(50)],
            vec![TlsOp::Spawn, r(0x9000), TlsOp::Compute(50)],
        ];
        let stats = run_tls(&workload(tasks), TlsScheme::Bulk, &cfg());
        assert_eq!(stats.commits, 3);
        assert!(stats.squashes >= 1, "second child is unprotected: {stats:?}");
    }

    #[test]
    fn restarted_tasks_keep_processor_affinity() {
        // A violating chain: every squash must restart tasks and still
        // commit everything exactly once, in order.
        let mut tasks = Vec::new();
        for i in 0..12u32 {
            tasks.push(vec![
                TlsOp::Spawn,
                r(0x5000 + ((i + 15) % 16) * 4),
                TlsOp::Compute(400),
                w(0x5000 + (i % 16) * 4),
            ]);
        }
        for s in TlsScheme::ALL {
            let stats = run_tls(&workload(tasks.clone()), s, &cfg());
            assert_eq!(stats.commits, 12, "{s}");
        }
    }

    #[test]
    fn wr_wr_set_conflict_squashes_running_task() {
        // Task 0 finishes quickly but cannot commit until... it's oldest,
        // so it commits immediately. Use tasks 1/2 on one processor: task 1
        // waits for slow task 0; its processor starts task 2 (version 2),
        // whose write hits task 1's dirty set -> Set Restriction conflict.
        let line = |s: u32| 0x4_0000 + s * 64; // set s, distinct tag region
        let tasks = vec![
            // Slow head task holds up all commits (chunked so its
            // processor stays busy in simulation order).
            {
                let mut ops = vec![TlsOp::Spawn];
                ops.extend(std::iter::repeat_n(TlsOp::Compute(1000), 60));
                ops
            },
            // Tasks 1-3 fill the other processors; task 1 dirties set 7
            // and then waits for the commit token.
            vec![TlsOp::Spawn, w(line(7)), TlsOp::Compute(10)],
            // Tasks 2-3 run long in small steps, so their processors stay
            // busy and task 1's processor is the free one when task 4
            // becomes ready.
            {
                let mut ops = vec![TlsOp::Spawn];
                ops.extend(std::iter::repeat_n(TlsOp::Compute(100), 8));
                ops
            },
            {
                let mut ops = vec![TlsOp::Spawn];
                ops.extend(std::iter::repeat_n(TlsOp::Compute(100), 8));
                ops
            },
            // Task 4 reuses task 1's processor (second version slot) and
            // writes a DIFFERENT line of set 7 while task 1 still waits.
            vec![TlsOp::Spawn, w(line(7) + 0x10_0000), TlsOp::Compute(10)],
        ];
        let stats = run_tls(&workload(tasks), TlsScheme::Bulk, &cfg());
        assert_eq!(stats.commits, 5);
        assert!(
            stats.wr_wr_set_conflicts >= 1,
            "co-resident versions dirtying one set must conflict: {stats:?}"
        );
    }

    #[test]
    fn bulk_commit_carries_shadow_signature_bytes() {
        let tasks = vec![
            vec![w(0x9000), TlsOp::Spawn, w(0x9100), TlsOp::Compute(500)],
            vec![TlsOp::Spawn, TlsOp::Compute(10)],
        ];
        let with = run_tls(&workload(tasks.clone()), TlsScheme::Bulk, &cfg());
        let without = run_tls(&workload(tasks), TlsScheme::BulkNoOverlap, &cfg());
        // Overlap mode broadcasts W plus W_sh: strictly more commit bytes.
        assert!(
            with.bw.commit_bytes() > without.bw.commit_bytes(),
            "with {} vs without {}",
            with.bw.commit_bytes(),
            without.bw.commit_bytes()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let p = profiles::tls_profile("vpr").unwrap();
        let wl = p.generate(5);
        let a = run_tls(&wl, TlsScheme::Bulk, &cfg());
        let b = run_tls(&wl, TlsScheme::Bulk, &cfg());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.squashes, b.squashes);
    }

    #[test]
    fn sequential_baseline_is_deterministic() {
        let p = profiles::tls_profile("mcf").unwrap();
        let wl = p.generate(5);
        assert_eq!(run_tls_sequential(&wl, &cfg()), run_tls_sequential(&wl, &cfg()));
    }

    #[test]
    fn try_new_reports_typed_errors() {
        let empty = TlsWorkload { name: "none".into(), tasks: vec![] };
        let err = TlsMachine::try_new(&empty, TlsScheme::Bulk, &cfg()).err().expect("must fail");
        assert_eq!(err, MachineError::EmptyWorkload { machine: "tls" });

        let bad = workload(vec![vec![TlsOp::Spawn, TlsOp::Spawn, w(0x9000)]]);
        let err = TlsMachine::try_new(&bad, TlsScheme::Bulk, &cfg()).err().expect("must fail");
        assert!(matches!(err, MachineError::Trace { thread: 0, .. }), "{err}");
    }

    #[test]
    fn escalated_task_finishes_at_the_head() {
        // Task 1 re-reads what slow task 0 writes late: under Lazy it
        // restarts on every one of task 0's staggered commits. With an
        // aggressive threshold it escalates, waits for the head, and then
        // commits serialized.
        let tasks = vec![
            vec![TlsOp::Spawn, TlsOp::Compute(5000), w(0x9000)],
            vec![TlsOp::Spawn, r(0x9000), TlsOp::Compute(100)],
        ];
        let mut m = TlsMachine::new(&workload(tasks), TlsScheme::Lazy, &cfg());
        m.set_escalation_threshold(Some(1));
        let stats = m.try_run().expect("run completes");
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.escalations, 1, "{stats:?}");
        assert_eq!(stats.serialized_commits, 1, "{stats:?}");
    }

    #[test]
    fn liveness_chaos_run_is_deterministic_and_clean() {
        let p = profiles::tls_profile("gzip").unwrap(); // high violation rate
        let wl = p.generate(4);
        let run = |seed: u64| {
            let mut m = TlsMachine::new(&wl, TlsScheme::Bulk, &cfg());
            m.set_chaos(bulk_chaos::FaultPlan::seeded(seed));
            m.enable_audit();
            m.enable_liveness(bulk_live::LivenessConfig::default());
            m.try_run().expect("liveness run completes")
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.liveness, b.liveness);
        assert_eq!(a.commits as usize, p.tasks);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert!(a.liveness_violations.is_empty(), "{:?}", a.liveness_violations);
        assert!(a.squashes > 0, "gzip must squash: {a:?}");
        assert!(a.liveness.backoff_waits > 0, "{:?}", a.liveness);
    }

    #[test]
    fn arbiter_crash_is_survived_with_exactly_once_application() {
        let p = profiles::tls_profile("vpr").unwrap();
        let wl = p.generate(2);
        let run = || {
            let mut m = TlsMachine::new(&wl, TlsScheme::Bulk, &cfg());
            m.set_chaos(bulk_chaos::FaultPlan::new(bulk_chaos::ChaosConfig::arbiter_crash(9)));
            m.enable_audit();
            m.enable_liveness(bulk_live::LivenessConfig::default());
            m.try_run().expect("failover run completes")
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.liveness, b.liveness);
        assert!(a.liveness.arbiter_crashes > 0, "{:?}", a.liveness);
        assert_eq!(a.chaos.arbiter_crashes, a.liveness.arbiter_crashes);
        assert_eq!(a.liveness.arbiter_epoch, a.liveness.arbiter_crashes);
        assert_eq!(a.liveness.replayed_commits, a.liveness.arbiter_crashes);
        assert!(a.liveness.dedup_drops >= a.liveness.replayed_commits, "{:?}", a.liveness);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert!(a.liveness_violations.is_empty(), "{:?}", a.liveness_violations);
        assert_eq!(a.commits as usize, p.tasks, "every task commits despite crashes");
    }

    #[test]
    fn scripted_double_crash_during_replay_is_survived_in_tls() {
        // Crash-during-replay on the TLS side: the schedule kills the
        // arbiter twice during the first task's commit broadcast. Both
        // re-elections and both replay rounds happen; receivers drop every
        // round after the first and no task's W_C is lost.
        use bulk_chaos::{BroadcastSchedule, ScheduleScript};
        let p = profiles::tls_profile("vpr").unwrap();
        let wl = p.generate(2);
        let script = ScheduleScript::from_pattern(vec![BroadcastSchedule {
            crashes: 2,
            ..BroadcastSchedule::QUIET
        }]);
        let run = || {
            let mut m = TlsMachine::new(&wl, TlsScheme::Bulk, &cfg());
            m.set_chaos(script.clone().into_plan());
            m.enable_audit();
            m.enable_liveness(bulk_live::LivenessConfig::default());
            m.try_run().expect("double crash is survived")
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles, "scripted runs are deterministic");
        assert_eq!(a.liveness, b.liveness);
        assert_eq!(a.liveness.arbiter_crashes, 2, "{:?}", a.liveness);
        assert_eq!(a.liveness.arbiter_epoch, 2);
        assert_eq!(a.liveness.replayed_commits, 2);
        assert_eq!(a.liveness.dedup_drops, script.expected_dedup_drops());
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert!(a.liveness_violations.is_empty(), "{:?}", a.liveness_violations);
        assert_eq!(a.commits as usize, p.tasks);
    }

    #[test]
    fn escalated_head_task_serializes_cleanly_under_liveness() {
        let tasks = vec![
            vec![TlsOp::Spawn, TlsOp::Compute(5000), w(0x9000)],
            vec![TlsOp::Spawn, r(0x9000), TlsOp::Compute(100)],
        ];
        let mut m = TlsMachine::new(&workload(tasks), TlsScheme::Lazy, &cfg());
        m.set_escalation_threshold(Some(1));
        m.enable_audit();
        m.enable_liveness(bulk_live::LivenessConfig::default());
        let stats = m.try_run().expect("run completes");
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.escalations, 1, "{stats:?}");
        assert_eq!(stats.serialized_commits, 1, "{stats:?}");
        assert!(stats.violations.is_empty(), "{:?}", stats.violations);
        assert!(stats.liveness_violations.is_empty(), "{:?}", stats.liveness_violations);
        assert!(stats.liveness.backoff_waits > 0, "{:?}", stats.liveness);
    }

    #[test]
    fn escalated_task_started_off_the_head_is_reported() {
        let tasks = vec![
            vec![TlsOp::Spawn, TlsOp::Compute(100)],
            vec![TlsOp::Spawn, TlsOp::Compute(100)],
        ];
        let mut m = TlsMachine::new(&workload(tasks), TlsScheme::Lazy, &cfg());
        m.enable_audit();
        m.tasks[1].escalated = true;
        m.tasks[1].proc = Some(0);
        m.start_on(0, 1, false);
        let violations = m.h.auditor.take_violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].kind, InvariantKind::TokenProtocol);
        assert!(violations[0].detail.contains("off the head"), "{violations:?}");
    }

    #[test]
    fn chaos_run_is_deterministic_and_clean_under_audit() {
        let p = profiles::tls_profile("vpr").unwrap();
        let wl = p.generate(4);
        let run = |seed: u64| {
            let mut m = TlsMachine::new(&wl, TlsScheme::Bulk, &cfg());
            m.set_chaos(bulk_chaos::FaultPlan::seeded(seed));
            m.enable_audit();
            m.try_run().expect("chaos run completes")
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.chaos, b.chaos);
        assert!(
            a.violations.is_empty(),
            "chaos must cost time, never correctness: {:?}",
            a.violations
        );
        assert!(a.audit_checks > 0);
        assert_eq!(a.chaos.corruptions_injected, a.chaos.corruptions_detected, "{:?}", a.chaos);
        assert_eq!(a.chaos.silent_corruptions, 0);
        assert!(a.chaos.total_injected() > 0, "{:?}", a.chaos);
        assert_eq!(a.commits as usize, p.tasks);
    }
}
