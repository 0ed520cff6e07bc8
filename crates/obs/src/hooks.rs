//! Pre-registered handle bundles for the instrumented layers.
//!
//! The hot paths (signature expansion, overflow walks, the machines'
//! commit/squash/invalidate steps) must not pay name lookups or
//! allocation per record. Each bundle here is built once — resolving all
//! of its [`Counter`]/[`Gauge`]/[`Histogram`] handles by name — and then
//! recorded through with plain atomic ops.
//!
//! Naming convention: every handle lives under the prefix the caller
//! passes at registration (`"tm."`, `"tls."`, `"bench."`, …), so one
//! [`Registry`] can host several machines side by side.

use std::sync::Arc;

use crate::attribution::VerdictCounters;
use crate::events::{EventKind, SquashCause};
use crate::metrics::{Counter, Gauge, Histogram, Registry};
use crate::trace::{
    cycle_accounting, AccountingViolation, CycleBreakdown, SpanId, SpanKind, SpanOutcome, TraceLog,
};
use crate::Obs;

/// Counters for the signature expansion path (paper §4.1's δ decode):
/// how often signatures are expanded into line addresses, how much cache
/// tag work that costs, and how many lines each expansion selects.
#[derive(Debug, Clone)]
pub struct ExpansionObs {
    /// Signature expansions performed.
    pub calls: Counter,
    /// Candidate cache sets selected by the decoded set-index bits.
    pub candidate_sets: Counter,
    /// Cache tag reads performed while filtering candidate lines.
    pub tag_reads: Counter,
    /// Lines the expansions actually selected (signature members present
    /// in the cache).
    pub matched_lines: Counter,
}

impl ExpansionObs {
    /// Registers the expansion counters under `prefix`.
    pub fn register(reg: &Registry, prefix: &str) -> Self {
        ExpansionObs {
            calls: reg.counter(&format!("{prefix}expansion.calls")),
            candidate_sets: reg.counter(&format!("{prefix}expansion.candidate_sets")),
            tag_reads: reg.counter(&format!("{prefix}expansion.tag_reads")),
            matched_lines: reg.counter(&format!("{prefix}expansion.matched_lines")),
        }
    }
}

/// Counters for the memory overflow area (paper §6.2.2): spills of
/// speculative dirty lines past the cache, lookups on miss, and the
/// sequential walks commit/squash must perform.
#[derive(Debug, Clone)]
pub struct OverflowObs {
    /// Lines spilled into the overflow area.
    pub spills: Counter,
    /// Lookups (cache misses with the O bit set).
    pub lookups: Counter,
    /// Lookups that found the line in the overflow area.
    pub hits: Counter,
    /// Entries touched by sequential walks (disambiguation or
    /// deallocation).
    pub walked_entries: Counter,
    /// High-water mark of resident overflow lines.
    pub resident_max: Gauge,
}

impl OverflowObs {
    /// Registers the overflow counters under `prefix`.
    pub fn register(reg: &Registry, prefix: &str) -> Self {
        OverflowObs {
            spills: reg.counter(&format!("{prefix}overflow.spills")),
            lookups: reg.counter(&format!("{prefix}overflow.lookups")),
            hits: reg.counter(&format!("{prefix}overflow.hits")),
            walked_entries: reg.counter(&format!("{prefix}overflow.walked_entries")),
            resident_max: reg.gauge(&format!("{prefix}overflow.resident_max")),
        }
    }
}

/// Counters holding the machine's final Fig. 13 cycle breakdown, filled
/// once per run by [`RuntimeObs::finish_cycle_accounting`]. The six
/// per-actor categories (`useful + squashed + commit + stall + overhead
/// + other`) sum exactly to `total` whenever `audit_violations` is zero
/// — the conservation invariant.
#[derive(Debug, Clone)]
pub struct CycleObs {
    /// Committed speculative-section cycles.
    pub useful: Counter,
    /// Squashed speculative-section cycles.
    pub squashed: Counter,
    /// Commit arbitration + broadcast cycles on actor timelines.
    pub commit: Counter,
    /// Conflict-stall and backoff-wait cycles.
    pub stall: Counter,
    /// Squash/rollback, context-switch, checkpoint and spill cycles.
    pub overhead: Counter,
    /// Non-speculative execution, dispatch gaps and idle tails.
    pub other: Counter,
    /// Commit broadcast cycles on the bus lane (TLS: overlaps execution).
    pub commit_bus: Counter,
    /// Total cycles across all actor timelines.
    pub total: Counter,
    /// Conservation-audit failures found while reducing the trace.
    pub audit_violations: Counter,
}

impl CycleObs {
    /// Registers the breakdown counters under `prefix`.
    pub fn register(reg: &Registry, prefix: &str) -> Self {
        CycleObs {
            useful: reg.counter(&format!("{prefix}cycles.useful")),
            squashed: reg.counter(&format!("{prefix}cycles.squashed")),
            commit: reg.counter(&format!("{prefix}cycles.commit")),
            stall: reg.counter(&format!("{prefix}cycles.stall")),
            overhead: reg.counter(&format!("{prefix}cycles.overhead")),
            other: reg.counter(&format!("{prefix}cycles.other")),
            commit_bus: reg.counter(&format!("{prefix}cycles.commit_bus")),
            total: reg.counter(&format!("{prefix}cycles.total")),
            audit_violations: reg.counter(&format!("{prefix}cycles.audit_violations")),
        }
    }
}

/// The full instrumentation bundle a machine (TM or TLS) holds: one
/// handle per metric it maintains, plus the shared [`Obs`] so protocol
/// steps can also be recorded as events.
///
/// All handles live under the prefix given to [`RuntimeObs::attach`]
/// (`"tm."` or `"tls."`). The `on_*` methods are the machines' single
/// instrumentation surface; each is one or two atomic ops plus, where
/// the step is a typed protocol event, an [`EventLog::record`]
/// (ring-buffer push).
///
/// [`EventLog::record`]: crate::EventLog::record
#[derive(Debug, Clone)]
pub struct RuntimeObs {
    obs: Arc<Obs>,
    /// Trace track (Chrome-export process) this machine's spans live on.
    pub track: u32,
    /// The run's final cycle breakdown (filled by
    /// [`RuntimeObs::finish_cycle_accounting`]).
    pub cycles: CycleObs,
    /// Successful commits.
    pub commits: Counter,
    /// Commit broadcast payload sizes in bytes.
    pub commit_payload_bytes: Histogram,
    /// Exact committed write-set sizes (lines for TM, words for TLS).
    pub commit_writes: Histogram,
    /// Commit latency in cycles: arbitration request (or bus grant) to
    /// broadcast completion. Quantiles (`Histogram::quantile`) feed the
    /// p50/p95/p99 lines in the CLI report and the Prometheus summary.
    pub commit_latency: Histogram,
    /// Total squashes (`= squash_true_conflict + squash_aliasing`).
    pub squashes: Counter,
    /// Squashes the oracle confirms (real data dependence).
    pub squash_true_conflict: Counter,
    /// Squashes caused purely by signature aliasing.
    pub squash_aliasing: Counter,
    /// Exact dependence-set sizes of true-conflict squashes.
    pub squash_dep: Histogram,
    /// Lines invalidated by bulk invalidations.
    pub inv_lines: Counter,
    /// Of those, lines the committer exactly wrote.
    pub inv_exact: Counter,
    /// Of those, aliasing overshoot (`inv_lines - inv_exact`).
    pub inv_overshoot: Counter,
    /// Forced context switches (signature spill + reload).
    pub ctx_switches: Counter,
    /// Escalations to the non-speculative fallback.
    pub escalations: Counter,
    /// Disambiguation verdicts vs. the exact oracle.
    pub verdicts: VerdictCounters,
    /// Backoff waits issued by the liveness engine.
    pub live_backoff_waits: Counter,
    /// Sizes of those waits, in cycles.
    pub live_backoff_cycles: Histogram,
    /// Watchdog trips (livelock / starvation / global stall).
    pub live_watchdog_trips: Counter,
    /// Arbiter crashes survived via epoch re-election.
    pub live_arbiter_crashes: Counter,
    /// Current arbiter epoch (high-water mark).
    pub live_arbiter_epoch: Gauge,
    /// Delivery rounds after a broadcast's first, dropped by receivers.
    pub live_dedup_drops: Counter,
    /// Crash-consistent checkpoints captured at context switches.
    pub live_checkpoints: Counter,
    /// The machine-side signature expansion counters.
    pub expansion: ExpansionObs,
    /// Counters to clone into the machine's overflow area, if it has one.
    pub overflow: OverflowObs,
}

impl RuntimeObs {
    /// Builds the bundle against `obs`, registering every handle under
    /// `prefix` (use `"tm."` / `"tls."`).
    pub fn attach(obs: Arc<Obs>, prefix: &str) -> Self {
        let reg = obs.registry();
        let bytes_edges = Histogram::pow2_edges(14); // 1 B .. 16 KiB
        let size_edges = Histogram::pow2_edges(10); // 1 .. 1024 lines/words
        let bundle = RuntimeObs {
            track: obs.trace().register_track(prefix),
            cycles: CycleObs::register(reg, prefix),
            commits: reg.counter(&format!("{prefix}commits")),
            commit_payload_bytes: reg
                .histogram(&format!("{prefix}commit.payload_bytes"), &bytes_edges),
            commit_writes: reg.histogram(&format!("{prefix}commit.writes"), &size_edges),
            commit_latency: reg.histogram(
                &format!("{prefix}commit.latency_cycles"),
                &Histogram::pow2_edges(20), // 1 .. ~1M cycles
            ),
            squashes: reg.counter(&format!("{prefix}squashes")),
            squash_true_conflict: reg.counter(&format!("{prefix}squash.true_conflict")),
            squash_aliasing: reg.counter(&format!("{prefix}squash.aliasing")),
            squash_dep: reg.histogram(&format!("{prefix}squash.dep_size"), &size_edges),
            inv_lines: reg.counter(&format!("{prefix}invalidate.lines")),
            inv_exact: reg.counter(&format!("{prefix}invalidate.exact")),
            inv_overshoot: reg.counter(&format!("{prefix}invalidate.overshoot")),
            ctx_switches: reg.counter(&format!("{prefix}ctx_switches")),
            escalations: reg.counter(&format!("{prefix}escalations")),
            verdicts: VerdictCounters::register(reg, prefix),
            live_backoff_waits: reg.counter(&format!("{prefix}live.backoff_waits")),
            live_backoff_cycles: reg
                .histogram(&format!("{prefix}live.backoff_cycles"), &bytes_edges),
            live_watchdog_trips: reg.counter(&format!("{prefix}live.watchdog_trips")),
            live_arbiter_crashes: reg.counter(&format!("{prefix}live.arbiter_crashes")),
            live_arbiter_epoch: reg.gauge(&format!("{prefix}live.arbiter_epoch")),
            live_dedup_drops: reg.counter(&format!("{prefix}live.dedup_drops")),
            live_checkpoints: reg.counter(&format!("{prefix}live.checkpoints")),
            expansion: ExpansionObs::register(reg, prefix),
            overflow: OverflowObs::register(reg, prefix),
            obs,
        };
        bundle
    }

    /// The shared observability bundle the handles record into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The shared span trace (this machine's spans live on
    /// [`RuntimeObs::track`]).
    pub fn trace(&self) -> &TraceLog {
        self.obs.trace()
    }

    /// Opens a span at `start` on `actor`'s timeline.
    pub fn span_begin(&self, actor: u32, kind: SpanKind, start: u64, detail: u64) -> SpanId {
        self.obs.trace().begin(self.track, actor, kind, start, None, detail)
    }

    /// Opens a span nested under `parent`.
    pub fn span_child(
        &self,
        actor: u32,
        kind: SpanKind,
        start: u64,
        detail: u64,
        parent: SpanId,
    ) -> SpanId {
        self.obs.trace().begin(self.track, actor, kind, start, Some(parent), detail)
    }

    /// Records an already-closed span `[start, end]`.
    pub fn span_complete(
        &self,
        actor: u32,
        kind: SpanKind,
        start: u64,
        end: u64,
        detail: u64,
    ) -> SpanId {
        self.obs.trace().complete(self.track, actor, kind, start, end, None, detail)
    }

    /// Closes span `id` at `cycle`.
    pub fn span_end(&self, id: SpanId, cycle: u64) {
        self.obs.trace().end(id, cycle);
    }

    /// Resolves a section span's outcome.
    pub fn span_outcome(&self, id: SpanId, outcome: SpanOutcome) {
        self.obs.trace().set_outcome(id, outcome);
    }

    /// Links `cause` → `effect` (commit broadcast → squash /
    /// bulk-invalidation it triggered).
    pub fn span_link(&self, cause: SpanId, effect: SpanId) {
        self.obs.trace().link(cause, effect);
    }

    /// Reduces this machine's trace into the Fig. 13 cycle breakdown and
    /// publishes it through [`RuntimeObs::cycles`]. `totals[a]` is actor
    /// `a`'s final clock. Call once, at the end of the run; the returned
    /// breakdown carries any conservation-audit violations so the caller
    /// can feed them to its invariant auditor.
    pub fn finish_cycle_accounting(&self, totals: &[u64]) -> CycleBreakdown {
        let mut br = cycle_accounting(&self.obs.trace().spans(), self.track, totals);
        let dropped = self.obs.trace().dropped();
        if dropped > 0 {
            br.violations.push(AccountingViolation {
                actor: u32::MAX,
                cycle: 0,
                detail: format!("trace ring dropped {dropped} spans; accounting is incomplete"),
            });
        }
        self.cycles.useful.add(br.useful);
        self.cycles.squashed.add(br.squashed);
        self.cycles.commit.add(br.commit);
        self.cycles.stall.add(br.stall);
        self.cycles.overhead.add(br.overhead);
        self.cycles.other.add(br.other);
        self.cycles.commit_bus.add(br.commit_bus);
        self.cycles.total.add(br.total);
        self.cycles.audit_violations.add(br.violations.len() as u64);
        br
    }

    /// A commit broadcast: `payload_bytes` on the bus carrying an exact
    /// write set of `writes` lines/words, completing `latency` cycles
    /// after the commit was requested.
    pub fn on_commit(&self, actor: u32, cycle: u64, payload_bytes: u64, writes: u64, latency: u64) {
        self.commits.inc();
        self.commit_payload_bytes.observe(payload_bytes);
        self.commit_writes.observe(writes);
        self.commit_latency.observe(latency);
        self.obs.events().record(
            actor,
            cycle,
            EventKind::CommitBroadcast { payload_bytes, writes },
        );
    }

    /// A squash, attributed by the oracle: `dep` is the exact
    /// dependence-set size (0 when `truly_conflicting` is false).
    pub fn on_squash(&self, actor: u32, cycle: u64, truly_conflicting: bool, dep: u64) {
        self.squashes.inc();
        let cause = SquashCause::from_oracle(truly_conflicting);
        match cause {
            SquashCause::TrueConflict => {
                self.squash_true_conflict.inc();
                self.squash_dep.observe(dep);
            }
            SquashCause::Aliasing => self.squash_aliasing.inc(),
        }
        self.obs
            .events()
            .record(actor, cycle, EventKind::Squash { cause, dep });
    }

    /// A bulk invalidation that wiped `lines` cache lines of which the
    /// committer exactly wrote `exact`.
    pub fn on_bulk_invalidate(&self, actor: u32, cycle: u64, lines: u64, exact: u64) {
        let overshoot = lines.saturating_sub(exact);
        self.inv_lines.add(lines);
        self.inv_exact.add(exact);
        self.inv_overshoot.add(overshoot);
        if lines > 0 {
            self.obs.events().record(
                actor,
                cycle,
                EventKind::BulkInvalidate { lines, exact, overshoot },
            );
        }
    }

    /// A speculative dirty line spilled to the overflow area, which now
    /// holds `resident` lines.
    pub fn on_overflow_spill(&self, actor: u32, cycle: u64, resident: u64) {
        self.obs
            .events()
            .record(actor, cycle, EventKind::Overflow { resident });
    }

    /// A forced context switch of the running speculative version.
    pub fn on_ctx_switch(&self, actor: u32, cycle: u64) {
        self.ctx_switches.inc();
        self.obs.events().record(actor, cycle, EventKind::CtxSwitch);
    }

    /// An escalation to the non-speculative fallback.
    pub fn on_escalation(&self, actor: u32, cycle: u64) {
        self.escalations.inc();
        self.obs.events().record(actor, cycle, EventKind::Escalation);
    }

    /// A liveness-engine backoff wait of `cycles` issued to `actor`
    /// before its retry. Zero-cycle waits are counted but not logged.
    pub fn on_backoff(&self, actor: u32, cycle: u64, cycles: u64) {
        self.live_backoff_waits.inc();
        self.live_backoff_cycles.observe(cycles);
        if cycles > 0 {
            self.obs
                .events()
                .record(actor, cycle, EventKind::Backoff { cycles });
        }
    }

    /// The watchdog tripped with violation kind `kind` (kebab-case).
    pub fn on_watchdog_trip(&self, actor: u32, cycle: u64, kind: &'static str) {
        self.live_watchdog_trips.inc();
        self.obs
            .events()
            .record(actor, cycle, EventKind::WatchdogTrip { kind });
    }

    /// The commit arbiter crashed mid-broadcast (the committing `actor`'s
    /// message will be replayed) and `epoch` was elected.
    pub fn on_arbiter_failover(&self, actor: u32, cycle: u64, epoch: u64) {
        self.live_arbiter_crashes.inc();
        self.live_arbiter_epoch.record_max(epoch);
        self.obs
            .events()
            .record(actor, cycle, EventKind::ArbiterFailover { epoch });
    }

    /// A commit delivery round after the broadcast's first was dropped.
    pub fn on_dedup_drop(&self) {
        self.live_dedup_drops.inc();
    }

    /// A crash-consistent checkpoint was captured at a context switch.
    pub fn on_checkpoint(&self) {
        self.live_checkpoints.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_registers_prefixed_handles() {
        let obs = Arc::new(Obs::new());
        let r = RuntimeObs::attach(Arc::clone(&obs), "tm.");
        r.on_commit(0, 100, 64, 3, 20);
        r.on_squash(1, 120, false, 0);
        r.on_squash(2, 130, true, 4);
        r.on_bulk_invalidate(1, 140, 5, 4);
        r.on_ctx_switch(0, 150);
        r.on_escalation(2, 160);
        let reg = obs.registry();
        assert_eq!(reg.counter_value("tm.commits"), 1);
        assert_eq!(reg.counter_value("tm.squashes"), 2);
        assert_eq!(reg.counter_value("tm.squash.aliasing"), 1);
        assert_eq!(reg.counter_value("tm.squash.true_conflict"), 1);
        assert_eq!(reg.counter_value("tm.invalidate.overshoot"), 1);
        assert_eq!(reg.counter_value("tm.ctx_switches"), 1);
        assert_eq!(reg.counter_value("tm.escalations"), 1);
        // squash split sums to total
        assert_eq!(
            reg.counter_value("tm.squashes"),
            reg.counter_value("tm.squash.true_conflict")
                + reg.counter_value("tm.squash.aliasing")
        );
        assert_eq!(obs.events().len(), 6);
        assert_eq!(r.commit_latency.count(), 1);
        assert_eq!(r.commit_latency.quantile(0.5), Some(32.0), "20 -> le=32 bucket");
    }

    #[test]
    fn zero_line_invalidation_counts_but_emits_no_event() {
        let obs = Arc::new(Obs::new());
        let r = RuntimeObs::attach(Arc::clone(&obs), "tls.");
        r.on_bulk_invalidate(0, 10, 0, 0);
        assert!(obs.events().is_empty());
        assert_eq!(obs.registry().counter_value("tls.invalidate.lines"), 0);
    }

    #[test]
    fn liveness_hooks_register_and_record() {
        let obs = Arc::new(Obs::new());
        let r = RuntimeObs::attach(Arc::clone(&obs), "tm.");
        r.on_backoff(0, 100, 48);
        r.on_backoff(1, 110, 0);
        r.on_watchdog_trip(1, 200, "livelock");
        r.on_arbiter_failover(0, 300, 2);
        r.on_dedup_drop();
        r.on_checkpoint();
        let reg = obs.registry();
        assert_eq!(reg.counter_value("tm.live.backoff_waits"), 2);
        assert_eq!(reg.counter_value("tm.live.watchdog_trips"), 1);
        assert_eq!(reg.counter_value("tm.live.arbiter_crashes"), 1);
        assert_eq!(reg.counter_value("tm.live.dedup_drops"), 1);
        assert_eq!(reg.counter_value("tm.live.checkpoints"), 1);
        // Zero-cycle waits are counted but emit no event.
        assert_eq!(obs.events().len(), 3);
        let gauges = reg.gauges();
        assert!(gauges.contains(&("tm.live.arbiter_epoch".to_string(), 2)));
    }

    #[test]
    fn span_helpers_and_accounting_publish_counters() {
        let obs = Arc::new(Obs::new());
        let r = RuntimeObs::attach(Arc::clone(&obs), "tm.");
        let sec = r.span_begin(0, SpanKind::Section, 0, 1);
        r.span_end(sec, 80);
        r.span_outcome(sec, SpanOutcome::Useful);
        let c = r.span_complete(0, SpanKind::Commit, 80, 100, 1);
        let sq = r.span_complete(1, SpanKind::Squash, 100, 110, 0);
        r.span_link(c, sq);
        let br = r.finish_cycle_accounting(&[100, 150]);
        assert!(br.violations.is_empty());
        assert!(br.conserves());
        let reg = obs.registry();
        assert_eq!(reg.counter_value("tm.cycles.useful"), 80);
        assert_eq!(reg.counter_value("tm.cycles.commit"), 20);
        assert_eq!(reg.counter_value("tm.cycles.overhead"), 10);
        assert_eq!(reg.counter_value("tm.cycles.total"), 250);
        assert_eq!(reg.counter_value("tm.cycles.audit_violations"), 0);
        assert_eq!(
            reg.counter_value("tm.cycles.useful")
                + reg.counter_value("tm.cycles.squashed")
                + reg.counter_value("tm.cycles.commit")
                + reg.counter_value("tm.cycles.stall")
                + reg.counter_value("tm.cycles.overhead")
                + reg.counter_value("tm.cycles.other"),
            reg.counter_value("tm.cycles.total"),
            "conservation invariant"
        );
        assert_eq!(obs.trace().spans()[2].cause, Some(c.raw()));
    }

    #[test]
    fn two_machines_share_one_trace_on_distinct_tracks() {
        let obs = Arc::new(Obs::new());
        let tm = RuntimeObs::attach(Arc::clone(&obs), "tm.");
        let tls = RuntimeObs::attach(Arc::clone(&obs), "tls.");
        assert_ne!(tm.track, tls.track);
        tm.span_complete(0, SpanKind::Commit, 0, 10, 0);
        tls.span_complete(0, SpanKind::Commit, 0, 30, 0);
        let br = tls.finish_cycle_accounting(&[40]);
        assert_eq!(br.commit, 30, "only the tls track is reduced");
    }

    #[test]
    fn overflow_obs_names() {
        let reg = Registry::new();
        let o = OverflowObs::register(&reg, "mem.");
        o.spills.inc();
        o.resident_max.record_max(7);
        assert_eq!(reg.counter_value("mem.overflow.spills"), 1);
        assert_eq!(reg.gauges(), vec![("mem.overflow.resident_max".to_string(), 7)]);
    }
}
