//! Counters and post-run auditing of the parallel runtime.

use crate::bus::{BusLog, RecordKind};
use crate::recover::RunControl;
use bulk_chaos::{Auditor, InvariantKind, InvariantViolation};
use bulk_core::CommitEvent;
use bulk_obs::Registry;

/// Aggregate statistics of one parallel-runtime run, folded from the
/// per-thread workers after join.
#[derive(Debug, Clone, Default)]
pub struct ParStats {
    /// Committed outer transactions (TM) or tasks (TLS).
    pub commits: u64,
    /// Squashes (full restarts of the running transaction/task).
    pub squashes: u64,
    /// Squashes where the exact oracle saw no conflict (signature
    /// aliasing only).
    pub false_squashes: u64,
    /// Commit-claim CAS attempts that lost the tail race and revalidated.
    pub claim_retries: u64,
    /// Iterations receivers spent waiting on a claimed-but-unpublished
    /// slot: one worker's claim-to-publish window in another's way.
    pub slot_wait_spins: u64,
    /// Non-transactional stores broadcast as individual records.
    pub non_tx_stores: u64,
    /// Records published on the bus log.
    pub records: u64,
    /// Duplicate deliveries dropped by receiver-side dedup (nonzero only
    /// under stress injection).
    pub dedup_drops: u64,
    /// Times one record was applied twice by one receiver (must stay 0).
    pub duplicate_applications: u64,
    /// Stress-mode re-deliveries injected.
    pub stress_redeliveries: u64,
    /// Stress-mode epoch bumps injected (arbiter re-elections).
    pub stress_epoch_bumps: u64,
    /// Worker deaths observed by the supervisor (injected kills plus
    /// genuine panics).
    pub worker_crashes: u64,
    /// Workers respawned from their last verified checkpoint.
    pub respawns: u64,
    /// Fence tombstones published into dead workers' orphaned slots
    /// (TM; the TLS engine adopts the claimed slot instead).
    pub fences: u64,
    /// Claimed slots a respawned TLS worker adopted and republished.
    pub adopted_slots: u64,
    /// Wall-clock nanoseconds spent in supervisor recovery (fencing,
    /// checkpoint verification, respawn).
    pub recovery_ns: u64,
    /// Chaos-injected worker stalls actually slept through.
    pub injected_stalls: u64,
    /// Chaos-injected claim-to-publish delays actually slept through.
    pub delayed_publishes: u64,
    /// Final bus epoch.
    pub epoch: u64,
    /// Individual invariant checks performed (apply-time oracle checks
    /// plus the post-run log audit).
    pub audit_checks: u64,
    /// Wall-clock duration of the run, in nanoseconds.
    pub wall_ns: u64,
    /// Commits per workload thread (TM) or per worker (TLS).
    pub per_thread_commits: Vec<u64>,
    /// Committed history in bus-log order.
    pub history: Vec<CommitEvent>,
    /// Invariant violations found at apply time or by the post-run
    /// audit (empty on a healthy run).
    pub violations: Vec<InvariantViolation>,
}

/// Post-run audit of the bus log, shared by the TM and TLS engines.
///
/// Everything here is *sound*: each check flags only genuine protocol
/// bugs, never racy-but-correct schedules. The timing-sensitive half of
/// serializability (a record conflicting with a set the receiver built
/// *before* applying it) is checked at apply time by the workers
/// themselves, exact-oracle alongside signatures; this pass re-checks
/// the structure the protocol promises of the finished log:
///
/// * density — every claimed slot was published;
/// * `validated_to == slot` — each committer's claim succeeded only
///   against its fully validated prefix (the CAS postcondition);
/// * per-publisher ordinals increase in log order — the global commit
///   order embeds every thread's program order;
/// * ticket uniqueness — `(committer, serial)` never repeats, which is
///   what makes receiver-side dedup exactly-once rather than lossy;
/// * signature containment — every exact written line is contained in
///   the broadcast write signature (no false negatives, the paper's
///   one-sided error guarantee).
///
/// [`RecordKind::Fence`] tombstones participate in density, claim and
/// ticket-uniqueness checks like any record — a fenced log is still
/// dense and exactly-once — but carry no ordinal or write set, so the
/// program-order and containment checks skip them.
fn audit_log(log: &BusLog, auditor: &mut Auditor, checks: &mut u64) {
    let tail = log.tail();
    let mut last_ordinal: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    let mut seen_tickets = std::collections::HashSet::new();
    for i in 0..tail {
        let Some(rec) = log.get(i) else {
            auditor.record(
                InvariantKind::TokenProtocol,
                0,
                i as u64,
                format!("bus slot {i} claimed but never published"),
            );
            continue;
        };
        *checks += 1;
        if rec.validated_to != i {
            auditor.record(
                InvariantKind::Serializability,
                rec.thread as usize,
                i as u64,
                format!(
                    "record {i} published after validating only {} records",
                    rec.validated_to
                ),
            );
        }
        *checks += 1;
        if !seen_tickets.insert((rec.ticket.committer, rec.ticket.serial)) {
            auditor.record(
                InvariantKind::TokenProtocol,
                rec.thread as usize,
                i as u64,
                format!(
                    "ticket ({}, {}) reused; dedup would drop a real commit",
                    rec.ticket.committer, rec.ticket.serial
                ),
            );
        }
        if rec.kind == RecordKind::Commit {
            *checks += 1;
            if let Some(&prev) = last_ordinal.get(&rec.thread) {
                if rec.ordinal <= prev {
                    auditor.record(
                        InvariantKind::Serializability,
                        rec.thread as usize,
                        i as u64,
                        format!(
                            "thread {} committed ordinal {} after {}",
                            rec.thread, rec.ordinal, prev
                        ),
                    );
                }
            }
            last_ordinal.insert(rec.thread, rec.ordinal);
        }
        if let Some(sig) = &rec.w_sig {
            for &line in &rec.exact_w {
                *checks += 1;
                if !sig.contains_line(line) {
                    auditor.record(
                        InvariantKind::SignatureContainment,
                        rec.thread as usize,
                        i as u64,
                        format!("committed line {line:?} missing from broadcast W_C"),
                    );
                }
            }
        }
    }
}

/// Extracts the committed history (commit records only, in log order).
fn history_of(log: &BusLog) -> Vec<CommitEvent> {
    let mut history = Vec::new();
    for i in 0..log.tail() {
        if let Some(rec) = log.get(i) {
            if rec.kind == RecordKind::Commit {
                history.push(CommitEvent { thread: rec.thread, ordinal: rec.ordinal, at: i as u64 });
            }
        }
    }
    history
}

#[derive(Debug, Clone, Default)]
pub(crate) struct WorkerStats {
    pub commits: u64,
    pub squashes: u64,
    pub false_squashes: u64,
    pub claim_retries: u64,
    pub slot_wait_spins: u64,
    pub non_tx_stores: u64,
    pub dedup_drops: u64,
    pub duplicate_applications: u64,
    pub stress_redeliveries: u64,
    pub stress_epoch_bumps: u64,
    pub injected_stalls: u64,
    pub delayed_publishes: u64,
    pub audit_checks: u64,
    pub violations: Vec<InvariantViolation>,
}

impl ParStats {
    /// Publishes the run's counters under `par.*` — the one list every
    /// surface reads (`--metrics`, `--metrics-out`, a `bulkd` scrape).
    /// Squash attribution uses the sim's names, so the same report code
    /// splits true conflicts from aliasing on either substrate.
    pub fn publish(&self, reg: &Registry) {
        let counters = [
            ("commits", self.commits),
            ("squashes", self.squashes),
            ("squash.true_conflict", self.squashes - self.false_squashes),
            ("squash.aliasing", self.false_squashes),
            ("claim_retries", self.claim_retries),
            ("slot_wait_spins", self.slot_wait_spins),
            ("non_tx_stores", self.non_tx_stores),
            ("records", self.records),
            ("dedup_drops", self.dedup_drops),
            ("duplicate_applications", self.duplicate_applications),
            ("worker_crashes", self.worker_crashes),
            ("respawns", self.respawns),
            ("fences", self.fences),
            ("adopted_slots", self.adopted_slots),
            ("recovery_ns", self.recovery_ns),
            ("injected_stalls", self.injected_stalls),
            ("delayed_publishes", self.delayed_publishes),
            ("epoch", self.epoch),
            ("audit_checks", self.audit_checks),
            ("violations", self.violations.len() as u64),
        ];
        for (name, value) in counters {
            reg.counter(&format!("par.{name}")).add(value);
        }
        reg.gauge("par.wall_ns").set(self.wall_ns);
    }

    /// Closes a finished run: reads epoch, record count and committed
    /// history off the log, then audits it ([`audit_log`], plus the
    /// `expected` record count the workload implies).
    pub(crate) fn seal(&mut self, log: &BusLog, ctl: &RunControl, actors: usize, expected: u64) {
        self.epoch = log.epoch();
        self.records = log.tail() as u64;
        self.history = history_of(log);
        let mut auditor = Auditor::new(ctl.scheme.clone(), actors, Some(ctl.seed));
        let mut checks = 1;
        audit_log(log, &mut auditor, &mut checks);
        if self.records != expected {
            auditor.record(
                InvariantKind::TokenProtocol,
                0,
                self.records,
                format!("bus log has {} records, workload implies {expected}", self.records),
            );
        }
        self.audit_checks += checks;
        self.violations.extend(auditor.take_violations());
    }

    pub(crate) fn fold(&mut self, w: WorkerStats) {
        self.commits += w.commits;
        self.squashes += w.squashes;
        self.false_squashes += w.false_squashes;
        self.claim_retries += w.claim_retries;
        self.slot_wait_spins += w.slot_wait_spins;
        self.non_tx_stores += w.non_tx_stores;
        self.dedup_drops += w.dedup_drops;
        self.duplicate_applications += w.duplicate_applications;
        self.stress_redeliveries += w.stress_redeliveries;
        self.stress_epoch_bumps += w.stress_epoch_bumps;
        self.injected_stalls += w.injected_stalls;
        self.delayed_publishes += w.delayed_publishes;
        self.audit_checks += w.audit_checks;
        self.violations.extend(w.violations);
    }
}
