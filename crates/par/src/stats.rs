//! Counters and post-run auditing of the parallel runtime.

use crate::bus::{BusLog, RecordKind};
use crate::recover::RunControl;
use bulk_chaos::{Auditor, InvariantKind, InvariantViolation};
use bulk_core::CommitEvent;
use bulk_mem::AddrHasher;
use bulk_obs::Registry;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

/// Statistics of one parallel-runtime run, and of each worker
/// incarnation in it: the supervisor folds every incarnation's counters
/// into the run's after join.
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
            ("worker_crashes", self.worker_crashes),
            ("respawns", self.respawns),
            ("fences", self.fences),
            ("adopted_slots", self.adopted_slots),
            ("recovery_ns", self.recovery_ns),
            ("injected_stalls", self.injected_stalls),
            ("delayed_publishes", self.delayed_publishes),
            ("audit_checks", self.audit_checks),
            ("violations", self.violations.len() as u64),
        ];
        for (name, value) in counters {
            reg.counter(&format!("par.{name}")).add(value);
        }
        reg.gauge("par.wall_ns").set(self.wall_ns);
    }

    /// Closes a finished run in one walk of the log: reads the record count
    /// and committed history (commit records, in log order) off it and
    /// audits it, against the structure the protocol promises and the
    /// `expected` record count the workload implies.
    ///
    /// Everything here is *sound*: each check flags only genuine protocol
    /// bugs, never racy-but-correct schedules. The timing-sensitive half of
    /// serializability (a record conflicting with a set the receiver built
    /// *before* applying it) is checked at apply time by the workers
    /// themselves, exact-oracle alongside signatures; this pass re-checks
    /// the finished log:
    ///
    /// * density — every claimed slot was published;
    /// * `validated_to == slot` — each committer's claim succeeded only
    ///   against its fully validated prefix (the CAS postcondition);
    /// * per-publisher ordinals increase in log order — the global commit
    ///   order embeds every thread's program order;
    /// * ticket uniqueness — `(committer, serial)` never repeats: each
    ///   record is a distinct broadcast, which with each receiver's
    ///   cursor walking every slot once makes application exactly-once;
    /// * signature containment — every exact written line is contained in
    ///   the broadcast write signature (no false negatives, the paper's
    ///   one-sided error guarantee).
    ///
    /// [`RecordKind::Fence`] tombstones participate in density, claim and
    /// ticket-uniqueness checks like any record — a fenced log is still
    /// dense and exactly-once — but carry no ordinal or write set, so the
    /// program-order and containment checks skip them; a store carries an
    /// address and no signature to contain it.
    ///
    /// The ticket set and the ordinal map are sized once from the tail and
    /// hash with the fixed [`AddrHasher`]: their keys are tickets and
    /// thread indices this process stamped, not outside input.
    pub(crate) fn seal(&mut self, log: &BusLog, ctl: &RunControl, actors: usize, expected: u64) {
        let tail = log.tail();
        self.records = tail as u64;
        self.history.reserve(self.commits as usize);
        let mut auditor = Auditor::new(ctl.scheme.clone(), actors, Some(ctl.seed));
        let mut checks = 1;
        let hasher = BuildHasherDefault::<AddrHasher>::default;
        let mut seen_tickets = HashSet::with_capacity_and_hasher(tail, hasher());
        let mut last_ordinal = HashMap::with_capacity_and_hasher(tail, hasher());
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
            let (thread, at) = (rec.thread as usize, i as u64);
            checks += 2;
            if rec.validated_to != i {
                auditor.record(
                    InvariantKind::Serializability,
                    thread,
                    at,
                    format!(
                        "record {i} published after validating only {} records",
                        rec.validated_to
                    ),
                );
            }
            if !seen_tickets.insert((rec.ticket.committer as u64, rec.ticket.serial)) {
                auditor.record(
                    InvariantKind::TokenProtocol,
                    thread,
                    at,
                    format!(
                        "ticket ({}, {}) reused: two records carry one (committer, serial) identity",
                        rec.ticket.committer, rec.ticket.serial
                    ),
                );
            }
            if rec.kind == RecordKind::Commit {
                self.history.push(CommitEvent { thread: rec.thread, ordinal: rec.ordinal, at });
                checks += 1;
                if let Some(prev) = last_ordinal.insert(rec.thread, rec.ordinal) {
                    if rec.ordinal <= prev {
                        auditor.record(
                            InvariantKind::Serializability,
                            thread,
                            at,
                            format!(
                                "thread {} committed ordinal {} after {prev}",
                                rec.thread, rec.ordinal
                            ),
                        );
                    }
                }
            }
            if let Some(sig) = &rec.w_sig {
                checks += rec.exact_w.len() as u64;
                for &line in &rec.exact_w {
                    if !sig.contains_line(line) {
                        auditor.record(
                            InvariantKind::SignatureContainment,
                            thread,
                            at,
                            format!("committed line {line:?} missing from broadcast W_C"),
                        );
                    }
                }
            }
        }
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

    /// Adds one worker incarnation's counters — the ones a
    /// [`Receiver`](crate::receiver::Receiver) keeps — into the run's.
    pub(crate) fn fold(&mut self, w: ParStats) {
        self.commits += w.commits;
        self.squashes += w.squashes;
        self.false_squashes += w.false_squashes;
        self.claim_retries += w.claim_retries;
        self.slot_wait_spins += w.slot_wait_spins;
        self.non_tx_stores += w.non_tx_stores;
        self.injected_stalls += w.injected_stalls;
        self.delayed_publishes += w.delayed_publishes;
        self.audit_checks += w.audit_checks;
        self.violations.extend(w.violations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{BusRecord, CommitTicket};
    use crate::config::ParConfig;
    use bulk_mem::LineAddr;
    use bulk_sig::{Signature, SignatureConfig};

    fn line(slot: usize) -> LineAddr {
        LineAddr::new(0x100 + slot as u32)
    }

    /// Slot `slot` of a healthy two-thread log: thread `slot % 2`'s commit
    /// number `slot / 2`, broadcasting one line its `W_C` contains.
    fn commit(slot: usize) -> BusRecord {
        let (thread, n) = (slot % 2, (slot / 2) as u64);
        let ticket = CommitTicket { committer: thread, serial: n };
        let mut w = Signature::new(SignatureConfig::s14_tm());
        w.insert_line(line(slot));
        let bare = BusRecord::bare(ticket, thread, n, RecordKind::Commit, slot);
        BusRecord { w_sig: Some(w), exact_w: vec![line(slot)], ..bare }
    }

    /// Claims a slot per entry, publishes the `Some`s, and seals the log
    /// against a workload that implies `expected` records.
    fn sealed(records: Vec<Option<BusRecord>>, expected: u64) -> ParStats {
        let log = BusLog::new(records.len());
        for (slot, rec) in records.into_iter().enumerate() {
            assert!(log.try_claim(slot));
            if let Some(rec) = rec {
                log.publish(slot, rec).unwrap();
            }
        }
        let ctl = RunControl::new("par/tm/Bulk".into(), 2, &ParConfig::default());
        let mut stats = ParStats::default();
        stats.seal(&log, &ctl, 2, expected);
        stats
    }

    /// The one violation sealing `records` must find, as
    /// `(kind, thread, cycle, detail)`.
    fn only_violation(
        records: Vec<Option<BusRecord>>,
        expected: u64,
    ) -> (InvariantKind, usize, u64, String) {
        let stats = sealed(records, expected);
        assert_eq!(stats.violations.len(), 1, "{:?}", stats.violations);
        let v = &stats.violations[0];
        assert_eq!((v.scheme.as_str(), v.seed), ("par/tm/Bulk", Some(ParConfig::default().seed)));
        (v.kind, v.thread, v.cycle, v.detail.clone())
    }

    #[test]
    fn a_clean_log_with_a_fence_and_a_bare_store_seals_without_violations() {
        let ticket = |serial| CommitTicket { committer: 1, serial };
        let store = BusRecord {
            exact_w: vec![line(9)],
            ..BusRecord::bare(ticket(0), 1, 0, RecordKind::NonTxStore, 1)
        };
        let fence = BusRecord::bare(ticket(1), 1, 0, RecordKind::Fence, 2);
        // Thread 1's first commit comes after its store and its fence.
        let late = BusRecord { ticket: ticket(2), ordinal: 0, ..commit(3) };
        let stats =
            sealed(vec![Some(commit(0)), Some(store), Some(fence), Some(late), Some(commit(4))], 5);
        assert!(stats.violations.is_empty(), "{:?}", stats.violations);
        assert_eq!(stats.records, 5);
        let history: Vec<(u32, u64, u64)> =
            stats.history.iter().map(|e| (e.thread, e.ordinal, e.at)).collect();
        assert_eq!(history, vec![(0, 0, 0), (1, 0, 3), (0, 2, 4)]);
        // The record count, then per record claim + ticket, per commit its
        // ordinal and per line of a signed record its containment.
        assert_eq!(stats.audit_checks, 1 + 5 * 2 + 3 + 3);
    }

    #[test]
    fn a_claimed_slot_that_was_never_published_breaks_density() {
        assert_eq!(
            only_violation(vec![Some(commit(0)), None, Some(commit(2))], 3),
            (InvariantKind::TokenProtocol, 0, 1, "bus slot 1 claimed but never published".into())
        );
    }

    #[test]
    fn a_record_published_past_its_validated_prefix_breaks_serializability() {
        let early = BusRecord { validated_to: 0, ..commit(1) };
        assert_eq!(
            only_violation(vec![Some(commit(0)), Some(early)], 2),
            (
                InvariantKind::Serializability,
                1,
                1,
                "record 1 published after validating only 0 records".into()
            )
        );
    }

    #[test]
    fn a_reused_ticket_breaks_exactly_once() {
        let reused = BusRecord { ticket: commit(0).ticket, ..commit(2) };
        assert_eq!(
            only_violation(vec![Some(commit(0)), Some(commit(1)), Some(reused)], 3),
            (
                InvariantKind::TokenProtocol,
                0,
                2,
                "ticket (0, 0) reused: two records carry one (committer, serial) identity".into()
            )
        );
    }

    #[test]
    fn an_ordinal_that_does_not_increase_breaks_program_order() {
        let stale = BusRecord { ordinal: 0, ..commit(2) };
        assert_eq!(
            only_violation(vec![Some(commit(0)), Some(commit(1)), Some(stale)], 3),
            (InvariantKind::Serializability, 0, 2, "thread 0 committed ordinal 0 after 0".into())
        );
    }

    #[test]
    fn an_exact_line_missing_from_w_c_breaks_containment() {
        let missing = LineAddr::new(0x7777);
        let rec = commit(1);
        assert!(!rec.w_sig.as_ref().unwrap().contains_line(missing), "pick another line");
        let lossy = BusRecord { exact_w: vec![line(1), missing], ..rec };
        assert_eq!(
            only_violation(vec![Some(commit(0)), Some(lossy)], 2),
            (
                InvariantKind::SignatureContainment,
                1,
                1,
                format!("committed line {missing:?} missing from broadcast W_C")
            )
        );
    }

    #[test]
    fn a_record_count_the_workload_does_not_imply_breaks_the_token_protocol() {
        assert_eq!(
            only_violation(vec![Some(commit(0)), Some(commit(1))], 3),
            (InvariantKind::TokenProtocol, 0, 2, "bus log has 2 records, workload implies 3".into())
        );
    }
}
