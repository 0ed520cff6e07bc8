//! Counters of the parallel runtime, and the audit of its bus log that
//! the supervisor runs while the log grows.

use crate::bus::{BusLog, BusRecord, RecordKind};
use crate::recover::RunControl;
use bulk_chaos::{InvariantKind, InvariantViolation};
use bulk_core::CommitEvent;
use bulk_obs::Registry;

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
    /// slot: one worker's claim-to-publish window in another's way. A
    /// TLS successor that has executed its task waits here on its
    /// predecessor's claimed slot.
    pub slot_wait_spins: u64,
    /// Parks: a waiter past its yield budget sleeps until the slot it
    /// waits on is published or a short timeout passes, and each sleep
    /// counts once. Any wait on the log parks, not only the slot waits
    /// above; a TLS task waiting for its predecessors parks most.
    pub parks: u64,
    /// Non-transactional stores broadcast as individual records.
    pub non_tx_stores: u64,
    /// Records published on the bus log.
    pub records: u64,
    /// Worker deaths observed by the supervisor (injected kills plus
    /// genuine panics).
    pub worker_crashes: u64,
    /// Workers respawned after a death, from their last publish.
    pub respawns: u64,
    /// Claimed slots the supervisor handed to a respawned worker, which
    /// publishes into them (either engine).
    pub adopted_slots: u64,
    /// Wall-clock nanoseconds spent in supervisor recovery (the recovery
    /// point's check against the log, respawn).
    pub recovery_ns: u64,
    /// Chaos-injected worker stalls actually slept through.
    pub injected_stalls: u64,
    /// Chaos-injected claim-to-publish delays actually slept through.
    pub delayed_publishes: u64,
    /// Individual invariant checks performed (apply-time oracle checks
    /// plus the supervisor's log audit).
    pub audit_checks: u64,
    /// Wall-clock duration of the run, in nanoseconds.
    pub wall_ns: u64,
    /// Commits per workload thread (TM) or per worker (TLS).
    pub per_thread_commits: Vec<u64>,
    /// Committed history in bus-log order.
    pub history: Vec<CommitEvent>,
    /// Invariant violations found at apply time or by the log audit
    /// (empty on a healthy run).
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
            ("parks", self.parks),
            ("non_tx_stores", self.non_tx_stores),
            ("records", self.records),
            ("worker_crashes", self.worker_crashes),
            ("respawns", self.respawns),
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

    /// Adds one worker incarnation's counters — the ones a
    /// [`Receiver`](crate::receiver::Receiver) keeps — into the run's.
    pub(crate) fn fold(&mut self, w: ParStats) {
        self.commits += w.commits;
        self.squashes += w.squashes;
        self.false_squashes += w.false_squashes;
        self.claim_retries += w.claim_retries;
        self.slot_wait_spins += w.slot_wait_spins;
        self.parks += w.parks;
        self.non_tx_stores += w.non_tx_stores;
        self.injected_stalls += w.injected_stalls;
        self.delayed_publishes += w.delayed_publishes;
        self.audit_checks += w.audit_checks;
        self.violations.extend(w.violations);
    }
}

/// The supervisor's audit of the bus log: a cursor that trails the
/// published prefix during the run and checks each record once as it
/// lands ([`Audit::advance`]), then a close after the last worker exits
/// ([`Audit::finish`]).
///
/// Every check is *sound*: it flags only genuine protocol bugs, never
/// racy-but-correct schedules. The timing-sensitive half of
/// serializability (a record conflicting with a set the receiver built
/// *before* applying it) is checked at apply time by the workers,
/// exact-oracle alongside signatures; this audit checks the log:
///
/// * `validated_to == slot` — each publisher had applied exactly the
///   records before its slot when it published (its receiver's cursor;
///   the CAS postcondition);
/// * per-publisher ordinals increase in log order, commits and stores
///   each — the global order embeds every thread's program order, and a
///   record published twice repeats its ordinal;
/// * signature containment — every exact written line is contained in
///   the broadcast write signature (no false negatives, the paper's
///   one-sided error guarantee);
/// * TLS only: slot `i` holds task `i`'s commit;
/// * at the close, density — every claimed slot was published — and the
///   record count against the `expected` one the workload implies.
///
/// A record's slot is its only identity: with the ordinals and the
/// record count, no broadcast can be lost or repeated unseen. A store
/// has no signature, so containment skips it. A claimed slot is not yet
/// a gap: the cursor waits there, and only the close counts it.
pub(crate) struct Audit<'a> {
    log: &'a BusLog,
    ctl: &'a RunControl,
    /// Slots audited: every one below it was published and checked.
    cursor: usize,
    expected: u64,
    /// TLS: the log is the task order.
    in_task_order: bool,
    /// Per publishing thread (TM) or task (TLS), the least ordinal its
    /// next commit and next store may carry: one past the last seen.
    next_ordinal: Vec<[u64; 2]>,
    history: Vec<CommitEvent>,
    per_thread_commits: Vec<u64>,
    checks: u64,
    violations: Vec<InvariantViolation>,
}

impl<'a> Audit<'a> {
    /// An audit of `log`, which the workload fills with `expected`
    /// records, published by `publishers` threads (TM) or tasks (TLS);
    /// commits are attributed to `actors` workers, task `t` to worker
    /// `t % actors`. `in_task_order` is the TLS rule.
    pub(crate) fn new(
        log: &'a BusLog,
        ctl: &'a RunControl,
        publishers: usize,
        actors: usize,
        expected: usize,
        in_task_order: bool,
    ) -> Self {
        Audit {
            log,
            ctl,
            cursor: 0,
            expected: expected as u64,
            in_task_order,
            next_ordinal: vec![[0; 2]; publishers],
            history: Vec::with_capacity(expected),
            per_thread_commits: vec![0; actors],
            checks: 0,
            violations: Vec::new(),
        }
    }

    /// Audits every record published since the last call, in slot order,
    /// up to the first slot that is not published yet. Returns whether
    /// the cursor moved: the run made progress.
    pub(crate) fn advance(&mut self) -> bool {
        let (from, tail) = (self.cursor, self.log.tail());
        while self.cursor < tail {
            let Some(rec) = self.log.get(self.cursor) else { break };
            self.check(self.cursor, rec);
            self.cursor += 1;
        }
        self.cursor > from
    }

    /// Closes the audit once no worker can publish any more: audits the
    /// rest of the log, flagging each claimed slot that was never
    /// published, checks the record count, and hands the results to
    /// `stats`.
    pub(crate) fn finish(mut self, stats: &mut ParStats) {
        self.advance();
        let tail = self.log.tail();
        for i in self.cursor..tail {
            match self.log.get(i) {
                Some(rec) => self.check(i, rec),
                None => self.flag(
                    InvariantKind::TokenProtocol,
                    0,
                    i as u64,
                    format!("bus slot {i} claimed but never published"),
                ),
            }
        }
        stats.records = tail as u64;
        self.checks += 1;
        if stats.records != self.expected {
            let (records, expected) = (stats.records, self.expected);
            let detail = format!("bus log has {records} records, workload implies {expected}");
            self.flag(InvariantKind::TokenProtocol, 0, records, detail);
        }
        stats.history = self.history;
        stats.per_thread_commits = self.per_thread_commits;
        stats.audit_checks += self.checks;
        stats.violations.extend(self.violations);
    }

    /// The checks of the record published in slot `i`.
    fn check(&mut self, i: usize, rec: &BusRecord) {
        let (thread, at) = (rec.thread as usize, i as u64);
        self.checks += 2;
        if rec.validated_to != i {
            let detail =
                format!("record {i} published after validating only {} records", rec.validated_to);
            self.flag(InvariantKind::Serializability, thread, at, detail);
        }
        let verb = match rec.kind {
            RecordKind::Commit => {
                self.history.push(CommitEvent { thread: rec.thread, ordinal: rec.ordinal, at });
                let n = self.per_thread_commits.len();
                self.per_thread_commits[thread % n] += 1;
                "committed"
            }
            RecordKind::NonTxStore => "stored",
        };
        let next = &mut self.next_ordinal[thread][rec.kind as usize];
        let (ordinal, least) = (rec.ordinal, std::mem::replace(next, rec.ordinal + 1));
        if ordinal < least {
            let detail = format!("thread {thread} {verb} ordinal {ordinal} after {}", least - 1);
            self.flag(InvariantKind::Serializability, thread, at, detail);
        }
        if let Some(sig) = &rec.w_sig {
            self.checks += rec.exact_w.len() as u64;
            for &line in &rec.exact_w {
                if !sig.contains_line(line) {
                    let detail = format!("committed line {line:?} missing from broadcast W_C");
                    self.flag(InvariantKind::SignatureContainment, thread, at, detail);
                }
            }
        }
        if self.in_task_order {
            self.checks += 1;
            if thread != i {
                let detail = format!("task {thread} committed at log position {i}: order broken");
                self.flag(InvariantKind::Serializability, thread, at, detail);
            }
        }
    }

    fn flag(&mut self, kind: InvariantKind, thread: usize, cycle: u64, detail: String) {
        self.violations.push(self.ctl.violation(kind, thread, cycle, &detail));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParConfig;
    use bulk_mem::LineAddr;
    use bulk_sig::{Signature, SignatureConfig};

    fn line(slot: usize) -> LineAddr {
        LineAddr::new(0x100 + slot as u32)
    }

    fn ctl() -> RunControl {
        RunControl::new("par/tm/Bulk".into(), 2, &ParConfig::default())
    }

    /// Slot `slot` of a healthy two-thread log: thread `slot % 2`'s commit
    /// number `slot / 2`, broadcasting one line its `W_C` contains.
    fn commit(slot: usize) -> BusRecord {
        let (thread, n) = (slot % 2, (slot / 2) as u64);
        let mut w = Signature::new(SignatureConfig::s14_tm());
        w.insert_line(line(slot));
        let bare = BusRecord::bare(thread, n, RecordKind::Commit);
        BusRecord { w_sig: Some(w), exact_w: vec![line(slot)], validated_to: slot, ..bare }
    }

    /// Thread 1's first non-transactional store, published into `slot`.
    fn store(slot: usize) -> BusRecord {
        let bare = BusRecord::bare(1, 0, RecordKind::NonTxStore);
        BusRecord { exact_w: vec![line(9)], validated_to: slot, ..bare }
    }

    /// Runs the log a two-thread TM run of `records` would leave, with the
    /// audit trailing it as the supervisor's ticks do: a tick after each
    /// claim and after each publish (a `None` is claimed and never
    /// published). Then closes the audit against a workload that implies
    /// `expected` records.
    fn audited(records: Vec<Option<BusRecord>>, expected: usize) -> ParStats {
        let (ctl, log) = (ctl(), BusLog::new(records.len()));
        let mut audit = Audit::new(&log, &ctl, 2, 2, expected, false);
        for (slot, rec) in records.into_iter().enumerate() {
            assert!(log.try_claim(slot));
            audit.advance();
            if let Some(rec) = rec {
                log.publish(slot, rec).unwrap();
            }
            audit.advance();
        }
        let mut stats = ParStats::default();
        audit.finish(&mut stats);
        stats
    }

    /// The one violation auditing `records` must find, as
    /// `(kind, thread, cycle, detail)`.
    fn only_violation(
        records: Vec<Option<BusRecord>>,
        expected: usize,
    ) -> (InvariantKind, usize, u64, String) {
        let stats = audited(records, expected);
        assert_eq!(stats.violations.len(), 1, "{:?}", stats.violations);
        let v = &stats.violations[0];
        assert_eq!((v.scheme.as_str(), v.seed), ("par/tm/Bulk", Some(ParConfig::default().seed)));
        (v.kind, v.thread, v.cycle, v.detail.clone())
    }

    #[test]
    fn a_clean_log_with_a_bare_store_audits_without_violations() {
        // Thread 1's first commit comes after its store.
        let late = BusRecord { ordinal: 0, ..commit(3) };
        let stats = audited(vec![Some(commit(0)), Some(store(1)), Some(commit(2)), Some(late)], 4);
        assert!(stats.violations.is_empty(), "{:?}", stats.violations);
        assert_eq!(stats.records, 4);
        let history: Vec<(u32, u64, u64)> =
            stats.history.iter().map(|e| (e.thread, e.ordinal, e.at)).collect();
        assert_eq!(history, vec![(0, 0, 0), (0, 1, 2), (1, 0, 3)]);
        assert_eq!(stats.per_thread_commits, vec![2, 1]);
        // The record count, then per record its claim and its ordinal, and
        // per line of a signed record its containment.
        assert_eq!(stats.audit_checks, 1 + 4 * 2 + 3);
    }

    #[test]
    fn the_cursor_waits_at_a_claimed_slot_and_audits_it_once_when_it_lands() {
        let (ctl, log) = (ctl(), BusLog::new(3));
        let mut audit = Audit::new(&log, &ctl, 2, 2, 3, false);
        assert!(!audit.advance(), "an empty log is no progress");
        assert!(log.try_claim(0));
        log.publish(0, commit(0)).unwrap();
        assert!(log.try_claim(1));
        // Slot 1 is claimed and still unpublished: the cursor stops there,
        // and a claim in flight is not a gap.
        assert!(audit.advance());
        assert_eq!((audit.cursor, audit.checks), (1, 2 + 1));
        assert!(!audit.advance(), "nothing new");
        assert!(audit.violations.is_empty(), "{:?}", audit.violations);
        // It lands; the next tick audits it and moves on, once.
        log.publish(1, commit(1)).unwrap();
        assert!(audit.advance());
        assert!(!audit.advance());
        assert_eq!((audit.cursor, audit.checks, audit.history.len()), (2, 2 * (2 + 1), 2));
        assert!(log.try_claim(2));
        log.publish(2, commit(2)).unwrap();
        // The close picks up what no tick saw.
        let mut stats = ParStats::default();
        audit.finish(&mut stats);
        assert!(stats.violations.is_empty(), "{:?}", stats.violations);
        let slots: Vec<u64> = stats.history.iter().map(|e| e.at).collect();
        assert_eq!(slots, vec![0, 1, 2]);
        assert_eq!(stats.audit_checks, 1 + 3 * 2 + 3);
    }

    #[test]
    fn a_claimed_slot_that_was_never_published_breaks_density_at_the_close() {
        let (ctl, log) = (ctl(), BusLog::new(3));
        let mut audit = Audit::new(&log, &ctl, 2, 2, 3, false);
        for slot in 0..3 {
            assert!(log.try_claim(slot));
        }
        log.publish(0, commit(0)).unwrap();
        log.publish(2, commit(2)).unwrap();
        audit.advance();
        assert_eq!(audit.cursor, 1, "stopped at the unpublished slot");
        assert!(audit.violations.is_empty(), "not a gap until the close");
        let mut stats = ParStats::default();
        audit.finish(&mut stats);
        let found: Vec<_> = stats.violations.iter().map(|v| (v.kind, v.thread, v.cycle)).collect();
        assert_eq!(found, [(InvariantKind::TokenProtocol, 0, 1)]);
        assert_eq!(stats.violations[0].detail, "bus slot 1 claimed but never published");
        // Slot 2, past the gap, is still audited.
        assert_eq!(stats.history.len(), 2);
        assert_eq!(stats.audit_checks, 1 + 2 * 2 + 2);
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
    fn a_store_published_twice_breaks_program_order() {
        // A duplicated broadcast repeats its publisher's ordinal; a store's
        // ordinals are checked apart from the same thread's commits.
        assert_eq!(
            only_violation(vec![Some(commit(0)), Some(store(1)), Some(store(2))], 3),
            (InvariantKind::Serializability, 1, 2, "thread 1 stored ordinal 0 after 0".into())
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

    #[test]
    fn a_task_out_of_its_slot_breaks_the_tls_order() {
        // Two TLS workers: slot i must hold task i's commit. Task 2 landed
        // in slot 1, and task 1 never published.
        let task = |t: usize, slot: usize| BusRecord {
            validated_to: slot,
            ..BusRecord::bare(t, 0, RecordKind::Commit)
        };
        let (ctl, log) = (ctl(), BusLog::new(3));
        let mut audit = Audit::new(&log, &ctl, 3, 2, 3, true);
        for (slot, t) in [0, 2].into_iter().enumerate() {
            assert!(log.try_claim(slot));
            log.publish(slot, task(t, slot)).unwrap();
        }
        let mut stats = ParStats::default();
        audit.advance();
        audit.finish(&mut stats);
        let found: Vec<_> = stats.violations.iter().map(|v| (v.kind, v.thread, v.cycle)).collect();
        assert_eq!(
            found,
            [(InvariantKind::Serializability, 2, 1), (InvariantKind::TokenProtocol, 0, 2)]
        );
        let details: Vec<&str> = stats.violations.iter().map(|v| v.detail.as_str()).collect();
        assert_eq!(
            details,
            [
                "task 2 committed at log position 1: order broken",
                "bus log has 2 records, workload implies 3"
            ]
        );
        // Task t ran on worker t % 2; each record's order is one check more.
        assert_eq!(stats.per_thread_commits, vec![2, 0]);
        assert_eq!(stats.audit_checks, 1 + 2 * 3);
    }
}
