//! The parallel TM engine: one OS thread per workload thread, conflicts
//! disambiguated by Bulk signatures over the shared [`BusLog`].
//!
//! Protocol (the paper's lazy commit, made concurrent):
//!
//! * each thread executes its trace speculatively, inserting read/write
//!   lines into local R/W signatures (Bulk) and appending them to exact
//!   oracle access logs (always);
//! * between operations it *polls* the log and applies every new record
//!   to its speculative state: a record whose `W_C` intersects the local
//!   `R ∪ W` squashes the transaction (restart from `Begin`, cleared
//!   sets, jittered-backoff yield);
//! * commit is validate-then-claim: the thread polls until its view is
//!   the full log, then CASes the tail from that length — success means
//!   no record it hasn't validated against can ever be ordered before
//!   its own, so publishing is race-free. A failed CAS means someone
//!   else committed; the loser re-validates against the winner (and may
//!   squash instead);
//! * non-transactional stores publish one-line records (the paper's
//!   individual invalidation path), so speculative readers of those
//!   lines squash exactly as in the sim.
//!
//! Termination is unconditional: the log holds exactly one record per
//! outer transaction and store, each record squashes each thread at
//! most once (a receiver's cursor passes each slot once), and every
//! failed commit CAS implies another thread's commit was published.
//! Squashes are therefore bounded by `records × threads` and no
//! livelock or escalation path is needed.
//!
//! # Fault model
//!
//! Workers die — injected kills from the chaos schedule, or genuine
//! panics caught at the thread boundary. Death never aborts the run:
//! each worker reports a typed [`Halt`] to the supervisor
//! ([`supervise`], shared with the TLS engine), which
//!
//! 1. *checks* the worker's last boundary — the pc just past its most
//!    recent publish — and the slot it held, if any, against the
//!    published log;
//! 2. *respawns* the processor from that boundary, with a fresh
//!    [`Receiver`] whose cursor starts at 0 and replays the whole log —
//!    exactly-once `W_C` application holds across the crash because the
//!    new incarnation's state is fresh, its cursor passes each slot once,
//!    and the worker's own old records never squash it;
//! 3. hands the respawn the slot its dead incarnation claimed and never
//!    published. No claim can pass an unpublished slot, so it is the
//!    log's last, every record before it is published, and the log stops
//!    growing until the adopter publishes: its replay ends at the slot
//!    with no verdict (depth 0), and since the trace is fixed and the
//!    boundary moves only on a publish, it re-executes to the same
//!    operation with the same ordinal and publishes it into the slot.
//!
//! A hung (rather than dead) peer is caught by the wall-clock watchdog:
//! every wait checks the bound after each yield and each wake, and turns
//! a stall into a typed `LivenessViolation` carrying the replay seed.

use crate::bus::{BusLog, BusRecord, RecordKind};
use crate::config::ParConfig;
use crate::receiver::{Receiver, SpecSets};
use crate::recover::{supervise, Halt, RunControl};
use crate::runtime::RuntimeError;
use crate::stats::{Audit, ParStats};
use bulk_chaos::MachineError;
use bulk_sig::SignatureConfig;
use bulk_tm::Scheme;
use bulk_trace::{TmOp, TmWorkload};

/// Nesting bound shared with the sim machine's trace validation.
const MAX_DEPTH: usize = 8;

/// A worker's last recovery point: the pc just past its most recent
/// publish and the ordinals counted up to it. Speculative state is empty
/// there, so a respawn starts from fresh [`SpecSets`].
#[derive(Debug, Default)]
struct Boundary {
    pc: usize,
    commit_ordinal: u64,
    non_tx_ordinal: u64,
}

/// Runs `workload` under the parallel runtime and returns the folded
/// statistics. Only the lazy-commit schemes are supported: `Bulk`
/// (signatures) and `Lazy` (exact sets); eager schemes disambiguate at
/// access time against remote *uncommitted* state, which has no sound
/// mapping onto a broadcast-log substrate.
pub fn run_par_tm(
    workload: &TmWorkload,
    scheme: Scheme,
    cfg: &ParConfig,
) -> Result<ParStats, RuntimeError> {
    if workload.threads.is_empty() {
        let empty = MachineError::EmptyWorkload { machine: "tm" };
        return Err(RuntimeError::InvalidWorkload(empty.to_string()));
    }
    match scheme {
        Scheme::Bulk | Scheme::Lazy => {}
        other => {
            return Err(RuntimeError::UnsupportedScheme {
                runtime: "par",
                scheme: other.to_string(),
                why: "eager/partial schemes need access-time remote state; \
                      the broadcast-log substrate only orders commits",
            })
        }
    }
    // One pass per thread checks its nesting and counts its broadcasts —
    // one per outer transaction and per non-transactional store — which
    // sum to the log's exact size.
    let mut capacity = 0;
    for (i, t) in workload.threads.iter().enumerate() {
        capacity += t.validate(MAX_DEPTH).map_err(|source| {
            RuntimeError::InvalidWorkload(MachineError::Trace { thread: i, source }.to_string())
        })?;
    }

    let n = workload.threads.len();
    let sig_config = SignatureConfig::s14_tm().into_shared();
    let sets = || SpecSets::new(scheme.uses_signatures(), sig_config.clone());
    let ctl = RunControl::new(format!("par/tm/{scheme}"), n, cfg);
    let log = BusLog::new(capacity.max(1));

    supervise(
        n,
        cfg,
        &ctl,
        Audit::new(&log, &ctl, n, n, capacity, false),
        |_| Boundary::default(),
        |rx, boundary| {
            let ops = &workload.threads[rx.proc].ops;
            TmWorker::resume(sets(), boundary).run(rx, ops, &log, &ctl)?;
            rx.drain_for_apply_kill(&log, &ctl, capacity)
        },
        // Killed or panicked: check, then respawn from the boundary.
        |dead, boundary| {
            verify_tm_resume(&log, dead.proc, dead.claimed_unpublished, &boundary)?;
            Ok(boundary)
        },
    )
}

/// Pre-respawn check: the dead worker's boundary ordinals must match
/// what the worker actually published — the log is the ground truth a
/// stale boundary can't survive — and a slot it `held` must be the
/// log's last claimed slot, still unpublished, which is what lets the
/// respawn adopt it.
fn verify_tm_resume(
    log: &BusLog,
    proc: usize,
    held: Option<usize>,
    boundary: &Boundary,
) -> Result<(), RuntimeError> {
    let tail = log.tail();
    if let Some(slot) = held.filter(|&slot| tail != slot + 1 || log.get(slot).is_some()) {
        return Err(RuntimeError::ProtocolBug(format!(
            "worker {proc} held slot {slot}, which is not the log's unpublished \
             last slot (tail {tail})"
        )));
    }
    let (mut commits, mut stores) = (0u64, 0u64);
    for i in 0..tail {
        let Some(rec) = log.get(i) else { continue };
        if rec.thread as usize != proc {
            continue;
        }
        match rec.kind {
            RecordKind::Commit => commits += 1,
            RecordKind::NonTxStore => stores += 1,
        }
    }
    if commits != boundary.commit_ordinal || stores != boundary.non_tx_ordinal {
        return Err(RuntimeError::ProtocolBug(format!(
            "worker {proc} boundary is at {}/{} commits/stores but the log holds \
             {commits}/{stores}",
            boundary.commit_ordinal, boundary.non_tx_ordinal
        )));
    }
    Ok(())
}

/// One incarnation's execution state; its bus state is the [`Receiver`].
struct TmWorker<'a> {
    sets: SpecSets,
    pc: usize,
    depth: usize,
    tx_start_pc: usize,
    /// The recovery point, advanced past every publish. It lives outside
    /// the incarnation so that a panic cannot take it down too.
    boundary: &'a mut Boundary,
}

impl<'a> TmWorker<'a> {
    /// An incarnation starting at `boundary`: pc 0 for the first, the dead
    /// worker's last publish for a respawn, which re-executes from there
    /// after its fresh receiver has replayed the log.
    fn resume(sets: SpecSets, boundary: &'a mut Boundary) -> Self {
        TmWorker { sets, pc: boundary.pc, depth: 0, tx_start_pc: boundary.pc, boundary }
    }

    fn run(
        &mut self,
        rx: &mut Receiver,
        ops: &[TmOp],
        log: &BusLog,
        ctl: &RunControl,
    ) -> Result<(), Halt> {
        while self.pc < ops.len() {
            if ctl.aborted() {
                return Err(Halt::Aborted);
            }
            if self.poll(rx, log, ctl)? {
                continue; // pc was reset to the transaction start
            }
            match ops[self.pc] {
                TmOp::Begin => {
                    if self.depth == 0 {
                        self.tx_start_pc = self.pc;
                    }
                    self.depth += 1;
                }
                // Closed nesting is flat here, as in sim Bulk: inner
                // commits make nothing visible.
                TmOp::End if self.depth > 1 => self.depth -= 1,
                TmOp::End => {
                    rx.flush_dwell();
                    let (w_sig, exact_w) = self.sets.commit_payload();
                    let bare =
                        BusRecord::bare(rx.proc, self.boundary.commit_ordinal, RecordKind::Commit);
                    self.broadcast(rx, log, ctl, BusRecord { w_sig, exact_w, ..bare })?;
                    continue; // pc is past the commit, or back at its `Begin`
                }
                TmOp::Read(a) if self.depth > 0 => self.sets.read(a),
                TmOp::Read(_) => {}
                TmOp::Write(a) if self.depth > 0 => self.sets.write(a),
                // A non-transactional store: ordered on the log like a
                // commit (so speculative readers squash on it), but never
                // squashable itself. It broadcasts its address, not a
                // signature (§4.2).
                TmOp::Write(a) => {
                    let ordinal = self.boundary.non_tx_ordinal;
                    let bare = BusRecord::bare(rx.proc, ordinal, RecordKind::NonTxStore);
                    let exact_w = vec![self.sets.line(a)];
                    self.broadcast(rx, log, ctl, BusRecord { exact_w, ..bare })?;
                    continue;
                }
                TmOp::Compute(n) => rx.dwell(n),
            }
            self.pc += 1;
        }
        rx.flush_dwell();
        Ok(())
    }

    /// Steps past a published op of `kind` and moves the recovery point
    /// there, where speculative state is clean. The point moves in one
    /// step, after everything that can panic.
    fn published(&mut self, rx: &mut Receiver, kind: RecordKind) {
        self.pc += 1;
        let b = &mut *self.boundary;
        match kind {
            RecordKind::Commit => {
                rx.stats.commits += 1;
                self.depth = 0;
                self.sets.clear();
                b.commit_ordinal += 1;
            }
            RecordKind::NonTxStore => {
                rx.stats.non_tx_stores += 1;
                b.non_tx_ordinal += 1;
            }
        }
        b.pc = self.pc;
    }

    /// Polls the bus; a peer's record whose `W_C` hits this transaction's
    /// `R ∪ W` squashes it: cleared sets, restart from `Begin`, backoff.
    /// Returns whether that happened. Once per op: `always`, because as a
    /// hint LLVM left it an out-of-line call in the worker loop, as it
    /// once did TLS's `poll`.
    #[inline(always)]
    fn poll(&mut self, rx: &mut Receiver, log: &BusLog, ctl: &RunControl) -> Result<bool, Halt> {
        let (me, depth, sets) = (rx.proc, self.depth, &self.sets);
        let squashed = rx.poll(log, ctl, |rec| {
            (rec.thread as usize != me && depth > 0).then(|| sets.verdict(rec, true))
        })?;
        if squashed {
            self.depth = 0;
            self.sets.clear();
            self.pc = self.tx_start_pc;
            rx.backoff();
        }
        Ok(squashed)
    }

    /// Validate-then-claim: returns with `record` published — or, for a
    /// commit, squashed instead by a record a winner of the claim
    /// published. A store is outside any transaction, so no poll squashes
    /// it.
    ///
    /// The record is built first, outside the validate→claim→publish
    /// sequence (DESIGN.md §18); a claim that loses the tail race retries
    /// with the same record — only a squash changes the sets, and it ends
    /// the attempt.
    fn broadcast(
        &mut self,
        rx: &mut Receiver,
        log: &BusLog,
        ctl: &RunControl,
        record: BusRecord,
    ) -> Result<(), Halt> {
        while !self.poll(rx, log, ctl)? {
            let slot = rx.cursor;
            if rx.claim(log, slot)? {
                let kind = record.kind;
                rx.publish(log, slot, record)?;
                self.published(rx, kind);
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulk_chaos::{CrashPoint, KillSpec};
    use bulk_mem::Addr;
    use bulk_trace::ThreadTrace;

    fn tx(lines: &[(bool, u32)]) -> Vec<TmOp> {
        let mut ops = vec![TmOp::Begin];
        for &(write, a) in lines {
            ops.push(if write { TmOp::Write(Addr::new(a)) } else { TmOp::Read(Addr::new(a)) });
        }
        ops.push(TmOp::End);
        ops
    }

    fn workload(threads: Vec<Vec<TmOp>>) -> TmWorkload {
        TmWorkload {
            name: "unit".into(),
            threads: threads.into_iter().map(|ops| ThreadTrace { ops }).collect(),
        }
    }

    #[test]
    fn broadcast_count_is_exact() {
        let ops = vec![
            TmOp::Write(Addr::new(0x40)), // non-tx
            TmOp::Begin,
            TmOp::Begin,
            TmOp::Write(Addr::new(0x80)),
            TmOp::End, // inner: no broadcast
            TmOp::End, // outer commit
            TmOp::Write(Addr::new(0xc0)), // non-tx
        ];
        assert_eq!(ThreadTrace { ops }.validate(MAX_DEPTH), Ok(3));
    }

    #[test]
    fn disjoint_threads_commit_without_squashes() {
        let wl = workload(vec![
            tx(&[(true, 0x1000), (false, 0x1040)]),
            tx(&[(true, 0x8000), (false, 0x8040)]),
        ]);
        let s = run_par_tm(&wl, Scheme::Bulk, &ParConfig::default()).unwrap();
        assert_eq!(s.commits, 2);
        assert_eq!(s.records, 2);
        assert!(s.violations.is_empty(), "{:?}", s.violations);
        assert_eq!(s.per_thread_commits, vec![1, 1]);
        assert_eq!(s.worker_crashes, 0);
    }

    #[test]
    fn conflicting_threads_still_all_commit() {
        // Every thread hammers the same line; squashes may happen in any
        // interleaving but all transactions must eventually commit.
        let shared = 0x4000u32;
        let wl = workload(vec![
            tx(&[(false, shared), (true, shared)]),
            tx(&[(false, shared), (true, shared)]),
            tx(&[(false, shared), (true, shared)]),
            tx(&[(false, shared), (true, shared)]),
        ]);
        for seed in 0..3u64 {
            let cfg = ParConfig { seed, ..ParConfig::default() };
            let s = run_par_tm(&wl, Scheme::Bulk, &cfg).unwrap();
            assert_eq!(s.commits, 4);
            assert!(s.violations.is_empty(), "{:?}", s.violations);
        }
    }

    #[test]
    fn lazy_scheme_uses_exact_sets_and_never_false_squashes() {
        let shared = 0x4000u32;
        let wl = workload(vec![
            tx(&[(true, shared)]),
            tx(&[(false, shared), (true, 0x9000)]),
        ]);
        let s = run_par_tm(&wl, Scheme::Lazy, &ParConfig::default()).unwrap();
        assert_eq!(s.commits, 2);
        assert_eq!(s.false_squashes, 0);
        assert!(s.violations.is_empty(), "{:?}", s.violations);
    }

    #[test]
    fn eager_schemes_are_rejected() {
        let wl = workload(vec![tx(&[(true, 0x1000)])]);
        let err = run_par_tm(&wl, Scheme::Eager, &ParConfig::default()).unwrap_err();
        assert!(matches!(err, RuntimeError::UnsupportedScheme { .. }));
    }

    #[test]
    fn non_tx_stores_squash_speculative_readers() {
        // Thread 1 busy-reads a line thread 0 stores to outside any
        // transaction; whatever the interleaving, both finish and the
        // log carries 1 commit + 1 store record.
        let wl = workload(vec![
            vec![TmOp::Write(Addr::new(0x2000))],
            tx(&[(false, 0x2000), (true, 0x7000)]),
        ]);
        let s = run_par_tm(&wl, Scheme::Bulk, &ParConfig::default()).unwrap();
        assert_eq!(s.commits, 1);
        assert_eq!(s.non_tx_stores, 1);
        assert_eq!(s.records, 2);
        assert!(s.violations.is_empty(), "{:?}", s.violations);
    }

    #[test]
    fn history_ordinals_are_per_thread_contiguous() {
        let wl = workload(vec![
            [tx(&[(true, 0x1000)]), tx(&[(true, 0x1040)])].concat(),
            [tx(&[(true, 0x8000)]), tx(&[(true, 0x8040)])].concat(),
        ]);
        let s = run_par_tm(&wl, Scheme::Bulk, &ParConfig::default()).unwrap();
        assert_eq!(s.commits, 4);
        let mut per_thread: Vec<Vec<u64>> = vec![Vec::new(); 2];
        for ev in &s.history {
            per_thread[ev.thread as usize].push(ev.ordinal);
        }
        assert_eq!(per_thread[0], vec![0, 1]);
        assert_eq!(per_thread[1], vec![0, 1]);
    }

    #[test]
    fn a_claim_point_kill_is_adopted_and_recovered() {
        let wl = workload(vec![
            [tx(&[(true, 0x1000)]), tx(&[(true, 0x1040)])].concat(),
            [tx(&[(true, 0x8000)]), tx(&[(true, 0x8040)])].concat(),
        ]);
        let cfg = ParConfig {
            kills: vec![KillSpec { proc: 0, point: CrashPoint::Claim, at: 0 }],
            ..ParConfig::default()
        };
        let s = run_par_tm(&wl, Scheme::Bulk, &cfg).unwrap();
        assert_eq!(s.commits, 4, "every transaction still commits");
        assert_eq!(s.worker_crashes, 1);
        assert_eq!(s.respawns, 1);
        assert_eq!(s.adopted_slots, 1, "the orphaned slot was adopted");
        assert_eq!(s.records, 4, "one record per transaction");
        assert!(s.violations.is_empty(), "{:?}", s.violations);
        assert_eq!(s.per_thread_commits, vec![2, 2]);
    }

    #[test]
    fn a_held_slot_must_be_the_logs_unpublished_last_slot() {
        // Thread 1 published slot 0; `claims` more slots are claimed, and
        // `published` says whether the last one was published by thread 1.
        let log_with = |claims: usize, published: bool| {
            let log = BusLog::new(3);
            for slot in 0..=claims {
                assert!(log.try_claim(slot));
            }
            let rec = |slot: usize| BusRecord::bare(1, slot as u64, RecordKind::Commit);
            log.publish(0, rec(0)).unwrap();
            if published {
                log.publish(claims, rec(claims)).unwrap();
            }
            log
        };
        let check = |log: &BusLog, held| verify_tm_resume(log, 0, held, &Boundary::default());
        assert!(check(&log_with(1, false), Some(1)).is_ok(), "holds tail - 1");
        assert!(check(&log_with(1, false), None).is_ok(), "holds nothing");
        let below = check(&log_with(2, false), Some(1));
        assert!(matches!(below, Err(RuntimeError::ProtocolBug(ref m)) if m.contains("slot 1")));
        let published = check(&log_with(1, true), Some(1));
        assert!(matches!(published, Err(RuntimeError::ProtocolBug(ref m)) if m.contains("tail 2")));
    }

    #[test]
    fn a_zero_respawn_budget_makes_death_fatal_and_typed() {
        let wl = workload(vec![tx(&[(true, 0x1000)]), tx(&[(true, 0x8000)])]);
        let cfg = ParConfig {
            kills: vec![KillSpec { proc: 1, point: CrashPoint::Claim, at: 0 }],
            respawn_budget: 0,
            ..ParConfig::default()
        };
        let err = run_par_tm(&wl, Scheme::Bulk, &cfg).unwrap_err();
        match err {
            RuntimeError::WorkerDied { proc, slot, detail } => {
                assert_eq!(proc, 1);
                assert!(slot.is_some(), "claim-point death orphans a slot");
                assert!(detail.contains("respawn budget exhausted"), "{detail}");
            }
            other => panic!("expected WorkerDied, got: {other}"),
        }
    }
}
