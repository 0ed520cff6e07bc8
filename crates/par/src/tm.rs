//! The parallel TM engine: one OS thread per workload thread, conflicts
//! disambiguated by Bulk signatures over the shared [`BusLog`].
//!
//! Protocol (the paper's lazy commit, made concurrent):
//!
//! * each thread executes its trace speculatively, inserting read/write
//!   lines into local R/W signatures (Bulk) and exact oracle sets
//!   (always);
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
//! outer transaction and non-transactional store (plus one fence per
//! crash), each record squashes each thread at most once (a receiver's
//! cursor passes each slot once), and every failed
//! commit CAS implies another thread's commit was published. Squashes
//! are therefore bounded by `records × threads` and no livelock or
//! escalation path is needed.
//!
//! # Fault model
//!
//! Workers die — injected kills from the chaos schedule, or genuine
//! panics caught at the thread boundary. Death never aborts the run:
//! each worker reports a typed [`Halt`] to the supervisor
//! ([`supervise`], shared with the TLS engine), which
//!
//! 1. *fences* the dead worker's claimed-but-unpublished bus slot with
//!    a [`RecordKind::Fence`] tombstone (fresh ticket), so the log stays
//!    dense and survivors stop spinning;
//! 2. *verifies* the worker's last boundary checkpoint (the
//!    `crates/live` crash-consistency proof) against the published log;
//! 3. *respawns* the processor from that boundary, with a fresh
//!    [`Receiver`] whose cursor starts at 0 and replays the whole log —
//!    exactly-once `W_C` application holds across the crash because the
//!    new incarnation's state is fresh, its cursor passes each slot once,
//!    and the worker's own old records never squash it.
//!
//! A hung (rather than dead) peer is caught by the wall-clock watchdog:
//! every spin site checks the bound and turns a stall into a typed
//! `LivenessViolation` carrying the replay seed.

use crate::bus::{BusLog, BusRecord, CommitTicket, RecordKind};
use crate::config::ParConfig;
use crate::receiver::{Receiver, Resume, SpecSets};
use crate::recover::{supervise, Halt, RunControl};
use crate::runtime::RuntimeError;
use crate::stats::ParStats;
use bulk_core::SpilledVersion;
use bulk_live::Checkpoint;
use bulk_mem::LineAddr;
use bulk_sig::SignatureConfig;
use bulk_tm::Scheme;
use bulk_trace::{TmOp, TmWorkload};

/// Nesting bound shared with the sim machine's trace validation.
const MAX_DEPTH: usize = 8;

/// A worker's last recovery point: the pc just past its most recent
/// publish, the ordinals counted up to it, and the crash-consistency
/// checkpoint proving its speculative state was clean there.
#[derive(Debug, Clone)]
struct Boundary {
    pc: usize,
    commit_ordinal: u64,
    non_tx_ordinal: u64,
    checkpoint: Checkpoint,
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
    // one per outer transaction and per non-transactional store — so the
    // log needs only crash-fence slack beyond the sum.
    let mut capacity = 0;
    for (i, t) in workload.threads.iter().enumerate() {
        capacity += t
            .validate(MAX_DEPTH)
            .map_err(|e| RuntimeError::InvalidWorkload(format!("thread {i}: {e}")))?;
    }

    let n = workload.threads.len();
    let sig_config = SignatureConfig::s14_tm().into_shared();
    let sets = || SpecSets::new(scheme.uses_signatures(), sig_config.clone());
    let ctl = RunControl::new(format!("par/tm/{scheme}"), n, cfg);
    // Every crash can orphan at most one claimed slot, which the
    // supervisor fences; the log needs slack for those extra records.
    let log = BusLog::new((capacity + ctl.chaos.crash_bound()).max(1));

    // Every worker starts — and every boundary must again be — clean.
    let clean = sets().spilled();
    let checkpoint = sets().checkpoint();
    let start = Boundary { pc: 0, commit_ordinal: 0, non_tx_ordinal: 0, checkpoint };
    let mut stats = ParStats { per_thread_commits: vec![0; n], ..ParStats::default() };
    supervise(
        n,
        cfg,
        &ctl,
        &mut stats,
        |_| start.clone(),
        |rx, boundary| {
            let ops = &workload.threads[rx.proc].ops;
            TmWorker::resume(sets(), boundary).run(rx, ops, &log, &ctl)?;
            rx.drain_for_apply_kill(&log, &ctl, capacity)
        },
        // Killed or panicked: fence, verify, respawn from the boundary.
        |stats, dead, boundary| {
            let mut serial = dead.serial;
            if let Some(slot) = dead.claimed_unpublished {
                // The orphaned slot would hang every survivor's poll; the
                // fence tombstone keeps the log dense. It consumes
                // `serial`, so the respawn starts past it.
                let ticket = CommitTicket { committer: dead.proc, serial };
                let fence = BusRecord::bare(ticket, dead.proc, 0, RecordKind::Fence, slot);
                log.publish(slot, fence).map_err(|_| {
                    RuntimeError::ProtocolBug(format!(
                        "fence for dead worker {} hit occupied slot {slot}",
                        dead.proc
                    ))
                })?;
                stats.fences += 1;
                ctl.progress();
                serial += 1;
            }
            verify_tm_resume(&log, dead.proc, &boundary, &clean)?;
            Ok((boundary, Resume { serial, adopt: None }))
        },
    )?;

    stats.seal(&log, &ctl, n, capacity as u64 + stats.fences);
    for ev in &stats.history {
        stats.per_thread_commits[ev.thread as usize] += 1;
    }
    Ok(stats)
}

/// Pre-respawn verification: the dead worker's boundary checkpoint must
/// prove a `clean` speculative state (the `crates/live` crash-consistency
/// proof), and its ordinals must match what the worker actually
/// published — the log is the ground truth a lying checkpoint can't
/// survive.
fn verify_tm_resume(
    log: &BusLog,
    proc: usize,
    boundary: &Boundary,
    clean: &SpilledVersion,
) -> Result<(), RuntimeError> {
    boundary.checkpoint.verify(clean, &[]).map_err(|e| RuntimeError::WorkerDied {
        proc,
        slot: None,
        detail: format!("checkpoint failed verification: {e}"),
    })?;
    let (mut commits, mut stores) = (0u64, 0u64);
    for i in 0..log.tail() {
        let Some(rec) = log.get(i) else { continue };
        if rec.thread as usize != proc {
            continue;
        }
        match rec.kind {
            RecordKind::Commit => commits += 1,
            RecordKind::NonTxStore => stores += 1,
            RecordKind::Fence => {}
        }
    }
    if commits != boundary.commit_ordinal || stores != boundary.non_tx_ordinal {
        return Err(RuntimeError::ProtocolBug(format!(
            "worker {proc} checkpoint is at {}/{} commits/stores but the log holds \
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
                    self.commit(rx, log, ctl)?;
                    continue; // pc is past the commit, or back at its `Begin`
                }
                TmOp::Read(a) if self.depth > 0 => self.sets.read(a),
                TmOp::Read(_) => {}
                TmOp::Write(a) if self.depth > 0 => self.sets.write(a),
                TmOp::Write(a) => {
                    self.publish_non_tx_store(rx, log, ctl, self.sets.line(a))?;
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
    /// there: speculative state is clean, and the checkpoint proves it. The
    /// point moves in one step, after everything that can panic.
    fn published(&mut self, kind: RecordKind) {
        self.pc += 1;
        let b = &mut *self.boundary;
        self.sets.refresh_checkpoint(&mut b.checkpoint);
        match kind {
            RecordKind::Commit => b.commit_ordinal += 1,
            _ => b.non_tx_ordinal += 1,
        }
        b.pc = self.pc;
    }

    /// Polls the bus; a peer's record whose `W_C` hits this transaction's
    /// `R ∪ W` squashes it: cleared sets, restart from `Begin`, backoff.
    /// Returns whether that happened.
    #[inline]
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

    /// Validate-then-claim commit: returns with the transaction published
    /// — or squashed instead, by a record a winner of the claim published.
    ///
    /// `W_C` is built first, outside the validate→claim→publish sequence
    /// (DESIGN.md §18); a claim that loses the tail race retries with the
    /// same payload — only a squash changes the sets, and it ends the
    /// attempt.
    fn commit(&mut self, rx: &mut Receiver, log: &BusLog, ctl: &RunControl) -> Result<(), Halt> {
        let (me, ordinal) = (rx.proc, self.boundary.commit_ordinal);
        let (w_sig, exact_w) = self.sets.commit_payload();
        while !self.poll(rx, log, ctl)? {
            let slot = rx.cursor;
            if rx.claim(log, slot)? {
                rx.publish(log, ctl, slot, |ticket| {
                    let bare = BusRecord::bare(ticket, me, ordinal, RecordKind::Commit, slot);
                    BusRecord { w_sig, exact_w, ..bare }
                })?;
                rx.stats.commits += 1;
                self.depth = 0;
                self.sets.clear();
                self.published(RecordKind::Commit);
                break;
            }
        }
        Ok(())
    }

    /// A non-transactional store: ordered on the log like a commit (so
    /// speculative readers squash on it), but never squashable itself. It
    /// broadcasts its address, not a signature (§4.2).
    fn publish_non_tx_store(
        &mut self,
        rx: &mut Receiver,
        log: &BusLog,
        ctl: &RunControl,
        line: LineAddr,
    ) -> Result<(), Halt> {
        let (me, ordinal) = (rx.proc, self.boundary.non_tx_ordinal);
        let exact_w = vec![line];
        loop {
            // Not in a transaction, so poll can't squash us.
            self.poll(rx, log, ctl)?;
            let slot = rx.cursor;
            if rx.claim(log, slot)? {
                rx.publish(log, ctl, slot, |ticket| BusRecord {
                    exact_w,
                    ..BusRecord::bare(ticket, me, ordinal, RecordKind::NonTxStore, slot)
                })?;
                rx.stats.non_tx_stores += 1;
                self.published(RecordKind::NonTxStore);
                return Ok(());
            }
        }
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
    fn a_publish_point_kill_is_fenced_and_recovered() {
        let wl = workload(vec![
            [tx(&[(true, 0x1000)]), tx(&[(true, 0x1040)])].concat(),
            [tx(&[(true, 0x8000)]), tx(&[(true, 0x8040)])].concat(),
        ]);
        let cfg = ParConfig {
            kills: vec![KillSpec { proc: 0, point: CrashPoint::Publish, at: 0 }],
            ..ParConfig::default()
        };
        let s = run_par_tm(&wl, Scheme::Bulk, &cfg).unwrap();
        assert_eq!(s.commits, 4, "every transaction still commits");
        assert_eq!(s.worker_crashes, 1);
        assert_eq!(s.respawns, 1);
        assert_eq!(s.fences, 1, "the orphaned slot was fenced");
        assert_eq!(s.records as u64, 4 + s.fences, "log stays dense");
        assert!(s.violations.is_empty(), "{:?}", s.violations);
        assert_eq!(s.per_thread_commits, vec![2, 2]);
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
