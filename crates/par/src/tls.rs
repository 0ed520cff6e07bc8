//! The parallel TLS engine: ordered speculative tasks dealt round-robin
//! to a pool of OS-thread workers, with in-order commit.
//!
//! TLS semantics differ from TM in one essential way: tasks have a
//! *total* predefined order, and task `i` may only commit after task
//! `i-1`. The engine encodes that directly: bus slot `i` belongs to task
//! `i`, an atomic `next_commit` counter is the commit token, and a
//! worker publishes its task only when the token reaches it. Conflict
//! detection is the paper's RAW rule — a predecessor's committed `W`
//! intersecting the speculative task's `R` restarts the task — checked
//! with signatures (Bulk) or exact sets (Lazy), with the exact oracle
//! always run alongside to classify aliasing restarts.
//!
//! `Spawn` ops are no-ops here: the task list is fully materialized by
//! the trace, and the round-robin deal hands every worker its next task
//! eagerly — the paper's spawn tree is already flattened into task
//! order by `bulk-trace`.
//!
//! # Fault model
//!
//! The slot-per-task invariant rules out TM-style fence tombstones (a
//! fenced slot would leave its task uncommitted and break the in-order
//! audit), so a dead worker's claimed-but-unpublished slot is instead
//! *adopted*: the respawned incarnation resumes at its first
//! unpublished stride task, skips the already-won claim, and publishes
//! into the orphaned slot itself — and holds it from its first
//! instruction, so an adopter that dies before publishing hands the slot
//! on again. The supervisor repairs the commit token from the published
//! prefix (a worker can in principle die between publish and token
//! hand-off); the token only moves forward, since both of its writers
//! advance it with `fetch_max`. Every spin site checks the abort flag
//! and the wall-clock watchdog, so worker death or a hung peer becomes
//! a typed error rather than a process abort or an infinite spin.

use crate::bus::{BusLog, BusRecord, RecordKind};
use crate::config::ParConfig;
use crate::receiver::{Receiver, Resume, SpecSets};
use crate::recover::{supervise, Halt, RunControl};
use crate::runtime::RuntimeError;
use crate::stats::ParStats;
use bulk_chaos::InvariantKind;
use bulk_sig::SignatureConfig;
use bulk_tls::TlsScheme;
use bulk_trace::{TlsOp, TlsWorkload};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `workload` under the parallel runtime. `Bulk`, `BulkNoOverlap`
/// (identical here: Partial Overlap is a cache-warmup optimization with
/// no analogue on real threads) and `Lazy` are supported; `Eager`
/// disambiguates against uncommitted remote state and is not.
pub fn run_par_tls(
    workload: &TlsWorkload,
    scheme: TlsScheme,
    cfg: &ParConfig,
) -> Result<ParStats, RuntimeError> {
    let use_sigs = match scheme {
        TlsScheme::Bulk | TlsScheme::BulkNoOverlap => true,
        TlsScheme::Lazy => false,
        TlsScheme::Eager => {
            return Err(RuntimeError::UnsupportedScheme {
                runtime: "par",
                scheme: "Eager".into(),
                why: "eager TLS squashes at remote store time; the broadcast-log \
                      substrate only orders commits",
            })
        }
    };
    for (i, t) in workload.tasks.iter().enumerate() {
        t.validate().map_err(|e| RuntimeError::InvalidWorkload(format!("task {i}: {e}")))?;
    }

    let sig_config = SignatureConfig::s14_tm().into_shared();
    let tasks = &workload.tasks;
    let workers = cfg.tls_workers.max(1).min(tasks.len().max(1));
    let log = BusLog::new(tasks.len().max(1));
    let next_commit = AtomicUsize::new(0);
    let ctl = RunControl::new(format!("par/tls/{scheme:?}"), workers, cfg);

    let mut stats = ParStats { per_thread_commits: vec![0; workers], ..ParStats::default() };
    supervise(
        workers,
        cfg,
        &ctl,
        &mut stats,
        // Worker `w` runs the stride of tasks w, w + workers, ….
        |w| w,
        |rx, task| {
            let mut sets = SpecSets::new(use_sigs, sig_config.clone());
            while *task < tasks.len() {
                run_task(rx, &mut sets, *task, &tasks[*task].ops, &log, &next_commit, &ctl)?;
                *task += workers;
            }
            rx.drain_for_apply_kill(&log, &ctl, tasks.len())
        },
        // Killed or panicked: repair the token, respawn with adoption of
        // any orphaned claim.
        |stats, dead, _| {
            // A worker can die between publishing task T and passing the
            // token on; re-derive the token from the published prefix so
            // T+1's owner is not stranded.
            let mut nc = next_commit.load(Ordering::Acquire);
            while nc < tasks.len() && log.get(nc).is_some() {
                nc += 1;
            }
            next_commit.fetch_max(nc, Ordering::AcqRel);
            // The respawn resumes at the first unpublished task of the
            // dead worker's stride.
            let mut resume = dead.proc;
            while resume < tasks.len() && log.get(resume).is_some() {
                resume += workers;
            }
            match dead.claimed_unpublished {
                Some(slot) if slot != resume => {
                    return Err(RuntimeError::ProtocolBug(format!(
                        "dead worker {} claimed slot {slot} but its first \
                         unpublished task is {resume}",
                        dead.proc
                    )))
                }
                Some(_) => stats.adopted_slots += 1,
                None => {}
            }
            Ok((resume, Resume { serial: 0, adopt: dead.claimed_unpublished }))
        },
    )?;

    stats.seal(&log, &ctl, workers, tasks.len() as u64);
    for (i, ev) in stats.history.iter().enumerate() {
        stats.per_thread_commits[ev.thread as usize % workers] += 1;
        stats.audit_checks += 1;
        if ev.thread as usize != i {
            let (kind, task) = (InvariantKind::Serializability, ev.thread as usize);
            let detail = format!("task {task} committed at log position {i}: order broken");
            stats.violations.push(ctl.violation(kind, task, i as u64, &detail));
        }
    }
    Ok(stats)
}

/// Applies predecessor commits; `true` when one of them hit the running
/// task's read set (RAW dependence — restart). Once per op: `always`,
/// because as a hint LLVM dropped it (and [`run_task`]) from the worker
/// loop when unrelated code joined the crate, +8 % on `par-cpu`.
#[inline(always)]
fn poll(rx: &mut Receiver, sets: &SpecSets, log: &BusLog, ctl: &RunControl) -> Result<bool, Halt> {
    let restart = rx.poll(log, ctl, |rec| Some(sets.verdict(rec, false)))?;
    if restart {
        rx.backoff();
    }
    Ok(restart)
}

/// Runs `task` to its in-order commit: speculative execution, restarted
/// whenever a predecessor's commit hits its read set.
#[inline(always)]
fn run_task(
    rx: &mut Receiver,
    sets: &mut SpecSets,
    task: usize,
    ops: &[TlsOp],
    log: &BusLog,
    next_commit: &AtomicUsize,
    ctl: &RunControl,
) -> Result<(), Halt> {
    'attempt: loop {
        sets.clear();
        for op in ops {
            if poll(rx, sets, log, ctl)? {
                continue 'attempt;
            }
            match *op {
                TlsOp::Read(a) => sets.read(a),
                TlsOp::Write(a) => sets.write(a),
                TlsOp::Compute(n) => rx.dwell(n),
                TlsOp::Spawn => {}
            }
        }
        rx.flush_dwell();
        if commit_in_order(rx, sets, task, log, next_commit, ctl)? {
            return Ok(());
        }
    }
}

/// Commits an executed `task` when the in-order token reaches it.
/// `Ok(false)`: a predecessor's commit squashed the attempt first and
/// nothing was published.
///
/// `W_C` is prepared before the wait, while the predecessors are still
/// committing. Nothing can change it afterwards: the task has finished
/// executing, waiting verdicts only read `R`, and a squash abandons the
/// attempt and its payload together (DESIGN.md §18).
fn commit_in_order(
    rx: &mut Receiver,
    sets: &SpecSets,
    task: usize,
    log: &BusLog,
    next_commit: &AtomicUsize,
    ctl: &RunControl,
) -> Result<bool, Halt> {
    let (w_sig, exact_w) = sets.commit_payload();
    // Wait for the in-order commit token, still vulnerable to
    // predecessor commits while waiting.
    while next_commit.load(Ordering::Acquire) != task {
        if poll(rx, sets, log, ctl)? {
            return Ok(false);
        }
        ctl.check_spin(rx.proc)?;
        std::hint::spin_loop();
        std::thread::yield_now();
    }
    // Drain anything committed between the token check and now:
    // the token is ours, so after this poll the log is exactly
    // our `task` predecessors and can no longer grow under us.
    if poll(rx, sets, log, ctl)? {
        return Ok(false);
    }
    if rx.cursor != task {
        return Err(Halt::Bug(format!(
            "commit token granted out of order: validated {} records for task {task}",
            rx.cursor
        )));
    }
    // `(committer, serial)` must be globally unique: the worker index
    // plus the task index (a task commits exactly once, even across
    // incarnations — an adopted slot's ticket was never published).
    rx.serial = task as u64;
    if !rx.claim(log, task)? {
        return Err(Halt::Bug(format!("task {task} lost an uncontended claim")));
    }
    rx.publish(log, ctl, task, |ticket| {
        let bare = BusRecord::bare(ticket, task, 0, RecordKind::Commit, task);
        BusRecord { w_sig, exact_w, ..bare }
    })?;
    // Forward only: the supervisor's token repair may already have moved
    // the token past `task`, and the next task's owner may have published
    // and passed it on since. A plain store would move it back to a task
    // that is already published, and nobody would pass it on again.
    // `Release` pairs with the waiting successor's `Acquire` load.
    next_commit.fetch_max(task + 1, Ordering::Release);
    rx.stats.commits += 1;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulk_chaos::{CrashPoint, KillSpec};
    use bulk_mem::Addr;
    use bulk_trace::TaskTrace;

    fn task(ops: Vec<TlsOp>) -> TaskTrace {
        TaskTrace { ops }
    }

    fn workload(tasks: Vec<TaskTrace>) -> TlsWorkload {
        TlsWorkload { name: "unit".into(), tasks }
    }

    #[test]
    fn tasks_commit_in_order() {
        let wl = workload(
            (0..8u32)
                .map(|i| {
                    task(vec![
                        TlsOp::Read(Addr::new(0x1000 + i * 0x100)),
                        TlsOp::Write(Addr::new(0x2000 + i * 0x100)),
                    ])
                })
                .collect(),
        );
        let s = run_par_tls(&wl, TlsScheme::Bulk, &ParConfig::default()).unwrap();
        assert_eq!(s.commits, 8);
        assert!(s.violations.is_empty(), "{:?}", s.violations);
        let order: Vec<u32> = s.history.iter().map(|e| e.thread).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn raw_dependences_restart_but_all_commit() {
        // Every task reads what its predecessor wrote.
        let wl = workload(
            (0..6u32)
                .map(|_| {
                    task(vec![
                        TlsOp::Read(Addr::new(0x4000)),
                        TlsOp::Write(Addr::new(0x4000)),
                    ])
                })
                .collect(),
        );
        for seed in 0..3u64 {
            let cfg = ParConfig { seed, ..ParConfig::default() };
            let s = run_par_tls(&wl, TlsScheme::Bulk, &cfg).unwrap();
            assert_eq!(s.commits, 6);
            assert!(s.violations.is_empty(), "{:?}", s.violations);
        }
    }

    #[test]
    fn lazy_tls_is_exact() {
        let wl = workload(vec![
            task(vec![TlsOp::Write(Addr::new(0x4000))]),
            task(vec![TlsOp::Read(Addr::new(0x4000))]),
        ]);
        let s = run_par_tls(&wl, TlsScheme::Lazy, &ParConfig::default()).unwrap();
        assert_eq!(s.commits, 2);
        assert_eq!(s.false_squashes, 0);
    }

    #[test]
    fn eager_tls_is_rejected() {
        let wl = workload(vec![task(vec![TlsOp::Compute(10)])]);
        let err = run_par_tls(&wl, TlsScheme::Eager, &ParConfig::default()).unwrap_err();
        assert!(matches!(err, RuntimeError::UnsupportedScheme { .. }));
    }

    #[test]
    fn a_killed_worker_adopts_its_claimed_slot_after_respawn() {
        let wl = workload(
            (0..8u32)
                .map(|i| {
                    task(vec![
                        TlsOp::Read(Addr::new(0x1000 + i * 0x100)),
                        TlsOp::Write(Addr::new(0x2000 + i * 0x100)),
                    ])
                })
                .collect(),
        );
        let cfg = ParConfig {
            kills: vec![KillSpec { proc: 1, point: CrashPoint::Publish, at: 0 }],
            ..ParConfig::default()
        };
        let s = run_par_tls(&wl, TlsScheme::Bulk, &cfg).unwrap();
        assert_eq!(s.commits, 8, "every task still commits in order");
        assert_eq!(s.worker_crashes, 1);
        assert_eq!(s.respawns, 1);
        assert_eq!(s.adopted_slots, 1, "the orphaned claim was adopted");
        assert_eq!(s.fences, 0, "TLS never fences: slot i must hold task i");
        assert!(s.violations.is_empty(), "{:?}", s.violations);
        let order: Vec<u32> = s.history.iter().map(|e| e.thread).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn a_task_squashed_while_waiting_for_the_token_publishes_its_re_execution() {
        let cfg = ParConfig::default();
        let ctl = RunControl::new("par/tls/Bulk".into(), 2, &cfg);
        let (log, next_commit) = (BusLog::new(2), AtomicUsize::new(0));
        let sig_config = SignatureConfig::s14_tm().into_shared();
        let receiver = |w| Receiver::new(w, &cfg, ctl.chaos.worker(w, 0), Resume::default());
        let (x, y, z) = (Addr::new(0x4000), Addr::new(0x5000), Addr::new(0x6000));

        // Task 1 ran ahead: it read x before task 0 committed its store to
        // x, and now waits for the token with its W_C already prepared.
        let (mut rx1, mut sets1) = (receiver(1), SpecSets::new(true, sig_config.clone()));
        sets1.read(x);
        sets1.write(y);
        // Task 0 publishes {x}; the token has not been handed on yet.
        let (mut rx0, mut sets0) = (receiver(0), SpecSets::new(true, sig_config));
        sets0.write(x);
        let (w_sig, exact_w) = sets0.commit_payload();
        assert!(matches!(rx0.claim(&log, 0), Ok(true)));
        let published = rx0.publish(&log, &ctl, 0, |ticket| {
            let bare = BusRecord::bare(ticket, 0, 0, RecordKind::Commit, 0);
            BusRecord { w_sig, exact_w, ..bare }
        });
        assert!(published.is_ok());

        // The waiting poll applies task 0's record: RAW on x. The attempt
        // ends there, and the prepared payload goes with it.
        let committed = commit_in_order(&mut rx1, &sets1, 1, &log, &next_commit, &ctl);
        assert!(matches!(committed, Ok(false)));
        assert_eq!((rx1.stats.squashes, rx1.cursor, log.tail()), (1, 1, 1));
        assert!(log.get(1).is_none(), "nothing of the squashed attempt reached the bus");

        // Re-execution sees task 0's x and takes another path: it writes z.
        next_commit.store(1, Ordering::Release);
        sets1.clear();
        sets1.read(x);
        sets1.write(z);
        let committed = commit_in_order(&mut rx1, &sets1, 1, &log, &next_commit, &ctl);
        assert!(matches!(committed, Ok(true)));
        assert_eq!(next_commit.load(Ordering::Acquire), 2);
        let rec = log.get(1).expect("task 1 published");
        assert_eq!(rec.exact_w, vec![z.line(64)], "the re-execution's W, not the squashed y");
        assert_eq!(rec.ticket.serial, 1, "serial = task");

        // Containment, density, claim == validated prefix, ticket uniqueness.
        let mut stats = ParStats::default();
        stats.seal(&log, &ctl, 2, 2);
        assert!(stats.violations.is_empty(), "{:?}", stats.violations);
        let order: Vec<u32> = stats.history.iter().map(|e| e.thread).collect();
        assert_eq!(order, vec![0, 1]);
    }
}
