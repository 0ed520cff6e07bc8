//! The parallel TLS engine: ordered speculative tasks dealt round-robin
//! to a pool of OS-thread workers, with in-order commit.
//!
//! TLS semantics differ from TM in one essential way: tasks have a
//! *total* predefined order, and task `i` may only commit after task
//! `i-1`. The engine encodes that directly: bus slot `i` belongs to task
//! `i`, and the log is the commit order — a worker claims its task's
//! slot once its cursor reaches it, that is, once it has applied every
//! predecessor's record. Conflict detection is the paper's RAW rule — a
//! predecessor's committed `W` intersecting the speculative task's `R`
//! restarts the task — checked with signatures (Bulk) or the exact
//! oracle (Lazy), whose access logs (each access appends its line, a
//! verdict scans them) always run alongside to classify aliasing
//! restarts. TM and TLS differ only in which slot they may claim: TM any
//! validated tail, TLS its own.
//!
//! `Spawn` ops are no-ops here: the task list is fully materialized by
//! the trace, and the round-robin deal hands every worker its next task
//! eagerly — the paper's spawn tree is already flattened into task
//! order by `bulk-trace`. A task may hold at most one: the worker that
//! runs it counts them (see [`refuse`]).
//!
//! # Fault model
//!
//! A dead worker's claimed-but-unpublished slot is *adopted*, by the
//! rule [`supervise`] applies to both engines: the respawned incarnation
//! resumes at its first unpublished stride task — the task that slot
//! belongs to — skips the already-won claim, and publishes into the
//! orphaned slot itself. The slot is all it inherits: a record has no
//! identity beyond its position in the log. It holds the slot from its
//! first instruction, so an adopter that dies before publishing hands
//! the slot on again.
//! A death between a publish and the next task leaves nothing to
//! repair: the successor's cursor reads the published slot like any
//! other. Every wait (`Receiver::wait`: yields for 200 µs, then parks
//! until the next publish) checks the abort flag and the wall-clock
//! watchdog after each yield and each wake, so worker death or a hung
//! peer becomes a typed error rather than a process abort or an endless
//! wait.

use crate::bus::{BusLog, BusRecord, RecordKind};
use crate::config::ParConfig;
use crate::receiver::{Receiver, SpecSets};
use crate::recover::{supervise, Halt, RunControl};
use crate::runtime::RuntimeError;
use crate::stats::{Audit, ParStats};
use bulk_chaos::MachineError;
use bulk_sig::SignatureConfig;
use bulk_tls::TlsScheme;
use bulk_trace::{TaskTrace, TlsOp, TlsWorkload, TraceError};

/// Runs `workload` under the parallel runtime. `Bulk`, `BulkNoOverlap`
/// (identical here: Partial Overlap is a cache-warmup optimization with
/// no analogue on real threads) and `Lazy` are supported; `Eager`
/// disambiguates against uncommitted remote state and is not.
pub fn run_par_tls(
    workload: &TlsWorkload,
    scheme: TlsScheme,
    cfg: &ParConfig,
) -> Result<ParStats, RuntimeError> {
    if workload.tasks.is_empty() {
        let empty = MachineError::EmptyWorkload { machine: "tls" };
        return Err(RuntimeError::InvalidWorkload(empty.to_string()));
    }
    if scheme == TlsScheme::Eager {
        return Err(RuntimeError::UnsupportedScheme {
            runtime: "par",
            scheme: "Eager".into(),
            why: "eager TLS squashes at remote store time; the broadcast-log \
                  substrate only orders commits",
        });
    }
    run_on(&BusLog::new(workload.tasks.len()), &workload.tasks, scheme, cfg)
}

/// [`run_par_tls`] past its checks: runs `tasks` to their in-order
/// commits in `log`, one slot per task. The audit holds the log to the
/// task order.
fn run_on(
    log: &BusLog,
    tasks: &[TaskTrace],
    scheme: TlsScheme,
    cfg: &ParConfig,
) -> Result<ParStats, RuntimeError> {
    let use_sigs = scheme != TlsScheme::Lazy;
    let sig_config = SignatureConfig::s14_tm().into_shared();
    let workers = cfg.tls_workers.max(1).min(tasks.len());
    let ctl = RunControl::new(format!("par/tls/{scheme:?}"), workers, cfg);

    supervise(
        workers,
        cfg,
        &ctl,
        Audit::new(log, &ctl, tasks.len(), workers, tasks.len(), true),
        // Worker `w` runs the stride of tasks w, w + workers, ….
        |w| w,
        |rx, task| {
            let mut sets = SpecSets::new(use_sigs, sig_config.clone());
            while *task < tasks.len() {
                run_task(rx, &mut sets, *task, &tasks[*task].ops, log, &ctl)?;
                *task += workers;
            }
            rx.drain_for_apply_kill(log, &ctl, tasks.len())
        },
        // Killed or panicked: resume at the dead worker's first
        // unpublished task, the slot it held if any.
        |dead, _| {
            let mut resume = dead.proc;
            while resume < tasks.len() && log.get(resume).is_some() {
                resume += workers;
            }
            match dead.claimed_unpublished {
                Some(slot) if slot != resume => Err(RuntimeError::ProtocolBug(format!(
                    "dead worker {} claimed slot {slot} but its first \
                     unpublished task is {resume}",
                    dead.proc
                ))),
                _ => Ok(resume),
            }
        },
    )
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
/// whenever a predecessor's commit hits its read set. A second `Spawn`
/// ends the task with its trace refused instead.
#[inline(always)]
fn run_task(
    rx: &mut Receiver,
    sets: &mut SpecSets,
    task: usize,
    ops: &[TlsOp],
    log: &BusLog,
    ctl: &RunControl,
) -> Result<(), Halt> {
    'attempt: loop {
        sets.clear();
        let mut spawn = None;
        for (i, op) in ops.iter().enumerate() {
            if poll(rx, sets, log, ctl)? {
                continue 'attempt;
            }
            match *op {
                TlsOp::Read(a) => sets.read(a),
                TlsOp::Write(a) => sets.write(a),
                TlsOp::Compute(n) => rx.dwell(n),
                TlsOp::Spawn => match spawn {
                    None => spawn = Some(i),
                    Some(first) => {
                        let error = TraceError::MultipleSpawns { first, second: i };
                        return refuse(rx, task, error, log, ctl);
                    }
                },
            }
        }
        rx.flush_dwell();
        if commit_in_order(rx, sets, task, log, ctl)? {
            return Ok(());
        }
    }
}

/// Ends a worker whose `task` has a malformed trace with
/// [`Halt::InvalidTask`] once its cursor reaches the task's slot: every
/// predecessor published, so it is the lowest malformed task. A worker
/// stuck behind a lower one unwinds at the supervisor's abort instead.
#[cold]
#[inline(never)]
fn refuse(
    rx: &mut Receiver,
    task: usize,
    error: TraceError,
    log: &BusLog,
    ctl: &RunControl,
) -> Result<(), Halt> {
    let mut since = None;
    loop {
        rx.poll(log, ctl, |_| None)?;
        if rx.cursor >= task {
            return Err(Halt::InvalidTask(task, error));
        }
        rx.wait(log, ctl, &mut since)?;
    }
}

/// Commits an executed `task` once the cursor reaches its slot.
/// `Ok(false)`: a predecessor's commit squashed the attempt first and
/// nothing was published.
///
/// `W_C` is prepared before the wait, while the predecessors are still
/// committing. Nothing can change it afterwards: the task has finished
/// executing, waiting verdicts only read `R`, and a squash abandons the
/// attempt and its payload together (DESIGN.md §18).
fn commit_in_order(
    rx: &mut Receiver,
    sets: &mut SpecSets,
    task: usize,
    log: &BusLog,
    ctl: &RunControl,
) -> Result<bool, Halt> {
    let (w_sig, exact_w) = sets.commit_payload();
    // Apply every predecessor's record, each of which can still squash
    // the attempt. Only this task's owner claims slot `task`, so the log
    // cannot pass it, and once the cursor is there the log holds exactly
    // the `task` predecessors.
    let mut since = None;
    loop {
        if poll(rx, sets, log, ctl)? {
            return Ok(false);
        }
        if rx.cursor >= task {
            break;
        }
        rx.wait(log, ctl, &mut since)?;
    }
    if rx.cursor != task || !rx.claim(log, task)? {
        return Err(Halt::Bug(format!(
            "task {task} lost its own slot: validated {} records",
            rx.cursor
        )));
    }
    let bare = BusRecord::bare(task, 0, RecordKind::Commit);
    rx.publish(log, task, BusRecord { w_sig, exact_w, ..bare })?;
    rx.stats.commits += 1;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulk_chaos::{CrashPoint, KillSpec};
    use bulk_mem::Addr;

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
            kills: vec![KillSpec { proc: 1, point: CrashPoint::Claim, at: 0 }],
            ..ParConfig::default()
        };
        let log = BusLog::new(wl.tasks.len());
        let s = run_on(&log, &wl.tasks, TlsScheme::Bulk, &cfg).unwrap();
        assert_eq!(s.commits, 8, "every task still commits in order");
        assert_eq!(s.worker_crashes, 1);
        assert_eq!(s.respawns, 1);
        assert_eq!(s.adopted_slots, 1, "the orphaned claim was adopted");
        assert!(s.violations.is_empty(), "{:?}", s.violations);
        let order: Vec<u32> = s.history.iter().map(|e| e.thread).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
        // Worker 1's first claim was task 1's slot; the adopter replayed
        // slot 0 and published into slot 1 from there.
        let rec = log.get(1).expect("the adopted slot was published");
        assert_eq!((rec.thread, rec.validated_to), (1, 1));
    }

    #[test]
    fn a_task_squashed_while_waiting_for_the_token_publishes_its_re_execution() {
        let cfg = ParConfig::default();
        let ctl = RunControl::new("par/tls/Bulk".into(), 2, &cfg);
        let log = BusLog::new(2);
        let sig_config = SignatureConfig::s14_tm().into_shared();
        let receiver = |w| Receiver::new(w, &cfg, ctl.chaos.worker(w, 0));
        let (x, y, z) = (Addr::new(0x4000), Addr::new(0x5000), Addr::new(0x6000));

        // Task 1 ran ahead: it read x before task 0 committed its store to
        // x, and now waits for its slot with its W_C already prepared.
        let (mut rx1, mut sets1) = (receiver(1), SpecSets::new(true, sig_config.clone()));
        sets1.read(x);
        sets1.write(y);
        // Task 0 publishes {x} into slot 0.
        let (mut rx0, mut sets0) = (receiver(0), SpecSets::new(true, sig_config));
        sets0.write(x);
        let (w_sig, exact_w) = sets0.commit_payload();
        assert!(matches!(rx0.claim(&log, 0), Ok(true)));
        let bare = BusRecord::bare(0, 0, RecordKind::Commit);
        let published = rx0.publish(&log, 0, BusRecord { w_sig, exact_w, ..bare });
        assert!(published.is_ok());

        // The waiting poll applies task 0's record: RAW on x. The attempt
        // ends there, and the prepared payload goes with it.
        let committed = commit_in_order(&mut rx1, &mut sets1, 1, &log, &ctl);
        assert!(matches!(committed, Ok(false)));
        assert_eq!((rx1.stats.squashes, rx1.cursor, log.tail()), (1, 1, 1));
        assert!(log.get(1).is_none(), "nothing of the squashed attempt reached the bus");

        // Re-execution sees task 0's x and takes another path: it writes z.
        sets1.clear();
        sets1.read(x);
        sets1.write(z);
        let committed = commit_in_order(&mut rx1, &mut sets1, 1, &log, &ctl);
        assert!(matches!(committed, Ok(true)));
        let rec = log.get(1).expect("task 1 published");
        assert_eq!(rec.exact_w, vec![z.line(64)], "the re-execution's W, not the squashed y");
        assert_eq!(rec.validated_to, 1, "published after applying task 0's record");

        // Containment, density, claim == validated prefix, program order,
        // task order.
        let mut stats = ParStats::default();
        Audit::new(&log, &ctl, 2, 2, 2, true).finish(&mut stats);
        assert!(stats.violations.is_empty(), "{:?}", stats.violations);
        let order: Vec<u32> = stats.history.iter().map(|e| e.thread).collect();
        assert_eq!(order, vec![0, 1]);
    }
}
