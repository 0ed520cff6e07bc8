//! The lock-free broadcast bus of the parallel runtime.
//!
//! The sim models the snoopy bus as a serializing resource inside one
//! discrete-event loop; here the bus is a *shared append-only log* that
//! genuinely concurrent OS threads publish to and poll from:
//!
//! * publishing is a `compare_exchange` on the tail — the committer may
//!   claim slot `n` only while its local view of the log is exactly the
//!   first `n` records, which makes validate-then-publish one atomic
//!   step (see [`BusLog::try_claim`]);
//! * the log delivers each record once: a receiver reads slot `i` only
//!   when its cursor is `i`, then moves past it, and a respawned worker
//!   starts a fresh cursor at 0 — so every record is applied exactly once
//!   per incarnation, with no per-record filter. A record's slot is its
//!   only identity: the supervisor's audit checks that each publisher's
//!   records appear once, in its program order;
//! * readers never block writers: a claimed-but-unpublished slot is an
//!   empty [`OnceLock`] a reader waits on — it yields briefly, then
//!   parks until that slot's publish wakes it (`BusLog::park`) — and the
//!   winner of a tail race always publishes — itself, or, if it dies
//!   first, the respawn that adopts the slot — so the system as a whole
//!   is lock-free (some thread always makes progress). The log holds
//!   only what the paper's bus carries: commits and stores.
//!
//! Memory ordering: the tail CAS is `AcqRel` and `OnceLock::set/get`
//! give release/acquire on the record payload, so a reader that
//! observes slot `n` published also observes every record before it
//! and the full payload of record `n` itself. A parked waiter and a
//! publisher each put a `SeqCst` fence between their write (the parked
//! count, the slot) and their read of the other's word, so at least one
//! of them sees the other: the waiter does not sleep, or the publisher
//! wakes it. A wake is only a hint all the same — every park times out.

use bulk_mem::LineAddr;
use bulk_sig::Signature;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Thread;
use std::time::Duration;

/// What kind of store a bus record broadcasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    /// A committed outer transaction's write set (`W_C`).
    Commit,
    /// A single non-transactional store (the paper's individual
    /// invalidation path).
    NonTxStore,
}

/// One broadcast on the bus, holding what the paper's bus carries: a
/// commit is its write signature `W_C` (§1 — `R` never leaves the
/// processor), a non-transactional store is its address, which receivers
/// test by membership (§4.2). Beside it rides the exact written lines,
/// the oracle that verdicts and the supervisor's audit replay.
#[derive(Debug)]
pub struct BusRecord {
    /// Publishing thread (TM) or task (TLS).
    pub thread: u32,
    /// The record's position in its publisher's program order. A TM
    /// commit carries how many transactions its thread committed before
    /// it, a non-transactional store how many such stores its thread
    /// published before it; a TLS task (whose `thread` is already its
    /// place in the task order) carries 0.
    pub ordinal: u64,
    /// Transaction commit or individual store.
    pub kind: RecordKind,
    /// The broadcast write signature: `Some` only on a commit under a
    /// signature scheme. A store and every exact-set record carry `None`.
    pub w_sig: Option<Signature>,
    /// Exact written lines — a store's one line; the oracle for a commit.
    pub exact_w: Vec<LineAddr>,
    /// Log length the publisher had applied when it published: its
    /// receiver's cursor, stamped by `Receiver::publish`. The claim
    /// protocol guarantees this equals the record's own slot index; the
    /// auditor asserts it.
    pub validated_to: usize,
}

impl BusRecord {
    /// A record of `kind` by `thread` with an empty write set; a publisher
    /// fills in what it broadcasts.
    pub(crate) fn bare(thread: usize, ordinal: u64, kind: RecordKind) -> Self {
        BusRecord {
            thread: thread as u32,
            ordinal,
            kind,
            w_sig: None,
            exact_w: Vec::new(),
            validated_to: 0,
        }
    }
}

/// A publish hit an already-written slot (the slot index): a double
/// publish, which only a protocol bug can cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotOccupied(pub usize);

impl std::fmt::Display for SlotOccupied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bus slot {} published twice", self.0)
    }
}

impl std::error::Error for SlotOccupied {}

/// The shared append-only broadcast log.
#[derive(Debug)]
pub struct BusLog {
    slots: Box<[OnceLock<BusRecord>]>,
    tail: AtomicUsize,
    /// Parked waiters and the slot each waits on.
    sleepers: Mutex<Vec<(usize, Thread)>>,
    /// `sleepers.len()`, which only a parking waiter writes (under the
    /// lock): all a publish reads while nobody is parked.
    parked: AtomicUsize,
}

impl BusLog {
    /// Creates a log with capacity for exactly `capacity` broadcasts.
    /// The parallel runtime computes the capacity statically from the
    /// workload (each outer transaction and each non-transactional
    /// store publishes exactly once, crash or no crash), so a full log
    /// is a protocol bug.
    pub fn new(capacity: usize) -> Self {
        BusLog {
            slots: (0..capacity).map(|_| OnceLock::new()).collect(),
            tail: AtomicUsize::new(0),
            sleepers: Mutex::new(Vec::new()),
            parked: AtomicUsize::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current log length (slots claimed; the last one may still be
    /// publishing).
    pub fn tail(&self) -> usize {
        self.tail.load(Ordering::Acquire)
    }

    /// Attempts to claim slot `seen`: succeeds only if the log still has
    /// exactly `seen` records, i.e. the caller has validated against
    /// every record that will ever be ordered before its own. On failure
    /// the caller must poll the new records and retry — this CAS *is*
    /// the commit arbitration.
    pub fn try_claim(&self, seen: usize) -> bool {
        assert!(seen < self.slots.len(), "bus log capacity miscomputed");
        self.tail
            .compare_exchange(seen, seen + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Publishes the record into a previously claimed slot. A slot is
    /// written exactly once — by its claimer, or by the respawn that
    /// adopted it from a dead claimer — so a second publish is a protocol
    /// bug the caller turns into a typed runtime error instead of an
    /// abort. Wakes the waiters parked on `slot`; while none is parked,
    /// that costs a fence and one load of a word no publisher writes.
    pub fn publish(&self, slot: usize, record: BusRecord) -> Result<(), SlotOccupied> {
        self.slots[slot].set(record).map_err(|_| SlotOccupied(slot))?;
        // Orders the slot's write before the count's read; pairs with
        // the fence in `park`.
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) != 0 {
            self.wake(slot);
        }
        Ok(())
    }

    /// Unparks the waiters parked on `slot`.
    #[cold]
    #[inline(never)]
    fn wake(&self, slot: usize) {
        self.sleepers
            .lock()
            .expect("no thread panics holding the sleepers")
            .iter()
            .filter(|(waits_on, _)| *waits_on == slot)
            .for_each(|(_, thread)| thread.unpark());
    }

    /// Parks the calling thread until `slot` is published or `timeout`
    /// passes, whichever comes first; returns at once if the slot is
    /// already published. A return says nothing about the slot: the
    /// caller reads it again.
    pub(crate) fn park(&self, slot: usize, timeout: Duration) {
        self.enlist(Some(slot));
        // Orders the count's write before the slot's read; pairs with the
        // fence in `publish`.
        fence(Ordering::SeqCst);
        if self.get(slot).is_none() {
            std::thread::park_timeout(timeout);
        }
        self.enlist(None);
    }

    /// Adds the calling thread to the sleepers as waiting on `slot`, or
    /// with `None` takes it off, and stores their count.
    fn enlist(&self, slot: Option<usize>) {
        let mut sleepers = self.sleepers.lock().expect("no thread panics holding the sleepers");
        let me = std::thread::current();
        match slot {
            Some(slot) => sleepers.push((slot, me)),
            None => sleepers.retain(|(_, thread)| thread.id() != me.id()),
        }
        self.parked.store(sleepers.len(), Ordering::Relaxed);
    }

    /// Returns slot `i` if it is already published. A claimed slot stays
    /// `None` through its claim-to-publish window; a receiver waits there
    /// with its abort and watchdog checks (`Receiver::apply_next`).
    pub fn get(&self, i: usize) -> Option<&BusRecord> {
        self.slots[i].get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParConfig;
    use crate::receiver::Receiver;
    use crate::recover::{Halt, RunControl};
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::Instant;

    fn record(thread: u32, ordinal: u64, to: usize) -> BusRecord {
        BusRecord { validated_to: to, ..BusRecord::bare(thread as usize, ordinal, RecordKind::Commit) }
    }

    #[test]
    fn claim_is_exclusive_and_ordered() {
        let log = BusLog::new(2);
        assert!(log.try_claim(0));
        assert!(!log.try_claim(0), "stale view must not claim");
        assert_eq!(log.tail(), 1);
        log.publish(0, record(0, 0, 0)).unwrap();
        assert!(log.try_claim(1));
        log.publish(1, record(1, 0, 1)).unwrap();
        assert_eq!(log.tail(), 2);
        assert_eq!(log.get(0).map(|r| r.thread), Some(0));
        assert_eq!(log.get(1).map(|r| r.thread), Some(1));
    }

    #[test]
    fn double_publish_is_a_typed_error() {
        let log = BusLog::new(1);
        assert!(log.try_claim(0));
        log.publish(0, record(0, 0, 0)).unwrap();
        let err = log.publish(0, record(1, 0, 0)).unwrap_err();
        assert_eq!(err, SlotOccupied(0));
        assert_eq!(err.to_string(), "bus slot 0 published twice");
    }

    #[test]
    fn concurrent_claims_produce_a_dense_log() {
        let log = BusLog::new(64);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let log = &log;
                s.spawn(move || {
                    for n in 0..16u64 {
                        loop {
                            let seen = log.tail();
                            // Writers may be mid-publish; wait so the
                            // validated prefix is fully visible.
                            for i in 0..seen {
                                while log.get(i).is_none() {
                                    std::thread::yield_now();
                                }
                            }
                            if log.try_claim(seen) {
                                log.publish(seen, record(t, n, seen)).unwrap();
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(log.tail(), 64);
        for i in 0..64 {
            let r = log.get(i).expect("dense");
            assert_eq!(r.validated_to, i, "claim == validated prefix");
        }
    }

    /// Waits until some thread is parked on `log`.
    fn until_parked(log: &BusLog) {
        while log.parked.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_publish_wakes_the_waiter_parked_on_its_slot() {
        let log = Arc::new(BusLog::new(2));
        assert!(log.try_claim(0));
        let waiter = {
            let log = log.clone();
            std::thread::spawn(move || {
                log.park(0, Duration::from_secs(10));
                Instant::now()
            })
        };
        until_parked(&log);
        let published = Instant::now();
        log.publish(0, record(0, 0, 0)).unwrap();
        let woke = waiter.join().unwrap();
        assert!(woke - published < Duration::from_secs(1), "woke {:?} late", woke - published);
        assert_eq!(log.parked.load(Ordering::Relaxed), 0, "the waiter took itself off");
        // A park on a published slot does not sleep.
        let t0 = Instant::now();
        log.park(0, Duration::from_secs(10));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    /// Starts worker `proc` polling a log whose slot 0 is claimed and
    /// never published, under `cfg`, and returns once it has parked:
    /// the run's control block and the worker, which ends with the halt
    /// that ended its wait and its park count.
    fn wait_on_an_orphan(
        proc: usize,
        cfg: ParConfig,
    ) -> (Arc<RunControl>, JoinHandle<(Halt, u64)>) {
        let ctl = Arc::new(RunControl::new("par/tls/Bulk".into(), proc + 1, &cfg));
        let log = Arc::new(BusLog::new(2));
        assert!(log.try_claim(0), "claimed by a worker that died");
        let worker = {
            let (ctl, log) = (ctl.clone(), log.clone());
            std::thread::spawn(move || {
                let mut rx = Receiver::new(proc, &cfg, ctl.chaos.worker(proc, 0));
                let halt = rx.poll(&log, &ctl, |_| None).expect_err("the slot stays empty");
                (halt, rx.stats.parks)
            })
        };
        until_parked(&log);
        (ctl, worker)
    }

    /// Joins `worker` once it has finished; panics, leaving it running,
    /// if it has not within `limit`.
    fn join_within<T>(worker: JoinHandle<T>, limit: Duration) -> T {
        let t0 = Instant::now();
        while !worker.is_finished() {
            assert!(t0.elapsed() < limit, "the waiter still runs after {limit:?}");
            std::thread::yield_now();
        }
        worker.join().expect("the waiter does not panic")
    }

    #[test]
    fn a_parked_waiter_unwinds_at_an_abort_within_the_park_timeout() {
        // No watchdog: only the abort can end this wait.
        let cfg = ParConfig { stall_timeout_ms: 0, ..ParConfig::default() };
        let (ctl, worker) = wait_on_an_orphan(0, cfg);
        ctl.abort();
        let (halt, parks) = join_within(worker, Duration::from_secs(1));
        assert!(matches!(halt, Halt::Aborted), "{halt:?}");
        assert!(parks > 0, "the wait parked");
    }

    #[test]
    fn a_parked_waiter_reports_the_stall_as_its_own() {
        let cfg = ParConfig { stall_timeout_ms: 100, ..ParConfig::default() };
        let (_ctl, worker) = wait_on_an_orphan(1, cfg);
        let (halt, parks) = join_within(worker, Duration::from_secs(1));
        match halt {
            Halt::Stalled(v) => assert_eq!(v.thread, Some(1), "{v}"),
            other => panic!("expected a stall, got {other:?}"),
        }
        assert!(parks > 1, "each park timed out and checked again: {parks}");
    }
}
