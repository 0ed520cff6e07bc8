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
//!   empty [`OnceLock`] the reader spins on with `yield_now`, and the
//!   winner of a tail race always publishes — itself, or, if it dies
//!   first, the respawn that adopts the slot — so the system as a whole
//!   is lock-free (some thread always makes progress). The log holds
//!   only what the paper's bus carries: commits and stores.
//!
//! Memory ordering: the tail CAS is `AcqRel` and `OnceLock::set/get`
//! give release/acquire on the record payload, so a reader that
//! observes slot `n` published also observes every record before it
//! and the full payload of record `n` itself.

use bulk_mem::LineAddr;
use bulk_sig::Signature;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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
    /// abort.
    pub fn publish(&self, slot: usize, record: BusRecord) -> Result<(), SlotOccupied> {
        self.slots[slot].set(record).map_err(|_| SlotOccupied(slot))
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
}
