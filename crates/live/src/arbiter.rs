//! Commit-arbiter failover and idempotent commit replay.
//!
//! The paper's commit protocol assumes an always-available arbiter that
//! grants the bus and orders commits. Here the arbiter is a *failable*
//! component: the chaos harness can crash it mid-broadcast, after the
//! committer has been granted the bus but before every receiver has
//! acknowledged the `CommitMsg`. Recovery is classic lease/epoch
//! re-election:
//!
//! * every broadcast carries a [`CommitTicket`] — the arbiter epoch plus
//!   the committer's transaction serial;
//! * on a crash the epoch advances, leadership rotates deterministically
//!   to the next processor, and re-election costs a fixed number of
//!   cycles;
//! * the in-flight message is *replayed* under the new epoch (the
//!   committed-but-unacknowledged W_C must reach everyone), and receivers
//!   deduplicate on `(committer, serial)` via [`DedupFilter`], so a W_C is
//!   never applied twice no matter how many times crash or chaos
//!   duplication re-delivers it.

use bulk_mem::AddrHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Identity of one commit broadcast: arbiter epoch at grant time, the
/// committing processor, and that processor's transaction serial number.
///
/// `(committer, serial)` is unique per transaction attempt that reaches
/// the commit point, which is what makes receiver-side dedup sound; the
/// epoch records which arbiter incarnation granted the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CommitTicket {
    /// Arbiter epoch when the bus was granted.
    pub epoch: u64,
    /// Committing processor.
    pub committer: usize,
    /// The committer's transaction serial (monotonic per processor).
    pub serial: u64,
}

/// The failable commit arbiter: current epoch, current leader, and the
/// fixed re-election cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arbiter {
    procs: usize,
    leader: usize,
    epoch: u64,
    reelect_cycles: u64,
    crashes: u64,
}

impl Arbiter {
    /// Creates an arbiter for `procs` processors; processor 0 leads epoch 0.
    pub fn new(procs: usize, reelect_cycles: u64) -> Self {
        Arbiter {
            procs: procs.max(1),
            leader: 0,
            epoch: 0,
            reelect_cycles,
            crashes: 0,
        }
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current leader processor.
    pub fn leader(&self) -> usize {
        self.leader
    }

    /// Number of crashes survived so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Stamps a ticket for a broadcast granted in the current epoch.
    pub fn ticket(&self, committer: usize, serial: u64) -> CommitTicket {
        CommitTicket {
            epoch: self.epoch,
            committer,
            serial,
        }
    }

    /// Crashes the arbiter mid-broadcast and re-elects.
    ///
    /// Leadership rotates deterministically to the next processor, the
    /// epoch advances, and the returned cycle count (the lease timeout
    /// plus election round) must be charged to the machine before the
    /// in-flight message is replayed.
    pub fn fail_over(&mut self) -> u64 {
        self.crashes += 1;
        self.epoch += 1;
        self.leader = (self.leader + 1) % self.procs;
        self.reelect_cycles
    }
}

/// Receiver-side commit dedup: admits each `(committer, serial)` exactly
/// once, counting replayed or duplicated deliveries as drops.
///
/// The filter also tracks *applications* separately from admissions, so a
/// soak can assert the end-to-end property directly: however many times
/// chaos duplicates a broadcast or a failover replays it, the number of
/// duplicate applications stays zero.
///
/// One hash-table entry per distinct ticket holds both facts as flag
/// bits: a delivery is one constant-time probe whatever the serials look
/// like, and the footprint is the distinct tickets, never the largest
/// serial. The keys are tickets this process stamped, not outside input,
/// so the fixed hasher of the exact address sets serves here too.
#[derive(Debug, Default)]
pub struct DedupFilter {
    /// `(committer, serial)` → [`ADMITTED`] | [`APPLIED`].
    seen: HashMap<(u64, u64), u8, BuildHasherDefault<AddrHasher>>,
    applications: u64,
    drops: u64,
    duplicate_applications: u64,
}

const ADMITTED: u8 = 1;
const APPLIED: u8 = 2;

impl DedupFilter {
    /// Creates an empty filter.
    pub fn new() -> Self {
        DedupFilter::default()
    }

    /// Sets `flag` on `ticket`'s entry; `true` if it was not set before.
    #[inline]
    fn mark(&mut self, ticket: CommitTicket, flag: u8) -> bool {
        let flags = self.seen.entry((ticket.committer as u64, ticket.serial)).or_insert(0);
        let fresh = *flags & flag == 0;
        *flags |= flag;
        fresh
    }

    /// Admits a delivery of `ticket` if its `(committer, serial)` has not
    /// been seen before. A rejected (duplicate) delivery is counted and
    /// must not be applied by the caller.
    #[inline]
    pub fn admit(&mut self, ticket: CommitTicket) -> bool {
        let fresh = self.mark(ticket, ADMITTED);
        self.drops += u64::from(!fresh);
        fresh
    }

    /// Records that the caller actually applied `ticket`'s W_C. Returns
    /// `true` if this was a *duplicate* application — a correctness bug
    /// the soaks assert never happens.
    #[inline]
    pub fn record_application(&mut self, ticket: CommitTicket) -> bool {
        let fresh = self.mark(ticket, APPLIED);
        self.applications += u64::from(fresh);
        self.duplicate_applications += u64::from(!fresh);
        !fresh
    }

    /// Deliveries rejected as duplicates.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Distinct commits applied.
    pub fn applications(&self) -> u64 {
        self.applications
    }

    /// Times the same commit was applied more than once (must stay 0).
    pub fn duplicate_applications(&self) -> u64 {
        self.duplicate_applications
    }

    /// Distinct tickets the filter currently tracks (admitted or applied)
    /// — its memory footprint. Bounded by the number of *distinct*
    /// `(committer, serial)` pairs ever seen, not by delivery count:
    /// duplicated and replayed deliveries are dropped without growing the
    /// filter. The property suite asserts this bound directly.
    pub fn tracked(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_rotates_leadership_and_advances_the_epoch() {
        let mut a = Arbiter::new(3, 120);
        assert_eq!((a.epoch(), a.leader()), (0, 0));
        assert_eq!(a.fail_over(), 120);
        assert_eq!((a.epoch(), a.leader()), (1, 1));
        a.fail_over();
        a.fail_over();
        assert_eq!((a.epoch(), a.leader()), (3, 0));
        assert_eq!(a.crashes(), 3);
    }

    #[test]
    fn tickets_carry_the_granting_epoch() {
        let mut a = Arbiter::new(2, 50);
        let t0 = a.ticket(1, 7);
        a.fail_over();
        let t1 = a.ticket(1, 7);
        assert_eq!(t0.epoch, 0);
        assert_eq!(t1.epoch, 1);
        assert_eq!((t1.committer, t1.serial), (1, 7));
    }

    #[test]
    fn replayed_ticket_is_dropped_even_under_a_new_epoch() {
        let mut a = Arbiter::new(2, 50);
        let mut f = DedupFilter::new();
        let original = a.ticket(0, 3);
        assert!(f.admit(original));
        assert!(!f.record_application(original));
        // Arbiter crashes; the same commit is replayed under epoch 1.
        a.fail_over();
        let replay = a.ticket(0, 3);
        assert!(!f.admit(replay), "replay must be deduplicated");
        assert_eq!(f.drops(), 1);
        assert_eq!(f.duplicate_applications(), 0);
    }

    #[test]
    fn distinct_serials_from_one_committer_are_independent() {
        let a = Arbiter::new(2, 50);
        let mut f = DedupFilter::new();
        assert!(f.admit(a.ticket(0, 1)));
        assert!(f.admit(a.ticket(0, 2)));
        assert!(f.admit(a.ticket(1, 1)));
        assert_eq!(f.drops(), 0);
        assert_eq!(f.applications(), 0);
    }

    #[test]
    fn double_crash_during_one_broadcast_still_dedups_the_replays() {
        // Crash-during-replay: the arbiter dies mid-broadcast, its
        // successor dies again while replaying the same in-flight commit.
        // Each replay is re-stamped with the newest epoch; dedup still
        // drops both because the identity is (committer, serial).
        let mut a = Arbiter::new(3, 120);
        let mut f = DedupFilter::new();
        let original = a.ticket(2, 5);
        assert!(f.admit(original));
        assert!(!f.record_application(original));
        a.fail_over(); // crash mid-broadcast
        let replay1 = a.ticket(2, 5);
        a.fail_over(); // crash during the replay of the same commit
        let replay2 = a.ticket(2, 5);
        assert_eq!((replay1.epoch, replay2.epoch), (1, 2));
        assert_eq!((a.epoch(), a.leader(), a.crashes()), (2, 2, 2));
        assert!(!f.admit(replay1));
        assert!(!f.admit(replay2));
        assert_eq!(f.drops(), 2);
        assert_eq!(f.duplicate_applications(), 0);
        // Two replays did not grow the filter past the one real commit.
        assert_eq!(f.tracked(), 1);
    }

    #[test]
    fn crash_between_two_committers_keeps_their_tickets_distinct() {
        // Crash while the bus is contended: committer 0's broadcast is
        // interrupted, committer 1 is granted afterwards under the new
        // epoch. Both commits survive with distinct identities; the
        // replayed copy of 0's commit is the only drop.
        let mut a = Arbiter::new(2, 50);
        let mut f = DedupFilter::new();
        let first = a.ticket(0, 0);
        assert!(f.admit(first));
        assert!(!f.record_application(first));
        a.fail_over();
        let replay = a.ticket(0, 0);
        assert!(!f.admit(replay));
        let second = a.ticket(1, 0);
        assert_eq!(second.epoch, 1);
        assert!(f.admit(second));
        assert!(!f.record_application(second));
        assert_eq!(f.applications(), 2);
        assert_eq!(f.drops(), 1);
        assert_eq!(f.tracked(), 2);
    }

    #[test]
    fn double_application_is_counted_as_a_bug() {
        let a = Arbiter::new(1, 0);
        let mut f = DedupFilter::new();
        let t = a.ticket(0, 9);
        assert!(!f.record_application(t));
        assert!(f.record_application(t));
        assert_eq!(f.duplicate_applications(), 1);
    }
}
