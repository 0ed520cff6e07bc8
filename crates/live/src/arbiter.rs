//! Commit-arbiter failover.
//!
//! The paper's commit protocol assumes an always-available arbiter that
//! grants the bus and orders commits. Here the arbiter is a *failable*
//! component: the chaos harness can crash it mid-broadcast, after the
//! committer has been granted the bus but before every receiver has
//! acknowledged the `CommitMsg`. Recovery is classic lease/epoch
//! re-election:
//!
//! * on a crash the epoch advances, leadership rotates deterministically
//!   to the next processor, and re-election costs a fixed number of
//!   cycles;
//! * the in-flight message is *replayed* under the new epoch (the
//!   committed-but-unacknowledged W_C must reach everyone), still inside
//!   the crashed broadcast's bus occupancy, so a receiver applies the
//!   occupancy's first round and drops the replays (`SimHarness::admit`).

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
}
