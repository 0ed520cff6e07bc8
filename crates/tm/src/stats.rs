//! Statistics collected by a TM run — everything Tables 7 and Figures
//! 11/13/14 report.

use bulk_chaos::{FaultStats, InvariantViolation};
use bulk_core::CommitEvent;
use bulk_live::{LiveStats, LivenessViolation};
use bulk_mem::BandwidthStats;

/// Aggregate statistics of one TM simulation.
#[derive(Debug, Clone, Default)]
pub struct TmStats {
    /// Committed (outer) transactions.
    pub commits: u64,
    /// Full-transaction squashes.
    pub squashes: u64,
    /// Squashes caused purely by signature aliasing (the exact oracle saw
    /// no conflict). Table 7 "Sq (%)" = `false_squashes / squashes`. Full
    /// squashes only: an aliasing-induced partial rollback shows up as a
    /// `tm.verdict.false_positive`, not here.
    pub false_squashes: u64,
    /// Partial rollbacks performed instead of full squashes (Bulk-Partial).
    pub partial_rollbacks: u64,
    /// Sections discarded across all partial rollbacks.
    pub sections_rolled_back: u64,
    /// Sum of committed transactions' read-set sizes, in lines.
    pub rd_set_lines: u64,
    /// Sum of committed transactions' write-set sizes, in lines.
    pub wr_set_lines: u64,
    /// Sum of dependence-set sizes over truly conflicting squashes
    /// (|exact `W_C` ∩ (`R_R` ∪ `W_R`)|, Table 7 "Dep Set Size").
    pub dep_set_lines: u64,
    /// Number of squashes contributing to `dep_set_lines`.
    pub dep_samples: u64,
    /// Cache lines invalidated at commits due to aliasing only
    /// (Table 7 "False Inv/Com" numerator).
    pub false_invalidations: u64,
    /// Non-speculative dirty lines written back for the Set Restriction
    /// (Table 7 "Safe WB/Tr" numerator).
    pub safe_writebacks: u64,
    /// Speculative dirty lines spilled to the overflow area.
    pub overflow_spills: u64,
    /// Total overflow-area accesses (Table 7 "Overflow Accesses").
    pub overflow_accesses: u64,
    /// Eager forward-progress stalls taken instead of squashes.
    pub stalls: u64,
    /// Whether the run hit the livelock safety cap (naive Eager only).
    pub livelocked: bool,
    /// Individual (non-transactional) invalidations sent.
    pub individual_invalidations: u64,
    /// Finish time: the maximum processor clock, in cycles.
    pub cycles: u64,
    /// Machine-wide interconnect traffic.
    pub bw: BandwidthStats,
    /// Commit-arbitration denials retried with backoff (chaos runs).
    pub commit_retries: u64,
    /// Transactions escalated to the serialized (non-speculative) fallback.
    pub escalations: u64,
    /// Commits completed by the serialized fallback.
    pub serialized_commits: u64,
    /// Individual invariant checks performed by the auditor.
    pub audit_checks: u64,
    /// Injected-fault accounting for chaos runs.
    pub chaos: FaultStats,
    /// Invariant violations the auditor observed (empty on a healthy run).
    pub violations: Vec<InvariantViolation>,
    /// Liveness-engine counters (all zero unless the engine was armed).
    pub liveness: LiveStats,
    /// Forward-progress violations the liveness watchdog emitted.
    pub liveness_violations: Vec<LivenessViolation>,
    /// Committed history in commit order: one [`CommitEvent`] per outer
    /// transaction, used by the cross-runtime conformance check.
    pub history: Vec<CommitEvent>,
}

impl TmStats {
    /// Accumulates another run's statistics (used to average experiments
    /// over several workload seeds).
    pub fn merge(&mut self, other: &TmStats) {
        self.commits += other.commits;
        self.squashes += other.squashes;
        self.false_squashes += other.false_squashes;
        self.partial_rollbacks += other.partial_rollbacks;
        self.sections_rolled_back += other.sections_rolled_back;
        self.rd_set_lines += other.rd_set_lines;
        self.wr_set_lines += other.wr_set_lines;
        self.dep_set_lines += other.dep_set_lines;
        self.dep_samples += other.dep_samples;
        self.false_invalidations += other.false_invalidations;
        self.safe_writebacks += other.safe_writebacks;
        self.overflow_spills += other.overflow_spills;
        self.overflow_accesses += other.overflow_accesses;
        self.stalls += other.stalls;
        self.livelocked |= other.livelocked;
        self.individual_invalidations += other.individual_invalidations;
        self.cycles += other.cycles;
        self.bw += other.bw;
        self.commit_retries += other.commit_retries;
        self.escalations += other.escalations;
        self.serialized_commits += other.serialized_commits;
        self.audit_checks += other.audit_checks;
        self.chaos.merge(&other.chaos);
        self.violations.extend(other.violations.iter().cloned());
        self.liveness.merge(&other.liveness);
        self.liveness_violations.extend(other.liveness_violations.iter().cloned());
        self.history.extend(other.history.iter().copied());
    }

    /// Mean committed read-set size in lines.
    pub fn avg_rd_set(&self) -> f64 {
        ratio(self.rd_set_lines, self.commits)
    }

    /// Mean committed write-set size in lines.
    pub fn avg_wr_set(&self) -> f64 {
        ratio(self.wr_set_lines, self.commits)
    }

    /// Mean dependence-set size over truly conflicting squashes.
    pub fn avg_dep_set(&self) -> f64 {
        ratio(self.dep_set_lines, self.dep_samples)
    }

    /// Fraction of squashes caused by aliasing (Table 7 "Sq (%)", as 0..1).
    pub fn false_squash_frac(&self) -> f64 {
        ratio(self.false_squashes, self.squashes)
    }

    /// False invalidations per commit (Table 7 "False Inv/Com").
    pub fn false_inv_per_commit(&self) -> f64 {
        ratio(self.false_invalidations, self.commits)
    }

    /// Safe writebacks per committed transaction (Table 7 "Safe WB/Tr").
    pub fn safe_wb_per_commit(&self) -> f64 {
        ratio(self.safe_writebacks, self.commits)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = TmStats::default();
        assert_eq!(s.avg_rd_set(), 0.0);
        assert_eq!(s.false_squash_frac(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let s = TmStats {
            commits: 10,
            rd_set_lines: 680,
            wr_set_lines: 220,
            squashes: 4,
            false_squashes: 1,
            dep_set_lines: 6,
            dep_samples: 3,
            false_invalidations: 3,
            safe_writebacks: 9,
            ..TmStats::default()
        };
        assert_eq!(s.avg_rd_set(), 68.0);
        assert_eq!(s.avg_wr_set(), 22.0);
        assert_eq!(s.avg_dep_set(), 2.0);
        assert_eq!(s.false_squash_frac(), 0.25);
        assert_eq!(s.false_inv_per_commit(), 0.3);
        assert_eq!(s.safe_wb_per_commit(), 0.9);
    }
}
