//! False-positive attribution: cross-checking every signature-based
//! disambiguation verdict against the exact per-address oracle.
//!
//! The paper's signatures (§3) answer "did the committed write set
//! intersect the receiver's sets?" approximately: an intersection of
//! signatures may be non-empty even though the underlying address sets
//! are disjoint (aliasing), which costs squashes and invalidations but
//! never correctness. The simulated machines also keep the exact address
//! sets, so every verdict `W_C ∩ R_R ∨ W_C ∩ W_R` can be classified
//! against ground truth. This module holds that classification and its
//! counters — the runtime form of the paper's Figure 9 / Table 7
//! false-positive accounting.

use crate::metrics::{Counter, Registry};

/// Classification of one disambiguation verdict against the exact oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Signatures intersected and the exact sets intersect: a necessary
    /// squash.
    TruePositive,
    /// Signatures intersected but the exact sets are disjoint: an
    /// aliasing-induced (false-positive) squash.
    FalsePositive,
    /// Neither intersects: correctly left alone.
    TrueNegative,
    /// The exact sets intersect but the signatures missed it. Signatures
    /// are superset encodings, so this must never happen; it is counted
    /// (rather than asserted) so a run can surface an encoding bug as
    /// data.
    FalseNegative,
}

impl Verdict {
    /// Classifies a signature decision against the oracle's.
    #[inline]
    pub fn classify(signature_conflict: bool, oracle_conflict: bool) -> Self {
        match (signature_conflict, oracle_conflict) {
            (true, true) => Verdict::TruePositive,
            (true, false) => Verdict::FalsePositive,
            (false, false) => Verdict::TrueNegative,
            (false, true) => Verdict::FalseNegative,
        }
    }
}

/// Counters for the four [`Verdict`] outcomes of a disambiguation site.
///
/// Registered under `{prefix}verdict.{true_positive,false_positive,
/// true_negative,false_negative}`.
#[derive(Debug, Clone)]
pub struct VerdictCounters {
    /// Necessary squashes (signature and oracle both say conflict).
    pub true_positive: Counter,
    /// Aliasing-induced squashes (signature says conflict, oracle says no).
    pub false_positive: Counter,
    /// Correct all-clears.
    pub true_negative: Counter,
    /// Missed conflicts — must stay zero for a correct signature encoding.
    pub false_negative: Counter,
}

impl VerdictCounters {
    /// Registers the four outcome counters under `prefix`.
    pub fn register(reg: &Registry, prefix: &str) -> Self {
        VerdictCounters {
            true_positive: reg.counter(&format!("{prefix}verdict.true_positive")),
            false_positive: reg.counter(&format!("{prefix}verdict.false_positive")),
            true_negative: reg.counter(&format!("{prefix}verdict.true_negative")),
            false_negative: reg.counter(&format!("{prefix}verdict.false_negative")),
        }
    }

    /// Classifies and counts one verdict, returning the classification.
    #[inline]
    pub fn record(&self, signature_conflict: bool, oracle_conflict: bool) -> Verdict {
        let v = Verdict::classify(signature_conflict, oracle_conflict);
        match v {
            Verdict::TruePositive => self.true_positive.inc(),
            Verdict::FalsePositive => self.false_positive.inc(),
            Verdict::TrueNegative => self.true_negative.inc(),
            Verdict::FalseNegative => self.false_negative.inc(),
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_truth_table() {
        assert_eq!(Verdict::classify(true, true), Verdict::TruePositive);
        assert_eq!(Verdict::classify(true, false), Verdict::FalsePositive);
        assert_eq!(Verdict::classify(false, false), Verdict::TrueNegative);
        assert_eq!(Verdict::classify(false, true), Verdict::FalseNegative);
    }

    #[test]
    fn counters_track_each_outcome() {
        let reg = Registry::new();
        let vc = VerdictCounters::register(&reg, "tm.");
        vc.record(true, true);
        vc.record(true, false);
        vc.record(true, false);
        vc.record(false, false);
        assert_eq!(reg.counter_value("tm.verdict.true_positive"), 1);
        assert_eq!(reg.counter_value("tm.verdict.false_positive"), 2);
        assert_eq!(reg.counter_value("tm.verdict.true_negative"), 1);
        assert_eq!(reg.counter_value("tm.verdict.false_negative"), 0);
    }
}
