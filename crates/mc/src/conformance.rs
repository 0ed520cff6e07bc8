//! Projection of explored interleaving classes onto real-machine fault
//! schedules.
//!
//! The model's adversary controls more than the machines expose: it picks
//! bus-grant order and interleaves per-receiver deliveries, while the TM
//! and TLS machines arbitrate commits themselves and deliver a broadcast
//! to every receiver at once. What *does* project faithfully is the
//! per-broadcast fault pattern — how many arbiter crashes hit each
//! broadcast and whether the interconnect duplicated it. Every quiescent
//! model execution is therefore classified by its [`FaultEntry`] pattern,
//! and each class becomes one deterministic [`ScheduleScript`] the
//! machines replay. The conformance tests then assert the
//! machine-observable outcomes the model predicts for that class: every
//! commit applied exactly once, every scripted crash and duplicate
//! injected (the chaos plan's counts, whose sum is the published
//! `live.dedup_drops`), and a byte-identical metrics snapshot per script.

use std::collections::BTreeSet;

use bulk_chaos::{BroadcastSchedule, ScheduleScript};

use crate::model::FaultEntry;

/// The machine-checkable predictions the model makes for one class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassExpectation {
    /// The schedule realizing the class.
    pub script: ScheduleScript,
    /// Arbiter crashes, each one re-election holding the bus
    /// (`FaultStats::arbiter_crashes`).
    pub crashes: u64,
    /// Duplicated deliveries the interconnect injects.
    pub duplicates: u64,
}

/// Converts one model fault pattern into a machine schedule.
pub fn schedule_for_class(pattern: &[FaultEntry]) -> ScheduleScript {
    ScheduleScript::from_pattern(
        pattern
            .iter()
            .map(|e| BroadcastSchedule {
                denials: 0,
                delay: 0,
                duplicate: e.dup,
                crashes: u32::from(e.crashes),
            })
            .collect(),
    )
}

/// Converts every explored class into a schedule plus its predicted
/// machine-observable outcome, in deterministic class order.
pub fn expectations(classes: &BTreeSet<Vec<FaultEntry>>) -> Vec<ClassExpectation> {
    classes
        .iter()
        .map(|pattern| {
            let script = schedule_for_class(pattern);
            ClassExpectation {
                crashes: script.total_crashes(),
                duplicates: script.total_duplicates(),
                script,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use crate::model::ModelConfig;

    #[test]
    fn exhaustive_classes_project_to_distinct_labelled_schedules() {
        let report = explore(ModelConfig::exhaustive());
        assert!(report.passed(), "{}", report.summary());
        let exps = expectations(&report.classes);
        assert_eq!(exps.len(), report.classes.len());
        let names: BTreeSet<&str> =
            exps.iter().map(|e| e.script.name.as_str()).collect();
        assert_eq!(names.len(), exps.len(), "class labels must be unique");
        // The quiet class and at least one class with two crashes on one
        // broadcast must be present.
        assert!(names.contains("-.-.-"));
        assert!(exps.iter().any(|e| e.script.broadcasts.iter().any(|b| b.crashes >= 2)));
    }

    #[test]
    fn expectation_arithmetic_matches_the_schedule() {
        let pattern = vec![
            FaultEntry { crashes: 2, dup: true },
            FaultEntry::default(),
            FaultEntry { crashes: 0, dup: true },
        ];
        let exp = &expectations(&BTreeSet::from([pattern]))[0];
        assert_eq!(exp.crashes, 2);
        assert_eq!(exp.duplicates, 2);
        assert_eq!(exp.script.name, "c2+dup.-.c0+dup");
    }
}
