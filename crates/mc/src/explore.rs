//! Exhaustive breadth-first interleaving explorer with exact state dedup.
//!
//! The explorer enumerates every reachable interleaving of the protocol
//! model under the configured bounds: a frontier of distinct states is
//! expanded level by level, successors are deduplicated against a hash
//! map of every state seen so far, and parent links record the first
//! (therefore shortest) path to each state. Because expansion is
//! breadth-first, the first violation encountered sits at minimal depth —
//! the reconstructed trace is a *minimal counterexample*, which
//! [`Model::replay`] then certifies against a fresh model before it is
//! reported.
//!
//! Quiescent states (all broadcasts granted, all copies drained) are
//! additionally checked for lost commits, and their per-broadcast fault
//! attribution is collected into the set of **interleaving classes**:
//! the distinct `(crashes, duplicated)` patterns the adversary realized,
//! which the conformance layer replays onto the real machines.

use std::collections::{BTreeSet, HashMap};

use crate::model::{Action, FaultEntry, Model, ModelConfig, State, Violation};

/// A certified minimal violating execution.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The violated property.
    pub violation: Violation,
    /// The shortest action sequence reaching it, from the initial state.
    pub trace: Vec<Action>,
}

impl Counterexample {
    /// Renders the trace as numbered steps with the violation last —
    /// the artifact format the CI job uploads.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, a) in self.trace.iter().enumerate() {
            out.push_str(&format!("  {:>2}. {a}\n", i + 1));
        }
        out.push_str(&format!("  => {}\n", self.violation));
        out
    }
}

/// What an exhaustive exploration found.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The bounds explored.
    pub config: ModelConfig,
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken (edges of the reachable graph).
    pub transitions: usize,
    /// Distinct quiescent (fully drained) states reached.
    pub quiescent: usize,
    /// Depth of the deepest state (longest shortest-path).
    pub max_depth: usize,
    /// Most commits simultaneously in flight in any state (1: a grant
    /// waits for the previous broadcast's copies to drain).
    pub max_inflight_commits: usize,
    /// Interleaving classes: the distinct per-broadcast fault patterns
    /// observed at quiescence, in deterministic order.
    pub classes: BTreeSet<Vec<FaultEntry>>,
    /// Whether a depth bound cut the exploration short.
    pub truncated: bool,
    /// The minimal certified counterexample, if any property failed.
    pub counterexample: Option<Counterexample>,
}

impl ExploreReport {
    /// Whether every explored interleaving satisfied every property.
    pub fn passed(&self) -> bool {
        self.counterexample.is_none()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{} states, {} transitions, {} quiescent, depth {}, \
             {} classes, max inflight commits {}{}{}",
            self.states,
            self.transitions,
            self.quiescent,
            self.max_depth,
            self.classes.len(),
            self.max_inflight_commits,
            if self.truncated { ", TRUNCATED" } else { "" },
            match &self.counterexample {
                Some(cx) => format!(", VIOLATION at depth {}", cx.trace.len()),
                None => String::new(),
            }
        )
    }
}

/// Exhaustively explores every interleaving of `cfg` (no depth bound).
pub fn explore(cfg: ModelConfig) -> ExploreReport {
    explore_bounded(cfg, usize::MAX)
}

/// Explores every interleaving of `cfg` up to `max_depth` actions deep.
/// The exhaustive configuration quiesces well before depth 64; a small
/// bound makes a fast CI smoke that still covers thousands of schedules.
pub fn explore_bounded(cfg: ModelConfig, max_depth: usize) -> ExploreReport {
    let model = Model::new(cfg);
    let initial = model.initial();

    // Arena of distinct states with parent links for trace reconstruction.
    let mut arena: Vec<State> = vec![initial.clone()];
    let mut parent: Vec<Option<(usize, Action)>> = vec![None];
    let mut visited: HashMap<State, usize> = HashMap::new();
    visited.insert(initial, 0);

    let mut report = ExploreReport {
        config: cfg,
        states: 1,
        transitions: 0,
        quiescent: 0,
        max_depth: 0,
        max_inflight_commits: 0,
        classes: BTreeSet::new(),
        truncated: false,
        counterexample: None,
    };

    let mut frontier: Vec<usize> = vec![0];
    let mut depth = 0usize;
    while !frontier.is_empty() {
        if depth >= max_depth {
            report.truncated = true;
            break;
        }
        let mut next_frontier = Vec::new();
        for &si in &frontier {
            let state = arena[si].clone();
            report.max_inflight_commits = report.max_inflight_commits.max(state.inflight.len());
            if state.quiescent() {
                report.quiescent += 1;
                report.classes.insert(state.pattern.clone());
                if let Some(v) = model.check_quiescent(&state) {
                    return certify(report, &model, &parent, si, None, v);
                }
                continue;
            }
            let enabled = model.enabled(&state);
            if enabled.is_empty() {
                return certify(report, &model, &parent, si, None, Violation::Stuck);
            }
            for action in enabled {
                report.transitions += 1;
                let (succ, violation) = model.apply(&state, action);
                if let Some(v) = violation {
                    return certify(report, &model, &parent, si, Some(action), v);
                }
                if !visited.contains_key(&succ) {
                    let id = arena.len();
                    visited.insert(succ.clone(), id);
                    arena.push(succ);
                    parent.push(Some((si, action)));
                    report.states += 1;
                    report.max_depth = report.max_depth.max(depth + 1);
                    next_frontier.push(id);
                }
            }
        }
        frontier = next_frontier;
        depth += 1;
    }
    report
}

/// Reconstructs the shortest trace to `si` (plus `last`, if the violation
/// fired on an outgoing action rather than at quiescence), certifies it by
/// replay on a fresh model, and attaches it to the report.
fn certify(
    mut report: ExploreReport,
    model: &Model,
    parent: &[Option<(usize, Action)>],
    si: usize,
    last: Option<Action>,
    violation: Violation,
) -> ExploreReport {
    let mut trace = Vec::new();
    let mut cur = si;
    while let Some((prev, action)) = parent[cur] {
        trace.push(action);
        cur = prev;
    }
    trace.reverse();
    trace.extend(last);
    match model.replay(&trace) {
        Ok(Some(certified)) => {
            assert_eq!(
                certified, violation,
                "replay certified a different violation than the explorer found"
            );
        }
        Ok(None) => panic!(
            "explorer found `{violation}` but replaying its trace shows no violation"
        ),
        Err(e) => panic!("counterexample trace failed to replay: {e}"),
    }
    report.counterexample = Some(Counterexample { violation, trace });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::Mutation;

    #[test]
    fn smoke_bounds_pass_quickly() {
        let cfg = ModelConfig {
            procs: 2,
            commits_per_proc: 1,
            max_crashes: 1,
            max_dups: 1,
            mutation: Mutation::None,
        };
        let report = explore(cfg);
        assert!(report.passed(), "{}", report.summary());
        assert!(!report.truncated);
        assert!(report.quiescent > 0);
        assert!(report.classes.contains(&vec![FaultEntry::default(); 2]));
    }

    #[test]
    fn bounded_depth_truncates_without_false_violations() {
        let report = explore_bounded(ModelConfig::exhaustive(), 4);
        assert!(report.passed());
        assert!(report.truncated);
        assert!(report.states > 1);
    }

    #[test]
    fn skip_cursor_yields_a_minimal_duplicate_application() {
        let report = explore(ModelConfig::mutated(Mutation::SkipCursor));
        let cx = report.counterexample.expect("skip-cursor must fail");
        assert!(matches!(cx.violation, Violation::DuplicateApplication { .. }));
        // Minimal: grant, deliver, duplicate the same delivery.
        assert_eq!(cx.trace.len(), 3, "{}", cx.render());
    }

    #[test]
    fn grant_before_drain_yields_a_certified_minimal_lost_commit() {
        let cfg = ModelConfig::mutated(Mutation::GrantBeforeDrain);
        let report = explore(cfg);
        let cx = report.counterexample.expect("grant-before-drain must fail");
        assert!(matches!(cx.violation, Violation::LostCommit { .. }), "{}", cx.render());
        // Minimal: three grants before anything drains, a receiver sees
        // broadcast 2 before broadcast 1 and its cursor drops broadcast 1,
        // and the rest drains to quiescence.
        assert_eq!(cx.trace.len(), 9, "{}", cx.render());
        assert_eq!(Model::new(cfg).replay(&cx.trace), Ok(Some(cx.violation)));
    }
}
