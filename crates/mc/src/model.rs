//! The compact state machine of the commit protocol.
//!
//! The model abstracts the TM/TLS machines down to the distributed
//! protocol `SimHarness::broadcast` implements (DESIGN.md §9):
//! processors that each broadcast a bounded number of commits, a single
//! bus the arbiter grants one broadcast at a time, interconnect
//! duplication, arbiter crashes, and a per-receiver cursor over the bus
//! order. The model delivers **per receiver**, so every interleaving of a
//! broadcast's deliveries and its duplicate is a distinct schedule.
//!
//! An arbiter crash is bus time: the re-election holds the bus while the
//! broadcast in flight keeps draining, so a crash changes no delivery and
//! only counts against that broadcast's fault pattern — the per-broadcast
//! classes the conformance layer replays onto the machines.
//!
//! The correct protocol relies on two mechanisms, each of which a
//! [`Mutation`] breaks:
//!
//! 1. **The receiver cursor** — one past the last broadcast index a
//!    receiver applied; a copy below it is dropped, so a W_C is applied
//!    at most once however many copies arrive.
//! 2. **Drain before grant** — the arbiter grants the next broadcast only
//!    once every copy of the current one has drained (the harness's one
//!    bus occupancy per broadcast), so no receiver can see a later
//!    broadcast before an earlier one and skip it.
//!
//! Checked properties:
//!
//! * **Exactly-once** — no receiver ever applies one ticket's W_C twice
//!   (checked eagerly at every apply).
//! * **Serializability** — all receivers apply commits in one total
//!   order (checked eagerly as pairwise prefix consistency).
//! * **No lost commits** — at quiescence every granted ticket has been
//!   applied by every receiver, crashes or not.

use std::fmt;

use crate::mutation::Mutation;

/// A commit's identity: `(committer, serial)` — what must be applied
/// exactly once everywhere, and the key an [`Action`] names its copy by.
pub type Ticket = (u8, u8);

/// Model bounds. State-space size is a function of these; the documented
/// exhaustive configuration is `procs: 3, commits_per_proc: 1,
/// max_crashes: 2, max_dups: 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Processors (2..=8; receiver sets are `u8` bitmasks).
    pub procs: u8,
    /// Commit broadcasts each processor performs.
    pub commits_per_proc: u8,
    /// Total arbiter crashes the adversary may inject (each must hit a
    /// broadcast mid-flight, like the machines' `arbiter_crash` fault).
    pub max_crashes: u8,
    /// Duplicated deliveries the interconnect may inject per broadcast.
    pub max_dups: u8,
    /// The protocol bug under test ([`Mutation::None`] = correct).
    pub mutation: Mutation,
}

impl ModelConfig {
    /// The documented exhaustive bounds: 3 processors, 1 commit each,
    /// 2 arbiter crashes (two re-elections on one broadcast), 1
    /// duplication per broadcast.
    pub fn exhaustive() -> Self {
        ModelConfig {
            procs: 3,
            commits_per_proc: 1,
            max_crashes: 2,
            max_dups: 1,
            mutation: Mutation::None,
        }
    }

    /// The same bounds under `mutation`.
    pub fn mutated(mutation: Mutation) -> Self {
        ModelConfig { mutation, ..ModelConfig::exhaustive() }
    }

    /// Total broadcasts a complete execution performs.
    pub fn total_commits(&self) -> u16 {
        u16::from(self.procs) * u16::from(self.commits_per_proc)
    }

    fn validate(&self) {
        assert!((2..=8).contains(&self.procs), "procs must be 2..=8");
        assert!(self.commits_per_proc >= 1, "need at least one commit per proc");
    }
}

/// One commit broadcast in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Msg {
    /// Committing processor.
    pub committer: u8,
    /// The committer's transaction serial.
    pub serial: u8,
    /// Broadcast index in bus-grant order: what receiver cursors compare
    /// against, and the fault pattern's index.
    pub bindex: u8,
    /// Bitmask of receivers this broadcast has reached.
    pub delivered: u8,
    /// Interconnect duplications left for this broadcast.
    pub dups_left: u8,
}

impl Msg {
    /// The commit identity this broadcast carries, unique among the
    /// broadcasts in flight.
    pub fn ticket(&self) -> Ticket {
        (self.committer, self.serial)
    }
}

/// The faults one broadcast absorbed — the unit of the interleaving-class
/// projection the conformance layer replays onto the machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultEntry {
    /// Arbiter crashes during this broadcast, each one re-election
    /// holding the bus.
    pub crashes: u8,
    /// Whether the interconnect duplicated a delivery of this broadcast.
    pub dup: bool,
}

/// One protocol state. `Ord`/`Hash` give the explorer exact state dedup.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct State {
    /// Commits each processor has yet to start.
    pub remaining: Vec<u8>,
    /// Crashes injected so far.
    pub crashes: u8,
    /// Broadcasts in flight, in grant order (at most one unless
    /// [`Mutation::GrantBeforeDrain`] is seeded).
    pub inflight: Vec<Msg>,
    /// Per-receiver cursor: one past the broadcast index of the last copy
    /// the receiver applied.
    pub cursor: Vec<u8>,
    /// Per-receiver applied commit order — the committed order each
    /// processor observed.
    pub order: Vec<Vec<Ticket>>,
    /// Per-broadcast fault attribution, indexed by grant order.
    pub pattern: Vec<FaultEntry>,
}

impl State {
    /// The initial state for `cfg`.
    pub fn initial(cfg: &ModelConfig) -> Self {
        cfg.validate();
        let p = usize::from(cfg.procs);
        State {
            remaining: vec![cfg.commits_per_proc; p],
            crashes: 0,
            inflight: Vec::new(),
            cursor: vec![0; p],
            order: vec![Vec::new(); p],
            pattern: Vec::new(),
        }
    }

    /// Whether every broadcast has started and every copy has drained.
    pub fn quiescent(&self) -> bool {
        self.inflight.is_empty() && self.remaining.iter().all(|&r| r == 0)
    }
}

/// One transition of the model. Delivery actions name the broadcast by
/// its [`Ticket`], so a recorded trace replays against a fresh model
/// without relying on internal indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Action {
    /// The arbiter grants the bus to `proc`'s next commit.
    Grant {
        /// Committing processor.
        proc: u8,
    },
    /// The broadcast `msg` reaches receiver `to` for the first time.
    Deliver {
        /// Ticket of the broadcast in flight.
        msg: Ticket,
        /// Receiving processor.
        to: u8,
    },
    /// The interconnect re-delivers the broadcast `msg` to `to`.
    Duplicate {
        /// Ticket of the broadcast in flight.
        msg: Ticket,
        /// Receiving processor.
        to: u8,
    },
    /// The arbiter crashes mid-broadcast; the re-election holds the bus.
    Crash,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Grant { proc } => write!(f, "grant bus to proc {proc}"),
            Action::Deliver { msg: (c, s), to } => {
                write!(f, "deliver commit({c},{s}) -> proc {to}")
            }
            Action::Duplicate { msg: (c, s), to } => {
                write!(f, "duplicate commit({c},{s}) -> proc {to}")
            }
            Action::Crash => write!(f, "arbiter crashes; re-election holds the bus"),
        }
    }
}

/// A property the protocol violated, with enough context to read the
/// counterexample without the state dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Receiver `receiver` applied `ticket`'s W_C a second time.
    DuplicateApplication {
        /// The twice-applied commit.
        ticket: Ticket,
        /// The receiver that applied it twice.
        receiver: u8,
    },
    /// Two receivers applied the same two commits in opposite orders.
    OrderDivergence {
        /// First commit of the conflicting pair.
        a: Ticket,
        /// Second commit of the conflicting pair.
        b: Ticket,
        /// Receiver that applied `a` before `b`.
        r1: u8,
        /// Receiver that applied `b` before `a`.
        r2: u8,
    },
    /// At quiescence, `receiver` never applied `ticket`'s W_C.
    LostCommit {
        /// The commit that was lost.
        ticket: Ticket,
        /// The receiver that never applied it.
        receiver: u8,
    },
    /// Work remains but no action is enabled (must be unreachable).
    Stuck,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DuplicateApplication { ticket, receiver } => write!(
                f,
                "exactly-once violated: proc {receiver} applied W_C of commit \
                 ({},{}) twice",
                ticket.0, ticket.1
            ),
            Violation::OrderDivergence { a, b, r1, r2 } => write!(
                f,
                "serializability violated: proc {r1} committed ({},{}) before \
                 ({},{}) but proc {r2} saw the opposite order",
                a.0, a.1, b.0, b.1
            ),
            Violation::LostCommit { ticket, receiver } => write!(
                f,
                "commit lost: proc {receiver} never applied W_C of commit ({},{})",
                ticket.0, ticket.1
            ),
            Violation::Stuck => write!(f, "deadlock: work remains but nothing is enabled"),
        }
    }
}

/// The protocol model: applies [`Action`]s to [`State`]s under the
/// configured bounds and mutation.
#[derive(Debug, Clone, Copy)]
pub struct Model {
    cfg: ModelConfig,
}

impl Model {
    /// A model over `cfg`.
    pub fn new(cfg: ModelConfig) -> Self {
        cfg.validate();
        Model { cfg }
    }

    /// The bounds in force.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The initial state.
    pub fn initial(&self) -> State {
        State::initial(&self.cfg)
    }

    /// All enabled actions of `state`, in deterministic order.
    pub fn enabled(&self, state: &State) -> Vec<Action> {
        let mut out = Vec::new();
        // Grant: the bus is free once every copy has drained — one bus
        // occupancy per broadcast, as `SimHarness::broadcast` delivers it.
        if state.inflight.is_empty() || self.cfg.mutation == Mutation::GrantBeforeDrain {
            for p in 0..self.cfg.procs {
                if state.remaining[usize::from(p)] > 0 {
                    out.push(Action::Grant { proc: p });
                }
            }
        }
        for m in &state.inflight {
            for r in 0..self.cfg.procs {
                if r == m.committer {
                    continue;
                }
                let bit = 1u8 << r;
                if m.delivered & bit == 0 {
                    out.push(Action::Deliver { msg: m.ticket(), to: r });
                } else if m.dups_left > 0 {
                    out.push(Action::Duplicate { msg: m.ticket(), to: r });
                }
            }
        }
        // Crash: only mid-broadcast, like the machines' fault hook.
        if state.crashes < self.cfg.max_crashes && !state.inflight.is_empty() {
            out.push(Action::Crash);
        }
        out
    }

    /// Applies `action` to a copy of `state`; returns the successor and
    /// the violation the step exposed, if any.
    ///
    /// # Panics
    ///
    /// Panics if `action` is not enabled in `state` (the explorer only
    /// applies enabled actions; [`Model::replay`] validates first).
    pub fn apply(&self, state: &State, action: Action) -> (State, Option<Violation>) {
        let mut s = state.clone();
        let violation = match action {
            Action::Grant { proc } => {
                let p = usize::from(proc);
                assert!(s.remaining[p] > 0, "grant for a finished proc");
                let serial = self.cfg.commits_per_proc - s.remaining[p];
                s.remaining[p] -= 1;
                let bindex = s.pattern.len() as u8;
                s.pattern.push(FaultEntry::default());
                s.inflight.push(Msg {
                    committer: proc,
                    serial,
                    bindex,
                    delivered: 0,
                    dups_left: self.cfg.max_dups,
                });
                None
            }
            Action::Deliver { msg, to } => {
                let mi = self.find_msg(&s, msg);
                assert!(s.inflight[mi].delivered & (1 << to) == 0, "already delivered");
                s.inflight[mi].delivered |= 1 << to;
                let v = self.receive(&mut s, mi, to);
                self.retire_if_drained(&mut s, mi);
                v
            }
            Action::Duplicate { msg, to } => {
                let mi = self.find_msg(&s, msg);
                assert!(s.inflight[mi].dups_left > 0, "no duplication budget left");
                assert!(s.inflight[mi].delivered & (1 << to) != 0, "nothing to duplicate");
                s.inflight[mi].dups_left -= 1;
                let v = self.receive(&mut s, mi, to);
                let bi = usize::from(s.inflight[mi].bindex);
                s.pattern[bi].dup = true;
                v
            }
            Action::Crash => {
                // The re-election holds the bus and the broadcast keeps
                // draining: the crash only counts against it.
                let m = s.inflight.last().expect("crash requires an in-flight broadcast");
                s.pattern[usize::from(m.bindex)].crashes += 1;
                s.crashes += 1;
                None
            }
        };
        (s, violation)
    }

    /// Checks a quiescent state for lost commits. Returns the first loss
    /// in deterministic order, if any.
    pub fn check_quiescent(&self, state: &State) -> Option<Violation> {
        debug_assert!(state.quiescent());
        for p in 0..self.cfg.procs {
            for serial in 0..self.cfg.commits_per_proc {
                let ticket = (p, serial);
                for r in 0..self.cfg.procs {
                    if r == p {
                        continue;
                    }
                    if !state.order[usize::from(r)].contains(&ticket) {
                        return Some(Violation::LostCommit { ticket, receiver: r });
                    }
                }
            }
        }
        None
    }

    /// Replays a recorded trace from the initial state, validating that
    /// each action is enabled. Returns the violation the final step
    /// exposes (including the quiescence check), or `None` if the trace
    /// ends violation-free — used to certify counterexamples.
    pub fn replay(&self, trace: &[Action]) -> Result<Option<Violation>, String> {
        let mut state = self.initial();
        for (i, &action) in trace.iter().enumerate() {
            if !self.enabled(&state).contains(&action) {
                return Err(format!("step {i}: `{action}` is not enabled"));
            }
            let (next, violation) = self.apply(&state, action);
            if let Some(v) = violation {
                if i + 1 != trace.len() {
                    return Err(format!("step {i}: early violation `{v}`"));
                }
                return Ok(Some(v));
            }
            state = next;
        }
        if state.quiescent() {
            return Ok(self.check_quiescent(&state));
        }
        Ok(None)
    }

    fn find_msg(&self, state: &State, ticket: Ticket) -> usize {
        state
            .inflight
            .iter()
            .position(|m| m.ticket() == ticket)
            .expect("action names an in-flight broadcast")
    }

    /// Receiver logic for one delivery of `state.inflight[mi]` at `to`:
    /// the cursor, then apply + eager property checks.
    fn receive(&self, state: &mut State, mi: usize, to: u8) -> Option<Violation> {
        let m = state.inflight[mi];
        // The cursor: a copy of a broadcast at or below the last one this
        // receiver applied (a duplicate) is dropped.
        let r = usize::from(to);
        if m.bindex < state.cursor[r] && self.cfg.mutation != Mutation::SkipCursor {
            return None;
        }
        state.cursor[r] = m.bindex + 1;
        // Apply W_C.
        let ticket = m.ticket();
        state.order[r].push(ticket);
        if state.order[r].iter().filter(|t| **t == ticket).count() > 1 {
            return Some(Violation::DuplicateApplication { ticket, receiver: to });
        }
        // Eager pairwise order consistency: every commit this receiver
        // applied before `ticket` must precede it everywhere else too.
        for &a in state.order[r].iter().take(state.order[r].len() - 1) {
            for q in 0..state.order.len() {
                if q == r {
                    continue;
                }
                let o = &state.order[q];
                let pa = o.iter().position(|t| *t == a);
                let pb = o.iter().position(|t| *t == ticket);
                if let (Some(pa), Some(pb)) = (pa, pb) {
                    if pb < pa {
                        return Some(Violation::OrderDivergence {
                            a,
                            b: ticket,
                            r1: to,
                            r2: q as u8,
                        });
                    }
                }
            }
        }
        None
    }

    fn retire_if_drained(&self, state: &mut State, mi: usize) {
        let m = state.inflight[mi];
        let mut all = 0u8;
        for r in 0..self.cfg.procs {
            if r != m.committer {
                all |= 1 << r;
            }
        }
        if m.delivered == all {
            state.inflight.remove(mi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Model {
        Model::new(ModelConfig::exhaustive())
    }

    #[test]
    fn initial_state_is_not_quiescent_and_grants_are_enabled() {
        let m = model();
        let s0 = m.initial();
        assert!(!s0.quiescent());
        let enabled = m.enabled(&s0);
        assert_eq!(
            enabled,
            vec![
                Action::Grant { proc: 0 },
                Action::Grant { proc: 1 },
                Action::Grant { proc: 2 }
            ]
        );
    }

    #[test]
    fn happy_path_commits_exactly_once_everywhere() {
        let m = model();
        let mut s = m.initial();
        for p in 0..3u8 {
            let (next, v) = m.apply(&s, Action::Grant { proc: p });
            s = next;
            assert_eq!(v, None);
            for r in (0..3u8).filter(|r| *r != p) {
                let (next, v) = m.apply(&s, Action::Deliver { msg: (p, 0), to: r });
                s = next;
                assert_eq!(v, None);
            }
        }
        assert!(s.quiescent());
        assert_eq!(m.check_quiescent(&s), None);
        assert_eq!(s.order[1], vec![(0, 0), (2, 0)]);
    }

    #[test]
    fn a_crash_holds_the_bus_and_only_counts() {
        let m = model();
        let mut s = m.initial();
        s = m.apply(&s, Action::Grant { proc: 0 }).0;
        s = m.apply(&s, Action::Deliver { msg: (0, 0), to: 1 }).0;
        // Two re-elections on one broadcast: no copy is added, the
        // receivers' state does not move, the grant stays blocked.
        for crashes in 1..=2u8 {
            let (next, v) = m.apply(&s, Action::Crash);
            s = next;
            assert_eq!(v, None);
            assert_eq!((s.crashes, s.inflight.len()), (crashes, 1));
            assert_eq!(s.order, vec![vec![], vec![(0, 0)], vec![]]);
        }
        assert!(!m.enabled(&s).contains(&Action::Crash), "the crash budget is spent");
        let (next, v) = m.apply(&s, Action::Deliver { msg: (0, 0), to: 2 });
        s = next;
        assert_eq!(v, None);
        assert!(s.inflight.is_empty());
        assert_eq!(s.cursor, vec![0, 1, 1]);
        assert_eq!(s.pattern[0], FaultEntry { crashes: 2, dup: false });
    }

    #[test]
    fn grant_waits_for_every_copy_to_drain() {
        let is_grant = |a: &Action| matches!(a, Action::Grant { .. });
        let grant_then_deliver = |m: &Model| {
            let s = m.apply(&m.initial(), Action::Grant { proc: 0 }).0;
            m.apply(&s, Action::Deliver { msg: (0, 0), to: 1 }).0
        };
        let m = model();
        let s = grant_then_deliver(&m);
        assert!(!m.enabled(&s).iter().any(is_grant), "receiver 2 holds the bus");
        let s = m.apply(&s, Action::Deliver { msg: (0, 0), to: 2 }).0;
        assert!(m.enabled(&s).iter().any(is_grant));
        // The seeded bug grants while the copy to receiver 2 is in flight.
        let bug = Model::new(ModelConfig::mutated(Mutation::GrantBeforeDrain));
        assert!(bug.enabled(&grant_then_deliver(&bug)).iter().any(is_grant));
    }

    #[test]
    fn replay_certifies_a_recorded_trace() {
        let m = Model::new(ModelConfig::mutated(Mutation::SkipCursor));
        let trace = vec![
            Action::Grant { proc: 0 },
            Action::Deliver { msg: (0, 0), to: 1 },
            Action::Duplicate { msg: (0, 0), to: 1 },
        ];
        let v = m.replay(&trace).expect("trace is well-formed");
        assert_eq!(
            v,
            Some(Violation::DuplicateApplication { ticket: (0, 0), receiver: 1 })
        );
        // The same trace is violation-free on the correct protocol.
        assert_eq!(model().replay(&trace), Ok(None));
    }

    #[test]
    fn replay_rejects_disabled_actions() {
        let m = model();
        let err = m
            .replay(&[Action::Crash])
            .expect_err("crash with nothing in flight is not enabled");
        assert!(err.contains("not enabled"), "{err}");
    }
}
