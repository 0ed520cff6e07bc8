//! The compact state machine of the commit/arbiter-failover protocol.
//!
//! The model abstracts the TM/TLS machines down to the distributed
//! protocol the liveness engine implements (DESIGN.md §9): processors
//! that each broadcast a bounded number of commits, a single bus the
//! arbiter grants one broadcast at a time, arbiter crashes that advance
//! the epoch and replay the in-flight message under the new stamp,
//! interconnect duplication, and a per-receiver cursor over the bus
//! order. The model delivers **per receiver**, so a crash can strand a
//! half-delivered message and every interleaving of its copies'
//! deliveries is a distinct schedule. Like the machines, whose
//! `SimHarness::broadcast` delivers a commit's duplicate and replay
//! rounds inside one bus occupancy, the arbiter grants the next
//! broadcast only once every copy of the current one — original,
//! duplicate, replays, stale or not — has drained.
//!
//! The correct protocol relies on three mechanisms, each of which a
//! [`Mutation`] can break or probe:
//!
//! 1. **The receiver cursor** — one past the last broadcast index a
//!    receiver applied; a copy below it is dropped, so a W_C is applied
//!    at most once however many copies arrive.
//! 2. **Replay re-stamping** — the failover arbiter replays the in-flight
//!    message stamped with the *new* epoch, so it passes the fence below.
//! 3. **Epoch fencing** — receivers drop deliveries stamped with a dead
//!    epoch (the lease-safety rule).
//!
//! Checked properties:
//!
//! * **Exactly-once** — no receiver ever applies one ticket's W_C twice
//!   (checked eagerly at every apply).
//! * **Serializability** — all receivers apply commits in one total
//!   order (checked eagerly as pairwise prefix consistency).
//! * **No lost commits** — at quiescence every granted ticket has been
//!   applied by every receiver, crashes or not.

use std::collections::BTreeSet;
use std::fmt;

use crate::mutation::Mutation;

/// A commit's identity: `(committer, serial)` — what must be applied
/// exactly once everywhere.
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
    /// 2 arbiter crashes (enabling crash-during-replay), 1 duplication
    /// per broadcast.
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

/// One in-flight copy of a commit broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Msg {
    /// Committing processor.
    pub committer: u8,
    /// The committer's transaction serial.
    pub serial: u8,
    /// Epoch stamped at grant (or re-stamp) time.
    pub epoch: u8,
    /// Broadcast index in bus-grant order: what receiver cursors compare
    /// against, and the fault pattern's index.
    pub bindex: u8,
    /// Bitmask of receivers this copy has reached.
    pub delivered: u8,
    /// Interconnect duplications left for this copy.
    pub dups_left: u8,
    /// Whether this copy is a failover replay.
    pub replay: bool,
}

impl Msg {
    /// The commit identity this copy carries.
    pub fn ticket(&self) -> Ticket {
        (self.committer, self.serial)
    }

    /// Stable key identifying this copy in an [`Action`]: `(committer,
    /// serial, epoch, replay)` is unique among concurrently in-flight
    /// copies (replays are re-stamped; a non-re-stamped replay chain is
    /// cut off after one crash because no current-epoch copy remains).
    pub fn key(&self) -> (u8, u8, u8, bool) {
        (self.committer, self.serial, self.epoch, self.replay)
    }
}

/// The faults one broadcast absorbed — the unit of the interleaving-class
/// projection the conformance layer replays onto the machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultEntry {
    /// Arbiter crashes during this broadcast (1 = crash mid-broadcast,
    /// 2 = crash-during-replay as well).
    pub crashes: u8,
    /// Whether the interconnect duplicated a delivery of this broadcast.
    pub dup: bool,
}

/// One protocol state. `Ord`/`Hash` give the explorer exact state dedup.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct State {
    /// Commits each processor has yet to start.
    pub remaining: Vec<u8>,
    /// Current arbiter epoch.
    pub epoch: u8,
    /// Current arbiter leader (rotates on crash).
    pub leader: u8,
    /// Crashes injected so far.
    pub crashes: u8,
    /// In-flight message copies, in creation order.
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
            epoch: 0,
            leader: 0,
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

    /// Number of *distinct commits* currently in flight. A grant waits
    /// for every copy to drain, stale ones included, so this is at most 1.
    pub fn inflight_commits(&self) -> usize {
        self.inflight.iter().map(Msg::ticket).collect::<BTreeSet<_>>().len()
    }

    fn current_epoch_msg(&self) -> Option<usize> {
        self.inflight.iter().position(|m| m.epoch == self.epoch)
    }
}

/// One transition of the model. Message-bearing actions name the copy by
/// its stable [`Msg::key`], so a recorded trace replays against a fresh
/// model without relying on internal indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Action {
    /// The arbiter grants the bus to `proc`'s next commit.
    Grant {
        /// Committing processor.
        proc: u8,
    },
    /// The copy `msg` reaches receiver `to` for the first time.
    Deliver {
        /// Key of the in-flight copy ([`Msg::key`]).
        msg: (u8, u8, u8, bool),
        /// Receiving processor.
        to: u8,
    },
    /// The interconnect re-delivers the copy `msg` to `to`.
    Duplicate {
        /// Key of the in-flight copy ([`Msg::key`]).
        msg: (u8, u8, u8, bool),
        /// Receiving processor.
        to: u8,
    },
    /// The arbiter crashes mid-broadcast; the epoch advances, leadership
    /// rotates, and the in-flight message is replayed under the new stamp.
    Crash,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |k: &(u8, u8, u8, bool)| {
            format!(
                "{}({},{})@e{}",
                if k.3 { "replay" } else { "commit" },
                k.0,
                k.1,
                k.2
            )
        };
        match self {
            Action::Grant { proc } => write!(f, "grant bus to proc {proc}"),
            Action::Deliver { msg, to } => write!(f, "deliver {} -> proc {to}", name(msg)),
            Action::Duplicate { msg, to } => {
                write!(f, "duplicate {} -> proc {to}", name(msg))
            }
            Action::Crash => write!(f, "arbiter crashes; epoch++, replay in-flight"),
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
                "commit lost across re-election: proc {receiver} never applied \
                 W_C of commit ({},{})",
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
        if state.inflight.is_empty() {
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
                    out.push(Action::Deliver { msg: m.key(), to: r });
                } else if m.dups_left > 0 {
                    out.push(Action::Duplicate { msg: m.key(), to: r });
                }
            }
        }
        // Crash: only mid-broadcast, like the machines' fault hook.
        if state.crashes < self.cfg.max_crashes && state.current_epoch_msg().is_some() {
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
                assert!(s.inflight.is_empty(), "bus is occupied");
                let serial = self.cfg.commits_per_proc - s.remaining[p];
                s.remaining[p] -= 1;
                let bindex = s.pattern.len() as u8;
                s.pattern.push(FaultEntry::default());
                s.inflight.push(Msg {
                    committer: proc,
                    serial,
                    epoch: s.epoch,
                    bindex,
                    delivered: 0,
                    dups_left: self.cfg.max_dups,
                    replay: false,
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
                if s.pattern.is_empty() {
                    unreachable!("duplicate before any grant");
                }
                let bi = usize::from(s.inflight[mi].bindex);
                s.pattern[bi].dup = true;
                v
            }
            Action::Crash => {
                let mi = s.current_epoch_msg().expect("crash requires an in-flight broadcast");
                s.crashes += 1;
                s.epoch += 1;
                s.leader = (s.leader + 1) % self.cfg.procs;
                let m = s.inflight[mi];
                s.pattern[usize::from(m.bindex)].crashes += 1;
                match self.cfg.mutation {
                    // The crashed arbiter's successor forgets the
                    // in-flight message entirely.
                    Mutation::SkipReplay => {}
                    // The replay goes out under the dead epoch's stamp:
                    // every receiver fences it.
                    Mutation::ReplayWithoutRestamp => {
                        s.inflight.push(Msg {
                            epoch: m.epoch,
                            delivered: 0,
                            dups_left: 0,
                            replay: true,
                            ..m
                        });
                    }
                    _ => {
                        s.inflight.push(Msg {
                            epoch: s.epoch,
                            delivered: 0,
                            dups_left: 0,
                            replay: true,
                            ..m
                        });
                    }
                }
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

    fn find_msg(&self, state: &State, key: (u8, u8, u8, bool)) -> usize {
        state
            .inflight
            .iter()
            .position(|m| m.key() == key)
            .expect("action names an in-flight copy")
    }

    /// Receiver logic for one delivery of `state.inflight[mi]` at `to`:
    /// epoch fence, cursor, then apply + eager property checks.
    fn receive(&self, state: &mut State, mi: usize, to: u8) -> Option<Violation> {
        let m = state.inflight[mi];
        // Lease safety: deliveries stamped by a dead epoch are fenced.
        if m.epoch < state.epoch && self.cfg.mutation != Mutation::NoFencing {
            return None;
        }
        // The cursor: a copy of a broadcast this receiver already applied
        // (a duplicate, a replay, a stale original) is dropped.
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
            let key = (p, 0, s.epoch, false);
            for r in (0..3u8).filter(|r| *r != p) {
                let (next, v) = m.apply(&s, Action::Deliver { msg: key, to: r });
                s = next;
                assert_eq!(v, None);
            }
        }
        assert!(s.quiescent());
        assert_eq!(m.check_quiescent(&s), None);
        assert_eq!(s.order[1], vec![(0, 0), (2, 0)]);
    }

    #[test]
    fn crash_replays_under_the_new_epoch_and_the_cursor_drops_the_second_copy() {
        let m = model();
        let mut s = m.initial();
        s = m.apply(&s, Action::Grant { proc: 0 }).0;
        // Receiver 1 gets the original pre-crash.
        s = m.apply(&s, Action::Deliver { msg: (0, 0, 0, false), to: 1 }).0;
        let (next, v) = m.apply(&s, Action::Crash);
        s = next;
        assert_eq!(v, None);
        assert_eq!((s.epoch, s.leader, s.crashes), (1, 1, 1));
        assert_eq!(s.inflight.len(), 2, "original (stale) + re-stamped replay");
        assert_eq!(s.inflight_commits(), 1);
        // The replay reaches both receivers: 1 is past it, 2 applies.
        let (next, v) = m.apply(&s, Action::Deliver { msg: (0, 0, 1, true), to: 1 });
        s = next;
        assert_eq!(v, None);
        let (next, v) = m.apply(&s, Action::Deliver { msg: (0, 0, 1, true), to: 2 });
        s = next;
        assert_eq!(v, None);
        // The stale original drains to receiver 2: fenced, not applied.
        let (next, v) = m.apply(&s, Action::Deliver { msg: (0, 0, 0, false), to: 2 });
        s = next;
        assert_eq!(v, None);
        assert_eq!(s.order[1], vec![(0, 0)]);
        assert_eq!(s.order[2], vec![(0, 0)]);
        assert_eq!(s.cursor, vec![0, 1, 1]);
        assert_eq!(s.pattern[0], FaultEntry { crashes: 1, dup: false });
    }

    #[test]
    fn grant_waits_for_every_copy_to_drain() {
        let m = model();
        let is_grant = |a: &Action| matches!(a, Action::Grant { .. });
        let mut s = m.initial();
        s = m.apply(&s, Action::Grant { proc: 0 }).0;
        s = m.apply(&s, Action::Crash).0;
        // The replay fully delivers; the stale original has not drained,
        // so the bus is still occupied.
        s = m.apply(&s, Action::Deliver { msg: (0, 0, 1, true), to: 1 }).0;
        s = m.apply(&s, Action::Deliver { msg: (0, 0, 1, true), to: 2 }).0;
        assert_eq!(s.inflight.len(), 1);
        assert!(!m.enabled(&s).iter().any(is_grant), "a stale copy holds the bus");
        // The stale copy drains (fenced at both receivers): now the bus
        // is free.
        s = m.apply(&s, Action::Deliver { msg: (0, 0, 0, false), to: 1 }).0;
        s = m.apply(&s, Action::Deliver { msg: (0, 0, 0, false), to: 2 }).0;
        assert!(s.inflight.is_empty());
        assert!(m.enabled(&s).iter().any(is_grant));
    }

    #[test]
    fn replay_certifies_a_recorded_trace() {
        let m = Model::new(ModelConfig::mutated(Mutation::SkipCursor));
        let trace = vec![
            Action::Grant { proc: 0 },
            Action::Deliver { msg: (0, 0, 0, false), to: 1 },
            Action::Crash,
            Action::Deliver { msg: (0, 0, 1, true), to: 1 },
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
