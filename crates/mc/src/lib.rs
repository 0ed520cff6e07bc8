//! `bulk-mc`: an explicit-state model checker for the Bulk commit
//! protocol.
//!
//! The sim's commit (DESIGN.md §9) claims three distributed-protocol
//! properties: every committed W_C is applied **exactly once** per
//! receiver, all receivers observe **one serializable committed order**,
//! and **no commit is lost**, whatever the interconnect duplicates and
//! however often the arbiter crashes. This crate checks those claims
//! three ways:
//!
//! 1. **Exhaustive exploration** — [`model`] is a compact state machine
//!    of the protocol (processors, one arbiter-granted bus occupancy per
//!    broadcast, per-receiver delivery, interconnect duplication, arbiter
//!    crashes that hold the bus and are counted, a per-receiver cursor
//!    over the bus order); [`explore()`] enumerates *every* interleaving
//!    under documented bounds with exact state dedup and reports minimal
//!    certified counterexamples.
//! 2. **Mutation testing** — [`mutation`] seeds protocol bugs (skip the
//!    cursor check, grant the bus before the last broadcast drained);
//!    each must produce a counterexample while the unmutated protocol
//!    passes exhaustively.
//! 3. **Conformance replay** — [`conformance`] projects every explored
//!    interleaving class onto a deterministic
//!    [`ScheduleScript`](bulk_chaos::ScheduleScript); the repo-level
//!    conformance tests drive the real TM and TLS machines through each
//!    class and assert the machine outcomes match the model's
//!    predictions.
//!
//! `specs/tla/BulkCommit.tla` is the TLA+ twin of this model for readers
//! who want the properties in temporal logic; the Rust model is the one
//! CI executes.

#![deny(missing_docs)]

pub mod conformance;
pub mod explore;
pub mod model;
pub mod mutation;

pub use conformance::{expectations, schedule_for_class, ClassExpectation};
pub use explore::{explore, explore_bounded, Counterexample, ExploreReport};
pub use model::{Action, FaultEntry, Model, ModelConfig, Msg, State, Ticket, Violation};
pub use mutation::Mutation;
