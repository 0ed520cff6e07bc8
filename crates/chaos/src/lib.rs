//! Chaos harness for the Bulk machines: deterministic fault injection,
//! runtime invariant auditing, and typed machine errors.
//!
//! The paper's central claim is that Bulk stays *correct* under adversity:
//! signature aliasing, cache overflow, and context switches may cost
//! performance but never correctness (§3, §6.2). This crate turns that
//! claim into something the simulator continuously checks rather than
//! asserts:
//!
//! * [`FaultPlan`] — a seeded, replayable fault injector. The TM/TLS
//!   machines consult it at protocol hook points (commit arbitration,
//!   broadcast, per-op scheduling) and it deterministically injects
//!   arbitration denials with bounded exponential backoff, delayed and
//!   duplicated commit broadcasts, in-flight signature bit flips, forced
//!   context switches, and forced cache evictions, each as often as its
//!   [`ChaosConfig`] probability says. Every decision derives from one
//!   `u64` seed — printing `BULK_CHAOS_SEED=<seed>` makes any failure
//!   exactly replayable.
//! * [`Auditor`] — a runtime invariant checker. After commits, squashes,
//!   and invalidations the machines feed it Set Restriction checks
//!   (§4.3/§4.5), signature-vs-oracle containment (a signature may alias
//!   but must never *miss* an address it encoded), committed-order
//!   serializability, and clock monotonicity. A violation becomes a
//!   structured [`InvariantViolation`] report — thread, cycle, scheme,
//!   replay seed — instead of a panic.
//! * [`MachineError`] — typed errors for machine construction and
//!   execution (malformed traces, missing versions, deadlock, lost
//!   progress), replacing `expect()` on trace- and message-shaped paths.
//! * [`ThreadChaos`] / [`WorkerChaos`] — fault injection for the
//!   real-thread parallel runtime, where no simulated clock exists:
//!   explicit [`KillSpec`] schedules and seeded probabilistic worker
//!   kills at commit-protocol [`CrashPoint`]s, plus injected stalls and
//!   delayed publishes ([`ThreadChaosConfig`]), all deterministic per
//!   seed and monotonic across worker respawns.
//! * [`ScheduleScript`] — the deterministic alternative to the seeded
//!   injector: an explicit per-broadcast fault schedule (denials, delay,
//!   duplication, arbiter crashes) that `FaultPlan::scripted` replays
//!   verbatim. The `bulk-mc` model checker serializes every interleaving
//!   class it explores as one of these, and the conformance tests drive
//!   the machines through each class.

#![warn(missing_docs)]

mod audit;
mod error;
mod fault;
mod schedule;
mod thread;

pub use audit::{Auditor, InvariantKind, InvariantViolation};
pub use error::MachineError;
pub use fault::{ChaosConfig, FaultPlan, FaultStats};
pub use schedule::{BroadcastSchedule, ScheduleScript};
pub use thread::{CrashPoint, KillSpec, ThreadChaos, ThreadChaosConfig, WorkerChaos};
