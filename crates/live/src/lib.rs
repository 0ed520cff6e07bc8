//! Liveness engine for the Bulk machines: forward-progress guarantees and
//! crash-consistent recovery.
//!
//! The paper's commit protocol (§5) assumes an always-available arbiter
//! and leaves forward progress to policy — its own Fig. 12(a) shows a
//! naive eager scheme livelocking on a two-thread ping-pong. The chaos
//! harness (DESIGN.md §7) can *stress* progress but nothing in the stack
//! *guarantees* it. This crate closes that loop with three cooperating
//! mechanisms:
//!
//! * [`Watchdog`] — detects livelock (repeated squash cycles between the
//!   same signature pairs), starvation (per-thread commit age), and global
//!   stall (no commit in N ticks), emitting typed [`LivenessViolation`]s
//!   analogous to the chaos harness's `InvariantViolation`s;
//! * [`BackoffPolicy`] — age-based commit arbitration with bounded
//!   exponential backoff and seeded deterministic jitter, including
//!   squash-storm throttling driven by the aliasing-squash rate, as a
//!   graduated policy *before* serial-token escalation;
//! * [`Checkpoint`] — crash-consistent capture/verify of per-thread
//!   speculative state (R/W signatures + overflow area + O bit), so a
//!   forced context switch resumes without violating the Set Restriction.
//!
//! [`LivenessEngine`] composes all three behind the hook surface the TM and
//! TLS machines call. A commit-arbiter crash is not a mechanism of its
//! own: the chaos plan counts it, and the sim's broadcast stage
//! (`bulk_sim::SimHarness::broadcast`) charges the re-election as bus time
//! and still delivers the broadcast once. Every mechanism is a pure
//! function of its seed and the event order, so runs replay exactly under
//! `BULK_CHAOS_SEED`.
//!
//! ```
//! use bulk_live::{LivenessConfig, LivenessEngine, LivenessKind, WatchdogConfig};
//!
//! let cfg = LivenessConfig {
//!     watchdog: WatchdogConfig { ping_pong_rounds: 2, ..WatchdogConfig::default() },
//!     ..LivenessConfig::default()
//! };
//! let mut engine = LivenessEngine::new("tm/eager-naive", 2, cfg, None);
//! // Thread 0 squashes 1, then 1 squashes 0: an alternating squash cycle.
//! engine.on_squash(Some(0), 1, false, 1, 100);
//! engine.on_squash(Some(1), 0, false, 0, 200);
//! assert!(engine.tripped());
//! assert_eq!(engine.violations()[0].kind, LivenessKind::Livelock);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backoff;
mod checkpoint;
mod engine;
mod violation;
mod watchdog;

pub use backoff::{BackoffConfig, BackoffPolicy};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use engine::{LiveStats, LivenessConfig, LivenessEngine};
pub use violation::{LivenessKind, LivenessViolation};
pub use watchdog::{WallClockWatchdog, Watchdog, WatchdogConfig};
