//! Execution substrates for the Bulk machines: the [`Runtime`] trait,
//! the deterministic-sim adapter, and a parallel runtime that runs the
//! paper's commit/squash protocol on real OS threads.
//!
//! It is also the front door (DESIGN.md §19): a run is a `JobSpec`
//! resolved by [`JobPlan`] into a [`Job`], armed by [`RunOptions`], and
//! [`Runtime::run`] is the only way the CLI and `bulkd` execute one.
//!
//! The paper's own claim (§3) is that signatures decouple
//! disambiguation from caches and timing: nothing in the protocol needs
//! simulated cycles. This crate takes that literally. [`ParRuntime`]
//! maps each simulated processor to an OS thread, replaces the snoopy
//! bus with a lock-free broadcast log ([`bus::BusLog`]) that each
//! receiver walks slot by slot — its cursor is what applies every record
//! exactly once — and lets the SIMD signatures of `crates/sig`
//! disambiguate genuinely concurrent read/write sets.
//!
//! The deterministic sim stays what it always was — and becomes the
//! *oracle*: [`SimRuntime`] runs the same trace under the same trait,
//! and [`same_commit_class`] checks that both substrates commit exactly
//! the same transactions, each thread's in program order, with both
//! histories auditor-clean. `tests/par_conformance.rs` enforces this
//! across a matrix of workloads, schemes and seeds.
//!
//! ```
//! use bulk_par::{conflict_light_tm, ParRuntime, Runtime, SimRuntime, same_commit_class};
//! use bulk_sim::SimConfig;
//! use bulk_tm::Scheme;
//!
//! let wl = conflict_light_tm(4, 16, 2, 0);
//! let cfg = SimConfig::tm_default();
//! let sim = SimRuntime.run_tm(&wl, Scheme::Bulk, &cfg).unwrap();
//! let par = ParRuntime::default().run_tm(&wl, Scheme::Bulk, &cfg).unwrap();
//! same_commit_class(&sim, &par).unwrap();
//! ```

#![warn(missing_docs)]

pub mod bus;
mod config;
mod receiver;
mod recover;
mod runtime;
mod stats;
mod tls;
mod tm;
mod workloads;

pub use bulk_chaos::{CrashPoint, KillSpec};
pub use bus::SlotOccupied;
pub use config::ParConfig;
pub use runtime::{
    runtime_for, same_commit_class, Job, JobPlan, ParRuntime, RunDetail, RunOptions, RunReport,
    Runtime, RuntimeError, SimRuntime,
};
pub use stats::ParStats;
pub use tls::run_par_tls;
pub use tm::run_par_tm;
pub use workloads::conflict_light_tm;
