//! # bulk-repro — Bulk Disambiguation of Speculative Threads
//!
//! A from-scratch Rust reproduction of **Ceze, Tuck, Caşcaval & Torrellas,
//! "Bulk Disambiguation of Speculative Threads in Multiprocessors"
//! (ISCA 2006)**: address signatures, bulk operations, the Bulk
//! Disambiguation Module, and complete TM and TLS runtimes on a
//! discrete-event multiprocessor simulator, together with the workload
//! generators and harnesses that regenerate every table and figure of the
//! paper's evaluation.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`mem`] — memory-system substrate (addresses, caches, bandwidth),
//! * [`rng`] — deterministic in-repo PRNG + property-test harness,
//! * [`sig`] — signatures and primitive bulk operations (§3),
//! * [`bulk`] — the Bulk Disambiguation Module (§4–§6),
//! * [`sim`] — discrete-event timing simulator (Table 5 machines),
//! * [`trace`] — synthetic TLS/TM workloads (evaluation substitution),
//! * [`tm`] — transactional-memory runtime with Eager/Lazy/Bulk schemes,
//! * [`tls`] — thread-level-speculation runtime with the same schemes,
//! * [`chaos`] — deterministic fault injection and runtime invariant
//!   auditing for both runtimes,
//! * [`obs`] — observability: metrics registry, protocol event log, and
//!   false-positive attribution against the exact oracle (DESIGN.md §8),
//! * [`live`] — liveness engine: forward-progress watchdog, age-based
//!   backoff arbitration, commit-arbiter failover and crash-consistent
//!   checkpoints (DESIGN.md §9),
//! * [`mc`] — explicit-state model checker for the commit/squash/failover
//!   protocol, with mutation testing and interleaving-class conformance
//!   replay onto the real machines (DESIGN.md §12),
//! * [`par`] — execution substrates: the [`par::Runtime`] trait over the
//!   deterministic sim and a parallel runtime that runs the commit/squash
//!   protocol on real OS threads over a lock-free broadcast log, with the
//!   sim as conformance oracle (DESIGN.md §13) — and the one front door
//!   to both: `JobSpec` + [`par::RunOptions`] → [`par::Runtime::run`] (§19),
//! * [`bulkd`] — live telemetry daemon: streaming job ingest over TCP,
//!   multiplexed TM/TLS runs on either substrate, per-job event JSONL
//!   and a Prometheus `/metrics` endpoint (DESIGN.md §14).
//!
//! # Quickstart
//!
//! ```
//! use bulk_repro::sig::{Signature, SignatureConfig};
//! use bulk_repro::mem::Addr;
//!
//! // The paper's default S14 signature (2 Kbit), line-address granularity.
//! let config = SignatureConfig::s14_tm();
//! let mut w = Signature::new(config.clone());
//! w.insert_line(Addr::new(0x1000).line(64));
//! assert!(w.contains_line(Addr::new(0x1000).line(64)));
//! assert!(!w.is_empty());
//! ```

pub use bulk_chaos as chaos;
pub use bulkd;
pub use bulk_core as bulk;
pub use bulk_live as live;
pub use bulk_mc as mc;
pub use bulk_mem as mem;
pub use bulk_obs as obs;
pub use bulk_par as par;
pub use bulk_rng as rng;
pub use bulk_sig as sig;
pub use bulk_sim as sim;
pub use bulk_tls as tls;
pub use bulk_tm as tm;
pub use bulk_trace as trace;
