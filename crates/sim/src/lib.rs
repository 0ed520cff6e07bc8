//! Discrete-event timing substrate for the Bulk reproduction: the Table 5
//! machine configurations, per-processor cycle/traffic accounting, a
//! serializing commit bus, a deterministic event queue, and the
//! [`SimHarness`] — the commit-pipeline stages and instruments both sim
//! machines share.
//!
//! The TM ([`bulk_tm`](../bulk_tm/index.html)) and TLS
//! ([`bulk_tls`](../bulk_tls/index.html)) runtimes drive their protocol
//! state machines over these pieces; what speculation *means* (who
//! conflicts with whom, what a squash undoes) stays in those crates.
//!
//! ```
//! use bulk_sim::{CoreTimer, SimConfig};
//! use bulk_mem::{Addr, BandwidthStats, Cache};
//!
//! let cfg = SimConfig::tm_default();
//! let mut timer = CoreTimer::new();
//! let mut cache = Cache::new(cfg.geom);
//! let mut bw = BandwidthStats::new();
//! timer.load(&mut cache, Addr::new(0x40).line(64), false, &cfg, &mut bw);
//! assert_eq!(timer.now(), cfg.mem_rt); // cold miss
//! ```

mod config;
mod harness;
mod queue;
mod timer;

pub use config::SimConfig;
pub use harness::{Broadcast, CommitRequest, RunTail, SimHarness, SquashTail, Victim};
pub use queue::{earliest, EventQueue};
pub use timer::{AccessTiming, Bus, CoreTimer, FillSource};
