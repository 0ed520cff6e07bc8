//! Tuning knobs of the parallel runtime.

use bulk_chaos::{ChaosConfig, KillSpec};

/// Configuration of the [`ParRuntime`](crate::ParRuntime).
#[derive(Debug, Clone, PartialEq)]
pub struct ParConfig {
    /// Worker threads for TLS runs (TM runs spawn one OS thread per
    /// workload thread). Tasks are dealt round-robin to workers.
    pub tls_workers: usize,
    /// Wall-clock nanoseconds one `Compute(1000)` op dwells for. The
    /// discrete-event sim charges compute to a simulated clock; real
    /// threads have to *spend* the time for thread-count scaling to be
    /// observable, especially on hosts with fewer cores than workload
    /// threads (compute dwell is sleep-based, so it overlaps across
    /// threads regardless of core count). `0` disables dwell — right
    /// for conformance tests, wrong for throughput benches.
    pub compute_ns_per_kcycle: u64,
    /// Seed for squash-backoff jitter.
    pub seed: u64,
    /// Probabilistic real-thread fault injection (seeded worker kills,
    /// stalls, delayed publishes). `None` leaves the injector unarmed.
    pub chaos: Option<ChaosConfig>,
    /// Explicit deterministic worker-kill schedule, applied on top of
    /// (or without) `chaos`.
    pub kills: Vec<KillSpec>,
    /// Worker respawns the supervisor will perform before giving up with
    /// a typed [`RuntimeError::WorkerDied`](crate::RuntimeError). `0`
    /// means any worker death is fatal.
    pub respawn_budget: u32,
    /// Wall-clock milliseconds without a bus publish before the run is
    /// declared stalled (a typed `LivenessViolation`). `0` disables the
    /// watchdog.
    pub stall_timeout_ms: u64,
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            tls_workers: 4,
            compute_ns_per_kcycle: 0,
            seed: 0,
            chaos: None,
            kills: Vec::new(),
            respawn_budget: 8,
            stall_timeout_ms: 5_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_quiet() {
        let c = ParConfig::default();
        assert_eq!(c.tls_workers, 4);
        assert_eq!(c.compute_ns_per_kcycle, 0);
        assert!(c.chaos.is_none());
        assert!(c.kills.is_empty());
        assert_eq!(c.respawn_budget, 8);
        assert_eq!(c.stall_timeout_ms, 5_000);
    }
}
