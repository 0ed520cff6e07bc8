//! Age-based commit arbitration with bounded exponential backoff.
//!
//! When a thread is squashed it must retry, and *when* it retries decides
//! whether the machine converges or thrashes. This module implements the
//! graduated policy that sits between "retry immediately" (the Fig. 12(a)
//! livelock) and the blunt serial-token escalation of the chaos harness:
//!
//! * **bounded exponential backoff** — each consecutive squash of a thread
//!   doubles its wait, from [`BackoffConfig::base`] up to
//!   [`BackoffConfig::cap`]; a commit resets the ladder;
//! * **age-based arbitration** — the oldest in-flight transaction (age
//!   rank 0) waits least, so the thread closest to commit wins contended
//!   retries and starvation is structurally discouraged;
//! * **seeded deterministic jitter** — the top half of each wait is drawn
//!   from a [`SmallRng`], de-synchronising symmetric contenders without
//!   sacrificing replayability: the same seed and squash order produce the
//!   same waits, bit for bit;
//! * **squash-storm throttling** — the policy watches the aliasing share
//!   of recent squashes (the observability layer's `squash.aliasing`
//!   split); when false-positive squashes dominate a window, base and cap
//!   are widened by [`BackoffConfig::storm_factor`] until a calmer window
//!   closes the throttle.

use bulk_rng::{Rng, SeedableRng, SmallRng};

/// Tuning for [`BackoffPolicy`]. All quantities are in simulator cycles
/// unless noted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackoffConfig {
    /// First-squash wait.
    pub base: u64,
    /// Upper bound on any single wait (before storm widening).
    pub cap: u64,
    /// Number of squashes per storm-evaluation window.
    pub storm_window: u64,
    /// Aliasing share (percent of the window's squashes) above which the
    /// storm throttle opens.
    pub storm_threshold_pct: u32,
    /// Multiplier applied to `base` and `cap` while the throttle is open.
    pub storm_factor: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base: 16,
            cap: 4096,
            storm_window: 32,
            storm_threshold_pct: 60,
            storm_factor: 4,
        }
    }
}

/// Deterministic, seeded backoff arbiter. One instance serves one run.
#[derive(Debug)]
pub struct BackoffPolicy {
    cfg: BackoffConfig,
    rng: SmallRng,
    /// Consecutive squashes per thread since its last commit.
    consecutive: Vec<u32>,
    window_total: u64,
    window_aliasing: u64,
    storm_active: bool,
    waits: u64,
    wait_cycles: u64,
    storm_widenings: u64,
}

impl BackoffPolicy {
    /// Creates a policy for `threads` threads, seeded so that jitter is a
    /// pure function of `seed` and the squash order.
    pub fn new(threads: usize, cfg: BackoffConfig, seed: u64) -> Self {
        BackoffPolicy {
            cfg,
            // Domain-separate from the chaos plan and the workload
            // generators so arming backoff never correlates with either.
            rng: SmallRng::seed_from_u64(seed ^ 0xBAC0_0FF5_11FE_55AA),
            consecutive: vec![0; threads],
            window_total: 0,
            window_aliasing: 0,
            storm_active: false,
            waits: 0,
            wait_cycles: 0,
            storm_widenings: 0,
        }
    }

    /// The configured ladder.
    pub fn config(&self) -> &BackoffConfig {
        &self.cfg
    }

    /// Computes the wait for `thread` after a squash.
    ///
    /// `aliasing` is the observability layer's verdict for this squash
    /// (signature-only conflict) and feeds the storm throttle; `age_rank`
    /// is the thread's position among in-flight transactions by age
    /// (0 = oldest). Returns the number of cycles the thread should stall
    /// before retrying.
    pub fn on_squash(&mut self, thread: usize, aliasing: bool, age_rank: usize) -> u64 {
        if thread >= self.consecutive.len() {
            return 0;
        }
        self.consecutive[thread] = self.consecutive[thread].saturating_add(1);

        // Storm accounting: evaluate the aliasing share once per window.
        self.window_total += 1;
        if aliasing {
            self.window_aliasing += 1;
        }
        if self.window_total >= self.cfg.storm_window {
            let stormy =
                self.window_aliasing * 100 > u64::from(self.cfg.storm_threshold_pct) * self.window_total;
            if stormy && !self.storm_active {
                self.storm_widenings += 1;
            }
            self.storm_active = stormy;
            self.window_total = 0;
            self.window_aliasing = 0;
        }

        let widen = if self.storm_active { self.cfg.storm_factor.max(1) } else { 1 };
        let base = self.cfg.base.max(1).saturating_mul(widen);
        let cap = self.cfg.cap.max(1).saturating_mul(widen);

        // Exponential ladder, aged: older transactions (lower rank) wait
        // less, so the thread nearest commit wins the retry race.
        let exp = u32::min(self.consecutive[thread].saturating_sub(1), 12);
        let raw = base.saturating_shl(exp);
        let aged = raw.saturating_mul(age_rank as u64 + 1);
        let capped = aged.min(cap);

        // Deterministic jitter: fixed lower half plus a seeded draw over
        // the upper half, so symmetric contenders desynchronise.
        let half = capped / 2;
        let wait = half + self.rng.random_range(0..half + 1);

        self.waits += 1;
        self.wait_cycles += wait;
        wait
    }

    /// Resets `thread`'s ladder after a successful commit.
    pub fn on_commit(&mut self, thread: usize) {
        if thread < self.consecutive.len() {
            self.consecutive[thread] = 0;
        }
    }

    /// Total waits issued.
    pub fn waits(&self) -> u64 {
        self.waits
    }

    /// Total cycles of backoff issued.
    pub fn wait_cycles(&self) -> u64 {
        self.wait_cycles
    }

    /// Number of times the storm throttle opened.
    pub fn storm_widenings(&self) -> u64 {
        self.storm_widenings
    }
}

/// Saturating left shift (`u64::checked_shl` clamped to `u64::MAX`).
trait SaturatingShl {
    fn saturating_shl(self, exp: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, exp: u32) -> u64 {
        if self == 0 {
            return 0;
        }
        if exp >= self.leading_zeros() {
            u64::MAX
        } else {
            self << exp
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waits_grow_exponentially_and_reset_on_commit() {
        let mut p = BackoffPolicy::new(2, BackoffConfig::default(), 1);
        let w1 = p.on_squash(0, false, 0);
        let w2 = p.on_squash(0, false, 0);
        let w3 = p.on_squash(0, false, 0);
        // Jitter keeps exact values seed-dependent, but the floor (half of
        // the capped ladder value) must double each consecutive squash.
        assert!(w1 >= 8, "first wait below base floor: {w1}");
        assert!(w2 >= 16 && w3 >= 32, "ladder not growing: {w2}, {w3}");
        p.on_commit(0);
        let w4 = p.on_squash(0, false, 0);
        assert!(w4 <= 16 + 8, "ladder did not reset after commit: {w4}");
    }

    #[test]
    fn waits_are_bounded_by_the_cap() {
        let cfg = BackoffConfig { cap: 256, ..BackoffConfig::default() };
        let mut p = BackoffPolicy::new(1, cfg, 3);
        for _ in 0..40 {
            assert!(p.on_squash(0, false, 7) <= 256);
        }
    }

    #[test]
    fn older_transactions_wait_less() {
        // Same ladder position, different age ranks, many samples: the
        // oldest thread's mean wait must be strictly smaller.
        let mut old_total = 0u64;
        let mut young_total = 0u64;
        for seed in 0..20u64 {
            let mut p = BackoffPolicy::new(2, BackoffConfig::default(), seed);
            old_total += p.on_squash(0, false, 0);
            young_total += p.on_squash(1, false, 3);
        }
        assert!(
            old_total < young_total,
            "age-based arbitration inverted: oldest {old_total} vs younger {young_total}"
        );
    }

    #[test]
    fn same_seed_same_waits() {
        let mut a = BackoffPolicy::new(2, BackoffConfig::default(), 42);
        let mut b = BackoffPolicy::new(2, BackoffConfig::default(), 42);
        for i in 0..50usize {
            let t = i % 2;
            assert_eq!(a.on_squash(t, i % 3 == 0, t), b.on_squash(t, i % 3 == 0, t));
        }
        assert_eq!(a.wait_cycles(), b.wait_cycles());
    }

    #[test]
    fn aliasing_storm_opens_the_throttle_and_calm_closes_it() {
        let cfg = BackoffConfig {
            storm_window: 8,
            storm_threshold_pct: 50,
            ..BackoffConfig::default()
        };
        let mut p = BackoffPolicy::new(1, cfg, 5);
        for _ in 0..8 {
            p.on_squash(0, true, 0);
        }
        assert!(p.storm_active, "all-aliasing window must open the throttle");
        assert_eq!(p.storm_widenings(), 1);
        for _ in 0..8 {
            p.on_squash(0, false, 0);
        }
        assert!(!p.storm_active, "all-true-conflict window must close it");
        assert_eq!(p.storm_widenings(), 1);
    }

    #[test]
    fn storm_widens_the_floor() {
        let cfg = BackoffConfig {
            storm_window: 4,
            storm_threshold_pct: 50,
            storm_factor: 8,
            ..BackoffConfig::default()
        };
        let mut p = BackoffPolicy::new(1, cfg.clone(), 11);
        // First squash of a fresh ladder, throttle closed.
        let calm = p.on_squash(0, false, 0);
        p.on_commit(0);
        // Open the throttle with an aliasing-heavy window.
        for _ in 0..3 {
            p.on_squash(0, true, 0);
        }
        p.on_commit(0);
        let stormy = p.on_squash(0, true, 0);
        assert!(
            stormy >= calm * 2,
            "storm throttle did not widen backoff: calm {calm}, stormy {stormy}"
        );
    }
}
