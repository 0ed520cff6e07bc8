//! Host-speed calibration.
//!
//! The sandbox this benchmark runs in shares its cores: the same `bulk`
//! spawn was measured at 0.136 s and at 0.322 s within one minute, user
//! CPU time moving with wall time, and the drift lasts tens of seconds, so
//! neither medians nor minima over a twelve-second run are steady (spread
//! between runs 20–30 %). A fixed kernel of the benchmark's own — a
//! dependent walk over a 256 KB table, about a millisecond — slows down by
//! the same factor at the same moment. Every pass is therefore bracketed
//! and interleaved with bursts of that kernel, and every time of the pass
//! is scaled by `REFERENCE_BURST_NS / median burst`: seconds on a host on
//! which a burst takes exactly one millisecond. Measured on the ten-run
//! experiment that showed 22.6 % raw spread, the scaled spread was 4.5 %.
//!
//! The kernel is independent of the code under test, so it cannot hide a
//! regression; it must not change once baselines exist.

use std::time::Instant;

/// What a burst takes on the reference host, by definition.
pub const REFERENCE_BURST_NS: f64 = 1_000_000.0;

/// Dependent steps per burst: about a millisecond on a 2 GHz core.
const STEPS: usize = 200_000;

/// Table entries: 64 K `u32`s are 256 KB, resident in L2.
const ENTRIES: usize = 1 << 16;

/// The calibration kernel and its state.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u32>,
    index: usize,
    mix: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        // A fixed pseudo-random permutation (Fisher–Yates under a fixed
        // LCG): every host walks the same chain.
        let mut table: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut s = 0x9e37_79b9_7f4a_7c15_u64;
        for k in (1..ENTRIES).rev() {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            table.swap(k, (s >> 33) as usize % (k + 1));
        }
        Calibrator {
            table,
            index: 0,
            mix: 1,
        }
    }
}

impl Calibrator {
    /// Runs the kernel once and returns the nanoseconds it took.
    pub fn burst(&mut self) -> f64 {
        let start = Instant::now();
        let mask = ENTRIES - 1;
        for _ in 0..STEPS {
            self.index = (self.table[self.index] as usize ^ self.mix as usize) & mask;
            self.mix = self
                .mix
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(self.index as u64);
        }
        std::hint::black_box((self.index, self.mix));
        start.elapsed().as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_is_the_same_on_every_host() {
        let (mut a, mut b) = (Calibrator::default(), Calibrator::default());
        a.burst();
        b.burst();
        assert_eq!((a.index, a.mix), (b.index, b.mix));
        // The table is a permutation: the walk cannot collapse onto a
        // short cycle of equal entries.
        let mut seen = a.table.clone();
        seen.sort_unstable();
        assert!(seen.iter().enumerate().all(|(i, v)| i as u32 == *v));
        assert!(a.burst() > 0.0);
    }
}
