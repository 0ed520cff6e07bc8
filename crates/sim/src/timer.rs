//! Per-processor cycle accounting and memory-access timing.

use bulk_mem::{BandwidthStats, Cache, LineAddr, MsgClass, StoreOutcome};

use crate::SimConfig;

/// Where a missing line was sourced from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillSource {
    /// Another processor's L1 held it (dirty or clean-owner).
    NeighborL1,
    /// Main memory.
    Memory,
}

/// The timing outcome of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessTiming {
    /// Whether it hit in the local L1.
    pub hit: bool,
    /// Dirty victim that must be written back, if any.
    pub writeback: Option<LineAddr>,
}

/// A processor's cycle clock plus helpers that charge memory-system time
/// and traffic consistently across the TM and TLS runtimes.
#[derive(Debug, Clone)]
pub struct CoreTimer {
    clock: u64,
}

impl CoreTimer {
    /// A timer at cycle zero.
    pub fn new() -> Self {
        CoreTimer { clock: 0 }
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Advances the clock by `cycles`.
    pub fn advance(&mut self, cycles: u64) {
        self.clock += cycles;
    }

    /// Moves the clock to at least `t` (stall until an external event).
    pub fn wait_until(&mut self, t: u64) {
        self.clock = self.clock.max(t);
    }

    /// Charges `n` units of compute at the configured CPI.
    pub fn compute(&mut self, n: u64, cfg: &SimConfig) {
        self.clock += n * cfg.compute_cpi;
    }

    /// Performs a load of `line` against `cache`, charging latency and
    /// fill/coherence traffic. `in_neighbor` tells whether some other L1
    /// currently holds the line (the runtime knows its sibling caches).
    /// Dirty victims are *returned*, not accounted: the caller decides
    /// whether they are ordinary writebacks or speculative overflow spills
    /// (§6.2.2) and records the traffic accordingly.
    pub fn load(
        &mut self,
        cache: &mut Cache,
        line: LineAddr,
        in_neighbor: bool,
        cfg: &SimConfig,
        bw: &mut BandwidthStats,
    ) -> AccessTiming {
        let (hit, evicted) = cache.load(line);
        let mut writeback = None;
        if hit {
            self.clock += cfg.l1_hit;
        } else {
            let src_rt = if in_neighbor { cfg.neighbor_rt } else { cfg.mem_rt };
            self.clock += src_rt;
            bw.record(MsgClass::Fill, cfg.msg_sizes.line_msg);
            if in_neighbor {
                bw.record(MsgClass::Coh, cfg.msg_sizes.addr_msg);
            }
            if let Some(v) = evicted {
                if v.state == bulk_mem::LineState::Dirty {
                    writeback = Some(v.addr);
                }
            }
        }
        AccessTiming { hit, writeback }
    }

    /// Performs a store to `line` against `cache`, charging latency and
    /// traffic. Upgrades of clean lines cost a coherence message.
    pub fn store(
        &mut self,
        cache: &mut Cache,
        line: LineAddr,
        in_neighbor: bool,
        cfg: &SimConfig,
        bw: &mut BandwidthStats,
    ) -> AccessTiming {
        match cache.store(line) {
            StoreOutcome::HitDirty => {
                self.clock += cfg.l1_hit;
                AccessTiming { hit: true, writeback: None }
            }
            StoreOutcome::HitUpgrade => {
                self.clock += cfg.l1_hit;
                bw.record(MsgClass::Coh, cfg.msg_sizes.addr_msg);
                AccessTiming { hit: true, writeback: None }
            }
            StoreOutcome::Miss(evicted) => {
                let src_rt = if in_neighbor { cfg.neighbor_rt } else { cfg.mem_rt };
                self.clock += src_rt;
                bw.record(MsgClass::Fill, cfg.msg_sizes.line_msg);
                if in_neighbor {
                    bw.record(MsgClass::Coh, cfg.msg_sizes.addr_msg);
                }
                let mut writeback = None;
                if let Some(v) = evicted {
                    if v.state == bulk_mem::LineState::Dirty {
                        writeback = Some(v.addr);
                    }
                }
                AccessTiming { hit: false, writeback }
            }
        }
    }
}

impl Default for CoreTimer {
    fn default() -> Self {
        CoreTimer::new()
    }
}

/// A single shared bus that serializes commit broadcasts.
#[derive(Debug, Clone, Default)]
pub struct Bus {
    free_at: u64,
}

impl Bus {
    /// A bus free at cycle zero.
    pub fn new() -> Self {
        Bus::default()
    }

    /// Acquires the bus at the earliest cycle ≥ `now`, holding it for
    /// `duration` cycles. Returns the acquisition time.
    pub fn acquire(&mut self, now: u64, duration: u64) -> u64 {
        let start = now.max(self.free_at);
        self.free_at = start + duration;
        start
    }

    /// The cycle at which the bus becomes free.
    pub fn free_at(&self) -> u64 {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulk_mem::{Addr, CacheGeometry};

    fn setup() -> (CoreTimer, Cache, SimConfig, BandwidthStats) {
        (
            CoreTimer::new(),
            Cache::new(CacheGeometry::tm_l1()),
            SimConfig::tm_default(),
            BandwidthStats::new(),
        )
    }

    #[test]
    fn load_hit_costs_l1_latency() {
        let (mut t, mut c, cfg, mut bw) = setup();
        let line = Addr::new(0x40).line(64);
        t.load(&mut c, line, false, &cfg, &mut bw); // miss
        let before = t.now();
        let a = t.load(&mut c, line, false, &cfg, &mut bw); // hit
        assert!(a.hit);
        assert_eq!(t.now() - before, cfg.l1_hit);
    }

    #[test]
    fn miss_from_memory_vs_neighbor() {
        let (mut t, mut c, cfg, mut bw) = setup();
        let a = t.load(&mut c, Addr::new(0x40).line(64), false, &cfg, &mut bw);
        assert!(!a.hit);
        assert_eq!(t.now(), cfg.mem_rt);
        let mut t2 = CoreTimer::new();
        t2.load(&mut c, Addr::new(0x4040).line(64), true, &cfg, &mut bw);
        assert_eq!(t2.now(), cfg.neighbor_rt);
        assert!(bw.bytes(MsgClass::Fill) > 0);
        assert!(bw.bytes(MsgClass::Coh) > 0);
    }

    #[test]
    fn store_upgrade_charges_coherence() {
        let (mut t, mut c, cfg, mut bw) = setup();
        let line = Addr::new(0x80).line(64);
        c.fill_clean(line);
        t.store(&mut c, line, false, &cfg, &mut bw);
        assert_eq!(bw.bytes(MsgClass::Coh), cfg.msg_sizes.addr_msg);
        assert_eq!(t.now(), cfg.l1_hit);
    }

    #[test]
    fn dirty_eviction_returns_victim_for_caller_accounting() {
        let (mut t, mut c, cfg, mut bw) = setup();
        // Fill a set (4-way) with dirty lines, then one more.
        let mut victims = Vec::new();
        for i in 0..5u32 {
            let a = t.store(&mut c, LineAddr::new(i * 128), false, &cfg, &mut bw);
            victims.extend(a.writeback);
        }
        assert_eq!(victims, vec![LineAddr::new(0)]);
        // The timer itself records no writeback traffic.
        assert_eq!(bw.bytes(MsgClass::Wb), 0);
    }

    #[test]
    fn bus_serializes() {
        let mut bus = Bus::new();
        assert_eq!(bus.acquire(100, 10), 100);
        assert_eq!(bus.acquire(50, 10), 110); // must wait
        assert_eq!(bus.free_at(), 120);
    }

    #[test]
    fn wait_until_never_rewinds() {
        let mut t = CoreTimer::new();
        t.advance(50);
        t.wait_until(30);
        assert_eq!(t.now(), 50);
        t.wait_until(80);
        assert_eq!(t.now(), 80);
    }
}
