//! The per-thread memory overflow area of the paper's §6.2.2.
//!
//! When a speculative thread's dirty lines are evicted from the cache they
//! move to an *overflow area* in memory. Conventional lazy schemes must
//! consult this area on every disambiguation; Bulk never does (signatures
//! are the sole disambiguation record) and additionally filters ordinary
//! misses with a signature membership test before touching the area. The
//! paper's Table 7 "Overflow Accesses Bulk/Lazy" column measures exactly
//! this difference, so the model counts accesses.

use bulk_obs::OverflowObs;

use crate::{AddrSet, LineAddr};

/// A per-thread overflow area holding speculative dirty lines evicted from
/// the cache, with access counting.
#[derive(Debug, Clone, Default)]
pub struct OverflowArea {
    lines: AddrSet<LineAddr>,
    accesses: u64,
    obs: Option<OverflowObs>,
}

impl OverflowArea {
    /// Creates an empty overflow area.
    pub fn new() -> Self {
        OverflowArea::default()
    }

    /// Attaches pre-registered observability counters; every subsequent
    /// spill/lookup/walk is mirrored into them.
    pub fn attach_obs(&mut self, obs: OverflowObs) {
        self.obs = Some(obs);
    }

    /// Moves an evicted speculative dirty line into the area. The spill
    /// itself is a cache writeback, not a consultation of the area, so it
    /// does not count as an access.
    pub fn spill(&mut self, line: LineAddr) {
        self.lines.insert(line);
        if let Some(obs) = &self.obs {
            obs.spills.inc();
            obs.resident_max.record_max(self.lines.len() as u64);
        }
    }

    /// Looks up whether `line` is held here. Counts as one access.
    pub fn lookup(&mut self, line: LineAddr) -> bool {
        self.accesses += 1;
        let hit = self.lines.contains(&line);
        if let Some(obs) = &self.obs {
            obs.lookups.inc();
            if hit {
                obs.hits.inc();
            }
        }
        hit
    }

    /// Whether `line` is held here, **without** counting an access. This is
    /// what an oracle (or a scheme that keeps separate exact metadata) would
    /// see; used by tests.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.lines.contains(&line)
    }

    /// Walks the whole area (as a conventional lazy scheme does when
    /// disambiguating a commit against overflowed addresses). Counts one
    /// access per held line, and returns the number of lines walked and
    /// how many of them `probe` holds.
    pub fn disambiguate_walk(&mut self, probe: &AddrSet<LineAddr>) -> (u64, usize) {
        let walked = self.lines.len() as u64;
        self.accesses += walked;
        if let Some(obs) = &self.obs {
            obs.walked_entries.add(walked);
        }
        (walked, self.lines.iter().filter(|l| probe.contains(l)).count())
    }

    /// Deallocates everything. Bulk discards the area in one step
    /// (`walk_entries = false`, one access if anything was held); a
    /// conventional scheme walks the entries to fold them into memory
    /// (`walk_entries = true`, one access per line).
    pub fn deallocate(&mut self, walk_entries: bool) {
        if !self.lines.is_empty() {
            self.accesses += if walk_entries { self.lines.len() as u64 } else { 1 };
            if walk_entries {
                if let Some(obs) = &self.obs {
                    obs.walked_entries.add(self.lines.len() as u64);
                }
            }
        }
        self.lines.clear();
    }

    /// Drops the area without any memory traffic — what a Bulk commit
    /// does: the spilled lines are already part of memory, so the area is
    /// simply forgotten (§6.2.2).
    pub fn discard(&mut self) {
        self.lines.clear();
    }

    /// Sorted snapshot of the resident lines, **without** counting an
    /// access: the checkpoint machinery reads the area's content the way
    /// the paper's context-switch save does — as part of the state dump,
    /// not as a disambiguation consultation. Sorted so two snapshots of
    /// identical state compare equal.
    pub fn snapshot_lines(&self) -> Vec<LineAddr> {
        let mut lines: Vec<LineAddr> = self.lines.iter().copied().collect();
        lines.sort_unstable();
        lines
    }

    /// Number of lines currently held.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the area holds no lines.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Total accesses performed so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_and_lookup() {
        let mut o = OverflowArea::new();
        let l = LineAddr::new(42);
        assert!(!o.lookup(l));
        o.spill(l);
        assert!(o.lookup(l));
        assert_eq!(o.accesses(), 2, "spills are not consultations");
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn walk_counts_per_line_and_intersects() {
        let mut o = OverflowArea::new();
        for i in 0..10 {
            o.spill(LineAddr::new(i));
        }
        let probe: AddrSet<LineAddr> = [3, 100].into_iter().map(LineAddr::new).collect();
        assert_eq!(o.disambiguate_walk(&probe), (10, 1));
        assert_eq!(o.accesses(), 10);
    }

    #[test]
    fn deallocate_walk_vs_discard() {
        let mut o = OverflowArea::new();
        o.spill(LineAddr::new(1));
        o.spill(LineAddr::new(2));
        o.deallocate(true);
        assert_eq!(o.accesses(), 2, "conventional walk touches each entry");
        assert!(o.is_empty());

        let mut o2 = OverflowArea::new();
        o2.spill(LineAddr::new(1));
        o2.deallocate(false);
        assert_eq!(o2.accesses(), 1, "bulk discard is a single access");
        o2.deallocate(false);
        assert_eq!(o2.accesses(), 1, "empty deallocation is free");
    }

    #[test]
    fn discard_is_free() {
        let mut o = OverflowArea::new();
        o.spill(LineAddr::new(5));
        o.discard();
        assert!(o.is_empty());
        assert_eq!(o.accesses(), 0);
    }

    #[test]
    fn attached_obs_mirrors_activity() {
        let reg = bulk_obs::Registry::new();
        let mut o = OverflowArea::new();
        o.attach_obs(OverflowObs::register(&reg, "tm."));
        o.spill(LineAddr::new(1));
        o.spill(LineAddr::new(2));
        assert!(o.lookup(LineAddr::new(1)));
        assert!(!o.lookup(LineAddr::new(9)));
        o.disambiguate_walk(&[LineAddr::new(1)].into_iter().collect());
        o.deallocate(true);
        assert_eq!(reg.counter_value("tm.overflow.spills"), 2);
        assert_eq!(reg.counter_value("tm.overflow.lookups"), 2);
        assert_eq!(reg.counter_value("tm.overflow.hits"), 1);
        assert_eq!(reg.counter_value("tm.overflow.walked_entries"), 4);
        assert_eq!(reg.gauges(), vec![("tm.overflow.resident_max".to_string(), 2)]);
    }

    #[test]
    fn snapshot_is_sorted_and_free() {
        let mut o = OverflowArea::new();
        o.spill(LineAddr::new(9));
        o.spill(LineAddr::new(1));
        o.spill(LineAddr::new(5));
        assert_eq!(
            o.snapshot_lines(),
            vec![LineAddr::new(1), LineAddr::new(5), LineAddr::new(9)]
        );
        assert_eq!(o.accesses(), 0, "snapshots are state dumps, not lookups");
    }

    #[test]
    fn contains_does_not_count() {
        let mut o = OverflowArea::new();
        o.spill(LineAddr::new(9));
        assert!(o.contains(LineAddr::new(9)));
        assert_eq!(o.accesses(), 0);
    }
}
