//! A set-associative, write-back data cache with true-LRU replacement.
//!
//! A deliberate design point, mirroring the paper (§4.5): the cache carries
//! **no speculative metadata** — no speculative bits, no version IDs, no
//! per-word access bits. All speculation bookkeeping lives outside, in the
//! Bulk Disambiguation Module. The cache only knows line addresses and a
//! clean/dirty state.
//!
//! Data values are not stored: the simulators track architectural values
//! separately where an experiment needs them; the cache models presence,
//! dirtiness, placement and replacement.

use crate::{CacheGeometry, LineAddr};

/// Coherence-visible state of a resident line. Invalid lines are simply not
/// resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Resident and consistent with memory (shared/exclusive-clean).
    Clean,
    /// Resident and modified with respect to memory.
    Dirty,
}

/// A resident cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine {
    addr: LineAddr,
    state: LineState,
    lru: u64,
}

impl CacheLine {
    /// The line's address.
    #[inline]
    pub fn addr(&self) -> LineAddr {
        self.addr
    }

    /// The line's clean/dirty state.
    #[inline]
    pub fn state(&self) -> LineState {
        self.state
    }

    /// Whether the line is dirty.
    #[inline]
    pub fn is_dirty(&self) -> bool {
        self.state == LineState::Dirty
    }
}

/// A line displaced by a fill. Dirty victims must be written back by the
/// caller (and accounted as writeback bandwidth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Address of the displaced line.
    pub addr: LineAddr,
    /// State the line had when displaced.
    pub state: LineState,
}

/// Result of a [`Cache::store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The line was already resident and dirty.
    HitDirty,
    /// The line was resident clean and has been upgraded to dirty (a
    /// coherence upgrade message is due).
    HitUpgrade,
    /// The line was not resident; it has been filled dirty, possibly
    /// displacing a victim.
    Miss(Option<EvictedLine>),
}

/// A set-associative write-back cache (see module docs).
///
/// The ways are stored flat and set-major: set `s` owns the `assoc` ways
/// from `s * assoc` on, of which the first `len[s]` are resident. `tags`
/// mirrors each way's address and holds the sentinel `EMPTY` in every way
/// past `len[s]`, so a lookup is one fixed-length compare over `assoc` tags.
#[derive(Debug, Clone)]
pub struct Cache {
    geom: CacheGeometry,
    ways: Vec<CacheLine>,
    tags: Vec<LineAddr>,
    len: Vec<u8>,
    set_mask: u32,
    tick: u64,
}

/// The tag of an empty way. A line address is a byte address shifted right
/// by at least 2 (lines are at least 4 bytes), so it is at most 2^30 - 1:
/// no line of the 32-bit space can match this tag.
const EMPTY: LineAddr = LineAddr::new(u32::MAX);

impl Cache {
    /// Creates an empty cache of the given shape.
    pub fn new(geom: CacheGeometry) -> Self {
        let n = (geom.size_bytes() / geom.line_bytes()) as usize;
        let sets = n / geom.assoc() as usize;
        let vacant = CacheLine { addr: EMPTY, state: LineState::Clean, lru: 0 };
        Cache {
            geom,
            ways: vec![vacant; n],
            tags: vec![EMPTY; n],
            len: vec![0; sets],
            set_mask: sets as u32 - 1,
            tick: 0,
        }
    }

    /// The cache's shape.
    #[inline]
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The set `line` maps to.
    #[inline]
    fn set(&self, line: LineAddr) -> usize {
        (line.raw() & self.set_mask) as usize
    }

    /// The way holding `line`, if resident. Scans all `assoc` tags of the
    /// set: empty ways hold [`EMPTY`], which no line matches, so the scan
    /// needs neither an early exit nor the set's fill count.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        debug_assert_ne!(line, EMPTY, "the empty-way tag is not a line");
        let assoc = self.geom.assoc() as usize;
        let base = self.set(line) * assoc;
        let tags = &self.tags[base..base + assoc];
        // Both Table 5 L1s are 4-way: hand the compiler that trip count.
        let i = match <&[LineAddr; 4]>::try_from(tags) {
            Ok(four) => scan(four, line),
            Err(_) => scan(tags, line),
        };
        (i != usize::MAX).then(|| base + i)
    }

    /// Whether `line` is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// The state of `line`, or `None` if not resident.
    pub fn state_of(&self, line: LineAddr) -> Option<LineState> {
        self.find(line).map(|w| self.ways[w].state)
    }

    /// Performs a load of `line`. Returns `true` on hit. On a miss the line
    /// is filled clean and the displaced victim, if any, is returned through
    /// `evicted`.
    pub fn load(&mut self, line: LineAddr) -> (bool, Option<EvictedLine>) {
        if self.touch(line) {
            (true, None)
        } else {
            (false, self.fill(line, LineState::Clean))
        }
    }

    /// Performs a store to `line` (write-allocate).
    pub fn store(&mut self, line: LineAddr) -> StoreOutcome {
        self.tick += 1;
        let Some(w) = self.find(line) else {
            return StoreOutcome::Miss(self.fill(line, LineState::Dirty));
        };
        let l = &mut self.ways[w];
        l.lru = self.tick;
        match l.state {
            LineState::Dirty => StoreOutcome::HitDirty,
            LineState::Clean => {
                l.state = LineState::Dirty;
                StoreOutcome::HitUpgrade
            }
        }
    }

    /// Updates LRU state for `line` if resident; returns whether it was.
    pub fn touch(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        match self.find(line) {
            Some(w) => {
                self.ways[w].lru = self.tick;
                true
            }
            None => false,
        }
    }

    /// Inserts `line` clean (as after a fill from memory), returning a
    /// displaced victim if the set was full. If the line was already
    /// resident its state is left unchanged.
    pub fn fill_clean(&mut self, line: LineAddr) -> Option<EvictedLine> {
        if self.touch(line) {
            return None;
        }
        self.fill(line, LineState::Clean)
    }

    /// Inserts `line` dirty, returning a displaced victim if the set was
    /// full. If the line was already resident it is marked dirty.
    pub fn fill_dirty(&mut self, line: LineAddr) -> Option<EvictedLine> {
        if self.touch(line) {
            self.mark_dirty(line);
            return None;
        }
        self.fill(line, LineState::Dirty)
    }

    /// Appends `line` to its set, first evicting the LRU way if the set is
    /// full. Eviction is `Vec::swap_remove` on the set's resident prefix,
    /// so the per-set order is the one the per-set `Vec` layout produced.
    fn fill(&mut self, line: LineAddr, state: LineState) -> Option<EvictedLine> {
        assert_ne!(line, EMPTY, "line {line} is the empty-way tag and cannot be cached");
        debug_assert!(self.find(line).is_none());
        let assoc = self.geom.assoc() as usize;
        let set = self.set(line);
        let base = set * assoc;
        self.tick += 1;
        let evicted = if self.len[set] as usize == assoc {
            let victim =
                (base..base + assoc).min_by_key(|&w| self.ways[w].lru).expect("non-empty set");
            let v = self.ways[victim];
            self.remove(set, victim);
            Some(EvictedLine { addr: v.addr, state: v.state })
        } else {
            None
        };
        let w = base + self.len[set] as usize;
        self.ways[w] = CacheLine { addr: line, state, lru: self.tick };
        self.tags[w] = line;
        self.len[set] += 1;
        evicted
    }

    /// Removes the resident way `w` of `set` the way `Vec::swap_remove`
    /// would: the set's last resident way moves into its place.
    fn remove(&mut self, set: usize, w: usize) {
        self.len[set] -= 1;
        let last = set * self.geom.assoc() as usize + self.len[set] as usize;
        self.ways[w] = self.ways[last];
        self.tags[w] = self.tags[last];
        self.tags[last] = EMPTY;
    }

    /// Marks a resident line dirty.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn mark_dirty(&mut self, line: LineAddr) {
        let w = self.find(line).expect("mark_dirty on non-resident line");
        self.ways[w].state = LineState::Dirty;
    }

    /// Marks a resident line clean (as after a writeback that keeps the line
    /// resident, which is what the Set Restriction's "safe writebacks" do).
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn mark_clean(&mut self, line: LineAddr) {
        let w = self.find(line).expect("mark_clean on non-resident line");
        self.ways[w].state = LineState::Clean;
    }

    /// Removes `line`, returning its prior state if it was resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineState> {
        let w = self.find(line)?;
        let state = self.ways[w].state;
        self.remove(self.set(line), w);
        Some(state)
    }

    /// Removes every line, leaving the cache empty.
    pub fn clear(&mut self) {
        self.tags.fill(EMPTY);
        self.len.fill(0);
    }

    /// The resident lines of cache set `set`, in a deterministic order:
    /// fills append, and a removal moves the set's last line into the freed
    /// slot. Signature expansion visits a set's lines in this order.
    ///
    /// This is the "read all valid line addresses of the set" step of the
    /// paper's signature expansion (Fig. 4).
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn lines_in_set(&self, set: u32) -> &[CacheLine] {
        let base = set as usize * self.geom.assoc() as usize;
        &self.ways[base..base + self.len[set as usize] as usize]
    }

    /// Whether cache set `set` holds at least one dirty line.
    pub fn set_has_dirty(&self, set: u32) -> bool {
        self.lines_in_set(set).iter().any(|l| l.is_dirty())
    }

    /// The dirty lines of cache set `set`.
    pub fn dirty_lines_in_set(&self, set: u32) -> impl Iterator<Item = LineAddr> + '_ {
        self.lines_in_set(set)
            .iter()
            .filter(|l| l.is_dirty())
            .map(|l| l.addr)
    }

    /// Iterates over every resident line, set by set.
    pub fn iter(&self) -> impl Iterator<Item = &CacheLine> {
        let assoc = self.geom.assoc() as usize;
        self.ways
            .chunks_exact(assoc)
            .zip(&self.len)
            .flat_map(|(set, &n)| &set[..n as usize])
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.len.iter().map(|&n| n as usize).sum()
    }

    /// Whether no line is resident.
    pub fn is_empty(&self) -> bool {
        self.len.iter().all(|&n| n == 0)
    }
}

/// The position of `line` among `tags`, or `usize::MAX`. Every tag is
/// compared: there is no early exit to mispredict.
#[inline]
fn scan<'a>(tags: impl IntoIterator<Item = &'a LineAddr>, line: LineAddr) -> usize {
    let mut hit = usize::MAX;
    for (i, &tag) in tags.into_iter().enumerate() {
        if tag == line {
            hit = i;
        }
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Addr;

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 64-byte lines.
        Cache::new(CacheGeometry::new(256, 2, 64))
    }

    #[test]
    fn load_miss_then_hit() {
        let mut c = tiny();
        let l = LineAddr::new(4);
        let (hit, ev) = c.load(l);
        assert!(!hit);
        assert!(ev.is_none());
        let (hit, _) = c.load(l);
        assert!(hit);
        assert_eq!(c.state_of(l), Some(LineState::Clean));
    }

    #[test]
    fn store_allocates_dirty() {
        let mut c = tiny();
        let l = LineAddr::new(2);
        assert_eq!(c.store(l), StoreOutcome::Miss(None));
        assert_eq!(c.state_of(l), Some(LineState::Dirty));
        assert_eq!(c.store(l), StoreOutcome::HitDirty);
    }

    #[test]
    fn store_upgrades_clean_line() {
        let mut c = tiny();
        let l = LineAddr::new(2);
        c.load(l);
        assert_eq!(c.store(l), StoreOutcome::HitUpgrade);
        assert_eq!(c.state_of(l), Some(LineState::Dirty));
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even raw line addrs).
        let (a, b, d) = (LineAddr::new(0), LineAddr::new(2), LineAddr::new(4));
        c.load(a);
        c.load(b);
        c.load(a); // refresh a; b is now LRU
        let (_, ev) = c.load(d);
        assert_eq!(ev, Some(EvictedLine { addr: b, state: LineState::Clean }));
        assert!(c.contains(a) && c.contains(d) && !c.contains(b));
    }

    #[test]
    fn dirty_victim_reported_dirty() {
        let mut c = tiny();
        let (a, b, d) = (LineAddr::new(0), LineAddr::new(2), LineAddr::new(4));
        c.store(a);
        c.load(b);
        c.touch(b); // a is LRU
        let (_, ev) = c.load(d);
        assert_eq!(ev, Some(EvictedLine { addr: a, state: LineState::Dirty }));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        let l = LineAddr::new(8);
        c.store(l);
        assert_eq!(c.invalidate(l), Some(LineState::Dirty));
        assert_eq!(c.invalidate(l), None);
        assert!(!c.contains(l));
    }

    #[test]
    fn set_queries() {
        let mut c = tiny();
        let even = LineAddr::new(6); // set 0
        let odd = LineAddr::new(7); // set 1
        c.store(even);
        c.load(odd);
        assert!(c.set_has_dirty(0));
        assert!(!c.set_has_dirty(1));
        assert_eq!(c.dirty_lines_in_set(0).collect::<Vec<_>>(), vec![even]);
        assert_eq!(c.lines_in_set(1).len(), 1);
    }

    #[test]
    fn mark_clean_then_dirty() {
        let mut c = tiny();
        let l = LineAddr::new(1);
        c.store(l);
        c.mark_clean(l);
        assert_eq!(c.state_of(l), Some(LineState::Clean));
        c.mark_dirty(l);
        assert_eq!(c.state_of(l), Some(LineState::Dirty));
    }

    #[test]
    fn clear_empties() {
        let mut c = tiny();
        c.store(LineAddr::new(1));
        c.load(LineAddr::new(2));
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn fill_dirty_marks_existing_resident_line() {
        let mut c = tiny();
        let l = LineAddr::new(2);
        c.load(l);
        assert!(c.fill_dirty(l).is_none());
        assert_eq!(c.state_of(l), Some(LineState::Dirty));
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn mark_dirty_missing_panics() {
        tiny().mark_dirty(LineAddr::new(9));
    }

    #[test]
    fn no_address_maps_to_the_empty_tag() {
        // The highest byte address gives the highest line of every legal
        // line size (powers of two from 4 bytes up).
        for shift in 2..32 {
            let line = Addr::new(u32::MAX).line(1 << shift);
            assert!(line.raw() < 1 << 30, "{line}");
            assert_ne!(line, EMPTY);
        }
    }

    #[test]
    #[should_panic(expected = "empty-way tag")]
    fn filling_the_empty_tag_panics() {
        let mut c = tiny();
        // Fill the tag's set (the last one) so no way in it is empty.
        c.load(LineAddr::new(1));
        c.load(LineAddr::new(3));
        c.load(EMPTY);
    }
}
