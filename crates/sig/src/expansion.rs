//! Signature expansion (paper §3.3): find the lines resident in a cache
//! that may belong to a signature, via `δ` plus per-line membership tests —
//! rather than a naive walk of every cache tag.

use bulk_mem::{Cache, LineAddr, LineState};
use bulk_obs::ExpansionObs;

use crate::{SetBitmask, Signature};

/// A cache line selected by signature expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpandedLine {
    /// The matching line's address.
    pub addr: LineAddr,
    /// Its clean/dirty state at expansion time.
    pub state: LineState,
}

impl Signature {
    /// Expands this signature against `cache`: applies δ to obtain the
    /// cache-set bitmask (Fig. 4's FSM input), then for each selected set
    /// reads the valid line addresses and keeps those passing the
    /// membership test. For word-granularity signatures a line matches if
    /// any of its words may be in the signature.
    ///
    /// The result is a superset of the truly matching lines (aliasing), and
    /// never misses a truly matching resident line.
    ///
    /// # Panics
    ///
    /// Panics if the signature's line size differs from the cache's.
    pub fn expand(&self, cache: &Cache) -> Vec<ExpandedLine> {
        self.expand_observed(cache, None)
    }

    /// [`Signature::expand`] with optional instrumentation: when `obs` is
    /// given, the expansion records how many cache sets δ selected, how
    /// many tags it read, and how many lines it matched.
    pub fn expand_observed(&self, cache: &Cache, obs: Option<&ExpansionObs>) -> Vec<ExpandedLine> {
        let mut out = Vec::new();
        self.expand_sets(&self.decode_sets(&cache.geometry()), cache, obs, |e| out.push(e));
        out
    }

    /// The expansion FSM proper (Fig. 4), fed an already decoded
    /// `sets = δ(self)`: walks the selected sets of `cache` in ascending
    /// order and hands every line passing the membership test to `visit`.
    /// A holder of δ — a BDM slot, the receivers of one broadcast — expands
    /// without decoding again.
    pub fn expand_sets(
        &self,
        sets: &SetBitmask,
        cache: &Cache,
        obs: Option<&ExpansionObs>,
        mut visit: impl FnMut(ExpandedLine),
    ) {
        let (mut candidate_sets, mut tags, mut matched) = (0u64, 0u64, 0u64);
        for set in sets.iter_ones() {
            candidate_sets += 1;
            for line in cache.lines_in_set(set) {
                tags += 1;
                if self.contains_any_word_of_line(line.addr()) {
                    matched += 1;
                    visit(ExpandedLine { addr: line.addr(), state: line.state() });
                }
            }
        }
        if let Some(obs) = obs {
            obs.calls.inc();
            obs.candidate_sets.add(candidate_sets);
            obs.tag_reads.add(tags);
            obs.matched_lines.add(matched);
        }
    }

    /// Number of cache tags signature expansion reads for this cache —
    /// the cost the δ pre-selection saves versus a full tag walk.
    pub fn expansion_tag_reads(&self, cache: &Cache) -> usize {
        let geom = cache.geometry();
        self.decode_sets(&geom)
            .iter_ones()
            .map(|set| cache.lines_in_set(set).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignatureConfig;
    use bulk_mem::{Addr, CacheGeometry};

    #[test]
    fn expansion_finds_inserted_resident_lines() {
        let geom = CacheGeometry::tm_l1();
        let mut cache = Cache::new(geom);
        let mut sig = Signature::new(SignatureConfig::s14_tm());
        let hot = [LineAddr::new(3), LineAddr::new(1000), LineAddr::new(77)];
        let cold = [LineAddr::new(4), LineAddr::new(2000)];
        for &l in &hot {
            cache.fill_dirty(l);
            sig.insert_line(l);
        }
        for &l in &cold {
            cache.fill_clean(l);
        }
        let found = sig.expand(&cache);
        for &l in &hot {
            assert!(found.iter().any(|e| e.addr == l && e.state == LineState::Dirty));
        }
        // No cold line may appear unless aliased; with S14 and 5 lines,
        // aliasing into both the set mask and the membership test for these
        // specific addresses does not occur.
        for &l in &cold {
            assert!(!found.iter().any(|e| e.addr == l));
        }
    }

    #[test]
    fn expansion_skips_non_resident_lines() {
        let geom = CacheGeometry::tm_l1();
        let cache = Cache::new(geom);
        let mut sig = Signature::new(SignatureConfig::s14_tm());
        sig.insert_line(LineAddr::new(42));
        assert!(sig.expand(&cache).is_empty());
    }

    #[test]
    fn expansion_with_word_granularity() {
        let geom = CacheGeometry::tls_l1();
        let mut cache = Cache::new(geom);
        let mut sig = Signature::new(SignatureConfig::s14_tls());
        let a = Addr::new(0x4000);
        cache.fill_dirty(a.line(64));
        sig.insert_addr(a); // one word of the line
        let found = sig.expand(&cache);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].addr, a.line(64));
    }

    #[test]
    fn tag_reads_bounded_by_selected_sets() {
        let geom = CacheGeometry::tm_l1();
        let mut cache = Cache::new(geom);
        // Fill many sets.
        for i in 0..256u32 {
            cache.fill_clean(LineAddr::new(i));
        }
        let mut sig = Signature::new(SignatureConfig::s14_tm());
        sig.insert_line(LineAddr::new(10));
        // δ selects one set of 128; that set holds 2 lines (10 and 138).
        assert_eq!(sig.expansion_tag_reads(&cache), 2);
        assert!(sig.expansion_tag_reads(&cache) < cache.len());
    }

    #[test]
    fn observed_expansion_counts_sets_tags_and_matches() {
        let geom = CacheGeometry::tm_l1();
        let mut cache = Cache::new(geom);
        for i in 0..256u32 {
            cache.fill_clean(LineAddr::new(i));
        }
        let mut sig = Signature::new(SignatureConfig::s14_tm());
        sig.insert_line(LineAddr::new(10));
        let reg = bulk_obs::Registry::new();
        let obs = ExpansionObs::register(&reg, "sig.");
        let found = sig.expand_observed(&cache, Some(&obs));
        assert_eq!(reg.counter_value("sig.expansion.calls"), 1);
        assert_eq!(
            reg.counter_value("sig.expansion.tag_reads"),
            sig.expansion_tag_reads(&cache) as u64
        );
        assert_eq!(reg.counter_value("sig.expansion.matched_lines"), found.len() as u64);
        assert!(reg.counter_value("sig.expansion.candidate_sets") >= 1);
    }

    #[test]
    fn empty_signature_expands_to_nothing() {
        let geom = CacheGeometry::tm_l1();
        let mut cache = Cache::new(geom);
        cache.fill_dirty(LineAddr::new(1));
        let sig = Signature::new(SignatureConfig::s14_tm());
        assert!(sig.expand(&cache).is_empty());
        assert_eq!(sig.expansion_tag_reads(&cache), 0);
    }
}
