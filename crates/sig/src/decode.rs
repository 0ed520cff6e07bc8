//! The δ decode operation (paper Table 1): turn a signature into the set of
//! cache-set indices its addresses can map to.
//!
//! When every cache-index bit of the (permuted) key falls inside a single
//! C-field — as in the paper's default configurations — the result is
//! **exact**: precisely the set indices of the inserted addresses. When the
//! index bits are spread over multiple fields (or fall outside all fields),
//! the result is a conservative superset, which is safe for performance
//! studies but not for the Set-Restriction argument; the BDM therefore
//! insists on [`SignatureConfig::is_exactly_decodable`] configurations.

use std::fmt;

use bulk_mem::CacheGeometry;

use crate::signature::BitIter;
use crate::{Signature, SignatureConfig};

/// A bitmask over the sets of a cache, as produced by δ and stored in the
/// BDM's `δ(W_run)` / `OR(δ(W_pre))` registers (paper Fig. 7).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SetBitmask {
    bits: Vec<u64>,
    num_sets: u32,
}

impl SetBitmask {
    /// Creates an all-zero bitmask over `num_sets` cache sets.
    pub fn new(num_sets: u32) -> Self {
        SetBitmask { bits: vec![0; num_sets.div_ceil(64) as usize], num_sets }
    }

    /// Number of cache sets covered.
    pub fn num_sets(&self) -> u32 {
        self.num_sets
    }

    /// Sets the bit for cache set `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set(&mut self, idx: u32) {
        assert!(idx < self.num_sets, "set index out of range");
        self.bits[(idx / 64) as usize] |= 1 << (idx % 64);
    }

    /// Whether the bit for cache set `idx` is set.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn get(&self, idx: u32) -> bool {
        assert!(idx < self.num_sets, "set index out of range");
        self.bits[(idx / 64) as usize] >> (idx % 64) & 1 == 1
    }

    /// OR-accumulates another bitmask (used for `OR(δ(W_pre))`).
    ///
    /// # Panics
    ///
    /// Panics if the masks cover different numbers of sets.
    pub fn or_assign(&mut self, other: &SetBitmask) {
        assert_eq!(self.num_sets, other.num_sets, "bitmask size mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.bits.iter().any(|&w| w != 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// Iterates over the set indices whose bit is set, ascending. This is
    /// the FSM of the paper's Fig. 4 walking the selected sets.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.bits.len()).flat_map(|wi| self.ones_of_word(wi))
    }

    /// The set indices of word `wi` of the mask, ascending. The word is
    /// read once, so the mask may change while the result is walked.
    fn ones_of_word(&self, wi: usize) -> impl Iterator<Item = u32> {
        BitIter { word: self.bits[wi], base: wi as u64 * 64 }.map(|p| p as u32)
    }
}

impl fmt::Display for SetBitmask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SetBitmask[{}/{}]", self.count(), self.num_sets)
    }
}

/// A run of cache-index bits that sit next to each other, in order, inside
/// one C-field: `((v >> pos) & mask) << out` moves them into place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BitRun {
    pos: u32,
    mask: u32,
    out: u32,
}

/// The index bits one C-field holds.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FieldGather {
    field: usize,
    /// The index bits this field supplies, as a mask over set indices.
    out_mask: u32,
    runs: Vec<BitRun>,
}

impl FieldGather {
    /// The partial set index encoded in C-field value `v`.
    #[inline]
    fn gather(&self, v: u32) -> u32 {
        self.runs.iter().fold(0, |acc, r| acc | ((v >> r.pos) & r.mask) << r.out)
    }
}

/// Where δ finds each cache-index bit inside a signature. A function of
/// the configuration and the cache geometry only, so it is computed once
/// (see `SignatureConfig::with_decode_plan`) and every decode is one pass
/// over the set bits of the fields that hold index bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DecodePlan {
    /// The geometry the plan was made for.
    pub(crate) geom: CacheGeometry,
    /// `geom.num_sets()`, which is a division.
    num_sets: u32,
    /// The C-fields holding index bits, by their lowest index bit.
    fields: Vec<FieldGather>,
    /// Index bits no C-field covers (both values are possible), as a mask
    /// over set indices.
    unknown: u32,
}

impl DecodePlan {
    /// # Panics
    ///
    /// Panics if the config's line size differs from the cache's.
    pub(crate) fn new(config: &SignatureConfig, geom: &CacheGeometry) -> Self {
        assert_eq!(
            config.line_bytes(),
            geom.line_bytes(),
            "signature and cache disagree on line size"
        );
        let mut fields: Vec<FieldGather> = Vec::new();
        let mut unknown = 0u32;
        for (out, b) in config.index_bit_range(geom).enumerate() {
            let out = out as u32;
            let dest = u32::from(config.permutation().destination_of(b as u8));
            let home = config.chunks().iter().enumerate().find_map(|(i, &c)| {
                let start = config.chunk_start(i);
                (start..start + c).contains(&dest).then_some((i, dest - start))
            });
            let Some((field, pos)) = home else {
                unknown |= 1 << out;
                continue;
            };
            let at = fields.iter().position(|f| f.field == field).unwrap_or_else(|| {
                fields.push(FieldGather { field, out_mask: 0, runs: Vec::new() });
                fields.len() - 1
            });
            let f = &mut fields[at];
            f.out_mask |= 1 << out;
            match f.runs.last_mut() {
                Some(r) if r.pos + r.mask.count_ones() == pos && r.out + r.mask.count_ones() == out => {
                    r.mask = r.mask << 1 | 1;
                }
                _ => f.runs.push(BitRun { pos, mask: 1, out }),
            }
        }
        DecodePlan { geom: *geom, num_sets: geom.num_sets(), fields, unknown }
    }

    /// See [`SignatureConfig::decodes_by_projection`].
    pub(crate) fn is_projection(&self) -> bool {
        self.unknown == 0 && self.fields.len() == 1
    }

    /// δ of `sig` into `out`, without allocating.
    pub(crate) fn decode_into(&self, sig: &Signature, out: &mut SetBitmask) {
        assert_eq!(out.num_sets, self.num_sets, "bitmask size mismatch");
        out.clear();
        if sig.is_empty() {
            return;
        }
        // The first field's partial indices seed the mask; every further
        // field, and every uncovered bit, multiplies it out.
        match self.fields.split_first() {
            Some((first, rest)) => {
                for v in sig.field_values(first.field) {
                    out.set(first.gather(v));
                }
                for f in rest {
                    out.cross(f.out_mask, sig.field_values(f.field).map(|v| f.gather(v)));
                }
            }
            None => out.set(0),
        }
        let mut left = self.unknown;
        while left != 0 {
            let bit = left & left.wrapping_neg();
            out.cross(bit, [0, bit].into_iter());
            left &= left - 1;
        }
    }
}

impl SetBitmask {
    /// Replaces the mask, whose indices are all zero in the bits of
    /// `field`, by its cross product with `contribs` (values inside
    /// `field`): `{p | c}`. Repeated contributions cost one probe each.
    fn cross(&mut self, field: u32, contribs: impl Iterator<Item = u32>) {
        let Some(lowest) = self.iter_ones().next() else { return };
        // The mask as it was on entry: what is added below has `field`
        // bits and is never mistaken for it.
        let old = |mask: &SetBitmask, wi: usize| {
            mask.ones_of_word(wi).filter(move |p| p & field == 0)
        };
        let mut keep_zero = false;
        for c in contribs {
            if c == 0 {
                keep_zero = true;
            } else if !self.get(lowest | c) {
                for wi in 0..self.bits.len() {
                    for p in old(self, wi) {
                        self.set(p | c);
                    }
                }
            }
        }
        if !keep_zero {
            for wi in 0..self.bits.len() {
                for p in old(self, wi) {
                    self.bits[wi] &= !(1 << (p % 64));
                }
            }
        }
    }
}

impl Signature {
    /// The δ operation: the cache-set bitmask of this signature for `geom`.
    ///
    /// Exact when [`SignatureConfig::is_exactly_decodable`] holds for this
    /// config and geometry and one C-field holds the whole set index;
    /// otherwise a conservative superset.
    ///
    /// # Panics
    ///
    /// Panics if the config's line size differs from the cache's.
    pub fn decode_sets(&self, geom: &CacheGeometry) -> SetBitmask {
        self.config().with_decode_plan(geom, |plan| {
            let mut mask = SetBitmask::new(plan.num_sets);
            plan.decode_into(self, &mut mask);
            mask
        })
    }

    /// [`Signature::decode_sets`] into a mask the caller keeps — how a
    /// register holding δ is (re)loaded.
    ///
    /// # Panics
    ///
    /// Panics if the config's line size differs from the cache's, or if
    /// `out` does not cover `geom`'s sets.
    pub fn decode_sets_into(&self, geom: &CacheGeometry, out: &mut SetBitmask) {
        self.config().with_decode_plan(geom, |plan| plan.decode_into(self, out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitPermutation, Granularity};
    use bulk_mem::{Addr, LineAddr};

    #[test]
    fn bitmask_basics() {
        let mut m = SetBitmask::new(128);
        assert!(!m.any());
        m.set(0);
        m.set(127);
        m.set(64);
        assert!(m.get(0) && m.get(64) && m.get(127) && !m.get(1));
        assert_eq!(m.count(), 3);
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![0, 64, 127]);
        m.clear();
        assert!(!m.any());
    }

    #[test]
    fn bitmask_or() {
        let mut a = SetBitmask::new(64);
        a.set(1);
        let mut b = SetBitmask::new(64);
        b.set(2);
        a.or_assign(&b);
        assert!(a.get(1) && a.get(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitmask_bounds() {
        SetBitmask::new(8).set(8);
    }

    #[test]
    fn decode_is_exact_for_paper_tm_default() {
        let geom = CacheGeometry::tm_l1();
        let cfg = crate::SignatureConfig::s14_tm();
        assert!(cfg.is_exactly_decodable(&geom));
        let mut s = Signature::new(cfg);
        let lines = [0u32, 5, 128, 129, 7777, 65535].map(LineAddr::new);
        for &l in &lines {
            s.insert_line(l);
        }
        let mask = s.decode_sets(&geom);
        let mut expected: Vec<u32> = lines.iter().map(|&l| geom.set_of_line(l)).collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn decode_is_exact_for_paper_tls_default() {
        let geom = CacheGeometry::tls_l1();
        let cfg = crate::SignatureConfig::s14_tls();
        assert!(cfg.is_exactly_decodable(&geom));
        let mut s = Signature::new(cfg);
        let addrs = [0u32, 0x40, 0x44, 0x1000, 0xfff0, 0xdead_bee0].map(Addr::new);
        for &a in &addrs {
            s.insert_addr(a);
        }
        let mask = s.decode_sets(&geom);
        let mut expected: Vec<u32> =
            addrs.iter().map(|&a| geom.set_of_word(a.word())).collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn decode_of_empty_signature_is_empty() {
        let s = Signature::new(crate::SignatureConfig::s14_tm());
        assert!(!s.decode_sets(&CacheGeometry::tm_l1()).any());
    }

    #[test]
    fn decode_with_uncovered_index_bits_is_superset() {
        // One 4-bit chunk over 7 index bits: bits 4..6 are unknown.
        let geom = CacheGeometry::tm_l1();
        let cfg = crate::SignatureConfig::new(
            vec![4],
            BitPermutation::identity(),
            Granularity::Line,
            64,
        );
        assert!(!cfg.is_exactly_decodable(&geom));
        let mut s = Signature::new(cfg);
        let line = LineAddr::new(0b101_0011);
        s.insert_line(line);
        let mask = s.decode_sets(&geom);
        // Must cover the true set...
        assert!(mask.get(geom.set_of_line(line)));
        // ...and exactly the 8 combinations of the 3 unknown bits.
        assert_eq!(mask.count(), 8);
    }

    #[test]
    fn decode_split_index_bits_is_conservative_superset() {
        // Index bits split across two 4-bit chunks (line index bits 0..6).
        let geom = CacheGeometry::tm_l1();
        let cfg = crate::SignatureConfig::new(
            vec![4, 4],
            BitPermutation::identity(),
            Granularity::Line,
            64,
        );
        let mut s = Signature::new(cfg);
        let lines = [LineAddr::new(0b0010_0001), LineAddr::new(0b0101_0010)];
        for &l in &lines {
            s.insert_line(l);
        }
        let mask = s.decode_sets(&geom);
        for &l in &lines {
            assert!(mask.get(geom.set_of_line(l)));
        }
        // Cross products of the two fields: up to 4 combinations.
        assert!(mask.count() <= 4);
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn decode_rejects_mismatched_line_size() {
        let s = Signature::new(crate::SignatureConfig::new(
            vec![8],
            BitPermutation::identity(),
            Granularity::Line,
            32,
        ));
        let _ = s.decode_sets(&CacheGeometry::tm_l1());
    }
}
