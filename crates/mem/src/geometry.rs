//! Cache shape parameters.

use crate::{LineAddr, WordAddr};

/// The shape of a set-associative cache: total size, associativity and line
/// size.
///
/// The two machines of the paper's Table 5 are provided as constructors:
/// [`CacheGeometry::tls_l1`] (16 KB, 4-way, 64 B) and
/// [`CacheGeometry::tm_l1`] (32 KB, 4-way, 64 B).
///
/// ```
/// use bulk_mem::CacheGeometry;
/// let g = CacheGeometry::tm_l1();
/// assert_eq!(g.num_sets(), 128);
/// assert_eq!(g.index_bits(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u32,
    assoc: u32,
    line_bytes: u32,
}

impl CacheGeometry {
    /// Creates a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, not a power of two, if the
    /// associativity exceeds 255 (a set's fill count is a `u8`), or if the
    /// configuration yields zero sets.
    pub fn new(size_bytes: u32, assoc: u32, line_bytes: u32) -> Self {
        assert!(size_bytes.is_power_of_two(), "cache size must be a power of two");
        assert!(assoc.is_power_of_two(), "associativity must be a power of two");
        assert!(assoc <= 255, "associativity must be at most 255");
        assert!(line_bytes.is_power_of_two() && line_bytes >= 4, "line size must be a power of two >= 4");
        assert!(
            assoc.checked_mul(line_bytes).is_some_and(|set_bytes| size_bytes >= set_bytes),
            "cache must hold at least one set"
        );
        CacheGeometry { size_bytes, assoc, line_bytes }
    }

    /// The paper's TLS L1: 16 KB, 4-way, 64-byte lines (Table 5).
    pub fn tls_l1() -> Self {
        CacheGeometry::new(16 * 1024, 4, 64)
    }

    /// The paper's TM L1: 32 KB, 4-way, 64-byte lines (Table 5).
    pub fn tm_l1() -> Self {
        CacheGeometry::new(32 * 1024, 4, 64)
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn size_bytes(&self) -> u32 {
        self.size_bytes
    }

    /// Number of ways per set.
    #[inline]
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Line size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Number of 4-byte words per line.
    #[inline]
    pub fn words_per_line(&self) -> u32 {
        self.line_bytes / 4
    }

    /// Number of cache sets.
    #[inline]
    pub fn num_sets(&self) -> u32 {
        self.size_bytes >> (self.assoc.trailing_zeros() + self.line_bytes.trailing_zeros())
    }

    /// Number of index bits (`log2(num_sets)`).
    #[inline]
    pub fn index_bits(&self) -> u32 {
        self.num_sets().trailing_zeros()
    }

    /// The cache set a line maps to.
    #[inline]
    pub fn set_of_line(&self, line: LineAddr) -> u32 {
        line.raw() & (self.num_sets() - 1)
    }

    /// The cache set a word maps to (the set of its line).
    #[inline]
    pub fn set_of_word(&self, word: WordAddr) -> u32 {
        self.set_of_line(word.line(self.line_bytes))
    }

    /// Bit positions, within a *line* address, that form the set index:
    /// always `0..index_bits()`.
    #[inline]
    pub fn line_index_bit_range(&self) -> std::ops::Range<u32> {
        0..self.index_bits()
    }

    /// Bit positions, within a *word* address, that form the set index:
    /// the index bits sit above the in-line word-offset bits.
    ///
    /// ```
    /// use bulk_mem::CacheGeometry;
    /// // 64-byte lines -> 16 words -> 4 offset bits; 128 sets -> 7 index bits.
    /// assert_eq!(CacheGeometry::tm_l1().word_index_bit_range(), 4..11);
    /// ```
    #[inline]
    pub fn word_index_bit_range(&self) -> std::ops::Range<u32> {
        let off = self.words_per_line().trailing_zeros();
        off..off + self.index_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Addr;

    #[test]
    fn table5_machines() {
        let tls = CacheGeometry::tls_l1();
        assert_eq!(tls.num_sets(), 64);
        assert_eq!(tls.index_bits(), 6);
        assert_eq!(tls.words_per_line(), 16);
        let tm = CacheGeometry::tm_l1();
        assert_eq!(tm.num_sets(), 128);
        assert_eq!(tm.index_bits(), 7);
    }

    #[test]
    fn set_mapping_wraps() {
        let g = CacheGeometry::tm_l1();
        let l0 = LineAddr::new(0);
        let l128 = LineAddr::new(128);
        assert_eq!(g.set_of_line(l0), g.set_of_line(l128));
        assert_ne!(g.set_of_line(l0), g.set_of_line(LineAddr::new(1)));
    }

    #[test]
    fn word_and_line_agree_on_set() {
        let g = CacheGeometry::tls_l1();
        for raw in [0u32, 0x40, 0x7c, 0x1234_5678, 0xffff_ffc0] {
            let a = Addr::new(raw);
            assert_eq!(
                g.set_of_word(a.word()),
                g.set_of_line(a.line(g.line_bytes()))
            );
        }
    }

    #[test]
    fn word_index_bit_range_matches_set_mapping() {
        let g = CacheGeometry::tm_l1();
        let r = g.word_index_bit_range();
        for raw in [0u32, 0x12345678, 0xdeadbeef] {
            let w = Addr::new(raw).word();
            let idx = (w.raw() >> r.start) & ((1 << (r.end - r.start)) - 1);
            assert_eq!(idx, g.set_of_word(w));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_size() {
        CacheGeometry::new(3000, 4, 64);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn rejects_degenerate_shape() {
        CacheGeometry::new(64, 4, 64);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn rejects_set_size_that_overflows() {
        // 128 ways x 2^25-byte lines is 2^32 bytes: `assoc * line_bytes`
        // wraps to 0 in release arithmetic.
        CacheGeometry::new(1 << 31, 128, 1 << 25);
    }

    #[test]
    #[should_panic(expected = "at most 255")]
    fn rejects_assoc_above_u8() {
        CacheGeometry::new(1 << 20, 256, 64);
    }

    #[test]
    fn num_sets_shift_matches_division() {
        let shapes = [(256, 2, 64), (1024, 1, 64), (4096, 8, 64), (1 << 31, 128, 4)];
        for (size, assoc, line) in shapes {
            let g = CacheGeometry::new(size, assoc, line);
            assert_eq!(g.num_sets(), size / (assoc * line));
        }
    }
}
