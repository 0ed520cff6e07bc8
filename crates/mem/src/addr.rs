//! Strongly typed memory addresses.
//!
//! The paper uses a 32-bit byte address space; signatures encode either
//! *line* addresses (26 bits with 64-byte lines, used for TM) or *word*
//! addresses (30 bits, used for TLS) — see Table 5. The newtypes here keep
//! the three interpretations from being confused ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;

/// A byte address in the simulated 32-bit physical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u32);

impl Addr {
    /// Creates a byte address.
    ///
    /// ```
    /// use bulk_mem::Addr;
    /// let a = Addr::new(0x40);
    /// assert_eq!(a.raw(), 0x40);
    /// ```
    #[inline]
    pub const fn new(raw: u32) -> Self {
        Addr(raw)
    }

    /// Returns the raw 32-bit byte address.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the address of the 4-byte word containing this byte.
    ///
    /// ```
    /// use bulk_mem::Addr;
    /// assert_eq!(Addr::new(0x47).word().raw(), 0x11);
    /// ```
    #[inline]
    pub const fn word(self) -> WordAddr {
        WordAddr(self.0 >> 2)
    }

    /// Returns the address of the cache line containing this byte, for lines
    /// of `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `line_bytes` is not a power of two.
    #[inline]
    pub fn line(self, line_bytes: u32) -> LineAddr {
        debug_assert!(line_bytes.is_power_of_two());
        LineAddr(self.0 >> line_bytes.trailing_zeros())
    }
}

impl From<u32> for Addr {
    fn from(raw: u32) -> Self {
        Addr(raw)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// The address of a 4-byte word: a byte address shifted right by 2.
///
/// TLS signatures in the paper encode word addresses so that two tasks
/// writing different words of one line do not conflict (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WordAddr(u32);

impl WordAddr {
    /// Creates a word address from its raw shifted form.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        WordAddr(raw)
    }

    /// Returns the raw (already shifted) word address.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the first byte address of this word.
    #[inline]
    pub const fn to_addr(self) -> Addr {
        Addr(self.0 << 2)
    }

    /// Returns the line containing this word, for lines of `line_bytes`.
    #[inline]
    pub fn line(self, line_bytes: u32) -> LineAddr {
        self.to_addr().line(line_bytes)
    }
}

impl fmt::Display for WordAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W{:#09x}", self.0)
    }
}

/// The address of a cache line: a byte address shifted right by
/// `log2(line_bytes)`.
///
/// TM signatures in the paper encode line addresses (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u32);

impl LineAddr {
    /// Creates a line address from its raw shifted form.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw (already shifted) line address.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the first byte address of this line.
    #[inline]
    pub fn to_addr(self, line_bytes: u32) -> Addr {
        Addr(self.0 << line_bytes.trailing_zeros())
    }

    /// Returns the `i`-th word of this line.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i` is not within the line.
    #[inline]
    pub fn word(self, line_bytes: u32, i: u32) -> WordAddr {
        debug_assert!(i < line_bytes / 4);
        WordAddr((self.0 << (line_bytes.trailing_zeros() - 2)) | i)
    }

    /// Iterates over all words of this line.
    pub fn words(self, line_bytes: u32) -> impl Iterator<Item = WordAddr> {
        (0..line_bytes / 4).map(move |i| self.word(line_bytes, i))
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#09x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_of_addr_strips_low_bits() {
        assert_eq!(Addr::new(0x0).word(), WordAddr::new(0));
        assert_eq!(Addr::new(0x3).word(), WordAddr::new(0));
        assert_eq!(Addr::new(0x4).word(), WordAddr::new(1));
        assert_eq!(Addr::new(0xffff_ffff).word(), WordAddr::new(0x3fff_ffff));
    }

    #[test]
    fn line_of_addr_uses_line_size() {
        assert_eq!(Addr::new(0x7f).line(64), LineAddr::new(1));
        assert_eq!(Addr::new(0x80).line(64), LineAddr::new(2));
        assert_eq!(Addr::new(0x80).line(32), LineAddr::new(4));
    }

    #[test]
    fn line_and_word_round_trip() {
        let a = Addr::new(0xdead_bee0);
        let l = a.line(64);
        assert_eq!(l.to_addr(64).line(64), l);
        let w = a.word();
        assert_eq!(w.to_addr().word(), w);
    }

    #[test]
    fn every_word_of_a_line_maps_back_to_it() {
        let l = LineAddr::new(7);
        for i in 0..16 {
            assert_eq!(l.word(64, i).line(64), l);
        }
    }

    #[test]
    fn words_iterates_whole_line() {
        let l = LineAddr::new(3);
        let ws: Vec<_> = l.words(64).collect();
        assert_eq!(ws.len(), 16);
        assert!(ws.iter().all(|w| w.line(64) == l));
        // All distinct.
        let mut d = ws.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), 16);
    }

    #[test]
    fn display_formats_are_nonempty_and_distinct() {
        let a = Addr::new(0x40);
        assert_eq!(format!("{a}"), "0x00000040");
        assert!(format!("{}", a.word()).starts_with('W'));
        assert!(format!("{}", a.line(64)).starts_with('L'));
    }

    #[test]
    fn addr_from_u32() {
        let a: Addr = 5u32.into();
        assert_eq!(a.raw(), 5);
    }
}
