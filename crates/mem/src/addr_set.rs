//! A hash set for the simulator's exact address sets.
//!
//! The oracle sets of the TM and TLS machines and the overflow area hold
//! `u32` address newtypes and take an insert on every simulated access.
//! `std`'s default hasher is SipHash under a per-process random key, a
//! defence against keys crafted to collide; these keys come from the
//! program's own trace generators (or a trace file the user chose to
//! replay locally), so the defence buys nothing here and costs most of an
//! insert. The fixed hasher also makes iteration order the same in every
//! process — no simulated result may depend on it either way (DESIGN.md
//! §15).

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashSet` of addresses under [`AddrHasher`]. Build one with
/// `AddrSet::default()` or `collect()`.
pub type AddrSet<T> = HashSet<T, BuildHasherDefault<AddrHasher>>;

/// Multiply-rotate hasher for small integer keys: each word is folded in
/// with a multiplication by an odd constant, which mixes every input bit
/// into the high half, and `finish` rotates that half down to where the
/// table takes its bucket index.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHasher(u64);

/// 2^64 / φ, odd.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for AddrHasher {
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(MULTIPLIER);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LineAddr;
    use std::hash::BuildHasher;

    /// Line addresses arrive dense or at a power-of-two stride; either
    /// way the bucket index (low bits) and the control tag (top seven
    /// bits) must both spread.
    #[test]
    fn dense_and_strided_keys_spread_in_both_ends_of_the_hash() {
        let build = BuildHasherDefault::<AddrHasher>::default();
        for stride in [1u32, 16, 128, 4096] {
            let hashes: Vec<u64> =
                (0..1024u32).map(|i| build.hash_one(LineAddr::new(i * stride))).collect();
            let buckets: HashSet<u64> = hashes.iter().map(|h| h & 1023).collect();
            let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            // 1024 balls into 1024 bins leave about 1 - 1/e of them occupied.
            assert!(buckets.len() > 520, "stride {stride}: {} buckets", buckets.len());
            assert_eq!(tags.len(), 128, "stride {stride}");
        }
    }

    #[test]
    fn iteration_order_is_a_function_of_the_insertions() {
        let build = || (0..500u32).map(|i| LineAddr::new(i * 37)).collect::<AddrSet<_>>();
        assert!(build().into_iter().eq(build()));
    }
}
