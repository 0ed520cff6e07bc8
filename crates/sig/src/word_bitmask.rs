//! The Updated Word Bitmask functional unit and line merge (paper §4.4).
//!
//! With word-granularity signatures, two threads may commit disjoint words
//! of the same line. Bulk merges the committed version of the line with the
//! local updates, using a *conservative* per-word bitmask extracted from the
//! local write signature — conservative because of word-address aliasing,
//! but never including a word the committer wrote (the `W_C ∩ W_R` squash
//! test rules that out). No per-word cache bits are needed.

use bulk_mem::LineAddr;

use crate::{Granularity, Signature};

/// A per-word dirty mask for one cache line; bit *i* covers word *i*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WordBitmask(u64);

impl WordBitmask {
    /// The raw bits.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Whether word `i` is marked.
    pub fn contains(self, i: u32) -> bool {
        self.0 >> i & 1 == 1
    }

    /// Number of marked words.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether no word is marked.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl Signature {
    /// The Updated Word Bitmask unit (paper Fig. 6): a conservative mask of
    /// the words of `line` that this (write) signature may have updated.
    ///
    /// Like the unit, it reads the line's whole word group in one step
    /// from the V-field whose C-field holds the word-offset bits
    /// ([`SignatureConfig::word_offset_field`]). A config whose permutation
    /// scatters those bits is answered by the definition: one membership
    /// test per word.
    ///
    /// [`SignatureConfig::word_offset_field`]: crate::SignatureConfig::word_offset_field
    ///
    /// # Panics
    ///
    /// Panics if the signature is not word-granularity, or the line has
    /// more than 64 words.
    #[inline]
    pub fn updated_word_bitmask(&self, line: LineAddr) -> WordBitmask {
        let cfg = self.config();
        assert_eq!(
            cfg.granularity(),
            Granularity::Word,
            "updated-word bitmask requires a word-granularity signature"
        );
        if let Some(field) = cfg.word_offset_field() {
            return WordBitmask(self.word_group(line, field));
        }
        let words_per_line = cfg.line_bytes() / 4;
        assert!(words_per_line <= 64, "line too wide for a 64-bit word mask");
        let mut bits = 0u64;
        for (i, w) in line.words(cfg.line_bytes()).enumerate() {
            if self.contains_word(w) {
                bits |= 1 << i;
            }
        }
        WordBitmask(bits)
    }
}

/// Merges a just-committed version of a line with local speculative updates
/// (paper Fig. 6): words marked in `local_mask` are taken from `local`,
/// all other words from `committed`.
///
/// # Panics
///
/// Panics if the two slices have different lengths or more than 64 words.
pub fn merge_line(committed: &[u64], local: &[u64], local_mask: WordBitmask) -> Vec<u64> {
    assert_eq!(committed.len(), local.len(), "line width mismatch");
    assert!(committed.len() <= 64);
    committed
        .iter()
        .zip(local)
        .enumerate()
        .map(|(i, (&c, &l))| if local_mask.contains(i as u32) { l } else { c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignatureConfig;

    #[test]
    fn bitmask_marks_written_words() {
        let mut w = Signature::new(SignatureConfig::s14_tls());
        let line = LineAddr::new(500);
        w.insert_word(line.word(64, 2));
        w.insert_word(line.word(64, 9));
        let m = w.updated_word_bitmask(line);
        assert!(m.contains(2) && m.contains(9));
        // Conservative: may contain extra words, never misses written ones.
        assert!(m.count() >= 2);
    }

    #[test]
    fn bitmask_of_untouched_line_with_fresh_signature() {
        let w = Signature::new(SignatureConfig::s14_tls());
        assert!(w.updated_word_bitmask(LineAddr::new(1)).is_empty());
    }

    #[test]
    fn merge_takes_local_words_only_where_masked() {
        let committed: Vec<u64> = (0..16).map(|i| 100 + i).collect();
        let local: Vec<u64> = (0..16).map(|i| 200 + i).collect();
        let mask = WordBitmask(0b101);
        let merged = merge_line(&committed, &local, mask);
        assert_eq!(merged[0], 200);
        assert_eq!(merged[1], 101);
        assert_eq!(merged[2], 202);
        for (i, m) in merged.iter().enumerate().skip(3) {
            assert_eq!(*m, 100 + i as u64);
        }
    }

    #[test]
    fn merge_with_empty_mask_is_committed_version() {
        let committed = vec![1, 2, 3];
        let local = vec![9, 9, 9];
        assert_eq!(merge_line(&committed, &local, WordBitmask::default()), committed);
    }

    #[test]
    fn end_to_end_disjoint_word_merge_never_loses_updates() {
        // Thread R wrote words {1,5}; committer C wrote words {8,12}.
        let line = LineAddr::new(321);
        let mut w_r = Signature::new(SignatureConfig::s14_tls());
        w_r.insert_word(line.word(64, 1));
        w_r.insert_word(line.word(64, 5));

        let base: Vec<u64> = vec![0; 16];
        let mut committed = base.clone();
        committed[8] = 0xC8;
        committed[12] = 0xC12;
        let mut local = base;
        local[1] = 0xA1;
        local[5] = 0xA5;

        let mask = w_r.updated_word_bitmask(line);
        let merged = merge_line(&committed, &local, mask);
        // Local updates preserved.
        assert_eq!(merged[1], 0xA1);
        assert_eq!(merged[5], 0xA5);
        // Committed updates preserved: the mask is conservative but the
        // W_C ∩ W_R test guarantees (in the protocol) no overlap with C's
        // words; here we check the mask did not cover them.
        if !mask.contains(8) {
            assert_eq!(merged[8], 0xC8);
        }
        if !mask.contains(12) {
            assert_eq!(merged[12], 0xC12);
        }
    }

    #[test]
    #[should_panic(expected = "word-granularity")]
    fn line_granularity_signature_rejected() {
        let w = Signature::new(SignatureConfig::s14_tm());
        let _ = w.updated_word_bitmask(LineAddr::new(0));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_rejects_width_mismatch() {
        merge_line(&[0; 16], &[0; 8], WordBitmask::default());
    }
}
