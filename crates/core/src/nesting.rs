//! Closed nested transactions with partial rollback (paper §6.2.1).
//!
//! The transaction-begin/end statements divide a nested transaction into
//! sections; the BDM keeps one (R, W) signature pair per section. An
//! incoming `W_C` is disambiguated against the sections in order; a
//! violation in section *i* rolls back only sections *i..* (partial
//! rollback). At outer commit the broadcast write signature is the union
//! of all the sections' `W`s.

use std::sync::Arc;

use bulk_mem::Addr;
use bulk_sig::{ConfigMismatch, Signature, SignatureConfig};

/// One code section of a nested transaction, with its signature pair.
#[derive(Debug, Clone)]
struct Section {
    r: Signature,
    w: Signature,
}

/// The per-section signature stack of a nested transaction.
///
/// ```
/// use bulk_core::SectionStack;
/// use bulk_sig::{Signature, SignatureConfig};
/// use bulk_mem::Addr;
///
/// let cfg = SignatureConfig::s14_tm().into_shared();
/// let mut tx = SectionStack::new(cfg.clone());
/// tx.begin_section(); // section 1
/// tx.record_store(Addr::new(0x40));
/// tx.begin_section(); // section 2 (inner transaction body)
/// tx.record_store(Addr::new(0x80));
///
/// // A conflicting commit against section 2 only rolls back section 2.
/// let mut w_c = Signature::with_shared(cfg);
/// w_c.insert_addr(Addr::new(0x80));
/// assert_eq!(tx.disambiguate(&w_c), Some(1));
/// let rolled_back = tx.rollback_to(1);
/// assert_eq!(rolled_back, 1);
/// // Section 1 survives; a fresh section 2 is reopened for re-execution.
/// assert_eq!(tx.depth(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SectionStack {
    config: Arc<SignatureConfig>,
    sections: Vec<Section>,
}

impl SectionStack {
    /// Creates an empty stack (no open section).
    pub fn new(config: Arc<SignatureConfig>) -> Self {
        SectionStack { config, sections: Vec::new() }
    }

    /// Opens a new section (at `transaction begin` and `transaction end`
    /// boundaries). Returns its index.
    pub fn begin_section(&mut self) -> usize {
        self.sections.push(Section {
            r: Signature::with_shared(self.config.clone()),
            w: Signature::with_shared(self.config.clone()),
        });
        self.sections.len() - 1
    }

    /// Number of open sections.
    pub fn depth(&self) -> usize {
        self.sections.len()
    }

    /// Whether no section is open.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Records a load in the innermost section.
    ///
    /// # Panics
    ///
    /// Panics if no section is open.
    pub fn record_load(&mut self, addr: Addr) {
        self.sections
            .last_mut()
            .expect("no open section")
            .r
            .insert_addr(addr);
    }

    /// Records a store in the innermost section.
    ///
    /// # Panics
    ///
    /// Panics if no section is open.
    pub fn record_store(&mut self, addr: Addr) {
        self.sections
            .last_mut()
            .expect("no open section")
            .w
            .insert_addr(addr);
    }

    /// Disambiguates `w_c` against the sections **in order** (paper Fig. 8)
    /// and returns the index of the first violated section, if any.
    pub fn disambiguate(&self, w_c: &Signature) -> Option<usize> {
        self.sections
            .iter()
            .position(|s| w_c.intersects(&s.r) || w_c.intersects(&s.w))
    }

    /// Non-panicking [`SectionStack::disambiguate`] for a wire-derived
    /// `w_c` whose configuration may not match this stack's.
    ///
    /// # Errors
    ///
    /// [`ConfigMismatch`] when the configurations differ.
    pub fn try_disambiguate(&self, w_c: &Signature) -> Result<Option<usize>, ConfigMismatch> {
        for (i, s) in self.sections.iter().enumerate() {
            if w_c.try_intersects(&s.r)? || w_c.try_intersects(&s.w)? {
                return Ok(Some(i));
            }
        }
        Ok(None)
    }

    /// Rolls back section `from` and all later ones, returning how many
    /// sections were discarded. Execution restarts at the beginning of
    /// section `from`, so a fresh section is reopened in its place.
    ///
    /// # Panics
    ///
    /// Panics if `from >= depth()`.
    pub fn rollback_to(&mut self, from: usize) -> usize {
        assert!(from < self.sections.len(), "rollback past stack depth");
        let discarded = self.sections.len() - from;
        self.sections.truncate(from);
        self.begin_section();
        discarded
    }

    /// The union of all sections' write signatures — what the outer
    /// transaction broadcasts at commit.
    pub fn commit_union(&self) -> Signature {
        self.write_union(&self.sections)
    }

    /// The union of the write signatures of sections `from..` — the bulk
    /// invalidation set for a partial rollback.
    ///
    /// # Panics
    ///
    /// Panics if `from >= depth()`.
    pub fn write_union_from(&self, from: usize) -> Signature {
        assert!(from < self.sections.len(), "section index past stack depth");
        self.write_union(&self.sections[from..])
    }

    fn write_union(&self, sections: &[Section]) -> Signature {
        let mut w = Signature::with_shared(self.config.clone());
        for s in sections {
            w.union_assign(&s.w);
        }
        w
    }

    /// Clears all sections (outer commit or full squash).
    pub fn clear(&mut self) {
        self.sections.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Arc<SignatureConfig> {
        SignatureConfig::s14_tm().into_shared()
    }

    fn w_of(config: &Arc<SignatureConfig>, addr: u32) -> Signature {
        let mut w = Signature::with_shared(config.clone());
        w.insert_addr(Addr::new(addr));
        w
    }

    #[test]
    fn three_sections_mirror_paper_figure8() {
        let c = cfg();
        let mut tx = SectionStack::new(c.clone());
        tx.begin_section();
        tx.record_store(Addr::new(0x1000)); // W1
        tx.begin_section();
        tx.record_store(Addr::new(0x2000)); // W2
        tx.begin_section();
        tx.record_store(Addr::new(0x3000)); // W3
        assert_eq!(tx.depth(), 3);

        // Violation in section 3 leaves sections 1-2 intact.
        assert_eq!(tx.disambiguate(&w_of(&c, 0x3000)), Some(2));
        tx.rollback_to(2);
        assert_eq!(tx.depth(), 3); // fresh section 3 reopened
        assert!(tx.disambiguate(&w_of(&c, 0x3000)).is_none());
        assert_eq!(tx.disambiguate(&w_of(&c, 0x1000)), Some(0));

        // Outer commit broadcasts W1 ∪ W2 ∪ W3; the rolled-back section's
        // store is gone, so the union is exactly the two surviving inserts
        // (0x3000 may still alias-hit, but its bits are not in the union).
        let u = tx.commit_union();
        assert!(u.contains_addr(Addr::new(0x1000)));
        assert!(u.contains_addr(Addr::new(0x2000)));
        let mut expected = Signature::with_shared(c);
        expected.insert_addr(Addr::new(0x1000));
        expected.insert_addr(Addr::new(0x2000));
        assert_eq!(u, expected);
    }

    #[test]
    fn disambiguate_checks_reads_too() {
        let c = cfg();
        let mut tx = SectionStack::new(c.clone());
        tx.begin_section();
        tx.record_load(Addr::new(0x4000));
        assert_eq!(tx.disambiguate(&w_of(&c, 0x4000)), Some(0));
    }

    #[test]
    fn rollback_of_outermost_discards_everything_but_reopens() {
        let c = cfg();
        let mut tx = SectionStack::new(c);
        tx.begin_section();
        tx.record_store(Addr::new(0x10));
        tx.begin_section();
        assert_eq!(tx.rollback_to(0), 2);
        assert_eq!(tx.depth(), 1);
        assert!(tx.commit_union().is_empty());
    }

    #[test]
    #[should_panic(expected = "no open section")]
    fn recording_without_section_panics() {
        SectionStack::new(cfg()).record_load(Addr::new(0));
    }

    #[test]
    fn write_union_from_covers_only_suffix_sections() {
        let c = cfg();
        let mut tx = SectionStack::new(c);
        tx.begin_section();
        tx.record_store(Addr::new(0x1000));
        tx.begin_section();
        tx.record_store(Addr::new(0x2000));
        tx.begin_section();
        tx.record_store(Addr::new(0x3000));
        let suffix = tx.write_union_from(1);
        assert!(suffix.contains_addr(Addr::new(0x2000)));
        assert!(suffix.contains_addr(Addr::new(0x3000)));
        // Exactly sections 1..: equal to the union built by hand.
        let mut expected = Signature::with_shared(tx.commit_union().config().clone());
        expected.insert_addr(Addr::new(0x2000));
        expected.insert_addr(Addr::new(0x3000));
        assert_eq!(suffix, expected);
    }

    #[test]
    #[should_panic(expected = "past stack depth")]
    fn write_union_from_rejects_out_of_range() {
        let mut tx = SectionStack::new(cfg());
        tx.begin_section();
        let _ = tx.write_union_from(1);
    }

    #[test]
    fn clear_resets() {
        let c = cfg();
        let mut tx = SectionStack::new(c);
        tx.begin_section();
        tx.record_store(Addr::new(0x40));
        tx.clear();
        assert!(tx.is_empty());
    }
}
