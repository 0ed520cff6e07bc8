//! The Set Restriction (paper §4.3, §4.5): at any time, all dirty lines in
//! one cache set belong to a single owner — one speculative thread, or the
//! non-speculative state. Together with exact δ decoding this makes bulk
//! invalidation of dirty lines safe despite aliased signatures.

use bulk_mem::{Addr, Cache, LineAddr};
use bulk_sig::SetBitmask;

use crate::{Bdm, VersionId};

/// The BDM controller's decision for a speculative store (paper §4.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreCheck {
    /// The store may proceed. Any listed dirty lines are non-speculative
    /// and must first be written back to memory ("safe writebacks"); they
    /// remain cached clean.
    Proceed {
        /// Non-speculative dirty lines of the target set to write back.
        safe_writebacks: Vec<LineAddr>,
    },
    /// The target set already holds dirty lines of a *different*
    /// speculative version (`δ(W_run)`, `OR(δ(W_pre))` = (0, 1)): a
    /// write-write set conflict. The runtime resolves it by squashing the
    /// more speculative thread, preempting, or merging (paper §4.5).
    ConflictWithPreempted,
}

/// Checks a speculative store by the *running* version `v` against the Set
/// Restriction, using only the BDM's two bitmask registers and the cache
/// set's dirty lines — never any per-line speculative metadata.
///
/// The caller must apply the returned safe writebacks (marking those lines
/// clean and accounting WB bandwidth) before letting the store update the
/// cache, then call [`Bdm::record_store`].
///
/// # Panics
///
/// Panics if `v` is not the BDM's running version.
pub fn check_speculative_store(bdm: &Bdm, v: VersionId, addr: Addr, cache: &Cache) -> StoreCheck {
    assert_eq!(bdm.running(), Some(v), "set-restriction check is for the running version");
    let set = bdm.set_of(addr);
    let run_bit = bdm.delta_w_run().get(set);
    let pre_bit = bdm.or_delta_w_pre().get(set);
    debug_assert!(
        !(run_bit && pre_bit),
        "set {set} owned by both running and preempted versions"
    );
    if pre_bit {
        StoreCheck::ConflictWithPreempted
    } else if run_bit {
        StoreCheck::Proceed { safe_writebacks: Vec::new() }
    } else {
        // (0,0): any dirty lines in the set are non-speculative; they must
        // be written back before the first speculative write to the set.
        StoreCheck::Proceed { safe_writebacks: cache.dirty_lines_in_set(set).collect() }
    }
}

/// Asserts (in tests and debug runs) that the Set Restriction holds for a
/// processor: every dirty line's set is owned by at most one speculative
/// version, and dirty lines in speculative-owned sets pass that owner's
/// write-signature membership test.
pub fn verify_set_restriction(bdm: &Bdm, cache: &Cache) -> Result<(), String> {
    // Only a set in some version's δ(W) has an owner to check.
    let mut owned = SetBitmask::new(bdm.geometry().num_sets());
    for v in bdm.versions_in_use() {
        owned.or_assign(bdm.delta_w(v));
    }
    for set in owned.iter_ones() {
        let mut owners = bdm.versions_in_use().filter(|&v| bdm.delta_w(v).get(set));
        let Some(owner) = owners.next() else { continue };
        let others = owners.count();
        if others > 0 {
            if cache.set_has_dirty(set) {
                return Err(format!("set {set} dirty with {} speculative owners", others + 1));
            }
            continue;
        }
        for line in cache.dirty_lines_in_set(set) {
            if !bdm.write_signature(owner).contains_any_word_of_line(line) {
                return Err(format!(
                    "dirty line {line} in speculative set {set} fails owner membership"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulk_mem::CacheGeometry;
    use bulk_sig::SignatureConfig;

    fn setup() -> (Bdm, Cache) {
        let geom = CacheGeometry::tm_l1();
        (Bdm::new(SignatureConfig::s14_tm(), geom, 2), Cache::new(geom))
    }

    #[test]
    fn first_write_to_clean_set_proceeds_without_writebacks() {
        let (mut bdm, cache) = setup();
        let v = bdm.alloc_version().unwrap();
        bdm.set_running(Some(v));
        match check_speculative_store(&bdm, v, Addr::new(0x40), &cache) {
            StoreCheck::Proceed { safe_writebacks } => assert!(safe_writebacks.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nonspeculative_dirty_lines_must_be_written_back() {
        let (mut bdm, mut cache) = setup();
        let v = bdm.alloc_version().unwrap();
        bdm.set_running(Some(v));
        // A non-speculative dirty line sits in the target set.
        let dirty = Addr::new(0x40).line(64);
        cache.fill_dirty(dirty);
        match check_speculative_store(&bdm, v, Addr::new(0x40), &cache) {
            StoreCheck::Proceed { safe_writebacks } => {
                assert_eq!(safe_writebacks, vec![dirty]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn second_write_to_owned_set_is_free() {
        let (mut bdm, mut cache) = setup();
        let v = bdm.alloc_version().unwrap();
        bdm.set_running(Some(v));
        bdm.record_store(v, Addr::new(0x40));
        cache.fill_dirty(Addr::new(0x40).line(64));
        match check_speculative_store(&bdm, v, Addr::new(0x2040), &cache) {
            StoreCheck::Proceed { safe_writebacks } => assert!(safe_writebacks.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn preempted_owner_conflicts() {
        let (mut bdm, cache) = setup();
        let v0 = bdm.alloc_version().unwrap();
        let v1 = bdm.alloc_version().unwrap();
        bdm.set_running(Some(v0));
        bdm.record_store(v0, Addr::new(0x40));
        // v0 preempted, v1 runs and writes the same set.
        bdm.set_running(Some(v1));
        assert_eq!(
            check_speculative_store(&bdm, v1, Addr::new(0x2040), &cache),
            StoreCheck::ConflictWithPreempted
        );
    }

    #[test]
    fn verifier_accepts_clean_state_and_flags_violation() {
        let (mut bdm, mut cache) = setup();
        let v = bdm.alloc_version().unwrap();
        bdm.set_running(Some(v));
        bdm.record_store(v, Addr::new(0x40));
        cache.fill_dirty(Addr::new(0x40).line(64));
        assert!(verify_set_restriction(&bdm, &cache).is_ok());
        // Sneak an unrelated dirty line into the owned set.
        cache.fill_dirty(Addr::new(0x4040).line(64));
        assert!(verify_set_restriction(&bdm, &cache).is_err());
    }

    #[test]
    fn verifier_flags_two_speculative_owners_of_a_dirty_set() {
        let (mut bdm, mut cache) = setup();
        let v0 = bdm.alloc_version().unwrap();
        let v1 = bdm.alloc_version().unwrap();
        // Both versions wrote set 1 (0x2040 is 0x40 one way over).
        bdm.record_store(v0, Addr::new(0x40));
        bdm.record_store(v1, Addr::new(0x2040));
        assert_eq!(verify_set_restriction(&bdm, &cache), Ok(()), "no dirty line yet");
        cache.fill_dirty(Addr::new(0x40).line(64));
        assert_eq!(
            verify_set_restriction(&bdm, &cache),
            Err("set 1 dirty with 2 speculative owners".to_string())
        );
    }

    #[test]
    fn verifier_checks_sets_in_the_second_mask_word() {
        let (mut bdm, mut cache) = setup();
        let v = bdm.alloc_version().unwrap();
        let owned = Addr::new(100 * 64);
        assert_eq!(bdm.set_of(owned), 100);
        bdm.record_store(v, owned);
        cache.fill_dirty(owned.line(64));
        assert_eq!(verify_set_restriction(&bdm, &cache), Ok(()));
        let alien = Addr::new(100 * 64 + 0x2000).line(64);
        cache.fill_dirty(alien);
        assert_eq!(
            verify_set_restriction(&bdm, &cache),
            Err(format!("dirty line {alien} in speculative set 100 fails owner membership"))
        );
    }

    #[test]
    fn verifier_passes_nonspeculative_dirty_lines_in_unowned_sets() {
        let (mut bdm, mut cache) = setup();
        let v = bdm.alloc_version().unwrap();
        bdm.record_store(v, Addr::new(0x40));
        cache.fill_dirty(Addr::new(0x40).line(64));
        // Sets 5 and 70 have no speculative owner: their dirty lines are
        // non-speculative and nobody's signature need contain them.
        cache.fill_dirty(Addr::new(5 * 64).line(64));
        cache.fill_dirty(Addr::new(70 * 64).line(64));
        assert_eq!(verify_set_restriction(&bdm, &cache), Ok(()));
    }
}
