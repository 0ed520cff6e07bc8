//! The squash and commit flows of the paper's Fig. 5, operating on a
//! processor's BDM and its (unmodified) cache via bulk invalidation.

use bulk_mem::{Cache, LineAddr, LineState};
use bulk_obs::ExpansionObs;
use bulk_sig::{Granularity, SetBitmask, Signature};

use crate::{Bdm, VersionId};

/// Lines invalidated while squashing a thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SquashInvalidation {
    /// Speculative dirty lines discarded via `W`'s bulk invalidation.
    pub dirty_invalidated: Vec<LineAddr>,
    /// Clean lines discarded via `R`'s bulk invalidation (TLS only, §6.3:
    /// they may hold incorrect data read from a squashed predecessor).
    pub read_invalidated: Vec<LineAddr>,
}

/// Squashes version `v`: bulk-invalidates its dirty lines using `W_v`
/// (safe because of exact δ and the Set Restriction), optionally
/// bulk-invalidates the lines it read using `R_v` (the TLS extension),
/// then clears the signatures (Fig. 5(b), left branch).
pub fn squash(
    bdm: &mut Bdm,
    v: VersionId,
    cache: &mut Cache,
    invalidate_read_lines: bool,
) -> SquashInvalidation {
    squash_observed(bdm, v, cache, invalidate_read_lines, None)
}

/// [`squash`] with optional instrumentation of its signature expansions.
pub fn squash_observed(
    bdm: &mut Bdm,
    v: VersionId,
    cache: &mut Cache,
    invalidate_read_lines: bool,
    obs: Option<&ExpansionObs>,
) -> SquashInvalidation {
    let mut out = SquashInvalidation::default();
    // The slot already holds δ(W_v): expansion starts at the tag walk.
    bdm.write_signature(v).expand_sets(bdm.delta_w(v), cache, obs, |e| {
        if e.state == LineState::Dirty {
            out.dirty_invalidated.push(e.addr);
        }
    });
    for &line in &out.dirty_invalidated {
        cache.invalidate(line);
    }
    if invalidate_read_lines {
        for e in bdm.read_signature(v).expand_observed(cache, obs) {
            if e.state == LineState::Clean {
                cache.invalidate(e.addr);
                out.read_invalidated.push(e.addr);
            }
        }
    }
    bdm.clear_on_squash(v);
    out
}

/// Cache-side effects of receiving a committing thread's `W_C`
/// (Fig. 5(b), right box), after the squash decision was *negative*.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommitApplication {
    /// Clean lines invalidated (truly written by the committer, or aliased
    /// — the runtime separates the two against its exact oracle).
    pub invalidated: Vec<LineAddr>,
    /// Dirty lines merged word-by-word with the committed version
    /// (word-granularity signatures only, §4.4). Each entry carries the
    /// conservative local word mask used.
    pub merged: Vec<(LineAddr, bulk_sig::WordBitmask)>,
    /// Dirty lines that passed the membership test but were left alone:
    /// non-speculative dirty aliases (§4.3).
    pub skipped_dirty: Vec<LineAddr>,
}

/// Applies a remote commit's write signature to this processor's cache:
/// bulk invalidation of the lines in `W_C` (§4.3), with the fine-grain
/// merge extension (§4.4) when signatures encode word addresses and a
/// local speculative version also wrote the line's set.
///
/// None of the BDM's versions may have been squashed *by this commit* —
/// callers decide squashes first via [`Bdm::disambiguate`]. The set's
/// speculative owner (unique, by the Set Restriction) is found through the
/// versions' `δ(W)` registers, as in the hardware.
pub fn apply_remote_commit(
    bdm: &Bdm,
    w_c: &Signature,
    cache: &mut Cache,
) -> CommitApplication {
    apply_remote_commit_observed(bdm, w_c, &w_c.decode_sets(&bdm.geometry()), cache, None)
}

/// [`apply_remote_commit`] for one of the many receivers of a broadcast:
/// `delta_w_c` is `δ(W_C)`, decoded once by whoever delivers `w_c`; `obs`
/// optionally instruments the expansion.
pub fn apply_remote_commit_observed(
    bdm: &Bdm,
    w_c: &Signature,
    delta_w_c: &SetBitmask,
    cache: &mut Cache,
    obs: Option<&ExpansionObs>,
) -> CommitApplication {
    let mut out = CommitApplication::default();
    let fine_grain = bdm.config().granularity() == Granularity::Word;
    w_c.expand_sets(delta_w_c, cache, obs, |e| match e.state {
        LineState::Clean => out.invalidated.push(e.addr),
        LineState::Dirty => {
            let set = bdm.geometry().set_of_line(e.addr);
            match bdm.speculative_owner_of_set(set) {
                Some(v) if fine_grain => {
                    // Both the committer and the local version updated
                    // this line: merge. The conservative local word
                    // mask comes from the Updated Word Bitmask unit on
                    // the owner's W; the runtime models the line
                    // refetch (Fill) and keeps the merged line dirty.
                    let mask = bdm.write_signature(v).updated_word_bitmask(e.addr);
                    out.merged.push((e.addr, mask));
                }
                _ => {
                    // Dirty non-speculative alias: no action (§4.3).
                    out.skipped_dirty.push(e.addr);
                }
            }
        }
    });
    for &line in &out.invalidated {
        cache.invalidate(line);
    }
    out
}

/// Bulk-invalidates the *clean* cached lines whose addresses are in `sig`.
/// Used by Partial Overlap at spawn time (§6.3): the child's processor
/// drops stale copies of everything the parent has modified so far, so the
/// child will miss and fetch the parent's versions.
pub fn invalidate_clean_matching(sig: &Signature, cache: &mut Cache) -> Vec<LineAddr> {
    let mut out = Vec::new();
    for e in sig.expand(cache) {
        if e.state == LineState::Clean {
            cache.invalidate(e.addr);
            out.push(e.addr);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulk_mem::{Addr, CacheGeometry};
    use bulk_sig::SignatureConfig;

    fn tm_setup() -> (Bdm, Cache) {
        let geom = CacheGeometry::tm_l1();
        (Bdm::new(SignatureConfig::s14_tm(), geom, 2), Cache::new(geom))
    }

    fn tls_setup() -> (Bdm, Cache) {
        let geom = CacheGeometry::tls_l1();
        (Bdm::new(SignatureConfig::s14_tls(), geom, 2), Cache::new(geom))
    }

    #[test]
    fn squash_discards_dirty_lines_only() {
        let (mut bdm, mut cache) = tm_setup();
        let v = bdm.alloc_version().unwrap();
        bdm.set_running(Some(v));
        let wr = Addr::new(0x40);
        let rd = Addr::new(0x80);
        bdm.record_store(v, wr);
        bdm.record_load(v, rd);
        cache.fill_dirty(wr.line(64));
        cache.fill_clean(rd.line(64));
        let s = squash(&mut bdm, v, &mut cache, false);
        assert_eq!(s.dirty_invalidated, vec![wr.line(64)]);
        assert!(s.read_invalidated.is_empty());
        assert!(!cache.contains(wr.line(64)));
        assert!(cache.contains(rd.line(64)));
        assert!(bdm.write_signature(v).is_empty());
    }

    #[test]
    fn tls_squash_also_discards_read_lines() {
        let (mut bdm, mut cache) = tls_setup();
        let v = bdm.alloc_version().unwrap();
        bdm.set_running(Some(v));
        let rd = Addr::new(0x80);
        bdm.record_load(v, rd);
        cache.fill_clean(rd.line(64));
        let s = squash(&mut bdm, v, &mut cache, true);
        assert_eq!(s.read_invalidated, vec![rd.line(64)]);
        assert!(!cache.contains(rd.line(64)));
    }

    #[test]
    fn squash_spares_other_threads_dirty_lines() {
        // A dirty line of another version, in a set v never wrote, must
        // survive v's squash even if doubly unlucky aliasing occurs — here
        // we simply check the normal no-alias case.
        let (mut bdm, mut cache) = tm_setup();
        let v0 = bdm.alloc_version().unwrap();
        let v1 = bdm.alloc_version().unwrap();
        bdm.set_running(Some(v0));
        let mine = Addr::new(0x40);
        let theirs = Addr::new(0x80);
        bdm.record_store(v0, mine);
        cache.fill_dirty(mine.line(64));
        bdm.record_store(v1, theirs);
        cache.fill_dirty(theirs.line(64));
        squash(&mut bdm, v0, &mut cache, false);
        assert!(cache.contains(theirs.line(64)));
    }

    #[test]
    fn remote_commit_invalidates_clean_copies() {
        let (bdm, mut cache) = tm_setup();
        let committed = Addr::new(0x140);
        cache.fill_clean(committed.line(64));
        let mut w_c = Signature::with_shared(bdm.config().clone());
        w_c.insert_addr(committed);
        let app = apply_remote_commit(&bdm, &w_c, &mut cache);
        assert_eq!(app.invalidated, vec![committed.line(64)]);
        assert!(!cache.contains(committed.line(64)));
    }

    #[test]
    fn remote_commit_skips_nonspeculative_dirty_alias() {
        let (bdm, mut cache) = tm_setup();
        let line = Addr::new(0x140).line(64);
        cache.fill_dirty(line); // non-speculative dirty
        let mut w_c = Signature::with_shared(bdm.config().clone());
        w_c.insert_line(line); // aliasing made it appear in W_C
        let app = apply_remote_commit(&bdm, &w_c, &mut cache);
        assert_eq!(app.skipped_dirty, vec![line]);
        assert!(cache.contains(line));
        assert_eq!(cache.state_of(line), Some(LineState::Dirty));
    }

    #[test]
    fn fine_grain_commit_merges_partially_updated_line() {
        let (mut bdm, mut cache) = tls_setup();
        let v = bdm.alloc_version().unwrap();
        bdm.set_running(Some(v));
        let line = LineAddr::new(0x100);
        // Local thread wrote word 2 of the line.
        let local_word = line.word(64, 2).to_addr();
        bdm.record_store(v, local_word);
        cache.fill_dirty(line);
        // Committer wrote word 9 of the same line.
        let mut w_c = Signature::with_shared(bdm.config().clone());
        w_c.insert_addr(line.word(64, 9).to_addr());
        // No violation: different words.
        assert!(!bdm.disambiguate(v, &w_c).squash());
        let app = apply_remote_commit(&bdm, &w_c, &mut cache);
        assert_eq!(app.merged.len(), 1);
        let (merged_line, mask) = app.merged[0];
        assert_eq!(merged_line, line);
        assert!(mask.contains(2));
        assert!(!mask.contains(9), "mask may not claim the committer's word");
        assert!(cache.contains(line), "merged line stays resident");
    }

    #[test]
    fn spawn_invalidation_drops_clean_parent_lines() {
        let (bdm, mut cache) = tls_setup();
        let a = Addr::new(0x400);
        let b = Addr::new(0x800);
        cache.fill_clean(a.line(64));
        cache.fill_dirty(b.line(64));
        let mut w = Signature::with_shared(bdm.config().clone());
        w.insert_addr(a);
        w.insert_addr(b);
        let inv = invalidate_clean_matching(&w, &mut cache);
        assert_eq!(inv, vec![a.line(64)]);
        assert!(!cache.contains(a.line(64)));
        assert!(cache.contains(b.line(64)));
    }
}
