//! The Bulk Disambiguation Module (BDM) of the paper's Fig. 7.
//!
//! The BDM sits between a processor and its (completely conventional) L1
//! cache. It holds, per supported speculative *version*: a read signature
//! `R`, a write signature `W`, an optional shadow write signature `W_sh`
//! (TLS Partial Overlap, §6.3) and an overflow bit `O` (§6.2.2). It also
//! holds two cache-set bitmask registers: `δ(W_run)` for the version
//! currently executing, and `OR(δ(W_pre))` for all preempted versions —
//! used to identify speculative dirty lines and to enforce the Set
//! Restriction without touching the cache (§4.5).
//!
//! δ is a register here as in the hardware: every slot keeps `δ(W_v)` next
//! to `W_v` and moves it with each store, so nothing downstream — the two
//! registers above, squash expansion, the receiver's owner lookup, the
//! auditor — decodes a write signature again (DESIGN.md §17).

use std::sync::Arc;

use bulk_mem::{Addr, CacheGeometry};
use bulk_sig::{ConfigMismatch, SetBitmask, Signature, SignatureConfig};

/// Identifies one of the BDM's version slots (one speculative thread or
/// checkpoint whose state lives in this processor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VersionId(pub(crate) usize);

impl VersionId {
    /// The slot index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Outcome of bulk address disambiguation (paper Eq. 1) at a receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Disambiguation {
    /// `W_C ∩ R_R ≠ ∅`: a potential read-after-write violation.
    pub conflicts_read: bool,
    /// `W_C ∩ W_R ≠ ∅`: a potential write-after-write violation.
    pub conflicts_write: bool,
}

impl Disambiguation {
    /// Whether the receiver must be squashed.
    pub fn squash(self) -> bool {
        self.conflicts_read || self.conflicts_write
    }
}

#[derive(Debug, Clone)]
struct Slot {
    r: Signature,
    w: Signature,
    /// Shadow write signature, accumulated from first-child spawn (§6.3).
    w_sh: Option<Signature>,
    /// `δ(w)`, kept equal to a fresh decode of `w` by every method that
    /// changes `w`.
    delta_w: SetBitmask,
    overflowed: bool,
    in_use: bool,
}

impl Slot {
    fn clear(&mut self) {
        self.r.clear();
        self.w.clear();
        self.w_sh = None;
        self.delta_w.clear();
        self.overflowed = false;
    }

    /// The invariant on `delta_w`, for debug builds to check.
    fn delta_is_current(&self, geom: &CacheGeometry) -> bool {
        self.delta_w == self.w.decode_sets(geom)
    }
}

/// The Bulk Disambiguation Module. See module docs.
///
/// ```
/// use bulk_core::Bdm;
/// use bulk_sig::SignatureConfig;
/// use bulk_mem::{Addr, CacheGeometry};
///
/// let mut bdm = Bdm::new(SignatureConfig::s14_tm(), CacheGeometry::tm_l1(), 4);
/// let v = bdm.alloc_version().unwrap();
/// bdm.record_store(v, Addr::new(0x40));
/// assert!(bdm.write_signature(v).contains_addr(Addr::new(0x40)));
/// ```
#[derive(Debug, Clone)]
pub struct Bdm {
    config: Arc<SignatureConfig>,
    geom: CacheGeometry,
    slots: Vec<Slot>,
    running: Option<VersionId>,
    delta_w_run: SetBitmask,
    or_delta_w_pre: SetBitmask,
    /// Whether one C-field holds the whole set index, so that a store adds
    /// exactly its own set to `δ(W)`
    /// ([`SignatureConfig::decodes_by_projection`]). The paper's
    /// configurations do; for the others a store re-decodes the slot.
    delta_by_projection: bool,
}

impl Bdm {
    /// Creates a BDM supporting `num_versions` simultaneous speculative
    /// versions.
    ///
    /// # Panics
    ///
    /// Panics if `num_versions` is zero, or if the signature configuration
    /// is not exactly δ-decodable for this cache geometry — the paper's
    /// §4.3 correctness argument for bulk invalidation requires exact
    /// decoding.
    pub fn new(config: SignatureConfig, geom: CacheGeometry, num_versions: usize) -> Self {
        Self::new_shared(config.into_shared(), geom, num_versions)
    }

    /// [`Bdm::new`] over an already-shared configuration handle.
    ///
    /// The machines pass the same `Arc` they hand to their section stacks,
    /// so every signature in the system shares one pointer-identical
    /// config — binary ops stay on the pointer-equality compatibility fast
    /// path and drop/recreate cycles stay inside the signature pool,
    /// instead of deep-comparing layouts and re-allocating per operation.
    ///
    /// # Panics
    ///
    /// Panics if `num_versions` is zero, or if the signature configuration
    /// is not exactly δ-decodable for this cache geometry — the paper's
    /// §4.3 correctness argument for bulk invalidation requires exact
    /// decoding.
    pub fn new_shared(
        config: Arc<SignatureConfig>,
        geom: CacheGeometry,
        num_versions: usize,
    ) -> Self {
        assert!(num_versions > 0, "at least one version slot is required");
        assert!(
            config.is_exactly_decodable(&geom),
            "signature configuration must be exactly δ-decodable for the cache geometry"
        );
        assert_eq!(config.line_bytes(), geom.line_bytes());
        let slots = (0..num_versions)
            .map(|_| Slot {
                r: Signature::with_shared(config.clone()),
                w: Signature::with_shared(config.clone()),
                w_sh: None,
                delta_w: SetBitmask::new(geom.num_sets()),
                overflowed: false,
                in_use: false,
            })
            .collect();
        Bdm {
            delta_by_projection: config.decodes_by_projection(&geom),
            config,
            geom,
            slots,
            running: None,
            delta_w_run: SetBitmask::new(geom.num_sets()),
            or_delta_w_pre: SetBitmask::new(geom.num_sets()),
        }
    }

    /// The shared signature configuration.
    pub fn config(&self) -> &Arc<SignatureConfig> {
        &self.config
    }

    /// The cache geometry the BDM fronts.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Number of version slots.
    pub fn num_versions(&self) -> usize {
        self.slots.len()
    }

    /// Allocates a free version slot, or `None` if all are in use (the
    /// runtime must then spill a version's signatures to memory, §6.2.2).
    pub fn alloc_version(&mut self) -> Option<VersionId> {
        let i = self.slots.iter().position(|s| !s.in_use)?;
        self.slots[i].in_use = true;
        self.slots[i].clear();
        Some(VersionId(i))
    }

    /// Releases a version slot, clearing its signatures.
    pub fn free_version(&mut self, v: VersionId) {
        self.slot_mut(v).in_use = false;
        self.slots[v.0].clear();
        if self.running == Some(v) {
            self.running = None;
        }
        self.rebuild_registers();
    }

    /// Version slots currently in use.
    pub fn versions_in_use(&self) -> impl Iterator<Item = VersionId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.in_use)
            .map(|(i, _)| VersionId(i))
    }

    fn slot(&self, v: VersionId) -> &Slot {
        let s = &self.slots[v.0];
        assert!(s.in_use, "version {v:?} is not allocated");
        s
    }

    fn slot_mut(&mut self, v: VersionId) -> &mut Slot {
        let s = &mut self.slots[v.0];
        assert!(s.in_use, "version {v:?} is not allocated");
        s
    }

    /// Marks `v` as the version running on the CPU, updating the
    /// `δ(W_run)` / `OR(δ(W_pre))` registers — the paper updates the
    /// latter at every context switch (§4.5).
    pub fn set_running(&mut self, v: Option<VersionId>) {
        if let Some(v) = v {
            assert!(self.slots[v.0].in_use, "cannot run unallocated version");
        }
        self.running = v;
        self.rebuild_registers();
    }

    /// The currently running version, if any.
    pub fn running(&self) -> Option<VersionId> {
        self.running
    }

    fn rebuild_registers(&mut self) {
        self.delta_w_run.clear();
        self.or_delta_w_pre.clear();
        for (i, s) in self.slots.iter().enumerate() {
            if !s.in_use {
                continue;
            }
            debug_assert!(s.delta_is_current(&self.geom), "slot {i}: stale δ(W)");
            if Some(VersionId(i)) == self.running {
                self.delta_w_run.or_assign(&s.delta_w);
            } else {
                self.or_delta_w_pre.or_assign(&s.delta_w);
            }
        }
    }

    /// Records a speculative load into `v`'s read signature.
    pub fn record_load(&mut self, v: VersionId, addr: Addr) {
        self.slot_mut(v).r.insert_addr(addr);
    }

    /// Records a speculative store into `v`'s write signature (and the
    /// shadow signature if one is active), updating `δ(W_v)`, and `δ(W_run)`
    /// when `v` is the running version.
    pub fn record_store(&mut self, v: VersionId, addr: Addr) {
        let set = self.set_of(addr);
        let (geom, by_projection) = (self.geom, self.delta_by_projection);
        {
            let slot = self.slot_mut(v);
            slot.w.insert_addr(addr);
            if let Some(sh) = &mut slot.w_sh {
                sh.insert_addr(addr);
            }
            if by_projection {
                slot.delta_w.set(set);
            } else {
                slot.w.decode_sets_into(&geom, &mut slot.delta_w);
            }
        }
        if self.running == Some(v) {
            self.delta_w_run.set(set);
        } else {
            self.or_delta_w_pre.set(set);
        }
    }

    /// The cache set `addr` maps to.
    pub fn set_of(&self, addr: Addr) -> u32 {
        self.geom.set_of_line(addr.line(self.geom.line_bytes()))
    }

    /// `v`'s read signature.
    pub fn read_signature(&self, v: VersionId) -> &Signature {
        &self.slot(v).r
    }

    /// `v`'s write signature.
    pub fn write_signature(&self, v: VersionId) -> &Signature {
        &self.slot(v).w
    }

    /// `v`'s shadow write signature, if Partial Overlap tracking started.
    pub fn shadow_signature(&self, v: VersionId) -> Option<&Signature> {
        self.slot(v).w_sh.as_ref()
    }

    /// Starts the shadow write signature for `v` — called at the point `v`
    /// spawns its first child (paper Fig. 9). Returns a snapshot of `v`'s
    /// current `W`, which the spawn message carries to the child's
    /// processor for bulk invalidation of stale clean lines.
    pub fn begin_shadow(&mut self, v: VersionId) -> Signature {
        let config = self.config.clone();
        let slot = self.slot_mut(v);
        slot.w_sh = Some(Signature::with_shared(config));
        slot.w.clone()
    }

    /// Bulk address disambiguation (paper §4.2, Eq. 1) of a committing
    /// thread's write signature against `v`'s signatures.
    pub fn disambiguate(&self, v: VersionId, w_c: &Signature) -> Disambiguation {
        let slot = self.slot(v);
        Disambiguation {
            conflicts_read: w_c.intersects(&slot.r),
            conflicts_write: w_c.intersects(&slot.w),
        }
    }

    /// Non-panicking [`Bdm::disambiguate`] for a `w_c` that arrived over a
    /// wire and may have been built under a different configuration than
    /// this BDM's — a malformed commit must be an error, not a panic.
    ///
    /// # Errors
    ///
    /// [`ConfigMismatch`] when `w_c`'s configuration differs from the BDM's.
    pub fn try_disambiguate(
        &self,
        v: VersionId,
        w_c: &Signature,
    ) -> Result<Disambiguation, ConfigMismatch> {
        let slot = self.slot(v);
        Ok(Disambiguation {
            conflicts_read: w_c.try_intersects(&slot.r)?,
            conflicts_write: w_c.try_intersects(&slot.w)?,
        })
    }

    /// Disambiguation of a single-address invalidation from a
    /// non-speculative thread (paper §4.2): membership of `addr` in `R ∪ W`.
    pub fn disambiguate_addr(&self, v: VersionId, addr: Addr) -> bool {
        let slot = self.slot(v);
        slot.r.contains_addr(addr) || slot.w.contains_addr(addr)
    }

    /// Whether an external request to cache set `set` must be nacked
    /// because dirty lines there belong to a speculative version (§4.5).
    pub fn holds_speculative_dirty_set(&self, set: u32) -> bool {
        self.delta_w_run.get(set) || self.or_delta_w_pre.get(set)
    }

    /// The `δ(W_run)` register.
    pub fn delta_w_run(&self) -> &SetBitmask {
        &self.delta_w_run
    }

    /// The `OR(δ(W_pre))` register.
    pub fn or_delta_w_pre(&self) -> &SetBitmask {
        &self.or_delta_w_pre
    }

    /// Marks `v` as having overflowed speculative dirty lines to memory.
    pub fn note_overflow(&mut self, v: VersionId) {
        self.slot_mut(v).overflowed = true;
    }

    /// `v`'s overflow bit.
    pub fn has_overflowed(&self, v: VersionId) -> bool {
        self.slot(v).overflowed
    }

    /// Whether a miss on `addr` by `v` needs to consult the overflow area
    /// (paper §6.2.2): only if the overflow bit is set *and* the membership
    /// test `addr ∈ W` passes.
    pub fn must_check_overflow(&self, v: VersionId, addr: Addr) -> bool {
        let slot = self.slot(v);
        slot.overflowed && slot.w.contains_addr(addr)
    }

    /// Commits `v`: takes its write signature (and shadow signature, if
    /// any) for broadcast and clears the slot — the paper's
    /// clear-a-register commit (§5.1). The slot stays allocated; pair it
    /// with [`Bdm::free_version`] when the thread is done.
    pub fn commit(&mut self, v: VersionId) -> CommitSignatures {
        let slot = self.slot_mut(v);
        let w = slot.w.clone();
        let w_sh = slot.w_sh.clone();
        slot.clear();
        self.rebuild_registers();
        CommitSignatures { w, w_sh }
    }

    /// Clears `v`'s signatures without copying them out — the commit
    /// cleanup when the broadcast copy was already taken (a clone of
    /// [`Bdm::write_signature`]), sparing the one [`Bdm::commit`] would make.
    pub fn clear_version(&mut self, v: VersionId) {
        self.slot_mut(v).clear();
        self.rebuild_registers();
    }

    /// Clears `v`'s signatures on squash (cache-side invalidation is done
    /// by [`crate::flows`]).
    pub fn clear_on_squash(&mut self, v: VersionId) {
        self.clear_version(v);
    }

    /// Spills `v`'s signatures for an out-of-slots context switch
    /// (§6.2.2): returns them for safekeeping in memory and frees the slot.
    pub fn spill_version(&mut self, v: VersionId) -> SpilledVersion {
        let slot = self.slot(v).clone();
        self.free_version(v);
        SpilledVersion { r: slot.r, w: slot.w, w_sh: slot.w_sh, overflowed: slot.overflowed }
    }

    /// Reloads a previously spilled version into a free slot.
    ///
    /// Returns `None` (and gives the spill back) if no slot is free.
    pub fn reload_version(&mut self, spilled: SpilledVersion) -> Result<VersionId, SpilledVersion> {
        match self.alloc_version() {
            Some(v) => {
                let geom = self.geom;
                let slot = self.slot_mut(v);
                slot.r = spilled.r;
                slot.w = spilled.w;
                slot.w_sh = spilled.w_sh;
                slot.w.decode_sets_into(&geom, &mut slot.delta_w);
                slot.overflowed = spilled.overflowed;
                self.rebuild_registers();
                Ok(v)
            }
            None => Err(spilled),
        }
    }

    /// `δ(W_v)`: the cache sets `v` has written, as the slot's register
    /// holds it.
    pub fn delta_w(&self, v: VersionId) -> &SetBitmask {
        &self.slot(v).delta_w
    }

    /// The speculative version whose `δ(W)` holds cache set `set` — the
    /// owner of the set's dirty lines, unique by the Set Restriction.
    pub fn speculative_owner_of_set(&self, set: u32) -> Option<VersionId> {
        self.versions_in_use().find(|&v| self.delta_w(v).get(set))
    }
}

/// Signatures broadcast by a committing thread: the write signature, plus
/// the shadow signature when Partial Overlap is active (§6.3).
#[derive(Debug, Clone)]
pub struct CommitSignatures {
    /// The full write signature `W`.
    pub w: Signature,
    /// The shadow write signature `W_sh` (writes since first-child spawn).
    pub w_sh: Option<Signature>,
}

/// A version's signatures spilled to memory when the BDM runs out of slots
/// (paper §6.2.2).
#[derive(Debug, Clone)]
pub struct SpilledVersion {
    /// Read signature.
    pub r: Signature,
    /// Write signature.
    pub w: Signature,
    /// Shadow write signature, if Partial Overlap tracking had started.
    pub w_sh: Option<Signature>,
    /// Overflow bit.
    pub overflowed: bool,
}

impl SpilledVersion {
    /// Disambiguates a committing write signature against this spilled
    /// version (performed "in memory" in the paper).
    pub fn disambiguate(&self, w_c: &Signature) -> Disambiguation {
        Disambiguation {
            conflicts_read: w_c.intersects(&self.r),
            conflicts_write: w_c.intersects(&self.w),
        }
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    fn bdm() -> Bdm {
        Bdm::new(SignatureConfig::s14_tm(), CacheGeometry::tm_l1(), 2)
    }

    #[test]
    fn alloc_and_free_slots() {
        let mut b = bdm();
        let v0 = b.alloc_version().unwrap();
        let v1 = b.alloc_version().unwrap();
        assert_ne!(v0, v1);
        assert!(b.alloc_version().is_none());
        b.free_version(v0);
        assert!(b.alloc_version().is_some());
    }

    #[test]
    fn record_and_disambiguate() {
        let mut b = bdm();
        let v = b.alloc_version().unwrap();
        b.record_load(v, Addr::new(0x100));
        b.record_store(v, Addr::new(0x200));

        let mut w_c = Signature::with_shared(b.config().clone());
        w_c.insert_addr(Addr::new(0x100));
        let d = b.disambiguate(v, &w_c);
        assert!(d.conflicts_read && d.squash());

        let mut w_c2 = Signature::with_shared(b.config().clone());
        w_c2.insert_addr(Addr::new(0x200));
        let d2 = b.disambiguate(v, &w_c2);
        assert!(d2.conflicts_write && d2.squash());

        let mut w_c3 = Signature::with_shared(b.config().clone());
        w_c3.insert_addr(Addr::new(0x9000));
        assert!(!b.disambiguate(v, &w_c3).squash());
    }

    #[test]
    fn individual_invalidation_membership() {
        let mut b = bdm();
        let v = b.alloc_version().unwrap();
        b.record_load(v, Addr::new(0x100));
        assert!(b.disambiguate_addr(v, Addr::new(0x100)));
        assert!(!b.disambiguate_addr(v, Addr::new(0x5000)));
    }

    #[test]
    fn registers_track_running_vs_preempted() {
        let mut b = bdm();
        let v0 = b.alloc_version().unwrap();
        let v1 = b.alloc_version().unwrap();
        b.set_running(Some(v0));
        let a0 = Addr::new(0x40); // set 1
        let a1 = Addr::new(0x80); // set 2
        b.record_store(v0, a0);
        b.record_store(v1, a1);
        assert!(b.delta_w_run().get(b.set_of(a0)));
        assert!(!b.delta_w_run().get(b.set_of(a1)));
        assert!(b.or_delta_w_pre().get(b.set_of(a1)));
        // Context switch: v1 now runs.
        b.set_running(Some(v1));
        assert!(b.delta_w_run().get(b.set_of(a1)));
        assert!(b.or_delta_w_pre().get(b.set_of(a0)));
        assert!(b.holds_speculative_dirty_set(b.set_of(a0)));
    }

    #[test]
    fn commit_clears_signatures_and_registers() {
        let mut b = bdm();
        let v = b.alloc_version().unwrap();
        b.set_running(Some(v));
        b.record_store(v, Addr::new(0x40));
        b.record_load(v, Addr::new(0x80));
        let c = b.commit(v);
        assert!(!c.w.is_empty());
        assert!(b.write_signature(v).is_empty());
        assert!(b.read_signature(v).is_empty());
        assert!(!b.delta_w_run().any());
    }

    #[test]
    fn shadow_signature_tracks_post_spawn_writes_only() {
        let mut b = bdm();
        let v = b.alloc_version().unwrap();
        b.record_store(v, Addr::new(0x1000)); // pre-spawn
        let w_at_spawn = b.begin_shadow(v);
        assert!(w_at_spawn.contains_addr(Addr::new(0x1000)));
        b.record_store(v, Addr::new(0x2000)); // post-spawn
        let sh = b.shadow_signature(v).unwrap();
        assert!(sh.contains_addr(Addr::new(0x2000)));
        assert!(!sh.contains_addr(Addr::new(0x1000)));
        // Full W has both.
        assert!(b.write_signature(v).contains_addr(Addr::new(0x1000)));
        assert!(b.write_signature(v).contains_addr(Addr::new(0x2000)));
        let c = b.commit(v);
        assert!(c.w_sh.is_some());
    }

    #[test]
    fn overflow_filtering() {
        let mut b = bdm();
        let v = b.alloc_version().unwrap();
        b.record_store(v, Addr::new(0x300));
        assert!(!b.must_check_overflow(v, Addr::new(0x300)), "no overflow yet");
        b.note_overflow(v);
        assert!(b.has_overflowed(v));
        assert!(b.must_check_overflow(v, Addr::new(0x300)));
        assert!(!b.must_check_overflow(v, Addr::new(0x7000)), "membership filter");
    }

    #[test]
    fn spill_and_reload_round_trip() {
        let mut b = Bdm::new(SignatureConfig::s14_tm(), CacheGeometry::tm_l1(), 1);
        let v = b.alloc_version().unwrap();
        b.record_store(v, Addr::new(0x40));
        b.note_overflow(v);
        let spilled = b.spill_version(v);
        assert!(spilled.w.contains_addr(Addr::new(0x40)));
        assert!(spilled.overflowed);
        // Disambiguation still works against the spilled copy.
        let mut w_c = Signature::with_shared(b.config().clone());
        w_c.insert_addr(Addr::new(0x40));
        assert!(spilled.disambiguate(&w_c).squash());
        // Reload.
        let v2 = b.reload_version(spilled).unwrap();
        assert!(b.write_signature(v2).contains_addr(Addr::new(0x40)));
        assert!(b.has_overflowed(v2));
    }

    #[test]
    fn reload_fails_when_full() {
        let mut b = Bdm::new(SignatureConfig::s14_tm(), CacheGeometry::tm_l1(), 1);
        let v = b.alloc_version().unwrap();
        let spilled = b.spill_version(v);
        let _v2 = b.alloc_version().unwrap();
        assert!(b.reload_version(spilled).is_err());
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn using_freed_version_panics() {
        let mut b = bdm();
        let v = b.alloc_version().unwrap();
        b.free_version(v);
        b.record_load(v, Addr::new(0));
    }

    #[test]
    #[should_panic(expected = "exactly")]
    fn rejects_undecodable_config() {
        // A 4-bit single chunk cannot cover the 7 TM index bits.
        let cfg = SignatureConfig::new(
            vec![4],
            bulk_sig::BitPermutation::identity(),
            bulk_sig::Granularity::Line,
            64,
        );
        Bdm::new(cfg, CacheGeometry::tm_l1(), 1);
    }
}
