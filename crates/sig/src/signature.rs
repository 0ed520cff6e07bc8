//! The signature register and the primitive bulk operations of the paper's
//! Table 1: intersection (∩), union (∪), emptiness (= ∅) and membership (∈).

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::Arc;

use bulk_mem::{Addr, LineAddr, WordAddr};

use crate::config::LANES;
use crate::{Granularity, SignatureConfig};

/// One 32-byte-aligned group of [`LANES`] u64 words — the unit the bulk
/// operations process per loop iteration. The alignment keeps every lane
/// load inside a single cache line and lets the compiler emit full-width
/// vector loads/stores for the unrolled loops.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
#[repr(C, align(32))]
struct LaneBlock([u64; LANES]);

/// log2 of the bits per lane block: bit `v` of a field lives in block
/// `v >> BLOCK_SHIFT` of the field's span.
const BLOCK_SHIFT: u32 = 6 + (LANES as u32).trailing_zeros();

/// At most this many parked signatures are kept per thread.
const POOL_CAP: usize = 32;

/// A parked `(config, buffer)` pair awaiting reuse.
type Parked = (Arc<SignatureConfig>, Vec<LaneBlock>);

thread_local! {
    /// One-slot front cache of the pool: the most recently dropped
    /// signature. `Cell` take/replace are plain moves — no borrow flags,
    /// no scan — so the drop-then-recreate cycle of the union/intersect/
    /// commit hot paths touches only this slot.
    static SIG_SLOT: Cell<Option<Parked>> = const { Cell::new(None) };
    /// Overflow free list of parked `(config, buffer)` pairs.
    ///
    /// Every `Signature` drop parks its config handle *and* buffer here,
    /// and every construction for a pointer-identical config reuses a
    /// parked pair. In steady state the hot paths therefore skip both the
    /// (32-byte-aligned, hence slow-path) allocator and the `Arc` refcount
    /// atomics — the two dominant fixed costs of materialising a
    /// signature. A linear `ptr_eq` scan over at most [`POOL_CAP`] pairs
    /// beats any map for the one-or-two-config common case.
    static SIG_POOL: RefCell<Vec<Parked>> = const { RefCell::new(Vec::new()) };
}

/// Takes a parked pair for exactly this shared config (pointer identity,
/// so the buffer length is guaranteed to match). Contents are stale.
fn pool_take(cfg: &Arc<SignatureConfig>) -> Option<Parked> {
    if let Some(pair) = SIG_SLOT.with(Cell::take) {
        if Arc::ptr_eq(&pair.0, cfg) {
            return Some(pair);
        }
        SIG_SLOT.with(|s| s.set(Some(pair)));
    }
    SIG_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let i = pool.iter().position(|(c, _)| Arc::ptr_eq(c, cfg))?;
        Some(pool.swap_remove(i))
    })
}

/// Parks a pair for reuse in the front slot, displacing the previous
/// occupant into the overflow list. When that list is full, an entry whose
/// config is referenced by nobody else (a dead, unshared config — e.g.
/// from [`Signature::new`]) is evicted first; otherwise the displaced pair
/// is dropped.
fn pool_give(cfg: Arc<SignatureConfig>, buf: Vec<LaneBlock>) {
    if buf.is_empty() {
        return;
    }
    let Some(prev) = SIG_SLOT.with(|s| s.replace(Some((cfg, buf)))) else {
        return;
    };
    SIG_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < POOL_CAP {
            pool.push(prev);
        } else if let Some(i) =
            pool.iter().position(|(c, _)| Arc::strong_count(c) == 1)
        {
            pool[i] = prev;
        }
    });
}

/// A hardware address signature (paper §3.1): a fixed-size register that
/// hash-encodes a set of addresses as a superset.
///
/// An address is added by permuting its bits, slicing the result into
/// C-fields, decoding each C-field and OR-ing it into the corresponding
/// V-field (Fig. 2). Every insert therefore sets exactly one bit per
/// V-field, and a signature is empty iff **any** V-field is all-zero.
///
/// All operations are *inexact but correct*: `contains` may report false
/// positives, never false negatives; `intersect` yields a superset of the
/// true intersection.
///
/// # Storage
///
/// All V-fields live in one flat, 32-byte-aligned u64 buffer. Each field's
/// word span is padded to a multiple of [`LANES`] words (padding words are
/// invariantly zero), so intersection, union, clear, popcount, emptiness
/// and the disambiguation test are exact u64x4 lane loops with no scalar
/// tail — the word-parallel model the paper assumes of the hardware.
///
/// ```
/// use bulk_sig::{Signature, SignatureConfig};
/// use bulk_mem::Addr;
///
/// let cfg = SignatureConfig::s14_tm();
/// let mut w = Signature::new(cfg.clone());
/// assert!(w.is_empty());
/// w.insert_addr(Addr::new(0x8000));
/// assert!(w.contains_addr(Addr::new(0x8000)));
/// assert!(w.contains_addr(Addr::new(0x8004))); // same line
/// ```
pub struct Signature {
    /// Always `Some` while the signature is alive; taken only inside
    /// `Drop`, which moves the handle into the thread-local pool together
    /// with the buffer (no refcount round trip).
    config: Option<Arc<SignatureConfig>>,
    /// The flat V-field buffer; see the struct docs for the layout.
    buf: Vec<LaneBlock>,
}

impl Clone for Signature {
    fn clone(&self) -> Self {
        let (config, mut buf) = take_or_alloc_dirty(self.config());
        buf.copy_from_slice(&self.buf);
        Signature { config: Some(config), buf }
    }
}

impl Drop for Signature {
    fn drop(&mut self) {
        if let Some(cfg) = self.config.take() {
            pool_give(cfg, std::mem::take(&mut self.buf));
        }
    }
}

/// An owned config handle plus a matching buffer whose contents the caller
/// overwrites entirely — from the pool when possible (stale contents, no
/// atomics), freshly allocated otherwise.
#[inline]
fn take_or_alloc_dirty(
    cfg: &Arc<SignatureConfig>,
) -> (Arc<SignatureConfig>, Vec<LaneBlock>) {
    pool_take(cfg).unwrap_or_else(|| {
        let blocks = cfg.total_words() / LANES;
        (cfg.clone(), vec![LaneBlock::default(); blocks])
    })
}

/// Error from the `try_*` operations: the two signatures were built from
/// different configurations, so their bit layouts are not comparable.
/// Signatures that arrive over a wire (sealed commit broadcasts, and soon
/// sockets) take this path instead of the panicking operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigMismatch {
    /// Total size in bits of the left-hand signature's configuration.
    pub left_bits: u64,
    /// Total size in bits of the right-hand signature's configuration.
    pub right_bits: u64,
}

impl fmt::Display for ConfigMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "signature operation on incompatible configurations \
             ({}-bit vs {}-bit layout)",
            self.left_bits, self.right_bits
        )
    }
}

impl std::error::Error for ConfigMismatch {}

/// Whether the AND of two aligned blocks is all-zero, phrased as a whole
/// 32-byte array compare so LLVM lowers it to a single wide test
/// (`vpand` + `vptest` on AVX2) instead of a scalar OR-reduction chain.
#[inline(always)]
fn block_and_is_zero(x: &LaneBlock, y: &LaneBlock) -> bool {
    let mut m = [0u64; LANES];
    for l in 0..LANES {
        m[l] = x.0[l] & y.0[l];
    }
    m == [0u64; LANES]
}

/// Out-of-line panic for [`Signature::check_compatible`], keeping the
/// inline fast path free of format machinery.
#[cold]
#[inline(never)]
fn incompatible_panic() -> ! {
    panic!("signature operation on incompatible configurations");
}

impl Signature {
    /// Creates an empty signature with the given configuration.
    pub fn new(config: SignatureConfig) -> Self {
        Signature::with_shared(Arc::new(config))
    }

    /// Creates an empty signature sharing an existing configuration
    /// (preferred when many signatures use one config).
    #[inline]
    pub fn with_shared(config: Arc<SignatureConfig>) -> Self {
        match pool_take(&config) {
            Some((cfg, mut buf)) => {
                buf.fill(LaneBlock::default());
                Signature { config: Some(cfg), buf }
            }
            None => {
                let blocks = config.total_words() / LANES;
                Signature { config: Some(config), buf: vec![LaneBlock::default(); blocks] }
            }
        }
    }

    /// The signature's configuration.
    #[inline]
    pub fn config(&self) -> &Arc<SignatureConfig> {
        self.config.as_ref().expect("config taken only in Drop")
    }

    /// The configuration by reference (the hot-path accessor).
    #[inline(always)]
    fn cfg(&self) -> &SignatureConfig {
        self.config.as_deref().expect("config taken only in Drop")
    }

    #[inline(always)]
    fn word(&self, w: usize) -> u64 {
        self.buf[w / LANES].0[w % LANES]
    }

    #[inline(always)]
    fn word_mut(&mut self, w: usize) -> &mut u64 {
        &mut self.buf[w / LANES].0[w % LANES]
    }

    /// Adds a raw key (an already granularity-converted address).
    ///
    /// Field spans start on block boundaries, so a C-field value `v` lands
    /// in block `block_start + v / 256` at lane `(v / 64) % LANES` — one
    /// bounds-checked block index per field, with the lane index provably
    /// in range.
    #[inline]
    pub fn insert_key(&mut self, key: u32) {
        let permuted = u64::from(self.cfg().permutation().apply(key));
        let Signature { config, buf } = self;
        let config = config.as_deref().expect("config taken only in Drop");
        for m in config.fields_meta() {
            let v = (permuted >> m.shift) & m.mask;
            let blk = m.block_start as usize + (v >> BLOCK_SHIFT) as usize;
            buf[blk].0[(v >> 6) as usize % LANES] |= 1u64 << (v & 63);
        }
    }

    /// Adds the line/word containing the byte address `addr`, according to
    /// the config's granularity.
    #[inline]
    pub fn insert_addr(&mut self, addr: Addr) {
        self.insert_key(self.cfg().key_of_addr(addr));
    }

    /// Adds a line address (line-granularity configs only).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the config encodes word addresses.
    #[inline]
    pub fn insert_line(&mut self, line: LineAddr) {
        self.insert_key(self.cfg().key_of_line(line));
    }

    /// Adds a word address (word-granularity configs only).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the config encodes line addresses.
    #[inline]
    pub fn insert_word(&mut self, word: WordAddr) {
        self.insert_key(self.cfg().key_of_word(word));
    }

    /// Membership test for a raw key (∈ of Table 1). May return false
    /// positives, never false negatives. Short-circuits on the first clear
    /// field bit — with realistic occupancies most misses are settled by
    /// field 0, so the early exit wins over the branch-free AND reduction.
    #[inline]
    pub fn contains_key(&self, key: u32) -> bool {
        let cfg = self.cfg();
        let permuted = u64::from(cfg.permutation().apply(key));
        let buf = self.buf.as_slice();
        for m in cfg.fields_meta() {
            let v = (permuted >> m.shift) & m.mask;
            let blk = m.block_start as usize + (v >> BLOCK_SHIFT) as usize;
            if buf[blk].0[(v >> 6) as usize % LANES] >> (v & 63) & 1 == 0 {
                return false;
            }
        }
        true
    }

    /// Membership test for a byte address at the config's granularity.
    #[inline]
    pub fn contains_addr(&self, addr: Addr) -> bool {
        self.contains_key(self.cfg().key_of_addr(addr))
    }

    /// Membership test for a line address (line-granularity configs).
    #[inline]
    pub fn contains_line(&self, line: LineAddr) -> bool {
        self.contains_key(self.cfg().key_of_line(line))
    }

    /// Membership test for a word address (word-granularity configs).
    #[inline]
    pub fn contains_word(&self, word: WordAddr) -> bool {
        self.contains_key(self.cfg().key_of_word(word))
    }

    /// Whether any word of `line` may be in the signature. This is how a
    /// word-granularity signature answers line-level questions (bulk
    /// invalidation walks cache lines). For line-granularity configs this
    /// is the plain line membership test.
    pub fn contains_any_word_of_line(&self, line: LineAddr) -> bool {
        match self.cfg().granularity() {
            Granularity::Line => self.contains_line(line),
            Granularity::Word => line
                .words(self.cfg().line_bytes())
                .any(|w| self.contains_word(w)),
        }
    }

    /// OR-reduction of V-field `i`'s words (nonzero iff the field holds any
    /// bit), as a four-accumulator lane loop.
    #[inline]
    fn field_or_reduce(&self, i: usize) -> u64 {
        let r = self.cfg().field_word_range(i);
        let mut acc = [0u64; LANES];
        for blk in &self.buf[r.start / LANES..r.end / LANES] {
            for l in 0..LANES {
                acc[l] |= blk.0[l];
            }
        }
        acc.iter().fold(0, |a, &x| a | x)
    }

    /// The emptiness test of Table 1: true iff at least one V-field is
    /// all-zero, in which case the signature encodes no address.
    pub fn is_empty(&self) -> bool {
        (0..self.cfg().num_fields()).any(|i| self.field_or_reduce(i) == 0)
    }

    /// Signature intersection (∩ of Table 1): bit-wise AND.
    ///
    /// # Panics
    ///
    /// Panics if the two signatures have different configurations.
    #[inline]
    pub fn intersect(&self, other: &Signature) -> Signature {
        self.check_compatible(other);
        let (config, mut buf) = take_or_alloc_dirty(self.config());
        for ((o, a), b) in buf.iter_mut().zip(&self.buf).zip(&other.buf) {
            for l in 0..LANES {
                o.0[l] = a.0[l] & b.0[l];
            }
        }
        Signature { config: Some(config), buf }
    }

    /// Whether `self ∩ other ≠ ∅`, without materialising the intersection.
    /// This is the core of bulk address disambiguation (paper Eq. 1).
    ///
    /// The scan short-circuits at lane-block granularity in both
    /// directions: a field is proven nonempty by its first intersecting
    /// block, and the whole test is settled the moment any field's AND
    /// comes up all-zero. Semantically identical to the full reduction
    /// (the equivalence suite pins it), but the common disambiguation
    /// probe touches only a block or two per field.
    ///
    /// # Panics
    ///
    /// Panics if the two signatures have different configurations.
    #[inline]
    pub fn intersects(&self, other: &Signature) -> bool {
        self.check_compatible(other);
        let cfg = self.cfg();
        let a = self.buf.as_slice();
        let b = other.buf.as_slice();
        // Fields that each span exactly one block need no inner loop or
        // slicing: block i *is* field i.
        if cfg.fields_single_block() {
            let mut hit = true;
            for (x, y) in a.iter().zip(b) {
                hit &= !block_and_is_zero(x, y);
            }
            return hit;
        }
        // Clamping every block index to the shorter buffer lets the
        // optimiser drop the per-field slice bounds checks; the clamps
        // never bind for compatible signatures (field spans cover the
        // buffer exactly).
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        'fields: for m in cfg.fields_meta() {
            let e = (m.block_end as usize).min(n);
            let mut blk = (m.block_start as usize).min(e);
            while blk < e {
                if !block_and_is_zero(&a[blk], &b[blk]) {
                    continue 'fields;
                }
                blk += 1;
            }
            return false;
        }
        true
    }

    /// Non-panicking [`Signature::intersects`]: the safe surface for
    /// signatures that arrived over a wire and may not share this
    /// signature's configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigMismatch`] when the configurations differ.
    pub fn try_intersects(&self, other: &Signature) -> Result<bool, ConfigMismatch> {
        self.try_check_compatible(other)?;
        Ok(self.intersects(other))
    }

    /// Signature union (∪ of Table 1): bit-wise OR. Used e.g. to combine
    /// the write signatures of nested transactions at outer commit (§6.2.1).
    ///
    /// # Panics
    ///
    /// Panics if the two signatures have different configurations.
    #[inline]
    pub fn union(&self, other: &Signature) -> Signature {
        self.check_compatible(other);
        let (config, mut buf) = take_or_alloc_dirty(self.config());
        for ((o, a), b) in buf.iter_mut().zip(&self.buf).zip(&other.buf) {
            for l in 0..LANES {
                o.0[l] = a.0[l] | b.0[l];
            }
        }
        Signature { config: Some(config), buf }
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics if the two signatures have different configurations.
    #[inline]
    pub fn union_assign(&mut self, other: &Signature) {
        self.check_compatible(other);
        for (a, b) in self.buf.iter_mut().zip(&other.buf) {
            for l in 0..LANES {
                a.0[l] |= b.0[l];
            }
        }
    }

    /// Overwrites this signature's bits with `other`'s (one lane-width
    /// memcpy; the par runtime refreshes its checkpoint in place with it).
    ///
    /// # Panics
    ///
    /// Panics if the two signatures have different configurations.
    pub fn copy_from(&mut self, other: &Signature) {
        self.check_compatible(other);
        self.buf.copy_from_slice(&other.buf);
    }

    /// Clears the signature — the paper's one-instruction commit (§5.1).
    pub fn clear(&mut self) {
        self.buf.fill(LaneBlock::default());
    }

    /// Total number of set bits across all V-fields.
    pub fn popcount(&self) -> u64 {
        let mut acc = [0u64; LANES];
        for blk in &self.buf {
            for l in 0..LANES {
                acc[l] += blk.0[l].count_ones() as u64;
            }
        }
        acc.iter().sum()
    }

    /// The set bit positions (C-field values) of V-field `i`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn field_values(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        let w0 = self.cfg().field_word_start(i);
        (0..self.cfg().field_words(i)).flat_map(move |j| {
            BitIter { word: self.word(w0 + j), base: j as u64 * 64 }.map(|p| p as u32)
        })
    }

    /// The set bit positions of the whole signature in canonical flat-bit
    /// order (fields concatenated with no padding), ascending. This walks
    /// the words directly — it is what the RLE codec and the bandwidth
    /// accounting iterate on every commit, without materialising a flat
    /// copy of the signature.
    pub fn iter_flat_positions(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.cfg().num_fields()).flat_map(move |i| {
            let base = self.cfg().field_range(i).start;
            let w0 = self.cfg().field_word_start(i);
            (0..self.cfg().field_words(i)).flat_map(move |j| BitIter {
                word: self.word(w0 + j),
                base: base + j as u64 * 64,
            })
        })
    }

    /// The signature's bits as one flat, LSB-first vector (fields
    /// concatenated in order). Canonical form used by the RLE codec and the
    /// sealed wire framing.
    pub fn flat_bits(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.cfg().size_bits().div_ceil(64) as usize);
        self.for_each_flat_word(|w| out.push(w));
        out
    }

    /// The words of [`Signature::flat_bits`], in order, without the vector:
    /// each field's words are funnelled through a 128-bit window, so a
    /// field that ends inside a word is followed at once by the next one.
    pub(crate) fn for_each_flat_word(&self, mut f: impl FnMut(u64)) {
        let cfg = self.cfg();
        let (mut window, mut held) = (0u128, 0u32);
        for i in 0..cfg.num_fields() {
            let field_bits = cfg.field_range(i).end - cfg.field_range(i).start;
            let w0 = cfg.field_word_start(i);
            for j in 0..cfg.field_words(i) {
                // Bits past the field's width are invariantly zero.
                window |= u128::from(self.word(w0 + j)) << held;
                held += (field_bits - j as u64 * 64).min(64) as u32;
                if held >= 64 {
                    f(window as u64);
                    window >>= 64;
                    held -= 64;
                }
            }
        }
        if held > 0 {
            f(window as u64);
        }
    }

    /// Rebuilds a signature from its flat bit vector, word-by-word.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is shorter than the config requires.
    pub fn from_flat_bits(config: Arc<SignatureConfig>, bits: &[u64]) -> Signature {
        let mut sig = Signature::with_shared(config);
        let total = sig.cfg().size_bits();
        assert!(bits.len() as u64 * 64 >= total, "flat bit vector too short");
        let config = sig.config().clone();
        for i in 0..config.num_fields() {
            let range = config.field_range(i);
            let field_bits = range.end - range.start;
            let sh = (range.start % 64) as u32;
            let base = (range.start / 64) as usize;
            let w0 = config.field_word_start(i);
            let words = config.field_words(i);
            for j in 0..words {
                let lo = bits[base + j] >> sh;
                let hi = if sh > 0 && base + j + 1 < bits.len() {
                    bits[base + j + 1] << (64 - sh)
                } else {
                    0
                };
                let mut w = lo | hi;
                // Mask the final word down to the field's width so bits
                // belonging to the next field (or vector slack) never leak
                // into this field's buffer.
                let rem = field_bits - j as u64 * 64;
                if rem < 64 {
                    w &= (1u64 << rem) - 1;
                }
                *sig.word_mut(w0 + j) = w;
            }
        }
        sig
    }

    /// Whether `other` shares this signature's configuration, making the
    /// binary operations well-defined. The pointer-identity test stays
    /// inline (machines share one `Arc` per signature kind, so it is the
    /// only test the hot paths ever run); the layout deep-compare for
    /// unshared configs lives out of line as the cold fallback.
    #[inline]
    pub fn compatible(&self, other: &Signature) -> bool {
        Arc::ptr_eq(self.config(), other.config()) || self.compatible_slow(other)
    }

    #[cold]
    #[inline(never)]
    fn compatible_slow(&self, other: &Signature) -> bool {
        *self.cfg() == *other.cfg()
    }

    #[inline]
    fn try_check_compatible(&self, other: &Signature) -> Result<(), ConfigMismatch> {
        if self.compatible(other) {
            Ok(())
        } else {
            Err(ConfigMismatch {
                left_bits: self.cfg().size_bits(),
                right_bits: other.cfg().size_bits(),
            })
        }
    }

    #[inline]
    fn check_compatible(&self, other: &Signature) {
        if !self.compatible(other) {
            incompatible_panic();
        }
    }
}

/// `base` plus each set bit position of `word`, ascending.
pub(crate) struct BitIter {
    pub(crate) word: u64,
    pub(crate) base: u64,
}

impl Iterator for BitIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + tz as u64)
    }
}

impl PartialEq for Signature {
    fn eq(&self, other: &Signature) -> bool {
        *self.cfg() == *other.cfg() && self.buf == other.buf
    }
}

impl Eq for Signature {}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Signature")
            .field("size_bits", &self.cfg().size_bits())
            .field("granularity", &self.cfg().granularity())
            .field("popcount", &self.popcount())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitPermutation;

    fn small() -> SignatureConfig {
        SignatureConfig::new(vec![4, 4], BitPermutation::identity(), Granularity::Line, 64)
    }

    #[test]
    fn insert_then_contains() {
        let mut s = Signature::new(small());
        s.insert_key(0x13);
        assert!(s.contains_key(0x13));
        assert!(!s.contains_key(0x24));
        assert_eq!(s.popcount(), 2); // one bit per field
    }

    #[test]
    fn no_false_negatives_many_keys() {
        let mut s = Signature::new(SignatureConfig::s14_tm());
        let keys: Vec<u32> =
            (0..500u32).map(|i| i.wrapping_mul(2654435761) % (1 << 26)).collect();
        for &k in &keys {
            s.insert_key(k);
        }
        for &k in &keys {
            assert!(s.contains_key(k));
        }
    }

    #[test]
    fn aliasing_produces_false_positives_in_tiny_config() {
        // Keys 0x00 and 0x11 set bits {V1:0,V2:0} and {V1:1,V2:1};
        // key 0x10 (V1:0, V2:1) then false-positives.
        let mut s = Signature::new(small());
        s.insert_key(0x00);
        s.insert_key(0x11);
        assert!(s.contains_key(0x10));
        assert!(s.contains_key(0x01));
    }

    #[test]
    fn empty_iff_any_field_zero() {
        let cfg = small();
        let mut a = Signature::new(cfg.clone());
        assert!(a.is_empty());
        a.insert_key(3);
        assert!(!a.is_empty());
        // Intersection of two disjoint-field signatures is empty.
        let mut b = Signature::new(cfg);
        b.insert_key(0x44);
        let i = a.intersect(&b);
        assert!(i.is_empty());
        assert!(!a.intersects(&b));
    }

    #[test]
    fn intersection_is_superset_of_true_intersection() {
        let cfg = SignatureConfig::s14_tm().into_shared();
        let mut a = Signature::with_shared(cfg.clone());
        let mut b = Signature::with_shared(cfg);
        for k in 0..100u32 {
            a.insert_key(k);
        }
        for k in 50..150u32 {
            b.insert_key(k);
        }
        let i = a.intersect(&b);
        for k in 50..100u32 {
            assert!(i.contains_key(k), "true member {k} missing from ∩");
        }
        assert!(a.intersects(&b));
    }

    #[test]
    fn union_contains_both_sides() {
        let cfg = SignatureConfig::s14_tm().into_shared();
        let mut a = Signature::with_shared(cfg.clone());
        let mut b = Signature::with_shared(cfg);
        a.insert_key(7);
        b.insert_key(9);
        let u = a.union(&b);
        assert!(u.contains_key(7) && u.contains_key(9));
        // Union never loses bits from either side (keys may share bits in
        // some fields, so the count is between 2 and 4 for S14).
        assert!(u.popcount() >= a.popcount().max(b.popcount()));
        assert!(u.popcount() <= a.popcount() + b.popcount());
    }

    #[test]
    fn clear_commits() {
        let mut s = Signature::new(small());
        s.insert_key(5);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.popcount(), 0);
    }

    #[test]
    fn copy_from_overwrites() {
        let cfg = SignatureConfig::s14_tm().into_shared();
        let mut a = Signature::with_shared(cfg.clone());
        let mut b = Signature::with_shared(cfg);
        a.insert_key(11);
        b.insert_key(77);
        a.copy_from(&b);
        assert_eq!(a, b);
        assert!(a.contains_key(77));
    }

    #[test]
    fn field_values_report_set_positions() {
        let mut s = Signature::new(small());
        s.insert_key(0x31); // C1 = 1, C2 = 3
        assert_eq!(s.field_values(0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(s.field_values(1).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn flat_positions_match_flat_bits() {
        let cfg = SignatureConfig::new(
            vec![3, 5, 10],
            BitPermutation::identity(),
            Granularity::Line,
            64,
        )
        .into_shared();
        let mut s = Signature::with_shared(cfg);
        for k in 0..60u32 {
            s.insert_key(k.wrapping_mul(2654435761));
        }
        let from_iter: Vec<u64> = s.iter_flat_positions().collect();
        let mut from_flat = Vec::new();
        for (wi, &w) in s.flat_bits().iter().enumerate() {
            let mut w = w;
            while w != 0 {
                from_flat.push(wi as u64 * 64 + w.trailing_zeros() as u64);
                w &= w - 1;
            }
        }
        assert_eq!(from_iter, from_flat);
        assert_eq!(from_iter.len() as u64, s.popcount());
    }

    #[test]
    fn flat_bits_round_trip() {
        let cfg = SignatureConfig::s14_tm().into_shared();
        let mut s = Signature::with_shared(cfg.clone());
        for k in [0u32, 1, 1023, 4096, 0x3ff_ffff] {
            s.insert_key(k);
        }
        let bits = s.flat_bits();
        let s2 = Signature::from_flat_bits(cfg, &bits);
        assert_eq!(s, s2);
    }

    #[test]
    fn flat_bits_round_trip_unaligned_fields() {
        // Chunks of 3 and 5 bits: 8-bit and 32-bit fields, both sub-word.
        let cfg = SignatureConfig::new(
            vec![3, 5],
            BitPermutation::identity(),
            Granularity::Line,
            64,
        )
        .into_shared();
        let mut s = Signature::with_shared(cfg.clone());
        for k in 0..40u32 {
            s.insert_key(k * 7);
        }
        let s2 = Signature::from_flat_bits(cfg, &s.flat_bits());
        assert_eq!(s, s2);
    }

    #[test]
    fn from_flat_bits_masks_foreign_bits() {
        // A flat vector with bits set beyond the total size must not leak
        // into any field's buffer (the extra words are vector slack).
        let cfg = SignatureConfig::new(
            vec![3, 5],
            BitPermutation::identity(),
            Granularity::Line,
            64,
        )
        .into_shared();
        let bits = vec![u64::MAX; 4]; // config needs only 40 bits
        let s = Signature::from_flat_bits(cfg, &bits);
        assert_eq!(s.popcount(), 40);
        let t = Signature::from_flat_bits(s.config().clone(), &s.flat_bits());
        assert_eq!(s, t);
    }

    #[test]
    fn word_granularity_line_probe() {
        let mut s = Signature::new(SignatureConfig::s14_tls());
        let line = LineAddr::new(100);
        s.insert_word(line.word(64, 3));
        assert!(s.contains_any_word_of_line(line));
        assert!(!s.contains_any_word_of_line(LineAddr::new(5000)));
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn mixed_config_ops_panic() {
        let a = Signature::new(SignatureConfig::s14_tm());
        let b = Signature::new(small());
        let _ = a.intersects(&b);
    }

    #[test]
    fn try_intersects_rejects_mixed_configs_without_panicking() {
        let a = Signature::new(SignatureConfig::s14_tm());
        let b = Signature::new(small());
        let err = a.try_intersects(&b).unwrap_err();
        assert_eq!(err.left_bits, 2048);
        assert_eq!(err.right_bits, 32);
        assert!(err.to_string().contains("incompatible"));

        // Matching configs behave like the panicking operators.
        let mut d = Signature::new(SignatureConfig::s14_tm());
        d.insert_key(42);
        assert_eq!(a.try_intersects(&d).unwrap(), a.intersects(&d));
    }

    #[test]
    fn debug_is_nonempty() {
        let s = Signature::new(small());
        assert!(format!("{s:?}").contains("Signature"));
    }
}
