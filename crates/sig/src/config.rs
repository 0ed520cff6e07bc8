//! Signature configurations: the C-field layout, permutation and encoding
//! granularity — plus the full catalog of the paper's Table 8.

use std::sync::{Arc, OnceLock};

use bulk_mem::{Addr, CacheGeometry, LineAddr, WordAddr};

use crate::decode::DecodePlan;
use crate::BitPermutation;

/// Words per SIMD lane group of the flat signature buffer. Every V-field's
/// word span is padded to a multiple of this, so the bulk-operation loops
/// in [`crate::Signature`] are exact u64x4 lane loops with no scalar tail.
pub const LANES: usize = 4;

/// The granularity of the addresses a signature encodes (paper §4.2):
/// line addresses for the TM experiments, word addresses for TLS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// Encode line addresses (26 bits with a 32-bit space and 64 B lines).
    Line,
    /// Encode word addresses (30 bits), enabling per-word disambiguation.
    Word,
}

impl Granularity {
    /// Number of significant bits of a key at this granularity, for
    /// `line_bytes`-byte lines in a 32-bit byte address space.
    pub fn key_bits(self, line_bytes: u32) -> u32 {
        match self {
            Granularity::Line => 32 - line_bytes.trailing_zeros(),
            Granularity::Word => 30,
        }
    }
}

/// One row of the paper's Table 8: a named C-field chunk layout.
///
/// `chunks` are the sizes of the consecutive C-fields, starting from the
/// least-significant bit of the (already permuted) address. The resulting
/// signature has one V-field of `2^c` bits per chunk of size `c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureSpec {
    /// The paper's identifier, `"S1"`..`"S23"`.
    pub id: &'static str,
    /// C-field sizes in bits, LSB-first.
    pub chunks: &'static [u32],
}

impl SignatureSpec {
    /// Total (uncompressed) signature size in bits: `Σ 2^cᵢ`.
    ///
    /// ```
    /// use bulk_sig::table8;
    /// let s14 = table8().iter().find(|s| s.id == "S14").unwrap();
    /// assert_eq!(s14.full_size_bits(), 2048);
    /// ```
    pub fn full_size_bits(&self) -> u64 {
        self.chunks.iter().map(|&c| 1u64 << c).sum()
    }
}

/// The 23 signature configurations evaluated in the paper's Table 8.
/// `S14` (bold in the paper) is the default used by every other experiment.
pub fn table8() -> &'static [SignatureSpec] {
    const T: &[SignatureSpec] = &[
        SignatureSpec { id: "S1", chunks: &[7, 7, 7, 7] },
        SignatureSpec { id: "S2", chunks: &[8, 7, 6, 5, 5] },
        SignatureSpec { id: "S3", chunks: &[5, 5, 6, 7, 8] },
        SignatureSpec { id: "S4", chunks: &[8, 8, 8, 8] },
        SignatureSpec { id: "S5", chunks: &[9, 8, 7, 7] },
        SignatureSpec { id: "S6", chunks: &[5, 8, 8, 8] },
        SignatureSpec { id: "S7", chunks: &[8, 5, 8, 8] },
        SignatureSpec { id: "S8", chunks: &[8, 8, 5, 8] },
        SignatureSpec { id: "S9", chunks: &[5, 8, 8, 5] },
        SignatureSpec { id: "S10", chunks: &[9, 9, 8, 6] },
        SignatureSpec { id: "S11", chunks: &[9, 10, 8, 5] },
        SignatureSpec { id: "S12", chunks: &[10, 9, 6] },
        SignatureSpec { id: "S13", chunks: &[10, 9, 7] },
        SignatureSpec { id: "S14", chunks: &[10, 10] },
        SignatureSpec { id: "S15", chunks: &[10, 9, 9] },
        // Table 8 lists S16 at 2336 bits; the only chunk layout consistent
        // with that size is [10, 10, 8, 5] (the description column's
        // "10, 10, 7, 5" would be 2208 bits).
        SignatureSpec { id: "S16", chunks: &[10, 10, 8, 5] },
        SignatureSpec { id: "S17", chunks: &[10, 10, 10] },
        SignatureSpec { id: "S18", chunks: &[11, 10, 10] },
        SignatureSpec { id: "S19", chunks: &[11, 11] },
        SignatureSpec { id: "S20", chunks: &[12] },
        SignatureSpec { id: "S21", chunks: &[11, 11, 4] },
        SignatureSpec { id: "S22", chunks: &[11, 11, 10] },
        SignatureSpec { id: "S23", chunks: &[13, 13, 6] },
    ];
    T
}

/// Looks up a Table 8 spec by id (`"S14"` etc.).
pub fn table8_spec(id: &str) -> Option<SignatureSpec> {
    table8().iter().copied().find(|s| s.id == id)
}

/// Precomputed per-field constants for the signature hot paths, packed as
/// one cache-contiguous record per C/V pair (instead of four parallel
/// vectors that each cost a pointer chase and a bounds check per field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FieldMeta {
    /// Right-shift applied to the permuted key to bring the C-field to the
    /// LSB. Capped at 63: a field whose start lies past bit 31 decodes as
    /// value 0, exactly as the hardware would wire a missing input low.
    pub shift: u32,
    /// `(1 << c) - 1`: the C-field's value mask.
    pub mask: u64,
    /// First lane block of the field's padded span.
    pub block_start: u32,
    /// One past the last lane block of the field's padded span.
    pub block_end: u32,
}

/// A complete signature configuration: chunk layout, bit permutation,
/// encoding granularity and line size.
///
/// Configurations are shared between the many signatures of a run via
/// [`Arc`]; use [`SignatureConfig::into_shared`] or the provided
/// constructors which already return shared configs are not needed —
/// [`crate::Signature::new`] accepts the config by value and shares
/// internally.
#[derive(Debug, Clone)]
pub struct SignatureConfig {
    chunks: Vec<u32>,
    /// Cumulative V-field offsets in bits, one per chunk, plus the total.
    /// These are the *canonical* flat-bit positions used by the RLE codec
    /// and the sealed wire format; they are packed with no padding.
    field_offsets: Vec<u64>,
    /// Cumulative V-field offsets in u64 words of the in-memory flat
    /// buffer, one per chunk, plus the total. Each field's span is padded
    /// to a multiple of [`LANES`] words so bulk operations run as exact
    /// u64x4 lane loops; padding words are invariantly zero.
    word_starts: Vec<usize>,
    /// Bit position (LSB-relative, in the permuted key) where each chunk
    /// starts.
    chunk_starts: Vec<u32>,
    /// Per-field hot-path constants, derived from the three vectors above.
    fields_meta: Vec<FieldMeta>,
    /// Whether every V-field spans exactly one lane block (true for the
    /// small Table 8 configs, whose chunks are ≤ 8 bits).
    single_block: bool,
    /// The C-field whose low bits are a line's word-offset bits, in order,
    /// after permutation (word granularity only). A line's words then
    /// differ only in that field, inside one aligned group of its V-field.
    word_offset_field: Option<usize>,
    permutation: BitPermutation,
    granularity: Granularity,
    line_bytes: u32,
    /// The δ decode plan for the first cache geometry this config is
    /// decoded against — in a run, the only one. Derived state, like the
    /// vectors above, but it needs the geometry and so is made on demand.
    decode_plan: OnceLock<DecodePlan>,
    /// The CRC of each lone flat bit, for sealing (made on the first seal).
    crc_basis: OnceLock<Box<[u64]>>,
}

/// Two configurations are equal when they define the same encoding; every
/// other field is derived from these four.
impl PartialEq for SignatureConfig {
    fn eq(&self, other: &Self) -> bool {
        self.chunks == other.chunks
            && self.permutation == other.permutation
            && self.granularity == other.granularity
            && self.line_bytes == other.line_bytes
    }
}

impl Eq for SignatureConfig {}

impl SignatureConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is empty, any chunk exceeds 20 bits (a 1 Mbit
    /// field — far beyond anything in the paper), or `line_bytes` is not a
    /// power of two.
    pub fn new(
        chunks: Vec<u32>,
        permutation: BitPermutation,
        granularity: Granularity,
        line_bytes: u32,
    ) -> Self {
        assert!(!chunks.is_empty(), "at least one C-field is required");
        assert!(
            chunks.iter().all(|&c| (1..=20).contains(&c)),
            "chunk sizes must be in 1..=20 bits"
        );
        assert!(line_bytes.is_power_of_two() && line_bytes >= 4);
        let mut field_offsets = Vec::with_capacity(chunks.len() + 1);
        let mut word_starts = Vec::with_capacity(chunks.len() + 1);
        let mut chunk_starts = Vec::with_capacity(chunks.len());
        let mut bit_off = 0u64;
        let mut word_off = 0usize;
        let mut key_off = 0u32;
        for &c in &chunks {
            field_offsets.push(bit_off);
            word_starts.push(word_off);
            chunk_starts.push(key_off);
            bit_off += 1u64 << c;
            word_off += ((1usize << c).div_ceil(64)).next_multiple_of(LANES);
            key_off += c;
        }
        field_offsets.push(bit_off);
        word_starts.push(word_off);
        let fields_meta = chunks
            .iter()
            .enumerate()
            .map(|(i, &c)| FieldMeta {
                shift: chunk_starts[i].min(63),
                mask: (1u64 << c) - 1,
                block_start: (word_starts[i] / LANES) as u32,
                block_end: (word_starts[i + 1] / LANES) as u32,
            })
            .collect::<Vec<FieldMeta>>();
        let single_block = fields_meta.iter().all(|m| m.block_end - m.block_start == 1);
        let offset_bits = (line_bytes / 4).trailing_zeros();
        let word_offset_field = (granularity == Granularity::Word && offset_bits <= 6)
            .then(|| {
                (0..chunks.len()).find(|&i| {
                    chunks[i] >= offset_bits
                        && (0..offset_bits).all(|b| {
                            u32::from(permutation.destination_of(b as u8)) == chunk_starts[i] + b
                        })
                })
            })
            .flatten();
        SignatureConfig {
            chunks,
            field_offsets,
            word_starts,
            chunk_starts,
            fields_meta,
            single_block,
            word_offset_field,
            permutation,
            granularity,
            line_bytes,
            decode_plan: OnceLock::new(),
            crc_basis: OnceLock::new(),
        }
    }

    /// Builds a configuration from a Table 8 spec.
    pub fn from_spec(
        spec: SignatureSpec,
        permutation: BitPermutation,
        granularity: Granularity,
        line_bytes: u32,
    ) -> Self {
        SignatureConfig::new(spec.chunks.to_vec(), permutation, granularity, line_bytes)
    }

    /// The paper's default TM configuration: S14 (2 Kbit), line-address
    /// granularity, the paper's TM bit permutation, 64-byte lines.
    pub fn s14_tm() -> Self {
        SignatureConfig::from_spec(
            table8_spec("S14").expect("S14 in catalog"),
            BitPermutation::paper_tm(),
            Granularity::Line,
            64,
        )
    }

    /// The paper's default TLS configuration: S14 (2 Kbit), word-address
    /// granularity, the paper's TLS bit permutation, 64-byte lines.
    pub fn s14_tls() -> Self {
        SignatureConfig::from_spec(
            table8_spec("S14").expect("S14 in catalog"),
            BitPermutation::paper_tls(),
            Granularity::Word,
            64,
        )
    }

    /// Wraps the config for cheap sharing.
    pub fn into_shared(self) -> Arc<SignatureConfig> {
        Arc::new(self)
    }

    /// The C-field sizes, LSB-first.
    pub fn chunks(&self) -> &[u32] {
        &self.chunks
    }

    /// Number of C/V field pairs.
    pub fn num_fields(&self) -> usize {
        self.chunks.len()
    }

    /// Total signature size in bits.
    pub fn size_bits(&self) -> u64 {
        *self.field_offsets.last().expect("offsets nonempty")
    }

    /// Bit range `[start, end)` of V-field `i` within the flat bit vector.
    pub fn field_range(&self, i: usize) -> std::ops::Range<u64> {
        self.field_offsets[i]..self.field_offsets[i + 1]
    }

    /// Total u64 words of the in-memory flat buffer, padding included.
    /// Always a multiple of [`LANES`].
    pub fn total_words(&self) -> usize {
        *self.word_starts.last().expect("word starts nonempty")
    }

    /// Word index where V-field `i`'s span starts in the flat buffer.
    /// Always a multiple of [`LANES`].
    #[inline]
    pub fn field_word_start(&self, i: usize) -> usize {
        self.word_starts[i]
    }

    /// Padded word range of V-field `i` in the flat buffer (its span up to
    /// the next field's start; trailing padding words are always zero).
    #[inline]
    pub fn field_word_range(&self, i: usize) -> std::ops::Range<usize> {
        self.word_starts[i]..self.word_starts[i + 1]
    }

    /// Number of *logical* (non-padding) words V-field `i` occupies:
    /// `ceil(2^cᵢ / 64)`.
    #[inline]
    pub fn field_words(&self, i: usize) -> usize {
        (1usize << self.chunks[i]).div_ceil(64)
    }

    /// Bit position in the permuted key where C-field `i` starts.
    pub fn chunk_start(&self, i: usize) -> u32 {
        self.chunk_starts[i]
    }

    /// The per-field hot-path constants.
    #[inline]
    pub(crate) fn fields_meta(&self) -> &[FieldMeta] {
        &self.fields_meta
    }

    /// Whether every V-field spans exactly one lane block. The
    /// disambiguation test then degenerates to one AND-test per block with
    /// no inner loop.
    #[inline]
    pub(crate) fn fields_single_block(&self) -> bool {
        self.single_block
    }

    /// The C-field that holds a line's word-offset bits, in order, as its
    /// low bits — C-field 0 for every Table 8 spec under the paper's TLS
    /// permutation. `None` for line-granularity configs, and for word
    /// configs whose permutation scatters the offset bits, whose fields
    /// are all narrower than the offset, or whose lines hold more than 64
    /// words: those answer a line query one word at a time.
    pub fn word_offset_field(&self) -> Option<usize> {
        self.word_offset_field
    }

    /// The CRC-64 of every one-bit flat signature of this config, indexed
    /// by flat bit position (built on first use, `8 × size_bits` bytes).
    pub(crate) fn crc_basis(&self) -> &[u64] {
        self.crc_basis.get_or_init(|| crate::sealed::crc_basis(self.size_bits()))
    }

    /// The permutation applied before chunk extraction.
    pub fn permutation(&self) -> &BitPermutation {
        &self.permutation
    }

    /// The encoding granularity.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// The line size assumed when converting byte addresses.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Converts a byte address to the raw key this config encodes.
    #[inline]
    pub fn key_of_addr(&self, addr: Addr) -> u32 {
        match self.granularity {
            Granularity::Line => addr.line(self.line_bytes).raw(),
            Granularity::Word => addr.word().raw(),
        }
    }

    /// The raw key of a line address.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the granularity is [`Granularity::Word`]
    /// (one line is many words; use [`LineAddr::words`] instead).
    #[inline]
    pub fn key_of_line(&self, line: LineAddr) -> u32 {
        debug_assert_eq!(self.granularity, Granularity::Line);
        line.raw()
    }

    /// The raw key of a word address.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the granularity is [`Granularity::Line`].
    #[inline]
    pub fn key_of_word(&self, word: WordAddr) -> u32 {
        debug_assert_eq!(self.granularity, Granularity::Word);
        word.raw()
    }

    /// The C-field values of a raw key, after permutation.
    #[inline]
    pub fn chunk_values(&self, key: u32) -> impl Iterator<Item = (usize, u32)> + '_ {
        let permuted = self.permutation.apply(key);
        self.chunks.iter().enumerate().map(move |(i, &c)| {
            let start = self.chunk_starts[i];
            let v = if start >= 32 { 0 } else { (permuted >> start) & ((1u64 << c) - 1) as u32 };
            (i, v)
        })
    }

    /// Bit positions, within the raw (pre-permutation) key, that form the
    /// cache set index for `geom`.
    pub fn index_bit_range(&self, geom: &CacheGeometry) -> std::ops::Range<u32> {
        match self.granularity {
            Granularity::Line => geom.line_index_bit_range(),
            Granularity::Word => geom.word_index_bit_range(),
        }
    }

    /// Runs `f` with the δ decode plan for `geom`: the cached one, or a
    /// throwaway plan when this config already serves another geometry.
    pub(crate) fn with_decode_plan<R>(
        &self,
        geom: &CacheGeometry,
        f: impl FnOnce(&DecodePlan) -> R,
    ) -> R {
        let cached = self.decode_plan.get_or_init(|| DecodePlan::new(self, geom));
        if cached.geom == *geom {
            f(cached)
        } else {
            f(&DecodePlan::new(self, geom))
        }
    }

    /// Whether the cache-set index for `geom` is a projection of a single
    /// C-field. δ then distributes over insertion —
    /// `δ(W ∪ {a}) = δ(W) ∪ {set(a)}` — so a register holding `δ(W)` can
    /// follow `W` one store at a time. With the index bits spread over
    /// several fields δ is the cross product of the fields' partial
    /// indices, and one more address can add more sets than its own.
    ///
    /// # Panics
    ///
    /// Panics if the config's line size differs from the cache's.
    pub fn decodes_by_projection(&self, geom: &CacheGeometry) -> bool {
        self.with_decode_plan(geom, DecodePlan::is_projection)
    }

    /// Whether δ-decoding signatures of this config yields the **exact**
    /// set of cache-set indices for `geom` (paper §4.3 requires this for
    /// bulk invalidation of dirty lines to be safe).
    ///
    /// This holds when every cache-index bit of the key lands, after
    /// permutation, inside some C-field — then the index is a projection of
    /// the decoded fields.
    pub fn is_exactly_decodable(&self, geom: &CacheGeometry) -> bool {
        let covered: u32 = self.chunks.iter().sum();
        self.index_bit_range(geom)
            .all(|b| u32::from(self.permutation.destination_of(b as u8)) < covered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table8_matches_paper_sizes() {
        let expected: &[(&str, u64)] = &[
            ("S1", 512),
            ("S2", 512),
            ("S3", 512),
            ("S4", 1024),
            ("S5", 1024),
            ("S6", 800),
            ("S7", 800),
            ("S8", 800),
            ("S9", 576),
            ("S10", 1344),
            ("S11", 1824),
            ("S12", 1600),
            ("S13", 1664),
            ("S14", 2048),
            ("S15", 2048),
            ("S16", 2336),
            ("S17", 3072),
            ("S18", 4096),
            ("S19", 4096),
            ("S20", 4096),
            ("S21", 4112),
            ("S22", 5120),
            ("S23", 16448),
        ];
        assert_eq!(table8().len(), 23);
        for (id, size) in expected {
            let spec = table8_spec(id).unwrap_or_else(|| panic!("{id} missing"));
            assert_eq!(spec.full_size_bits(), *size, "{id}");
        }
    }

    #[test]
    fn unknown_spec_is_none() {
        assert!(table8_spec("S99").is_none());
    }

    #[test]
    fn s14_layout() {
        let c = SignatureConfig::s14_tm();
        assert_eq!(c.size_bits(), 2048);
        assert_eq!(c.num_fields(), 2);
        assert_eq!(c.field_range(0), 0..1024);
        assert_eq!(c.field_range(1), 1024..2048);
        assert_eq!(c.chunk_start(0), 0);
        assert_eq!(c.chunk_start(1), 10);
    }

    #[test]
    fn chunk_values_extract_permuted_fields() {
        // Identity permutation, chunks [4, 4] over key 0xAB -> C1=0xB, C2=0xA.
        let c = SignatureConfig::new(
            vec![4, 4],
            BitPermutation::identity(),
            Granularity::Line,
            64,
        );
        let vals: Vec<_> = c.chunk_values(0xAB).collect();
        assert_eq!(vals, vec![(0, 0xB), (1, 0xA)]);
    }

    #[test]
    fn chunk_beyond_key_width_reads_zero() {
        // Chunks summing past 32 bits: the overflow field always reads 0.
        let c = SignatureConfig::new(
            vec![20, 20],
            BitPermutation::identity(),
            Granularity::Line,
            64,
        );
        let vals: Vec<_> = c.chunk_values(u32::MAX).collect();
        assert_eq!(vals[0], (0, 0xF_FFFF));
        assert_eq!(vals[1], (1, 0xFFF)); // only 12 bits remain above bit 20
    }

    #[test]
    fn key_of_addr_respects_granularity() {
        let line_cfg = SignatureConfig::s14_tm();
        let word_cfg = SignatureConfig::s14_tls();
        let a = Addr::new(0x1234_5678);
        assert_eq!(line_cfg.key_of_addr(a), a.line(64).raw());
        assert_eq!(word_cfg.key_of_addr(a), a.word().raw());
    }

    #[test]
    fn paper_defaults_are_exactly_decodable() {
        let tm = SignatureConfig::s14_tm();
        assert!(tm.is_exactly_decodable(&CacheGeometry::tm_l1()));
        let tls = SignatureConfig::s14_tls();
        assert!(tls.is_exactly_decodable(&CacheGeometry::tls_l1()));
    }

    #[test]
    fn scrambled_index_bits_are_not_decodable() {
        // Move index bit 0 beyond the covered chunk range (chunks cover 4
        // bits; put source bit 0 at destination 5).
        let p = BitPermutation::from_map(vec![5, 1, 2, 3, 4, 0]).unwrap();
        let c = SignatureConfig::new(vec![2, 2], p, Granularity::Line, 64);
        assert!(!c.is_exactly_decodable(&CacheGeometry::tm_l1()));
    }

    #[test]
    #[should_panic(expected = "at least one C-field")]
    fn rejects_empty_chunks() {
        SignatureConfig::new(vec![], BitPermutation::identity(), Granularity::Line, 64);
    }

    #[test]
    #[should_panic(expected = "chunk sizes")]
    fn rejects_huge_chunks() {
        SignatureConfig::new(vec![21], BitPermutation::identity(), Granularity::Line, 64);
    }

    #[test]
    fn granularity_key_bits() {
        assert_eq!(Granularity::Line.key_bits(64), 26);
        assert_eq!(Granularity::Word.key_bits(64), 30);
    }
}
