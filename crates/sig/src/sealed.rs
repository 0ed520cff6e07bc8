//! Integrity-sealed signature transport for commit broadcasts.
//!
//! A committing processor never sends a raw [`Signature`] on the bus: the
//! payload is framed with a CRC-64 checksum so that transmission faults
//! (modeled by the chaos harness as single-bit flips) are *detected* at the
//! receiver and repaired by retransmission, never silently accepted. Any
//! CRC whose generator polynomial has more than one term detects every
//! single-bit error, so a flipped bit can cost bus occupancy but never
//! correctness — the same "performance, not correctness" contract the
//! paper makes for signature aliasing (§3).

use crate::Signature;

/// CRC-64/ECMA-182 generator polynomial (normal form).
const CRC64_POLY: u64 = 0x42F0_E1EB_A9EA_3693;

/// `CRC64_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes:
/// table 0 is the classic byte-at-a-time table, and the eight together
/// advance the CRC by a whole signature word per step (slicing-by-8).
const CRC64_TABLES: [[u64; 256]; 8] = {
    let mut t = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = (b as u64) << 56;
        let mut i = 0;
        while i < 8 {
            crc = if crc & (1 << 63) != 0 { (crc << 1) ^ CRC64_POLY } else { crc << 1 };
            i += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = t[0][(prev >> 56) as usize] ^ (prev << 8);
            b += 1;
        }
        k += 1;
    }
    t
};

/// Advances `crc` over eight message bytes at once.
#[inline]
fn crc64_step8(crc: u64, chunk: [u8; 8]) -> u64 {
    let x = (crc ^ u64::from_be_bytes(chunk)).to_be_bytes();
    let mut out = 0;
    for (i, &b) in x.iter().enumerate() {
        out ^= CRC64_TABLES[7 - i][b as usize];
    }
    out
}

/// CRC-64/ECMA-182 (zero initial value, no reflection, no final XOR) over
/// a byte stream. Every sealed broadcast is checksummed twice — at the
/// committer and at the receiver — so the CRC is table-driven.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut crc = 0u64;
    for c in &mut chunks {
        crc = crc64_step8(crc, c.try_into().expect("chunks_exact(8) yields 8 bytes"));
    }
    for &b in chunks.remainder() {
        crc = CRC64_TABLES[0][((crc >> 56) as u8 ^ b) as usize] ^ (crc << 8);
    }
    crc
}

/// The CRC of a signature's canonical flat bits, words in little-endian
/// byte order.
fn signature_crc(sig: &Signature) -> u64 {
    let mut crc = 0;
    sig.for_each_flat_word(|w| crc = crc64_step8(crc, w.to_le_bytes()));
    crc
}

/// A commit-broadcast signature framed with its CRC-64 checksum.
///
/// [`SealedSignature::open`] models the receive side of the bus: the CRC is
/// recomputed and, on mismatch, the receiver NACKs and the committer
/// retransmits the pristine payload (kept here for exactly that purpose).
#[derive(Debug, Clone)]
pub struct SealedSignature {
    payload: Signature,
    crc: u64,
    /// The original payload, retained once [`corrupt_bit`] has damaged
    /// `payload` — the model of the committer's retransmission buffer.
    ///
    /// [`corrupt_bit`]: SealedSignature::corrupt_bit
    pristine: Option<Box<Signature>>,
}

/// The receiver-side result of opening a [`SealedSignature`].
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The signature the receiver acts on (post-repair if a corruption was
    /// detected and the pristine payload retransmitted).
    pub signature: Signature,
    /// The CRC caught a corrupted payload; a retransmission was charged.
    pub corruption_detected: bool,
    /// The payload was corrupted yet the CRC matched. Impossible for the
    /// single-bit faults the chaos harness injects; audited as an
    /// invariant violation if it ever fires.
    pub silent_corruption: bool,
}

impl SealedSignature {
    /// Frames `sig` with its checksum, as the committer's bus interface does.
    pub fn seal(sig: Signature) -> Self {
        let crc = signature_crc(&sig);
        SealedSignature { payload: sig, crc, pristine: None }
    }

    /// Number of payload bits — the valid range for [`corrupt_bit`].
    ///
    /// [`corrupt_bit`]: SealedSignature::corrupt_bit
    pub fn size_bits(&self) -> u64 {
        self.payload.config().size_bits()
    }

    /// Flips one in-flight payload bit (a bus transmission fault). The CRC
    /// is *not* recomputed — that is the point — and the pristine payload
    /// is retained as the retransmission buffer.
    pub fn corrupt_bit(&mut self, bit: u64) {
        let bit = bit % self.size_bits().max(1);
        if self.pristine.is_none() {
            self.pristine = Some(Box::new(self.payload.clone()));
        }
        let mut bits = self.payload.flat_bits();
        bits[(bit / 64) as usize] ^= 1u64 << (bit % 64);
        self.payload = Signature::from_flat_bits(self.payload.config().clone(), &bits);
    }

    /// Receiver-side CRC check of the in-flight payload.
    pub fn verify(&self) -> bool {
        signature_crc(&self.payload) == self.crc
    }

    /// Opens the frame at the receiver: verifies the CRC, repairs via the
    /// pristine retransmission buffer on mismatch, and reports what it saw.
    pub fn open(self) -> Delivery {
        let intact = self.verify();
        match (intact, self.pristine) {
            // Clean delivery.
            (true, None) => Delivery {
                signature: self.payload,
                corruption_detected: false,
                silent_corruption: false,
            },
            // Corrupted but the CRC matched anyway: deliver the damaged
            // payload so the auditor can observe the consequences.
            (true, Some(_)) => Delivery {
                signature: self.payload,
                corruption_detected: false,
                silent_corruption: true,
            },
            // CRC mismatch: NACK + retransmit of the pristine payload.
            (false, Some(pristine)) => Delivery {
                signature: *pristine,
                corruption_detected: true,
                silent_corruption: false,
            },
            (false, None) => unreachable!("CRC mismatch on an uncorrupted payload"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignatureConfig;
    use bulk_mem::Addr;

    fn sample() -> Signature {
        let mut s = Signature::with_shared(SignatureConfig::s14_tm().into_shared());
        for a in [0x1000u32, 0x2040, 0x80c0, 0x1_0000] {
            s.insert_addr(Addr::new(a));
        }
        s
    }

    #[test]
    fn clean_seal_opens_intact() {
        let sig = sample();
        let d = SealedSignature::seal(sig.clone()).open();
        assert!(!d.corruption_detected && !d.silent_corruption);
        assert_eq!(d.signature, sig);
    }

    #[test]
    fn crc_differs_for_different_signatures() {
        let a = SealedSignature::seal(sample());
        let empty = Signature::with_shared(SignatureConfig::s14_tm().into_shared());
        let b = SealedSignature::seal(empty);
        assert_ne!(a.crc, b.crc);
    }

    #[test]
    fn every_single_bit_flip_is_detected_and_repaired() {
        let sig = sample();
        let bits = sig.config().size_bits();
        // Stride through the whole payload (every bit would be O(bits^2)
        // CRC work); the all-bits guarantee is structural to CRC.
        for bit in (0..bits).step_by(7) {
            let mut sealed = SealedSignature::seal(sig.clone());
            sealed.corrupt_bit(bit);
            let d = sealed.open();
            assert!(d.corruption_detected, "flip of bit {bit} went undetected");
            assert!(!d.silent_corruption);
            assert_eq!(d.signature, sig, "repair after flip of bit {bit}");
        }
    }

    /// The bit-serial definition the tables are built from.
    fn crc64_bitwise(bytes: &[u8]) -> u64 {
        let mut crc: u64 = 0;
        for &b in bytes {
            crc ^= u64::from(b) << 56;
            for _ in 0..8 {
                crc = if crc & (1 << 63) != 0 { (crc << 1) ^ CRC64_POLY } else { crc << 1 };
            }
        }
        crc
    }

    #[test]
    fn table_crc_equals_the_bit_serial_reference() {
        assert_eq!(crc64(b"123456789"), 0x6C40_DF5F_0B49_7347, "ECMA-182 check value");
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for len in [0, 1, 7, 8, 9, 255, 4096] {
            assert_eq!(crc64(&noise[..len]), crc64_bitwise(&noise[..len]), "{len} bytes");
        }
    }

    #[test]
    fn sealing_checksums_the_flat_bits_as_le_bytes() {
        let sig = sample();
        let bytes: Vec<u8> = sig.flat_bits().iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(SealedSignature::seal(sig).crc, crc64_bitwise(&bytes));
    }

    #[test]
    fn crc64_known_properties() {
        assert_eq!(crc64(&[]), 0);
        assert_ne!(crc64(b"123456789"), 0);
        // Single-bit sensitivity at the byte level.
        assert_ne!(crc64(&[0x01]), crc64(&[0x00]));
        assert_ne!(crc64(&[0x80, 0x00]), crc64(&[0x00, 0x00]));
    }
}
