//! Address signatures and primitive bulk operations — the core mechanism of
//! *Bulk Disambiguation of Speculative Threads in Multiprocessors*
//! (Ceze, Tuck, Caşcaval & Torrellas, ISCA 2006).
//!
//! A [`Signature`] is a fixed-size register that hash-encodes a set of
//! addresses (a Bloom-filter variant, paper §3.1): the address is permuted
//! ([`BitPermutation`]), sliced into C-fields, and each field is decoded and
//! OR-ed into a V-field. The crate provides:
//!
//! * the primitive operations of the paper's Table 1 — intersection,
//!   union, emptiness, membership ([`Signature`]) and the exact cache-set
//!   decode δ ([`Signature::decode_sets`], [`SetBitmask`]);
//! * the composite operations — signature expansion over a cache
//!   ([`Signature::expand`], §3.3) and the updated-word bitmask with
//!   line merging ([`Signature::updated_word_bitmask`], [`merge_line`],
//!   §4.4);
//! * run-length compression for commit broadcasts
//!   ([`Signature::compress`], §6.1); and
//! * the full configuration catalog of the paper's Table 8
//!   ([`table8`], [`SignatureConfig`]), including the default `S14`
//!   configurations and Table 5 bit permutations.
//!
//! # Example: bulk address disambiguation
//!
//! ```
//! use bulk_sig::{Signature, SignatureConfig};
//! use bulk_mem::Addr;
//!
//! let cfg = SignatureConfig::s14_tm().into_shared();
//! let mut w_committing = Signature::with_shared(cfg.clone());
//! let mut r_receiver = Signature::with_shared(cfg);
//!
//! w_committing.insert_addr(Addr::new(0x1000));
//! r_receiver.insert_addr(Addr::new(0x2000));
//!
//! // Disjoint accesses: the receiver need not be squashed.
//! assert!(!w_committing.intersects(&r_receiver));
//! ```

#![warn(missing_docs)]

mod config;
mod decode;
mod expansion;
mod permute;
mod rle;
mod sealed;
mod signature;
mod word_bitmask;

pub use config::{table8, table8_spec, Granularity, SignatureConfig, SignatureSpec, LANES};
pub use decode::SetBitmask;
pub use expansion::ExpandedLine;
pub use permute::{BitPermutation, InvalidPermutationError};
pub use rle::CompressedSignature;
pub use sealed::{crc64, Delivery, SealedSignature};
pub use signature::{ConfigMismatch, Signature};
pub use word_bitmask::{merge_line, WordBitmask};