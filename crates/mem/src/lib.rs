//! Memory-system substrate for the Bulk reproduction.
//!
//! This crate provides the pieces of a multiprocessor memory system that the
//! Bulk Disambiguation architecture (Ceze et al., ISCA 2006) is layered on:
//!
//! * strongly typed addresses ([`Addr`], [`LineAddr`], [`WordAddr`]),
//! * a parameterised cache shape ([`CacheGeometry`]) matching the paper's
//!   Table 5 machines,
//! * a set-associative write-back data cache ([`Cache`]) deliberately kept
//!   free of any speculative metadata — exactly the property Bulk exploits,
//! * coherence/bandwidth accounting ([`MsgClass`], [`BandwidthStats`])
//!   matching the breakdown of the paper's Figure 13,
//! * the per-thread memory overflow area of §6.2.2 ([`OverflowArea`]), and
//! * the cheaply hashed set the exact oracle sets are kept in ([`AddrSet`]).
//!
//! # Example
//!
//! ```
//! use bulk_mem::{Addr, Cache, CacheGeometry};
//!
//! // The paper's TM L1: 32 KB, 4-way, 64 B lines (Table 5).
//! let geom = CacheGeometry::new(32 * 1024, 4, 64);
//! let mut cache = Cache::new(geom);
//! let line = Addr::new(0x1234_5678).line(geom.line_bytes());
//! assert!(!cache.contains(line));
//! cache.fill_clean(line);
//! assert!(cache.contains(line));
//! ```

#![warn(missing_docs)]

mod addr;
mod addr_set;
mod cache;
mod geometry;
mod msg;
mod overflow;

pub use addr::{Addr, LineAddr, WordAddr};
pub use addr_set::{AddrHasher, AddrSet};
pub use cache::{Cache, CacheLine, EvictedLine, LineState, StoreOutcome};
pub use geometry::CacheGeometry;
pub use msg::{BandwidthStats, MsgClass, MsgSizes};
pub use overflow::OverflowArea;
