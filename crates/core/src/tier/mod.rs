//! Tiered residency for cached intermediates.
//!
//! The recycle pool stores every intermediate raw until memory pressure
//! turns admission into eviction. This module turns that binary choice
//! into a demotion ladder:
//!
//! ```text
//! hot raw  →  compressed (in place)  →  spilled (block file)  →  gone
//! ```
//!
//! - [`codec`] holds the lightweight columnar codecs (RLE, dictionary,
//!   frame-of-reference, verbatim fallback) and the [`codec::CompressedBat`]
//!   blob format shared by both cold tiers.
//! - [`spill`] is the append-only block file plus in-memory index that
//!   backs the coldest tier.
//! - Where an entry sits on the ladder is its
//!   [`Payload`](crate::entry::Payload) variant (`Raw`, `Compressed`,
//!   `Spilled`); the transition table is documented there, once. The
//!   pool's [ledger](crate::ledger) books each rung separately, so
//!   `check_invariants` can prove `raw + compressed == resident bytes` at
//!   any instant (spilled bytes are tracked off-cap, against the
//!   spill budget).
//!
//! The background collector drives demotions generationally: minor
//! rounds compress nursery-cold entries one rung before the evict path
//! would fire, and only the coldest compressed entries move to disk.
//! A hit on a demoted entry decompresses/rehydrates *outside* the table
//! lock, re-promotes the entry to raw, and records the paid cost in the
//! recycler stats — so the ladder trades a bounded CPU/IO cost for
//! evictions that would otherwise forfeit the intermediate entirely.

pub mod codec;
pub mod spill;

pub use codec::{Codec, CodecError, CompressedBat};
pub use spill::{SpillFile, SpillTicket};
