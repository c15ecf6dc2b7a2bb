//! The pool's one ledger: every byte and entry-count book, moved in one
//! place.
//!
//! An entry charges its byte count ([`PoolEntry::bytes`]), fixed at
//! admission: an entry is immutable while resident. The books are sums of
//! those charges — the pool-wide resident total and the entry count — and
//! two calls move them: [`Ledger::charge`] at insert and
//! [`Ledger::release`] at removal (eviction, invalidation). The caller holds the pool table's write lock, so the books change under
//! it; they are plain atomics read lock-free by the admission gate.
//! Because every book is a pure function of the resident entries,
//! [`Ledger::recompute`] re-derives all of them from the table: quarantine
//! repair stores that image, `check_invariants` and the write view's debug
//! drop compare against it.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::entry::PoolEntry;

/// A plain-number image of every book: what [`Ledger::recompute`] derives
/// from the slabs and [`Ledger::books`] reads off the live counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Books {
    /// Pool-wide resident bytes.
    pub bytes: usize,
    /// Resident entries.
    pub entries: usize,
}

/// The live books (see the module docs).
#[derive(Default)]
pub(crate) struct Ledger {
    bytes: AtomicUsize,
    entries: AtomicUsize,
}

impl Ledger {
    /// Book one inserted entry charging `bytes`.
    pub(crate) fn charge(&self, bytes: usize) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.entries.fetch_add(1, Ordering::Relaxed);
    }

    /// Book one removed entry that charged `bytes`.
    pub(crate) fn release(&self, bytes: usize) {
        self.bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.entries.fetch_sub(1, Ordering::Relaxed);
    }

    /// Pool-wide resident bytes.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Resident entries.
    pub(crate) fn entries(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// The live counters as a plain image.
    pub(crate) fn books(&self) -> Books {
        Books {
            bytes: self.bytes(),
            entries: self.entries(),
        }
    }

    /// The single sum: every book re-derived from the resident entries.
    pub(crate) fn recompute<'a>(entries: impl Iterator<Item = &'a PoolEntry>) -> Books {
        let mut books = Books::default();
        for e in entries {
            books.bytes += e.bytes();
            books.entries += 1;
        }
        books
    }

    /// Overwrite every counter with `books` (quarantine repair, `clear`).
    /// The caller holds the table write lock.
    pub(crate) fn store(&self, books: &Books) {
        self.bytes.store(books.bytes, Ordering::Relaxed);
        self.entries.store(books.entries, Ordering::Relaxed);
    }
}
