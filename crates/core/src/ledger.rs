//! The pool's one ledger: every byte and entry-count book, moved in one
//! place.
//!
//! An entry charges its byte count ([`PoolEntry::bytes`]). The books are
//! sums of those charges — the pool-wide resident total, the entry count
//! and the per-session resident counts the admission budget slices — and
//! [`Ledger::apply`] is the only code that moves any of them:
//!
//! | event                         | `before` → `after`            |
//! |-------------------------------|-------------------------------|
//! | insert                        | `None` → `Some`               |
//! | remove (evict, invalidate)    | `Some` → `None`               |
//! | rewrite (delta propagation)   | `Some` → `Some`               |
//!
//! The caller holds the pool table's write lock, so the books change under
//! it; they are plain atomics read lock-free by the admission gate.
//! Because every book is a pure function of the resident entries,
//! [`Ledger::recompute`] re-derives all of them from the table: quarantine
//! repair stores that image, `check_invariants` and the write view's debug
//! drop compare against it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::entry::PoolEntry;

/// A plain-number image of every book: what [`Ledger::recompute`] derives
/// from the slabs and [`Ledger::books`] reads off the live counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Books {
    /// Pool-wide resident bytes.
    pub bytes: usize,
    /// Resident entries.
    pub entries: usize,
    /// Resident entries per admitting session (sessions with none absent).
    pub by_session: BTreeMap<u64, u64>,
}

/// Move one book from `from` to `to`; an unchanged book costs no atomic
/// write.
fn shift(cell: &AtomicUsize, from: usize, to: usize) {
    if to > from {
        cell.fetch_add(to - from, Ordering::Relaxed);
    } else if to < from {
        cell.fetch_sub(from - to, Ordering::Relaxed);
    }
}

/// The live books (see the module docs).
#[derive(Default)]
pub(crate) struct Ledger {
    bytes: AtomicUsize,
    entries: AtomicUsize,
    /// Resident entries per admitting session. A leaf lock: taken for one
    /// counter move, nothing is acquired while it is held.
    by_session: Mutex<BTreeMap<u64, u64>>,
}

impl Ledger {
    fn sessions(&self) -> MutexGuard<'_, BTreeMap<u64, u64>> {
        self.by_session
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Move the books for one entry of `session` from the `before` charge
    /// to the `after` charge, in bytes (`None` = not resident).
    pub(crate) fn apply(&self, session: u64, before: Option<usize>, after: Option<usize>) {
        shift(
            &self.bytes,
            before.unwrap_or_default(),
            after.unwrap_or_default(),
        );
        match (before.is_some(), after.is_some()) {
            (false, true) => {
                self.entries.fetch_add(1, Ordering::Relaxed);
                *self.sessions().entry(session).or_insert(0) += 1;
            }
            (true, false) => {
                self.entries.fetch_sub(1, Ordering::Relaxed);
                let mut sessions = self.sessions();
                if let Some(n) = sessions.get_mut(&session) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        sessions.remove(&session);
                    }
                }
            }
            _ => {}
        }
    }

    /// Pool-wide resident bytes.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Resident entries.
    pub(crate) fn entries(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Resident entries admitted by `session`.
    pub(crate) fn resident_of_session(&self, session: u64) -> u64 {
        self.sessions().get(&session).copied().unwrap_or(0)
    }

    /// The live counters as a plain image.
    pub(crate) fn books(&self) -> Books {
        Books {
            bytes: self.bytes(),
            entries: self.entries(),
            by_session: self.sessions().clone(),
        }
    }

    /// The single sum: every book re-derived from the resident entries.
    pub(crate) fn recompute<'a>(entries: impl Iterator<Item = &'a PoolEntry>) -> Books {
        let mut books = Books::default();
        for e in entries {
            books.bytes += e.bytes();
            books.entries += 1;
            *books.by_session.entry(e.admitted_session).or_insert(0) += 1;
        }
        books
    }

    /// Overwrite every counter with `books` (quarantine repair, `clear`).
    /// The caller holds the table write lock.
    pub(crate) fn store(&self, books: &Books) {
        self.bytes.store(books.bytes, Ordering::Relaxed);
        self.entries.store(books.entries, Ordering::Relaxed);
        *self.sessions() = books.by_session.clone();
    }
}
