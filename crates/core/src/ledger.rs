//! The pool's one ledger: every byte and entry-count book, moved in one
//! place.
//!
//! An entry charges exactly one [`Charge`], computed by [`charge`] from
//! its payload and byte count. The books are sums of those charges — per
//! rung (raw / compressed / spilled), the pool-wide resident total, the
//! entry count and the per-session resident counts the admission budget
//! slices — and [`Ledger::apply`] is the only code that moves any of them:
//!
//! | event                         | `before` → `after`            |
//! |-------------------------------|-------------------------------|
//! | insert                        | `None` → `Some`               |
//! | remove (evict, invalidate)    | `Some` → `None`               |
//! | compress, spill, promote, resize | `Some` → `Some`            |
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

use crate::entry::{Payload, PoolEntry};

/// What one entry charges to each rung book.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Charge {
    /// Resident bytes of raw payloads.
    pub raw: usize,
    /// Resident bytes of compressed blobs.
    pub compressed: usize,
    /// Bytes of spilled records — off the memory cap, counted against the
    /// spill budget.
    pub spilled: usize,
}

impl Charge {
    /// Bytes counted against the memory cap.
    pub fn resident(&self) -> usize {
        self.raw + self.compressed
    }
}

impl std::ops::AddAssign for Charge {
    fn add_assign(&mut self, c: Charge) {
        self.raw += c.raw;
        self.compressed += c.compressed;
        self.spilled += c.spilled;
    }
}

/// Classify an entry: which books its `bytes` belong in.
pub fn charge(payload: &Payload, bytes: usize) -> Charge {
    match payload {
        Payload::Raw(_) => Charge {
            raw: bytes,
            ..Charge::default()
        },
        Payload::Compressed(_) => Charge {
            compressed: bytes,
            ..Charge::default()
        },
        Payload::Spilled(ticket) => Charge {
            spilled: ticket.len as usize,
            ..Charge::default()
        },
    }
}

/// A plain-number image of every book: what [`Ledger::recompute`] derives
/// from the slabs and [`Ledger::books`] reads off the live counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Books {
    /// The sum of the resident entries' charges.
    pub rungs: Charge,
    /// Pool-wide resident bytes (`rungs.resident()`).
    pub bytes: usize,
    /// Resident entries.
    pub entries: usize,
    /// Resident entries per admitting session (sessions with none absent).
    pub by_session: BTreeMap<u64, u64>,
}

fn fields(c: Charge) -> [usize; 3] {
    [c.raw, c.compressed, c.spilled]
}

/// Move one book from `from` to `to`; a book the charge does not touch
/// (most of them, for any one entry) costs no atomic write.
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
    /// The rung books, in the field order of [`Charge`].
    rungs: [AtomicUsize; 3],
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
    /// to the `after` charge (`None` = not resident).
    pub(crate) fn apply(&self, session: u64, before: Option<Charge>, after: Option<Charge>) {
        let (b, a) = (before.unwrap_or_default(), after.unwrap_or_default());
        for (cell, (from, to)) in self.rungs.iter().zip(fields(b).into_iter().zip(fields(a))) {
            shift(cell, from, to);
        }
        shift(&self.bytes, b.resident(), a.resident());
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

    /// The rung books.
    pub(crate) fn rungs(&self) -> Charge {
        let [raw, compressed, spilled] = self.rungs.each_ref().map(|c| c.load(Ordering::Relaxed));
        Charge {
            raw,
            compressed,
            spilled,
        }
    }

    /// The live counters as a plain image.
    pub(crate) fn books(&self) -> Books {
        Books {
            rungs: self.rungs(),
            bytes: self.bytes(),
            entries: self.entries(),
            by_session: self.sessions().clone(),
        }
    }

    /// The single sum: every book re-derived from the resident entries.
    pub(crate) fn recompute<'a>(entries: impl Iterator<Item = &'a PoolEntry>) -> Books {
        let mut books = Books::default();
        for e in entries {
            let c = charge(e.payload(), e.bytes());
            books.rungs += c;
            books.bytes += c.resident();
            books.entries += 1;
            *books.by_session.entry(e.admitted_session).or_insert(0) += 1;
        }
        books
    }

    /// Overwrite every counter with `books` (quarantine repair, `clear`).
    /// The caller holds the table write lock.
    pub(crate) fn store(&self, books: &Books) {
        for (cell, v) in self.rungs.iter().zip(fields(books.rungs)) {
            cell.store(v, Ordering::Relaxed);
        }
        self.bytes.store(books.bytes, Ordering::Relaxed);
        self.entries.store(books.entries, Ordering::Relaxed);
        *self.sessions() = books.by_session.clone();
    }
}
