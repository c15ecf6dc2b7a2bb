//! The recycle pool: what each entry holds, and where.
//!
//! The pool is a concurrent structure: the fingerprint-keyed entry tables
//! are split into N independent shards (N = the next power of two ≥ 2×
//! the core count) so that admissions from different sessions touch
//! disjoint locks and the exact-match hit path takes one shard **read**
//! lock and nothing else. This module owns every question about an
//! entry's *content* — the shard tables, the [ledger](crate::ledger), the
//! residency transitions, quarantine and repair. Every question about
//! *ids* — where an id is filed, who feeds whom, which entries are
//! evictable leaves, which results subsume which, which entries derive from
//! a base column — belongs to the one [lineage graph](crate::lineage), kept
//! behind one `RwLock` that is always taken last and held for a single map
//! operation. See
//! [`crate::shared`] for the full locking model.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use rbat::hash::FxHashSet;
use rbat::BatId;
use rmal::Opcode;

use crate::entry::{Anchors, EntryId, Payload, PoolEntry};
use crate::ledger::{charge, Books, Ledger};
use crate::lineage::{LineageGraph, Resolved};
use crate::signature::{ArgSig, FingerprintMap, Sig, SigRef};

/// Outcome of [`RecyclePool::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admitted {
    /// The entry was inserted under this id.
    Inserted(EntryId),
    /// An equivalent entry was already resident under this id; the
    /// candidate was dropped, the resident entry was pinned on behalf of
    /// the losing session, and the loser's result BAT was aliased onto the
    /// winner (all atomically under the shard lock).
    Duplicate(EntryId),
    /// A parent entry disappeared between resolution and insertion (an
    /// update invalidated it); the candidate was dropped — admitting it
    /// would leave a dangling lineage link.
    Orphaned,
    /// The target shard is quarantined after a poisoning panic (see
    /// [`RecyclePool::repair`]); the candidate was rejected without
    /// touching the shard. The caller refunds its admission charge —
    /// degraded mode costs a cache miss, never a wrong answer.
    Quarantined,
}

impl Admitted {
    /// The resident entry id, whoever admitted it.
    ///
    /// # Panics
    /// Panics on [`Admitted::Orphaned`] and [`Admitted::Quarantined`],
    /// which leave nothing resident.
    pub fn id(self) -> EntryId {
        match self {
            Admitted::Inserted(id) | Admitted::Duplicate(id) => id,
            Admitted::Orphaned => panic!("orphaned admission has no resident entry"),
            Admitted::Quarantined => panic!("quarantined admission has no resident entry"),
        }
    }

    /// Did this call insert the entry?
    pub fn inserted(self) -> bool {
        matches!(self, Admitted::Inserted(_))
    }
}

thread_local! {
    static READ_LOCKS: Cell<u64> = const { Cell::new(0) };
    static GRAPH_LOCKS: Cell<u64> = const { Cell::new(0) };
}

/// One fingerprint shard: the entries whose signature fingerprints map
/// here, in ONE table keyed by that fingerprint — slab and exact-match
/// index at once, so a probe is a single identity-hashed lookup. Should a
/// different signature ever claim an occupied fingerprint it goes to the
/// `collided` list, and every access tells the two apart by signature or
/// id. Everything in a shard is guarded by the shard's `RwLock`.
#[derive(Default)]
struct Shard {
    slots: FingerprintMap<PoolEntry>,
    collided: Vec<(u64, PoolEntry)>,
}

impl Shard {
    /// Every entry with the key it is filed under.
    fn filed(&self) -> impl Iterator<Item = (u64, &PoolEntry)> {
        let collided = self.collided.iter().map(|(k, e)| (*k, e));
        self.slots.iter().map(|(k, e)| (*k, e)).chain(collided)
    }

    fn entries(&self) -> impl Iterator<Item = &PoolEntry> {
        self.filed().map(|(_, e)| e)
    }

    /// The entry under `key` that satisfies `is`: a signature check (the
    /// verify step of an exact-match probe) or an id.
    fn find(&self, key: u64, is: impl Fn(&PoolEntry) -> bool) -> Option<&PoolEntry> {
        let collided = self.collided.iter().filter(|(k, _)| *k == key);
        let primary = self.slots.get(&key).into_iter();
        primary.chain(collided.map(|(_, e)| e)).find(|e| is(e))
    }

    fn get_mut(&mut self, key: u64, id: EntryId) -> Option<&mut PoolEntry> {
        let collided = self.collided.iter_mut().map(|(_, e)| e);
        let primary = self.slots.get_mut(&key).into_iter();
        primary.chain(collided).find(|e| e.id == id)
    }

    fn insert(&mut self, key: u64, entry: PoolEntry) {
        match self.slots.entry(key) {
            Entry::Occupied(_) => self.collided.push((key, entry)),
            Entry::Vacant(slot) => _ = slot.insert(entry),
        }
    }

    fn remove(&mut self, key: u64, id: EntryId) -> Option<PoolEntry> {
        if self.slots.get(&key).is_some_and(|e| e.id == id) {
            return self.slots.remove(&key);
        }
        let at = self.collided.iter().position(|(_, e)| e.id == id)?;
        Some(self.collided.swap_remove(at).1)
    }
}

/// The default shard count: the next power of two at or above twice the
/// core count, floored at 8 so sharding stays observable on small hosts.
fn default_shard_count() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (2 * cores).next_power_of_two().max(8)
}

/// The recycler's resource pool of intermediates (paper §3.2): the entry
/// tables, sharded by signature fingerprint, and the one
/// [lineage graph](crate::lineage) over their ids.
///
/// # Concurrency
///
/// All methods take `&self`; locking is internal. Probes (`lookup`,
/// [`Self::probe`]) take one shard **read** lock; id-based reads
/// ([`Self::entry`]) first ask the graph where the id is filed;
/// [`Self::candidates`] and [`Self::is_subset`] read the graph alone.
/// [`Self::insert`] and the removal paths write-lock exactly one shard and,
/// inside it, the graph once; updates/propagation write-lock only the
/// shards holding affected entries through [`Self::scoped_view`] (the
/// all-shard [`Self::write_view`] remains for maintenance). Every stored
/// result `Value` is `Arc`-shared — a result cloned out of the pool stays
/// valid after the entry is evicted or invalidated. The graph changes only
/// while at least one shard lock is held, so a scoped view holding the
/// write locks of every affected shard observes fully wired, quiescent
/// lineage for those entries.
pub struct RecyclePool {
    shards: Box<[RwLock<Shard>]>,
    /// Every byte and entry-count book (per-shard rung books, resident
    /// totals, per-session resident counts — the book the per-session
    /// admission budget reads). Moved only by [`Ledger::apply`], called
    /// from the insert/remove funnels ([`Self::insert`] / `remove_locked`)
    /// and the one residency transition, always under the owning shard's
    /// write lock — so every removal path (eviction, invalidation,
    /// propagation rekey clashes) releases the admitting session's budget
    /// automatically.
    ledger: Ledger,
    /// The spill block file backing [`Payload::Spilled`] entries, when the
    /// database opted in via `spill_dir`.
    spill: Option<Arc<crate::tier::SpillFile>>,
    /// ANDed onto every fingerprint before it keys anything: all ones,
    /// except where a test masks bits away to force collisions.
    fp_mask: u64,
    /// The lineage graph, behind the pool's innermost lock: taken through
    /// [`Self::graph`] / [`Self::graph_mut`] for one plain map operation
    /// at a time, with nothing acquired while it is held.
    lineage: RwLock<LineageGraph>,
    next_id: AtomicU64,
    /// Shard write-lock acquisitions since construction — the probe for
    /// the "exact-match hits take no write lock" invariant.
    write_acquisitions: AtomicU64,
    /// The same counter, per shard — the probe for the scoped-update
    /// invariant: a commit write-locks only the shards holding entries in
    /// its lineage closure.
    shard_write_acquisitions: Box<[AtomicU64]>,
    /// Entries visited by eviction gathers since construction — the probe
    /// for the "gather cost is O(leaves), independent of pool size"
    /// invariant the leaf set buys.
    gather_visited: AtomicU64,
    /// Eviction gather rounds since construction (the divisor for
    /// per-round gather cost).
    gather_rounds: AtomicU64,
    /// Serialises structural multi-shard writers (scoped views, the
    /// all-shard view, `clear`, `check_invariants`). With at most one such
    /// writer alive, a view may acquire an extra shard lock *out of
    /// ascending order* (rekey migration, racing child admissions) without
    /// deadlock: every other thread holds at most one shard lock at a time
    /// and never blocks on a second while holding it.
    update_lock: Mutex<()>,
    /// Per-shard quarantine bits — the degraded-mode source of truth. A
    /// bit is raised the first time a shard's `RwLock` is observed
    /// poisoned (a panic unwound through a writer holding it, so its
    /// slab/index wiring may be torn). While raised: probes against the
    /// shard degrade to misses, admissions targeting it come back as
    /// [`Admitted::Quarantined`], and eviction skips it — a miss is
    /// always correct, torn state is never served or extended. Only
    /// [`Self::repair`] (under the maintenance guard) or [`Self::clear`]
    /// lower a bit.
    quarantined: Box<[AtomicBool]>,
    /// Shards currently quarantined (O(1) `has_quarantined` probe on the
    /// commit path).
    quarantined_count: AtomicUsize,
    /// Cumulative shards ever quarantined (stats).
    quarantined_total: AtomicU64,
    /// Cumulative shards repaired and returned to service (stats).
    repaired_total: AtomicU64,
}

/// What [`RecyclePool::repair`] did — counts for the stats layer and
/// for byte-book assertions in tests.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// Shards that were quarantined and have been returned to service.
    pub shards_repaired: Vec<usize>,
    /// Entries dropped: torn (half-wired) residents of repaired shards
    /// plus any entry whose lineage chain died with them.
    pub entries_dropped: usize,
    /// Bytes of the dropped entries; the ledger is recomputed from the
    /// surviving slabs, healing any counter drift a mid-flight panic left.
    pub bytes_dropped: usize,
}

impl std::fmt::Debug for RecyclePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecyclePool")
            .field("shards", &self.shards.len())
            .field("entries", &self.len())
            .field("bytes", &self.bytes())
            .finish()
    }
}

impl Default for RecyclePool {
    fn default() -> RecyclePool {
        RecyclePool::new()
    }
}

impl RecyclePool {
    /// Empty pool with the default shard count (next power of two ≥
    /// 2×cores, at least 8).
    pub fn new() -> RecyclePool {
        RecyclePool::with_shards(default_shard_count())
    }

    /// Empty pool with an explicit shard count (rounded up to a power of
    /// two, minimum 1). Benchmarks use 1 to reproduce the pre-shard
    /// single-lock behaviour.
    pub fn with_shards(n: usize) -> RecyclePool {
        let n = n.max(1).next_power_of_two();
        RecyclePool {
            fp_mask: u64::MAX,
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            ledger: Ledger::new(n),
            spill: None,
            lineage: RwLock::new(LineageGraph::default()),
            next_id: AtomicU64::new(0),
            write_acquisitions: AtomicU64::new(0),
            shard_write_acquisitions: (0..n).map(|_| AtomicU64::new(0)).collect(),
            gather_visited: AtomicU64::new(0),
            gather_rounds: AtomicU64::new(0),
            update_lock: Mutex::new(()),
            quarantined: (0..n).map(|_| AtomicBool::new(false)).collect(),
            quarantined_count: AtomicUsize::new(0),
            quarantined_total: AtomicU64::new(0),
            repaired_total: AtomicU64::new(0),
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a signature belongs to. Deterministic for the pool's
    /// lifetime.
    pub fn shard_of(&self, sig: &Sig) -> usize {
        self.shard_at(sig.fingerprint() & self.fp_mask)
    }

    /// The shard holding table key `key`: middle bits — the table takes
    /// its bucket from the bottom and its tag from the top of the word,
    /// and one shard's keys must not agree on either.
    fn shard_at(&self, key: u64) -> usize {
        (key >> 32) as usize & (self.shards.len() - 1)
    }

    /// Where entry `id` is filed: `(shard, table key)`.
    fn locate(&self, id: EntryId) -> Option<(usize, u64)> {
        let key = self.graph().locate(id)?;
        Some((self.shard_at(key), key))
    }

    /// The lineage graph for one read. Callers use the guard within a
    /// single expression: nothing is locked, and no caller code runs,
    /// while it is held.
    fn graph(&self) -> RwLockReadGuard<'_, LineageGraph> {
        GRAPH_LOCKS.with(|n| n.set(n.get() + 1));
        self.lineage.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The lineage graph for one whole-step mutation (see [`Self::graph`]).
    /// The caller holds a shard lock.
    fn graph_mut(&self) -> RwLockWriteGuard<'_, LineageGraph> {
        GRAPH_LOCKS.with(|n| n.set(n.get() + 1));
        self.lineage.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lineage-graph lock acquisitions (either mode) by the calling thread,
    /// on any pool — the test probe for the miss-path budget: none per
    /// exact hit, one `resolve` and one `wire` per admission, one `unwire`
    /// per removal, one read per leaf gather.
    pub fn graph_locks_on_this_thread() -> u64 {
        GRAPH_LOCKS.with(Cell::get)
    }

    /// Resident bytes of one shard (its raw plus compressed books).
    pub fn shard_bytes(&self, shard: usize) -> usize {
        self.ledger.shard(shard).resident()
    }

    /// Shard write-lock acquisitions since construction. The exact-match
    /// hit path must never advance this counter — tests pin that down.
    pub fn write_lock_acquisitions(&self) -> u64 {
        self.write_acquisitions.load(Ordering::Relaxed)
    }

    /// Shard read locks the calling thread has taken, on any pool — the
    /// test probe for "an exact hit is one shard read lock" (thread-local:
    /// counting costs the hit path no shared write).
    pub fn read_locks_on_this_thread() -> u64 {
        READ_LOCKS.with(Cell::get)
    }

    /// Per-shard write-lock acquisitions since construction, indexed by
    /// shard. The scoped-update invariant reads off this: a commit touching
    /// one table must advance only the counters of shards holding entries
    /// in its lineage closure — every other shard's counter stays put.
    pub fn write_lock_acquisitions_by_shard(&self) -> Vec<u64> {
        self.shard_write_acquisitions
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    fn read_shard(&self, i: usize) -> RwLockReadGuard<'_, Shard> {
        READ_LOCKS.with(|n| n.set(n.get() + 1));
        match self.shards[i].read() {
            Ok(g) => g,
            Err(poisoned) => {
                self.note_poison(i);
                poisoned.into_inner()
            }
        }
    }

    fn write_shard(&self, i: usize) -> RwLockWriteGuard<'_, Shard> {
        self.write_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.shard_write_acquisitions[i].fetch_add(1, Ordering::Relaxed);
        match self.shards[i].write() {
            Ok(g) => g,
            Err(poisoned) => {
                self.note_poison(i);
                poisoned.into_inner()
            }
        }
    }

    /// Raise shard `i`'s quarantine bit (idempotent). Called the moment
    /// poison is observed — at a lock acquisition or a lock-free
    /// `is_poisoned` probe on the hit path.
    fn note_poison(&self, i: usize) {
        if !self.quarantined[i].swap(true, Ordering::AcqRel) {
            self.quarantined_count.fetch_add(1, Ordering::Relaxed);
            self.quarantined_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// May shard `i` serve probes and admissions? False once the shard
    /// is quarantined — including the very first probe after the
    /// poisoning panic, via the lock's own poison flag (two relaxed-ish
    /// atomic loads; the exact-match hit path pays exactly this).
    fn shard_serviceable(&self, i: usize) -> bool {
        if self.quarantined[i].load(Ordering::Acquire) {
            return false;
        }
        if self.shards[i].is_poisoned() {
            self.note_poison(i);
            return false;
        }
        true
    }

    /// Is shard `i` currently quarantined?
    pub fn is_quarantined(&self, i: usize) -> bool {
        !self.shard_serviceable(i)
    }

    /// Does any shard currently sit in quarantine? O(1); the commit path
    /// consults this to refuse updates through torn state.
    pub fn has_quarantined(&self) -> bool {
        if self.quarantined_count.load(Ordering::Acquire) > 0 {
            return true;
        }
        // A poisoned shard nobody has touched since the panic hasn't
        // raised its bit yet; sweep the cheap lock flags.
        (0..self.shards.len()).any(|i| !self.shard_serviceable(i))
    }

    /// Indexes of the shards currently quarantined.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| !self.shard_serviceable(i))
            .collect()
    }

    /// Cumulative shards ever quarantined (monotone; stats).
    pub fn shards_quarantined_total(&self) -> u64 {
        self.quarantined_total.load(Ordering::Relaxed)
    }

    /// Cumulative shards repaired and returned to service (monotone;
    /// stats).
    pub fn shards_repaired_total(&self) -> u64 {
        self.repaired_total.load(Ordering::Relaxed)
    }

    fn lock_update(&self) -> MutexGuard<'_, ()> {
        self.update_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of entries ("cache lines").
    pub fn len(&self) -> usize {
        self.ledger.entries()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total resident bytes of stored intermediates.
    pub fn bytes(&self) -> usize {
        self.ledger.bytes()
    }

    /// Allocate the next entry id (monotone, never reused — also across
    /// [`Self::clear`], so stale references can never alias a new entry).
    pub fn alloc_id(&self) -> EntryId {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Drop every entry and index while keeping the id counter monotone.
    ///
    /// Atomic with respect to concurrent sessions: every shard write lock
    /// is held at once (ascending order) while the slabs, the lineage
    /// indexes and the counters are wiped — a racing admission lands
    /// either entirely before the clear (and is wiped) or entirely after
    /// it (and stays fully wired). A shard-at-a-time clear would let an
    /// insert slip into an already-cleared shard and then lose its graph
    /// node, leaving an immortal, unreachable entry.
    pub fn clear(&self) {
        let _writer = self.lock_update();
        let mut guards: Vec<RwLockWriteGuard<'_, Shard>> = (0..self.shards.len())
            .map(|i| self.write_shard(i))
            .collect();
        for sh in guards.iter_mut() {
            sh.slots.clear();
            sh.collided.clear();
        }
        self.ledger
            .store(&Ledger::recompute(guards.len(), std::iter::empty()));
        if let Some(spill) = &self.spill {
            spill.clear();
        }
        *self.graph_mut() = LineageGraph::default();
        // A full wipe trivially restores every invariant: lift any
        // quarantine and un-poison the locks — while the write guards
        // are still held, so no probe can observe a poisoned lock with
        // its quarantine bit already lowered.
        for (i, q) in self.quarantined.iter().enumerate() {
            self.shards[i].clear_poison();
            if q.swap(false, Ordering::AcqRel) {
                self.quarantined_count.fetch_sub(1, Ordering::Relaxed);
            }
        }
        drop(guards);
    }

    /// Repair every quarantined shard and return it to service.
    ///
    /// A panic that unwound through a shard write lock can leave *torn*
    /// state: an exact-match key without its slab entry, a leaf/owner
    /// listing for an id that never became resident, byte counters that
    /// drifted from the slab. Quarantine froze all of it (probes miss,
    /// admissions bounce, eviction skips); this pass — meant to run
    /// under the maintenance guard, see
    /// [`crate::shared::MaintenanceGuard::repair_quarantined`] — makes
    /// the frozen state consistent again:
    ///
    /// 1. every shard write lock is taken at once (ascending, under the
    ///    update mutex), so the pass owns all pool state;
    /// 2. quarantined tables are refiled entry by entry, dropping misfiled
    ///    and duplicate-signature residents;
    /// 3. entries whose lineage chain died (a dropped ancestor anywhere)
    ///    are cascaded out — a child may never outlive its parents;
    /// 4. the lineage graph is replaced by [`LineageGraph::rebuild`] over
    ///    the surviving slabs (aliases and subset edges carried over for
    ///    survivors only);
    /// 5. the ledger is overwritten with [`Ledger::recompute`] over the
    ///    survivors (healing drift in either direction), lock poison is
    ///    cleared and the quarantine bits lowered while the write guards
    ///    are still held.
    ///
    /// Afterwards [`Self::check_invariants`] holds again (tests assert
    /// it). Dropped entries cost misses, never wrong answers: their
    /// results were only reachable through indexes this pass prunes,
    /// and pins held on them by in-flight queries unpin as no-ops.
    pub fn repair(&self) -> RepairReport {
        let _writer = self.lock_update();
        let mut guards: Vec<RwLockWriteGuard<'_, Shard>> = (0..self.shards.len())
            .map(|i| self.write_shard(i))
            .collect();
        // With every lock held, each poisoned shard has been observed by
        // `write_shard` and carries its quarantine bit.
        let broken: Vec<usize> = (0..self.shards.len())
            .filter(|&i| self.quarantined[i].load(Ordering::Acquire))
            .collect();
        if broken.is_empty() {
            return RepairReport::default();
        }
        let mut dropped: Vec<PoolEntry> = Vec::new();
        // 2. Slab-local coherence for the broken shards.
        for &si in &broken {
            let sh = &mut *guards[si];
            let mut torn: Vec<(u64, PoolEntry)> =
                (sh.slots.drain()).chain(sh.collided.drain(..)).collect();
            // Two residents with one signature cannot both stay; refiling
            // oldest id first keeps the one insert would have kept
            // (first-writer-wins).
            torn.sort_unstable_by_key(|(_, e)| e.id);
            for (key, e) in torn {
                let misfiled =
                    (e.sig.fingerprint() & self.fp_mask) != key || self.shard_at(key) != si;
                if misfiled || sh.find(key, |twin| twin.sig == e.sig).is_some() {
                    dropped.push(e);
                } else {
                    sh.insert(key, e);
                }
            }
        }
        // 3. Cascade: no resident may reference a dead parent.
        let mut resident: FxHashSet<EntryId> = FxHashSet::default();
        for g in guards.iter() {
            resident.extend(g.entries().map(|e| e.id));
        }
        loop {
            let mut doomed: Vec<(usize, u64, EntryId)> = Vec::new();
            for (si, g) in guards.iter().enumerate() {
                for (key, e) in g.filed() {
                    if e.parents.iter().any(|p| !resident.contains(p)) {
                        doomed.push((si, key, e.id));
                    }
                }
            }
            if doomed.is_empty() {
                break;
            }
            for (si, key, id) in doomed {
                resident.remove(&id);
                dropped.extend(guards[si].remove(key, id));
            }
        }
        // 4. One graph from the surviving slabs.
        let rebuilt = LineageGraph::rebuild(guards.iter().flat_map(|g| g.filed()), &self.graph());
        *self.graph_mut() = rebuilt;
        // 5. Exact ledger from the survivors; un-poison; unquarantine.
        let survivors = self.recompute(guards.iter().map(|g| &**g).enumerate());
        self.ledger.store(&survivors);
        // A torn demotion may have been dropped between appending the
        // spill record and wiring the ticket: retire every dropped
        // entry's payload so the spill file's live-byte book matches the
        // surviving index.
        for e in &dropped {
            self.retire(e.payload());
        }
        for &si in &broken {
            self.shards[si].clear_poison();
            if self.quarantined[si].swap(false, Ordering::AcqRel) {
                self.quarantined_count.fetch_sub(1, Ordering::Relaxed);
            }
            self.repaired_total.fetch_add(1, Ordering::Relaxed);
        }
        drop(guards);
        RepairReport {
            shards_repaired: broken,
            entries_dropped: dropped.len(),
            bytes_dropped: dropped.iter().map(|e| e.bytes()).sum(),
        }
    }

    /// Resident entries admitted by `session` (and not yet removed) — the
    /// per-session footprint the admission budget slices.
    pub fn resident_of_session(&self, session: u64) -> u64 {
        self.ledger.resident_of_session(session)
    }

    /// Exact-match lookup by owned signature (diagnostics and tests; the
    /// hit path is [`Self::probe`]).
    pub fn lookup(&self, sig: &Sig) -> Option<EntryId> {
        self.find(sig.fingerprint(), |e| e.sig == *sig, |e| e.id)
    }

    /// Run `f` over the entry matching `sig`, under the owning shard's
    /// *read* lock — the whole exact-match hit path (atomic counter
    /// updates, pinning, result cloning) happens inside `f`: one
    /// fingerprint, one lock, one table lookup, the stored signature
    /// verified. `f` must not call back into shard-locking pool methods.
    /// A quarantined shard reports a miss (degraded mode).
    pub fn probe<R>(&self, sig: &SigRef<'_>, f: impl FnOnce(&PoolEntry) -> R) -> Option<R> {
        self.find(sig.fingerprint(), |e| sig.matches(&e.sig), f)
    }

    fn find<R>(
        &self,
        fingerprint: u64,
        is: impl Fn(&PoolEntry) -> bool,
        f: impl FnOnce(&PoolEntry) -> R,
    ) -> Option<R> {
        let key = fingerprint & self.fp_mask;
        let si = self.shard_at(key);
        if !self.shard_serviceable(si) {
            return None;
        }
        self.read_shard(si).find(key, is).map(f)
    }

    /// Run `f` over the entry `id`, under its shard's read lock. `f` must
    /// not call back into shard-locking pool methods.
    /// A quarantined shard reports `None` (degraded mode).
    pub fn entry<R>(&self, id: EntryId, f: impl FnOnce(&PoolEntry) -> R) -> Option<R> {
        let key = self.graph().locate(id)?;
        self.entry_at(id, key, f)
    }

    /// The entry owning (or aliased to) a result BAT, if any.
    pub fn entry_of_result(&self, bat: BatId) -> Option<EntryId> {
        self.graph().entry_of_result(bat)
    }

    /// Admission's lineage resolution in one graph read: for each BAT
    /// argument, the resident entry owning (or aliased to) it and where
    /// that entry is filed — what [`Self::entry_at`] needs to pin it — or,
    /// for a BAT nobody resident produced, the columns it is registered
    /// as a persistent buffer of.
    pub(crate) fn resolve(&self, bats: impl Iterator<Item = BatId>) -> Vec<Resolved> {
        self.graph().resolve(bats)
    }

    /// Register `bat` as a persistent buffer (bound column, join index) of
    /// the columns `anchors`: an identity admissions may reference without
    /// a pool-resident producer, until a commit retires one of its columns.
    pub fn register_persistent(&self, bat: BatId, anchors: Anchors) {
        self.graph_mut().register(bat, anchors);
    }

    /// The persistent-BAT registry (diagnostics, tests).
    pub fn persistent_bats(&self) -> Vec<(BatId, Anchors)> {
        self.graph().registered()
    }

    /// A commit rewrote `columns`: the entries anchored on any of them,
    /// ascending — the roots whose subtrees ([`Self::remove_subtree`],
    /// [`Self::closure_shards`]) are everything derived from those columns
    /// — with the registrations of the replaced buffers dropped in the same
    /// graph step.
    pub fn retire_columns(&self, columns: &Anchors) -> Vec<EntryId> {
        self.graph_mut().retire(columns)
    }

    /// Each anchor column with every resident entry that (transitively)
    /// derives from it — computed from the graph when asked, stored nowhere.
    pub fn derived_by_column(&self) -> Vec<((String, String), Vec<EntryId>)> {
        self.graph().derived()
    }

    /// [`Self::entry`] for a caller that already knows the table key
    /// (from [`Self::resolve`]): one shard read lock, no graph lock. The
    /// id is revalidated in the table, so a stale key is a `None`.
    pub(crate) fn entry_at<R>(
        &self,
        id: EntryId,
        key: u64,
        f: impl FnOnce(&PoolEntry) -> R,
    ) -> Option<R> {
        let si = self.shard_at(key);
        if !self.shard_serviceable(si) {
            return None;
        }
        self.read_shard(si).find(key, |e| e.id == id).map(f)
    }

    /// Visit every entry, one shard read lock at a time. `f` may touch the
    /// lineage indexes ([`Self::has_children`], pin atomics) but must not
    /// call back into shard-locking pool methods.
    pub fn for_each_entry(&self, mut f: impl FnMut(&PoolEntry)) {
        for i in 0..self.shards.len() {
            let sh = self.read_shard(i);
            sh.entries().for_each(&mut f);
        }
    }

    /// Snapshot clones of every entry (diagnostics, tests, Table views).
    pub fn snapshot_entries(&self) -> Vec<PoolEntry> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_entry(|e| out.push(e.clone()));
        out
    }

    /// Candidate entries with the given opcode and first-argument
    /// signature, ascending — the subsumption search space for "same
    /// column operand". Matching entries scatter over the signature shards
    /// (the shard is keyed by the *full* signature hash), so the list
    /// lives in the lineage graph: a miss-path probe is one graph read and
    /// no shard lock. Returned ids are a snapshot; callers revalidate
    /// residency via [`Self::entry`].
    pub fn candidates(&self, op: Opcode, arg0: &ArgSig) -> Vec<EntryId> {
        self.graph().candidates(op, arg0)
    }

    /// Record that `sub` is a subset (by tuple content) of `sup`. Ignored
    /// unless `sub` is the result of a resident entry — the edge leaves
    /// with that entry.
    pub fn add_subset_edge(&self, sub: BatId, sup: BatId) {
        self.graph_mut().add_subset_edge(sub, sup);
    }

    /// Is `sub ⊆ sup` derivable from the recorded subset edges
    /// (reflexive-transitive closure)?
    pub fn is_subset(&self, sub: BatId, sup: BatId) -> bool {
        self.graph().is_subset(sub, sup)
    }

    /// Insert a fully constructed entry under the signature shard's write
    /// lock, wiring it into the lineage graph in one step.
    ///
    /// Duplicate signatures are a *normal* concurrent outcome, not a
    /// "can't happen" path: two sessions can probe the same signature,
    /// both miss, both execute, and both admit. Resolution is
    /// first-writer-wins — the resident entry stays and is pinned once on
    /// the loser's behalf, the loser's result BAT is aliased onto it (so
    /// the losing query's downstream lineage stays admissible), and the
    /// candidate is dropped; all of it atomically under the shard lock,
    /// reported as [`Admitted::Duplicate`] so the caller can return the
    /// admission credit and reconcile its pin set.
    ///
    /// Parents are revalidated inside [`LineageGraph::wire`]: a concurrent
    /// update may have invalidated them since the caller resolved and
    /// pinned them, in which case nothing is wired and the candidate is
    /// dropped as [`Admitted::Orphaned`] rather than left with dangling
    /// lineage. `subset_of` optionally records `result ⊆ subset_of` for
    /// the subsumption machinery (§5.1).
    pub fn insert(&self, entry: PoolEntry, subset_of: Option<BatId>) -> Admitted {
        let key = entry.sig.fingerprint() & self.fp_mask;
        let si = self.shard_at(key);
        if !self.shard_serviceable(si) {
            return Admitted::Quarantined;
        }
        let mut sh = self.write_shard(si);
        #[cfg(feature = "failpoints")]
        let _ = crate::fault::fire("pool.insert");
        if let Some(win) = sh.find(key, |e| e.sig == entry.sig) {
            win.pins.fetch_add(1, Ordering::Relaxed);
            if let Some(rb) = entry.result_id {
                self.graph_mut().alias(rb, win.id);
            }
            return Admitted::Duplicate(win.id);
        }
        if !self.graph_mut().wire(&entry, key, subset_of) {
            return Admitted::Orphaned;
        }
        let (id, session) = (entry.id, entry.admitted_session);
        let admitted = charge(entry.payload(), entry.bytes());
        // Failpoint: the graph knows the entry but the slab does not hold
        // it yet — the most torn state an unwind can leave.
        #[cfg(feature = "failpoints")]
        let _ = crate::fault::fire("pool.insert.wired");
        sh.insert(key, entry);
        self.ledger.apply(si, session, None, Some(admitted));
        Admitted::Inserted(id)
    }

    /// Unwire and remove the entry `id` filed under `key` while its shard
    /// lock is held. With `evictable_only` the entry goes only if it is
    /// still an unpinned leaf: the pin check runs under this shard's write
    /// lock (a hit pins under its read lock) and the leaf check inside
    /// [`LineageGraph::unwire`], in the same step that unwires it.
    fn remove_locked(
        &self,
        sh: &mut Shard,
        si: usize,
        (key, id): (u64, EntryId),
        evictable_only: bool,
    ) -> Option<PoolEntry> {
        let entry = sh.find(key, |e| e.id == id)?;
        if evictable_only && entry.pin_count() != 0 {
            return None;
        }
        if !self.graph_mut().unwire(entry, evictable_only) {
            return None;
        }
        let entry = sh.remove(key, id)?;
        let leaving = charge(entry.payload(), entry.bytes());
        self.ledger
            .apply(si, entry.admitted_session, Some(leaving), None);
        self.retire(entry.payload());
        Some(entry)
    }

    /// Remove one entry, unwiring it from the graph; returns it.
    pub fn remove(&self, id: EntryId) -> Option<PoolEntry> {
        let key = self.graph().locate(id)?;
        self.remove_at(id, key)
    }

    fn remove_at(&self, id: EntryId, key: u64) -> Option<PoolEntry> {
        let si = self.shard_at(key);
        let mut sh = self.write_shard(si);
        self.remove_locked(&mut sh, si, (key, id), false)
    }

    /// Remove `id` only if it is still an unpinned leaf — the eviction
    /// removal step. The check and the removal are atomic under the
    /// shard's write lock: a hit pinning the entry runs under the same
    /// shard's read lock, so pin-vs-evict races cannot happen.
    pub fn remove_if_evictable(&self, id: EntryId) -> Option<PoolEntry> {
        self.remove_batch_if_evictable(std::slice::from_ref(&id))
            .pop()
    }

    /// Remove every victim in `ids` that is still an unpinned leaf — the
    /// batched eviction removal step. Victims are grouped by owning shard
    /// (one graph read for the batch) and each shard's write lock is taken
    /// **once** for its whole group (pinned by
    /// `write_lock_acquisitions_by_shard` in tests), instead of one
    /// acquisition per victim. Every victim is revalidated inside its
    /// shard's critical section — a concurrent hit (pin) or a freshly
    /// wired child edge always wins over the caller's stale snapshot; such
    /// victims are skipped. Returns the removed entries (any shard order).
    pub fn remove_batch_if_evictable(&self, ids: &[EntryId]) -> Vec<PoolEntry> {
        let located = self.graph().locate_all(ids.iter().copied());
        let mut removed = Vec::new();
        for (si, group) in self.group_by_shard(located) {
            // Quarantined shards sit out eviction: their books may be
            // torn, so removals there wait for `repair`.
            if !self.shard_serviceable(si) {
                continue;
            }
            let mut sh = self.write_shard(si);
            #[cfg(feature = "failpoints")]
            let _ = crate::fault::fire("evict.remove");
            for (id, key) in group {
                removed.extend(self.remove_locked(&mut sh, si, (key, id), true));
            }
        }
        removed
    }

    /// Group located ids by owning shard, shards ascending.
    fn group_by_shard(&self, located: Vec<(EntryId, u64)>) -> BTreeMap<usize, Vec<(EntryId, u64)>> {
        let mut by_shard: BTreeMap<usize, Vec<(EntryId, u64)>> = BTreeMap::new();
        for (id, key) in located {
            by_shard
                .entry(self.shard_at(key))
                .or_default()
                .push((id, key));
        }
        by_shard
    }

    /// Take up to `max` of the oldest recently-leafed ids from the
    /// collector's nursery ring. Drained ids may be stale (evicted,
    /// re-parented or invalidated since they leafed) — consumers
    /// revalidate per id; eviction does so at removal.
    pub(crate) fn drain_nursery(&self, max: usize) -> Vec<EntryId> {
        self.graph_mut().drain_nursery(max)
    }

    /// Snapshot of the evictable-leaf set: the ids of every childless
    /// resident entry, ascending. A point-in-time copy — callers
    /// revalidate residency/pins per id, eviction does so at removal.
    pub fn leaf_ids(&self) -> Vec<EntryId> {
        let leaves = self.graph().leaves();
        leaves.into_iter().map(|(id, _)| id).collect()
    }

    /// Number of entries currently in the evictable-leaf set.
    pub fn leaf_index_size(&self) -> usize {
        self.graph().leaf_count()
    }

    /// Visit every entry in the evictable-leaf set — the eviction gather
    /// path. Cost is O(leaves), **independent of total pool size**: the
    /// leaves are snapshot with their table keys in one graph read,
    /// grouped by owning shard, and each touched shard is read-locked
    /// once. Ids whose entry vanished since the snapshot are silently
    /// skipped (`f` sees residents only). Advances the gather-cost
    /// counters ([`Self::eviction_gather_visited`] by the snapshot size,
    /// [`Self::eviction_gather_rounds`] by one).
    pub fn for_each_leaf_entry(&self, mut f: impl FnMut(&PoolEntry)) {
        let leaves = self.graph().leaves();
        self.gather_visited
            .fetch_add(leaves.len() as u64, Ordering::Relaxed);
        self.gather_rounds.fetch_add(1, Ordering::Relaxed);
        for (si, group) in self.group_by_shard(leaves) {
            // Gather skips quarantined shards — their residents are
            // frozen until `repair` returns them to service.
            if !self.shard_serviceable(si) {
                continue;
            }
            let sh = self.read_shard(si);
            for (id, key) in group {
                if let Some(e) = sh.find(key, |e| e.id == id) {
                    f(e);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // residency (the transition table is documented on `Payload`)
    // ------------------------------------------------------------------

    /// Attach the spill block file backing the coldest tier. Called once
    /// during construction (before the pool is shared); entries can only
    /// reach [`Payload::Spilled`] when a file is attached.
    pub fn set_spill(&mut self, spill: Option<Arc<crate::tier::SpillFile>>) {
        self.spill = spill;
    }

    /// The attached spill file, when the database opted into the disk
    /// tier.
    pub fn spill(&self) -> Option<&Arc<crate::tier::SpillFile>> {
        self.spill.as_ref()
    }

    /// Pool-wide per-tier byte totals `(raw, compressed, spilled)`.
    /// `raw + compressed == bytes()` at any quiescent instant; spilled
    /// bytes are off-cap (they count against the spill budget instead).
    pub fn tier_bytes(&self) -> (usize, usize, usize) {
        let t = self.ledger.totals();
        (t.raw, t.compressed, t.spilled)
    }

    /// Bytes currently charged by operator-state artifact entries (summed
    /// across shards — a subset of the raw book; artifacts never demote).
    pub fn artifact_bytes(&self) -> usize {
        self.ledger.totals().artifact
    }

    /// [`Ledger::recompute`] over the given `(shard index, slab)` pairs.
    fn recompute<'a>(&self, slabs: impl Iterator<Item = (usize, &'a Shard)>) -> Books {
        let entries = slabs.flat_map(|(si, sh)| sh.entries().map(move |e| (si, e)));
        Ledger::recompute(self.shards.len(), entries)
    }

    /// A payload is leaving the pool for good — its entry was removed, a
    /// transition replaced it, or (a candidate) it was refused: a spilled
    /// record's ticket is retired, which frees spill budget immediately
    /// (the block file truncates once no live record remains). The one
    /// caller of [`crate::tier::SpillFile::mark_dead`].
    fn retire(&self, payload: &Payload) {
        if let (Payload::Spilled(ticket), Some(spill)) = (payload, &self.spill) {
            spill.mark_dead(*ticket);
        }
    }

    /// The one residency transition: hand the resident entry `e` (in shard
    /// `si`, write lock held) the payload `to`, charging `bytes`, if the
    /// table on [`Payload`] allows it. Swaps the payload, moves the ledger
    /// and retires whichever payload lost — the old one on success, the
    /// candidate on refusal (nothing else is touched then). Returns the
    /// bytes charged before.
    fn transition(&self, si: usize, e: &mut PoolEntry, to: Payload, bytes: usize) -> Option<usize> {
        if !e.payload().may_become(&to) {
            self.retire(&to);
            return None;
        }
        let after = charge(&to, bytes);
        let (old, old_bytes) = e.swap_payload(to, bytes);
        // Failpoint: the entry is re-tiered but no book has moved — the
        // most torn state a mid-demotion unwind can leave this shard in.
        #[cfg(feature = "failpoints")]
        if after.raw == 0 {
            let _ = crate::fault::fire("pool.demote.wired");
        }
        self.ledger.apply(
            si,
            e.admitted_session,
            Some(charge(&old, old_bytes)),
            Some(after),
        );
        self.retire(&old);
        Some(old_bytes)
    }

    /// Move entry `id` one step along the residency ladder: demote it to a
    /// blob the caller compressed, or a ticket the caller appended to the
    /// spill file, or promote it back to the raw result a hit rebuilt —
    /// all of that work happens **outside** any lock, and the move is
    /// revalidated here, inside the shard's write critical section. The
    /// entry must still be resident in a serviceable shard, sit on a
    /// *different* rung than `to` (a second promotion of an already-raw
    /// entry loses to the first) and pass `still_ok` — the caller's
    /// snapshot conditions: unpinned and actually shrinking for a
    /// compression, still holding the exact blob that was spilled
    /// (`Arc::ptr_eq`) for a spill; a promotion may be pinned, that is
    /// what keeps eviction away while the payload is rebuilt. Any
    /// concurrent hit (pin), removal or transition since the candidate was
    /// gathered wins and the move is dropped; a refused spill ticket is
    /// retired at once (its record is garbage). Entries with children are
    /// fair game: demotion (unlike eviction) keeps the entry, its
    /// `result_id` and every index alive, so descendants stay matchable
    /// and nothing is orphaned — in chain-shaped plans the big early
    /// intermediates are precisely the interior nodes. Returns the bytes
    /// the entry charged before the move.
    pub fn retier(
        &self,
        id: EntryId,
        to: Payload,
        bytes: usize,
        still_ok: impl FnOnce(&PoolEntry) -> bool,
    ) -> Option<usize> {
        let target = self.locate(id);
        if let Some((si, key)) = target.filter(|&(si, _)| self.shard_serviceable(si)) {
            let mut sh = self.write_shard(si);
            if let Some(e) = sh.get_mut(key, id) {
                let rung_changes =
                    std::mem::discriminant(e.payload()) != std::mem::discriminant(&to);
                if rung_changes && still_ok(e) {
                    return self.transition(si, e, to, bytes);
                }
            }
        }
        self.retire(&to);
        None
    }

    /// Entries visited by eviction gathers since construction. With the
    /// incremental leaf index this grows by O(leaves) per round — a test
    /// pins that it is independent of total pool size.
    pub fn eviction_gather_visited(&self) -> u64 {
        self.gather_visited.load(Ordering::Relaxed)
    }

    /// Eviction gather rounds since construction.
    pub fn eviction_gather_rounds(&self) -> u64 {
        self.gather_rounds.load(Ordering::Relaxed)
    }

    /// Does this entry have dependents in the pool?
    pub fn has_children(&self, id: EntryId) -> bool {
        self.graph().has_children(id)
    }

    /// Dependents of an entry (direct children), ascending.
    pub fn children_of(&self, id: EntryId) -> Vec<EntryId> {
        self.graph().children_of(id)
    }

    /// Remove `root` and every transitive dependent (update invalidation,
    /// §6.4). Returns the removed entries. For the atomic variant used by
    /// update synchronisation see [`PoolScopedView::remove_subtree`].
    pub fn remove_subtree(&self, root: EntryId) -> Vec<PoolEntry> {
        let order = self.graph().subtree(&[root]);
        order
            .into_iter()
            .filter_map(|(id, key)| self.remove_at(id, key))
            .collect()
    }

    /// The shards holding `roots` and every transitive dependent — the
    /// write-lock scope of an update commit, ascending. One graph read;
    /// the scoped view revalidates and extends on demand, so a child
    /// admitted between this computation and the lock acquisition is
    /// still reached.
    pub fn closure_shards(&self, roots: &[EntryId]) -> Vec<usize> {
        let closure = self.graph().subtree(roots);
        self.group_by_shard(closure).into_keys().collect()
    }

    /// Acquire write locks on `shards` only (ascending index) for an
    /// atomic multi-entry rewrite — update invalidation and delta
    /// propagation scoped to the affected lineage closure. Admissions,
    /// hits and eviction on every *other* shard keep running; structural
    /// writers serialise on the pool's update mutex (single writer, many
    /// readers). Out-of-range and duplicate indices are ignored.
    pub fn scoped_view(&self, shards: &[usize]) -> PoolScopedView<'_> {
        let writer = self.lock_update();
        let mut held = vec![false; self.shards.len()];
        for &s in shards {
            if s < held.len() {
                held[s] = true;
            }
        }
        let guards = held
            .iter()
            .enumerate()
            .map(|(i, take)| take.then(|| self.write_shard(i)))
            .collect();
        PoolScopedView {
            pool: self,
            _writer: writer,
            guards,
        }
    }

    /// Acquire every shard write lock — the stop-the-world maintenance
    /// view ([`Self::clear`]-grade operations, diagnostics, tests). While
    /// it is held no admission, hit bookkeeping or eviction can run
    /// anywhere in the pool. Commits use [`Self::scoped_view`] instead.
    pub fn write_view(&self) -> PoolScopedView<'_> {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        self.scoped_view(&all)
    }

    /// Render the pool as a MAL-like program block with its symbol table —
    /// the paper's Table I view (§3.2).
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut entries = self.snapshot_entries();
        entries.sort_unstable_by_key(|e| e.id);
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# recycle pool: {} entries, {} bytes, {} shards",
            entries.len(),
            entries.iter().map(|e| e.bytes()).sum::<usize>(),
            self.shard_count(),
        );
        let _ = writeln!(
            s,
            "{:<6} {:<58} {:>8} {:>10} {:>7} {:>7}",
            "entry", "instruction", "tuples", "bytes", "local", "global"
        );
        for e in &entries {
            let args: Vec<String> = e
                .sig
                .args
                .iter()
                .map(|a| match a {
                    ArgSig::Scalar(v) => v.to_string(),
                    ArgSig::Bat(b) => format!("bat#{}", b.0),
                })
                .collect();
            let result = match (e.payload().as_raw(), e.result_id) {
                (Some(v), None) => v.to_string(),
                (_, Some(b)) => format!("bat#{}", b.0),
                (None, None) => format!("<{}>", e.family),
            };
            let tuples = e
                .payload()
                .as_raw()
                .and_then(|v| v.as_bat())
                .map(|b| b.len().to_string())
                .unwrap_or_else(|| "-".into());
            let instr = format!("{result} := {}({})", e.sig.op.name(), args.join(", "));
            let _ = writeln!(
                s,
                "{:<6} {:<58} {:>8} {:>10} {:>7} {:>7}",
                format!("E{}", e.id),
                instr,
                tuples,
                e.bytes(),
                e.local_reuses(),
                e.global_reuses()
            );
        }
        s
    }

    /// Check the structural invariant across all shards (acquired
    /// together, so the view is consistent): every entry filed under its
    /// signature's fingerprint in the right shard, no signature resident
    /// twice, parents alive, payload and charge coherent; the ledger equal
    /// to [`Ledger::recompute`] over the slabs; the lineage graph equal to
    /// [`LineageGraph::rebuild`] over them. Test support — call on a
    /// quiescent pool. Takes the update mutex so the all-shard read
    /// acquisition cannot interleave with a scoped writer's out-of-order
    /// lock extension.
    pub fn check_invariants(&self) -> Result<(), String> {
        let _writer = self.lock_update();
        let guards: Vec<RwLockReadGuard<'_, Shard>> =
            (0..self.shards.len()).map(|i| self.read_shard(i)).collect();
        let mut all_ids: FxHashSet<EntryId> = FxHashSet::default();
        for g in &guards {
            all_ids.extend(g.entries().map(|e| e.id));
        }
        for (i, g) in guards.iter().enumerate() {
            for (key, e) in g.filed() {
                let id = &e.id;
                let want = e.sig.fingerprint() & self.fp_mask;
                if want != key || self.shard_at(want) != i {
                    return Err(format!(
                        "entry {id} filed under {key:#x} in shard {i}, sig maps to {want:#x}"
                    ));
                }
                if g.find(key, |twin| twin.sig == e.sig && twin.id != *id)
                    .is_some()
                {
                    return Err(format!("entry {id} shares its signature with a resident"));
                }
                for p in &e.parents {
                    if !all_ids.contains(p) {
                        return Err(format!("entry {id} has dangling parent {p}"));
                    }
                }
                if e.sig.kind != e.payload().kind() {
                    return Err(format!(
                        "entry {id} filed under sig kind {:?}, holds {:?}",
                        e.sig.kind,
                        e.payload().kind()
                    ));
                }
                // only a raw result's charge is the admitter's call (what
                // the instruction newly materialised); every other payload
                // has one size
                let sized = e.payload().charge_bytes(e.sig.op);
                if e.payload().as_raw().is_none() && e.bytes() != sized {
                    return Err(format!(
                        "entry {id} charges {} bytes, its {:?} payload is {sized}",
                        e.bytes(),
                        e.payload().kind()
                    ));
                }
            }
        }
        let actual = self.recompute(guards.iter().map(|g| &**g).enumerate());
        let booked = self.ledger.books();
        if booked != actual {
            return Err(format!("ledger {booked:?} != recomputed {actual:?}"));
        }
        let live = self.graph();
        live.diff(&LineageGraph::rebuild(
            guards.iter().flat_map(|g| g.filed()),
            &live,
        ))
    }
}

/// Write access scoped to the shards of one commit's lineage closure:
/// only those shards' write locks are held (acquired in ascending index
/// order at construction), so sessions probing and admitting on every
/// other shard never block on the commit. Structural writers serialise on
/// the pool's update mutex — single writer, many readers — which is what
/// makes the on-demand, possibly out-of-order [`Self::ensure_shard`]
/// extension (rekey migration, children admitted after the closure was
/// computed) deadlock-free: no other thread ever blocks on a second shard
/// lock while holding one.
///
/// Concurrent queries observe the affected entries either entirely before
/// or entirely after the commit; unaffected shards are never perturbed.
pub struct PoolScopedView<'a> {
    pool: &'a RecyclePool,
    _writer: MutexGuard<'a, ()>,
    guards: Vec<Option<RwLockWriteGuard<'a, Shard>>>,
}

impl PoolScopedView<'_> {
    /// Shards whose write locks this view currently holds (ascending).
    pub fn held_shards(&self) -> Vec<usize> {
        self.guards
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.is_some().then_some(i))
            .collect()
    }

    /// Extend the view with shard `i`'s write lock if not yet held. Safe
    /// out of ascending order because scoped writers are serialised on the
    /// update mutex (see the type-level docs).
    fn ensure_shard(&mut self, i: usize) {
        if self.guards[i].is_none() {
            self.guards[i] = Some(self.pool.write_shard(i));
        }
    }

    /// Borrow an entry, extending the view to its shard if necessary.
    pub fn get(&mut self, id: EntryId) -> Option<&PoolEntry> {
        let (i, key) = self.pool.locate(id)?;
        self.ensure_shard(i);
        self.guards[i]
            .as_ref()
            .and_then(|g| g.find(key, |e| e.id == id))
    }

    /// Borrow an entry mutably (delta propagation rewrites signatures and
    /// arguments in place; call [`Self::rekey`] afterwards). The payload
    /// and its charge are not reachable this way — results are rewritten
    /// through [`Self::set_raw`].
    pub fn get_mut(&mut self, id: EntryId) -> Option<&mut PoolEntry> {
        let (i, key) = self.pool.locate(id)?;
        self.ensure_shard(i);
        self.guards[i].as_mut().and_then(|g| g.get_mut(key, id))
    }

    /// Dependents of an entry (direct children).
    pub fn children_of(&self, id: EntryId) -> Vec<EntryId> {
        self.pool.children_of(id)
    }

    /// Record that `sub` is a subset of `sup`.
    pub fn add_subset_edge(&self, sub: BatId, sup: BatId) {
        self.pool.add_subset_edge(sub, sup);
    }

    /// Register `bat` as a persistent buffer of `anchors`
    /// ([`RecyclePool::register_persistent`]).
    pub fn register_persistent(&self, bat: BatId, anchors: Anchors) {
        self.pool.register_persistent(bat, anchors);
    }

    /// Remove one entry, unwiring it from the graph (the view extends to
    /// the entry's shard on demand).
    pub fn remove(&mut self, id: EntryId) -> Option<PoolEntry> {
        let key = self.pool.graph().locate(id)?;
        self.remove_at(id, key)
    }

    fn remove_at(&mut self, id: EntryId, key: u64) -> Option<PoolEntry> {
        let (pool, i) = (self.pool, self.pool.shard_at(key));
        self.ensure_shard(i);
        let g = self.guards[i].as_mut()?;
        pool.remove_locked(g, i, (key, id), false)
    }

    /// Remove `root` and every transitive dependent. The subtree is
    /// re-derived from the live graph, so dependents admitted after the
    /// caller computed its lock scope are still invalidated.
    pub fn remove_subtree(&mut self, root: EntryId) -> Vec<PoolEntry> {
        let order = self.pool.graph().subtree(&[root]);
        order
            .into_iter()
            .filter_map(|(id, key)| self.remove_at(id, key))
            .collect()
    }

    /// Rewrite a **raw** entry's result in place, charging `bytes` for it
    /// (delta propagation, §6.3) — the Raw → Raw row of the transition
    /// table on [`Payload`]. The ledger moves in the same step (no
    /// deferred recount), so the books stay exact through a subsequent
    /// [`Self::rekey`], which may migrate the entry to another shard.
    /// Refused (false, nothing touched) for a missing entry or any
    /// non-raw payload: a demoted entry has no materialised result to
    /// rewrite and operator state is evict-only.
    pub fn set_raw(&mut self, id: EntryId, value: rbat::Value, bytes: usize) -> bool {
        let (pool, shard) = (self.pool, self.pool.locate(id));
        let Some(((si, _), e)) = shard.zip(self.get_mut(id)) else {
            return false;
        };
        if e.payload().as_raw().is_none() {
            return false;
        }
        e.result_id = value.as_bat().map(|b| b.id());
        pool.transition(si, e, Payload::Raw(value), bytes).is_some()
    }

    /// Re-key an entry's signature and result identity after delta
    /// propagation replaced its result BAT (§6.3). The caller updates the
    /// entry fields; this fixes the indexes — including migrating the
    /// entry to the shard its *new* signature hashes to (the view extends
    /// to that shard on demand, and the entry's charge moves with it).
    ///
    /// If another resident entry already owns the new signature — a
    /// session that re-pinned the post-commit epoch can probe, miss and
    /// admit the equivalent instruction while propagation is still
    /// in flight on other shards — that duplicate and its dependents are
    /// removed first: the re-keyed entry wins because the refreshed
    /// lineage chain hangs off it. A blind index insert would instead
    /// leave two entries under one signature and a later eviction of
    /// either would unmap the survivor.
    pub fn rekey(&mut self, id: EntryId, old_sig: &Sig, old_result: Option<BatId>) {
        let pool = self.pool;
        let Some((new_sig, new_result)) = self.get(id).map(|e| (e.sig.clone(), e.result_id)) else {
            return;
        };
        // the graph follows the entry first, so whatever removes the entry
        // from here on unwires what is actually wired
        pool.graph_mut()
            .rekey(id, (old_sig, &new_sig), (old_result, new_result));
        if *old_sig == new_sig {
            return;
        }
        let new_key = new_sig.fingerprint() & pool.fp_mask;
        let new_idx = pool.shard_at(new_key);
        self.ensure_shard(new_idx);
        let clash = self.guards[new_idx]
            .as_ref()
            .and_then(|g| g.find(new_key, |e| e.sig == new_sig && e.id != id))
            .map(|e| e.id);
        if let Some(other) = clash {
            self.remove_subtree(other);
        }
        // (the re-keyed entry may itself have been in the clash's subtree)
        let Some((old_idx, old_key)) = pool.locate(id) else {
            return;
        };
        let moved = self.guards[old_idx]
            .as_mut()
            .and_then(|g| g.remove(old_key, id));
        if let Some(e) = moved {
            if new_idx != old_idx {
                // the charge migrates with the entry: booked at the new
                // shard before it leaves the old one, so the lock-free
                // totals can only over-count in between (the admission
                // gate over-rejects, never overshoots)
                let c = charge(e.payload(), e.bytes());
                pool.ledger
                    .apply(new_idx, e.admitted_session, None, Some(c));
                pool.ledger
                    .apply(old_idx, e.admitted_session, Some(c), None);
            }
            if let Some(g) = self.guards[new_idx].as_mut() {
                g.insert(new_key, e);
            }
            pool.graph_mut().refile(id, new_key);
        }
    }
}

impl Drop for PoolScopedView<'_> {
    /// Debug builds verify the ledger on release: every held shard's
    /// books must equal [`Ledger::recompute`] over its slab after any
    /// sequence of rekeys, removals and in-place rewrites.
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            let held = || {
                let slabs = self.guards.iter().enumerate();
                slabs.filter_map(|(i, g)| Some((i, &**g.as_ref()?)))
            };
            let actual = self.pool.recompute(held());
            for (i, _) in held() {
                debug_assert_eq!(
                    self.pool.ledger.shard(i),
                    actual.shards[i],
                    "shard {i} books drifted from its resident entries"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Admitter, Lineage};
    use crate::signature::ArtifactKind;
    use rbat::{Bat, Column, Value};
    use std::time::Duration;

    fn mk_entry(pool: &RecyclePool, parents: Vec<EntryId>, tag: i64) -> PoolEntry {
        let bat = Arc::new(Bat::from_tail(Column::from_ints(vec![tag])));
        let e = PoolEntry::new(
            pool.alloc_id(),
            Sig::of(Opcode::Select, &[Value::Int(tag)]),
            vec![Value::Int(tag)],
            Payload::Raw(Value::Bat(bat)),
            100,
            Duration::from_millis(1),
            Lineage {
                parents,
                ..Lineage::default()
            },
            Admitter::default(),
        );
        e.pins.store(0, Ordering::Relaxed);
        e
    }

    #[test]
    fn insert_lookup_remove() {
        let pool = RecyclePool::new();
        let e = mk_entry(&pool, vec![], 1);
        let sig = e.sig.clone();
        let admitted = pool.insert(e, None);
        assert!(admitted.inserted());
        let id = admitted.id();
        assert_eq!(pool.lookup(&sig), Some(id));
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.bytes(), 100);
        pool.remove(id);
        assert_eq!(pool.lookup(&sig), None);
        assert_eq!(pool.bytes(), 0);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_sig_resolves_first_writer_wins() {
        let pool = RecyclePool::new();
        let a = mk_entry(&pool, vec![], 1);
        let id_a = pool.insert(a, None).id();
        let mut b = mk_entry(&pool, vec![], 2);
        b.sig = Sig::of(Opcode::Select, &[Value::Int(1)]); // same sig as a
        let outcome = pool.insert(b, None);
        assert_eq!(outcome, Admitted::Duplicate(id_a));
        assert_eq!(pool.len(), 1);
        // the loser's session took a pin on the winner, atomically
        assert_eq!(pool.entry(id_a, |e| e.pin_count()), Some(1));
        pool.check_invariants().unwrap();
    }

    #[test]
    fn orphaned_parent_rejects_insert() {
        let pool = RecyclePool::new();
        let a = mk_entry(&pool, vec![], 1);
        let id_a = pool.insert(a, None).id();
        pool.remove(id_a);
        let b = mk_entry(&pool, vec![id_a], 2);
        assert_eq!(pool.insert(b, None), Admitted::Orphaned);
        assert!(pool.is_empty());
        pool.check_invariants().unwrap();
    }

    #[test]
    fn result_alias_resolves_and_unwires_with_entry() {
        let pool = RecyclePool::new();
        let id = pool.insert(mk_entry(&pool, vec![], 1), None).id();
        // the loser of a duplicate admission: same signature, its own BAT
        let loser = mk_entry(&pool, vec![], 1);
        let loser_bat = loser.result_id.unwrap();
        assert_eq!(pool.insert(loser, None), Admitted::Duplicate(id));
        assert_eq!(pool.entry_of_result(loser_bat), Some(id));
        pool.check_invariants().unwrap();
        pool.remove(id);
        assert_eq!(pool.entry_of_result(loser_bat), None);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn clear_keeps_entry_ids_monotone() {
        let pool = RecyclePool::new();
        let e = mk_entry(&pool, vec![], 1);
        let id_before = pool.insert(e, None).id();
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.bytes(), 0);
        let e2 = mk_entry(&pool, vec![], 2);
        let id_after = pool.insert(e2, None).id();
        assert!(
            id_after > id_before,
            "ids must never be reused across a clear ({id_before} vs {id_after})"
        );
        pool.check_invariants().unwrap();
    }

    #[test]
    fn evictable_respects_children_and_pins() {
        let pool = RecyclePool::new();
        let a = mk_entry(&pool, vec![], 1);
        let a_id = pool.insert(a, None).id();
        let b = mk_entry(&pool, vec![a_id], 2);
        let b_id = pool.insert(b, None).id();
        // a has a child: not evictable
        assert!(pool.remove_if_evictable(a_id).is_none());
        // pinned leaves are not evictable either
        pool.entry(b_id, |e| e.pins.store(1, Ordering::Relaxed));
        assert!(pool.remove_if_evictable(b_id).is_none());
        pool.entry(b_id, |e| e.pins.store(0, Ordering::Relaxed));
        assert!(pool.remove_if_evictable(b_id).is_some());
        // with the child gone, a became a leaf
        assert!(pool.remove_if_evictable(a_id).is_some());
        pool.check_invariants().unwrap();
    }

    #[test]
    fn leaf_index_tracks_child_wiring() {
        let pool = RecyclePool::new();
        let a = pool.insert(mk_entry(&pool, vec![], 1), None).id();
        assert_eq!(pool.leaf_ids(), vec![a], "fresh entry starts as a leaf");
        let b = pool.insert(mk_entry(&pool, vec![a], 2), None).id();
        let mut leaves = pool.leaf_ids();
        leaves.sort_unstable();
        assert_eq!(leaves, vec![b], "first child edge unleafs the parent");
        pool.check_invariants().unwrap();
        // severing the last child edge returns the parent to the index
        pool.remove(b);
        assert_eq!(pool.leaf_ids(), vec![a]);
        pool.check_invariants().unwrap();
        pool.remove(a);
        assert!(pool.leaf_ids().is_empty());
        assert_eq!(pool.leaf_index_size(), 0);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn leaf_index_survives_clear_and_multi_parent() {
        let pool = RecyclePool::new();
        let a = pool.insert(mk_entry(&pool, vec![], 1), None).id();
        let b = pool.insert(mk_entry(&pool, vec![], 2), None).id();
        // one child hanging off both parents (and the same parent twice —
        // duplicate parent links must not corrupt the 0↔1 transitions)
        let c = pool.insert(mk_entry(&pool, vec![a, a, b], 3), None).id();
        let mut leaves = pool.leaf_ids();
        leaves.sort_unstable();
        assert_eq!(leaves, vec![c]);
        pool.check_invariants().unwrap();
        pool.remove(c);
        let mut leaves = pool.leaf_ids();
        leaves.sort_unstable();
        assert_eq!(leaves, vec![a, b], "both parents become leaves again");
        pool.check_invariants().unwrap();
        pool.clear();
        assert_eq!(pool.leaf_index_size(), 0, "clear wipes the leaf index");
        pool.check_invariants().unwrap();
    }

    #[test]
    fn remove_batch_takes_one_write_lock_per_shard() {
        let pool = RecyclePool::with_shards(8);
        let ids: Vec<EntryId> = (0..32)
            .map(|i| pool.insert(mk_entry(&pool, vec![], i), None).id())
            .collect();
        let before = pool.write_lock_acquisitions_by_shard();
        let removed = pool.remove_batch_if_evictable(&ids);
        let after = pool.write_lock_acquisitions_by_shard();
        assert_eq!(removed.len(), 32, "every unpinned leaf must go");
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            assert!(
                a - b <= 1,
                "shard {i} write-locked {} times for one batch",
                a - b
            );
        }
        assert!(pool.is_empty());
        pool.check_invariants().unwrap();
    }

    #[test]
    fn remove_batch_revalidates_pins_and_children() {
        let pool = RecyclePool::new();
        let parent = pool.insert(mk_entry(&pool, vec![], 1), None).id();
        let pinned = pool.insert(mk_entry(&pool, vec![], 2), None).id();
        let free = pool.insert(mk_entry(&pool, vec![parent], 3), None).id();
        // a second child outside the batch keeps the parent a non-leaf
        // whichever shard the batch visits first
        pool.insert(mk_entry(&pool, vec![parent], 4), None);
        pool.entry(pinned, |e| e.pins.store(1, Ordering::Relaxed));
        let removed = pool.remove_batch_if_evictable(&[parent, pinned, free, 999]);
        let ids: Vec<EntryId> = removed.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![free], "parented, pinned and dead ids skipped");
        assert_eq!(pool.len(), 3);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn leaf_gather_visits_leaves_only() {
        // 4 chains of depth 3: 12 entries, 4 leaves — one gather visits 4
        let pool = RecyclePool::new();
        let mut tag = 0i64;
        for _ in 0..4 {
            let mut parent = None;
            for _ in 0..3 {
                tag += 1;
                let parents = parent.map(|p| vec![p]).unwrap_or_default();
                parent = Some(pool.insert(mk_entry(&pool, parents, tag), None).id());
            }
        }
        let v0 = pool.eviction_gather_visited();
        let r0 = pool.eviction_gather_rounds();
        let mut seen = 0usize;
        pool.for_each_leaf_entry(|_| seen += 1);
        assert_eq!(seen, 4);
        assert_eq!(pool.eviction_gather_visited() - v0, 4);
        assert_eq!(pool.eviction_gather_rounds() - r0, 1);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn remove_subtree_cascades() {
        let pool = RecyclePool::new();
        let a = mk_entry(&pool, vec![], 1);
        let a_id = pool.insert(a, None).id();
        let b = mk_entry(&pool, vec![a_id], 2);
        let b_id = pool.insert(b, None).id();
        let c = mk_entry(&pool, vec![b_id], 3);
        pool.insert(c, None);
        let removed = pool.remove_subtree(a_id);
        assert_eq!(removed.len(), 3);
        assert!(pool.is_empty());
        pool.check_invariants().unwrap();
    }

    #[test]
    fn candidates_fan_out_across_shards() {
        let pool = RecyclePool::with_shards(8);
        // several entries share opcode+arg0 but differ in later args, so
        // their signatures scatter over the shards
        let bat = Arc::new(Bat::from_tail(Column::from_ints(vec![1, 2, 3])));
        let mut ids = Vec::new();
        for i in 0..16 {
            let args = vec![Value::Bat(Arc::clone(&bat)), Value::Int(i)];
            let mut e = mk_entry(&pool, vec![], 1000 + i);
            e.sig = Sig::of(Opcode::Select, &args);
            ids.push(pool.insert(e, None).id());
        }
        let arg0 = ArgSig::Bat(bat.id());
        let mut found = pool.candidates(Opcode::Select, &arg0);
        found.sort_unstable();
        ids.sort_unstable();
        assert_eq!(found, ids, "candidate search must see every shard");
        // entries really do land on more than one shard
        let shards: std::collections::HashSet<usize> = ids
            .iter()
            .map(|id| pool.entry(*id, |e| pool.shard_of(&e.sig)).unwrap())
            .collect();
        assert!(shards.len() > 1, "16 sigs over 8 shards must spread");
        pool.check_invariants().unwrap();
    }

    #[test]
    fn scoped_view_write_locks_only_requested_shards() {
        let pool = RecyclePool::with_shards(8);
        let mut ids = Vec::new();
        for i in 0..32 {
            ids.push(pool.insert(mk_entry(&pool, vec![], i), None).id());
        }
        let victim = ids[0];
        let vshard = pool
            .entry(victim, |e| pool.shard_of(&e.sig))
            .expect("resident");
        let before = pool.write_lock_acquisitions_by_shard();
        {
            let mut view = pool.scoped_view(&[vshard]);
            assert_eq!(view.held_shards(), vec![vshard]);
            assert!(view.remove(victim).is_some());
        }
        let after = pool.write_lock_acquisitions_by_shard();
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if i == vshard {
                assert_eq!(*a, b + 1, "victim shard write-locked once");
            } else {
                assert_eq!(a, b, "shard {i} must not be write-locked");
            }
        }
        pool.check_invariants().unwrap();
    }

    #[test]
    fn scoped_view_extends_on_demand_for_rekey_migration() {
        let pool = RecyclePool::with_shards(8);
        // find two tags whose signatures land on different shards
        let (tag_a, tag_b) = {
            let mut found = None;
            'outer: for a in 0..64i64 {
                for b in 0..64i64 {
                    let sa = Sig::of(Opcode::Select, &[Value::Int(a)]);
                    let sb = Sig::of(Opcode::Select, &[Value::Int(b)]);
                    if pool.shard_of(&sa) != pool.shard_of(&sb) {
                        found = Some((a, b));
                        break 'outer;
                    }
                }
            }
            found.expect("two shards must differ over 64 tags")
        };
        let id = pool.insert(mk_entry(&pool, vec![], tag_a), None).id();
        let old_sig = Sig::of(Opcode::Select, &[Value::Int(tag_a)]);
        let new_sig = Sig::of(Opcode::Select, &[Value::Int(tag_b)]);
        let (old_shard, new_shard) = (pool.shard_of(&old_sig), pool.shard_of(&new_sig));
        {
            // lock only the entry's current shard; the rekey must extend
            // the view with the migration target on demand
            let mut view = pool.scoped_view(&[old_shard]);
            view.get_mut(id).unwrap().sig = new_sig.clone();
            view.rekey(id, &old_sig, None);
            assert!(view.held_shards().contains(&new_shard));
        }
        assert_eq!(pool.lookup(&new_sig), Some(id));
        assert_eq!(pool.lookup(&old_sig), None);
        assert_eq!(pool.shard_bytes(old_shard), 0);
        assert_eq!(pool.shard_bytes(new_shard), 100);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn rekey_onto_occupied_signature_removes_the_duplicate() {
        // A session on the post-commit epoch can admit the equivalent
        // instruction while propagation is still re-keying the old entry
        // to the same (versioned) signature. The re-keyed entry must win
        // and the racing duplicate must be removed — never two residents
        // under one signature, never an unmapped survivor.
        let pool = RecyclePool::with_shards(8);
        let a = mk_entry(&pool, vec![], 1);
        let a_sig = a.sig.clone();
        let a_id = pool.insert(a, None).id();
        // the racing admission already owns the target signature
        let fresh = mk_entry(&pool, vec![], 2);
        let fresh_sig = fresh.sig.clone();
        let fresh_id = pool.insert(fresh, None).id();
        {
            let mut view = pool.scoped_view(&[pool.shard_of(&a_sig)]);
            view.get_mut(a_id).unwrap().sig = fresh_sig.clone();
            view.rekey(a_id, &a_sig, None);
        }
        assert_eq!(pool.lookup(&fresh_sig), Some(a_id), "re-keyed entry wins");
        assert!(pool.entry(fresh_id, |_| ()).is_none(), "duplicate removed");
        assert_eq!(pool.len(), 1);
        pool.check_invariants().unwrap();
        // and evicting the winner leaves a clean, empty index
        pool.remove(a_id);
        assert_eq!(pool.lookup(&fresh_sig), None);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn candidates_probe_takes_no_shard_lock() {
        // the candidate index is a side-map: a miss-path subsumption probe
        // must not touch any shard lock at all — pin it via a write view
        // over every shard held concurrently with the probe
        let pool = RecyclePool::with_shards(8);
        let e = mk_entry(&pool, vec![], 1);
        let op = e.sig.op;
        let arg0 = e.sig.first_arg().unwrap().clone();
        let id = pool.insert(e, None).id();
        let _view = pool.write_view(); // all shard write locks held
        assert_eq!(pool.candidates(op, &arg0), vec![id]);
    }

    #[test]
    fn colliding_signatures_admit_and_answer_apart() {
        // every signature on one fingerprint: one shard, one slot
        let mut pool = RecyclePool::with_shards(8);
        pool.fp_mask = 0;
        let probe = |tag: i64| {
            let args = [Value::Int(tag)];
            let sig = SigRef::artifact(ArtifactKind::Result, Opcode::Select, &args);
            pool.probe(&sig, |e| e.id)
        };
        let ids: Vec<EntryId> = (1..=3)
            .map(
                |tag| match pool.insert(mk_entry(&pool, vec![], tag), None) {
                    Admitted::Inserted(id) => id,
                    other => panic!("collision must not cost the admission: {other:?}"),
                },
            )
            .collect();
        assert_eq!(pool.len(), 3);
        for (tag, id) in (1..=3).zip(&ids) {
            assert_eq!(probe(tag), Some(*id), "each probe gets its own answer");
            assert_eq!(pool.entry(*id, |e| e.id), Some(*id));
        }
        assert_eq!(
            probe(9),
            None,
            "an absent signature is a miss, not a neighbour"
        );
        // a collided signature still resolves its duplicates
        let dup = pool.insert(mk_entry(&pool, vec![], 2), None);
        assert_eq!(dup, Admitted::Duplicate(ids[1]));
        pool.check_invariants().unwrap();
        // removal takes exactly the one asked for, wherever it queues
        for (gone, left) in [(0, vec![2, 3]), (2, vec![2]), (1, vec![])] {
            assert_eq!(pool.remove(ids[gone]).map(|e| e.id), Some(ids[gone]));
            let answered: Vec<i64> = (1..=3).filter(|tag| probe(*tag).is_some()).collect();
            assert_eq!(answered, left);
            pool.check_invariants().unwrap();
        }
        assert!(pool.is_empty());
    }

    #[test]
    fn probe_takes_no_write_lock() {
        let pool = RecyclePool::new();
        let e = mk_entry(&pool, vec![], 7);
        let sig = e.sig.clone();
        pool.insert(e, None);
        let args = [Value::Int(7)];
        let probe = SigRef::artifact(ArtifactKind::Result, Opcode::Select, &args);
        let w0 = pool.write_lock_acquisitions();
        for _ in 0..100 {
            assert!(pool.probe(&probe, |e| e.id).is_some());
            assert!(pool.lookup(&sig).is_some());
        }
        assert_eq!(
            pool.write_lock_acquisitions(),
            w0,
            "probes must be read-lock-only"
        );
    }
}
