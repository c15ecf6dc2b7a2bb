//! The recycle pool: what each entry holds.
//!
//! The pool is one fingerprint-keyed table — entry slab and exact-match
//! index at once — behind one `RwLock`, so the exact-match hit path takes
//! one **read** lock and nothing else. This module owns every question
//! about an entry's *content* — the table, the [ledger](crate::ledger),
//! quarantine and repair. Every question about
//! *ids* — where an id is filed, who feeds whom, which entries are
//! evictable leaves, which results subsume which, which entries derive from
//! a base column — belongs to the one [lineage graph](crate::lineage), kept
//! behind its own `RwLock` that is always taken last and held for a single
//! map operation. See [`crate::shared`] for the full locking model.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use rbat::hash::FxHashSet;
use rbat::BatId;
use rmal::Opcode;

use crate::entry::{Anchors, EntryId, PoolEntry};
use crate::ledger::{Books, Ledger};
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
    /// winner (all atomically under the table lock).
    Duplicate(EntryId),
    /// A parent entry disappeared between resolution and insertion (an
    /// update invalidated it); the candidate was dropped — admitting it
    /// would leave a dangling lineage link.
    Orphaned,
    /// The pool is quarantined after a poisoning panic (see
    /// [`RecyclePool::repair`]); the candidate was rejected without
    /// touching the table. The caller refunds its admission charge —
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

/// The pool's one table: every entry, keyed by its signature fingerprint —
/// slab and exact-match index at once, so a probe is a single
/// identity-hashed lookup. Should a different signature ever claim an
/// occupied fingerprint it goes to the `collided` list, and every access
/// tells the two apart by signature or id.
#[derive(Default)]
struct Table {
    slots: FingerprintMap<PoolEntry>,
    collided: Vec<(u64, PoolEntry)>,
}

impl Table {
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

/// The recycler's resource pool of intermediates (paper §3.2): one entry
/// table and the one [lineage graph](crate::lineage) over its ids.
///
/// # Concurrency
///
/// All methods take `&self`; locking is internal. Probes (`lookup`,
/// [`Self::probe`]) take the table **read** lock; id-based reads
/// ([`Self::entry`]) first ask the graph where the id is filed;
/// [`Self::candidates`] and [`Self::is_subset`] read the graph alone.
/// [`Self::insert`] and the removal paths write-lock the table once and,
/// inside it, the graph once per step; commits and maintenance hold the
/// table write lock through a [`PoolWriteView`] ([`Self::write_view`]).
/// Every stored result `Value` is `Arc`-shared — a result cloned out of the
/// pool stays valid after the entry is evicted or invalidated. The graph
/// changes only while the table lock is held, so a write view observes
/// fully wired, quiescent lineage.
pub struct RecyclePool {
    table: RwLock<Table>,
    /// The resident byte and entry-count books. Moved only by the
    /// insert/remove funnels ([`Self::insert`] / `remove_locked`), always
    /// under the table write lock.
    ledger: Ledger,
    /// ANDed onto every fingerprint before it keys anything: all ones,
    /// except where a test masks bits away to force collisions.
    fp_mask: u64,
    /// The lineage graph, behind the pool's innermost lock: taken through
    /// [`Self::graph`] / [`Self::graph_mut`] for one plain map operation
    /// at a time, with nothing acquired while it is held.
    lineage: RwLock<LineageGraph>,
    next_id: AtomicU64,
    /// Table write-lock acquisitions since construction — the probe for
    /// the "exact-match hits take no write lock" invariant.
    write_acquisitions: AtomicU64,
    /// Entries visited by eviction gathers since construction — the probe
    /// for the "gather cost is O(leaves), independent of pool size"
    /// invariant the leaf set buys.
    gather_visited: AtomicU64,
    /// Eviction gather rounds since construction (the divisor for
    /// per-round gather cost).
    gather_rounds: AtomicU64,
    /// The quarantine flag — the degraded-mode source of truth, beside the
    /// lock's own poison flag. Raised the first time the table lock is
    /// observed poisoned (a panic unwound through a writer holding it, so
    /// its slab/index wiring may be torn). While raised: probes miss,
    /// admissions come back as [`Admitted::Quarantined`], and eviction
    /// skips the pool — a miss is always correct, torn state is never
    /// served or extended. Only [`Self::repair`] or [`Self::clear`] lower
    /// it.
    quarantined: AtomicBool,
    /// Cumulative quarantine episodes (stats).
    quarantined_total: AtomicU64,
    /// Cumulative repairs that returned the pool to service (stats).
    repaired_total: AtomicU64,
}

/// What [`RecyclePool::repair`] did — counts for the stats layer and
/// for byte-book assertions in tests.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// Was the pool quarantined — and is it now back in service?
    pub repaired: bool,
    /// Entries dropped: torn (half-wired) residents plus any entry whose
    /// lineage chain died with them.
    pub entries_dropped: usize,
    /// Bytes of the dropped entries; the ledger is recomputed from the
    /// surviving table, healing any counter drift a mid-flight panic left.
    pub bytes_dropped: usize,
}

impl std::fmt::Debug for RecyclePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecyclePool")
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
    /// Empty pool.
    pub fn new() -> RecyclePool {
        RecyclePool {
            table: RwLock::default(),
            ledger: Ledger::default(),
            fp_mask: u64::MAX,
            lineage: RwLock::default(),
            next_id: AtomicU64::new(0),
            write_acquisitions: AtomicU64::new(0),
            gather_visited: AtomicU64::new(0),
            gather_rounds: AtomicU64::new(0),
            quarantined: AtomicBool::new(false),
            quarantined_total: AtomicU64::new(0),
            repaired_total: AtomicU64::new(0),
        }
    }

    /// The table key of a signature.
    fn key(&self, sig: &Sig) -> u64 {
        sig.fingerprint() & self.fp_mask
    }

    /// The lineage graph for one read. Callers use the guard within a
    /// single expression: nothing is locked, and no caller code runs,
    /// while it is held.
    fn graph(&self) -> RwLockReadGuard<'_, LineageGraph> {
        GRAPH_LOCKS.with(|n| n.set(n.get() + 1));
        self.lineage.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The lineage graph for one whole-step mutation (see [`Self::graph`]).
    /// The caller holds the table lock.
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

    /// Table write-lock acquisitions since construction. The exact-match
    /// hit path must never advance this counter — tests pin that down.
    pub fn write_lock_acquisitions(&self) -> u64 {
        self.write_acquisitions.load(Ordering::Relaxed)
    }

    /// Table read locks the calling thread has taken, on any pool — the
    /// test probe for "an exact hit is one read lock" (thread-local:
    /// counting costs the hit path no shared write).
    pub fn read_locks_on_this_thread() -> u64 {
        READ_LOCKS.with(Cell::get)
    }

    fn read_table(&self) -> RwLockReadGuard<'_, Table> {
        READ_LOCKS.with(|n| n.set(n.get() + 1));
        self.table.read().unwrap_or_else(|poisoned| {
            self.note_poison();
            poisoned.into_inner()
        })
    }

    fn write_table(&self) -> RwLockWriteGuard<'_, Table> {
        self.write_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.table.write().unwrap_or_else(|poisoned| {
            self.note_poison();
            poisoned.into_inner()
        })
    }

    /// Raise the quarantine flag (idempotent). Called the moment poison is
    /// observed — at a lock acquisition or a lock-free `is_poisoned` probe
    /// on the hit path.
    fn note_poison(&self) {
        if !self.quarantined.swap(true, Ordering::AcqRel) {
            self.quarantined_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// May the pool serve probes and admissions? False once it is
    /// quarantined — including the very first probe after the poisoning
    /// panic, via the lock's own poison flag (two atomic loads; the
    /// exact-match hit path pays exactly this).
    fn serviceable(&self) -> bool {
        if self.quarantined.load(Ordering::Acquire) {
            return false;
        }
        if self.table.is_poisoned() {
            self.note_poison();
            return false;
        }
        true
    }

    /// Is the pool quarantined? O(1); callers that can afford a
    /// [`Self::repair`] — the commit path, the server's panic containment
    /// — consult this to run one.
    pub fn has_quarantined(&self) -> bool {
        !self.serviceable()
    }

    /// Cumulative quarantine episodes (monotone; stats).
    pub fn quarantined_total(&self) -> u64 {
        self.quarantined_total.load(Ordering::Relaxed)
    }

    /// Cumulative repairs that returned the pool to service (monotone;
    /// stats).
    pub fn repaired_total(&self) -> u64 {
        self.repaired_total.load(Ordering::Relaxed)
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
    /// Atomic with respect to concurrent sessions: the table write lock is
    /// held while the table, the lineage graph and the counters are wiped
    /// — a racing admission lands either entirely before the clear (and is
    /// wiped) or entirely after it (and stays fully wired).
    pub fn clear(&self) {
        let mut table = self.write_table();
        *table = Table::default();
        self.ledger.store(&Books::default());
        *self.graph_mut() = LineageGraph::default();
        // A full wipe trivially restores every invariant: lift any
        // quarantine and un-poison the lock — while the write guard is
        // still held, so no probe can observe a poisoned lock with the
        // quarantine flag already lowered.
        self.table.clear_poison();
        self.quarantined.store(false, Ordering::Release);
    }

    /// Repair a quarantined pool and return it to service.
    ///
    /// A panic that unwound through the table write lock can leave *torn*
    /// state: an exact-match key without its slab entry, a leaf/owner
    /// listing for an id that never became resident, byte counters that
    /// drifted from the table. Quarantine froze all of it (probes miss,
    /// admissions bounce, eviction skips); this pass — one pass over the
    /// one table, under its write lock — makes the frozen state consistent
    /// again:
    ///
    /// 1. the table is refiled entry by entry, dropping misfiled and
    ///    duplicate-signature residents;
    /// 2. entries whose lineage chain died (a dropped ancestor anywhere)
    ///    are cascaded out — a child may never outlive its parents;
    /// 3. the lineage graph is replaced by [`LineageGraph::rebuild`] over
    ///    the surviving table (aliases and subset edges carried over for
    ///    survivors only);
    /// 4. the ledger is overwritten with [`Ledger::recompute`] over the
    ///    survivors (healing drift in either direction), and the lock
    ///    poison and the quarantine flag are cleared while the write guard
    ///    is still held.
    ///
    /// Afterwards [`Self::check_invariants`] holds again (tests assert
    /// it). Dropped entries cost misses, never wrong answers: their
    /// results were only reachable through indexes this pass prunes,
    /// and pins held on them by in-flight queries unpin as no-ops.
    pub fn repair(&self) -> RepairReport {
        let mut table = self.write_table();
        // with the lock held, a poisoned table has been observed by
        // `write_table` and carries the quarantine flag
        if !self.quarantined.load(Ordering::Acquire) {
            return RepairReport::default();
        }
        let mut dropped: Vec<PoolEntry> = Vec::new();
        // 1. Table coherence. Two residents with one signature cannot both
        // stay; refiling oldest id first keeps the one insert would have
        // kept (first-writer-wins).
        let Table { slots, collided } = std::mem::take(&mut *table);
        let mut torn: Vec<(u64, PoolEntry)> = slots.into_iter().chain(collided).collect();
        torn.sort_unstable_by_key(|(_, e)| e.id);
        for (key, e) in torn {
            if self.key(&e.sig) != key || table.find(key, |twin| twin.sig == e.sig).is_some() {
                dropped.push(e);
            } else {
                table.insert(key, e);
            }
        }
        // 2. Cascade: no resident may reference a dead parent.
        let mut resident: FxHashSet<EntryId> = table.entries().map(|e| e.id).collect();
        loop {
            let orphaned =
                |(_, e): &(u64, &PoolEntry)| e.parents.iter().any(|p| !resident.contains(p));
            let doomed: Vec<(u64, EntryId)> = table
                .filed()
                .filter(orphaned)
                .map(|(k, e)| (k, e.id))
                .collect();
            if doomed.is_empty() {
                break;
            }
            for (key, id) in doomed {
                resident.remove(&id);
                dropped.extend(table.remove(key, id));
            }
        }
        // 3. One graph from the surviving table.
        let rebuilt = LineageGraph::rebuild(table.filed(), &self.graph());
        *self.graph_mut() = rebuilt;
        // 4. Exact ledger from the survivors; un-poison; unquarantine.
        self.ledger.store(&Ledger::recompute(table.entries()));
        self.table.clear_poison();
        self.quarantined.store(false, Ordering::Release);
        self.repaired_total.fetch_add(1, Ordering::Relaxed);
        drop(table);
        RepairReport {
            repaired: true,
            entries_dropped: dropped.len(),
            bytes_dropped: dropped.iter().map(|e| e.bytes()).sum(),
        }
    }

    /// Exact-match lookup by owned signature (diagnostics and tests; the
    /// hit path is [`Self::probe`]).
    pub fn lookup(&self, sig: &Sig) -> Option<EntryId> {
        self.find(sig.fingerprint(), |e| e.sig == *sig, |e| e.id)
    }

    /// Run `f` over the entry matching `sig`, under the table's *read*
    /// lock — the whole exact-match hit path (atomic counter updates,
    /// pinning, result cloning) happens inside `f`: one fingerprint, one
    /// lock, one table lookup, the stored signature verified. `f` must not
    /// call back into table-locking pool methods. A quarantined pool
    /// reports a miss (degraded mode).
    pub fn probe<R>(&self, sig: &SigRef<'_>, f: impl FnOnce(&PoolEntry) -> R) -> Option<R> {
        self.find(sig.fingerprint(), |e| sig.matches(&e.sig), f)
    }

    fn find<R>(
        &self,
        fingerprint: u64,
        is: impl Fn(&PoolEntry) -> bool,
        f: impl FnOnce(&PoolEntry) -> R,
    ) -> Option<R> {
        if !self.serviceable() {
            return None;
        }
        self.read_table()
            .find(fingerprint & self.fp_mask, is)
            .map(f)
    }

    /// Run `f` over the entry `id`, under the table's read lock. `f` must
    /// not call back into table-locking pool methods.
    /// A quarantined pool reports `None` (degraded mode).
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
    /// ascending — the roots whose subtrees ([`Self::remove_subtree`]) are
    /// everything derived from those columns — with the registrations of
    /// the replaced buffers dropped in the same graph step.
    pub fn retire_columns(&self, columns: &Anchors) -> Vec<EntryId> {
        self.graph_mut().retire(columns)
    }

    /// Each anchor column with every resident entry that (transitively)
    /// derives from it — computed from the graph when asked, stored nowhere
    /// (diagnostics: the lineage suites' oracle for what a commit removes).
    pub fn derived_by_column(&self) -> Vec<((String, String), Vec<EntryId>)> {
        self.graph().derived()
    }

    /// [`Self::entry`] for a caller that already knows the table key
    /// (from [`Self::resolve`]): one table read lock, no graph lock. The
    /// id is revalidated in the table, so a stale key is a `None`.
    pub(crate) fn entry_at<R>(
        &self,
        id: EntryId,
        key: u64,
        f: impl FnOnce(&PoolEntry) -> R,
    ) -> Option<R> {
        if !self.serviceable() {
            return None;
        }
        self.read_table().find(key, |e| e.id == id).map(f)
    }

    /// Visit every entry under the table's read lock. `f` may touch the
    /// lineage graph ([`Self::has_children`], pin atomics) but must not
    /// call back into table-locking pool methods.
    pub fn for_each_entry(&self, f: impl FnMut(&PoolEntry)) {
        self.read_table().entries().for_each(f);
    }

    /// Snapshot clones of every entry (diagnostics, tests, Table views).
    pub fn snapshot_entries(&self) -> Vec<PoolEntry> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_entry(|e| out.push(e.clone()));
        out
    }

    /// Candidate entries with the given opcode and first-argument
    /// signature, ascending — the subsumption search space for "same
    /// column operand". The table is keyed by the *full* signature hash,
    /// so the list lives in the lineage graph: a miss-path probe is one
    /// graph read and no table lock. Returned ids are a snapshot; callers
    /// revalidate residency via [`Self::entry`].
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

    /// Insert a fully constructed entry under the table write lock, wiring
    /// it into the lineage graph in one step.
    ///
    /// Duplicate signatures are a *normal* concurrent outcome, not a
    /// "can't happen" path: two sessions can probe the same signature,
    /// both miss, both execute, and both admit. Resolution is
    /// first-writer-wins — the resident entry stays and is pinned once on
    /// the loser's behalf, the loser's result BAT is aliased onto it (so
    /// the losing query's downstream lineage stays admissible), and the
    /// candidate is dropped; all of it atomically under the table lock,
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
        if !self.serviceable() {
            return Admitted::Quarantined;
        }
        let key = self.key(&entry.sig);
        let mut table = self.write_table();
        #[cfg(feature = "failpoints")]
        let _ = crate::fault::fire("pool.insert");
        if let Some(win) = table.find(key, |e| e.sig == entry.sig) {
            win.pins.fetch_add(1, Ordering::Relaxed);
            if let Some(rb) = entry.result_id {
                self.graph_mut().alias(rb, win.id);
            }
            return Admitted::Duplicate(win.id);
        }
        if !self.graph_mut().wire(&entry, key, subset_of) {
            return Admitted::Orphaned;
        }
        let (id, bytes) = (entry.id, entry.bytes());
        // Failpoint: the graph knows the entry but the table does not hold
        // it yet — the most torn state an unwind can leave.
        #[cfg(feature = "failpoints")]
        let _ = crate::fault::fire("pool.insert.wired");
        table.insert(key, entry);
        self.ledger.charge(bytes);
        Admitted::Inserted(id)
    }

    /// Unwire and remove the entry `id` filed under `key` (a pair as the
    /// graph hands it out) while the table write lock is held. With
    /// `evictable_only` the entry goes only if it is still an unpinned
    /// leaf: the pin check runs under the write lock (a hit pins under the
    /// read lock) and the leaf check inside [`LineageGraph::unwire`], in
    /// the same step that unwires it.
    fn remove_locked(
        &self,
        table: &mut Table,
        (id, key): (EntryId, u64),
        evictable_only: bool,
    ) -> Option<PoolEntry> {
        let entry = table.find(key, |e| e.id == id)?;
        if evictable_only && entry.pin_count() != 0 {
            return None;
        }
        if !self.graph_mut().unwire(entry, evictable_only) {
            return None;
        }
        let entry = table.remove(key, id)?;
        self.ledger.release(entry.bytes());
        Some(entry)
    }

    /// Remove one entry, unwiring it from the graph; returns it.
    pub fn remove(&self, id: EntryId) -> Option<PoolEntry> {
        self.write_view().remove(id)
    }

    /// Remove `id` only if it is still an unpinned leaf — the eviction
    /// removal step. The check and the removal are atomic under the table
    /// write lock: a hit pinning the entry runs under the read lock, so
    /// pin-vs-evict races cannot happen.
    pub fn remove_if_evictable(&self, id: EntryId) -> Option<PoolEntry> {
        self.remove_batch_if_evictable(std::slice::from_ref(&id))
            .pop()
    }

    /// Remove every victim in `ids` that is still an unpinned leaf — the
    /// batched eviction removal step: one graph read places the batch and
    /// the table write lock is taken **once** for all of it, instead of
    /// once per victim. Every victim is revalidated inside the critical
    /// section — a concurrent hit (pin) or a freshly wired child edge
    /// always wins over the caller's stale snapshot; such victims are
    /// skipped. A quarantined pool sits out eviction: its books may be
    /// torn, so removals wait for [`Self::repair`].
    pub fn remove_batch_if_evictable(&self, ids: &[EntryId]) -> Vec<PoolEntry> {
        let located = self.graph().locate_all(ids.iter().copied());
        if located.is_empty() || !self.serviceable() {
            return Vec::new();
        }
        let mut table = self.write_table();
        #[cfg(feature = "failpoints")]
        let _ = crate::fault::fire("evict.remove");
        let removed = located.into_iter();
        removed
            .filter_map(|located| self.remove_locked(&mut table, located, true))
            .collect()
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

    /// Visit every entry in the evictable-leaf set, in ascending id order
    /// — the eviction gather path. Cost is O(leaves), **independent of
    /// total pool size**: the leaves are snapshot with their table keys in
    /// one graph read and looked up under one table read lock. Ids whose
    /// entry vanished since the snapshot are silently skipped (`f` sees
    /// residents only); a quarantined pool's residents are frozen until
    /// [`Self::repair`] and not visited. Advances the gather-cost
    /// counters ([`Self::eviction_gather_visited`] by the snapshot size,
    /// [`Self::eviction_gather_rounds`] by one).
    pub fn for_each_leaf_entry(&self, mut f: impl FnMut(&PoolEntry)) {
        let leaves = self.graph().leaves();
        self.gather_visited
            .fetch_add(leaves.len() as u64, Ordering::Relaxed);
        self.gather_rounds.fetch_add(1, Ordering::Relaxed);
        if leaves.is_empty() || !self.serviceable() {
            return;
        }
        let table = self.read_table();
        for (id, key) in leaves {
            if let Some(e) = table.find(key, |e| e.id == id) {
                f(e);
            }
        }
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
    /// §6.4) under one table write lock. Returns the removed entries.
    pub fn remove_subtree(&self, root: EntryId) -> Vec<PoolEntry> {
        self.write_view().remove_subtree(&[root])
    }

    /// Hold the table write lock for an atomic multi-entry removal —
    /// update invalidation, maintenance, diagnostics. While the view is
    /// alive no admission, hit or eviction runs anywhere in the pool.
    pub fn write_view(&self) -> PoolWriteView<'_> {
        PoolWriteView {
            pool: self,
            table: self.write_table(),
        }
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
            "# recycle pool: {} entries, {} bytes",
            entries.len(),
            entries.iter().map(|e| e.bytes()).sum::<usize>(),
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
            let result = match e.result_id {
                Some(b) => format!("bat#{}", b.0),
                None => e.value().to_string(),
            };
            let tuples = e
                .value()
                .as_bat()
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

    /// Check the structural invariant under the table read lock: every
    /// entry filed under its signature's fingerprint, no signature resident
    /// twice, parents alive; the ledger equal to [`Ledger::recompute`] over
    /// the table; the lineage graph equal to [`LineageGraph::rebuild`] over
    /// it. Test support — call on a quiescent pool.
    pub fn check_invariants(&self) -> Result<(), String> {
        let table = self.read_table();
        let all_ids: FxHashSet<EntryId> = table.entries().map(|e| e.id).collect();
        for (key, e) in table.filed() {
            let id = &e.id;
            let want = self.key(&e.sig);
            if want != key {
                return Err(format!(
                    "entry {id} filed under {key:#x}, sig maps to {want:#x}"
                ));
            }
            if table
                .find(key, |twin| twin.sig == e.sig && twin.id != *id)
                .is_some()
            {
                return Err(format!("entry {id} shares its signature with a resident"));
            }
            for p in &e.parents {
                if !all_ids.contains(p) {
                    return Err(format!("entry {id} has dangling parent {p}"));
                }
            }
        }
        let actual = Ledger::recompute(table.entries());
        let booked = self.ledger.books();
        if booked != actual {
            return Err(format!("ledger {booked:?} != recomputed {actual:?}"));
        }
        let live = self.graph();
        live.diff(&LineageGraph::rebuild(table.filed(), &live))
    }
}

/// The table write lock, held for one atomic multi-entry removal: a
/// commit's invalidation, maintenance, diagnostics. Concurrent queries
/// observe the pool either entirely before or entirely after it.
pub struct PoolWriteView<'a> {
    pool: &'a RecyclePool,
    table: RwLockWriteGuard<'a, Table>,
}

impl PoolWriteView<'_> {
    /// Remove one entry, unwiring it from the graph.
    pub fn remove(&mut self, id: EntryId) -> Option<PoolEntry> {
        let key = self.pool.graph().locate(id)?;
        self.pool.remove_locked(&mut self.table, (id, key), false)
    }

    /// Remove `roots` and every transitive dependent, read off the live
    /// graph in one step.
    pub fn remove_subtree(&mut self, roots: &[EntryId]) -> Vec<PoolEntry> {
        let order = self.pool.graph().subtree(roots);
        let (pool, table) = (self.pool, &mut *self.table);
        order
            .into_iter()
            .filter_map(|located| pool.remove_locked(table, located, false))
            .collect()
    }
}

impl Drop for PoolWriteView<'_> {
    /// Debug builds verify the ledger on release: the books must equal
    /// [`Ledger::recompute`] over the table after any sequence of removals
    /// (a table a panic is unwinding through, or a quarantined one, is
    /// torn by definition and waits for `repair`).
    fn drop(&mut self) {
        if cfg!(debug_assertions) && !std::thread::panicking() && self.pool.serviceable() {
            debug_assert_eq!(
                self.pool.ledger.books(),
                Ledger::recompute(self.table.entries()),
                "the books drifted from the resident entries"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Admitter, Lineage};
    use rbat::{Bat, Column, Value};
    use std::sync::Arc;
    use std::time::Duration;

    fn mk_entry(pool: &RecyclePool, parents: Vec<EntryId>, tag: i64) -> PoolEntry {
        let bat = Arc::new(Bat::from_tail(Column::from_ints(vec![tag])));
        let e = PoolEntry::new(
            pool.alloc_id(),
            Sig::of(Opcode::Select, &[Value::Int(tag)]),
            Value::Bat(bat),
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
    fn remove_batch_takes_one_write_lock() {
        let pool = RecyclePool::new();
        let ids: Vec<EntryId> = (0..32)
            .map(|i| pool.insert(mk_entry(&pool, vec![], i), None).id())
            .collect();
        let before = pool.write_lock_acquisitions();
        let removed = pool.remove_batch_if_evictable(&ids);
        assert_eq!(removed.len(), 32, "every unpinned leaf must go");
        assert_eq!(
            pool.write_lock_acquisitions() - before,
            1,
            "one batch, one table write lock"
        );
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
    fn candidates_probe_takes_no_table_lock() {
        // the candidate index lives in the graph: a miss-path subsumption
        // probe must not touch the table lock at all — pin it via a write
        // view held concurrently with the probe
        let pool = RecyclePool::new();
        let e = mk_entry(&pool, vec![], 1);
        let op = e.sig.op;
        let arg0 = e.sig.first_arg().unwrap().clone();
        let id = pool.insert(e, None).id();
        let _view = pool.write_view(); // the table write lock held
        assert_eq!(pool.candidates(op, &arg0), vec![id]);
    }

    #[test]
    fn colliding_signatures_admit_and_answer_apart() {
        // every signature on one fingerprint: one slot
        let mut pool = RecyclePool::new();
        pool.fp_mask = 0;
        let probe = |tag: i64| {
            let args = [Value::Int(tag)];
            let sig = SigRef::of(Opcode::Select, &args);
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
        let probe = SigRef::of(Opcode::Select, &args);
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
