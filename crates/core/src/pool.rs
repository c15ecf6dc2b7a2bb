//! The recycle pool: what each entry holds.
//!
//! The pool is one fingerprint-keyed table — entry slab and exact-match
//! index at once — the resident byte total, and the one [lineage
//! graph](crate::lineage) over the entry ids, all behind **one** `RwLock`.
//! Every read — an exact-match probe, an admission's lineage resolution, a
//! subsumption attempt, a whole-plan replay — is one step under its read
//! guard
//! ([`PoolReadView`]); every step that changes the pool — an admission
//! together with the room it makes, a commit's invalidation, maintenance —
//! is one step under its write guard ([`PoolWriteView`]). This module owns
//! every question about an entry's *content* — the table, the byte total,
//! the eviction step, the subset relation read off the lineage and what a
//! write step that panics leaves behind: an empty pool.
//! Every question about *ids* — where an id is filed, who feeds whom,
//! which entries are evictable leaves, which entries share an operand,
//! which entries derive from a base column — belongs to the graph. See
//! [`crate::shared`] for the locking model.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use rbat::hash::FxHashSet;
use rbat::BatId;
use rmal::Opcode;

use crate::entry::{Anchors, EntryId, Lineage, Pin, PoolEntry};
use crate::eviction::{self, Candidate, Caps, Unit};
use crate::lineage::{LineageGraph, Resolved};
use crate::signature::{ArgSig, FingerprintMap, Sig, SigRef};
use crate::subsume::keeps_a_subset;

/// Outcome of [`RecyclePool::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admitted {
    /// The entry was inserted under this id.
    Inserted(EntryId),
    /// An equivalent entry was already resident under this id; the
    /// candidate was dropped, the resident entry was pinned on behalf of
    /// the losing session, and the loser's result BAT was aliased onto the
    /// winner (all atomically under the pool lock). Nothing was evicted.
    Duplicate(EntryId),
    /// A parent entry disappeared between resolution and insertion (an
    /// update invalidated it); the candidate was dropped — admitting it
    /// would leave a dangling lineage link. Nothing was evicted.
    Orphaned,
    /// The candidate does not fit under its caps and eviction could not
    /// make room: it alone exceeds a cap, or the unpinned leaves ran out.
    /// The candidate was dropped; what was evicted on the way stays
    /// evicted. The caller refunds its admission charge.
    NoRoom,
}

impl Admitted {
    /// The resident entry id, whoever admitted it.
    ///
    /// # Panics
    /// Panics on the outcomes that leave nothing resident.
    pub fn id(self) -> EntryId {
        match self {
            Admitted::Inserted(id) | Admitted::Duplicate(id) => id,
            other => panic!("{other:?} admission has no resident entry"),
        }
    }

    /// Did this call insert the entry?
    pub fn inserted(self) -> bool {
        matches!(self, Admitted::Inserted(_))
    }
}

thread_local! {
    static READ_LOCKS: Cell<u64> = const { Cell::new(0) };
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

    fn len(&self) -> usize {
        self.slots.len() + self.collided.len()
    }

    /// The byte total re-derived from the entries.
    fn bytes(&self) -> usize {
        self.entries().map(PoolEntry::bytes).sum()
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

/// What the pool lock guards: the table, its resident byte total and the
/// lineage graph over it, so no step ever sees one without the others.
#[derive(Default)]
struct State {
    table: Table,
    /// Bytes charged by the resident entries ([`PoolEntry::bytes`], fixed
    /// at admission): moved only by the insert and removal funnels, under
    /// the write guard.
    bytes: usize,
    graph: LineageGraph,
}

impl State {
    /// The resident entry `id`: the graph says where it is filed.
    fn entry(&self, id: EntryId) -> Option<&PoolEntry> {
        let key = self.graph.locate(id)?;
        self.table.find(key, |e| e.id == id)
    }
}

/// The recycler's resource pool of intermediates (paper §3.2): one entry
/// table and the one [lineage graph](crate::lineage) over its ids.
///
/// # Concurrency
///
/// All methods take `&self`; locking is internal, and there is one lock.
/// Probes (`lookup`, [`Self::probe`]), id-based reads ([`Self::entry`]),
/// an admission's lineage resolution, a subsumption attempt and a
/// whole-plan replay take its **read** guard, [`PoolReadView`], once. Every step that changes the
/// pool — [`Self::insert`] with the room it makes, the removal paths,
/// `clear`, a registration, a commit — holds the one write guard,
/// [`PoolWriteView`], for the whole step. A step that panics empties the
/// pool before the guard unlocks (see [`PoolWriteView`]'s `Drop`), so the
/// lock, poisoned or not, always guards a consistent pool. Every stored
/// result `Value` is `Arc`-shared — a result cloned out of the pool stays
/// valid after the entry is evicted, invalidated or wiped.
pub struct RecyclePool {
    state: RwLock<State>,
    /// ANDed onto every fingerprint before it keys anything: all ones,
    /// except where a test masks bits away to force collisions.
    fp_mask: u64,
    next_id: AtomicU64,
    /// Write-lock acquisitions since construction — the probe for the
    /// "exact-match hits take no write lock" invariant.
    write_acquisitions: AtomicU64,
    /// Entries visited by eviction gathers since construction — the probe
    /// for the "gather cost is O(leaves), independent of pool size"
    /// invariant the leaf set buys.
    gather_visited: AtomicU64,
    /// Eviction gather rounds since construction (the divisor for
    /// per-round gather cost).
    gather_rounds: AtomicU64,
    /// Write steps a panic unwound through, each of which emptied the pool.
    wipes: AtomicU64,
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
            state: RwLock::default(),
            fp_mask: u64::MAX,
            next_id: AtomicU64::new(0),
            write_acquisitions: AtomicU64::new(0),
            gather_visited: AtomicU64::new(0),
            gather_rounds: AtomicU64::new(0),
            wipes: AtomicU64::new(0),
        }
    }

    /// The table key of a signature.
    fn key(&self, sig: &Sig) -> u64 {
        sig.fingerprint() & self.fp_mask
    }

    /// Write-lock acquisitions since construction. The exact-match hit
    /// path must never advance this counter — tests pin that down.
    pub fn write_lock_acquisitions(&self) -> u64 {
        self.write_acquisitions.load(Ordering::Relaxed)
    }

    /// Read locks the calling thread has taken, on any pool — the test
    /// probe for "an exact hit is one read lock" (thread-local: counting
    /// costs the hit path no shared write).
    pub fn read_locks_on_this_thread() -> u64 {
        READ_LOCKS.with(Cell::get)
    }

    /// Hold the read lock for one step — the only way to it. A poisoned
    /// lock guards an empty pool (the write step that panicked wiped it),
    /// so the poison flag is not consulted.
    pub(crate) fn read_view(&self) -> PoolReadView<'_> {
        READ_LOCKS.with(|n| n.set(n.get() + 1));
        let state = self.state.read().unwrap_or_else(PoisonError::into_inner);
        PoolReadView { state }
    }

    /// Write steps a panic unwound through, each of which emptied the pool
    /// (monotone; stats).
    pub fn wipes(&self) -> u64 {
        self.wipes.load(Ordering::Relaxed)
    }

    /// Number of entries ("cache lines"), under the read lock.
    pub fn len(&self) -> usize {
        self.read_view().len()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total resident bytes of stored intermediates, under the read lock.
    pub fn bytes(&self) -> usize {
        self.read_view().state.bytes
    }

    /// Allocate the next entry id (monotone, never reused — also across
    /// [`Self::clear`], so stale references can never alias a new entry).
    pub fn alloc_id(&self) -> EntryId {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Drop every entry and index while keeping the id counter monotone.
    ///
    /// Atomic with respect to concurrent sessions: the write lock is held
    /// while the table, the lineage graph and the counters are wiped — a
    /// racing admission lands either entirely before the clear (and is
    /// wiped) or entirely after it (and stays fully wired).
    pub fn clear(&self) {
        self.write_view().empty();
    }

    /// Exact-match lookup by owned signature (diagnostics and tests; the
    /// hit path is [`Self::probe`]).
    pub fn lookup(&self, sig: &Sig) -> Option<EntryId> {
        self.find(sig.fingerprint(), |e| e.sig == *sig, |e| e.id)
    }

    /// Run `f` over the entry matching `sig`, under the *read* lock — the
    /// whole exact-match hit path (atomic counter updates, pinning, result
    /// cloning) happens inside `f`: one fingerprint, one lock, one table
    /// lookup, the stored signature verified. `f` must not call back into
    /// the pool.
    pub fn probe<R>(&self, sig: &SigRef<'_>, f: impl FnOnce(&PoolEntry) -> R) -> Option<R> {
        self.find(sig.fingerprint(), |e| sig.matches(&e.sig), f)
    }

    fn find<R>(
        &self,
        fingerprint: u64,
        is: impl Fn(&PoolEntry) -> bool,
        f: impl FnOnce(&PoolEntry) -> R,
    ) -> Option<R> {
        let view = self.read_view();
        view.state.table.find(fingerprint & self.fp_mask, is).map(f)
    }

    /// Run `f` over the entry `id`, under one read lock: the graph says
    /// where it is filed, the table holds it. `f` must not call back into
    /// the pool.
    pub fn entry<R>(&self, id: EntryId, f: impl FnOnce(&PoolEntry) -> R) -> Option<R> {
        self.read_view().entry(id).map(f)
    }

    /// The entry owning (or aliased to) a result BAT, if any.
    pub fn entry_of_result(&self, bat: BatId) -> Option<EntryId> {
        self.read_view().state.graph.entry_of_result(bat)
    }

    /// Admission's lineage under one read lock. For each BAT argument: its
    /// resident producer (or the entry it is aliased to) is pinned on the
    /// caller's behalf into `pins` and becomes one of `lineage`'s parents;
    /// a BAT nobody resident produced hands over the columns it is a
    /// registered persistent buffer of, as `lineage`'s own anchors. False —
    /// the thread cannot be anchored — at the first argument that is
    /// neither.
    pub(crate) fn resolve(
        &self,
        bats: impl Iterator<Item = BatId>,
        lineage: &mut Lineage,
        pins: &mut Vec<Pin>,
    ) -> bool {
        let view = self.read_view();
        let state = &view.state;
        for resolved in state.graph.resolve(bats) {
            match resolved {
                Resolved::Entry(id, key) => {
                    let Some(producer) = state.table.find(key, |e| e.id == id) else {
                        return false;
                    };
                    pins.push(Pin::take(producer));
                    lineage.parents.push(id);
                }
                Resolved::Persistent(columns) => lineage.anchors.extend(columns),
                Resolved::Unknown => return false,
            }
        }
        true
    }

    /// Register `bat` as a persistent buffer (bound column, join index) of
    /// the columns `anchors`: an identity admissions may reference without
    /// a pool-resident producer, until a commit retires one of its columns.
    pub fn register_persistent(&self, bat: BatId, anchors: Anchors) {
        self.write_view().state.graph.register(bat, anchors);
    }

    /// The persistent-BAT registry (diagnostics, tests).
    pub fn persistent_bats(&self) -> Vec<(BatId, Anchors)> {
        self.read_view().state.graph.registered()
    }

    /// A commit rewrote `columns`: the entries anchored on any of them,
    /// ascending — the roots whose subtrees ([`Self::remove_subtree`]) are
    /// everything derived from those columns — with the registrations of
    /// the replaced buffers dropped in the same step. A commit runs both
    /// under one [`PoolWriteView`].
    pub fn retire_columns(&self, columns: &Anchors) -> Vec<EntryId> {
        self.write_view().retire_columns(columns)
    }

    /// Each anchor column with every resident entry that (transitively)
    /// derives from it — computed from the graph when asked, stored nowhere
    /// (diagnostics: the lineage suites' oracle for what a commit removes).
    pub fn derived_by_column(&self) -> Vec<((String, String), Vec<EntryId>)> {
        self.read_view().state.graph.derived()
    }

    /// Visit every entry under the read lock. `f` must not call back into
    /// the pool.
    pub fn for_each_entry(&self, f: impl FnMut(&PoolEntry)) {
        self.read_view().state.table.entries().for_each(f);
    }

    /// Snapshot clones of every entry (diagnostics, tests, Table views).
    pub fn snapshot_entries(&self) -> Vec<PoolEntry> {
        let mut out = Vec::new();
        self.for_each_entry(|e| out.push(e.clone()));
        out
    }

    /// The ids of the entries with the given opcode and first-argument
    /// signature, ascending — the subsumption search space for "same
    /// column operand", kept in the lineage graph (the table is keyed by
    /// the *full* signature hash). Diagnostics: a subsumption attempt
    /// reads the entries themselves in its one read step
    /// ([`PoolReadView::candidates`]).
    pub fn candidates(&self, op: Opcode, arg0: &ArgSig) -> Vec<EntryId> {
        self.read_view().state.graph.candidates(op, arg0).to_vec()
    }

    /// Admit a fully constructed entry — `recycleExit` (paper §4.3) as one
    /// step under the write lock, which runs, in order:
    ///
    /// 1. **duplicate**: two sessions can probe the same signature, both
    ///    miss, both execute, and both admit — a *normal* concurrent
    ///    outcome. First writer wins: the resident entry stays and is
    ///    pinned once on the loser's behalf, the loser's result BAT is
    ///    aliased onto it (so the losing query's downstream lineage stays
    ///    admissible), and the candidate is dropped
    ///    ([`Admitted::Duplicate`]) so the caller can return the admission
    ///    credit and reconcile its pin set;
    /// 2. **parents**: a concurrent update may have invalidated a parent
    ///    since the caller resolved and pinned it; the candidate is then
    ///    dropped ([`Admitted::Orphaned`]) rather than left with dangling
    ///    lineage;
    /// 3. **room**: while the candidate does not fit under `caps` —
    ///    resident bytes plus its own under the byte cap, then resident
    ///    entries plus one under the entry cap — unpinned leaves go as
    ///    `caps.policy` ranks them ([`crate::eviction`]); if the leaves run
    ///    out, the candidate is dropped ([`Admitted::NoRoom`]);
    /// 4. **wire and charge**: the entry enters the lineage graph and the
    ///    table, and its bytes join the resident total
    ///    ([`Admitted::Inserted`]).
    ///
    /// A loser at step 1 or 2 evicts nothing, and no admission waits on or
    /// is refused for another's demand: nothing is reserved across steps.
    /// The evicted entries are returned beside the outcome, for the caller
    /// to settle once the lock is released.
    pub fn insert(&self, entry: PoolEntry, caps: Caps) -> (Admitted, Vec<PoolEntry>) {
        let mut evicted = Vec::new();
        let key = self.key(&entry.sig);
        // Failpoint: an admission about to make room, before the lock.
        #[cfg(feature = "failpoints")]
        if !caps.hold(self.bytes() + entry.bytes(), self.len() + 1) {
            let _ = crate::fault::fire("evict.gather");
        }
        let mut view = self.write_view();
        #[cfg(feature = "failpoints")]
        let _ = crate::fault::fire("pool.insert");
        let state = &mut *view.state;
        let State { table, graph, .. } = &mut *state;
        if let Some(win) = table.find(key, |e| e.sig == entry.sig) {
            win.pins.fetch_add(1, Ordering::Relaxed);
            if let Some(rb) = entry.result_id {
                graph.alias(rb, win.id);
            }
            return (Admitted::Duplicate(win.id), evicted);
        }
        if !graph.all_resident(&entry.parents) {
            return (Admitted::Orphaned, evicted);
        }
        if !self.make_room(state, &caps, entry.bytes(), &mut evicted) {
            return (Admitted::NoRoom, evicted);
        }
        // (a parent nobody pinned may have been the room made — only a
        // caller bypassing the funnel admits without pinning)
        if !state.graph.wire(&entry, key) {
            return (Admitted::Orphaned, evicted);
        }
        let (id, bytes) = (entry.id, entry.bytes());
        // Failpoint: the graph knows the entry but the table does not hold
        // it yet — the most torn state an unwind can leave.
        #[cfg(feature = "failpoints")]
        let _ = crate::fault::fire("pool.insert.wired");
        state.table.insert(key, entry);
        state.bytes += bytes;
        let (bytes, len) = (state.bytes, state.table.len());
        debug_assert!(
            caps.hold(bytes, len),
            "an insert overshot its caps: {bytes} bytes in {len} entries under {caps:?}"
        );
        (Admitted::Inserted(id), evicted)
    }

    /// Step 3 of [`Self::insert`], under its write lock: evict until a
    /// candidate charging `bytes` fits under the byte cap, then under the
    /// entry cap. False when it cannot — it alone exceeds a cap, or the
    /// unpinned leaves ran out.
    fn make_room(
        &self,
        state: &mut State,
        caps: &Caps,
        bytes: usize,
        evicted: &mut Vec<PoolEntry>,
    ) -> bool {
        let caps_by_unit = [
            (caps.bytes, Unit::Bytes, bytes),
            (caps.entries, Unit::Entries, 1),
        ];
        caps_by_unit.into_iter().all(|(cap, unit, this)| {
            let Some(cap) = cap else { return true };
            let resident = |state: &State| match unit {
                Unit::Bytes => state.bytes,
                Unit::Entries => state.table.len(),
            };
            let over = (resident(state) + this).saturating_sub(cap);
            if this <= cap && over > 0 {
                self.evict(state, caps, unit, over, evicted);
            }
            resident(state) + this <= cap
        })
    }

    /// Remove the victims `caps.policy` picks from the unpinned leaves
    /// until `need` units are freed or none is left, gathering again
    /// whenever a removal exposed a new layer of leaves. Under the write
    /// lock nothing pins an entry or wires a child edge meanwhile, so every
    /// victim picked is removed.
    fn evict(
        &self,
        state: &mut State,
        caps: &Caps,
        unit: Unit,
        need: usize,
        evicted: &mut Vec<PoolEntry>,
    ) {
        let mut freed = 0;
        while freed < need {
            let victims =
                eviction::victims(caps.policy, unit, need - freed, self.gather(state, caps));
            if victims.is_empty() {
                break;
            }
            #[cfg(feature = "failpoints")]
            let _ = crate::fault::fire("evict.remove");
            for id in victims {
                if let Some(e) = self.remove_locked(state, id) {
                    freed += unit.of(&e);
                    evicted.push(e);
                }
            }
        }
    }

    /// The unpinned entries of the evictable-leaf set, ranked for
    /// `caps.policy`, in the ascending id order the graph hands them out in
    /// (so a policy's ties break by id): O(leaves) work, no full-pool scan.
    /// Pin state is not part of the set (pins flip on the read-lock-only
    /// hit path), so pinned leaves are filtered here. Advances the
    /// gather-cost counters ([`Self::eviction_gather_visited`] by the leaf
    /// count, [`Self::eviction_gather_rounds`] by one).
    fn gather(&self, state: &State, caps: &Caps) -> Vec<Candidate> {
        let leaves = state.graph.leaves();
        self.gather_visited
            .fetch_add(leaves.len() as u64, Ordering::Relaxed);
        self.gather_rounds.fetch_add(1, Ordering::Relaxed);
        let resident = leaves
            .into_iter()
            .filter_map(|(id, key)| state.table.find(key, |e| e.id == id));
        resident
            .filter(|e| e.pin_count() == 0)
            .map(|e| Candidate::of(caps.policy, e, caps.now_tick))
            .collect()
    }

    /// Unwire and remove the entry `id` while the write lock is held.
    fn remove_locked(&self, state: &mut State, id: EntryId) -> Option<PoolEntry> {
        let key = state.graph.locate(id)?;
        let entry = state.table.remove(key, id)?;
        state.graph.unwire(&entry);
        state.bytes -= entry.bytes();
        Some(entry)
    }

    /// Remove one entry, unwiring it from the graph; returns it.
    pub fn remove(&self, id: EntryId) -> Option<PoolEntry> {
        self.write_view().remove(id)
    }

    /// Snapshot of the evictable-leaf set: the ids of every childless
    /// resident entry, ascending (pinned ones included — pins are checked
    /// when eviction gathers).
    pub fn leaf_ids(&self) -> Vec<EntryId> {
        let leaves = self.read_view().state.graph.leaves();
        leaves.into_iter().map(|(id, _)| id).collect()
    }

    /// Number of entries currently in the evictable-leaf set.
    pub fn leaf_index_size(&self) -> usize {
        self.read_view().state.graph.leaf_count()
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
        self.read_view().state.graph.has_children(id)
    }

    /// Dependents of an entry (direct children), ascending.
    pub fn children_of(&self, id: EntryId) -> Vec<EntryId> {
        self.read_view().state.graph.children_of(id)
    }

    /// Remove `root` and every transitive dependent (update invalidation,
    /// §6.4) under one write lock. Returns the removed entries.
    pub fn remove_subtree(&self, root: EntryId) -> Vec<PoolEntry> {
        self.write_view().remove_subtree(&[root])
    }

    /// Hold the write lock for one step — the only way to it: an
    /// admission, a removal, `clear`, update invalidation, diagnostics.
    /// While the view is alive no admission, hit or eviction runs anywhere
    /// in the pool.
    pub fn write_view(&self) -> PoolWriteView<'_> {
        self.write_acquisitions.fetch_add(1, Ordering::Relaxed);
        let state = self.state.write().unwrap_or_else(PoisonError::into_inner);
        PoolWriteView { pool: self, state }
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

    /// Check the structural invariant under the read lock: every entry
    /// filed under its signature's fingerprint, no signature resident
    /// twice, parents alive; the byte total equal to the sum over the
    /// table; the lineage graph equal to [`LineageGraph::rebuild`] over it.
    /// Test support — call on a quiescent pool.
    pub fn check_invariants(&self) -> Result<(), String> {
        let view = self.read_view();
        let state = &view.state;
        let table = &state.table;
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
        if state.bytes != table.bytes() {
            let (booked, summed) = (state.bytes, table.bytes());
            return Err(format!("{booked} bytes booked, {summed} resident"));
        }
        let live = &state.graph;
        live.diff(&LineageGraph::rebuild(table.filed(), live))
    }
}

/// The pool's one read guard, held for one step: an exact-match probe, an
/// admission's lineage resolution, a subsumption attempt, a whole-plan
/// replay (every entry a repeated all-hit query uses). What is read
/// under it — entries, candidates, the subset relation — is one consistent
/// image of the pool; anything a caller keeps past the step is a clone (a
/// result `Value` is an `Arc`) or an id.
pub(crate) struct PoolReadView<'a> {
    state: RwLockReadGuard<'a, State>,
}

impl PoolReadView<'_> {
    /// The resident entry `id`.
    pub(crate) fn entry(&self, id: EntryId) -> Option<&PoolEntry> {
        self.state.entry(id)
    }

    /// Number of resident entries.
    pub(crate) fn len(&self) -> usize {
        self.state.table.len()
    }

    /// The entries with the given opcode and first-argument signature, in
    /// ascending id order — the subsumption search space (§5.1).
    pub(crate) fn candidates(&self, op: Opcode, arg0: &ArgSig) -> impl Iterator<Item = &PoolEntry> {
        let ids = self.state.graph.candidates(op, arg0).iter();
        ids.filter_map(|id| self.state.entry(*id))
    }

    /// Is `sub ⊆ sup` by tuple content, read off the lineage? `sub` is
    /// `sup`, or its resident producer (owner or aliased) is a
    /// subset-preserving filter ([`keeps_a_subset`]) whose first BAT
    /// argument is — the walk goes on from there. Nothing is recorded: the
    /// relation ends with the entries it runs through. The walk ends: an
    /// operand BAT is made (and numbered) before the result it feeds.
    pub(crate) fn is_subset(&self, mut sub: BatId, sup: BatId) -> bool {
        while sub != sup {
            let producer = self.state.graph.entry_of_result(sub);
            let filter = producer.and_then(|id| self.state.entry(id));
            let filter = filter.filter(|e| keeps_a_subset(e.sig.op));
            match filter.and_then(|e| e.sig.first_arg()) {
                Some(ArgSig::Bat(operand)) => sub = *operand,
                _ => return false,
            }
        }
        true
    }
}

/// The pool's one write guard, held for one step: an admission with the
/// room it makes, a removal, `clear`, a commit's retirement of columns and
/// invalidation. Concurrent queries observe the pool either entirely
/// before or entirely after it. A step that panics may leave the table and
/// the graph torn; the guard's `Drop` then empties the pool before the
/// lock unlocks, so what the (poisoned) lock guards is always consistent.
pub struct PoolWriteView<'a> {
    pool: &'a RecyclePool,
    state: RwLockWriteGuard<'a, State>,
}

impl PoolWriteView<'_> {
    /// Drop every entry, the byte total and the graph.
    fn empty(&mut self) {
        *self.state = State::default();
    }

    /// Remove one entry, unwiring it from the graph.
    pub fn remove(&mut self, id: EntryId) -> Option<PoolEntry> {
        self.pool.remove_locked(&mut self.state, id)
    }

    /// Remove `roots` and every transitive dependent, read off the live
    /// graph in the same step.
    pub fn remove_subtree(&mut self, roots: &[EntryId]) -> Vec<PoolEntry> {
        let order = self.state.graph.subtree(roots);
        let removed = order.into_iter();
        removed
            .filter_map(|(id, _)| self.pool.remove_locked(&mut self.state, id))
            .collect()
    }

    /// A commit rewrote `columns`: the entries anchored on any of them,
    /// ascending — the roots of [`Self::remove_subtree`] — with the
    /// registrations of the replaced buffers dropped.
    pub fn retire_columns(&mut self, columns: &Anchors) -> Vec<EntryId> {
        self.state.graph.retire(columns)
    }
}

impl Drop for PoolWriteView<'_> {
    /// A step a panic is unwinding through empties the pool and counts one
    /// wipe — before the inner guard unlocks, so no reader ever sees the
    /// torn state. Any other step leaves the byte total equal to the sum
    /// over the table (checked in debug builds).
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.empty();
            self.pool.wipes.fetch_add(1, Ordering::Relaxed);
        } else if cfg!(debug_assertions) {
            debug_assert_eq!(
                self.state.bytes,
                self.state.table.bytes(),
                "the byte total drifted from the resident entries"
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
        let admitted = pool.insert(e, Caps::NONE).0;
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
        let id_a = pool.insert(a, Caps::NONE).0.id();
        let mut b = mk_entry(&pool, vec![], 2);
        b.sig = Sig::of(Opcode::Select, &[Value::Int(1)]); // same sig as a
        let outcome = pool.insert(b, Caps::NONE).0;
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
        let id_a = pool.insert(a, Caps::NONE).0.id();
        pool.remove(id_a);
        let b = mk_entry(&pool, vec![id_a], 2);
        assert_eq!(pool.insert(b, Caps::NONE).0, Admitted::Orphaned);
        assert!(pool.is_empty());
        pool.check_invariants().unwrap();
    }

    #[test]
    fn result_alias_resolves_and_unwires_with_entry() {
        let pool = RecyclePool::new();
        let id = pool.insert(mk_entry(&pool, vec![], 1), Caps::NONE).0.id();
        // the loser of a duplicate admission: same signature, its own BAT
        let loser = mk_entry(&pool, vec![], 1);
        let loser_bat = loser.result_id.unwrap();
        assert_eq!(pool.insert(loser, Caps::NONE).0, Admitted::Duplicate(id));
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
        let id_before = pool.insert(e, Caps::NONE).0.id();
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.bytes(), 0);
        let e2 = mk_entry(&pool, vec![], 2);
        let id_after = pool.insert(e2, Caps::NONE).0.id();
        assert!(
            id_after > id_before,
            "ids must never be reused across a clear ({id_before} vs {id_after})"
        );
        pool.check_invariants().unwrap();
    }

    /// Insert a fresh root (`tag`, 100 bytes) under `caps`: the outcome
    /// and the ids the room-making step evicted, in removal order.
    fn admit_under(pool: &RecyclePool, tag: i64, caps: Caps) -> (Admitted, Vec<EntryId>) {
        let (admitted, evicted) = pool.insert(mk_entry(pool, vec![], tag), caps);
        (admitted, evicted.iter().map(|e| e.id).collect())
    }

    /// Caps holding `n` entries, LRU.
    fn entry_cap(n: usize) -> Caps {
        Caps {
            entries: Some(n),
            ..Caps::NONE
        }
    }

    #[test]
    fn evictable_respects_children_and_pins() {
        let pool = RecyclePool::new();
        let a = mk_entry(&pool, vec![], 1);
        let a_id = pool.insert(a, Caps::NONE).0.id();
        let b = mk_entry(&pool, vec![a_id], 2);
        let b_id = pool.insert(b, Caps::NONE).0.id();
        // a has a child, and the one leaf is pinned: no room
        pool.entry(b_id, |e| e.pins.store(1, Ordering::Relaxed));
        assert_eq!(
            admit_under(&pool, 3, entry_cap(2)),
            (Admitted::NoRoom, vec![])
        );
        pool.entry(b_id, |e| e.pins.store(0, Ordering::Relaxed));
        let (admitted, evicted) = admit_under(&pool, 3, entry_cap(2));
        assert!(admitted.inserted());
        assert_eq!(evicted, vec![b_id]);
        // with the child gone, a became a leaf — the oldest one
        assert_eq!(admit_under(&pool, 4, entry_cap(2)).1, vec![a_id]);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn leaf_index_tracks_child_wiring() {
        let pool = RecyclePool::new();
        let a = pool.insert(mk_entry(&pool, vec![], 1), Caps::NONE).0.id();
        assert_eq!(pool.leaf_ids(), vec![a], "fresh entry starts as a leaf");
        let b = pool.insert(mk_entry(&pool, vec![a], 2), Caps::NONE).0.id();
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
        let a = pool.insert(mk_entry(&pool, vec![], 1), Caps::NONE).0.id();
        let b = pool.insert(mk_entry(&pool, vec![], 2), Caps::NONE).0.id();
        // one child hanging off both parents (and the same parent twice —
        // duplicate parent links must not corrupt the 0↔1 transitions)
        let c = pool
            .insert(mk_entry(&pool, vec![a, a, b], 3), Caps::NONE)
            .0
            .id();
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
        for tag in 0..32 {
            pool.insert(mk_entry(&pool, vec![], tag), Caps::NONE);
        }
        let before = pool.write_lock_acquisitions();
        let (admitted, evicted) = admit_under(&pool, 99, entry_cap(1));
        assert!(admitted.inserted());
        assert_eq!(evicted.len(), 32, "every unpinned leaf must go");
        assert_eq!(
            pool.write_lock_acquisitions() - before,
            1,
            "32 victims and the insert, one write lock"
        );
        assert_eq!(pool.len(), 1);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn remove_batch_revalidates_pins_and_children() {
        // the oldest entries are a parent and a pinned leaf: the victim is
        // the oldest unpinned leaf behind them
        let pool = RecyclePool::new();
        let parent = pool.insert(mk_entry(&pool, vec![], 1), Caps::NONE).0.id();
        let pinned = pool.insert(mk_entry(&pool, vec![], 2), Caps::NONE).0.id();
        let free = pool
            .insert(mk_entry(&pool, vec![parent], 3), Caps::NONE)
            .0
            .id();
        let other = pool
            .insert(mk_entry(&pool, vec![parent], 4), Caps::NONE)
            .0
            .id();
        for (id, last_used) in [(parent, 0), (pinned, 0), (free, 1), (other, 2)] {
            pool.entry(id, |e| e.last_used.store(last_used, Ordering::Relaxed));
        }
        pool.entry(pinned, |e| e.pins.store(1, Ordering::Relaxed));
        let (admitted, evicted) = admit_under(&pool, 5, entry_cap(4));
        assert!(admitted.inserted());
        assert_eq!(evicted, vec![free], "parented and pinned entries skipped");
        assert_eq!(pool.len(), 4);
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
                let e = mk_entry(&pool, parents, tag);
                parent = Some(pool.insert(e, Caps::NONE).0.id());
            }
        }
        let v0 = pool.eviction_gather_visited();
        let r0 = pool.eviction_gather_rounds();
        assert_eq!(admit_under(&pool, 99, entry_cap(12)).1.len(), 1);
        assert_eq!(pool.eviction_gather_visited() - v0, 4);
        assert_eq!(pool.eviction_gather_rounds() - r0, 1);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn remove_subtree_cascades() {
        let pool = RecyclePool::new();
        let a = mk_entry(&pool, vec![], 1);
        let a_id = pool.insert(a, Caps::NONE).0.id();
        let b = mk_entry(&pool, vec![a_id], 2);
        let b_id = pool.insert(b, Caps::NONE).0.id();
        let c = mk_entry(&pool, vec![b_id], 3);
        pool.insert(c, Caps::NONE);
        let removed = pool.remove_subtree(a_id);
        assert_eq!(removed.len(), 3);
        assert!(pool.is_empty());
        pool.check_invariants().unwrap();
    }

    #[test]
    fn candidates_probe_is_one_read_lock() {
        // the candidate index lives in the graph, inside the pool lock:
        // listing it is one read lock and no write lock
        let pool = RecyclePool::new();
        let e = mk_entry(&pool, vec![], 1);
        let op = e.sig.op;
        let arg0 = e.sig.first_arg().unwrap().clone();
        let id = pool.insert(e, Caps::NONE).0.id();
        let (reads, writes) = (
            RecyclePool::read_locks_on_this_thread(),
            pool.write_lock_acquisitions(),
        );
        assert_eq!(pool.candidates(op, &arg0), vec![id]);
        assert_eq!(RecyclePool::read_locks_on_this_thread() - reads, 1);
        assert_eq!(pool.write_lock_acquisitions(), writes);
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
                |tag| match pool.insert(mk_entry(&pool, vec![], tag), Caps::NONE).0 {
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
        let dup = pool.insert(mk_entry(&pool, vec![], 2), Caps::NONE).0;
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
        pool.insert(e, Caps::NONE);
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
