//! The lineage property test: after ANY sequence of admissions (roots,
//! roots anchored on one or two base columns, children with arbitrary
//! parent wiring, entries standing on a registered persistent BAT nobody
//! resident produced, duplicates that alias their result onto the winner,
//! orphans whose parent is gone), persistent-BAT registrations, removals,
//! evictions — the room an admission under an entry cap makes in its own
//! write step, one victim or a batch — subtree invalidations (directly
//! and under a write view) and commits (`retire_columns` + the removal of
//! the roots' subtrees) the pool's lineage graph must equal
//!
//! * `LineageGraph::rebuild` over the table — `check_invariants` compares
//!   the two — and
//! * the model kept in this file: plain `Vec`s of who is resident, who
//!   feeds whom, who owns which result BAT, which BATs are registered.
//!
//! The model keeps the definition of "derives from column `c`" that the
//! entries themselves used to carry: a set per entry, its own anchors plus
//! whatever its parents held when it was admitted. The graph stores no such
//! set — an entry holds its own anchors only — and must still give the same
//! answer: the entries anchored on `c` and their descendants are exactly
//! the entries whose model set holds `c`, and a commit removes exactly
//! those.
//!
//! The eviction gather trusts the leaf set completely (no per-candidate
//! child probe) and admission coherence trusts the result index, so drift
//! would silently evict non-leaves, strand evictable entries or admit
//! orphans; the model also names every victim, in order, the way the LRU
//! policy must pick them. With `--features failpoints` one more step tears
//! an insert at `pool.insert.wired` (graph wired, table entry missing):
//! the pool must come out empty, registry included, exactly as after a
//! `clear`, with one wipe counted.
//!
//! Mutation-checked against `lineage.rs`: dropping the re-leaf when a
//! parent loses its last child, skipping the alias cleanup in `unwire`,
//! wiring before the orphan check, leaving the anchor index alone in
//! `unwire`, keeping the registrations in `retire`, and indexing the
//! anchors of binds only (an entry anchored through a persistent argument
//! left out) each fail this test.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rbat::{Bat, BatId, Column, Value};
use recycler::entry::{Admitter, Anchors, Lineage};
use recycler::signature::{ArgSig, Sig};
use recycler::{Admitted, Caps, EntryId, PoolEntry, RecyclePool};
use rmal::Opcode;

/// Signatures share their first argument in thirds, so the candidate lists
/// of the graph hold more than one entry each.
const GROUPS: i64 = 3;

fn sig_of(tag: i64) -> Sig {
    Sig::of(Opcode::Select, &[Value::Int(tag % GROUPS), Value::Int(tag)])
}

fn fresh_bat(tag: i64) -> Arc<Bat> {
    Arc::new(Bat::from_tail(Column::from_ints(vec![tag])))
}

/// The base columns of the scripts: `t.c0` … `t.c3`.
const COLUMNS: usize = 4;

fn column(i: usize) -> (String, String) {
    ("t".into(), format!("c{}", i % COLUMNS))
}

/// One column, or (odd `sel`) two.
fn columns_of(sel: usize) -> Anchors {
    let second = (sel % 2 == 1).then(|| column(sel / 2 + 1 + sel / 8));
    std::iter::once(column(sel / 2)).chain(second).collect()
}

/// A bind-like signature: not a subsumption candidate of anything.
fn bind_sig(tag: i64) -> Sig {
    Sig::of(Opcode::Bind, &[Value::str("t"), Value::Int(tag)])
}

/// An unpinned entry whose result is a BAT of its own, last used at `tag`.
fn mk(pool: &RecyclePool, sig: Sig, parents: Vec<EntryId>, tag: i64) -> (PoolEntry, BatId) {
    mk_anchored(pool, sig, parents, Anchors::new(), tag)
}

fn mk_anchored(
    pool: &RecyclePool,
    sig: Sig,
    parents: Vec<EntryId>,
    anchors: Anchors,
    tag: i64,
) -> (PoolEntry, BatId) {
    let bat = fresh_bat(tag);
    let result = bat.id();
    let lineage = Lineage { parents, anchors };
    let e = PoolEntry::new(
        pool.alloc_id(),
        sig,
        Value::Bat(bat),
        64,
        Duration::from_millis(1),
        lineage,
        Admitter {
            tick: tag as u64,
            ..Admitter::default()
        },
    );
    e.pins.store(0, Ordering::Relaxed);
    (e, result)
}

/// What the test knows about one resident entry — written down when the
/// test does something, never read back from the pool.
#[derive(Debug, Clone)]
struct Resident {
    id: EntryId,
    sig: Sig,
    parents: Vec<EntryId>,
    result: BatId,
    aliases: Vec<BatId>,
    pins: u32,
    /// Stamped as used before everything else: LRU's first choice. The
    /// others were last used when they were admitted, in id order.
    oldest: bool,
    /// The columns the entry was admitted with as its own.
    anchors: Anchors,
    /// The old definition of its lineage: `anchors` plus every parent's
    /// `columns`, fixed at admission.
    columns: Anchors,
}

#[derive(Debug, Default)]
struct Model {
    residents: Vec<Resident>,
    /// Results and aliases of entries that are gone: they resolve to nothing.
    retired: Vec<BatId>,
    /// Persistent BATs registered and not retired since, with their columns.
    registry: Vec<(BatId, Anchors)>,
}

impl Model {
    fn get(&mut self, id: EntryId) -> &mut Resident {
        let at = self.residents.iter().position(|r| r.id == id);
        &mut self.residents[at.expect("resident")]
    }

    fn pick(&self, sel: usize) -> Option<Resident> {
        let n = self.residents.len();
        (n > 0).then(|| self.residents[sel % n].clone())
    }

    /// A new resident without aliases or pins; its `columns`
    /// are inherited here, once, the way entries used to inherit them.
    fn admit(
        &mut self,
        id: EntryId,
        sig: Sig,
        parents: Vec<EntryId>,
        result: BatId,
        anchors: Anchors,
    ) {
        let mut columns = anchors.clone();
        for p in &parents {
            columns.extend(self.get(*p).columns.clone());
        }
        self.residents.push(Resident {
            id,
            sig,
            parents,
            result,
            aliases: vec![],
            pins: 0,
            oldest: false,
            anchors,
            columns,
        });
    }

    fn register(&mut self, bat: BatId, columns: Anchors) {
        self.registry.retain(|(b, _)| *b != bat);
        self.registry.push((bat, columns));
    }

    /// The entries whose (old-definition) lineage meets `columns`.
    fn derived_from(&self, columns: &Anchors) -> Vec<EntryId> {
        let meets = |r: &&Resident| !r.columns.is_disjoint(columns);
        self.residents.iter().filter(meets).map(|r| r.id).collect()
    }

    fn children(&self, id: EntryId) -> Vec<EntryId> {
        let feeds = |r: &&Resident| r.parents.contains(&id);
        self.residents.iter().filter(feeds).map(|r| r.id).collect()
    }

    /// What freeing `need` entry slots under LRU removes, in order: round
    /// after round, the unpinned leaves by last use (ties by id), as many
    /// as still needed, until none is left.
    fn lru_victims(&self, need: usize) -> Vec<EntryId> {
        let mut gone: Vec<EntryId> = Vec::new();
        while gone.len() < need {
            let alive = |r: &&Resident| !gone.contains(&r.id);
            let feeds = |id: EntryId| {
                self.residents
                    .iter()
                    .filter(alive)
                    .any(|c| c.parents.contains(&id))
            };
            let mut round: Vec<(bool, EntryId)> = self
                .residents
                .iter()
                .filter(alive)
                .filter(|r| r.pins == 0 && !feeds(r.id))
                .map(|r| (!r.oldest, r.id))
                .collect();
            if round.is_empty() {
                break;
            }
            round.sort_unstable();
            let take = need - gone.len();
            gone.extend(round.into_iter().take(take).map(|(_, id)| id));
        }
        gone
    }

    fn leaves(&self) -> Vec<EntryId> {
        let ids = self.residents.iter().map(|r| r.id);
        ids.filter(|id| self.children(*id).is_empty()).collect()
    }

    /// `root` and everything that transitively feeds on it.
    fn subtree(&self, root: EntryId) -> Vec<EntryId> {
        let mut out = vec![root];
        let mut next = 0;
        while next < out.len() {
            for c in self.children(out[next]) {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
            next += 1;
        }
        out
    }

    fn remove(&mut self, ids: &[EntryId]) {
        for r in self.residents.iter().filter(|r| ids.contains(&r.id)) {
            self.retired.push(r.result);
            self.retired.extend(&r.aliases);
        }
        self.residents.retain(|r| !ids.contains(&r.id));
    }

    /// The pool was emptied: every resident and every registration gone.
    fn empty(&mut self) {
        let all: Vec<EntryId> = self.residents.iter().map(|r| r.id).collect();
        self.remove(&all);
        self.registry.clear();
    }
}

fn sorted(mut ids: Vec<EntryId>) -> Vec<EntryId> {
    ids.sort_unstable();
    ids
}

/// The pool against `rebuild` (inside `check_invariants`) and against the
/// model, through the pool's public reads only.
fn agree(pool: &RecyclePool, model: &Model, step: &str) -> Result<(), TestCaseError> {
    let fail = |what: String| Err(TestCaseError::fail(format!("after {step}: {what}")));
    if let Err(e) = pool.check_invariants() {
        return fail(e);
    }
    let mut resident: Vec<(EntryId, Vec<EntryId>, Anchors)> = pool
        .snapshot_entries()
        .into_iter()
        .map(|e| (e.id, e.parents, e.anchors))
        .collect();
    resident.sort_unstable();
    let mut expected: Vec<(EntryId, Vec<EntryId>, Anchors)> = model
        .residents
        .iter()
        .map(|r| (r.id, r.parents.clone(), r.anchors.clone()))
        .collect();
    expected.sort_unstable();
    if resident != expected {
        return fail(format!("resident {resident:?}, model {expected:?}"));
    }
    // what derives from a column: the graph's answer (anchored entries and
    // their descendants) against the sets the model's entries carry
    let derived = pool.derived_by_column();
    for c in (0..COLUMNS).map(column) {
        let listed = derived.iter().find(|(col, _)| *col == c);
        let got = listed.map(|(_, ids)| ids.clone()).unwrap_or_default();
        let want = sorted(model.derived_from(&Anchors::from([c.clone()])));
        if got != want {
            return fail(format!(
                "derived from {c:?}: graph {got:?}, model sets {want:?}"
            ));
        }
    }
    let (mut registered, mut expected) = (pool.persistent_bats(), model.registry.clone());
    registered.sort_unstable();
    expected.sort_unstable();
    if registered != expected {
        return fail(format!("registry {registered:?}, model {expected:?}"));
    }
    for r in &model.residents {
        let id = r.id;
        if pool.children_of(id) != sorted(model.children(id)) {
            let (pool, model) = (pool.children_of(id), model.children(id));
            return fail(format!("children of {id}: pool {pool:?}, model {model:?}"));
        }
        if pool.has_children(id) == model.children(id).is_empty() {
            return fail(format!("has_children({id}) disagrees with the model"));
        }
        if pool.lookup(&r.sig) != Some(id) {
            return fail(format!("entry {id} not found under its signature"));
        }
        for bat in std::iter::once(&r.result).chain(&r.aliases) {
            if pool.entry_of_result(*bat) != Some(id) {
                let got = pool.entry_of_result(*bat);
                return fail(format!("{bat:?} of entry {id} resolves to {got:?}"));
            }
        }
        if pool.entry(id, |e| e.pin_count()) != Some(r.pins) {
            return fail(format!(
                "entry {id} pins differ from the model's {}",
                r.pins
            ));
        }
    }
    if let Some(bat) = model
        .retired
        .iter()
        .find(|b| pool.entry_of_result(**b).is_some())
    {
        return fail(format!("{bat:?} of a removed entry still resolves"));
    }
    let leaves = sorted(model.leaves());
    if pool.leaf_ids() != leaves || pool.leaf_index_size() != leaves.len() {
        let got = pool.leaf_ids();
        return fail(format!("leaf set {got:?}, childless residents {leaves:?}"));
    }
    for group in 0..GROUPS {
        let arg0 = ArgSig::of(&Value::Int(group));
        let listed = pool.candidates(Opcode::Select, &arg0);
        let of_group = |r: &&Resident| r.sig.first_arg() == Some(&arg0);
        let want = sorted(
            model
                .residents
                .iter()
                .filter(of_group)
                .map(|r| r.id)
                .collect(),
        );
        if listed != want {
            return fail(format!(
                "candidates of group {group}: {listed:?}, model {want:?}"
            ));
        }
    }
    Ok(())
}

/// Admit a fresh root under an entry cap that leaves it room only once `k`
/// entries are gone — eviction through its one entry point, the write step
/// of `insert`. The pool must evict exactly the model's LRU victims, in
/// order, and admit the root iff there were `k` of them.
fn evict_through_insert(
    pool: &RecyclePool,
    model: &mut Model,
    k: usize,
    tag: i64,
) -> Result<(), TestCaseError> {
    let want = model.lru_victims(k);
    let (e, result) = mk(pool, sig_of(tag), vec![], tag);
    let (id, sig) = (e.id, e.sig.clone());
    let caps = Caps {
        entries: Some(model.residents.len() + 1 - k),
        ..Caps::NONE
    };
    let (admitted, evicted) = pool.insert(e, caps);
    let evicted: Vec<EntryId> = evicted.iter().map(|e| e.id).collect();
    prop_assert_eq!(
        &evicted,
        &want,
        "victims of room for one under a cap {} lower",
        k
    );
    model.remove(&evicted);
    if want.len() == k {
        prop_assert_eq!(admitted, Admitted::Inserted(id));
        model.admit(id, sig, vec![], result, Anchors::new());
    } else {
        prop_assert_eq!(admitted, Admitted::NoRoom);
        model.retired.push(result);
    }
    Ok(())
}

/// Tear an insert at `pool.insert.wired` — the graph knows the entry, the
/// table does not hold it — and see the write step empty the pool.
#[cfg(feature = "failpoints")]
fn torn_insert(pool: &RecyclePool, entry: PoolEntry) {
    use recycler::fault::{self, FaultAction, FaultPlan, Trigger};
    use std::panic::{catch_unwind, set_hook, take_hook, AssertUnwindSafe};
    FaultPlan::seeded(7)
        .on("pool.insert.wired", Trigger::Always, FaultAction::Panic)
        .install();
    let wipes = pool.wipes();
    let hook = take_hook();
    set_hook(Box::new(|_| {}));
    let torn = catch_unwind(AssertUnwindSafe(|| pool.insert(entry, Caps::NONE)));
    set_hook(hook);
    fault::clear();
    assert!(
        torn.is_err(),
        "the injected panic must unwind out of insert"
    );
    assert_eq!(pool.wipes(), wipes + 1, "one wipe per torn step");
    assert_eq!(
        (pool.len(), pool.bytes()),
        (0, 0),
        "the torn step emptied the pool"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random scripts over a live pool: graph ≡ rebuild ≡ model after
    /// EVERY step, not just at the end.
    #[test]
    fn lineage_graph_equals_rebuild_and_model(
        ops in prop::collection::vec((0u8..16, 0usize..64, 0usize..64), 1..40),
    ) {
        let pool = RecyclePool::new();
        let mut model = Model::default();
        let mut tag = 0i64;
        for (op, sel_a, sel_b) in ops {
            tag += 1;
            let picked = model.pick(sel_a);
            let step = match (op, picked) {
                // a root; so is everything else while the pool is empty
                (0, _) => {
                    let sig = sig_of(tag);
                    let (e, result) = mk(&pool, sig.clone(), vec![], tag);
                    let id = e.id;
                    prop_assert_eq!(pool.insert(e, Caps::NONE).0, Admitted::Inserted(id));
                    model.admit(id, sig, vec![], result, Anchors::new());
                    "insert root"
                }
                // a bind: a root anchored on one column (or two, a join
                // index), its buffer registered persistent first; so is
                // everything else while the pool is empty
                (11, _) | (_, None) => {
                    let (sig, anchors) = (bind_sig(tag), columns_of(sel_b));
                    let (e, result) = mk_anchored(&pool, sig.clone(), vec![], anchors.clone(), tag);
                    let id = e.id;
                    pool.register_persistent(result, anchors.clone());
                    model.register(result, anchors.clone());
                    prop_assert_eq!(pool.insert(e, Caps::NONE).0, Admitted::Inserted(id));
                    model.admit(id, sig, vec![], result, anchors);
                    "insert anchored root"
                }
                // a persistent buffer is registered (again, with other
                // columns, if `sel_a` picks a registered one) while nothing
                // resident produces it
                (12, _) => {
                    let known = model.registry.get(sel_a % (model.registry.len() + 1));
                    let bat = known.map_or_else(|| fresh_bat(tag).id(), |(bat, _)| *bat);
                    pool.register_persistent(bat, columns_of(sel_b));
                    model.register(bat, columns_of(sel_b));
                    "register persistent"
                }
                // an admission over a registered BAT (and, odd, a resident
                // parent beside it): the runtime's fallback hands the
                // registered columns over as the entry's own anchors — read
                // back from the pool here, as `resolve` would
                (13, Some(p)) if !model.registry.is_empty() => {
                    let (bat, _) = &model.registry[sel_a % model.registry.len()];
                    let registered = pool.persistent_bats();
                    let anchors = registered.iter().find(|(b, _)| b == bat).map(|(_, of)| of.clone());
                    let anchors = anchors.expect("registered in the model, so in the pool");
                    let parents = if sel_b % 2 == 1 { vec![p.id] } else { vec![] };
                    let sig = sig_of(tag);
                    let (e, result) = mk_anchored(&pool, sig.clone(), parents.clone(), anchors.clone(), tag);
                    let id = e.id;
                    prop_assert_eq!(pool.insert(e, Caps::NONE).0, Admitted::Inserted(id));
                    model.admit(id, sig, parents, result, anchors);
                    "insert under a persistent BAT"
                }
                // a commit rewrote one or two columns: the graph lists the
                // roots — exactly the entries holding one of the columns as
                // their own anchor — and forgets the columns' buffers; the
                // roots' subtrees, removed root by root or (odd) at once
                // under the commit's write view, are exactly the entries
                // whose inherited set meets the columns
                (14, Some(_)) => {
                    let columns = columns_of(sel_a);
                    let roots = pool.retire_columns(&columns);
                    let anchored = |r: &&Resident| !r.anchors.is_disjoint(&columns);
                    let want: Vec<EntryId> = model.residents.iter().filter(anchored).map(|r| r.id).collect();
                    prop_assert_eq!(&roots, &sorted(want), "roots of {:?}", &columns);
                    let mut removed: Vec<EntryId> = Vec::new();
                    if sel_b % 2 == 0 {
                        for r in &roots {
                            removed.extend(pool.remove_subtree(*r).iter().map(|e| e.id));
                        }
                    } else {
                        let removed_at_once = pool.write_view().remove_subtree(&roots);
                        removed.extend(removed_at_once.iter().map(|e| e.id));
                    }
                    let gone = model.derived_from(&columns);
                    prop_assert_eq!(sorted(removed), sorted(gone.clone()), "victims of {:?}", &columns);
                    model.remove(&gone);
                    model.registry.retain(|(_, of)| of.is_disjoint(&columns));
                    "retire columns"
                }
                // a child of one or two residents (maybe the same one twice)
                (1, Some(p)) => {
                    let mut parents = vec![p.id];
                    if sel_b % 2 == 0 {
                        parents.push(model.pick(sel_b).expect("non-empty").id);
                    }
                    let sig = sig_of(tag);
                    let (e, result) = mk(&pool, sig.clone(), parents.clone(), tag);
                    let id = e.id;
                    prop_assert_eq!(pool.insert(e, Caps::NONE).0, Admitted::Inserted(id));
                    model.admit(id, sig, parents, result, Anchors::new());
                    "insert child"
                }
                // a duplicate admission: the resident wins, is pinned for
                // the loser, and the loser's BAT becomes its alias
                (2, Some(winner)) => {
                    let (e, loser_bat) = mk(&pool, winner.sig.clone(), vec![], tag);
                    prop_assert_eq!(pool.insert(e, Caps::NONE).0, Admitted::Duplicate(winner.id));
                    let w = model.get(winner.id);
                    w.aliases.push(loser_bat);
                    w.pins += 1;
                    "duplicate admission"
                }
                // an orphan: one parent alive, one long gone — nothing may
                // be wired, not even the edge onto the live parent
                (3, Some(p)) => {
                    let (e, _) = mk(&pool, sig_of(tag), vec![p.id, 1_000_000 + tag as u64], tag);
                    prop_assert_eq!(pool.insert(e, Caps::NONE).0, Admitted::Orphaned);
                    "orphaned admission"
                }
                // unconditional removal of a childless entry — unlike
                // eviction this ignores pins (invalidation overrides
                // retention); entries with dependents go through the
                // subtree ops, a bare `remove` would leave dangling parents
                (4, Some(r)) => {
                    if model.children(r.id).is_empty() {
                        prop_assert!(pool.remove(r.id).is_some());
                        model.remove(&[r.id]);
                    }
                    "remove"
                }
                // one eviction, aimed: `r` is stamped as the oldest entry,
                // so LRU takes it if it is an unpinned leaf, else the oldest
                // one that is — or, with none left, the admission finds no
                // room
                (5, Some(r)) => {
                    pool.entry(r.id, |e| e.last_used.store(0, Ordering::Relaxed));
                    model.get(r.id).oldest = true;
                    evict_through_insert(&pool, &mut model, 1, tag)?;
                    "evict one"
                }
                // a batch of evictions aimed at an arbitrary victim list:
                // the listed entries are stamped as the oldest, and as many
                // go as the list is long — peeling a parent once its last
                // child went, passing over pinned entries and parents for
                // the next oldest leaves
                (6, Some(_)) => {
                    let mask = (sel_a as u64) << 6 | sel_b as u64;
                    let chosen = |i: &usize| mask >> (i % 12) & 1 == 1;
                    let victims: Vec<EntryId> = (0..model.residents.len())
                        .filter(chosen)
                        .map(|i| model.residents[i].id)
                        .collect();
                    for v in &victims {
                        pool.entry(*v, |e| e.last_used.store(0, Ordering::Relaxed));
                        model.get(*v).oldest = true;
                    }
                    evict_through_insert(&pool, &mut model, victims.len().max(1), tag)?;
                    "evict batch"
                }
                // subtree invalidation, directly or (odd) under a write view
                (7, Some(root)) => {
                    let removed = if sel_b % 2 == 0 {
                        pool.remove_subtree(root.id)
                    } else {
                        pool.write_view().remove_subtree(&[root.id])
                    };
                    let gone = model.subtree(root.id);
                    prop_assert_eq!(sorted(removed.iter().map(|e| e.id).collect()), sorted(gone.clone()));
                    model.remove(&gone);
                    "remove subtree"
                }
                // pins are deliberately NOT part of the leaf set (they flip
                // on the read-lock-only hit path): a pinned leaf stays
                // listed and is merely skipped at removal
                (8, Some(r)) => {
                    let pins = (sel_b % 2) as u32;
                    pool.entry(r.id, |e| e.pins.store(pins, Ordering::Relaxed));
                    model.get(r.id).pins = pins;
                    "pin toggle"
                }
                // a child insert torn after `wire`: the pool is empty
                // after the tear, registrations included
                #[cfg(feature = "failpoints")]
                (10, Some(p)) => {
                    let (e, torn_result) = mk(&pool, sig_of(tag), vec![p.id], tag);
                    torn_insert(&pool, e);
                    model.empty();
                    model.retired.push(torn_result);
                    "torn insert"
                }
                // `clear` is the empty rebuild
                (_, Some(_)) => {
                    if sel_a % 8 == 0 {
                        pool.clear();
                        model.empty();
                    }
                    "clear"
                }
            };
            agree(&pool, &model, step)?;
        }
        // drain through the eviction path: one admission under a cap of one
        // entry evicts everything, layer by layer — every entry is
        // eventually a leaf and the leaf set must steer the whole teardown
        // (unpin everything first — eviction never removes pinned entries)
        for r in &mut model.residents {
            pool.entry(r.id, |e| e.pins.store(0, Ordering::Relaxed));
            r.pins = 0;
        }
        let everything = model.residents.len();
        evict_through_insert(&pool, &mut model, everything, tag + 1)?;
        agree(&pool, &model, "drain")?;
        prop_assert_eq!(pool.len(), 1, "only the draining admission is left");
        let last: Vec<EntryId> = model.residents.iter().map(|r| r.id).collect();
        prop_assert!(pool.remove(last[0]).is_some());
        model.remove(&last);
        agree(&pool, &model, "drained")?;
        prop_assert_eq!(pool.leaf_index_size(), 0);
    }
}
