//! The lineage property test: after ANY sequence of admissions (roots,
//! roots anchored on one or two base columns, children with arbitrary
//! parent wiring, entries standing on a registered persistent BAT nobody
//! resident produced, duplicates that alias their result onto the winner,
//! orphans whose parent is gone), persistent-BAT registrations, removals,
//! eviction attempts single and batched, subtree invalidations, commits
//! (`retire_columns` + the removal of the roots' subtrees) and write-view
//! rewrites (`rekey`, onto fresh and onto occupied signatures; `set_raw`;
//! `remove_subtree`) the pool's lineage graph must equal
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
//! orphans. With `--features failpoints` one more step tears an insert at
//! `pool.insert.wired` (graph wired, table entry missing) and `repair`
//! must restore exactly the model. Subset edges are recorded the way
//! `propagate` does it — after the rekey, whether or not the re-keyed entry
//! survived it — and must live exactly as long as the entry owning the
//! subset result.
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
use recycler::{Admitted, EntryId, Payload, PoolEntry, RecyclePool};
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

/// An unpinned entry whose result is a BAT of its own.
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
        vec![Value::Int(tag)],
        Payload::Raw(Value::Bat(bat)),
        64,
        Duration::from_millis(1),
        lineage,
        Admitter::default(),
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
    /// Recorded subset edges `result ⊆ sup`.
    supersets: Vec<BatId>,
    pins: u32,
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
    /// Subset edges `(sub, sup)` whose `sub` nobody owns (any more): gone
    /// with their entry, or never recorded.
    dead_edges: Vec<(BatId, BatId)>,
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

    /// A new resident without aliases, subset edges or pins; its `columns`
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
            supersets: vec![],
            pins: 0,
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

    fn evictable(&self, id: EntryId) -> bool {
        let unpinned = self.residents.iter().any(|r| r.id == id && r.pins == 0);
        unpinned && self.children(id).is_empty()
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
            let edges = r.supersets.iter().map(|sup| (r.result, *sup));
            self.dead_edges.extend(edges);
        }
        self.residents.retain(|r| !ids.contains(&r.id));
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
        if let Some(sup) = r.supersets.iter().find(|s| !pool.is_subset(r.result, **s)) {
            return fail(format!(
                "subset edge {:?} ⊆ {sup:?} of entry {id} lost",
                r.result
            ));
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
    let stale = |(sub, sup): &&(BatId, BatId)| pool.is_subset(*sub, *sup);
    if let Some((sub, sup)) = model.dead_edges.iter().find(stale) {
        return fail(format!("subset edge {sub:?} ⊆ {sup:?} outlived its entry"));
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

/// Tear an insert at `pool.insert.wired` — the graph knows the entry, the
/// table does not hold it — and repair.
#[cfg(feature = "failpoints")]
fn torn_insert_then_repair(pool: &RecyclePool, entry: PoolEntry) {
    use recycler::fault::{self, FaultAction, FaultPlan, Trigger};
    use std::panic::{catch_unwind, set_hook, take_hook, AssertUnwindSafe};
    FaultPlan::seeded(7)
        .on("pool.insert.wired", Trigger::Always, FaultAction::Panic)
        .install();
    let hook = take_hook();
    set_hook(Box::new(|_| {}));
    let torn = catch_unwind(AssertUnwindSafe(|| pool.insert(entry, None)));
    set_hook(hook);
    fault::clear();
    assert!(
        torn.is_err(),
        "the injected panic must unwind out of insert"
    );
    assert!(pool.has_quarantined());
    assert!(
        pool.check_invariants().is_err(),
        "a torn graph must be seen"
    );
    let report = pool.repair();
    assert_eq!(
        report.entries_dropped, 0,
        "the torn entry never was resident"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random scripts over a live pool: graph ≡ rebuild ≡ model after
    /// EVERY step, not just at the end.
    #[test]
    fn lineage_graph_equals_rebuild_and_model(
        ops in prop::collection::vec((0u8..17, 0usize..64, 0usize..64), 1..40),
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
                    prop_assert_eq!(pool.insert(e, None), Admitted::Inserted(id));
                    model.admit(id, sig, vec![], result, Anchors::new());
                    "insert root"
                }
                // a bind: a root anchored on one column (or two, a join
                // index), its buffer registered persistent first; so is
                // everything else while the pool is empty
                (12, _) | (_, None) => {
                    let (sig, anchors) = (bind_sig(tag), columns_of(sel_b));
                    let (e, result) = mk_anchored(&pool, sig.clone(), vec![], anchors.clone(), tag);
                    let id = e.id;
                    pool.register_persistent(result, anchors.clone());
                    model.register(result, anchors.clone());
                    prop_assert_eq!(pool.insert(e, None), Admitted::Inserted(id));
                    model.admit(id, sig, vec![], result, anchors);
                    "insert anchored root"
                }
                // a persistent buffer is registered (again, with other
                // columns, if `sel_a` picks a registered one) while nothing
                // resident produces it
                (13, _) => {
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
                (14, Some(p)) if !model.registry.is_empty() => {
                    let (bat, _) = &model.registry[sel_a % model.registry.len()];
                    let registered = pool.persistent_bats();
                    let anchors = registered.iter().find(|(b, _)| b == bat).map(|(_, of)| of.clone());
                    let anchors = anchors.expect("registered in the model, so in the pool");
                    let parents = if sel_b % 2 == 1 { vec![p.id] } else { vec![] };
                    let sig = sig_of(tag);
                    let (e, result) = mk_anchored(&pool, sig.clone(), parents.clone(), anchors.clone(), tag);
                    let id = e.id;
                    prop_assert_eq!(pool.insert(e, None), Admitted::Inserted(id));
                    model.admit(id, sig, parents, result, anchors);
                    "insert under a persistent BAT"
                }
                // a commit rewrote one or two columns: the graph lists the
                // roots — exactly the entries holding one of the columns as
                // their own anchor — and forgets the columns' buffers; the
                // roots' subtrees, removed root by root or (odd) at once
                // under the commit's write view, are exactly the entries
                // whose inherited set meets the columns
                (15, Some(_)) => {
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
                    prop_assert_eq!(pool.insert(e, None), Admitted::Inserted(id));
                    model.admit(id, sig, parents, result, Anchors::new());
                    "insert child"
                }
                // a duplicate admission: the resident wins, is pinned for
                // the loser, and the loser's BAT becomes its alias
                (2, Some(winner)) => {
                    let (e, loser_bat) = mk(&pool, winner.sig.clone(), vec![], tag);
                    prop_assert_eq!(pool.insert(e, None), Admitted::Duplicate(winner.id));
                    let w = model.get(winner.id);
                    w.aliases.push(loser_bat);
                    w.pins += 1;
                    "duplicate admission"
                }
                // an orphan: one parent alive, one long gone — nothing may
                // be wired, not even the edge onto the live parent
                (3, Some(p)) => {
                    let (e, _) = mk(&pool, sig_of(tag), vec![p.id, 1_000_000 + tag as u64], tag);
                    prop_assert_eq!(pool.insert(e, None), Admitted::Orphaned);
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
                // eviction attempt: succeeds exactly on unpinned leaves
                (5, Some(r)) => {
                    let went = pool.remove_if_evictable(r.id).is_some();
                    prop_assert_eq!(went, model.evictable(r.id), "evicting {}", r.id);
                    if went {
                        model.remove(&[r.id]);
                    }
                    "evict one"
                }
                // batched eviction over an arbitrary victim list, dead id
                // included. The batch runs in victim order, so a parent may
                // go after its last child did: every removed entry must
                // have been evictable when its turn came (the pool returns
                // them in that order), and every victim that was evictable
                // from the start must be gone.
                (6, Some(_)) => {
                    let mask = (sel_a as u64) << 6 | sel_b as u64;
                    let chosen = |i: &usize| mask >> (i % 12) & 1 == 1;
                    let mut victims: Vec<EntryId> = (0..model.residents.len())
                        .filter(chosen)
                        .map(|i| model.residents[i].id)
                        .collect();
                    victims.push(2_000_000);
                    let sure: Vec<EntryId> =
                        victims.iter().copied().filter(|v| model.evictable(*v)).collect();
                    let removed = pool.remove_batch_if_evictable(&victims);
                    for e in &removed {
                        prop_assert!(model.evictable(e.id), "evicted {} too early", e.id);
                        model.remove(&[e.id]);
                    }
                    let gone = |v: &EntryId| removed.iter().any(|e| e.id == *v);
                    prop_assert!(sure.iter().all(gone), "an unpinned leaf survived the batch");
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
                // delta-propagation rekey under the write view: onto a
                // fresh signature, or onto
                // one a resident already owns — that resident and its
                // subtree go first, the re-keyed entry with them if it
                // hangs below. Like `propagate`, record a subset edge for
                // the re-keyed result afterwards: it must stick only if the
                // entry survived
                (9, Some(r)) => {
                    let clash = model.pick(sel_b).filter(|c| sel_b % 3 == 0 && c.id != r.id);
                    let new_sig = clash.as_ref().map_or_else(|| sig_of(tag), |c| c.sig.clone());
                    let mut view = pool.write_view();
                    view.get_mut(r.id).expect("resident").sig = new_sig.clone();
                    view.rekey(r.id, &r.sig, Some(r.result));
                    let sup = model.pick(sel_b).filter(|s| s.id != r.id).map(|s| s.result);
                    if let Some(sup) = sup {
                        view.add_subset_edge(r.result, sup);
                    }
                    drop(view);
                    let gone = clash.map(|c| model.subtree(c.id)).unwrap_or_default();
                    model.remove(&gone);
                    if !gone.contains(&r.id) {
                        let survivor = model.get(r.id);
                        survivor.sig = new_sig;
                        survivor.supersets.extend(sup);
                    } else {
                        model.dead_edges.extend(sup.map(|sup| (r.result, sup)));
                    }
                    "rekey"
                }
                // delta-propagation rewrite: the result becomes a new BAT,
                // the old one resolves to nothing, aliases stay
                (10, Some(r)) => {
                    let bat = fresh_bat(tag);
                    let new_result = bat.id();
                    let mut view = pool.write_view();
                    prop_assert!(view.set_raw(r.id, Value::Bat(bat), 64));
                    view.rekey(r.id, &r.sig, Some(r.result));
                    drop(view);
                    model.retired.push(r.result);
                    let rewritten = model.get(r.id);
                    let edges: Vec<BatId> = std::mem::take(&mut rewritten.supersets);
                    rewritten.result = new_result;
                    model.dead_edges.extend(edges.into_iter().map(|sup| (r.result, sup)));
                    "set_raw"
                }
                // a child insert torn after `wire`, then `repair`: the
                // parent is a leaf again and nothing else moved
                #[cfg(feature = "failpoints")]
                (11, Some(p)) => {
                    let (e, torn_result) = mk(&pool, sig_of(tag), vec![p.id], tag);
                    torn_insert_then_repair(&pool, e);
                    model.retired.push(torn_result);
                    "torn insert + repair"
                }
                // `clear` is the empty rebuild
                (_, Some(_)) => {
                    if sel_a % 8 == 0 {
                        pool.clear();
                        let all: Vec<EntryId> = model.residents.iter().map(|r| r.id).collect();
                        model.remove(&all);
                        model.registry.clear();
                    }
                    "clear"
                }
            };
            agree(&pool, &model, step)?;
        }
        // drain through the eviction path: layer by layer, every entry is
        // eventually a leaf and the leaf set must steer the whole teardown
        // (unpin everything first — eviction never removes pinned entries)
        for r in &mut model.residents {
            pool.entry(r.id, |e| e.pins.store(0, Ordering::Relaxed));
            r.pins = 0;
        }
        let mut guard = 0usize;
        while !pool.is_empty() {
            let leaves = pool.leaf_ids();
            prop_assert!(!leaves.is_empty(), "non-empty pool must expose leaves");
            pool.remove_batch_if_evictable(&leaves);
            model.remove(&leaves);
            agree(&pool, &model, "drain layer")?;
            guard += 1;
            prop_assert!(guard <= 64, "drain did not terminate");
        }
        prop_assert_eq!(pool.leaf_index_size(), 0);
    }
}
