//! The pool's one lineage graph: who feeds whom, who owns which result,
//! which entries are evictable leaves, what subsumes what, what a commit
//! touches.
//!
//! The paper's recycle pool (§3.2) is one table of instructions *with
//! their lineage*, and its three consumers read that one graph: bottom-up
//! coherence at admission (§4.1, [`LineageGraph::resolve`] /
//! [`LineageGraph::wire`]), leaf-only eviction (§4.3,
//! [`LineageGraph::leaves`] / [`LineageGraph::unwire`]) and lineage
//! invalidation (§6.4, [`LineageGraph::retire`] /
//! [`LineageGraph::subtree`]). [`crate::pool`] owns the question "what does
//! entry `id` hold" (the table, the ledger); this module owns every
//! question *about ids*: where an id is filed, who its children are, which
//! entry a result BAT belongs to, which ids are childless, which results
//! are subsets of which, and which entries derive from a base column.
//!
//! # Anchors
//!
//! An entry does not carry the columns it transitively derives from. It
//! carries only its own *anchors* ([`PoolEntry::anchors`]): the column(s) a
//! `Bind` / `BindIdx` names, or those of a persistent BAT argument that had
//! no resident producer when the entry was admitted. Every other entry's
//! set is empty — where it comes from is its `parents`. The graph indexes
//! anchor column → entries inside [`LineageGraph::wire`] /
//! [`LineageGraph::unwire`], and because a parent never leaves before its
//! children (leaf-only eviction, subtree invalidation) "derives from column
//! `c`" is exactly "is anchored on `c`, or descends from an entry that is":
//! a commit's victims are [`LineageGraph::retire`]'s roots and their
//! [`LineageGraph::subtree`], found in O(result).
//!
//! The persistent-BAT registry — which `BatId`s are catalog buffers, and of
//! which columns — lives here too: it is what [`LineageGraph::resolve`]
//! falls back on for a BAT argument nobody in the pool produced, and
//! [`LineageGraph::retire`] drops the registrations of a commit's replaced
//! buffers in the step that lists its roots.
//!
//! A `LineageGraph` is plain data — hash maps and one ordered set — with no
//! lock of its own. The pool keeps exactly one behind one `RwLock` and the
//! discipline is structural: every method here is a plain map operation
//! that takes no closure from its caller and copies ids and keys out, so
//! nothing ever runs, and no lock is ever acquired, while the graph lock is
//! held. The pool calls [`LineageGraph::wire`] and
//! [`LineageGraph::unwire`] once per admission / removal, under the table
//! write lock it already holds, so the orphan check, the 0↔1 leaf
//! transitions of every parent and the result / alias / candidate
//! bookkeeping of one entry are a single atomic step.
//!
//! Everything but three recorded facts — the duplicate-admission aliases,
//! the subset edges and the persistent-BAT registry — is a pure function of
//! the resident entries: [`LineageGraph::rebuild`] re-derives it from the
//! table and carries the recorded facts over. Quarantine repair stores that
//! image; `check_invariants` compares the live graph against it
//! ([`LineageGraph::diff`]).

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;

use rbat::hash::{FxHashMap, FxHashSet};
use rbat::BatId;
use rmal::Opcode;

use crate::entry::{Anchors, EntryId, PoolEntry};
use crate::signature::{ArgSig, Sig};

/// What the graph knows about one resident entry.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Node {
    /// The table key the entry is filed under.
    key: u64,
    /// Direct dependents, ascending.
    children: Vec<EntryId>,
    /// Result BATs of duplicate admissions that lost to this entry.
    aliases: Vec<BatId>,
}

/// The lineage graph (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct LineageGraph {
    nodes: FxHashMap<EntryId, Node>,
    /// Result BAT (owned or aliased) → entry.
    by_result: FxHashMap<BatId, EntryId>,
    /// The evictable-leaf set: exactly the resident entries without
    /// children. Pin state stays out (pins flip on the read-lock-only hit
    /// path); pinned leaves are filtered at gather, revalidated at removal.
    leaves: BTreeSet<EntryId>,
    /// `sub → [sup]`: the result BAT `sub` is a subset of each `sup` (§5.1).
    supersets: FxHashMap<BatId, Vec<BatId>>,
    /// Subsumption candidates `(opcode, first argument) → entries`,
    /// ascending.
    candidates: FxHashMap<(Opcode, ArgSig), Vec<EntryId>>,
    /// Anchor column → the entries anchored on it, ascending.
    anchored: FxHashMap<(String, String), Vec<EntryId>>,
    /// Persistent BAT (bound column, join index) → the columns it stands
    /// for: stable identities an admission may reference without a resident
    /// producer. `Catalog` clones `Arc`-share their column BATs, so ids
    /// agree between sessions.
    persistent: FxHashMap<BatId, Anchors>,
}

/// What the graph knows about one BAT argument of an admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Resolved {
    /// A resident entry owns (or is aliased to) it: the entry and its
    /// table key.
    Entry(EntryId, u64),
    /// Nobody resident produced it, but it is a registered catalog buffer
    /// of these columns.
    Persistent(Anchors),
    /// Neither: coherence cannot be anchored.
    Unknown,
}

/// Insert into an ascending id list; false if already present.
fn set_insert(ids: &mut Vec<EntryId>, id: EntryId) -> bool {
    match ids.binary_search(&id) {
        Ok(_) => false,
        Err(at) => {
            ids.insert(at, id);
            true
        }
    }
}

fn set_remove(ids: &mut Vec<EntryId>, id: EntryId) {
    if let Ok(at) = ids.binary_search(&id) {
        ids.remove(at);
    }
}

/// Take `id` off the ascending list under `key`; an emptied list goes.
fn unlist<K: Hash + Eq>(lists: &mut FxHashMap<K, Vec<EntryId>>, key: &K, id: EntryId) {
    if let Some(ids) = lists.get_mut(key) {
        set_remove(ids, id);
        if ids.is_empty() {
            lists.remove(key);
        }
    }
}

fn candidate_key(sig: &Sig) -> Option<(Opcode, ArgSig)> {
    Some((sig.op, sig.first_arg()?.clone()))
}

impl LineageGraph {
    // ----- admission ------------------------------------------------------

    /// For each BAT an admission takes as argument: its resident producer,
    /// else its registration as a persistent buffer, else nothing.
    pub(crate) fn resolve(&self, bats: impl Iterator<Item = BatId>) -> Vec<Resolved> {
        bats.map(|b| {
            let owner = self.by_result.get(&b);
            let resident = owner.and_then(|id| Some(Resolved::Entry(*id, self.nodes.get(id)?.key)));
            let registered = || self.persistent.get(&b).cloned().map(Resolved::Persistent);
            resident.or_else(registered).unwrap_or(Resolved::Unknown)
        })
        .collect()
    }

    /// Record `bat` as a persistent buffer of the columns `anchors`.
    pub(crate) fn register(&mut self, bat: BatId, anchors: Anchors) {
        self.persistent.insert(bat, anchors);
    }

    /// Wire a new entry, about to be filed under `key`, into every index —
    /// or none: false means one of its parents is gone (an update
    /// invalidated it since the admission resolved it) and nothing was
    /// touched. A fresh entry has no dependents, so it enters the leaf set;
    /// each parent receiving its first child leaves it.
    pub(crate) fn wire(&mut self, entry: &PoolEntry, key: u64, subset_of: Option<BatId>) -> bool {
        if !entry.parents.iter().all(|p| self.nodes.contains_key(p)) {
            return false;
        }
        let id = entry.id;
        for p in &entry.parents {
            let parent = self.nodes.get_mut(p).expect("checked above");
            if parent.children.is_empty() {
                self.leaves.remove(p);
            }
            set_insert(&mut parent.children, id);
        }
        let fresh = Node {
            key,
            ..Node::default()
        };
        self.nodes.insert(id, fresh);
        self.leaves.insert(id);
        if let Some(rb) = entry.result_id {
            self.by_result.insert(rb, id);
            if let Some(sup) = subset_of {
                self.add_subset_edge(rb, sup);
            }
        }
        if let Some(ck) = candidate_key(&entry.sig) {
            set_insert(self.candidates.entry(ck).or_default(), id);
        }
        for column in &entry.anchors {
            set_insert(self.anchored.entry(column.clone()).or_default(), id);
        }
        true
    }

    /// Record `bat` as another name for entry `id`'s result (the loser of a
    /// duplicate admission keeps its downstream lineage admissible). No-op
    /// when `bat` is already owned or `id` is not resident.
    pub(crate) fn alias(&mut self, bat: BatId, id: EntryId) {
        if self.by_result.contains_key(&bat) {
            return;
        }
        if let Some(node) = self.nodes.get_mut(&id) {
            node.aliases.push(bat);
            self.by_result.insert(bat, id);
        }
    }

    /// Record that `sub` is a subset (by tuple content) of `sup`. No-op
    /// unless `sub` is a resident entry's result: an edge leaves with the
    /// entry that owns `sub`, so one recorded for nobody would never go.
    pub(crate) fn add_subset_edge(&mut self, sub: BatId, sup: BatId) {
        if self.by_result.contains_key(&sub) {
            self.supersets.entry(sub).or_default().push(sup);
        }
    }

    // ----- removal ----------------------------------------------------------

    /// Unwire a resident entry from every index. With `leaf_only` (the
    /// eviction path) an entry that has dependents is refused — false,
    /// nothing touched. A parent losing its last child re-enters the leaf
    /// set; a parent that is itself gone (invalidated first) is skipped.
    pub(crate) fn unwire(&mut self, entry: &PoolEntry, leaf_only: bool) -> bool {
        let id = entry.id;
        if leaf_only && self.has_children(id) {
            return false;
        }
        let Some(node) = self.nodes.remove(&id) else {
            return true;
        };
        self.leaves.remove(&id);
        self.unwire_result(entry.result_id, id);
        for bat in node.aliases {
            self.unwire_result(Some(bat), id);
        }
        if let Some(ck) = candidate_key(&entry.sig) {
            unlist(&mut self.candidates, &ck, id);
        }
        for column in &entry.anchors {
            unlist(&mut self.anchored, column, id);
        }
        for p in &entry.parents {
            let emptied = self.nodes.get_mut(p).is_some_and(|parent| {
                set_remove(&mut parent.children, id);
                parent.children.is_empty()
            });
            if emptied {
                self.leaves.insert(*p);
            }
        }
        true
    }

    fn unwire_result(&mut self, bat: Option<BatId>, id: EntryId) {
        let Some(bat) = bat else { return };
        if self.by_result.get(&bat) == Some(&id) {
            self.by_result.remove(&bat);
        }
        self.supersets.remove(&bat);
    }

    // ----- updates ----------------------------------------------------------

    /// What does a commit that rewrote `columns` touch? The entries
    /// anchored on any of them, ascending — their [`Self::subtree`] is
    /// everything derived from those columns — and, dropped in the same
    /// step, the registrations of the buffers the commit replaced.
    pub(crate) fn retire(&mut self, columns: &Anchors) -> Vec<EntryId> {
        self.persistent.retain(|_, of| of.is_disjoint(columns));
        let listed = columns.iter().filter_map(|c| self.anchored.get(c));
        let mut roots: Vec<EntryId> = listed.flatten().copied().collect();
        roots.sort_unstable();
        roots.dedup();
        roots
    }

    /// The transitive view no entry stores: each anchor column with every
    /// entry deriving from it (the anchored ones and their subtrees),
    /// ascending.
    pub(crate) fn derived(&self) -> Vec<((String, String), Vec<EntryId>)> {
        let of = |(column, roots): (&(String, String), &Vec<EntryId>)| {
            let subtree = self.subtree(roots).into_iter();
            let mut ids: Vec<EntryId> = subtree.map(|(id, _)| id).collect();
            ids.sort_unstable();
            (column.clone(), ids)
        };
        self.anchored.iter().map(of).collect()
    }

    /// The persistent-BAT registry (diagnostics, tests).
    pub(crate) fn registered(&self) -> Vec<(BatId, Anchors)> {
        let entries = self.persistent.iter();
        entries.map(|(bat, of)| (*bat, of.clone())).collect()
    }

    // ----- reads ------------------------------------------------------------

    /// The table key entry `id` is filed under.
    pub(crate) fn locate(&self, id: EntryId) -> Option<u64> {
        self.nodes.get(&id).map(|n| n.key)
    }

    /// The resident ones among `ids`, each with its table key.
    pub(crate) fn locate_all(&self, ids: impl Iterator<Item = EntryId>) -> Vec<(EntryId, u64)> {
        ids.filter_map(|id| Some((id, self.locate(id)?))).collect()
    }

    /// The entry owning (or aliased to) a result BAT.
    pub(crate) fn entry_of_result(&self, bat: BatId) -> Option<EntryId> {
        self.by_result.get(&bat).copied()
    }

    pub(crate) fn has_children(&self, id: EntryId) -> bool {
        self.nodes.get(&id).is_some_and(|n| !n.children.is_empty())
    }

    /// Direct dependents of `id`, ascending.
    pub(crate) fn children_of(&self, id: EntryId) -> Vec<EntryId> {
        self.nodes
            .get(&id)
            .map(|n| n.children.clone())
            .unwrap_or_default()
    }

    /// `roots` and every transitive dependent, each once, with its table
    /// key — parents before their children. Dead ids are skipped.
    pub(crate) fn subtree(&self, roots: &[EntryId]) -> Vec<(EntryId, u64)> {
        let mut order = Vec::new();
        let mut seen: FxHashSet<EntryId> = FxHashSet::default();
        let mut stack: Vec<EntryId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            let Some(node) = self.nodes.get(&id) else {
                continue;
            };
            if seen.insert(id) {
                order.push((id, node.key));
                stack.extend(&node.children);
            }
        }
        order
    }

    /// The evictable-leaf set with table keys, in ascending id order.
    pub(crate) fn leaves(&self) -> Vec<(EntryId, u64)> {
        self.locate_all(self.leaves.iter().copied())
    }

    pub(crate) fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Entries with the given opcode and first argument, ascending.
    pub(crate) fn candidates(&self, op: Opcode, arg0: &ArgSig) -> Vec<EntryId> {
        self.candidates
            .get(&(op, arg0.clone()))
            .cloned()
            .unwrap_or_default()
    }

    /// Is `sub ⊆ sup` derivable from the recorded subset edges
    /// (reflexive-transitive closure)?
    pub(crate) fn is_subset(&self, sub: BatId, sup: BatId) -> bool {
        let mut visited: FxHashSet<BatId> = FxHashSet::default();
        let mut stack = vec![sub];
        while let Some(b) = stack.pop() {
            if b == sup {
                return true;
            }
            if visited.insert(b) {
                stack.extend(self.supersets.get(&b).into_iter().flatten());
            }
        }
        false
    }

    // ----- the one rebuild --------------------------------------------------

    /// The graph of exactly the `filed` entries (table key, entry): every
    /// derived index re-wired from the slabs, oldest entry first, plus what
    /// `recorded` knows that no entry carries — aliases of entries that
    /// are still resident, subset edges of results that are still mapped,
    /// the persistent-BAT registry.
    pub(crate) fn rebuild<'a>(
        filed: impl Iterator<Item = (u64, &'a PoolEntry)>,
        recorded: &LineageGraph,
    ) -> LineageGraph {
        let mut filed: Vec<(u64, &PoolEntry)> = filed.collect();
        filed.sort_unstable_by_key(|(_, e)| e.id);
        let mut graph = LineageGraph::default();
        for (key, e) in &filed {
            // an entry whose parent is missing stays out: `diff` reports it
            graph.wire(e, *key, None);
        }
        for (_, e) in &filed {
            let aliases = recorded.nodes.get(&e.id).map(|n| &n.aliases);
            for bat in aliases.into_iter().flatten() {
                graph.alias(*bat, e.id);
            }
        }
        for (sub, sups) in &recorded.supersets {
            if graph.by_result.contains_key(sub) {
                graph.supersets.insert(*sub, sups.clone());
            }
        }
        graph.persistent = recorded.persistent.clone();
        graph
    }

    /// The first place this graph differs from `want`.
    pub(crate) fn diff(&self, want: &LineageGraph) -> Result<(), String> {
        same_map("lineage node", &self.nodes, &want.nodes)?;
        same_map("result index", &self.by_result, &want.by_result)?;
        if let Some(id) = self.leaves.symmetric_difference(&want.leaves).next() {
            let listed = self.leaves.contains(id);
            return Err(format!(
                "leaf index: entry {id} listed = {listed}, childless resident = {}",
                !listed
            ));
        }
        same_map("subset edges", &self.supersets, &want.supersets)?;
        same_map("candidate index", &self.candidates, &want.candidates)?;
        same_map("anchor index", &self.anchored, &want.anchored)?;
        same_map("persistent registry", &self.persistent, &want.persistent)
    }
}

fn same_map<K: Hash + Eq + Debug, V: PartialEq + Debug>(
    what: &str,
    live: &FxHashMap<K, V>,
    want: &FxHashMap<K, V>,
) -> Result<(), String> {
    for (k, v) in want {
        if live.get(k) != Some(v) {
            return Err(format!(
                "{what} {k:?}: live {:?}, rebuilt from the slabs {v:?}",
                live.get(k)
            ));
        }
    }
    match live.iter().find(|(k, _)| !want.contains_key(k)) {
        Some((k, v)) => Err(format!("{what} {k:?}: live {v:?}, nothing resident has it")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An entry whose result is BAT `1000 + id`.
    fn entry(id: EntryId, parents: &[EntryId]) -> PoolEntry {
        let mut e = PoolEntry::test_stub(id, id as i64, parents.to_vec(), 8);
        e.result_id = Some(BatId(1000 + id));
        e
    }

    /// A graph of `entries`, each filed under its id, and the entries.
    fn graph_of(entries: Vec<PoolEntry>) -> (LineageGraph, Vec<PoolEntry>) {
        let mut g = LineageGraph::default();
        for e in &entries {
            assert!(g.wire(e, e.id, None));
        }
        (g, entries)
    }

    fn rebuilt(g: &LineageGraph, entries: &[PoolEntry]) -> LineageGraph {
        LineageGraph::rebuild(entries.iter().map(|e| (e.id, e)), g)
    }

    #[test]
    fn wire_is_all_or_nothing() {
        let (mut g, entries) = graph_of(vec![entry(1, &[])]);
        assert!(!g.wire(&entry(2, &[1, 99]), 2, Some(BatId(1001))));
        g.diff(&rebuilt(&g, &entries)).unwrap();
        assert_eq!(g.leaves(), vec![(1, 1)], "the live parent kept its leaf");
        assert_eq!(g.entry_of_result(BatId(1002)), None);
    }

    #[test]
    fn leaf_set_follows_first_and_last_child() {
        // 3 hangs off 1 twice and off 2: duplicate links are one edge
        let (mut g, entries) = graph_of(vec![entry(1, &[]), entry(2, &[]), entry(3, &[1, 1, 2])]);
        assert_eq!(g.leaves(), vec![(3, 3)]);
        assert_eq!(g.children_of(1), vec![3]);
        assert!(
            !g.unwire(&entries[0], true),
            "a parent is no eviction victim"
        );
        g.diff(&rebuilt(&g, &entries)).unwrap();
        assert!(g.unwire(&entries[2], true));
        assert_eq!(g.leaves(), vec![(1, 1), (2, 2)], "both parents re-leafed");
        assert_eq!(g.leaf_count(), 2);
        g.diff(&rebuilt(&g, &entries[..2])).unwrap();
    }

    #[test]
    fn aliases_go_with_their_entry_and_never_shadow_an_owner() {
        let (mut g, entries) = graph_of(vec![entry(1, &[]), entry(2, &[])]);
        g.alias(BatId(7), 1);
        g.alias(BatId(1002), 1); // owned by entry 2: refused
        g.alias(BatId(8), 99); // no such entry: refused
        assert_eq!(g.entry_of_result(BatId(7)), Some(1));
        assert_eq!(g.entry_of_result(BatId(1002)), Some(2));
        assert_eq!(g.entry_of_result(BatId(8)), None);
        assert_eq!(
            g.resolve([BatId(7), BatId(8)].into_iter()),
            vec![Resolved::Entry(1, 1), Resolved::Unknown]
        );
        g.diff(&rebuilt(&g, &entries)).unwrap();
        assert!(g.unwire(&entries[0], false));
        assert_eq!(g.entry_of_result(BatId(7)), None);
        g.diff(&rebuilt(&g, &entries[1..])).unwrap();
    }

    #[test]
    fn subtree_lists_each_dependent_once_parents_first() {
        // a diamond 1 → {2, 3} → 4, and a bystander
        let (g, _) = graph_of(vec![
            entry(1, &[]),
            entry(2, &[1]),
            entry(3, &[1]),
            entry(4, &[2, 3]),
            entry(5, &[]),
        ]);
        let order: Vec<EntryId> = g.subtree(&[1, 77]).into_iter().map(|(id, _)| id).collect();
        assert_eq!(order[0], 1);
        assert_eq!(order.len(), 4, "{order:?}");
        let at = |id| order.iter().position(|x| *x == id).unwrap();
        assert!(at(4) > at(2).min(at(3)));
        assert!(!order.contains(&5));
    }

    #[test]
    fn rebuild_keeps_recorded_facts_of_survivors_only_and_diff_sees_drift() {
        let (mut g, entries) = graph_of(vec![entry(1, &[]), entry(2, &[1])]);
        g.alias(BatId(7), 1);
        g.alias(BatId(8), 2);
        g.add_subset_edge(BatId(1002), BatId(1001));
        g.add_subset_edge(BatId(1001), BatId(3));
        // entry 2 did not survive: its alias and its subset edge go
        let survivors = rebuilt(&g, &entries[..1]);
        assert_eq!(survivors.entry_of_result(BatId(7)), Some(1));
        assert_eq!(survivors.entry_of_result(BatId(8)), None);
        assert!(survivors.is_subset(BatId(1001), BatId(3)));
        assert!(!survivors.is_subset(BatId(1002), BatId(1001)));
        assert_eq!(survivors.leaves(), vec![(1, 1)]);
        let drift = g.diff(&survivors).unwrap_err();
        assert!(drift.contains("lineage node"), "{drift}");
    }

    #[test]
    fn a_commit_finds_its_roots_by_anchor_and_retires_the_replaced_buffers() {
        let on = |names: &[&str]| -> Anchors {
            names.iter().map(|c| ("t".into(), c.to_string())).collect()
        };
        // 1 binds t.x, 2 stands on t.x and t.y, 3 hangs below 1 holding no
        // column of its own, 4 binds t.z
        let mut entries = vec![entry(1, &[]), entry(2, &[]), entry(3, &[1]), entry(4, &[])];
        (entries[0].anchors, entries[1].anchors, entries[3].anchors) =
            (on(&["x"]), on(&["x", "y"]), on(&["z"]));
        let (mut g, entries) = graph_of(entries);
        g.register(BatId(1001), on(&["x"]));
        g.register(BatId(1004), on(&["z"]));
        let mut derived = g.derived();
        derived.sort();
        let ids: Vec<Vec<EntryId>> = derived.into_iter().map(|(_, ids)| ids).collect();
        assert_eq!(ids, [vec![1, 2, 3], vec![2], vec![4]], "x, y, z");
        g.diff(&rebuilt(&g, &entries)).unwrap();

        assert_eq!(g.retire(&on(&["y", "nowhere"])), vec![2]);
        assert_eq!(g.registered().len(), 2, "no buffer stood for t.y");
        assert_eq!(g.retire(&on(&["x", "y"])), vec![1, 2], "each root once");
        assert_eq!(g.registered(), vec![(BatId(1004), on(&["z"]))]);
        // the roots go with their subtrees, and the index lets go of them;
        // a registration is a recorded fact: it outlives its bind, and a
        // resident producer answers before it does
        for e in [&entries[2], &entries[0], &entries[1]] {
            assert!(g.unwire(e, false));
        }
        assert!(g.retire(&on(&["x", "y"])).is_empty());
        let resolve = |g: &LineageGraph| g.resolve([BatId(1001), BatId(1004)].into_iter());
        assert_eq!(resolve(&g), [Resolved::Unknown, Resolved::Entry(4, 4)]);
        g.diff(&rebuilt(&g, &entries[3..])).unwrap();
        assert!(g.unwire(&entries[3], false));
        assert_eq!(resolve(&g)[1], Resolved::Persistent(on(&["z"])));
        g.diff(&rebuilt(&g, &[])).unwrap();
    }

    #[test]
    fn subset_closure() {
        let (mut g, entries) = graph_of(vec![entry(1, &[]), entry(2, &[]), entry(3, &[])]);
        let (a, b, c) = (BatId(1001), BatId(1002), BatId(1003));
        g.add_subset_edge(c, b);
        g.add_subset_edge(b, a);
        assert!(g.is_subset(c, a));
        assert!(g.is_subset(c, c));
        assert!(!g.is_subset(a, c));
        g.diff(&rebuilt(&g, &entries)).unwrap();
    }

    #[test]
    fn subset_edge_of_an_unmapped_result_is_not_recorded() {
        // an edge reported for a result no resident entry owns (its entry
        // already gone) would outlive anything that could remove it
        let (mut g, entries) = graph_of(vec![entry(1, &[])]);
        g.add_subset_edge(BatId(77), BatId(1001));
        assert!(!g.is_subset(BatId(77), BatId(1001)));
        g.diff(&rebuilt(&g, &entries)).unwrap();
    }
}
