//! Delta propagation of committed inserts through the recycle pool
//! (paper §6.3).
//!
//! For insert-only commits, instead of invalidating every intermediate
//! derived from the updated table, the recycler re-executes each cached
//! operator over the *insert delta* and appends the result to the stored
//! intermediate (Fig. 3 of the paper). Operators with no cheap propagation
//! rule (grouping, aggregation, sorting, anti-joins) invalidate their
//! subtree instead — the hybrid the paper describes as "partial propagation
//! ... and invalidation for the remainder of a cached plan" (§6.2).
//! Deleting commits always fall back to invalidation: this engine compacts
//! OIDs on delete (see `rbat::Catalog::commit`).
//!
//! Concurrency: [`propagate_commit`] rewrites entries, signatures and the
//! result index in place and therefore runs under the pool's write view
//! ([`PoolWriteView`], the table write lock): the caller asks the lineage
//! graph for the entries anchored on the commit's columns
//! ([`crate::pool::RecyclePool::retire_columns`]) and takes the view for
//! the rewrite. Probes see the pool either entirely before or entirely
//! after the commit; a re-keyed entry is re-filed under its new
//! signature's key in the same table. A session whose query already
//! cloned a pre-commit intermediate keeps computing with it (values are
//! `Arc`-shared and immutable); only *future* probes observe the refreshed
//! results — under their post-commit versioned bind signatures
//! ([`Sig::versioned`]), which refreshed roots are re-keyed to.

use std::collections::BTreeSet;
use std::sync::Arc;

use rbat::catalog::CommitReport;
use rbat::hash::FxHashMap;
use rbat::ops;
use rbat::{Bat, BatId, Catalog, Value};
use rmal::Opcode;

use crate::entry::{EntryId, PoolEntry};
use crate::pool::PoolWriteView;
use crate::signature::{ArgSig, Sig};

/// What a propagation run did.
#[derive(Debug, Default)]
pub struct PropagationOutcome {
    /// Entries refreshed in place.
    pub refreshed: u64,
    /// Entries invalidated because no propagation rule applied — removed
    /// from the pool and handed back for the caller to settle.
    pub invalidated: Vec<PoolEntry>,
}

/// An empty BAT with the same head/tail schema as `like`.
fn empty_like(like: &Bat) -> Bat {
    like.slice(0, 0)
}

/// Propagate an insert-only commit through the pool. `anchored` are the
/// entries anchored on the commit's columns, as the lineage graph listed
/// them; the roots of the propagation are the bind-family ones among them
/// — binds of the updated table's columns and of its rebuilt join indices.
/// (An entry anchored there through a persistent BAT argument, or a bind of
/// another table's column that a rebuilt index merely ends in, is left
/// alone: versioned bind signatures and fresh `BatId`s make it unreachable
/// from post-commit probes, or it is still valid.) `pool` is the write
/// view the commit holds. The caller invalidates instead when the commit
/// deleted rows.
pub fn propagate_commit(
    pool: &mut PoolWriteView<'_>,
    anchored: &[EntryId],
    report: &CommitReport,
    catalog: &Catalog,
) -> PropagationOutcome {
    debug_assert!(report.deleted.is_empty(), "deletes are not append-only");
    let mut outcome = PropagationOutcome::default();
    let mut deltas: FxHashMap<EntryId, Arc<Bat>> = FxHashMap::default();
    let mut new_results: FxHashMap<EntryId, Value> = FxHashMap::default();

    let mut roots: Vec<EntryId> = Vec::new();
    let mut doomed: Vec<EntryId> = Vec::new();
    for &id in anchored {
        let Some(e) = pool.get(id) else {
            continue; // gone since the graph listed it
        };
        match e.sig.op {
            Opcode::Bind => {
                let (Some(ArgSig::Scalar(Value::Str(t))), Some(ArgSig::Scalar(Value::Str(c)))) =
                    (e.sig.args.first(), e.sig.args.get(1))
                else {
                    continue;
                };
                if t.as_ref() != report.table {
                    continue;
                }
                let Some((_, delta)) = report.inserted.iter().find(|(name, _)| name == c.as_ref())
                else {
                    continue;
                };
                let Ok(new_bat) = catalog.bind(t, c) else {
                    doomed.push(id);
                    continue;
                };
                deltas.insert(id, Arc::clone(delta));
                new_results.insert(id, Value::Bat(new_bat));
                roots.push(id);
            }
            Opcode::BindIdx => {
                let Some(ArgSig::Scalar(Value::Str(name))) = e.sig.args.first() else {
                    continue;
                };
                if !report.rebuilt_indices.iter().any(|n| n == name.as_ref()) {
                    continue;
                }
                let from_side_grew = catalog
                    .index_def(name)
                    .is_some_and(|d| d.from_table == report.table);
                let Ok(new_idx) = catalog.bind_idx(name) else {
                    doomed.push(id);
                    continue;
                };
                if !from_side_grew {
                    // inserts into the *referenced* table can resolve
                    // previously dangling FKs in place — not append-only.
                    doomed.push(id);
                    continue;
                }
                let Some(old_len) = e.value().as_bat().map(|b| b.len()) else {
                    doomed.push(id);
                    continue;
                };
                let delta = Arc::new(new_idx.slice(old_len, new_idx.len() - old_len));
                deltas.insert(id, delta);
                new_results.insert(id, Value::Bat(new_idx));
                roots.push(id);
            }
            _ => {}
        }
    }
    for id in doomed {
        outcome.invalidated.extend(pool.remove_subtree(&[id]));
    }
    if roots.is_empty() {
        return outcome;
    }

    // --- Affected subgraph and processing order (Kahn).
    let mut affected: BTreeSet<EntryId> = BTreeSet::new();
    let mut stack: Vec<EntryId> = roots.clone();
    while let Some(id) = stack.pop() {
        if !affected.insert(id) {
            continue;
        }
        stack.extend(pool.children_of(id));
    }
    // snapshot: old result id -> entry, so children can find updated
    // parents after those were re-keyed to their new results
    let mut old_result_owner: FxHashMap<BatId, EntryId> = FxHashMap::default();
    let mut indegree: FxHashMap<EntryId, usize> = FxHashMap::default();
    for &id in &affected {
        let e = pool.get(id);
        old_result_owner.extend(e.and_then(|e| e.result_id).map(|rid| (rid, id)));
        let deg = e
            .map(|e| e.parents.iter().filter(|p| affected.contains(p)).count())
            .unwrap_or(0);
        indegree.insert(id, deg);
    }
    let mut queue: Vec<EntryId> = affected
        .iter()
        .filter(|id| indegree[id] == 0)
        .copied()
        .collect();
    let mut order: Vec<EntryId> = Vec::with_capacity(affected.len());
    while let Some(id) = queue.pop() {
        order.push(id);
        for c in pool.children_of(id) {
            if let Some(d) = indegree.get_mut(&c) {
                *d -= 1;
                if *d == 0 {
                    queue.push(c);
                }
            }
        }
    }

    // --- Process entries in dependency order.
    for id in order {
        if pool.get(id).is_none() {
            continue; // removed by an earlier subtree invalidation
        }
        let root = new_results.contains_key(&id);
        let refreshed = if root {
            apply_refresh(pool, catalog, id, new_results[&id].clone())
        } else {
            propagate_entry(
                pool,
                catalog,
                id,
                &old_result_owner,
                &mut new_results,
                &mut deltas,
            )
        };
        if refreshed {
            outcome.refreshed += 1;
        } else {
            outcome.invalidated.extend(pool.remove_subtree(&[id]));
        }
    }
    outcome
}

/// Overwrite a root entry's result in place and fix the pool indexes. The
/// refreshed bind is re-keyed to its **post-commit versioned signature**
/// (the bound table's version advanced with the commit), so exactly the
/// probes of the new epoch rediscover it. The entry's byte charge is left
/// alone on purpose: roots are bind/bindIdx instructions, charged a
/// nominal 64 bytes because their results are persistent storage the
/// catalog owns, not pool-resident copies (Table III shows binds at 0 MB)
/// — that holds for the grown post-commit column exactly as it did for
/// the pre-commit one. The fresh buffer is registered as the persistent
/// BAT of the root's anchor columns, so admissions over it stay anchored
/// should the root be evicted. Returns false (nothing touched; the caller
/// invalidates) when the root is not a raw entry.
fn apply_refresh(
    pool: &mut PoolWriteView<'_>,
    catalog: &Catalog,
    id: EntryId,
    new_result: Value,
) -> bool {
    let Some(entry) = pool.get(id) else {
        return false;
    };
    let old_sig = entry.sig.clone();
    let old_result_id = entry.result_id;
    let bytes = entry.bytes();
    if !pool.set_raw(id, new_result, bytes) {
        return false;
    }
    let e = pool.get_mut(id).expect("entry exists");
    e.sig = Sig::versioned(catalog, old_sig.op, &e.args);
    let fresh = e.result_id.map(|bat| (bat, e.anchors.clone()));
    pool.rekey(id, &old_sig, old_result_id);
    if let Some((bat, anchors)) = fresh {
        pool.register_persistent(bat, anchors);
    }
    true
}

/// Propagate one non-root entry. Returns false when the entry (and its
/// subtree) must be invalidated instead.
fn propagate_entry(
    pool: &mut PoolWriteView<'_>,
    catalog: &Catalog,
    id: EntryId,
    old_result_owner: &FxHashMap<BatId, EntryId>,
    new_results: &mut FxHashMap<EntryId, Value>,
    deltas: &mut FxHashMap<EntryId, Arc<Bat>>,
) -> bool {
    let entry = pool.get(id).expect("caller checked");
    let old_result = entry.value().clone();
    let op = entry.sig.op;
    let old_sig = entry.sig.clone();
    let old_result_id = entry.result_id;
    let old_args = entry.args.clone();

    // Substitute updated parent results into the argument list, and collect
    // the per-argument deltas.
    let mut new_args = old_args.clone();
    let mut arg_deltas: Vec<Option<Arc<Bat>>> = vec![None; old_args.len()];
    for (i, a) in old_args.iter().enumerate() {
        if let Value::Bat(b) = a {
            if let Some(owner) = old_result_owner.get(&b.id()) {
                if let Some(nr) = new_results.get(owner) {
                    new_args[i] = nr.clone();
                    arg_deltas[i] = deltas.get(owner).cloned();
                }
            }
        }
    }
    if arg_deltas.iter().all(|d| d.is_none()) {
        // No updated parent actually feeds this entry — nothing to do.
        return true;
    }

    let old_bat = old_result.as_bat().cloned();
    let computed: Option<(Value, Arc<Bat>)> = (|| {
        match op {
            Opcode::Select | Opcode::Uselect | Opcode::Like | Opcode::SelectNotNil => {
                let d_in = arg_deltas[0].clone()?;
                let mut d_args: Vec<Value> = new_args.clone();
                d_args[0] = Value::Bat(d_in);
                let d_out = rmal::execute_op(catalog, &op, &d_args).ok()?;
                let d_out = d_out.as_bat()?;
                let old = old_bat.as_ref()?;
                let merged = ops::concat(&[old, d_out]).ok()?;
                Some((Value::Bat(Arc::new(merged)), Arc::clone(d_out)))
            }
            Opcode::Reverse | Opcode::Mirror => {
                let parent = new_args[0].as_bat()?;
                let d_in = arg_deltas[0].clone()?;
                let (new, d_out) = match op {
                    Opcode::Reverse => (parent.reverse(), d_in.reverse()),
                    _ => (parent.mirror(), d_in.mirror()),
                };
                Some((Value::Bat(Arc::new(new)), Arc::new(d_out)))
            }
            Opcode::MarkT => {
                let parent = new_args[0].as_bat()?;
                let base = old_args
                    .get(1)
                    .and_then(|v| v.as_oid())
                    .map(|o| o.0)
                    .unwrap_or(0);
                let new = parent.mark_t(base);
                let old_len = old_bat.as_ref()?.len();
                let d_out = new.slice(old_len, new.len() - old_len);
                Some((Value::Bat(Arc::new(new)), Arc::new(d_out)))
            }
            Opcode::Join => {
                let old = old_bat.as_ref()?;
                let mut parts: Vec<Bat> = Vec::new();
                if let Some(dl) = &arg_deltas[0] {
                    let r_new = new_args[1].as_bat()?;
                    parts.push(ops::join(dl, r_new).ok()?);
                }
                if let Some(dr) = &arg_deltas[1] {
                    let l_old = old_args[0].as_bat()?;
                    parts.push(ops::join(l_old, dr).ok()?);
                }
                let d_out = if parts.is_empty() {
                    empty_like(old)
                } else {
                    let refs: Vec<&Bat> = parts.iter().collect();
                    ops::concat(&refs).ok()?
                };
                let merged = ops::concat(&[old, &d_out]).ok()?;
                Some((Value::Bat(Arc::new(merged)), Arc::new(d_out)))
            }
            Opcode::Semijoin => {
                // Only growth of the *left* operand is append-only for a
                // semijoin; a grown right operand may promote old tuples.
                if arg_deltas[1].is_some() {
                    return None;
                }
                let dl = arg_deltas[0].clone()?;
                let r = new_args[1].as_bat()?;
                let d_out = ops::semijoin(&dl, r).ok()?;
                let old = old_bat.as_ref()?;
                let merged = ops::concat(&[old, &d_out]).ok()?;
                Some((Value::Bat(Arc::new(merged)), Arc::new(d_out)))
            }
            Opcode::Calc(c) => {
                let dl = arg_deltas[0].clone()?;
                let rhs = match (&new_args[1], &arg_deltas[1]) {
                    (Value::Bat(_), Some(dr)) => {
                        if dr.len() != dl.len() {
                            return None; // misaligned appends
                        }
                        ops::CalcRhs::Bat(dr)
                    }
                    (Value::Bat(_), None) => return None,
                    (scalar, _) => ops::CalcRhs::Scalar(scalar.clone()),
                };
                let d_out = ops::calc(&dl, &rhs, c).ok()?;
                let old = old_bat.as_ref()?;
                let merged = ops::concat(&[old, &d_out]).ok()?;
                Some((Value::Bat(Arc::new(merged)), Arc::new(d_out)))
            }
            Opcode::CalcCmp(c) => {
                let dl = arg_deltas[0].clone()?;
                let rhs = match (&new_args[1], &arg_deltas[1]) {
                    (Value::Bat(_), Some(dr)) => {
                        if dr.len() != dl.len() {
                            return None;
                        }
                        ops::CalcRhs::Bat(dr)
                    }
                    (Value::Bat(_), None) => return None,
                    (scalar, _) => ops::CalcRhs::Scalar(scalar.clone()),
                };
                let d_out = ops::calc_cmp(&dl, &rhs, c).ok()?;
                let old = old_bat.as_ref()?;
                let merged = ops::concat(&[old, &d_out]).ok()?;
                Some((Value::Bat(Arc::new(merged)), Arc::new(d_out)))
            }
            Opcode::Kunique => {
                let d_in = arg_deltas[0].clone()?;
                let cand = ops::kunique(&d_in).ok()?;
                let old = old_bat.as_ref()?;
                let d_out = ops::diff(&cand, old).ok()?;
                let merged = ops::concat(&[old, &d_out]).ok()?;
                Some((Value::Bat(Arc::new(merged)), Arc::new(d_out)))
            }
            // Grouping, aggregation, ordering, anti-joins: no cheap
            // append-only rule — invalidate (paper §6.3's markT-delete
            // argument generalises to these).
            _ => None,
        }
    })();

    let Some((new_result, d_out)) = computed else {
        return false;
    };

    let new_bytes = new_result.as_bat().map(|b| b.resident_bytes()).unwrap_or(0);
    pool.set_raw(id, new_result.clone(), new_bytes);
    {
        let e = pool.get_mut(id).expect("entry exists");
        e.args = new_args.clone();
        e.sig = Sig::of(op, &new_args);
    }
    pool.rekey(id, &old_sig, old_result_id);
    // refresh subset edges for filter-family results
    if matches!(
        op,
        Opcode::Select
            | Opcode::Uselect
            | Opcode::Like
            | Opcode::SelectNotNil
            | Opcode::Semijoin
            | Opcode::Kunique
    ) {
        if let (Some(rid), Some(arg0)) = (
            new_result.as_bat().map(|b| b.id()),
            new_args.first().and_then(|v| v.as_bat()).map(|b| b.id()),
        ) {
            pool.add_subset_edge(rid, arg0);
        }
    }
    new_results.insert(id, new_result);
    deltas.insert(id, d_out);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RecyclerConfig, UpdateMode};
    use crate::mark::RecycleMark;
    use crate::runtime::Recycler;
    use rbat::{LogicalType, TableBuilder};
    use rmal::{Engine, ProgramBuilder, P};

    fn engine() -> Engine<Recycler> {
        let mut cat = Catalog::new();
        let mut tb = TableBuilder::new("t")
            .column("x", LogicalType::Int)
            .column("y", LogicalType::Int);
        for i in 0..500 {
            tb.push_row(&[Value::Int((i * 13) % 500), Value::Int(i)]);
        }
        cat.add_table(tb.finish());
        let cfg = RecyclerConfig::default().update_mode(UpdateMode::Propagate);
        let mut e = Engine::with_hook(cat, Recycler::new(cfg));
        e.add_pass(Box::new(RecycleMark));
        e
    }

    fn template() -> rmal::Program {
        let mut b = ProgramBuilder::new("prop_chain", 2);
        let col = b.bind("t", "x");
        let sel = b.select_closed(col, P(0), P(1));
        let map = b.row_map(sel); // markT + reverse through the chain
        let y = b.bind("t", "y");
        let vals = b.join(map, y);
        let s = b.sum(vals);
        let n = b.count(sel);
        b.export("sum", s);
        b.export("n", n);
        b.finish()
    }

    #[test]
    fn insert_refreshes_select_chain() {
        let mut e = engine();
        let mut t = template();
        e.optimize(&mut t);
        let p = [Value::Int(10), Value::Int(100)];
        let before = e.run(&t, &p).unwrap();
        // insert rows inside and outside the selected range
        e.update(
            "t",
            vec![
                vec![Value::Int(50), Value::Int(1000)],
                vec![Value::Int(400), Value::Int(2000)],
            ],
            vec![],
        )
        .unwrap();
        assert!(e.hook.stats().propagated > 0, "chain must be refreshed");
        let after = e.run(&t, &p).unwrap();
        // one new row in range: count grows by exactly one
        let n0 = before.export("n").unwrap().as_int().unwrap();
        let n1 = after.export("n").unwrap().as_int().unwrap();
        assert_eq!(n1, n0 + 1);
        // the refreshed entries must have served the re-run (hits > 0)
        assert!(after.stats.reused > 0, "{:?}", after.stats);
        e.hook.pool().check_invariants().unwrap();
    }

    #[test]
    fn aggregates_invalidate_but_prefix_survives() {
        let mut e = engine();
        let mut t = template();
        e.optimize(&mut t);
        let p = [Value::Int(0), Value::Int(250)];
        e.run(&t, &p).unwrap();
        let entries_before = e.hook.pool().len();
        e.update("t", vec![vec![Value::Int(1), Value::Int(1)]], vec![])
            .unwrap();
        // the scalar aggregates (sum/count) cannot be propagated and are
        // invalidated; the select/markT/reverse/join prefix survives
        let s = e.hook.stats();
        assert!(s.invalidated > 0, "aggregates must drop");
        assert!(s.propagated > 0, "prefix must refresh");
        assert!(e.hook.pool().len() < entries_before);
        assert!(!e.hook.pool().is_empty());
        e.hook.pool().check_invariants().unwrap();
    }
}
