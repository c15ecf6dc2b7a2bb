//! Instruction subsumption (paper §5): answering an instruction from
//! intermediates whose result sets are supersets of the target.
//!
//! The pool's table is keyed by the full signature hash, so the lists of
//! entries sharing an `(opcode, first-argument)` key are kept by the
//! pool's lineage graph: [`RecyclePool::candidates`] is one graph read
//! returning ids in ascending order (ties between equally good sources go
//! to the oldest), and the per-candidate inspections below take the table
//! read lock entry by entry. Between the search
//! and the use of a source its entry may be evicted — every access
//! revalidates and the rewrite falls back gracefully (`Arc`-shared results
//! cloned out of the pool stay valid regardless).

use std::time::Instant;

use rbat::ops::{self, like_subsumes, SelectBounds};
use rbat::{Bat, Value};
use rmal::Opcode;

use crate::entry::EntryId;
use crate::pool::RecyclePool;
use crate::signature::ArgSig;

/// The outcome of subsumption analysis for one instruction.
#[derive(Debug)]
pub enum Subsumption {
    /// Execute the same opcode with a rewritten argument list: the column
    /// operand has been replaced by a (smaller) pool intermediate
    /// (singleton subsumption, §5.1).
    Rewrite {
        /// New evaluated arguments.
        args: Vec<Value>,
        /// Entry serving as the source.
        source: EntryId,
    },
    /// Piece the result together from several intermediates (combined
    /// subsumption, §5.2): run the select over each `(entry, segment)` and
    /// concatenate.
    Combined {
        /// Disjoint segments with their designated source entries.
        segments: Vec<(EntryId, SelectBounds)>,
        /// Time spent inside the search algorithm (reported by Fig. 15).
        search_time: std::time::Duration,
    },
}

fn bounds_from_args(args: &[Value]) -> Option<SelectBounds> {
    Some(SelectBounds {
        lo: args.get(1)?.clone(),
        hi: args.get(2)?.clone(),
        lo_incl: args.get(3)?.as_bool()?,
        hi_incl: args.get(4)?.as_bool()?,
    })
}

fn bounds_from_sig(pool: &RecyclePool, id: EntryId) -> Option<(EntryId, SelectBounds)> {
    pool.entry(id, |e| {
        // demoted entries hold no materialised result to rewrite over;
        // the hit path re-promotes them, subsumption just skips them
        e.payload().as_raw()?;
        let scalar = |i: usize| -> Option<Value> {
            match e.sig.args.get(i)? {
                ArgSig::Scalar(v) => Some(v.clone()),
                ArgSig::Bat(_) => None,
            }
        };
        Some(SelectBounds {
            lo: scalar(1)?,
            hi: scalar(2)?,
            lo_incl: scalar(3)?.as_bool()?,
            hi_incl: scalar(4)?.as_bool()?,
        })
    })?
    .map(|b| (id, b))
}

fn result_len(pool: &RecyclePool, id: EntryId) -> usize {
    pool.entry(id, |e| e.payload().as_raw()?.as_bat().map(|b| b.len()))
        .flatten()
        .unwrap_or(usize::MAX)
}

fn result_of(pool: &RecyclePool, id: EntryId) -> Option<Value> {
    // only a raw payload is a materialised operand to rewrite over
    pool.entry(id, |e| e.payload().as_raw().cloned()).flatten()
}

/// Singleton subsumption for `algebra.select`: find the smallest pool
/// intermediate over the same column operand whose range contains the
/// target range, and rewrite the operand (paper §5.1).
pub fn subsume_select(pool: &RecyclePool, args: &[Value]) -> Option<Subsumption> {
    let base = args.first()?.as_bat()?;
    let target = bounds_from_args(args)?;
    let candidates = pool.candidates(Opcode::Select, &ArgSig::Bat(base.id()));
    let best = candidates
        .iter()
        .filter_map(|id| bounds_from_sig(pool, *id))
        .filter(|(_, cand)| target.subsumed_by(cand))
        .min_by_key(|(id, _)| result_len(pool, *id))?;
    let source_result = result_of(pool, best.0)?;
    let mut new_args = args.to_vec();
    new_args[0] = source_result;
    Some(Subsumption::Rewrite {
        args: new_args,
        source: best.0,
    })
}

/// Singleton subsumption for `algebra.uselect` (equality probe) from range
/// selections over the same operand.
pub fn subsume_uselect(pool: &RecyclePool, args: &[Value]) -> Option<Subsumption> {
    let base = args.first()?.as_bat()?;
    let probe = args.get(1)?;
    if probe.is_nil() {
        return None;
    }
    let candidates = pool.candidates(Opcode::Select, &ArgSig::Bat(base.id()));
    let best = candidates
        .iter()
        .filter_map(|id| bounds_from_sig(pool, *id))
        .filter(|(_, cand)| cand.contains(probe))
        .min_by_key(|(id, _)| result_len(pool, *id))?;
    let source_result = result_of(pool, best.0)?;
    let mut new_args = args.to_vec();
    new_args[0] = source_result;
    Some(Subsumption::Rewrite {
        args: new_args,
        source: best.0,
    })
}

/// Singleton subsumption for the SQL LIKE operator (paper §5.1): a stored
/// `like(X, p)` subsumes `like(X, q)` when every string matching `q` also
/// matches `p` (restricted `%literal%` pattern class).
pub fn subsume_like(pool: &RecyclePool, args: &[Value]) -> Option<Subsumption> {
    let base = args.first()?.as_bat()?;
    let pattern = args.get(1)?.as_str()?;
    let candidates = pool.candidates(Opcode::Like, &ArgSig::Bat(base.id()));
    let best = candidates
        .iter()
        .filter(|id| {
            pool.entry(**id, |e| match e.sig.args.get(1) {
                Some(ArgSig::Scalar(Value::Str(p))) => like_subsumes(p, pattern),
                _ => false,
            })
            .unwrap_or(false)
        })
        .min_by_key(|id| result_len(pool, **id))
        .copied()?;
    let source_result = result_of(pool, best)?;
    let mut new_args = args.to_vec();
    new_args[0] = source_result;
    Some(Subsumption::Rewrite {
        args: new_args,
        source: best,
    })
}

/// Singleton subsumption for `algebra.semijoin` (paper §5.1): a stored
/// `semijoin(X, V)` answers `semijoin(X, W)` when `W ⊂ V` — derived from
/// the pool's recorded subset relation.
pub fn subsume_semijoin(pool: &RecyclePool, args: &[Value]) -> Option<Subsumption> {
    let x = args.first()?.as_bat()?;
    let w = args.get(1)?.as_bat()?;
    let candidates = pool.candidates(Opcode::Semijoin, &ArgSig::Bat(x.id()));
    let best = candidates
        .iter()
        .filter(|id| {
            // read the stored right operand under the table lock, then
            // walk the subset relation outside it (lineage-only locks)
            let v = pool.entry(**id, |e| match e.sig.args.get(1) {
                Some(ArgSig::Bat(v)) => Some(*v),
                _ => None,
            });
            match v {
                Some(Some(v)) => v != w.id() && pool.is_subset(w.id(), v),
                _ => false,
            }
        })
        .min_by_key(|id| result_len(pool, **id))
        .copied()?;
    let source_result = result_of(pool, best)?;
    let mut new_args = args.to_vec();
    new_args[0] = source_result;
    Some(Subsumption::Rewrite {
        args: new_args,
        source: best,
    })
}

/// Can `piece` (ending at `hi`, inclusivity `hi_incl`) connect to a range
/// starting at `lo` without a gap?
fn connects(hi: &Value, hi_incl: bool, lo: &Value, lo_incl: bool) -> bool {
    if hi.is_nil() || lo.is_nil() {
        return true; // unbounded side always connects
    }
    match lo.cmp_same(hi) {
        Some(std::cmp::Ordering::Less) => true,
        Some(std::cmp::Ordering::Equal) => hi_incl || lo_incl,
        _ => false,
    }
}

/// Does the sorted `pieces` list cover `target` without gaps?
fn covers(target: &SelectBounds, pieces: &[(EntryId, SelectBounds)]) -> bool {
    if pieces.is_empty() {
        return false;
    }
    // first piece must cover the target's lower bound
    let first = &pieces[0].1;
    let lo_ok = first.lo.is_nil()
        || (!target.lo.is_nil()
            && SelectBounds {
                lo: target.lo.clone(),
                hi: target.lo.clone(),
                lo_incl: target.lo_incl,
                hi_incl: target.lo_incl,
            }
            .subsumed_by(first));
    if !lo_ok {
        return false;
    }
    // walk the chain
    let mut cur_hi = first.hi.clone();
    let mut cur_incl = first.hi_incl;
    for (_, b) in &pieces[1..] {
        if !connects(&cur_hi, cur_incl, &b.lo, b.lo_incl) {
            return false;
        }
        // extend coverage
        if cur_hi.is_nil() {
            return true;
        }
        if b.hi.is_nil() {
            cur_hi = Value::Nil;
            cur_incl = true;
        } else if matches!(b.hi.cmp_same(&cur_hi), Some(std::cmp::Ordering::Greater)) {
            cur_hi = b.hi.clone();
            cur_incl = b.hi_incl;
        }
    }
    // final coverage of target's upper bound
    if cur_hi.is_nil() || target.hi.is_nil() {
        return cur_hi.is_nil();
    }
    match target.hi.cmp_same(&cur_hi) {
        Some(std::cmp::Ordering::Less) => true,
        Some(std::cmp::Ordering::Equal) => cur_incl || !target.hi_incl,
        _ => false,
    }
}

/// Combined subsumption (Algorithm 2): find the cheapest set of
/// overlapping pool selections over the same operand that together cover
/// the target range; cheaper than scanning the base column means the sum
/// of the pieces' sizes beats the operand size (§5.2 cost model).
pub fn subsume_combined(
    pool: &RecyclePool,
    args: &[Value],
    max_candidates: usize,
) -> Option<Subsumption> {
    let t_start = Instant::now();
    let base = args.first()?.as_bat()?;
    let target = bounds_from_args(args)?;
    if target.lo.is_nil() || target.hi.is_nil() {
        return None; // only bounded ranges are pieced together
    }

    // R: all overlapping candidates (line 6-9 of Algorithm 2).
    let mut r: Vec<(EntryId, SelectBounds, usize)> = pool
        .candidates(Opcode::Select, &ArgSig::Bat(base.id()))
        .iter()
        .filter_map(|id| bounds_from_sig(pool, *id))
        .filter(|(_, b)| b.overlaps(&target))
        .map(|(id, b)| {
            let len = result_len(pool, id);
            (id, b, len)
        })
        // a candidate evicted between the index snapshot and the length
        // probe (or one with a non-BAT result) reports the usize::MAX
        // sentinel: it can never be pieced, and letting it into the DP
        // would overflow the subset cost sums under eviction churn
        .filter(|(_, _, len)| *len != usize::MAX)
        .collect();
    if r.is_empty() {
        return None;
    }
    r.sort_by_key(|(_, _, len)| *len);
    r.truncate(max_candidates.min(24));

    // Cheap feasibility gate before the exponential search: if even the
    // UNION of all candidates cannot cover the target range, no subset can
    // — bail out in O(k log k). This keeps the per-miss overhead flat on
    // workloads where overlapping-but-not-covering selections abound.
    {
        let mut all: Vec<(EntryId, SelectBounds)> =
            r.iter().map(|(id, b, _)| (*id, b.clone())).collect();
        all.sort_by(|a, b| {
            if a.1.lo.is_nil() {
                return std::cmp::Ordering::Less;
            }
            if b.1.lo.is_nil() {
                return std::cmp::Ordering::Greater;
            }
            a.1.lo
                .cmp_same(&b.1.lo)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if !covers(&target, &all) {
            return None;
        }
    }

    let base_cost = base.len();
    let k = r.len();
    // DP over subsets with cost cutting: partial solutions P1 of size N are
    // extended to size N+1; anything at or above the best known cost is
    // pruned (line 16).
    #[derive(Clone)]
    struct Partial {
        mask: u32,
        cost: usize,
    }
    let piece_cost = |mask: u32| -> usize {
        (0..k)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| r[i].2)
            .sum()
    };
    let sorted_pieces = |mask: u32| -> Vec<(EntryId, SelectBounds)> {
        let mut v: Vec<(EntryId, SelectBounds)> = (0..k)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| (r[i].0, r[i].1.clone()))
            .collect();
        v.sort_by(|a, b| {
            if a.1.lo.is_nil() {
                return std::cmp::Ordering::Less;
            }
            if b.1.lo.is_nil() {
                return std::cmp::Ordering::Greater;
            }
            a.1.lo
                .cmp_same(&b.1.lo)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        v
    };

    let mut best: Option<(u32, usize)> = None;
    let mut p1: Vec<Partial> = (0..k)
        .map(|i| Partial {
            mask: 1 << i,
            cost: r[i].2,
        })
        .collect();
    // check singletons immediately
    for p in &p1 {
        if p.cost < best.map(|(_, c)| c).unwrap_or(base_cost)
            && covers(&target, &sorted_pieces(p.mask))
        {
            best = Some((p.mask, p.cost));
        }
    }
    for _ in 1..k {
        let mut p2: Vec<Partial> = Vec::new();
        let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for s in &p1 {
            for (i, cand) in r.iter().enumerate() {
                let bit = 1u32 << i;
                if s.mask & bit != 0 {
                    continue;
                }
                // the extension must overlap the partial solution's hull
                let hull = sorted_pieces(s.mask);
                let overlaps_hull = hull.iter().any(|(_, b)| b.overlaps(&cand.1));
                if !overlaps_hull {
                    continue;
                }
                let mask = s.mask | bit;
                if !seen.insert(mask) {
                    continue;
                }
                let cost = piece_cost(mask);
                let bound = best.map(|(_, c)| c).unwrap_or(base_cost);
                if cost >= bound {
                    continue;
                }
                if covers(&target, &sorted_pieces(mask)) {
                    best = Some((mask, cost));
                } else {
                    p2.push(Partial { mask, cost });
                }
            }
        }
        if p2.is_empty() {
            break;
        }
        // Bound the beam: keep the cheapest partial solutions. The greedy
        // cost order preserves the optimum in practice while keeping the
        // worst case polynomial (the paper reports sub-millisecond
        // searches for k < 10; this cap maintains that at any k).
        if p2.len() > 512 {
            p2.sort_by_key(|p| p.cost);
            p2.truncate(512);
        }
        p1 = p2;
    }

    let (mask, _) = best?;
    let chosen = sorted_pieces(mask);
    // Cut the target range into disjoint segments, each answered by one
    // piece (overlap between pieces must not duplicate result tuples).
    let mut segments: Vec<(EntryId, SelectBounds)> = Vec::new();
    let mut cur_lo = target.lo.clone();
    let mut cur_incl = target.lo_incl;
    for (id, b) in &chosen {
        // segment upper bound: min(piece.hi, target.hi)
        let (seg_hi, seg_hi_incl) = if b.hi.is_nil() {
            (target.hi.clone(), target.hi_incl)
        } else {
            match target.hi.cmp_same(&b.hi) {
                Some(std::cmp::Ordering::Less) => (target.hi.clone(), target.hi_incl),
                Some(std::cmp::Ordering::Equal) => (target.hi.clone(), target.hi_incl && b.hi_incl),
                _ => (b.hi.clone(), b.hi_incl),
            }
        };
        // skip pieces that add nothing
        let progress = match seg_hi.cmp_same(&cur_lo) {
            Some(std::cmp::Ordering::Greater) => true,
            Some(std::cmp::Ordering::Equal) => seg_hi_incl && cur_incl,
            None => true,
            _ => false,
        };
        if !progress {
            continue;
        }
        segments.push((
            *id,
            SelectBounds {
                lo: cur_lo.clone(),
                hi: seg_hi.clone(),
                lo_incl: cur_incl,
                hi_incl: seg_hi_incl,
            },
        ));
        // next segment starts just above this one
        cur_lo = seg_hi;
        cur_incl = !seg_hi_incl;
        // done?
        if matches!(
            target.hi.cmp_same(&cur_lo),
            Some(std::cmp::Ordering::Less) | Some(std::cmp::Ordering::Equal)
        ) && !(cur_incl && target.hi_incl)
        {
            break;
        }
    }
    if segments.is_empty() {
        return None;
    }
    Some(Subsumption::Combined {
        segments,
        search_time: t_start.elapsed(),
    })
}

/// Execute a combined-subsumption plan: select each segment from its piece
/// and concatenate. The caller admits the result under the original
/// instruction signature. Returns `None` when a piece disappeared between
/// search and execution (concurrent eviction) — the caller falls back to
/// regular execution.
pub fn execute_combined(pool: &RecyclePool, segments: &[(EntryId, SelectBounds)]) -> Option<Bat> {
    let mut parts: Vec<Bat> = Vec::with_capacity(segments.len());
    for (id, seg) in segments {
        let piece = result_of(pool, *id)?;
        let piece = piece.as_bat()?;
        parts.push(ops::select(piece, seg).ok()?);
    }
    let refs: Vec<&Bat> = parts.iter().collect();
    ops::concat(&refs).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Admitter, Lineage, Payload, PoolEntry};
    use crate::signature::Sig;
    use rbat::Column;
    use std::sync::Arc;
    use std::time::Duration;

    fn select_args(base: &Arc<Bat>, lo: i64, hi: i64) -> Vec<Value> {
        vec![
            Value::Bat(Arc::clone(base)),
            Value::Int(lo),
            Value::Int(hi),
            Value::Bool(true),
            Value::Bool(true),
        ]
    }

    fn mk_entry(pool: &RecyclePool, op: Opcode, args: Vec<Value>, result: Arc<Bat>) -> PoolEntry {
        let e = PoolEntry::new(
            pool.alloc_id(),
            Sig::of(op, &args),
            args,
            Payload::Raw(Value::Bat(Arc::clone(&result))),
            result.resident_bytes(),
            Duration::from_millis(5),
            Lineage::default(),
            Admitter::default(),
        );
        e.pins.store(0, std::sync::atomic::Ordering::Relaxed);
        e
    }

    fn admit_select(pool: &RecyclePool, base: &Arc<Bat>, lo: i64, hi: i64) -> EntryId {
        let args = select_args(base, lo, hi);
        let bounds = SelectBounds::closed(Value::Int(lo), Value::Int(hi));
        let result = Arc::new(ops::select(base, &bounds).unwrap());
        let e = mk_entry(pool, Opcode::Select, args, result);
        pool.insert(e, Some(base.id())).id()
    }

    fn base_bat() -> Arc<Bat> {
        // deliberately unsorted values 0..100 so selects do real work
        let vals: Vec<i64> = (0..100).map(|i| (i * 37) % 100).collect();
        Arc::new(Bat::from_tail(Column::from_ints(vals)))
    }

    #[test]
    fn singleton_select_picks_smallest_superset() {
        let base = base_bat();
        let pool = RecyclePool::new();
        let wide = admit_select(&pool, &base, 0, 90);
        let narrow = admit_select(&pool, &base, 30, 60);
        let args = select_args(&base, 40, 50);
        match subsume_select(&pool, &args) {
            Some(Subsumption::Rewrite {
                args: new_args,
                source,
            }) => {
                assert_eq!(source, narrow, "smaller candidate wins over {wide}");
                let src_bat = new_args[0].as_bat().unwrap();
                let narrow_result = pool.entry(narrow, |e| e.result_id).unwrap().unwrap();
                assert_eq!(src_bat.id(), narrow_result);
            }
            other => panic!("expected rewrite, got {other:?}"),
        }
    }

    #[test]
    fn singleton_no_candidate_means_none() {
        let base = base_bat();
        let pool = RecyclePool::new();
        admit_select(&pool, &base, 30, 60);
        // target sticks out of every candidate
        let args = select_args(&base, 50, 70);
        assert!(subsume_select(&pool, &args).is_none());
    }

    #[test]
    fn rewritten_execution_equals_regular() {
        let base = base_bat();
        let pool = RecyclePool::new();
        admit_select(&pool, &base, 10, 80);
        let args = select_args(&base, 20, 40);
        let Some(Subsumption::Rewrite { args: new_args, .. }) = subsume_select(&pool, &args) else {
            panic!("expected rewrite");
        };
        let bounds = SelectBounds::closed(Value::Int(20), Value::Int(40));
        let regular = ops::select(&base, &bounds).unwrap();
        let rewritten = ops::select(new_args[0].as_bat().unwrap(), &bounds).unwrap();
        assert_eq!(regular.canonical_tuples(), rewritten.canonical_tuples());
    }

    #[test]
    fn combined_covers_from_two_pieces() {
        let base = base_bat();
        let pool = RecyclePool::new();
        admit_select(&pool, &base, 3, 7); // X1
        admit_select(&pool, &base, 5, 15); // X2
        admit_select(&pool, &base, 6, 40); // X3
                                           // the paper's example: target [4, 8]
        let args = select_args(&base, 4, 8);
        let Some(Subsumption::Combined { segments, .. }) = subsume_combined(&pool, &args, 16)
        else {
            panic!("expected combined subsumption");
        };
        assert!(segments.len() >= 2);
        let result = execute_combined(&pool, &segments).unwrap();
        let bounds = SelectBounds::closed(Value::Int(4), Value::Int(8));
        let regular = ops::select(&base, &bounds).unwrap();
        assert_eq!(result.canonical_tuples(), regular.canonical_tuples());
    }

    #[test]
    fn combined_rejects_gappy_pieces() {
        let base = base_bat();
        let pool = RecyclePool::new();
        admit_select(&pool, &base, 0, 10);
        admit_select(&pool, &base, 20, 30);
        // [5, 25] has a hole (10, 20) — no combined solution
        let args = select_args(&base, 5, 25);
        assert!(subsume_combined(&pool, &args, 16).is_none());
    }

    #[test]
    fn combined_prefers_cheaper_cover() {
        let base = base_bat();
        let pool = RecyclePool::new();
        let small_a = admit_select(&pool, &base, 3, 7);
        let small_b = admit_select(&pool, &base, 7, 12);
        let huge = admit_select(&pool, &base, 0, 99); // covers alone but big
        let args = select_args(&base, 4, 8);
        let Some(Subsumption::Combined { segments, .. }) = subsume_combined(&pool, &args, 16)
        else {
            panic!("expected combined");
        };
        let used: std::collections::HashSet<EntryId> = segments.iter().map(|(id, _)| *id).collect();
        assert!(!used.contains(&huge), "full scan of {huge} is costlier");
        assert!(used.contains(&small_a) || used.contains(&small_b));
    }

    #[test]
    fn execute_combined_survives_concurrent_eviction() {
        let base = base_bat();
        let pool = RecyclePool::new();
        let a = admit_select(&pool, &base, 3, 7);
        admit_select(&pool, &base, 5, 15);
        let args = select_args(&base, 4, 8);
        let Some(Subsumption::Combined { segments, .. }) = subsume_combined(&pool, &args, 16)
        else {
            panic!("expected combined");
        };
        // a piece vanishes between search and execution
        pool.remove(a);
        assert!(
            execute_combined(&pool, &segments).is_none(),
            "must fall back gracefully, not panic"
        );
    }

    #[test]
    fn semijoin_subsumption_via_subset_relation() {
        // X: some table fragment; V ⊃ W selections over another column
        let x = Arc::new(Bat::from_tail(Column::from_ints((0..50).collect())));
        let sel_col = base_bat();
        let pool = RecyclePool::new();
        let v_id = admit_select(&pool, &sel_col, 0, 80);
        let v_bat = result_of(&pool, v_id).unwrap();
        // admit semijoin(X, V)
        let sj_args = vec![Value::Bat(Arc::clone(&x)), v_bat.clone()];
        let sj_res = Arc::new(ops::semijoin(&x, v_bat.as_bat().unwrap()).unwrap());
        let e = mk_entry(&pool, Opcode::Semijoin, sj_args, sj_res);
        let sj_id = pool.insert(e, None).id();
        // W ⊂ V: a narrower selection, subset edge recorded vs V's result
        let w_id = admit_select(&pool, &sel_col, 20, 40);
        let w_res = result_of(&pool, w_id).unwrap();
        let v_res_id = pool.entry(v_id, |e| e.result_id).unwrap().unwrap();
        let w_res_id = pool.entry(w_id, |e| e.result_id).unwrap().unwrap();
        pool.add_subset_edge(w_res_id, v_res_id);
        let target_args = vec![Value::Bat(Arc::clone(&x)), w_res.clone()];
        match subsume_semijoin(&pool, &target_args) {
            Some(Subsumption::Rewrite { args, source }) => {
                assert_eq!(source, sj_id);
                // correctness: semijoin(sj_result, W) == semijoin(X, W)
                let rewritten =
                    ops::semijoin(args[0].as_bat().unwrap(), w_res.as_bat().unwrap()).unwrap();
                let regular = ops::semijoin(&x, w_res.as_bat().unwrap()).unwrap();
                assert_eq!(rewritten.canonical_tuples(), regular.canonical_tuples());
            }
            other => panic!("expected rewrite, got {other:?}"),
        }
    }
}
