//! Instruction subsumption (paper §5): answering an instruction from
//! intermediates whose result sets contain the target's.
//!
//! An attempt is one read step of the pool ([`attempt`]). Under one read
//! guard it lists the entries sharing the target's `(opcode, first
//! argument)` — the lineage graph keeps them in ascending id order, so
//! ties between equally good sources go to the oldest — applies the
//! opcode's test, picks the smallest result and hands that source to the
//! caller to pin, stamp and clone before the guard is released: nothing
//! read in the step needs revalidating. An instruction no rule applies to
//! takes no read at all. The combined search (Algorithm 2) runs after the
//! guard is released, over what the step gathered — ids, bounds, lengths
//! and the `Arc`-shared results — so piecing ([`execute_combined`]) never
//! touches the pool, and a piece evicted after the search still answers.

use std::time::{Duration, Instant};

use rbat::ops::{self, like_subsumes, SelectBounds};
use rbat::{Bat, BatId, Value};
use rmal::Opcode;

use crate::entry::{EntryId, PoolEntry};
use crate::pool::{PoolReadView, RecyclePool};
use crate::signature::ArgSig;

/// Overlapping candidates fed to the combined subsumption search (`k` in
/// the paper's micro-benchmarks, Algorithm 2).
const COMBINED_MAX_CANDIDATES: usize = 16;

/// Opcodes whose result is a subset (by tuple content) of their first
/// operand — the one fact §5.1's semijoin rule needs, read off the lineage
/// ([`PoolReadView::is_subset`]).
pub(crate) fn keeps_a_subset(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Select
            | Opcode::Uselect
            | Opcode::Like
            | Opcode::SelectNotNil
            | Opcode::Semijoin
            | Opcode::Diff
            | Opcode::Kunique
            | Opcode::Sort
            | Opcode::TopN
    )
}

/// What one subsumption attempt found.
#[derive(Debug)]
pub enum Subsumption {
    /// Singleton subsumption (§5.1): execute the same opcode over these
    /// arguments — the column operand replaced by the smallest resident
    /// superset, already handed to the caller as the source.
    Rewrite(Vec<Value>),
    /// Combined subsumption (§5.2): select each segment from its piece and
    /// concatenate ([`execute_combined`]). The pieces are not yet used as
    /// sources.
    Combined {
        /// Disjoint segments covering the target range.
        segments: Vec<Segment>,
        /// Time spent inside the search algorithm (reported by Fig. 15).
        search_time: Duration,
    },
}

/// One segment of a combined answer: the source entry, its result (an
/// `Arc` clone taken in the attempt's read step) and the part of the target
/// range it answers.
pub type Segment = (EntryId, Value, SelectBounds);

/// The test a resident entry passes to answer the target (§5.1).
enum Rule<'a> {
    /// `select(X, r)`: a stored range selection over `X` containing `r`.
    Range(SelectBounds),
    /// `uselect(X, v)`: a stored range selection over `X` containing `v`.
    Point(&'a Value),
    /// `like(X, q)`: a stored `like(X, p)` whose matches include every
    /// match of `q` (restricted `%literal%` pattern class).
    Like(&'a str),
    /// `semijoin(X, W)`: a stored `semijoin(X, V)` with `W ⊂ V`.
    Subset(BatId),
}

impl<'a> Rule<'a> {
    fn of(op: Opcode, args: &'a [Value]) -> Option<Rule<'a>> {
        match op {
            Opcode::Select => Some(Rule::Range(SelectBounds {
                lo: args.get(1)?.clone(),
                hi: args.get(2)?.clone(),
                lo_incl: args.get(3)?.as_bool()?,
                hi_incl: args.get(4)?.as_bool()?,
            })),
            Opcode::Uselect => args.get(1).filter(|v| !v.is_nil()).map(Rule::Point),
            Opcode::Like => Some(Rule::Like(args.get(1)?.as_str()?)),
            Opcode::Semijoin => Some(Rule::Subset(args.get(1)?.as_bat()?.id())),
            _ => None,
        }
    }

    /// The opcode of the entries that may answer.
    fn source_op(&self) -> Opcode {
        match self {
            Rule::Range(_) | Rule::Point(_) => Opcode::Select,
            Rule::Like(_) => Opcode::Like,
            Rule::Subset(_) => Opcode::Semijoin,
        }
    }

    fn holds(&self, view: &PoolReadView<'_>, e: &PoolEntry) -> bool {
        match (self, e.sig.args.get(1)) {
            (Rule::Range(target), _) => bounds_of(e).is_some_and(|b| target.subsumed_by(&b)),
            (Rule::Point(v), _) => bounds_of(e).is_some_and(|b| b.contains(v)),
            (Rule::Like(q), Some(ArgSig::Scalar(Value::Str(p)))) => like_subsumes(p, q),
            (Rule::Subset(w), Some(ArgSig::Bat(v))) => v != w && view.is_subset(*w, *v),
            _ => false,
        }
    }
}

/// The range a stored selection's signature names.
fn bounds_of(e: &PoolEntry) -> Option<SelectBounds> {
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
}

fn result_len(e: &PoolEntry) -> usize {
    e.value().as_bat().map_or(usize::MAX, |b| b.len())
}

/// One subsumption attempt for `op` over `args`, in one read step of
/// `pool`. A singleton source is handed to `use_source` under the guard
/// that found it (`use_source` must not call back into the pool). With
/// `combined`, a bounded range select no single entry answers gathers the
/// overlapping selections in the same step and is pieced together from
/// them after it (Algorithm 2). No read is taken when no rule applies.
pub fn attempt(
    pool: &RecyclePool,
    op: Opcode,
    args: &[Value],
    combined: bool,
    use_source: impl FnOnce(&PoolEntry),
) -> Option<Subsumption> {
    let operand = args.first()?.as_bat()?;
    let rule = Rule::of(op, args)?;
    let view = pool.read_view();
    let (source_op, arg0) = (rule.source_op(), ArgSig::Bat(operand.id()));
    let candidates = || view.candidates(source_op, &arg0);
    let holds = candidates().filter(|e| rule.holds(&view, e));
    if let Some(source) = holds.min_by_key(|e| result_len(e)) {
        use_source(source);
        let mut rewritten = args.to_vec();
        rewritten[0] = source.value().clone();
        return Some(Subsumption::Rewrite(rewritten));
    }
    let Rule::Range(target) = rule else {
        return None;
    };
    if !combined || target.lo.is_nil() || target.hi.is_nil() {
        return None; // only bounded ranges are pieced together
    }
    let t_start = Instant::now();
    // R: all overlapping candidates (line 6-9 of Algorithm 2).
    let r: Vec<(EntryId, SelectBounds, usize, Value)> = candidates()
        .filter_map(|e| {
            let (b, bat) = (bounds_of(e)?, e.value().as_bat()?);
            b.overlaps(&target)
                .then(|| (e.id, b, bat.len(), e.value().clone()))
        })
        .collect();
    drop(view);
    let segments = piece_together(&target, operand.len(), r)?;
    Some(Subsumption::Combined {
        segments,
        search_time: t_start.elapsed(),
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

/// Combined subsumption (Algorithm 2): find the cheapest set of the
/// overlapping selections `r` — (id, range, length, result) — that
/// together cover the target range, and cut the target into disjoint
/// segments, one per chosen piece. Cheaper than scanning the base column
/// means the sum of the pieces' sizes beats `base_cost`, the operand size
/// (§5.2 cost model).
fn piece_together(
    target: &SelectBounds,
    base_cost: usize,
    mut r: Vec<(EntryId, SelectBounds, usize, Value)>,
) -> Option<Vec<Segment>> {
    if r.is_empty() {
        return None;
    }
    r.sort_by_key(|(_, _, len, _)| *len);
    r.truncate(COMBINED_MAX_CANDIDATES);

    // Cheap feasibility gate before the exponential search: if even the
    // UNION of all candidates cannot cover the target range, no subset can
    // — bail out in O(k log k). This keeps the per-miss overhead flat on
    // workloads where overlapping-but-not-covering selections abound.
    {
        let mut all: Vec<(EntryId, SelectBounds)> =
            r.iter().map(|(id, b, _, _)| (*id, b.clone())).collect();
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
        if !covers(target, &all) {
            return None;
        }
    }

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
            && covers(target, &sorted_pieces(p.mask))
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
                if covers(target, &sorted_pieces(mask)) {
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
    let mut segments: Vec<Segment> = Vec::new();
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
        let piece = r.iter().find(|p| p.0 == *id).map(|p| p.3.clone())?;
        segments.push((
            *id,
            piece,
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
    (!segments.is_empty()).then_some(segments)
}

/// Execute a combined-subsumption plan: select each segment from its piece
/// and concatenate. The caller admits the result under the original
/// instruction signature. The pieces were cloned out of the pool by the
/// search, so a piece evicted since still answers.
pub fn execute_combined(segments: &[Segment]) -> Option<Bat> {
    let mut parts: Vec<Bat> = Vec::with_capacity(segments.len());
    for (_, piece, seg) in segments {
        parts.push(ops::select(piece.as_bat()?, seg).ok()?);
    }
    let refs: Vec<&Bat> = parts.iter().collect();
    ops::concat(&refs).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Admitter, Lineage};
    use crate::signature::Sig;
    use rbat::Column;
    use std::sync::Arc;

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
            Value::Bat(Arc::clone(&result)),
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
        pool.insert(e, crate::Caps::NONE).0.id()
    }

    fn result_of(pool: &RecyclePool, id: EntryId) -> Value {
        pool.entry(id, |e| e.value().clone()).unwrap()
    }

    fn base_bat() -> Arc<Bat> {
        // deliberately unsorted values 0..100 so selects do real work
        let vals: Vec<i64> = (0..100).map(|i| (i * 37) % 100).collect();
        Arc::new(Bat::from_tail(Column::from_ints(vals)))
    }

    /// A singleton attempt: the rewritten arguments and the source used.
    fn singleton(pool: &RecyclePool, op: Opcode, args: &[Value]) -> Option<(Vec<Value>, EntryId)> {
        let mut source = None;
        match attempt(pool, op, args, false, |e| source = Some(e.id))? {
            Subsumption::Rewrite(args) => Some((args, source.expect("a source was used"))),
            other => panic!("expected a rewrite, got {other:?}"),
        }
    }

    fn combined(pool: &RecyclePool, args: &[Value]) -> Option<Vec<Segment>> {
        match attempt(pool, Opcode::Select, args, true, |_| ())? {
            Subsumption::Combined { segments, .. } => Some(segments),
            other => panic!("expected combined subsumption, got {other:?}"),
        }
    }

    #[test]
    fn singleton_select_picks_smallest_superset() {
        let base = base_bat();
        let pool = RecyclePool::new();
        let wide = admit_select(&pool, &base, 0, 90);
        let narrow = admit_select(&pool, &base, 30, 60);
        let args = select_args(&base, 40, 50);
        let (new_args, source) = singleton(&pool, Opcode::Select, &args).expect("a rewrite");
        assert_eq!(source, narrow, "smaller candidate wins over {wide}");
        let src_bat = new_args[0].as_bat().unwrap();
        let narrow_result = pool.entry(narrow, |e| e.result_id).unwrap().unwrap();
        assert_eq!(src_bat.id(), narrow_result);
    }

    #[test]
    fn singleton_no_candidate_means_none() {
        let base = base_bat();
        let pool = RecyclePool::new();
        admit_select(&pool, &base, 30, 60);
        // target sticks out of every candidate
        let args = select_args(&base, 50, 70);
        assert!(singleton(&pool, Opcode::Select, &args).is_none());
    }

    #[test]
    fn rewritten_execution_equals_regular() {
        let base = base_bat();
        let pool = RecyclePool::new();
        admit_select(&pool, &base, 10, 80);
        let args = select_args(&base, 20, 40);
        let (new_args, _) = singleton(&pool, Opcode::Select, &args).expect("a rewrite");
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
        let segments = combined(&pool, &args).expect("combined subsumption");
        assert!(segments.len() >= 2);
        let result = execute_combined(&segments).unwrap();
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
        assert!(combined(&pool, &args).is_none());
    }

    #[test]
    fn combined_prefers_cheaper_cover() {
        let base = base_bat();
        let pool = RecyclePool::new();
        let small_a = admit_select(&pool, &base, 3, 7);
        let small_b = admit_select(&pool, &base, 7, 12);
        // covers the target's low end alone, at more cost than `small_a`
        // (a selection containing the whole target would answer alone)
        let big = admit_select(&pool, &base, 0, 7);
        let args = select_args(&base, 4, 8);
        let segments = combined(&pool, &args).expect("combined subsumption");
        let used: std::collections::HashSet<EntryId> = segments.iter().map(|s| s.0).collect();
        assert!(!used.contains(&big), "piecing with {big} is costlier");
        assert!(used.contains(&small_a) && used.contains(&small_b));
    }

    #[test]
    fn a_piece_evicted_after_the_search_still_pieces_the_naive_answer() {
        let base = base_bat();
        let pool = RecyclePool::new();
        let a = admit_select(&pool, &base, 3, 7);
        admit_select(&pool, &base, 5, 15);
        let args = select_args(&base, 4, 8);
        let segments = combined(&pool, &args).expect("combined subsumption");
        assert!(segments.iter().any(|s| s.0 == a));
        // a piece is evicted between the search and the piecing: its result
        // was cloned out by the search
        assert!(pool.remove(a).is_some());
        let result = execute_combined(&segments).expect("no fallback");
        let bounds = SelectBounds::closed(Value::Int(4), Value::Int(8));
        let regular = ops::select(&base, &bounds).unwrap();
        assert_eq!(result.canonical_tuples(), regular.canonical_tuples());
    }

    #[test]
    fn semijoin_subsumption_via_subset_relation() {
        // X: some table fragment; W = select(V, ..) ⊂ V = select(col, ..)
        let x = Arc::new(Bat::from_tail(Column::from_ints((0..50).collect())));
        let sel_col = base_bat();
        let pool = RecyclePool::new();
        let v_id = admit_select(&pool, &sel_col, 0, 80);
        let v_bat = result_of(&pool, v_id);
        let v = Arc::clone(v_bat.as_bat().unwrap());
        // admit semijoin(X, V)
        let sj_args = vec![Value::Bat(Arc::clone(&x)), v_bat.clone()];
        let sj_res = Arc::new(ops::semijoin(&x, &v).unwrap());
        let e = mk_entry(&pool, Opcode::Semijoin, sj_args, sj_res);
        let sj_id = pool.insert(e, crate::Caps::NONE).0.id();
        // W's producer is a filter over V: the relation is in the lineage
        let w_id = admit_select(&pool, &v, 20, 40);
        let w_res = result_of(&pool, w_id);
        let target_args = vec![Value::Bat(Arc::clone(&x)), w_res.clone()];
        let (args, source) = singleton(&pool, Opcode::Semijoin, &target_args).expect("a rewrite");
        assert_eq!(source, sj_id);
        // correctness: semijoin(sj_result, W) == semijoin(X, W)
        let rewritten = ops::semijoin(args[0].as_bat().unwrap(), w_res.as_bat().unwrap()).unwrap();
        let regular = ops::semijoin(&x, w_res.as_bat().unwrap()).unwrap();
        assert_eq!(rewritten.canonical_tuples(), regular.canonical_tuples());
        // once W's producer is gone, nothing says W ⊂ V
        pool.remove(w_id);
        assert!(singleton(&pool, Opcode::Semijoin, &target_args).is_none());
    }
}
