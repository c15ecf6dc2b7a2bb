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
//! takes no read at all.
//!
//! Combined subsumption (§5.2, Algorithm 2) is the same step. When no
//! single selection contains a bounded target range, the overlapping ones
//! are searched for the cheapest gap-free cover ([`cheapest_cover`], an
//! exact sweep); the operand is then gathered at the rows the chosen
//! pieces hold in the range ([`ops::select_pieced`]), which is the cold
//! select's answer in tuples, order and `Props` whatever the pieces, and
//! each piece is handed to the caller as a singleton source is.

use std::cmp::Ordering;
use std::time::{Duration, Instant};

use rbat::ops::{self, like_subsumes, SelectBounds};
use rbat::{Bat, BatId, Value};
use rmal::Opcode;

use crate::entry::PoolEntry;
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
    /// Combined subsumption (§5.2): the answer, gathered from the operand
    /// at the rows of pieces already handed to the caller as sources.
    Combined {
        /// The target's answer, equal to executing it.
        result: Bat,
        /// Time spent searching for the cover (reported by Fig. 15).
        search_time: Duration,
    },
}

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
/// `pool`. Every source used — the singleton, or each piece of a combined
/// answer — is handed to `use_source` under the guard that found it
/// (`use_source` must not call back into the pool). With `combined`, a
/// bounded range select no single entry answers is pieced together from
/// the overlapping selections in the same step (Algorithm 2). No read is
/// taken when no rule applies.
pub fn attempt(
    pool: &RecyclePool,
    op: Opcode,
    args: &[Value],
    combined: bool,
    mut use_source: impl FnMut(&PoolEntry),
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
    // R: the overlapping candidates (lines 6-9 of Algorithm 2), the
    // smallest first
    let mut r: Vec<_> = candidates()
        .filter_map(|e| {
            let (b, bat) = (bounds_of(e)?, e.value().as_bat()?);
            b.overlaps(&target).then(|| (b, bat.len(), (e, &**bat)))
        })
        .collect();
    r.sort_by_key(|&(_, len, _)| len);
    r.truncate(COMBINED_MAX_CANDIDATES);
    let pieces = cheapest_cover(&target, operand.len(), r)?;
    let search_time = t_start.elapsed();
    let bats: Vec<&Bat> = pieces.iter().map(|&(_, bat)| bat).collect();
    let result = ops::select_pieced(operand, &bats, &target)?;
    pieces.into_iter().for_each(|(e, _)| use_source(e));
    Some(Subsumption::Combined {
        result,
        search_time,
    })
}

/// Does a range ending at `hi` (inclusivity `hi_incl`) reach a range
/// starting at `lo` without a gap?
fn connects(hi: &Value, hi_incl: bool, lo: &Value, lo_incl: bool) -> bool {
    if hi.is_nil() || lo.is_nil() {
        return true; // unbounded side always connects
    }
    match lo.cmp_same(hi) {
        Some(Ordering::Less) => true,
        Some(Ordering::Equal) => hi_incl || lo_incl,
        _ => false,
    }
}

/// The order of upper ends: by value, an exclusive end below an inclusive
/// one, an unbounded end last.
fn upper_end(a: &SelectBounds, b: &SelectBounds) -> Ordering {
    match (a.hi.is_nil(), b.hi.is_nil()) {
        (false, false) => a.hi.cmp_same(&b.hi).unwrap_or(Ordering::Equal),
        (a_open, b_open) => a_open.cmp(&b_open),
    }
    .then(a.hi_incl.cmp(&b.hi_incl))
}

/// The cheapest of `ranges` — (range, cost, payload) — whose union covers
/// `target` without a gap, if it costs less than `budget` (§5.2: piecing
/// must beat scanning the operand, a piece costing its length). Exact:
/// with the ranges sorted by upper end, `best[i]` is the cheapest chain
/// from `target.lo` whose highest range is `i` — range `i` alone if it
/// reaches down to `target.lo`, else `i` after the cheapest chain that
/// reaches `i`'s lower end — and a cover is a chain whose highest range
/// reaches `target.hi`; O(k²).
fn cheapest_cover<T>(
    target: &SelectBounds,
    budget: usize,
    mut ranges: Vec<(SelectBounds, usize, T)>,
) -> Option<Vec<T>> {
    // an end that does not compare with the target's (another type, NaN)
    // reaches nothing; leaving its range out keeps the sort's order total
    let compares = |v: &Value| v.is_nil() || v.cmp_same(&target.lo).is_some();
    ranges.retain(|(r, ..)| compares(&r.lo) && compares(&r.hi));
    ranges.sort_by(|a, b| upper_end(&a.0, &b.0));
    // (cost, predecessor) of the cheapest chain ending at each range
    let mut best: Vec<Option<(usize, Option<usize>)>> = Vec::with_capacity(ranges.len());
    for (i, (r, cost, _)) in ranges.iter().enumerate() {
        let from = if connects(&target.lo, !target.lo_incl, &r.lo, r.lo_incl) {
            Some((0, None))
        } else {
            let reaching = (0..i).filter_map(|j| {
                let (c, _) = best[j]?;
                let p = &ranges[j].0;
                connects(&p.hi, p.hi_incl, &r.lo, r.lo_incl).then_some((c, Some(j)))
            });
            reaching.min_by_key(|&(c, _)| c)
        };
        best.push(from.map(|(c, j)| (c + cost, j)));
    }
    let reaches_hi = |&i: &usize| {
        let r = &ranges[i].0;
        connects(&r.hi, r.hi_incl, &target.hi, !target.hi_incl)
    };
    let covers = (0..ranges.len()).filter(reaches_hi);
    let costs = covers.filter_map(|i| Some((best[i]?.0, i)));
    let cheapest = costs.filter(|&(c, _)| c < budget).min_by_key(|&(c, _)| c);
    let (mut last, mut chosen) = (cheapest.map(|(_, i)| i), vec![false; ranges.len()]);
    while let Some(i) = last {
        chosen[i] = true;
        last = best[i].and_then(|(_, j)| j);
    }
    let pieces: Vec<T> = ranges
        .into_iter()
        .zip(chosen)
        .filter_map(|((.., t), c)| c.then_some(t))
        .collect();
    (!pieces.is_empty()).then_some(pieces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Admitter, EntryId, Lineage};
    use crate::signature::Sig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
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

    /// A combined attempt: the answer and the pieces used, in the order
    /// they were handed over.
    fn combined(pool: &RecyclePool, args: &[Value]) -> Option<(Bat, Vec<EntryId>)> {
        let mut pieces = Vec::new();
        match attempt(pool, Opcode::Select, args, true, |e| pieces.push(e.id))? {
            Subsumption::Combined { result, .. } => Some((result, pieces)),
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
        let (result, pieces) = combined(&pool, &args).expect("combined subsumption");
        assert!(pieces.len() >= 2);
        let bounds = SelectBounds::closed(Value::Int(4), Value::Int(8));
        let regular = ops::select(&base, &bounds).unwrap();
        // the cold answer itself, in its order, not only its tuple set
        let in_order = |b: &Bat| (0..b.len()).map(|i| b.tuple(i)).collect::<Vec<_>>();
        assert_eq!(in_order(&result), in_order(&regular));
        assert_eq!(result.props(), regular.props());
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
        let (_, pieces) = combined(&pool, &args).expect("combined subsumption");
        assert!(!pieces.contains(&big), "piecing with {big} is costlier");
        assert_eq!(pieces, [small_a, small_b]);
    }

    #[test]
    fn a_piece_evicted_after_the_search_still_pieces_the_naive_answer() {
        let base = base_bat();
        let pool = RecyclePool::new();
        let a = admit_select(&pool, &base, 3, 7);
        admit_select(&pool, &base, 5, 15);
        let args = select_args(&base, 4, 8);
        let (result, pieces) = combined(&pool, &args).expect("combined subsumption");
        assert!(pieces.contains(&a));
        // the answer was gathered from the operand in the attempt's step:
        // evicting a piece after it takes nothing from it
        assert!(pool.remove(a).is_some());
        let bounds = SelectBounds::closed(Value::Int(4), Value::Int(8));
        let regular = ops::select(&base, &bounds).unwrap();
        assert_eq!(result.canonical_tuples(), regular.canonical_tuples());
    }

    /// Small ranges over a float domain: ends in `0..=10` or unbounded,
    /// each side open or closed.
    fn random_range(rng: &mut SmallRng, nil_ends: bool) -> SelectBounds {
        let mut end = || match rng.gen_range(0..12) {
            11 if nil_ends => Value::Nil,
            x => Value::Float((x % 11) as f64),
        };
        let (lo, hi) = (end(), end());
        SelectBounds {
            lo,
            hi,
            lo_incl: rng.gen_bool(0.5),
            hi_incl: rng.gen_bool(0.5),
        }
    }

    /// Does the union of `ranges` hold every point of `target`? Checked on
    /// the half-step grid, which meets every interval the integer ends cut
    /// the line into.
    fn union_covers(target: &SelectBounds, ranges: &[&SelectBounds]) -> bool {
        (-2..=22)
            .map(|h| Value::Float(h as f64 / 2.0))
            .filter(|p| target.contains(p))
            .all(|p| ranges.iter().any(|r| r.contains(&p)))
    }

    #[test]
    fn the_cover_sweep_is_as_cheap_as_every_subset() {
        let mut rng = SmallRng::seed_from_u64(37);
        let mut found = 0;
        for _ in 0..3000 {
            let k = rng.gen_range(0..=10);
            let ranges: Vec<(SelectBounds, usize)> = (0..k)
                .map(|_| (random_range(&mut rng, true), rng.gen_range(0..20)))
                .collect();
            // a target holding at least one point
            let target = std::iter::repeat_with(|| random_range(&mut rng, false))
                .find(|t| !union_covers(t, &[]))
                .unwrap();
            let budget = if rng.gen_bool(0.5) {
                usize::MAX
            } else {
                rng.gen_range(0..60)
            };
            let cheapest = (0u32..1 << k)
                .filter_map(|mask| {
                    let subset: Vec<usize> = (0..k).filter(|i| mask & 1 << i != 0).collect();
                    let bounds: Vec<&SelectBounds> = subset.iter().map(|&i| &ranges[i].0).collect();
                    let cost: usize = subset.iter().map(|&i| ranges[i].1).sum();
                    (!subset.is_empty() && cost < budget && union_covers(&target, &bounds))
                        .then_some(cost)
                })
                .min();
            let indexed = ranges
                .iter()
                .enumerate()
                .map(|(i, (r, c))| (r.clone(), *c, i))
                .collect();
            let swept = cheapest_cover(&target, budget, indexed);
            let swept_cost = swept.as_ref().map(|chosen| {
                let bounds: Vec<&SelectBounds> = chosen.iter().map(|&i| &ranges[i].0).collect();
                assert!(union_covers(&target, &bounds), "{target:?}: {chosen:?}");
                chosen.iter().map(|&i| ranges[i].1).sum::<usize>()
            });
            assert_eq!(
                swept_cost, cheapest,
                "{target:?} under {budget} over {ranges:?}"
            );
            found += usize::from(swept.is_some_and(|c| c.len() > 1));
        }
        assert!(found > 100, "only {found} covers of two or more ranges");
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
