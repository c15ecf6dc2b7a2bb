//! Grouping and grouped aggregation.

use crate::bat::Bat;
use crate::buffer::TypedSlice;
use crate::column::{Column, ColumnBuilder};
use crate::error::{BatError, Result};
use crate::hash::FxHashMap;
use crate::ops::{for_each_u64_key, string_keys};
use crate::props::Props;
use crate::types::{LogicalType, Value};

/// `group.new(b)`: map each tuple to a group id based on its tail value.
/// The result BAT is positionally aligned with `b`: head is `b`'s head,
/// tail is the group id (an OID in `0..num_groups`). Group ids are assigned
/// in order of first appearance, so they are deterministic.
pub fn group(b: &Bat) -> Result<Bat> {
    Ok(Bat::new(
        b.head().clone(),
        Column::from_oids(group_ids(b.tail())),
        Props {
            head_dense: b.props().head_dense,
            head_sorted: b.props().head_sorted,
            head_key: b.props().head_key,
            tail_nonil: true,
            ..Props::default()
        },
    ))
}

/// `group.refine(g, b)`: refine an existing grouping `g` (positionally
/// aligned group ids) by the values of `b` — multi-attribute GROUP BY.
pub fn group_refine(g: &Bat, b: &Bat) -> Result<Bat> {
    if g.len() != b.len() {
        return Err(BatError::LengthMismatch {
            op: "group_refine",
            left: g.len(),
            right: b.len(),
        });
    }
    let mut prev = vec![u64::MAX; g.len()]; // NULL group ids share the sentinel
    for_each_gid("group_refine", g, |i, p| prev[i] = p)?;
    let vals = group_ids(b.tail());
    let mut table: FxHashMap<(u64, u64), u64> = FxHashMap::default();
    let out: Vec<u64> = prev
        .into_iter()
        .zip(vals)
        .map(|key| {
            let next = table.len() as u64;
            *table.entry(key).or_insert(next)
        })
        .collect();
    Ok(Bat::new(
        g.head().clone(),
        Column::from_oids(out),
        Props {
            head_dense: g.props().head_dense,
            tail_nonil: true,
            ..Props::default()
        },
    ))
}

/// Call `f(row, group id)` for every row of a group-id BAT (as [`group`]
/// makes them: an OID tail) whose group id is not NULL.
fn for_each_gid(op: &'static str, groups: &Bat, f: impl FnMut(usize, u64)) -> Result<()> {
    if for_each_u64_key(groups.tail(), f) {
        Ok(())
    } else {
        Err(BatError::type_mismatch(op, "group ids must be oids"))
    }
}

fn group_ids(tail: &Column) -> Vec<u64> {
    // NULL rows keep the sentinel: one shared group, numbered below
    let mut out = vec![u64::MAX; tail.len()];
    if let Some(strings) = string_keys(tail) {
        let mut table: FxHashMap<&[u8], u64> = FxHashMap::default();
        for (i, key) in strings.enumerate().filter(|&(i, _)| tail.is_valid(i)) {
            let next = table.len() as u64;
            out[i] = *table.entry(key).or_insert(next);
        }
    } else {
        let mut table: FxHashMap<u64, u64> = FxHashMap::default();
        for_each_u64_key(tail, |i, k| {
            let next = table.len() as u64;
            out[i] = *table.entry(k).or_insert(next);
        });
    }
    remap_sentinel(&mut out);
    out
}

fn remap_sentinel(gids: &mut [u64]) {
    if gids.contains(&u64::MAX) {
        let max = gids.iter().filter(|&&g| g != u64::MAX).max().copied();
        let null_gid = max.map(|m| m + 1).unwrap_or(0);
        for g in gids.iter_mut() {
            if *g == u64::MAX {
                *g = null_gid;
            }
        }
    }
}

/// Number of distinct groups in a group-id BAT produced by [`group`].
pub fn num_groups(g: &Bat) -> usize {
    let mut n = 0;
    for_each_u64_key(g.tail(), |_, gid| n = n.max(gid as usize + 1));
    n
}

/// Aggregate function selector for [`grp_aggr`] and [`super::aggr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GrpFunc {
    /// Count of tuples per group.
    Count,
    /// Sum of values per group.
    Sum,
    /// Minimum per group.
    Min,
    /// Maximum per group.
    Max,
    /// Arithmetic mean per group.
    Avg,
}

/// Grouped aggregation: `values` and `groups` are positionally aligned;
/// the result maps each group id (dense head `0..n`) to the aggregate of
/// the group's values. NULL values are ignored (SQL semantics).
pub fn grp_aggr(values: &Bat, groups: &Bat, func: GrpFunc) -> Result<Bat> {
    if values.len() != groups.len() {
        return Err(BatError::LengthMismatch {
            op: "grp_aggr",
            left: values.len(),
            right: groups.len(),
        });
    }
    let n = num_groups(groups);
    match func {
        GrpFunc::Count => {
            let mut counts = vec![0i64; n];
            for_each_gid("grp_aggr", groups, |i, g| {
                counts[g as usize] += values.tail().is_valid(i) as i64;
            })?;
            Ok(Bat::from_tail(Column::from_ints(counts)))
        }
        // integers add up exactly, in `i64`, or not at all
        GrpFunc::Sum if values.tail_type() == LogicalType::Int => {
            let TypedSlice::Int(ints) = values.tail().typed() else {
                unreachable!("an Int tail is a slice of i64")
            };
            let mut sums = vec![Some(0i64); n];
            for_each_gid("grp_aggr", groups, |i, g| {
                if values.tail().is_valid(i) {
                    let sum = &mut sums[g as usize];
                    *sum = sum.and_then(|s| s.checked_add(ints[i]));
                }
            })?;
            let sums: Option<Vec<i64>> = sums.into_iter().collect();
            let sums = sums.ok_or(BatError::Overflow { op: "grp_aggr.sum" })?;
            Ok(Bat::from_tail(Column::from_ints(sums)))
        }
        GrpFunc::Sum | GrpFunc::Avg => {
            let mut sums = vec![0f64; n];
            let mut counts = vec![0i64; n];
            for_each_gid("grp_aggr", groups, |i, g| {
                if let Some(x) = values.tail().value(i).as_float() {
                    sums[g as usize] += x;
                    counts[g as usize] += 1;
                }
            })?;
            if func == GrpFunc::Avg {
                let avgs: Vec<f64> = sums
                    .iter()
                    .zip(&counts)
                    .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
                    .collect();
                Ok(Bat::from_tail(Column::from_floats(avgs)))
            } else {
                Ok(Bat::from_tail(Column::from_floats(sums)))
            }
        }
        GrpFunc::Min | GrpFunc::Max => {
            let mut best: Vec<Value> = vec![Value::Nil; n];
            for_each_gid("grp_aggr", groups, |i, g| {
                let v = values.tail().value(i);
                if v.is_nil() {
                    return;
                }
                let slot = &mut best[g as usize];
                let replace = match slot.cmp_same(&v) {
                    None => true, // slot is Nil
                    Some(ord) => {
                        (func == GrpFunc::Min && ord == std::cmp::Ordering::Greater)
                            || (func == GrpFunc::Max && ord == std::cmp::Ordering::Less)
                    }
                };
                if replace {
                    *slot = v;
                }
            })?;
            let ty = values.tail_type();
            let mut cb = ColumnBuilder::new(ty);
            for v in &best {
                cb.push(v);
            }
            Ok(Bat::from_tail(cb.finish()))
        }
    }
}

/// For each group, the tail value of its first member — used to recover the
/// GROUP BY key values for the result set. Result head is dense group ids.
pub fn grp_first(values: &Bat, groups: &Bat) -> Result<Bat> {
    if values.len() != groups.len() {
        return Err(BatError::LengthMismatch {
            op: "grp_first",
            left: values.len(),
            right: groups.len(),
        });
    }
    let n = num_groups(groups);
    let mut first = vec![u32::MAX; n];
    for_each_gid("grp_first", groups, |i, g| {
        let slot = &mut first[g as usize];
        *slot = (*slot).min(i as u32);
    })?;
    // a group id no row carries (ids need not be contiguous) shows row 0
    for slot in first.iter_mut().filter(|slot| **slot == u32::MAX) {
        *slot = 0;
    }
    let tail = values.tail().gather(&first);
    Ok(Bat::new(
        Column::dense(0, n),
        tail,
        Props {
            head_dense: true,
            head_sorted: true,
            head_key: true,
            ..Props::default()
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Oid;

    #[test]
    fn group_assigns_first_appearance_ids() {
        let b = Bat::from_tail(Column::from_strs(["R", "A", "R", "N"]));
        let g = group(&b).unwrap();
        let gids: Vec<Value> = g.tail().iter_values().collect();
        assert_eq!(
            gids,
            vec![
                Value::Oid(Oid(0)),
                Value::Oid(Oid(1)),
                Value::Oid(Oid(0)),
                Value::Oid(Oid(2)),
            ]
        );
        assert_eq!(num_groups(&g), 3);
    }

    #[test]
    fn group_refine_composes() {
        let a = Bat::from_tail(Column::from_strs(["x", "x", "y", "y"]));
        let b = Bat::from_tail(Column::from_ints(vec![1, 2, 1, 1]));
        let g1 = group(&a).unwrap();
        let g2 = group_refine(&g1, &b).unwrap();
        assert_eq!(num_groups(&g2), 3); // (x,1), (x,2), (y,1)
        let gids: Vec<Value> = g2.tail().iter_values().collect();
        assert_eq!(gids[2], gids[3]);
        assert_ne!(gids[0], gids[1]);
    }

    #[test]
    fn grouped_sum_count() {
        let vals = Bat::from_tail(Column::from_ints(vec![10, 20, 30, 40]));
        let grp = Bat::from_tail(Column::from_oids(vec![0, 1, 0, 1]));
        let s = grp_aggr(&vals, &grp, GrpFunc::Sum).unwrap();
        assert_eq!(
            s.tail().iter_values().collect::<Vec<_>>(),
            vec![Value::Int(40), Value::Int(60)]
        );
        let c = grp_aggr(&vals, &grp, GrpFunc::Count).unwrap();
        assert_eq!(
            c.tail().iter_values().collect::<Vec<_>>(),
            vec![Value::Int(2), Value::Int(2)]
        );
    }

    #[test]
    fn grouped_int_sums_are_exact_or_an_error() {
        let big = (1i64 << 53) + 1;
        let grp = Bat::from_tail(Column::from_oids(vec![0, 1, 0, 1, 2]));
        let sum = |v: Vec<i64>, nulls: &[usize]| {
            let mut valid = crate::Bitmap::new(v.len(), true);
            nulls.iter().for_each(|&i| valid.set(i, false));
            let vals = Bat::from_tail(Column::from_ints(v).with_validity(valid));
            grp_aggr(&vals, &grp, GrpFunc::Sum).map(|s| s.tail().iter_values().collect::<Vec<_>>())
        };
        assert_eq!(
            sum(vec![1 << 53, i64::MAX, 1, 0, -7], &[]).unwrap(),
            vec![Value::Int(big), Value::Int(i64::MAX), Value::Int(-7)]
        );
        // only the group that overflows does, and it fails the whole call
        let overflow = BatError::Overflow { op: "grp_aggr.sum" };
        assert_eq!(sum(vec![0, i64::MAX, 0, 1, 0], &[]).unwrap_err(), overflow);
        // a NULL adds nothing, whatever lies under it; a group of NULLs sums to 0
        assert_eq!(
            sum(vec![big, i64::MAX, 1, i64::MAX, 9], &[1, 4]).unwrap(),
            vec![Value::Int(big + 1), Value::Int(i64::MAX), Value::Int(0)]
        );
    }

    #[test]
    fn grouped_min_max_avg() {
        let vals = Bat::from_tail(Column::from_floats(vec![1.0, 5.0, 3.0]));
        let grp = Bat::from_tail(Column::from_oids(vec![0, 0, 1]));
        let mn = grp_aggr(&vals, &grp, GrpFunc::Min).unwrap();
        let mx = grp_aggr(&vals, &grp, GrpFunc::Max).unwrap();
        let av = grp_aggr(&vals, &grp, GrpFunc::Avg).unwrap();
        assert_eq!(mn.tail().value(0), Value::Float(1.0));
        assert_eq!(mx.tail().value(0), Value::Float(5.0));
        assert_eq!(av.tail().value(0), Value::Float(3.0));
        assert_eq!(av.tail().value(1), Value::Float(3.0));
    }

    #[test]
    fn grp_first_recovers_keys() {
        let keys = Bat::from_tail(Column::from_strs(["a", "b", "a"]));
        let g = group(&keys).unwrap();
        let f = grp_first(&keys, &g).unwrap();
        assert_eq!(
            f.tail().iter_values().collect::<Vec<_>>(),
            vec![Value::str("a"), Value::str("b")]
        );
    }

    #[test]
    fn group_with_nulls_gets_own_group() {
        use crate::column::ColumnBuilder;
        let mut cb = ColumnBuilder::new(LogicalType::Int);
        cb.push(&Value::Int(1));
        cb.push(&Value::Nil);
        cb.push(&Value::Int(1));
        let b = Bat::from_tail(cb.finish());
        let g = group(&b).unwrap();
        assert_eq!(num_groups(&g), 2);
    }
}
