//! The binary relational algebra over BATs.
//!
//! Every operator takes BAT references and produces a fresh BAT
//! (operator-at-a-time, full materialisation). Cheap viewpoint operators
//! live on [`crate::Bat`] itself (`reverse`, `mirror`, `mark_t`); this module
//! hosts the data-touching operators:
//!
//! * [`select`] / [`uselect`] / [`select_not_nil`] / [`like_select`] — filters
//! * [`join`] / [`semijoin`] / [`diff`] — joins and set operations
//! * [`group`] / [`group_refine`] / grouped aggregates — grouping
//! * [`aggr`] — scalar aggregates
//! * [`sort`] / [`topn`] — ordering
//! * [`calc`] / [`calc_cmp`] — column arithmetic and comparisons
//! * [`kunique`] — duplicate elimination
//! * [`concat`] — tuple union (used by combined subsumption and deltas)

mod aggr;
mod calc;
mod group;
mod join;
mod like;
mod select;
mod sort;
mod unique;

pub use aggr::{aggr, AggrFunc};
pub use calc::{calc, calc_cmp, CalcOp, CalcRhs, CmpOp};
pub use group::{
    group, group_build, group_probe, group_refine, grp_aggr, grp_first, num_groups, GroupMap,
    GrpFunc,
};
pub use join::{diff, join, join_build, join_probe, semijoin, JoinBuild};
pub use like::{like_match, like_select, like_subsumes};
pub use select::{concat, select, select_not_nil, uselect, SelectBounds};
pub use sort::{sort, sort_build, sort_probe, topn, SortedRun};
pub use unique::kunique;

use crate::column::Column;

/// Extract fixed-width key values as `u64` words for hashing/equality.
/// Returns `None` for string columns (they take the string path) and maps
/// NULL rows to `None` entries.
pub(crate) fn u64_keys(col: &Column) -> Option<Vec<Option<u64>>> {
    use crate::buffer::TypedSlice as T;
    let t = col.typed();
    let mut out: Vec<Option<u64>> = Vec::with_capacity(col.len());
    match t {
        T::Dense { start, len } => {
            out.extend((0..len as u64).map(|i| Some(start + i)));
        }
        T::Oid(s) => out.extend(s.iter().map(|&v| Some(v))),
        T::Int(s) => out.extend(s.iter().map(|&v| Some(v as u64))),
        T::Date(s) => out.extend(s.iter().map(|&v| Some(v as i64 as u64))),
        T::Bool(s) => out.extend(s.iter().map(|&v| Some(v as u64))),
        T::Float(s) => out.extend(s.iter().map(|&v| Some(v.to_bits()))),
        T::Str { .. } => return None,
    }
    if col.has_nulls() {
        for (i, slot) in out.iter_mut().enumerate() {
            if !col.is_valid(i) {
                *slot = None;
            }
        }
    }
    Some(out)
}

/// Typed twin of [`u64_keys`] for callers that need no key vector: calls
/// `f(row, word)` for every non-NULL row, in row order, with the same word
/// per value. Returns `false`, having called nothing, for string columns.
pub(crate) fn for_each_u64_key(col: &Column, mut f: impl FnMut(usize, u64)) -> bool {
    use crate::buffer::TypedSlice as T;
    fn visit<V: Copy>(
        col: &Column,
        values: impl Iterator<Item = V>,
        word: impl Fn(V) -> u64,
        mut f: impl FnMut(usize, u64),
    ) {
        if col.has_nulls() {
            for (i, v) in values.enumerate() {
                if col.is_valid(i) {
                    f(i, word(v));
                }
            }
        } else {
            for (i, v) in values.enumerate() {
                f(i, word(v));
            }
        }
    }
    match col.typed() {
        T::Dense { start, len } => visit(col, start..start + len as u64, |v| v, &mut f),
        T::Oid(s) => visit(col, s.iter().copied(), |v| v, &mut f),
        T::Int(s) => visit(col, s.iter().copied(), |v| v as u64, &mut f),
        T::Date(s) => visit(col, s.iter().copied(), |v| v as i64 as u64, &mut f),
        T::Bool(s) => visit(col, s.iter().copied(), |v| v as u64, &mut f),
        T::Float(s) => visit(col, s.iter().copied(), f64::to_bits, &mut f),
        T::Str { .. } => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    #[test]
    fn for_each_u64_key_agrees_with_u64_keys() {
        use crate::bitmap::Bitmap;
        let nulls = |c: Column| {
            let n = c.len();
            c.with_validity(Bitmap::from_bools(
                &(0..n).map(|i| i % 3 != 1).collect::<Vec<_>>(),
            ))
        };
        let columns = [
            Column::dense(7, 5),
            Column::from_oids(vec![9, 0, 3, 3]),
            nulls(Column::from_ints(vec![-1, 0, 5, i64::MIN])),
            nulls(Column::from_dates(vec![-3, 0, 10_000])).slice(1, 2),
            Column::from_bools(vec![true, false]),
            nulls(Column::from_floats(vec![0.0, -0.0, 1.5, f64::NAN])),
        ];
        for c in &columns {
            let mut seen = vec![None; c.len()];
            assert!(for_each_u64_key(c, |i, k| seen[i] = Some(k)));
            assert_eq!(Some(seen), u64_keys(c), "{:?}", c.logical_type());
        }
        assert!(!for_each_u64_key(&Column::from_strs(["x"]), |_, _| {
            unreachable!()
        }));
    }

    #[test]
    fn u64_keys_types() {
        let c = Column::from_ints(vec![-1, 0, 5]);
        let k = u64_keys(&c).unwrap();
        assert_eq!(k[0], Some(-1i64 as u64));
        assert_eq!(k[2], Some(5));
        let s = Column::from_strs(["x"]);
        assert!(u64_keys(&s).is_none());
    }

    #[test]
    fn u64_keys_null() {
        use crate::column::ColumnBuilder;
        use crate::types::LogicalType;
        let mut b = ColumnBuilder::new(LogicalType::Int);
        b.push(&Value::Int(1));
        b.push(&Value::Nil);
        let c = b.finish();
        let k = u64_keys(&c).unwrap();
        assert_eq!(k[0], Some(1));
        assert_eq!(k[1], None);
    }
}
