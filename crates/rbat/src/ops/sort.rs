//! Ordering operators: full sort and top-N over the tail.

use std::cmp::Ordering;

use crate::bat::Bat;
use crate::buffer::TypedSlice;
use crate::column::Column;
use crate::error::Result;
use crate::props::Props;

/// The first `keep` rows of `tail` in tail order, ties in row order.
///
/// Tail order is NULLs first, then the values as their type orders them
/// (floats by total order, so NaN sorts after every number; strings by
/// bytes, which is `str` order) — and all of it backwards when not
/// `ascending`, NULLs last. The comparison is a typed one on the slice,
/// picked once per call.
fn rows_in_tail_order(tail: &Column, keep: usize, ascending: bool) -> Vec<u32> {
    macro_rules! by_value {
        ($s:ident, $cmp:expr) => {
            first_rows(tail, keep, ascending, |i, j| $cmp(&$s[i], &$s[j]))
        };
    }
    match tail.typed() {
        TypedSlice::Dense { .. } => first_rows(tail, keep, ascending, |i, j| i.cmp(&j)),
        TypedSlice::Oid(s) => by_value!(s, u64::cmp),
        TypedSlice::Int(s) => by_value!(s, i64::cmp),
        TypedSlice::Date(s) => by_value!(s, i32::cmp),
        TypedSlice::Bool(s) => by_value!(s, bool::cmp),
        TypedSlice::Float(s) => by_value!(s, f64::total_cmp),
        TypedSlice::Str { buf, offset, .. } => first_rows(tail, keep, ascending, |i, j| {
            buf.get_bytes(offset + i).cmp(buf.get_bytes(offset + j))
        }),
    }
}

/// [`rows_in_tail_order`] for one way of comparing the values of two
/// (non-NULL) rows. When rows are dropped, only the ones kept are sorted:
/// a selection of the `keep` first by (tail order, row), then a sort of
/// those — what a stable sort of everything would have put first.
fn first_rows(
    tail: &Column,
    keep: usize,
    ascending: bool,
    value_cmp: impl Fn(usize, usize) -> Ordering,
) -> Vec<u32> {
    let valid = tail.validity_window();
    let cmp = |&i: &u32, &j: &u32| {
        let (i, j) = (i as usize, j as usize);
        let ord = match valid {
            None => value_cmp(i, j),
            Some((valid, offset)) => match (valid.get(offset + i), valid.get(offset + j)) {
                (true, true) => value_cmp(i, j),
                (i_valid, j_valid) => i_valid.cmp(&j_valid), // NULLs first
            },
        };
        if ascending {
            ord
        } else {
            ord.reverse()
        }
    };
    let mut idx: Vec<u32> = (0..tail.len() as u32).collect();
    if keep >= idx.len() {
        idx.sort_by(cmp);
    } else if keep == 0 {
        idx.clear();
    } else {
        let then_row = |i: &u32, j: &u32| cmp(i, j).then(i.cmp(j));
        idx.select_nth_unstable_by(keep - 1, then_row);
        idx.truncate(keep);
        idx.sort_unstable_by(then_row);
    }
    idx
}

/// The tuples of `b` at `rows`, which are in tail order.
fn arranged(b: &Bat, rows: &[u32], ascending: bool) -> Bat {
    Bat::new(
        b.head().gather(rows),
        b.tail().gather(rows),
        Props {
            tail_sorted: ascending,
            tail_nonil: b.props().tail_nonil,
            head_key: b.props().head_key,
            ..Props::default()
        },
    )
}

/// Stable sort of the tuples by tail value (`algebra.sortTail`).
pub fn sort(b: &Bat, ascending: bool) -> Result<Bat> {
    let rows = rows_in_tail_order(b.tail(), b.len(), ascending);
    Ok(arranged(b, &rows, ascending))
}

/// First `n` tuples by tail order (`algebra.slice` after sort in MAL
/// plans): `sort(b, ascending)?.slice(0, n)` — ties in input order, NULLs
/// where a sort puts them, everything when `n` exceeds the input — without
/// sorting the tuples it drops. The answer is a view, as the slice of a
/// sorted copy was (the pool charges it as one), over the tuples kept.
pub fn topn(b: &Bat, n: usize, ascending: bool) -> Result<Bat> {
    let keep = n.min(b.len());
    let rows = rows_in_tail_order(b.tail(), keep, ascending);
    Ok(arranged(b, &rows, ascending).slice(0, keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, ColumnBuilder};
    use crate::types::Value;
    use crate::types::{LogicalType, Oid};

    #[test]
    fn sort_ascending_descending() {
        let b = Bat::from_tail(Column::from_ints(vec![3, 1, 2]));
        let asc = sort(&b, true).unwrap();
        assert_eq!(
            asc.tail().iter_values().collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        assert_eq!(
            asc.head().iter_values().collect::<Vec<_>>(),
            vec![Value::Oid(Oid(1)), Value::Oid(Oid(2)), Value::Oid(Oid(0))]
        );
        let desc = sort(&b, false).unwrap();
        assert_eq!(
            desc.tail().iter_values().collect::<Vec<_>>(),
            vec![Value::Int(3), Value::Int(2), Value::Int(1)]
        );
    }

    #[test]
    fn sort_is_stable() {
        let head = Column::from_oids(vec![0, 1, 2]);
        let tail = Column::from_ints(vec![5, 5, 1]);
        let b = Bat::new(head, tail, Props::default());
        let s = sort(&b, true).unwrap();
        assert_eq!(
            s.head().iter_values().collect::<Vec<_>>(),
            vec![Value::Oid(Oid(2)), Value::Oid(Oid(0)), Value::Oid(Oid(1))]
        );
    }

    #[test]
    fn nulls_first() {
        let mut cb = ColumnBuilder::new(LogicalType::Int);
        cb.push(&Value::Int(2));
        cb.push(&Value::Nil);
        let b = Bat::from_tail(cb.finish());
        let s = sort(&b, true).unwrap();
        assert!(s.tail().value(0).is_nil());
    }

    #[test]
    fn topn_limits() {
        let b = Bat::from_tail(Column::from_ints(vec![9, 2, 7, 4]));
        let t = topn(&b, 2, false).unwrap();
        assert_eq!(
            t.tail().iter_values().collect::<Vec<_>>(),
            vec![Value::Int(9), Value::Int(7)]
        );
        let all = topn(&b, 99, true).unwrap();
        assert_eq!(all.len(), 4);
    }
}
