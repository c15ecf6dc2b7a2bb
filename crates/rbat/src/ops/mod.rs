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
//!
//! # Which algorithm runs
//!
//! As in MonetDB's BAT algebra (paper §2.3), an operator picks its
//! implementation at run time from what it can observe on its inputs —
//! the layout of a column, the spread of its keys — never from a setting.
//! Whatever is picked, the result is the same in tuples, order, `Props`,
//! buffer representation and `resident_bytes()`. A *key word* is a
//! fixed-width value as a `u64` (`for_each_u64_key`); *integer-like*
//! means OID, `Int`, `Date` or `Bool`, whose key words keep their order.
//!
//! | operator | what is observed | algorithm |
//! |---|---|---|
//! | [`semijoin`] / [`diff`] | `l.head` persistent (has an accelerator slot) and `r` selective, `\|r\| × 8 ≤ \|l\|` | indexed: the rows of each key of `r` are read out of `l.head`'s key index and marked in the selection; no key of `l` is read. The first such probe builds the index |
//! | | `l.head` dense | positional: each key of `r` marks a row of `l` in a bitmap; no key of `l` is read, nothing is hashed |
//! | | `r.head` integer-like, spanning ≤ 64 places per row of `l` and `r` together | bitmap over the span, set from `r`, probed by `l` with a shift and a mask |
//! | | anything else fixed-width (floats, scattered keys) | hash set of key words, filled from the typed slice |
//! | | strings | hash set of byte strings |
//! | [`join`] build (`r.head`) | persistent | none per call: the column's key index is the build side, built by the first join on the column |
//! | | dense | none: the range is the table (*fetch join*) |
//! | | integer-like, spanning ≤ 4 places per row | direct table, one cell per place |
//! | | other fixed-width / strings | hash table on key words / byte strings |
//! | | every row has a key of its own / some keys repeat or are NULL | a cell holds the build row / a group of rows, all groups in one allocation (CSR) |
//! | [`join`] probe (`l.tail`) | every row hits (a foreign key through its index) / some miss | `l.head` copied in bulk / gathered by the rows that hit |
//! | [`select`] / [`uselect`] | tail sorted and NULL-free | binary search, zero-copy view |
//! | [`uselect`] | tail persistent, integer-like or `Str`, probed with a value of its type, key index built | the rows of the value are read out of the index (a `Float` tail keeps the scan: equality is by value, the index by word). The ninth such probe of a column builds the index |
//! | [`select`] / [`uselect`] | integer-like tail | one unsigned comparison per row on the key word (`Date`: two, at the 32 bits a date has) |
//! | | `Float` tail | two comparisons per row; exclusive bounds stepped to the next float inward |
//! | | `Str` tail | byte comparison; equality by length, then bytes |
//! | | `Int` tail, `Float` bound | [`SelectBounds::contains`] per row (an `i64` has no exact `f64`) |
//! | [`calc`] / [`calc_cmp`] | (lhs type, rhs type or scalar, operator) | one typed loop per combination; validity merged a word at a time |
//! | [`sort`] / [`topn`] | tail type | one typed comparison of two rows; `topn` selects its `n` rows, then sorts only those |
//!
//! Scans mark qualifying rows in a [`Bitmap`], a word of 64 rows at a time
//! with no branch on the data (`Bitmap::from_slice`); NULLs are merged in
//! with a word-wise AND; head and tail are then gathered at their exact
//! size. [`grp_aggr`], [`grp_first`], [`kunique`] and [`concat()`] still
//! handle one row (for `concat` and the min/max aggregates, one boxed
//! [`crate::Value`]) at a time.
//!
//! # Key indexes
//!
//! A *persistent* column — one the catalog holds: [`crate::catalog`],
//! *Accelerators* — carries a slot for the key index of its buffer: key
//! word (or string) → the rows that hold it, ascending, NULL rows in no
//! list. It is the build side of a join ([`JoinBuild`]: direct table or
//! hash table, CSR groups) kept with the buffer instead of thrown away
//! with the call; nothing else in this module builds or stores one, and a
//! column no catalog holds is scanned as before. A kernel decides in one
//! place whether to come for the index, from the slot and the sizes of its
//! inputs (operator microbench, 60 000 rows, one pinned CPU):
//!
//! * **[`join`]** always: the index costs what the join's own build would
//!   (478 µs over 60 000 OIDs of 15 000 rows), and the next join finds it.
//! * **[`semijoin`] / [`diff`]** when `|r| × 8 ≤ |l|`. Reading the index
//!   costs per row *found*, a scan per row of `l`: 3 µs against 88 µs for 4
//!   keys, 6 against 90 for 512, 55 against 116 for 7 500, level at 30 000
//!   (216 µs each way: half the rows found), 434 against 351 at 60 000.
//!   Eight rows of `l` per row of `r` keeps the index ahead while a key
//!   finds up to four rows — a TPC-H order's line items — and the first
//!   selective probe builds (five scans' worth; a foreign-key column is
//!   probed by most queries that touch its table).
//! * **[`uselect`]** once the column has been probed nine times
//!   (`select.rs` has the figures: the build is dearer and buys less).
//!
//! The answer is the same `Bat` either way — tuples, order, `Props`,
//! view-ness, `resident_bytes()` — which `tests/kernel_props.rs` holds
//! every kernel to, with and without a slot.
//!
//! # What a range select selects
//!
//! `select(b, bounds)` is the tuples of `b`, in order, whose tail value `v`
//! satisfies `bounds.contains(&v)` — on every physical path (scan, sorted
//! view, dense tail). So: NULL never qualifies; a side whose bound is
//! `Nil` is unbounded; values compare as [`crate::Value::cmp_same`]
//! compares them (`Int` with `Float` numerically, other mixes not at all,
//! and a bound that does not compare with the tail selects nothing);
//! `NaN` is in no bounded range but is in the range unbounded on both
//! sides; `-0.0` and `0.0` are one point.

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
pub use group::{group, group_refine, grp_aggr, grp_first, num_groups, GrpFunc};
pub use join::{diff, join, join_build, join_probe, semijoin, JoinBuild};
pub use like::{like_match, like_select, like_subsumes};
pub use select::{concat, select, select_not_nil, uselect, SelectBounds};
pub use sort::{sort, topn};
pub use unique::kunique;

use crate::bat::Bat;
use crate::bitmap::Bitmap;
use crate::buffer::TypedSlice;
use crate::column::Column;
use crate::types::{LogicalType, Value};

/// A fixed-width value as its key word: OIDs as they are, integers and
/// dates sign-extended, booleans as 0/1, floats by bit pattern (so
/// `NaN == NaN` and `0.0 != -0.0`, as [`crate::Value`]'s equality has it).
/// This is the one place a key becomes a word; everything that hashes,
/// ranks or compares keys does it on these.
trait KeyWord: Copy {
    fn word(self) -> u64;
}

macro_rules! key_word {
    ($($t:ty => |$v:ident| $word:expr),*) => {$(
        impl KeyWord for $t {
            #[inline]
            fn word(self) -> u64 {
                let $v = self;
                $word
            }
        }
    )*};
}
key_word!(u64 => |v| v, i64 => |v| v as u64, i32 => |v| v as i64 as u64,
          bool => |v| v as u64, f64 => |v| v.to_bits());

/// The key word of a fixed-width value, as [`KeyWord::word`] has it for
/// the elements of a column of the value's type; `None` for NULL, strings
/// and BATs.
pub(crate) fn key_word_of(v: &Value) -> Option<u64> {
    match *v {
        Value::Oid(o) => Some(o.0.word()),
        Value::Int(i) => Some(i.word()),
        Value::Date(d) => Some(d.0.word()),
        Value::Bool(b) => Some(b.word()),
        Value::Float(x) => Some(x.word()),
        _ => None,
    }
}

/// Evaluate `$body` with `$slice` bound to the typed slice of a
/// fixed-width column (its elements are [`KeyWord`]s), once per element
/// type; `$other` for dense and string columns.
macro_rules! with_key_slice {
    ($col:expr, |$slice:ident| $body:expr, otherwise => $other:expr) => {
        match $col.typed() {
            TypedSlice::Oid($slice) => $body,
            TypedSlice::Int($slice) => $body,
            TypedSlice::Date($slice) => $body,
            TypedSlice::Bool($slice) => $body,
            TypedSlice::Float($slice) => $body,
            TypedSlice::Dense { .. } | TypedSlice::Str { .. } => $other,
        }
    };
}

/// Call `f(row, word)` for every non-NULL row of a fixed-width column, in
/// row order, with the row's [`KeyWord`]. Returns `false`, having called
/// nothing, for string columns.
pub(crate) fn for_each_u64_key(col: &Column, mut f: impl FnMut(usize, u64)) -> bool {
    fn visit(col: &Column, words: impl Iterator<Item = u64>, mut f: impl FnMut(usize, u64)) {
        match col.validity_window() {
            None => words.enumerate().for_each(|(i, w)| f(i, w)),
            Some((valid, offset)) => {
                for (i, w) in words.enumerate() {
                    if valid.get(offset + i) {
                        f(i, w);
                    }
                }
            }
        }
    }
    if let TypedSlice::Dense { start, len } = col.typed() {
        visit(col, start..start + len as u64, f);
        return true;
    }
    with_key_slice!(
        col,
        |s| visit(col, s.iter().map(|v| v.word()), &mut f),
        otherwise => return false
    );
    true
}

/// The rows of a fixed-width column whose key word satisfies `pred`, as a
/// selection. NULL rows are judged by the word under them: callers that
/// must not select them clear them with [`clear_nulls`] — after
/// negating, for an anti-join. `None` for string columns.
pub(crate) fn select_keys(col: &Column, pred: impl Fn(u64) -> bool) -> Option<Bitmap> {
    if let TypedSlice::Dense { start, len } = col.typed() {
        return Some(Bitmap::from_bits(
            len,
            (start..start + len as u64).map(pred),
        ));
    }
    Some(with_key_slice!(
        col,
        |s| Bitmap::from_slice(s, |v| pred(v.word())),
        otherwise => return None
    ))
}

/// The strings of a string column, one per row (NULL rows included), as
/// bytes: byte order is `str` order and byte equality is `str` equality,
/// so string kernels compare, hash and rank these and never pay for UTF-8
/// validation. `None` for other columns.
pub(crate) fn string_keys(col: &Column) -> Option<impl Iterator<Item = &[u8]> + Clone> {
    match col.typed() {
        TypedSlice::Str { buf, offset, len } => Some(buf.iter_bytes(offset, len)),
        _ => None,
    }
}

/// Drop the NULL rows of `col` from a selection over its rows.
pub(crate) fn clear_nulls(sel: &mut Bitmap, col: &Column) {
    if let Some((valid, offset)) = col.validity_window() {
        sel.and_range(valid, offset);
    }
}

/// The tuples of `b` a selection over its rows picks, as owned columns.
pub(crate) fn gather_selected(b: &Bat, sel: &Bitmap) -> (Column, Column) {
    let idx = sel.ones();
    (b.head().gather(&idx), b.tail().gather(&idx))
}

/// Where the non-NULL keys of an integer-like column lie. Words are
/// compared after `^ bias`, which maps the type's order onto `u64` order
/// (the sign bit for `Int` and `Date`, nothing for OIDs and booleans), so
/// `(word ^ bias) - min` is the key's place in `0..=span`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyRange {
    pub bias: u64,
    pub min: u64,
    pub span: u64,
}

impl KeyRange {
    /// The place of `word` in `0..=span`; anything larger when outside.
    #[inline]
    pub fn place(&self, word: u64) -> u64 {
        (word ^ self.bias).wrapping_sub(self.min)
    }
}

/// The bias of a type's key words (see [`KeyRange`]): `None` for floats
/// and strings, whose words have no useful order.
pub(crate) fn key_bias(ty: LogicalType) -> Option<u64> {
    match ty {
        LogicalType::Oid | LogicalType::Bool => Some(0),
        LogicalType::Int | LogicalType::Date => Some(1 << 63),
        LogicalType::Float | LogicalType::Str => None,
    }
}

/// The [`KeyRange`] of a column: `None` for floats and strings and when
/// every row is NULL.
pub(crate) fn key_range(col: &Column) -> Option<KeyRange> {
    let bias = key_bias(col.logical_type())?;
    let (mut min, mut max) = (u64::MAX, 0);
    let mut any = false;
    for_each_u64_key(col, |_, w| {
        min = min.min(w ^ bias);
        max = max.max(w ^ bias);
        any = true;
    });
    any.then(|| KeyRange {
        bias,
        min,
        span: max - min,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nulls(c: Column) -> Column {
        let n = c.len();
        c.with_validity(Bitmap::from_bools(
            &(0..n).map(|i| i % 3 != 1).collect::<Vec<_>>(),
        ))
    }

    fn columns() -> Vec<Column> {
        vec![
            Column::dense(7, 5),
            Column::from_oids(vec![9, 0, 3, 3]),
            nulls(Column::from_ints(vec![-1, 0, 5, i64::MIN])),
            nulls(Column::from_dates(vec![-3, 0, 10_000])).slice(1, 2),
            Column::from_bools(vec![true, false]),
            nulls(Column::from_floats(vec![0.0, -0.0, 1.5, f64::NAN])),
        ]
    }

    /// The word of a value, spelled out once more.
    fn word_of(v: &Value) -> u64 {
        match *v {
            Value::Oid(o) => o.0,
            Value::Int(i) => i as u64,
            Value::Date(d) => d.0 as i64 as u64,
            Value::Bool(b) => b as u64,
            Value::Float(x) => x.to_bits(),
            _ => unreachable!("a fixed-width value"),
        }
    }

    #[test]
    fn key_words_of_every_type() {
        for c in &columns() {
            let mut seen = vec![None; c.len()];
            assert!(for_each_u64_key(c, |i, k| seen[i] = Some(k)));
            let want: Vec<Option<u64>> = c
                .iter_values()
                .map(|v| (!v.is_nil()).then(|| word_of(&v)))
                .collect();
            assert_eq!(seen, want, "{:?}", c.logical_type());
            // a selection judges NULL rows by the word under them ...
            let odd = select_keys(c, |w| w % 2 == 1).unwrap();
            let mut all = select_keys(c, |_| true).unwrap();
            assert_eq!(odd.len(), c.len());
            assert!(all.all_set());
            // ... until they are cleared
            clear_nulls(&mut all, c);
            assert_eq!(all.count_ones(), c.len() - c.null_count());
        }
        let strings = Column::from_strs(["x"]);
        assert!(!for_each_u64_key(&strings, |_, _| unreachable!()));
        assert!(select_keys(&strings, |_| true).is_none());
        assert_eq!(string_keys(&strings).unwrap().collect::<Vec<_>>(), [b"x"]);
        assert!(string_keys(&Column::dense(0, 1)).is_none());
    }

    #[test]
    fn key_ranges_follow_the_order_of_the_type() {
        let place = |c: &Column, v: Value| key_range(c).unwrap().place(word_of(&v));
        let ints = nulls(Column::from_ints(vec![-4, 999, 5, i64::MIN, 2]));
        let range = key_range(&ints).unwrap(); // 999 is NULL
        assert_eq!(range.span, 5u64.wrapping_sub(i64::MIN as u64));
        assert_eq!(place(&ints, Value::Int(i64::MIN)), 0);
        assert_eq!(place(&ints, Value::Int(5)), range.span);
        assert!(place(&ints, Value::Int(6)) > range.span);
        let dates = Column::from_dates(vec![3, -2, 0]);
        assert_eq!(key_range(&dates).unwrap().span, 5);
        assert_eq!(place(&dates, Value::Date(crate::types::Date(-2))), 0);
        assert!(place(&dates, Value::Date(crate::types::Date(-3))) > 5);
        assert_eq!(key_range(&Column::dense(7, 5)).unwrap().span, 4);
        assert!(key_range(&Column::from_floats(vec![1.0])).is_none());
        assert!(key_range(&Column::from_strs(["x"])).is_none());
        let all_null = Column::from_ints(vec![1]).with_validity(Bitmap::new(1, false));
        assert!(key_range(&all_null).is_none());
    }
}
