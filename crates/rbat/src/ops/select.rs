//! Selection operators: range select, equality select, NULL filtering,
//! and a range select read out of selections that cover it.

use std::cmp::Ordering;

use crate::bat::Bat;
use crate::bitmap::Bitmap;
use crate::buffer::TypedSlice;
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::ops::{
    clear_nulls, for_each_u64_key, gather_selected, key_bias, key_word_of, select_keys,
    string_keys, KeyRange,
};
use crate::props::Props;
use crate::types::{Date, LogicalType, Oid, Value};

/// Bounds of a range selection: `lo`/`hi` of `Value::Nil` mean unbounded.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SelectBounds {
    /// Lower bound (or Nil).
    pub lo: Value,
    /// Upper bound (or Nil).
    pub hi: Value,
    /// Lower bound inclusive?
    pub lo_incl: bool,
    /// Upper bound inclusive?
    pub hi_incl: bool,
}

impl SelectBounds {
    /// Closed range `[lo, hi]`.
    pub fn closed(lo: Value, hi: Value) -> SelectBounds {
        SelectBounds {
            lo,
            hi,
            lo_incl: true,
            hi_incl: true,
        }
    }

    /// Half-open range `[lo, hi)`, the TPC-H date-range idiom.
    pub fn half_open(lo: Value, hi: Value) -> SelectBounds {
        SelectBounds {
            lo,
            hi,
            lo_incl: true,
            hi_incl: false,
        }
    }

    /// Does `v` fall within these bounds? NULL never qualifies.
    pub fn contains(&self, v: &Value) -> bool {
        if v.is_nil() {
            return false;
        }
        if !self.lo.is_nil() {
            match v.cmp_same(&self.lo) {
                Some(Ordering::Less) => return false,
                Some(Ordering::Equal) if !self.lo_incl => return false,
                None => return false,
                _ => {}
            }
        }
        if !self.hi.is_nil() {
            match v.cmp_same(&self.hi) {
                Some(Ordering::Greater) => return false,
                Some(Ordering::Equal) if !self.hi_incl => return false,
                None => return false,
                _ => {}
            }
        }
        true
    }

    /// Are these bounds contained within `outer` (i.e. `outer` subsumes
    /// `self`)? Unbounded sides of `outer` always contain; unbounded sides
    /// of `self` require the same side of `outer` unbounded.
    pub fn subsumed_by(&self, outer: &SelectBounds) -> bool {
        let lo_ok = if outer.lo.is_nil() {
            true
        } else if self.lo.is_nil() {
            false
        } else {
            match self.lo.cmp_same(&outer.lo) {
                Some(Ordering::Greater) => true,
                Some(Ordering::Equal) => outer.lo_incl || !self.lo_incl,
                _ => false,
            }
        };
        let hi_ok = if outer.hi.is_nil() {
            true
        } else if self.hi.is_nil() {
            false
        } else {
            match self.hi.cmp_same(&outer.hi) {
                Some(Ordering::Less) => true,
                Some(Ordering::Equal) => outer.hi_incl || !self.hi_incl,
                _ => false,
            }
        };
        lo_ok && hi_ok
    }

    /// Do two bound ranges overlap (share at least a point, assuming a
    /// totally ordered domain)? Used by combined subsumption.
    pub fn overlaps(&self, other: &SelectBounds) -> bool {
        let hi_before_lo = |hi: &Value, hi_incl: bool, lo: &Value, lo_incl: bool| -> bool {
            if hi.is_nil() || lo.is_nil() {
                return false;
            }
            match hi.cmp_same(lo) {
                Some(Ordering::Less) => true,
                Some(Ordering::Equal) => !(hi_incl && lo_incl),
                _ => false,
            }
        };
        !hi_before_lo(&self.hi, self.hi_incl, &other.lo, other.lo_incl)
            && !hi_before_lo(&other.hi, other.hi_incl, &self.lo, self.lo_incl)
    }
}

/// What a range selection comes to once its bounds are decoded against
/// the type of the column it scans — done once per call, so that the scan
/// itself is a typed, branch-free predicate. Every variant selects exactly
/// the rows `bounds.contains(value)` holds for.
enum Scan<'a> {
    /// Both sides unbounded: every non-NULL row.
    NotNil,
    /// Integer-like tail (OID, `Int`, `Date`, `Bool`): the row's key word
    /// lies in `range` — one unsigned comparison.
    Words(KeyRange),
    /// `Float` tail: the value lies in the closed interval. Exclusive
    /// bounds were moved to the next float inward; `NaN` is in no interval.
    Floats(f64, f64),
    /// `Str` tail: the bytes (byte order is `str` order) lie between the
    /// bounds; `true` marks a bound as inclusive.
    Bytes(Option<(&'a [u8], bool)>, Option<(&'a [u8], bool)>),
    /// `Int` tail against a `Float` bound: each row is converted the way
    /// [`SelectBounds::contains`] converts it, by calling it.
    ByValue(&'a SelectBounds),
}

impl<'a> Scan<'a> {
    /// `None` when no value of a `ty` column can qualify: a bound of a type
    /// the column's values do not compare with, a `NaN` bound, or an
    /// interval that normalises to nothing.
    fn decode(ty: LogicalType, bounds: &'a SelectBounds) -> Option<Scan<'a>> {
        use LogicalType as L;
        let (lo, hi) = (&bounds.lo, &bounds.hi);
        if lo.is_nil() && hi.is_nil() {
            return Some(Scan::NotNil);
        }
        let is = |v: &Value, ty| v.is_nil() || v.logical_type() == Some(ty);
        match ty {
            L::Int if !(is(lo, L::Int) && is(hi, L::Int)) => {
                let numeric = |v| is(v, L::Int) || is(v, L::Float);
                (numeric(lo) && numeric(hi)).then_some(Scan::ByValue(bounds))
            }
            L::Oid | L::Int | L::Date | L::Bool => {
                let bias = key_bias(ty).expect("an integer-like type");
                let place = |v: &Value| match *v {
                    Value::Oid(Oid(o)) if ty == L::Oid => Some(o),
                    Value::Int(i) if ty == L::Int => Some(i as u64 ^ bias),
                    Value::Date(Date(d)) if ty == L::Date => Some(d as i64 as u64 ^ bias),
                    Value::Bool(b) if ty == L::Bool => Some(b as u64),
                    _ => None,
                };
                let min = match (lo.is_nil(), bounds.lo_incl) {
                    (true, _) => 0,
                    (false, true) => place(lo)?,
                    (false, false) => place(lo)?.checked_add(1)?,
                };
                let max = match (hi.is_nil(), bounds.hi_incl) {
                    (true, _) => u64::MAX,
                    (false, true) => place(hi)?,
                    (false, false) => place(hi)?.checked_sub(1)?,
                };
                let span = max.checked_sub(min)?;
                Some(Scan::Words(KeyRange { bias, min, span }))
            }
            L::Float => {
                let min = match (lo.is_nil(), bounds.lo_incl) {
                    (true, _) => f64::NEG_INFINITY,
                    (false, true) => lo.as_float()?,
                    (false, false) => Some(lo.as_float()?)
                        .filter(|&x| x != f64::INFINITY)?
                        .next_up(),
                };
                let max = match (hi.is_nil(), bounds.hi_incl) {
                    (true, _) => f64::INFINITY,
                    (false, true) => hi.as_float()?,
                    (false, false) => Some(hi.as_float()?)
                        .filter(|&x| x != f64::NEG_INFINITY)?
                        .next_down(),
                };
                (min <= max).then_some(Scan::Floats(min, max))
            }
            L::Str => {
                let side = |v: &'a Value, incl| match v {
                    Value::Nil => Some(None),
                    Value::Str(s) => Some(Some((s.as_bytes(), incl))),
                    _ => None,
                };
                Some(Scan::Bytes(
                    side(lo, bounds.lo_incl)?,
                    side(hi, bounds.hi_incl)?,
                ))
            }
        }
    }

    /// The rows of `tail` whose value qualifies. NULL rows are judged by
    /// the value under them; the caller clears them.
    fn run(&self, tail: &Column) -> Bitmap {
        let n = tail.len();
        match (self, tail.typed()) {
            (Scan::NotNil, _) => Bitmap::new(n, true),
            // a date is half a word wide: compared at its own width, a scan
            // handles twice the rows per vector
            (Scan::Words(range), TypedSlice::Date(s)) => {
                let unbiased = |place: u64| (place ^ range.bias) as i64;
                let lo = unbiased(range.min).max(i32::MIN.into());
                let hi = unbiased(range.min + range.span).min(i32::MAX.into());
                match (i32::try_from(lo), i32::try_from(hi)) {
                    (Ok(lo), Ok(hi)) => Bitmap::from_slice(s, |v| (v >= lo) & (v <= hi)),
                    _ => Bitmap::new(n, false), // wholly above or below every date
                }
            }
            (Scan::Words(range), _) => select_keys(tail, |w| range.place(w) <= range.span)
                .expect("decoded for a fixed-width tail"),
            (&Scan::Floats(lo, hi), TypedSlice::Float(s)) => {
                Bitmap::from_slice(s, |v| (v >= lo) & (v <= hi))
            }
            (&Scan::Bytes(lo, hi), TypedSlice::Str { .. }) => {
                let strings = string_keys(tail).expect("a string tail");
                match (lo, hi) {
                    (Some((l, true)), Some((h, true))) if l == h => {
                        Bitmap::from_bits(n, strings.map(|s| s == l))
                    }
                    _ => Bitmap::from_bits(
                        n,
                        strings.map(|s| {
                            lo.is_none_or(|(l, incl)| s > l || (incl && s == l))
                                && hi.is_none_or(|(h, incl)| s < h || (incl && s == h))
                        }),
                    ),
                }
            }
            (Scan::ByValue(bounds), _) => {
                Bitmap::from_bits(n, tail.iter_values().map(|v| bounds.contains(&v)))
            }
            _ => unreachable!("a scan is decoded for the type of the tail it runs on"),
        }
    }
}

/// Binary-search window `[start, end)` of qualifying rows in a sorted,
/// NULL-free tail, for bounds [`Scan::decode`] accepts. A value a bound
/// does not compare with (a lone `NaN`) is kept outside the window.
fn sorted_window(tail: &Column, bounds: &SelectBounds) -> (usize, usize) {
    // first row `before` does not hold for
    let first_not = |before: &dyn Fn(Option<Ordering>) -> bool, bound: &Value| {
        let (mut lo, mut hi) = (0, tail.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if before(tail.value(mid).cmp_same(bound)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let start = if bounds.lo.is_nil() {
        0
    } else {
        let incl = bounds.lo_incl;
        first_not(
            &|c| match c {
                Some(Ordering::Greater) => false,
                Some(Ordering::Equal) => !incl,
                Some(Ordering::Less) | None => true,
            },
            &bounds.lo,
        )
    };
    let end = if bounds.hi.is_nil() {
        tail.len()
    } else {
        let incl = bounds.hi_incl;
        first_not(
            &|c| match c {
                Some(Ordering::Less) => true,
                Some(Ordering::Equal) => incl,
                Some(Ordering::Greater) | None => false,
            },
            &bounds.hi,
        )
    };
    (start, end.max(start))
}

/// Range selection over the tail: the `(head, tail)` tuples of `b`, in
/// order, whose tail value `bounds.contains` — on every physical path. If
/// the tail is sorted and NULL-free the result is a zero-copy view
/// (`algebra.select` over an ordered BAT returns a BAT view, §2.3);
/// otherwise the bounds are decoded once into a typed predicate
/// (`Scan`), one branch-free pass over the tail marks the qualifying
/// rows in a bitmap, validity is merged in a word at a time, and head and
/// tail are gathered at their exact size.
pub fn select(b: &Bat, bounds: &SelectBounds) -> Result<Bat> {
    let tail = b.tail();
    let scan = Scan::decode(tail.logical_type(), bounds);
    if b.props().tail_sorted && !tail.has_nulls() {
        let (start, end) = match scan {
            Some(_) => sorted_window(tail, bounds),
            None => (0, 0),
        };
        return Ok(b.slice(start, end - start));
    }
    let mut sel = match scan {
        Some(scan) => scan.run(tail),
        None => Bitmap::new(tail.len(), false),
    };
    clear_nulls(&mut sel, tail);
    Ok(selected(b, &sel.ones()))
}

/// What a selection that is not a view answers with: the tuples of `b` at
/// `rows` (ascending), gathered.
fn selected(b: &Bat, rows: &[u32]) -> Bat {
    let props = Props {
        head_dense: false,
        head_sorted: b.props().head_dense || b.props().head_sorted,
        head_key: b.props().head_key,
        tail_sorted: false,
        tail_nonil: true,
    };
    Bat::new(b.head().gather(rows), b.tail().gather(rows), props)
}

/// An equality select builds the key index of a persistent column when it
/// is the ninth to come for it. Building is dearer than for a semijoin —
/// over 60 000 strings it costs 9.4 scans (`key_index_build` and
/// `uselect_str` in the operator microbench: 1.73 ms against 185 µs) —
/// and buys less, a quarter of a scan being the gather that stays
/// (47 µs); so it waits until the scans so far have cost what the build
/// will, which a column replaced by a commit every few queries never
/// reaches.
const PROBES_BEFORE_BUILD: usize = 9;

/// The rows of `tail` that hold `v`, out of the key index of a persistent
/// column. `None` — scan — without an index, and unless `v` is of the
/// tail's own integer-like or string type: the index is by key word, and
/// only for those is equal value equal word (`-0.0 == 0.0`, and an `Int`
/// tail may be probed with a `Float`).
fn indexed_rows(tail: &Column, v: &Value) -> Option<Vec<u32>> {
    let ty = tail.logical_type();
    if v.logical_type() != Some(ty) || ty == LogicalType::Float {
        return None;
    }
    let index = tail.key_index(PROBES_BEFORE_BUILD)?;
    Some(match v {
        Value::Str(s) => index.rows_of_bytes(s.as_bytes()).collect(),
        _ => index.rows_of_word(key_word_of(v)?).collect(),
    })
}

/// Equality selection (`algebra.uselect`): tuples whose tail equals `v` —
/// [`select`] on the closed range `[v, v]`, view over a sorted tail and
/// all. Over a persistent column the rows come out of its key index
/// instead of a scan (strings are otherwise compared by length, then
/// bytes).
pub fn uselect(b: &Bat, v: &Value) -> Result<Bat> {
    if v.is_nil() {
        return Err(BatError::type_mismatch("uselect", "nil probe value"));
    }
    let tail = b.tail();
    let view = b.props().tail_sorted && !tail.has_nulls();
    match (!view).then(|| indexed_rows(tail, v)).flatten() {
        Some(rows) => Ok(selected(b, &rows)),
        None => select(b, &SelectBounds::closed(v.clone(), v.clone())),
    }
}

/// Drop tuples whose tail is NULL (`algebra.selectNotNil`).
pub fn select_not_nil(b: &Bat) -> Result<Bat> {
    if !b.tail().has_nulls() {
        // Cheap identity-like copy: share the columns, keep a new id.
        return Ok(b.slice(0, b.len()));
    }
    let mut sel = Bitmap::new(b.len(), true);
    clear_nulls(&mut sel, b.tail());
    let (head, tail) = gather_selected(b, &sel);
    Ok(Bat::new(
        head,
        tail,
        Props {
            tail_nonil: true,
            head_key: b.props().head_key,
            ..Props::default()
        },
    ))
}

/// [`select`] over `b`, read out of `pieces`: selections over `b` whose
/// ranges together cover `bounds` (combined subsumption). A piece's rows in
/// `bounds` are marked at their position in `b` — head OID minus `b`'s
/// base — and `b` is gathered at the marks as the scan gathers, so the
/// answer is [`select`]'s in tuples, order and `Props`. `None` where the
/// positions are unknown (a head that is not dense) or [`select`] answers
/// with a view (a sorted, NULL-free tail).
pub fn select_pieced(b: &Bat, pieces: &[&Bat], bounds: &SelectBounds) -> Option<Bat> {
    let TypedSlice::Dense { start, len } = b.head().typed() else {
        return None;
    };
    if b.props().tail_sorted && !b.tail().has_nulls() {
        return None;
    }
    let mut sel = Bitmap::new(len, false);
    if let Some(scan) = Scan::decode(b.tail().logical_type(), bounds) {
        for piece in pieces {
            let mut hit = scan.run(piece.tail());
            clear_nulls(&mut hit, piece.tail());
            for_each_u64_key(piece.head(), |row, oid| {
                if hit.get(row) {
                    sel.set((oid - start) as usize, true);
                }
            });
        }
    }
    Some(selected(b, &sel.ones()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::types::{Date, Oid};

    fn int_bat(vals: Vec<i64>) -> Bat {
        // force unsorted path unless actually sorted
        Bat::from_tail(Column::from_ints(vals))
    }

    #[test]
    fn range_select_unsorted() {
        let b = int_bat(vec![5, 1, 9, 3, 7]);
        let r = select(&b, &SelectBounds::closed(Value::Int(3), Value::Int(7))).unwrap();
        assert_eq!(
            r.canonical_tuples(),
            vec![
                (Value::Oid(Oid(0)), Value::Int(5)),
                (Value::Oid(Oid(3)), Value::Int(3)),
                (Value::Oid(Oid(4)), Value::Int(7)),
            ]
        );
    }

    #[test]
    fn range_select_sorted_returns_view() {
        let b = int_bat(vec![1, 3, 5, 7, 9]);
        assert!(b.props().tail_sorted);
        let r = select(&b, &SelectBounds::half_open(Value::Int(3), Value::Int(9))).unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.tail().is_view(), "sorted select must be zero-copy");
        assert_eq!(r.tuple(0), (Value::Oid(Oid(1)), Value::Int(3)));
        assert_eq!(r.tuple(2), (Value::Oid(Oid(3)), Value::Int(7)));
    }

    #[test]
    fn select_open_bounds() {
        let b = int_bat(vec![5, 1, 9]);
        let r = select(&b, &SelectBounds::closed(Value::Nil, Value::Int(5))).unwrap();
        assert_eq!(r.len(), 2);
        let r2 = select(&b, &SelectBounds::closed(Value::Int(5), Value::Nil)).unwrap();
        assert_eq!(r2.len(), 2);
        let all = select(&b, &SelectBounds::closed(Value::Nil, Value::Nil)).unwrap();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn select_exclusive_bounds() {
        let b = int_bat(vec![2, 4, 1, 3]); // unsorted
        let r = select(
            &b,
            &SelectBounds {
                lo: Value::Int(1),
                hi: Value::Int(4),
                lo_incl: false,
                hi_incl: false,
            },
        )
        .unwrap();
        let vals: Vec<Value> = r.tail().iter_values().collect();
        assert_eq!(vals, vec![Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn select_dates() {
        let d = |s: &str| Date::parse(s).unwrap().0;
        let b = Bat::from_tail(Column::from_dates(vec![
            d("1996-07-01"),
            d("1996-01-15"),
            d("1996-09-30"),
        ]));
        let r = select(
            &b,
            &SelectBounds::half_open(Value::date("1996-07-01"), Value::date("1996-10-01")),
        )
        .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn uselect_strings() {
        let b = Bat::from_tail(Column::from_strs(["R", "A", "N", "R"]));
        let r = uselect(&b, &Value::str("R")).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.head().iter_values().collect::<Vec<_>>(),
            vec![Value::Oid(Oid(0)), Value::Oid(Oid(3))]
        );
    }

    #[test]
    fn select_type_mismatch_is_empty() {
        let b = int_bat(vec![1, 2, 3]);
        let r = select(&b, &SelectBounds::closed(Value::str("a"), Value::str("z"))).unwrap();
        assert_eq!(r.len(), 0);
    }

    /// Every physical path selects the rows `contains` holds for: the scan
    /// over an unsorted tail, the view over a sorted one.
    fn on_every_path(tail: Column, bounds: &SelectBounds) -> Vec<Value> {
        let want: Vec<Value> = tail.iter_values().filter(|v| bounds.contains(v)).collect();
        let scanned = Bat::new(Column::dense(0, tail.len()), tail.clone(), Props::default());
        let got = select(&scanned, bounds).unwrap();
        assert_eq!(got.tail().iter_values().collect::<Vec<_>>(), want);
        if tail.is_sorted() && !tail.has_nulls() {
            let sorted = Bat::from_tail(tail);
            let got = select(&sorted, bounds).unwrap();
            assert!(got.tail().is_view());
            assert_eq!(got.tail().iter_values().collect::<Vec<_>>(), want);
        }
        want
    }

    fn range(lo: Value, lo_incl: bool, hi: Value, hi_incl: bool) -> SelectBounds {
        SelectBounds {
            lo,
            hi,
            lo_incl,
            hi_incl,
        }
    }

    #[test]
    fn nan_is_in_no_bounded_range() {
        use Value::{Float as F, Nil};
        let tail = || Column::from_floats(vec![1.0, f64::NAN, -1.0]);
        assert_eq!(
            on_every_path(tail(), &range(Nil, true, F(5.0), true)).len(),
            2
        );
        assert_eq!(
            on_every_path(tail(), &range(F(-5.0), false, Nil, true)).len(),
            2
        );
        assert_eq!(on_every_path(tail(), &range(Nil, true, Nil, true)).len(), 3);
        assert_eq!(
            on_every_path(tail(), &range(F(f64::NAN), true, Nil, true)).len(),
            0
        );
        // a lone NaN counts as sorted: the view path must leave it out too
        let lone = || Column::from_floats(vec![f64::NAN]);
        assert_eq!(
            on_every_path(lone(), &range(Nil, true, F(5.0), true)).len(),
            0
        );
        assert_eq!(
            on_every_path(lone(), &range(F(0.0), true, Nil, true)).len(),
            0
        );
    }

    #[test]
    fn zeros_are_one_point_and_exclusive_bounds_step_inward() {
        use Value::{Float as F, Nil};
        let tail = || Column::from_floats(vec![-1.0, -0.0, 0.0, 5e-324, f64::INFINITY]);
        assert_eq!(
            on_every_path(tail(), &range(F(0.0), true, F(-0.0), true)).len(),
            2
        );
        assert_eq!(
            on_every_path(tail(), &range(F(-0.0), false, Nil, true)).len(),
            2
        );
        assert_eq!(
            on_every_path(tail(), &range(Nil, true, F(0.0), false)).len(),
            1
        );
        assert_eq!(
            on_every_path(tail(), &range(F(f64::INFINITY), false, Nil, true)).len(),
            0
        );
        assert_eq!(
            on_every_path(tail(), &range(Nil, true, F(f64::INFINITY), false)).len(),
            4
        );
    }

    #[test]
    fn int_and_float_compare_numerically_on_every_path() {
        use Value::{Float as F, Int as I, Nil};
        let ints = || Column::from_ints(vec![-1, 2, 3, 7]);
        assert_eq!(
            on_every_path(ints(), &range(F(-0.5), true, F(2.5), true)),
            [I(2)]
        );
        assert_eq!(
            on_every_path(ints(), &range(I(2), false, F(7.0), true)),
            [I(3), I(7)]
        );
        assert_eq!(
            on_every_path(ints(), &range(F(f64::NAN), true, Nil, true)).len(),
            0
        );
        let floats = || Column::from_floats(vec![-1.0, 2.0, 2.5, 7.0]);
        assert_eq!(
            on_every_path(floats(), &range(I(2), true, I(7), false)).len(),
            2
        );
        // a bound that compares with nothing selects nothing
        assert_eq!(
            on_every_path(ints(), &range(Nil, true, Value::str("z"), true)).len(),
            0
        );
        assert_eq!(
            on_every_path(floats(), &range(Value::Bool(true), true, Nil, true)).len(),
            0
        );
    }

    #[test]
    fn exclusive_bounds_at_the_ends_of_the_domain() {
        use Value::{Int as I, Nil};
        let ends = || Column::from_ints(vec![i64::MIN, 0, i64::MAX]);
        assert_eq!(
            on_every_path(ends(), &range(I(i64::MAX), false, Nil, true)).len(),
            0
        );
        assert_eq!(
            on_every_path(ends(), &range(I(i64::MIN), false, Nil, true)).len(),
            2
        );
        assert_eq!(
            on_every_path(ends(), &range(Nil, true, I(i64::MIN), false)).len(),
            0
        );
        assert_eq!(
            on_every_path(ends(), &range(Nil, true, I(i64::MAX), false)).len(),
            2
        );
        assert_eq!(
            on_every_path(ends(), &range(I(i64::MIN), true, I(i64::MAX), true)).len(),
            3
        );
        let oids = || Column::from_oids(vec![0, 9, u64::MAX]);
        let o = |v| Value::Oid(Oid(v));
        assert_eq!(
            on_every_path(oids(), &range(Nil, true, o(0), false)).len(),
            0
        );
        assert_eq!(
            on_every_path(oids(), &range(o(u64::MAX), false, Nil, true)).len(),
            0
        );
        assert_eq!(
            on_every_path(oids(), &range(o(0), false, o(u64::MAX), false)),
            [o(9)]
        );
        let days = || Column::from_dates(vec![i32::MIN, -1, 0, i32::MAX]);
        let d = |v| Value::Date(Date(v));
        assert_eq!(
            on_every_path(days(), &range(d(i32::MAX), false, Nil, true)).len(),
            0
        );
        assert_eq!(
            on_every_path(days(), &range(Nil, true, d(i32::MIN), false)).len(),
            0
        );
        assert_eq!(
            on_every_path(days(), &range(d(i32::MIN), false, d(0), false)),
            [d(-1)]
        );
        assert_eq!(
            on_every_path(days(), &range(d(-1), true, Nil, true)).len(),
            3
        );
        // a dense tail is a column of OIDs like any other
        let dense = Bat::new(Column::dense(0, 9), Column::dense(4, 9), Props::default());
        let got = select(&dense, &range(o(6), false, o(9), true)).unwrap();
        assert_eq!(
            got.tail().iter_values().collect::<Vec<_>>(),
            [o(7), o(8), o(9)]
        );
        assert!(!got.tail().is_view());
    }

    #[test]
    fn not_nil_filters() {
        let mut cb = ColumnBuilder::new(crate::types::LogicalType::Int);
        cb.push(&Value::Int(1));
        cb.push(&Value::Nil);
        cb.push(&Value::Int(3));
        let b = Bat::from_tail(cb.finish());
        let r = select_not_nil(&b).unwrap();
        assert_eq!(r.len(), 2);
        assert!(!r.tail().has_nulls());
    }

    #[test]
    fn nulls_never_qualify_in_range() {
        let mut cb = ColumnBuilder::new(crate::types::LogicalType::Int);
        cb.push(&Value::Int(5));
        cb.push(&Value::Nil);
        let b = Bat::from_tail(cb.finish());
        let r = select(&b, &SelectBounds::closed(Value::Nil, Value::Nil)).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn bounds_subsumption() {
        let inner = SelectBounds::closed(Value::Int(4), Value::Int(8));
        let outer = SelectBounds::closed(Value::Int(3), Value::Int(15));
        assert!(inner.subsumed_by(&outer));
        assert!(!outer.subsumed_by(&inner));
        // equal bounds with compatible inclusivity
        let a = SelectBounds::half_open(Value::Int(3), Value::Int(15));
        assert!(a.subsumed_by(&outer));
        assert!(!outer.subsumed_by(&a)); // outer includes 15, a does not
                                         // unbounded outer subsumes everything
        let unb = SelectBounds::closed(Value::Nil, Value::Nil);
        assert!(outer.subsumed_by(&unb));
        assert!(!unb.subsumed_by(&outer));
    }

    #[test]
    fn bounds_overlap() {
        let a = SelectBounds::closed(Value::Int(3), Value::Int(7));
        let b = SelectBounds::closed(Value::Int(5), Value::Int(15));
        let c = SelectBounds::closed(Value::Int(8), Value::Int(9));
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        // touching endpoints
        let d = SelectBounds::closed(Value::Int(7), Value::Int(8));
        assert!(a.overlaps(&d));
        let e = SelectBounds::half_open(Value::Int(1), Value::Int(3));
        assert!(
            !e.overlaps(&a),
            "half-open upper does not touch 3-closed lower"
        );
    }
}
