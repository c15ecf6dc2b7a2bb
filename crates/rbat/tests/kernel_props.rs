//! Differential property test of the typed operator kernels.
//!
//! Every operator that runs as a typed loop over slices — `select`,
//! `uselect`, `select_not_nil`, `semijoin`, `diff`, `join` (whole, and as
//! `join_build` + `join_probe`), `calc`, `calc_cmp`, `kunique`, `group` —
//! against an oracle kept in this file that does the same thing one boxed
//! `Value` at a time and builds its answer through `ColumnBuilder`: the
//! loops the kernels replaced, reduced to the obvious.
//!
//! Inputs are random columns of every type with NULLs, taken as views at
//! non-zero offsets half the time; heads that are dense, sorted and unique,
//! sorted with repeats, unsorted with repeats, or scattered over a wide
//! range; keys that repeat and keys that are missing from the other side;
//! empty inputs; `NaN`, `-0.0` and `0.0` (keys are equal when their bits
//! are) beside floats from a domain wide enough that few repeat;
//! multi-byte strings. A kernel must agree with the oracle in the
//! tuples and their order, the logical types, the `Props`, whether the
//! result is a view, and `resident_bytes()` — the recycler above charges
//! and keys on all of these.
//!
//! Which algorithm a kernel runs is read off its inputs; the shapes below
//! are made so that each choice is reached, and `algorithms_are_reached`
//! pins that down: for joins on the `Debug` form of the build side, for
//! semijoins by construction (the unit tests in `ops/join.rs` pin the
//! rule).
//!
//! One of the things a kernel reads is whether a column is *persistent* —
//! has an accelerator slot, and through it a key index of its buffer. The
//! semijoin / diff, select and join properties therefore run every case a
//! second time with the left (or selected, or build) column as the catalog
//! would hold it, and require the same `Bat` as without a slot, from the
//! probe that builds the index and from the ones that find it; `topn` is
//! held to `sort` then `slice`, and `sort` to the oracle's order.
//! `select_pieced`, which reads a range select out of selections that
//! cover it, is held to `select` itself.

// The oracles key sets and maps by `Value`, which hashes and compares a BAT
// by its id: the accelerator slot inside one is no part of the key.
#![allow(clippy::mutable_key_type)]

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use rbat::ops::{self, CalcOp, CalcRhs, CmpOp, SelectBounds};
use rbat::{Bat, Bitmap, Column, ColumnBuilder, Date, LogicalType, Oid, Props, Value};

/// A small deterministic generator (splitmix64): the proptest shim draws
/// one seed per case and everything else follows from it.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())].clone()
    }
}

const TYPES: [LogicalType; 6] = [
    LogicalType::Oid,
    LogicalType::Int,
    LogicalType::Float,
    LogicalType::Date,
    LogicalType::Str,
    LogicalType::Bool,
];

const FLOATS: [f64; 10] = [
    0.0,
    -0.0,
    f64::NAN,
    1.5,
    -2.25,
    3.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e-300,
    7.0,
];

const STRINGS: [&str; 9] = ["", "a", "ab", "b", "é", "日本", "日本語", "zz", "a\u{0}"];

/// One value of type `ty` from a domain small enough that values repeat.
fn value(rng: &mut Rng, ty: LogicalType) -> Value {
    match ty {
        LogicalType::Oid => Value::Oid(Oid(rng.below(24) as u64)),
        LogicalType::Int => match rng.below(20) {
            0 => Value::Int(i64::MIN),
            1 => Value::Int(i64::MAX),
            _ => Value::Int(rng.below(16) as i64 - 4),
        },
        LogicalType::Float => match rng.below(4) {
            // a wide domain too: mostly distinct values, few ties
            0 => Value::Float((rng.below(4_001) as f64 - 2_000.0) / 2.0),
            _ => Value::Float(rng.pick(&FLOATS)),
        },
        LogicalType::Date => Value::Date(Date(rng.below(24) as i32 - 6)),
        LogicalType::Str => Value::str(rng.pick(&STRINGS)),
        LogicalType::Bool => Value::Bool(rng.chance(50)),
    }
}

/// `values` (with `Nil` for NULL) as a column — as a view into a longer
/// buffer, at a non-zero offset, half the time.
fn column_of(rng: &mut Rng, ty: LogicalType, values: &[Value]) -> Column {
    let (before, after) = if rng.chance(50) {
        (1 + rng.below(70), rng.below(70))
    } else {
        (0, 0)
    };
    let mut cb = ColumnBuilder::new(ty);
    for _ in 0..before {
        cb.push(&if rng.chance(20) {
            Value::Nil
        } else {
            value(rng, ty)
        });
    }
    for v in values {
        cb.push(v);
    }
    for _ in 0..after {
        cb.push(&value(rng, ty));
    }
    let whole = cb.finish();
    if before + after == 0 {
        whole
    } else {
        whole.slice(before, values.len())
    }
}

/// A random column of `n` values of type `ty`, NULLs in it half the time.
fn column(rng: &mut Rng, ty: LogicalType, n: usize) -> Column {
    let nulls = if rng.chance(50) { 25 } else { 0 };
    let values: Vec<Value> = (0..n)
        .map(|_| {
            if rng.chance(nulls) {
                Value::Nil
            } else {
                value(rng, ty)
            }
        })
        .collect();
    column_of(rng, ty, &values)
}

/// The ways a head column can be laid out.
#[derive(Debug, Clone, Copy, PartialEq)]
enum HeadKind {
    /// A dense OID run: positional semijoin, fetch join.
    Dense,
    /// Strictly increasing OIDs in a narrow range: bitmap, direct table.
    SortedKey,
    /// Non-decreasing OIDs with repeats.
    SortedRepeats,
    /// OIDs in no order, with repeats: CSR build.
    Unsorted,
    /// OIDs scattered over a range far wider than the input: hash.
    Scattered,
    /// A column of any other type (NULLs and all): typed key words, hash
    /// for floats and strings.
    Typed(LogicalType),
}

const HEAD_KINDS: [HeadKind; 10] = [
    HeadKind::Dense,
    HeadKind::SortedKey,
    HeadKind::SortedRepeats,
    HeadKind::Unsorted,
    HeadKind::Scattered,
    HeadKind::Typed(LogicalType::Int),
    HeadKind::Typed(LogicalType::Float),
    HeadKind::Typed(LogicalType::Date),
    HeadKind::Typed(LogicalType::Str),
    HeadKind::Typed(LogicalType::Bool),
];

/// A head of `n` rows and the properties that truthfully describe it.
fn head(rng: &mut Rng, kind: HeadKind, n: usize) -> (Column, Props) {
    let oids = |rng: &mut Rng, v: Vec<u64>| {
        let values: Vec<Value> = v.into_iter().map(|o| Value::Oid(Oid(o))).collect();
        column_of(rng, LogicalType::Oid, &values)
    };
    let mut props = Props::default();
    let column = match kind {
        HeadKind::Dense => {
            props.head_dense = true;
            props.head_sorted = true;
            props.head_key = true;
            Column::dense(rng.below(12) as u64, n)
        }
        HeadKind::SortedKey => {
            props.head_sorted = true;
            props.head_key = true;
            let mut next = rng.below(6) as u64;
            let v = (0..n)
                .map(|_| {
                    next += 1 + rng.below(3) as u64;
                    next
                })
                .collect();
            oids(rng, v)
        }
        HeadKind::SortedRepeats => {
            props.head_sorted = true;
            let mut v: Vec<u64> = (0..n).map(|_| rng.below(16) as u64).collect();
            v.sort_unstable();
            oids(rng, v)
        }
        HeadKind::Unsorted => {
            let v = (0..n).map(|_| rng.below(24) as u64).collect();
            oids(rng, v)
        }
        HeadKind::Scattered => {
            let v = (0..n)
                .map(|_| rng.below(24) as u64 * 1_000_003 + (rng.next() >> 60 << 40))
                .collect();
            oids(rng, v)
        }
        HeadKind::Typed(ty) => column(rng, ty, n),
    };
    (column, props)
}

/// A BAT of `n` tuples: a head of the given kind beside a random tail,
/// with truthful properties.
fn bat(rng: &mut Rng, kind: HeadKind, tail_ty: LogicalType, n: usize) -> Bat {
    let (head, mut props) = head(rng, kind, n);
    let tail = column(rng, tail_ty, n);
    props.tail_nonil = !tail.has_nulls();
    Bat::new(head, tail, props)
}

fn size(rng: &mut Rng) -> usize {
    match rng.below(10) {
        0 => 0,
        1 => 1,
        2 => 64 + rng.below(3), // a word of the selection bitmap, or just over
        _ => rng.below(140),
    }
}

/// An operand for a range select, its head of the given kind: a dense
/// tail (what `mirror` and `mark_t` make), scanned or, when it says it is
/// sorted, cut as a view; a sorted, NULL-free tail (the view path); or a
/// random tail — and a window of it a third of the time.
fn select_operand(rng: &mut Rng, kind: HeadKind, ty: LogicalType) -> Bat {
    let n = size(rng);
    let b = match rng.below(8) {
        0 => {
            let (head, mut props) = head(rng, kind, n);
            props.tail_sorted = rng.chance(50);
            props.tail_nonil = true;
            Bat::new(head, Column::dense(rng.below(9) as u64, n), props)
        }
        1 | 2 => {
            let mut values: Vec<Value> = (0..n).map(|_| value(rng, ty)).collect();
            values.sort_by(|a, b| a.partial_cmp_total(b));
            let tail = column_of(rng, ty, &values);
            let (head, mut props) = head(rng, kind, n);
            // NaN sorts nowhere: claim order only when it is there
            props.tail_sorted = tail.is_sorted();
            props.tail_nonil = true;
            Bat::new(head, tail, props)
        }
        _ => bat(rng, kind, ty, n),
    };
    if rng.chance(30) && n > 2 {
        let from = rng.below(n / 2);
        return b.slice(from, n - from - rng.below(n / 2));
    }
    b
}

/// `column` as the catalog holds a column: an owned, whole buffer with an
/// accelerator slot (none for a dense run, which needs no index).
fn persistent(column: &Column) -> Column {
    column.to_owned_column().persistent()
}

/// Has the key index of a persistent column been built?
fn indexed(column: &Column) -> bool {
    column.accelerator().is_some_and(|slot| slot.is_built())
}

/// Build the key index of a persistent column now, the way a join does:
/// by being the build side of one.
fn build_index(column: &Column) {
    let build = Bat::new(
        column.clone(),
        Column::dense(0, column.len()),
        Props::default(),
    );
    let probe = Bat::from_tail(column.slice(0, 0));
    ops::join(&probe, &build).unwrap();
    assert!(indexed(column) || column.accelerator().is_none());
}

// ---- the oracle ---------------------------------------------------------

/// The tuples at `rows` of `(head, tail)`, pushed value by value.
fn pushed(
    head: &Column,
    head_rows: &[usize],
    tail: &Column,
    tail_rows: &[usize],
) -> (Column, Column) {
    let mut hb = ColumnBuilder::new(head.logical_type());
    let mut tb = ColumnBuilder::new(tail.logical_type());
    for &i in head_rows {
        hb.push(&head.value(i));
    }
    for &j in tail_rows {
        tb.push(&tail.value(j));
    }
    (hb.finish(), tb.finish())
}

/// `select`, one `contains` at a time. The one thing kept from the
/// physical design is *that* a sorted, NULL-free tail answers with a view.
fn oracle_select(b: &Bat, bounds: &SelectBounds) -> Bat {
    let rows: Vec<usize> = (0..b.len())
        .filter(|&i| bounds.contains(&b.tail().value(i)))
        .collect();
    if b.props().tail_sorted && !b.tail().has_nulls() {
        let from = rows.first().copied().unwrap_or(0);
        assert!(rows.iter().copied().eq(from..from + rows.len()));
        return b.slice(from, rows.len());
    }
    let (head, tail) = pushed(b.head(), &rows, b.tail(), &rows);
    Bat::new(
        head,
        tail,
        Props {
            head_dense: false,
            head_sorted: b.props().head_dense || b.props().head_sorted,
            head_key: b.props().head_key,
            tail_sorted: false,
            tail_nonil: true,
        },
    )
}

fn oracle_select_not_nil(b: &Bat) -> Bat {
    if !b.tail().has_nulls() {
        return b.slice(0, b.len());
    }
    let rows: Vec<usize> = (0..b.len()).filter(|&i| b.tail().is_valid(i)).collect();
    let (head, tail) = pushed(b.head(), &rows, b.tail(), &rows);
    Bat::new(
        head,
        tail,
        Props {
            tail_nonil: true,
            head_key: b.props().head_key,
            ..Props::default()
        },
    )
}

/// `semijoin` / `diff`: a set of the right heads as `Value`s (equal when
/// their bits are), one lookup per left row; NULL heads never qualify.
fn oracle_filter_by_head(l: &Bat, r: &Bat, keep_members: bool) -> Bat {
    let set: HashSet<Value> = r.head().iter_values().filter(|v| !v.is_nil()).collect();
    let rows: Vec<usize> = (0..l.len())
        .filter(|&i| {
            let h = l.head().value(i);
            !h.is_nil() && set.contains(&h) == keep_members
        })
        .collect();
    let (head, tail) = pushed(l.head(), &rows, l.tail(), &rows);
    Bat::new(
        head,
        tail,
        Props {
            head_sorted: l.props().head_dense || l.props().head_sorted,
            head_key: l.props().head_key,
            tail_nonil: l.props().tail_nonil,
            ..Props::default()
        },
    )
}

/// `join`: a map from right head `Value` to its rows, one lookup per left
/// row; pairs ordered by left row, then right row; NULL keys match nothing.
fn oracle_join(l: &Bat, r: &Bat) -> Bat {
    let mut table: HashMap<Value, Vec<usize>> = HashMap::new();
    for (j, key) in r.head().iter_values().enumerate() {
        if !key.is_nil() {
            table.entry(key).or_default().push(j);
        }
    }
    let (mut li, mut ri) = (Vec::new(), Vec::new());
    for (i, key) in l.tail().iter_values().enumerate() {
        for &j in table.get(&key).into_iter().flatten() {
            li.push(i);
            ri.push(j);
        }
    }
    let (head, tail) = pushed(l.head(), &li, r.tail(), &ri);
    Bat::new(
        head,
        tail,
        Props {
            head_sorted: l.props().head_dense || l.props().head_sorted,
            ..Props::default()
        },
    )
}

fn calc_props(l: &Bat) -> Props {
    Props {
        head_dense: l.props().head_dense,
        head_sorted: l.props().head_sorted,
        head_key: l.props().head_key,
        ..Props::default()
    }
}

fn rhs_value(rhs: &CalcRhs<'_>, i: usize) -> Value {
    match rhs {
        CalcRhs::Bat(b) => b.tail().value(i),
        CalcRhs::Scalar(v) => v.clone(),
    }
}

/// `calc` as it was: a `Value` per operand per row.
fn oracle_calc(l: &Bat, rhs: &CalcRhs<'_>, op: CalcOp) -> Bat {
    let rhs_ty = match rhs {
        CalcRhs::Bat(b) => b.tail_type(),
        CalcRhs::Scalar(Value::Nil) => LogicalType::Float,
        CalcRhs::Scalar(v) => v.logical_type().expect("a scalar"),
    };
    let float_out =
        op == CalcOp::Div || l.tail_type() == LogicalType::Float || rhs_ty == LogicalType::Float;
    let mut cb = ColumnBuilder::new(if float_out {
        LogicalType::Float
    } else {
        LogicalType::Int
    });
    for i in 0..l.len() {
        let v = match (l.tail().value(i).as_float(), rhs_value(rhs, i).as_float()) {
            (Some(x), Some(y)) => {
                let r = match op {
                    CalcOp::Add => x + y,
                    CalcOp::Sub => x - y,
                    CalcOp::Mul => x * y,
                    CalcOp::Div if y == 0.0 => f64::NAN,
                    CalcOp::Div => x / y,
                };
                if float_out {
                    Value::Float(r)
                } else {
                    Value::Int(r as i64)
                }
            }
            _ => Value::Nil,
        };
        cb.push(&v);
    }
    Bat::new(l.head().clone(), cb.finish(), calc_props(l))
}

/// `calc_cmp` as it was: `cmp_same` per row.
fn oracle_calc_cmp(l: &Bat, rhs: &CalcRhs<'_>, op: CmpOp) -> Bat {
    use std::cmp::Ordering::*;
    let mut cb = ColumnBuilder::new(LogicalType::Bool);
    for i in 0..l.len() {
        let v = match l.tail().value(i).cmp_same(&rhs_value(rhs, i)) {
            Some(ord) => Value::Bool(match op {
                CmpOp::Eq => ord == Equal,
                CmpOp::Ne => ord != Equal,
                CmpOp::Lt => ord == Less,
                CmpOp::Le => ord != Greater,
                CmpOp::Gt => ord == Greater,
                CmpOp::Ge => ord != Less,
            }),
            None => Value::Nil,
        };
        cb.push(&v);
    }
    Bat::new(l.head().clone(), cb.finish(), calc_props(l))
}

/// `kunique`: the first row of every distinct head `Value`, NULL being one.
fn oracle_kunique(b: &Bat) -> Bat {
    let mut seen: HashSet<Value> = HashSet::new();
    let rows: Vec<usize> = (0..b.len())
        .filter(|&i| seen.insert(b.head().value(i)))
        .collect();
    let (head, tail) = pushed(b.head(), &rows, b.tail(), &rows);
    Bat::new(
        head,
        tail,
        Props {
            head_key: true,
            tail_nonil: b.props().tail_nonil,
            ..Props::default()
        },
    )
}

/// `group`: ids in order of first appearance; the NULLs share one group,
/// numbered after all the others.
fn oracle_group(b: &Bat) -> Bat {
    let mut ids: HashMap<Value, u64> = HashMap::new();
    let gids: Vec<Option<u64>> = b
        .tail()
        .iter_values()
        .map(|v| {
            let next = ids.len() as u64;
            (!v.is_nil()).then(|| *ids.entry(v).or_insert(next))
        })
        .collect();
    let null_gid = ids.len() as u64;
    let tail = Column::from_oids(gids.iter().map(|g| g.unwrap_or(null_gid)).collect());
    Bat::new(
        b.head().clone(),
        tail,
        Props {
            head_dense: b.props().head_dense,
            head_sorted: b.props().head_sorted,
            head_key: b.props().head_key,
            tail_nonil: true,
            ..Props::default()
        },
    )
}

/// `sort`: rows by tail value — NULLs first, floats by total order — ties
/// in row order, all of it backwards when descending; one `Value`
/// comparison at a time.
fn oracle_sort(b: &Bat, ascending: bool) -> Bat {
    let key = |i: usize| b.tail().value(i);
    let mut rows: Vec<usize> = (0..b.len()).collect();
    rows.sort_by(|&i, &j| {
        let ord = match (key(i), key(j)) {
            (Value::Nil, Value::Nil) => std::cmp::Ordering::Equal,
            (Value::Nil, _) => std::cmp::Ordering::Less,
            (_, Value::Nil) => std::cmp::Ordering::Greater,
            (Value::Float(x), Value::Float(y)) => x.total_cmp(&y),
            (x, y) => x.cmp_same(&y).expect("values of one type"),
        };
        if ascending {
            ord
        } else {
            ord.reverse()
        }
    });
    let (head, tail) = pushed(b.head(), &rows, b.tail(), &rows);
    Bat::new(
        head,
        tail,
        Props {
            tail_sorted: ascending,
            tail_nonil: b.props().tail_nonil,
            head_key: b.props().head_key,
            ..Props::default()
        },
    )
}

// ---- comparison ---------------------------------------------------------

fn same_column(what: &str, got: &Column, want: &Column) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.logical_type(), want.logical_type(), "{} type", what);
    prop_assert_eq!(
        got.iter_values().collect::<Vec<_>>(),
        want.iter_values().collect::<Vec<_>>(),
        "{} values",
        what
    );
    prop_assert_eq!(got.is_view(), want.is_view(), "{} is a view", what);
    prop_assert_eq!(
        got.resident_bytes(),
        want.resident_bytes(),
        "{} resident bytes",
        what
    );
    Ok(())
}

/// Everything the layers above can see of a result, but its fresh id.
fn same_bat(got: &Bat, want: &Bat) -> Result<(), TestCaseError> {
    same_column("head", got.head(), want.head())?;
    same_column("tail", got.tail(), want.tail())?;
    prop_assert_eq!(got.props(), want.props(), "props");
    prop_assert_eq!(got.resident_bytes(), want.resident_bytes());
    Ok(())
}

/// Random bounds for a `ty` column: each side unbounded, a value of the
/// column's type (or, for numbers, of the other numeric type), or a value
/// of a type that does not compare; either side exclusive.
fn bounds(rng: &mut Rng, ty: LogicalType) -> SelectBounds {
    let side = |rng: &mut Rng| match rng.below(10) {
        0 | 1 => Value::Nil,
        2 if ty == LogicalType::Int => Value::Float(rng.pick(&FLOATS)),
        2 if ty == LogicalType::Float => Value::Int(rng.below(8) as i64 - 2),
        3 => {
            let other = rng.pick(&TYPES);
            value(rng, other)
        }
        _ => value(rng, ty),
    };
    SelectBounds {
        lo: side(rng),
        hi: side(rng),
        lo_incl: rng.chance(60),
        hi_incl: rng.chance(60),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// `select` ≡ the rows `bounds.contains` holds for, on the scan path,
    /// the sorted-view path and over a dense tail.
    #[test]
    fn select_agrees_with_contains(seed in 0u64..u64::MAX) {
        let rng = &mut Rng(seed);
        let (ty, kind) = (rng.pick(&TYPES), rng.pick(&HEAD_KINDS));
        let b = select_operand(rng, kind, ty);
        let bounds = bounds(rng, b.tail_type());
        same_bat(&ops::select(&b, &bounds).unwrap(), &oracle_select(&b, &bounds))?;
        // uselect is the closed point range
        let probe = value(rng, b.tail_type());
        let point = SelectBounds::closed(probe.clone(), probe.clone());
        same_bat(&ops::uselect(&b, &probe).unwrap(), &oracle_select(&b, &point))?;
        same_bat(&ops::select_not_nil(&b).unwrap(), &oracle_select_not_nil(&b))?;

        // the same over a persistent tail: scanned while the index is not
        // there, read out of it once it is (floats keep the scan: `-0.0`
        // and `0.0` are one value and two words), and never through a
        // sub-window, which has no slot
        let held = Bat::new(b.head().clone(), persistent(b.tail()), b.props());
        for _ in 0..2 {
            same_bat(&ops::uselect(&held, &probe).unwrap(), &oracle_select(&held, &point))?;
            same_bat(&ops::select(&held, &bounds).unwrap(), &oracle_select(&held, &bounds))?;
            if let Some(v) = held.tail().iter_values().find(|v| !v.is_nil()) {
                let point = SelectBounds::closed(v.clone(), v.clone());
                same_bat(&ops::uselect(&held, &v).unwrap(), &oracle_select(&held, &point))?;
            }
            if held.len() > 2 {
                let window = held.slice(1, held.len() - 2);
                prop_assert!(window.tail().accelerator().is_none());
                same_bat(&ops::uselect(&window, &probe).unwrap(), &oracle_select(&window, &point))?;
            }
            build_index(held.tail());
        }
    }

    /// `select_pieced` ≡ `select`, read out of pieces that are selections
    /// over the operand covering the bounds — split at a value of the
    /// tail's type, each side widened outward or not, in any order, beside
    /// selections that cover nothing — in tuples, order and `Props`; and
    /// `None` over a head that is not dense or a sorted, NULL-free tail.
    #[test]
    fn a_pieced_select_is_the_select(seed in 0u64..u64::MAX) {
        let rng = &mut Rng(seed);
        let ty = rng.pick(&TYPES);
        let kind = if rng.chance(70) { HeadKind::Dense } else { rng.pick(&HEAD_KINDS) };
        let b = select_operand(rng, kind, ty);
        let ty = b.tail_type();
        // the pieces split the bounds at a cut that compares with every
        // value of the tail; bounds unbounded on both sides hold NaN,
        // which neither side of a cut holds, so they get an upper end
        let cut = match value(rng, ty) {
            Value::Float(f) if f.is_nan() => Value::Float(0.0),
            v => v,
        };
        let extra: Vec<SelectBounds> = (0..rng.below(3)).map(|_| bounds(rng, ty)).collect();
        let mut bounds = bounds(rng, ty);
        if bounds.lo.is_nil() && bounds.hi.is_nil() {
            bounds.hi = cut.clone();
        }
        let wide = |rng: &mut Rng, v: &Value| if rng.chance(30) { Value::Nil } else { v.clone() };
        let mut ranges = vec![
            SelectBounds {
                lo: wide(rng, &bounds.lo),
                hi: cut.clone(),
                lo_incl: bounds.lo_incl || rng.chance(30),
                hi_incl: true,
            },
            SelectBounds {
                lo: cut,
                hi: wide(rng, &bounds.hi),
                lo_incl: true,
                hi_incl: bounds.hi_incl || rng.chance(30),
            },
        ];
        ranges.extend(extra);
        for i in (1..ranges.len()).rev() {
            ranges.swap(i, rng.below(i + 1));
        }
        let pieces: Vec<Bat> = ranges.iter().map(|r| ops::select(&b, r).unwrap()).collect();
        let pieces: Vec<&Bat> = pieces.iter().collect();
        let got = ops::select_pieced(&b, &pieces, &bounds);
        let view = b.props().tail_sorted && !b.tail().has_nulls();
        match got {
            Some(got) => {
                prop_assert!(kind == HeadKind::Dense && !view);
                same_bat(&got, &ops::select(&b, &bounds).unwrap())?;
            }
            None => prop_assert!(kind != HeadKind::Dense || view),
        }
    }

    /// `semijoin` and `diff` over every pairing of head layouts of one
    /// type: positional (dense left head), bitmap (narrow integer-like
    /// right keys), hash (scattered keys, floats), strings.
    #[test]
    fn semijoin_and_diff_agree(seed in 0u64..u64::MAX) {
        let rng = &mut Rng(seed);
        let lk = rng.pick(&HEAD_KINDS);
        let rk = match lk {
            HeadKind::Typed(ty) => HeadKind::Typed(ty),
            _ => rng.pick(&HEAD_KINDS[..5]),
        };
        let (ln, rn) = (size(rng), size(rng));
        let (lt, rt) = (rng.pick(&TYPES), rng.pick(&TYPES));
        let l = bat(rng, lk, lt, ln);
        let r = bat(rng, rk, rt, rn);
        same_bat(&ops::semijoin(&l, &r).unwrap(), &oracle_filter_by_head(&l, &r, true))?;
        same_bat(&ops::diff(&l, &r).unwrap(), &oracle_filter_by_head(&l, &r, false))?;

        // the same with the left head persistent: against all of `r`
        // (scanned, unless `r` happens to be selective), then against few
        // enough of its rows that the key index is built and read
        let held = Bat::new(persistent(l.head()), l.tail().clone(), l.props());
        let few = r.slice(0, rn.min(ln / 8));
        for r in [&r, &few, &r] {
            same_bat(&ops::semijoin(&held, r).unwrap(), &oracle_filter_by_head(&l, r, true))?;
            same_bat(&ops::diff(&held, r).unwrap(), &oracle_filter_by_head(&l, r, false))?;
        }
        prop_assert_eq!(indexed(held.head()), lk != HeadKind::Dense);
    }

    /// `join`, cold and through a detached build side: fetch join (dense
    /// build head), direct table and hash table, each with unique and with
    /// repeating build keys, strings; NULLs on either side match nothing.
    #[test]
    fn join_agrees(seed in 0u64..u64::MAX) {
        let rng = &mut Rng(seed);
        let rk = rng.pick(&HEAD_KINDS);
        let key_ty = match rk {
            HeadKind::Typed(ty) => ty,
            _ => LogicalType::Oid,
        };
        let (ln, rn) = (size(rng), size(rng));
        let rt = rng.pick(&TYPES);
        let r = bat(rng, rk, rt, rn);
        // probe keys: of the key type, or (sometimes) the build keys
        // themselves in another order, so that most rows hit
        let lk = rng.pick(&HEAD_KINDS);
        let (lhead, mut props) = head(rng, lk, ln);
        let ltail = if rng.chance(40) && rn > 0 {
            let values: Vec<Value> = (0..ln).map(|_| r.head().value(rng.below(rn))).collect();
            column_of(rng, key_ty, &values)
        } else if rk == HeadKind::Scattered {
            head(rng, rk, ln).0
        } else {
            column(rng, key_ty, ln)
        };
        props.tail_nonil = !ltail.has_nulls();
        let l = Bat::new(lhead, ltail, props);
        let want = oracle_join(&l, &r);
        same_bat(&ops::join(&l, &r).unwrap(), &want)?;
        let build = ops::join_build(&r).unwrap();
        same_bat(&ops::join_probe(&l, &r, &build).unwrap(), &want)?;

        // the same with the build head persistent: the first join builds
        // the key index, the second finds it
        let held = Bat::new(persistent(r.head()), r.tail().clone(), r.props());
        for _ in 0..2 {
            same_bat(&ops::join(&l, &held).unwrap(), &want)?;
            prop_assert_eq!(indexed(held.head()), rk != HeadKind::Dense);
        }
    }

    /// `calc` and `calc_cmp` over every pairing of operand types, column
    /// and scalar right operands, the NULL scalar, `x / 0` and `NaN`.
    #[test]
    fn calc_agrees(seed in 0u64..u64::MAX) {
        let rng = &mut Rng(seed);
        let n = size(rng);
        let numeric = [LogicalType::Int, LogicalType::Float];
        let (lt, rt) = if rng.chance(70) {
            (rng.pick(&numeric), rng.pick(&numeric))
        } else {
            (rng.pick(&TYPES), rng.pick(&TYPES))
        };
        let kind = rng.pick(&HEAD_KINDS);
        let mut l = bat(rng, kind, lt, n);
        if rng.chance(10) {
            l = l.mark_t(rng.below(5) as u64); // a dense operand
        }
        let other = bat(rng, HeadKind::Dense, rt, n);
        let scalar = if rng.chance(10) { Value::Nil } else { value(rng, rt) };
        for rhs in [CalcRhs::Bat(&other), CalcRhs::Scalar(scalar)] {
            for op in [CalcOp::Add, CalcOp::Sub, CalcOp::Mul, CalcOp::Div] {
                same_bat(&ops::calc(&l, &rhs, op).unwrap(), &oracle_calc(&l, &rhs, op))?;
            }
            for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                same_bat(&ops::calc_cmp(&l, &rhs, op).unwrap(), &oracle_calc_cmp(&l, &rhs, op))?;
            }
        }
    }

    /// `sort` against the oracle's order, and `topn` ≡ `sort` then `slice`:
    /// ties (earlier row first, both directions), NULLs, `n` of nothing,
    /// one, some, all and more than all.
    #[test]
    fn sort_and_topn_agree(seed in 0u64..u64::MAX) {
        let rng = &mut Rng(seed);
        let n = size(rng);
        let (kind, ty) = (rng.pick(&HEAD_KINDS), rng.pick(&TYPES));
        let mut b = bat(rng, kind, ty, n);
        if rng.chance(10) {
            b = b.mark_t(rng.below(5) as u64); // a dense tail
        }
        for ascending in [true, false] {
            let sorted = ops::sort(&b, ascending).unwrap();
            same_bat(&sorted, &oracle_sort(&b, ascending))?;
            for keep in [0, 1, rng.below(n + 1), n, n + 1 + rng.below(3)] {
                let want = sorted.slice(0, keep.min(n));
                same_bat(&ops::topn(&b, keep, ascending).unwrap(), &want)?;
            }
        }
    }

    /// `kunique` and `group`, whose key access moved onto the typed slice.
    #[test]
    fn kunique_and_group_agree(seed in 0u64..u64::MAX) {
        let rng = &mut Rng(seed);
        let n = size(rng);
        let (kind, ty) = (rng.pick(&HEAD_KINDS), rng.pick(&TYPES));
        let b = bat(rng, kind, ty, n);
        same_bat(&ops::kunique(&b).unwrap(), &oracle_kunique(&b))?;
        let g = ops::group(&b).unwrap();
        same_bat(&g, &oracle_group(&b))?;
        let groups = g.tail().iter_values().collect::<HashSet<_>>().len();
        prop_assert_eq!(ops::num_groups(&g), groups);
    }
}

/// A total order on the values of one type for sorting test input: the
/// type's own order, NaN last.
trait TotalOrder {
    fn partial_cmp_total(&self, other: &Self) -> std::cmp::Ordering;
}

impl TotalOrder for Value {
    fn partial_cmp_total(&self, other: &Value) -> std::cmp::Ordering {
        let nan = |v: &Value| matches!(v, Value::Float(x) if x.is_nan());
        nan(self)
            .cmp(&nan(other))
            .then_with(|| self.cmp_same(other).unwrap_or(std::cmp::Ordering::Equal))
    }
}

fn oid_bat(head: Vec<u64>, tail: Vec<i64>) -> Bat {
    Bat::new(
        Column::from_oids(head),
        Column::from_ints(tail),
        Props::default(),
    )
}

/// Every algorithm the selection table of `rbat::ops` names is reached by
/// an input of the shape the table names for it, and answers as the
/// oracle does.
#[test]
fn algorithms_are_reached() {
    let shape = |r: &Bat| {
        let build = format!("{:?}", ops::join_build(r).unwrap());
        let slots = ["Dense", "Direct", "Hash", "Str"]
            .into_iter()
            .find(|kind| build.contains(&format!("slots: {kind}")))
            .expect("a kind of slots");
        (slots, build.contains("matches: Csr"))
    };
    let probe = Bat::from_tail(Column::from_oids(vec![7, 3, 3, 99, 0]));
    let check = |r: &Bat, want: (&str, bool)| {
        assert_eq!(shape(r), want);
        same_bat(&ops::join(&probe, r).unwrap(), &oracle_join(&probe, r)).unwrap();
    };
    // fetch join: a dense build head
    check(
        &Bat::from_tail(Column::from_ints((0..9).collect())),
        ("Dense", false),
    );
    // keys in a narrow range, unique / repeating: direct table, row / CSR
    check(
        &oid_bat(vec![7, 3, 9, 0], vec![1, 2, 3, 4]),
        ("Direct", false),
    );
    check(
        &oid_bat(vec![7, 3, 7, 0, 3, 3], vec![1, 2, 3, 4, 5, 6]),
        ("Direct", true),
    );
    // keys far apart: hash table, row / CSR
    check(
        &oid_bat(vec![7, 3 << 40, 3], vec![1, 2, 3]),
        ("Hash", false),
    );
    check(
        &oid_bat(vec![7, 3 << 40, 3, 7], vec![1, 2, 3, 4]),
        ("Hash", true),
    );
    // a NULL build row is in no group, and does not shift the rows after it
    let holes = Column::from_oids(vec![3, 5, 7, 9])
        .with_validity(Bitmap::from_bools(&[true, false, true, true]));
    check(
        &Bat::new(holes, Column::from_ints(vec![1, 2, 3, 4]), Props::default()),
        ("Direct", true),
    );
    // strings
    let names = Bat::new(
        Column::from_strs(["é", "a", "é"]),
        Column::from_ints(vec![1, 2, 3]),
        Props::default(),
    );
    assert_eq!(shape(&names), ("Str", true));
    let named = Bat::from_tail(Column::from_strs(["a", "e\u{301}", "é"]));
    same_bat(
        &ops::join(&named, &names).unwrap(),
        &oracle_join(&named, &names),
    )
    .unwrap();

    // semijoin: positional (dense left head), bitmap (narrow right keys),
    // hash (right keys 2^40 apart: 2^34 words of bitmap for 7 rows)
    let dense = Bat::from_tail(Column::from_ints((0..70).collect()));
    let sparse = oid_bat(vec![5, 64, 69, 5, 700], vec![0; 5]);
    let narrow = oid_bat((0..70).rev().collect(), (0..70).collect());
    let far = oid_bat(vec![5, 3 << 40], vec![0; 2]);
    for (l, r) in [
        (&dense, &sparse),
        (&narrow, &sparse),
        (&narrow, &far),
        (&far, &narrow),
    ] {
        same_bat(
            &ops::semijoin(l, r).unwrap(),
            &oracle_filter_by_head(l, r, true),
        )
        .unwrap();
        same_bat(
            &ops::diff(l, r).unwrap(),
            &oracle_filter_by_head(l, r, false),
        )
        .unwrap();
    }

    // indexed: a persistent left head against at most an eighth as many
    // rows; one row more and the head is scanned, and no index is built
    let held = |b: &Bat| Bat::new(persistent(b.head()), b.tail().clone(), b.props());
    let eighth = oid_bat(vec![5, 64, 69, 5, 700, 1, 2, 3], vec![0; 8]);
    let ninth = oid_bat(vec![5, 64, 69, 5, 700, 1, 2, 3, 4], vec![0; 9]);
    let narrow_64 = narrow.slice(0, 64);
    for (r, builds) in [(&ninth, false), (&eighth, true), (&ninth, true)] {
        let l = held(&narrow_64);
        if builds {
            ops::semijoin(&l, &eighth).unwrap();
        }
        same_bat(
            &ops::semijoin(&l, r).unwrap(),
            &oracle_filter_by_head(&l, r, true),
        )
        .unwrap();
        same_bat(
            &ops::diff(&l, r).unwrap(),
            &oracle_filter_by_head(&l, r, false),
        )
        .unwrap();
        assert_eq!(indexed(l.head()), builds);
        assert_eq!(l.head().accelerator().unwrap().builds(), builds as usize);
    }

    // who has a slot: a persistent column and what shares its whole buffer
    // — clones, `reverse`, `mirror` — and nothing that was computed
    let column = persistent(&Column::from_ints((0..70).collect()));
    let base = Bat::from_tail(column.clone());
    assert!(base.tail().accelerator().is_some());
    assert!(base.reverse().head().accelerator().is_some());
    assert!(base.reverse().mirror().tail().accelerator().is_some());
    assert!(base.clone().tail().accelerator().is_some());
    assert!(base.head().accelerator().is_none(), "a dense run has none");
    assert!(column.slice(0, 70).accelerator().is_none());
    assert!(column.slice(3, 9).accelerator().is_none());
    assert!(base.slice(0, 70).tail().accelerator().is_none());
    let every_row: Vec<u32> = (0..70).collect();
    assert!(column.gather(&every_row).accelerator().is_none());
    assert!(column.materialize().accelerator().is_none());
    assert!(column.concat(&column).accelerator().is_none());
    assert!(column
        .clone()
        .with_validity(Bitmap::new(70, true))
        .accelerator()
        .is_none());
    assert!(persistent(&column.slice(3, 9)).accelerator().is_some());
    assert!(Column::dense(0, 9).persistent().accelerator().is_none());
    assert!(column.slice(3, 9).persistent().accelerator().is_none());
    let selected = ops::uselect(&base, &Value::Int(7)).unwrap();
    assert!(selected.tail().accelerator().is_none());
    // all of them one slot: built through one, built for all
    build_index(base.reverse().head());
    assert!(indexed(&column));
    // an equality select comes for the index nine times before it builds it
    let fresh = Bat::new(
        Column::dense(0, 70),
        persistent(&Column::from_ints((0..70).rev().collect())),
        Props::default(),
    );
    for probe in 1..=9 {
        assert_eq!(ops::uselect(&fresh, &Value::Int(3)).unwrap().len(), 1);
        assert_eq!(indexed(fresh.tail()), probe == 9, "probe {probe}");
    }
}

/// The one definition of a range select, at the edges where the physical
/// paths used to differ.
#[test]
fn range_select_edges() {
    let scan = |tail: Column, bounds: &SelectBounds| {
        // an unsorted head-less copy keeps `from_tail` from claiming order
        let b = Bat::new(Column::dense(0, tail.len()), tail, Props::default());
        let got = ops::select(&b, bounds).unwrap();
        same_bat(&got, &oracle_select(&b, bounds)).unwrap();
        got.tail().iter_values().collect::<Vec<_>>()
    };
    let floats = || Column::from_floats(vec![f64::NAN, -0.0, 0.0, 1.0, f64::INFINITY]);
    let f = Value::Float;
    // NaN is in no bounded range, and in the unbounded one
    assert_eq!(
        scan(floats(), &SelectBounds::closed(Value::Nil, f(5.0))).len(),
        3
    );
    assert_eq!(
        scan(floats(), &SelectBounds::closed(f(-5.0), Value::Nil)).len(),
        4
    );
    assert_eq!(
        scan(floats(), &SelectBounds::closed(Value::Nil, Value::Nil)).len(),
        5
    );
    assert_eq!(
        scan(floats(), &SelectBounds::closed(f(f64::NAN), Value::Nil)).len(),
        0
    );
    // the zeros are one point
    assert_eq!(
        scan(floats(), &SelectBounds::closed(f(0.0), f(0.0))).len(),
        2
    );
    assert_eq!(
        scan(floats(), &SelectBounds::closed(f(-0.0), f(-0.0))).len(),
        2
    );
    let open_zero = SelectBounds {
        lo: f(-0.0),
        hi: Value::Nil,
        lo_incl: false,
        hi_incl: true,
    };
    assert_eq!(scan(floats(), &open_zero), vec![f(1.0), f(f64::INFINITY)]);
    // an Int column compares numerically with a Float bound, on every path
    let ints = || Column::from_ints(vec![3, -1, 2, 7]);
    let halves = SelectBounds::closed(f(-0.5), f(2.5));
    assert_eq!(scan(ints(), &halves), vec![Value::Int(2)]);
    let sorted = Bat::from_tail(Column::from_ints(vec![-1, 2, 3, 7]));
    assert!(sorted.props().tail_sorted);
    same_bat(
        &ops::select(&sorted, &halves).unwrap(),
        &oracle_select(&sorted, &halves),
    )
    .unwrap();
    assert_eq!(ops::select(&sorted, &halves).unwrap().len(), 1);
    // a bound that compares with nothing selects nothing, sorted or not
    let words = SelectBounds::closed(Value::Nil, Value::str("z"));
    assert_eq!(scan(ints(), &words).len(), 0);
    assert_eq!(ops::select(&sorted, &words).unwrap().len(), 0);
    // exclusive bounds at the ends of the domain
    let ends = || Column::from_ints(vec![i64::MIN, 0, i64::MAX]);
    let above = |lo| SelectBounds {
        lo: Value::Int(lo),
        hi: Value::Nil,
        lo_incl: false,
        hi_incl: true,
    };
    let below = |hi| SelectBounds {
        lo: Value::Nil,
        hi: Value::Int(hi),
        lo_incl: true,
        hi_incl: false,
    };
    assert_eq!(scan(ends(), &above(i64::MAX)).len(), 0);
    assert_eq!(scan(ends(), &above(i64::MIN)).len(), 2);
    assert_eq!(scan(ends(), &below(i64::MIN)).len(), 0);
    assert_eq!(scan(ends(), &below(i64::MAX)).len(), 2);
}
