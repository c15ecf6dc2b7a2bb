//! Column arithmetic and comparison (`batcalc.*`).

use std::borrow::Cow;

use crate::bat::Bat;
use crate::bitmap::Bitmap;
use crate::buffer::TypedSlice;
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::ops::{clear_nulls, string_keys};
use crate::props::Props;
use crate::types::{Date, LogicalType, Oid, Value};

/// Arithmetic operator for [`calc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CalcOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (always produces floats).
    Div,
}

/// Comparison operator for [`calc_cmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

/// Right operand of a calc: another BAT (positionally aligned) or a scalar.
#[derive(Debug, Clone)]
pub enum CalcRhs<'a> {
    /// Positionally aligned BAT operand.
    Bat(&'a Bat),
    /// Scalar broadcast operand.
    Scalar(Value),
}

/// A right operand of native type `T`: a column's slice, or a scalar
/// broadcast over the rows.
enum Src<'a, T> {
    Col(&'a [T]),
    Const(T),
}

/// Evaluate `$body` with `$it` bound to an iterator over a [`Src`]'s
/// values, one per row — once per kind of source, so that each loop built
/// on it is specialised.
macro_rules! over {
    ($src:expr, |$it:ident| $body:expr) => {
        match $src {
            Src::Col(s) => {
                let $it = s.iter().copied();
                $body
            }
            Src::Const(v) => {
                let $it = std::iter::repeat(v);
                $body
            }
        }
    };
}

impl CalcRhs<'_> {
    /// The operand's column, when it is one.
    fn column(&self) -> Option<&Column> {
        match self {
            CalcRhs::Bat(b) => Some(b.tail()),
            CalcRhs::Scalar(_) => None,
        }
    }
}

/// `fn $name(&self) -> Option<Src<$t>>`: the operand as a source of native
/// `$t`s, when it is a column or a scalar of that very type.
macro_rules! rhs_as {
    ($($name:ident: $t:ty = $slice:ident | $scalar:pat => $v:expr;)*) => {
        impl CalcRhs<'_> {$(
            fn $name(&self) -> Option<Src<'_, $t>> {
                match self {
                    CalcRhs::Bat(b) => match b.tail().typed() {
                        TypedSlice::$slice(s) => Some(Src::Col(s)),
                        _ => None,
                    },
                    CalcRhs::Scalar($scalar) => Some(Src::Const($v)),
                    CalcRhs::Scalar(_) => None,
                }
            }
        )*}
    };
}
rhs_as! {
    ints: i64 = Int | Value::Int(v) => *v;
    floats: f64 = Float | Value::Float(v) => *v;
    dates: i32 = Date | Value::Date(Date(v)) => *v;
    bools: bool = Bool | Value::Bool(v) => *v;
}

/// `f(x, y)` over the rows of two operands of one native type.
fn zip_same<T: Copy, R>(a: &[T], b: Src<'_, T>, f: impl Fn(T, T) -> R) -> Vec<R> {
    let a = a.iter().copied();
    over!(b, |b| a.zip(b).map(|(x, y)| f(x, y)).collect())
}

fn check_len(op: &'static str, l: &Bat, rhs: &CalcRhs<'_>) -> Result<()> {
    if let CalcRhs::Bat(r) = rhs {
        if l.len() != r.len() {
            return Err(BatError::LengthMismatch {
                op,
                left: l.len(),
                right: r.len(),
            });
        }
    }
    Ok(())
}

/// The rows where both operands are non-NULL: the two validity maps
/// merged a word at a time.
fn both_valid(l: &Column, rhs: &CalcRhs<'_>) -> Bitmap {
    let mut valid = Bitmap::new(l.len(), true);
    clear_nulls(&mut valid, l);
    if let Some(r) = rhs.column() {
        clear_nulls(&mut valid, r);
    }
    valid
}

/// The result BAT: `l`'s head beside `values`, NULL where `valid` is
/// clear — with the value under a NULL reset to `T::default()`, which is
/// what a column built value by value holds there.
fn finish<T: Copy + Default>(
    l: &Bat,
    mut values: Vec<T>,
    valid: Bitmap,
    column: impl Fn(Vec<T>) -> Column,
) -> Bat {
    if !valid.all_set() {
        let mut nulls = valid.clone();
        nulls.negate();
        for row in nulls.ones() {
            values[row as usize] = T::default();
        }
    }
    let tail = column(values).with_validity(valid);
    Bat::new(
        l.head().clone(),
        tail,
        Props {
            head_dense: l.props().head_dense,
            head_sorted: l.props().head_sorted,
            head_key: l.props().head_key,
            ..Props::default()
        },
    )
}

/// `f(x, y)` over the rows of two numeric operands, both widened to
/// `f64` — one typed loop per pair of operand types.
fn zip_f64<R>(
    l: TypedSlice<'_>,
    rhs: &CalcRhs<'_>,
    f: impl Fn(f64, f64) -> R + Copy,
) -> Option<Vec<R>> {
    fn rows<R>(
        a: impl Iterator<Item = f64> + Clone,
        rhs: &CalcRhs<'_>,
        f: impl Fn(f64, f64) -> R,
    ) -> Option<Vec<R>> {
        if let Some(b) = rhs.ints() {
            Some(over!(b, |b| a
                .zip(b)
                .map(|(x, y)| f(x, y as f64))
                .collect()))
        } else {
            let b = rhs.floats()?;
            Some(over!(b, |b| a.zip(b).map(|(x, y)| f(x, y)).collect()))
        }
    }
    match l {
        TypedSlice::Int(a) => rows(a.iter().map(|&x| x as f64), rhs, f),
        TypedSlice::Float(a) => rows(a.iter().copied(), rhs, f),
        _ => None,
    }
}

/// Element-wise arithmetic over the tails: `l.tail[i] op rhs[i]`, head is
/// `l`'s head. Any NULL operand yields NULL. Integer ops stay integer
/// (except `Div`); any float operand promotes to float. The arithmetic is
/// done in `f64` whatever the operand types, and `x / 0` is `NaN`.
///
/// Dispatches once on `(lhs type, rhs type, op)` and loops over the typed
/// slices; a non-numeric or NULL-scalar operand makes every row NULL.
pub fn calc(l: &Bat, rhs: &CalcRhs<'_>, op: CalcOp) -> Result<Bat> {
    check_len("calc", l, rhs)?;
    let rhs_ty = match rhs {
        CalcRhs::Bat(b) => b.tail_type(),
        // a NULL scalar operand NULLs every row (SQL semantics)
        CalcRhs::Scalar(Value::Nil) => LogicalType::Float,
        CalcRhs::Scalar(v) => v
            .logical_type()
            .ok_or_else(|| BatError::type_mismatch("calc", "non-scalar rhs"))?,
    };
    let float_out =
        op == CalcOp::Div || l.tail_type() == LogicalType::Float || rhs_ty == LogicalType::Float;
    fn apply<R>(
        l: TypedSlice<'_>,
        rhs: &CalcRhs<'_>,
        op: CalcOp,
        out: impl Fn(f64) -> R + Copy,
    ) -> Option<Vec<R>> {
        match op {
            CalcOp::Add => zip_f64(l, rhs, |x, y| out(x + y)),
            CalcOp::Sub => zip_f64(l, rhs, |x, y| out(x - y)),
            CalcOp::Mul => zip_f64(l, rhs, |x, y| out(x * y)),
            CalcOp::Div => zip_f64(l, rhs, |x, y| out(if y == 0.0 { f64::NAN } else { x / y })),
        }
    }
    let (n, tail) = (l.len(), l.tail());
    let nothing = || Bitmap::new(n, false);
    Ok(if float_out {
        match apply(tail.typed(), rhs, op, |r| r) {
            Some(values) => finish(l, values, both_valid(tail, rhs), Column::from_floats),
            None => finish(l, vec![0.0; n], nothing(), Column::from_floats),
        }
    } else {
        match apply(tail.typed(), rhs, op, |r| r as i64) {
            Some(values) => finish(l, values, both_valid(tail, rhs), Column::from_ints),
            None => finish(l, vec![0; n], nothing(), Column::from_ints),
        }
    })
}

/// The comparison operators as generic functions: named by [`by_op`], each
/// use is instantiated — and inlined — at the operand type of its loop.
mod cmp {
    pub fn eq<T: PartialOrd>(x: T, y: T) -> bool {
        x == y
    }
    pub fn ne<T: PartialOrd>(x: T, y: T) -> bool {
        x != y
    }
    pub fn lt<T: PartialOrd>(x: T, y: T) -> bool {
        x < y
    }
    pub fn le<T: PartialOrd>(x: T, y: T) -> bool {
        x <= y
    }
    pub fn gt<T: PartialOrd>(x: T, y: T) -> bool {
        x > y
    }
    pub fn ge<T: PartialOrd>(x: T, y: T) -> bool {
        x >= y
    }
}

/// Evaluate `$body` with `$cmp` naming the function of [`cmp`] that `$op`
/// selects — the dispatch on the operator, hoisted out of every loop.
macro_rules! by_op {
    ($op:expr, |$cmp:ident| $body:expr) => {
        match $op {
            CmpOp::Eq => {
                use cmp::eq as $cmp;
                $body
            }
            CmpOp::Ne => {
                use cmp::ne as $cmp;
                $body
            }
            CmpOp::Lt => {
                use cmp::lt as $cmp;
                $body
            }
            CmpOp::Le => {
                use cmp::le as $cmp;
                $body
            }
            CmpOp::Gt => {
                use cmp::gt as $cmp;
                $body
            }
            CmpOp::Ge => {
                use cmp::ge as $cmp;
                $body
            }
        }
    };
}

/// The OIDs of an OID column, dense or not.
fn oids(c: &Column) -> Option<Cow<'_, [u64]>> {
    match c.typed() {
        TypedSlice::Dense { start, len } => Some((start..start + len as u64).collect()),
        TypedSlice::Oid(s) => Some(Cow::Borrowed(s)),
        _ => None,
    }
}

/// Element-wise comparison producing a boolean tail — the substrate for
/// column-vs-column predicates (`where l_commitdate < l_receiptdate`).
/// Operands compare when [`Value::cmp_same`] says they do (same type, or
/// `Int` with `Float`); NULL operands, operands that do not compare and
/// `NaN` yield NULL.
///
/// Dispatches once on `(lhs type, rhs type, op)` and loops over the typed
/// slices.
pub fn calc_cmp(l: &Bat, rhs: &CalcRhs<'_>, op: CmpOp) -> Result<Bat> {
    check_len("calc_cmp", l, rhs)?;
    let tail = l.tail();
    let hits: Option<Vec<bool>> = by_op!(op, |cmp| match (tail.typed(), rhs) {
        (TypedSlice::Int(a), _) if rhs.ints().is_some() => {
            rhs.ints().map(|b| zip_same(a, b, cmp))
        }
        (TypedSlice::Int(_) | TypedSlice::Float(_), _) => zip_f64(tail.typed(), rhs, cmp),
        (TypedSlice::Date(a), _) => rhs.dates().map(|b| zip_same(a, b, cmp)),
        (TypedSlice::Bool(a), _) => rhs.bools().map(|b| zip_same(a, b, cmp)),
        (TypedSlice::Oid(_) | TypedSlice::Dense { .. }, CalcRhs::Bat(r)) => {
            oids(tail)
                .zip(oids(r.tail()))
                .map(|(a, b)| zip_same(&a, Src::Col(&b), cmp))
        }
        (TypedSlice::Oid(_) | TypedSlice::Dense { .. }, CalcRhs::Scalar(v)) => {
            oids(tail)
                .zip(v.as_oid())
                .map(|(a, Oid(b))| zip_same(&a, Src::Const(b), cmp))
        }
        (TypedSlice::Str { .. }, CalcRhs::Bat(r)) => string_keys(tail)
            .zip(string_keys(r.tail()))
            .map(|(a, b)| a.zip(b).map(|(x, y)| cmp(x, y)).collect()),
        (TypedSlice::Str { .. }, CalcRhs::Scalar(v)) => string_keys(tail)
            .zip(v.as_str())
            .map(|(a, b)| a.map(|x| cmp(x, b.as_bytes())).collect()),
    });
    let Some(hits) = hits else {
        return Ok(finish(
            l,
            vec![false; tail.len()],
            Bitmap::new(tail.len(), false),
            Column::from_bools,
        ));
    };
    // NaN compares with nothing: NULL, like an operand that is NULL
    let mut valid = both_valid(tail, rhs);
    let not_nan = |s: &[f64]| Bitmap::from_slice(s, |x| !x.is_nan());
    if let TypedSlice::Float(a) = tail.typed() {
        valid.and_range(&not_nan(a), 0);
    }
    match rhs.floats() {
        Some(Src::Col(b)) => valid.and_range(&not_nan(b), 0),
        Some(Src::Const(b)) if b.is_nan() => valid = Bitmap::new(tail.len(), false),
        _ => {}
    }
    Ok(finish(l, hits, valid, Column::from_bools))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;

    #[test]
    fn arithmetic_scalar() {
        let b = Bat::from_tail(Column::from_floats(vec![1.0, 0.9]));
        // the TPC-H revenue idiom: extendedprice * (1 - discount)
        let one_minus = calc(&b, &CalcRhs::Scalar(Value::Float(1.0)), CalcOp::Sub).unwrap();
        let neg = calc(
            &one_minus,
            &CalcRhs::Scalar(Value::Float(-1.0)),
            CalcOp::Mul,
        )
        .unwrap();
        assert!(neg.tail().value(0).as_float().unwrap().abs() < 1e-12);
        assert!((neg.tail().value(1).as_float().unwrap() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_bat_bat() {
        let a = Bat::from_tail(Column::from_ints(vec![10, 20]));
        let b = Bat::from_tail(Column::from_ints(vec![3, 4]));
        let s = calc(&a, &CalcRhs::Bat(&b), CalcOp::Mul).unwrap();
        assert_eq!(
            s.tail().iter_values().collect::<Vec<_>>(),
            vec![Value::Int(30), Value::Int(80)]
        );
        assert_eq!(s.head().value(0), Value::Oid(Oid(0)));
    }

    #[test]
    fn div_promotes_to_float() {
        let a = Bat::from_tail(Column::from_ints(vec![7]));
        let r = calc(&a, &CalcRhs::Scalar(Value::Int(2)), CalcOp::Div).unwrap();
        assert_eq!(r.tail().value(0), Value::Float(3.5));
    }

    #[test]
    fn cmp_column_column() {
        let commit = Bat::from_tail(Column::from_dates(vec![10, 20]));
        let receipt = Bat::from_tail(Column::from_dates(vec![15, 15]));
        let lt = calc_cmp(&commit, &CalcRhs::Bat(&receipt), CmpOp::Lt).unwrap();
        assert_eq!(
            lt.tail().iter_values().collect::<Vec<_>>(),
            vec![Value::Bool(true), Value::Bool(false)]
        );
    }

    #[test]
    fn cmp_all_ops() {
        let a = Bat::from_tail(Column::from_ints(vec![1, 2, 3]));
        let two = CalcRhs::Scalar(Value::Int(2));
        let expect = |op, exp: [bool; 3]| {
            let r = calc_cmp(&a, &two, op).unwrap();
            let got: Vec<Value> = r.tail().iter_values().collect();
            let want: Vec<Value> = exp.iter().map(|&b| Value::Bool(b)).collect();
            assert_eq!(got, want, "{op:?}");
        };
        expect(CmpOp::Eq, [false, true, false]);
        expect(CmpOp::Ne, [true, false, true]);
        expect(CmpOp::Lt, [true, false, false]);
        expect(CmpOp::Le, [true, true, false]);
        expect(CmpOp::Gt, [false, false, true]);
        expect(CmpOp::Ge, [false, true, true]);
    }

    #[test]
    fn null_propagates() {
        let mut cb = ColumnBuilder::new(LogicalType::Int);
        cb.push(&Value::Int(1));
        cb.push(&Value::Nil);
        let a = Bat::from_tail(cb.finish());
        let r = calc(&a, &CalcRhs::Scalar(Value::Int(1)), CalcOp::Add).unwrap();
        assert_eq!(r.tail().value(0), Value::Int(2));
        assert!(r.tail().value(1).is_nil());
        let c = calc_cmp(&a, &CalcRhs::Scalar(Value::Int(1)), CmpOp::Eq).unwrap();
        assert!(c.tail().value(1).is_nil());
    }

    #[test]
    fn length_mismatch_errors() {
        let a = Bat::from_tail(Column::from_ints(vec![1]));
        let b = Bat::from_tail(Column::from_ints(vec![1, 2]));
        assert!(calc(&a, &CalcRhs::Bat(&b), CalcOp::Add).is_err());
    }
}
