//! Scalar (whole-BAT) aggregates.

use crate::bat::Bat;
use crate::error::{BatError, Result};
use crate::ops::for_each_u64_key;
use crate::types::{LogicalType, Value};

/// Aggregate function selector — shared with grouped aggregation.
pub use crate::ops::group::GrpFunc as AggrFunc;

/// Compute a scalar aggregate over the tail of `b`. NULLs are ignored;
/// `Count` counts non-NULL tuples (MAL `aggr.count` over a not-nil column).
pub fn aggr(b: &Bat, func: AggrFunc) -> Result<Value> {
    let tail = b.tail();
    match func {
        AggrFunc::Count => {
            let n = if tail.has_nulls() {
                (0..tail.len()).filter(|&i| tail.is_valid(i)).count()
            } else {
                tail.len()
            };
            Ok(Value::Int(n as i64))
        }
        // integers add up exactly, in `i64`, or not at all
        AggrFunc::Sum if tail.logical_type() == LogicalType::Int => {
            let mut sum = Some(0i64);
            let mut any = false;
            for_each_u64_key(tail, |_, word| {
                sum = sum.and_then(|s| s.checked_add(word as i64));
                any = true;
            });
            match sum {
                Some(sum) if any => Ok(Value::Int(sum)),
                Some(_) => Ok(Value::Nil),
                None => Err(BatError::Overflow { op: "aggr.sum" }),
            }
        }
        AggrFunc::Sum => {
            let mut sum = 0f64;
            let mut any = false;
            for i in 0..tail.len() {
                if let Some(x) = tail.value(i).as_float() {
                    sum += x;
                    any = true;
                }
            }
            Ok(if any { Value::Float(sum) } else { Value::Nil })
        }
        AggrFunc::Avg => {
            let mut sum = 0f64;
            let mut n = 0usize;
            for i in 0..tail.len() {
                if let Some(x) = tail.value(i).as_float() {
                    sum += x;
                    n += 1;
                }
            }
            if n == 0 {
                Ok(Value::Nil)
            } else {
                Ok(Value::Float(sum / n as f64))
            }
        }
        AggrFunc::Min | AggrFunc::Max => {
            let mut best = Value::Nil;
            for i in 0..tail.len() {
                let v = tail.value(i);
                if v.is_nil() {
                    continue;
                }
                let replace = match best.cmp_same(&v) {
                    None => true,
                    Some(ord) => {
                        (func == AggrFunc::Min && ord == std::cmp::Ordering::Greater)
                            || (func == AggrFunc::Max && ord == std::cmp::Ordering::Less)
                    }
                };
                if replace {
                    best = v;
                }
            }
            Ok(best)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, ColumnBuilder};

    #[test]
    fn count_sum_minmax_avg() {
        let b = Bat::from_tail(Column::from_ints(vec![3, 1, 4, 1, 5]));
        assert_eq!(aggr(&b, AggrFunc::Count).unwrap(), Value::Int(5));
        assert_eq!(aggr(&b, AggrFunc::Sum).unwrap(), Value::Int(14));
        assert_eq!(aggr(&b, AggrFunc::Min).unwrap(), Value::Int(1));
        assert_eq!(aggr(&b, AggrFunc::Max).unwrap(), Value::Int(5));
        assert_eq!(aggr(&b, AggrFunc::Avg).unwrap(), Value::Float(2.8));
    }

    #[test]
    fn float_sum_stays_float() {
        let b = Bat::from_tail(Column::from_floats(vec![1.5, 2.5]));
        assert_eq!(aggr(&b, AggrFunc::Sum).unwrap(), Value::Float(4.0));
    }

    #[test]
    fn nulls_skipped() {
        let mut cb = ColumnBuilder::new(LogicalType::Int);
        cb.push(&Value::Int(10));
        cb.push(&Value::Nil);
        let b = Bat::from_tail(cb.finish());
        assert_eq!(aggr(&b, AggrFunc::Count).unwrap(), Value::Int(1));
        assert_eq!(aggr(&b, AggrFunc::Sum).unwrap(), Value::Int(10));
    }

    #[test]
    fn int_sums_are_exact_or_an_error() {
        let sum = |v: Vec<i64>| aggr(&Bat::from_tail(Column::from_ints(v)), AggrFunc::Sum);
        // one more than an f64 can count to
        let big = (1i64 << 53) + 1;
        assert_eq!(sum(vec![1 << 53, 1]).unwrap(), Value::Int(big));
        assert_eq!(sum(vec![big, -big, big]).unwrap(), Value::Int(big));
        assert_eq!(sum(vec![i64::MAX, -1, 1]).unwrap(), Value::Int(i64::MAX));
        let overflow = BatError::Overflow { op: "aggr.sum" };
        assert_eq!(sum(vec![i64::MAX, 1]).unwrap_err(), overflow);
        assert_eq!(sum(vec![i64::MIN, -1, 5]).unwrap_err(), overflow);
        // NULLs are skipped, whatever lies under them; all NULL is NULL
        let mut cb = ColumnBuilder::new(LogicalType::Int);
        for v in [Value::Nil, Value::Int(big), Value::Nil, Value::Int(1)] {
            cb.push(&v);
        }
        let holes = Bat::from_tail(cb.finish());
        assert_eq!(aggr(&holes, AggrFunc::Sum).unwrap(), Value::Int(big + 1));
        let under = Column::from_ints(vec![i64::MAX, i64::MAX])
            .with_validity(crate::Bitmap::from_bools(&[false, false]));
        assert_eq!(
            aggr(&Bat::from_tail(under), AggrFunc::Sum).unwrap(),
            Value::Nil
        );
    }

    #[test]
    fn empty_aggregates() {
        let b = Bat::from_tail(Column::from_ints(vec![]));
        assert_eq!(aggr(&b, AggrFunc::Count).unwrap(), Value::Int(0));
        assert_eq!(aggr(&b, AggrFunc::Sum).unwrap(), Value::Nil);
        assert_eq!(aggr(&b, AggrFunc::Min).unwrap(), Value::Nil);
        assert_eq!(aggr(&b, AggrFunc::Avg).unwrap(), Value::Nil);
    }

    #[test]
    fn string_minmax() {
        let b = Bat::from_tail(Column::from_strs(["pear", "apple", "quince"]));
        assert_eq!(aggr(&b, AggrFunc::Min).unwrap(), Value::str("apple"));
        assert_eq!(aggr(&b, AggrFunc::Max).unwrap(), Value::str("quince"));
    }
}
