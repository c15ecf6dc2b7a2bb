//! Property-based tests of the relational algebra's core invariants.

use proptest::prelude::*;
use rbat::ops::{self, GrpFunc, SelectBounds};
use rbat::{Bat, Column, Props, Value};

fn int_bat(vals: Vec<i64>) -> Bat {
    Bat::from_tail(Column::from_ints(vals))
}

proptest! {
    /// select(b, lo, hi) returns exactly the tuples whose tail is in range,
    /// regardless of the sorted-view fast path.
    #[test]
    fn select_matches_filter(vals in prop::collection::vec(-100i64..100, 0..200),
                             a in -120i64..120, b in -120i64..120) {
        let (lo, hi) = (a.min(b), a.max(b));
        let bat = int_bat(vals.clone());
        let bounds = SelectBounds::closed(Value::Int(lo), Value::Int(hi));
        let got = ops::select(&bat, &bounds).unwrap();
        let expect = vals.iter().filter(|&&v| v >= lo && v <= hi).count();
        prop_assert_eq!(got.len(), expect);
        for i in 0..got.len() {
            let v = got.tail().value(i).as_int().unwrap();
            prop_assert!(v >= lo && v <= hi);
        }
    }

    /// Sorted and unsorted selects agree (the zero-copy view fast path is
    /// semantically invisible).
    #[test]
    fn sorted_select_equals_unsorted(mut vals in prop::collection::vec(-50i64..50, 1..120),
                                     a in -60i64..60, b in -60i64..60) {
        let (lo, hi) = (a.min(b), a.max(b));
        let bounds = SelectBounds::half_open(Value::Int(lo), Value::Int(hi));
        let unsorted = int_bat(vals.clone());
        let from_unsorted = ops::select(&unsorted, &bounds).unwrap();
        vals.sort_unstable();
        let sorted = int_bat(vals);
        let from_sorted = ops::select(&sorted, &bounds).unwrap();
        // same multiset of tail values (heads differ: rows moved)
        let mut t1: Vec<i64> = (0..from_unsorted.len())
            .map(|i| from_unsorted.tail().value(i).as_int().unwrap()).collect();
        let mut t2: Vec<i64> = (0..from_sorted.len())
            .map(|i| from_sorted.tail().value(i).as_int().unwrap()).collect();
        t1.sort_unstable();
        t2.sort_unstable();
        prop_assert_eq!(t1, t2);
    }

    /// semijoin and diff partition the left input.
    #[test]
    fn semijoin_diff_partition(l_heads in prop::collection::vec(0u64..40, 0..80),
                               r_heads in prop::collection::vec(0u64..40, 0..80)) {
        let n = l_heads.len();
        let l = Bat::new(
            Column::from_oids(l_heads),
            Column::from_ints((0..n as i64).collect()),
            Props::default(),
        );
        let r = Bat::new(
            Column::from_oids(r_heads.clone()),
            Column::from_ints(vec![0; r_heads.len()]),
            Props::default(),
        );
        let s = ops::semijoin(&l, &r).unwrap();
        let d = ops::diff(&l, &r).unwrap();
        prop_assert_eq!(s.len() + d.len(), l.len());
        // every semijoin head is in r, every diff head is not
        let rset: std::collections::HashSet<u64> =
            (0..r.len()).map(|i| r.head().value(i).as_oid().unwrap().0).collect();
        for i in 0..s.len() {
            prop_assert!(rset.contains(&s.head().value(i).as_oid().unwrap().0));
        }
        for i in 0..d.len() {
            prop_assert!(!rset.contains(&d.head().value(i).as_oid().unwrap().0));
        }
    }

    /// join result size equals the sum over l-keys of their multiplicity
    /// in r's head.
    #[test]
    fn join_cardinality(l_keys in prop::collection::vec(0u64..30, 0..60),
                        r_keys in prop::collection::vec(0u64..30, 0..60)) {
        let l = Bat::new(
            Column::dense(0, l_keys.len()),
            Column::from_oids(l_keys.clone()),
            Props { head_dense: true, ..Props::default() },
        );
        let r = Bat::new(
            Column::from_oids(r_keys.clone()),
            Column::from_ints((0..r_keys.len() as i64).collect()),
            Props::default(),
        );
        let j = ops::join(&l, &r).unwrap();
        let mut counts = std::collections::HashMap::new();
        for k in &r_keys {
            *counts.entry(*k).or_insert(0usize) += 1;
        }
        let expect: usize = l_keys.iter().map(|k| counts.get(k).copied().unwrap_or(0)).sum();
        prop_assert_eq!(j.len(), expect);
    }

    /// group ids are dense and grp counts sum to the input size.
    #[test]
    fn group_counts_partition(vals in prop::collection::vec(0i64..12, 1..120)) {
        let b = int_bat(vals.clone());
        let g = ops::group(&b).unwrap();
        let n = ops::num_groups(&g);
        prop_assert!(n >= 1 && n <= vals.len());
        let counts = ops::grp_aggr(&b, &g, GrpFunc::Count).unwrap();
        let total: i64 = (0..counts.len())
            .map(|i| counts.tail().value(i).as_int().unwrap())
            .sum();
        prop_assert_eq!(total as usize, vals.len());
    }

    /// reverse ∘ reverse and sort preserve the tuple multiset.
    #[test]
    fn views_and_sort_preserve_tuples(vals in prop::collection::vec(-1000i64..1000, 0..150)) {
        let b = int_bat(vals);
        let rr = b.reverse().reverse();
        prop_assert_eq!(b.canonical_tuples(), rr.canonical_tuples());
        let sorted = ops::sort(&b, true).unwrap();
        prop_assert_eq!(b.canonical_tuples(), sorted.canonical_tuples());
        prop_assert!(sorted.tail().is_sorted());
    }

    /// kunique keeps exactly one tuple per distinct head.
    #[test]
    fn kunique_distinct(heads in prop::collection::vec(0u64..25, 0..100)) {
        let n = heads.len();
        let b = Bat::new(
            Column::from_oids(heads.clone()),
            Column::from_ints((0..n as i64).collect()),
            Props::default(),
        );
        let u = ops::kunique(&b).unwrap();
        let distinct: std::collections::HashSet<u64> = heads.into_iter().collect();
        prop_assert_eq!(u.len(), distinct.len());
    }
}
