//! Duplicate elimination on the head (`bat.kunique`).

use crate::bat::Bat;
use crate::error::Result;
use crate::hash::FxHashSet;
use crate::ops::{for_each_u64_key, string_keys};
use crate::props::Props;

/// Keep the first tuple for each distinct *head* value — the MAL idiom for
/// `COUNT(DISTINCT x)` is `reverse` (value becomes head), `kunique`,
/// `reverse`, `count`.
pub fn kunique(b: &Bat) -> Result<Bat> {
    let head = b.head();
    let mut idx: Vec<u32> = Vec::new();
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    let fixed_width = for_each_u64_key(head, |i, k| {
        if seen.insert(k) {
            idx.push(i as u32);
        }
    });
    if !fixed_width {
        let strings = string_keys(head).expect("fixed-width or string");
        let mut seen: FxHashSet<&[u8]> = FxHashSet::default();
        idx.extend(
            (0u32..)
                .zip(strings)
                .filter(|&(i, key)| head.is_valid(i as usize) && seen.insert(key))
                .map(|(i, _)| i),
        );
    }
    // NULL is one more distinct value: its first row, in row order
    if head.has_nulls() {
        let null = (0..head.len() as u32).find(|&i| !head.is_valid(i as usize));
        let null = null.expect("a NULL was counted");
        idx.insert(idx.partition_point(|&i| i < null), null);
    }
    Ok(Bat::new(
        b.head().gather(&idx),
        b.tail().gather(&idx),
        Props {
            head_key: true,
            tail_nonil: b.props().tail_nonil,
            ..Props::default()
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::types::{Oid, Value};

    #[test]
    fn dedup_by_head() {
        let b = Bat::new(
            Column::from_oids(vec![5, 5, 7, 5]),
            Column::from_ints(vec![1, 2, 3, 4]),
            Props::default(),
        );
        let u = kunique(&b).unwrap();
        assert_eq!(
            u.canonical_tuples(),
            vec![
                (Value::Oid(Oid(5)), Value::Int(1)),
                (Value::Oid(Oid(7)), Value::Int(3)),
            ]
        );
        assert!(u.props().head_key);
    }

    #[test]
    fn string_heads() {
        let b = Bat::new(
            Column::from_strs(["a", "b", "a"]),
            Column::from_ints(vec![1, 2, 3]),
            Props::default(),
        );
        let u = kunique(&b).unwrap();
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn count_distinct_idiom() {
        // distinct count over tail values: reverse → kunique → count
        let b = Bat::from_tail(Column::from_ints(vec![10, 20, 10, 30, 20]));
        let u = kunique(&b.reverse()).unwrap();
        assert_eq!(u.len(), 3);
    }
}
