//! Binary Association Tables — the unit of storage and exchange.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::column::Column;
use crate::props::Props;
use crate::types::{LogicalType, Value};

static NEXT_BAT_ID: AtomicU64 = AtomicU64::new(1);

/// Process-unique identity of a materialised BAT.
///
/// The recycler's instruction matching hashes BAT arguments by their id:
/// two BATs compare equal for matching purposes iff they are *the same*
/// materialised object. This is exactly what makes bottom-up sequence
/// matching sound (paper §4.1) — value-comparing whole columns would be
/// prohibitively expensive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BatId(pub u64);

impl BatId {
    fn fresh() -> BatId {
        BatId(NEXT_BAT_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// A Binary Association Table: `BAT(head: oid, tail: any)`.
///
/// Head and tail are two positionally aligned [`Column`]s of equal length.
/// Every relational operator consumes and produces BATs (operator-at-a-time
/// with full materialisation). Zero-cost viewpoint operators —
/// [`Bat::reverse`], [`Bat::mirror`], [`Bat::mark_t`] — share the underlying
/// buffers and only create new administration.
#[derive(Debug, Clone)]
pub struct Bat {
    id: BatId,
    head: Column,
    tail: Column,
    props: Props,
}

impl Bat {
    /// Construct from two aligned columns. Panics on length mismatch.
    pub fn new(head: Column, tail: Column, props: Props) -> Bat {
        assert_eq!(
            head.len(),
            tail.len(),
            "BAT head/tail length mismatch: {} vs {}",
            head.len(),
            tail.len()
        );
        Bat {
            id: BatId::fresh(),
            head,
            tail,
            props,
        }
    }

    /// A persistent-style BAT: dense head starting at 0 with the given tail.
    pub fn from_tail(tail: Column) -> Bat {
        let len = tail.len();
        let nonil = !tail.has_nulls();
        let sorted = tail.is_sorted();
        let mut props = Props::base_column(nonil);
        props.tail_sorted = sorted;
        Bat::new(Column::dense(0, len), tail, props)
    }

    /// Unique identity.
    pub fn id(&self) -> BatId {
        self.id
    }

    /// Number of tuples (BUNs).
    pub fn len(&self) -> usize {
        self.head.len()
    }

    /// True when the BAT holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The head column.
    pub fn head(&self) -> &Column {
        &self.head
    }

    /// The tail column.
    pub fn tail(&self) -> &Column {
        &self.tail
    }

    /// Known properties.
    pub fn props(&self) -> Props {
        self.props
    }

    /// Logical type of the tail.
    pub fn tail_type(&self) -> LogicalType {
        self.tail.logical_type()
    }

    /// Logical type of the head.
    pub fn head_type(&self) -> LogicalType {
        self.head.logical_type()
    }

    /// Swap head and tail — zero-cost viewpoint change (`bat.reverse`).
    pub fn reverse(&self) -> Bat {
        Bat::new(self.tail.clone(), self.head.clone(), self.props.reversed())
    }

    /// Head copied into both columns (`bat.mirror`) — zero cost.
    pub fn mirror(&self) -> Bat {
        let props = Props {
            head_dense: self.props.head_dense,
            head_sorted: self.props.head_sorted,
            head_key: self.props.head_key,
            tail_sorted: self.props.head_sorted,
            tail_nonil: true,
        };
        Bat::new(self.head.clone(), self.head.clone(), props)
    }

    /// Same head, fresh dense OID tail starting at `base` (`algebra.markT`)
    /// — zero cost.
    pub fn mark_t(&self, base: u64) -> Bat {
        let props = Props {
            head_dense: self.props.head_dense,
            head_sorted: self.props.head_sorted,
            head_key: self.props.head_key,
            tail_sorted: true,
            tail_nonil: true,
        };
        Bat::new(self.head.clone(), Column::dense(base, self.len()), props)
    }

    /// Zero-copy window over a contiguous tuple range.
    pub fn slice(&self, from: usize, len: usize) -> Bat {
        Bat::new(
            self.head.slice(from, len),
            self.tail.slice(from, len),
            self.props,
        )
    }

    /// Bytes of heap data this BAT *owns* (views report near-zero): the
    /// quantity the recycle pool charges against its memory limit.
    pub fn resident_bytes(&self) -> usize {
        self.head.resident_bytes() + self.tail.resident_bytes() + std::mem::size_of::<Bat>()
    }

    /// Fetch tuple `i` as a `(head, tail)` value pair.
    pub fn tuple(&self, i: usize) -> (Value, Value) {
        (self.head.value(i), self.tail.value(i))
    }

    /// All tuples as value pairs, sorted by head then tail — a canonical
    /// form for equality assertions in tests (operator output order is not
    /// semantically significant).
    pub fn canonical_tuples(&self) -> Vec<(Value, Value)> {
        let mut v: Vec<(Value, Value)> = (0..self.len()).map(|i| self.tuple(i)).collect();
        v.sort_by(|a, b| {
            let h = a.0.cmp_same(&b.0).unwrap_or(std::cmp::Ordering::Equal);
            h.then(a.1.cmp_same(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        });
        v
    }
}

impl fmt::Display for Bat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "BAT#{} [{}:{},{}] {} tuples",
            self.id.0,
            self.head_type(),
            self.tail_type(),
            if self.props.head_dense { "dense" } else { "-" },
            self.len()
        )?;
        let show = self.len().min(8);
        for i in 0..show {
            let (h, t) = self.tuple(i);
            writeln!(f, "  [{h}, {t}]")?;
        }
        if self.len() > show {
            writeln!(f, "  ... {} more", self.len() - show)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Oid;

    #[test]
    fn ids_are_unique() {
        let a = Bat::from_tail(Column::from_ints(vec![1]));
        let b = Bat::from_tail(Column::from_ints(vec![1]));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn reverse_swaps() {
        let b = Bat::from_tail(Column::from_ints(vec![10, 20]));
        let r = b.reverse();
        assert_eq!(r.tuple(0), (Value::Int(10), Value::Oid(Oid(0))));
        assert_eq!(r.tuple(1), (Value::Int(20), Value::Oid(Oid(1))));
        // zero-copy: reversing costs no tail/head buffer bytes beyond admin
        assert!(r.head().resident_bytes() >= 8); // shares the int buffer (owned flag kept)
    }

    #[test]
    fn mark_t_fresh_dense_tail() {
        let b = Bat::from_tail(Column::from_strs(["x", "y", "z"]));
        let m = b.mark_t(100);
        assert_eq!(m.tuple(2), (Value::Oid(Oid(2)), Value::Oid(Oid(102))));
        assert!(m.props().tail_sorted);
    }

    #[test]
    fn mirror_duplicates_head() {
        let b = Bat::from_tail(Column::from_ints(vec![5, 6]));
        let m = b.mirror();
        assert_eq!(m.tuple(1), (Value::Oid(Oid(1)), Value::Oid(Oid(1))));
    }

    #[test]
    fn slice_is_view() {
        let b = Bat::from_tail(Column::from_ints((0..100).collect()));
        let s = b.slice(10, 5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.tuple(0), (Value::Oid(Oid(10)), Value::Int(10)));
        assert!(s.resident_bytes() < 256, "views must be cheap");
    }

    #[test]
    fn canonical_tuples_sorted() {
        let head = Column::from_oids(vec![2, 0, 1]);
        let tail = Column::from_ints(vec![20, 0, 10]);
        let b = Bat::new(head, tail, Props::default());
        let c = b.canonical_tuples();
        assert_eq!(
            c,
            vec![
                (Value::Oid(Oid(0)), Value::Int(0)),
                (Value::Oid(Oid(1)), Value::Int(10)),
                (Value::Oid(Oid(2)), Value::Int(20)),
            ]
        );
    }
}
