//! Columns: a typed buffer plus a view window and an optional validity map.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::bitmap::Bitmap;
use crate::buffer::{Buffer, TypedSlice};
use crate::ops::JoinBuild;
use crate::strbuf::StrBuffer;
use crate::types::{Date, LogicalType, Oid, Value};

/// A column is a window (`offset`, `len`) over a shared [`Buffer`], with an
/// optional validity bitmap for NULLs.
///
/// Slicing a column (for example the fast path of a range select over a
/// sorted column) produces a *view*: it shares the parent's buffer and costs
/// O(1) space. [`Column::resident_bytes`] reports ~0 for views so the
/// recycler's memory accounting reflects actual resource consumption — this
/// is what makes keeping whole instruction lineages affordable (paper §3.4).
#[derive(Debug, Clone)]
pub struct Column {
    buf: Buffer,
    /// The window, in rows of the buffer. Rows are `u32`s wherever they
    /// are stored ([`Column::gather`], a selection's `ones`, a key index),
    /// and here too — which is what makes room for `accel` without moving
    /// `size_of::<Column>()`, the bytes a view is charged at.
    offset: u32,
    len: u32,
    /// Validity aligned with the *buffer* (not the window).
    validity: Option<Arc<Bitmap>>,
    /// True when this column borrows another column's buffer.
    view: bool,
    /// The accelerator slot of a persistent column ([`Column::persistent`]).
    /// A column that has one shows its whole buffer (`offset == 0`, `len`
    /// the buffer's), so a row of the index is a row of the column.
    accel: Option<Arc<Accelerator>>,
}

/// The accelerator slot of a persistent column: a lazily filled cell
/// holding the *key index* of the column's buffer — for every key word
/// (every string) the rows that hold it, ascending; NULL rows are in no
/// list. The index is a [`JoinBuild`] over the column, built by the first
/// kernel that can use it ([`crate::ops`] says which do) and read by every
/// later one.
///
/// Who has a slot, what carries it and why an index is never stale is in
/// the *Accelerators* section of [`crate::catalog`]. In short: a buffer is
/// immutable, the slot belongs to the buffer, and a commit that rewrites a
/// column makes a new buffer with an empty slot.
#[derive(Debug, Default)]
pub struct Accelerator {
    index: OnceLock<JoinBuild>,
    /// Kernels that came for the index before it was built.
    probes: AtomicUsize,
    builds: AtomicUsize,
}

impl Accelerator {
    /// Has the index been built?
    pub fn is_built(&self) -> bool {
        self.index.get().is_some()
    }

    /// How many times an index was built for this slot: 0 or 1, however
    /// many threads asked first.
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Heap bytes of the index, 0 until it is built. They are in no
    /// `resident_bytes()`: the recycle pool's ledger charges intermediates,
    /// and this belongs to a base column.
    pub fn byte_size(&self) -> usize {
        self.index.get().map_or(0, JoinBuild::byte_size)
    }
}

impl Column {
    /// A dense OID sequence (a MonetDB "void" column).
    pub fn dense(start: u64, len: usize) -> Column {
        Column {
            buf: Buffer::Dense { start, len },
            offset: 0,
            len: row_count(len),
            validity: None,
            view: false,
            accel: None,
        }
    }

    /// Owned column from a buffer (no NULLs).
    pub fn from_buffer(buf: Buffer) -> Column {
        let len = row_count(buf.len());
        Column {
            buf,
            offset: 0,
            len,
            validity: None,
            view: false,
            accel: None,
        }
    }

    /// Owned integer column.
    pub fn from_ints(v: Vec<i64>) -> Column {
        Column::from_buffer(Buffer::Int(Arc::new(v)))
    }

    /// Owned float column.
    pub fn from_floats(v: Vec<f64>) -> Column {
        Column::from_buffer(Buffer::Float(Arc::new(v)))
    }

    /// Owned OID column.
    pub fn from_oids(v: Vec<u64>) -> Column {
        Column::from_buffer(Buffer::Oid(Arc::new(v)))
    }

    /// Owned date column (days since epoch).
    pub fn from_dates(v: Vec<i32>) -> Column {
        Column::from_buffer(Buffer::Date(Arc::new(v)))
    }

    /// Owned string column.
    pub fn from_strs<'a>(it: impl IntoIterator<Item = &'a str>) -> Column {
        Column::from_buffer(Buffer::Str(Arc::new(StrBuffer::from_iter(it))))
    }

    /// Owned boolean column.
    pub fn from_bools(v: Vec<bool>) -> Column {
        Column::from_buffer(Buffer::Bool(Arc::new(v)))
    }

    /// Attach a validity bitmap (must match the buffer length). An
    /// accelerator slot does not come along: its index says which rows
    /// are NULL.
    pub fn with_validity(mut self, validity: Bitmap) -> Column {
        assert_eq!(validity.len(), self.buf.len(), "validity length mismatch");
        if !validity.all_set() {
            self.validity = Some(Arc::new(validity));
        }
        self.accel = None;
        self
    }

    /// This column as a *persistent* one: with an (empty) accelerator
    /// slot, which every clone of the column then shares. A column that
    /// already has a slot keeps it; a view or a dense run gets none (a
    /// view is not a whole buffer, a dense run is its own index).
    pub fn persistent(mut self) -> Column {
        let whole = !self.view && !matches!(self.buf, Buffer::Dense { .. });
        if whole && self.accel.is_none() {
            debug_assert!(self.offset() == 0 && self.len() == self.buf.len());
            self.accel = Some(Arc::default());
        }
        self
    }

    /// The accelerator slot, if this is a persistent column or a clone of
    /// one (through `Arc<Bat>`, `reverse`, `mirror`). Nothing computed has
    /// one: not a [`Column::slice`], not a [`Column::gather`].
    pub fn accelerator(&self) -> Option<&Accelerator> {
        self.accel.as_deref()
    }

    /// The key index of a column with a slot: the one already built, or
    /// one built now if this is at least the `build_at`-th time a kernel
    /// comes for it (threads that come at once wait for the one build).
    /// `None` — scan — without a slot, and for the callers before that.
    pub(crate) fn key_index(&self, build_at: usize) -> Option<&JoinBuild> {
        let accel = self.accel.as_deref()?;
        if let Some(index) = accel.index.get() {
            return Some(index);
        }
        let probes = accel.probes.fetch_add(1, Ordering::Relaxed) + 1;
        (probes >= build_at).then(|| {
            accel.index.get_or_init(|| {
                accel.builds.fetch_add(1, Ordering::Relaxed);
                JoinBuild::over(self)
            })
        })
    }

    /// Number of visible values.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// The row of the buffer the window starts at.
    fn offset(&self) -> usize {
        self.offset as usize
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical type of the values.
    pub fn logical_type(&self) -> LogicalType {
        self.buf.logical_type()
    }

    /// Is this column a zero-copy view over another column's buffer?
    pub fn is_view(&self) -> bool {
        self.view
    }

    /// Does this column (window) contain NULLs?
    pub fn has_nulls(&self) -> bool {
        self.null_count() > 0
    }

    /// Number of NULLs in this column (window).
    pub fn null_count(&self) -> usize {
        match &self.validity {
            None => 0,
            Some(bm) => self.len() - bm.count_ones_in(self.offset(), self.len()),
        }
    }

    /// Is row `i` (window-relative) valid (non-NULL)?
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match &self.validity {
            None => true,
            Some(bm) => bm.get(self.offset() + i),
        }
    }

    /// The validity map and the bit of it this window starts at, when the
    /// column carries one — for kernels that merge NULLs a word at a time
    /// ([`Bitmap::and_range`]) instead of asking [`Self::is_valid`] per row.
    pub(crate) fn validity_window(&self) -> Option<(&Bitmap, usize)> {
        self.validity.as_deref().map(|bm| (bm, self.offset()))
    }

    /// Fetch value `i` (window-relative), mapping NULLs to [`Value::Nil`].
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        debug_assert!(i < self.len());
        if !self.is_valid(i) {
            return Value::Nil;
        }
        self.buf.value(self.offset() + i)
    }

    /// Typed window over the visible values.
    #[inline]
    pub fn typed(&self) -> TypedSlice<'_> {
        self.buf.slice(self.offset(), self.len())
    }

    /// Zero-copy sub-window `[from, from+len)` of this column.
    pub fn slice(&self, from: usize, len: usize) -> Column {
        assert!(from + len <= self.len(), "slice out of bounds");
        Column {
            buf: self.buf.clone(),
            offset: row_count(self.offset() + from),
            len: row_count(len),
            validity: self.validity.clone(),
            view: true,
            accel: None,
        }
    }

    /// Bytes this column keeps alive *on its own account*: ~0 for views, the
    /// full buffer size for owned columns.
    pub fn resident_bytes(&self) -> usize {
        if self.view {
            std::mem::size_of::<Column>()
        } else {
            self.buf.byte_size() + self.validity.as_ref().map(|v| v.byte_size()).unwrap_or(0)
        }
    }

    /// Gather rows by window-relative indices into a fresh owned column.
    pub fn gather(&self, idx: &[u32]) -> Column {
        let t = self.typed();
        let mut nulls: Option<Bitmap> = None;
        let mark_null = |nulls: &mut Option<Bitmap>, pos: usize, total: usize| {
            nulls
                .get_or_insert_with(|| Bitmap::new(total, true))
                .set(pos, false);
        };
        let buf = match t {
            TypedSlice::Dense { start, .. } => {
                let v: Vec<u64> = idx.iter().map(|&i| start + i as u64).collect();
                Buffer::Oid(Arc::new(v))
            }
            TypedSlice::Oid(s) => {
                Buffer::Oid(Arc::new(idx.iter().map(|&i| s[i as usize]).collect()))
            }
            TypedSlice::Int(s) => {
                Buffer::Int(Arc::new(idx.iter().map(|&i| s[i as usize]).collect()))
            }
            TypedSlice::Float(s) => {
                Buffer::Float(Arc::new(idx.iter().map(|&i| s[i as usize]).collect()))
            }
            TypedSlice::Date(s) => {
                Buffer::Date(Arc::new(idx.iter().map(|&i| s[i as usize]).collect()))
            }
            TypedSlice::Str { buf, offset, .. } => Buffer::Str(Arc::new(buf.gather(offset, idx))),
            TypedSlice::Bool(s) => {
                Buffer::Bool(Arc::new(idx.iter().map(|&i| s[i as usize]).collect()))
            }
        };
        if self.validity.is_some() {
            for (pos, &i) in idx.iter().enumerate() {
                if !self.is_valid(i as usize) {
                    mark_null(&mut nulls, pos, idx.len());
                }
            }
        }
        let mut col = Column::from_buffer(buf);
        if let Some(bm) = nulls {
            col = col.with_validity(bm);
        }
        col
    }

    /// `self` followed by `other`, as a fresh owned column: see
    /// [`Column::concat_ranges`].
    pub fn concat(&self, other: &Column) -> Column {
        Column::concat_ranges(
            self.logical_type(),
            &[(self, 0..self.len()), (other, 0..other.len())],
        )
    }

    /// The given windows of columns of type `ty`, one after the other, as
    /// a fresh owned column — the bulk merge primitive of
    /// [`crate::Catalog::commit`]. Each output buffer is allocated once at
    /// its exact size and filled by one slice copy per part (strings: one
    /// copy of the part's stretch of the arena plus rebased offsets);
    /// validity is merged a word at a time and dropped when no NULL is
    /// left. Contiguous dense parts stay dense. No value is looked at.
    /// Panics on a part of another type or a range outside its column.
    pub fn concat_ranges(ty: LogicalType, parts: &[(&Column, Range<usize>)]) -> Column {
        for (c, r) in parts {
            assert_eq!(c.logical_type(), ty, "concat of mixed column types");
            assert!(
                r.start <= r.end && r.end <= c.len(),
                "concat range out of bounds"
            );
        }
        let rows: usize = parts.iter().map(|(_, r)| r.len()).sum();
        let windows = || {
            parts
                .iter()
                .map(|(c, r)| c.buf.slice(c.offset() + r.start, r.len()))
        };
        macro_rules! concat_slices {
            ($variant:ident) => {{
                let mut v = Vec::with_capacity(rows);
                for w in windows() {
                    match w {
                        TypedSlice::$variant(s) => v.extend_from_slice(s),
                        _ => unreachable!("part types were checked"),
                    }
                }
                Buffer::$variant(Arc::new(v))
            }};
        }
        let buf = match ty {
            LogicalType::Oid => match dense_run(windows()) {
                Some(start) => Buffer::Dense { start, len: rows },
                None => {
                    let mut v: Vec<u64> = Vec::with_capacity(rows);
                    for w in windows() {
                        match w {
                            TypedSlice::Oid(s) => v.extend_from_slice(s),
                            TypedSlice::Dense { start, len } => v.extend(start..start + len as u64),
                            _ => unreachable!("part types were checked"),
                        }
                    }
                    Buffer::Oid(Arc::new(v))
                }
            },
            LogicalType::Int => concat_slices!(Int),
            LogicalType::Float => concat_slices!(Float),
            LogicalType::Date => concat_slices!(Date),
            LogicalType::Bool => concat_slices!(Bool),
            LogicalType::Str => {
                let str_windows = || {
                    windows().map(|w| match w {
                        TypedSlice::Str { buf, offset, len } => (buf, offset, len),
                        _ => unreachable!("part types were checked"),
                    })
                };
                let bytes = str_windows().map(|(b, o, l)| b.range_bytes(o, l)).sum();
                let mut out = StrBuffer::with_capacity(rows, bytes);
                for (b, o, l) in str_windows() {
                    out.extend_from_range(b, o, l);
                }
                Buffer::Str(Arc::new(out))
            }
        };
        let col = Column::from_buffer(buf);
        if parts.iter().all(|(c, _)| c.validity.is_none()) {
            return col;
        }
        let mut validity = Bitmap::with_capacity(rows);
        for (c, r) in parts {
            match &c.validity {
                Some(bm) => validity.extend_from_range(bm, c.offset() + r.start, r.len()),
                None => validity.extend_fill(true, r.len()),
            }
        }
        col.with_validity(validity)
    }

    /// Check whether the visible values are non-decreasing (NULLs first).
    pub fn is_sorted(&self) -> bool {
        if self.len() < 2 {
            return true;
        }
        match self.typed() {
            TypedSlice::Dense { .. } => true,
            TypedSlice::Oid(s) => s.windows(2).all(|w| w[0] <= w[1]),
            TypedSlice::Int(s) => s.windows(2).all(|w| w[0] <= w[1]),
            TypedSlice::Float(s) => s.windows(2).all(|w| w[0] <= w[1]),
            TypedSlice::Date(s) => s.windows(2).all(|w| w[0] <= w[1]),
            TypedSlice::Str { buf, offset, len } => {
                (1..len).all(|i| buf.get(offset + i - 1) <= buf.get(offset + i))
            }
            TypedSlice::Bool(s) => s.windows(2).all(|w| !w[0] | w[1]),
        }
    }

    /// The visible values as a fresh owned column: exactly what
    /// [`Self::gather`] makes of every row in order (a dense run comes out
    /// as OIDs), by bulk copy instead of through an index vector.
    pub fn materialize(&self) -> Column {
        match self.typed() {
            TypedSlice::Dense { start, len } => {
                Column::from_oids((start..start + len as u64).collect())
            }
            _ => Column::concat_ranges(self.logical_type(), &[(self, 0..self.len())]),
        }
    }

    /// Materialise the window into fully owned values (an owned column is
    /// shared as it is: dense stays dense) — for a view that must outlive
    /// its base.
    pub fn to_owned_column(&self) -> Column {
        if self.view {
            self.materialize()
        } else {
            self.clone()
        }
    }

    /// Iterate values (with NULLs) — convenience for tests and result export.
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }
}

/// A number of rows as a column stores it.
fn row_count(n: usize) -> u32 {
    u32::try_from(n).expect("a column has fewer than 2^32 rows")
}

/// The first OID when the non-empty windows are all dense and each starts
/// where the one before ended, so that their concatenation is dense too.
fn dense_run<'a>(windows: impl Iterator<Item = TypedSlice<'a>>) -> Option<u64> {
    let mut run: Option<(u64, u64)> = None; // first OID, next expected
    for w in windows {
        let TypedSlice::Dense { start, len } = w else {
            return None;
        };
        match run {
            _ if len == 0 => {}
            None => run = Some((start, start + len as u64)),
            Some((first, next)) if next == start => run = Some((first, start + len as u64)),
            Some(_) => return None,
        }
    }
    Some(run.map_or(0, |(first, _)| first))
}

/// Incremental builder for owned columns of a fixed logical type.
#[derive(Debug)]
pub struct ColumnBuilder {
    ty: LogicalType,
    oids: Vec<u64>,
    ints: Vec<i64>,
    floats: Vec<f64>,
    dates: Vec<i32>,
    strs: StrBuffer,
    bools: Vec<bool>,
    validity: Bitmap,
    any_null: bool,
}

impl ColumnBuilder {
    /// New builder producing values of type `ty`.
    pub fn new(ty: LogicalType) -> ColumnBuilder {
        ColumnBuilder {
            ty,
            oids: Vec::new(),
            ints: Vec::new(),
            floats: Vec::new(),
            dates: Vec::new(),
            strs: StrBuffer::new(),
            bools: Vec::new(),
            validity: Bitmap::new(0, false),
            any_null: false,
        }
    }

    /// Logical type being built.
    pub fn logical_type(&self) -> LogicalType {
        self.ty
    }

    /// Number of values pushed so far.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a value; [`Value::Nil`] records a NULL. Panics on type
    /// mismatch — builders are always driven by typed operator code.
    pub fn push(&mut self, v: &Value) {
        match (self.ty, v) {
            (_, Value::Nil) => {
                self.push_default();
                self.validity.push(false);
                self.any_null = true;
                return;
            }
            (LogicalType::Oid, Value::Oid(Oid(o))) => self.oids.push(*o),
            (LogicalType::Int, Value::Int(i)) => self.ints.push(*i),
            (LogicalType::Float, Value::Float(x)) => self.floats.push(*x),
            (LogicalType::Float, Value::Int(i)) => self.floats.push(*i as f64),
            (LogicalType::Date, Value::Date(Date(d))) => self.dates.push(*d),
            (LogicalType::Str, Value::Str(s)) => self.strs.push(s),
            (LogicalType::Bool, Value::Bool(b)) => self.bools.push(*b),
            (ty, v) => panic!("ColumnBuilder type mismatch: building {ty}, got {v}"),
        }
        self.validity.push(true);
    }

    fn push_default(&mut self) {
        match self.ty {
            LogicalType::Oid => self.oids.push(0),
            LogicalType::Int => self.ints.push(0),
            LogicalType::Float => self.floats.push(0.0),
            LogicalType::Date => self.dates.push(0),
            LogicalType::Str => self.strs.push(""),
            LogicalType::Bool => self.bools.push(false),
        }
    }

    /// Finish building.
    pub fn finish(self) -> Column {
        let buf = match self.ty {
            LogicalType::Oid => Buffer::Oid(Arc::new(self.oids)),
            LogicalType::Int => Buffer::Int(Arc::new(self.ints)),
            LogicalType::Float => Buffer::Float(Arc::new(self.floats)),
            LogicalType::Date => Buffer::Date(Arc::new(self.dates)),
            LogicalType::Str => Buffer::Str(Arc::new(self.strs)),
            LogicalType::Bool => Buffer::Bool(Arc::new(self.bools)),
        };
        let col = Column::from_buffer(buf);
        if self.any_null {
            col.with_validity(self.validity)
        } else {
            col
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_is_zero_copy() {
        let c = Column::from_ints((0..1000).collect());
        let owned = c.resident_bytes();
        assert!(owned >= 8000);
        let v = c.slice(100, 50);
        assert!(v.is_view());
        assert_eq!(v.len(), 50);
        assert_eq!(v.value(0), Value::Int(100));
        assert!(v.resident_bytes() < 128);
    }

    /// The recycle pool charges a view `size_of::<Column>()`: a field that
    /// grows `Column` moves every byte book and counter above this crate.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_view_is_charged_what_it_was() {
        assert_eq!(std::mem::size_of::<Column>(), 56);
        let view = Column::from_ints(vec![1, 2, 3]).persistent().slice(1, 1);
        assert_eq!(view.resident_bytes(), 56);
        assert!(view.accelerator().is_none());
    }

    #[test]
    fn gather_basic() {
        let c = Column::from_strs(["a", "b", "c", "d"]);
        let g = c.gather(&[3, 1, 1]);
        let vals: Vec<Value> = g.iter_values().collect();
        assert_eq!(
            vals,
            vec![Value::str("d"), Value::str("b"), Value::str("b")]
        );
        assert!(!g.is_view());
    }

    #[test]
    fn gather_dense_materialises_oids() {
        let c = Column::dense(5, 10);
        let g = c.gather(&[0, 9, 4]);
        assert_eq!(
            g.iter_values().collect::<Vec<_>>(),
            vec![Value::Oid(Oid(5)), Value::Oid(Oid(14)), Value::Oid(Oid(9))]
        );
    }

    #[test]
    fn nulls_roundtrip() {
        let mut b = ColumnBuilder::new(LogicalType::Int);
        b.push(&Value::Int(1));
        b.push(&Value::Nil);
        b.push(&Value::Int(3));
        let c = b.finish();
        assert!(c.has_nulls());
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::Nil);
        assert_eq!(c.value(2), Value::Int(3));
        // gather keeps NULLs aligned
        let g = c.gather(&[1, 0]);
        assert_eq!(g.value(0), Value::Nil);
        assert_eq!(g.value(1), Value::Int(1));
    }

    #[test]
    fn slice_preserves_validity_alignment() {
        let mut b = ColumnBuilder::new(LogicalType::Int);
        for i in 0..10 {
            if i == 5 {
                b.push(&Value::Nil);
            } else {
                b.push(&Value::Int(i));
            }
        }
        let c = b.finish();
        let s = c.slice(4, 3); // values 4, NULL, 6
        assert_eq!(s.value(0), Value::Int(4));
        assert_eq!(s.value(1), Value::Nil);
        assert_eq!(s.value(2), Value::Int(6));
        assert!(s.has_nulls());
    }

    /// The per-value twin of [`Column::concat_ranges`].
    fn concat_by_value(ty: LogicalType, parts: &[(&Column, Range<usize>)]) -> Column {
        let mut b = ColumnBuilder::new(ty);
        for (c, r) in parts {
            for i in r.clone() {
                b.push(&c.value(i));
            }
        }
        b.finish()
    }

    fn assert_concat(ty: LogicalType, parts: &[(&Column, Range<usize>)]) -> Column {
        let fast = Column::concat_ranges(ty, parts);
        let slow = concat_by_value(ty, parts);
        assert_eq!(
            fast.iter_values().collect::<Vec<_>>(),
            slow.iter_values().collect::<Vec<_>>()
        );
        assert_eq!(fast.logical_type(), ty);
        assert_eq!(fast.has_nulls(), slow.has_nulls());
        assert_eq!(fast.validity.is_some(), fast.has_nulls(), "no idle bitmap");
        assert!(!fast.is_view());
        fast
    }

    fn with_nulls(c: Column, nulls: &[usize]) -> Column {
        let mut bm = Bitmap::new(c.len(), true);
        for &i in nulls {
            bm.set(i, false);
        }
        c.with_validity(bm)
    }

    #[test]
    fn concat_view_and_owned_with_validity_on_either_side() {
        let plain = Column::from_ints((0..100).collect());
        let holes = with_nulls(
            Column::from_ints((100..230).collect()),
            &[0, 63, 64, 65, 129],
        );
        let (plain_view, holes_view) = (plain.slice(7, 70), holes.slice(60, 69));
        for (a, b) in [
            (&plain_view, &plain),
            (&plain, &holes),
            (&holes, &plain_view),
            (&holes_view, &holes),
            (&holes, &holes_view),
        ] {
            let c = assert_concat(LogicalType::Int, &[(a, 0..a.len()), (b, 0..b.len())]);
            assert_eq!(c.len(), a.len() + b.len());
            assert_eq!(c.null_count(), a.null_count() + b.null_count());
            assert_eq!(
                a.concat(b).iter_values().collect::<Vec<_>>(),
                c.iter_values().collect::<Vec<_>>()
            );
        }
        // the NULLs lie outside the windows taken: the bitmap is dropped
        let c = assert_concat(LogicalType::Int, &[(&holes, 1..63), (&holes, 66..129)]);
        assert!(!c.has_nulls());
        // exact capacity, not the builder's doubling
        let c = plain.concat(&plain_view);
        assert_eq!(c.resident_bytes(), 170 * 8);
    }

    #[test]
    fn concat_every_type_and_empty_parts() {
        let strs = with_nulls(Column::from_strs(["a", "", "wörld", "日本", "x"]), &[1]);
        let s = assert_concat(
            LogicalType::Str,
            &[(&strs, 2..5), (&strs, 0..0), (&strs.slice(1, 3), 0..3)],
        );
        assert_eq!(s.value(1), Value::str("日本"));
        assert_eq!(s.value(3), Value::Nil);
        let floats = Column::from_floats(vec![0.5, -0.0, f64::INFINITY]);
        assert_concat(LogicalType::Float, &[(&floats, 1..3), (&floats, 0..2)]);
        let dates = with_nulls(Column::from_dates(vec![-1, 0, 9000]), &[2]);
        assert_concat(LogicalType::Date, &[(&dates, 0..3), (&dates, 2..3)]);
        let bools = Column::from_bools(vec![true, false, true]);
        assert_concat(LogicalType::Bool, &[(&bools, 2..3), (&bools, 0..2)]);
        for ty in [LogicalType::Oid, LogicalType::Int, LogicalType::Str] {
            assert!(assert_concat(ty, &[]).is_empty());
        }
    }

    #[test]
    fn concat_dense_stays_dense_when_contiguous() {
        let (a, b) = (Column::dense(5, 10), Column::dense(15, 4));
        let c = assert_concat(LogicalType::Oid, &[(&a, 2..10), (&a, 0..0), (&b, 0..4)]);
        assert!(matches!(c.typed(), TypedSlice::Dense { start: 7, len: 12 }));
        assert_eq!(c.resident_bytes(), 0);
        // a gap, a repeat, or a materialised neighbour: plain OIDs
        let oids = with_nulls(Column::from_oids(vec![3, 1, 2]), &[1]);
        for parts in [
            [(&a, 0..3), (&b, 0..4)],
            [(&b, 0..4), (&a, 0..10)],
            [(&a, 0..10), (&oids, 0..3)],
        ] {
            let c = assert_concat(LogicalType::Oid, &parts);
            assert!(matches!(c.typed(), TypedSlice::Oid(_)));
        }
    }

    #[test]
    #[should_panic(expected = "mixed column types")]
    fn concat_refuses_mixed_types() {
        Column::from_ints(vec![1]).concat(&Column::from_floats(vec![1.0]));
    }

    #[test]
    fn materialize_is_the_gather_of_every_row() {
        let strs = with_nulls(Column::from_strs(["a", "", "wörld", "日本", "x"]), &[1]);
        let ints = with_nulls(Column::from_ints((0..130).collect()), &[0, 64, 129]);
        for c in [
            Column::dense(5, 70),
            Column::dense(5, 70).slice(3, 9),
            Column::from_oids(vec![9, 0, 3]),
            ints.clone(),
            ints.slice(1, 63), // the NULLs lie outside: no bitmap comes along
            ints.slice(60, 10),
            strs.slice(1, 3),
            Column::from_bools(vec![true, false]),
            Column::from_dates(vec![]),
        ] {
            let idx: Vec<u32> = (0..c.len() as u32).collect();
            let (fast, slow) = (c.materialize(), c.gather(&idx));
            assert_eq!(
                fast.iter_values().collect::<Vec<_>>(),
                slow.iter_values().collect::<Vec<_>>()
            );
            assert_eq!(fast.resident_bytes(), slow.resident_bytes());
            assert_eq!(fast.validity.is_some(), slow.validity.is_some());
            assert!(!fast.is_view());
            assert!(!matches!(fast.typed(), TypedSlice::Dense { .. }));
        }
    }

    #[test]
    fn sortedness() {
        assert!(Column::from_ints(vec![1, 2, 2, 9]).is_sorted());
        assert!(!Column::from_ints(vec![1, 0]).is_sorted());
        assert!(Column::dense(3, 100).is_sorted());
        assert!(Column::from_strs(["a", "ab", "b"]).is_sorted());
    }

    #[test]
    fn to_owned_detaches_view() {
        let c = Column::from_ints((0..100).collect());
        let v = c.slice(10, 5);
        let o = v.to_owned_column();
        assert!(!o.is_view());
        assert_eq!(
            o.iter_values().collect::<Vec<_>>(),
            v.iter_values().collect::<Vec<_>>()
        );
    }

    #[test]
    fn builder_float_widens_int() {
        let mut b = ColumnBuilder::new(LogicalType::Float);
        b.push(&Value::Int(2));
        b.push(&Value::Float(0.5));
        let c = b.finish();
        assert_eq!(c.value(0), Value::Float(2.0));
        assert_eq!(c.value(1), Value::Float(0.5));
    }
}
