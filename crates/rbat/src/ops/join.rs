//! Join operators: natural join on `l.tail == r.head`, semijoin and
//! anti-semijoin (difference) on head OIDs. Which algorithm runs is
//! read off the inputs — see the selection table in [`crate::ops`].

use crate::bat::Bat;
use crate::bitmap::Bitmap;
use crate::buffer::TypedSlice;
use crate::column::Column;
use crate::error::{BatError, Result};
use std::hash::Hasher;

use crate::hash::{FxHashMap, FxHashSet, FxHasher};
use crate::ops::{
    clear_nulls, for_each_u64_key, gather_selected, key_range, select_keys, string_keys, KeyRange,
};
use crate::props::Props;
use crate::strbuf::StrBuffer;

/// A key that is not in the build side.
const ABSENT: u32 = u32::MAX;

/// Exported build side of a join: the lookup structure over `r.head`,
/// detached from the borrow of `r` so it can be kept and probed again
/// later. Keys are owned — string tables copy their keys out of the build
/// BAT's string buffer.
///
/// Two parts, chosen independently from the build keys: `slots` takes a
/// key to a slot id, and `matches` says what a slot id stands for — the
/// build row itself when no key repeats, else a group of rows.
///
/// The same structure over a persistent column is that column's *key
/// index* ([`crate::column::Accelerator`]): built once per buffer, it is
/// the build side of every [`join`] on the column and tells [`semijoin`],
/// [`diff`] and [`crate::ops::uselect`] the rows of a key.
#[derive(Debug)]
pub struct JoinBuild {
    slots: Slots,
    matches: Matches,
}

/// Key → slot id.
#[derive(Debug)]
enum Slots {
    /// `r.head` is dense: a fetch join needs no table, only the range.
    Dense { start: u64, len: usize },
    /// Integer-like keys in a range not much wider than the build side:
    /// one cell per possible key, indexed by the key's place in the range.
    Direct { range: KeyRange, cells: Vec<u32> },
    /// Other fixed-width keys, hashed as `u64` words.
    Hash(FxHashMap<u64, u32>),
    /// String keys: each distinct key once in `keys`, in slot order, and
    /// a table from the hash of a key's bytes to its slot. A key whose
    /// hash is taken by another moves on to the next hash of a fixed
    /// sequence, so a lookup checks the key it finds ([`string_place`]).
    Str {
        table: FxHashMap<u64, u32>,
        keys: StrBuffer,
    },
}

/// The first table key to try for a string, and the step to the next.
fn string_hash(key: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(key);
    h.finish()
}
const NEXT_HASH: u64 = 0x9e37_79b9_7f4a_7c15;

/// The table key `key` is filed under — or, if it is not in the table,
/// would be: the first of its hash sequence not taken by another key.
fn string_place(table: &FxHashMap<u64, u32>, keys: &StrBuffer, key: &[u8]) -> u64 {
    let mut h = string_hash(key);
    while table
        .get(&h)
        .is_some_and(|&slot| keys.get_bytes(slot as usize) != key)
    {
        h = h.wrapping_add(NEXT_HASH);
    }
    h
}

/// Slot id → build rows.
#[derive(Debug)]
enum Matches {
    /// Every build row has a key of its own: the slot id is the row.
    Row,
    /// Keys repeat (or some are NULL, and in no group): slot `g` stands for
    /// `rows[offsets[g]..offsets[g + 1]]`, ascending — every group in one
    /// allocation (CSR).
    Csr { offsets: Vec<u32>, rows: Vec<u32> },
}

impl JoinBuild {
    /// Heap footprint, as an accelerator slot reports it: the tables at
    /// the size they were allocated with, and the string keys.
    pub fn byte_size(&self) -> usize {
        // one control byte per bucket beside the pair
        let table =
            |t: &FxHashMap<u64, u32>| t.capacity() * (std::mem::size_of::<(u64, u32)>() + 1);
        let slots = match &self.slots {
            Slots::Dense { .. } => 16,
            Slots::Direct { cells, .. } => cells.len() * 4,
            Slots::Hash(t) => table(t),
            Slots::Str { table: t, keys } => table(t) + keys.byte_size(),
        };
        let matches = match &self.matches {
            Matches::Row => 0,
            Matches::Csr { offsets, rows } => (offsets.len() + rows.len()) * 4,
        };
        slots + matches
    }

    /// Tabulate `head`. One pass numbers the distinct keys in order of
    /// first appearance and counts their rows. If every row turned out to
    /// have a key of its own, the numbers are the rows and that is all;
    /// else a second pass over the numbering (no key is looked up twice)
    /// lays the groups out back to back.
    pub(crate) fn over(head: &Column) -> JoinBuild {
        if let TypedSlice::Dense { start, len } = head.typed() {
            return JoinBuild {
                slots: Slots::Dense { start, len },
                matches: Matches::Row,
            };
        }
        let mut slots = Slots::for_keys(head);
        let mut group_of = vec![ABSENT; head.len()];
        let mut left: Vec<u32> = Vec::new(); // per group: rows not yet laid out
        slots.for_each_cell(head, |row, cell| {
            if *cell == ABSENT {
                *cell = left.len() as u32;
                left.push(0);
            }
            group_of[row] = *cell;
            left[*cell as usize] += 1;
        });
        let matches = if left.len() == head.len() {
            Matches::Row
        } else {
            let mut offsets = Vec::with_capacity(left.len() + 1);
            let mut end = 0;
            offsets.push(end);
            offsets.extend(left.iter().map(|&n| {
                end += n;
                end
            }));
            let mut rows = vec![0; end as usize];
            for (row, &g) in (0u32..).zip(&group_of).filter(|(_, &g)| g != ABSENT) {
                let g = g as usize;
                rows[(offsets[g + 1] - left[g]) as usize] = row;
                left[g] -= 1;
            }
            Matches::Csr { offsets, rows }
        };
        JoinBuild { slots, matches }
    }

    /// The build rows a slot stands for, ascending; none for [`ABSENT`].
    fn rows(&self, slot: u32) -> impl Iterator<Item = u32> + '_ {
        let (row, group): (Option<u32>, &[u32]) = match &self.matches {
            _ if slot == ABSENT => (None, &[]),
            Matches::Row => (Some(slot), &[]),
            Matches::Csr { offsets, rows } => {
                let g = slot as usize;
                (None, &rows[offsets[g] as usize..offsets[g + 1] as usize])
            }
        };
        row.into_iter().chain(group.iter().copied())
    }

    /// The build rows whose key is the word `key`, ascending (none in a
    /// table of strings).
    pub(crate) fn rows_of_word(&self, key: u64) -> impl Iterator<Item = u32> + '_ {
        self.rows(match &self.slots {
            Slots::Dense { start, len } => dense_slot(*start, *len, key),
            Slots::Direct { range, cells } => direct_slot(range, cells, key),
            Slots::Hash(table) => hash_slot(table, key),
            Slots::Str { .. } => ABSENT,
        })
    }

    /// The build rows whose key is the string `key`, ascending (none in a
    /// table of words).
    pub(crate) fn rows_of_bytes(&self, key: &[u8]) -> impl Iterator<Item = u32> + '_ {
        self.rows(match &self.slots {
            Slots::Str { table, keys } => string_slot(table, keys, key),
            _ => ABSENT,
        })
    }
}

/// The slot of key word `k` in each kind of table, [`ABSENT`] for a key
/// that is not in it: one definition for the probe of a join, which picks
/// the kind once for all its rows, and for a lookup in a key index.
#[inline]
fn dense_slot(start: u64, len: usize, k: u64) -> u32 {
    let at = k.wrapping_sub(start);
    if at < len as u64 {
        at as u32
    } else {
        ABSENT
    }
}

#[inline]
fn direct_slot(range: &KeyRange, cells: &[u32], k: u64) -> u32 {
    let cell = usize::try_from(range.place(k)).ok();
    cell.and_then(|c| cells.get(c)).copied().unwrap_or(ABSENT)
}

#[inline]
fn hash_slot(table: &FxHashMap<u64, u32>, k: u64) -> u32 {
    table.get(&k).copied().unwrap_or(ABSENT)
}

#[inline]
fn string_slot(table: &FxHashMap<u64, u32>, keys: &StrBuffer, key: &[u8]) -> u32 {
    *table
        .get(&string_place(table, keys, key))
        .unwrap_or(&ABSENT)
}

impl Slots {
    /// An empty table of the kind `head`'s keys call for.
    fn for_keys(head: &Column) -> Slots {
        if let TypedSlice::Str { .. } = head.typed() {
            return Slots::Str {
                table: FxHashMap::default(),
                keys: StrBuffer::new(),
            };
        }
        match key_range(head) {
            Some(range) if range.span / 4 <= head.len() as u64 => Slots::Direct {
                range,
                cells: vec![ABSENT; range.span as usize + 1],
            },
            _ => Slots::Hash(FxHashMap::with_capacity_and_hasher(
                head.len() - head.null_count(),
                Default::default(),
            )),
        }
    }

    /// Call `visit(row, cell)` for every non-NULL row of `head`, in row
    /// order, with the table cell of the row's key — [`ABSENT`] the first
    /// time a key is seen, when `visit` must give it the next slot id
    /// (0, 1, 2, …).
    fn for_each_cell(&mut self, head: &Column, mut visit: impl FnMut(usize, &mut u32)) {
        match self {
            Slots::Dense { .. } => unreachable!("a dense head is not tabulated"),
            Slots::Direct { range, cells } => {
                for_each_u64_key(head, |row, k| {
                    visit(row, &mut cells[range.place(k) as usize])
                });
            }
            Slots::Hash(table) => {
                for_each_u64_key(head, |row, k| visit(row, table.entry(k).or_insert(ABSENT)));
            }
            Slots::Str { table, keys } => {
                let TypedSlice::Str { buf, offset, len } = head.typed() else {
                    unreachable!("a string table is made for a string head")
                };
                for row in (0..len).filter(|&row| head.is_valid(row)) {
                    let key = buf.get_bytes(offset + row);
                    let cell = table
                        .entry(string_place(table, keys, key))
                        .or_insert(ABSENT);
                    if *cell == ABSENT {
                        // its slot is the next one: `visit` numbers them in order
                        keys.extend_from_range(buf, offset + row, 1);
                    }
                    visit(row, cell);
                }
            }
        }
    }
}

/// Build half of [`join`]: tabulate `r.head`, the canonical build side.
pub fn join_build(r: &Bat) -> Result<JoinBuild> {
    Ok(JoinBuild::over(r.head()))
}

/// What a probe found: the probe rows that hit the build side, ascending
/// (`None` when every row did — a foreign key through its index — and no
/// list of them is needed), and the slot each found.
struct Hits {
    rows: Option<Vec<u32>>,
    slots: Vec<u32>,
}

impl Hits {
    /// From the slot found for every probe row, [`ABSENT`] for a miss.
    fn of(mut slots: Vec<u32>) -> Hits {
        let found = slots.iter().filter(|&&slot| slot != ABSENT).count();
        if found == slots.len() {
            return Hits { rows: None, slots };
        }
        let mut rows = Vec::with_capacity(found);
        rows.extend(
            (0u32..)
                .zip(&slots)
                .filter(|(_, &slot)| slot != ABSENT)
                .map(|(row, _)| row),
        );
        slots.retain(|&slot| slot != ABSENT);
        Hits {
            rows: Some(rows),
            slots,
        }
    }

    /// The `at`-th probe row that hit.
    fn row(&self, at: usize) -> u32 {
        self.rows.as_ref().map_or(at as u32, |rows| rows[at])
    }
}

/// Look every non-NULL key of `keys` up — one store per row, no branch on
/// the outcome; `None` for a string column.
fn probe(keys: &Column, lookup: impl Fn(u64) -> u32) -> Option<Hits> {
    let mut slots = vec![ABSENT; keys.len()];
    for_each_u64_key(keys, |i, k| slots[i] = lookup(k)).then(|| Hits::of(slots))
}

/// Probe half of [`join`]: stream `l.tail` through a prebuilt table over
/// `r.head`. `build` must have been produced by [`join_build`] on the same
/// `r`, or be the key index of `r.head`.
pub fn join_probe(l: &Bat, r: &Bat, build: &JoinBuild) -> Result<Bat> {
    let keys = l.tail();
    let hits = match &build.slots {
        Slots::Dense { start, len } => probe(keys, |k| dense_slot(*start, *len, k)),
        Slots::Direct { range, cells } => probe(keys, |k| direct_slot(range, cells, k)),
        Slots::Hash(table) => probe(keys, |k| hash_slot(table, k)),
        Slots::Str { table, keys: known } => string_keys(keys).map(|strings| {
            let slot = |(i, key)| match keys.is_valid(i) {
                true => string_slot(table, known, key),
                false => ABSENT,
            };
            Hits::of(strings.enumerate().map(slot).collect())
        }),
    };
    let mut hits = hits.ok_or_else(|| {
        BatError::type_mismatch(
            "join",
            format!(
                "join key types differ: {} vs {}",
                l.tail_type(),
                r.head_type()
            ),
        )
    })?;
    if let Matches::Csr { offsets, rows } = &build.matches {
        // the slots are group numbers: lay every group out, at the exact size
        let group = |g: u32| &rows[offsets[g as usize] as usize..offsets[g as usize + 1] as usize];
        let total = hits.slots.iter().map(|&g| group(g).len()).sum();
        let (mut li, mut ri) = (Vec::with_capacity(total), Vec::with_capacity(total));
        for (at, &g) in hits.slots.iter().enumerate() {
            li.extend(std::iter::repeat_n(hits.row(at), group(g).len()));
            ri.extend_from_slice(group(g));
        }
        hits = Hits {
            rows: Some(li),
            slots: ri,
        };
    }
    let head = match &hits.rows {
        Some(rows) => l.head().gather(rows),
        None => l.head().materialize(),
    };
    Ok(Bat::new(
        head,
        r.tail().gather(&hits.slots),
        Props {
            head_sorted: l.props().head_dense || l.props().head_sorted,
            ..Props::default()
        },
    ))
}

/// `algebra.join(l, r)`: for every pair `i, j` with `l.tail[i] == r.head[j]`
/// emit `(l.head[i], r.tail[j])` — the canonical MonetDB binary join —
/// ordered by `i`, then `j`. NULL keys match nothing.
///
/// Composed from [`join_build`] + [`join_probe`]; when `r.head` is a
/// persistent column, its key index *is* the build side: built by the
/// first join (for what that join's own build would have cost) and found
/// ready by every later one.
pub fn join(l: &Bat, r: &Bat) -> Result<Bat> {
    match r.head().key_index(1) {
        Some(index) => join_probe(l, r, index),
        None => join_probe(l, r, &join_build(r)?),
    }
}

/// `algebra.semijoin(l, r)`: tuples of `l` whose *head* appears among the
/// heads of `r` — the projection idiom of MonetDB plans.
pub fn semijoin(l: &Bat, r: &Bat) -> Result<Bat> {
    filter_by_head(l, r, true)
}

/// `bat.kdiff`-style anti-semijoin: tuples of `l` whose head does *not*
/// appear among the heads of `r`.
pub fn diff(l: &Bat, r: &Bat) -> Result<Bat> {
    filter_by_head(l, r, false)
}

/// `r` is *selective* against `l` when `l` has at least this many rows
/// per row of `r`: reading the rows of `r`'s keys out of `l`'s key index
/// then beats a scan of `l` (`tpch_semijoin` in the operator microbench
/// has the figures behind the constant; the table in [`crate::ops`]
/// quotes them).
const SELECTIVE: usize = 8;

/// How [`members`] tests membership — read off the two head columns.
#[derive(Debug)]
enum Membership {
    /// `l`'s head is a persistent column and `r` is selective against it:
    /// the rows of each key of `r` come out of `l`'s key index. No key of
    /// `l` is read.
    Indexed,
    /// String heads: a hash set of byte strings.
    Strings,
    /// `l`'s head is dense: a key of `r` *is* a row of `l`. No key of `l`
    /// is looked at, nothing is hashed.
    Positional { start: u64, len: usize },
    /// `r`'s keys are integer-like and span at most 64 places per row of
    /// either input: a bitmap over the span — smaller than the inputs, set
    /// up in one pass over `r`, probed with a shift and a mask.
    Bitmap(KeyRange),
    /// Anything else (floats, keys scattered over a wide range): a hash
    /// set of key words, filled straight from the typed slice.
    Hash,
}

impl Membership {
    /// `None` for a string head against a fixed-width one.
    fn choose(l: &Column, r: &Column) -> Option<Membership> {
        use TypedSlice::{Dense, Str};
        let indexed = l.accelerator().is_some() && r.len().saturating_mul(SELECTIVE) <= l.len();
        Some(match (l.typed(), r.typed()) {
            (Str { .. }, Str { .. }) if indexed => Membership::Indexed,
            (Str { .. }, Str { .. }) => Membership::Strings,
            (Str { .. }, _) | (_, Str { .. }) => return None,
            (Dense { start, len }, _) => Membership::Positional { start, len },
            _ if indexed => Membership::Indexed,
            _ => match key_range(r) {
                Some(range) if range.span / 64 <= (l.len() + r.len()) as u64 => {
                    Membership::Bitmap(range)
                }
                _ => Membership::Hash,
            },
        })
    }
}

/// The rows of `l` whose head is among the non-NULL heads of `r` (a NULL
/// row of `l` is judged by the word under it: the caller clears it).
fn members(l: &Column, r: &Column) -> Option<Bitmap> {
    Some(match Membership::choose(l, r)? {
        Membership::Indexed => {
            let index = l.key_index(1).expect("chosen for a column with a slot");
            let mut sel = Bitmap::new(l.len(), false);
            fn mark(sel: &mut Bitmap, rows: impl Iterator<Item = u32>) {
                rows.for_each(|row| sel.set(row as usize, true));
            }
            if let Some(strings) = string_keys(r) {
                for (_, key) in strings.enumerate().filter(|&(j, _)| r.is_valid(j)) {
                    mark(&mut sel, index.rows_of_bytes(key));
                }
            } else {
                for_each_u64_key(r, |_, k| mark(&mut sel, index.rows_of_word(k)));
            }
            sel
        }
        Membership::Strings => {
            let set: FxHashSet<&[u8]> = string_keys(r)?
                .enumerate()
                .filter(|&(j, _)| r.is_valid(j))
                .map(|(_, key)| key)
                .collect();
            Bitmap::from_bits(l.len(), string_keys(l)?.map(|key| set.contains(key)))
        }
        Membership::Positional { start, len } => {
            let mut sel = Bitmap::new(len, false);
            for_each_u64_key(r, |_, k| {
                let row = k.wrapping_sub(start);
                if row < len as u64 {
                    sel.set(row as usize, true);
                }
            });
            sel
        }
        Membership::Bitmap(range) => {
            let mut set = Bitmap::new(range.span as usize + 1, false);
            for_each_u64_key(r, |_, k| set.set(range.place(k) as usize, true));
            select_keys(l, |k| set.contains(range.place(k)))?
        }
        Membership::Hash => {
            let mut set: FxHashSet<u64> =
                FxHashSet::with_capacity_and_hasher(r.len(), Default::default());
            for_each_u64_key(r, |_, k| {
                set.insert(k);
            });
            select_keys(l, |k| set.contains(&k))?
        }
    })
}

fn filter_by_head(l: &Bat, r: &Bat, keep_members: bool) -> Result<Bat> {
    let mut sel = members(l.head(), r.head()).ok_or_else(|| {
        BatError::type_mismatch(
            "semijoin",
            format!("head types differ: {} vs {}", l.head_type(), r.head_type()),
        )
    })?;
    if !keep_members {
        sel.negate();
    }
    clear_nulls(&mut sel, l.head());
    let (head, tail) = gather_selected(l, &sel);
    Ok(Bat::new(
        head,
        tail,
        Props {
            head_sorted: l.props().head_dense || l.props().head_sorted,
            head_key: l.props().head_key,
            tail_nonil: l.props().tail_nonil,
            ..Props::default()
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::types::{Oid, Value};

    fn bat(head: Vec<u64>, tail: Vec<i64>) -> Bat {
        Bat::new(
            Column::from_oids(head),
            Column::from_ints(tail),
            Props::default(),
        )
    }

    #[test]
    fn hash_join_basic() {
        // l: (h, key), r: (key-as-head, payload)
        let l = Bat::new(
            Column::from_oids(vec![0, 1, 2]),
            Column::from_oids(vec![10, 20, 10]),
            Props::default(),
        );
        let r = Bat::new(
            Column::from_oids(vec![10, 30]),
            Column::from_ints(vec![111, 333]),
            Props::default(),
        );
        let j = join(&l, &r).unwrap();
        assert_eq!(
            j.canonical_tuples(),
            vec![
                (Value::Oid(Oid(0)), Value::Int(111)),
                (Value::Oid(Oid(2)), Value::Int(111)),
            ]
        );
    }

    #[test]
    fn fetch_join_dense_head() {
        let l = Bat::new(
            Column::from_oids(vec![7, 8]),
            Column::from_oids(vec![1, 5]),
            Props::default(),
        );
        let r = Bat::from_tail(Column::from_ints(vec![100, 101, 102])); // dense head 0..3
        let j = join(&l, &r).unwrap();
        // key 5 out of range, key 1 matches positionally
        assert_eq!(
            j.canonical_tuples(),
            vec![(Value::Oid(Oid(7)), Value::Int(101))]
        );
    }

    #[test]
    fn join_multimatch_duplicates() {
        let l = Bat::new(
            Column::from_oids(vec![0]),
            Column::from_oids(vec![5]),
            Props::default(),
        );
        let r = Bat::new(
            Column::from_oids(vec![5, 5]),
            Column::from_ints(vec![1, 2]),
            Props::default(),
        );
        let j = join(&l, &r).unwrap();
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn string_join() {
        let l = Bat::new(
            Column::from_oids(vec![0, 1]),
            Column::from_strs(["GERMANY", "FRANCE"]),
            Props::default(),
        );
        let r = Bat::new(
            Column::from_strs(["FRANCE", "KENYA"]),
            Column::from_ints(vec![7, 9]),
            Props::default(),
        );
        let j = join(&l, &r).unwrap();
        assert_eq!(
            j.canonical_tuples(),
            vec![(Value::Oid(Oid(1)), Value::Int(7))]
        );
    }

    #[test]
    fn string_keys_with_one_hash_stay_apart() {
        // the hasher pads the last word with zeros: these two collide
        assert_eq!(string_hash(b"a"), string_hash(b"a\0"));
        let l = Bat::from_tail(Column::from_strs(["a\0", "b", "a"]));
        let r = Bat::new(
            Column::from_strs(["a", "a\0", "a"]),
            Column::from_ints(vec![1, 2, 3]),
            Props::default(),
        );
        let j = join(&l, &r).unwrap();
        assert_eq!(
            j.tail().iter_values().collect::<Vec<_>>(),
            vec![Value::Int(2), Value::Int(1), Value::Int(3)]
        );
    }

    #[test]
    fn semijoin_and_diff_partition() {
        let l = bat(vec![0, 1, 2, 3], vec![10, 11, 12, 13]);
        let r = bat(vec![1, 3, 9], vec![0, 0, 0]);
        let s = semijoin(&l, &r).unwrap();
        let d = diff(&l, &r).unwrap();
        assert_eq!(s.len() + d.len(), l.len());
        assert_eq!(
            s.head().iter_values().collect::<Vec<_>>(),
            vec![Value::Oid(Oid(1)), Value::Oid(Oid(3))]
        );
        assert_eq!(
            d.head().iter_values().collect::<Vec<_>>(),
            vec![Value::Oid(Oid(0)), Value::Oid(Oid(2))]
        );
    }

    #[test]
    fn membership_is_chosen_from_the_heads() {
        let oids = |v: Vec<u64>| Column::from_oids(v);
        let choose = |l: &Column, r: &Column| format!("{:?}", Membership::choose(l, r));
        let narrow = oids((0..70).rev().collect());
        // a dense left head: positional, whatever the right head is
        let dense = Column::dense(4, 70);
        assert!(choose(&dense, &oids(vec![1 << 50, 9])).contains("Positional"));
        assert!(choose(&dense, &Column::from_floats(vec![1.0])).contains("Positional"));
        // right keys spanning at most 64 places per row of either input
        assert!(choose(&narrow, &oids(vec![5, 5 + 64 * 73])).contains("Hash"));
        assert!(choose(&narrow, &oids(vec![5, 4 + 64 * 73])).contains("Bitmap"));
        assert!(choose(&narrow, &Column::from_ints(vec![-5, 60])).contains("Bitmap"));
        // no range to speak of: floats, no key at all
        assert!(choose(&narrow, &Column::from_floats(vec![1.0])).contains("Hash"));
        assert!(choose(&narrow, &oids(vec![])).contains("Hash"));
        // a persistent left head against an eighth as many rows, or fewer:
        // its key index, whatever the keys — a row more, and it is scanned
        let held = narrow.clone().persistent();
        let right = |rows: u64| oids((0..rows).collect());
        assert!(choose(&held, &right(8)).contains("Indexed"));
        assert!(choose(&held, &right(9)).contains("Bitmap"));
        assert!(choose(&held, &oids(vec![])).contains("Indexed"));
        assert!(choose(&held, &Column::from_floats(vec![1.0])).contains("Indexed"));
        assert!(choose(&narrow, &right(8)).contains("Bitmap"), "no slot");
        let held_names = Column::from_strs(["a"; 8]).persistent();
        assert!(choose(&held_names, &Column::from_strs(["b"])).contains("Indexed"));
        assert!(choose(&held_names, &held_names).contains("Strings"));
        assert!(Membership::choose(&held_names, &right(1)).is_none());
        // strings go with strings only
        let names = Column::from_strs(["a"]);
        assert!(choose(&names, &names).contains("Strings"));
        assert!(Membership::choose(&names, &narrow).is_none());
        assert!(Membership::choose(&dense, &names).is_none());
    }

    #[test]
    fn join_null_keys_do_not_match() {
        use crate::column::ColumnBuilder;
        use crate::types::LogicalType;
        let mut cb = ColumnBuilder::new(LogicalType::Oid);
        cb.push(&Value::Oid(Oid(1)));
        cb.push(&Value::Nil);
        let l = Bat::new(Column::from_oids(vec![0, 1]), cb.finish(), Props::default());
        let r = Bat::new(
            Column::from_oids(vec![1]),
            Column::from_ints(vec![42]),
            Props::default(),
        );
        let j = join(&l, &r).unwrap();
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn join_type_mismatch_errors() {
        let l = Bat::from_tail(Column::from_strs(["a"]));
        let r = Bat::new(
            Column::from_oids(vec![0]),
            Column::from_ints(vec![1]),
            Props::default(),
        );
        // l.tail is str, r.head is oid (non-dense) → error
        let l2 = Bat::new(
            Column::from_oids(vec![0]),
            Column::from_strs(["x"]),
            Props::default(),
        );
        assert!(join(&l2, &r).is_err());
        let _ = l;
    }
}
