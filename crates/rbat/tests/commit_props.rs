//! Property test for `Catalog::commit`: the bulk column merge and the
//! delta-maintained join indices against a model that knows nothing of
//! either.
//!
//! A random script of commits — insert-only, delete-only, mixed, empty,
//! refused — runs through a `CatalogCell` over three tables and three join
//! indices (an `Int` key with dangling, repeated and NULL foreign keys, a
//! `Date` key where most keys repeat, and a self-referencing one), while
//! the test keeps every table as plain rows of `Value`s. After every
//! commit:
//!
//! * every column equals the model's rows pushed value by value through a
//!   `ColumnBuilder` — what `commit` did for every cell before it merged
//!   in bulk — in values, NULLs and properties;
//! * every index equals the one `add_join_index` builds from scratch over
//!   the model's rows, and the one the model derives by searching rows;
//! * the `CommitReport` equals the model's, field for field;
//! * every column of the committed table and every index on it has a
//!   `BatId` never seen before, and everything else keeps the one it had;
//! * the catalog snapshot pinned before the commit has not changed in any
//!   value, property or identity;
//! * every column and index has an accelerator slot, and the key index in
//!   it is never stale: a buffer the commit rewrote has a new, empty slot
//!   (the old index stays with the old buffer, out of reach of the new
//!   catalog), a buffer it left alone — or shared as it is, join-index
//!   upkeep case 3 — keeps its slot and the index built in it, and a
//!   join, semijoin or equality select answered through any index, old or
//!   new, is what a search of the model's rows gives. Every index is
//!   built by its first probe and by no later one.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use rbat::catalog::{CommitReport, JoinIndexDef};
use rbat::column::Accelerator;
use rbat::{
    ops, Bat, BatId, Catalog, CatalogCell, Column, ColumnBuilder, Date, LogicalType, Oid, Props,
    TableBuilder, TypedSlice, Value,
};

type Row = Vec<Value>;
type Schema = &'static [(&'static str, LogicalType)];

const TABLES: [(&str, Schema); 3] = [
    (
        "parent",
        &[
            ("pk", LogicalType::Int),
            ("day", LogicalType::Date),
            ("name", LogicalType::Str),
            ("score", LogicalType::Float),
            ("live", LogicalType::Bool),
        ],
    ),
    (
        "child",
        &[
            ("fk", LogicalType::Int),
            ("day", LogicalType::Date),
            ("note", LogicalType::Str),
            ("mark", LogicalType::Oid),
        ],
    ),
    (
        "tree",
        &[("id", LogicalType::Int), ("up", LogicalType::Int)],
    ),
];

/// `(name, from table, from column, to table, to key)`.
const INDICES: [[&str; 5]; 3] = [
    ["fk_idx", "child", "fk", "parent", "pk"],
    ["day_idx", "child", "day", "parent", "day"],
    ["tree_up", "tree", "up", "tree", "id"],
];

fn index_defs() -> Vec<JoinIndexDef> {
    INDICES
        .iter()
        .map(|[name, ft, fc, tt, tk]| JoinIndexDef {
            name: name.to_string(),
            from_table: ft.to_string(),
            from_column: fc.to_string(),
            to_table: tt.to_string(),
            to_key: tk.to_string(),
        })
        .collect()
}

fn schema_of(table: &str) -> Schema {
    TABLES.iter().find(|(n, _)| *n == table).expect("table").1
}

fn position(table: &str, column: &str) -> usize {
    let schema = schema_of(table);
    schema
        .iter()
        .position(|(n, _)| *n == column)
        .expect("column")
}

/// splitmix64: the script's only source of randomness.
struct Dice(u64);

impl Dice {
    fn roll(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.roll() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

const STRINGS: [&str; 8] = [
    "",
    "a",
    "wörld",
    "日本語のコメント",
    "x",
    "🦀",
    "a somewhat longer comment, to move the offsets along",
    "",
];

/// A value that may be staged into a column of type `ty`: NULL one time in
/// eight, keys from a domain small enough to repeat, dangle and resolve.
fn value(dice: &mut Dice, ty: LogicalType) -> Value {
    if dice.one_in(8) {
        return Value::Nil;
    }
    match ty {
        LogicalType::Int => match dice.below(16) {
            0 => Value::Int(i64::MIN),
            1 => Value::Int(-1),
            _ => Value::Int(dice.below(24) as i64),
        },
        LogicalType::Date => Value::Date(Date(10_000 - 3 + dice.below(7) as i32 * 3)),
        LogicalType::Str => Value::str(STRINGS[dice.below(STRINGS.len())]),
        LogicalType::Float => match dice.below(6) {
            0 => Value::Int(dice.below(5) as i64), // widened at commit
            1 => Value::Float(f64::NAN),
            2 => Value::Float(-0.0),
            _ => Value::Float(dice.below(9) as f64 / 4.0),
        },
        LogicalType::Bool => Value::Bool(dice.one_in(2)),
        LogicalType::Oid => Value::Oid(Oid(dice.below(1000) as u64)),
    }
}

/// A value no column of type `ty` accepts.
fn misfit(dice: &mut Dice, ty: LogicalType) -> Value {
    match ty {
        LogicalType::Int => Value::Float(1.0),
        LogicalType::Str => Value::Int(7),
        _ => Value::str(STRINGS[1 + dice.below(5)]),
    }
}

fn rows(dice: &mut Dice, table: &str, n: usize) -> Vec<Row> {
    let schema = schema_of(table);
    (0..n)
        .map(|_| schema.iter().map(|(_, ty)| value(dice, *ty)).collect())
        .collect()
}

/// What a column of type `ty` holds after `v` was committed into it.
fn stored(ty: LogicalType, v: &Value) -> Value {
    match (ty, v) {
        (LogicalType::Float, Value::Int(i)) => Value::Float(*i as f64),
        _ => v.clone(),
    }
}

/// The test's own database: rows of values and a version per table.
#[derive(Debug, Clone, Default)]
struct Model {
    tables: BTreeMap<&'static str, (Vec<Row>, u64)>,
}

/// A [`CommitReport`] with its BATs spelt out.
#[derive(Debug, PartialEq)]
struct Report {
    table: String,
    inserted: Vec<(String, BatContents)>,
    deleted: Vec<u64>,
    version: u64,
    rebuilt_indices: Vec<String>,
}

impl Model {
    fn rows(&self, table: &str) -> &[Row] {
        &self.tables[table].0
    }

    /// Apply a commit the slow way and say what its report must be.
    fn commit(&mut self, table: &'static str, inserts: &[Row], deletes: &[u64]) -> Report {
        let (rows, version) = self.tables.get_mut(table).expect("table");
        let mut report = Report {
            table: table.to_string(),
            inserted: Vec::new(),
            deleted: Vec::new(),
            version: *version,
            rebuilt_indices: Vec::new(),
        };
        if inserts.is_empty() && deletes.is_empty() {
            return report;
        }
        let schema = schema_of(table);
        let old_len = rows.len();
        let deleted: BTreeSet<u64> = deletes
            .iter()
            .copied()
            .filter(|&o| o < old_len as u64)
            .collect();
        let mut oid = 0;
        rows.retain(|_| {
            oid += 1;
            !deleted.contains(&(oid - 1))
        });
        let widened: Vec<Row> = inserts
            .iter()
            .map(|r| {
                r.iter()
                    .zip(schema)
                    .map(|(v, (_, ty))| stored(*ty, v))
                    .collect()
            })
            .collect();
        if !widened.is_empty() {
            for (ci, (name, _)) in schema.iter().enumerate() {
                let contents = BatContents {
                    head: (0..widened.len())
                        .map(|i| Value::Oid(Oid((old_len + i) as u64)))
                        .collect(),
                    tail: widened.iter().map(|r| r[ci].clone()).collect(),
                    props: Props::base_column(true),
                };
                report.inserted.push((name.to_string(), contents));
            }
        }
        rows.extend(widened);
        *version += 1;
        report.deleted = deleted.into_iter().collect();
        report.version = *version;
        report.rebuilt_indices = INDICES
            .iter()
            .filter(|[_, from, _, to, _]| *from == table || *to == table)
            .map(|[name, ..]| name.to_string())
            .collect();
        report
    }

    /// The catalog a bulk load of the model's rows gives: columns pushed
    /// value by value, indices built from scratch.
    fn load(&self) -> Catalog {
        let mut cat = Catalog::new();
        for (name, schema) in TABLES {
            let mut tb = TableBuilder::new(name);
            for (column, ty) in schema {
                tb = tb.column(column, *ty);
            }
            for row in self.rows(name) {
                tb.push_row(row);
            }
            cat.add_table(tb.finish());
        }
        for def in index_defs() {
            cat.add_join_index(def).unwrap();
        }
        cat
    }

    /// An index by definition: each referencing row points at the highest
    /// referenced row with an equal, non-NULL key.
    fn index(&self, [_, ft, fc, tt, tk]: [&str; 5]) -> Vec<Value> {
        let (fc, tk) = (position(ft, fc), position(tt, tk));
        let to = self.rows(tt);
        self.rows(ft)
            .iter()
            .map(|from| {
                let target = to
                    .iter()
                    .rposition(|r| !from[fc].is_nil() && r[tk] == from[fc]);
                target.map_or(Value::Nil, |oid| Value::Oid(Oid(oid as u64)))
            })
            .collect()
    }
}

/// Everything a BAT holds but its identity.
#[derive(Debug, Clone, PartialEq)]
struct BatContents {
    head: Vec<Value>,
    tail: Vec<Value>,
    props: Props,
}

fn contents(bat: &Bat) -> BatContents {
    assert_eq!(
        bat.tail().has_nulls(),
        bat.tail().iter_values().any(|v| v.is_nil())
    );
    BatContents {
        head: bat.head().iter_values().collect(),
        tail: bat.tail().iter_values().collect(),
        props: bat.props(),
    }
}

/// A catalog spelt out: per table its size, version and columns, then the
/// indices; every BAT with its identity.
#[derive(Debug, Clone, PartialEq)]
struct Dump {
    tables: BTreeMap<String, (usize, u64)>,
    bats: BTreeMap<String, (BatId, BatContents)>,
}

fn dump(cat: &Catalog) -> Dump {
    let mut d = Dump {
        tables: BTreeMap::new(),
        bats: BTreeMap::new(),
    };
    for (name, schema) in TABLES {
        let t = cat.table(name).unwrap();
        d.tables.insert(name.to_string(), (t.nrows(), t.version()));
        for (column, _) in schema {
            let bat = cat.bind(name, column).unwrap();
            d.bats
                .insert(format!("{name}.{column}"), (bat.id(), contents(&bat)));
        }
    }
    for [name, ..] in INDICES {
        let bat = cat.bind_idx(name).unwrap();
        d.bats.insert(name.to_string(), (bat.id(), contents(&bat)));
    }
    d
}

fn spell_out(report: &CommitReport) -> Report {
    Report {
        table: report.table.clone(),
        inserted: report
            .inserted
            .iter()
            .map(|(name, bat)| (name.clone(), contents(bat)))
            .collect(),
        deleted: report.deleted.clone(),
        version: report.version,
        rebuilt_indices: report.rebuilt_indices.clone(),
    }
}

/// Every persistent BAT of a catalog, under the names [`dump`] uses.
fn persistent_bats(cat: &Catalog) -> BTreeMap<String, Arc<Bat>> {
    let mut bats = BTreeMap::new();
    for (name, schema) in TABLES {
        for (column, _) in schema {
            bats.insert(format!("{name}.{column}"), cat.bind(name, column).unwrap());
        }
    }
    for [name, ..] in INDICES {
        bats.insert(name.to_string(), cat.bind_idx(name).unwrap());
    }
    bats
}

/// The accelerator slot of a persistent BAT: on its tail, and always
/// there, but for a tail that is a dense run (an OID column a commit left
/// empty), which is its own index.
fn slot(bat: &Bat) -> Option<&Accelerator> {
    let slot = bat.tail().accelerator();
    assert_eq!(
        slot.is_none(),
        matches!(bat.tail().typed(), TypedSlice::Dense { .. })
    );
    slot
}

/// Is the key index there, and how often was it built?
fn index_state(bat: &Bat) -> Option<(bool, usize)> {
    slot(bat).map(|slot| (slot.is_built(), slot.builds()))
}

/// Join, semijoin and equality select through the key index of `bat`'s
/// tail — the join builds it if it is not there — against a search of the
/// values: for a few keys the column holds and one it may not, which rows
/// hold them.
fn index_answers_as_a_search(bat: &Bat, dice: &mut Dice) -> Result<(), TestCaseError> {
    let ty = bat.tail_type();
    let values: Vec<Value> = bat.tail().iter_values().collect();
    let mut keys = vec![value(dice, ty)];
    for _ in 0..values.len().min(3) {
        keys.push(values[dice.below(values.len())].clone());
    }
    keys.retain(|v| !v.is_nil());
    keys.iter_mut().for_each(|v| *v = stored(ty, v));
    let oid = |row: usize| Value::Oid(Oid(row as u64));

    let mut cb = ColumnBuilder::new(ty);
    keys.iter().for_each(|k| cb.push(k));
    let key_column = cb.finish();
    let reversed = bat.reverse();
    let joined = ops::join(&Bat::from_tail(key_column.clone()), &reversed).unwrap();
    prop_assert!(index_state(bat).is_none_or(|(built, _)| built));
    let mut want = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        want.extend(
            (0..values.len())
                .filter(|&j| values[j] == *key)
                .map(|j| (oid(i), oid(j))),
        );
    }
    let got: Vec<(Value, Value)> = (0..joined.len()).map(|i| joined.tuple(i)).collect();
    prop_assert_eq!(got, want, "join through the index");

    let right = Bat::new(key_column, Column::dense(0, keys.len()), Props::default());
    let members = ops::semijoin(&reversed, &right).unwrap();
    let want: Vec<Value> = (0..values.len())
        .filter(|&j| keys.contains(&values[j]))
        .map(oid)
        .collect();
    prop_assert_eq!(members.tail().iter_values().collect::<Vec<_>>(), want);

    for key in &keys {
        // (one value may be two words and the other way round only in a
        // float column, which an equality select scans)
        let same = |v: &Value| match (v, key) {
            (Value::Float(x), Value::Float(y)) => x == y,
            _ => v == key,
        };
        let want: Vec<Value> = (0..values.len())
            .filter(|&j| same(&values[j]))
            .map(oid)
            .collect();
        let selected = ops::uselect(bat, key).unwrap();
        prop_assert_eq!(selected.head().iter_values().collect::<Vec<_>>(), want);
    }
    prop_assert!(
        index_state(bat).is_none_or(|(_, builds)| builds == 1),
        "built once"
    );
    Ok(())
}

/// Is the BAT `name` (a `table.column` or an index) touched by a commit
/// to `table`?
fn touched(name: &str, table: &str) -> bool {
    match INDICES.iter().find(|[index, ..]| *index == name) {
        Some([_, from, _, to, _]) => *from == table || *to == table,
        None => name.split('.').next() == Some(table),
    }
}

/// Staged deletes of a table of `nrows` rows: a few OIDs with repeats and
/// some past the end, now and then a whole stretch or everything.
fn deletes(dice: &mut Dice, nrows: usize) -> Vec<u64> {
    match dice.below(10) {
        0 => (0..nrows as u64 + 2).collect(),
        1 if nrows > 0 => {
            let from = dice.below(nrows);
            let len = dice.below(70);
            (from..from + len).map(|o| o as u64).rev().collect()
        }
        _ => (0..1 + dice.below(6))
            .map(|_| dice.below(nrows + 3) as u64)
            .flat_map(|o| std::iter::repeat_n(o, if o % 3 == 0 { 2 } else { 1 }))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn commit_equals_the_per_value_model(seed in 0u64..u64::MAX) {
        let mut dice = Dice(seed);
        let mut model = Model::default();
        for (name, _) in TABLES {
            // sizes on both sides of a validity word
            let n = [0, 5, 63, 64, 65, 130][dice.below(6)] + dice.below(3);
            model.tables.insert(name, (rows(&mut dice, name, n), 0));
        }
        let cell = CatalogCell::new(model.load());
        let mut seen: BTreeSet<BatId> = BTreeSet::new();
        // every slot starts empty; every index is built before the first commit
        for bat in persistent_bats(&cell.snapshot()).values() {
            prop_assert!(index_state(bat).is_none_or(|state| state == (false, 0)));
            index_answers_as_a_search(bat, &mut dice)?;
        }

        for step in 0..14 {
            let table = TABLES[dice.below(TABLES.len())].0;
            let nrows = model.rows(table).len();
            let (n_ins, del) = match dice.below(8) {
                0 => (0, Vec::new()),
                1 | 2 => (1 + dice.below(6), Vec::new()),
                3 => (60 + dice.below(10), Vec::new()),
                4 | 5 => (0, deletes(&mut dice, nrows)),
                _ => (1 + dice.below(6), deletes(&mut dice, nrows)),
            };
            let ins = rows(&mut dice, table, n_ins);
            let what = format!("seed {seed} step {step}: {table} +{n_ins} -{del:?}");

            let (epoch, pinned) = cell.pinned();
            let before = dump(&pinned);
            let held = persistent_bats(&pinned);
            seen.extend(before.bats.values().map(|(id, _)| *id));

            // a misfit anywhere in the batch refuses all of it
            if n_ins > 0 && dice.one_in(6) {
                let (r, c) = (dice.below(n_ins), dice.below(schema_of(table).len()));
                let mut bad = ins.clone();
                bad[r][c] = misfit(&mut dice, schema_of(table)[c].1);
                prop_assert!(cell.update(table, bad, del.clone()).is_err(), "{what}");
                prop_assert_eq!(cell.epoch(), epoch, "{}", what);
                prop_assert_eq!(&dump(&cell.snapshot()), &before, "{}", what);
            }

            let report = cell.update(table, ins.clone(), del.clone());
            let report = report.map_err(|e| TestCaseError::fail(format!("{what}: {e}")))?;
            let expected = model.commit(table, &ins, &del);
            prop_assert_eq!(&spell_out(&report), &expected, "{}", what);

            // the pinned snapshot is as it was
            prop_assert_eq!(&dump(&pinned), &before, "{}", what);
            prop_assert_eq!(cell.epoch(), epoch + 1, "{}", what);

            let after = dump(&cell.snapshot());
            let oracle = dump(&model.load());
            for (name, (nrows, version)) in &after.tables {
                let (rows, model_version) = &model.tables[name.as_str()];
                prop_assert_eq!((*nrows, *version), (rows.len(), *model_version), "{}", what);
            }
            for (name, (id, bat)) in &after.bats {
                prop_assert_eq!(bat, &oracle.bats[name].1, "{}: {}", what, name);
                let fresh = touched(name, table) && expected.version != before.tables[table].1;
                if fresh {
                    prop_assert!(!seen.contains(id), "{what}: {name} kept or reused a BatId");
                } else {
                    prop_assert_eq!(*id, before.bats[name].0, "{}: {} re-identified", what, name);
                }
            }
            for index in INDICES {
                prop_assert_eq!(&after.bats[index[0]].1.tail, &model.index(index), "{}", what);
            }

            // a key index belongs to its buffer: what the commit rewrote
            // starts with an empty slot, what it did not keeps its index
            for (name, bat) in &persistent_bats(&cell.snapshot()) {
                let kept_slot = match (slot(bat), slot(&held[name])) {
                    (Some(new), Some(old)) => std::ptr::eq(new, old),
                    _ => false,
                };
                if bat.id() == held[name].id() {
                    let kept_slot = kept_slot || slot(bat).is_none();
                    prop_assert!(kept_slot, "{what}: {name} lost its slot");
                } else if kept_slot {
                    // join-index upkeep case 3: the same immutable words
                    let shared = INDICES.iter().any(|[index, _, _, to, _]| index == name && *to == table);
                    prop_assert!(shared, "{what}: {name} was rewritten and kept its slot");
                    prop_assert_eq!(&after.bats[name].1.tail, &before.bats[name].1.tail, "{}", what);
                } else {
                    let empty = index_state(bat).is_none_or(|state| state == (false, 0));
                    prop_assert!(empty, "{what}: {name} was rewritten and has an index");
                }
                let built = index_state(bat).is_none_or(|(built, _)| built == kept_slot);
                prop_assert!(built, "{what}: {name}");
                index_answers_as_a_search(bat, &mut dice)?;
                // the old buffer's index still answers for the old buffer
                index_answers_as_a_search(&held[name], &mut dice)?;
            }
        }
    }
}

/// Eight threads come for the key index of one fresh column at the same
/// moment (a barrier lets them go), through the three kernels that use it:
/// one of them builds it, the others wait for that build, and all get the
/// answer a scan gives. Fifty columns, so that the race is run, not hoped
/// for.
#[test]
fn key_index_is_built_once_under_contention() {
    const THREADS: usize = 8;
    const ROWS: u64 = 4_000;
    let right = Bat::new(
        Column::from_oids(vec![7, 3, 7, 99, 1 << 40]),
        Column::dense(0, 5),
        Props::default(),
    );
    let keys = Bat::from_tail(Column::from_oids(vec![99, 5]));
    for round in 0..50 {
        let words = |i: u64| (i * 40_507 + round) % 100;
        let scanned = Bat::from_tail(Column::from_oids((0..ROWS).map(words).collect()));
        let held = Bat::from_tail(scanned.tail().clone().persistent());
        let (scanned, held) = (scanned.reverse(), held.reverse());
        let want = (
            ops::semijoin(&scanned, &right).unwrap().canonical_tuples(),
            ops::diff(&scanned, &right).unwrap().canonical_tuples(),
            ops::join(&keys, &scanned).unwrap().canonical_tuples(),
        );
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (held, right, keys, want, barrier) = (&held, &right, &keys, &want, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    match thread % 3 {
                        0 => assert_eq!(
                            ops::semijoin(held, right).unwrap().canonical_tuples(),
                            want.0
                        ),
                        1 => assert_eq!(ops::diff(held, right).unwrap().canonical_tuples(), want.1),
                        _ => assert_eq!(ops::join(keys, held).unwrap().canonical_tuples(), want.2),
                    }
                });
            }
        });
        let slot = held.head().accelerator().expect("a persistent column");
        assert!(slot.is_built());
        assert_eq!(slot.builds(), 1, "round {round}");
    }
}
