//! The SQL catalog: persistent tables, join indices and update processing.
//!
//! # What a commit costs
//!
//! [`Catalog::commit`] merges a table's staged delta the way MonetDB merges
//! delta BATs: in bulk, column at a time. A commit of `d` staged rows into a
//! table of `n` rows costs **one copy of each column plus O(d)**:
//!
//! * every column becomes *surviving row ranges ++ inserted rows* through
//!   [`Column::concat_ranges`] — one exact-size allocation and one slice
//!   copy per range, no value looked at. Boxed [`Value`]s exist only for
//!   the `d` staged rows;
//! * every join index touching the table is brought up to date from its
//!   previous state (below) instead of being rebuilt with a fresh hash
//!   table over both sides.
//!
//! Every column of the table and every maintained index is nevertheless a
//! **fresh [`Bat`] with a new [`crate::BatId`]** after a commit, and every
//! maintained index is listed in [`CommitReport::rebuilt_indices`]: the
//! recycler's invalidation and versioned signatures key on exactly that.
//!
//! # Join-index upkeep
//!
//! An index maps each row of the *referencing* table to the OID of the row
//! of the *referenced* table holding its key, or Nil. Beside the index the
//! catalog keeps the referenced column's key → OID map (`Arc`-shared
//! between catalog snapshots). The four ways a commit can touch an index:
//!
//! 1. **insert into the referencing table** — the old index is extended
//!    by one map lookup per new row;
//! 2. **delete from the referencing table** — the old index's surviving
//!    row ranges are copied, like any column;
//! 3. **insert into the referenced table** — the map is extended; only if
//!    the index has dangling entries, or a new key repeats an old one, is
//!    the referencing column scanned for the new keys; otherwise the old
//!    index buffer is shared as it is;
//! 4. **delete from the referenced table** — the map is rebuilt from the
//!    compacted key column and the index is remapped in one pass: a target
//!    OID drops by the number of deleted rows below it, and a deleted
//!    target becomes Nil.
//!
//! **Dangling keys and repeated keys.** A foreign key with no matching row
//! is *dangling*: its entry is Nil until a commit inserts the key (case 3).
//! When several rows of the referenced table hold the same key the index
//! points at the one with the highest OID — what building it from scratch
//! does — so a newly inserted repeat takes over the entries (case 3) and a
//! deleted target hands them to the highest surviving repeat (case 4).
//! An index whose two sides are the same table is rebuilt from scratch.
//!
//! # Accelerators
//!
//! MonetDB keeps hash accelerators on persistent BATs (paper §2) and hands
//! only intermediates to the recycler (§3). Here too: every **persistent
//! column** — the tail of a table column's BAT and of a join index's BAT,
//! as made at load ([`TableBuilder::finish`]), by
//! [`Catalog::add_join_index`], and for every column and index a commit
//! rewrites — has an *accelerator slot* ([`crate::column::Accelerator`]):
//! an `Arc`-shared, lazily filled cell for the **key index** of that
//! buffer (key word → ascending rows; the structure a join builds over its
//! right head). [`crate::ops`] says which kernels come for it and when the
//! first of them builds it; a slot is empty until then, so loading and
//! committing cost what they did.
//!
//! * **Who owns a slot.** The buffer it was made for, and nothing else: it
//!   is created with the column, by the catalog, in one place, and an
//!   index is reachable only through a column over that buffer.
//! * **What carries it.** Whatever shows the whole buffer: clones of the
//!   column (`Arc<Bat>` clones, catalog clones and snapshots,
//!   [`Bat::reverse`], [`Bat::mirror`]) share the one slot — built through
//!   any of them, built for all. Anything computed has none: a sub-window
//!   ([`Column::slice`]), a gather, every operator's output. Dense heads
//!   have none either; a dense run is its own index.
//! * **Why it cannot be stale.** A buffer never changes, and a commit that
//!   rewrites a column makes a new buffer with a new, empty slot; the old
//!   index stays with the old buffer for the snapshots that still read it
//!   and goes when they do. No invalidation, no eviction, no epoch. A
//!   buffer a commit shares as it is (upkeep case 3) keeps its slot: it
//!   indexes the same immutable words.
//! * **Whose bytes.** The catalog's, like the column's: an index is in no
//!   `resident_bytes()` and so in no byte total of the recycle pool —
//!   the pool's limit bounds intermediates.
//!   [`crate::column::Accelerator::byte_size`] reports them (u32 rows and
//!   offsets: ~6 bytes per row of a foreign-key column), one index per
//!   column actually probed.
//!
//! `tests/commit_props.rs` holds all four to a model after every commit of
//! a random script, and eight threads to one build.
//!
//! # Generations
//!
//! Every change to what a catalog binds — [`Catalog::add_table`],
//! [`Catalog::add_join_index`], a [`Catalog::commit`] that merges a
//! non-empty delta — gives it a fresh [`Catalog::generation`], drawn from
//! one process-wide counter; clones and [`CatalogCell`] snapshots copy it.
//! So two catalogs with the same generation bind the same BATs: whoever
//! remembers what a query found in one may trust it in the other, and
//! nowhere else.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use crate::bat::Bat;
use crate::bitmap::Bitmap;
use crate::buffer::TypedSlice;
use crate::column::{Column, ColumnBuilder};
use crate::delta::{Row, TableDelta};
use crate::error::{BatError, Result};
use crate::hash::FxHashMap;
use crate::ops::for_each_u64_key;
use crate::props::Props;
use crate::types::{LogicalType, Value};

/// A persistent table: one BAT per column, all with identical dense heads.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Vec<(String, LogicalType)>,
    columns: BTreeMap<String, Arc<Bat>>,
    nrows: usize,
    next_oid: u64,
    delta: TableDelta,
    version: u64,
}

impl Table {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Schema as `(column, type)` pairs in definition order.
    pub fn schema(&self) -> &[(String, LogicalType)] {
        &self.schema
    }

    /// Number of live rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Monotone version, bumped on every commit; the recycler uses it to
    /// detect staleness.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Column BAT by name.
    pub fn column(&self, name: &str) -> Result<Arc<Bat>> {
        self.columns
            .get(name)
            .cloned()
            .ok_or_else(|| BatError::not_found("column", format!("{}.{}", self.name, name)))
    }

    fn column_type(&self, name: &str) -> Option<LogicalType> {
        self.schema.iter().find(|(n, _)| n == name).map(|(_, t)| *t)
    }
}

/// Declarative definition of a foreign-key join index: maps every row of
/// `from_table` (via `from_column` values) to the OID of the row in
/// `to_table` whose `to_key` column holds that value. Kept up to date by
/// every commit to either table (see the module docs).
#[derive(Debug, Clone)]
pub struct JoinIndexDef {
    /// Index name used by `sql.bindIdxbat`.
    pub name: String,
    /// Referencing table.
    pub from_table: String,
    /// Foreign-key column in the referencing table.
    pub from_column: String,
    /// Referenced table.
    pub to_table: String,
    /// Key column in the referenced table.
    pub to_key: String,
}

/// Builder for bulk-loading a [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Vec<(String, LogicalType)>,
    builders: Vec<ColumnBuilder>,
}

impl TableBuilder {
    /// Start a table definition.
    pub fn new(name: &str) -> TableBuilder {
        TableBuilder {
            name: name.to_string(),
            schema: Vec::new(),
            builders: Vec::new(),
        }
    }

    /// Add a column.
    pub fn column(mut self, name: &str, ty: LogicalType) -> TableBuilder {
        self.schema.push((name.to_string(), ty));
        self.builders.push(ColumnBuilder::new(ty));
        self
    }

    /// Append a row (values in schema order).
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.schema.len(), "row arity mismatch");
        for (b, v) in self.builders.iter_mut().zip(row) {
            b.push(v);
        }
    }

    /// Finish into a [`Table`].
    pub fn finish(self) -> Table {
        let nrows = self.builders.first().map(|b| b.len()).unwrap_or(0);
        let mut columns = BTreeMap::new();
        for ((name, _), b) in self.schema.iter().zip(self.builders) {
            assert_eq!(b.len(), nrows, "ragged column {name}");
            columns.insert(name.clone(), persistent_bat(b.finish()));
        }
        Table {
            name: self.name,
            schema: self.schema,
            columns,
            nrows,
            next_oid: nrows as u64,
            delta: TableDelta::default(),
            version: 0,
        }
    }
}

/// What a [`Catalog::commit`] did — consumed by the recycler to synchronise
/// the recycle pool (invalidation of what derives from the rewritten
/// columns, paper §6.4).
#[derive(Debug, Clone)]
pub struct CommitReport {
    /// Updated table.
    pub table: String,
    /// Per-column BATs of the appended rows; heads are the fresh OIDs.
    /// Empty when nothing was inserted.
    pub inserted: Vec<(String, Arc<Bat>)>,
    /// OIDs that were deleted (pre-compaction ids).
    pub deleted: Vec<u64>,
    /// New table version.
    pub version: u64,
    /// Names of join indices that were rebuilt as a consequence.
    pub rebuilt_indices: Vec<String>,
}

/// Key word (see [`for_each_u64_key`]) → OID of the highest row of a
/// referenced key column that holds it.
type KeyMap = FxHashMap<u64, u64>;

/// A join index and the state it is maintained from.
#[derive(Debug, Clone)]
struct JoinIndex {
    /// Referencing row → OID of the referenced row, or Nil.
    bat: Arc<Bat>,
    /// The referenced key column's map, as of `bat`.
    keys: Arc<KeyMap>,
}

/// The catalog: named tables plus derived join indices.
///
/// Cloning a catalog is cheap-ish (column BATs are `Arc`-shared) and gives
/// an independent update domain — the experiment harness clones one
/// generated database to compare naive and recycled engines on identical
/// data.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    index_defs: Vec<JoinIndexDef>,
    indices: FxHashMap<String, JoinIndex>,
    /// Names this catalog's content (module docs, *Generations*).
    generation: u64,
}

/// The last generation handed out, process-wide (0: the empty catalog).
static GENERATIONS: AtomicU64 = AtomicU64::new(0);

fn next_generation() -> u64 {
    GENERATIONS.fetch_add(1, Ordering::Relaxed) + 1
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table (replacing any previous definition).
    pub fn add_table(&mut self, table: Table) {
        self.tables.insert(table.name().to_string(), table);
        self.generation = next_generation();
    }

    /// The catalog's generation: equal in two catalogs only if they bind
    /// the same BATs — a clone or snapshot of one, with no change since
    /// (module docs, *Generations*).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| BatError::not_found("table", name))
    }

    /// Iterate over all tables.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// `sql.bind`: the BAT of a persistent column. Returns the *shared*
    /// instance — repeated binds of an unchanged column yield the same
    /// [`crate::BatId`], which is what instruction matching relies on.
    pub fn bind(&self, table: &str, column: &str) -> Result<Arc<Bat>> {
        bind_in(&self.tables, table, column)
    }

    /// Register and build a join index (`sql.bindIdxbat` source).
    pub fn add_join_index(&mut self, def: JoinIndexDef) -> Result<()> {
        let index = build_index(&self.tables, &def)?;
        self.indices.insert(def.name.clone(), index);
        self.index_defs.push(def);
        self.generation = next_generation();
        Ok(())
    }

    /// `sql.bindIdxbat`: fetch a join index BAT by name.
    pub fn bind_idx(&self, name: &str) -> Result<Arc<Bat>> {
        self.indices
            .get(name)
            .map(|index| Arc::clone(&index.bat))
            .ok_or_else(|| BatError::not_found("index", name))
    }

    /// Stage row inserts (takes effect at [`Catalog::commit`]). Every row
    /// is checked against the schema first — arity, then each value's
    /// type: the column's own, Nil, or an `Int` for a `Float` column
    /// (widened at commit) — and nothing is staged unless all rows pass.
    pub fn append(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| BatError::not_found("table", table))?;
        for r in &rows {
            if r.len() != t.schema.len() {
                return Err(BatError::InvalidUpdate(format!(
                    "row arity {} vs schema {}",
                    r.len(),
                    t.schema.len()
                )));
            }
            for (v, (cname, cty)) in r.iter().zip(&t.schema) {
                if !accepts(*cty, v) {
                    return Err(BatError::InvalidUpdate(format!(
                        "value {v} does not fit column {table}.{cname} of type {cty}"
                    )));
                }
            }
        }
        t.delta.inserts.extend(rows);
        Ok(())
    }

    /// Stage row deletions by OID.
    pub fn delete(&mut self, table: &str, oids: Vec<u64>) -> Result<()> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| BatError::not_found("table", table))?;
        t.delta.deletes.extend(oids);
        Ok(())
    }

    /// Merge the staged deltas of `table` into its persistent columns,
    /// bump the version and the generation, bring dependent join indices up to date and report
    /// what changed. Deletions compact OIDs (documented engine policy).
    ///
    /// Cost: one bulk copy of each column of the table plus work
    /// proportional to the staged delta; indices are maintained from their
    /// previous state, not rebuilt (module docs: the cost model, the four
    /// upkeep cases and the dangling-key rule). Every column of the table
    /// and every index on it comes out as a fresh BAT with a new
    /// [`crate::BatId`], whether or not its contents changed.
    pub fn commit(&mut self, table: &str) -> Result<CommitReport> {
        let Catalog {
            tables,
            index_defs,
            indices,
            generation,
        } = self;
        let t = tables
            .get_mut(table)
            .ok_or_else(|| BatError::not_found("table", table))?;
        if t.delta.is_empty() {
            return Ok(CommitReport {
                table: table.to_string(),
                inserted: Vec::new(),
                deleted: Vec::new(),
                version: t.version,
                rebuilt_indices: Vec::new(),
            });
        }
        // from here on the catalog binds other BATs, even should the
        // index upkeep below fail half way
        *generation = next_generation();
        let TableDelta {
            inserts,
            deletes: mut deleted,
        } = std::mem::take(&mut t.delta);
        deleted.sort_unstable();
        deleted.dedup();
        deleted.truncate(deleted.partition_point(|&o| o < t.nrows as u64));
        let survivors = surviving_runs(t.nrows, &deleted);
        let kept = t.nrows - deleted.len();

        // Per-column BATs of the inserted rows — `merge_column` appends
        // their tails, the join-index upkeep reads them, the report hands
        // them out: the only place boxed values are looked at.
        let insert_base = t.next_oid;
        let mut inserted: Vec<(String, Arc<Bat>)> = Vec::new();
        if !inserts.is_empty() {
            for (ci, (cname, cty)) in t.schema.iter().enumerate() {
                let mut cb = ColumnBuilder::new(*cty);
                for row in &inserts {
                    cb.push(&row[ci]);
                }
                let tail = cb.finish();
                let head = Column::dense(insert_base, tail.len());
                let bat = Bat::new(head, tail, Props::base_column(true));
                inserted.push((cname.clone(), Arc::new(bat)));
            }
        }

        // Each column: surviving ranges of the old one ++ its inserted rows.
        let mut columns = BTreeMap::new();
        for (ci, (cname, _)) in t.schema.iter().enumerate() {
            let old = t.columns.get(cname).expect("schema/columns in sync");
            let appended = inserted.get(ci).map(|(_, ins)| ins.tail());
            let tail = merge_column(old.tail(), &survivors, appended);
            columns.insert(cname.clone(), persistent_bat(tail));
        }
        let old_columns = std::mem::replace(&mut t.columns, columns);
        t.nrows = kept + inserts.len();
        t.next_oid = t.nrows as u64;
        t.version += 1;
        let version = t.version;

        // Bring the join indices on either side of this table up to date.
        let mut rebuilt = Vec::new();
        for def in index_defs.iter() {
            let index = if def.from_table == table && def.to_table == table {
                build_index(tables, def)?
            } else if def.from_table == table {
                let old = indices.get(&def.name).expect("defs/indices in sync");
                let new_fks = inserted.iter().find(|(n, _)| *n == def.from_column);
                index_after_referencing_change(old, &survivors, new_fks.map(|(_, b)| b.tail()))?
            } else if def.to_table == table {
                let old = indices.get(&def.name).expect("defs/indices in sync");
                let old_keys = old_columns.get(&def.to_key).ok_or_else(|| {
                    BatError::not_found("column", format!("{table}.{}", def.to_key))
                })?;
                index_after_referenced_change(
                    old,
                    bind_in(tables, &def.from_table, &def.from_column)?.tail(),
                    old_keys.tail(),
                    bind_in(tables, table, &def.to_key)?.tail(),
                    &deleted,
                    &survivors,
                )?
            } else {
                continue;
            };
            indices.insert(def.name.clone(), index);
            rebuilt.push(def.name.clone());
        }

        Ok(CommitReport {
            table: table.to_string(),
            inserted,
            deleted,
            version,
            rebuilt_indices: rebuilt,
        })
    }

    /// Total bytes resident in persistent columns (diagnostics).
    pub fn resident_bytes(&self) -> usize {
        self.tables
            .values()
            .flat_map(|t| t.columns.values())
            .map(|b| b.resident_bytes())
            .sum()
    }

    /// The definition of a registered join index (the recycler derives the
    /// index's base-column lineage from this).
    pub fn index_def(&self, name: &str) -> Option<&JoinIndexDef> {
        self.index_defs.iter().find(|d| d.name == name)
    }

    /// Convenience for tests and generators: fetch a column's logical type.
    pub fn column_type(&self, table: &str, column: &str) -> Result<LogicalType> {
        self.table(table)?
            .column_type(column)
            .ok_or_else(|| BatError::not_found("column", format!("{table}.{column}")))
    }
}

/// The BAT of a persistent column — a table column or a join index: a
/// dense head, `tail`, and an accelerator slot on `tail`'s buffer (module
/// docs, *Accelerators*). A tail that already has a slot — a buffer an
/// index upkeep shares as it is — keeps it.
fn persistent_bat(tail: Column) -> Arc<Bat> {
    Arc::new(Bat::from_tail(tail.persistent()))
}

fn bind_in(tables: &BTreeMap<String, Table>, table: &str, column: &str) -> Result<Arc<Bat>> {
    tables
        .get(table)
        .ok_or_else(|| BatError::not_found("table", table))?
        .column(column)
}

/// May `v` be staged into a column of type `ty`?
fn accepts(ty: LogicalType, v: &Value) -> bool {
    match v.logical_type() {
        Some(vty) => vty == ty || (vty == LogicalType::Int && ty == LogicalType::Float),
        None => v.is_nil(),
    }
}

/// The maximal row ranges of `0..nrows` that avoid `deleted` (sorted,
/// distinct, in range).
fn surviving_runs(nrows: usize, deleted: &[u64]) -> Vec<Range<usize>> {
    let mut runs = Vec::with_capacity(deleted.len() + 1);
    let mut next = 0;
    for &d in deleted {
        let d = d as usize;
        if d > next {
            runs.push(next..d);
        }
        next = d + 1;
    }
    if nrows > next {
        runs.push(next..nrows);
    }
    runs
}

/// `survivors` of `old`, then `appended`: the post-commit state of a column.
fn merge_column(old: &Column, survivors: &[Range<usize>], appended: Option<&Column>) -> Column {
    let mut parts: Vec<(&Column, Range<usize>)> =
        survivors.iter().map(|run| (old, run.clone())).collect();
    if let Some(appended) = appended {
        parts.push((appended, 0..appended.len()));
    }
    Column::concat_ranges(old.logical_type(), &parts)
}

/// The stand-in for Nil while index targets are plain words.
const NO_TARGET: u64 = u64::MAX;

/// An index tail as plain words, Nil as [`NO_TARGET`].
fn targets_of(index_tail: &Column) -> Vec<u64> {
    let mut targets = match index_tail.typed() {
        TypedSlice::Oid(s) => s.to_vec(),
        TypedSlice::Dense { start, len } => (start..start + len as u64).collect(),
        _ => unreachable!("index tails are OID columns"),
    };
    if index_tail.has_nulls() {
        for (i, target) in targets.iter_mut().enumerate() {
            if !index_tail.is_valid(i) {
                *target = NO_TARGET;
            }
        }
    }
    targets
}

/// The inverse of [`targets_of`].
fn targets_column(mut targets: Vec<u64>) -> Column {
    if !targets.contains(&NO_TARGET) {
        return Column::from_oids(targets);
    }
    let mut valid = Bitmap::new(targets.len(), true);
    for (i, target) in targets.iter_mut().enumerate() {
        if *target == NO_TARGET {
            valid.set(i, false);
            *target = 0;
        }
    }
    Column::from_oids(targets).with_validity(valid)
}

/// [`for_each_u64_key`] over one side of a join index; string columns
/// (`what` says which side) cannot be indexed.
fn each_key(column: &Column, what: &'static str, f: impl FnMut(usize, u64)) -> Result<()> {
    if for_each_u64_key(column, f) {
        Ok(())
    } else {
        Err(BatError::type_mismatch(
            "join_index",
            format!("string {what} unsupported for indices"),
        ))
    }
}

/// Enter the keys of `key_column`'s rows, which sit at OIDs `base..`, into
/// `map`; a repeated key ends up at its highest OID.
fn extend_key_map(map: &mut KeyMap, key_column: &Column, base: usize) -> Result<()> {
    map.reserve(key_column.len());
    each_key(key_column, "keys", |i, k| {
        map.insert(k, (base + i) as u64);
    })
}

/// One index entry per row of `fks`: the OID `keys` holds for it, or Nil.
fn lookup_keys(fks: &Column, keys: &KeyMap) -> Result<Column> {
    let mut targets = vec![NO_TARGET; fks.len()];
    each_key(fks, "fk", |i, k| {
        if let Some(&oid) = keys.get(&k) {
            targets[i] = oid;
        }
    })?;
    Ok(targets_column(targets))
}

/// Build a join index from scratch: hash the referenced keys, look every
/// referencing row up. The constructor, the oracle the maintained indices
/// are tested against, and the fallback for a self-referencing index.
fn build_index(tables: &BTreeMap<String, Table>, def: &JoinIndexDef) -> Result<JoinIndex> {
    let from = bind_in(tables, &def.from_table, &def.from_column)?;
    let to = bind_in(tables, &def.to_table, &def.to_key)?;
    let mut keys = KeyMap::default();
    extend_key_map(&mut keys, to.tail(), 0)?;
    Ok(JoinIndex {
        bat: persistent_bat(lookup_keys(from.tail(), &keys)?),
        keys: Arc::new(keys),
    })
}

/// Upkeep cases 1 and 2 (module docs): the referencing table lost all but
/// `survivors` and gained rows whose foreign keys are `new_fks`.
fn index_after_referencing_change(
    old: &JoinIndex,
    survivors: &[Range<usize>],
    new_fks: Option<&Column>,
) -> Result<JoinIndex> {
    let appended = new_fks.map(|fks| lookup_keys(fks, &old.keys)).transpose()?;
    let tail = merge_column(old.bat.tail(), survivors, appended.as_ref());
    Ok(JoinIndex {
        bat: persistent_bat(tail),
        keys: Arc::clone(&old.keys),
    })
}

/// Upkeep cases 3 and 4 (module docs): the referenced key column went from
/// `old_keys` to `new_keys` by losing the rows `deleted`, which left
/// `survivors`, and then gaining rows at its end. `fks` is the referencing
/// column, which did not change.
fn index_after_referenced_change(
    old: &JoinIndex,
    fks: &Column,
    old_keys: &Column,
    new_keys: &Column,
    deleted: &[u64],
    survivors: &[Range<usize>],
) -> Result<JoinIndex> {
    let kept = old_keys.len() - deleted.len();
    let mut keys = Arc::clone(&old.keys);
    // `None` for as long as the old index tail can be shared as it is.
    let mut targets: Option<Vec<u64>> = None;

    if !deleted.is_empty() {
        let mut surviving = KeyMap::default();
        extend_key_map(&mut surviving, &new_keys.slice(0, kept), 0)?;
        // A deleted row hands its entries to the highest surviving row
        // with the same key, if there is one.
        let deleted_rows: Vec<u32> = deleted.iter().map(|&d| d as u32).collect();
        let mut heirs = vec![NO_TARGET; deleted.len()];
        each_key(&old_keys.gather(&deleted_rows), "keys", |j, k| {
            if let Some(&oid) = surviving.get(&k) {
                heirs[j] = oid;
            }
        })?;
        // Old OID → new OID: survivors close ranks, the deleted point at
        // their heirs.
        let mut moved = vec![NO_TARGET; old_keys.len()];
        for (new_oid, old_oid) in survivors.iter().cloned().flatten().enumerate() {
            moved[old_oid] = new_oid as u64;
        }
        for (&d, &heir) in deleted.iter().zip(&heirs) {
            moved[d as usize] = heir;
        }
        let mut remapped = targets_of(old.bat.tail());
        for target in remapped.iter_mut().filter(|t| **t != NO_TARGET) {
            *target = moved[*target as usize];
        }
        targets = Some(remapped);
        keys = Arc::new(surviving);
    }

    if new_keys.len() > kept {
        let mut gained = KeyMap::default();
        extend_key_map(
            &mut gained,
            &new_keys.slice(kept, new_keys.len() - kept),
            kept,
        )?;
        // Only a dangling entry, or an entry of a key that is now repeated
        // at a higher OID, can be waiting for one of the new rows.
        let nils = match &targets {
            Some(targets) => targets.iter().filter(|t| **t == NO_TARGET).count(),
            None => old.bat.tail().null_count(),
        };
        let dangling = nils > fks.null_count();
        let repeated = gained.keys().any(|k| keys.contains_key(k));
        if dangling || repeated {
            let targets = targets.get_or_insert_with(|| targets_of(old.bat.tail()));
            each_key(fks, "fk", |i, k| {
                if let Some(&oid) = gained.get(&k) {
                    targets[i] = oid;
                }
            })?;
        }
        Arc::make_mut(&mut keys).extend(gained);
    }

    let tail = match targets {
        Some(targets) => targets_column(targets),
        None => old.bat.tail().clone(),
    };
    Ok(JoinIndex {
        bat: persistent_bat(tail),
        keys,
    })
}

/// An epoch-style bind snapshot over a shared catalog: many reader
/// sessions, one committing writer, no reader ever blocked on a commit.
///
/// The cell holds the current catalog behind an `Arc` swapped atomically
/// at commit time. Readers pin an epoch with [`CatalogCell::pinned`] —
/// a cheap `Arc` clone under a briefly-held read lock — and keep probing,
/// executing and admitting against that consistent pre-commit view for as
/// long as they like (column BATs are immutable and `Arc`-shared, so a
/// snapshot stays valid forever). A writer serialises on the cell's
/// writer mutex, builds the next catalog *off to the side* (clones are
/// `Arc`-backed and cheap), and publishes it with a pointer swap — the
/// only instant readers can contend is the swap itself, never the commit
/// work, and a commit to one table never blocks sessions reading others.
#[derive(Debug)]
pub struct CatalogCell {
    current: RwLock<Arc<Catalog>>,
    epoch: AtomicU64,
    /// Single-writer discipline: commits serialise here, keeping version
    /// bumps and epoch publication totally ordered.
    writer: Mutex<()>,
}

impl CatalogCell {
    /// Wrap a catalog for shared multi-session access at epoch 0.
    pub fn new(catalog: Catalog) -> Arc<CatalogCell> {
        Arc::new(CatalogCell {
            current: RwLock::new(Arc::new(catalog)),
            epoch: AtomicU64::new(0),
            writer: Mutex::new(()),
        })
    }

    /// The current epoch (bumped once per published commit).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current catalog snapshot.
    pub fn snapshot(&self) -> Arc<Catalog> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Epoch and snapshot, read consistently (one read-lock critical
    /// section — a concurrent commit lands either entirely before or
    /// entirely after).
    pub fn pinned(&self) -> (u64, Arc<Catalog>) {
        let cur = self.current.read().unwrap_or_else(PoisonError::into_inner);
        (self.epoch.load(Ordering::Acquire), Arc::clone(&cur))
    }

    /// Stage `inserts`/`deletes` on `table` and commit, publishing the
    /// post-commit catalog as a new epoch. Readers holding pre-commit
    /// snapshots are unaffected; they observe the new epoch at their next
    /// [`CatalogCell::pinned`].
    pub fn update(
        &self,
        table: &str,
        inserts: Vec<Row>,
        deletes: Vec<u64>,
    ) -> Result<CommitReport> {
        let _w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let mut next: Catalog = (*self.snapshot()).clone();
        if !inserts.is_empty() {
            next.append(table, inserts)?;
        }
        if !deletes.is_empty() {
            next.delete(table, deletes)?;
        }
        let report = next.commit(table)?;
        let mut cur = self.current.write().unwrap_or_else(PoisonError::into_inner);
        *cur = Arc::new(next);
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Oid;

    fn orders_lineitem() -> Catalog {
        let mut cat = Catalog::new();
        let mut ob = TableBuilder::new("orders")
            .column("o_orderkey", LogicalType::Int)
            .column("o_totalprice", LogicalType::Float);
        for (k, p) in [(100, 10.0), (200, 20.0), (300, 30.0)] {
            ob.push_row(&[Value::Int(k), Value::Float(p)]);
        }
        cat.add_table(ob.finish());
        let mut lb = TableBuilder::new("lineitem")
            .column("l_orderkey", LogicalType::Int)
            .column("l_qty", LogicalType::Int);
        for (k, q) in [(100, 1), (100, 2), (300, 3)] {
            lb.push_row(&[Value::Int(k), Value::Int(q)]);
        }
        cat.add_table(lb.finish());
        cat.add_join_index(JoinIndexDef {
            name: "li_fkey".into(),
            from_table: "lineitem".into(),
            from_column: "l_orderkey".into(),
            to_table: "orders".into(),
            to_key: "o_orderkey".into(),
        })
        .unwrap();
        cat
    }

    #[test]
    fn bind_is_shared() {
        let cat = orders_lineitem();
        let a = cat.bind("orders", "o_orderkey").unwrap();
        let b = cat.bind("orders", "o_orderkey").unwrap();
        assert_eq!(a.id(), b.id(), "bind must return the shared BAT");
    }

    #[test]
    fn join_index_maps_fk_to_oid() {
        let cat = orders_lineitem();
        let idx = cat.bind_idx("li_fkey").unwrap();
        assert_eq!(
            idx.tail().iter_values().collect::<Vec<_>>(),
            vec![Value::Oid(Oid(0)), Value::Oid(Oid(0)), Value::Oid(Oid(2))]
        );
    }

    #[test]
    fn append_commit_extends_columns() {
        let mut cat = orders_lineitem();
        let before = cat.bind("orders", "o_orderkey").unwrap();
        cat.append("orders", vec![vec![Value::Int(400), Value::Float(40.0)]])
            .unwrap();
        // staged, not yet visible
        assert_eq!(cat.table("orders").unwrap().nrows(), 3);
        let report = cat.commit("orders").unwrap();
        assert_eq!(cat.table("orders").unwrap().nrows(), 4);
        assert_eq!(report.version, 1);
        assert_eq!(report.inserted.len(), 2);
        let (name, ins) = &report.inserted[0];
        assert_eq!(name, "o_orderkey");
        assert_eq!(ins.head().value(0), Value::Oid(Oid(3)));
        let after = cat.bind("orders", "o_orderkey").unwrap();
        assert_ne!(before.id(), after.id(), "commit must re-identify columns");
        assert!(report.rebuilt_indices.contains(&"li_fkey".to_string()));
    }

    #[test]
    fn delete_compacts_and_reindexes() {
        let mut cat = orders_lineitem();
        cat.delete("orders", vec![0]).unwrap(); // drop orderkey 100
        let report = cat.commit("orders").unwrap();
        assert_eq!(report.deleted, vec![0]);
        assert_eq!(cat.table("orders").unwrap().nrows(), 2);
        let idx = cat.bind_idx("li_fkey").unwrap();
        // lineitems of deleted order now dangle → Nil
        let vals: Vec<Value> = idx.tail().iter_values().collect();
        assert_eq!(vals[0], Value::Nil);
        assert_eq!(vals[2], Value::Oid(Oid(1))); // order 300 shifted to oid 1
    }

    #[test]
    fn empty_commit_is_noop() {
        let mut cat = orders_lineitem();
        let before = cat.bind("orders", "o_orderkey").unwrap();
        let generation = cat.generation();
        let report = cat.commit("orders").unwrap();
        assert_eq!(report.version, 0);
        let after = cat.bind("orders", "o_orderkey").unwrap();
        assert_eq!(before.id(), after.id());
        assert_eq!(cat.generation(), generation, "nothing changed");
    }

    #[test]
    fn a_generation_names_what_the_catalog_binds() {
        let mut cat = orders_lineitem();
        let copy = cat.clone();
        assert_eq!(
            copy.generation(),
            cat.generation(),
            "a clone binds the same"
        );
        assert_ne!(orders_lineitem().generation(), cat.generation());
        cat.append("orders", vec![vec![Value::Int(400), Value::Float(4.0)]])
            .unwrap();
        assert_eq!(cat.generation(), copy.generation(), "staged, not merged");
        cat.commit("orders").unwrap();
        assert_ne!(cat.generation(), copy.generation());
        // two catalogs diverging from one clone never meet again
        let mut other = copy.clone();
        other
            .append("orders", vec![vec![Value::Int(400), Value::Float(4.0)]])
            .unwrap();
        other.commit("orders").unwrap();
        assert_ne!(other.generation(), cat.generation());
        // a snapshot copies it; a commit through the cell moves it
        let cell = CatalogCell::new(copy.clone());
        assert_eq!(cell.snapshot().generation(), copy.generation());
        cell.update(
            "orders",
            vec![vec![Value::Int(500), Value::Float(5.0)]],
            vec![],
        )
        .unwrap();
        assert_ne!(cell.snapshot().generation(), copy.generation());
    }

    #[test]
    fn arity_checked() {
        let mut cat = orders_lineitem();
        assert!(cat.append("orders", vec![vec![Value::Int(1)]]).is_err());
        assert!(cat.bind("orders", "nope").is_err());
        assert!(cat.bind("nope", "x").is_err());
        assert!(cat.bind_idx("nope").is_err());
    }

    #[test]
    fn mistyped_row_is_refused_before_anything_is_staged() {
        let mut cat = orders_lineitem();
        let good = vec![Value::Int(400), Value::Int(40)]; // Int widens to Float
        let nil = vec![Value::Nil, Value::Nil];
        for bad in [
            vec![Value::str("400"), Value::Float(40.0)],
            vec![Value::Float(400.0), Value::Float(40.0)], // no narrowing
            vec![
                Value::Int(400),
                Value::Bat(cat.bind("orders", "o_orderkey").unwrap()),
            ],
        ] {
            let err = cat.append("orders", vec![good.clone(), bad]).unwrap_err();
            assert!(matches!(err, BatError::InvalidUpdate(_)), "{err}");
        }
        // the good row of a refused batch was not staged either
        assert_eq!(cat.commit("orders").unwrap().version, 0);
        cat.append("orders", vec![good, nil]).unwrap();
        assert_eq!(cat.commit("orders").unwrap().version, 1);
        let price = cat.bind("orders", "o_totalprice").unwrap();
        assert_eq!(price.tail().value(3), Value::Float(40.0));
        assert_eq!(price.tail().value(4), Value::Nil);
    }

    #[test]
    fn repeated_keys_point_at_the_highest_oid() {
        let mut cat = orders_lineitem();
        // a second order 100 takes over the lineitems of the first ...
        cat.append("orders", vec![vec![Value::Int(100), Value::Float(1.0)]])
            .unwrap();
        cat.commit("orders").unwrap();
        let targets = |cat: &Catalog| -> Vec<Value> {
            let idx = cat.bind_idx("li_fkey").unwrap();
            idx.tail().iter_values().collect()
        };
        let oid = |o| Value::Oid(Oid(o));
        assert_eq!(targets(&cat), vec![oid(3), oid(3), oid(2)]);
        // ... and hands them back when it is deleted
        cat.delete("orders", vec![3, 1]).unwrap();
        cat.commit("orders").unwrap();
        assert_eq!(targets(&cat), vec![oid(0), oid(0), oid(1)]);
    }

    #[test]
    fn cell_readers_keep_their_epoch() {
        let cell = CatalogCell::new(orders_lineitem());
        let (e0, snap0) = cell.pinned();
        assert_eq!(e0, 0);
        let report = cell
            .update(
                "orders",
                vec![vec![Value::Int(400), Value::Float(40.0)]],
                vec![],
            )
            .unwrap();
        assert_eq!(report.version, 1);
        // the pinned pre-commit snapshot is untouched
        assert_eq!(snap0.table("orders").unwrap().nrows(), 3);
        let (e1, snap1) = cell.pinned();
        assert_eq!(e1, 1);
        assert_eq!(snap1.table("orders").unwrap().nrows(), 4);
        // bind identities differ across the commit, agree within an epoch
        let old = snap0.bind("orders", "o_orderkey").unwrap();
        let new = snap1.bind("orders", "o_orderkey").unwrap();
        assert_ne!(old.id(), new.id());
        assert_eq!(
            new.id(),
            cell.snapshot().bind("orders", "o_orderkey").unwrap().id()
        );
    }

    #[test]
    fn cell_update_errors_leave_epoch_unchanged() {
        let cell = CatalogCell::new(orders_lineitem());
        assert!(cell
            .update("orders", vec![vec![Value::Int(1)]], vec![])
            .is_err());
        let mistyped = vec![vec![Value::str("1"), Value::Float(1.0)]];
        assert!(cell.update("orders", mistyped, vec![0]).is_err());
        assert_eq!(cell.epoch(), 0);
        assert_eq!(cell.snapshot().table("orders").unwrap().nrows(), 3);
    }
}
