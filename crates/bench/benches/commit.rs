//! Micro-benchmarks of the commit path: what `Catalog::commit` costs for a
//! TPC-H refresh block, and its two kernels each against the plain twin it
//! replaced, in the same run — the bulk column merge against per-value
//! pushes, and join-index upkeep against building the index from scratch.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rbat::catalog::JoinIndexDef;
use rbat::delta::Row;
use rbat::{Catalog, Column, ColumnBuilder, LogicalType, TableBuilder, Value};

/// Stage and commit on a copy of `base`, as `CatalogCell::update` does.
fn commit(base: &Catalog, table: &str, rows: &[Row], oids: &[u64]) -> Catalog {
    let mut cat = base.clone();
    if !rows.is_empty() {
        cat.append(table, rows.to_vec()).unwrap();
    }
    if !oids.is_empty() {
        cat.delete(table, oids.to_vec()).unwrap();
    }
    cat.commit(table).unwrap();
    cat
}

/// The four commits of an insert block followed by a delete block of 8
/// orders at SF 0.01, each against the state the one before left.
fn bench_refresh_blocks(c: &mut Criterion) {
    let base = tpch::generate(tpch::TpchScale::new(0.01));
    let mut rng = SmallRng::seed_from_u64(7);
    let ins = tpch::insert_block(&base, &mut rng, 8);
    let del = tpch::delete_block(&base, &mut rng, 8);
    let orders_in = commit(&base, "orders", &ins.order_rows, &[]);
    let lineitems_out = commit(&base, "lineitem", &[], &del.delete_lineitems);
    let (ins_o, ins_l) = (&ins.order_rows, &ins.lineitem_rows);
    let (del_o, del_l) = (&del.delete_orders, &del.delete_lineitems);
    let (no_rows, no_oids) = (Vec::new(), Vec::new());
    let mut g = c.benchmark_group("commit");
    for (block, table, state, rows, oids) in [
        ("insert_block", "orders", &base, ins_o, &no_oids),
        ("insert_block", "lineitem", &orders_in, ins_l, &no_oids),
        ("delete_block", "lineitem", &base, &no_rows, del_l),
        ("delete_block", "orders", &lineitems_out, &no_rows, del_o),
    ] {
        g.bench_with_input(BenchmarkId::new(block, table), &(), |bench, _| {
            bench.iter(|| commit(black_box(state), table, rows, oids))
        });
    }
    g.finish();
}

/// What `Column::concat` replaced: every cell through a boxed `Value`.
fn concat_by_value(a: &Column, b: &Column) -> Column {
    let mut cb = ColumnBuilder::new(a.logical_type());
    for v in a.iter_values().chain(b.iter_values()) {
        cb.push(&v);
    }
    cb.finish()
}

fn bench_concat(c: &mut Criterion) {
    let cat = tpch::generate(tpch::TpchScale::new(0.01));
    let mut g = c.benchmark_group("concat");
    for column in ["l_extendedprice", "l_shipdate", "l_comment"] {
        let old = cat.bind("lineitem", column).unwrap();
        let (old, delta) = (old.tail(), old.tail().slice(100, 50).to_owned_column());
        g.bench_with_input(BenchmarkId::new("bulk", column), &(), |bench, _| {
            bench.iter(|| black_box(old).concat(black_box(&delta)))
        });
        g.bench_with_input(BenchmarkId::new("by_value", column), &(), |bench, _| {
            bench.iter(|| concat_by_value(black_box(old), black_box(&delta)))
        });
    }
    g.finish();
}

/// Two one-column tables shaped like SF 0.01 `lineitem` → `orders`.
fn key_tables() -> Catalog {
    let mut cat = Catalog::new();
    let mut to = TableBuilder::new("to").column("key", LogicalType::Int);
    for k in 0..15_000 {
        to.push_row(&[Value::Int(k)]);
    }
    cat.add_table(to.finish());
    let mut from = TableBuilder::new("from").column("fk", LogicalType::Int);
    for i in 0..60_000 {
        from.push_row(&[Value::Int(i / 4)]);
    }
    cat.add_table(from.finish());
    cat
}

/// Each way a commit touches an index: the commit that maintains it
/// (including the merge of the one key column) against building it from
/// scratch over the same post-commit tables.
fn bench_index_upkeep(c: &mut Criterion) {
    let def = JoinIndexDef {
        name: "fk_idx".into(),
        from_table: "from".into(),
        from_column: "fk".into(),
        to_table: "to".into(),
        to_key: "key".into(),
    };
    let plain = key_tables();
    let mut indexed = plain.clone();
    indexed.add_join_index(def.clone()).unwrap();
    let new_fks: Vec<Row> = (0..40).map(|i| vec![Value::Int(i * 300)]).collect();
    let new_keys: Vec<Row> = (15_000..15_008).map(|k| vec![Value::Int(k)]).collect();
    let from_oids: Vec<u64> = (0..40).map(|i| i * 1_400).collect();
    let to_oids: Vec<u64> = (0..8).map(|i| i * 1_800).collect();
    let mut g = c.benchmark_group("index");
    for (case, table, rows, oids) in [
        ("insert_referencing", "from", &new_fks, &vec![]),
        ("delete_referencing", "from", &vec![], &from_oids),
        ("insert_referenced", "to", &new_keys, &vec![]),
        ("delete_referenced", "to", &vec![], &to_oids),
    ] {
        g.bench_with_input(BenchmarkId::new("maintained", case), &(), |bench, _| {
            bench.iter(|| commit(black_box(&indexed), table, rows, oids))
        });
        let after = commit(&plain, table, rows, oids);
        g.bench_with_input(BenchmarkId::new("from_scratch", case), &(), |bench, _| {
            bench.iter(|| {
                let mut cat = black_box(&after).clone();
                cat.add_join_index(def.clone()).unwrap();
                cat
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_refresh_blocks,
    bench_concat,
    bench_index_upkeep
);
criterion_main!(benches);
