//! Micro-benchmarks of the binary relational algebra — the per-operator
//! costs that determine which intermediates are worth recycling.
//!
//! The `tpch_*` groups are the operator shapes that own the time of a
//! TPC-H query at SF 0.01 (60 000 `lineitem` rows): each kernel runs
//! beside a twin written with nothing but `std` collections and iterators,
//! in the same run, so a kernel's figure reads against what the obvious
//! code costs on the same machine.

use std::collections::{HashMap, HashSet};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rbat::ops::{self, CalcOp, CalcRhs, CmpOp, GrpFunc, SelectBounds};
use rbat::{Bat, Column, Date, Props, Value};

fn make_int_bat(n: usize) -> Bat {
    let vals: Vec<i64> = (0..n as i64)
        .map(|i| (i * 2_654_435_761) % n as i64)
        .collect();
    Bat::from_tail(Column::from_ints(vals))
}

fn make_oid_pair(n: usize) -> (Bat, Bat) {
    let l = Bat::new(
        Column::from_oids((0..n as u64).collect()),
        Column::from_oids((0..n as u64).map(|i| (i * 7) % n as u64).collect()),
        Props::default(),
    );
    let r = Bat::from_tail(Column::from_ints((0..n as i64).collect()));
    (l, r)
}

fn bench_select(c: &mut Criterion) {
    let mut g = c.benchmark_group("select");
    for n in [10_000usize, 100_000] {
        let b = make_int_bat(n);
        let bounds = SelectBounds::closed(Value::Int(n as i64 / 4), Value::Int(n as i64 / 2));
        g.bench_with_input(BenchmarkId::new("range_unsorted", n), &n, |bench, _| {
            bench.iter(|| ops::select(black_box(&b), black_box(&bounds)).unwrap())
        });
        let sorted = Bat::from_tail(Column::from_ints((0..n as i64).collect()));
        g.bench_with_input(BenchmarkId::new("range_sorted_view", n), &n, |bench, _| {
            bench.iter(|| ops::select(black_box(&sorted), black_box(&bounds)).unwrap())
        });
    }
    g.finish();
}

fn bench_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("join");
    for n in [10_000usize, 100_000] {
        let (l, r) = make_oid_pair(n);
        g.bench_with_input(BenchmarkId::new("fetch_dense", n), &n, |bench, _| {
            bench.iter(|| ops::join(black_box(&l), black_box(&r)).unwrap())
        });
        let r_hash = Bat::new(
            Column::from_oids((0..n as u64).rev().collect()),
            Column::from_ints((0..n as i64).collect()),
            Props::default(),
        );
        g.bench_with_input(BenchmarkId::new("hash", n), &n, |bench, _| {
            bench.iter(|| ops::join(black_box(&l), black_box(&r_hash)).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("semijoin", n), &n, |bench, _| {
            bench.iter(|| ops::semijoin(black_box(&l), black_box(&r_hash)).unwrap())
        });
    }
    g.finish();
}

fn bench_group_aggr(c: &mut Criterion) {
    let mut g = c.benchmark_group("group_aggr");
    for n in [10_000usize, 100_000] {
        let keys = Bat::from_tail(Column::from_ints((0..n as i64).map(|i| i % 1000).collect()));
        let vals = Bat::from_tail(Column::from_floats((0..n).map(|i| i as f64).collect()));
        g.bench_with_input(BenchmarkId::new("group", n), &n, |bench, _| {
            bench.iter(|| ops::group(black_box(&keys)).unwrap())
        });
        let groups = ops::group(&keys).unwrap();
        g.bench_with_input(BenchmarkId::new("grp_sum", n), &n, |bench, _| {
            bench
                .iter(|| ops::grp_aggr(black_box(&vals), black_box(&groups), GrpFunc::Sum).unwrap())
        });
    }
    g.finish();
}

const LINEITEMS: usize = 60_000;

/// `reverse(fk_idx)`: the foreign key (an OID of the other table, in no
/// order, repeating) as head, the dense row id as tail.
fn reversed_fk_index() -> (Vec<u64>, Bat) {
    let fk: Vec<u64> = (0..LINEITEMS as u64)
        .map(|i| (i * 40_507) % LINEITEMS as u64)
        .collect();
    let bat = Bat::from_tail(Column::from_oids(fk.clone())).reverse();
    (fk, bat)
}

/// `semijoin(reverse(fk_idx), selection)`: which rows point into a
/// selection of `k` rows of the other table (sorted OIDs, as a select
/// leaves them). The smallest `k` is a handful of neighbouring rows, so
/// that half the foreign keys fall outside the selection's range.
/// `kernel` scans the foreign-key column (a transient one); `indexed` is
/// the same column as the catalog holds it, with its key index built: up
/// to 7 500 keys (`|r| × 8 ≤ |l|`) it reads the index, at 30 000 it scans
/// too, and must cost what `kernel` does.
fn bench_tpch_semijoin(c: &mut Criterion) {
    let mut g = c.benchmark_group("tpch_semijoin");
    let (fk, l) = reversed_fk_index();
    let persistent = Bat::from_tail(Column::from_oids(fk.clone()).persistent()).reverse();
    for k in [4usize, 100, 512, 5_000, 7_500, 30_000] {
        let stride = if k < 100 { 10_000 } else { LINEITEMS / k };
        let picked: Vec<u64> = (0..k as u64).map(|j| j * stride as u64).collect();
        let r = Bat::new(
            Column::from_oids(picked.clone()),
            Column::from_ints(vec![0; k]),
            Props::default(),
        );
        g.bench_with_input(BenchmarkId::new("kernel", k), &k, |bench, _| {
            bench.iter(|| ops::semijoin(black_box(&l), black_box(&r)).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("indexed", k), &k, |bench, _| {
            bench.iter(|| ops::semijoin(black_box(&persistent), black_box(&r)).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("std_hashset", k), &k, |bench, _| {
            bench.iter(|| {
                let set: HashSet<u64> = black_box(&picked).iter().copied().collect();
                let (mut head, mut tail) = (Vec::new(), Vec::new());
                for (row, key) in black_box(&fk).iter().enumerate() {
                    if set.contains(key) {
                        head.push(*key);
                        tail.push(row as u64);
                    }
                }
                (head, tail)
            })
        });
    }
    g.finish();
}

/// The two joins of a TPC-H plan: a fetch join of selected row ids into a
/// base column (dense head), and a hash join on a key that repeats.
fn bench_tpch_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("tpch_join");
    let prices: Vec<f64> = (0..LINEITEMS).map(|i| i as f64 * 0.25).collect();
    let column = Bat::from_tail(Column::from_floats(prices.clone()));
    for k in [5_000usize, LINEITEMS] {
        let rows: Vec<u64> = (0..k as u64).map(|j| j * (LINEITEMS / k) as u64).collect();
        let row_map = Bat::from_tail(Column::from_oids(rows.clone()));
        g.bench_with_input(BenchmarkId::new("fetch/kernel", k), &k, |bench, _| {
            bench.iter(|| ops::join(black_box(&row_map), black_box(&column)).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("fetch/std_index", k), &k, |bench, _| {
            bench.iter(|| {
                let head: Vec<u64> = (0..k as u64).collect();
                let tail: Vec<f64> = black_box(&rows)
                    .iter()
                    .map(|&row| black_box(&prices)[row as usize])
                    .collect();
                (head, tail)
            })
        });
    }
    // 15 000 build rows, every key four times; 1 500 probe rows
    let build_keys: Vec<i64> = (0..15_000i64).map(|j| (j * 7) % 3_750 * 10).collect();
    let probe_keys: Vec<i64> = (0..1_500i64).map(|i| (i * 31) % 5_000 * 10).collect();
    let r = Bat::from_tail(Column::from_ints(build_keys.clone())).reverse();
    let l = Bat::from_tail(Column::from_ints(probe_keys.clone()));
    g.bench_function("hash_repeated/kernel", |bench| {
        bench.iter(|| ops::join(black_box(&l), black_box(&r)).unwrap())
    });
    g.bench_function("hash_repeated/std_hashmap", |bench| {
        bench.iter(|| {
            let mut table: HashMap<i64, Vec<u64>> = HashMap::new();
            for (row, &key) in black_box(&build_keys).iter().enumerate() {
                table.entry(key).or_default().push(row as u64);
            }
            let (mut head, mut tail) = (Vec::new(), Vec::new());
            for (row, key) in black_box(&probe_keys).iter().enumerate() {
                for &hit in table.get(key).into_iter().flatten() {
                    head.push(row as u64);
                    tail.push(hit);
                }
            }
            (head, tail)
        })
    });
    g.finish();
}

/// `l_shipmode`: 60 000 strings of seven kinds, in no order.
fn shipmodes() -> Vec<&'static str> {
    const MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
    (0..LINEITEMS)
        .map(|i| MODES[(i * 2_654_435_761) % 10_000 % 7])
        .collect()
}

/// Range selects over unsorted `Float` and `Date` columns at 1 %, 20 % and
/// 90 % selectivity, and an equality select over a string column.
fn bench_tpch_select(c: &mut Criterion) {
    let mut g = c.benchmark_group("tpch_select");
    let scrambled = |i: usize| (i * 2_654_435_761) % 10_000;
    let floats: Vec<f64> = (0..LINEITEMS).map(|i| scrambled(i) as f64 * 0.01).collect();
    let dates: Vec<i32> = (0..LINEITEMS).map(|i| scrambled(i) as i32).collect();
    let float_bat = Bat::from_tail(Column::from_floats(floats.clone()));
    let date_bat = Bat::from_tail(Column::from_dates(dates.clone()));
    for percent in [1usize, 20, 90] {
        let hi = percent * 100; // of the 10 000 distinct values
        let float_bounds = SelectBounds::closed(Value::Float(0.0), Value::Float(hi as f64 * 0.01));
        let date_bounds =
            SelectBounds::half_open(Value::Date(Date(0)), Value::Date(Date(hi as i32)));
        g.bench_with_input(
            BenchmarkId::new("float/kernel", percent),
            &(),
            |bench, _| {
                bench.iter(|| ops::select(black_box(&float_bat), black_box(&float_bounds)).unwrap())
            },
        );
        g.bench_with_input(
            BenchmarkId::new("float/std_filter", percent),
            &(),
            |bench, _| {
                let (lo, hi) = (0.0, hi as f64 * 0.01);
                bench.iter(|| {
                    let rows = black_box(&floats).iter().enumerate();
                    rows.filter(|(_, &v)| v >= lo && v <= hi)
                        .map(|(row, &v)| (row as u64, v))
                        .unzip::<u64, f64, Vec<u64>, Vec<f64>>()
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("date/kernel", percent), &(), |bench, _| {
            bench.iter(|| ops::select(black_box(&date_bat), black_box(&date_bounds)).unwrap())
        });
        g.bench_with_input(
            BenchmarkId::new("date/std_filter", percent),
            &(),
            |bench, _| {
                let hi = hi as i32;
                bench.iter(|| {
                    let rows = black_box(&dates).iter().enumerate();
                    rows.filter(|(_, &v)| v >= 0 && v < hi)
                        .map(|(row, &v)| (row as u64, v))
                        .unzip::<u64, i32, Vec<u64>, Vec<i32>>()
                })
            },
        );
    }
    let modes = shipmodes();
    let mode_bat = Bat::from_tail(Column::from_strs(modes.iter().copied()));
    g.bench_function("uselect_str/kernel", |bench| {
        bench.iter(|| ops::uselect(black_box(&mode_bat), black_box(&Value::str("MAIL"))).unwrap())
    });
    let persistent = Bat::from_tail(mode_bat.tail().clone().persistent());
    g.bench_function("uselect_str/indexed", |bench| {
        bench.iter(|| ops::uselect(black_box(&persistent), black_box(&Value::str("MAIL"))).unwrap())
    });
    g.bench_function("uselect_str/std_filter", |bench| {
        bench.iter(|| {
            let rows = black_box(&modes).iter().enumerate();
            rows.filter(|(_, &mode)| mode == "MAIL")
                .map(|(row, &mode)| (row as u64, mode.to_string()))
                .unzip::<u64, String, Vec<u64>, Vec<String>>()
        })
    });
    g.finish();
}

/// `batcalc` over two aligned 60 000-row columns: a date comparison
/// (`l_commitdate < l_receiptdate`) and the revenue product.
fn bench_tpch_calc(c: &mut Criterion) {
    let mut g = c.benchmark_group("tpch_calc");
    let commit: Vec<i32> = (0..LINEITEMS as i32).map(|i| (i * 7) % 2_500).collect();
    let receipt: Vec<i32> = (0..LINEITEMS as i32).map(|i| (i * 11) % 2_500).collect();
    let commit_bat = Bat::from_tail(Column::from_dates(commit.clone()));
    let receipt_bat = Bat::from_tail(Column::from_dates(receipt.clone()));
    g.bench_function("lt_dates/kernel", |bench| {
        let rhs = CalcRhs::Bat(&receipt_bat);
        bench.iter(|| ops::calc_cmp(black_box(&commit_bat), black_box(&rhs), CmpOp::Lt).unwrap())
    });
    g.bench_function("lt_dates/std_zip", |bench| {
        bench.iter(|| {
            let pairs = black_box(&commit).iter().zip(black_box(&receipt));
            pairs.map(|(a, b)| a < b).collect::<Vec<bool>>()
        })
    });
    let price: Vec<f64> = (0..LINEITEMS).map(|i| i as f64 * 0.5).collect();
    let factor: Vec<f64> = (0..LINEITEMS)
        .map(|i| 1.0 - (i % 11) as f64 * 0.01)
        .collect();
    let price_bat = Bat::from_tail(Column::from_floats(price.clone()));
    let factor_bat = Bat::from_tail(Column::from_floats(factor.clone()));
    g.bench_function("mul_floats/kernel", |bench| {
        let rhs = CalcRhs::Bat(&factor_bat);
        bench.iter(|| ops::calc(black_box(&price_bat), black_box(&rhs), CalcOp::Mul).unwrap())
    });
    g.bench_function("mul_floats/std_zip", |bench| {
        bench.iter(|| {
            let pairs = black_box(&price).iter().zip(black_box(&factor));
            pairs.map(|(a, b)| a * b).collect::<Vec<f64>>()
        })
    });
    g.finish();
}

/// What a key index costs to build — once per buffer of a persistent
/// column, by the first kernel that wants it: the build side of a join
/// over the column, which is what the index is. Over 60 000 foreign keys
/// (OIDs of 15 000 rows: direct table, CSR groups) and over 60 000 strings
/// of seven kinds; each beside the `std` map of rows per key.
fn bench_key_index_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("key_index_build");
    let fk: Vec<u64> = (0..LINEITEMS as u64)
        .map(|i| (i * 40_507) % 15_000)
        .collect();
    let fk_bat = Bat::from_tail(Column::from_oids(fk.clone())).reverse();
    g.bench_function("oids/kernel", |bench| {
        bench.iter(|| ops::join_build(black_box(&fk_bat)).unwrap())
    });
    g.bench_function("oids/std_hashmap", |bench| {
        bench.iter(|| {
            let mut rows: HashMap<u64, Vec<u32>> = HashMap::new();
            for (row, &key) in black_box(&fk).iter().enumerate() {
                rows.entry(key).or_default().push(row as u32);
            }
            rows
        })
    });
    let modes = shipmodes();
    let mode_bat = Bat::from_tail(Column::from_strs(modes.iter().copied())).reverse();
    g.bench_function("strings/kernel", |bench| {
        bench.iter(|| ops::join_build(black_box(&mode_bat)).unwrap())
    });
    g.bench_function("strings/std_hashmap", |bench| {
        bench.iter(|| {
            let mut rows: HashMap<&str, Vec<u32>> = HashMap::new();
            for (row, &key) in black_box(&modes).iter().enumerate() {
                rows.entry(key).or_default().push(row as u32);
            }
            rows
        })
    });
    g.finish();
}

/// `topN(b, 10)` over 60 000 floats against the full sort it replaced,
/// and the `std` selection of ten.
fn bench_topn(c: &mut Criterion) {
    let mut g = c.benchmark_group("topn");
    let revenue: Vec<f64> = (0..LINEITEMS)
        .map(|i| ((i * 2_654_435_761) % 100_003) as f64 * 0.01)
        .collect();
    let b = Bat::from_tail(Column::from_floats(revenue.clone()));
    g.bench_function("kernel", |bench| {
        bench.iter(|| ops::topn(black_box(&b), 10, false).unwrap())
    });
    g.bench_function("sort_then_slice", |bench| {
        bench.iter(|| ops::sort(black_box(&b), false).unwrap().slice(0, 10))
    });
    g.bench_function("std_select_nth", |bench| {
        bench.iter(|| {
            let mut rows: Vec<u32> = (0..LINEITEMS as u32).collect();
            let order = |&i: &u32, &j: &u32| {
                let (x, y) = (revenue[i as usize], revenue[j as usize]);
                y.total_cmp(&x).then(i.cmp(&j))
            };
            rows.select_nth_unstable_by(9, order);
            rows.truncate(10);
            rows.sort_unstable_by(order);
            rows
        })
    });
    g.finish();
}

fn bench_zero_cost_views(c: &mut Criterion) {
    let b = make_int_bat(100_000);
    c.bench_function("view/reverse", |bench| {
        bench.iter(|| black_box(&b).reverse())
    });
    c.bench_function("view/mark_t", |bench| {
        bench.iter(|| black_box(&b).mark_t(0))
    });
    c.bench_function("view/mirror", |bench| bench.iter(|| black_box(&b).mirror()));
}

criterion_group!(
    benches,
    bench_select,
    bench_join,
    bench_group_aggr,
    bench_tpch_semijoin,
    bench_tpch_join,
    bench_tpch_select,
    bench_tpch_calc,
    bench_key_index_build,
    bench_topn,
    bench_zero_cost_views
);
criterion_main!(benches);
