//! `recycleEntry` overhead: the cost of the matching probe per interpreted
//! instruction — the quantity the paper keeps "well below one microsecond"
//! (§2.2/§3.4), measured against growing pool sizes — and of
//! `recycleExit`: one admission and the eviction that makes room for it,
//! under lineages of growing width.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rbat::{Catalog, LogicalType, TableBuilder, Value};
use rcy_bench::driver::keepall;
use recycler::{RecycleMark, Recycler};
use rmal::{Engine, ExecHook, Program, ProgramBuilder, P};

fn catalog(rows: i64) -> Catalog {
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("t").column("x", LogicalType::Int);
    for i in 0..rows {
        tb.push_row(&[Value::Int((i * 31) % rows)]);
    }
    cat.add_table(tb.finish());
    cat
}

fn template() -> Program {
    let mut b = ProgramBuilder::new("probe", 2);
    let col = b.bind("t", "x");
    let sel = b.select_closed(col, P(0), P(1));
    let n = b.count(sel);
    b.export("n", n);
    b.finish()
}

/// Fill the pool with `entries` distinct select intermediates.
fn filled_engine(entries: usize) -> (Engine<Recycler>, Program) {
    let mut engine = Engine::with_hook(catalog(10_000), Recycler::new(keepall()));
    engine.add_pass(Box::new(RecycleMark));
    let mut t = template();
    engine.optimize(&mut t);
    for i in 0..entries as i64 {
        engine
            .run(&t, &[Value::Int(i), Value::Int(i)])
            .expect("fill query");
    }
    (engine, t)
}

fn bench_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("recycle_entry_probe");
    for pool_size in [10usize, 100, 1000] {
        let (mut engine, t) = filled_engine(pool_size);
        // hit probe: re-run an instance that is in the pool
        g.bench_with_input(
            BenchmarkId::new("hit", pool_size),
            &pool_size,
            |bench, _| {
                bench.iter(|| {
                    engine
                        .run(black_box(&t), &[Value::Int(1), Value::Int(1)])
                        .unwrap()
                })
            },
        );
    }
    g.finish();
}

fn bench_overhead_vs_naive(c: &mut Criterion) {
    // the end-to-end price of monitoring when nothing is ever reused:
    // distinct parameters each run, recycler vs naive
    let mut g = c.benchmark_group("monitoring_overhead");
    let mut naive = Engine::new(catalog(10_000));
    let mut nt = template();
    naive.optimize(&mut nt);
    let mut i = 0i64;
    g.bench_function("naive", |bench| {
        bench.iter(|| {
            i += 1;
            naive
                .run(
                    black_box(&nt),
                    &[Value::Int(i % 5000), Value::Int(i % 5000 + 10)],
                )
                .unwrap()
        })
    });
    let (mut engine, t) = filled_engine(0);
    let mut j = 0i64;
    g.bench_function("recycled_all_misses", |bench| {
        bench.iter(|| {
            j += 1;
            engine
                .run(
                    black_box(&t),
                    &[Value::Int(j % 5000), Value::Int(j % 5000 + 10)],
                )
                .unwrap()
        })
    });
    g.finish();
}

/// The funnel's miss side (ROADMAP item 4, "microbench the funnel"): a
/// select over an intermediate that derives from `width` base columns is
/// admitted into a pool with room for exactly one such select, so every
/// admission evicts the previous one. The select scans 64 rows, the same
/// at every width: what is left is probe miss + admit + evict. An entry
/// holds only its own anchors, so the pair must cost the same under a
/// lineage of 1, 4 or 16 columns (it grew by a `String` pair per column
/// while entries inherited their parents' column sets).
fn bench_admit_evict(c: &mut Criterion) {
    const COLUMNS: usize = 16;
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("w");
    for col in 0..COLUMNS {
        tb = tb.column(&format!("c{col}"), LogicalType::Int);
    }
    for i in 0..64i64 {
        tb.push_row(&vec![Value::Int(i); COLUMNS]);
    }
    cat.add_table(tb.finish());

    let mut g = c.benchmark_group("admit_evict_select");
    for width in [1usize, 4, COLUMNS] {
        // `width` binds folded into one intermediate by `width - 1`
        // semijoins (same dense head: every row survives), then the select
        let mut b = ProgramBuilder::new("wide", 2);
        let mut wide = b.bind("w", "c0");
        for col in 1..width {
            let next = b.bind("w", &format!("c{col}"));
            wide = b.semijoin(wide, next);
        }
        let sel = b.select_closed(wide, P(0), P(1));
        b.export("wide", wide);
        b.export("sel", sel);
        let config = keepall().subsumption(false).entry_limit(2 * width);
        let mut engine = Engine::with_hook(cat.clone(), Recycler::new(config));
        engine.add_pass(Box::new(RecycleMark));
        let mut t = b.finish();
        engine.optimize(&mut t);
        let warm = engine.run(&t, &[Value::Int(0), Value::Int(0)]).unwrap();
        let wide = warm.export("wide").unwrap().clone();
        assert_eq!(
            engine.hook.pool().len(),
            2 * width,
            "binds, folds, one select"
        );
        let (pc, select) = (2 * width - 1, t.instrs[2 * width - 1].clone());
        assert_eq!(select.op, rmal::Opcode::Select);
        let (cat, hook) = (&engine.catalog, &mut engine.hook);
        let mut i = 0i64;
        g.bench_with_input(BenchmarkId::new("columns", width), &width, |bench, _| {
            bench.iter(|| {
                i += 1;
                let args = [
                    wide.clone(),
                    Value::Int(i),
                    Value::Int(i + 8),
                    Value::Bool(true),
                    Value::Bool(true),
                ];
                hook.query_start(&t);
                let t0 = Instant::now();
                let action = hook.before(cat, pc, &select, &args, t0);
                assert!(matches!(action, rmal::HookAction::Proceed));
                let result = rmal::execute_op(cat, &select.op, &args).unwrap();
                let done = Instant::now();
                hook.after(cat, pc, &select, &args, &result, done - t0, done);
                hook.query_end(&t);
            })
        });
        let stats = hook.stats();
        assert_eq!(stats.admission_rejects, 0);
        assert_eq!(stats.evictions, i as u64, "one eviction per admission");
        hook.pool().check_invariants().unwrap();
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_probe,
    bench_overhead_vs_naive,
    bench_admit_evict
);
criterion_main!(benches);
