//! Micro-benchmarks of the recycler's matching key: what it costs to turn
//! an instruction and its evaluated arguments into something a table can
//! be probed with, and what the probe then costs — the borrowed
//! fingerprint the pool is keyed on, against the owned structural `Sig`
//! built and hashed (the pool's key until PR 14), against a plain-`std`
//! twin (`HashMap<(u8, Vec<u64>), u32>`, SipHash), in the same run, for
//! the three argument shapes the hit path sees: a range select (BAT +
//! scalars), a bind (names + the table's commit version) and a string
//! argument. The routines are tens of nanoseconds, the harness reads the
//! clock around every iteration, so an iteration is [`BATCH`] calls.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rbat::{Bat, Catalog, Column, LogicalType, TableBuilder, Value};
use recycler::signature::{Sig, SigRef};
use recycler::{Caps, PoolEntry, RecyclePool};
use rmal::Opcode;

/// Calls per timed iteration.
const BATCH: usize = 1024;

fn batch<R>(mut routine: impl FnMut() -> R) {
    for _ in 0..BATCH {
        black_box(routine());
    }
}

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("lineitem").column("l_shipdate", LogicalType::Int);
    tb.push_row(&[Value::Int(1)]);
    cat.add_table(tb.finish());
    cat
}

/// The three shapes: `(name, opcode, evaluated arguments)`.
fn shapes() -> Vec<(&'static str, Opcode, Vec<Value>)> {
    let bat = Value::Bat(Arc::new(Bat::from_tail(Column::from_ints(vec![1, 2, 3]))));
    let select = vec![
        bat.clone(),
        Value::Int(19_940_101),
        Value::Int(19_950_101),
        Value::Bool(true),
        Value::Bool(false),
    ];
    vec![
        ("select", Opcode::Select, select),
        (
            "bind",
            Opcode::Bind,
            vec![Value::str("lineitem"), Value::str("l_shipdate")],
        ),
        (
            "like",
            Opcode::Like,
            vec![bat, Value::str("%special%requests%")],
        ),
    ]
}

/// The plain twin's key: the opcode as a byte (here: the shape's index),
/// every argument as words.
fn twin_key(op: u8, args: &[Value]) -> (u8, Vec<u64>) {
    let mut words = Vec::new();
    for a in args {
        match a {
            Value::Int(i) => words.push(*i as u64),
            Value::Bool(b) => words.push(*b as u64),
            Value::Bat(b) => words.push(b.id().0),
            Value::Str(s) => words.extend(s.as_bytes().chunks(8).map(|c| {
                let mut w = [0u8; 8];
                w[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(w)
            })),
            other => unreachable!("shape argument {other}"),
        }
    }
    (op, words)
}

/// Key construction alone: the word (or owned key plus its hash) a table
/// would be probed with.
fn bench_key(c: &mut Criterion) {
    let cat = catalog();
    let sip = RandomState::new();
    let mut g = c.benchmark_group("signature_key_x1024");
    for (tag, (shape, op, args)) in shapes().into_iter().enumerate() {
        g.bench_with_input(
            BenchmarkId::new("fingerprint_from_args", shape),
            &(),
            |b, _| b.iter(|| batch(|| SigRef::versioned(&cat, op, black_box(&args)).fingerprint())),
        );
        g.bench_with_input(
            BenchmarkId::new("sig_build_and_hash", shape),
            &(),
            |b, _| b.iter(|| batch(|| Sig::versioned(&cat, op, black_box(&args)).fingerprint())),
        );
        g.bench_with_input(BenchmarkId::new("std_twin", shape), &(), |b, _| {
            b.iter(|| batch(|| sip.hash_one(twin_key(tag as u8, black_box(&args)))))
        });
    }
    g.finish();
}

/// Key construction plus the lookup, against 1 000 resident selects that
/// differ in their bounds.
fn bench_probe(c: &mut Criterion) {
    let cat = catalog();
    let (_, op, args) = shapes().swap_remove(0);
    let instance = |i: i64| {
        let mut a = args.clone();
        a[1] = Value::Int(i);
        a
    };
    let pool = RecyclePool::new();
    let mut twin: HashMap<(u8, Vec<u64>), u32> = HashMap::new();
    for i in 0..1000 {
        let mut e = PoolEntry::test_stub(pool.alloc_id(), i, vec![], 64);
        e.sig = Sig::versioned(&cat, op, &instance(i));
        assert!(pool.insert(e, Caps::NONE).0.inserted());
        twin.insert(twin_key(0, &instance(i)), i as u32);
    }
    let wanted = instance(500);
    let mut g = c.benchmark_group("signature_probe_x1024");
    g.bench_function("fingerprint_from_args", |b| {
        b.iter(|| {
            batch(|| {
                let sig = SigRef::versioned(&cat, op, black_box(&wanted));
                pool.probe(&sig, |e| e.id).expect("resident")
            })
        })
    });
    g.bench_function("sig_build_and_hash", |b| {
        b.iter(|| {
            batch(|| {
                let sig = Sig::versioned(&cat, op, black_box(&wanted));
                pool.lookup(&sig).expect("resident")
            })
        })
    });
    g.bench_function("std_twin", |b| {
        b.iter(|| batch(|| twin[&twin_key(0, black_box(&wanted))]))
    });
    g.finish();
}

criterion_group!(benches, bench_key, bench_probe);
criterion_main!(benches);
