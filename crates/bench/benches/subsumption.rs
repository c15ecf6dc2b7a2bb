//! Scaling of the combined-subsumption search (Algorithm 2): the paper
//! reports < 0.5 ms per invocation for k < 10 against a cache of hundreds
//! of instructions (§5.2, §8.3).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rbat::Value;
use rcy_bench::driver::keepall;
use recycler::{RecycleMark, Recycler};
use rmal::{Engine, Program};
use skyserver::{generate, microbench, SkyScale};

/// Build an engine whose pool holds `covers` overlapping ra-selections
/// plus `noise` unrelated entries, then measure answering a covered seed.
fn prepared(covers: usize, noise: usize) -> (Engine<Recycler>, Program, Vec<Value>) {
    let cat = generate(SkyScale::new(20_000));
    let mut engine = Engine::with_hook(cat, Recycler::new(keepall()));
    engine.add_pass(Box::new(RecycleMark));
    let (template, items) = microbench(1, covers.max(2), 0.02, 5);
    let mut t = template;
    engine.optimize(&mut t);
    let mut seed_params = Vec::new();
    for item in &items {
        if item.is_seed {
            seed_params = item.params.clone();
        } else {
            engine.run(&t, &item.params).expect("cover");
        }
    }
    // unrelated pool noise: disjoint narrow selections
    for i in 0..noise {
        let lo = 0.001 * i as f64;
        engine
            .run(&t, &[Value::Float(lo), Value::Float(lo + 0.0005)])
            .expect("noise");
    }
    (engine, t, seed_params)
}

fn bench_combined_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("combined_subsumption");
    g.sample_size(30);
    for k in [2usize, 4, 9] {
        let (mut engine, t, seed) = prepared(k, 0);
        g.bench_with_input(BenchmarkId::new("k_covers", k), &k, |bench, _| {
            bench.iter(|| engine.run(black_box(&t), &seed).unwrap())
        });
    }
    for noise in [100usize, 400, 800] {
        let (mut engine, t, seed) = prepared(4, noise);
        g.bench_with_input(BenchmarkId::new("pool_noise", noise), &noise, |bench, _| {
            bench.iter(|| engine.run(black_box(&t), &seed).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_combined_search);
criterion_main!(benches);
