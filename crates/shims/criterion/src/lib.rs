//! Offline shim for the `criterion` crate.
//!
//! The build container has no network access, so this workspace carries a
//! small, API-compatible subset of `criterion`: enough surface for the
//! `benches/` targets to compile and produce useful numbers. Instead of
//! criterion's statistical machinery, each benchmark runs a timed warm-up
//! to calibrate an iteration count, then reports the mean wall time per
//! iteration over a fixed measurement budget.
//!
//! Like the real crate, a bench binary run without `--bench` (`cargo test
//! --benches`) or with `--test` (`cargo bench -- --test`) is in *test
//! mode*: every benchmark runs its routine once, to show that it works,
//! and nothing is timed.

#![deny(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

const WARMUP: Duration = Duration::from_millis(300);
const MEASURE: Duration = Duration::from_millis(1000);

/// The benchmark manager.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\n== group {name}");
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
        }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, f);
        self
    }
}

/// A group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for compatibility; the shim's sampling is time-budgeted,
    /// so the sample count is ignored.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Run one benchmark of the group with an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_one(&format!("{}/{}", self.name, id), |b| f(b, input));
        self
    }

    /// Run one benchmark of the group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&format!("{}/{}", self.name, name), f);
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Identifier of one benchmark within a group: function name + parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// Build an id from a function name and a displayable parameter.
    pub fn new(function: impl Into<String>, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            function: function.into(),
            parameter: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.function, self.parameter)
    }
}

/// Drives the timed closure.
#[derive(Debug, Default)]
pub struct Bencher {
    iters_done: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time the routine. Called repeatedly by the harness; every call is
    /// one measured iteration.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        let t0 = Instant::now();
        black_box(routine());
        self.elapsed += t0.elapsed();
        self.iters_done += 1;
    }
}

/// `cargo bench` passes `--bench`; anything else, or an explicit
/// `--test`, asks for one untimed pass.
fn test_mode() -> bool {
    let args: Vec<String> = std::env::args().skip(1).collect();
    args.iter().any(|a| a == "--test") || !args.iter().any(|a| a == "--bench")
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, mut f: F) {
    if test_mode() {
        f(&mut Bencher::default());
        println!("{label:<48} ok (test mode)");
        return;
    }
    // Warm-up: run until the warm-up budget is spent.
    let mut b = Bencher::default();
    let w0 = Instant::now();
    while w0.elapsed() < WARMUP {
        f(&mut b);
    }
    // Measurement: fresh counters, fixed budget.
    let mut b = Bencher::default();
    let m0 = Instant::now();
    while m0.elapsed() < MEASURE {
        f(&mut b);
    }
    let per_iter = if b.iters_done == 0 {
        Duration::ZERO
    } else {
        b.elapsed / b.iters_done as u32
    };
    println!(
        "{label:<48} {per_iter:>12.3?}/iter   ({} iters)",
        b.iters_done
    );
}

/// Collect benchmark functions into a runnable group, as the real crate's
/// macro does.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Produce a `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim");
        g.sample_size(10);
        g.bench_with_input(BenchmarkId::new("square", 7), &7u64, |b, n| {
            b.iter(|| black_box(n * n))
        });
        g.finish();
        c.bench_function("standalone", |b| b.iter(|| black_box(1 + 1)));
    }

    #[test]
    fn harness_runs() {
        // keep the budgets from slowing the test suite: call through the
        // public API once; the budgets are small constants.
        quick(&mut Criterion::default());
    }
}
