//! Offline shim for the `proptest` crate.
//!
//! The build container has no network access, so this workspace carries a
//! small, API-compatible subset of `proptest`: the [`proptest!`] macro
//! (with `#![proptest_config(..)]` support), [`prop_assert!`] /
//! [`prop_assert_eq!`], range and tuple strategies, and
//! `prop::collection::vec`.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports the case number and seed; the
//!   deterministic per-test RNG makes every failure reproducible, but the
//!   input is not minimised.
//! * **Fixed derivation of inputs.** Values are drawn from the local `rand`
//!   shim seeded with `hash(test name, case index)`, so a failure can be
//!   replayed by rerunning the named test.

#![deny(missing_docs)]

use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SampleRange, SeedableRng};

/// The RNG driving input generation.
pub type TestRng = SmallRng;

/// Per-test deterministic RNG: seeded from the test name and case index.
pub fn test_rng(test_name: &str, case: u32) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    SmallRng::seed_from_u64(h ^ ((case as u64) << 32 | case as u64))
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// A failed property case.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Fail the current case with a message.
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError {
            message: message.into(),
        }
    }

    /// Real-proptest spelling: reject the current case. The shim treats a
    /// rejection as a failure (no case regeneration).
    pub fn reject(message: impl Into<String>) -> TestCaseError {
        TestCaseError::fail(message)
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// A generator of test inputs.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one input.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// `Just`-style constant strategy.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Collection strategies (`prop::collection` in the real crate).
pub mod collection {
    use super::{SampleRange, Strategy, TestRng};

    /// A vector strategy: element strategy plus size range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    /// Vectors of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = if self.size.is_empty() {
                self.size.start
            } else {
                self.size.clone().sample(rng)
            };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Just, ProptestConfig, Strategy, TestCaseError};

    /// Namespace mirror of the real crate's `prelude::prop`.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Assert a condition inside a property, failing the case (not the whole
/// process) on violation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if l != r {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                        stringify!($left),
                        stringify!($right),
                        l,
                        r
                    )));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if l != r {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: {} == {}: {}\n  left: {:?}\n right: {:?}",
                        stringify!($left),
                        stringify!($right),
                        format_args!($($fmt)+),
                        l,
                        r
                    )));
                }
            }
        }
    };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if l == r {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: {} != {} (both {:?})",
                        stringify!($left),
                        stringify!($right),
                        l
                    )));
                }
            }
        }
    };
}

/// Define property tests: each function body runs once per case with its
/// arguments drawn from the given strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($p:pat in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                for __case in 0..cfg.cases {
                    let mut __rng = $crate::test_rng(stringify!($name), __case);
                    $(let $p = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    #[allow(unused_mut)]
                    let mut __run = move || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    };
                    if let ::std::result::Result::Err(e) = __run() {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name),
                            __case,
                            cfg.cases,
                            e
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn addition_commutes(a in -1000i64..1000, b in -1000i64..1000) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn vec_sizes_respected(v in prop::collection::vec(0i64..10, 3..9)) {
            prop_assert!(v.len() >= 3 && v.len() < 9, "len {}", v.len());
            for x in v {
                prop_assert!((0..10).contains(&x));
            }
        }

        #[test]
        fn tuples_and_mut_patterns(mut v in prop::collection::vec((0u64..40, 0u64..40), 1..12)) {
            v.sort_unstable();
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn question_mark_propagates() {
        let cfg = ProptestConfig::default();
        assert_eq!(cfg.cases, 64);
        let r: Result<(), TestCaseError> =
            Err(()).map_err(|_| TestCaseError::fail("mapped".to_string()));
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "proptest always_fails failed")]
    fn failures_panic_with_case_info() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]
            #[allow(unused)]
            fn always_fails(x in 0i64..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
