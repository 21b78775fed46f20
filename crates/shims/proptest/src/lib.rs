//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to a crate registry, so this shim
//! implements the subset of the proptest API the workspace uses: the
//! [`proptest!`] macro, `prop_assert!`/`prop_assert_eq!`/`prop_assert_ne!`,
//! `prop_oneof!`, range/tuple/`collection::vec` strategies and `prop_map`.
//!
//! Semantics differ from upstream in one deliberate way: there is **no
//! shrinking**. Each test runs `ProptestConfig::cases` deterministic random
//! cases (seeded from the test name), and the first failing case panics
//! with its case number. That keeps the property tests meaningful —
//! deterministic, reproducible, covering the same input space — without
//! reimplementing proptest's shrinking machinery.

#![warn(missing_docs)]

pub mod test_runner {
    //! Test-runner configuration and error types.

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Per-test configuration (`cases` is the only knob the workspace uses).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// A failed property-test assertion.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Creates a failure with the given message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError(message.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// The deterministic generator driving value sampling.
    #[derive(Debug, Clone)]
    pub struct TestRng(StdRng);

    impl TestRng {
        /// Seeds a generator from a test name (FNV-1a over the bytes).
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng(StdRng::seed_from_u64(h))
        }
    }

    impl rand::RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

pub mod strategy {
    //! Value-generation strategies (sampling only, no shrinking).

    use crate::test_runner::TestRng;
    use rand::Rng;

    /// A recipe for generating values of type [`Strategy::Value`].
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Draws one value.
        fn sample_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;

        fn sample_value(&self, rng: &mut TestRng) -> T {
            (**self).sample_value(rng)
        }
    }

    /// Boxes a strategy behind the object-safe [`Strategy`] interface
    /// (used by [`prop_oneof!`](crate::prop_oneof)).
    pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    /// Strategy produced by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample_value(rng))
        }
    }

    /// Uniform choice between several strategies with a common value type.
    pub struct Union<T> {
        arms: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> std::fmt::Debug for Union<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Union({} arms)", self.arms.len())
        }
    }

    impl<T> Union<T> {
        /// Builds a union over the given arms.
        ///
        /// # Panics
        ///
        /// Panics if `arms` is empty.
        pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn sample_value(&self, rng: &mut TestRng) -> T {
            let i = rng.gen_range(0..self.arms.len());
            self.arms[i].sample_value(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn sample_value(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample_value(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[expect(
                    non_snake_case,
                    reason = "the tuple's elements bind to its type parameters' names"
                )]
                fn sample_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample_value(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// An inclusive range of collection sizes.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    /// Strategy for `Vec`s with element strategy `element` and a length
    /// drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Builds a [`VecStrategy`].
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.min..=self.size.max);
            (0..len).map(|_| self.element.sample_value(rng)).collect()
        }
    }
}

pub mod prelude {
    //! One-stop imports mirroring `proptest::prelude`.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declares property tests (see the crate docs for shim semantics).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            ($crate::test_runner::Config::default()) $($rest)*
        }
    };
}

/// Internal expansion helper for [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    (
        ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            use $crate::strategy::Strategy as _;
            let config: $crate::test_runner::Config = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(), "::", stringify!($name)
            ));
            $(let $arg = $strat;)+
            for case in 0..config.cases {
                $(let $arg = ($arg).sample_value(&mut rng);)+
                let outcome = (|| -> ::std::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > {
                    $body;
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    ::std::panic!(
                        "property {} failed at case #{}: {}",
                        stringify!($name),
                        case,
                        e
                    );
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(::std::format!($($fmt)*)),
            );
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: {} == {} (left: {:?}, right: {:?})",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)*);
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: {} != {} (both: {:?})",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

/// Uniform choice among several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::boxed($arm)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 5u32..10, y in 0.0f64..1.0) {
            prop_assert!((5..10).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
        }

        #[test]
        fn vec_strategy_sizes(v in crate::collection::vec(0u8..255, 3..7)) {
            prop_assert!((3..7).contains(&v.len()));
        }

        #[test]
        fn prop_map_and_oneof(v in prop_oneof![
            (1u32..5).prop_map(|x| x * 2),
            (10u32..20).prop_map(|x| x + 1),
        ]) {
            prop_assert!((2..=8).contains(&v) || (11..=20).contains(&v));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = crate::collection::vec(0u64..1000, 5..10);
        let a: Vec<u64> = strat.sample_value(&mut TestRng::for_test("t"));
        let b: Vec<u64> = strat.sample_value(&mut TestRng::for_test("t"));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_number() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(_x in 0u32..10) {
                prop_assert!(false, "boom");
            }
        }
        always_fails();
    }
}
