#![warn(missing_docs)]

//! Offline stand-in for `proptest`: the subset of the strategy API this
//! workspace uses, driven by the deterministic [`rand`] shim.
//!
//! Differences from real proptest, by design:
//! - no shrinking — a failing case reports its inputs and panics;
//! - seeding is deterministic per (test name, case index), so failures
//!   reproduce exactly on re-run;
//! - filtered strategies retry a bounded number of draws instead of
//!   tracking global rejection budgets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// How many redraws a filtered strategy attempts before giving up.
const MAX_FILTER_RETRIES: usize = 256;

/// Test-runner configuration. Only the case count is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of values of type `Value`.
///
/// `generate` returns `None` when the draw was rejected by a filter;
/// callers retry with fresh randomness up to `MAX_FILTER_RETRIES` (256).
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value, or `None` if this draw was filtered out.
    fn generate(&self, rng: &mut StdRng) -> Option<Self::Value>;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Maps generated values through `f`, rejecting draws where `f`
    /// returns `None`. `_whence` is a diagnostic label (unused here).
    fn prop_filter_map<O, F>(self, _whence: &'static str, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<O>,
    {
        FilterMap { inner: self, f }
    }

    /// Rejects draws for which `f` returns false.
    fn prop_filter<F>(self, _whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, f }
    }

    /// Erases the strategy's concrete type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: std::rc::Rc::new(self),
        }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut StdRng) -> Option<O> {
        self.inner.generate(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> Option<O>> Strategy for FilterMap<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut StdRng) -> Option<O> {
        self.inner.generate(rng).and_then(&self.f)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut StdRng) -> Option<S::Value> {
        self.inner.generate(rng).filter(|v| (self.f)(v))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T> {
    inner: std::rc::Rc<dyn Strategy<Value = T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: std::rc::Rc::clone(&self.inner),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> Option<T> {
        self.inner.generate(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> Option<T> {
        Some(self.0.clone())
    }
}

/// Weighted union of strategies; used by `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union choosing uniformly among `arms`.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! requires at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> Option<T> {
        let idx = rng.gen_range(0..self.arms.len());
        self.arms[idx].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> Option<$t> {
                Some(rng.gen_range(self.clone()))
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> Option<$t> {
                Some(rng.gen_range(self.clone()))
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut StdRng) -> Option<f64> {
        Some(rng.gen_range(self.clone()))
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut StdRng) -> Option<f64> {
        Some(rng.gen_range(self.clone()))
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Option<Self::Value> {
                Some(($(self.$idx.generate(rng)?,)+))
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::*;

    /// Inclusive range of collection sizes.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec`s whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors of `element` draws with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Option<Vec<S::Value>> {
            let len = rng.gen_range(self.size.lo..=self.size.hi);
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                out.push(self.element.generate(rng)?);
            }
            Some(out)
        }
    }
}

/// Test-runner support used by the `proptest!` macro expansion.
pub mod runner {
    use super::*;

    /// Error type carried by `prop_assert*` failures.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Result type returned by property bodies.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Draws one value from `strategy`, retrying rejected draws.
    ///
    /// Panics if the filter rejects `MAX_FILTER_RETRIES` (256) consecutive
    /// draws — that signals an over-restrictive generator, as in real
    /// proptest.
    pub fn draw<S: Strategy>(strategy: &S, rng: &mut StdRng, test_name: &str) -> S::Value {
        for _ in 0..MAX_FILTER_RETRIES {
            if let Some(v) = strategy.generate(rng) {
                return v;
            }
        }
        panic!(
            "proptest {test_name}: strategy rejected {MAX_FILTER_RETRIES} \
             consecutive draws; loosen the filter"
        );
    }

    /// Deterministic per-case RNG: same (test, case) always replays the
    /// same inputs.
    pub fn case_rng(test_name: &str, case: u32) -> StdRng {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        StdRng::seed_from_u64(h ^ ((case as u64) << 32 | 0x5EED))
    }

    /// Runs `body` for `config.cases` cases, panicking with the case
    /// number on failure so the seed can be replayed.
    pub fn run_cases<F>(test_name: &str, config: &ProptestConfig, mut body: F)
    where
        F: FnMut(&mut StdRng) -> TestCaseResult,
    {
        for case in 0..config.cases {
            let mut rng = case_rng(test_name, case);
            if let Err(e) = body(&mut rng) {
                panic!(
                    "proptest {test_name} failed at case {case}/{}: {e}",
                    config.cases
                );
            }
        }
    }
}

/// Asserts a condition inside a property, failing the case (not the
/// whole process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::runner::TestCaseError(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts two values are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if *l != *r {
            return ::core::result::Result::Err($crate::runner::TestCaseError(
                format!($($fmt)*),
            ));
        }
    }};
}

/// Uniformly chooses among strategy arms, boxing them to a common type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Defines functions whose arguments are drawn from strategies.
/// Supports an optional leading `#![proptest_config(expr)]`.
///
/// As in upstream proptest, the macro adds no `#[test]`: each `fn` in the
/// block carries its own, or it never runs (and a second one would
/// register it twice).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`]: expands each `fn` item.
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::runner::run_cases(stringify!($name), &config, |rng| {
                $(let $pat = $crate::runner::draw(&($strat), rng, stringify!($name));)+
                $body
                ::core::result::Result::Ok(())
            });
        }
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::runner::TestCaseError;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just, ProptestConfig,
        Strategy, Union,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::runner;

    #[test]
    fn draws_are_deterministic() {
        let strat = (0u32..100).prop_map(|x| x * 2);
        let mut a = runner::case_rng("t", 3);
        let mut b = runner::case_rng("t", 3);
        for _ in 0..10 {
            assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
        }
    }

    #[test]
    fn filter_map_retries() {
        let strat = (0u32..10).prop_filter_map("even", |x| (x % 2 == 0).then_some(x));
        let mut rng = runner::case_rng("filter", 0);
        for _ in 0..50 {
            let v = runner::draw(&strat, &mut rng, "filter");
            assert_eq!(v % 2, 0);
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let strat = prop_oneof![Just(1u32), Just(2u32), Just(3u32)];
        let mut rng = runner::case_rng("oneof", 0);
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[runner::draw(&strat, &mut rng, "oneof") as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn vec_respects_size_range() {
        let strat = collection::vec(0f64..1.0, 2..=5);
        let mut rng = runner::case_rng("vec", 0);
        for _ in 0..50 {
            let v = runner::draw(&strat, &mut rng, "vec");
            assert!((2..=5).contains(&v.len()));
            assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn macro_defined_property(x in 0u64..1000, y in 0u64..1000) {
            prop_assert!(x + y < 2000);
            prop_assert_eq!(x + y, y + x);
        }
    }

    proptest! {
        #[test]
        fn default_config_property(v in collection::vec(0i32..10, 0..4)) {
            prop_assert!(v.len() < 4);
        }
    }
}
