//! Offline shim for the `proptest` API surface used by this workspace.
//!
//! A miniature property-testing harness: deterministic pseudo-random case
//! generation behind the real crate's macro and `Strategy` combinator
//! names. Differences from the real `proptest`: no shrinking (a failing
//! case reports its values and seed, but is not minimized), and case seeds
//! are derived deterministically from the test name, so runs are fully
//! reproducible without a persistence file.
//!
//! Supported surface: `proptest!` (block and closure forms with optional
//! `#![proptest_config(..)]`), `prop_assert!`, `prop_assert_eq!`,
//! `prop_assert_ne!`, `prop_assume!`, `any::<T>()`, numeric-range and
//! tuple strategies, `Strategy::prop_map`/`prop_filter`, `Just`, and
//! `prop::collection::vec`.

/// Deterministic generator handed to strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Self { state: seed };
        let _ = rng.next_u64();
        rng
    }

    /// Derives the per-case generator for case `case` of test `name`.
    pub fn for_case(name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        Self::from_seed(h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `usize` in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Error type carried by failing property assertions.
pub type TestCaseError = String;
/// Result type of one generated case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Run-time configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A generator of values of an associated type.
///
/// The real crate's strategies form a lazy tree supporting shrinking; this
/// shim only needs forward generation.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Discards generated values failing `pred` (retrying a bounded number
    /// of times before panicking, rather than globally rejecting).
    fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            pred,
        }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn new_value(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.new_value(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 1000 candidates in a row: {}",
            self.whence
        );
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical full-domain strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Generates one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f64 {
    /// All bit patterns, including infinities, NaNs and subnormals — the
    /// same full-domain default the real crate uses for floats is wider
    /// than needed here; full bit coverage stresses order-preserving
    /// encodings hardest.
    fn arbitrary(rng: &mut TestRng) -> f64 {
        f64::from_bits(rng.next_u64())
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f32::from_bits(rng.next_u64() as u32)
    }
}

/// The canonical strategy for an [`Arbitrary`] type.
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Returns the full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
impl_range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        lo + rng.unit_f64() * (hi - lo)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case, reason = "the bindings reuse the type parameter names")]
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
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
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};

    /// Lengths acceptable to [`vec()`]: a fixed size or a range of sizes.
    pub trait SizeRange {
        /// Picks a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty vec size range");
            self.start + rng.below(self.end - self.start)
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty vec size range");
            lo + rng.below(hi - lo + 1)
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// A strategy for `Vec`s whose elements come from `element` and whose
    /// length comes from `len` (a fixed `usize` or a range).
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }
}

/// Runs `cfg.cases` generated cases of property `name` through `f`,
/// panicking (with the case index, for reproduction) on the first failure.
pub fn run_cases<F>(cfg: ProptestConfig, name: &str, mut f: F)
where
    F: FnMut(&mut TestRng) -> TestCaseResult,
{
    for case in 0..cfg.cases {
        let mut rng = TestRng::for_case(name, case);
        if let Err(msg) = f(&mut rng) {
            panic!(
                "property '{name}' failed at case {case}/{}: {msg}",
                cfg.cases
            );
        }
    }
}

/// Asserts a condition inside a property, failing the current case (not
/// the whole process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err(::std::format!(
                "prop_assert failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a property (non-consuming, like `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&($left), &($right)) {
            (l, r) => {
                if !(*l == *r) {
                    return ::core::result::Result::Err(::std::format!(
                        "prop_assert_eq failed: {:?} != {:?} ({}:{})",
                        l,
                        r,
                        file!(),
                        line!()
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&($left), &($right)) {
            (l, r) => {
                if !(*l == *r) {
                    return ::core::result::Result::Err(::std::format!($($fmt)+));
                }
            }
        }
    };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&($left), &($right)) {
            (l, r) => {
                if *l == *r {
                    return ::core::result::Result::Err(::std::format!(
                        "prop_assert_ne failed: {:?} == {:?} ({}:{})",
                        l,
                        r,
                        file!(),
                        line!()
                    ));
                }
            }
        }
    };
}

/// Skips the current case when its inputs do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Ok(());
        }
    };
}

/// Declares property tests (block form) or runs one inline (closure form).
#[macro_export]
macro_rules! proptest {
    // Closure form: proptest!(|(x in strat, ...)| { body });
    (|($($pat:pat in $strat:expr),+ $(,)?)| $body:block) => {
        $crate::run_cases(
            $crate::ProptestConfig::default(),
            concat!(file!(), ":", line!()),
            |__rng| {
                $(let $pat = $crate::Strategy::new_value(&($strat), __rng);)+
                $body
                ::core::result::Result::Ok(())
            },
        )
    };
    // Block form with a leading config attribute.
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    // Block form with the default config.
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: expands each `fn` in the block.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_cases($cfg, stringify!($name), |__rng| {
                $(let $pat = $crate::Strategy::new_value(&($strat), __rng);)+
                $body
                ::core::result::Result::Ok(())
            });
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Any, Arbitrary,
        Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult, TestRng,
    };

    pub mod prop {
        //! The `prop::` namespace (e.g. `prop::collection::vec`).
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_seed(1);
        for _ in 0..1000 {
            let x = Strategy::new_value(&(3usize..10), &mut rng);
            assert!((3..10).contains(&x));
            let y = Strategy::new_value(&(-5.0f64..5.0), &mut rng);
            assert!((-5.0..5.0).contains(&y));
        }
    }

    #[test]
    fn map_and_tuple_compose() {
        let strat = (0u32..10, 0u32..10).prop_map(|(a, b)| a + b);
        let mut rng = TestRng::from_seed(2);
        for _ in 0..100 {
            assert!(strat.new_value(&mut rng) < 19);
        }
    }

    #[test]
    fn vec_respects_length_specs() {
        let mut rng = TestRng::from_seed(3);
        let fixed = crate::collection::vec(0u32..5, 3usize);
        assert_eq!(fixed.new_value(&mut rng).len(), 3);
        let ranged = crate::collection::vec(0u32..5, 1usize..4);
        for _ in 0..50 {
            let v = ranged.new_value(&mut rng);
            assert!((1..4).contains(&v.len()));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a = TestRng::for_case("x", 0).next_u64();
        let b = TestRng::for_case("x", 0).next_u64();
        let c = TestRng::for_case("x", 1).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro machinery itself: generation, assume, assert.
        #[test]
        fn macro_block_form(x in 0u32..100, (a, b) in (0u32..10, 0u32..10)) {
            prop_assume!(x != 99);
            prop_assert!(x < 99);
            prop_assert_eq!(a + b, b + a);
            prop_assert_ne!(a, a + 1);
        }
    }

    #[test]
    fn macro_closure_form() {
        proptest!(|(x in 0u32..5, y in 0u32..5)| {
            prop_assert!(x + y < 10);
        });
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics() {
        proptest!(|(x in 0u32..10)| {
            prop_assert!(x < 5, "x was {}", x);
        });
    }
}
