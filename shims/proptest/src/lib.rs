//! Offline stand-in for `proptest` (see `shims/README.md`).
//!
//! A working property-test runner covering the surface this workspace
//! uses: the `proptest!` macro over `ident in strategy` arguments,
//! integer/float range strategies, `prop_map`, `Just`, tuple and
//! `prop::collection::vec` composition, `prop_oneof!` (uniform or
//! `weight => strategy`), `any::<bool>()`
//! and the `prop_assert*` macros. Differences from upstream: failing
//! cases are not shrunk, and generation is deterministic per test name
//! and case index, so re-running a failed test replays the exact same
//! cases.

use std::ops::Range;

/// Runner configuration. Only `cases` is consulted.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic RNG (splitmix64) seeded from test name + case index.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds from the property's fully qualified name and case index.
    pub fn for_case(name: &str, case: u64) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng(h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[lo, hi)`. Modulo bias is irrelevant at test
    /// scale.
    pub fn below(&mut self, span: u64) -> u64 {
        if span == 0 {
            0
        } else {
            self.next_u64() % span
        }
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A value generator. Upstream proptest separates strategies from value
/// trees to support shrinking; this shim generates values directly.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { strategy: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    strategy: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.strategy.generate(rng))
    }
}

/// Strategy producing one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($t:ident . $i:tt),+))*) => {$(
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Boxed generator closure for one `prop_oneof!` alternative.
pub type UnionArm<V> = Box<dyn Fn(&mut TestRng) -> V>;

/// Weighted choice between boxed alternatives (`prop_oneof!` backend).
pub struct Union<V> {
    options: Vec<(u32, UnionArm<V>)>,
    total: u64,
}

impl<V> Union<V> {
    /// Builds a uniform choice from the alternatives' generator closures.
    pub fn new(options: Vec<UnionArm<V>>) -> Self {
        Self::new_weighted(options.into_iter().map(|arm| (1, arm)).collect())
    }

    /// Builds from `(weight, generator)` pairs; an arm is picked with
    /// probability weight / total.
    pub fn new_weighted(options: Vec<(u32, UnionArm<V>)>) -> Self {
        let total = options.iter().map(|&(w, _)| u64::from(w)).sum();
        assert!(total > 0, "prop_oneof! needs an arm with non-zero weight");
        Union { options, total }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let mut pick = rng.below(self.total);
        for (weight, arm) in &self.options {
            if pick < u64::from(*weight) {
                return arm(rng);
            }
            pick -= u64::from(*weight);
        }
        unreachable!("pick < total")
    }
}

/// Types with a canonical strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// The canonical strategy type.
    type Strategy: Strategy<Value = Self>;
    /// The canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Fair-coin strategy for `bool`.
#[derive(Debug, Clone, Copy)]
pub struct BoolStrategy;

impl Strategy for BoolStrategy {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = BoolStrategy;
    fn arbitrary() -> BoolStrategy {
        BoolStrategy
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Collection strategies (mirror of `proptest::collection`).
pub mod collection {
    use super::{Range, Strategy, TestRng};

    /// Strategy for `Vec<T>` with a length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `Vec` strategy with element strategy and length range.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a proptest file conventionally imports.
pub mod prelude {
    /// Alias of the crate root so `prop::collection::vec` resolves.
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (@with_config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            #[test]
            $(#[$meta])*
            fn $name() {
                let config = $cfg;
                for case in 0..config.cases as u64 {
                    let mut rng = $crate::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(
                        let $arg = $crate::Strategy::generate(&($strat), &mut rng);
                    )+
                    $body
                }
            }
        )*
    };
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    ( $($rest:tt)* ) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Picks one of several strategies with the same value type: uniformly,
/// or in proportion to `weight => strategy` weights.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::Union::new_weighted(::std::vec![
            $(
                {
                    let s = $strategy;
                    (
                        $weight,
                        ::std::boxed::Box::new(move |rng: &mut $crate::TestRng| {
                            $crate::Strategy::generate(&s, rng)
                        }) as ::std::boxed::Box<dyn Fn(&mut $crate::TestRng) -> _>,
                    )
                }
            ),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(::std::vec![
            $(
                {
                    let s = $strategy;
                    ::std::boxed::Box::new(move |rng: &mut $crate::TestRng| {
                        $crate::Strategy::generate(&s, rng)
                    }) as ::std::boxed::Box<dyn Fn(&mut $crate::TestRng) -> _>
                }
            ),+
        ])
    };
}
