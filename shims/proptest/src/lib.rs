//! Offline shim for [`proptest`](https://crates.io/crates/proptest).
//!
//! The build environment has no network access to crates.io, so this crate
//! provides the subset of the proptest API the workspace's property tests
//! use: the [`Strategy`](strategy::Strategy) trait with `prop_map` /
//! `prop_recursive` / `boxed`, range and string-pattern strategies, tuple
//! strategies, [`collection::vec`] / [`collection::btree_map`], `any`,
//! `Just`, `prop_oneof!`, and the `proptest!` / `prop_assert!` /
//! `prop_assert_eq!` macros.
//!
//! Compared to real proptest this shim only *generates* random cases — it
//! does not shrink failing inputs. Generation is deterministic per test name,
//! so failures are reproducible.
//!
//! Swap this path dependency for the real crate once the build environment
//! can reach a registry; no source changes are required.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Test configuration and the deterministic generator driving each test.

    /// Configuration accepted by `#![proptest_config(...)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A configuration running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Deterministic pseudo-random generator (splitmix64), seeded from the
    /// test name so every run of a property is reproducible.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator seeded with `seed`.
        pub fn new(seed: u64) -> Self {
            TestRng {
                state: seed ^ 0x9E37_79B9_7F4A_7C15,
            }
        }

        /// A generator seeded from a test name (FNV-1a hash).
        pub fn from_name(name: &str) -> Self {
            let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
            for byte in name.bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x1_0000_0000_01B3);
            }
            TestRng::new(hash)
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A uniform value in `[0, bound)`.
        ///
        /// # Panics
        ///
        /// Panics if `bound` is zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "below(0)");
            self.next_u64() % bound
        }

        /// A uniform float in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    //! Value-generation strategies and combinators.

    use std::ops::Range;
    use std::rc::Rc;

    use crate::test_runner::TestRng;

    /// A recipe for generating random values of one type.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// A strategy applying `f` to every generated value.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { strategy: self, f }
        }

        /// Type-erases this strategy so heterogeneous strategies can be
        /// mixed (e.g. by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }

        /// A strategy for recursive data: `branch` receives a strategy for
        /// the contained values and wraps it one level; values nest up to
        /// `depth` levels. (`_desired_size` and `_expected_branch_size` are
        /// accepted for proptest API compatibility and ignored.)
        fn prop_recursive<F, S>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            branch: F,
        ) -> Recursive<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S + 'static,
            S: Strategy<Value = Self::Value> + 'static,
        {
            Recursive {
                base: self.boxed(),
                depth,
                branch: Rc::new(move |inner| branch(inner).boxed()),
            }
        }
    }

    /// A type-erased, cheaply cloneable strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(self.0.clone())
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Always generates a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        strategy: S,
        f: F,
    }

    impl<S, F, T> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.strategy.generate(rng))
        }
    }

    /// Picks one of several strategies uniformly (built by `prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `options`.
        ///
        /// # Panics
        ///
        /// Panics if `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let pick = rng.below(self.options.len() as u64) as usize;
            self.options[pick].generate(rng)
        }
    }

    /// Strategy returned by [`Strategy::prop_recursive`].
    pub struct Recursive<T> {
        base: BoxedStrategy<T>,
        depth: u32,
        branch: Rc<dyn Fn(BoxedStrategy<T>) -> BoxedStrategy<T>>,
    }

    impl<T: 'static> Strategy for Recursive<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            // Mix leaves and branches at every level: each level of nesting
            // wraps a union of the base strategy and the previous level.
            let levels = rng.below(self.depth as u64 + 1) as u32;
            let mut strategy = self.base.clone();
            for _ in 0..levels {
                let wrapped = (self.branch)(strategy.clone());
                strategy = Union::new(vec![self.base.clone(), wrapped]).boxed();
            }
            strategy.generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let offset = (rng.next_u64() as u128) % span;
                    (self.start as i128 + offset as i128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "cannot sample empty range");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    /// String-pattern strategy: a `&'static str` is interpreted as a
    /// simplified regex of literal characters and `[a-z]`-style classes,
    /// each optionally followed by `{n}` or `{m,n}`.
    impl Strategy for &'static str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            generate_pattern(self, rng)
        }
    }

    fn generate_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i < chars.len() {
            let class: Vec<(char, char)> = if chars[i] == '[' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .map(|offset| i + offset)
                    .unwrap_or_else(|| panic!("unclosed [ in pattern {pattern}"));
                let mut ranges = Vec::new();
                let mut j = i + 1;
                while j < close {
                    if j + 2 < close && chars[j + 1] == '-' {
                        ranges.push((chars[j], chars[j + 2]));
                        j += 3;
                    } else {
                        ranges.push((chars[j], chars[j]));
                        j += 1;
                    }
                }
                i = close + 1;
                ranges
            } else {
                let c = chars[i];
                i += 1;
                vec![(c, c)]
            };
            let (min, max) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .map(|offset| i + offset)
                    .unwrap_or_else(|| panic!("unclosed {{ in pattern {pattern}"));
                let spec: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match spec.split_once(',') {
                    Some((m, n)) => (
                        m.trim().parse().expect("bad repeat min"),
                        n.trim().parse().expect("bad repeat max"),
                    ),
                    None => {
                        let n: usize = spec.trim().parse().expect("bad repeat count");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            let count = min + rng.below((max - min + 1) as u64) as usize;
            for _ in 0..count {
                let (lo, hi) = class[rng.below(class.len() as u64) as usize];
                let span = (hi as u32) - (lo as u32) + 1;
                let code = (lo as u32) + rng.below(span as u64) as u32;
                out.push(char::from_u32(code).expect("valid char range"));
            }
        }
        out
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+)),+ $(,)?) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )+};
    }

    impl_tuple_strategy!((A), (A, B), (A, B, C), (A, B, C, D));
}

pub mod arbitrary {
    //! `any::<T>()` strategies for primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Generates an arbitrary value of this type.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The canonical strategy for all values of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    /// Strategy returned by [`any`].
    #[derive(Debug, Clone)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
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

    impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite, sign-symmetric values spanning a wide magnitude range.
            let magnitude = rng.unit_f64() * 1e12;
            if rng.next_u64() & 1 == 1 {
                magnitude
            } else {
                -magnitude
            }
        }
    }
}

pub mod collection {
    //! Strategies for collections.

    use std::collections::BTreeMap;
    use std::ops::Range;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A strategy for `Vec`s whose length is drawn from `size` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1);
            let len = self.size.start + rng.below(span as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for `BTreeMap`s with up to `size.end - 1` entries (fewer
    /// when duplicate keys are generated, matching proptest semantics).
    pub fn btree_map<K, V>(keys: K, values: V, size: Range<usize>) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        BTreeMapStrategy { keys, values, size }
    }

    /// Strategy returned by [`btree_map`].
    #[derive(Debug, Clone)]
    pub struct BTreeMapStrategy<K, V> {
        keys: K,
        values: V,
        size: Range<usize>,
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        type Value = BTreeMap<K::Value, V::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let span = (self.size.end - self.size.start).max(1);
            let len = self.size.start + rng.below(span as u64) as usize;
            (0..len)
                .map(|_| (self.keys.generate(rng), self.values.generate(rng)))
                .collect()
        }
    }
}

pub mod prelude {
    //! The glob-importable API surface, mirroring `proptest::prelude`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespaced access to strategy modules (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Builds a [`Union`](strategy::Union) choosing uniformly among strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Asserts a condition inside a property (shim: plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property (shim: plain `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property (shim: plain `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a test running `body` for every generated case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr)
      $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
                for _case in 0..config.cases {
                    $( let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut rng); )+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_any_stay_in_bounds() {
        let mut rng = TestRng::from_name("bounds");
        for _ in 0..200 {
            let v = (10i64..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let f = (-1.5f64..1.5).generate(&mut rng);
            assert!((-1.5..1.5).contains(&f));
            let _: bool = any::<bool>().generate(&mut rng);
        }
    }

    #[test]
    fn string_patterns_match_their_classes() {
        let mut rng = TestRng::from_name("patterns");
        for _ in 0..100 {
            let s = "[a-z]{1,6}".generate(&mut rng);
            assert!((1..=6).contains(&s.len()), "bad length {s:?}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let t = "[a-c]".generate(&mut rng);
            assert_eq!(t.len(), 1);
            assert!(('a'..='c').contains(&t.chars().next().unwrap()));
            let empty_ok = "[a-z]{0,2}".generate(&mut rng);
            assert!(empty_ok.len() <= 2);
        }
    }

    #[test]
    fn collections_and_tuples_compose() {
        let mut rng = TestRng::from_name("collections");
        for _ in 0..50 {
            let pairs = crate::collection::vec(("[a-c]", 0i64..5), 1..10).generate(&mut rng);
            assert!((1..10).contains(&pairs.len()));
            let map = crate::collection::btree_map("[a-b]", 0i64..5, 0..4).generate(&mut rng);
            assert!(map.len() < 4);
        }
    }

    #[test]
    fn oneof_map_and_recursive_generate() {
        #[derive(Debug, Clone, PartialEq)]
        enum Tree {
            Leaf(i64),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(children) => 1 + children.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strategy = prop_oneof![Just(Tree::Leaf(0)), (1i64..10).prop_map(Tree::Leaf),]
            .prop_recursive(3, 8, 4, |inner| {
                crate::collection::vec(inner, 0..3).prop_map(Tree::Node)
            });
        let mut rng = TestRng::from_name("recursive");
        let mut max_depth = 0;
        for _ in 0..200 {
            let tree = strategy.generate(&mut rng);
            max_depth = max_depth.max(depth(&tree));
        }
        assert!(max_depth >= 1, "recursion never produced a branch");
        assert!(max_depth <= 4, "recursion depth exploded: {max_depth}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn the_proptest_macro_itself_works(a in 0i64..10, b in 0i64..10) {
            prop_assert!(a + b >= 0);
            prop_assert_eq!(a + b, b + a);
            prop_assert_ne!(a + b, a + b + 1);
        }
    }
}
