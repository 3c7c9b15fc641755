//! Offline shim for the subset of the `proptest` 1.x API used by this
//! workspace.
//!
//! The build container has no network access, so the real crate cannot
//! be fetched. This shim keeps the same *surface*: the [`proptest!`]
//! macro, the [`Strategy`] combinators (`prop_map`, `prop_flat_map`,
//! tuples, ranges, regex-ish string strategies), the `prop::` module
//! tree (`collection::vec`, `sample::select`, `bool::ANY`,
//! `option::of`), [`Just`], [`prop_oneof!`], `prop_assert*!` and
//! [`ProptestConfig`]. Semantically it is a plain seeded random tester:
//! no shrinking, no persistence. Failures report the seed and the
//! generated inputs via `Debug` where available.

#![forbid(unsafe_code)]

use std::ops::Range;

pub mod test_runner {
    //! The tiny runner: RNG, config and case-level error plumbing.

    use rand::rngs::StdRng;
    use rand::{Rng as _, RngCore, SeedableRng};

    /// Deterministic per-case RNG.
    #[derive(Debug, Clone)]
    pub struct TestRng(StdRng);

    impl TestRng {
        /// A generator for one test case of one test function.
        pub fn deterministic(test_hash: u64, case: u64) -> Self {
            TestRng(StdRng::seed_from_u64(
                test_hash ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ))
        }

        /// The next raw 64-bit word.
        pub fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }

        /// Uniform integer in `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                self.0.next_u64() % n
            }
        }

        /// Uniform `i128` in `[lo, hi)`.
        pub fn in_range(&mut self, lo: i128, hi: i128) -> i128 {
            assert!(lo < hi, "empty strategy range");
            let span = (hi - lo) as u128;
            lo + ((self.0.next_u64() as u128) % span) as i128
        }

        /// A coin flip.
        pub fn coin(&mut self) -> bool {
            self.0.gen_bool(0.5)
        }
    }

    /// How a single case ended short of success.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; the case is skipped.
        Reject(String),
        /// A `prop_assert*!` failed.
        Fail(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A rejection with the given reason.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Runner configuration; only `cases` matters to the shim.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases each test runs.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }
}

pub use test_runner::Config as ProptestConfig;
use test_runner::TestRng;

// ---------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Derives a second strategy from each generated value.
    fn prop_flat_map<O: Strategy, F: Fn(Self::Value) -> O>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
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
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Strategy, F: Fn(S::Value) -> O> Strategy for FlatMap<S, F> {
    type Value = O::Value;
    fn generate(&self, rng: &mut TestRng) -> O::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
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

/// Uniform choice between same-typed strategies ([`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds the union; panics when `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.in_range(self.start as i128, self.end as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
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

// ---------------------------------------------------------------------
// Regex-ish string strategies
// ---------------------------------------------------------------------

/// `&str` strategies are interpreted as a regex *generator* over the
/// subset of syntax the workspace uses: literals, `(a|b)` groups,
/// `[a-z0-9 ]` classes, `.`/`\PC` printable wildcards, and the `*`,
/// `?`, `{n}`, `{n,m}` quantifiers.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let ast = regex::parse(self);
        let mut out = String::new();
        regex::generate(&ast, rng, &mut out);
        out
    }
}

impl Strategy for String {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let ast = regex::parse(self);
        let mut out = String::new();
        regex::generate(&ast, rng, &mut out);
        out
    }
}

mod regex {
    //! A miniature regex sampler (generation only, no matching).

    use super::test_runner::TestRng;

    #[derive(Debug, Clone)]
    pub enum Node {
        /// Alternation of concatenations.
        Alt(Vec<Vec<Node>>),
        /// Character class: inclusive ranges.
        Class(Vec<(char, char)>),
        /// A literal character.
        Lit(char),
        /// Any printable character (`.` / `\PC`).
        Printable,
        /// `node{lo,hi}` (inclusive hi).
        Repeat(Box<Node>, u32, u32),
    }

    struct Parser<'a> {
        chars: std::iter::Peekable<std::str::Chars<'a>>,
        src: &'a str,
    }

    pub fn parse(src: &str) -> Node {
        let mut p = Parser {
            chars: src.chars().peekable(),
            src,
        };
        let alt = p.alternation(false);
        assert!(
            p.chars.peek().is_none(),
            "regex shim: trailing input in {src:?}"
        );
        Node::Alt(alt)
    }

    impl<'a> Parser<'a> {
        fn alternation(&mut self, in_group: bool) -> Vec<Vec<Node>> {
            let mut arms = vec![Vec::new()];
            loop {
                match self.chars.peek().copied() {
                    None => break,
                    Some(')') if in_group => break,
                    Some('|') => {
                        self.chars.next();
                        arms.push(Vec::new());
                    }
                    Some(_) => {
                        let atom = self.atom();
                        let atom = self.quantified(atom);
                        arms.last_mut().expect("one arm").push(atom);
                    }
                }
            }
            arms
        }

        fn atom(&mut self) -> Node {
            match self.chars.next().expect("atom") {
                '(' => {
                    let alt = self.alternation(true);
                    assert_eq!(
                        self.chars.next(),
                        Some(')'),
                        "regex shim: unclosed group in {:?}",
                        self.src
                    );
                    Node::Alt(alt)
                }
                '[' => {
                    let mut ranges = Vec::new();
                    loop {
                        let c = self.chars.next().unwrap_or_else(|| {
                            panic!("regex shim: unclosed class in {:?}", self.src)
                        });
                        if c == ']' {
                            break;
                        }
                        let c = if c == '\\' {
                            self.chars.next().expect("escape")
                        } else {
                            c
                        };
                        if self.chars.peek() == Some(&'-') {
                            let mut probe = self.chars.clone();
                            probe.next(); // the '-'
                            match probe.peek() {
                                Some(&end) if end != ']' => {
                                    self.chars.next();
                                    self.chars.next();
                                    ranges.push((c, end));
                                    continue;
                                }
                                _ => {}
                            }
                        }
                        ranges.push((c, c));
                    }
                    Node::Class(ranges)
                }
                '.' => Node::Printable,
                '\\' => match self.chars.next().expect("escape") {
                    'n' => Node::Lit('\n'),
                    't' => Node::Lit('\t'),
                    'r' => Node::Lit('\r'),
                    'P' | 'p' => {
                        // \PC — printable; consume the one-letter class.
                        self.chars.next();
                        Node::Printable
                    }
                    other => Node::Lit(other),
                },
                lit => Node::Lit(lit),
            }
        }

        fn quantified(&mut self, atom: Node) -> Node {
            match self.chars.peek().copied() {
                Some('*') => {
                    self.chars.next();
                    Node::Repeat(Box::new(atom), 0, 16)
                }
                Some('+') => {
                    self.chars.next();
                    Node::Repeat(Box::new(atom), 1, 16)
                }
                Some('?') => {
                    self.chars.next();
                    Node::Repeat(Box::new(atom), 0, 1)
                }
                Some('{') => {
                    self.chars.next();
                    let mut spec = String::new();
                    for c in self.chars.by_ref() {
                        if c == '}' {
                            break;
                        }
                        spec.push(c);
                    }
                    let (lo, hi) = match spec.split_once(',') {
                        Some((l, h)) => (
                            l.trim().parse().expect("repeat lower bound"),
                            h.trim().parse().expect("repeat upper bound"),
                        ),
                        None => {
                            let n = spec.trim().parse().expect("repeat count");
                            (n, n)
                        }
                    };
                    Node::Repeat(Box::new(atom), lo, hi)
                }
                _ => atom,
            }
        }
    }

    const PRINTABLE: (char, char) = (' ', '~');

    pub fn generate(node: &Node, rng: &mut TestRng, out: &mut String) {
        match node {
            Node::Alt(arms) => {
                let arm = &arms[rng.below(arms.len() as u64) as usize];
                for n in arm {
                    generate(n, rng, out);
                }
            }
            Node::Class(ranges) => {
                let total: u64 = ranges
                    .iter()
                    .map(|(a, b)| (*b as u64).saturating_sub(*a as u64) + 1)
                    .sum();
                let mut pick = rng.below(total.max(1));
                for (a, b) in ranges {
                    let span = (*b as u64) - (*a as u64) + 1;
                    if pick < span {
                        let c = char::from_u32(*a as u32 + pick as u32).unwrap_or(*a);
                        out.push(c);
                        return;
                    }
                    pick -= span;
                }
            }
            Node::Lit(c) => out.push(*c),
            Node::Printable => {
                let span = PRINTABLE.1 as u64 - PRINTABLE.0 as u64 + 1;
                let c = char::from_u32(PRINTABLE.0 as u32 + rng.below(span) as u32).unwrap();
                out.push(c);
            }
            Node::Repeat(inner, lo, hi) => {
                let n = *lo as u64 + rng.below((*hi - *lo + 1) as u64);
                for _ in 0..n {
                    generate(inner, rng, out);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// prop:: module tree
// ---------------------------------------------------------------------

/// The `prop::` namespace mirrored from the real crate.
pub mod prop {
    /// Boolean strategies.
    pub mod bool {
        use crate::test_runner::TestRng;
        use crate::Strategy;

        /// Uniform `true`/`false`.
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        /// The uniform boolean strategy.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = bool;
            fn generate(&self, rng: &mut TestRng) -> bool {
                rng.coin()
            }
        }
    }

    /// Collection strategies.
    pub mod collection {
        use crate::test_runner::TestRng;
        use crate::Strategy;
        use std::ops::Range;

        /// Size specification for [`vec`](fn@vec): an exact count or a range.
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // exclusive
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n + 1 }
            }
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                SizeRange {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        /// Vectors of values from `element`, sized by `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// See [`vec`](fn@vec).
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi - self.size.lo).max(1) as u64;
                let n = self.size.lo + rng.below(span) as usize;
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Sampling from explicit value sets.
    pub mod sample {
        use crate::test_runner::TestRng;
        use crate::Strategy;

        /// Uniform choice from a vector of values.
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            assert!(!options.is_empty(), "select: empty options");
            Select { options }
        }

        /// See [`select`].
        #[derive(Debug, Clone)]
        pub struct Select<T> {
            options: Vec<T>,
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn generate(&self, rng: &mut TestRng) -> T {
                self.options[rng.below(self.options.len() as u64) as usize].clone()
            }
        }
    }

    /// Option strategies.
    pub mod option {
        use crate::test_runner::TestRng;
        use crate::Strategy;

        /// `None` a quarter of the time, `Some(inner)` otherwise.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        /// See [`of`].
        #[derive(Debug, Clone)]
        pub struct OptionStrategy<S> {
            inner: S,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.below(4) == 0 {
                    None
                } else {
                    Some(self.inner.generate(rng))
                }
            }
        }
    }
}

/// Everything a test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Uniform alternation between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fails the current case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, $($fmt)*);
    }};
}

/// Fails the current case when the two values compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// Skips the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// The property-test entry macro; same shape as the real crate's.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                // Stable per-test stream: hash the test name.
                let test_hash: u64 = stringify!($name)
                    .bytes()
                    .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
                    });
                let strategies = ($($strat,)+);
                let mut rejected: u32 = 0;
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::TestRng::deterministic(
                        test_hash,
                        case as u64,
                    );
                    let ($($pat,)+) =
                        $crate::Strategy::generate(&strategies, &mut rng);
                    let outcome: ::core::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| { $body ::core::result::Result::Ok(()) })();
                    match outcome {
                        ::core::result::Result::Ok(()) => {}
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(_),
                        ) => {
                            rejected += 1;
                        }
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(msg),
                        ) => {
                            panic!(
                                "proptest case {}/{} failed: {}",
                                case, config.cases, msg
                            );
                        }
                    }
                }
                // Mirror the real crate's too-many-rejects guard loosely.
                assert!(
                    rejected < config.cases,
                    "proptest: every case was rejected by prop_assume!"
                );
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (i64, i64)> {
        (0i64..10, 10i64..20)
    }

    proptest! {
        #[test]
        fn ranges_in_bounds(x in -5i64..5, n in 0usize..4) {
            prop_assert!((-5..5).contains(&x));
            prop_assert!(n < 4);
        }

        #[test]
        fn combinators_compose(
            v in prop::collection::vec((0i64..4).prop_map(|x| x * 2), 1..5),
            p in arb_pair().prop_flat_map(|(a, b)| (Just(a), Just(b), a..b)),
            o in prop::option::of(0i64..3),
            s in prop::sample::select(vec!["a", "b"]),
            flag in prop::bool::ANY,
        ) {
            prop_assert!(!v.is_empty() && v.len() < 5);
            prop_assert!(v.iter().all(|x| x % 2 == 0));
            let (a, b, mid) = p;
            prop_assert!(a <= mid && mid < b);
            if let Some(x) = o { prop_assert!(x < 3); }
            prop_assert!(s == "a" || s == "b");
            let _ = flag;
        }

        #[test]
        fn oneof_hits_all_arms(x in prop_oneof![Just(1i64), Just(2i64), 10i64..12]) {
            prop_assert!(x == 1 || x == 2 || x == 10 || x == 11);
        }

        #[test]
        fn regexish_strings(
            word in "[a-z]{1,4}",
            num in "[1-9][0-9]{2,3}",
            alt in "(ab|cd)*",
            any in "\\PC*",
        ) {
            prop_assert!((1..=4).contains(&word.len()));
            prop_assert!(word.chars().all(|c| c.is_ascii_lowercase()));
            let n: u64 = num.parse().unwrap();
            prop_assert!(n >= 100);
            prop_assert!(alt.len() % 2 == 0);
            prop_assert!(any.chars().all(|c| (' '..='~').contains(&c)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn config_and_assume(x in 0i64..100) {
            prop_assume!(x < 99); // nearly always holds
            prop_assert!(x < 99);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::TestRng::deterministic(1, 2);
        let mut b = crate::test_runner::TestRng::deterministic(1, 2);
        let s: String = Strategy::generate(&"[a-z]{8}", &mut a);
        let t: String = Strategy::generate(&"[a-z]{8}", &mut b);
        assert_eq!(s, t);
    }
}
