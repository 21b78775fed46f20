//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to a crate registry, so this shim
//! provides the (small) subset of the `rand 0.8` API the workspace actually
//! uses, backed by a xoshiro256++ generator. Sequences differ from upstream
//! `rand`'s `StdRng` (ChaCha12), but every consumer in this workspace only
//! requires determinism for a fixed seed plus reasonable statistical
//! quality, both of which xoshiro256++ provides.
//!
//! Surface implemented:
//!
//! * [`Rng`] — `gen`, `gen_range` (half-open and inclusive integer ranges,
//!   half-open float ranges), `gen_bool`, `fill` (unused helpers omitted);
//! * [`SeedableRng`] — `seed_from_u64`, `from_seed`;
//! * [`rngs::StdRng`];
//! * [`seq::SliceRandom::shuffle`].

#![warn(missing_docs)]

/// Uniformly samplable primitive (the `Standard`-distribution subset).
pub trait Standard: Sized {
    /// Draws one value from the generator.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` using the top 53 bits.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// A range that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as u128) - (self.start as u128);
                let v = uniform_u128(rng, span);
                (self.start as u128 + v) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in gen_range");
                let span = (end as u128) - (start as u128) + 1;
                let v = uniform_u128(rng, span);
                (start as u128 + v) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = uniform_u128(rng, span);
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in gen_range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let v = uniform_u128(rng, span);
                (start as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_signed_range!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        let u = f64::draw(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for std::ops::RangeInclusive<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range in gen_range");
        let u = f64::draw(rng);
        start + u * (end - start)
    }
}

/// Unbiased uniform draw in `[0, span)` via rejection sampling.
#[inline]
fn uniform_u128<G: RngCore + ?Sized>(rng: &mut G, span: u128) -> u128 {
    debug_assert!(span > 0);
    if span <= u64::MAX as u128 {
        let span = span as u64;
        // Widening-multiply rejection (Lemire): accept `lo <= zone`, where
        // `zone = u64::MAX - (2^64 - span) % span` leaves a multiple of
        // `span` below it. The remainder is below `span`, so the zone is at
        // least `2^64 - span`: a `lo` up to that is accepted without the
        // division, which only the rare `lo` above it pays for.
        let sure = span.wrapping_neg();
        loop {
            let v = rng.next_u64();
            let (hi, lo) = {
                let m = (v as u128) * (span as u128);
                ((m >> 64) as u64, m as u64)
            };
            if lo <= sure || lo <= u64::MAX - sure % span {
                return hi as u128;
            }
        }
    } else {
        // Spans over 2^64 only arise for pathological ranges; simple
        // modulo rejection over two words.
        loop {
            let v = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
            if v < u128::MAX - u128::MAX % span {
                return v % span;
            }
        }
    }
}

/// Core generator trait: a source of `u64`s.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing convenience methods (the `rand::Rng` extension trait).
pub trait Rng: RngCore {
    /// Draws a value of a samplable primitive type.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draws uniformly from a range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "invalid probability {p}");
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction from seeds (the `rand::SeedableRng` subset).
pub trait SeedableRng: Sized {
    /// Seed material.
    type Seed;

    /// Builds a generator from raw seed material.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds a generator from a `u64` convenience seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator (xoshiro256++).
    ///
    /// Not the upstream ChaCha12 `StdRng`; see the crate docs.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn next(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.next()
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            // An all-zero state would be a fixed point; nudge it.
            if s == [0; 4] {
                s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
            }
            StdRng { s }
        }

        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 expansion, as upstream rand does.
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }
}

/// Sequence-related helpers.
pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffling extension for slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{uniform_u128, Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let a: u64 = StdRng::seed_from_u64(1).gen();
        let b: u64 = StdRng::seed_from_u64(1).gen();
        let c: u64 = StdRng::seed_from_u64(2).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_covers_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1_000 {
            let v = rng.gen_range(10u32..=12);
            assert!((10..=12).contains(&v));
        }
    }

    #[test]
    fn gen_range_mean_is_central() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| rng.gen_range(0u64..1000)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 499.5).abs() < 5.0, "mean {mean}");
    }

    /// A generator that replays scripted words, counting them.
    struct Script {
        words: Vec<u64>,
        used: usize,
    }

    impl RngCore for Script {
        fn next_u64(&mut self) -> u64 {
            let word = self.words[self.used];
            self.used += 1;
            word
        }
    }

    /// `uniform_u128` for spans up to 2^64 - 1 as it was written before
    /// the division-free fast path: the zone computed once per call.
    fn zone_reference<G: RngCore + ?Sized>(rng: &mut G, span: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let m = u128::from(rng.next_u64()) * u128::from(span);
            if m as u64 <= zone {
                return (m >> 64) as u64;
            }
        }
    }

    /// Draws `draws` values from each rule over the same words, asserting
    /// equal values and equal words consumed.
    fn assert_same_draws(span: u64, words: Vec<u64>, draws: usize) {
        let mut fast = Script {
            words: words.clone(),
            used: 0,
        };
        let mut reference = Script { words, used: 0 };
        for draw in 0..draws {
            let got = uniform_u128(&mut fast, u128::from(span));
            let want = zone_reference(&mut reference, span);
            assert_eq!(got, u128::from(want), "span {span}, draw {draw}");
            assert_eq!(fast.used, reference.used, "span {span}, draw {draw}");
        }
    }

    #[test]
    fn division_free_draws_match_the_zone_rule() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut spans = vec![
            1,
            2,
            3,
            1_000,
            (1 << 32) - 1,
            (1 << 32) + 1,
            1 << 63,
            u64::MAX,
        ];
        spans.extend((0..64).map(|_| rng.gen::<u64>() >> rng.gen_range(0..64u32)));
        spans.retain(|&s| s > 0);
        for span in spans {
            let words = (0..4_000).map(|_| rng.gen()).collect();
            assert_same_draws(span, words, 1_000);
        }
    }

    /// Words whose low product lands just past `2^64 - span` (accepted only
    /// by the zone test) and inside the rejection zone (rejected, so the
    /// next word is consumed), for spans with a nonzero remainder.
    #[test]
    fn slow_path_accepts_and_rejects_like_the_zone_rule() {
        for span in [3u64, 1_000, (1 << 32) + 1, (1 << 63) + 1, u64::MAX - 1] {
            let sure = span.wrapping_neg();
            let zone = u64::MAX - sure % span;
            assert!(zone > sure && zone < u64::MAX, "span {span} has no zone");
            // `lo = v * span mod 2^64` reaches the multiples of `2^k`, for
            // `span = 2^k * odd`; solve for `v` with the inverse of `odd`
            // (Newton's iteration, each step doubling the correct bits).
            let k = span.trailing_zeros();
            let odd = span >> k;
            let mut inverse = odd;
            for _ in 0..6 {
                inverse = inverse.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inverse)));
            }
            let word_for = |lo_min: u64, lo_max: u64| -> u64 {
                let lo = lo_min.next_multiple_of(1 << k);
                assert!(lo <= lo_max, "span {span}: no reachable word");
                let v = (lo >> k).wrapping_mul(inverse);
                assert_eq!(v.wrapping_mul(span), lo);
                v
            };
            let accepted = word_for(sure + 1, zone);
            let rejected = word_for(zone + 1, u64::MAX);
            // Accepted on the slow path; rejected, then the accepted word.
            assert_same_draws(span, vec![accepted], 1);
            assert_same_draws(span, vec![rejected, accepted], 1);
            let mut script = Script {
                words: vec![rejected, accepted],
                used: 0,
            };
            uniform_u128(&mut script, u128::from(span));
            assert_eq!(
                script.used, 2,
                "span {span}: the rejected word was accepted"
            );
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        let mut rng = StdRng::seed_from_u64(6);
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "astronomically unlikely identity shuffle");
    }
}
