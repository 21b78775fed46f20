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
fn uniform_u128<G: RngCore + ?Sized>(rng: &mut G, span: u128) -> u128 {
    debug_assert!(span > 0);
    if span <= u64::MAX as u128 {
        let span = span as u64;
        // Widening-multiply rejection (Lemire); zone is the largest multiple
        // of span that fits in 2^64.
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = rng.next_u64();
            let (hi, lo) = {
                let m = (v as u128) * (span as u128);
                ((m >> 64) as u64, m as u64)
            };
            if lo <= zone {
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
    use super::{Rng, SeedableRng};

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
