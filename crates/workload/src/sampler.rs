//! Token-length distributions.
//!
//! `rand_distr` is intentionally not a dependency; the log-normal and
//! exponential samplers below are implemented from first principles
//! (Box–Muller transform, inverse-CDF) and property-tested.

use rand::Rng;

/// A distribution over token lengths.
///
/// All samplers clamp to a `[min, max]` token range, because real serving
/// systems cap both prompt and generation lengths.
#[derive(Debug, Clone, PartialEq)]
pub enum LengthSampler {
    /// Always the same length.
    Fixed(u32),
    /// Uniform over the inclusive range `[lo, hi]`.
    UniformRange {
        /// Lower bound (inclusive).
        lo: u32,
        /// Upper bound (inclusive).
        hi: u32,
    },
    /// Log-normal: `exp(mu + sigma * Z)` clamped to `[min, max]`.
    LogNormal {
        /// Mean of the underlying normal (log scale).
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
        /// Lower clamp (inclusive).
        min: u32,
        /// Upper clamp (inclusive).
        max: u32,
    },
    /// Exponential with the given mean, clamped to `[min, max]`.
    Exponential {
        /// Mean of the (unclamped) exponential.
        mean: f64,
        /// Lower clamp (inclusive).
        min: u32,
        /// Upper clamp (inclusive).
        max: u32,
    },
    /// Weighted mixture of samplers. Weights need not sum to 1.
    Mixture(Vec<(f64, LengthSampler)>),
    /// Uniform draw from an explicit sample set.
    Empirical(Vec<u32>),
}

impl LengthSampler {
    /// Uniform over `[lo, hi]`, validating the bounds.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(lo: u32, hi: u32) -> Self {
        assert!(lo <= hi, "uniform range inverted: [{lo}, {hi}]");
        LengthSampler::UniformRange { lo, hi }
    }

    /// Log-normal with the given log-scale parameters, clamped to
    /// `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0` or `min > max`.
    pub fn log_normal(mu: f64, sigma: f64, min: u32, max: u32) -> Self {
        assert!(sigma >= 0.0, "negative sigma");
        assert!(min <= max, "log-normal clamp inverted: [{min}, {max}]");
        LengthSampler::LogNormal {
            mu,
            sigma,
            min,
            max,
        }
    }

    /// Log-normal parameterized by its median (`exp(mu)`) instead of `mu`.
    pub fn log_normal_median(median: f64, sigma: f64, min: u32, max: u32) -> Self {
        LengthSampler::log_normal(median.ln(), sigma, min, max)
    }

    /// Exponential with the given mean, clamped to `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0` or `min > max`.
    pub fn exponential(mean: f64, min: u32, max: u32) -> Self {
        assert!(mean > 0.0, "non-positive mean");
        assert!(min <= max, "exponential clamp inverted: [{min}, {max}]");
        LengthSampler::Exponential { mean, min, max }
    }

    /// Mixture of `(weight, sampler)` components.
    ///
    /// # Panics
    ///
    /// Panics if empty or if any weight is negative/non-finite or all
    /// weights are zero.
    pub fn mixture(components: Vec<(f64, LengthSampler)>) -> Self {
        assert!(!components.is_empty(), "empty mixture");
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        assert!(
            components.iter().all(|(w, _)| w.is_finite() && *w >= 0.0) && total > 0.0,
            "invalid mixture weights"
        );
        LengthSampler::Mixture(components)
    }

    /// Empirical distribution over observed lengths.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn empirical(samples: Vec<u32>) -> Self {
        assert!(!samples.is_empty(), "empty empirical sample set");
        LengthSampler::Empirical(samples)
    }

    /// Draws one length.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match self {
            LengthSampler::Fixed(v) => *v,
            LengthSampler::UniformRange { lo, hi } => rng.gen_range(*lo..=*hi),
            LengthSampler::LogNormal {
                mu,
                sigma,
                min,
                max,
            } => {
                let z = standard_normal(rng);
                let v = (mu + sigma * z).exp();
                clamp_round(v, *min, *max)
            }
            LengthSampler::Exponential { mean, min, max } => {
                // Inverse CDF; 1-u avoids ln(0).
                let u: f64 = rng.gen();
                let v = -mean * (1.0 - u).ln();
                clamp_round(v, *min, *max)
            }
            LengthSampler::Mixture(components) => {
                let total: f64 = components.iter().map(|(w, _)| *w).sum();
                let mut pick = rng.gen::<f64>() * total;
                for (w, sampler) in components {
                    if pick < *w {
                        return sampler.sample(rng);
                    }
                    pick -= w;
                }
                // Floating-point edge: fall back to the last component.
                components
                    .last()
                    .expect("mixture validated non-empty")
                    .1
                    .sample(rng)
            }
            LengthSampler::Empirical(samples) => samples[rng.gen_range(0..samples.len())],
        }
    }

    /// Largest length this sampler can produce.
    pub fn max_len(&self) -> u32 {
        match self {
            LengthSampler::Fixed(v) => *v,
            LengthSampler::UniformRange { hi, .. } => *hi,
            LengthSampler::LogNormal { max, .. } | LengthSampler::Exponential { max, .. } => *max,
            LengthSampler::Mixture(components) => components
                .iter()
                .filter(|(w, _)| *w > 0.0)
                .map(|(_, s)| s.max_len())
                .max()
                .unwrap_or(0),
            LengthSampler::Empirical(samples) => samples.iter().copied().max().unwrap_or(0),
        }
    }
}

/// Standard normal deviate via the Box–Muller transform.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0, 1] so that ln(u1) is finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn clamp_round(v: f64, min: u32, max: u32) -> u32 {
    if !v.is_finite() {
        return max;
    }
    let r = v.round();
    if r <= min as f64 {
        min
    } else if r >= max as f64 {
        max
    } else {
        r as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    /// Draws `n` lengths.
    fn sample_n<R: Rng + ?Sized>(sampler: &LengthSampler, rng: &mut R, n: usize) -> Vec<u32> {
        (0..n).map(|_| sampler.sample(rng)).collect()
    }

    /// Smallest length `sampler` can produce: the lower bound its samples
    /// are checked against.
    fn min_len(sampler: &LengthSampler) -> u32 {
        match sampler {
            LengthSampler::Fixed(v) => *v,
            LengthSampler::UniformRange { lo, .. } => *lo,
            LengthSampler::LogNormal { min, .. } | LengthSampler::Exponential { min, .. } => *min,
            LengthSampler::Mixture(components) => components
                .iter()
                .filter(|(w, _)| *w > 0.0)
                .map(|(_, s)| min_len(s))
                .min()
                .unwrap_or(0),
            LengthSampler::Empirical(samples) => samples.iter().copied().min().unwrap_or(0),
        }
    }

    #[test]
    fn fixed_and_uniform() {
        let mut rng = seeded(1);
        assert_eq!(LengthSampler::Fixed(9).sample(&mut rng), 9);
        let u = LengthSampler::uniform(5, 10);
        for _ in 0..100 {
            let v = u.sample(&mut rng);
            assert!((5..=10).contains(&v));
        }
        assert_eq!(u.max_len(), 10);
    }

    #[test]
    fn uniform_covers_endpoints() {
        let mut rng = seeded(2);
        let u = LengthSampler::uniform(1, 3);
        let samples = sample_n(&u, &mut rng, 1000);
        assert!(samples.contains(&1));
        assert!(samples.contains(&3));
    }

    #[test]
    fn log_normal_statistics() {
        // For LogNormal(mu, sigma): median = exp(mu), mean = exp(mu + s²/2).
        let mut rng = seeded(3);
        let s = LengthSampler::log_normal(6.0, 0.5, 1, 100_000);
        let samples = sample_n(&s, &mut rng, 50_000);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        let expected_median = 6.0f64.exp();
        assert!(
            (median - expected_median).abs() / expected_median < 0.05,
            "median {median} vs expected {expected_median}"
        );
        let mean = samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64;
        let expected_mean = (6.0 + 0.125f64).exp();
        assert!(
            (mean - expected_mean).abs() / expected_mean < 0.05,
            "mean {mean} vs expected {expected_mean}"
        );
    }

    #[test]
    fn exponential_mean() {
        let mut rng = seeded(4);
        let s = LengthSampler::exponential(200.0, 0, 1_000_000);
        let samples = sample_n(&s, &mut rng, 50_000);
        let mean = samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64;
        assert!((mean - 200.0).abs() < 10.0, "mean {mean}");
    }

    #[test]
    fn mixture_respects_weights() {
        let mut rng = seeded(5);
        let m = LengthSampler::mixture(vec![
            (0.8, LengthSampler::Fixed(1)),
            (0.2, LengthSampler::Fixed(100)),
        ]);
        let samples = sample_n(&m, &mut rng, 10_000);
        let ones = samples.iter().filter(|&&v| v == 1).count() as f64 / 10_000.0;
        assert!((ones - 0.8).abs() < 0.03, "P(1) = {ones}");
        assert_eq!(m.max_len(), 100);
    }

    #[test]
    fn mixture_ignores_zero_weight_bounds() {
        let m = LengthSampler::mixture(vec![
            (0.0, LengthSampler::Fixed(1_000_000)),
            (1.0, LengthSampler::Fixed(5)),
        ]);
        assert_eq!(m.max_len(), 5);
        let mut rng = seeded(6);
        assert_eq!(m.sample(&mut rng), 5);
    }

    #[test]
    fn empirical_resamples_observed() {
        let mut rng = seeded(7);
        let e = LengthSampler::empirical(vec![2, 4, 8]);
        for _ in 0..100 {
            assert!([2, 4, 8].contains(&e.sample(&mut rng)));
        }
        assert_eq!(e.max_len(), 8);
    }

    #[test]
    fn median_constructor_matches() {
        let a = LengthSampler::log_normal_median(400.0, 0.7, 1, 4096);
        match a {
            LengthSampler::LogNormal { mu, .. } => {
                assert!((mu - 400.0f64.ln()).abs() < 1e-12);
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    #[should_panic(expected = "range inverted")]
    fn inverted_uniform_panics() {
        let _ = LengthSampler::uniform(10, 5);
    }

    #[test]
    #[should_panic(expected = "empty mixture")]
    fn empty_mixture_panics() {
        let _ = LengthSampler::mixture(vec![]);
    }

    #[test]
    #[should_panic(expected = "invalid mixture weights")]
    fn all_zero_weights_panic() {
        let _ = LengthSampler::mixture(vec![(0.0, LengthSampler::Fixed(1))]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn sampler_strategy() -> impl Strategy<Value = LengthSampler> {
            prop_oneof![
                (1u32..10_000).prop_map(LengthSampler::Fixed),
                (1u32..5_000, 0u32..5_000).prop_map(|(lo, d)| LengthSampler::uniform(lo, lo + d)),
                (0.0f64..10.0, 0.0f64..2.0, 1u32..100, 0u32..10_000)
                    .prop_map(|(mu, s, min, d)| LengthSampler::log_normal(mu, s, min, min + d)),
                (1.0f64..5_000.0, 0u32..100, 1u32..10_000)
                    .prop_map(|(mean, min, d)| LengthSampler::exponential(mean, min, min + d)),
                proptest::collection::vec(1u32..10_000, 1..20).prop_map(LengthSampler::empirical),
            ]
        }

        proptest! {
            #[test]
            fn samples_within_declared_bounds(
                sampler in sampler_strategy(),
                seed in 0u64..1_000,
            ) {
                let mut rng = seeded(seed);
                for _ in 0..50 {
                    let v = sampler.sample(&mut rng);
                    prop_assert!(v >= min_len(&sampler), "{v} < min {}", min_len(&sampler));
                    prop_assert!(v <= sampler.max_len(), "{v} > max {}", sampler.max_len());
                }
            }

            #[test]
            fn mixtures_stay_in_bounds(
                a in sampler_strategy(),
                b in sampler_strategy(),
                w in 0.01f64..0.99,
                seed in 0u64..1_000,
            ) {
                let m = LengthSampler::mixture(vec![(w, a), (1.0 - w, b)]);
                let mut rng = seeded(seed);
                for _ in 0..50 {
                    let v = m.sample(&mut rng);
                    prop_assert!(v >= min_len(&m) && v <= m.max_len());
                }
            }

            #[test]
            fn sampling_is_deterministic(sampler in sampler_strategy(), seed in 0u64..1_000) {
                let a = sample_n(&sampler, &mut seeded(seed), 20);
                let b = sample_n(&sampler, &mut seeded(seed), 20);
                prop_assert_eq!(a, b);
            }
        }
    }
}
