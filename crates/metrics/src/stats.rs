//! Scalar summary statistics and percentiles.

use std::fmt;

/// Arithmetic mean of a slice; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample standard deviation (n-1 denominator); `0.0` for fewer than two
/// values.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

/// Exact percentile by linear interpolation between order statistics.
///
/// `p` is in `[0, 100]`. NaN samples are skipped (a poisoned sample — a
/// `0/0` rate from an idle window, say — should not take down the whole
/// report); returns `None` when no non-NaN samples remain. The input does
/// not need to be sorted.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or not finite.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(
        (0.0..=100.0).contains(&p) && p.is_finite(),
        "bad percentile {p}"
    );
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_unstable_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, p))
}

/// [`percentile`] over a sample that is already sorted ascending and
/// NaN-free — the single-sort fast path for summaries that need several
/// percentiles of one sample.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Five-number-style summary of a sample: count, mean, standard deviation,
/// min, max, and the P50/P90/P99 percentiles.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarizes a sample, skipping NaN values (see [`percentile`]).
    /// Returns the all-zero summary when no non-NaN samples remain.
    ///
    /// The sample is sorted once and every order statistic — min, max and
    /// the three percentiles — is read from that one sorted copy.
    pub fn of(values: &[f64]) -> Summary {
        let filtered: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        if filtered.is_empty() {
            return Summary::default();
        }
        // Mean and deviation fold in *input* order — float addition is not
        // order-independent, and reports must not change with sort order.
        let mean = mean(&filtered);
        let std_dev = std_dev(&filtered);
        let mut sorted = filtered;
        sorted.sort_unstable_by(f64::total_cmp);
        Summary {
            count: sorted.len(),
            mean,
            std_dev,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p50: percentile_sorted(&sorted, 50.0),
            p90: percentile_sorted(&sorted, 90.0),
            p99: percentile_sorted(&sorted, 99.0),
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} p50={:.3} p90={:.3} p99={:.3} max={:.3}",
            self.count, self.mean, self.std_dev, self.min, self.p50, self.p90, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        let sd = std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((sd - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = [9.0, 1.0, 5.0];
        assert_eq!(percentile(&v, 50.0), Some(5.0));
    }

    #[test]
    fn p99_of_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = percentile(&v, 99.0).unwrap();
        assert!((p99 - 99.01).abs() < 1e-9);
    }

    #[test]
    fn summary_of_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p50, 3.0);
    }

    #[test]
    fn summary_empty_is_default() {
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    #[should_panic(expected = "bad percentile")]
    fn percentile_out_of_range_panics() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    fn percentile_skips_nan() {
        let v = [f64::NAN, 9.0, 1.0, f64::NAN, 5.0];
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&[f64::NAN, f64::NAN], 50.0), None);
    }

    #[test]
    fn summary_skips_nan() {
        let s = Summary::of(&[f64::NAN, 1.0, 3.0, f64::NAN]);
        assert_eq!(s.count, 2);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.p50, 2.0);
        assert_eq!(Summary::of(&[f64::NAN]), Summary::default());
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn percentile_within_bounds(
                v in proptest::collection::vec(-1e9f64..1e9, 1..200),
                p in 0.0f64..100.0,
            ) {
                let x = percentile(&v, p).unwrap();
                let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(x >= min - 1e-9 && x <= max + 1e-9);
            }

            #[test]
            fn percentile_monotone(
                v in proptest::collection::vec(-1e6f64..1e6, 1..100),
                p1 in 0.0f64..100.0,
                p2 in 0.0f64..100.0,
            ) {
                let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
                let a = percentile(&v, lo).unwrap();
                let b = percentile(&v, hi).unwrap();
                prop_assert!(a <= b + 1e-9);
            }

            #[test]
            fn mean_within_bounds(v in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
                let m = mean(&v);
                let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(m >= min - 1e-6 && m <= max + 1e-6);
            }
        }
    }
}
