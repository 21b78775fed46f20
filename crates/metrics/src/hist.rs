//! Output-length histograms.
//!
//! The Past-Future scheduler compares the *distribution* of request output
//! lengths across time windows (paper Section 3.2, Figures 3 and 4). A
//! [`LengthHistogram`] bins token counts with either linear or logarithmic
//! bins and exposes the normalized probability vector used for cosine
//! similarity.

use std::fmt;

/// Error from [`Binning::linear`]: a zero bin width cannot bin anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroBinWidth;

impl fmt::Display for ZeroBinWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "linear bin width must be non-zero")
    }
}

impl std::error::Error for ZeroBinWidth {}

/// Binning strategy for [`LengthHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Binning {
    /// Fixed-width bins: lengths `[k*width, (k+1)*width)` share bin `k`.
    Linear {
        /// Width of each bin in tokens; must be non-zero (enforced by
        /// [`Binning::linear`]; a hand-built zero width panics in
        /// [`Binning::bin_of`]).
        width: u32,
    },
    /// Power-of-two bins: bin `k` holds lengths in `[2^k, 2^(k+1))`
    /// (length 0 maps to bin 0 together with length 1).
    Log2,
}

impl Binning {
    /// Validated linear binning: rejects a zero width instead of
    /// deferring the failure to the first [`Binning::bin_of`] call.
    ///
    /// # Errors
    ///
    /// Returns [`ZeroBinWidth`] when `width == 0`.
    pub fn linear(width: u32) -> Result<Binning, ZeroBinWidth> {
        if width == 0 {
            Err(ZeroBinWidth)
        } else {
            Ok(Binning::Linear { width })
        }
    }

    /// Bin index for a length.
    ///
    /// # Panics
    ///
    /// Panics if the binning is `Linear` with a zero width (impossible
    /// via [`Binning::linear`]). Earlier versions silently clamped the
    /// width to 1, which mislabelled every length as its own bin.
    pub fn bin_of(self, len: u32) -> usize {
        match self {
            Binning::Linear { width } => {
                assert!(width > 0, "{ZeroBinWidth} (use Binning::linear)");
                (len / width) as usize
            }
            Binning::Log2 => {
                if len <= 1 {
                    0
                } else {
                    (32 - (len - 1).leading_zeros()) as usize
                }
            }
        }
    }
}

impl Default for Binning {
    fn default() -> Self {
        Binning::Linear { width: 64 }
    }
}

/// Histogram over token lengths.
///
/// # Example
///
/// ```
/// use pf_metrics::{Binning, LengthHistogram};
///
/// let h = LengthHistogram::from_lengths(Binning::Linear { width: 10 }, [5, 7, 25]);
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.count_in_bin(0), 2); // lengths 5 and 7
/// assert_eq!(h.count_in_bin(2), 1); // length 25
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LengthHistogram {
    binning: Binning,
    counts: Vec<u64>,
    total: u64,
}

impl LengthHistogram {
    /// Creates an empty histogram with the given binning.
    pub fn new(binning: Binning) -> Self {
        LengthHistogram {
            binning,
            counts: Vec::new(),
            total: 0,
        }
    }

    /// Builds a histogram from an iterator of lengths.
    pub fn from_lengths<I: IntoIterator<Item = u32>>(binning: Binning, lengths: I) -> Self {
        let mut h = LengthHistogram::new(binning);
        for len in lengths {
            h.record(len);
        }
        h
    }

    /// Records one observation.
    pub fn record(&mut self, len: u32) {
        let bin = self.binning.bin_of(len);
        if bin >= self.counts.len() {
            self.counts.resize(bin + 1, 0);
        }
        self.counts[bin] += 1;
        self.total += 1;
    }

    /// The binning strategy.
    pub fn binning(&self) -> Binning {
        self.binning
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw count in bin `bin` (0 for bins beyond the allocated range).
    pub fn count_in_bin(&self, bin: usize) -> u64 {
        self.counts.get(bin).copied().unwrap_or(0)
    }

    /// Raw counts as a slice.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Normalized probability vector (sums to 1; empty histogram yields an
    /// empty vector).
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            return Vec::new();
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the binning strategies differ.
    pub fn merge(&mut self, other: &LengthHistogram) {
        assert_eq!(
            self.binning, other.binning,
            "cannot merge histograms with different binnings"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.total += other.total;
    }
}

impl fmt::Display for LengthHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hist(total={}, bins={})", self.total, self.counts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_binning() {
        let b = Binning::Linear { width: 100 };
        assert_eq!(b.bin_of(0), 0);
        assert_eq!(b.bin_of(99), 0);
        assert_eq!(b.bin_of(100), 1);
        assert_eq!(b.bin_of(1000), 10);
    }

    #[test]
    fn log2_binning() {
        let b = Binning::Log2;
        assert_eq!(b.bin_of(0), 0);
        assert_eq!(b.bin_of(1), 0);
        assert_eq!(b.bin_of(2), 1);
        assert_eq!(b.bin_of(3), 2);
        assert_eq!(b.bin_of(4), 2);
        assert_eq!(b.bin_of(5), 3);
        assert_eq!(b.bin_of(8), 3);
        assert_eq!(b.bin_of(9), 4);
    }

    #[test]
    fn linear_constructor_rejects_zero_width() {
        assert_eq!(Binning::linear(0), Err(ZeroBinWidth));
        assert_eq!(Binning::linear(64), Ok(Binning::Linear { width: 64 }));
        assert!(!ZeroBinWidth.to_string().is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn hand_built_zero_width_panics_loudly() {
        // Regression: a zero width used to be silently clamped to 1,
        // mislabelling every length as its own bin. Now it fails fast.
        Binning::Linear { width: 0 }.bin_of(7);
    }

    #[test]
    fn record_and_probabilities() {
        let mut h = LengthHistogram::new(Binning::Linear { width: 10 });
        h.record(1);
        h.record(2);
        h.record(15);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts(), &[2, 1]);
        let p = h.probabilities();
        assert!((p[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((p[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_probabilities() {
        let h = LengthHistogram::new(Binning::Log2);
        assert!(h.probabilities().is_empty());
        assert_eq!(h.count_in_bin(42), 0);
    }

    #[test]
    fn merge_accumulates() {
        let a = LengthHistogram::from_lengths(Binning::Linear { width: 10 }, [1, 2, 3]);
        let b = LengthHistogram::from_lengths(Binning::Linear { width: 10 }, [25, 35]);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.total(), 5);
        assert_eq!(m.count_in_bin(0), 3);
        assert_eq!(m.count_in_bin(2), 1);
        assert_eq!(m.count_in_bin(3), 1);
    }

    #[test]
    #[should_panic(expected = "different binnings")]
    fn merge_mismatched_binning_panics() {
        let a = LengthHistogram::new(Binning::Log2);
        let mut b = LengthHistogram::new(Binning::Linear { width: 10 });
        b.merge(&a);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn total_matches_input(lengths in proptest::collection::vec(0u32..100_000, 0..500)) {
                let h = LengthHistogram::from_lengths(Binning::Log2, lengths.iter().copied());
                prop_assert_eq!(h.total(), lengths.len() as u64);
                prop_assert_eq!(h.counts().iter().sum::<u64>(), lengths.len() as u64);
            }

            #[test]
            fn probabilities_sum_to_one(lengths in proptest::collection::vec(0u32..100_000, 1..500)) {
                let h = LengthHistogram::from_lengths(Binning::Linear { width: 37 }, lengths);
                let sum: f64 = h.probabilities().iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9);
            }

            #[test]
            fn log2_bins_are_ordered(a in 0u32..1_000_000, b in 0u32..1_000_000) {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                prop_assert!(Binning::Log2.bin_of(lo) <= Binning::Log2.bin_of(hi));
            }

            #[test]
            fn merge_equals_concat(
                xs in proptest::collection::vec(0u32..50_000, 0..200),
                ys in proptest::collection::vec(0u32..50_000, 0..200),
            ) {
                let binning = Binning::Linear { width: 64 };
                let mut merged = LengthHistogram::from_lengths(binning, xs.iter().copied());
                merged.merge(&LengthHistogram::from_lengths(binning, ys.iter().copied()));
                let concat = LengthHistogram::from_lengths(
                    binning,
                    xs.iter().chain(ys.iter()).copied(),
                );
                prop_assert_eq!(merged, concat);
            }
        }
    }
}
