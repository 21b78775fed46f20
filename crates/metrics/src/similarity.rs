//! Distribution similarity across time windows (paper Figures 3 and 4).
//!
//! The paper's core observation is that the output-length distribution of
//! *adjacent* request windows is similar even when the global distribution
//! drifts. [`WindowedLengths`] partitions a request trace into fixed-size
//! windows and [`SimilarityMatrix`] holds the pairwise cosine similarity of
//! their length histograms.

use crate::hist::{Binning, LengthHistogram};

/// Cosine similarity between two non-negative vectors.
///
/// Shorter vectors are implicitly zero-padded. Returns `0.0` when either
/// vector has zero norm.
///
/// # Example
///
/// ```
/// use pf_metrics::cosine_similarity;
///
/// assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
/// assert_eq!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
/// ```
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    let n = a.len().max(b.len());
    for i in 0..n {
        let x = a.get(i).copied().unwrap_or(0.0);
        let y = b.get(i).copied().unwrap_or(0.0);
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

/// A request trace partitioned into non-overlapping windows of equal size,
/// with one length histogram per window.
#[derive(Debug, Clone)]
pub struct WindowedLengths {
    window_size: usize,
    histograms: Vec<LengthHistogram>,
}

impl WindowedLengths {
    /// Partitions `lengths` into `window_size`-sized windows (a trailing
    /// partial window is dropped, matching the paper's "1000 requests, no
    /// overlap" setup).
    ///
    /// # Panics
    ///
    /// Panics if `window_size` is zero.
    pub fn partition(lengths: &[u32], window_size: usize, binning: Binning) -> Self {
        assert!(window_size > 0, "window size must be positive");
        let histograms = lengths
            .chunks_exact(window_size)
            .map(|w| LengthHistogram::from_lengths(binning, w.iter().copied()))
            .collect();
        WindowedLengths {
            window_size,
            histograms,
        }
    }

    /// Window size used for partitioning.
    pub fn window_size(&self) -> usize {
        self.window_size
    }

    /// Number of complete windows.
    pub fn n_windows(&self) -> usize {
        self.histograms.len()
    }

    /// Histogram of window `i`.
    pub fn histogram(&self, i: usize) -> &LengthHistogram {
        &self.histograms[i]
    }

    /// Pairwise cosine similarity of all window histograms.
    pub fn similarity_matrix(&self) -> SimilarityMatrix {
        let probs: Vec<Vec<f64>> = self.histograms.iter().map(|h| h.probabilities()).collect();
        let n = probs.len();
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                let s = cosine_similarity(&probs[i], &probs[j]);
                values[i * n + j] = s;
                values[j * n + i] = s;
            }
        }
        SimilarityMatrix { n, values }
    }
}

/// Symmetric matrix of pairwise window similarities.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityMatrix {
    n: usize,
    values: Vec<f64>,
}

impl SimilarityMatrix {
    /// Matrix dimension (number of windows).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Similarity between windows `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.values[i * self.n + j]
    }

    /// Mean similarity of adjacent windows: entries `(i, i+1)`.
    ///
    /// This is the paper's "diagonal" statistic. Returns `None` when there
    /// are fewer than two windows.
    pub fn diagonal_mean(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        let sum: f64 = (0..self.n - 1).map(|i| self.get(i, i + 1)).sum();
        Some(sum / (self.n - 1) as f64)
    }

    /// Mean similarity over all distinct pairs `(i, j)`, `i != j`.
    ///
    /// This is the paper's "global" statistic. Returns `None` when there are
    /// fewer than two windows.
    pub fn off_diagonal_mean(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        let mut sum = 0.0;
        let mut count = 0usize;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                sum += self.get(i, j);
                count += 1;
            }
        }
        Some(sum / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_basics() {
        assert_eq!(cosine_similarity(&[], &[]), 0.0);
        assert_eq!(cosine_similarity(&[0.0], &[1.0]), 0.0);
        assert!((cosine_similarity(&[3.0, 4.0], &[3.0, 4.0]) - 1.0).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 1.0], &[1.0, 0.0]) - 1.0 / 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn cosine_pads_shorter_vector() {
        let s = cosine_similarity(&[1.0], &[1.0, 0.0, 0.0]);
        assert!((s - 1.0).abs() < 1e-12);
        let s2 = cosine_similarity(&[1.0], &[0.0, 1.0]);
        assert_eq!(s2, 0.0);
    }

    #[test]
    fn partition_drops_partial_window() {
        let lengths: Vec<u32> = (0..25).collect();
        let w = WindowedLengths::partition(&lengths, 10, Binning::Log2);
        assert_eq!(w.n_windows(), 2);
        assert_eq!(w.window_size(), 10);
        assert_eq!(w.histogram(0).total(), 10);
    }

    #[test]
    fn similarity_matrix_is_symmetric_with_unit_diag() {
        // Two alternating regimes: windows 0 and 2 match; 1 and 3 match.
        let mut lengths = Vec::new();
        for rep in 0..4 {
            let base = if rep % 2 == 0 { 10u32 } else { 1000 };
            lengths.extend(std::iter::repeat_n(base, 50));
        }
        let w = WindowedLengths::partition(&lengths, 50, Binning::Log2);
        let m = w.similarity_matrix();
        assert_eq!(m.len(), 4);
        for i in 0..4 {
            assert!((m.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..4 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
        assert!((m.get(0, 2) - 1.0).abs() < 1e-12);
        assert!(m.get(0, 1) < 0.01);
    }

    #[test]
    fn diagonal_vs_global_stats() {
        // Slowly drifting regime: adjacent windows overlap, distant do not.
        let mut lengths = Vec::new();
        for step in 0..6u32 {
            for _ in 0..25 {
                lengths.push(100 + step * 50);
                lengths.push(100 + (step + 1) * 50);
            }
        }
        let w = WindowedLengths::partition(&lengths, 50, Binning::Linear { width: 50 });
        let m = w.similarity_matrix();
        let diag = m.diagonal_mean().unwrap();
        let glob = m.off_diagonal_mean().unwrap();
        assert!(
            diag > glob,
            "adjacent windows must beat global: {diag} vs {glob}"
        );
    }

    #[test]
    fn small_matrices_return_none() {
        let m = SimilarityMatrix {
            n: 1,
            values: vec![1.0],
        };
        assert_eq!(m.diagonal_mean(), None);
        assert_eq!(m.off_diagonal_mean(), None);
        assert!(!m.is_empty());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn cosine_in_unit_interval(
                a in proptest::collection::vec(0.0f64..1e6, 0..64),
                b in proptest::collection::vec(0.0f64..1e6, 0..64),
            ) {
                let s = cosine_similarity(&a, &b);
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&s));
            }

            #[test]
            fn cosine_symmetric(
                a in proptest::collection::vec(0.0f64..1e6, 0..64),
                b in proptest::collection::vec(0.0f64..1e6, 0..64),
            ) {
                prop_assert_eq!(cosine_similarity(&a, &b), cosine_similarity(&b, &a));
            }

            #[test]
            fn self_similarity_is_one(
                a in proptest::collection::vec(0.1f64..1e6, 1..64),
            ) {
                let s = cosine_similarity(&a, &a);
                prop_assert!((s - 1.0).abs() < 1e-9);
            }

            #[test]
            fn scale_invariance(
                a in proptest::collection::vec(0.0f64..1e3, 1..64),
                b in proptest::collection::vec(0.0f64..1e3, 1..64),
                k in 0.1f64..100.0,
            ) {
                let scaled: Vec<f64> = a.iter().map(|x| x * k).collect();
                let s1 = cosine_similarity(&a, &b);
                let s2 = cosine_similarity(&scaled, &b);
                prop_assert!((s1 - s2).abs() < 1e-9);
            }
        }
    }
}
