//! Sliding window of historical output lengths (the "Past").

use std::collections::VecDeque;

use crate::distribution::OutputLengthDistribution;

/// Ring buffer of the output lengths of the `window` most recently finished
/// requests, denoted `L_h` in the paper (Eq. 1 uses `w = 1000`).
///
/// Next to the ring the history keeps the same sample in ascending order,
/// which is the empirical distribution `P(l)` itself, with its count table
/// of supports. [`record`] updates both in place — one binary search for
/// the evicted length, one for the new one, one memmove over the span
/// between them, and one pass over the table entries between the two
/// lengths — so [`distribution`] is a borrow that never collects or sorts
/// the window.
///
/// [`record`]: OutputLengthHistory::record
/// [`distribution`]: OutputLengthHistory::distribution
///
/// # Example
///
/// ```
/// use pf_core::OutputLengthHistory;
///
/// let mut history = OutputLengthHistory::new(3);
/// for len in [10, 20, 30, 40] {
///     history.record(len);
/// }
/// // Window of 3: the oldest observation (10) has been evicted.
/// assert_eq!(history.len(), 3);
/// assert_eq!(history.iter().min(), Some(20));
/// assert_eq!(history.distribution().unwrap().min(), 20);
/// ```
#[derive(Debug, Clone)]
pub struct OutputLengthHistory {
    window: usize,
    buf: VecDeque<u32>,
    /// `buf` in ascending order; empty exactly when `buf` is.
    sorted: OutputLengthDistribution,
}

impl OutputLengthHistory {
    /// The paper's default window size.
    pub const DEFAULT_WINDOW: usize = 1000;

    /// Creates an empty history with the given window size.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "history window must be positive");
        OutputLengthHistory {
            window,
            buf: VecDeque::with_capacity(window),
            sorted: OutputLengthDistribution::with_capacity(window),
        }
    }

    /// Records the actual output length of a finished request, evicting the
    /// oldest observation once the window is full. O(w) plus the span
    /// between the two lengths (at most 2¹⁶ table entries); it allocates
    /// only to grow the count table to a new largest length.
    pub fn record(&mut self, output_len: u32) {
        let evicted = if self.buf.len() == self.window {
            self.buf.pop_front()
        } else {
            None
        };
        self.buf.push_back(output_len);
        self.sorted.replace(evicted, output_len);
    }

    /// Window size `w`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of observations currently held (≤ window).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True before any request has finished.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Iterates over the retained observations, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.buf.iter().copied()
    }

    /// The empirical distribution `P(l)` over the window (Eq. 1), or `None`
    /// when no request has finished yet. Kept current by
    /// [`record`](OutputLengthHistory::record), so this is O(1).
    pub fn distribution(&self) -> Option<&OutputLengthDistribution> {
        (!self.buf.is_empty()).then_some(&self.sorted)
    }
}

impl Default for OutputLengthHistory {
    fn default() -> Self {
        OutputLengthHistory::new(Self::DEFAULT_WINDOW)
    }
}

impl Extend<u32> for OutputLengthHistory {
    fn extend<T: IntoIterator<Item = u32>>(&mut self, iter: T) {
        for len in iter {
            self.record(len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_up_to_window() {
        let mut h = OutputLengthHistory::new(2);
        assert!(h.is_empty());
        h.record(5);
        h.record(6);
        h.record(7);
        assert_eq!(h.len(), 2);
        let v: Vec<u32> = h.iter().collect();
        assert_eq!(v, vec![6, 7]);
    }

    #[test]
    fn default_window_is_1000() {
        let h = OutputLengthHistory::default();
        assert_eq!(h.window(), 1000);
    }

    #[test]
    fn distribution_roundtrip() {
        let mut h = OutputLengthHistory::new(10);
        assert!(h.distribution().is_none());
        h.extend([1, 2, 3]);
        let d = h.distribution().unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.max(), 3);
    }

    #[test]
    fn extend_honours_window() {
        let mut h = OutputLengthHistory::new(5);
        h.extend(0..100u32);
        assert_eq!(h.len(), 5);
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![95, 96, 97, 98, 99]);
    }

    /// Length of the count table, through the crate-private field.
    fn table_len(h: &OutputLengthHistory) -> usize {
        h.distribution().map_or(0, |d| d.support_table_len())
    }

    #[test]
    fn support_table_memory_is_bounded() {
        use crate::distribution::SUPPORT_TABLE_LEN;

        let mut h = OutputLengthHistory::new(4);
        assert_eq!(table_len(&h), 0);
        h.record(999);
        // One entry per length up to the largest sample.
        assert_eq!(table_len(&h), 1000);
        h.extend([u32::MAX, 7]);
        // Capped, whatever the largest length.
        assert_eq!(table_len(&h), SUPPORT_TABLE_LEN);
        assert_eq!(SUPPORT_TABLE_LEN * std::mem::size_of::<u32>(), 256 << 10);
        // Shrinks back once the long lengths leave the window.
        h.extend([3, 5, 7, 9]);
        assert_eq!(table_len(&h), 10);
    }

    /// The in-place window is exactly the distribution rebuilt from
    /// scratch after every `record`, through evictions of duplicated
    /// lengths (the small length range forces runs of equal values).
    mod props {
        use super::*;
        use crate::distribution::SUPPORT_TABLE_LEN;
        use proptest::prelude::*;

        /// Lengths and thresholds below, inside and past the count table:
        /// small runs of equal values, both sides of its cap, and the top
        /// of `u32`.
        fn around_the_table() -> impl Strategy<Value = u32> {
            let cap = SUPPORT_TABLE_LEN as u32;
            prop_oneof![0u32..8, 0u32..8, cap - 3..cap + 3, u32::MAX - 2..=u32::MAX,]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn in_place_window_matches_rebuild(
                window in 1usize..=64,
                lengths in proptest::collection::vec(0u32..8, 0..320),
            ) {
                let mut h = OutputLengthHistory::new(window);
                prop_assert!(h.distribution().is_none());
                for len in lengths {
                    h.record(len);
                    prop_assert_eq!(
                        h.distribution().cloned(),
                        OutputLengthDistribution::from_lengths(h.iter())
                    );
                }
            }

        }

        proptest! {
            // Each record near the cap moves up to 2¹⁶ table entries.
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn supports_match_binary_search(
                window in 1usize..=64,
                lengths in proptest::collection::vec(around_the_table(), 0..96),
                thresholds in proptest::collection::vec(around_the_table(), 1..16),
            ) {
                let mut h = OutputLengthHistory::new(window);
                for len in lengths {
                    h.record(len);
                    let d = h.distribution().expect("recorded");
                    // The rebuilt table equals the in-place one (PartialEq
                    // covers both the sample and the table).
                    prop_assert_eq!(
                        Some(d.clone()),
                        OutputLengthDistribution::from_lengths(h.iter())
                    );
                    let sorted = d.as_sorted_slice();
                    for &t in thresholds.iter().chain(&[len.saturating_sub(1), len, d.max()]) {
                        prop_assert_eq!(
                            d.greater_than_start(t),
                            sorted.partition_point(|&v| v <= t),
                            "threshold {}", t
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = OutputLengthHistory::new(0);
    }
}
