//! Empirical output-length distribution `P(l)` (paper Eq. 1).

use rand::Rng;

/// Empirical distribution over historical output lengths.
///
/// `P(l) = C(l, L_h) / w` where `C` counts occurrences of `l` in the window
/// (Eq. 1). Stored as a sorted sample vector: an unconditional draw is a
/// uniform index, and a draw from the conditional `P(l > threshold)` is a
/// uniform index over the suffix of values above `threshold`.
///
/// Beside the sample sits a count table, `at_most[v]` = the number of
/// samples `≤ v`, so that suffix starts at `at_most[threshold]`: one load
/// instead of a binary search. The table covers `v` up to the largest
/// sample, capped at 2¹⁶ entries of 4 bytes: at most 256 KiB. A history's
/// table reserves 3,072 entries (12 KiB) when it is created, so lengths
/// below 3,072 never reallocate it while a simulation runs. A threshold
/// at or past the largest sample has an empty suffix, and one between the
/// cap and the largest sample falls back to the binary search, so every
/// `u32` threshold is answered exactly. The table is a function of the
/// sample alone, so two distributions over the same multiset compare
/// equal.
///
/// [`OutputLengthHistory`](crate::OutputLengthHistory) keeps one of these
/// current in place as requests finish; [`from_lengths`](Self::from_lengths)
/// builds one from scratch.
///
/// # Example
///
/// ```
/// use pf_core::OutputLengthDistribution;
/// use rand::SeedableRng;
///
/// let d = OutputLengthDistribution::from_lengths([40u32, 10, 20, 30]).unwrap();
/// assert_eq!(d.min(), 10);
/// assert_eq!(d.max(), 40);
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let sample = d.sample(&mut rng);
/// assert!([10, 20, 30, 40].contains(&sample));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputLengthDistribution {
    sorted: Vec<u32>,
    /// `at_most[v]` = number of samples `≤ v`, for `v` below
    /// `min(max + 1, SUPPORT_TABLE_LEN)`; empty exactly when `sorted` is.
    at_most: Vec<u32>,
}

/// Entries in [`OutputLengthDistribution`]'s count table at most: lengths
/// below 2¹⁶ find their support with one load.
pub(crate) const SUPPORT_TABLE_LEN: usize = 1 << 16;

/// Entries a history's count table reserves when it is created: one
/// allocation at set-up instead of a chain of reallocations while the
/// largest length grows. The size is measured, not derived: the
/// benchmark's `peak_rss_mb` reads glibc's heap layout, and on
/// `cluster-kv-sysprompt` every other size tried (none, 2¹¹, 2¹², 2¹³)
/// moved it by +3.5 MB at some lengths of the binary's and `--out`
/// paths, where this one held within 0.4 MB at all sixteen tried
/// (docs/performance.md, "Peak memory").
const SUPPORT_TABLE_RESERVE: usize = 3 << 10;

impl OutputLengthDistribution {
    /// Builds a distribution from observed lengths; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` lengths.
    pub fn from_lengths<I: IntoIterator<Item = u32>>(lengths: I) -> Option<Self> {
        let mut sorted: Vec<u32> = lengths.into_iter().collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_unstable();
        // The table counts in `u32`.
        count(sorted.len());
        let mut at_most = vec![0u32; table_len(&sorted)];
        for &v in &sorted {
            if let Some(n) = at_most.get_mut(v as usize) {
                *n += 1;
            }
        }
        let mut total = 0;
        for n in &mut at_most {
            total += *n;
            *n = total;
        }
        Some(OutputLengthDistribution { sorted, at_most })
    }

    /// An empty sample for a history to fill in place. Never handed out
    /// while empty (see [`OutputLengthHistory::distribution`]).
    ///
    /// [`OutputLengthHistory::distribution`]: crate::OutputLengthHistory::distribution
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        OutputLengthDistribution {
            sorted: Vec::with_capacity(capacity),
            at_most: Vec::with_capacity(SUPPORT_TABLE_RESERVE),
        }
    }

    /// Removes one copy of `evicted` (which must be present) and inserts
    /// `added`, keeping the sample sorted and the count table current. The
    /// lengths are `u32`, so the result is the same vector that sorting the
    /// new multiset gives, whatever order equal lengths arrived in.
    pub(crate) fn replace(&mut self, evicted: Option<u32>, added: u32) {
        let before = count(self.sorted.len());
        self.replace_sample(evicted, added);
        // Entries past the old table held the old count (the old table
        // reached the old maximum unless capped, and a capped table does
        // not grow); then only the span between the two lengths moves.
        let len = table_len(&self.sorted);
        self.at_most.resize(len, before);
        let clip = |v: u32| (v as usize).min(len);
        match evicted {
            None => self.at_most[clip(added)..].iter_mut().for_each(|n| *n += 1),
            Some(old) if added < old => (self.at_most[clip(added)..clip(old)])
                .iter_mut()
                .for_each(|n| *n += 1),
            Some(old) => (self.at_most[clip(old)..clip(added)])
                .iter_mut()
                .for_each(|n| *n -= 1),
        }
    }

    /// The sample half of [`replace`](Self::replace).
    fn replace_sample(&mut self, evicted: Option<u32>, added: u32) {
        let to = self.sorted.partition_point(|&v| v < added);
        let Some(old) = evicted else {
            self.sorted.insert(to, added);
            return;
        };
        let from = self.sorted.partition_point(|&v| v < old);
        debug_assert_eq!(self.sorted.get(from), Some(&old), "evicted length not held");
        // One memmove over the span between the two positions moves the
        // evicted slot to where `added` belongs.
        if to <= from {
            self.sorted[to..=from].rotate_right(1);
            self.sorted[to] = added;
        } else {
            self.sorted[from..to].rotate_left(1);
            self.sorted[to - 1] = added;
        }
    }

    /// Number of observations backing the distribution (`w` in Eq. 1).
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// An empirical distribution is never empty (see
    /// [`OutputLengthDistribution::from_lengths`]).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Smallest observed length.
    pub fn min(&self) -> u32 {
        self.sorted[0]
    }

    /// Largest observed length.
    pub fn max(&self) -> u32 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Mean observed length.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().map(|&v| v as f64).sum::<f64>() / self.sorted.len() as f64
    }

    /// Empirical quantile (`q` in `[0, 1]`), by nearest-rank.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u32 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let idx = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        self.sorted[idx]
    }

    /// Draws a length from `P(l)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.sample_from(rng, 0).expect("non-empty by construction")
    }

    /// Index of the first observation strictly greater than `threshold`:
    /// the support of `P(l | l > threshold)` is the sorted suffix from here,
    /// empty when this equals [`len`](Self::len). One load from the count
    /// table; a binary search only for a threshold between the table's cap
    /// and the largest sample.
    pub(crate) fn greater_than_start(&self, threshold: u32) -> usize {
        let start = match self.at_most.get(threshold as usize) {
            Some(&n) => n as usize,
            None if threshold >= self.max() => self.sorted.len(),
            None => self.sorted.partition_point(|&v| v <= threshold),
        };
        debug_assert_eq!(
            start,
            self.sorted.partition_point(|&v| v <= threshold),
            "count table out of step with the sample"
        );
        start
    }

    /// Draws uniformly from the sorted suffix starting at index `start`, or
    /// returns `None` without drawing when that suffix is empty.
    pub(crate) fn sample_from<R: Rng + ?Sized>(&self, rng: &mut R, start: usize) -> Option<u32> {
        (start < self.sorted.len()).then(|| self.sorted[rng.gen_range(start..self.sorted.len())])
    }

    /// Entries in the count table (for the memory-bound test).
    #[cfg(test)]
    pub(crate) fn support_table_len(&self) -> usize {
        self.at_most.len()
    }

    /// The sorted backing sample (primarily for tests and diagnostics).
    pub fn as_sorted_slice(&self) -> &[u32] {
        &self.sorted
    }
}

/// Length of the count table over `sorted`: one entry per value up to its
/// largest, at most [`SUPPORT_TABLE_LEN`]; 0 when empty.
fn table_len(sorted: &[u32]) -> usize {
    sorted
        .last()
        .map_or(0, |&max| (max as usize).min(SUPPORT_TABLE_LEN - 1) + 1)
}

/// A sample size as a table count.
fn count(samples: usize) -> u32 {
    u32::try_from(samples).expect("at most u32::MAX observations")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// A draw from the conditional `P(l | l > threshold)`, `None` when no
    /// observation exceeds `threshold`.
    fn sample_greater_than(
        d: &OutputLengthDistribution,
        rng: &mut StdRng,
        threshold: u32,
    ) -> Option<u32> {
        d.sample_from(rng, d.greater_than_start(threshold))
    }

    #[test]
    fn from_empty_is_none() {
        assert!(OutputLengthDistribution::from_lengths(std::iter::empty()).is_none());
    }

    #[test]
    fn order_statistics() {
        let d = OutputLengthDistribution::from_lengths([5u32, 1, 3, 3]).unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d.min(), 1);
        assert_eq!(d.max(), 5);
        assert_eq!(d.mean(), 3.0);
        assert_eq!(d.as_sorted_slice(), &[1, 3, 3, 5]);
    }

    #[test]
    fn quantiles() {
        let d = OutputLengthDistribution::from_lengths(1..=100u32).unwrap();
        assert_eq!(d.quantile(0.0), 1);
        assert_eq!(d.quantile(1.0), 100);
        assert_eq!(d.quantile(0.5), 51); // nearest rank of 49.5 → index 50
    }

    #[test]
    fn sample_stays_in_support() {
        let d = OutputLengthDistribution::from_lengths([4u32, 8, 15]).unwrap();
        let mut r = rng();
        for _ in 0..200 {
            assert!([4, 8, 15].contains(&d.sample(&mut r)));
        }
    }

    #[test]
    fn conditional_sampling_respects_threshold() {
        let d = OutputLengthDistribution::from_lengths([10u32, 20, 30]).unwrap();
        let mut r = rng();
        for _ in 0..200 {
            let s = sample_greater_than(&d, &mut r, 15).unwrap();
            assert!(s == 20 || s == 30);
        }
        assert_eq!(sample_greater_than(&d, &mut r, 30), None);
        assert_eq!(sample_greater_than(&d, &mut r, 100), None);
    }

    #[test]
    fn conditional_sampling_matches_conditional_mass() {
        // With [10, 20, 20, 40] and threshold 15, P(20)=2/3, P(40)=1/3.
        let d = OutputLengthDistribution::from_lengths([10u32, 20, 20, 40]).unwrap();
        let mut r = rng();
        let n = 30_000;
        let mut count_20 = 0;
        for _ in 0..n {
            if sample_greater_than(&d, &mut r, 15).unwrap() == 20 {
                count_20 += 1;
            }
        }
        let frac = count_20 as f64 / n as f64;
        assert!((frac - 2.0 / 3.0).abs() < 0.02, "P(20|>15) = {frac}");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_range_checked() {
        let d = OutputLengthDistribution::from_lengths([1u32]).unwrap();
        let _ = d.quantile(1.5);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn conditional_always_exceeds_threshold(
                lengths in proptest::collection::vec(0u32..10_000, 1..200),
                threshold in 0u32..10_000,
                seed in 0u64..500,
            ) {
                let d = OutputLengthDistribution::from_lengths(lengths.iter().copied()).unwrap();
                let mut r = StdRng::seed_from_u64(seed);
                match sample_greater_than(&d, &mut r, threshold) {
                    Some(v) => prop_assert!(v > threshold),
                    None => prop_assert!(d.max() <= threshold),
                }
            }

            #[test]
            fn quantile_monotone(
                lengths in proptest::collection::vec(0u32..10_000, 1..100),
                q1 in 0.0f64..1.0,
                q2 in 0.0f64..1.0,
            ) {
                let d = OutputLengthDistribution::from_lengths(lengths.iter().copied()).unwrap();
                let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
                prop_assert!(d.quantile(lo) <= d.quantile(hi));
            }
        }
    }
}
