//! Step-weighted time series.
//!
//! Memory-utilization statistics in the paper (Figure 1, Table 1) are
//! averages over *time*, not over samples: a long decode step at 95%
//! utilization must weigh more than a short one at 50%. [`StepSeries`]
//! records `(time, value)` observations where each value holds until the
//! next observation.

use crate::time::SimTime;

/// A piecewise-constant time series: each recorded value holds from its
/// timestamp until the next record.
#[derive(Debug, Clone, Default)]
pub struct StepSeries {
    points: Vec<(SimTime, f64)>,
}

impl StepSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        StepSeries::default()
    }

    /// Records that the series takes value `value` from time `at` onward.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` precedes the last recorded time.
    pub fn record(&mut self, at: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            debug_assert!(at >= last, "series time went backwards");
        }
        self.points.push((at, value));
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The raw `(time, value)` points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Maximum recorded value.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
    }

    /// Downsamples to at most `n` evenly spaced points (for plotting/CSV).
    pub fn downsample(&self, n: usize) -> Vec<(SimTime, f64)> {
        if n == 0 || self.points.len() <= n {
            return self.points.clone();
        }
        let stride = self.points.len() as f64 / n as f64;
        (0..n)
            .map(|i| self.points[(i as f64 * stride) as usize])
            .collect()
    }
}

/// A small named collection of [`StepSeries`], for reports that track the
/// same quantity across several components (per-pool replica counts in a
/// disaggregated cluster, per-shard queue depths, …).
///
/// Names are created on first [`SeriesGroup::record`]; iteration order is
/// insertion order, so reports render deterministically.
#[derive(Debug, Clone, Default)]
pub struct SeriesGroup {
    entries: Vec<(String, StepSeries)>,
}

impl SeriesGroup {
    /// Creates an empty group.
    pub fn new() -> Self {
        SeriesGroup::default()
    }

    /// Records a value on the named series, creating the series on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` precedes the named series' last
    /// recorded time (see [`StepSeries::record`]).
    pub fn record(&mut self, name: &str, at: SimTime, value: f64) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, series)) => series.record(at, value),
            None => {
                let mut series = StepSeries::new();
                series.record(at, value);
                self.entries.push((name.to_string(), series));
            }
        }
    }

    /// The named series, if any value was recorded under that name.
    pub fn get(&self, name: &str) -> Option<&StepSeries> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Number of named series in the group.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no series has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(name, series)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &StepSeries)> {
        self.entries.iter().map(|(n, s)| (n.as_str(), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn max_value_is_the_largest_point() {
        let mut s = StepSeries::new();
        s.record(t(0), 1.0);
        s.record(t(1), 5.0);
        s.record(t(3), 2.0);
        assert_eq!(s.max_value(), Some(5.0));
    }

    #[test]
    fn empty_series() {
        let s = StepSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.max_value(), None);
        assert!(s.downsample(10).is_empty());
    }

    #[test]
    fn series_group_tracks_named_series_independently() {
        let mut g = SeriesGroup::new();
        assert!(g.is_empty());
        g.record("prefill-live", t(0), 2.0);
        g.record("decode-live", t(0), 1.0);
        g.record("prefill-live", t(10), 3.0);
        assert_eq!(g.len(), 2);
        assert_eq!(g.get("prefill-live").unwrap().len(), 2);
        assert_eq!(g.get("decode-live").unwrap().max_value(), Some(1.0));
        assert!(g.get("missing").is_none());
        // Insertion order is preserved for deterministic rendering.
        let names: Vec<&str> = g.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["prefill-live", "decode-live"]);
    }

    #[test]
    fn downsample_limits_points() {
        let mut s = StepSeries::new();
        for i in 0..100 {
            s.record(t(i), i as f64);
        }
        let d = s.downsample(10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0].1, 0.0);
        let full = s.downsample(1000);
        assert_eq!(full.len(), 100);
    }
}
